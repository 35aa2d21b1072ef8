//! `lca-perfbench` — one run of one workload; see `perfbench/README.md`.
//!
//! ```text
//! lca-perfbench --workload hot-mix|cold-tail|gateway-churn --bin-dir DIR
//!               [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//! ```
//!
//! `--bin-dir` holds the `lca-serve` and `lca-gateway` binaries under test.
//! The last stdout line is the JSON result; the exit code is 0 only when
//! every request was answered and every checked answer was right.

#![allow(clippy::print_stdout)]

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

use lca_perfbench::daemon::Topology;
use lca_perfbench::live::{self, Outcomes, Sample, Window};
use lca_perfbench::metrics::{unit_of, DEFAULT_SEED, END_TO_END, PER_LAYER};
use lca_perfbench::stats::{
    self, delta_ratio, highest_supported_percentile, percentile, sorted, PERCENTILES,
};
use lca_perfbench::trace::{self, FleetTimes, LayerSelf, TimerCost, Traced};
use lca_perfbench::verify;
use lca_perfbench::workload::{self, Kind, Workload};
use serde::Json;

/// Set-ups per hot-mix timed run; `setup_s` is their median.
const SETUPS: usize = 15;

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut bin_dir = None;
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        out_dir,
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    /// Records metric `name` (its unit comes from the metric tables).
    fn add(&mut self, name: &'static str, value: f64, samples: usize) {
        let unit = unit_of(&END_TO_END, name)
            .or_else(|| unit_of(&PER_LAYER, name))
            .expect("every reported metric is in a metric table");
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Counts `outcomes` and recomputes their answers.
    fn check(&mut self, outcomes: Outcomes) {
        self.attempted += outcomes.attempted;
        self.failed += outcomes.failed;
        self.errors.extend(outcomes.errors);
        let wrong = verify::mismatches(&outcomes.answered);
        self.failed += wrong.len() as u64;
        self.errors.extend(wrong.into_iter().take(8));
        println!("verified {} answered requests", outcomes.answered.len());
    }

    /// Whether the reported metrics are exactly those of `table`, in order.
    fn matches(&self, table: &[(&str, &str)]) -> bool {
        self.metrics
            .iter()
            .map(|m| m.name)
            .eq(table.iter().map(|(name, _)| *name))
    }

    fn print(&self) {
        for e in &self.errors {
            eprintln!("failure: {e}");
        }
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "failed_ratio = {failed_ratio} ({} of {} attempted)",
            self.failed, self.attempted
        );
        for m in &self.metrics {
            println!(
                "{} = {} {} (samples: {})",
                m.name, m.value, m.unit, m.samples
            );
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no infinities; an unsupported figure is already a
                // failed run.
                let v = if m.value.is_finite() {
                    m.value
                } else {
                    f64::MAX
                };
                format!("\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}", m.name, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}

fn latencies_us(samples: &[Sample]) -> Vec<f64> {
    sorted(
        samples
            .iter()
            .map(|s| {
                if s.ok {
                    s.latency_ns as f64 / 1e3
                } else {
                    f64::INFINITY
                }
            })
            .collect(),
    )
}

/// `percentile` that treats an empty sample as 0 (only reachable in a run
/// that already failed).
fn pct(sorted: &[f64], p: f64) -> f64 {
    percentile(sorted, p).unwrap_or(0.0)
}

/// The figures of one timed round.
struct RoundFigures {
    qps: f64,
    p50: f64,
    /// `None` when the round's sample count cannot support a p99.
    p99: Option<f64>,
    /// Share of the machine's CPU time the hypervisor took during the
    /// round; `None` where it cannot be read.
    steal: Option<f64>,
}

impl RoundFigures {
    fn of(window: &Window, steal: Option<f64>) -> RoundFigures {
        let ok = window.samples.iter().filter(|s| s.ok).count();
        let lat = latencies_us(&window.samples);
        let p99 = highest_supported_percentile(lat.len(), &PERCENTILES)
            .is_some_and(|p| p >= 99.0)
            .then(|| pct(&lat, 99.0));
        RoundFigures {
            qps: ok as f64 / window.elapsed.as_secs_f64(),
            p50: pct(&lat, 50.0),
            p99,
            steal,
        }
    }
}

/// A timed run: rounds of `Kind::round_len` requests per connection until
/// `--seconds` have passed. A workload whose daemons gain state with every
/// request starts fresh daemons for each round; hot-mix sets up `SETUPS`
/// times first and runs every round on the last set-up's daemons.
///
/// `qps` and the latencies are medians over the quietest rounds
/// (`stats::quietest_rounds`): every round serves the same program in the
/// same state, so rounds differ by how much CPU the machine's other
/// tenants took, and only the rounds that lost the least of it measure the
/// program. `setup_s` is the median of all set-ups, whose few
/// milliseconds are too short for a steal reading.
fn timed_run(args: &Args, report: &mut Report) -> io::Result<()> {
    let wl = Workload::new(args.workload, args.seed);
    let per_conn = args.workload.round_len();
    let mut outcomes = Outcomes::default();
    let mut setup_s = Vec::new();
    let mut shared: Option<Topology> = None;
    if !args.workload.fresh_daemons() {
        for _ in 0..SETUPS {
            if let Some(t) = shared.take() {
                t.shutdown();
            }
            let (t, s) = live::setup(&args.bin_dir, &wl, &mut outcomes)?;
            setup_s.push(s);
            shared = Some(t);
        }
    }
    let mut rounds: Vec<RoundFigures> = Vec::new();
    let mut rss_mb = Vec::new();
    let (mut probes, mut answered, mut requests) = (0u64, 0usize, 0usize);
    let start = std::time::Instant::now();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let plan = live::plan(&wl, rounds.len() as u64, per_conn);
        let (window, steal) = match &shared {
            Some(topo) => live::run_plan(topo, &plan)?,
            None => {
                let round = live::run_round(&args.bin_dir, &wl, &plan, &mut outcomes)?;
                setup_s.push(round.setup_s);
                rss_mb.push(round.rss_mb);
                (round.window, round.steal)
            }
        };
        let ok: Vec<&Sample> = window.samples.iter().filter(|s| s.ok).collect();
        probes += ok.iter().map(|s| s.probes).sum::<u64>();
        answered += ok.len();
        requests += window.samples.len();
        rounds.push(RoundFigures::of(&window, steal));
        outcomes.merge(window.outcomes);
    }
    if let Some(topo) = shared {
        rss_mb.push(topo.peak_rss_mb()?);
        topo.shutdown();
    }
    report.check(outcomes);

    let steal: Option<Vec<f64>> = rounds.iter().map(|r| r.steal).collect();
    let quiet = match &steal {
        Some(steal) => stats::quietest_rounds(steal),
        None => (0..rounds.len()).collect(),
    };
    let pick = |f: fn(&RoundFigures) -> Option<f64>| -> Vec<f64> {
        quiet.iter().filter_map(|&i| f(&rounds[i])).collect()
    };
    let (qps, p50, p99) = (
        pick(|r| Some(r.qps)),
        pick(|r| Some(r.p50)),
        pick(|r| r.p99),
    );
    if p99.is_empty() {
        report.failed += 1;
        report
            .errors
            .push("no quiet round has enough samples for a p99".to_owned());
    }
    println!(
        "{} rounds of {} requests; per round, qps {:.0?}, p50 us {:.1?}, p99 us {:.1?}, \
         steal % {:.1?}; quietest {:?}; peak rss MiB {:.1?}",
        rounds.len(),
        per_conn * workload::CONNECTIONS,
        rounds.iter().map(|r| r.qps).collect::<Vec<_>>(),
        rounds.iter().map(|r| r.p50).collect::<Vec<_>>(),
        rounds
            .iter()
            .map(|r| r.p99.unwrap_or(f64::NAN))
            .collect::<Vec<_>>(),
        steal
            .unwrap_or_default()
            .iter()
            .map(|s| s * 100.0)
            .collect::<Vec<_>>(),
        quiet,
        rss_mb
    );
    report.add("qps", stats::median(&qps).unwrap_or(0.0), answered);
    report.add(
        "latency_p50_us",
        stats::median(&p50).unwrap_or(0.0),
        requests,
    );
    report.add(
        "latency_p99_us",
        stats::median(&p99).unwrap_or(0.0),
        requests,
    );
    report.add(
        "probes_per_query",
        probes as f64 / answered.max(1) as f64,
        answered,
    );
    report.add(
        "peak_rss_mb",
        stats::median(&rss_mb).unwrap_or(0.0),
        rss_mb.len(),
    );
    report.add(
        "setup_s",
        stats::median(&setup_s).unwrap_or(0.0),
        setup_s.len(),
    );
    Ok(())
}

/// Sums counter `key` over the backends' `stats` objects.
fn sum_stat(snapshots: &[Json], key: &str) -> u64 {
    snapshots
        .iter()
        .filter_map(|s| {
            s.get("stats")
                .and_then(|g| g.get(key))
                .and_then(Json::as_u64)
        })
        .sum()
}

fn backend_stats(topo: &Topology) -> io::Result<Vec<Json>> {
    topo.backends.iter().map(|b| b.stats()).collect()
}

/// Requests replayed in-process per workload, and of those, requests
/// replayed through the fleet router.
fn replay_len(kind: Kind) -> (usize, usize) {
    match kind {
        Kind::HotMix => (8192, 2000),
        Kind::ColdTail => (2048, 400),
        Kind::GatewayChurn => (8192, 2000),
    }
}

fn traced_run(args: &Args, report: &mut Report) -> io::Result<()> {
    let wl = Workload::new(args.workload, args.seed);
    let mut outcomes = Outcomes::default();
    let (topo, _) = live::setup(&args.bin_dir, &wl, &mut outcomes)?;
    let before = backend_stats(&topo)?;
    let window = live::run_window(&topo, &wl, args.seconds)?;
    let after = backend_stats(&topo)?;
    let gateway_rollup = match &topo.gateway {
        Some(g) => g.stats()?.get("fleet").cloned(),
        None => None,
    };
    let (replay_n, fleet_n) = replay_len(args.workload);
    let (prelude, main) = trace::sequence(&wl, replay_n);
    let backends = topo.backends.iter().map(|b| b.addr.clone()).collect();
    let fleet = trace::fleet_replay(backends, &main[..fleet_n]);
    topo.shutdown();

    let Window {
        samples,
        outcomes: window_outcomes,
        elapsed: _,
    } = window;
    outcomes.merge(window_outcomes);
    report.check(outcomes);
    if fleet.failed > 0 {
        report.failed += fleet.failed;
        report
            .errors
            .push(format!("{} fleet replay requests failed", fleet.failed));
    }

    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = lca_serve::pool::WorkerPool::new(workers, 1024);
    let timer = TimerCost::calibrate();
    let (bare_elapsed, bare) = trace::run_bare(&prelude, &main, &pool);
    let traced = trace::run_traced(&prelude, &main, &pool);
    pool.shutdown();
    let diverged = bare
        .iter()
        .zip(&traced.outcomes)
        .filter(|(b, t)| b != t || b.answer.is_none())
        .count();
    if diverged > 0 {
        report.failed += diverged as u64;
        report.errors.push(format!(
            "{diverged} replayed requests differ between the bare and traced stacks"
        ));
    }
    report.attempted += 2 * main.len() as u64;
    std::fs::create_dir_all(&args.out_dir)?;
    let spans_path = args.out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    traced.log.write_jsonl(&spans_path)?;
    println!(
        "{} spans written to {}; replay {} requests, bare {:.3} s, traced {:.3} s",
        traced.log.spans.len(),
        spans_path.display(),
        main.len(),
        bare_elapsed.as_secs_f64(),
        traced.elapsed.as_secs_f64()
    );
    let mut self_us = std::collections::BTreeMap::<&str, f64>::new();
    for (s, ns) in traced.log.spans.iter().zip(traced.log.self_ns()) {
        if s.request >= traced.main_from {
            *self_us.entry(s.name).or_default() += ns as f64 / 1e3 / main.len() as f64;
        }
    }
    let by_span: Vec<String> = self_us.iter().map(|(k, v)| format!("{k} {v:.3}")).collect();
    println!(
        "mean self time per replayed request, us: {}",
        by_span.join(", ")
    );

    layer_metrics(
        report,
        &LayerInputs {
            samples: &samples,
            before: &before,
            after: &after,
            traced: &traced,
            fleet: &fleet,
            gateway_rollup: gateway_rollup.as_ref(),
            overhead: 1.0 - bare_elapsed.as_secs_f64() / traced.elapsed.as_secs_f64(),
            timer,
        },
    );
    Ok(())
}

struct LayerInputs<'a> {
    samples: &'a [Sample],
    before: &'a [Json],
    after: &'a [Json],
    traced: &'a Traced,
    fleet: &'a FleetTimes,
    gateway_rollup: Option<&'a Json>,
    overhead: f64,
    timer: TimerCost,
}

fn layer_metrics(report: &mut Report, x: &LayerInputs) {
    let ok: Vec<&Sample> = x.samples.iter().filter(|s| s.ok).collect();
    let n_ok = ok.len();
    let lat_us: Vec<f64> = ok.iter().map(|s| s.latency_ns as f64 / 1e3).collect();
    let micros = sorted(ok.iter().map(|s| s.micros as f64).collect());
    let transport = sorted(
        ok.iter()
            .map(|s| s.latency_ns as f64 / 1e3 - s.micros as f64)
            .collect(),
    );

    // reactor: client-side transport and the daemons' syscall counters.
    report.add("reactor.transport_us_p50", pct(&transport, 50.0), n_ok);
    let ratio = |num: &str, den: &str| {
        delta_ratio(
            (sum_stat(x.before, num), sum_stat(x.before, den)),
            (sum_stat(x.after, num), sum_stat(x.after, den)),
        )
        .unwrap_or(0.0)
    };
    let responses = (sum_stat(x.after, "responses")
        - sum_stat(x.before, "responses").min(sum_stat(x.after, "responses")))
        as usize;
    report.add(
        "reactor.syscalls_per_response",
        ratio("write_syscalls", "responses"),
        responses,
    );
    report.add(
        "reactor.completions_per_wake",
        ratio("completions_delivered", "reactor_wakeups"),
        responses,
    );
    report.add(
        "reactor.bytes_per_response",
        ratio("bytes_written", "responses"),
        responses,
    );

    // proto, pool, session: from the traced replay's spans.
    let t = x.traced;
    let main = |s: &lca_perfbench::spans::Span| s.request >= t.main_from;
    let durations = |name: &str, all: bool, scale: f64| -> Vec<f64> {
        sorted(
            t.log
                .spans
                .iter()
                .filter(|s| s.name == name && (all || main(s)))
                .map(|s| (s.end_ns - s.start_ns) as f64 / scale)
                .collect(),
        )
    };
    let parse = durations("proto.parse", false, 1.0);
    report.add("proto.parse_ns", pct(&parse, 50.0), parse.len());
    let render = durations("proto.render", false, 1.0);
    report.add("proto.render_ns", pct(&render, 50.0), render.len());
    let handoff = durations("pool.handoff", false, 1e3);
    report.add("pool.handoff_us_p50", pct(&handoff, 50.0), handoff.len());
    let resolve = durations("session.resolve", true, 1.0);
    report.add("session.resolve_ns", pct(&resolve, 50.0), resolve.len());
    let build = durations("session.build", true, 1e3);
    report.add("session.build_us", pct(&build, 50.0), build.len());
    report.add("session.answer_us_p50", pct(&micros, 50.0), n_ok);
    report.add("session.answer_us_p99", pct(&micros, 99.0), n_ok);
    report.add(
        "session.resident",
        sum_stat(x.after, "sessions") as f64,
        x.after.len(),
    );

    // algo, probe, graph: the query spans and their layer aggregates, with
    // the timing wrappers' own cost taken out.
    let mut totals = [[0u64; 6]; 2]; // [prelude, main] × [calls, ns] per layer
    let mut query_ns = [0u64; 2];
    let mut queries = [0usize; 2];
    for (i, s) in t.log.spans.iter().enumerate() {
        if s.name == "algo.query" {
            let m = usize::from(main(s));
            query_ns[m] += s.end_ns - s.start_ns;
            queries[m] += 1;
            for a in t.log.aggregates.iter().filter(|a| a.span == i) {
                let l = match a.layer {
                    "probe.counting" => trace::COUNTING,
                    "probe.cached" => trace::CACHED,
                    _ => trace::IMPLICIT,
                };
                totals[m][2 * l] += a.calls;
                totals[m][2 * l + 1] += a.ns;
            }
        }
    }
    let per = |ns: f64, calls: u64| if calls == 0 { 0.0 } else { ns / calls as f64 };
    let split = LayerSelf::split(query_ns[1] as f64, totals[1], x.timer);
    let nq = queries[1].max(1) as f64;
    let [c_calls, _, k_calls, _, g_calls, _] = totals[1];
    report.add(
        "algo.self_us_per_query",
        split.algo_ns / nq / 1e3,
        queries[1],
    );
    let probes = sorted(t.outcomes.iter().map(|o| o.probes as f64).collect());
    report.add("algo.probes_p50", pct(&probes, 50.0), probes.len());
    report.add("algo.probes_p99", pct(&probes, 99.0), probes.len());
    report.add(
        "probe.counting.self_ns_per_probe",
        per(split.counting_ns, c_calls),
        c_calls as usize,
    );
    report.add(
        "probe.cached.self_ns_per_probe",
        per(split.cached_ns, k_calls),
        k_calls as usize,
    );
    let hits = sum_stat(x.after, "cache_hits_total")
        .saturating_sub(sum_stat(x.before, "cache_hits_total"));
    let misses = sum_stat(x.after, "cache_misses_total")
        .saturating_sub(sum_stat(x.before, "cache_misses_total"));
    report.add(
        "probe.cached.hit_rate",
        per(hits as f64, hits + misses),
        (hits + misses) as usize,
    );
    let entries: u64 = x
        .after
        .iter()
        .filter_map(|s| match s.get("sessions") {
            Some(Json::Obj(sessions)) => Some(
                sessions
                    .iter()
                    .filter_map(|(_, v)| v.get("cache_entries").and_then(Json::as_u64))
                    .sum::<u64>(),
            ),
            _ => None,
        })
        .sum();
    report.add("probe.cached.entries", entries as f64, x.after.len());
    report.add(
        "graph.implicit.calls_per_query",
        g_calls as f64 / nq,
        queries[1],
    );
    // Unit cost over every replayed query: on warm workloads the timed part
    // may not reach the generator at all.
    let prelude_split = LayerSelf::split(query_ns[0] as f64, totals[0], x.timer);
    let all_g_calls = g_calls + totals[0][4];
    report.add(
        "graph.implicit.ns_per_call",
        per(split.implicit_ns + prelude_split.implicit_ns, all_g_calls),
        all_g_calls as usize,
    );

    // fleet: the in-process router replay, plus the gateway's rollup.
    let f = x.fleet;
    let fs = |v: &[f64]| sorted(v.to_vec());
    let (parse, render, router, rt, query) = (
        fs(&f.parse_ns),
        fs(&f.render_ns),
        fs(&f.router_self_us),
        fs(&f.roundtrip_us),
        fs(&f.query_us),
    );
    report.add("fleet.http_parse_ns", pct(&parse, 50.0), parse.len());
    report.add("fleet.http_render_ns", pct(&render, 50.0), render.len());
    report.add("fleet.router_self_us", pct(&router, 50.0), router.len());
    report.add("fleet.backend_roundtrip_us_p50", pct(&rt, 50.0), rt.len());
    let front = match x.gateway_rollup {
        Some(_) => pct(&sorted(lat_us.clone()), 50.0),
        None => pct(&query, 50.0),
    };
    report.add("fleet.hop_us_p50", front - pct(&rt, 50.0), rt.len());
    let rollup = x.gateway_rollup.or(f.rollup.as_ref());
    let counter = |k: &str| {
        rollup
            .and_then(|r| r.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    report.add("fleet.spec_cache_entries", counter("spec_cache_entries"), 1);
    report.add(
        "fleet.spec_cache_evictions",
        counter("spec_cache_evictions"),
        1,
    );
    report.add("fleet.retries", counter("retries"), 1);

    // trace: how much of the client's latency the layers account for, and
    // what timing them cost.
    let mean_lat = stats::mean(&lat_us).unwrap_or(0.0);
    let mean_transport = stats::mean(&transport).unwrap_or(0.0);
    let explained = mean_transport + split.total() / nq / 1e3;
    report.add(
        "trace.unexplained_share",
        if mean_lat > 0.0 {
            1.0 - explained / mean_lat
        } else {
            0.0
        },
        n_ok,
    );
    report.add("trace.overhead", x.overhead, queries[1]);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("lca-perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let run = if args.trace {
        traced_run(&args, &mut report)
    } else {
        timed_run(&args, &mut report)
    };
    if let Err(e) = run {
        eprintln!("lca-perfbench: {} run failed: {e}", args.workload.name());
        return ExitCode::from(2);
    }
    if !report.matches(if args.trace { &PER_LAYER } else { &END_TO_END }) {
        eprintln!("lca-perfbench: reported metrics differ from the metric table");
        return ExitCode::from(2);
    }
    report.print();
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
