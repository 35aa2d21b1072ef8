//! The traced replay: the workload's own request lines pushed through the
//! serving modules' public functions in-process, with every layer timed
//! from the benchmark's code. Nothing inside the program is instrumented.
//!
//! The replica oracle stack mirrors a session's
//! (`CountingOracle → CachedOracle → implicit`) with a [`Timed`] wrapper
//! above each layer. The wrappers forward every `Oracle` method — the
//! bulk `neighbors_into`, `label` and `probe_cost_hint` included — so the
//! replica runs the same program the daemon runs, probe for probe.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use lca::prelude::{
    BoxedImplicitOracle, CachedOracle, CountingOracle, LcaBuilder, LcaError, Oracle, ProbeCost,
    QueryBudget, VertexId,
};
use lca::registry::DynLca;
use lca_serve::pool::WorkerPool;
use lca_serve::proto::{ErrorCode, QueryPayload, Request, Response};
use lca_serve::session::SessionRegistry;

use crate::spans::SpanLog;
use crate::workload::{dyn_query, Planned, SessionDef, Workload, CONNECTIONS};

/// Layer index of the wrapper above `CountingOracle`.
pub const COUNTING: usize = 0;
/// Layer index of the wrapper above `CachedOracle`.
pub const CACHED: usize = 1;
/// Layer index of the wrapper above the implicit generator.
pub const IMPLICIT: usize = 2;

thread_local! {
    /// Per layer: calls, then inclusive nanoseconds.
    static LAYERS: Cell<[u64; 6]> = const { Cell::new([0; 6]) };
}

/// Returns the calling thread's per-layer `[calls, ns]` totals and resets
/// them.
pub fn take_layers() -> [u64; 6] {
    LAYERS.with(|c| c.replace([0; 6]))
}

/// An `Oracle` wrapper charging each call's wall time to one layer.
#[derive(Debug)]
pub struct Timed<O> {
    inner: O,
    layer: usize,
}

impl<O> Timed<O> {
    /// Wraps `inner`, charging layer `layer`.
    pub fn new(layer: usize, inner: O) -> Timed<O> {
        Timed { inner, layer }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    #[inline]
    fn time<R>(&self, f: impl FnOnce(&O) -> R) -> R {
        let t = Instant::now();
        let r = f(&self.inner);
        let ns = t.elapsed().as_nanos() as u64;
        LAYERS.with(|c| {
            let mut a = c.get();
            a[2 * self.layer] += 1;
            a[2 * self.layer + 1] += ns;
            c.set(a);
        });
        r
    }
}

impl<O: Oracle> Oracle for Timed<O> {
    fn vertex_count(&self) -> usize {
        self.inner.vertex_count()
    }

    fn degree(&self, v: VertexId) -> usize {
        self.time(|o| o.degree(v))
    }

    fn neighbor(&self, v: VertexId, i: usize) -> Option<VertexId> {
        self.time(|o| o.neighbor(v, i))
    }

    fn adjacency(&self, u: VertexId, v: VertexId) -> Option<usize> {
        self.time(|o| o.adjacency(u, v))
    }

    fn neighbors_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> usize {
        self.time(|o| o.neighbors_into(v, out))
    }

    fn label(&self, v: VertexId) -> u64 {
        self.time(|o| o.label(v))
    }

    fn probe_cost_hint(&self) -> ProbeCost {
        self.inner.probe_cost_hint()
    }
}

/// What one [`Timed`] call costs beyond the work it wraps, measured on an
/// oracle whose methods do nothing: `inside_ns` lands in the wrapper's own
/// recorded interval, `outside_ns` in its caller's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimerCost {
    /// Recorded by the wrapper per call, ns.
    pub inside_ns: f64,
    /// Charged to the caller per call, ns.
    pub outside_ns: f64,
}

impl TimerCost {
    /// Measures the wrapper on the host the benchmark runs on.
    pub fn calibrate() -> TimerCost {
        struct Null;
        impl Oracle for Null {
            fn vertex_count(&self) -> usize {
                0
            }
            fn degree(&self, v: VertexId) -> usize {
                black_box(v.raw() as usize)
            }
            fn neighbor(&self, _: VertexId, _: usize) -> Option<VertexId> {
                None
            }
            fn adjacency(&self, _: VertexId, _: VertexId) -> Option<usize> {
                None
            }
            fn label(&self, _: VertexId) -> u64 {
                0
            }
        }
        const CALLS: usize = 200_000;
        let timed = Timed::new(COUNTING, Null);
        let saved = take_layers();
        let start = Instant::now();
        for i in 0..CALLS {
            black_box(timed.degree(VertexId::new(i)));
        }
        let wall = start.elapsed().as_nanos() as f64;
        let recorded = take_layers()[1] as f64;
        LAYERS.with(|c| c.set(saved));
        TimerCost {
            inside_ns: recorded / CALLS as f64,
            outside_ns: (wall - recorded).max(0.0) / CALLS as f64,
        }
    }
}

/// Self times of the query path's layers for a set of queries, with the
/// timing wrappers' own cost taken out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSelf {
    /// Inside `query_ctx` but outside every oracle call.
    pub algo_ns: f64,
    /// Inside `CountingOracle` but outside `CachedOracle`.
    pub counting_ns: f64,
    /// Inside `CachedOracle` but outside the generator.
    pub cached_ns: f64,
    /// Inside the implicit generator.
    pub implicit_ns: f64,
}

impl LayerSelf {
    /// Splits `query_ns` (summed `query_ctx` time) using the per-layer
    /// `[calls, inclusive ns]` totals in `layers` (see [`take_layers`]).
    /// Each wrapper's call costs `cost.inside_ns` inside its own interval
    /// and `cost.outside_ns` in its caller's; both are subtracted. The
    /// results are estimates: a layer cheaper than the calibration's own
    /// noise can come out slightly negative, and is reported as measured.
    pub fn split(query_ns: f64, layers: [u64; 6], cost: TimerCost) -> LayerSelf {
        let calls = |l: usize| layers[2 * l] as f64;
        let incl = |l: usize| layers[2 * l + 1] as f64;
        let own = |l: usize| calls(l) * cost.inside_ns;
        let below = |l: usize| calls(l) * cost.outside_ns;
        LayerSelf {
            algo_ns: query_ns - incl(COUNTING) - below(COUNTING),
            counting_ns: incl(COUNTING) - incl(CACHED) - own(COUNTING) - below(CACHED),
            cached_ns: incl(CACHED) - incl(IMPLICIT) - own(CACHED) - below(IMPLICIT),
            implicit_ns: incl(IMPLICIT) - own(IMPLICIT),
        }
    }

    /// The sum over layers: the query's time with the wrappers taken out.
    pub fn total(&self) -> f64 {
        self.algo_ns + self.counting_ns + self.cached_ns + self.implicit_ns
    }
}

/// The replica's oracle stack.
pub type Stack = Timed<CountingOracle<Timed<CachedOracle<Timed<BoxedImplicitOracle>>>>>;

/// A session rebuilt by the benchmark over a timed oracle stack.
pub struct Replica {
    algo: DynLca<'static>,
    poll_stride: u64,
}

impl Replica {
    /// Builds the session `def` the way `Session::build` does, with a
    /// [`Timed`] wrapper above each oracle layer.
    pub fn build(def: &SessionDef) -> Replica {
        let stack: Arc<Stack> = Arc::new(Timed::new(
            COUNTING,
            CountingOracle::new(Timed::new(
                CACHED,
                CachedOracle::new(Timed::new(IMPLICIT, def.oracle())),
            )),
        ));
        let algo = LcaBuilder::new(def.kind)
            .seed(def.algo_seed())
            .build(stack.clone());
        let poll_stride = stack.probe_cost_hint().poll_stride();
        Replica { algo, poll_stride }
    }

    /// Answers `q` in a fresh unbudgeted context, as the daemon does, and
    /// returns the answer and `ctx.spent()`.
    pub fn query(&self, q: QueryPayload) -> (Result<bool, LcaError>, u64) {
        let ctx = QueryBudget::unlimited()
            .ctx_at(None)
            .with_poll_stride(self.poll_stride);
        let r = self.algo.query_ctx(dyn_query(q), &ctx);
        (r, ctx.spent())
    }
}

/// One replayed request: the line as the client sent it, and what it asks.
pub struct ReplayReq {
    /// The request line.
    pub line: String,
    /// Its session and query.
    pub planned: Planned,
}

/// The replay's request list: the set-up requests (`prelude`), then `count`
/// requests of the timed traffic with the connections interleaved.
pub fn sequence(wl: &Workload, count: usize) -> (Vec<ReplayReq>, Vec<ReplayReq>) {
    let prelude = wl
        .setup_requests()
        .into_iter()
        .enumerate()
        .map(|(i, planned)| {
            let mut line = String::new();
            planned
                .session
                .line(i as u64, planned.query, i < wl.initial.len(), &mut line);
            ReplayReq { line, planned }
        })
        .collect();
    let mut traffic: Vec<_> = (0..CONNECTIONS).map(|c| wl.traffic(c)).collect();
    let main = (0..count)
        .map(|i| {
            let mut line = String::new();
            let planned = traffic[i % CONNECTIONS].next(&mut line);
            ReplayReq { line, planned }
        })
        .collect();
    (prelude, main)
}

/// What one replayed request returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// The answer, or `None` for an error response.
    pub answer: Option<bool>,
    /// Probes charged.
    pub probes: u64,
}

fn parse_query(
    line: &str,
) -> (
    String,
    Option<lca_serve::proto::SessionSpec>,
    Vec<QueryPayload>,
    Option<u64>,
) {
    match Request::parse(line) {
        Ok(Request::Query {
            session,
            spec,
            queries,
            id,
            ..
        }) => (session, spec, queries, id),
        other => panic!("replayed line {line:?} is not a query: {other:?}"),
    }
}

/// The untraced replay: parse, hand off to a pool sized like the daemon's,
/// resolve in a `SessionRegistry`, `Session::answer`, render. Returns the
/// wall time of the `main` part and every main-part outcome.
pub fn run_bare(
    prelude: &[ReplayReq],
    main: &[ReplayReq],
    pool: &WorkerPool,
) -> (Duration, Vec<Outcome>) {
    let registry = Arc::new(SessionRegistry::new());
    let (tx, rx) = mpsc::channel::<Outcome>();
    let mut outcomes = Vec::with_capacity(main.len());
    let mut start = Instant::now();
    for (i, req) in prelude.iter().chain(main).enumerate() {
        if i == prelude.len() {
            start = Instant::now();
        }
        let (session, spec, queries, id) = parse_query(&req.line);
        let registry = registry.clone();
        let tx = tx.clone();
        let job = move || {
            let outcome = match registry.resolve(&session, spec) {
                Ok(s) => {
                    let response =
                        s.answer(&session, &queries, id, &QueryBudget::unlimited(), None);
                    black_box(response.render());
                    match response {
                        Response::Answer { answer, probes, .. } => Outcome {
                            answer: Some(answer),
                            probes,
                        },
                        _ => Outcome {
                            answer: None,
                            probes: 0,
                        },
                    }
                }
                Err(_) => Outcome {
                    answer: None,
                    probes: 0,
                },
            };
            let _ = tx.send(outcome);
        };
        submit(pool, job);
        let outcome = rx.recv().expect("replay job dropped its result");
        if i >= prelude.len() {
            outcomes.push(outcome);
        }
    }
    (start.elapsed(), outcomes)
}

fn submit(pool: &WorkerPool, job: impl FnOnce() + Send + 'static) {
    pool.try_execute(job)
        .expect("the replay keeps one job in flight, so the pool always admits it");
}

/// Timestamps a traced job sends back to the replay loop.
#[derive(Debug, Clone, Copy)]
struct JobTrace {
    start: Instant,
    resolve: (Instant, Instant),
    query: (Instant, Instant),
    render: (Instant, Instant),
    layers: [u64; 6],
    outcome: Outcome,
}

/// Per-request figures of the traced replay.
#[derive(Debug, Default)]
pub struct Traced {
    /// Wall time of the main part.
    pub elapsed: Duration,
    /// Every span, prelude included.
    pub log: SpanLog,
    /// Main-part outcomes, in order.
    pub outcomes: Vec<Outcome>,
    /// Index of the first main-part request.
    pub main_from: u64,
}

/// The traced replay: the same path as [`run_bare`], with a span around
/// each layer call and the replica stack answering the query.
pub fn run_traced(prelude: &[ReplayReq], main: &[ReplayReq], pool: &WorkerPool) -> Traced {
    // Replicas are built before the clock starts: they are the benchmark's
    // instrument, not work the daemon does.
    let mut replicas: HashMap<String, Arc<Replica>> = HashMap::new();
    for req in prelude.iter().chain(main) {
        let def = &req.planned.session;
        replicas
            .entry(def.name.clone())
            .or_insert_with(|| Arc::new(Replica::build(def)));
    }
    let registry = Arc::new(SessionRegistry::new());
    let mut seen: HashSet<String> = HashSet::new();
    let (tx, rx) = mpsc::channel::<JobTrace>();
    let mut traced = Traced {
        main_from: prelude.len() as u64,
        ..Traced::default()
    };
    let mut start = Instant::now();
    for (i, req) in prelude.iter().chain(main).enumerate() {
        if i == prelude.len() {
            start = Instant::now();
        }
        let t_root = Instant::now();
        let (session, spec, queries, id) = parse_query(&req.line);
        let t_parsed = Instant::now();
        let built = seen.insert(session.clone());
        let replica = replicas[&session].clone();
        let registry = registry.clone();
        let tx = tx.clone();
        let job = move || {
            let start = Instant::now();
            let resolved = registry.resolve(&session, spec).is_ok();
            let resolve = (start, Instant::now());
            take_layers();
            let q0 = Instant::now();
            let (answer, probes) = replica.query(queries[0]);
            let q1 = Instant::now();
            let layers = take_layers();
            let answer = answer.ok().filter(|_| resolved);
            let r0 = Instant::now();
            let response = match answer {
                Some(answer) => Response::Answer {
                    id,
                    session,
                    answer,
                    probes,
                    micros: (q1 - q0).as_micros() as u64,
                },
                None => Response::Error {
                    id,
                    code: ErrorCode::Internal,
                    message: String::new(),
                },
            };
            black_box(response.render());
            let render = (r0, Instant::now());
            let _ = tx.send(JobTrace {
                start,
                resolve,
                query: (q0, q1),
                render,
                layers,
                outcome: Outcome { answer, probes },
            });
        };
        let t_submit = Instant::now();
        submit(pool, job);
        let jt = rx.recv().expect("replay job dropped its result");
        let t_done = Instant::now();
        let rid = i as u64;
        let log = &mut traced.log;
        let root = log.push("request", t_root, t_done, None, rid);
        log.push("proto.parse", t_root, t_parsed, Some(root), rid);
        log.push("pool.handoff", t_submit, jt.start, Some(root), rid);
        let resolve_name = if built {
            "session.build"
        } else {
            "session.resolve"
        };
        log.push(resolve_name, jt.resolve.0, jt.resolve.1, Some(root), rid);
        let q = log.push("algo.query", jt.query.0, jt.query.1, Some(root), rid);
        log.attach(q, "probe.counting", jt.layers[0], jt.layers[1]);
        log.attach(q, "probe.cached", jt.layers[2], jt.layers[3]);
        log.attach(q, "graph.implicit", jt.layers[4], jt.layers[5]);
        log.push("proto.render", jt.render.0, jt.render.1, Some(root), rid);
        if i >= prelude.len() {
            traced.outcomes.push(jt.outcome);
        }
    }
    traced.elapsed = start.elapsed();
    traced
}

/// Fleet-layer timings from replaying lines through an in-process
/// `Fleet` over the workload's live backends.
#[derive(Debug, Default)]
pub struct FleetTimes {
    /// `http::try_parse` on the request bytes, ns.
    pub parse_ns: Vec<f64>,
    /// `http::render_response`, ns.
    pub render_ns: Vec<f64>,
    /// `Fleet::query`, µs.
    pub query_us: Vec<f64>,
    /// `BackendPool::roundtrip` of the forwarded line, µs.
    pub roundtrip_us: Vec<f64>,
    /// `Fleet::query` minus the round trip, per request, µs.
    pub router_self_us: Vec<f64>,
    /// Replies that were not answers.
    pub failed: u64,
    /// The in-process fleet's `stats` rollup.
    pub rollup: Option<serde::Json>,
}

/// Replays `reqs` through `Fleet::query` against `backends`, timing the
/// HTTP codec, the router and the backend round trip of the line the
/// router forwards (the request with its spec fields).
pub fn fleet_replay(backends: Vec<String>, reqs: &[ReplayReq]) -> FleetTimes {
    use lca_fleet::client::BackendPool;
    use lca_fleet::{http, Fleet};
    let fleet = Fleet::new(backends.clone());
    let pools: Vec<BackendPool> = backends.into_iter().map(BackendPool::new).collect();
    let mut t = FleetTimes::default();
    let mut forwarded = String::new();
    for (i, req) in reqs.iter().enumerate() {
        let bytes = format!(
            "POST /v1/query HTTP/1.1\r\nHost: lca\r\nContent-Length: {}\r\n\r\n{}",
            req.line.len(),
            req.line
        )
        .into_bytes();
        let t0 = Instant::now();
        let parsed = http::try_parse(black_box(&bytes), &mut 0);
        t.parse_ns.push(t0.elapsed().as_nanos() as f64);
        let http::ParseOutcome::Request(request, _) = parsed else {
            t.failed += 1;
            continue;
        };
        let body = String::from_utf8(request.body).unwrap_or_default();
        let def = &req.planned.session;
        def.line(i as u64, req.planned.query, true, &mut forwarded);
        let pool = &pools[fleet.route(&def.name)];
        // Warm the backend on this query first, so the router call and the
        // bare round trip below both see the same warm state.
        let warm = pool.roundtrip(&forwarded);
        let t0 = Instant::now();
        let reply = fleet.query(&body);
        let query_us = t0.elapsed().as_secs_f64() * 1e6;
        let t0 = Instant::now();
        let direct = pool.roundtrip(&forwarded);
        let roundtrip_us = t0.elapsed().as_secs_f64() * 1e6;
        let t0 = Instant::now();
        black_box(http::render_response(reply.status, &reply.body));
        t.render_ns.push(t0.elapsed().as_nanos() as f64);
        let answered = |r: &str| crate::client::parse_answer(r.trim()).is_ok();
        if reply.status != 200
            || !answered(&reply.body)
            || !warm.as_deref().is_ok_and(answered)
            || !direct.as_deref().is_ok_and(answered)
        {
            t.failed += 1;
            continue;
        }
        t.query_us.push(query_us);
        t.roundtrip_us.push(roundtrip_us);
        t.router_self_us.push(query_us - roundtrip_us);
    }
    t.rollup = serde_json::from_str(&fleet.stats().body)
        .ok()
        .and_then(|v: serde::Json| v.get("fleet").cloned());
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_split_subtracts_wrapper_cost() {
        let cost = TimerCost {
            inside_ns: 10.0,
            outside_ns: 20.0,
        };
        // counting: 4 calls, 1000 ns; cached: 4 calls, 700 ns; implicit:
        // 2 calls, 300 ns; query 1500 ns.
        let split = LayerSelf::split(1500.0, [4, 1000, 4, 700, 2, 300], cost);
        assert_eq!(split.algo_ns, 1500.0 - 1000.0 - 80.0);
        assert_eq!(split.counting_ns, 1000.0 - 700.0 - 40.0 - 80.0);
        assert_eq!(split.cached_ns, 700.0 - 300.0 - 40.0 - 40.0);
        assert_eq!(split.implicit_ns, 300.0 - 20.0);
        assert_eq!(split.total(), 1500.0 - 10.0 * 10.0 - 20.0 * 10.0);
    }

    #[test]
    fn calibration_is_positive_and_restores_counters() {
        LAYERS.with(|c| c.set([1, 2, 3, 4, 5, 6]));
        let cost = TimerCost::calibrate();
        assert!(cost.inside_ns >= 0.0 && cost.outside_ns >= 0.0);
        assert!(cost.inside_ns + cost.outside_ns > 0.0);
        assert_eq!(take_layers(), [1, 2, 3, 4, 5, 6]);
    }
}
