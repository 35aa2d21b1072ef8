//! The closed-loop client: set-up, then either one timed window or a
//! series of fixed-plan rounds, with every connection keeping exactly one
//! request in flight.

use std::io;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::client::{parse_answer, Conn, Proto};
use crate::daemon::Topology;
use crate::stats::{delta_ratio, parse_cpu_steal};
use crate::verify::Answered;
use crate::workload::{Planned, Traffic, Workload, CONNECTIONS};

/// One attempted request, as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Send to complete response, in ns.
    pub latency_ns: u64,
    /// When the response completed, in ns since the window opened (0
    /// outside a window).
    pub at_ns: u64,
    /// Server-reported service time (0 for a failure).
    pub micros: u64,
    /// Server-reported probes (0 for a failure).
    pub probes: u64,
    /// Whether the request was answered.
    pub ok: bool,
}

/// Requests sent outside a timed window, with their outcomes.
#[derive(Debug, Default)]
pub struct Outcomes {
    /// Attempted requests.
    pub attempted: u64,
    /// Failures (transport, protocol and error responses).
    pub failed: u64,
    /// Answers to recompute.
    pub answered: Vec<Answered>,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Outcomes {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: Outcomes) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.answered.extend(other.answered);
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// Sends `planned` as `line` on `conn` and records what came back.
    fn send(&mut self, conn: &mut Conn, line: &str, planned: Planned) -> io::Result<Sample> {
        self.attempted += 1;
        let t0 = Instant::now();
        let reply = conn.roundtrip(line).map(parse_answer);
        let latency_ns = t0.elapsed().as_nanos() as u64;
        let failed = Sample {
            latency_ns,
            at_ns: 0,
            micros: 0,
            probes: 0,
            ok: false,
        };
        match reply {
            Ok(Ok(a)) => {
                if planned.verify {
                    self.answered.push(Answered {
                        session: planned.session,
                        query: planned.query,
                        answer: a.answer,
                        probes: a.probes,
                    });
                }
                Ok(Sample {
                    latency_ns,
                    at_ns: 0,
                    micros: a.micros,
                    probes: a.probes,
                    ok: true,
                })
            }
            Ok(Err(code)) => {
                self.fail(format!("{}: {code}", planned.session.name));
                Ok(failed)
            }
            Err(e) => {
                self.fail(format!("{}: transport: {e}", planned.session.name));
                Err(e)
            }
        }
    }
}

/// Starts the workload's daemons and brings every initial session up
/// (first query answered; hot-mix also runs its warm-up pass). Returns the
/// running daemons and the seconds that took.
pub fn setup(bin_dir: &Path, wl: &Workload, out: &mut Outcomes) -> io::Result<(Topology, f64)> {
    let requests = wl.setup_requests();
    let start = Instant::now();
    let gateway = wl.via_gateway();
    let topo = Topology::start(bin_dir, if gateway { 2 } else { 1 }, gateway)?;
    let (addr, proto) = topo.entry();
    let mut conn = Conn::connect(addr, proto)?;
    let mut line = String::new();
    for (i, planned) in requests.into_iter().enumerate() {
        let first = i < wl.initial.len();
        planned
            .session
            .line(i as u64, planned.query, first, &mut line);
        out.send(&mut conn, &line, planned)?;
    }
    Ok((topo, start.elapsed().as_secs_f64()))
}

/// The timed window's record.
#[derive(Debug, Default)]
pub struct Window {
    /// Every request attempted inside the window.
    pub samples: Vec<Sample>,
    /// Outcomes (for verification and failure counts).
    pub outcomes: Outcomes,
    /// Wall time of the window.
    pub elapsed: Duration,
}

/// What one connection sends.
enum Feed<'a> {
    /// Its traffic stream, for a fixed time.
    Timed(Traffic<'a>, Duration),
    /// A fixed list of request lines, each sent once, in order.
    Plan(&'a [(String, Planned)]),
}

/// Runs one closed-loop connection until its feed ends. Pushes exactly one
/// sample per request line, failed or not, so samples of a plan line up
/// with its lines.
fn drive(
    addr: &str,
    proto: Proto,
    barrier: &Barrier,
    mut feed: Feed<'_>,
) -> io::Result<(Vec<Sample>, Outcomes, Duration)> {
    let conn = Conn::connect(addr, proto);
    barrier.wait();
    let mut conn = conn?;
    let mut samples = Vec::with_capacity(1 << 16);
    let mut outcomes = Outcomes::default();
    let mut line = String::new();
    let start = Instant::now();
    loop {
        let (text, planned) = match &mut feed {
            Feed::Timed(traffic, duration) => {
                if start.elapsed() >= *duration {
                    break;
                }
                let planned = traffic.next(&mut line);
                (line.as_str(), planned)
            }
            Feed::Plan(plan) => match plan.get(samples.len()) {
                Some((text, planned)) => (text.as_str(), planned.clone()),
                None => break,
            },
        };
        let sent = outcomes.send(&mut conn, text, planned);
        let at_ns = start.elapsed().as_nanos() as u64;
        match sent {
            Ok(sample) => samples.push(Sample { at_ns, ..sample }),
            Err(_) => {
                samples.push(Sample {
                    latency_ns: u64::MAX,
                    at_ns,
                    micros: 0,
                    probes: 0,
                    ok: false,
                });
                conn = Conn::connect(addr, proto)?;
            }
        }
    }
    Ok((samples, outcomes, start.elapsed()))
}

/// Runs `CONNECTIONS` connections against the topology's entry point, each
/// on the feed `feed(c)` gives it, and joins their records in connection
/// order.
fn run_connections<'a>(
    topo: &Topology,
    feed: impl Fn(usize) -> Feed<'a> + Sync,
) -> io::Result<Window> {
    let (addr, proto) = topo.entry();
    let barrier = Barrier::new(CONNECTIONS);
    let results: Vec<io::Result<(Vec<Sample>, Outcomes, Duration)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (barrier, feed) = (&barrier, &feed);
                s.spawn(move || drive(addr, proto, barrier, feed(c)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(io::Error::other("client thread panicked")))
            })
            .collect()
    });
    let mut window = Window::default();
    for r in results {
        let (samples, outcomes, elapsed) = r?;
        window.samples.extend(samples);
        window.outcomes.merge(outcomes);
        window.elapsed = window.elapsed.max(elapsed);
    }
    Ok(window)
}

/// Runs `CONNECTIONS` closed-loop connections against the topology's entry
/// point for `seconds`.
pub fn run_window(topo: &Topology, wl: &Workload, seconds: f64) -> io::Result<Window> {
    let duration = Duration::from_secs_f64(seconds);
    run_connections(topo, |c| Feed::Timed(wl.traffic(c), duration))
}

/// One round's plan: per connection, its request lines, rendered before
/// the round starts so the client only sends and receives while it runs.
pub type Plan = Vec<Vec<(String, Planned)>>;

/// Renders round `round` of `per_conn` requests per connection.
pub fn plan(wl: &Workload, round: u64, per_conn: usize) -> Plan {
    (0..CONNECTIONS)
        .map(|c| {
            let mut traffic = wl.round_traffic(c, round, per_conn);
            (0..per_conn)
                .map(|_| {
                    let mut line = String::new();
                    let planned = traffic.next(&mut line);
                    (line, planned)
                })
                .collect()
        })
        .collect()
}

/// The machine's steal and total CPU jiffies; `None` where `/proc/stat`
/// cannot be read.
fn cpu_steal() -> Option<(u64, u64)> {
    parse_cpu_steal(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Sends `plan` to the topology's entry point. Returns the window and the
/// share of the machine's CPU time the hypervisor took meanwhile (`None`
/// where that cannot be read).
pub fn run_plan(topo: &Topology, plan: &Plan) -> io::Result<(Window, Option<f64>)> {
    let before = cpu_steal();
    let window = run_connections(topo, |c| Feed::Plan(&plan[c]))?;
    let steal = before.zip(cpu_steal()).and_then(|(b, a)| delta_ratio(b, a));
    Ok((window, steal))
}

/// One round: fresh daemons, set-up, the plan, then their peak memory.
#[derive(Debug)]
pub struct Round {
    /// The plan's requests; samples are in plan order, connection by
    /// connection.
    pub window: Window,
    /// Share of CPU time stolen while the plan ran, as `run_plan` gives it.
    pub steal: Option<f64>,
    /// Seconds the set-up took.
    pub setup_s: f64,
    /// Sum of the daemons' `VmHWM` after the plan, in MiB.
    pub rss_mb: f64,
}

/// Starts the workload's daemons, brings them up, sends `plan` and stops
/// them again. Every round starts from the same empty state and sends as
/// many requests, so what a round measures does not depend on how many
/// rounds ran before it.
pub fn run_round(
    bin_dir: &Path,
    wl: &Workload,
    plan: &Plan,
    out: &mut Outcomes,
) -> io::Result<Round> {
    let (topo, setup_s) = setup(bin_dir, wl, out)?;
    let (window, steal) = run_plan(&topo, plan)?;
    let rss_mb = topo.peak_rss_mb()?;
    topo.shutdown();
    Ok(Round {
        window,
        steal,
        setup_s,
        rss_mb,
    })
}
