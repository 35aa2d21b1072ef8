//! The three workloads: who the sessions are, and which request line each
//! connection sends next. Every line is a pure function of the workload
//! seed, the connection index and the request's position on it, so the
//! traced replay can regenerate exactly the traffic the timed run sent.

use std::sync::Arc;

use lca::core::DynQuery;
use lca::prelude::{
    AlgorithmKind, BoxedImplicitOracle, ClassicKind, ImplicitFamily, Oracle, QuerySource, Seed,
    SpannerKind,
};
use lca_rand::SplitMix64;
use lca_serve::proto::QueryPayload;
use lca_serve::{algo_seed, input_seed};

/// Client connections, one request in flight each. The benchmark is sized
/// for a two-core host: more connections than cores would measure the
/// scheduler, not the stack.
pub const CONNECTIONS: usize = 2;

const HOT_N: usize = 1_000_000;
const COLD_N: usize = 10_000_000;
/// Sampled queries each hot-mix session cycles through.
const HOT_POOL: usize = 256;
/// Sessions resident before gateway-churn's timed window.
const CHURN_INITIAL: usize = 64;
/// One request in this many names a fresh gateway-churn session.
const CHURN_FRESH_EVERY: u64 = 16;
/// Queries each initial gateway-churn session draws from. The initial
/// sessions take most of the skewed traffic, so their pools are what
/// `probes_per_query` averages over; a wide pool keeps that mean from
/// hanging on a few queries of a seed.
const CHURN_POOL: usize = 1024;
/// Queries each fresh gateway-churn session draws from.
const CHURN_FRESH_POOL: usize = 16;
/// Requests per connection in one hot-mix round.
const HOT_ROUND: usize = 16384;
/// Requests per connection in one cold-tail round.
const COLD_ROUND: usize = 2048;
/// Requests per connection in one gateway-churn round.
const CHURN_ROUND: usize = 4096;
/// One cold-tail request in this many is recorded for verification.
const COLD_SAMPLE_EVERY: u64 = 64;

const TAG_POOL: u64 = 0x504F_4F4C; // "POOL"
const TAG_SESSION: u64 = 0x5345_5353; // "SESS"
const TAG_FRESH: u64 = 0x4652_5348; // "FRSH"
const TAG_TRAFFIC: u64 = 0x5452_4146; // "TRAF"
const TAG_COLD: u64 = 0x434F_4C44; // "COLD"

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Four cheap kinds over warm caches, direct TCP.
    HotMix,
    /// Two probe-heavy kinds at n = 10⁷, every query distinct, direct TCP.
    ColdTail,
    /// Two kinds over a growing session population, through the gateway.
    GatewayChurn,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::HotMix, Kind::ColdTail, Kind::GatewayChurn];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::HotMix => "hot-mix",
            Kind::ColdTail => "cold-tail",
            Kind::GatewayChurn => "gateway-churn",
        }
    }

    /// Requests per connection in one round of a timed run: about a second
    /// of traffic at this workload's rate on two cores.
    pub fn round_len(self) -> usize {
        match self {
            Kind::HotMix => HOT_ROUND,
            Kind::ColdTail => COLD_ROUND,
            Kind::GatewayChurn => CHURN_ROUND,
        }
    }

    /// Whether each round of a timed run starts fresh daemons: true for the
    /// workloads whose daemons gain state with every request (cold-tail's
    /// caches, gateway-churn's sessions), so that a faster run does not
    /// end in a larger state. Hot-mix's state is fixed once it is warm, and
    /// its rounds share one set of daemons.
    pub fn fresh_daemons(self) -> bool {
        self != Kind::HotMix
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One session the traffic names: the spec the daemon pins for it.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionDef {
    /// Session name on the wire.
    pub name: String,
    /// Algorithm.
    pub kind: AlgorithmKind,
    /// Vertex count of the implicit `gnp` input.
    pub n: usize,
    /// Session seed (input and algorithm seeds derive from it).
    pub seed: u64,
}

impl SessionDef {
    fn new(name: String, kind: AlgorithmKind, n: usize, seed: u64) -> Arc<SessionDef> {
        Arc::new(SessionDef {
            name,
            kind,
            n,
            seed,
        })
    }

    /// The session's input, exactly as the daemon builds it.
    pub fn oracle(&self) -> BoxedImplicitOracle {
        ImplicitFamily::Gnp.build_with(self.n, input_seed(self.seed), None)
    }

    /// The spec as `lca-serve` parses it.
    pub fn spec(&self) -> lca_serve::proto::SessionSpec {
        lca_serve::proto::SessionSpec {
            kind: self.kind,
            family: ImplicitFamily::Gnp,
            n: self.n,
            seed: self.seed,
            knob: None,
        }
    }

    /// The algorithm seed the daemon derives for this session.
    pub fn algo_seed(&self) -> Seed {
        algo_seed(self.seed)
    }

    /// Writes the request line for `query` into `out`; `with_spec` adds the
    /// `kind`/`n`/`seed` fields a session's first request must carry.
    pub fn line(&self, id: u64, query: QueryPayload, with_spec: bool, out: &mut String) {
        use std::fmt::Write;
        out.clear();
        let _ = write!(out, "{{\"id\":{id},\"session\":\"{}\"", self.name);
        if with_spec {
            let _ = write!(
                out,
                ",\"kind\":\"{}\",\"n\":{},\"seed\":{}",
                self.kind.name(),
                self.n,
                self.seed
            );
        }
        let _ = match query {
            QueryPayload::Vertex(v) => write!(out, ",\"query\":{v}}}"),
            QueryPayload::Edge(u, v) => write!(out, ",\"query\":[{u},{v}]}}"),
        };
    }
}

/// A 32-bit session seed. The protocol promises exact integers up to 2⁵³,
/// but `lca-serve` reads a `seed` above 9.0·10¹⁵ as absent (seed 0), so
/// wider seeds would make a few sessions serve the wrong instance.
fn session_seed(seed: u64, tag: u64, index: u64) -> u64 {
    Seed::new(seed).derive2(tag, index).value() >> 32
}

fn payload(q: DynQuery) -> QueryPayload {
    match q {
        DynQuery::Vertex(v) => QueryPayload::Vertex(v.raw() as u64),
        DynQuery::Edge(u, v) => QueryPayload::Edge(u.raw() as u64, v.raw() as u64),
    }
}

/// The query a payload stands for.
pub fn dyn_query(q: QueryPayload) -> DynQuery {
    use lca::prelude::VertexId;
    match q {
        QueryPayload::Vertex(v) => DynQuery::Vertex(VertexId::new(v as usize)),
        QueryPayload::Edge(u, v) => {
            DynQuery::Edge(VertexId::new(u as usize), VertexId::new(v as usize))
        }
    }
}

fn sample_queries(def: &SessionDef, count: usize, seed: Seed) -> Vec<QueryPayload> {
    QuerySource::sample(count, seed)
        .queries(def.kind, &def.oracle())
        .into_iter()
        .map(payload)
        .collect()
}

/// One request a connection is about to send.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The session it names.
    pub session: Arc<SessionDef>,
    /// Its query.
    pub query: QueryPayload,
    /// Whether its answer is recomputed locally after the run.
    pub verify: bool,
}

/// A workload instance for one seed.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    seed: u64,
    /// Sessions that exist before the timed window.
    pub initial: Vec<Arc<SessionDef>>,
    /// Query pools of the hot-mix and gateway-churn initial sessions.
    pools: Vec<Vec<QueryPayload>>,
    /// Cold-tail's client-side copy of the input, for drawing edges.
    cold_input: Option<Arc<BoxedImplicitOracle>>,
    /// Cold-tail's vertex permutation `g ↦ (a·g + b) mod n`.
    cold_perm: (u64, u64),
}

impl Workload {
    /// Builds the sessions and query pools for `seed`.
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let session = |prefix: &str, kind: AlgorithmKind, n: usize, index: u64| {
            SessionDef::new(
                format!("{prefix}-{}", kind.name()),
                kind,
                n,
                session_seed(seed, TAG_SESSION, index),
            )
        };
        let (initial, pools, cold_input) = match kind {
            Kind::HotMix => {
                let kinds = [
                    AlgorithmKind::Spanner(SpannerKind::Three),
                    AlgorithmKind::Spanner(SpannerKind::Five),
                    AlgorithmKind::Classic(ClassicKind::Mis),
                    AlgorithmKind::Classic(ClassicKind::Matching),
                ];
                let initial: Vec<_> = kinds
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| session("hm", k, HOT_N, i as u64))
                    .collect();
                let pools = initial
                    .iter()
                    .enumerate()
                    .map(|(i, def)| {
                        sample_queries(def, HOT_POOL, Seed::new(seed).derive2(TAG_POOL, i as u64))
                    })
                    .collect();
                (initial, pools, None)
            }
            Kind::ColdTail => {
                let kinds = [
                    AlgorithmKind::Spanner(SpannerKind::K2),
                    AlgorithmKind::Classic(ClassicKind::Coloring),
                ];
                // Both sessions share one seed, hence one input graph.
                let shared = session_seed(seed, TAG_SESSION, 0);
                let initial: Vec<_> = kinds
                    .iter()
                    .map(|&k| SessionDef::new(format!("ct-{}", k.name()), k, COLD_N, shared))
                    .collect();
                let input = Arc::new(initial[0].oracle());
                (initial, Vec::new(), Some(input))
            }
            Kind::GatewayChurn => {
                let initial = (0..CHURN_INITIAL)
                    .map(|j| {
                        let k = churn_kind(j);
                        SessionDef::new(
                            format!("gc-{j}"),
                            k,
                            HOT_N,
                            session_seed(seed, TAG_SESSION, j as u64),
                        )
                    })
                    .collect::<Vec<_>>();
                let pools = initial
                    .iter()
                    .map(|def| churn_pool(def, CHURN_POOL))
                    .collect();
                (initial, pools, None)
            }
        };
        let n = COLD_N as u64;
        let mut rng = Seed::new(seed).derive(TAG_COLD).stream();
        let mut a = rng.next_below(n) | 1;
        while gcd(a, n) != 1 {
            a += 2;
        }
        Workload {
            kind,
            seed,
            initial,
            pools,
            cold_input,
            cold_perm: (a, rng.next_below(n)),
        }
    }

    /// Whether clients go through `lca-gateway` (two backends) or straight
    /// to one `lca-serve`.
    pub fn via_gateway(&self) -> bool {
        self.kind == Kind::GatewayChurn
    }

    /// The spec-bearing first request of every initial session, then (for
    /// hot-mix) the warm-up pass over every pooled query. Set-up is done
    /// when all of these are answered.
    pub fn setup_requests(&self) -> Vec<Planned> {
        let mut out: Vec<Planned> = self
            .initial
            .iter()
            .enumerate()
            .map(|(i, def)| Planned {
                session: def.clone(),
                query: match self.kind {
                    Kind::HotMix => self.pools[i][0],
                    // Ids past any the timed traffic reaches, so no timed
                    // query repeats a set-up one.
                    Kind::ColdTail => self.cold_query(i, (1 << 62) + i as u64),
                    Kind::GatewayChurn => self.pools[i][0],
                },
                verify: true,
            })
            .collect();
        if self.kind == Kind::HotMix {
            for qi in 0..HOT_POOL {
                for (def, pool) in self.initial.iter().zip(&self.pools) {
                    out.push(Planned {
                        session: def.clone(),
                        query: pool[qi],
                        verify: true,
                    });
                }
            }
        }
        out
    }

    /// The traffic of connection `conn`.
    pub fn traffic(&self, conn: usize) -> Traffic<'_> {
        self.round_traffic(conn, 0, 0)
    }

    /// The traffic of connection `conn` in round `round` of a run whose
    /// rounds are `per_conn` requests per connection. Rounds draw fresh
    /// requests: cold-tail continues each connection's stream of distinct
    /// queries, and gateway-churn starts a new population of fresh
    /// sessions on top of the initial ones, since each round runs on
    /// fresh daemons.
    pub fn round_traffic(&self, conn: usize, round: u64, per_conn: usize) -> Traffic<'_> {
        let rng = Seed::new(self.seed)
            .derive2(TAG_TRAFFIC, conn as u64)
            .derive(round)
            .stream();
        Traffic {
            workload: self,
            conn: conn as u64,
            round,
            sent: round * per_conn as u64,
            rng,
            fresh: Vec::new(),
        }
    }

    /// Cold-tail query `j` of initial session `session`: distinct vertices
    /// `(a·j + b) mod n` for an `a` coprime to n, and for the spanner
    /// session one edge at that vertex.
    fn cold_query(&self, session: usize, j: u64) -> QueryPayload {
        let n = COLD_N as u64;
        let (a, b) = self.cold_perm;
        let mut v = (a.wrapping_mul(j) % n + b) % n;
        if self.initial[session].kind.query_kind() == lca::core::QueryKind::Vertex {
            return QueryPayload::Vertex(v);
        }
        let input = self.cold_input.as_ref().expect("cold-tail keeps its input");
        loop {
            let vid = lca::prelude::VertexId::new(v as usize);
            let d = input.degree(vid);
            if d > 0 {
                let i = Seed::new(self.seed).derive2(TAG_COLD, j).value() % d as u64;
                if let Some(w) = input.neighbor(vid, i as usize) {
                    let w = w.raw() as u64;
                    return QueryPayload::Edge(v.min(w), v.max(w));
                }
            }
            // An isolated vertex has no edge to ask about; try the next one.
            v = (v + 1) % n;
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn churn_kind(j: usize) -> AlgorithmKind {
    if j.is_multiple_of(2) {
        AlgorithmKind::Spanner(SpannerKind::Three)
    } else {
        AlgorithmKind::Classic(ClassicKind::Mis)
    }
}

fn churn_pool(def: &SessionDef, size: usize) -> Vec<QueryPayload> {
    sample_queries(def, size, Seed::new(def.seed).derive(TAG_POOL))
}

/// The request stream of one connection.
pub struct Traffic<'w> {
    workload: &'w Workload,
    conn: u64,
    round: u64,
    sent: u64,
    rng: SplitMix64,
    /// gateway-churn: sessions this connection created, with their pools.
    fresh: Vec<(Arc<SessionDef>, Vec<QueryPayload>)>,
}

impl Traffic<'_> {
    /// Writes the next request line into `line` and says what it asks.
    pub fn next(&mut self, line: &mut String) -> Planned {
        let k = self.sent;
        self.sent += 1;
        let id = k * CONNECTIONS as u64 + self.conn;
        let w = self.workload;
        let (planned, with_spec) = match w.kind {
            Kind::HotMix => {
                // Each connection cycles all kinds, offset from the other.
                let s = (k + self.conn) as usize % w.initial.len();
                let qi = (k as usize / w.initial.len()) % HOT_POOL;
                let planned = Planned {
                    session: w.initial[s].clone(),
                    query: w.pools[s][qi],
                    verify: true,
                };
                (planned, false)
            }
            Kind::ColdTail => {
                let sampled = Seed::new(w.seed)
                    .derive2(TAG_COLD + 1, id)
                    .value()
                    .is_multiple_of(COLD_SAMPLE_EVERY);
                // Each connection alternates the kinds, so the mix stays
                // even however long each kind's queries take.
                let s = ((k + self.conn) % 2) as usize;
                let planned = Planned {
                    session: w.initial[s].clone(),
                    query: w.cold_query(s, id),
                    verify: sampled,
                };
                (planned, false)
            }
            Kind::GatewayChurn => self.next_churn(),
        };
        planned.session.line(id, planned.query, with_spec, line);
        planned
    }

    /// A fresh session one time in sixteen (its first request carries the
    /// spec, which the gateway learns); otherwise a session this
    /// connection knows to exist, picked log-uniformly so early sessions
    /// stay hot, and sent without a spec for the gateway to inject.
    fn next_churn(&mut self) -> (Planned, bool) {
        let r = self.rng.next_u64();
        let pick = self.rng.next_u64();
        let w = self.workload;
        if r.is_multiple_of(CHURN_FRESH_EVERY) {
            let m = self.fresh.len();
            let def = SessionDef::new(
                format!("gc-c{}-r{}-{m}", self.conn, self.round),
                churn_kind(m),
                HOT_N,
                session_seed(w.seed, TAG_FRESH + self.conn, (self.round << 32) | m as u64),
            );
            let pool = churn_pool(&def, CHURN_FRESH_POOL);
            let query = pool[(pick % CHURN_FRESH_POOL as u64) as usize];
            self.fresh.push((def.clone(), pool));
            let planned = Planned {
                session: def,
                query,
                verify: true,
            };
            return (planned, true);
        }
        let population = w.initial.len() + self.fresh.len();
        let u = (r >> 11) as f64 / (1u64 << 53) as f64;
        let j = (((population + 1) as f64).powf(u) as usize)
            .saturating_sub(1)
            .min(population - 1);
        let (session, query) = if j < w.initial.len() {
            let qi = (pick % CHURN_POOL as u64) as usize;
            (w.initial[j].clone(), w.pools[j][qi])
        } else {
            let qi = (pick % CHURN_FRESH_POOL as u64) as usize;
            let (def, pool) = &self.fresh[j - w.initial.len()];
            (def.clone(), pool[qi])
        };
        let planned = Planned {
            session,
            query,
            verify: true,
        };
        (planned, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_a_function_of_seed_and_connection() {
        for kind in Kind::ALL {
            let a = Workload::new(kind, 5);
            let b = Workload::new(kind, 5);
            let (mut la, mut lb) = (String::new(), String::new());
            let (mut ta, mut tb) = (a.traffic(1), b.traffic(1));
            for _ in 0..200 {
                ta.next(&mut la);
                tb.next(&mut lb);
                assert_eq!(la, lb);
            }
            let other = Workload::new(kind, 6);
            let mut lo = String::new();
            other.traffic(1).next(&mut lo);
            a.traffic(1).next(&mut la);
            assert_ne!(
                la,
                lo,
                "{}: seeds 5 and 6 gave the same first line",
                kind.name()
            );
        }
    }

    #[test]
    fn request_lines_parse_as_protocol_requests() {
        for kind in Kind::ALL {
            let w = Workload::new(kind, 9);
            let mut line = String::new();
            let mut t = w.traffic(0);
            for _ in 0..100 {
                let planned = t.next(&mut line);
                match lca_serve::proto::Request::parse(&line) {
                    Ok(lca_serve::proto::Request::Query {
                        session, queries, ..
                    }) => {
                        assert_eq!(session, planned.session.name);
                        assert_eq!(queries, vec![planned.query]);
                    }
                    other => panic!("{line}: {other:?}"),
                }
            }
            for p in w.setup_requests().iter().take(w.initial.len()) {
                p.session.line(0, p.query, true, &mut line);
                match lca_serve::proto::Request::parse(&line) {
                    Ok(lca_serve::proto::Request::Query { spec, .. }) => {
                        assert_eq!(spec, Some(p.session.spec()))
                    }
                    other => panic!("{line}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn cold_tail_queries_are_distinct_and_valid() {
        let w = Workload::new(Kind::ColdTail, 3);
        let mut seen = std::collections::HashSet::new();
        let input = w.cold_input.clone().unwrap();
        for g in 0..2000 {
            let q = w.cold_query((g % 2) as usize, g);
            assert!(seen.insert(format!("{q:?}")), "query {g} repeats");
            if let QueryPayload::Edge(u, v) = q {
                let (u, v) = (
                    lca::prelude::VertexId::new(u as usize),
                    lca::prelude::VertexId::new(v as usize),
                );
                assert!(
                    input.adjacency(u, v).is_some(),
                    "({u:?}, {v:?}) is not an edge"
                );
            }
        }
    }

    #[test]
    fn churn_mostly_revisits_and_sometimes_creates_sessions() {
        let w = Workload::new(Kind::GatewayChurn, 11);
        let mut t = w.traffic(0);
        let mut line = String::new();
        let mut fresh = 0;
        for _ in 0..1600 {
            if t.next(&mut line).session.name.starts_with("gc-c") && line.contains("\"kind\"") {
                fresh += 1;
            }
        }
        assert!(
            (50..150).contains(&fresh),
            "{fresh} fresh sessions in 1600 requests"
        );
    }
}
