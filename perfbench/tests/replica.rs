//! The traced replica must run the program the daemon runs: same answers
//! and the same `ctx.spent()` as a bare `Session`, query for query, for
//! every kind the workloads serve.

use std::sync::Arc;

use lca::prelude::{
    AlgorithmKind, ClassicKind, ImplicitFamily, QueryBudget, QuerySource, Seed, SpannerKind,
};
use lca_perfbench::trace::{take_layers, Replica};
use lca_perfbench::workload::SessionDef;
use lca_serve::proto::{QueryPayload, Response, SessionSpec};
use lca_serve::session::Session;

const QUERIES: usize = 300;

fn check(kind: AlgorithmKind, n: usize) {
    let def = SessionDef {
        name: format!("replica-{}", kind.name()),
        kind,
        n,
        seed: 42,
    };
    let bare = Arc::new(Session::build(SessionSpec {
        kind,
        family: ImplicitFamily::Gnp,
        n,
        seed: def.seed,
        knob: None,
    }));
    let replica = Replica::build(&def);
    let queries = QuerySource::sample(QUERIES, Seed::new(7)).queries(kind, &def.oracle());
    assert_eq!(queries.len(), QUERIES);
    take_layers();
    // Each query twice: the second pass runs over warm caches and memos,
    // where a wrapper that dropped a method would diverge first.
    for q in queries.iter().chain(&queries) {
        let payload = match *q {
            lca::core::DynQuery::Vertex(v) => QueryPayload::Vertex(v.raw() as u64),
            lca::core::DynQuery::Edge(u, v) => QueryPayload::Edge(u.raw() as u64, v.raw() as u64),
        };
        let served = bare.answer(&def.name, &[payload], None, &QueryBudget::unlimited(), None);
        let Response::Answer { answer, probes, .. } = served else {
            panic!(
                "{}: bare session failed on {payload:?}: {served:?}",
                kind.name()
            );
        };
        let (replayed, spent) = replica.query(payload);
        assert_eq!(replayed.ok(), Some(answer), "{} {payload:?}", kind.name());
        assert_eq!(
            spent,
            probes,
            "{} {payload:?}: probe counts differ",
            kind.name()
        );
    }
    let layers = take_layers();
    assert!(
        layers[0] > 0,
        "{}: no call reached the counting layer",
        kind.name()
    );
    assert!(
        layers[0] >= layers[2],
        "the cache layer sees no more calls than counting"
    );
}

#[test]
fn replica_matches_bare_session_on_spanners() {
    check(AlgorithmKind::Spanner(SpannerKind::Three), 1_000_000);
    check(AlgorithmKind::Spanner(SpannerKind::Five), 1_000_000);
    check(AlgorithmKind::Spanner(SpannerKind::K2), 100_000);
}

#[test]
fn replica_matches_bare_session_on_classic_kinds() {
    check(AlgorithmKind::Classic(ClassicKind::Mis), 1_000_000);
    check(AlgorithmKind::Classic(ClassicKind::Matching), 1_000_000);
    check(AlgorithmKind::Classic(ClassicKind::Coloring), 100_000);
}

#[test]
fn timed_wrapper_forwards_bulk_scans() {
    // A bulk neighbor scan through the replica's stack must reach the
    // cache's bulk path: one call per layer, not d + 1.
    use lca::prelude::{CachedOracle, CountingOracle, Oracle, VertexId};
    use lca_perfbench::trace::{Timed, CACHED, COUNTING, IMPLICIT};
    let def = SessionDef {
        name: "bulk".to_owned(),
        kind: AlgorithmKind::Classic(ClassicKind::Mis),
        n: 1000,
        seed: 3,
    };
    let stack = Timed::new(
        COUNTING,
        CountingOracle::new(Timed::new(
            CACHED,
            CachedOracle::new(Timed::new(IMPLICIT, def.oracle())),
        )),
    );
    let v = (0..1000)
        .map(VertexId::new)
        .find(|&v| stack.inner().inner().inner().degree(v) >= 2)
        .expect("a vertex of degree two");
    take_layers();
    let mut out = Vec::new();
    let d = stack.neighbors_into(v, &mut out);
    assert_eq!(d, out.len());
    let layers = take_layers();
    assert_eq!(
        [layers[0], layers[2], layers[4]],
        [1, 1, 1],
        "calls per layer for one bulk scan"
    );
}
