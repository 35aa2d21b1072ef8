//! Cache transparency: the serving cache must not change what an LCA
//! answers or what it pays.
//!
//! For every registered algorithm, on an implicit `gnp` graph and on a
//! heavy-tailed `chung_lu` graph (whose hub lists overflow small budgets),
//! each query's answer and its `QueryCtx::spent()` over the serving stack
//! `CountingOracle<CachedOracle<implicit>>` must equal those over the bare
//! implicit oracle — at the default list budget, at a tiny budget that
//! evicts constantly, and at a zero budget that admits nothing.

use std::collections::HashMap;
use std::sync::Mutex;

use lca::prelude::*;

/// Per-shard list budgets under test: default, tiny (evicting), none.
const BUDGETS: [Option<usize>; 3] = [None, Some(1024), Some(0)];

/// One query's outcome and its metered cost.
type Run = Vec<(Result<bool, LcaError>, u64)>;

fn run<O: Oracle + Clone + Send + Sync>(
    kind: AlgorithmKind,
    oracle: O,
    queries: &[DynQuery],
) -> Run {
    let algo = LcaBuilder::new(kind).seed(Seed::new(0xCAC4E)).build(oracle);
    queries
        .iter()
        .map(|&q| {
            let ctx = QueryCtx::unlimited();
            let answer = algo.query_ctx(q, &ctx);
            (answer, ctx.spent())
        })
        .collect()
}

fn check_family<O: Oracle + Sync>(family: &str, implicit: &O) {
    for kind in AlgorithmKind::all() {
        let queries =
            LcaBuilder::new(kind).queries(implicit, QuerySource::sample(48, Seed::new(5)));
        assert!(!queries.is_empty(), "{family}/{kind}: no queries");
        let bare_counter = CountingOracle::new(implicit);
        let bare = run(kind, &bare_counter, &queries);
        for budget in BUDGETS {
            let cached = match budget {
                None => CachedOracle::new(implicit),
                Some(bytes) => CachedOracle::new(implicit).with_slab_bytes(bytes),
            };
            let stack = CountingOracle::new(cached);
            let served = run(kind, &stack, &queries);
            for (i, (b, s)) in bare.iter().zip(&served).enumerate() {
                assert_eq!(
                    b, s,
                    "{family}/{kind}/budget {budget:?}: query {i} diverged"
                );
            }
            assert_eq!(
                stack.counts(),
                bare_counter.counts(),
                "{family}/{kind}/budget {budget:?}: probe totals diverged"
            );
            let stats = stack.inner().stats();
            assert_eq!(
                stats.requests(),
                stack.counts().total(),
                "{family}/{kind}/budget {budget:?}: every logical probe passes the cache"
            );
            assert!(
                stats.bytes <= 16 * budget.unwrap_or(256 * 1024),
                "{family}/{kind}/budget {budget:?}: over budget {stats:?}"
            );
            if budget == Some(0) {
                assert_eq!(stats.entries, 0, "{family}/{kind}: zero budget admitted");
            }
        }
    }
}

#[test]
fn gnp_answers_and_costs_do_not_depend_on_the_cache() {
    check_family("gnp", &ImplicitGnp::new(4096, 6.0, Seed::new(11)));
}

#[test]
fn chung_lu_answers_and_costs_do_not_depend_on_the_cache() {
    // 512 matching slots let hub degrees reach 512.
    let g = ImplicitChungLu::with_slots(4096, 2.1, 8.0, 512, Seed::new(12));
    let max_degree = (0..4096).map(|v| g.degree(VertexId::new(v))).max();
    // Hub lists (4 bytes a neighbor) must overflow the tiny budget, so the
    // never-admitted path is exercised too.
    assert!(max_degree > Some(256), "no hub: {max_degree:?}");
    check_family("chung_lu", &g);
}

/// Records every list fetch that reaches it, per vertex.
struct FetchLog<O> {
    inner: O,
    fetches: Mutex<HashMap<VertexId, u32>>,
}

impl<O: Oracle> Oracle for FetchLog<O> {
    fn vertex_count(&self) -> usize {
        self.inner.vertex_count()
    }
    fn degree(&self, v: VertexId) -> usize {
        self.inner.degree(v)
    }
    fn neighbor(&self, v: VertexId, i: usize) -> Option<VertexId> {
        self.inner.neighbor(v, i)
    }
    fn adjacency(&self, u: VertexId, v: VertexId) -> Option<usize> {
        self.inner.adjacency(u, v)
    }
    fn neighbors_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> usize {
        *self.fetches.lock().unwrap().entry(v).or_default() += 1;
        self.inner.neighbors_into(v, out)
    }
    fn label(&self, v: VertexId) -> u64 {
        self.inner.label(v)
    }
}

#[test]
fn tiny_budget_evicts() {
    // The tiny budget really is a constantly-evicting cache on this
    // traffic: lists that fit it are fetched again after being admitted.
    let g = ImplicitGnp::new(4096, 6.0, Seed::new(11));
    let kind = AlgorithmKind::parse("k2-spanner").expect("registered kind");
    let queries = LcaBuilder::new(kind).queries(&g, QuerySource::sample(200, Seed::new(5)));
    let log = FetchLog {
        inner: &g,
        fetches: Mutex::new(HashMap::new()),
    };
    let cached = CachedOracle::new(&log).with_slab_bytes(1024);
    run(kind, &cached, &queries);
    let stats = cached.stats();
    assert!(stats.bytes <= 16 * 1024, "{stats:?}");
    // The bare oracle returns complete lists, and a resident list is never
    // fetched, so a second fetch of a list that fits means it was evicted.
    let fetches = log.fetches.into_inner().unwrap();
    let refetched = fetches
        .iter()
        .filter(|&(&v, &n)| n > 1 && 4 * g.degree(v) + 48 <= 1024)
        .count();
    assert!(
        refetched > fetches.len() / 8,
        "{refetched} of {} fetched lists were evicted and fetched again; {stats:?}",
        fetches.len()
    );
}
