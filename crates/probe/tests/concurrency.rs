//! Concurrency contracts of the sharded caches: hammer one shared
//! `MemoOracle` (and `CachedOracle`) from many threads and assert the
//! exactly-once forwarding guarantee plus answer correctness survive the
//! races the sharding is supposed to make cheap.

use lca_graph::gen::GnpBuilder;
use lca_graph::{Oracle, VertexId};
use lca_probe::{CachedOracle, CountingOracle, MemoOracle};
use lca_rand::Seed;

const THREADS: usize = 8;
const PROBES_PER_THREAD: usize = 20_000;

/// Issues a deterministic-but-scrambled mix of all three probe kinds,
/// heavily overlapping across threads, and checks every answer against the
/// bare graph.
fn hammer<O: Oracle + Sync>(oracle: &O, graph: &lca_graph::Graph, thread_seed: u64) {
    let n = graph.vertex_count() as u64;
    let mut rng = Seed::new(thread_seed).stream();
    for _ in 0..PROBES_PER_THREAD {
        let v = VertexId::new(rng.next_below(n) as usize);
        match rng.next_below(3) {
            0 => assert_eq!(oracle.degree(v), graph.degree(v)),
            1 => {
                let i = rng.next_below(8) as usize;
                assert_eq!(oracle.neighbor(v, i), graph.neighbor(v, i));
            }
            _ => {
                let w = VertexId::new(rng.next_below(n) as usize);
                assert_eq!(oracle.adjacency(v, w), graph.adjacency_index(v, w));
            }
        }
    }
}

#[test]
fn memo_oracle_is_exactly_once_under_contention() {
    let g = GnpBuilder::new(64, 0.2).seed(Seed::new(1)).build();
    let counted = CountingOracle::new(&g);
    let memo = MemoOracle::new(&counted);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let memo = &memo;
            let g = &g;
            s.spawn(move || hammer(memo, g, 0xC0 + t as u64));
        }
    });

    // The exactly-once guarantee: the inner oracle saw each *distinct*
    // probe exactly once, no matter how many threads raced on it. With a
    // small key space and 160k probes, any double-forward would show as
    // counts > distinct.
    assert_eq!(
        counted.counts().total(),
        memo.distinct_probes() as u64,
        "a raced miss was forwarded twice"
    );

    // And clearing under no contention resets both sides of the ledger.
    memo.clear();
    assert_eq!(memo.distinct_probes(), 0);
    memo.degree(VertexId::new(0));
    assert_eq!(memo.distinct_probes(), 1);
}

#[test]
fn memo_answers_after_contention_match_a_fresh_run() {
    let g = GnpBuilder::new(64, 0.3).seed(Seed::new(2)).build();
    let memo = MemoOracle::new(&g);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let memo = &memo;
            let g = &g;
            s.spawn(move || hammer(memo, g, 0xD0 + t as u64));
        }
    });
    // Every cached entry still agrees with the ground truth.
    for v in g.vertices() {
        assert_eq!(memo.degree(v), g.degree(v));
        for i in 0..g.degree(v) {
            assert_eq!(memo.neighbor(v, i), g.neighbor(v, i));
        }
    }
}

#[test]
fn cached_oracle_is_exactly_once_under_contention() {
    let g = GnpBuilder::new(64, 0.2).seed(Seed::new(3)).build();
    let counted = CountingOracle::new(&g);
    let cached = CachedOracle::new(&counted);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cached = &cached;
            let g = &g;
            s.spawn(move || hammer(cached, g, 0xE0 + t as u64));
        }
    });

    // A list miss is one bulk fetch, which the inner counter charges as
    // one `degree` plus `deg(v)` neighbor probes; a degree miss is one
    // forwarded `degree` probe and fetches nothing. Nothing is evicted at
    // this size and every vertex has a neighbor, so exactly-once means the
    // inner neighbor charges sum each list exactly once.
    let stats = cached.stats();
    assert_eq!(stats.entries, 64);
    assert!(g.vertices().all(|v| g.degree(v) > 0));
    assert_eq!(
        counted.counts().neighbor,
        g.vertices().map(|v| g.degree(v) as u64).sum::<u64>(),
        "a raced miss was forwarded twice"
    );
    // Every miss reached the inner oracle as exactly one call.
    assert_eq!(counted.counts().degree, stats.misses);
    assert_eq!(counted.counts().adjacency, 0);
    assert_eq!(
        stats.hits + stats.misses,
        (THREADS * PROBES_PER_THREAD) as u64
    );
}
