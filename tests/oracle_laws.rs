//! Oracle-conformance harness: the model invariants every `Oracle` — backing
//! store or wrapper — must satisfy, run against all of them.
//!
//! The laws (paper Section 1.4, plus simple-graph well-formedness):
//!
//! 1. `neighbor(v, i)` is `Some` **iff** `i < degree(v)`;
//! 2. `adjacency(v, ·)` is the inverse index of `neighbor(v, ·)`:
//!    `adjacency(v, neighbor(v, i)) == Some(i)` (which also forces adjacency
//!    lists to be duplicate-free);
//! 3. adjacency is symmetric: if `w ∈ Γ(v)` then `v ∈ Γ(w)`, and the
//!    reverse index round-trips;
//! 4. no self-loops: `adjacency(v, v) == None`;
//! 5. handshake parity: `Σ deg(v)` is even.
//!
//! Wrappers must additionally be transparent: same answers as what they
//! wrap. That is checked implicitly by running the same laws against the
//! wrapped and unwrapped forms of one graph.

use lca::prelude::*;

/// Asserts the oracle laws on `o`. Laws 1–4 are checked per vertex (all
/// vertices when `n` is small, a seeded sample otherwise); law 5 needs the
/// full degree sum and is checked only in the exhaustive regime.
fn assert_oracle_laws<O: Oracle>(o: &O, context: &str) {
    let n = o.vertex_count();
    let exhaustive = n <= 4096;
    let vertices: Vec<usize> = if exhaustive {
        (0..n).collect()
    } else {
        let mut rng = Seed::new(0x1A45).stream();
        (0..512)
            .map(|_| rng.next_below(n as u64) as usize)
            .collect()
    };

    let mut degree_sum = 0usize;
    for &vi in &vertices {
        let v = VertexId::new(vi);
        let d = o.degree(v);
        degree_sum += d;

        // Law 1: Some below the degree, ⊥ at and beyond it.
        assert!(
            o.neighbor(v, d).is_none(),
            "{context}: neighbor({v}, deg) should be ⊥"
        );
        assert!(
            o.neighbor(v, d + 7).is_none(),
            "{context}: neighbor({v}, deg+7) should be ⊥"
        );

        // Law 4: no self-loops.
        assert_eq!(o.adjacency(v, v), None, "{context}: self-loop at {v}");

        for i in 0..d {
            let w = o
                .neighbor(v, i)
                .unwrap_or_else(|| panic!("{context}: neighbor({v}, {i}) = ⊥ below degree {d}"));
            assert_ne!(w, v, "{context}: self-loop via neighbor({v}, {i})");

            // Law 2: adjacency is the inverse index of neighbor.
            assert_eq!(
                o.adjacency(v, w),
                Some(i),
                "{context}: adjacency({v}, {w}) is not the inverse of neighbor({v}, {i})"
            );

            // Law 3: symmetry, with a round-tripping reverse index.
            let back = o.adjacency(w, v).unwrap_or_else(|| {
                panic!("{context}: edge {v}-{w} present forwards, absent backwards")
            });
            assert_eq!(
                o.neighbor(w, back),
                Some(v),
                "{context}: reverse index of {v} in Γ({w}) does not round-trip"
            );
        }
    }

    // Law 5: handshake parity (full enumeration only).
    if exhaustive {
        assert_eq!(degree_sum % 2, 0, "{context}: odd degree sum {degree_sum}");
    }
}

#[test]
fn graph_satisfies_the_laws() {
    let g = GnpBuilder::new(300, 0.05).seed(Seed::new(1)).build();
    assert_oracle_laws(&g, "Graph[gnp]");
    let dense = lca::graph::gen::structured::complete(40);
    assert_oracle_laws(&dense, "Graph[complete]");
}

#[test]
fn accounting_wrappers_satisfy_the_laws() {
    let g = GnpBuilder::new(300, 0.05).seed(Seed::new(2)).build();
    assert_oracle_laws(&CountingOracle::new(&g), "CountingOracle");
    assert_oracle_laws(&MemoOracle::new(&g), "MemoOracle");
    assert_oracle_laws(&CachedOracle::new(&g), "CachedOracle");
    // A bounded cache must stay law-abiding through evictions: 512 bytes
    // per shard holds a handful of ~15-neighbor lists out of 300.
    let fetched = CountingOracle::new(&g);
    let bounded = CachedOracle::with_shards(&fetched, 4).with_slab_bytes(512);
    assert_oracle_laws(&bounded, "CachedOracle[bounded]");
    let stats = bounded.stats();
    assert!(stats.bytes <= 4 * 512, "{stats:?}");
    // Every list fits the budget (4 bytes a neighbor plus 48), and each
    // fetch charges `deg(v)` neighbor probes below the cache; fetching each
    // list more than twice on average means admitted lists were evicted.
    assert!(g.vertices().all(|v| 4 * g.degree(v) + 48 <= 512));
    let degree_sum: u64 = g.vertices().map(|v| g.degree(v) as u64).sum();
    assert!(
        fetched.counts().neighbor > 2 * degree_sum,
        "never evicted: {:?} vs degree sum {degree_sum}",
        fetched.counts()
    );
    // And the full serving stack composes.
    let counted = CountingOracle::new(&g);
    let cached = CachedOracle::new(&counted);
    assert_oracle_laws(
        &MemoOracle::new(&cached),
        "MemoOracle<CachedOracle<CountingOracle>>",
    );
}

#[test]
fn implicit_oracles_satisfy_the_laws() {
    let seed = Seed::new(0x0B5);
    assert_oracle_laws(&ImplicitRegular::new(501, 4, seed), "ImplicitRegular");
    assert_oracle_laws(&ImplicitGnp::new(800, 3.5, seed), "ImplicitGnp");
    assert_oracle_laws(
        &ImplicitChungLu::power_law(800, 2.4, 6.0, seed),
        "ImplicitChungLu",
    );
    assert_oracle_laws(&ImplicitGrid::new(17, 23), "ImplicitGrid");
    assert_oracle_laws(&ImplicitTorus::new(9, 14), "ImplicitTorus");
    assert_oracle_laws(&ImplicitHypercube::new(8), "ImplicitHypercube");
}

#[test]
fn implicit_oracles_satisfy_the_laws_at_unmaterializable_scale() {
    // Sampled-vertex regime: the laws hold pointwise on graphs whose
    // adjacency could never be stored.
    let seed = Seed::new(0xB16);
    assert_oracle_laws(
        &ImplicitGnp::new(200_000_000, 4.0, seed),
        "ImplicitGnp[2e8]",
    );
    assert_oracle_laws(
        &ImplicitRegular::new(200_000_000, 5, seed),
        "ImplicitRegular[2e8]",
    );
    assert_oracle_laws(
        &ImplicitChungLu::power_law(200_000_000, 2.5, 6.0, seed),
        "ImplicitChungLu[2e8]",
    );
    assert_oracle_laws(&ImplicitGrid::new(20_000, 10_000), "ImplicitGrid[2e8]");
    assert_oracle_laws(&ImplicitTorus::new(20_000, 10_000), "ImplicitTorus[2e8]");
    assert_oracle_laws(&ImplicitHypercube::new(27), "ImplicitHypercube[2^27]");
}

#[test]
fn materialized_implicit_graphs_satisfy_the_laws_too() {
    let seed = Seed::new(0x3A7);
    let o = ImplicitGnp::new(600, 4.0, seed);
    assert_oracle_laws(&o.materialize(), "materialize(ImplicitGnp)");
    let o = ImplicitChungLu::power_law(600, 2.6, 5.0, seed);
    assert_oracle_laws(&o.materialize(), "materialize(ImplicitChungLu)");
}
