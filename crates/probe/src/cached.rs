//! The serving-layer input cache.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Mutex, MutexGuard};

use lca_graph::VertexId;

use crate::Oracle;

/// Default number of cache shards.
const DEFAULT_SHARDS: usize = 16;

/// Default byte budget of one shard's list store; 16 shards × 256 KiB =
/// 4 MiB per cache.
const DEFAULT_SLAB_BYTES: usize = 256 * 1024;

/// Accounted footprint of one resident list: the `Box` header + hash-map
/// slot + queue slot overhead, charged on top of the neighbor payload.
const LIST_OVERHEAD_BYTES: usize = 48;

/// An [`Oracle`] wrapper that caches whole adjacency lists **across
/// queries**, sharded by vertex so concurrent `query_batch` workers rarely
/// contend on one lock.
///
/// This is serving-layer infrastructure, *not* part of the LCA model — and
/// the distinction matters:
///
/// * [`crate::MemoOracle`] models the algorithm's **per-query local
///   memory** (Definition 1.4): it must be [`clear`](crate::MemoOracle::clear)ed
///   between queries, and it is what defines the distinct-probe measure the
///   bench harness reports.
/// * `CachedOracle` models the **input side**: when the oracle itself is
///   expensive (an implicit generator recomputing adjacency per probe, a
///   remote store, a parsed file), the serving stack may cache its answers
///   across queries without changing any answer — probes are pure reads.
///   It never participates in probe accounting; put the
///   [`crate::CountingOracle`] *outside* the cache to count every logical
///   probe.
///
/// Each shard holds one store: resident lists `Γ(v)`, byte-bounded per
/// shard ([`CachedOracle::with_slab_bytes`]). Every probe kind is served
/// from a resident list of its vertex — `degree` is its length, `neighbor`
/// an index, `adjacency` a scan, `neighbors_into` a copy. A miss of a probe
/// that reads the list (`neighbor`, `adjacency`, `neighbors_into`) fetches
/// it with one [`Oracle::neighbors_into`] call into a reusable per-shard
/// buffer, with the shard lock held (so a raced miss is fetched once), and
/// admits it. A `degree` miss reads no list, so it is forwarded as a
/// `degree` probe and admits nothing: learning a hub's degree never pulls
/// its whole list into the store, and a scan that follows still reaches
/// the inner oracle as one bulk call. Eviction is *second chance*: a hit
/// sets the list's referenced bit, and an admission over budget sweeps the
/// FIFO, re-queueing referenced lists (bit cleared) and evicting cold
/// ones, so the hit rate degrades smoothly at the budget boundary. A list
/// the inner oracle returns incomplete (a budget-refused prefix) is never
/// admitted; point probes that meet one are forwarded to the inner oracle
/// unchanged.
///
/// Memory is bounded by construction: resident lists stay within the
/// per-shard budget, and each shard's miss buffer is shrunk back to the
/// budget after fetching a list too large to admit, so a cache holds at
/// most `2 × shards × budget` bytes of neighbor data between probes
/// (default 8 MiB, of which the `bytes` gauge reports the resident half).
///
/// # Example
///
/// ```
/// use lca_graph::implicit::ImplicitGnp;
/// use lca_graph::VertexId;
/// use lca_probe::{CachedOracle, Oracle};
/// use lca_rand::Seed;
///
/// let gen = ImplicitGnp::new(1_000_000, 4.0, Seed::new(1));
/// let cached = CachedOracle::new(&gen);
/// let v = VertexId::new(123);
/// let first = cached.neighbor(v, 0); // miss: fetches and admits Γ(v)
/// assert_eq!(cached.neighbor(v, 0), first); // hit
/// assert_eq!(cached.degree(v), gen.degree(v)); // hit: the list's length
/// assert_eq!(cached.stats().hits, 2);
/// ```
#[derive(Debug)]
pub struct CachedOracle<O> {
    inner: O,
    shards: Vec<Mutex<Shard>>,
    slab_bytes_per_shard: usize,
}

/// A resident list: the full `Γ(v)` plus its second-chance bit.
#[derive(Debug)]
struct ListEntry {
    nbrs: Box<[VertexId]>,
    referenced: bool,
}

/// Accounted bytes of a resident list of `len` neighbors.
fn list_bytes(len: usize) -> usize {
    len * std::mem::size_of::<VertexId>() + LIST_OVERHEAD_BYTES
}

/// Hashes a `u32` vertex key with the splitmix64 finalizer: vertex ids are
/// not attacker-chosen hash-flooding input, so SipHash buys nothing here.
#[derive(Debug, Default, Clone, Copy)]
struct VertexHasher(u64);

impl Hasher for VertexHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) ^ b as u64;
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = v as u64;
    }

    fn finish(&self) -> u64 {
        let mut z = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[derive(Debug, Default)]
struct Shard {
    lists: HashMap<u32, ListEntry, BuildHasherDefault<VertexHasher>>,
    /// FIFO of resident vertices in admission order (second-chance clock).
    queue: VecDeque<u32>,
    /// Accounted bytes of the resident lists.
    bytes: usize,
    /// Reusable miss buffer: the inner oracle fills it, probes read it.
    /// Its capacity is kept within the byte budget between probes.
    buf: Vec<VertexId>,
    hits: u64,
    misses: u64,
}

impl Shard {
    /// Admits the list in `buf` as `Γ(v)` if it fits within `budget`
    /// bytes, evicting cold lists (second-chance order) to make room.
    fn admit_buf(&mut self, v: u32, budget: usize) {
        let bytes = list_bytes(self.buf.len());
        let Some(room) = budget.checked_sub(bytes) else {
            return;
        };
        // Each pass either evicts or clears one referenced bit, so after
        // `2 × queue.len()` passes every list is gone or the budget is met.
        let mut sweeps = 2 * self.queue.len();
        while self.bytes > room && sweeps > 0 {
            sweeps -= 1;
            let Some(w) = self.queue.pop_front() else {
                break;
            };
            match self.lists.get_mut(&w) {
                Some(e) if e.referenced => {
                    e.referenced = false;
                    self.queue.push_back(w);
                }
                _ => {
                    if let Some(e) = self.lists.remove(&w) {
                        self.bytes = self.bytes.saturating_sub(list_bytes(e.nbrs.len()));
                    }
                }
            }
        }
        if self.bytes <= room {
            let entry = ListEntry {
                nbrs: self.buf.as_slice().into(),
                referenced: false,
            };
            self.lists.insert(v, entry);
            self.queue.push_back(v);
            self.bytes += bytes;
        }
    }
}

/// Hit/miss/size counters of a [`CachedOracle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Logical probes answered from a resident list (a buffered scan counts
    /// `deg + 1`).
    pub hits: u64,
    /// Logical probes that had to fetch `Γ(v)` from the inner oracle. One
    /// fetch answers one miss, so this is *not* the inner oracle's probe
    /// count.
    pub misses: u64,
    /// Adjacency lists currently resident across all shards.
    pub entries: usize,
    /// Accounted bytes of the resident lists (payload plus per-list
    /// overhead), bounded by shards × the per-shard budget.
    pub bytes: usize,
}

impl CacheStats {
    /// Fraction of probes served from cache (`NaN` before any probe).
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses) as f64
    }

    /// Total probes that went through the cache (hits + misses).
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;

    /// Component-wise aggregation, so a serving layer can roll per-session
    /// cache stats up into a fleet-wide view.
    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
            entries: self.entries + rhs.entries,
            bytes: self.bytes + rhs.bytes,
        }
    }
}

impl<O: Oracle> CachedOracle<O> {
    /// Wraps an oracle with 16 shards and the default list budget.
    pub fn new(inner: O) -> Self {
        Self::with_shards(inner, DEFAULT_SHARDS)
    }

    /// Wraps with an explicit shard count and the default per-shard list
    /// budget.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_shards(inner: O, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard is required");
        Self {
            inner,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            slab_bytes_per_shard: DEFAULT_SLAB_BYTES,
        }
    }

    /// Sets the per-shard byte budget of the list store (`0` admits
    /// nothing: every probe fetches from the inner oracle).
    pub fn with_slab_bytes(mut self, bytes_per_shard: usize) -> Self {
        self.slab_bytes_per_shard = bytes_per_shard;
        self
    }

    /// Current hit/miss/occupancy counters.
    pub fn stats(&self) -> CacheStats {
        self.shards.iter().fold(CacheStats::default(), |acc, s| {
            let s = lock_shard(s);
            acc + CacheStats {
                hits: s.hits,
                misses: s.misses,
                entries: s.lists.len(),
                bytes: s.bytes,
            }
        })
    }

    /// Drops every resident list (counters are kept).
    pub fn flush(&self) {
        for shard in &self.shards {
            let mut s = lock_shard(shard);
            *s = Shard {
                hits: s.hits,
                misses: s.misses,
                ..Shard::default()
            };
        }
    }

    /// A reference to the wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    fn shard(&self, v: u32) -> MutexGuard<'_, Shard> {
        let i = crate::shard_index(v, self.shards.len());
        match self.shards.get(i).or_else(|| self.shards.first()) {
            Some(s) => lock_shard(s),
            // `shards` is never empty (asserted at construction); satisfy
            // the panic-free contract without indexing.
            None => unreachable_shard(),
        }
    }

    /// The path of every probe that reads `Γ(v)`: runs `read` over the list
    /// (possibly an incomplete prefix) and `deg(v)`, and counts the
    /// `read`-reported number of logical probes as hits or misses. A hit
    /// reads the resident list; a miss fetches it into the shard buffer and
    /// admits it if complete.
    fn with_list<T>(&self, v: VertexId, read: impl FnOnce(&[VertexId], usize) -> (T, u64)) -> T {
        let mut guard = self.shard(v.raw());
        let s = &mut *guard;
        if let Some(e) = s.lists.get_mut(&v.raw()) {
            e.referenced = true;
            let (answer, probes) = read(&e.nbrs, e.nbrs.len());
            s.hits += probes;
            return answer;
        }
        let d = self.inner.neighbors_into(v, &mut s.buf);
        let (answer, probes) = read(&s.buf, d);
        s.misses += probes;
        // Only complete lists are admitted: a budget-refused prefix must
        // not masquerade as `Γ(v)` for future probes.
        if s.buf.len() == d {
            s.admit_buf(v.raw(), self.slab_bytes_per_shard);
        }
        // A hub list too large to admit must not pin its buffer either.
        let keep = self.slab_bytes_per_shard / std::mem::size_of::<VertexId>();
        if s.buf.capacity() > keep {
            s.buf.clear();
            s.buf.shrink_to(keep);
        }
        answer
    }

    /// A point probe of `v`: `read` on a complete list, else `forward` to
    /// the inner oracle.
    fn point<T>(
        &self,
        v: VertexId,
        read: impl FnOnce(&[VertexId]) -> T,
        forward: impl FnOnce(&O) -> T,
    ) -> T {
        self.with_list(v, |l, d| {
            let answer = if l.len() == d {
                read(l)
            } else {
                forward(&self.inner)
            };
            (answer, 1)
        })
    }
}

/// Locks a shard, recovering the guard if a holder panicked: every cached
/// list is a pure probe answer, so a poisoned shard is still valid data.
fn lock_shard(m: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Cold stub for the impossible empty-shard-vector case.
#[cold]
fn unreachable_shard() -> ! {
    // lint:allow(panic) — construction asserts shards > 0; this path is dead.
    unreachable!("CachedOracle has at least one shard")
}

impl<O: Oracle> Oracle for CachedOracle<O> {
    fn vertex_count(&self) -> usize {
        self.inner.vertex_count()
    }

    fn degree(&self, v: VertexId) -> usize {
        let mut guard = self.shard(v.raw());
        let s = &mut *guard;
        if let Some(e) = s.lists.get_mut(&v.raw()) {
            e.referenced = true;
            s.hits += 1;
            return e.nbrs.len();
        }
        // A degree miss needs no list: forward it and admit nothing.
        s.misses += 1;
        drop(guard);
        self.inner.degree(v)
    }

    fn neighbor(&self, v: VertexId, i: usize) -> Option<VertexId> {
        self.point(v, |l| l.get(i).copied(), |o| o.neighbor(v, i))
    }

    fn adjacency(&self, u: VertexId, v: VertexId) -> Option<usize> {
        self.point(u, |l| l.iter().position(|&w| w == v), |o| o.adjacency(u, v))
    }

    fn neighbors_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> usize {
        // One buffered scan is `len + 1` logical probes; an incomplete
        // fetch is passed through as the inner oracle returned it.
        self.with_list(v, |l, d| {
            out.clear();
            out.extend_from_slice(l);
            (d, l.len() as u64 + 1)
        })
    }

    fn label(&self, v: VertexId) -> u64 {
        self.inner.label(v)
    }

    fn probe_cost_hint(&self) -> lca_graph::ProbeCost {
        self.inner.probe_cost_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CountingOracle;
    use lca_graph::gen::structured;

    #[test]
    fn answers_match_and_each_list_is_fetched_once() {
        let g = structured::cycle(8);
        let counted = CountingOracle::new(&g);
        let cached = CachedOracle::new(&counted);
        for _ in 0..3 {
            for v in g.vertices() {
                assert_eq!(cached.neighbor(v, 0), g.neighbor(v, 0));
                assert_eq!(cached.degree(v), g.degree(v));
                assert_eq!(cached.neighbor(v, 99), g.neighbor(v, 99));
            }
        }
        // The inner oracle saw one bulk fetch per vertex: `deg + 1` probes.
        let inner = counted.counts();
        assert_eq!(inner.degree, 8);
        assert_eq!(inner.neighbor, 8 * 2);
        assert_eq!(inner.adjacency, 0);
        let stats = cached.stats();
        assert_eq!(stats.misses, 8);
        assert_eq!(stats.hits, 8 * 3 * 3 - 8);
        assert_eq!(stats.entries, 8);
        assert_eq!(stats.bytes, 8 * list_bytes(2));
    }

    #[test]
    fn cache_survives_across_queries_unlike_memo() {
        let g = structured::star(10);
        let counted = CountingOracle::new(&g);
        let cached = CachedOracle::new(&counted);
        // Two "queries" probing the same vertex: the second costs nothing.
        cached.neighbor(VertexId::new(0), 3);
        let after_first = counted.counts();
        cached.neighbor(VertexId::new(0), 3);
        cached.degree(VertexId::new(0));
        assert_eq!(counted.counts(), after_first);
        assert_eq!(after_first.degree, 1);
    }

    #[test]
    fn degree_misses_are_forwarded_not_fetched() {
        let g = structured::star(10);
        let counted = CountingOracle::new(&g);
        let cached = CachedOracle::new(&counted);
        let hub = VertexId::new(0);
        // Reading a hub's degree pulls no list into the store...
        assert_eq!(cached.degree(hub), 9);
        assert_eq!(cached.degree(hub), 9);
        assert_eq!((counted.counts().degree, counted.counts().neighbor), (2, 0));
        assert_eq!(cached.stats().entries, 0);
        // ...so a following scan is still one bulk fetch, which admits it.
        let mut buf = Vec::new();
        assert_eq!(cached.neighbors_into(hub, &mut buf), 9);
        assert_eq!((counted.counts().degree, counted.counts().neighbor), (3, 9));
        assert_eq!(cached.degree(hub), 9);
        assert_eq!(counted.counts().degree, 3, "resident degree is a hit");
        let stats = cached.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2 + 10, 1));
    }

    #[test]
    fn oversized_fetch_does_not_pin_the_miss_buffer() {
        let g = structured::star(300);
        // 64 neighbors' worth of budget: the hub's 299 never fit.
        let budget = list_bytes(64);
        let cached = CachedOracle::with_shards(&g, 1).with_slab_bytes(budget);
        assert_eq!(
            cached.neighbor(VertexId::new(0), 298),
            Some(VertexId::new(299))
        );
        assert_eq!(cached.stats().entries, 0);
        let s = lock_shard(&cached.shards[0]);
        assert!(
            s.buf.capacity() * std::mem::size_of::<VertexId>() <= budget,
            "miss buffer kept {} slots",
            s.buf.capacity()
        );
    }

    #[test]
    fn tiny_budget_keeps_answers_correct() {
        let g = structured::complete(12);
        // Each 11-neighbor list costs 92 bytes: at most two fit per shard.
        let cached = CachedOracle::with_shards(&g, 2).with_slab_bytes(2 * list_bytes(11));
        for round in 0..3 {
            for v in g.vertices() {
                assert_eq!(cached.degree(v), 11, "round {round}");
                for i in 0..12 {
                    assert_eq!(cached.neighbor(v, i), g.neighbor(v, i));
                    if let Some(w) = g.neighbor(v, i) {
                        assert_eq!(cached.adjacency(v, w), Some(i));
                    }
                }
            }
        }
        let stats = cached.stats();
        assert!(stats.entries <= 2 * 2, "budget exceeded: {stats:?}");
        assert!(stats.bytes <= 2 * 2 * list_bytes(11), "{stats:?}");
        assert!(stats.hits > stats.misses, "{stats:?}");
    }

    #[test]
    fn eviction_is_incremental_not_wholesale() {
        // A hot set (12 vertices, re-probed every round) under constant cold
        // pressure (4 fresh vertices per round from a 16-vertex pool, so the
        // store sits pinned at its 16-list budget). A wholesale flush would
        // empty the shard — hot set included — every time an admission hit
        // the budget, cratering whole rounds to a 0% hit rate; the
        // second-chance sweep must instead keep re-referenced hot lists
        // resident and evict only cold ones, so every round after warmup
        // serves all 12 hot probes from cache.
        let g = structured::complete(28);
        let cached = CachedOracle::with_shards(&g, 1).with_slab_bytes(16 * list_bytes(27));
        let hot: Vec<VertexId> = (0..12).map(VertexId::new).collect();
        for &v in &hot {
            cached.neighbor(v, 0); // warmup: hot set resident
        }
        let mut worst_round_rate = f64::INFINITY;
        for round in 0..12 {
            let before = cached.stats();
            for &v in &hot {
                cached.neighbor(v, 0);
            }
            for i in 0..4u32 {
                let cold = 12 + (4 * round + i) % 16;
                cached.neighbor(VertexId::from(cold), 0);
            }
            let after = cached.stats();
            let hits = (after.hits - before.hits) as f64;
            let reqs = (after.requests() - before.requests()) as f64;
            worst_round_rate = worst_round_rate.min(hits / reqs);
            assert!(after.entries <= 16, "budget exceeded: {}", after.entries);
        }
        // Second chance retains the full hot set: 12 of 16 probes per round.
        assert!(
            worst_round_rate >= 12.0 / 16.0,
            "hot set evicted under cold pressure: worst round {worst_round_rate}"
        );
    }

    #[test]
    fn resident_list_serves_all_probe_kinds() {
        let g = structured::cycle(9);
        let counted = CountingOracle::new(&g);
        let cached = CachedOracle::new(&counted);
        let v = VertexId::new(4);
        let mut buf = Vec::new();
        assert_eq!(cached.neighbors_into(v, &mut buf), 2);
        let after_fill = counted.counts().total();
        // Every later probe of v is served by the resident list.
        assert_eq!(cached.degree(v), 2);
        assert_eq!(cached.neighbor(v, 0), Some(buf[0]));
        assert_eq!(cached.neighbor(v, 1), Some(buf[1]));
        assert_eq!(cached.neighbor(v, 2), None);
        assert_eq!(cached.adjacency(v, buf[1]), Some(1));
        assert_eq!(cached.adjacency(v, v), None);
        let mut buf2 = Vec::new();
        assert_eq!(cached.neighbors_into(v, &mut buf2), 2);
        assert_eq!(buf, buf2);
        assert_eq!(counted.counts().total(), after_fill, "all hits after fill");
        // The fill was `deg + 1` misses; the scan `deg + 1` hits.
        let stats = cached.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 6 + 3);
    }

    #[test]
    fn slab_respects_byte_budget() {
        let g = structured::complete(64);
        // Budget fits only a couple of 63-neighbor lists per shard.
        let cached = CachedOracle::with_shards(&g, 1).with_slab_bytes(700);
        let mut buf = Vec::new();
        for v in g.vertices() {
            cached.neighbors_into(v, &mut buf);
        }
        let stats = cached.stats();
        assert!(stats.entries >= 1, "budget admits at least one list");
        assert!(stats.entries <= 3, "byte budget exceeded: {stats:?}");
        assert!(stats.bytes <= 700, "byte budget exceeded: {stats:?}");
        // Answers stay correct regardless of residency.
        for v in g.vertices() {
            assert_eq!(cached.degree(v), 63);
        }
    }

    #[test]
    fn zero_budget_admits_nothing() {
        let g = structured::star(6);
        let cached = CachedOracle::new(&g).with_slab_bytes(0);
        let mut buf = Vec::new();
        cached.neighbors_into(VertexId::new(0), &mut buf);
        assert_eq!(buf.len(), 5);
        assert_eq!(cached.degree(VertexId::new(0)), 5);
        assert_eq!(cached.neighbor(VertexId::new(0), 4), Some(buf[4]));
        let stats = cached.stats();
        assert_eq!((stats.entries, stats.bytes, stats.hits), (0, 0, 0));
        assert_eq!(stats.misses, 6 + 2);
    }

    /// An oracle whose bulk scan stops after `keep` neighbors, like a
    /// budgeted view that ran dry mid-scan.
    struct Truncating<'a> {
        g: &'a lca_graph::Graph,
        keep: usize,
    }

    impl Oracle for Truncating<'_> {
        fn vertex_count(&self) -> usize {
            self.g.vertex_count()
        }
        fn degree(&self, v: VertexId) -> usize {
            Oracle::degree(self.g, v)
        }
        fn neighbor(&self, v: VertexId, i: usize) -> Option<VertexId> {
            Oracle::neighbor(self.g, v, i)
        }
        fn adjacency(&self, u: VertexId, v: VertexId) -> Option<usize> {
            Oracle::adjacency(self.g, u, v)
        }
        fn neighbors_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> usize {
            let d = self.g.neighbors_into(v, out);
            out.truncate(self.keep);
            d
        }
        fn label(&self, v: VertexId) -> u64 {
            Oracle::label(self.g, v)
        }
    }

    #[test]
    fn incomplete_lists_are_never_admitted() {
        let g = structured::complete(6);
        let cached = CachedOracle::new(Truncating { g: &g, keep: 2 });
        let v = VertexId::new(3);
        assert_eq!(cached.degree(v), 5);
        for i in 0..7 {
            assert_eq!(cached.neighbor(v, i), Oracle::neighbor(&g, v, i));
        }
        for w in g.vertices() {
            assert_eq!(cached.adjacency(v, w), Oracle::adjacency(&g, v, w));
        }
        // A bulk scan passes the inner prefix through untouched.
        let mut buf = Vec::new();
        assert_eq!(cached.neighbors_into(v, &mut buf), 5);
        assert_eq!(buf.len(), 2);
        assert_eq!(cached.stats().entries, 0);
    }

    #[test]
    fn stats_aggregate_componentwise() {
        let a = CacheStats {
            hits: 3,
            misses: 1,
            entries: 2,
            bytes: 100,
        };
        let b = CacheStats {
            hits: 7,
            misses: 9,
            entries: 4,
            bytes: 28,
        };
        let sum = a + b;
        assert_eq!(sum.hits, 10);
        assert_eq!(sum.misses, 10);
        assert_eq!(sum.entries, 6);
        assert_eq!(sum.bytes, 128);
        assert_eq!(sum.requests(), 20);
        assert_eq!(sum.hit_rate(), 0.5);
    }

    #[test]
    fn flush_empties_the_cache_and_keeps_counters() {
        let g = structured::path(5);
        let cached = CachedOracle::new(&g);
        cached.neighbor(VertexId::new(1), 0);
        cached.neighbor(VertexId::new(1), 0);
        assert_eq!(cached.stats().entries, 1);
        cached.flush();
        let stats = cached.stats();
        assert_eq!((stats.entries, stats.bytes), (0, 0));
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }
}
