//! Shared PLI cache — the "holistic data structure" of §3.
//!
//! All three discovery tasks intersect PLIs for overlapping column
//! combinations. The cache memoizes them behind a [`ColumnSet`] key so DUCC,
//! the MUDS FD phases, FUN and TANE reuse each other's work instead of
//! recomputing — one of the paper's three sources of holistic speed-up
//! (shared data structures). Single-column PLIs (and the empty-set PLI) are
//! pinned; larger combinations live in a bounded LRU so wide lattices do not
//! exhaust memory.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use muds_lattice::ColumnSet;
use muds_table::Table;
use rayon::prelude::*;

use crate::pli::Pli;

/// The cache's work counters: handles into the ambient
/// [`muds_obs::Metrics`] registry, resolved once at cache construction so
/// the hot path pays one relaxed atomic add per event and never touches the
/// name→counter map. These are the quantities the paper's phase analysis
/// (§6.4) talks about — "the primary time-consuming operation is the PLI
/// intersect". When no registry is installed the handles are detached and
/// the adds are dead stores.
struct PliMeters {
    requests: muds_obs::Counter,
    hits: muds_obs::Counter,
    misses: muds_obs::Counter,
    intersects: muds_obs::Counter,
    evictions: muds_obs::Counter,
    refinement_checks: muds_obs::Counter,
}

impl PliMeters {
    fn bind() -> Self {
        PliMeters {
            requests: muds_obs::counter("pli.requests"),
            hits: muds_obs::counter("pli.hits"),
            misses: muds_obs::counter("pli.misses"),
            intersects: muds_obs::counter("pli.intersects"),
            evictions: muds_obs::counter("pli.evictions"),
            refinement_checks: muds_obs::counter("pli.refinement_checks"),
        }
    }
}

/// A memoizing provider of PLIs for arbitrary column combinations of one
/// table.
///
/// The cache itself is `&mut`-owned by the coordinating thread and needs no
/// interior mutability: the batch entry points ([`PliCache::get_many`],
/// [`PliCache::refines_many`]) keep all bookkeeping (counters, LRU stamps,
/// inserts) sequential and fan only the pure PLI work (intersects,
/// refinement scans) out to worker threads. Handing out `Arc<Pli>` lets
/// workers share the cached partitions without copying.
pub struct PliCache<'a> {
    table: &'a Table,
    /// Pinned PLIs: empty set and singletons, indexed by column.
    empty: Arc<Pli>,
    singles: Vec<Arc<Pli>>,
    /// LRU region for multi-column combinations.
    entries: HashMap<ColumnSet, (Arc<Pli>, u64)>,
    /// Stamp-ordered mirror of `entries` (stamps are unique), so eviction
    /// pops the oldest entry in O(log n) instead of scanning the map —
    /// under capacity pressure (wide tables flood the cache with prefix
    /// PLIs) a per-insert scan turns every miss into O(capacity).
    lru: BTreeMap<u64, ColumnSet>,
    capacity: usize,
    /// Optional ceiling on the *estimated* byte footprint of the LRU
    /// region (pinned singletons excluded — they are the working set every
    /// algorithm needs). `None` = entry-count bound only.
    byte_budget: Option<usize>,
    /// Running estimated byte footprint of the LRU region.
    lru_bytes: usize,
    tick: u64,
    meters: PliMeters,
}

impl<'a> PliCache<'a> {
    /// Default LRU capacity for multi-column PLIs.
    pub const DEFAULT_CAPACITY: usize = 8192;

    /// Creates a cache over `table`, eagerly building the single-column
    /// PLIs (this is the PLI-construction step MUDS performs while reading
    /// the input, §5).
    pub fn new(table: &'a Table) -> Self {
        Self::with_capacity(table, Self::DEFAULT_CAPACITY)
    }

    /// Creates a cache with a custom LRU capacity (≥ 1).
    pub fn with_capacity(table: &'a Table, capacity: usize) -> Self {
        // Per-column PLI construction is independent work: build in
        // parallel, collecting in schema order.
        let singles: Vec<Arc<Pli>> =
            table.columns().par_iter().map(|c| Arc::new(Pli::from_column(c))).collect();
        PliCache {
            table,
            empty: Arc::new(Pli::empty_set(table.num_rows())),
            singles,
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            capacity: capacity.max(1),
            byte_budget: None,
            lru_bytes: 0,
            tick: 0,
            meters: PliMeters::bind(),
        }
    }

    /// Caps the estimated byte footprint of the LRU region, evicting (LRU
    /// order) whenever an insert pushes past the budget. This is how a
    /// serving layer enforces a per-job memory ceiling on top of the
    /// entry-count bound. Setting a budget below the current footprint
    /// evicts immediately.
    pub fn set_byte_budget(&mut self, budget: Option<usize>) {
        self.byte_budget = budget;
        self.evict_over_budget();
    }

    /// Approximate heap footprint of everything the cache holds: the
    /// pinned singleton PLIs plus the LRU region. An accounting estimate
    /// (see [`Pli::estimated_bytes`]), suitable for budget enforcement and
    /// metrics, not heap profiling.
    pub fn estimated_bytes(&self) -> usize {
        let pinned: usize = self.singles.iter().map(|p| p.estimated_bytes()).sum::<usize>()
            + self.empty.estimated_bytes();
        pinned + self.lru_bytes
    }

    fn evict_lru_one(&mut self) -> bool {
        if let Some((&oldest, &victim)) = self.lru.iter().next() {
            self.lru.remove(&oldest);
            if let Some((pli, _)) = self.entries.remove(&victim) {
                self.lru_bytes = self.lru_bytes.saturating_sub(pli.estimated_bytes());
            }
            self.meters.evictions.inc();
            true
        } else {
            false
        }
    }

    fn evict_over_budget(&mut self) {
        if let Some(budget) = self.byte_budget {
            while self.lru_bytes > budget && self.evict_lru_one() {}
        }
    }

    /// The table this cache serves.
    pub fn table(&self) -> &'a Table {
        self.table
    }

    /// Returns the PLI of `set`, computing and caching it if necessary.
    ///
    /// Multi-column PLIs are assembled by intersecting the PLI of
    /// `set \ {max}` with the single-column PLI of `max`, so a chain of
    /// related look-ups (as produced by lattice traversals) reuses cached
    /// prefixes.
    pub fn get(&mut self, set: &ColumnSet) -> Arc<Pli> {
        self.meters.requests.inc();
        match set.cardinality() {
            0 => {
                self.meters.hits.inc();
                Arc::clone(&self.empty)
            }
            1 => {
                self.meters.hits.inc();
                // lint:allow(panic): this match arm is cardinality() == 1,
                // so min_col() always yields a column.
                Arc::clone(&self.singles[set.min_col().expect("non-empty")])
            }
            _ => {
                self.tick += 1;
                let tick = self.tick;
                if let Some((pli, stamp)) = self.entries.get_mut(set) {
                    self.lru.remove(stamp);
                    self.lru.insert(tick, *set);
                    *stamp = tick;
                    self.meters.hits.inc();
                    return Arc::clone(pli);
                }
                self.meters.misses.inc();
                // lint:allow(panic): this match arm is cardinality() >= 2,
                // so max_col() always yields a column.
                let last = set.max_col().expect("non-empty");
                let rest = set.without(last);
                let left = self.get(&rest);
                let right = Arc::clone(&self.singles[last]);
                self.meters.intersects.inc();
                let pli = Arc::new(left.intersect(&right));
                self.insert_at(*set, Arc::clone(&pli), tick);
                pli
            }
        }
    }

    /// Batch [`PliCache::get`]: resolves every set, computing the PLIs that
    /// miss with their final intersections fanned out in parallel.
    ///
    /// Bookkeeping runs sequentially in `sets` order — request/hit/miss
    /// accounting, LRU ticks, prefix materialization, and (after the
    /// parallel region) the inserts, each stamped with the tick of the
    /// request that missed. Counters and cache state are therefore
    /// identical for every thread count. They also match issuing the
    /// `get`s one by one, except under LRU pressure (batched inserts land
    /// after all of the batch's requests, so eviction timing can differ)
    /// and for batches containing both a set and a strict prefix of it,
    /// which compute correctly but may duplicate an intersect a
    /// sequential caller would have reused (callers pass one lattice
    /// level at a time, where neither arises).
    pub fn get_many(&mut self, sets: &[ColumnSet]) -> Vec<Arc<Pli>> {
        enum Slot {
            Ready(Arc<Pli>),
            Job(usize),
        }
        let mut slots: Vec<Slot> = Vec::with_capacity(sets.len());
        // Pending computations: (set, left operand, right operand, stamp).
        let mut jobs: Vec<(ColumnSet, Arc<Pli>, Arc<Pli>, u64)> = Vec::new();
        let mut job_of: HashMap<ColumnSet, usize> = HashMap::new();
        for set in sets {
            if set.cardinality() < 2 || self.entries.contains_key(set) {
                slots.push(Slot::Ready(self.get(set)));
                continue;
            }
            self.meters.requests.inc();
            self.tick += 1;
            let tick = self.tick;
            if let Some(&job) = job_of.get(set) {
                // Duplicate within the batch: a sequential caller would hit
                // the entry the first occurrence inserted; count it as a
                // hit and refresh the pending stamp accordingly.
                self.meters.hits.inc();
                jobs[job].3 = tick;
                slots.push(Slot::Job(job));
                continue;
            }
            self.meters.misses.inc();
            // lint:allow(panic): jobs are only enqueued for sets of
            // cardinality >= 2 (the singles arm returns earlier).
            let last = set.max_col().expect("cardinality >= 2");
            let rest = set.without(last);
            let left = self.get(&rest);
            let right = Arc::clone(&self.singles[last]);
            self.meters.intersects.inc();
            job_of.insert(*set, jobs.len());
            slots.push(Slot::Job(jobs.len()));
            jobs.push((*set, left, right, tick));
        }
        let computed: Vec<Arc<Pli>> = if jobs.len() <= 1 {
            jobs.iter().map(|(_, left, right, _)| Arc::new(left.intersect(right))).collect()
        } else {
            jobs.par_iter().map(|(_, left, right, _)| Arc::new(left.intersect(right))).collect()
        };
        for ((set, _, _, stamp), pli) in jobs.iter().zip(&computed) {
            self.insert_at(*set, Arc::clone(pli), *stamp);
        }
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Ready(pli) => pli,
                Slot::Job(job) => Arc::clone(&computed[job]),
            })
            .collect()
    }

    fn insert_at(&mut self, set: ColumnSet, pli: Arc<Pli>, stamp: u64) {
        if self.entries.len() >= self.capacity {
            // Evict the least recently used entry. Stamps are unique (every
            // multi-column request advances the tick), so the victim — and
            // therefore the whole eviction sequence — is deterministic.
            self.evict_lru_one();
        }
        self.lru_bytes += pli.estimated_bytes();
        if let Some((old_pli, old_stamp)) = self.entries.insert(set, (pli, stamp)) {
            self.lru.remove(&old_stamp);
            self.lru_bytes = self.lru_bytes.saturating_sub(old_pli.estimated_bytes());
        }
        self.lru.insert(stamp, set);
        // The byte budget may demand more than the one-entry eviction the
        // count bound performed — including, for a pathologically large
        // PLI, the entry just inserted (the returned Arc stays valid).
        self.evict_over_budget();
    }

    /// Column count beyond which validity checks stream their intersection
    /// instead of materializing every prefix PLI via [`PliCache::get`].
    const STREAM_THRESHOLD: usize = 16;

    /// Intersects the singleton PLIs of `set` smallest-first, without
    /// caching intermediates, stopping as soon as the partition strips
    /// empty (an empty stripped partition refines every column and stays
    /// empty under further intersection).
    fn stream_intersect(&mut self, set: &ColumnSet) -> Pli {
        // A single-class partition covering every row (a constant column)
        // is an identity operand of `intersect`; dropping such columns up
        // front turns checks over mostly-constant wide sets from chains of
        // full-table copies into one or two real intersections.
        let mut cols: Vec<usize> = set
            .iter()
            .filter(|&c| {
                let p = &self.singles[c];
                !(p.cluster_count() == 1 && p.size() == p.num_rows())
            })
            .collect();
        if cols.is_empty() {
            // Every column is constant: the intersection is any one of them.
            // lint:allow(panic): callers pass non-empty sets (the empty
            // set is served from the dedicated empty PLI earlier).
            return (*self.singles[set.iter().next().expect("non-empty set")]).clone();
        }
        cols.sort_by_key(|&c| self.singles[c].size());
        // lint:allow(panic): cols.is_empty() returned two lines above, so
        // index 0 exists.
        let mut acc = (*self.singles[cols[0]]).clone();
        for &c in &cols[1..] {
            if acc.is_unique() {
                break;
            }
            self.meters.intersects.inc();
            acc = acc.intersect(&self.singles[c]);
        }
        acc
    }

    /// Resolves the PLI backing a validity check (`is_unique`,
    /// `determines`): the regular caching path for small or already-cached
    /// sets, the streaming early-exit path for large uncached ones.
    ///
    /// Lattice walks over wide universes (at the 256-column boundary)
    /// probe hundreds of distinct large sets with near-zero prefix
    /// overlap; routing them through `get` would perform |set| intersects
    /// per probe *and* flood the LRU with prefixes nothing reuses. The
    /// streaming result is not cached; verdict-level memoization is the
    /// caller's job (walk memo, `FdKnowledge`). Streamed requests are
    /// accounted as misses so `requests == hits + misses` stays true.
    fn get_for_check(&mut self, set: &ColumnSet) -> Arc<Pli> {
        if set.cardinality() <= Self::STREAM_THRESHOLD || self.entries.contains_key(set) {
            return self.get(set);
        }
        self.meters.requests.inc();
        self.meters.misses.inc();
        Arc::new(self.stream_intersect(set))
    }

    /// Number of distinct values of the projection on `set` (Lemma 1's
    /// `|X|_r`).
    pub fn distinct_count(&mut self, set: &ColumnSet) -> usize {
        self.get(set).distinct_count()
    }

    /// True iff `set` is a unique column combination.
    pub fn is_unique(&mut self, set: &ColumnSet) -> bool {
        self.get_for_check(set).is_unique()
    }

    /// Partition-refinement FD check: true iff `lhs → rhs_col` holds.
    /// Trivial FDs (`rhs_col ∈ lhs`) are true by definition.
    pub fn determines(&mut self, lhs: &ColumnSet, rhs_col: usize) -> bool {
        if lhs.contains(rhs_col) {
            return true;
        }
        self.meters.refinement_checks.inc();
        let pli = self.get_for_check(lhs);
        pli.refines(self.table.column(rhs_col).codes())
    }

    /// Batch [`PliCache::determines`]: evaluates `lhs → rhs` for every pair
    /// in `checks`, fanning the partition-refinement scans out in parallel.
    ///
    /// Bookkeeping mirrors per-pair `determines` calls exactly and stays
    /// sequential in input order: trivial checks (`rhs ∈ lhs`) answer true
    /// without touching counters, every real check bumps
    /// `refinement_checks` and materializes its left-hand PLI via
    /// [`PliCache::get`] (hits after the first occurrence of an `lhs`).
    /// Only the pure `Pli::refines` scans run on worker threads, so counters,
    /// cache state, and verdict order are thread-count independent.
    pub fn refines_many(&mut self, checks: &[(ColumnSet, usize)]) -> Vec<bool> {
        enum Slot {
            Trivial,
            Job(usize),
        }
        let table = self.table;
        let mut slots: Vec<Slot> = Vec::with_capacity(checks.len());
        let mut jobs: Vec<(Arc<Pli>, &[u32])> = Vec::new();
        for (lhs, rhs) in checks {
            if lhs.contains(*rhs) {
                slots.push(Slot::Trivial);
                continue;
            }
            self.meters.refinement_checks.inc();
            let pli = self.get_for_check(lhs);
            slots.push(Slot::Job(jobs.len()));
            jobs.push((pli, table.column(*rhs).codes()));
        }
        let verdicts: Vec<bool> = if jobs.len() <= 1 {
            jobs.iter().map(|(pli, codes)| pli.refines(codes)).collect()
        } else {
            jobs.par_iter().map(|(pli, codes)| pli.refines(codes)).collect()
        };
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Trivial => true,
                Slot::Job(job) => verdicts[job],
            })
            .collect()
    }

    /// Number of multi-column entries currently cached.
    pub fn cached_entries(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muds_obs::Metrics;
    use muds_table::Table;

    /// A cache over `t` whose counter handles bind to a fresh registry;
    /// they keep counting into it after the install guard drops.
    fn metered(t: &Table, capacity: usize) -> (PliCache<'_>, Metrics) {
        let metrics = Metrics::new();
        let _guard = metrics.install();
        (PliCache::with_capacity(t, capacity), metrics)
    }

    /// Current value of the registry's `pli.<name>` counter.
    fn pli(metrics: &Metrics, name: &str) -> u64 {
        metrics.counter(&format!("pli.{name}")).get()
    }

    fn cs(cols: &[usize]) -> ColumnSet {
        ColumnSet::from_indices(cols.iter().copied())
    }

    fn table() -> Table {
        // a: 1 1 2 2 ; b: x y x y ; c: p p p q ; d = a (copy)
        Table::from_rows(
            "t",
            &["a", "b", "c", "d"],
            &[
                vec!["1", "x", "p", "1"],
                vec!["1", "y", "p", "1"],
                vec!["2", "x", "p", "2"],
                vec!["2", "y", "q", "2"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn singletons_are_pinned_hits() {
        let t = table();
        let (mut cache, m) = metered(&t, PliCache::DEFAULT_CAPACITY);
        let p = cache.get(&cs(&[0]));
        assert_eq!(p.distinct_count(), 2);
        assert_eq!(pli(&m, "hits"), 1);
        assert_eq!(pli(&m, "misses"), 0);
    }

    #[test]
    fn multi_column_composed_and_cached() {
        let t = table();
        let (mut cache, m) = metered(&t, PliCache::DEFAULT_CAPACITY);
        let ab = cache.get(&cs(&[0, 1]));
        assert!(ab.is_unique()); // (a,b) pairs are all distinct
        assert_eq!(pli(&m, "intersects"), 1);
        // Second request is a hit, no further intersects.
        let _ = cache.get(&cs(&[0, 1]));
        assert_eq!(pli(&m, "intersects"), 1);
        // Miss for {0,1}, pinned hit for its {0} prefix, then the re-hit.
        assert_eq!(pli(&m, "misses"), 1);
        assert_eq!(pli(&m, "hits"), 2);
        assert_eq!(pli(&m, "requests"), pli(&m, "hits") + pli(&m, "misses"));
    }

    #[test]
    fn chained_lookup_reuses_prefix() {
        let t = table();
        let (mut cache, m) = metered(&t, PliCache::DEFAULT_CAPACITY);
        let _ = cache.get(&cs(&[0, 1]));
        let before = pli(&m, "intersects");
        let _ = cache.get(&cs(&[0, 1, 2]));
        // {0,1,2} = {0,1} ∩ {2}: exactly one extra intersect.
        assert_eq!(pli(&m, "intersects"), before + 1);
    }

    #[test]
    fn distinct_counts_match_direct_computation() {
        let t = table();
        let mut cache = PliCache::new(&t);
        assert_eq!(cache.distinct_count(&cs(&[])), 1);
        assert_eq!(cache.distinct_count(&cs(&[2])), 2);
        assert_eq!(cache.distinct_count(&cs(&[0, 2])), 3);
        assert_eq!(cache.distinct_count(&cs(&[0, 1, 2, 3])), 4);
    }

    #[test]
    fn determines_matches_semantics() {
        let t = table();
        let (mut cache, m) = metered(&t, PliCache::DEFAULT_CAPACITY);
        // d is a copy of a: a → d and d → a.
        assert!(cache.determines(&cs(&[0]), 3));
        assert!(cache.determines(&cs(&[3]), 0));
        // a does not determine b.
        assert!(!cache.determines(&cs(&[0]), 1));
        // {a,b} is a key: determines everything.
        assert!(cache.determines(&cs(&[0, 1]), 2));
        // Trivial FD: answered without a refinement check.
        assert!(cache.determines(&cs(&[0]), 0));
        assert_eq!(pli(&m, "refinement_checks"), 4);
    }

    #[test]
    fn empty_lhs_determines_constants_only() {
        let t = Table::from_rows("t", &["k", "v"], &[vec!["c", "1"], vec!["c", "2"]]).unwrap();
        let mut cache = PliCache::new(&t);
        assert!(cache.determines(&ColumnSet::empty(), 0));
        assert!(!cache.determines(&ColumnSet::empty(), 1));
    }

    #[test]
    fn eviction_keeps_capacity_bounded() {
        let t = table();
        let (mut cache, m) = metered(&t, 2);
        let _ = cache.get(&cs(&[0, 1]));
        let _ = cache.get(&cs(&[0, 2]));
        let _ = cache.get(&cs(&[1, 2]));
        assert!(cache.cached_entries() <= 2);
        assert!(pli(&m, "evictions") >= 1);
        // Evicted entries are recomputed correctly.
        assert!(cache.get(&cs(&[0, 1])).is_unique());
    }

    #[test]
    fn get_many_matches_sequential_gets() {
        let t = table();
        let sets = [cs(&[0, 1]), cs(&[2]), cs(&[0, 2]), cs(&[0, 1]), cs(&[1, 2]), cs(&[0, 1, 2])];
        let (mut batched, mb) = metered(&t, PliCache::DEFAULT_CAPACITY);
        let batch_plis = batched.get_many(&sets[..5]);
        let (mut sequential, ms) = metered(&t, PliCache::DEFAULT_CAPACITY);
        let seq_plis: Vec<_> = sets[..5].iter().map(|s| sequential.get(s)).collect();
        for (b, s) in batch_plis.iter().zip(&seq_plis) {
            assert_eq!(**b, **s);
        }
        let (batch, seq) = (mb.drain_snapshot(), ms.drain_snapshot());
        assert_eq!(batch.counters, seq.counters, "batching must not change accounting");
        assert_eq!(batch.counter("pli.requests"), 8, "5 sets + 3 materialized prefixes");
        assert_eq!(
            batch.counter("pli.requests"),
            batch.counter("pli.hits") + batch.counter("pli.misses")
        );
        assert_eq!(batch.counter("pli.intersects"), 3);
        // A follow-up level reuses what the batch cached.
        let _ = batched.get_many(&sets[5..]);
        assert_eq!(pli(&mb, "intersects"), 1, "{{0,1,2}} = cached {{0,1}} ∩ {{2}}");
    }

    #[test]
    fn get_many_counts_duplicates_as_hits() {
        let t = table();
        let (mut cache, m) = metered(&t, PliCache::DEFAULT_CAPACITY);
        let plis = cache.get_many(&[cs(&[0, 1]), cs(&[0, 1]), cs(&[0, 1])]);
        assert_eq!(pli(&m, "misses"), 1);
        // Two duplicate hits, plus the pinned-singleton hit for the {0}
        // prefix the miss materialized — as a sequential caller would see.
        assert_eq!(pli(&m, "hits"), 3);
        assert_eq!(pli(&m, "requests"), 4);
        assert_eq!(pli(&m, "intersects"), 1);
        assert_eq!(*plis[0], *plis[1]);
        assert_eq!(*plis[1], *plis[2]);
    }

    #[test]
    fn refines_many_matches_determines() {
        let t = table();
        let checks = vec![
            (cs(&[0]), 3),
            (cs(&[3]), 0),
            (cs(&[0]), 1),
            (cs(&[0, 1]), 2),
            (cs(&[0]), 0), // trivial
            (cs(&[0]), 3), // repeated lhs: second get is a hit
        ];
        let (mut batched, mb) = metered(&t, PliCache::DEFAULT_CAPACITY);
        let verdicts = batched.refines_many(&checks);
        let (mut sequential, ms) = metered(&t, PliCache::DEFAULT_CAPACITY);
        let expected: Vec<bool> =
            checks.iter().map(|(lhs, rhs)| sequential.determines(lhs, *rhs)).collect();
        assert_eq!(verdicts, expected);
        assert_eq!(verdicts, vec![true, true, false, true, true, true]);
        let (batch, seq) = (mb.drain_snapshot(), ms.drain_snapshot());
        assert_eq!(batch.counters, seq.counters, "batching must not change accounting");
        assert_eq!(batch.counter("pli.refinement_checks"), 5, "the trivial check is free");
        assert_eq!(
            batch.counter("pli.requests"),
            batch.counter("pli.hits") + batch.counter("pli.misses")
        );
    }

    #[test]
    fn lru_evicts_least_recent() {
        let t = table();
        let (mut cache, m) = metered(&t, 2);
        let _ = cache.get(&cs(&[0, 1])); // tick 1
        let _ = cache.get(&cs(&[0, 2])); // tick 2
        let _ = cache.get(&cs(&[0, 1])); // refresh {0,1}, tick 3
        let _ = cache.get(&cs(&[1, 2])); // evicts {0,2}
        let before = pli(&m, "misses");
        let _ = cache.get(&cs(&[0, 1])); // still cached → hit
        assert_eq!(pli(&m, "misses"), before);
    }

    #[test]
    fn byte_accounting_tracks_inserts_and_evictions() {
        let t = table();
        let mut cache = PliCache::new(&t);
        let pinned = cache.estimated_bytes();
        assert!(pinned > 0, "pinned singletons have a footprint");
        let ab = cache.get(&cs(&[0, 1]));
        assert_eq!(cache.estimated_bytes(), pinned + ab.estimated_bytes());
        let ac = cache.get(&cs(&[0, 2]));
        assert_eq!(cache.estimated_bytes(), pinned + ab.estimated_bytes() + ac.estimated_bytes());
        // Re-requesting a cached set must not double-count.
        let _ = cache.get(&cs(&[0, 1]));
        assert_eq!(cache.estimated_bytes(), pinned + ab.estimated_bytes() + ac.estimated_bytes());
    }

    #[test]
    fn byte_budget_bounds_the_lru_region() {
        let t = table();
        let (mut cache, m) = metered(&t, PliCache::DEFAULT_CAPACITY);
        let pinned = cache.estimated_bytes();
        let one = cache.get(&cs(&[0, 1])).estimated_bytes();
        // Budget for roughly one multi-column entry: every further insert
        // must evict back down to the budget.
        cache.set_byte_budget(Some(one));
        for sets in [[0, 2], [1, 2], [0, 3], [1, 3]] {
            let _ = cache.get(&cs(&sets));
            assert!(cache.estimated_bytes() - pinned <= one);
            assert!(cache.cached_entries() <= 1);
        }
        assert!(pli(&m, "evictions") >= 4);
    }

    #[test]
    fn zero_byte_budget_still_serves_correct_plis() {
        let t = table();
        let mut cache = PliCache::new(&t);
        cache.set_byte_budget(Some(0));
        // Nothing multi-column can be retained, but results stay correct
        // (the returned Arc outlives its eviction).
        let ab = cache.get(&cs(&[0, 1]));
        assert!(ab.is_unique());
        assert_eq!(cache.cached_entries(), 0);
        assert!(cache.determines(&cs(&[0, 1]), 2));
    }

    #[test]
    fn lowering_the_budget_evicts_immediately() {
        let t = table();
        let (mut cache, m) = metered(&t, PliCache::DEFAULT_CAPACITY);
        let _ = cache.get(&cs(&[0, 1]));
        let _ = cache.get(&cs(&[0, 2]));
        assert_eq!(cache.cached_entries(), 2);
        cache.set_byte_budget(Some(0));
        assert_eq!(cache.cached_entries(), 0);
        assert_eq!(pli(&m, "evictions"), 2);
        // Oldest-first: with a budget of one entry, {0,1} (older) goes first.
        let (mut cache, m) = metered(&t, PliCache::DEFAULT_CAPACITY);
        let _ = cache.get(&cs(&[0, 1]));
        let two = cache.get(&cs(&[0, 2])).estimated_bytes();
        cache.set_byte_budget(Some(two));
        let before = pli(&m, "misses");
        let _ = cache.get(&cs(&[0, 2])); // survivor → hit
        assert_eq!(pli(&m, "misses"), before);
        let _ = cache.get(&cs(&[0, 1])); // evicted → miss
        assert_eq!(pli(&m, "misses"), before + 1);
    }
}
