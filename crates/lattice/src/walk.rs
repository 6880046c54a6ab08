//! Generic DUCC-style random-walk search for minimal positive sets of a
//! monotone lattice property.
//!
//! DUCC (§2.2 of the paper) discovers minimal UCCs by random-walking the
//! attribute lattice: on a non-unique node it moves to a random direct
//! superset, on a unique node to a random direct subset, pruning subsets of
//! non-UCCs and supersets of UCCs. Unvisited "holes" left by the combined
//! up/down pruning are found by comparing the discovered minimal UCCs with
//! the minimal hitting sets of the complements of the maximal non-UCCs.
//!
//! MUDS (§5.2) reuses the exact same traversal for FD discovery, with the
//! monotone property "X functionally determines A" instead of "X is
//! unique". This module therefore implements the search generically over a
//! [`MonotoneOracle`].

use std::collections::HashMap;

use rand::prelude::*;
use rand::rngs::StdRng;

use crate::hitting_set::{complement_family, minimal_hitting_sets};
use crate::set_trie::{MaximalSetFamily, MinimalSetFamily};
use crate::{ColumnSet, ColumnSetState};

/// A monotone (upward-closed) predicate over column sets: if `check(X)` is
/// true then `check(Y)` is true for every `Y ⊇ X`.
///
/// Implementations are expected to be expensive (PLI intersections); the
/// walk engine minimizes the number of calls and never asks the same set
/// twice.
pub trait MonotoneOracle {
    /// Evaluates the predicate on `set`.
    fn check(&mut self, set: &ColumnSet) -> bool;
}

impl<F: FnMut(&ColumnSet) -> bool> MonotoneOracle for F {
    fn check(&mut self, set: &ColumnSet) -> bool {
        self(set)
    }
}

/// Outcome of [`find_minimal_positives`].
#[derive(Debug, Clone)]
pub struct WalkResult {
    /// All minimal sets satisfying the predicate, sorted.
    pub minimal_positives: Vec<ColumnSet>,
    /// All maximal sets violating the predicate, sorted. Empty when the
    /// predicate holds on the empty set.
    pub maximal_negatives: Vec<ColumnSet>,
}

/// Classification of a visited node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Positive,
    Negative,
}

/// One node on a walk's trail: the node and the columns whose neighbor
/// (direct subset for a positive node, direct superset for a negative one)
/// has not been ruled out yet. Kept as a bitmask so family-derived
/// exclusions apply to all remaining candidates at once.
struct Frame {
    set: ColumnSet,
    remaining: ColumnSet,
    positive: bool,
}

struct Search<'a, O: MonotoneOracle> {
    universe: ColumnSet,
    oracle: &'a mut O,
    visited: HashMap<ColumnSet, Status, ColumnSetState>,
    min_pos: MinimalSetFamily,
    max_neg: MaximalSetFamily,
    rng: StdRng,
    /// Work counters, published into the registry once per walk.
    oracle_calls: u64,
    nodes_visited: u64,
    hole_rounds: u64,
    holes_checked: u64,
}

impl<'a, O: MonotoneOracle> Search<'a, O> {
    /// Ends the walk with its discovered families, sorted.
    fn finish(self) -> WalkResult {
        let mut minimal_positives = self.min_pos.sets().to_vec();
        minimal_positives.sort();
        let mut maximal_negatives = self.max_neg.sets().to_vec();
        maximal_negatives.sort();
        self.publish(minimal_positives, maximal_negatives)
    }

    /// Publishes the walk's counters into the ambient [`muds_obs::Metrics`]
    /// registry (no-op without one). Every exit point goes through here
    /// once, so the registry accumulates run-level totals across all walks
    /// of an algorithm (DUCC + every per-rhs sub-lattice walk).
    fn publish(
        &self,
        minimal_positives: Vec<ColumnSet>,
        maximal_negatives: Vec<ColumnSet>,
    ) -> WalkResult {
        muds_obs::add("walk.runs", 1);
        muds_obs::add("walk.oracle_calls", self.oracle_calls);
        muds_obs::add("walk.nodes_visited", self.nodes_visited);
        muds_obs::add("walk.hole_rounds", self.hole_rounds);
        muds_obs::add("walk.holes_checked", self.holes_checked);
        muds_obs::add("walk.minimal_positives", minimal_positives.len() as u64);
        muds_obs::add("walk.maximal_negatives", maximal_negatives.len() as u64);
        WalkResult { minimal_positives, maximal_negatives }
    }

    /// Classifies `set`, consulting pruning information before the oracle.
    fn classify(&mut self, set: &ColumnSet) -> Status {
        if let Some(&s) = self.visited.get(set) {
            return s;
        }
        let status = if self.min_pos.dominates(set) {
            Status::Positive
        } else if self.max_neg.dominates(set) {
            Status::Negative
        } else {
            self.oracle_calls += 1;
            if self.oracle.check(set) {
                Status::Positive
            } else {
                self.max_neg.add(*set);
                Status::Negative
            }
        };
        self.visited.insert(*set, status);
        status
    }

    /// Status without any oracle call; `None` when unknown.
    ///
    /// Statuses derived from the domination tries are memoized into
    /// `visited`: both families only grow and the oracle is exact, so a
    /// classification can never be revised, and the memo turns repeated
    /// neighbor probes of the same set (frequent on wide universes, where
    /// every node has hundreds of neighbors) into a single hash lookup
    /// instead of a trie query per probe.
    fn known_status(&mut self, set: &ColumnSet) -> Option<Status> {
        if let Some(&s) = self.visited.get(set) {
            return Some(s);
        }
        let derived = if self.min_pos.dominates(set) {
            Some(Status::Positive)
        } else if self.max_neg.dominates(set) {
            Some(Status::Negative)
        } else {
            None
        };
        if let Some(s) = derived {
            self.visited.insert(*set, s);
        }
        derived
    }

    /// Random walk from `start` following the DUCC strategy: move down from
    /// positives, up from negatives, record minimal positives when every
    /// direct subset is negative.
    ///
    /// Each trail frame keeps its partial Fisher–Yates scan position, so a
    /// node backtracked into resumes its neighbor scan where it stopped
    /// instead of rescanning from the beginning. Every neighbor of a node
    /// is therefore probed at most once per walk — known-ness only grows,
    /// so a candidate found known at probe time stays known — turning a
    /// walk from O(length × degree) probes into O(length + degree), which
    /// on 255-column universes is the bulk of the phase's runtime.
    fn walk_from(&mut self, start: ColumnSet) {
        let mut stack: Vec<Frame> = vec![self.new_frame(start)];
        while let Some(mut frame) = stack.pop() {
            match self.advance(&mut frame) {
                Some(next) => {
                    stack.push(frame);
                    let next_frame = self.new_frame(next);
                    stack.push(next_frame);
                }
                None => {
                    if frame.positive && self.is_confirmed_minimal(&frame.set) {
                        self.min_pos.add(frame.set);
                    }
                }
            }
        }
    }

    /// Opens a scan frame for `set`: classifies it and seeds the candidate
    /// columns of its unvisited-neighbor scan (direct subsets for
    /// positives, direct supersets within the universe for negatives).
    fn new_frame(&mut self, set: ColumnSet) -> Frame {
        self.nodes_visited += 1;
        let positive = self.classify(&set) == Status::Positive;
        let remaining = if positive { set } else { self.universe.difference(&set) };
        Frame { set, remaining, positive }
    }

    /// Drops from `frame.remaining` every column whose neighbor is
    /// *derivable* from the current families — O(family size) bitset
    /// operations instead of one domination probe per neighbor.
    ///
    /// Applied on every scan resume, not only at frame open: the families
    /// grow while a trail node waits on the stack, and by the time a long
    /// trail drains almost every neighbor of every frame is derivable. A
    /// per-neighbor probe loop makes that drain O(width) hash-and-trie
    /// lookups per frame, which on wide universes dominates the entire
    /// search; the bitmask form removes all newly-derivable candidates at
    /// once. Skipped columns are exactly those whose probe would have
    /// returned a derived status, so the scan outcome is unchanged.
    fn exclude_derivable(&self, frame: &mut Frame) {
        if frame.positive {
            // P\{c} is derived positive iff some known minimal positive
            // inside P avoids c — only c in the intersection of the
            // minimal positives within P can yield an unknown subset.
            // P\{c} is derived negative iff P \ M = {c} for a maximal
            // negative M.
            for p in self.min_pos.sets() {
                if p.is_subset_of(&frame.set) {
                    frame.remaining = frame.remaining.intersection(p);
                }
            }
            for m in self.max_neg.sets() {
                let outside = frame.set.difference(m);
                if outside.cardinality() == 1 {
                    frame.remaining = frame.remaining.difference(&outside);
                }
            }
        } else {
            // N∪{c} is derived negative iff c lies in a maximal negative
            // M ⊇ N, and derived positive iff p \ N = {c} for a known
            // minimal positive p.
            for m in self.max_neg.sets() {
                if frame.set.is_subset_of(m) {
                    frame.remaining = frame.remaining.difference(m);
                }
            }
            for p in self.min_pos.sets() {
                let missing = p.difference(&frame.set);
                if missing.cardinality() == 1 {
                    frame.remaining = frame.remaining.difference(&missing);
                }
            }
        }
    }

    /// Resumes `frame`'s neighbor scan: removes newly-derivable candidates,
    /// then draws remaining columns uniformly at random until one yields a
    /// neighbor whose status is unknown.
    ///
    /// Equivalent to collecting every unknown neighbor and sampling one
    /// uniformly, but lazy: when most neighbors are unknown (the productive
    /// phase of a walk) this probes O(1) candidates, and when most are
    /// derivable (the drain phase) the bitmask exclusion removes them
    /// wholesale, so only oracle-visited non-derived neighbors are ever
    /// probed individually.
    fn advance(&mut self, frame: &mut Frame) -> Option<ColumnSet> {
        self.exclude_derivable(frame);
        while !frame.remaining.is_empty() {
            let k = self.rng.gen_range(0..frame.remaining.cardinality());
            // lint:allow(panic): k is drawn from 0..cardinality() of this
            // exact set on the previous line, so nth(k) always yields.
            let c = frame.remaining.iter().nth(k).expect("k < cardinality");
            frame.remaining = frame.remaining.without(c);
            let candidate = if frame.positive { frame.set.without(c) } else { frame.set.with(c) };
            if self.known_status(&candidate).is_none() {
                return Some(candidate);
            }
        }
        None
    }

    /// True iff every direct subset of `set` is known negative, which proves
    /// `set` is a minimal positive. The empty set has no subsets and is
    /// trivially minimal.
    fn is_confirmed_minimal(&mut self, set: &ColumnSet) -> bool {
        let subsets: Vec<ColumnSet> = set.direct_subsets().collect();
        subsets.iter().all(|s| self.classify(s) == Status::Negative)
    }

    /// Walks `positive` down to a minimal positive and records it.
    fn minimize_positive(&mut self, positive: ColumnSet) {
        let mut current = positive;
        'outer: loop {
            let subsets: Vec<ColumnSet> = current.direct_subsets().collect();
            for s in subsets {
                if self.classify(&s) == Status::Positive {
                    current = s;
                    continue 'outer;
                }
            }
            // All direct subsets negative: current is minimal.
            self.min_pos.add(current);
            return;
        }
    }

    /// Walks `negative` up to a maximal negative (recorded by `classify`).
    fn maximize_negative(&mut self, negative: ColumnSet) {
        let mut current = negative;
        'outer: loop {
            let supersets: Vec<ColumnSet> = current.direct_supersets(&self.universe).collect();
            for s in supersets {
                if self.classify(&s) == Status::Negative {
                    current = s;
                    continue 'outer;
                }
            }
            return; // max_neg already holds it via classify()
        }
    }
}

/// Finds **all** minimal positive sets of a monotone predicate over the
/// lattice of subsets of `universe`.
///
/// The search runs the DUCC random walk seeded at every singleton, then
/// iterates the hitting-set duality until the discovered minimal positives
/// are provably complete: the loop ends when the minimal transversals of the
/// complements of the maximal negatives coincide with the found minimal
/// positives, which certifies both families (Gunopulos et al.; used by DUCC
/// as "hole" detection).
///
/// `known_negatives` seeds the maximal-negative family with sets already
/// known to violate the predicate (inter-task pruning in MUDS); they must be
/// genuinely negative. `known_positives` are sets *known to be positive* but
/// not necessarily minimal (e.g. FD left-hand sides found by an earlier
/// phase): each is walked down to a minimal positive before the regular
/// search starts, so prior knowledge prunes the walk without affecting
/// exactness. The walk is fully deterministic given `seed`.
pub fn find_minimal_positives<O: MonotoneOracle>(
    universe: ColumnSet,
    oracle: &mut O,
    seed: u64,
    known_negatives: &[ColumnSet],
    known_positives: &[ColumnSet],
) -> WalkResult {
    let mut search = Search {
        universe,
        oracle,
        visited: HashMap::default(),
        min_pos: MinimalSetFamily::new(),
        max_neg: MaximalSetFamily::with_universe(universe),
        rng: StdRng::seed_from_u64(seed),
        oracle_calls: 0,
        nodes_visited: 0,
        hole_rounds: 0,
        holes_checked: 0,
    };
    for &n in known_negatives {
        search.max_neg.add(n);
        search.visited.insert(n, Status::Negative);
    }

    // The empty set: positive means it is the unique minimal positive
    // (e.g. a constant column for the FD oracle, a ≤1-row table for UCCs).
    if search.classify(&ColumnSet::empty()) == Status::Positive {
        return search.publish(vec![ColumnSet::empty()], Vec::new());
    }

    for &p in known_positives {
        search.visited.insert(p, Status::Positive);
        search.minimize_positive(p);
    }

    // Prior knowledge may already certify completeness: if every minimal
    // transversal of the complements of the known negatives is a known
    // minimal positive, the duality condition the hole loop converges to
    // holds before any walking. This is the common case when re-minimizing
    // inside a box of a universe an earlier exact phase already solved; the
    // singleton walks below would only re-derive known classifications,
    // which on wide tables is the dominant cost of the entire phase.
    // (An empty transversal family arises only when the universe itself is
    // a known negative, in which case "no positives" is exact.)
    if !known_negatives.is_empty() || !known_positives.is_empty() {
        search.hole_rounds += 1;
        let edges = complement_family(search.max_neg.sets(), &universe);
        let transversals = minimal_hitting_sets(&edges, &universe);
        if transversals.iter().all(|t| search.min_pos.sets().contains(t)) {
            return search.finish();
        }
    }

    // Seed walks from every singleton, in random order like DUCC.
    let mut seeds: Vec<ColumnSet> = universe.iter().map(ColumnSet::single).collect();
    seeds.shuffle(&mut search.rng);
    for seed in seeds {
        search.walk_from(seed);
    }

    // Hole-filling loop: converges when duality certifies completeness.
    loop {
        search.hole_rounds += 1;
        let edges = complement_family(search.max_neg.sets(), &universe);
        let transversals = minimal_hitting_sets(&edges, &universe);
        let mut progressed = false;
        for hole in transversals {
            if search.min_pos.sets().contains(&hole) {
                continue;
            }
            search.holes_checked += 1;
            match search.classify(&hole) {
                Status::Positive => search.minimize_positive(hole),
                Status::Negative => search.maximize_negative(hole),
            }
            progressed = true;
        }
        if !progressed {
            break;
        }
    }

    search.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0xD0CC;

    fn cs(cols: &[usize]) -> ColumnSet {
        ColumnSet::from_indices(cols.iter().copied())
    }

    /// Oracle defined by explicit minimal positives: X positive iff it
    /// contains one of them.
    struct FamilyOracle {
        minimal: Vec<ColumnSet>,
        calls: u64,
    }

    impl MonotoneOracle for FamilyOracle {
        fn check(&mut self, set: &ColumnSet) -> bool {
            self.calls += 1;
            self.minimal.iter().any(|m| m.is_subset_of(set))
        }
    }

    fn run(universe: usize, minimal: Vec<ColumnSet>) -> WalkResult {
        let mut oracle = FamilyOracle { minimal, calls: 0 };
        find_minimal_positives(ColumnSet::full(universe), &mut oracle, SEED, &[], &[])
    }

    #[test]
    fn single_minimal_singleton() {
        let r = run(4, vec![cs(&[2])]);
        assert_eq!(r.minimal_positives, vec![cs(&[2])]);
    }

    #[test]
    fn empty_set_positive_short_circuits() {
        let r = run(4, vec![ColumnSet::empty()]);
        assert_eq!(r.minimal_positives, vec![ColumnSet::empty()]);
        assert!(r.maximal_negatives.is_empty());
    }

    #[test]
    fn no_positives_at_all() {
        let mut oracle = |_: &ColumnSet| false;
        let r = find_minimal_positives(ColumnSet::full(3), &mut oracle, SEED, &[], &[]);
        assert!(r.minimal_positives.is_empty());
        assert_eq!(r.maximal_negatives, vec![ColumnSet::full(3)]);
    }

    #[test]
    fn full_set_only() {
        let r = run(4, vec![ColumnSet::full(4)]);
        assert_eq!(r.minimal_positives, vec![ColumnSet::full(4)]);
    }

    #[test]
    fn overlapping_minimal_positives() {
        let want = vec![cs(&[0, 1]), cs(&[1, 2]), cs(&[3])];
        let r = run(5, want.clone());
        let mut want = want;
        want.sort();
        assert_eq!(r.minimal_positives, want);
    }

    #[test]
    fn maximal_negatives_are_duals() {
        // Minimal positives {0,1} and {2} over 3 columns.
        // Negatives: sets containing neither → subsets of {0,2}^c .. compute:
        // a set is negative iff it misses {2} and does not contain {0,1}.
        // Maximal negatives: {0} ∪ ... → {0}, {1}: {0} misses 2, no {0,1}. {1} same.
        // Actually maximal: {0} can grow to... {0} ∪ {1} contains {0,1} → positive.
        // {0} ∪ {2} positive. So maximal negatives are {0} and {1}.
        let r = run(3, vec![cs(&[0, 1]), cs(&[2])]);
        assert_eq!(r.maximal_negatives, vec![cs(&[0]), cs(&[1])]);
    }

    #[test]
    fn known_negatives_reduce_oracle_calls() {
        let minimal = vec![cs(&[0, 1, 2])];
        let mut o1 = FamilyOracle { minimal: minimal.clone(), calls: 0 };
        let r1 = find_minimal_positives(ColumnSet::full(6), &mut o1, SEED, &[], &[]);
        // Tell the search the largest negatives up front.
        let negs: Vec<ColumnSet> = r1.maximal_negatives.clone();
        let mut o2 = FamilyOracle { minimal, calls: 0 };
        let r2 = find_minimal_positives(ColumnSet::full(6), &mut o2, SEED, &negs, &[]);
        assert_eq!(r1.minimal_positives, r2.minimal_positives);
        assert!(
            o2.calls < o1.calls,
            "seeded walk should call the oracle less ({} vs {})",
            o2.calls,
            o1.calls
        );
    }

    #[test]
    fn seeded_positives_preserve_exactness() {
        let fam = vec![cs(&[0, 1]), cs(&[2, 3])];
        let mut o1 = FamilyOracle { minimal: fam.clone(), calls: 0 };
        let r1 = find_minimal_positives(ColumnSet::full(5), &mut o1, SEED, &[], &[]);
        // Seed with *non-minimal* positive supersets.
        let seeds = vec![cs(&[0, 1, 4]), cs(&[2, 3, 4])];
        let mut o2 = FamilyOracle { minimal: fam, calls: 0 };
        let r2 = find_minimal_positives(ColumnSet::full(5), &mut o2, SEED, &[], &seeds);
        assert_eq!(r1.minimal_positives, r2.minimal_positives);
        assert_eq!(r1.maximal_negatives, r2.maximal_negatives);
    }

    #[test]
    fn deterministic_given_seed() {
        let fam = vec![cs(&[0, 3]), cs(&[1, 2, 4])];
        let walk = || {
            let metrics = muds_obs::Metrics::new();
            let _guard = metrics.install();
            let mut oracle = FamilyOracle { minimal: fam.clone(), calls: 0 };
            let r = find_minimal_positives(ColumnSet::full(6), &mut oracle, 99, &[], &[]);
            (r.minimal_positives, metrics.drain_snapshot().counters)
        };
        let (p1, c1) = walk();
        let (p2, c2) = walk();
        assert_eq!(p1, p2);
        assert_eq!(c1, c2);
        assert!(c1["walk.oracle_calls"] > 0);
    }

    #[test]
    fn walk_counters_publish_into_ambient_registry() {
        let metrics = muds_obs::Metrics::new();
        let _guard = metrics.install();
        let mut oracle = FamilyOracle { minimal: vec![cs(&[0, 1]), cs(&[3])], calls: 0 };
        let r = find_minimal_positives(ColumnSet::full(5), &mut oracle, SEED, &[], &[]);
        let snap = metrics.drain_snapshot();
        assert_eq!(snap.counter("walk.runs"), 1);
        assert_eq!(snap.counter("walk.oracle_calls"), oracle.calls);
        assert!(snap.counter("walk.nodes_visited") >= 5, "one walk per singleton seed");
        assert!(snap.counter("walk.hole_rounds") >= 1);
        assert_eq!(snap.counter("walk.minimal_positives"), r.minimal_positives.len() as u64);
        assert_eq!(snap.counter("walk.maximal_negatives"), r.maximal_negatives.len() as u64);
    }

    #[test]
    fn empty_positive_walk_still_flushes() {
        let metrics = muds_obs::Metrics::new();
        let _guard = metrics.install();
        let _ = run(4, vec![ColumnSet::empty()]);
        let snap = metrics.drain_snapshot();
        assert_eq!(snap.counter("walk.runs"), 1);
        assert_eq!(snap.counter("walk.minimal_positives"), 1);
    }

    #[test]
    fn randomized_equivalence_with_ground_truth() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(123);
        for case in 0..80 {
            let n = rng.gen_range(1..=8);
            let k = rng.gen_range(1..=4);
            // Random antichain via MinimalSetFamily.
            let mut fam = crate::set_trie::MinimalSetFamily::new();
            for _ in 0..k {
                let size = rng.gen_range(1..=n);
                fam.add(ColumnSet::from_indices((0..size).map(|_| rng.gen_range(0..n))));
            }
            let mut want = fam.sets().to_vec();
            want.sort();
            let r = run(n, want.clone());
            assert_eq!(r.minimal_positives, want, "case {case}");
            // Verify maximal negatives truly are negative and maximal.
            for neg in &r.maximal_negatives {
                assert!(!want.iter().any(|m| m.is_subset_of(neg)));
                for sup in neg.direct_supersets(&ColumnSet::full(n)) {
                    assert!(
                        want.iter().any(|m| m.is_subset_of(&sup)),
                        "case {case}: {neg:?} not maximal"
                    );
                }
            }
        }
    }
}
