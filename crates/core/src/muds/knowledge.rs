//! Shared FD knowledge across the paper-faithful MUDS phases — the paper's
//! holistic thesis ("facilitate new pruning rules using all collected
//! information at once", §1) applied to the FD sub-problem itself.
//!
//! §5.1, the R\Z walks (§5.2) and §5.3 all *feed* this store, and §5.1
//! and §5.3 *consult* it before every partition-refinement check:
//!
//! * positives: per-rhs set-tries of known valid left-hand sides; by
//!   augmentation, `Y → a` with `Y ⊆ X` answers `X → a` = true without a
//!   partition-refinement check;
//! * negatives: per-rhs maximal sets known not to determine the rhs
//!   (Lemma 4 downward knowledge); `X ⊆ N` answers `X → a` = false.
//!
//! §5.3's minimization seeds its walks with both sides. Exact MUDS does not
//! use the store: its walks are seeded with DUCC's output directly.

use std::collections::HashMap;

use muds_fd::FdSet;
use muds_lattice::{ColumnSet, MaximalSetFamily, MinimalSetFamily};
use muds_pli::PliCache;

/// Accumulated three-valued FD knowledge for one table.
///
/// Positives are kept as per-rhs *antichains* of minimal recorded
/// left-hand sides ([`MinimalSetFamily`]): a dominated positive can never
/// change a subset query's answer, and phases like the R\Z walks record
/// tens of thousands of (mostly dominated) positives on wide tables —
/// storing them all would both bloat the trie and degrade the dense-query
/// subset searches the look-up path performs.
pub struct FdKnowledge {
    positives: HashMap<usize, MinimalSetFamily>,
    negatives: HashMap<usize, MaximalSetFamily>,
    universe: ColumnSet,
    /// Actual partition-refinement checks performed through this store.
    pub checks: u64,
}

impl FdKnowledge {
    /// An empty store for a table with `num_columns` columns.
    pub fn new(num_columns: usize) -> Self {
        FdKnowledge {
            positives: HashMap::new(),
            negatives: HashMap::new(),
            universe: ColumnSet::full(num_columns),
            checks: 0,
        }
    }

    /// Records a valid FD `lhs → rhs`.
    pub fn record_positive(&mut self, lhs: ColumnSet, rhs: usize) {
        self.positives.entry(rhs).or_default().add(lhs);
    }

    /// Records all FDs of `fds` as positives.
    pub fn absorb(&mut self, fds: &FdSet) {
        for (lhs, rhs) in fds.iter_entries() {
            for a in rhs.iter() {
                self.record_positive(*lhs, a);
            }
        }
    }

    /// Records that `lhs` does **not** determine `rhs`.
    pub fn record_negative(&mut self, lhs: ColumnSet, rhs: usize) {
        let universe = self.universe;
        self.negatives
            .entry(rhs)
            .or_insert_with(|| MaximalSetFamily::with_universe(universe))
            .add(lhs);
    }

    /// `Some(answer)` when knowledge already decides `lhs → rhs`.
    pub fn lookup(&self, lhs: &ColumnSet, rhs: usize) -> Option<bool> {
        if self.positives.get(&rhs).is_some_and(|f| f.dominates(lhs)) {
            return Some(true);
        }
        if self.negatives.get(&rhs).is_some_and(|f| f.dominates(lhs)) {
            return Some(false);
        }
        None
    }

    /// Decides `lhs → rhs`, consulting knowledge first and recording the
    /// outcome of any real check. Trivial FDs (`rhs ∈ lhs`) are true.
    pub fn determines(&mut self, cache: &mut PliCache<'_>, lhs: &ColumnSet, rhs: usize) -> bool {
        if lhs.contains(rhs) {
            return true;
        }
        if let Some(v) = self.lookup(lhs, rhs) {
            return v;
        }
        self.checks += 1;
        let v = cache.determines(lhs, rhs);
        if v {
            self.record_positive(*lhs, rhs);
        } else {
            self.record_negative(*lhs, rhs);
        }
        v
    }

    /// Known maximal non-determining sets for `rhs` (walk seeds).
    pub fn negative_sets(&self, rhs: usize) -> &[ColumnSet] {
        self.negatives.get(&rhs).map_or(&[], |f| f.sets())
    }

    /// Known valid left-hand sides for `rhs` (walk seeds): the antichain
    /// of subset-minimal recorded positives, which covers every recorded
    /// one for seeding purposes (a dominated positive walks down to the
    /// same minimal core as the antichain member inside it).
    pub fn positive_sets(&self, rhs: usize) -> Vec<ColumnSet> {
        self.positives.get(&rhs).map_or_else(Vec::new, |f| f.sets().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muds_table::Table;

    fn cs(cols: &[usize]) -> ColumnSet {
        ColumnSet::from_indices(cols.iter().copied())
    }

    #[test]
    fn knowledge_short_circuits_supersets_and_subsets() {
        let t = Table::from_rows(
            "t",
            &["a", "b", "c"],
            &[vec!["1", "1", "x"], vec!["2", "2", "y"], vec!["3", "3", "x"]],
        )
        .unwrap();
        let mut cache = PliCache::new(&t);
        let mut k = FdKnowledge::new(3);
        // a → b is valid; the first call checks, the superset call doesn't.
        assert!(k.determines(&mut cache, &cs(&[0]), 1));
        assert_eq!(k.checks, 1);
        assert!(k.determines(&mut cache, &cs(&[0, 2]), 1));
        assert_eq!(k.checks, 1);
        // c → a is invalid; the subset query of a recorded negative is free.
        assert!(!k.determines(&mut cache, &cs(&[2]), 0));
        assert_eq!(k.checks, 2);
        assert!(!k.determines(&mut cache, &ColumnSet::empty(), 0));
        assert_eq!(k.checks, 2);
    }

    #[test]
    fn trivial_fds_never_touch_the_cache() {
        let t = Table::from_rows("t", &["a"], &[vec!["1"]]).unwrap();
        let mut cache = PliCache::new(&t);
        let mut k = FdKnowledge::new(1);
        assert!(k.determines(&mut cache, &cs(&[0]), 0));
        assert_eq!(k.checks, 0);
    }

    #[test]
    fn absorb_seeds_positives() {
        let mut fds = FdSet::new();
        fds.insert(cs(&[0]), 1);
        let mut k = FdKnowledge::new(3);
        k.absorb(&fds);
        assert_eq!(k.lookup(&cs(&[0, 2]), 1), Some(true));
        assert_eq!(k.lookup(&cs(&[2]), 1), None);
    }

    #[test]
    fn seed_accessors_round_trip() {
        let mut k = FdKnowledge::new(4);
        k.record_positive(cs(&[0, 1]), 2);
        k.record_negative(cs(&[3]), 2);
        assert_eq!(k.positive_sets(2), vec![cs(&[0, 1])]);
        assert_eq!(k.negative_sets(2), &[cs(&[3])]);
        assert!(k.positive_sets(0).is_empty());
    }
}
