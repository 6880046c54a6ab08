//! Functional dependency representation.
//!
//! FDs are stored in the shape the paper's algorithms use: an ordered map
//! from a left-hand side [`ColumnSet`] to the set of right-hand side
//! columns it (minimally) determines. MUDS' shadowed-FD phase performs
//! look-ups of the form `FDs[connector]` (Algorithm 2, line 5), which this
//! representation serves in O(log n). The map is ordered, so every
//! iteration is in ascending left-hand side order and no consumer sees a
//! hash order.

use std::collections::BTreeMap;
use std::fmt;

use muds_lattice::{ColumnSet, SetTrie};

/// A single functional dependency `lhs → rhs` with one right-hand-side
/// column (the canonical form: `X → YZ` is the two FDs `X → Y`, `X → Z`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fd {
    /// Determinant column set. May be empty (constant right-hand side).
    pub lhs: ColumnSet,
    /// Determined column.
    pub rhs: usize,
}

impl Fd {
    pub fn new(lhs: ColumnSet, rhs: usize) -> Self {
        Fd { lhs, rhs }
    }
}

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} → {}", self.lhs.letters(), ColumnSet::single(self.rhs).letters())
    }
}

/// A collection of FDs keyed by left-hand side. No entry has an empty
/// right-hand side set, so the derived equality is set equality.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FdSet {
    by_lhs: BTreeMap<ColumnSet, ColumnSet>,
    count: usize,
}

impl FdSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `lhs → rhs`. Returns true if it was new.
    pub fn insert(&mut self, lhs: ColumnSet, rhs: usize) -> bool {
        let entry = self.by_lhs.entry(lhs).or_insert_with(ColumnSet::empty);
        if entry.contains(rhs) {
            false
        } else {
            entry.insert(rhs);
            self.count += 1;
            true
        }
    }

    /// Inserts `lhs → A` for every `A ∈ rhs`.
    pub fn insert_all(&mut self, lhs: ColumnSet, rhs: &ColumnSet) {
        for a in rhs.iter() {
            self.insert(lhs, a);
        }
    }

    /// The right-hand sides recorded for exactly this `lhs` (the
    /// `FDs[connector]` look-up of Algorithm 2).
    pub fn rhs_of(&self, lhs: &ColumnSet) -> ColumnSet {
        self.by_lhs.get(lhs).copied().unwrap_or_else(ColumnSet::empty)
    }

    /// Membership test for an exact `(lhs, rhs)` pair.
    pub fn contains(&self, lhs: &ColumnSet, rhs: usize) -> bool {
        self.by_lhs.get(lhs).is_some_and(|r| r.contains(rhs))
    }

    /// Number of `(lhs, rhs)` pairs.
    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates `(lhs, rhs-set)` entries by ascending left-hand side.
    pub fn iter_entries(&self) -> impl Iterator<Item = (&ColumnSet, &ColumnSet)> {
        self.by_lhs.iter()
    }

    /// Flattens into sorted canonical `Fd`s.
    pub fn to_sorted_vec(&self) -> Vec<Fd> {
        self.iter_entries()
            .flat_map(|(lhs, rhs)| rhs.iter().map(move |a| Fd::new(*lhs, a)))
            .collect()
    }

    /// Returns the subset of FDs whose left-hand sides are minimal per
    /// right-hand side: drops `X → A` whenever some recorded `Y → A` has
    /// `Y ⊂ X`. Pure set algebra (no data access); used as the final
    /// minimality guard of the holistic algorithms.
    pub fn minimize(&self) -> FdSet {
        // Group left-hand sides per rhs, each group ascending.
        let mut per_rhs: BTreeMap<usize, Vec<ColumnSet>> = BTreeMap::new();
        for (lhs, rhs) in self.iter_entries() {
            for a in rhs.iter() {
                per_rhs.entry(a).or_default().push(*lhs);
            }
        }
        let mut out = FdSet::new();
        for (a, mut lhss) in per_rhs {
            // Insert in ascending cardinality; a trie catches dominated sets.
            // The sort is stable, so ties keep the ascending set order.
            lhss.sort_by_key(|l| l.cardinality());
            let mut trie = SetTrie::new();
            for lhs in lhss {
                if !trie.contains_subset_of(&lhs) {
                    trie.insert(lhs);
                    out.insert(lhs, a);
                }
            }
        }
        out
    }

    /// Renders all FDs with column letters, sorted — for test diffs and
    /// example output.
    pub fn display_sorted(&self) -> Vec<String> {
        self.to_sorted_vec().iter().map(|fd| fd.to_string()).collect()
    }
}

impl FromIterator<Fd> for FdSet {
    fn from_iter<I: IntoIterator<Item = Fd>>(iter: I) -> Self {
        let mut s = FdSet::new();
        for fd in iter {
            s.insert(fd.lhs, fd.rhs);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cs(cols: &[usize]) -> ColumnSet {
        ColumnSet::from_indices(cols.iter().copied())
    }

    #[test]
    fn insert_and_lookup() {
        let mut s = FdSet::new();
        assert!(s.insert(cs(&[0, 1]), 2));
        assert!(!s.insert(cs(&[0, 1]), 2));
        assert!(s.insert(cs(&[0, 1]), 3));
        assert_eq!(s.len(), 2);
        assert_eq!(s.rhs_of(&cs(&[0, 1])), cs(&[2, 3]));
        assert!(s.contains(&cs(&[0, 1]), 2));
        assert!(!s.contains(&cs(&[0]), 2));
        assert_eq!(s.rhs_of(&cs(&[9])), ColumnSet::empty());
    }

    #[test]
    fn sorted_vec_is_canonical() {
        let mut s = FdSet::new();
        s.insert(cs(&[1]), 0);
        s.insert(cs(&[0]), 1);
        let v = s.to_sorted_vec();
        assert_eq!(v.len(), 2);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn entries_iterate_in_ascending_lhs_order() {
        // 96 FDs over 80 distinct left-hand sides, inserted in a scrambled
        // order (41 is coprime to 96).
        let mut s = FdSet::new();
        for i in 0..96 {
            let k = (i * 41) % 96;
            let lhs = ColumnSet::from_indices((0..7).filter(|b| (k % 80 + 1) >> b & 1 == 1));
            s.insert(lhs, 7 + k / 80);
        }
        assert_eq!(s.len(), 96);
        let lhss: Vec<ColumnSet> = s.iter_entries().map(|(lhs, _)| *lhs).collect();
        assert_eq!(lhss.len(), 80);
        assert!(lhss.windows(2).all(|w| w[0] < w[1]), "entries out of order: {lhss:?}");
        let flattened: Vec<Fd> =
            s.iter_entries().flat_map(|(l, r)| r.iter().map(move |a| Fd::new(*l, a))).collect();
        assert_eq!(s.to_sorted_vec(), flattened);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let mut a = FdSet::new();
        a.insert(cs(&[0]), 1);
        a.insert(cs(&[2]), 3);
        let mut b = FdSet::new();
        b.insert(cs(&[2]), 3);
        b.insert(cs(&[0]), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn minimize_drops_dominated_lhs() {
        let mut s = FdSet::new();
        s.insert(cs(&[0]), 2);
        s.insert(cs(&[0, 1]), 2); // dominated by {0} → 2
        s.insert(cs(&[0, 1]), 3); // kept: different rhs
        let m = s.minimize();
        assert_eq!(m.len(), 2);
        assert!(m.contains(&cs(&[0]), 2));
        assert!(m.contains(&cs(&[0, 1]), 3));
        assert!(!m.contains(&cs(&[0, 1]), 2));
    }

    #[test]
    fn minimize_keeps_empty_lhs_and_drops_everything_else() {
        let mut s = FdSet::new();
        s.insert(ColumnSet::empty(), 1);
        s.insert(cs(&[0]), 1);
        let m = s.minimize();
        assert_eq!(m.len(), 1);
        assert!(m.contains(&ColumnSet::empty(), 1));
    }

    #[test]
    fn insert_all_expands_rhs() {
        let mut s = FdSet::new();
        s.insert_all(cs(&[0]), &cs(&[1, 2, 3]));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn display_renders_letters() {
        let fd = Fd::new(cs(&[0, 2]), 1);
        assert_eq!(fd.to_string(), "AC → B");
    }
}
