//! Level-wise candidate generation (apriori-gen) for bottom-up lattice
//! traversal, as used by TANE, FUN, and the level-wise UCC baseline.
//!
//! Given the sets of level `k` that survived pruning, the next level
//! contains every set of size `k+1` **all** of whose direct subsets are
//! present — the classic apriori-gen join + prune of Agrawal and Srikant,
//! applied to attribute sets.

use std::collections::HashSet;

use rayon::prelude::*;

use crate::{ColumnSet, ColumnSetState};

/// Generates level `k+1` candidates from the surviving level-`k` sets.
///
/// Two level-`k` sets are joined when they differ in exactly their largest
/// element (prefix join); the joined candidate is kept only if all of its
/// direct subsets appear in `level`. The input order does not matter; the
/// output is sorted and duplicate-free.
///
/// The subset-prune — the expensive part on wide levels, `k+1` hash probes
/// per joined candidate — runs as an order-preserving parallel filter over
/// the joined candidates (read-only sharing of the member set), so the
/// output is identical for any thread count.
pub fn apriori_gen(level: &[ColumnSet]) -> Vec<ColumnSet> {
    if level.is_empty() {
        return Vec::new();
    }
    let members: HashSet<ColumnSet, ColumnSetState> = level.iter().copied().collect();
    let mut sorted: Vec<ColumnSet> = level.to_vec();
    // Group by prefix (set minus largest element) by sorting on it.
    sorted.sort_by_key(|s| (s.max_col().map(|m| s.without(m)), s.max_col()));

    let mut joined = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        let prefix_i = sorted[i].max_col().map(|m| sorted[i].without(m));
        let mut j = i + 1;
        while j < sorted.len() {
            let prefix_j = sorted[j].max_col().map(|m| sorted[j].without(m));
            if prefix_i != prefix_j {
                break;
            }
            joined.push(sorted[i].union(&sorted[j]));
            j += 1;
        }
        i += 1;
    }
    let mut out: Vec<ColumnSet> = joined
        .par_iter()
        .filter(|candidate| candidate.direct_subsets().all(|s| members.contains(&s)))
        .copied()
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Generates the first level: one singleton per column of `universe`.
pub fn first_level(universe: &ColumnSet) -> Vec<ColumnSet> {
    universe.iter().map(ColumnSet::single).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cs(cols: &[usize]) -> ColumnSet {
        ColumnSet::from_indices(cols.iter().copied())
    }

    #[test]
    fn empty_level_generates_nothing() {
        assert!(apriori_gen(&[]).is_empty());
    }

    #[test]
    fn singletons_generate_all_pairs() {
        let level = first_level(&ColumnSet::full(4));
        let next = apriori_gen(&level);
        assert_eq!(next.len(), 6);
        assert!(next.contains(&cs(&[0, 1])));
        assert!(next.contains(&cs(&[2, 3])));
    }

    #[test]
    fn prune_requires_all_subsets() {
        // Pairs {0,1}, {0,2} present but {1,2} missing: no triple survives.
        let level = vec![cs(&[0, 1]), cs(&[0, 2])];
        assert!(apriori_gen(&level).is_empty());
        // With {1,2} added, {0,1,2} is generated.
        let level = vec![cs(&[0, 1]), cs(&[0, 2]), cs(&[1, 2])];
        assert_eq!(apriori_gen(&level), vec![cs(&[0, 1, 2])]);
    }

    #[test]
    fn join_only_on_shared_prefix() {
        // {0,1} and {2,3} share no prefix: nothing generated.
        let level = vec![cs(&[0, 1]), cs(&[2, 3])];
        assert!(apriori_gen(&level).is_empty());
    }

    #[test]
    fn full_lattice_levels_have_binomial_sizes() {
        let n = 6;
        let mut level = first_level(&ColumnSet::full(n));
        let mut k = 1;
        while !level.is_empty() {
            let expected = binomial(n, k);
            assert_eq!(level.len(), expected, "level {k}");
            level = apriori_gen(&level);
            k += 1;
        }
        assert_eq!(k, n + 1);
    }

    fn binomial(n: usize, k: usize) -> usize {
        if k > n {
            return 0;
        }
        (0..k).fold(1usize, |acc, i| acc * (n - i) / (i + 1))
    }

    #[test]
    fn output_sorted_and_deduped() {
        let level = vec![cs(&[1, 2]), cs(&[0, 2]), cs(&[0, 1])];
        let next = apriori_gen(&level);
        assert_eq!(next, vec![cs(&[0, 1, 2])]);
    }

    #[test]
    fn non_contiguous_columns() {
        let level = vec![cs(&[10, 70]), cs(&[10, 200]), cs(&[70, 200])];
        assert_eq!(apriori_gen(&level), vec![cs(&[10, 70, 200])]);
    }
}
