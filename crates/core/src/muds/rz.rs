//! MUDS phase 2: graph traversal for right-hand sides in R \ Z (§5.2).
//!
//! Columns outside every minimal UCC (the set R \ Z) can still be
//! functionally determined — phase 1 never looks at them, so MUDS builds
//! one *sub-lattice* per such column A: the lattice of left-hand-side
//! candidates over R \ {A}. Each sub-lattice is traversed with the DUCC
//! random walk (shared engine in `muds-lattice`), since "X determines A"
//! is monotone exactly like uniqueness; Lemma 4 provides the downward
//! pruning the paper highlights.
//!
//! Inter-task knowledge flows one way here: every minimal lhs and maximal
//! non-lhs a walk finds is recorded in the shared [`FdKnowledge`], which
//! seeds the later shadowed-FD minimization and the completion sweep.

use muds_fd::FdSet;
use muds_lattice::{find_minimal_positives, ColumnSet, WalkConfig};
use muds_pli::PliCache;

use super::knowledge::FdKnowledge;

/// Discovers all minimal FDs whose right-hand side lies in `R \ Z`.
///
/// Results are exact: for every `a ∈ R \ Z`, all minimal left-hand sides
/// over `R \ {a}` (including the empty set for constant columns). The walk
/// of rhs `a` is seeded with `(seed ^ 0x5A5A) + a`.
pub fn discover_rz_fds(
    cache: &mut PliCache<'_>,
    z: &ColumnSet,
    seed: u64,
    knowledge: &mut FdKnowledge,
) -> FdSet {
    let r = ColumnSet::full(cache.table().num_columns());
    let rz = r.difference(z);
    let mut fds = FdSet::new();
    for a in rz.iter() {
        let mut oracle = |set: &ColumnSet| cache.determines(set, a);
        let walk_cfg = WalkConfig { seed: (seed ^ 0x5A5A).wrapping_add(a as u64) };
        let result = find_minimal_positives(r.without(a), &mut oracle, &walk_cfg, &[]);
        for lhs in result.minimal_positives {
            fds.insert(lhs, a);
            knowledge.record_positive(lhs, a);
        }
        for neg in result.maximal_negatives {
            knowledge.record_negative(neg, a);
        }
    }
    // The walks flush their own `walk.*` counters.
    muds_obs::add("rz.sub_lattices", rz.cardinality() as u64);
    fds
}

#[cfg(test)]
mod tests {
    use super::*;
    use muds_table::Table;

    fn cs(cols: &[usize]) -> ColumnSet {
        ColumnSet::from_indices(cols.iter().copied())
    }

    /// Ground truth for rhs ∈ R\Z via the naive oracle.
    fn expected_rz(t: &Table, z: &ColumnSet) -> Vec<(ColumnSet, usize)> {
        let all = muds_fd::naive_minimal_fds(t);
        all.to_sorted_vec()
            .into_iter()
            .filter(|fd| !z.contains(fd.rhs))
            .map(|fd| (fd.lhs, fd.rhs))
            .collect()
    }

    fn z_of(t: &Table) -> ColumnSet {
        muds_ucc::naive_minimal_uccs(t).iter().fold(ColumnSet::empty(), |acc, u| acc.union(u))
    }

    #[test]
    fn finds_fds_with_rhs_outside_z() {
        // id key; x outside any minimal UCC; g → x.
        let t = Table::from_rows(
            "t",
            &["id", "g", "x"],
            &[vec!["1", "a", "p"], vec!["2", "a", "p"], vec!["3", "b", "q"], vec!["4", "b", "q"]],
        )
        .unwrap();
        let z = z_of(&t); // {id}
        assert_eq!(z, cs(&[0]));
        let metrics = muds_obs::Metrics::new();
        let _guard = metrics.install();
        let mut cache = PliCache::new(&t);
        let fds = discover_rz_fds(&mut cache, &z, 0, &mut FdKnowledge::new(t.num_columns()));
        assert!(fds.contains(&cs(&[1]), 2), "g → x");
        assert_eq!(metrics.drain_snapshot().counter("rz.sub_lattices"), 2, "g and x");
        // Exactness vs naive.
        let got: Vec<(ColumnSet, usize)> =
            fds.to_sorted_vec().into_iter().map(|fd| (fd.lhs, fd.rhs)).collect();
        assert_eq!(got, expected_rz(&t, &z));
    }

    #[test]
    fn constant_column_gets_empty_lhs() {
        let t = Table::from_rows("t", &["id", "k"], &[vec!["1", "c"], vec!["2", "c"]]).unwrap();
        let z = z_of(&t);
        let mut cache = PliCache::new(&t);
        let fds = discover_rz_fds(&mut cache, &z, 0, &mut FdKnowledge::new(t.num_columns()));
        assert!(fds.contains(&ColumnSet::empty(), 1));
    }

    #[test]
    fn randomized_exactness() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(60);
        for case in 0..60 {
            let cols = rng.gen_range(2..=6);
            let rows = rng.gen_range(2..=20);
            let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
            let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let data: Vec<Vec<String>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.gen_range(0..3).to_string()).collect())
                .collect();
            let t = Table::from_rows("t", &name_refs, &data).unwrap().dedup_rows();
            let z = z_of(&t);
            let mut cache = PliCache::new(&t);
            let fds = discover_rz_fds(&mut cache, &z, 0, &mut FdKnowledge::new(t.num_columns()));
            let got: Vec<(ColumnSet, usize)> =
                fds.to_sorted_vec().into_iter().map(|fd| (fd.lhs, fd.rhs)).collect();
            assert_eq!(got, expected_rz(&t, &z), "case {case}");
        }
    }
}
