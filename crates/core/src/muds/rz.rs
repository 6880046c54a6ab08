//! MUDS's FD walks: one sub-lattice walk per right-hand side (§5.2).
//!
//! For a rhs A, the lattice of left-hand-side candidates over R \ {A} is
//! traversed with the DUCC random walk (shared engine in `muds-lattice`),
//! since "X determines A" is monotone exactly like uniqueness; Lemma 4
//! provides the downward pruning the paper highlights. The walk's duality
//! certificate makes each rhs's minimal left-hand sides exact.
//!
//! The paper walks only the rhss in R \ Z, the columns outside every
//! minimal UCC, and leaves Z to §5.1 and §5.3. Exact MUDS walks every rhs,
//! each seeded with what DUCC already knows about it:
//!
//! * every minimal UCC `U ∌ A` determines A (Lemma 2);
//! * every maximal non-UCC `M ∌ A` does not: `M ∪ {A}` is unique and `M`
//!   is not, so two rows agree on `M` and differ on A.

use muds_lattice::{find_minimal_positives, ColumnSet, WalkResult};
use muds_pli::PliCache;

/// Runs one walk per rhs `a` in `rhss`, in ascending order, over the
/// lattice of subsets of `R \ {a}`.
///
/// `positives` and `negatives` seed every walk with the sets known to
/// determine, or known not to determine, its rhs; each walk keeps those
/// that leave its rhs out. The walk of rhs `a` is seeded with
/// `(seed ^ 0x5A5A) + a`.
pub fn walk_rhss(
    cache: &mut PliCache<'_>,
    rhss: &ColumnSet,
    seed: u64,
    positives: &[ColumnSet],
    negatives: &[ColumnSet],
) -> Vec<(usize, WalkResult)> {
    let r = ColumnSet::full(cache.table().num_columns());
    let without = |sets: &[ColumnSet], a: usize| -> Vec<ColumnSet> {
        sets.iter().copied().filter(|s| !s.contains(a)).collect()
    };
    rhss.iter()
        .map(|a| {
            let mut oracle = |set: &ColumnSet| cache.determines(set, a);
            let walk_seed = (seed ^ 0x5A5A).wrapping_add(a as u64);
            let known_negatives = without(negatives, a);
            let known_positives = without(positives, a);
            let result = find_minimal_positives(
                r.without(a),
                &mut oracle,
                walk_seed,
                &known_negatives,
                &known_positives,
            );
            (a, result)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use muds_fd::Fd;
    use muds_table::Table;

    fn cs(cols: &[usize]) -> ColumnSet {
        ColumnSet::from_indices(cols.iter().copied())
    }

    /// The walks' minimal FDs, sorted.
    fn fds_of(walks: Vec<(usize, WalkResult)>) -> Vec<Fd> {
        let mut fds: Vec<Fd> = walks
            .into_iter()
            .flat_map(|(a, w)| w.minimal_positives.into_iter().map(move |lhs| Fd::new(lhs, a)))
            .collect();
        fds.sort();
        fds
    }

    /// Ground truth for the rhss in `rhss` via the naive oracle, sorted.
    fn expected(t: &Table, rhss: &ColumnSet) -> Vec<Fd> {
        let all = muds_fd::naive_minimal_fds(t).to_sorted_vec();
        all.into_iter().filter(|fd| rhss.contains(fd.rhs)).collect()
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
        let rz = cs(&[1, 2]);
        let mut cache = PliCache::new(&t);
        let fds = fds_of(walk_rhss(&mut cache, &rz, 0, &[], &[]));
        assert!(fds.contains(&Fd::new(cs(&[1]), 2)), "g → x");
        assert_eq!(fds, expected(&t, &rz));
    }

    #[test]
    fn constant_column_gets_empty_lhs() {
        let t = Table::from_rows("t", &["id", "k"], &[vec!["1", "c"], vec!["2", "c"]]).unwrap();
        let mut cache = PliCache::new(&t);
        let fds = fds_of(walk_rhss(&mut cache, &cs(&[1]), 0, &[], &[]));
        assert_eq!(fds, [Fd::new(ColumnSet::empty(), 1)]);
    }

    /// Seeded with DUCC's output or not, every rhs's walk is exact; the
    /// seeds only save oracle calls.
    #[test]
    fn randomized_exactness_with_and_without_ducc_seeds() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(60);
        let oracle_calls = |run: &mut dyn FnMut() -> Vec<(usize, WalkResult)>| {
            let metrics = muds_obs::Metrics::new();
            let guard = metrics.install();
            let walks = run();
            drop(guard);
            (fds_of(walks), metrics.drain_snapshot().counter("walk.oracle_calls"))
        };
        let (mut seeded_calls, mut bare_calls) = (0, 0);
        for case in 0..60 {
            let cols = rng.gen_range(2..=6);
            let rows = rng.gen_range(2..=20);
            let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
            let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let data: Vec<Vec<String>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.gen_range(0..3).to_string()).collect())
                .collect();
            let t = Table::from_rows("t", &name_refs, &data).unwrap().dedup_rows();
            let r = ColumnSet::full(cols);
            let mut cache = PliCache::new(&t);
            let d = muds_ucc::ducc(&mut cache, 1);
            let (seeded, calls) = oracle_calls(&mut || {
                walk_rhss(&mut cache, &r, 0, &d.minimal_uccs, &d.maximal_non_uccs)
            });
            assert_eq!(seeded, expected(&t, &r), "case {case}, seeded");
            seeded_calls += calls;
            let (bare, calls) = oracle_calls(&mut || walk_rhss(&mut cache, &r, 0, &[], &[]));
            assert_eq!(bare, expected(&t, &r), "case {case}, bare");
            bare_calls += calls;
        }
        assert!(seeded_calls < bare_calls, "seeded {seeded_calls} vs bare {bare_calls}");
    }
}
