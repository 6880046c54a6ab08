//! DUCC: unique column combination discovery by random walk (§2.2).
//!
//! Heise et al.'s algorithm traverses the attribute lattice with a
//! depth-first random walk: from a non-unique node it moves to a random
//! direct superset, from a unique node to a random direct subset, pruning
//! with both the discovered minimal UCCs (supersets cannot be minimal) and
//! the maximal non-UCCs (subsets cannot be unique). Holes left by the
//! two-sided pruning are found via the hitting-set duality.
//!
//! The traversal itself lives in `muds_lattice::find_minimal_positives`
//! (MUDS reuses it verbatim for FD discovery, §5.2); this module plugs in
//! the uniqueness oracle backed by the shared PLI cache.

use muds_lattice::{find_minimal_positives, ColumnSet};
use muds_pli::PliCache;

/// Result of a DUCC run.
#[derive(Debug, Clone)]
pub struct DuccResult {
    /// All minimal unique column combinations, sorted.
    pub minimal_uccs: Vec<ColumnSet>,
    /// All maximal non-unique column combinations, sorted. (Byproduct of
    /// the walk; DUCC uses them for hole detection.)
    pub maximal_non_uccs: Vec<ColumnSet>,
}

/// Runs DUCC over the table behind `cache`, discovering all minimal UCCs.
///
/// A table with duplicate rows has no UCC at all (§3); the result is then
/// empty with the full column set as the single maximal non-UCC. The
/// random walk is fully deterministic given `seed`.
pub fn ducc(cache: &mut PliCache<'_>, seed: u64) -> DuccResult {
    let universe = ColumnSet::full(cache.table().num_columns());
    let mut oracle = |set: &ColumnSet| cache.is_unique(set);
    let result = find_minimal_positives(universe, &mut oracle, seed, &[], &[]);
    DuccResult {
        minimal_uccs: result.minimal_positives,
        maximal_non_uccs: result.maximal_negatives,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_minimal_uccs;
    use muds_table::Table;

    const SEED: u64 = 0xD0CC;

    fn cs(cols: &[usize]) -> ColumnSet {
        ColumnSet::from_indices(cols.iter().copied())
    }

    #[test]
    fn single_key_column() {
        let t = Table::from_rows("t", &["id", "x"], &[vec!["1", "a"], vec!["2", "a"]]).unwrap();
        let mut cache = PliCache::new(&t);
        let r = ducc(&mut cache, SEED);
        assert_eq!(r.minimal_uccs, vec![cs(&[0])]);
        assert_eq!(r.maximal_non_uccs, vec![cs(&[1])]);
    }

    #[test]
    fn composite_key_only() {
        let t =
            Table::from_rows("t", &["a", "b"], &[vec!["1", "x"], vec!["1", "y"], vec!["2", "x"]])
                .unwrap();
        let mut cache = PliCache::new(&t);
        let r = ducc(&mut cache, SEED);
        assert_eq!(r.minimal_uccs, vec![cs(&[0, 1])]);
    }

    #[test]
    fn duplicate_rows_mean_no_uccs() {
        let t = Table::from_rows("t", &["a", "b"], &[vec!["1", "x"], vec!["1", "x"]]).unwrap();
        let mut cache = PliCache::new(&t);
        let r = ducc(&mut cache, SEED);
        assert!(r.minimal_uccs.is_empty());
        assert_eq!(r.maximal_non_uccs, vec![cs(&[0, 1])]);
    }

    #[test]
    fn single_row_table_has_empty_ucc() {
        let t = Table::from_rows("t", &["a", "b"], &[vec!["1", "x"]]).unwrap();
        let mut cache = PliCache::new(&t);
        let r = ducc(&mut cache, SEED);
        assert_eq!(r.minimal_uccs, vec![ColumnSet::empty()]);
    }

    #[test]
    fn overlapping_minimal_uccs() {
        // Rows built so that {a,b} and {b,c} are the minimal UCCs.
        let t = Table::from_rows(
            "t",
            &["a", "b", "c"],
            &[vec!["1", "1", "1"], vec!["1", "2", "1"], vec!["2", "1", "1"], vec!["2", "2", "2"]],
        )
        .unwrap();
        let mut cache = PliCache::new(&t);
        let r = ducc(&mut cache, SEED);
        assert_eq!(r.minimal_uccs, naive_minimal_uccs(&t));
    }

    #[test]
    fn randomized_cross_check_with_naive() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(2024);
        for case in 0..120 {
            let cols = rng.gen_range(1..=6);
            let rows = rng.gen_range(1..=30);
            let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
            let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let data: Vec<Vec<String>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.gen_range(0..4).to_string()).collect())
                .collect();
            let t = Table::from_rows("t", &name_refs, &data).unwrap().dedup_rows();
            let mut cache = PliCache::new(&t);
            let r = ducc(&mut cache, SEED);
            assert_eq!(r.minimal_uccs, naive_minimal_uccs(&t), "case {case}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let t = Table::from_rows(
            "t",
            &["a", "b", "c", "d"],
            &[
                vec!["1", "1", "1", "1"],
                vec!["1", "2", "2", "1"],
                vec!["2", "1", "2", "2"],
                vec!["2", "2", "1", "3"],
            ],
        )
        .unwrap();
        let run = || {
            let metrics = muds_obs::Metrics::new();
            let _guard = metrics.install();
            let mut cache = PliCache::new(&t);
            (ducc(&mut cache, 5).minimal_uccs, metrics.drain_snapshot().counters)
        };
        let (u1, c1) = run();
        let (u2, c2) = run();
        assert_eq!(u1, u2);
        assert_eq!(c1, c2, "walk and PLI counters are seed-determined");
        assert_eq!(c1["walk.runs"], 1);
    }
}
