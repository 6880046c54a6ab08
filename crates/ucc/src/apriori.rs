//! Level-wise bottom-up UCC discovery — the column-based baseline in the
//! style of Giannella/Wyss and HCA (§7 of the paper).
//!
//! Traverses the attribute lattice breadth-first with apriori-gen candidate
//! generation: unique candidates are reported as minimal UCCs and not
//! extended; non-unique candidates seed the next level. Because apriori-gen
//! only generates candidates whose direct subsets are all non-unique, every
//! unique candidate it produces is automatically minimal.

use muds_lattice::{apriori_gen, first_level, ColumnSet};
use muds_pli::PliCache;

/// Discovers all minimal UCCs level-wise. Returns them sorted.
///
/// Publishes `apriori_ucc.checks` (uniqueness checks, one PLI inspection
/// each) and the `apriori_ucc.max_level` gauge into the ambient registry.
pub fn apriori_uccs(cache: &mut PliCache<'_>) -> Vec<ColumnSet> {
    let mut checks = 0u64;
    let mut max_level = 0usize;
    let universe = ColumnSet::full(cache.table().num_columns());
    let mut minimal = Vec::new();

    // Degenerate case: a table with at most one row is "unique" on the
    // empty column combination.
    checks += 1;
    if cache.is_unique(&ColumnSet::empty()) {
        publish(checks, max_level);
        return vec![ColumnSet::empty()];
    }

    let mut level = first_level(&universe);
    let mut depth = 1;
    while !level.is_empty() {
        max_level = depth;
        let mut non_unique = Vec::with_capacity(level.len());
        // Every candidate's PLI is needed regardless of outcome, so the
        // level materializes as one parallel batch; verdicts are read in
        // candidate order, matching the per-candidate bookkeeping.
        let plis = cache.get_many(&level);
        for (candidate, pli) in level.iter().zip(&plis) {
            checks += 1;
            if pli.is_unique() {
                minimal.push(*candidate);
            } else {
                non_unique.push(*candidate);
            }
        }
        level = apriori_gen(&non_unique);
        depth += 1;
    }
    minimal.sort();
    publish(checks, max_level);
    minimal
}

fn publish(checks: u64, max_level: usize) {
    muds_obs::add("apriori_ucc.checks", checks);
    muds_obs::gauge_max("apriori_ucc.max_level", max_level as i64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_minimal_uccs;
    use muds_table::Table;

    #[test]
    fn agrees_with_naive_on_random_tables() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(31);
        for case in 0..120 {
            let cols = rng.gen_range(1..=6);
            let rows = rng.gen_range(1..=25);
            let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
            let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let data: Vec<Vec<String>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.gen_range(0..4).to_string()).collect())
                .collect();
            let t = Table::from_rows("t", &name_refs, &data).unwrap().dedup_rows();
            let mut cache = PliCache::new(&t);
            assert_eq!(apriori_uccs(&mut cache), naive_minimal_uccs(&t), "case {case}");
        }
    }

    #[test]
    fn no_uccs_with_duplicate_rows() {
        let t = Table::from_rows("t", &["a"], &[vec!["1"], vec!["1"]]).unwrap();
        let mut cache = PliCache::new(&t);
        assert!(apriori_uccs(&mut cache).is_empty());
    }

    #[test]
    fn single_row_yields_empty_set() {
        let t = Table::from_rows("t", &["a", "b"], &[vec!["1", "2"]]).unwrap();
        let mut cache = PliCache::new(&t);
        assert_eq!(apriori_uccs(&mut cache), vec![ColumnSet::empty()]);
    }

    #[test]
    fn stats_track_levels() {
        // Only the full 3-column set is unique.
        let t = Table::from_rows(
            "t",
            &["a", "b", "c"],
            &[
                vec!["1", "1", "1"],
                vec!["1", "1", "2"],
                vec!["1", "2", "1"],
                vec!["2", "1", "1"],
                vec!["1", "2", "2"],
                vec!["2", "1", "2"],
                vec!["2", "2", "1"],
                vec!["2", "2", "2"],
            ],
        )
        .unwrap();
        let metrics = muds_obs::Metrics::new();
        let _guard = metrics.install();
        let mut cache = PliCache::new(&t);
        assert_eq!(apriori_uccs(&mut cache), vec![ColumnSet::full(3)]);
        let snap = metrics.drain_snapshot();
        assert_eq!(snap.gauge("apriori_ucc.max_level"), 3);
        // ∅, then 3 singletons, 3 pairs and the full set.
        assert_eq!(snap.counter("apriori_ucc.checks"), 8);
    }
}
