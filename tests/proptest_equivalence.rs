//! Property-based cross-crate tests: on arbitrary small tables, every
//! discovery algorithm matches the exponential ground-truth oracles, and
//! the paper's structural lemmas hold.

use muds_core::{muds, MudsConfig};
use muds_fd::{fun, naive_minimal_fds, tane};
use muds_ind::{inverted_index_inds, naive_inds, spider};
use muds_lattice::ColumnSet;
use muds_pli::PliCache;
use muds_table::Table;
use muds_ucc::{apriori_uccs, ducc, naive_minimal_uccs};
use proptest::prelude::*;

/// Strategy: a random table with 1–6 columns, 1–35 rows, values from a
/// small alphabet (with occasional NULLs), duplicates removed.
fn arb_table() -> impl Strategy<Value = Table> {
    (1usize..=6, 1usize..=35, 2u32..=4).prop_flat_map(|(cols, rows, card)| {
        proptest::collection::vec(proptest::collection::vec(0u32..=card, cols), rows..=rows)
            .prop_map(move |data| {
                let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
                let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
                let rows: Vec<Vec<String>> = data
                    .iter()
                    .map(|r| {
                        r.iter()
                            .map(|&v| if v == 0 { String::new() } else { v.to_string() })
                            .collect()
                    })
                    .collect();
                Table::from_rows("prop", &name_refs, &rows).expect("valid").dedup_rows()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn muds_matches_ground_truth(table in arb_table()) {
        let report = muds(&table, &MudsConfig::default());
        prop_assert_eq!(report.fds.to_sorted_vec(), naive_minimal_fds(&table).to_sorted_vec());
        prop_assert_eq!(report.minimal_uccs, naive_minimal_uccs(&table));
        prop_assert_eq!(report.inds, naive_inds(&table));
    }

    #[test]
    fn fd_algorithms_agree(table in arb_table()) {
        let mut c1 = PliCache::new(&table);
        let mut c2 = PliCache::new(&table);
        let t = tane(&mut c1);
        let f = fun(&mut c2);
        let truth = naive_minimal_fds(&table);
        prop_assert_eq!(t.fds.to_sorted_vec(), truth.to_sorted_vec());
        prop_assert_eq!(f.fds.to_sorted_vec(), truth.to_sorted_vec());
    }

    #[test]
    fn ucc_algorithms_agree(table in arb_table()) {
        let truth = naive_minimal_uccs(&table);
        let mut c1 = PliCache::new(&table);
        prop_assert_eq!(ducc(&mut c1, 0xD0CC).minimal_uccs, truth.clone());
        let mut c2 = PliCache::new(&table);
        prop_assert_eq!(apriori_uccs(&mut c2), truth);
    }

    #[test]
    fn ind_algorithms_agree(table in arb_table()) {
        let truth = naive_inds(&table);
        prop_assert_eq!(spider(&table), truth.clone());
        prop_assert_eq!(inverted_index_inds(&table), truth);
    }

    /// Lemma 2: every minimal UCC functionally determines all other columns.
    #[test]
    fn lemma2_uccs_determine_everything(table in arb_table()) {
        let uccs = naive_minimal_uccs(&table);
        let n = table.num_columns();
        for u in &uccs {
            for a in ColumnSet::full(n).difference(u).iter() {
                prop_assert!(
                    muds_fd::holds(&table, u, a),
                    "UCC {:?} does not determine column {}", u, a
                );
            }
        }
    }

    /// Lemma 3: minimal UCCs are free sets — every proper subset has a
    /// strictly smaller distinct count.
    #[test]
    fn lemma3_minimal_uccs_are_free_sets(table in arb_table()) {
        let uccs = naive_minimal_uccs(&table);
        let mut cache = PliCache::new(&table);
        for u in &uccs {
            let card = cache.distinct_count(u);
            for sub in u.direct_subsets() {
                prop_assert!(
                    cache.distinct_count(&sub) < card,
                    "subset {:?} of minimal UCC {:?} has the same distinct count", sub, u
                );
            }
        }
    }

    /// Minimality of discovered FDs: removing any lhs column breaks them.
    #[test]
    fn discovered_fds_are_minimal_and_valid(table in arb_table()) {
        let report = muds(&table, &MudsConfig::default());
        for fd in report.fds.to_sorted_vec() {
            prop_assert!(muds_fd::holds(&table, &fd.lhs, fd.rhs), "invalid {}", fd);
            for sub in fd.lhs.direct_subsets() {
                prop_assert!(
                    !muds_fd::holds(&table, &sub, fd.rhs),
                    "{} is not minimal: {:?} suffices", fd, sub
                );
            }
        }
    }

    /// The §3 pruning rules: no FD lies entirely inside one minimal UCC,
    /// and no FD has its lhs in R\Z with rhs in Z.
    #[test]
    fn section4_pruning_rules_hold(table in arb_table()) {
        let uccs = naive_minimal_uccs(&table);
        // Rule preconditions only apply to duplicate-free tables with UCCs.
        prop_assume!(!uccs.is_empty());
        let z = uccs.iter().fold(ColumnSet::empty(), |acc, u| acc.union(u));
        let fds = naive_minimal_fds(&table);
        for fd in fds.to_sorted_vec() {
            let whole = fd.lhs.with(fd.rhs);
            prop_assert!(
                !uccs.iter().any(|u| whole.is_subset_of(u)),
                "rule 1 violated: {} inside a minimal UCC", fd
            );
            if z.contains(fd.rhs) && !fd.lhs.is_empty() {
                prop_assert!(
                    fd.lhs.intersects(&z),
                    "rule 2 violated: {} has lhs fully outside Z", fd
                );
            }
        }
    }
}
