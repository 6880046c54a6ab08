//! SPIDER: unary IND discovery by synchronized merge of sorted value lists.
//!
//! Bauckmann et al.'s algorithm (§2.1 of the paper) runs in two phases:
//! a *sorting phase* producing a duplicate-free sorted value list per column
//! — which in this workspace falls out of dictionary encoding for free, the
//! I/O-sharing synergy §3 highlights — and a *comparison phase* that sweeps
//! all lists simultaneously in value order. At each step the group of
//! columns holding the current smallest value can only be included in one
//! another, so every group member's candidate set is intersected with the
//! group (Table 1 of the paper walks through an example).
//!
//! The implementation keeps SPIDER's early-discarding optimization: a column
//! whose candidates are exhausted and which no other column still references
//! is dropped from the merge.
//!
//! SPIDER's sorting phase happens at dictionary-encoding time (each
//! column's distinct values are sorted once, columns in parallel), so by
//! the time this module runs, only the inherently sequential synchronized
//! merge remains. NULL semantics are inherited from the dictionary too — NULLs
//! never appear in `sorted_distinct_values`, so they are skipped on the
//! dependent side; the inverted-index baseline reads the same lists, which
//! keeps the two IND algorithms agreeing on NULL-laden tables by
//! construction (pinned by `null_semantics_differential` in
//! `inverted.rs` and the `null_semantics` integration suite).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use muds_lattice::ColumnSet;
use muds_table::Table;

use crate::types::Ind;

/// Work counters for a SPIDER run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpiderStats {
    /// Distinct values pulled from the merged streams.
    pub values_processed: u64,
    /// Value groups formed (each triggers candidate intersections).
    pub groups_formed: u64,
    /// Columns discarded before their stream ended.
    pub columns_discarded: u64,
    /// Heap pops during the synchronized merge (one per column per shared
    /// value — the comparison phase's unit of work).
    pub merge_steps: u64,
    /// Per-column dictionary values read into the merge (initial loads plus
    /// cursor advances).
    pub values_read: u64,
}

impl SpiderStats {
    /// Publishes the counters into the ambient [`muds_obs::Metrics`]
    /// registry (no-op without one).
    fn flush(&self, inds_found: usize) {
        muds_obs::add("spider.values_processed", self.values_processed);
        muds_obs::add("spider.groups_formed", self.groups_formed);
        muds_obs::add("spider.columns_discarded", self.columns_discarded);
        muds_obs::add("spider.merge_steps", self.merge_steps);
        muds_obs::add("spider.values_read", self.values_read);
        muds_obs::add("spider.inds_found", inds_found as u64);
    }
}

/// Discovers all unary INDs between the columns of `table` using SPIDER.
///
/// NULL semantics: null (empty) values are skipped on the dependent side —
/// a column's dictionary contains only its non-null values — so an all-null
/// column is included in every other column.
pub fn spider(table: &Table) -> Vec<Ind> {
    spider_with_stats(table).0
}

/// [`spider`] with work counters.
pub fn spider_with_stats(table: &Table) -> (Vec<Ind>, SpiderStats) {
    let n = table.num_columns();
    let mut stats = SpiderStats::default();

    // refs[i]: columns that might still include column i (excluding i).
    let all = ColumnSet::full(n);
    let mut refs: Vec<ColumnSet> = (0..n).map(|i| all.without(i)).collect();
    // rev[j]: columns i that still consider j a candidate referencer.
    let mut rev: Vec<ColumnSet> = (0..n).map(|j| all.without(j)).collect();
    let mut active: Vec<bool> = vec![true; n];

    // Min-heap of (next value, column). Dictionaries are already sorted and
    // duplicate-free.
    let mut cursors: Vec<usize> = vec![0; n];
    let mut heap: BinaryHeap<Reverse<(&str, usize)>> = BinaryHeap::new();
    for (i, col) in table.columns().iter().enumerate() {
        if let Some(v) = col.sorted_distinct_values().first() {
            stats.values_read += 1;
            heap.push(Reverse((v.as_str(), i)));
        }
        // Columns with no non-null values never constrain anything; they
        // keep their full candidate set (vacuous inclusion).
    }

    let mut group_cols: Vec<usize> = Vec::new();
    while let Some(&Reverse((value, _))) = heap.peek() {
        // Collect the group of columns whose current value equals `value`.
        group_cols.clear();
        let current = value;
        while let Some(&Reverse((v, col))) = heap.peek() {
            if v != current {
                break;
            }
            heap.pop();
            stats.merge_steps += 1;
            group_cols.push(col);
        }
        stats.values_processed += 1;
        stats.groups_formed += 1;
        let group = ColumnSet::from_indices(group_cols.iter().copied());

        // Intersect candidates of every group member with the group.
        for &col in &group_cols {
            let before = refs[col];
            let after = before.intersection(&group).without(col);
            if after != before {
                for removed in before.difference(&after).iter() {
                    if removed != col {
                        rev[removed].remove(col);
                    }
                }
                refs[col] = after;
            }
        }

        // Advance and possibly discard group members.
        for &col in &group_cols {
            if !active[col] {
                continue;
            }
            // Early discard: col constrains nothing and nobody references it.
            if refs[col].is_empty() && rev[col].is_empty() {
                active[col] = false;
                stats.columns_discarded += 1;
                continue;
            }
            cursors[col] += 1;
            let dict = table.column(col).sorted_distinct_values();
            if let Some(v) = dict.get(cursors[col]) {
                stats.values_read += 1;
                heap.push(Reverse((v.as_str(), col)));
            } else {
                // Stream ended: col can no longer serve as a referencer for
                // columns that still have values — but that is enforced
                // naturally, since col stops appearing in groups.
            }
        }
    }

    let mut inds = Vec::new();
    for (i, r) in refs.iter().enumerate() {
        for j in r.iter() {
            inds.push(Ind::new(i, j));
        }
    }
    inds.sort();
    stats.flush(inds.len());
    (inds, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_inds;
    use muds_table::Table;

    #[test]
    fn paper_table1_example() {
        // Table 1 of the paper: A = {w,x,y,z} (from w,w,x,y,z rows),
        // B = {x,z}, C = {w,x,z}. Expected INDs: B ⊆ A, C ⊆ A, B ⊆ C.
        let t = Table::from_rows(
            "t1",
            &["A", "B", "C"],
            &[
                vec!["w", "z", "x"],
                vec!["w", "x", "x"],
                vec!["x", "z", "w"],
                vec!["y", "z", "z"],
                vec!["z", "z", "z"],
            ],
        )
        .unwrap();
        let inds = spider(&t);
        let want = vec![Ind::new(1, 0), Ind::new(1, 2), Ind::new(2, 0)];
        assert_eq!(inds, want);
    }

    #[test]
    fn identical_columns_include_each_other() {
        let t = Table::from_rows("t", &["A", "B"], &[vec!["1", "1"], vec!["2", "2"]]).unwrap();
        let inds = spider(&t);
        assert_eq!(inds, vec![Ind::new(0, 1), Ind::new(1, 0)]);
    }

    #[test]
    fn no_inclusions() {
        let t = Table::from_rows("t", &["A", "B"], &[vec!["1", "3"], vec!["2", "4"]]).unwrap();
        assert!(spider(&t).is_empty());
    }

    #[test]
    fn all_null_column_is_included_everywhere() {
        let t = Table::from_rows("t", &["A", "B", "C"], &[vec!["1", "", "9"], vec!["2", "", "8"]])
            .unwrap();
        let inds = spider(&t);
        assert!(inds.contains(&Ind::new(1, 0)));
        assert!(inds.contains(&Ind::new(1, 2)));
        // Nothing depends on the all-null column.
        assert!(!inds.iter().any(|i| i.referenced == 1));
    }

    #[test]
    fn nulls_skipped_on_dependent_side() {
        // B's non-null values {1} ⊆ A = {1,2}; A ⊄ B.
        let t = Table::from_rows("t", &["A", "B"], &[vec!["1", "1"], vec!["2", ""]]).unwrap();
        assert_eq!(spider(&t), vec![Ind::new(1, 0)]);
    }

    #[test]
    fn proper_subset_chain() {
        // C ⊆ B ⊆ A with distinct sizes.
        let t = Table::from_rows(
            "t",
            &["A", "B", "C"],
            &[vec!["1", "1", "1"], vec!["2", "2", "1"], vec!["3", "1", "1"]],
        )
        .unwrap();
        let inds = spider(&t);
        assert!(inds.contains(&Ind::new(2, 1)));
        assert!(inds.contains(&Ind::new(2, 0)));
        assert!(inds.contains(&Ind::new(1, 0)));
        assert!(!inds.contains(&Ind::new(0, 1)));
    }

    #[test]
    fn stats_count_distinct_values() {
        let t =
            Table::from_rows("t", &["A", "B"], &[vec!["a", "b"], vec!["b", "c"], vec!["c", "a"]])
                .unwrap();
        let (_, stats) = spider_with_stats(&t);
        // Values a, b, c shared; 3 groups.
        assert_eq!(stats.groups_formed, 3);
        // Both columns hold all three values: six heap pops, six reads.
        assert_eq!(stats.merge_steps, 6);
        assert_eq!(stats.values_read, 6);
    }

    #[test]
    fn stats_flush_into_ambient_registry() {
        let metrics = muds_obs::Metrics::new();
        let _guard = metrics.install();
        let t = Table::from_rows("t", &["A", "B"], &[vec!["1", "1"], vec!["2", "2"]]).unwrap();
        let (inds, stats) = spider_with_stats(&t);
        let snap = metrics.drain_snapshot();
        assert_eq!(snap.counter("spider.merge_steps"), stats.merge_steps);
        assert_eq!(snap.counter("spider.values_read"), stats.values_read);
        assert_eq!(snap.counter("spider.inds_found"), inds.len() as u64);
    }

    #[test]
    fn single_column_table_has_no_inds() {
        let t = Table::from_rows("t", &["A"], &[vec!["1"]]).unwrap();
        assert!(spider(&t).is_empty());
    }

    #[test]
    fn randomized_cross_check_with_naive() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(77);
        for case in 0..150 {
            let cols = rng.gen_range(1..=6);
            let rows = rng.gen_range(0..=25);
            let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
            let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let data: Vec<Vec<String>> = (0..rows)
                .map(|_| {
                    (0..cols)
                        .map(|_| {
                            let v = rng.gen_range(0..6);
                            if v == 0 {
                                String::new()
                            } else {
                                v.to_string()
                            }
                        })
                        .collect()
                })
                .collect();
            let t = Table::from_rows("t", &name_refs, &data).unwrap();
            assert_eq!(spider(&t), naive_inds(&t), "case {case}");
        }
    }
}
