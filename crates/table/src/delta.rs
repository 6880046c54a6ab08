//! Delta maintenance: appending and deleting rows of a [`Table`] without
//! re-encoding the whole relation.
//!
//! Profiling results go stale the moment the underlying table mutates, but
//! most mutations touch a tiny fraction of the data. [`Table::apply_delta`]
//! updates the dictionary encoding in place — merging new values into the
//! sorted dictionaries and remapping codes, or dropping orphaned entries
//! after a deletion (a [`Table::select_rows`] of the survivors) — so the
//! resulting [`Table`] is *bit-identical* to one built from scratch on the
//! final data ([`crate::fingerprint`]s match, which is what lets a serving
//! layer patch its content-addressed registry instead of re-registering).
//!
//! Alongside the new table, application reports the set of **affected
//! columns**: the columns whose duplicate structure could have changed.
//! After an append it is the input to incremental dependency revalidation
//! (see `muds-core`): a UCC or FD left-hand side can only *break*, and only
//! if it is fully contained in the affected set; columns outside the set
//! carry their verdicts over unchanged. After a deletion dependencies can
//! only *appear*, again only inside the affected set: `muds-core` checks
//! just the old result's maximal non-dependencies that lie inside it.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use rayon::prelude::*;

use crate::column::Column;
use crate::error::TableError;
use crate::table::Table;

/// A batch mutation of a table: either rows to append or row ids to delete.
///
/// Append rows use the same conventions as [`Table::from_rows`]: one
/// `Vec<String>` per row in schema order, empty strings are NULL. Appended
/// rows that duplicate an existing row (or an earlier appended row,
/// comparing NULLs equal) are dropped, preserving the duplicate-free
/// invariant the profiling algorithms require (§3 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableDelta {
    /// Append the given rows (schema order, empty string = NULL).
    Append { rows: Vec<Vec<String>> },
    /// Delete the rows with the given zero-based ids (duplicates ignored).
    Delete { rows: Vec<usize> },
}

impl TableDelta {
    /// True iff applying the delta can never change the table (no rows).
    pub fn is_empty(&self) -> bool {
        match self {
            TableDelta::Append { rows } => rows.is_empty(),
            TableDelta::Delete { rows } => rows.is_empty(),
        }
    }
}

/// The result of applying a [`TableDelta`].
#[derive(Debug)]
pub struct DeltaOutcome {
    /// The post-delta table. Dictionaries, codes, and fingerprint are
    /// identical to [`Table::from_rows`] on the final data.
    pub table: Table,
    /// Schema positions (ascending) of the columns whose duplicate
    /// structure may have changed — the only columns a dependency whose
    /// validity changed can draw from (see module docs).
    pub affected_columns: Vec<usize>,
    /// Number of rows actually appended (after duplicate dropping).
    pub appended_rows: usize,
    /// Number of distinct rows deleted (0 for appends).
    pub deleted_rows: usize,
    /// Appended rows dropped because they duplicated an existing row or an
    /// earlier appended row.
    pub rows_deduplicated: usize,
}

impl Table {
    /// Applies `delta`, producing the mutated table plus the affected-column
    /// report. `self` is unchanged (columns are rebuilt from the merged
    /// dictionaries, not re-sorted from raw strings).
    ///
    /// Errors: [`TableError::RaggedRow`] when an appended row's field count
    /// differs from the schema, [`TableError::RowOutOfRange`] when a delete
    /// id is `>= num_rows()`.
    pub fn apply_delta(&self, delta: &TableDelta) -> Result<DeltaOutcome, TableError> {
        match delta {
            TableDelta::Append { rows } => self.apply_append(rows),
            TableDelta::Delete { rows } => self.apply_delete(rows),
        }
    }

    fn apply_append(&self, rows: &[Vec<String>]) -> Result<DeltaOutcome, TableError> {
        for (i, row) in rows.iter().enumerate() {
            if row.len() != self.num_columns() {
                return Err(TableError::RaggedRow {
                    row: self.num_rows() + i,
                    expected: self.num_columns(),
                    got: row.len(),
                    line: None,
                });
            }
        }
        let old_rows = self.num_rows();
        // Per column: merge the new values into the sorted dictionary and
        // encode both the old rows (code remap) and the appended rows
        // against it. Independent per column, so fan out like `from_rows`.
        let encoded: Vec<(Vec<String>, Vec<u32>, Vec<u32>)> = (0..self.num_columns())
            .into_par_iter()
            .map(|c| {
                let col = self.column(c);
                let dict = col.sorted_distinct_values();
                let mut added: Vec<&str> = rows
                    .iter()
                    .map(|r| r[c].as_str())
                    .filter(|v| {
                        !v.is_empty() && dict.binary_search_by(|d| d.as_str().cmp(v)).is_err()
                    })
                    .collect();
                added.sort_unstable();
                added.dedup();
                // Merge walk: `merged` is the sorted union, `remap[i]` the
                // new code of old code `i` (old codes shift up by the
                // number of added values sorting before them); the NULL
                // code moves from `dict.len()` to `merged.len()`.
                let mut merged: Vec<String> = Vec::with_capacity(dict.len() + added.len());
                let mut remap: Vec<u32> = vec![0; dict.len() + 1];
                let (mut i, mut j) = (0usize, 0usize);
                while i < dict.len() || j < added.len() {
                    if j < added.len() && (i >= dict.len() || added[j] < dict[i].as_str()) {
                        merged.push(added[j].to_string());
                        j += 1;
                    } else {
                        remap[i] = merged.len() as u32;
                        merged.push(dict[i].clone());
                        i += 1;
                    }
                }
                remap[dict.len()] = merged.len() as u32;
                let old_codes: Vec<u32> =
                    col.codes().iter().map(|&code| remap[code as usize]).collect();
                let null_code = merged.len() as u32;
                // lint:allow(panic): every non-empty appended value was
                // either found in the old dictionary or merged in above, so
                // the search always hits.
                let new_codes: Vec<u32> = rows
                    .iter()
                    .map(|r| {
                        let v = r[c].as_str();
                        if v.is_empty() {
                            null_code
                        } else {
                            merged
                                .binary_search_by(|d| d.as_str().cmp(v))
                                .expect("appended value in merged dictionary")
                                as u32
                        }
                    })
                    .collect();
                (merged, old_codes, new_codes)
            })
            .collect();

        // Duplicate dropping on coded keys: appended rows equal to an
        // existing row or an earlier kept append are skipped (NULLs share a
        // code, so they compare equal, matching `Table::dedup_rows`). A
        // duplicate contributes no dictionary value its original doesn't,
        // so the merged dictionaries above are unaffected by the drop.
        // Only the appended rows are hashed; the old rows are scanned once,
        // and only those whose code in the column with the largest
        // dictionary some appended row shares are keyed and looked up.
        let mut first: HashMap<Vec<u32>, usize> = HashMap::with_capacity(rows.len());
        let mut kept: Vec<usize> = Vec::with_capacity(rows.len());
        for k in 0..rows.len() {
            let key: Vec<u32> = encoded.iter().map(|(_, _, new)| new[k]).collect();
            if let Entry::Vacant(slot) = first.entry(key) {
                slot.insert(k);
                kept.push(k);
            }
        }
        if let Some((merged, probe_codes, new_codes)) = encoded.iter().max_by_key(|e| e.0.len()) {
            let mut probe = vec![false; merged.len() + 1];
            for &k in &kept {
                probe[new_codes[k] as usize] = true;
            }
            let mut in_old = vec![false; rows.len()];
            let mut key: Vec<u32> = Vec::with_capacity(encoded.len());
            for (r, &code) in probe_codes.iter().enumerate() {
                if probe[code as usize] {
                    key.clear();
                    key.extend(encoded.iter().map(|(_, old, _)| old[r]));
                    if let Some(&k) = first.get(&key) {
                        in_old[k] = true;
                    }
                }
            }
            kept.retain(|&k| !in_old[k]);
        }
        // Zero-column tables: every row is the empty tuple, so at most one
        // survives in total (mirroring `dedup_rows`).
        let kept = if self.num_columns() == 0 {
            if old_rows == 0 && !rows.is_empty() {
                vec![0]
            } else {
                Vec::new()
            }
        } else {
            kept
        };

        let num_rows = old_rows + kept.len();
        let mut affected: Vec<usize> = Vec::new();
        let columns: Vec<Column> = encoded
            .into_iter()
            .zip(self.columns())
            .map(|((merged, mut codes, new_codes), col)| {
                let null_code = merged.len() as u32;
                let mut null_count = col.null_count();
                codes.reserve(kept.len());
                for &k in &kept {
                    codes.push(new_codes[k]);
                    if new_codes[k] == null_code {
                        null_count += 1;
                    }
                }
                Column::from_parts(col.name().to_string(), codes, merged, null_count)
            })
            .collect();
        // Affected = columns where some appended row landed in a duplicate
        // cluster of the final table (its code occurs at least twice). Only
        // dependencies drawn entirely from these columns can break: an
        // appended row that is unique in column c makes every set
        // containing c trivially violation-free for that row.
        for (c, col) in columns.iter().enumerate() {
            let mut counts = vec![0u32; col.code_domain()];
            for &code in col.codes() {
                counts[code as usize] += 1;
            }
            if col.codes()[old_rows..].iter().any(|&code| counts[code as usize] >= 2) {
                affected.push(c);
            }
        }

        Ok(DeltaOutcome {
            table: Table::from_parts(self.name().to_string(), columns, num_rows),
            affected_columns: affected,
            appended_rows: kept.len(),
            deleted_rows: 0,
            rows_deduplicated: rows.len() - kept.len(),
        })
    }

    fn apply_delete(&self, rows: &[usize]) -> Result<DeltaOutcome, TableError> {
        let mut deleted: Vec<usize> = rows.to_vec();
        deleted.sort_unstable();
        deleted.dedup();
        if let Some(&bad) = deleted.iter().find(|&&r| r >= self.num_rows()) {
            return Err(TableError::RowOutOfRange { row: bad, num_rows: self.num_rows() });
        }
        let mut gone = vec![false; self.num_rows()];
        for &r in &deleted {
            gone[r] = true;
        }
        let keep: Vec<usize> = (0..self.num_rows()).filter(|&r| !gone[r]).collect();

        // Affected = columns where some deleted row sat in a duplicate
        // cluster of the *old* table: removing a row that was unique in
        // column c cannot make any set containing c newly unique (no
        // violating pair through c involved it), so only dependencies
        // drawn entirely from these columns can flip to valid.
        let mut affected: Vec<usize> = Vec::new();
        for (c, col) in self.columns().iter().enumerate() {
            let mut counts = vec![0u32; col.code_domain()];
            for &code in col.codes() {
                counts[code as usize] += 1;
            }
            if deleted.iter().any(|&r| counts[col.codes()[r] as usize] >= 2) {
                affected.push(c);
            }
        }

        Ok(DeltaOutcome {
            table: self.select_rows(&keep),
            affected_columns: affected,
            appended_rows: 0,
            deleted_rows: deleted.len(),
            rows_deduplicated: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint;
    use crate::table::tests::{assert_matches_from_scratch, rows_of};

    fn table(rows: &[&[&str]]) -> Table {
        let names: Vec<String> =
            (0..rows.first().map_or(0, |r| r.len())).map(|i| format!("c{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<&str>> = rows.iter().map(|r| r.to_vec()).collect();
        Table::from_rows("t", &name_refs, &rows).unwrap()
    }

    /// Deletes keep every other row, in their old order.
    fn assert_survivors(t: &Table, deleted: &[usize], outcome: &DeltaOutcome) {
        let survivors: Vec<Vec<String>> = rows_of(t)
            .into_iter()
            .enumerate()
            .filter(|(r, _)| !deleted.contains(r))
            .map(|(_, row)| row)
            .collect();
        assert_eq!(rows_of(&outcome.table), survivors);
        assert_matches_from_scratch(&outcome.table);
    }

    fn append(rows: &[&[&str]]) -> TableDelta {
        TableDelta::Append {
            rows: rows.iter().map(|r| r.iter().map(|v| v.to_string()).collect()).collect(),
        }
    }

    #[test]
    fn append_new_values_rebuilds_dictionary() {
        let t = table(&[&["b", "1"], &["d", "2"]]);
        let out = t.apply_delta(&append(&[&["a", "3"], &["c", "1"]])).unwrap();
        assert_eq!(out.table.num_rows(), 4);
        assert_eq!(out.appended_rows, 2);
        assert_eq!(out.table.column(0).sorted_distinct_values(), &["a", "b", "c", "d"]);
        // Old rows keep their values under the remapped codes.
        assert_eq!(out.table.row(0), vec![Some("b"), Some("1")]);
        assert_eq!(out.table.row(3), vec![Some("c"), Some("1")]);
        assert_matches_from_scratch(&out.table);
        // "1" now duplicated in column 1; column 0 all unique.
        assert_eq!(out.affected_columns, vec![1]);
    }

    #[test]
    fn append_existing_values_skips_dictionary_merge() {
        let t = table(&[&["a", "x"], &["b", "y"]]);
        let out = t.apply_delta(&append(&[&["a", "y"]])).unwrap();
        assert_eq!(out.table.num_rows(), 3);
        assert_matches_from_scratch(&out.table);
        assert_eq!(out.affected_columns, vec![0, 1]);
    }

    #[test]
    fn append_unique_row_affects_nothing() {
        let t = table(&[&["a", "x"], &["b", "y"]]);
        let out = t.apply_delta(&append(&[&["c", "z"]])).unwrap();
        assert!(out.affected_columns.is_empty());
        assert_matches_from_scratch(&out.table);
    }

    #[test]
    fn append_null_collides_with_null() {
        let t = table(&[&["a", ""], &["b", "y"]]);
        let out = t.apply_delta(&append(&[&["c", ""]])).unwrap();
        // NULLs compare equal for UCC/FD semantics: column 1 is affected.
        assert_eq!(out.affected_columns, vec![1]);
        assert_eq!(out.table.column(1).null_count(), 2);
        assert_matches_from_scratch(&out.table);
    }

    #[test]
    fn append_duplicate_rows_are_dropped() {
        let t = table(&[&["a", "x"], &["b", "y"]]);
        let out = t.apply_delta(&append(&[&["a", "x"], &["c", "z"], &["c", "z"]])).unwrap();
        assert_eq!(out.appended_rows, 1);
        assert_eq!(out.rows_deduplicated, 2);
        assert_eq!(out.table.num_rows(), 3);
        assert!(!out.table.has_duplicate_rows());
        assert_matches_from_scratch(&out.table);
    }

    #[test]
    fn append_matching_a_row_mid_table_is_dropped() {
        let t = table(&[&["a", "x"], &["b", "y"], &["c", "x"], &["d", "z"], &["e", "y"]]);
        // Row 2's copy is dropped (twice); "c" with a new partner and a
        // fresh row survive, in order.
        let out =
            t.apply_delta(&append(&[&["c", "x"], &["c", "q"], &["c", "x"], &["f", "x"]])).unwrap();
        assert_eq!((out.appended_rows, out.rows_deduplicated), (2, 2));
        assert_eq!(rows_of(&out.table)[5..], [vec!["c", "q"], vec!["f", "x"]]);
        assert!(!out.table.has_duplicate_rows());
        assert_matches_from_scratch(&out.table);
    }

    #[test]
    fn empty_append_is_identity() {
        let t = table(&[&["a", "x"]]);
        let out = t.apply_delta(&append(&[])).unwrap();
        assert_eq!(fingerprint(&out.table), fingerprint(&t));
        assert!(out.affected_columns.is_empty());
        assert_eq!(out.appended_rows, 0);
    }

    #[test]
    fn ragged_append_rejected() {
        let t = table(&[&["a", "x"]]);
        let err = t
            .apply_delta(&TableDelta::Append { rows: vec![vec!["only-one".to_string()]] })
            .unwrap_err();
        assert!(matches!(err, TableError::RaggedRow { row: 1, expected: 2, got: 1, .. }));
    }

    #[test]
    fn delete_drops_orphaned_dictionary_entries() {
        let t = table(&[&["a", "x"], &["b", "x"], &["c", "y"]]);
        let out = t.apply_delta(&TableDelta::Delete { rows: vec![2] }).unwrap();
        assert_eq!(out.table.num_rows(), 2);
        assert_eq!(out.table.column(0).sorted_distinct_values(), &["a", "b"]);
        assert_eq!(out.table.column(1).sorted_distinct_values(), &["x"]);
        assert_survivors(&t, &[2], &out);
        // Row 2 was unique in both columns: nothing can become newly valid.
        assert!(out.affected_columns.is_empty());
        assert_eq!(out.deleted_rows, 1);
    }

    #[test]
    fn delete_from_cluster_marks_column_affected() {
        let t = table(&[&["a", "x"], &["b", "x"], &["c", "y"]]);
        let out = t.apply_delta(&TableDelta::Delete { rows: vec![0] }).unwrap();
        // Row 0 shared "x" in column 1 but was unique in column 0.
        assert_eq!(out.affected_columns, vec![1]);
        assert_matches_from_scratch(&out.table);
    }

    #[test]
    fn delete_null_rows_updates_null_count() {
        let t = table(&[&["a", ""], &["b", ""], &["c", "y"]]);
        let out = t.apply_delta(&TableDelta::Delete { rows: vec![0] }).unwrap();
        assert_eq!(out.table.column(1).null_count(), 1);
        assert_eq!(out.affected_columns, vec![1]);
        assert_matches_from_scratch(&out.table);
    }

    #[test]
    fn delete_all_rows_leaves_empty_table() {
        let t = table(&[&["a", "x"], &["b", "y"]]);
        let out = t.apply_delta(&TableDelta::Delete { rows: vec![1, 0] }).unwrap();
        assert_eq!(out.table.num_rows(), 0);
        assert!(out.table.column(0).sorted_distinct_values().is_empty());
        assert_matches_from_scratch(&out.table);
        assert_eq!(out.deleted_rows, 2);
    }

    #[test]
    fn delete_duplicate_ids_collapse() {
        let t = table(&[&["a", "x"], &["b", "y"]]);
        let out = t.apply_delta(&TableDelta::Delete { rows: vec![0, 0, 0] }).unwrap();
        assert_eq!(out.table.num_rows(), 1);
        assert_eq!(out.deleted_rows, 1);
        assert_survivors(&t, &[0], &out);
    }

    #[test]
    fn delete_from_all_null_and_zero_column_tables() {
        let t = table(&[&["a", ""], &["b", ""], &["c", ""]]);
        let out = t.apply_delta(&TableDelta::Delete { rows: vec![2, 0] }).unwrap();
        assert_eq!(out.table.column(1).null_count(), 1);
        assert_survivors(&t, &[0, 2], &out);

        let t = table(&[&["a"], &["b"]]).take_columns(0);
        let out = t.apply_delta(&TableDelta::Delete { rows: vec![1] }).unwrap();
        assert_eq!((out.table.num_rows(), out.deleted_rows), (1, 1));
        assert_survivors(&t, &[1], &out);
    }

    #[test]
    fn delete_out_of_range_rejected() {
        let t = table(&[&["a", "x"]]);
        let err = t.apply_delta(&TableDelta::Delete { rows: vec![5] }).unwrap_err();
        assert!(matches!(err, TableError::RowOutOfRange { row: 5, num_rows: 1 }));
    }

    #[test]
    fn zero_column_table_appends_collapse() {
        let rows: Vec<Vec<&str>> = vec![];
        let t = Table::from_rows("t", &[], &rows).unwrap();
        let out = t.apply_delta(&TableDelta::Append { rows: vec![vec![], vec![]] }).unwrap();
        assert_eq!(out.table.num_rows(), 1);
        assert_eq!(out.rows_deduplicated, 1);
        let out2 = out.table.apply_delta(&TableDelta::Append { rows: vec![vec![]] }).unwrap();
        assert_eq!(out2.table.num_rows(), 1);
        assert_eq!(out2.rows_deduplicated, 1);
    }

    #[test]
    fn append_then_delete_round_trips_fingerprint() {
        let t = table(&[&["a", "x"], &["b", "y"]]);
        let out = t.apply_delta(&append(&[&["c", "z"], &["d", "x"]])).unwrap();
        let back = out.table.apply_delta(&TableDelta::Delete { rows: vec![2, 3] }).unwrap();
        assert_eq!(fingerprint(&back.table), fingerprint(&t));
        assert_matches_from_scratch(&back.table);
    }

    proptest::proptest! {
        /// Random base tables and deltas: the incremental encoding must be
        /// indistinguishable from a from-scratch build of the final rows.
        #[test]
        fn random_deltas_match_from_scratch(
            (base, extra, dels) in (
                proptest::collection::vec(
                    proptest::collection::vec(cell_strategy(4), 3), 0..12),
                proptest::collection::vec(
                    proptest::collection::vec(cell_strategy(5), 3), 0..6),
                proptest::collection::vec(0usize..12, 0..6),
            )
        ) {
            let rows: Vec<Vec<&str>> =
                base.iter().map(|r| r.iter().map(|v| v.as_str()).collect()).collect();
            let t = Table::from_rows("t", &["a", "b", "c"], &rows).unwrap().dedup_rows();
            let out = t.apply_delta(&TableDelta::Append { rows: extra.clone() }).unwrap();
            assert_matches_from_scratch(&out.table);
            // Appends keep exactly the rows not seen before, in order.
            let mut expected = rows_of(&t);
            for row in &extra {
                if !expected.contains(row) {
                    expected.push(row.clone());
                }
            }
            assert_eq!(rows_of(&out.table), expected);
            // Ids in any order, repeats included.
            let dels: Vec<usize> = dels.into_iter().filter(|&r| r < t.num_rows()).collect();
            let out = t.apply_delta(&TableDelta::Delete { rows: dels.clone() }).unwrap();
            assert_survivors(&t, &dels, &out);
        }
    }

    /// Small value domain (including NULL) so collisions — the interesting
    /// case for dictionary merging and affected-column tracking — abound.
    fn cell_strategy(domain: u32) -> impl proptest::Strategy<Value = String> {
        use proptest::Strategy as _;
        (0..domain).prop_map(|v| if v == 0 { String::new() } else { format!("v{v}") })
    }
}
