//! Delta maintenance: appending and deleting rows of a [`Table`] without
//! re-encoding the whole relation.
//!
//! Profiling results go stale the moment the underlying table mutates, but
//! most mutations touch a tiny fraction of the data. [`Table::apply_delta`]
//! updates the dictionary encoding in place — merging new values into the
//! sorted dictionaries and remapping codes, or dropping orphaned entries
//! after a deletion (equal to a [`Table::select_rows`] of the survivors) — so the
//! resulting [`Table`] is *bit-identical* to one built from scratch on the
//! final data ([`crate::fingerprint`]s match, which is what lets a serving
//! layer patch its content-addressed registry instead of re-registering).
//!
//! An append costs what it adds: it looks the appended cells up in the old
//! dictionaries, merges only the values they lack, and copies each old
//! code vector once into one vector of the final length. A column's old
//! codes are copied verbatim unless the merge moves them (a new value
//! sorts before an old one, or one sorts anywhere and the column has
//! NULLs, whose code sits past the dictionary); only such a column pays a
//! remap, counted by `delta.codes_remapped`. A dictionary that gains no
//! value is shared with the old table, not copied. A delete costs what it
//! drops wherever no value loses its last row: each column's codes are
//! the runs between the deleted rows, copied as they are, and its
//! dictionary is shared.
//!
//! Alongside the new table, application reports the set of **affected
//! columns**: the columns whose duplicate structure could have changed.
//! After an append it is the input to incremental dependency revalidation
//! (see `muds-core`): a UCC or FD left-hand side can only *break*, and only
//! if it is fully contained in the affected set; columns outside the set
//! carry their verdicts over unchanged. After a deletion dependencies can
//! only *appear*, again only inside the affected set: `muds-core` checks
//! just the old result's maximal non-dependencies that lie inside it.
//! Both are derived without counting the table: an append's from the
//! appended rows alone, a delete's from a search for each deleted row's
//! values among the survivors that stops once each one is found.

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

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

/// The old code of an appended cell whose value no old row holds.
const ABSENT: u32 = u32::MAX;

/// One column's appended cells, located in its old dictionary.
struct Located<'a> {
    /// The values the column gains, sorted and distinct.
    added: Vec<&'a str>,
    /// Per appended row: its code in the final column.
    codes: Vec<u32>,
    /// Per appended row: its code in the old column, [`ABSENT`] when no
    /// old row holds its value.
    old: Vec<u32>,
}

impl<'a> Located<'a> {
    /// Binary-searches column `c` of every appended row in `col`'s
    /// dictionary; the final codes follow from where the added values
    /// sort, without building the merged dictionary.
    fn new(col: &Column, rows: &'a [Vec<String>], c: usize) -> Self {
        let dict = col.sorted_distinct_values();
        let old_null = if col.null_count() > 0 { dict.len() as u32 } else { ABSENT };
        // `None` for NULL, else the search result: `Ok(old code)` or
        // `Err(insertion point)`.
        let found: Vec<Option<Result<usize, usize>>> = rows
            .iter()
            .map(|r| {
                let v = r[c].as_str();
                (!v.is_empty()).then(|| dict.binary_search_by(|d| d.as_str().cmp(v)))
            })
            .collect();
        let mut added: Vec<&str> = rows
            .iter()
            .zip(&found)
            .filter(|(_, f)| matches!(f, Some(Err(_))))
            .map(|(r, _)| r[c].as_str())
            .collect();
        added.sort_unstable();
        added.dedup();
        // A final code is the old rank plus the added values sorting
        // before it; NULL moves past every added value.
        let before = |v: &str| added.partition_point(|a| *a < v);
        let (codes, old) = rows
            .iter()
            .zip(&found)
            .map(|(r, f)| match *f {
                None => ((dict.len() + added.len()) as u32, old_null),
                Some(Ok(code)) => ((code + before(&dict[code])) as u32, code as u32),
                Some(Err(at)) => ((at + before(&r[c])) as u32, ABSENT),
            })
            .unzip();
        Located { added, codes, old }
    }

    /// The merged dictionary, and the new code of every old code when the
    /// merge moves any old row's code (`None` when all stay). Old codes
    /// stay when nothing was added, or when every added value sorts after
    /// the old ones and no old row holds the NULL code past them.
    fn merge(&self, col: &Column) -> (Arc<Vec<String>>, Option<Vec<u32>>) {
        let dict = col.sorted_distinct_values();
        let Some(&first) = self.added.first() else {
            return (col.dictionary().clone(), None);
        };
        let moves = col.null_count() > 0 || dict.last().is_some_and(|last| first < last.as_str());
        let mut merged: Vec<String> = Vec::with_capacity(dict.len() + self.added.len());
        let mut remap: Vec<u32> = Vec::with_capacity(if moves { dict.len() + 1 } else { 0 });
        let mut added = self.added.iter().peekable();
        for value in dict {
            while let Some(a) = added.next_if(|a| **a < value.as_str()) {
                merged.push(a.to_string());
            }
            if moves {
                remap.push(merged.len() as u32);
            }
            merged.push(value.clone());
        }
        merged.extend(added.map(|a| a.to_string()));
        if moves {
            remap.push(merged.len() as u32);
        }
        (Arc::new(merged), moves.then_some(remap))
    }
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
        let located: Vec<Located> =
            self.columns().iter().enumerate().map(|(c, col)| Located::new(col, rows, c)).collect();

        // Duplicate dropping on coded keys: appended rows equal to an
        // earlier appended row or to an existing row are skipped (NULLs
        // share a code, so they compare equal, matching `dedup_rows`). A
        // duplicate contributes no dictionary value its original doesn't,
        // so the merged dictionaries are unaffected by the drop.
        let mut seen: HashSet<Vec<u32>> = HashSet::with_capacity(rows.len());
        let mut kept: Vec<usize> = (0..rows.len())
            .filter(|&k| seen.insert(located.iter().map(|l| l.codes[k]).collect()))
            .collect();
        // Only a kept row whose every value some old row holds can equal
        // an old row, so the old rows are read only for such rows.
        let known: Vec<(usize, Vec<u32>)> = kept
            .iter()
            .map(|&k| (k, located.iter().map(|l| l.old[k]).collect::<Vec<u32>>()))
            .filter(|(_, key)| !key.contains(&ABSENT))
            .collect();
        if !known.is_empty() {
            let in_old = self.rows_among(&known, rows.len());
            kept.retain(|&k| !in_old[k]);
        }

        // Affected = columns where some kept row lands in a duplicate
        // cluster of the final table. Its code occurs twice iff an old row
        // holds its value (every dictionary value and a present NULL
        // occur in some old row) or another kept row carries it. Only
        // dependencies drawn entirely from these columns can break: an
        // appended row that is unique in column c makes every set
        // containing c trivially violation-free for that row.
        let affected: Vec<usize> = located
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                let mut codes: Vec<u32> = kept.iter().map(|&k| l.codes[k]).collect();
                codes.sort_unstable();
                codes.dedup();
                codes.len() < kept.len() || kept.iter().any(|&k| l.old[k] != ABSENT)
            })
            .map(|(c, _)| c)
            .collect();

        let num_rows = old_rows + kept.len();
        let mut remapped = 0u64;
        let columns: Vec<Column> = self
            .columns()
            .iter()
            .zip(&located)
            .map(|(col, l)| {
                let (dictionary, remap) = l.merge(col);
                let mut codes: Vec<u32> = Vec::with_capacity(num_rows);
                match remap {
                    None => codes.extend_from_slice(col.codes()),
                    Some(remap) => {
                        remapped += old_rows as u64;
                        codes.extend(col.codes().iter().map(|&code| remap[code as usize]));
                    }
                }
                codes.extend(kept.iter().map(|&k| l.codes[k]));
                let null_code = dictionary.len() as u32;
                let null_count =
                    col.null_count() + kept.iter().filter(|&&k| l.codes[k] == null_code).count();
                Column::from_parts(col.name().to_string(), codes, dictionary, null_count)
            })
            .collect();
        muds_obs::counter("delta.codes_remapped").add(remapped);

        Ok(DeltaOutcome {
            table: Table::from_parts(self.name().to_string(), columns, num_rows),
            affected_columns: affected,
            appended_rows: kept.len(),
            deleted_rows: 0,
            rows_deduplicated: rows.len() - kept.len(),
        })
    }

    /// Marks which of the `known` appended rows (row, old codes; the
    /// codes distinct) some row of this table equals. Columns are tried
    /// from the largest dictionary down, each against the codes the known
    /// rows hold, so most rows are rejected after one or two reads; a row
    /// that passes every column is looked up in a hash of the known rows,
    /// so a large append cannot go quadratic. A zero-column table's every
    /// row equals the empty key.
    fn rows_among(&self, known: &[(usize, Vec<u32>)], num_appended: usize) -> Vec<bool> {
        let mut order: Vec<usize> = (0..self.num_columns()).collect();
        order.sort_by_key(|&c| Reverse(self.column(c).code_domain()));
        let mut held: Vec<Vec<bool>> =
            self.columns().iter().map(|col| vec![false; col.code_domain()]).collect();
        for (_, key) in known {
            for (held, &code) in held.iter_mut().zip(key) {
                held[code as usize] = true;
            }
        }
        let index: HashMap<&[u32], usize> =
            known.iter().map(|(k, key)| (key.as_slice(), *k)).collect();
        let mut found = vec![false; num_appended];
        let mut row: Vec<u32> = Vec::with_capacity(self.num_columns());
        for r in 0..self.num_rows() {
            if order.iter().all(|&c| held[c][self.column(c).codes()[r] as usize]) {
                row.clear();
                row.extend(self.columns().iter().map(|col| col.codes()[r]));
                if let Some(&k) = index.get(row.as_slice()) {
                    found[k] = true;
                }
            }
        }
        found
    }

    fn apply_delete(&self, rows: &[usize]) -> Result<DeltaOutcome, TableError> {
        let mut deleted: Vec<usize> = rows.to_vec();
        deleted.sort_unstable();
        deleted.dedup();
        if let Some(&bad) = deleted.iter().find(|&&r| r >= self.num_rows()) {
            return Err(TableError::RowOutOfRange { row: bad, num_rows: self.num_rows() });
        }
        // Affected = columns where some deleted row sat in a duplicate
        // cluster of the *old* table (its code occurs at least twice there,
        // counting the other deleted rows too): removing a row that was
        // unique in column c cannot make any set containing c newly unique
        // (no violating pair through c involved it), so only dependencies
        // drawn entirely from these columns can flip to valid.
        let (table, affected) = self.drop_rows(&deleted);

        Ok(DeltaOutcome {
            table,
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
    fn deleting_both_rows_of_a_pair_marks_their_column_affected() {
        // Rows 0 and 1 are the only pair sharing "a" in column 0: no
        // survivor holds "a", yet deleting both removes that column's only
        // violating pair, so the column must be reported.
        let t = table(&[&["a", "x"], &["a", "y"], &["b", "z"]]);
        let out = t.apply_delta(&TableDelta::Delete { rows: vec![1, 0] }).unwrap();
        assert_eq!(out.affected_columns, vec![0]);
        assert_survivors(&t, &[0, 1], &out);
    }

    #[test]
    fn deletes_copy_the_codes_unless_a_value_is_orphaned() {
        // 1000 rows: a unique key, a 7-value column and a column whose
        // every fifth row is NULL, the rest 13 values.
        let rows: Vec<Vec<String>> = (0..1000)
            .map(|r| {
                let nulls = if r % 5 == 0 { String::new() } else { format!("v{:02}", r % 13) };
                vec![format!("k{r:04}"), format!("v{}", r % 7), nulls]
            })
            .collect();
        let t = Table::from_rows("t", &["a", "b", "c"], &rows).unwrap();
        let shares = |out: &DeltaOutcome, c: usize| {
            Arc::ptr_eq(t.column(c).dictionary(), out.table.column(c).dictionary())
        };
        // Rows 0, 3 and 999: every b and c value keeps a row, so both
        // dictionaries are shared and only the key loses values, from its
        // first, middle and last codes.
        let dels = [999, 0, 3];
        let out = t.apply_delta(&TableDelta::Delete { rows: dels.to_vec() }).unwrap();
        assert_survivors(&t, &dels, &out);
        assert_eq!((shares(&out, 0), shares(&out, 1), shares(&out, 2)), (false, true, true));
        assert_eq!(out.table.column(2).null_count(), 199, "row 0 was NULL in c");
        assert_eq!(out.affected_columns, [1, 2]);
        // Down to 30 rows, then drop every row holding c's "v05": that
        // value is orphaned and the codes above it move down.
        let t = out.table.take_rows(30);
        let dels: Vec<usize> = (0..30).filter(|&r| t.column(2).value(r) == Some("v05")).collect();
        assert!(!dels.is_empty());
        let out = t.apply_delta(&TableDelta::Delete { rows: dels.clone() }).unwrap();
        assert_survivors(&t, &dels, &out);
        assert!(!out.table.column(2).sorted_distinct_values().contains(&"v05".to_string()));
        assert_eq!(out.table.column(2).null_count(), t.column(2).null_count());
        // Every NULL goes: NULL's code is past the dictionary, so no code
        // moves and the dictionary is shared.
        let t = out.table;
        let nulls: Vec<usize> =
            (0..t.num_rows()).filter(|&r| t.column(2).value(r).is_none()).collect();
        let out = t.apply_delta(&TableDelta::Delete { rows: nulls.clone() }).unwrap();
        assert_survivors(&t, &nulls, &out);
        assert_eq!(out.table.column(2).null_count(), 0);
        assert!(Arc::ptr_eq(t.column(2).dictionary(), out.table.column(2).dictionary()));
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

    /// `delta.codes_remapped` after appending `rows` to `t`.
    fn codes_remapped(t: &Table, rows: &[&[&str]]) -> u64 {
        let metrics = muds_obs::Metrics::new();
        let _guard = metrics.install();
        t.apply_delta(&append(rows)).unwrap();
        metrics.drain_snapshot().counter("delta.codes_remapped")
    }

    #[test]
    fn appends_remap_old_codes_only_when_the_merge_moves_them() {
        for n in [1_000usize, 10_000] {
            // A key, a 7-value column and a 13-value column with NULLs.
            let rows: Vec<Vec<String>> = (0..n)
                .map(|r| {
                    let nulls = if r % 5 == 0 { String::new() } else { format!("v{}", r % 13) };
                    vec![format!("k{r:05}"), format!("v{}", r % 7), nulls]
                })
                .collect();
            let t = Table::from_rows("t", &["a", "b", "c"], &rows).unwrap();
            // Known values (a new combination of them, and a copy of an
            // existing row) move nothing.
            assert_eq!(codes_remapped(&t, &[&["k00001", "v3", ""], &["k00002", "v2", "v2"]]), 0);
            // Values that sort after the old ones keep the NULL-free
            // columns' codes; in column c NULL's code moves past them.
            assert_eq!(codes_remapped(&t, &[&["z", "z", "z"]]), n as u64);
            // A value that sorts first moves every old code of its column.
            assert_eq!(codes_remapped(&t, &[&["a", "v1", "v1"]]), n as u64);
            assert_eq!(codes_remapped(&t, &[&["a", "a", "a"]]), 3 * n as u64);
            let out = t.apply_delta(&append(&[&["a", "a", "a"]])).unwrap();
            assert_eq!(out.table.row(0), t.row(0));
            assert_matches_from_scratch(&out.table);
        }
    }

    /// The columns a delta affects, counted over a whole table: those where
    /// one of `rows` carries a code that occurs at least twice in `table`.
    fn affected_by_count(table: &Table, rows: impl Iterator<Item = usize> + Clone) -> Vec<usize> {
        (0..table.num_columns())
            .filter(|&c| {
                let col = table.column(c);
                let counts = col.value_counts();
                rows.clone().any(|r| counts[col.codes()[r] as usize] >= 2)
            })
            .collect()
    }

    proptest::proptest! {
        /// Random base tables and chains of appends, then a delete: the
        /// incremental encoding must be indistinguishable from a
        /// from-scratch build of the final rows, and each delta's affected
        /// columns those a count over the whole table gives — the final
        /// table for an append, the old one for a delete.
        #[test]
        fn random_deltas_match_from_scratch(
            (base, appends, dels) in (
                proptest::collection::vec(
                    proptest::collection::vec(cell_strategy(4), 3), 0..12),
                proptest::collection::vec(
                    proptest::collection::vec(
                        proptest::collection::vec(cell_strategy(8), 3), 0..6),
                    2..4),
                proptest::collection::vec(0usize..30, 0..6),
            )
        ) {
            let rows: Vec<Vec<&str>> =
                base.iter().map(|r| r.iter().map(|v| v.as_str()).collect()).collect();
            let mut t = Table::from_rows("t", &["a", "b", "c"], &rows).unwrap().dedup_rows();
            for extra in appends {
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
                assert_eq!(
                    out.affected_columns,
                    affected_by_count(&out.table, t.num_rows()..out.table.num_rows())
                );
                t = out.table;
            }
            // Ids in any order, repeats included.
            let dels: Vec<usize> = dels.into_iter().filter(|&r| r < t.num_rows()).collect();
            let out = t.apply_delta(&TableDelta::Delete { rows: dels.clone() }).unwrap();
            assert_survivors(&t, &dels, &out);
            assert_eq!(out.affected_columns, affected_by_count(&t, dels.iter().copied()));
        }
    }

    /// Small value domain (including NULL) so collisions — the interesting
    /// case for dictionary merging and affected-column tracking — abound.
    /// Values past a base table's domain sort before, between and after
    /// its values, so appends both keep and move old codes.
    fn cell_strategy(domain: usize) -> impl proptest::Strategy<Value = String> {
        use proptest::Strategy as _;
        const VALUES: [&str; 7] = ["m", "c", "t", "a", "p", "z", "f"];
        (0..domain).prop_map(|v| if v == 0 { String::new() } else { VALUES[v - 1].to_string() })
    }
}
