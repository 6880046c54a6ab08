//! In-memory relation: a named collection of dictionary-encoded columns.

use std::collections::HashSet;
use std::sync::Arc;

use rayon::prelude::*;

use crate::column::Column;
use crate::error::TableError;

/// Maximum column count, matching `muds_lattice::MAX_COLUMNS`.
pub const MAX_COLUMNS: usize = 256;

/// An immutable, column-oriented relation instance.
///
/// This is the substrate every discovery algorithm operates on. Rows are
/// identified by their zero-based position; columns by their zero-based
/// schema position (the same indices used in `ColumnSet`s).
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<Column>,
    num_rows: usize,
}

impl Table {
    /// Builds a table from row-major string data.
    ///
    /// `rows` must all have exactly `column_names.len()` fields; empty
    /// fields are NULL. Columns are dictionary-encoded independently, in
    /// parallel (schema order of the result is unaffected).
    ///
    /// A zero-column table is permitted (it also arises from
    /// [`Table::take_columns`]`(0)`); every profiling algorithm returns
    /// well-defined (empty) metadata for it.
    pub fn from_rows<S: AsRef<str> + Sync>(
        name: impl Into<String>,
        column_names: &[&str],
        rows: &[Vec<S>],
    ) -> Result<Self, TableError> {
        Self::check_schema(column_names)?;
        for (i, row) in rows.iter().enumerate() {
            if row.len() != column_names.len() {
                return Err(TableError::RaggedRow {
                    row: i,
                    expected: column_names.len(),
                    got: row.len(),
                    line: None,
                });
            }
        }
        Ok(Self::encode(name, column_names, rows.len(), |r, c| rows[r][c].as_ref()))
    }

    /// The schema checks every construction path shares: at most
    /// [`MAX_COLUMNS`] columns, no name twice.
    pub(crate) fn check_schema(column_names: &[&str]) -> Result<(), TableError> {
        if column_names.len() > MAX_COLUMNS {
            return Err(TableError::TooManyColumns { got: column_names.len(), max: MAX_COLUMNS });
        }
        let mut seen = HashSet::new();
        for &n in column_names {
            if !seen.insert(n) {
                return Err(TableError::DuplicateColumnName(n.to_string()));
            }
        }
        Ok(())
    }

    /// Dictionary-encodes `num_rows` rows whose field `c` of row `r` is
    /// `cell(r, c)`, one column per task, in parallel. The caller has
    /// checked the schema and every row's width.
    pub(crate) fn encode<'a>(
        name: impl Into<String>,
        column_names: &[&str],
        num_rows: usize,
        cell: impl Fn(usize, usize) -> &'a str + Sync,
    ) -> Self {
        let columns = (0..column_names.len())
            .into_par_iter()
            .map(|c| Column::encode(column_names[c], (0..num_rows).map(|r| cell(r, c))))
            .collect();
        Table { name: name.into(), columns, num_rows }
    }

    /// Assembles a table from pre-built columns (delta maintenance). The
    /// caller guarantees every column has `num_rows` codes and that the
    /// schema invariants of [`Table::from_rows`] hold.
    pub(crate) fn from_parts(name: String, columns: Vec<Column>, num_rows: usize) -> Self {
        debug_assert!(columns.iter().all(|c| c.len() == num_rows));
        Table { name, columns, num_rows }
    }

    /// Table name (dataset identifier in experiment output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column at schema position `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Schema position of the column named `name`, if any.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name() == name)
    }

    /// Column names in schema order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name()).collect()
    }

    /// Reconstructs row `row` as decoded values (`None` = NULL).
    pub fn row(&self, row: usize) -> Vec<Option<&str>> {
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    /// True iff the relation contains two identical rows (comparing NULLs
    /// equal). The holistic algorithms require duplicate-free input (§3 of
    /// the paper: a relation with duplicate rows has no UCC at all).
    pub fn has_duplicate_rows(&self) -> bool {
        let mut seen: HashSet<Vec<u32>> = HashSet::with_capacity(self.num_rows);
        for r in 0..self.num_rows {
            let key: Vec<u32> = self.columns.iter().map(|c| c.codes()[r]).collect();
            if !seen.insert(key) {
                return true;
            }
        }
        false
    }

    /// Returns a copy with duplicate rows removed (first occurrence kept) —
    /// the preprocessing step §3 assumes.
    pub fn dedup_rows(&self) -> Table {
        let mut seen: HashSet<Vec<u32>> = HashSet::with_capacity(self.num_rows);
        let mut keep: Vec<usize> = Vec::with_capacity(self.num_rows);
        for r in 0..self.num_rows {
            let key: Vec<u32> = self.columns.iter().map(|c| c.codes()[r]).collect();
            if seen.insert(key) {
                keep.push(r);
            }
        }
        self.select_rows(&keep)
    }

    /// Projects the table onto the given row indices, in the given order
    /// (ids may repeat). Each column keeps the dictionary entries the
    /// selected rows still reference and remaps their codes down, so the
    /// result equals [`Table::from_rows`] on the decoded rows — codes,
    /// dictionaries and fingerprint — without decoding a cell.
    pub fn select_rows(&self, rows: &[usize]) -> Table {
        let columns = self
            .columns
            .iter()
            .map(|col| {
                let mut refs = vec![0u32; col.code_domain()];
                for &r in rows {
                    refs[col.codes()[r] as usize] += 1;
                }
                // Surviving values keep their relative order, so the
                // remapped codes stay sorted-order codes; NULL moves to one
                // past the compacted dictionary, which is the old one shared
                // when no value was orphaned.
                let dict = col.sorted_distinct_values();
                let mut remap = vec![0u32; col.code_domain()];
                let mut next = 0u32;
                for (slot, &n) in remap.iter_mut().zip(&refs) {
                    *slot = next;
                    next += u32::from(n > 0);
                }
                let dictionary = if remap[dict.len()] as usize == dict.len() {
                    col.dictionary().clone()
                } else {
                    let kept = dict.iter().zip(&refs).filter(|(_, &n)| n > 0);
                    Arc::new(kept.map(|(value, _)| value.clone()).collect())
                };
                let codes = rows.iter().map(|&r| remap[col.codes()[r] as usize]).collect();
                let null_count = refs[dict.len()] as usize;
                Column::from_parts(col.name().to_string(), codes, dictionary, null_count)
            })
            .collect();
        Table { name: self.name.clone(), columns, num_rows: rows.len() }
    }

    /// The table without the rows `dropped` (ascending, distinct, in
    /// range): equal to [`Table::select_rows`] of the survivors, at a cost
    /// that follows the dropped rows wherever no value loses its last row.
    /// Also returns, ascending, the columns where some dropped row's code
    /// occurs at least twice in this table.
    ///
    /// Per column, each dropped row's code is looked for among the
    /// survivors, stopping once every one is found. The column is affected
    /// iff one is found or two dropped rows share a code. If every value
    /// keeps a row, the codes are the runs between the dropped rows, copied
    /// as they are, and the dictionary is shared; otherwise the codes above
    /// an orphaned value move down past it. The NULL count drops by the
    /// dropped NULLs. Columns run one after another: each costs about one
    /// copy of its codes.
    pub(crate) fn drop_rows(&self, dropped: &[usize]) -> (Table, Vec<usize>) {
        let num_rows = self.num_rows - dropped.len();
        let mut affected = Vec::new();
        let mut columns = Vec::with_capacity(self.columns.len());
        for (c, col) in self.columns.iter().enumerate() {
            let codes = col.codes();
            // The slices of survivors between the dropped rows, in order.
            let starts = std::iter::once(0).chain(dropped.iter().map(|&r| r + 1));
            let ends = dropped.iter().copied().chain([codes.len()]);
            let runs = || starts.clone().zip(ends.clone()).map(|(s, e)| &codes[s..e]);
            let mut gone: Vec<u32> = dropped.iter().map(|&r| codes[r]).collect();
            gone.sort_unstable();
            gone.dedup();
            let mut wanted = vec![false; col.code_domain()];
            for &code in &gone {
                wanted[code as usize] = true;
            }
            let mut open = gone.len();
            'scan: for run in runs() {
                for &code in run {
                    if wanted[code as usize] {
                        wanted[code as usize] = false;
                        open -= 1;
                        if open == 0 {
                            break 'scan;
                        }
                    }
                }
            }
            if gone.len() < dropped.len() || open < gone.len() {
                affected.push(c);
            }
            // Values no survivor holds (NULL, one past the dictionary,
            // shifts no code), ascending.
            let dict = col.sorted_distinct_values();
            let orphaned: Vec<u32> = gone
                .iter()
                .copied()
                .filter(|&code| wanted[code as usize] && (code as usize) < dict.len())
                .collect();
            let mut kept = Vec::with_capacity(num_rows);
            let dictionary = if orphaned.is_empty() {
                for run in runs() {
                    kept.extend_from_slice(run);
                }
                col.dictionary().clone()
            } else {
                let remap: Vec<u32> = (0..col.code_domain() as u32)
                    .map(|code| code - orphaned.partition_point(|&o| o < code) as u32)
                    .collect();
                for run in runs() {
                    kept.extend(run.iter().map(|&code| remap[code as usize]));
                }
                let values = dict.iter().enumerate();
                let values =
                    values.filter(|&(code, _)| orphaned.binary_search(&(code as u32)).is_err());
                Arc::new(values.map(|(_, value)| value.clone()).collect())
            };
            let nulls_dropped = dropped.iter().filter(|&&r| codes[r] == col.null_code()).count();
            let null_count = col.null_count() - nulls_dropped;
            columns.push(Column::from_parts(col.name().to_string(), kept, dictionary, null_count));
        }
        (Table { name: self.name.clone(), columns, num_rows }, affected)
    }

    /// Projects the table onto its first `n` rows — the paper's
    /// row-scalability experiments (§6.1) work this way.
    pub fn take_rows(&self, n: usize) -> Table {
        let rows: Vec<usize> = (0..n.min(self.num_rows)).collect();
        self.select_rows(&rows)
    }

    /// Projects the table onto the first `n` columns — the paper's
    /// column-scalability experiments (§6.2) work this way.
    pub fn take_columns(&self, n: usize) -> Table {
        let n = n.min(self.columns.len());
        Table {
            name: self.name.clone(),
            columns: self.columns[..n].to_vec(),
            num_rows: self.num_rows,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn simple() -> Table {
        Table::from_rows(
            "t",
            &["a", "b", "c"],
            &[vec!["1", "x", "p"], vec!["2", "x", "q"], vec!["3", "y", ""], vec!["1", "x", "p"]],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let t = simple();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.column_names(), vec!["a", "b", "c"]);
        assert_eq!(t.column_index("b"), Some(1));
        assert_eq!(t.column_index("zz"), None);
    }

    #[test]
    fn row_reconstruction() {
        let t = simple();
        assert_eq!(t.row(2), vec![Some("3"), Some("y"), None]);
    }

    #[test]
    fn ragged_row_rejected() {
        let err = Table::from_rows("t", &["a", "b"], &[vec!["1"]]).unwrap_err();
        assert!(matches!(err, TableError::RaggedRow { row: 0, expected: 2, got: 1, line: None }));
    }

    #[test]
    fn duplicate_column_rejected() {
        let err = Table::from_rows("t", &["a", "a"], &[vec!["1", "2"]]).unwrap_err();
        assert!(matches!(err, TableError::DuplicateColumnName(_)));
    }

    #[test]
    fn zero_columns_allowed() {
        // take_columns(0) produces such tables too; the profiling pipelines
        // must accept them, so construction does as well.
        let rows: Vec<Vec<&str>> = vec![];
        let t = Table::from_rows("t", &[], &rows).unwrap();
        assert_eq!(t.num_columns(), 0);
        assert_eq!(t.num_rows(), 0);
        let t = simple().take_columns(0);
        assert_eq!(t.num_columns(), 0);
        assert_eq!(t.num_rows(), 4);
        // All zero-width rows are equal, so dedup collapses to one row.
        assert!(t.has_duplicate_rows());
        assert_eq!(t.dedup_rows().num_rows(), 1);
    }

    #[test]
    fn too_many_columns_rejected() {
        let names: Vec<String> = (0..257).map(|i| format!("c{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<&str>> = vec![];
        let err = Table::from_rows("t", &name_refs, &rows).unwrap_err();
        assert!(matches!(err, TableError::TooManyColumns { got: 257, .. }));
    }

    #[test]
    fn duplicate_detection_and_dedup() {
        let t = simple();
        assert!(t.has_duplicate_rows());
        let d = t.dedup_rows();
        assert_eq!(d.num_rows(), 3);
        assert!(!d.has_duplicate_rows());
        assert_eq!(d.row(0), vec![Some("1"), Some("x"), Some("p")]);
    }

    #[test]
    fn nulls_compare_equal_in_dedup() {
        let t = Table::from_rows("t", &["a"], &[vec![""], vec![""]]).unwrap();
        assert!(t.has_duplicate_rows());
        assert_eq!(t.dedup_rows().num_rows(), 1);
    }

    #[test]
    fn take_rows_and_columns() {
        let t = simple();
        let r = t.take_rows(2);
        assert_eq!(r.num_rows(), 2);
        assert_eq!(r.num_columns(), 3);
        let c = t.take_columns(2);
        assert_eq!(c.num_columns(), 2);
        assert_eq!(c.num_rows(), 4);
        // Requesting more than available clamps.
        assert_eq!(t.take_rows(99).num_rows(), 4);
        assert_eq!(t.take_columns(99).num_columns(), 3);
    }

    /// Decoded rows, NULL as the empty string.
    pub(crate) fn rows_of(table: &Table) -> Vec<Vec<String>> {
        (0..table.num_rows())
            .map(|r| table.row(r).into_iter().map(|v| v.unwrap_or("").to_string()).collect())
            .collect()
    }

    /// The gold standard for every code-level rebuild (row projection,
    /// deltas): `table` must equal [`Table::from_rows`] on its own decoded
    /// rows, down to codes, dictionaries, NULL counts and fingerprint.
    pub(crate) fn assert_matches_from_scratch(table: &Table) {
        let scratch = Table::from_rows("t", &table.column_names(), &rows_of(table)).unwrap();
        assert_eq!(table.num_rows(), scratch.num_rows());
        assert_eq!(crate::fingerprint(table), crate::fingerprint(&scratch));
        for (a, b) in table.columns().iter().zip(scratch.columns()) {
            assert_eq!(a.codes(), b.codes());
            assert_eq!(a.sorted_distinct_values(), b.sorted_distinct_values());
            assert_eq!(a.null_count(), b.null_count());
        }
    }

    /// `select_rows(ids)` holds exactly the rows `ids` names, encoded as a
    /// from-scratch build of them would be.
    fn assert_selects(t: &Table, ids: &[usize]) {
        let s = t.select_rows(ids);
        let all = rows_of(t);
        let expected: Vec<Vec<String>> = ids.iter().map(|&r| all[r].clone()).collect();
        assert_eq!(rows_of(&s), expected, "select_rows({ids:?})");
        assert_matches_from_scratch(&s);
    }

    #[test]
    fn select_rows_reencodes_dictionaries() {
        let t = simple();
        let s = t.select_rows(&[1, 2]);
        assert_eq!(s.num_rows(), 2);
        // Dictionary of column a should now only contain 2 and 3.
        assert_eq!(s.column(0).sorted_distinct_values(), &["2", "3"]);
        // Orphaning subsets, permutations, repeated ids, the empty selection.
        for ids in [&[1, 2][..], &[3, 0, 2, 1], &[2, 2, 0, 2], &[0, 3], &[2], &[]] {
            assert_selects(&t, ids);
        }
        let all_null =
            Table::from_rows("t", &["a", "b"], &[vec!["", "x"], vec!["", "y"], vec!["", "x"]])
                .unwrap();
        assert_selects(&all_null, &[2, 0, 0]);
        assert_selects(&all_null, &[1]);
        let zero_columns = t.take_columns(0);
        assert_selects(&zero_columns, &[3, 1, 1]);
    }

    proptest::proptest! {
        /// Random tables (small domains, so NULLs and collisions abound):
        /// a random permutation and random ids with repeats both project
        /// exactly like a from-scratch build.
        #[test]
        fn random_selections_match_from_scratch(
            (base, keys, ids) in (
                proptest::collection::vec(proptest::collection::vec(0u32..4, 3), 0..12),
                proptest::collection::vec(0u32..1000, 12),
                proptest::collection::vec(0usize..12, 0..16),
            )
        ) {
            let cells: Vec<Vec<String>> = base
                .iter()
                .map(|r| r.iter().map(|&v| if v == 0 { String::new() } else { format!("v{v}") }).collect())
                .collect();
            let t = Table::from_rows("t", &["a", "b", "c"], &cells).unwrap();
            let mut perm: Vec<usize> = (0..t.num_rows()).collect();
            perm.sort_by_key(|&r| (keys[r], r));
            assert_selects(&t, &perm);
            let ids: Vec<usize> = ids.into_iter().filter(|&r| r < t.num_rows()).collect();
            assert_selects(&t, &ids);
        }
    }

    #[test]
    fn empty_table_with_columns_is_fine() {
        let rows: Vec<Vec<&str>> = vec![];
        let t = Table::from_rows("t", &["a"], &rows).unwrap();
        assert_eq!(t.num_rows(), 0);
        assert!(!t.has_duplicate_rows());
    }
}
