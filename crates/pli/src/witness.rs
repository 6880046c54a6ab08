//! Witness search: is a column combination still not unique, or does it
//! still not determine a column? One pair of rows answers either question,
//! so the search looks for that pair instead of building the combination's
//! PLI. The delete path asks [`Pli::find_witness`] whether the old result's
//! maximal negatives survived, in a single-column PLI's clusters; the
//! append path asks an [`AppendProbe`] whether an old positive broke, in
//! the clusters of the appended rows alone (DESIGN.md §13).

use std::cmp::{Ordering, Reverse};

use muds_lattice::ColumnSet;
use muds_table::{Column, Table};

use crate::pli::{Pli, RowId};

impl Pli {
    /// Exact witness search over this PLI's clusters: looks for two rows of
    /// one cluster that agree on every column of `rest` and, with `rhs`
    /// given, differ on it. If this is the PLI of column `p`, that answers
    /// "is `{p} ∪ rest` still not unique?" (`rhs` `None`) or "does it still
    /// not determine `rhs`?" without building the PLI of the combination.
    ///
    /// Clusters are walked in canonical order and the walk stops at the
    /// first witness. Returns whether one was found and the rows visited,
    /// which depend on the data alone (the row hash is fixed, never seeded).
    pub fn find_witness(&self, rest: &[&[u32]], rhs: Option<&[u32]>) -> (bool, usize) {
        let mut slots = Vec::new();
        let mut visited = 0;
        for cluster in self.clusters() {
            let (found, rows) =
                cluster_witness(cluster, rest, rhs, |row| row_hash(rest, row), &mut slots);
            visited += rows;
            if found {
                return (true, visited);
            }
        }
        (false, visited)
    }
}

/// Marks an empty slot of [`cluster_witness`]'s table.
const NO_ROW: RowId = RowId::MAX;

/// One cluster of [`Pli::find_witness`]. Every row is keyed by `hash` of
/// its codes on `rest` into an open-addressing table that maps each hash
/// to one representative row. A row whose hash meets a representative
/// with an equal tuple is a witness unless `rhs` is given and agrees (a
/// group with two `rhs` values holds a row that differs from its
/// representative). A hash hit on a different tuple re-checks the whole
/// cluster exactly by sorting it, so the verdict never depends on `hash`.
/// Returns the verdict and the rows visited.
fn cluster_witness(
    cluster: &[RowId],
    rest: &[&[u32]],
    rhs: Option<&[u32]>,
    hash: impl Fn(RowId) -> u64,
    slots: &mut Vec<(u64, RowId)>,
) -> (bool, usize) {
    let same = |x: RowId, y: RowId| rest.iter().all(|c| c[x as usize] == c[y as usize]);
    let splits = |x: RowId, y: RowId| rhs.is_none_or(|a| a[x as usize] != a[y as usize]);
    let bits = (2 * cluster.len()).max(2).next_power_of_two().trailing_zeros();
    let mask = (1usize << bits) - 1;
    slots.clear();
    slots.resize(mask + 1, (0, NO_ROW));
    for (i, &row) in cluster.iter().enumerate() {
        let h = hash(row);
        // The high bits: the multiplicative row hash mixes upwards.
        let mut slot = (h >> (64 - bits)) as usize;
        loop {
            let (key, rep) = slots[slot];
            if rep == NO_ROW {
                slots[slot] = (h, row);
                break;
            }
            if key == h {
                if !same(rep, row) {
                    let mut sorted = cluster.to_vec();
                    sorted.sort_unstable_by(|&x, &y| {
                        let by_rest = rest.iter().map(|c| c[x as usize].cmp(&c[y as usize]));
                        let by_rhs = rhs.map(|a| a[x as usize].cmp(&a[y as usize]));
                        by_rest.chain(by_rhs).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
                    });
                    let mut pairs = sorted.iter().zip(sorted.iter().skip(1));
                    let found = pairs.any(|(&x, &y)| same(x, y) && splits(x, y));
                    return (found, cluster.len());
                }
                if splits(rep, row) {
                    return (true, i + 1);
                }
                break;
            }
            slot = (slot + 1) & mask;
        }
    }
    (false, cluster.len())
}

/// The fixed hash of `row`'s codes on `rest` (FxHash's rotate-xor-multiply
/// step): the same on every run and thread, so the rows a witness search
/// visits are reproducible.
fn row_hash(rest: &[&[u32]], row: RowId) -> u64 {
    rest.iter().fold(0u64, |h, codes| {
        (h.rotate_left(5) ^ u64::from(codes[row as usize])).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// Witness probe for an append: answers "is `X` still unique?" and "does
/// `X` still determine `a`?" on a table whose rows `old_rows..` were just
/// appended, for sets that held on the rows before them (the old minimal
/// positives and every superset of one). A pair that breaks such a set
/// must include an appended row, so the probe finds, for each appended row
/// `j`, the first row `i ≠ j` that agrees with it on `X`, reading only the
/// appended rows' clusters of one pivot column of `X` (the highest
/// `distinct_count()`, lowest index on ties; each column is gathered once,
/// on first use). `X` is still unique iff no appended row has such an `i`;
/// `X → a` still holds iff every `i` has `j`'s value of `a`. One pair per
/// appended row suffices for the FD because old rows come first in row
/// order, the old rows of one `X`-group share `a` (the FD held), and a
/// group of appended rows only is compared against its first member.
///
/// The rows found for the last set are kept, so the FDs of one left-hand
/// side cost one scan. A set with a column outside `affected` (where every
/// appended row is alone in its cluster) holds without a scan. The probe
/// is sequential and hash-free, so the rows it visits depend on the data
/// alone.
pub struct AppendProbe<'a> {
    table: &'a Table,
    old_rows: usize,
    affected: ColumnSet,
    /// Per column, once gathered: the rows, ascending, that share a code
    /// with some appended row, one cluster per such code. The appended
    /// rows are each cluster's tail.
    gathered: Vec<Option<Vec<Vec<RowId>>>>,
    /// The last set scanned and, per appended row, its first agreeing row.
    last: Option<ColumnSet>,
    firsts: Vec<Option<usize>>,
    visited: u64,
}

impl<'a> AppendProbe<'a> {
    /// A probe over `table`, whose rows from `old_rows` on are appended and
    /// whose columns outside `affected` give every appended row a value of
    /// its own.
    pub fn new(table: &'a Table, old_rows: usize, affected: &ColumnSet) -> Self {
        AppendProbe {
            table,
            old_rows,
            affected: *affected,
            gathered: (0..table.num_columns()).map(|_| None).collect(),
            last: None,
            firsts: Vec::new(),
            visited: 0,
        }
    }

    /// The table probed.
    pub fn table(&self) -> &'a Table {
        self.table
    }

    /// Rows compared against an appended row so far, over every scan.
    pub fn rows_visited(&self) -> u64 {
        self.visited
    }

    /// True iff `set`, unique on the rows before the append, still is.
    pub fn is_unique(&mut self, set: &ColumnSet) -> bool {
        self.first_agreeing(set).iter().all(Option::is_none)
    }

    /// True iff `lhs → rhs`, valid on the rows before the append, still
    /// holds. Trivial FDs (`rhs ∈ lhs`) hold without a scan.
    pub fn determines(&mut self, lhs: &ColumnSet, rhs: usize) -> bool {
        if lhs.contains(rhs) {
            return true;
        }
        let (a, old_rows) = (self.table.column(rhs).codes(), self.old_rows);
        let firsts = self.first_agreeing(lhs);
        firsts.iter().zip(old_rows..).all(|(i, j)| i.is_none_or(|i| a[i] == a[j]))
    }

    /// Per appended row `j`, the first row `i ≠ j` that agrees with it on
    /// `set`, if any.
    fn first_agreeing(&mut self, set: &ColumnSet) -> &[Option<usize>] {
        if self.last != Some(*set) {
            self.firsts = self.scan(set);
            self.last = Some(*set);
        }
        &self.firsts
    }

    /// One pass over each pivot cluster. Its appended rows are sorted by
    /// their codes on the rest of `set` (ties by row), so each run of equal
    /// codes is one group, first member first; the cluster's old rows are
    /// then walked in row order, each binary-searched among the groups,
    /// until every group has met its first old row. That row, if any, is
    /// the first agreeing row of each of its group's members; otherwise a
    /// member's is the group's first, and the first's is the second.
    fn scan(&mut self, set: &ColumnSet) -> Vec<Option<usize>> {
        let table = self.table;
        let (old_rows, num_rows) = (self.old_rows, table.num_rows());
        let mut firsts = vec![None; num_rows - old_rows];
        if !set.is_subset_of(&self.affected) {
            return firsts;
        }
        let by_distinct = |c: usize| (table.column(c).distinct_count(), Reverse(c));
        let Some(pivot) = set.iter().max_by_key(|&c| by_distinct(c)) else {
            // Every row agrees on ∅: row 0 is the first for every other row.
            for (first, j) in firsts.iter_mut().zip(old_rows..) {
                *first = [0, 1].into_iter().find(|&i| i != j && i < num_rows);
                self.visited += u64::from(first.is_some());
            }
            return firsts;
        };
        let rest: Vec<&[u32]> =
            set.iter().filter(|&c| c != pivot).map(|c| table.column(c).codes()).collect();
        let by_rest = |x: RowId, y: RowId| {
            let mut order = rest.iter().map(|c| c[x as usize].cmp(&c[y as usize]));
            order.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
        };
        let clusters =
            self.gathered[pivot].get_or_insert_with(|| gather(table.column(pivot), old_rows));
        let (mut appended, mut leaders, mut matched) = (Vec::new(), Vec::new(), Vec::new());
        for cluster in clusters.iter() {
            let (old, tail) =
                cluster.split_at(cluster.partition_point(|&r| (r as usize) < old_rows));
            appended.clear();
            appended.extend_from_slice(tail);
            appended.sort_unstable_by(|&x, &y| by_rest(x, y).then(x.cmp(&y)));
            // `leaders[g]`: where group `g` starts in `appended`.
            leaders.clear();
            leaders.extend(
                (0..appended.len())
                    .filter(|&p| p == 0 || by_rest(appended[p - 1], appended[p]).is_ne()),
            );
            matched.clear();
            matched.resize(leaders.len(), None);
            let mut open = leaders.len();
            for &i in old {
                if open == 0 {
                    break;
                }
                self.visited += 1;
                if let Ok(g) = leaders.binary_search_by(|&p| by_rest(appended[p], i)) {
                    if matched[g].is_none() {
                        matched[g] = Some(i as usize);
                        open -= 1;
                    }
                }
            }
            self.visited += tail.len() as u64 - 1;
            let ends = leaders.iter().skip(1).copied().chain([appended.len()]);
            for ((&start, end), old_match) in leaders.iter().zip(ends).zip(&matched) {
                let group = &appended[start..end];
                for (k, &j) in group.iter().enumerate() {
                    let own = group.get(usize::from(k == 0)).map(|&i| i as usize);
                    firsts[j as usize - old_rows] = old_match.or(own);
                }
            }
        }
        firsts
    }
}

/// The clusters of `column`'s rows from `old_rows` on: the rows,
/// ascending, that share a code with an appended row, bucketed by that
/// code. One pass over the column keeps those rows branch-free (each row
/// is written, only a kept one advances the end), however many are kept;
/// a second pass over the kept rows alone buckets them.
fn gather(column: &Column, old_rows: usize) -> Vec<Vec<RowId>> {
    let codes = column.codes();
    let mut slot = vec![u32::MAX; column.code_domain()];
    let mut k = 0u32;
    for &code in &codes[old_rows..] {
        let s = &mut slot[code as usize];
        if *s == u32::MAX {
            (*s, k) = (k, k + 1);
        }
    }
    let mut kept = vec![0 as RowId; codes.len() + 1];
    let mut end = 0;
    for (row, &code) in codes.iter().enumerate() {
        kept[end] = row as RowId;
        end += usize::from(slot[code as usize] != u32::MAX);
    }
    let mut clusters: Vec<Vec<RowId>> = vec![Vec::new(); k as usize];
    for &row in &kept[..end] {
        clusters[slot[codes[row as usize] as usize] as usize].push(row);
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PliCache;
    use muds_table::TableDelta;

    fn col(values: &[&str]) -> Column {
        Column::from_values("c", values)
    }

    fn random_codes(rng: &mut rand::rngs::StdRng, rows: usize, domain: u32) -> Vec<u32> {
        use rand::Rng;
        (0..rows).map(|_| rng.gen_range(0..domain)).collect()
    }

    /// Every pair of rows in `cluster` that agree on `rest` and, with `rhs`,
    /// differ on it: the definition a witness search must match.
    fn brute_witness(cluster: &[RowId], rest: &[&[u32]], rhs: Option<&[u32]>) -> bool {
        cluster.iter().enumerate().any(|(i, &x)| {
            cluster[i + 1..].iter().any(|&y| {
                rest.iter().all(|c| c[x as usize] == c[y as usize])
                    && rhs.is_none_or(|a| a[x as usize] != a[y as usize])
            })
        })
    }

    #[test]
    fn cluster_witness_verdicts_do_not_depend_on_the_hash() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(37);
        let mut slots = Vec::new();
        for round in 0..300 {
            let rows = rng.gen_range(2..40);
            let width = round % 4;
            let domain = rng.gen_range(1..=4);
            let rest: Vec<Vec<u32>> =
                (0..width).map(|_| random_codes(&mut rng, rows, domain)).collect();
            let rest: Vec<&[u32]> = rest.iter().map(Vec::as_slice).collect();
            let rhs_domain = rng.gen_range(1..=3);
            let rhs = random_codes(&mut rng, rows, rhs_domain);
            let mut cluster: Vec<RowId> =
                (0..rows as RowId).filter(|_| rng.gen_bool(0.7)).collect();
            if cluster.len() < 2 {
                cluster = vec![0, 1];
            }
            for rhs in [None, Some(rhs.as_slice())] {
                let expected = brute_witness(&cluster, &rest, rhs);
                let hashed =
                    cluster_witness(&cluster, &rest, rhs, |r| row_hash(&rest, r), &mut slots);
                // A constant hash makes every row after the first a hash hit,
                // so any two tuples that differ force the sorted re-check.
                let collided = cluster_witness(&cluster, &rest, rhs, |_| 7, &mut slots);
                assert_eq!(hashed.0, expected, "round {round}: row hash");
                assert_eq!(collided.0, expected, "round {round}: constant hash");
                assert!(hashed.1 <= cluster.len() && collided.1 <= cluster.len());
            }
        }
        // Rows 0 and 2 agree on `rest`, row 1 does not. Under the constant
        // hash row 1 meets row 0's tuple first, and only the sorted re-check
        // (which visits the whole cluster) pairs rows 0 and 2.
        let rest: [&[u32]; 1] = [&[5, 6, 5]];
        assert_eq!(cluster_witness(&[0, 1, 2], &rest, None, |_| 0, &mut slots), (true, 3));
        assert_eq!(
            cluster_witness(&[0, 1, 2], &rest, None, |r| row_hash(&rest, r), &mut slots),
            (true, 3)
        );
        // The rhs decides: rows 0 and 2 agree on it too, so no witness.
        let rhs: &[u32] = &[1, 2, 1];
        assert_eq!(cluster_witness(&[0, 1, 2], &rest, Some(rhs), |_| 0, &mut slots), (false, 3));
        let rhs: &[u32] = &[1, 1, 2];
        assert_eq!(cluster_witness(&[0, 1, 2], &rest, Some(rhs), |_| 0, &mut slots), (true, 3));
    }

    #[test]
    fn find_witness_stops_at_the_first_pair_in_canonical_order() {
        // Column p: clusters {0,1,2} and {3,4}; the other column splits the
        // first cluster three ways and pairs rows 3 and 4.
        let p = Pli::from_column(&col(&["a", "a", "a", "b", "b"]));
        let q = col(&["x", "y", "z", "w", "w"]);
        assert_eq!(p.find_witness(&[q.codes()], None), (true, 5));
        // Only the last cluster holds a witness, and it fails the rhs.
        let r = col(&["1", "1", "1", "2", "2"]);
        assert_eq!(p.find_witness(&[q.codes()], Some(r.codes())), (false, 5));
        // No other columns: the first cluster's first two rows are a pair.
        assert_eq!(p.find_witness(&[], None), (true, 2));
        assert_eq!(Pli::from_column(&col(&["a", "b"])).find_witness(&[], None), (false, 0));
    }

    fn table<S: AsRef<str> + Sync>(rows: &[Vec<S>], cols: usize) -> Table {
        let names: Vec<String> = (0..cols).map(|c| format!("c{c}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        Table::from_rows("t", &names, rows).unwrap().dedup_rows()
    }

    fn rows(rows: &[&[&str]]) -> Vec<Vec<String>> {
        rows.iter().map(|r| r.iter().map(|v| v.to_string()).collect()).collect()
    }

    /// Appends `append` to `old`, then checks every set (and, per rhs, every
    /// FD) that held on `old` both with an [`AppendProbe`] and with full
    /// PLIs of the new table, asserting they agree. Returns each check as
    /// `(set, rhs, holds now)`.
    fn probe_against_plis(
        old: &Table,
        append: Vec<Vec<String>>,
    ) -> Vec<(ColumnSet, Option<usize>, bool)> {
        let out = old.apply_delta(&TableDelta::Append { rows: append }).unwrap();
        let n = old.num_columns();
        let affected = ColumnSet::from_indices(out.affected_columns.iter().copied());
        let mut before = PliCache::new(old);
        let mut after = PliCache::new(&out.table);
        let mut probe = AppendProbe::new(&out.table, old.num_rows(), &affected);
        let mut checks = Vec::new();
        for bits in 0..1u32 << n {
            let set = ColumnSet::from_indices((0..n).filter(|c| bits >> c & 1 == 1));
            for rhs in std::iter::once(None).chain((0..n).map(Some)) {
                let (held, holds, probed) = match rhs {
                    None if before.is_unique(&set) => {
                        (true, after.is_unique(&set), probe.is_unique(&set))
                    }
                    Some(a) if before.determines(&set, a) => {
                        (true, after.determines(&set, a), probe.determines(&set, a))
                    }
                    _ => (false, false, false),
                };
                if held {
                    assert_eq!(probed, holds, "{set:?} rhs {rhs:?} after {:?}", out.table);
                    checks.push((set, rhs, holds));
                }
            }
        }
        checks
    }

    #[test]
    fn append_probe_agrees_with_plis_on_random_appends() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(41);
        let (mut broke, mut held) = (0, 0);
        for _ in 0..300 {
            let cols = rng.gen_range(1..=4);
            let domain = rng.gen_range(1..=4);
            // Code 0 is NULL.
            let cells = |rng: &mut StdRng, n: usize| -> Vec<Vec<String>> {
                (0..n)
                    .map(|_| {
                        (0..cols)
                            .map(|_| match rng.gen_range(0..=domain) {
                                0 => String::new(),
                                v => format!("v{v}"),
                            })
                            .collect()
                    })
                    .collect()
            };
            let old_rows = rng.gen_range(0..12);
            let old = table(&cells(&mut rng, old_rows), cols);
            let append_rows = rng.gen_range(1..8);
            for (_, _, holds) in probe_against_plis(&old, cells(&mut rng, append_rows)) {
                *if holds { &mut held } else { &mut broke } += 1;
            }
        }
        assert!(broke > 100 && held > 100, "broke {broke}, held {held}");
    }

    #[test]
    fn append_probe_edge_cases() {
        let check = |old: &[&[&str]], append: &[&[&str]], set: &[usize], rhs: Option<usize>| {
            let set = ColumnSet::from_indices(set.iter().copied());
            let old = table(&rows(old), old[0].len());
            let checks = probe_against_plis(&old, rows(append));
            checks.iter().find(|c| (c.0, c.1) == (set, rhs)).expect("set held before").2
        };
        // NULLs agree: an appended NULL breaks {c1} against the old NULL.
        let old: &[&[&str]] = &[&["1", ""], &["2", "x"]];
        assert!(!check(old, &[&["3", ""]], &[1], None));
        assert!(!check(old, &[&["3", ""]], &[1], Some(0)));
        // Two appended rows violate {c1} between themselves only.
        let old: &[&[&str]] = &[&["1", "a"], &["2", "b"]];
        assert!(!check(old, &[&["3", "c"], &["4", "c"]], &[1], None));
        assert!(check(old, &[&["3", "c"], &["4", "d"]], &[1], None));
        // c0 → c1: the first appended row agrees with old row 0 on both, the
        // second agrees with row 0 on c0 but not on c1.
        let old: &[&[&str]] = &[&["x", "1", "r0"], &["y", "2", "r1"]];
        assert!(!check(old, &[&["x", "1", "r2"], &["x", "3", "r3"]], &[0], Some(1)));
        assert!(check(old, &[&["x", "1", "r2"], &["x", "1", "r3"]], &[0], Some(1)));
        // A group of appended rows only: its third member differs from the
        // first on c1.
        assert!(!check(
            old,
            &[&["z", "1", "r2"], &["z", "1", "r3"], &["z", "2", "r4"]],
            &[0],
            Some(1)
        ));
        assert!(check(
            old,
            &[&["z", "1", "r2"], &["z", "1", "r3"], &["z", "1", "r4"]],
            &[0],
            Some(1)
        ));
        // One pivot cluster (c0 = p) holds two groups on {c0, c1}. Old rows
        // 0 and 1 both meet the first; the scan goes on to row 2, the
        // second group's first old row, whose c2 differs from row 4's.
        let old: &[&[&str]] = &[
            &["p", "u", "A", "r0"],
            &["p", "u", "A", "r1"],
            &["p", "w", "B", "r2"],
            &["q1", "u", "A", "r3"],
            &["q2", "u", "A", "r4"],
        ];
        let append: &[&[&str]] = &[&["p", "u", "A", "r5"], &["p", "w", "C", "r6"]];
        assert!(!check(old, append, &[0, 1], Some(2)));
        assert!(check(old, &[append[0], &["p", "w", "B", "r6"]], &[0, 1], Some(2)));
        let old: &[&[&str]] = &[&["x", "1", "r0"], &["y", "2", "r1"]];
        // c2 stays unique (outside the affected columns), so every set with
        // it holds; c0 ∪ c1 does not.
        assert!(check(old, &[&["x", "1", "r2"]], &[0, 2], None));
        assert!(!check(old, &[&["x", "1", "r2"]], &[0, 1], None));
        // ∅ → c1 on a constant column: kept by the same constant, broken by
        // another value.
        let old: &[&[&str]] = &[&["1", "k"], &["2", "k"]];
        assert!(check(old, &[&["3", "k"]], &[], Some(1)));
        assert!(!check(old, &[&["3", "k"], &["4", "j"]], &[], Some(1)));
        // ∅ is unique on one row only.
        assert!(!check(&[&["1", "k"]], &[&["2", "k"]], &[], None));
        // Trivial FDs hold without a scan.
        let t = table(&rows(&[&["1", "a"], &["1", "b"]]), 2);
        let mut probe = AppendProbe::new(&t, 1, &ColumnSet::full(2));
        assert!(probe.determines(&ColumnSet::single(0), 0));
        assert_eq!(probe.rows_visited(), 0);
        assert!(!probe.is_unique(&ColumnSet::single(0)));
        assert_eq!(probe.rows_visited(), 1);
    }

    #[test]
    fn append_probe_reads_each_pivot_cluster_once_per_set() {
        // A composite key of two 60-value columns, half of its 3600 rows
        // appended: each pivot cluster holds 30 appended rows, and a scan
        // per appended row would visit ~30 times the table.
        let row =
            |r: usize, id: &str| vec![format!("a{}", r % 60), format!("b{}", r / 60), id.into()];
        let old = table(&(0..1800).map(|r| row(r, "")).collect::<Vec<_>>(), 3);
        let key = ColumnSet::from_indices([0, 1]);
        let append: Vec<Vec<String>> = (1800..3600).map(|r| row(r, "")).collect();
        let out = old.apply_delta(&TableDelta::Append { rows: append }).unwrap();
        let mut probe = AppendProbe::new(&out.table, 1800, &ColumnSet::full(3));
        assert!(probe.is_unique(&key));
        assert!(probe.rows_visited() < 3600, "{} rows", probe.rows_visited());
        // An appended row that repeats an old key in a new row breaks it.
        let dup = vec![row(7, "dup")];
        let out = out.table.apply_delta(&TableDelta::Append { rows: dup }).unwrap();
        let mut probe = AppendProbe::new(&out.table, 3600, &ColumnSet::full(3));
        assert!(!probe.is_unique(&key));
    }
}
