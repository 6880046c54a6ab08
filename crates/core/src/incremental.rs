//! Incremental maintenance of a profiling result across a [`TableDelta`].
//!
//! Appending rows can only add duplicate pairs: a valid UCC or FD can
//! break, an invalid one can never start holding. Combined with the
//! affected-column report of [`Table::apply_delta`] — a dependency can only
//! break if every left-hand-side column is affected — most of the old
//! result carries over with *zero* data access (`delta.skipped`), and the
//! rest is revalidated level-wise (`delta.revalidated`). Every set checked
//! held before the append, so only a pair with an appended row can break
//! it: an [`AppendProbe`] reads just the appended rows' clusters of one
//! column per set and builds no PLI (`delta.append_rows` counts the rows
//! it compares).
//! Unary INDs have no such monotone direction (an append grows both the
//! dependent and the referenced value sets), so they are recomputed exactly
//! with SPIDER — cheap, because the incrementally maintained dictionaries
//! *are* SPIDER's sorted duplicate-free input (the join-aware reuse of
//! arXiv 2012.06237: unary-IND state stays live across deltas).
//!
//! Deletes run the other way: they can only turn negatives (non-UCCs,
//! non-FDs) positive. Negatives are downward closed, so the old labelling
//! of the whole lattice survives iff its *maximal* negatives all stay
//! negative — and those follow from the old minimal positives alone by
//! hypergraph duality (Bläsius/Friedrich/Schirneck, arXiv 2103.13331): the
//! maximal non-UCCs are the complements of the minimal hitting sets of the
//! minimal UCCs, and per right-hand side `a` the maximal non-FD left-hand
//! sides are the complements, within `R \ {a}`, of the minimal hitting sets
//! of `a`'s minimal left-hand sides. A border set can only turn positive if
//! every column of it is affected, so only those are checked
//! (`delta.revalidated` counts them), stopping at the first that turned.
//! A check needs one witness, not a partition: two surviving rows that
//! agree on the set (and, for a non-FD, differ on its right-hand side).
//! A [`BorderProbe`] looks for one in the clusters of one pivot column of
//! the set, whatever its size, and stops at the first, so a kept delete
//! builds only its pivots' single-column PLIs; only a set that turned
//! positive is scanned to the end (`delta.border_rows` counts the rows
//! visited).
//! If no set turned, the old UCCs and FDs carry over (`delta.skipped`
//! counts them) and only the INDs are recomputed; otherwise the delete
//! re-profiles the post-delta table from scratch.
//!
//! The pair is the certificate, so a kept delete keeps it: the result
//! carries one pair per border set ([`Witnesses`]). The next delete moves
//! each row id past the deleted rows, drops a pair that lost a row, and
//! checks a carried pair on the post-delete table before it trusts it
//! (two rows that agree on the set and differ on the rhs); only a set
//! whose pair fails is searched (`delta.witnesses_reused` counts the
//! others). A pair can cost a search, never a verdict. Appends and
//! identity deltas keep every row's id, so they carry the pairs as they
//! are; a re-profile starts without any.
//!
//! Both directions take a dependency as `(set, rhs)`: `rhs` is `None` for
//! a UCC, which is an FD without a right-hand side, over the universe `R`,
//! and `Some(a)` for an FD over `R \ {a}`. The old result is listed once
//! as minimal positives per rhs, UCCs first, and one loop serves both
//! kinds; an append checks a UCC and the FDs of its set on one scan.
//!
//! An identity delta (nothing appended or deleted) carries the old result
//! wholesale. Every path is equivalent to re-running [`profile`] on the
//! post-delta table — an equivalence the differential fuzzer
//! (`crates/check`) asserts across all four algorithms on every adversarial
//! table it generates.

use std::collections::BTreeMap;

use muds_fd::FdSet;
use muds_lattice::{minimal_hitting_sets, ColumnSet};
use muds_pli::{AppendProbe, BorderProbe, RowPair};
use muds_table::{DeltaOutcome, Table, TableDelta, TableError};

use crate::profiler::{
    ensure_ambient, finish, profile, table_stats, ProfileResult, ProfilerConfig,
};

/// Per dependency `(set, rhs)` of the negative border, a pair of rows that
/// refuted it (module docs).
pub(crate) type Witnesses = BTreeMap<(ColumnSet, Option<usize>), RowPair>;

/// The outcome of [`apply_incremental`]: the post-delta table plus a
/// [`ProfileResult`] equivalent to profiling it from scratch.
#[derive(Debug)]
pub struct IncrementalOutcome {
    /// The post-delta table (fingerprint-identical to a from-scratch build
    /// of the final data).
    pub table: Table,
    /// Dependency sets for `table` — same contents as
    /// `profile(&table, old.algorithm, config)`.
    pub result: ProfileResult,
    /// Rows actually appended (after duplicate dropping).
    pub appended_rows: usize,
    /// Rows deleted.
    pub deleted_rows: usize,
    /// Appended rows dropped as duplicates of existing rows.
    pub rows_deduplicated: usize,
    /// UCC/FD validity checks performed (`delta.revalidated`): on an
    /// append, checks of old and candidate dependencies; on a delete, checks
    /// of the old result's maximal negatives (see the module docs).
    pub revalidated: u64,
    /// Dependencies carried over without being checked (`delta.skipped`):
    /// on a delete, every old UCC and FD when the negative border held, and
    /// 0 when the delete re-profiled.
    pub skipped: u64,
}

/// Applies `delta` to `old_table` and brings `old`'s dependency sets up to
/// date: appends revalidate only what they could have broken, deletes
/// check the old negative border and re-profile only if it moved. See the
/// module docs.
///
/// `old` must be the result of profiling `old_table` (any algorithm — the
/// dependency sets agree across all four).
pub fn apply_incremental(
    old: &ProfileResult,
    old_table: &Table,
    delta: &TableDelta,
) -> Result<IncrementalOutcome, TableError> {
    // The guard (when this installs the registry) outlives the inner
    // profile() of a delete whose border moved, so every span and counter
    // lands in the one snapshot that profile() drains.
    let (metrics, _guard) = ensure_ambient();
    let revalidated_meter = muds_obs::counter("delta.revalidated");
    let skipped_meter = muds_obs::counter("delta.skipped");

    let span = muds_obs::span("delta apply");
    let DeltaOutcome { table, affected_columns, appended_rows, deleted_rows, rows_deduplicated } =
        old_table.apply_delta(delta)?;
    span.stop();
    let identity = appended_rows == 0 && deleted_rows == 0;
    let d = ColumnSet::from_indices(affected_columns);

    // Column statistics, when the old result carried them: an identity
    // delta carries them untouched, any real delta recomputes them
    // table-wide — the new row count enters every column's null/distinct
    // fractions, so no per-column carry can satisfy `stats ≡ from-scratch`
    // (DESIGN.md §15).
    if old.stats.is_some() {
        let counter = if identity { "stats.delta_carried" } else { "stats.delta_recomputed" };
        muds_obs::add(counter, table.num_columns() as u64);
    }
    let (result, revalidated, skipped) = if identity {
        let skipped = (old.inds.len() + old.minimal_uccs.len() + old.fds.len()) as u64;
        skipped_meter.add(skipped);
        let mut result = finish(
            old.algorithm,
            old.inds.clone(),
            old.minimal_uccs.clone(),
            old.fds.clone(),
            &metrics,
        );
        result.stats = old.stats.clone();
        result.witnesses = old.witnesses.clone();
        (result, 0, skipped)
    } else if let TableDelta::Delete { rows } = delta {
        let span = muds_obs::span("delta border");
        let mut probe = BorderProbe::new(&table);
        let mut witnesses = shifted_past(&old.witnesses, rows);
        let (held, revalidated, reused) =
            border_holds(&mut probe, old, table.num_columns(), &d, &mut witnesses);
        span.stop();
        revalidated_meter.add(revalidated);
        muds_obs::add("delta.border_rows", probe.rows_visited());
        muds_obs::add("delta.witnesses_reused", reused);
        if held {
            let skipped = (old.minimal_uccs.len() + old.fds.len()) as u64;
            skipped_meter.add(skipped);
            let mut result =
                with_fresh_inds(old, &table, old.minimal_uccs.clone(), old.fds.clone(), &metrics);
            result.witnesses = witnesses;
            (result, revalidated, skipped)
        } else {
            let config = ProfilerConfig { stats: old.stats.is_some(), ..ProfilerConfig::default() };
            (profile(&table, old.algorithm, &config), revalidated, 0)
        }
    } else {
        let span = muds_obs::span("delta revalidate");
        let mut probe = AppendProbe::new(&table, old_table.num_rows(), &d);
        let (minimal_uccs, fds, revalidated, skipped) =
            append_repair(&mut probe, old, table.num_columns(), &d);
        span.stop();
        muds_obs::add("delta.append_rows", probe.rows_visited());
        revalidated_meter.add(revalidated);
        skipped_meter.add(skipped);
        let mut result = with_fresh_inds(old, &table, minimal_uccs, fds, &metrics);
        result.witnesses = old.witnesses.clone();
        (result, revalidated, skipped)
    };
    Ok(IncrementalOutcome {
        table,
        result,
        appended_rows,
        deleted_rows,
        rows_deduplicated,
        revalidated,
        skipped,
    })
}

/// Completes a result whose UCCs and FDs are settled: unary INDs by SPIDER
/// on the post-delta table, and column statistics iff `old` carried them.
fn with_fresh_inds(
    old: &ProfileResult,
    table: &Table,
    minimal_uccs: Vec<ColumnSet>,
    fds: FdSet,
    metrics: &muds_obs::Metrics,
) -> ProfileResult {
    let span = muds_obs::span("SPIDER");
    let inds = muds_ind::spider(table);
    span.stop();
    let stats = old.stats.as_ref().map(|_| table_stats(table, &inds, &minimal_uccs));
    let mut result = finish(old.algorithm, inds, minimal_uccs, fds, metrics);
    result.stats = stats;
    result
}

/// `old`'s minimal positives per right-hand side, as `(rhs, sets)`: first
/// `None` with the minimal UCCs (a UCC is a dependency without a
/// right-hand side), then every column `a` in order with `a`'s minimal
/// left-hand sides, each list sorted.
fn positives(old: &ProfileResult, n: usize) -> Vec<(Option<usize>, Vec<ColumnSet>)> {
    let mut lists = vec![(None, old.minimal_uccs.clone())];
    lists.extend((0..n).map(|a| (Some(a), Vec::new())));
    for (lhs, rhs_set) in old.fds.iter_entries() {
        for a in rhs_set.iter() {
            lists[a + 1].1.push(*lhs);
        }
    }
    lists
}

/// The columns a dependency with right-hand side `rhs` ranges over: `R`
/// for a UCC, `R \ {a}` for an FD with rhs `a`.
fn universe(n: usize, rhs: Option<usize>) -> ColumnSet {
    let all = ColumnSet::full(n);
    rhs.map_or(all, |a| all.without(a))
}

/// `witnesses` with each row id moved past the `deleted` rows (ids of
/// the old table, in any order, repeats allowed), dropping each pair that
/// lost a row.
fn shifted_past(witnesses: &Witnesses, deleted: &[usize]) -> Witnesses {
    let mut deleted = deleted.to_vec();
    deleted.sort_unstable();
    deleted.dedup();
    let shift = |row: u32| match deleted.binary_search(&(row as usize)) {
        Ok(_) => None,
        Err(before) => Some(row - before as u32),
    };
    let pairs = witnesses.iter().filter_map(|(&key, &(x, y))| Some((key, (shift(x)?, shift(y)?))));
    pairs.collect()
}

/// Delete direction: true iff every maximal negative of `old` is still
/// negative on `probe`'s post-delete table, plus the number of checks run
/// and how many of them a carried pair answered. Per right-hand side,
/// UCCs first, the maximal negatives are the complements within the
/// universe of the minimal hitting sets of the old minimal positives
/// (module docs); one with a column outside the affected set `d` keeps a
/// violating pair of surviving rows, so only subsets of `d` are checked.
/// A check first tries the set's pair in `witnesses` (already moved past
/// the deleted rows), and only if that pair does not refute the set on
/// this table runs a [`BorderProbe`] search for one surviving pair of rows
/// that agree on the set (and differ on its rhs), up to the first witness.
/// Stops at the first set without one: it turned positive, which only the
/// full search can show. When every set held, `witnesses` is left with a
/// pair per border set that has one: the pair checked or found, or for an
/// unchecked set its carried pair.
fn border_holds(
    probe: &mut BorderProbe<'_>,
    old: &ProfileResult,
    n: usize,
    d: &ColumnSet,
    witnesses: &mut Witnesses,
) -> (bool, u64, u64) {
    let carried = std::mem::take(witnesses);
    let (mut checks, mut reused) = (0u64, 0u64);
    for (rhs, positives) in positives(old, n) {
        let universe = universe(n, rhs);
        for hit in minimal_hitting_sets(&positives, &universe) {
            let negative = universe.difference(&hit);
            let mut pair = carried.get(&(negative, rhs)).copied();
            if negative.is_subset_of(d) {
                checks += 1;
                if pair.is_some_and(|p| probe.refutes(&negative, rhs, p)) {
                    reused += 1;
                } else {
                    pair = probe.witness(&negative, rhs);
                    if pair.is_none() {
                        return (false, checks, reused);
                    }
                }
            }
            if let Some(pair) = pair {
                witnesses.insert((negative, rhs), pair);
            }
        }
    }
    (true, checks, reused)
}

/// True iff some set in `minimal` is a subset of `x` (so `x` is valid but
/// not minimal, or equal to an already-confirmed set).
fn dominated(minimal: &[ColumnSet], x: &ColumnSet) -> bool {
    minimal.iter().any(|m| m.is_subset_of(x))
}

/// Drops non-minimal sets and sorts the survivors the way every profiling
/// pipeline sorts its UCC list.
fn minimize_sets(mut sets: Vec<ColumnSet>) -> Vec<ColumnSet> {
    sets.sort_unstable_by_key(|s| (s.cardinality(), *s));
    sets.dedup();
    let mut out: Vec<ColumnSet> = Vec::new();
    for s in sets {
        if !dominated(&out, &s) {
            out.push(s);
        }
    }
    out.sort_unstable();
    out
}

/// Append direction: the minimal UCCs and FDs of `probe`'s post-append
/// table. A positive can only break, and only if it lies inside the
/// affected set `d`. Per right-hand side, the broken sets are replaced by
/// the minimal sets that hold, found with an upward level-wise search
/// within the universe: every set that holds *now* held *before*, hence is
/// a superset of some old minimal positive, so growing the broken sets
/// covers all candidates. Since every set checked held before, `probe` can
/// answer each one. The old positives inside `d` are checked first, in
/// `(set, rhs)` order, so a UCC and the FDs of its set share one scan; the
/// repairs follow per rhs, `None` first. Also returns the checks run
/// (`delta.revalidated`) and the positives carried unchecked
/// (`delta.skipped`).
fn append_repair(
    probe: &mut AppendProbe<'_>,
    old: &ProfileResult,
    n: usize,
    d: &ColumnSet,
) -> (Vec<ColumnSet>, FdSet, u64, u64) {
    let lists = positives(old, n);
    let mut confirmed: Vec<Vec<ColumnSet>> = vec![Vec::new(); lists.len()];
    let mut broken = confirmed.clone();
    let mut to_check: Vec<(ColumnSet, Option<usize>, usize)> = Vec::new();
    for (k, (rhs, sets)) in lists.iter().enumerate() {
        for &x in sets {
            if x.is_subset_of(d) {
                to_check.push((x, *rhs, k));
            } else {
                confirmed[k].push(x);
            }
        }
    }
    let skipped = confirmed.iter().map(Vec::len).sum::<usize>() as u64;
    let mut revalidated = to_check.len() as u64;
    // By `(set, rhs)` (`k` follows `rhs`): a UCC and the FDs on its set
    // come in a row and share the probe's scan.
    to_check.sort_unstable();
    for (x, rhs, k) in to_check {
        if probe.holds(&x, rhs) { &mut confirmed[k] } else { &mut broken[k] }.push(x);
    }
    let (mut minimal_uccs, mut fds) = (Vec::new(), FdSet::new());
    for (((rhs, _), mut confirmed), mut frontier) in lists.into_iter().zip(confirmed).zip(broken) {
        let universe = universe(n, rhs);
        while !frontier.is_empty() {
            // One column bigger per round; pruning against already-confirmed
            // sets kills every path that can only reach non-minimal sets.
            let mut candidates: Vec<ColumnSet> = Vec::new();
            for x in &frontier {
                for c in universe.difference(x).iter() {
                    let y = x.with(c);
                    if !dominated(&confirmed, &y) && !candidates.contains(&y) {
                        candidates.push(y);
                    }
                }
            }
            candidates.sort_unstable();
            revalidated += candidates.len() as u64;
            frontier.clear();
            for y in candidates {
                if probe.holds(&y, rhs) {
                    confirmed.push(y);
                } else {
                    frontier.push(y);
                }
            }
        }
        // Broken sets of different sizes can confirm supersets of each
        // other within one round; one final minimization settles it.
        let minimal = minimize_sets(confirmed);
        match rhs {
            None => minimal_uccs = minimal,
            Some(a) => {
                for lhs in minimal {
                    fds.insert(lhs, a);
                }
            }
        }
    }
    (minimal_uccs, fds, revalidated, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{profile, Algorithm, ProfilerConfig};
    use muds_pli::RowId;

    fn table(rows: &[&[&str]]) -> Table {
        let names: Vec<String> =
            (0..rows.first().map_or(0, |r| r.len())).map(|i| format!("c{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<&str>> = rows.iter().map(|r| r.to_vec()).collect();
        Table::from_rows("t", &name_refs, &rows).unwrap().dedup_rows()
    }

    /// `apply_incremental` must agree with a from-scratch profile of the
    /// post-delta table on every dependency set, for every algorithm.
    /// Returns each algorithm's old result and outcome.
    fn incremental_runs(t: &Table, delta: &TableDelta) -> Vec<(ProfileResult, IncrementalOutcome)> {
        let cfg = ProfilerConfig::default();
        Algorithm::ALL
            .iter()
            .map(|&alg| {
                let old = profile(t, alg, &cfg);
                let inc = apply_incremental(&old, t, delta).unwrap();
                let scratch = profile(&inc.table, alg, &cfg);
                assert_eq!(inc.result.inds, scratch.inds, "{} INDs", alg.name());
                assert_eq!(inc.result.minimal_uccs, scratch.minimal_uccs, "{} UCCs", alg.name());
                assert_eq!(
                    inc.result.fds.to_sorted_vec(),
                    scratch.fds.to_sorted_vec(),
                    "{} FDs",
                    alg.name()
                );
                (old, inc)
            })
            .collect()
    }

    /// [`incremental_runs`], returning the last algorithm's outcome.
    fn assert_incremental_equivalent(t: &Table, delta: &TableDelta) -> IncrementalOutcome {
        incremental_runs(t, delta).pop().unwrap().1
    }

    /// Deletes `rows` under every algorithm, asserts equivalence with a
    /// from-scratch profile, and pins the branch taken. `border_kept`: the
    /// old maximal negatives all stayed negative, so only the delta, the
    /// border checks and SPIDER ran and every old UCC and FD was carried;
    /// otherwise the delete re-profiled (the algorithm's own phases ran)
    /// and carried nothing. Returns the last algorithm's outcome.
    fn assert_delete_branch(t: &Table, rows: &[usize], border_kept: bool) -> IncrementalOutcome {
        let runs = incremental_runs(t, &TableDelta::Delete { rows: rows.to_vec() });
        for (old, inc) in &runs {
            let alg = old.algorithm;
            let mut phases: Vec<&str> = inc.result.phases.iter().map(|p| p.name.as_str()).collect();
            phases.sort_unstable();
            phases.dedup();
            if border_kept {
                assert_eq!(phases, ["SPIDER", "delta apply", "delta border"], "{}", alg.name());
                assert_eq!(inc.skipped, (old.minimal_uccs.len() + old.fds.len()) as u64);
            } else {
                assert_eq!(inc.skipped, 0, "{}", alg.name());
                assert!(phases.contains(&"delta border"), "{}: {phases:?}", alg.name());
                let scratch = profile(&inc.table, alg, &ProfilerConfig::default());
                assert!(!scratch.phases.is_empty());
                for p in &scratch.phases {
                    assert!(phases.contains(&p.name.as_str()), "{} not in {phases:?}", p.name);
                }
            }
        }
        runs.into_iter().last().unwrap().1
    }

    fn append(rows: &[&[&str]]) -> TableDelta {
        TableDelta::Append {
            rows: rows.iter().map(|r| r.iter().map(|v| v.to_string()).collect()).collect(),
        }
    }

    #[test]
    fn append_breaking_a_ucc_finds_replacements() {
        // id is the key; appending a duplicate id forces wider UCCs.
        let t = table(&[&["1", "a", "x"], &["2", "a", "y"], &["3", "b", "x"]]);
        let out = assert_incremental_equivalent(&t, &append(&[&["3", "a", "y"]]));
        assert!(out.revalidated > 0);
    }

    #[test]
    fn append_outside_affected_columns_skips_everything() {
        let t = table(&[&["1", "a"], &["2", "a"], &["3", "b"]]);
        // Entirely fresh values: no column gains a duplicate, every
        // dependency carries over with zero checks.
        let out = assert_incremental_equivalent(&t, &append(&[&["9", "z"]]));
        assert_eq!(out.revalidated, 0);
        assert!(out.skipped > 0);
    }

    #[test]
    fn append_breaking_an_fd_finds_replacements() {
        // c1 → c2 holds; the appended row breaks it (a→y vs a→x).
        let t = table(&[&["1", "a", "x"], &["2", "a", "x"], &["3", "b", "y"]]);
        assert_incremental_equivalent(&t, &append(&[&["4", "a", "y"]]));
    }

    #[test]
    fn append_duplicate_row_is_identity() {
        let t = table(&[&["1", "a"], &["2", "b"]]);
        let out = assert_incremental_equivalent(&t, &append(&[&["1", "a"]]));
        assert_eq!(out.rows_deduplicated, 1);
        assert_eq!(out.appended_rows, 0);
        assert_eq!(out.revalidated, 0);
    }

    #[test]
    fn empty_append_is_identity() {
        let t = table(&[&["1", "a"], &["2", "b"]]);
        let out = assert_incremental_equivalent(&t, &append(&[]));
        assert_eq!(out.revalidated, 0);
        assert_eq!(muds_table::fingerprint(&out.table), muds_table::fingerprint(&t));
    }

    #[test]
    fn delete_revealing_a_smaller_ucc() {
        // c1 has duplicates only through row 2; deleting it makes {c1}
        // unique, demoting any wider minimal UCC that contained it.
        let t = table(&[&["1", "a", "x"], &["2", "b", "x"], &["3", "a", "y"]]);
        assert_delete_branch(&t, &[2], false);
    }

    #[test]
    fn delete_revealing_an_fd() {
        // a→x, a→y blocks c1 → c2; deleting the y row restores the FD.
        let t = table(&[&["1", "a", "x"], &["2", "a", "y"], &["3", "b", "x"]]);
        assert_delete_branch(&t, &[1], false);
    }

    #[test]
    fn delete_of_a_pair_sharing_a_value_no_survivor_holds() {
        // Rows 0 and 1 are c0's only violating pair. No survivor holds
        // "a", so c0 is affected only by counting both deleted rows; then
        // the border {c0} turns unique and the delete re-profiles.
        let t = table(&[&["a", "x"], &["a", "y"], &["b", "z"], &["c", "w"]]);
        let out = assert_delete_branch(&t, &[0, 1], false);
        assert_eq!(out.result.minimal_uccs.len(), 2);
    }

    #[test]
    fn delete_keeping_the_border_carries_uccs_and_fds() {
        // {c1, c2} is the only wide minimal UCC; every maximal negative
        // ({c1}, {c2}, and c1 ↛ c0, c2 ↛ c0, c1 ↛ c2, c2 ↛ c1) keeps a
        // violating pair after row 3 goes.
        let t = table(&[&["1", "a", "x"], &["2", "a", "y"], &["3", "b", "x"], &["4", "b", "y"]]);
        let out = assert_delete_branch(&t, &[3], true);
        assert_eq!(out.revalidated, 6);
        // Row 4 was unique in both columns, so no border set containing a
        // column can flip: only the empty lhs of ∅ ↛ c1 is checked.
        let t = table(&[&["1", "a"], &["2", "a"], &["3", "b"], &["4", "b"], &["5", "c"]]);
        let out = assert_delete_branch(&t, &[4], true);
        assert_eq!(out.revalidated, 1);
    }

    #[test]
    fn delete_all_rows() {
        // One row: every set is unique already, so there is no negative
        // border to move.
        assert_delete_branch(&table(&[&["1", "a"]]), &[0], true);
        // Two rows: ∅ is the maximal non-UCC, and it turns unique.
        assert_delete_branch(&table(&[&["1", "a"], &["2", "b"]]), &[0, 1], false);
    }

    #[test]
    fn delete_down_to_one_row_makes_everything_unique() {
        let t = table(&[&["1", "a", "x"], &["2", "a", "y"], &["3", "b", "x"]]);
        let out = assert_delete_branch(&t, &[0, 2], false);
        assert_eq!(out.result.minimal_uccs, vec![ColumnSet::empty()]);
    }

    #[test]
    fn constant_column_has_no_fd_border() {
        // ∅ → c1 leaves rhs c1 without maximal negatives; the border is
        // the non-UCC {c1} and the non-FD c1 ↛ c0.
        let t = table(&[&["1", "k"], &["2", "k"], &["3", "k"]]);
        let out = assert_delete_branch(&t, &[0], true);
        assert_eq!(out.revalidated, 2);
    }

    #[test]
    fn delete_across_the_64_column_word_boundary() {
        // Columns 0 and 64–65 vary; the 63 between are constant.
        let rows = [["1", "a", "x"], ["2", "a", "y"], ["3", "b", "x"], ["4", "b", "y"]];
        let wide: Vec<Vec<&str>> = rows
            .iter()
            .map(|r| {
                let mut row = vec!["k"; 66];
                (row[0], row[64], row[65]) = (r[0], r[1], r[2]);
                row
            })
            .collect();
        let wide: Vec<&[&str]> = wide.iter().map(|r| r.as_slice()).collect();
        let t = table(&wide);
        assert_delete_branch(&t, &[3], true);
        assert_delete_branch(&t, &[1, 2], false);
    }

    #[test]
    fn delete_then_append_round_trip() {
        let t = table(&[&["1", "a", "x"], &["2", "a", "y"], &["3", "b", "x"]]);
        let cfg = ProfilerConfig::default();
        let old = profile(&t, Algorithm::Muds, &cfg);
        let del = apply_incremental(&old, &t, &TableDelta::Delete { rows: vec![1] }).unwrap();
        let back =
            apply_incremental(&del.result, &del.table, &append(&[&["2", "a", "y"]])).unwrap();
        // The restored row lands at the end, so row order (and with it the
        // fingerprint) differs — but the dependency sets are row-order
        // invariant and must round-trip exactly.
        assert_eq!(back.table.num_rows(), t.num_rows());
        assert_eq!(back.result.minimal_uccs, old.minimal_uccs);
        assert_eq!(back.result.fds.to_sorted_vec(), old.fds.to_sorted_vec());
        assert_eq!(back.result.inds, old.inds);
    }

    #[test]
    fn nulls_participate_in_revalidation() {
        let t = table(&[&["1", ""], &["2", "y"], &["3", ""]]);
        assert_incremental_equivalent(&t, &append(&[&["4", ""]]));
        assert_incremental_equivalent(&t, &TableDelta::Delete { rows: vec![0] });
    }

    #[test]
    fn counters_flow_into_the_ambient_registry() {
        let metrics = muds_obs::Metrics::new();
        let _guard = metrics.install();
        let t = table(&[&["1", "a"], &["2", "a"], &["3", "b"], &["4", "b"]]);
        let cfg = ProfilerConfig::default();
        let old = profile(&t, Algorithm::Muds, &cfg);
        let inc = apply_incremental(&old, &t, &append(&[&["4", "a"]])).unwrap();
        assert_eq!(inc.result.metrics.counter("delta.revalidated"), inc.revalidated);
        assert_eq!(inc.result.metrics.counter("delta.skipped"), inc.skipped);
        assert!(inc.result.metrics.spans.iter().any(|s| s.name == "delta revalidate"));

        // Deleting row 0 leaves "b" duplicated in c1: the border ({c1},
        // ∅ ↛ c1, c1 ↛ c0) holds after three checks, and both the old UCC
        // {c0} and the FD c0 → c1 carry over.
        let kept = apply_incremental(&old, &t, &TableDelta::Delete { rows: vec![0] }).unwrap();
        assert_eq!((kept.revalidated, kept.skipped), (3, 2));
        assert_eq!(kept.result.metrics.counter("delta.revalidated"), 3);
        assert_eq!(kept.result.metrics.counter("delta.skipped"), 2);
        assert!(kept.result.metrics.spans.iter().any(|s| s.name == "delta border"));

        // Deleting rows 0 and 2 leaves c1 unique: the first border check
        // turns positive, the delete re-profiles, and the `delta apply`
        // and `delta border` spans share one snapshot with the algorithm's
        // own phases.
        let del = apply_incremental(&old, &t, &TableDelta::Delete { rows: vec![0, 2] }).unwrap();
        assert_eq!((del.revalidated, del.skipped), (1, 0));
        assert_eq!(del.result.metrics.counter("delta.revalidated"), 1);
        assert_eq!(del.result.metrics.counter("delta.skipped"), 0);
        let phases: Vec<&str> = del.result.phases.iter().map(|p| p.name.as_str()).collect();
        assert!(phases.contains(&"delta apply"), "{phases:?}");
        assert!(phases.contains(&"delta border"), "{phases:?}");
        let scratch = profile(&del.table, Algorithm::Muds, &cfg);
        assert!(!scratch.phases.is_empty());
        for p in &scratch.phases {
            assert!(phases.contains(&p.name.as_str()), "{} missing from {phases:?}", p.name);
        }
    }

    #[test]
    fn kept_delete_answers_the_border_from_witness_pairs() {
        // A few thousand rows with wide composite keys: the border holds
        // multi-column sets, which a witness search settles from its
        // pivots' single-column PLIs, without a PLI cache or one intersect.
        let t = muds_datagen::uniprot_like(3_000, 8);
        let old = profile(&t, Algorithm::Muds, &ProfilerConfig::default());
        let metrics = muds_obs::Metrics::new();
        let _guard = metrics.install();
        let delete = TableDelta::Delete { rows: vec![3, 1_500, 2_999] };
        let kept = apply_incremental(&old, &t, &delete).unwrap();
        assert_eq!(kept.skipped, (old.minimal_uccs.len() + old.fds.len()) as u64, "border held");
        assert!(kept.revalidated > 0);
        let m = &kept.result.metrics;
        // No PLI cache was built, so none of its counters was registered.
        assert_eq!(m.counter("pli.requests"), 0);
        assert_eq!(m.counter("pli.intersects"), 0);
        assert!(!m.counters.keys().any(|k| k.starts_with("pli.")), "{:?}", m.counters);
        assert!(m.counter("delta.border_rows") > 0);
        let scratch = profile(&kept.table, Algorithm::Muds, &ProfilerConfig::default());
        assert_eq!(kept.result.minimal_uccs, scratch.minimal_uccs);
        assert_eq!(kept.result.fds.to_sorted_vec(), scratch.fds.to_sorted_vec());
    }

    /// Deletes `rows` from `t`, whose MUDS profile is `old`, and checks the
    /// outcome against a from-scratch profile. Returns it with its
    /// `delta.witnesses_reused` and `delta.border_rows`.
    fn delete_checked(
        old: &ProfileResult,
        t: &Table,
        rows: &[usize],
    ) -> (IncrementalOutcome, u64, u64) {
        let inc = apply_incremental(old, t, &TableDelta::Delete { rows: rows.to_vec() }).unwrap();
        let scratch = profile(&inc.table, Algorithm::Muds, &ProfilerConfig::default());
        assert_eq!(inc.result.minimal_uccs, scratch.minimal_uccs, "delete {rows:?}");
        assert_eq!(inc.result.fds.to_sorted_vec(), scratch.fds.to_sorted_vec(), "delete {rows:?}");
        let m = &inc.result.metrics;
        let (reused, visited) =
            (m.counter("delta.witnesses_reused"), m.counter("delta.border_rows"));
        (inc, reused, visited)
    }

    /// A kept delete of three rows of a 3k-row table, from a fresh profile.
    fn first_kept_delete() -> IncrementalOutcome {
        let t = muds_datagen::uniprot_like(3_000, 8);
        let old = profile(&t, Algorithm::Muds, &ProfilerConfig::default());
        assert!(old.witnesses.is_empty(), "a profile carries no witnesses");
        let (first, reused, _) = delete_checked(&old, &t, &[3, 1_500, 2_999]);
        assert_eq!(reused, 0);
        assert_eq!(first.skipped, (old.minimal_uccs.len() + old.fds.len()) as u64, "border held");
        // One pair per border set, each a witness on the post-delete table.
        assert!(first.result.witnesses.len() as u64 >= first.revalidated);
        let probe = BorderProbe::new(&first.table);
        for (&(set, rhs), &pair) in &first.result.witnesses {
            assert!(probe.refutes(&set, rhs, pair), "{set:?} -> {rhs:?}: {pair:?}");
        }
        first
    }

    #[test]
    fn a_kept_delete_hands_its_witnesses_to_the_next() {
        let first = first_kept_delete();
        // The lowest row in no pair, below some pair's rows: deleting it
        // moves those pairs down by one row.
        let used: Vec<u32> = first.result.witnesses.values().flat_map(|&(x, y)| [x, y]).collect();
        let free = (0..).find(|r| !used.contains(r)).unwrap();
        assert!(used.iter().any(|&r| r > free));
        let (second, reused, visited) =
            delete_checked(&first.result, &first.table, &[free as usize]);
        assert_eq!(second.skipped, first.skipped, "border held");
        assert!(second.revalidated > 0);
        assert_eq!(reused, second.revalidated, "every check answered by its carried pair");
        assert_eq!(visited, 0, "no search ran");
        // The carried pairs, each row past `free` one lower.
        let down = |r: u32| r - u32::from(r > free);
        let moved: Witnesses =
            first.result.witnesses.iter().map(|(&k, &(x, y))| (k, (down(x), down(y)))).collect();
        assert_eq!(second.result.witnesses, moved);
        // An append keeps every row's id, so it carries the pairs as they are.
        let row: Vec<String> = (0..8).map(|c| format!("fresh{c}")).collect();
        let appended = apply_incremental(
            &second.result,
            &second.table,
            &TableDelta::Append { rows: vec![row] },
        )
        .unwrap();
        assert_eq!(appended.result.witnesses, second.result.witnesses);
    }

    #[test]
    fn a_carried_witness_whose_row_is_deleted_forces_a_search() {
        let first = first_kept_delete();
        // Delete one row of a pair: every set refuted by a pair with that
        // row is checked (the row shared its value in each of the set's
        // columns), and searched.
        let &(x, _) = first.result.witnesses.values().next().unwrap();
        let lost = first.result.witnesses.values().filter(|&&(a, b)| a == x || b == x).count();
        let (second, reused, visited) = delete_checked(&first.result, &first.table, &[x as usize]);
        assert!(visited > 0, "the sets that lost their pair were searched");
        assert!(reused + lost as u64 <= second.revalidated, "{reused} + {lost}");
        // The same checks and verdict as a delete that carries no pair.
        let mut bare = first.result.clone();
        bare.witnesses.clear();
        let (fresh, none, _) = delete_checked(&bare, &first.table, &[x as usize]);
        assert_eq!(none, 0);
        assert_eq!((second.revalidated, second.skipped), (fresh.revalidated, fresh.skipped));
        assert_eq!(second.result.witnesses.len(), fresh.result.witnesses.len());
    }

    #[test]
    fn carried_pairs_are_verified_before_they_are_trusted() {
        // Deleting row 3 keeps the border (as in
        // `delete_keeping_the_border_carries_uccs_and_fds`); deleting rows 0
        // and 3 makes {c1} unique, so that delete must re-profile.
        let t = table(&[&["1", "a", "x"], &["2", "a", "y"], &["3", "b", "x"], &["4", "b", "y"]]);
        let old = profile(&t, Algorithm::Muds, &ProfilerConfig::default());
        let every_dependency = (0..1u32 << 3).flat_map(|bits| {
            let set = ColumnSet::from_indices((0..3).filter(|c| bits >> c & 1 == 1));
            std::iter::once(None).chain((0..3).map(Some)).map(move |rhs| (set, rhs))
        });
        // Rows that agree on little, a row paired with itself, and rows
        // past the end before and after the shift.
        for pair in [(1, 2), (2, 1), (1, 1), (0, 9), (9, 1), (RowId::MAX, 1), (2, RowId::MAX)] {
            let mut corrupted = old.clone();
            corrupted.witnesses = every_dependency.clone().map(|key| (key, pair)).collect();
            for (rows, kept) in [(&[3][..], true), (&[0, 3][..], false)] {
                let (fresh, _, _) = delete_checked(&old, &t, rows);
                let (inc, reused, _) = delete_checked(&corrupted, &t, rows);
                let label = format!("pair {pair:?}, delete {rows:?}");
                assert_eq!(fresh.skipped > 0, kept, "{label}");
                assert_eq!(
                    (inc.revalidated, inc.skipped),
                    (fresh.revalidated, fresh.skipped),
                    "{label}"
                );
                let phases = |o: &IncrementalOutcome| -> Vec<String> {
                    o.result.phases.iter().map(|p| p.name.clone()).collect()
                };
                assert_eq!(phases(&inc), phases(&fresh), "{label}");
                assert!(reused <= inc.revalidated, "{label}");
            }
        }
    }

    #[test]
    fn append_probes_the_appended_rows_clusters() {
        // Twelve fresh rows plus a copy of row 7 with a new c2: {c0, c1}
        // stops being unique, and its repair checks supersets. Every check
        // is a probe of the appended rows' clusters, without one PLI.
        let full = muds_datagen::uniprot_like(3_012, 8);
        let t = full.take_rows(3_000);
        let old = profile(&t, Algorithm::Muds, &ProfilerConfig::default());
        let row = |r: usize| -> Vec<String> {
            full.row(r).into_iter().map(|v| v.unwrap_or("").to_string()).collect()
        };
        let mut rows: Vec<Vec<String>> = (3_000..3_012).map(row).collect();
        let mut clash = row(7);
        clash[2] = "fresh".to_string();
        rows.push(clash);
        let metrics = muds_obs::Metrics::new();
        let _guard = metrics.install();
        let inc = apply_incremental(&old, &t, &TableDelta::Append { rows }).unwrap();
        assert_eq!(inc.appended_rows, 13);
        // The same checks as revalidating against full post-append PLIs.
        assert_eq!((inc.revalidated, inc.skipped), (91, 0));
        let m = &inc.result.metrics;
        assert_eq!(m.counter("pli.intersects"), 0);
        assert_eq!(m.counter("pli.refinement_checks"), 0);
        assert!(m.counter("delta.append_rows") > 0);
        let scratch = profile(&inc.table, Algorithm::Muds, &ProfilerConfig::default());
        assert_ne!(inc.result.minimal_uccs, old.minimal_uccs, "the append broke a UCC");
        assert_eq!(inc.result.minimal_uccs, scratch.minimal_uccs);
        assert_eq!(inc.result.fds.to_sorted_vec(), scratch.fds.to_sorted_vec());
    }

    #[test]
    fn stats_carry_on_identity_deltas_and_recompute_on_real_ones() {
        let t = table(&[&["1", "a"], &["2", "a"], &["3", "b"]]);
        let cfg = ProfilerConfig { stats: true, ..ProfilerConfig::default() };
        let old = profile(&t, Algorithm::Muds, &cfg);
        assert!(old.stats.is_some());

        // Identity delta: the whole stats profile carries over untouched.
        let carried = apply_incremental(&old, &t, &append(&[])).unwrap();
        assert_eq!(carried.result.stats, old.stats);
        assert_eq!(carried.result.metrics.counter("stats.delta_carried"), t.num_columns() as u64);
        assert_eq!(carried.result.metrics.counter("stats.delta_recomputed"), 0);

        // Real delta: stats match a from-scratch profile of the new table.
        let inc = apply_incremental(&old, &t, &append(&[&["4", "b"]])).unwrap();
        let scratch = profile(&inc.table, Algorithm::Muds, &cfg);
        assert_eq!(inc.result.stats, scratch.stats);
        assert_eq!(inc.result.metrics.counter("stats.delta_recomputed"), t.num_columns() as u64);

        // A stats-less old result stays stats-less.
        let plain = profile(&t, Algorithm::Muds, &ProfilerConfig::default());
        let inc = apply_incremental(&plain, &t, &append(&[&["4", "b"]])).unwrap();
        assert_eq!(inc.result.stats, None);

        // A few thousand rows, past the few dozen of the fuzz tables: a key,
        // a skewed numeric column with NULLs, and a low-cardinality one.
        let data: Vec<Vec<String>> = (0..3_000u64)
            .map(|r| {
                let skewed =
                    if r % 11 == 0 { String::new() } else { ((r % 97).pow(3) / 50).to_string() };
                vec![r.to_string(), skewed, format!("g{}", r * 7919 % 13)]
            })
            .collect();
        let t = Table::from_rows("t", &["k", "x", "g"], &data).unwrap();
        let old = profile(&t, Algorithm::Muds, &cfg);
        // The append brings a value sorting before every old one and a
        // NULL; the delete orphans key values.
        for delta in [
            append(&[&["-1", "-7.5", "g0"], &["3000", "", "a"]]),
            TableDelta::Delete { rows: vec![0, 17, 1_500, 2_999] },
        ] {
            let inc = apply_incremental(&old, &t, &delta).unwrap();
            let scratch = profile(&inc.table, Algorithm::Muds, &cfg);
            assert!(scratch.stats.as_ref().unwrap().columns[1].numeric.is_some());
            assert_eq!(inc.result.stats, scratch.stats, "{delta:?}");
        }
    }

    #[test]
    fn random_deltas_match_from_scratch_profiles() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..40 {
            let cols = rng.gen_range(1..5);
            let rows = rng.gen_range(0..14);
            let domain = rng.gen_range(1..4);
            let cell = |rng: &mut StdRng| {
                let v: u32 = rng.gen_range(0..=domain);
                if v == 0 {
                    String::new()
                } else {
                    format!("v{v}")
                }
            };
            let data: Vec<Vec<String>> =
                (0..rows).map(|_| (0..cols).map(|_| cell(&mut rng)).collect()).collect();
            let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
            let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let t = Table::from_rows("t", &name_refs, &data).unwrap().dedup_rows();
            let delta = if rng.gen_bool(0.5) || t.num_rows() == 0 {
                let extra = rng.gen_range(0..4);
                TableDelta::Append {
                    rows: (0..extra).map(|_| (0..cols).map(|_| cell(&mut rng)).collect()).collect(),
                }
            } else {
                let k = rng.gen_range(1..=t.num_rows());
                TableDelta::Delete {
                    rows: (0..k).map(|_| rng.gen_range(0..t.num_rows())).collect(),
                }
            };
            let cfg = ProfilerConfig::default();
            let old = profile(&t, Algorithm::Muds, &cfg);
            let inc = apply_incremental(&old, &t, &delta).unwrap();
            let scratch = profile(&inc.table, Algorithm::Muds, &cfg);
            assert_eq!(inc.result.inds, scratch.inds, "case {case}: {delta:?}");
            assert_eq!(inc.result.minimal_uccs, scratch.minimal_uccs, "case {case}: {delta:?}");
            assert_eq!(
                inc.result.fds.to_sorted_vec(),
                scratch.fds.to_sorted_vec(),
                "case {case}: {delta:?}"
            );
        }
    }
}
