//! Direction-aware incremental revalidation of a profiling result across a
//! [`TableDelta`].
//!
//! Exact maintenance of dependency sets under updates is hard in general
//! (Bläsius/Friedrich/Schirneck, arXiv 2103.13331), but *direction* makes
//! the practical cases cheap. Appending rows can only add duplicate pairs:
//! a valid UCC or FD can break, an invalid one can never start holding.
//! Deleting rows can only remove duplicate pairs: broken dependencies can
//! start holding, valid ones never break. Combined with the affected-column
//! report of [`Table::apply_delta`] — a dependency's validity can only flip
//! if every left-hand-side column is affected — most of the old result
//! carries over with *zero* data access (`delta.skipped`), and the rest is
//! revalidated against cached PLIs in level-wise batches
//! (`delta.revalidated`, via `PliCache::get_many` / `refines_many`).
//!
//! Unary INDs have no such monotone direction (an append grows both the
//! dependent and the referenced value sets), so they are recomputed exactly
//! with SPIDER — cheap, because the incrementally maintained dictionaries
//! *are* SPIDER's sorted duplicate-free input (the join-aware reuse of
//! arXiv 2012.06237: unary-IND state stays live across deltas).
//!
//! The result is equivalent to re-running [`profile`] on the post-delta
//! table — an equivalence the differential fuzzer (`crates/check`) asserts
//! across all four algorithms on every adversarial table it generates.

use std::collections::BTreeMap;

use muds_fd::FdSet;
use muds_lattice::ColumnSet;
use muds_pli::PliCache;
use muds_table::{DeltaOutcome, Table, TableDelta, TableError};

use crate::profiler::{ensure_ambient, finish, table_stats, ProfileResult};

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
    /// UCC/FD validity checks performed (`delta.revalidated`).
    pub revalidated: u64,
    /// Dependencies carried over without touching the data
    /// (`delta.skipped`).
    pub skipped: u64,
}

/// Applies `delta` to `old_table` and patches `old`'s dependency sets to
/// the post-delta table, revalidating only what the delta could have
/// changed. See the module docs for the invalidation rules.
///
/// `old` must be the result of profiling `old_table` (any algorithm — the
/// dependency sets agree across all four).
pub fn apply_incremental(
    old: &ProfileResult,
    old_table: &Table,
    delta: &TableDelta,
) -> Result<IncrementalOutcome, TableError> {
    let (metrics, _guard) = ensure_ambient();
    let revalidated_meter = muds_obs::counter("delta.revalidated");
    let skipped_meter = muds_obs::counter("delta.skipped");
    let mut revalidated = 0u64;
    let mut skipped = 0u64;

    let span = muds_obs::span("delta apply");
    let DeltaOutcome { table, affected_columns, appended_rows, deleted_rows, rows_deduplicated } =
        old_table.apply_delta(delta)?;
    let is_append = matches!(delta, TableDelta::Append { .. });
    // The post-delta single-column PLIs: one bucket pass over each
    // column's new codes.
    let mut cache = PliCache::new(&table);
    span.stop();

    let unchanged = appended_rows == 0 && deleted_rows.is_empty();
    let d = ColumnSet::from_indices(affected_columns.iter().copied());

    // INDs: no monotone direction, so recompute exactly — unless the delta
    // collapsed to the identity, in which case everything carries over.
    let inds = if unchanged {
        skipped += old.inds.len() as u64;
        old.inds.clone()
    } else {
        let span = muds_obs::span("SPIDER");
        let inds = muds_ind::spider(&table);
        span.stop();
        inds
    };

    let span = muds_obs::span("delta revalidate");
    let (minimal_uccs, fds) = if is_append {
        (
            append_uccs(&mut cache, &old.minimal_uccs, &d, &mut revalidated, &mut skipped),
            append_fds(&mut cache, &old.fds, &d, &mut revalidated, &mut skipped),
        )
    } else {
        (
            delete_uccs(&mut cache, &old.minimal_uccs, &d, &mut revalidated, &mut skipped),
            delete_fds(&mut cache, &old.fds, &d, &mut revalidated, &mut skipped),
        )
    };
    span.stop();

    revalidated_meter.add(revalidated);
    skipped_meter.add(skipped);
    // Column statistics, when the old result carried them: an identity
    // delta carries the whole profile untouched, but any real delta
    // recomputes every column — the new row count enters every column's
    // null/distinct fractions, so no per-column carry can satisfy the
    // `stats ≡ from-scratch` invariant (DESIGN.md §15). Relationships ride
    // on the freshly patched dependency sets either way.
    let stats = old.stats.as_ref().map(|old_stats| {
        let ncols = table.num_columns() as u64;
        if unchanged {
            muds_obs::add("stats.delta_carried", ncols);
            old_stats.clone()
        } else {
            muds_obs::add("stats.delta_recomputed", ncols);
            table_stats(&table, &inds, &minimal_uccs)
        }
    });
    let mut result = finish(old.algorithm, inds, minimal_uccs, fds, &metrics);
    result.stats = stats;
    Ok(IncrementalOutcome {
        table,
        result,
        appended_rows,
        deleted_rows: deleted_rows.len(),
        rows_deduplicated,
        revalidated,
        skipped,
    })
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

/// Append direction, UCCs. Valid sets can only break, and only if fully
/// inside the affected set `d`; sets that break are replaced by the minimal
/// valid supersets, found with an upward level-wise search (every set
/// unique *now* was unique *before*, hence is a superset of some old
/// minimal UCC — so growing the broken sets covers all candidates).
fn append_uccs(
    cache: &mut PliCache<'_>,
    old: &[ColumnSet],
    d: &ColumnSet,
    revalidated: &mut u64,
    skipped: &mut u64,
) -> Vec<ColumnSet> {
    let mut confirmed: Vec<ColumnSet> = Vec::new();
    let mut to_check: Vec<ColumnSet> = Vec::new();
    for x in old {
        if x.is_subset_of(d) {
            to_check.push(*x);
        } else {
            confirmed.push(*x);
            *skipped += 1;
        }
    }
    *revalidated += to_check.len() as u64;
    let mut frontier: Vec<ColumnSet> = Vec::new();
    for (x, pli) in to_check.iter().zip(cache.get_many(&to_check)) {
        if pli.is_unique() {
            confirmed.push(*x);
        } else {
            frontier.push(*x);
        }
    }
    let n = cache.table().num_columns();
    while !frontier.is_empty() {
        // One column bigger per round; pruning against already-confirmed
        // sets kills every path that can only reach non-minimal sets.
        let mut candidates: Vec<ColumnSet> = Vec::new();
        for x in &frontier {
            for c in (0..n).filter(|&c| !x.contains(c)) {
                let y = x.with(c);
                if !dominated(&confirmed, &y) && !candidates.contains(&y) {
                    candidates.push(y);
                }
            }
        }
        candidates.sort_unstable();
        if candidates.is_empty() {
            break;
        }
        *revalidated += candidates.len() as u64;
        let plis = cache.get_many(&candidates);
        frontier = Vec::new();
        for (y, pli) in candidates.iter().zip(plis) {
            if pli.is_unique() {
                confirmed.push(*y);
            } else {
                frontier.push(*y);
            }
        }
    }
    // Broken sets of different sizes can confirm supersets of each other
    // within one round; one final minimization settles it.
    minimize_sets(confirmed)
}

/// Append direction, FDs: the same scheme as [`append_uccs`] per
/// right-hand side (an FD `X → A` can only break if `X ⊆ d`; minimal valid
/// replacements are supersets of the broken left-hand sides).
fn append_fds(
    cache: &mut PliCache<'_>,
    old: &FdSet,
    d: &ColumnSet,
    revalidated: &mut u64,
    skipped: &mut u64,
) -> FdSet {
    let mut confirmed: BTreeMap<usize, Vec<ColumnSet>> = BTreeMap::new();
    let mut to_check: Vec<(ColumnSet, usize)> = Vec::new();
    for (lhs, rhs_set) in old.iter_entries() {
        for a in rhs_set.iter() {
            if lhs.is_subset_of(d) {
                to_check.push((*lhs, a));
            } else {
                confirmed.entry(a).or_default().push(*lhs);
                *skipped += 1;
            }
        }
    }
    // `iter_entries` walks a hash map; sort so cache traffic (and with it
    // the pli.* counters) is reproducible run to run.
    to_check.sort_unstable();
    *revalidated += to_check.len() as u64;
    let mut broken: BTreeMap<usize, Vec<ColumnSet>> = BTreeMap::new();
    for ((lhs, a), holds) in to_check.iter().zip(cache.refines_many(&to_check)) {
        if holds {
            confirmed.entry(*a).or_default().push(*lhs);
        } else {
            broken.entry(*a).or_default().push(*lhs);
        }
    }
    let n = cache.table().num_columns();
    for (a, mut frontier) in broken {
        let confirmed_a = confirmed.entry(a).or_default();
        while !frontier.is_empty() {
            let mut candidates: Vec<ColumnSet> = Vec::new();
            for x in &frontier {
                for c in (0..n).filter(|&c| c != a && !x.contains(c)) {
                    let y = x.with(c);
                    if !dominated(confirmed_a, &y) && !candidates.contains(&y) {
                        candidates.push(y);
                    }
                }
            }
            candidates.sort_unstable();
            if candidates.is_empty() {
                break;
            }
            let checks: Vec<(ColumnSet, usize)> = candidates.iter().map(|y| (*y, a)).collect();
            *revalidated += checks.len() as u64;
            let verdicts = cache.refines_many(&checks);
            frontier = Vec::new();
            for (y, holds) in candidates.iter().zip(verdicts) {
                if holds {
                    confirmed_a.push(*y);
                } else {
                    frontier.push(*y);
                }
            }
        }
    }
    let mut out = FdSet::new();
    for (a, lhss) in confirmed {
        for lhs in lhss {
            out.insert(lhs, a);
        }
    }
    out.minimize()
}

/// Delete direction, UCCs. Valid sets stay valid; new ones can only appear
/// inside the affected set `d`, so a bottom-up level-wise sweep of the
/// `d`-sublattice (pruned by everything already known valid) finds them
/// all. The old minimal sets merge in at the end — a new, smaller UCC can
/// demote an old one from minimal.
fn delete_uccs(
    cache: &mut PliCache<'_>,
    old: &[ColumnSet],
    d: &ColumnSet,
    revalidated: &mut u64,
    skipped: &mut u64,
) -> Vec<ColumnSet> {
    *skipped += old.len() as u64;
    let found = sublattice_minimal(cache, d, old, revalidated, &mut |cache, level| {
        cache.get_many(level).iter().map(|p| p.is_unique()).collect()
    });
    minimize_sets(old.iter().copied().chain(found).collect())
}

/// Delete direction, FDs: per right-hand side, sweep the `d \ {rhs}`
/// sublattice for newly valid left-hand sides and re-minimize against the
/// old ones.
fn delete_fds(
    cache: &mut PliCache<'_>,
    old: &FdSet,
    d: &ColumnSet,
    revalidated: &mut u64,
    skipped: &mut u64,
) -> FdSet {
    let mut out = FdSet::new();
    let mut per_rhs: BTreeMap<usize, Vec<ColumnSet>> = BTreeMap::new();
    for (lhs, rhs_set) in old.iter_entries() {
        for a in rhs_set.iter() {
            per_rhs.entry(a).or_default().push(*lhs);
            *skipped += 1;
        }
    }
    for a in 0..cache.table().num_columns() {
        let olds = per_rhs.remove(&a).unwrap_or_default();
        let found =
            sublattice_minimal(cache, &d.without(a), &olds, revalidated, &mut |cache, level| {
                let checks: Vec<(ColumnSet, usize)> = level.iter().map(|x| (*x, a)).collect();
                cache.refines_many(&checks)
            });
        for lhs in olds.into_iter().chain(found) {
            out.insert(lhs, a);
        }
    }
    out.minimize()
}

/// Bottom-up level-wise search for the minimal valid sets within the
/// sublattice of subsets of `d`, pruned by `known` (sets already valid
/// before the delta — their supersets cannot be minimal). `check` batches
/// the validity test for one level. Candidate generation extends invalid
/// sets by columns above their maximum, so every subset of `d` is reached
/// exactly once along its own prefix chain; a chain is cut precisely when
/// a prefix is valid or dominated, which also dominates everything above
/// it.
fn sublattice_minimal(
    cache: &mut PliCache<'_>,
    d: &ColumnSet,
    known: &[ColumnSet],
    revalidated: &mut u64,
    check: &mut dyn FnMut(&mut PliCache<'_>, &[ColumnSet]) -> Vec<bool>,
) -> Vec<ColumnSet> {
    let d_cols: Vec<usize> = d.to_vec();
    let mut found: Vec<ColumnSet> = Vec::new();
    let mut level: Vec<ColumnSet> = vec![ColumnSet::empty()];
    while !level.is_empty() {
        let candidates: Vec<ColumnSet> = level
            .iter()
            .filter(|x| !dominated(known, x) && !dominated(&found, x))
            .copied()
            .collect();
        let verdicts = if candidates.is_empty() {
            Vec::new()
        } else {
            *revalidated += candidates.len() as u64;
            check(cache, &candidates)
        };
        let mut next: Vec<ColumnSet> = Vec::new();
        for (x, valid) in candidates.iter().zip(verdicts) {
            if valid {
                found.push(*x);
            } else {
                let floor = x.max_col().map_or(0, |m| m + 1);
                next.extend(d_cols.iter().filter(|&&c| c >= floor).map(|&c| x.with(c)));
            }
        }
        level = next;
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{profile, Algorithm, ProfilerConfig};

    fn table(rows: &[&[&str]]) -> Table {
        let names: Vec<String> =
            (0..rows.first().map_or(0, |r| r.len())).map(|i| format!("c{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<&str>> = rows.iter().map(|r| r.to_vec()).collect();
        Table::from_rows("t", &name_refs, &rows).unwrap().dedup_rows()
    }

    /// `apply_incremental` must agree with a from-scratch profile of the
    /// post-delta table on every dependency set, for every algorithm.
    fn assert_incremental_equivalent(t: &Table, delta: &TableDelta) -> IncrementalOutcome {
        let cfg = ProfilerConfig::default();
        let mut last = None;
        for &alg in &Algorithm::ALL {
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
            last = Some(inc);
        }
        last.unwrap()
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
        let out = assert_incremental_equivalent(&t, &TableDelta::Delete { rows: vec![2] });
        assert!(out.revalidated > 0);
    }

    #[test]
    fn delete_singleton_rows_checks_only_the_empty_set() {
        // Row 2 is unique in every column, so no multi-column dependency
        // can flip — but ∅-left-hand-side dependencies can (here c1
        // becomes constant, so ∅ → c1 starts holding): the empty set is a
        // subset of any affected set, and its checks are the only ones
        // allowed to run.
        let t = table(&[&["1", "a"], &["2", "a"], &["3", "z"]]);
        let out = assert_incremental_equivalent(&t, &TableDelta::Delete { rows: vec![2] });
        assert!(out.revalidated <= 1 + t.num_columns() as u64);
        assert!(out.skipped > 0);
    }

    #[test]
    fn delete_revealing_an_fd() {
        // a→x, a→y blocks c1 → c2; deleting the y row restores the FD.
        let t = table(&[&["1", "a", "x"], &["2", "a", "y"], &["3", "b", "x"]]);
        assert_incremental_equivalent(&t, &TableDelta::Delete { rows: vec![1] });
    }

    #[test]
    fn delete_all_rows() {
        let t = table(&[&["1", "a"], &["2", "b"]]);
        assert_incremental_equivalent(&t, &TableDelta::Delete { rows: vec![0, 1] });
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
        let t = table(&[&["1", "a"], &["2", "a"], &["3", "b"]]);
        let cfg = ProfilerConfig::default();
        let old = profile(&t, Algorithm::Muds, &cfg);
        let inc = apply_incremental(&old, &t, &append(&[&["3", "a"]])).unwrap();
        assert_eq!(inc.result.metrics.counter("delta.revalidated"), inc.revalidated);
        assert_eq!(inc.result.metrics.counter("delta.skipped"), inc.skipped);
        assert!(inc.result.metrics.spans.iter().any(|s| s.name == "delta revalidate"));
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
