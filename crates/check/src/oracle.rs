//! The differential oracle: runs every pipeline and the exponential naive
//! oracles on a table and checks structural invariants of the results.
//!
//! A check suite returns the *first* failing invariant as a
//! [`FailureDetail`]; the invariant name doubles as the failure signature
//! the shrinker preserves while minimizing the input.

use std::collections::BTreeSet;

use muds_core::{
    apply_incremental, profile, profile_from_json, profile_to_json, Algorithm, IncrementalOutcome,
    ProfilePayload, ProfileResult, ProfilerConfig,
};
use muds_fd::{approximate_fds, g3_error, holds, Fd};
use muds_ind::{naive_inds, nary_ind_holds, nary_inds, Ind};
use muds_lattice::{complement_family, minimal_hitting_sets, ColumnSet};
use muds_obs::Metrics;
use muds_pli::PliCache;
use muds_table::{Table, TableDelta, TableError, MAX_COLUMNS};
use muds_ucc::{ducc, is_unique, naive_minimal_uccs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureDetail {
    /// Stable invariant identifier — the failure signature used by the
    /// shrinker and in corpus file names.
    pub invariant: &'static str,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

/// Everything one pipeline run produced that must be comparable across
/// pipelines and thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    fds: Vec<Fd>,
    uccs: Vec<ColumnSet>,
    inds: Vec<Ind>,
    counters: std::collections::BTreeMap<String, u64>,
    span_shape: Vec<String>,
}

fn span_names(nodes: &[muds_obs::SpanNode], depth: usize, out: &mut Vec<String>) {
    for n in nodes {
        out.push(format!("{}{}", "  ".repeat(depth), n.name));
        span_names(&n.children, depth + 1, out);
    }
}

/// Runs `algorithm` under a fresh metrics registry so inner counters never
/// leak into the ambient fuzz-loop registry.
fn fingerprint(table: &Table, algorithm: Algorithm, config: &ProfilerConfig) -> Fingerprint {
    let metrics = Metrics::new();
    let _guard = metrics.install();
    let result = profile(table, algorithm, config);
    let mut span_shape = Vec::new();
    span_names(&result.metrics.spans, 0, &mut span_shape);
    Fingerprint {
        fds: result.fds.to_sorted_vec(),
        uccs: result.minimal_uccs,
        inds: result.inds,
        counters: result.metrics.counters,
        span_shape,
    }
}

/// Profiler configuration shared by all pipeline runs. Stats ride every
/// pipeline run, so the json-roundtrip and incremental invariants exercise
/// the column-profile payload for free; `check_stats` adds the naive
/// second-pass oracle.
fn profiler() -> ProfilerConfig {
    ProfilerConfig { stats: true, ..ProfilerConfig::default() }
}

/// Run the exponential naive oracles when the table has at most this many
/// columns (they are hard-gated at 16).
const NAIVE_MAX_COLS: usize = 8;
/// Skip the naive oracles (and g₃ sweeps) above this row count.
const NAIVE_MAX_ROWS: usize = 64;
/// Maximum arity for the n-ary IND projection-closure check.
const NARY_ARITY: usize = 3;
/// Thread counts cross-checked for bit-identical results and counters;
/// the pool is restored to its default (all cores) afterwards.
const THREAD_MATRIX: [usize; 2] = [1, 2];
/// Deltas per table for the incremental ≡ from-scratch invariant. Deltas
/// are derived deterministically from the table fingerprint and
/// [`DELTA_SEED`], so a banked corpus CSV regenerates the exact failing
/// delta on replay — no separate delta file is needed.
const INCREMENTAL_DELTAS: usize = 2;
/// Seed folded into the table fingerprint when deriving deltas.
const DELTA_SEED: u64 = 0xD1FA;

fn narrow(table: &Table) -> bool {
    table.num_columns() <= NAIVE_MAX_COLS && table.num_rows() <= NAIVE_MAX_ROWS
}

/// The differential + invariant check suite.
#[derive(Debug, Clone, Default)]
pub struct CheckSuite {
    /// Test hook for the shrinker self-test: deliberately drop the first
    /// FD from the MUDS result before comparing against the naive oracle,
    /// manufacturing a reproducible "missed FD" disagreement.
    pub sabotage_drop_first_fd: bool,
}

impl CheckSuite {
    /// Runs every check on `table`, returning the first violated
    /// invariant. `None` means the table passed.
    pub fn check(&self, table: &Table) -> Option<FailureDetail> {
        self.check_pipelines(table)
            .or_else(|| self.check_thread_invariance(table))
            .or_else(|| self.check_naive_oracles(table))
            .or_else(|| self.check_fd_minimality(table))
            .or_else(|| self.check_ucc_minimality(table))
            .or_else(|| self.check_ucc_duality(table))
            .or_else(|| self.check_ind_projection_closure(table))
            .or_else(|| self.check_g3(table))
            .or_else(|| self.check_json_roundtrip(table))
            .or_else(|| self.check_stats(table))
            .or_else(|| self.check_incremental(table))
    }

    /// All four pipelines agree on FDs, UCCs, and INDs.
    fn check_pipelines(&self, table: &Table) -> Option<FailureDetail> {
        let runs: Vec<(Algorithm, Fingerprint)> =
            Algorithm::ALL.iter().map(|&a| (a, fingerprint(table, a, &profiler()))).collect();
        for pair in runs.windows(2) {
            let [(a, fa), (b, fb)] = pair else { continue };
            if fa.fds != fb.fds {
                return Some(FailureDetail {
                    invariant: "pipelines-fd",
                    detail: format!(
                        "{} and {} disagree on FDs: {:?} vs {:?}",
                        a.name(),
                        b.name(),
                        fa.fds,
                        fb.fds
                    ),
                });
            }
            if fa.uccs != fb.uccs {
                return Some(FailureDetail {
                    invariant: "pipelines-ucc",
                    detail: format!(
                        "{} and {} disagree on UCCs: {:?} vs {:?}",
                        a.name(),
                        b.name(),
                        fa.uccs,
                        fb.uccs
                    ),
                });
            }
            if fa.inds != fb.inds {
                return Some(FailureDetail {
                    invariant: "pipelines-ind",
                    detail: format!(
                        "{} and {} disagree on INDs: {:?} vs {:?}",
                        a.name(),
                        b.name(),
                        fa.inds,
                        fb.inds
                    ),
                });
            }
        }
        None
    }

    /// Results AND counters are invariant under the worker-thread count.
    fn check_thread_invariance(&self, table: &Table) -> Option<FailureDetail> {
        let mut failure = None;
        'outer: for &algorithm in &Algorithm::ALL {
            let mut reference: Option<(usize, Fingerprint)> = None;
            for n in THREAD_MATRIX {
                // lint:allow(panic): the fuzz harness owns the process;
                // if the vendored pool refuses to reconfigure, aborting the
                // campaign loudly beats fuzzing with the wrong thread count.
                rayon::ThreadPoolBuilder::new()
                    .num_threads(n)
                    .build_global()
                    .expect("vendored rayon pool is reconfigurable");
                let run = fingerprint(table, algorithm, &profiler());
                match &reference {
                    None => reference = Some((n, run)),
                    Some((n0, reference)) if *reference != run => {
                        failure = Some(FailureDetail {
                            invariant: "thread-invariance",
                            detail: format!(
                                "{} differs between --threads {n0} and --threads {n} \
                                 (results, counters, or span shape)",
                                algorithm.name()
                            ),
                        });
                        break 'outer;
                    }
                    Some(_) => {}
                }
            }
        }
        // lint:allow(panic): same as above — restoring the ambient pool
        // must not fail silently mid-campaign.
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .expect("vendored rayon pool is reconfigurable");
        failure
    }

    /// MUDS agrees with the exponential ground-truth oracles.
    fn check_naive_oracles(&self, table: &Table) -> Option<FailureDetail> {
        if !narrow(table) {
            return None;
        }
        let run = fingerprint(table, Algorithm::Muds, &profiler());
        let mut fds = run.fds.clone();
        if self.sabotage_drop_first_fd && !fds.is_empty() {
            fds.remove(0); // deliberate mutation; see `sabotage_drop_first_fd`
        }
        let truth_fds = muds_fd::naive_minimal_fds(table).to_sorted_vec();
        if fds != truth_fds {
            return Some(FailureDetail {
                invariant: "naive-fd",
                detail: format!("MUDS FDs {fds:?} != naive {truth_fds:?}"),
            });
        }
        let truth_uccs = naive_minimal_uccs(table);
        if run.uccs != truth_uccs {
            return Some(FailureDetail {
                invariant: "naive-ucc",
                detail: format!("MUDS UCCs {:?} != naive {:?}", run.uccs, truth_uccs),
            });
        }
        let truth_inds = naive_inds(table);
        if run.inds != truth_inds {
            return Some(FailureDetail {
                invariant: "naive-ind",
                detail: format!("MUDS INDs {:?} != naive {:?}", run.inds, truth_inds),
            });
        }
        // ε = 0 approximate discovery is exact discovery.
        let mut cache = PliCache::new(table);
        let approx = approximate_fds(&mut cache, 0.0).to_sorted_vec();
        if approx != truth_fds {
            return Some(FailureDetail {
                invariant: "approx-eps0",
                detail: format!("approximate_fds(0.0) {approx:?} != naive {truth_fds:?}"),
            });
        }
        None
    }

    /// Every reported FD holds and no direct subset of its lhs does.
    fn check_fd_minimality(&self, table: &Table) -> Option<FailureDetail> {
        let run = fingerprint(table, Algorithm::Muds, &profiler());
        for fd in &run.fds {
            if !holds(table, &fd.lhs, fd.rhs) {
                return Some(FailureDetail {
                    invariant: "fd-validity",
                    detail: format!("reported FD {fd} does not hold"),
                });
            }
            for sub in fd.lhs.direct_subsets() {
                if holds(table, &sub, fd.rhs) {
                    return Some(FailureDetail {
                        invariant: "fd-minimality",
                        detail: format!("FD {fd} is not minimal: {sub:?} already determines"),
                    });
                }
            }
        }
        None
    }

    /// Every reported UCC is unique and no direct subset is.
    fn check_ucc_minimality(&self, table: &Table) -> Option<FailureDetail> {
        let run = fingerprint(table, Algorithm::Muds, &profiler());
        for ucc in &run.uccs {
            if !is_unique(table, ucc) {
                return Some(FailureDetail {
                    invariant: "ucc-validity",
                    detail: format!("reported UCC {ucc:?} is not unique"),
                });
            }
            for sub in ucc.direct_subsets() {
                if is_unique(table, &sub) {
                    return Some(FailureDetail {
                        invariant: "ucc-minimality",
                        detail: format!("UCC {ucc:?} is not minimal: {sub:?} already unique"),
                    });
                }
            }
        }
        None
    }

    /// DUCC's two result families are exact hypergraph duals: the minimal
    /// UCCs are the minimal hitting sets of the complements of the maximal
    /// non-UCCs, and every maximal non-UCC is non-unique with only unique
    /// direct supersets.
    fn check_ucc_duality(&self, table: &Table) -> Option<FailureDetail> {
        let universe = ColumnSet::full(table.num_columns());
        let mut cache = PliCache::new(table);
        let result = ducc(&mut cache, 0xD0CC);
        let edges = complement_family(&result.maximal_non_uccs, &universe);
        let mut dual = minimal_hitting_sets(&edges, &universe);
        dual.sort();
        if dual != result.minimal_uccs {
            return Some(FailureDetail {
                invariant: "ucc-duality",
                detail: format!(
                    "minimal UCCs {:?} != minimal hitting sets {:?} of complemented maximal \
                     non-UCCs {:?}",
                    result.minimal_uccs, dual, result.maximal_non_uccs
                ),
            });
        }
        for mn in &result.maximal_non_uccs {
            if is_unique(table, mn) {
                return Some(FailureDetail {
                    invariant: "ucc-duality",
                    detail: format!("maximal non-UCC {mn:?} is actually unique"),
                });
            }
            for sup in mn.direct_supersets(&universe) {
                if !is_unique(table, &sup) {
                    return Some(FailureDetail {
                        invariant: "ucc-duality",
                        detail: format!("maximal non-UCC {mn:?} has non-unique superset {sup:?}"),
                    });
                }
            }
        }
        None
    }

    /// Every reported n-ary IND holds, and the set is closed under
    /// projection (the apriori property SPIDER's n-ary extension relies
    /// on).
    fn check_ind_projection_closure(&self, table: &Table) -> Option<FailureDetail> {
        if !narrow(table) {
            return None;
        }
        let inds = nary_inds(table, NARY_ARITY);
        let seen: BTreeSet<(Vec<usize>, Vec<usize>)> =
            inds.iter().map(|i| (i.dependent.clone(), i.referenced.clone())).collect();
        for ind in &inds {
            if !nary_ind_holds(table, &ind.dependent, &ind.referenced) {
                return Some(FailureDetail {
                    invariant: "ind-validity",
                    detail: format!("reported n-ary IND {ind:?} does not hold"),
                });
            }
            if ind.arity() >= 2 {
                for drop in 0..ind.arity() {
                    let dep: Vec<usize> = without_index(&ind.dependent, drop);
                    let rf: Vec<usize> = without_index(&ind.referenced, drop);
                    if !seen.contains(&(dep.clone(), rf.clone())) {
                        return Some(FailureDetail {
                            invariant: "ind-projection",
                            detail: format!(
                                "projection {:?} ⊆ {:?} of reported IND {ind:?} is missing",
                                dep, rf
                            ),
                        });
                    }
                }
            }
        }
        None
    }

    /// The JSON wire format (shared by `profile --format json` and the
    /// serve daemon) round-trips: serializing a profile result and parsing
    /// it back reproduces the canonical payload exactly.
    fn check_json_roundtrip(&self, table: &Table) -> Option<FailureDetail> {
        let metrics = Metrics::new();
        let _guard = metrics.install();
        let result = profile(table, Algorithm::Muds, &profiler());
        let names = table.column_names();
        let json = profile_to_json(&result, table.name(), &names);
        let parsed = match profile_from_json(&json) {
            Ok(p) => p,
            Err(e) => {
                return Some(FailureDetail {
                    invariant: "json-roundtrip",
                    detail: format!("serialized profile does not parse back: {e}; json: {json}"),
                });
            }
        };
        let expected = ProfilePayload::from_result(&result, table.name(), &names);
        if parsed != expected {
            return Some(FailureDetail {
                invariant: "json-roundtrip",
                detail: format!("payload changed across the wire: {parsed:?} != {expected:?}"),
            });
        }
        None
    }

    /// Single-scan stats ≡ a naive second pass over the raw rows: exact
    /// distinct/null/min/max, exact length stats, entropy and moments
    /// within a tiny float tolerance, the dominant format an argmax of
    /// per-occurrence format detection, quality following the documented
    /// formula, quartiles bit-equal to the nearest-rank value of the sorted
    /// parsed data, and the dependency classifications mirroring the
    /// discovered UCCs/INDs. Runs on every table: the oracle is
    /// `O(rows · cols)` plus a sort per numeric column.
    fn check_stats(&self, table: &Table) -> Option<FailureDetail> {
        use muds_core::{detect_format, ValueFormat};
        const TOL: f64 = 1e-9;
        let metrics = Metrics::new();
        let _guard = metrics.install();
        let result = profile(table, Algorithm::Muds, &profiler());
        let Some(stats) = result.stats.as_ref() else {
            return Some(FailureDetail {
                invariant: "stats-oracle",
                detail: "stats requested but missing from the profile result".into(),
            });
        };
        if stats.columns.len() != table.num_columns() {
            return Some(FailureDetail {
                invariant: "stats-oracle",
                detail: format!(
                    "{} column profiles for {} columns",
                    stats.columns.len(),
                    table.num_columns()
                ),
            });
        }
        let rows = table.num_rows();
        let all_rows: Vec<Vec<Option<&str>>> = (0..rows).map(|r| table.row(r)).collect();
        for (c, got) in stats.columns.iter().enumerate() {
            let fail = |what: &str, detail: String| {
                Some(FailureDetail {
                    invariant: "stats-oracle",
                    detail: format!("column {c} {what}: {detail}"),
                })
            };
            let values: Vec<Option<&str>> = all_rows.iter().map(|r| r[c]).collect();
            let non_null_vals: Vec<&str> = values.iter().flatten().copied().collect();
            let nulls = (rows - non_null_vals.len()) as u64;
            let non_null = non_null_vals.len() as u64;
            let mut hist: std::collections::BTreeMap<&str, u64> = Default::default();
            for v in &non_null_vals {
                *hist.entry(v).or_default() += 1;
            }
            let distinct = hist.len() as u64;
            if got.column != c
                || got.rows != rows as u64
                || got.nulls != nulls
                || got.distinct != distinct
            {
                return fail(
                    "counts",
                    format!(
                        "got (rows {}, nulls {}, distinct {}), \
                         naive (rows {rows}, nulls {nulls}, distinct {distinct})",
                        got.rows, got.nulls, got.distinct
                    ),
                );
            }
            let min = hist.keys().next().copied();
            let max = hist.keys().next_back().copied();
            if got.min.as_deref() != min || got.max.as_deref() != max {
                return fail(
                    "extremes",
                    format!("got ({:?}, {:?}), naive ({min:?}, {max:?})", got.min, got.max),
                );
            }
            let null_fraction = if rows == 0 { 0.0 } else { nulls as f64 / rows as f64 };
            let distinct_fraction =
                if non_null == 0 { 0.0 } else { distinct as f64 / non_null as f64 };
            if got.null_fraction != null_fraction || got.distinct_fraction != distinct_fraction {
                return fail(
                    "fractions",
                    format!(
                        "got ({}, {}), naive ({null_fraction}, {distinct_fraction})",
                        got.null_fraction, got.distinct_fraction
                    ),
                );
            }
            let mut entropy = 0.0f64;
            let mut format_counts = [0u64; ValueFormat::ALL.len()];
            let mut min_length = u64::MAX;
            let mut max_length = 0u64;
            let mut length_sum = 0u64;
            for (v, &w) in &hist {
                let p = w as f64 / non_null as f64;
                entropy -= p * p.log2();
                format_counts[detect_format(v).index()] += w;
                let chars = v.chars().count() as u64;
                min_length = min_length.min(chars);
                max_length = max_length.max(chars);
                length_sum += w * chars;
            }
            if non_null == 0 {
                (entropy, min_length) = (0.0, 0);
            }
            let avg_length = if non_null == 0 { 0.0 } else { length_sum as f64 / non_null as f64 };
            if (got.entropy - entropy).abs() > TOL {
                return fail("entropy", format!("got {}, naive {entropy}", got.entropy));
            }
            if got.min_length != min_length
                || got.max_length != max_length
                || (got.avg_length - avg_length).abs() > TOL
            {
                return fail(
                    "lengths",
                    format!(
                        "got ({}, {}, {}), naive ({min_length}, {max_length}, {avg_length})",
                        got.min_length, got.max_length, got.avg_length
                    ),
                );
            }
            if non_null == 0 {
                if got.format != ValueFormat::Empty || got.format_consistency != 1.0 {
                    return fail(
                        "empty format",
                        format!("got ({:?}, {})", got.format, got.format_consistency),
                    );
                }
            } else {
                let got_count = format_counts[got.format.index()];
                if format_counts.iter().any(|&w| w > got_count) {
                    return fail(
                        "dominant format",
                        format!("{:?} ({got_count} occurrences) is not an argmax", got.format),
                    );
                }
                let consistency = got_count as f64 / non_null as f64;
                if (got.format_consistency - consistency).abs() > TOL {
                    return fail(
                        "format consistency",
                        format!("got {}, naive {consistency}", got.format_consistency),
                    );
                }
            }
            let quality = (2.0 * (1.0 - got.null_fraction) + got.format_consistency) / 3.0;
            if (got.quality - quality).abs() > TOL {
                return fail("quality", format!("got {}, formula {quality}", got.quality));
            }
            // Numeric moments + quartiles, gated exactly as documented:
            // present iff every non-NULL occurrence is a finite number.
            let mut parsed: Vec<f64> = Vec::with_capacity(non_null_vals.len());
            let mut fully_numeric = non_null > 0;
            for v in values.iter().flatten() {
                let x = match detect_format(v) {
                    ValueFormat::Integer | ValueFormat::Decimal => {
                        v.parse::<f64>().ok().filter(|x| x.is_finite())
                    }
                    _ => None,
                };
                match x {
                    Some(x) => parsed.push(x),
                    None => {
                        fully_numeric = false;
                        break;
                    }
                }
            }
            match (&got.numeric, fully_numeric) {
                (Some(_), false) => {
                    return fail("numeric gate", "present on a non-numeric column".into());
                }
                (None, true) => {
                    return fail("numeric gate", "missing on a fully numeric column".into());
                }
                (None, false) => {}
                (Some(n), true) => {
                    let count = parsed.len() as f64;
                    let sum: f64 = parsed.iter().sum();
                    let sum_sq: f64 = parsed.iter().map(|x| x * x).sum();
                    let mean = sum / count;
                    let variance = (sum_sq / count - mean * mean).max(0.0);
                    let naive_min = parsed.iter().copied().fold(f64::INFINITY, f64::min);
                    let naive_max = parsed.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    if n.min != naive_min
                        || n.max != naive_max
                        || (n.mean - mean).abs() > TOL
                        || (n.variance - variance).abs() > TOL
                    {
                        return fail(
                            "moments",
                            format!(
                                "got (min {}, max {}, mean {}, var {}), \
                                 naive ({naive_min}, {naive_max}, {mean}, {variance})",
                                n.min, n.max, n.mean, n.variance
                            ),
                        );
                    }
                    // Nearest rank: the ceil(φ·n)-th smallest parsed value.
                    parsed.sort_unstable_by(f64::total_cmp);
                    for (phi, q) in [(0.25, n.q25), (0.5, n.median), (0.75, n.q75)] {
                        let rank = ((phi * count).ceil() as usize).clamp(1, parsed.len());
                        let want = parsed[rank - 1];
                        if q.to_bits() != want.to_bits() {
                            return fail(
                                "quantile",
                                format!("phi={phi}: got {q}, nearest rank {rank} is {want}"),
                            );
                        }
                    }
                }
            }
        }
        // Dependency classification mirrors the discovered UCCs/INDs.
        let expected_ids: BTreeSet<Vec<usize>> = result
            .minimal_uccs
            .iter()
            .filter(|u| u.cardinality() > 0)
            .map(|u| u.iter().collect())
            .collect();
        let got_ids: BTreeSet<Vec<usize>> =
            stats.identifiers.iter().map(|i| i.columns.clone()).collect();
        if got_ids != expected_ids {
            return Some(FailureDetail {
                invariant: "stats-classify",
                detail: format!(
                    "identifier candidates {got_ids:?} != non-empty minimal UCCs {expected_ids:?}"
                ),
            });
        }
        for pair in stats.identifiers.windows(2) {
            // lint:allow(panic): windows(2) always yields two elements.
            if pair[0].score < pair[1].score {
                return Some(FailureDetail {
                    invariant: "stats-classify",
                    detail: format!("identifier scores not descending: {pair:?}"),
                });
            }
        }
        for id in &stats.identifiers {
            let null_free = id.columns.iter().all(|&c| stats.columns[c].nulls == 0);
            let score = if null_free { 1.0 } else { 0.5 } / id.columns.len() as f64;
            if id.null_free != null_free || id.score != score {
                return Some(FailureDetail {
                    invariant: "stats-classify",
                    detail: format!(
                        "identifier {id:?}: expected null_free {null_free} score {score}"
                    ),
                });
            }
        }
        // lint:allow(panic): the filter pins u.len() == 1.
        let unary_keys: BTreeSet<usize> =
            expected_ids.iter().filter(|u| u.len() == 1).map(|u| u[0]).collect();
        let expected_fks: BTreeSet<(usize, usize)> = result
            .inds
            .iter()
            .filter(|i| i.dependent != i.referenced && unary_keys.contains(&i.referenced))
            .map(|i| (i.dependent, i.referenced))
            .collect();
        let got_fks: BTreeSet<(usize, usize)> =
            stats.foreign_keys.iter().map(|f| (f.dependent, f.referenced)).collect();
        if got_fks != expected_fks {
            return Some(FailureDetail {
                invariant: "stats-classify",
                detail: format!("FK candidates {got_fks:?} != keyed unary INDs {expected_fks:?}"),
            });
        }
        for fk in &stats.foreign_keys {
            let ref_distinct = stats.columns[fk.referenced].distinct;
            let coverage = if ref_distinct == 0 {
                1.0
            } else {
                stats.columns[fk.dependent].distinct as f64 / ref_distinct as f64
            };
            if fk.coverage != coverage {
                return Some(FailureDetail {
                    invariant: "stats-classify",
                    detail: format!("FK {fk:?}: expected coverage {coverage}"),
                });
            }
        }
        None
    }

    /// Incremental ≡ from-scratch: for every algorithm and a handful of
    /// deterministically derived deltas, patching a cached profile through
    /// [`apply_incremental`] must reproduce exactly the dependencies of
    /// profiling the patched table from scratch. A delete's outcome is
    /// carried on through an append and a second delete, each checked the
    /// same way, so the second delete starts from the witness pairs the
    /// first one kept. Counts which way each delete went into the caller's
    /// registry: `check.delete.border_kept` (the old UCCs and FDs carried
    /// over) or `check.delete.reprofiled`, and `check.delete.witness_reused`
    /// for a delete that answered a border check from a carried pair.
    fn check_incremental(&self, table: &Table) -> Option<FailureDetail> {
        if !narrow(table) || table.num_columns() == 0 {
            return None;
        }
        // Bound before the per-run registries below are installed.
        let meters = DeleteMeters {
            border_kept: muds_obs::counter("check.delete.border_kept"),
            reprofiled: muds_obs::counter("check.delete.reprofiled"),
            witness_reused: muds_obs::counter("check.delete.witness_reused"),
        };
        let mut rng = delta_rng(table);
        for _ in 0..INCREMENTAL_DELTAS {
            let delta = random_delta(&mut rng, table);
            for &algorithm in &Algorithm::ALL {
                let metrics = Metrics::new();
                let _guard = metrics.install();
                let old = profile(table, algorithm, &profiler());
                let chain = check_delta(&old, table, &delta, &meters).and_then(|first| {
                    if first.deleted_rows == 0 {
                        return Ok(());
                    }
                    // Seeded by the post-delete table, which every algorithm
                    // shares, so all four replay one chain.
                    let mut rng = delta_rng(&first.table);
                    let append = random_append(&mut rng, &first.table);
                    let chained = |mut failure: FailureDetail| {
                        failure.detail.push_str(&format!(", chained after {delta:?}"));
                        failure
                    };
                    let appended = check_delta(&first.result, &first.table, &append, &meters)
                        .map_err(chained)?;
                    let delete = random_delete(&mut rng, &appended.table);
                    check_delta(&appended.result, &appended.table, &delete, &meters)
                        .map(drop)
                        .map_err(chained)
                });
                if let Err(failure) = chain {
                    return Some(failure);
                }
            }
        }
        None
    }

    /// g₃ is monotonically non-increasing in the lhs, and zero exactly for
    /// FDs that hold.
    fn check_g3(&self, table: &Table) -> Option<FailureDetail> {
        if !narrow(table) {
            return None;
        }
        let n = table.num_columns();
        let mut cache = PliCache::new(table);
        let universe = ColumnSet::full(n);
        for a in 0..n {
            let mut bases: Vec<ColumnSet> = vec![ColumnSet::empty()];
            bases.extend(universe.without(a).iter().map(ColumnSet::single));
            for x in bases {
                let gx = g3_error(&mut cache, &x, a);
                let holds_exactly = table.num_rows() == 0 || cache.determines(&x, a);
                if (gx == 0.0) != holds_exactly {
                    return Some(FailureDetail {
                        invariant: "g3-zero-iff-holds",
                        detail: format!(
                            "g3({x:?} → {a}) = {gx} but determines() = {holds_exactly}"
                        ),
                    });
                }
                for b in universe.without(a).difference(&x).iter() {
                    let gxb = g3_error(&mut cache, &x.with(b), a);
                    if gxb > gx + 1e-12 {
                        return Some(FailureDetail {
                            invariant: "g3-monotone",
                            detail: format!(
                                "g3 grew when the lhs grew: g3({x:?} → {a}) = {gx} < \
                                 g3({:?} → {a}) = {gxb}",
                                x.with(b)
                            ),
                        });
                    }
                }
            }
        }
        None
    }
}

/// One adversarial delta: a small batch of appended rows mixing existing
/// values (to create collisions), fresh values, and NULLs — or a small
/// row-deletion batch (possibly with duplicate ids, which `apply_delta`
/// must tolerate).
fn random_delta(rng: &mut StdRng, table: &Table) -> TableDelta {
    if table.num_rows() > 0 && rng.gen_bool(0.5) {
        random_delete(rng, table)
    } else {
        random_append(rng, table)
    }
}

/// The generator behind a table's deltas, seeded by its content alone.
fn delta_rng(table: &Table) -> StdRng {
    let fp = muds_table::fingerprint(table).0;
    StdRng::seed_from_u64(fp as u64 ^ (fp >> 64) as u64 ^ DELTA_SEED)
}

/// Deletes 1–3 random rows (ids may repeat); an empty table gets an empty
/// delete.
fn random_delete(rng: &mut StdRng, table: &Table) -> TableDelta {
    let rows = table.num_rows();
    let k = if rows == 0 { 0 } else { rng.gen_range(1..=rows.min(3)) };
    TableDelta::Delete { rows: (0..k).map(|_| rng.gen_range(0..rows)).collect() }
}

/// Appends 1–3 rows whose cells copy one of the table's, are NULL, or are
/// one of four fresh values.
fn random_append(rng: &mut StdRng, table: &Table) -> TableDelta {
    let rows = table.num_rows();
    let k = rng.gen_range(1..=3usize);
    let appended = (0..k)
        .map(|_| {
            (0..table.num_columns())
                .map(|c| {
                    if rows > 0 && rng.gen_bool(0.5) {
                        let source = rng.gen_range(0..rows);
                        table.row(source)[c].unwrap_or("").to_string()
                    } else if rng.gen_bool(0.25) {
                        String::new()
                    } else {
                        format!("δ{}", rng.gen_range(0..4u32))
                    }
                })
                .collect()
        })
        .collect();
    TableDelta::Append { rows: appended }
}

/// The registry counters [`CheckSuite::check_incremental`] feeds, bound in
/// the caller's registry.
struct DeleteMeters {
    border_kept: muds_obs::Counter,
    reprofiled: muds_obs::Counter,
    witness_reused: muds_obs::Counter,
}

/// Applies `delta` to `table`, whose profile is `old`, through
/// [`apply_incremental`], and checks the outcome against a from-scratch
/// profile of the patched table: FDs, UCCs, INDs and stats, and for a
/// delete that it kept the old result exactly when the dependencies did
/// not change. Counts a delete's branch and whether it reused a witness.
fn check_delta(
    old: &ProfileResult,
    table: &Table,
    delta: &TableDelta,
    meters: &DeleteMeters,
) -> Result<IncrementalOutcome, FailureDetail> {
    let algorithm = old.algorithm;
    let fail = |invariant, detail: String| {
        Err(FailureDetail { invariant, detail: format!("{}: {detail}", algorithm.name()) })
    };
    let inc = match apply_incremental(old, table, delta) {
        Ok(out) => out,
        Err(e) => {
            return fail("incremental-apply", format!("apply_incremental failed on {delta:?}: {e}"))
        }
    };
    let scratch = profile(&inc.table, algorithm, &profiler());
    if inc.result.fds.to_sorted_vec() != scratch.fds.to_sorted_vec() {
        return fail(
            "incremental-fd",
            format!(
                "incremental FDs {:?} != from-scratch {:?} after {delta:?}",
                inc.result.fds.to_sorted_vec(),
                scratch.fds.to_sorted_vec()
            ),
        );
    }
    if inc.result.minimal_uccs != scratch.minimal_uccs {
        return fail(
            "incremental-ucc",
            format!(
                "incremental UCCs {:?} != from-scratch {:?} after {delta:?}",
                inc.result.minimal_uccs, scratch.minimal_uccs
            ),
        );
    }
    if inc.result.inds != scratch.inds {
        return fail(
            "incremental-ind",
            format!(
                "incremental INDs {:?} != from-scratch {:?} after {delta:?}",
                inc.result.inds, scratch.inds
            ),
        );
    }
    // Carried-or-recomputed column profiles must be bit-identical to a
    // from-scratch profile of the patched table (both paths feed the same
    // deterministic accumulator in the same row order).
    if inc.result.stats != scratch.stats {
        return fail(
            "incremental-stats",
            format!(
                "incremental stats {:?} != from-scratch {:?} after {delta:?}",
                inc.result.stats, scratch.stats
            ),
        );
    }
    if inc.deleted_rows > 0 {
        // A kept border runs none of the algorithm's own phases. With the
        // result correct, it must also be kept exactly when the delete left
        // the UCCs and FDs as they were: an old maximal negative that
        // turned positive changes the minimal positives, and if none did,
        // nothing changed.
        let kept = inc.result.phases.iter().all(|p| {
            matches!(p.name.as_str(), "delta apply" | "delta border" | "SPIDER" | "stats")
        });
        let unchanged = scratch.minimal_uccs == old.minimal_uccs && scratch.fds == old.fds;
        if kept != unchanged {
            return fail(
                "incremental-border",
                format!(
                    "delete {delta:?} {} the old result, but the dependencies {} changed",
                    if kept { "kept" } else { "re-profiled" },
                    if unchanged { "had not" } else { "had" }
                ),
            );
        }
        if kept { &meters.border_kept } else { &meters.reprofiled }.inc();
        if inc.result.metrics.counter("delta.witnesses_reused") > 0 {
            meters.witness_reused.inc();
        }
    }
    Ok(inc)
}

fn without_index(v: &[usize], idx: usize) -> Vec<usize> {
    v.iter().enumerate().filter(|&(i, _)| i != idx).map(|(_, &x)| x).collect()
}

/// The ingestion guard at the `ColumnSet` boundary: any width above 256
/// must be rejected with the typed error before a `ColumnSet::insert` can
/// panic.
pub fn check_overwide_rejection(width: usize) -> Option<FailureDetail> {
    assert!(width > MAX_COLUMNS, "only meaningful above the boundary");
    let names: Vec<String> = (0..width).map(|i| format!("c{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let rows: Vec<Vec<&str>> = vec![name_refs.clone()];
    match Table::from_rows("overwide", &name_refs, &rows) {
        Err(TableError::TooManyColumns { got, max }) if got == width && max == MAX_COLUMNS => {}
        other => {
            return Some(FailureDetail {
                invariant: "overwide-from-rows",
                detail: format!("from_rows({width} cols) returned {other:?}"),
            });
        }
    }
    // The CSV ingestion path must hit the same typed guard.
    let mut csv = names.join(",");
    csv.push('\n');
    csv.push_str(&names.join(","));
    csv.push('\n');
    match muds_table::table_from_csv("overwide", &csv, &muds_table::CsvOptions::default()) {
        Err(TableError::TooManyColumns { got, .. }) if got == width => None,
        other => Some(FailureDetail {
            invariant: "overwide-csv",
            detail: format!("table_from_csv({width} cols) returned {other:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Delta derivation is a pure function of table content: the same
    /// table (e.g. re-read from a corpus CSV) always yields the same
    /// deltas, so a banked repro regenerates its failing delta exactly.
    #[test]
    fn incremental_deltas_are_determined_by_table_content() {
        let rows = vec![vec!["1", "x"], vec!["2", "x"], vec!["3", "y"]];
        let a = Table::from_rows("t", &["p", "q"], &rows).unwrap();
        let b = Table::from_rows("t", &["p", "q"], &rows).unwrap();
        let suite = CheckSuite::default();
        let mut ra = delta_rng(&a);
        let mut rb = delta_rng(&b);
        for _ in 0..4 {
            assert_eq!(
                format!("{:?}", random_delta(&mut ra, &a)),
                format!("{:?}", random_delta(&mut rb, &b))
            );
        }
        assert_eq!(suite.check_incremental(&a), None);
    }

    #[test]
    fn stats_oracle_accepts_adversarial_shapes() {
        let suite = CheckSuite::default();
        // Mixed formats, NULLs, numerics, duplicates, an FK pair.
        let t = Table::from_rows(
            "mixed",
            &["id", "ref", "num", "mix", "nul"],
            &[
                vec!["1", "1", "2.5", "a@b.co", ""],
                vec!["2", "1", "-3", "plain", ""],
                vec!["3", "2", "0.25", "2020-01-02", "x"],
            ],
        )
        .unwrap();
        assert_eq!(suite.check_stats(&t), None);
        // Degenerate shapes.
        for rows in [vec![], vec![vec!["", ""]], vec![vec!["k", "k"]]] {
            let t = Table::from_rows("d", &["a", "b"], &rows).unwrap();
            assert_eq!(suite.check_stats(&t), None);
        }
    }

    /// The wire-format round-trip must survive dataset and column names
    /// that need JSON escaping (quotes, backslashes, control characters,
    /// non-ASCII).
    #[test]
    fn json_roundtrip_survives_hostile_names() {
        let cols = ["a\"quote", "b\\slash", "c\tcontrol", "déjà"];
        let rows =
            vec![vec!["1", "x", "p", "m"], vec!["2", "x", "q", "m"], vec!["3", "y", "q", "n"]];
        let table = Table::from_rows("na\"me\n", &cols, &rows).unwrap();
        let suite = CheckSuite::default();
        assert_eq!(suite.check_json_roundtrip(&table), None);
    }
}
