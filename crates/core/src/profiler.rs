//! Metanome-style uniform execution environment (§6).
//!
//! The paper evaluates all algorithms inside the Metanome framework so that
//! file I/O, result handling and timing are identical across algorithms.
//! [`profile`] plays that role here: one entry point, one [`Algorithm`]
//! selector, one [`ProfileResult`] shape with phase-level timings, so the
//! experiment harnesses compare algorithms fairly.

use std::time::Duration;

use muds_fd::FdSet;
use muds_ind::Ind;
use muds_lattice::ColumnSet;
use muds_obs::{Metrics, MetricsSnapshot, SpanNode};
use muds_table::{table_from_csv, CsvOptions, Table, TableError};

use crate::baseline::{baseline, baseline_csv};
use crate::holistic_fun::holistic_fun;
use crate::incremental::Witnesses;
use crate::muds::{muds, MudsConfig};

/// The profiling algorithm to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// MUDS (§5): the paper's holistic contribution.
    Muds,
    /// Holistic FUN (§3.2): FUN + UCC capture + shared scan.
    HolisticFun,
    /// Sequential SPIDER → DUCC → FUN, nothing shared (§6's baseline).
    Baseline,
    /// TANE (FD-only reference point of Table 3). IND/UCC outputs come from
    /// its own key pruning; IND list is computed with SPIDER on a separate
    /// scan, like the baseline.
    Tane,
}

impl Algorithm {
    /// All algorithms, in the order Table 3 reports them.
    pub const ALL: [Algorithm; 4] =
        [Algorithm::Baseline, Algorithm::HolisticFun, Algorithm::Muds, Algorithm::Tane];

    /// Short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Muds => "MUDS",
            Algorithm::HolisticFun => "HFUN",
            Algorithm::Baseline => "baseline",
            Algorithm::Tane => "TANE",
        }
    }

    /// Inverse of [`Algorithm::name`], case-insensitive, accepting the CLI
    /// aliases too (`hfun`/`holistic-fun`, `baseline`/`sequential`). This
    /// is the parser for every wire surface that names an algorithm: the
    /// JSON result document, serve request bodies, and CLI flags.
    pub fn from_name(name: &str) -> Option<Algorithm> {
        match name.to_ascii_lowercase().as_str() {
            "muds" => Some(Algorithm::Muds),
            "hfun" | "holistic-fun" => Some(Algorithm::HolisticFun),
            "baseline" | "sequential" => Some(Algorithm::Baseline),
            "tane" => Some(Algorithm::Tane),
            _ => None,
        }
    }
}

/// Profiler configuration.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// RNG seed shared by the randomized traversals.
    pub seed: u64,
    /// MUDS only: exact FD discovery, one DUCC-seeded walk per right-hand
    /// side (see [`MudsConfig::completion_sweep`]). `false` is the
    /// paper-faithful pipeline.
    pub completion_sweep: bool,
    /// Compute the single-scan column-statistics profile (§15) and attach
    /// it as [`ProfileResult::stats`]. Off by default: dependency-only
    /// callers pay nothing.
    pub stats: bool,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig { seed: 42, completion_sweep: true, stats: false }
    }
}

impl ProfilerConfig {
    /// Canonical key string covering every knob that can change a
    /// profiling *result* (not its timings). Two configurations with equal
    /// keys are guaranteed to produce identical dependency sets on the
    /// same input, which is what makes the string safe to use as the
    /// config component of a content-addressed result-cache key.
    pub fn cache_key(&self) -> String {
        format!("seed={};sweep={};stats={}", self.seed, self.completion_sweep, self.stats)
    }
}

/// One timed phase of an algorithm run: the profiler's span tree node. A
/// phase with nested instrumented spans carries them as `children`.
pub type Phase = SpanNode;

/// The dependency sets one algorithm run discovers.
#[derive(Debug, Clone)]
pub struct Dependencies {
    /// All unary INDs.
    pub inds: Vec<Ind>,
    /// All minimal UCCs, sorted.
    pub minimal_uccs: Vec<ColumnSet>,
    /// All minimal FDs.
    pub fds: FdSet,
}

/// Uniform result of any [`Algorithm`].
#[derive(Debug, Clone)]
pub struct ProfileResult {
    /// Which algorithm produced this.
    pub algorithm: Algorithm,
    /// All unary INDs.
    pub inds: Vec<Ind>,
    /// All minimal UCCs, sorted.
    pub minimal_uccs: Vec<ColumnSet>,
    /// All minimal FDs.
    pub fds: FdSet,
    /// Phase-level wall-clock breakdown, derived from the run's span tree
    /// (phase names are algorithm-specific).
    pub phases: Vec<Phase>,
    /// Every counter, gauge, and span the run recorded — PLI cache traffic,
    /// lattice-walk work, SPIDER merge effort, per-phase FD checks.
    pub metrics: MetricsSnapshot,
    /// Single-scan column statistics plus dependency classification (§15),
    /// present iff [`ProfilerConfig::stats`] was set.
    pub stats: Option<muds_stats::StatsProfile>,
    /// Per maximal negative `(set, rhs)`, a pair of rows that refuted it
    /// when a delete last kept the border; empty after a profile or a
    /// re-profile. The next delete re-verifies a pair before it trusts it
    /// (DESIGN.md §13). Not part of the payload.
    pub(crate) witnesses: Witnesses,
}

impl ProfileResult {
    /// Total runtime across top-level phases.
    pub fn total_time(&self) -> Duration {
        self.phases.iter().map(|p| p.duration).sum()
    }

    /// `(|INDs|, |UCCs|, |FDs|)` — the counts Figure 7 plots.
    pub fn counts(&self) -> (usize, usize, usize) {
        (self.inds.len(), self.minimal_uccs.len(), self.fds.len())
    }
}

/// The ambient metrics registry if one is installed (the CLI installs one
/// to attach a trace sink), else a fresh registry installed for the scope
/// of the returned guard.
pub(crate) fn ensure_ambient() -> (Metrics, Option<muds_obs::AmbientGuard>) {
    match Metrics::current() {
        Some(m) => (m, None),
        None => {
            let m = Metrics::new();
            let guard = m.install();
            (m, Some(guard))
        }
    }
}

/// Drains the run's metrics out of `metrics` and assembles the uniform
/// result, deriving the phase list from the recorded span tree.
pub(crate) fn finish(
    algorithm: Algorithm,
    inds: Vec<Ind>,
    minimal_uccs: Vec<ColumnSet>,
    fds: FdSet,
    metrics: &Metrics,
) -> ProfileResult {
    let snapshot = metrics.drain_snapshot();
    let phases = snapshot.spans.clone();
    ProfileResult {
        algorithm,
        inds,
        minimal_uccs,
        fds,
        phases,
        metrics: snapshot,
        stats: None,
        witnesses: Witnesses::new(),
    }
}

/// Bridges the dependency sets into `muds-stats` (which speaks plain
/// index lists, not `ColumnSet`/`Ind`) and times the scan as its own
/// "stats" phase. Must run *before* [`finish`] drains the registry so the
/// `stats.*` counters land in the result's snapshot.
pub(crate) fn table_stats(
    table: &Table,
    inds: &[Ind],
    minimal_uccs: &[ColumnSet],
) -> muds_stats::StatsProfile {
    let span = muds_obs::span("stats");
    let uccs: Vec<Vec<usize>> = minimal_uccs.iter().map(|u| u.iter().collect()).collect();
    let pairs: Vec<(usize, usize)> = inds.iter().map(|i| (i.dependent, i.referenced)).collect();
    let profile = muds_stats::compute_stats(table, &uccs, &pairs);
    span.stop();
    profile
}

/// Runs `algorithm` on a parsed table. Input is assumed duplicate-free
/// (§3); see [`Table::dedup_rows`].
pub fn profile(table: &Table, algorithm: Algorithm, config: &ProfilerConfig) -> ProfileResult {
    let (metrics, _guard) = ensure_ambient();
    let Dependencies { inds, minimal_uccs, fds } = match algorithm {
        Algorithm::Muds => muds(
            table,
            &MudsConfig { seed: config.seed, completion_sweep: config.completion_sweep },
        ),
        Algorithm::HolisticFun => holistic_fun(table),
        Algorithm::Baseline => baseline(table, config.seed),
        Algorithm::Tane => {
            // TANE discovers no INDs itself; like the baseline, the IND
            // list comes from SPIDER on a separate pass, timed as its own
            // phase so Table 3 comparisons stay honest.
            let span = muds_obs::span("SPIDER");
            let inds = muds_ind::spider(table);
            span.stop();
            let span = muds_obs::span("TANE");
            let mut cache = muds_pli::PliCache::new(table);
            let r = muds_fd::tane(&mut cache);
            span.stop();
            Dependencies { inds, minimal_uccs: r.minimal_uccs, fds: r.fds }
        }
    };
    let stats = config.stats.then(|| table_stats(table, &inds, &minimal_uccs));
    let mut result = finish(algorithm, inds, minimal_uccs, fds, &metrics);
    result.stats = stats;
    result
}

/// Runs `algorithm` on CSV text. Holistic algorithms parse once (shared
/// I/O); the baseline re-parses per task, reproducing the paper's cost
/// model.
pub fn profile_csv(
    name: &str,
    csv: &str,
    options: &CsvOptions,
    algorithm: Algorithm,
    config: &ProfilerConfig,
) -> Result<ProfileResult, TableError> {
    match algorithm {
        Algorithm::Baseline => {
            let (metrics, _guard) = ensure_ambient();
            let r = baseline_csv(name, csv, options, config.seed);
            // The baseline has no shared scan to piggyback on, so the
            // stats layer pays an extra parse — faithfully mirroring the
            // paper's cost model for non-holistic execution.
            let stats = if config.stats {
                let span = muds_obs::span("read input");
                let table = table_from_csv(name, csv, options)?;
                span.stop();
                Some(table_stats(&table, &r.inds, &r.minimal_uccs))
            } else {
                None
            };
            let mut result = finish(algorithm, r.inds, r.minimal_uccs, r.fds, &metrics);
            result.stats = stats;
            Ok(result)
        }
        _ => {
            // Holistic algorithms and TANE: one parse, timed as a phase.
            // The guard (when we installed the registry) must outlive the
            // inner profile() call so the parse span and the algorithm
            // spans drain into one snapshot.
            let (_metrics, _guard) = ensure_ambient();
            let span = muds_obs::span("read input");
            let table = table_from_csv(name, csv, options)?;
            span.stop();
            Ok(profile(&table, algorithm, config))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::from_rows(
            "sample",
            &["id", "grp", "val", "cpy"],
            &[
                vec!["1", "a", "x", "1"],
                vec!["2", "a", "x", "2"],
                vec!["3", "b", "y", "3"],
                vec!["4", "b", "y", "4"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn all_algorithms_agree_on_fds_and_uccs() {
        let t = sample();
        let cfg = ProfilerConfig::default();
        let results: Vec<ProfileResult> =
            Algorithm::ALL.iter().map(|&a| profile(&t, a, &cfg)).collect();
        for pair in results.windows(2) {
            assert_eq!(
                pair[0].fds.to_sorted_vec(),
                pair[1].fds.to_sorted_vec(),
                "{} vs {}",
                pair[0].algorithm.name(),
                pair[1].algorithm.name()
            );
            assert_eq!(pair[0].minimal_uccs, pair[1].minimal_uccs);
        }
        // All four algorithms produce the same IND list (TANE gets its
        // INDs from a separate SPIDER pass).
        assert_eq!(results[0].inds, results[1].inds);
        assert_eq!(results[1].inds, results[2].inds);
        assert_eq!(results[2].inds, results[3].inds);
    }

    /// Regression: TANE used to return an empty IND list; it now runs
    /// SPIDER as its own timed phase, like the sequential baseline.
    #[test]
    fn tane_reports_real_inds_from_its_spider_phase() {
        let t = sample();
        let cfg = ProfilerConfig::default();
        let tane = profile(&t, Algorithm::Tane, &cfg);
        let base = profile(&t, Algorithm::Baseline, &cfg);
        assert!(!tane.inds.is_empty(), "sample table has INDs (id ↔ cpy)");
        assert_eq!(tane.inds, base.inds);
        let names: Vec<&str> = tane.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["SPIDER", "TANE"]);
    }

    #[test]
    fn profile_attaches_metrics_snapshot() {
        let t = sample();
        let r = profile(&t, Algorithm::Muds, &ProfilerConfig::default());
        assert!(r.metrics.counter("pli.intersects") > 0);
        assert_eq!(
            r.metrics.counter("pli.requests"),
            r.metrics.counter("pli.hits") + r.metrics.counter("pli.misses")
        );
        assert!(r.metrics.counter("walk.nodes_visited") > 0);
        // Phase list mirrors the span tree.
        assert_eq!(r.phases.len(), r.metrics.spans.len());
        assert_eq!(r.phases[0].name, "SPIDER");
    }

    #[test]
    fn consecutive_runs_under_one_registry_get_independent_snapshots() {
        let metrics = muds_obs::Metrics::new();
        let _guard = metrics.install();
        let t = sample();
        let cfg = ProfilerConfig::default();
        let a = profile(&t, Algorithm::Muds, &cfg);
        let b = profile(&t, Algorithm::Muds, &cfg);
        // Same seed → identical counters; the drain between runs prevents
        // accumulation.
        assert_eq!(a.metrics.counters, b.metrics.counters);
    }

    #[test]
    fn csv_entry_point_matches_table_entry_point() {
        let t = sample();
        let csv = muds_table::table_to_csv(&t, &CsvOptions::default());
        let cfg = ProfilerConfig::default();
        for &alg in &Algorithm::ALL {
            let r1 = profile(&t, alg, &cfg);
            let r2 = profile_csv("sample", &csv, &CsvOptions::default(), alg, &cfg).unwrap();
            assert_eq!(r1.fds.to_sorted_vec(), r2.fds.to_sorted_vec(), "{}", alg.name());
            assert_eq!(r1.minimal_uccs, r2.minimal_uccs);
        }
    }

    #[test]
    fn algorithm_names_round_trip() {
        for &alg in &Algorithm::ALL {
            assert_eq!(Algorithm::from_name(alg.name()), Some(alg));
        }
        assert_eq!(Algorithm::from_name("holistic-fun"), Some(Algorithm::HolisticFun));
        assert_eq!(Algorithm::from_name("SEQUENTIAL"), Some(Algorithm::Baseline));
        assert_eq!(Algorithm::from_name("nope"), None);
    }

    #[test]
    fn cache_key_tracks_result_affecting_knobs() {
        let base = ProfilerConfig::default();
        assert_eq!(base.cache_key(), ProfilerConfig::default().cache_key());
        // Flipping any one field must change the key. The stats knob
        // changes the result document, so it enters the key too (a
        // stats-on response served from a stats-off entry would silently
        // drop the column profiles).
        let flipped = [
            ProfilerConfig { seed: 43, ..ProfilerConfig::default() },
            ProfilerConfig { completion_sweep: false, ..ProfilerConfig::default() },
            ProfilerConfig { stats: true, ..ProfilerConfig::default() },
        ];
        for other in &flipped {
            assert_ne!(base.cache_key(), other.cache_key(), "{other:?}");
        }
        assert_eq!(base.cache_key(), "seed=42;sweep=true;stats=false");
    }

    /// The top-level MUDS phases are a contract: mudsbench's ledger and
    /// CI's CLI smoke read these names. The minimize span opens even when
    /// no shadow task is generated, which the sample table pins.
    #[test]
    fn muds_phase_list_is_fixed() {
        let names = |config: &ProfilerConfig| -> Vec<String> {
            let r = profile(&sample(), Algorithm::Muds, config);
            assert_eq!(r.metrics.counter("shadowed.tasks_generated"), 0);
            r.phases.into_iter().map(|p| p.name).collect()
        };
        let exact = ["SPIDER", "DUCC", "calculate R\\Z", "completion sweep"];
        assert_eq!(names(&ProfilerConfig::default()), exact);
        let faithful = [
            "SPIDER",
            "DUCC",
            "minimize FDs",
            "calculate R\\Z",
            "generate shadowed fd tasks",
            "minimize shadowed tasks",
        ];
        let config = ProfilerConfig { completion_sweep: false, ..ProfilerConfig::default() };
        assert_eq!(names(&config), faithful);
    }

    /// Exact MUDS never runs the paper-only phases §5.1 and §5.3, so it
    /// records none of their counters; the faithful mode does.
    #[test]
    fn exact_muds_records_no_paper_only_counters() {
        let paper_only = |config: &ProfilerConfig| -> Vec<String> {
            let r = profile(&sample(), Algorithm::Muds, config);
            let names = r.metrics.counters.into_keys();
            names.filter(|n| n.starts_with("minimize.") || n.starts_with("shadowed.")).collect()
        };
        assert_eq!(paper_only(&ProfilerConfig::default()), Vec::<String>::new());
        let config = ProfilerConfig { completion_sweep: false, ..ProfilerConfig::default() };
        assert!(paper_only(&config).iter().any(|n| n == "minimize.tasks"));
    }

    #[test]
    fn stats_attach_only_when_requested() {
        let t = sample();
        let off = profile(&t, Algorithm::Muds, &ProfilerConfig::default());
        assert!(off.stats.is_none());
        let cfg = ProfilerConfig { stats: true, ..ProfilerConfig::default() };
        for &alg in &Algorithm::ALL {
            let r = profile(&t, alg, &cfg);
            let stats = r.stats.expect("stats requested");
            assert_eq!(stats.columns.len(), 4);
            // id and cpy are null-free unary keys → identifier candidates.
            assert!(stats.identifiers.iter().any(|i| i.columns == [0]));
            // id ↔ cpy INDs over unary keys → FK candidates both ways.
            assert!(!stats.foreign_keys.is_empty(), "{}", alg.name());
            // The scan is metered and timed as its own phase.
            assert!(r.metrics.counter("stats.columns_profiled") >= 4);
            assert!(r.phases.iter().any(|p| p.name == "stats"), "{}", alg.name());
        }
    }

    #[test]
    fn counts_reflect_result_sizes() {
        let t = sample();
        let r = profile(&t, Algorithm::Muds, &ProfilerConfig::default());
        let (inds, uccs, fds) = r.counts();
        assert_eq!(inds, r.inds.len());
        assert_eq!(uccs, r.minimal_uccs.len());
        assert_eq!(fds, r.fds.len());
        assert!(r.total_time() > Duration::ZERO);
    }
}
