//! The fixed scenario matrix behind `mudsprof bench`.
//!
//! Two families share one cell runner (`run_cells`):
//!
//! * regression scenarios — profiling shapes × four algorithms (each entry
//!   tagged holistic vs sequential), the stats-layer overhead pair, a
//!   seeded script of deletes and appends through `apply_incremental`,
//!   and a serve round-trip scenario that boots a real `muds-serve` daemon
//!   on an ephemeral port and measures register/miss/hit latencies over
//!   actual sockets;
//! * the paper's evaluation (§6): `fig6` (row scalability), `fig7` (column
//!   scalability), `table3` (eleven UCI stand-ins × four algorithms),
//!   `fig8` (MUDS phase breakdown, paper-faithful vs exact) and
//!   `ablation` (the §5.4 set-trie study). EXPERIMENTS.md quotes the
//!   committed reports.
//!
//! Scenario names are stable identifiers: they key `BENCH_<scenario>.json`
//! files and the CI regression diff, so renaming one orphans its committed
//! baseline.
//!
//! Timing discipline: scenario code never reads the wall clock directly.
//! Profile wall times come from the span tree the profiler itself records
//! (`ProfileResult::total_time`), and every other time from spans opened
//! on a local `muds-obs` registry — so the numbers in the report are
//! exactly the numbers the observability layer saw.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use muds_core::json::parse_json;
use muds_core::{
    apply_incremental, profile, profile_csv, Algorithm, ProfileResult, ProfilerConfig,
};
use muds_datagen::{ionosphere_like, ncvoter_like, uci_dataset, uniprot_like, TABLE3_DATASETS};
use muds_lattice::{ColumnSet, SetTrie};
use muds_obs::{flatten_phases, Metrics};
use muds_serve::{ServeConfig, Server};
use muds_table::{table_to_csv, CsvOptions, Table, TableDelta};
use rand::prelude::*;

use crate::report::{BenchEntry, BenchReport, PhaseRow};

/// What a scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// In-process `profile_csv` over all four algorithms.
    Profile,
    /// HTTP round-trips against an embedded `muds-serve` daemon.
    Serve,
    /// MUDS with the single-scan stats layer off vs on — the overhead the
    /// `column_profiles` payload costs on top of dependency discovery.
    StatsOverhead,
    /// Figure 6: baseline/HFUN/MUDS on five row-prefixes of one table.
    RowSweep,
    /// Figure 7: baseline/HFUN/MUDS on growing column-prefixes.
    ColumnSweep,
    /// Table 3: all four algorithms on each UCI stand-in.
    Datasets,
    /// Figure 8: MUDS as the paper runs it and in its exact mode.
    MudsConfigs,
    /// A1 set-trie vs linear scan.
    Ablation,
    /// A seeded script of deletes and appends through `apply_incremental`.
    Delta,
}

impl ScenarioKind {
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::Profile => "profile",
            ScenarioKind::Serve => "serve",
            ScenarioKind::StatsOverhead => "stats",
            ScenarioKind::RowSweep => "row-sweep",
            ScenarioKind::ColumnSweep => "column-sweep",
            ScenarioKind::Datasets => "datasets",
            ScenarioKind::MudsConfigs => "muds-configs",
            ScenarioKind::Ablation => "ablation",
            ScenarioKind::Delta => "delta",
        }
    }
}

/// One row of the scenario matrix.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioSpec {
    /// Stable identifier: keys the `BENCH_<name>.json` file.
    pub name: &'static str,
    pub kind: ScenarioKind,
    /// Datagen shape (`uniprot` | `ncvoter` | `ionosphere` | `uci`), or
    /// `random-sets` for the set-trie ablation.
    pub shape: &'static str,
    /// Rows at full size (0 = the shape fixes its own row count).
    pub rows: usize,
    /// Columns at full size (0 = each dataset fixes its own).
    pub cols: usize,
    /// Which paper figure this configuration maps to (EXPERIMENTS.md).
    pub figure: &'static str,
}

/// The full matrix: the eight regression scenarios cheapest first, then
/// the paper's evaluation. `ionosphere_wide`, `uniprot_10k`,
/// `stats_overhead` and `delta` are the CI smoke scenarios (see
/// `.github/workflows/ci.yml`).
pub const SCENARIOS: [ScenarioSpec; 13] = [
    ScenarioSpec {
        name: "ionosphere_wide",
        kind: ScenarioKind::Profile,
        shape: "ionosphere",
        rows: 0,
        // 14 columns: wide enough that the lattice dominates (Figure 7's
        // regime) while the whole four-algorithm run stays ~1s; FD counts
        // explode exponentially past ~16 columns.
        cols: 14,
        figure: "Figure 7 (column scalability, 351 rows)",
    },
    ScenarioSpec {
        name: "uniprot_10k",
        kind: ScenarioKind::Profile,
        shape: "uniprot",
        rows: 10_000,
        cols: 8,
        figure: "Figure 6 (row scalability, small point)",
    },
    ScenarioSpec {
        name: "ncvoter_10k",
        kind: ScenarioKind::Profile,
        shape: "ncvoter",
        rows: 10_000,
        cols: 8,
        figure: "Figure 6 (row scalability, small point)",
    },
    ScenarioSpec {
        name: "stats_overhead",
        kind: ScenarioKind::StatsOverhead,
        shape: "uniprot",
        rows: 10_000,
        cols: 8,
        figure: "§15 stats overhead on a Figure 6 workload (target ≤ 10%)",
    },
    ScenarioSpec {
        name: "serve_roundtrip",
        kind: ScenarioKind::Serve,
        shape: "ncvoter",
        rows: 2_000,
        cols: 8,
        figure: "daemon overhead on a Figure 6 workload",
    },
    ScenarioSpec {
        name: "uniprot_50k",
        kind: ScenarioKind::Profile,
        shape: "uniprot",
        rows: 50_000,
        cols: 10,
        figure: "Figure 6/8 (row scalability + phase breakdown)",
    },
    ScenarioSpec {
        name: "ncvoter_50k",
        kind: ScenarioKind::Profile,
        shape: "ncvoter",
        rows: 50_000,
        cols: 10,
        figure: "Figure 6 (row scalability)",
    },
    ScenarioSpec {
        name: "delta",
        kind: ScenarioKind::Delta,
        shape: "uniprot",
        rows: 50_000,
        cols: 10,
        figure: "incremental maintenance (DESIGN.md §13) on a Figure 6 table",
    },
    ScenarioSpec {
        name: "fig6",
        kind: ScenarioKind::RowSweep,
        shape: "uniprot",
        rows: 250_000,
        cols: 10,
        figure: "Figure 6 (row scalability, 50k-250k rows, baseline/HFUN/MUDS)",
    },
    ScenarioSpec {
        name: "fig7",
        kind: ScenarioKind::ColumnSweep,
        shape: "ionosphere",
        rows: 0,
        // 18 columns keep the slowest cell (the baseline) near 6 s; the
        // paper's 23 columns took its baseline >4000 s.
        cols: 18,
        figure: "Figure 7 (column scalability, 10-18 columns, baseline/HFUN/MUDS)",
    },
    ScenarioSpec {
        name: "table3",
        kind: ScenarioKind::Datasets,
        shape: "uci",
        rows: 0,
        cols: 0,
        figure: "Table 3 (11 UCI stand-ins x four algorithms)",
    },
    ScenarioSpec {
        name: "fig8",
        kind: ScenarioKind::MudsConfigs,
        shape: "ncvoter",
        rows: 10_000,
        cols: 20,
        figure: "Figure 8 (MUDS phase breakdown, paper-faithful vs exact)",
    },
    ScenarioSpec {
        name: "ablation",
        kind: ScenarioKind::Ablation,
        shape: "random-sets",
        rows: 0,
        cols: 0,
        figure: "§5.4 ablation (A1 set-trie vs linear scan)",
    },
];

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<&'static ScenarioSpec> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// Knobs shared by every scenario run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Worker threads requested via `--threads` (0 = pool default). Only
    /// recorded — the global pool is configured once by the caller.
    pub threads: usize,
    /// Runs per entry; the best (minimum-wall) run is reported.
    pub repeat: usize,
    /// Above 1, divides row counts (min 200) and caps column counts at 10
    /// so tests can exercise the full matrix quickly. 1 = full size;
    /// committed baselines use 1.
    pub scale: usize,
}

/// Column cap of scaled-down runs: FD discovery is exponential in the
/// column count, so row scaling alone cannot make the wide scenarios cheap.
const SCALED_MAX_COLS: usize = 10;

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { threads: 0, repeat: 3, scale: 1 }
    }
}

impl RunOptions {
    fn scaled_rows(&self, rows: usize) -> usize {
        (rows / self.scale.max(1)).max(200)
    }

    fn scaled_cols(&self, cols: usize) -> usize {
        if self.scale > 1 {
            cols.min(SCALED_MAX_COLS)
        } else {
            cols
        }
    }
}

/// How the paper buckets each algorithm: the holistic contenders share
/// one input scan; the sequential ones pay per-task scans.
fn mode_of(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::Muds | Algorithm::HolisticFun => "holistic",
        Algorithm::Baseline | Algorithm::Tane => "sequential",
    }
}

fn generate(spec: &ScenarioSpec, opts: &RunOptions) -> Table {
    let cols = opts.scaled_cols(spec.cols);
    match spec.shape {
        "uniprot" => uniprot_like(opts.scaled_rows(spec.rows), cols),
        "ncvoter" => ncvoter_like(opts.scaled_rows(spec.rows), cols),
        _ => ionosphere_like(cols),
    }
}

/// Runs one scenario to a full report. Errors (not panics) on harness
/// failures — a broken scenario must fail `bench` with a message, not
/// take the process down mid-matrix.
pub fn run_scenario(spec: &ScenarioSpec, opts: &RunOptions) -> Result<BenchReport, String> {
    match spec.kind {
        ScenarioKind::Profile => run_profile(spec, opts),
        ScenarioKind::Serve => run_serve(spec, opts),
        ScenarioKind::StatsOverhead => run_stats_overhead(spec, opts),
        ScenarioKind::RowSweep => run_row_sweep(spec, opts),
        ScenarioKind::ColumnSweep => run_column_sweep(spec, opts),
        ScenarioKind::Datasets => run_datasets(spec, opts),
        ScenarioKind::MudsConfigs => run_muds_configs(spec, opts),
        ScenarioKind::Ablation => run_ablation(spec, opts),
        ScenarioKind::Delta => run_delta(spec, opts),
    }
}

// ---------------------------------------------------------------------------
// The cell runner: every profiling measurement goes through here.
// ---------------------------------------------------------------------------

/// One measured configuration: `algorithm` under `config` on the table
/// handed to [`run_cells`], reported as the `(algorithm, mode)` entry.
#[derive(Debug, Clone)]
struct Cell {
    algorithm: Algorithm,
    config: ProfilerConfig,
    mode: String,
}

impl Cell {
    fn new(algorithm: Algorithm, mode: impl Into<String>) -> Cell {
        Cell { algorithm, config: ProfilerConfig::default(), mode: mode.into() }
    }

    fn muds(completion_sweep: bool, mode: &str) -> Cell {
        let config = ProfilerConfig { completion_sweep, ..ProfilerConfig::default() };
        Cell { algorithm: Algorithm::Muds, config, mode: mode.to_string() }
    }

    /// Whether the configuration promises the exact dependency sets: only
    /// paper-faithful MUDS may legitimately miss FDs.
    fn is_exact(&self) -> bool {
        self.algorithm != Algorithm::Muds || self.config.completion_sweep
    }

    fn label(&self) -> String {
        format!("{}/{}", self.algorithm.name(), self.mode)
    }
}

/// The dependency sets every exact-config cell on one table must
/// reproduce; the first exact cell sets the reference. Every measurement
/// doubles as a correctness check.
#[derive(Default)]
struct Agreement {
    /// Label and result of the first exact cell.
    reference: Option<(String, ProfileResult)>,
}

impl Agreement {
    fn check(&mut self, table: &str, label: String, result: &ProfileResult) -> Result<(), String> {
        let Some((first, reference)) = &self.reference else {
            self.reference = Some((label, result.clone()));
            return Ok(());
        };
        let disagreement = if reference.inds != result.inds {
            "INDs"
        } else if reference.minimal_uccs != result.minimal_uccs {
            "UCCs"
        } else if reference.fds.to_sorted_vec() != result.fds.to_sorted_vec() {
            "FDs"
        } else {
            return Ok(());
        };
        Err(format!("{table}: {label} and {first} disagree on {disagreement}"))
    }
}

/// Measures every cell on `table` (each entry is the best of
/// `opts.repeat` runs), appends one entry per cell, and returns the
/// highest peak RSS of its cells. Errors if two exact-config cells disagree
/// on the INDs, UCCs or FDs.
fn run_cells(
    table: &Table,
    cells: &[Cell],
    opts: &RunOptions,
    entries: &mut Vec<BenchEntry>,
) -> Result<u64, String> {
    let csv = table_to_csv(table, &CsvOptions::default());
    let mut agreement = Agreement::default();
    let mut peak = 0u64;
    for cell in cells {
        let window = muds_obs::rss::reset_peak_rss();
        let mut best: Option<(BenchEntry, ProfileResult)> = None;
        for _ in 0..opts.repeat.max(1) {
            // A fresh registry per run: the profiler drains it into the
            // result, so counters and spans cover exactly this run even
            // if the caller has its own ambient registry installed.
            let registry = Metrics::new();
            let alloc_before = muds_obs::alloc::allocated_bytes();
            let result = {
                let _guard = registry.install();
                profile_csv(
                    table.name(),
                    &csv,
                    &CsvOptions::default(),
                    cell.algorithm,
                    &cell.config,
                )
                .map_err(|e| format!("{}: generated CSV failed to parse: {e}", table.name()))?
            };
            let alloc_bytes = muds_obs::alloc::allocated_bytes().saturating_sub(alloc_before);
            let wall_ns = duration_ns(result.total_time());
            if best.as_ref().is_none_or(|(b, _)| wall_ns < b.wall_ns) {
                let mut counters = result.metrics.counters.clone();
                let (inds, uccs, fds) = result.counts();
                counters.insert("result.inds".to_string(), inds as u64);
                counters.insert("result.uccs".to_string(), uccs as u64);
                counters.insert("result.fds".to_string(), fds as u64);
                let entry = BenchEntry {
                    algorithm: cell.algorithm.name().to_string(),
                    mode: cell.mode.clone(),
                    wall_ns,
                    rows_per_sec: per_sec(table.num_rows(), wall_ns),
                    peak_rss_bytes: 0, // filled below, once the window closes
                    alloc_bytes,
                    counters,
                    phases: phase_rows(&result.metrics.spans),
                };
                best = Some((entry, result));
            }
        }
        let window_peak = peak_rss_since_reset(window);
        peak = peak.max(window_peak);
        let (mut entry, result) =
            best.ok_or_else(|| format!("{}: no runs executed", cell.label()))?;
        if cell.is_exact() {
            agreement.check(table.name(), cell.label(), &result)?;
        }
        entry.peak_rss_bytes = window_peak;
        entries.push(entry);
    }
    Ok(peak)
}

fn report(
    spec: &ScenarioSpec,
    opts: &RunOptions,
    (rows, columns): (usize, usize),
    peak_rss_bytes: u64,
    entries: Vec<BenchEntry>,
) -> BenchReport {
    BenchReport {
        scenario: spec.name.to_string(),
        kind: spec.kind.name().to_string(),
        shape: spec.shape.to_string(),
        rows: rows as u64,
        columns: columns as u64,
        threads: opts.threads as u64,
        repeat: opts.repeat.max(1) as u64,
        alloc_tracking: muds_obs::alloc::tracking_enabled(),
        peak_rss_bytes,
        entries,
    }
}

/// Closes a peak-RSS window opened by [`muds_obs::rss::reset_peak_rss`]:
/// the kernel's high-water mark when the reset succeeded, else 0.
fn peak_rss_since_reset(reset: bool) -> u64 {
    if reset {
        muds_obs::rss::lifetime_peak_rss_bytes().unwrap_or(0)
    } else {
        0
    }
}

fn dims(table: &Table) -> (usize, usize) {
    (table.num_rows(), table.num_columns())
}

fn phase_rows(spans: &[muds_obs::SpanNode]) -> Vec<PhaseRow> {
    flatten_phases(spans).into_iter().map(|(name, total_ns)| PhaseRow { name, total_ns }).collect()
}

fn per_sec(count: usize, wall_ns: u64) -> f64 {
    count as f64 / (wall_ns.max(1) as f64 / 1e9)
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Regression scenarios.
// ---------------------------------------------------------------------------

fn run_profile(spec: &ScenarioSpec, opts: &RunOptions) -> Result<BenchReport, String> {
    let table = generate(spec, opts);
    let cells: Vec<Cell> = Algorithm::ALL.map(|a| Cell::new(a, mode_of(a))).to_vec();
    let mut entries = Vec::with_capacity(cells.len());
    let peak = run_cells(&table, &cells, opts, &mut entries)?;
    Ok(report(spec, opts, dims(&table), peak, entries))
}

/// What the single-scan stats layer costs on top of dependency discovery:
/// the same generated CSV through MUDS twice, `stats` off then on. The two
/// entries share the algorithm name and differ in `mode`, so the
/// regression diff tracks the dependencies-only baseline and the
/// with-stats run independently.
fn run_stats_overhead(spec: &ScenarioSpec, opts: &RunOptions) -> Result<BenchReport, String> {
    let table = generate(spec, opts);
    let cells = [("deps-only", false), ("with-stats", true)].map(|(mode, stats)| Cell {
        config: ProfilerConfig { stats, ..ProfilerConfig::default() },
        ..Cell::new(Algorithm::Muds, mode)
    });
    let mut entries = Vec::with_capacity(cells.len());
    let peak = run_cells(&table, &cells, opts, &mut entries)?;
    Ok(report(spec, opts, dims(&table), peak, entries))
}

/// Deltas in the `delta` scenario's script, and the most rows one touches.
const DELTA_SCRIPT_OPS: usize = 30;
const DELTA_MAX_ROWS: usize = 20;

/// One step of the `delta` scenario's script: append the next `n` reserve
/// rows, or delete `n` distinct rows of the current table.
#[derive(Debug, Clone, Copy)]
enum DeltaStep {
    Append(usize),
    Delete(usize),
}

/// The write path: a MUDS profile of the uniprot table carried through a
/// fixed, seeded script of 1–20-row deltas (every third a delete, the
/// rest appends of rows generated past the table's end). One entry per
/// kind, `(append, muds)` and `(delete, muds)`: wall is the sum over the
/// kind's deltas of the spans `apply_incremental` records (`delta apply`,
/// `delta border` or `delta revalidate`, `SPIDER`, and a re-profile's own
/// phases), counters sum over them and add `ops` and, for deletes,
/// `border_kept` / `reprofiled`. Each run replays the script from the
/// same profile, and its final result must equal a from-scratch profile.
fn run_delta(spec: &ScenarioSpec, opts: &RunOptions) -> Result<BenchReport, String> {
    let rows = opts.scaled_rows(spec.rows);
    let full = uniprot_like(rows + DELTA_SCRIPT_OPS * DELTA_MAX_ROWS, opts.scaled_cols(spec.cols));
    let base = full.take_rows(rows);
    let old = profile(&base, Algorithm::Muds, &ProfilerConfig::default());
    let mut rng = StdRng::seed_from_u64(43);
    let script: Vec<DeltaStep> = (0..DELTA_SCRIPT_OPS)
        .map(|i| {
            let n = rng.gen_range(1..=DELTA_MAX_ROWS);
            if i % 3 == 1 {
                DeltaStep::Delete(n)
            } else {
                DeltaStep::Append(n)
            }
        })
        .collect();
    let window = muds_obs::rss::reset_peak_rss();
    let mut best: [Option<BenchEntry>; 2] = [None, None];
    for _ in 0..opts.repeat.max(1) {
        for (slot, entry) in best.iter_mut().zip(delta_run(&full, &base, &old, &script)?) {
            if slot.as_ref().is_none_or(|b| entry.wall_ns < b.wall_ns) {
                *slot = Some(entry);
            }
        }
    }
    let peak = peak_rss_since_reset(window);
    let mut entries: Vec<BenchEntry> = best.into_iter().flatten().collect();
    for entry in &mut entries {
        entry.peak_rss_bytes = peak;
    }
    Ok(report(spec, opts, dims(&base), peak, entries))
}

/// One replay of the `delta` script from `old`, the profile of `base`;
/// appended rows come from `full` past `base`'s rows, and every delete's
/// row ids from a fixed seed. Returns the append and the delete entry.
fn delta_run(
    full: &Table,
    base: &Table,
    old: &ProfileResult,
    script: &[DeltaStep],
) -> Result<[BenchEntry; 2], String> {
    const KEPT_PHASES: [&str; 3] = ["delta apply", "delta border", "SPIDER"];
    let mut rng = StdRng::seed_from_u64(47);
    let (mut table, mut result) = (base.clone(), old.clone());
    let mut next_row = base.num_rows();
    let mut entries = ["append", "delete"].map(|kind| BenchEntry {
        algorithm: kind.to_string(),
        mode: "muds".to_string(),
        wall_ns: 0,
        rows_per_sec: 0.0,
        peak_rss_bytes: 0, // filled in once the run's window closes
        alloc_bytes: 0,
        counters: BTreeMap::new(),
        phases: Vec::new(),
    });
    // Per entry: rows changed and the spans of its deltas.
    let mut changed = [0usize; 2];
    let mut spans: [Vec<muds_obs::SpanNode>; 2] = Default::default();
    for step in script {
        let (kind, delta) = match *step {
            DeltaStep::Append(n) => {
                let rows = (next_row..next_row + n)
                    .map(|r| full.row(r).into_iter().map(|v| v.unwrap_or("").to_string()).collect())
                    .collect();
                next_row += n;
                (0, TableDelta::Append { rows })
            }
            DeltaStep::Delete(n) => {
                let mut ids: Vec<usize> = Vec::with_capacity(n);
                while ids.len() < n.min(table.num_rows()) {
                    let id = rng.gen_range(0..table.num_rows());
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
                (1, TableDelta::Delete { rows: ids })
            }
        };
        // A fresh registry per delta: the result's snapshot covers exactly
        // this call.
        let registry = Metrics::new();
        let alloc_before = muds_obs::alloc::allocated_bytes();
        let outcome = {
            let _guard = registry.install();
            apply_incremental(&result, &table, &delta).map_err(|e| format!("delta: {e}"))?
        };
        let entry = &mut entries[kind];
        entry.alloc_bytes += muds_obs::alloc::allocated_bytes().saturating_sub(alloc_before);
        entry.wall_ns += duration_ns(outcome.result.total_time());
        changed[kind] += outcome.appended_rows + outcome.deleted_rows;
        let mut counters = outcome.result.metrics.counters.clone();
        counters.insert("ops".to_string(), 1);
        if matches!(step, DeltaStep::Delete(_)) {
            let kept = outcome.result.phases.iter().all(|p| KEPT_PHASES.contains(&p.name.as_str()));
            counters.insert(if kept { "border_kept" } else { "reprofiled" }.to_string(), 1);
        }
        for (name, value) in counters {
            *entry.counters.entry(name).or_default() += value;
        }
        spans[kind].extend(outcome.result.metrics.spans.iter().cloned());
        (table, result) = (outcome.table, outcome.result);
    }
    let scratch = profile(&table, Algorithm::Muds, &ProfilerConfig::default());
    if scratch.minimal_uccs != result.minimal_uccs
        || scratch.fds.to_sorted_vec() != result.fds.to_sorted_vec()
        || scratch.inds != result.inds
    {
        return Err(format!(
            "delta: after {} deltas the carried result differs from a from-scratch profile",
            script.len()
        ));
    }
    for ((entry, rows), spans) in entries.iter_mut().zip(changed).zip(&spans) {
        entry.rows_per_sec = per_sec(rows, entry.wall_ns);
        entry.phases = phase_rows(spans);
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// The paper's evaluation (§6).
// ---------------------------------------------------------------------------

/// The three contenders of Figures 6 and 7 (TANE only enters Table 3).
const FIGURE_ALGORITHMS: [Algorithm; 3] =
    [Algorithm::Baseline, Algorithm::HolisticFun, Algorithm::Muds];

/// Figure 6: five row-prefixes (1/5 … 5/5) of one table; mode `rows=N`.
fn run_row_sweep(spec: &ScenarioSpec, opts: &RunOptions) -> Result<BenchReport, String> {
    const STEPS: usize = 5;
    let full = generate(spec, opts);
    let mut entries = Vec::new();
    let mut peak = 0;
    for step in 1..=STEPS {
        let rows = full.num_rows() * step / STEPS;
        let cells = FIGURE_ALGORITHMS.map(|a| Cell::new(a, format!("rows={rows}")));
        peak = peak.max(run_cells(&full.take_rows(rows), &cells, opts, &mut entries)?);
    }
    Ok(report(spec, opts, dims(&full), peak, entries))
}

/// Figure 7: growing column-prefixes of one table; mode `cols=N`.
fn run_column_sweep(spec: &ScenarioSpec, opts: &RunOptions) -> Result<BenchReport, String> {
    const STEPS: [usize; 7] = [10, 12, 14, 15, 16, 17, 18];
    let full = generate(spec, opts);
    let mut entries = Vec::new();
    let mut peak = 0;
    for cols in STEPS.into_iter().filter(|&c| c <= full.num_columns()) {
        let cells = FIGURE_ALGORITHMS.map(|a| Cell::new(a, format!("cols={cols}")));
        peak = peak.max(run_cells(&full.take_columns(cols), &cells, opts, &mut entries)?);
    }
    Ok(report(spec, opts, dims(&full), peak, entries))
}

/// Table 3: all four algorithms on each UCI stand-in; mode = dataset.
/// The report's shape is the largest row and column count measured.
fn run_datasets(spec: &ScenarioSpec, opts: &RunOptions) -> Result<BenchReport, String> {
    let mut entries = Vec::new();
    let (mut peak, mut rows, mut columns) = (0, 0, 0);
    for name in TABLE3_DATASETS {
        let mut table = uci_dataset(name);
        if opts.scale > 1 {
            // Projecting columns away can create duplicate rows, which
            // the algorithms require absent (§3).
            table = table
                .take_rows(opts.scaled_rows(table.num_rows()))
                .take_columns(opts.scaled_cols(table.num_columns()))
                .dedup_rows();
        }
        let cells = Algorithm::ALL.map(|a| Cell::new(a, name));
        peak = peak.max(run_cells(&table, &cells, opts, &mut entries)?);
        rows = rows.max(table.num_rows());
        columns = columns.max(table.num_columns());
    }
    Ok(report(spec, opts, (rows, columns), peak, entries))
}

/// Figure 8: MUDS's phase breakdown as the paper runs it and in the
/// default exact configuration (DUCC plus one seeded walk per right-hand
/// side). Only the latter promises the exact FD set (DESIGN.md §4).
fn run_muds_configs(spec: &ScenarioSpec, opts: &RunOptions) -> Result<BenchReport, String> {
    let table = generate(spec, opts);
    let cells = [Cell::muds(false, "paper-faithful"), Cell::muds(true, "exact")];
    let mut entries = Vec::with_capacity(cells.len());
    let peak = run_cells(&table, &cells, opts, &mut entries)?;
    Ok(report(spec, opts, dims(&table), peak, entries))
}

/// The §5 ablation A1: subset look-ups against stored minimal UCCs
/// (algorithm `trie` | `scan`, mode `sets=N`). A3 (shared scan vs
/// per-task rebuild) is `table3`'s `adult` baseline/HFUN pair, and the
/// paper's phases against the exact walks is `fig8`'s
/// paper-faithful/exact pair, so neither is measured twice. The report
/// has no table shape and no RSS probe.
fn run_ablation(spec: &ScenarioSpec, opts: &RunOptions) -> Result<BenchReport, String> {
    let mut entries = Vec::new();
    set_trie_lookups(opts, &mut entries)?;
    Ok(report(spec, opts, (0, 0), 0, entries))
}

/// A1 (§5.4): the prefix tree against a linear scan over the same stored
/// sets, each side timed by a span. Both must count the same matches.
fn set_trie_lookups(opts: &RunOptions, entries: &mut Vec<BenchEntry>) -> Result<(), String> {
    let registry = Metrics::new();
    let mut rng = StdRng::seed_from_u64(41);
    let mut random_set = |sizes: std::ops::RangeInclusive<usize>, n_cols: usize| {
        let k = rng.gen_range(sizes);
        ColumnSet::from_indices((0..k).map(|_| rng.gen_range(0..n_cols)))
    };
    let n_queries = opts.scaled_rows(10_000);
    for (n_sets, n_cols) in [(100usize, 30usize), (1_000, 40), (10_000, 60)] {
        let mut sets: Vec<ColumnSet> = (0..n_sets).map(|_| random_set(2..=5, n_cols)).collect();
        // The trie stores each set once; deduplicate so both sides count
        // the same matches.
        sets.sort();
        sets.dedup();
        let trie = SetTrie::from_sets(sets.iter().copied());
        let queries: Vec<ColumnSet> = (0..n_queries).map(|_| random_set(3..=10, n_cols)).collect();

        let timer = registry.span("trie");
        let trie_matches: usize = queries.iter().map(|q| trie.subsets_of(q).len()).sum();
        let trie_ns = duration_ns(timer.stop());
        let timer = registry.span("scan");
        let scan_matches: usize =
            queries.iter().map(|q| sets.iter().filter(|s| s.is_subset_of(q)).count()).sum();
        let scan_ns = duration_ns(timer.stop());
        if trie_matches != scan_matches {
            return Err(format!(
                "ablation: set-trie found {trie_matches} subsets, linear scan {scan_matches}"
            ));
        }
        for (lookup, wall_ns) in [("trie", trie_ns), ("scan", scan_ns)] {
            entries.push(BenchEntry {
                algorithm: lookup.to_string(),
                mode: format!("sets={n_sets}"),
                wall_ns,
                rows_per_sec: per_sec(n_queries, wall_ns),
                peak_rss_bytes: 0,
                alloc_bytes: 0,
                counters: BTreeMap::from([
                    ("queries".to_string(), n_queries as u64),
                    ("stored_sets".to_string(), sets.len() as u64),
                    ("matches".to_string(), trie_matches as u64),
                ]),
                phases: vec![PhaseRow { name: lookup.to_string(), total_ns: wall_ns }],
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Serve round-trip scenario: a real daemon, real sockets.
// ---------------------------------------------------------------------------

/// Cache hits measured per bench run (the steady-state number).
const HIT_REQUESTS: usize = 100;

fn run_serve(spec: &ScenarioSpec, opts: &RunOptions) -> Result<BenchReport, String> {
    let table = generate(spec, opts);
    let csv = table_to_csv(&table, &CsvOptions::default());
    let window = muds_obs::rss::reset_peak_rss();

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("{}: cannot bind bench server: {e}", spec.name))?;
    let addr = server.local_addr().map_err(|e| format!("{}: no local addr: {e}", spec.name))?;
    let state = server.state();
    let server_thread = std::thread::spawn(move || server.run());

    // Everything below talks to the daemon; on any error, still shut the
    // server down before returning.
    let outcome = drive_roundtrips(spec, opts, addr, table.num_rows(), &csv);
    // lint:allow(swallowed-result): the shutdown POST is a nudge; the
    // request_shutdown() below is the authoritative stop signal.
    let _ = http_call(addr, "POST", "/shutdown", &[], b"");
    state.request_shutdown();
    let join = server_thread.join();
    let peak = peak_rss_since_reset(window);
    let mut entries = outcome?;
    join.map_err(|_| "bench server thread panicked".to_string())?
        .map_err(|e| format!("bench server failed: {e}"))?;
    for entry in &mut entries {
        entry.peak_rss_bytes = peak;
    }
    Ok(report(spec, opts, dims(&table), peak, entries))
}

fn drive_roundtrips(
    spec: &ScenarioSpec,
    opts: &RunOptions,
    addr: SocketAddr,
    rows: usize,
    csv: &str,
) -> Result<Vec<BenchEntry>, String> {
    let registry = Metrics::new();
    let trace = format!("bench-{}", spec.name);
    let mut entries = Vec::with_capacity(3);

    // Stage 1: dataset registration (CSV upload + dedup + fingerprint).
    let timer = registry.span("register");
    let (status, headers, body) = http_call(
        addr,
        "POST",
        "/datasets?name=bench_rt",
        &[("Content-Type", "text/csv"), ("X-Muds-Trace", &trace)],
        csv.as_bytes(),
    )?;
    let register_ns = duration_ns(timer.stop());
    if status != 201 {
        return Err(format!("register returned {status}: {}", String::from_utf8_lossy(&body)));
    }
    if header(&headers, "x-muds-trace") != Some(trace.as_str()) {
        return Err("server did not echo the propagated X-Muds-Trace id".to_string());
    }
    entries.push(stage_entry("register", register_ns, rows, BTreeMap::new()));

    // Stage 2: the cache-miss profile run (queued job + full MUDS run).
    let profile_body = b"{\"dataset\":\"bench_rt\",\"algorithm\":\"muds\"}";
    let timer = registry.span("profile_miss");
    let (status, headers, body) = http_call(
        addr,
        "POST",
        "/profile",
        &[("Content-Type", "application/json"), ("X-Muds-Trace", &trace)],
        profile_body,
    )?;
    let miss_ns = duration_ns(timer.stop());
    if status != 200 {
        return Err(format!("profile miss returned {status}: {}", String::from_utf8_lossy(&body)));
    }
    if header(&headers, "x-cache") != Some("miss") {
        return Err("first profile request was not a cache miss".to_string());
    }
    entries.push(stage_entry("profile_miss", miss_ns, rows, BTreeMap::new()));

    // Stage 3: steady-state cache hits; report the best round-trip and
    // keep the latency distribution as counters.
    let mut hit_ns = Vec::with_capacity(HIT_REQUESTS.max(opts.repeat));
    for _ in 0..HIT_REQUESTS.max(opts.repeat) {
        let timer = registry.span("profile_hit");
        let (status, headers, _) = http_call(
            addr,
            "POST",
            "/profile",
            &[("Content-Type", "application/json"), ("X-Muds-Trace", &trace)],
            profile_body,
        )?;
        let d = timer.stop();
        if status != 200 || header(&headers, "x-cache") != Some("hit") {
            return Err(format!("hit request degraded (status {status})"));
        }
        hit_ns.push(duration_ns(d));
    }
    hit_ns.sort_unstable();
    let mut counters = BTreeMap::from([
        ("requests".to_string(), hit_ns.len() as u64),
        ("latency_p50_ns".to_string(), nearest_rank(&hit_ns, 50)),
        ("latency_p99_ns".to_string(), nearest_rank(&hit_ns, 99)),
    ]);

    // Fold the daemon's own counters in, prefixed, so the report carries
    // both sides of the conversation.
    let (status, _, body) = http_call(addr, "GET", "/metrics", &[], b"")?;
    if status == 200 {
        if let Ok(doc) = parse_json(&String::from_utf8_lossy(&body)) {
            if let Some(map) = doc.as_object() {
                for (name, value) in map {
                    if let Some(v) = value.as_u64() {
                        counters.insert(format!("serve.{name}"), v);
                    }
                }
            }
        }
    }
    let best_hit_ns = hit_ns.first().copied().unwrap_or(0);
    entries.push(stage_entry("profile_hit", best_hit_ns, rows, counters));
    Ok(entries)
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// recorded value with at least `pct` percent of the samples at or below
/// it, so it is always a latency that was actually observed (0 when there
/// are no samples).
fn nearest_rank(sorted: &[u64], pct: usize) -> u64 {
    let rank = (sorted.len() * pct).div_ceil(100).max(1);
    sorted.get(rank - 1).copied().unwrap_or(0)
}

fn stage_entry(
    stage: &str,
    wall_ns: u64,
    rows: usize,
    counters: BTreeMap<String, u64>,
) -> BenchEntry {
    BenchEntry {
        algorithm: stage.to_string(),
        mode: "roundtrip".to_string(),
        wall_ns,
        rows_per_sec: per_sec(rows, wall_ns),
        peak_rss_bytes: 0,
        alloc_bytes: 0,
        counters,
        phases: vec![PhaseRow { name: stage.to_string(), total_ns: wall_ns }],
    }
}

/// Status, lower-cased headers, body.
type HttpResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// One blocking HTTP/1.1 request over a fresh connection; sends
/// `Connection: close` so `read_to_end` terminates (the daemon otherwise
/// keeps connections open for reuse).
fn http_call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Result<HttpResponse, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes()).map_err(|e| format!("write head: {e}"))?;
    stream.write_all(body).map_err(|e| format!("write body: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("read response: {e}"))?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| "response without head terminator".to_string())?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "non-UTF-8 head".to_string())?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "malformed status line".to_string())?;
    let parsed_headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok((status, parsed_headers, raw[head_end + 4..].to_vec()))
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_opts() -> RunOptions {
        RunOptions { repeat: 1, scale: 40, ..RunOptions::default() }
    }

    #[test]
    fn profile_scenario_produces_a_full_report() {
        let spec = find("uniprot_10k").unwrap();
        let report = run_scenario(spec, &fast_opts()).expect("scenario runs");
        assert_eq!(report.scenario, "uniprot_10k");
        assert_eq!(report.kind, "profile");
        assert_eq!(report.entries.len(), 4, "one entry per algorithm");
        let modes: Vec<&str> = report.entries.iter().map(|e| e.mode.as_str()).collect();
        assert!(modes.contains(&"holistic") && modes.contains(&"sequential"));
        for entry in &report.entries {
            assert!(entry.wall_ns > 0, "{}: span-derived wall time", entry.algorithm);
            assert!(entry.rows_per_sec > 0.0);
            assert!(!entry.phases.is_empty(), "{}: phases from the span tree", entry.algorithm);
            assert!(entry.counters.contains_key("pli.requests"), "{}", entry.algorithm);
            assert!(entry.counters["result.fds"] > 0, "{}: result counts", entry.algorithm);
        }
        // The report round-trips through its own JSON schema.
        let parsed = BenchReport::from_json(&report.to_json()).expect("schema-valid");
        assert_eq!(parsed, report_with_rounded_rates(&report));
    }

    /// `rows_per_sec` is serialized at 3 decimals; normalize for equality.
    fn report_with_rounded_rates(report: &BenchReport) -> BenchReport {
        let mut r = report.clone();
        for e in &mut r.entries {
            e.rows_per_sec = (e.rows_per_sec * 1000.0).round() / 1000.0;
        }
        r
    }

    #[test]
    fn disagreeing_exact_results_are_an_error() {
        let table = uniprot_like(200, 6);
        let config = ProfilerConfig::default();
        let hfun = muds_core::profile(&table, Algorithm::HolisticFun, &config);
        let mut broken = muds_core::profile(&table, Algorithm::Muds, &config);
        broken.minimal_uccs.pop();
        let mut agreement = Agreement::default();
        agreement.check("t", "HFUN/x".into(), &hfun).expect("first result sets the reference");
        agreement.check("t", "MUDS/x".into(), &hfun).expect("an identical result agrees");
        let err = agreement.check("t", "MUDS/y".into(), &broken).unwrap_err();
        assert_eq!(err, "t: MUDS/y and HFUN/x disagree on UCCs");
        // Only configurations that promise exact results are checked.
        let faithful = Cell::muds(false, "f");
        assert!(!faithful.is_exact());
        assert!(Cell::new(Algorithm::Tane, "t").is_exact());
    }

    #[test]
    fn nearest_rank_percentiles_are_observed_samples() {
        let mut samples: Vec<u64> = (0..100u64).map(|i| (i * 7919) % 1013 + 1).collect();
        samples.sort_unstable();
        let (p50, p99) = (nearest_rank(&samples, 50), nearest_rank(&samples, 99));
        assert!(samples.contains(&p50) && samples.contains(&p99));
        assert!(p50 <= p99 && p99 <= *samples.last().unwrap());
        let ranks: Vec<u64> = (1..=100).collect();
        assert_eq!((nearest_rank(&ranks, 50), nearest_rank(&ranks, 99)), (50, 99));
        assert_eq!(nearest_rank(&[7], 99), 7);
        assert_eq!(nearest_rank(&[], 50), 0);
    }

    #[test]
    fn serve_scenario_measures_register_miss_and_hit() {
        let spec = find("serve_roundtrip").unwrap();
        let report = run_scenario(spec, &fast_opts()).expect("serve scenario runs");
        assert_eq!(report.kind, "serve");
        let stages: Vec<&str> = report.entries.iter().map(|e| e.algorithm.as_str()).collect();
        assert_eq!(stages, ["register", "profile_miss", "profile_hit"]);
        let hit = &report.entries[2];
        assert_eq!(hit.counters["requests"], HIT_REQUESTS as u64);
        assert!(hit.counters.contains_key("serve.cache_hits"));
        assert!(hit.counters["serve.trace_ids_propagated"] >= 2);
        let (p50, p99) = (hit.counters["latency_p50_ns"], hit.counters["latency_p99_ns"]);
        assert!(hit.wall_ns <= p50 && p50 <= p99, "best {} p50 {p50} p99 {p99}", hit.wall_ns);
        assert!(hit.wall_ns <= report.entries[1].wall_ns, "hits are no slower than the miss");
        if cfg!(target_os = "linux") {
            assert!(report.peak_rss_bytes > 0, "sampled peak RSS");
        }
    }

    /// The `bench --all` contract: every scenario in the matrix emits a
    /// report that round-trips through the strict schema parser under its
    /// stable file name, with unique `(algorithm, mode)` keys. Scaled way
    /// down (rows divided, columns capped) so the whole matrix, including
    /// the serve daemon boot, stays test-suite friendly.
    #[test]
    fn every_scenario_emits_schema_valid_json() {
        let opts = RunOptions { repeat: 1, scale: 200, ..RunOptions::default() };
        let mut modes = BTreeMap::new();
        for spec in &SCENARIOS {
            let report = run_scenario(spec, &opts).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(report.scenario, spec.name);
            assert_eq!(report.kind, spec.kind.name());
            assert!(!report.entries.is_empty(), "{}: entries", spec.name);
            let mut keys: Vec<(&str, &str)> =
                report.entries.iter().map(|e| (e.algorithm.as_str(), e.mode.as_str())).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), report.entries.len(), "{}: duplicate entry keys", spec.name);
            assert_eq!(BenchReport::file_name(spec.name), format!("BENCH_{}.json", spec.name));
            let parsed = BenchReport::from_json(&report.to_json())
                .unwrap_or_else(|e| panic!("{}: schema round-trip: {e}", spec.name));
            assert_eq!(parsed.scenario, spec.name);
            assert_eq!(parsed.entries.len(), report.entries.len());
            let mut sweep: Vec<String> = report.entries.into_iter().map(|e| e.mode).collect();
            sweep.dedup();
            modes.insert(spec.name, sweep);
        }
        // The paper scenarios sweep their figure's axis.
        assert_eq!(modes["fig6"], ["rows=250", "rows=500", "rows=750", "rows=1000", "rows=1250"]);
        assert_eq!(modes["fig7"], ["cols=10"], "scaled runs cap the columns");
        assert_eq!(modes["table3"], TABLE3_DATASETS);
        assert_eq!(modes["fig8"], ["paper-faithful", "exact"]);
        assert_eq!(modes["ablation"], ["sets=100", "sets=1000", "sets=10000"]);
        assert_eq!(modes["delta"], ["muds"]);
    }

    #[test]
    fn scenario_matrix_is_well_formed() {
        let mut names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SCENARIOS.len(), "scenario names are unique");
        for name in ["ionosphere_wide", "fig6", "fig7", "table3", "fig8", "ablation"] {
            assert!(find(name).is_some(), "{name}");
        }
        assert!(find("nope").is_none());
        assert_eq!(SCENARIOS.iter().filter(|s| s.kind == ScenarioKind::Serve).count(), 1);
        assert_eq!(SCENARIOS.iter().filter(|s| s.kind == ScenarioKind::StatsOverhead).count(), 1);
    }

    #[test]
    fn delta_scenario_reports_appends_and_deletes() {
        let spec = find("delta").unwrap();
        let report = run_scenario(spec, &fast_opts()).expect("delta scenario runs");
        assert_eq!(report.kind, "delta");
        let [append, delete] = &report.entries[..] else {
            panic!("two entries: {:?}", report.entries);
        };
        assert_eq!((append.algorithm.as_str(), delete.algorithm.as_str()), ("append", "delete"));
        assert_eq!((append.mode.as_str(), delete.mode.as_str()), ("muds", "muds"));
        assert_eq!(append.counters["ops"] + delete.counters["ops"], DELTA_SCRIPT_OPS as u64);
        let branches = ["border_kept", "reprofiled"];
        let deletes: u64 = branches.iter().filter_map(|b| delete.counters.get(*b)).sum();
        assert_eq!(deletes, delete.counters["ops"]);
        let phases = |e: &BenchEntry| e.phases.iter().map(|p| p.name.clone()).collect::<Vec<_>>();
        for name in ["delta apply", "delta revalidate", "SPIDER"] {
            assert!(phases(append).iter().any(|p| p == name), "{name} in {:?}", phases(append));
        }
        for name in ["delta apply", "delta border", "SPIDER"] {
            assert!(phases(delete).iter().any(|p| p == name), "{name} in {:?}", phases(delete));
        }
        assert!(append.wall_ns > 0 && delete.wall_ns > 0);
    }

    #[test]
    fn stats_overhead_scenario_reports_both_modes() {
        let spec = find("stats_overhead").unwrap();
        let report = run_scenario(spec, &fast_opts()).expect("stats scenario runs");
        assert_eq!(report.kind, "stats");
        let modes: Vec<&str> = report.entries.iter().map(|e| e.mode.as_str()).collect();
        assert_eq!(modes, ["deps-only", "with-stats"]);
        for entry in &report.entries {
            assert_eq!(entry.algorithm, Algorithm::Muds.name());
            assert!(entry.wall_ns > 0, "{}: span-derived wall time", entry.mode);
        }
        let deps = &report.entries[0];
        let with = &report.entries[1];
        assert!(!deps.counters.keys().any(|k| k.starts_with("stats.")));
        assert!(
            with.counters.get("stats.columns_profiled").copied().unwrap_or(0) > 0,
            "with-stats run meters the stats layer"
        );
    }
}
