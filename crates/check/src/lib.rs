//! Differential fuzzing oracle for the holistic profiler.
//!
//! The fuzz loop rotates through adversarial generators (the private
//! `strategy` module), runs every pipeline plus the exponential naive
//! oracles on each generated table, and checks the structural invariants
//! in [`oracle::CheckSuite`]. On a disagreement (or a panic anywhere in a
//! pipeline) the failing table is delta-debugged down to a minimal repro
//! by [`shrink::shrink`] and persisted as a CSV regression seed by
//! [`corpus::write_repro`].
//!
//! Everything is deterministic in the campaign seed: iteration `i` of a
//! campaign derives its own `StdRng` from `seed` and `i` alone, so any
//! reported failure can be re-generated without the corpus file.

mod corpus;
mod oracle;
mod shrink;
mod strategy;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use muds_table::Table;
use rand::prelude::*;

pub use corpus::write_repro;
pub use oracle::{check_overwide_rejection, CheckSuite, FailureDetail};
pub use shrink::{shrink, ShrinkStats};
pub use strategy::{SizeBounds, Strategy, STRATEGIES};

/// A fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Campaign seed; every iteration derives from it deterministically.
    pub seed: u64,
    /// Number of tables to generate and check.
    pub iters: usize,
    /// Size bounds handed to the narrow strategies.
    pub bounds: SizeBounds,
    /// The invariant suite to run on each table.
    pub suite: CheckSuite,
    /// Where to write shrunken repros; `None` disables corpus output.
    pub corpus_dir: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 42,
            iters: 500,
            bounds: SizeBounds::default(),
            suite: CheckSuite::default(),
            corpus_dir: None,
        }
    }
}

/// One confirmed failure, post-shrinking.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Iteration that generated the failing table.
    pub iteration: usize,
    /// Strategy that generated it.
    pub strategy: &'static str,
    /// Failure signature: an invariant name, or `"panic"`.
    pub invariant: String,
    /// Human-readable disagreement (or panic payload).
    pub detail: String,
    /// Shrunken repro dimensions (columns, rows).
    pub shrunken: (usize, usize),
    /// Shrinker effort.
    pub shrink_stats: ShrinkStats,
    /// Corpus file, when a directory was configured and the repro is
    /// CSV-representable.
    pub corpus_file: Option<PathBuf>,
}

/// Campaign summary.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Iterations executed.
    pub iterations: usize,
    /// All failures found, in iteration order.
    pub failures: Vec<Failure>,
}

impl FuzzReport {
    /// True when the campaign finished without a single disagreement.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// SplitMix64-style avalanche so per-iteration seeds don't correlate.
fn mix(seed: u64, iteration: u64) -> u64 {
    let mut z = seed ^ iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Outcome of one check pass: clean, an invariant violation, or a panic
/// somewhere inside a pipeline.
fn run_check(suite: &CheckSuite, table: &Table) -> Option<(String, String)> {
    match catch_unwind(AssertUnwindSafe(|| suite.check(table))) {
        Ok(None) => None,
        Ok(Some(f)) => Some((f.invariant.to_string(), f.detail)),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Some(("panic".to_string(), msg))
        }
    }
}

/// Runs a fuzz campaign. Emits `check.*` counters to the ambient
/// [`muds_obs`] registry; install one before calling to collect them.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport::default();
    for iteration in 0..config.iters {
        let strategy = &STRATEGIES[iteration % STRATEGIES.len()];
        let mut rng = StdRng::seed_from_u64(mix(config.seed, iteration as u64));
        let table = strategy.generate(&mut rng, &config.bounds);
        muds_obs::add("check.iterations", 1);
        muds_obs::add(&format!("check.strategy.{}", strategy.name), 1);

        let mut failure = run_check(&config.suite, &table).map(|(invariant, detail)| {
            let signature = invariant.clone();
            let mut still_fails = |candidate: &Table| {
                run_check(&config.suite, candidate).is_some_and(|(inv, _)| inv == signature)
            };
            let (small, shrink_stats) = shrink(&table, &mut still_fails);
            muds_obs::add("check.shrink_candidates", shrink_stats.candidates_tried as u64);
            let corpus_file = config.corpus_dir.as_ref().and_then(|dir| {
                write_repro(dir, &small, &invariant, config.seed, iteration).ok().flatten()
            });
            if corpus_file.is_some() {
                muds_obs::add("check.corpus_files", 1);
            }
            Failure {
                iteration,
                strategy: strategy.name,
                invariant,
                detail,
                shrunken: (small.num_columns(), small.num_rows()),
                shrink_stats,
                corpus_file,
            }
        });

        // Width guard: on wide-boundary iterations, also prove that any
        // width beyond the 256-column `ColumnSet` limit is rejected with
        // the typed error instead of panicking inside the bitset.
        if failure.is_none() && strategy.name == "wide-boundary" {
            let over = rng.gen_range(257..=300usize);
            failure = check_overwide_rejection(over).map(|f| Failure {
                iteration,
                strategy: strategy.name,
                invariant: f.invariant.to_string(),
                detail: f.detail,
                shrunken: (0, 0),
                shrink_stats: ShrinkStats::default(),
                corpus_file: None,
            });
        }

        if let Some(f) = failure {
            muds_obs::add("check.failures", 1);
            report.failures.push(f);
        }
        report.iterations += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full suite is clean over at least one rotation of every
    /// strategy. (The long campaign runs in CI via `mudsprof fuzz`.)
    #[test]
    fn short_campaign_is_clean() {
        let config = FuzzConfig { seed: 42, iters: STRATEGIES.len() * 2, ..Default::default() };
        let report = run_fuzz(&config);
        assert_eq!(report.iterations, config.iters);
        assert!(report.clean(), "fuzzer found disagreements: {:#?}", report.failures);
    }

    /// Shrinker self-test demanded by the acceptance criteria: inject a
    /// deliberate mutation (drop the first FD before the naive-oracle
    /// comparison) and confirm the resulting failure is caught and
    /// reduced to a tiny repro.
    #[test]
    fn sabotaged_validator_is_caught_and_shrunk() {
        let suite = CheckSuite { sabotage_drop_first_fd: true, ..Default::default() };
        let config = FuzzConfig { seed: 7, iters: STRATEGIES.len(), suite, ..Default::default() };
        let report = run_fuzz(&config);
        let f = report
            .failures
            .iter()
            .find(|f| f.invariant == "naive-fd")
            .expect("the sabotaged comparison must be detected");
        let (cols, rows) = f.shrunken;
        assert!(cols <= 6 && rows <= 20, "repro should be tiny, got {cols} cols x {rows} rows");
    }

    #[test]
    fn campaigns_are_deterministic_in_the_seed() {
        let config = FuzzConfig { seed: 9, iters: 4, ..Default::default() };
        let a = run_fuzz(&config);
        let b = run_fuzz(&config);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.failures.len(), b.failures.len());
    }
}
