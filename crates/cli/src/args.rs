//! Hand-rolled argument parsing for `mudsprof` (no CLI dependency).

use muds_core::Algorithm;
use muds_lattice::MAX_COLUMNS;

/// Output format of the `--metrics` report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Indented span tree plus counter tables.
    Pretty,
    /// One compact JSON object.
    Json,
}

/// Output format of `profile`'s discovered dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Column names, one dependency per line (the classic report).
    #[default]
    Human,
    /// The canonical `ProfileResult` wire document (same shape the
    /// `muds-serve` daemon returns); diagnostics move to stderr so stdout
    /// carries exactly one JSON object.
    Json,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)] // not Eq: Bench carries f64 tolerances
pub enum Command {
    /// Profile a CSV file with one algorithm.
    Profile {
        path: String,
        algorithm: Algorithm,
        delimiter: char,
        has_header: bool,
        paper_faithful: bool,
        metrics: Option<MetricsFormat>,
        trace: Option<String>,
        /// Worker threads for the parallel execution layer (`None` = all
        /// cores; `Some(1)` reproduces the sequential execution exactly).
        threads: Option<usize>,
        /// Dependency output format.
        format: OutputFormat,
        /// Write the dependency document here instead of stdout
        /// (requires `--format json`).
        out: Option<String>,
        /// CSV file (same schema) appended *after* the initial profile via
        /// the incremental delta path; the report then covers the patched
        /// table plus the `delta.revalidated` / `delta.skipped` work split.
        append: Option<String>,
        /// Compute single-scan column statistics, semantic types, and
        /// dependency classifications alongside the dependency sets.
        stats: bool,
    },
    /// Run all four algorithms on a CSV file and compare runtimes.
    Compare {
        path: String,
        delimiter: char,
        has_header: bool,
        metrics: Option<MetricsFormat>,
        trace: Option<String>,
        /// Worker threads for the parallel execution layer.
        threads: Option<usize>,
    },
    /// Generate one of the paper's stand-in datasets as CSV on stdout or to
    /// a file.
    Generate { dataset: String, rows: usize, cols: usize, output: Option<String> },
    /// Differential fuzzing: adversarial tables through all four pipelines
    /// plus the naive oracles, with automatic shrinking on disagreement.
    Fuzz {
        seed: u64,
        iters: usize,
        /// Directory for shrunken repro CSVs (`None` = don't write).
        corpus: Option<String>,
        metrics: Option<MetricsFormat>,
    },
    /// Run the profiling daemon.
    Serve {
        /// Bind address (`host:port`; port 0 picks an ephemeral port).
        addr: String,
        /// Scheduler worker threads (concurrent profiling jobs, each run
        /// single-threaded on its worker; 0 = available parallelism).
        workers: usize,
        /// Result-cache byte budget.
        cache_capacity: usize,
        /// Bounded job-queue capacity (overflow answers 429).
        queue_capacity: usize,
        /// Default `POST /profile` wait before answering 202, in ms.
        timeout_ms: u64,
        /// Largest accepted request body in bytes (413 beyond it).
        max_body_bytes: usize,
        /// Persistence root: registry + result cache write through and
        /// are replayed on restart. `None` = fully in-memory.
        data_dir: Option<String>,
    },
    /// Run the fixed benchmark scenario matrix and emit machine-readable
    /// `BENCH_<scenario>.json` reports (optionally diffed against a
    /// baseline directory).
    Bench {
        /// Scenario names to run (`--scenario`, repeatable). Empty +
        /// `all = false` is a parse error.
        scenarios: Vec<String>,
        /// Run the whole matrix.
        all: bool,
        /// Worker threads for the parallel execution layer.
        threads: Option<usize>,
        /// Output directory for `BENCH_*.json` (default `.`).
        out: String,
        /// Runs per entry; the best run is reported.
        repeat: usize,
        /// Baseline directory: diff instead of silently overwriting, exit
        /// non-zero on regressions beyond tolerance.
        check: Option<String>,
        /// Wall-time regression tolerance as a fraction (default 0.25).
        wall_tolerance: Option<f64>,
        /// Peak-RSS regression tolerance as a fraction (default 0.30).
        rss_tolerance: Option<f64>,
    },
    /// Workspace static analysis (muds-lint); arguments pass through
    /// to the lint runner (`--root`, `--format human|json|sarif`,
    /// `--baseline`, `--write-baseline`, `--update-baseline`,
    /// `--lock-graph dot`).
    Lint { args: Vec<String> },
    /// Print usage.
    Help,
}

/// Parse error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn algorithm_by_name(name: &str) -> Result<Algorithm, ArgError> {
    match name.to_ascii_lowercase().as_str() {
        "muds" => Ok(Algorithm::Muds),
        "hfun" | "holistic-fun" => Ok(Algorithm::HolisticFun),
        "baseline" | "sequential" => Ok(Algorithm::Baseline),
        "tane" => Ok(Algorithm::Tane),
        other => Err(ArgError(format!(
            "unknown algorithm {other:?}; expected muds, hfun, baseline, or tane"
        ))),
    }
}

fn take_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, ArgError> {
    *i += 1;
    args.get(*i).map(|s| s.as_str()).ok_or_else(|| ArgError(format!("{flag} needs a value")))
}

/// Takes `flag`'s value as an integer of at least 1.
fn positive_count(args: &[String], i: &mut usize, flag: &str) -> Result<usize, ArgError> {
    let v: usize = take_value(args, i, flag)?
        .parse()
        .map_err(|_| ArgError(format!("{flag} must be an integer")))?;
    if v == 0 {
        return Err(ArgError(format!("{flag} must be at least 1")));
    }
    Ok(v)
}

fn metrics_format(value: &str) -> Result<MetricsFormat, ArgError> {
    match value.to_ascii_lowercase().as_str() {
        "pretty" => Ok(MetricsFormat::Pretty),
        "json" => Ok(MetricsFormat::Json),
        other => Err(ArgError(format!("--metrics must be pretty or json, got {other:?}"))),
    }
}

fn output_format(value: &str) -> Result<OutputFormat, ArgError> {
    match value.to_ascii_lowercase().as_str() {
        "human" => Ok(OutputFormat::Human),
        "json" => Ok(OutputFormat::Json),
        other => Err(ArgError(format!("--format must be human or json, got {other:?}"))),
    }
}

/// Parses a byte count with an optional `k`/`m`/`g` suffix (powers of
/// 1024), e.g. `64m`.
fn byte_count(value: &str, flag: &str) -> Result<usize, ArgError> {
    let lower = value.to_ascii_lowercase();
    let (digits, shift) = match lower.strip_suffix(['k', 'm', 'g']) {
        Some(d) => {
            let shift = match lower.as_bytes()[lower.len() - 1] {
                b'k' => 10,
                b'm' => 20,
                _ => 30,
            };
            (d, shift)
        }
        None => (lower.as_str(), 0),
    };
    let base: usize = digits
        .parse()
        .map_err(|_| ArgError(format!("{flag} must be a byte count (e.g. 8388608 or 64m)")))?;
    base.checked_shl(shift)
        .filter(|v| (*v >> shift) == base)
        .ok_or_else(|| ArgError(format!("{flag} overflows")))
}

/// Parses `argv[1..]`.
pub fn parse(args: &[String]) -> Result<Command, ArgError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "profile" | "compare" => {
            let mut path: Option<String> = None;
            let mut algorithm = Algorithm::Muds;
            let mut delimiter = ',';
            let mut has_header = true;
            let mut paper_faithful = false;
            let mut metrics: Option<MetricsFormat> = None;
            let mut trace: Option<String> = None;
            let mut threads: Option<usize> = None;
            let mut format = OutputFormat::Human;
            let mut out: Option<String> = None;
            let mut append: Option<String> = None;
            let mut stats = false;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--format" | "-f" if cmd == "profile" => {
                        format = output_format(take_value(args, &mut i, "--format")?)?
                    }
                    "--out" | "-o" if cmd == "profile" => {
                        out = Some(take_value(args, &mut i, "--out")?.to_string())
                    }
                    "--append" if cmd == "profile" => {
                        append = Some(take_value(args, &mut i, "--append")?.to_string())
                    }
                    "--stats" if cmd == "profile" => stats = true,
                    "--threads" | "-t" => {
                        threads = Some(positive_count(args, &mut i, "--threads")?)
                    }
                    "--algorithm" | "-a" => {
                        algorithm = algorithm_by_name(take_value(args, &mut i, "--algorithm")?)?
                    }
                    "--metrics" => {
                        metrics = Some(metrics_format(take_value(args, &mut i, "--metrics")?)?)
                    }
                    "--trace" => trace = Some(take_value(args, &mut i, "--trace")?.to_string()),
                    "--delimiter" | "-d" => {
                        let v = take_value(args, &mut i, "--delimiter")?;
                        let mut chars = v.chars();
                        delimiter = chars
                            .next()
                            .filter(|_| chars.next().is_none())
                            .ok_or_else(|| ArgError("--delimiter must be one character".into()))?;
                    }
                    "--no-header" => has_header = false,
                    "--paper-faithful" => paper_faithful = true,
                    flag if flag.starts_with('-') => {
                        return Err(ArgError(format!("unknown flag {flag:?}")));
                    }
                    p if path.is_none() => path = Some(p.to_string()),
                    extra => return Err(ArgError(format!("unexpected argument {extra:?}"))),
                }
                i += 1;
            }
            let path = path.ok_or_else(|| ArgError(format!("{cmd} needs a CSV file path")))?;
            if out.is_some() && format != OutputFormat::Json {
                return Err(ArgError("--out requires --format json".into()));
            }
            if cmd == "compare" {
                Ok(Command::Compare { path, delimiter, has_header, metrics, trace, threads })
            } else {
                Ok(Command::Profile {
                    path,
                    algorithm,
                    delimiter,
                    has_header,
                    paper_faithful,
                    metrics,
                    trace,
                    threads,
                    format,
                    out,
                    append,
                    stats,
                })
            }
        }
        "fuzz" => {
            let mut seed = 42u64;
            let mut iters = 500usize;
            let mut corpus: Option<String> = None;
            let mut metrics: Option<MetricsFormat> = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--seed" | "-s" => {
                        seed = take_value(args, &mut i, "--seed")?
                            .parse()
                            .map_err(|_| ArgError("--seed must be an integer".into()))?;
                    }
                    "--iters" | "-n" => {
                        iters = take_value(args, &mut i, "--iters")?
                            .parse()
                            .map_err(|_| ArgError("--iters must be an integer".into()))?;
                    }
                    "--corpus" => corpus = Some(take_value(args, &mut i, "--corpus")?.to_string()),
                    "--metrics" => {
                        metrics = Some(metrics_format(take_value(args, &mut i, "--metrics")?)?)
                    }
                    flag if flag.starts_with('-') => {
                        return Err(ArgError(format!("unknown flag {flag:?}")));
                    }
                    extra => return Err(ArgError(format!("unexpected argument {extra:?}"))),
                }
                i += 1;
            }
            Ok(Command::Fuzz { seed, iters, corpus, metrics })
        }
        "generate" => {
            let mut dataset: Option<String> = None;
            let mut rows = 1000usize;
            let mut cols = 10usize;
            let mut output = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--rows" => {
                        rows = take_value(args, &mut i, "--rows")?
                            .parse()
                            .map_err(|_| ArgError("--rows must be an integer".into()))?;
                    }
                    "--cols" => {
                        cols = take_value(args, &mut i, "--cols")?
                            .parse()
                            .map_err(|_| ArgError("--cols must be an integer".into()))?;
                    }
                    "--output" | "-o" => {
                        output = Some(take_value(args, &mut i, "--output")?.to_string())
                    }
                    flag if flag.starts_with('-') => {
                        return Err(ArgError(format!("unknown flag {flag:?}")));
                    }
                    d if dataset.is_none() => dataset = Some(d.to_string()),
                    extra => return Err(ArgError(format!("unexpected argument {extra:?}"))),
                }
                i += 1;
            }
            let dataset = dataset.ok_or_else(|| {
                ArgError("generate needs a dataset name (uniprot, ionosphere, ncvoter, or a Table 3 name)".into())
            })?;
            // The shaped generators need a minimum width and a table holds
            // at most MAX_COLUMNS columns; the Table 3 names ignore --cols.
            let min_cols = match dataset.as_str() {
                "uniprot" => Some(5),
                "ncvoter" => Some(8),
                "ionosphere" => Some(1),
                _ => None,
            };
            if let Some(min) = min_cols.filter(|min| !(*min..=MAX_COLUMNS).contains(&cols)) {
                return Err(ArgError(format!(
                    "--cols for {dataset} must be in {min}..={MAX_COLUMNS}, got {cols}"
                )));
            }
            Ok(Command::Generate { dataset, rows, cols, output })
        }
        "serve" => {
            let mut addr = "127.0.0.1:7171".to_string();
            let mut workers = 0usize;
            let mut cache_capacity = 64 << 20;
            let mut queue_capacity = 128usize;
            let mut timeout_ms = 30_000u64;
            let mut max_body_bytes = 64 << 20;
            let mut data_dir: Option<String> = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--addr" => addr = take_value(args, &mut i, "--addr")?.to_string(),
                    "--workers" => {
                        workers = take_value(args, &mut i, "--workers")?
                            .parse()
                            .map_err(|_| ArgError("--workers must be an integer".into()))?;
                    }
                    "--cache-capacity" => {
                        cache_capacity = byte_count(
                            take_value(args, &mut i, "--cache-capacity")?,
                            "--cache-capacity",
                        )?;
                    }
                    "--queue-capacity" => {
                        queue_capacity = positive_count(args, &mut i, "--queue-capacity")?
                    }
                    "--timeout-ms" => {
                        timeout_ms = take_value(args, &mut i, "--timeout-ms")?
                            .parse()
                            .map_err(|_| ArgError("--timeout-ms must be an integer".into()))?;
                    }
                    "--max-body-bytes" => {
                        max_body_bytes = byte_count(
                            take_value(args, &mut i, "--max-body-bytes")?,
                            "--max-body-bytes",
                        )?;
                        if max_body_bytes == 0 {
                            return Err(ArgError("--max-body-bytes must be at least 1".into()));
                        }
                    }
                    "--data-dir" => {
                        data_dir = Some(take_value(args, &mut i, "--data-dir")?.to_string());
                    }
                    flag if flag.starts_with('-') => {
                        return Err(ArgError(format!("unknown flag {flag:?}")));
                    }
                    extra => return Err(ArgError(format!("unexpected argument {extra:?}"))),
                }
                i += 1;
            }
            Ok(Command::Serve {
                addr,
                workers,
                cache_capacity,
                queue_capacity,
                timeout_ms,
                max_body_bytes,
                data_dir,
            })
        }
        "bench" => {
            let mut scenarios: Vec<String> = Vec::new();
            let mut all = false;
            let mut threads: Option<usize> = None;
            let mut out = ".".to_string();
            let mut repeat = 3usize;
            let mut check: Option<String> = None;
            let mut wall_tolerance: Option<f64> = None;
            let mut rss_tolerance: Option<f64> = None;
            let tolerance = |value: &str, flag: &str| -> Result<f64, ArgError> {
                value.parse::<f64>().ok().filter(|v| v.is_finite() && *v >= 0.0).ok_or_else(|| {
                    ArgError(format!("{flag} must be a non-negative fraction (e.g. 0.25)"))
                })
            };
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--scenario" | "-s" => {
                        scenarios.push(take_value(args, &mut i, "--scenario")?.to_string())
                    }
                    "--all" => all = true,
                    "--threads" | "-t" => {
                        threads = Some(positive_count(args, &mut i, "--threads")?)
                    }
                    "--out" | "-o" => out = take_value(args, &mut i, "--out")?.to_string(),
                    "--repeat" | "-r" => repeat = positive_count(args, &mut i, "--repeat")?,
                    "--check" => check = Some(take_value(args, &mut i, "--check")?.to_string()),
                    "--wall-tolerance" => {
                        wall_tolerance = Some(tolerance(
                            take_value(args, &mut i, "--wall-tolerance")?,
                            "--wall-tolerance",
                        )?)
                    }
                    "--rss-tolerance" => {
                        rss_tolerance = Some(tolerance(
                            take_value(args, &mut i, "--rss-tolerance")?,
                            "--rss-tolerance",
                        )?)
                    }
                    flag if flag.starts_with('-') => {
                        return Err(ArgError(format!("unknown flag {flag:?}")));
                    }
                    // Bare scenario names read naturally too: `bench uniprot_10k`.
                    name => scenarios.push(name.to_string()),
                }
                i += 1;
            }
            if scenarios.is_empty() && !all {
                return Err(ArgError(
                    "bench needs --scenario <name> (repeatable) or --all; \
                     `mudsprof help` lists the matrix"
                        .into(),
                ));
            }
            if !scenarios.is_empty() && all {
                return Err(ArgError("--all and --scenario are mutually exclusive".into()));
            }
            Ok(Command::Bench {
                scenarios,
                all,
                threads,
                out,
                repeat,
                check,
                wall_tolerance,
                rss_tolerance,
            })
        }
        "lint" => Ok(Command::Lint { args: args[1..].to_vec() }),
        other => Err(ArgError(format!("unknown command {other:?}; try `mudsprof help`"))),
    }
}

/// Usage text.
pub const USAGE: &str = "\
mudsprof — holistic data profiling (MUDS, EDBT 2016 reproduction)

USAGE:
  mudsprof profile <file.csv> [-a muds|hfun|baseline|tane] [-d <delim>]
                   [--no-header] [--paper-faithful] [--threads N]
                   [--format human|json] [--out <file.json>]
                   [--append <delta.csv>] [--stats]
                   [--metrics pretty|json] [--trace <file.jsonl>]
  mudsprof compare <file.csv> [-d <delim>] [--no-header] [--threads N]
                   [--metrics pretty|json] [--trace <file.jsonl>]
  mudsprof generate <dataset> [--rows N] [--cols N] [-o out.csv]
  mudsprof fuzz [--seed S] [--iters N] [--corpus DIR] [--metrics pretty|json]
  mudsprof serve [--addr HOST:PORT] [--workers N]
                 [--cache-capacity BYTES] [--queue-capacity N]
                 [--timeout-ms MS] [--max-body-bytes BYTES]
                 [--data-dir DIR]
  mudsprof bench --scenario <name> [--scenario <name> ...] | --all
                 [--threads N] [--out DIR] [--repeat K]
                 [--check BASELINE_DIR] [--wall-tolerance F]
                 [--rss-tolerance F]
  mudsprof lint [--root DIR] [--format human|json|sarif] [--baseline FILE]
                [--write-baseline] [--update-baseline] [--lock-graph dot]
  mudsprof help

OUTPUT:
  --format json      emit the discovered dependencies as one canonical JSON
                     document (the same wire format the serve daemon
                     returns) on stdout; diagnostics move to stderr
  --out <file>       write that JSON document to a file instead of stdout

STATISTICS:
  --stats            piggyback a full column profile on the same scan that
                     discovers the dependencies: exact distinct/null counts,
                     min/max, length stats, entropy, numeric moments and
                     approximate quantiles per column, value-format and
                     semantic-type detection with a quality score, plus
                     dependency classification (minimal UCCs ranked as
                     identifier candidates, unary INDs typed as FK
                     candidates with inclusion coverage). The JSON document
                     gains schema-versioned column_profiles and
                     relationships sections.

INCREMENTAL:
  --append <file>    profile the base table, then append the rows of <file>
                     (same schema) through the incremental delta path
                     instead of re-profiling from scratch: appends can only
                     *break* UCCs/FDs, so only dependencies whose columns
                     meet the changed clusters are revalidated. The report
                     covers the patched table and states how many
                     dependency checks ran (delta.revalidated) versus were
                     carried over untouched (delta.skipped).

SERVING:
  serve runs a long-lived profiling daemon: POST /datasets registers CSV
  data (by server-side path or uploaded body) content-addressed by
  fingerprint, POST /profile runs any algorithm with results cached under
  (fingerprint, algorithm, config) and concurrent identical requests
  coalesced into one run, GET /jobs/:id reports job status, GET /metrics
  exposes server counters. --addr binds (port 0 = ephemeral), --workers
  sizes the job pool and is the daemon's whole CPU budget (each job runs
  on one worker thread; default: all cores), --cache-capacity bounds the
  result cache in bytes (k/m/g suffixes allowed), --queue-capacity bounds
  the job queue (429 on overflow), --timeout-ms is the default wait before
  a request parks as a 202 job, --max-body-bytes caps request bodies
  (default 64m; 413 beyond it, k/m/g suffixes allowed). --data-dir makes
  the daemon restart-proof: registered datasets and finished results write
  through to that directory (content-addressed blobs + a manifest,
  atomic-rename writes) and are replayed on the next boot; torn files are
  skipped and deleted. SIGTERM or POST /shutdown drains in-flight work and
  exits.

PARALLELISM:
  --threads N        worker threads for profile, compare and bench: the
                     per-column dictionary encoding and single-column PLIs,
                     batched PLI intersections and refinement checks,
                     lattice-level candidate filtering, and SPIDER running
                     beside PLI construction (default: all cores). Results
                     and counters are identical for any N; --threads 1
                     reproduces the sequential execution. serve has no
                     --threads: each job runs on one --workers thread.

OBSERVABILITY:
  --metrics pretty   print the span tree and all work counters (PLI cache,
                     lattice walks, SPIDER merge, per-phase FD checks)
  --metrics json     emit the same as one JSON object per algorithm run
  --trace <file>     stream span/counter events as JSON Lines while running

BENCHMARKING:
  bench runs a fixed scenario matrix (uniprot_10k, uniprot_50k, ncvoter_10k,
  ncvoter_50k, ionosphere_wide profile scenarios × four algorithms, a
  serve_roundtrip daemon scenario, a stats_overhead scenario timing MUDS
  with the column-statistics layer off vs on, and the paper's evaluation:
  fig6, fig7, table3, fig8 and ablation) and writes one machine-readable
  BENCH_<scenario>.json per scenario into --out: rows/s, span-tree wall and
  per-phase times, work-counter deltas, peak RSS, and (when built
  with --features bench-alloc) allocated bytes. --repeat K reports each
  entry's best of K runs. With --check DIR the fresh numbers are diffed
  against the baseline reports in DIR and the exit status is non-zero when
  wall time regresses more than --wall-tolerance (default 0.25) or peak RSS
  more than --rss-tolerance (default 0.30); schema drift always fails.

FUZZING:
  fuzz generates adversarial tables (NULL-heavy, constant, near-unique,
  duplicate-heavy, degenerate, 256-column boundary), runs every pipeline
  plus exponential naive oracles on the small ones, and cross-checks
  structural invariants (FD/UCC minimality, hitting-set duality, IND
  projection closure, g3 monotonicity, thread invariance). Disagreements
  are delta-debugged to a minimal repro; with --corpus DIR the repro is
  written there as CSV. Exit status is non-zero if any check failed.

Datasets for generate: uniprot, ionosphere, ncvoter, iris, balance, chess,
abalone, nursery, b-cancer, bridges, echocard, adult, letter, hepatitis.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn profile_defaults() {
        let cmd = parse(&argv("profile data.csv")).unwrap();
        assert_eq!(
            cmd,
            Command::Profile {
                path: "data.csv".into(),
                algorithm: Algorithm::Muds,
                delimiter: ',',
                has_header: true,
                paper_faithful: false,
                metrics: None,
                trace: None,
                threads: None,
                format: OutputFormat::Human,
                out: None,
                append: None,
                stats: false,
            }
        );
    }

    #[test]
    fn stats_flag() {
        let cmd = parse(&argv("profile x.csv --stats")).unwrap();
        assert!(matches!(cmd, Command::Profile { stats: true, .. }));
        let cmd = parse(&argv("profile x.csv")).unwrap();
        assert!(matches!(cmd, Command::Profile { stats: false, .. }));
        // --stats belongs to profile, not compare.
        assert!(parse(&argv("compare x.csv --stats")).is_err());
    }

    #[test]
    fn append_flag() {
        let cmd = parse(&argv("profile x.csv --append delta.csv")).unwrap();
        match cmd {
            Command::Profile { append, .. } => assert_eq!(append.as_deref(), Some("delta.csv")),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("profile x.csv --append")).unwrap_err().0.contains("needs a value"));
        // --append belongs to profile, not compare.
        assert!(parse(&argv("compare x.csv --append delta.csv")).is_err());
    }

    #[test]
    fn format_and_out_flags() {
        let cmd = parse(&argv("profile x.csv --format json --out deps.json")).unwrap();
        match cmd {
            Command::Profile { format, out, .. } => {
                assert_eq!(format, OutputFormat::Json);
                assert_eq!(out.as_deref(), Some("deps.json"));
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(&argv("profile x.csv -f json")).unwrap();
        assert!(matches!(cmd, Command::Profile { format: OutputFormat::Json, out: None, .. }));
        assert!(parse(&argv("profile x.csv --format yaml"))
            .unwrap_err()
            .0
            .contains("human or json"));
        assert!(parse(&argv("profile x.csv --out d.json"))
            .unwrap_err()
            .0
            .contains("--format json"));
        // --format belongs to profile, not compare.
        assert!(parse(&argv("compare x.csv --format json")).is_err());
    }

    #[test]
    fn serve_defaults_and_flags() {
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:7171".into(),
                workers: 0,
                cache_capacity: 64 << 20,
                queue_capacity: 128,
                timeout_ms: 30_000,
                max_body_bytes: 64 << 20,
                data_dir: None,
            }
        );
        let cmd = parse(&argv(
            "serve --addr 0.0.0.0:9000 --workers 3 --cache-capacity 16m --queue-capacity 8 --timeout-ms 500 --max-body-bytes 1m --data-dir /tmp/muds-state",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                addr: "0.0.0.0:9000".into(),
                workers: 3,
                cache_capacity: 16 << 20,
                queue_capacity: 8,
                timeout_ms: 500,
                max_body_bytes: 1 << 20,
                data_dir: Some("/tmp/muds-state".into()),
            }
        );
        assert!(parse(&argv("serve --cache-capacity lots")).is_err());
        assert!(parse(&argv("serve --queue-capacity 0")).unwrap_err().0.contains("at least 1"));
        assert!(parse(&argv("serve --max-body-bytes 0")).unwrap_err().0.contains("at least 1"));
        assert!(parse(&argv("serve --max-body-bytes big")).is_err());
        assert!(parse(&argv("serve --data-dir")).is_err(), "--data-dir needs a value");
        assert!(parse(&argv("serve --threads 2")).unwrap_err().0.contains("unknown flag"));
        assert!(parse(&argv("serve stray")).is_err());
    }

    #[test]
    fn byte_counts_accept_suffixes() {
        assert_eq!(byte_count("4096", "--x").unwrap(), 4096);
        assert_eq!(byte_count("8k", "--x").unwrap(), 8 << 10);
        assert_eq!(byte_count("64M", "--x").unwrap(), 64 << 20);
        assert_eq!(byte_count("2g", "--x").unwrap(), 2 << 30);
        assert!(byte_count("", "--x").is_err());
        assert!(byte_count("k", "--x").is_err());
        assert!(byte_count("12q", "--x").is_err());
    }

    #[test]
    fn threads_flag() {
        let cmd = parse(&argv("profile x.csv --threads 8")).unwrap();
        assert!(matches!(cmd, Command::Profile { threads: Some(8), .. }));
        let cmd = parse(&argv("compare x.csv -t 1")).unwrap();
        assert!(matches!(cmd, Command::Compare { threads: Some(1), .. }));
        assert!(parse(&argv("profile x.csv --threads 0")).unwrap_err().0.contains("at least 1"));
        assert!(parse(&argv("profile x.csv --threads two")).is_err());
        assert!(parse(&argv("profile x.csv --threads")).is_err());
    }

    #[test]
    fn profile_with_flags() {
        let cmd = parse(&argv("profile -a tane -d ; --no-header --paper-faithful x.csv")).unwrap();
        match cmd {
            Command::Profile { path, algorithm, delimiter, has_header, paper_faithful, .. } => {
                assert_eq!(path, "x.csv");
                assert_eq!(algorithm, Algorithm::Tane);
                assert_eq!(delimiter, ';');
                assert!(!has_header);
                assert!(paper_faithful);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn metrics_and_trace_flags() {
        let cmd = parse(&argv("profile x.csv --metrics json --trace run.jsonl")).unwrap();
        match cmd {
            Command::Profile { metrics, trace, .. } => {
                assert_eq!(metrics, Some(MetricsFormat::Json));
                assert_eq!(trace.as_deref(), Some("run.jsonl"));
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(&argv("compare x.csv --metrics pretty")).unwrap();
        match cmd {
            Command::Compare { metrics, trace, .. } => {
                assert_eq!(metrics, Some(MetricsFormat::Pretty));
                assert_eq!(trace, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("profile x.csv --metrics yaml"))
            .unwrap_err()
            .0
            .contains("pretty or json"));
        assert!(parse(&argv("profile x.csv --trace")).is_err());
    }

    #[test]
    fn compare_and_generate() {
        assert!(matches!(parse(&argv("compare x.csv")).unwrap(), Command::Compare { .. }));
        let cmd = parse(&argv("generate ncvoter --rows 500 --cols 12 -o out.csv")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                dataset: "ncvoter".into(),
                rows: 500,
                cols: 12,
                output: Some("out.csv".into())
            }
        );
    }

    #[test]
    fn generate_rejects_cols_outside_the_shape_range() {
        for (dataset, min) in [("uniprot", 5), ("ncvoter", 8), ("ionosphere", 1)] {
            for cols in [min, MAX_COLUMNS] {
                let cmd = parse(&argv(&format!("generate {dataset} --cols {cols}"))).unwrap();
                assert!(matches!(cmd, Command::Generate { cols: c, .. } if c == cols));
            }
            for cols in [min - 1, MAX_COLUMNS + 1] {
                let err = parse(&argv(&format!("generate {dataset} --cols {cols}"))).unwrap_err();
                assert_eq!(
                    err.0,
                    format!("--cols for {dataset} must be in {min}..={MAX_COLUMNS}, got {cols}")
                );
            }
        }
        // Table 3 datasets have a fixed width and ignore --cols.
        assert!(parse(&argv("generate iris --cols 0")).is_ok());
    }

    #[test]
    fn errors_are_helpful() {
        assert!(parse(&argv("profile")).is_err());
        assert!(parse(&argv("profile x.csv -a nope")).unwrap_err().0.contains("unknown algorithm"));
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("profile x.csv --delimiter ,, ")).is_err());
        assert!(parse(&argv("generate --rows abc uniprot")).is_err());
    }

    #[test]
    fn fuzz_defaults_and_flags() {
        assert_eq!(
            parse(&argv("fuzz")).unwrap(),
            Command::Fuzz { seed: 42, iters: 500, corpus: None, metrics: None }
        );
        let cmd =
            parse(&argv("fuzz --seed 7 --iters 100 --corpus tests/corpus --metrics json")).unwrap();
        assert_eq!(
            cmd,
            Command::Fuzz {
                seed: 7,
                iters: 100,
                corpus: Some("tests/corpus".into()),
                metrics: Some(MetricsFormat::Json),
            }
        );
        assert!(parse(&argv("fuzz --seed x")).is_err());
        assert!(parse(&argv("fuzz --iters")).is_err());
        assert!(parse(&argv("fuzz --threads 2")).unwrap_err().0.contains("unknown flag"));
        assert!(parse(&argv("fuzz stray")).is_err());
    }

    #[test]
    fn bench_flags() {
        assert_eq!(
            parse(&argv("bench --all")).unwrap(),
            Command::Bench {
                scenarios: vec![],
                all: true,
                threads: None,
                out: ".".into(),
                repeat: 3,
                check: None,
                wall_tolerance: None,
                rss_tolerance: None,
            }
        );
        let cmd = parse(&argv(
            "bench -s uniprot_10k --scenario ionosphere_wide -t 4 -o target/bench -r 5 \
             --check baselines --wall-tolerance 0.5 --rss-tolerance 0.6",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Bench {
                scenarios: vec!["uniprot_10k".into(), "ionosphere_wide".into()],
                all: false,
                threads: Some(4),
                out: "target/bench".into(),
                repeat: 5,
                check: Some("baselines".into()),
                wall_tolerance: Some(0.5),
                rss_tolerance: Some(0.6),
            }
        );
        // Bare names work as positional scenarios.
        let cmd = parse(&argv("bench uniprot_10k")).unwrap();
        assert!(
            matches!(cmd, Command::Bench { ref scenarios, .. } if scenarios == &["uniprot_10k"])
        );
        assert!(parse(&argv("bench")).unwrap_err().0.contains("--scenario"));
        assert!(parse(&argv("bench --all -s x")).unwrap_err().0.contains("mutually exclusive"));
        assert!(parse(&argv("bench --all --repeat 0")).unwrap_err().0.contains("at least 1"));
        assert!(parse(&argv("bench --all --wall-tolerance -1")).is_err());
        assert!(parse(&argv("bench --all --rss-tolerance nan")).is_err());
        assert!(parse(&argv("bench --all --threads 0")).is_err());
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }
}
