//! `mudsprof`: command-line holistic profiler.
//!
//! Profiles CSV files with MUDS / Holistic FUN / the sequential baseline /
//! TANE, compares them, and generates the paper's stand-in datasets. See
//! `mudsprof help`.

mod args;

use std::process::ExitCode;

use args::{parse, Command, MetricsFormat, OutputFormat, USAGE};
use muds_core::{
    apply_incremental, profile_csv, profile_to_json, Algorithm, Phase, ProfilerConfig,
};
use muds_datagen as datagen;
use muds_obs::{JsonlSink, Metrics};
use muds_serve::{ServeConfig, Server};
use muds_table::{table_from_csv_file, table_to_csv, CsvOptions, TableDelta};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // The lint runner owns its exit-code convention (0 clean, 1 new
    // findings, 2 error), so it bypasses `run`'s Ok/Err mapping.
    if let Command::Lint { args } = command {
        return ExitCode::from(muds_lint::run_cli(&args, &mut std::io::stdout()) as u8);
    }
    match run(command) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds the run's metrics registry, attaching a JSONL trace sink when
/// `--trace` was given, and installs it as the ambient registry so every
/// `profile_csv` call below records into it.
fn install_metrics(trace: Option<&str>) -> Result<(Metrics, muds_obs::AmbientGuard), String> {
    let metrics = Metrics::new();
    if let Some(path) = trace {
        let sink =
            JsonlSink::create(path).map_err(|e| format!("cannot open trace file {path:?}: {e}"))?;
        metrics.set_sink(Box::new(sink));
    }
    let guard = metrics.install();
    Ok((metrics, guard))
}

/// Configures the global worker pool from `--threads`. A no-op when the
/// flag is absent (rayon then defaults to all cores on first use).
fn configure_threads(threads: Option<usize>) -> Result<(), String> {
    if let Some(n) = threads {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .map_err(|e| format!("cannot configure {n} worker threads: {e}"))?;
    }
    Ok(())
}

/// Renders the `--stats` column-profile and relationship sections of the
/// human report.
fn write_stats_report(out: &mut String, stats: &muds_core::StatsProfile, names: &[&str]) {
    use std::fmt::Write;
    let _ = writeln!(out, "\ncolumn profiles ({}):", stats.columns.len());
    for c in &stats.columns {
        let _ = writeln!(
            out,
            "  {:<16} {:<10} {:<10} distinct {:>6}  nulls {:>5.1}%  quality {:.2}",
            names[c.column],
            c.format.name(),
            c.semantic_type.name(),
            c.distinct,
            c.null_fraction * 100.0,
            c.quality
        );
        if let Some(n) = &c.numeric {
            let _ = writeln!(
                out,
                "  {:<16}   min {} max {} mean {:.3} q25 {} median {} q75 {}",
                "", n.min, n.max, n.mean, n.q25, n.median, n.q75
            );
        }
    }
    let _ = writeln!(out, "\nidentifier candidates ({}):", stats.identifiers.len());
    for ident in &stats.identifiers {
        let cols: Vec<&str> = ident.columns.iter().map(|&c| names[c]).collect();
        let _ = writeln!(
            out,
            "  {{{}}} score {:.3}{}",
            cols.join(", "),
            ident.score,
            if ident.null_free { "" } else { " (nullable)" }
        );
    }
    let _ = writeln!(out, "\nforeign-key candidates ({}):", stats.foreign_keys.len());
    for fk in &stats.foreign_keys {
        let _ = writeln!(
            out,
            "  {} → {} (coverage {:.1}%)",
            names[fk.dependent],
            names[fk.referenced],
            fk.coverage * 100.0
        );
    }
}

fn write_phase_tree(out: &mut String, phases: &[Phase], indent: usize) {
    use std::fmt::Write;
    for phase in phases {
        let _ = writeln!(
            out,
            "  {:indent$}{:<28} {:?}",
            "",
            phase.name,
            phase.duration,
            indent = indent
        );
        write_phase_tree(out, &phase.children, indent + 2);
    }
}

/// `mudsprof bench`: run the scenario matrix, write `BENCH_*.json`
/// reports, optionally diff against a baseline directory.
#[allow(clippy::too_many_arguments)]
fn run_bench(
    scenarios: Vec<String>,
    all: bool,
    threads: Option<usize>,
    out: &str,
    repeat: usize,
    check: Option<String>,
    wall_tolerance: Option<f64>,
    rss_tolerance: Option<f64>,
) -> Result<(), String> {
    use muds_bench::report::{diff, BenchReport, Tolerance};
    use muds_bench::scenarios::{find, RunOptions, SCENARIOS};

    let specs: Vec<&muds_bench::scenarios::ScenarioSpec> = if all {
        SCENARIOS.iter().collect()
    } else {
        scenarios
            .iter()
            .map(|name| {
                find(name).ok_or_else(|| {
                    let known: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
                    format!("unknown scenario {name:?}; known: {}", known.join(", "))
                })
            })
            .collect::<Result<_, _>>()?
    };
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {out:?}: {e}"))?;
    let opts = RunOptions { threads: threads.unwrap_or(0), repeat, ..RunOptions::default() };
    let mut tol = Tolerance::default();
    if let Some(w) = wall_tolerance {
        tol.wall_frac = w;
    }
    if let Some(r) = rss_tolerance {
        tol.rss_frac = r;
    }

    let mut failures = Vec::new();
    for spec in specs {
        eprintln!("bench: {} ({}) ...", spec.name, spec.figure);
        let report = muds_bench::scenarios::run_scenario(spec, &opts)?;
        let file = format!("{}/{}", out.trim_end_matches('/'), BenchReport::file_name(spec.name));
        std::fs::write(&file, report.to_json())
            .map_err(|e| format!("cannot write {file:?}: {e}"))?;
        for entry in &report.entries {
            eprintln!(
                "  {:<10} {:>14.0} rows/s  wall {:>10}ns  rss {:>10}",
                entry.algorithm, entry.rows_per_sec, entry.wall_ns, entry.peak_rss_bytes
            );
        }
        eprintln!("  wrote {file}");

        if let Some(dir) = &check {
            let base_path =
                format!("{}/{}", dir.trim_end_matches('/'), BenchReport::file_name(spec.name));
            let text = std::fs::read_to_string(&base_path)
                .map_err(|e| format!("cannot read baseline {base_path:?}: {e}"))?;
            let baseline = BenchReport::from_json(&text)
                .map_err(|e| format!("baseline {base_path:?}: {e}"))?;
            let verdict = diff(&report, &baseline, &tol);
            for note in &verdict.notes {
                eprintln!("  note: {note}");
            }
            for violation in &verdict.violations {
                eprintln!("  REGRESSION: {violation}");
            }
            if !verdict.ok() {
                failures.push(spec.name.to_string());
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("bench regressions in: {}", failures.join(", ")))
    }
}

fn run(command: Command) -> Result<(), String> {
    match command {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Profile {
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
        } => {
            use std::fmt::Write;
            configure_threads(threads)?;
            let options = CsvOptions { delimiter, has_header };
            let table = table_from_csv_file(&path, &options).map_err(|e| e.to_string())?;
            let table = if table.has_duplicate_rows() {
                eprintln!(
                    "note: input contains duplicate rows; removing them (paper §3 precondition)"
                );
                table.dedup_rows()
            } else {
                table
            };
            let config = ProfilerConfig {
                completion_sweep: !paper_faithful,
                stats,
                ..ProfilerConfig::default()
            };
            let csv = table_to_csv(&table, &options);
            let (_registry, _guard) = install_metrics(trace.as_deref())?;
            let result = profile_csv(table.name(), &csv, &options, algorithm, &config)
                .map_err(|e| e.to_string())?;

            // --append rides the incremental delta path: the base profile
            // above is patched in place and only the dependencies whose
            // columns meet the changed clusters are revalidated. The report
            // below then describes the *patched* table.
            let (table, result, delta_note) = match append {
                Some(append_path) => {
                    let appended =
                        table_from_csv_file(&append_path, &options).map_err(|e| e.to_string())?;
                    if appended.column_names() != table.column_names() {
                        return Err(format!(
                            "--append {:?} columns {:?} do not match {:?} columns {:?}",
                            append_path,
                            appended.column_names(),
                            path,
                            table.column_names()
                        ));
                    }
                    let rows: Vec<Vec<String>> = (0..appended.num_rows())
                        .map(|r| {
                            appended
                                .row(r)
                                .into_iter()
                                .map(|v| v.unwrap_or("").to_string())
                                .collect()
                        })
                        .collect();
                    let outcome = apply_incremental(&result, &table, &TableDelta::Append { rows })
                        .map_err(|e| e.to_string())?;
                    let note = format!(
                        "delta: appended {} row(s) ({} dropped as duplicates); \
                         {} dependency check(s) revalidated, {} carried over unchanged\n",
                        outcome.appended_rows,
                        outcome.rows_deduplicated,
                        outcome.revalidated,
                        outcome.skipped
                    );
                    (outcome.table, outcome.result, note)
                }
                None => (table, result, String::new()),
            };

            // The human report is built once and routed by --format: in
            // human mode it *is* the data and goes to stdout; in json mode
            // the JSON document owns stdout and the report becomes a
            // diagnostic on stderr.
            let names = table.column_names();
            let mut report = String::new();
            let _ = writeln!(
                report,
                "{}: {} rows x {} columns, algorithm {}",
                table.name(),
                table.num_rows(),
                table.num_columns(),
                algorithm.name()
            );
            report.push_str(&delta_note);
            let _ = writeln!(report, "\ninclusion dependencies ({}):", result.inds.len());
            for ind in &result.inds {
                let _ = writeln!(report, "  {} ⊆ {}", names[ind.dependent], names[ind.referenced]);
            }
            let _ = writeln!(
                report,
                "\nminimal unique column combinations ({}):",
                result.minimal_uccs.len()
            );
            for ucc in &result.minimal_uccs {
                let cols: Vec<&str> = ucc.iter().map(|c| names[c]).collect();
                let _ = writeln!(report, "  {{{}}}", cols.join(", "));
            }
            let _ = writeln!(report, "\nminimal functional dependencies ({}):", result.fds.len());
            for fd in result.fds.to_sorted_vec() {
                let lhs: Vec<&str> = fd.lhs.iter().map(|c| names[c]).collect();
                let _ = writeln!(report, "  {{{}}} → {}", lhs.join(", "), names[fd.rhs]);
            }
            if let Some(stats) = &result.stats {
                write_stats_report(&mut report, stats, &names);
            }
            match metrics {
                // render_pretty already includes the span tree, so the
                // plain phase list would be redundant.
                Some(MetricsFormat::Pretty) => {
                    let _ = writeln!(report, "\n{}", result.metrics.render_pretty());
                }
                Some(MetricsFormat::Json) => {
                    let _ = writeln!(report, "\nphases:");
                    write_phase_tree(&mut report, &result.phases, 0);
                    let _ = writeln!(report, "\n{}", result.metrics.to_json());
                }
                None => {
                    let _ = writeln!(report, "\nphases:");
                    write_phase_tree(&mut report, &result.phases, 0);
                }
            }
            match format {
                OutputFormat::Human => print!("{report}"),
                OutputFormat::Json => {
                    eprint!("{report}");
                    let json = profile_to_json(&result, table.name(), &names);
                    match out {
                        Some(path) => {
                            std::fs::write(&path, format!("{json}\n"))
                                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
                            eprintln!("\nwrote {path}");
                        }
                        None => println!("{json}"),
                    }
                }
            }
            Ok(())
        }
        Command::Compare { path, delimiter, has_header, metrics, trace, threads } => {
            configure_threads(threads)?;
            let options = CsvOptions { delimiter, has_header };
            let table = table_from_csv_file(&path, &options).map_err(|e| e.to_string())?;
            let table = table.dedup_rows();
            let csv = table_to_csv(&table, &options);
            let config = ProfilerConfig::default();
            let (_registry, _guard) = install_metrics(trace.as_deref())?;
            println!(
                "{}: {} rows x {} columns\n",
                table.name(),
                table.num_rows(),
                table.num_columns()
            );
            println!("{:<10} {:>12} {:>8} {:>8} {:>8}", "algorithm", "time", "INDs", "UCCs", "FDs");
            let mut detail: Vec<muds_core::ProfileResult> = Vec::new();
            for &alg in &Algorithm::ALL {
                let result = profile_csv(table.name(), &csv, &options, alg, &config)
                    .map_err(|e| e.to_string())?;
                // Sum the algorithm's own phases rather than wall-clocking
                // this loop body, so the table excludes harness overhead and
                // matches `profile`'s per-phase report.
                let elapsed = result.total_time();
                let (inds, uccs, fds) = result.counts();
                println!("{:<10} {:>12?} {:>8} {:>8} {:>8}", alg.name(), elapsed, inds, uccs, fds);
                if metrics.is_some() {
                    detail.push(result);
                }
            }
            for result in &detail {
                match metrics {
                    Some(MetricsFormat::Pretty) => {
                        println!("\n--- {} ---", result.algorithm.name());
                        println!("{}", result.metrics.render_pretty());
                    }
                    Some(MetricsFormat::Json) => {
                        println!(
                            "{{\"algorithm\":\"{}\",\"metrics\":{}}}",
                            result.algorithm.name(),
                            result.metrics.to_json()
                        );
                    }
                    None => {}
                }
            }
            Ok(())
        }
        Command::Fuzz { seed, iters, corpus, metrics } => {
            let (registry, _guard) = install_metrics(None)?;
            let config = muds_check::FuzzConfig {
                seed,
                iters,
                corpus_dir: corpus.map(std::path::PathBuf::from),
                ..Default::default()
            };

            // The suite intentionally drives the profilers into panics and
            // catches them; the default hook would spray a backtrace per
            // caught panic over the report.
            let previous_hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let report = muds_check::run_fuzz(&config);
            std::panic::set_hook(previous_hook);

            println!(
                "fuzz: seed {seed}, {} iteration(s), {} failure(s)",
                report.iterations,
                report.failures.len()
            );
            for f in &report.failures {
                println!(
                    "\niteration {} [{}] {}: {}",
                    f.iteration, f.strategy, f.invariant, f.detail
                );
                println!(
                    "  shrunk to {} column(s) x {} row(s) ({} candidate(s) tried)",
                    f.shrunken.0, f.shrunken.1, f.shrink_stats.candidates_tried
                );
                match &f.corpus_file {
                    Some(path) => println!("  repro written to {}", path.display()),
                    None => println!("  (no corpus file written)"),
                }
            }
            let snapshot = registry.drain_snapshot();
            match metrics {
                Some(MetricsFormat::Pretty) => println!("\n{}", snapshot.render_pretty()),
                Some(MetricsFormat::Json) => println!("\n{}", snapshot.to_json()),
                None => {}
            }
            if report.clean() {
                Ok(())
            } else {
                Err(format!("{} fuzz failure(s) found", report.failures.len()))
            }
        }
        Command::Generate { dataset, rows, cols, output } => {
            let table = match dataset.as_str() {
                "uniprot" => datagen::uniprot_like(rows, cols),
                "ionosphere" => datagen::ionosphere_like(cols),
                "ncvoter" => datagen::ncvoter_like(rows, cols),
                name if datagen::TABLE3_DATASETS.contains(&name) => datagen::uci_dataset(name),
                other => return Err(format!("unknown dataset {other:?}; see `mudsprof help`")),
            };
            let csv = table_to_csv(&table, &CsvOptions::default());
            match output {
                Some(path) => {
                    std::fs::write(&path, csv).map_err(|e| e.to_string())?;
                    eprintln!(
                        "wrote {} ({} rows x {} columns)",
                        path,
                        table.num_rows(),
                        table.num_columns()
                    );
                }
                None => print!("{csv}"),
            }
            Ok(())
        }
        Command::Bench {
            scenarios,
            all,
            threads,
            out,
            repeat,
            check,
            wall_tolerance,
            rss_tolerance,
        } => {
            configure_threads(threads)?;
            run_bench(scenarios, all, threads, &out, repeat, check, wall_tolerance, rss_tolerance)
        }
        Command::Lint { .. } => unreachable!("handled in main before dispatch"),
        Command::Serve {
            addr,
            workers,
            cache_capacity,
            queue_capacity,
            timeout_ms,
            max_body_bytes,
            data_dir,
        } => {
            let config = ServeConfig {
                addr,
                workers,
                queue_capacity,
                cache_capacity,
                default_timeout: std::time::Duration::from_millis(timeout_ms),
                max_body: max_body_bytes,
                data_dir: data_dir.map(std::path::PathBuf::from),
                ..ServeConfig::default()
            };
            let server = Server::bind(config).map_err(|e| format!("cannot bind: {e}"))?;
            let addr = server.local_addr().map_err(|e| e.to_string())?;
            eprintln!("mudsprof serve: listening on http://{addr}");
            eprintln!(
                "  POST /datasets  GET /datasets  POST /profile  GET /jobs/:id  GET /metrics"
            );
            server.run().map_err(|e| format!("server error: {e}"))?;
            eprintln!("mudsprof serve: shut down cleanly");
            Ok(())
        }
    }
}
