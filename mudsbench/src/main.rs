//! `mudsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints every metric as
//! `<name> <value> <unit> n=<samples>`, then one JSON result line. Exits 1
//! when an output was wrong and 2 when the run could not complete.
//! `mudsbench --list` prints the workload and metric table.
//!
//! Test-only flag: `--scale N` divides every row count.

use std::process::ExitCode;

use mudsbench::{result_json, run, spec, Config, RUN_SECONDS};

fn parse(args: &[String]) -> Result<Config, String> {
    let mut config = Config {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        scale: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => config.workload = value()?.clone(),
            "--seed" => config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                config.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                config.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--scale" => config.scale = value()?.parse().map_err(|e| format!("--scale: {e}"))?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if spec::workload(&config.workload).is_none() {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {names:?}"));
    }
    if !(config.seconds.is_finite() && config.seconds >= 0.0) || config.scale == 0 {
        return Err("--seconds must be ≥ 0 and --scale ≥ 1".to_string());
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        print!("{}", spec::list_text());
        return ExitCode::SUCCESS;
    }
    let config = match parse(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("mudsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("mudsbench: {}: {e}", config.workload);
            return ExitCode::from(2);
        }
    };
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        report.errors.push(format!("{} is not a finite number", m.name));
        report.correct = false;
    }
    println!(
        "mudsbench {} seed={} seconds={} trace={}",
        config.workload,
        config.seed,
        config.seconds,
        u8::from(config.trace)
    );
    for note in &report.notes {
        println!("{note}");
    }
    for m in &report.metrics {
        println!("{} {} {} n={}", m.name, m.value, m.unit, m.samples);
    }
    for e in &report.errors {
        eprintln!("mudsbench: {}: {e}", config.workload);
    }
    println!("{}", result_json(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
