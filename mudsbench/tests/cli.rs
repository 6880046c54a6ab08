//! The `mudsbench` command as the benchmark file describes it: `--list`
//! matches `BENCHMARK.json`, every workload emits exactly the metrics the
//! file lists, and bad arguments are refused.

use std::path::PathBuf;
use std::process::{Command, Output};

use muds_core::json::{parse_json, JsonValue};

const BIN: &str = env!("CARGO_BIN_EXE_mudsbench");

fn benchmark_file() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    doc.get(key).and_then(JsonValue::as_array).unwrap_or_else(|| panic!("{key} is a list"))
}

fn text(v: &JsonValue, key: &str) -> String {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("{key} is a string"))
        .to_string()
}

fn mudsbench(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("mudsbench runs")
}

/// The last stdout line: the JSON result.
fn result(out: &Output) -> JsonValue {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    parse_json(last).unwrap_or_else(|e| panic!("last line {last:?} is not JSON: {e}"))
}

/// `(name, unit)` of every metric in a result, sorted.
fn metric_units(result: &JsonValue) -> Vec<(String, String)> {
    let metrics = result.get("metrics").and_then(JsonValue::as_object).expect("metrics object");
    let mut units: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(JsonValue::as_f64).is_some(),
                "{name} has a numeric value"
            );
            (name.clone(), text(m, "unit"))
        })
        .collect();
    units.sort();
    units
}

fn listed_units(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    let mut units: Vec<(String, String)> =
        entries(doc, key).iter().map(|m| (text(m, "name"), text(m, "unit"))).collect();
    units.sort();
    units
}

#[test]
fn list_output_matches_the_benchmark_file() {
    let doc = benchmark_file();
    let out = mudsbench(&["--list"]);
    assert!(out.status.success());
    let listing = String::from_utf8(out.stdout).expect("UTF-8 listing");
    let mut workloads = Vec::new();
    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    for line in listing.lines() {
        let (fields, rest) = line.split_once(" | ").expect("every line has free text");
        let fields: Vec<&str> = fields.split(' ').collect();
        match fields[0] {
            "workload" => workloads.push((fields[1].to_string(), rest.to_string())),
            "end_to_end" => end_to_end.push(fields[1..5].join(" ")),
            "per_layer" => per_layer.push(fields[1..4].join(" ")),
            other => panic!("unexpected line kind {other:?}"),
        }
    }
    let file_workloads: Vec<(String, String)> =
        entries(&doc, "workloads").iter().map(|w| (text(w, "name"), text(w, "why"))).collect();
    assert_eq!(workloads, file_workloads);
    let file_end_to_end: Vec<String> = entries(&doc, "end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(JsonValue::as_f64).expect("numeric bound");
            format!("{} {} {} {bound}", text(m, "name"), text(m, "unit"), text(m, "better"))
        })
        .collect();
    assert_eq!(end_to_end, file_end_to_end);
    let file_per_layer: Vec<String> = entries(&doc, "per_layer")
        .iter()
        .map(|m| format!("{} {} {}", text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    assert_eq!(per_layer, file_per_layer);
    assert_eq!(doc.get("run_seconds").and_then(JsonValue::as_u64), Some(mudsbench::RUN_SECONDS));
    let paths: Vec<String> =
        entries(&doc, "paths").iter().map(|p| p.as_str().unwrap_or_default().to_string()).collect();
    assert_eq!(paths, ["mudsbench"]);
}

/// A scaled-down run in a scratch working directory, where a traced run
/// leaves its span log.
fn smoke(workload: &str, trace: bool) -> (JsonValue, Option<PathBuf>) {
    let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let trace_flag = if trace { "1" } else { "0" };
    let args = [
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0.3",
        "--trace",
        trace_flag,
        "--scale",
        "50",
    ];
    let out = Command::new(BIN).args(args).current_dir(&cwd).output().expect("mudsbench runs");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let result = result(&out);
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)), "{workload}");
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(result.get("attempted").and_then(JsonValue::as_u64).unwrap_or(0) >= 1);
    let log = cwd.join(format!(".bench_build/mudsbench/{workload}-seed3.trace.jsonl"));
    (result, trace.then_some(log))
}

#[test]
fn every_workload_emits_exactly_the_listed_metrics() {
    let doc = benchmark_file();
    let end_to_end = listed_units(&doc, "end_to_end");
    let per_layer = listed_units(&doc, "per_layer");
    for workload in entries(&doc, "workloads").iter().map(|w| text(w, "name")) {
        let (untraced, _) = smoke(&workload, false);
        assert_eq!(metric_units(&untraced), end_to_end, "{workload} untraced");
        let (traced, trace_file) = smoke(&workload, true);
        assert_eq!(metric_units(&traced), per_layer, "{workload} traced");

        // The span log: parent-linked bench spans, program events filed
        // under the span that caused them.
        let log = std::fs::read_to_string(trace_file.expect("trace path")).expect("trace written");
        let lines: Vec<JsonValue> = log.lines().map(|l| parse_json(l).expect("JSONL")).collect();
        let spans: Vec<&JsonValue> = lines
            .iter()
            .filter(|l| l.get("type").and_then(JsonValue::as_str) == Some("bench_span"))
            .collect();
        let ids: Vec<u64> =
            spans.iter().filter_map(|s| s.get("id").and_then(JsonValue::as_u64)).collect();
        for span in &spans {
            let parent = span.get("parent").and_then(JsonValue::as_u64).expect("parent id");
            assert!(parent == 0 || ids.contains(&parent), "{workload}: dangling parent {parent}");
            assert!(span.get("trace").and_then(JsonValue::as_str).is_some_and(|t| !t.is_empty()));
            let start = span.get("start_ns").and_then(JsonValue::as_u64).expect("start");
            assert!(span.get("end_ns").and_then(JsonValue::as_u64).expect("end") >= start);
        }
        assert!(lines.iter().any(|l| l.get("span").is_some()), "{workload}: program events");
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "batch_wide", "--trace", "2"],
        &["--frobnicate"],
    ] {
        let out = mudsbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
