//! `mudsbench` — the seeded end-to-end and per-layer benchmark of the
//! MUDS workspace.
//!
//! Four workloads (see [`spec::WORKLOADS`]) stress different layers: a
//! row-heavy and a column-heavy batch profile, the serve daemon under a
//! mixed request script, and the incremental delta path. An untraced run
//! reports the end-to-end metrics ([`spec::END_TO_END`]); a traced run
//! reports the per-layer metrics ([`spec::PER_LAYER`]) and writes the span
//! log. Every output is checked against a pinned dependency digest.

mod alloc;
mod http;
mod inputs;
mod ledger;
mod sample;
pub mod spec;
mod trace;
mod workloads;

pub use workloads::{run, Config, Metric, Report};

/// The run length `BENCHMARK.json` declares and `--seconds` defaults to.
pub const RUN_SECONDS: u64 = 20;

/// The one-line JSON result a run ends with.
pub fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    )
}
