//! The `BENCH_<scenario>.json` document: writer, strict parser, and the
//! regression diff behind `mudsprof bench --check`.
//!
//! One report per scenario, one entry per measured configuration
//! (algorithm × mode for profiling cells, where a paper scenario's mode
//! names its sweep point; pipeline stage for the serve round-trip). The schema is versioned: [`SCHEMA_VERSION`] bumps on any
//! incompatible change, and the diff refuses to compare across versions
//! ("schema drift") rather than silently mis-reading old baselines.
//! DESIGN.md §12 is the normative schema description.

use std::collections::BTreeMap;

use muds_core::json::{json_string, parse_json, JsonValue};

/// Version stamp of the `BENCH_*.json` schema.
pub const SCHEMA_VERSION: u64 = 1;

/// One flattened span-tree row (`path` is `/`-joined; see
/// `muds_obs::flatten_phases`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    pub name: String,
    pub total_ns: u64,
}

/// One measured configuration inside a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Algorithm name (`MUDS`, `HFUN`, `baseline`, `TANE`) or pipeline
    /// stage for serve scenarios (`register`, `profile_miss`, …).
    pub algorithm: String,
    /// `holistic` | `sequential` for profile scenarios, `roundtrip` for
    /// serve stages, the sweep point (`rows=50000`, a dataset, a MUDS
    /// configuration, …) for the paper scenarios.
    pub mode: String,
    /// Wall time derived from the muds-obs span tree (sum of top-level
    /// phases), nanoseconds.
    pub wall_ns: u64,
    pub rows_per_sec: f64,
    /// Peak RSS sampled over this entry's window (0 on platforms without
    /// a probe).
    pub peak_rss_bytes: u64,
    /// Bytes requested from the allocator during the run (0 unless the
    /// `bench-alloc` feature is on — see the report's `alloc_tracking`).
    pub alloc_bytes: u64,
    /// Counter deltas drained from the run's registry.
    pub counters: BTreeMap<String, u64>,
    /// Flattened per-phase times.
    pub phases: Vec<PhaseRow>,
}

/// One scenario's full report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    pub scenario: String,
    /// `ScenarioKind::name` of the scenario (`profile`, `serve`, …).
    pub kind: String,
    /// Datagen shape behind the scenario (`uniprot` | `ncvoter` |
    /// `ionosphere` | `uci`).
    pub shape: String,
    /// Size of the scenario's (largest) table.
    pub rows: u64,
    pub columns: u64,
    /// Worker threads requested (0 = pool default).
    pub threads: u64,
    /// Repetitions per entry; each entry keeps its best run.
    pub repeat: u64,
    /// Whether the counting allocator was compiled in when this report
    /// was produced. Diffs never compare alloc numbers across differing
    /// flags.
    pub alloc_tracking: bool,
    /// Max over the entries' window peaks.
    pub peak_rss_bytes: u64,
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// Canonical file name: `BENCH_<scenario>.json`.
    pub fn file_name(scenario: &str) -> String {
        format!("BENCH_{scenario}.json")
    }

    /// Serializes the report (deterministic field order, one entry per
    /// block, trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {},\n", SCHEMA_VERSION));
        out.push_str(&format!("  \"scenario\": {},\n", json_string(&self.scenario)));
        out.push_str(&format!("  \"kind\": {},\n", json_string(&self.kind)));
        out.push_str(&format!("  \"shape\": {},\n", json_string(&self.shape)));
        out.push_str(&format!("  \"rows\": {},\n", self.rows));
        out.push_str(&format!("  \"columns\": {},\n", self.columns));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"repeat\": {},\n", self.repeat));
        out.push_str(&format!("  \"alloc_tracking\": {},\n", self.alloc_tracking));
        out.push_str(&format!("  \"peak_rss_bytes\": {},\n", self.peak_rss_bytes));
        out.push_str("  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"algorithm\": {}, ", json_string(&e.algorithm)));
            out.push_str(&format!("\"mode\": {}, ", json_string(&e.mode)));
            out.push_str(&format!("\"wall_ns\": {}, ", e.wall_ns));
            out.push_str(&format!("\"rows_per_sec\": {:.3}, ", e.rows_per_sec));
            out.push_str(&format!("\"peak_rss_bytes\": {}, ", e.peak_rss_bytes));
            out.push_str(&format!("\"alloc_bytes\": {},\n     \"counters\": {{", e.alloc_bytes));
            for (j, (name, value)) in e.counters.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", json_string(name), value));
            }
            out.push_str("},\n     \"phases\": [");
            for (j, p) in e.phases.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"name\": {}, \"total_ns\": {}}}",
                    json_string(&p.name),
                    p.total_ns
                ));
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Strict parser: every schema field is required, and an unknown
    /// `schema_version` fails here (the `--check` "schema drift" path).
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let doc = parse_json(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let version = require_u64(&doc, "schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "schema drift: report has schema_version {version}, this tool expects \
                 {SCHEMA_VERSION}"
            ));
        }
        let entries_value = doc
            .get("entries")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| "missing \"entries\" array".to_string())?;
        let mut entries = Vec::with_capacity(entries_value.len());
        for (i, e) in entries_value.iter().enumerate() {
            entries.push(parse_entry(e).map_err(|m| format!("entry {i}: {m}"))?);
        }
        if entries.is_empty() {
            return Err("\"entries\" must not be empty".to_string());
        }
        Ok(BenchReport {
            scenario: require_str(&doc, "scenario")?,
            kind: require_str(&doc, "kind")?,
            shape: require_str(&doc, "shape")?,
            rows: require_u64(&doc, "rows")?,
            columns: require_u64(&doc, "columns")?,
            threads: require_u64(&doc, "threads")?,
            repeat: require_u64(&doc, "repeat")?,
            alloc_tracking: doc
                .get("alloc_tracking")
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| "missing \"alloc_tracking\" bool".to_string())?,
            peak_rss_bytes: require_u64(&doc, "peak_rss_bytes")?,
            entries,
        })
    }
}

fn require_u64(doc: &JsonValue, key: &str) -> Result<u64, String> {
    doc.get(key).and_then(JsonValue::as_u64).ok_or_else(|| format!("missing \"{key}\" number"))
}

fn require_str(doc: &JsonValue, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing \"{key}\" string"))
}

fn parse_entry(e: &JsonValue) -> Result<BenchEntry, String> {
    let counters_value = e
        .get("counters")
        .and_then(JsonValue::as_object)
        .ok_or_else(|| "missing \"counters\" object".to_string())?;
    let mut counters = BTreeMap::new();
    for (name, value) in counters_value {
        let v = value.as_u64().ok_or_else(|| format!("counter {name:?} is not a u64"))?;
        counters.insert(name.clone(), v);
    }
    let phases_value = e
        .get("phases")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "missing \"phases\" array".to_string())?;
    let mut phases = Vec::with_capacity(phases_value.len());
    for p in phases_value {
        phases.push(PhaseRow {
            name: require_str(p, "name")?,
            total_ns: require_u64(p, "total_ns")?,
        });
    }
    Ok(BenchEntry {
        algorithm: require_str(e, "algorithm")?,
        mode: require_str(e, "mode")?,
        wall_ns: require_u64(e, "wall_ns")?,
        rows_per_sec: e
            .get("rows_per_sec")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| "missing \"rows_per_sec\" number".to_string())?,
        peak_rss_bytes: require_u64(e, "peak_rss_bytes")?,
        alloc_bytes: require_u64(e, "alloc_bytes")?,
        counters,
        phases,
    })
}

/// Regression tolerances for `--check`. A *current* number may exceed the
/// baseline by at most the given fraction before the diff fails.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Allowed wall-time growth per entry (0.25 = fail beyond +25%).
    pub wall_frac: f64,
    /// Allowed peak-RSS growth per report (0.30 = fail beyond +30%).
    pub rss_frac: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance { wall_frac: 0.25, rss_frac: 0.30 }
    }
}

/// Outcome of one report-vs-baseline comparison.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Hard failures (regressions beyond tolerance, structural drift).
    pub violations: Vec<String>,
    /// Informational lines (improvements, skipped comparisons).
    pub notes: Vec<String>,
}

impl DiffReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Compares `current` against `baseline`. Wall time is compared per
/// matched `(algorithm, mode)` entry; peak RSS at report level (entry
/// windows overlap too much for per-entry attribution to be stable).
/// Timing noise floor: entries whose baseline wall is under 1ms are
/// note-only, never violations.
pub fn diff(current: &BenchReport, baseline: &BenchReport, tol: &Tolerance) -> DiffReport {
    const WALL_NOISE_FLOOR_NS: u64 = 1_000_000;
    let mut out = DiffReport::default();
    if current.scenario != baseline.scenario {
        out.violations.push(format!(
            "scenario mismatch: current {:?} vs baseline {:?}",
            current.scenario, baseline.scenario
        ));
        return out;
    }
    if current.rows != baseline.rows || current.columns != baseline.columns {
        out.violations.push(format!(
            "shape drift: current {}x{} vs baseline {}x{}",
            current.rows, current.columns, baseline.rows, baseline.columns
        ));
    }
    for base in &baseline.entries {
        let Some(cur) =
            current.entries.iter().find(|e| e.algorithm == base.algorithm && e.mode == base.mode)
        else {
            out.violations.push(format!(
                "entry {}/{} missing from current report",
                base.algorithm, base.mode
            ));
            continue;
        };
        let limit = (base.wall_ns as f64 * (1.0 + tol.wall_frac)) as u64;
        let ratio = cur.wall_ns as f64 / base.wall_ns.max(1) as f64;
        if cur.wall_ns > limit && base.wall_ns >= WALL_NOISE_FLOOR_NS {
            out.violations.push(format!(
                "{} {}/{}: wall {:.2}x baseline ({} ns vs {} ns, tolerance +{:.0}%)",
                current.scenario,
                base.algorithm,
                base.mode,
                ratio,
                cur.wall_ns,
                base.wall_ns,
                tol.wall_frac * 100.0
            ));
        } else if ratio < 0.80 {
            out.notes.push(format!(
                "{} {}/{}: improved to {:.2}x baseline wall",
                current.scenario, base.algorithm, base.mode, ratio
            ));
        }
    }
    match (current.peak_rss_bytes, baseline.peak_rss_bytes) {
        (cur, base) if cur > 0 && base > 0 => {
            let limit = (base as f64 * (1.0 + tol.rss_frac)) as u64;
            if cur > limit {
                out.violations.push(format!(
                    "{}: peak RSS {:.2}x baseline ({} vs {} bytes, tolerance +{:.0}%)",
                    current.scenario,
                    cur as f64 / base as f64,
                    cur,
                    base,
                    tol.rss_frac * 100.0
                ));
            }
        }
        _ => out
            .notes
            .push(format!("{}: RSS comparison skipped (no probe on one side)", current.scenario)),
    }
    if current.alloc_tracking && baseline.alloc_tracking {
        for base in &baseline.entries {
            if let Some(cur) = current
                .entries
                .iter()
                .find(|e| e.algorithm == base.algorithm && e.mode == base.mode)
            {
                if base.alloc_bytes > 0 && cur.alloc_bytes > base.alloc_bytes * 2 {
                    out.notes.push(format!(
                        "{} {}/{}: alloc_bytes doubled ({} vs {})",
                        current.scenario,
                        base.algorithm,
                        base.mode,
                        cur.alloc_bytes,
                        base.alloc_bytes
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            scenario: "uniprot_10k".into(),
            kind: "profile".into(),
            shape: "uniprot".into(),
            rows: 10_000,
            columns: 8,
            threads: 0,
            repeat: 3,
            alloc_tracking: false,
            peak_rss_bytes: 50 << 20,
            entries: vec![BenchEntry {
                algorithm: "MUDS".into(),
                mode: "holistic".into(),
                wall_ns: 120_000_000,
                rows_per_sec: 83_333.333,
                peak_rss_bytes: 48 << 20,
                alloc_bytes: 0,
                counters: BTreeMap::from([("pli.intersects".to_string(), 42u64)]),
                phases: vec![
                    PhaseRow { name: "read input".into(), total_ns: 9_000_000 },
                    PhaseRow { name: "MUDS".into(), total_ns: 111_000_000 },
                ],
            }],
        }
    }

    #[test]
    fn json_round_trips() {
        let report = sample();
        let parsed = BenchReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(parsed.scenario, report.scenario);
        assert_eq!(parsed.entries.len(), 1);
        assert_eq!(parsed.entries[0].counters["pli.intersects"], 42);
        assert_eq!(parsed.entries[0].phases, report.entries[0].phases);
        assert!((parsed.entries[0].rows_per_sec - 83_333.333).abs() < 0.001);
    }

    #[test]
    fn parser_rejects_schema_drift_and_missing_fields() {
        let good = sample().to_json();
        let drifted = good.replace("\"schema_version\": 1", "\"schema_version\": 99");
        let err = BenchReport::from_json(&drifted).unwrap_err();
        assert!(err.contains("schema drift"), "{err}");
        let truncated = good.replace("\"kind\": \"profile\",\n", "");
        let err = BenchReport::from_json(&truncated).unwrap_err();
        assert!(err.contains("\"kind\""), "{err}");
        let head = &good[..good.find("\"entries\"").unwrap()];
        let empty = format!("{head}\"entries\": []\n}}\n");
        let err = BenchReport::from_json(&empty).unwrap_err();
        assert!(err.contains("must not be empty"), "{err}");
    }

    #[test]
    fn diff_fails_on_a_2x_slowdown_and_rss_blowup() {
        let baseline = sample();
        let mut slow = sample();
        slow.entries[0].wall_ns *= 2;
        let d = diff(&slow, &baseline, &Tolerance::default());
        assert!(!d.ok());
        assert!(d.violations[0].contains("2.00x"), "{:?}", d.violations);

        let mut fat = sample();
        fat.peak_rss_bytes = baseline.peak_rss_bytes * 2;
        let d = diff(&fat, &baseline, &Tolerance::default());
        assert!(!d.ok());
        assert!(d.violations[0].contains("peak RSS"), "{:?}", d.violations);

        // Within tolerance: ok.
        let mut near = sample();
        near.entries[0].wall_ns = (near.entries[0].wall_ns as f64 * 1.2) as u64;
        assert!(diff(&near, &baseline, &Tolerance::default()).ok());
    }

    #[test]
    fn diff_flags_missing_entries_and_shape_drift() {
        let baseline = sample();
        let mut renamed = sample();
        renamed.entries[0].algorithm = "HFUN".into();
        let d = diff(&renamed, &baseline, &Tolerance::default());
        assert!(
            d.violations.iter().any(|v| v.contains("missing from current")),
            "{:?}",
            d.violations
        );

        let mut reshaped = sample();
        reshaped.rows = 99;
        let d = diff(&reshaped, &baseline, &Tolerance::default());
        assert!(d.violations.iter().any(|v| v.contains("shape drift")), "{:?}", d.violations);

        let mut other = sample();
        other.scenario = "ncvoter_10k".into();
        assert!(!diff(&other, &baseline, &Tolerance::default()).ok());
    }

    #[test]
    fn sub_millisecond_baselines_never_fail_on_wall() {
        let mut baseline = sample();
        baseline.entries[0].wall_ns = 400_000; // 0.4ms: below noise floor
        let mut slow = baseline.clone();
        slow.entries[0].wall_ns = 10_000_000;
        assert!(diff(&slow, &baseline, &Tolerance::default()).ok());
    }

    /// A 0 ns baseline wall (clock too coarse, or a hand-edited file) must
    /// neither divide by zero nor fail `--check`: the ratio divisor clamps
    /// to 1 and the noise floor makes the entry note-only.
    #[test]
    fn zero_ns_baseline_wall_never_divides_by_zero_or_fails() {
        let mut baseline = sample();
        baseline.entries[0].wall_ns = 0;
        let mut current = baseline.clone();
        current.entries[0].wall_ns = 10_000_000;
        let d = diff(&current, &baseline, &Tolerance::default());
        assert!(d.ok(), "0 ns baseline is below the noise floor: {:?}", d.violations);
        for line in d.violations.iter().chain(d.notes.iter()) {
            assert!(!line.contains("inf") && !line.contains("NaN"), "non-finite ratio: {line}");
        }
        // Both sides zero: a (harmless) finite improvement note, no panic.
        let mut still = baseline.clone();
        still.entries[0].wall_ns = 0;
        assert!(diff(&still, &baseline, &Tolerance::default()).ok());
    }
}
