//! muds-lint — workspace static analysis for the MUDS profiler.
//!
//! A lint pass (its only dependency is the muds-obs JSON codec) enforcing the project invariants that
//! generic tooling can't know about: result determinism (no hash-order
//! leaks, no wall-clock reads in algorithm crates), panic hygiene in
//! library code, `// SAFETY:` discipline around `unsafe`, obs metric
//! names staying in sync with the DESIGN.md §7 catalogue, and
//! condvar-wait predicates. See DESIGN.md §11 for the catalogue, the
//! allow-comment syntax, and baseline semantics.
//!
//! The crate is a library (so `mudsprof lint` and the self-tests embed
//! the engine) plus a thin `muds-lint` binary.

pub mod allows;
pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod rules;

pub use allows::AllowSite;
pub use baseline::Baseline;
pub use rules::{lint_source, Diagnostic, FileOptions, Rule};

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use muds_obs::json::json_string;

/// Default baseline path, relative to the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.json";

/// Directories scanned under the workspace root.
const SCAN_ROOTS: [&str; 4] = ["crates", "src", "tests", "vendor"];

/// Path prefixes allowed to read wall clocks: the instrumentation layer,
/// the serving layer, and the CLI.
const CLOCK_ALLOWLIST: [&str; 3] = ["crates/obs", "crates/serve", "crates/cli"];

/// Workspace lint configuration.
pub struct LintConfig {
    /// Workspace root (the directory holding `Cargo.toml` and `DESIGN.md`).
    pub root: PathBuf,
    /// Metric-name catalogue override; `None` parses DESIGN.md §7.
    pub catalogue: Option<BTreeSet<String>>,
}

impl LintConfig {
    pub fn new(root: impl Into<PathBuf>) -> LintConfig {
        LintConfig { root: root.into(), catalogue: None }
    }
}

/// Result of linting the whole workspace.
pub struct LintReport {
    /// All findings, sorted by (file, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// The workspace lock-acquisition graph in Graphviz DOT form
    /// (`--lock-graph dot`).
    pub lock_graph_dot: String,
}

/// Lints every `.rs` file under the configured root: the token rules
/// (L001–L006, L010) per file, then the workspace-wide semantic pass
/// (L008 lock-order, L009 blocking-in-reactor) over the call graph.
/// Returns an error only for I/O or catalogue problems; findings live in
/// the report.
pub fn lint_workspace(config: &LintConfig) -> Result<LintReport, String> {
    let catalogue = match &config.catalogue {
        Some(c) => c.clone(),
        None => {
            let design = config.root.join("DESIGN.md");
            let text = std::fs::read_to_string(&design)
                .map_err(|e| format!("cannot read {}: {e}", design.display()))?;
            parse_catalogue(&text)?
        }
    };
    let mut files = Vec::new();
    for dir in SCAN_ROOTS {
        collect_rs_files(&config.root.join(dir), &mut files);
    }
    files.sort();
    let mut diagnostics = Vec::new();
    let files_scanned = files.len();
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in &files {
        let rel = relative_path(&config.root, path);
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let options = file_options(&rel, &catalogue);
        diagnostics.extend(lint_source(&rel, &source, &options));
        // Semantic analysis covers first-party production code: test
        // files lock in arbitrary orders and vendored code follows
        // upstream's own discipline.
        if !options.is_test_file && !rel.starts_with("vendor/") {
            sources.push((rel, source));
        }
    }
    let (semantic, lock_graph_dot) = semantic_pass(&sources);
    diagnostics.extend(semantic);
    diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(LintReport { diagnostics, files_scanned, lock_graph_dot })
}

/// Runs the workspace-wide semantic rules (L008/L009) over already-read
/// sources, honouring each file's inline allow comments. Public so the
/// fixture harness and the sabotage self-test can drive it on synthetic
/// workspaces.
pub fn semantic_pass(sources: &[(String, String)]) -> (Vec<Diagnostic>, String) {
    let parsed: Vec<parser::ParsedFile> =
        sources.iter().map(|(rel, src)| parser::parse_file(rel, src)).collect();
    let report = callgraph::analyze(&parsed, &callgraph::SemanticOptions::default());
    let mut analyses: std::collections::BTreeMap<&str, rules::FileAnalysis> =
        std::collections::BTreeMap::new();
    let diagnostics = report
        .diagnostics
        .into_iter()
        .filter(|diag| {
            let Some(key) = diag.rule.allow_key() else { return true };
            let Some((_, source)) = sources.iter().find(|(rel, _)| *rel == diag.file) else {
                return true;
            };
            let analysis =
                analyses.entry(source.as_str()).or_insert_with(|| rules::FileAnalysis::new(source));
            !analysis.allowed(diag.line, key)
        })
        .collect();
    (diagnostics, report.lock_graph_dot)
}

/// Every valid allow site in the workspace, as `(file, site)` pairs —
/// used by the determinism cross-reference test to assert that each
/// `hash-order` allow in an algorithm crate is covered by a matrix case.
pub fn collect_allow_sites(root: &Path) -> Result<Vec<(String, AllowSite)>, String> {
    let mut files = Vec::new();
    for dir in SCAN_ROOTS {
        collect_rs_files(&root.join(dir), &mut files);
    }
    files.sort();
    let mut out = Vec::new();
    for path in &files {
        let rel = relative_path(root, path);
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        for site in rules::collect_allows(&source) {
            out.push((rel.clone(), site));
        }
    }
    Ok(out)
}

/// Recursively collects `.rs` files, skipping build output, VCS metadata,
/// and the lint fixture corpus (fixtures contain deliberate violations).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Per-file rule tuning from the workspace-relative path.
pub fn file_options(rel: &str, catalogue: &BTreeSet<String>) -> FileOptions {
    let is_test_file = rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/");
    let clock_allowed = CLOCK_ALLOWLIST.iter().any(|p| rel.starts_with(p)) || is_test_file;
    // Binary entry points may panic (it's their error reporting), and
    // vendored third-party code follows upstream's panic policy — L002
    // is a library-code rule.
    let panic_allowed =
        rel.starts_with("vendor/") || rel.contains("/src/bin/") || rel.ends_with("/src/main.rs");
    // crates/obs defines the metric API itself (docs and tests register
    // free-form names); everything else must match the catalogue.
    let catalogue = if rel.starts_with("crates/obs") { None } else { Some(catalogue.clone()) };
    FileOptions { is_test_file, clock_allowed, panic_allowed, catalogue }
}

/// Parses the DESIGN.md §7 counter-catalogue table into the set of legal
/// metric names, and rejects duplicates (L005's uniqueness requirement).
///
/// Each table row contributes backticked spans: spans ending in `.` are
/// prefixes, bare `[a-z0-9_]+` spans are counter suffixes; the row's
/// names are `prefix` × `suffix`. Spans with other characters (formulae,
/// section refs) are ignored.
pub fn parse_catalogue(design: &str) -> Result<BTreeSet<String>, String> {
    let mut names = BTreeSet::new();
    let mut in_section = false;
    for line in design.lines() {
        if let Some(header) = line.strip_prefix("## ") {
            in_section = header.starts_with("7.");
            continue;
        }
        if !in_section || !line.trim_start().starts_with('|') {
            continue;
        }
        let mut prefixes = Vec::new();
        let mut suffixes = Vec::new();
        for span in backtick_spans(line) {
            if span.ends_with('.') && span.len() > 1 && is_metric_word(&span[..span.len() - 1]) {
                prefixes.push(span);
            } else if is_metric_word(span) {
                suffixes.push(span);
            }
        }
        for prefix in &prefixes {
            for suffix in &suffixes {
                let name = format!("{prefix}{suffix}");
                if !names.insert(name.clone()) {
                    return Err(format!(
                        "DESIGN.md §7: metric name {name:?} appears more than once in the \
                         catalogue; names must be unique"
                    ));
                }
            }
        }
    }
    if names.is_empty() {
        return Err("DESIGN.md §7: no counter catalogue found (expected a table of \
                    `prefix.` / `name` spans)"
            .to_string());
    }
    Ok(names)
}

fn is_metric_word(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

fn backtick_spans(line: &str) -> impl Iterator<Item = &str> {
    let mut rest = line;
    std::iter::from_fn(move || {
        let open = rest.find('`')?;
        let after = &rest[open + 1..];
        let close = after.find('`')?;
        let span = &after[..close];
        rest = &after[close + 1..];
        Some(span)
    })
}

// ---------------------------------------------------------------------------
// Output rendering
// ---------------------------------------------------------------------------

/// Renders findings for humans: one `file:line:col` line per finding,
/// then a summary.
pub fn render_human(report: &LintReport, comparison: &baseline::Comparison) -> String {
    let mut out = String::new();
    for diag in &comparison.new_findings {
        out.push_str(&diag.render());
        out.push('\n');
    }
    for (key, was, now) in &comparison.stale {
        out.push_str(&format!(
            "error: baseline entry `{key}` is stale ({was} grandfathered, {now} found) — run \
             `muds-lint --update-baseline` to tighten\n"
        ));
    }
    out.push_str(&format!(
        "{} file(s) scanned, {} finding(s): {} new, {} baselined\n",
        report.files_scanned,
        report.diagnostics.len(),
        comparison.new_findings.len(),
        comparison.suppressed
    ));
    out
}

/// Renders the run as a single JSON object (machine-readable, used by CI).
pub fn render_json(report: &LintReport, comparison: &baseline::Comparison) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!("  \"total_findings\": {},\n", report.diagnostics.len()));
    out.push_str(&format!("  \"baselined\": {},\n", comparison.suppressed));
    out.push_str("  \"new_findings\": [\n");
    for (i, diag) in comparison.new_findings.iter().enumerate() {
        let comma = if i + 1 == comparison.new_findings.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"name\": \"{}\", \"file\": {}, \"line\": {}, \
             \"col\": {}, \"message\": {}}}{comma}\n",
            diag.rule.id(),
            diag.rule.name(),
            json_string(&diag.file),
            diag.line,
            diag.col,
            json_string(&diag.message)
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"stale_baseline_keys\": [");
    for (i, (key, _, _)) in comparison.stale.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_string(key));
    }
    out.push_str("]\n}\n");
    out
}

/// Renders new findings as a SARIF 2.1.0 log (`--format sarif`), the
/// interchange format GitHub code scanning ingests for PR annotations.
/// Only the baseline-failing findings become results; grandfathered ones
/// are already visible via the JSON/human formats.
pub fn render_sarif(comparison: &baseline::Comparison) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"muds-lint\",\n");
    out.push_str("          \"informationUri\": \"DESIGN.md\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, rule) in Rule::ALL.iter().enumerate() {
        let comma = if i + 1 == Rule::ALL.len() { "" } else { "," };
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"name\": \"{}\", \
             \"shortDescription\": {{\"text\": \"{}\"}}}}{comma}\n",
            rule.id(),
            rule.name(),
            rule.name()
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, diag) in comparison.new_findings.iter().enumerate() {
        let comma = if i + 1 == comparison.new_findings.len() { "" } else { "," };
        out.push_str(&format!(
            "        {{\n          \"ruleId\": \"{}\",\n          \"level\": \"error\",\n          \
             \"message\": {{\"text\": {}}},\n          \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": {}}}, \"region\": {{\"startLine\": {}, \
             \"startColumn\": {}}}}}}}]\n        }}{comma}\n",
            diag.rule.id(),
            json_string(&diag.message),
            json_string(&diag.file),
            diag.line,
            diag.col
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

// ---------------------------------------------------------------------------
// Shared CLI runner (used by the muds-lint binary and `mudsprof lint`)
// ---------------------------------------------------------------------------

/// Output rendering selected by `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    Human,
    Json,
    Sarif,
}

/// Parsed command-line options for the lint runner.
pub struct CliOptions {
    pub root: PathBuf,
    pub format: OutputFormat,
    pub baseline_path: Option<PathBuf>,
    pub write_baseline: bool,
    pub update_baseline: bool,
    pub lock_graph_dot: bool,
}

impl CliOptions {
    /// Parses `--root <dir> --format json|human|sarif --baseline <file>
    /// --write-baseline --update-baseline --lock-graph dot` style
    /// arguments. Returns `Err(usage)` on anything unrecognised.
    pub fn parse(args: &[String]) -> Result<CliOptions, String> {
        let mut options = CliOptions {
            root: PathBuf::from("."),
            format: OutputFormat::Human,
            baseline_path: None,
            write_baseline: false,
            update_baseline: false,
            lock_graph_dot: false,
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--root" => {
                    i += 1;
                    let value = args.get(i).ok_or("--root needs a directory")?;
                    options.root = PathBuf::from(value);
                }
                "--format" => {
                    i += 1;
                    match args.get(i).map(|s| s.as_str()) {
                        Some("json") => options.format = OutputFormat::Json,
                        Some("human") => options.format = OutputFormat::Human,
                        Some("sarif") => options.format = OutputFormat::Sarif,
                        other => {
                            return Err(format!("--format expects json|human|sarif, got {other:?}"))
                        }
                    }
                }
                "--baseline" => {
                    i += 1;
                    let value = args.get(i).ok_or("--baseline needs a file path")?;
                    options.baseline_path = Some(PathBuf::from(value));
                }
                "--write-baseline" => options.write_baseline = true,
                "--update-baseline" => options.update_baseline = true,
                "--lock-graph" => {
                    i += 1;
                    match args.get(i).map(|s| s.as_str()) {
                        Some("dot") => options.lock_graph_dot = true,
                        other => return Err(format!("--lock-graph expects dot, got {other:?}")),
                    }
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
            }
            i += 1;
        }
        if options.write_baseline && options.update_baseline {
            return Err("--write-baseline and --update-baseline are mutually exclusive".to_string());
        }
        Ok(options)
    }
}

pub const USAGE: &str = "usage: muds-lint [--root <dir>] [--format json|human|sarif] \
                         [--baseline <file>] [--write-baseline] [--update-baseline] \
                         [--lock-graph dot]\n\
                         --write-baseline   grandfather all current findings\n\
                         --update-baseline  shrink the baseline (never grows it)\n\
                         --lock-graph dot   print the lock-order graph and exit\n\
                         exit codes: 0 clean/baseline-stable, 1 new findings or stale \
                         baseline, 2 error";

/// Runs the lint pass end to end, printing to `out`. Returns the process
/// exit code: 0 clean, 1 new findings or stale baseline, 2 error.
pub fn run_cli(args: &[String], out: &mut dyn std::io::Write) -> i32 {
    run_cli_io(args, out).unwrap_or(2)
}

fn run_cli_io(args: &[String], out: &mut dyn std::io::Write) -> std::io::Result<i32> {
    let options = match CliOptions::parse(args) {
        Ok(options) => options,
        Err(message) => {
            writeln!(out, "{message}")?;
            return Ok(2);
        }
    };
    let config = LintConfig::new(&options.root);
    let report = match lint_workspace(&config) {
        Ok(report) => report,
        Err(message) => {
            writeln!(out, "muds-lint: {message}")?;
            return Ok(2);
        }
    };
    if options.lock_graph_dot {
        write!(out, "{}", report.lock_graph_dot)?;
        return Ok(0);
    }
    let baseline_path =
        options.baseline_path.clone().unwrap_or_else(|| options.root.join(BASELINE_FILE));
    if options.write_baseline {
        let baseline = baseline::from_diagnostics(&report.diagnostics);
        if let Err(e) = std::fs::write(&baseline_path, baseline::to_json(&baseline)) {
            writeln!(out, "muds-lint: cannot write {}: {e}", baseline_path.display())?;
            return Ok(2);
        }
        writeln!(
            out,
            "wrote baseline with {} grandfathered finding(s) to {}",
            report.diagnostics.len(),
            baseline_path.display()
        )?;
        return Ok(0);
    }
    let mut baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match baseline::parse_json(&text) {
            Ok(baseline) => baseline,
            Err(message) => {
                writeln!(out, "muds-lint: {}: {message}", baseline_path.display())?;
                return Ok(2);
            }
        },
        Err(_) => Baseline::default(), // no baseline file: everything is new
    };
    if options.update_baseline {
        let shrunk = baseline::shrink(&baseline, &report.diagnostics);
        if shrunk != baseline {
            if let Err(e) = std::fs::write(&baseline_path, baseline::to_json(&shrunk)) {
                writeln!(out, "muds-lint: cannot write {}: {e}", baseline_path.display())?;
                return Ok(2);
            }
            writeln!(
                out,
                "tightened baseline {} -> {} grandfathered finding(s) in {}",
                baseline.counts.values().sum::<usize>(),
                shrunk.counts.values().sum::<usize>(),
                baseline_path.display()
            )?;
        } else {
            writeln!(out, "baseline already tight: {}", baseline_path.display())?;
        }
        baseline = shrunk;
    }
    let comparison = baseline::compare(&report.diagnostics, &baseline);
    let rendered = match options.format {
        OutputFormat::Json => render_json(&report, &comparison),
        OutputFormat::Human => render_human(&report, &comparison),
        OutputFormat::Sarif => render_sarif(&comparison),
    };
    write!(out, "{rendered}")?;
    Ok(if comparison.new_findings.is_empty() && comparison.stale.is_empty() { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_parses_prefix_suffix_rows() {
        let design = "
## 7. Observability

| prefix | counters |
|--------|----------|
| `pli.` | `requests`, `hits`, `misses` (`hits + misses == requests`) |
| `walk.` | `runs` (§5.1) |

## 8. Next
| `bogus.` | `ignored` |
";
        let catalogue = parse_catalogue(design).expect("parse");
        let names: Vec<&str> = catalogue.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["pli.hits", "pli.misses", "pli.requests", "walk.runs"]);
    }

    #[test]
    fn catalogue_rejects_duplicates() {
        let design = "
## 7. Observability
| `pli.` | `requests`, `requests` |
";
        assert!(parse_catalogue(design).is_err_and(|m| m.contains("unique")));
    }

    #[test]
    fn file_options_classify_paths() {
        let catalogue: BTreeSet<String> = ["pli.requests".to_string()].into_iter().collect();
        let algo = file_options("crates/fd/src/tane.rs", &catalogue);
        assert!(!algo.is_test_file && !algo.clock_allowed && algo.catalogue.is_some());
        let obs = file_options("crates/obs/src/lib.rs", &catalogue);
        assert!(obs.clock_allowed && obs.catalogue.is_none());
        let test = file_options("tests/determinism.rs", &catalogue);
        assert!(test.is_test_file);
        let serve = file_options("crates/serve/src/server.rs", &catalogue);
        assert!(serve.clock_allowed && !serve.is_test_file);
        // Bench scenarios publish span-derived numbers: no raw clocks.
        let bench = file_options("crates/bench/src/scenarios.rs", &catalogue);
        assert!(!bench.clock_allowed && !bench.is_test_file);
    }

    #[test]
    fn cli_parse_and_usage_errors() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let parsed =
            CliOptions::parse(&args(&["--root", "/x", "--format", "json", "--write-baseline"]))
                .expect("parse");
        assert_eq!(parsed.root, PathBuf::from("/x"));
        assert!(parsed.format == OutputFormat::Json && parsed.write_baseline);
        let sarif = CliOptions::parse(&args(&["--format", "sarif", "--update-baseline"]))
            .expect("parse sarif");
        assert!(sarif.format == OutputFormat::Sarif && sarif.update_baseline);
        let dot = CliOptions::parse(&args(&["--lock-graph", "dot"])).expect("parse dot");
        assert!(dot.lock_graph_dot);
        assert!(CliOptions::parse(&args(&["--format", "yaml"])).is_err());
        assert!(CliOptions::parse(&args(&["--lock-graph", "png"])).is_err());
        assert!(CliOptions::parse(&args(&["--write-baseline", "--update-baseline"])).is_err());
        assert!(CliOptions::parse(&args(&["--mystery"])).is_err());
    }

    fn sample_report() -> LintReport {
        LintReport {
            diagnostics: vec![Diagnostic {
                rule: Rule::L002,
                file: "a.rs".to_string(),
                line: 1,
                col: 2,
                message: "has \"quotes\"".to_string(),
            }],
            files_scanned: 1,
            lock_graph_dot: String::new(),
        }
    }

    #[test]
    fn json_output_is_escaped() {
        let report = sample_report();
        let comparison = baseline::compare(&report.diagnostics, &Baseline::default());
        let json = render_json(&report, &comparison);
        assert!(json.contains("has \\\"quotes\\\""), "{json}");
        assert!(json.contains("\"rule\": \"L002\""));
    }

    #[test]
    fn sarif_output_carries_rule_and_location() {
        let report = sample_report();
        let comparison = baseline::compare(&report.diagnostics, &Baseline::default());
        let sarif = render_sarif(&comparison);
        assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
        assert!(sarif.contains("\"ruleId\": \"L002\""));
        assert!(sarif.contains("\"startLine\": 1"));
        assert!(sarif.contains("has \\\"quotes\\\""));
    }

    /// The reverse of L005: every name the DESIGN.md §7 catalogue lists
    /// must be spelled as a string literal somewhere under `crates/*/src`,
    /// so the catalogue cannot keep documenting metrics no code registers.
    #[test]
    fn every_catalogue_name_is_registered_in_source() {
        let workspace = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
        let design = std::fs::read_to_string(workspace.join("DESIGN.md")).expect("read DESIGN.md");
        let catalogue = parse_catalogue(&design).expect("parse catalogue");
        let mut files = Vec::new();
        collect_rs_files(&workspace.join("crates"), &mut files);
        let mut literals = BTreeSet::new();
        for path in files.iter().filter(|p| relative_path(&workspace, p).contains("/src/")) {
            let source = std::fs::read_to_string(path).expect("read source");
            for token in lexer::lex(&source).tokens {
                if token.kind == lexer::TokenKind::Str {
                    literals.insert(token.text.trim_matches('"').to_string());
                }
            }
        }
        let missing: Vec<&String> =
            catalogue.iter().filter(|name| !literals.contains(*name)).collect();
        assert!(missing.is_empty(), "DESIGN.md §7 lists names no source registers: {missing:?}");
    }

    #[test]
    fn stale_baseline_fails_and_update_tightens() {
        let dir = std::env::temp_dir().join(format!("muds-lint-stale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let baseline_path = dir.join("baseline.json");
        // Grandfather a finding that no longer exists anywhere.
        std::fs::write(&baseline_path, "{\"L002:ghost.rs\": 3}\n").expect("write baseline");
        let workspace = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
        let run = |extra: &[&str]| {
            let mut argv = vec![
                "--root".to_string(),
                workspace.display().to_string(),
                "--baseline".to_string(),
                baseline_path.display().to_string(),
            ];
            argv.extend(extra.iter().map(|s| s.to_string()));
            let mut out = Vec::new();
            let code = run_cli(&argv, &mut out);
            (code, String::from_utf8_lossy(&out).into_owned())
        };
        let (code, text) = run(&[]);
        assert_eq!(code, 1, "stale baseline must fail: {text}");
        assert!(text.contains("stale"), "{text}");
        let (code, text) = run(&["--update-baseline"]);
        assert_eq!(code, 0, "after tightening the run is clean: {text}");
        assert!(text.contains("tightened baseline"), "{text}");
        let rewritten = std::fs::read_to_string(&baseline_path).expect("read");
        assert_eq!(rewritten, "{}\n", "ghost entries are dropped deterministically");
        let (code, _) = run(&[]);
        assert_eq!(code, 0);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
