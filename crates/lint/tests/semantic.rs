//! Self-tests for the workspace-level semantic rules: a sabotage test
//! that injects a real lock-order inversion into the live serve sources
//! and demands the exact cycle back, a SARIF shape check against the
//! 2.1.0 structure GitHub code scanning consumes, and a release-build
//! performance gate on a synthetic 100-file workspace.

use std::path::Path;

use muds_lint::{semantic_pass, Rule};

fn serve_src(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../serve/src").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The real registry/persist pair is clean: `Registry::restore` acquires
/// `Persist.manifest_written` while holding `Registry.inner`, and nothing
/// acquires them in the opposite order.
#[test]
fn real_registry_persist_pair_has_no_cycle() {
    let sources = vec![
        ("crates/serve/src/registry.rs".to_string(), serve_src("registry.rs")),
        ("crates/serve/src/persist.rs".to_string(), serve_src("persist.rs")),
    ];
    let (diags, dot) = semantic_pass(&sources);
    let l008: Vec<_> = diags.iter().filter(|d| d.rule == Rule::L008).collect();
    assert!(l008.is_empty(), "unexpected cycle in clean sources: {l008:?}");
    assert!(
        dot.contains("\"Registry.inner\" -> \"Persist.manifest_written\""),
        "the restore edge should appear in the lock graph:\n{dot}"
    );
}

/// Sabotage: graft a function onto the real `Persist` that holds
/// `manifest_written` while calling into the registry (which locks
/// `Registry.inner`). Combined with the genuine `restore` edge this is a
/// two-lock inversion, and the analyzer must name the exact cycle and
/// witness both paths.
#[test]
fn injected_inversion_reports_the_exact_cycle() {
    let injected = "
impl Persist {
    pub fn sabotage_probe(&self, registry: &Registry) {
        let guard = lock(&self.manifest_written);
        let names = registry.names_len();
        consume(names, *guard);
    }
}
";
    let sources = vec![
        ("crates/serve/src/registry.rs".to_string(), serve_src("registry.rs")),
        ("crates/serve/src/persist.rs".to_string(), serve_src("persist.rs") + injected),
    ];
    let (diags, dot) = semantic_pass(&sources);
    let l008: Vec<_> = diags.iter().filter(|d| d.rule == Rule::L008).collect();
    assert_eq!(l008.len(), 1, "exactly one cycle expected, got: {l008:?}");
    let message = &l008.first().expect("one L008 finding").message;
    assert!(
        message.contains(
            "lock-order cycle Persist.manifest_written -> Registry.inner -> \
             Persist.manifest_written"
        ),
        "cycle ring misreported: {message}"
    );
    assert!(message.contains("sabotage_probe"), "witness must name the injected fn: {message}");
    assert!(message.contains("restore"), "witness must name the genuine inverse path: {message}");
    assert!(
        dot.contains("\"Persist.manifest_written\" -> \"Registry.inner\""),
        "injected edge should appear in the lock graph:\n{dot}"
    );
}

/// The SARIF output must hold up as JSON with the 2.1.0 skeleton intact:
/// version, tool.driver.name, a rules table covering every rule id, and
/// results that carry ruleId + physical location.
#[test]
fn sarif_output_parses_with_expected_shape() {
    use muds_lint::Diagnostic;
    use muds_obs::json::parse_json;

    let diagnostics = vec![Diagnostic {
        rule: Rule::L009,
        file: "crates/serve/src/reactor.rs".to_string(),
        line: 42,
        col: 7,
        message: "blocking call \"write_all\" in reactor".to_string(),
    }];
    let comparison = muds_lint::baseline::compare(&diagnostics, &muds_lint::Baseline::default());
    let sarif = muds_lint::render_sarif(&comparison);
    let doc = parse_json(&sarif).expect("SARIF output must be valid JSON");

    assert_eq!(doc.get("version").and_then(|v| v.as_str()), Some("2.1.0"));
    let runs = doc.get("runs").and_then(|v| v.as_array()).expect("runs array");
    assert_eq!(runs.len(), 1);
    let run = runs.first().expect("one run");
    let driver = run.get("tool").and_then(|t| t.get("driver")).expect("tool.driver");
    assert_eq!(driver.get("name").and_then(|v| v.as_str()), Some("muds-lint"));
    let rules = driver.get("rules").and_then(|v| v.as_array()).expect("rules array");
    assert_eq!(rules.len(), Rule::ALL.len());
    for rule in Rule::ALL {
        assert!(
            rules.iter().any(|r| r.get("id").and_then(|v| v.as_str()) == Some(rule.id())),
            "rule {} missing from SARIF rules table",
            rule.id()
        );
    }
    let results = run.get("results").and_then(|v| v.as_array()).expect("results array");
    assert_eq!(results.len(), 1);
    let result = results.first().expect("one result");
    assert_eq!(result.get("ruleId").and_then(|v| v.as_str()), Some("L009"));
    assert_eq!(result.get("level").and_then(|v| v.as_str()), Some("error"));
    let location = result
        .get("locations")
        .and_then(|v| v.as_array())
        .and_then(|l| l.first())
        .and_then(|l| l.get("physicalLocation"))
        .expect("physicalLocation");
    assert_eq!(
        location.get("artifactLocation").and_then(|a| a.get("uri")).and_then(|v| v.as_str()),
        Some("crates/serve/src/reactor.rs")
    );
    let region = location.get("region").expect("region");
    assert_eq!(region.get("startLine").and_then(|v| v.as_usize()), Some(42));
    assert_eq!(region.get("startColumn").and_then(|v| v.as_usize()), Some(7));
}

/// Release-build performance gate: the full token + semantic pass over a
/// synthetic 100-file workspace (each file with locks, cross-calls, and a
/// spawn) must finish well under the 2-second CI budget. Debug builds are
/// exempt — the gate mirrors the `lint-self` release CI step.
#[cfg(not(debug_assertions))]
#[test]
fn hundred_file_workspace_lints_under_two_seconds() {
    use muds_lint::{lint_source, FileOptions};

    let mut sources = Vec::new();
    for i in 0..100 {
        let next = (i + 1) % 100;
        let source = format!(
            "use std::sync::Mutex;\n\
             struct S{i} {{ a: Mutex<u32>, b: Mutex<u32> }}\n\
             impl S{i} {{\n\
                 fn alpha(&self) {{\n\
                     let ga = lock(&self.a);\n\
                     let gb = lock(&self.b);\n\
                     helper_{i}(*ga + *gb);\n\
                 }}\n\
                 fn beta(&self) {{\n\
                     let ga = lock(&self.a);\n\
                     self.gamma();\n\
                     drop(ga);\n\
                 }}\n\
                 fn gamma(&self) {{\n\
                     let gb = lock(&self.b);\n\
                     helper_{next}(*gb);\n\
                 }}\n\
             }}\n\
             fn helper_{i}(x: u32) {{\n\
                 std::thread::spawn(move || {{ archive_{i}(x); }});\n\
             }}\n\
             fn archive_{i}(x: u32) {{ emit(x); }}\n"
        );
        sources.push((format!("crates/synth/src/file_{i:03}.rs"), source));
    }
    let start = std::time::Instant::now();
    let options = FileOptions::default();
    let mut token_findings = 0;
    for (name, source) in &sources {
        token_findings += lint_source(name, source, &options).len();
    }
    let (semantic, dot) = semantic_pass(&sources);
    let elapsed = start.elapsed();
    assert_eq!(token_findings, 0, "synthetic workspace should be token-clean");
    assert!(semantic.is_empty(), "synthetic workspace should be cycle-free: {semantic:?}");
    assert!(dot.contains("digraph lock_order"));
    assert!(elapsed.as_secs_f64() < 2.0, "100-file lint pass took {elapsed:?}, budget is 2s");
}
