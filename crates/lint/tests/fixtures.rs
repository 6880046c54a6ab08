//! Fixture-driven self-tests for the lint rules.
//!
//! Every `fixtures/*.rs` file is linted with algorithm-crate options (no
//! clock/panic exemptions, a one-entry metric catalogue) and its findings
//! are compared against the sibling `.expected` file: one `line:col RULE`
//! entry per line, empty for the `*_good.rs` half of each pair. This keeps
//! the seeded violations honest — each must fire at the exact span the
//! fixture author recorded, and the clean twins must stay clean.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use muds_lint::{lint_source, FileOptions};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The options a fixture is linted under: strictest profile, with a
/// catalogue containing only `pli.requests` (so `pli.bogus` drifts).
fn fixture_options() -> FileOptions {
    let catalogue: BTreeSet<String> = ["pli.requests".to_string()].into_iter().collect();
    FileOptions { catalogue: Some(catalogue), ..FileOptions::default() }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn expected_entries(path: &Path) -> Vec<String> {
    read(path).lines().map(str::trim).filter(|l| !l.is_empty()).map(String::from).collect()
}

#[test]
fn every_fixture_matches_its_expected_diagnostics() {
    let dir = fixture_dir();
    let mut checked = 0;
    let mut names: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "no fixtures under {}", dir.display());
    for fixture in names {
        let expected_path = fixture.with_extension("expected");
        assert!(expected_path.exists(), "{} has no paired .expected file", fixture.display());
        let source = read(&fixture);
        let stem = fixture.file_stem().unwrap().to_string_lossy().into_owned();
        let mut diags = lint_source(
            &fixture.file_name().unwrap().to_string_lossy(),
            &source,
            &fixture_options(),
        );
        // L008/L009 are workspace-level semantic rules: run the call-graph
        // pass over the fixture as a one-file workspace. L009 fixtures are
        // analysed under the reactor file name so the event-loop roots
        // apply.
        if stem.starts_with("l008") || stem.starts_with("l009") {
            let name = if stem.starts_with("l009") { "reactor.rs" } else { "fixture.rs" };
            let (semantic, _dot) = muds_lint::semantic_pass(&[(name.to_string(), source.clone())]);
            diags.extend(semantic);
            diags.sort_by_key(|d| (d.line, d.col, d.rule.id()));
        }
        let actual: Vec<String> =
            diags.iter().map(|d| format!("{}:{} {}", d.line, d.col, d.rule.id())).collect();
        let expected = expected_entries(&expected_path);
        assert_eq!(
            actual,
            expected,
            "{}: diagnostics diverge from {}\nfull findings:\n{}",
            fixture.display(),
            expected_path.display(),
            diags.iter().map(|d| d.render()).collect::<Vec<_>>().join("\n")
        );
        checked += 1;
    }
    // One good + one bad fixture per rule L000–L010 except the retired
    // L007 (L001–L006 token rules, L008/L009 semantic rules, L010 discard
    // rule).
    assert!(checked >= 20, "expected at least 20 fixtures, saw {checked}");
}

#[test]
fn good_and_bad_fixtures_come_in_pairs() {
    let dir = fixture_dir();
    let stems: BTreeSet<String> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.strip_suffix(".rs").map(String::from)
        })
        .collect();
    for stem in &stems {
        if let Some(base) = stem.strip_suffix("_bad") {
            assert!(stems.contains(&format!("{base}_good")), "{stem}.rs has no _good twin");
        }
        if let Some(base) = stem.strip_suffix("_good") {
            assert!(stems.contains(&format!("{base}_bad")), "{stem}.rs has no _bad twin");
        }
    }
}

#[test]
fn bad_fixtures_expect_findings_and_good_fixtures_expect_none() {
    let dir = fixture_dir();
    for entry in std::fs::read_dir(&dir).expect("fixtures dir").flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "expected") {
            continue;
        }
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let entries = expected_entries(&path);
        if stem.ends_with("_bad") {
            assert!(!entries.is_empty(), "{stem}.expected should list at least one finding");
            let rule = format!("L{}", &stem[1..4.min(stem.len())]);
            assert!(
                entries.iter().any(|e| e.ends_with(&rule)),
                "{stem}.expected should contain a {rule} finding, got {entries:?}"
            );
        } else {
            assert!(entries.is_empty(), "{stem}.expected should be empty, got {entries:?}");
        }
    }
}

/// The workspace itself must lint clean against the committed baseline —
/// the same check CI runs, embedded as a test so `cargo test` catches
/// drift without the CI round trip.
#[test]
fn workspace_is_lint_clean_against_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report =
        muds_lint::lint_workspace(&muds_lint::LintConfig::new(&root)).expect("lint workspace");
    let baseline_text =
        std::fs::read_to_string(root.join(muds_lint::BASELINE_FILE)).expect("baseline file");
    let baseline = muds_lint::baseline::parse_json(&baseline_text).expect("baseline parses");
    let comparison = muds_lint::baseline::compare(&report.diagnostics, &baseline);
    assert!(
        comparison.new_findings.is_empty(),
        "workspace has non-baseline lint findings:\n{}",
        comparison.new_findings.iter().map(|d| d.render()).collect::<Vec<_>>().join("\n")
    );
    assert!(report.files_scanned > 50, "suspiciously few files scanned");
}
