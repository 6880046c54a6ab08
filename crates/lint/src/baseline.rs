//! Count-based baseline: grandfathered findings fail the build only when
//! their count grows.
//!
//! The baseline file is a tiny JSON object mapping `"RULE:file"` to the
//! number of findings of that rule in that file at the time the baseline
//! was written. Comparing counts (not spans) keeps the file stable across
//! unrelated edits that shift line numbers, while still catching every
//! *new* finding: any key whose current count exceeds its baselined count
//! — including keys absent from the baseline — fails the run. Counts that
//! shrink are reported as stale so the baseline can be tightened with
//! `--write-baseline`.

use crate::rules::Diagnostic;
use muds_obs::json::json_string;
use std::collections::BTreeMap;

/// Parsed baseline: `"RULE:file"` → grandfathered finding count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    pub counts: BTreeMap<String, usize>,
}

/// Outcome of comparing current findings against a baseline.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Findings in keys whose count exceeds the baseline (all findings of
    /// that key are listed, since spans aren't tracked per-finding).
    pub new_findings: Vec<Diagnostic>,
    /// Keys whose current count is below the baseline (candidates for
    /// `--write-baseline` tightening): `(key, baselined, current)`.
    pub stale: Vec<(String, usize, usize)>,
    /// Total findings covered by the baseline.
    pub suppressed: usize,
}

pub fn key_of(diag: &Diagnostic) -> String {
    format!("{}:{}", diag.rule.id(), diag.file)
}

/// Groups findings by key and compares counts against the baseline.
pub fn compare(diagnostics: &[Diagnostic], baseline: &Baseline) -> Comparison {
    let mut by_key: BTreeMap<String, Vec<&Diagnostic>> = BTreeMap::new();
    for diag in diagnostics {
        by_key.entry(key_of(diag)).or_default().push(diag);
    }
    let mut comparison = Comparison::default();
    for (key, found) in &by_key {
        let allowed = baseline.counts.get(key).copied().unwrap_or(0);
        if found.len() > allowed {
            comparison.new_findings.extend(found.iter().map(|d| (*d).clone()));
        } else {
            comparison.suppressed += found.len();
            if found.len() < allowed {
                comparison.stale.push((key.clone(), allowed, found.len()));
            }
        }
    }
    for (key, allowed) in &baseline.counts {
        if !by_key.contains_key(key) && *allowed > 0 {
            comparison.stale.push((key.clone(), *allowed, 0));
        }
    }
    comparison.stale.sort();
    comparison
}

/// Tightens a baseline against current findings without ever widening it:
/// each key keeps `min(baselined, current)` and keys with no findings left
/// are dropped. Used by `--update-baseline`, which must never grandfather
/// a new finding — growth still fails the run.
pub fn shrink(baseline: &Baseline, diagnostics: &[Diagnostic]) -> Baseline {
    let current = from_diagnostics(diagnostics);
    let counts = baseline
        .counts
        .iter()
        .filter_map(|(key, &allowed)| {
            let now = current.counts.get(key).copied().unwrap_or(0);
            let kept = allowed.min(now);
            (kept > 0).then(|| (key.clone(), kept))
        })
        .collect();
    Baseline { counts }
}

/// Builds a fresh baseline from the current findings.
pub fn from_diagnostics(diagnostics: &[Diagnostic]) -> Baseline {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for diag in diagnostics {
        *counts.entry(key_of(diag)).or_insert(0) += 1;
    }
    Baseline { counts }
}

/// Serialises the baseline as pretty-printed JSON (sorted keys, so diffs
/// are stable).
pub fn to_json(baseline: &Baseline) -> String {
    if baseline.counts.is_empty() {
        return "{}\n".to_string();
    }
    let entries: Vec<String> = baseline
        .counts
        .iter()
        .map(|(key, count)| format!("  {}: {count}", json_string(key)))
        .collect();
    format!("{{\n{}\n}}\n", entries.join(",\n"))
}

/// Parses the baseline JSON. The format is a flat string→count object;
/// anything else is an error so a corrupted baseline can't silently allow
/// regressions.
pub fn parse_json(text: &str) -> Result<Baseline, String> {
    let doc = muds_obs::json::parse_json(text).map_err(|e| format!("baseline: {e}"))?;
    let object = doc.as_object().ok_or("baseline: expected a JSON object")?;
    let mut counts = BTreeMap::new();
    for (key, value) in object {
        let count = value
            .as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .ok_or_else(|| format!("baseline: {key:?} needs a non-negative integer count"))?;
        counts.insert(key.clone(), count as usize);
    }
    Ok(Baseline { counts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    fn diag(rule: Rule, file: &str, line: usize) -> Diagnostic {
        Diagnostic { rule, file: file.to_string(), line, col: 1, message: String::new() }
    }

    #[test]
    fn roundtrips_through_json() {
        let diags =
            [diag(Rule::L002, "a.rs", 1), diag(Rule::L002, "a.rs", 2), diag(Rule::L004, "b.rs", 9)];
        let baseline = from_diagnostics(&diags);
        let parsed = parse_json(&to_json(&baseline)).expect("parse");
        assert_eq!(parsed, baseline);
        assert_eq!(parsed.counts.get("L002:a.rs"), Some(&2));
    }

    #[test]
    fn growth_fails_shrink_is_stale() {
        let baseline = parse_json("{\"L002:a.rs\": 2, \"L004:b.rs\": 1}").expect("parse");
        // Same counts: all suppressed.
        let same = [diag(Rule::L002, "a.rs", 1), diag(Rule::L002, "a.rs", 5)];
        let cmp = compare(&same, &baseline);
        assert!(cmp.new_findings.is_empty());
        assert_eq!(cmp.suppressed, 2);
        assert_eq!(cmp.stale, vec![("L004:b.rs".to_string(), 1, 0)]);
        // One more L002: the whole key fails.
        let grown =
            [diag(Rule::L002, "a.rs", 1), diag(Rule::L002, "a.rs", 5), diag(Rule::L002, "a.rs", 9)];
        assert_eq!(compare(&grown, &baseline).new_findings.len(), 3);
        // A rule/file pair absent from the baseline always fails.
        let fresh = [diag(Rule::L006, "c.rs", 3)];
        assert_eq!(compare(&fresh, &baseline).new_findings.len(), 1);
    }

    #[test]
    fn shrink_tightens_but_never_widens() {
        let baseline =
            parse_json("{\"L002:a.rs\": 3, \"L004:b.rs\": 1, \"L006:c.rs\": 2}").expect("parse");
        // a.rs is down to one finding, b.rs unchanged, c.rs fully fixed,
        // and d.rs has a brand-new finding that must NOT be absorbed.
        let now =
            [diag(Rule::L002, "a.rs", 1), diag(Rule::L004, "b.rs", 9), diag(Rule::L010, "d.rs", 4)];
        let shrunk = shrink(&baseline, &now);
        assert_eq!(shrunk.counts.get("L002:a.rs"), Some(&1));
        assert_eq!(shrunk.counts.get("L004:b.rs"), Some(&1));
        assert!(!shrunk.counts.contains_key("L006:c.rs"));
        assert!(!shrunk.counts.contains_key("L010:d.rs"));
        // Deterministic output: same inputs, same bytes.
        assert_eq!(to_json(&shrunk), to_json(&shrink(&baseline, &now)));
        // After shrinking, the stale list is empty and the new finding fails.
        let cmp = compare(&now, &shrunk);
        assert!(cmp.stale.is_empty());
        assert_eq!(cmp.new_findings.len(), 1);
        assert_eq!(cmp.new_findings[0].file, "d.rs");
    }

    #[test]
    fn empty_baseline_serialises_cleanly() {
        assert_eq!(to_json(&Baseline::default()), "{}\n");
        assert!(parse_json("{}").expect("parse").counts.is_empty());
        assert!(parse_json("[]").is_err());
        assert!(parse_json("{\"L002:a.rs\": -1}").is_err());
        assert!(parse_json("{\"L002:a.rs\": 1.5}").is_err());
        assert!(parse_json("{\"L002:a.rs\": \"1\"}").is_err());
    }

    /// Keys are file paths, and Windows-style paths carry backslashes: the
    /// emitter escapes them, so the parser must unescape them.
    #[test]
    fn keys_with_escapes_round_trip() {
        let diags = [diag(Rule::L002, "crates\\x\\src\\lib.rs", 1), diag(Rule::L004, "a\"b.rs", 2)];
        let baseline = from_diagnostics(&diags);
        let json = to_json(&baseline);
        assert!(json.contains("\"L002:crates\\\\x\\\\src\\\\lib.rs\": 1"), "{json}");
        assert_eq!(parse_json(&json).expect("parse"), baseline);
    }
}
