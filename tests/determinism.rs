//! Thread-count determinism matrix: every algorithm must produce
//! byte-identical results AND identical observability output for any
//! worker-thread count.
//!
//! The parallel execution layer is deterministic by construction — batch
//! APIs keep all bookkeeping sequential and only fan out pure compute
//! (per-column encodes and PLI builds, PLI intersections,
//! partition-refinement scans), and the vendored `rayon`'s iterators
//! concatenate their parts in input order — so dependency sets, counter
//! totals, and span-tree structure may not vary with `--threads`. This matrix pins that contract on the paper's stand-in
//! datasets, and on one append and one delete through `apply_incremental`.
//!
//! Everything runs inside ONE `#[test]` function: the worker-pool size is
//! process-global state, so separate test functions (which run
//! concurrently) would race on it.

use std::collections::BTreeMap;

use muds_core::{apply_incremental, profile, Algorithm, ProfileResult, ProfilerConfig};
use muds_datagen::{ionosphere_like, ncvoter_like, uniprot_like};
use muds_fd::Fd;
use muds_ind::Ind;
use muds_lattice::ColumnSet;
use muds_obs::{Metrics, SpanNode};
use muds_table::{Table, TableDelta};

/// Everything a run produces that must be invariant under the thread count.
#[derive(Debug, PartialEq, Eq)]
struct RunFingerprint {
    fds: Vec<Fd>,
    uccs: Vec<ColumnSet>,
    inds: Vec<Ind>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    /// Span tree with durations stripped (names + nesting only; wall-clock
    /// obviously varies between runs).
    span_shape: Vec<String>,
}

fn span_names(nodes: &[SpanNode], depth: usize, out: &mut Vec<String>) {
    for n in nodes {
        out.push(format!("{}{}", "  ".repeat(depth), n.name));
        span_names(&n.children, depth + 1, out);
    }
}

/// The fingerprint of the result `run` returns.
fn fingerprint(run: impl FnOnce() -> ProfileResult) -> RunFingerprint {
    // A fresh registry per run so counters never leak across matrix cells.
    let metrics = Metrics::new();
    let _guard = metrics.install();
    let result = run();
    let mut span_shape = Vec::new();
    span_names(&result.metrics.spans, 0, &mut span_shape);
    RunFingerprint {
        fds: result.fds.to_sorted_vec(),
        uccs: result.minimal_uccs,
        inds: result.inds,
        counters: result.metrics.counters,
        gauges: result.metrics.gauges,
        span_shape,
    }
}

fn set_threads(n: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("vendored rayon pool is reconfigurable");
}

/// Crates whose hash-order allow sites are exercised by the matrix below:
/// `Algorithm::ALL` over the three stand-in datasets drives PLI
/// construction and intersection, FD/UCC/IND discovery, and the lattice
/// walk end to end, so a hash-order leak in any of these crates would
/// change a fingerprint between thread counts.
const MATRIX_COVERED_CRATES: [&str; 6] =
    ["crates/core", "crates/fd", "crates/ind", "crates/lattice", "crates/pli", "crates/ucc"];

#[test]
fn results_and_counters_are_identical_for_any_thread_count() {
    let datasets: Vec<Table> = vec![uniprot_like(200, 6), ncvoter_like(150, 8), ionosphere_like(8)];

    for table in &datasets {
        for &algorithm in &Algorithm::ALL {
            let run = || profile(table, algorithm, &ProfilerConfig::default());
            let reference = same_for_every_thread_count(
                run,
                &format!("{} on {}", algorithm.name(), table.name()),
            );
            assert!(
                !reference.counters.is_empty(),
                "{} on {} recorded no counters — fingerprint is vacuous",
                algorithm.name(),
                table.name()
            );
        }
    }

    // The delta path: an append (probes of the appended rows' clusters)
    // and a delete (witness searches of the negative border), each from
    // the same MUDS profile of the first 200 rows.
    let full = uniprot_like(210, 6);
    let base = full.take_rows(200);
    let old = profile(&base, Algorithm::Muds, &ProfilerConfig::default());
    let appended = (200..210)
        .map(|r| full.row(r).into_iter().map(|v| v.unwrap_or("").to_string()).collect())
        .collect();
    let deltas = [
        ("append", TableDelta::Append { rows: appended }, "delta.append_rows"),
        ("delete", TableDelta::Delete { rows: vec![3, 50, 120] }, "delta.border_rows"),
    ];
    for (kind, delta, rows_counter) in &deltas {
        let run = || apply_incremental(&old, &base, delta).expect("delta applies").result;
        let reference = same_for_every_thread_count(run, kind);
        assert!(
            reference.counters.get(*rows_counter).is_some_and(|&n| n > 0),
            "{kind}: {reference:?}"
        );
    }

    // Restore the default (all cores) for anything else in this process.
    set_threads(0);
}

/// Runs `run` at 1, 2 and 8 worker threads and asserts that every run has
/// the same fingerprint; returns it.
fn same_for_every_thread_count(run: impl Fn() -> ProfileResult, what: &str) -> RunFingerprint {
    set_threads(1);
    let reference = fingerprint(&run);
    for n in [2usize, 8] {
        set_threads(n);
        assert_eq!(
            fingerprint(&run),
            reference,
            "{what} differs between --threads 1 and --threads {n}"
        );
    }
    reference
}

/// Cross-references the lint pass with this matrix: every
/// `lint:allow(hash-order)` site in an algorithm crate must live in a
/// crate the matrix exercises ([`MATRIX_COVERED_CRATES`]). An allow in an
/// uncovered crate means someone suppressed the hash-order lint without a
/// determinism test standing behind the justification — add the crate to
/// the matrix (and the list above) or remove the allow.
#[test]
fn every_hash_order_allow_is_backed_by_a_matrix_case() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let sites = muds_lint::collect_allow_sites(root).expect("scan workspace allows");
    let hash_allows: Vec<&(String, muds_lint::AllowSite)> =
        sites.iter().filter(|(_, site)| site.key == "hash-order").collect();
    assert!(
        !hash_allows.is_empty(),
        "no hash-order allow sites found — the cross-reference is vacuous; \
         if they were all removed, delete this test's allow-list too"
    );
    for (file, site) in &hash_allows {
        // Non-algorithm layers (lint itself, serve, obs, cli, vendor, the
        // bench harness) don't feed profile results, so hash order there
        // can't reach a fingerprint; the matrix contract is about
        // algorithm crates only.
        let algorithm_crate = MATRIX_COVERED_CRATES
            .iter()
            .chain(["crates/datagen", "crates/table"].iter())
            .any(|c| file.starts_with(c));
        let exempt_layer = [
            "crates/lint",
            "crates/obs",
            "crates/serve",
            "crates/cli",
            "crates/bench",
            "crates/check",
            "vendor/",
            "tests/",
            "src/",
        ]
        .iter()
        .any(|p| file.starts_with(p));
        assert!(
            algorithm_crate || exempt_layer,
            "{file}:{}: hash-order allow in unrecognised crate — classify it in \
             tests/determinism.rs (matrix-covered or exempt layer)",
            site.line
        );
        if algorithm_crate {
            assert!(
                MATRIX_COVERED_CRATES.iter().any(|c| file.starts_with(c)),
                "{file}:{}: hash-order allow ({:?}) in an algorithm crate the \
                 determinism matrix does not exercise — add a matrix case and \
                 list the crate in MATRIX_COVERED_CRATES",
                site.line,
                site.justification
            );
            assert!(
                site.justification.len() >= 8,
                "{file}:{}: hash-order justification too thin",
                site.line
            );
        }
    }
}
