//! End-to-end pipeline tests: CSV in → metadata out, degenerate inputs,
//! seeds, and the documented MUDS deviations.

use muds_core::{muds, profile, profile_csv, Algorithm, MudsConfig, Phase, ProfilerConfig};
use muds_datagen::{ncvoter_like, uniprot_like};
use muds_table::{table_to_csv, CsvOptions, Table};

#[test]
fn csv_to_metadata_round_trip() {
    let table = uniprot_like(400, 7);
    let csv = table_to_csv(&table, &CsvOptions::default());
    let cfg = ProfilerConfig::default();
    for &alg in &Algorithm::ALL {
        let from_csv =
            profile_csv(table.name(), &csv, &CsvOptions::default(), alg, &cfg).expect("valid CSV");
        let direct = muds_core::profile(&table, alg, &cfg);
        assert_eq!(from_csv.fds.to_sorted_vec(), direct.fds.to_sorted_vec(), "{}", alg.name());
        assert_eq!(from_csv.minimal_uccs, direct.minimal_uccs, "{}", alg.name());
    }
}

#[test]
fn baseline_reparses_per_task_holistic_once() {
    let table = ncvoter_like(300, 8);
    let csv = table_to_csv(&table, &CsvOptions::default());
    let cfg = ProfilerConfig::default();
    // The baseline reports one phase per task; the holistic runs include a
    // single "read input" phase.
    let base = profile_csv("t", &csv, &CsvOptions::default(), Algorithm::Baseline, &cfg).unwrap();
    assert_eq!(base.phases.len(), 3, "SPIDER, DUCC, FUN phases");
    let hol = profile_csv("t", &csv, &CsvOptions::default(), Algorithm::HolisticFun, &cfg).unwrap();
    assert_eq!(hol.phases[0].name, "read input");
    // Every input scan splits into its parse and encode halves: the
    // holistic run's one "read input", and each baseline task's re-scan.
    let ingest = ["csv parse", "dictionary encode"];
    let children = |p: &Phase| -> Vec<String> {
        p.children.iter().take(ingest.len()).map(|c| c.name.clone()).collect()
    };
    assert_eq!(children(&hol.phases[0]), ingest);
    assert_eq!(hol.phases[0].children.len(), ingest.len(), "read input holds only the scan");
    for phase in &base.phases {
        assert_eq!(children(phase), ingest, "{} re-scans its input first", phase.name);
    }
}

/// The paper's pipeline (`--paper-faithful`) is sound but not
/// complete on generator data too, not only on uniform-random tables and
/// the handmade fixture: on this ncvoter stand-in it misses 33 of the 144
/// minimal FDs the exact run finds (DESIGN.md §6). Where it misses a
/// minimal lhs, a valid superset of it can survive the final minimality
/// guard (2 of its 113 FDs here), so the faithful set is checked against
/// the exact one by implication, not inclusion.
#[test]
fn paper_faithful_mode_is_sound_but_incomplete_on_ncvoter_like() {
    let table = ncvoter_like(1_000, 12);
    let exact = profile(&table, Algorithm::Muds, &ProfilerConfig::default());
    let config = ProfilerConfig { completion_sweep: false, ..ProfilerConfig::default() };
    let faithful = profile(&table, Algorithm::Muds, &config);
    assert_eq!(exact.minimal_uccs.len(), 15);
    assert_eq!(faithful.minimal_uccs, exact.minimal_uccs);
    let exact_fds = exact.fds.to_sorted_vec();
    let faithful_fds = faithful.fds.to_sorted_vec();
    for fd in &faithful_fds {
        assert!(muds_fd::holds(&table, &fd.lhs, fd.rhs), "unsound FD {fd}");
        assert!(
            exact_fds.iter().any(|e| e.rhs == fd.rhs && e.lhs.is_subset_of(&fd.lhs)),
            "faithful FD {fd} is not implied by the exact set"
        );
    }
    let missed = exact_fds.iter().filter(|e| !faithful_fds.contains(e)).count();
    assert!(
        missed > 0,
        "faithful mode became complete — update DESIGN.md's incompleteness discussion"
    );
}

#[test]
fn duplicate_rows_are_a_documented_degradation_not_a_crash() {
    let table = Table::from_rows(
        "dups",
        &["a", "b", "c"],
        &[vec!["1", "x", "q"], vec!["1", "x", "q"], vec!["2", "y", "q"], vec!["3", "y", "r"]],
    )
    .unwrap();
    assert!(table.has_duplicate_rows());
    let report = muds(&table, &MudsConfig::default());
    assert!(report.minimal_uccs.is_empty(), "duplicates admit no UCC");
    // FDs are still exact (everything flows through the R\Z walks).
    assert_eq!(report.fds.to_sorted_vec(), muds_fd::naive_minimal_fds(&table).to_sorted_vec());
}

#[test]
fn single_column_and_single_row_tables() {
    let one_col =
        Table::from_rows("c1", &["a"], &[vec!["1"], vec!["2"], vec!["2"]]).unwrap().dedup_rows();
    let r = muds(&one_col, &MudsConfig::default());
    assert!(r.inds.is_empty());
    assert_eq!(r.minimal_uccs.len(), 1);

    let one_row = Table::from_rows("r1", &["a", "b", "c"], &[vec!["1", "2", "3"]]).unwrap();
    let r = muds(&one_row, &MudsConfig::default());
    // Everything is constant: ∅ → each column; ∅ is the unique minimal UCC.
    assert_eq!(r.fds.len(), 3);
    assert_eq!(r.minimal_uccs, vec![muds_lattice::ColumnSet::empty()]);
}

#[test]
fn all_null_column_profile() {
    let t =
        Table::from_rows("nulls", &["id", "ghost"], &[vec!["1", ""], vec!["2", ""], vec!["3", ""]])
            .unwrap();
    let r = muds(&t, &MudsConfig::default());
    // ghost is constant (NULL everywhere): determined by the empty set, and
    // vacuously included in id.
    assert!(r.fds.contains(&muds_lattice::ColumnSet::empty(), 1));
    assert!(r.inds.contains(&muds_ind::Ind::new(1, 0)));
}

#[test]
fn results_are_deterministic_across_runs_and_seeds() {
    let table = uniprot_like(500, 8);
    let config = ProfilerConfig::default();
    let a = profile(&table, Algorithm::Muds, &config);
    let b = profile(&table, Algorithm::Muds, &config);
    assert_eq!(a.fds.to_sorted_vec(), b.fds.to_sorted_vec());
    assert_eq!(
        a.metrics.counter("pli.intersects"),
        b.metrics.counter("pli.intersects"),
        "same seed ⇒ same work"
    );
    let c = profile(&table, Algorithm::Muds, &ProfilerConfig { seed: 999, ..config });
    assert_eq!(a.fds.to_sorted_vec(), c.fds.to_sorted_vec(), "results seed-independent");
    assert_eq!(a.minimal_uccs, c.minimal_uccs, "results seed-independent");
}

#[test]
fn wide_table_is_rejected_cleanly() {
    let names: Vec<String> = (0..300).map(|i| format!("c{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let rows: Vec<Vec<&str>> = vec![];
    assert!(Table::from_rows("wide", &name_refs, &rows).is_err());
}
