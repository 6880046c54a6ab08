//! Cross-algorithm equivalence on the generated experiment datasets: every
//! pipeline (sequential baseline, Holistic FUN, MUDS, TANE) must produce
//! identical metadata. This is the end-to-end guarantee behind every
//! benchmark comparison — the algorithms race only if they agree.

use muds_core::{apply_incremental, profile, Algorithm, ProfilerConfig};
use muds_datagen::{ionosphere_like, ncvoter_like, uci_dataset, uniprot_like};
use muds_table::{Table, TableDelta};

fn assert_all_agree(table: &Table) {
    let cfg = ProfilerConfig::default();
    let results: Vec<_> = Algorithm::ALL.iter().map(|&a| profile(table, a, &cfg)).collect();
    for pair in results.windows(2) {
        assert_eq!(
            pair[0].fds.to_sorted_vec(),
            pair[1].fds.to_sorted_vec(),
            "{} vs {} disagree on FDs for {}",
            pair[0].algorithm.name(),
            pair[1].algorithm.name(),
            table.name()
        );
        assert_eq!(
            pair[0].minimal_uccs,
            pair[1].minimal_uccs,
            "{} vs {} disagree on UCCs for {}",
            pair[0].algorithm.name(),
            pair[1].algorithm.name(),
            table.name()
        );
    }
    // IND-producing pipelines agree among themselves.
    assert_eq!(results[0].inds, results[1].inds, "{}", table.name());
    assert_eq!(results[1].inds, results[2].inds, "{}", table.name());
}

#[test]
fn all_algorithms_agree_on_uniprot_like() {
    assert_all_agree(&uniprot_like(800, 8));
}

#[test]
fn all_algorithms_agree_on_ionosphere_like() {
    assert_all_agree(&ionosphere_like(11));
}

#[test]
fn all_algorithms_agree_on_ncvoter_like() {
    assert_all_agree(&ncvoter_like(600, 10));
}

#[test]
fn all_algorithms_agree_on_small_uci_datasets() {
    for name in ["iris", "balance", "b-cancer", "bridges", "echocard"] {
        assert_all_agree(&uci_dataset(name));
    }
}

#[test]
fn all_algorithms_agree_on_downsampled_wide_uci_datasets() {
    // The big Table 3 datasets, cut down so the test stays fast while the
    // dependency structure survives.
    assert_all_agree(&uci_dataset("abalone").take_rows(800));
    assert_all_agree(&uci_dataset("adult").take_rows(600).take_columns(10));
    assert_all_agree(&uci_dataset("letter").take_rows(500).take_columns(10));
    assert_all_agree(&uci_dataset("hepatitis").take_columns(12).dedup_rows());
}

#[test]
fn ground_truth_check_on_narrow_tables() {
    // Against the exponential oracles, where feasible.
    for table in [uniprot_like(300, 7), ncvoter_like(250, 8), ionosphere_like(9)] {
        let result = profile(&table, Algorithm::Muds, &ProfilerConfig::default());
        assert_eq!(
            result.fds.to_sorted_vec(),
            muds_fd::naive_minimal_fds(&table).to_sorted_vec(),
            "MUDS vs naive FDs on {}",
            table.name()
        );
        assert_eq!(
            result.minimal_uccs,
            muds_ucc::naive_minimal_uccs(&table),
            "MUDS vs naive UCCs on {}",
            table.name()
        );
        assert_eq!(
            result.inds,
            muds_ind::naive_inds(&table),
            "MUDS vs naive INDs on {}",
            table.name()
        );
    }
}

/// Every shrunken repro the fuzzer has ever banked must stay fixed: all
/// four pipelines agree, and on narrow repros the exponential naive
/// oracles confirm the agreed answer is the *right* one. New corpus files
/// are picked up automatically — `mudsprof fuzz --corpus tests/corpus`
/// writes them in exactly this format.
#[test]
fn corpus_repros_stay_fixed() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        // No corpus yet: nothing banked, nothing to replay.
        return;
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let table = muds_table::table_from_csv_file(&path, &muds_table::CsvOptions::default())
            .unwrap_or_else(|e| panic!("corpus file {name} is unreadable: {e}"));
        // Repros are replayed exactly as banked — including duplicate rows
        // or NULL floods — because the original disagreement may need them.
        assert_all_agree(&table);
        if table.num_columns() <= 8 && table.num_rows() <= 64 {
            let result = profile(&table, Algorithm::Muds, &ProfilerConfig::default());
            assert_eq!(
                result.fds.to_sorted_vec(),
                muds_fd::naive_minimal_fds(&table).to_sorted_vec(),
                "MUDS vs naive FDs on corpus repro {name}"
            );
            assert_eq!(
                result.minimal_uccs,
                muds_ucc::naive_minimal_uccs(&table),
                "MUDS vs naive UCCs on corpus repro {name}"
            );
            assert_eq!(
                result.inds,
                muds_ind::naive_inds(&table),
                "MUDS vs naive INDs on corpus repro {name}"
            );
        }
    }
}

/// Replays incremental deltas against from-scratch profiling: for every
/// algorithm, `profile(apply(table, delta))` and
/// `apply_incremental(profile(table), delta)` must land on identical
/// dependency sets. Runs over the experiment datasets and over every
/// banked fuzzer repro (the corpus holds exactly the shapes where the
/// monotone invalidation frontier is easiest to get wrong).
#[test]
fn incremental_deltas_match_from_scratch() {
    let mut tables = vec![
        uniprot_like(300, 7).dedup_rows(),
        ncvoter_like(250, 8).dedup_rows(),
        uci_dataset("bridges").dedup_rows(),
    ];
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    if let Ok(entries) = std::fs::read_dir(&corpus) {
        let mut paths: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "csv"))
            .collect();
        paths.sort();
        for path in paths {
            let table = muds_table::table_from_csv_file(&path, &muds_table::CsvOptions::default())
                .unwrap()
                .dedup_rows();
            if table.num_columns() > 0 {
                tables.push(table);
            }
        }
    }
    let cfg = ProfilerConfig::default();
    // Deletes that carried the old UCCs and FDs because no maximal negative
    // turned positive (the other deletes re-profile).
    let mut borders_kept = 0;
    for table in &tables {
        // Deletes of a spread of rows and of one row, and an append of one
        // fresh row plus one duplicate of an existing row (which the delta
        // path must drop — duplicate-free tables are the §3 precondition).
        let mut deltas = Vec::new();
        if table.num_rows() > 0 {
            deltas.push(TableDelta::Delete {
                rows: vec![0, table.num_rows() / 2, table.num_rows() - 1],
            });
            deltas.push(TableDelta::Delete { rows: vec![table.num_rows() / 3] });
            let copy: Vec<String> = (0..table.num_columns())
                .map(|c| table.row(0)[c].unwrap_or("").to_string())
                .collect();
            let mut fresh = copy.clone();
            fresh[0] = "δ-fresh".to_string();
            deltas.push(TableDelta::Append { rows: vec![fresh, copy] });
        } else {
            deltas
                .push(TableDelta::Append { rows: vec![vec![String::new(); table.num_columns()]] });
        }
        for delta in &deltas {
            for &alg in &Algorithm::ALL {
                let base = profile(table, alg, &cfg);
                let inc = apply_incremental(&base, table, delta)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", alg.name(), table.name()));
                if inc.deleted_rows > 0 && inc.skipped > 0 {
                    borders_kept += 1;
                }
                let scratch = profile(&inc.table, alg, &cfg);
                assert_eq!(
                    inc.result.fds.to_sorted_vec(),
                    scratch.fds.to_sorted_vec(),
                    "{} incremental vs scratch FDs on {}",
                    alg.name(),
                    table.name()
                );
                assert_eq!(
                    inc.result.minimal_uccs,
                    scratch.minimal_uccs,
                    "{} incremental vs scratch UCCs on {}",
                    alg.name(),
                    table.name()
                );
                assert_eq!(
                    inc.result.inds,
                    scratch.inds,
                    "{} incremental vs scratch INDs on {}",
                    alg.name(),
                    table.name()
                );
            }
        }
    }
    assert!(borders_kept > 0, "no delete kept its negative border");
}

/// The 256-column `ColumnSet` capacity is a typed error with an actionable
/// message all the way through the CSV entry point, not a panic.
#[test]
fn over_wide_csv_is_a_typed_error() {
    let header: Vec<String> = (0..257).map(|i| format!("c{i}")).collect();
    let row: Vec<String> = (0..257).map(|i| i.to_string()).collect();
    let csv = format!("{}\n{}\n", header.join(","), row.join(","));
    let err = muds_table::table_from_csv("wide", &csv, &muds_table::CsvOptions::default())
        .expect_err("257 columns must be rejected");
    assert!(
        matches!(err, muds_table::TableError::TooManyColumns { got: 257, max: 256 }),
        "unexpected error: {err:?}"
    );
    let message = err.to_string();
    assert!(message.contains("257") && message.contains("256"), "unhelpful message: {message}");
}
