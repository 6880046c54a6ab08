//! The sequential baseline (§6): SPIDER, then DUCC, then FUN, each run in
//! isolation.
//!
//! This reproduces how profiling is done without a holistic algorithm: three
//! independent executions that share nothing. Each task pays for its own
//! input scan (re-parsing the CSV text when available, otherwise re-encoding
//! the table) and builds its own PLIs — exactly the duplicated cost the
//! holistic algorithms eliminate (§1: shared I/O, shared data structures).

use muds_fd::fun;
use muds_ind::spider;
use muds_pli::PliCache;
use muds_table::{table_from_csv, CsvOptions, Table};
use muds_ucc::ducc;

use crate::Dependencies;

/// Runs the sequential baseline on already-parsed `table`, simulating the
/// per-task input scan by re-encoding the table for each algorithm.
pub fn baseline(table: &Table, seed: u64) -> Dependencies {
    let names = table.column_names();
    let rows: Vec<Vec<String>> = (0..table.num_rows())
        .map(|r| table.row(r).iter().map(|v| v.unwrap_or("").to_string()).collect())
        .collect();
    // lint:allow(panic): the rows were just read out of an
    // already-validated Table, so re-encoding them cannot produce a shape
    // error; a failure is an internal bug worth a loud abort.
    let rescan = || Table::from_rows(table.name(), &names, &rows).expect("re-encoding valid table");
    run_baseline(rescan, seed)
}

/// Runs the sequential baseline on CSV text, re-parsing it for every task —
/// the honest analogue of the paper's three independent file reads.
pub fn baseline_csv(name: &str, csv: &str, options: &CsvOptions, seed: u64) -> Dependencies {
    // lint:allow(panic): profile_csv parses this exact CSV before
    // dispatching here, so the re-parse per task cannot fail differently.
    let rescan = || table_from_csv(name, csv, options).expect("valid csv");
    run_baseline(rescan, seed)
}

fn run_baseline<F: Fn() -> Table>(rescan: F, seed: u64) -> Dependencies {
    // Task 1: SPIDER, with its own scan.
    let span = muds_obs::span("SPIDER");
    let t = rescan();
    let inds = spider(&t);
    span.stop();

    // Task 2: DUCC, with its own scan and PLIs.
    let span = muds_obs::span("DUCC");
    let t = rescan();
    let mut cache = PliCache::new(&t);
    let minimal_uccs = ducc(&mut cache, seed).minimal_uccs;
    span.stop();

    // Task 3: FUN, with its own scan and PLIs (UCC byproduct discarded —
    // the sequential baseline does not use it).
    let span = muds_obs::span("FUN");
    let t = rescan();
    let mut cache = PliCache::new(&t);
    let fds = fun(&mut cache).fds;
    span.stop();

    Dependencies { inds, minimal_uccs, fds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muds_fd::naive_minimal_fds;
    use muds_ind::naive_inds;
    use muds_ucc::naive_minimal_uccs;

    #[test]
    fn baseline_matches_ground_truth() {
        let t = Table::from_rows(
            "t",
            &["id", "grp", "val"],
            &[vec!["1", "a", "x"], vec!["2", "a", "x"], vec!["3", "b", "y"]],
        )
        .unwrap();
        let r = baseline(&t, 1);
        assert_eq!(r.inds, naive_inds(&t));
        assert_eq!(r.minimal_uccs, naive_minimal_uccs(&t));
        assert_eq!(r.fds.to_sorted_vec(), naive_minimal_fds(&t).to_sorted_vec());
    }

    #[test]
    fn csv_baseline_matches_table_baseline() {
        let csv = "a,b,c\n1,x,p\n2,x,q\n3,y,p\n";
        let t = table_from_csv("t", csv, &CsvOptions::default()).unwrap();
        let r1 = baseline_csv("t", csv, &CsvOptions::default(), 7);
        let r2 = baseline(&t, 7);
        assert_eq!(r1.inds, r2.inds);
        assert_eq!(r1.minimal_uccs, r2.minimal_uccs);
        assert_eq!(r1.fds, r2.fds);
    }
}
