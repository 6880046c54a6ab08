//! Holistic FUN (§3.2): FDs and UCCs simultaneously, INDs on the shared
//! scan.
//!
//! FUN must traverse every minimal UCC anyway (Lemma 3: minimal UCCs are
//! free sets), so recording them costs nothing. Combined with SPIDER
//! running on the same input scan and the shared PLI cache, this is the
//! paper's "FDs and UCCs simultaneously" holistic baseline — it always
//! beats the sequential execution by exactly the duplicated work it avoids,
//! but applies none of MUDS' inter-task pruning.

use muds_fd::fun;
use muds_ind::spider;
use muds_pli::PliCache;
use muds_table::Table;

use crate::Dependencies;

/// Runs Holistic FUN on `table` (assumed duplicate-free, §3).
pub fn holistic_fun(table: &Table) -> Dependencies {
    let span = muds_obs::span("SPIDER");
    let mut cache = PliCache::new(table);
    let inds = spider(table);
    span.stop();

    let span = muds_obs::span("FUN");
    let result = fun(&mut cache);
    span.stop();

    Dependencies { inds, minimal_uccs: result.minimal_uccs, fds: result.fds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muds_fd::naive_minimal_fds;
    use muds_ind::naive_inds;
    use muds_ucc::naive_minimal_uccs;

    #[test]
    fn produces_all_three_metadata_kinds() {
        let t = Table::from_rows(
            "t",
            &["id", "grp", "val"],
            &[vec!["1", "a", "x"], vec!["2", "a", "x"], vec!["3", "b", "y"], vec!["4", "b", "y"]],
        )
        .unwrap();
        let r = holistic_fun(&t);
        assert_eq!(r.inds, naive_inds(&t));
        assert_eq!(r.minimal_uccs, naive_minimal_uccs(&t));
        assert_eq!(r.fds.to_sorted_vec(), naive_minimal_fds(&t).to_sorted_vec());
    }

    #[test]
    fn randomized_equivalence() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(1212);
        for case in 0..80 {
            let cols = rng.gen_range(1..=6);
            let rows = rng.gen_range(1..=25);
            let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
            let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let data: Vec<Vec<String>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.gen_range(0..3).to_string()).collect())
                .collect();
            let t = Table::from_rows(format!("r{case}"), &name_refs, &data).unwrap().dedup_rows();
            let r = holistic_fun(&t);
            assert_eq!(r.fds.to_sorted_vec(), naive_minimal_fds(&t).to_sorted_vec(), "case {case}");
            assert_eq!(r.minimal_uccs, naive_minimal_uccs(&t), "case {case}");
        }
    }
}
