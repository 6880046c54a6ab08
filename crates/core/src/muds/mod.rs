//! The MUDS algorithm (§5): holistic discovery of unary INDs, minimal
//! UCCs, and minimal FDs in one execution.
//!
//! Execution strategy (§5, mirrored by [`muds`]):
//!
//! 1. **SPIDER + PLI construction** — while the input is "read", unary INDs
//!    are computed and the single-column PLIs built (one shared scan).
//! 2. **DUCC** — all minimal UCCs, via the random walk over the shared
//!    PLI cache.
//! 3. **FD discovery.** Exact mode (the default) runs one certified
//!    sub-lattice walk per right-hand side ([`rz::walk_rhss`]), seeded
//!    with DUCC's minimal UCCs (Lemma 2) and maximal non-UCCs: first the
//!    rhss in R\Z (span `calculate R\Z`), then those in Z (span
//!    `completion sweep`). The paper-faithful mode runs the paper's three
//!    phases instead: `minimize::minimize_fds` (§5.1, FDs between connected
//!    minimal UCCs), the unseeded walks for rhss in R\Z (§5.2), and
//!    `shadowed::discover_shadowed_fds` (§5.3, shadowed FDs), sharing
//!    what they learn through `knowledge::FdKnowledge`. A set-trie of the
//!    minimal UCCs (§5.4) backs its subset and connector look-ups.
//!
//! Each phase is a `muds-obs` span named after its Figure 8 bar, and each
//! phase flushes its own work counters into the ambient registry.

mod knowledge;
mod minimize;
mod rz;
mod shadowed;

use muds_fd::FdSet;
use muds_ind::spider;
use muds_lattice::{ColumnSet, SetTrie, WalkResult};
use muds_pli::PliCache;
use muds_table::Table;
use muds_ucc::{ducc, DuccResult};

use crate::Dependencies;

/// Configuration of a MUDS run.
#[derive(Debug, Clone)]
pub struct MudsConfig {
    /// Base RNG seed for the DUCC walk and the per-rhs sub-lattice walks.
    pub seed: u64,
    /// Exact FD discovery: after DUCC, one sub-lattice walk per
    /// right-hand side, seeded with DUCC's minimal UCCs and maximal
    /// non-UCCs, whose duality certificate guarantees that no minimal FD
    /// is missed.
    ///
    /// **Defaults to on.** `false` runs the paper's phases §5.1–§5.3
    /// instead. The paper argues they find every minimal FD with a
    /// right-hand side in Z, but our reproduction found a counterexample
    /// (see `paper_faithful_mode_misses_a_shadowed_fd` and DESIGN.md): a
    /// minimal lhs mixing columns of several overlapping UCCs can be
    /// unreachable by Algorithm 2's extend-and-reduce cycle.
    pub completion_sweep: bool,
}

impl Default for MudsConfig {
    fn default() -> Self {
        MudsConfig { seed: 0x4D554453, completion_sweep: true }
    }
}

/// Runs MUDS on `table`.
///
/// Precondition (§3): `table` must be duplicate-free — use
/// [`Table::dedup_rows`] first. With duplicates the UCC set is empty and
/// the result degrades gracefully (every FD is still found via the R\Z
/// walks), but none of the paper's inter-task pruning applies.
pub fn muds(table: &Table, config: &MudsConfig) -> Dependencies {
    // Phase: SPIDER + PLI construction (shared input scan).
    let span = muds_obs::span("SPIDER");
    let mut cache = PliCache::new(table);
    let inds = spider(table);
    span.stop();

    // Phase: DUCC.
    let span = muds_obs::span("DUCC");
    let ducc = ducc(&mut cache, config.seed);
    span.stop();

    let z = ducc.minimal_uccs.iter().fold(ColumnSet::empty(), |acc, u| acc.union(u));
    let rz = ColumnSet::full(table.num_columns()).difference(&z);
    let fds = if config.completion_sweep {
        exact_fds(&mut cache, &ducc, &z, &rz, config.seed)
    } else {
        paper_faithful_fds(&mut cache, &ducc.minimal_uccs, &z, &rz, config.seed)
    };
    Dependencies { inds, minimal_uccs: ducc.minimal_uccs, fds }
}

/// Adds every walk's minimal left-hand sides to `fds`.
fn insert_walks(fds: &mut FdSet, walks: &[(usize, WalkResult)]) {
    for (a, walk) in walks {
        for &lhs in &walk.minimal_positives {
            fds.insert(lhs, *a);
        }
    }
}

/// Exact FD discovery: one DUCC-seeded walk per rhs, R\Z first. Each
/// walk's duality certificate makes its rhs's minimal left-hand sides
/// exact, so the result needs no minimality guard.
fn exact_fds(
    cache: &mut PliCache<'_>,
    ducc: &DuccResult,
    z: &ColumnSet,
    rz: &ColumnSet,
    seed: u64,
) -> FdSet {
    let (positives, negatives) = (&ducc.minimal_uccs, &ducc.maximal_non_uccs);
    let mut fds = FdSet::new();
    insert_walks(&mut fds, &rz_walks(cache, rz, seed, positives, negatives));
    let span = muds_obs::span("completion sweep");
    insert_walks(&mut fds, &rz::walk_rhss(cache, z, seed, positives, negatives));
    span.stop();
    fds
}

/// The walks for the rhss in R\Z (§5.2), under their span.
fn rz_walks(
    cache: &mut PliCache<'_>,
    rz: &ColumnSet,
    seed: u64,
    positives: &[ColumnSet],
    negatives: &[ColumnSet],
) -> Vec<(usize, WalkResult)> {
    let span = muds_obs::span("calculate R\\Z");
    let walks = rz::walk_rhss(cache, rz, seed, positives, negatives);
    muds_obs::add("rz.sub_lattices", rz.cardinality() as u64);
    span.stop();
    walks
}

/// The paper's FD phases (§5.1–§5.3), sharing one [`knowledge::FdKnowledge`]
/// store. Sound but not complete (DESIGN.md).
fn paper_faithful_fds(
    cache: &mut PliCache<'_>,
    minimal_uccs: &[ColumnSet],
    z: &ColumnSet,
    rz: &ColumnSet,
    seed: u64,
) -> FdSet {
    // Shared lattice indexes: UCC prefix tree (§5.4), plus the holistic
    // FD-knowledge store consulted and fed by every phase. Lemma 2 seeds
    // it: every minimal UCC determines every other column.
    let ucc_trie = SetTrie::from_sets(minimal_uccs.iter().copied());
    let r = ColumnSet::full(cache.table().num_columns());
    let mut knowledge = knowledge::FdKnowledge::new(r.cardinality());
    for u in minimal_uccs {
        for a in r.difference(u).iter() {
            knowledge.record_positive(*u, a);
        }
    }

    // Phase: FDs in connected minimal UCCs (§5.1).
    let span = muds_obs::span("minimize FDs");
    let mut fds = minimize::minimize_fds(cache, minimal_uccs, &ucc_trie, z, &mut knowledge);
    span.stop();

    // Phase: R\Z sub-lattice walks (§5.2), unseeded; what they find feeds
    // the knowledge store.
    let walks = rz_walks(cache, rz, seed, &[], &[]);
    for (a, walk) in &walks {
        for &lhs in &walk.minimal_positives {
            knowledge.record_positive(lhs, *a);
        }
        for &neg in &walk.maximal_negatives {
            knowledge.record_negative(neg, *a);
        }
    }
    insert_walks(&mut fds, &walks);

    // Phases: shadowed FDs (§5.3), generation and minimization each
    // under its own span.
    shadowed::discover_shadowed_fds(cache, &mut fds, &ucc_trie, &mut knowledge);

    // Structural minimality guard (pure set algebra; see DESIGN.md).
    fds.minimize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use muds_fd::naive_minimal_fds;
    use muds_ind::naive_inds;
    use muds_ucc::naive_minimal_uccs;
    use proptest::prelude::{Just, Strategy};

    fn cs(cols: &[usize]) -> ColumnSet {
        ColumnSet::from_indices(cols.iter().copied())
    }

    fn check_equivalence(t: &Table, config: &MudsConfig) {
        let report = muds(t, config);
        assert_eq!(report.inds, naive_inds(t), "INDs differ on {}", t.name());
        assert_eq!(report.minimal_uccs, naive_minimal_uccs(t), "UCCs differ on {}", t.name());
        assert_eq!(
            report.fds.to_sorted_vec(),
            naive_minimal_fds(t).to_sorted_vec(),
            "FDs differ on {} (sweep={})",
            t.name(),
            config.completion_sweep
        );
    }

    #[test]
    fn simple_key_table() {
        let t = Table::from_rows(
            "t",
            &["id", "name", "dept", "dept_head"],
            &[
                vec!["1", "ann", "cs", "dijkstra"],
                vec!["2", "bob", "cs", "dijkstra"],
                vec!["3", "cat", "ee", "shannon"],
                vec!["4", "dan", "ee", "shannon"],
            ],
        )
        .unwrap();
        check_equivalence(&t, &MudsConfig::default());
        let report = muds(&t, &MudsConfig::default());
        assert_eq!(report.minimal_uccs, vec![cs(&[0]), cs(&[1])]);
        assert!(report.fds.contains(&cs(&[2]), 3), "dept → dept_head");
        assert!(report.fds.contains(&cs(&[3]), 2), "dept_head → dept");
    }

    #[test]
    fn shadowed_fd_scenario() {
        // Engineered so phase 1 alone misses an FD: two overlapping keys
        // plus a derived column combination.
        let rows: Vec<Vec<String>> = (0u32..16)
            .map(|i| {
                vec![
                    i.to_string(),                   // A: key
                    (i / 2).to_string(),             // B
                    (i % 2).to_string(),             // C
                    ((i / 2) ^ (i % 2)).to_string(), // D = f(B, C)
                ]
            })
            .collect();
        let t = Table::from_rows("t", &["A", "B", "C", "D"], &rows).unwrap();
        check_equivalence(&t, &MudsConfig::default());
    }

    #[test]
    fn degenerate_tables() {
        let t1 = Table::from_rows("one-row", &["a", "b"], &[vec!["1", "2"]]).unwrap();
        check_equivalence(&t1, &MudsConfig::default());
        let rows: Vec<Vec<&str>> = vec![];
        let t0 = Table::from_rows("empty", &["a", "b"], &rows).unwrap();
        check_equivalence(&t0, &MudsConfig::default());
        let t = Table::from_rows("single-col", &["a"], &[vec!["1"], vec!["2"]]).unwrap();
        check_equivalence(&t, &MudsConfig::default());
    }

    /// Both modes walk one sub-lattice per rhs in R\Z (§5.2), counted by
    /// `rz.sub_lattices`. Here Z = {id}, so g and x are walked.
    #[test]
    fn both_modes_count_one_sub_lattice_per_rhs_outside_z() {
        let t = Table::from_rows(
            "t",
            &["id", "g", "x"],
            &[vec!["1", "a", "p"], vec!["2", "a", "p"], vec!["3", "b", "q"], vec!["4", "b", "q"]],
        )
        .unwrap();
        for completion_sweep in [true, false] {
            let metrics = muds_obs::Metrics::new();
            let guard = metrics.install();
            let report = muds(&t, &MudsConfig { completion_sweep, ..MudsConfig::default() });
            drop(guard);
            assert_eq!(report.minimal_uccs, vec![cs(&[0])], "Z = {{id}}");
            assert!(report.fds.contains(&cs(&[1]), 2), "g → x");
            let walked = metrics.drain_snapshot().counter("rz.sub_lattices");
            assert_eq!(walked, 2, "g and x (sweep={completion_sweep})");
        }
    }

    #[test]
    fn duplicate_rows_degrade_gracefully() {
        // Duplicates → no UCCs → Z = ∅ → everything via phase 2 (exact).
        let t = Table::from_rows(
            "dups",
            &["a", "b"],
            &[vec!["1", "x"], vec!["1", "x"], vec!["2", "y"]],
        )
        .unwrap();
        let report = muds(&t, &MudsConfig::default());
        assert!(report.minimal_uccs.is_empty());
        assert_eq!(report.fds.to_sorted_vec(), naive_minimal_fds(&t).to_sorted_vec());
    }

    proptest::proptest! {
        /// The exact walks' negative seeds are sound: a maximal non-UCC
        /// `M` never determines a column `a ∉ M`, because `M ∪ {a}` is
        /// unique and `M` is not.
        #[test]
        fn maximal_non_uccs_determine_no_outside_column(
            (cols, data) in (1usize..=6).prop_flat_map(|cols| {
                let row = proptest::collection::vec(0u32..3, cols);
                (Just(cols), proptest::collection::vec(row, 0..25))
            })
        ) {
            let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
            let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let rows: Vec<Vec<String>> =
                data.iter().map(|r| r.iter().map(|v| v.to_string()).collect()).collect();
            let t = Table::from_rows("t", &name_refs, &rows).unwrap().dedup_rows();
            let mut cache = PliCache::new(&t);
            for m in ducc(&mut cache, 3).maximal_non_uccs {
                for a in ColumnSet::full(cols).difference(&m).iter() {
                    proptest::prop_assert!(!muds_fd::holds(&t, &m, a), "{m:?} → {a}");
                }
            }
        }
    }

    #[test]
    fn randomized_equivalence_with_default_config() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7777);
        for case in 0..200 {
            let cols = rng.gen_range(1..=7);
            let rows = rng.gen_range(1..=30);
            let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
            let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let cardinality = rng.gen_range(2..=4);
            let data: Vec<Vec<String>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.gen_range(0..cardinality).to_string()).collect())
                .collect();
            let t =
                Table::from_rows(format!("rand{case}"), &name_refs, &data).unwrap().dedup_rows();
            check_equivalence(&t, &MudsConfig::default());
        }
    }

    /// Paper-faithful mode is *sound* — everything it emits is a
    /// valid FD — but measurably incomplete on adversarial uniform-random
    /// tables (~10% of minimal FDs missed; see DESIGN.md). This test pins
    /// both properties so a future change to the phase-3 look-ups that
    /// closes (or widens) the gap is noticed.
    #[test]
    fn paper_faithful_mode_is_sound_and_incompleteness_is_bounded() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7777);
        let cfg = MudsConfig { completion_sweep: false, ..MudsConfig::default() };
        let mut missing_total = 0usize;
        for case in 0..200 {
            let cols = rng.gen_range(1..=7);
            let rows = rng.gen_range(1..=30);
            let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
            let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let cardinality = rng.gen_range(2..=4);
            let data: Vec<Vec<String>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.gen_range(0..cardinality).to_string()).collect())
                .collect();
            let t =
                Table::from_rows(format!("rand{case}"), &name_refs, &data).unwrap().dedup_rows();
            let report = muds(&t, &cfg);
            for fd in report.fds.to_sorted_vec() {
                assert!(muds_fd::holds(&t, &fd.lhs, fd.rhs), "unsound FD {fd} on case {case}");
            }
            let truth: std::collections::BTreeSet<_> =
                naive_minimal_fds(&t).to_sorted_vec().into_iter().collect();
            let got: std::collections::BTreeSet<_> =
                report.fds.to_sorted_vec().into_iter().collect();
            missing_total += truth.difference(&got).count();
        }
        // Measured on this seed: 149 of 1465 minimal FDs missed across 200
        // uniform-random tables. Keep a loose band so RNG-stream changes
        // don't break the build while real regressions still do.
        assert!(missing_total > 0, "faithful mode became complete — update DESIGN.md");
        assert!(
            missing_total < 300,
            "paper-faithful mode missed {missing_total} FDs; far above the expected band"
        );
    }

    /// Regression fixture for the incompleteness of the paper's phases 1+3
    /// (DESIGN.md): with minimal UCCs {{0,1,3},{1,3,4},{0,2,3,4}}, the
    /// minimal FD {0,1,4} → 2 is unreachable by Algorithm 2's
    /// extend-and-reduce cycle — every extension yields the full column set
    /// and UCC removal never strips column 2, because column 3 alone breaks
    /// all three contained UCCs. Exact mode finds it.
    #[test]
    fn paper_faithful_mode_misses_a_shadowed_fd() {
        let raw = [
            "1,0,2,0,0",
            "2,1,3,0,0",
            "0,3,0,3,1",
            "2,3,3,0,2",
            "0,2,3,1,2",
            "1,3,0,2,3",
            "0,2,0,0,3",
            "1,0,0,3,1",
            "3,2,3,2,1",
            "3,3,2,3,0",
            "3,2,3,3,2",
            "3,1,2,3,2",
            "1,2,0,0,1",
            "3,3,2,0,1",
            "0,1,3,1,1",
            "3,3,2,2,1",
        ];
        let rows: Vec<Vec<&str>> = raw.iter().map(|r| r.split(',').collect()).collect();
        let t = Table::from_rows("counterexample", &["A", "B", "C", "D", "E"], &rows).unwrap();
        let missing_lhs = cs(&[0, 1, 4]);
        assert!(muds_fd::holds(&t, &missing_lhs, 2));

        let faithful = muds(&t, &MudsConfig { completion_sweep: false, ..MudsConfig::default() });
        assert!(
            !faithful.fds.contains(&missing_lhs, 2),
            "if the faithful mode now finds this FD, the fixture is stale — \
             update DESIGN.md's incompleteness discussion"
        );
        let exact = muds(&t, &MudsConfig::default());
        assert!(exact.fds.contains(&missing_lhs, 2));
        check_equivalence(&t, &MudsConfig::default());
    }
}
