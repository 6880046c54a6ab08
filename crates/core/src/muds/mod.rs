//! The MUDS algorithm (§5): holistic discovery of unary INDs, minimal
//! UCCs, and minimal FDs in one execution.
//!
//! Execution strategy (§5, mirrored by [`muds`]):
//!
//! 1. **SPIDER + PLI construction** — while the input is "read", unary INDs
//!    are computed and the single-column PLIs built (one shared scan).
//! 2. **DUCC** — all minimal UCCs, via the random walk over the shared
//!    PLI cache.
//! 3. **FD discovery in three phases** driven by the UCCs:
//!    `minimize::minimize_fds` (§5.1, FDs between connected minimal
//!    UCCs), `rz::discover_rz_fds` (§5.2, sub-lattice walks for right-hand
//!    sides in R\Z), and `shadowed::discover_shadowed_fds` (§5.3,
//!    shadowed FDs). A set-trie of the minimal UCCs (§5.4) backs the subset
//!    and connector look-ups throughout.
//!
//! Each phase is a `muds-obs` span named after its Figure 8 bar, and each
//! phase flushes its own work counters into the ambient registry.

mod knowledge;
mod minimize;
mod rz;
mod shadowed;

use muds_fd::FdSet;
use muds_ind::spider;
use muds_lattice::{find_minimal_positives, ColumnSet, SetTrie};
use muds_pli::PliCache;
use muds_table::Table;
use muds_ucc::ducc;

use crate::Dependencies;

/// Configuration of a MUDS run.
#[derive(Debug, Clone)]
pub struct MudsConfig {
    /// Base RNG seed for the DUCC walk and the R\Z sub-lattice walks.
    pub seed: u64,
    /// Run the exactness sweep after the shadowed phase: one seeded
    /// sub-lattice walk per right-hand side in Z, certifying that no
    /// minimal FD was missed.
    ///
    /// **Defaults to on.** The paper argues phases 1+3 find every minimal
    /// FD with a right-hand side in Z, but our reproduction found a
    /// counterexample (see `paper_faithful_mode_misses_a_shadowed_fd` and
    /// DESIGN.md): a minimal lhs mixing columns of several overlapping
    /// UCCs can be unreachable by Algorithm 2's extend-and-reduce cycle.
    /// Set to `false` for the paper-faithful behavior.
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
/// phase), but none of the paper's inter-task pruning applies.
pub fn muds(table: &Table, config: &MudsConfig) -> Dependencies {
    // Phase: SPIDER + PLI construction (shared input scan).
    let span = muds_obs::span("SPIDER");
    // SPIDER and PLI construction read the same immutable columns but
    // produce independent outputs, so the "one shared scan" phase runs them
    // as the two branches of a join. Ambient metrics registries are
    // thread-local; the branch that may land on a worker thread installs
    // the captured handle so SPIDER's counter flush is not lost.
    let ambient = muds_obs::Metrics::current();
    let (mut cache, inds) = rayon::join(
        || PliCache::new(table),
        move || {
            let _guard = ambient.as_ref().map(|m| m.install());
            spider(table)
        },
    );
    span.stop();

    // Phase: DUCC.
    let span = muds_obs::span("DUCC");
    let minimal_uccs = ducc(&mut cache, config.seed).minimal_uccs;
    span.stop();

    // Shared lattice indexes: UCC prefix tree (§5.4) and Z, plus the
    // holistic FD-knowledge store consulted and fed by every phase. Lemma 2
    // seeds it: every minimal UCC determines every other column.
    let ucc_trie = SetTrie::from_sets(minimal_uccs.iter().copied());
    let z = minimal_uccs.iter().fold(ColumnSet::empty(), |acc, u| acc.union(u));
    let r = ColumnSet::full(table.num_columns());
    let mut knowledge = knowledge::FdKnowledge::new(table.num_columns());
    for u in &minimal_uccs {
        for a in r.difference(u).iter() {
            knowledge.record_positive(*u, a);
        }
    }

    // Phase: FDs in connected minimal UCCs (§5.1).
    let span = muds_obs::span("minimize FDs");
    let mut fds = minimize::minimize_fds(&mut cache, &minimal_uccs, &ucc_trie, &z, &mut knowledge);
    span.stop();

    // Phase: R\Z sub-lattice walks (§5.2).
    let span = muds_obs::span("calculate R\\Z");
    let rz_fds = rz::discover_rz_fds(&mut cache, &z, config.seed, &mut knowledge);
    span.stop();
    for fd in rz_fds.to_sorted_vec() {
        fds.insert(fd.lhs, fd.rhs);
    }

    // Phases: shadowed FDs (§5.3), generation and minimization each
    // under its own span.
    shadowed::discover_shadowed_fds(&mut cache, &mut fds, &ucc_trie, &mut knowledge);

    // Optional exactness sweep for right-hand sides in Z.
    if config.completion_sweep {
        let span = muds_obs::span("completion sweep");
        let sweep_calls = completion_sweep(&mut cache, &z, &mut fds, &mut knowledge, config.seed);
        span.stop();
        muds_obs::add("muds.sweep_oracle_calls", sweep_calls);
    }

    // Structural minimality guard (pure set algebra; see DESIGN.md).
    let fds = fds.minimize();
    Dependencies { inds, minimal_uccs, fds }
}

/// One seeded sub-lattice walk per rhs ∈ Z: every already-known lhs is
/// walked down to a minimal one, then the duality loop certifies nothing is
/// missing. Returns oracle calls spent.
fn completion_sweep(
    cache: &mut PliCache<'_>,
    z: &ColumnSet,
    fds: &mut FdSet,
    knowledge: &mut knowledge::FdKnowledge,
    seed: u64,
) -> u64 {
    let n = cache.table().num_columns();
    let r = ColumnSet::full(n);
    let mut total_calls = 0u64;
    for a in z.iter() {
        let universe = r.without(a);
        // Seed the walk with everything the earlier phases learned about
        // this right-hand side, positive and negative.
        let seeds: Vec<ColumnSet> = knowledge.positive_sets(a);
        let negatives: Vec<ColumnSet> = knowledge
            .negative_sets(a)
            .iter()
            .copied()
            .filter(|s| s.is_subset_of(&universe))
            .collect();
        let mut oracle = |set: &ColumnSet| {
            total_calls += 1;
            cache.determines(set, a)
        };
        let walk_seed = seed ^ (0xC0DE + a as u64);
        let result = find_minimal_positives(universe, &mut oracle, walk_seed, &negatives, &seeds);
        for lhs in result.minimal_positives {
            fds.insert(lhs, a);
        }
    }
    total_calls
}

#[cfg(test)]
mod tests {
    use super::*;
    use muds_fd::naive_minimal_fds;
    use muds_ind::naive_inds;
    use muds_ucc::naive_minimal_uccs;

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

    /// Paper-faithful mode (no sweep) is *sound* — everything it emits is a
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
    /// all three contained UCCs. The completion sweep recovers it.
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
