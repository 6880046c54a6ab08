//! MUDS phase 3: shadowed FD discovery and minimization (§5.3,
//! Algorithms 2–4).
//!
//! Phase 1 derives FDs from the minimal UCCs, but a left-hand side mixing
//! columns of *different* minimal UCCs (or of R \ Z) is never generated
//! there — the paper calls such FDs *shadowed*. The repair: for every
//! discovered FD and every split of its left-hand side into
//! `subset ∪ connector`, the columns determined by the connector
//! (`FDs[connector]`) may shadow further left-hand sides. Extending the FD
//! with those columns yields a valid but non-minimal FD, which is then
//! reduced (left-hand sides containing a whole minimal UCC can never be
//! minimal — Algorithm 3 strips them using the UCC prefix tree) and
//! minimized top-down (Algorithm 4).
//!
//! The phase is the paper's single pass: generate the shadow tasks once
//! from the exact-lhs look-up `FDs[connector]`, then minimize them once.
//! It is not complete on adversarial inputs (DESIGN.md documents a
//! counterexample), which is why MUDS pairs it with a completion sweep by
//! default.

use std::collections::{HashMap, HashSet};

use muds_fd::FdSet;
use muds_lattice::{find_minimal_positives, ColumnSet, SetTrie};
use muds_pli::PliCache;

use super::knowledge::FdKnowledge;

/// Work counters for the phase, split like Figure 8 of the paper.
#[derive(Debug, Default)]
struct ShadowedStats {
    /// Shadow-extension candidates generated (Algorithm 2).
    tasks_generated: u64,
    /// Partition-refinement checks spent validating generated tasks.
    generation_fd_checks: u64,
    /// Partition-refinement checks spent minimizing (Algorithm 4).
    minimize_fd_checks: u64,
    /// PLI checks avoided because a known FD already dominated the
    /// candidate (`Y → a` with `Y ⊆ lhs` recorded ⇒ `lhs → a` valid).
    checks_short_circuited: u64,
}

impl ShadowedStats {
    fn flush(&self) {
        muds_obs::add("shadowed.tasks_generated", self.tasks_generated);
        muds_obs::add("shadowed.generation_fd_checks", self.generation_fd_checks);
        muds_obs::add("shadowed.minimize_fd_checks", self.minimize_fd_checks);
        muds_obs::add("shadowed.checks_short_circuited", self.checks_short_circuited);
    }
}

/// Algorithm 3: all maximal UCC-free reductions of `lhs`.
///
/// For each minimal UCC contained in `lhs`, at least one of its columns
/// must be removed; a *maximal* UCC-free reduction therefore is exactly
/// `lhs \ H` for a **minimal hitting set** H of the contained UCCs. The
/// paper enumerates removal choices UCC-by-UCC (with duplicates and
/// dominated results filtered afterwards); computing the minimal
/// transversals directly with MMCS yields the same antichain orders of
/// magnitude faster on FD-dense data, where a left-hand side can contain
/// dozens of overlapping minimal UCCs.
pub fn remove_uccs(lhs: &ColumnSet, ucc_trie: &SetTrie) -> Vec<ColumnSet> {
    let contained: Vec<ColumnSet> = ucc_trie.subsets_of(lhs);
    if contained.is_empty() {
        return vec![*lhs];
    }
    let mut reduced: Vec<ColumnSet> = muds_lattice::minimal_hitting_sets(&contained, lhs)
        .into_iter()
        .map(|removal| lhs.difference(&removal))
        .collect();
    reduced.sort();
    reduced
}

/// Algorithm 4: top-down minimization of validated shadow tasks.
///
/// Each task `(L, R)` asks for *every* minimal `X ⊆ L` with `X → a`, for
/// each `a ∈ R`. The paper's breadth-first descent over direct subsets
/// answers that by visiting every valid subset of `L` — which is
/// exponential whenever `L` is wide and contains a stable determinant
/// (a key column makes all `2^{|L|-1}` subsets containing it valid; at
/// the 256-column boundary the descent never terminates). We solve the
/// identical problem with the shared walk engine instead: one
/// minimal-positive search per distinct `(L, a)` pair, seeded with `L`
/// (valid by construction) and backed by [`FdKnowledge`], whose memo
/// spans problems. The walk is polynomial in the output, so outputs stay
/// exactly the box-minimal valid FDs of the breadth-first formulation.
fn minimize_tasks(
    cache: &mut PliCache<'_>,
    tasks: Vec<(ColumnSet, ColumnSet)>,
    fds: &mut FdSet,
    knowledge: &mut FdKnowledge,
    stats: &mut ShadowedStats,
) {
    let mut problems: Vec<(ColumnSet, usize)> = Vec::new();
    let mut seen: HashSet<(ColumnSet, usize)> = HashSet::new();
    for (lhs, rhs) in &tasks {
        for a in rhs.iter() {
            if seen.insert((*lhs, a)) {
                problems.push((*lhs, a));
            }
        }
    }
    // Fixed problem order keeps the interleaving of knowledge look-ups
    // with knowledge growth identical across runs (determinism contract).
    problems.sort_unstable();
    for (universe, a) in problems {
        // Seed the walk with everything already known about this rhs:
        // recorded positives inside the box, and recorded negatives
        // intersected into it (any subset of a non-determining set is
        // non-determining). After the R\Z phase this usually classifies
        // the whole box up front, so re-minimizing costs no oracle calls.
        let mut seeds: Vec<ColumnSet> =
            knowledge.positive_sets(a).into_iter().filter(|p| p.is_subset_of(&universe)).collect();
        seeds.push(universe);
        let negatives: Vec<ColumnSet> =
            knowledge.negative_sets(a).iter().map(|n| n.intersection(&universe)).collect();
        let mut fresh_checks = 0u64;
        let mut short_circuited = 0u64;
        let mut oracle = |set: &ColumnSet| {
            let before = knowledge.checks;
            let holds = knowledge.determines(cache, set, a);
            if knowledge.checks == before {
                short_circuited += 1;
            } else {
                fresh_checks += 1;
            }
            holds
        };
        let walk_seed = 0x5AD0_u64 ^ a as u64;
        let result = find_minimal_positives(universe, &mut oracle, walk_seed, &negatives, &seeds);
        stats.minimize_fd_checks += fresh_checks;
        stats.checks_short_circuited += short_circuited;
        for lhs in result.minimal_positives {
            if fds.insert(lhs, a) {
                knowledge.record_positive(lhs, a);
            }
        }
    }
}

/// Algorithm 2: extends `fds` (in place) with shadowed FDs. `fds` must
/// contain only valid FDs on entry.
///
/// Generation and minimization run once each, under the spans
/// `generate shadowed fd tasks` and `minimize shadowed tasks`; the second
/// opens even when there is nothing to minimize, so the phase list keeps
/// its shape.
pub fn discover_shadowed_fds(
    cache: &mut PliCache<'_>,
    fds: &mut FdSet,
    ucc_trie: &SetTrie,
    knowledge: &mut FdKnowledge,
) {
    let mut stats = ShadowedStats::default();
    let span = muds_obs::span("generate shadowed fd tasks");
    let tasks = generate_tasks(cache, fds, ucc_trie, knowledge, &mut stats);
    span.stop();
    let span = muds_obs::span("minimize shadowed tasks");
    minimize_tasks(cache, tasks, fds, knowledge, &mut stats);
    span.stop();
    stats.flush();
}

/// Extends every FD by what its connectors determine, strips the minimal
/// UCCs from the extended lhs (Algorithm 3) and keeps the right-hand sides
/// that stay valid as a task.
fn generate_tasks(
    cache: &mut PliCache<'_>,
    fds: &FdSet,
    ucc_trie: &SetTrie,
    knowledge: &mut FdKnowledge,
    stats: &mut ShadowedStats,
) -> Vec<(ColumnSet, ColumnSet)> {
    knowledge.absorb(fds);
    // Extensions repeat the same inflated left-hand side many times; the
    // UCC-removal of Algorithm 3 is memoized per distinct set.
    let mut reductions: HashMap<ColumnSet, Vec<ColumnSet>> = HashMap::new();
    let mut tasks: Vec<(ColumnSet, ColumnSet)> = Vec::new();
    // `FdSet` stores entries in a hash map; sort so the check sequence
    // (and thus every interleaving of knowledge lookups with knowledge
    // growth) is identical across runs — probe counters are part of the
    // determinism contract pinned by tests/determinism.rs.
    let mut entries: Vec<(ColumnSet, ColumnSet)> =
        fds.iter_entries().map(|(l, r)| (*l, *r)).collect();
    entries.sort_unstable();
    // Index all current left-hand sides. A connector with a non-empty
    // `FDs[connector]` is by definition a stored lhs, so instead of
    // enumerating all 2^|lhs| subsets (the paper's formulation) we
    // enumerate exactly the stored lhs's inside fd.lhs via the prefix
    // tree — identical outcomes, exponentially less iteration on
    // FD-dense data.
    let lhs_trie = SetTrie::from_sets(entries.iter().map(|(l, _)| *l));
    for (lhs, rhs) in &entries {
        for connector in lhs_trie.subsets_of(lhs) {
            let shadowed_rhs = fds.rhs_of(&connector);
            if shadowed_rhs.is_empty() {
                continue;
            }
            let new_lhs = lhs.union(&shadowed_rhs);
            if new_lhs == *lhs {
                continue;
            }
            let reduced_sets = reductions
                .entry(new_lhs)
                .or_insert_with(|| remove_uccs(&new_lhs, ucc_trie))
                .clone();
            for reduced in reduced_sets {
                // The extension is valid for new_lhs by construction;
                // after UCC removal it must be re-validated. The
                // reductions stay sequential (a check on one reduced set
                // can short-circuit the next), but each set's unresolved
                // checks fan out as one batch.
                let rhs_list: Vec<usize> = rhs.difference(&reduced).iter().collect();
                let outcomes = knowledge.decide_many(cache, &reduced, &rhs_list);
                let mut valid = ColumnSet::empty();
                for (&a, outcome) in rhs_list.iter().zip(&outcomes) {
                    if outcome.known {
                        stats.checks_short_circuited += 1;
                    } else {
                        stats.generation_fd_checks += 1;
                    }
                    if outcome.holds {
                        valid.insert(a);
                    }
                }
                if !valid.is_empty() {
                    stats.tasks_generated += 1;
                    tasks.push((reduced, valid));
                }
            }
        }
    }
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use muds_table::Table;

    fn cs(cols: &[usize]) -> ColumnSet {
        ColumnSet::from_indices(cols.iter().copied())
    }

    #[test]
    fn remove_uccs_no_contained_ucc_is_identity() {
        let trie = SetTrie::from_sets([cs(&[5, 6])]);
        assert_eq!(remove_uccs(&cs(&[0, 1]), &trie), vec![cs(&[0, 1])]);
    }

    #[test]
    fn remove_uccs_single_ucc() {
        // lhs {0,1,2}, UCC {0,1}: remove 0 or 1.
        let trie = SetTrie::from_sets([cs(&[0, 1])]);
        let mut got = remove_uccs(&cs(&[0, 1, 2]), &trie);
        got.sort();
        let mut want = vec![cs(&[1, 2]), cs(&[0, 2])];
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn remove_uccs_overlapping_uccs_share_removals() {
        // lhs {0,1,2}; UCCs {0,1} and {1,2}. Removing 1 breaks both;
        // removing 0 then forces removing 1 or 2.
        let trie = SetTrie::from_sets([cs(&[0, 1]), cs(&[1, 2])]);
        let mut got = remove_uccs(&cs(&[0, 1, 2]), &trie);
        got.sort();
        // Maximal reductions: {0,2} (remove 1) and {1} (remove 0 and 2);
        // {2} and {0} are dominated by {0,2}.
        let mut want = vec![cs(&[0, 2]), cs(&[1])];
        want.sort();
        assert_eq!(got, want);
        for r in &got {
            assert!(!trie.contains_subset_of(r), "{r:?} still contains a UCC");
        }
    }

    #[test]
    fn remove_uccs_result_never_contains_ucc() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let n = 8;
            let lhs = ColumnSet::from_indices((0..n).filter(|_| rng.gen_bool(0.6)));
            let mut trie = SetTrie::new();
            for _ in 0..rng.gen_range(1..4) {
                let k = rng.gen_range(1..=3);
                trie.insert(ColumnSet::from_indices((0..k).map(|_| rng.gen_range(0..n))));
            }
            for r in remove_uccs(&lhs, &trie) {
                assert!(r.is_subset_of(&lhs));
                assert!(!trie.contains_subset_of(&r));
            }
        }
    }

    #[test]
    fn phase_without_shadowed_fds_adds_nothing_and_keeps_both_spans() {
        // Every pair of columns is a key: minimal UCCs {0,1}, {0,2}, {1,2},
        // so Z = R and no FD is shadowed. The phase must leave the
        // phase-1 FDs valid and still open its minimize span.
        //
        //   id1 id2 v
        //    1   a  x
        //    2   a  y
        //    1   b  y
        //    2   b  x
        let t = Table::from_rows(
            "t",
            &["id1", "id2", "v"],
            &[vec!["1", "a", "x"], vec!["2", "a", "y"], vec!["1", "b", "y"], vec!["2", "b", "x"]],
        )
        .unwrap();
        let uccs = muds_ucc::naive_minimal_uccs(&t);
        let trie = SetTrie::from_sets(uccs.iter().copied());
        let mut cache = PliCache::new(&t);
        let mut fds = FdSet::new();
        for u in &uccs {
            for a in ColumnSet::full(3).difference(u).iter() {
                fds.insert(*u, a);
            }
        }
        let before = fds.to_sorted_vec();
        let metrics = muds_obs::Metrics::new();
        let _guard = metrics.install();
        discover_shadowed_fds(&mut cache, &mut fds, &trie, &mut FdKnowledge::new(3));
        assert_eq!(fds.to_sorted_vec(), before);
        let snap = metrics.drain_snapshot();
        let spans: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(spans, ["generate shadowed fd tasks", "minimize shadowed tasks"]);
        assert_eq!(snap.counter("shadowed.tasks_generated"), 0);
    }

    #[test]
    fn minimize_tasks_emits_only_minimal_valid_fds() {
        // b == a (copy); task with inflated lhs {a, c} → b must minimize to
        // a → b.
        let t = Table::from_rows(
            "t",
            &["a", "b", "c"],
            &[vec!["1", "1", "p"], vec!["2", "2", "p"], vec!["3", "3", "q"]],
        )
        .unwrap();
        let mut cache = PliCache::new(&t);
        let mut fds = FdSet::new();
        minimize_tasks(
            &mut cache,
            vec![(cs(&[0, 2]), cs(&[1]))],
            &mut fds,
            &mut FdKnowledge::new(3),
            &mut ShadowedStats::default(),
        );
        assert!(fds.contains(&cs(&[0]), 1));
        assert!(!fds.contains(&cs(&[0, 2]), 1));
    }
}
