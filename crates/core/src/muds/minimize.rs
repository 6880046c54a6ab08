//! MUDS phase 1: FDs in connected minimal UCCs (§5.1, Algorithm 1).
//!
//! Every minimal UCC U functionally determines all other columns, so
//! `U → Z \ U` seeds a top-down minimization: the algorithm walks the
//! direct subsets of each left-hand side, tests which right-hand sides stay
//! valid one level down (partition refinement), and emits a right-hand side
//! at the highest node where no subset still determines it.
//!
//! The *connector look-up* keeps the candidate right-hand sides small:
//! for a subset X of a minimal UCC U, the connector is `U \ X`; valid FDs
//! between minimal UCCs must have their right-hand side inside some other
//! minimal UCC that contains the connector (substitution rule, §4.1).
//! Candidates that would lie entirely inside one minimal UCC are impossible
//! (§4, rule 1) and filtered out.

use std::collections::{HashMap, VecDeque};

use muds_fd::FdSet;
use muds_lattice::{ColumnSet, SetTrie};
use muds_pli::PliCache;

use super::knowledge::FdKnowledge;

/// Work counters for the phase.
#[derive(Debug, Default)]
struct MinimizeStats {
    /// Tasks processed (lattice nodes visited top-down).
    tasks: u64,
    /// Partition-refinement FD checks.
    fd_checks: u64,
    /// Connector look-ups performed.
    connector_lookups: u64,
}

/// The connector look-up of §5.1 (Table 2): the union of `V \ connector`
/// over all minimal UCCs V ⊇ connector.
pub fn connector_lookup(ucc_trie: &SetTrie, connector: &ColumnSet) -> ColumnSet {
    let mut union = ColumnSet::empty();
    for ucc in ucc_trie.supersets_of(connector) {
        union = union.union(&ucc.difference(connector));
    }
    union
}

/// §4 rule 1: an FD `lhs → a` cannot exist when `lhs ∪ {a}` fits inside a
/// single minimal UCC (the rhs could otherwise be dropped from that UCC,
/// contradicting its minimality).
fn fd_inside_ucc(ucc_trie: &SetTrie, lhs: &ColumnSet, a: usize) -> bool {
    ucc_trie.contains_superset_of(&lhs.with(a))
}

/// Runs Algorithm 1: discovers and minimizes the FDs whose left- and
/// right-hand sides lie in (different, intersecting) minimal UCCs.
///
/// `uccs` are the minimal UCCs, `ucc_trie` indexes them, and `z` is their
/// union (the set the paper calls Z). Emitted FDs are always *valid*; a
/// final structural minimization pass in the caller removes the rare
/// non-minimal leftovers the connector restriction lets through.
pub fn minimize_fds(
    cache: &mut PliCache<'_>,
    uccs: &[ColumnSet],
    ucc_trie: &SetTrie,
    z: &ColumnSet,
    knowledge: &mut FdKnowledge,
) -> FdSet {
    let mut stats = MinimizeStats::default();
    let mut fds = FdSet::new();

    struct Task {
        lhs: ColumnSet,
        rhs: ColumnSet,
        mucc: ColumnSet,
    }

    let mut queue: VecDeque<Task> = VecDeque::new();
    // (lhs, mucc) → right-hand sides already enqueued, to avoid reprocessing
    // shared sub-lattice nodes.
    let mut enqueued: HashMap<(ColumnSet, ColumnSet), ColumnSet> = HashMap::new();
    // Connectors and rule-1 queries repeat across tasks; memoize both.
    let mut connector_memo: HashMap<ColumnSet, ColumnSet> = HashMap::new();
    let mut rule1_memo: HashMap<ColumnSet, bool> = HashMap::new();

    for &u in uccs {
        let rhs = z.difference(&u);
        enqueued.insert((u, u), rhs);
        queue.push_back(Task { lhs: u, rhs, mucc: u });
    }

    while let Some(task) = queue.pop_front() {
        stats.tasks += 1;
        let mut current_rhs = task.rhs;
        for lhs_subset in task.lhs.direct_subsets() {
            let connector = task.mucc.difference(&lhs_subset);
            stats.connector_lookups += 1;
            let looked_up = *connector_memo
                .entry(connector)
                .or_insert_with(|| connector_lookup(ucc_trie, &connector));
            let candidates = looked_up.intersection(&task.rhs);
            let mut potential = ColumnSet::empty();
            for a in candidates.difference(&lhs_subset).iter() {
                let impossible = *rule1_memo
                    .entry(lhs_subset.with(a))
                    .or_insert_with(|| fd_inside_ucc(ucc_trie, &lhs_subset, a));
                if !impossible {
                    potential.insert(a);
                }
            }

            stats.fd_checks += potential.cardinality() as u64;
            let mut valid_rhs = ColumnSet::empty();
            for a in potential.iter() {
                if knowledge.determines(cache, &lhs_subset, a) {
                    valid_rhs.insert(a);
                }
            }
            current_rhs = current_rhs.difference(&valid_rhs);
            if valid_rhs.is_empty() {
                continue;
            }
            let key = (lhs_subset, task.mucc);
            let seen = enqueued.entry(key).or_insert_with(ColumnSet::empty);
            let fresh = valid_rhs.difference(seen);
            if !fresh.is_empty() {
                *seen = seen.union(&fresh);
                queue.push_back(Task { lhs: lhs_subset, rhs: fresh, mucc: task.mucc });
            }
        }
        fds.insert_all(task.lhs, &current_rhs);
    }

    muds_obs::add("minimize.tasks", stats.tasks);
    muds_obs::add("minimize.fd_checks", stats.fd_checks);
    muds_obs::add("minimize.connector_lookups", stats.connector_lookups);
    fds
}

#[cfg(test)]
mod tests {
    use super::*;
    use muds_table::Table;

    fn cs(cols: &[usize]) -> ColumnSet {
        ColumnSet::from_indices(cols.iter().copied())
    }

    #[test]
    fn connector_lookup_paper_example() {
        // Table 2: UCCs {AFG, BDFG, DEF, CEFG}, connector FG → ABCDE... the
        // union of matched non-connector columns is {A,B,D,C,E}.
        let (a, b, c, d, e, f, g) = (0, 1, 2, 3, 4, 5, 6);
        let trie = SetTrie::from_sets([
            cs(&[a, f, g]),
            cs(&[b, d, f, g]),
            cs(&[d, e, f]),
            cs(&[c, e, f, g]),
        ]);
        assert_eq!(connector_lookup(&trie, &cs(&[f, g])), cs(&[a, b, c, d, e]));
        // A connector matching nothing yields the empty set.
        assert_eq!(connector_lookup(&trie, &cs(&[a, b, c])), ColumnSet::empty());
    }

    #[test]
    fn rule1_fd_inside_ucc() {
        // UCC {0,1,2}: for lhs {0,1}, rhs 2 is impossible (FD inside the
        // UCC); rhs 3 is allowed.
        let trie = SetTrie::from_sets([cs(&[0, 1, 2])]);
        assert!(fd_inside_ucc(&trie, &cs(&[0, 1]), 2));
        assert!(!fd_inside_ucc(&trie, &cs(&[0, 1]), 3));
    }

    #[test]
    fn key_fds_minimized_top_down() {
        // id is a minimal UCC; copy mirrors id. Phase 1 should find
        // copy → id and id → copy (both single-column UCCs, overlapping via
        // connector ∅? No — connectors require superset UCCs).
        // Here: UCCs {id} and {copy}; Z = {id, copy}.
        let t = Table::from_rows(
            "t",
            &["id", "copy", "x"],
            &[vec!["1", "1", "a"], vec!["2", "2", "a"], vec!["3", "3", "b"]],
        )
        .unwrap();
        let mut cache = PliCache::new(&t);
        let uccs = vec![cs(&[0]), cs(&[1])];
        let trie = SetTrie::from_sets(uccs.iter().copied());
        let z = cs(&[0, 1]);
        let mut knowledge = FdKnowledge::new(t.num_columns());
        let metrics = muds_obs::Metrics::new();
        let _guard = metrics.install();
        let fds = minimize_fds(&mut cache, &uccs, &trie, &z, &mut knowledge);
        assert!(fds.contains(&cs(&[0]), 1), "id → copy");
        assert!(fds.contains(&cs(&[1]), 0), "copy → id");
        assert!(metrics.drain_snapshot().counter("minimize.tasks") >= 2);
    }

    #[test]
    fn emitted_fds_are_valid() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(55);
        for _ in 0..40 {
            let cols = rng.gen_range(2..=6);
            let rows = rng.gen_range(2..=20);
            let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
            let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let data: Vec<Vec<String>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.gen_range(0..3).to_string()).collect())
                .collect();
            let t = Table::from_rows("t", &name_refs, &data).unwrap().dedup_rows();
            let mut cache = PliCache::new(&t);
            let uccs = muds_ucc::naive_minimal_uccs(&t);
            let trie = SetTrie::from_sets(uccs.iter().copied());
            let z = uccs.iter().fold(ColumnSet::empty(), |acc, u| acc.union(u));
            let mut knowledge = FdKnowledge::new(t.num_columns());
            let fds = minimize_fds(&mut cache, &uccs, &trie, &z, &mut knowledge);
            for fd in fds.to_sorted_vec() {
                assert!(
                    muds_fd::holds(&t, &fd.lhs, fd.rhs),
                    "phase 1 emitted invalid FD {fd} on {t:?}"
                );
            }
        }
    }
}
