//! TANE: level-wise FD discovery with candidate-set pruning (Huhtala et
//! al.; §2.3 and §6.3 of the paper).
//!
//! TANE traverses the attribute lattice bottom-up. For every node X of
//! level ℓ it maintains the candidate right-hand-side set C⁺(X); FDs
//! `X \ {A} → A` are validated with partition refinement (Lemma 1), and
//! three pruning rules shrink the search space: minimality pruning through
//! C⁺, deletion of nodes with empty C⁺, and *key pruning* — superkeys are
//! not extended, since no superset of a key can be a minimal left-hand
//! side. This is the non-holistic FD baseline the paper compares MUDS
//! against in Table 3.

use std::collections::HashMap;

use muds_lattice::{apriori_gen, first_level, ColumnSet, SetTrie};
use muds_pli::PliCache;

use crate::types::FdSet;

/// Discovered minimal left-hand sides per right-hand column, for the subset
/// look-ups of the key-pruning rule.
#[derive(Default)]
struct RhsTries(HashMap<usize, SetTrie>);

impl RhsTries {
    fn record(&mut self, lhs: ColumnSet, rhs: usize) {
        self.0.entry(rhs).or_default().insert(lhs);
    }

    /// True iff some recorded lhs for `rhs` is a subset of `x`.
    fn dominated(&self, x: &ColumnSet, rhs: usize) -> bool {
        self.0.get(&rhs).is_some_and(|t| t.contains_subset_of(x))
    }
}

/// Result of a TANE run.
#[derive(Debug, Clone)]
pub struct TaneResult {
    /// All minimal functional dependencies.
    pub fds: FdSet,
    /// Minimal UCCs encountered through key pruning (TANE visits every
    /// minimal key as a lattice node; recording them is free — the same
    /// observation Holistic FUN exploits).
    pub minimal_uccs: Vec<ColumnSet>,
}

/// Runs TANE over the table behind `cache`, discovering all minimal FDs.
///
/// Publishes `tane.fd_checks` (partition-refinement tests),
/// `tane.nodes_processed` (lattice nodes across all levels) and the
/// `tane.max_level` gauge into the ambient registry.
pub fn tane(cache: &mut PliCache<'_>) -> TaneResult {
    let n = cache.table().num_columns();
    let r = ColumnSet::full(n);
    let mut fds = FdSet::new();
    let mut tries = RhsTries::default();
    let mut minimal_uccs: Vec<ColumnSet> = Vec::new();
    let mut fd_checks = 0u64;
    let mut nodes_processed = 0u64;
    let mut max_level = 0usize;

    // C⁺(∅) = R.
    let mut cplus_prev: HashMap<ColumnSet, ColumnSet> = HashMap::new();
    cplus_prev.insert(ColumnSet::empty(), r);

    // The empty set is itself a key for degenerate (≤1 row) tables.
    if cache.is_unique(&ColumnSet::empty()) {
        minimal_uccs.push(ColumnSet::empty());
        // Every column is (vacuously) constant: ∅ → A for all A.
        for a in 0..n {
            fd_checks += 1;
            if cache.determines(&ColumnSet::empty(), a) {
                fds.insert(ColumnSet::empty(), a);
            }
        }
        publish(fd_checks, nodes_processed, max_level);
        return TaneResult { fds, minimal_uccs };
    }

    let mut level = first_level(&r);
    let mut depth = 1usize;
    while !level.is_empty() {
        max_level = depth;
        let mut cplus: HashMap<ColumnSet, ColumnSet> = HashMap::with_capacity(level.len());

        // COMPUTE_DEPENDENCIES. Each node's candidate rhs set is fixed on
        // entry (`X ∩ C⁺₀(X)` — the sequential loop iterates a snapshot
        // too), so the whole level's refinement checks form one batch whose
        // partition scans fan out across threads; verdicts are then applied
        // in node order, reproducing the sequential control flow exactly.
        let mut cplus0: Vec<ColumnSet> = Vec::with_capacity(level.len());
        let mut checks: Vec<(ColumnSet, usize)> = Vec::new();
        for &x in &level {
            nodes_processed += 1;
            // C⁺(X) = ∩_{A ∈ X} C⁺(X \ {A}); missing entries denote pruned
            // nodes and behave as the empty set.
            let mut cp = r;
            for a in x.iter() {
                match cplus_prev.get(&x.without(a)) {
                    Some(c) => cp = cp.intersection(c),
                    None => {
                        cp = ColumnSet::empty();
                        break;
                    }
                }
            }
            for a in x.intersection(&cp).iter() {
                checks.push((x.without(a), a));
            }
            cplus0.push(cp);
        }
        fd_checks += checks.len() as u64;
        let verdicts = cache.refines_many(&checks);
        let mut next_verdict = 0usize;
        for (&x, &cp0) in level.iter().zip(&cplus0) {
            let mut cp = cp0;
            for a in x.intersection(&cp0).iter() {
                let lhs = x.without(a);
                let holds = verdicts[next_verdict];
                next_verdict += 1;
                if holds {
                    fds.insert(lhs, a);
                    tries.record(lhs, a);
                    cp.remove(a);
                    cp = cp.difference(&r.difference(&x));
                }
            }
            cplus.insert(x, cp);
        }

        // PRUNE. Every unpruned node's uniqueness is needed regardless of
        // outcome, so the level's PLIs materialize as one parallel batch.
        let unpruned: Vec<ColumnSet> =
            level.iter().copied().filter(|x| !cplus[x].is_empty()).collect();
        let plis = cache.get_many(&unpruned);
        let mut survivors: Vec<ColumnSet> = Vec::with_capacity(level.len());
        for (&x, pli) in unpruned.iter().zip(&plis) {
            let cp = cplus[&x];
            if pli.is_unique() {
                // X is a key, so X → A is valid for every A ∉ X; it is
                // emitted when no smaller lhs for A exists. TANE phrases
                // this through C⁺ look-ups of sibling nodes
                // (`A ∈ ∩_{B∈X} C⁺(X∪{A}\{B})`), but those nodes may have
                // been pruned away together with their C⁺ entries; the
                // level-wise invariant — every minimal FD with a smaller
                // lhs is already discovered — lets us test minimality
                // exactly with a subset look-up instead.
                for a in cp.difference(&x).iter() {
                    if !tries.dominated(&x, a) {
                        fds.insert(x, a);
                        tries.record(x, a);
                    }
                }
                // Record the key; minimality is checked against previously
                // found keys (keys are discovered level by level, so any
                // subset key was found earlier).
                if !minimal_uccs.iter().any(|u| u.is_subset_of(&x)) {
                    minimal_uccs.push(x);
                }
                continue; // key pruning: do not extend
            }
            survivors.push(x);
        }

        level = apriori_gen(&survivors);
        cplus_prev = cplus;
        depth += 1;
    }

    minimal_uccs.sort();
    publish(fd_checks, nodes_processed, max_level);
    TaneResult { fds, minimal_uccs }
}

fn publish(fd_checks: u64, nodes_processed: u64, max_level: usize) {
    muds_obs::add("tane.fd_checks", fd_checks);
    muds_obs::add("tane.nodes_processed", nodes_processed);
    muds_obs::gauge_max("tane.max_level", max_level as i64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_minimal_fds;
    use muds_table::Table;
    use muds_ucc::naive_minimal_uccs;

    fn cs(cols: &[usize]) -> ColumnSet {
        ColumnSet::from_indices(cols.iter().copied())
    }

    fn check_table(t: &Table) {
        let mut cache = PliCache::new(t);
        let r = tane(&mut cache);
        assert_eq!(
            r.fds.to_sorted_vec(),
            naive_minimal_fds(t).to_sorted_vec(),
            "FDs differ on {}",
            t.name()
        );
        assert_eq!(r.minimal_uccs, naive_minimal_uccs(t), "UCCs differ on {}", t.name());
    }

    #[test]
    fn copy_and_constant_columns() {
        let t = Table::from_rows(
            "t",
            &["id", "copy", "k"],
            &[vec!["1", "1", "c"], vec!["2", "2", "c"], vec!["3", "3", "c"]],
        )
        .unwrap();
        let mut cache = PliCache::new(&t);
        let r = tane(&mut cache);
        assert!(r.fds.contains(&ColumnSet::empty(), 2));
        assert!(r.fds.contains(&cs(&[0]), 1));
        assert!(r.fds.contains(&cs(&[1]), 0));
        assert_eq!(r.minimal_uccs, vec![cs(&[0]), cs(&[1])]);
        check_table(&t);
    }

    #[test]
    fn xor_table_needs_composite_lhs() {
        let t = Table::from_rows(
            "t",
            &["a", "b", "c"],
            &[vec!["0", "0", "0"], vec!["0", "1", "1"], vec!["1", "0", "1"], vec!["1", "1", "0"]],
        )
        .unwrap();
        check_table(&t);
    }

    #[test]
    fn single_row_table() {
        let t = Table::from_rows("t", &["a", "b"], &[vec!["1", "2"]]).unwrap();
        let mut cache = PliCache::new(&t);
        let r = tane(&mut cache);
        assert!(r.fds.contains(&ColumnSet::empty(), 0));
        assert!(r.fds.contains(&ColumnSet::empty(), 1));
        assert_eq!(r.minimal_uccs, vec![ColumnSet::empty()]);
    }

    #[test]
    fn no_fds_on_independent_columns() {
        // Full cross product: no non-trivial FDs.
        let t = Table::from_rows(
            "t",
            &["a", "b"],
            &[vec!["0", "0"], vec!["0", "1"], vec!["1", "0"], vec!["1", "1"]],
        )
        .unwrap();
        let mut cache = PliCache::new(&t);
        let r = tane(&mut cache);
        assert!(r.fds.is_empty());
        assert_eq!(r.minimal_uccs, vec![cs(&[0, 1])]);
    }

    #[test]
    fn randomized_cross_check_with_naive() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(404);
        for case in 0..150 {
            let cols = rng.gen_range(1..=6);
            let rows = rng.gen_range(1..=25);
            let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
            let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let data: Vec<Vec<String>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.gen_range(0..3).to_string()).collect())
                .collect();
            let t = Table::from_rows("t", &name_refs, &data).unwrap().dedup_rows();
            let _ = case;
            check_table(&t);
        }
    }

    #[test]
    fn counters_publish_into_ambient_registry() {
        let metrics = muds_obs::Metrics::new();
        let _guard = metrics.install();
        let t = Table::from_rows(
            "t",
            &["a", "b", "c"],
            &[vec!["0", "0", "0"], vec!["0", "1", "1"], vec!["1", "0", "1"], vec!["1", "1", "0"]],
        )
        .unwrap();
        let _ = tane(&mut PliCache::new(&t));
        let snap = metrics.drain_snapshot();
        // Every TANE check is a real (non-trivial) refinement check.
        assert!(snap.counter("tane.fd_checks") > 0);
        assert_eq!(snap.counter("tane.fd_checks"), snap.counter("pli.refinement_checks"));
        // Three singletons and three pairs; every pair is a key.
        assert_eq!(snap.counter("tane.nodes_processed"), 6);
        assert_eq!(snap.gauge("tane.max_level"), 2);
    }

    #[test]
    fn key_fds_are_emitted() {
        // id is a key; id → every other column, minimally.
        let t = Table::from_rows(
            "t",
            &["id", "x", "y"],
            &[vec!["1", "a", "p"], vec!["2", "a", "q"], vec!["3", "b", "p"]],
        )
        .unwrap();
        let mut cache = PliCache::new(&t);
        let r = tane(&mut cache);
        assert!(r.fds.contains(&cs(&[0]), 1));
        assert!(r.fds.contains(&cs(&[0]), 2));
        check_table(&t);
    }
}
