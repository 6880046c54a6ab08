//! FUN: FD discovery over free sets with cardinality inference (Novelli &
//! Cicchetti; §2.3 of the paper).
//!
//! FUN traverses only the *free sets* — column combinations X with
//! `|X'| < |X|` for every proper subset X' (Definition 1 of the paper).
//! Free sets are downward closed, so a level-wise apriori traversal
//! enumerates them exactly. Minimal FD left-hand sides are always free
//! sets; validity is decided by the cardinality criterion of Lemma 1
//! (`X → A ⇔ |X| = |X ∪ {A}|`).
//!
//! FUN's edge over TANE is that it intersects PLIs only for apriori
//! candidates (sets whose direct subsets are all free); the cardinality of
//! any other (necessarily non-free) set is *inferred* with a recursive
//! look-up: a non-free set has the same cardinality as its
//! largest-cardinality direct subset. This module implements that
//! inference with memoization.
//!
//! **Holistic FUN** (§3.2) falls out for free: every minimal UCC is a free
//! set (Lemma 3), and a free set is a minimal UCC exactly when its
//! cardinality reaches the row count — so minimal UCCs are recorded during
//! the traversal at zero extra cost. This is what [`FunResult::minimal_uccs`]
//! returns.

use std::collections::HashMap;

use muds_lattice::{apriori_gen, ColumnSet, ColumnSetState};
use muds_pli::PliCache;

use crate::types::FdSet;

/// Result of a FUN run.
#[derive(Debug, Clone)]
pub struct FunResult {
    /// All minimal functional dependencies.
    pub fds: FdSet,
    /// All minimal UCCs (the Holistic FUN byproduct, §3.2).
    pub minimal_uccs: Vec<ColumnSet>,
}

struct Fun<'a, 'b> {
    cache: &'a mut PliCache<'b>,
    /// Known cardinalities: free sets, apriori candidates, and inferred
    /// non-free sets.
    card: HashMap<ColumnSet, usize, ColumnSetState>,
    /// Cardinalities obtained by recursive inference instead of a PLI
    /// intersection — FUN's saving over TANE.
    cards_inferred: u64,
}

impl Fun<'_, '_> {
    /// Cardinality of `set`, inferring it when it was never materialized.
    ///
    /// Only sound for sets that are free-with-known-card or non-free: a set
    /// absent from `card` is guaranteed non-free (free sets are always
    /// generated as candidates), and a non-free set has the cardinality of
    /// its largest direct subset.
    fn cardinality(&mut self, set: &ColumnSet) -> usize {
        if let Some(&c) = self.card.get(set) {
            return c;
        }
        self.cards_inferred += 1;
        // lint:allow(panic): direct_subsets() of a non-empty set is
        // non-empty, and the empty set's cardinality is seeded at
        // construction, so recursion never reaches an empty iterator.
        let max = set
            .direct_subsets()
            .map(|s| self.cardinality(&s))
            .max()
            .expect("inference never reaches the empty set: its card is seeded");
        self.card.insert(*set, max);
        max
    }
}

/// Runs FUN over the table behind `cache`, discovering all minimal FDs and
/// (as the holistic byproduct) all minimal UCCs.
///
/// Publishes `fun.cards_computed` (cardinalities read from a PLI),
/// `fun.cards_inferred`, `fun.free_sets` (free sets traversed) and the
/// `fun.max_level` gauge into the ambient registry.
pub fn fun(cache: &mut PliCache<'_>) -> FunResult {
    let table_rows = cache.table().num_rows();
    let n = cache.table().num_columns();
    let r = ColumnSet::full(n);
    let mut fun = Fun { cache, card: HashMap::default(), cards_inferred: 0 };
    let mut cards_computed = 0u64;
    let mut free_sets = 0u64;
    let mut max_level = 0usize;
    let mut fds = FdSet::new();
    let mut minimal_uccs: Vec<ColumnSet> = Vec::new();

    // Level 0: the empty set, with one distinct value (zero for an empty
    // table).
    let empty_card = usize::min(1, table_rows);
    fun.card.insert(ColumnSet::empty(), empty_card);
    let mut free_level: Vec<ColumnSet> = vec![ColumnSet::empty()];
    let mut depth = 0usize;

    loop {
        // Generate and materialize the next level's candidates.
        let expandable: Vec<ColumnSet> = free_level
            .iter()
            .copied()
            .filter(|x| fun.card[x] < table_rows) // key pruning: do not extend unique sets
            .collect();
        let candidates: Vec<ColumnSet> = if depth == 0 {
            if expandable.is_empty() {
                Vec::new()
            } else {
                (0..n).map(ColumnSet::single).collect()
            }
        } else {
            apriori_gen(&expandable)
        };
        // Candidate PLIs are independent intersections; materialize the
        // level as one parallel batch and read the cardinalities in
        // candidate order (identical bookkeeping to per-candidate gets).
        let candidate_plis = fun.cache.get_many(&candidates);
        for (c, pli) in candidates.iter().zip(&candidate_plis) {
            cards_computed += 1;
            fun.card.insert(*c, pli.distinct_count());
        }

        // Emit FDs for the current level's free sets. X → A holds iff
        // |X ∪ {A}| = |X|; it is minimal iff no direct subset X' of X also
        // satisfies |X' ∪ {A}| = |X'| (subsets of free sets are free with
        // known cardinality).
        for &x in &free_level {
            free_sets += 1;
            let card_x = fun.card[&x];
            if card_x == table_rows {
                minimal_uccs.push(x); // Lemma 3: unique free sets are minimal UCCs
            }
            'rhs: for a in r.difference(&x).iter() {
                if fun.cardinality(&x.with(a)) != card_x {
                    continue;
                }
                for x_sub in x.direct_subsets() {
                    let card_sub = fun.card[&x_sub];
                    if fun.cardinality(&x_sub.with(a)) == card_sub {
                        continue 'rhs; // a subset already determines A
                    }
                }
                fds.insert(x, a);
            }
        }

        if candidates.is_empty() {
            break;
        }

        // Classify candidates: free iff strictly larger than every direct
        // subset (all of which are free sets with known cardinality).
        let next_free: Vec<ColumnSet> = candidates
            .into_iter()
            .filter(|y| {
                let c = fun.card[y];
                y.direct_subsets().all(|s| fun.card[&s] < c)
            })
            .collect();
        depth += 1;
        max_level = depth;
        free_level = next_free;
        if free_level.is_empty() {
            break;
        }
    }

    minimal_uccs.sort();
    muds_obs::add("fun.cards_computed", cards_computed);
    muds_obs::add("fun.cards_inferred", fun.cards_inferred);
    muds_obs::add("fun.free_sets", free_sets);
    muds_obs::gauge_max("fun.max_level", max_level as i64);
    FunResult { fds, minimal_uccs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_minimal_fds;
    use crate::tane::tane;
    use muds_table::Table;
    use muds_ucc::naive_minimal_uccs;

    fn cs(cols: &[usize]) -> ColumnSet {
        ColumnSet::from_indices(cols.iter().copied())
    }

    fn check_table(t: &Table) {
        let mut cache = PliCache::new(t);
        let r = fun(&mut cache);
        assert_eq!(
            r.fds.to_sorted_vec(),
            naive_minimal_fds(t).to_sorted_vec(),
            "FDs differ on {}",
            t.name()
        );
        assert_eq!(r.minimal_uccs, naive_minimal_uccs(t), "UCCs differ on {}", t.name());
    }

    #[test]
    fn copy_constant_and_key() {
        let t = Table::from_rows(
            "t",
            &["id", "copy", "k"],
            &[vec!["1", "1", "c"], vec!["2", "2", "c"], vec!["3", "3", "c"]],
        )
        .unwrap();
        check_table(&t);
    }

    #[test]
    fn xor_table() {
        let t = Table::from_rows(
            "t",
            &["a", "b", "c"],
            &[vec!["0", "0", "0"], vec!["0", "1", "1"], vec!["1", "0", "1"], vec!["1", "1", "0"]],
        )
        .unwrap();
        check_table(&t);
    }

    #[test]
    fn degenerate_tables() {
        let t = Table::from_rows("t", &["a", "b"], &[vec!["1", "2"]]).unwrap();
        check_table(&t);
        let rows: Vec<Vec<&str>> = vec![];
        let t = Table::from_rows("t", &["a", "b"], &rows).unwrap();
        check_table(&t);
    }

    #[test]
    fn inference_actually_fires() {
        // id → x means {id, x} is non-free; looking up |{id,x,y}| then
        // requires inference.
        let t = Table::from_rows(
            "t",
            &["id", "x", "y"],
            &[vec!["1", "a", "p"], vec!["2", "a", "q"], vec!["3", "b", "p"], vec!["4", "b", "q"]],
        )
        .unwrap();
        let metrics = muds_obs::Metrics::new();
        let _guard = metrics.install();
        let mut cache = PliCache::new(&t);
        let _ = fun(&mut cache);
        let snap = metrics.drain_snapshot();
        assert!(
            snap.counter("fun.cards_inferred") > 0,
            "expected inference on pruned non-free sets"
        );
        assert!(snap.counter("fun.cards_computed") > 0);
        check_table(&t);
    }

    #[test]
    fn randomized_cross_check_with_naive_and_tane() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(808);
        for case in 0..150 {
            let cols = rng.gen_range(1..=6);
            let rows = rng.gen_range(1..=25);
            let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
            let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let data: Vec<Vec<String>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.gen_range(0..3).to_string()).collect())
                .collect();
            let t = Table::from_rows("t", &name_refs, &data).unwrap().dedup_rows();
            check_table(&t);
            // FUN and TANE agree on everything, including captured UCCs.
            let mut c1 = PliCache::new(&t);
            let mut c2 = PliCache::new(&t);
            let rf = fun(&mut c1);
            let rt = tane(&mut c2);
            assert_eq!(rf.fds, rt.fds, "case {case}");
            assert_eq!(rf.minimal_uccs, rt.minimal_uccs, "case {case}");
        }
    }

    #[test]
    fn fun_uses_fewer_pli_builds_than_tane_on_fd_rich_data() {
        // Many FDs → many non-free sets → inference pays off.
        let rows: Vec<Vec<String>> = (0..64)
            .map(|i| {
                vec![
                    i.to_string(),           // key
                    (i % 8).to_string(),     // g
                    (i % 8 / 2).to_string(), // determined by g
                    (i % 2).to_string(),     // determined by g
                ]
            })
            .collect();
        let t = Table::from_rows("t", &["id", "g", "h", "p"], &rows).unwrap();
        let run = |algorithm: fn(&mut PliCache<'_>) -> FdSet| {
            let metrics = muds_obs::Metrics::new();
            let _guard = metrics.install();
            let fds = algorithm(&mut PliCache::new(&t));
            (fds, metrics.drain_snapshot().counter("pli.intersects"))
        };
        let (fun_fds, fun_intersects) = run(|cache| fun(cache).fds);
        let (tane_fds, tane_intersects) = run(|cache| tane(cache).fds);
        assert_eq!(fun_fds, tane_fds);
        assert!(fun_intersects > 0);
        assert!(
            fun_intersects <= tane_intersects,
            "FUN should not intersect more than TANE ({fun_intersects} vs {tane_intersects})"
        );
    }

    #[test]
    fn ucc_capture_matches_semantics() {
        let t = Table::from_rows(
            "t",
            &["a", "b", "c"],
            &[vec!["1", "1", "1"], vec!["1", "2", "1"], vec!["2", "1", "1"], vec!["2", "2", "2"]],
        )
        .unwrap();
        let mut cache = PliCache::new(&t);
        let r = fun(&mut cache);
        assert_eq!(r.minimal_uccs, naive_minimal_uccs(&t));
        let _ = cs(&[0]);
    }
}
