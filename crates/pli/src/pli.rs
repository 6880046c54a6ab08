//! Position list indexes (PLIs), also known as stripped partitions.
//!
//! A PLI for a column combination X lists, per distinct value of the
//! projection on X, the set of row ids sharing that value — keeping only
//! clusters of size ≥ 2 ("stripped", §2.2 of the paper). PLIs answer the
//! two questions every UCC/FD algorithm asks:
//!
//! * **uniqueness**: X is a UCC iff its stripped PLI is empty;
//! * **refinement** (Lemma 1): X → A iff every PLI cluster of X agrees on
//!   the value of A, equivalently `|X| = |X ∪ {A}|` in distinct counts.
//!
//! PLIs of larger combinations are built by pairwise intersection
//! (`π_{XY} = π_X ∩ π_Y`), the dominant runtime cost of all partition-based
//! profiling algorithms — which is why the holistic algorithms of the paper
//! share them across tasks via `PliCache`.

use muds_table::Column;

/// Row identifier within a table.
pub type RowId = u32;

/// A stripped partition: clusters of row ids with equal values, singletons
/// removed.
///
/// Clusters are kept in *canonical order*: row ids ascending within each
/// cluster, clusters ordered by their first (= smallest) row id. Since
/// clusters are disjoint, this order is unique, so two PLIs describing the
/// same partition compare equal under `PartialEq` no matter how they were
/// built — construction path, operand order of [`Pli::intersect`], hash-map
/// iteration history, or thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pli {
    clusters: Vec<Vec<RowId>>,
    num_rows: usize,
    /// Sum of cluster sizes (cached).
    size: usize,
}

impl Pli {
    /// Builds the PLI of a single dictionary-encoded column.
    pub fn from_column(column: &Column) -> Pli {
        Self::from_codes(column.codes(), column.code_domain())
    }

    /// Builds a PLI by bucketing `codes`; `code_domain` bounds the code
    /// values (codes must be `< code_domain`).
    pub fn from_codes(codes: &[u32], code_domain: usize) -> Pli {
        let mut buckets: Vec<Vec<RowId>> = vec![Vec::new(); code_domain];
        for (row, &code) in codes.iter().enumerate() {
            buckets[code as usize].push(row as RowId);
        }
        // Buckets fill in row order (rows ascending within each cluster),
        // but bucket order is code order; sort by first row to canonicalize.
        let mut clusters: Vec<Vec<RowId>> = buckets.into_iter().filter(|b| b.len() >= 2).collect();
        // lint:allow(panic): clusters were just filtered to len() >= 2.
        clusters.sort_unstable_by_key(|c| c[0]);
        let size = clusters.iter().map(|c| c.len()).sum();
        Pli { clusters, num_rows: codes.len(), size }
    }

    /// The PLI of the empty column combination: every row agrees with every
    /// other, so all rows form one cluster (stripped away when the table has
    /// fewer than two rows). Needed for `∅ → A` checks on constant columns.
    pub fn empty_set(num_rows: usize) -> Pli {
        if num_rows < 2 {
            return Pli { clusters: Vec::new(), num_rows, size: 0 };
        }
        let all: Vec<RowId> = (0..num_rows as RowId).collect();
        Pli { clusters: vec![all], num_rows, size: num_rows }
    }

    /// Constructs a PLI from explicit clusters (test/support use). Clusters
    /// of size < 2 are stripped, and the input is normalized to canonical
    /// order; rows must be unique and `< num_rows`.
    pub fn from_clusters(clusters: Vec<Vec<RowId>>, num_rows: usize) -> Pli {
        let mut clusters: Vec<Vec<RowId>> = clusters.into_iter().filter(|c| c.len() >= 2).collect();
        debug_assert!(clusters.iter().flatten().all(|&r| (r as usize) < num_rows));
        for cluster in &mut clusters {
            cluster.sort_unstable();
        }
        // lint:allow(panic): from_clusters rejects clusters shorter than 2
        // entries via the debug_assert contract above; stripped clusters
        // are never empty.
        clusters.sort_unstable_by_key(|c| c[0]);
        let size = clusters.iter().map(|c| c.len()).sum();
        Pli { clusters, num_rows, size }
    }

    /// The stripped clusters.
    pub fn clusters(&self) -> &[Vec<RowId>] {
        &self.clusters
    }

    /// Number of rows of the underlying table.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Sum of cluster sizes (rows appearing in some duplicate group).
    pub fn size(&self) -> usize {
        self.size
    }

    /// True iff the column combination has no duplicate projections — i.e.
    /// it is a unique column combination.
    pub fn is_unique(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Number of distinct values of the projection:
    /// `num_rows - size + cluster_count`.
    pub fn distinct_count(&self) -> usize {
        self.num_rows - self.size + self.clusters.len()
    }

    /// The probe vector: `probe[row] = cluster index + 1`, or 0 for rows not
    /// in any cluster. Used for intersection and refinement checks.
    pub fn probe_vector(&self) -> Vec<u32> {
        let mut probe = vec![0u32; self.num_rows];
        for (i, cluster) in self.clusters.iter().enumerate() {
            for &row in cluster {
                probe[row as usize] = (i + 1) as u32;
            }
        }
        probe
    }

    /// Intersects two stripped partitions: the PLI of the union of the two
    /// column combinations. Linear in `self.size() + other.size()`.
    pub fn intersect(&self, other: &Pli) -> Pli {
        assert_eq!(self.num_rows, other.num_rows, "PLIs over different tables");
        // Iterate the smaller partition and probe the larger.
        let (small, large) = if self.size <= other.size { (self, other) } else { (other, self) };
        let probe = large.probe_vector();
        let mut clusters: Vec<Vec<RowId>> = Vec::new();
        let mut groups: std::collections::HashMap<u32, Vec<RowId>> =
            std::collections::HashMap::new();
        for cluster in &small.clusters {
            groups.clear();
            for &row in cluster {
                let p = probe[row as usize];
                if p != 0 {
                    groups.entry(p).or_default().push(row);
                }
            }
            // lint:allow(hash-order): drain order only permutes the
            // intermediate clusters vec, which is canonicalized by the
            // sort-by-first-row below before the Pli is built; covered by
            // the tests/determinism.rs matrix.
            for (_, rows) in groups.drain() {
                if rows.len() >= 2 {
                    clusters.push(rows);
                }
            }
        }
        // `groups.drain()` yields in arbitrary (hash) order; restore the
        // canonical order. Rows within each group were pushed in small-
        // cluster order, which is ascending by the canonical-order
        // invariant, so sorting by first row id fully canonicalizes —
        // making the result independent of operand order (which operand
        // played "small") and of hash-map history.
        // lint:allow(panic): intersection emits only clusters with >= 2
        // rows, so every cluster has a first element.
        clusters.sort_unstable_by_key(|c| c[0]);
        let size = clusters.iter().map(|c| c.len()).sum();
        Pli { clusters, num_rows: self.num_rows, size }
    }

    /// Incrementally extends this PLI across an append: `self` is the PLI
    /// of the first `num_rows` entries of `codes`, the result is the PLI of
    /// all of `codes`. Code *labels* may have been remapped by a dictionary
    /// merge — cluster membership is row-id based, so remapping is free —
    /// but the prefix rows' partition must be unchanged, which is exactly
    /// what `Table::apply_delta` guarantees for an append.
    ///
    /// Cost: O(appended + clusters), plus one O(rows) scan for singleton
    /// partners only when an appended value collides with a previously
    /// unique row — cheaper than re-bucketing the column whenever appends
    /// are small relative to the table.
    pub fn apply_append(&self, codes: &[u32]) -> Pli {
        let old_n = self.num_rows;
        debug_assert!(codes.len() >= old_n, "append cannot shrink the table");
        let mut clusters = self.clusters.clone();
        // lint:allow(hash-order): cluster/pending maps only route appended
        // rows to their cluster; the result is canonicalized by the
        // sort-by-first-row below.
        // lint:allow(panic): stripped clusters always hold at least two rows.
        let mut by_code: std::collections::HashMap<u32, usize> =
            clusters.iter().enumerate().map(|(i, c)| (codes[c[0] as usize], i)).collect();
        let mut pending: std::collections::HashMap<u32, Vec<RowId>> =
            std::collections::HashMap::new();
        for (row, &code) in codes.iter().enumerate().skip(old_n) {
            match by_code.get(&code) {
                // Appended ids exceed all old ids and arrive ascending, so
                // pushing keeps clusters in canonical ascending order.
                Some(&i) => clusters[i].push(row as RowId),
                None => pending.entry(code).or_default().push(row as RowId),
            }
        }
        if !pending.is_empty() {
            // Some appended value matched no existing cluster: it either
            // pairs up with a previously unique old row or forms a cluster
            // of appended rows only. One pass recovers the old singletons.
            let probe = self.probe_vector();
            let mut partner: std::collections::HashMap<u32, RowId> =
                std::collections::HashMap::new();
            for (row, &code) in codes.iter().enumerate().take(old_n) {
                if probe[row] == 0 && pending.contains_key(&code) {
                    partner.insert(code, row as RowId);
                }
            }
            // lint:allow(hash-order): drain order only picks provisional
            // cluster indexes; the sort-by-first-row below canonicalizes.
            for (code, mut rows) in pending.drain() {
                if let Some(&first) = partner.get(&code) {
                    rows.insert(0, first);
                }
                if rows.len() >= 2 {
                    let i = clusters.len();
                    clusters.push(rows);
                    by_code.insert(code, i);
                }
            }
        }
        // lint:allow(panic): every cluster holds at least two rows.
        clusters.sort_unstable_by_key(|c| c[0]);
        let size = clusters.iter().map(|c| c.len()).sum();
        Pli { clusters, num_rows: codes.len(), size }
    }

    /// Approximate heap footprint of this PLI in bytes: row-id payload
    /// plus per-cluster `Vec` headers. Used by `PliCache`'s byte budget —
    /// an accounting estimate (allocator slack ignored), not an exact
    /// measurement.
    pub fn estimated_bytes(&self) -> usize {
        self.size * std::mem::size_of::<RowId>()
            + self.clusters.len() * std::mem::size_of::<Vec<RowId>>()
            + std::mem::size_of::<Pli>()
    }

    /// Partition-refinement FD check (Lemma 1): true iff the column with
    /// per-row `codes` is constant within every cluster — i.e. the
    /// combination this PLI represents functionally determines that column.
    ///
    /// Strictly cheaper than building the intersected PLI: it short-circuits
    /// on the first violating cluster.
    pub fn refines(&self, codes: &[u32]) -> bool {
        debug_assert_eq!(codes.len(), self.num_rows);
        for cluster in &self.clusters {
            // lint:allow(panic): PLI clusters always hold >= 2 rows.
            let first = codes[cluster[0] as usize];
            if cluster[1..].iter().any(|&r| codes[r as usize] != first) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muds_table::Column;

    fn col(values: &[&str]) -> Column {
        Column::from_values("c", values)
    }

    #[test]
    fn from_column_strips_singletons() {
        let p = Pli::from_column(&col(&["a", "b", "a", "c", "b"]));
        assert_eq!(p.cluster_count(), 2);
        assert_eq!(p.size(), 4);
        assert_eq!(p.num_rows(), 5);
        assert_eq!(p.distinct_count(), 3);
        assert!(!p.is_unique());
        // Canonical order: no re-sorting needed to compare.
        assert_eq!(p.clusters(), &[vec![0, 2], vec![1, 4]]);
    }

    #[test]
    fn unique_column_has_empty_pli() {
        let p = Pli::from_column(&col(&["a", "b", "c"]));
        assert!(p.is_unique());
        assert_eq!(p.distinct_count(), 3);
        assert_eq!(p.size(), 0);
    }

    #[test]
    fn nulls_form_a_cluster() {
        let p = Pli::from_column(&col(&["", "", "x"]));
        assert_eq!(p.cluster_count(), 1);
        assert_eq!(p.clusters()[0], vec![0, 1]);
    }

    #[test]
    fn empty_set_pli() {
        let p = Pli::empty_set(4);
        assert_eq!(p.cluster_count(), 1);
        assert_eq!(p.distinct_count(), 1);
        let p1 = Pli::empty_set(1);
        assert!(p1.is_unique());
        assert_eq!(p1.distinct_count(), 1); // 1 - 0 + 0
        let p0 = Pli::empty_set(0);
        assert_eq!(p0.distinct_count(), 0);
    }

    #[test]
    fn intersect_matches_combined_column() {
        // Column X: a a b b ; Column Y: p q p p
        // Combined XY: (a,p) (a,q) (b,p) (b,p) → one cluster {2,3}.
        let x = Pli::from_column(&col(&["a", "a", "b", "b"]));
        let y = Pli::from_column(&col(&["p", "q", "p", "p"]));
        let xy = x.intersect(&y);
        assert_eq!(xy.cluster_count(), 1);
        assert_eq!(xy.clusters()[0], vec![2, 3]);
        assert_eq!(xy.distinct_count(), 3);
    }

    #[test]
    fn intersect_is_commutative() {
        // Canonical cluster order makes intersection results directly
        // comparable: no per-cluster or per-list re-sorting. (The two
        // operand orders exercise both "small"/"large" role assignments.)
        let x = Pli::from_column(&col(&["a", "a", "b", "b", "a", "c"]));
        let y = Pli::from_column(&col(&["p", "q", "p", "p", "p", "q"]));
        assert_eq!(x.intersect(&y), y.intersect(&x));
    }

    #[test]
    fn clusters_are_in_canonical_order() {
        // Dictionary order differs from first-row order: "z" rows come
        // first positionally but sort last by code.
        let p = Pli::from_column(&col(&["z", "a", "z", "a"]));
        assert_eq!(p.clusters(), &[vec![0, 2], vec![1, 3]]);
        // Intersections preserve the canonical order too.
        let q = Pli::from_column(&col(&["k", "k", "k", "k"]));
        assert_eq!(p.intersect(&q).clusters(), &[vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn intersect_is_deterministic_across_repetitions() {
        // Many clusters per operand so a hash-order regression would have
        // plenty of chances to show: every repetition must match exactly.
        let xs: Vec<String> = (0..200).map(|i| format!("x{}", i % 20)).collect();
        let ys: Vec<String> = (0..200).map(|i| format!("y{}", i % 31)).collect();
        let x = Pli::from_column(&Column::from_values(
            "x",
            &xs.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        ));
        let y = Pli::from_column(&Column::from_values(
            "y",
            &ys.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        ));
        let first = x.intersect(&y);
        for _ in 0..10 {
            assert_eq!(x.intersect(&y), first);
            assert_eq!(y.intersect(&x), first);
        }
    }

    #[test]
    fn from_clusters_normalizes_to_canonical_order() {
        let p = Pli::from_clusters(vec![vec![5, 3], vec![2, 0, 4]], 6);
        assert_eq!(p.clusters(), &[vec![0, 2, 4], vec![3, 5]]);
    }

    #[test]
    fn intersect_with_empty_set_pli_is_identity() {
        let x = Pli::from_column(&col(&["a", "a", "b", "b"]));
        let e = Pli::empty_set(4);
        let r = x.intersect(&e);
        assert_eq!(r.distinct_count(), x.distinct_count());
        assert_eq!(r.cluster_count(), x.cluster_count());
    }

    #[test]
    fn intersect_with_unique_is_unique() {
        let x = Pli::from_column(&col(&["a", "a", "b"]));
        let u = Pli::from_column(&col(&["1", "2", "3"]));
        assert!(x.intersect(&u).is_unique());
    }

    #[test]
    #[should_panic(expected = "different tables")]
    fn intersect_rejects_mismatched_row_counts() {
        let a = Pli::empty_set(3);
        let b = Pli::empty_set(4);
        let _ = a.intersect(&b);
    }

    #[test]
    fn refines_detects_fd() {
        // X: a a b b determines Y: p p q q but not Z: p q p q.
        let x = Pli::from_column(&col(&["a", "a", "b", "b"]));
        let y = col(&["p", "p", "q", "q"]);
        let z = col(&["p", "q", "p", "q"]);
        assert!(x.refines(y.codes()));
        assert!(!x.refines(z.codes()));
    }

    #[test]
    fn refines_agrees_with_cardinality_criterion() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let n = rng.gen_range(1..30);
            let xs: Vec<String> = (0..n).map(|_| rng.gen_range(0..4).to_string()).collect();
            let ys: Vec<String> = (0..n).map(|_| rng.gen_range(0..3).to_string()).collect();
            let xcol = Column::from_values("x", &xs.iter().map(|s| s.as_str()).collect::<Vec<_>>());
            let ycol = Column::from_values("y", &ys.iter().map(|s| s.as_str()).collect::<Vec<_>>());
            let px = Pli::from_column(&xcol);
            let py = Pli::from_column(&ycol);
            let lemma1 = px.distinct_count() == px.intersect(&py).distinct_count();
            assert_eq!(px.refines(ycol.codes()), lemma1);
        }
    }

    #[test]
    fn empty_set_pli_refines_only_constants() {
        let e = Pli::empty_set(3);
        assert!(e.refines(col(&["k", "k", "k"]).codes()));
        assert!(!e.refines(col(&["k", "k", "j"]).codes()));
    }

    #[test]
    fn probe_vector_marks_cluster_membership() {
        let p = Pli::from_column(&col(&["a", "b", "a", "c"]));
        let probe = p.probe_vector();
        assert_eq!(probe[0], probe[2]);
        assert_ne!(probe[0], 0);
        assert_eq!(probe[1], 0);
        assert_eq!(probe[3], 0);
    }

    #[test]
    fn apply_append_joins_existing_clusters() {
        let old = col(&["a", "b", "a"]);
        let new = col(&["a", "b", "a", "a", "c"]);
        let p = Pli::from_column(&old).apply_append(new.codes());
        assert_eq!(p, Pli::from_column(&new));
        assert_eq!(p.clusters(), &[vec![0, 2, 3]]);
    }

    #[test]
    fn apply_append_pairs_with_old_singleton() {
        let old = col(&["a", "b", "c"]);
        let new = col(&["a", "b", "c", "b"]);
        let p = Pli::from_column(&old).apply_append(new.codes());
        assert_eq!(p, Pli::from_column(&new));
        assert_eq!(p.clusters(), &[vec![1, 3]]);
    }

    #[test]
    fn apply_append_clusters_of_new_rows_only() {
        let old = col(&["a"]);
        let new = col(&["a", "z", "z"]);
        let p = Pli::from_column(&old).apply_append(new.codes());
        assert_eq!(p, Pli::from_column(&new));
        assert_eq!(p.clusters(), &[vec![1, 2]]);
    }

    #[test]
    fn apply_append_handles_remapped_codes() {
        // Appending "a" to ["b", "c", "b"] shifts every old code up by
        // one; the cluster {0,2} must survive the remap untouched.
        let old = col(&["b", "c", "b"]);
        let new = col(&["b", "c", "b", "a"]);
        let p = Pli::from_column(&old).apply_append(new.codes());
        assert_eq!(p, Pli::from_column(&new));
    }

    #[test]
    fn random_appends_match_from_codes() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let n = rng.gen_range(0..30);
            let extra = rng.gen_range(0..8);
            let all: Vec<String> =
                (0..n + extra).map(|_| rng.gen_range(0..6).to_string()).collect();
            let old_col =
                Column::from_values("c", &all[..n].iter().map(|s| s.as_str()).collect::<Vec<_>>());
            let new_col =
                Column::from_values("c", &all.iter().map(|s| s.as_str()).collect::<Vec<_>>());
            // The prefix partition is unchanged by appends, but the code
            // labels differ between old_col and new_col — exactly the
            // remap situation apply_append must tolerate.
            let appended = Pli::from_column(&old_col).apply_append(new_col.codes());
            assert_eq!(appended, Pli::from_column(&new_col));
        }
    }

    #[test]
    fn from_clusters_strips_small() {
        let p = Pli::from_clusters(vec![vec![0, 1], vec![2], vec![]], 3);
        assert_eq!(p.cluster_count(), 1);
    }
}
