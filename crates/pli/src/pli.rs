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
//! share them across tasks via `PliCache`. When one operand is a single
//! column, [`Pli::refine_by`] splits the other's clusters by that column's
//! codes directly, which is how the cache builds every PLI it misses.

use std::cell::RefCell;
use std::collections::HashMap;

use muds_table::Column;

/// Row identifier within a table.
pub type RowId = u32;

/// A stripped partition: clusters of row ids with equal values, singletons
/// removed.
///
/// Stored flat (CSR): cluster `i` is `rows[offsets[i]..offsets[i + 1]]`,
/// so a PLI is two allocations however many clusters it has.
///
/// Clusters are kept in *canonical order*: row ids ascending within each
/// cluster, clusters ordered by their first (= smallest) row id. Since
/// clusters are disjoint, this order is unique, so two PLIs describing the
/// same partition compare equal under `PartialEq` no matter how they were
/// built — construction path, operand order of [`Pli::intersect`], or
/// thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pli {
    /// Cluster boundaries into `rows`: starts at 0, one entry per cluster
    /// plus the final end (`rows.len()`).
    offsets: Vec<u32>,
    /// The clustered row ids, cluster after cluster.
    rows: Vec<RowId>,
    num_rows: usize,
}

impl Pli {
    /// Builds the PLI of a single dictionary-encoded column.
    pub fn from_column(column: &Column) -> Pli {
        Self::from_codes(column.codes(), column.code_domain())
    }

    /// Builds a PLI by bucketing `codes`; `code_domain` bounds the code
    /// values (codes must be `< code_domain`).
    pub fn from_codes(codes: &[u32], code_domain: usize) -> Pli {
        let mut count = vec![0u32; code_domain];
        for &code in codes {
            count[code as usize] += 1;
        }
        // Number the clusters in the order the scan meets their first row:
        // that is canonical order, and rows land ascending in each cluster.
        let mut next = vec![UNSEEN; code_domain];
        let mut offsets = vec![0u32];
        let mut end = 0u32;
        let total: u32 = count.iter().filter(|&&c| c >= 2).sum();
        let mut rows = vec![0 as RowId; total as usize];
        for (row, &code) in codes.iter().enumerate() {
            let c = code as usize;
            if count[c] < 2 {
                continue;
            }
            if next[c] == UNSEEN {
                next[c] = end;
                end += count[c];
                offsets.push(end);
            }
            rows[next[c] as usize] = row as RowId;
            next[c] += 1;
        }
        Pli { offsets, rows, num_rows: codes.len() }
    }

    /// The PLI of the empty column combination: every row agrees with every
    /// other, so all rows form one cluster (stripped away when the table has
    /// fewer than two rows). Needed for `∅ → A` checks on constant columns.
    pub fn empty_set(num_rows: usize) -> Pli {
        if num_rows < 2 {
            return Pli { offsets: vec![0], rows: Vec::new(), num_rows };
        }
        Pli { offsets: vec![0, num_rows as u32], rows: (0..num_rows as RowId).collect(), num_rows }
    }

    /// Constructs a PLI from explicit clusters. Clusters of size < 2 are
    /// stripped, and the input is normalized to canonical order; rows must
    /// be unique and `< num_rows`.
    #[cfg(test)]
    fn from_clusters(clusters: Vec<Vec<RowId>>, num_rows: usize) -> Pli {
        let mut clusters: Vec<Vec<RowId>> = clusters.into_iter().filter(|c| c.len() >= 2).collect();
        debug_assert!(clusters.iter().flatten().all(|&r| (r as usize) < num_rows));
        for cluster in &mut clusters {
            cluster.sort_unstable();
        }
        clusters.sort_unstable_by_key(|c| c.first().copied());
        let mut offsets = vec![0u32];
        let mut rows = Vec::new();
        for cluster in clusters {
            rows.extend(cluster);
            offsets.push(rows.len() as u32);
        }
        Pli { offsets, rows, num_rows }
    }

    /// The stripped clusters, in canonical order.
    pub fn clusters(&self) -> impl ExactSizeIterator<Item = &[RowId]> {
        self.bounds().map(|(start, end)| &self.rows[start..end])
    }

    /// `(start, end)` of every cluster within `rows`.
    fn bounds(&self) -> impl ExactSizeIterator<Item = (usize, usize)> + '_ {
        self.offsets
            .iter()
            .zip(self.offsets.iter().skip(1))
            .map(|(&s, &e)| (s as usize, e as usize))
    }

    /// Number of rows of the underlying table.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Sum of cluster sizes (rows appearing in some duplicate group).
    pub fn size(&self) -> usize {
        self.rows.len()
    }

    /// True iff the column combination has no duplicate projections — i.e.
    /// it is a unique column combination.
    pub fn is_unique(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of distinct values of the projection:
    /// `num_rows - size + cluster_count`.
    pub fn distinct_count(&self) -> usize {
        self.num_rows - self.size() + self.cluster_count()
    }

    /// The probe vector: `probe[row] = cluster index + 1`, or 0 for rows not
    /// in any cluster.
    fn probe_vector(&self) -> Vec<u32> {
        let mut probe = vec![0u32; self.num_rows];
        for (i, cluster) in self.clusters().enumerate() {
            for &row in cluster {
                probe[row as usize] = (i + 1) as u32;
            }
        }
        probe
    }

    /// Intersects two stripped partitions: the PLI of the union of the two
    /// column combinations. Linear in `self.size() + other.size()`. The
    /// working memory is a per-thread scratch kept between calls, so the
    /// only allocations are the result's two vectors.
    pub fn intersect(&self, other: &Pli) -> Pli {
        assert_eq!(self.num_rows, other.num_rows, "PLIs over different tables");
        // Iterate the smaller partition and probe the larger.
        let (small, large) =
            if self.size() <= other.size() { (self, other) } else { (other, self) };
        SCRATCH.with(|scratch| scratch.borrow_mut().intersect(small, large))
    }

    /// Refines this partition by one column: splits every cluster by the
    /// column's per-row `codes` (all `< code_domain`). The result equals
    /// `self.intersect(&Pli::from_codes(codes, code_domain))`, but the
    /// codes already say which rows agree, so no probe is stamped: the
    /// cost is linear in `self.size()` alone. Shares
    /// [`Pli::intersect`]'s per-thread scratch.
    pub fn refine_by(&self, codes: &[u32], code_domain: usize) -> Pli {
        assert_eq!(self.num_rows, codes.len(), "codes of a different table");
        SCRATCH.with(|scratch| {
            scratch.borrow_mut().split.run(self, code_domain + 1, |row| codes[row] as usize + 1)
        })
    }

    /// Incrementally extends this PLI across an append: `self` is the PLI
    /// of the first `num_rows` entries of `codes`, the result is the PLI of
    /// all of `codes`. Code *labels* may have been remapped by a dictionary
    /// merge — cluster membership is row-id based, so remapping is free —
    /// but the prefix rows' partition must be unchanged, which is exactly
    /// what `Table::apply_delta` guarantees for an append.
    ///
    /// Cost: O(size + appended), since every old cluster is copied into the
    /// result, plus one O(rows) scan for singleton partners only when an
    /// appended value collides with a previously unique row — cheaper than
    /// re-bucketing the column whenever appends are small relative to the
    /// table.
    pub fn apply_append(&self, codes: &[u32]) -> Pli {
        let old_n = self.num_rows;
        debug_assert!(codes.len() >= old_n, "append cannot shrink the table");
        let by_code: HashMap<u32, usize> = self
            .bounds()
            .enumerate()
            .map(|(i, (start, _))| (codes[self.rows[start] as usize], i))
            .collect();
        // Appended rows per old cluster, and per value no old cluster holds.
        // Appended ids exceed all old ids and arrive ascending, so both stay
        // in canonical ascending order.
        let mut grown: Vec<Vec<RowId>> = vec![Vec::new(); self.cluster_count()];
        let mut pending: HashMap<u32, Vec<RowId>> = HashMap::new();
        for (row, &code) in codes.iter().enumerate().skip(old_n) {
            match by_code.get(&code) {
                Some(&i) => grown[i].push(row as RowId),
                None => pending.entry(code).or_default().push(row as RowId),
            }
        }
        let mut fresh: Vec<Vec<RowId>> = Vec::new();
        if !pending.is_empty() {
            // Some appended value matched no existing cluster: it either
            // pairs up with a previously unique old row or forms a cluster
            // of appended rows only. One pass recovers the old singletons.
            let probe = self.probe_vector();
            for (row, &code) in codes.iter().enumerate().take(old_n) {
                if probe[row] == 0 {
                    if let Some(rows) = pending.get_mut(&code) {
                        rows.insert(0, row as RowId);
                    }
                }
            }
            // lint:allow(hash-order): drain order only permutes `fresh`,
            // whose clusters are put in canonical order by the
            // sort-by-first-row below.
            fresh.extend(pending.into_values().filter(|rows| rows.len() >= 2));
        }
        let mut parts: Vec<(&[RowId], &[RowId])> = self
            .clusters()
            .zip(&grown)
            .map(|(old, new)| (old, new.as_slice()))
            .chain(fresh.iter().map(|rows| (rows.as_slice(), &[][..])))
            .collect();
        parts.sort_unstable_by_key(|(head, _)| head.first().copied());
        let mut offsets = Vec::with_capacity(parts.len() + 1);
        offsets.push(0);
        let mut rows = Vec::with_capacity(parts.iter().map(|(h, t)| h.len() + t.len()).sum());
        for (head, tail) in parts {
            rows.extend_from_slice(head);
            rows.extend_from_slice(tail);
            offsets.push(rows.len() as u32);
        }
        Pli { offsets, rows, num_rows: codes.len() }
    }

    /// Approximate heap footprint of this PLI in bytes: row ids plus
    /// cluster offsets. Used by `PliCache`'s byte budget — an accounting
    /// estimate (allocator slack ignored), not an exact measurement.
    pub fn estimated_bytes(&self) -> usize {
        (self.rows.len() + self.offsets.len()) * std::mem::size_of::<u32>()
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
        self.clusters().all(|cluster| match cluster.split_first() {
            Some((&first, rest)) => {
                let value = codes[first as usize];
                rest.iter().all(|&r| codes[r as usize] == value)
            }
            None => true,
        })
    }
}

/// Marks a code whose cluster `from_codes` has not met yet.
const UNSEEN: u32 = u32::MAX;

thread_local! {
    /// One intersect workspace per thread, reused across calls: rayon
    /// workers and the daemon's scheduler workers each keep their own.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Working memory of [`Pli::intersect`] and [`Pli::refine_by`]. It grows
/// to the largest table, cluster count and code domain its thread has met
/// and is never shrunk. `probe` is never cleared row by row (see `base`).
#[derive(Default)]
struct Scratch {
    /// During an intersect, `probe[row]` minus the call's stamp (`base` as
    /// the call began) is 1 + the row's cluster index in the larger
    /// operand; an entry at or below the stamp means the row is in none of
    /// its clusters.
    probe: Vec<u32>,
    /// The largest value any earlier call wrote into `probe`. Each call
    /// stamps its clusters above it and then raises it past them, which
    /// retires the whole probe without touching it; only on `u32`
    /// wrap-around is the probe zeroed.
    base: u32,
    split: Splitter,
}

impl Scratch {
    fn intersect(&mut self, small: &Pli, large: &Pli) -> Pli {
        let Scratch { probe, base, split } = self;
        if probe.len() < large.num_rows {
            probe.resize(large.num_rows, 0);
        }
        let slots = large.cluster_count() + 1;
        let stamp = match base.checked_add(slots as u32) {
            Some(_) => *base,
            None => {
                probe.fill(0);
                0
            }
        };
        *base = stamp + large.cluster_count() as u32;
        for (i, cluster) in large.clusters().enumerate() {
            for &row in cluster {
                probe[row as usize] = stamp + i as u32 + 1;
            }
        }
        split.run(small, slots, |row| probe[row].saturating_sub(stamp) as usize)
    }
}

/// The grouping and emit core both kernels share: splits every cluster of
/// a PLI by a per-row key. `count` is all-zero between calls, so no call
/// clears more than the entries it set.
#[derive(Default)]
struct Splitter {
    /// Per key: rows of the current cluster that carry it.
    count: Vec<u32>,
    /// Per key: next write position in `rows` for the current cluster.
    cursor: Vec<u32>,
    /// Keys met in the current cluster, in first-row order.
    touched: Vec<u32>,
    /// The result as it is emitted, before it is copied out at exact size.
    offsets: Vec<u32>,
    rows: Vec<RowId>,
    /// `(first row, start, end)` per emitted cluster, for the gather into
    /// canonical order when the emitted order is not already canonical.
    order: Vec<(RowId, u32, u32)>,
}

impl Splitter {
    /// Splits each cluster of `pli` into groups of rows with equal
    /// `key(row)`, keeping groups of ≥ 2 rows, in canonical order. Keys are
    /// `< slots`; key 0 puts a row in no group.
    fn run(&mut self, pli: &Pli, slots: usize, key: impl Fn(usize) -> usize) -> Pli {
        let Splitter { count, cursor, touched, offsets, rows, order } = self;
        if count.len() < slots {
            count.resize(slots, 0);
            cursor.resize(slots, 0);
        }
        offsets.clear();
        offsets.push(0);
        rows.clear();
        for cluster in pli.clusters() {
            // Pass 1: count the cluster's rows per key. Rows keyed 0 are
            // never counted, so `count[0]` stays 0.
            for &row in cluster {
                let p = key(row as usize);
                if p != 0 {
                    if count[p] == 0 {
                        touched.push(p as u32);
                    }
                    count[p] += 1;
                }
            }
            // Lay out the groups of ≥2 rows in first-row order.
            let mut end = rows.len() as u32;
            for &p in touched.iter() {
                let c = count[p as usize];
                if c >= 2 {
                    cursor[p as usize] = end;
                    end += c;
                    offsets.push(end);
                }
            }
            // Pass 2: write the rows, ascending within each group.
            if end as usize > rows.len() {
                rows.resize(end as usize, 0);
                for &row in cluster {
                    let p = key(row as usize);
                    if count[p] >= 2 {
                        rows[cursor[p] as usize] = row;
                        cursor[p] += 1;
                    }
                }
            }
            for &p in touched.iter() {
                count[p as usize] = 0;
            }
            touched.clear();
        }
        // Groups of one cluster come out in first-row order, but a later
        // cluster can hold a group starting below an earlier one's; only
        // then is a reorder needed.
        let firsts = offsets.iter().take(offsets.len() - 1).map(|&s| rows[s as usize]);
        let ordered = firsts.clone().zip(firsts.skip(1)).all(|(a, b)| a < b);
        if ordered {
            return Pli { offsets: offsets.clone(), rows: rows.clone(), num_rows: pli.num_rows };
        }
        order.clear();
        order.extend(
            offsets.iter().zip(offsets.iter().skip(1)).map(|(&s, &e)| (rows[s as usize], s, e)),
        );
        order.sort_unstable();
        let mut out_offsets = Vec::with_capacity(offsets.len());
        out_offsets.push(0);
        let mut out_rows = Vec::with_capacity(rows.len());
        for &(_, s, e) in order.iter() {
            out_rows.extend_from_slice(&rows[s as usize..e as usize]);
            out_offsets.push(out_rows.len() as u32);
        }
        Pli { offsets: out_offsets, rows: out_rows, num_rows: pli.num_rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muds_table::Column;

    fn col(values: &[&str]) -> Column {
        Column::from_values("c", values)
    }

    fn clusters(p: &Pli) -> Vec<Vec<RowId>> {
        p.clusters().map(<[RowId]>::to_vec).collect()
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
        assert_eq!(clusters(&p), [vec![0, 2], vec![1, 4]]);
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
        assert_eq!(clusters(&p)[0], vec![0, 1]);
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
        assert_eq!(clusters(&xy)[0], vec![2, 3]);
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
        assert_eq!(clusters(&p), [vec![0, 2], vec![1, 3]]);
        // Intersections preserve the canonical order too.
        let q = Pli::from_column(&col(&["k", "k", "k", "k"]));
        assert_eq!(clusters(&p.intersect(&q)), [vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn intersect_is_deterministic_across_repetitions() {
        // Many clusters per operand, intersected again and again through
        // this thread's reused scratch: every repetition must match exactly.
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
        assert_eq!(clusters(&p), [vec![0, 2, 4], vec![3, 5]]);
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
        assert_eq!(clusters(&p), [vec![0, 2, 3]]);
    }

    #[test]
    fn apply_append_pairs_with_old_singleton() {
        let old = col(&["a", "b", "c"]);
        let new = col(&["a", "b", "c", "b"]);
        let p = Pli::from_column(&old).apply_append(new.codes());
        assert_eq!(p, Pli::from_column(&new));
        assert_eq!(clusters(&p), [vec![1, 3]]);
    }

    #[test]
    fn apply_append_clusters_of_new_rows_only() {
        let old = col(&["a"]);
        let new = col(&["a", "z", "z"]);
        let p = Pli::from_column(&old).apply_append(new.codes());
        assert_eq!(p, Pli::from_column(&new));
        assert_eq!(clusters(&p), [vec![1, 2]]);
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

    /// Asserts the CSR invariants: offsets start at 0, ascend strictly in
    /// steps of ≥2 and end at `rows.len()`; rows ascend within a cluster
    /// and stay below `num_rows`; clusters are ordered by first row.
    fn assert_canonical(p: &Pli) {
        assert_eq!(p.offsets.first(), Some(&0));
        assert_eq!(p.offsets.last().map(|&e| e as usize), Some(p.rows.len()));
        let mut previous_first = None;
        for cluster in p.clusters() {
            assert!(cluster.len() >= 2, "stripped cluster of {} rows", cluster.len());
            assert!(cluster.windows(2).all(|w| w[0] < w[1]), "rows not ascending: {cluster:?}");
            assert!(cluster.iter().all(|&r| (r as usize) < p.num_rows));
            let first = cluster.first().copied();
            assert!(previous_first < first, "clusters not ordered by first row");
            previous_first = first;
        }
    }

    /// The PLI of the column pair `(a, b)`, built directly from codes.
    fn paired(a: &[u32], a_domain: u32, b: &[u32], b_domain: u32) -> Pli {
        let codes: Vec<u32> = a.iter().zip(b).map(|(&x, &y)| x * b_domain + y).collect();
        Pli::from_codes(&codes, (a_domain * b_domain) as usize)
    }

    fn random_codes(rng: &mut rand::rngs::StdRng, rows: usize, domain: u32) -> Vec<u32> {
        use rand::Rng;
        (0..rows).map(|_| rng.gen_range(0..domain)).collect()
    }

    #[test]
    fn intersect_matches_paired_codes_on_random_tables() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(23);
        // Row counts jump between tiny and large tables on this one thread,
        // so a scratch left dirty by one call would corrupt the next.
        for round in 0..400 {
            let rows = match round % 4 {
                0 => rng.gen_range(0..=2),
                1 => rng.gen_range(3..40),
                2 => rng.gen_range(200..600),
                _ => rng.gen_range(2..12),
            };
            // Domain 1 makes every row equal; large domains make most
            // rows unique.
            let (da, db) = (rng.gen_range(1..=rows as u32 + 2), rng.gen_range(1..=6));
            let (ca, cb) = (random_codes(&mut rng, rows, da), random_codes(&mut rng, rows, db));
            let (a, b) = (Pli::from_codes(&ca, da as usize), Pli::from_codes(&cb, db as usize));
            assert_canonical(&a);
            assert_canonical(&b);
            let ab = a.intersect(&b);
            assert_canonical(&ab);
            assert_eq!(ab, paired(&ca, da, &cb, db), "round {round}: {ca:?} ∩ {cb:?}");
            assert_eq!(ab, b.intersect(&a), "round {round}: operand order");
        }
    }

    #[test]
    fn intersect_covers_the_ordered_and_the_gather_branch() {
        // X's cluster {0,1,2,3} splits by Y into {0,1} and {2,3}, which
        // are emitted in canonical order as they are: no reorder.
        let x = Pli::from_column(&col(&["a", "a", "a", "a", "u"]));
        let ycol = col(&["p", "p", "q", "q", "q"]);
        let xy = x.intersect(&Pli::from_column(&ycol));
        assert_canonical(&xy);
        assert_eq!(clusters(&xy), [vec![0, 1], vec![2, 3]]);
        assert_eq!(x.refine_by(ycol.codes(), ycol.code_domain()), xy);
        // X (the smaller operand, 6 rows in clusters) has clusters
        // {0,2,4,6} and {1,3}. The first emits {0,2} and {4,6}, the second
        // {1,3}: first rows 0, 4, 1 must be gathered into canonical order.
        // Refining X by Y's codes splits the same clusters the same way.
        let x = Pli::from_column(&col(&["a", "b", "a", "b", "a", "c", "a", "d", "e"]));
        let ycol = col(&["p", "r", "p", "r", "q", "t", "q", "s", "s"]);
        let y = Pli::from_column(&ycol);
        assert!(x.size() < y.size());
        let xy = x.intersect(&y);
        assert_canonical(&xy);
        assert_eq!(clusters(&xy), [vec![0, 2], vec![1, 3], vec![4, 6]]);
        assert_eq!(xy, y.intersect(&x));
        assert_eq!(x.refine_by(ycol.codes(), ycol.code_domain()), xy);
    }

    /// Values for a column of `rows` rows in one of five shapes:
    /// NULL-heavy, all-distinct, constant, a small and a large domain.
    fn shaped_values(rng: &mut rand::rngs::StdRng, shape: usize, rows: usize) -> Vec<String> {
        use rand::Rng;
        (0..rows)
            .map(|row| match shape {
                0 if rng.gen_range(0..4) != 0 => String::new(),
                0 => rng.gen_range(0..3).to_string(),
                1 => row.to_string(),
                2 => "k".to_string(),
                3 => rng.gen_range(0..3).to_string(),
                _ => rng.gen_range(0..rows as u32 * 2 + 5).to_string(),
            })
            .collect()
    }

    proptest::proptest! {
        /// Refining by a column's codes is intersecting with its PLI. Each
        /// case refines one prefix by two columns of contrasting domains,
        /// so this thread's scratch alternates between large and small
        /// domains, and row counts jump between 0–1 rows and hundreds.
        #[test]
        fn refine_by_equals_intersect_with_the_column(
            (shapes, size, seed) in ((0usize..5, 0usize..5), 0usize..4, 0u64..u64::MAX)
        ) {
            use rand::prelude::*;
            let mut rng = StdRng::seed_from_u64(seed);
            let rows = match size {
                0 => rng.gen_range(0..=1),
                1 => rng.gen_range(2..12),
                2 => rng.gen_range(12..60),
                _ => rng.gen_range(200..500),
            };
            // The prefix: the empty set's PLI, or a column of 1–4 values.
            let prefix = if rng.gen_range(0..4) == 0 {
                Pli::empty_set(rows)
            } else {
                let domain = rng.gen_range(1..=4);
                Pli::from_codes(&random_codes(&mut rng, rows, domain), domain as usize)
            };
            for shape in [shapes.0, shapes.1, 4, 3] {
                let values = shaped_values(&mut rng, shape, rows);
                let c = Column::from_values(
                    "c",
                    &values.iter().map(String::as_str).collect::<Vec<_>>(),
                );
                let refined = prefix.refine_by(c.codes(), c.code_domain());
                assert_canonical(&refined);
                proptest::prop_assert_eq!(
                    &refined,
                    &prefix.intersect(&Pli::from_column(&c)),
                    "shape {} over {} rows",
                    shape,
                    rows
                );
            }
        }
    }

    #[test]
    fn intersect_survives_the_probe_stamp_wrapping_around() {
        // The first intersect stamps every row just below the wrap; the
        // second wraps, and its larger operand leaves rows 4 and 5
        // unstamped, so a probe not zeroed on the wrap would read them
        // as clusters of its own.
        let x = Pli::from_column(&col(&["a", "a", "b", "b", "a", "c"]));
        let y = Pli::from_column(&col(&["p", "q", "p", "p", "p", "q"]));
        let a = Pli::from_column(&col(&["a", "a", "b", "b", "c", "d"]));
        let s = Pli::from_column(&col(&["k", "m", "k", "n", "k", "o"]));
        SCRATCH.with(|scratch| scratch.borrow_mut().base = u32::MAX - 4);
        let xy = Pli::from_column(&col(&["ap", "aq", "bp", "bp", "ap", "cq"]));
        assert_eq!(x.intersect(&y), xy);
        assert!(s.intersect(&a).is_unique());
        assert!(SCRATCH.with(|scratch| scratch.borrow().base) < 8, "the stamp wrapped");
        assert_eq!(y.intersect(&x), xy);
    }

    #[test]
    fn intersect_gives_the_same_results_on_concurrent_threads() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(29);
        let pairs: Vec<(Pli, Pli)> = (0..60)
            .map(|i| {
                let rows = if i % 2 == 0 { 500 } else { 17 };
                let (da, db) = (rng.gen_range(1..60), rng.gen_range(1..8));
                let ca = random_codes(&mut rng, rows, da);
                let cb = random_codes(&mut rng, rows, db);
                (Pli::from_codes(&ca, da as usize), Pli::from_codes(&cb, db as usize))
            })
            .collect();
        let sequential: Vec<Pli> = pairs.iter().map(|(a, b)| a.intersect(b)).collect();
        let run = || pairs.iter().map(|(a, b)| a.intersect(b)).collect::<Vec<Pli>>();
        std::thread::scope(|s| {
            let left = s.spawn(run);
            let right = s.spawn(run);
            assert_eq!(left.join().expect("left thread"), sequential);
            assert_eq!(right.join().expect("right thread"), sequential);
        });
    }
}
