//! Witness search: is a column combination still not unique, or does it
//! still not determine a column? One pair of rows answers either question,
//! so the search looks for that pair in a single-column PLI's clusters
//! instead of building the combination's PLI. The delete path asks it
//! whether the old result's maximal negatives survived (DESIGN.md §13).

use std::cmp::Ordering;

use crate::pli::{Pli, RowId};

impl Pli {
    /// Exact witness search over this PLI's clusters: looks for two rows of
    /// one cluster that agree on every column of `rest` and, with `rhs`
    /// given, differ on it. If this is the PLI of column `p`, that answers
    /// "is `{p} ∪ rest` still not unique?" (`rhs` `None`) or "does it still
    /// not determine `rhs`?" without building the PLI of the combination.
    ///
    /// Clusters are walked in canonical order and the walk stops at the
    /// first witness. Returns whether one was found and the rows visited,
    /// which depend on the data alone (the row hash is fixed, never seeded).
    pub fn find_witness(&self, rest: &[&[u32]], rhs: Option<&[u32]>) -> (bool, usize) {
        let mut slots = Vec::new();
        let mut visited = 0;
        for cluster in self.clusters() {
            let (found, rows) =
                cluster_witness(cluster, rest, rhs, |row| row_hash(rest, row), &mut slots);
            visited += rows;
            if found {
                return (true, visited);
            }
        }
        (false, visited)
    }
}

/// Marks an empty slot of [`cluster_witness`]'s table.
const NO_ROW: RowId = RowId::MAX;

/// One cluster of [`Pli::find_witness`]. Every row is keyed by `hash` of
/// its codes on `rest` into an open-addressing table that maps each hash
/// to one representative row. A row whose hash meets a representative
/// with an equal tuple is a witness unless `rhs` is given and agrees (a
/// group with two `rhs` values holds a row that differs from its
/// representative). A hash hit on a different tuple re-checks the whole
/// cluster exactly by sorting it, so the verdict never depends on `hash`.
/// Returns the verdict and the rows visited.
fn cluster_witness(
    cluster: &[RowId],
    rest: &[&[u32]],
    rhs: Option<&[u32]>,
    hash: impl Fn(RowId) -> u64,
    slots: &mut Vec<(u64, RowId)>,
) -> (bool, usize) {
    let same = |x: RowId, y: RowId| rest.iter().all(|c| c[x as usize] == c[y as usize]);
    let splits = |x: RowId, y: RowId| rhs.is_none_or(|a| a[x as usize] != a[y as usize]);
    let bits = (2 * cluster.len()).max(2).next_power_of_two().trailing_zeros();
    let mask = (1usize << bits) - 1;
    slots.clear();
    slots.resize(mask + 1, (0, NO_ROW));
    for (i, &row) in cluster.iter().enumerate() {
        let h = hash(row);
        // The high bits: the multiplicative row hash mixes upwards.
        let mut slot = (h >> (64 - bits)) as usize;
        loop {
            let (key, rep) = slots[slot];
            if rep == NO_ROW {
                slots[slot] = (h, row);
                break;
            }
            if key == h {
                if !same(rep, row) {
                    let mut sorted = cluster.to_vec();
                    sorted.sort_unstable_by(|&x, &y| {
                        let by_rest = rest.iter().map(|c| c[x as usize].cmp(&c[y as usize]));
                        let by_rhs = rhs.map(|a| a[x as usize].cmp(&a[y as usize]));
                        by_rest.chain(by_rhs).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
                    });
                    let mut pairs = sorted.iter().zip(sorted.iter().skip(1));
                    let found = pairs.any(|(&x, &y)| same(x, y) && splits(x, y));
                    return (found, cluster.len());
                }
                if splits(rep, row) {
                    return (true, i + 1);
                }
                break;
            }
            slot = (slot + 1) & mask;
        }
    }
    (false, cluster.len())
}

/// The fixed hash of `row`'s codes on `rest` (FxHash's rotate-xor-multiply
/// step): the same on every run and thread, so the rows a witness search
/// visits are reproducible.
fn row_hash(rest: &[&[u32]], row: RowId) -> u64 {
    rest.iter().fold(0u64, |h, codes| {
        (h.rotate_left(5) ^ u64::from(codes[row as usize])).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use muds_table::Column;

    fn col(values: &[&str]) -> Column {
        Column::from_values("c", values)
    }

    fn random_codes(rng: &mut rand::rngs::StdRng, rows: usize, domain: u32) -> Vec<u32> {
        use rand::Rng;
        (0..rows).map(|_| rng.gen_range(0..domain)).collect()
    }

    /// Every pair of rows in `cluster` that agree on `rest` and, with `rhs`,
    /// differ on it: the definition a witness search must match.
    fn brute_witness(cluster: &[RowId], rest: &[&[u32]], rhs: Option<&[u32]>) -> bool {
        cluster.iter().enumerate().any(|(i, &x)| {
            cluster[i + 1..].iter().any(|&y| {
                rest.iter().all(|c| c[x as usize] == c[y as usize])
                    && rhs.is_none_or(|a| a[x as usize] != a[y as usize])
            })
        })
    }

    #[test]
    fn cluster_witness_verdicts_do_not_depend_on_the_hash() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(37);
        let mut slots = Vec::new();
        for round in 0..300 {
            let rows = rng.gen_range(2..40);
            let width = round % 4;
            let domain = rng.gen_range(1..=4);
            let rest: Vec<Vec<u32>> =
                (0..width).map(|_| random_codes(&mut rng, rows, domain)).collect();
            let rest: Vec<&[u32]> = rest.iter().map(Vec::as_slice).collect();
            let rhs_domain = rng.gen_range(1..=3);
            let rhs = random_codes(&mut rng, rows, rhs_domain);
            let mut cluster: Vec<RowId> =
                (0..rows as RowId).filter(|_| rng.gen_bool(0.7)).collect();
            if cluster.len() < 2 {
                cluster = vec![0, 1];
            }
            for rhs in [None, Some(rhs.as_slice())] {
                let expected = brute_witness(&cluster, &rest, rhs);
                let hashed =
                    cluster_witness(&cluster, &rest, rhs, |r| row_hash(&rest, r), &mut slots);
                // A constant hash makes every row after the first a hash hit,
                // so any two tuples that differ force the sorted re-check.
                let collided = cluster_witness(&cluster, &rest, rhs, |_| 7, &mut slots);
                assert_eq!(hashed.0, expected, "round {round}: row hash");
                assert_eq!(collided.0, expected, "round {round}: constant hash");
                assert!(hashed.1 <= cluster.len() && collided.1 <= cluster.len());
            }
        }
        // Rows 0 and 2 agree on `rest`, row 1 does not. Under the constant
        // hash row 1 meets row 0's tuple first, and only the sorted re-check
        // (which visits the whole cluster) pairs rows 0 and 2.
        let rest: [&[u32]; 1] = [&[5, 6, 5]];
        assert_eq!(cluster_witness(&[0, 1, 2], &rest, None, |_| 0, &mut slots), (true, 3));
        assert_eq!(
            cluster_witness(&[0, 1, 2], &rest, None, |r| row_hash(&rest, r), &mut slots),
            (true, 3)
        );
        // The rhs decides: rows 0 and 2 agree on it too, so no witness.
        let rhs: &[u32] = &[1, 2, 1];
        assert_eq!(cluster_witness(&[0, 1, 2], &rest, Some(rhs), |_| 0, &mut slots), (false, 3));
        let rhs: &[u32] = &[1, 1, 2];
        assert_eq!(cluster_witness(&[0, 1, 2], &rest, Some(rhs), |_| 0, &mut slots), (true, 3));
    }

    #[test]
    fn find_witness_stops_at_the_first_pair_in_canonical_order() {
        // Column p: clusters {0,1,2} and {3,4}; the other column splits the
        // first cluster three ways and pairs rows 3 and 4.
        let p = Pli::from_column(&col(&["a", "a", "a", "b", "b"]));
        let q = col(&["x", "y", "z", "w", "w"]);
        assert_eq!(p.find_witness(&[q.codes()], None), (true, 5));
        // Only the last cluster holds a witness, and it fails the rhs.
        let r = col(&["1", "1", "1", "2", "2"]);
        assert_eq!(p.find_witness(&[q.codes()], Some(r.codes())), (false, 5));
        // No other columns: the first cluster's first two rows are a pair.
        assert_eq!(p.find_witness(&[], None), (true, 2));
        assert_eq!(Pli::from_column(&col(&["a", "b"])).find_witness(&[], None), (false, 0));
    }
}
