//! Seeded inputs and the dependency digest that checks every output.
//!
//! The seed drives every random choice the benchmark makes — row order,
//! request scripts, delta scripts — through [`Rng`], a SplitMix64 stream
//! kept here rather than borrowed from a dependency so that the same seed
//! produces byte-identical inputs for as long as this file is unchanged.
//! The program under test only ever sees the generated tables, CSV text and
//! requests.

use muds_core::ProfileResult;
use muds_datagen::{ionosphere_like, ncvoter_like, uniprot_like};
use muds_fd::FdSet;
use muds_ind::Ind;
use muds_lattice::ColumnSet;
use muds_table::Table;

/// SplitMix64: a tiny, well-mixed, reproducible generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream `stream` of `seed`: independent choices (row order,
    /// each client's script, ...) draw from separate streams so adding a
    /// draw to one never shifts another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// Operation kinds drawn in blocks: each block holds exactly `counts[k]`
/// operations of kind `k`, in seeded order. When kinds differ in cost by
/// orders of magnitude (a cache miss against a hit, a delete against an
/// append), an independent draw per operation would give every seed its
/// own mix and with it its own medians and throughput.
#[derive(Debug, Clone)]
pub struct Mix {
    counts: &'static [usize],
    block: Vec<usize>,
}

impl Mix {
    pub fn new(counts: &'static [usize]) -> Mix {
        Mix { counts, block: Vec::new() }
    }

    /// The next kind (an index into `counts`).
    pub fn next(&mut self, rng: &mut Rng) -> usize {
        if self.block.is_empty() {
            self.block = self
                .counts
                .iter()
                .enumerate()
                .flat_map(|(k, &n)| std::iter::repeat_n(k, n))
                .collect();
            rng.shuffle(&mut self.block);
        }
        self.block.pop().unwrap_or(0)
    }
}

/// One of the datagen shapes the paper's figures use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Row-heavy administrative data (Figure 6/8).
    Ncvoter,
    /// Row-heavy with shadowed-FD-heavy annotation columns (Figure 6).
    Uniprot,
    /// 351 rows with deep lattices (Figure 7); ignores the row count.
    Ionosphere,
}

/// A generated table: shape, full-scale rows, columns.
#[derive(Debug, Clone, Copy)]
pub struct TableSpec {
    pub shape: Shape,
    pub rows: usize,
    pub cols: usize,
}

impl TableSpec {
    /// Row count after dividing by `scale` (never below 200 rows, so a
    /// scaled-down smoke run keeps every shape's dependency structure).
    pub fn scaled_rows(&self, scale: usize) -> usize {
        (self.rows / scale.max(1)).max(200)
    }

    /// The generated table, in the generator's own row order.
    pub fn generate(&self, scale: usize) -> Table {
        let rows = self.scaled_rows(scale);
        match self.shape {
            Shape::Ncvoter => ncvoter_like(rows, self.cols),
            Shape::Uniprot => uniprot_like(rows, self.cols),
            Shape::Ionosphere => ionosphere_like(self.cols),
        }
    }
}

/// `table` with its rows in a seeded order. Row order never changes the
/// dependency set, so every seed must reproduce the same digest.
pub fn shuffled(table: &Table, rng: &mut Rng) -> Table {
    table.select_rows(&rng.permutation(table.num_rows()))
}

/// Row `r` of `table` as owned strings (NULL as the empty string).
pub fn row_strings(table: &Table, r: usize) -> Vec<String> {
    table.row(r).into_iter().map(|v| v.unwrap_or("").to_string()).collect()
}

/// FNV-1a over a canonical text of the sorted INDs, UCCs and FDs: equal
/// digests mean equal dependency sets, whichever algorithm, row order or
/// transport produced them.
pub fn digest(inds: &[Ind], uccs: &[ColumnSet], fds: &FdSet) -> u64 {
    let mut inds: Vec<(usize, usize)> = inds.iter().map(|i| (i.dependent, i.referenced)).collect();
    inds.sort_unstable();
    let mut uccs: Vec<Vec<usize>> = uccs.iter().map(|u| u.to_vec()).collect();
    uccs.sort_unstable();
    let mut fds: Vec<(Vec<usize>, usize)> =
        fds.to_sorted_vec().into_iter().map(|fd| (fd.lhs.to_vec(), fd.rhs)).collect();
    fds.sort_unstable();
    let mut text = String::new();
    for (d, r) in inds {
        text.push_str(&format!("I{d}>{r};"));
    }
    for u in uccs {
        text.push_str(&format!("U{u:?};"));
    }
    for (lhs, rhs) in fds {
        text.push_str(&format!("F{lhs:?}>{rhs};"));
    }
    text.bytes()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

/// [`digest`] of a profiling result.
pub fn result_digest(result: &ProfileResult) -> u64 {
    digest(&result.inds, &result.minimal_uccs, &result.fds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muds_core::{profile, Algorithm, ProfilerConfig};
    use muds_table::{table_to_csv, CsvOptions};

    #[test]
    fn streams_are_reproducible_and_independent() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]), "same seed and stream, same draws");
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        let mut rng = Rng::new(3, 0);
        for _ in 0..1000 {
            assert!(rng.below(5) < 5);
            assert!((0.0..1.0).contains(&rng.unit()));
            assert!((2..=4).contains(&rng.range(2, 4)));
        }
    }

    #[test]
    fn mixes_are_exact_per_block() {
        let mut rng = Rng::new(5, 0);
        let mut mix = Mix::new(&[7, 3]);
        for _ in 0..4 {
            let block: Vec<usize> = (0..10).map(|_| mix.next(&mut rng)).collect();
            assert_eq!(block.iter().filter(|&&k| k == 0).count(), 7, "{block:?}");
        }
    }

    #[test]
    fn permutations_are_permutations() {
        let mut p = Rng::new(11, 0).permutation(1000);
        assert_ne!(p, (0..1000).collect::<Vec<_>>());
        p.sort_unstable();
        assert_eq!(p, (0..1000).collect::<Vec<_>>());
    }

    /// The seed rule: the same seed gives byte-identical inputs, another
    /// seed gives another row order with the same dependency digest.
    #[test]
    fn seeds_change_row_order_but_not_dependencies() {
        let base = TableSpec { shape: Shape::Ncvoter, rows: 600, cols: 8 }.generate(1);
        let csv =
            |seed| table_to_csv(&shuffled(&base, &mut Rng::new(seed, 0)), &CsvOptions::default());
        assert_eq!(csv(1), csv(1), "same seed, same bytes");
        assert_ne!(csv(1), csv(2), "another seed, another row order");
        let cfg = ProfilerConfig::default();
        let reference = result_digest(&profile(&base, Algorithm::Muds, &cfg));
        for seed in [1, 2, 3] {
            let t = shuffled(&base, &mut Rng::new(seed, 0));
            for alg in Algorithm::ALL {
                assert_eq!(
                    result_digest(&profile(&t, alg, &cfg)),
                    reference,
                    "seed {seed} {alg:?}"
                );
            }
        }
    }

    #[test]
    fn digest_tells_dependency_sets_apart() {
        let t = TableSpec { shape: Shape::Uniprot, rows: 400, cols: 6 }.generate(1);
        let r = profile(&t, Algorithm::Muds, &ProfilerConfig::default());
        let full = result_digest(&r);
        assert_ne!(digest(&r.inds[1..], &r.minimal_uccs, &r.fds), full);
        assert_ne!(digest(&r.inds, &r.minimal_uccs[1..], &r.fds), full);
        assert_ne!(digest(&r.inds, &r.minimal_uccs, &FdSet::new()), full);
    }
}
