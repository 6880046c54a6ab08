//! Fixed-width bitset over column indices.
//!
//! All lattice-based profiling algorithms in this workspace identify a set of
//! columns (an "attribute set" in the paper's terminology) by a [`ColumnSet`].
//! The representation is a fixed `[u64; 4]`, i.e. at most 256 columns, which
//! comfortably covers every dataset in the paper (the widest, uniprot, has
//! 223 columns). The fixed width keeps the type `Copy` and 32 bytes, and
//! its `Hash` feeds one multiply-folded `u64` to the hasher. The
//! random-walk and level-wise algorithms and the PLI cache keep millions
//! of sets in hash maps, so they key them with [`ColumnSetState`], which
//! finishes that word with one seeded mix instead of running SipHash over
//! 32 bytes.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

/// Number of `u64` words backing a [`ColumnSet`].
const WORDS: usize = 4;

/// Maximum number of columns a [`ColumnSet`] can address.
pub const MAX_COLUMNS: usize = WORDS * 64;

/// A set of column indices, backed by a 256-bit fixed bitset.
///
/// Columns are identified by their zero-based position in the table schema.
/// The type is `Copy`; all set operations return new values.
///
/// # Panics
///
/// Inserting an index `>= MAX_COLUMNS` (256) panics. Tables wider than that
/// are rejected at load time by `muds-table`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct ColumnSet {
    words: [u64; WORDS],
}

/// Odd multiplier of [`ColumnSetHasher`] (2⁶⁴ / φ).
const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;

/// Keys of the fold: digits of π, as in wyhash and foldhash.
const KEYS: [u64; 4] =
    [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344, 0xa409_3822_299f_31d0, 0x082e_fa98_ec4e_6c89];

/// The 128-bit product of `x` and `y`, its halves xored together.
#[inline]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let product = u128::from(x) * u128::from(y);
    product as u64 ^ (product >> 64) as u64
}

impl Hash for ColumnSet {
    /// One `write_u64` of the words multiply-folded: the first word xored
    /// with folded products of the other three. Sets within the first 64
    /// columns fold to their own word (xor a constant), so on such tables
    /// distinct sets never share a hash input.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let [a, b, c, d] = self.words;
        let [k0, k1, k2, k3] = KEYS;
        state.write_u64(a ^ folded_multiply(b ^ k0, c ^ k1) ^ folded_multiply(d ^ k2, k3));
    }
}

/// The [`BuildHasher`] for `ColumnSet`-keyed maps and sets. Every hasher
/// it builds starts from one per-process seed, drawn once from
/// [`RandomState`], so a table cannot aim its column sets at buckets.
#[derive(Clone, Copy, Debug)]
pub struct ColumnSetState {
    seed: u64,
}

impl Default for ColumnSetState {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        ColumnSetState { seed: *SEED.get_or_init(|| RandomState::new().hash_one(FOLD)) }
    }
}

impl BuildHasher for ColumnSetState {
    type Hasher = ColumnSetHasher;

    #[inline]
    fn build_hasher(&self) -> ColumnSetHasher {
        ColumnSetHasher { state: self.seed }
    }
}

/// The hasher [`ColumnSetState`] builds: each word is xored into the state
/// and multiplied by an odd constant, and `finish` applies MurmurHash3's
/// fmix64, so one word maps to its hash bijectively.
#[derive(Clone, Copy, Debug)]
pub struct ColumnSetHasher {
    state: u64,
}

impl Hasher for ColumnSetHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(FOLD);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

impl ColumnSet {
    /// The empty set.
    #[inline]
    pub const fn empty() -> Self {
        ColumnSet { words: [0; WORDS] }
    }

    /// The set `{0, 1, .., n-1}` of the first `n` columns.
    #[inline]
    pub fn full(n: usize) -> Self {
        assert!(n <= MAX_COLUMNS, "ColumnSet supports at most {MAX_COLUMNS} columns, got {n}");
        let mut words = [0u64; WORDS];
        let mut remaining = n;
        for w in words.iter_mut() {
            if remaining >= 64 {
                *w = u64::MAX;
                remaining -= 64;
            } else {
                *w = (1u64 << remaining) - 1;
                break;
            }
        }
        ColumnSet { words }
    }

    /// The singleton set `{col}`.
    #[inline]
    pub fn single(col: usize) -> Self {
        let mut s = Self::empty();
        s.insert(col);
        s
    }

    /// Builds a set from an iterator of column indices.
    pub fn from_indices<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = Self::empty();
        for c in iter {
            s.insert(c);
        }
        s
    }

    /// Adds `col` to the set.
    #[inline]
    pub fn insert(&mut self, col: usize) {
        assert!(col < MAX_COLUMNS, "column index {col} out of range (max {MAX_COLUMNS})");
        self.words[col / 64] |= 1u64 << (col % 64);
    }

    /// Removes `col` from the set.
    #[inline]
    pub fn remove(&mut self, col: usize) {
        if col < MAX_COLUMNS {
            self.words[col / 64] &= !(1u64 << (col % 64));
        }
    }

    /// Returns a copy with `col` added.
    #[inline]
    pub fn with(mut self, col: usize) -> Self {
        self.insert(col);
        self
    }

    /// Returns a copy with `col` removed.
    #[inline]
    pub fn without(mut self, col: usize) -> Self {
        self.remove(col);
        self
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, col: usize) -> bool {
        col < MAX_COLUMNS && self.words[col / 64] & (1u64 << (col % 64)) != 0
    }

    /// Number of columns in the set.
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff the set has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Set union.
    #[inline]
    pub fn union(&self, other: &Self) -> Self {
        let mut words = self.words;
        for (a, b) in words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
        ColumnSet { words }
    }

    /// Set intersection.
    #[inline]
    pub fn intersection(&self, other: &Self) -> Self {
        let mut words = self.words;
        for (a, b) in words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
        ColumnSet { words }
    }

    /// Set difference `self \ other`.
    #[inline]
    pub fn difference(&self, other: &Self) -> Self {
        let mut words = self.words;
        for (a, b) in words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
        ColumnSet { words }
    }

    /// True iff the two sets share at least one column.
    #[inline]
    pub fn intersects(&self, other: &Self) -> bool {
        self.words.iter().zip(other.words.iter()).any(|(a, b)| a & b != 0)
    }

    /// True iff `self ⊆ other`.
    #[inline]
    pub fn is_subset_of(&self, other: &Self) -> bool {
        self.words.iter().zip(other.words.iter()).all(|(a, b)| a & !b == 0)
    }

    /// True iff `self ⊇ other`.
    #[inline]
    pub fn is_superset_of(&self, other: &Self) -> bool {
        other.is_subset_of(self)
    }

    /// True iff `self ⊂ other` (strict).
    #[inline]
    pub fn is_proper_subset_of(&self, other: &Self) -> bool {
        self != other && self.is_subset_of(other)
    }

    /// Index of the smallest column in the set, if any.
    #[inline]
    pub fn min_col(&self) -> Option<usize> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(i * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Index of the largest column in the set, if any.
    #[inline]
    pub fn max_col(&self) -> Option<usize> {
        for (i, &w) in self.words.iter().enumerate().rev() {
            if w != 0 {
                return Some(i * 64 + 63 - w.leading_zeros() as usize);
            }
        }
        None
    }

    /// Iterates the column indices in ascending order.
    #[inline]
    pub fn iter(&self) -> ColumnIter {
        // lint:allow(panic): words is the fixed-size [u64; WORDS] backing
        // array, so index 0 always exists.
        ColumnIter { words: self.words, word_idx: 0, current: self.words[0] }
    }

    /// Collects the column indices into a `Vec`, ascending.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// Iterates all direct subsets (`self` minus one column each).
    pub fn direct_subsets(&self) -> impl Iterator<Item = ColumnSet> + '_ {
        let me = *self;
        self.iter().map(move |c| me.without(c))
    }

    /// Iterates all direct supersets within `universe` (`self` plus one
    /// column of `universe \ self` each).
    pub fn direct_supersets<'a>(
        &'a self,
        universe: &ColumnSet,
    ) -> impl Iterator<Item = ColumnSet> + 'a {
        let me = *self;
        universe.difference(self).iter().map(move |c| me.with(c))
    }

    /// Iterates **all** non-empty proper subsets of `self`.
    ///
    /// Exponential in cardinality; only used on small sets (FD left-hand
    /// sides during shadowed-FD discovery, §5.3 of the paper).
    pub fn proper_subsets(&self) -> Vec<ColumnSet> {
        let cols = self.to_vec();
        let n = cols.len();
        let mut out = Vec::with_capacity((1usize << n).saturating_sub(2));
        for mask in 1..(1u64 << n).saturating_sub(1) {
            let mut s = ColumnSet::empty();
            for (i, &c) in cols.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    s.insert(c);
                }
            }
            out.push(s);
        }
        out
    }

    /// Iterates all subsets of `self` including the empty set and `self`.
    pub fn all_subsets(&self) -> Vec<ColumnSet> {
        let cols = self.to_vec();
        let n = cols.len();
        let mut out = Vec::with_capacity(1usize << n);
        for mask in 0..(1u64 << n) {
            let mut s = ColumnSet::empty();
            for (i, &c) in cols.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    s.insert(c);
                }
            }
            out.push(s);
        }
        out
    }

    /// Formats the set using spreadsheet-style column letters (A, B, .., Z,
    /// A1, B1, ..) — the notation used throughout the paper.
    pub fn letters(&self) -> String {
        let mut s = String::new();
        for c in self.iter() {
            let letter = (b'A' + (c % 26) as u8) as char;
            s.push(letter);
            if c >= 26 {
                s.push_str(&(c / 26).to_string());
            }
        }
        if s.is_empty() {
            s.push('∅');
        }
        s
    }
}

impl FromIterator<usize> for ColumnSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        Self::from_indices(iter)
    }
}

impl fmt::Debug for ColumnSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for ColumnSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letters())
    }
}

/// Ascending iterator over the column indices of a [`ColumnSet`].
pub struct ColumnIter {
    words: [u64; WORDS],
    word_idx: usize,
    current: u64,
}

impl Iterator for ColumnIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= WORDS {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cs(cols: &[usize]) -> ColumnSet {
        ColumnSet::from_indices(cols.iter().copied())
    }

    #[test]
    fn empty_set_properties() {
        let e = ColumnSet::empty();
        assert!(e.is_empty());
        assert_eq!(e.cardinality(), 0);
        assert_eq!(e.min_col(), None);
        assert_eq!(e.max_col(), None);
        assert_eq!(e.to_vec(), Vec::<usize>::new());
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = ColumnSet::empty();
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(255);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(255));
        assert!(!s.contains(1) && !s.contains(65) && !s.contains(254));
        assert_eq!(s.cardinality(), 4);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.cardinality(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut s = ColumnSet::empty();
        s.insert(256);
    }

    #[test]
    fn full_spans_words() {
        for n in [0, 1, 5, 63, 64, 65, 128, 200, 256] {
            let f = ColumnSet::full(n);
            assert_eq!(f.cardinality(), n, "full({n})");
            assert_eq!(f.to_vec(), (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn set_algebra() {
        let a = cs(&[1, 2, 3, 70]);
        let b = cs(&[2, 3, 4, 200]);
        assert_eq!(a.union(&b), cs(&[1, 2, 3, 4, 70, 200]));
        assert_eq!(a.intersection(&b), cs(&[2, 3]));
        assert_eq!(a.difference(&b), cs(&[1, 70]));
        assert!(a.intersects(&b));
        assert!(!cs(&[1]).intersects(&cs(&[2])));
    }

    #[test]
    fn subset_relations() {
        let a = cs(&[1, 2]);
        let b = cs(&[1, 2, 3]);
        assert!(a.is_subset_of(&b));
        assert!(a.is_proper_subset_of(&b));
        assert!(b.is_superset_of(&a));
        assert!(a.is_subset_of(&a));
        assert!(!a.is_proper_subset_of(&a));
        assert!(!b.is_subset_of(&a));
        assert!(ColumnSet::empty().is_subset_of(&a));
    }

    #[test]
    fn min_max_cols() {
        let s = cs(&[5, 100, 180]);
        assert_eq!(s.min_col(), Some(5));
        assert_eq!(s.max_col(), Some(180));
    }

    #[test]
    fn iteration_is_sorted_across_words() {
        let cols = vec![0, 31, 63, 64, 90, 127, 128, 255];
        let s = ColumnSet::from_indices(cols.iter().copied());
        assert_eq!(s.to_vec(), cols);
    }

    #[test]
    fn direct_subsets_enumerates_each_removal() {
        let s = cs(&[1, 4, 9]);
        let subs: Vec<_> = s.direct_subsets().collect();
        assert_eq!(subs.len(), 3);
        assert!(subs.contains(&cs(&[4, 9])));
        assert!(subs.contains(&cs(&[1, 9])));
        assert!(subs.contains(&cs(&[1, 4])));
    }

    #[test]
    fn direct_supersets_respects_universe() {
        let s = cs(&[0, 2]);
        let universe = ColumnSet::full(4);
        let sups: Vec<_> = s.direct_supersets(&universe).collect();
        assert_eq!(sups.len(), 2);
        assert!(sups.contains(&cs(&[0, 1, 2])));
        assert!(sups.contains(&cs(&[0, 2, 3])));
    }

    #[test]
    fn proper_subsets_of_three() {
        let s = cs(&[0, 1, 2]);
        let subs = s.proper_subsets();
        assert_eq!(subs.len(), 6); // 2^3 - 2
        assert!(subs.contains(&cs(&[0])));
        assert!(subs.contains(&cs(&[0, 1])));
        assert!(!subs.contains(&s));
        assert!(!subs.contains(&ColumnSet::empty()));
    }

    #[test]
    fn all_subsets_counts() {
        let s = cs(&[3, 7, 11, 200]);
        assert_eq!(s.all_subsets().len(), 16);
    }

    #[test]
    fn letters_rendering() {
        assert_eq!(cs(&[0, 1, 2]).letters(), "ABC");
        assert_eq!(cs(&[0, 26]).letters(), "AA1");
        assert_eq!(ColumnSet::empty().letters(), "∅");
    }

    #[test]
    fn with_without_are_copies() {
        let s = cs(&[1]);
        let t = s.with(2);
        assert!(!s.contains(2));
        assert!(t.contains(2));
        let u = t.without(1);
        assert!(t.contains(1));
        assert!(!u.contains(1));
    }

    #[test]
    fn hashing_separates_sets_in_every_word() {
        use std::collections::HashSet;
        let state = ColumnSetState::default();
        // Every set of one or two columns, the empty and the full set.
        let sets: Vec<ColumnSet> = (0..MAX_COLUMNS)
            .flat_map(|a| (a..MAX_COLUMNS).map(move |b| cs(&[a, b])))
            .chain([ColumnSet::empty(), ColumnSet::full(MAX_COLUMNS)])
            .collect();
        let hashes: HashSet<u64> = sets.iter().map(|s| state.hash_one(s)).collect();
        assert_eq!(hashes.len(), sets.len(), "two of these sets share a hash");
        assert_eq!(state.hash_one(cs(&[3, 200])), state.hash_one(cs(&[200, 3])));
    }

    #[test]
    fn ordering_is_total_and_consistent_with_eq() {
        let a = cs(&[1]);
        let b = cs(&[2]);
        assert_ne!(a.cmp(&b), std::cmp::Ordering::Equal);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }
}
