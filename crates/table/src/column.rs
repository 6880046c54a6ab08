//! Dictionary-encoded column storage.
//!
//! Every column is stored as a vector of integer *codes* plus a sorted
//! dictionary of the distinct non-null values. This single representation
//! serves all three profiling tasks of the paper at once (§3, "shared data
//! structures"):
//!
//! * **PLIs** (UCC/FD discovery) are built by grouping equal codes — no
//!   string comparisons after load time;
//! * **SPIDER** (IND discovery) consumes the sorted dictionary directly as
//!   its duplicate-free sorted value list, exactly the synergy the paper
//!   describes ("at construction time, PLIs map values to positions so that
//!   Spider can retrieve duplicate-free value lists");
//! * cardinality statistics fall out of the dictionary length.
//!
//! Encoding interns each value through a hash map into a first-seen
//! provisional id, sorts only the distinct values, and remaps the codes
//! once — each distinct value is copied exactly once, and no cell is
//! compared against the dictionary.

use std::collections::HashMap;
use std::sync::Arc;

/// NULL handling: an empty input field is NULL. For UCC/FD discovery NULL
/// behaves as an ordinary value equal to itself (two NULLs agree) — all
/// NULL rows of a column share the single code [`Column::null_code`], so
/// they land in one PLI equality cluster: an all-NULL column is a constant
/// (∅ → A holds, the column can never be part of a minimal UCC of a
/// multi-row table), and a partially-NULL column treats its NULL rows as
/// one more distinct value. For IND discovery NULLs are ignored on the
/// dependent side: [`Column::sorted_distinct_values`] excludes them, which
/// makes an all-NULL column vacuously included in every other column —
/// both SPIDER and the De Marchi inverted index consume this same list, so
/// the two IND algorithms share one NULL semantics by construction. These
/// are the Metanome conventions the paper's evaluation framework uses;
/// they are pinned by tests here, in `muds-pli`, in `muds-ind`, and by the
/// `null_semantics` integration suite.
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    /// Per-row dictionary codes. Codes are order-preserving: `code(a) <
    /// code(b)` iff `a < b` as strings. NULL rows get [`Column::null_code`],
    /// one past the largest dictionary code, so NULLs form a single equality
    /// class.
    codes: Vec<u32>,
    /// Sorted distinct non-null values; the code of a value is its index.
    /// Shared, so a delta that leaves a dictionary unchanged copies no
    /// string of it.
    dictionary: Arc<Vec<String>>,
    /// Number of NULL entries.
    null_count: usize,
}

impl Column {
    /// Dictionary-encodes `values`. Empty strings become NULL.
    pub fn from_values(name: impl Into<String>, values: &[&str]) -> Self {
        Self::encode(name, values.iter().copied())
    }

    /// [`Column::from_values`] over any exact-size sequence of values, so
    /// table construction can feed a column straight from its row store.
    /// The interning map is never iterated, so its order cannot leak into
    /// the result.
    pub(crate) fn encode<'a>(
        name: impl Into<String>,
        values: impl ExactSizeIterator<Item = &'a str>,
    ) -> Self {
        let mut ids: HashMap<&str, u32> = HashMap::new();
        let mut distinct: Vec<&str> = Vec::new();
        let mut null_count = 0;
        // Provisional ids; `NULL_ID` marks NULL rows until the final
        // NULL code (one past the dictionary) is known.
        const NULL_ID: u32 = u32::MAX;
        let mut codes: Vec<u32> = Vec::with_capacity(values.len());
        for value in values {
            if value.is_empty() {
                null_count += 1;
                codes.push(NULL_ID);
                continue;
            }
            let next = distinct.len() as u32;
            codes.push(*ids.entry(value).or_insert_with(|| {
                distinct.push(value);
                next
            }));
        }
        // Free the map before the remap allocates.
        drop(ids);
        // This sort is SPIDER's "sorting phase": the sorted duplicate-free
        // value lists fall out of dictionary encoding. Distinct values
        // never compare equal, so the order is total and deterministic.
        let mut sorted: Vec<u32> = (0..distinct.len() as u32).collect();
        sorted.sort_unstable_by_key(|&id| distinct[id as usize]);
        let mut code_of = vec![0u32; distinct.len()];
        for (code, &id) in sorted.iter().enumerate() {
            code_of[id as usize] = code as u32;
        }
        let null_code = distinct.len() as u32;
        for code in &mut codes {
            // `NULL_ID` is past the end of `code_of`.
            *code = code_of.get(*code as usize).copied().unwrap_or(null_code);
        }
        let dictionary =
            Arc::new(sorted.iter().map(|&id| distinct[id as usize].to_owned()).collect());
        Column { name: name.into(), codes, dictionary, null_count }
    }

    /// Assembles a column from pre-encoded parts (delta maintenance, which
    /// merges dictionaries and remaps codes instead of re-sorting raw
    /// values). The caller guarantees the [`Column::from_values`]
    /// invariants: `dictionary` sorted and duplicate-free, every code
    /// `<= dictionary.len()`, `null_count` = occurrences of the NULL code.
    pub(crate) fn from_parts(
        name: String,
        codes: Vec<u32>,
        dictionary: Arc<Vec<String>>,
        null_count: usize,
    ) -> Self {
        // lint:allow(panic): windows(2) always yields two-element slices.
        debug_assert!(dictionary.windows(2).all(|w| w[0] < w[1]), "dictionary sorted + deduped");
        debug_assert!(codes.iter().all(|&c| (c as usize) <= dictionary.len()));
        debug_assert_eq!(
            null_count,
            codes.iter().filter(|&&c| c as usize == dictionary.len()).count()
        );
        Column { name, codes, dictionary, null_count }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-row dictionary codes (NULL rows carry [`Self::null_code`]).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True iff the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The sorted, duplicate-free list of non-null values — SPIDER's input.
    pub fn sorted_distinct_values(&self) -> &[String] {
        &self.dictionary
    }

    /// The shared dictionary, for a rebuild that keeps it unchanged.
    pub(crate) fn dictionary(&self) -> &Arc<Vec<String>> {
        &self.dictionary
    }

    /// The code assigned to NULL rows.
    pub fn null_code(&self) -> u32 {
        self.dictionary.len() as u32
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.null_count
    }

    /// Number of distinct values under UCC/FD semantics (NULL counts as one
    /// value when present).
    pub fn distinct_count(&self) -> usize {
        self.dictionary.len() + usize::from(self.null_count > 0)
    }

    /// Total number of distinct codes including the NULL class — the code
    /// domain size, useful for sizing PLI buffers.
    pub fn code_domain(&self) -> usize {
        self.dictionary.len() + 1
    }

    /// Decodes the value of `row`; `None` for NULL.
    pub fn value(&self, row: usize) -> Option<&str> {
        let code = self.codes[row];
        self.dictionary.get(code as usize).map(|s| s.as_str())
    }

    /// Occurrences per code over the whole code domain: `counts[c]` is the
    /// number of rows carrying code `c`, with `counts[null_code]` the NULL
    /// count. One pass over the codes — the histogram the column-statistics
    /// layer derives entropy, duplication, and count-weighted moments from.
    pub fn value_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.code_domain()];
        for &code in &self.codes {
            counts[code as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dictionary_is_sorted_and_deduped() {
        let c = Column::from_values("c", &["b", "a", "b", "c", "a"]);
        assert_eq!(c.sorted_distinct_values(), &["a", "b", "c"]);
        assert_eq!(c.distinct_count(), 3);
        assert_eq!(c.len(), 5);
        assert_eq!(c.null_count(), 0);
    }

    #[test]
    fn codes_are_order_preserving() {
        let c = Column::from_values("c", &["delta", "alpha", "charlie"]);
        // alpha=0, charlie=1, delta=2
        assert_eq!(c.codes(), &[2, 0, 1]);
    }

    #[test]
    fn nulls_share_one_code_past_dictionary() {
        let c = Column::from_values("c", &["x", "", "y", ""]);
        assert_eq!(c.null_count(), 2);
        assert_eq!(c.null_code(), 2);
        assert_eq!(c.codes(), &[0, 2, 1, 2]);
        assert_eq!(c.distinct_count(), 3); // x, y, NULL
        assert_eq!(c.sorted_distinct_values(), &["x", "y"]);
    }

    #[test]
    fn all_null_column() {
        let c = Column::from_values("c", &["", "", ""]);
        assert_eq!(c.distinct_count(), 1);
        assert_eq!(c.sorted_distinct_values().len(), 0);
        assert_eq!(c.null_code(), 0);
        assert_eq!(c.value(0), None);
    }

    #[test]
    fn empty_column() {
        let c = Column::from_values("c", &[]);
        assert!(c.is_empty());
        assert_eq!(c.distinct_count(), 0);
    }

    #[test]
    fn value_round_trips() {
        let c = Column::from_values("c", &["m", "", "k"]);
        assert_eq!(c.value(0), Some("m"));
        assert_eq!(c.value(1), None);
        assert_eq!(c.value(2), Some("k"));
    }

    #[test]
    fn value_counts_histogram_covers_the_code_domain() {
        let c = Column::from_values("c", &["b", "a", "b", "", "b"]);
        // a=0 (1 row), b=1 (3 rows), NULL=2 (1 row).
        assert_eq!(c.value_counts(), vec![1, 3, 1]);
        let empty = Column::from_values("c", &[]);
        assert_eq!(empty.value_counts(), vec![0], "empty column still has the NULL slot");
    }

    proptest::proptest! {
        /// Interning agrees with the encoder it replaced — sort every
        /// non-null value, dedup, binary-search each cell — on value lists
        /// full of empty strings, duplicates and non-ASCII values.
        #[test]
        fn encoding_matches_the_sort_and_search_oracle(
            pieces in proptest::collection::vec(proptest::collection::vec(0usize..8, 0..3), 0..40)
        ) {
            const PIECES: [&str; 8] = ["a", "b", "A", "é", "日本", "z", " ", "ab"];
            let values: Vec<String> =
                pieces.iter().map(|p| p.iter().map(|&i| PIECES[i]).collect()).collect();
            let values: Vec<&str> = values.iter().map(String::as_str).collect();
            let mut dictionary: Vec<&str> =
                values.iter().copied().filter(|v| !v.is_empty()).collect();
            dictionary.sort_unstable();
            dictionary.dedup();
            let null_code = dictionary.len() as u32;
            let codes: Vec<u32> = values
                .iter()
                .map(|v| match dictionary.binary_search(v) {
                    Ok(code) => code as u32,
                    Err(_) => null_code,
                })
                .collect();
            let column = Column::from_values("c", &values);
            proptest::prop_assert_eq!(column.codes(), &codes[..]);
            proptest::prop_assert_eq!(column.sorted_distinct_values(), &dictionary[..]);
            proptest::prop_assert_eq!(
                column.null_count(),
                values.iter().filter(|v| v.is_empty()).count()
            );
        }
    }
}
