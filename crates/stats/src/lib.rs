//! Single-scan column statistics on top of the profiler's shared
//! structures (DESIGN.md §15).
//!
//! The paper's holistic thesis — one shared scan should yield *all* the
//! metadata a profiler can produce — extends past dependencies: the
//! dictionary-encoded column store already holds everything a per-column
//! statistics profile needs. The dictionary gives exact distinct counts
//! and lexicographic min/max for free; one pass over the codes yields the
//! per-value histogram that entropy, duplication, and count-weighted
//! length stats derive from; and the same pass streams parsed numeric
//! values into a deterministic quantile sketch. Formats are detected once
//! per *distinct* value (dictionary entry) and aggregated count-weighted,
//! so format detection costs `O(distinct · len)`, not `O(rows · len)`.
//!
//! On top of the raw stats, [`compute_stats`] classifies the discovered
//! dependencies: minimal UCCs become ranked identifier (primary-key)
//! candidates, and unary INDs whose referenced column is a single-column
//! key become foreign-key candidates with inclusion coverage.
//!
//! Work is metered under the `stats.*` counters of the §7 catalogue.

mod format;
mod sketch;

pub use format::{detect_format, SemanticType, ValueFormat};
pub use sketch::QuantileSketch;

use muds_table::Table;

/// Version of the `column_profiles` / `relationships` payload sections.
/// Bump on any wire-visible change to the structures below.
pub const STATS_SCHEMA_VERSION: u64 = 1;

/// Numeric moments and approximate quantiles of a fully numeric column.
/// Present only when *every* non-NULL value matched the integer or decimal
/// format and parsed to a finite `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericStats {
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    /// Population variance (`Σ(x−μ)²/n`), clamped at zero against
    /// floating-point cancellation.
    pub variance: f64,
    /// Approximate quartiles from the deterministic sketch; the rank-error
    /// bound is documented in the private `sketch` module (exact below 256
    /// values).
    pub q25: f64,
    pub median: f64,
    pub q75: f64,
}

/// The full single-scan profile of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column index in the table's schema order.
    pub column: usize,
    pub rows: u64,
    pub nulls: u64,
    /// Exact distinct non-NULL values (the dictionary length).
    pub distinct: u64,
    /// `nulls / rows`; 0 for a zero-row column.
    pub null_fraction: f64,
    /// `distinct / non-NULL rows`; 1 means duplicate-free, 0 for an
    /// all-NULL or zero-row column.
    pub distinct_fraction: f64,
    /// Shannon entropy (bits) of the non-NULL value distribution.
    pub entropy: f64,
    /// Lexicographic extremes over non-NULL values (dictionary ends).
    pub min: Option<String>,
    pub max: Option<String>,
    /// Length stats in characters over non-NULL occurrences,
    /// count-weighted.
    pub min_length: u64,
    pub max_length: u64,
    pub avg_length: f64,
    /// Dominant syntactic format and the fraction of non-NULL occurrences
    /// matching it.
    pub format: ValueFormat,
    pub format_consistency: f64,
    pub semantic_type: SemanticType,
    /// `(2·completeness + format_consistency) / 3` — see DESIGN.md §15.
    pub quality: f64,
    pub numeric: Option<NumericStats>,
}

/// A minimal UCC ranked as a primary-key / identifier candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct IdentifierCandidate {
    /// Member columns, ascending.
    pub columns: Vec<usize>,
    /// True iff every member column is NULL-free.
    pub null_free: bool,
    /// `(1.0 if null-free else 0.5) / |columns|`: short NULL-free keys
    /// rank first, matching how a catalog would pick a primary key.
    pub score: f64,
}

/// A unary IND typed as a foreign-key candidate: the referenced column is
/// itself a single-column key, so the inclusion is a join path.
#[derive(Debug, Clone, PartialEq)]
pub struct FkCandidate {
    pub dependent: usize,
    pub referenced: usize,
    /// `distinct(dependent) / distinct(referenced)` — how much of the
    /// referenced key space the dependent side actually uses. 1.0 when
    /// the referenced column is empty (vacuous inclusion).
    pub coverage: f64,
}

/// Everything the stats layer adds to a profile: per-column statistics
/// plus the dependency classification.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsProfile {
    pub columns: Vec<ColumnStats>,
    pub identifiers: Vec<IdentifierCandidate>,
    pub foreign_keys: Vec<FkCandidate>,
}

/// Profiles every column of `table` in one scan each and classifies the
/// discovered dependencies. `uccs` are the minimal UCCs (as ascending
/// column-index lists) and `unary_inds` the `(dependent, referenced)`
/// pairs, both exactly as the dependency algorithms report them.
pub fn compute_stats(
    table: &Table,
    uccs: &[Vec<usize>],
    unary_inds: &[(usize, usize)],
) -> StatsProfile {
    let mut columns: Vec<ColumnStats> =
        (0..table.num_columns()).map(|c| profile_column(table, c)).collect();
    let identifiers = classify_identifiers(&columns, uccs);
    let foreign_keys = classify_foreign_keys(&columns, uccs, unary_inds);
    // Single-column NULL-free keys are identifiers no matter what their
    // values look like — the UCC is stronger evidence than the format.
    for id in identifiers.iter().filter(|id| id.null_free && id.columns.len() == 1) {
        // lint:allow(panic): the filter pins columns.len() == 1.
        columns[id.columns[0]].semantic_type = SemanticType::Identifier;
    }
    muds_obs::add("stats.identifier_candidates", identifiers.len() as u64);
    muds_obs::add("stats.fk_candidates", foreign_keys.len() as u64);
    StatsProfile { columns, identifiers, foreign_keys }
}

/// One column's profile: a dictionary pass for formats/lengths and a code
/// pass for the histogram and the numeric stream — the "extended decode
/// pass" of §15.
fn profile_column(table: &Table, index: usize) -> ColumnStats {
    let column = table.column(index);
    let rows = column.len() as u64;
    let nulls = column.null_count() as u64;
    let non_null = rows - nulls;
    let dictionary = column.sorted_distinct_values();
    let distinct = dictionary.len() as u64;

    // Dictionary pass: per-distinct-value format and parse results, reused
    // count-weighted below so no per-row string work ever happens.
    let formats: Vec<ValueFormat> = dictionary.iter().map(|v| detect_format(v)).collect();
    let parsed: Vec<Option<f64>> = dictionary
        .iter()
        .zip(&formats)
        .map(|(v, f)| match f {
            ValueFormat::Integer | ValueFormat::Decimal => {
                v.parse::<f64>().ok().filter(|x| x.is_finite())
            }
            _ => None,
        })
        .collect();

    // Code pass: histogram plus the numeric stream in row order.
    let counts = column.value_counts();
    let mut sketch = QuantileSketch::new();
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    let mut numeric_count = 0u64;
    let mut numeric_min = f64::INFINITY;
    let mut numeric_max = f64::NEG_INFINITY;
    for &code in column.codes() {
        if let Some(Some(x)) = parsed.get(code as usize) {
            sketch.insert(*x);
            sum += x;
            sum_sq += x * x;
            numeric_count += 1;
            numeric_min = numeric_min.min(*x);
            numeric_max = numeric_max.max(*x);
        }
    }
    muds_obs::add("stats.values_scanned", rows);
    muds_obs::add("stats.sketch_compactions", sketch.compactions());

    // Aggregation over the histogram (count-weighted, O(distinct)).
    let mut entropy = 0.0f64;
    let mut format_counts = [0u64; ValueFormat::ALL.len()];
    let mut min_length = u64::MAX;
    let mut max_length = 0u64;
    let mut length_sum = 0u64;
    for (code, value) in dictionary.iter().enumerate() {
        let weight = counts[code];
        debug_assert!(weight > 0, "dictionary entries always have occurrences");
        let p = weight as f64 / non_null as f64;
        entropy -= p * p.log2();
        format_counts[formats[code].index()] += weight;
        let chars = value.chars().count() as u64;
        min_length = min_length.min(chars);
        max_length = max_length.max(chars);
        length_sum += weight * chars;
    }
    if non_null == 0 {
        (entropy, min_length) = (0.0, 0);
    }

    let (format, format_consistency) = if non_null == 0 {
        (ValueFormat::Empty, 1.0)
    } else {
        // Deterministic argmax: ties resolve in detection order
        // (max_by_key keeps the *last* max, so iterate reversed).
        let dominant = ValueFormat::ALL
            .into_iter()
            .rev()
            .max_by_key(|f| format_counts[f.index()])
            .unwrap_or(ValueFormat::Text);
        (dominant, format_counts[dominant.index()] as f64 / non_null as f64)
    };

    let null_fraction = if rows == 0 { 0.0 } else { nulls as f64 / rows as f64 };
    let distinct_fraction = if non_null == 0 { 0.0 } else { distinct as f64 / non_null as f64 };
    let completeness = 1.0 - null_fraction;
    let quality = (2.0 * completeness + format_consistency) / 3.0;

    let numeric = if numeric_count == non_null && non_null > 0 {
        let mean = sum / numeric_count as f64;
        let variance = (sum_sq / numeric_count as f64 - mean * mean).max(0.0);
        // The sketch saw numeric_count > 0 inserts, so quantiles exist;
        // the fallback is unreachable but keeps this path panic-free.
        Some(NumericStats {
            min: numeric_min,
            max: numeric_max,
            mean,
            variance,
            q25: sketch.quantile(0.25).unwrap_or(mean),
            median: sketch.quantile(0.5).unwrap_or(mean),
            q75: sketch.quantile(0.75).unwrap_or(mean),
        })
    } else {
        None
    };

    let semantic_type = semantic_for(format, distinct, distinct_fraction);
    muds_obs::add("stats.columns_profiled", 1);
    ColumnStats {
        column: index,
        rows,
        nulls,
        distinct,
        null_fraction,
        distinct_fraction,
        entropy,
        min: dictionary.first().cloned(),
        max: dictionary.last().cloned(),
        min_length,
        max_length,
        avg_length: if non_null == 0 { 0.0 } else { length_sum as f64 / non_null as f64 },
        format,
        format_consistency,
        semantic_type,
        quality,
        numeric,
    }
}

/// Format → semantic type, before the UCC-based identifier upgrade. The
/// precedence table is documented in DESIGN.md §15.
fn semantic_for(format: ValueFormat, distinct: u64, distinct_fraction: f64) -> SemanticType {
    match format {
        ValueFormat::Empty => SemanticType::Unknown,
        ValueFormat::Uuid => SemanticType::Identifier,
        ValueFormat::Bool => SemanticType::Flag,
        ValueFormat::Date => SemanticType::Timestamp,
        ValueFormat::Email => SemanticType::Contact,
        ValueFormat::Integer | ValueFormat::Decimal => SemanticType::Quantity,
        ValueFormat::Text => {
            if distinct <= 64 && distinct_fraction <= 0.5 {
                SemanticType::Category
            } else {
                SemanticType::Text
            }
        }
    }
}

/// Ranks minimal UCCs as identifier candidates: NULL-free beats nullable,
/// short beats wide, ties resolve on the column list.
fn classify_identifiers(columns: &[ColumnStats], uccs: &[Vec<usize>]) -> Vec<IdentifierCandidate> {
    let mut out: Vec<IdentifierCandidate> = uccs
        .iter()
        .filter(|ucc| !ucc.is_empty())
        .map(|ucc| {
            let null_free = ucc.iter().all(|&c| columns[c].nulls == 0);
            let base = if null_free { 1.0 } else { 0.5 };
            IdentifierCandidate { columns: ucc.clone(), null_free, score: base / ucc.len() as f64 }
        })
        .collect();
    out.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.columns.cmp(&b.columns)));
    out
}

/// Types unary INDs as FK candidates: `dep ⊆ ref` qualifies when `ref` is
/// itself a single-column minimal UCC (a key someone could join against).
fn classify_foreign_keys(
    columns: &[ColumnStats],
    uccs: &[Vec<usize>],
    unary_inds: &[(usize, usize)],
) -> Vec<FkCandidate> {
    // lint:allow(panic): the filter pins u.len() == 1.
    let unary_keys: Vec<usize> = uccs.iter().filter(|u| u.len() == 1).map(|u| u[0]).collect();
    unary_inds
        .iter()
        .filter(|(dep, referenced)| dep != referenced && unary_keys.contains(referenced))
        .map(|&(dependent, referenced)| {
            let ref_distinct = columns[referenced].distinct;
            let coverage = if ref_distinct == 0 {
                1.0
            } else {
                columns[dependent].distinct as f64 / ref_distinct as f64
            };
            FkCandidate { dependent, referenced, coverage }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: &[Vec<&str>]) -> Table {
        let cols = rows.first().map_or(0, |r| r.len());
        let names: Vec<String> = (0..cols).map(|c| format!("c{c}")).collect();
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let data: Vec<Vec<String>> =
            rows.iter().map(|r| r.iter().map(|v| v.to_string()).collect()).collect();
        Table::from_rows("t", &name_refs, &data).unwrap()
    }

    #[test]
    fn dictionary_derived_stats_are_exact() {
        let t = table(&[vec!["5", "a"], vec!["3", ""], vec!["5", "b"], vec!["1", "a"]]);
        let s = compute_stats(&t, &[vec![0]], &[]);
        let c0 = &s.columns[0];
        assert_eq!((c0.rows, c0.nulls, c0.distinct), (4, 0, 3));
        assert_eq!(c0.min.as_deref(), Some("1"));
        assert_eq!(c0.max.as_deref(), Some("5"));
        assert_eq!(c0.format, ValueFormat::Integer);
        assert_eq!(c0.format_consistency, 1.0);
        let n = c0.numeric.as_ref().expect("all-integer column has moments");
        assert_eq!(n.min, 1.0);
        assert_eq!(n.max, 5.0);
        assert_eq!(n.mean, 3.5);
        assert_eq!(n.median, 3.0, "rank-2 of [1,3,5,5]");
        let c1 = &s.columns[1];
        assert_eq!((c1.rows, c1.nulls, c1.distinct), (4, 1, 2));
        assert_eq!(c1.null_fraction, 0.25);
        assert!(c1.numeric.is_none());
        assert_eq!(c1.min.as_deref(), Some("a"));
        assert_eq!(c1.max.as_deref(), Some("b"));
    }

    #[test]
    fn entropy_and_distinct_fraction_track_the_distribution() {
        // Two values, 2 rows each: 1 bit of entropy.
        let t = table(&[vec!["x"], vec!["y"], vec!["x"], vec!["y"]]);
        let s = compute_stats(&t, &[], &[]);
        assert!((s.columns[0].entropy - 1.0).abs() < 1e-12);
        assert_eq!(s.columns[0].distinct_fraction, 0.5);
        // Constant column: zero entropy.
        let t = table(&[vec!["k"], vec!["k"]]);
        let s = compute_stats(&t, &[], &[]);
        assert_eq!(s.columns[0].entropy, 0.0);
    }

    #[test]
    fn identifier_ranking_prefers_null_free_short_keys() {
        let t = table(&[vec!["1", "a", "x"], vec!["2", "", "y"], vec!["3", "b", "x"]]);
        // Pretend discovery found: {0} (null-free), {1} (nullable),
        // {1,2} (wide).
        let s = compute_stats(&t, &[vec![0], vec![1], vec![1, 2]], &[]);
        let order: Vec<&[usize]> = s.identifiers.iter().map(|i| i.columns.as_slice()).collect();
        assert_eq!(order, [&[0][..], &[1][..], &[1, 2][..]]);
        assert!(s.identifiers[0].null_free);
        assert_eq!(s.identifiers[0].score, 1.0);
        assert!(!s.identifiers[1].null_free);
        assert_eq!(s.identifiers[1].score, 0.5);
        assert_eq!(s.columns[0].semantic_type, SemanticType::Identifier);
        assert_ne!(s.columns[1].semantic_type, SemanticType::Identifier);
    }

    #[test]
    fn fk_candidates_need_a_unary_key_on_the_referenced_side() {
        let t = table(&[vec!["1", "1"], vec!["2", "1"], vec!["3", "2"], vec!["4", "3"]]);
        // c1 ⊆ c0 and c0 is a key: FK candidate with coverage 3/4.
        let s = compute_stats(&t, &[vec![0]], &[(1, 0)]);
        assert_eq!(s.foreign_keys.len(), 1);
        let fk = &s.foreign_keys[0];
        assert_eq!((fk.dependent, fk.referenced), (1, 0));
        assert_eq!(fk.coverage, 0.75);
        // Same IND without the key: no candidate.
        let s = compute_stats(&t, &[], &[(1, 0)]);
        assert!(s.foreign_keys.is_empty());
    }

    #[test]
    fn semantic_types_follow_the_precedence_table() {
        let t = table(&[
            vec!["true", "2021-04-01", "a@b.co", "1.5", "red", "lorem ipsum dolor"],
            vec!["false", "2021-04-02", "c@d.co", "2.5", "red", "sit amet consectetur"],
            vec!["true", "2021-04-03", "e@f.co", "3.5", "blue", "adipiscing elit sed"],
            vec!["false", "2021-04-04", "g@h.co", "4.5", "blue", "do eiusmod tempor"],
        ]);
        let s = compute_stats(&t, &[], &[]);
        let types: Vec<SemanticType> = s.columns.iter().map(|c| c.semantic_type).collect();
        assert_eq!(
            types,
            [
                SemanticType::Flag,
                SemanticType::Timestamp,
                SemanticType::Contact,
                SemanticType::Quantity,
                SemanticType::Category,
                SemanticType::Text,
            ]
        );
        assert!(s.columns[3].numeric.is_some());
        assert!(s.columns[0].numeric.is_none());
    }

    #[test]
    fn degenerate_shapes_produce_finite_profiles() {
        for t in [
            table(&[]),                   // zero rows via empty input
            table(&[vec![""], vec![""]]), // all NULL
            table(&[vec!["x"]]),          // single cell
        ] {
            let s = compute_stats(&t, &[], &[]);
            for c in &s.columns {
                assert!(c.entropy.is_finite());
                assert!(c.quality.is_finite());
                assert!(c.null_fraction.is_finite());
                assert!(c.avg_length.is_finite());
                assert!((0.0..=1.0).contains(&c.quality), "quality in range: {c:?}");
            }
        }
        let t = table(&[vec![""], vec![""]]);
        let s = compute_stats(&t, &[], &[]);
        assert_eq!(s.columns[0].format, ValueFormat::Empty);
        assert_eq!(s.columns[0].semantic_type, SemanticType::Unknown);
        assert_eq!(s.columns[0].null_fraction, 1.0);
    }

    #[test]
    fn quality_rewards_complete_consistent_columns() {
        let clean = table(&[vec!["1"], vec!["2"], vec!["3"]]);
        let dirty = table(&[vec!["1"], vec![""], vec!["x y"]]);
        let q_clean = compute_stats(&clean, &[], &[]).columns[0].quality;
        let q_dirty = compute_stats(&dirty, &[], &[]).columns[0].quality;
        assert_eq!(q_clean, 1.0);
        assert!(q_dirty < q_clean);
    }
}
