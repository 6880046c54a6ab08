//! Immutable snapshots of a [`crate::Metrics`] registry: counter/gauge
//! values plus the finished span tree, with JSON and human-readable
//! renderings.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::json::{write_i64_map, write_json_string, write_key, write_u64_map};

/// One finished span: a named, timed region with nested children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanNode {
    pub name: String,
    pub duration: Duration,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Leaf span with no children.
    pub fn leaf(name: impl Into<String>, duration: Duration) -> Self {
        SpanNode { name: name.into(), duration, children: Vec::new() }
    }

    /// Depth of the subtree rooted here (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(SpanNode::depth).max().unwrap_or(0)
    }

    fn write_json(&self, out: &mut String) {
        out.push('{');
        write_key(out, "name");
        write_json_string(out, &self.name);
        out.push(',');
        write_key(out, "duration_ns");
        out.push_str(&self.duration.as_nanos().to_string());
        out.push(',');
        write_key(out, "children");
        out.push('[');
        for (i, child) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            child.write_json(out);
        }
        out.push_str("]}");
    }
}

/// Copy of one [`crate::Histogram`]: total count and sum plus the
/// power-of-two bucket populations (bucket 0 = zero values, bucket `i` =
/// `[2^(i-1), 2^i)`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Value at quantile `q` (0.0–1.0), resolved to the upper edge of the
    /// bucket the quantile falls in (0 for an empty histogram).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return if i == 0 { 0 } else { (1u64 << i).saturating_sub(1) };
            }
        }
        u64::MAX
    }

    /// Median (bucket-resolved; see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile (bucket-resolved).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Point-in-time copy of every counter, gauge, and finished span.
///
/// Counter/gauge maps are `BTreeMap`s so iteration (and therefore JSON
/// output) is deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub spans: Vec<SpanNode>,
}

impl MetricsSnapshot {
    /// Value of a counter, defaulting to 0 when never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Value of a gauge, defaulting to 0 when never set.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Compact single-line JSON object:
    /// `{"counters":{...},"gauges":{...},"spans":[...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        write_key(&mut out, "counters");
        write_u64_map(&mut out, self.counters.iter());
        out.push(',');
        write_key(&mut out, "gauges");
        write_i64_map(&mut out, self.gauges.iter());
        out.push(',');
        write_key(&mut out, "spans");
        out.push('[');
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            span.write_json(&mut out);
        }
        out.push_str("]}");
        out
    }

    /// Indented human-readable rendering: span tree first, then counters
    /// and gauges grouped by dotted prefix.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("phases:\n");
            for span in &self.spans {
                render_span(&mut out, span, 1);
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let width = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name:<width$}  {value}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            let width = self.gauges.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, value) in &self.gauges {
                out.push_str(&format!("  {name:<width$}  {value}\n"));
            }
        }
        out
    }
}

/// Flattens a span forest into `(path, total_ns)` rows in pre-order,
/// joining nesting levels with `/` (`"MUDS/walk lattice"`). Repeated paths
/// — e.g. the per-task spans of a parallel phase — are summed into the
/// first occurrence, so the output is one row per distinct path and its
/// order is deterministic for any interleaving that preserves tree shape.
/// This is the phase table the bench writer embeds in `BENCH_*.json`.
pub fn flatten_phases(spans: &[SpanNode]) -> Vec<(String, u64)> {
    fn walk(out: &mut Vec<(String, u64)>, prefix: &str, span: &SpanNode) {
        let path =
            if prefix.is_empty() { span.name.clone() } else { format!("{prefix}/{}", span.name) };
        let ns = u64::try_from(span.duration.as_nanos()).unwrap_or(u64::MAX);
        match out.iter_mut().find(|(p, _)| *p == path) {
            Some((_, total)) => *total = total.saturating_add(ns),
            None => out.push((path.clone(), ns)),
        }
        for child in &span.children {
            walk(out, &path, child);
        }
    }
    let mut out = Vec::new();
    for span in spans {
        walk(&mut out, "", span);
    }
    out
}

fn render_span(out: &mut String, span: &SpanNode, depth: usize) {
    let indent = "  ".repeat(depth);
    out.push_str(&format!("{indent}{:<32} {:>12.3?}\n", span.name, span.duration));
    for child in &span.children {
        render_span(out, child, depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("pli.hits".into(), 7);
        snap.counters.insert("pli.misses".into(), 3);
        snap.gauges.insert("walk.depth".into(), -2);
        snap.spans.push(SpanNode {
            name: "MUDS".into(),
            duration: Duration::from_nanos(100),
            children: vec![SpanNode::leaf("SPIDER", Duration::from_nanos(40))],
        });
        snap
    }

    #[test]
    fn json_is_deterministic_and_nested() {
        let json = sample().to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"pli.hits\":7,\"pli.misses\":3},\
             \"gauges\":{\"walk.depth\":-2},\
             \"spans\":[{\"name\":\"MUDS\",\"duration_ns\":100,\"children\":\
             [{\"name\":\"SPIDER\",\"duration_ns\":40,\"children\":[]}]}]}"
        );
    }

    #[test]
    fn histogram_quantiles_resolve_bucket_edges() {
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.p50(), 0);
        let mut h = HistogramSnapshot { count: 10, sum: 10, buckets: vec![0; 64] };
        h.buckets[0] = 5; // five zeros
        h.buckets[1] = 5; // five ones
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.p50(), 0, "5th of 10 values is still a zero");
        assert_eq!(h.quantile(0.6), 1);
        assert_eq!(h.p99(), 1);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero_at_every_q() {
        let empty = HistogramSnapshot::default();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(empty.quantile(q), 0, "q={q}");
        }
        assert_eq!(empty.p99(), 0);
    }

    #[test]
    fn single_value_histogram_puts_every_quantile_in_its_bucket() {
        let h = crate::Histogram::detached();
        h.record(7); // bucket 3: [4, 8) → upper edge 7
        let snap = h.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), 7, "q={q}");
        }
        // Out-of-range q clamps rather than panicking or escaping.
        assert_eq!(snap.quantile(-1.0), 7);
        assert_eq!(snap.quantile(2.0), 7);
    }

    /// Nearest-rank pin for the two-sample histogram: `rank =
    /// max(1, ceil(q·2))`, so every q ≤ 0.5 resolves to the lower sample
    /// and every q > 0.5 to the upper one. Guards the off-by-one where
    /// p50 of two samples reads the *upper* value (rank 2) or p99 the
    /// lower (rank 1).
    #[test]
    fn two_sample_histogram_rank_rounding_is_nearest_rank() {
        let h = crate::Histogram::detached();
        h.record(0); // bucket 0 → resolves to 0
        h.record(100); // bucket 7: [64, 128) → upper edge 127
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.quantile(0.0), 0, "rank clamps up to 1");
        assert_eq!(snap.quantile(0.49), 0, "ceil(0.98) = rank 1");
        assert_eq!(snap.p50(), 0, "p50 of two samples is the lower one (rank ceil(1.0) = 1)");
        assert_eq!(snap.quantile(0.51), 127, "ceil(1.02) = rank 2");
        assert_eq!(snap.p99(), 127, "p99 of two samples is the upper one (rank ceil(1.98) = 2)");
        assert_eq!(snap.quantile(1.0), 127);

        // Two equal samples: every quantile lands in the shared bucket.
        let h = crate::Histogram::detached();
        h.record(5);
        h.record(5); // both bucket 3: [4, 8) → upper edge 7
        let snap = h.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), 7, "q={q}");
        }
    }

    #[test]
    fn saturating_values_land_in_the_top_bucket() {
        let h = crate::Histogram::detached();
        h.record(u64::MAX); // would index bucket 64; clamps to 63
        h.record(1u64 << 63);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.buckets[63], 2);
        // Top bucket resolves to its (saturated) upper edge, not u64::MAX.
        assert_eq!(snap.p99(), (1u64 << 63).wrapping_sub(1));
        // Sum saturates bucket math but still counts both observations.
        assert_eq!(snap.sum, u64::MAX.wrapping_add(1u64 << 63));
    }

    #[test]
    fn truncated_bucket_vector_degrades_to_max_sentinel() {
        // Defensive path: a snapshot whose cumulative bucket mass never
        // reaches the rank (can only happen to hand-built snapshots)
        // reports the "beyond every bucket" sentinel instead of looping.
        let h = HistogramSnapshot { count: 10, sum: 0, buckets: vec![1, 2] };
        assert_eq!(h.quantile(0.99), u64::MAX);
        assert_eq!(h.quantile(0.1), 0, "rank 1 still resolves inside bucket 0");
    }

    #[test]
    fn flatten_phases_joins_paths_and_merges_repeats() {
        let mut snap = MetricsSnapshot::default();
        snap.spans.push(SpanNode {
            name: "MUDS".into(),
            duration: Duration::from_nanos(100),
            children: vec![
                SpanNode::leaf("walk", Duration::from_nanos(30)),
                SpanNode {
                    name: "spider".into(),
                    duration: Duration::from_nanos(40),
                    children: vec![SpanNode::leaf("walk", Duration::from_nanos(5))],
                },
                SpanNode::leaf("walk", Duration::from_nanos(12)),
            ],
        });
        snap.spans.push(SpanNode::leaf("report", Duration::from_nanos(9)));
        assert_eq!(
            flatten_phases(&snap.spans),
            vec![
                ("MUDS".to_string(), 100),
                ("MUDS/walk".to_string(), 42), // 30 + 12, repeats merged
                ("MUDS/spider".to_string(), 40),
                ("MUDS/spider/walk".to_string(), 5),
                ("report".to_string(), 9),
            ]
        );
        assert_eq!(snap.spans[0].depth(), 3);
        assert_eq!(flatten_phases(&[]), Vec::new());
    }

    #[test]
    fn accessors_default_to_zero() {
        let snap = sample();
        assert_eq!(snap.counter("pli.hits"), 7);
        assert_eq!(snap.counter("nope"), 0);
        assert_eq!(snap.gauge("walk.depth"), -2);
        assert_eq!(snap.gauge("nope"), 0);
    }

    #[test]
    fn pretty_rendering_indents_children() {
        let text = sample().render_pretty();
        assert!(text.contains("phases:"));
        assert!(text.contains("    SPIDER"), "child indented two levels:\n{text}");
        assert!(text.contains("counters:"));
    }
}
