//! Server-level counters for `GET /metrics`.
//!
//! These are `muds-obs` instruments held as *detached* handles: the server
//! reads them cumulatively with `get()`/`snapshot()`, so scraping never
//! resets anything — unlike the per-job registries, which drain into each
//! `ProfileResult`'s metrics snapshot. Per-job profiling counters never mix
//! into these: scheduler workers carry no ambient registry, so every
//! `profile()` call installs its own.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use muds_obs::{Counter, Gauge, Histogram};

/// All instruments the daemon exposes. One instance per server, shared by
/// the connection handlers, the cache, and the scheduler. Both exporters
/// render the same private instrument list, the only place that names each
/// instrument's key.
#[derive(Default)]
pub struct ServeMetrics {
    start: Started,
    /// Requests accepted (connections that produced a parseable request).
    pub requests: Counter,
    /// Responses by status class.
    pub responses_2xx: Counter,
    pub responses_4xx: Counter,
    pub responses_5xx: Counter,
    /// Result-cache traffic.
    pub cache_hits: Counter,
    pub cache_misses: Counter,
    /// Requests that joined an in-flight computation instead of starting
    /// their own (the single-flight dedup at work).
    pub cache_coalesced: Counter,
    pub cache_evictions: Counter,
    /// Entries surgically removed because their dataset content changed
    /// (`POST /datasets/:name/append|delete`), as opposed to LRU pressure.
    pub cache_invalidated: Counter,
    /// Append/delete deltas applied to registered datasets.
    pub deltas_applied: Counter,
    pub cache_bytes: Gauge,
    pub cache_entries: Gauge,
    /// Scheduler traffic.
    pub jobs_submitted: Counter,
    pub jobs_completed: Counter,
    pub jobs_failed: Counter,
    pub jobs_expired: Counter,
    /// Jobs refused with 429 because the queue was full.
    pub jobs_rejected: Counter,
    pub queue_depth: Gauge,
    pub jobs_running: Gauge,
    pub datasets: Gauge,
    /// Per-request trace ids: minted fresh by this server vs accepted from
    /// an `X-Muds-Trace` request header.
    pub trace_ids_generated: Counter,
    pub trace_ids_propagated: Counter,
    /// End-to-end job execution latency in microseconds (run only, not
    /// queue wait).
    pub job_latency_us: Histogram,
    /// In-flight HTTP connections (for drain on shutdown).
    pub connections_active: AtomicU64,
    /// Disk persistence (`--data-dir`): successful atomic writes (table
    /// blobs, result documents, manifests).
    pub persist_writes: Counter,
    /// Entries restored intact from disk at startup (tables + results).
    pub persist_recovered: Counter,
    /// Files skipped at startup as torn/orphaned (and deleted).
    pub persist_torn_skipped: Counter,
    /// Connections currently owned by the epoll reactor.
    pub reactor_connections: Gauge,
}

/// Server start time, for `uptime_ms`.
struct Started(Instant);

impl Default for Started {
    fn default() -> Self {
        Started(Instant::now())
    }
}

/// How a scalar is exposed: Prometheus counters carry a `_total` suffix.
#[derive(Clone, Copy)]
enum Kind {
    Counter,
    Gauge,
}

impl ServeMetrics {
    pub fn new() -> Self {
        ServeMetrics::default()
    }

    /// Records a response's status class.
    pub fn count_response(&self, status: u16) {
        match status {
            200..=299 => self.responses_2xx.inc(),
            400..=499 => self.responses_4xx.inc(),
            500..=599 => self.responses_5xx.inc(),
            _ => {}
        }
    }

    /// Every scalar instrument in exposition order, as `(key, kind,
    /// value)`. The latency histogram follows the scalars in both formats.
    fn scalars(&self) -> Vec<(&'static str, Kind, String)> {
        let counter = |key: &'static str, c: &Counter| (key, Kind::Counter, c.get().to_string());
        let gauge = |key: &'static str, g: &Gauge| (key, Kind::Gauge, g.get().to_string());
        let active = self.connections_active.load(Ordering::Relaxed);
        vec![
            ("uptime_ms", Kind::Gauge, self.start.0.elapsed().as_millis().to_string()),
            counter("requests", &self.requests),
            counter("responses_2xx", &self.responses_2xx),
            counter("responses_4xx", &self.responses_4xx),
            counter("responses_5xx", &self.responses_5xx),
            counter("cache_hits", &self.cache_hits),
            counter("cache_misses", &self.cache_misses),
            counter("cache_coalesced", &self.cache_coalesced),
            counter("cache_evictions", &self.cache_evictions),
            counter("cache_invalidated", &self.cache_invalidated),
            counter("deltas_applied", &self.deltas_applied),
            gauge("cache_bytes", &self.cache_bytes),
            gauge("cache_entries", &self.cache_entries),
            counter("jobs_submitted", &self.jobs_submitted),
            counter("jobs_completed", &self.jobs_completed),
            counter("jobs_failed", &self.jobs_failed),
            counter("jobs_expired", &self.jobs_expired),
            counter("jobs_rejected", &self.jobs_rejected),
            gauge("queue_depth", &self.queue_depth),
            gauge("jobs_running", &self.jobs_running),
            gauge("datasets", &self.datasets),
            counter("trace_ids_generated", &self.trace_ids_generated),
            counter("trace_ids_propagated", &self.trace_ids_propagated),
            ("connections_active", Kind::Gauge, active.to_string()),
            counter("persist_writes", &self.persist_writes),
            counter("persist_recovered", &self.persist_recovered),
            counter("persist_torn_skipped", &self.persist_torn_skipped),
            gauge("reactor_connections", &self.reactor_connections),
        ]
    }

    /// The `GET /metrics` document. Flat keys, deterministic order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        for (key, _, value) in self.scalars() {
            out.push_str(&format!("\"{key}\":{value},"));
        }
        let lat = self.job_latency_us.snapshot();
        out.push_str(&format!(
            "\"job_latency_us\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{}}}}}",
            lat.count,
            lat.sum,
            lat.p50(),
            lat.p99()
        ));
        out
    }

    /// Prometheus text exposition (`GET /metrics?format=prom`): version
    /// 0.0.4 format, one `# TYPE` line per family, `muds_`-prefixed names.
    /// The latency histogram is exported as a summary (bucket-resolved
    /// quantiles) because the underlying buckets are log2, not cumulative
    /// `le` buckets.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        for (key, kind, value) in self.scalars() {
            let (name, kind) = match kind {
                Kind::Counter => (format!("{key}_total"), "counter"),
                Kind::Gauge => (key.to_string(), "gauge"),
            };
            out.push_str(&format!("# TYPE muds_{name} {kind}\nmuds_{name} {value}\n"));
        }
        let lat = self.job_latency_us.snapshot();
        out.push_str("# TYPE muds_job_latency_us summary\n");
        out.push_str(&format!("muds_job_latency_us{{quantile=\"0.5\"}} {}\n", lat.p50()));
        out.push_str(&format!("muds_job_latency_us{{quantile=\"0.99\"}} {}\n", lat.p99()));
        out.push_str(&format!("muds_job_latency_us_sum {}\n", lat.sum));
        out.push_str(&format!("muds_job_latency_us_count {}\n", lat.count));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muds_core::json::parse_json;

    #[test]
    fn metrics_json_is_parseable_and_cumulative() {
        let m = ServeMetrics::new();
        m.requests.inc();
        m.count_response(200);
        m.count_response(404);
        m.count_response(500);
        m.job_latency_us.record(1000);
        let doc = parse_json(&m.to_json()).expect("metrics document parses");
        assert_eq!(doc.get("requests").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(doc.get("responses_2xx").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(doc.get("responses_4xx").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(doc.get("responses_5xx").and_then(|v| v.as_u64()), Some(1));
        let lat = doc.get("job_latency_us").expect("latency object");
        assert_eq!(lat.get("count").and_then(|v| v.as_u64()), Some(1));
        // Reading twice does not reset (cumulative, unlike drain_snapshot).
        let doc2 = parse_json(&m.to_json()).unwrap();
        assert_eq!(doc2.get("requests").and_then(|v| v.as_u64()), Some(1));
    }

    /// Validates one line of Prometheus text exposition: either a comment
    /// or `name[{labels}] value` with a legal metric name and float value.
    fn scrape_line_ok(line: &str) -> bool {
        if line.starts_with('#') {
            let mut words = line.split_whitespace();
            return words.next() == Some("#")
                && words.next() == Some("TYPE")
                && words.next().is_some_and(|n| n.starts_with("muds_"))
                && matches!(words.next(), Some("counter" | "gauge" | "summary"))
                && words.next().is_none();
        }
        let (series, value) = match line.rsplit_once(' ') {
            Some(parts) => parts,
            None => return false,
        };
        if value.parse::<f64>().is_err() {
            return false;
        }
        let name = series.split('{').next().unwrap_or("");
        if !name.starts_with("muds_")
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return false;
        }
        match series.split_once('{') {
            None => true,
            Some((_, labels)) => {
                let Some(labels) = labels.strip_suffix('}') else { return false };
                labels.split(',').all(|kv| {
                    kv.split_once('=').is_some_and(|(k, v)| {
                        !k.is_empty() && v.starts_with('"') && v.ends_with('"') && v.len() >= 2
                    })
                })
            }
        }
    }

    #[test]
    fn prometheus_exposition_parses_under_scrape_rules() {
        let m = ServeMetrics::new();
        m.requests.inc();
        m.count_response(200);
        m.trace_ids_generated.inc();
        m.trace_ids_propagated.inc();
        m.job_latency_us.record(1000);
        let text = m.to_prometheus();
        assert!(text.ends_with('\n'), "exposition ends with a newline");
        for line in text.lines() {
            assert!(scrape_line_ok(line), "unparseable scrape line: {line:?}");
        }
        assert!(text.contains("# TYPE muds_requests_total counter\nmuds_requests_total 1\n"));
        assert!(text.contains("# TYPE muds_job_latency_us summary\n"));
        assert!(text.contains("muds_job_latency_us{quantile=\"0.5\"} 1023\n"));
        assert!(text.contains("muds_job_latency_us_sum 1000\n"));
        assert!(text.contains("muds_job_latency_us_count 1\n"));
        assert!(text.contains("muds_trace_ids_generated_total 1\n"));
        // The two exporters must expose the same instrument set: every
        // JSON key maps to exactly one Prometheus family (counters gain a
        // `_total` suffix). Deriving the expected set from `to_json()`
        // instead of hardcoding a count means adding an instrument to only
        // one exporter fails here, while adding it to both passes without
        // touching this test.
        let doc = parse_json(&m.to_json()).expect("metrics document parses");
        let json_keys = doc.as_object().expect("metrics document is an object");
        let families: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("# TYPE"))
            .map(|l| l.split_whitespace().nth(2).unwrap())
            .collect();
        assert_eq!(families.len(), json_keys.len(), "exporters expose different instrument sets");
        let mut seen = std::collections::BTreeSet::new();
        for family in &families {
            assert!(seen.insert(*family), "family {family:?} appears more than once");
            let base = family.strip_prefix("muds_").expect("families are muds_-prefixed");
            let key = base.strip_suffix("_total").unwrap_or(base);
            assert!(
                json_keys.contains_key(key),
                "Prometheus family {family:?} has no JSON counterpart {key:?}"
            );
        }
    }
}
