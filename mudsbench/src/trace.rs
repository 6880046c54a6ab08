//! Span recording for the traced run.
//!
//! The bench opens a span around every call it makes into a layer and
//! keeps the spans in memory until the run ends. Each span line carries
//! `id`, `parent`, `trace`, `name`, `start_ns` and `end_ns` (offsets from
//! the start of the run). Calls that run under a muds-obs registry also
//! stream the program's own phase and counter events through muds-obs's
//! `JsonlSink`; those lines are tagged with the `span` id of the bench span
//! that caused them.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use muds_core::json::json_string;
use muds_obs::{JsonlSink, Metrics};

/// An open bench span; close it with [`Tracer::close`].
#[must_use]
pub struct OpenSpan {
    pub id: u64,
    parent: u64,
    name: String,
    trace: String,
    start: Duration,
}

/// The span log of one run.
pub struct Tracer {
    origin: Instant,
    trace: String,
    next_id: u64,
    lines: Vec<String>,
}

impl Tracer {
    /// A log whose spans default to trace id `trace`.
    pub fn new(trace: &str) -> Tracer {
        Tracer { origin: Instant::now(), trace: trace.to_string(), next_id: 1, lines: Vec::new() }
    }

    /// Time since the run started.
    pub fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// The run's start, for spans timed on other threads.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Opens span `name` under `parent` (0 = root).
    pub fn open(&mut self, name: &str, parent: u64) -> OpenSpan {
        let id = self.next_id;
        self.next_id += 1;
        OpenSpan {
            id,
            parent,
            name: name.to_string(),
            trace: self.trace.clone(),
            start: self.now(),
        }
    }

    /// Closes `span`, returning its duration.
    pub fn close(&mut self, span: OpenSpan) -> Duration {
        let end = self.now();
        self.push(span.id, span.parent, &span.trace, &span.name, span.start, end);
        end.saturating_sub(span.start)
    }

    /// Records a span measured elsewhere (a load thread), returning its id.
    pub fn record(
        &mut self,
        name: &str,
        parent: u64,
        trace: &str,
        start: Duration,
        end: Duration,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.push(id, parent, trace, name, start, end);
        id
    }

    fn push(
        &mut self,
        id: u64,
        parent: u64,
        trace: &str,
        name: &str,
        start: Duration,
        end: Duration,
    ) {
        self.lines.push(format!(
            "{{\"type\":\"bench_span\",\"id\":{id},\"parent\":{parent},\"trace\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
            json_string(trace),
            json_string(name),
            start.as_nanos(),
            end.as_nanos()
        ));
    }

    /// Runs `f` with a fresh muds-obs registry installed whose `JsonlSink`
    /// captures the program's own events, and files them under span `span`.
    pub fn with_program_events<R>(&mut self, span: u64, f: impl FnOnce() -> R) -> R {
        let buffer = SharedBuffer::default();
        let metrics = Metrics::new();
        metrics.set_sink(Box::new(JsonlSink::new(buffer.clone())));
        let out = {
            let _guard = metrics.install();
            f()
        };
        drop(metrics);
        for line in buffer.take().lines().filter(|l| l.starts_with('{')) {
            self.lines.push(format!("{{\"span\":{span},{}", &line[1..]));
        }
        out
    }

    /// Writes the log as JSON Lines, creating parent directories; returns
    /// the number of lines.
    pub fn write(&self, path: &Path) -> Result<usize, String> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let mut text = self.lines.join("\n");
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(self.lines.len())
    }
}

/// A `Write` target the sink can own while the tracer keeps a handle.
#[derive(Clone, Default)]
struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    fn take(&self) -> String {
        let bytes = std::mem::take(&mut *self.0.lock().expect("trace buffer lock poisoned"));
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("trace buffer lock poisoned").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muds_core::json::parse_json;

    #[test]
    fn spans_link_to_parents_and_program_events_to_spans() {
        let mut tracer = Tracer::new("t-1");
        let root = tracer.open("root", 0);
        let child = tracer.open("child", root.id);
        let child_id = child.id;
        let value = tracer.with_program_events(child_id, || {
            muds_obs::span("phase").stop();
            let metrics = Metrics::current().expect("registry installed");
            metrics.drain_snapshot();
            7
        });
        assert_eq!(value, 7);
        tracer.close(child);
        tracer.close(root);
        let docs: Vec<_> =
            tracer.lines.iter().map(|l| parse_json(l).expect("valid JSON")).collect();
        let spans: Vec<_> = docs
            .iter()
            .filter(|d| d.get("type").and_then(|t| t.as_str()) == Some("bench_span"))
            .collect();
        assert_eq!(spans.len(), 2);
        let child_doc =
            spans.iter().find(|d| d.get("name").and_then(|n| n.as_str()) == Some("child")).unwrap();
        assert_eq!(child_doc.get("parent").and_then(|p| p.as_u64()), Some(1));
        assert_eq!(child_doc.get("trace").and_then(|t| t.as_str()), Some("t-1"));
        let start = child_doc.get("start_ns").and_then(|v| v.as_u64()).unwrap();
        assert!(child_doc.get("end_ns").and_then(|v| v.as_u64()).unwrap() >= start);
        let program: Vec<_> = docs.iter().filter(|d| d.get("span").is_some()).collect();
        assert!(program.len() >= 3, "span_start, span_end and snapshot events: {:?}", tracer.lines);
        assert!(program.iter().all(|d| d.get("span").and_then(|s| s.as_u64()) == Some(child_id)));
    }
}
