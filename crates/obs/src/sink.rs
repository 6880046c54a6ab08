//! Pluggable event sinks. A sink receives span lifecycle events and
//! snapshot dumps as they happen; the JSONL sink streams them to a file so
//! a run can be traced after the fact. A registry with no sink set
//! dispatches nothing.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Duration;

use crate::json::{write_json_string, write_key};
use crate::snapshot::MetricsSnapshot;

/// One instrumentation event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// A span opened. `depth` is the nesting level (0 = root).
    SpanStart { name: &'a str, depth: usize },
    /// A span closed, with its measured duration.
    SpanEnd { name: &'a str, depth: usize, duration: Duration },
    /// A counter was explicitly published (bulk flushes from algorithm
    /// layers; per-`inc` events would be absurdly hot).
    CounterAdd { name: &'a str, delta: u64 },
    /// A full snapshot was drained (end of a profiled run).
    Snapshot { snapshot: &'a MetricsSnapshot },
}

impl Event<'_> {
    /// Serializes the event as one JSON object (one JSONL line, sans
    /// newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        match self {
            Event::SpanStart { name, depth } => {
                out.push_str("{\"type\":\"span_start\",\"name\":");
                write_json_string(&mut out, name);
                out.push_str(&format!(",\"depth\":{depth}}}"));
            }
            Event::SpanEnd { name, depth, duration } => {
                out.push_str("{\"type\":\"span_end\",\"name\":");
                write_json_string(&mut out, name);
                out.push_str(&format!(
                    ",\"depth\":{depth},\"duration_ns\":{}}}",
                    duration.as_nanos()
                ));
            }
            Event::CounterAdd { name, delta } => {
                out.push_str("{\"type\":\"counter\",\"name\":");
                write_json_string(&mut out, name);
                out.push_str(&format!(",\"delta\":{delta}}}"));
            }
            Event::Snapshot { snapshot } => {
                out.push_str("{\"type\":\"snapshot\",");
                write_key(&mut out, "metrics");
                out.push_str(&snapshot.to_json());
                out.push('}');
            }
        }
        out
    }
}

/// Receiver of instrumentation events. `Send` because a registry (and the
/// sink boxed inside it) may be shared across the parallel execution
/// layer's worker threads; emission itself is serialized by the registry.
pub trait EventSink: Send {
    /// Handles one event.
    fn emit(&mut self, event: &Event<'_>);

    /// Flushes buffered output (end of run).
    fn flush(&mut self) {}
}

/// Streams events as JSON Lines to a writer (typically a file).
pub struct JsonlSink<W: Write> {
    writer: W,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncates) `path` and streams events to it.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        Ok(JsonlSink { writer: BufWriter::new(File::create(path)?) })
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer }
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn emit(&mut self, event: &Event<'_>) {
        // A failed trace write must not abort a profiling run; drop the
        // event instead.
        // lint:allow(swallowed-result): tracing is best-effort by design.
        let _ = writeln!(self.writer, "{}", event.to_json());
    }

    fn flush(&mut self) {
        // lint:allow(swallowed-result): tracing is best-effort by design.
        let _ = self.writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_events_serialize() {
        let e = Event::SpanEnd { name: "DUCC", depth: 1, duration: Duration::from_nanos(42) };
        assert_eq!(
            e.to_json(),
            "{\"type\":\"span_end\",\"name\":\"DUCC\",\"depth\":1,\"duration_ns\":42}"
        );
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            sink.emit(&Event::SpanStart { name: "a", depth: 0 });
            sink.emit(&Event::CounterAdd { name: "c", delta: 3 });
            sink.flush();
        }
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("span_start"));
        assert!(lines[1].contains("\"delta\":3"));
    }
}
