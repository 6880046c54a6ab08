//! The daemon: TCP accept loop, request routing, and graceful shutdown.
//!
//! # Endpoints
//!
//! | Method | Path          | Purpose |
//! |--------|---------------|---------|
//! | POST   | `/datasets`   | Register a dataset (JSON `{"name","path"}` or an uploaded CSV body with `?name=`) |
//! | GET    | `/datasets`   | List registered datasets |
//! | POST   | `/profile`    | Run (or fetch) a profiling job: `{"dataset","algorithm","timeout_ms"?}` |
//! | GET    | `/jobs/:id`   | Job status |
//! | GET    | `/metrics`    | Cumulative server counters |
//! | GET    | `/healthz`    | Liveness |
//! | POST   | `/shutdown`   | Graceful shutdown (same path SIGTERM takes) |
//!
//! `POST /profile` semantics: cache hit → `200` immediately (`X-Cache:
//! hit`); miss → the request waits up to its timeout for the job, then
//! either `200` (`X-Cache: miss` for the leader, `coalesced` for requests
//! that joined an in-flight run) or `202` with the job id; full queue →
//! `429` with `Retry-After`.
//!
//! Shutdown (SIGTERM, or `POST /shutdown`) stops the accept loop, lets
//! in-flight connections finish, then drains the job queue and joins the
//! scheduler workers before `run()` returns.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use muds_core::json::{json_string, parse_json, JsonValue};
use muds_core::{Algorithm, ProfilerConfig};
use muds_table::CsvOptions;

use muds_table::TableDelta;

use crate::cache::{Begin, CacheKey, ResultCache};
use crate::http::{Request, Response};
use crate::metrics::ServeMetrics;
use crate::persist::Persist;
use crate::registry::{DatasetInfo, Registry};
use crate::scheduler::{retry_after_secs, JobSpec, JobStatus, Scheduler};

/// Server tunables. `ServeConfig::default()` matches the CLI defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7171` (port 0 picks an ephemeral one).
    pub addr: String,
    /// Scheduler worker threads (0 = available parallelism). Jobs run
    /// single-threaded on their worker, so this is the daemon's whole CPU
    /// budget.
    pub workers: usize,
    /// Bounded job-queue capacity; overflow answers 429.
    pub queue_capacity: usize,
    /// Result-cache byte budget over the stored JSON documents.
    pub cache_capacity: usize,
    /// How long `POST /profile` waits for a result before answering 202.
    /// Also the queued-job expiry deadline. Overridable per request.
    pub default_timeout: Duration,
    /// Largest accepted request body (CSV uploads).
    pub max_body: usize,
    /// Concurrent connection cap; overflow answers 503.
    pub max_connections: usize,
    /// When set, the dataset registry and Ready result-cache entries write
    /// through to this directory and are replayed on restart (§14).
    pub data_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7171".to_string(),
            workers: 0,
            queue_capacity: 128,
            cache_capacity: 64 << 20,
            default_timeout: Duration::from_secs(30),
            max_body: 64 << 20,
            max_connections: 256,
            data_dir: None,
        }
    }
}

/// Shared state behind every connection handler.
pub struct ServerState {
    pub registry: Registry,
    pub cache: Arc<ResultCache>,
    pub scheduler: Scheduler,
    pub metrics: Arc<ServeMetrics>,
    pub(crate) config: ServeConfig,
    shutdown: AtomicBool,
    /// Sequence for server-minted trace ids.
    trace_seq: AtomicU64,
}

impl ServerState {
    /// The trace id for one request: a sanitized `X-Muds-Trace` header if
    /// the client sent one (distributed callers propagate their own ids),
    /// otherwise a fresh `muds-<n>` id. Every response echoes it back.
    fn trace_for(&self, request: &Request) -> String {
        let propagated =
            request.header("x-muds-trace").map(sanitize_trace_id).filter(|t| !t.is_empty());
        match propagated {
            Some(trace) => {
                self.metrics.trace_ids_propagated.inc();
                trace
            }
            None => {
                self.metrics.trace_ids_generated.inc();
                let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed) + 1;
                format!("muds-{seq:08x}")
            }
        }
    }
    /// Requests shutdown: the accept loop exits on its next poll tick.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) || sigterm_received()
    }
}

/// Process-wide SIGTERM/SIGINT latch. A signal handler may only touch
/// static atomics, so this cannot live in per-server state; the accept
/// loop ORs it with the server's own flag.
static TERM_FLAG: AtomicBool = AtomicBool::new(false);

fn sigterm_received() -> bool {
    TERM_FLAG.load(Ordering::Acquire)
}

/// Installs SIGTERM/SIGINT handlers that set [`TERM_FLAG`]. std already
/// links libc on unix, so the two symbols are declared directly instead of
/// pulling in a crate.
fn install_signal_handlers() {
    extern "C" fn on_term(_signum: i32) {
        TERM_FLAG.store(true, Ordering::Release);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal(2)` is linked by std on every unix target, and the
    // declared signature matches libc's. `on_term` is async-signal-safe:
    // it performs a single store to a static `AtomicBool` (lock-free on
    // all supported targets) and touches no allocator, lock, or errno.
    // The `Release` store pairs with the `Acquire` load in
    // `sigterm_received`, so the accept loop observes the latch.
    unsafe {
        signal(SIGTERM, on_term);
        signal(SIGINT, on_term);
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener and spins up the scheduler; `run()` starts
    /// serving.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let metrics = Arc::new(ServeMetrics::new());
        let persist = match &config.data_dir {
            Some(dir) => Some(Persist::open(dir, Arc::clone(&metrics))?),
            None => None,
        };
        let cache = Arc::new(ResultCache::with_persist(
            config.cache_capacity,
            Arc::clone(&metrics),
            persist.clone(),
        ));
        let registry = match &persist {
            Some(persist) => Registry::with_persist(Arc::clone(persist)),
            None => Registry::new(),
        };
        if let Some(persist) = &persist {
            // Replay what survived the last process: intact table blobs,
            // the manifest's name bindings, and Ready cache entries. Torn
            // or orphaned files were counted and skipped by `recover`.
            let recovered = persist.recover();
            registry.restore(recovered.tables, recovered.names);
            for (key, json) in recovered.results {
                cache.restore(&key, json);
            }
            metrics.datasets.set(registry.names_len() as i64);
        }
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2)
        } else {
            config.workers
        };
        let scheduler = Scheduler::new(
            workers,
            config.queue_capacity,
            Arc::clone(&cache),
            Arc::clone(&metrics),
        )?;
        let state = Arc::new(ServerState {
            registry,
            cache,
            scheduler,
            metrics,
            config,
            shutdown: AtomicBool::new(false),
            trace_seq: AtomicU64::new(0),
        });
        Ok(Server { listener, state })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Shared state handle — lets embedders (tests, the CLI) request
    /// shutdown or read metrics while `run()` owns the server.
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Serves until shutdown is requested (SIGTERM, SIGINT, `POST
    /// /shutdown`, or [`ServerState::request_shutdown`]), then drains:
    /// in-flight connections get 5 s to finish, queued jobs run to
    /// completion, workers are joined.
    pub fn run(self) -> std::io::Result<()> {
        install_signal_handlers();
        // Epoll reactor: all sockets on one thread, complete requests
        // handed to a small fixed handler pool. Joined only after the
        // scheduler shut down (which resolves every flight a handler could
        // still be blocked on).
        let pool = crate::reactor::run(self.listener, Arc::clone(&self.state))?;
        self.state.scheduler.shutdown();
        pool.shutdown_join();
        Ok(())
    }
}

/// Routes one parsed request and accounts for it (called from the epoll
/// reactor's handler pool).
pub(crate) fn respond(state: &ServerState, request: &Request) -> Response {
    state.metrics.requests.inc();
    let trace = state.trace_for(request);
    let response = route(state, request, &trace).with_header("X-Muds-Trace", &trace);
    state.metrics.count_response(response.status);
    response
}

/// Keeps a client-supplied trace id header-safe: visible ASCII from a
/// conservative alphabet, capped at 64 chars. Everything else is dropped
/// (an all-hostile header degenerates to empty → a server-minted id).
fn sanitize_trace_id(raw: &str) -> String {
    raw.chars()
        .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | ':'))
        .take(64)
        .collect()
}

fn route(state: &ServerState, request: &Request, trace: &str) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::json(200, "{\"status\":\"ok\"}".to_string()),
        ("GET", "/metrics") => match request.query_param("format") {
            Some("prom") => Response {
                status: 200,
                content_type: "text/plain; version=0.0.4",
                headers: Vec::new(),
                body: state.metrics.to_prometheus().into_bytes(),
            },
            Some(other) => Response::error(400, &format!("unknown metrics format {other:?}")),
            None => Response::json(200, state.metrics.to_json()),
        },
        ("GET", "/datasets") => list_datasets(state),
        ("POST", "/datasets") => register_dataset(state, request),
        ("POST", path) if path.starts_with("/datasets/") && path.ends_with("/append") => {
            let name = &path["/datasets/".len()..path.len() - "/append".len()];
            append_dataset(state, name, request)
        }
        ("POST", path) if path.starts_with("/datasets/") && path.ends_with("/delete") => {
            let name = &path["/datasets/".len()..path.len() - "/delete".len()];
            delete_rows(state, name, request)
        }
        ("POST", "/profile") => profile_endpoint(state, request, trace),
        ("GET", path) if path.starts_with("/jobs/") => job_status(state, &path["/jobs/".len()..]),
        ("POST", "/shutdown") => {
            state.request_shutdown();
            Response::json(200, "{\"status\":\"shutting down\"}".to_string())
        }
        ("GET" | "POST", _) => Response::error(404, "no such endpoint"),
        _ => Response::error(405, "method not allowed"),
    }
}

fn dataset_info_json(info: &DatasetInfo) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"name\":");
    out.push_str(&json_string(&info.name));
    out.push_str(&format!(",\"fingerprint\":\"{}\"", info.fingerprint));
    out.push_str(",\"columns\":[");
    for (i, c) in info.columns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(c));
    }
    out.push_str(&format!(
        "],\"rows\":{},\"rows_deduplicated\":{},\"already_registered\":{}}}",
        info.rows, info.rows_deduplicated, info.already_registered
    ));
    out
}

fn list_datasets(state: &ServerState) -> Response {
    let mut out = String::from("{\"datasets\":[");
    for (i, (name, fp, rows, columns)) in state.registry.list().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"fingerprint\":\"{}\",\"rows\":{},\"columns\":{}}}",
            json_string(name),
            fp,
            rows,
            columns
        ));
    }
    out.push_str("]}");
    Response::json(200, out)
}

fn register_dataset(state: &ServerState, request: &Request) -> Response {
    let content_type = request.header("content-type").unwrap_or("");
    let registered = if content_type.starts_with("application/json") {
        // {"name": ..., "path": ...}: load a CSV file server-side.
        let body = match std::str::from_utf8(&request.body) {
            Ok(body) => body,
            Err(_) => return Response::error(400, "request body is not UTF-8"),
        };
        let doc = match parse_json(body) {
            Ok(doc) => doc,
            Err(e) => return Response::error(400, &format!("invalid JSON body: {e}")),
        };
        let Some(path) = doc.get("path").and_then(JsonValue::as_str) else {
            return Response::error(400, "JSON registration requires a \"path\" string");
        };
        let name =
            doc.get("name").and_then(JsonValue::as_str).map(|s| s.to_string()).unwrap_or_else(
                || {
                    std::path::Path::new(path)
                        .file_stem()
                        .and_then(|s| s.to_str())
                        .unwrap_or("dataset")
                        .to_string()
                },
            );
        state.registry.register_csv_path(&name, path, &CsvOptions::default())
    } else {
        // Anything else is an uploaded CSV body; name comes from the query.
        let Some(name) = request.query_param("name").map(|s| s.to_string()) else {
            return Response::error(400, "CSV upload requires ?name=<dataset-name>");
        };
        if name.is_empty() {
            return Response::error(400, "dataset name must not be empty");
        }
        state.registry.register_csv_bytes(&name, &request.body, &CsvOptions::default())
    };
    match registered {
        Ok(info) => {
            state.metrics.datasets.set(state.registry.names_len() as i64);
            Response::json(201, dataset_info_json(&info))
        }
        Err(e) => Response::error(400, &format!("registration failed: {e}")),
    }
}

/// Shared tail of the append/delete endpoints: apply the delta through the
/// registry, then surgically evict exactly the stale cache identity — every
/// `(old fingerprint, algorithm, config)` entry and nothing else. Results
/// for other datasets (and other fingerprints of this one) stay cached.
fn apply_dataset_delta(state: &ServerState, name: &str, delta: &TableDelta) -> Response {
    let applied = match state.registry.apply_delta(name, delta) {
        Ok(Some(applied)) => applied,
        Ok(None) => return Response::error(404, &format!("dataset {name:?} is not registered")),
        Err(e) => return Response::error(400, &format!("delta rejected: {e}")),
    };
    state.metrics.deltas_applied.inc();
    // An identity delta (empty append, every appended row a duplicate)
    // keeps the fingerprint, so nothing in the cache went stale.
    let evicted = if applied.info.fingerprint == applied.old_fingerprint {
        0
    } else {
        state.cache.evict_fingerprint(applied.old_fingerprint)
    };
    let mut out = String::with_capacity(256);
    out.push_str("{\"dataset\":");
    out.push_str(&json_string(&applied.info.name));
    out.push_str(&format!(
        ",\"fingerprint\":\"{}\",\"previous_fingerprint\":\"{}\"",
        applied.info.fingerprint, applied.old_fingerprint
    ));
    out.push_str(&format!(
        ",\"rows\":{},\"appended_rows\":{},\"deleted_rows\":{},\"rows_deduplicated\":{}",
        applied.info.rows, applied.appended_rows, applied.deleted_rows, applied.rows_deduplicated
    ));
    out.push_str(&format!(
        ",\"affected_columns\":[{}],\"cache_entries_evicted\":{}}}",
        applied.affected_columns.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(","),
        evicted
    ));
    Response::json(200, out)
}

/// `POST /datasets/:name/append` — body is a CSV document whose header must
/// match the dataset's columns; its rows are appended as a delta.
fn append_dataset(state: &ServerState, name: &str, request: &Request) -> Response {
    let Some((_, table)) = state.registry.resolve(name) else {
        return Response::error(404, &format!("dataset {name:?} is not registered"));
    };
    let appended =
        match muds_table::table_from_csv_bytes(name, &request.body, &CsvOptions::default()) {
            Ok(t) => t,
            Err(e) => return Response::error(400, &format!("append body is not valid CSV: {e}")),
        };
    if appended.column_names() != table.column_names() {
        return Response::error(
            400,
            &format!(
                "append columns {:?} do not match dataset columns {:?}",
                appended.column_names(),
                table.column_names()
            ),
        );
    }
    let rows: Vec<Vec<String>> = (0..appended.num_rows())
        .map(|r| appended.row(r).into_iter().map(|v| v.unwrap_or("").to_string()).collect())
        .collect();
    apply_dataset_delta(state, name, &TableDelta::Append { rows })
}

/// `POST /datasets/:name/delete` — body is `{"rows":[id,...]}` with
/// pre-delta row ids; duplicates are tolerated, out-of-range ids are a 400.
fn delete_rows(state: &ServerState, name: &str, request: &Request) -> Response {
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => return Response::error(400, "request body is not UTF-8"),
    };
    let doc = match parse_json(body) {
        Ok(doc) => doc,
        Err(e) => return Response::error(400, &format!("invalid JSON body: {e}")),
    };
    let Some(ids) = doc.get("rows").and_then(JsonValue::as_array) else {
        return Response::error(400, "missing \"rows\" (an array of row ids)");
    };
    let mut rows = Vec::with_capacity(ids.len());
    for id in ids {
        match id.as_usize() {
            Some(row) => rows.push(row),
            None => return Response::error(400, "row ids must be non-negative integers"),
        }
    }
    apply_dataset_delta(state, name, &TableDelta::Delete { rows })
}

fn job_status(state: &ServerState, id: &str) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return Response::error(400, "job id must be an integer");
    };
    match state.scheduler.status(id) {
        Some(record) => {
            let mut out = format!(
                "{{\"id\":{},\"dataset\":{},\"algorithm\":\"{}\",\"status\":\"{}\",\"trace\":{}",
                record.id,
                json_string(&record.dataset),
                record.algorithm.name(),
                record.status.name(),
                json_string(&record.trace)
            );
            if let JobStatus::Failed(reason) = &record.status {
                out.push_str(&format!(",\"error\":{}", json_string(reason)));
            }
            out.push('}');
            Response::json(200, out)
        }
        None => Response::error(404, "unknown or expired job id"),
    }
}

fn profile_endpoint(state: &ServerState, request: &Request, trace: &str) -> Response {
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => return Response::error(400, "request body is not UTF-8"),
    };
    let doc = match parse_json(body) {
        Ok(doc) => doc,
        Err(e) => return Response::error(400, &format!("invalid JSON body: {e}")),
    };
    let Some(dataset) = doc.get("dataset").and_then(JsonValue::as_str) else {
        return Response::error(400, "missing \"dataset\" (a registered name or fingerprint)");
    };
    let Some(algorithm_name) = doc.get("algorithm").and_then(JsonValue::as_str) else {
        return Response::error(400, "missing \"algorithm\" (muds|holistic-fun|baseline|tane)");
    };
    let Some(algorithm) = Algorithm::from_name(algorithm_name) else {
        return Response::error(400, &format!("unknown algorithm {algorithm_name:?}"));
    };
    let timeout = doc
        .get("timeout_ms")
        .and_then(JsonValue::as_u64)
        .map(Duration::from_millis)
        .unwrap_or(state.config.default_timeout);
    let Some((fingerprint, table)) = state.registry.resolve(dataset) else {
        return Response::error(404, &format!("dataset {dataset:?} is not registered"));
    };

    let mut config = ProfilerConfig::default();
    if let Some(seed) = doc.get("seed").and_then(JsonValue::as_u64) {
        config.seed = seed;
    }
    // Daemon responses carry the single-scan column profiles by default
    // (`"stats": false` opts out); the library/CLI default stays off. The
    // flag is part of the cache key, so both variants cache independently
    // and replay byte-identically across restarts.
    config.stats = doc.get("stats").and_then(JsonValue::as_bool).unwrap_or(true);
    let key = CacheKey { fingerprint, algorithm, config: config.cache_key() };

    match state.cache.begin(&key) {
        Begin::Hit(json) => Response::json(200, (*json).clone()).with_header("X-Cache", "hit"),
        Begin::Follower(flight) => wait_for_flight(&flight, timeout, "coalesced"),
        Begin::Leader(flight) => {
            let spec = JobSpec {
                dataset: dataset.to_string(),
                table,
                algorithm,
                config,
                key: key.clone(),
                trace: trace.to_string(),
            };
            // Queued jobs expire if nothing could start them within the
            // request timeout — nobody is left waiting by then.
            let deadline = Some(Instant::now() + timeout);
            match state.scheduler.submit(spec, Arc::clone(&flight), deadline) {
                Ok(_id) => wait_for_flight(&flight, timeout, "miss"),
                Err(_full) => {
                    state.cache.abort(&key, &flight, "job queue full");
                    // Retry once the earliest queued deadline passes — that
                    // job has started or expired by then, freeing a slot.
                    // Clamped ≥ 1 s: a sub-second deadline must not render
                    // as `Retry-After: 0` (an immediate-retry busy loop).
                    let retry = retry_after_secs(state.scheduler.earliest_deadline());
                    Response::error(429, "job queue full, retry shortly")
                        .with_header("Retry-After", &retry.to_string())
                }
            }
        }
    }
}

fn wait_for_flight(
    flight: &Arc<crate::cache::Flight>,
    timeout: Duration,
    cache_disposition: &str,
) -> Response {
    // lint:allow(condvar-loop): Flight::wait re-checks the Done predicate
    // in its own loop around the condvar; this caller only interprets the
    // final outcome (resolved / timed out) once.
    match flight.wait(timeout) {
        Some(Ok(json)) => {
            Response::json(200, (*json).clone()).with_header("X-Cache", cache_disposition)
        }
        Some(Err(error)) => Response::error(500, &error),
        None => {
            let job = flight.job_id().map(|id| id.to_string()).unwrap_or_else(|| "null".into());
            Response::json(
                202,
                format!("{{\"status\":\"pending\",\"job\":{job},\"retry_ms\":250}}"),
            )
            .with_header("Retry-After", &retry_after_secs(None).to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    /// Drives one request against a running server over a real socket.
    /// Sends `Connection: close` so `read_to_end` terminates — the server
    /// otherwise keeps the connection open for reuse.
    pub(crate) fn http(
        addr: SocketAddr,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> (u16, Vec<(String, String)>, Vec<u8>) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n");
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("read response");
        parse_response(&raw)
    }

    /// Reads exactly one response off a keep-alive connection (head plus
    /// `Content-Length` body bytes), leaving the stream usable. `buf`
    /// carries over-read bytes (a pipelined successor) to the next call.
    pub(crate) fn read_one_response(
        stream: &mut TcpStream,
        buf: &mut Vec<u8>,
    ) -> (u16, Vec<(String, String)>, Vec<u8>) {
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = stream.read(&mut chunk).expect("read response head");
            assert!(n > 0, "connection closed before a full response head");
            buf.extend_from_slice(&chunk[..n]);
        };
        let head: Vec<u8> = buf[..head_end + 4].to_vec();
        let (status, headers, _) = parse_response(&head);
        let content_length: usize = header(&headers, "content-length")
            .expect("responses carry Content-Length")
            .parse()
            .expect("numeric Content-Length");
        while buf.len() < head_end + 4 + content_length {
            let n = stream.read(&mut chunk).expect("read response body");
            assert!(n > 0, "connection closed mid response body");
            buf.extend_from_slice(&chunk[..n]);
        }
        let body = buf[head_end + 4..head_end + 4 + content_length].to_vec();
        buf.drain(..head_end + 4 + content_length);
        (status, headers, body)
    }

    fn parse_response(raw: &[u8]) -> (u16, Vec<(String, String)>, Vec<u8>) {
        let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("response head");
        let head = std::str::from_utf8(&raw[..head_end]).expect("utf-8 head");
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap();
        let status: u16 = status_line.split(' ').nth(1).expect("status code").parse().unwrap();
        let headers = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        (status, headers, raw[head_end + 4..].to_vec())
    }

    pub(crate) fn start_server(
        config: ServeConfig,
    ) -> (SocketAddr, Arc<ServerState>, std::thread::JoinHandle<()>) {
        let server = Server::bind(config).expect("bind");
        let addr = server.local_addr().unwrap();
        let state = server.state();
        let handle = std::thread::spawn(move || server.run().expect("server run"));
        (addr, state, handle)
    }

    fn test_config() -> ServeConfig {
        ServeConfig { addr: "127.0.0.1:0".to_string(), workers: 2, ..ServeConfig::default() }
    }

    const CSV: &str = "id,grp,val\n1,a,x\n2,a,x\n3,b,y\n4,b,z\n";

    #[test]
    fn end_to_end_register_profile_and_hit() {
        let (addr, state, handle) = start_server(test_config());

        let (status, _, body) =
            http(addr, "POST", "/datasets?name=t", &[("Content-Type", "text/csv")], CSV.as_bytes());
        assert_eq!(status, 201, "{}", String::from_utf8_lossy(&body));
        let info = parse_json(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(info.get("rows").and_then(JsonValue::as_u64), Some(4));

        let req = b"{\"dataset\":\"t\",\"algorithm\":\"muds\"}";
        let (status, headers, body) =
            http(addr, "POST", "/profile", &[("Content-Type", "application/json")], req);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        assert_eq!(header(&headers, "x-cache"), Some("miss"));
        let payload =
            muds_core::profile_from_json(std::str::from_utf8(&body).unwrap()).expect("wire parses");
        assert_eq!(payload.dataset, "t");
        assert!(!payload.fds.is_empty());

        // Same request again: a hit with a byte-identical payload.
        let (status, headers, body2) =
            http(addr, "POST", "/profile", &[("Content-Type", "application/json")], req);
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "x-cache"), Some("hit"));
        assert_eq!(body, body2, "hits serve the exact cached document");
        assert_eq!(state.metrics.cache_hits.get(), 1);
        assert_eq!(state.metrics.jobs_completed.get(), 1);

        state.request_shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn profile_validates_input_and_unknown_datasets() {
        let (addr, state, handle) = start_server(test_config());
        let post = |body: &str| {
            http(addr, "POST", "/profile", &[("Content-Type", "application/json")], body.as_bytes())
                .0
        };
        assert_eq!(post("not json"), 400);
        assert_eq!(post("{\"algorithm\":\"muds\"}"), 400);
        assert_eq!(post("{\"dataset\":\"x\",\"algorithm\":\"nope\"}"), 400);
        assert_eq!(post("{\"dataset\":\"ghost\",\"algorithm\":\"muds\"}"), 404);
        let (status, _, _) = http(addr, "GET", "/nope", &[], b"");
        assert_eq!(status, 404);
        let (status, _, _) = http(addr, "DELETE", "/datasets", &[], b"");
        assert_eq!(status, 405);
        state.request_shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn register_by_path_and_by_body_share_content() {
        let (addr, state, handle) = start_server(test_config());
        let dir = std::env::temp_dir().join(format!("muds-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("upload.csv");
        std::fs::write(&path, CSV).unwrap();

        let body =
            format!("{{\"name\":\"from-path\",\"path\":{}}}", json_string(path.to_str().unwrap()));
        let (status, _, body) = http(
            addr,
            "POST",
            "/datasets",
            &[("Content-Type", "application/json")],
            body.as_bytes(),
        );
        assert_eq!(status, 201, "{}", String::from_utf8_lossy(&body));
        let first = parse_json(std::str::from_utf8(&body).unwrap()).unwrap();

        let (status, _, body) = http(
            addr,
            "POST",
            "/datasets?name=from-body",
            &[("Content-Type", "text/csv")],
            CSV.as_bytes(),
        );
        assert_eq!(status, 201);
        let second = parse_json(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(
            first.get("fingerprint").and_then(JsonValue::as_str),
            second.get("fingerprint").and_then(JsonValue::as_str),
            "path and body registrations of the same CSV share a fingerprint"
        );
        assert_eq!(second.get("already_registered"), Some(&JsonValue::Bool(true)));

        let (status, _, listing) = http(addr, "GET", "/datasets", &[], b"");
        assert_eq!(status, 200);
        let listing = parse_json(std::str::from_utf8(&listing).unwrap()).unwrap();
        assert_eq!(listing.get("datasets").and_then(|d| d.as_array()).map(|a| a.len()), Some(2));

        std::fs::remove_dir_all(&dir).ok();
        state.request_shutdown();
        handle.join().unwrap();
    }

    /// The delta endpoints end-to-end: append re-fingerprints the dataset
    /// and surgically evicts only the stale cache identity — a different
    /// dataset's cached result must still hit afterwards.
    #[test]
    fn append_invalidates_only_the_affected_cache_entries() {
        let (addr, state, handle) = start_server(test_config());
        let (status, _, _) =
            http(addr, "POST", "/datasets?name=t", &[("Content-Type", "text/csv")], CSV.as_bytes());
        assert_eq!(status, 201);
        let other_csv = "k,v\n1,p\n2,q\n";
        let (status, _, _) = http(
            addr,
            "POST",
            "/datasets?name=other",
            &[("Content-Type", "text/csv")],
            other_csv.as_bytes(),
        );
        assert_eq!(status, 201);

        // Warm the cache: t+muds, t+tane, other+muds.
        for req in [
            &b"{\"dataset\":\"t\",\"algorithm\":\"muds\"}"[..],
            &b"{\"dataset\":\"t\",\"algorithm\":\"tane\"}"[..],
            &b"{\"dataset\":\"other\",\"algorithm\":\"muds\"}"[..],
        ] {
            let (status, _, _) =
                http(addr, "POST", "/profile", &[("Content-Type", "application/json")], req);
            assert_eq!(status, 200);
        }

        // Append one row to t (header must match).
        let (status, _, body) = http(
            addr,
            "POST",
            "/datasets/t/append",
            &[("Content-Type", "text/csv")],
            b"id,grp,val\n5,c,w\n",
        );
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let doc = parse_json(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(doc.get("appended_rows").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(doc.get("rows").and_then(JsonValue::as_u64), Some(5));
        assert_ne!(
            doc.get("fingerprint").and_then(JsonValue::as_str),
            doc.get("previous_fingerprint").and_then(JsonValue::as_str),
            "content changed, fingerprint changed"
        );
        // Both algorithm variants of t's old content were evicted; other's
        // entry was not.
        assert_eq!(doc.get("cache_entries_evicted").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(state.metrics.cache_invalidated.get(), 2);
        assert_eq!(state.metrics.deltas_applied.get(), 1);

        // Untouched dataset still hits the cache...
        let hits_before = state.metrics.cache_hits.get();
        let (status, headers, _) = http(
            addr,
            "POST",
            "/profile",
            &[("Content-Type", "application/json")],
            b"{\"dataset\":\"other\",\"algorithm\":\"muds\"}",
        );
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "x-cache"), Some("hit"), "untouched dataset survives");
        assert_eq!(state.metrics.cache_hits.get(), hits_before + 1);
        // ...while the appended dataset re-profiles from scratch.
        let (status, headers, body) = http(
            addr,
            "POST",
            "/profile",
            &[("Content-Type", "application/json")],
            b"{\"dataset\":\"t\",\"algorithm\":\"muds\"}",
        );
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "x-cache"), Some("miss"), "stale entry was evicted");
        let payload =
            muds_core::profile_from_json(std::str::from_utf8(&body).unwrap()).expect("wire parses");
        assert_eq!(payload.dataset, "t", "fresh profile of the patched dataset");

        state.request_shutdown();
        handle.join().unwrap();
    }

    /// `POST /datasets/:name/delete` removes rows by pre-delta id and
    /// validates its input; mismatched append headers are rejected.
    #[test]
    fn delete_endpoint_removes_rows_and_validates() {
        let (addr, state, handle) = start_server(test_config());
        let (status, _, _) =
            http(addr, "POST", "/datasets?name=t", &[("Content-Type", "text/csv")], CSV.as_bytes());
        assert_eq!(status, 201);

        let (status, _, body) = http(
            addr,
            "POST",
            "/datasets/t/delete",
            &[("Content-Type", "application/json")],
            b"{\"rows\":[0,2]}",
        );
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let doc = parse_json(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(doc.get("deleted_rows").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(doc.get("rows").and_then(JsonValue::as_u64), Some(2));

        // Out-of-range ids, bad bodies, unknown datasets, bad headers.
        let post = |path: &str, ct: &str, body: &[u8]| {
            http(addr, "POST", path, &[("Content-Type", ct)], body).0
        };
        assert_eq!(post("/datasets/t/delete", "application/json", b"{\"rows\":[99]}"), 400);
        assert_eq!(post("/datasets/t/delete", "application/json", b"{\"rows\":[-1]}"), 400);
        assert_eq!(post("/datasets/t/delete", "application/json", b"{}"), 400);
        assert_eq!(post("/datasets/ghost/delete", "application/json", b"{\"rows\":[0]}"), 404);
        assert_eq!(post("/datasets/ghost/append", "text/csv", b"id,grp,val\n9,z,z\n"), 404);
        assert_eq!(post("/datasets/t/append", "text/csv", b"wrong,header\n1,2\n"), 400);
        state.request_shutdown();
        handle.join().unwrap();
    }

    /// Socket-level pin of the http.rs framing fixes: duplicate
    /// Content-Length headers answer 400, and a peer that closes mid-body
    /// gets a prompt 400 instead of a blocked connection thread.
    #[test]
    fn framing_violations_answer_400_over_sockets() {
        let (addr, state, handle) = start_server(test_config());

        // Duplicate Content-Length: the smuggling shape.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream
            .write_all(b"POST /profile HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\n{}")
            .unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let (status, _, _) = parse_response(&raw);
        assert_eq!(status, 400);

        // Mid-body close: write a short body, shut down the write half.
        let start = Instant::now();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream
            .write_all(b"POST /profile HTTP/1.1\r\nHost: t\r\nContent-Length: 64\r\n\r\nshort")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let (status, _, _) = parse_response(&raw);
        assert_eq!(status, 400, "mid-body close is a clean 400");
        assert!(start.elapsed() < Duration::from_secs(5), "no blocking retry loop");

        state.request_shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn trace_ids_are_minted_echoed_and_propagated() {
        let (addr, state, handle) = start_server(test_config());

        // No header: the server mints an id and echoes it.
        let (status, headers, _) = http(addr, "GET", "/healthz", &[], b"");
        assert_eq!(status, 200);
        let minted = header(&headers, "x-muds-trace").expect("trace echoed").to_string();
        assert!(minted.starts_with("muds-"), "minted id: {minted}");
        let (_, headers2, _) = http(addr, "GET", "/healthz", &[], b"");
        assert_ne!(minted, header(&headers2, "x-muds-trace").unwrap(), "ids are distinct");
        assert_eq!(state.metrics.trace_ids_generated.get(), 2);

        // Client-supplied header: propagated verbatim (it is header-safe).
        let (status, _, _) =
            http(addr, "POST", "/datasets?name=t", &[("Content-Type", "text/csv")], CSV.as_bytes());
        assert_eq!(status, 201);
        let req = b"{\"dataset\":\"t\",\"algorithm\":\"tane\"}";
        let (status, headers, _) = http(
            addr,
            "POST",
            "/profile",
            &[("Content-Type", "application/json"), ("X-Muds-Trace", "cli-abc.123")],
            req,
        );
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "x-muds-trace"), Some("cli-abc.123"));
        assert_eq!(state.metrics.trace_ids_propagated.get(), 1);

        // The job record carries the trace id into /jobs/:id.
        let (status, _, body) = http(addr, "GET", "/jobs/1", &[], b"");
        assert_eq!(status, 200);
        let doc = parse_json(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(doc.get("trace").and_then(JsonValue::as_str), Some("cli-abc.123"));

        // A hostile header sanitizes down; an all-hostile one is replaced.
        let (_, headers, _) =
            http(addr, "GET", "/healthz", &[("X-Muds-Trace", "a\tb<script>%0d%0a")], b"");
        let echoed = header(&headers, "x-muds-trace").unwrap();
        assert_eq!(echoed, "abscript0d0a");

        // /metrics (JSON flavor) reports both counters.
        let (_, _, body) = http(addr, "GET", "/metrics", &[], b"");
        let doc = parse_json(std::str::from_utf8(&body).unwrap()).unwrap();
        assert!(doc.get("trace_ids_generated").and_then(JsonValue::as_u64).unwrap() >= 3);
        // 2: the real propagated id plus the sanitized hostile one.
        assert_eq!(doc.get("trace_ids_propagated").and_then(JsonValue::as_u64), Some(2));

        state.request_shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn metrics_prom_format_is_scrapeable_over_http() {
        let (addr, state, handle) = start_server(test_config());
        let (status, headers, body) = http(addr, "GET", "/metrics?format=prom", &[], b"");
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "content-type"), Some("text/plain; version=0.0.4"));
        let text = std::str::from_utf8(&body).expect("utf-8 exposition");
        assert!(text.contains("# TYPE muds_requests_total counter"));
        assert!(text.contains("muds_requests_total 1"));
        // Unknown formats are a client error, not silent JSON.
        let (status, _, _) = http(addr, "GET", "/metrics?format=xml", &[], b"");
        assert_eq!(status, 400);
        state.request_shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn shutdown_endpoint_stops_the_server() {
        let (addr, _state, handle) = start_server(test_config());
        let (status, _, _) = http(addr, "POST", "/shutdown", &[], b"");
        assert_eq!(status, 200);
        handle.join().unwrap();
        // The listener is gone; connecting now fails (possibly after the
        // OS drains the backlog, so allow a few attempts).
        let mut attempts = 0;
        loop {
            match TcpStream::connect(addr) {
                Err(_) => break,
                Ok(_) if attempts > 50 => panic!("server still accepting after shutdown"),
                Ok(_) => {
                    attempts += 1;
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    /// Keep-alive reuse after routed errors: a fully framed request has
    /// its body consumed even when the answer is a 4xx, so a pipelined
    /// successor on the same socket must be served — no desync, no close.
    #[test]
    fn keep_alive_survives_routed_errors_and_serves_pipelined_requests() {
        let (addr, state, handle) = start_server(test_config());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        // Three pipelined requests in one write: a rejected POST (404,
        // with a body that must be drained), a plain GET, and a closing GET.
        stream
            .write_all(
                b"POST /nope HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello\
                  GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
                  GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
        let mut buf = Vec::new();
        let (status, headers, _) = read_one_response(&mut stream, &mut buf);
        assert_eq!(status, 404, "routed error for the bad endpoint");
        assert_eq!(header(&headers, "connection"), Some("keep-alive"));
        let (status, _, _) = read_one_response(&mut stream, &mut buf);
        assert_eq!(status, 200, "pipelined request after a 404 is served");
        let (status, headers, _) = read_one_response(&mut stream, &mut buf);
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "connection"), Some("close"));
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "Connection: close honored");
        state.request_shutdown();
        handle.join().unwrap();
    }

    /// Framing-level rejections (oversized or unparseable Content-Length)
    /// answer and then close: the request's unread body bytes are still in
    /// flight, so reusing the stream would desync it. A pipelined
    /// follow-up must get EOF, never an answer.
    #[test]
    fn oversized_and_hostile_content_lengths_answer_and_close() {
        let (addr, state, handle) = start_server(test_config());
        let attempt = |content_length: &str| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            stream
                .write_all(
                    format!(
                        "POST /profile HTTP/1.1\r\nHost: t\r\nContent-Length: {content_length}\r\n\r\n\
                         GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                    )
                    .as_bytes(),
                )
                .unwrap();
            let mut buf = Vec::new();
            let (status, headers, _) = read_one_response(&mut stream, &mut buf);
            assert_eq!(header(&headers, "connection"), Some("close"));
            let mut rest = buf;
            stream.read_to_end(&mut rest).unwrap();
            assert!(
                rest.is_empty(),
                "pipelined request after a framing rejection must get EOF, got {:?}",
                String::from_utf8_lossy(&rest)
            );
            status
        };
        // 64 GiB and u64::MAX: parse fine, exceed the cap → 413.
        assert_eq!(attempt("68719476736"), 413);
        assert_eq!(attempt("18446744073709551615"), 413);
        // u64::MAX + 1 and negative: not a length at all → 400.
        assert_eq!(attempt("18446744073709551616"), 400);
        assert_eq!(attempt("-1"), 400);
        state.request_shutdown();
        handle.join().unwrap();
    }

    pub(crate) fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
        headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}
