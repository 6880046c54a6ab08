//! Load smoke test for the profiling daemon — the serving layer's
//! acceptance gate:
//!
//! * 64 concurrent `POST /profile` across 3 datasets × 4 algorithms with
//!   zero 5xx responses,
//! * a cache hit-rate above zero and a positive single-flight coalesce
//!   count,
//! * exactly one profiling run per distinct `(dataset, algorithm)` key,
//! * identical dependency payloads for identical keys regardless of how
//!   requests interleave or how many scheduler workers serve them.
//!
//! Everything runs in-process over real sockets; no external client.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::Duration;

use muds_core::json::parse_json;
use muds_core::{profile_from_json, Algorithm, ProfilePayload};
use muds_serve::{ServeConfig, Server, ServerState};

/// The tests in this binary share one process, and
/// `a_thousand_idle_keep_alive_connections_cost_no_threads` counts its OS
/// threads. Every test holds this lock for its whole body, so no other
/// test's client threads are alive during that count.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`]; a test that panicked while holding it must not fail
/// the others.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn start_server(
    config: ServeConfig,
) -> (SocketAddr, Arc<ServerState>, std::thread::JoinHandle<()>) {
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let state = server.state();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, state, handle)
}

fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    // `Connection: close` so `read_to_end` terminates — the server
    // otherwise keeps the connection open for reuse.
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("response head");
    let head = std::str::from_utf8(&raw[..head_end]).expect("utf-8 head");
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next().unwrap().split(' ').nth(1).unwrap().parse().unwrap();
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, raw[head_end + 4..].to_vec())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

/// Generates a CSV big enough that one profiling run takes real wall time
/// (so concurrent requests overlap) with a mix of keys, FDs, and repeats.
/// `salt` varies the content per dataset.
fn dataset_csv(salt: u64, rows: usize) -> String {
    let mut out = String::from("id,grp,bucket,mod7,noise,tag,pair,wide\n");
    let mut state = salt.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    for i in 0..rows {
        let noise = next() % 97;
        out.push_str(&format!(
            "{i},g{},b{},m{},n{noise},t{},p{}-{},w{}\n",
            i % 11,
            i / 50,
            i % 7,
            (i as u64 + salt) % 5,
            i % 11,
            i % 7,
            noise % 13,
        ));
    }
    out
}

const DATASETS: [&str; 3] = ["alpha", "beta", "gamma"];

fn register_datasets(addr: SocketAddr) {
    for (i, name) in DATASETS.iter().enumerate() {
        let csv = dataset_csv(i as u64 + 1, 400 + 100 * i);
        let (status, _, body) =
            http(addr, "POST", &format!("/datasets?name={name}"), "text/csv", csv.as_bytes());
        assert_eq!(status, 201, "registration failed: {}", String::from_utf8_lossy(&body));
    }
}

fn profile_request(dataset: &str, algorithm: Algorithm) -> String {
    format!(
        "{{\"dataset\":\"{dataset}\",\"algorithm\":\"{}\",\"timeout_ms\":120000}}",
        algorithm.name()
    )
}

#[test]
fn sixty_four_concurrent_profiles_over_three_datasets() {
    let _serial = serial();
    let (addr, state, handle) = start_server(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_capacity: 64,
        ..ServeConfig::default()
    });
    register_datasets(addr);

    const CLIENTS: usize = 64;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let results: Vec<(String, Algorithm, u16, String, Vec<u8>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let dataset = DATASETS[i % DATASETS.len()];
                    let algorithm = Algorithm::ALL[i % Algorithm::ALL.len()];
                    let body = profile_request(dataset, algorithm);
                    barrier.wait();
                    let (status, headers, body) =
                        http(addr, "POST", "/profile", "application/json", body.as_bytes());
                    let disposition = header(&headers, "x-cache").unwrap_or("none").to_string();
                    (dataset.to_string(), algorithm, status, disposition, body)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    // Zero 5xx — and with a generous timeout and a queue sized for the
    // wave, every request resolves to a full 200.
    for (dataset, algorithm, status, _, body) in &results {
        assert!(
            *status < 500,
            "5xx for {dataset}/{algorithm:?}: {}",
            String::from_utf8_lossy(body)
        );
        assert_eq!(
            *status,
            200,
            "expected 200 for {dataset}/{algorithm:?}, got {status}: {}",
            String::from_utf8_lossy(body)
        );
    }

    // Identical keys yield identical dependency payloads, however the 64
    // requests interleaved across hit/miss/coalesced paths.
    let mut by_key: BTreeMap<(String, String), Vec<ProfilePayload>> = BTreeMap::new();
    for (dataset, algorithm, _, _, body) in &results {
        let payload = profile_from_json(std::str::from_utf8(body).expect("utf-8 response"))
            .expect("response parses as the wire format");
        assert_eq!(&payload.dataset, dataset);
        assert_eq!(payload.algorithm, *algorithm);
        by_key.entry((dataset.clone(), algorithm.name().to_string())).or_default().push(payload);
    }
    assert_eq!(by_key.len(), DATASETS.len() * Algorithm::ALL.len());
    for ((dataset, algorithm), payloads) in &by_key {
        for p in &payloads[1..] {
            assert_eq!(
                p, &payloads[0],
                "divergent payloads for {dataset}/{algorithm} under concurrency"
            );
        }
    }

    // A follow-up sweep is all cache hits.
    for dataset in DATASETS {
        for algorithm in Algorithm::ALL {
            let (status, headers, _) = http(
                addr,
                "POST",
                "/profile",
                "application/json",
                profile_request(dataset, algorithm).as_bytes(),
            );
            assert_eq!(status, 200);
            assert_eq!(header(&headers, "x-cache"), Some("hit"));
        }
    }

    // Server counters: exactly one profiling run per distinct key (the
    // single-flight guarantee at load), hits and coalesces both observed.
    let (status, _, metrics_body) = http(addr, "GET", "/metrics", "application/json", b"");
    assert_eq!(status, 200);
    let metrics = parse_json(std::str::from_utf8(&metrics_body).unwrap()).expect("metrics parse");
    let get = |k: &str| metrics.get(k).and_then(|v| v.as_u64()).unwrap_or_else(|| panic!("{k}"));
    assert_eq!(get("responses_5xx"), 0);
    assert_eq!(get("cache_misses"), 12, "one leader per (dataset, algorithm) key");
    assert_eq!(get("jobs_completed"), 12, "exactly one profiling run per key");
    assert_eq!(get("jobs_failed"), 0);
    assert_eq!(get("jobs_expired"), 0);
    assert!(get("cache_hits") >= 12, "follow-up sweep must hit");
    assert!(
        get("cache_coalesced") > 0,
        "64 simultaneous clients over 12 keys must coalesce (got metrics {})",
        String::from_utf8_lossy(&metrics_body)
    );
    assert_eq!(get("cache_hits") + get("cache_coalesced") + get("cache_misses"), 64 + 12);

    // Worker-count independence: a single-worker server produces the same
    // dependency payloads for the same content.
    let (addr1, state1, handle1) = start_server(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    });
    register_datasets(addr1);
    for dataset in DATASETS {
        for algorithm in Algorithm::ALL {
            let (status, _, body) = http(
                addr1,
                "POST",
                "/profile",
                "application/json",
                profile_request(dataset, algorithm).as_bytes(),
            );
            assert_eq!(status, 200);
            let payload = profile_from_json(std::str::from_utf8(&body).unwrap()).unwrap();
            let group = &by_key[&(dataset.to_string(), algorithm.name().to_string())];
            assert_eq!(&payload, &group[0], "payloads differ across worker counts");
        }
    }
    state1.request_shutdown();
    handle1.join().unwrap();

    state.request_shutdown();
    handle.join().unwrap();
}

/// Counts this process's OS threads via /proc — the ground truth for
/// "connections cost file descriptors, not threads".
fn os_thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").expect("/proc/self/task").count()
}

/// The reactor's scalability gate: ≥ 1k concurrent idle keep-alive
/// connections are held with zero 5xx responses and an OS thread count
/// that does not grow with the connection count.
#[test]
fn a_thousand_idle_keep_alive_connections_cost_no_threads() {
    let _serial = serial();
    const CONNS: usize = 1000;
    let (addr, state, handle) = start_server(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        max_connections: CONNS + 64,
        ..ServeConfig::default()
    });

    // One request first so the reactor, handler pool, and scheduler
    // workers are all running before the baseline thread count is taken.
    let (status, _, _) = http(addr, "GET", "/healthz", "text/plain", b"");
    assert_eq!(status, 200);
    let threads_before = os_thread_count();
    let mut sockets = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let stream = TcpStream::connect(addr).expect("connect idle keep-alive socket");
        stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        sockets.push(stream);
    }
    // Wait until the reactor has admitted every socket (accept happens on
    // its own readiness ticks).
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while (state.metrics.reactor_connections.get() as usize) < CONNS {
        assert!(std::time::Instant::now() < deadline, "reactor never admitted all sockets");
        std::thread::sleep(Duration::from_millis(20));
    }
    let threads_with_conns = os_thread_count();
    assert!(
        threads_with_conns <= threads_before + 2,
        "thread count must not scale with connections: {threads_before} before, \
         {threads_with_conns} with {CONNS} held open"
    );

    // Every sampled socket is alive and reusable: two requests per socket
    // over the same stream proves keep-alive reuse, not just acceptance.
    let read_response = |stream: &mut TcpStream| {
        let mut raw = Vec::new();
        let mut chunk = [0u8; 4096];
        let (head_end, content_length) = loop {
            if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&raw[..pos]).expect("utf-8 head");
                let cl = head
                    .split("\r\n")
                    .find_map(|l| {
                        l.split_once(':').filter(|(n, _)| n.eq_ignore_ascii_case("content-length"))
                    })
                    .and_then(|(_, v)| v.trim().parse::<usize>().ok())
                    .expect("Content-Length header");
                break (pos, cl);
            }
            let n = stream.read(&mut chunk).expect("read head");
            assert!(n > 0, "connection closed mid head");
            raw.extend_from_slice(&chunk[..n]);
        };
        while raw.len() < head_end + 4 + content_length {
            let n = stream.read(&mut chunk).expect("read body");
            assert!(n > 0, "connection closed mid body");
            raw.extend_from_slice(&chunk[..n]);
        }
        let status: u16 = std::str::from_utf8(&raw[..head_end])
            .unwrap()
            .split(' ')
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        status
    };
    for i in (0..CONNS).step_by(97) {
        let stream = &mut sockets[i];
        for _ in 0..2 {
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
                .unwrap();
            assert_eq!(read_response(stream), 200, "socket {i} must stay usable");
        }
    }
    assert_eq!(state.metrics.responses_5xx.get(), 0, "zero 5xx under 1k idle connections");

    drop(sockets);
    state.request_shutdown();
    handle.join().unwrap();
}

#[test]
fn k_concurrent_identical_requests_run_one_profile() {
    let _serial = serial();
    let (addr, state, handle) = start_server(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServeConfig::default()
    });
    let csv = dataset_csv(42, 500);
    let (status, _, _) = http(addr, "POST", "/datasets?name=solo", "text/csv", csv.as_bytes());
    assert_eq!(status, 201);

    const K: usize = 8;
    let barrier = Arc::new(Barrier::new(K));
    std::thread::scope(|s| {
        for _ in 0..K {
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                barrier.wait();
                let (status, _, body) = http(
                    addr,
                    "POST",
                    "/profile",
                    "application/json",
                    profile_request("solo", Algorithm::Muds).as_bytes(),
                );
                assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
            });
        }
    });

    // The muds-obs counters on the server state are the ground truth:
    // one miss → one submitted job → one completed profiling run; the
    // other K-1 requests were hits or coalesced onto the flight.
    assert_eq!(state.metrics.cache_misses.get(), 1);
    assert_eq!(state.metrics.jobs_submitted.get(), 1);
    assert_eq!(state.metrics.jobs_completed.get(), 1, "exactly one profile ran for {K} clients");
    assert_eq!(
        state.metrics.cache_hits.get() + state.metrics.cache_coalesced.get(),
        (K - 1) as u64
    );

    state.request_shutdown();
    handle.join().unwrap();
}
