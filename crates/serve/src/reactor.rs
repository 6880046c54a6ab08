//! Nonblocking epoll reactor (Linux): connection scalability without a
//! thread per connection.
//!
//! This reactor owns *all* sockets on one thread behind `epoll`:
//! read/write readiness and request framing happen here, and only
//! *complete* requests are handed to a small fixed pool of handler threads
//! (which route, wait on scheduler flights, and push serialized responses
//! back). Idle connections cost a file descriptor and a small buffer —
//! nothing else. Like the scheduler's workers, handlers run inside
//! [`rayon::run_inline`], so an upload's ingest or a delta's apply runs on
//! the handler itself rather than fanning out over spawned threads.
//!
//! The epoll calls go through a raw `extern "C"` shim (std already links
//! libc; the same philosophy as the `signal(2)` latch in `server.rs` and
//! the vendored-rayon subset: no new dependencies for three syscalls).
//!
//! # Connection state machine
//!
//! ```text
//! Reading ──complete request──▶ Handling ──response──▶ Writing
//!    ▲                          (EPOLLIN off: kernel      │
//!    │                           backpressure bounds      │
//!    └────────keep-alive────────pipelined bytes)──────────┘
//! ```
//!
//! One request is in flight per connection at a time. While a request is
//! being handled the connection's read interest is dropped, so a client
//! that pipelines aggressively is throttled by the kernel's receive
//! buffer, not by server memory.
//!
//! Framing-level rejections (oversized body, malformed head, request
//! timeout) answer and then *close* the connection: the request's unread
//! body bytes are still in flight, and parsing them as the next
//! request's start-line would desync the stream. Routed requests are
//! always fully framed first — their body is consumed — so keep-alive
//! reuse after any routed response (including 4xx/5xx) is safe.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::http::{parse_buffered, Framed, HttpError, Request, Response};
use crate::server::{respond, ServerState};
use crate::sync::{cond_wait, lock};

/// Handler threads routing complete requests. A small fixed pool: routing
/// is cheap (profiling runs on the scheduler's own workers), the pool only
/// bounds how many requests can concurrently *wait* on scheduler flights.
const HANDLER_THREADS: usize = 8;

/// How long a connection may sit on a partial request head/body before it
/// is answered 408 and closed (slowloris guard). Idle keep-alive
/// connections with *no* buffered bytes are not reaped.
const PARTIAL_REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// epoll_wait tick: bounds shutdown-flag latency.
const WAIT_TICK_MS: i32 = 50;

// --- raw epoll shim -------------------------------------------------------

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// Mirror of `struct epoll_event`. The kernel ABI packs it on x86-64
/// (12 bytes); other architectures use natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// Owned epoll instance. All `unsafe` in this module is confined here.
struct Epoll {
    fd: i32,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        // SAFETY: `epoll_create1(2)` is linked by std on Linux and the
        // declared signature matches libc's. It touches no memory of ours;
        // the returned fd (or -1) is validated below.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        // SAFETY: `ev` is a live, writable `epoll_event`-layout struct for
        // the duration of the call; `self.fd` is a valid epoll fd for the
        // lifetime of this struct; the signature matches libc's.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    fn del(&self, fd: i32) {
        // A pre-2.6.9 kernel quirk requires a non-null event even for DEL;
        // passing one is always valid.
        // lint:allow(swallowed-result): DEL on a closing fd can only fail
        // with ENOENT/EBADF, both of which mean "already deregistered".
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Waits up to `timeout_ms`; EINTR reads as an empty wakeup.
    fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let max = events.len() as i32;
        // SAFETY: `events` is a live, writable slice of `epoll_event`-layout
        // structs and `max` is exactly its length, so the kernel writes only
        // within bounds; the signature matches libc's.
        let rc = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), max, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is a valid fd owned exclusively by this
        // struct; nothing uses it after drop.
        unsafe {
            close(self.fd);
        }
    }
}

// --- handler pool ---------------------------------------------------------

struct Dispatch {
    token: u64,
    request: Request,
}

struct Completion {
    token: u64,
    bytes: Vec<u8>,
    close_after: bool,
}

/// Shared between the reactor thread and the handler pool.
struct HandlerShared {
    queue: Mutex<VecDeque<Dispatch>>,
    wake: Condvar,
    completions: Mutex<Vec<Completion>>,
    /// Write half of the waker pair: one byte per completion batch nudges
    /// the reactor out of `epoll_wait`.
    waker_tx: UnixStream,
    shutdown: AtomicBool,
}

impl HandlerShared {
    fn push_completion(&self, completion: Completion) {
        lock(&self.completions).push(completion);
        // A full pipe means a wakeup is already pending; dropping the
        // byte is correct.
        // lint:allow(swallowed-result): WouldBlock = wakeup already queued;
        // any other failure still resolves via the reactor's idle tick.
        let _ = (&self.waker_tx).write(&[1u8]);
    }
}

/// Joinable handle on the handler pool. `Server::run` joins it *after*
/// `Scheduler::shutdown()`, which resolves every flight a handler could
/// still be waiting on.
pub(crate) struct HandlerPool {
    shared: Arc<HandlerShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl HandlerPool {
    pub(crate) fn shutdown_join(self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake.notify_all();
        for thread in self.threads {
            // lint:allow(swallowed-result): a handler that panicked has
            // already printed its panic; teardown must still join the rest.
            let _ = thread.join();
        }
    }
}

fn handler_loop(state: Arc<ServerState>, shared: Arc<HandlerShared>) {
    loop {
        let dispatch = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(dispatch) = queue.pop_front() {
                    break dispatch;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = cond_wait(&shared.wake, queue);
            }
        };
        let keep_alive = dispatch.request.keep_alive;
        let response = respond(&state, &dispatch.request);
        shared.push_completion(Completion {
            token: dispatch.token,
            bytes: response.to_bytes(keep_alive),
            close_after: !keep_alive,
        });
    }
}

// --- connection state -----------------------------------------------------

#[derive(PartialEq, Eq, Clone, Copy)]
enum Phase {
    /// Waiting for (more of) a request.
    Reading,
    /// A complete request is with the handler pool; read interest is off.
    Handling,
    /// Flushing a response.
    Writing,
}

struct Conn {
    stream: TcpStream,
    /// Buffered request bytes not yet consumed by the parser.
    buf: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
    phase: Phase,
    /// Close once the staged response is flushed (framing error, client
    /// asked, or the peer already half-closed).
    close_after_write: bool,
    /// Events currently registered with epoll.
    interest: u32,
    /// Peer sent EOF; no more request bytes will arrive.
    peer_closed: bool,
    last_activity: Instant,
}

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    waker_rx: UnixStream,
    state: Arc<ServerState>,
    shared: Arc<HandlerShared>,
    conns: BTreeMap<u64, Conn>,
    next_token: u64,
    last_sweep: Instant,
}

/// Runs the reactor until shutdown, then drains in-flight responses.
/// Returns the handler pool for the caller to join once the scheduler has
/// resolved every outstanding flight.
pub(crate) fn run(listener: TcpListener, state: Arc<ServerState>) -> io::Result<HandlerPool> {
    listener.set_nonblocking(true)?;
    let (waker_rx, waker_tx) = UnixStream::pair()?;
    waker_rx.set_nonblocking(true)?;
    waker_tx.set_nonblocking(true)?;

    let shared = Arc::new(HandlerShared {
        queue: Mutex::new(VecDeque::new()),
        wake: Condvar::new(),
        completions: Mutex::new(Vec::new()),
        waker_tx,
        shutdown: AtomicBool::new(false),
    });
    let mut threads = Vec::with_capacity(HANDLER_THREADS);
    for i in 0..HANDLER_THREADS {
        let state = Arc::clone(&state);
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("muds-serve-http-{i}"))
                .spawn(move || rayon::run_inline(|| handler_loop(state, shared)))?,
        );
    }
    let pool = HandlerPool { shared: Arc::clone(&shared), threads };

    let epoll = Epoll::new()?;
    epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
    epoll.add(waker_rx.as_raw_fd(), EPOLLIN, WAKER_TOKEN)?;
    let mut reactor = Reactor {
        epoll,
        listener,
        waker_rx,
        state,
        shared,
        conns: BTreeMap::new(),
        next_token: FIRST_CONN_TOKEN,
        last_sweep: Instant::now(),
    };
    reactor.serve()?;
    Ok(pool)
}

impl Reactor {
    fn serve(&mut self) -> io::Result<()> {
        let mut events = [EpollEvent { events: 0, data: 0 }; 256];
        while !self.state.shutting_down() {
            let n = self.epoll.wait(&mut events, WAIT_TICK_MS)?;
            for ev in &events[..n] {
                // Copies out of the (possibly packed) event struct; no
                // references into it are formed.
                let token = ev.data;
                let revents = ev.events;
                match token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.drain_waker(),
                    _ => self.conn_ready(token, revents),
                }
            }
            self.apply_completions();
            self.sweep_partial_requests();
        }
        self.drain();
        Ok(())
    }

    /// Post-shutdown drain: stop accepting, drop idle connections, give
    /// in-flight requests up to 5 s to flush their responses.
    fn drain(&mut self) {
        self.epoll.del(self.listener.as_raw_fd());
        let idle: Vec<u64> =
            self.conns.iter().filter(|(_, c)| c.phase == Phase::Reading).map(|(t, _)| *t).collect();
        for token in idle {
            self.close_conn(token);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut events = [EpollEvent { events: 0, data: 0 }; 256];
        while !self.conns.is_empty() && Instant::now() < deadline {
            let n = match self.epoll.wait(&mut events, WAIT_TICK_MS) {
                Ok(n) => n,
                Err(_) => break,
            };
            for ev in &events[..n] {
                let token = ev.data;
                let revents = ev.events;
                match token {
                    LISTENER_TOKEN => {}
                    WAKER_TOKEN => self.drain_waker(),
                    _ => self.conn_ready(token, revents),
                }
            }
            self.apply_completions();
            // Responses finished during drain leave Reading connections
            // behind; close them instead of serving another request.
            let finished: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| c.phase == Phase::Reading)
                .map(|(t, _)| *t)
                .collect();
            for token in finished {
                self.close_conn(token);
            }
        }
        let leftover: Vec<u64> = self.conns.keys().copied().collect();
        for token in leftover {
            self.close_conn(token);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (ECONNABORTED
                // and friends) must not kill the reactor.
                Err(_) => break,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        if self.conns.len() >= self.state.config.max_connections {
            // Single non-blocking write attempt of the 503: the socket
            // buffer of a fresh connection almost always has room, and a
            // client whose buffer is already full doesn't get to stall
            // the event loop for its error message.
            let bytes = Response::error(503, "connection limit reached").to_bytes(false);
            // lint:allow(swallowed-result): best-effort courtesy reply on
            // a connection being dropped anyway; the close conveys it.
            let _ = (&stream).write(&bytes);
            self.state.metrics.count_response(503);
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        let interest = EPOLLIN | EPOLLRDHUP;
        if self.epoll.add(stream.as_raw_fd(), interest, token).is_err() {
            return;
        }
        self.conns.insert(
            token,
            Conn {
                stream,
                buf: Vec::new(),
                out: Vec::new(),
                out_pos: 0,
                phase: Phase::Reading,
                close_after_write: false,
                interest,
                peer_closed: false,
                last_activity: Instant::now(),
            },
        );
        self.state.metrics.connections_active.fetch_add(1, Ordering::AcqRel);
        self.state.metrics.reactor_connections.set(self.conns.len() as i64);
    }

    fn drain_waker(&mut self) {
        let mut sink = [0u8; 64];
        while matches!((&self.waker_rx).read(&mut sink), Ok(n) if n > 0) {}
    }

    fn conn_ready(&mut self, token: u64, revents: u32) {
        if !self.conns.contains_key(&token) {
            return;
        }
        if revents & (EPOLLERR | EPOLLHUP) != 0 {
            // Socket error or both halves gone: nothing useful can be
            // read or written anymore.
            self.close_conn(token);
            return;
        }
        if revents & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.readable(token);
        }
        if revents & EPOLLOUT != 0 {
            self.writable(token);
        }
    }

    fn readable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        self.advance(token);
    }

    /// Tries to frame one request out of the connection's buffer and move
    /// the state machine forward.
    fn advance(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.phase != Phase::Reading {
            return;
        }
        match parse_buffered(&conn.buf, self.state.config.max_body) {
            Ok(Framed::Complete { request, consumed }) => {
                conn.buf.drain(..consumed);
                conn.phase = Phase::Handling;
                // If the peer already half-closed, this response is the
                // last one regardless of keep-alive.
                // Read interest off while the request is in flight: one
                // request per connection at a time, pipelined bytes wait
                // in the kernel's receive buffer.
                self.set_interest(token, EPOLLRDHUP);
                {
                    let mut queue = lock(&self.shared.queue);
                    queue.push_back(Dispatch { token, request });
                }
                self.shared.wake.notify_one();
            }
            Ok(Framed::NeedMore) => {
                if conn.peer_closed {
                    if conn.buf.is_empty() {
                        // Clean keep-alive close between requests.
                        self.close_conn(token);
                    } else {
                        let truncated = HttpError::BadRequest("truncated request".to_string());
                        self.reject(token, &truncated);
                    }
                }
            }
            Err(e) => self.reject(token, &e),
        }
    }

    /// Answers a framing-level error and closes the connection once the
    /// response flushes — unread request bytes may still be in flight, so
    /// the stream cannot be reused (leftover body bytes would parse as
    /// the next request's start-line).
    fn reject(&mut self, token: u64, error: &HttpError) {
        let response = Response::error(error.status(), &error.to_string());
        self.state.metrics.count_response(response.status);
        self.stage_response(token, response.to_bytes(false), true);
    }

    fn stage_response(&mut self, token: u64, bytes: Vec<u8>, close_after: bool) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        conn.out = bytes;
        conn.out_pos = 0;
        conn.phase = Phase::Writing;
        conn.close_after_write = close_after || conn.peer_closed;
        self.writable(token);
    }

    fn writable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.phase != Phase::Writing {
            return;
        }
        loop {
            if conn.out_pos == conn.out.len() {
                self.finish_response(token);
                return;
            }
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close_conn(token);
                    return;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.set_interest(token, EPOLLOUT | EPOLLRDHUP);
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    fn finish_response(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.close_after_write {
            self.close_conn(token);
            return;
        }
        conn.out = Vec::new();
        conn.out_pos = 0;
        conn.phase = Phase::Reading;
        conn.last_activity = Instant::now();
        self.set_interest(token, EPOLLIN | EPOLLRDHUP);
        // A pipelined successor may already be buffered; frame it now
        // rather than waiting for more bytes to arrive.
        self.advance(token);
    }

    fn set_interest(&mut self, token: u64, events: u32) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.interest == events {
            return;
        }
        conn.interest = events;
        if let Err(e) = self.epoll.modify(conn.stream.as_raw_fd(), events, token) {
            // A connection we can no longer watch is a connection we can
            // no longer serve: drop it rather than let it hang silently.
            eprintln!("muds-serve: epoll modify failed for token {token}: {e}; closing");
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.epoll.del(conn.stream.as_raw_fd());
            self.state.metrics.connections_active.fetch_sub(1, Ordering::AcqRel);
            self.state.metrics.reactor_connections.set(self.conns.len() as i64);
        }
    }

    /// Reaps connections stuck mid-request (slowloris): a partial head or
    /// body older than the timeout answers 408 and closes. Runs at most
    /// once a second; purely idle keep-alive connections are untouched.
    fn sweep_partial_requests(&mut self) {
        if self.last_sweep.elapsed() < Duration::from_secs(1) {
            return;
        }
        self.last_sweep = Instant::now();
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.phase == Phase::Reading
                    && !c.buf.is_empty()
                    && c.last_activity.elapsed() > PARTIAL_REQUEST_TIMEOUT
            })
            .map(|(t, _)| *t)
            .collect();
        for token in stale {
            let timeout =
                HttpError::Io(io::Error::new(io::ErrorKind::TimedOut, "request timed out"));
            self.reject(token, &timeout);
        }
    }

    fn apply_completions(&mut self) {
        let completions: Vec<Completion> = {
            let mut pending = lock(&self.shared.completions);
            std::mem::take(&mut *pending)
        };
        for completion in completions {
            // The connection may have died (EPOLLERR) while its request
            // was being handled; the response is simply dropped.
            self.stage_response(completion.token, completion.bytes, completion.close_after);
        }
    }
}
