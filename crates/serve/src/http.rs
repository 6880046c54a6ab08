//! Minimal HTTP/1.1 framing — just enough protocol for the profiling
//! daemon's JSON endpoints, with no dependencies beyond std.
//!
//! Scope: request line + headers + `Content-Length` bodies, with HTTP/1.1
//! keep-alive (the epoll reactor serves many requests per connection). No
//! chunked encoding, no TLS. Requests are size-capped (header block and
//! body independently) so a misbehaving client cannot balloon server memory:
//! `Content-Length` is parsed as a full `u64` and checked against the cap
//! *before* any buffer is reserved, so a hostile
//! `Content-Length: 18446744073709551615` costs nothing but a 413.
//!
//! The core parser, [`parse_buffered`], is *incremental*: it looks at the
//! bytes buffered so far and either produces one complete request (plus
//! how many bytes it consumed, so pipelined successors stay in the
//! buffer) or reports that more bytes are needed.

use std::io;

/// Maximum size of the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method, e.g. `GET`.
    pub method: String,
    /// Decoded path component of the target, e.g. `/profile`.
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection may serve another request after this one:
    /// HTTP/1.1 unless `Connection: close`, HTTP/1.0 only with an explicit
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Request {
    /// First header with the given lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Each variant maps to one response
/// status at the connection handler.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or framing.
    BadRequest(String),
    /// Head or body exceeded its size cap.
    TooLarge(String),
    /// Peer closed the connection before a full request arrived.
    Closed,
    /// Transport error (including read timeouts).
    Io(io::Error),
}

impl HttpError {
    /// The response status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::TooLarge(_) => 413,
            HttpError::Io(_) => 408,
            _ => 400,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
            HttpError::Closed => write!(f, "connection closed mid-request"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Decodes `%XX` sequences and `+` (as space) in a query component.
/// Invalid escapes are kept literally rather than rejected — query strings
/// are only used for short identifiers here.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let params = query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();
    (percent_decode(path), params)
}

/// Outcome of [`parse_buffered`] on the bytes seen so far.
#[derive(Debug)]
pub enum Framed {
    /// The buffer does not yet hold a complete request; read more.
    NeedMore,
    /// One complete request. `consumed` is how many buffer bytes it spans;
    /// anything after that offset is the start of a pipelined successor.
    Complete { request: Request, consumed: usize },
}

/// Incremental request parser: frames at most one request out of `buf`.
/// `max_body` caps the `Content-Length` the server is willing to buffer —
/// checked against the *declared* length, before any allocation.
pub fn parse_buffered(buf: &[u8], max_body: usize) -> Result<Framed, HttpError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge(format!("head exceeds {MAX_HEAD_BYTES} bytes")));
        }
        return Ok(Framed::NeedMore);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(HttpError::TooLarge(format!("head exceeds {MAX_HEAD_BYTES} bytes")));
    }

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("head is not valid UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::BadRequest("empty request line".into()))?
        .to_ascii_uppercase();
    let target =
        parts.next().ok_or_else(|| HttpError::BadRequest("request line has no target".into()))?;
    let http11 = match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => v != "HTTP/1.0",
        _ => return Err(HttpError::BadRequest("expected an HTTP/1.x version".into())),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // Framing headers must be unambiguous: a request carrying more than
    // one Content-Length is the classic request-smuggling shape (two
    // parsers picking different values), so it is rejected outright — even
    // when the duplicates agree.
    let mut content_lengths = headers.iter().filter(|(n, _)| n == "content-length");
    let content_length = match content_lengths.next() {
        Some((_, v)) => {
            if content_lengths.next().is_some() {
                return Err(HttpError::BadRequest("multiple content-length headers".into()));
            }
            // Full u64 so every syntactically valid length gets a verdict
            // from the cap, not from usize overflow behavior.
            v.parse::<u64>()
                .map_err(|_| HttpError::BadRequest(format!("bad content-length {v:?}")))?
        }
        None => 0,
    };
    if content_length > max_body as u64 {
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes (max {max_body})"
        )));
    }
    let content_length = content_length as usize;

    let body_start = head_end + 4;
    if buf.len() - body_start < content_length {
        return Ok(Framed::NeedMore);
    }
    let body = buf[body_start..body_start + content_length].to_vec();

    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.as_str())
        .unwrap_or_default();
    let token = |t: &str| connection.split(',').any(|c| c.trim().eq_ignore_ascii_case(t));
    let keep_alive = if http11 { !token("close") } else { token("keep-alive") };

    let (path, query) = parse_target(target);
    Ok(Framed::Complete {
        request: Request { method, path, query, headers, body, keep_alive },
        consumed: body_start + content_length,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response about to be written.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    /// Extra headers (e.g. `Retry-After`, `X-Cache`).
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    pub fn text(status: u16, body: &str) -> Self {
        Response {
            status,
            content_type: "text/plain",
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        Response::json(status, format!("{{\"error\":{}}}", muds_core::json::json_string(message)))
    }

    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Serializes the full response. `keep_alive` picks the `Connection`
    /// header; callers that reuse the socket must pass `true`.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(256 + self.body.len());
        let connection = if keep_alive { "keep-alive" } else { "close" };
        out.extend_from_slice(
            format!(
                "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
                self.status,
                reason(self.status),
                self.content_type,
                self.body.len()
            )
            .as_bytes(),
        );
        for (name, value) in &self.headers {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::io::Read;

    /// Reads one request from `stream` (blocking): the incremental parser
    /// driven by a plain read loop.
    fn read_request(stream: &mut impl Read, max_body: usize) -> Result<Request, HttpError> {
        let mut buf: Vec<u8> = Vec::with_capacity(1024);
        let mut chunk = [0u8; 4096];
        loop {
            if let Framed::Complete { request, .. } = parse_buffered(&buf, max_body)? {
                return Ok(request);
            }
            let n = stream.read(&mut chunk).map_err(HttpError::Io)?;
            if n == 0 {
                if buf.is_empty() {
                    return Err(HttpError::Closed);
                }
                let what = if find_head_end(&buf).is_some() { "body" } else { "head" };
                return Err(HttpError::BadRequest(format!("truncated {what}")));
            }
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    fn req(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut io::Cursor::new(raw.to_vec()), 1024)
    }

    #[test]
    fn parses_request_line_headers_and_body() {
        let r = req(
            b"POST /profile?x=1&name=a%20b HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/profile");
        assert_eq!(r.query_param("x"), Some("1"));
        assert_eq!(r.query_param("name"), Some("a b"));
        assert_eq!(r.header("host"), Some("h"));
        assert_eq!(r.body, b"body");
    }

    #[test]
    fn body_without_content_length_is_empty() {
        let r = req(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert!(r.body.is_empty());
    }

    #[test]
    fn rejects_oversized_bodies_and_garbage() {
        assert!(matches!(
            req(b"POST /x HTTP/1.1\r\nContent-Length: 99999\r\n\r\n"),
            Err(HttpError::TooLarge(_))
        ));
        assert!(matches!(req(b"not http at all\r\n\r\n"), Err(HttpError::BadRequest(_))));
        assert!(matches!(req(b""), Err(HttpError::Closed)));
        assert!(matches!(
            req(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(HttpError::BadRequest(_))
        ));
    }

    /// The cap is enforced on the *declared* length as a full u64: the
    /// hostile `18446744073709551615` (u64::MAX) and friends answer 413
    /// without reserving a byte, overflowing digits are a 400, and the
    /// boundary sits exactly at `max_body`.
    #[test]
    fn hostile_content_lengths_are_capped_before_allocation() {
        let max = req(b"POST /x HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n");
        assert!(matches!(max, Err(HttpError::TooLarge(m)) if m.contains("18446744073709551615")));
        // One past u64::MAX no longer parses: bad framing, not a cap hit.
        let over = req(b"POST /x HTTP/1.1\r\nContent-Length: 18446744073709551616\r\n\r\n");
        assert!(matches!(over, Err(HttpError::BadRequest(m)) if m.contains("content-length")));
        assert!(matches!(
            req(b"POST /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        // Exactly max_body passes; max_body + 1 is rejected.
        let at =
            format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}", 1024, "a".repeat(1024));
        assert_eq!(req(at.as_bytes()).unwrap().body.len(), 1024);
        let past = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 1025);
        assert!(matches!(req(past.as_bytes()), Err(HttpError::TooLarge(_))));
    }

    /// Duplicate Content-Length headers are the request-smuggling shape:
    /// rejected whether the copies conflict or agree, instead of silently
    /// trusting whichever one `find()` happens to see first.
    #[test]
    fn duplicate_content_length_headers_are_rejected() {
        let conflicting = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\nbody";
        assert!(
            matches!(req(conflicting), Err(HttpError::BadRequest(m)) if m.contains("multiple"))
        );
        let agreeing = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody";
        assert!(matches!(req(agreeing), Err(HttpError::BadRequest(_))));
        // A single header still frames the body normally.
        let single = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        assert_eq!(req(single).unwrap().body, b"body");
    }

    /// A peer that closes the socket mid-body gets a clean BadRequest
    /// (→ 400) immediately — the reader must not spin or wait for more
    /// bytes that can never arrive.
    #[test]
    fn mid_body_close_is_a_clean_bad_request() {
        let truncated = b"POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\nonly-a-few-bytes";
        let start = std::time::Instant::now();
        assert!(matches!(
            req(truncated),
            Err(HttpError::BadRequest(m)) if m.contains("truncated body")
        ));
        assert!(start.elapsed() < std::time::Duration::from_secs(1), "no blocking retry");
    }

    /// The incremental parser frames exactly one request and reports the
    /// bytes it consumed, leaving a pipelined successor in place.
    #[test]
    fn parse_buffered_is_incremental_and_pipelining_aware() {
        let wire = b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /b HTTP/1.1\r\n\r\n";
        // Every strict prefix of the first request needs more bytes.
        let first_len = wire.len() - b"GET /b HTTP/1.1\r\n\r\n".len();
        for cut in 0..first_len {
            assert!(
                matches!(parse_buffered(&wire[..cut], 1024).unwrap(), Framed::NeedMore),
                "cut={cut}"
            );
        }
        let Framed::Complete { request, consumed } = parse_buffered(wire, 1024).unwrap() else {
            panic!("complete request expected");
        };
        assert_eq!(request.path, "/a");
        assert_eq!(request.body, b"abc");
        assert_eq!(consumed, first_len, "pipelined successor stays buffered");
        let Framed::Complete { request, consumed } =
            parse_buffered(&wire[consumed..], 1024).unwrap()
        else {
            panic!("second request expected");
        };
        assert_eq!(request.path, "/b");
        assert_eq!(consumed, b"GET /b HTTP/1.1\r\n\r\n".len());
    }

    #[test]
    fn unbounded_heads_are_rejected_while_buffering() {
        let garbage = vec![b'a'; MAX_HEAD_BYTES + 1];
        assert!(matches!(parse_buffered(&garbage, 1024), Err(HttpError::TooLarge(_))));
    }

    /// Keep-alive per the HTTP/1.x defaults: 1.1 persists unless told to
    /// close, 1.0 closes unless told to persist.
    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        assert!(req(b"GET / HTTP/1.1\r\n\r\n").unwrap().keep_alive);
        assert!(!req(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().keep_alive);
        assert!(!req(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap().keep_alive);
        assert!(!req(b"GET / HTTP/1.0\r\n\r\n").unwrap().keep_alive);
        assert!(req(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap().keep_alive);
    }

    #[test]
    fn response_is_framed_with_length_and_close() {
        let out = Response::json(200, "{}".into()).with_header("X-Cache", "hit").to_bytes(false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("X-Cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn keep_alive_responses_advertise_it() {
        let bytes = Response::text(200, "ok").to_bytes(true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(!text.contains("Connection: close"));
    }

    #[test]
    fn error_envelope_escapes_the_message() {
        let r = Response::error(400, "bad \"name\"");
        assert_eq!(String::from_utf8(r.body).unwrap(), "{\"error\":\"bad \\\"name\\\"\"}");
    }
}
