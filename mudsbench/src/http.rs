//! Keep-alive HTTP/1.1 client for the serve workload.
//!
//! Each load thread holds one connection for its whole run, so a request's
//! latency is the daemon's request path (reactor, framing, routing, cache,
//! scheduler) and not TCP connection setup. Responses are framed by
//! `Content-Length`, which the daemon always sends.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response: status, lower-cased headers, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// First header named `name` (lower case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// The exact bytes of one request.
pub fn request(method: &str, path: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: mudsbench\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// Reads exactly one response from `stream`. `buf` carries bytes read past
/// the end of the response (a pipelined successor) into the next call.
pub fn read_response(stream: &mut impl Read, buf: &mut Vec<u8>) -> Result<Response, String> {
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read response head: {e}"))?;
        if n == 0 {
            return Err("connection closed before a full response head".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line in {head:?}"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .ok_or("response without a numeric Content-Length")?;
    let end = head_end + 4 + length;
    while buf.len() < end {
        let n = stream.read(&mut chunk).map_err(|e| format!("read response body: {e}"))?;
        if n == 0 {
            return Err("connection closed mid response body".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = buf[head_end + 4..end].to_vec();
    buf.drain(..end);
    Ok(Response { status, headers, body })
}

/// One keep-alive connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("set_nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| format!("set read timeout: {e}"))?;
        Ok(Client { stream, buf: Vec::with_capacity(64 * 1024) })
    }

    /// Sends pre-built request bytes and reads the response.
    pub fn send(&mut self, request: &[u8]) -> Result<Response, String> {
        self.stream.write_all(request).map_err(|e| format!("write request: {e}"))?;
        read_response(&mut self.stream, &mut self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out at most `step` bytes per `read` call.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(out.len()).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    const ONE: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\nX-Cache: hit\r\n\r\n{\"a\":[1,2]}";
    const TWO: &[u8] = b"HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n";

    #[test]
    fn framing_survives_split_reads() {
        for step in [1, 2, 3, 7, 64, 4096] {
            let mut reader = Trickle { data: ONE, step };
            let mut buf = Vec::new();
            let r = read_response(&mut reader, &mut buf).expect("one response");
            assert_eq!(r.status, 200, "step {step}");
            assert_eq!(r.header("x-cache"), Some("hit"));
            assert_eq!(r.body, b"{\"a\":[1,2]}");
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn pipelined_responses_are_read_one_at_a_time() {
        let both: Vec<u8> = [ONE, TWO, ONE].concat();
        for step in [1, 5, both.len()] {
            let mut reader = Trickle { data: &both, step };
            let mut buf = Vec::new();
            let statuses: Vec<u16> =
                (0..3).map(|_| read_response(&mut reader, &mut buf).unwrap().status).collect();
            assert_eq!(statuses, [200, 404, 200], "step {step}");
            assert!(buf.is_empty(), "nothing left over");
        }
    }

    #[test]
    fn truncated_and_unframed_responses_are_errors() {
        let mut buf = Vec::new();
        let cut = &ONE[..ONE.len() - 3];
        assert!(read_response(&mut Trickle { data: cut, step: 9 }, &mut buf).is_err());
        let mut buf = Vec::new();
        let unframed = b"HTTP/1.1 200 OK\r\n\r\n";
        assert!(read_response(&mut Trickle { data: unframed, step: 9 }, &mut buf).is_err());
    }

    #[test]
    fn requests_carry_their_content_length() {
        let bytes = request("POST", "/profile", &[("X-Muds-Trace", "t1")], b"{}");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("POST /profile HTTP/1.1\r\n"));
        assert!(text.contains("X-Muds-Trace: t1\r\n"));
        assert!(text.ends_with("Content-Length: 2\r\n\r\n{}"));
    }
}
