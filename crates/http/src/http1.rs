//! A hand-rolled HTTP/1.1 wire layer over `std::net::TcpStream`.
//!
//! The build environment has no crates.io access, so this is the same
//! offline-shim discipline as the rest of the workspace: exactly the subset
//! the planning frontend needs, implemented on std. One [`HttpConn`] wraps
//! one TCP connection and supports keep-alive request/response cycles with
//! hard limits on header size, body size and read time — a
//! malicious or broken client can cost the server at most one bounded
//! buffer and one timeout, never an unbounded allocation or a stuck thread.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Hard limits applied while reading one request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes of request body (`Content-Length` above this is
    /// rejected up front with 413, before any body byte is read).
    pub max_body_bytes: usize,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 2 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// Why reading a request off the wire failed.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// The socket read timed out (slowloris guard).
    Timeout,
    /// A connection-level I/O failure.
    Io(std::io::Error),
    /// The bytes are not a request this server understands (maps to 400).
    BadRequest(String),
    /// Request line + headers exceeded [`Limits::max_head_bytes`] (431).
    HeadTooLarge,
    /// Declared `Content-Length` exceeded [`Limits::max_body_bytes`] (413).
    PayloadTooLarge(usize),
    /// A `Transfer-Encoding` body the server cannot frame (411; chunked
    /// transfer encoding is deliberately unsupported — send a
    /// `Content-Length` instead).
    LengthRequired,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => f.write_str("connection closed"),
            HttpError::Timeout => f.write_str("read timed out"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::HeadTooLarge => f.write_str("request head too large"),
            HttpError::PayloadTooLarge(n) => write!(f, "request body of {n} bytes too large"),
            HttpError::LengthRequired => {
                f.write_str("transfer-encoding unsupported; send content-length")
            }
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased as received).
    pub method: String,
    /// The request target, e.g. `/plan` (query strings are kept verbatim).
    pub path: String,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open afterwards.
    pub keep_alive: bool,
}

/// Well-known status reasons for the codes this server emits.
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// One server-side connection: a stream plus the carry-over buffer that
/// makes keep-alive pipelining safe (bytes of request N+1 read while
/// hunting for the end of request N are not lost).
pub(crate) struct HttpConn {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl HttpConn {
    /// Wraps an accepted stream.
    pub(crate) fn new(stream: TcpStream) -> Self {
        HttpConn {
            stream,
            carry: Vec::new(),
        }
    }

    /// Reads and parses one request, enforcing `limits`.
    ///
    /// # Errors
    ///
    /// See [`HttpError`]; `Closed` on clean EOF between requests is the
    /// normal end of a keep-alive session.
    pub(crate) fn read_request(&mut self, limits: &Limits) -> Result<Request, HttpError> {
        self.stream
            .set_read_timeout(Some(limits.read_timeout))
            .map_err(HttpError::Io)?;
        let head_end = self.fill_until_head_end(limits)?;
        let head_bytes = self.carry[..head_end].to_vec();
        let head = std::str::from_utf8(&head_bytes)
            .map_err(|_| HttpError::BadRequest("non-UTF-8 request head".to_owned()))?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) if !m.is_empty() && p.starts_with('/') => {
                (m.to_ascii_uppercase(), p.to_owned(), v)
            }
            _ => {
                return Err(HttpError::BadRequest(format!(
                    "malformed request line `{request_line}`"
                )))
            }
        };
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(HttpError::BadRequest(format!(
                "unsupported version `{version}`"
            )));
        }
        let mut content_length: Option<usize> = None;
        let mut keep_alive = version == "HTTP/1.1";
        let mut expect_continue = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length =
                    Some(value.parse().map_err(|_| {
                        HttpError::BadRequest(format!("bad content-length `{value}`"))
                    })?);
            } else if name.eq_ignore_ascii_case("connection") {
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(HttpError::LengthRequired);
            } else if name.eq_ignore_ascii_case("expect")
                && value.eq_ignore_ascii_case("100-continue")
            {
                expect_continue = true;
            }
        }
        // Consume the head (and its trailing CRLFCRLF) from the carry.
        self.carry.drain(..head_end + 4);
        // RFC 7230 §3.3.3: no Content-Length and no Transfer-Encoding means
        // an empty body — `curl -X POST` with no data is a legal request.
        let body = match content_length {
            None | Some(0) => Vec::new(),
            Some(n) if n > limits.max_body_bytes => return Err(HttpError::PayloadTooLarge(n)),
            Some(n) => {
                // curl and friends wait for the interim 100 before sending
                // larger bodies; answering it costs one small write.
                if expect_continue {
                    self.stream
                        .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
                        .map_err(HttpError::Io)?;
                }
                self.fill_body(n)?
            }
        };
        Ok(Request {
            method,
            path,
            body,
            keep_alive,
        })
    }

    /// Reads until the carry buffer contains a full head; returns the
    /// offset of the `\r\n\r\n` terminator.
    fn fill_until_head_end(&mut self, limits: &Limits) -> Result<usize, HttpError> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = find_head_end(&self.carry) {
                return Ok(pos);
            }
            if self.carry.len() > limits.max_head_bytes {
                return Err(HttpError::HeadTooLarge);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return if self.carry.is_empty() {
                        Err(HttpError::Closed)
                    } else {
                        Err(HttpError::BadRequest("truncated request head".to_owned()))
                    };
                }
                Ok(n) => self.carry.extend_from_slice(&chunk[..n]),
                Err(e) if is_timeout(&e) => return Err(HttpError::Timeout),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(HttpError::Io(e)),
            }
        }
    }

    /// Reads exactly `n` body bytes (carry first, then the socket).
    fn fill_body(&mut self, n: usize) -> Result<Vec<u8>, HttpError> {
        let mut body = Vec::with_capacity(n.min(64 * 1024));
        let take = n.min(self.carry.len());
        body.extend_from_slice(&self.carry[..take]);
        self.carry.drain(..take);
        let mut chunk = [0u8; 16 * 1024];
        while body.len() < n {
            let want = (n - body.len()).min(chunk.len());
            match self.stream.read(&mut chunk[..want]) {
                Ok(0) => {
                    return Err(HttpError::BadRequest("truncated request body".to_owned()));
                }
                Ok(got) => body.extend_from_slice(&chunk[..got]),
                Err(e) if is_timeout(&e) => return Err(HttpError::Timeout),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(HttpError::Io(e)),
            }
        }
        Ok(body)
    }

    /// Writes one response. `keep_alive` controls the `Connection` header;
    /// the status reason comes from [`reason`].
    pub(crate) fn write_response(
        &mut self,
        status: u16,
        content_type: &str,
        body: &[u8],
        keep_alive: bool,
    ) -> std::io::Result<()> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            status,
            reason(status),
            content_type,
            body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        // One write for head + body: two separate segments would trip the
        // Nagle/delayed-ACK interaction and cost ~40 ms per response.
        let mut response = Vec::with_capacity(head.len() + body.len());
        response.extend_from_slice(head.as_bytes());
        response.extend_from_slice(body);
        self.stream.write_all(&response)?;
        self.stream.flush()
    }
}

/// Position of the first `\r\n\r\n` in `buf`.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Writes a one-shot response on a raw stream (used by the acceptor to shed
/// load without occupying a worker). Best-effort: errors are ignored, the
/// connection is closing anyway.
pub(crate) fn write_oneshot(stream: &mut TcpStream, status: u16, body: &[u8]) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        reason(status),
        body.len(),
    );
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body);
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_is_found() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_head_end(b"partial\r\n"), None);
    }

    #[test]
    fn reasons_cover_emitted_codes() {
        for code in [200, 400, 404, 408, 411, 413, 422, 429, 431, 500, 503] {
            assert_ne!(reason(code), "Unknown", "{code}");
        }
    }
}
