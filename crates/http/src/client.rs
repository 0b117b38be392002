//! A minimal blocking HTTP/1.1 client with keep-alive, used by the
//! integration tests and the benchmark's load generator (`perfbench`).
//! Deliberately tiny: one connection, one request in flight, enough header
//! parsing to read a `Content-Length` response from our own server.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response as the client sees it.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// The body bytes (exactly `Content-Length` of them).
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// The body as UTF-8 (lossy; our server only emits UTF-8 JSON).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// One persistent client connection.
pub struct HttpClient {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl HttpClient {
    /// Connects with a generous read timeout (plans can take a while cold).
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures from the socket layer.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            stream,
            carry: Vec::new(),
        })
    }

    /// Sends one request and reads the full response. The connection stays
    /// open for the next call unless the server answered `Connection:
    /// close` (in which case the next call will fail — reconnect then).
    ///
    /// # Errors
    ///
    /// I/O failures, or `InvalidData` when the response is unparsable.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<HttpResponse> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: dpipe\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len(),
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<HttpResponse> {
        let invalid = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_owned());
        let head_end = loop {
            if let Some(pos) = self.carry.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk)? {
                0 => return Err(invalid("connection closed mid-response")),
                n => self.carry.extend_from_slice(&chunk[..n]),
            }
        };
        let head = String::from_utf8_lossy(&self.carry[..head_end]).into_owned();
        self.carry.drain(..head_end + 4);
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("malformed status line"))?;
        let mut content_length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| invalid("bad content-length"))?;
                }
            }
        }
        // An interim 100 Continue carries no body; the real response follows.
        if status == 100 {
            return self.read_response();
        }
        let mut body = Vec::with_capacity(content_length);
        let take = content_length.min(self.carry.len());
        body.extend_from_slice(&self.carry[..take]);
        self.carry.drain(..take);
        let mut chunk = [0u8; 16 * 1024];
        while body.len() < content_length {
            let want = (content_length - body.len()).min(chunk.len());
            match self.stream.read(&mut chunk[..want])? {
                0 => return Err(invalid("connection closed mid-body")),
                n => body.extend_from_slice(&chunk[..n]),
            }
        }
        Ok(HttpResponse { status, body })
    }
}
