//! A minimal blocking HTTP/1.1 client over `TcpStream`, shared by the
//! `rmtc` CLI, the `rmt-cluster` coordinator, the `benchmark/` package
//! and the end-to-end tests. One [`Client`] holds one keep-alive connection
//! and reconnects transparently if the server closed it.
//!
//! A request goes out in one write on a socket with Nagle's algorithm
//! off (`TCP_NODELAY`). Written as head then body, the body would wait
//! for the server to acknowledge the head, and the server's kernel delays
//! that acknowledgement by about 40 ms.
//!
//! Timeouts are explicit: [`Client::with_timeouts`] bounds both the TCP
//! connect and each read, so a wedged worker surfaces as
//! [`std::io::ErrorKind::TimedOut`] instead of hanging the caller. A
//! refused or timed-out *connect* (the server may be restarting, or its
//! listen backlog momentarily full) is retried once after a capped
//! backoff pause before becoming a hard error; protocol errors and HTTP
//! error statuses are never retried here — that policy belongs to the
//! caller, who knows whether the request is idempotent.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Default per-read timeout: generous, because a worker may legitimately
/// spend minutes simulating before it answers a blocking poll.
const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(600);

/// Default connect timeout: local-network scale.
const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Upper bound on the single backoff pause before the connect retry.
const MAX_CONNECT_BACKOFF: Duration = Duration::from_millis(500);

/// A keep-alive HTTP connection to one server address.
#[derive(Debug)]
pub struct Client {
    addr: String,
    conn: Option<TcpStream>,
    connect_timeout: Duration,
    read_timeout: Duration,
}

/// One response: status code and body bytes.
#[derive(Debug, Clone)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// `Retry-After` header in milliseconds, when the server sent one
    /// (202 queued responses hint how long to wait before polling).
    pub retry_after_ms: Option<u64>,
    /// The response body, verbatim.
    pub body: Vec<u8>,
}

impl Response {
    /// The body as UTF-8 text (replacement characters on bad bytes —
    /// the server only ever sends JSON).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

impl Client {
    /// A client for `addr` (`host:port`) with default timeouts.
    /// Connection is lazy.
    pub fn new(addr: &str) -> Client {
        Client::with_timeouts(addr, DEFAULT_CONNECT_TIMEOUT, DEFAULT_READ_TIMEOUT)
    }

    /// A client with explicit connect and read timeouts. A coordinator
    /// probing worker health wants seconds here, not the default
    /// simulation-scale patience.
    pub fn with_timeouts(addr: &str, connect: Duration, read: Duration) -> Client {
        Client {
            addr: addr.to_string(),
            conn: None,
            connect_timeout: connect,
            read_timeout: read,
        }
    }

    /// The address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// `GET path`.
    ///
    /// # Errors
    ///
    /// Connection or protocol failures.
    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.request("GET", path, b"")
    }

    /// `POST path` with a JSON body.
    ///
    /// # Errors
    ///
    /// Connection or protocol failures.
    pub fn post(&mut self, path: &str, body: &[u8]) -> std::io::Result<Response> {
        self.request("POST", path, body)
    }

    /// Issues one request, reconnecting once if the kept-alive
    /// connection turned out to be dead.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        match self.try_once(method, path, body) {
            Ok(r) => Ok(r),
            Err(_) => {
                self.conn = None;
                self.try_once(method, path, body)
            }
        }
    }

    /// Establishes a fresh connection, retrying once after a capped
    /// backoff if the first attempt was refused or timed out.
    fn connect(&self) -> std::io::Result<TcpStream> {
        let addr = resolve(&self.addr)?;
        let first = TcpStream::connect_timeout(&addr, self.connect_timeout);
        let stream = match first {
            Ok(s) => s,
            Err(e) if transient_connect(&e) => {
                std::thread::sleep(self.connect_timeout.min(MAX_CONNECT_BACKOFF));
                TcpStream::connect_timeout(&addr, self.connect_timeout)?
            }
            Err(e) => return Err(e),
        };
        stream.set_read_timeout(Some(self.read_timeout))?;
        stream.set_write_timeout(Some(self.read_timeout))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    fn try_once(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        if self.conn.is_none() {
            self.conn = Some(self.connect()?);
        }
        let stream = self.conn.as_mut().expect("just connected");
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        message.extend_from_slice(body);
        stream.write_all(&message)?;
        let response = read_response(stream);
        if response.is_err() {
            self.conn = None;
        }
        response
    }
}

/// Whether a connect error is worth one backoff-and-retry: the listener
/// may be mid-restart (refused), momentarily overloaded (timed out /
/// reset), or not yet up (aborted).
fn transient_connect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::TimedOut
    )
}

/// Resolves `host:port` to one socket address (`connect_timeout` needs a
/// concrete `SocketAddr`, unlike `TcpStream::connect`).
fn resolve(addr: &str) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("`{addr}` resolved to no addresses"),
        )
    })
}

fn protocol_err(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Reads one `Content-Length`-framed response off the stream.
fn read_response(stream: &mut TcpStream) -> std::io::Result<Response> {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(protocol_err("connection closed mid-response"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| protocol_err("non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| protocol_err("empty response"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| protocol_err("bad status line"))?;
    let mut content_length = 0usize;
    let mut retry_after_ms = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| protocol_err("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("retry-after") {
                // The header is in seconds (RFC 9110); parse fractional
                // values too since sub-second hints are useful locally.
                retry_after_ms = value
                    .trim()
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite() && *v >= 0.0)
                    .map(|v| (v * 1000.0).round() as u64);
            }
        }
    }
    let body_start = head_end + 4;
    let body_end = body_start + content_length;
    while buf.len() < body_end {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(protocol_err("connection closed mid-body"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    Ok(Response {
        status,
        retry_after_ms,
        body: buf[body_start..body_end].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    /// A connect to a dropped listener's port fails fast (bounded by the
    /// configured timeout plus one capped backoff), not with an
    /// unbounded hang, and reports a connection-class error.
    #[test]
    fn dropped_listener_fails_fast_after_one_retry() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let mut client =
            Client::with_timeouts(&addr, Duration::from_millis(200), Duration::from_secs(1));
        let start = Instant::now();
        let err = client.get("/healthz").unwrap_err();
        let elapsed = start.elapsed();
        assert!(
            transient_connect(&err) || err.kind() == std::io::ErrorKind::TimedOut,
            "unexpected error kind: {err}"
        );
        // One attempt + <=200ms backoff + one attempt, with slack for
        // the OS to deliver the refusals.
        assert!(
            elapsed < Duration::from_secs(5),
            "connect retry took {elapsed:?}"
        );
    }

    /// A live listener that accepts and answers still works through the
    /// timeout-configured path, and the Retry-After header is surfaced.
    #[test]
    fn parses_retry_after_header() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let mut seen = Vec::new();
            while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
                let n = conn.read(&mut buf).unwrap();
                seen.extend_from_slice(&buf[..n]);
            }
            conn.write_all(
                b"HTTP/1.1 202 Accepted\r\ncontent-length: 2\r\nretry-after: 0.25\r\n\r\n{}",
            )
            .unwrap();
        });
        let mut client =
            Client::with_timeouts(&addr, Duration::from_secs(2), Duration::from_secs(2));
        let r = client.get("/v1/jobs/j1").unwrap();
        assert_eq!(r.status, 202);
        assert_eq!(r.retry_after_ms, Some(250));
        server.join().unwrap();
    }
}
