//! Minimal HTTP/1.1 framing over [`TcpStream`].
//!
//! Just enough of the protocol for a loopback prediction service:
//! request line + headers + `Content-Length` bodies over persistent
//! connections. A [`Connection`] keeps every byte read past the current
//! message, so a pipelined next request is never lost, and each parsed
//! message says whether its peer lets the connection stay open
//! ([`Request::keep_alive`], [`Response::keep_alive`]). Every message goes
//! out in one `write_all` on a `TCP_NODELAY` socket. Header and body
//! sizes are bounded so a misbehaving peer cannot balloon memory, and
//! sockets carry read/write timeouts so a stalled peer cannot wedge a
//! worker.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::error::ServeError;

/// Upper bound on request-line + header bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on body bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Socket read/write timeout: a stalled peer times out instead of
/// pinning a worker forever.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Total budget for receiving a *request* head. The per-read
/// [`IO_TIMEOUT`] only bounds a fully stalled peer; a slow writer
/// dripping one byte per ~9 s could otherwise hold a worker for
/// minutes across a 16 KiB head. Responses are exempt: a loaded
/// server may legitimately take long before its first response byte.
pub const HEAD_DEADLINE: Duration = Duration::from_secs(10);
/// Bytes asked of the socket per read while the message length is
/// still unknown.
const READ_CHUNK: usize = 8 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), upper-cased as received.
    pub method: String,
    /// Request path (query strings are kept verbatim; the server's
    /// routes do not use them).
    pub path: String,
    /// Headers with lower-cased names.
    pub headers: BTreeMap<String, String>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client lets the connection stay open after this
    /// request (see [`Response::keep_alive`] for the rule).
    pub keep_alive: bool,
}

impl Request {
    /// The body decoded as UTF-8.
    pub fn body_str(&self) -> Result<&str, ServeError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| ServeError::Protocol("request body is not valid utf-8".into()))
    }
}

/// A parsed HTTP response (client side).
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers with lower-cased names.
    pub headers: BTreeMap<String, String>,
    /// Raw body bytes.
    pub body: Vec<u8>,
    /// Whether the server lets the connection stay open after this
    /// response: for HTTP/1.1 unless it sent `Connection: close`, for
    /// HTTP/1.0 only when it sent `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Response {
    /// The body decoded as UTF-8.
    pub fn body_str(&self) -> Result<&str, ServeError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| ServeError::Protocol("response body is not valid utf-8".into()))
    }
}

/// The socket calls a [`Connection`] makes besides reading and writing.
/// [`TcpStream`] implements it; tests substitute scripted byte sources.
pub trait Transport: Read + Write {
    /// As [`TcpStream::set_read_timeout`].
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
    /// As [`TcpStream::set_nonblocking`].
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
}

impl Transport for TcpStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        TcpStream::set_nonblocking(self, nonblocking)
    }
}

impl<T: Transport + ?Sized> Transport for &mut T {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        (**self).set_read_timeout(timeout)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        (**self).set_nonblocking(nonblocking)
    }
}

/// Applies the standard socket settings to a stream: read/write
/// timeouts, and `TCP_NODELAY` so a message leaves at once instead of
/// waiting behind the peer's delayed ACK.
pub fn configure(stream: &TcpStream) -> Result<(), ServeError> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    Ok(())
}

/// One HTTP/1.1 connection: the socket plus the bytes read past the
/// last parsed message (the start of a pipelined next one).
///
/// A read that fails before the first byte of a message because the
/// peer closed or reset the connection reports
/// [`ServeError::ConnectionClosed`]; once a message has begun, the same
/// failure is a [`ServeError::Protocol`] or [`ServeError::Io`] error.
#[derive(Debug)]
pub struct Connection<S = TcpStream> {
    stream: S,
    buf: Vec<u8>,
    /// The read timeout last set on the socket (`None`: not known), so
    /// it is set again only when it changes.
    read_timeout: Option<Duration>,
}

impl Connection {
    /// Wraps an accepted or connected socket, applying [`configure`].
    pub fn new(stream: TcpStream) -> Result<Connection, ServeError> {
        configure(&stream)?;
        Ok(Connection {
            stream,
            buf: Vec::new(),
            read_timeout: Some(IO_TIMEOUT),
        })
    }

    /// Opens a connection to `addr` (e.g. `127.0.0.1:4321`).
    pub fn connect(addr: &str) -> Result<Connection, ServeError> {
        Connection::new(TcpStream::connect(addr)?)
    }
}

impl<S: Transport> Connection<S> {
    /// Wraps a transport whose read timeout is not known.
    pub fn over(stream: S) -> Connection<S> {
        Connection {
            stream,
            buf: Vec::new(),
            read_timeout: None,
        }
    }

    /// The underlying transport, for writing messages. Reading from it
    /// directly would bypass the buffered bytes.
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.stream
    }

    /// Waits up to `wait` for the first bytes of the next message, or
    /// only checks for them when `wait` is zero. `Ok(true)` once bytes
    /// are buffered, `Ok(false)` when none arrived in time, and
    /// [`ServeError::ConnectionClosed`] when the peer closed the
    /// connection.
    pub fn poll(&mut self, wait: Duration) -> Result<bool, ServeError> {
        if !self.buf.is_empty() {
            return Ok(true);
        }
        let read = if wait.is_zero() {
            self.stream.set_nonblocking(true)?;
            let read = self.fill(0);
            self.stream.set_nonblocking(false)?;
            read
        } else {
            self.set_read_timeout(wait)?;
            self.fill(0)
        };
        match read {
            Ok(0) => Err(ServeError::ConnectionClosed),
            Ok(_) => Ok(true),
            Err(err) if timed_out(&err) => Ok(false),
            Err(err) => Err(closed_or_io(err)),
        }
    }

    /// Reads and parses the next request. Its head must arrive within
    /// `head_deadline` of the first read (not merely per read); the
    /// server answers a breach with 408.
    pub fn read_request(&mut self, head_deadline: Duration) -> Result<Request, ServeError> {
        let head_len = self.read_head(Some(head_deadline))?;
        let (method, path, headers, keep_alive) = {
            let (start_line, headers) = parse_head(&self.buf[..head_len], "request")?;
            let mut parts = start_line.split_whitespace();
            let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(p), Some(v)) => (m, p, v),
                _ => {
                    return Err(ServeError::Protocol(format!(
                        "malformed request line `{start_line}`"
                    )))
                }
            };
            if !version.starts_with("HTTP/1.") {
                return Err(ServeError::Protocol(format!(
                    "unsupported protocol version `{version}`"
                )));
            }
            let keep_alive = persistent(version, &headers);
            (
                method.to_ascii_uppercase(),
                path.to_string(),
                headers,
                keep_alive,
            )
        };
        let body = self.read_body(head_len, &headers)?;
        Ok(Request {
            method,
            path,
            headers,
            body,
            keep_alive,
        })
    }

    /// Reads and parses the next response. No total head deadline: a
    /// loaded server may take a while before its first byte; the
    /// per-read [`IO_TIMEOUT`] still applies.
    pub fn read_response(&mut self) -> Result<Response, ServeError> {
        let head_len = self.read_head(None)?;
        let (status, headers, keep_alive) = {
            let (status_line, headers) = parse_head(&self.buf[..head_len], "response")?;
            let mut parts = status_line.split_whitespace();
            let bad = || ServeError::Protocol(format!("bad status line `{status_line}`"));
            let (version, status) = match (parts.next(), parts.next()) {
                (Some(version), Some(code)) if version.starts_with("HTTP/1.") => {
                    (version, code.parse::<u16>().map_err(|_| bad())?)
                }
                _ => return Err(bad()),
            };
            let keep_alive = persistent(version, &headers);
            (status, headers, keep_alive)
        };
        let body = self.read_body(head_len, &headers)?;
        Ok(Response {
            status,
            headers,
            body,
            keep_alive,
        })
    }

    fn set_read_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        if self.read_timeout != Some(timeout) {
            self.stream.set_read_timeout(Some(timeout))?;
            self.read_timeout = Some(timeout);
        }
        Ok(())
    }

    /// One read into `want.max(READ_CHUNK)` bytes of room at the end of
    /// the buffer, retrying [`io::ErrorKind::Interrupted`]: a signal
    /// landing mid-read must not tear down the connection. Returns the
    /// count read (0 at end of stream).
    fn fill(&mut self, want: usize) -> io::Result<usize> {
        let len = self.buf.len();
        self.buf.resize(len + want.max(READ_CHUNK), 0);
        let read = loop {
            match self.stream.read(&mut self.buf[len..]) {
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                other => break other,
            }
        };
        self.buf.truncate(len + read.as_ref().map_or(0, |n| *n));
        read
    }

    /// Reads until the buffer holds a whole head, bounded by
    /// [`MAX_HEAD_BYTES`] and, when `deadline` is set, by a total wall
    /// clock across all reads. Returns the head's length including its
    /// `\r\n\r\n` terminator.
    ///
    /// The head may arrive across any number of TCP segments — even split
    /// mid-terminator — so the loop keeps reading until the delimiter is
    /// seen, rescanning only the bytes a new segment could complete (the
    /// terminator can start at most 3 bytes before the old buffer end).
    /// Under a deadline each read waits at most the remaining budget, so
    /// a slow writer cannot stretch the wait past `deadline` by trickling
    /// bytes. The budget is rounded up to whole milliseconds: the first
    /// read of a fresh request then keeps the socket's [`IO_TIMEOUT`]
    /// instead of setting a timeout a few microseconds shorter.
    fn read_head(&mut self, deadline: Option<Duration>) -> Result<usize, ServeError> {
        // wlc-lint: sanitize(determinism-taint, reason = "deadline arithmetic only; the clock never escapes into the returned bytes")
        let start = std::time::Instant::now();
        let timeout_err = |total: Duration| ServeError::HeaderTimeout {
            deadline_ms: total.as_millis() as u64,
        };
        let mut scanned = 0usize;
        loop {
            if let Some(end) = find_terminator(&self.buf, scanned) {
                return Ok(end + 4);
            }
            scanned = self.buf.len().saturating_sub(3);
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(ServeError::Protocol("request head too large".into()));
            }
            let timeout = match deadline {
                None => IO_TIMEOUT,
                Some(total) => {
                    let left = total.saturating_sub(start.elapsed()).min(IO_TIMEOUT);
                    if left.is_zero() {
                        return Err(timeout_err(total));
                    }
                    Duration::from_millis(left.as_nanos().div_ceil(1_000_000) as u64)
                }
            };
            let before_first_byte = self.buf.is_empty();
            self.set_read_timeout(timeout)?;
            match self.fill(0) {
                Ok(0) if before_first_byte => return Err(ServeError::ConnectionClosed),
                Ok(0) => {
                    return Err(ServeError::Protocol(
                        "connection closed before end of headers".into(),
                    ))
                }
                Ok(_) => {}
                Err(err) => {
                    return Err(match deadline {
                        Some(total) if timed_out(&err) => timeout_err(total),
                        _ if before_first_byte => closed_or_io(err),
                        _ => err.into(),
                    })
                }
            }
        }
    }

    /// Reads the `Content-Length` body that starts at byte `start` of the
    /// buffer, then consumes the message, keeping any bytes past it.
    fn read_body(
        &mut self,
        start: usize,
        headers: &BTreeMap<String, String>,
    ) -> Result<Vec<u8>, ServeError> {
        let length = match headers.get("content-length") {
            None => 0,
            Some(raw) => raw
                .parse::<usize>()
                .map_err(|_| ServeError::Protocol(format!("bad content-length `{raw}`")))?,
        };
        if length > MAX_BODY_BYTES {
            return Err(ServeError::BodyTooLarge {
                length,
                limit: MAX_BODY_BYTES,
            });
        }
        let end = start + length;
        while self.buf.len() < end {
            self.set_read_timeout(IO_TIMEOUT)?;
            let want = end - self.buf.len();
            match self.fill(want) {
                Ok(0) => return Err(ServeError::Protocol("connection closed mid-body".into())),
                Ok(_) => {}
                Err(err) => {
                    return Err(ServeError::Protocol(format!(
                        "connection closed mid-body: {err}"
                    )))
                }
            }
        }
        let body = self.buf[start..end].to_vec();
        self.buf.drain(..end);
        Ok(body)
    }
}

/// Whether a connection stays open after a message with protocol
/// `version` and `headers`: for HTTP/1.1 unless `Connection: close`,
/// for HTTP/1.0 only with `Connection: keep-alive`.
fn persistent(version: &str, headers: &BTreeMap<String, String>) -> bool {
    let says = |token: &str| {
        headers.get("connection").is_some_and(|value| {
            value
                .split(',')
                .any(|t| t.trim().eq_ignore_ascii_case(token))
        })
    };
    if version == "HTTP/1.0" {
        says("keep-alive")
    } else {
        !says("close")
    }
}

/// A failure to send a message, or to read one before its first byte:
/// the peer closing or resetting the connection is
/// [`ServeError::ConnectionClosed`], anything else stays an I/O error.
fn closed_or_io(err: io::Error) -> ServeError {
    match err.kind() {
        io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe
        | io::ErrorKind::UnexpectedEof => ServeError::ConnectionClosed,
        _ => ServeError::Io(err),
    }
}

/// Whether a read failed only because its timeout passed.
fn timed_out(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// First `\r\n\r\n` at or after byte `from` (absolute index).
fn find_terminator(buf: &[u8], from: usize) -> Option<usize> {
    buf.get(from..)?
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| from + i)
}

/// Splits a head (terminator included) into its first line and its
/// headers, with lower-cased names.
fn parse_head<'a>(
    head: &'a [u8],
    what: &str,
) -> Result<(&'a str, BTreeMap<String, String>), ServeError> {
    let head = std::str::from_utf8(head)
        .map_err(|_| ServeError::Protocol(format!("{what} head is not valid utf-8")))?;
    let mut lines = head.lines();
    let first = lines
        .next()
        .filter(|line| !line.is_empty())
        .ok_or_else(|| ServeError::Protocol(format!("empty {what}")))?;
    let mut headers = BTreeMap::new();
    for line in lines.take_while(|line| !line.is_empty()) {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ServeError::Protocol(format!("malformed header line `{line}`")))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
    Ok((first, headers))
}

/// Reads one request from a socket with the [`HEAD_DEADLINE`]; the server
/// answers a breach with 408. Bytes past the request are dropped: a peer
/// that reads more than one message uses a [`Connection`].
pub fn read_request(stream: &mut TcpStream) -> Result<Request, ServeError> {
    read_request_deadline(stream, HEAD_DEADLINE)
}

/// [`read_request`] with an explicit head deadline (tests shrink it).
pub fn read_request_deadline(
    stream: &mut TcpStream,
    deadline: Duration,
) -> Result<Request, ServeError> {
    Connection::over(stream).read_request(deadline)
}

/// Reads one response from a socket (see [`Connection::read_response`]).
pub fn read_response(stream: &mut TcpStream) -> Result<Response, ServeError> {
    Connection::over(stream).read_response()
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes one response. It carries `Content-Type: application/json`, a
/// `Retry-After: <retry_after_secs>` hint on 503/504 so well-behaved
/// clients back off (other statuses carry none), and the connection
/// decision: `Connection: keep-alive`, or `Connection: close` when the
/// caller closes the connection after it.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    body: &str,
    retry_after_secs: u64,
    keep_alive: bool,
) -> Result<(), ServeError> {
    let mut message = String::with_capacity(160 + body.len());
    let _ = write!(
        message,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {len}\r\nConnection: {connection}\r\n",
        reason = reason(status),
        len = body.len(),
        connection = if keep_alive { "keep-alive" } else { "close" },
    );
    if status == 503 || status == 504 {
        let _ = write!(message, "Retry-After: {retry_after_secs}\r\n");
    }
    message.push_str("\r\n");
    message.push_str(body);
    send(stream, &message)
}

/// Writes one request on a connection the client means to reuse
/// (`Connection: keep-alive`).
pub fn write_request(
    stream: &mut impl Write,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(), ServeError> {
    let mut message = String::with_capacity(160 + body.len());
    let _ = write!(
        message,
        "{method} {path} HTTP/1.1\r\nHost: wlc\r\nContent-Type: application/json\r\nContent-Length: {len}\r\nConnection: keep-alive\r\n\r\n",
        len = body.len(),
    );
    message.push_str(body);
    send(stream, &message)
}

/// One `write_all` per message: a head and body written separately
/// leave the body behind Nagle's algorithm until the head is
/// acknowledged, and a close in that window resets it away.
fn send(stream: &mut impl Write, message: &str) -> Result<(), ServeError> {
    stream
        .write_all(message.as_bytes())
        .and_then(|()| stream.flush())
        .map_err(closed_or_io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::net::TcpListener;
    use std::thread;
    use wlc_math::propcheck;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = thread::spawn(move || TcpStream::connect(addr).unwrap());
        let (server, _) = listener.accept().unwrap();
        let client = join.join().unwrap();
        (client, server)
    }

    /// Serves its chunks one read at a time, then end of stream.
    struct Scripted(VecDeque<Vec<u8>>);

    impl Read for Scripted {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let Some(chunk) = self.0.front_mut() else {
                return Ok(0);
            };
            let n = chunk.len().min(out.len());
            out[..n].copy_from_slice(&chunk[..n]);
            chunk.drain(..n);
            if chunk.is_empty() {
                self.0.pop_front();
            }
            Ok(n)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Transport for Scripted {
        fn set_read_timeout(&self, _: Option<Duration>) -> io::Result<()> {
            Ok(())
        }

        fn set_nonblocking(&self, _: bool) -> io::Result<()> {
            Ok(())
        }
    }

    /// Parses every request `chunks` carries, in order, until the first
    /// error (end of stream included).
    fn parse_all(chunks: Vec<Vec<u8>>) -> (Vec<(String, String, Vec<u8>)>, ServeError) {
        let mut conn = Connection::over(Scripted(chunks.into()));
        let mut parsed = Vec::new();
        loop {
            match conn.read_request(HEAD_DEADLINE) {
                Ok(r) => parsed.push((r.method, r.path, r.body)),
                Err(err) => return (parsed, err),
            }
        }
    }

    #[test]
    fn request_round_trip() {
        let (mut client, mut server) = pair();
        write_request(&mut client, "POST", "/predict", "{\"inputs\":[1.0]}").unwrap();
        let req = read_request(&mut server).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert_eq!(req.body_str().unwrap(), "{\"inputs\":[1.0]}");
        assert_eq!(
            req.headers.get("connection").map(String::as_str),
            Some("keep-alive")
        );

        write_response(&mut server, 200, "{\"ok\":true}", 1, true).unwrap();
        let resp = read_response(&mut client).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_str().unwrap(), "{\"ok\":true}");
    }

    #[test]
    fn shed_responses_carry_retry_after() {
        let (mut client, mut server) = pair();
        write_response(&mut server, 503, "{}", 1, false).unwrap();
        let resp = read_response(&mut client).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(
            resp.headers.get("retry-after").map(String::as_str),
            Some("1")
        );

        // Explicit (jittered) values pass through verbatim on 503/504
        // and never appear on other statuses.
        let (mut client, mut server) = pair();
        write_response(&mut server, 504, "{}", 3, false).unwrap();
        let resp = read_response(&mut client).unwrap();
        assert_eq!(
            resp.headers.get("retry-after").map(String::as_str),
            Some("3")
        );
        let (mut client, mut server) = pair();
        write_response(&mut server, 200, "{}", 3, false).unwrap();
        let resp = read_response(&mut client).unwrap();
        assert!(!resp.headers.contains_key("retry-after"));
    }

    #[test]
    fn connection_header_follows_the_keep_alive_decision() {
        for (keep_alive, header) in [(true, "keep-alive"), (false, "close")] {
            let (mut client, mut server) = pair();
            write_response(&mut server, 200, "{}", 1, keep_alive).unwrap();
            let resp = read_response(&mut client).unwrap();
            assert_eq!(
                resp.headers.get("connection").map(String::as_str),
                Some(header)
            );
            assert_eq!(resp.keep_alive, keep_alive);
        }
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let cases: [(&[u8], bool); 6] = [
            (b"GET / HTTP/1.1\r\n\r\n", true),
            (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false),
            (
                b"GET / HTTP/1.1\r\nConnection: Keep-Alive, Close\r\n\r\n",
                false,
            ),
            (b"GET / HTTP/1.0\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true),
            (b"GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n", true),
        ];
        for (raw, want) in cases {
            let mut conn = Connection::over(Scripted(vec![raw.to_vec()].into()));
            let req = conn.read_request(HEAD_DEADLINE).unwrap();
            assert_eq!(req.keep_alive, want, "{}", String::from_utf8_lossy(raw));
        }
    }

    #[test]
    fn pipelined_requests_split_anywhere_parse_as_unsplit() {
        let first: &[u8] =
            b"POST /predict HTTP/1.1\r\nHost: wlc\r\nContent-Length: 16\r\n\r\n{\"inputs\":[1.0]}";
        let second: &[u8] = b"GET /healthz HTTP/1.1\r\nContent-Length: 2\r\n\r\nok";
        let wire: Vec<u8> = [first, second].concat();
        // Offsets the splits must reach: inside the first terminator and
        // inside the first body.
        let terminator = first.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
        let inside = [
            terminator + 1,
            terminator + 2,
            terminator + 3,
            first.len() - 5,
        ];
        let (unsplit, end) = parse_all(vec![wire.clone()]);
        assert_eq!(unsplit.len(), 2);
        assert!(matches!(end, ServeError::ConnectionClosed));

        propcheck::run_cases(256, |g| {
            let mut cuts: Vec<usize> = (0..g.usize_in(1, 6))
                .map(|_| g.usize_in(1, wire.len()))
                .collect();
            cuts.push(*g.pick(&inside));
            cuts.sort_unstable();
            cuts.dedup();
            let mut chunks = Vec::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([wire.len()]) {
                chunks.push(wire[from..cut].to_vec());
                from = cut;
            }
            let (parsed, end) = parse_all(chunks.clone());
            assert_eq!(parsed, unsplit, "split as {chunks:?}");
            assert!(matches!(end, ServeError::ConnectionClosed));

            // Truncating the second request anywhere past its first byte
            // ends in a typed framing error, never a panic or a hang.
            let cut = g.usize_in(first.len() + 1, wire.len());
            let (parsed, end) = parse_all(vec![wire[..cut].to_vec()]);
            assert_eq!(parsed.len(), 1);
            assert_eq!(parsed[0], unsplit[0]);
            assert!(matches!(end, ServeError::Protocol(_)), "got {end:?}");
        });
    }

    #[test]
    fn request_split_across_many_tcp_writes_is_reassembled() {
        // Regression: the reader must tolerate heads and bodies arriving
        // across arbitrarily many TCP segments, including a split in the
        // middle of the `\r\n\r\n` terminator, not assume one read
        // yields the full head.
        let (mut client, mut server) = pair();
        let raw =
            b"POST /predict HTTP/1.1\r\nHost: wlc\r\nContent-Length: 16\r\n\r\n{\"inputs\":[1.0]}";
        let writer = thread::spawn(move || {
            // 3-byte chunks with pauses: every boundary lands somewhere
            // interesting at least once, including inside `\r\n\r\n`.
            for chunk in raw.chunks(3) {
                client.write_all(chunk).unwrap();
                client.flush().unwrap();
                thread::sleep(std::time::Duration::from_millis(1));
            }
            client
        });
        let req = read_request(&mut server).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert_eq!(req.body_str().unwrap(), "{\"inputs\":[1.0]}");
        writer.join().unwrap();
    }

    #[test]
    fn terminator_split_exactly_at_segment_boundary() {
        // The nastiest split: `\r\n` then, in a later segment, `\r\n`
        // plus the body. The incremental rescan must still find the
        // terminator that straddles the boundary.
        let (mut client, mut server) = pair();
        let writer = thread::spawn(move || {
            client.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
            client.flush().unwrap();
            thread::sleep(std::time::Duration::from_millis(5));
            client.write_all(b"\r\n").unwrap();
            client.flush().unwrap();
            client
        });
        let req = read_request(&mut server).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        writer.join().unwrap();
    }

    #[test]
    fn response_split_across_tcp_writes_is_reassembled() {
        let (mut client, mut server) = pair();
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n{\"ok\":true}".to_vec();
        let writer = thread::spawn(move || {
            for chunk in raw.chunks(7) {
                server.write_all(chunk).unwrap();
                server.flush().unwrap();
                thread::sleep(std::time::Duration::from_millis(1));
            }
            server
        });
        let resp = read_response(&mut client).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_str().unwrap(), "{\"ok\":true}");
        writer.join().unwrap();
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        let (mut client, mut server) = pair();
        client.write_all(b"NONSENSE\r\n\r\n").unwrap();
        client.flush().unwrap();
        assert!(matches!(
            read_request(&mut server),
            Err(ServeError::Protocol(_))
        ));

        let (mut client2, mut server2) = pair();
        client2
            .write_all(b"POST / HTTP/1.1\r\nContent-Length: zzz\r\n\r\n")
            .unwrap();
        assert!(matches!(
            read_request(&mut server2),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn oversized_bodies_are_rejected_without_allocation() {
        let (mut client, mut server) = pair();
        let head = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        client.write_all(head.as_bytes()).unwrap();
        assert!(matches!(
            read_request(&mut server),
            Err(ServeError::BodyTooLarge { .. })
        ));
    }

    #[test]
    fn body_at_exactly_the_limit_split_across_writes_is_accepted() {
        // Boundary regression: Content-Length == MAX_BODY_BYTES must
        // pass framing even when the body arrives in many TCP segments.
        let (mut client, mut server) = pair();
        let body = vec![b'x'; MAX_BODY_BYTES];
        let head = format!("POST /predict HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n");
        let writer = thread::spawn(move || {
            client.write_all(head.as_bytes()).unwrap();
            for chunk in body.chunks(64 * 1024) {
                client.write_all(chunk).unwrap();
                client.flush().unwrap();
            }
            client
        });
        let req = read_request(&mut server).unwrap();
        assert_eq!(req.body.len(), MAX_BODY_BYTES);
        assert!(req.body.iter().all(|&b| b == b'x'));
        writer.join().unwrap();
    }

    #[test]
    fn body_one_byte_over_the_limit_is_413_before_any_body_read() {
        let (mut client, mut server) = pair();
        let over = MAX_BODY_BYTES + 1;
        let head = format!("POST /predict HTTP/1.1\r\nContent-Length: {over}\r\n\r\n");
        // Only the head is sent; the reader must reject from the
        // declared length alone instead of waiting for body bytes.
        client.write_all(head.as_bytes()).unwrap();
        client.flush().unwrap();
        match read_request(&mut server) {
            Err(ServeError::BodyTooLarge { length, limit }) => {
                assert_eq!(length, over);
                assert_eq!(limit, MAX_BODY_BYTES);
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn slow_header_writer_hits_the_head_deadline() {
        // A peer trickling header bytes must be cut off by the total
        // head deadline, not granted a fresh IO_TIMEOUT per read.
        let (mut client, mut server) = pair();
        configure(&server).unwrap();
        let writer = thread::spawn(move || {
            // Never send the terminator; drip a byte at a time.
            for _ in 0..50 {
                if client.write_all(b"G").is_err() {
                    break;
                }
                let _ = client.flush();
                thread::sleep(std::time::Duration::from_millis(10));
            }
            drop(client);
        });
        let deadline = Duration::from_millis(120);
        let started = std::time::Instant::now();
        match read_request_deadline(&mut server, deadline) {
            Err(ServeError::HeaderTimeout { deadline_ms }) => {
                assert_eq!(deadline_ms, 120);
            }
            other => panic!("expected HeaderTimeout, got {other:?}"),
        }
        // The wait was bounded by the deadline, not by IO_TIMEOUT.
        assert!(started.elapsed() < Duration::from_secs(5));
        writer.join().unwrap();
    }

    #[test]
    fn fast_header_within_deadline_still_parses() {
        let (mut client, mut server) = pair();
        configure(&server).unwrap();
        let writer = thread::spawn(move || {
            client.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            client.flush().unwrap();
            client
        });
        let req = read_request_deadline(&mut server, Duration::from_secs(5)).unwrap();
        assert_eq!(req.path, "/healthz");
        writer.join().unwrap();
    }

    #[test]
    fn truncated_body_reports_protocol_error() {
        let (mut client, mut server) = pair();
        client
            .write_all(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
            .unwrap();
        drop(client); // close before the promised 10 bytes arrive
        assert!(matches!(
            read_request(&mut server),
            Err(ServeError::Protocol(_))
        ));
    }
}
