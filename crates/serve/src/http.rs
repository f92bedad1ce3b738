//! Minimal HTTP/1.1 framing over `std::net` — just enough protocol for a
//! JSON request/response service and its load generator, with the same
//! hostile-input hygiene as the JSON codec: every length is bounded before
//! allocation, reads run under socket timeouts so connection threads can
//! observe the shutdown flag, and malformed framing yields a typed error,
//! never a panic.
//!
//! Both directions live here — [`read_request`]/[`write_response`] for the
//! server, [`write_request`]/[`read_response`] for the bench client and
//! the integration tests — so a framing bug cannot hide by being mirrored
//! in two private copies.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum bytes of request/status line + headers.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Maximum accepted `Content-Length`.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A malformed or oversized HTTP message.
#[derive(Debug)]
pub enum HttpError {
    /// Underlying socket error (including read timeouts).
    Io(io::Error),
    /// The peer closed the connection before a complete message.
    ConnectionClosed,
    /// Head section exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// `Content-Length` exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge {
        /// The declared length.
        declared: usize,
    },
    /// Request/status line or a header line failed to parse.
    Malformed(&'static str),
    /// The wall deadline passed *mid-message*: some bytes of the message
    /// had arrived, then the sender stalled. The server answers this with
    /// a 408 — a half-sent head must not hold a connection slot.
    TimedOut,
    /// The wall deadline passed while the connection was idle (no byte of
    /// a next message received). Keep-alive connections may idle freely;
    /// callers re-arm the deadline and keep waiting.
    IdleTimedOut,
    /// The caller's cancel predicate fired while the connection was idle
    /// (no bytes of a next message received). In-flight messages are never
    /// cancelled — that is the drain guarantee.
    Cancelled,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::ConnectionClosed => write!(f, "connection closed mid-message"),
            HttpError::HeadTooLarge => {
                write!(f, "header section exceeds {MAX_HEAD_BYTES} bytes")
            }
            HttpError::BodyTooLarge { declared } => {
                write!(
                    f,
                    "declared body of {declared} bytes exceeds {MAX_BODY_BYTES}"
                )
            }
            HttpError::Malformed(what) => write!(f, "malformed http message: {what}"),
            HttpError::TimedOut => write!(f, "timed out mid-message waiting for the rest"),
            HttpError::IdleTimedOut => write!(f, "timed out while idle"),
            HttpError::Cancelled => write!(f, "cancelled while idle"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// A parsed request head plus its body.
#[derive(Debug)]
pub struct HttpRequest {
    /// Request method, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target (path + optional query), e.g. `/simulate`.
    pub path: String,
    /// Headers with lowercased names; duplicate names keep the last value.
    pub headers: HashMap<String, String>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// An HTTP response under construction.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code (200, 400, 404, 429, 500, 503).
    pub status: u16,
    /// Response body bytes, shared so a memoized body is answered without
    /// a copy.
    pub body: Arc<Vec<u8>>,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Whether to advertise and honour `Connection: close`.
    pub close: bool,
    /// Optional `Retry-After` header value in seconds. Every 429/503 the
    /// server emits carries one, derived from queue depth or drain state.
    pub retry_after: Option<u64>,
}

impl HttpResponse {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse::shared_json(status, Arc::new(body.into()))
    }

    /// A JSON response whose body is shared with a memo.
    pub fn shared_json(status: u16, body: Arc<Vec<u8>>) -> HttpResponse {
        HttpResponse {
            status,
            body,
            content_type: "application/json",
            close: false,
            retry_after: None,
        }
    }

    /// Attaches a `Retry-After` hint (seconds).
    pub fn with_retry_after(mut self, secs: u64) -> HttpResponse {
        self.retry_after = Some(secs);
        self
    }

    /// The standard reason phrase for the statuses this server emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            410 => "Gone",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

/// Reads until `buf` contains the head terminator (`\r\n\r\n`), returning
/// the terminator's end offset. Honours the stream's read timeout by
/// re-polling `deadline_hit` between reads.
fn read_head(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    deadline: Instant,
    idle_cancel: &dyn Fn() -> bool,
) -> Result<usize, HttpError> {
    loop {
        if let Some(end) = find_head_end(buf) {
            return Ok(end);
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        if buf.is_empty() && idle_cancel() {
            return Err(HttpError::Cancelled);
        }
        if Instant::now() >= deadline {
            // Distinguish a stalled sender (bytes arrived, then silence —
            // the slowloris shape, answered with 408) from a connection
            // that is simply idle between keep-alive requests.
            return Err(if buf.is_empty() {
                HttpError::IdleTimedOut
            } else {
                HttpError::TimedOut
            });
        }
        let mut chunk = [0u8; 1024];
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(if buf.is_empty() {
                    HttpError::ConnectionClosed
                } else {
                    HttpError::Malformed("eof inside header section")
                });
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Socket read timeout: loop to re-check the deadline (and
                // let the caller's shutdown flag get a look-in between
                // requests via the deadline it chose).
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Reads one request from `stream`. `deadline` bounds the whole message;
/// the stream should already carry a short read timeout so this function
/// returns to its caller's poll loop regularly. `idle_cancel` is polled
/// between reads *only while no byte of the message has arrived* — once a
/// message is in flight it is read to completion (the server's drain
/// guarantee) — and aborts the wait with [`HttpError::Cancelled`].
///
/// Returns `Ok(None)` when the peer cleanly closed the connection before
/// sending another request (the keep-alive end-of-session case).
pub fn read_request(
    stream: &mut TcpStream,
    deadline: Instant,
    idle_cancel: &dyn Fn() -> bool,
) -> Result<Option<HttpRequest>, HttpError> {
    let mut buf = Vec::new();
    let head_end = match read_head(stream, &mut buf, deadline, idle_cancel) {
        Ok(end) => end,
        Err(HttpError::ConnectionClosed) => return Ok(None),
        Err(e) => return Err(e),
    };
    let head = std::str::from_utf8(&buf[..head_end - 4])
        .map_err(|_| HttpError::Malformed("non-utf8 header section"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(HttpError::Malformed("missing method"))?
        .to_string();
    let path = parts
        .next()
        .filter(|p| !p.is_empty())
        .ok_or(HttpError::Malformed("missing request target"))?
        .to_string();
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported http version"));
    }
    let mut headers = HashMap::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header line without colon"))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }

    let content_length = match headers.get("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed("bad content-length"))?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge {
            declared: content_length,
        });
    }
    // `100-continue` clients wait for permission before sending the body.
    if headers
        .get("expect")
        .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
    {
        stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
    }

    let mut body = buf[head_end..].to_vec();
    while body.len() < content_length {
        if Instant::now() >= deadline {
            return Err(HttpError::TimedOut);
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HttpError::Malformed("eof inside body")),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    if body.len() > content_length {
        // Pipelined extra bytes; this minimal server handles one request
        // per read cycle, so surplus framing is a protocol error here.
        return Err(HttpError::Malformed("body longer than content-length"));
    }
    Ok(Some(HttpRequest {
        method,
        path,
        headers,
        body,
    }))
}

/// Writes `resp` to `stream` as an HTTP/1.1 message.
///
/// Head and body go out in one `write_all`: two small writes on a
/// keep-alive socket trip the Nagle/delayed-ACK interaction (the second
/// write sits in the kernel until the peer ACKs the first, ~40 ms per
/// exchange), which would dominate every warm request's latency.
pub fn write_response(stream: &mut TcpStream, resp: &HttpResponse) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        resp.status,
        HttpResponse::reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    if let Some(secs) = resp.retry_after {
        head.push_str(&format!("retry-after: {secs}\r\n"));
    }
    if resp.close {
        head.push_str("connection: close\r\n");
    }
    head.push_str("\r\n");
    let mut message = head.into_bytes();
    message.extend_from_slice(&resp.body);
    stream.write_all(&message)?;
    stream.flush()
}

/// Client side: writes a request with an optional body (single write, for
/// the same Nagle reason as [`write_response`]).
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

/// Client side: reads one response, returning `(status, body)`.
pub fn read_response(
    stream: &mut TcpStream,
    deadline: Instant,
) -> Result<(u16, Vec<u8>), HttpError> {
    read_response_full(stream, deadline).map(|(status, _headers, body)| (status, body))
}

/// A fully-read client response: `(status, headers, body)`, headers with
/// lowercased names.
pub type FullResponse = (u16, HashMap<String, String>, Vec<u8>);

/// Client side: reads one response, returning `(status, headers, body)` —
/// headers with lowercased names, for tests asserting on `Retry-After`.
pub fn read_response_full(
    stream: &mut TcpStream,
    deadline: Instant,
) -> Result<FullResponse, HttpError> {
    let mut buf = Vec::new();
    let head_end = read_head(stream, &mut buf, deadline, &|| false)?;
    let head = std::str::from_utf8(&buf[..head_end - 4])
        .map_err(|_| HttpError::Malformed("non-utf8 header section"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or(HttpError::Malformed("bad status line"))?;
    let mut content_length = 0usize;
    let mut headers = HashMap::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header line without colon"))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse::<usize>()
                .map_err(|_| HttpError::Malformed("bad content-length"))?;
            if content_length > MAX_BODY_BYTES {
                return Err(HttpError::BodyTooLarge {
                    declared: content_length,
                });
            }
        }
    }
    let mut body = buf[head_end..].to_vec();
    while body.len() < content_length {
        if Instant::now() >= deadline {
            return Err(HttpError::TimedOut);
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HttpError::Malformed("eof inside body")),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    body.truncate(content_length);
    Ok((status, headers, body))
}

/// Applies the short per-read timeout every server/client socket uses so
/// blocking reads return to their poll loops.
pub fn set_poll_timeout(stream: &TcpStream, timeout: Duration) -> io::Result<()> {
    stream.set_read_timeout(Some(timeout))
}

/// Maximum bytes of a single chunk-size line (hex digits + CRLF). Chunk
/// extensions are not produced by this server and not accepted by this
/// client.
const MAX_CHUNK_SIZE_LINE: usize = 32;

/// Server side: writes the head of a `Transfer-Encoding: chunked`
/// streaming response. Streams always close the connection when done —
/// a session owns its connection for its whole lifetime.
pub fn write_chunked_head(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n",
        status,
        HttpResponse::reason(status),
        content_type,
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Encodes one chunk (size line + payload + CRLF) without writing it —
/// the session multiplexer appends encoded chunks to a per-session buffer
/// and flushes them with non-blocking writes. Empty payloads encode to
/// nothing (a zero-size chunk is the terminator).
pub fn chunk_bytes(data: &[u8]) -> Vec<u8> {
    if data.is_empty() {
        return Vec::new();
    }
    let mut message = format!("{:x}\r\n", data.len()).into_bytes();
    message.extend_from_slice(data);
    message.extend_from_slice(b"\r\n");
    message
}

/// The zero-size terminator chunk ending a chunked stream.
pub const LAST_CHUNK: &[u8] = b"0\r\n\r\n";

/// Server side: writes one chunk as a single `write_all`, for the same
/// Nagle reason as [`write_response`]. Empty payloads are skipped — a
/// zero-size chunk is the terminator and must only come from
/// [`write_last_chunk`].
pub fn write_chunk(stream: &mut TcpStream, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    stream.write_all(&chunk_bytes(data))?;
    stream.flush()
}

/// Server side: writes the zero-size terminator chunk ending the stream.
pub fn write_last_chunk(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(LAST_CHUNK)?;
    stream.flush()
}

/// A parsed response status line + framing headers, for clients that need
/// to distinguish chunked streams from content-length bodies.
#[derive(Debug)]
pub struct ResponseHead {
    /// Status code from the status line.
    pub status: u16,
    /// True when the response advertised `Transfer-Encoding: chunked`.
    pub chunked: bool,
    /// Declared `Content-Length` (0 when absent or chunked).
    pub content_length: usize,
}

/// Client side: reads a response head only, returning the parsed head and
/// any body bytes that arrived with it (hand these to [`ChunkReader::new`]
/// for chunked streams).
pub fn read_response_head(
    stream: &mut TcpStream,
    deadline: Instant,
) -> Result<(ResponseHead, Vec<u8>), HttpError> {
    let mut buf = Vec::new();
    let head_end = read_head(stream, &mut buf, deadline, &|| false)?;
    let head = std::str::from_utf8(&buf[..head_end - 4])
        .map_err(|_| HttpError::Malformed("non-utf8 header section"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or(HttpError::Malformed("bad status line"))?;
    let mut chunked = false;
    let mut content_length = 0usize;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header line without colon"))?;
        let name = name.trim();
        if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = value.trim().eq_ignore_ascii_case("chunked");
        } else if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse::<usize>()
                .map_err(|_| HttpError::Malformed("bad content-length"))?;
            if content_length > MAX_BODY_BYTES {
                return Err(HttpError::BodyTooLarge {
                    declared: content_length,
                });
            }
        }
    }
    Ok((
        ResponseHead {
            status,
            chunked,
            content_length,
        },
        buf[head_end..].to_vec(),
    ))
}

/// Client side: incremental chunked-body reader. Feed it the leftover
/// bytes from [`read_response_head`], then call
/// [`next_chunk`](Self::next_chunk) until it returns `Ok(None)` (the
/// zero-size terminator).
#[derive(Debug)]
pub struct ChunkReader {
    buf: Vec<u8>,
    done: bool,
}

impl ChunkReader {
    /// Starts a reader over `leftover` bytes already pulled off the wire.
    pub fn new(leftover: Vec<u8>) -> ChunkReader {
        ChunkReader {
            buf: leftover,
            done: false,
        }
    }

    fn fill(&mut self, stream: &mut TcpStream, deadline: Instant) -> Result<(), HttpError> {
        loop {
            if Instant::now() >= deadline {
                return Err(HttpError::TimedOut);
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return Err(HttpError::ConnectionClosed),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(());
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted =>
                {
                    continue;
                }
                Err(e) => return Err(HttpError::Io(e)),
            }
        }
    }

    /// Reads the next chunk payload, or `Ok(None)` once the terminator
    /// chunk has been consumed (subsequent calls keep returning `None`).
    pub fn next_chunk(
        &mut self,
        stream: &mut TcpStream,
        deadline: Instant,
    ) -> Result<Option<Vec<u8>>, HttpError> {
        if self.done {
            return Ok(None);
        }
        // Parse the size line, pulling more bytes as needed.
        let size = loop {
            if let Some(pos) = self.buf.windows(2).position(|w| w == b"\r\n") {
                let line = std::str::from_utf8(&self.buf[..pos])
                    .map_err(|_| HttpError::Malformed("non-utf8 chunk size"))?;
                let size = usize::from_str_radix(line.trim(), 16)
                    .map_err(|_| HttpError::Malformed("bad chunk size"))?;
                if size > MAX_BODY_BYTES {
                    return Err(HttpError::BodyTooLarge { declared: size });
                }
                self.buf.drain(..pos + 2);
                break size;
            }
            if self.buf.len() > MAX_CHUNK_SIZE_LINE {
                return Err(HttpError::Malformed("oversized chunk size line"));
            }
            self.fill(stream, deadline)?;
        };
        // Payload + trailing CRLF.
        while self.buf.len() < size + 2 {
            self.fill(stream, deadline)?;
        }
        if &self.buf[size..size + 2] != b"\r\n" {
            return Err(HttpError::Malformed("chunk missing trailing crlf"));
        }
        let data: Vec<u8> = self.buf.drain(..size + 2).take(size).collect();
        if size == 0 {
            self.done = true;
            return Ok(None);
        }
        Ok(Some(data))
    }
}

/// Client side: JSONL line splitter over a chunked stream. Lines may span
/// chunk boundaries; this yields complete `\n`-terminated lines (without
/// the terminator) until the stream ends.
#[derive(Debug)]
pub struct ChunkedLines {
    reader: ChunkReader,
    pending: Vec<u8>,
    eof: bool,
}

impl ChunkedLines {
    /// Starts a line splitter over the leftover bytes from
    /// [`read_response_head`].
    pub fn new(leftover: Vec<u8>) -> ChunkedLines {
        ChunkedLines {
            reader: ChunkReader::new(leftover),
            pending: Vec::new(),
            eof: false,
        }
    }

    /// Reads the next complete line, or `Ok(None)` at end of stream. A
    /// final unterminated line (no trailing `\n` before the terminator
    /// chunk) is yielded as-is.
    pub fn next_line(
        &mut self,
        stream: &mut TcpStream,
        deadline: Instant,
    ) -> Result<Option<Vec<u8>>, HttpError> {
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.pending.drain(..pos + 1).take(pos).collect();
                return Ok(Some(line));
            }
            if self.eof {
                if self.pending.is_empty() {
                    return Ok(None);
                }
                return Ok(Some(std::mem::take(&mut self.pending)));
            }
            match self.reader.next_chunk(stream, deadline)? {
                Some(data) => self.pending.extend_from_slice(&data),
                None => self.eof = true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        set_poll_timeout(&client, Duration::from_millis(20)).unwrap();
        set_poll_timeout(&server, Duration::from_millis(20)).unwrap();
        (client, server)
    }

    fn soon() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    #[test]
    fn round_trips_a_request() {
        let (mut client, mut server) = pair();
        write_request(&mut client, "POST", "/simulate", b"{\"k\":4}").unwrap();
        let req = read_request(&mut server, soon(), &|| false)
            .unwrap()
            .expect("request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/simulate");
        assert_eq!(req.body, b"{\"k\":4}");
        assert_eq!(
            req.headers.get("content-type").map(String::as_str),
            Some("application/json")
        );
    }

    #[test]
    fn round_trips_a_response() {
        let (mut client, mut server) = pair();
        write_response(&mut server, &HttpResponse::json(200, "{\"ok\":true}")).unwrap();
        let (status, body) = read_response(&mut client, soon()).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"ok\":true}");
    }

    #[test]
    fn clean_close_reads_as_none() {
        let (client, mut server) = pair();
        drop(client);
        let req = read_request(&mut server, soon(), &|| false).unwrap();
        assert!(req.is_none(), "clean close is end-of-session, not an error");
    }

    #[test]
    fn oversized_body_is_rejected_before_allocation() {
        let (mut client, mut server) = pair();
        let head = format!(
            "POST /simulate HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        client.write_all(head.as_bytes()).unwrap();
        let err = read_request(&mut server, soon(), &|| false).unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge { .. }), "{err}");
    }

    #[test]
    fn oversized_head_is_rejected() {
        let (mut client, mut server) = pair();
        let mut head = String::from("GET / HTTP/1.1\r\n");
        while head.len() <= MAX_HEAD_BYTES {
            head.push_str("x-filler: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        client.write_all(head.as_bytes()).unwrap();
        let err = read_request(&mut server, soon(), &|| false).unwrap_err();
        assert!(matches!(err, HttpError::HeadTooLarge), "{err}");
    }

    #[test]
    fn malformed_request_line_is_a_typed_error() {
        let (mut client, mut server) = pair();
        client.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let err = read_request(&mut server, soon(), &|| false).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
    }

    #[test]
    fn deadline_bounds_a_stalled_request() {
        let (mut client, mut server) = pair();
        // Send a head promising a body that never arrives.
        client
            .write_all(b"POST /simulate HTTP/1.1\r\ncontent-length: 10\r\n\r\n")
            .unwrap();
        let err = read_request(
            &mut server,
            Instant::now() + Duration::from_millis(60),
            &|| false,
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::TimedOut), "{err}");
    }

    #[test]
    fn chunked_stream_round_trips_lines_across_chunk_boundaries() {
        let (mut client, mut server) = pair();
        let writer = std::thread::spawn(move || {
            write_chunked_head(&mut server, 200, "application/jsonl").unwrap();
            // One line split across two chunks, then two lines in one chunk.
            write_chunk(&mut server, b"{\"event\":").unwrap();
            write_chunk(&mut server, b"\"open\"}\n").unwrap();
            write_chunk(&mut server, b"{\"a\":1}\n{\"b\":2}\n").unwrap();
            write_last_chunk(&mut server).unwrap();
        });
        let (head, leftover) = read_response_head(&mut client, soon()).unwrap();
        assert_eq!(head.status, 200);
        assert!(head.chunked);
        let mut lines = ChunkedLines::new(leftover);
        let mut got = Vec::new();
        while let Some(line) = lines.next_line(&mut client, soon()).unwrap() {
            got.push(String::from_utf8(line).unwrap());
        }
        assert_eq!(got, ["{\"event\":\"open\"}", "{\"a\":1}", "{\"b\":2}"]);
        writer.join().unwrap();
    }

    #[test]
    fn oversized_chunk_is_rejected_before_allocation() {
        let (mut client, mut server) = pair();
        server
            .write_all(format!("{:x}\r\n", MAX_BODY_BYTES + 1).as_bytes())
            .unwrap();
        let mut reader = ChunkReader::new(Vec::new());
        let err = reader.next_chunk(&mut client, soon()).unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge { .. }), "{err}");
    }

    #[test]
    fn malformed_chunk_size_is_a_typed_error() {
        let (mut client, mut server) = pair();
        server.write_all(b"zzz\r\n").unwrap();
        let mut reader = ChunkReader::new(Vec::new());
        let err = reader.next_chunk(&mut client, soon()).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
    }

    #[test]
    fn expect_continue_is_acknowledged() {
        let (mut client, mut server) = pair();
        client
            .write_all(
                b"POST /simulate HTTP/1.1\r\ncontent-length: 2\r\nexpect: 100-continue\r\n\r\n",
            )
            .unwrap();
        let handle = std::thread::spawn(move || {
            let req = read_request(&mut server, soon(), &|| false)
                .unwrap()
                .unwrap();
            (req, server)
        });
        // Wait for the interim response, then send the body.
        let mut interim = [0u8; 25];
        client.read_exact(&mut interim).unwrap();
        assert_eq!(&interim, b"HTTP/1.1 100 Continue\r\n\r\n");
        client.write_all(b"{}").unwrap();
        let (req, _server) = handle.join().unwrap();
        assert_eq!(req.body, b"{}");
    }
}
