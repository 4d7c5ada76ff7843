//! Minimal HTTP/1.1 framing over blocking sockets — just enough protocol for
//! the translation service: request-line + headers + `Content-Length` bodies
//! on the way in, keep-alive-aware responses on the way out. No chunked
//! transfer, no TLS, no HTTP/2; the benchmark's load generator and every
//! browser/cURL speak this subset.

use std::io::{self, BufRead, Write};
use std::sync::Arc;

/// Hard cap on the request head (request line + headers). Oversized heads are
/// rejected before any allocation proportional to the claimed size.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request. `path` excludes the query string (`query` keeps it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub query: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body parsed as JSON, or the 400 that says why it could not be.
    pub fn json_body(&self) -> Result<t2v_engine::Json, Response> {
        let text = std::str::from_utf8(&self.body)
            .map_err(|_| Response::error(400, "body is not UTF-8"))?;
        t2v_engine::Json::parse(text)
            .map_err(|e| Response::error(400, &format!("invalid JSON: {e}")))
    }

    /// Does the client ask to drop the connection after this exchange?
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// Clean end of stream before any request bytes — a keep-alive
    /// connection the peer closed. Not an error worth a response.
    Closed,
    /// Transport failure (including read timeouts) mid-request.
    Io(io::Error),
    /// Syntactically broken request; respond 400 and close.
    Malformed(&'static str),
    /// Body larger than the configured limit; respond 413 and close.
    BodyTooLarge,
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Read one request off `reader`. Blocks until a full request arrives, the
/// peer closes, or the socket's read timeout fires.
pub fn read_request(reader: &mut impl BufRead, max_body: usize) -> Result<Request, ReadError> {
    let mut line = Vec::with_capacity(256);
    let mut head_bytes = 0usize;
    let n = read_line(reader, &mut line, &mut head_bytes)?;
    if n == 0 {
        return Err(ReadError::Closed);
    }
    let request_line =
        std::str::from_utf8(&line).map_err(|_| ReadError::Malformed("non-UTF-8 request line"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(ReadError::Malformed("missing method"))?
        .to_string();
    let target = parts.next().ok_or(ReadError::Malformed("missing target"))?;
    let version = parts
        .next()
        .ok_or(ReadError::Malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") || parts.next().is_some() {
        return Err(ReadError::Malformed("bad HTTP version"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    loop {
        line.clear();
        if read_line(reader, &mut line, &mut head_bytes)? == 0 {
            // EOF before the blank line: a half-delivered head, not a
            // complete request.
            return Err(ReadError::Malformed("truncated request head"));
        }
        if line.is_empty() {
            break;
        }
        let text =
            std::str::from_utf8(&line).map_err(|_| ReadError::Malformed("non-UTF-8 header"))?;
        let (name, value) = text
            .split_once(':')
            .ok_or(ReadError::Malformed("header missing ':'"))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ReadError::Malformed("bad content-length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(ReadError::BodyTooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// Outcome of one [`parse_request`] attempt over a byte buffer.
pub enum Parse {
    /// A complete request, plus the number of buffer bytes it consumed
    /// (pipelined followers start at that offset).
    Complete(Box<Request>, usize),
    /// The buffer holds only a prefix of the head — read more.
    NeedHead,
    /// The head is complete but the declared body is still short.
    NeedBody,
    /// Unrecoverable: [`ReadError::Malformed`] or [`ReadError::BodyTooLarge`]
    /// (never `Closed`/`Io` — the caller owns the transport).
    Err(ReadError),
}

/// Incremental twin of [`read_request`]: parse one request out of `buf`
/// without consuming it, for readiness-driven transports that accumulate
/// bytes as they arrive. Semantics are bit-for-bit those of the blocking
/// reader — same head budget, same line handling (CRLF or bare LF, all
/// trailing terminators stripped), same `Content-Length`-only bodies, same
/// error strings — so a request stream parses identically whichever driver
/// fields it. The one necessary divergence: where the blocking reader can
/// only discover truncation at EOF, this parser reports `NeedHead`/
/// `NeedBody` and lets the caller map peer-EOF onto the matching
/// [`ReadError`] via [`truncation_error`].
pub fn parse_request(buf: &[u8], max_body: usize) -> Parse {
    let mut pos = 0usize;
    let mut head_bytes = 0usize;

    let request_line = match parse_line(buf, &mut pos, &mut head_bytes) {
        Ok(Some(line)) => line,
        Ok(None) => return Parse::NeedHead,
        Err(p) => return p,
    };
    let request_line = match std::str::from_utf8(request_line) {
        Ok(s) => s,
        Err(_) => return Parse::Err(ReadError::Malformed("non-UTF-8 request line")),
    };
    let mut parts = request_line.split(' ');
    let method = match parts.next().filter(|m| !m.is_empty()) {
        Some(m) => m.to_string(),
        None => return Parse::Err(ReadError::Malformed("missing method")),
    };
    let Some(target) = parts.next() else {
        return Parse::Err(ReadError::Malformed("missing target"));
    };
    let Some(version) = parts.next() else {
        return Parse::Err(ReadError::Malformed("missing version"));
    };
    if !version.starts_with("HTTP/1.") || parts.next().is_some() {
        return Parse::Err(ReadError::Malformed("bad HTTP version"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    loop {
        let line = match parse_line(buf, &mut pos, &mut head_bytes) {
            Ok(Some(line)) => line,
            Ok(None) => return Parse::NeedHead,
            Err(p) => return p,
        };
        if line.is_empty() {
            break;
        }
        let text = match std::str::from_utf8(line) {
            Ok(t) => t,
            Err(_) => return Parse::Err(ReadError::Malformed("non-UTF-8 header")),
        };
        let Some((name, value)) = text.split_once(':') else {
            return Parse::Err(ReadError::Malformed("header missing ':'"));
        };
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }

    let mut content_length = 0usize;
    if let Some((_, v)) = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
    {
        content_length = match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Parse::Err(ReadError::Malformed("bad content-length")),
        };
    }
    if content_length > max_body {
        return Parse::Err(ReadError::BodyTooLarge);
    }
    if buf.len() - pos < content_length {
        return Parse::NeedBody;
    }
    let body = buf[pos..pos + content_length].to_vec();
    Parse::Complete(
        Box::new(Request {
            method,
            path,
            query,
            headers,
            body,
        }),
        pos + content_length,
    )
}

/// One head line for [`parse_request`]: the terminator-stripped slice plus
/// cursor/budget advance, or `None` when the buffer ends mid-line. Mirrors
/// `read_line`, including the budget check firing even when the overlong
/// line did terminate.
fn parse_line<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    head_bytes: &mut usize,
) -> Result<Option<&'a [u8]>, Parse> {
    match buf[*pos..].iter().position(|&b| b == b'\n') {
        Some(i) => {
            let n = i + 1;
            *head_bytes += n;
            if *head_bytes > MAX_HEAD_BYTES {
                return Err(Parse::Err(ReadError::Malformed("request head too large")));
            }
            let mut line = &buf[*pos..*pos + i];
            while matches!(line.last(), Some(b'\n' | b'\r')) {
                line = &line[..line.len() - 1];
            }
            *pos += n;
            Ok(Some(line))
        }
        None => {
            // No terminator yet. If the unterminated tail already blows the
            // head budget, no amount of further reading helps.
            if buf.len() - *pos > MAX_HEAD_BYTES - *head_bytes {
                return Err(Parse::Err(ReadError::Malformed("request head too large")));
            }
            Ok(None)
        }
    }
}

/// The [`ReadError`] the blocking reader would have produced for a peer that
/// closed after sending `buf` (an incomplete request). Mid-head truncation
/// at a line boundary is "truncated request head", mid-line is "truncated
/// request" — exactly [`read_request`]'s two EOF paths; a short *body* is a
/// transport-level `Io` error there, which carries no response, so callers
/// should close silently for [`Parse::NeedBody`] instead of calling this.
pub fn truncation_error(buf: &[u8]) -> ReadError {
    if buf.last() == Some(&b'\n') {
        ReadError::Malformed("truncated request head")
    } else {
        ReadError::Malformed("truncated request")
    }
}

/// Read one CRLF- (or bare-LF-) terminated line into `buf` (terminator
/// stripped), enforcing the total head budget. Returns bytes consumed.
fn read_line(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    head_bytes: &mut usize,
) -> Result<usize, ReadError> {
    buf.clear();
    // UFCS so `take` borrows the reader instead of consuming it (method
    // resolution would auto-deref to the owned type otherwise).
    let n = std::io::Read::take(&mut *reader, (MAX_HEAD_BYTES - *head_bytes) as u64 + 1)
        .read_until(b'\n', buf)?;
    *head_bytes += n;
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(ReadError::Malformed("request head too large"));
    }
    if n > 0 && buf.last() != Some(&b'\n') {
        return Err(ReadError::Malformed("truncated request"));
    }
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    Ok(n)
}

/// Response payload: owned bytes, or a shared handle straight out of the
/// translation cache — a hit is served without copying the body (the hot
/// path at tens of thousands of hits per second).
#[derive(Debug, Clone)]
pub enum Body {
    Owned(Vec<u8>),
    Shared(Arc<Vec<u8>>),
}

impl Body {
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Body::Owned(v) => v,
            Body::Shared(v) => v,
        }
    }

    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

/// Equality is over the bytes, not the ownership mode.
impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Body {}

impl From<Vec<u8>> for Body {
    fn from(v: Vec<u8>) -> Body {
        Body::Owned(v)
    }
}

impl From<String> for Body {
    fn from(s: String) -> Body {
        Body::Owned(s.into_bytes())
    }
}

impl From<&str> for Body {
    fn from(s: &str) -> Body {
        Body::Owned(s.as_bytes().to_vec())
    }
}

impl From<Arc<Vec<u8>>> for Body {
    fn from(v: Arc<Vec<u8>>) -> Body {
        Body::Shared(v)
    }
}

/// An outgoing response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    /// Extra headers beyond Content-Type/Content-Length/Connection.
    pub headers: Vec<(&'static str, String)>,
    pub body: Body,
}

impl Response {
    pub fn json(status: u16, body: impl Into<Body>) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    pub fn text(status: u16, body: impl Into<Body>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A structured JSON error envelope with an explicit machine-readable
    /// code: `{"error": {"code": "...", "message": "..."}}`. Codes come
    /// from the [`t2v_core::TranslateError`] taxonomy plus the HTTP-level
    /// codes in [`default_error_code`].
    pub fn error_code(status: u16, code: &str, message: &str) -> Response {
        Response::json(status, error_body(code, message))
    }

    /// [`Response::error_code`] with the code derived from the status.
    pub fn error(status: u16, message: &str) -> Response {
        Response::error_code(status, default_error_code(status), message)
    }

    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        w.write_all(&self.head(keep_alive, 0))?;
        w.write_all(self.body.as_slice())?;
        w.flush()
    }

    /// [`Response::write_to`] against a [`BodySink`]: a `Shared` (cached)
    /// body is handed over as its `Arc` so a zero-copy transport can queue
    /// the bytes for `writev` without duplicating them; an owned body rides
    /// in the head's buffer. Framing is byte-identical to `write_to` by
    /// construction (same head, same body bytes). No flush: the sink's
    /// owner decides when bytes ship (the event transport sends a response
    /// and its verdict in one go).
    pub fn write_to_sink<W: BodySink + ?Sized>(
        &self,
        w: &mut W,
        keep_alive: bool,
    ) -> io::Result<()> {
        match &self.body {
            Body::Owned(v) => {
                let mut framed = self.head(keep_alive, v.len());
                framed.extend_from_slice(v);
                w.write_owned(framed)
            }
            Body::Shared(v) => {
                w.write_owned(self.head(keep_alive, 0))?;
                w.write_shared(v)
            }
        }
    }

    /// The head, pushed byte by byte into one buffer sized up front, with
    /// room for `then` more bytes after it.
    fn head(&self, keep_alive: bool, then: usize) -> Vec<u8> {
        let reason = status_text(self.status);
        let connection: &[u8] = if keep_alive { b"keep-alive" } else { b"close" };
        let extra: usize = self
            .headers
            .iter()
            .map(|(k, v)| k.len() + v.len() + 4)
            .sum();
        // 72 bytes of fixed text, a status of up to 5 digits, a length of
        // up to 20.
        let size = 97 + reason.len() + self.content_type.len() + extra;
        let mut head = Vec::with_capacity(size + then);
        head.extend_from_slice(b"HTTP/1.1 ");
        push_decimal(&mut head, self.status.into());
        head.push(b' ');
        head.extend_from_slice(reason.as_bytes());
        head.extend_from_slice(b"\r\nContent-Type: ");
        head.extend_from_slice(self.content_type.as_bytes());
        head.extend_from_slice(b"\r\nContent-Length: ");
        push_decimal(&mut head, self.body.len());
        head.extend_from_slice(b"\r\nConnection: ");
        head.extend_from_slice(connection);
        head.extend_from_slice(b"\r\n");
        for (name, value) in &self.headers {
            head.extend_from_slice(name.as_bytes());
            head.extend_from_slice(b": ");
            head.extend_from_slice(value.as_bytes());
            head.extend_from_slice(b"\r\n");
        }
        head.extend_from_slice(b"\r\n");
        head
    }
}

/// `n` in decimal ASCII, as `{}` formats it.
fn push_decimal(out: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// A response byte sink: `Write` plus an optional zero-copy lane for shared
/// (cached) bodies. The default forwards to `write_all` — any blocking
/// writer gets correct behavior for free; the event-loop transport overrides
/// it to queue the `Arc` itself for a vectored socket write.
pub trait BodySink: Write {
    fn write_shared(&mut self, body: &Arc<Vec<u8>>) -> io::Result<()> {
        self.write_all(body)
    }

    /// Bytes framed into a buffer of their own; a segment transport may
    /// adopt the buffer rather than copy it.
    fn write_owned(&mut self, bytes: Vec<u8>) -> io::Result<()> {
        self.write_all(&bytes)
    }
}

impl BodySink for Vec<u8> {}

/// The structured error envelope as bytes — what [`Response::error_code`]
/// frames, and what a pool reply carries without a `Response` around it.
pub fn error_body(code: &str, message: &str) -> Vec<u8> {
    let mut body = String::from("{\"error\": {\"code\": ");
    t2v_engine::Json::str(code).write_compact_into(&mut body);
    body.push_str(", \"message\": ");
    t2v_engine::Json::str(message).write_compact_into(&mut body);
    body.push_str("}}");
    body.into_bytes()
}

pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// The wire error code implied by a status, for errors that are purely
/// HTTP-level (translation-level errors carry `TranslateError::code`s).
pub fn default_error_code(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        404 => "not_found",
        405 => "method_not_allowed",
        413 => "payload_too_large",
        500 => "internal",
        503 => "overload",
        504 => "deadline_exceeded",
        _ => "error",
    }
}

/// The canned overload response, as raw bytes so the acceptor can shed a
/// connection without allocating or parsing anything.
pub fn overload_response_bytes() -> &'static [u8] {
    b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nContent-Length: 63\r\nConnection: close\r\nRetry-After: 1\r\n\r\n{\"error\": {\"code\": \"overload\", \"message\": \"server overloaded\"}}"
}

/// Write the head of an EOF-delimited streaming response: no
/// `Content-Length`, `Connection: close` — the body ends when the server
/// closes the socket. Used for NDJSON stage streaming.
pub fn write_streaming_head(
    w: &mut (impl Write + ?Sized),
    status: u16,
    content_type: &str,
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nConnection: close\r\n\r\n",
        status,
        status_text(status),
        content_type
    )?;
    w.flush()
}

/// Write one line of a streaming (NDJSON) body and push it to the peer.
pub fn write_line(w: &mut (impl Write + ?Sized), line: &[u8]) -> io::Result<()> {
    w.write_all(line)?;
    w.write_all(b"\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(raw), 1024)
    }

    /// The head as `write!` rendered it before it was pushed byte by byte.
    fn formatted_head(resp: &Response, keep_alive: bool) -> String {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            resp.status,
            status_text(resp.status),
            resp.content_type,
            resp.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &resp.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head + "\r\n"
    }

    #[test]
    fn framing_matches_the_formatted_head_byte_for_byte() {
        let bodies = [0usize, 1, 9, 10, 99, 100, 65_536]
            .map(|n| vec![b'x'; n])
            .to_vec();
        for status in [200u16, 404, 500, 504, 0, 7, 65_535] {
            for body in &bodies {
                for shared in [false, true] {
                    for extra in 0..3 {
                        let mut resp = Response::text(status, body.clone());
                        if shared {
                            resp.body = Body::Shared(Arc::new(body.clone()));
                        }
                        for i in 0..extra {
                            resp = resp.with_header("x-t2v-cache", format!("v{i}"));
                        }
                        for keep in [false, true] {
                            let want = [formatted_head(&resp, keep).as_bytes(), body].concat();
                            let mut sink = Vec::new();
                            resp.write_to_sink(&mut sink, keep).unwrap();
                            assert_eq!(sink, want, "status {status}, {} body bytes", body.len());
                            let mut plain = Vec::new();
                            resp.write_to(&mut plain, keep).unwrap();
                            assert_eq!(plain, want);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(
            b"POST /translate?x=1 HTTP/1.1\r\nHost: localhost\r\nContent-Length: 4\r\n\r\nabcd",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/translate");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("HOST"), Some("localhost"));
        assert_eq!(req.body, b"abcd");
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_get_without_body_and_connection_close() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        assert!(req.wants_close());
    }

    #[test]
    fn clean_eof_is_closed_not_malformed() {
        assert!(matches!(parse(b""), Err(ReadError::Closed)));
    }

    #[test]
    fn rejects_malformed_requests() {
        for raw in [
            b"GARBAGE\r\n\r\n".as_slice(),
            b"GET /x HTTP/2.0\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            // EOF mid-head (no terminating blank line) is truncation, not a
            // complete header block.
            b"GET /x HTTP/1.1\r\nHost: x\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(ReadError::Malformed(_))),
                "should be malformed: {:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn rejects_oversized_bodies_without_allocating_them() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        assert!(matches!(parse(raw), Err(ReadError::BodyTooLarge)));
    }

    #[test]
    fn truncated_body_is_io_error() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(matches!(parse(raw), Err(ReadError::Io(_))));
    }

    #[test]
    fn response_roundtrips_through_parser_shape() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\": true}")
            .with_header("x-t2v-cache", "hit")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 12\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("x-t2v-cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\": true}"));
    }

    #[test]
    fn overload_bytes_announce_their_length_correctly() {
        let raw = overload_response_bytes();
        let text = std::str::from_utf8(raw).unwrap();
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        let announced: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(body.len(), announced);
        t2v_engine::Json::parse(body).unwrap();
    }

    #[test]
    fn incremental_parser_agrees_with_blocking_reader() {
        // Every shape the blocking tests exercise, plus a keep-alive pair:
        // the two parsers must agree on outcome (and on the parsed request,
        // when there is one) for identical byte streams.
        let cases: &[&[u8]] = &[
            b"POST /translate?x=1 HTTP/1.1\r\nHost: localhost\r\nContent-Length: 4\r\n\r\nabcd",
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET /a HTTP/1.1\n\n", // bare-LF line endings
            b"GARBAGE\r\n\r\n",
            b"GET /x HTTP/2.0\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
            b"\r\nGET /x HTTP/1.1\r\n\r\n", // empty request line
        ];
        for raw in cases {
            let blocking = read_request(&mut BufReader::new(*raw), 1024);
            match (parse_request(raw, 1024), blocking) {
                (Parse::Complete(req, consumed), Ok(b)) => {
                    assert_eq!(*req, b, "{:?}", String::from_utf8_lossy(raw));
                    assert!(consumed <= raw.len());
                }
                (Parse::Err(ReadError::Malformed(a)), Err(ReadError::Malformed(b))) => {
                    assert_eq!(a, b, "{:?}", String::from_utf8_lossy(raw));
                }
                (Parse::Err(ReadError::BodyTooLarge), Err(ReadError::BodyTooLarge)) => {}
                (got, want) => panic!(
                    "parser disagreement on {:?}: incremental {:?} vs blocking {:?}",
                    String::from_utf8_lossy(raw),
                    match got {
                        Parse::Complete(..) => "Complete",
                        Parse::NeedHead => "NeedHead",
                        Parse::NeedBody => "NeedBody",
                        Parse::Err(_) => "Err",
                    },
                    want.map(|r| r.path)
                ),
            }
        }
    }

    #[test]
    fn incremental_parser_needs_more_at_every_prefix() {
        let raw: &[u8] =
            b"POST /v1/translate HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\r\nhello";
        let head_end = raw.len() - 5;
        for cut in 0..raw.len() {
            match parse_request(&raw[..cut], 1024) {
                Parse::NeedHead => assert!(cut < head_end, "NeedHead after head at {cut}"),
                Parse::NeedBody => assert!(cut >= head_end, "NeedBody inside head at {cut}"),
                Parse::Complete(..) => panic!("complete on a strict prefix at {cut}"),
                Parse::Err(_) => panic!("prefix must never be an error at {cut}"),
            }
        }
        let Parse::Complete(req, consumed) = parse_request(raw, 1024) else {
            panic!("full request must parse");
        };
        assert_eq!(req.body, b"hello");
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn incremental_parser_leaves_pipelined_followers() {
        let raw: &[u8] =
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /c HTTP/1.1\r\n\r\n";
        let mut pos = 0;
        let mut paths = Vec::new();
        while pos < raw.len() {
            match parse_request(&raw[pos..], 64) {
                Parse::Complete(req, consumed) => {
                    paths.push(req.path.clone());
                    pos += consumed;
                }
                _ => panic!("expected a complete request at {pos}"),
            }
        }
        assert_eq!(paths, ["/a", "/b", "/c"]);
    }

    #[test]
    fn incremental_parser_enforces_head_budget_without_newline() {
        // An attacker streaming an endless request line must be rejected as
        // soon as the budget is blown, not buffered forever.
        let mut raw = vec![b'A'; MAX_HEAD_BYTES + 2];
        raw[0] = b'G';
        assert!(matches!(
            parse_request(&raw, 1024),
            Parse::Err(ReadError::Malformed("request head too large"))
        ));
        // Just under budget with no newline: still waiting.
        assert!(matches!(
            parse_request(&raw[..MAX_HEAD_BYTES], 1024),
            Parse::NeedHead
        ));
    }

    #[test]
    fn truncation_error_matches_blocking_eof_semantics() {
        // EOF at a line boundary == "truncated request head" (read_line saw
        // a clean 0-byte read); EOF mid-line == "truncated request".
        let at_boundary = b"GET /x HTTP/1.1\r\nHost: x\r\n";
        let blocking = read_request(&mut BufReader::new(at_boundary.as_slice()), 64);
        let (ReadError::Malformed(want), ReadError::Malformed(got)) =
            (blocking.unwrap_err(), truncation_error(at_boundary))
        else {
            panic!("both must be malformed");
        };
        assert_eq!(want, got);

        let mid_line = b"GET /x HT";
        let blocking = read_request(&mut BufReader::new(mid_line.as_slice()), 64);
        let (ReadError::Malformed(want), ReadError::Malformed(got)) =
            (blocking.unwrap_err(), truncation_error(mid_line))
        else {
            panic!("both must be malformed");
        };
        assert_eq!(want, got);
    }

    #[test]
    fn sink_write_matches_plain_write() {
        let resp = Response::json(200, Arc::new(b"{\"ok\": true}".to_vec()))
            .with_header("x-t2v-cache", "hit");
        let mut plain = Vec::new();
        resp.write_to(&mut plain, true).unwrap();
        let mut sunk = Vec::new();
        resp.write_to_sink(&mut sunk, true).unwrap();
        assert_eq!(plain, sunk);
    }

    #[test]
    fn multiple_requests_stream_off_one_reader() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /c HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(raw.as_slice());
        assert_eq!(read_request(&mut reader, 64).unwrap().path, "/a");
        let b = read_request(&mut reader, 64).unwrap();
        assert_eq!(b.path, "/b");
        assert_eq!(b.body, b"hi");
        assert_eq!(read_request(&mut reader, 64).unwrap().path, "/c");
        assert!(matches!(
            read_request(&mut reader, 64),
            Err(ReadError::Closed)
        ));
    }
}
