//! Incremental HTTP/1.1 parsers.
//!
//! These are push parsers: feed them bytes as they arrive off a TCP stream
//! and collect complete messages. The RecordShell proxy runs one of each
//! direction per connection; ReplayShell's servers and the browser use them
//! too, so correctness here is load-bearing for the whole toolkit.
//!
//! Supported body framings: `Content-Length`, `Transfer-Encoding: chunked`
//! (with trailers), bodyless statuses (1xx/204/304 and HEAD responses), and
//! read-until-close for responses with neither (RFC 9112 §6.3).
//!
//! A head, chunk-size line or trailer line longer than 256 KiB is a
//! [`ParseError`], and each search for its end resumes where the previous
//! feed's stopped: a peer that never ends its head costs bounded memory
//! and linear time.

use bytes::{Buf, Bytes, BytesMut};

use crate::headers::HeaderMap;
use crate::message::{Method, Request, Response, Version};

/// Parse failure: the byte stream is not valid HTTP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HTTP parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// Longest message head, chunk-size line or trailer line accepted, its
/// terminator included. Chromium's `HttpStreamParser` gives up on response
/// heads at the same size.
const MAX_LINE: usize = 256 * 1024;

/// The offset just past the first `end` in `buf`, which terminates the
/// head or line at its front. The search starts past the `scanned` bytes
/// the previous one covered, and records how far this one got. A line that
/// has passed [`MAX_LINE`] without its end is an error, and its bytes are
/// dropped.
fn line_end<const L: usize>(
    buf: &mut BytesMut,
    scanned: &mut usize,
    end: &[u8; L],
) -> Result<Option<usize>, ParseError> {
    let from = scanned.saturating_sub(L - 1);
    let window = &buf[from..buf.len().min(MAX_LINE)];
    if let Some(at) = window.windows(L).position(|w| w == end) {
        *scanned = 0;
        return Ok(Some(from + at + L));
    }
    if buf.len() >= MAX_LINE {
        buf.clear();
        *scanned = 0;
        return err(format!("no line end in the first {MAX_LINE} bytes"));
    }
    *scanned = buf.len();
    Ok(None)
}

/// Split raw header bytes (without the trailing blank line) into the start
/// line and a HeaderMap.
fn parse_head(raw: &[u8]) -> Result<(&str, HeaderMap), ParseError> {
    let text = std::str::from_utf8(raw).map_err(|_| ParseError("non-UTF8 header".into()))?;
    let mut lines = text.split("\r\n");
    let start = lines.next().unwrap_or("");
    if start.is_empty() {
        return err("empty start line");
    }
    // One field per line after the first, none longer than the head.
    let fields = raw.iter().filter(|&&b| b == b'\n').count();
    let mut headers = HeaderMap::with_capacity(fields, raw.len() - start.len());
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError(format!("malformed header line: {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return err(format!("malformed header name: {name:?}"));
        }
        headers.append(name, value.trim());
    }
    Ok((start, headers))
}

/// A request head: request line and fields.
fn parse_request_head(raw: &[u8]) -> Result<(Method, String, Version, HeaderMap), ParseError> {
    let (start, headers) = parse_head(raw)?;
    let mut parts = start.split(' ');
    let (m, t, v) = (parts.next(), parts.next(), parts.next());
    let (Some(m), Some(t), Some(v)) = (m, t, v) else {
        return err(format!("malformed request line: {start:?}"));
    };
    let version = Version::from_token(v).ok_or_else(|| ParseError(format!("bad version {v:?}")))?;
    Ok((Method::from_token(m), t.to_string(), version, headers))
}

/// A response head: status line and fields.
fn parse_response_head(raw: &[u8]) -> Result<(Version, u16, String, HeaderMap), ParseError> {
    let (start, headers) = parse_head(raw)?;
    let mut parts = start.splitn(3, ' ');
    let (v, code, reason) = (parts.next(), parts.next(), parts.next());
    let (Some(v), Some(code)) = (v, code) else {
        return err(format!("malformed status line: {start:?}"));
    };
    let version = Version::from_token(v).ok_or_else(|| ParseError(format!("bad version {v:?}")))?;
    let status: u16 = code
        .parse()
        .map_err(|_| ParseError(format!("bad status {code:?}")))?;
    Ok((version, status, reason.unwrap_or("").to_string(), headers))
}

/// Body-framing state shared by both parsers.
#[derive(Debug)]
enum BodyState {
    /// Exactly `remaining` bytes left.
    Sized { remaining: u64 },
    /// Chunked; sub-state machine below.
    Chunked(ChunkState),
    /// Read until the peer closes (HTTP/1.0 responses without length).
    UntilClose,
    /// No body at all.
    None,
}

#[derive(Debug)]
enum ChunkState {
    /// Awaiting a `SIZE\r\n` line.
    Size,
    /// `remaining` bytes of the current chunk, then CRLF.
    Data { remaining: u64 },
    /// Awaiting the CRLF after chunk data.
    DataCrlf,
    /// Awaiting trailers terminated by CRLF.
    Trailers,
}

/// How a response's body is framed, from its status, its head and the
/// request it answers.
fn response_framing(status: u16, headers: &HeaderMap, responding_to_head: bool) -> BodyState {
    if Response::bodyless_status(status) || responding_to_head {
        return BodyState::None;
    }
    if headers.is_chunked() {
        return BodyState::Chunked(ChunkState::Size);
    }
    match headers.content_length() {
        Some(0) => BodyState::None,
        Some(n) => BodyState::Sized { remaining: n },
        None => BodyState::UntilClose,
    }
}

/// How a request's body is framed: a request without a length has none.
fn request_framing(headers: &HeaderMap) -> BodyState {
    if headers.is_chunked() {
        return BodyState::Chunked(ChunkState::Size);
    }
    match headers.content_length() {
        Some(0) | None => BodyState::None,
        Some(n) => BodyState::Sized { remaining: n },
    }
}

/// Generic incremental machinery shared by request/response parsers.
struct Machine {
    buf: BytesMut,
    /// Parsed head awaiting its body.
    body: Option<BodyState>,
    body_acc: BytesMut,
    /// Bytes at the front of `buf` already searched for the end of the
    /// head or line being read, without finding it.
    scanned: usize,
}

impl Machine {
    fn new() -> Self {
        Machine {
            buf: BytesMut::new(),
            body: None,
            body_acc: BytesMut::new(),
            scanned: 0,
        }
    }

    /// The end of the head at the buffer's front (see [`line_end`]).
    fn head_end(&mut self) -> Result<Option<usize>, ParseError> {
        line_end(&mut self.buf, &mut self.scanned, b"\r\n\r\n")
    }

    /// Most body bytes reserved on the strength of a declared length
    /// alone; longer bodies grow as they arrive.
    const MAX_BODY_RESERVE: u64 = 1 << 24;

    /// A head has been parsed: expect its body next.
    fn begin_body(&mut self, body: BodyState) {
        if let BodyState::Sized { remaining } = body {
            self.body_acc
                .reserve(remaining.min(Self::MAX_BODY_RESERVE) as usize);
        }
        self.body = Some(body);
    }

    fn push(&mut self, mut data: &[u8]) {
        // In the middle of a sized body with nothing buffered, the bytes
        // belong to the body: skip the staging buffer.
        if self.buf.is_empty() {
            if let Some(BodyState::Sized { remaining }) = &mut self.body {
                let take = (*remaining).min(data.len() as u64) as usize;
                self.body_acc.extend_from_slice(&data[..take]);
                *remaining -= take as u64;
                data = &data[take..];
            }
        }
        self.buf.extend_from_slice(data);
    }

    /// Move the first `take` buffered bytes to the body.
    fn take_body(&mut self, take: usize) {
        self.body_acc.extend_from_slice(&self.buf[..take]);
        self.buf.advance(take);
    }

    /// Try to advance the body machine; returns Some(body) when complete.
    fn drive_body(&mut self) -> Result<Option<Bytes>, ParseError> {
        loop {
            let state = match self.body.as_mut() {
                None => return Ok(None),
                Some(s) => s,
            };
            match state {
                BodyState::None => {
                    self.body = None;
                    return Ok(Some(Bytes::new()));
                }
                BodyState::Sized { remaining } => {
                    let take = (*remaining).min(self.buf.len() as u64) as usize;
                    *remaining -= take as u64;
                    let done = *remaining == 0;
                    self.take_body(take);
                    if done {
                        self.body = None;
                        return Ok(Some(self.body_acc.split().freeze()));
                    }
                    return Ok(None); // need more bytes
                }
                BodyState::UntilClose => {
                    self.take_body(self.buf.len());
                    return Ok(None); // completes only on EOF
                }
                BodyState::Chunked(chunk) => match chunk {
                    ChunkState::Size => {
                        let Some(end) = line_end(&mut self.buf, &mut self.scanned, b"\r\n")? else {
                            return Ok(None);
                        };
                        let line = self.buf.split_to(end);
                        let size_text = std::str::from_utf8(&line[..end - 2])
                            .map_err(|_| ParseError("bad chunk size".into()))?;
                        // Chunk extensions after ';' are ignored per RFC.
                        let size_text = size_text.split(';').next().unwrap().trim();
                        let size = u64::from_str_radix(size_text, 16)
                            .map_err(|_| ParseError(format!("bad chunk size {size_text:?}")))?;
                        *chunk = if size == 0 {
                            ChunkState::Trailers
                        } else {
                            ChunkState::Data { remaining: size }
                        };
                    }
                    ChunkState::Data { remaining } => {
                        let take = (*remaining).min(self.buf.len() as u64) as usize;
                        *remaining -= take as u64;
                        let done = *remaining == 0;
                        if done {
                            *chunk = ChunkState::DataCrlf;
                        }
                        self.take_body(take);
                        if !done {
                            return Ok(None);
                        }
                    }
                    ChunkState::DataCrlf => {
                        if self.buf.len() < 2 {
                            return Ok(None);
                        }
                        if &self.buf[..2] != b"\r\n" {
                            return err("missing CRLF after chunk data");
                        }
                        *chunk = ChunkState::Size;
                        self.buf.advance(2);
                    }
                    ChunkState::Trailers => {
                        // Trailers end at an empty line. We discard them
                        // (the recorder stores the de-chunked body with a
                        // Content-Length).
                        let Some(end) = line_end(&mut self.buf, &mut self.scanned, b"\r\n")? else {
                            return Ok(None);
                        };
                        let line = self.buf.split_to(end);
                        if end == 2 {
                            // Empty line: done.
                            self.body = None;
                            return Ok(Some(self.body_acc.split().freeze()));
                        }
                        let _ = line; // discard trailer field
                    }
                },
            }
        }
    }
}

/// Incremental parser for a stream of HTTP requests (one connection).
pub struct RequestParser {
    machine: Machine,
    pending_head: Option<(Method, String, Version, HeaderMap)>,
    complete: Vec<Request>,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    /// Fresh parser.
    pub fn new() -> Self {
        RequestParser {
            machine: Machine::new(),
            pending_head: None,
            complete: Vec::new(),
        }
    }

    /// Feed bytes; returns any requests completed by this feed.
    pub fn feed(&mut self, data: &[u8]) -> Result<Vec<Request>, ParseError> {
        self.machine.push(data);
        loop {
            if self.pending_head.is_none() {
                let Some(end) = self.machine.head_end()? else {
                    break;
                };
                let parsed = parse_request_head(&self.machine.buf[..end - 4]);
                self.machine.buf.advance(end);
                let head = parsed?;
                self.machine.begin_body(request_framing(&head.3));
                self.pending_head = Some(head);
            }
            match self.machine.drive_body()? {
                Some(body) => {
                    let (method, target, version, headers) = self.pending_head.take().unwrap();
                    self.complete.push(Request {
                        method,
                        target,
                        version,
                        headers,
                        body,
                    });
                }
                None => break,
            }
        }
        Ok(std::mem::take(&mut self.complete))
    }

    /// Bytes buffered but not yet consumed by a complete message.
    pub fn buffered(&self) -> usize {
        self.machine.buf.len()
    }
}

/// Incremental parser for a stream of HTTP responses (one connection).
///
/// The caller must report whether each expected response answers a HEAD
/// request (HEAD responses carry headers describing a body that is not
/// sent) via [`ResponseParser::expect_head`].
pub struct ResponseParser {
    machine: Machine,
    pending_head: Option<(Version, u16, String, HeaderMap)>,
    /// FIFO of "is the next response to a HEAD request?" flags.
    head_queue: std::collections::VecDeque<bool>,
    complete: Vec<Response>,
}

impl Default for ResponseParser {
    fn default() -> Self {
        Self::new()
    }
}

impl ResponseParser {
    /// Fresh parser.
    pub fn new() -> Self {
        ResponseParser {
            machine: Machine::new(),
            pending_head: None,
            head_queue: std::collections::VecDeque::new(),
            complete: Vec::new(),
        }
    }

    /// Record that the next pipelined response answers a HEAD (`true`) or
    /// non-HEAD (`false`) request. Call once per request sent.
    pub fn expect_head(&mut self, is_head: bool) {
        self.head_queue.push_back(is_head);
    }

    /// Feed bytes; returns any responses completed by this feed.
    pub fn feed(&mut self, data: &[u8]) -> Result<Vec<Response>, ParseError> {
        self.machine.push(data);
        loop {
            if self.pending_head.is_none() {
                let Some(end) = self.machine.head_end()? else {
                    break;
                };
                let parsed = parse_response_head(&self.machine.buf[..end - 4]);
                self.machine.buf.advance(end);
                let head = parsed?;
                let to_head = self.head_queue.pop_front().unwrap_or(false);
                self.machine
                    .begin_body(response_framing(head.1, &head.3, to_head));
                self.pending_head = Some(head);
            }
            match self.machine.drive_body()? {
                Some(body) => {
                    let (version, status, reason, headers) = self.pending_head.take().unwrap();
                    self.complete.push(Response {
                        version,
                        status,
                        reason,
                        headers,
                        body,
                    });
                }
                None => break,
            }
        }
        Ok(std::mem::take(&mut self.complete))
    }

    /// The peer closed the connection: completes an `UntilClose` body.
    pub fn finish(&mut self) -> Result<Option<Response>, ParseError> {
        if let Some(BodyState::UntilClose) = self.machine.body {
            self.machine.body = None;
            let body = self.machine.body_acc.split().freeze();
            let (version, status, reason, headers) = self
                .pending_head
                .take()
                .expect("UntilClose implies a pending head");
            return Ok(Some(Response {
                version,
                status,
                reason,
                headers,
                body,
            }));
        }
        if self.pending_head.is_some() || !self.machine.buf.is_empty() {
            return err("connection closed mid-message");
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_get_parses() {
        let mut p = RequestParser::new();
        let reqs = p
            .feed(b"GET /index.html HTTP/1.1\r\nHost: example.com\r\nAccept: */*\r\n\r\n")
            .unwrap();
        assert_eq!(reqs.len(), 1);
        let r = &reqs[0];
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.target, "/index.html");
        assert_eq!(r.host(), Some("example.com"));
        assert!(r.body.is_empty());
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn request_split_across_feeds() {
        let mut p = RequestParser::new();
        let wire = b"POST /submit HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello";
        for chunk in wire.chunks(3) {
            let done = p.feed(chunk).unwrap();
            if !done.is_empty() {
                assert_eq!(done[0].body, Bytes::from_static(b"hello"));
                return;
            }
        }
        panic!("request never completed");
    }

    #[test]
    fn pipelined_requests() {
        let mut p = RequestParser::new();
        let wire = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n";
        let reqs = p.feed(wire).unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].target, "/a");
        assert_eq!(reqs[1].target, "/b");
    }

    #[test]
    fn sized_response_parses() {
        let mut p = ResponseParser::new();
        p.expect_head(false);
        let resps = p
            .feed(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Type: text/plain\r\n\r\nabc")
            .unwrap();
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].status, 200);
        assert_eq!(resps[0].reason, "OK");
        assert_eq!(&resps[0].body[..], b"abc");
    }

    #[test]
    fn chunked_response_parses() {
        let mut p = ResponseParser::new();
        p.expect_head(false);
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                     4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n";
        let resps = p.feed(wire).unwrap();
        assert_eq!(resps.len(), 1);
        assert_eq!(&resps[0].body[..], b"Wikipedia");
    }

    #[test]
    fn chunked_with_extensions_and_trailers() {
        let mut p = ResponseParser::new();
        p.expect_head(false);
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                     3;ext=1\r\nfoo\r\n0\r\nX-Trailer: v\r\n\r\n";
        let resps = p.feed(wire).unwrap();
        assert_eq!(&resps[0].body[..], b"foo");
    }

    #[test]
    fn chunked_split_byte_by_byte() {
        let mut p = ResponseParser::new();
        p.expect_head(false);
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                     a\r\n0123456789\r\n0\r\n\r\n";
        let mut got = Vec::new();
        for b in wire.iter() {
            got.extend(p.feed(&[*b]).unwrap());
        }
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].body[..], b"0123456789");
    }

    #[test]
    fn head_response_has_no_body() {
        let mut p = ResponseParser::new();
        p.expect_head(true);
        p.expect_head(false);
        // HEAD response advertises a length but sends no body; the next
        // response follows immediately.
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n\
                     HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        let resps = p.feed(wire).unwrap();
        assert_eq!(resps.len(), 2);
        assert!(resps[0].body.is_empty());
        assert_eq!(&resps[1].body[..], b"ok");
    }

    #[test]
    fn bodyless_304_parses() {
        let mut p = ResponseParser::new();
        p.expect_head(false);
        let resps = p
            .feed(b"HTTP/1.1 304 Not Modified\r\nETag: \"x\"\r\n\r\n")
            .unwrap();
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].status, 304);
    }

    #[test]
    fn until_close_body() {
        let mut p = ResponseParser::new();
        p.expect_head(false);
        let resps = p
            .feed(b"HTTP/1.0 200 OK\r\nContent-Type: text/html\r\n\r\npartial data")
            .unwrap();
        assert!(resps.is_empty(), "body not complete until close");
        let last = p.finish().unwrap().expect("response completed by EOF");
        assert_eq!(&last.body[..], b"partial data");
    }

    #[test]
    fn eof_mid_message_is_error() {
        let mut p = ResponseParser::new();
        p.expect_head(false);
        let _ = p
            .feed(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc")
            .unwrap();
        assert!(p.finish().is_err());
    }

    #[test]
    fn malformed_start_line_rejected() {
        let mut p = RequestParser::new();
        assert!(p.feed(b"NONSENSE\r\nHost: h\r\n\r\n").is_err());
    }

    #[test]
    fn malformed_header_rejected() {
        let mut p = RequestParser::new();
        assert!(p
            .feed(b"GET / HTTP/1.1\r\nBadHeaderNoColon\r\n\r\n")
            .is_err());
    }

    #[test]
    fn bad_version_rejected() {
        let mut p = RequestParser::new();
        assert!(p.feed(b"GET / HTTP/2.0\r\nHost: h\r\n\r\n").is_err());
    }

    #[test]
    fn bad_chunk_size_rejected() {
        let mut p = ResponseParser::new();
        p.expect_head(false);
        assert!(p
            .feed(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n")
            .is_err());
    }

    #[test]
    fn reason_phrase_with_spaces() {
        let mut p = ResponseParser::new();
        p.expect_head(false);
        let resps = p
            .feed(b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        assert_eq!(resps[0].reason, "Not Found");
    }

    #[test]
    fn zero_content_length_completes_immediately() {
        let mut p = ResponseParser::new();
        p.expect_head(false);
        let resps = p
            .feed(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        assert_eq!(resps.len(), 1);
        assert!(resps[0].body.is_empty());
    }

    /// Feed `head`, then filler in 1 460-byte segments until `feed` fails,
    /// checking the bytes buffered (what `feed` returns) stay within the
    /// cap. Twice the cap without a failure fails the test.
    fn feed_endless(mut feed: impl FnMut(&[u8]) -> Result<usize, ParseError>, head: &[u8]) {
        let mut buffered = feed(head).expect("the head so far is fine");
        let filler = [b'a'; 1460];
        for _ in 0..(2 * MAX_LINE / filler.len()) {
            assert!(buffered <= MAX_LINE, "{buffered} bytes buffered");
            match feed(&filler) {
                Ok(now) => buffered = now,
                Err(_) => return,
            }
        }
        panic!("twice the cap fed without an error");
    }

    #[test]
    fn an_endless_head_is_an_error_past_the_cap() {
        let mut p = RequestParser::new();
        feed_endless(
            |data| p.feed(data).map(|_| p.buffered()),
            b"GET / HTTP/1.1\r\nX-Long: ",
        );
        assert!(p.buffered() <= MAX_LINE);
        let mut p = ResponseParser::new();
        feed_endless(
            |data| p.feed(data).map(|_| p.machine.buf.len()),
            b"HTTP/1.1 200 OK\r\nX-Long: ",
        );
        assert!(p.machine.buf.len() <= MAX_LINE);
    }

    #[test]
    fn an_endless_chunk_size_line_is_an_error_past_the_cap() {
        let mut p = RequestParser::new();
        feed_endless(
            |data| p.feed(data).map(|_| p.buffered()),
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n1;",
        );
        assert!(p.buffered() <= MAX_LINE);
        let mut p = ResponseParser::new();
        feed_endless(
            |data| p.feed(data).map(|_| p.machine.buf.len()),
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1;",
        );
        assert!(p.machine.buf.len() <= MAX_LINE);
    }

    #[test]
    fn a_head_just_under_the_cap_parses() {
        let start = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Long: ";
        let pad = MAX_LINE - start.len() - b"\r\n\r\n".len();
        let mut wire = start.to_vec();
        wire.resize(start.len() + pad, b'a');
        wire.extend_from_slice(b"\r\n\r\nok");
        let mut p = ResponseParser::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(1460) {
            got.extend(p.feed(chunk).unwrap());
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].headers.get("x-long").map(str::len), Some(pad));
        assert_eq!(&got[0].body[..], b"ok");
        // One byte more does not.
        let mut wire = start.to_vec();
        wire.resize(start.len() + pad + 1, b'a');
        wire.extend_from_slice(b"\r\n\r\nok");
        let mut p = ResponseParser::new();
        assert!(wire.chunks(1460).any(|chunk| p.feed(chunk).is_err()));
    }
}
