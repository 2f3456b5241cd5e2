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
//! [`ResponseParser::feed_bytes`] reads a stream delivered as shared
//! buffers, as TCP delivers it: a body whose pieces continue one buffer
//! is a view of it, not a copy.
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

/// The offset in `input` just past the first `end` after `at`, which
/// terminates the head or line starting there. The search starts past the
/// `scanned` bytes the previous one covered, and records how far this one
/// got. A line that has passed [`MAX_LINE`] without its end is an error,
/// and `at` moves past every byte of `input`: they are dropped.
fn line_end<const L: usize>(
    input: &[u8],
    at: &mut usize,
    scanned: &mut usize,
    end: &[u8; L],
) -> Result<Option<usize>, ParseError> {
    let line = &input[*at..];
    let from = scanned.saturating_sub(L - 1);
    let window = &line[from..line.len().min(MAX_LINE)];
    if let Some(i) = window.windows(L).position(|w| w == end) {
        *scanned = 0;
        return Ok(Some(*at + from + i + L));
    }
    *scanned = 0;
    if line.len() >= MAX_LINE {
        *at = input.len();
        return err(format!("no line end in the first {MAX_LINE} bytes"));
    }
    *scanned = line.len();
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
type RequestHead = (Method, String, Version, HeaderMap);

/// A response head: status line and fields.
type ResponseHead = (Version, u16, String, HeaderMap);

fn parse_request_head(raw: &[u8]) -> Result<RequestHead, ParseError> {
    let (start, headers) = parse_head(raw)?;
    let mut parts = start.split(' ');
    let (m, t, v) = (parts.next(), parts.next(), parts.next());
    let (Some(m), Some(t), Some(v)) = (m, t, v) else {
        return err(format!("malformed request line: {start:?}"));
    };
    let version = Version::from_token(v).ok_or_else(|| ParseError(format!("bad version {v:?}")))?;
    Ok((Method::from_token(m), t.to_string(), version, headers))
}

fn parse_response_head(raw: &[u8]) -> Result<ResponseHead, ParseError> {
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

/// The length the `Content-Length` fields declare, `None` without one.
/// A value must be `1*DIGIT`, and a repeated field must repeat it
/// exactly: anything else cannot frame a message (RFC 9112 §6.3), and
/// reading it as "absent" would let the two ends of a connection
/// disagree on where the message ends.
fn declared_length(headers: &HeaderMap) -> Result<Option<u64>, ParseError> {
    let mut declared: Option<&str> = None;
    for h in headers.iter() {
        if !h.name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        if h.value.is_empty() || !h.value.bytes().all(|b| b.is_ascii_digit()) {
            return err(format!("invalid Content-Length {:?}", h.value));
        }
        if declared.is_some_and(|d| d != h.value) {
            return err("conflicting Content-Length fields");
        }
        declared = Some(h.value);
    }
    declared
        .map(|d| {
            d.parse()
                .map_err(|_| ParseError(format!("Content-Length {d:?} out of range")))
        })
        .transpose()
}

/// How a response's body is framed, from its status, its head and the
/// request it answers.
fn response_framing(
    status: u16,
    headers: &HeaderMap,
    responding_to_head: bool,
) -> Result<BodyState, ParseError> {
    if Response::bodyless_status(status) || responding_to_head {
        return Ok(BodyState::None);
    }
    if headers.is_chunked() {
        return Ok(BodyState::Chunked(ChunkState::Size));
    }
    Ok(match declared_length(headers)? {
        Some(0) => BodyState::None,
        Some(n) => BodyState::Sized { remaining: n },
        None => BodyState::UntilClose,
    })
}

/// How a request's body is framed: a request without a length has none.
fn request_framing(headers: &HeaderMap) -> Result<BodyState, ParseError> {
    if headers.is_chunked() {
        return Ok(BodyState::Chunked(ChunkState::Size));
    }
    Ok(match declared_length(headers)? {
        Some(0) | None => BodyState::None,
        Some(n) => BodyState::Sized { remaining: n },
    })
}

/// The messages one `feed` completed, in order. A feed completes none or
/// one almost always, and those are held inline: only a second message
/// in the same feed (pipelining) puts the rest in a `Vec`.
#[derive(Debug)]
pub struct Completed<T> {
    first: Option<T>,
    rest: Vec<T>,
}

impl<T> Completed<T> {
    fn new() -> Self {
        Completed {
            first: None,
            rest: Vec::new(),
        }
    }

    fn push(&mut self, message: T) {
        match self.first {
            None => self.first = Some(message),
            Some(_) => self.rest.push(message),
        }
    }

    /// How many messages completed.
    pub fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }

    /// True if none did.
    pub fn is_empty(&self) -> bool {
        self.first.is_none()
    }
}

impl<T> IntoIterator for Completed<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<std::option::IntoIter<T>, std::vec::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.rest)
    }
}

impl<T> std::ops::Index<usize> for Completed<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        match i.checked_sub(1) {
            None => self.first.as_ref().expect("message 0 of none"),
            Some(i) => &self.rest[i],
        }
    }
}

/// Where a feed's bytes are shared: `Some((bytes, from))` when
/// `input[from..]` is `bytes`, so a body read from there may be a view of
/// it. Bytes before `from` were staged from earlier feeds.
type Shared<'a> = Option<(&'a Bytes, usize)>;

/// Generic incremental machinery shared by request/response parsers: the
/// head of type `H` awaiting its body, and the body being read.
struct Machine<H> {
    /// What arrived before the head or line it starts could be read
    /// whole: a head split across feeds. Empty otherwise: a head that
    /// arrives whole is parsed from the feed's own bytes, and body bytes
    /// go straight to the body.
    buf: BytesMut,
    /// Parsed head awaiting its body.
    pending: Option<H>,
    /// How the pending head's body is framed.
    body: Option<BodyState>,
    /// The body so far while every piece of it has continued the last:
    /// a view of the buffers the feeds shared, never a copy.
    body_view: Bytes,
    /// Whether `body_view` has joined its second piece, after which its
    /// buffer's bytes are compared no more (see [`Machine::take_body`]).
    view_joined: bool,
    /// The body so far once a piece did not continue the view. Empty
    /// while `body_view` holds it.
    body_acc: BytesMut,
    /// Bytes at the front of `buf` already searched for the end of the
    /// head or line being read, without finding it.
    scanned: usize,
}

impl<H> Machine<H> {
    fn new() -> Self {
        Machine {
            buf: BytesMut::new(),
            pending: None,
            body: None,
            body_view: Bytes::new(),
            view_joined: false,
            body_acc: BytesMut::new(),
            scanned: 0,
        }
    }

    /// Most body bytes reserved on the strength of a declared length
    /// alone; longer bodies grow as they arrive.
    const MAX_BODY_RESERVE: u64 = 1 << 24;

    /// Take in `data`: `parse` reads each complete head and says how its
    /// body is framed, and `done` takes each head with its whole body.
    /// What the bytes left over start is staged for the next feed. A head
    /// or chunk line that fails is dropped, and reading goes on after it.
    /// `shared`, when given, holds `data`'s bytes, and the body may be a
    /// view of it; otherwise body bytes are copied.
    fn feed(
        &mut self,
        data: &[u8],
        shared: Option<&Bytes>,
        mut parse: impl FnMut(&[u8]) -> Result<(H, BodyState), ParseError>,
        mut done: impl FnMut(H, Bytes),
    ) -> Result<(), ParseError> {
        let mut used = 0;
        if self.buf.is_empty() {
            let shared = shared.map(|bytes| (bytes, 0));
            let read = self.run(data, shared, &mut used, &mut parse, &mut done);
            self.buf.extend_from_slice(&data[used..]);
            read
        } else {
            let mut buf = std::mem::take(&mut self.buf);
            let shared = shared.map(|bytes| (bytes, buf.len()));
            buf.extend_from_slice(data);
            let read = self.run(&buf, shared, &mut used, &mut parse, &mut done);
            buf.advance(used);
            self.buf = buf;
            read
        }
    }

    /// Read heads and bodies from `input`, moving `at` past what was
    /// used. The rest start a head or line not yet whole.
    fn run(
        &mut self,
        input: &[u8],
        shared: Shared,
        at: &mut usize,
        parse: &mut impl FnMut(&[u8]) -> Result<(H, BodyState), ParseError>,
        done: &mut impl FnMut(H, Bytes),
    ) -> Result<(), ParseError> {
        loop {
            if self.pending.is_none() {
                let Some(end) = line_end(input, at, &mut self.scanned, b"\r\n\r\n")? else {
                    return Ok(());
                };
                let raw = &input[*at..end - 4];
                *at = end;
                let (head, body) = parse(raw)?;
                self.pending = Some(head);
                self.body = Some(body);
            }
            match self.drive_body(input, shared, at)? {
                Some(body) => done(self.pending.take().expect("a parsed head"), body),
                None => return Ok(()),
            }
        }
    }

    /// Move `take` bytes of `input` from `at` to the body, `more` bytes
    /// of which are still declared to follow.
    ///
    /// The body stays a view while each piece continues it
    /// ([`Bytes::continued_by`]). Bytes are compared at most once per
    /// body, when the second piece joins the first: that is how a segment
    /// that carried the head and the body's first bytes joins the body's
    /// own buffer. After that, a piece that does not continue the view is
    /// copied, as is one staged from an earlier feed, so comparing costs
    /// at most the first piece's length, never more. The copy reserves
    /// for the declared rest of the body.
    fn take_body(&mut self, input: &[u8], shared: Shared, at: &mut usize, take: usize, more: u64) {
        let range = *at..*at + take;
        *at += take;
        if take == 0 {
            return;
        }
        if self.body_acc.is_empty() {
            let first_only = !self.view_joined && !self.body_view.is_empty();
            let view = shared
                .filter(|&(_, from)| range.start >= from)
                .and_then(|(bytes, from)| {
                    let piece = bytes.slice(range.start - from..range.end - from);
                    self.body_view.continued_by(&piece, first_only)
                });
            if let Some(view) = view {
                self.view_joined |= !self.body_view.is_empty();
                self.body_view = view;
                return;
            }
            let declared = (self.body_view.len() + take) as u64 + more;
            self.body_acc
                .reserve(declared.min(Self::MAX_BODY_RESERVE) as usize);
            self.body_acc.extend_from_slice(&self.body_view);
            self.body_view = Bytes::new();
        }
        self.body_acc.extend_from_slice(&input[range]);
    }

    /// The body read so far, leaving none.
    fn take_whole_body(&mut self) -> Bytes {
        self.view_joined = false;
        if self.body_acc.is_empty() {
            std::mem::take(&mut self.body_view)
        } else {
            self.body_acc.split().freeze()
        }
    }

    /// Advance the body machine over `input` from `at`; returns the body
    /// once complete.
    fn drive_body(
        &mut self,
        input: &[u8],
        shared: Shared,
        at: &mut usize,
    ) -> Result<Option<Bytes>, ParseError> {
        loop {
            let avail = input.len() - *at;
            let Some(state) = self.body.as_mut() else {
                return Ok(None);
            };
            match state {
                BodyState::None => {
                    self.body = None;
                    return Ok(Some(Bytes::new()));
                }
                BodyState::Sized { remaining } => {
                    let take = (*remaining).min(avail as u64) as usize;
                    *remaining -= take as u64;
                    let more = *remaining;
                    self.take_body(input, shared, at, take, more);
                    if more == 0 {
                        self.body = None;
                        return Ok(Some(self.take_whole_body()));
                    }
                    return Ok(None); // need more bytes
                }
                BodyState::UntilClose => {
                    self.take_body(input, shared, at, avail, 0);
                    return Ok(None); // completes only on EOF
                }
                BodyState::Chunked(chunk) => match chunk {
                    ChunkState::Size => {
                        let Some(end) = line_end(input, at, &mut self.scanned, b"\r\n")? else {
                            return Ok(None);
                        };
                        let line = &input[*at..end - 2];
                        *at = end;
                        let size_text = std::str::from_utf8(line)
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
                        let take = (*remaining).min(avail as u64) as usize;
                        *remaining -= take as u64;
                        let done = *remaining == 0;
                        if done {
                            *chunk = ChunkState::DataCrlf;
                        }
                        self.take_body(input, shared, at, take, 0);
                        if !done {
                            return Ok(None);
                        }
                    }
                    ChunkState::DataCrlf => {
                        if avail < 2 {
                            return Ok(None);
                        }
                        if &input[*at..*at + 2] != b"\r\n" {
                            return err("missing CRLF after chunk data");
                        }
                        *chunk = ChunkState::Size;
                        *at += 2;
                    }
                    ChunkState::Trailers => {
                        // Trailers end at an empty line. We discard them
                        // (the recorder stores the de-chunked body with a
                        // Content-Length).
                        let Some(end) = line_end(input, at, &mut self.scanned, b"\r\n")? else {
                            return Ok(None);
                        };
                        let empty = end - *at == 2;
                        *at = end;
                        if empty {
                            // Empty line: done.
                            self.body = None;
                            return Ok(Some(self.take_whole_body()));
                        }
                    }
                },
            }
        }
    }
}

/// Incremental parser for a stream of HTTP requests (one connection).
pub struct RequestParser {
    machine: Machine<RequestHead>,
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
        }
    }

    /// Feed bytes; returns any requests completed by this feed.
    pub fn feed(&mut self, data: &[u8]) -> Result<Completed<Request>, ParseError> {
        let mut complete = Completed::new();
        let parse = |raw: &[u8]| {
            let head = parse_request_head(raw)?;
            let body = request_framing(&head.3)?;
            Ok((head, body))
        };
        self.machine.feed(data, None, parse, |head, body| {
            let (method, target, version, headers) = head;
            complete.push(Request {
                method,
                target,
                version,
                headers,
                body,
            });
        })?;
        Ok(complete)
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
    machine: Machine<ResponseHead>,
    /// FIFO of "is the next response to a HEAD request?" flags.
    head_queue: std::collections::VecDeque<bool>,
}

impl Default for ResponseParser {
    fn default() -> Self {
        Self::new()
    }
}

fn response((version, status, reason, headers): ResponseHead, body: Bytes) -> Response {
    Response {
        version,
        status,
        reason,
        headers,
        body,
    }
}

impl ResponseParser {
    /// Fresh parser.
    pub fn new() -> Self {
        ResponseParser {
            machine: Machine::new(),
            head_queue: std::collections::VecDeque::new(),
        }
    }

    /// Record that the next pipelined response answers a HEAD (`true`) or
    /// non-HEAD (`false`) request. Call once per request sent.
    pub fn expect_head(&mut self, is_head: bool) {
        self.head_queue.push_back(is_head);
    }

    /// Feed bytes; returns any responses completed by this feed. Bodies
    /// are copies: use [`ResponseParser::feed_bytes`] where the bytes
    /// arrive as a [`Bytes`].
    pub fn feed(&mut self, data: &[u8]) -> Result<Completed<Response>, ParseError> {
        self.feed_from(data, None)
    }

    /// Feed bytes delivered as a shared buffer; returns any responses
    /// completed by this feed, as [`ResponseParser::feed`] does. A body
    /// whose pieces continue each other in one buffer is a view of it,
    /// not a copy (see `Machine::take_body` for the rule).
    pub fn feed_bytes(&mut self, data: &Bytes) -> Result<Completed<Response>, ParseError> {
        self.feed_from(data, Some(data))
    }

    fn feed_from(
        &mut self,
        data: &[u8],
        shared: Option<&Bytes>,
    ) -> Result<Completed<Response>, ParseError> {
        let mut complete = Completed::new();
        let head_queue = &mut self.head_queue;
        let parse = |raw: &[u8]| {
            let head = parse_response_head(raw)?;
            let to_head = head_queue.pop_front().unwrap_or(false);
            let body = response_framing(head.1, &head.3, to_head)?;
            Ok((head, body))
        };
        self.machine.feed(data, shared, parse, |head, body| {
            complete.push(response(head, body))
        })?;
        Ok(complete)
    }

    /// The peer closed the connection: completes an `UntilClose` body.
    pub fn finish(&mut self) -> Result<Option<Response>, ParseError> {
        let machine = &mut self.machine;
        if let Some(BodyState::UntilClose) = machine.body {
            machine.body = None;
            let body = machine.take_whole_body();
            let head = machine
                .pending
                .take()
                .expect("UntilClose implies a pending head");
            return Ok(Some(response(head, body)));
        }
        if machine.pending.is_some() || !machine.buf.is_empty() {
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

    #[test]
    fn a_signed_content_length_is_an_error() {
        let mut p = RequestParser::new();
        assert!(p
            .feed(b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello")
            .is_err());
        let mut p = ResponseParser::new();
        assert!(p
            .feed(b"HTTP/1.1 200 OK\r\nContent-Length: +5\r\n\r\nhello")
            .is_err());
    }

    #[test]
    fn conflicting_content_lengths_are_an_error() {
        let mut p = RequestParser::new();
        assert!(p
            .feed(b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 7\r\n\r\nhello")
            .is_err());
        let mut p = ResponseParser::new();
        assert!(p
            .feed(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\ncontent-length: 7\r\n\r\nhello")
            .is_err());
        // The same value twice frames the message once.
        let mut p = ResponseParser::new();
        let resps = p
            .feed(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap();
        assert_eq!(&resps[0].body[..], b"hello");
    }

    #[test]
    fn an_unparseable_content_length_is_an_error_not_an_absence() {
        for value in ["abc", "", "5 5", "0x5", "-1", "99999999999999999999999"] {
            let request = format!("POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\n");
            assert!(
                RequestParser::new().feed(request.as_bytes()).is_err(),
                "{value:?}"
            );
            let response = format!("HTTP/1.1 200 OK\r\nContent-Length: {value}\r\n\r\nbody");
            let mut p = ResponseParser::new();
            assert!(p.feed(response.as_bytes()).is_err(), "{value:?}");
        }
    }

    #[test]
    fn a_head_that_fails_is_dropped_and_reading_goes_on_after_it() {
        let mut p = RequestParser::new();
        assert!(p
            .feed(b"NONSENSE\r\n\r\nGET /a HTTP/1.1\r\nHost: h\r\n\r\n")
            .is_err());
        let reqs = p.feed(b"GET /b HTTP/1.1\r\nHost: h\r\n\r\n").unwrap();
        let targets: Vec<String> = reqs.into_iter().map(|r| r.target).collect();
        assert_eq!(targets, ["/a", "/b"]);
    }

    #[test]
    fn a_head_split_anywhere_parses_as_it_does_whole() {
        let wire =
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloHTTP/1.1 204 No Content\r\n\r\n\
                     HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n";
        let whole: Vec<Response> = ResponseParser::new()
            .feed(wire)
            .unwrap()
            .into_iter()
            .collect();
        assert_eq!(whole.len(), 3);
        for cut in 0..wire.len() {
            let mut p = ResponseParser::new();
            let mut got: Vec<Response> = p.feed(&wire[..cut]).unwrap().into_iter().collect();
            got.extend(p.feed(&wire[cut..]).unwrap());
            assert_eq!(got, whole, "cut at {cut}");
            assert_eq!(p.machine.buf.len(), 0);
        }
    }

    /// Whether `body` lies inside `source`'s bytes.
    fn within(body: &Bytes, source: &Bytes) -> bool {
        let range = source.as_ptr_range();
        range.start <= body.as_ptr() && body.as_ptr_range().end <= range.end
    }

    #[test]
    fn a_body_of_consecutive_slices_is_a_view_of_their_buffer() {
        let wire = Bytes::from(
            b"HTTP/1.1 200 OK\r\nContent-Length: 26\r\n\r\nabcdefghijklmnopqrstuvwxyz".to_vec(),
        );
        for size in [1, 7, 40, wire.len()] {
            let mut p = ResponseParser::new();
            let mut got = Vec::new();
            for at in (0..wire.len()).step_by(size) {
                got.extend(
                    p.feed_bytes(&wire.slice(at..wire.len().min(at + size)))
                        .unwrap(),
                );
            }
            assert_eq!(got.len(), 1, "slices of {size}");
            assert_eq!(&got[0].body[..], b"abcdefghijklmnopqrstuvwxyz");
            assert!(within(&got[0].body, &wire), "slices of {size}: a copy");
        }
    }

    /// The pieces a sender's segments make of `parts` sent back to back,
    /// `mss` bytes each: a slice of a part, or a fresh buffer joining the
    /// end of one part to the start of the next.
    fn segments(parts: &[Bytes], mss: usize) -> Vec<Bytes> {
        let stream: Vec<(usize, usize)> = parts
            .iter()
            .enumerate()
            .flat_map(|(i, part)| (0..part.len()).map(move |at| (i, at)))
            .collect();
        stream
            .chunks(mss)
            .map(|seg| {
                let (first, last) = (seg[0], seg[seg.len() - 1]);
                if first.0 == last.0 {
                    parts[first.0].slice(first.1..=last.1)
                } else {
                    seg.iter().map(|&(i, at)| parts[i][at]).collect()
                }
            })
            .collect()
    }

    #[test]
    fn a_body_joined_to_its_head_in_one_segment_is_a_view_of_the_stored_body() {
        let stored = Bytes::from((0..5000u32).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
        let resp = Response::ok(stored.clone(), "image/png");
        let mut p = ResponseParser::new();
        let mut got = Vec::new();
        for segment in segments(&crate::write_response_parts(&resp), 1460) {
            got.extend(p.feed_bytes(&segment).unwrap());
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].body, stored);
        assert!(within(&got[0].body, &stored), "a copy of the stored body");
        assert_eq!(got[0].body.as_ptr(), stored.as_ptr());
    }

    #[test]
    fn only_the_second_piece_is_compared_and_other_pieces_are_copied() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n\r\n";
        let stored = Bytes::from(b"0123456789ab".to_vec());
        let fed = |pieces: &[Bytes]| {
            let mut p = ResponseParser::new();
            p.feed(head).unwrap();
            let mut got: Vec<Response> = Vec::new();
            for piece in pieces {
                got.extend(p.feed_bytes(piece).unwrap());
            }
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].body, stored);
            got.pop().unwrap().body
        };
        // A fresh first piece joins a slice of the stored body.
        let first = Bytes::from(b"0123".to_vec());
        let body = fed(&[first.clone(), stored.slice(4..8), stored.slice(8..)]);
        assert!(within(&body, &stored));
        // A third piece from another buffer is not compared: copied,
        // though the bytes before it equal the view.
        let other = Bytes::from(b"0123456789ab".to_vec());
        let body = fed(&[first.clone(), stored.slice(4..8), other.slice(8..)]);
        assert!(!within(&body, &stored) && !within(&body, &other));
        // A second piece whose bytes before differ is copied too.
        let differs = Bytes::from(b"xxxx456789ab".to_vec());
        let body = fed(&[first, differs.slice(4..8), stored.slice(8..)]);
        assert!(!within(&body, &stored) && !within(&body, &differs));
    }

    #[test]
    fn a_chunked_body_is_copied_and_an_until_close_body_is_a_view() {
        let wire = Bytes::from_static(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n",
        );
        let mut p = ResponseParser::new();
        let got = p.feed_bytes(&wire).unwrap();
        assert_eq!(&got[0].body[..], b"abcde");
        assert!(!within(&got[0].body, &wire));
        let wire = Bytes::from_static(b"HTTP/1.0 200 OK\r\n\r\npartial data");
        let mut p = ResponseParser::new();
        assert!(p.feed_bytes(&wire.slice(..25)).unwrap().is_empty());
        assert!(p.feed_bytes(&wire.slice(25..)).unwrap().is_empty());
        let last = p.finish().unwrap().expect("completed by EOF");
        assert_eq!(&last.body[..], b"partial data");
        assert!(within(&last.body, &wire));
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
