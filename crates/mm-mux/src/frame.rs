//! The binary frame codec.
//!
//! Layout (big-endian, HTTP/2 §4.1 shape):
//!
//! ```text
//! +-----------------------------------------------+
//! | length (24)   : payload bytes                 |
//! +---------------+---------------+---------------+
//! | type (8)      | flags (8)     |               |
//! +---------------+---------------+---------------+
//! | stream identifier (32)                        |
//! +===============================================+
//! | frame payload (0...)                          |
//! +-----------------------------------------------+
//! ```
//!
//! HEADERS payloads begin with a one-byte priority, then a block of
//! length-prefixed `(name, value)` fields. Pseudo-fields (`:method`,
//! `:path`, `:authority` on requests; `:status`, `:reason` on responses)
//! come first, exactly like HTTP/2's pseudo-headers.
//!
//! A field's length prefix is a `u16`, or, for a field of 0xFFFF bytes
//! or more (a large `Set-Cookie`, say), the escape 0xFFFF then a `u32`:
//! `field = len(2) text | 0xFFFF len(4) text`.
//!
//! The decoder is incremental: bytes arrive in arbitrary TCP segment
//! boundaries and partial frames stay buffered until complete, which the
//! crate's property tests exercise by re-chunking encoded streams.

use bytes::{Buf, Bytes, BytesMut};
use mm_http::{Decimal, Header, HeaderMap, Method, Request, Response, Url, Version};

/// Frame type codes (the HTTP/2 values, for familiarity).
const TYPE_DATA: u8 = 0x0;
const TYPE_HEADERS: u8 = 0x1;
const TYPE_SETTINGS: u8 = 0x4;
const TYPE_WINDOW_UPDATE: u8 = 0x8;

/// END_STREAM flag bit.
const FLAG_END_STREAM: u8 = 0x1;

/// Bytes of a frame head.
const HEAD_LEN: usize = 9;

/// The field-length prefix that announces a `u32` length.
const FIELD_ESCAPE: u16 = 0xFFFF;

/// Upper bound on a frame payload the decoder will buffer. DATA payloads
/// are bounded by `MuxConfig::frame_max_data` at the sender; anything
/// beyond this is garbage on the wire.
pub(crate) const MAX_FRAME_PAYLOAD: usize = 1 << 20;

/// One protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Flow-controlled body bytes for a stream.
    Data {
        stream: u32,
        end_stream: bool,
        payload: Bytes,
    },
    /// A header block opening (request) or answering (response) a stream.
    Headers {
        stream: u32,
        end_stream: bool,
        /// Lower is more urgent; see [`crate::PRIORITY_ROOT`].
        priority: u8,
        fields: Vec<(String, String)>,
    },
    /// Connection preface: each side advertises its limits once. The
    /// receiver-side windows (`initial_window` per stream,
    /// `connection_window` for the whole connection) govern the DATA the
    /// *sender of this frame* is prepared to receive, so the peer adopts
    /// them for its send-side accounting.
    Settings {
        max_concurrent_streams: u32,
        initial_window: u32,
        connection_window: u32,
    },
    /// Window replenishment; `stream == 0` targets the connection window.
    WindowUpdate { stream: u32, increment: u32 },
}

/// Why a byte stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Unrecognised frame type code.
    UnknownType(u8),
    /// Structurally invalid payload for the declared type.
    Malformed(&'static str),
    /// Declared payload length exceeds `MAX_FRAME_PAYLOAD`.
    Oversized(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnknownType(t) => write!(f, "unknown frame type {t:#x}"),
            DecodeError::Malformed(what) => write!(f, "malformed frame: {what}"),
            DecodeError::Oversized(n) => write!(f, "frame payload of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for DecodeError {}

// --- writing ------------------------------------------------------------

fn flags(end_stream: bool) -> u8 {
    FLAG_END_STREAM * u8::from(end_stream)
}

/// The head of a frame of `len` payload bytes.
fn frame_head(len: usize, ty: u8, flags: u8, stream: u32) -> [u8; HEAD_LEN] {
    assert!(
        len <= MAX_FRAME_PAYLOAD,
        "frame payload {len} exceeds protocol limit"
    );
    let [_, l0, l1, l2] = (len as u32).to_be_bytes();
    let [s0, s1, s2, s3] = stream.to_be_bytes();
    [l0, l1, l2, ty, flags, s0, s1, s2, s3]
}

/// A frame of `len` payload bytes, which `fill` appends, in one buffer of
/// exactly its size.
fn write_frame(
    ty: u8,
    flags: u8,
    stream: u32,
    len: usize,
    fill: impl FnOnce(&mut Vec<u8>),
) -> Bytes {
    let mut out = Vec::with_capacity(HEAD_LEN + len);
    out.extend_from_slice(&frame_head(len, ty, flags, stream));
    fill(&mut out);
    debug_assert_eq!(out.len(), HEAD_LEN + len);
    Bytes::from(out)
}

/// The head of a DATA frame carrying `len` body bytes, which travel
/// after it as a view of the body they belong to.
pub(crate) fn data_head(stream: u32, end: bool, len: usize) -> Bytes {
    Bytes::copy_from_slice(&frame_head(len, TYPE_DATA, flags(end), stream))
}

/// Encoded size of one field.
fn field_len(text: &str) -> usize {
    if text.len() < FIELD_ESCAPE as usize {
        2 + text.len()
    } else {
        6 + text.len()
    }
}

fn put_field(out: &mut Vec<u8>, text: &str) {
    if text.len() < FIELD_ESCAPE as usize {
        out.extend_from_slice(&(text.len() as u16).to_be_bytes());
    } else {
        out.extend_from_slice(&FIELD_ESCAPE.to_be_bytes());
        // `frame_head` has bounded the payload, so the length fits.
        out.extend_from_slice(&(text.len() as u32).to_be_bytes());
    }
    out.extend_from_slice(text.as_bytes());
}

/// The one HEADERS writer: a frame over the borrowed `(name, value)`
/// pairs `fields` yields. `fields` is called twice, to size the frame
/// and then to fill it.
fn write_headers<'f, I>(stream: u32, end: bool, priority: u8, fields: impl Fn() -> I) -> Bytes
where
    I: Iterator<Item = (&'f str, &'f str)>,
{
    let len = 1 + fields()
        .map(|(name, value)| field_len(name) + field_len(value))
        .sum::<usize>();
    write_frame(TYPE_HEADERS, flags(end), stream, len, |out| {
        out.push(priority);
        for (name, value) in fields() {
            put_field(out, name);
            put_field(out, value);
        }
    })
}

/// The HEADERS frame opening `stream` with the GET for `url`, written
/// from the URL's own text: pseudo-fields first, then the GET's fields
/// ([`Url::get_fields`]) with `Host` elided in favour of `:authority`.
/// A GET has no body, so the frame ends the stream.
pub(crate) fn get_headers(stream: u32, priority: u8, url: &Url) -> Bytes {
    let [host, accept] = url.get_fields();
    write_headers(stream, true, priority, || {
        [
            (":method", Method::Get.as_str()),
            (":path", url.target()),
            (":authority", host.value),
            (accept.name, accept.value),
        ]
        .into_iter()
    })
}

/// The HEADERS frame opening `stream` with `req`: pseudo-fields first,
/// Host elided in favour of `:authority`. The oracle [`get_headers`] is
/// checked against.
#[cfg(test)]
fn request_headers(stream: u32, end: bool, priority: u8, req: &Request) -> Bytes {
    let authority = req.host().unwrap_or_default();
    write_headers(stream, end, priority, || {
        let pseudo = [
            (":method", req.method.as_str()),
            (":path", req.target.as_str()),
            (":authority", authority),
        ];
        let rest = req
            .headers
            .iter()
            .filter(|h| !h.name.eq_ignore_ascii_case("host"));
        pseudo.into_iter().chain(rest.map(|h| (h.name, h.value)))
    })
}

/// The HEADERS frame answering `stream` with `resp`'s status and
/// reason and `fields` as its header block (its body travels as DATA).
/// A server answers with `resp.headers.iter()`, or with a rewritten view
/// of them.
pub fn response_headers<'a>(
    stream: u32,
    end: bool,
    priority: u8,
    resp: &Response,
    fields: impl Iterator<Item = Header<'a>> + Clone,
) -> Bytes {
    let status = Decimal::new(u64::from(resp.status));
    write_headers(stream, end, priority, || {
        let pseudo = [
            (":status", status.as_str()),
            (":reason", resp.reason.as_str()),
        ];
        pseudo
            .into_iter()
            .chain(fields.clone().map(|h| (h.name, h.value)))
    })
}

impl Frame {
    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        match self {
            Frame::Data {
                stream,
                end_stream,
                payload,
            } => write_frame(
                TYPE_DATA,
                flags(*end_stream),
                *stream,
                payload.len(),
                |out| out.extend_from_slice(payload),
            ),
            Frame::Headers {
                stream,
                end_stream,
                priority,
                fields,
            } => write_headers(*stream, *end_stream, *priority, || {
                fields.iter().map(|(n, v)| (n.as_str(), v.as_str()))
            }),
            Frame::Settings {
                max_concurrent_streams,
                initial_window,
                connection_window,
            } => write_frame(TYPE_SETTINGS, 0, 0, 12, |out| {
                for word in [max_concurrent_streams, initial_window, connection_window] {
                    out.extend_from_slice(&word.to_be_bytes());
                }
            }),
            Frame::WindowUpdate { stream, increment } => {
                write_frame(TYPE_WINDOW_UPDATE, 0, *stream, 4, |out| {
                    out.extend_from_slice(&increment.to_be_bytes())
                })
            }
        }
    }
}

// --- reading ------------------------------------------------------------

/// One decoded frame, lent by [`FrameDecoder::feed_with`]: a view of the
/// decoder's buffer, valid for the duration of the call.
#[derive(Debug)]
pub(crate) enum FrameRef<'a> {
    Data {
        stream: u32,
        end_stream: bool,
        payload: &'a [u8],
    },
    Headers {
        stream: u32,
        end_stream: bool,
        priority: u8,
        fields: FieldBlock<'a>,
    },
    /// SETTINGS or WINDOW_UPDATE, which own nothing to lend.
    Control(Frame),
}

impl FrameRef<'_> {
    /// The owned frame this one views.
    fn into_frame(self) -> Frame {
        match self {
            FrameRef::Data {
                stream,
                end_stream,
                payload,
            } => Frame::Data {
                stream,
                end_stream,
                payload: Bytes::copy_from_slice(payload),
            },
            FrameRef::Headers {
                stream,
                end_stream,
                priority,
                fields,
            } => Frame::Headers {
                stream,
                end_stream,
                priority,
                fields: fields
                    .iter()
                    .map(|(name, value)| (name.to_string(), value.to_string()))
                    .collect(),
            },
            FrameRef::Control(frame) => frame,
        }
    }
}

/// A HEADERS frame's field block, already validated: every length in
/// bounds, every field UTF-8, names and values in pairs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FieldBlock<'a>(&'a [u8]);

impl<'a> FieldBlock<'a> {
    fn parse(bytes: &'a [u8]) -> Result<FieldBlock<'a>, DecodeError> {
        let mut rest = bytes;
        while !rest.is_empty() {
            let after_name = take_field(rest)?.1;
            rest = take_field(after_name)?.1;
        }
        Ok(FieldBlock(bytes))
    }

    /// The `(name, value)` pairs, in order.
    pub(crate) fn iter(self) -> impl Iterator<Item = (&'a str, &'a str)> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            let (name, r) = take_field(rest).ok()?;
            let (value, r) = take_field(r).ok()?;
            rest = r;
            Some((name, value))
        })
    }

    /// The first value of the field named exactly `name`.
    fn get(self, name: &str) -> Option<&'a str> {
        self.iter().find(|&(n, _)| n == name).map(|(_, v)| v)
    }

    /// A header map of `first` then every regular (non-pseudo) field,
    /// sized from the block in one go: as many fields as it will hold, so
    /// a head of up to four keeps its spans inside the map.
    fn header_map(self, first: Option<(&str, &str)>) -> HeaderMap {
        let regular = |(name, _): &(&str, &str)| !name.starts_with(':');
        let fields = usize::from(first.is_some()) + self.iter().filter(regular).count();
        let mut headers = HeaderMap::with_capacity(fields, self.0.len());
        for (name, value) in first.into_iter().chain(self.iter().filter(regular)) {
            headers.append(name, value);
        }
        headers
    }

    /// The request this block opens; its body arrives via DATA frames.
    pub(crate) fn to_request(self) -> Result<Request, DecodeError> {
        let method = self
            .get(":method")
            .ok_or(DecodeError::Malformed("missing :method"))?;
        let target = self
            .get(":path")
            .ok_or(DecodeError::Malformed("missing :path"))?;
        let authority = self
            .get(":authority")
            .ok_or(DecodeError::Malformed("missing :authority"))?;
        Ok(Request {
            method: Method::from_token(method),
            target: target.to_string(),
            version: Version::Http11,
            headers: self.header_map(Some(("Host", authority))),
            body: Bytes::new(),
        })
    }

    /// The response head this block answers with; its body is empty for
    /// DATA frames to fill.
    pub(crate) fn to_response(self) -> Result<Response, DecodeError> {
        let status = self
            .get(":status")
            .and_then(|v| v.parse::<u16>().ok())
            .ok_or(DecodeError::Malformed("missing or invalid :status"))?;
        Ok(Response {
            version: Version::Http11,
            status,
            reason: self.get(":reason").unwrap_or_default().to_string(),
            headers: self.header_map(None),
            body: Bytes::new(),
        })
    }
}

/// The length-prefixed text at the front of `bytes`, and what follows.
fn take_field(bytes: &[u8]) -> Result<(&str, &[u8]), DecodeError> {
    let truncated = DecodeError::Malformed("truncated field length");
    let (len, rest) = match bytes {
        [0xFF, 0xFF, a, b, c, d, rest @ ..] => {
            (u32::from_be_bytes([*a, *b, *c, *d]) as usize, rest)
        }
        [0xFF, 0xFF, ..] => return Err(truncated),
        [a, b, rest @ ..] => (u16::from_be_bytes([*a, *b]) as usize, rest),
        _ => return Err(truncated),
    };
    if rest.len() < len {
        return Err(DecodeError::Malformed("truncated field body"));
    }
    let (text, rest) = rest.split_at(len);
    let text =
        std::str::from_utf8(text).map_err(|_| DecodeError::Malformed("field is not UTF-8"))?;
    Ok((text, rest))
}

/// A big-endian word of up to four bytes.
fn be_u32(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0, |word, &b| (word << 8) | b as u32)
}

/// The frame at the front of `buf` and the bytes it spans, or `None`
/// until all of it has arrived.
fn next_frame(buf: &[u8]) -> Result<Option<(FrameRef<'_>, usize)>, DecodeError> {
    let Some(head) = buf.get(..HEAD_LEN) else {
        return Ok(None);
    };
    let len = be_u32(&head[..3]) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(DecodeError::Oversized(len));
    }
    let Some(payload) = buf.get(HEAD_LEN..HEAD_LEN + len) else {
        return Ok(None);
    };
    let frame = decode(head[3], head[4], be_u32(&head[5..]), payload)?;
    Ok(Some((frame, HEAD_LEN + len)))
}

/// The frame a head (`ty`, `flags`, `stream`) and its payload make.
fn decode(ty: u8, flags: u8, stream: u32, payload: &[u8]) -> Result<FrameRef<'_>, DecodeError> {
    let end_stream = flags & FLAG_END_STREAM != 0;
    match ty {
        TYPE_DATA => Ok(FrameRef::Data {
            stream,
            end_stream,
            payload,
        }),
        TYPE_HEADERS => {
            let (&priority, block) = payload
                .split_first()
                .ok_or(DecodeError::Malformed("HEADERS without priority octet"))?;
            Ok(FrameRef::Headers {
                stream,
                end_stream,
                priority,
                fields: FieldBlock::parse(block)?,
            })
        }
        TYPE_SETTINGS => {
            if payload.len() != 12 {
                return Err(DecodeError::Malformed("SETTINGS payload must be 12 bytes"));
            }
            Ok(FrameRef::Control(Frame::Settings {
                max_concurrent_streams: be_u32(&payload[..4]),
                initial_window: be_u32(&payload[4..8]),
                connection_window: be_u32(&payload[8..]),
            }))
        }
        TYPE_WINDOW_UPDATE => {
            if payload.len() != 4 {
                return Err(DecodeError::Malformed(
                    "WINDOW_UPDATE payload must be 4 bytes",
                ));
            }
            Ok(FrameRef::Control(Frame::WindowUpdate {
                stream,
                increment: be_u32(payload),
            }))
        }
        other => Err(DecodeError::UnknownType(other)),
    }
}

/// Incremental frame decoder: owns the reassembly buffer.
#[derive(Default)]
pub struct FrameDecoder {
    buf: BytesMut,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Bytes buffered awaiting a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Consume `bytes`, returning every frame completed by them. A
    /// decode error poisons the connection; callers must reset it.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Vec<Frame>, DecodeError> {
        let mut frames = Vec::new();
        self.feed_with(bytes, |frame| frames.push(frame.into_frame()))?;
        Ok(frames)
    }

    /// Consume `bytes` and lend `each` every frame they complete, in
    /// order, as a view of the buffer. All of those frames are decoded
    /// before the first is lent: if any fails, none is, and the error is
    /// returned (it poisons the connection, as for [`feed`](Self::feed)).
    pub(crate) fn feed_with(
        &mut self,
        bytes: &[u8],
        mut each: impl FnMut(FrameRef<'_>),
    ) -> Result<(), DecodeError> {
        self.buf.extend_from_slice(bytes);
        let mut end = 0;
        while let Some((_, n)) = next_frame(&self.buf[end..])? {
            end += n;
        }
        let mut at = 0;
        while let Ok(Some((frame, n))) = next_frame(&self.buf[at..end]) {
            each(frame);
            at += n;
        }
        self.buf.advance(end);
        // A frame's head is in: make room for the rest of it now, so its
        // bytes arrive without regrowing the buffer.
        if let Some(head) = self.buf.get(..HEAD_LEN) {
            let frame_len = HEAD_LEN + be_u32(&head[..3]) as usize;
            self.buf.reserve(frame_len - self.buf.len());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(frame: Frame) {
        let wire = frame.encode();
        let mut dec = FrameDecoder::new();
        let got = dec.feed(&wire).unwrap();
        assert_eq!(got, vec![frame]);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn data_round_trip() {
        round_trip(Frame::Data {
            stream: 7,
            end_stream: true,
            payload: Bytes::from_static(b"hello world"),
        });
    }

    #[test]
    fn headers_round_trip() {
        round_trip(Frame::Headers {
            stream: 3,
            end_stream: false,
            priority: 1,
            fields: vec![
                (":method".into(), "GET".into()),
                (":path".into(), "/a?b=c".into()),
                ("Accept".into(), "*/*".into()),
            ],
        });
    }

    /// A field too long for a `u16` prefix rides the escape form, and
    /// one byte shorter keeps the two-byte prefix.
    #[test]
    fn a_field_of_70_000_bytes_round_trips() {
        let fields = vec![
            (":status".to_string(), "200".to_string()),
            ("Set-Cookie".to_string(), "c".repeat(70_000)),
            ("X-Edge".to_string(), "e".repeat(0xFFFE)),
        ];
        let frame = Frame::Headers {
            stream: 5,
            end_stream: true,
            priority: 0,
            fields,
        };
        let wire = frame.encode();
        assert_eq!(
            wire.len(),
            9 + 1 + (2 + 7 + 2 + 3) + (2 + 10 + 6 + 70_000) + (2 + 6 + 2 + 0xFFFE)
        );
        round_trip(frame);
    }

    #[test]
    fn settings_and_window_update_round_trip() {
        round_trip(Frame::Settings {
            max_concurrent_streams: 32,
            initial_window: 1 << 18,
            connection_window: 1 << 21,
        });
        round_trip(Frame::WindowUpdate {
            stream: 0,
            increment: 65535,
        });
    }

    #[test]
    fn split_delivery_reassembles() {
        let frames = vec![
            Frame::Settings {
                max_concurrent_streams: 8,
                initial_window: 4096,
                connection_window: 65536,
            },
            Frame::Headers {
                stream: 1,
                end_stream: true,
                priority: 0,
                fields: vec![(":method".into(), "GET".into())],
            },
            Frame::Data {
                stream: 1,
                end_stream: true,
                payload: Bytes::from_static(b"abcdefgh"),
            },
        ];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        // One byte at a time: worst-case segmentation.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &wire {
            got.extend(dec.feed(std::slice::from_ref(b)).unwrap());
        }
        assert_eq!(got, frames);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn unknown_type_rejected() {
        let mut wire = Frame::WindowUpdate {
            stream: 1,
            increment: 1,
        }
        .encode()
        .to_vec();
        wire[3] = 0x7f;
        assert_eq!(
            FrameDecoder::new().feed(&wire),
            Err(DecodeError::UnknownType(0x7f))
        );
    }

    #[test]
    fn oversized_frame_rejected() {
        let wire = [0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 1];
        assert!(matches!(
            FrameDecoder::new().feed(&wire),
            Err(DecodeError::Oversized(_))
        ));
    }

    /// A valid frame followed, in the same bytes, by one that does not
    /// decode: the call fails and the valid frame is never lent.
    #[test]
    fn a_failing_frame_withholds_the_whole_batch() {
        let mut wire = Frame::Data {
            stream: 1,
            end_stream: false,
            payload: Bytes::from_static(b"fine"),
        }
        .encode()
        .to_vec();
        let mut bad = Frame::WindowUpdate {
            stream: 1,
            increment: 1,
        }
        .encode()
        .to_vec();
        bad[3] = 0x7f;
        wire.extend_from_slice(&bad);
        let mut lent = 0;
        let fed = FrameDecoder::new().feed_with(&wire, |_| lent += 1);
        assert_eq!(fed, Err(DecodeError::UnknownType(0x7f)));
        assert_eq!(lent, 0);
    }

    /// Decode one HEADERS frame's block and hand it to `f`.
    fn with_block<T>(wire: &[u8], f: impl FnOnce(FieldBlock<'_>) -> T) -> T {
        let mut f = Some(f);
        let mut out = None;
        FrameDecoder::new()
            .feed_with(wire, |frame| match frame {
                FrameRef::Headers { fields, .. } => out = f.take().map(|f| f(fields)),
                other => panic!("expected HEADERS, got {other:?}"),
            })
            .expect("own frame decodes");
        out.expect("one HEADERS frame")
    }

    #[test]
    fn request_maps_through_fields() {
        let mut req = Request::get("/x/y?q=1", "example.com");
        req.headers.append("Accept", "*/*");
        let back = with_block(&request_headers(1, true, 0, &req), |b| b.to_request()).unwrap();
        assert_eq!(back.method, req.method);
        assert_eq!(back.target, req.target);
        assert_eq!(back.host(), Some("example.com"));
        assert_eq!(back.headers.get("accept"), Some("*/*"));
        assert_eq!(back.headers.len(), 2);
    }

    #[test]
    fn response_maps_through_fields() {
        let resp = Response::ok(Bytes::from_static(b"body"), "text/html");
        let back = with_block(
            &response_headers(1, false, 0, &resp, resp.headers.iter()),
            |b| b.to_response(),
        )
        .unwrap();
        assert_eq!(back.status, 200);
        assert_eq!(back.reason, "OK");
        assert_eq!(back.headers.get("content-type"), Some("text/html"));
        assert_eq!(back.headers, resp.headers);
        assert!(back.body.is_empty(), "body travels as DATA");
    }

    #[test]
    fn missing_pseudo_fields_are_errors() {
        let wire = Frame::Headers {
            stream: 1,
            end_stream: true,
            priority: 0,
            fields: vec![(":method".into(), "GET".into())],
        }
        .encode();
        assert_eq!(
            with_block(&wire, |b| b.to_request()),
            Err(DecodeError::Malformed("missing :path"))
        );
        assert_eq!(
            with_block(&wire, |b| b.to_response()),
            Err(DecodeError::Malformed("missing or invalid :status"))
        );
    }

    /// The owned field list a request was once sent as: pseudo-fields
    /// first, every `Host` left out.
    fn owned_request_fields(req: &Request) -> Vec<(String, String)> {
        let mut fields = vec![
            (":method".to_string(), req.method.as_str().to_string()),
            (":path".to_string(), req.target.clone()),
            (
                ":authority".to_string(),
                req.host().unwrap_or_default().to_string(),
            ),
        ];
        for h in req.headers.iter() {
            if !h.name.eq_ignore_ascii_case("host") {
                fields.push((h.name.to_string(), h.value.to_string()));
            }
        }
        fields
    }

    /// The owned field list a response head was once sent as.
    fn owned_response_fields(resp: &Response) -> Vec<(String, String)> {
        let mut fields = vec![
            (":status".to_string(), resp.status.to_string()),
            (":reason".to_string(), resp.reason.clone()),
        ];
        for h in resp.headers.iter() {
            fields.push((h.name.to_string(), h.value.to_string()));
        }
        fields
    }

    /// Header names, `Host` among them in some letter case.
    fn arb_name() -> impl Strategy<Value = String> {
        prop_oneof!["[hH][oO][sS][tT]", "[a-zA-Z][a-zA-Z0-9-]{0,15}"]
    }

    fn arb_headers() -> impl Strategy<Value = HeaderMap> {
        prop::collection::vec((arb_name(), "[a-zA-Z0-9 ;=/.,_-]{0,40}"), 0..8).prop_map(|fields| {
            let mut headers = HeaderMap::new();
            for (name, value) in &fields {
                headers.append(name, value);
            }
            headers
        })
    }

    /// Fields of any name and value, pseudo-fields among them.
    fn arb_field() -> impl Strategy<Value = (String, String)> {
        let pseudo = |name: &str| Just(name.to_string());
        let name = prop_oneof![
            pseudo(":method"),
            pseudo(":path"),
            pseudo(":authority"),
            pseudo(":status"),
            pseudo(":reason"),
            "[:]?[a-zA-Z][a-zA-Z0-9-]{0,12}",
        ];
        let value = prop_oneof!["[0-9]{0,6}", "[A-Z]{0,5}", ".{0,20}"];
        (name, value)
    }

    /// The request a mux client once took for `url`, built from copies of
    /// the URL's parts: `Host` without the scheme's default port, and
    /// `Accept`.
    fn request_for(url: &Url) -> Request {
        let (scheme, host, port) = (url.scheme(), url.host(), url.port());
        let default = (scheme == "http" && port == 80) || (scheme == "https" && port == 443);
        let host = if default {
            host.to_string()
        } else {
            format!("{host}:{port}")
        };
        let mut req = Request::get(url.target().to_string(), host);
        req.headers.append("Accept", "*/*");
        req
    }

    proptest! {
        /// A GET's HEADERS written from the URL's own text are the bytes
        /// of the request they replace.
        #[test]
        fn get_headers_written_from_a_url_are_the_request_they_replace(
            https in any::<bool>(),
            port in prop_oneof![
                Just(None),
                Just(Some(80u16)),
                Just(Some(443u16)),
                (1u16..=u16::MAX).prop_map(Some),
            ],
            host in "[a-z0-9]{1,8}(\\.[a-z0-9]{1,8}){0,3}",
            path in "(/[a-zA-Z0-9._]{0,8}){0,4}",
            query in (any::<bool>(), "[a-z0-9=&%._]{0,16}"),
            (stream, priority) in (1u32..1000, 0u8..3),
        ) {
            let scheme = if https { "https" } else { "http" };
            let port = port.map(|p| format!(":{p}")).unwrap_or_default();
            let query = if query.0 { format!("?{}", query.1) } else { String::new() };
            let url = Url::parse(&format!("{scheme}://{host}{port}{path}{query}")).unwrap();
            let oracle = request_headers(stream, true, priority, &request_for(&url));
            prop_assert_eq!(get_headers(stream, priority, &url), oracle);
        }

        /// The borrowed writers put on the wire exactly the bytes the
        /// owned `Frame::Headers` encodes, so a frame built from a field
        /// list measures what the simulator sends.
        #[test]
        fn borrowed_headers_match_the_owned_frame(
            headers in arb_headers(),
            target in "/[a-z0-9/_.-]{0,30}(\\?[a-z0-9=&-]{0,20})?",
            status in any::<u16>(),
            (stream, end_stream, priority) in (1u32..1000, any::<bool>(), 0u8..3),
        ) {
            let mut req = Request::get(target, "example.com");
            req.headers = headers.clone();
            let owned = Frame::Headers {
                stream,
                end_stream,
                priority,
                fields: owned_request_fields(&req),
            };
            prop_assert_eq!(request_headers(stream, end_stream, priority, &req), owned.encode());

            let mut resp = Response::status_only(status, "Some Reason");
            resp.headers = headers;
            let owned = Frame::Headers {
                stream,
                end_stream,
                priority,
                fields: owned_response_fields(&resp),
            };
            prop_assert_eq!(response_headers(stream, end_stream, priority, &resp, resp.headers.iter()), owned.encode());
        }

        /// Any field block maps to a request or a response, or to an
        /// error: never a panic.
        #[test]
        fn any_field_block_maps_without_panicking(
            fields in prop::collection::vec(arb_field(), 0..8),
        ) {
            let wire = Frame::Headers {
                stream: 1,
                end_stream: true,
                priority: 0,
                fields,
            }
            .encode();
            let (req, resp) = with_block(&wire, |b| (b.to_request(), b.to_response()));
            if let Ok(req) = req {
                prop_assert!(req.host().is_some());
            }
            if let Ok(resp) = resp {
                prop_assert!(resp.body.is_empty());
            }
        }
    }
}
