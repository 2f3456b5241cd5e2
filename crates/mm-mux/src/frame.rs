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
//! The decoder is incremental: bytes arrive in arbitrary TCP segment
//! boundaries and partial frames stay buffered until complete, which the
//! crate's property tests exercise by re-chunking encoded streams.

use bytes::{Bytes, BytesMut};
use mm_http::{HeaderMap, Method, Request, Response, Version};

/// Frame type codes (the HTTP/2 values, for familiarity).
const TYPE_DATA: u8 = 0x0;
const TYPE_HEADERS: u8 = 0x1;
const TYPE_SETTINGS: u8 = 0x4;
const TYPE_WINDOW_UPDATE: u8 = 0x8;

/// END_STREAM flag bit.
const FLAG_END_STREAM: u8 = 0x1;

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

fn put_u32(out: &mut BytesMut, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_field(out: &mut BytesMut, name: &str, value: &str) {
    debug_assert!(name.len() <= u16::MAX as usize && value.len() <= u16::MAX as usize);
    out.extend_from_slice(&(name.len() as u16).to_be_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&(value.len() as u16).to_be_bytes());
    out.extend_from_slice(value.as_bytes());
}

impl Frame {
    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut payload = BytesMut::new();
        let (ty, flags, stream) = match self {
            Frame::Data {
                stream,
                end_stream,
                payload: body,
            } => {
                payload.extend_from_slice(body);
                (
                    TYPE_DATA,
                    if *end_stream { FLAG_END_STREAM } else { 0 },
                    *stream,
                )
            }
            Frame::Headers {
                stream,
                end_stream,
                priority,
                fields,
            } => {
                payload.extend_from_slice(&[*priority]);
                for (name, value) in fields {
                    put_field(&mut payload, name, value);
                }
                (
                    TYPE_HEADERS,
                    if *end_stream { FLAG_END_STREAM } else { 0 },
                    *stream,
                )
            }
            Frame::Settings {
                max_concurrent_streams,
                initial_window,
                connection_window,
            } => {
                put_u32(&mut payload, *max_concurrent_streams);
                put_u32(&mut payload, *initial_window);
                put_u32(&mut payload, *connection_window);
                (TYPE_SETTINGS, 0, 0)
            }
            Frame::WindowUpdate { stream, increment } => {
                put_u32(&mut payload, *increment);
                (TYPE_WINDOW_UPDATE, 0, *stream)
            }
        };
        assert!(
            payload.len() <= MAX_FRAME_PAYLOAD,
            "frame payload {} exceeds protocol limit",
            payload.len()
        );
        let mut out = BytesMut::with_capacity(9 + payload.len());
        let len = payload.len() as u32;
        out.extend_from_slice(&len.to_be_bytes()[1..]); // 24-bit length
        out.extend_from_slice(&[ty, flags]);
        put_u32(&mut out, stream);
        out.extend_from_slice(&payload);
        out.freeze()
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
        self.buf.extend_from_slice(bytes);
        let mut frames = Vec::new();
        loop {
            if self.buf.len() < 9 {
                return Ok(frames);
            }
            let head = &self.buf[..9];
            let len = ((head[0] as usize) << 16) | ((head[1] as usize) << 8) | head[2] as usize;
            if len > MAX_FRAME_PAYLOAD {
                return Err(DecodeError::Oversized(len));
            }
            if self.buf.len() < 9 + len {
                return Ok(frames);
            }
            let ty = head[3];
            let flags = head[4];
            let stream = u32::from_be_bytes([head[5], head[6], head[7], head[8]]);
            let frame_bytes = self.buf.split_to(9 + len);
            let payload = &frame_bytes[9..];
            frames.push(decode_payload(ty, flags, stream, payload)?);
        }
    }
}

fn decode_payload(ty: u8, flags: u8, stream: u32, payload: &[u8]) -> Result<Frame, DecodeError> {
    let end_stream = flags & FLAG_END_STREAM != 0;
    match ty {
        TYPE_DATA => Ok(Frame::Data {
            stream,
            end_stream,
            payload: Bytes::copy_from_slice(payload),
        }),
        TYPE_HEADERS => {
            let (&priority, mut rest) = payload
                .split_first()
                .ok_or(DecodeError::Malformed("HEADERS without priority octet"))?;
            let mut fields = Vec::new();
            while !rest.is_empty() {
                let (name, r) = take_field(rest)?;
                let (value, r) = take_field(r)?;
                fields.push((name, value));
                rest = r;
            }
            Ok(Frame::Headers {
                stream,
                end_stream,
                priority,
                fields,
            })
        }
        TYPE_SETTINGS => {
            if payload.len() != 12 {
                return Err(DecodeError::Malformed("SETTINGS payload must be 12 bytes"));
            }
            Ok(Frame::Settings {
                max_concurrent_streams: u32::from_be_bytes(payload[..4].try_into().unwrap()),
                initial_window: u32::from_be_bytes(payload[4..8].try_into().unwrap()),
                connection_window: u32::from_be_bytes(payload[8..].try_into().unwrap()),
            })
        }
        TYPE_WINDOW_UPDATE => {
            if payload.len() != 4 {
                return Err(DecodeError::Malformed(
                    "WINDOW_UPDATE payload must be 4 bytes",
                ));
            }
            Ok(Frame::WindowUpdate {
                stream,
                increment: u32::from_be_bytes(payload.try_into().unwrap()),
            })
        }
        other => Err(DecodeError::UnknownType(other)),
    }
}

fn take_field(bytes: &[u8]) -> Result<(String, &[u8]), DecodeError> {
    if bytes.len() < 2 {
        return Err(DecodeError::Malformed("truncated field length"));
    }
    let len = u16::from_be_bytes([bytes[0], bytes[1]]) as usize;
    if bytes.len() < 2 + len {
        return Err(DecodeError::Malformed("truncated field body"));
    }
    let text = std::str::from_utf8(&bytes[2..2 + len])
        .map_err(|_| DecodeError::Malformed("field is not UTF-8"))?;
    Ok((text.to_string(), &bytes[2 + len..]))
}

// --- HTTP mapping -----------------------------------------------------

/// Header-block fields for `req` (pseudo-fields first, Host elided in
/// favour of `:authority`).
pub(crate) fn request_fields(req: &Request) -> Vec<(String, String)> {
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

/// Rebuild a request from a header block (body arrives via DATA frames).
pub(crate) fn request_from_fields(fields: &[(String, String)]) -> Result<Request, DecodeError> {
    let pseudo = |name: &str| {
        fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    let method = pseudo(":method").ok_or(DecodeError::Malformed("missing :method"))?;
    let target = pseudo(":path").ok_or(DecodeError::Malformed("missing :path"))?;
    let authority = pseudo(":authority").ok_or(DecodeError::Malformed("missing :authority"))?;
    let mut headers = HeaderMap::new();
    headers.append("Host", authority);
    for (name, value) in fields {
        if !name.starts_with(':') {
            headers.append(name, value);
        }
    }
    Ok(Request {
        method: Method::from_token(method),
        target: target.to_string(),
        version: Version::Http11,
        headers,
        body: Bytes::new(),
    })
}

/// Header-block fields for a response head (the body travels as DATA).
pub(crate) fn response_fields(resp: &Response) -> Vec<(String, String)> {
    let mut fields = vec![
        (":status".to_string(), resp.status.to_string()),
        (":reason".to_string(), resp.reason.clone()),
    ];
    for h in resp.headers.iter() {
        fields.push((h.name.to_string(), h.value.to_string()));
    }
    fields
}

/// Rebuild a response head from a header block; the returned response has
/// an empty body for DATA frames to fill.
pub(crate) fn response_from_fields(fields: &[(String, String)]) -> Result<Response, DecodeError> {
    let status = fields
        .iter()
        .find(|(n, _)| n == ":status")
        .and_then(|(_, v)| v.parse::<u16>().ok())
        .ok_or(DecodeError::Malformed("missing or invalid :status"))?;
    let reason = fields
        .iter()
        .find(|(n, _)| n == ":reason")
        .map(|(_, v)| v.clone())
        .unwrap_or_default();
    let mut headers = HeaderMap::new();
    for (name, value) in fields {
        if !name.starts_with(':') {
            headers.append(name, value);
        }
    }
    Ok(Response {
        version: Version::Http11,
        status,
        reason,
        headers,
        body: Bytes::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn request_maps_through_fields() {
        let mut req = Request::get("/x/y?q=1", "example.com");
        req.headers.append("Accept", "*/*");
        let fields = request_fields(&req);
        let back = request_from_fields(&fields).unwrap();
        assert_eq!(back.method, req.method);
        assert_eq!(back.target, req.target);
        assert_eq!(back.host(), Some("example.com"));
        assert_eq!(back.headers.get("accept"), Some("*/*"));
    }

    #[test]
    fn response_maps_through_fields() {
        let resp = Response::ok(Bytes::from_static(b"body"), "text/html");
        let fields = response_fields(&resp);
        let back = response_from_fields(&fields).unwrap();
        assert_eq!(back.status, 200);
        assert_eq!(back.reason, "OK");
        assert_eq!(back.headers.get("content-type"), Some("text/html"));
        assert!(back.body.is_empty(), "body travels as DATA");
    }
}
