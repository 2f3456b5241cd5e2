//! Response normalization for replay.
//!
//! Recorded bodies are stored de-chunked; before a replay server sends a
//! recorded response back onto the wire it must carry consistent framing:
//! a `Content-Length` matching the stored body, no `Transfer-Encoding`,
//! and no stale `Connection: close` (replay connections are persistent —
//! Apache with keep-alive in the real system).
//!
//! Normalization is a read-only view, applied as the head is encoded:
//! the recording is shared by every server and never rewritten.

use mm_http::{Decimal, Header, HeaderMap, Response};

/// The framing fields replay rewrites: dropped from the recorded head,
/// and `Content-Length` then appended from the body itself.
const REWRITTEN: [&str; 3] = ["transfer-encoding", "connection", "content-length"];

/// A recorded response as replay sends it: its own status line and body,
/// and [`fields`](Self::fields) as its head.
pub(crate) struct Replayed<'a> {
    pub(crate) resp: &'a Response,
    /// The stored body's length, unless the status is bodyless.
    content_length: Option<Decimal>,
}

impl<'a> Replayed<'a> {
    pub(crate) fn new(resp: &'a Response) -> Replayed<'a> {
        let sized = !Response::bodyless_status(resp.status);
        Replayed {
            resp,
            content_length: sized.then(|| Decimal::new(resp.body.len() as u64)),
        }
    }

    /// The recorded fields in recording order, less the framing fields,
    /// then `Content-Length: <body length>` unless the status is
    /// bodyless.
    pub(crate) fn fields(&self) -> impl Iterator<Item = Header<'_>> + Clone {
        let kept = self.resp.headers.iter().filter(|h| {
            !REWRITTEN
                .iter()
                .any(|name| h.name.eq_ignore_ascii_case(name))
        });
        let length = self.content_length.as_ref().map(|len| Header {
            name: "Content-Length",
            value: len.as_str(),
        });
        kept.chain(length)
    }

    /// The normalized response as an owned copy.
    pub(crate) fn to_response(&self) -> Response {
        let (count, bytes) = self.fields().fold((0, 0), |(n, b), h| {
            (n + 1, b + h.name.len() + h.value.len())
        });
        let mut headers = HeaderMap::with_capacity(count, bytes);
        for h in self.fields() {
            headers.append(h.name, h.value);
        }
        Response {
            version: self.resp.version,
            status: self.resp.status,
            reason: self.resp.reason.clone(),
            headers,
            body: self.resp.body.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mm_http::{write_response_fields, write_response_parts};
    use mm_mux::frame::response_headers;
    use proptest::prelude::*;

    fn normalize_for_replay(recorded: &Response) -> Response {
        Replayed::new(recorded).to_response()
    }

    #[test]
    fn chunked_recording_becomes_sized() {
        let mut r = Response::ok(Bytes::from_static(b"stream"), "text/plain");
        r.headers.remove("Content-Length");
        r.headers.set("Transfer-Encoding", "chunked");
        let n = normalize_for_replay(&r);
        assert!(!n.headers.is_chunked());
        assert_eq!(n.headers.content_length(), Some(6));
    }

    #[test]
    fn content_length_corrected() {
        let mut r = Response::ok(Bytes::from_static(b"abcdef"), "text/plain");
        r.headers.set("Content-Length", "999"); // stale/wrong
        let n = normalize_for_replay(&r);
        assert_eq!(n.headers.content_length(), Some(6));
    }

    #[test]
    fn connection_close_stripped() {
        let mut r = Response::ok(Bytes::new(), "text/plain");
        r.headers.set("Connection", "close");
        let n = normalize_for_replay(&r);
        assert!(!n.headers.connection_close());
    }

    #[test]
    fn bodyless_status_keeps_no_length() {
        let r = Response::status_only(304, "Not Modified");
        let n = normalize_for_replay(&r);
        assert_eq!(n.headers.content_length(), None);
        assert!(n.body.is_empty());
    }

    #[test]
    fn body_and_status_untouched() {
        let r = Response::ok(Bytes::from_static(b"data"), "image/png");
        let n = normalize_for_replay(&r);
        assert_eq!(n.status, 200);
        assert_eq!(&n.body[..], b"data");
        assert_eq!(n.headers.get("content-type"), Some("image/png"));
    }

    #[test]
    fn the_not_found_answer_is_its_own_normal_form() {
        let r = Response::not_found();
        assert_eq!(normalize_for_replay(&r), r);
    }

    /// Normalization as it was done before it became a view: the index
    /// rewrote a copy of every recorded response, in place.
    fn normalize_in_place(resp: &mut Response) {
        resp.headers.remove("transfer-encoding");
        resp.headers.remove("connection");
        if Response::bodyless_status(resp.status) {
            resp.headers.remove("content-length");
        } else {
            resp.headers.set_content_length(resp.body.len());
        }
    }

    /// Any `Content-Length` spelling, and any value, stale or not.
    fn arb_field() -> impl Strategy<Value = (String, String)> {
        prop_oneof![
            (
                "[Tt]ransfer-[Ee]ncoding",
                prop_oneof!["chunked", "gzip, chunked", "gzip"]
            ),
            (
                "[Cc][Oo][Nn][Nn][Ee][Cc][Tt][Ii][Oo][Nn]",
                prop_oneof!["close", "keep-alive"]
            ),
            (
                "[Cc][Oo][Nn][Tt][Ee][Nn][Tt]-[Ll][Ee][Nn][Gg][Tt][Hh]",
                "[0-9]{1,5}"
            ),
            ("[A-Za-z][A-Za-z0-9-]{0,12}", "[ -~]{0,24}"),
        ]
    }

    fn arb_response() -> impl Strategy<Value = Response> {
        let status = prop_oneof![
            100u16..200,
            Just(200u16),
            Just(204u16),
            Just(304u16),
            Just(404u16)
        ];
        let fields = prop::collection::vec(arb_field(), 0..8);
        let body = prop::collection::vec(any::<u8>(), 0..3000);
        (status, fields, body).prop_map(|(status, fields, body)| {
            let mut resp = Response::status_only(status, "Reason");
            resp.headers = HeaderMap::new();
            for (name, value) in &fields {
                resp.headers.append(name, value);
            }
            resp.body = Bytes::from(body);
            resp
        })
    }

    proptest! {
        /// The view sends exactly what normalizing a copy in place and
        /// encoding that copy sent: the same HTTP/1.1 head, the same mux
        /// HEADERS frame, the same owned response.
        #[test]
        fn the_view_encodes_what_normalizing_a_copy_encoded(
            recorded in arb_response(),
            (stream, priority) in (1u32..1000, 0u8..3),
        ) {
            let mut reference = recorded.clone();
            normalize_in_place(&mut reference);
            let view = Replayed::new(&recorded);
            prop_assert_eq!(
                write_response_fields(&recorded, view.fields()),
                write_response_parts(&reference)
            );
            let end = recorded.body.is_empty();
            prop_assert_eq!(
                response_headers(stream, end, priority, &recorded, view.fields()),
                response_headers(stream, end, priority, &reference, reference.headers.iter())
            );
            prop_assert_eq!(view.to_response(), reference);
        }
    }
}
