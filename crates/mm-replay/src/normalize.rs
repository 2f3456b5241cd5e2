//! Response normalization for replay.
//!
//! Recorded bodies are stored de-chunked; before a replay server sends a
//! recorded response back onto the wire it must carry consistent framing:
//! a `Content-Length` matching the stored body, no `Transfer-Encoding`,
//! and no stale `Connection: close` (replay connections are persistent —
//! Apache with keep-alive in the real system).

use mm_http::Response;

/// Make a recorded response wire-consistent, in place.
pub(crate) fn normalize_in_place(resp: &mut Response) {
    resp.headers.remove("transfer-encoding");
    resp.headers.remove("connection");
    if Response::bodyless_status(resp.status) {
        resp.headers.remove("content-length");
    } else {
        resp.headers.set_content_length(resp.body.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn normalize_for_replay(recorded: &Response) -> Response {
        let mut resp = recorded.clone();
        normalize_in_place(&mut resp);
        resp
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
}
