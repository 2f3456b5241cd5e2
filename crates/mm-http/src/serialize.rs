//! Serialization of HTTP messages to wire bytes.

use bytes::{BufMut, Bytes, BytesMut};

use crate::headers::{names_chunked, Decimal, Header};
use crate::message::{Request, Response};

/// Serialize a request (start line, headers, body) to wire form.
pub fn write_request(req: &Request) -> Bytes {
    let mut out = BytesMut::with_capacity(256 + req.body.len());
    out.put_slice(req.method.as_str().as_bytes());
    out.put_u8(b' ');
    out.put_slice(req.target.as_bytes());
    out.put_u8(b' ');
    out.put_slice(req.version.as_str().as_bytes());
    out.put_slice(b"\r\n");
    for h in req.headers.iter() {
        out.put_slice(h.name.as_bytes());
        out.put_slice(b": ");
        out.put_slice(h.value.as_bytes());
        out.put_slice(b"\r\n");
    }
    out.put_slice(b"\r\n");
    out.put_slice(&req.body);
    out.freeze()
}

/// Serialize a response to wire form. If the headers declare
/// `Transfer-Encoding: chunked`, the body is emitted as a single chunk plus
/// terminator (the recorded body is already de-chunked).
pub fn write_response(resp: &Response) -> Bytes {
    let mut out = BytesMut::with_capacity(256 + resp.body.len());
    let trailer = put_response_head(&mut out, resp, resp.headers.iter());
    out.put_slice(&resp.body);
    out.put_slice(trailer);
    out.freeze()
}

/// The wire form of [`write_response`] as the pieces to send in order —
/// head, body, trailer — where the body *is* `resp.body` (shared, not
/// copied). Sending the pieces back to back puts the same byte stream on
/// a connection as sending their concatenation.
pub fn write_response_parts(resp: &Response) -> [Bytes; 3] {
    write_response_fields(resp, resp.headers.iter())
}

/// [`write_response_parts`] with `fields` as the header block in place
/// of `resp.headers`: how a server sends a stored response under a
/// rewritten head (ReplayShell's normalization) without copying it.
pub fn write_response_fields<'a>(
    resp: &Response,
    fields: impl Iterator<Item = Header<'a>>,
) -> [Bytes; 3] {
    let mut head = BytesMut::with_capacity(256);
    let trailer = put_response_head(&mut head, resp, fields);
    [
        head.freeze(),
        resp.body.clone(),
        Bytes::from_static(trailer),
    ]
}

/// Everything that precedes the body: status line, `fields`, blank line
/// and, when the first `Transfer-Encoding` field names `chunked`, the
/// size line of the body's one chunk. Returns what must follow the body.
fn put_response_head<'a>(
    out: &mut BytesMut,
    resp: &Response,
    fields: impl Iterator<Item = Header<'a>>,
) -> &'static [u8] {
    out.put_slice(resp.version.as_str().as_bytes());
    out.put_u8(b' ');
    out.put_slice(Decimal::new(u64::from(resp.status)).as_str().as_bytes());
    out.put_u8(b' ');
    out.put_slice(resp.reason.as_bytes());
    out.put_slice(b"\r\n");
    let mut chunked = None;
    for h in fields {
        if chunked.is_none() && h.name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = Some(names_chunked(h.value));
        }
        out.put_slice(h.name.as_bytes());
        out.put_slice(b": ");
        out.put_slice(h.value.as_bytes());
        out.put_slice(b"\r\n");
    }
    out.put_slice(b"\r\n");
    if chunked == Some(true) && !resp.body.is_empty() {
        out.put_slice(format!("{:x}\r\n", resp.body.len()).as_bytes());
        b"\r\n0\r\n\r\n"
    } else {
        b""
    }
}

/// Encode a body as chunked transfer coding with the given chunk size
/// (used by tests and by the live-web model to emulate streaming servers).
pub fn chunk_body(body: &[u8], chunk_size: usize) -> Bytes {
    assert!(chunk_size > 0, "chunk size must be positive");
    let mut out = BytesMut::with_capacity(body.len() + 16 * (body.len() / chunk_size + 2));
    for chunk in body.chunks(chunk_size) {
        out.put_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        out.put_slice(chunk);
        out.put_slice(b"\r\n");
    }
    out.put_slice(b"0\r\n\r\n");
    out.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Method, Version};
    use crate::parser::{RequestParser, ResponseParser};

    #[test]
    fn request_round_trip() {
        let mut req = Request::get("/a/b?q=1", "example.com");
        req.headers.append("Accept-Encoding", "gzip");
        let wire = write_request(&req);
        let mut p = RequestParser::new();
        let back = p.feed(&wire).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0], req);
    }

    #[test]
    fn request_with_body_round_trip() {
        let mut req = Request::get("/post", "h");
        req.method = Method::Post;
        req.body = Bytes::from_static(b"payload");
        req.headers.set("Content-Length", "7");
        let wire = write_request(&req);
        let mut p = RequestParser::new();
        let back = p.feed(&wire).unwrap();
        assert_eq!(back[0].body, req.body);
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::ok(Bytes::from_static(b"<html></html>"), "text/html");
        let wire = write_response(&resp);
        let mut p = ResponseParser::new();
        p.expect_head(false);
        let back = p.feed(&wire).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0], resp);
    }

    #[test]
    fn chunked_response_round_trip() {
        let mut resp = Response::ok(Bytes::from_static(b"streaming body"), "text/plain");
        resp.headers.remove("Content-Length");
        resp.headers.set("Transfer-Encoding", "chunked");
        let wire = write_response(&resp);
        let mut p = ResponseParser::new();
        p.expect_head(false);
        let back = p.feed(&wire).unwrap();
        assert_eq!(&back[0].body[..], b"streaming body");
    }

    #[test]
    fn response_parts_concatenate_to_the_wire_form_and_share_the_body() {
        let plain = Response::ok(Bytes::from(vec![b'x'; 5000]), "text/plain");
        let mut chunked = plain.clone();
        chunked.headers.remove("Content-Length");
        chunked.headers.set("Transfer-Encoding", "chunked");
        let mut empty_chunked = chunked.clone();
        empty_chunked.body = Bytes::new();
        for resp in [plain, chunked, empty_chunked] {
            let parts = write_response_parts(&resp);
            assert_eq!(parts.concat(), write_response(&resp).to_vec());
            assert_eq!(parts[1].as_ptr(), resp.body.as_ptr(), "body must be shared");
        }
    }

    #[test]
    fn http10_version_emitted() {
        let mut req = Request::get("/", "h");
        req.version = Version::Http10;
        let wire = write_request(&req);
        assert!(wire.starts_with(b"GET / HTTP/1.0\r\n"));
    }

    #[test]
    fn chunk_body_parses_back() {
        let body: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
        let chunked = chunk_body(&body, 77);
        let wire = [
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
            chunked.to_vec(),
        ]
        .concat();
        let mut p = ResponseParser::new();
        p.expect_head(false);
        let back = p.feed(&wire).unwrap();
        assert_eq!(&back[0].body[..], &body[..]);
    }

    #[test]
    fn empty_body_chunk_encoding() {
        let chunked = chunk_body(b"", 10);
        assert_eq!(&chunked[..], b"0\r\n\r\n");
    }
}
