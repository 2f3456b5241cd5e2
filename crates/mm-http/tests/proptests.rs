//! Property tests: HTTP parse ∘ serialize is the identity, for arbitrary
//! well-formed messages and arbitrary chunkings of the byte stream.

use bytes::Bytes;
use mm_http::{
    chunk_body, write_request, write_response, write_response_parts, HeaderMap, Method, Request,
    RequestParser, Response, ResponseParser, Version,
};
use proptest::prelude::*;

fn arb_token() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9-]{0,15}".prop_map(|s| s)
}

fn arb_header_value() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 ;=/.,_-]{0,40}".prop_map(|s| s.trim().to_string())
}

fn arb_headers() -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec((arb_token(), arb_header_value()), 0..8)
}

fn arb_target() -> impl Strategy<Value = String> {
    "/[a-zA-Z0-9/_.-]{0,30}(\\?[a-zA-Z0-9=&-]{0,20})?".prop_map(|s| s)
}

fn arb_body() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..2000)
}

proptest! {
    #[test]
    fn request_round_trip(
        target in arb_target(),
        headers in arb_headers(),
        body in arb_body(),
        chunk in 1usize..97,
    ) {
        let mut req = Request {
            method: Method::Post,
            target,
            version: Version::Http11,
            headers: HeaderMap::new(),
            body: Bytes::from(body.clone()),
        };
        req.headers.append("Host", "example.com");
        for (n, v) in &headers {
            // Avoid fields that alter framing.
            if !n.eq_ignore_ascii_case("content-length")
                && !n.eq_ignore_ascii_case("transfer-encoding") {
                req.headers.append(n.clone(), v.clone());
            }
        }
        req.headers.set("Content-Length", body.len().to_string());
        let wire = write_request(&req);
        // Feed in arbitrary-sized chunks.
        let mut parser = RequestParser::new();
        let mut got = Vec::new();
        for piece in wire.chunks(chunk) {
            got.extend(parser.feed(piece).unwrap());
        }
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(&got[0], &req);
        prop_assert_eq!(parser.buffered(), 0);
    }

    #[test]
    fn response_round_trip(
        status in 200u16..600,
        headers in arb_headers(),
        body in arb_body(),
        chunk in 1usize..97,
    ) {
        let mut resp = Response {
            version: Version::Http11,
            status,
            reason: "Test".to_string(),
            headers: HeaderMap::new(),
            body: Bytes::from(body.clone()),
        };
        for (n, v) in &headers {
            if !n.eq_ignore_ascii_case("content-length")
                && !n.eq_ignore_ascii_case("transfer-encoding") {
                resp.headers.append(n.clone(), v.clone());
            }
        }
        let bodyless = Response::bodyless_status(status);
        if bodyless {
            resp.body = Bytes::new();
        } else {
            resp.headers.set("Content-Length", body.len().to_string());
        }
        let wire = write_response(&resp);
        let mut parser = ResponseParser::new();
        parser.expect_head(false);
        let mut got = Vec::new();
        for piece in wire.chunks(chunk) {
            got.extend(parser.feed(piece).unwrap());
        }
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(&got[0], &resp);
    }

    #[test]
    fn chunked_encoding_round_trip(body in arb_body(), chunk_size in 1usize..300, feed in 1usize..71) {
        let encoded = chunk_body(&body, chunk_size);
        let head = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
        let wire = [head.to_vec(), encoded.to_vec()].concat();
        let mut parser = ResponseParser::new();
        parser.expect_head(false);
        let mut got = Vec::new();
        for piece in wire.chunks(feed) {
            got.extend(parser.feed(piece).unwrap());
        }
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(&got[0].body[..], &body[..]);
    }

    #[test]
    fn url_round_trip(
        host in "[a-z0-9.]{1,20}",
        port in 1u16..65535,
        target in arb_target(),
    ) {
        prop_assume!(!host.starts_with('.') && !host.ends_with('.'));
        let text = format!("http://{host}:{port}{target}");
        let url = mm_http::Url::parse(&text).unwrap();
        prop_assert_eq!(url.to_string(), text);
    }

    #[test]
    fn parser_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..500)) {
        let mut p = RequestParser::new();
        let _ = p.feed(&data); // may Err, must not panic
        let mut p = ResponseParser::new();
        let _ = p.feed(&data);
    }
}

proptest! {
    /// `HeaderMap` — one buffer plus spans — behaves as the list of owned
    /// (name, value) pairs it used to be: case-insensitive, order-
    /// preserving, duplicates kept; clones and JSON round trips are equal
    /// to it however many removed fields its buffer still holds.
    #[test]
    fn header_map_matches_a_vec_of_pairs(
        ops in prop::collection::vec((0u8..5, "[a-cA-C]{1,2}", arb_header_value()), 0..40),
    ) {
        let mut map = HeaderMap::new();
        let mut model: Vec<(String, String)> = Vec::new();
        let named = |model: &[(String, String)], name: &str| -> Vec<String> {
            let same = model.iter().filter(|(n, _)| n.eq_ignore_ascii_case(name));
            same.map(|(_, v)| v.clone()).collect()
        };
        for (op, name, value) in ops {
            match op {
                0 | 1 => {
                    map.append(&name, &value);
                    model.push((name.clone(), value));
                }
                2 => {
                    map.set(&name, &value);
                    model.retain(|(n, _)| !n.eq_ignore_ascii_case(&name));
                    model.push((name.clone(), value));
                }
                3 => {
                    let before = model.len();
                    model.retain(|(n, _)| !n.eq_ignore_ascii_case(&name));
                    prop_assert_eq!(map.remove(&name), before - model.len());
                }
                _ => {}
            }
            let values = named(&model, &name);
            prop_assert_eq!(map.get(&name), values.first().map(String::as_str));
            prop_assert_eq!(map.get_all(&name), values);
            prop_assert_eq!(map.contains(&name), !values.is_empty());
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
            let fields: Vec<_> = map.iter().map(|h| (h.name.to_string(), h.value.to_string())).collect();
            prop_assert_eq!(&fields, &model);
        }
        // The same fields reached by appends alone.
        let mut fresh = HeaderMap::new();
        for (n, v) in &model {
            fresh.append(n, v);
        }
        prop_assert_eq!(&map, &fresh);
        prop_assert_eq!(&map.clone(), &fresh);
        let json = serde_json::to_string(&map).unwrap();
        prop_assert_eq!(&json, &serde_json::to_string(&fresh).unwrap());
        prop_assert_eq!(&serde_json::from_str::<HeaderMap>(&json).unwrap(), &map);
    }
}

/// The wire form of a message is its fields in order, whatever the map
/// holding them looks like inside.
#[test]
fn wire_bytes_are_the_fields_in_order() {
    let mut req = Request::get("/a?b=1", "example.com");
    req.headers.append("X-Gone", "soon");
    req.headers.append("Accept", "*/*");
    req.headers.remove("x-gone");
    assert_eq!(
        &write_request(&req)[..],
        b"GET /a?b=1 HTTP/1.1\r\nHost: example.com\r\nAccept: */*\r\n\r\n"
    );
    let mut resp = Response::ok(Bytes::from_static(b"hi"), "text/plain");
    resp.headers.append("Set-Cookie", "a=1");
    resp.headers.append("set-cookie", "b=2");
    resp.headers.set("Content-Length", "2");
    assert_eq!(
        &write_response(&resp)[..],
        &b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nSet-Cookie: a=1\r\n\
           set-cookie: b=2\r\nContent-Length: 2\r\n\r\nhi"[..]
    );
}

/// The response writer as it was before it took a field sequence: the
/// status through `to_string`, chunking read off the map.
fn reference_response_wire(resp: &Response) -> Vec<u8> {
    let version = match resp.version {
        Version::Http10 => "HTTP/1.0",
        Version::Http11 => "HTTP/1.1",
    };
    let mut out = format!("{version} {} {}\r\n", resp.status, resp.reason);
    for h in resp.headers.iter() {
        out.push_str(&format!("{}: {}\r\n", h.name, h.value));
    }
    out.push_str("\r\n");
    let mut out = out.into_bytes();
    if resp.headers.is_chunked() && !resp.body.is_empty() {
        out.extend_from_slice(format!("{:x}\r\n", resp.body.len()).as_bytes());
        out.extend_from_slice(&resp.body);
        out.extend_from_slice(b"\r\n0\r\n\r\n");
    } else {
        out.extend_from_slice(&resp.body);
    }
    out
}

proptest! {
    /// Any status, and `Transfer-Encoding` fields that do and do not name
    /// `chunked` in any position: the writer's bytes are the reference's.
    #[test]
    fn the_response_writer_spells_status_and_chunking_as_before(
        status in any::<u16>(),
        fields in prop::collection::vec(
            prop_oneof![
                ("[Tt]ransfer-[Ee]ncoding", prop_oneof!["chunked", "gzip, Chunked", "gzip"]),
                (arb_token(), arb_header_value()),
            ],
            0..6,
        ),
        body in arb_body(),
    ) {
        let mut resp = Response::status_only(status, "Some Reason");
        resp.headers = HeaderMap::new();
        for (n, v) in &fields {
            resp.headers.append(n, v);
        }
        resp.body = Bytes::from(body);
        prop_assert_eq!(write_response(&resp).to_vec(), reference_response_wire(&resp));
    }
}

/// A response and the pieces a server sends for it, in order: `framing`
/// 0 is a `Content-Length` body, 1 a chunked body as one chunk between
/// shared pieces, 2 a chunked body of `chunk`-byte chunks in one fresh
/// buffer, and 3 a body that ends at the close.
fn sent(framing: u8, body: Vec<u8>, chunk: usize) -> (Response, Vec<Bytes>) {
    let mut resp = Response::ok(Bytes::from(body), "text/plain");
    if framing == 3 {
        resp.headers.remove("content-length");
        return (resp.clone(), write_response_parts(&resp).to_vec());
    }
    if framing == 0 {
        return (resp.clone(), write_response_parts(&resp).to_vec());
    }
    resp.headers.remove("content-length");
    resp.headers.append("Transfer-Encoding", "chunked");
    if framing == 1 && !resp.body.is_empty() {
        return (resp.clone(), write_response_parts(&resp).to_vec());
    }
    let mut bare = resp.clone();
    bare.body = Bytes::new();
    let [head, ..] = write_response_parts(&bare);
    (resp.clone(), vec![head, chunk_body(&resp.body, chunk)])
}

/// `parts` sent back to back, cut into segments of the `sizes` in turn:
/// a segment inside one part is a slice of it unless its `fresh` entry
/// is 0; otherwise it is a fresh buffer.
fn segments(parts: &[Bytes], sizes: &[usize], fresh: &[u8]) -> Vec<Bytes> {
    let stream: Vec<(usize, usize)> = parts
        .iter()
        .enumerate()
        .flat_map(|(i, part)| (0..part.len()).map(move |at| (i, at)))
        .collect();
    let mut out = Vec::new();
    let mut at = 0;
    while at < stream.len() {
        let n = out.len();
        let seg = &stream[at..stream.len().min(at + sizes[n % sizes.len()])];
        at += seg.len();
        let (first, last) = (seg[0], seg[seg.len() - 1]);
        out.push(if first.0 == last.0 && fresh[n % fresh.len()] != 0 {
            parts[first.0].slice(first.1..=last.1)
        } else {
            seg.iter().map(|&(i, at)| parts[i][at]).collect()
        });
    }
    out
}

proptest! {
    /// `feed_bytes` reads what `feed` reads: pipelined responses of every
    /// framing, cut anywhere, fed as slices of the buffers sent mixed
    /// with fresh copies, complete the same responses at the same feeds,
    /// and the close completes the same last one.
    #[test]
    fn feed_bytes_reads_what_feed_reads(
        responses in prop::collection::vec((0u8..3, arb_body(), 1usize..300), 1..4),
        until_close in 0u8..2,
        last_body in arb_body(),
        sizes in prop::collection::vec(1usize..1500, 1..12),
        fresh in prop::collection::vec(0u8..3, 1..12),
    ) {
        let mut expected = Vec::new();
        let mut parts = Vec::new();
        for (framing, body, chunk) in responses {
            let (resp, sent) = sent(framing, body, chunk);
            expected.push(resp);
            parts.extend(sent);
        }
        if until_close == 1 {
            let (resp, sent) = sent(3, last_body, 1);
            expected.push(resp);
            parts.extend(sent);
        }
        let (mut shared, mut copied) = (ResponseParser::new(), ResponseParser::new());
        let mut got = Vec::new();
        for segment in segments(&parts, &sizes, &fresh) {
            let viewed: Vec<Response> = shared.feed_bytes(&segment).unwrap().into_iter().collect();
            let read: Vec<Response> = copied.feed(&segment).unwrap().into_iter().collect();
            prop_assert_eq!(&viewed, &read);
            got.extend(viewed);
        }
        let last = shared.finish().unwrap();
        prop_assert_eq!(&last, &copied.finish().unwrap());
        got.extend(last);
        prop_assert_eq!(got, expected);
    }
}
