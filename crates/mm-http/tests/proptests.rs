//! Property tests: HTTP parse ∘ serialize is the identity, for arbitrary
//! well-formed messages and arbitrary chunkings of the byte stream.

use bytes::Bytes;
use mm_http::{
    chunk_body, write_request, write_response, HeaderMap, Method, Request, RequestParser, Response,
    ResponseParser, Version,
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
