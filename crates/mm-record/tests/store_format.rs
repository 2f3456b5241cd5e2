//! The on-disk site format is a contract between versions: a site saved
//! before `HeaderMap` became one buffer plus spans must load now, and a
//! site saved now must be what that version would have written.
//! `fixtures/stored_site_pr20.json` is `to_json()` of the site below as
//! written by the derive on `HeaderMap { fields: Vec<Header { name: String,
//! value: String }> }` (commit fdba28f).

use bytes::Bytes;
use mm_http::{Method, Request, Response};
use mm_net::{IpAddr, SocketAddr};
use mm_record::{RequestResponsePair, Scheme, StoredSite};

const FIXTURE: &str = include_str!("fixtures/stored_site_pr20.json");

/// Two exchanges whose header maps were built by every mutator: append
/// (with duplicates differing in case), set, remove.
fn fixture_site() -> StoredSite {
    let mut site = StoredSite::new("fixture.example", "http://10.1.0.1:80/");
    let origin = SocketAddr::new(IpAddr::new(10, 1, 0, 1), 80);
    let mut req = Request::get("/", "Fixture.Example");
    req.headers.append("Accept", "*/*");
    req.headers.append("X-Dup", "one");
    req.headers.append("x-dup", "two, \"quoted\"");
    let mut resp = Response::ok(Bytes::from_static(b"<html>\xff\x00</html>"), "text/html");
    resp.headers.append("Set-Cookie", "a=1; Path=/");
    resp.headers.append("Set-Cookie", "b=2");
    resp.headers.set("Server", "fixture/1.0");
    resp.headers.remove("content-type");
    site.push(RequestResponsePair {
        origin,
        scheme: Scheme::Http,
        request: req,
        response: resp,
    });
    let mut post = Request::get("/submit?q=1&r=%20", "fixture.example:8080");
    post.method = Method::Post;
    post.body = Bytes::from_static(b"k=v");
    post.headers.set("Content-Length", "3");
    site.push(RequestResponsePair {
        origin: SocketAddr::new(IpAddr::new(10, 1, 0, 2), 8080),
        scheme: Scheme::Https,
        request: post,
        response: Response::status_only(204, "No Content"),
    });
    site
}

#[test]
fn a_site_is_saved_byte_for_byte_as_before() {
    assert_eq!(fixture_site().to_json(), FIXTURE);
}

#[test]
fn a_site_saved_before_loads_equal() {
    let loaded = StoredSite::from_json(FIXTURE).expect("fixture parses");
    assert_eq!(loaded, fixture_site());
    assert_eq!(loaded.to_json(), FIXTURE);
}
