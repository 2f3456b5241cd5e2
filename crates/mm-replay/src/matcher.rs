//! ReplayShell's request-matching algorithm.
//!
//! From the paper: "The Apache configuration redirects incoming requests to
//! a CGI script which compares each request to the set of all recorded
//! request-response pairs to locate a matching response."
//!
//! The algorithm, mirroring mahimahi's `replayserver`:
//! 1. candidates must match on **Host header** and **path** (and method);
//! 2. among candidates, an exact query-string match wins;
//! 3. otherwise the candidate with the **longest common prefix** of query
//!    string wins (ties broken by recording order);
//! 4. no candidate → no match (the server answers 404).
//!
//! Every server matches against the *entire* recorded site — this is what
//! lets any origin serve any resource, and what makes the single-server
//! ablation a pure topology change.

use mm_http::{Request, Response};

use crate::normalize::Replayed;
use crate::store_index::StoreIndex;

/// A compiled matcher over one recorded site.
pub struct Matcher {
    index: StoreIndex,
}

impl Matcher {
    /// Build from a store index.
    pub fn new(index: StoreIndex) -> Self {
        Matcher { index }
    }

    /// Locate the recorded response for `req`, or `None` (404).
    /// The returned response is an owned copy, normalized for replay
    /// (sized body, no chunked framing). The servers send what `find`
    /// returns through the same normalization, without the copy; this
    /// one is kept because the host-time benchmark's
    /// `match_exact_ns` probe (`perf/src/api.rs`) names it.
    pub fn lookup(&self, req: &Request) -> Option<Response> {
        self.find(req).map(|resp| Replayed::new(resp).to_response())
    }

    /// The recorded response that answers `req`, as recorded.
    pub(crate) fn find(&self, req: &Request) -> Option<&Response> {
        let host = req.host().unwrap_or("");
        let candidates = self.index.candidates(host, req.path());
        let want_query = req.query().unwrap_or("");
        // Exact query match first.
        let same_method = candidates.filter(|cand| cand.request.method == req.method);
        if let Some(exact) = same_method
            .clone()
            .find(|cand| cand.request.query().unwrap_or("") == want_query)
        {
            return Some(&exact.response);
        }
        // Longest-common-prefix of query string; the earliest recording
        // wins a tie.
        let mut best: Option<(usize, &Response)> = None;
        for cand in same_method {
            let lcp = common_prefix_len(want_query, cand.request.query().unwrap_or(""));
            if best.is_none_or(|(best_lcp, _)| lcp > best_lcp) {
                best = Some((lcp, &cand.response));
            }
        }
        best.map(|(_, resp)| resp)
    }
}

fn common_prefix_len(a: &str, b: &str) -> usize {
    a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mm_net::{IpAddr, SocketAddr};
    use mm_record::{RequestResponsePair, Scheme, StoredSite};

    fn site() -> StoredSite {
        let origin = SocketAddr::new(IpAddr::new(10, 0, 0, 1), 80);
        let mut s = StoredSite::new("example.com", "http://10.0.0.1:80/");
        let mut add = |target: &str, body: &str| {
            s.push(RequestResponsePair {
                origin,
                scheme: Scheme::Http,
                request: Request::get(target, "example.com"),
                response: Response::ok(Bytes::copy_from_slice(body.as_bytes()), "text/plain"),
            });
        };
        add("/", "root");
        add("/search?q=cats&page=1", "cats1");
        add("/search?q=cats&page=2", "cats2");
        add("/search?q=dogs", "dogs");
        add("/other/path", "other");
        s
    }

    fn matcher() -> Matcher {
        Matcher::new(StoreIndex::build(&site()))
    }

    #[test]
    fn exact_match_wins() {
        let m = matcher();
        let r = m
            .lookup(&Request::get("/search?q=cats&page=2", "example.com"))
            .unwrap();
        assert_eq!(&r.body[..], b"cats2");
    }

    #[test]
    fn exact_match_beats_an_earlier_longer_query() {
        // `q=cats22` is recorded first and shares all of `q=cats2`: the
        // prefix walk alone would answer it. The exact pair must win.
        let mut s = site();
        let origin = s.pairs[0].origin;
        for (target, body) in [("/find?q=cats22", "longer"), ("/find?q=cats2", "exact")] {
            s.push(RequestResponsePair {
                origin,
                scheme: Scheme::Http,
                request: Request::get(target, "example.com"),
                response: Response::ok(Bytes::copy_from_slice(body.as_bytes()), "text/plain"),
            });
        }
        let m = Matcher::new(StoreIndex::build(&s));
        let r = m
            .lookup(&Request::get("/find?q=cats2", "example.com"))
            .unwrap();
        assert_eq!(&r.body[..], b"exact");
        // And the walk itself still answers an unrecorded query.
        let r = m
            .lookup(&Request::get("/find?q=cats2x", "example.com"))
            .unwrap();
        assert_eq!(&r.body[..], b"longer");
    }

    #[test]
    fn prefix_match_used_for_unseen_query() {
        let m = matcher();
        // q=cats&page=9 shares "q=cats&page=" with both cats pages;
        // page=1 vs page=2 tie on prefix; recording order breaks the tie.
        let r = m
            .lookup(&Request::get("/search?q=cats&page=9", "example.com"))
            .unwrap();
        assert_eq!(&r.body[..], b"cats1");
        // q=dogs&extra=1 is closest to the dogs recording.
        let r = m
            .lookup(&Request::get("/search?q=dogs&extra=1", "example.com"))
            .unwrap();
        assert_eq!(&r.body[..], b"dogs");
    }

    #[test]
    fn path_mismatch_is_404() {
        let m = matcher();
        assert!(m.lookup(&Request::get("/missing", "example.com")).is_none());
    }

    #[test]
    fn host_mismatch_is_404() {
        let m = matcher();
        assert!(m.lookup(&Request::get("/", "other.com")).is_none());
    }

    #[test]
    fn method_must_match() {
        let m = matcher();
        let mut req = Request::get("/", "example.com");
        req.method = mm_http::Method::Post;
        assert!(m.lookup(&req).is_none());
    }

    #[test]
    fn bare_query_matches_query_free_recording() {
        let m = matcher();
        let r = m.lookup(&Request::get("/?utm=x", "example.com")).unwrap();
        assert_eq!(&r.body[..], b"root");
    }

    #[test]
    fn any_origin_can_serve_any_path() {
        // The matcher is origin-agnostic: content recorded from one origin
        // matches requests arriving at any server (multi-origin property).
        let m = matcher();
        let r = m
            .lookup(&Request::get("/other/path", "example.com"))
            .unwrap();
        assert_eq!(&r.body[..], b"other");
    }

    #[test]
    fn common_prefix_len_basics() {
        assert_eq!(common_prefix_len("", ""), 0);
        assert_eq!(common_prefix_len("abc", "abd"), 2);
        assert_eq!(common_prefix_len("abc", "abc"), 3);
        assert_eq!(common_prefix_len("abc", ""), 0);
    }
}
