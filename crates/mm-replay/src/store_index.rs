//! An index over a [`StoredSite`] for fast request matching.
//!
//! Real mahimahi's CGI scans all recorded pairs per request; with a
//! 500-site corpus and hundreds of loads we index by (host, path) once per
//! site instead. The observable matching semantics are identical.

use std::borrow::Cow;
use std::collections::HashMap;

use mm_record::{RequestResponsePair, StoredSite};

use crate::normalize::normalize_in_place;

/// Immutable (host, path) → candidate-pair-indices index. Its copy of each
/// recorded response is already normalized for replay
/// (`crate::normalize_for_replay`), so a server sends it as it stands.
pub struct StoreIndex {
    pairs: Vec<RequestResponsePair>,
    /// Lower-cased host → path → pair indices. Two levels, so a lookup
    /// borrows its key parts instead of building a `(String, String)`.
    by_host_path: HashMap<String, HashMap<String, Vec<usize>>>,
}

/// `host` in lower case — itself, when it already is.
fn lower(host: &str) -> Cow<'_, str> {
    if host.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(host.to_ascii_lowercase())
    } else {
        Cow::Borrowed(host)
    }
}

impl StoreIndex {
    /// Build the index (clones the pairs out of the site).
    pub fn build(site: &StoredSite) -> StoreIndex {
        let mut pairs = site.pairs.clone();
        for p in &mut pairs {
            normalize_in_place(&mut p.response);
        }
        let mut by_host_path: HashMap<String, HashMap<String, Vec<usize>>> = HashMap::new();
        for (i, p) in pairs.iter().enumerate() {
            let host = lower(p.request.host().unwrap_or(""));
            if !by_host_path.contains_key(host.as_ref()) {
                by_host_path.insert(host.to_string(), HashMap::new());
            }
            let by_path = by_host_path.get_mut(host.as_ref()).expect("just ensured");
            match by_path.get_mut(p.request.path()) {
                Some(indices) => indices.push(i),
                None => {
                    by_path.insert(p.request.path().to_string(), vec![i]);
                }
            }
        }
        StoreIndex {
            pairs,
            by_host_path,
        }
    }

    /// Candidate pair indices for a (host, path), in recording order.
    pub(crate) fn candidates(&self, host: &str, path: &str) -> &[usize] {
        self.by_host_path
            .get(lower(host).as_ref())
            .and_then(|by_path| by_path.get(path))
            .map_or(&[], Vec::as_slice)
    }

    /// Fetch a pair by index.
    pub(crate) fn pair(&self, idx: usize) -> &RequestResponsePair {
        &self.pairs[idx]
    }

    /// Number of pairs indexed.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.pairs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mm_http::{Request, Response};
    use mm_net::{IpAddr, SocketAddr};
    use mm_record::Scheme;

    fn site() -> StoredSite {
        let origin = SocketAddr::new(IpAddr::new(1, 1, 1, 1), 80);
        let mut s = StoredSite::new("s", "http://1.1.1.1:80/");
        for (host, target) in [
            ("a.com", "/x"),
            ("a.com", "/x?q=1"),
            ("A.COM", "/y"),
            ("b.com", "/x"),
        ] {
            s.push(RequestResponsePair {
                origin,
                scheme: Scheme::Http,
                request: Request::get(target, host),
                response: Response::ok(Bytes::new(), "text/plain"),
            });
        }
        s
    }

    #[test]
    fn groups_by_host_and_path() {
        let idx = StoreIndex::build(&site());
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.candidates("a.com", "/x").len(), 2);
        assert_eq!(idx.candidates("b.com", "/x").len(), 1);
        assert_eq!(idx.candidates("c.com", "/x").len(), 0);
        assert_eq!(idx.candidates("a.com", "/z").len(), 0);
    }

    #[test]
    fn host_lookup_case_insensitive() {
        let idx = StoreIndex::build(&site());
        assert_eq!(idx.candidates("a.com", "/y").len(), 1);
        assert_eq!(idx.candidates("A.com", "/y").len(), 1);
    }

    #[test]
    fn candidates_in_recording_order() {
        let idx = StoreIndex::build(&site());
        let c = idx.candidates("a.com", "/x");
        assert!(c[0] < c[1]);
        assert_eq!(idx.pair(c[0]).request.target, "/x");
        assert_eq!(idx.pair(c[1]).request.target, "/x?q=1");
    }
}
