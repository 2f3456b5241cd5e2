//! An index over a [`StoredSite`] for fast request matching.
//!
//! Real mahimahi's CGI scans all recorded pairs per request; with a
//! 500-site corpus and hundreds of loads we index by (host, path) once per
//! site instead. The observable matching semantics are identical.
//!
//! The index reads the recording where it lies: it shares the site's
//! pairs and keeps one sorted list of path hashes, so building it copies
//! no request, no response and no key.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

use mm_record::{RequestResponsePair, StoredSite};

/// Immutable (host, path) → candidate-pairs index over a shared
/// recording. The pairs are the recording's own, not normalized:
/// replay rewrites a response's framing as it sends it
/// (`crate::normalize::Replayed`).
pub struct StoreIndex {
    pairs: Arc<Vec<RequestResponsePair>>,
    /// `(key(path), pair index)` for every pair, sorted. The pairs of one
    /// key are adjacent and in recording order; another host's pair of
    /// the same path, or a hash collision, is only a pair that
    /// [`candidates`](Self::candidates) then skips.
    keys: Vec<(u64, usize)>,
}

/// The sort key of a request path. Only the path is hashed: the pairs
/// of one path are adjacent, and the host sorts them out.
fn key(path: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    path.hash(&mut hasher);
    hasher.finish()
}

impl StoreIndex {
    /// Build the index. It shares the site's pairs; its one allocation is
    /// the key list.
    pub fn build(site: &StoredSite) -> StoreIndex {
        let pairs = Arc::clone(&site.pairs);
        let mut keys: Vec<(u64, usize)> = pairs
            .iter()
            .enumerate()
            .map(|(i, p)| (key(p.request.path()), i))
            .collect();
        keys.sort_unstable();
        StoreIndex { pairs, keys }
    }

    /// The pairs recorded for (`host`, `path`), in recording order: the
    /// host compared ASCII case-insensitively, the path exactly.
    pub(crate) fn candidates<'s, 'q>(
        &'s self,
        host: &'q str,
        path: &'q str,
    ) -> impl Iterator<Item = &'s RequestResponsePair> + Clone + 'q
    where
        's: 'q,
    {
        let k = key(path);
        let first = self.keys.partition_point(|&(h, _)| h < k);
        self.keys[first..]
            .iter()
            .take_while(move |&&(h, _)| h == k)
            .map(|&(_, i)| &self.pairs[i])
            .filter(move |p| {
                let recorded = &p.request;
                recorded.path() == path && recorded.host().unwrap_or("").eq_ignore_ascii_case(host)
            })
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
        assert_eq!(idx.candidates("a.com", "/x").count(), 2);
        assert_eq!(idx.candidates("b.com", "/x").count(), 1);
        assert_eq!(idx.candidates("c.com", "/x").count(), 0);
        assert_eq!(idx.candidates("a.com", "/z").count(), 0);
        assert_eq!(idx.candidates("a.com", "/X").count(), 0, "paths are exact");
    }

    #[test]
    fn host_lookup_case_insensitive() {
        let idx = StoreIndex::build(&site());
        assert_eq!(idx.candidates("a.com", "/y").count(), 1);
        assert_eq!(idx.candidates("A.com", "/y").count(), 1);
    }

    #[test]
    fn candidates_in_recording_order() {
        let idx = StoreIndex::build(&site());
        let targets: Vec<&str> = idx
            .candidates("a.com", "/x")
            .map(|p| p.request.target.as_str())
            .collect();
        assert_eq!(targets, ["/x", "/x?q=1"]);
    }

    #[test]
    fn the_index_shares_the_recording() {
        let site = site();
        let idx = StoreIndex::build(&site);
        assert!(Arc::ptr_eq(&idx.pairs, &site.pairs));
    }
}
