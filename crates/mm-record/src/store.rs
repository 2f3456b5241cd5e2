//! The recorded-site store format.
//!
//! Mahimahi's RecordShell leaves behind "a recorded folder \[containing\] a
//! file for each request-response pair seen during that record session".
//! [`StoredSite`] is that folder: a named collection of
//! [`RequestResponsePair`]s, each tagged with the origin server's address —
//! the key ReplayShell uses to spawn one server per distinct ip:port.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::io;
use std::path::Path;
use std::sync::Arc;

use mm_http::{Request, Response};
use mm_net::{IpAddr, Origin, SocketAddr};

/// The scheme the pair was recorded from. HTTPS is stored decrypted —
/// mahimahi's proxy terminates TLS — so replay is byte-identical either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Scheme {
    #[default]
    Http,
    Https,
}

/// One recorded request/response exchange.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestResponsePair {
    /// The origin server the exchange was recorded from.
    pub origin: Origin,
    pub scheme: Scheme,
    pub request: Request,
    pub response: Response,
}

/// A recorded site: everything RecordShell captured during one page load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct StoredSite {
    /// Site label, e.g. `www.example.com`.
    pub name: String,
    /// URL (absolute) of the page's root document.
    pub root_url: String,
    /// The exchanges, in recording order. Shared, not copied, by a clone
    /// of the site and by every replay index built over it; an edit
    /// ([`push`](Self::push), [`pairs_mut`](Self::pairs_mut)) copies the
    /// list first only if something else still shares it.
    pub pairs: Arc<Vec<RequestResponsePair>>,
}

impl StoredSite {
    /// An empty recording with a name and root URL.
    pub fn new(name: impl Into<String>, root_url: impl Into<String>) -> Self {
        StoredSite {
            name: name.into(),
            root_url: root_url.into(),
            pairs: Arc::default(),
        }
    }

    /// Append one exchange.
    pub fn push(&mut self, pair: RequestResponsePair) {
        self.pairs_mut().push(pair);
    }

    /// The exchanges, to edit in place (copy-on-write).
    pub fn pairs_mut(&mut self) -> &mut Vec<RequestResponsePair> {
        Arc::make_mut(&mut self.pairs)
    }

    /// The distinct origins (ip:port) seen while recording — one replay
    /// server is spawned per element.
    pub fn origins(&self) -> Vec<Origin> {
        let set: BTreeSet<Origin> = self.pairs.iter().map(|p| p.origin).collect();
        set.into_iter().collect()
    }

    /// The distinct server IPs (the paper's "physical servers per website"
    /// statistic counts these).
    pub fn server_ips(&self) -> Vec<IpAddr> {
        let set: BTreeSet<IpAddr> = self.pairs.iter().map(|p| p.origin.ip).collect();
        set.into_iter().collect()
    }

    /// Total bytes of recorded response bodies (page weight).
    pub fn total_body_bytes(&self) -> u64 {
        self.pairs
            .iter()
            .map(|p| p.response.body.len() as u64)
            .sum()
    }

    /// Find the pair answering the root document request, if recorded.
    pub fn root_pair(&self) -> Option<&RequestResponsePair> {
        let root = mm_http::Url::parse(&self.root_url).ok()?;
        let origin = SocketAddr::new(root.host.parse().ok()?, root.port);
        self.pairs
            .iter()
            .find(|p| p.origin == origin && p.request.target == root.target)
    }

    /// Serialize to the on-disk JSON format.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("StoredSite serializes")
    }

    /// Parse the on-disk JSON format.
    pub fn from_json(s: &str) -> Result<StoredSite, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Write to a file (one file per recorded site).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Load from a file.
    pub fn load(path: &Path) -> io::Result<StoredSite> {
        let text = std::fs::read_to_string(path)?;
        StoredSite::from_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    fn pair(ip: [u8; 4], port: u16, target: &str, body: &str) -> RequestResponsePair {
        let origin = SocketAddr::new(IpAddr::new(ip[0], ip[1], ip[2], ip[3]), port);
        RequestResponsePair {
            origin,
            scheme: Scheme::Http,
            request: Request::get(target, "site.example"),
            response: Response::ok(Bytes::copy_from_slice(body.as_bytes()), "text/html"),
        }
    }

    fn sample_site() -> StoredSite {
        let mut s = StoredSite::new("site.example", "http://10.0.0.1:80/");
        s.push(pair([10, 0, 0, 1], 80, "/", "<html>root</html>"));
        s.push(pair([10, 0, 0, 1], 80, "/style.css", "body{}"));
        s.push(pair([10, 0, 0, 2], 80, "/img.png", "PNG"));
        s.push(pair([10, 0, 0, 2], 443, "/api", "{}"));
        s
    }

    #[test]
    fn origins_distinct_by_ip_port() {
        let s = sample_site();
        assert_eq!(
            s.origins().len(),
            3,
            "10.0.0.1:80, 10.0.0.2:80, 10.0.0.2:443"
        );
        assert_eq!(s.server_ips().len(), 2);
    }

    #[test]
    fn json_round_trip() {
        let s = sample_site();
        let back = StoredSite::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn file_round_trip() {
        let s = sample_site();
        let dir = std::env::temp_dir().join("mm-record-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("site.json");
        s.save(&path).unwrap();
        let back = StoredSite::load(&path).unwrap();
        assert_eq!(back, s);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn root_pair_found() {
        let s = sample_site();
        let root = s.root_pair().expect("root pair recorded");
        assert_eq!(&root.response.body[..], b"<html>root</html>");
    }

    #[test]
    fn total_body_bytes_sums() {
        let s = sample_site();
        assert_eq!(
            s.total_body_bytes(),
            ("<html>root</html>".len() + "body{}".len() + "PNG".len() + "{}".len()) as u64
        );
    }

    #[test]
    fn every_truncation_is_an_error() {
        let mut s = sample_site();
        s.pairs_mut()[0]
            .response
            .headers
            .append("X-Quote", "a \"q\" \\ \u{e9}");
        let json = s.to_json();
        for (cut, _) in json.char_indices() {
            assert!(StoredSite::from_json(&json[..cut]).is_err(), "cut at {cut}");
        }
    }

    proptest! {
        /// A store file with bytes overwritten loads or is refused:
        /// never a panic.
        #[test]
        fn a_mutated_store_file_never_panics(
            edits in prop::collection::vec((any::<u64>(), 0u8..128), 1..6),
        ) {
            let mut bytes = sample_site().to_json().into_bytes();
            for (at, b) in edits {
                let at = (at % bytes.len() as u64) as usize;
                bytes[at] = b;
            }
            let text = String::from_utf8(bytes).expect("ASCII edits of ASCII JSON");
            if let Ok(site) = StoredSite::from_json(&text) {
                prop_assert_eq!(StoredSite::from_json(&site.to_json()).ok(), Some(site));
            }
        }
    }

    #[test]
    fn binary_bodies_survive_json() {
        let mut s = StoredSite::new("bin", "http://10.0.0.1:80/");
        let body: Vec<u8> = (0..=255u8).collect();
        let mut p = pair([10, 0, 0, 1], 80, "/bin", "");
        p.response = Response::ok(Bytes::from(body.clone()), "application/octet-stream");
        s.push(p);
        let back = StoredSite::from_json(&s.to_json()).unwrap();
        assert_eq!(&back.pairs[0].response.body[..], &body[..]);
    }
}
