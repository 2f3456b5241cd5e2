//! Minimal URL handling for the DNS-less world of record-and-replay.
//!
//! ReplayShell binds servers to the recorded IP/port, so URLs in recorded
//! bodies address hosts directly: `http://93.184.216.34:8080/path?q=1`.
//! Hostnames are also carried verbatim (the `Host` header keeps the
//! original name); resolution is the browser's concern.
//!
//! A [`Url`] is one shared buffer holding its canonical form,
//! `scheme://host:port/target`, plus offsets for the parts: every
//! accessor is a slice of it, and a copy of it (or of its text, see
//! [`Url::shared`]) is a reference-count bump (DESIGN.md §4).

use std::fmt;
use std::rc::Rc;

use crate::headers::{Decimal, Header};

/// A parsed absolute URL (`scheme://host[:port]/target`), canonical: the
/// port always written, the target always starting `/`, no fragment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Url {
    /// `scheme://host:port/target`.
    text: Rc<str>,
    /// `text[..scheme_end]` is the scheme, `://` follows.
    scheme_end: usize,
    /// `text[scheme_end + 3..colon]` is the host, `:port` follows.
    colon: usize,
    /// `text[target_start..]` is the target.
    target_start: usize,
    /// Port (defaulted from the scheme when absent).
    port: u16,
}

/// Error parsing a URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UrlParseError(pub String);

impl fmt::Display for UrlParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid URL: {}", self.0)
    }
}

impl std::error::Error for UrlParseError {}

impl Url {
    /// Parse an absolute URL. Only `http` and `https` schemes are
    /// accepted; anything else in a recorded body is not a fetchable
    /// subresource. The authority ends at the first `/`, `?` or `#`, and
    /// a fragment is dropped (RFC 3986 §3.2, §3.5): it names a part of
    /// the resource, not another one.
    pub fn parse(s: &str) -> Result<Url, UrlParseError> {
        let (scheme, rest) = s.split_once("://").ok_or_else(|| UrlParseError(s.into()))?;
        let default_port = match scheme {
            "http" => 80,
            "https" => 443,
            _ => return Err(UrlParseError(format!("unsupported scheme in {s:?}"))),
        };
        let rest = rest.split_once('#').map_or(rest, |(before, _)| before);
        let (authority, target) = rest.split_at(rest.find(['/', '?']).unwrap_or(rest.len()));
        let (host, port_text) = match authority.rsplit_once(':') {
            Some((host, port)) => (host, Some(port)),
            None => (authority, None),
        };
        if host.is_empty() {
            return Err(UrlParseError(s.into()));
        }
        let port = match port_text {
            Some(p) => p.parse::<u16>().map_err(|_| UrlParseError(s.into()))?,
            None => default_port,
        };
        let digits = Decimal::new(u64::from(port));
        let scheme_end = scheme.len();
        let colon = scheme_end + "://".len() + host.len();
        let target_start = colon + 1 + digits.as_str().len();
        // A URL already in canonical form is its own text: one copy.
        let text: Rc<str> = if port_text == Some(digits.as_str()) && target.starts_with('/') {
            Rc::from(&s[..target_start + target.len()])
        } else {
            let slash = if target.starts_with('/') { "" } else { "/" };
            Rc::from(
                [scheme, "://", host, ":", digits.as_str(), slash, target]
                    .concat()
                    .as_str(),
            )
        };
        Ok(Url {
            text,
            scheme_end,
            colon,
            target_start,
            port,
        })
    }

    /// The canonical text, `scheme://host:port/target`, as a shared
    /// string: what a caller keeps of the URL (a seen-set key, a timing
    /// record) without copying it.
    pub fn shared(&self) -> &Rc<str> {
        &self.text
    }

    /// `http` or `https`.
    pub fn scheme(&self) -> &str {
        &self.text[..self.scheme_end]
    }

    /// Host part, verbatim (an IP literal in replay corpora).
    pub fn host(&self) -> &str {
        &self.text[self.scheme_end + "://".len()..self.colon]
    }

    /// Port (defaulted from the scheme when absent).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Origin-form target: path plus optional query, always starting `/`.
    pub fn target(&self) -> &str {
        &self.text[self.target_start..]
    }

    /// The `host:port` authority.
    pub fn authority(&self) -> &str {
        &self.text[self.scheme_end + "://".len()..self.target_start]
    }

    /// The `Host` field a request for this URL carries: the authority,
    /// without the port when it is the scheme's default.
    pub fn host_field(&self) -> &str {
        let default = match self.scheme() {
            "http" => 80,
            _ => 443,
        };
        if self.port == default {
            self.host()
        } else {
            self.authority()
        }
    }

    /// The fields of the GET a browser sends for this URL: `Host` (see
    /// [`host_field`](Self::host_field)), then `Accept`. Both of the
    /// browser's transports write its GET from these.
    pub fn get_fields(&self) -> [Header<'_>; 2] {
        [
            Header {
                name: "Host",
                value: self.host_field(),
            },
            Header {
                name: "Accept",
                value: "*/*",
            },
        ]
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_url() {
        let u = Url::parse("http://10.0.0.3:8080/a/b?x=1").unwrap();
        assert_eq!(u.scheme(), "http");
        assert_eq!(u.host(), "10.0.0.3");
        assert_eq!(u.port(), 8080);
        assert_eq!(u.target(), "/a/b?x=1");
        assert_eq!(u.authority(), "10.0.0.3:8080");
        assert_eq!(u.host_field(), "10.0.0.3:8080");
    }

    #[test]
    fn default_ports() {
        let http = Url::parse("http://h/").unwrap();
        assert_eq!(
            (http.port(), http.to_string().as_str(), http.host_field()),
            (80, "http://h:80/", "h")
        );
        let https = Url::parse("https://h:443/").unwrap();
        assert_eq!((https.port(), https.host_field()), (443, "h"));
        assert_eq!(Url::parse("https://h:80/").unwrap().host_field(), "h:80");
    }

    #[test]
    fn missing_path_defaults_to_root() {
        let u = Url::parse("http://example.com").unwrap();
        assert_eq!(u.target(), "/");
        assert_eq!(u.to_string(), "http://example.com:80/");
    }

    #[test]
    fn a_query_or_fragment_ends_the_authority() {
        let u = Url::parse("http://10.0.0.1?x=1").unwrap();
        assert_eq!((u.host(), u.port(), u.target()), ("10.0.0.1", 80, "/?x=1"));
        let u = Url::parse("http://10.0.0.1:8080#top").unwrap();
        assert_eq!((u.host(), u.port(), u.target()), ("10.0.0.1", 8080, "/"));
    }

    #[test]
    fn the_fragment_is_dropped() {
        let u = Url::parse("http://10.0.0.1/a#f").unwrap();
        assert_eq!(u.target(), "/a");
        assert_eq!(u, Url::parse("http://10.0.0.1:80/a#g").unwrap());
        assert_eq!(u, Url::parse("http://10.0.0.1:80/a").unwrap());
        let u = Url::parse("http://10.0.0.1/a?q=1#f?x").unwrap();
        assert_eq!(u.target(), "/a?q=1");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Url::parse("not a url").is_err());
        assert!(Url::parse("ftp://host/").is_err());
        assert!(Url::parse("http://").is_err());
        assert!(Url::parse("http://h:notaport/").is_err());
        assert!(Url::parse("http://?x").is_err());
        assert!(Url::parse("http://:80/").is_err());
    }

    #[test]
    fn display_round_trips() {
        let u = Url::parse("https://1.2.3.4:443/x?q=2").unwrap();
        assert_eq!(u.to_string(), "https://1.2.3.4:443/x?q=2");
        assert_eq!(Url::parse(&u.to_string()).unwrap(), u);
        // A port spelled otherwise is written canonically.
        let u = Url::parse("http://h:080/x").unwrap();
        assert_eq!(u.to_string(), "http://h:80/x");
        assert_eq!(u.authority(), "h:80");
    }
}
