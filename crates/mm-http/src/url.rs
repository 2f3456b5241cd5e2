//! Minimal URL handling for the DNS-less world of record-and-replay.
//!
//! ReplayShell binds servers to the recorded IP/port, so URLs in recorded
//! bodies address hosts directly: `http://93.184.216.34:8080/path?q=1`.
//! Hostnames are also carried verbatim (the `Host` header keeps the
//! original name); resolution is the browser's concern.

use std::fmt::{self, Write};

/// A parsed absolute URL (`scheme://host[:port]/target`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Url {
    /// `http` or `https`.
    pub scheme: String,
    /// Host part, verbatim (an IP literal in replay corpora).
    pub host: String,
    /// Port (defaulted from the scheme when absent).
    pub port: u16,
    /// Origin-form target: path plus optional query, always starting `/`.
    pub target: String,
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
    /// subresource.
    pub fn parse(s: &str) -> Result<Url, UrlParseError> {
        let (scheme, rest) = s.split_once("://").ok_or_else(|| UrlParseError(s.into()))?;
        if scheme != "http" && scheme != "https" {
            return Err(UrlParseError(format!("unsupported scheme in {s:?}")));
        }
        let (authority, target) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        if authority.is_empty() {
            return Err(UrlParseError(s.into()));
        }
        let (host, port) = match authority.rsplit_once(':') {
            Some((h, p)) => (
                h.to_string(),
                p.parse::<u16>().map_err(|_| UrlParseError(s.into()))?,
            ),
            None => (
                authority.to_string(),
                if scheme == "https" { 443 } else { 80 },
            ),
        };
        if host.is_empty() {
            return Err(UrlParseError(s.into()));
        }
        Ok(Url {
            scheme: scheme.to_string(),
            host,
            port,
            target: target.to_string(),
        })
    }

    /// The path component (before `?`).
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((p, _)) => p,
            None => &self.target,
        }
    }

    /// The `host:port` authority string.
    pub fn authority(&self) -> String {
        let mut authority = String::with_capacity(self.host.len() + ":65535".len());
        write!(authority, "{}:{}", self.host, self.port).expect("writing to a String");
        authority
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}://{}:{}{}",
            self.scheme, self.host, self.port, self.target
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_url() {
        let u = Url::parse("http://10.0.0.3:8080/a/b?x=1").unwrap();
        assert_eq!(u.scheme, "http");
        assert_eq!(u.host, "10.0.0.3");
        assert_eq!(u.port, 8080);
        assert_eq!(u.target, "/a/b?x=1");
        assert_eq!(u.path(), "/a/b");
        assert_eq!(u.authority(), "10.0.0.3:8080");
    }

    #[test]
    fn default_ports() {
        assert_eq!(Url::parse("http://h/").unwrap().port, 80);
        assert_eq!(Url::parse("https://h/").unwrap().port, 443);
    }

    #[test]
    fn missing_path_defaults_to_root() {
        let u = Url::parse("http://example.com").unwrap();
        assert_eq!(u.target, "/");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Url::parse("not a url").is_err());
        assert!(Url::parse("ftp://host/").is_err());
        assert!(Url::parse("http://").is_err());
        assert!(Url::parse("http://h:notaport/").is_err());
    }

    #[test]
    fn display_round_trips() {
        let u = Url::parse("https://1.2.3.4:443/x?q=2").unwrap();
        assert_eq!(u.to_string(), "https://1.2.3.4:443/x?q=2");
        assert_eq!(Url::parse(&u.to_string()).unwrap(), u);
    }
}
