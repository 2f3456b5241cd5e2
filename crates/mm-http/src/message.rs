//! HTTP/1.1 request and response types.

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::headers::HeaderMap;

/// Request methods the toolkit understands (the record corpus only ever
/// contains these; anything else is carried as `Extension`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    Get,
    Head,
    Post,
    Put,
    Delete,
    Options,
    /// Any other token, verbatim.
    Extension(String),
}

impl Method {
    /// Parse a method token.
    pub fn from_token(tok: &str) -> Method {
        match tok {
            "GET" => Method::Get,
            "HEAD" => Method::Head,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "OPTIONS" => Method::Options,
            other => Method::Extension(other.to_string()),
        }
    }

    /// The wire token.
    pub fn as_str(&self) -> &str {
        match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Options => "OPTIONS",
            Method::Extension(s) => s,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Protocol version. Only 1.0 and 1.1 appear in the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Version {
    Http10,
    #[default]
    Http11,
}

impl Version {
    /// The wire form, e.g. `HTTP/1.1`.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            Version::Http10 => "HTTP/1.0",
            Version::Http11 => "HTTP/1.1",
        }
    }

    /// Parse the wire form.
    pub(crate) fn from_token(tok: &str) -> Option<Version> {
        match tok {
            "HTTP/1.0" => Some(Version::Http10),
            "HTTP/1.1" => Some(Version::Http11),
            _ => None,
        }
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    pub method: Method,
    /// Origin-form request target: path plus optional `?query`.
    pub target: String,
    pub version: Version,
    pub headers: HeaderMap,
    #[serde(with = "crate::message::serde_bytes")]
    pub body: Bytes,
}

impl Request {
    /// A GET request for `target` on `host`, HTTP/1.1.
    pub fn get(target: impl Into<String>, host: impl Into<String>) -> Request {
        let host = host.into();
        // Room for the field or two a caller usually adds.
        let mut headers = HeaderMap::with_capacity(4, "Host".len() + host.len() + 32);
        headers.append("Host", host);
        Request {
            method: Method::Get,
            target: target.into(),
            version: Version::Http11,
            headers,
            body: Bytes::new(),
        }
    }

    /// The `Host` header value, if present.
    pub fn host(&self) -> Option<&str> {
        self.headers.get("host")
    }

    /// Path component of the target (before `?`).
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((p, _)) => p,
            None => &self.target,
        }
    }

    /// Query component of the target (after `?`), if any.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    pub version: Version,
    pub status: u16,
    pub reason: String,
    pub headers: HeaderMap,
    #[serde(with = "crate::message::serde_bytes")]
    pub body: Bytes,
}

impl Response {
    /// A 200 OK with the given body and content type, Content-Length set.
    pub fn ok(body: Bytes, content_type: &str) -> Response {
        let mut headers = HeaderMap::new();
        headers.append("Content-Type", content_type);
        headers.set_content_length(body.len());
        Response {
            version: Version::Http11,
            status: 200,
            reason: "OK".to_string(),
            headers,
            body,
        }
    }

    /// A bodyless response with the given status.
    pub fn status_only(status: u16, reason: &str) -> Response {
        let mut headers = HeaderMap::new();
        headers.append("Content-Length", "0");
        Response {
            version: Version::Http11,
            status,
            reason: reason.to_string(),
            headers,
            body: Bytes::new(),
        }
    }

    /// 404 Not Found — what ReplayShell's matcher returns when no recorded
    /// pair matches.
    pub fn not_found() -> Response {
        Response::status_only(404, "Not Found")
    }

    /// True for 1xx, 204 and 304, which never carry a body.
    pub fn bodyless_status(status: u16) -> bool {
        (100..200).contains(&status) || status == 204 || status == 304
    }
}

/// serde helper: encode `Bytes` as base64-free `Vec<u8>` (JSON arrays would
/// be huge; we store as a lossless latin-1 string for readability of text
/// bodies, falling back transparently for binary).
pub(crate) mod serde_bytes {
    use bytes::Bytes;
    use serde::{Deserialize, Deserializer, Serializer};

    pub(crate) fn serialize<S: Serializer>(b: &Bytes, s: S) -> Result<S::Ok, S::Error> {
        // Lossless: every byte maps to one char in U+0000..U+00FF.
        let text: String = b.iter().map(|&x| x as char).collect();
        s.serialize_str(&text)
    }

    pub(crate) fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Bytes, D::Error> {
        let text = String::deserialize(d)?;
        let out: Result<Vec<u8>, _> = text
            .chars()
            .map(|c| {
                let v = c as u32;
                if v <= 0xFF {
                    Ok(v as u8)
                } else {
                    Err(serde::de::Error::custom("non-latin1 char in body"))
                }
            })
            .collect();
        Ok(Bytes::from(out?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_tokens_round_trip() {
        for tok in ["GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "PATCH"] {
            assert_eq!(Method::from_token(tok).as_str(), tok);
        }
    }

    #[test]
    fn request_path_and_query() {
        let r = Request::get("/a/b?x=1&y=2", "example.com");
        assert_eq!(r.path(), "/a/b");
        assert_eq!(r.query(), Some("x=1&y=2"));
        assert_eq!(r.host(), Some("example.com"));
        let bare = Request::get("/plain", "example.com");
        assert_eq!(bare.path(), "/plain");
        assert_eq!(bare.query(), None);
    }

    #[test]
    fn response_constructors() {
        let ok = Response::ok(Bytes::from_static(b"hi"), "text/plain");
        assert_eq!(ok.status, 200);
        assert_eq!(ok.headers.content_length(), Some(2));
        let nf = Response::not_found();
        assert_eq!(nf.status, 404);
        assert!(nf.body.is_empty());
    }

    #[test]
    fn bodyless_statuses() {
        assert!(Response::bodyless_status(101));
        assert!(Response::bodyless_status(204));
        assert!(Response::bodyless_status(304));
        assert!(!Response::bodyless_status(200));
        assert!(!Response::bodyless_status(404));
    }

    #[test]
    fn serde_round_trip_binary_body() {
        let body: Vec<u8> = (0..=255u8).collect();
        let resp = Response::ok(Bytes::from(body.clone()), "application/octet-stream");
        let json = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(&back.body[..], &body[..]);
        assert_eq!(back.headers, resp.headers);
    }
}
