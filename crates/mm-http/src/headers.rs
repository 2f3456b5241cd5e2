//! Case-insensitive, order-preserving HTTP header map.
//!
//! Order preservation matters for record-and-replay fidelity: replayed
//! responses should be byte-comparable to recorded ones, and real servers'
//! header order is part of that.
//!
//! A map is one `String` holding every field's name and value back to
//! back, plus one span per field saying where they are (DESIGN.md §4):
//! building, cloning and dropping a map costs a constant number of
//! allocations, not two per field.

use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;

/// One header field (name, value), borrowed from its map. Name comparison
/// is ASCII case-insensitive; the original spelling is preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header<'a> {
    pub name: &'a str,
    pub value: &'a str,
}

/// Where one field sits in [`HeaderMap::buf`]: its name is
/// `buf[start..mid]`, its value `buf[mid..end]`.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    mid: usize,
    end: usize,
}

/// An ordered multimap of HTTP headers.
#[derive(Clone, Default)]
pub struct HeaderMap {
    /// Names and values, in append order. Removing a field leaves its
    /// bytes here, unreferenced, until the map is dropped.
    buf: String,
    /// The live fields, in order.
    spans: Vec<Span>,
}

impl HeaderMap {
    /// Empty map.
    pub fn new() -> Self {
        HeaderMap::default()
    }

    /// Empty map with room for `fields` fields of `bytes` bytes in all.
    pub fn with_capacity(fields: usize, bytes: usize) -> Self {
        HeaderMap {
            buf: String::with_capacity(bytes),
            spans: Vec::with_capacity(fields),
        }
    }

    fn field(&self, span: &Span) -> Header<'_> {
        Header {
            name: &self.buf[span.start..span.mid],
            value: &self.buf[span.mid..span.end],
        }
    }

    /// Append a field named `name` whose value `write_value` appends to
    /// the buffer.
    fn push_field(&mut self, name: &str, write_value: impl FnOnce(&mut String)) {
        let start = self.buf.len();
        self.buf.push_str(name);
        let mid = self.buf.len();
        write_value(&mut self.buf);
        let end = self.buf.len();
        self.spans.push(Span { start, mid, end });
    }

    /// Append a field, preserving any existing fields of the same name.
    pub fn append(&mut self, name: impl AsRef<str>, value: impl AsRef<str>) {
        self.push_field(name.as_ref(), |buf| buf.push_str(value.as_ref()));
    }

    /// Set a field, replacing all existing fields of the same name.
    pub fn set(&mut self, name: impl AsRef<str>, value: impl AsRef<str>) {
        self.remove(name.as_ref());
        self.append(name, value);
    }

    /// First value for `name`, case-insensitive.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.spans
            .iter()
            .find(|s| self.buf[s.start..s.mid].eq_ignore_ascii_case(name))
            .map(|s| &self.buf[s.mid..s.end])
    }

    /// All values for `name`, in order.
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        self.iter()
            .filter(|h| h.name.eq_ignore_ascii_case(name))
            .map(|h| h.value)
            .collect()
    }

    /// True if any field named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Remove all fields named `name`; returns how many were removed.
    pub fn remove(&mut self, name: &str) -> usize {
        let before = self.spans.len();
        let buf = &self.buf;
        self.spans
            .retain(|s| !buf[s.start..s.mid].eq_ignore_ascii_case(name));
        before - self.spans.len()
    }

    /// Number of fields (counting duplicates).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if there are no fields.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterate fields in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Header<'_>> + Clone {
        self.spans.iter().map(|span| self.field(span))
    }

    /// Set `Content-Length` to `len`, replacing any there is — `set` of
    /// its decimal digits, without a `String` to hold them.
    pub fn set_content_length(&mut self, len: usize) {
        self.remove("content-length");
        self.push_field("Content-Length", |buf| {
            buf.push_str(Decimal::new(len as u64).as_str())
        });
    }

    /// Parsed `Content-Length`, if present and well-formed.
    pub fn content_length(&self) -> Option<u64> {
        self.get("content-length")
            .and_then(|v| v.trim().parse().ok())
    }

    /// True if `Transfer-Encoding` includes `chunked`.
    pub fn is_chunked(&self) -> bool {
        self.get("transfer-encoding").is_some_and(names_chunked)
    }

    /// True if `Connection: close` is declared.
    pub fn connection_close(&self) -> bool {
        self.get("connection")
            .map(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case("close")))
            .unwrap_or(false)
    }
}

/// True if a `Transfer-Encoding` value lists `chunked`.
pub(crate) fn names_chunked(value: &str) -> bool {
    value
        .split(',')
        .any(|t| t.trim().eq_ignore_ascii_case("chunked"))
}

/// A number's decimal digits, written on the stack: a status code or a
/// `Content-Length` value on its way into a head, without a `String`.
#[derive(Debug, Clone, Copy)]
pub struct Decimal {
    buf: [u8; 20],
    /// The digits are `buf[start..]`.
    start: u8,
}

impl Decimal {
    /// The digits of `n`.
    pub fn new(mut n: u64) -> Decimal {
        let mut buf = [0u8; 20];
        let mut start = buf.len();
        loop {
            start -= 1;
            buf[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        Decimal {
            buf,
            start: start as u8,
        }
    }

    /// The digits, as text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[usize::from(self.start)..]).expect("ASCII digits")
    }
}

impl fmt::Display for HeaderMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for h in self.iter() {
            writeln!(f, "{}: {}", h.name, h.value)?;
        }
        Ok(())
    }
}

impl fmt::Debug for HeaderMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Two maps are equal when they hold the same fields in the same order,
/// whatever was appended and removed on the way there.
impl PartialEq for HeaderMap {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for HeaderMap {}

/// The stored form, `{"fields":[{"name":…,"value":…},…]}`: what the
/// derive wrote when a map was a `Vec` of owned fields.
#[derive(Serialize, Deserialize)]
struct StoredFields {
    fields: Vec<StoredField>,
}

#[derive(Serialize, Deserialize)]
struct StoredField {
    name: String,
    value: String,
}

impl Serialize for HeaderMap {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let fields = self.iter().map(|h| StoredField {
            name: h.name.to_string(),
            value: h.value.to_string(),
        });
        StoredFields {
            fields: fields.collect(),
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for HeaderMap {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let stored = StoredFields::deserialize(deserializer)?;
        let mut map = HeaderMap::new();
        for f in &stored.fields {
            map.append(&f.name, &f.value);
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_insensitive_get() {
        let mut h = HeaderMap::new();
        h.append("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        assert!(h.contains("Content-type"));
        assert!(!h.contains("content-length"));
    }

    #[test]
    fn append_keeps_duplicates_set_replaces() {
        let mut h = HeaderMap::new();
        h.append("Set-Cookie", "a=1");
        h.append("Set-Cookie", "b=2");
        assert_eq!(h.get_all("set-cookie"), vec!["a=1", "b=2"]);
        assert_eq!(h.get("set-cookie"), Some("a=1"));
        h.set("Set-Cookie", "c=3");
        assert_eq!(h.get_all("set-cookie"), vec!["c=3"]);
    }

    #[test]
    fn remove_counts() {
        let mut h = HeaderMap::new();
        h.append("X-A", "1");
        h.append("x-a", "2");
        h.append("X-B", "3");
        assert_eq!(h.remove("X-A"), 2);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn content_length_parsing() {
        let mut h = HeaderMap::new();
        assert_eq!(h.content_length(), None);
        h.set("Content-Length", " 1234 ");
        assert_eq!(h.content_length(), Some(1234));
        h.set("Content-Length", "nonsense");
        assert_eq!(h.content_length(), None);
        h.append("X-After", "1");
        h.set_content_length(42);
        assert_eq!(h.content_length(), Some(42));
        assert_eq!(h.to_string(), "X-After: 1\nContent-Length: 42\n");
    }

    #[test]
    fn decimal_spells_what_to_string_spells() {
        for n in [0, 7, 10, 204, 65_535, 1_000_000, u64::MAX] {
            assert_eq!(Decimal::new(n).as_str(), n.to_string());
        }
    }

    #[test]
    fn equality_is_by_field_not_by_history() {
        let mut edited = HeaderMap::new();
        edited.append("A", "1");
        edited.append("Gone", "soon");
        edited.set("a", "2");
        edited.remove("gone");
        let mut fresh = HeaderMap::new();
        fresh.append("a", "2");
        assert_eq!(edited, fresh);
        assert_eq!(edited.clone(), fresh);
        fresh.append("B", "");
        assert_ne!(edited, fresh);
    }

    #[test]
    fn chunked_detection() {
        let mut h = HeaderMap::new();
        assert!(!h.is_chunked());
        h.set("Transfer-Encoding", "gzip, Chunked");
        assert!(h.is_chunked());
        h.set("Transfer-Encoding", "gzip");
        assert!(!h.is_chunked());
    }

    #[test]
    fn connection_close_detection() {
        let mut h = HeaderMap::new();
        assert!(!h.connection_close());
        h.set("Connection", "keep-alive");
        assert!(!h.connection_close());
        h.set("Connection", "Close");
        assert!(h.connection_close());
    }

    #[test]
    fn display_emits_field_lines() {
        let mut h = HeaderMap::new();
        h.append("Host", "example.com");
        h.append("Accept", "*/*");
        assert_eq!(h.to_string(), "Host: example.com\nAccept: */*\n");
    }

    #[test]
    fn insertion_order_preserved() {
        let mut h = HeaderMap::new();
        for i in 0..10 {
            h.append(format!("X-{i}"), i.to_string());
        }
        let names: Vec<_> = h.iter().map(|f| f.name.to_string()).collect();
        let expect: Vec<_> = (0..10).map(|i| format!("X-{i}")).collect();
        assert_eq!(names, expect);
    }
}
