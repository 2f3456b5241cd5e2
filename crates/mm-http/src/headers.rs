//! Case-insensitive, order-preserving HTTP header map.
//!
//! Order preservation matters for record-and-replay fidelity: replayed
//! responses should be byte-comparable to recorded ones, and real servers'
//! header order is part of that.
//!
//! A map is one `String` holding every field's name and value back to
//! back, plus one span per field saying where they are (DESIGN.md §4):
//! building, cloning and dropping a map costs a constant number of
//! allocations, not two per field. The first four spans live inside the
//! map, so a head of up to four fields is one heap block.

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
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    mid: u32,
    end: u32,
}

/// Spans kept inside the map: a request the browser sends has two
/// fields, a replayed response four.
const INLINE_SPANS: usize = 4;

/// The live fields' spans, in order: inside the map while they fit,
/// then on the heap.
#[derive(Clone)]
enum Spans {
    Inline {
        len: u8,
        spans: [Span; INLINE_SPANS],
    },
    Heap(Vec<Span>),
}

impl Default for Spans {
    fn default() -> Self {
        Spans::Inline {
            len: 0,
            spans: [Span::default(); INLINE_SPANS],
        }
    }
}

impl Spans {
    fn with_capacity(fields: usize) -> Self {
        if fields <= INLINE_SPANS {
            Spans::default()
        } else {
            Spans::Heap(Vec::with_capacity(fields))
        }
    }

    fn as_slice(&self) -> &[Span] {
        match self {
            Spans::Inline { len, spans } => &spans[..usize::from(*len)],
            Spans::Heap(spans) => spans,
        }
    }

    fn push(&mut self, span: Span) {
        match self {
            Spans::Inline { len, spans } if usize::from(*len) < INLINE_SPANS => {
                spans[usize::from(*len)] = span;
                *len += 1;
            }
            Spans::Inline { spans, .. } => {
                let mut heap = Vec::with_capacity(2 * INLINE_SPANS);
                heap.extend_from_slice(spans);
                heap.push(span);
                *self = Spans::Heap(heap);
            }
            Spans::Heap(spans) => spans.push(span),
        }
    }

    fn retain(&mut self, mut keep: impl FnMut(&Span) -> bool) {
        match self {
            Spans::Inline { len, spans } => {
                let mut kept = 0;
                for i in 0..usize::from(*len) {
                    if keep(&spans[i]) {
                        spans[kept] = spans[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Spans::Heap(spans) => spans.retain(keep),
        }
    }
}

/// An ordered multimap of HTTP headers.
#[derive(Clone, Default)]
pub struct HeaderMap {
    /// Names and values, in append order. Removing a field leaves its
    /// bytes here, unreferenced, until the map is dropped.
    buf: String,
    /// The live fields, in order.
    spans: Spans,
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
            spans: Spans::with_capacity(fields),
        }
    }

    fn field(&self, span: &Span) -> Header<'_> {
        let [start, mid, end] = [span.start, span.mid, span.end].map(|at| at as usize);
        Header {
            name: &self.buf[start..mid],
            value: &self.buf[mid..end],
        }
    }

    /// The current end of the buffer, as a span offset.
    fn offset(&self) -> u32 {
        u32::try_from(self.buf.len()).expect("a header map under 4 GiB")
    }

    /// Append a field named `name` whose value `write_value` appends to
    /// the buffer.
    fn push_field(&mut self, name: &str, write_value: impl FnOnce(&mut String)) {
        let start = self.offset();
        self.buf.push_str(name);
        let mid = self.offset();
        write_value(&mut self.buf);
        let end = self.offset();
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
        self.iter()
            .find(|h| h.name.eq_ignore_ascii_case(name))
            .map(|h| h.value)
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
        let before = self.len();
        let buf = &self.buf;
        self.spans
            .retain(|s| !buf[s.start as usize..s.mid as usize].eq_ignore_ascii_case(name));
        before - self.len()
    }

    /// Number of fields (counting duplicates).
    pub fn len(&self) -> usize {
        self.spans.as_slice().len()
    }

    /// True if there are no fields.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate fields in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Header<'_>> + Clone {
        self.spans.as_slice().iter().map(|span| self.field(span))
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
    fn spans_spill_past_four_fields_and_keep_their_order() {
        let mut h = HeaderMap::new();
        for i in 0..9 {
            h.append(format!("X-{}", i % 3), i.to_string());
        }
        assert!(matches!(h.spans, Spans::Heap(_)));
        assert_eq!(h.remove("x-0"), 3);
        assert_eq!(h.get_all("x-1"), vec!["1", "4", "7"]);
        let mut small = HeaderMap::with_capacity(2, 16);
        small.append("A", "1");
        small.append("B", "2");
        small.append("A", "3");
        assert_eq!(small.remove("a"), 2);
        assert!(matches!(small.spans, Spans::Inline { len: 1, .. }));
        assert_eq!(small.to_string(), "B: 2\n");
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
