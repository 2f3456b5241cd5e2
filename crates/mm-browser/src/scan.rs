//! Subresource discovery: scanning fetched bodies for absolute URLs.
//!
//! Real browsers discover subresources by parsing HTML/CSS/JS. The corpus
//! stores bodies whose references are absolute `http(s)://` URLs, so
//! discovery here is a linear scan for URL literals — the same dependency
//! structure, without an HTML parser. Only textual content types are
//! scanned (images and other binaries never reference further resources).

use mm_http::{Response, Url};

/// True if the response's content type can reference subresources.
pub(crate) fn is_scannable(resp: &Response) -> bool {
    let Some(ct) = resp.headers.get("content-type") else {
        return false;
    };
    let ct = ct.as_bytes();
    let contains = |word: &[u8]| ct.windows(word.len()).any(|w| w.eq_ignore_ascii_case(word));
    ct.get(..5)
        .is_some_and(|p| p.eq_ignore_ascii_case(b"text/"))
        || contains(b"javascript")
        || contains(b"json")
        || contains(b"xml")
}

/// Guess, at request time, whether a URL names a resource that can
/// reference further subresources — the signal a real browser has from
/// the referencing tag and the URL's extension. Drives mux stream
/// priorities: discovery-bearing resources (markup, styles, scripts) are
/// requested ahead of leaf content so the dependency closure unrolls as
/// fast as possible.
pub(crate) fn likely_scannable_url(url: &Url) -> bool {
    let path = url.target().split('?').next().unwrap_or("");
    let last_segment = path.rsplit('/').next().unwrap_or("");
    match last_segment.rsplit_once('.') {
        Some((_, ext)) => ["html", "htm", "css", "js", "json", "xml", "svg"]
            .iter()
            .any(|known| ext.eq_ignore_ascii_case(known)),
        // Extension-less paths are typically documents.
        None => true,
    }
}

/// Extract all absolute URLs from a body. Terminators are whitespace,
/// quotes and markup delimiters; malformed URLs are skipped.
pub fn extract_urls(body: &[u8]) -> Vec<Url> {
    extract_urls_with(body, find_scheme)
}

fn extract_urls_with(body: &[u8], find_scheme: impl Fn(&[u8]) -> Option<usize>) -> Vec<Url> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < body.len() {
        let rest = &body[i..];
        let start = match find_scheme(rest) {
            Some(off) => i + off,
            None => break,
        };
        let mut end = start;
        while end < body.len() && !is_terminator(body[end]) {
            end += 1;
        }
        if let Ok(text) = std::str::from_utf8(&body[start..end]) {
            if let Ok(url) = Url::parse(text) {
                out.push(url);
            }
        }
        i = end + 1;
    }
    out
}

/// Offset of the first `http://` or `https://` in `hay`, in one pass:
/// each `h` found is accepted if `ttp://` or `ttps://` follows it.
fn find_scheme(hay: &[u8]) -> Option<usize> {
    let mut from = 0;
    while let Some(off) = find_h(&hay[from..]) {
        let at = from + off;
        let tail = &hay[at + 1..];
        if tail.starts_with(b"ttp://") || tail.starts_with(b"ttps://") {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// Offset of the first `h` in `hay`, eight bytes per step: XOR turns
/// every `h` of a word into a zero byte, and `(x - 0x01…) & !x & 0x80…`
/// is non-zero exactly when `x` has one, its lowest set bit in the
/// first. (Bits above that may be borrow artefacts, hence little-endian:
/// the first byte of the haystack is the lowest of the word.)
fn find_h(hay: &[u8]) -> Option<usize> {
    const LO: u64 = u64::from_le_bytes([0x01; 8]);
    const HI: u64 = u64::from_le_bytes([0x80; 8]);
    const HS: u64 = u64::from_le_bytes([b'h'; 8]);
    let mut words = hay.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("chunks of 8")) ^ HS;
        let zeros = x.wrapping_sub(LO) & !x & HI;
        if zeros != 0 {
            return Some(i * 8 + zeros.trailing_zeros() as usize / 8);
        }
    }
    let rest = words.remainder();
    let at = rest.iter().position(|&b| b == b'h')?;
    Some(hay.len() - rest.len() + at)
}

fn is_terminator(b: u8) -> bool {
    b.is_ascii_whitespace() || matches!(b, b'"' | b'\'' | b'<' | b'>' | b')' | b'(' | b',')
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    /// The scheme search this module shipped with: two whole-haystack
    /// scans per call, so extraction was quadratic in the URL count when
    /// one of the two schemes was rare. Kept as the reference the
    /// one-pass search must agree with.
    fn find_scheme_two_scans(hay: &[u8]) -> Option<usize> {
        let h = hay.windows(7).position(|w| w == b"http://");
        let s = hay.windows(8).position(|w| w == b"https://");
        match (h, s) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Bodies built from the fragments that decide the search: whole and
    /// truncated schemes, near misses, terminators, hosts and noise.
    fn arb_body() -> impl Strategy<Value = Vec<u8>> {
        let fragment = prop_oneof![
            Just(b"http://".to_vec()),
            Just(b"https://".to_vec()),
            Just(b"httpx".to_vec()),
            Just(b"https:/".to_vec()),
            Just(b"http:/".to_vec()),
            Just(b"https".to_vec()),
            Just(b"http".to_vec()),
            Just(b"htt".to_vec()),
            Just(b"h".to_vec()),
            Just(b"s://".to_vec()),
            Just(b"://".to_vec()),
            Just(b"10.0.0.7:8080/a/b.js?q=1".to_vec()),
            Just(b"example.com/".to_vec()),
            Just(b" ".to_vec()),
            Just(b"\"".to_vec()),
            Just(b"<".to_vec()),
            Just(b",".to_vec()),
            prop::collection::vec(any::<u8>(), 0..6),
            // Padding that walks `h`/`http` across every offset of the
            // eight-byte words the search reads.
            (0usize..=8).prop_map(|n| vec![b'.'; n]),
            (0usize..=8).prop_map(|n| [vec![b'.'; n], b"h".to_vec()].concat()),
            (0usize..=8).prop_map(|n| [vec![b'.'; n], b"http://".to_vec()].concat()),
        ];
        // ... and a tail that ends the haystack on an `h`, an `http` or a
        // whole scheme within its last seven bytes (the bytewise remainder).
        let tail = (
            prop_oneof![
                Just(&b"h"[..]),
                Just(&b"http"[..]),
                Just(&b"https://"[..]),
                Just(&b""[..])
            ],
            0usize..7,
        )
            .prop_map(|(word, pad)| [word, &b"......"[..pad]].concat());
        (prop::collection::vec(fragment, 0..40), tail)
            .prop_map(|(parts, tail)| [parts.concat(), tail].concat())
    }

    proptest! {
        #[test]
        fn one_pass_scan_matches_two_scan_reference(body in arb_body()) {
            prop_assert_eq!(find_scheme(&body), find_scheme_two_scans(&body));
            prop_assert_eq!(
                extract_urls(&body),
                extract_urls_with(&body, find_scheme_two_scans)
            );
        }
    }

    #[test]
    fn scan_is_linear_in_url_count() {
        // 50 000 `http://` URLs and not one `https://`: the two-scan
        // search walked the rest of the body once per URL looking for
        // the scheme that never comes (minutes for these 4 MB in a debug
        // build); one pass takes well under a second.
        let mut body = Vec::with_capacity(5 << 20);
        for i in 0..50_000u32 {
            let link = format!(
                "<a href=\"http://10.1.{}.{}/r{i}\">",
                (i >> 8) & 255,
                i & 255
            );
            body.extend_from_slice(link.as_bytes());
            body.extend_from_slice(&[b'x'; 52]);
        }
        assert!(body.len() >= 4_000_000, "body is {} bytes", body.len());
        let started = std::time::Instant::now();
        let urls = extract_urls(&body);
        let took = started.elapsed();
        assert_eq!(urls.len(), 50_000);
        assert_eq!(urls[49_999].target(), "/r49999");
        assert!(took.as_secs_f64() < 2.0, "scan took {took:?}");
    }

    #[test]
    fn extracts_urls_from_html_like_body() {
        let body = br#"<html><img src="http://10.0.0.2:80/a.png"> and
            <script src='https://10.0.0.3:443/lib.js'></script></html>"#;
        let urls = extract_urls(body);
        assert_eq!(urls.len(), 2);
        assert_eq!(urls[0].to_string(), "http://10.0.0.2:80/a.png");
        assert_eq!(urls[1].to_string(), "https://10.0.0.3:443/lib.js");
    }

    #[test]
    fn plain_text_reference_list() {
        let body = b"http://1.1.1.1/x http://1.1.1.1/y\nhttp://2.2.2.2:8080/z?q=1";
        let urls = extract_urls(body);
        assert_eq!(urls.len(), 3);
        assert_eq!(urls[2].port(), 8080);
        assert_eq!(urls[2].target(), "/z?q=1");
    }

    #[test]
    fn malformed_urls_skipped() {
        let body = b"see http:// and http://:80/ but also http://3.3.3.3/ok";
        let urls = extract_urls(body);
        assert_eq!(urls.len(), 1);
        assert_eq!(urls[0].host(), "3.3.3.3");
    }

    #[test]
    fn no_urls_returns_empty() {
        assert!(extract_urls(b"just text, no links").is_empty());
        assert!(extract_urls(b"").is_empty());
    }

    #[test]
    fn scannable_content_types() {
        let html = Response::ok(Bytes::new(), "text/html; charset=utf-8");
        let css = Response::ok(Bytes::new(), "text/css");
        let js = Response::ok(Bytes::new(), "application/javascript");
        let png = Response::ok(Bytes::new(), "image/png");
        assert!(is_scannable(&html));
        assert!(is_scannable(&css));
        assert!(is_scannable(&js));
        assert!(!is_scannable(&png));
        let mut nohdr = Response::ok(Bytes::new(), "text/html");
        nohdr.headers.remove("content-type");
        assert!(!is_scannable(&nohdr));
    }

    #[test]
    fn discovery_bearing_urls_are_told_by_extension_in_any_case() {
        let likely = |s: &str| likely_scannable_url(&Url::parse(s).unwrap());
        assert!(likely("http://h/app.JS?v=2") && likely("http://h/a/style.Css"));
        assert!(likely("http://h/") && likely("http://h/page"));
        assert!(!likely("http://h/img.PNG") && !likely("http://h/font.woff?x=a.js"));
    }

    #[test]
    fn url_at_end_of_body() {
        let urls = extract_urls(b"tail: http://9.9.9.9/last");
        assert_eq!(urls.len(), 1);
        assert_eq!(urls[0].target(), "/last");
    }
}
