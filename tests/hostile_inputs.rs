//! Hostile input for the artefact readers that share the flat-JSONL
//! scanner (`mm_trace::jsonl`): span traces, captures and audit reports.
//! Arbitrary text, and truncations and byte flips of valid files, must
//! come back `Ok` or `Err` — never a panic. Whatever a reader accepts
//! must also go through every renderer the analysers draw it with. And
//! whatever a string holds — quotes, backslashes, control characters,
//! text that looks like a key — what the writers emit reads back exactly.

use mm_audit::{parse_audit_jsonl, Auditor};
use mm_capture::{
    data_to_jsonl, CaptureData, Dir, HttpEvent, HttpPhase, LinkMeta, PacketEvent, PacketEventKind,
    PacketTap, PointKind, TapPoint,
};
use mm_graph::{
    build_pages, critical_path, parse_capture_bytes, render_attribution, render_capture,
    render_diff, validate, waterfall_svg, DEFAULT_BIN_MS,
};
use mm_trace::jsonl::{escape, get_str, get_u64};
use mm_trace::{parse_spans_jsonl, Span, SpanKind, SpanSink, TraceBuffer};
use proptest::prelude::*;

/// Pieces that stress a flat-JSONL scanner: JSON punctuation, escapes,
/// control characters, multi-byte text and key-shaped text.
const FRAGMENTS: [&str; 14] = [
    "\"",
    "\\",
    "\\\"",
    "\\u",
    "\u{0}",
    "\u{1f}",
    "\n",
    "π",
    "{\"ev\":\"span\",",
    "\",\"t_ns\":999,\"",
    "\"res\":4294967301,",
    "\"deliveries_ms\":[1,",
    "\"load\":",
    "}",
];

/// A string built from [`FRAGMENTS`] and printable ASCII.
fn hostile() -> impl Strategy<Value = String> {
    prop::collection::vec((0usize..FRAGMENTS.len() + 1, "[ -~]{0,6}"), 0..12).prop_map(|parts| {
        parts
            .into_iter()
            .map(|(i, ascii)| FRAGMENTS.get(i).map_or(ascii, |f| f.to_string()))
            .collect()
    })
}

/// Feed `bytes` to every reader, and what each accepts to every
/// renderer of it; each must return, not panic.
fn read_all(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(spans) = parse_spans_jsonl(&text) {
        render_spans(&spans);
    }
    let _ = parse_audit_jsonl(&text);
    for input in [bytes, text.as_bytes()] {
        for data in parse_capture_bytes(input).into_iter().flatten() {
            let _ = render_capture(&data, DEFAULT_BIN_MS);
        }
    }
}

/// Everything `mmpath` draws from a span set.
fn render_spans(spans: &[Span]) {
    let pages = build_pages(spans);
    for tree in &pages {
        let _ = validate(tree);
        let _ = render_attribution(tree, &critical_path(tree));
        let _ = waterfall_svg(tree);
    }
    let _ = render_diff(&pages, &pages, "a", "b");
}

/// `text` as written, cut at `cut` and, separately, with the byte at
/// `at` set to `to`.
fn mutate(text: &str, cut: usize, at: usize, to: u8) {
    let bytes = text.as_bytes();
    read_all(bytes);
    read_all(&bytes[..cut % (bytes.len() + 1)]);
    let mut flipped = bytes.to_vec();
    if !flipped.is_empty() {
        let i = at % flipped.len();
        flipped[i] = to;
    }
    read_all(&flipped);
}

fn span(kind: SpanKind, id: u64, parent: u64, (t0_ns, t1_ns): (u64, u64), url: &str) -> Span {
    Span {
        load: 2,
        id,
        parent,
        kind,
        t0_ns,
        t1_ns,
        res: 4,
        conn: 0x0a00_0001_0d05,
        url: url.to_string(),
        detail: "mux".to_string(),
    }
}

/// One page load whose resource has a hostile URL, two overlapping
/// transfers and a reassembly wait, at any times.
fn page(url: &str, t: [u64; 4]) -> Vec<Span> {
    vec![
        span(SpanKind::Page, 1, 0, (0, t[0]), "http://10.0.0.1/"),
        span(SpanKind::Resource, 2, 1, (0, t[0]), url),
        span(SpanKind::Transfer, 3, 2, (0, t[1]), url),
        span(SpanKind::Transfer, 4, 2, (0, t[2]), url),
        span(SpanKind::HolWait, 5, 0, (t[1], t[3]), ""),
    ]
}

fn point() -> TapPoint {
    TapPoint {
        kind: PointKind::Link,
        index: 1,
        dir: Dir::Down,
    }
}

fn packet(pkt_id: u64, size_bytes: u32) -> PacketEvent {
    PacketEvent {
        t_ns: 1_500_000,
        kind: PacketEventKind::Dequeue,
        point: point(),
        pkt_id,
        size_bytes,
        sojourn_ns: 320_000,
        flow: 7,
    }
}

/// A capture of one dequeue and one delivery at `deliver_ns`.
fn capture(url: String, pkt_id: u64, deliver_ns: u64) -> CaptureData {
    CaptureData {
        load: 3,
        links: vec![LinkMeta {
            point: point(),
            deliveries_ms: vec![0, 1, 1, 3].into(),
            period_ms: 4,
            mtu_bytes: 1500,
        }],
        packets: vec![
            packet(pkt_id, 1460),
            PacketEvent {
                t_ns: deliver_ns,
                kind: PacketEventKind::Deliver,
                ..packet(pkt_id, 1460)
            },
        ],
        https: vec![HttpEvent {
            t_ns: 9,
            phase: HttpPhase::Done,
            resource: 0,
            url,
            status: 200,
            bytes: 1234,
        }],
        dropped: 0,
    }
}

/// An audit report with packet, digest and summary lines.
fn audit(pkt_id: u64) -> String {
    let auditor = Auditor::for_load(0);
    auditor.on_packet(&PacketEvent {
        kind: PacketEventKind::Enqueue,
        ..packet(pkt_id, 1500)
    });
    auditor.on_packet(&packet(pkt_id, 1500));
    auditor.finish().to_jsonl()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_is_ok_or_err(text in hostile()) {
        read_all(text.as_bytes());
    }

    #[test]
    fn broken_span_lines_are_ok_or_err(
        url in hostile(),
        t in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        cut in any::<usize>(),
        at in any::<usize>(),
        to in any::<u8>(),
    ) {
        let buf = TraceBuffer::for_load(2);
        for s in page(&url, [t.0, t.1, t.2, t.3]) {
            buf.record(s);
        }
        mutate(&buf.to_jsonl(), cut, at, to);
    }

    #[test]
    fn broken_capture_lines_are_ok_or_err(
        url in hostile(),
        deliver_ns in prop_oneof![0u64..60_000_000_000, any::<u64>()],
        cut in any::<usize>(),
        at in any::<usize>(),
        to in any::<u8>(),
    ) {
        mutate(&data_to_jsonl(&capture(url, 42, deliver_ns)), cut, at, to);
    }

    #[test]
    fn broken_audit_lines_are_ok_or_err(
        pkt_id in any::<u64>(),
        cut in any::<usize>(),
        at in any::<usize>(),
        to in any::<u8>(),
    ) {
        mutate(&audit(pkt_id), cut, at, to);
    }

    #[test]
    fn the_scanner_reads_back_what_escape_writes(s in hostile(), n in any::<u64>()) {
        let line = format!("{{\"s\":\"{}\",\"n\":{n}}}", escape(&s));
        prop_assert_eq!(get_str(&line, "s"), Ok(s));
        prop_assert_eq!(get_u64(&line, "n"), Ok(n));
    }

    #[test]
    fn span_and_capture_writers_round_trip_any_string(
        url in hostile(),
        detail in hostile(),
        pkt_id in any::<u64>(),
    ) {
        let buf = TraceBuffer::for_load(2);
        let written = Span { detail, ..span(SpanKind::Resource, 1, 0, (10, 30), &url) };
        buf.record(written.clone());
        prop_assert_eq!(parse_spans_jsonl(&buf.to_jsonl()), Ok(vec![written]));
        let data = capture(url, pkt_id, 2_000_000);
        let parsed = parse_capture_bytes(data_to_jsonl(&data).as_bytes());
        prop_assert_eq!(parsed, Ok(vec![data]));
    }
}
