//! Causal spans: typed, parented time intervals over a page load.
//!
//! PRs 7–8 gave the stack counters (`mm-metrics`) and per-packet
//! captures (`mm-capture`) — signals that say *that* a PLT moved, not
//! *which milliseconds* moved. This module is the third observer layer:
//! every component that makes a resource wait (the browser's request
//! scheduler, the TCP handshake and reassembly queue, the mux stream
//! scheduler, the replay server's think time) emits a [`Span`] naming
//! the wait, bounded in time, and linked to its causal parent. The
//! `mmpath` analyzer (`crates/mm-graph`) rebuilds the tree and walks the
//! chain of blocking spans whose durations sum *exactly* to the page's
//! PLT — WProf-style critical-path attribution over Dapper-style spans.
//!
//! The integration contract matches `MetricsSink`/`PacketTap`: a
//! [`SpanSink`] trait with no-op defaults, an `Option<SpanHandle>` on
//! each component's config defaulting to `None`, and the rule that
//! sinks only *observe* — a recording sink never schedules simulator
//! events, so every simulation is byte-identical with the sink on or
//! off (the harness tests pin this).
//!
//! Span identity: ids are allocated by the sink ([`SpanSink::next_id`],
//! starting at 1) so emitters can hand a parent id to children before
//! the parent interval closes; id 0 means "no parent". Spans may be
//! recorded in any order and the per-resource phase spans of one
//! resource tile `[queued, parse_end]` contiguously — the property the
//! critical-path walk relies on.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use crate::jsonl::{escape, get_str, get_u32, get_u64};

/// `res` value for spans not attached to a browser resource.
pub const NO_RESOURCE: u32 = u32::MAX;

/// What a span's interval measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// Whole page load: navigation start → last parse completion (PLT).
    Page,
    /// One resource: queued → parse completion. Parent is the resource
    /// whose parse discovered it (the root resource's parent is the
    /// page span).
    Resource,
    /// Waiting in the browser's request scheduler for a connection
    /// slot (http1 pool) or before submission (mux).
    Queued,
    /// Waiting on the transport handshake.
    ConnSetup,
    /// Waiting in the mux client's stream scheduler for a concurrent-
    /// stream slot (the application-level head-of-line wait).
    MuxWait,
    /// Request serialized and on the wire → first response byte. The
    /// analyzer splits a matched server-think window out of this.
    RequestTx,
    /// Replay server's service time: request parsed → response written.
    ServerThink,
    /// First response byte → response complete.
    Transfer,
    /// Response complete → parse starts (waiting on the single CPU).
    RenderQueue,
    /// The parse/execute slice itself.
    Parse,
    /// A resource that failed; closes the phase chain at failure time.
    Failed,
    /// Connection lifetime: connect started → teardown (initiator side).
    Conn,
    /// TCP reassembly-gap wait on the receive side: bytes sat in the
    /// out-of-order queue waiting for a retransmission to fill a hole.
    /// This is the transport-level head-of-line signal — absent on a
    /// clean in-order link by construction, present under loss.
    HolWait,
}

impl SpanKind {
    /// Stable wire name (JSONL `kind` field).
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Page => "page",
            SpanKind::Resource => "resource",
            SpanKind::Queued => "queued",
            SpanKind::ConnSetup => "conn_setup",
            SpanKind::MuxWait => "mux_wait",
            SpanKind::RequestTx => "request_tx",
            SpanKind::ServerThink => "server_think",
            SpanKind::Transfer => "transfer",
            SpanKind::RenderQueue => "render_queue",
            SpanKind::Parse => "parse",
            SpanKind::Failed => "failed",
            SpanKind::Conn => "conn",
            SpanKind::HolWait => "hol_wait",
        }
    }

    /// Inverse of [`SpanKind::as_str`]. An inherent method (not
    /// `FromStr`) so call sites get `Option` without an error type.
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn from_str(s: &str) -> Option<SpanKind> {
        Some(match s {
            "page" => SpanKind::Page,
            "resource" => SpanKind::Resource,
            "queued" => SpanKind::Queued,
            "conn_setup" => SpanKind::ConnSetup,
            "mux_wait" => SpanKind::MuxWait,
            "request_tx" => SpanKind::RequestTx,
            "server_think" => SpanKind::ServerThink,
            "transfer" => SpanKind::Transfer,
            "render_queue" => SpanKind::RenderQueue,
            "parse" => SpanKind::Parse,
            "failed" => SpanKind::Failed,
            "conn" => SpanKind::Conn,
            "hol_wait" => SpanKind::HolWait,
            _ => return None,
        })
    }

    /// True for the per-resource phase kinds that tile a resource span.
    pub fn is_phase(self) -> bool {
        matches!(
            self,
            SpanKind::Queued
                | SpanKind::ConnSetup
                | SpanKind::MuxWait
                | SpanKind::RequestTx
                | SpanKind::ServerThink
                | SpanKind::Transfer
                | SpanKind::RenderQueue
                | SpanKind::Parse
                | SpanKind::Failed
        )
    }
}

/// A closed time interval attributed to one causal wait.
///
/// `parent == 0` means no parent (roots, and spans joined analyzer-side
/// by `conn`/`url` instead of by id). `res == NO_RESOURCE` marks spans
/// not attached to a browser resource. Times are simulation nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Page-load id (one simulated world per load).
    pub load: u64,
    /// Sink-allocated id, unique within the load; 0 only from no-op sinks.
    pub id: u64,
    /// Causal parent's span id; 0 for none.
    pub parent: u64,
    pub kind: SpanKind,
    /// Interval start, simulation nanoseconds.
    pub t0_ns: u64,
    /// Interval end, simulation nanoseconds (`t1_ns >= t0_ns`).
    pub t1_ns: u64,
    /// Browser resource index, or [`NO_RESOURCE`].
    pub res: u32,
    /// Connection id (initiator's local `ip << 16 | port`); 0 for none.
    pub conn: u64,
    /// Resource URL (resource/server spans); empty when inapplicable.
    pub url: String,
    /// Free-form qualifier: the experiment arm on page spans
    /// (`"http1"`/`"mux"`), protocol details elsewhere.
    pub detail: String,
}

impl Span {
    /// Interval length in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.t1_ns.saturating_sub(self.t0_ns)
    }
}

/// Receiver of spans. All methods default to no-ops so instrumented
/// components pay one branch when recording is off; implementations
/// must only observe (never schedule simulator work).
pub trait SpanSink {
    /// Allocate a fresh span id (> 0). The no-op default returns 0,
    /// which recording sinks never allocate.
    fn next_id(&self) -> u64 {
        0
    }
    /// Record a finished span.
    fn record(&self, _span: Span) {}
}

/// Shared handle to a [`SpanSink`], cheap to clone into configs.
///
/// `Debug` is opaque so configs that derive `Debug` stay printable
/// without constraining sink implementations.
#[derive(Clone)]
pub struct SpanHandle(Rc<dyn SpanSink>);

impl SpanHandle {
    pub fn new(sink: Rc<dyn SpanSink>) -> SpanHandle {
        SpanHandle(sink)
    }
}

impl Deref for SpanHandle {
    type Target = dyn SpanSink;
    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl fmt::Debug for SpanHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SpanHandle")
    }
}

/// A bounded in-memory [`SpanSink`] for one page load.
///
/// Bounded so a runaway emitter cannot exhaust memory in long soaks;
/// overflow increments [`TraceBuffer::dropped`] rather than evicting
/// (the earliest spans — page, root resource — are the ones the
/// critical path needs).
pub struct TraceBuffer {
    load: u64,
    max_spans: usize,
    next: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    dropped: Cell<u64>,
}

impl TraceBuffer {
    /// Default span cap per load; generous (a heavy page emits a few
    /// hundred spans) while bounding soak memory.
    pub(crate) const DEFAULT_MAX_SPANS: usize = 64 * 1024;

    pub fn for_load(load: u64) -> Rc<TraceBuffer> {
        TraceBuffer::with_capacity(load, TraceBuffer::DEFAULT_MAX_SPANS)
    }

    pub(crate) fn with_capacity(load: u64, max_spans: usize) -> Rc<TraceBuffer> {
        Rc::new(TraceBuffer {
            load,
            max_spans,
            next: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            dropped: Cell::new(0),
        })
    }

    /// A [`SpanHandle`] feeding this buffer.
    pub fn handle(self: &Rc<Self>) -> SpanHandle {
        SpanHandle(self.clone() as Rc<dyn SpanSink>)
    }

    /// Snapshot of the recorded spans, in record order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Spans rejected by the bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Serialize the recorded spans as JSONL.
    pub fn to_jsonl(&self) -> String {
        spans_to_jsonl(&self.spans.borrow())
    }
}

impl SpanSink for TraceBuffer {
    fn next_id(&self) -> u64 {
        let id = self.next.get() + 1;
        self.next.set(id);
        id
    }

    fn record(&self, mut span: Span) {
        let mut spans = self.spans.borrow_mut();
        if spans.len() >= self.max_spans {
            self.dropped.set(self.dropped.get() + 1);
            return;
        }
        // Stamp the load here so emitters need not thread it through.
        span.load = self.load;
        spans.push(span);
    }
}

/// A [`SpanSink`] that forwards every span to several child sinks.
///
/// Allocates its own monotonic ids (children may disagree on theirs),
/// so emitters see one consistent id space; each child receives the
/// span with the fanout's id. Lets a harness feed both a recording
/// [`TraceBuffer`] and an online auditor from one instrumented world.
pub struct FanoutSpan {
    sinks: Vec<SpanHandle>,
    next: Cell<u64>,
}

impl FanoutSpan {
    pub fn new(sinks: Vec<SpanHandle>) -> Rc<FanoutSpan> {
        Rc::new(FanoutSpan {
            sinks,
            next: Cell::new(0),
        })
    }

    /// A [`SpanHandle`] feeding this fanout.
    pub fn handle(self: &Rc<Self>) -> SpanHandle {
        SpanHandle(self.clone() as Rc<dyn SpanSink>)
    }
}

impl SpanSink for FanoutSpan {
    fn next_id(&self) -> u64 {
        let id = self.next.get() + 1;
        self.next.set(id);
        id
    }

    fn record(&self, span: Span) {
        // The last member takes the span itself: each copy costs its
        // `url` and `detail` strings.
        if let Some((last, rest)) = self.sinks.split_last() {
            for sink in rest {
                sink.record(span.clone());
            }
            last.record(span);
        }
    }
}

/// One span as a flat JSONL object (the shape `mmpath` parses).
pub(crate) fn span_to_jsonl_line(s: &Span) -> String {
    format!(
        "{{\"ev\":\"span\",\"load\":{},\"id\":{},\"parent\":{},\"kind\":\"{}\",\
         \"t0_ns\":{},\"t1_ns\":{},\"res\":{},\"conn\":{},\"url\":\"{}\",\"detail\":\"{}\"}}\n",
        s.load,
        s.id,
        s.parent,
        s.kind.as_str(),
        s.t0_ns,
        s.t1_ns,
        s.res,
        s.conn,
        escape(&s.url),
        escape(&s.detail),
    )
}

/// Serialize spans as JSONL, one object per line.
pub(crate) fn spans_to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&span_to_jsonl_line(s));
    }
    out
}

/// Parse one JSONL span line.
pub(crate) fn parse_span_line(line: &str) -> Result<Span, String> {
    let ev = get_str(line, "ev")?;
    if ev != "span" {
        return Err(format!("unknown event type {ev:?}"));
    }
    let kind_s = get_str(line, "kind")?;
    let kind =
        SpanKind::from_str(&kind_s).ok_or_else(|| format!("unknown span kind {kind_s:?}"))?;
    Ok(Span {
        load: get_u64(line, "load")?,
        id: get_u64(line, "id")?,
        parent: get_u64(line, "parent")?,
        kind,
        t0_ns: get_u64(line, "t0_ns")?,
        t1_ns: get_u64(line, "t1_ns")?,
        res: get_u32(line, "res")?,
        conn: get_u64(line, "conn")?,
        url: get_str(line, "url")?,
        detail: get_str(line, "detail")?,
    })
}

/// Parse a JSONL span file (blank lines skipped, errors carry line
/// numbers). Spans are returned in file order; callers group by `load`.
pub fn parse_spans_jsonl(text: &str) -> Result<Vec<Span>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(parse_span_line(line).map_err(|e| format!("line {}: {e}", idx + 1))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample(load: u64, id: u64, kind: SpanKind) -> Span {
        Span {
            load,
            id,
            parent: id.saturating_sub(1),
            kind,
            t0_ns: 10,
            t1_ns: 30,
            res: 2,
            conn: 0x0a00_0001_0d05,
            url: "http://10.0.0.1/a\"b\\c".to_string(),
            detail: "http1".to_string(),
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            SpanKind::Page,
            SpanKind::Resource,
            SpanKind::Queued,
            SpanKind::ConnSetup,
            SpanKind::MuxWait,
            SpanKind::RequestTx,
            SpanKind::ServerThink,
            SpanKind::Transfer,
            SpanKind::RenderQueue,
            SpanKind::Parse,
            SpanKind::Failed,
            SpanKind::Conn,
            SpanKind::HolWait,
        ] {
            assert_eq!(SpanKind::from_str(kind.as_str()), Some(kind));
        }
        assert_eq!(SpanKind::from_str("nope"), None);
    }

    #[test]
    fn jsonl_round_trip_exact() {
        let spans = vec![
            sample(3, 1, SpanKind::Page),
            sample(3, 2, SpanKind::Resource),
            sample(3, 3, SpanKind::HolWait),
        ];
        let parsed = parse_spans_jsonl(&spans_to_jsonl(&spans)).unwrap();
        assert_eq!(parsed, spans);
    }

    #[test]
    fn buffer_allocates_ids_and_stamps_load() {
        let buf = TraceBuffer::for_load(7);
        let h = buf.handle();
        let a = h.next_id();
        let b = h.next_id();
        assert_eq!((a, b), (1, 2));
        h.record(Span {
            load: 0, // overwritten by the buffer
            ..sample(0, a, SpanKind::Queued)
        });
        let spans = buf.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].load, 7);
        assert_eq!(buf.dropped(), 0);
    }

    #[test]
    fn buffer_bound_drops_not_evicts() {
        let buf = TraceBuffer::with_capacity(1, 2);
        let h = buf.handle();
        for _ in 0..5 {
            let id = h.next_id();
            h.record(sample(1, id, SpanKind::Queued));
        }
        assert_eq!(buf.spans().len(), 2);
        assert_eq!(buf.dropped(), 3);
        // The *first* spans survive.
        assert_eq!(buf.spans()[0].id, 1);
    }

    #[test]
    fn noop_sink_defaults() {
        struct Nop;
        impl SpanSink for Nop {}
        let h = SpanHandle::new(Rc::new(Nop));
        assert_eq!(h.next_id(), 0);
        h.record(sample(0, 0, SpanKind::Page));
        assert_eq!(format!("{h:?}"), "SpanHandle");
    }

    #[test]
    fn a_resource_index_past_32_bits_is_an_error() {
        let line = spans_to_jsonl(&[sample(1, 1, SpanKind::Queued)])
            .replace("\"res\":2,", "\"res\":4294967301,");
        let err = parse_spans_jsonl(&line).unwrap_err();
        assert!(err.contains("\"res\""), "{err}");
    }

    #[test]
    fn bad_lines_carry_line_numbers() {
        let err = parse_spans_jsonl("{\"ev\":\"span\",\"load\":1}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let err = parse_spans_jsonl("{\"ev\":\"pkt\",\"load\":1}").unwrap_err();
        assert!(err.contains("unknown event type"), "{err}");
    }

    proptest! {
        #[test]
        fn jsonl_round_trip_any_span(
            load in 0u64..1_000,
            id in 0u64..10_000,
            parent in 0u64..10_000,
            kind_idx in 0usize..13,
            t0 in 0u64..u64::MAX / 2,
            dur in 0u64..u64::MAX / 2,
            res in prop_oneof![Just(NO_RESOURCE), 0u32..512u32],
            conn in 0u64..u64::MAX,
            url in "[ -~]{0,40}",
            detail in "[ -~]{0,16}",
        ) {
            let kinds = [
                SpanKind::Page, SpanKind::Resource, SpanKind::Queued,
                SpanKind::ConnSetup, SpanKind::MuxWait, SpanKind::RequestTx,
                SpanKind::ServerThink, SpanKind::Transfer, SpanKind::RenderQueue,
                SpanKind::Parse, SpanKind::Failed, SpanKind::Conn, SpanKind::HolWait,
            ];
            let span = Span {
                load, id, parent,
                kind: kinds[kind_idx],
                t0_ns: t0,
                t1_ns: t0 + dur,
                res, conn, url, detail,
            };
            let parsed = parse_spans_jsonl(&spans_to_jsonl(std::slice::from_ref(&span))).unwrap();
            prop_assert_eq!(parsed, vec![span]);
        }
    }
}
