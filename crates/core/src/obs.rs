//! Observability glue for the harness layers: registry export helpers
//! for page-load and fleet results, and the process-global channel
//! table behind the experiment binaries' `--trace-out`, `--capture-out`,
//! `--span-out` and `--audit[-out]` flags.
//!
//! The channels are process-global because experiment bodies shard
//! site loops across threads (`bench::parallel_map`) and every world is
//! built on its own thread: `crate::world::World` gives each
//! instrumented world a private single-threaded recorder
//! ([`mm_metrics::FlowTracer`], [`mm_capture::Capture`],
//! [`mm_trace::TraceBuffer`], [`mm_audit::Auditor`]) and drains its JSONL
//! into the shared buffer when the world ends. All four artefacts share
//! one `ObsChannel` shape — an enable flag, a CAS-claimed budget
//! handing out process-unique ids, and the merge buffer — in one table
//! keyed by [`Artefact`]. Recorders only observe; simulation results
//! (and therefore BENCH outputs) are byte-identical with them on or off.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use mm_metrics::{Registry, LATENCY_BUCKETS_S};
use mm_trace::{Span, SpanKind, SpanSink, NO_RESOURCE};

/// One process-global observability channel: an on/off flag, a budget
/// of worlds still to record (claimed by CAS so threaded site loops
/// never over-record), a process-unique id allocator, and the buffer
/// finished worlds merge their JSONL into.
struct ObsChannel {
    enabled: AtomicBool,
    budget: AtomicU64,
    next_id: AtomicU64,
    buffer: Mutex<String>,
}

impl ObsChannel {
    const fn new() -> ObsChannel {
        ObsChannel {
            enabled: AtomicBool::new(false),
            budget: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            buffer: Mutex::new(String::new()),
        }
    }
}

static CHANNELS: [ObsChannel; 4] = [const { ObsChannel::new() }; 4];

/// What a run can leave behind besides its results — the key of the
/// channel table. One *world* spends one claim per artefact, however
/// many users it holds: a 64-user fleet is one capture slot and one id,
/// not 64, and the recorders' own bounds ([`mm_capture::Capture`]'s
/// event caps, [`mm_trace::TraceBuffer`]'s span cap) count what
/// overflows them as they do for a single load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artefact {
    /// Per-flow TCP time series (`--trace-out`).
    Trace,
    /// Per-packet and per-request events (`--capture-out`).
    Capture,
    /// Causal spans (`--span-out`).
    Span,
    /// Conformance reports and equivalence digests (`--audit[-out]`).
    Audit,
}

impl Artefact {
    fn channel(self) -> &'static ObsChannel {
        &CHANNELS[self as usize]
    }

    /// How many worlds an enabled channel records. Flow traces are a few
    /// samples per ack and auditors keep bounded ledgers rather than
    /// logs, so neither is rationed. Packet captures are far denser
    /// (every enqueue/dequeue/deliver at every shell): eight worlds keep
    /// a many-hundred-load sweep from writing gigabytes while still
    /// giving `mmgraph` several complete loads to draw. Spans are
    /// per-resource (a few hundred per load), so 64 worlds is affordable
    /// — enough for `mmpath --diff` to pair both arms of a protocol
    /// comparison across several sites.
    pub(crate) fn budget(self) -> u64 {
        match self {
            Artefact::Trace | Artefact::Audit => u64::MAX,
            Artefact::Capture => 8,
            Artefact::Span => 64,
        }
    }

    /// Turn the channel on: the next `Artefact::budget` worlds built
    /// without an explicit handle for this artefact on their spec get a
    /// private recorder whose output accumulates for [`Artefact::take`],
    /// until that take.
    pub fn enable(self) {
        let ch = self.channel();
        ch.budget.store(self.budget(), Ordering::SeqCst);
        ch.enabled.store(true, Ordering::SeqCst);
    }

    /// Claim a recording slot for one world, returning its
    /// process-unique id, or `None` when the channel is off or the
    /// budget is spent.
    pub(crate) fn claim(self) -> Option<u64> {
        let ch = self.channel();
        if !ch.enabled.load(Ordering::SeqCst) {
            return None;
        }
        let mut budget = ch.budget.load(Ordering::SeqCst);
        loop {
            if budget == 0 {
                return None;
            }
            match ch
                .budget
                .compare_exchange(budget, budget - 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return Some(ch.next_id.fetch_add(1, Ordering::SeqCst)),
                Err(seen) => budget = seen,
            }
        }
    }

    /// Append one finished world's JSONL to the channel's buffer.
    pub(crate) fn append(self, jsonl: &str) {
        if !jsonl.is_empty() {
            let mut buffer = self.channel().buffer.lock().expect("obs buffer poisoned");
            buffer.push_str(jsonl);
        }
    }

    /// End the recording and take everything merged so far (the
    /// `--*-out` writers): the channel is off, with no budget left,
    /// until the next [`Artefact::enable`]. Ids keep counting, so a
    /// later recording never reuses one.
    pub fn take(self) -> String {
        let ch = self.channel();
        ch.enabled.store(false, Ordering::SeqCst);
        ch.budget.store(0, Ordering::SeqCst);
        std::mem::take(&mut *ch.buffer.lock().expect("obs buffer poisoned"))
    }
}

/// A [`SpanSink`] that turns per-resource phase spans into labeled
/// duration histograms in a [`Registry`] — the soak harness's view of
/// the span layer: no buffering, no ids, just which phase's tail grows
/// as the offered load approaches the knee. Spans not attached to a
/// browser resource (the TCP layer's own `ConnSetup`, the servers'
/// `ServerThink`) are not resource phases and are ignored, so the
/// histograms read the same whether or not a recorder or auditor has
/// the other layers emitting into the same fan-out. Histogram names follow
/// `<prefix>_phase_<kind>_seconds` so the `_seconds` suffix picks up
/// the latency bucket ladder downstream.
pub(crate) struct PhaseSink {
    registry: Registry,
    prefix: &'static str,
}

impl PhaseSink {
    pub(crate) fn new(registry: Registry, prefix: &'static str) -> PhaseSink {
        PhaseSink { registry, prefix }
    }

    fn name_for(&self, span: &Span) -> Option<String> {
        if span.res == NO_RESOURCE || !span.kind.is_phase() || span.kind == SpanKind::Failed {
            return None;
        }
        Some(format!(
            "{}_phase_{}_seconds",
            self.prefix,
            span.kind.as_str()
        ))
    }
}

impl SpanSink for PhaseSink {
    fn record(&self, span: Span) {
        let Some(name) = self.name_for(&span) else {
            return;
        };
        self.registry
            .histogram(
                &name,
                "Per-resource phase duration from the span layer.",
                &LATENCY_BUCKETS_S,
            )
            .observe(span.dur_ns() as f64 / 1e9);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One marker line through one channel's buffer and out again.
    /// The flags are process-global, so unit tests leave every channel
    /// off (enabling one here would leak recording work into every
    /// concurrently running harness test; `tests/audit_every_world.rs`
    /// turns them on in a process of its own) and only assert on their
    /// own marker surviving the round trip.
    fn roundtrip(artefact: Artefact, marker: &str) {
        assert!(artefact.claim().is_none(), "{artefact:?} must start off");
        artefact.append(&format!("{{\"load\":{marker}}}\n"));
        assert!(artefact.take().contains(marker));
        assert!(!artefact.take().contains(marker));
    }

    #[test]
    fn trace_buffer_accumulates_and_drains() {
        roundtrip(Artefact::Trace, "999999");
    }

    #[test]
    fn capture_claim_requires_enable_and_buffer_roundtrips() {
        roundtrip(Artefact::Capture, "123456");
    }

    #[test]
    fn span_claim_requires_enable_and_buffer_roundtrips() {
        roundtrip(Artefact::Span, "654321");
        roundtrip(Artefact::Audit, "424242");
    }

    #[test]
    fn phase_sink_observes_phase_kinds_only() {
        let registry = Registry::new();
        let sink = PhaseSink::new(registry.clone(), "soak");
        let span = |kind| Span {
            load: 0,
            id: 0,
            parent: 0,
            kind,
            t0_ns: 0,
            t1_ns: 250_000_000,
            res: 0,
            conn: 0,
            url: String::new(),
            detail: String::new(),
        };
        sink.record(span(SpanKind::Queued));
        sink.record(span(SpanKind::Transfer));
        sink.record(span(SpanKind::Page)); // not a phase: ignored
        sink.record(span(SpanKind::Conn)); // not a phase: ignored
        sink.record(Span {
            res: NO_RESOURCE, // the TCP layer's handshake, not a resource's
            ..span(SpanKind::ConnSetup)
        });
        let text = registry.encode();
        assert!(text.contains("soak_phase_queued_seconds_count 1"));
        assert!(text.contains("soak_phase_transfer_seconds_count 1"));
        assert!(!text.contains("soak_phase_page"));
        assert!(!text.contains("soak_phase_conn"));
    }
}
