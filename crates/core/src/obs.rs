//! Observability glue for the harness layers: registry export helpers
//! for page-load and fleet results, and the [`Recording`] behind the
//! experiment binaries' `--trace-out`, `--capture-out`, `--span-out`
//! and `--audit[-out]` flags.
//!
//! A recording is a value, filled only by the worlds whose spec names
//! it (`LoadSpec::recording`, `SoakSpec::recording`), so two filled at
//! once stay apart. Site loops shard across threads and every world is
//! built on its own: `crate::world::World` gives each recorded world a
//! private single-threaded recorder ([`mm_metrics::FlowTracer`],
//! [`mm_capture::Capture`], [`mm_trace::TraceBuffer`],
//! [`mm_audit::Auditor`]) and appends its JSONL to the recording when the
//! world ends. Recorders only observe; simulation results (and therefore
//! BENCH outputs) are byte-identical with them on or off.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mm_metrics::{Registry, LATENCY_BUCKETS_S};
use mm_trace::{Span, SpanKind, SpanSink, NO_RESOURCE};

/// What a run can leave behind besides its results — the key of a
/// [`Recording`]'s channels. One *world* spends one claim per artefact,
/// however many users it holds: a 64-user fleet is one capture slot and
/// one id, not 64, and the recorders' own bounds
/// ([`mm_capture::Capture`]'s event caps, [`mm_trace::TraceBuffer`]'s
/// span cap) count what overflows them as they do for a single load.
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
    /// How many worlds a recording records this artefact for. Flow
    /// traces are a few samples per ack and auditors keep bounded
    /// ledgers rather than logs, so neither is rationed. Packet captures
    /// are far denser (every enqueue/dequeue/deliver at every shell):
    /// eight worlds keep a many-hundred-load sweep from writing gigabytes
    /// while still giving `mmgraph` several complete loads to draw. Spans
    /// are per-resource (a few hundred per load), so 64 worlds is
    /// affordable — enough for `mmpath --diff` to pair both arms of a
    /// protocol comparison across several sites.
    pub(crate) fn budget(self) -> u64 {
        match self {
            Artefact::Trace | Artefact::Audit => u64::MAX,
            Artefact::Capture => 8,
            Artefact::Span => 64,
        }
    }
}

/// One artefact's share of a [`Recording`]: worlds still to record (0
/// is off; claimed by CAS, so threaded site loops never over-record),
/// the next id, and the JSONL finished worlds appended.
#[derive(Default)]
struct Channel {
    budget: AtomicU64,
    next_id: AtomicU64,
    jsonl: Mutex<String>,
}

/// One run's recording: the artefacts it holds, each recorded by the
/// first `Artefact::budget` worlds whose spec names this recording and
/// carries no explicit handle for it.
pub struct Recording {
    channels: [Channel; 4],
}

impl Recording {
    /// A recording that holds `artefacts`, and only those.
    pub fn of(artefacts: &[Artefact]) -> Recording {
        let recording = Recording {
            channels: Default::default(),
        };
        for &artefact in artefacts {
            recording.channels[artefact as usize]
                .budget
                .store(artefact.budget(), Ordering::SeqCst);
        }
        recording
    }

    /// Claim a slot for one world, returning its id (unique within this
    /// recording), or `None` when the recording does not hold
    /// `artefact` or its budget is spent.
    pub(crate) fn claim(&self, artefact: Artefact) -> Option<u64> {
        let ch = &self.channels[artefact as usize];
        ch.budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
            .ok()?;
        Some(ch.next_id.fetch_add(1, Ordering::SeqCst))
    }

    /// Append one finished world's JSONL to `artefact`'s buffer.
    pub(crate) fn append(&self, artefact: Artefact, jsonl: &str) {
        let buffer = &self.channels[artefact as usize].jsonl;
        buffer.lock().expect("obs buffer poisoned").push_str(jsonl);
    }

    /// End the recording: everything appended, per [`Artefact`] in
    /// declaration order.
    pub fn into_jsonl(self) -> [String; 4] {
        self.channels
            .map(|ch| ch.jsonl.into_inner().expect("obs buffer poisoned"))
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

    /// One artefact through a recording: a recording that does not hold
    /// it claims nothing, one that does hands out ids `0, 1, ..`, and
    /// what worlds append accumulates in order and comes out of
    /// `into_jsonl` under that artefact alone.
    fn roundtrip(artefact: Artefact, marker: &str) {
        assert!(
            Recording::of(&[]).claim(artefact).is_none(),
            "{artefact:?} must start off"
        );
        let recording = Recording::of(&[artefact]);
        assert_eq!(recording.claim(artefact), Some(0));
        assert_eq!(recording.claim(artefact), Some(1));
        let line = format!("{{\"load\":{marker}}}\n");
        recording.append(artefact, &line);
        recording.append(artefact, &line);
        let jsonl = recording.into_jsonl();
        for (i, buffer) in jsonl.iter().enumerate() {
            if i == artefact as usize {
                assert_eq!(*buffer, line.repeat(2), "{artefact:?}");
            } else {
                assert!(buffer.is_empty(), "{artefact:?} leaked into channel {i}");
            }
        }
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

    /// Claims race on a capture-only recording: of 32, exactly the
    /// budget's eight succeed, with ids `0..8`, each once. An artefact
    /// the recording does not hold claims nothing, and what worlds
    /// append comes back out.
    #[test]
    fn claims_share_one_budget_and_hand_out_each_id_once() {
        let recording = Recording::of(&[Artefact::Capture]);
        let mut ids: Vec<u64> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        (0..8)
                            .filter_map(|_| recording.claim(Artefact::Capture))
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().unwrap())
                .collect()
        });
        ids.sort_unstable();
        assert_eq!(ids, (0..8).collect::<Vec<u64>>());
        for artefact in [Artefact::Trace, Artefact::Span, Artefact::Audit] {
            assert_eq!(recording.claim(artefact), None, "{artefact:?}");
        }
        recording.append(Artefact::Capture, "{\"load\":0}\n");
        recording.append(Artefact::Audit, "");
        recording.append(Artefact::Capture, "{\"load\":1}\n");
        let [trace, capture, span, audit] = recording.into_jsonl();
        assert_eq!(capture, "{\"load\":0}\n{\"load\":1}\n");
        assert!(trace.is_empty() && span.is_empty() && audit.is_empty());
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
