//! Per-packet observability: the [`PacketTap`] hook and its standard
//! bounded capture writer.
//!
//! The original mahimahi's signature diagnostic is the per-packet log
//! behind `mm-delay-graph`/`mm-throughput-graph`. This crate is that
//! log's home in the reimplementation: instrumented shells call a
//! [`PacketTap`] with one event per packet milestone (enqueue, dequeue,
//! drop, delivery), the browser/replay boundary reports HTTP
//! request/response milestones (the auditor matches their byte counts),
//! and the standard [`Capture`] sink stores them in a bounded buffer that
//! serializes to JSONL for `mmgraph`'s throughput and delay graphs.
//!
//! The hook mirrors the `MetricsSink` pattern from `mm-metrics`: every
//! trait method defaults to a no-op, instrumented code holds
//! `Option<TapHandle>` defaulting to `None`, and taps must only
//! observe — a tap that scheduled events or mutated packets would break
//! the byte-identical-when-off (and when-on) guarantee.

mod capture;

pub use capture::{data_to_jsonl, Capture, CaptureData};

use std::fmt;
use std::rc::Rc;

/// Packet direction through a shell: `Up` is client → server (egress
/// from the innermost namespace), `Down` is server → client.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dir {
    Up,
    Down,
}

impl Dir {
    /// Short label used in JSONL and artifact file names.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Dir::Up => "up",
            Dir::Down => "down",
        }
    }

    /// The variant whose token `as_str` writes. An inherent method (not
    /// `FromStr`) so call sites get `Option` without an error type.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<Dir> {
        Some(match s {
            "up" => Dir::Up,
            "down" => Dir::Down,
            _ => return None,
        })
    }
}

/// Which kind of shell layer a tap point sits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PointKind {
    /// A trace-driven `TraceLink` (and the qdisc in front of it).
    Link,
    /// A fixed-delay `DelayLink`.
    Delay,
    /// A Bernoulli `LossLink`.
    Loss,
}

impl PointKind {
    /// Short label used in JSONL and artifact file names.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            PointKind::Link => "link",
            PointKind::Delay => "delay",
            PointKind::Loss => "loss",
        }
    }

    /// The variant whose token `as_str` writes. An inherent method (not
    /// `FromStr`) so call sites get `Option` without an error type.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<PointKind> {
        Some(match s {
            "link" => PointKind::Link,
            "delay" => PointKind::Delay,
            "loss" => PointKind::Loss,
            _ => return None,
        })
    }
}

/// Identifies one instrumented location: a shell layer (by kind and
/// per-stack index) in one direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TapPoint {
    pub kind: PointKind,
    /// Layer index within the shell stack (matches the `-<n>` suffix of
    /// the stack's namespace names, e.g. `link-1`).
    pub index: u32,
    pub dir: Dir,
}

impl TapPoint {
    /// Stable label for artifact names: `link1-down`, `delay2-up`, ...
    pub fn label(&self) -> String {
        format!("{}{}-{}", self.kind.as_str(), self.index, self.dir.as_str())
    }
}

/// What happened to the packet at the tap point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PacketEventKind {
    /// Accepted into a qdisc.
    Enqueue,
    /// Left a qdisc toward the wire (`sojourn_ns` is its queue wait).
    Dequeue,
    /// Dropped — by the qdisc (tail/head/AQM) or by a loss shell.
    Drop,
    /// Handed to the next hop (consumed a link opportunity, or exited a
    /// delay shell's propagation leg).
    Deliver,
}

impl PacketEventKind {
    /// Short label used in JSONL.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            PacketEventKind::Enqueue => "enq",
            PacketEventKind::Dequeue => "deq",
            PacketEventKind::Drop => "drop",
            PacketEventKind::Deliver => "del",
        }
    }

    /// The variant whose token `as_str` writes. An inherent method (not
    /// `FromStr`) so call sites get `Option` without an error type.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<PacketEventKind> {
        Some(match s {
            "enq" => PacketEventKind::Enqueue,
            "deq" => PacketEventKind::Dequeue,
            "drop" => PacketEventKind::Drop,
            "del" => PacketEventKind::Deliver,
            _ => return None,
        })
    }
}

/// One per-packet event. Times are virtual-time nanoseconds since
/// simulation start (plain `u64`, so this crate needs no `mm-sim` dep).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketEvent {
    pub t_ns: u64,
    pub kind: PacketEventKind,
    pub point: TapPoint,
    /// The packet's workspace-wide id (`mm_net::Packet::id`).
    pub pkt_id: u64,
    /// Wire size in bytes (header + payload).
    pub size_bytes: u32,
    /// Queue sojourn time for [`PacketEventKind::Dequeue`]; 0 otherwise.
    pub sojourn_ns: u64,
    /// Direction-insensitive flow fingerprint of the packet's 4-tuple
    /// (`mm_net::Packet::flow_key`); 0 when the producer has no flow
    /// identity (e.g. synthetic test packets).
    pub flow: u64,
}

/// HTTP transaction milestone at the browser/replay boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HttpPhase {
    /// Browser queued the fetch (resource discovered).
    Queued,
    /// Browser put the request on a connection / mux stream.
    Sent,
    /// Browser finished the response body.
    Done,
    /// Browser gave up on the resource (after its retry).
    Failed,
    /// Replay server parsed the request off the wire.
    ServerRecv,
    /// Replay server wrote the response (post think time).
    ServerSent,
}

impl HttpPhase {
    /// Short label used in JSONL.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            HttpPhase::Queued => "queued",
            HttpPhase::Sent => "sent",
            HttpPhase::Done => "done",
            HttpPhase::Failed => "failed",
            HttpPhase::ServerRecv => "srv_recv",
            HttpPhase::ServerSent => "srv_sent",
        }
    }

    /// The variant whose token `as_str` writes. An inherent method (not
    /// `FromStr`) so call sites get `Option` without an error type.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<HttpPhase> {
        Some(match s {
            "queued" => HttpPhase::Queued,
            "sent" => HttpPhase::Sent,
            "done" => HttpPhase::Done,
            "failed" => HttpPhase::Failed,
            "srv_recv" => HttpPhase::ServerRecv,
            "srv_sent" => HttpPhase::ServerSent,
            _ => return None,
        })
    }
}

/// One HTTP milestone event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpEvent {
    pub t_ns: u64,
    pub phase: HttpPhase,
    /// Browser-side resource index (position in the page's resource
    /// timing table); `u32::MAX` for server-side events, which have no
    /// browser resource identity.
    pub resource: u32,
    pub url: String,
    /// Response status for `Done`; 0 when not yet known.
    pub status: u16,
    /// Body bytes for `Done`/`ServerSent`; 0 when not yet known.
    pub bytes: u64,
}

/// Server-side marker for [`HttpEvent::resource`].
pub const NO_RESOURCE: u32 = u32::MAX;

/// Static description of an instrumented link, recorded once so the
/// offline analyzer can reconstruct the capacity (opportunity) series
/// a throughput graph plots against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkMeta {
    pub point: TapPoint,
    /// The packet-delivery-opportunity schedule, milliseconds within
    /// one trace period (mahimahi trace-file semantics: the trace wraps
    /// indefinitely with this period). `Rc<[u64]>` so metas clone by
    /// refcount — live taps receive one per attached link and store it.
    pub deliveries_ms: Rc<[u64]>,
    pub period_ms: u64,
    /// Bytes one opportunity can carry.
    pub mtu_bytes: u32,
}

/// Observer hook for per-packet and per-request events. All methods
/// default to no-ops so implementations opt into exactly the streams
/// they want. Taps must only observe — never schedule simulator events
/// or mutate packets.
pub trait PacketTap {
    /// One packet milestone at an instrumented shell layer.
    fn on_packet(&self, ev: &PacketEvent) {
        let _ = ev;
    }

    /// One HTTP milestone at the browser/replay boundary.
    fn on_http(&self, ev: &HttpEvent) {
        let _ = ev;
    }

    /// Static link description, reported once when the tap is attached.
    fn on_link_meta(&self, meta: &LinkMeta) {
        let _ = meta;
    }
}

/// A cheaply clonable, `Debug`-opaque handle to a shared tap — the type
/// instrumented configs carry as `Option<TapHandle>`.
#[derive(Clone)]
pub struct TapHandle(Rc<dyn PacketTap>);

impl TapHandle {
    /// Wrap a tap implementation.
    pub fn new(tap: impl PacketTap + 'static) -> TapHandle {
        TapHandle(Rc::new(tap))
    }
}

impl std::ops::Deref for TapHandle {
    type Target = dyn PacketTap;

    fn deref(&self) -> &(dyn PacketTap + 'static) {
        &*self.0
    }
}

impl fmt::Debug for TapHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TapHandle")
    }
}

/// Forwards every tap event to each of several taps, so one
/// instrumented shell stack can feed e.g. a [`Capture`] and an auditor
/// at once.
pub struct FanoutTap(Vec<TapHandle>);

impl FanoutTap {
    /// A fanout over `taps`, in call order.
    pub fn new(taps: Vec<TapHandle>) -> FanoutTap {
        FanoutTap(taps)
    }
}

impl PacketTap for FanoutTap {
    fn on_packet(&self, ev: &PacketEvent) {
        for t in &self.0 {
            t.on_packet(ev);
        }
    }

    fn on_http(&self, ev: &HttpEvent) {
        for t in &self.0 {
            t.on_http(ev);
        }
    }

    fn on_link_meta(&self, meta: &LinkMeta) {
        for t in &self.0 {
            t.on_link_meta(meta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_default_tap_ignores_everything() {
        struct Quiet;
        impl PacketTap for Quiet {}
        let handle = TapHandle::new(Quiet);
        handle.on_packet(&PacketEvent {
            t_ns: 0,
            kind: PacketEventKind::Enqueue,
            point: TapPoint {
                kind: PointKind::Link,
                index: 1,
                dir: Dir::Up,
            },
            pkt_id: 1,
            size_bytes: 1500,
            sojourn_ns: 0,
            flow: 0,
        });
        assert_eq!(format!("{handle:?}"), "TapHandle");
    }

    #[test]
    fn labels_are_stable() {
        let p = TapPoint {
            kind: PointKind::Delay,
            index: 2,
            dir: Dir::Down,
        };
        assert_eq!(p.label(), "delay2-down");
        assert_eq!(PacketEventKind::Dequeue.as_str(), "deq");
        assert_eq!(HttpPhase::ServerRecv.as_str(), "srv_recv");
    }

    /// Every token the capture format writes reads back as the variant
    /// that wrote it; anything else reads as `None`.
    #[test]
    fn tokens_round_trip() {
        for d in [Dir::Up, Dir::Down] {
            assert_eq!(Dir::from_str(d.as_str()), Some(d));
        }
        for k in [PointKind::Link, PointKind::Delay, PointKind::Loss] {
            assert_eq!(PointKind::from_str(k.as_str()), Some(k));
        }
        for k in [
            PacketEventKind::Enqueue,
            PacketEventKind::Dequeue,
            PacketEventKind::Drop,
            PacketEventKind::Deliver,
        ] {
            assert_eq!(PacketEventKind::from_str(k.as_str()), Some(k));
        }
        for p in [
            HttpPhase::Queued,
            HttpPhase::Sent,
            HttpPhase::Done,
            HttpPhase::Failed,
            HttpPhase::ServerRecv,
            HttpPhase::ServerSent,
        ] {
            assert_eq!(HttpPhase::from_str(p.as_str()), Some(p));
        }
        assert_eq!(Dir::from_str("Up"), None);
        assert_eq!(PointKind::from_str(""), None);
        assert_eq!(PacketEventKind::from_str("enqueue"), None);
        assert_eq!(HttpPhase::from_str("server_recv"), None);
    }
}
