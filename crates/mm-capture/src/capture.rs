//! The standard bounded capture sink and its JSONL serialization.
//!
//! [`Capture`] implements [`PacketTap`] by appending events to in-memory
//! vectors with hard caps (the `FlowTracer` policy from `mm-metrics`):
//! once a stream hits its cap, further events increment a `dropped`
//! counter instead of allocating, so a pathological run cannot consume
//! unbounded memory. Captures serialize to JSONL: one self-describing
//! object per line, what `--capture-out` writes and `mm-graph` parses.

use std::cell::RefCell;
use std::rc::Rc;

use crate::{HttpEvent, LinkMeta, PacketEvent, PacketTap, TapHandle};

/// Default cap on stored packet events (~9.4 MB of JSONL).
pub(crate) const DEFAULT_MAX_PACKET_EVENTS: usize = 1 << 18;
/// Default cap on stored HTTP events.
pub(crate) const DEFAULT_MAX_HTTP_EVENTS: usize = 1 << 14;

/// Everything one capture holds, as plain data: what the `mm-graph`
/// JSONL parser produces.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CaptureData {
    /// Which page load (or experiment unit) the events belong to.
    /// Loads run in separate simulations with separate clocks, so
    /// analyzers must never mix timestamps across loads.
    pub load: u64,
    pub links: Vec<LinkMeta>,
    pub packets: Vec<PacketEvent>,
    pub https: Vec<HttpEvent>,
    /// Events discarded because a cap was hit.
    pub dropped: u64,
}

struct Limits {
    max_packet_events: usize,
    max_http_events: usize,
}

struct Inner {
    data: CaptureData,
    limits: Limits,
}

/// Bounded in-memory [`PacketTap`]. Cloning shares the underlying
/// store, so the same capture can be attached to several shells and to
/// the browser/replay boundary at once.
#[derive(Clone)]
pub struct Capture {
    inner: Rc<RefCell<Inner>>,
}

impl Default for Capture {
    fn default() -> Self {
        Capture::new()
    }
}

impl Capture {
    /// A capture for load 0 with the default caps.
    pub fn new() -> Capture {
        Capture::with_limits(0, DEFAULT_MAX_PACKET_EVENTS, DEFAULT_MAX_HTTP_EVENTS)
    }

    /// A capture tagged with a load id, default caps.
    pub fn for_load(load: u64) -> Capture {
        Capture::with_limits(load, DEFAULT_MAX_PACKET_EVENTS, DEFAULT_MAX_HTTP_EVENTS)
    }

    /// A capture with explicit stream caps.
    pub(crate) fn with_limits(
        load: u64,
        max_packet_events: usize,
        max_http_events: usize,
    ) -> Capture {
        Capture {
            inner: Rc::new(RefCell::new(Inner {
                data: CaptureData {
                    load,
                    // Reserve a modest slab up front so the live tap
                    // path never pays repeated growth-reallocations of a
                    // hot Vec (the cap itself would be ~8 MB — too much
                    // to commit eagerly).
                    packets: Vec::with_capacity(max_packet_events.min(4096)),
                    https: Vec::with_capacity(max_http_events.min(256)),
                    ..CaptureData::default()
                },
                limits: Limits {
                    max_packet_events,
                    max_http_events,
                },
            })),
        }
    }

    /// A [`TapHandle`] sharing this capture's store.
    pub fn handle(&self) -> TapHandle {
        TapHandle::new(self.clone())
    }

    /// Stored packet events.
    pub fn packet_count(&self) -> usize {
        self.inner.borrow().data.packets.len()
    }

    /// Stored HTTP events.
    pub fn http_count(&self) -> usize {
        self.inner.borrow().data.https.len()
    }

    /// Events discarded because a cap was hit.
    #[cfg(test)]
    pub(crate) fn dropped(&self) -> u64 {
        self.inner.borrow().data.dropped
    }

    /// Snapshot of everything stored.
    pub fn data(&self) -> CaptureData {
        self.inner.borrow().data.clone()
    }

    /// Encode every stored event as one JSON object per line. Link
    /// descriptions come first so a streaming reader sees topology
    /// before events.
    pub fn to_jsonl(&self) -> String {
        data_to_jsonl(&self.inner.borrow().data)
    }

    /// Drain the store, returning its JSONL (used to merge per-load
    /// captures into a process-wide capture file).
    pub fn take_jsonl(&self) -> String {
        let out = self.to_jsonl();
        let mut inner = self.inner.borrow_mut();
        let load = inner.data.load;
        inner.data = CaptureData {
            load,
            ..CaptureData::default()
        };
        out
    }

    /// Drop all stored events and link metas, keeping the load tag and
    /// the allocated buffers. Reusing one capture across runs this way
    /// keeps its pages mapped and warm, where rebuilding a capture per
    /// run pays allocator and page-fault cost proportional to the
    /// event volume.
    pub fn clear(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.data.links.clear();
        inner.data.packets.clear();
        inner.data.https.clear();
        inner.data.dropped = 0;
    }
}

impl PacketTap for Capture {
    fn on_packet(&self, ev: &PacketEvent) {
        let mut inner = self.inner.borrow_mut();
        if inner.data.packets.len() >= inner.limits.max_packet_events {
            inner.data.dropped += 1;
        } else {
            inner.data.packets.push(*ev);
        }
    }

    fn on_http(&self, ev: &HttpEvent) {
        let mut inner = self.inner.borrow_mut();
        if inner.data.https.len() >= inner.limits.max_http_events {
            inner.data.dropped += 1;
        } else {
            inner.data.https.push(ev.clone());
        }
    }

    fn on_link_meta(&self, meta: &LinkMeta) {
        // Link descriptions are tiny and bounded by topology, not by
        // traffic, so they bypass the event caps. Re-attaching the same
        // point twice keeps the first description.
        let mut inner = self.inner.borrow_mut();
        if !inner.data.links.iter().any(|m| m.point == meta.point) {
            inner.data.links.push(meta.clone());
        }
    }
}

/// JSONL encoding of a [`CaptureData`] (also used by [`Capture`]).
pub fn data_to_jsonl(data: &CaptureData) -> String {
    let mut out = String::new();
    let load = data.load;
    for m in &data.links {
        out.push_str(&format!(
            "{{\"ev\":\"link\",\"load\":{},\"at\":\"{}\",\"i\":{},\"dir\":\"{}\",\
             \"period_ms\":{},\"mtu\":{},\"deliveries_ms\":[",
            load,
            m.point.kind.as_str(),
            m.point.index,
            m.point.dir.as_str(),
            m.period_ms,
            m.mtu_bytes,
        ));
        for (i, ms) in m.deliveries_ms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&ms.to_string());
        }
        out.push_str("]}\n");
    }
    for p in &data.packets {
        out.push_str(&format!(
            "{{\"ev\":\"pkt\",\"load\":{},\"t_ns\":{},\"kind\":\"{}\",\"at\":\"{}\",\
             \"i\":{},\"dir\":\"{}\",\"pkt\":{},\"size\":{},\"sojourn_ns\":{},\"flow\":{}}}\n",
            load,
            p.t_ns,
            p.kind.as_str(),
            p.point.kind.as_str(),
            p.point.index,
            p.point.dir.as_str(),
            p.pkt_id,
            p.size_bytes,
            p.sojourn_ns,
            p.flow,
        ));
    }
    for h in &data.https {
        out.push_str(&format!(
            "{{\"ev\":\"http\",\"load\":{},\"t_ns\":{},\"phase\":\"{}\",\"res\":{},\
             \"url\":\"{}\",\"status\":{},\"bytes\":{}}}\n",
            load,
            h.t_ns,
            h.phase.as_str(),
            h.resource,
            escape_json(&h.url),
            h.status,
            h.bytes,
        ));
    }
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dir, HttpPhase, PacketEventKind, PointKind, TapPoint};

    fn point(kind: PointKind, index: u32, dir: Dir) -> TapPoint {
        TapPoint { kind, index, dir }
    }

    fn pkt_event(t_ns: u64, kind: PacketEventKind, id: u64) -> PacketEvent {
        PacketEvent {
            t_ns,
            kind,
            point: point(PointKind::Link, 1, Dir::Down),
            pkt_id: id,
            size_bytes: 1500,
            sojourn_ns: if kind == PacketEventKind::Dequeue {
                250_000
            } else {
                0
            },
            flow: 0xfeed,
        }
    }

    #[test]
    fn capture_stores_and_serializes() {
        let cap = Capture::for_load(3);
        let tap = cap.handle();
        tap.on_link_meta(&LinkMeta {
            point: point(PointKind::Link, 1, Dir::Down),
            deliveries_ms: vec![0, 1, 2].into(),
            period_ms: 3,
            mtu_bytes: 1500,
        });
        tap.on_packet(&pkt_event(1_000_000, PacketEventKind::Enqueue, 7));
        tap.on_packet(&pkt_event(2_000_000, PacketEventKind::Dequeue, 7));
        tap.on_http(&HttpEvent {
            t_ns: 5,
            phase: HttpPhase::Queued,
            resource: 0,
            url: "http://10.0.0.1/a\"b".to_string(),
            status: 0,
            bytes: 0,
        });
        assert_eq!(cap.packet_count(), 2);
        assert_eq!(cap.http_count(), 1);
        let jsonl = cap.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"ev\":\"link\""));
        assert!(lines[0].contains("\"deliveries_ms\":[0,1,2]"));
        assert!(lines[1].contains("\"kind\":\"enq\""));
        assert!(lines[2].contains("\"sojourn_ns\":250000"));
        assert!(lines[3].contains("\\\"b\""));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"load\":3"));
        }
        // Drain empties the store but keeps the load tag.
        assert!(!cap.take_jsonl().is_empty());
        assert_eq!(cap.packet_count(), 0);
        assert_eq!(cap.data().load, 3);
    }

    #[test]
    fn clear_keeps_load_and_drops_events() {
        let cap = Capture::for_load(5);
        cap.on_link_meta(&LinkMeta {
            point: point(PointKind::Link, 1, Dir::Up),
            deliveries_ms: vec![0].into(),
            period_ms: 1,
            mtu_bytes: 1500,
        });
        cap.on_packet(&pkt_event(1, PacketEventKind::Enqueue, 1));
        cap.clear();
        let data = cap.data();
        assert_eq!(data.load, 5);
        assert!(data.links.is_empty());
        assert!(data.packets.is_empty());
        assert_eq!(data.dropped, 0);
        // The store keeps accepting events after a clear.
        cap.on_packet(&pkt_event(2, PacketEventKind::Enqueue, 2));
        assert_eq!(cap.packet_count(), 1);
    }

    #[test]
    fn caps_bound_memory() {
        let cap = Capture::with_limits(0, 2, 1);
        for i in 0..5 {
            cap.on_packet(&pkt_event(i, PacketEventKind::Enqueue, i));
        }
        for _ in 0..3 {
            cap.on_http(&HttpEvent {
                t_ns: 0,
                phase: HttpPhase::Queued,
                resource: 0,
                url: String::new(),
                status: 0,
                bytes: 0,
            });
        }
        assert_eq!(cap.packet_count(), 2);
        assert_eq!(cap.http_count(), 1);
        assert_eq!(cap.dropped(), 5);
    }

    #[test]
    fn duplicate_link_meta_is_ignored() {
        let cap = Capture::new();
        let meta = LinkMeta {
            point: point(PointKind::Link, 1, Dir::Up),
            deliveries_ms: vec![0].into(),
            period_ms: 1,
            mtu_bytes: 1500,
        };
        cap.on_link_meta(&meta);
        cap.on_link_meta(&meta);
        assert_eq!(cap.data().links.len(), 1);
    }
}
