//! The equivalence digests against their definition, written out
//! naively: each packet event hashes to FNV-1a over a 41-byte
//! little-endian record (kind, packet id, size, sojourn, time, flow), and
//! a scope's digest is the wrapping sum of its events' hashes — one scope
//! per tap-point label, one per non-zero flow (`conn:<flow>`). However
//! the auditor batches or orders that work, and whatever its ledgers make
//! of the stream, `AuditReport::digests` must be exactly this map.

use std::collections::BTreeMap;

use mm_audit::{fnv1a64, Auditor};
use mm_capture::{Dir, PacketEvent, PacketEventKind, PacketTap, PointKind, TapPoint};
use proptest::prelude::*;

const POINTS: [TapPoint; 3] = [
    TapPoint {
        kind: PointKind::Link,
        index: 1,
        dir: Dir::Down,
    },
    TapPoint {
        kind: PointKind::Delay,
        index: 1,
        dir: Dir::Up,
    },
    TapPoint {
        kind: PointKind::Link,
        index: 2,
        dir: Dir::Up,
    },
];

const KINDS: [PacketEventKind; 4] = [
    PacketEventKind::Enqueue,
    PacketEventKind::Dequeue,
    PacketEventKind::Drop,
    PacketEventKind::Deliver,
];

/// Any kind at any of three points; few packet ids, so enqueues,
/// dequeues and deliveries of one packet meet (or fail to) in the
/// ledgers; flows 0..50, 0 being "no flow".
fn event() -> impl Strategy<Value = PacketEvent> {
    (
        (0usize..4, 0usize..3, 0u64..16, any::<u32>()),
        (any::<u64>(), any::<u64>(), 0u64..50),
    )
        .prop_map(
            |((kind, point, pkt_id, size_bytes), (sojourn_ns, t_ns, flow))| PacketEvent {
                t_ns,
                kind: KINDS[kind],
                point: POINTS[point],
                pkt_id,
                size_bytes,
                sojourn_ns,
                flow,
            },
        )
}

fn model(events: &[PacketEvent]) -> BTreeMap<String, u64> {
    let mut digests = BTreeMap::new();
    let mut add = |scope: String, h: u64| {
        let d: &mut u64 = digests.entry(scope).or_default();
        *d = d.wrapping_add(h);
    };
    for ev in events {
        let kind = KINDS.iter().position(|&k| k == ev.kind).unwrap() as u8;
        let mut record = vec![kind];
        record.extend(ev.pkt_id.to_le_bytes());
        record.extend((ev.size_bytes as u64).to_le_bytes());
        record.extend(ev.sojourn_ns.to_le_bytes());
        record.extend(ev.t_ns.to_le_bytes());
        record.extend(ev.flow.to_le_bytes());
        assert_eq!(record.len(), 41);
        let h = fnv1a64(&record);
        add(ev.point.label(), h);
        if ev.flow != 0 {
            add(format!("conn:{:016x}", ev.flow), h);
        }
    }
    digests
}

#[test]
fn fnv1a64_is_the_published_fnv_1a() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}

proptest! {
    /// Any stream of 0–200 events (so any remainder modulo a batch), with
    /// a report taken part-way through — which must disturb nothing.
    #[test]
    fn digests_are_the_per_scope_sum_of_record_hashes(
        events in prop::collection::vec(event(), 0..201),
        cut in 0usize..201,
    ) {
        let cut = cut.min(events.len());
        let auditor = Auditor::for_load(0);
        for ev in &events[..cut] {
            auditor.on_packet(ev);
        }
        prop_assert_eq!(&auditor.finish().digests, &model(&events[..cut]));
        for ev in &events[cut..] {
            auditor.on_packet(ev);
        }
        let report = auditor.finish();
        prop_assert_eq!(&report.digests, &model(&events));
        prop_assert_eq!(report.packets, events.len() as u64);
        prop_assert_eq!(auditor.finish(), report);
    }
}
