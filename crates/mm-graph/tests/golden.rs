//! Golden-file test: pins mm-graph's binning and SVG byte output for a
//! fixed synthetic capture, so rendering changes are always deliberate.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p mm-graph --test golden`
//! and review the diff.

use mm_capture::{CaptureData, Dir, LinkMeta, PacketEvent, PacketEventKind, PointKind, TapPoint};
use mm_graph::render_capture;

/// Deterministic capture: a 12 Mbit/s-style link with an LCG-jittered
/// packet schedule.
fn golden_capture() -> CaptureData {
    let point = TapPoint {
        kind: PointKind::Link,
        index: 1,
        dir: Dir::Down,
    };
    let mut state: u64 = 2014; // fixed seed
    let mut next = |modulus: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % modulus
    };
    let mut packets = Vec::new();
    let mut t_ns: u64 = 0;
    for i in 0..400u64 {
        t_ns += 500_000 + next(2_000_000); // 0.5–2.5 ms between packets
        let size = 100 + next(1400) as u32;
        let sojourn = next(8_000_000); // 0–8 ms queueing
        packets.push(PacketEvent {
            t_ns,
            kind: PacketEventKind::Enqueue,
            point,
            pkt_id: i,
            size_bytes: size,
            sojourn_ns: 0,
            flow: 0,
        });
        packets.push(PacketEvent {
            t_ns: t_ns + sojourn,
            kind: PacketEventKind::Dequeue,
            point,
            pkt_id: i,
            size_bytes: size,
            sojourn_ns: sojourn,
            flow: 0,
        });
        packets.push(PacketEvent {
            t_ns: t_ns + sojourn,
            kind: PacketEventKind::Deliver,
            point,
            pkt_id: i,
            size_bytes: size,
            sojourn_ns: 0,
            flow: 0,
        });
    }
    packets.sort_by_key(|p| p.t_ns);
    CaptureData {
        load: 1,
        links: vec![LinkMeta {
            point,
            deliveries_ms: (0..12).collect(),
            period_ms: 12,
            mtu_bytes: 1500,
        }],
        packets,
        https: vec![],
        dropped: 0,
    }
}

#[test]
fn rendered_artifacts_match_golden_files() {
    let artifacts = render_capture(&golden_capture(), 100).unwrap();
    assert_eq!(artifacts.len(), 4, "throughput/delay, SVG+CSV each");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        for a in &artifacts {
            std::fs::write(dir.join(&a.name), a.content.as_bytes()).unwrap();
        }
        return;
    }
    for a in &artifacts {
        let path = dir.join(&a.name);
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
                path.display()
            )
        });
        assert_eq!(
            a.content, want,
            "{} drifted from its golden file; if intended, regenerate with UPDATE_GOLDEN=1",
            a.name
        );
    }
}
