//! The TCP wire oracle: every packet both ends put on the wire, and both
//! ends' final counters, folded into one fnv1a64 digest per (world,
//! scenario) and pinned to constants recorded before the socket was split
//! into its four files (DESIGN.md §3). A refactor of `tcp/` that changes
//! one byte, one timestamp or one counter anywhere in this table fails
//! here, in tier-1, instead of only in perf's `sim_digest`.
//!
//! Worlds: every [`RecoveryTier`] × {Reno, Cubic, BBR}. Scenarios: a clean transfer, a five-segment
//! burst drop, a three-segment tail drop, seeded 1 % loss in each
//! direction, and a 1.5 s forward-path stall (delay, never loss). Between
//! them they reach dup-ack fast retransmit, SACK recovery with PRR and
//! rescue, limited transmit, RACK marks and the reordering timer, the
//! Tail Loss Probe, the RTO's §5.1 marking and the F-RTO undo —
//! `mechanisms_are_reached` asserts it through the counters that exist.

use mm_net::{
    CcAlgorithm, Host, IpAddr, Packet, PacketIdGen, PacketSink, RecoveryTier, SinkRef, TcpConfig,
    TcpStats,
};
use mm_shells::transfer::{fnv, payload, upload, FNV_OFFSET};
use mm_sim::{RngStream, SimDuration, Simulator, Timestamp};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// 256 KiB: 180 MSS segments, the last one short and carrying the FIN.
const TOTAL: usize = 256 * 1024;
/// Data segments of a loss-free transfer.
const SEGMENTS: u64 = 180;
const ONE_WAY: SimDuration = SimDuration::from_millis(20);

/// What a wire does to the packets entering it.
#[derive(Clone, Copy)]
enum Shape {
    Clean,
    /// Drop data segments `[from, to)` (0-based, counted over every data
    /// segment entering the wire) on their first transmission only.
    Drop {
        from: u64,
        to: u64,
    },
    /// Drop each packet with this probability, from a seeded stream.
    Random {
        p: f64,
        seed: u64,
    },
    /// Packets entering during `[from, until)` leave at `until`, order
    /// kept: added delay, zero loss.
    Stall {
        from: Timestamp,
        until: Timestamp,
    },
}

/// One direction of the path: folds every packet offered to it into the
/// shared digest (dropped ones too, flagged), then applies its shape and
/// a fixed delay.
struct Wire {
    next: SinkRef,
    dir: u64,
    shape: Shape,
    digest: Rc<Cell<u64>>,
    data_seen: Cell<u64>,
    dropped: RefCell<Vec<u64>>,
    rng: RefCell<RngStream>,
}

impl Wire {
    fn drops(&self, pkt: &Packet) -> bool {
        match self.shape {
            Shape::Drop { from, to } if !pkt.segment.payload.is_empty() => {
                let idx = self.data_seen.get();
                self.data_seen.set(idx + 1);
                let first = !self.dropped.borrow().contains(&pkt.segment.seq);
                if first && (from..to).contains(&idx) {
                    self.dropped.borrow_mut().push(pkt.segment.seq);
                    return true;
                }
                false
            }
            Shape::Random { p, .. } => self.rng.borrow_mut().gen_bool(p),
            _ => false,
        }
    }
}

impl PacketSink for Wire {
    fn deliver(&self, sim: &mut Simulator, pkt: Packet) {
        let now = sim.now();
        let dropped = self.drops(&pkt);
        let seg = &pkt.segment;
        let f = seg.flags;
        let mut h = self.digest.get();
        for v in [
            now.as_nanos(),
            self.dir,
            seg.seq,
            seg.ack,
            (f.syn as u64) | (f.ack as u64) << 1 | (f.fin as u64) << 2 | (f.rst as u64) << 3,
            seg.payload.len() as u64,
            seg.window,
            seg.sack.permitted as u64,
            seg.sack.blocks.len() as u64,
            dropped as u64,
        ] {
            h = fnv(h, v);
        }
        let (blocks, n) = seg.sack.blocks.decode(seg.ack);
        for b in &blocks[..n] {
            h = fnv(fnv(h, b.start), b.end);
        }
        self.digest.set(h);
        if dropped {
            return;
        }
        let leave = match self.shape {
            Shape::Stall { from, until } if now >= from && now < until => until,
            _ => now,
        };
        let next = self.next.clone();
        sim.schedule_at(leave + ONE_WAY, move |sim| next.deliver(sim, pkt));
    }
}

fn fold_stats(mut h: u64, s: &TcpStats) -> u64 {
    for v in [
        s.segments_sent,
        s.segments_received,
        s.bytes_sent,
        s.bytes_received,
        s.retransmissions,
        s.timeouts,
        s.fast_retransmits,
        s.sack_recoveries,
        s.limited_transmits,
        s.tlp_probes,
        s.rack_loss_marks,
        s.spurious_rtos,
        s.rate_samples,
        s.pacing_waits,
        s.max_retx_queue,
        s.max_scoreboard_ranges,
    ] {
        h = fnv(h, v);
    }
    h
}

/// Run one transfer; returns its digest and the client's counters.
fn run(config: &TcpConfig, forward: Shape, reverse: Shape) -> (u64, TcpStats) {
    let mut sim = Simulator::new();
    let ids = PacketIdGen::new();
    let client = Host::new(IpAddr::new(10, 0, 0, 1), ids.clone());
    let server = Host::new(IpAddr::new(10, 0, 0, 2), ids);
    client.set_tcp_config(config.clone());
    server.set_tcp_config(config.clone());
    let digest = Rc::new(Cell::new(FNV_OFFSET));
    let wire = |next: SinkRef, dir: u64, shape: Shape| {
        let seed = match shape {
            Shape::Random { seed, .. } => seed,
            _ => 0,
        };
        Rc::new(Wire {
            next,
            dir,
            shape,
            digest: digest.clone(),
            data_seen: Cell::new(0),
            dropped: RefCell::new(Vec::new()),
            rng: RefCell::new(RngStream::from_seed(seed).fork_indexed("wire", dir)),
        })
    };
    client.set_egress(wire(server.sink(), 0, forward));
    server.set_egress(wire(client.sink(), 1, reverse));
    // The client sends and closes (the FIN rides the last segment); the
    // server closes on the client's FIN.
    let (h, receiver) = upload(&mut sim, &client, &server, 80, payload(TOTAL));
    sim.run();
    assert_eq!(receiver.received(), TOTAL, "transfer incomplete");
    let accepted = server.socket(server.socket_ids()[0]).expect("accepted");
    let d = fold_stats(fold_stats(digest.get(), &h.stats()), &accepted.stats());
    (fnv(d, sim.now().as_nanos()), h.stats())
}

fn worlds() -> Vec<(String, TcpConfig)> {
    let mut worlds = Vec::new();
    for tier in [
        RecoveryTier::Reno,
        RecoveryTier::Sack,
        RecoveryTier::RackTlp,
    ] {
        for cc in [CcAlgorithm::Reno, CcAlgorithm::Cubic, CcAlgorithm::Bbr] {
            let config = TcpConfig::builder().recovery(tier).cc(cc).build();
            worlds.push((format!("{tier:?}/{cc:?}"), config));
        }
    }
    worlds
}

const SCENARIOS: [&str; 5] = ["clean", "burst5", "tail3", "loss1pct", "stall1500ms"];

/// A scenario's two wire shapes, and the config change it needs.
fn scenario(name: &str, config: &TcpConfig) -> (Shape, Shape, TcpConfig) {
    let (forward, reverse) = match name {
        "clean" => (Shape::Clean, Shape::Clean),
        "burst5" => (Shape::Drop { from: 40, to: 45 }, Shape::Clean),
        "tail3" => (
            Shape::Drop {
                from: SEGMENTS - 3,
                to: SEGMENTS,
            },
            Shape::Clean,
        ),
        "loss1pct" => (
            Shape::Random { p: 0.01, seed: 7 },
            Shape::Random { p: 0.01, seed: 7 },
        ),
        "stall1500ms" => (
            Shape::Stall {
                from: Timestamp::from_millis(100),
                until: Timestamp::from_millis(1600),
            },
            Shape::Clean,
        ),
        _ => unreachable!(),
    };
    let config = match name {
        // RFC 6298's 1 s floor: exactly one timeout fires inside the
        // stall, so F-RTO (first timeouts only) gets to judge it.
        "stall1500ms" => config
            .to_builder()
            .min_rto(SimDuration::from_secs(1))
            .build(),
        _ => config.clone(),
    };
    (forward, reverse, config)
}

/// Recorded at the parent of the socket split; one row per world, one
/// column per scenario, in `worlds()` × `SCENARIOS` order.
const EXPECTED: [[u64; 5]; 9] = [
    [
        0xc1d8_c304_e6eb_d2c6,
        0x23f4_ce50_e94a_1e6f,
        0xf3aa_f405_16ba_ebed,
        0xc3f8_bb87_8d61_c012,
        0xe701_79e2_dccd_90fe,
    ],
    [
        0xc1d8_c304_e6eb_d2c6,
        0x375f_dc83_0060_713e,
        0xf3aa_f405_16ba_ebed,
        0x698c_1a8d_19ef_31a7,
        0x3b37_1e03_68fa_b1d6,
    ],
    [
        0x1822_9db2_00a4_8038,
        0x3b8e_9331_05bb_0a21,
        0x047d_1b30_65a8_112c,
        0x5777_36ff_a2dc_954d,
        0xad7c_ade9_7060_d7fc,
    ],
    [
        0xa4a5_1d6a_ba5f_5a6e,
        0xb78a_8c68_97d4_5379,
        0xa272_9baa_0a83_84a8,
        0x68e6_5f72_0c5a_6377,
        0xdc73_8179_a3a3_4b2d,
    ],
    [
        0xa4a5_1d6a_ba5f_5a6e,
        0x3933_8bb0_ea77_8174,
        0xa272_9baa_0a83_84a8,
        0x83ed_21f3_0b9c_93b0,
        0xe0d1_452f_2ce2_426f,
    ],
    [
        0xbef4_6204_b512_9b10,
        0x8834_b3b5_eba9_1184,
        0xd868_a6cf_0510_103e,
        0x1d64_9c60_29ea_9005,
        0xbd39_f4ad_996c_20e0,
    ],
    [
        0xa4a5_1d6a_ba5f_5a6e,
        0xb78a_8c68_97d4_5379,
        0xbad7_cbcb_da22_d2f6,
        0x912c_071a_fd98_eff0,
        0xc6bb_4e41_3614_6bf4,
    ],
    [
        0xa4a5_1d6a_ba5f_5a6e,
        0x3933_8bb0_ea77_8174,
        0xbad7_cbcb_da22_d2f6,
        0x88cf_ced6_71f4_f396,
        0xc6bb_4e41_3614_6bf4,
    ],
    [
        0xbef4_6204_b512_9b10,
        0xb484_6dd3_2e11_4a70,
        0x50e8_2aab_36fd_8a01,
        0x94ad_7187_6043_18cb,
        0xad11_c171_00bf_a666,
    ],
];

/// Every (world, scenario) run: its name, tier, digest and the client's
/// counters.
fn table() -> Vec<(String, RecoveryTier, u64, TcpStats)> {
    let mut rows = Vec::new();
    for (name, config) in worlds() {
        for scen in SCENARIOS {
            let (fwd, rev, config) = scenario(scen, &config);
            let (digest, stats) = run(&config, fwd, rev);
            rows.push((format!("{name} × {scen}"), config.recovery, digest, stats));
        }
    }
    rows
}

#[test]
fn every_wire_byte_matches_the_recorded_digest() {
    let rows = table();
    let got: Vec<u64> = rows.iter().map(|r| r.2).collect();
    let expected: Vec<u64> = EXPECTED.iter().flatten().copied().collect();
    let mismatches: Vec<&str> = rows
        .iter()
        .zip(&expected)
        .filter(|(r, &e)| r.2 != e)
        .map(|(r, _)| r.0.as_str())
        .collect();
    assert!(
        mismatches.is_empty(),
        "wire changed in {mismatches:?}; the table now reads {:#018x?}",
        got.chunks(SCENARIOS.len()).collect::<Vec<_>>()
    );
}

#[test]
fn mechanisms_are_reached() {
    let rows = table();
    let reached = |tier: Option<RecoveryTier>, counter: fn(&TcpStats) -> u64| {
        rows.iter()
            .filter(|r| tier.is_none_or(|t| t == r.1))
            .map(|r| counter(&r.3))
            .sum::<u64>()
            > 0
    };
    let reno = Some(RecoveryTier::Reno);
    let sack = Some(RecoveryTier::Sack);
    let rack = Some(RecoveryTier::RackTlp);
    assert!(
        reached(reno, |s| s.fast_retransmits),
        "dup-ack fast retransmit"
    );
    assert!(
        reached(sack, |s| s.sack_recoveries),
        "SACK recovery (PRR, rescue)"
    );
    assert!(reached(sack, |s| s.limited_transmits), "limited transmit");
    assert!(reached(sack, |s| s.timeouts), "RTO with §5.1 marking");
    assert!(reached(rack, |s| s.rack_loss_marks), "RACK marks");
    assert!(reached(rack, |s| s.tlp_probes), "Tail Loss Probe");
    assert!(reached(rack, |s| s.spurious_rtos), "F-RTO undo");
    assert!(reached(None, |s| s.pacing_waits), "pacing");
}
