//! The measured TCP tables of ROADMAP.md, rebuilt from the setup each
//! item states, on `mm_shells::transfer`'s one upload world. Each arm
//! prints its table in the ROADMAP's markdown shape, so a change to
//! `mm-net/src/tcp` can show its before/after by running the arm on both
//! trees.
//!
//! Run with: `cargo run --release --example tcp_probe -- <arm>`, where
//! `<arm>` is one of `item2e`, `item19`, `item20`, `item21` or
//! `lossy_grid`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use mm_net::{CcAlgorithm, FnSink, Packet, RecoveryTier, TcpConfig, MSS};
use mm_shells::transfer::{Transfer, TransferResult, TransferSpec};
use mm_shells::{DropTail, QueueLimit, ShellStack};
use mm_sim::{RngStream, SimDuration, Simulator, Timestamp};
use mm_trace::constant_rate;

fn config(cc: CcAlgorithm, tier: RecoveryTier) -> TcpConfig {
    TcpConfig::builder().cc(cc).recovery(tier).build()
}

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// `mm-delay <one_way> mm-link <mbps>` with a droptail `queue`.
fn delay_link(
    one_way: SimDuration,
    mbps: f64,
    queue: QueueLimit,
) -> impl FnOnce(ShellStack) -> ShellStack {
    move |stack| {
        stack
            .delay(one_way)
            .link(constant_rate(mbps, 1000), &move || {
                Box::new(DropTail::new(queue))
            })
    }
}

/// Item 2(e): one 4 MB upload behind 40 ms + 8 Mbit/s + droptail 32;
/// every data segment the client puts on the wire, by size.
fn item2e() {
    println!("| controller / tier | data segments | under 100 B | under MSS | retransmissions |");
    println!("|---|---|---|---|---|");
    let arms = [
        (CcAlgorithm::Reno, RecoveryTier::Sack),
        (CcAlgorithm::Cubic, RecoveryTier::Reno),
        (CcAlgorithm::Cubic, RecoveryTier::Sack),
        (CcAlgorithm::Cubic, RecoveryTier::RackTlp),
        (CcAlgorithm::Bbr, RecoveryTier::RackTlp),
    ];
    for (cc, tier) in arms {
        let spec = TransferSpec {
            tcp: config(cc, tier),
            bytes: 4_000_000,
        };
        let sizes = Rc::new(RefCell::new(Vec::new()));
        let log = sizes.clone();
        let path = delay_link(ms(40), 8.0, QueueLimit::Packets(32));
        let mut w = Transfer::through(&spec, path, |next| {
            FnSink::new(move |sim: &mut Simulator, p: Packet| {
                if !p.segment.payload.is_empty() {
                    log.borrow_mut().push(p.segment.payload.len());
                }
                next.deliver(sim, p);
            })
        });
        let r = w.run();
        assert!(r.intact);
        let sizes = sizes.borrow();
        let under = |n: usize| sizes.iter().filter(|&&len| len < n).count();
        println!(
            "| {cc:?}/`{tier:?}` | {} | {} | {} | {} |",
            sizes.len(),
            under(100),
            under(MSS),
            r.sender.retransmissions
        );
    }
}

/// Item 19: one clean 1 MiB upload, default TCP, over three paths; the
/// engine's dispatches by tag.
fn item19() {
    println!("| path | events | host | delay | link | timer |");
    println!("|---|---|---|---|---|---|");
    type Path = fn(ShellStack) -> ShellStack;
    let paths: [(&str, Path); 3] = [
        ("bare", |s| s),
        ("delay 40 ms", |s| s.delay(ms(40))),
        ("delay 40 ms + 14 Mbit/s link", |s| {
            delay_link(ms(40), 14.0, QueueLimit::Infinite)(s)
        }),
    ];
    for (name, path) in paths {
        let spec = TransferSpec {
            tcp: TcpConfig::default(),
            bytes: 1 << 20,
        };
        let mut w = Transfer::new(&spec, path);
        w.sim.enable_profiler();
        let r = w.run();
        assert!(r.intact);
        let profile = r.profile.as_ref().expect("profiled");
        let tag = |t: &str| match profile.count(&format!("sim_events_{t}_total")) {
            0 => "–".to_string(),
            n => n.to_string(),
        };
        println!(
            "| {name} | {} | {} | {} | {} | {} |",
            r.events_executed,
            tag("host"),
            tag("delay"),
            tag("link"),
            tag("timer")
        );
    }
}

/// Entries a loss-recovery walk visited per call and per ACK the sender
/// received, as `per call / per ACK` (`–` when it never ran).
fn walk_cost(visits: u64, calls: u64, acks: u64) -> String {
    match calls {
        0 => "–".to_string(),
        _ => format!(
            "{:.1} / {:.1}",
            visits as f64 / calls as f64,
            visits as f64 / acks as f64
        ),
    }
}

/// Item 20: one upload behind a 20 ms delay shell, a 100 Mbit/s link
/// with droptail 64 and 1 % loss each way (perf `transfer_lossy`'s path;
/// loss stream seed 1). ns/event is the best of five runs; the walks'
/// columns are retransmission-queue entries visited by NextSeg's rule 1
/// and by RACK's detection scan.
fn item20() {
    println!(
        "| arm (controller/tier) | transfer @ link | events | ns/event | max retx queue \
         | NextSeg entries per call / ACK | RACK entries per scan / ACK |"
    );
    println!("|---|---|---|---|---|---|---|");
    let arms = [
        (CcAlgorithm::Reno, RecoveryTier::Reno, 16),
        (CcAlgorithm::Cubic, RecoveryTier::Sack, 16),
        (CcAlgorithm::Cubic, RecoveryTier::RackTlp, 16),
        (CcAlgorithm::Bbr, RecoveryTier::Sack, 16),
        (CcAlgorithm::Bbr, RecoveryTier::RackTlp, 4),
        (CcAlgorithm::Bbr, RecoveryTier::RackTlp, 16),
    ];
    for (cc, tier, mb) in arms {
        let spec = TransferSpec {
            tcp: config(cc, tier),
            bytes: mb * 1_000_000,
        };
        let run = || {
            let mut w = Transfer::new(&spec, |stack| {
                delay_link(ms(20), 100.0, QueueLimit::Packets(64))(stack).loss(
                    0.01,
                    0.01,
                    &RngStream::from_seed(1).fork("loss"),
                )
            });
            let start = Instant::now();
            let r = w.run();
            (start.elapsed().as_nanos() as f64, r)
        };
        let (mut best, r) = run();
        for _ in 1..5 {
            best = best.min(run().0);
        }
        assert!(r.intact);
        let s = &r.sender;
        println!(
            "| {cc:?}/`{tier:?}` | {mb} MB @ 100 Mbit/s | {} | {:.0} | {} | {} | {} |",
            r.events_executed,
            best / r.events_executed as f64,
            s.max_retx_queue,
            walk_cost(s.next_seg_visits, s.next_seg_calls, s.segments_received),
            walk_cost(s.rack_scan_visits, s.rack_scans, s.segments_received)
        );
    }
}

/// The four recovery arms of perf `transfer_lossy`'s grid.
const LOSSY_ARMS: [(CcAlgorithm, RecoveryTier); 4] = [
    (CcAlgorithm::Reno, RecoveryTier::Reno),
    (CcAlgorithm::Reno, RecoveryTier::Sack),
    (CcAlgorithm::Cubic, RecoveryTier::RackTlp),
    (CcAlgorithm::Bbr, RecoveryTier::RackTlp),
];

/// perf `transfer_lossy`'s grid as uploads: {256 KiB, 1 MiB, 4 MiB} ×
/// {5, 20, 100} Mbit/s × loss seeds 1–3, behind a 20 ms delay shell and
/// droptail 64 with 1 % loss each way. Each arm's host time is the best
/// of ten passes over its 27 transfers; its share is of the four arms'
/// sum. Then the 4 MiB transfers' segments sent on loss seed 1, by rate.
fn lossy_grid() {
    const SIZES: [usize; 3] = [256 << 10, 1 << 20, 4 << 20];
    const MBPS: [f64; 3] = [5.0, 20.0, 100.0];
    let run = |(cc, tier): (CcAlgorithm, RecoveryTier), bytes: usize, mbps: f64, seed: u64| {
        let spec = TransferSpec {
            tcp: config(cc, tier),
            bytes,
        };
        let r = Transfer::new(&spec, |stack| {
            delay_link(ms(20), mbps, QueueLimit::Packets(64))(stack).loss(
                0.01,
                0.01,
                &RngStream::from_seed(seed).fork("loss"),
            )
        })
        .run();
        assert!(r.intact);
        r
    };
    let cells = || {
        SIZES.into_iter().flat_map(|b| {
            MBPS.into_iter()
                .flat_map(move |m| (1..=3).map(move |s| (b, m, s)))
        })
    };
    let mut rows = Vec::new();
    for arm in LOSSY_ARMS {
        let mut best = f64::INFINITY;
        let mut totals = [0u64; 6];
        for pass in 0..10 {
            let start = Instant::now();
            for (bytes, mbps, seed) in cells() {
                let r = run(arm, bytes, mbps, seed);
                if pass == 0 {
                    let s = &r.sender;
                    let counts = [
                        r.events_executed,
                        s.next_seg_visits,
                        s.next_seg_calls,
                        s.rack_scan_visits,
                        s.rack_scans,
                        s.segments_received,
                    ];
                    for (total, n) in totals.iter_mut().zip(counts) {
                        *total += n;
                    }
                }
            }
            best = best.min(start.elapsed().as_secs_f64());
        }
        rows.push((arm, best, totals));
    }
    let sum: f64 = rows.iter().map(|r| r.1).sum();
    println!(
        "| arm (controller/tier) | host ms | share | events \
         | NextSeg entries per call / ACK | RACK entries per scan / ACK |"
    );
    println!("|---|---|---|---|---|---|");
    for ((cc, tier), best, [events, nv, nc, rv, rc, acks]) in rows {
        println!(
            "| {cc:?}/`{tier:?}` | {:.0} | {:.0} % | {events} | {} | {} |",
            best * 1e3,
            best / sum * 100.0,
            walk_cost(nv, nc, acks),
            walk_cost(rv, rc, acks)
        );
    }
    println!();
    print!("| 4 MiB, loss seed 1: segments sent |");
    for mbps in MBPS {
        print!(" {mbps} Mbit/s |");
    }
    println!("\n|---|---|---|---|");
    for arm in LOSSY_ARMS {
        print!("| {:?}/`{:?}` |", arm.0, arm.1);
        for mbps in MBPS {
            print!(" {} |", run(arm, 4 << 20, mbps, 1).sender.segments_sent);
        }
        println!();
    }
}

/// Goodput in bytes/s of one `bytes` upload at `cc`/`tier` through a
/// `one_way` delay shell, a `mbps` link with a droptail `queue` and
/// uplink-only loss `p` (stream `seed`): the payload over the last data
/// instant, mean of loss seeds 1–3.
fn goodput(
    (cc, tier): (CcAlgorithm, RecoveryTier),
    bytes: usize,
    one_way: SimDuration,
    (mbps, queue): (f64, QueueLimit),
    p: f64,
) -> f64 {
    let run = |seed: u64| {
        let spec = TransferSpec {
            tcp: config(cc, tier),
            bytes,
        };
        let r: TransferResult = Transfer::new(&spec, |stack| {
            delay_link(one_way, mbps, queue)(stack).loss(
                p,
                0.0,
                &RngStream::from_seed(seed).fork("loss"),
            )
        })
        .run();
        assert!(r.intact);
        bytes as f64 / (r.last_data - Timestamp::ZERO).as_secs_f64()
    };
    (1..=3).map(run).sum::<f64>() / 3.0
}

/// Mathis et al.'s `MSS/RTT · sqrt(3/(2p))`, bytes/s.
fn mathis(rtt_s: f64, p: f64) -> f64 {
    MSS as f64 / rtt_s * (1.5 / p).sqrt()
}

/// RFC 8312 §5.1's average CUBIC window, `(C(3+β)/(4(1−β)))^¼ ·
/// (RTT/p)^¾` segments with C = 0.4 and β = 0.7, as bytes/s.
fn cubic_average(rtt_s: f64, p: f64) -> f64 {
    let (c, beta): (f64, f64) = (0.4, 0.7);
    let window = (c * (3.0 + beta) / (4.0 * (1.0 - beta))).powf(0.25) * (rtt_s / p).powf(0.75);
    window * MSS as f64 / rtt_s
}

/// Item 21: goodput against the laws its controllers were designed to.
/// First the Mathis grid: 32 MB uploads through a delay shell and a
/// 1 Gbit/s link with an infinite queue, in RFC 8312's TCP-friendly
/// region. Then the cubic-region cell (200 ms RTT, p 0.05 %, 64 MB):
/// Reno over Mathis, CUBIC over RFC 8312 §5.1's average window. Then
/// BBR's share of the link (`RackTlp`, 40 ms RTT, a droptail of at least
/// one BDP, about 4 s of data).
fn item21() {
    let arms = [
        (CcAlgorithm::Reno, RecoveryTier::Reno),
        (CcAlgorithm::Reno, RecoveryTier::Sack),
        (CcAlgorithm::Cubic, RecoveryTier::Sack),
        (CcAlgorithm::Cubic, RecoveryTier::RackTlp),
    ];
    let gigabit = (1000.0, QueueLimit::Infinite);
    print!("| RTT | p |");
    for (cc, tier) in arms {
        print!(" {cc:?}/`{tier:?}` |");
    }
    println!("\n|---|---|---|---|---|---|");
    for rtt_ms in [20, 80] {
        for p in [0.005, 0.01, 0.02] {
            print!("| {rtt_ms} ms | {} % |", p * 100.0);
            for arm in arms {
                let g = goodput(arm, 32_000_000, ms(rtt_ms / 2), gigabit, p);
                print!(" ×{:.2} |", g / mathis(rtt_ms as f64 / 1e3, p));
            }
            println!();
        }
    }

    println!();
    print!("| cubic region |");
    for (cc, tier) in arms {
        print!(" {cc:?}/`{tier:?}` |");
    }
    println!("\n|---|---|---|---|---|");
    print!("| 200 ms, 0.05 %, 64 MB |");
    let (rtt_s, p) = (0.2, 0.0005);
    for arm in arms {
        let g = goodput(arm, 64_000_000, ms(100), gigabit, p);
        let law = match arm.0 {
            CcAlgorithm::Cubic => cubic_average(rtt_s, p),
            _ => mathis(rtt_s, p),
        };
        print!(" ×{:.2} |", g / law);
    }
    println!();

    let losses = [0.0, 0.005, 0.01, 0.02, 0.05];
    println!();
    print!("| BBR share of the link | queue |");
    for p in losses {
        print!(" p {} % |", p * 100.0);
    }
    println!("\n|---|---|---|---|---|---|---|");
    for (mbps, queue) in [(10.0, 100), (50.0, 200), (100.0, 400)] {
        print!("| {mbps} Mbit/s | {queue} |");
        let bytes = (mbps * 1e6 / 8.0 * 4.0) as usize;
        for p in losses {
            let link = (mbps, QueueLimit::Packets(queue));
            let bbr = (CcAlgorithm::Bbr, RecoveryTier::RackTlp);
            let g = goodput(bbr, bytes, ms(20), link, p);
            print!(" {:.2} |", g * 8.0 / (mbps * 1e6));
        }
        println!();
    }
}

fn main() {
    let arm = std::env::args().nth(1).unwrap_or_default();
    match arm.as_str() {
        "item2e" => item2e(),
        "item19" => item19(),
        "item20" => item20(),
        "item21" => item21(),
        "lossy_grid" => lossy_grid(),
        _ => {
            eprintln!("usage: tcp_probe item2e|item19|item20|item21|lossy_grid");
            std::process::exit(2);
        }
    }
}
