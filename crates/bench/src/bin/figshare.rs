//! figshare — population-scale contention: N concurrent users (a page
//! load plus a bulk download each) through one shared delay+link
//! bottleneck, swept over qdisc {droptail32, droptail256, codel} × CC
//! mix {all-Reno, all-BBR, 50/50 BBR+Reno} × protocol {http1, mux}.
//!
//! Reports Jain's fairness index over per-user bulk goodputs, the
//! population's PLT p50/p95/p99, the BBR share of aggregate goodput
//! (the 50/50 coexistence measurement — recorded as measured, see
//! DESIGN.md §6), and the bottleneck queue's high-water mark.
//!
//! `figshare <n>` runs populations {2, 16, 64} up to `n` (plus `n`
//! itself, so `figshare 1024` adds a 1024-user arm); `figshare <n>
//! smoke` runs only `n` users on two cells (the CI configuration).
//! Writes `BENCH_figshare.json`.

use bench::cli::ExperimentSpec;
use bench::report::key_fragment;
use bench::{figshare, FIGCELL_DELAY_MS, FIGSHARE_BULK_BYTES};

fn main() {
    ExperimentSpec {
        name: "figshare",
        default_sites: 64,
        word: Some("smoke"),
        title: |n| {
            format!(
                "figshare — many-flow contention on one bottleneck (up to {n} users, \
                 {}ms RTT, {} KB bulk/user)",
                FIGCELL_DELAY_MS * 2,
                FIGSHARE_BULK_BYTES / 1000
            )
        },
        run: |n, smoke, seed, recording| {
            if smoke {
                println!("  (smoke configuration: {n} users, 2 cells)");
            }
            let r = figshare(n, smoke, seed, recording);
            println!(
                "  {:>5} {:<12} {:<9} {:<6} | {:>6} {:>9} {:>9} {:>9} | {:>7} {:>6}",
                "users", "qdisc", "mix", "proto", "jain", "p50", "p95", "p99", "bbr%", "maxq"
            );
            let mut metrics: Vec<(String, f64)> = Vec::new();
            for cell in &r.cells {
                println!(
                    "  {:>5} {:<12} {:<9} {:<6} | {:>6.3} {:>7.0}ms {:>7.0}ms {:>7.0}ms | {:>6.1}% {:>6}",
                    cell.n_users,
                    cell.qdisc,
                    cell.cc_mix,
                    cell.protocol,
                    cell.fairness,
                    cell.plt_p50_ms,
                    cell.plt_p95_ms,
                    cell.plt_p99_ms,
                    cell.bbr_share * 100.0,
                    cell.max_queue_packets,
                );
                let key = format!(
                    "{}u_{}_{}_{}",
                    cell.n_users,
                    key_fragment(&cell.qdisc),
                    cell.cc_mix,
                    cell.protocol
                );
                metrics.push((format!("jain_{key}"), cell.fairness));
                metrics.push((format!("plt_p50_ms_{key}"), cell.plt_p50_ms));
                metrics.push((format!("plt_p95_ms_{key}"), cell.plt_p95_ms));
                metrics.push((format!("plt_p99_ms_{key}"), cell.plt_p99_ms));
                metrics.push((format!("bbr_share_{key}"), cell.bbr_share));
                metrics.push((format!("max_queue_pkts_{key}"), cell.max_queue_packets as f64));
            }
            println!();
            println!("  jain = Jain's fairness index over per-user bulk goodputs; bbr% = share");
            println!("  of aggregate bulk goodput on BBR senders (0% all-Reno, 100% all-BBR);");
            println!("  maxq = bottleneck downlink queue high-water mark in packets. Every");
            println!("  cell reuses the same site, arrivals and seeds (per-user pairing).");
            Some(metrics)
        },
    }
    .main()
}
