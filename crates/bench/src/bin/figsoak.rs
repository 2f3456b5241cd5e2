//! figsoak — the long-lived serving soak: one multi-origin replay
//! world serving open-loop Poisson session arrivals (one browser
//! session per second on average, 32-slot admission pool) over the
//! figshare bottleneck, for simulated hours.
//!
//! Reports throughput (requests/sec), session PLT tails, and the
//! leak-detector high-water marks: server connection-table occupancy,
//! client socket-pool occupancy, retransmission-queue and SACK
//! scoreboard sizes. The run panics if anything stays tabled after the
//! drain or occupancy exceeds the concurrency bound, so every
//! invocation doubles as a memory-bounds assertion.
//!
//! `figsoak <minutes>` soaks for that much simulated time (default
//! 30); CI runs `figsoak 2`. Writes
//! `BENCH_figsoak.json` plus `METRICS_figsoak.prom`, the validated
//! Prometheus text snapshot of everything the world exported.

use bench::cli::ExperimentSpec;
use bench::{figsoak, FIGSHARE_DOWN_MBPS, FIGSHARE_UP_MBPS, FIGSOAK_MAX_LIVE};

fn main() {
    ExperimentSpec {
        name: "figsoak",
        default_sites: 30,
        word: None,
        title: |n| {
            format!(
                "figsoak — long-lived serving soak ({n} simulated minutes, \
                 {FIGSHARE_DOWN_MBPS}/{FIGSHARE_UP_MBPS} Mbit/s bottleneck, \
                 {FIGSOAK_MAX_LIVE}-slot pool)"
            )
        },
        run: |minutes, _, seed, recording| {
            let report = figsoak(minutes, seed, recording);
            let r = &report.result;
            println!(
                "  sessions: {} started, {} completed, {} shed | {} resources, {} failures",
                r.sessions_started,
                r.sessions_completed,
                r.sessions_shed,
                r.resources_fetched,
                r.failures
            );
            println!(
                "  throughput: {:.1} requests/sec over {:.0} simulated seconds",
                r.requests_per_sec,
                r.completed_at.as_secs_f64()
            );
            println!(
                "  session PLT: p50 {:.0} ms, p95 {:.0} ms, p99 {:.0} ms",
                r.plt_p50_ms, r.plt_p95_ms, r.plt_p99_ms
            );
            println!(
                "  high-water marks: {} server conns (final {}), {} client sockets \
                 (final {})",
                r.server_conn_high_water,
                r.server_conns_final,
                r.client_socket_high_water,
                r.client_sockets_final
            );
            println!(
                "  socket internals: retx queue ≤ {} entries, SACK scoreboard ≤ {} ranges",
                r.max_retx_queue, r.max_scoreboard_ranges
            );
            println!("\n  per-origin breakdown ({} origins):", r.per_origin.len());
            println!(
                "    {:<22} {:>7} {:>5} {:>11} {:>9} {:>9} {:>9}",
                "origin", "reqs", "fail", "body bytes", "p50 ms", "p95 ms", "p99 ms"
            );
            let mut origins = r.per_origin.clone();
            origins.sort_by(|a, b| b.requests.cmp(&a.requests).then(a.origin.cmp(&b.origin)));
            for o in &origins {
                println!(
                    "    {:<22} {:>7} {:>5} {:>11} {:>9.1} {:>9.1} {:>9.1}",
                    o.origin,
                    o.requests,
                    o.failures,
                    o.body_bytes,
                    o.svc_p50_ms,
                    o.svc_p95_ms,
                    o.svc_p99_ms
                );
            }
            match std::fs::write("METRICS_figsoak.prom", &report.snapshot) {
                Ok(()) => println!(
                    "\n  wrote METRICS_figsoak.prom ({} series)",
                    report
                        .snapshot
                        .lines()
                        .filter(|l| !l.starts_with('#') && !l.is_empty())
                        .count()
                ),
                Err(e) => eprintln!("\n  could not write METRICS_figsoak.prom: {e}"),
            }
            Some(vec![
                ("sessions_started".into(), r.sessions_started as f64),
                ("sessions_completed".into(), r.sessions_completed as f64),
                ("sessions_shed".into(), r.sessions_shed as f64),
                ("resources_fetched".into(), r.resources_fetched as f64),
                ("failures".into(), r.failures as f64),
                ("requests_per_sec".into(), r.requests_per_sec),
                ("plt_p50_ms".into(), r.plt_p50_ms),
                ("plt_p95_ms".into(), r.plt_p95_ms),
                ("plt_p99_ms".into(), r.plt_p99_ms),
                (
                    "server_conn_high_water".into(),
                    r.server_conn_high_water as f64,
                ),
                (
                    "client_socket_high_water".into(),
                    r.client_socket_high_water as f64,
                ),
                ("max_retx_queue".into(), r.max_retx_queue as f64),
                (
                    "max_scoreboard_ranges".into(),
                    r.max_scoreboard_ranges as f64,
                ),
                ("completed_at_s".into(), r.completed_at.as_secs_f64()),
                ("origins".into(), r.per_origin.len() as f64),
            ])
        },
    }
    .main()
}
