//! # mahimahi — a lightweight toolkit for reproducible web measurement, in Rust
//!
//! A full reimplementation of the Mahimahi toolkit (Netravali et al.,
//! SIGCOMM 2014) on a deterministic network simulator: record websites
//! ([`mm_record::RecordShell`]), replay them preserving their multi-origin
//! structure ([`mm_replay::ReplayShell`]), and measure applications under
//! emulated network conditions (DelayShell, LinkShell, LossShell —
//! [`mm_shells`]), all inside isolated virtual network namespaces.
//!
//! The [`harness`] module is the front door for measurements:
//!
//! ```
//! use mahimahi::harness::{run_page_load, LoadSpec, NetSpec};
//! use mahimahi::corpus;
//! use mm_sim::RngStream;
//!
//! // Build a small synthetic recorded site and load it through a 30 ms
//! // delay shell.
//! let plan = corpus::plan_site(990, &corpus::SiteParams {
//!     servers: Some(4),
//!     median_objects: 10.0,
//!     ..Default::default()
//! }, &mut RngStream::from_seed(1));
//! let site = corpus::materialize(&plan);
//! let mut spec = LoadSpec::new(&site);
//! spec.net = NetSpec::delay_ms(30);
//! let result = run_page_load(&spec);
//! assert!(result.plt.as_millis() > 60); // at least one round trip
//! ```

pub mod fleet;
pub mod harness;
pub mod obs;
pub mod soak;
mod world;

/// The corpus site every unit test here loads.
#[cfg(test)]
pub(crate) fn test_site(seed: u64, servers: usize, median_objects: f64) -> mm_record::StoredSite {
    let params = mm_corpus::SiteParams {
        servers: Some(servers),
        median_objects,
        ..mm_corpus::SiteParams::default()
    };
    mm_corpus::materialize(&mm_corpus::plan_site(
        seed as usize,
        &params,
        &mut mm_sim::RngStream::from_seed(seed),
    ))
}

/// Re-exports of the subsystems measurements are built from.
pub use mm_browser as browser;
pub use mm_corpus as corpus;
pub use mm_metrics as metrics;
pub use mm_net as net;
pub use mm_record as record;
pub use mm_trace as trace;
