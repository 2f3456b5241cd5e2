//! # mahimahi-rs — workspace facade
//!
//! Re-exports the [`mahimahi`] facade crate (`crates/core`), which is the
//! front door to the toolkit: the measurement [`harness`](mahimahi::harness),
//! the fleet and soak worlds, and the subsystems measurements are built
//! from (`net`, `record`, `browser`, `corpus`, `trace`, `metrics`).
//!
//! The workspace-level integration tests in `tests/` and the runnable
//! walkthroughs in `examples/` build against this crate.

pub use mahimahi;
