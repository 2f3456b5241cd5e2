//! # mm-sim — deterministic discrete-event simulation engine
//!
//! The substrate every other `mahimahi-rs` crate builds on: a single-threaded
//! event loop with integer-nanosecond virtual time ([`Simulator`]),
//! cancellable timers ([`Timer`]), named deterministic RNG streams
//! ([`RngStream`]), the sampling distributions the workload models need
//! ([`dist`]), and the summary statistics the experiments report ([`stats`]).
//!
//! Design rules (see DESIGN.md §1):
//! * **Bit-identical runs.** Integer time, tie-breaking by insertion order,
//!   and label-forked RNG streams make a run a pure function of its seed.
//! * **Single-threaded.** Actor state lives in `Rc<RefCell<_>>` captured by
//!   event closures; there is no cross-thread shared state to race on.

pub mod dist;
pub mod engine;
mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timer;

pub use engine::{EngineProfile, EventTarget, RunResult, Simulator, UNTAGGED_EVENT};
pub use rng::RngStream;
pub use stats::{jain_fairness, Summary};
pub use time::{SimDuration, Timestamp};
pub use timer::{BankHandler, Timer, TimerBank, TimerHandler, TimerMux, Unbound};
