//! # mm-shells — composable network-emulation shells
//!
//! The Rust rendering of Mahimahi's emulation shells: [`DelayShell`]
//! (fixed one-way delay), [`LinkShell`] (trace-driven delivery
//! opportunities with pluggable [`Qdisc`] disciplines), [`LossShell`]
//! (i.i.d. loss) and [`ShellStack`] (nesting, like nesting mahimahi
//! processes). [`ObservedQdisc`] is how a link's queue is observed.

mod compose;
mod delay;
mod link;
mod loss;
mod queue;
mod tap;

pub use compose::{ShellLayer, ShellStack};
pub use delay::{delay_shell, DelayLink, DelayShell};
pub use link::{LinkShell, TraceLink, TraceLinkSink};
pub use loss::{LossLink, LossShell, LossStats};
pub use queue::{CoDel, DropHead, DropTail, EnqueueResult, Pie, Qdisc, QdiscStats, QueueLimit};
pub use tap::{InstrumentedQdisc, ObservedQdisc, TappedQdisc};
