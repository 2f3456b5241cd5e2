//! # mm-shells — composable network-emulation shells
//!
//! The Rust rendering of Mahimahi's emulation shells: [`DelayShell`]
//! (fixed one-way delay), [`LinkShell`] (trace-driven delivery
//! opportunities with pluggable [`Qdisc`] disciplines), [`LossShell`]
//! (i.i.d. loss) and [`ShellStack`] (nesting, like nesting mahimahi
//! processes).

mod compose;
mod delay;
mod link;
mod loss;
mod queue;
mod tap;

pub use compose::{ShellLayer, ShellStack};
pub use delay::{delay_shell, DelayLink, DelayShell};
pub use link::{LinkShell, OpportunityPolicy, TraceLink, TraceLinkSink};
pub use loss::{LossLink, LossShell, LossStats};
pub use queue::{
    factories, CoDel, DropHead, DropTail, EnqueueResult, InstrumentedQdisc, Pie, Qdisc,
    QdiscFactory, QdiscStats, QueueLimit,
};
pub use tap::TappedQdisc;
