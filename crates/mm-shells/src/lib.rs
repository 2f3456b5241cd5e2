//! # mm-shells — composable network-emulation shells
//!
//! The Rust rendering of Mahimahi's emulation shells: [`DelayShell`]
//! (fixed one-way delay), [`LinkShell`] (trace-driven delivery
//! opportunities with pluggable [`Qdisc`] disciplines), [`LossShell`]
//! (i.i.d. loss) and [`ShellStack`] (nesting, like nesting mahimahi
//! processes). [`ObservedQdisc`] is how a link's queue is observed.
//! [`transfer`] is the one bulk TCP transfer built over them.

mod compose;
mod delay;
mod link;
mod loss;
mod queue;
mod tap;
pub mod transfer;

/// What the unit tests push through a shell: packet `id`, an ACK from
/// 1.1.1.1:1 to 2.2.2.2:2 carrying `payload` zero bytes.
#[cfg(test)]
pub(crate) fn pkt(id: u64, payload: usize) -> mm_net::Packet {
    use mm_net::{IpAddr, SocketAddr, TcpFlags, TcpSegment};
    mm_net::Packet {
        id,
        src: SocketAddr::new(IpAddr::new(1, 1, 1, 1), 1),
        dst: SocketAddr::new(IpAddr::new(2, 2, 2, 2), 2),
        segment: TcpSegment {
            flags: TcpFlags::ACK,
            seq: 0,
            ack: 0,
            window: 0,
            sack: Default::default(),
            payload: bytes::Bytes::from(vec![0; payload]),
        },
        corrupted: false,
    }
}

pub use compose::{ShellLayer, ShellStack};
pub use delay::{delay_shell, DelayLink, DelayShell};
pub use link::{LinkShell, TraceLink, TraceLinkSink};
pub use loss::{LossLink, LossShell, LossStats};
pub use queue::{CoDel, DropHead, DropTail, EnqueueResult, Pie, Qdisc, QdiscStats, QueueLimit};
pub use tap::{InstrumentedQdisc, ObservedQdisc, TappedQdisc};
