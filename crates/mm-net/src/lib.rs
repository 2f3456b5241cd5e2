//! # mm-net — the virtual network substrate
//!
//! Everything Mahimahi gets from the Linux kernel, rebuilt inside the
//! deterministic simulator: addressing ([`IpAddr`], [`SocketAddr`]),
//! packets ([`Packet`]), composable forwarding elements ([`PacketSink`]),
//! network namespaces with isolation counters ([`Namespace`]), virtual
//! hosts ([`Host`]) and a TCP implementation ([`tcp`]).
//!
//! The namespace tree mirrors Mahimahi's nested-shell structure: each shell
//! owns a namespace attached to its parent through the shell's packet
//! processors, and per-namespace counters make the paper's isolation claims
//! directly testable.

mod addr;
mod conn;
mod fabric;
mod hash;
mod host;
mod packet;
mod sink;
pub mod tcp;

pub use addr::{IpAddr, Origin, SocketAddr};
pub use conn::{ConnId, ConnTable};
pub use fabric::{Namespace, NsCounters};
pub use host::{Host, HostNoise, HostStats, Listener, PacketIdGen};
pub use packet::{Packet, SackBlock, SackBlocks, SackOption, TcpFlags, TcpSegment, MSS, MTU};
pub use sink::{FnSink, PacketSink, SinkRef};
pub use tcp::{
    CcAlgorithm, RecoveryTier, SocketApp, SocketEvent, TcpConfig, TcpConfigBuilder, TcpHandle,
    TcpState, TcpStats, WeakTcpHandle,
};
