//! # mm-net — the virtual network substrate
//!
//! Everything Mahimahi gets from the Linux kernel, rebuilt inside the
//! deterministic simulator: addressing ([`addr`]), packets ([`packet`]),
//! composable forwarding elements ([`sink`]), network namespaces with
//! isolation counters ([`fabric`]), fault injection ([`fault`]), virtual
//! hosts ([`host`]) and a TCP implementation ([`tcp`]).
//!
//! The namespace tree mirrors Mahimahi's nested-shell structure: each shell
//! owns a namespace attached to its parent through the shell's packet
//! processors, and per-namespace counters make the paper's isolation claims
//! directly testable.

pub mod addr;
pub mod conn;
pub mod fabric;
pub mod fault;
mod hash;
pub mod host;
pub mod packet;
pub mod sink;
pub mod tcp;

pub use addr::{IpAddr, Origin, SocketAddr};
pub use conn::{ConnId, ConnTable};
pub use fabric::{Namespace, NsCounters};
pub use host::{Host, HostNoise, HostStats, Listener, PacketIdGen};
pub use packet::{Packet, SackBlock, SackOption, TcpFlags, TcpSegment, HEADER_BYTES, MSS, MTU};
pub use sink::{BlackHole, Capture, FnSink, PacketSink, SinkRef, Tap};
pub use tcp::{
    CcAlgorithm, RecoveryTier, SocketApp, SocketEvent, TcpConfig, TcpConfigBuilder, TcpHandle,
    TcpState, TcpStats, WeakTcpHandle,
};
