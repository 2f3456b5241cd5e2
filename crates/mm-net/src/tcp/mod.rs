//! Simplified-but-complete TCP: handshake, reliable byte stream, NewReno /
//! CUBIC / BBR congestion control, RFC 6298 timers, the opt-in loss
//! recovery tiers ([`RecoveryTier`]: SACK with [`sack`], RACK-TLP and
//! F-RTO with [`rack`]), delivery-rate sampling ([`rate`]) and pacing
//! ([`pacing`]). One connection is one struct split along the RFCs'
//! seams: [`socket`] (public types, handshake, close, timers), the
//! sender, the receiver, and loss recovery. What is modelled, and every
//! simplification, is DESIGN.md §3.

mod cc;
mod deque;
pub mod pacing;
pub mod rack;
pub mod rate;
mod receiver;
mod recovery;
mod rtt;
pub mod sack;
mod sender;
pub mod socket;

pub use cc::CcAlgorithm;
pub use socket::{
    RecoveryTier, SocketApp, SocketEvent, TcpConfig, TcpConfigBuilder, TcpHandle, TcpState,
    TcpStats, WeakTcpHandle,
};
