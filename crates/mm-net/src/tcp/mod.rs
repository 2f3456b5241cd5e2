//! Simplified-but-complete TCP: handshake, reliable byte stream, NewReno /
//! CUBIC / BBR congestion control, RFC 6298 timers, and a tiered opt-in
//! loss recovery ladder ([`socket::RecoveryTier`]): RFC 2018/6675 SACK
//! recovery ([`sack`]: blocks, scoreboard, RFC 3042 limited transmit,
//! PRR) and RACK-TLP/F-RTO time-based loss detection ([`rack`]: RFC 8985
//! delivery-time inference, tail loss probes, RFC 5682 spurious-timeout
//! undo). The rate-control subsystem — per-connection delivery-rate
//! estimation ([`rate`]), timer-driven packet pacing ([`pacing`],
//! `TcpConfig::pacing`), and the model-based [`cc::Bbr`] controller
//! built on both — layers on without touching the loss-based defaults.
//!
//! One connection is one `TcpInner`, implemented along the RFCs' seams
//! (DESIGN.md §18): [`socket`] holds the public types, the handshake and
//! close state machine and the five timers; `sender.rs` the send queue,
//! window and pacing gates, retransmission queue and ACK processing;
//! `receiver.rs` reassembly and ACK generation; `recovery.rs` the one
//! `LossRecovery` that makes every decision of the negotiated tier. See
//! DESIGN.md §2–§4 for the documented simplifications.

pub mod cc;
pub mod pacing;
pub mod rack;
pub mod rate;
mod receiver;
mod recovery;
pub mod retx;
pub mod rtt;
pub mod sack;
mod sender;
pub mod socket;

pub use cc::{Bbr, CcAlgorithm, CongestionControl, Cubic, Reno, INITIAL_WINDOW};
pub use pacing::{Pacer, PACING_GAIN_CA, PACING_GAIN_SS};
pub use rack::{FrtoState, RackState};
pub use rate::{MinRttFilter, RateEstimator, RateSample, TxRecord, WindowedMaxBw};
pub use rtt::RttEstimator;
pub use sack::{ReceiverSack, Scoreboard, DUP_THRESH};
pub use socket::{
    RecoveryTier, SocketApp, SocketEvent, TcpConfig, TcpConfigBuilder, TcpHandle, TcpState,
    TcpStats, WeakTcpHandle,
};
