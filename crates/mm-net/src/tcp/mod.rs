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
//! See [`socket`] for the state machine and DESIGN.md for the
//! documented simplifications.

pub mod cc;
pub mod pacing;
pub mod rack;
pub mod rate;
pub mod retx;
pub mod rtt;
pub mod sack;
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
