//! # mm-replay — ReplayShell
//!
//! The replay half of the toolkit: per-origin virtual servers bound to the
//! recorded addresses ([`ReplayShell`]), mahimahi's request-matching
//! algorithm ([`Matcher`]) over an indexed store ([`StoreIndex`]), and
//! response normalization for the wire. The single-server ablation
//! the paper evaluates is a mode, not a fork.

mod matcher;
mod normalize;
mod server;
mod store_index;

pub use matcher::Matcher;
pub use server::{ReplayConfig, ReplayMode, ReplayShell, ServerProtocol};
pub use store_index::StoreIndex;
