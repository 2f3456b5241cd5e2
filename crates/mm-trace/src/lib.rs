//! # mm-trace — Mahimahi packet-delivery traces and causal spans
//!
//! The trace file format ([`format`](mod@format): parse, validate, serialize, wrap
//! semantics) and synthetic generators ([`generate`]: constant-bit-rate,
//! cellular-like Markov-modulated, on-off). LinkShell consumes these.
//!
//! The crate also hosts the causal span layer ([`span`]): a [`SpanSink`]
//! observer trait plus a bounded [`TraceBuffer`] the whole stack records
//! typed, parented wait intervals into — the raw material for `mmpath`'s
//! critical-path PLT attribution. Its JSONL, the audit report's and the
//! capture reader's share one flat-object scanner ([`jsonl`]).

pub mod format;
pub mod generate;
pub mod jsonl;
pub mod span;

pub use format::{Trace, TraceError};
pub use generate::{cellular, constant_rate, on_off, CellularParams};
pub use span::{
    parse_spans_jsonl, FanoutSpan, Span, SpanHandle, SpanKind, SpanSink, TraceBuffer, NO_RESOURCE,
};
