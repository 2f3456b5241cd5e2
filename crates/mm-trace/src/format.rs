//! The Mahimahi packet-delivery trace format.
//!
//! A trace file is a list of integer millisecond timestamps, one per line,
//! each a *packet-delivery opportunity*: an instant at which the emulated
//! link can deliver one MTU-sized (1500-byte) packet. Rates above one
//! packet per millisecond are expressed by repeating timestamps. When
//! emulation reaches the end of a trace, the trace repeats (wraps) with its
//! last timestamp as the period — exactly `mm-link`'s semantics.

use std::fmt;
use std::sync::Arc;

/// The MTU assumed by the trace format, bytes per delivery opportunity.
pub(crate) const TRACE_MTU: usize = 1500;

/// Errors loading a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The trace has no delivery opportunities.
    Empty,
    /// A line was not a non-negative integer.
    BadLine { line_no: usize, content: String },
    /// Timestamps must be non-decreasing.
    NotMonotonic { line_no: usize },
    /// The final timestamp (the period) must be positive.
    ZeroDuration,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace contains no delivery opportunities"),
            TraceError::BadLine { line_no, content } => {
                write!(f, "trace line {line_no}: not a timestamp: {content:?}")
            }
            TraceError::NotMonotonic { line_no } => {
                write!(f, "trace line {line_no}: timestamps must be non-decreasing")
            }
            TraceError::ZeroDuration => write!(f, "trace period must be positive"),
        }
    }
}

impl std::error::Error for TraceError {}

/// An immutable, validated packet-delivery trace. A clone shares its
/// timestamps: a link per direction and per load reads one copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Millisecond timestamps, non-decreasing.
    deliveries_ms: Arc<[u64]>,
    /// Period of the trace: its last timestamp.
    period_ms: u64,
}

impl Trace {
    /// Build from raw timestamps. Validates monotonicity and a positive
    /// period.
    pub fn from_timestamps(deliveries_ms: Vec<u64>) -> Result<Trace, TraceError> {
        if deliveries_ms.is_empty() {
            return Err(TraceError::Empty);
        }
        for (i, w) in deliveries_ms.windows(2).enumerate() {
            if w[1] < w[0] {
                return Err(TraceError::NotMonotonic { line_no: i + 2 });
            }
        }
        let period_ms = *deliveries_ms.last().unwrap();
        if period_ms == 0 {
            return Err(TraceError::ZeroDuration);
        }
        Ok(Trace {
            deliveries_ms: deliveries_ms.into(),
            period_ms,
        })
    }

    /// Parse the on-disk format: one integer per line; blank lines and
    /// `#` comments tolerated.
    pub fn parse(text: &str) -> Result<Trace, TraceError> {
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let ts: u64 = line.parse().map_err(|_| TraceError::BadLine {
                line_no: i + 1,
                content: line.to_string(),
            })?;
            out.push(ts);
        }
        Trace::from_timestamps(out)
    }

    /// Serialize to the on-disk format.
    pub fn to_file_format(&self) -> String {
        let mut s = String::with_capacity(self.deliveries_ms.len() * 6);
        for ts in self.deliveries_ms.iter() {
            s.push_str(&ts.to_string());
            s.push('\n');
        }
        s
    }

    /// Number of opportunities in one period.
    pub fn len(&self) -> usize {
        self.deliveries_ms.len()
    }

    /// Never true: construction rejects empty traces.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The trace period in milliseconds.
    pub fn period_ms(&self) -> u64 {
        self.period_ms
    }

    /// The opportunity timestamps of one period, milliseconds,
    /// non-decreasing (what capture metadata embeds so offline analyzers
    /// can reconstruct the capacity series).
    pub fn deliveries_ms(&self) -> &[u64] {
        &self.deliveries_ms
    }

    /// Timestamp (ms) of the `i`-th delivery opportunity, wrapping the
    /// trace indefinitely: `t(i) = (i / n) * period + deliveries[i % n]`.
    pub fn opportunity_ms(&self, i: u64) -> u64 {
        let n = self.deliveries_ms.len() as u64;
        (i / n) * self.period_ms + self.deliveries_ms[(i % n) as usize]
    }

    /// Index of the first opportunity at or after `t_ms`. Pairing with
    /// [`Trace::opportunity_ms`] lets a link walk opportunities from any
    /// starting time.
    pub fn first_opportunity_at_or_after(&self, t_ms: u64) -> u64 {
        let n = self.deliveries_ms.len() as u64;
        let cycle = t_ms / self.period_ms;
        let offset = t_ms % self.period_ms;
        // Binary search within one period, then walk back over any equal
        // timestamps straddling the cycle boundary (a trace whose last
        // entry equals its period has an opportunity exactly at each
        // boundary instant).
        let idx = self.deliveries_ms.partition_point(|&d| d < offset) as u64;
        let mut candidate = cycle * n + idx;
        while candidate > 0 && self.opportunity_ms(candidate - 1) >= t_ms {
            candidate -= 1;
        }
        debug_assert!(self.opportunity_ms(candidate) >= t_ms);
        candidate
    }

    /// Average rate over one period, in Mbit/s, assuming MTU-sized use of
    /// every opportunity.
    pub fn mean_rate_mbps(&self) -> f64 {
        let bits = (self.len() * TRACE_MTU * 8) as f64;
        let secs = self.period_ms as f64 / 1000.0;
        bits / secs / 1e6
    }

    /// Per-window delivered-opportunity counts (for plotting rate over
    /// time); `window_ms` must be positive.
    pub fn rate_timeseries(&self, window_ms: u64) -> Vec<(u64, f64)> {
        assert!(window_ms > 0);
        let windows = self.period_ms.div_ceil(window_ms);
        let mut counts = vec![0u64; windows as usize];
        for &d in self.deliveries_ms.iter() {
            let w = (d.min(self.period_ms - 1)) / window_ms;
            counts[w as usize] += 1;
        }
        counts
            .iter()
            .enumerate()
            .map(|(w, &c)| {
                let mbps = (c as f64 * TRACE_MTU as f64 * 8.0) / (window_ms as f64 / 1000.0) / 1e6;
                (w as u64 * window_ms, mbps)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_serialize_round_trip() {
        let t = Trace::parse("0\n5\n5\n10\n").unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.period_ms(), 10);
        assert_eq!(t.to_file_format(), "0\n5\n5\n10\n");
        let t2 = Trace::parse(&t.to_file_format()).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn comments_and_blanks_tolerated() {
        let t = Trace::parse("# cellular trace\n\n1\n2\n\n# end\n3\n").unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn rejects_empty_and_garbage() {
        assert_eq!(Trace::parse(""), Err(TraceError::Empty));
        assert!(matches!(
            Trace::parse("1\nxyz\n"),
            Err(TraceError::BadLine { line_no: 2, .. })
        ));
        assert_eq!(
            Trace::parse("5\n3\n"),
            Err(TraceError::NotMonotonic { line_no: 2 })
        );
        assert_eq!(Trace::parse("0\n0\n"), Err(TraceError::ZeroDuration));
    }

    #[test]
    fn wrap_formula() {
        let t = Trace::from_timestamps(vec![2, 4, 10]).unwrap();
        assert_eq!(t.opportunity_ms(0), 2);
        assert_eq!(t.opportunity_ms(1), 4);
        assert_eq!(t.opportunity_ms(2), 10);
        // Second cycle adds the 10 ms period.
        assert_eq!(t.opportunity_ms(3), 12);
        assert_eq!(t.opportunity_ms(4), 14);
        assert_eq!(t.opportunity_ms(5), 20);
        assert_eq!(t.opportunity_ms(6), 22);
    }

    #[test]
    fn first_opportunity_search() {
        let t = Trace::from_timestamps(vec![2, 4, 10]).unwrap();
        assert_eq!(t.first_opportunity_at_or_after(0), 0); // ts 2
        assert_eq!(t.first_opportunity_at_or_after(2), 0);
        assert_eq!(t.first_opportunity_at_or_after(3), 1); // ts 4
        assert_eq!(t.first_opportunity_at_or_after(5), 2); // ts 10
        assert_eq!(t.first_opportunity_at_or_after(11), 3); // ts 12 (wrap)

        // Boundary instant: t=20 is exactly opportunity 5 (10 + period).
        assert_eq!(t.first_opportunity_at_or_after(20), 5);
        assert_eq!(t.opportunity_ms(5), 20);
        // Exhaustive invariant sweep: the returned index is the first at
        // or after t.
        for t_ms in 0..60 {
            let i = t.first_opportunity_at_or_after(t_ms);
            assert!(t.opportunity_ms(i) >= t_ms, "t={t_ms}");
            if i > 0 {
                assert!(t.opportunity_ms(i - 1) < t_ms, "t={t_ms}");
            }
        }
    }

    #[test]
    fn mean_rate_computation() {
        // 1000 opportunities over 1000 ms = 1 opp/ms = 12 Mbit/s.
        let t = Trace::from_timestamps((1..=1000).collect()).unwrap();
        assert!((t.mean_rate_mbps() - 12.0).abs() < 0.05);
    }

    #[test]
    fn rate_timeseries_windows() {
        let t = Trace::from_timestamps(vec![1, 2, 3, 4, 5, 100]).unwrap();
        let series = t.rate_timeseries(50);
        assert_eq!(series.len(), 2);
        // First window holds 5 opportunities, second 1.
        assert!(series[0].1 > series[1].1);
    }
}
