//! Virtual time for the discrete-event simulator.
//!
//! All simulation time is kept as integer nanoseconds since the start of the
//! simulation. Integer time (rather than `f64` seconds) keeps event ordering
//! exact and runs bit-identical across platforms, which the reproducibility
//! experiments (Table 1 of the paper) rely on.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A span of virtual time, in nanoseconds.
///
/// `SimDuration` mirrors `std::time::Duration` but is guaranteed to be a
/// plain `u64` of nanoseconds so arithmetic is exact and cheap inside the
/// event loop.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds. Panics on negative or
    /// non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration seconds: {s}");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncated).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiply by an integer factor (saturating).
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Scale by a float factor (e.g. RTO backoff). Panics if `factor` is
    /// negative or NaN.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid factor {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == u64::MAX {
            write!(f, "inf")
        } else if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// An instant in virtual time: nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The simulation epoch (t = 0).
    pub const ZERO: Timestamp = Timestamp(0);

    /// The far future; events at `Timestamp::NEVER` never fire.
    pub const NEVER: Timestamp = Timestamp(u64::MAX);

    /// Construct from nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        Timestamp(ns)
    }

    /// Construct from milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        Timestamp(ms * 1_000_000)
    }

    /// Construct from whole seconds since the epoch.
    pub const fn from_secs(s: u64) -> Self {
        Timestamp(s * 1_000_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since the epoch (truncated).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`. Panics if `earlier` is in the future.
    pub fn duration_since(self, earlier: Timestamp) -> SimDuration {
        assert!(
            self.0 >= earlier.0,
            "duration_since: {earlier} is after {self}"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Time elapsed since `earlier`, or zero if `earlier` is in the future.
    pub fn saturating_duration_since(self, earlier: Timestamp) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: SimDuration) -> Timestamp {
        Timestamp(self.0.saturating_add(rhs.as_nanos()))
    }
}

impl AddAssign<SimDuration> for Timestamp {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.as_nanos());
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = SimDuration;
    fn sub(self, rhs: Timestamp) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            write!(f, "t=never")
        } else {
            write!(f, "t={:.6}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2000));
        assert_eq!(SimDuration::from_millis(3), SimDuration::from_micros(3000));
        assert_eq!(SimDuration::from_micros(5), SimDuration::from_nanos(5000));
        assert_eq!(
            SimDuration::from_secs_f64(0.25),
            SimDuration::from_millis(250)
        );
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(10);
        let b = SimDuration::from_millis(4);
        assert_eq!(a + b, SimDuration::from_millis(14));
        assert_eq!(a - b, SimDuration::from_millis(6));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a.saturating_mul(3), SimDuration::from_millis(30));
        assert_eq!(a.mul_f64(1.5), SimDuration::from_millis(15));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn timestamp_arithmetic() {
        let t0 = Timestamp::from_millis(100);
        let t1 = t0 + SimDuration::from_millis(50);
        assert_eq!(t1.as_millis(), 150);
        assert_eq!(t1 - t0, SimDuration::from_millis(50));
        assert_eq!(t0.saturating_duration_since(t1), SimDuration::ZERO);
    }

    #[test]
    #[should_panic]
    fn duration_since_panics_when_reversed() {
        let t0 = Timestamp::from_millis(100);
        let t1 = Timestamp::from_millis(200);
        let _ = t0.duration_since(t1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", SimDuration::from_micros(7)), "7.000us");
        assert_eq!(format!("{}", SimDuration::from_nanos(9)), "9ns");
    }

    #[test]
    fn never_is_after_everything() {
        assert!(Timestamp::NEVER > Timestamp::from_secs(1_000_000));
    }
}
