//! Flow-control accounting.
//!
//! Two small state machines, used on both ends of a connection:
//!
//! * `FlowWindow` — the sender's view of how many DATA bytes it may
//!   still put on the wire (per stream and per connection). Consumed as
//!   frames are sent, replenished by WINDOW_UPDATE.
//! * `WindowRefill` — the receiver's accounting of consumed bytes,
//!   deciding when to emit a WINDOW_UPDATE. Updates are batched until
//!   half the window has been consumed, halving update traffic versus
//!   per-frame acks while never letting the sender's window run dry as
//!   long as updates arrive within an RTT.

/// A sender-side flow-control window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FlowWindow {
    available: u64,
}

impl FlowWindow {
    /// A window with `initial` bytes of credit.
    pub(crate) fn new(initial: u64) -> FlowWindow {
        FlowWindow { available: initial }
    }

    /// Bytes that may still be sent.
    pub(crate) fn available(&self) -> u64 {
        self.available
    }

    /// True when no DATA may be sent.
    pub(crate) fn is_blocked(&self) -> bool {
        self.available == 0
    }

    /// Spend `n` bytes of credit. Panics if `n` exceeds the available
    /// window — callers size frames from [`Self::available`] first, so
    /// overspending is a protocol-logic bug, not a wire condition.
    pub(crate) fn consume(&mut self, n: u64) {
        assert!(
            n <= self.available,
            "flow-control overspend: {} > {}",
            n,
            self.available
        );
        self.available -= n;
    }

    /// Add `n` bytes of credit (a WINDOW_UPDATE arrived).
    pub(crate) fn grant(&mut self, n: u64) {
        self.available = self.available.saturating_add(n);
    }
}

/// Receiver-side accounting that batches WINDOW_UPDATEs.
#[derive(Debug, Clone)]
pub(crate) struct WindowRefill {
    window: u64,
    consumed_since_update: u64,
}

impl WindowRefill {
    /// Accounting for a window of `window` bytes.
    pub(crate) fn new(window: u64) -> WindowRefill {
        WindowRefill {
            window,
            consumed_since_update: 0,
        }
    }

    /// Record `n` consumed bytes. Returns the increment to advertise in a
    /// WINDOW_UPDATE once at least half the window has been consumed
    /// since the last one, `None` while batching.
    pub(crate) fn consumed(&mut self, n: u64) -> Option<u64> {
        self.consumed_since_update += n;
        if self.consumed_since_update * 2 >= self.window {
            Some(std::mem::take(&mut self.consumed_since_update))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consume_and_grant_balance() {
        let mut w = FlowWindow::new(100);
        w.consume(60);
        assert_eq!(w.available(), 40);
        assert!(!w.is_blocked());
        w.consume(40);
        assert!(w.is_blocked());
        w.grant(25);
        assert_eq!(w.available(), 25);
    }

    #[test]
    #[should_panic(expected = "flow-control overspend")]
    fn overspend_panics() {
        let mut w = FlowWindow::new(10);
        w.consume(11);
    }

    #[test]
    fn grant_saturates() {
        let mut w = FlowWindow::new(u64::MAX - 1);
        w.grant(100);
        assert_eq!(w.available(), u64::MAX);
    }

    #[test]
    fn refill_batches_until_half_window() {
        let mut r = WindowRefill::new(100);
        assert_eq!(r.consumed(20), None);
        assert_eq!(r.consumed(20), None);
        // 40 + 10 = 50 = half the window: flush the whole batch.
        assert_eq!(r.consumed(10), Some(50));
        // Counter reset; batching starts over.
        assert_eq!(r.consumed(49), None);
        assert_eq!(r.consumed(1), Some(50));
    }

    #[test]
    fn refill_flushes_big_single_consumption() {
        let mut r = WindowRefill::new(64);
        assert_eq!(r.consumed(64), Some(64));
    }
}
