//! Cancellable timers on top of the event engine.
//!
//! The raw engine only supports fire-and-forget closures. Protocol code (TCP
//! retransmission, delayed ACK, CoDel's interval timer...) needs timers that
//! can be cancelled or rearmed. A [`Timer`] wraps a generation counter: each
//! `arm()` bumps the generation and the scheduled closure only fires if its
//! generation is still current.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::engine::{EventFn, Simulator};
use crate::time::{SimDuration, Timestamp};

/// A cancellable, rearmable one-shot timer.
///
/// Cloning a `Timer` yields a handle to the same underlying timer.
///
/// # Example
/// ```
/// use mm_sim::{Simulator, SimDuration, Timer};
/// use std::rc::Rc;
/// use std::cell::Cell;
///
/// let mut sim = Simulator::new();
/// let fired = Rc::new(Cell::new(false));
/// let timer = Timer::new();
/// let f = fired.clone();
/// timer.arm(&mut sim, SimDuration::from_millis(10), move |_| f.set(true));
/// timer.cancel();
/// sim.run();
/// assert!(!fired.get());
/// ```
#[derive(Clone)]
pub struct Timer {
    /// Everything a pending firing has to see, in one shared cell block.
    state: Rc<TimerState>,
    /// When set, this timer registers into a shared [`TimerMux`] instead of
    /// the simulator's global queue; cancellation then physically removes
    /// the pending entry rather than leaving a dead closure behind.
    mux: Option<Rc<MuxInner>>,
    /// Dispatch tag for the event-loop profiler (doubles as the metric
    /// name the firing count exports under).
    tag: &'static str,
}

struct TimerState {
    /// Bumped by every arm and cancel; a queued firing runs only if the
    /// generation it was armed under is still current.
    generation: Cell<u64>,
    /// The instant the timer will fire, `Timestamp::NEVER` while unarmed.
    deadline: Cell<Timestamp>,
    /// The mux map key of the currently pending entry, if any.
    mux_key: Cell<Option<(Timestamp, u64)>>,
}

impl Default for Timer {
    fn default() -> Self {
        Timer::new()
    }
}

/// Default dispatch tag of [`Timer`] firings.
pub const TIMER_EVENT: &str = "sim_events_timer_total";

/// Dispatch tag of the shared [`TimerMux`] dispatcher slot.
pub const TIMER_MUX_EVENT: &str = "sim_events_timer_mux_total";

impl Timer {
    /// Create an unarmed timer.
    pub fn new() -> Self {
        Timer::tagged(TIMER_EVENT)
    }

    /// Create an unarmed timer whose firings are dispatched under `tag`
    /// in the event-loop profiler (see
    /// [`Simulator::schedule_at_tagged`]).
    pub fn tagged(tag: &'static str) -> Self {
        Timer {
            state: Rc::new(TimerState {
                generation: Cell::new(0),
                deadline: Cell::new(Timestamp::NEVER),
                mux_key: Cell::new(None),
            }),
            mux: None,
            tag,
        }
    }

    /// Create an unarmed timer whose firings route through `mux`.
    pub fn in_mux(mux: &TimerMux) -> Self {
        Timer {
            mux: Some(mux.inner.clone()),
            ..Timer::new()
        }
    }

    /// Arm (or rearm) the timer to fire `delay` from now. Any previously
    /// armed firing is superseded.
    pub fn arm(
        &self,
        sim: &mut Simulator,
        delay: SimDuration,
        f: impl FnOnce(&mut Simulator) + 'static,
    ) {
        self.arm_at(sim, sim.now() + delay, f)
    }

    /// Arm (or rearm) the timer to fire at absolute time `at`.
    pub fn arm_at(
        &self,
        sim: &mut Simulator,
        at: Timestamp,
        f: impl FnOnce(&mut Simulator) + 'static,
    ) {
        let state = self.state.clone();
        let gen = state.generation.get() + 1;
        state.generation.set(gen);
        state.deadline.set(at);
        if let Some(mux) = &self.mux {
            if let Some(old) = state.mux_key.take() {
                mux.pending.borrow_mut().remove(&old);
            }
            let key = (at, mux.next_entry_seq());
            state.mux_key.set(Some(key));
            mux.pending.borrow_mut().insert(
                key,
                Box::new(move |sim| {
                    state.mux_key.set(None);
                    state.deadline.set(Timestamp::NEVER);
                    f(sim);
                }),
            );
            mux.reschedule(sim);
            return;
        }
        sim.schedule_at_tagged(self.tag, at, move |sim| {
            if state.generation.get() == gen {
                state.deadline.set(Timestamp::NEVER);
                f(sim);
            }
        });
    }

    /// Cancel any pending firing. Idempotent.
    pub fn cancel(&self) {
        let state = &self.state;
        state.generation.set(state.generation.get() + 1);
        state.deadline.set(Timestamp::NEVER);
        if let (Some(mux), Some(key)) = (&self.mux, state.mux_key.take()) {
            mux.pending.borrow_mut().remove(&key);
        }
    }

    /// True if the timer is armed and has not yet fired or been cancelled.
    pub fn is_armed(&self) -> bool {
        self.state.deadline.get() != Timestamp::NEVER
    }

    /// The instant the timer will fire, or `Timestamp::NEVER` if unarmed.
    pub fn deadline(&self) -> Timestamp {
        self.state.deadline.get()
    }
}

/// A shared timer multiplexer: many [`Timer`]s created via
/// [`Timer::in_mux`] funnel through ONE dispatcher slot in the simulator's
/// global event queue instead of each `arm()` pushing its own closure.
///
/// Two wins at population scale (thousands of sockets, five timers each):
/// the global event queue holds at most one entry per mux regardless of how
/// many timers are armed, and cancellation/rearm *removes* the pending entry
/// from the mux's map — no dead-generation closures accumulate for the
/// engine to grind through.
///
/// Ordering: entries at the same instant fire in arm order (a per-mux
/// sequence number mirrors the engine's insertion-order tie-break).
/// Note that relative ordering *between* mux-backed timers and other
/// same-instant events differs from the global-queue path — all firings
/// due at `t` run back-to-back when the dispatcher pops — so worlds that
/// must stay byte-identical to pre-mux baselines leave the mux off.
///
/// Cloning yields another handle to the same mux.
#[derive(Clone, Default)]
pub struct TimerMux {
    inner: Rc<MuxInner>,
}

struct MuxInner {
    pending: RefCell<BTreeMap<(Timestamp, u64), EventFn>>,
    next_seq: Cell<u64>,
    dispatcher: Timer,
}

impl Default for MuxInner {
    fn default() -> Self {
        MuxInner {
            pending: RefCell::new(BTreeMap::new()),
            next_seq: Cell::new(0),
            dispatcher: Timer::tagged(TIMER_MUX_EVENT),
        }
    }
}

impl TimerMux {
    /// Create an empty mux.
    pub fn new() -> Self {
        TimerMux::default()
    }

    /// Create an unarmed timer backed by this mux (alias for
    /// [`Timer::in_mux`]).
    pub fn timer(&self) -> Timer {
        Timer::in_mux(self)
    }

    /// Number of pending (armed, not yet fired) entries.
    pub fn pending_count(&self) -> usize {
        self.inner.pending.borrow().len()
    }
}

impl MuxInner {
    fn next_entry_seq(&self) -> u64 {
        let seq = self.next_seq.get();
        self.next_seq.set(seq + 1);
        seq
    }

    /// Keep the dispatcher armed at the earliest pending deadline (or
    /// unarmed when the map is empty).
    fn reschedule(self: &Rc<Self>, sim: &mut Simulator) {
        let first = self.pending.borrow().keys().next().copied();
        match first {
            None => self.dispatcher.cancel(),
            Some((at, _)) => {
                if self.dispatcher.deadline() != at {
                    let mux = self.clone();
                    self.dispatcher.arm_at(sim, at, move |sim| mux.fire(sim));
                }
            }
        }
    }

    /// Run every entry due at the current instant, one at a time so a
    /// firing may arm further timers (including into this mux) safely.
    fn fire(self: Rc<Self>, sim: &mut Simulator) {
        loop {
            let due = {
                let mut pending = self.pending.borrow_mut();
                match pending.keys().next().copied() {
                    Some(key) if key.0 <= sim.now() => pending.remove(&key),
                    _ => None,
                }
            };
            match due {
                Some(f) => f(sim),
                None => break,
            }
        }
        self.reschedule(sim);
    }
}

/// A repeating timer that invokes a callback at a fixed period until
/// cancelled. Used for polling processes (e.g. link pacing diagnostics).
pub struct PeriodicTimer {
    inner: Timer,
}

impl PeriodicTimer {
    /// Start a periodic timer with the given period. The callback returns
    /// `true` to keep ticking, `false` to stop.
    pub fn start(
        sim: &mut Simulator,
        period: SimDuration,
        mut f: impl FnMut(&mut Simulator) -> bool + 'static,
    ) -> Self {
        assert!(!period.is_zero(), "periodic timer period must be non-zero");
        let inner = Timer::new();
        let handle = inner.clone();
        fn tick(
            sim: &mut Simulator,
            timer: Timer,
            period: SimDuration,
            mut f: impl FnMut(&mut Simulator) -> bool + 'static,
        ) {
            let t2 = timer.clone();
            timer.arm(sim, period, move |sim| {
                if f(sim) {
                    tick(sim, t2, period, f);
                }
            });
        }
        tick(sim, handle, period, move |sim| f(sim));
        PeriodicTimer { inner }
    }

    /// Stop ticking.
    pub fn cancel(&self) {
        self.inner.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn timer_fires_once() {
        let mut sim = Simulator::new();
        let count = Rc::new(Cell::new(0));
        let t = Timer::new();
        let c = count.clone();
        t.arm(&mut sim, SimDuration::from_millis(5), move |_| {
            c.set(c.get() + 1)
        });
        assert!(t.is_armed());
        sim.run();
        assert_eq!(count.get(), 1);
        assert!(!t.is_armed());
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut sim = Simulator::new();
        let fired = Rc::new(Cell::new(false));
        let t = Timer::new();
        let f = fired.clone();
        t.arm(&mut sim, SimDuration::from_millis(5), move |_| f.set(true));
        t.cancel();
        assert!(!t.is_armed());
        sim.run();
        assert!(!fired.get());
    }

    #[test]
    fn rearm_supersedes_previous() {
        let mut sim = Simulator::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let t = Timer::new();
        let l1 = log.clone();
        t.arm(&mut sim, SimDuration::from_millis(5), move |sim| {
            l1.borrow_mut().push(("old", sim.now().as_millis()))
        });
        let l2 = log.clone();
        t.arm(&mut sim, SimDuration::from_millis(9), move |sim| {
            l2.borrow_mut().push(("new", sim.now().as_millis()))
        });
        assert_eq!(t.deadline(), Timestamp::from_millis(9));
        sim.run();
        assert_eq!(*log.borrow(), vec![("new", 9)]);
    }

    #[test]
    fn rearm_after_fire_works() {
        let mut sim = Simulator::new();
        let count = Rc::new(Cell::new(0));
        let t = Timer::new();
        let c = count.clone();
        t.arm(&mut sim, SimDuration::from_millis(1), move |_| {
            c.set(c.get() + 1)
        });
        sim.run();
        let c = count.clone();
        t.arm(&mut sim, SimDuration::from_millis(1), move |_| {
            c.set(c.get() + 10)
        });
        sim.run();
        assert_eq!(count.get(), 11);
    }

    #[test]
    fn periodic_ticks_until_false() {
        let mut sim = Simulator::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let _p = PeriodicTimer::start(&mut sim, SimDuration::from_millis(10), move |sim| {
            l.borrow_mut().push(sim.now().as_millis());
            sim.now().as_millis() < 30
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![10, 20, 30]);
    }

    #[test]
    fn mux_timers_fire_in_time_then_arm_order() {
        let mut sim = Simulator::new();
        let mux = TimerMux::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let timers: Vec<Timer> = (0..4).map(|_| mux.timer()).collect();
        for (tag, delay_ms) in [(0u64, 7u64), (1, 3), (2, 7), (3, 3)] {
            let l = log.clone();
            timers[tag as usize].arm(&mut sim, SimDuration::from_millis(delay_ms), move |_| {
                l.borrow_mut().push(tag)
            });
        }
        sim.run();
        // Earliest deadline first; same-deadline entries in arm order.
        assert_eq!(*log.borrow(), vec![1, 3, 0, 2]);
    }

    #[test]
    fn mux_shares_one_heap_slot() {
        let mut sim = Simulator::new();
        let mux = TimerMux::new();
        let timers: Vec<Timer> = (0..100).map(|_| mux.timer()).collect();
        for (i, t) in timers.iter().enumerate() {
            t.arm(&mut sim, SimDuration::from_millis(1 + i as u64), |_| {});
        }
        assert_eq!(mux.pending_count(), 100);
        // 100 armed timers, one dispatcher entry in the engine's heap.
        assert_eq!(sim.pending_events(), 1);
        sim.run();
        assert_eq!(mux.pending_count(), 0);
    }

    #[test]
    fn mux_cancel_removes_entry() {
        let mut sim = Simulator::new();
        let mux = TimerMux::new();
        let fired = Rc::new(Cell::new(false));
        let t = mux.timer();
        let f = fired.clone();
        t.arm(&mut sim, SimDuration::from_millis(5), move |_| f.set(true));
        assert_eq!(mux.pending_count(), 1);
        t.cancel();
        // Physically removed — not a dead generation left to grind through.
        assert_eq!(mux.pending_count(), 0);
        assert!(!t.is_armed());
        sim.run();
        assert!(!fired.get());
    }

    #[test]
    fn mux_rearm_supersedes_previous() {
        let mut sim = Simulator::new();
        let mux = TimerMux::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let t = mux.timer();
        let l1 = log.clone();
        t.arm(&mut sim, SimDuration::from_millis(5), move |sim| {
            l1.borrow_mut().push(("old", sim.now().as_millis()))
        });
        let l2 = log.clone();
        t.arm(&mut sim, SimDuration::from_millis(9), move |sim| {
            l2.borrow_mut().push(("new", sim.now().as_millis()))
        });
        assert_eq!(mux.pending_count(), 1);
        assert_eq!(t.deadline(), Timestamp::from_millis(9));
        sim.run();
        assert_eq!(*log.borrow(), vec![("new", 9)]);
    }

    #[test]
    fn mux_firing_can_rearm_itself() {
        let mut sim = Simulator::new();
        let mux = TimerMux::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let t = mux.timer();
        let t2 = t.clone();
        let l = log.clone();
        t.arm(&mut sim, SimDuration::from_millis(10), move |sim| {
            l.borrow_mut().push(sim.now().as_millis());
            let l2 = l.clone();
            t2.arm(sim, SimDuration::from_millis(10), move |sim| {
                l2.borrow_mut().push(sim.now().as_millis());
            });
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![10, 20]);
    }

    #[test]
    fn mux_and_plain_timers_coexist() {
        let mut sim = Simulator::new();
        let mux = TimerMux::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let muxed = mux.timer();
        let plain = Timer::new();
        let l1 = log.clone();
        muxed.arm(&mut sim, SimDuration::from_millis(4), move |_| {
            l1.borrow_mut().push("muxed")
        });
        let l2 = log.clone();
        plain.arm(&mut sim, SimDuration::from_millis(2), move |_| {
            l2.borrow_mut().push("plain")
        });
        sim.run();
        assert_eq!(*log.borrow(), vec!["plain", "muxed"]);
    }

    #[test]
    fn periodic_cancel_stops_ticks() {
        let mut sim = Simulator::new();
        let count = Rc::new(Cell::new(0u32));
        let c = count.clone();
        let p = PeriodicTimer::start(&mut sim, SimDuration::from_millis(10), move |_| {
            c.set(c.get() + 1);
            true
        });
        sim.run_until(Timestamp::from_millis(35));
        p.cancel();
        sim.run_until(Timestamp::from_millis(100));
        assert_eq!(count.get(), 3);
    }
}
