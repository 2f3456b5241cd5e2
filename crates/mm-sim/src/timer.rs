//! Cancellable timers on top of the event engine.
//!
//! The raw engine only supports fire-and-forget events. Protocol code (TCP
//! retransmission, tail loss probes, CoDel's interval timer...) needs timers that
//! can be cancelled or rearmed. A [`Timer`] wraps a generation counter: each
//! arm bumps the generation and the filed event only fires if its
//! generation is still current.
//!
//! A [`Timer`] is armed by closure: [`Timer::arm_at`] takes one per arm —
//! the general form, one allocation each. Timers whose handler is known
//! up front are a [`TimerBank`]: given its handler once, it files
//! `(bank, slot and generation)` with the engine on every
//! [`TimerBank::rearm_at`] and allocates nothing — the same entries in
//! the queue, one allocation for the lot (DESIGN.md §1). A socket keeps
//! its timers so (`mm-net`'s `tcp/socket.rs` lists them); a timer with a
//! bound handler is a bank of one.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::num::NonZeroU64;
use std::rc::Rc;

use crate::engine::{Event, EventTarget, Simulator};
use crate::time::{SimDuration, Timestamp};

/// What a [`TimerBank`] runs when one of its timers fires: one handler
/// for all of them, told which. A handler that needs the bank's owner
/// holds it weakly — the owner owns the bank, the bank its handler.
pub trait BankHandler {
    /// Timer `slot` fired (it was not cancelled or re-armed since).
    fn on_fire(&self, sim: &mut Simulator, slot: usize);
}

/// The handler of a [`Timer`]: none, it is armed by closure only.
struct Unbound;

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
    bank: TimerBank<Unbound, 1>,
}

/// `N` timers that share one handler and one allocation: each slot is
/// armed, re-armed and cancelled on its own, and files one queue entry
/// per arm under the same tag, as a [`Timer`] of its own would — so `N`
/// timers and a bank of `N` are indistinguishable from the queue's side
/// (DESIGN.md §1). A timer with a bound handler is a `TimerBank<H, 1>`.
///
/// Cloning a `TimerBank` yields a handle to the same timers.
pub struct TimerBank<H, const N: usize> {
    /// Everything a pending firing has to see, in one shared cell block.
    state: Rc<BankState<H, N>>,
    /// When set, these timers register into a shared [`TimerMux`] instead
    /// of the simulator's global queue; cancellation then physically
    /// removes the pending entry rather than leaving a dead event behind.
    mux: Option<Rc<MuxInner>>,
    /// Dispatch tag for the event-loop profiler (doubles as the metric
    /// name the firing count exports under).
    tag: &'static str,
}

struct BankState<H, const N: usize> {
    slots: [Slot; N],
    handler: H,
}

/// One timer's state.
struct Slot {
    /// Bumped by every arm and cancel; a queued firing runs only if the
    /// generation it was armed under is still current.
    generation: Cell<u64>,
    /// The instant the timer will fire, `Timestamp::NEVER` while unarmed.
    deadline: Cell<Timestamp>,
    /// The pending mux entry's sequence number, if there is one; its map
    /// key is `(deadline, sequence)`.
    mux_seq: Cell<Option<NonZeroU64>>,
}

impl Slot {
    /// A firing armed under `gen` came due: true if it is still the
    /// current one, in which case the timer is now unarmed. A superseded
    /// generation still pops from the queue — and counts as an executed
    /// event — it just does nothing.
    fn take_fire(&self, gen: u64) -> bool {
        let current = self.generation.get() == gen;
        if current {
            self.mux_seq.set(None);
            self.deadline.set(Timestamp::NEVER);
        }
        current
    }
}

/// A bank's state is the event target; the token is the slot and the
/// generation the firing was armed under, `generation * N + slot` — for a
/// lone timer, the generation.
impl<H: BankHandler, const N: usize> EventTarget for BankState<H, N> {
    fn on_event(self: Rc<Self>, sim: &mut Simulator, token: u64) {
        let (gen, slot) = (token / N as u64, (token % N as u64) as usize);
        if self.slots[slot].take_fire(gen) {
            self.handler.on_fire(sim, slot);
        }
    }
}

impl<H, const N: usize> Clone for TimerBank<H, N> {
    fn clone(&self) -> Self {
        TimerBank {
            state: self.state.clone(),
            mux: self.mux.clone(),
            tag: self.tag,
        }
    }
}

impl Default for Timer {
    fn default() -> Self {
        Timer::new()
    }
}

/// Default dispatch tag of [`Timer`] firings.
pub(crate) const TIMER_EVENT: &str = "sim_events_timer_total";

/// Dispatch tag of the shared [`TimerMux`] dispatcher slot.
pub(crate) const TIMER_MUX_EVENT: &str = "sim_events_timer_mux_total";

impl Timer {
    /// Create an unarmed timer.
    pub fn new() -> Self {
        Timer {
            bank: TimerBank::build(Unbound, None, TIMER_EVENT),
        }
    }

    /// Create an unarmed timer whose firings route through `mux`.
    pub(crate) fn in_mux(mux: &TimerMux) -> Self {
        Timer {
            bank: TimerBank::build(Unbound, Some(mux), TIMER_EVENT),
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
        let bank = &self.bank;
        let gen = bank.supersede(0, at);
        let state = bank.state.clone();
        let fire = move |sim: &mut Simulator| {
            if state.slots[0].take_fire(gen) {
                f(sim);
            }
        };
        match &bank.mux {
            Some(mux) => bank.arm_in_mux(0, mux, sim, at, Event::Call(Box::new(fire))),
            None => sim.schedule_at_tagged(bank.tag, at, fire),
        }
    }

    /// Cancel any pending firing. Idempotent.
    pub fn cancel(&self) {
        self.bank.cancel(0);
    }

    /// True if the timer is armed and has not yet fired or been cancelled.
    pub fn is_armed(&self) -> bool {
        self.bank.is_armed(0)
    }

    /// The instant the timer will fire, or `Timestamp::NEVER` if unarmed.
    pub fn deadline(&self) -> Timestamp {
        self.bank.deadline(0)
    }
}

impl<H, const N: usize> TimerBank<H, N> {
    fn build(handler: H, mux: Option<&TimerMux>, tag: &'static str) -> Self {
        let slot = || Slot {
            generation: Cell::new(0),
            deadline: Cell::new(Timestamp::NEVER),
            mux_seq: Cell::new(None),
        };
        TimerBank {
            state: Rc::new(BankState {
                slots: std::array::from_fn(|_| slot()),
                handler,
            }),
            mux: mux.map(|m| m.inner.clone()),
            tag,
        }
    }

    /// Supersede any pending firing of `slot` — bump the generation, and
    /// take the pending entry out of the mux (before `deadline`, half of
    /// its key, moves) — and record the new deadline. Returns the new
    /// generation.
    fn supersede(&self, slot: usize, deadline: Timestamp) -> u64 {
        let state = &self.state.slots[slot];
        if let (Some(mux), Some(seq)) = (&self.mux, state.mux_seq.take()) {
            let key = (state.deadline.get(), seq.get());
            mux.pending.borrow_mut().remove(&key);
        }
        let gen = state.generation.get() + 1;
        state.generation.set(gen);
        state.deadline.set(deadline);
        gen
    }

    /// File `event`, a firing of `slot`, in this bank's mux.
    fn arm_in_mux(
        &self,
        slot: usize,
        mux: &Rc<MuxInner>,
        sim: &mut Simulator,
        at: Timestamp,
        event: Event,
    ) {
        let seq = mux.next_entry_seq();
        self.state.slots[slot].mux_seq.set(Some(seq));
        mux.pending.borrow_mut().insert((at, seq.get()), event);
        mux.reschedule(sim);
    }

    /// Cancel any pending firing of timer `slot`. Idempotent.
    pub fn cancel(&self, slot: usize) {
        self.supersede(slot, Timestamp::NEVER);
    }

    /// True if timer `slot` is armed and has not yet fired or been
    /// cancelled.
    pub fn is_armed(&self, slot: usize) -> bool {
        self.deadline(slot) != Timestamp::NEVER
    }

    /// The instant timer `slot` will fire, or `Timestamp::NEVER` if
    /// unarmed.
    pub fn deadline(&self, slot: usize) -> Timestamp {
        self.state.slots[slot].deadline.get()
    }
}

impl<H: BankHandler + 'static, const N: usize> TimerBank<H, N> {
    /// Create `N` unarmed timers that run `handler` whenever one fires,
    /// routed through `mux` if given.
    pub fn bound(handler: H, mux: Option<&TimerMux>) -> Self {
        TimerBank::build(handler, mux, TIMER_EVENT)
    }

    /// Arm (or rearm) timer `slot` to fire at `at`: the same queue entry,
    /// in the same place, as [`Timer::arm_at`] files — without
    /// allocating.
    pub fn rearm_at(&self, sim: &mut Simulator, slot: usize, at: Timestamp) {
        let token = self.supersede(slot, at) * N as u64 + slot as u64;
        let target: Rc<dyn EventTarget> = self.state.clone();
        match &self.mux {
            Some(mux) => self.arm_in_mux(slot, mux, sim, at, Event::Notify(target, token)),
            None => sim.schedule_target_at(self.tag, at, target, token),
        }
    }
}

/// A shared timer multiplexer: many [`Timer`]s created via
/// `Timer::in_mux` funnel through ONE dispatcher slot in the simulator's
/// global event queue instead of each `arm()` pushing its own closure.
///
/// Two wins at population scale (thousands of sockets, several timers each):
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
    pending: RefCell<BTreeMap<(Timestamp, u64), Event>>,
    next_seq: Cell<NonZeroU64>,
    /// The dispatcher slot: the mux files *itself* with the engine under
    /// a generation, as a timer does — a superseded slot pops as a no-op.
    dispatch_gen: Cell<u64>,
    /// The instant of the current slot, `Timestamp::NEVER` while none.
    dispatch_at: Cell<Timestamp>,
}

impl Default for MuxInner {
    fn default() -> Self {
        MuxInner {
            pending: RefCell::new(BTreeMap::new()),
            next_seq: Cell::new(NonZeroU64::MIN),
            dispatch_gen: Cell::new(0),
            dispatch_at: Cell::new(Timestamp::NEVER),
        }
    }
}

impl TimerMux {
    /// Create an empty mux.
    pub fn new() -> Self {
        TimerMux::default()
    }

    /// Create an unarmed timer backed by this mux (alias for
    /// `Timer::in_mux`).
    pub fn timer(&self) -> Timer {
        Timer::in_mux(self)
    }

    /// Number of pending (armed, not yet fired) entries.
    pub fn pending_count(&self) -> usize {
        self.inner.pending.borrow().len()
    }
}

impl MuxInner {
    fn next_entry_seq(&self) -> NonZeroU64 {
        let seq = self.next_seq.get();
        self.next_seq
            .set(seq.checked_add(1).expect("2^64 timer arms"));
        seq
    }

    /// Keep the dispatcher armed at the earliest pending deadline (or
    /// unarmed when the map is empty).
    fn reschedule(self: &Rc<Self>, sim: &mut Simulator) {
        let first = self
            .pending
            .borrow()
            .first_key_value()
            .map(|(key, _)| key.0);
        if first == Some(self.dispatch_at.get()) {
            return;
        }
        let gen = self.dispatch_gen.get() + 1;
        self.dispatch_gen.set(gen);
        self.dispatch_at.set(first.unwrap_or(Timestamp::NEVER));
        if let Some(at) = first {
            sim.schedule_target_at(TIMER_MUX_EVENT, at, self.clone(), gen);
        }
    }
}

/// The dispatcher slot came due: run every entry due at the current
/// instant, one at a time so a firing may arm further timers (including
/// into this mux) safely.
impl EventTarget for MuxInner {
    fn on_event(self: Rc<Self>, sim: &mut Simulator, gen: u64) {
        if self.dispatch_gen.get() != gen {
            return;
        }
        self.dispatch_at.set(Timestamp::NEVER);
        loop {
            let due = {
                let mut pending = self.pending.borrow_mut();
                match pending.first_entry() {
                    Some(first) if first.key().0 <= sim.now() => first.remove(),
                    _ => break,
                }
            };
            due.run(sim);
        }
        self.reschedule(sim);
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

    /// A bank handler that runs a closure.
    struct Run<F>(F);

    impl<F: Fn(&mut Simulator)> BankHandler for Run<F> {
        fn on_fire(&self, sim: &mut Simulator, _slot: usize) {
            (self.0)(sim)
        }
    }

    /// A timer with a bound handler: a bank of one.
    fn bound<F: Fn(&mut Simulator) + 'static>(
        handler: F,
        mux: Option<&TimerMux>,
    ) -> TimerBank<Run<F>, 1> {
        TimerBank::bound(Run(handler), mux)
    }

    /// A closure-armed timer, in `mux` if given.
    fn closure_timer(mux: Option<&TimerMux>) -> Timer {
        mux.map_or_else(Timer::new, TimerMux::timer)
    }

    /// Arm a timer five times for ever-later deadlines, by closure or as
    /// a bank of one with a bound handler, and report (firings, events
    /// executed).
    fn rearm_five_times(by_handler: bool, mux: Option<&TimerMux>) -> (u32, u64) {
        let mut sim = Simulator::new();
        let fired = Rc::new(Cell::new(0u32));
        let f = fired.clone();
        let handler = move |_: &mut Simulator| f.set(f.get() + 1);
        let timer = closure_timer(mux);
        let bank = bound(handler.clone(), mux);
        for ms in 1..=5u64 {
            let at = Timestamp::from_millis(ms);
            if by_handler {
                bank.rearm_at(&mut sim, 0, at);
            } else {
                timer.arm_at(&mut sim, at, handler.clone());
            }
        }
        let deadline = if by_handler {
            bank.deadline(0)
        } else {
            timer.deadline()
        };
        assert_eq!(deadline, Timestamp::from_millis(5));
        assert_eq!(sim.run(), crate::RunResult::QueueEmpty);
        assert_eq!(sim.now(), Timestamp::from_millis(5));
        assert!(!timer.is_armed() && !bank.is_armed(0));
        (fired.get(), sim.events_executed())
    }

    #[test]
    fn bound_rearm_files_what_a_closure_arm_files() {
        // Five arms are five queue entries; the four superseded ones
        // still pop, and count, and do nothing.
        assert_eq!(rearm_five_times(false, None), (1, 5));
        assert_eq!(rearm_five_times(true, None), (1, 5));
    }

    #[test]
    fn bound_rearm_through_a_mux_files_what_a_closure_arm_files() {
        // In a mux a rearm replaces the entry; what is left to count is
        // the dispatcher slot, re-filed once per new earliest deadline.
        let by_closure = rearm_five_times(false, Some(&TimerMux::new()));
        assert_eq!(by_closure.0, 1);
        assert_eq!(rearm_five_times(true, Some(&TimerMux::new())), by_closure);
    }

    /// Arm at 2 ms, re-arm at 4 ms and run; re-arm at 6 ms, cancel and
    /// run — by closure or as a bank of one with a bound handler — and
    /// report (the instants it fired at, events executed).
    fn arm_rearm_cancel(by_handler: bool) -> (Vec<u64>, u64) {
        let mut sim = Simulator::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let handler = move |sim: &mut Simulator| l.borrow_mut().push(sim.now().as_millis());
        let timer = Timer::new();
        let bank = bound(handler.clone(), None);
        let arm = |sim: &mut Simulator, ms| {
            let at = Timestamp::from_millis(ms);
            if by_handler {
                bank.rearm_at(sim, 0, at);
            } else {
                timer.arm_at(sim, at, handler.clone());
            }
        };
        arm(&mut sim, 2);
        arm(&mut sim, 4);
        sim.run();
        arm(&mut sim, 6);
        timer.cancel();
        bank.cancel(0);
        sim.run();
        let fired = log.borrow().clone();
        (fired, sim.events_executed())
    }

    #[test]
    fn bound_and_closure_arms_supersede_each_other() {
        // A re-arm supersedes the pending firing and a cancel the re-arm,
        // bound or by closure alike; the superseded entries still pop.
        assert_eq!(arm_rearm_cancel(false), (vec![4], 3));
        assert_eq!(arm_rearm_cancel(true), (vec![4], 3));
    }

    #[test]
    fn same_instant_bound_and_closure_timers_fire_in_arm_order() {
        for mux in [None, Some(TimerMux::new())] {
            let mut sim = Simulator::new();
            let log = Rc::new(RefCell::new(Vec::new()));
            let at = Timestamp::from_millis(3);
            let push = |tag: u32| {
                let l = log.clone();
                move |_: &mut Simulator| l.borrow_mut().push(tag)
            };
            let (bound0, bound2) = (bound(push(0), mux.as_ref()), bound(push(2), mux.as_ref()));
            let (timer1, timer3) = (closure_timer(mux.as_ref()), closure_timer(mux.as_ref()));
            bound0.rearm_at(&mut sim, 0, at);
            timer1.arm_at(&mut sim, at, push(11));
            bound2.rearm_at(&mut sim, 0, at);
            timer3.arm_at(&mut sim, at, push(13));
            sim.run();
            assert_eq!(*log.borrow(), vec![0, 11, 2, 13]);
        }
    }
}
