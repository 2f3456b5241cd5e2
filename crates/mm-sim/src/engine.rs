//! The discrete-event engine.
//!
//! A [`Simulator`] owns a queue of scheduled events. An event is either a
//! boxed closure that receives `&mut Simulator` — the general form, one
//! allocation per event — or a long-lived [`EventTarget`] plus a token,
//! which the per-packet senders file without allocating (DESIGN.md §1).
//! Handlers can schedule further events; actor state lives in
//! `Rc<RefCell<_>>` handles (the simulation is single-threaded by design —
//! determinism is a core requirement).
//!
//! Ties in timestamp are broken by insertion order, which makes runs
//! bit-identical for a given seed. The queue (`queue.rs`) keeps
//! that order by construction rather than by comparing sequence numbers.

use std::rc::Rc;

use crate::queue::{EventQueue, Scheduled};
use crate::time::{SimDuration, Timestamp};

/// An event handler: a one-shot closure run at its scheduled instant.
pub(crate) type EventFn = Box<dyn FnOnce(&mut Simulator)>;

/// A long-lived receiver of events: an actor that files *itself* with
/// [`Simulator::schedule_target_at`] instead of boxing a closure per
/// event. What the event means is the actor's own state (the head of a
/// FIFO, say) plus the `token` it filed.
pub trait EventTarget {
    /// Run the event filed with `token`, at its scheduled instant.
    fn on_event(self: Rc<Self>, sim: &mut Simulator, token: u64);
}

/// What a queue entry runs. Both forms occupy the same queue slot, so
/// they interleave in insertion order at one timestamp like any events.
pub(crate) enum Event {
    Call(EventFn),
    Notify(Rc<dyn EventTarget>, u64),
}

impl Event {
    pub(crate) fn run(self, sim: &mut Simulator) {
        match self {
            Event::Call(f) => f(sim),
            Event::Notify(target, token) => target.on_event(sim, token),
        }
    }
}

/// The dispatch tag given to events scheduled through the untagged
/// `schedule_*` methods. Tags double as metric names (see
/// [`EngineProfile::export`]), so every tag follows the
/// `sim_events_<component>_total` convention.
pub const UNTAGGED_EVENT: &str = "sim_events_untagged_total";

/// Event-loop profile: per-component dispatch counts (keyed by the tag
/// each component passes to `Simulator::schedule_at_tagged`) and the
/// high-water occupancy of the event queue. Collected only while
/// [`Simulator::enable_profiler`] is on; profiling observes dispatch
/// and never perturbs event order.
#[derive(Debug, Default, Clone)]
pub struct EngineProfile {
    /// Dispatch counts per tag, in first-seen order. A handful of
    /// distinct `&'static str` tags, so a pointer-equality linear scan
    /// beats hashing on the per-event path (same trick as the metrics
    /// sink's instrument cache).
    counts: Vec<(&'static str, u64)>,
    heap_high_water: usize,
}

impl EngineProfile {
    fn bump(&mut self, tag: &'static str) {
        for (t, n) in self.counts.iter_mut() {
            if std::ptr::eq(*t, tag) || *t == tag {
                *n += 1;
                return;
            }
        }
        self.counts.push((tag, 1));
    }

    /// Most events ever pending in the event queue at once.
    pub fn heap_high_water(&self) -> usize {
        self.heap_high_water
    }

    /// Export the profile through a metrics sink: one counter per tag
    /// (the tag is the metric name) plus the heap high-water gauge.
    /// Counters accumulate in the sink, so export once per run.
    pub fn export(&self, sink: &dyn mm_metrics::MetricsSink) {
        for (tag, n) in &self.counts {
            sink.counter_add(tag, *n);
        }
        sink.gauge_set("sim_heap_high_water_events", self.heap_high_water as f64);
    }
}

/// Why [`Simulator::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunResult {
    /// The event queue drained completely.
    QueueEmpty,
    /// The configured horizon was reached with events still pending.
    HorizonReached,
    /// The event-count limit was hit (runaway-loop guard).
    EventLimit,
}

/// Deterministic single-threaded discrete-event simulator.
///
/// # Example
/// ```
/// use mm_sim::{Simulator, SimDuration};
/// use std::rc::Rc;
/// use std::cell::RefCell;
///
/// let mut sim = Simulator::new();
/// let hits = Rc::new(RefCell::new(Vec::new()));
/// let h = hits.clone();
/// sim.schedule_in(SimDuration::from_millis(5), move |sim| {
///     h.borrow_mut().push(sim.now().as_millis());
/// });
/// sim.run();
/// assert_eq!(*hits.borrow(), vec![5]);
/// ```
pub struct Simulator {
    now: Timestamp,
    queue: EventQueue,
    events_executed: u64,
    event_limit: u64,
    profile: Option<Box<EngineProfile>>,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// A generous default guard against runaway event loops.
    const DEFAULT_EVENT_LIMIT: u64 = 2_000_000_000;

    /// Create a simulator at t = 0 with an empty queue.
    pub fn new() -> Self {
        Simulator {
            now: Timestamp::ZERO,
            queue: EventQueue::new(),
            events_executed: 0,
            event_limit: Self::DEFAULT_EVENT_LIMIT,
            profile: None,
        }
    }

    /// Start collecting an [`EngineProfile`] (per-tag dispatch counts
    /// and heap high-water). Idempotent; profiling only observes, so
    /// the simulation is byte-identical with it on or off.
    pub fn enable_profiler(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(Box::default());
        }
    }

    /// The collected profile, if [`enable_profiler`](Self::enable_profiler)
    /// was called.
    pub fn profile(&self) -> Option<&EngineProfile> {
        self.profile.as_deref()
    }

    /// Current virtual time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.events_executed
    }

    /// Number of events currently pending.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `f` to run at absolute time `at`.
    ///
    /// Panics if `at` is in the past — an event scheduled before `now`
    /// indicates a logic error in the caller, and silently clamping it
    /// would mask causality bugs.
    pub fn schedule_at(&mut self, at: Timestamp, f: impl FnOnce(&mut Simulator) + 'static) {
        self.schedule_at_tagged(UNTAGGED_EVENT, at, f);
    }

    /// [`schedule_at`](Self::schedule_at) with a component tag for the
    /// event-loop profiler. The tag doubles as the metric name the
    /// dispatch count exports under, so use the
    /// `sim_events_<component>_total` convention.
    pub(crate) fn schedule_at_tagged(
        &mut self,
        tag: &'static str,
        at: Timestamp,
        f: impl FnOnce(&mut Simulator) + 'static,
    ) {
        self.file(tag, at, Event::Call(Box::new(f)));
    }

    /// File `target` to receive [`EventTarget::on_event`] with `token` at
    /// `at`: `schedule_at_tagged` without the
    /// allocation. The entry holds `target` until it runs, as a closure
    /// holds what it captured.
    pub fn schedule_target_at(
        &mut self,
        tag: &'static str,
        at: Timestamp,
        target: Rc<dyn EventTarget>,
        token: u64,
    ) {
        self.file(tag, at, Event::Notify(target, token));
    }

    fn file(&mut self, tag: &'static str, at: Timestamp, event: Event) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: {at} < {}",
            self.now
        );
        self.queue.push(Scheduled { at, tag, event });
        if let Some(p) = &mut self.profile {
            p.heap_high_water = p.heap_high_water.max(self.queue.len());
        }
    }

    /// Schedule `f` to run `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, f: impl FnOnce(&mut Simulator) + 'static) {
        self.schedule_at(self.now + delay, f);
    }

    /// [`schedule_in`](Self::schedule_in) with a component tag for the
    /// event-loop profiler (see `schedule_at_tagged`).
    pub fn schedule_in_tagged(
        &mut self,
        tag: &'static str,
        delay: SimDuration,
        f: impl FnOnce(&mut Simulator) + 'static,
    ) {
        self.schedule_at_tagged(tag, self.now + delay, f);
    }

    /// Schedule `f` to run at the current instant, after all handlers
    /// already queued for this instant.
    pub fn schedule_now(&mut self, f: impl FnOnce(&mut Simulator) + 'static) {
        self.schedule_at(self.now, f);
    }

    /// Pop and run a single event, advancing the clock to its timestamp.
    /// Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some(ev) => {
                debug_assert!(ev.at >= self.now);
                self.now = ev.at;
                self.events_executed += 1;
                if let Some(p) = &mut self.profile {
                    p.bump(ev.tag);
                }
                ev.event.run(self);
                true
            }
            None => false,
        }
    }

    /// Run until the queue drains or the event limit trips.
    pub fn run(&mut self) -> RunResult {
        self.run_until(Timestamp::NEVER)
    }

    /// Run until `horizon` (inclusive of events *at* the horizon), the queue
    /// drains, or the event limit trips. The clock is left at the horizon
    /// if it was reached with events still pending.
    pub fn run_until(&mut self, horizon: Timestamp) -> RunResult {
        loop {
            if self.events_executed >= self.event_limit {
                return RunResult::EventLimit;
            }
            let Some(next_at) = self.queue.next_deadline() else {
                return RunResult::QueueEmpty;
            };
            if next_at > horizon {
                if horizon != Timestamp::NEVER {
                    self.now = horizon;
                }
                return RunResult::HorizonReached;
            }
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    type SharedLog = Rc<RefCell<Vec<u64>>>;

    fn recorder() -> (SharedLog, SharedLog) {
        let v = Rc::new(RefCell::new(Vec::new()));
        (v.clone(), v)
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulator::new();
        let (log, handle) = recorder();
        for ms in [30u64, 10, 20] {
            let h = handle.clone();
            sim.schedule_at(Timestamp::from_millis(ms), move |sim| {
                h.borrow_mut().push(sim.now().as_millis());
            });
        }
        assert_eq!(sim.run(), RunResult::QueueEmpty);
        assert_eq!(*log.borrow(), vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim = Simulator::new();
        let (log, handle) = recorder();
        for tag in 0u64..5 {
            let h = handle.clone();
            sim.schedule_at(Timestamp::from_millis(7), move |_| {
                h.borrow_mut().push(tag);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_hundred_thousand_ties_keep_insertion_order() {
        let mut sim = Simulator::new();
        let (log, handle) = recorder();
        // An earlier event first, so the ties are filed, re-filed when the
        // clock reaches them, and joined by latecomers from a handler.
        let late = handle.clone();
        sim.schedule_at(Timestamp::from_millis(1), move |sim| {
            for tag in 100_000u64..100_010 {
                let h = late.clone();
                sim.schedule_at(Timestamp::from_millis(7), move |_| h.borrow_mut().push(tag));
            }
        });
        for tag in 0u64..100_000 {
            let h = handle.clone();
            sim.schedule_at(Timestamp::from_millis(7), move |_| h.borrow_mut().push(tag));
        }
        sim.run();
        assert_eq!(sim.events_executed(), 100_011);
        assert!(log.borrow().iter().copied().eq(0u64..100_010));
    }

    #[test]
    fn deadline_zero_and_never_are_ordinary_deadlines() {
        let mut sim = Simulator::new();
        let (log, handle) = recorder();
        for (tag, at) in [
            (3u64, Timestamp::NEVER),
            (0, Timestamp::ZERO),
            (2, Timestamp::from_nanos(u64::MAX - 1)),
            (1, Timestamp::ZERO),
        ] {
            let h = handle.clone();
            sim.schedule_at(at, move |sim| {
                h.borrow_mut().push(tag);
                if tag == 3 {
                    // Even at the end of time, "now" is a legal deadline.
                    let h = h.clone();
                    sim.schedule_now(move |_| h.borrow_mut().push(4));
                }
            });
        }
        assert!(sim.step());
        assert_eq!(sim.now(), Timestamp::ZERO);
        assert_eq!(sim.run(), RunResult::QueueEmpty);
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
        assert_eq!(sim.now(), Timestamp::NEVER);
    }

    #[test]
    fn may_schedule_below_the_next_deadline_after_a_bounded_run() {
        let mut sim = Simulator::new();
        let (log, handle) = recorder();
        let at = |ms: u64, tag: u64, sim: &mut Simulator| {
            let h = handle.clone();
            sim.schedule_at(Timestamp::from_millis(ms), move |_| {
                h.borrow_mut().push(tag)
            });
        };
        at(5, 0, &mut sim);
        at(900, 3, &mut sim);
        // Stops at 10 ms having looked at, but not reached, 900 ms.
        assert_eq!(
            sim.run_until(Timestamp::from_millis(10)),
            RunResult::HorizonReached
        );
        at(10, 1, &mut sim);
        at(400, 2, &mut sim);
        at(900, 4, &mut sim);
        assert_eq!(sim.run(), RunResult::QueueEmpty);
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut sim = Simulator::new();
        let (log, handle) = recorder();
        sim.schedule_in(SimDuration::from_millis(1), move |sim| {
            let h2 = handle.clone();
            sim.schedule_in(SimDuration::from_millis(2), move |sim| {
                h2.borrow_mut().push(sim.now().as_millis());
            });
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![3]);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = Simulator::new();
        let (log, handle) = recorder();
        for ms in [5u64, 15] {
            let h = handle.clone();
            sim.schedule_at(Timestamp::from_millis(ms), move |sim| {
                h.borrow_mut().push(sim.now().as_millis());
            });
        }
        let r = sim.run_until(Timestamp::from_millis(10));
        assert_eq!(r, RunResult::HorizonReached);
        assert_eq!(*log.borrow(), vec![5]);
        assert_eq!(sim.now(), Timestamp::from_millis(10));
        sim.run();
        assert_eq!(*log.borrow(), vec![5, 15]);
    }

    #[test]
    fn horizon_inclusive_of_events_at_horizon() {
        let mut sim = Simulator::new();
        let (log, handle) = recorder();
        sim.schedule_at(Timestamp::from_millis(10), move |sim| {
            handle.borrow_mut().push(sim.now().as_millis());
        });
        sim.run_until(Timestamp::from_millis(10));
        assert_eq!(*log.borrow(), vec![10]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule_at(Timestamp::from_millis(10), |sim| {
            sim.schedule_at(Timestamp::from_millis(5), |_| {});
        });
        sim.run();
    }

    #[test]
    fn event_limit_guards_runaway_loops() {
        let mut sim = Simulator::new();
        sim.event_limit = 100;
        fn reschedule(sim: &mut Simulator) {
            sim.schedule_in(SimDuration::from_nanos(1), reschedule);
        }
        sim.schedule_now(reschedule);
        assert_eq!(sim.run(), RunResult::EventLimit);
        assert_eq!(sim.events_executed(), 100);
    }

    #[test]
    fn schedule_now_runs_at_current_instant_in_order() {
        let mut sim = Simulator::new();
        let (log, handle) = recorder();
        sim.schedule_at(Timestamp::from_millis(3), move |sim| {
            let h1 = handle.clone();
            let h2 = handle.clone();
            sim.schedule_now(move |_| h1.borrow_mut().push(1));
            sim.schedule_now(move |_| h2.borrow_mut().push(2));
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2]);
    }

    #[test]
    fn profiler_counts_dispatches_per_tag_and_heap_high_water() {
        let mut sim = Simulator::new();
        sim.enable_profiler();
        for ms in [1u64, 2, 3] {
            sim.schedule_at_tagged("sim_events_link_total", Timestamp::from_millis(ms), |_| {});
        }
        sim.schedule_at(Timestamp::from_millis(4), |_| {});
        assert_eq!(sim.run(), RunResult::QueueEmpty);
        let p = sim.profile().expect("profiler enabled");
        assert_eq!(
            p.counts,
            [("sim_events_link_total", 3), (UNTAGGED_EVENT, 1)]
        );
        assert_eq!(p.heap_high_water(), 4);
    }

    #[test]
    fn profiler_export_reaches_sink() {
        use mm_metrics::{MetricsSink, Registry, RegistrySink};
        let mut sim = Simulator::new();
        sim.enable_profiler();
        sim.schedule_at_tagged("sim_events_link_total", Timestamp::from_millis(1), |_| {});
        sim.run();
        let registry = Registry::new();
        let sink = RegistrySink::new(registry.clone());
        sim.profile().unwrap().export(&sink);
        // Exercise the trait-object path the harness uses as well.
        let dyn_sink: &dyn MetricsSink = &sink;
        let _ = dyn_sink;
        let text = registry.encode();
        assert!(text.contains("sim_events_link_total 1"));
        assert!(text.contains("sim_heap_high_water_events 1"));
    }

    #[test]
    fn profiler_disabled_costs_nothing_and_reports_none() {
        let mut sim = Simulator::new();
        sim.schedule_at_tagged("sim_events_link_total", Timestamp::from_millis(1), |_| {});
        sim.run();
        assert!(sim.profile().is_none());
    }

    #[test]
    fn run_for_advances_relative_span() {
        let mut sim = Simulator::new();
        sim.schedule_at(Timestamp::from_millis(5), |_| {});
        sim.run();
        assert_eq!(sim.now().as_millis(), 5);
        sim.schedule_in(SimDuration::from_millis(20), |_| {});
        let r = sim.run_until(sim.now() + SimDuration::from_millis(10));
        assert_eq!(r, RunResult::HorizonReached);
        assert_eq!(sim.now().as_millis(), 15);
    }
}
