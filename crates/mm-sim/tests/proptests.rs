//! Property tests on the simulation substrate: event ordering, summary
//! statistics invariants, RNG stream independence, and a timer bank filing
//! what its timers would.

use mm_sim::{
    jain_fairness, BankHandler, RngStream, SimDuration, Simulator, Summary, Timer, TimerBank,
    TimerMux, Timestamp,
};
use proptest::prelude::*;
use rand::RngCore;
use std::cell::RefCell;
use std::rc::Rc;

proptest! {
    #[test]
    fn events_always_fire_in_order(times in prop::collection::vec(0u64..10_000, 1..100)) {
        let mut sim = Simulator::new();
        let fired = Rc::new(RefCell::new(Vec::new()));
        for &t in &times {
            let f = fired.clone();
            sim.schedule_at(Timestamp::from_nanos(t), move |sim| {
                f.borrow_mut().push(sim.now().as_nanos());
            });
        }
        sim.run();
        let got = fired.borrow();
        prop_assert_eq!(got.len(), times.len());
        for w in got.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn percentiles_are_order_statistics(mut samples in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let mut s = Summary::from_samples(samples.clone());
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Median and p95 must be actual samples (nearest-rank).
        let med = s.percentile(50.0);
        let p95 = s.percentile(95.0);
        prop_assert!(samples.contains(&med));
        prop_assert!(samples.contains(&p95));
        prop_assert!(p95 >= med);
        prop_assert!(s.min() <= med && med <= s.max());
    }

    #[test]
    fn mean_between_min_and_max(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = Summary::from_samples(samples);
        let (mn, mx, mean) = (s.min(), s.max(), s.mean());
        prop_assert!(mn <= mean + 1e-9 && mean <= mx + 1e-9);
    }

    #[test]
    fn cdf_at_is_monotone(samples in prop::collection::vec(0.0f64..1000.0, 1..100),
                          a in 0.0f64..1000.0, b in 0.0f64..1000.0) {
        let mut s = Summary::from_samples(samples);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(s.cdf_at(lo) <= s.cdf_at(hi));
    }

    #[test]
    fn jain_fairness_in_unit_interval(goodputs in prop::collection::vec(1e-3f64..1e9, 1..128)) {
        // For arbitrary positive goodput vectors the index is a valid
        // fairness: strictly positive, at most 1, and at least 1/n (the
        // single-flow-takes-all floor).
        let j = jain_fairness(&goodputs);
        prop_assert!(j > 0.0, "fairness {j} not positive");
        prop_assert!(j <= 1.0 + 1e-12, "fairness {j} above 1");
        prop_assert!(j >= 1.0 / goodputs.len() as f64 - 1e-12, "fairness {j} below 1/n");
    }

    #[test]
    fn interpolated_percentile_monotone_and_bounded(
        samples in prop::collection::vec(0.0f64..1e6, 1..200),
        p in 0.0f64..100.0,
        q in 0.0f64..100.0,
    ) {
        let mut s = Summary::from_samples(samples);
        let (lo, hi) = if p <= q { (p, q) } else { (q, p) };
        let (vlo, vhi) = (s.percentile_interpolated(lo), s.percentile_interpolated(hi));
        prop_assert!(vlo <= vhi + 1e-9);
        prop_assert!(s.min() <= vlo + 1e-9 && vhi <= s.max() + 1e-9);
    }

    #[test]
    fn forked_streams_reproducible(seed in any::<u64>(), label in "[a-z]{1,10}") {
        let mut a = RngStream::from_seed(seed).fork(&label);
        let mut b = RngStream::from_seed(seed).fork(&label);
        for _ in 0..20 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn duration_arithmetic_consistent(a in 0u64..1u64<<40, b in 0u64..1u64<<40) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!((da + db).as_nanos(), a + b);
        prop_assert_eq!(da.saturating_sub(db).as_nanos(), a.saturating_sub(b));
        prop_assert_eq!(da.max(db).as_nanos(), a.max(b));
        let t = Timestamp::ZERO + da + db;
        prop_assert_eq!(t.as_nanos(), a + b);
    }
}

// ------------------------------------------------------------ timer bank

type FireLog = Rc<RefCell<Vec<(usize, u64)>>>;

/// The bank's handler: log which slot fired, and when.
struct LogSlot(FireLog);

impl BankHandler for LogSlot {
    fn on_fire(&self, sim: &mut Simulator, slot: usize) {
        self.0.borrow_mut().push((slot, sim.now().as_nanos()));
    }
}

/// Five timers, as a bank or as five closure-armed timers of their own
/// whose closures log what the bank's handler logs.
enum Five {
    Bank(TimerBank<LogSlot, 5>),
    Timers(Vec<Timer>, FireLog),
}

impl Five {
    fn rearm_at(&self, sim: &mut Simulator, slot: usize, at: Timestamp) {
        match self {
            Five::Bank(bank) => bank.rearm_at(sim, slot, at),
            Five::Timers(timers, log) => {
                let log = log.clone();
                timers[slot].arm_at(sim, at, move |sim| {
                    log.borrow_mut().push((slot, sim.now().as_nanos()))
                });
            }
        }
    }

    fn cancel(&self, slot: usize) {
        match self {
            Five::Bank(bank) => bank.cancel(slot),
            Five::Timers(timers, _) => timers[slot].cancel(),
        }
    }

    fn deadline(&self, slot: usize) -> Timestamp {
        match self {
            Five::Bank(bank) => bank.deadline(slot),
            Five::Timers(timers, _) => timers[slot].deadline(),
        }
    }

    fn is_armed(&self, slot: usize) -> bool {
        match self {
            Five::Bank(bank) => bank.is_armed(slot),
            Five::Timers(timers, _) => timers[slot].is_armed(),
        }
    }
}

/// A world with five timers in it.
struct FiveWorld {
    sim: Simulator,
    mux: Option<TimerMux>,
    five: Five,
    log: FireLog,
}

impl FiveWorld {
    fn new(bank: bool, muxed: bool) -> FiveWorld {
        let log = FireLog::default();
        let mux = muxed.then(TimerMux::new);
        let five = if bank {
            Five::Bank(TimerBank::bound(LogSlot(log.clone()), mux.as_ref()))
        } else {
            let timer = |_| mux.as_ref().map_or_else(Timer::new, TimerMux::timer);
            Five::Timers((0..5).map(timer).collect(), log.clone())
        };
        FiveWorld {
            sim: Simulator::new(),
            mux,
            five,
            log,
        }
    }

    /// Everything about the world an outsider can see.
    fn observed(&self) -> impl PartialEq + std::fmt::Debug {
        let slots: Vec<_> = (0..5)
            .map(|s| (self.five.is_armed(s), self.five.deadline(s)))
            .collect();
        (
            self.sim.now(),
            self.sim.events_executed(),
            self.sim.pending_events(),
            self.mux.as_ref().map(TimerMux::pending_count),
            slots,
            self.log.borrow().clone(),
        )
    }
}

proptest! {
    /// A bank of five files exactly the queue entries five closure-armed
    /// timers file: armed, re-armed, cancelled and run in any interleaving — in
    /// the engine's queue or through a `TimerMux` — the two worlds show
    /// the same clock, the same executed-event count (superseded
    /// generations pop and count in both), the same pending entries and
    /// the same firings in the same order, after every step.
    #[test]
    fn a_timer_bank_files_what_five_timers_file(
        ops in prop::collection::vec((0u8..4, 0usize..5, 0u64..20), 1..120),
        muxed in any::<bool>(),
    ) {
        let mut bank = FiveWorld::new(true, muxed);
        let mut timers = FiveWorld::new(false, muxed);
        for (op, slot, ms) in ops {
            for world in [&mut bank, &mut timers] {
                let at = world.sim.now() + SimDuration::from_millis(ms);
                match op {
                    0 | 1 => world.five.rearm_at(&mut world.sim, slot, at),
                    2 => world.five.cancel(slot),
                    _ => {
                        world.sim.run_until(at);
                    }
                }
            }
            prop_assert_eq!(bank.observed(), timers.observed());
        }
        bank.sim.run();
        timers.sim.run();
        prop_assert_eq!(bank.observed(), timers.observed());
        prop_assert_eq!(bank.sim.pending_events(), 0);
    }
}

/// A slot's superseded generations are still in the queue: they pop, they
/// count as executed events, and they run nothing — and they never
/// disturb another slot armed for the same instant.
#[test]
fn a_bank_slots_dead_generations_pop_as_counted_no_ops() {
    let log = FireLog::default();
    let bank: TimerBank<LogSlot, 5> = TimerBank::bound(LogSlot(log.clone()), None);
    let mut sim = Simulator::new();
    for ms in [3, 5, 5, 9] {
        bank.rearm_at(&mut sim, 2, Timestamp::from_millis(ms));
    }
    bank.rearm_at(&mut sim, 4, Timestamp::from_millis(5));
    bank.rearm_at(&mut sim, 0, Timestamp::from_millis(7));
    bank.cancel(0);
    assert_eq!(sim.pending_events(), 6);
    sim.run();
    assert_eq!(sim.events_executed(), 6);
    let ms = |t: u64| Timestamp::from_millis(t).as_nanos();
    assert_eq!(*log.borrow(), vec![(4, ms(5)), (2, ms(9))]);
}
