//! The engine's event queue against a reference model.
//!
//! The model is the structure the engine used before its radix queue: a
//! binary heap ordered by `(deadline, insertion sequence)`. Arbitrary
//! interleavings of scheduling (from outside and from inside handlers),
//! single steps and bounded runs — including scheduling *below* the next
//! pending deadline after a bounded run stopped short of it — must
//! produce the same dispatch order, the same clock and the same event
//! count from both.
//!
//! The engine files an event in one of two forms — a boxed closure, or a
//! long-lived target plus a token — and the script alternates between
//! them (even event ids are closures, odd ones go to a target), so equal
//! logs also mean the two forms share one insertion order: at a single
//! timestamp, from inside handlers, and across queue redistributions.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;

use mm_sim::{EventTarget, RunResult, SimDuration, Simulator, Timestamp, UNTAGGED_EVENT};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Schedule an event `delay` from now; when it runs it schedules one
    /// child per entry of `children`, that far from its own instant
    /// (0 = `schedule_now`).
    Schedule {
        delay: u64,
        children: Vec<u64>,
    },
    Step,
    RunFor(u64),
}

/// Delays that exercise every bucket distance: zero, neighbours, and
/// values around each power of two up to ~18 simulated minutes.
fn arb_delay() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        0u64..4,
        0u64..1_000,
        (0u32..40).prop_map(|b| 1u64 << b),
        (1u32..40, 0u64..3).prop_map(|(b, j)| (1u64 << b) - 1 + j),
        any::<u64>().prop_map(|x| x >> 24),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_delay(), prop::collection::vec(arb_delay(), 0..3))
            .prop_map(|(delay, children)| Op::Schedule { delay, children }),
        (arb_delay(), prop::collection::vec(Just(0u64), 1..4))
            .prop_map(|(delay, children)| Op::Schedule { delay, children }),
        Just(Op::Step),
        arb_delay().prop_map(Op::RunFor),
    ]
}

/// `(event id, instant it ran at)`, in dispatch order.
type Log = Vec<(u64, u64)>;

/// `(deadline, insertion sequence, event id, children's delays)`; the
/// first two fields are the order.
type Pending = Reverse<(u64, u64, u64, Vec<u64>)>;

#[derive(Default)]
struct Model {
    now: u64,
    next_seq: u64,
    next_id: u64,
    executed: u64,
    heap: BinaryHeap<Pending>,
    log: Log,
}

impl Model {
    fn schedule(&mut self, at: u64, children: Vec<u64>) {
        assert!(at >= self.now);
        let (seq, id) = (self.next_seq, self.next_id);
        self.next_seq += 1;
        self.next_id += 1;
        self.heap.push(Reverse((at, seq, id, children)));
    }

    fn step(&mut self) -> bool {
        let Some(Reverse((at, _, id, children))) = self.heap.pop() else {
            return false;
        };
        self.now = at;
        self.executed += 1;
        self.log.push((id, at));
        for delay in children {
            self.schedule(at + delay, Vec::new());
        }
        true
    }

    fn run_until(&mut self, horizon: u64) -> RunResult {
        loop {
            let Some(Reverse((at, ..))) = self.heap.peek() else {
                return RunResult::QueueEmpty;
            };
            if *at > horizon {
                if horizon != u64::MAX {
                    self.now = horizon;
                }
                return RunResult::HorizonReached;
            }
            self.step();
        }
    }
}

/// The same script against the real engine. Ids are handed out in
/// schedule order on both sides, so equal logs mean equal dispatch order.
struct Real {
    sim: Simulator,
    script: Rc<Script>,
}

/// What the events of one run share: the id counter, the log, and — for
/// the events filed as `(target, token)` — what each token stands for.
#[derive(Default)]
struct Script {
    next_id: Cell<u64>,
    log: RefCell<Log>,
    /// Token (= event id) → delays of the children that event schedules.
    filed: RefCell<HashMap<u64, Vec<u64>>>,
}

impl Script {
    /// File one event at `at`: as a closure if its id is even, as this
    /// script plus the id as token if it is odd.
    fn schedule(self: &Rc<Self>, sim: &mut Simulator, at: Timestamp, children: Vec<u64>) {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        if id.is_multiple_of(2) {
            let me = self.clone();
            sim.schedule_at(at, move |sim| me.run(sim, id, children));
        } else {
            self.filed.borrow_mut().insert(id, children);
            sim.schedule_target_at(UNTAGGED_EVENT, at, self.clone(), id);
        }
    }

    fn run(self: &Rc<Self>, sim: &mut Simulator, id: u64, children: Vec<u64>) {
        self.log.borrow_mut().push((id, sim.now().as_nanos()));
        for delay in children {
            self.schedule(sim, sim.now() + SimDuration::from_nanos(delay), Vec::new());
        }
    }
}

impl EventTarget for Script {
    fn on_event(self: Rc<Self>, sim: &mut Simulator, id: u64) {
        let children = self.filed.borrow_mut().remove(&id).expect("filed once");
        self.run(sim, id, children);
    }
}

impl Real {
    fn new() -> Real {
        Real {
            sim: Simulator::new(),
            script: Rc::default(),
        }
    }

    fn schedule(&mut self, at: u64, children: Vec<u64>) {
        self.script
            .schedule(&mut self.sim, Timestamp::from_nanos(at), children);
    }
}

proptest! {
    #[test]
    fn engine_matches_binary_heap_model(ops in prop::collection::vec(arb_op(), 1..120)) {
        let mut model = Model::default();
        let mut real = Real::new();
        for op in ops {
            match op {
                Op::Schedule { delay, children } => {
                    model.schedule(model.now + delay, children.clone());
                    real.schedule(real.sim.now().as_nanos() + delay, children);
                }
                Op::Step => {
                    prop_assert_eq!(real.sim.step(), model.step());
                }
                Op::RunFor(span) => {
                    let horizon = model.now + span;
                    prop_assert_eq!(
                        real.sim.run_until(Timestamp::from_nanos(horizon)),
                        model.run_until(horizon)
                    );
                }
            }
            prop_assert_eq!(real.sim.now().as_nanos(), model.now);
            prop_assert_eq!(real.sim.events_executed(), model.executed);
            prop_assert_eq!(real.sim.pending_events(), model.heap.len());
            prop_assert_eq!(&*real.script.log.borrow(), &model.log);
        }
        prop_assert_eq!(real.sim.run(), model.run_until(u64::MAX));
        prop_assert_eq!(real.sim.now().as_nanos(), model.now);
        prop_assert_eq!(real.sim.events_executed(), model.executed);
        prop_assert_eq!(&*real.script.log.borrow(), &model.log);
    }
}

/// The fixed case behind the property: ties filed in both forms while
/// their deadline is still far (so they are re-filed when the clock gets
/// there), joined by latecomers filed from inside a handler.
#[test]
fn both_forms_tie_in_insertion_order_across_a_redistribution() {
    let mut real = Real::new();
    let ms = 1_000_000u64;
    // Event 0 runs at 1 ms and files ten more for 7 ms.
    real.schedule(ms, vec![6 * ms; 10]);
    for _ in 1..=1_000 {
        real.schedule(7 * ms, Vec::new());
    }
    assert_eq!(real.sim.run(), RunResult::QueueEmpty);
    assert_eq!(real.sim.events_executed(), 1_011);
    let log = real.script.log.borrow();
    assert_eq!(log[0], (0, ms));
    assert!(log[1..]
        .iter()
        .copied()
        .eq((1..=1_010).map(|id| (id, 7 * ms))));
}
