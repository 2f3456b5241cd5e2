//! LinkShell: trace-driven link emulation.
//!
//! From the paper: "When a packet arrives into the link, it is directly
//! placed into either the uplink or downlink packet queue. LinkShell
//! releases packets from each queue based on the corresponding
//! packet-delivery trace. Each line in the trace is a packet-delivery
//! opportunity: the time at which an MTU-sized packet will be delivered."
//!
//! Opportunities are use-it-or-lose-it: while the queue is empty they pass
//! unused; the emulator walks the (wrapping) trace lazily, arming a timer
//! only while packets are queued. One opportunity carries up to MTU bytes,
//! so several small packets may share it (mm-link's byte accounting).

use std::cell::RefCell;
use std::rc::Rc;

use mm_capture::{Dir, PacketEventKind, PointKind};
use mm_net::{Namespace, Packet, PacketSink, SinkRef, MTU};
use mm_sim::{EventTarget, Simulator, Timestamp};
use mm_trace::Trace;

use crate::queue::{EnqueueResult, Qdisc, QdiscStats};
use crate::tap::{Observers, Reporter};

struct LinkInner {
    trace: Trace,
    cursor: u64,
    qdisc: Box<dyn Qdisc>,
    next: SinkRef,
    wakeup_armed: bool,
    /// What one wakeup hands to `next`, kept between wakeups for its
    /// capacity (empty outside [`TraceLink::on_opportunity`]).
    out: Vec<Packet>,
    /// Reports each delivery to the next hop; `None` (the default) costs
    /// one branch per delivery.
    report: Option<Reporter>,
}

/// One direction of a LinkShell.
pub struct TraceLink {
    inner: Rc<RefCell<LinkInner>>,
}

impl TraceLink {
    /// A trace-driven direction feeding `next`.
    pub fn new(trace: Trace, qdisc: Box<dyn Qdisc>, next: SinkRef) -> Rc<Self> {
        TraceLink::reporting(trace, qdisc, next, None)
    }

    /// [`TraceLink::new`], reporting each delivery to the next hop as
    /// [`PacketEventKind::Deliver`] and, once, the trace's schedule. The
    /// caller observes `qdisc` itself.
    fn reporting(
        trace: Trace,
        qdisc: Box<dyn Qdisc>,
        next: SinkRef,
        report: Option<Reporter>,
    ) -> Rc<Self> {
        if let Some(report) = &report {
            report.link_meta(&trace);
        }
        Rc::new(TraceLink {
            inner: Rc::new(RefCell::new(LinkInner {
                trace,
                cursor: 0,
                qdisc,
                next,
                wakeup_armed: false,
                out: Vec::new(),
                report,
            })),
        })
    }

    /// Queue-discipline counters.
    pub fn qdisc_stats(&self) -> QdiscStats {
        self.inner.borrow().qdisc.stats()
    }

    fn opportunity_time(trace: &Trace, i: u64) -> Timestamp {
        Timestamp::from_millis(trace.opportunity_ms(i))
    }

    /// File the wakeup for opportunity `cursor` (must not already be
    /// armed). A wakeup is never cancelled or moved — it is armed only
    /// while none is pending — so the link files itself: the event needs
    /// no generation and no closure.
    fn arm(self_rc: &Rc<Self>, sim: &mut Simulator, inner: &mut LinkInner) {
        debug_assert!(!inner.wakeup_armed);
        inner.wakeup_armed = true;
        let at = Self::opportunity_time(&inner.trace, inner.cursor).max(sim.now());
        sim.schedule_target_at(LINK_EVENT, at, self_rc.clone(), 0);
    }

    /// Consume one delivery opportunity from the queue into `to_deliver`.
    fn consume_opportunity(inner: &mut LinkInner, now: Timestamp, to_deliver: &mut Vec<Packet>) {
        let mut budget = MTU;
        // All model packets are ≤ MTU, so the head always fits in a fresh
        // opportunity; stop once the next packet would exceed the
        // remaining budget.
        while inner.qdisc.peek_size().is_some_and(|sz| sz <= budget) {
            let Some(pkt) = inner.qdisc.dequeue(now) else {
                break;
            };
            budget = budget.saturating_sub(pkt.wire_size());
            if let Some(report) = &inner.report {
                report.packet(now, PacketEventKind::Deliver, &pkt);
            }
            to_deliver.push(pkt);
        }
        inner.cursor += 1;
    }

    fn on_opportunity(self_rc: &Rc<Self>, sim: &mut Simulator) {
        let now = sim.now();
        let (mut to_deliver, next) = {
            let mut inner = self_rc.inner.borrow_mut();
            let mut to_deliver = std::mem::take(&mut inner.out);
            inner.wakeup_armed = false;
            // Batch every same-timestamp opportunity into this one wakeup:
            // high-rate traces put tens of opportunities on one
            // millisecond tick, and one timer event per burst (instead of
            // one per packet) keeps the hot path off the event queue. The
            // deliveries are identical to the per-opportunity walk — same
            // packets, same order, same timestamps (packets were handed to
            // `next` only after this whole borrow ended in the unbatched
            // path too, so downstream scheduling order is preserved).
            Self::consume_opportunity(&mut inner, now, &mut to_deliver);
            while inner.qdisc.len_packets() > 0
                && Self::opportunity_time(&inner.trace, inner.cursor) <= now
            {
                Self::consume_opportunity(&mut inner, now, &mut to_deliver);
            }
            if inner.qdisc.len_packets() > 0 {
                // More work: rearm for the next (future) opportunity.
                Self::arm(self_rc, sim, &mut inner);
            }
            (to_deliver, inner.next.clone())
        };
        for pkt in to_deliver.drain(..) {
            next.deliver(sim, pkt);
        }
        self_rc.inner.borrow_mut().out = to_deliver;
    }
}

/// Dispatch tag of a link's delivery-opportunity wakeups.
const LINK_EVENT: &str = "sim_events_link_total";

impl EventTarget for TraceLink {
    fn on_event(self: Rc<Self>, sim: &mut Simulator, _token: u64) {
        TraceLink::on_opportunity(&self, sim);
    }
}

/// The sink wrapper so `Rc<TraceLink>` can be used where a `SinkRef` is
/// needed while keeping `TraceLink::arm`'s `Rc<Self>` plumbing.
pub struct TraceLinkSink(pub Rc<TraceLink>);

impl PacketSink for TraceLinkSink {
    fn deliver(&self, sim: &mut Simulator, pkt: Packet) {
        let now = sim.now();
        let link = &self.0;
        let mut inner = link.inner.borrow_mut();
        let accepted = inner.qdisc.enqueue(now, pkt);
        if accepted == EnqueueResult::Accepted && !inner.wakeup_armed {
            // Find the first usable opportunity: opportunities are
            // use-it-or-lose-it, so skip everything before "now"
            // (sub-millisecond remainders round up — the trace has
            // millisecond granularity).
            let now_ms = now.as_nanos().div_ceil(1_000_000);
            inner.cursor = inner.trace.first_opportunity_at_or_after(now_ms);
            TraceLink::arm(link, sim, &mut inner);
        }
    }
}

/// Handle to a constructed link shell.
pub struct LinkShell {
    /// The namespace applications run inside.
    pub(crate) inner_ns: Namespace,
    /// Child → parent direction.
    pub uplink: Rc<TraceLink>,
    /// Parent → child direction.
    pub downlink: Rc<TraceLink>,
}

/// Build a LinkShell under `parent` (the paper's
/// `mm-link <up.trace> <down.trace>`), with fresh qdiscs from
/// `make_qdisc`, both directions observed by `observers`.
pub(crate) fn link_shell(
    parent: &Namespace,
    name: &str,
    traces: (Trace, Trace),
    make_qdisc: &dyn Fn() -> Box<dyn Qdisc>,
    observers: &Observers,
) -> LinkShell {
    let inner_ns = Namespace::root(name);
    let direction = |trace, dir, next| {
        let qdisc = observers.queue(make_qdisc(), dir);
        TraceLink::reporting(trace, qdisc, next, observers.reporter(PointKind::Link, dir))
    };
    let uplink = direction(traces.0, Dir::Up, parent.router());
    let downlink = direction(traces.1, Dir::Down, inner_ns.router());
    parent.attach_child(
        &inner_ns,
        Rc::new(TraceLinkSink(uplink.clone())),
        Rc::new(TraceLinkSink(downlink.clone())),
    );
    LinkShell {
        inner_ns,
        uplink,
        downlink,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pkt;
    use crate::queue::DropTail;
    use mm_net::{FnSink, IpAddr, SocketAddr};
    use mm_trace::constant_rate;

    type Arrivals = Rc<RefCell<Vec<(u64, Timestamp)>>>;

    fn arrivals_sink() -> (Arrivals, SinkRef) {
        let v = Rc::new(RefCell::new(Vec::new()));
        let v2 = v.clone();
        let sink = FnSink::new(move |sim: &mut Simulator, p: Packet| {
            v2.borrow_mut().push((p.id, sim.now()));
        });
        (v, sink)
    }

    fn make_link(trace: Trace, next: SinkRef) -> (Rc<TraceLink>, SinkRef) {
        let link = TraceLink::new(trace, Box::new(DropTail::infinite()), next);
        let sink: SinkRef = Rc::new(TraceLinkSink(link.clone()));
        (link, sink)
    }

    #[test]
    fn delivery_follows_trace_opportunities() {
        let mut sim = Simulator::new();
        let (arrivals, sink) = arrivals_sink();
        // Opportunities at 10, 20, 30 ms.
        let trace = Trace::from_timestamps(vec![10, 20, 30]).unwrap();
        let (_link, ingress) = make_link(trace, sink);
        let i2 = ingress.clone();
        sim.schedule_now(move |sim| {
            for i in 0..3 {
                i2.deliver(sim, pkt(i, 1460)); // full MTU each
            }
        });
        sim.run();
        let got = arrivals.borrow().clone();
        assert_eq!(
            got,
            vec![
                (0, Timestamp::from_millis(10)),
                (1, Timestamp::from_millis(20)),
                (2, Timestamp::from_millis(30)),
            ]
        );
    }

    #[test]
    fn missed_opportunities_are_lost() {
        let mut sim = Simulator::new();
        let (arrivals, sink) = arrivals_sink();
        let trace = Trace::from_timestamps(vec![10, 20, 30]).unwrap();
        let (_link, ingress) = make_link(trace, sink);
        // Packet arrives at 15 ms: the 10 ms opportunity already passed.
        sim.schedule_at(Timestamp::from_millis(15), move |sim| {
            ingress.deliver(sim, pkt(0, 1460));
        });
        sim.run();
        assert_eq!(*arrivals.borrow(), vec![(0, Timestamp::from_millis(20))]);
    }

    #[test]
    fn small_packets_share_an_opportunity() {
        let mut sim = Simulator::new();
        let (arrivals, sink) = arrivals_sink();
        let trace = Trace::from_timestamps(vec![10, 20]).unwrap();
        let (_link, ingress) = make_link(trace, sink);
        // Three 40-byte ACKs: all fit in one 1500-byte opportunity.
        sim.schedule_now(move |sim| {
            for i in 0..3 {
                ingress.deliver(sim, pkt(i, 0));
            }
        });
        sim.run();
        let got = arrivals.borrow().clone();
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|&(_, t)| t == Timestamp::from_millis(10)));
    }

    #[test]
    fn trace_wraps_for_long_runs() {
        let mut sim = Simulator::new();
        let (arrivals, sink) = arrivals_sink();
        // One opportunity per 10 ms, period 10 ms.
        let trace = Trace::from_timestamps(vec![10]).unwrap();
        let (_link, ingress) = make_link(trace, sink);
        sim.schedule_now(move |sim| {
            for i in 0..5 {
                ingress.deliver(sim, pkt(i, 1460));
            }
        });
        sim.run();
        let times: Vec<u64> = arrivals
            .borrow()
            .iter()
            .map(|&(_, t)| t.as_millis())
            .collect();
        assert_eq!(times, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn throughput_matches_trace_rate() {
        let mut sim = Simulator::new();
        let delivered_bytes = Rc::new(RefCell::new(0u64));
        let db = delivered_bytes.clone();
        let sink = FnSink::new(move |_: &mut Simulator, p: Packet| {
            *db.borrow_mut() += p.wire_size() as u64;
        });
        // 12 Mbit/s for 1 second.
        let trace = constant_rate(12.0, 1000);
        let (_link, ingress) = make_link(trace, sink);
        // Saturate: 3000 full packets (4.5 MB) — more than one second's
        // capacity (1.5 MB/s).
        sim.schedule_now(move |sim| {
            for i in 0..3000 {
                ingress.deliver(sim, pkt(i, 1460));
            }
        });
        sim.run_until(Timestamp::from_secs(1));
        let mbps = *delivered_bytes.borrow() as f64 * 8.0 / 1e6;
        assert!((mbps - 12.0).abs() < 0.5, "delivered {mbps} Mbit/s");
    }

    #[test]
    fn queue_drops_counted() {
        let mut sim = Simulator::new();
        let (arrivals, sink) = arrivals_sink();
        let trace = Trace::from_timestamps(vec![100]).unwrap();
        let link = TraceLink::new(
            trace,
            Box::new(DropTail::new(crate::queue::QueueLimit::Packets(2))),
            sink,
        );
        let ingress: SinkRef = Rc::new(TraceLinkSink(link.clone()));
        sim.schedule_now(move |sim| {
            for i in 0..5 {
                ingress.deliver(sim, pkt(i, 1460));
            }
        });
        sim.run();
        assert_eq!(link.qdisc_stats().dropped, 3);
        assert_eq!(arrivals.borrow().len(), 2);
    }

    #[test]
    fn link_shell_wires_namespace() {
        let mut sim = Simulator::new();
        let parent = Namespace::root("parent");
        let trace = constant_rate(12.0, 1000);
        let shell = link_shell(
            &parent,
            "linked",
            (trace.clone(), trace),
            &|| Box::new(DropTail::infinite()),
            &Observers::default(),
        );
        let (arrivals, sink) = arrivals_sink();
        parent.add_host(IpAddr::new(8, 8, 8, 8), sink);
        let mut p = pkt(1, 1460);
        p.dst = SocketAddr::new(IpAddr::new(8, 8, 8, 8), 80);
        shell.inner_ns.router().deliver(&mut sim, p);
        sim.run();
        assert_eq!(arrivals.borrow().len(), 1);
        assert_eq!(shell.uplink.qdisc_stats().dequeued, 1);
        assert_eq!(shell.downlink.qdisc_stats().enqueued, 0);
    }

    #[test]
    fn same_timestamp_opportunities_batch_into_one_wakeup() {
        // 1000 Mbit/s ≈ 83 MTU opportunities per millisecond: a burst of
        // full-size packets shares one millisecond tick. The dequeue loop
        // must serve the whole tick from a single timer wakeup, not one
        // event per opportunity.
        let mut sim = Simulator::new();
        let (arrivals, sink) = arrivals_sink();
        let trace = constant_rate(1000.0, 1000);
        let (_link, ingress) = make_link(trace, sink);
        sim.schedule_now(move |sim| {
            for i in 0..80 {
                ingress.deliver(sim, pkt(i, 1460));
            }
        });
        sim.run();
        let got = arrivals.borrow().clone();
        // All 80 packets fit in the 83 opportunities of the 1 ms tick,
        // in order.
        assert_eq!(got.len(), 80);
        assert!(got.iter().all(|&(_, t)| t == Timestamp::from_millis(1)));
        assert_eq!(
            got.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            (0..80).collect::<Vec<_>>()
        );
        // One enqueue event + ONE wakeup for the whole burst (the lazy
        // walker arms no further timers once the queue drains).
        assert!(
            sim.events_executed() <= 3,
            "burst took {} events; batching regressed",
            sim.events_executed()
        );
    }

    #[test]
    fn idle_link_schedules_no_events() {
        let mut sim = Simulator::new();
        let (_arrivals, sink) = arrivals_sink();
        let trace = constant_rate(1000.0, 1000); // 83k opportunities
        let (_link, _ingress) = make_link(trace, sink);
        sim.run();
        assert_eq!(
            sim.events_executed(),
            0,
            "lazy walker must not tick an idle link"
        );
    }
}
