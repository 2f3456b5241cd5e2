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
//! only while packets are queued.

use std::cell::RefCell;
use std::rc::Rc;

use mm_capture::{LinkMeta, PacketEvent, PacketEventKind, TapHandle, TapPoint};
use mm_net::{Namespace, Packet, PacketSink, SinkRef, MTU};
use mm_sim::{EventTarget, Simulator, Timestamp};
use mm_trace::Trace;

use crate::queue::{DropTail, EnqueueResult, Qdisc, QdiscStats};
use crate::tap::TappedQdisc;

/// How much a single delivery opportunity can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpportunityPolicy {
    /// Up to MTU bytes per opportunity: several small packets may share
    /// one opportunity (mm-link's byte-accounting behaviour).
    #[default]
    ByteBudget,
    /// Exactly one packet per opportunity regardless of size
    /// (conservative ablation).
    PacketPerOpportunity,
}

/// Counters for one trace-link direction.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LinkStats {
    pub(crate) arrived: u64,
    pub(crate) delivered: u64,
    pub(crate) delivered_bytes: u64,
    pub(crate) dropped_by_queue: u64,
    /// Delivery opportunities consumed (for utilization reporting).
    pub(crate) opportunities_used: u64,
}

struct LinkInner {
    trace: Trace,
    cursor: u64,
    qdisc: Box<dyn Qdisc>,
    policy: OpportunityPolicy,
    next: SinkRef,
    wakeup_armed: bool,
    /// What one wakeup hands to `next`, kept between wakeups for its
    /// capacity (empty outside [`TraceLink::on_opportunity`]).
    out: Vec<Packet>,
    stats: LinkStats,
    /// Per-packet observability hook ([`TraceLink::set_tap`]); `None`
    /// (the default) costs one branch per delivery.
    tap: Option<(TapHandle, TapPoint)>,
}

/// One direction of a LinkShell.
pub struct TraceLink {
    inner: Rc<RefCell<LinkInner>>,
}

impl TraceLink {
    /// A trace-driven direction feeding `next`.
    pub fn new(
        trace: Trace,
        qdisc: Box<dyn Qdisc>,
        policy: OpportunityPolicy,
        next: SinkRef,
    ) -> Rc<Self> {
        Rc::new(TraceLink {
            inner: Rc::new(RefCell::new(LinkInner {
                trace,
                cursor: 0,
                qdisc,
                policy,
                next,
                wakeup_armed: false,
                out: Vec::new(),
                stats: LinkStats::default(),
                tap: None,
            })),
        })
    }

    /// Attach a per-packet tap at `point`: the qdisc is wrapped in a
    /// [`TappedQdisc`] (enqueue/dequeue/drop events), deliveries to the
    /// next hop report as [`PacketEventKind::Deliver`], and the trace's
    /// opportunity schedule is reported once as [`LinkMeta`] so offline
    /// analyzers can reconstruct the capacity series. Call before any
    /// traffic flows; taps observe only and never change behavior.
    pub(crate) fn set_tap(&self, tap: TapHandle, point: TapPoint) {
        let mut inner = self.inner.borrow_mut();
        tap.on_link_meta(&LinkMeta {
            point,
            deliveries_ms: inner.trace.deliveries_ms().into(),
            period_ms: inner.trace.period_ms(),
            mtu_bytes: MTU as u32,
        });
        let old = std::mem::replace(&mut inner.qdisc, Box::new(DropTail::infinite()));
        inner.qdisc = Box::new(TappedQdisc::new(old, tap.clone(), point));
        inner.tap = Some((tap, point));
    }

    /// Wrap the qdisc in an [`crate::queue::InstrumentedQdisc`]
    /// reporting into `sink` under `dir` (`"up"`/`"down"`). Call before
    /// [`TraceLink::set_tap`] so a tap's events stay outermost; like
    /// taps, instrumentation observes only and never changes behavior.
    pub(crate) fn set_qdisc_metrics(&self, sink: mm_metrics::MetricsHandle, dir: &'static str) {
        let mut inner = self.inner.borrow_mut();
        let old = std::mem::replace(&mut inner.qdisc, Box::new(DropTail::infinite()));
        inner.qdisc = Box::new(crate::queue::InstrumentedQdisc::new(old, sink, dir));
    }

    /// Counters snapshot.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> LinkStats {
        self.inner.borrow().stats
    }

    /// Queue-discipline counters.
    pub fn qdisc_stats(&self) -> QdiscStats {
        self.inner.borrow().qdisc.stats()
    }

    fn opportunity_time(trace: &Trace, i: u64) -> Timestamp {
        Timestamp::from_millis(trace.opportunity_ms(i))
    }

    /// Report one delivery to the tap, if attached.
    fn tap_deliver(tap: &Option<(TapHandle, TapPoint)>, now: Timestamp, pkt: &Packet) {
        if let Some((tap, point)) = tap {
            tap.on_packet(&PacketEvent {
                t_ns: now.as_nanos(),
                kind: PacketEventKind::Deliver,
                point: *point,
                pkt_id: pkt.id,
                size_bytes: pkt.wire_size() as u32,
                sojourn_ns: 0,
                flow: pkt.flow_key(),
            });
        }
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
        let before = to_deliver.len();
        let mut budget = MTU;
        loop {
            // Peek via len; qdisc has no peek, so dequeue and decide.
            if inner.qdisc.len_packets() == 0 {
                break;
            }
            match inner.policy {
                OpportunityPolicy::PacketPerOpportunity => {
                    if let Some(pkt) = inner.qdisc.dequeue(now) {
                        inner.stats.delivered += 1;
                        inner.stats.delivered_bytes += pkt.wire_size() as u64;
                        Self::tap_deliver(&inner.tap, now, &pkt);
                        to_deliver.push(pkt);
                    }
                    break;
                }
                OpportunityPolicy::ByteBudget => {
                    // All model packets are ≤ MTU, so the head always
                    // fits in a fresh opportunity; stop once the next
                    // packet would exceed the remaining budget.
                    match inner.qdisc.peek_size() {
                        Some(sz) if sz <= budget => {}
                        _ => break,
                    }
                    let Some(pkt) = inner.qdisc.dequeue(now) else {
                        break;
                    };
                    let sz = pkt.wire_size();
                    budget = budget.saturating_sub(sz);
                    inner.stats.delivered += 1;
                    inner.stats.delivered_bytes += sz as u64;
                    Self::tap_deliver(&inner.tap, now, &pkt);
                    to_deliver.push(pkt);
                    if budget == 0 {
                        break;
                    }
                }
            }
        }
        if to_deliver.len() > before {
            inner.stats.opportunities_used += 1;
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
        inner.stats.arrived += 1;
        let accepted = inner.qdisc.enqueue(now, pkt);
        if accepted == EnqueueResult::Dropped {
            inner.stats.dropped_by_queue += 1;
        } else if !inner.wakeup_armed {
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

/// Configuration for [`link_shell`].
pub(crate) struct LinkShellConfig {
    pub(crate) uplink_trace: Trace,
    pub(crate) downlink_trace: Trace,
    pub(crate) policy: OpportunityPolicy,
}

impl LinkShellConfig {
    /// Symmetric link from one trace.
    #[cfg(test)]
    pub(crate) fn symmetric(trace: Trace) -> Self {
        LinkShellConfig {
            uplink_trace: trace.clone(),
            downlink_trace: trace,
            policy: OpportunityPolicy::default(),
        }
    }
}

/// Build a LinkShell under `parent` (the paper's
/// `mm-link <up.trace> <down.trace>`), with fresh qdiscs from `make_qdisc`.
pub(crate) fn link_shell(
    parent: &Namespace,
    name: &str,
    config: LinkShellConfig,
    make_qdisc: &dyn Fn() -> Box<dyn Qdisc>,
) -> LinkShell {
    let inner_ns = Namespace::root(name);
    let uplink = TraceLink::new(
        config.uplink_trace,
        make_qdisc(),
        config.policy,
        parent.router(),
    );
    let downlink = TraceLink::new(
        config.downlink_trace,
        make_qdisc(),
        config.policy,
        inner_ns.router(),
    );
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
    use crate::queue::DropTail;
    use bytes::Bytes;
    use mm_net::{FnSink, IpAddr, SocketAddr, TcpFlags, TcpSegment};
    use mm_trace::constant_rate;

    fn pkt(id: u64, payload: usize) -> Packet {
        Packet {
            id,
            src: SocketAddr::new(IpAddr::new(1, 1, 1, 1), 1),
            dst: SocketAddr::new(IpAddr::new(2, 2, 2, 2), 2),
            segment: TcpSegment {
                flags: TcpFlags::ACK,
                seq: 0,
                ack: 0,
                window: 0,
                sack: Default::default(),
                payload: Bytes::from(vec![0; payload]),
            },
            corrupted: false,
        }
    }

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
        let link = TraceLink::new(
            trace,
            Box::new(DropTail::infinite()),
            OpportunityPolicy::ByteBudget,
            next,
        );
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
    fn packet_per_opportunity_policy() {
        let mut sim = Simulator::new();
        let (arrivals, sink) = arrivals_sink();
        let trace = Trace::from_timestamps(vec![10, 20, 30]).unwrap();
        let link = TraceLink::new(
            trace,
            Box::new(DropTail::infinite()),
            OpportunityPolicy::PacketPerOpportunity,
            sink,
        );
        let ingress: SinkRef = Rc::new(TraceLinkSink(link));
        sim.schedule_now(move |sim| {
            for i in 0..3 {
                ingress.deliver(sim, pkt(i, 0)); // tiny, but one per opp
            }
        });
        sim.run();
        let times: Vec<u64> = arrivals
            .borrow()
            .iter()
            .map(|&(_, t)| t.as_millis())
            .collect();
        assert_eq!(times, vec![10, 20, 30]);
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
        let (_arrivals, sink) = arrivals_sink();
        let trace = Trace::from_timestamps(vec![100]).unwrap();
        let link = TraceLink::new(
            trace,
            Box::new(DropTail::new(crate::queue::QueueLimit::Packets(2))),
            OpportunityPolicy::ByteBudget,
            sink,
        );
        let ingress: SinkRef = Rc::new(TraceLinkSink(link.clone()));
        sim.schedule_now(move |sim| {
            for i in 0..5 {
                ingress.deliver(sim, pkt(i, 1460));
            }
        });
        sim.run();
        assert_eq!(link.stats().dropped_by_queue, 3);
        assert_eq!(link.stats().delivered, 2);
    }

    #[test]
    fn link_shell_wires_namespace() {
        let mut sim = Simulator::new();
        let parent = Namespace::root("parent");
        let shell = link_shell(
            &parent,
            "linked",
            LinkShellConfig::symmetric(constant_rate(12.0, 1000)),
            &|| Box::new(DropTail::infinite()),
        );
        let (arrivals, sink) = arrivals_sink();
        parent.add_host(IpAddr::new(8, 8, 8, 8), sink);
        let mut p = pkt(1, 1460);
        p.dst = SocketAddr::new(IpAddr::new(8, 8, 8, 8), 80);
        shell.inner_ns.router().deliver(&mut sim, p);
        sim.run();
        assert_eq!(arrivals.borrow().len(), 1);
        assert_eq!(shell.uplink.stats().delivered, 1);
        assert_eq!(shell.downlink.stats().delivered, 0);
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
        let (link, ingress) = make_link(trace, sink);
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
        assert_eq!(link.stats().opportunities_used, 80);
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
