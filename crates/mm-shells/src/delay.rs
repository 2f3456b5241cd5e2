//! DelayShell: a link with a fixed minimum one-way delay.
//!
//! From the paper: "All packets to and from an application running inside
//! DelayShell are stored in a packet queue. A separate queue is maintained
//! for packets traversing the link in each direction. Each packet is
//! released from the queue after the user-specified one-way delay."
//!
//! [`DelayLink`] is one direction; [`delay_shell`] builds the two-direction
//! namespace wrapper.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use mm_capture::{Dir, PacketEventKind, PointKind};
use mm_net::{Namespace, Packet, PacketSink, SinkRef};
use mm_sim::{EventTarget, SimDuration, Simulator};

use crate::tap::{Observers, Reporter};

/// One direction of a DelayShell: the paper's packet queue. Each arrival
/// joins the queue and files one "release the head" event `delay` later;
/// the delay is the same for every packet, so release order *is* arrival
/// order and the event needs to carry nothing (DESIGN.md §2).
pub struct DelayLink {
    delay: SimDuration,
    next: SinkRef,
    /// Packets in flight, oldest first: one pending release event each.
    queue: RefCell<VecDeque<Packet>>,
    /// This link, to file as the target of its release events.
    me: Weak<DelayLink>,
    /// Reports each packet as [`PacketEventKind::Deliver`] when it exits
    /// toward the next hop; `None` (the default) costs one branch per
    /// packet.
    report: Option<Reporter>,
}

impl DelayLink {
    /// Delay direction releasing each packet `delay` after it arrives.
    pub fn new(delay: SimDuration, next: SinkRef) -> Rc<Self> {
        DelayLink::reporting(delay, next, None)
    }

    fn reporting(delay: SimDuration, next: SinkRef, report: Option<Reporter>) -> Rc<Self> {
        Rc::new_cyclic(|me| DelayLink {
            delay,
            next,
            queue: RefCell::new(VecDeque::new()),
            me: me.clone(),
            report,
        })
    }
}

/// Per-packet cost of traversing a shell's forwarding process (the real
/// mm-delay forwards every packet through a user-space process over raw
/// sockets — tens of microseconds on 2014 hardware), added to each
/// direction's delay. Calibrated so DelayShell-0ms imposes a fraction of
/// a percent on median page load time, as Figure 2 reports.
const SHELL_OVERHEAD: SimDuration = SimDuration::from_micros(20);

impl PacketSink for DelayLink {
    fn deliver(&self, sim: &mut Simulator, pkt: Packet) {
        if self.delay.is_zero() {
            self.release(sim, pkt);
        } else {
            self.queue.borrow_mut().push_back(pkt);
            let me = self.me.upgrade().expect("a DelayLink lives in an Rc");
            sim.schedule_target_at("sim_events_delay_total", sim.now() + self.delay, me, 0);
        }
    }
}

impl EventTarget for DelayLink {
    fn on_event(self: Rc<Self>, sim: &mut Simulator, _token: u64) {
        let head = self.queue.borrow_mut().pop_front();
        let pkt = head.expect("one release event per queued packet");
        self.release(sim, pkt);
    }
}

impl DelayLink {
    /// Hand `pkt` to the next hop, reporting it if observed.
    fn release(&self, sim: &mut Simulator, pkt: Packet) {
        if let Some(report) = &self.report {
            report.packet(sim.now(), PacketEventKind::Deliver, &pkt);
        }
        self.next.deliver(sim, pkt);
    }
}

/// Handle to a constructed delay shell. Its two direction links live as
/// long as the routes between its namespaces that hold them.
pub struct DelayShell {
    /// The namespace applications run inside.
    pub inner_ns: Namespace,
}

/// Build a DelayShell: creates a child namespace of `parent` whose traffic
/// in each direction is delayed by `delay` (the paper's `mm-delay <ms>`)
/// plus the forwarding overhead.
pub fn delay_shell(parent: &Namespace, name: &str, delay: SimDuration) -> DelayShell {
    observed_delay_shell(parent, name, delay, &Observers::default())
}

/// [`delay_shell`] with both directions observed by `observers`.
pub(crate) fn observed_delay_shell(
    parent: &Namespace,
    name: &str,
    delay: SimDuration,
    observers: &Observers,
) -> DelayShell {
    let inner_ns = Namespace::root(name);
    let delay = delay + SHELL_OVERHEAD;
    let direction =
        |dir, next| DelayLink::reporting(delay, next, observers.reporter(PointKind::Delay, dir));
    let uplink = direction(Dir::Up, parent.router());
    let downlink = direction(Dir::Down, inner_ns.router());
    parent.attach_child(&inner_ns, uplink, downlink);
    DelayShell { inner_ns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pkt;
    use crate::transfer::{payload, upload, Receiver};
    use crate::{DropTail, QueueLimit, ShellStack};
    use bytes::Bytes;
    use mm_net::{
        CcAlgorithm, FnSink, Host, IpAddr, PacketIdGen, RecoveryTier, SocketAddr, TcpConfig,
        TcpHandle,
    };
    use mm_sim::Timestamp;
    use mm_trace::constant_rate;

    #[test]
    fn packets_delayed_exactly() {
        let mut sim = Simulator::new();
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let a = arrivals.clone();
        let sink = FnSink::new(move |sim: &mut Simulator, p: Packet| {
            a.borrow_mut().push((p.id, sim.now()));
        });
        let link = DelayLink::new(SimDuration::from_millis(30), sink);
        sim.schedule_at(Timestamp::from_millis(5), move |sim| {
            link.deliver(sim, pkt(1, 0))
        });
        sim.run();
        assert_eq!(*arrivals.borrow(), vec![(1, Timestamp::from_millis(35))]);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut sim = Simulator::new();
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let a = arrivals.clone();
        let sink = FnSink::new(move |_: &mut Simulator, p: Packet| a.borrow_mut().push(p.id));
        let link = DelayLink::new(SimDuration::from_millis(10), sink);
        let l = link.clone();
        sim.schedule_now(move |sim| {
            for i in 0..10 {
                l.deliver(sim, pkt(i, 0));
            }
        });
        sim.run();
        assert_eq!(*arrivals.borrow(), (0..10).collect::<Vec<_>>());
    }

    /// The delay leg this module shipped with — a one-shot closure per
    /// packet, carrying the packet — kept as the reference the queue must
    /// agree with: same packets, same instants, same place among the
    /// other events of those instants.
    fn closure_per_packet(total: SimDuration, next: SinkRef) -> SinkRef {
        FnSink::new(move |sim: &mut Simulator, p: Packet| {
            let next = next.clone();
            sim.schedule_in(total, move |sim| next.deliver(sim, p));
        })
    }

    #[test]
    fn queue_releases_what_a_closure_per_packet_released() {
        let total = SimDuration::from_millis(10);
        // (arrival ns, packets arriving then): a burst at one instant,
        // then a trickle — gaps shorter and longer than the delay, two
        // instants 1 ns apart, and a second burst while the first drains.
        let arrivals: [(u64, u64); 8] = [
            (0, 40),
            (1, 1),
            (2, 1),
            (3_000_000, 2),
            (9_999_999, 1),
            (10_000_000, 25),
            (10_000_001, 1),
            (45_000_000, 3),
        ];
        let run = |queue: bool| {
            let mut sim = Simulator::new();
            let log = Rc::new(RefCell::new(Vec::new()));
            let l = log.clone();
            let sink: SinkRef = FnSink::new(move |sim: &mut Simulator, p: Packet| {
                l.borrow_mut().push((p.id, sim.now()));
            });
            let leg: SinkRef = if queue {
                DelayLink::new(total, sink)
            } else {
                closure_per_packet(total, sink)
            };
            let mut id = 0;
            for (at, n) in arrivals {
                for _ in 0..n {
                    let (leg, l) = (leg.clone(), log.clone());
                    sim.schedule_at(Timestamp::from_nanos(at), move |sim| {
                        leg.deliver(sim, pkt(id, 0));
                        // A bystander due at the packet's release instant,
                        // filed right after it: it must run right after.
                        sim.schedule_in(total, move |sim| {
                            l.borrow_mut().push((1_000 + id, sim.now()));
                        });
                    });
                    id += 1;
                }
            }
            assert_eq!(sim.run(), mm_sim::RunResult::QueueEmpty);
            let log = log.borrow().clone();
            (log, sim.events_executed())
        };
        let (by_queue, by_closure) = (run(true), run(false));
        assert_eq!(by_queue.0.len(), 2 * 74);
        assert_eq!(by_queue, by_closure);
    }

    #[test]
    fn a_namespace_dropped_with_packets_in_the_queue_is_not_fatal() {
        let mut sim = Simulator::new();
        let parent = Namespace::root("parent");
        let shell = delay_shell(&parent, "delayed", SimDuration::from_millis(10));
        let inner_ip = IpAddr::new(100, 64, 0, 2);
        let seen = Rc::new(RefCell::new(0));
        let s = seen.clone();
        shell.inner_ns.add_host(
            inner_ip,
            FnSink::new(move |_: &mut Simulator, _| *s.borrow_mut() += 1),
        );
        let to_inner = |id| {
            let mut p = pkt(id, 0);
            p.dst = SocketAddr::new(inner_ip, 80);
            p
        };
        parent.router().deliver(&mut sim, to_inner(1));
        sim.run();
        assert_eq!(*seen.borrow(), 1);
        // Two more enter the downlink queue; then every handle to the
        // shell goes. The parent's route still holds the downlink, so the
        // queue drains on schedule — into a router that is gone.
        parent.router().deliver(&mut sim, to_inner(2));
        parent.router().deliver(&mut sim, to_inner(3));
        drop(shell);
        assert_eq!(sim.pending_events(), 2);
        assert_eq!(sim.run(), mm_sim::RunResult::QueueEmpty);
        assert_eq!(*seen.borrow(), 1);
        assert_eq!(parent.counters().forwarded_down, 3);
    }

    #[test]
    fn zero_delay_zero_overhead_is_synchronous() {
        let mut sim = Simulator::new();
        let count = Rc::new(RefCell::new(0));
        let c = count.clone();
        let sink = FnSink::new(move |_: &mut Simulator, _| *c.borrow_mut() += 1);
        let link = DelayLink::new(SimDuration::ZERO, sink);
        link.deliver(&mut sim, pkt(0, 0));
        assert_eq!(*count.borrow(), 1, "no event round-trip needed");
    }

    #[test]
    fn shell_wires_both_directions() {
        let mut sim = Simulator::new();
        let parent = Namespace::root("parent");
        let shell = delay_shell(&parent, "delayed", SimDuration::from_millis(25));
        // A host in the parent and one inside the shell.
        let outer_arrivals = Rc::new(RefCell::new(Vec::new()));
        let oa = outer_arrivals.clone();
        parent.add_host(
            IpAddr::new(8, 8, 8, 8),
            FnSink::new(move |sim: &mut Simulator, _| oa.borrow_mut().push(sim.now())),
        );
        let inner_arrivals = Rc::new(RefCell::new(Vec::new()));
        let ia = inner_arrivals.clone();
        shell.inner_ns.add_host(
            IpAddr::new(100, 64, 0, 2),
            FnSink::new(move |sim: &mut Simulator, _| ia.borrow_mut().push(sim.now())),
        );

        // Inner → outer takes 25 ms plus the forwarding overhead.
        let mut p = pkt(1, 0);
        p.dst = SocketAddr::new(IpAddr::new(8, 8, 8, 8), 80);
        shell.inner_ns.router().deliver(&mut sim, p);
        // And so does outer → inner.
        let mut q = pkt(2, 0);
        q.dst = SocketAddr::new(IpAddr::new(100, 64, 0, 2), 80);
        parent.router().deliver(&mut sim, q);
        sim.run();
        let exit = Timestamp::from_millis(25) + SHELL_OVERHEAD;
        assert_eq!(*outer_arrivals.borrow(), vec![exit]);
        assert_eq!(*inner_arrivals.borrow(), vec![exit]);
    }

    /// Four concurrent uploads of 0.3–1.2 MB of `data` from inside
    /// `delays` (and an 8 Mbit/s droptail-32 link, if `bottleneck`) to a
    /// server at the root, one port each: every flow's delivery digest
    /// and both ends' counters, and the instant the run ends.
    fn four_uploads(
        delays: &[SimDuration],
        bottleneck: bool,
        config: &TcpConfig,
        data: &Bytes,
    ) -> (Vec<String>, Timestamp) {
        let root = Namespace::root("root");
        let mut stack = ShellStack::new(&root);
        for &delay in delays {
            stack = stack.delay(delay);
        }
        if bottleneck {
            stack = stack.link(constant_rate(8.0, 1000), &|| {
                Box::new(DropTail::new(QueueLimit::Packets(32)))
            });
        }
        let mut sim = Simulator::new();
        let ids = PacketIdGen::new();
        let server = Host::new_in(IpAddr::new(8, 8, 8, 8), ids.clone(), &root);
        server.set_tcp_config(config.clone());
        let client = Host::new_in(IpAddr::new(100, 64, 0, 2), ids, &stack.innermost());
        client.set_tcp_config(config.clone());
        let flows: Vec<(TcpHandle, Rc<Receiver>)> = (1..=4)
            .map(|n| {
                upload(
                    &mut sim,
                    &client,
                    &server,
                    80 + n as u16,
                    data.slice(..n * 300_000),
                )
            })
            .collect();
        assert_eq!(sim.run(), mm_sim::RunResult::QueueEmpty);
        let delivered: usize = flows.iter().map(|(_, r)| r.received()).sum();
        assert_eq!(delivered, 3_000_000);
        assert!(flows.iter().all(|(_, r)| r.intact()));
        let senders = flows
            .iter()
            .map(|(h, r)| format!("{:x} {:?}", r.digest(), h.stats()));
        let receivers = (server.socket_ids().into_iter())
            .map(|id| format!("{:?}", server.socket(id).expect("accepted").stats()));
        (senders.chain(receivers).collect(), sim.now())
    }

    #[test]
    fn nested_delays_compose_into_one_with_their_overheads() {
        // Each DelayShell adds its forwarding overhead, so 10 ms inside
        // 30 ms is one 40 ms shell with one extra overhead — bit for bit,
        // with or without a bottleneck link inside them.
        let ms = SimDuration::from_millis;
        let data = payload(1_200_000);
        let arms = [
            (CcAlgorithm::Reno, RecoveryTier::Reno),
            (CcAlgorithm::Cubic, RecoveryTier::Sack),
            (CcAlgorithm::Bbr, RecoveryTier::RackTlp),
        ];
        for (cc, tier) in arms {
            let config = TcpConfig::builder().cc(cc).recovery(tier).build();
            for bottleneck in [false, true] {
                let run = |delays: &[SimDuration]| four_uploads(delays, bottleneck, &config, &data);
                let nested = run(&[ms(10), ms(30)]);
                let single = run(&[ms(40) + SHELL_OVERHEAD]);
                assert!(nested == single, "{cc:?}/{tier:?}, link {bottleneck}");
            }
        }
    }
}
