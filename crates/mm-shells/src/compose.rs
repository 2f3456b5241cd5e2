//! Shell composition: build nested shell stacks the way mahimahi nests
//! processes, e.g. `mm-delay 30 mm-link up.trace down.trace mm-loss uplink 0.01`.
//!
//! [`ShellStack`] is a builder: each call wraps a further shell *inside*
//! the previous one and returns the stack; `innermost()` yields the
//! namespace applications (the browser) run in.

use mm_capture::TapHandle;
use mm_metrics::MetricsHandle;
use mm_net::Namespace;
use mm_sim::{RngStream, SimDuration};
use mm_trace::Trace;

use crate::delay::{observed_delay_shell, DelayShell};
use crate::link::{link_shell, LinkShell};
use crate::loss::{loss_shell, LossShell};
use crate::queue::Qdisc;
use crate::tap::Observers;

/// A layer in a built stack, exposing per-shell stats handles.
pub enum ShellLayer {
    Delay(DelayShell),
    Link(LinkShell),
    Loss(LossShell),
}

impl ShellLayer {
    /// The namespace inside this layer.
    #[cfg(test)]
    pub(crate) fn inner_ns(&self) -> &Namespace {
        match self {
            ShellLayer::Delay(s) => &s.inner_ns,
            ShellLayer::Link(s) => &s.inner_ns,
            ShellLayer::Loss(s) => &s.inner_ns,
        }
    }
}

/// Builder for nested shells.
pub struct ShellStack {
    layers: Vec<ShellLayer>,
    current: Namespace,
    /// What observes each shell added next; its index counts the layers.
    observers: Observers,
}

impl ShellStack {
    /// Start a stack rooted at `outer` (where replay servers live).
    pub fn new(outer: &Namespace) -> Self {
        ShellStack {
            layers: Vec::new(),
            current: outer.clone(),
            observers: Observers::default(),
        }
    }

    /// Observe every shell added *after* this call (so call it first):
    /// `tap` sees each direction's packets, under a [`mm_capture::TapPoint`]
    /// whose index matches the layer's namespace suffix (`link-2` ⇒
    /// index 2), and `qdisc_metrics` each link queue's instruments (the
    /// `qdisc_up_*`/`qdisc_down_*` metric families). Observers observe
    /// only: a stack built with them produces the byte-identical
    /// simulation of one built without.
    pub fn observed(
        mut self,
        tap: Option<TapHandle>,
        qdisc_metrics: Option<MetricsHandle>,
    ) -> Self {
        self.observers.tap = tap;
        self.observers.metrics = qdisc_metrics;
        self
    }

    fn next_name(&mut self, kind: &str) -> String {
        self.observers.index += 1;
        format!("{kind}-{}", self.observers.index)
    }

    /// Nest a DelayShell (fixed one-way delay each direction).
    pub fn delay(mut self, delay: SimDuration) -> Self {
        let name = self.next_name("delay");
        let shell = observed_delay_shell(&self.current, &name, delay, &self.observers);
        self.current = shell.inner_ns.clone();
        self.layers.push(ShellLayer::Delay(shell));
        self
    }

    /// Nest a LinkShell with a symmetric trace and the given qdisc factory.
    pub fn link(self, trace: Trace, make_qdisc: &dyn Fn() -> Box<dyn Qdisc>) -> Self {
        self.link_asymmetric(trace.clone(), trace, make_qdisc)
    }

    /// Nest a LinkShell with distinct uplink/downlink traces.
    pub fn link_asymmetric(
        mut self,
        uplink: Trace,
        downlink: Trace,
        make_qdisc: &dyn Fn() -> Box<dyn Qdisc>,
    ) -> Self {
        let name = self.next_name("link");
        let traces = (uplink, downlink);
        let shell = link_shell(&self.current, &name, traces, make_qdisc, &self.observers);
        self.current = shell.inner_ns.clone();
        self.layers.push(ShellLayer::Link(shell));
        self
    }

    /// Nest a LossShell.
    pub fn loss(mut self, uplink_loss: f64, downlink_loss: f64, rng: &RngStream) -> Self {
        let name = self.next_name("loss");
        let rates = (uplink_loss, downlink_loss);
        let shell = loss_shell(&self.current, &name, rates, rng, &self.observers);
        self.current = shell.inner_ns.clone();
        self.layers.push(ShellLayer::Loss(shell));
        self
    }

    /// The innermost namespace (where the application runs).
    pub fn innermost(&self) -> Namespace {
        self.current.clone()
    }

    /// The layers, outermost first.
    pub fn layers(&self) -> &[ShellLayer] {
        &self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::DropTail;
    use bytes::Bytes;
    use mm_net::{FnSink, IpAddr, Packet, SocketAddr, TcpFlags, TcpSegment};
    use mm_sim::{Simulator, Timestamp};
    use mm_trace::constant_rate;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn nested_delay_link_stack_accumulates_delay() {
        let mut sim = Simulator::new();
        let root = Namespace::root("root");
        let stack = ShellStack::new(&root)
            .delay(SimDuration::from_millis(30))
            .link(
                constant_rate(12.0, 1000),
                &|| Box::new(DropTail::infinite()),
            );
        let inner = stack.innermost();

        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let a = arrivals.clone();
        root.add_host(
            IpAddr::new(8, 8, 8, 8),
            FnSink::new(move |sim: &mut Simulator, _| a.borrow_mut().push(sim.now())),
        );
        let pkt = Packet {
            id: 0,
            src: SocketAddr::new(IpAddr::new(100, 64, 0, 2), 1000),
            dst: SocketAddr::new(IpAddr::new(8, 8, 8, 8), 80),
            segment: TcpSegment {
                flags: TcpFlags::ACK,
                seq: 0,
                ack: 0,
                window: 0,
                sack: Default::default(),
                payload: Bytes::from(vec![0u8; 1460]),
            },
            corrupted: false,
        };
        inner.router().deliver(&mut sim, pkt);
        sim.run();
        // Packet waits for a link opportunity (1/ms at 12 Mbit/s ⇒ ≤1 ms),
        // then crosses the 30 ms delay.
        let got = arrivals.borrow()[0];
        assert!(got >= Timestamp::from_millis(30));
        assert!(got <= Timestamp::from_millis(32), "arrived {got}");
        assert_eq!(stack.layers().len(), 2);
    }

    #[test]
    fn stack_names_are_unique() {
        let root = Namespace::root("root");
        let stack = ShellStack::new(&root)
            .delay(SimDuration::from_millis(1))
            .delay(SimDuration::from_millis(2));
        let names: Vec<String> = stack.layers().iter().map(|l| l.inner_ns().name()).collect();
        assert_eq!(names.len(), 2);
        assert_ne!(names[0], names[1]);
    }

    #[test]
    fn innermost_traffic_isolated_from_sibling_stack() {
        // Two sibling stacks under one root: traffic in one must never
        // increment counters in the other (the paper's isolation claim).
        let mut sim = Simulator::new();
        let root = Namespace::root("root");
        let stack_a = ShellStack::new(&root).delay(SimDuration::from_millis(10));
        let stack_b = ShellStack::new(&root).delay(SimDuration::from_millis(10));
        let sink_count = Rc::new(RefCell::new(0));
        let sc = sink_count.clone();
        root.add_host(
            IpAddr::new(8, 8, 8, 8),
            FnSink::new(move |_: &mut Simulator, _| *sc.borrow_mut() += 1),
        );
        let pkt = Packet {
            id: 0,
            src: SocketAddr::new(IpAddr::new(100, 64, 0, 2), 1000),
            dst: SocketAddr::new(IpAddr::new(8, 8, 8, 8), 80),
            segment: TcpSegment {
                flags: TcpFlags::ACK,
                seq: 0,
                ack: 0,
                window: 0,
                sack: Default::default(),
                payload: Bytes::new(),
            },
            corrupted: false,
        };
        stack_a.innermost().router().deliver(&mut sim, pkt);
        sim.run();
        assert_eq!(*sink_count.borrow(), 1);
        assert_eq!(stack_a.innermost().counters().forwarded_up, 1);
        assert_eq!(stack_b.innermost().counters().total(), 0);
    }
}
