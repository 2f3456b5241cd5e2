//! The TCP connection: its public types, the handshake and close state
//! machine, teardown, and the timers. `TcpInner` is one struct
//! implemented across this file, `sender.rs`, `receiver.rs` and
//! `recovery.rs`; what it implements, and where it departs from the RFCs,
//! is DESIGN.md §3.
//!
//! Re-entrancy discipline: methods on `TcpInner` never invoke application
//! callbacks while `self` is borrowed. Every entry point goes through
//! `TcpHandle::drive`, which performs socket work, releases the borrow,
//! sends the produced packets, plans the timers, and only then fires
//! application events — except `abort`, which sends one RST and raises
//! nothing.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write;
use std::rc::{Rc, Weak};

use bytes::Bytes;
use mm_metrics::MetricsHandle;
use mm_sim::{BankHandler, SimDuration, Simulator, TimerBank, TimerMux, Timestamp};
use mm_trace::{Span, SpanHandle, SpanKind, NO_RESOURCE};

use crate::addr::SocketAddr;
use crate::packet::{Packet, SackOption, TcpFlags, TcpSegment};
use crate::sink::SinkRef;
use crate::tcp::cc::{CcAlgorithm, Controller};
use crate::tcp::deque::InlineDeque;
use crate::tcp::pacing::Pacer;
use crate::tcp::rate::{RateEstimator, TxRecord};
use crate::tcp::recovery::LossRecovery;
use crate::tcp::rtt::RttEstimator;
use crate::tcp::sack::ReceiverSack;
use crate::tcp::sender::RetxQueue;

/// The loss-recovery tier a socket runs, negotiated on the SYN exchange
/// (DESIGN.md §3). `RackTlp` implies SACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryTier {
    /// NewReno go-back-N: dup-ack fast retransmit, one hole per RTT.
    #[default]
    Reno,
    /// RFC 2018/6675 selective retransmission with PRR and limited
    /// transmit.
    Sack,
    /// SACK plus RACK-TLP (RFC 8985) time-based loss detection, a Tail
    /// Loss Probe timer, and F-RTO (RFC 5682) spurious-RTO undo.
    RackTlp,
}

impl RecoveryTier {
    /// Whether this tier negotiates SACK on the handshake.
    pub(crate) fn uses_sack(self) -> bool {
        !matches!(self, RecoveryTier::Reno)
    }

    /// Whether this tier runs the RACK-TLP/F-RTO machinery.
    pub(crate) fn uses_rack(self) -> bool {
        matches!(self, RecoveryTier::RackTlp)
    }
}

/// Receive window advertised to the peer, bytes. The model's
/// applications consume data immediately, so it is always fully open.
pub(super) const RECV_WINDOW: u64 = 1 << 20;

/// Initial retransmission timeout before any RTT sample exists. RFC 6298
/// suggests 1 s; this is the conservative 3 s of RFC 1122 / pre-2011
/// Linux, because synchronized page-load bursts through deep droptail
/// queues routinely inflate early RTTs past 1 s and spurious go-back-N
/// retransmission storms would dominate.
const INITIAL_RTO: SimDuration = SimDuration::from_secs(3);

/// Consecutive RTOs before the connection is reset.
const MAX_RETRIES: u32 = 15;

/// Entries the event and send queues reserve when they first spill past
/// their inline slots, as the reassembly queue does. Grown from four by
/// doubling instead, they cost a lossy SACK transfer 3 allocator calls per
/// 67 retransmissions instead of 1.
const SPILL: usize = 16;

/// Socket configuration.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Congestion-control algorithm.
    pub(crate) cc: CcAlgorithm,
    /// Floor on the RTO (Linux: 200 ms).
    pub min_rto: SimDuration,
    /// Initial congestion window in segments; `None` = IW10 (RFC 6928,
    /// the era's Linux default). Raised by servers deploying multiplexed
    /// protocols — Google's SPDY servers ran IW32 so one connection could
    /// do the work of a browser's six.
    pub initial_cwnd_segments: Option<u32>,
    /// Loss-recovery tier; default `Reno`.
    pub recovery: RecoveryTier,
    /// Metrics and flow-trace sink; `None` (default) emits nothing.
    /// Sinks observe only (`mm_metrics::MetricsSink`).
    pub metrics: Option<MetricsHandle>,
    /// Causal-span sink; `None` (default) emits nothing. The initiator
    /// side of a connection emits its `ConnSetup`, `Conn` and `HolWait`
    /// spans. Sinks observe only. A harness world (`mahimahi`'s
    /// `World::build`) sets it from the world's observers.
    pub span: Option<SpanHandle>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            cc: CcAlgorithm::default(),
            min_rto: SimDuration::from_millis(200),
            initial_cwnd_segments: None,
            recovery: RecoveryTier::default(),
            metrics: None,
            span: None,
        }
    }
}

impl TcpConfig {
    /// Start a builder from the defaults.
    ///
    /// ```
    /// use mm_net::{CcAlgorithm, RecoveryTier, TcpConfig};
    /// let config = TcpConfig::builder()
    ///     .cc(CcAlgorithm::Bbr)
    ///     .recovery(RecoveryTier::RackTlp)
    ///     .build();
    /// assert_eq!(config.recovery, RecoveryTier::RackTlp);
    /// ```
    pub fn builder() -> TcpConfigBuilder {
        TcpConfigBuilder {
            config: TcpConfig::default(),
        }
    }

    /// Continue building from an existing configuration.
    pub fn to_builder(&self) -> TcpConfigBuilder {
        TcpConfigBuilder {
            config: self.clone(),
        }
    }
}

/// Chained-setter builder for [`TcpConfig`]; see [`TcpConfig::builder`].
#[derive(Debug, Clone)]
pub struct TcpConfigBuilder {
    config: TcpConfig,
}

impl TcpConfigBuilder {
    /// Congestion-control algorithm.
    pub fn cc(mut self, cc: CcAlgorithm) -> Self {
        self.config.cc = cc;
        self
    }

    /// Loss-recovery tier.
    pub fn recovery(mut self, recovery: RecoveryTier) -> Self {
        self.config.recovery = recovery;
        self
    }

    /// Floor on the RTO.
    pub fn min_rto(mut self, rto: SimDuration) -> Self {
        self.config.min_rto = rto;
        self
    }

    /// Initial congestion window in segments (None = IW10).
    pub fn initial_cwnd_segments(mut self, segments: u32) -> Self {
        self.config.initial_cwnd_segments = Some(segments);
        self
    }

    /// Install an observability sink (see [`TcpConfig::metrics`]).
    pub fn metrics(mut self, sink: MetricsHandle) -> Self {
        self.config.metrics = Some(sink);
        self
    }

    /// Finish building.
    pub fn build(self) -> TcpConfig {
        self.config
    }
}

/// Connection states (RFC 793 subset; LISTEN lives on the host, TIME_WAIT
/// collapses to CLOSED — the simulation has no stray duplicate segments
/// from earlier incarnations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    SynSent,
    SynReceived,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    LastAck,
    Closing,
    Closed,
}

/// Events surfaced to the application owning a socket.
#[derive(Debug, Clone)]
pub enum SocketEvent {
    /// Handshake completed; the socket is writable.
    Connected,
    /// In-order payload bytes arrived.
    Data(Bytes),
    /// The peer closed its direction (EOF after any buffered data).
    PeerClosed,
    /// The connection was reset (RST or retry exhaustion).
    Reset,
    /// Every byte the app queued has been handed to the wire (bytes may
    /// still be in flight): the analogue of an epoll writability edge,
    /// so an application can self-clock its writes instead of filling
    /// the unbounded send buffer up front.
    SendQueueDrained,
}

/// Application-side observer of socket events.
pub trait SocketApp {
    /// Called with each event; `handle` can be used to send/close.
    fn on_event(&self, sim: &mut Simulator, handle: &TcpHandle, event: SocketEvent);
}

/// Full connection state. Public API lives on [`TcpHandle`].
pub(crate) struct TcpInner {
    pub(crate) local: SocketAddr,
    pub(crate) remote: SocketAddr,
    pub(super) state: TcpState,
    pub(super) config: TcpConfig,

    // --- send side (sender.rs) ---
    /// First unacknowledged sequence number.
    pub(super) snd_una: u64,
    /// Next sequence number to send.
    pub(super) snd_nxt: u64,
    /// Peer's advertised window.
    pub(super) snd_wnd: u64,
    /// App data accepted but not yet segmented, FIFO of chunks. Two
    /// inline: a replayed response is written as its head and its body.
    pub(super) send_queue: InlineDeque<Bytes, 2, SPILL>,
    /// Bytes queued in `send_queue`.
    pub(super) send_queued_bytes: u64,
    /// Transmitted, unacknowledged segments and their pipe count.
    pub(super) retx: RetxQueue,
    /// FIN requested by the app; sent once the queue drains.
    pub(super) fin_pending: bool,
    /// Sequence number of our FIN, once sent.
    pub(super) fin_seq: Option<u64>,
    pub(super) cc: Controller,
    pub(super) rtt: RttEstimator,
    pub(super) consecutive_timeouts: u32,
    /// Loss recovery at the negotiated tier (recovery.rs).
    pub(super) recovery: LossRecovery,
    /// Delivery-rate estimator (always maintained — pure bookkeeping —
    /// but only consumed by a model-based controller).
    pub(super) rate: RateEstimator,
    /// The most recently *sent* segment this ack delivered: the packet
    /// whose stamped [`TxRecord`] closes into this ack's rate sample
    /// (draft-cheng picks exactly this one). Retransmitted entries are
    /// excluded — which copy the ack covers is Karn-ambiguous.
    pub(super) rate_candidate: Option<(Timestamp, u64, TxRecord)>,
    /// Pacing release clock (active only when the controller models a
    /// rate).
    pub(super) pacer: Pacer,
    /// Release instant the last paced transmission stopped at, consumed
    /// by the timer planning (timer arming needs the simulator, which
    /// segment processing does not hold).
    pub(super) pace_deadline: Option<Timestamp>,

    // --- receive side (receiver.rs) ---
    /// Next in-order byte expected from the peer.
    pub(super) rcv_nxt: u64,
    /// Out-of-order segments awaiting the gap to fill, sorted by
    /// sequence, one per starting sequence (DESIGN.md §3).
    pub(super) ooo: VecDeque<(u64, Bytes)>,
    /// SACK block generator over the out-of-order queue.
    pub(super) rcv_sack: ReceiverSack,
    /// Peer FIN's sequence number, if received out of order.
    pub(super) peer_fin_seq: Option<u64>,
    /// Start of the current receive-side reassembly gap: set when data
    /// first parks in `ooo`, cleared (emitting a `HolWait` span) when
    /// the hole fills and the queue drains.
    pub(super) hole_since: Option<Timestamp>,

    // --- plumbing ---
    egress: SinkRef,
    packet_ids: Rc<std::cell::Cell<u64>>,
    /// Where an entry point collects the packets it emits: taken, handed
    /// to the egress, put back empty. One per host, kept for its
    /// capacity — a host runs one socket's entry point at a time.
    out: Rc<RefCell<Vec<Packet>>>,
    /// The socket's timers (`RTO` … `PACING`), bound at construction to
    /// the methods they run.
    pub(super) timers: TimerBank<SocketFire, 4>,
    /// Set when new data was acked: RFC 6298 (5.3) restarts the RTO timer
    /// so it measures time since the *latest* forward progress, not since
    /// the oldest transmission — otherwise deep queues cause spurious
    /// timeouts.
    pub(super) rearm_rto: bool,
    app: Option<Rc<dyn SocketApp>>,
    /// Events waiting to be dispatched once the borrow is released. One
    /// inline: an entry point usually raises at most one.
    pub(super) pending_events: InlineDeque<SocketEvent, 1, SPILL>,
    /// Statistics.
    pub(crate) stats: TcpStats,
    /// Flow id in the sink's tracer, when `config.metrics` carries one.
    pub(super) trace_flow: Option<u64>,
    /// Connect-call time on the *initiator* side; `Some` until the
    /// `Conn` lifetime span is emitted at teardown. Accept-side sockets
    /// keep `None` so only one endpoint describes each connection.
    pub(super) conn_t0: Option<Timestamp>,
    /// Most recent segment-arrival time — the close timestamp teardown
    /// stamps on the `Conn` span (teardown sites have no clock).
    last_seen: Option<Timestamp>,
    /// Last time a routine metric sample was emitted, for throttling
    /// the per-ack samples.
    pub(super) last_metric_sample: std::cell::Cell<Option<Timestamp>>,
}

/// Per-connection counters (exported for tests and diagnostics).
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpStats {
    pub segments_sent: u64,
    pub segments_received: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub retransmissions: u64,
    pub timeouts: u64,
    pub fast_retransmits: u64,
    /// Fast-retransmit recoveries entered through the SACK path.
    pub sack_recoveries: u64,
    /// New-data segments sent by limited transmit (RFC 3042).
    pub limited_transmits: u64,
    /// Tail Loss Probes fired (RackTlp tier).
    pub tlp_probes: u64,
    /// Segments marked lost by RACK's delivery-time inference.
    pub rack_loss_marks: u64,
    /// Retransmission timeouts proven spurious by F-RTO (and undone).
    pub spurious_rtos: u64,
    /// Delivery-rate samples fed to the congestion controller.
    pub rate_samples: u64,
    /// Transmission opportunities deferred by the pacer (pacing only).
    pub pacing_waits: u64,
    /// High-water mark of the retransmission queue (entries). Pure
    /// bookkeeping for soak-mode memory assertions: a leak in queue
    /// trimming shows up as this growing with connection lifetime.
    pub max_retx_queue: u64,
    /// High-water mark of the SACK scoreboard (ranges) — the other
    /// per-connection structure whose growth soak tests bound.
    pub max_scoreboard_ranges: u64,
}

/// Shared handle to a TCP connection.
#[derive(Clone)]
pub struct TcpHandle {
    pub(crate) inner: Rc<RefCell<TcpInner>>,
}

/// A [`TcpHandle`] that does not keep the connection alive. This is what
/// anything the socket owns — its application, its own timers — holds
/// when it needs the socket outside an event callback: a strong handle
/// there would be a cycle no one ever breaks (DESIGN.md §6).
#[derive(Clone)]
pub struct WeakTcpHandle {
    inner: Weak<RefCell<TcpInner>>,
}

impl WeakTcpHandle {
    /// The connection, unless its host has let it go.
    pub fn upgrade(&self) -> Option<TcpHandle> {
        self.inner.upgrade().map(|inner| TcpHandle { inner })
    }
}

/// Slots of [`TcpInner::timers`].
pub(super) const RTO: usize = 0;
/// Tail Loss Probe (RackTlp tier only).
pub(super) const TLP: usize = 1;
/// RACK reordering window (RackTlp tier only).
pub(super) const REO: usize = 2;
/// Pacing release (a controller that models a rate only).
pub(super) const PACING: usize = 3;

/// What a socket's timers do when they fire. It holds the socket weakly —
/// the timers are the socket's own, and a shared [`TimerMux`] is reachable
/// from the socket — so a socket whose host is gone is freed with it and
/// the stale firing does nothing.
pub(super) struct SocketFire {
    socket: WeakTcpHandle,
}

impl BankHandler for SocketFire {
    fn on_fire(&self, sim: &mut Simulator, slot: usize) {
        let Some(socket) = self.socket.upgrade() else {
            return;
        };
        match slot {
            RTO => socket.on_rto(sim),
            TLP => socket.on_tlp(sim),
            REO => socket.on_reo_timer(sim),
            PACING => socket.on_pace_timer(sim),
            _ => unreachable!("a socket has four timers"),
        }
    }
}

/// What a host lends each of its sockets.
pub(crate) struct HostLinks {
    /// Where packets go (normally the namespace router).
    pub(crate) egress: SinkRef,
    /// The world's packet-id counter.
    pub(crate) packet_ids: Rc<std::cell::Cell<u64>>,
    /// The host's one out-buffer (see `TcpInner::out`).
    pub(crate) out: Rc<RefCell<Vec<Packet>>>,
    /// The host's timer mux, if it runs its sockets' timers on one.
    pub(crate) timer_mux: Option<TimerMux>,
}

#[cfg(test)]
impl HostLinks {
    /// Test support: the links of a host attached to nothing.
    pub(crate) fn detached() -> HostLinks {
        HostLinks {
            egress: crate::sink::BlackHole::new(),
            packet_ids: Rc::default(),
            out: Rc::default(),
            timer_mux: None,
        }
    }
}

impl TcpInner {
    /// `me` is the socket under construction (see [`TcpHandle::open`]).
    fn new(
        me: &Weak<RefCell<TcpInner>>,
        local: SocketAddr,
        remote: SocketAddr,
        state: TcpState,
        config: TcpConfig,
        host: HostLinks,
    ) -> Self {
        let cc = Controller::new(
            config.cc,
            match config.initial_cwnd_segments {
                Some(segments) => segments as u64 * crate::packet::MSS as u64,
                None => crate::tcp::cc::INITIAL_WINDOW,
            },
        );
        let rtt = RttEstimator::new(INITIAL_RTO, config.min_rto);
        // All the per-socket timers share the host's mux when one is
        // installed — one dispatcher slot in the global heap per host
        // instead of a dead entry per (re)arm per socket.
        let socket = WeakTcpHandle { inner: me.clone() };
        let timers = TimerBank::bound(SocketFire { socket }, host.timer_mux.as_ref());
        // Register with the flow tracer (if the sink carries one) before
        // any samples can fire; the id is `None` when tracing is off so
        // the sample path short-circuits. The description is built in
        // one buffer sized for the longest `a.b.c.d:port` pair.
        let trace_flow = config.metrics.as_ref().and_then(|m| {
            let mut desc = String::with_capacity(2 * "255.255.255.255:65535".len() + 1);
            write!(desc, "{local}-{remote}").expect("writing to a String");
            m.flow_open(&desc)
        });
        TcpInner {
            local,
            remote,
            state,
            config,
            snd_una: 0,
            snd_nxt: 0,
            snd_wnd: u64::MAX,
            send_queue: InlineDeque::default(),
            send_queued_bytes: 0,
            retx: RetxQueue::default(),
            fin_pending: false,
            fin_seq: None,
            cc,
            rtt,
            consecutive_timeouts: 0,
            // Nothing is negotiated until the SYN exchange.
            recovery: LossRecovery::new(RecoveryTier::Reno),
            rate: RateEstimator::new(),
            rate_candidate: None,
            pacer: Pacer::new(),
            pace_deadline: None,
            rcv_nxt: 0,
            ooo: VecDeque::new(),
            rcv_sack: ReceiverSack::new(),
            peer_fin_seq: None,
            hole_since: None,
            egress: host.egress,
            packet_ids: host.packet_ids,
            out: host.out,
            timers,
            rearm_rto: false,
            app: None,
            pending_events: InlineDeque::default(),
            stats: TcpStats::default(),
            trace_flow,
            conn_t0: None,
            last_seen: None,
            last_metric_sample: std::cell::Cell::new(None),
        }
    }

    /// Emit one connection-scoped span. A single branch when off.
    pub(super) fn span_emit(&self, kind: SpanKind, t0: Timestamp, t1: Timestamp, detail: &str) {
        if let Some(sp) = &self.config.span {
            let id = sp.next_id();
            sp.record(Span {
                load: 0, // stamped by the recording buffer
                id,
                parent: 0,
                kind,
                t0_ns: t0.as_nanos(),
                t1_ns: t1.as_nanos(),
                res: NO_RESOURCE,
                conn: self.local.conn_id(),
                url: String::new(),
                detail: detail.to_string(),
            });
        }
    }

    /// Bump a sink counter by one. A single branch when metrics are off.
    pub(super) fn metric_count(&self, name: &'static str) {
        if let Some(m) = &self.config.metrics {
            m.counter_add(name, 1);
        }
    }

    /// The one place a packet is built: every segment this socket puts on
    /// the wire — handshake, data, retransmission, ACK, RST — comes from
    /// here, stamped with the current `rcv_nxt` and receive window. (The
    /// model's application consumes data immediately, so the full receive
    /// window is always open.) A retransmission passes the SACK option
    /// its original carried.
    pub(super) fn packet(
        &mut self,
        flags: TcpFlags,
        seq: u64,
        payload: Bytes,
        sack: SackOption,
    ) -> Packet {
        self.stats.segments_sent += 1;
        let id = self.packet_ids.get();
        self.packet_ids.set(id + 1);
        Packet {
            id,
            src: self.local,
            dst: self.remote,
            segment: TcpSegment {
                flags,
                seq,
                ack: self.rcv_nxt,
                window: RECV_WINDOW,
                sack,
                payload,
            },
            corrupted: false,
        }
    }

    /// Settle the recovery tier on the SYN exchange: the configured tier
    /// if the peer offered (or confirmed) SACK, else `Reno`. This is the
    /// only place after the SYN's offer that reads `config.recovery`.
    fn negotiate(&mut self, peer_sack_permitted: bool) {
        self.recovery.tier = if peer_sack_permitted {
            self.config.recovery
        } else {
            RecoveryTier::Reno
        };
    }

    /// Handle an incoming segment. Produces response packets and queues
    /// app events on `self.pending_events`.
    fn on_segment(&mut self, now: Timestamp, seg: TcpSegment, out: &mut Vec<Packet>) {
        self.stats.segments_received += 1;
        self.last_seen = Some(now);
        if seg.flags.rst {
            // A reset for a socket that is already closed (a FIN lost and
            // retransmitted at a peer that has gone) has nothing left to
            // reset and no application left to tell.
            if self.state != TcpState::Closed {
                self.teardown();
                self.pending_events.push_back(SocketEvent::Reset);
            }
            return;
        }
        match self.state {
            TcpState::Closed => {
                // Stray segment to a dead socket: answer with RST.
                let pkt = self.packet(TcpFlags::RST, seg.ack, Bytes::new(), SackOption::default());
                out.push(pkt);
            }
            TcpState::SynSent => self.on_segment_syn_sent(now, seg, out),
            TcpState::SynReceived => {
                if seg.flags.ack && seg.ack > self.snd_una {
                    self.handle_ack(now, &seg, out);
                    self.state = TcpState::Established;
                    self.pending_events.push_back(SocketEvent::Connected);
                }
                if !seg.payload.is_empty() || seg.flags.fin {
                    self.handle_data(now, &seg, out);
                }
            }
            _ => {
                if seg.flags.ack {
                    self.handle_ack(now, &seg, out);
                }
                if !seg.payload.is_empty() || seg.flags.fin {
                    self.handle_data(now, &seg, out);
                }
                // Window updates from bare ACKs.
                self.snd_wnd = seg.window;
            }
        }
    }

    fn on_segment_syn_sent(&mut self, now: Timestamp, seg: TcpSegment, out: &mut Vec<Packet>) {
        if seg.flags.syn && seg.flags.ack && seg.ack == self.snd_nxt {
            // SACK — and every tier above Reno — is on only if the
            // SYN-ACK confirmed our offer.
            self.negotiate(seg.sack.permitted);
            // Our SYN — all a socket in this state has sent — is acked;
            // record RTT if not retransmitted.
            if let Some(entry) = self.retx.pop_back() {
                debug_assert_eq!(entry.segment.seq, self.snd_nxt - 1);
                if !entry.retransmitted {
                    self.rtt.on_measurement(now.duration_since(entry.sent_at));
                }
            }
            self.snd_una = seg.ack;
            self.rcv_nxt = seg.seq + 1;
            self.snd_wnd = seg.window;
            self.state = TcpState::Established;
            self.consecutive_timeouts = 0;
            self.timers.cancel(RTO);
            if let Some(t0) = self.conn_t0 {
                self.span_emit(SpanKind::ConnSetup, t0, now, "handshake");
            }
            // Completing ACK (may carry data below via transmit_new).
            let ack = self.ack_packet(now);
            out.push(ack);
            self.pending_events.push_back(SocketEvent::Connected);
            self.transmit_new(now, out);
        }
        // A bare SYN here would be simultaneous-open; out of scope.
    }

    pub(super) fn enter_fin_state(&mut self) {
        self.state = match self.state {
            TcpState::Established | TcpState::SynReceived => TcpState::FinWait1,
            TcpState::CloseWait => TcpState::LastAck,
            s => s,
        };
    }

    pub(super) fn on_fin_acked(&mut self) {
        self.state = match self.state {
            TcpState::FinWait1 => TcpState::FinWait2,
            TcpState::Closing => TcpState::Closed,
            TcpState::LastAck => TcpState::Closed,
            s => s,
        };
        if self.state == TcpState::Closed {
            self.teardown();
        }
    }

    pub(super) fn on_peer_fin(&mut self) {
        self.pending_events.push_back(SocketEvent::PeerClosed);
        self.state = match self.state {
            TcpState::Established => TcpState::CloseWait,
            TcpState::FinWait1 => TcpState::Closing,
            TcpState::FinWait2 => TcpState::Closed,
            s => s,
        };
        if self.state == TcpState::Closed {
            self.teardown();
        }
    }

    fn teardown(&mut self) {
        // Close out the initiator's lifetime span exactly once. The
        // teardown sites carry no clock, so the close edge is the last
        // segment-arrival time (every close path is segment-driven).
        if let Some(t0) = self.conn_t0.take() {
            let t1 = self.last_seen.unwrap_or(t0);
            self.span_emit(SpanKind::Conn, t0, t1.max(t0), "");
        }
        self.hole_since = None;
        self.state = TcpState::Closed;
        for slot in [RTO, TLP, REO, PACING] {
            self.timers.cancel(slot);
        }
        self.send_queue = InlineDeque::default();
        self.send_queued_bytes = 0;
        self.retx.release();
        self.pace_deadline = None;
        self.pacer.reset();
        self.rate_candidate = None;
        self.recovery.clear();
        self.ooo = VecDeque::new();
    }

    /// A socket that has reached `Closed` and told its application so has
    /// no further use for it: hand the app back for the caller to drop
    /// (outside the borrow), so parsers and session state go when the
    /// connection does rather than when the world does. `teardown`
    /// already released the queues; the handle itself keeps answering
    /// `state`/`stats`/`local_addr`.
    fn release_app(&mut self) -> Option<Rc<dyn SocketApp>> {
        if self.state != TcpState::Closed || !self.pending_events.is_empty() {
            return None;
        }
        self.pending_events = InlineDeque::default();
        self.app.take()
    }

    /// Bring the timers in line with the socket after an entry
    /// point's work. A closed socket has none (teardown cancelled them).
    fn plan_timers(&mut self, sim: &mut Simulator) {
        if self.state == TcpState::Closed {
            return;
        }
        let now = sim.now();
        let outstanding = !self.retx.is_empty();
        let rearm = std::mem::take(&mut self.rearm_rto);
        let rto_at = outstanding.then(|| now + self.rtt.rto());
        self.plan(sim, RTO, rto_at, |armed, _| {
            !rearm && armed != Timestamp::NEVER
        });
        // The desired TLP deadline moves forward on every flush, but the
        // armed timer is left alone when it is already set to fire no
        // later — the fire handler re-arms itself forward to the
        // then-current desired deadline. Without this, each flush would
        // push a dead timer generation onto the event heap (measured as
        // the dominant RackTlp host cost on the lossy-transfer bench).
        let tlp_at = self.recovery.plan_tlp(
            outstanding,
            self.consecutive_timeouts,
            self.rtt.srtt(),
            self.timers.deadline(RTO),
            now,
        );
        self.plan(sim, TLP, tlp_at, |armed, at| armed <= at);
        let reo_at = self.recovery.plan_reo(outstanding, now);
        self.plan(sim, REO, reo_at, |armed, at| armed == at);
        // `transmit_new` records the release instant it stopped at
        // (cleared on entry, so a deadline here is always from the
        // latest transmission opportunity); the fire handler simply
        // re-runs the transmit loop.
        self.plan(sim, PACING, self.pace_deadline, |armed, at| armed == at);
    }

    /// The one timer-planning rule: arm `slot` at `want` unless `keep`
    /// accepts the deadline it is armed at now (`NEVER` when unarmed);
    /// with nothing wanted, cancel it.
    fn plan(
        &self,
        sim: &mut Simulator,
        slot: usize,
        want: Option<Timestamp>,
        keep: impl FnOnce(Timestamp, Timestamp) -> bool,
    ) {
        match want {
            Some(at) if keep(self.timers.deadline(slot), at) => {}
            Some(at) => self.timers.rearm_at(sim, slot, at),
            None => self.timers.cancel(slot),
        }
    }
}

impl TcpHandle {
    /// A handle that does not keep the connection alive.
    pub fn downgrade(&self) -> WeakTcpHandle {
        WeakTcpHandle {
            inner: Rc::downgrade(&self.inner),
        }
    }

    /// Build a socket whose timers are bound to it, let `init` put it in
    /// its opening state, and send the opening segment `init` returns.
    #[allow(clippy::too_many_arguments)]
    fn open(
        sim: &mut Simulator,
        local: SocketAddr,
        remote: SocketAddr,
        state: TcpState,
        config: TcpConfig,
        host: HostLinks,
        app: Option<Rc<dyn SocketApp>>,
        init: impl FnOnce(&mut TcpInner, Timestamp) -> Packet,
    ) -> TcpHandle {
        let now = sim.now();
        let mut first = None;
        let inner = Rc::new_cyclic(|me| {
            let mut inner = TcpInner::new(me, local, remote, state, config, host);
            inner.app = app;
            let pkt = init(&mut inner, now);
            inner.snd_nxt = 1;
            inner.insert_retx(pkt.segment.clone(), now);
            first = Some(pkt);
            RefCell::new(inner)
        });
        let handle = TcpHandle { inner };
        let egress = handle.inner.borrow().egress.clone();
        egress.deliver(sim, first.expect("set while building"));
        handle.inner.borrow_mut().plan_timers(sim);
        handle
    }

    /// Create the client half of a connection and emit its SYN.
    pub(crate) fn connect(
        sim: &mut Simulator,
        local: SocketAddr,
        remote: SocketAddr,
        config: TcpConfig,
        host: HostLinks,
        app: Rc<dyn SocketApp>,
    ) -> TcpHandle {
        let state = TcpState::SynSent;
        TcpHandle::open(
            sim,
            local,
            remote,
            state,
            config,
            host,
            Some(app),
            |inner, now| {
                inner.conn_t0 = Some(now);
                // The SYN offers SACK whenever the configured tier uses it.
                let offer = SackOption {
                    permitted: inner.config.recovery.uses_sack(),
                    ..SackOption::default()
                };
                inner.packet(TcpFlags::SYN, 0, Bytes::new(), offer)
            },
        )
    }

    /// Create the server half in response to a SYN; emits SYN-ACK. The
    /// socket has no application until [`TcpHandle::set_app`] installs
    /// one, which the host does before any event can fire (the SYN-ACK
    /// raises none).
    pub(crate) fn accept(
        sim: &mut Simulator,
        local: SocketAddr,
        remote: SocketAddr,
        syn: &TcpSegment,
        config: TcpConfig,
        host: HostLinks,
    ) -> TcpHandle {
        let state = TcpState::SynReceived;
        TcpHandle::open(sim, local, remote, state, config, host, None, |inner, _| {
            inner.rcv_nxt = syn.seq + 1;
            inner.snd_wnd = syn.window;
            // Settle the tier before the SYN-ACK so it carries the
            // confirmation.
            inner.negotiate(syn.sack.permitted);
            let confirm = SackOption {
                permitted: inner.recovery.tier.uses_sack(),
                ..SackOption::default()
            };
            inner.packet(TcpFlags::SYN_ACK, 0, Bytes::new(), confirm)
        })
    }

    /// The one way into a socket (see the module doc): borrow it, let
    /// `work` fill the out-buffer — `work` returns false when it found
    /// nothing to do, and then nothing else happens —, release the
    /// borrow, send what it produced, plan the timers, and only then
    /// tell the application.
    fn drive(
        &self,
        sim: &mut Simulator,
        work: impl FnOnce(&mut TcpInner, &mut Simulator, &mut Vec<Packet>) -> bool,
    ) {
        let (mut packets, egress) = {
            let mut inner = self.inner.borrow_mut();
            let mut packets = inner.out.take();
            if !work(&mut inner, sim, &mut packets) {
                inner.out.replace(packets);
                return;
            }
            (packets, inner.egress.clone())
        };
        for pkt in packets.drain(..) {
            egress.deliver(sim, pkt);
        }
        {
            let mut inner = self.inner.borrow_mut();
            inner.out.replace(packets);
            inner.plan_timers(sim);
        }
        self.dispatch_events(sim);
    }

    /// Queue bytes for transmission.
    pub fn send(&self, sim: &mut Simulator, data: Bytes) {
        self.send_vectored(sim, [data]);
    }

    /// Queue several buffers for transmission as one write: on the wire
    /// exactly `send` of their concatenation, without building it. (Two
    /// `send`s are not: the first may put a short segment on the wire
    /// before the second is queued.)
    pub fn send_vectored(&self, sim: &mut Simulator, chunks: impl IntoIterator<Item = Bytes>) {
        let mut chunks = chunks.into_iter().filter(|c| !c.is_empty()).peekable();
        if chunks.peek().is_none() {
            return;
        }
        self.drive(sim, |inner, sim, out| {
            if inner.state == TcpState::Closed {
                return false;
            }
            assert!(
                !inner.fin_pending && inner.fin_seq.is_none(),
                "send after close"
            );
            for data in chunks {
                inner.send_queued_bytes += data.len() as u64;
                inner.send_queue.push_back(data);
            }
            if inner.state != TcpState::SynSent && inner.state != TcpState::SynReceived {
                inner.transmit_new(sim.now(), out);
            }
            true
        });
    }

    /// Graceful close of our direction (FIN after queued data).
    pub fn close(&self, sim: &mut Simulator) {
        self.drive(sim, |inner, sim, out| {
            if inner.state == TcpState::Closed || inner.fin_pending {
                return false;
            }
            inner.fin_pending = true;
            if inner.state != TcpState::SynSent && inner.state != TcpState::SynReceived {
                inner.transmit_new(sim.now(), out);
            }
            true
        });
    }

    /// Abort: send RST and drop all state. The one entry point that
    /// bypasses `drive`: it sends one packet, raises no event and leaves
    /// no timer to plan.
    pub fn abort(&self, sim: &mut Simulator) {
        let (rst, egress) = {
            let mut inner = self.inner.borrow_mut();
            let rst = (inner.state != TcpState::Closed).then(|| {
                let seq = inner.snd_nxt;
                let rst = inner.packet(TcpFlags::RST, seq, Bytes::new(), SackOption::default());
                inner.teardown();
                rst
            });
            (rst, inner.egress.clone())
        };
        if let Some(rst) = rst {
            egress.deliver(sim, rst);
        }
        // An abort reports nothing to the app. (Called from inside an event
        // callback with more events queued, the dispatch loop that is
        // running delivers them and releases the app itself.)
        let released = self.inner.borrow_mut().release_app();
        drop(released);
    }

    /// Current connection state.
    pub fn state(&self) -> TcpState {
        self.inner.borrow().state
    }

    /// Connection statistics snapshot.
    pub fn stats(&self) -> TcpStats {
        self.inner.borrow().stats
    }

    /// Local endpoint.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.borrow().local
    }

    /// Remote endpoint.
    pub fn remote_addr(&self) -> SocketAddr {
        self.inner.borrow().remote
    }

    /// Whether SACK was negotiated on this connection.
    pub fn sack_enabled(&self) -> bool {
        self.inner.borrow().recovery.tier.uses_sack()
    }

    /// Install the application of an accepted socket (the host's
    /// two-phase accept, before any event can have fired).
    pub(crate) fn set_app(&self, app: Rc<dyn SocketApp>) {
        self.inner.borrow_mut().app = Some(app);
    }

    /// Process one incoming segment (called by the host).
    pub(crate) fn handle_segment(&self, sim: &mut Simulator, seg: TcpSegment) {
        self.drive(sim, |inner, sim, out| {
            let now = sim.now();
            inner.on_segment(now, seg, out);
            // Opportunistic transmission: the window may have opened.
            if matches!(
                inner.state,
                TcpState::Established | TcpState::CloseWait | TcpState::FinWait1
            ) {
                inner.transmit_new(now, out);
            }
            true
        });
    }

    /// Pacing release instant reached: resume the transmit loop (which
    /// re-checks the window — an ack may have shrunk it meanwhile).
    fn on_pace_timer(&self, sim: &mut Simulator) {
        self.drive(sim, |inner, sim, out| {
            let sending = matches!(
                inner.state,
                TcpState::Established | TcpState::CloseWait | TcpState::FinWait1
            );
            if sending {
                inner.transmit_new(sim.now(), out);
            }
            sending
        });
    }

    /// Tail Loss Probe timer fire (see `TcpInner::send_probe`).
    fn on_tlp(&self, sim: &mut Simulator) {
        self.drive(sim, |inner, sim, out| {
            let now = sim.now();
            if inner.retx.is_empty() || inner.state == TcpState::Closed {
                return false;
            }
            match inner.recovery.tlp_deadline() {
                None => false,
                // Lazily re-arm: the desired deadline has usually moved
                // past the one this firing was scheduled for.
                Some(desired) if desired > now => {
                    inner.timers.rearm_at(sim, TLP, desired);
                    false
                }
                Some(_) => {
                    debug_assert!(
                        !inner.timers.is_armed(RTO) || inner.timers.deadline(RTO) >= now,
                        "TLP fired past an armed, nearer RTO"
                    );
                    inner.send_probe(now, out);
                    true
                }
            }
        });
    }

    /// RACK reordering-window expiry: segments that were within the
    /// window when last checked may have crossed into "lost" by pure
    /// passage of time, with no ack to trigger re-detection.
    fn on_reo_timer(&self, sim: &mut Simulator) {
        self.drive(sim, |inner, sim, out| {
            if !inner.recovery.tier.uses_rack()
                || inner.retx.is_empty()
                || inner.state == TcpState::Closed
            {
                return false;
            }
            // The recorded expiry is left set: its being due is what lets
            // detection through the dirty-gate; detection then replaces
            // it with the next pending expiry (or clears it).
            inner.detect_and_recover(sim.now(), out);
            true
        });
    }

    fn on_rto(&self, sim: &mut Simulator) {
        self.drive(sim, |inner, sim, out| {
            let now = sim.now();
            if inner.retx.is_empty() || inner.state == TcpState::Closed {
                return false;
            }
            inner.consecutive_timeouts += 1;
            inner.stats.timeouts += 1;
            inner.metric_count("tcp_rto_total");
            if inner.consecutive_timeouts > MAX_RETRIES {
                inner.teardown();
                inner.pending_events.push_back(SocketEvent::Reset);
                return true;
            }
            let flight = inner.flight_size();
            inner.cc.on_timeout(flight, now);
            inner.rtt.backoff();
            // Timers subordinate to the RTO are void once it fires.
            inner.timers.cancel(TLP);
            inner.timers.cancel(REO);
            let first_timeout = inner.consecutive_timeouts == 1;
            let snd_nxt = inner.snd_nxt;
            if let Some(index) =
                inner
                    .recovery
                    .on_rto(&mut inner.retx, snd_nxt, flight, first_timeout)
            {
                inner.retransmit_at(index, now, out);
            }
            true
        });
    }

    fn dispatch_events(&self, sim: &mut Simulator) {
        loop {
            let (event, app) = {
                let mut inner = self.inner.borrow_mut();
                let Some(event) = inner.pending_events.pop_front() else {
                    let released = inner.release_app();
                    drop(inner);
                    drop(released);
                    return;
                };
                (event, inner.app.clone())
            };
            if let Some(app) = app {
                app.on_event(sim, self, event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    // State-machine unit tests that don't need a host: drive TcpInner
    // directly with synthetic segments.

    fn addr(last: u8, port: u16) -> SocketAddr {
        SocketAddr::new(crate::addr::IpAddr::new(10, 0, 0, last), port)
    }

    fn make_inner(state: TcpState) -> TcpInner {
        TcpInner::new(
            &Weak::new(),
            addr(1, 1000),
            addr(2, 80),
            state,
            TcpConfig::default(),
            HostLinks::detached(),
        )
    }

    /// A segment from the peer, advertising a 1 MiB window.
    fn seg(flags: TcpFlags, seq: u64, ack: u64, payload: &[u8]) -> TcpSegment {
        TcpSegment {
            flags,
            seq,
            ack,
            window: 1 << 20,
            sack: Default::default(),
            payload: Bytes::copy_from_slice(payload),
        }
    }

    fn data_seg(seq: u64, payload: &[u8]) -> TcpSegment {
        seg(TcpFlags::ACK, seq, 0, payload)
    }

    fn collect_data(inner: &mut TcpInner) -> Vec<u8> {
        let mut out = Vec::new();
        while let Some(ev) = inner.pending_events.pop_front() {
            if let SocketEvent::Data(b) = ev {
                out.extend_from_slice(&b);
            }
        }
        out
    }

    #[test]
    fn in_order_delivery() {
        let mut inner = make_inner(TcpState::Established);
        let mut out = Vec::new();
        inner.on_segment(Timestamp::ZERO, data_seg(0, b"hello "), &mut out);
        inner.on_segment(Timestamp::ZERO, data_seg(6, b"world"), &mut out);
        assert_eq!(collect_data(&mut inner), b"hello world");
        assert_eq!(inner.rcv_nxt, 11);
        assert_eq!(out.len(), 2, "one ack per segment");
    }

    #[test]
    fn out_of_order_reassembly() {
        let mut inner = make_inner(TcpState::Established);
        let mut out = Vec::new();
        inner.on_segment(Timestamp::ZERO, data_seg(6, b"world"), &mut out);
        assert!(collect_data(&mut inner).is_empty());
        assert_eq!(inner.rcv_nxt, 0, "gap not yet filled");
        inner.on_segment(Timestamp::ZERO, data_seg(0, b"hello "), &mut out);
        assert_eq!(collect_data(&mut inner), b"hello world");
        assert_eq!(inner.rcv_nxt, 11);
    }

    #[test]
    fn duplicate_data_reacked_not_redelivered() {
        let mut inner = make_inner(TcpState::Established);
        let mut out = Vec::new();
        inner.on_segment(Timestamp::ZERO, data_seg(0, b"abc"), &mut out);
        let _ = collect_data(&mut inner);
        inner.on_segment(Timestamp::ZERO, data_seg(0, b"abc"), &mut out);
        assert!(collect_data(&mut inner).is_empty());
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].segment.ack, 3);
    }

    #[test]
    fn overlapping_segment_trimmed() {
        let mut inner = make_inner(TcpState::Established);
        let mut out = Vec::new();
        inner.on_segment(Timestamp::ZERO, data_seg(0, b"abcd"), &mut out);
        let _ = collect_data(&mut inner);
        inner.on_segment(Timestamp::ZERO, data_seg(2, b"cdef"), &mut out);
        assert_eq!(collect_data(&mut inner), b"ef");
        assert_eq!(inner.rcv_nxt, 6);
    }

    #[test]
    fn a_segment_beyond_the_receive_window_is_not_parked() {
        let mut inner = make_inner(TcpState::Established);
        inner.recovery.tier = RecoveryTier::Sack;
        let mut out = Vec::new();
        inner.on_segment(Timestamp::ZERO, data_seg(10, b"hole below"), &mut out);
        // 3 GiB above rcv_nxt: answered, never parked.
        inner.on_segment(Timestamp::ZERO, data_seg(3 << 30, b"far"), &mut out);
        assert_eq!(inner.ooo.len(), 1, "only the in-window segment is parked");
        assert_eq!(out.len(), 2);
        let dup = &out[1].segment;
        assert_eq!((dup.ack, dup.payload.len()), (0, 0));
        let (blocks, n) = dup.sack.blocks.decode(dup.ack);
        assert_eq!(&blocks[..n], &[crate::packet::SackBlock::new(10, 20)]);
        // The window's last byte is still acceptable.
        inner.on_segment(Timestamp::ZERO, data_seg(RECV_WINDOW - 1, b"x"), &mut out);
        assert_eq!(inner.ooo.len(), 2);
        assert!(collect_data(&mut inner).is_empty());
    }

    /// The receive side as it was with a tree for the reassembly queue and
    /// a `Vec` per SACK option: `handle_data` and `ReceiverSack` before
    /// the sorted deque and the inline blocks.
    #[derive(Default)]
    struct ReassemblyModel {
        rcv_nxt: u64,
        ooo: BTreeMap<u64, Bytes>,
        fin_seq: Option<u64>,
        recent: Option<(u64, u64)>,
        delivered: Vec<u8>,
    }

    impl ReassemblyModel {
        fn on_data(&mut self, seq: u64, payload: &Bytes, fin: bool) {
            let (mut seq, mut payload) = (seq, payload.clone());
            if fin {
                self.fin_seq = Some(seq + payload.len() as u64);
            }
            if seq < self.rcv_nxt {
                let overlap = (self.rcv_nxt - seq) as usize;
                if overlap >= payload.len() && !fin {
                    return;
                }
                payload = payload.slice(overlap.min(payload.len())..);
                seq = self.rcv_nxt;
            }
            if seq != self.rcv_nxt {
                if !payload.is_empty() {
                    self.recent = Some((seq, seq + payload.len() as u64));
                    self.ooo.entry(seq).or_insert(payload);
                }
                return;
            }
            self.deliver(&payload);
            while let Some((&oseq, _)) = self.ooo.iter().next() {
                if oseq > self.rcv_nxt {
                    break;
                }
                let (oseq, odata) = self.ooo.pop_first().unwrap();
                let skip = (self.rcv_nxt - oseq) as usize;
                if skip < odata.len() {
                    self.deliver(&odata[skip..]);
                }
            }
            if self.recent.is_some_and(|(_, end)| end <= self.rcv_nxt) {
                self.recent = None;
            }
            if self.fin_seq == Some(self.rcv_nxt) {
                self.rcv_nxt += 1;
            }
        }

        fn deliver(&mut self, data: &[u8]) {
            self.rcv_nxt += data.len() as u64;
            self.delivered.extend_from_slice(data);
        }

        fn blocks(&self) -> Vec<crate::packet::SackBlock> {
            let mut ranges: Vec<crate::packet::SackBlock> = Vec::new();
            for (&seq, data) in &self.ooo {
                let (start, end) = (seq.max(self.rcv_nxt), seq + data.len() as u64);
                if start >= end {
                    continue;
                }
                match ranges.last_mut() {
                    Some(last) if start <= last.end => last.end = last.end.max(end),
                    _ => ranges.push(crate::packet::SackBlock::new(start, end)),
                }
            }
            if let Some((start, end)) = self.recent {
                if let Some(i) = ranges.iter().position(|r| r.start <= start && end <= r.end) {
                    let r = ranges.remove(i);
                    ranges.insert(0, r);
                }
            }
            ranges.truncate(crate::packet::MAX_SACK_BLOCKS);
            ranges
        }
    }

    proptest::proptest! {
        /// A SACK socket's reassembly matches the tree-and-`Vec` model
        /// segment by segment, over arrivals in any order: duplicates
        /// (and equal starts with different lengths), overlaps, arrivals
        /// wholly or partly below `rcv_nxt`, many holes at once, and a FIN
        /// that arrives early, late or alone.
        #[test]
        fn reassembly_matches_a_tree_model(
            total in 1u64..12_000,
            arrivals in proptest::collection::vec((0u64..12_000, 1u64..3_000, 0u8..10), 1..60),
        ) {
            let stream: Vec<u8> = (0..total).map(|i| (i * 31 + 7) as u8).collect();
            let mut inner = make_inner(TcpState::Established);
            inner.recovery.tier = RecoveryTier::Sack;
            let mut model = ReassemblyModel::default();
            let mut delivered = Vec::new();
            let mut out = Vec::new();
            for (at, len, kind) in arrivals {
                let (start, end, fin) = match kind {
                    0 => (total, total, true),
                    1 => (at % total, total, true),
                    // One to three cells of a 512-byte grid, as a sender
                    // cuts segments: neighbours abut exactly, and one
                    // start recurs with different lengths.
                    2..=5 => {
                        let start = at % total / 512 * 512;
                        (start, total.min(start + 512 * (1 + len % 3)), false)
                    }
                    _ => (at % total, total.min(at % total + len), false),
                };
                let flags = if fin { TcpFlags::FIN_ACK } else { TcpFlags::ACK };
                let segment = seg(flags, start, 0, &stream[start as usize..end as usize]);
                model.on_data(start, &segment.payload, fin);
                inner.handle_data(Timestamp::ZERO, &segment, &mut out);
                delivered.extend(collect_data(&mut inner));
                proptest::prop_assert_eq!(&delivered, &model.delivered);
                let ack = &out.pop().expect("every arrival is acked").segment;
                proptest::prop_assert!(out.is_empty());
                proptest::prop_assert_eq!(ack.ack, model.rcv_nxt);
                let (blocks, n) = ack.sack.blocks.decode(ack.ack);
                proptest::prop_assert_eq!(&blocks[..n], &model.blocks()[..]);
                proptest::prop_assert!(inner
                    .ooo
                    .iter()
                    .map(|(seq, data)| (*seq, data.len()))
                    .eq(model.ooo.iter().map(|(seq, data)| (*seq, data.len()))));
            }
        }
    }

    #[test]
    fn dup_acks_trigger_fast_retransmit() {
        let mut inner = make_inner(TcpState::Established);
        inner.snd_una = 0;
        inner.snd_nxt = 3000;
        inner.insert_retx(data_seg(0, &[0; 1460]), Timestamp::ZERO);
        let mut out = Vec::new();
        let dup = seg(TcpFlags::ACK, 0, 0, b"");
        for _ in 0..3 {
            inner.on_segment(Timestamp::from_millis(1), dup.clone(), &mut out);
        }
        assert_eq!(inner.stats.fast_retransmits, 1);
        assert_eq!(out.len(), 1, "exactly one retransmission");
        assert_eq!(out[0].segment.seq, 0);
        assert!(inner.recovery.recovery_point.is_some());
        // Fourth dup ack must not retransmit again.
        inner.on_segment(Timestamp::from_millis(2), dup, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn new_ack_clears_dupack_count() {
        let mut inner = make_inner(TcpState::Established);
        inner.snd_nxt = 100;
        inner.insert_retx(data_seg(0, &[0u8; 100]), Timestamp::ZERO);
        let mut out = Vec::new();
        let dup = seg(TcpFlags::ACK, 0, 0, b"");
        inner.on_segment(Timestamp::from_millis(1), dup.clone(), &mut out);
        inner.on_segment(Timestamp::from_millis(1), dup, &mut out);
        assert_eq!(inner.recovery.dup_acks, 2);
        let ack = seg(TcpFlags::ACK, 0, 100, b"");
        inner.on_segment(Timestamp::from_millis(2), ack, &mut out);
        assert_eq!(inner.recovery.dup_acks, 0);
        assert_eq!(inner.snd_una, 100);
        assert!(inner.retx.is_empty());
    }

    #[test]
    fn fin_handling_passive_close() {
        let mut inner = make_inner(TcpState::Established);
        let mut out = Vec::new();
        inner.on_segment(Timestamp::ZERO, seg(TcpFlags::FIN_ACK, 0, 0, b""), &mut out);
        assert_eq!(inner.state, TcpState::CloseWait);
        assert_eq!(inner.rcv_nxt, 1);
        assert!(matches!(
            inner.pending_events.back(),
            Some(SocketEvent::PeerClosed)
        ));
        // Our ACK of the FIN.
        assert_eq!(out.last().unwrap().segment.ack, 1);
    }

    #[test]
    fn fin_with_data_delivers_then_closes() {
        let mut inner = make_inner(TcpState::Established);
        let mut out = Vec::new();
        inner.on_segment(
            Timestamp::ZERO,
            seg(TcpFlags::FIN_ACK, 0, 0, b"bye"),
            &mut out,
        );
        let events: Vec<_> = std::iter::from_fn(|| inner.pending_events.pop_front()).collect();
        assert!(matches!(events[0], SocketEvent::Data(ref b) if &b[..] == b"bye"));
        assert!(matches!(events[1], SocketEvent::PeerClosed));
        assert_eq!(inner.rcv_nxt, 4);
    }

    #[test]
    fn fin_out_of_order_waits_for_data() {
        let mut inner = make_inner(TcpState::Established);
        let mut out = Vec::new();
        // FIN arrives before the data preceding it.
        inner.on_segment(Timestamp::ZERO, seg(TcpFlags::FIN_ACK, 5, 0, b""), &mut out);
        assert_eq!(inner.state, TcpState::Established);
        inner.on_segment(Timestamp::ZERO, data_seg(0, b"hello"), &mut out);
        assert_eq!(inner.state, TcpState::CloseWait);
        assert_eq!(inner.rcv_nxt, 6);
    }

    #[test]
    fn rst_resets_connection() {
        let mut inner = make_inner(TcpState::Established);
        let mut out = Vec::new();
        let rst = seg(TcpFlags::RST, 0, 0, b"");
        inner.on_segment(Timestamp::ZERO, rst.clone(), &mut out);
        assert_eq!(inner.state, TcpState::Closed);
        assert!(matches!(
            inner.pending_events.back(),
            Some(SocketEvent::Reset)
        ));
        assert!(out.is_empty(), "no reply to an RST");
        // A second one finds a closed socket: nothing to reset, no one
        // to tell.
        inner.on_segment(Timestamp::ZERO, rst, &mut out);
        assert_eq!(inner.pending_events.len(), 1);
        assert!(out.is_empty());
    }

    #[test]
    fn segment_to_closed_socket_gets_rst() {
        let mut inner = make_inner(TcpState::Closed);
        let mut out = Vec::new();
        inner.on_segment(Timestamp::ZERO, data_seg(0, b"hi"), &mut out);
        assert!(out[0].segment.flags.rst);
    }

    /// Queue `chunks` as one write without sending anything.
    fn queue(inner: &mut TcpInner, chunks: impl IntoIterator<Item = Bytes>) {
        for chunk in chunks {
            inner.send_queued_bytes += chunk.len() as u64;
            inner.send_queue.push_back(chunk);
        }
    }

    #[test]
    fn transmit_respects_cwnd() {
        let mut inner = make_inner(TcpState::Established);
        // Queue far more than IW10 allows.
        queue(&mut inner, [Bytes::from(vec![0u8; 100_000])]);
        let mut out = Vec::new();
        inner.transmit_new(Timestamp::ZERO, &mut out);
        let sent: u64 = out.iter().map(|p| p.segment.payload.len() as u64).sum();
        assert_eq!(sent, super::super::cc::INITIAL_WINDOW);
        assert_eq!(inner.flight_size(), sent);
        // All segments MSS-sized.
        for p in &out {
            assert!(p.segment.payload.len() <= crate::packet::MSS);
        }
    }

    /// Queue `chunks` as one write, mark the close, then drive the
    /// sender to completion against a peer that acks everything and
    /// always advertises `window`. Returns every segment put on the wire
    /// as `(seq, flags, payload)`.
    fn wire_of(chunks: Vec<Bytes>, window: u64) -> Vec<(u64, TcpFlags, Vec<u8>)> {
        let mut inner = make_inner(TcpState::Established);
        inner.snd_wnd = window;
        queue(&mut inner, chunks);
        inner.fin_pending = true;
        let mut wire = Vec::new();
        let mut now = Timestamp::ZERO;
        let mut out = Vec::new();
        inner.transmit_new(now, &mut out);
        while !out.is_empty() {
            for pkt in out.drain(..) {
                let seg = pkt.segment;
                wire.push((seg.seq, seg.flags, seg.payload.to_vec()));
            }
            now += SimDuration::from_millis(10);
            let mut ack = seg(TcpFlags::ACK, 0, inner.snd_nxt, b"");
            ack.window = window;
            // What `handle_segment` does with an arriving ack.
            inner.on_segment(now, ack, &mut out);
            inner.transmit_new(now, &mut out);
        }
        assert_eq!(inner.send_queued_bytes, 0);
        assert!(inner.send_queue.is_empty());
        wire
    }

    proptest::proptest! {
        #[test]
        fn segment_stream_ignores_how_the_write_was_chunked(
            sizes in proptest::collection::vec(1usize..5_000, 1..12),
            window in 1u64..40_000,
            salt in 0u8..255,
        ) {
            let total: usize = sizes.iter().sum();
            let data: Vec<u8> = (0..total).map(|i| (i as u8).wrapping_mul(31) ^ salt).collect();
            let mut chunks = Vec::new();
            let mut off = 0;
            for len in sizes {
                chunks.push(Bytes::copy_from_slice(&data[off..off + len]));
                off += len;
            }
            let chunked = wire_of(chunks, window);
            let coalesced = wire_of(vec![Bytes::from(data.clone())], window);
            proptest::prop_assert_eq!(&chunked, &coalesced);
            // And the stream is the data, in order, then the FIN.
            let sent: Vec<u8> = chunked.iter().flat_map(|(_, _, p)| p.iter().copied()).collect();
            proptest::prop_assert_eq!(sent, data);
            proptest::prop_assert!(chunked.last().expect("at least the FIN").1.fin);
        }
    }

    #[test]
    fn segments_of_one_large_write_share_the_callers_buffer() {
        let mut inner = make_inner(TcpState::Established);
        let data = Bytes::from(vec![9u8; 12 * crate::packet::MSS + 100]);
        let base = data.as_ptr();
        queue(&mut inner, [data]);
        let mut out = Vec::new();
        inner.transmit_new(Timestamp::ZERO, &mut out);
        assert!(out.len() >= 10, "IW10 worth of segments, got {}", out.len());
        for pkt in &out {
            let seg = &pkt.segment;
            // A view into the application's allocation, not a copy of it…
            assert_eq!(seg.payload.as_ptr(), base.wrapping_add(seg.seq as usize));
            // …and the retransmission queue holds the same view.
            let kept = &inner.retx[inner.retx.lower_bound(seg.seq)].segment.payload;
            assert_eq!(kept.as_ptr(), seg.payload.as_ptr());
        }
    }

    #[test]
    fn a_segment_spanning_two_chunks_carries_both() {
        let mut inner = make_inner(TcpState::Established);
        queue(
            &mut inner,
            [&b"head: "[..], &b"body"[..]].map(Bytes::copy_from_slice),
        );
        let mut out = Vec::new();
        inner.transmit_new(Timestamp::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(&out[0].segment.payload[..], b"head: body");
    }

    #[test]
    fn partial_ack_trims_retx_entry() {
        let mut inner = make_inner(TcpState::Established);
        queue(&mut inner, [Bytes::from(vec![7u8; 1000])]);
        let mut out = Vec::new();
        inner.transmit_new(Timestamp::ZERO, &mut out);
        // Ack half of the single segment.
        inner.on_segment(
            Timestamp::from_millis(5),
            seg(TcpFlags::ACK, 0, 500, b""),
            &mut out,
        );
        assert_eq!(inner.snd_una, 500);
        let entry = inner.retx.front().expect("trimmed entry");
        assert_eq!(entry.segment.seq, 500);
        assert_eq!(entry.segment.payload.len(), 500);
    }

    #[test]
    fn a_sack_block_past_snd_nxt_triggers_no_recovery() {
        let mut inner = make_inner(TcpState::Established);
        inner.recovery.tier = RecoveryTier::Sack;
        queue(&mut inner, [Bytes::from(vec![0u8; 4 * crate::packet::MSS])]);
        let mut out = Vec::new();
        inner.transmit_new(Timestamp::ZERO, &mut out);
        out.clear();
        let cwnd = inner.cc.cwnd();
        // A duplicate ACK whose one block claims three segments never sent.
        let mut dup = seg(TcpFlags::ACK, 0, 0, b"");
        let end = inner.snd_nxt + 3 * crate::packet::MSS as u64;
        dup.sack
            .blocks
            .push(crate::packet::SackBlock::new(inner.snd_nxt, end));
        inner.on_segment(Timestamp::from_millis(1), dup, &mut out);
        assert!(out.is_empty(), "no loss, no retransmission");
        assert_eq!(inner.stats.sack_recoveries, 0);
        assert_eq!(inner.cc.cwnd(), cwnd, "no loss, no cut");
    }

    #[test]
    fn corrupted_flag_not_processed_here() {
        // Corruption filtering happens at the host; TcpInner trusts its
        // input. This test documents that contract.
        let mut inner = make_inner(TcpState::Established);
        let mut out = Vec::new();
        inner.on_segment(Timestamp::ZERO, data_seg(0, b"x"), &mut out);
        assert_eq!(inner.stats.segments_received, 1);
    }
}
