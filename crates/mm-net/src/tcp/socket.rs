//! The TCP connection state machine.
//!
//! A deliberately complete-but-simplified TCP: three-way handshake, byte
//! stream with MSS segmentation, cumulative ACKs, out-of-order reassembly,
//! NewReno fast retransmit/fast recovery, RFC 6298 RTO with Karn's rule,
//! receiver flow control, graceful FIN close in both directions, and RST.
//! With [`TcpConfig::recovery`] at the [`Sack`](RecoveryTier::Sack) tier
//! (negotiated on the SYN exchange, default off) the NewReno go-back-N
//! recovery is replaced by selective retransmission: RFC 2018 SACK blocks
//! from the receiver, an RFC 6675 scoreboard with pipe accounting /
//! `IsLost` / rescue retransmission on the sender, RFC 3042 limited
//! transmit, and RFC 6937-style proportional rate reduction while in
//! recovery. The [`RackTlp`](RecoveryTier::RackTlp) tier layers the
//! modern time-based machinery on top: RACK delivery-time loss inference
//! with an adaptive reordering window, a Tail Loss Probe timer so pure
//! tail loss no longer waits for the RTO, and F-RTO spurious-timeout
//! detection that undoes the window collapse (and the RTO backoff) when
//! a timeout turns out to have been mere delay (see [`rack`](super::rack)
//! and DESIGN.md §3).
//! Simplifications (documented in DESIGN.md): 64-bit sequence space (no
//! wraparound), no Nagle (browsers disable it), unbounded send
//! buffer (page-load workloads are bounded by construction), immediate ACKs
//! by default (delayed ACK available as a config flag).
//!
//! Re-entrancy discipline: methods on [`TcpInner`] never invoke application
//! callbacks while `self` is borrowed. All entry points go through
//! [`drive`], which performs socket work, releases the borrow, sends the
//! produced packets, and only then fires application events.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::{Rc, Weak};

use bytes::{Bytes, BytesMut};
use mm_metrics::{FlowSample, MetricsHandle};
use mm_sim::{BankHandler, SimDuration, Simulator, TimerBank, TimerMux, Timestamp};
use mm_trace::{Span, SpanHandle, SpanKind, NO_RESOURCE};

use crate::addr::SocketAddr;
use crate::packet::{Packet, SackBlock, SackOption, TcpFlags, TcpSegment, MSS};
use crate::sink::SinkRef;
use crate::tcp::cc::{make_controller, CcAlgorithm, CongestionControl};
use crate::tcp::pacing::{Pacer, PACING_GAIN_CA, PACING_GAIN_SS};
use crate::tcp::rack::{FrtoState, RackState, TLP_SLACK};
use crate::tcp::rate::{RateEstimator, TxRecord};
use crate::tcp::retx::{SeqRing, Sequenced};
use crate::tcp::rtt::RttEstimator;
use crate::tcp::sack::{ReceiverSack, Scoreboard, DUP_THRESH};

/// The loss-recovery tier a socket runs (its sophistication ladder).
///
/// `Reno` and `Sack` reproduce the previous boolean knob exactly;
/// `RackTlp` implies SACK (RACK infers delivery times from the
/// scoreboard) and adds the time-based machinery. The default stays
/// `Reno` so every pre-existing baseline is byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryTier {
    /// NewReno go-back-N: dup-ack fast retransmit, one hole per RTT.
    #[default]
    Reno,
    /// RFC 2018/6675 selective retransmission with PRR and limited
    /// transmit (the former `TcpConfig::sack = true`).
    Sack,
    /// SACK plus RACK-TLP (RFC 8985) time-based loss detection, a Tail
    /// Loss Probe timer, and F-RTO (RFC 5682) spurious-RTO undo.
    RackTlp,
}

impl RecoveryTier {
    /// Whether this tier negotiates SACK on the handshake.
    pub fn uses_sack(self) -> bool {
        !matches!(self, RecoveryTier::Reno)
    }

    /// Whether this tier runs the RACK-TLP/F-RTO machinery.
    pub fn uses_rack(self) -> bool {
        matches!(self, RecoveryTier::RackTlp)
    }
}

/// Socket configuration.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Congestion-control algorithm.
    pub cc: CcAlgorithm,
    /// Receive window advertised to the peer, bytes.
    pub recv_window: u64,
    /// Initial retransmission timeout before any RTT sample exists.
    /// RFC 6298 suggests 1 s; we default to the conservative 3 s of
    /// RFC 1122 / pre-2011 Linux, because synchronized page-load bursts
    /// through deep droptail queues routinely inflate early RTTs past 1 s
    /// and spurious go-back-N retransmission storms would dominate.
    pub initial_rto: SimDuration,
    /// Floor on the RTO (Linux: 200 ms).
    pub min_rto: SimDuration,
    /// Delay ACKs for this long, acking every second segment immediately.
    /// `None` (default) acks every data segment at once.
    pub delayed_ack: Option<SimDuration>,
    /// Maximum consecutive RTOs before the connection is reset.
    pub max_retries: u32,
    /// Initial congestion window in segments; `None` = IW10 (RFC 6928,
    /// the era's Linux default). Raised by servers deploying multiplexed
    /// protocols — Google's SPDY servers ran IW32 so one connection could
    /// do the work of a browser's six.
    pub initial_cwnd_segments: Option<u32>,
    /// Loss-recovery tier. `Sack` and `RackTlp` offer selective
    /// acknowledgments on the handshake and, when both ends agree,
    /// replace go-back-N loss recovery with RFC 6675 selective
    /// retransmission (plus limited transmit and proportional rate
    /// reduction); `RackTlp` additionally runs RACK-TLP time-based loss
    /// detection and F-RTO. Default `Reno`: the NewReno baseline stays
    /// byte-identical.
    pub recovery: RecoveryTier,
    /// Pace new-data transmissions instead of bursting the whole window:
    /// segments release at `pacing_gain × estimated_bw` (the delivery-
    /// rate estimator's windowed max, or the controller's own model when
    /// it has one — see [`CongestionControl::pacing_rate`]). Default off;
    /// every pre-pacing baseline is byte-identical. `CcAlgorithm::Bbr`
    /// paces regardless of this flag — an unpaced BBR would burst the
    /// very queues its model exists to avoid.
    pub pacing: bool,
    /// Observability sink. `None` (default) disables all metric and
    /// flow-trace emission: the instrumented sites reduce to one
    /// `Option` branch each, and the simulation is byte-identical to a
    /// build without the hook. Sinks observe only — they must never
    /// schedule timers or send packets (see `mm_metrics::MetricsSink`).
    pub metrics: Option<MetricsHandle>,
    /// Causal-span sink. `None` (default) disables span emission. The
    /// *initiator* side of a connection emits its lifecycle spans —
    /// handshake (`ConnSetup`), lifetime (`Conn`), and reassembly-gap
    /// waits (`HolWait`, the transport-level head-of-line signal:
    /// structurally absent on an in-order link, present under loss).
    /// Like `metrics`, sinks observe only; the simulation is
    /// byte-identical with the hook off.
    pub span: Option<SpanHandle>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            cc: CcAlgorithm::default(),
            recv_window: 1 << 20, // 1 MiB
            initial_rto: SimDuration::from_secs(3),
            min_rto: SimDuration::from_millis(200),
            delayed_ack: None,
            max_retries: 15,
            initial_cwnd_segments: None,
            recovery: RecoveryTier::default(),
            pacing: false,
            metrics: None,
            span: None,
        }
    }
}

impl TcpConfig {
    /// Start a builder from the defaults. The builder is the documented
    /// construction path: the struct's fields stay public for
    /// struct-update compatibility, but new code should chain setters so
    /// field growth stops churning every construction site.
    ///
    /// ```
    /// use mm_net::{CcAlgorithm, RecoveryTier, TcpConfig};
    /// let config = TcpConfig::builder()
    ///     .cc(CcAlgorithm::Bbr)
    ///     .recovery(RecoveryTier::RackTlp)
    ///     .pacing(true)
    ///     .build();
    /// assert_eq!(config.cc, CcAlgorithm::Bbr);
    /// ```
    pub fn builder() -> TcpConfigBuilder {
        TcpConfigBuilder {
            config: TcpConfig::default(),
        }
    }

    /// Continue building from an existing configuration (the ergonomic
    /// replacement for `TcpConfig { field: x, ..base }` updates).
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

    /// Pace new-data transmissions (see [`TcpConfig::pacing`]).
    pub fn pacing(mut self, pacing: bool) -> Self {
        self.config.pacing = pacing;
        self
    }

    /// Receive window advertised to the peer, bytes.
    pub fn recv_window(mut self, bytes: u64) -> Self {
        self.config.recv_window = bytes;
        self
    }

    /// Initial RTO before any RTT sample exists.
    pub fn initial_rto(mut self, rto: SimDuration) -> Self {
        self.config.initial_rto = rto;
        self
    }

    /// Floor on the RTO.
    pub fn min_rto(mut self, rto: SimDuration) -> Self {
        self.config.min_rto = rto;
        self
    }

    /// Delay ACKs for this long, acking every second segment immediately.
    pub fn delayed_ack(mut self, delay: SimDuration) -> Self {
        self.config.delayed_ack = Some(delay);
        self
    }

    /// Maximum consecutive RTOs before the connection is reset.
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.config.max_retries = retries;
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

    /// Install a causal-span sink (see [`TcpConfig::span`]).
    pub fn span(mut self, sink: SpanHandle) -> Self {
        self.config.span = Some(sink);
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
    /// Every byte the app queued has been handed to the wire: the send
    /// queue is empty (bytes may still be in flight awaiting ACK). The
    /// simulated analogue of an epoll writability edge — lets an
    /// application self-clock its writes to the connection's actual
    /// throughput instead of dumping everything into the unbounded send
    /// buffer up front (which would freeze its scheduling decisions at
    /// enqueue time).
    SendQueueDrained,
}

/// Application-side observer of socket events.
pub trait SocketApp {
    /// Called with each event; `handle` can be used to send/close.
    fn on_event(&self, sim: &mut Simulator, handle: &TcpHandle, event: SocketEvent);
}

/// Retransmission-queue entry.
struct RetxEntry {
    segment: TcpSegment,
    /// Last transmission time. Refreshed on retransmission only under
    /// RACK (which keys loss inference off last-transmit times); the
    /// classic tiers keep the original time, whose only reader is the
    /// Karn-gated RTT sampler.
    sent_at: Timestamp,
    /// First transmission time — never refreshed, and therefore monotone
    /// in sequence order, which is what lets RACK's detection scan stop
    /// at the first entry provably sent after the delivery clock.
    first_sent_at: Timestamp,
    retransmitted: bool,
    /// Whether this entry currently counts toward the incremental pipe
    /// estimate (see [`TcpInner::pipe`]).
    in_pipe: bool,
    /// RACK has deemed this segment lost. The mark stays with the entry
    /// through partial-ack trims and goes when the segment is delivered
    /// (which also widens the adaptive reordering window — the mark was
    /// wrong).
    rack_lost: bool,
    /// Delivery-rate bookkeeping stamped at first transmission
    /// (draft-cheng per-packet state; see [`crate::tcp::rate`]).
    tx: TxRecord,
}

impl Sequenced for RetxEntry {
    fn seq(&self) -> u64 {
        self.segment.seq
    }
}

/// Full connection state. Public API lives on [`TcpHandle`].
pub struct TcpInner {
    pub(crate) local: SocketAddr,
    pub(crate) remote: SocketAddr,
    state: TcpState,
    config: TcpConfig,

    // --- send side ---
    /// First unacknowledged sequence number.
    snd_una: u64,
    /// Next sequence number to send.
    snd_nxt: u64,
    /// Peer's advertised window.
    snd_wnd: u64,
    /// App data accepted but not yet segmented, FIFO of chunks.
    send_queue: VecDeque<Bytes>,
    /// Bytes queued in `send_queue`.
    send_queued_bytes: u64,
    /// Transmitted, unacknowledged segments in sequence order.
    retx: SeqRing<RetxEntry>,
    /// FIN requested by the app; sent once the queue drains.
    fin_pending: bool,
    /// Sequence number of our FIN, once sent.
    fin_seq: Option<u64>,
    cc: Box<dyn CongestionControl>,
    rtt: RttEstimator,
    dup_acks: u32,
    /// High-water mark for recovery (snd_nxt at loss time) — NewReno fast
    /// recovery, SACK recovery, and RTO recovery all key off it.
    recovery_point: Option<u64>,
    consecutive_timeouts: u32,
    /// SACK negotiated on this connection (config requested it and the
    /// peer's SYN/SYN-ACK carried SACK-permitted).
    sack_enabled: bool,
    /// Sender-side scoreboard of sacked coverage above `snd_una`.
    scoreboard: Scoreboard,
    /// Proportional rate reduction (RFC 6937) state, valid in recovery:
    /// bytes reported delivered (acked + newly sacked) since entry,
    /// bytes sent since entry, and the flight size at entry.
    prr_delivered: u64,
    prr_out: u64,
    recover_fs: u64,
    /// One rescue retransmission (RFC 6675 NextSeg rule 4) per recovery.
    rescue_done: bool,
    /// RFC 6675 §5.1: after a retransmission timeout every unsacked
    /// segment below the then-`snd_nxt` is presumed lost (an RTO means
    /// the tail generated no SACKs at all — pure tail loss — so the
    /// scoreboard alone can never flag it). Segments below this mark
    /// leave the pipe estimate until retransmitted.
    lost_point: u64,
    /// Incrementally maintained RFC 6675 pipe estimate: the sum of
    /// `seq_len` over retx entries with `in_pipe` set. Kept equal to the
    /// O(n) definitional walk ([`pipe_walk`](TcpInner::pipe_walk)) at
    /// every transition — cross-checked by a debug assertion and the
    /// property tests.
    pipe_count: u64,
    /// Loss-frontier watermark: every unsacked retx entry starting below
    /// it has been examined for (and marked with) scoreboard-implied
    /// loss. Valid because `IsLost` is monotone downward in sequence
    /// space — anything below a lost segment is lost or sacked — so the
    /// per-ack scan resumes here instead of rewalking the queue.
    loss_frontier: u64,
    /// RACK delivery-time state (active only at the `RackTlp` tier once
    /// SACK negotiates).
    rack: RackState,
    /// Earliest pending RACK reordering-window expiry, consumed by
    /// `manage_timers` (timer arming needs the simulator, which segment
    /// processing does not hold).
    reo_deadline: Option<Timestamp>,
    /// Lexicographic high-water (last-sent time, end seq) over every
    /// RACK loss mark, reported in flow samples so a conformance audit
    /// can check marks stay behind the delivery clock. `None` until the
    /// first mark.
    rack_mark_high: Option<(Timestamp, u64)>,
    /// Set when the delivery clock advanced since the last detection
    /// pass; RACK verdicts can only change when it does (or a recorded
    /// `reo_deadline` passes), so detection is skipped otherwise.
    rack_dirty: bool,
    /// One Tail Loss Probe per flight: set when the probe fires, cleared
    /// by the next delivery of anything.
    tlp_fired: bool,
    /// The currently *desired* probe deadline. The armed timer lags it
    /// (it is not re-armed on every flush — that would flood the event
    /// heap with dead generations); the fire handler re-arms itself
    /// forward until the desired deadline is actually due.
    tlp_deadline: Option<Timestamp>,
    /// F-RTO spurious-timeout detection phase.
    frto: FrtoState,
    /// `lost_point` before the RTO that armed F-RTO, restored when the
    /// timeout is declared spurious (the §5.1 mass-marking was wrong).
    prior_lost_point: u64,
    /// Scratch buffer for newly sacked ranges (avoids per-ack allocation).
    sack_delta: Vec<SackBlock>,
    /// Delivery-rate estimator (always maintained — pure bookkeeping —
    /// but only consumed when pacing or a model-based controller runs).
    rate: RateEstimator,
    /// The most recently *sent* segment this ack delivered: the packet
    /// whose stamped [`TxRecord`] closes into this ack's rate sample
    /// (draft-cheng picks exactly this one). Retransmitted entries are
    /// excluded — which copy the ack covers is Karn-ambiguous.
    rate_candidate: Option<(Timestamp, u64, TxRecord)>,
    /// Pacing release clock (active only when `pacing_active()`).
    pacer: Pacer,
    /// Release instant the last paced transmission stopped at, consumed
    /// by `manage_timers` (the same simulator-at-arms-length pattern as
    /// `reo_deadline`).
    pace_deadline: Option<Timestamp>,

    // --- receive side ---
    /// Next in-order byte expected from the peer.
    rcv_nxt: u64,
    /// Out-of-order segments awaiting the gap to fill.
    ooo: BTreeMap<u64, Bytes>,
    /// SACK block generator over the out-of-order queue.
    rcv_sack: ReceiverSack,
    /// Peer FIN's sequence number, if received out of order.
    peer_fin_seq: Option<u64>,
    /// Segments since last ACK (delayed-ACK accounting).
    unacked_segments: u32,

    // --- plumbing ---
    egress: SinkRef,
    packet_ids: Rc<std::cell::Cell<u64>>,
    /// Where an entry point collects the packets it emits: taken, handed
    /// to [`TcpHandle::flush`], put back empty. One per host, kept for
    /// its capacity — a host runs one socket's entry point at a time.
    out: Rc<RefCell<Vec<Packet>>>,
    /// The socket's five timers (`RTO` … `PACING`), bound at construction
    /// to the methods they run.
    timers: TimerBank<SocketFire, 5>,
    /// Set when new data was acked: RFC 6298 (5.3) restarts the RTO timer
    /// so it measures time since the *latest* forward progress, not since
    /// the oldest transmission — otherwise deep queues cause spurious
    /// timeouts.
    rearm_rto: bool,
    app: Option<Rc<dyn SocketApp>>,
    /// Events waiting to be dispatched once the borrow is released.
    pending_events: VecDeque<SocketEvent>,
    /// Statistics.
    pub(crate) stats: TcpStats,
    /// Flow id in the sink's tracer, when `config.metrics` carries one.
    trace_flow: Option<u64>,
    /// Connect-call time on the *initiator* side; `Some` until the
    /// `Conn` lifetime span is emitted at teardown. Accept-side sockets
    /// keep `None` so only one endpoint describes each connection.
    conn_t0: Option<Timestamp>,
    /// Start of the current receive-side reassembly gap: set when data
    /// first parks in `ooo`, cleared (emitting a `HolWait` span) when
    /// the hole fills and the queue drains.
    hole_since: Option<Timestamp>,
    /// Most recent segment-arrival time — the close timestamp teardown
    /// stamps on the `Conn` span (teardown sites have no clock).
    last_seen: Option<Timestamp>,
    /// Last time [`TcpInner::metric_sample`] emitted, for throttling
    /// the routine per-ack samples.
    last_metric_sample: std::cell::Cell<Option<Timestamp>>,
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
/// there would be a cycle no one ever breaks (DESIGN.md §13).
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
const RTO: usize = 0;
/// Delayed ACK.
const ACK: usize = 1;
/// Tail Loss Probe (RackTlp tier only).
const TLP: usize = 2;
/// RACK reordering window (RackTlp tier only).
const REO: usize = 3;
/// Pacing release (pacing only).
const PACING: usize = 4;

/// What a socket's timers do when they fire. It holds the socket weakly —
/// the timers are the socket's own, and a shared [`TimerMux`] is reachable
/// from the socket — so a socket whose host is gone is freed with it and
/// the stale firing does nothing.
struct SocketFire {
    socket: WeakTcpHandle,
}

impl BankHandler for SocketFire {
    fn on_fire(&self, sim: &mut Simulator, slot: usize) {
        let Some(socket) = self.socket.upgrade() else {
            return;
        };
        match slot {
            RTO => socket.on_rto(sim),
            ACK => socket.on_ack_timer(sim),
            TLP => socket.on_tlp(sim),
            REO => socket.on_reo_timer(sim),
            PACING => socket.on_pace_timer(sim),
            _ => unreachable!("a socket has five timers"),
        }
    }
}

/// What a host lends each of its sockets.
pub(crate) struct HostLinks {
    /// Where packets go (normally the namespace router).
    pub egress: SinkRef,
    /// The world's packet-id counter.
    pub packet_ids: Rc<std::cell::Cell<u64>>,
    /// The host's one out-buffer (see `TcpInner::out`).
    pub out: Rc<RefCell<Vec<Packet>>>,
    /// The host's timer mux, if it runs its sockets' timers on one.
    pub timer_mux: Option<TimerMux>,
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
        let cc = make_controller(
            config.cc,
            match config.initial_cwnd_segments {
                Some(segments) => segments as u64 * crate::packet::MSS as u64,
                None => crate::tcp::cc::INITIAL_WINDOW,
            },
        );
        let rtt = RttEstimator::new(config.initial_rto, config.min_rto);
        // All five per-socket timers share the host's mux when one is
        // installed — one dispatcher slot in the global heap per host
        // instead of a dead entry per (re)arm per socket.
        let socket = WeakTcpHandle { inner: me.clone() };
        let timers = TimerBank::bound(SocketFire { socket }, host.timer_mux.as_ref());
        // Register with the flow tracer (if the sink carries one) before
        // any samples can fire; the id is `None` when tracing is off so
        // the sample path short-circuits.
        let trace_flow = config
            .metrics
            .as_ref()
            .and_then(|m| m.flow_open(&format!("{local}-{remote}")));
        TcpInner {
            local,
            remote,
            state,
            config,
            snd_una: 0,
            snd_nxt: 0,
            snd_wnd: u64::MAX,
            send_queue: VecDeque::new(),
            send_queued_bytes: 0,
            retx: SeqRing::new(),
            fin_pending: false,
            fin_seq: None,
            cc,
            rtt,
            dup_acks: 0,
            recovery_point: None,
            consecutive_timeouts: 0,
            sack_enabled: false,
            scoreboard: Scoreboard::new(),
            prr_delivered: 0,
            prr_out: 0,
            recover_fs: 0,
            rescue_done: false,
            lost_point: 0,
            pipe_count: 0,
            loss_frontier: 0,
            rack: RackState::new(),
            reo_deadline: None,
            rack_mark_high: None,
            rack_dirty: false,
            tlp_fired: false,
            tlp_deadline: None,
            frto: FrtoState::Inactive,
            prior_lost_point: 0,
            sack_delta: Vec::new(),
            rate: RateEstimator::new(),
            rate_candidate: None,
            pacer: Pacer::new(),
            pace_deadline: None,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            rcv_sack: ReceiverSack::new(),
            peer_fin_seq: None,
            unacked_segments: 0,
            egress: host.egress,
            packet_ids: host.packet_ids,
            out: host.out,
            timers,
            rearm_rto: false,
            app: None,
            pending_events: VecDeque::new(),
            stats: TcpStats::default(),
            trace_flow,
            conn_t0: None,
            hole_since: None,
            last_seen: None,
            last_metric_sample: std::cell::Cell::new(None),
        }
    }

    /// Span-layer connection id: the initiator's local address packed
    /// as `ip << 16 | port`. The same id is computable from the remote
    /// address on the server side, which is how `mmpath` joins server
    /// think-time spans to browser-side connections without URL tricks.
    fn span_conn_id(&self) -> u64 {
        ((self.local.ip.0 as u64) << 16) | self.local.port as u64
    }

    /// Emit one connection-scoped span. A single branch when off.
    fn span_emit(&self, kind: SpanKind, t0: Timestamp, t1: Timestamp, detail: &str) {
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
                conn: self.span_conn_id(),
                url: String::new(),
                detail: detail.to_string(),
            });
        }
    }

    /// Bump a sink counter by one. A single branch when metrics are off.
    fn metric_count(&self, name: &'static str) {
        if let Some(m) = &self.config.metrics {
            m.counter_add(name, 1);
        }
    }

    /// Emit the congestion-state observability signals: cwnd/srtt gauges
    /// and (when tracing is on) a per-flow time-series sample. Called at
    /// ack processing and retransmission events; sinks only observe, so
    /// this can never perturb the simulation. Routine (ack-path) calls
    /// are throttled to one per simulated millisecond per socket so a
    /// live sink stays off the per-ack hot path; retransmission events
    /// bypass the throttle (`force`) — they are exactly the samples the
    /// flow tracer must never drop.
    fn metric_sample(&self, now: Timestamp) {
        self.metric_sample_inner(now, true, "", &[])
    }

    fn metric_sample_routine(&self, now: Timestamp) {
        self.metric_sample_inner(now, false, "", &[])
    }

    /// Event-tagged sample for conformance auditing (`"tx"` after a
    /// new-data burst, `"sack"` on a SACK-carrying ack). Only emitted
    /// when a flow tracer/auditor is attached, so plain gauge-only
    /// metrics runs keep their seed sampling cadence.
    fn metric_sample_event(&self, now: Timestamp, event: &'static str, sack: &[SackBlock]) {
        if self.trace_flow.is_some() {
            self.metric_sample_inner(now, true, event, sack);
        }
    }

    fn metric_sample_inner(
        &self,
        now: Timestamp,
        force: bool,
        event: &'static str,
        sack: &[SackBlock],
    ) {
        let Some(m) = &self.config.metrics else {
            return;
        };
        const ROUTINE_INTERVAL: SimDuration = SimDuration::from_millis(1);
        if let (false, Some(last)) = (force, self.last_metric_sample.get()) {
            if now < last + ROUTINE_INTERVAL {
                return;
            }
        }
        self.last_metric_sample.set(Some(now));
        m.gauge_set("tcp_cwnd_bytes", self.cc.cwnd() as f64);
        let srtt_s = self
            .rtt
            .srtt()
            .map(|srtt| srtt.as_secs_f64())
            .unwrap_or(0.0);
        if srtt_s > 0.0 {
            m.gauge_set("tcp_srtt_seconds", srtt_s);
        }
        if let Some(flow) = self.trace_flow {
            let (rack_clock_ns, rack_clock_end) = self
                .rack
                .clock()
                .map(|(t, end)| (t.as_nanos(), end))
                .unwrap_or((0, 0));
            let (rack_mark_ns, rack_mark_end) = self
                .rack_mark_high
                .map(|(t, end)| (t.as_nanos(), end))
                .unwrap_or((0, 0));
            m.flow_sample(
                flow,
                &FlowSample {
                    t_s: now.as_secs_f64(),
                    cwnd: self.cc.cwnd(),
                    ssthresh: self.cc.ssthresh(),
                    srtt_s,
                    pacing_rate: self.current_pacing_rate().unwrap_or(0) as f64,
                    bytes_in_flight: self.flight_size(),
                    delivered: self.rate.delivered(),
                    retx_count: self.stats.retransmissions,
                    state: if self.recovery_point.is_none() {
                        "open"
                    } else if self.consecutive_timeouts > 0 {
                        "loss"
                    } else {
                        "recovery"
                    },
                    event,
                    snd_nxt: self.snd_nxt,
                    snd_una: self.snd_una,
                    rcv_nxt: self.rcv_nxt,
                    rwnd: self.snd_wnd,
                    mss: crate::packet::MSS as u64,
                    pipe: self.pipe_count,
                    // O(n), but only taken on the traced/audited path.
                    pipe_walk: self.pipe_walk(),
                    rack_clock_ns,
                    rack_clock_end,
                    rack_mark_ns,
                    rack_mark_end,
                    pacing_excess: self.pacer.max_excess_bytes(),
                    sack_blocks: sack.iter().map(|b| (b.start, b.end)).collect(),
                },
            );
        }
    }

    fn next_packet_id(&self) -> u64 {
        let id = self.packet_ids.get();
        self.packet_ids.set(id + 1);
        id
    }

    fn advertised_window(&self) -> u64 {
        // The model's application consumes data immediately, so the full
        // receive window is always open.
        self.config.recv_window
    }

    fn make_packet(&mut self, flags: TcpFlags, seq: u64, payload: Bytes) -> Packet {
        self.stats.segments_sent += 1;
        self.stats.bytes_sent += payload.len() as u64;
        // SACK-permitted rides on the handshake: a client SYN offers it
        // whenever the config asks; a SYN-ACK confirms only if the peer
        // offered too (sack_enabled is settled before the SYN-ACK).
        let sack = SackOption {
            permitted: flags.syn
                && if flags.ack {
                    self.sack_enabled
                } else {
                    self.config.recovery.uses_sack()
                },
            blocks: Vec::new(),
        };
        Packet {
            id: self.next_packet_id(),
            src: self.local,
            dst: self.remote,
            segment: TcpSegment {
                flags,
                seq,
                ack: self.rcv_nxt,
                window: self.advertised_window(),
                sack,
                payload,
            },
            corrupted: false,
        }
    }

    /// Build a pure ACK, attaching SACK blocks while the reassembly queue
    /// holds out-of-order data (RFC 2018: every ACK sent during a hole
    /// reports the blocks).
    fn make_ack_packet(&mut self, now: Timestamp) -> Packet {
        let mut pkt = self.make_packet(TcpFlags::ACK, self.snd_nxt, Bytes::new());
        if self.sack_enabled && !self.ooo.is_empty() {
            let blocks = self.rcv_sack.blocks(
                self.ooo.iter().map(|(&seq, data)| (seq, data.len() as u64)),
                self.rcv_nxt,
            );
            if !blocks.is_empty() {
                self.metric_sample_event(now, "sack", &blocks);
            }
            pkt.segment.sack.blocks = blocks;
        }
        pkt
    }

    /// Bytes in flight.
    fn flight_size(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Effective send window.
    fn send_window(&self) -> u64 {
        self.cc.cwnd().min(self.snd_wnd)
    }

    /// Pull up to `max` bytes off the send queue as one payload. A
    /// payload that lies within the head chunk is a view of the caller's
    /// buffer; bytes are copied only to join a segment across chunks.
    fn dequeue_payload(&mut self, max: usize) -> Bytes {
        let Some(head) = self.send_queue.front_mut() else {
            return Bytes::new();
        };
        let payload = if head.len() > max {
            let payload = head.slice(..max);
            *head = head.slice(max..);
            payload
        } else if head.len() == max || self.send_queue.len() == 1 {
            self.send_queue.pop_front().expect("front exists")
        } else {
            let mut joined = BytesMut::with_capacity(max.min(self.send_queued_bytes as usize));
            while joined.len() < max {
                let Some(head) = self.send_queue.front_mut() else {
                    break;
                };
                let need = max - joined.len();
                if head.len() > need {
                    joined.extend_from_slice(&head[..need]);
                    *head = head.slice(need..);
                } else {
                    joined.extend_from_slice(head);
                    self.send_queue.pop_front();
                }
            }
            joined.freeze()
        };
        self.send_queued_bytes -= payload.len() as u64;
        payload
    }

    /// Transmit as much new data as the window allows — released one
    /// serialization interval at a time when pacing is active; returns
    /// packets.
    fn transmit_new(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        use crate::packet::MSS;
        let had_backlog = self.send_queued_bytes > 0;
        let out_before = out.len();
        // One rate lookup per transmission opportunity; `None` means
        // unpaced (pacing off, or no bandwidth estimate yet to pace
        // against) and the loop below is byte-identical to its
        // pre-pacing self.
        let pace_rate = self.current_pacing_rate();
        self.pace_deadline = None;
        // App-limited marking must precede the sends it covers (Linux
        // stamps `tp->app_limited` in the write path, before
        // transmission): when the queued data cannot fill the available
        // window, every segment of this burst measures the app, not the
        // path — including the first one, which would otherwise be
        // stamped un-limited and "validate" a model built from a
        // trickle.
        if had_backlog
            && self.send_queued_bytes < self.send_window().saturating_sub(self.flight_size())
        {
            self.rate
                .on_app_limited(self.flight_size() + self.send_queued_bytes);
        }
        loop {
            let window = self.send_window();
            let flight = self.flight_size();
            if flight >= window {
                break;
            }
            let can_send = (window - flight).min(MSS as u64) as usize;
            let has_data = self.send_queued_bytes > 0;
            let send_fin_now =
                self.fin_pending && self.send_queued_bytes == 0 && self.fin_seq.is_none();
            if !has_data && !send_fin_now {
                // Out of application data with window to spare: every
                // sample taken until this flight drains measures the app,
                // not the path (draft-cheng app-limited marking).
                self.rate.on_app_limited(self.flight_size());
                break;
            }
            if has_data && pace_rate.is_some() && !self.pacer.can_send(now) {
                // The window permits more, the pacer does not (yet):
                // stop here and let the pacing timer resume the loop at
                // the release instant. The window gate above ran first,
                // so pacing can only ever delay what cwnd permits.
                self.stats.pacing_waits += 1;
                self.pace_deadline = Some(self.pacer.ready_at());
                break;
            }
            if has_data {
                let payload = self.dequeue_payload(can_send);
                if payload.is_empty() {
                    break;
                }
                let seq = self.snd_nxt;
                // Piggyback FIN if this is the last data and a close is
                // pending and the whole remainder fit in this segment.
                let fin_here =
                    self.fin_pending && self.send_queued_bytes == 0 && self.fin_seq.is_none();
                let flags = if fin_here {
                    TcpFlags::FIN_ACK
                } else {
                    TcpFlags::ACK
                };
                let pkt = self.make_packet(flags, seq, payload);
                let seg = pkt.segment.clone();
                self.snd_nxt = seg.seq_end();
                if fin_here {
                    self.fin_seq = Some(seg.seq_end() - 1);
                    self.enter_fin_state();
                }
                let len = seg.seq_len();
                self.insert_retx(seg, now);
                if let Some(rate) = pace_rate {
                    self.pacer.on_sent(now, len, rate);
                }
                out.push(pkt);
            } else {
                // Bare FIN.
                let seq = self.snd_nxt;
                let pkt = self.make_packet(TcpFlags::FIN_ACK, seq, Bytes::new());
                let seg = pkt.segment.clone();
                self.snd_nxt += 1;
                self.fin_seq = Some(seq);
                self.enter_fin_state();
                self.insert_retx(seg, now);
                out.push(pkt);
                break;
            }
        }
        if had_backlog && self.send_queued_bytes == 0 {
            self.pending_events.push_back(SocketEvent::SendQueueDrained);
        }
        if out.len() > out_before {
            // Window-gated sends only: limited transmit, PRR and TLP
            // have their own budgets and may legitimately pass cwnd, so
            // the flight≤cwnd conformance check keys off this tag.
            self.metric_sample_event(now, "tx", &[]);
        }
    }

    fn enter_fin_state(&mut self) {
        self.state = match self.state {
            TcpState::Established | TcpState::SynReceived => TcpState::FinWait1,
            TcpState::CloseWait => TcpState::LastAck,
            s => s,
        };
    }

    /// Retransmit the earliest unacknowledged segment.
    fn retransmit_head(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        if !self.retx.is_empty() {
            self.retransmit_at(0, now, out);
        }
    }

    /// Retransmit the retx entry at `index`. Returns the sequence space
    /// re-sent.
    fn retransmit_at(&mut self, index: usize, now: Timestamp, out: &mut Vec<Packet>) -> u64 {
        let rack_active = self.rack_active();
        let entry = &mut self.retx[index];
        entry.retransmitted = true;
        if rack_active {
            // RACK keys loss inference off *last* transmission times.
            entry.sent_at = now;
        }
        let seg = entry.segment.clone();
        let seq = seg.seq;
        let seq_len = seg.seq_len();
        self.stats.retransmissions += 1;
        self.metric_count("tcp_retransmits_total");
        let mut flags = seg.flags;
        flags.ack = self.state != TcpState::SynSent;
        let pkt = Packet {
            id: {
                let id = self.packet_ids.get();
                self.packet_ids.set(id + 1);
                id
            },
            src: self.local,
            dst: self.remote,
            segment: TcpSegment {
                flags,
                seq,
                ack: if flags.ack { self.rcv_nxt } else { 0 },
                window: self.advertised_window(),
                sack: SackOption {
                    permitted: flags.syn
                        && if flags.ack {
                            self.sack_enabled
                        } else {
                            self.config.recovery.uses_sack()
                        },
                    blocks: Vec::new(),
                },
                payload: seg.payload,
            },
            corrupted: false,
        };
        self.stats.segments_sent += 1;
        out.push(pkt);
        // A retransmission re-enters the network: it counts toward pipe
        // regardless of any loss presumption about the original. The
        // refresh must precede the sample, or observers see the
        // retransmitted flag flipped with the pipe counter still stale.
        self.refresh_pipe_entry(index);
        self.metric_sample(now);
        seq_len
    }

    /// RFC 6675 pipe: an estimate of the bytes still in the network. Per
    /// outstanding segment: sacked coverage contributes nothing, lost and
    /// never-retransmitted bytes contribute nothing, everything else
    /// counts once. (RFC 6675 counts a retransmitted octet twice if its
    /// original is also presumed present; here the original of a
    /// retransmitted segment is presumed gone — that presumption is why
    /// it was retransmitted — so each octet counts at most once and pipe
    /// never exceeds the outstanding sequence space, an invariant the
    /// property tests pin down.)
    ///
    /// Maintained incrementally: every transition that changes a
    /// segment's contribution (transmit, retransmit, ack, trim, new sack
    /// coverage, loss marking) adjusts `pipe_count` through
    /// [`refresh_pipe_entry`](TcpInner::refresh_pipe_entry), so reading
    /// the estimate is O(1) instead of a per-ack walk of the
    /// retransmission queue (measured: the dominant host-CPU cost of
    /// SACK recovery on the lossy-transfer bench).
    fn pipe(&self) -> u64 {
        debug_assert_eq!(
            self.pipe_count,
            self.pipe_walk(),
            "incremental pipe diverged from the definitional walk"
        );
        self.pipe_count
    }

    /// The definitional O(n) pipe walk the incremental counter must
    /// always agree with (debug assertions and property tests).
    fn pipe_walk(&self) -> u64 {
        self.retx
            .iter()
            .filter(|e| self.entry_counts(e))
            .map(|e| e.segment.seq_len())
            .sum()
    }

    /// The single source of truth for a segment's pipe contribution:
    /// sacked coverage contributes nothing; otherwise a segment counts
    /// unless it is presumed lost and was never retransmitted. Every
    /// reader — the definitional walk, the per-entry refresh, and the
    /// bulk rebuild — goes through here, so the incremental counter and
    /// the walk cannot drift apart by a one-sided edit.
    fn entry_counts(&self, e: &RetxEntry) -> bool {
        if self
            .scoreboard
            .is_sacked(e.segment.seq, e.segment.seq_end())
        {
            return false;
        }
        e.retransmitted || !self.entry_is_lost(e)
    }

    /// Insert a freshly transmitted segment into the retransmission
    /// queue. A new transmission always counts toward pipe: nothing
    /// above it can be sacked and no loss evidence about it can exist.
    fn insert_retx(&mut self, segment: TcpSegment, sent_at: Timestamp) {
        // Delivery-rate stamp (the flight-empty check must precede the
        // insert: an idle restart resets the sample window).
        let tx = self.rate.on_send(sent_at, self.retx.is_empty());
        self.pipe_count += segment.seq_len();
        self.retx.push_back(RetxEntry {
            segment,
            sent_at,
            first_sent_at: sent_at,
            retransmitted: false,
            in_pipe: true,
            rack_lost: false,
            tx,
        });
        self.stats.max_retx_queue = self.stats.max_retx_queue.max(self.retx.len() as u64);
    }

    /// `e` has left the retx queue: keep the pipe counter in step.
    fn uncount_retx(&mut self, e: &RetxEntry) {
        if e.in_pipe {
            self.pipe_count -= e.segment.seq_len();
        }
    }

    /// Recompute the pipe contribution of the entry at `index` after a
    /// state transition (sacked, marked lost, retransmitted, trimmed) and
    /// adjust the counter by the difference.
    fn refresh_pipe_entry(&mut self, index: usize) {
        let e = &self.retx[index];
        let len = e.segment.seq_len();
        let counts = self.entry_counts(e);
        if counts != e.in_pipe {
            if counts {
                self.pipe_count += len;
            } else {
                self.pipe_count -= len;
            }
            self.retx[index].in_pipe = counts;
        }
    }

    /// Rebuild the counter from the definitional walk after a bulk state
    /// change (RTO mass-marking, F-RTO undo) where per-entry deltas
    /// would touch every entry anyway.
    fn rebuild_pipe(&mut self) {
        let mut total = 0;
        for index in 0..self.retx.len() {
            let e = &self.retx[index];
            let counts = self.entry_counts(e);
            if counts {
                total += e.segment.seq_len();
            }
            self.retx[index].in_pipe = counts;
        }
        self.pipe_count = total;
    }

    /// Fold newly sacked ranges into the per-entry bookkeeping: refresh
    /// pipe contributions, feed RACK's delivery clock from now-sacked
    /// segments, and retire disproven RACK loss marks (widening the
    /// reordering window — the segment arrived after all). Work is
    /// bounded by the newly covered byte count, not queue length.
    fn apply_sack_delta(&mut self, delta: &[SackBlock], now: Timestamp) {
        let rack_active = self.rack_active();
        let frto_armed = rack_active && !matches!(self.frto, FrtoState::Inactive);
        for d in delta {
            // Entries are disjoint; the one containing d.start may begin
            // below it.
            let first = self.retx.lower_bound(d.start + 1).saturating_sub(1);
            for index in first..self.retx.lower_bound(d.end) {
                let (seq, end, sent_at, retransmitted, tx) = {
                    let e = &self.retx[index];
                    let seg = &e.segment;
                    (seg.seq, seg.seq_end(), e.sent_at, e.retransmitted, e.tx)
                };
                if self.scoreboard.is_sacked(seq, end) {
                    if !retransmitted {
                        // Unambiguous delivery: candidate for this ack's
                        // rate sample, and a windowed min-RTT input.
                        self.note_delivered_record(sent_at, end, tx);
                        self.rate
                            .on_rtt(now.saturating_duration_since(sent_at), now);
                    }
                    if rack_active {
                        // Same ambiguity guard as the cumulative-ack
                        // path: mid-F-RTO, retransmitted deliveries
                        // don't advance the delivery clock.
                        if !(frto_armed && retransmitted) {
                            self.rack_dirty |=
                                self.rack.on_delivered(sent_at, end, retransmitted, now);
                        }
                        let marked = std::mem::take(&mut self.retx[index].rack_lost);
                        if marked && !retransmitted {
                            // The "lost" original was merely reordered.
                            self.rack.on_spurious_mark();
                        }
                    }
                }
                self.refresh_pipe_entry(index);
            }
        }
        if !delta.is_empty() {
            self.advance_loss_frontier();
        }
    }

    /// March the loss frontier upward over entries the scoreboard now
    /// proves lost, refreshing their pipe contributions. Stops at the
    /// first unsacked entry that is not lost: `IsLost` is monotone
    /// downward, so nothing above it can be lost either.
    fn advance_loss_frontier(&mut self) {
        for index in self.retx.lower_bound(self.loss_frontier)..self.retx.len() {
            let e = &self.retx[index];
            let end = e.segment.seq_end();
            if self.scoreboard.is_sacked(e.segment.seq, end) {
                self.loss_frontier = end;
            } else if self.entry_is_lost(e) {
                self.loss_frontier = end;
                self.refresh_pipe_entry(index);
            } else {
                return;
            }
        }
    }

    /// Is the outstanding segment `e` presumed lost — by the scoreboard's
    /// DupThresh evidence, by a timeout having declared everything below
    /// `lost_point` gone, or by a RACK delivery-time mark?
    fn entry_is_lost(&self, e: &RetxEntry) -> bool {
        let (seq, end) = (e.segment.seq, e.segment.seq_end());
        if seq < self.lost_point && !self.scoreboard.is_sacked(seq, end) {
            return true;
        }
        e.rack_lost || self.scoreboard.is_lost(seq, end)
    }

    /// Whether the RACK-TLP machinery runs on this connection: the
    /// `RackTlp` tier was configured *and* SACK negotiated (RACK infers
    /// delivery order from sacked coverage).
    fn rack_active(&self) -> bool {
        self.sack_enabled && self.config.recovery.uses_rack()
    }

    /// Whether new-data transmissions go through the pacer: the config
    /// asked, or the controller is BBR (whose model assumes paced
    /// release — an unpaced BBR would burst the very queues it exists
    /// to avoid).
    fn pacing_active(&self) -> bool {
        self.config.pacing || matches!(self.config.cc, CcAlgorithm::Bbr)
    }

    /// The rate (bytes/second) the pacer releases at right now, if any:
    /// the controller's own model when it has one, else `gain ×
    /// bw_estimate` from the delivery-rate estimator ([`PACING_GAIN_SS`]
    /// in slow start, [`PACING_GAIN_CA`] after — the Linux defaults).
    /// `None` (pacing off, or no estimate yet) means unpaced.
    ///
    /// Floored at one initial window per smoothed RTT: pacing exists to
    /// spread bursts, never to throttle a connection below what a fresh
    /// unpaced sender would move in one round trip. Without the floor,
    /// the *request* direction of an application-limited connection is
    /// poisoned by its own model — every sample is a tiny app-limited
    /// trickle, the windowed-max bandwidth settles at a few kB/s, and a
    /// burst of requests then leaks out one per "serialization" delay of
    /// that garbage rate, multiplying page load time (Linux expresses
    /// the same intent through its IW/srtt initial pacing rate).
    ///
    /// The floor is deliberately *unconditional* — a known deviation
    /// from Linux, which replaces the initial rate once the model has
    /// samples. Replay connections are perpetually app-limited, their
    /// windowed estimates decay between object bursts, and a
    /// lift-once-validated variant re-poisons the request path the
    /// moment one full-window write validates a model that later
    /// expires (measured: the page-load regression came straight back).
    /// The cost is bounded: on a path whose BDP is below one initial
    /// window, BBR's below-rate phases (DRAIN, PROBE_RTT) cannot pace
    /// under the floor, leaving at most ~one IW of standing queue
    /// (DESIGN.md §4; the cwnd floor of PROBE_RTT still caps inflight).
    fn current_pacing_rate(&self) -> Option<u64> {
        if !self.pacing_active() {
            return None;
        }
        let model = self.cc.pacing_rate().or_else(|| {
            let bw = self.rate.bw_estimate()?;
            let gain = if self.cc.in_slow_start() {
                PACING_GAIN_SS
            } else {
                PACING_GAIN_CA
            };
            Some((bw as f64 * gain) as u64)
        })?;
        let iw = match self.config.initial_cwnd_segments {
            Some(segments) => segments as u64 * MSS as u64,
            None => crate::tcp::cc::INITIAL_WINDOW,
        };
        let floor = self
            .rtt
            .srtt()
            .filter(|s| !s.is_zero())
            .map(|s| ((iw as u128 * 1_000_000_000) / s.as_nanos() as u128) as u64)
            .unwrap_or(0);
        Some(model.max(floor).max(1))
    }

    /// Remember the most recently *sent* never-retransmitted segment
    /// this ack delivered — the one whose stamped record closes into the
    /// ack's rate sample.
    fn note_delivered_record(&mut self, sent_at: Timestamp, end_seq: u64, tx: TxRecord) {
        let newer = match self.rate_candidate {
            None => true,
            Some((ts, end, _)) => sent_at > ts || (sent_at == ts && end_seq > end),
        };
        if newer {
            self.rate_candidate = Some((sent_at, end_seq, tx));
        }
    }

    /// Close this ack's delivery bookkeeping into a rate sample and feed
    /// it to the congestion controller. `delivered_bytes` is the ack's
    /// DeliveredData (cumulative advance, minus sacked coverage it
    /// swallowed, plus newly sacked bytes — the same quantity PRR
    /// consumes).
    fn emit_rate_sample(&mut self, delivered_bytes: u64, now: Timestamp) {
        self.rate.on_delivery(delivered_bytes, now);
        if let Some((sent_at, _end, tx)) = self.rate_candidate.take() {
            if let Some(rs) = self.rate.sample(&tx, sent_at, now) {
                self.stats.rate_samples += 1;
                // The incremental pipe estimate (not raw flight): what
                // the model should compare against BDP is bytes believed
                // in the network, not sequence space covering losses.
                let inflight = self.pipe_count;
                self.cc.on_rate_sample(&rs, inflight, now);
            }
        }
    }

    /// Is the first outstanding segment presumed lost? (RFC 6675's
    /// recovery trigger alongside the DupThresh rule.)
    fn head_is_lost(&self) -> bool {
        self.retx.front().is_some_and(|e| self.entry_is_lost(e))
    }

    /// RACK loss detection (RFC 8985): mark outstanding segments lost
    /// when the delivery clock has overtaken them by more than the
    /// reordering window, and remember the earliest future expiry so the
    /// reordering timer can re-check (armed by `manage_timers`). No-op
    /// outside the RackTlp tier.
    fn rack_detect(&mut self, now: Timestamp) {
        if !self.rack_active() || !self.rack.has_delivery() {
            return;
        }
        // Verdicts change only when the delivery clock advances or a
        // previously recorded reordering-window deadline passes; skip
        // the queue scan otherwise (it would be a per-ack O(n) walk —
        // the same hot-path cost the incremental pipe removed).
        let deadline_due = self.reo_deadline.is_some_and(|d| d <= now);
        if !self.rack_dirty && !deadline_due {
            return;
        }
        self.rack_dirty = false;
        let Some((clock_ts, clock_end)) = self.rack.clock() else {
            return;
        };
        let mut next: Option<Timestamp> = None;
        for index in 0..self.retx.len() {
            let e = &self.retx[index];
            let (seq, end) = (e.segment.seq, e.segment.seq_end());
            // First-transmission (time, end) pairs are monotone in
            // sequence order: once an entry's first transmission is at
            // or past the delivery clock (same tiebreak as
            // `sent_after`), so is everything above it — no further
            // candidates. This keeps the common in-order case O(1): the
            // head's first transmission already postdates the newest
            // delivery, including in zero-latency worlds where whole
            // windows share one timestamp.
            if e.first_sent_at > clock_ts || (e.first_sent_at == clock_ts && end >= clock_end) {
                break;
            }
            if e.rack_lost
                || self.scoreboard.is_sacked(seq, end)
                || !self.rack.sent_after(e.sent_at, end)
            {
                continue;
            }
            let sent_at = e.sent_at;
            let deadline = self.rack.lost_deadline(sent_at);
            if deadline <= now {
                // A mark touches nothing the rest of the scan reads.
                self.retx[index].rack_lost = true;
                self.stats.rack_loss_marks += 1;
                if self.rack_mark_high.is_none_or(|high| high < (sent_at, end)) {
                    self.rack_mark_high = Some((sent_at, end));
                }
                self.refresh_pipe_entry(index);
            } else {
                next = Some(match next {
                    Some(d) => d.min(deadline),
                    None => deadline,
                });
            }
        }
        self.reo_deadline = next;
    }

    /// F-RTO verdict: the timeout was spurious — the flight was delayed,
    /// not lost. Undo everything the timeout did: restore the congestion
    /// window, drop the RTO backoff (the long-unwired
    /// `RttEstimator::reset_backoff`, finally behind validated forward
    /// progress), retract the §5.1 mass loss-marking, and leave recovery.
    fn declare_spurious_rto(&mut self) {
        self.stats.spurious_rtos += 1;
        self.metric_count("tcp_spurious_rto_undo_total");
        self.frto = FrtoState::Inactive;
        self.recovery_point = None;
        self.dup_acks = 0;
        self.cc.on_spurious_timeout();
        self.rtt.reset_backoff();
        self.lost_point = self.prior_lost_point;
        // The mass-marking is retracted wholesale, so per-entry deltas
        // would touch everything anyway; rebuild and rescan.
        self.rebuild_pipe();
        self.loss_frontier = 0;
        self.advance_loss_frontier();
    }

    /// Enter SACK loss recovery: multiplicative reduction via the
    /// congestion controller, PRR state reset, and the immediate fast
    /// retransmission of the first hole.
    fn enter_sack_recovery(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        self.stats.fast_retransmits += 1;
        self.stats.sack_recoveries += 1;
        self.metric_count("tcp_fast_retransmits_total");
        self.recovery_point = Some(self.snd_nxt);
        let flight = self.flight_size();
        self.cc.on_sack_recovery(flight, now);
        self.prr_delivered = 0;
        self.prr_out = 0;
        self.recover_fs = flight.max(1);
        self.rescue_done = false;
        // The entry retransmission is not PRR-gated (it is the classic
        // fast retransmit); everything after goes through sack_transmit.
        let sent = self.sack_send_next(now, out);
        self.prr_out += sent;
    }

    /// Proportional-rate-reduction send loop (RFC 6937), run on every ACK
    /// while in SACK recovery: compute the send budget from delivered
    /// bytes, then emit RFC 6675 NextSeg choices until it runs out.
    fn sack_transmit(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        if self.recovery_point.is_none() {
            return;
        }
        // The budget is computed ONCE per ack (RFC 6937's sndcnt), not
        // per segment — recomputing the slow-start bound inside the send
        // loop would hand every ack an unbounded burst.
        let pipe = self.pipe();
        let ssthresh = self.cc.ssthresh();
        let mut budget = if pipe > ssthresh {
            // Proportional phase: delivery rate scaled by the target
            // reduction, ssthresh / recover_fs.
            (self.prr_delivered * ssthresh)
                .div_ceil(self.recover_fs)
                .saturating_sub(self.prr_out)
        } else {
            // Slow-start reduction bound: at most one extra MSS over
            // what was delivered, never overfilling past ssthresh.
            (ssthresh - pipe).min(self.prr_delivered.saturating_sub(self.prr_out) + MSS as u64)
        };
        while budget > 0 {
            let sent = self.sack_send_next(now, out);
            if sent == 0 {
                return;
            }
            self.prr_out += sent;
            budget = budget.saturating_sub(sent);
        }
    }

    /// RFC 6675 NextSeg: pick and transmit the next segment during SACK
    /// recovery. Returns the sequence space sent (0 = nothing eligible).
    ///
    /// 1. the first unsacked, unretransmitted segment presumed lost;
    /// 2. otherwise new, never-sent data;
    /// 3. otherwise one rescue retransmission per recovery of the highest
    ///    unsacked segment, so a lost *retransmission* of the final hole
    ///    cannot strand the connection until RTO. (RFC 6675's rule 3 —
    ///    blind retransmission of in-flight, not-yet-lost segments — is
    ///    deliberately omitted, as in Linux: under AQM it turns every
    ///    recovery into spurious duplicate traffic on a loaded link.)
    fn sack_send_next(&mut self, now: Timestamp, out: &mut Vec<Packet>) -> u64 {
        let Some(rp) = self.recovery_point else {
            return 0;
        };
        // Rule 1.
        let below_rp = self.retx.lower_bound(rp);
        let rule1 = self.retx.iter().take(below_rp).position(|e| {
            !e.retransmitted
                && !self
                    .scoreboard
                    .is_sacked(e.segment.seq, e.segment.seq_end())
                && self.entry_is_lost(e)
        });
        if let Some(index) = rule1 {
            return self.retransmit_at(index, now, out);
        }
        // Rule 2 (gated by the peer's advertised window; PRR owns the
        // congestion budget).
        if self.send_queued_bytes > 0 && self.flight_size() + MSS as u64 <= self.snd_wnd {
            return self.send_new_segment(now, out);
        }
        // Rescue.
        if !self.rescue_done {
            let rescue = self.highest_unsacked_below(below_rp);
            if let Some(index) = rescue {
                self.rescue_done = true;
                return self.retransmit_at(index, now, out);
            }
        }
        0
    }

    /// Index of the highest of the first `n` retx entries that the
    /// scoreboard does not cover.
    fn highest_unsacked_below(&self, n: usize) -> Option<usize> {
        (0..n).rev().find(|&i| {
            let seg = &self.retx[i].segment;
            !self.scoreboard.is_sacked(seg.seq, seg.seq_end())
        })
    }

    /// Send exactly one segment of new data (≤ MSS), bypassing the cwnd
    /// gate — the callers (limited transmit, PRR) own their own budgets.
    /// Piggybacks a pending FIN exactly like `transmit_new`.
    fn send_new_segment(&mut self, now: Timestamp, out: &mut Vec<Packet>) -> u64 {
        if self.send_queued_bytes == 0 {
            return 0;
        }
        let payload = self.dequeue_payload(MSS);
        if payload.is_empty() {
            return 0;
        }
        let seq = self.snd_nxt;
        let fin_here = self.fin_pending && self.send_queued_bytes == 0 && self.fin_seq.is_none();
        let flags = if fin_here {
            TcpFlags::FIN_ACK
        } else {
            TcpFlags::ACK
        };
        let pkt = self.make_packet(flags, seq, payload);
        let seg = pkt.segment.clone();
        self.snd_nxt = seg.seq_end();
        if fin_here {
            self.fin_seq = Some(seg.seq_end() - 1);
            self.enter_fin_state();
        }
        let len = seg.seq_len();
        self.insert_retx(seg, now);
        out.push(pkt);
        if self.send_queued_bytes == 0 {
            self.pending_events.push_back(SocketEvent::SendQueueDrained);
        }
        len
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
                let pkt = self.make_packet(TcpFlags::RST, seg.ack, Bytes::new());
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
            // SACK is on only if we offered and the SYN-ACK confirmed.
            self.sack_enabled = self.config.recovery.uses_sack() && seg.sack.permitted;
            // Our SYN — all a socket in this state has sent — is acked;
            // record RTT if not retransmitted.
            if let Some(entry) = self.retx.pop_back() {
                debug_assert_eq!(entry.segment.seq, self.snd_nxt - 1);
                self.uncount_retx(&entry);
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
            let ack = self.make_packet(TcpFlags::ACK, self.snd_nxt, Bytes::new());
            out.push(ack);
            self.pending_events.push_back(SocketEvent::Connected);
            self.transmit_new(now, out);
        }
        // A bare SYN here would be simultaneous-open; out of scope.
    }

    fn handle_ack(&mut self, now: Timestamp, seg: &TcpSegment, out: &mut Vec<Packet>) {
        let ack = seg.ack;
        if ack > self.snd_nxt {
            return; // acks data we never sent; ignore
        }
        // Rate-sample candidates are per-ack: never let one leak into a
        // later ack's sample (its delivered counts would be stale).
        self.rate_candidate = None;
        // Fold SACK blocks into the scoreboard first; both the dup-ack
        // and the cumulative-ack paths feed on the newly sacked count,
        // and the newly covered ranges drive the incremental pipe and
        // RACK bookkeeping.
        let newly_sacked = if self.sack_enabled && !seg.sack.blocks.is_empty() {
            let mut delta = std::mem::take(&mut self.sack_delta);
            delta.clear();
            let newly = self.scoreboard.add_blocks_delta(
                &seg.sack.blocks,
                self.snd_una.max(ack),
                &mut delta,
            );
            self.apply_sack_delta(&delta, now);
            self.sack_delta = delta;
            self.stats.max_scoreboard_ranges = self
                .stats
                .max_scoreboard_ranges
                .max(self.scoreboard.ranges().len() as u64);
            newly
        } else {
            0
        };
        if self.rack_active() && (ack > self.snd_una || newly_sacked > 0) {
            // Any delivery re-arms the Tail Loss Probe allowance.
            self.tlp_fired = false;
        }
        if ack <= self.snd_una && newly_sacked > 0 {
            // SACK-only progress is still delivery — and not only on
            // classifiable duplicate ACKs: a payload-bearing segment (a
            // pipelined request on a bidirectional mux connection) can
            // carry new blocks with an unmoved ack number. Missing these
            // would permanently undercount `delivered` and under-read
            // every later bandwidth sample. Most of BBR's samples under
            // loss arrive through this path.
            self.emit_rate_sample(newly_sacked, now);
        }
        if ack > self.snd_una {
            let newly_acked = ack - self.snd_una;
            self.snd_una = ack;
            self.snd_wnd = seg.window;
            self.consecutive_timeouts = 0;
            self.rearm_rto = true;

            // RTT sample from the newest fully-acked, never-retransmitted
            // segment (Karn's algorithm). The loop runs before the
            // scoreboard advances so per-entry sacked-ness (F-RTO's
            // evidence filter) is still observable.
            let mut sample: Option<SimDuration> = None;
            let rack_active = self.rack_active();
            // F-RTO spurious-timeout evidence carried by this ack: bytes
            // of fully-acked segments that were neither retransmitted
            // since the timeout (§5.1 cleared every mark, so the flag is
            // exactly "retransmitted since the RTO") nor already sacked
            // before it. Such bytes can only be the *original*
            // pre-timeout flight arriving late — delay, not loss. The
            // per-entry filter is what RFC 5682's coarse first-ack rule
            // lacks: with per-segment immediate acks the first post-RTO
            // ack covers exactly the retransmitted head and the RFC
            // algorithm would give up (DESIGN.md §3).
            let mut frto_evidence = 0u64;
            let frto_armed = rack_active && !matches!(self.frto, FrtoState::Inactive);
            // Entries are disjoint and ordered, so everything this ack
            // covers is at the front of the queue: walk from the head.
            while let Some(e) = self.retx.front() {
                let k = e.segment.seq;
                if k >= ack {
                    break;
                }
                if e.segment.seq_end() <= ack {
                    let was_sacked = self.scoreboard.is_sacked(k, e.segment.seq_end());
                    let e = self.retx.pop_front().expect("front exists");
                    self.uncount_retx(&e);
                    if !e.retransmitted {
                        sample = Some(now.duration_since(e.sent_at));
                        // Unambiguous delivery: rate-sample candidate.
                        self.note_delivered_record(e.sent_at, e.segment.seq_end(), e.tx);
                    }
                    if frto_armed && !e.retransmitted && !was_sacked {
                        frto_evidence += e.segment.seq_len();
                    }
                    if rack_active {
                        // While F-RTO is still weighing spurious-vs-real,
                        // a retransmitted segment's ack is exactly the
                        // ambiguity under investigation (original or
                        // copy?) — letting it advance RACK's delivery
                        // clock to the retransmit time would mark the
                        // entire delayed original flight lost the moment
                        // the verdict lands.
                        if !(frto_armed && e.retransmitted) {
                            self.rack_dirty |= self.rack.on_delivered(
                                e.sent_at,
                                e.segment.seq_end(),
                                e.retransmitted,
                                now,
                            );
                        }
                        if e.rack_lost && !e.retransmitted {
                            // Cumulatively acked without a retransmission:
                            // the RACK mark was reordering, not loss.
                            self.rack.on_spurious_mark();
                        }
                    }
                } else {
                    // Partial ack into this segment: trim the acked prefix
                    // so a future retransmit resends only what's missing.
                    // It straddles `ack`, so it is the last one covered.
                    let cut = (ack - k) as usize;
                    if cut > 0 && cut <= e.segment.payload.len() {
                        let e = self.retx.front_mut().expect("front exists");
                        if std::mem::take(&mut e.in_pipe) {
                            self.pipe_count -= e.segment.seq_len();
                        }
                        e.segment.payload = e.segment.payload.slice(cut..);
                        e.segment.seq = ack;
                        self.refresh_pipe_entry(0);
                    }
                    break;
                }
            }
            // Sacked coverage the cumulative ack swallows was already
            // counted into PRR's delivered total when it was sacked;
            // RFC 6937's DeliveredData must not count it twice.
            let sacked_before = self.scoreboard.sacked_bytes();
            self.scoreboard.advance(ack);
            let swallowed_sacked = sacked_before - self.scoreboard.sacked_bytes();

            if let Some(rtt) = sample {
                self.rtt.on_measurement(rtt);
                self.rate.on_rtt(rtt, now);
            }

            // Close this ack's deliveries into a rate sample for the
            // congestion controller (model-based CC and pacing; a no-op
            // for the loss-based controllers). DeliveredData exactly as
            // PRR counts it.
            self.emit_rate_sample(
                newly_acked.saturating_sub(swallowed_sacked) + newly_sacked,
                now,
            );

            // F-RTO (RFC 5682, per-entry evidence variant): advance the
            // spurious-timeout probe before any recovery retransmissions.
            // `skip_recovery_sends` suppresses this ack's selective
            // retransmissions while the probe is mid-flight — a
            // retransmission would mark the very entries whose
            // unretransmitted delivery is the evidence.
            let mut skip_recovery_sends = false;
            if frto_armed {
                match self.frto {
                    _ if frto_evidence > 0 => {
                        // Never-retransmitted, never-sacked bytes were
                        // cumulatively acked after the timeout: the
                        // original flight is arriving. Spurious — undo.
                        self.declare_spurious_rto();
                    }
                    FrtoState::RtoSent { retx_end } => {
                        let covers_recovery = matches!(self.recovery_point, Some(rp) if ack >= rp);
                        if covers_recovery || ack > retx_end {
                            // The flight is fully accounted for, or the
                            // ack ran past the retransmission on
                            // previously-sacked coverage only: genuine
                            // loss, recover conventionally.
                            self.frto = FrtoState::Inactive;
                        } else {
                            // Exactly the retransmitted head was acked —
                            // ambiguous (original or retransmission?).
                            // Keep the ack clock moving with up to two
                            // NEW segments (RFC 5682 step 2b) and let the
                            // next ack decide.
                            for _ in 0..2 {
                                if self.send_queued_bytes == 0
                                    || self.flight_size() + MSS as u64 > self.snd_wnd
                                {
                                    break;
                                }
                                if self.send_new_segment(now, out) == 0 {
                                    break;
                                }
                            }
                            self.frto = FrtoState::NewDataSent { retx_end };
                            skip_recovery_sends = true;
                        }
                    }
                    FrtoState::NewDataSent { .. } => {
                        // A further cumulative ack with no unretransmitted
                        // evidence: the retransmissions are what's being
                        // acked. Genuine loss.
                        self.frto = FrtoState::Inactive;
                    }
                    FrtoState::Inactive => {}
                }
            }

            match self.recovery_point {
                Some(rp) if ack >= rp => {
                    // Recovery complete.
                    self.recovery_point = None;
                    self.dup_acks = 0;
                    self.cc.on_recovery_exit();
                }
                Some(_) if self.sack_enabled => {
                    // Partial ack during SACK recovery: feed PRR with the
                    // delivered bytes and let the scoreboard pick the
                    // selective retransmissions — no go-back-N.
                    self.prr_delivered +=
                        newly_acked.saturating_sub(swallowed_sacked) + newly_sacked;
                    if !skip_recovery_sends {
                        self.rack_detect(now);
                        self.sack_transmit(now, out);
                    }
                }
                Some(_) => {
                    // Partial ack during recovery (NewReno): retransmit the
                    // next hole immediately, and let the window grow so
                    // go-back-N recovery accelerates past stop-and-wait.
                    self.cc.on_ack(newly_acked, now, self.rtt.srtt());
                    self.retransmit_head(now, out);
                }
                None => {
                    self.dup_acks = 0;
                    self.cc.on_ack(newly_acked, now, self.rtt.srtt());
                    // A cumulative ack can itself reveal a loss: enough
                    // sacked coverage above the new hole (RFC 6675 §5), or
                    // RACK's delivery clock overtaking an unsacked hole.
                    self.rack_detect(now);
                    if self.sack_enabled && self.head_is_lost() {
                        self.enter_sack_recovery(now, out);
                    }
                }
            }

            if self.retx.is_empty() {
                self.timers.cancel(RTO);
            }
            // FIN acked?
            if let Some(fin_seq) = self.fin_seq {
                if ack > fin_seq {
                    self.on_fin_acked();
                }
            }
        } else if ack == self.snd_una
            && seg.payload.is_empty()
            && !seg.flags.fin
            && !seg.flags.syn
            && self.flight_size() > 0
        {
            // Duplicate ACK (with SACK, usually carrying new blocks).
            self.dup_acks += 1;
            // A dup ack is conventional-recovery evidence: any F-RTO
            // probe in flight concludes "not spurious" (RFC 5682 step 3).
            if !matches!(self.frto, FrtoState::Inactive) {
                self.frto = FrtoState::Inactive;
            }
            self.rack_detect(now);
            match self.recovery_point {
                None if self.sack_enabled => {
                    if self.dup_acks >= DUP_THRESH as u32 || self.head_is_lost() {
                        self.enter_sack_recovery(now, out);
                    } else if self.send_queued_bytes > 0
                        && self.flight_size() + MSS as u64 <= self.snd_wnd
                    {
                        // RFC 3042 limited transmit: the first two dup
                        // acks each send one new segment past cwnd (but
                        // never past the peer's advertised window —
                        // condition 3 of the RFC), so a small window
                        // keeps its ack clock alive.
                        if self.send_new_segment(now, out) > 0 {
                            self.stats.limited_transmits += 1;
                        }
                    }
                }
                None => {
                    if self.dup_acks == 3 {
                        self.stats.fast_retransmits += 1;
                        self.metric_count("tcp_fast_retransmits_total");
                        self.recovery_point = Some(self.snd_nxt);
                        self.cc.on_fast_retransmit(self.flight_size(), now);
                        self.retransmit_head(now, out);
                    }
                }
                Some(_) if self.sack_enabled => {
                    self.prr_delivered += newly_sacked;
                    self.sack_transmit(now, out);
                }
                Some(_) => {}
            }
        }
        self.metric_sample_routine(now);
    }

    fn on_fin_acked(&mut self) {
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

    fn handle_data(&mut self, now: Timestamp, seg: &TcpSegment, out: &mut Vec<Packet>) {
        let mut payload = seg.payload.clone();
        let mut seq = seg.seq;
        // Trim any prefix we've already received.
        if seq < self.rcv_nxt {
            let overlap = (self.rcv_nxt - seq) as usize;
            if overlap >= payload.len() && !seg.flags.fin {
                // Entirely duplicate data: re-ack.
                self.queue_ack(now, out, true);
                return;
            }
            payload = payload.slice(overlap.min(payload.len())..);
            seq = self.rcv_nxt;
        }
        if seg.flags.fin {
            let fin_seq = seg.seq + seg.payload.len() as u64;
            self.peer_fin_seq = Some(fin_seq);
        }
        if seq == self.rcv_nxt {
            // In-order: deliver, then drain contiguous out-of-order data.
            if !payload.is_empty() {
                self.rcv_nxt += payload.len() as u64;
                self.stats.bytes_received += payload.len() as u64;
                self.pending_events.push_back(SocketEvent::Data(payload));
            }
            while let Some((&oseq, _)) = self.ooo.iter().next() {
                if oseq > self.rcv_nxt {
                    break;
                }
                let (oseq, odata) = self.ooo.pop_first().unwrap();
                let skip = (self.rcv_nxt - oseq) as usize;
                if skip < odata.len() {
                    let chunk = odata.slice(skip..);
                    self.rcv_nxt += chunk.len() as u64;
                    self.stats.bytes_received += chunk.len() as u64;
                    self.pending_events.push_back(SocketEvent::Data(chunk));
                }
            }
            // Reassembly gap closed: the parked bytes waited this long
            // for the hole to fill (initiator side only — the response
            // direction is where head-of-line blocking costs PLT).
            if let Some(hole_t0) = self.hole_since {
                if self.ooo.is_empty() {
                    self.hole_since = None;
                    if self.conn_t0.is_some() {
                        self.span_emit(SpanKind::HolWait, hole_t0, now, "reassembly");
                    }
                }
            }
            if self.sack_enabled {
                self.rcv_sack.on_advance(self.rcv_nxt);
            }
            // Process FIN once all data before it has arrived.
            if let Some(fin_seq) = self.peer_fin_seq {
                if self.rcv_nxt == fin_seq {
                    self.rcv_nxt = fin_seq + 1;
                    self.on_peer_fin();
                }
            }
            // While holes remain above this in-order data, every ACK must
            // go out immediately and carry SACK blocks (RFC 2018) — the
            // sender's recovery is clocked by them, and delayed-ACK
            // batching here would stall it by a delayed-ack interval per
            // hole. With no holes (or without SACK) the normal batching
            // applies.
            let hole_above = self.sack_enabled && !self.ooo.is_empty();
            self.queue_ack(now, out, hole_above);
        } else {
            // Out of order: stash and send an immediate duplicate ACK
            // (carrying SACK blocks when negotiated).
            if !payload.is_empty() {
                if self.sack_enabled {
                    self.rcv_sack.on_arrival(seq, seq + payload.len() as u64);
                }
                if self.ooo.is_empty() && self.hole_since.is_none() {
                    self.hole_since = Some(now);
                }
                self.ooo.entry(seq).or_insert(payload);
            }
            self.queue_ack(now, out, true);
        }
    }

    fn on_peer_fin(&mut self) {
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

    /// Send or schedule an ACK. `force` bypasses delayed-ACK batching
    /// (used for out-of-order arrivals, which must dup-ack immediately).
    fn queue_ack(&mut self, now: Timestamp, out: &mut Vec<Packet>, force: bool) {
        match self.config.delayed_ack {
            Some(_) if !force => {
                self.unacked_segments += 1;
                if self.unacked_segments >= 2 {
                    self.unacked_segments = 0;
                    self.timers.cancel(ACK);
                    let pkt = self.make_ack_packet(now);
                    out.push(pkt);
                }
                // else: the host arms the delayed-ack timer after `drive`.
            }
            _ => {
                self.unacked_segments = 0;
                let pkt = self.make_ack_packet(now);
                out.push(pkt);
            }
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
        for slot in [RTO, ACK, TLP, REO, PACING] {
            self.timers.cancel(slot);
        }
        self.send_queue = VecDeque::new();
        self.send_queued_bytes = 0;
        self.retx.release();
        self.pipe_count = 0;
        self.reo_deadline = None;
        self.tlp_deadline = None;
        self.pace_deadline = None;
        self.pacer.reset();
        self.rate_candidate = None;
        self.frto = FrtoState::Inactive;
        self.ooo.clear();
        self.scoreboard.clear();
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
        self.pending_events = VecDeque::new();
        self.app.take()
    }

    /// Current state (tests/diagnostics).
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Connection statistics.
    pub fn stats(&self) -> TcpStats {
        self.stats
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
        app: Rc<dyn SocketApp>,
        init: impl FnOnce(&mut TcpInner, Timestamp) -> Packet,
    ) -> TcpHandle {
        let now = sim.now();
        let mut first = None;
        let inner = Rc::new_cyclic(|me| {
            let mut inner = TcpInner::new(me, local, remote, state, config, host);
            inner.app = Some(app);
            let pkt = init(&mut inner, now);
            inner.snd_nxt = 1;
            inner.insert_retx(pkt.segment.clone(), now);
            first = Some(pkt);
            RefCell::new(inner)
        });
        let handle = TcpHandle { inner };
        let egress = handle.inner.borrow().egress.clone();
        egress.deliver(sim, first.expect("set while building"));
        handle.arm_rto(sim);
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
            app,
            |inner, now| {
                inner.conn_t0 = Some(now);
                inner.make_packet(TcpFlags::SYN, 0, Bytes::new())
            },
        )
    }

    /// Create the server half in response to a SYN; emits SYN-ACK.
    pub(crate) fn accept(
        sim: &mut Simulator,
        local: SocketAddr,
        remote: SocketAddr,
        syn: &TcpSegment,
        config: TcpConfig,
        host: HostLinks,
        app: Rc<dyn SocketApp>,
    ) -> TcpHandle {
        let state = TcpState::SynReceived;
        TcpHandle::open(sim, local, remote, state, config, host, app, |inner, _| {
            inner.rcv_nxt = syn.seq + 1;
            inner.snd_wnd = syn.window;
            // Settle SACK before the SYN-ACK so it carries the confirmation.
            inner.sack_enabled = inner.config.recovery.uses_sack() && syn.sack.permitted;
            inner.make_packet(TcpFlags::SYN_ACK, 0, Bytes::new())
        })
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
        let now = sim.now();
        let packets = {
            let mut inner = self.inner.borrow_mut();
            if matches!(inner.state, TcpState::Closed) {
                return;
            }
            assert!(
                !inner.fin_pending && inner.fin_seq.is_none(),
                "send after close"
            );
            for data in chunks {
                inner.send_queued_bytes += data.len() as u64;
                inner.send_queue.push_back(data);
            }
            let mut packets = inner.out.take();
            if inner.state != TcpState::SynSent && inner.state != TcpState::SynReceived {
                inner.transmit_new(now, &mut packets);
            }
            packets
        };
        self.flush(sim, packets);
    }

    /// Graceful close of our direction (FIN after queued data).
    pub fn close(&self, sim: &mut Simulator) {
        let now = sim.now();
        let packets = {
            let mut inner = self.inner.borrow_mut();
            if matches!(inner.state, TcpState::Closed) || inner.fin_pending {
                return;
            }
            inner.fin_pending = true;
            let mut packets = inner.out.take();
            if inner.state != TcpState::SynSent && inner.state != TcpState::SynReceived {
                inner.transmit_new(now, &mut packets);
            }
            packets
        };
        self.flush(sim, packets);
    }

    /// Abort: send RST and drop all state.
    pub fn abort(&self, sim: &mut Simulator) {
        let pkt = {
            let mut inner = self.inner.borrow_mut();
            if matches!(inner.state, TcpState::Closed) {
                None
            } else {
                let seq = inner.snd_nxt;
                let pkt = inner.make_packet(TcpFlags::RST, seq, Bytes::new());
                inner.teardown();
                Some(pkt)
            }
        };
        if let Some(pkt) = pkt {
            let egress = self.inner.borrow().egress.clone();
            egress.deliver(sim, pkt);
        }
        // An abort reports nothing to the app. (Called from inside an event
        // callback with more events queued, the dispatch loop that is
        // running delivers them and releases the app itself.)
        let released = self.inner.borrow_mut().release_app();
        drop(released);
    }

    /// Current connection state.
    pub fn state(&self) -> TcpState {
        self.inner.borrow().state()
    }

    /// Connection statistics snapshot.
    pub fn stats(&self) -> TcpStats {
        self.inner.borrow().stats()
    }

    /// Local endpoint.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.borrow().local
    }

    /// Remote endpoint.
    pub fn remote_addr(&self) -> SocketAddr {
        self.inner.borrow().remote
    }

    /// Smoothed RTT estimate, if measured.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.inner.borrow().rtt.srtt()
    }

    /// Bytes the app has queued that have not yet been put on the wire.
    /// Pairs with [`SocketEvent::SendQueueDrained`] for self-clocked
    /// writers.
    pub fn unsent_bytes(&self) -> u64 {
        self.inner.borrow().send_queued_bytes
    }

    /// RFC 6675 pipe estimate — bytes believed still in the network
    /// (diagnostics/tests; meaningful whether or not SACK is on, since an
    /// empty scoreboard makes it degenerate to outstanding bytes).
    /// Incrementally maintained; in debug builds reading it cross-checks
    /// the counter against the definitional walk.
    pub fn pipe_estimate(&self) -> u64 {
        self.inner.borrow().pipe()
    }

    /// The definitional O(n) pipe walk (tests: must always equal
    /// [`pipe_estimate`](TcpHandle::pipe_estimate)).
    pub fn pipe_estimate_walk(&self) -> u64 {
        self.inner.borrow().pipe_walk()
    }

    /// Current congestion window, bytes (diagnostics/tests — e.g.
    /// asserting the F-RTO spurious-timeout undo restored it).
    pub fn cwnd(&self) -> u64 {
        self.inner.borrow().cc.cwnd()
    }

    /// Current retransmission timeout, including any exponential backoff
    /// (diagnostics/tests — the F-RTO undo drops accumulated backoff).
    pub fn current_rto(&self) -> SimDuration {
        self.inner.borrow().rtt.rto()
    }

    /// Outstanding sequence space (`snd_nxt - snd_una`), the flight size
    /// the pipe estimate can never exceed.
    pub fn flight_bytes(&self) -> u64 {
        self.inner.borrow().flight_size()
    }

    /// Whether SACK was negotiated on this connection.
    pub fn sack_enabled(&self) -> bool {
        self.inner.borrow().sack_enabled
    }

    /// Windowed-max delivery-rate estimate, bytes per second
    /// (diagnostics/tests — e.g. asserting BBR converged to link rate).
    pub fn delivery_rate(&self) -> Option<u64> {
        self.inner.borrow().rate.bw_estimate()
    }

    /// Windowed minimum RTT from the delivery-rate estimator.
    pub fn min_rtt_estimate(&self) -> Option<SimDuration> {
        self.inner.borrow().rate.min_rtt()
    }

    /// The rate the pacer would release at right now, if pacing is
    /// active and a rate is known (diagnostics/tests).
    pub fn pacing_rate(&self) -> Option<u64> {
        self.inner.borrow().current_pacing_rate()
    }

    /// Replace the application observer (used by the host's two-phase
    /// accept, before any event can have fired).
    pub(crate) fn set_app(&self, app: Rc<dyn SocketApp>) {
        self.inner.borrow_mut().app = Some(app);
    }

    /// Process one incoming segment (called by the host).
    pub(crate) fn handle_segment(&self, sim: &mut Simulator, seg: TcpSegment) {
        let now = sim.now();
        let packets = {
            let mut inner = self.inner.borrow_mut();
            let mut packets = inner.out.take();
            inner.on_segment(now, seg, &mut packets);
            // Opportunistic transmission: the window may have opened.
            if matches!(
                inner.state,
                TcpState::Established | TcpState::CloseWait | TcpState::FinWait1
            ) {
                inner.transmit_new(now, &mut packets);
            }
            packets
        };
        self.flush(sim, packets);
    }

    /// Send packets, manage timers, then dispatch pending app events.
    fn flush(&self, sim: &mut Simulator, packets: Vec<Packet>) {
        self.send_out(sim, packets);
        self.manage_timers(sim);
        self.dispatch_events(sim);
    }

    /// Hand `packets` — the out-buffer, taken by the caller — to the
    /// egress, and put the emptied buffer back for the next caller.
    fn send_out(&self, sim: &mut Simulator, mut packets: Vec<Packet>) {
        let egress = self.inner.borrow().egress.clone();
        for pkt in packets.drain(..) {
            egress.deliver(sim, pkt);
        }
        self.inner.borrow().out.replace(packets);
    }

    fn manage_timers(&self, sim: &mut Simulator) {
        let (needs_rto, rearm, delayed_ack) = {
            let mut inner = self.inner.borrow_mut();
            let needs = !inner.retx.is_empty() && inner.state != TcpState::Closed;
            let rearm = std::mem::take(&mut inner.rearm_rto);
            let dack = if inner.unacked_segments > 0 && !inner.timers.is_armed(ACK) {
                inner.config.delayed_ack
            } else {
                None
            };
            (needs, rearm, dack)
        };
        if needs_rto && (rearm || !self.inner.borrow().timers.is_armed(RTO)) {
            self.arm_rto(sim);
        } else if !needs_rto {
            self.inner.borrow().timers.cancel(RTO);
        }
        self.manage_rack_timers(sim);
        self.manage_pacing_timer(sim);
        if let Some(delay) = delayed_ack {
            let at = sim.now() + delay;
            self.inner.borrow().timers.rearm_at(sim, ACK, at);
        }
    }

    /// Delayed-ACK timer fire: acknowledge whatever is still unacked.
    fn on_ack_timer(&self, sim: &mut Simulator) {
        let pkt = {
            let mut inner = self.inner.borrow_mut();
            if inner.unacked_segments == 0 || inner.state == TcpState::Closed {
                None
            } else {
                inner.unacked_segments = 0;
                let now = sim.now();
                Some(inner.make_ack_packet(now))
            }
        };
        if let Some(pkt) = pkt {
            let egress = self.inner.borrow().egress.clone();
            egress.deliver(sim, pkt);
        }
    }

    fn arm_rto(&self, sim: &mut Simulator) {
        let inner = self.inner.borrow();
        let at = sim.now() + inner.rtt.rto();
        inner.timers.rearm_at(sim, RTO, at);
    }

    /// Arm or cancel the RackTlp-tier timers: the Tail Loss Probe (only
    /// while data is outstanding, out of recovery, with the probe
    /// allowance unspent, and strictly *before* the armed RTO — a probe
    /// that would fire at or after the RTO is pointless and forbidden)
    /// and the RACK reordering-window expiry requested by detection.
    ///
    /// Timer discipline: the desired TLP deadline moves forward on every
    /// flush, but the armed timer is left alone when it is already set
    /// to fire no later — the fire handler re-arms itself forward to the
    /// then-current desired deadline. Without this, each flush would
    /// push a dead timer generation onto the event heap (measured as the
    /// dominant RackTlp host cost on the lossy-transfer bench).
    fn manage_rack_timers(&self, sim: &mut Simulator) {
        let now = sim.now();
        enum TimerPlan {
            Arm(Timestamp),
            Keep,
            Cancel,
        }
        let (tlp_plan, reo_plan) = {
            let mut inner = self.inner.borrow_mut();
            if !inner.rack_active() {
                return;
            }
            let outstanding = !inner.retx.is_empty() && inner.state != TcpState::Closed;
            let desired = if outstanding
                && inner.recovery_point.is_none()
                && !inner.tlp_fired
                && inner.consecutive_timeouts == 0
            {
                inner
                    .rtt
                    .srtt()
                    .map(|srtt| {
                        // RFC 8985's PTO: two round trips for the probe's
                        // ack to return, plus slack for ack jitter.
                        now + srtt.saturating_mul(2) + TLP_SLACK
                    })
                    .filter(|&at| at < inner.timers.deadline(RTO))
            } else {
                None
            };
            inner.tlp_deadline = desired;
            let tlp_plan = match desired {
                Some(at) if inner.timers.is_armed(TLP) && inner.timers.deadline(TLP) <= at => {
                    TimerPlan::Keep
                }
                Some(at) => TimerPlan::Arm(at),
                None => TimerPlan::Cancel,
            };
            // A recorded expiry can already be due (detection is gated
            // and may not have rechecked since): fire as soon as
            // possible, never in the past.
            let reo_plan = match inner
                .reo_deadline
                .filter(|_| outstanding)
                .map(|at| at.max(now))
            {
                Some(at) if inner.timers.deadline(REO) == at => TimerPlan::Keep,
                Some(at) => TimerPlan::Arm(at),
                None => TimerPlan::Cancel,
            };
            (tlp_plan, reo_plan)
        };
        let timers = &self.inner.borrow().timers;
        for (slot, plan) in [(TLP, tlp_plan), (REO, reo_plan)] {
            match plan {
                TimerPlan::Arm(at) => timers.rearm_at(sim, slot, at),
                TimerPlan::Keep => {}
                TimerPlan::Cancel => timers.cancel(slot),
            }
        }
    }

    /// Arm (or cancel) the pacing release timer. `transmit_new` records
    /// the release instant it stopped at in `pace_deadline` (cleared on
    /// entry, so a deadline here is always from the latest transmission
    /// opportunity); the fire handler simply re-runs the transmit loop.
    fn manage_pacing_timer(&self, sim: &mut Simulator) {
        let inner = self.inner.borrow();
        let timers = &inner.timers;
        let deadline = inner
            .pace_deadline
            .filter(|_| inner.state != TcpState::Closed);
        match deadline {
            Some(at) if timers.is_armed(PACING) && timers.deadline(PACING) == at => {}
            Some(at) => timers.rearm_at(sim, PACING, at),
            None => timers.cancel(PACING),
        }
    }

    /// Pacing release instant reached: resume the transmit loop (which
    /// re-checks the window — an ack may have shrunk it meanwhile).
    fn on_pace_timer(&self, sim: &mut Simulator) {
        let now = sim.now();
        let packets = {
            let mut inner = self.inner.borrow_mut();
            if !matches!(
                inner.state,
                TcpState::Established | TcpState::CloseWait | TcpState::FinWait1
            ) {
                return;
            }
            let mut packets = inner.out.take();
            inner.transmit_new(now, &mut packets);
            packets
        };
        self.flush(sim, packets);
    }

    /// Tail Loss Probe fire: one probe segment — new data if the peer's
    /// window allows, else a retransmission of the highest unsacked
    /// outstanding segment — so a pure tail loss produces the SACK
    /// feedback RACK recovery needs instead of waiting out the RTO.
    fn on_tlp(&self, sim: &mut Simulator) {
        let now = sim.now();
        let packets = {
            let mut inner = self.inner.borrow_mut();
            if !inner.rack_active()
                || inner.retx.is_empty()
                || inner.state == TcpState::Closed
                || inner.recovery_point.is_some()
            {
                return;
            }
            // Lazily re-arm: the desired deadline has usually moved past
            // the one this firing was scheduled for.
            let Some(desired) = inner.tlp_deadline else {
                return;
            };
            if desired > now {
                inner.timers.rearm_at(sim, TLP, desired);
                return;
            }
            let mut packets = inner.out.take();
            debug_assert!(
                !inner.timers.is_armed(RTO) || inner.timers.deadline(RTO) >= now,
                "TLP fired past an armed, nearer RTO"
            );
            inner.tlp_fired = true;
            inner.tlp_deadline = None;
            inner.stats.tlp_probes += 1;
            inner.metric_count("tcp_tlp_fires_total");
            let sent = if inner.send_queued_bytes > 0
                && inner.flight_size() + MSS as u64 <= inner.snd_wnd
            {
                inner.send_new_segment(now, &mut packets)
            } else {
                0
            };
            if sent == 0 {
                if let Some(index) = inner.highest_unsacked_below(inner.retx.len()) {
                    inner.retransmit_at(index, now, &mut packets);
                }
            }
            // The probe restarts the RTO clock (RFC 8985 §7.3).
            inner.rearm_rto = true;
            packets
        };
        self.flush(sim, packets);
    }

    /// RACK reordering-window expiry: segments that were within the
    /// window when last checked may have crossed into "lost" by pure
    /// passage of time, with no ack to trigger re-detection.
    fn on_reo_timer(&self, sim: &mut Simulator) {
        let now = sim.now();
        let packets = {
            let mut inner = self.inner.borrow_mut();
            if !inner.rack_active() || inner.retx.is_empty() || inner.state == TcpState::Closed {
                return;
            }
            let mut packets = inner.out.take();
            // `reo_deadline` is left set: its being due is what lets
            // `rack_detect` through the dirty-gate; detection then
            // replaces it with the next pending expiry (or clears it).
            inner.rack_detect(now);
            if inner.recovery_point.is_none() {
                if inner.sack_enabled && inner.head_is_lost() && inner.flight_size() > 0 {
                    inner.enter_sack_recovery(now, &mut packets);
                }
            } else {
                inner.sack_transmit(now, &mut packets);
            }
            packets
        };
        self.flush(sim, packets);
    }

    fn on_rto(&self, sim: &mut Simulator) {
        let now = sim.now();
        let mut dead = false;
        let packets = {
            let mut inner = self.inner.borrow_mut();
            if inner.retx.is_empty() || inner.state == TcpState::Closed {
                return;
            }
            let mut packets = inner.out.take();
            inner.consecutive_timeouts += 1;
            inner.stats.timeouts += 1;
            inner.metric_count("tcp_rto_total");
            if inner.consecutive_timeouts > inner.config.max_retries {
                inner.teardown();
                inner.pending_events.push_back(SocketEvent::Reset);
                dead = true;
            } else {
                let flight = inner.flight_size();
                // F-RTO (RFC 5682) eligibility: RackTlp tier, first
                // timeout of this episode, not already inside a loss
                // recovery. Capture the pre-timeout loss watermark so a
                // spurious verdict can retract the §5.1 mass-marking.
                let frto_eligible = inner.rack_active()
                    && inner.consecutive_timeouts == 1
                    && inner.recovery_point.is_none();
                if frto_eligible {
                    inner.prior_lost_point = inner.lost_point;
                } else {
                    // A repeated or in-recovery RTO muddies the evidence a
                    // probe in flight was collecting (RFC 5682 applies
                    // F-RTO to the first timeout only).
                    inner.frto = FrtoState::Inactive;
                }
                inner.cc.on_timeout(flight, now);
                inner.rtt.backoff();
                // Keep a recovery point so every partial ACK immediately
                // retransmits the next hole (otherwise each lost segment
                // would cost its own RTO — catastrophic under burst loss).
                inner.recovery_point = Some(inner.snd_nxt);
                inner.dup_acks = 0;
                // Timers subordinate to the RTO are void once it fires.
                inner.timers.cancel(TLP);
                inner.timers.cancel(REO);
                inner.reo_deadline = None;
                inner.tlp_deadline = None;
                inner.tlp_fired = false;
                if inner.sack_enabled {
                    // RFC 6675 §5.1: an RTO clears the per-segment
                    // retransmission marks (Karn's rule), keeps the sacked
                    // coverage (this receiver never reneges), and declares
                    // every unsacked outstanding segment lost — an RTO
                    // means the tail produced no SACKs, so the scoreboard
                    // alone could never flag it. Recovery restarts PRR
                    // from the post-timeout flight and resends the first
                    // actual hole.
                    for e in inner.retx.iter_mut() {
                        e.retransmitted = false;
                    }
                    inner.lost_point = inner.snd_nxt;
                    inner.prr_delivered = 0;
                    inner.prr_out = 0;
                    inner.recover_fs = flight.max(1);
                    inner.rescue_done = false;
                    // The mass-marking flips most contributions at once;
                    // rebuild the incremental pipe rather than diffing.
                    inner.rebuild_pipe();
                    inner.loss_frontier = inner.snd_nxt;
                    let first_hole = inner.retx.iter().position(|e| {
                        !inner
                            .scoreboard
                            .is_sacked(e.segment.seq, e.segment.seq_end())
                    });
                    if let Some(index) = first_hole {
                        let seq = inner.retx[index].segment.seq;
                        let len = inner.retransmit_at(index, now, &mut packets);
                        if frto_eligible {
                            inner.frto = FrtoState::RtoSent {
                                retx_end: seq + len,
                            };
                        }
                    }
                } else {
                    inner.retransmit_head(now, &mut packets);
                }
            }
            packets
        };
        // A socket that gave up emitted nothing; its buffer goes back too.
        self.send_out(sim, packets);
        if !dead {
            self.arm_rto(sim);
        }
        self.dispatch_events(sim);
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

    fn data_seg(seq: u64, payload: &[u8]) -> TcpSegment {
        TcpSegment {
            flags: TcpFlags::ACK,
            seq,
            ack: 0,
            window: 1 << 20,
            sack: Default::default(),
            payload: Bytes::copy_from_slice(payload),
        }
    }

    fn collect_data(inner: &mut TcpInner) -> Vec<u8> {
        let mut out = Vec::new();
        for ev in inner.pending_events.drain(..) {
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
    fn dup_acks_trigger_fast_retransmit() {
        let mut inner = make_inner(TcpState::Established);
        inner.snd_una = 0;
        inner.snd_nxt = 3000;
        inner.insert_retx(
            TcpSegment {
                flags: TcpFlags::ACK,
                seq: 0,
                ack: 0,
                window: 0,
                sack: Default::default(),
                payload: Bytes::from(vec![0; 1460]),
            },
            Timestamp::ZERO,
        );
        let mut out = Vec::new();
        let dup = TcpSegment {
            flags: TcpFlags::ACK,
            seq: 0,
            ack: 0,
            window: 1 << 20,
            sack: Default::default(),
            payload: Bytes::new(),
        };
        for _ in 0..3 {
            inner.on_segment(Timestamp::from_millis(1), dup.clone(), &mut out);
        }
        assert_eq!(inner.stats.fast_retransmits, 1);
        assert_eq!(out.len(), 1, "exactly one retransmission");
        assert_eq!(out[0].segment.seq, 0);
        assert!(inner.recovery_point.is_some());
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
        let dup = TcpSegment {
            flags: TcpFlags::ACK,
            seq: 0,
            ack: 0,
            window: 1 << 20,
            sack: Default::default(),
            payload: Bytes::new(),
        };
        inner.on_segment(Timestamp::from_millis(1), dup.clone(), &mut out);
        inner.on_segment(Timestamp::from_millis(1), dup, &mut out);
        assert_eq!(inner.dup_acks, 2);
        let ack = TcpSegment {
            flags: TcpFlags::ACK,
            seq: 0,
            ack: 100,
            window: 1 << 20,
            sack: Default::default(),
            payload: Bytes::new(),
        };
        inner.on_segment(Timestamp::from_millis(2), ack, &mut out);
        assert_eq!(inner.dup_acks, 0);
        assert_eq!(inner.snd_una, 100);
        assert!(inner.retx.is_empty());
    }

    #[test]
    fn fin_handling_passive_close() {
        let mut inner = make_inner(TcpState::Established);
        let mut out = Vec::new();
        let fin = TcpSegment {
            flags: TcpFlags::FIN_ACK,
            seq: 0,
            ack: 0,
            window: 1 << 20,
            sack: Default::default(),
            payload: Bytes::new(),
        };
        inner.on_segment(Timestamp::ZERO, fin, &mut out);
        assert_eq!(inner.state(), TcpState::CloseWait);
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
        let fin = TcpSegment {
            flags: TcpFlags::FIN_ACK,
            seq: 0,
            ack: 0,
            window: 1 << 20,
            sack: Default::default(),
            payload: Bytes::from_static(b"bye"),
        };
        inner.on_segment(Timestamp::ZERO, fin, &mut out);
        let events: Vec<_> = inner.pending_events.drain(..).collect();
        assert!(matches!(events[0], SocketEvent::Data(ref b) if &b[..] == b"bye"));
        assert!(matches!(events[1], SocketEvent::PeerClosed));
        assert_eq!(inner.rcv_nxt, 4);
    }

    #[test]
    fn fin_out_of_order_waits_for_data() {
        let mut inner = make_inner(TcpState::Established);
        let mut out = Vec::new();
        // FIN arrives before the data preceding it.
        let fin = TcpSegment {
            flags: TcpFlags::FIN_ACK,
            seq: 5,
            ack: 0,
            window: 1 << 20,
            sack: Default::default(),
            payload: Bytes::new(),
        };
        inner.on_segment(Timestamp::ZERO, fin, &mut out);
        assert_eq!(inner.state(), TcpState::Established);
        inner.on_segment(Timestamp::ZERO, data_seg(0, b"hello"), &mut out);
        assert_eq!(inner.state(), TcpState::CloseWait);
        assert_eq!(inner.rcv_nxt, 6);
    }

    #[test]
    fn rst_resets_connection() {
        let mut inner = make_inner(TcpState::Established);
        let mut out = Vec::new();
        let rst = TcpSegment {
            flags: TcpFlags::RST,
            seq: 0,
            ack: 0,
            window: 0,
            sack: Default::default(),
            payload: Bytes::new(),
        };
        inner.on_segment(Timestamp::ZERO, rst.clone(), &mut out);
        assert_eq!(inner.state(), TcpState::Closed);
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

    #[test]
    fn transmit_respects_cwnd() {
        let mut inner = make_inner(TcpState::Established);
        // Queue far more than IW10 allows.
        let big = vec![0u8; 100_000];
        inner.send_queued_bytes = big.len() as u64;
        inner.send_queue.push_back(Bytes::from(big));
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
        for chunk in chunks {
            inner.send_queued_bytes += chunk.len() as u64;
            inner.send_queue.push_back(chunk);
        }
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
            let ack = TcpSegment {
                flags: TcpFlags::ACK,
                seq: 0,
                ack: inner.snd_nxt,
                window,
                sack: Default::default(),
                payload: Bytes::new(),
            };
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
        inner.send_queued_bytes = data.len() as u64;
        inner.send_queue.push_back(data);
        let mut out = Vec::new();
        inner.transmit_new(Timestamp::ZERO, &mut out);
        assert!(out.len() >= 10, "IW10 worth of segments, got {}", out.len());
        for pkt in &out {
            let seg = &pkt.segment;
            // A view into the application's allocation, not a copy of it…
            assert_eq!(seg.payload.as_ptr(), base.wrapping_add(seg.seq as usize));
            // …and the retransmission queue holds the same view.
            let kept = &inner
                .retx
                .get(&seg.seq)
                .expect("retx entry")
                .segment
                .payload;
            assert_eq!(kept.as_ptr(), seg.payload.as_ptr());
        }
    }

    #[test]
    fn a_segment_spanning_two_chunks_carries_both() {
        let mut inner = make_inner(TcpState::Established);
        for chunk in [&b"head: "[..], &b"body"[..]] {
            inner.send_queued_bytes += chunk.len() as u64;
            inner.send_queue.push_back(Bytes::copy_from_slice(chunk));
        }
        let mut out = Vec::new();
        inner.transmit_new(Timestamp::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(&out[0].segment.payload[..], b"head: body");
    }

    #[test]
    fn partial_ack_trims_retx_entry() {
        let mut inner = make_inner(TcpState::Established);
        inner.send_queued_bytes = 1000;
        inner.send_queue.push_back(Bytes::from(vec![7u8; 1000]));
        let mut out = Vec::new();
        inner.transmit_new(Timestamp::ZERO, &mut out);
        // Ack half of the single segment.
        let ack = TcpSegment {
            flags: TcpFlags::ACK,
            seq: 0,
            ack: 500,
            window: 1 << 20,
            sack: Default::default(),
            payload: Bytes::new(),
        };
        inner.on_segment(Timestamp::from_millis(5), ack, &mut out);
        assert_eq!(inner.snd_una, 500);
        let entry = inner.retx.get(&500).expect("trimmed entry at seq 500");
        assert_eq!(entry.segment.payload.len(), 500);
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
