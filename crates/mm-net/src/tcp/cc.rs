//! Congestion control: NewReno, CUBIC, and BBR.
//!
//! The congestion window is kept in bytes. All algorithms implement the
//! same small trait so the socket can switch between them (and the bench
//! suite can ablate them). Loss-based controllers (Reno, Cubic) ignore
//! the rate-sample and pacing hooks — their no-op defaults keep the
//! classic tiers byte-identical — while [`Bbr`] is built entirely on
//! them: it models the path (bottleneck bandwidth × min RTT) from
//! delivery-rate samples and drives the socket's pacer instead of
//! reacting to loss.

use mm_sim::{SimDuration, Timestamp};

use crate::packet::MSS;
use crate::tcp::rate::{RateSample, WindowedMaxBw};

/// Which congestion-control algorithm a socket runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CcAlgorithm {
    /// TCP NewReno: AIMD, slow start + congestion avoidance.
    #[default]
    Reno,
    /// CUBIC (RFC 8312-style window growth), the Linux default in the
    /// paper's era.
    Cubic,
    /// BBRv1: model-based congestion control from delivery-rate samples,
    /// driving the pacer. Implies pacing (a BBR sender without pacing
    /// would burst whole BDP-sized windows and defeat its own model).
    Bbr,
}

/// Congestion-controller interface. All window values are bytes.
pub(crate) trait CongestionControl {
    /// Current congestion window.
    fn cwnd(&self) -> u64;
    /// Current slow-start threshold.
    fn ssthresh(&self) -> u64;
    /// New data acknowledged.
    fn on_ack(&mut self, bytes_acked: u64, now: Timestamp, srtt: Option<SimDuration>);
    /// Loss detected via three duplicate ACKs (fast retransmit). Returns
    /// the new cwnd to use during fast recovery.
    fn on_fast_retransmit(&mut self, flight_size: u64, now: Timestamp);
    /// Loss detected via the SACK scoreboard (RFC 6675 recovery entry).
    /// The default applies the same multiplicative reduction as a fast
    /// retransmit; while recovery runs, the socket's proportional rate
    /// reduction (RFC 6937) governs the send rate against the `ssthresh`
    /// this sets, so the window shrinks in proportion to delivered data
    /// instead of collapsing in one step.
    fn on_sack_recovery(&mut self, flight_size: u64, now: Timestamp) {
        self.on_fast_retransmit(flight_size, now);
    }
    /// Loss detected via retransmission timeout.
    fn on_timeout(&mut self, flight_size: u64, now: Timestamp);
    /// The preceding timeout was proven spurious (F-RTO, RFC 5682): the
    /// acknowledgments were merely delayed and the original flight is
    /// arriving. Undo the window collapse by restoring the state the
    /// last `on_timeout` destroyed. Default: no-op (controllers that
    /// don't save prior state simply forgo the undo).
    fn on_spurious_timeout(&mut self) {}
    /// Fast recovery finished (the lost segment's range was acked).
    fn on_recovery_exit(&mut self);
    /// A delivery-rate sample (see [`crate::tcp::rate`]) with the
    /// current pipe estimate. Model-based controllers (BBR) rebuild
    /// their path model here; loss-based controllers ignore it — the
    /// no-op default keeps Reno/Cubic untouched.
    fn on_rate_sample(&mut self, _rs: &RateSample, _inflight: u64, _now: Timestamp) {}
    /// The rate (bytes/second) the controller wants the pacer to release
    /// at, when it models one. `None` (the default) leaves the socket
    /// unpaced: a socket paces exactly when this is `Some`.
    fn pacing_rate(&self) -> Option<u64> {
        None
    }
    /// True while in slow start.
    fn in_slow_start(&self) -> bool {
        self.cwnd() < self.ssthresh()
    }
}

const MSS64: u64 = MSS as u64;
/// Initial window: 10 segments (RFC 6928, the Linux default since 2011,
/// i.e. the paper's era).
pub(crate) const INITIAL_WINDOW: u64 = 10 * MSS64;
const MIN_CWND: u64 = 2 * MSS64;

/// TCP NewReno.
#[derive(Debug, Clone)]
pub(crate) struct Reno {
    cwnd: u64,
    ssthresh: u64,
    /// Fractional-MSS accumulator for congestion avoidance.
    acked_bytes: u64,
    /// (cwnd, ssthresh) before the last timeout, for the F-RTO undo.
    prior: Option<(u64, u64)>,
}

impl Reno {
    /// Standard initial state (IW10, effectively-infinite ssthresh).
    pub(crate) fn new() -> Self {
        Self::with_initial_window(INITIAL_WINDOW)
    }

    /// Initial state with an explicit initial window in bytes.
    pub(crate) fn with_initial_window(iw: u64) -> Self {
        Reno {
            cwnd: iw.max(MIN_CWND),
            ssthresh: u64::MAX,
            acked_bytes: 0,
            prior: None,
        }
    }
}

impl Default for Reno {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Reno {
    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn on_ack(&mut self, bytes_acked: u64, _now: Timestamp, _srtt: Option<SimDuration>) {
        if self.in_slow_start() {
            self.cwnd += bytes_acked;
        } else {
            // cwnd += MSS per cwnd-worth of acked bytes.
            self.acked_bytes += bytes_acked;
            while self.acked_bytes >= self.cwnd {
                self.acked_bytes -= self.cwnd;
                self.cwnd += MSS64;
            }
        }
    }

    fn on_fast_retransmit(&mut self, flight_size: u64, _now: Timestamp) {
        self.ssthresh = (flight_size / 2).max(MIN_CWND);
        self.cwnd = self.ssthresh;
        self.acked_bytes = 0;
    }

    fn on_timeout(&mut self, flight_size: u64, _now: Timestamp) {
        self.prior = Some((self.cwnd, self.ssthresh));
        self.ssthresh = (flight_size / 2).max(MIN_CWND);
        self.cwnd = MSS64;
        self.acked_bytes = 0;
    }

    fn on_spurious_timeout(&mut self) {
        if let Some((cwnd, ssthresh)) = self.prior.take() {
            self.cwnd = cwnd;
            self.ssthresh = ssthresh;
        }
    }

    fn on_recovery_exit(&mut self) {
        self.cwnd = self.ssthresh;
    }
}

/// CUBIC window growth (simplified RFC 8312: no TCP-friendly region clamp
/// beyond the Reno-equivalent lower bound, no HyStart).
#[derive(Debug, Clone)]
pub(crate) struct Cubic {
    cwnd: u64,
    ssthresh: u64,
    /// Window size before the last reduction.
    w_max: f64,
    /// Time of the last reduction.
    epoch_start: Option<Timestamp>,
    /// Reno-equivalent window for the TCP-friendly region.
    w_est: f64,
    acked_bytes: u64,
    /// Full pre-timeout state for the F-RTO undo.
    prior: Option<CubicPrior>,
}

/// Snapshot of the CUBIC state a timeout destroys (see
/// [`CongestionControl::on_spurious_timeout`]).
#[derive(Debug, Clone, Copy)]
struct CubicPrior {
    cwnd: u64,
    ssthresh: u64,
    w_max: f64,
    epoch_start: Option<Timestamp>,
    w_est: f64,
}

/// CUBIC scaling constant (RFC 8312).
const CUBIC_C: f64 = 0.4;
/// Multiplicative decrease factor.
const CUBIC_BETA: f64 = 0.7;

impl Cubic {
    /// Standard initial state.
    pub(crate) fn new() -> Self {
        Self::with_initial_window(INITIAL_WINDOW)
    }

    /// Initial state with an explicit initial window in bytes.
    pub(crate) fn with_initial_window(iw: u64) -> Self {
        Cubic {
            cwnd: iw.max(MIN_CWND),
            ssthresh: u64::MAX,
            w_max: 0.0,
            epoch_start: None,
            w_est: 0.0,
            acked_bytes: 0,
            prior: None,
        }
    }

    fn cubic_window(&self, t: SimDuration) -> f64 {
        // W(t) = C*(t-K)^3 + Wmax, windows in MSS units.
        let w_max_mss = self.w_max / MSS as f64;
        let k = (w_max_mss * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
        let t_s = t.as_secs_f64();
        (CUBIC_C * (t_s - k).powi(3) + w_max_mss) * MSS as f64
    }
}

impl Default for Cubic {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Cubic {
    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn on_ack(&mut self, bytes_acked: u64, now: Timestamp, srtt: Option<SimDuration>) {
        if self.in_slow_start() {
            self.cwnd += bytes_acked;
            return;
        }
        let epoch = match self.epoch_start {
            Some(e) => e,
            None => {
                // First CA ack after leaving slow start without a loss
                // event: treat current window as Wmax.
                self.epoch_start = Some(now);
                self.w_max = self.cwnd as f64;
                self.w_est = self.cwnd as f64;
                now
            }
        };
        let t = now.saturating_duration_since(epoch);
        // Reno-equivalent estimate for the TCP-friendly region.
        self.acked_bytes += bytes_acked;
        while self.acked_bytes >= self.cwnd {
            self.acked_bytes -= self.cwnd;
            self.w_est += MSS as f64;
        }
        let rtt = srtt.unwrap_or(SimDuration::from_millis(100));
        // Target the cubic curve one RTT ahead, as RFC 8312 prescribes.
        let target = self.cubic_window(t + rtt);
        let next = target.max(self.w_est);
        if next > self.cwnd as f64 {
            // Approach the target gradually: at most 1.5x per call bundle.
            self.cwnd = (next.min(self.cwnd as f64 * 1.5)) as u64;
        }
        self.cwnd = self.cwnd.max(MIN_CWND);
    }

    fn on_fast_retransmit(&mut self, flight_size: u64, now: Timestamp) {
        self.w_max = self.cwnd.max(flight_size) as f64;
        self.ssthresh = ((self.cwnd as f64 * CUBIC_BETA) as u64).max(MIN_CWND);
        self.cwnd = self.ssthresh;
        self.epoch_start = Some(now);
        self.w_est = self.cwnd as f64;
        self.acked_bytes = 0;
    }

    fn on_timeout(&mut self, flight_size: u64, now: Timestamp) {
        self.prior = Some(CubicPrior {
            cwnd: self.cwnd,
            ssthresh: self.ssthresh,
            w_max: self.w_max,
            epoch_start: self.epoch_start,
            w_est: self.w_est,
        });
        self.w_max = self.cwnd.max(flight_size) as f64;
        self.ssthresh = ((self.cwnd as f64 * CUBIC_BETA) as u64).max(MIN_CWND);
        self.cwnd = MSS64;
        self.epoch_start = Some(now);
        self.w_est = self.cwnd as f64;
        self.acked_bytes = 0;
    }

    fn on_spurious_timeout(&mut self) {
        if let Some(p) = self.prior.take() {
            self.cwnd = p.cwnd;
            self.ssthresh = p.ssthresh;
            self.w_max = p.w_max;
            self.epoch_start = p.epoch_start;
            self.w_est = p.w_est;
        }
    }

    fn on_recovery_exit(&mut self) {
        self.cwnd = self.ssthresh;
    }
}

/// BBR STARTUP/DRAIN pacing gain: 2/ln 2, the smallest gain that can
/// double the delivery rate every round trip.
const BBR_HIGH_GAIN: f64 = 2.885;
/// ProbeBW cwnd gain: two BDPs of inflight headroom absorbs delayed and
/// aggregated ACKs without starving the pacer.
const BBR_CWND_GAIN: f64 = 2.0;
/// The ProbeBW pacing-gain cycle: one probing phase, one draining phase,
/// six cruise phases.
const BBR_CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Bandwidth filter window, in packet-timed round trips.
const BBR_BW_WINDOW_ROUNDS: u64 = 10;
/// STARTUP exits once bandwidth has grown less than this factor across
/// [`BBR_FULL_BW_ROUNDS`] consecutive rounds.
const BBR_FULL_BW_THRESH: f64 = 1.25;
const BBR_FULL_BW_ROUNDS: u32 = 3;
/// Re-probe the minimum RTT when the estimate is older than this.
const BBR_MIN_RTT_EXPIRY: SimDuration = SimDuration::from_secs(10);
/// How long PROBE_RTT holds the window at the floor.
const BBR_PROBE_RTT_DURATION: SimDuration = SimDuration::from_millis(200);
/// The PROBE_RTT window floor: enough to keep delivery samples flowing.
const BBR_MIN_CWND: u64 = 4 * MSS64;

/// The BBRv1 state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BbrMode {
    /// Exponential search for the bottleneck: pacing gain 2/ln2 until
    /// the delivery rate stops growing.
    Startup,
    /// Drain the queue STARTUP built: pacing gain ln2/2 until inflight
    /// fits one BDP.
    Drain,
    /// Steady state: cycle the pacing gain around 1.0 to track the
    /// bottleneck as it moves.
    ProbeBw,
    /// Periodically shrink the window to the floor so the real
    /// propagation delay (not a self-inflicted standing queue) shows
    /// through to the min-RTT filter.
    ProbeRtt,
}

/// BBRv1 (simplified; deviations in DESIGN.md §3): a model-based
/// controller that estimates the bottleneck bandwidth (windowed max of
/// delivery-rate samples over 10 rounds) and the round-trip propagation
/// delay (windowed min RTT), paces at `gain × bw`, and caps inflight at
/// `cwnd_gain × BDP`. Packet loss does not shrink the model — recovery
/// conserves packets (ssthresh stays at `u64::MAX`, so the socket's PRR
/// runs in its conservative branch) and the window snaps back on exit.
#[derive(Debug)]
pub(crate) struct Bbr {
    mode: BbrMode,
    cwnd: u64,
    initial_cwnd: u64,
    pacing_gain: f64,
    cwnd_gain: f64,
    /// Windowed-max bandwidth filter keyed by packet-timed round.
    bw_filter: WindowedMaxBw<u64>,
    /// Packet-timed round trips: a round ends when a sample's
    /// `prior_delivered` reaches the `delivered` mark of the round start.
    round_count: u64,
    next_round_delivered: u64,
    /// Minimum RTT and when it was last refreshed (PROBE_RTT trigger).
    min_rtt: Option<SimDuration>,
    min_rtt_stamp: Timestamp,
    /// When the PROBE_RTT hold completes, once inflight reached the floor.
    probe_rtt_done_at: Option<Timestamp>,
    /// ProbeBW gain-cycle position and when the current phase started.
    cycle_index: usize,
    cycle_stamp: Timestamp,
    /// STARTUP full-pipe detection.
    full_bw: u64,
    full_bw_count: u32,
    filled_pipe: bool,
    /// Window saved at recovery/PROBE_RTT entry, restored on exit
    /// (Linux `bbr_save_cwnd`: a fresh save *assigns* — dropping any
    /// stale value from an earlier path epoch — while a nested save,
    /// recovery and PROBE_RTT interleaving, keeps the larger).
    prior_cwnd: u64,
    /// Whether a loss recovery is in progress (save/restore nesting).
    in_recovery: bool,
    /// (cwnd, prior_cwnd, in_recovery) before the last timeout, for the
    /// F-RTO undo.
    prior_frto: Option<(u64, u64, bool)>,
}

impl Bbr {
    /// Standard initial state.
    pub(crate) fn new() -> Self {
        Self::with_initial_window(INITIAL_WINDOW)
    }

    /// Initial state with an explicit initial window in bytes.
    pub(crate) fn with_initial_window(iw: u64) -> Self {
        let iw = iw.max(BBR_MIN_CWND);
        Bbr {
            mode: BbrMode::Startup,
            cwnd: iw,
            initial_cwnd: iw,
            pacing_gain: BBR_HIGH_GAIN,
            cwnd_gain: BBR_HIGH_GAIN,
            bw_filter: WindowedMaxBw::new(),
            round_count: 0,
            next_round_delivered: 0,
            min_rtt: None,
            min_rtt_stamp: Timestamp::ZERO,
            probe_rtt_done_at: None,
            cycle_index: 2, // a cruise phase; probing starts after one cycle
            cycle_stamp: Timestamp::ZERO,
            full_bw: 0,
            full_bw_count: 0,
            filled_pipe: false,
            prior_cwnd: 0,
            in_recovery: false,
            prior_frto: None,
        }
    }

    /// Windowed-max bottleneck bandwidth estimate, bytes/second.
    pub(crate) fn max_bw(&self) -> Option<u64> {
        self.bw_filter.max()
    }

    /// Bandwidth-delay product scaled by `gain`, when both estimates
    /// exist.
    fn bdp(&self, gain: f64) -> Option<u64> {
        let bw = self.max_bw()?;
        let rtt = self.min_rtt?;
        Some((bw as f64 * rtt.as_secs_f64() * gain) as u64)
    }

    /// The inflight cap the current mode targets.
    fn cwnd_target(&self) -> u64 {
        match self.bdp(self.cwnd_gain) {
            // Quantization headroom: never let the target round below
            // the floor that keeps ACKs flowing.
            Some(t) => t.max(BBR_MIN_CWND),
            None => self.initial_cwnd,
        }
    }

    fn update_bw_filter(&mut self, rs: &RateSample) {
        self.bw_filter
            .update(self.round_count, rs.bw, rs.is_app_limited);
        self.bw_filter
            .expire_before(self.round_count.saturating_sub(BBR_BW_WINDOW_ROUNDS));
    }

    fn check_full_pipe(&mut self, rs: &RateSample) {
        if self.filled_pipe || rs.is_app_limited {
            return;
        }
        let bw = self.max_bw().unwrap_or(0);
        if bw as f64 >= self.full_bw as f64 * BBR_FULL_BW_THRESH {
            self.full_bw = bw;
            self.full_bw_count = 0;
            return;
        }
        self.full_bw_count += 1;
        if self.full_bw_count >= BBR_FULL_BW_ROUNDS {
            self.filled_pipe = true;
        }
    }

    fn enter_probe_bw(&mut self, now: Timestamp) {
        self.mode = BbrMode::ProbeBw;
        self.cwnd_gain = BBR_CWND_GAIN;
        self.cycle_index = 2;
        self.pacing_gain = BBR_CYCLE[self.cycle_index];
        self.cycle_stamp = now;
    }

    fn advance_cycle(&mut self, inflight: u64, now: Timestamp) {
        let phase_len = self.min_rtt.unwrap_or(SimDuration::from_millis(100));
        let elapsed = now.saturating_duration_since(self.cycle_stamp);
        let advance = if self.pacing_gain > 1.0 {
            // Hold the probing phase a full min_rtt (building a queue
            // takes a round trip to show up).
            elapsed > phase_len
        } else if self.pacing_gain < 1.0 {
            // Leave the draining phase as soon as the probe's queue is
            // gone — or after a full round if it never was there.
            elapsed > phase_len || self.bdp(1.0).is_some_and(|bdp| inflight <= bdp)
        } else {
            elapsed > phase_len
        };
        if advance {
            self.cycle_index = (self.cycle_index + 1) % BBR_CYCLE.len();
            self.pacing_gain = BBR_CYCLE[self.cycle_index];
            self.cycle_stamp = now;
        }
    }

    /// Save the window before an episode (recovery or PROBE_RTT)
    /// collapses it. Fresh saves assign so a stale window from an
    /// earlier path epoch can never be resurrected; nested saves keep
    /// the larger so the outermost episode's window survives.
    fn save_cwnd(&mut self) {
        if !self.in_recovery && self.mode != BbrMode::ProbeRtt {
            self.prior_cwnd = self.cwnd;
        } else {
            self.prior_cwnd = self.prior_cwnd.max(self.cwnd);
        }
    }

    fn handle_probe_rtt(&mut self, inflight: u64, now: Timestamp) {
        match self.probe_rtt_done_at {
            None => {
                // Wait for inflight to actually reach the floor before
                // starting the hold — the point is measuring an empty
                // queue.
                if inflight <= BBR_MIN_CWND + MSS64 {
                    self.probe_rtt_done_at = Some(now + BBR_PROBE_RTT_DURATION);
                }
            }
            Some(done) if now >= done => {
                self.min_rtt_stamp = now;
                self.probe_rtt_done_at = None;
                self.cwnd = self.cwnd.max(self.prior_cwnd);
                if self.filled_pipe {
                    self.enter_probe_bw(now);
                } else {
                    self.mode = BbrMode::Startup;
                    self.pacing_gain = BBR_HIGH_GAIN;
                    self.cwnd_gain = BBR_HIGH_GAIN;
                }
            }
            Some(_) => {}
        }
    }
}

impl Default for Bbr {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Bbr {
    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// BBR has no ssthresh: recovery must not multiplicatively collapse
    /// the model-derived window. `u64::MAX` keeps the socket's PRR in
    /// its conservative branch (send ≈ what was delivered — packet
    /// conservation), which is BBRv1's loss response.
    fn ssthresh(&self) -> u64 {
        u64::MAX
    }

    fn on_ack(&mut self, bytes_acked: u64, _now: Timestamp, _srtt: Option<SimDuration>) {
        if self.mode == BbrMode::ProbeRtt {
            // The hold pins the window at the floor.
            self.cwnd = self.cwnd.min(BBR_MIN_CWND);
            return;
        }
        if self.bdp(1.0).is_some() {
            // Grow by what was delivered, capped at the mode's inflight
            // target (`cwnd_gain × BDP`). The cap applies in STARTUP too
            // (as in Linux): the target itself grows with the bandwidth
            // estimate, so growth stays exponential, but inflight never
            // runs a receive-window's worth past the model — without
            // this, startup bloats its own RTT and the (RTT-timed)
            // plateau detection crawls.
            self.cwnd = (self.cwnd + bytes_acked).min(self.cwnd_target());
        } else {
            // No model yet (first round): grow like slow start.
            self.cwnd += bytes_acked;
        }
        self.cwnd = self.cwnd.max(BBR_MIN_CWND);
    }

    fn on_fast_retransmit(&mut self, flight_size: u64, _now: Timestamp) {
        // Packet conservation while recovery runs; the window snaps back
        // on exit (loss does not change the path model). Conservation
        // can only shrink the window, never expand it.
        self.save_cwnd();
        self.in_recovery = true;
        self.cwnd = flight_size.min(self.cwnd).max(BBR_MIN_CWND);
    }

    fn on_timeout(&mut self, _flight_size: u64, _now: Timestamp) {
        self.prior_frto = Some((self.cwnd, self.prior_cwnd, self.in_recovery));
        self.save_cwnd();
        self.in_recovery = true;
        self.cwnd = MSS64.max(BBR_MIN_CWND.min(self.cwnd));
    }

    fn on_spurious_timeout(&mut self) {
        if let Some((cwnd, prior_cwnd, in_recovery)) = self.prior_frto.take() {
            self.cwnd = cwnd;
            self.prior_cwnd = prior_cwnd;
            self.in_recovery = in_recovery;
        }
    }

    fn on_recovery_exit(&mut self) {
        self.in_recovery = false;
        self.cwnd = self.cwnd.max(self.prior_cwnd);
        if self.mode == BbrMode::ProbeRtt {
            // A recovery ending mid-hold must not burst into the queue
            // PROBE_RTT is draining; the saved window comes back at the
            // hold's own exit.
            self.cwnd = self.cwnd.min(BBR_MIN_CWND);
        }
    }

    fn on_rate_sample(&mut self, rs: &RateSample, inflight: u64, now: Timestamp) {
        // Packet-timed round accounting: the sampled segment was sent
        // at or after the previous round's `delivered` mark → one full
        // window has round-tripped.
        let round_start = rs.prior_delivered >= self.next_round_delivered;
        if round_start {
            self.next_round_delivered = rs.delivered;
            self.round_count += 1;
        }
        self.update_bw_filter(rs);
        if round_start {
            self.check_full_pipe(rs);
        }

        // Min-RTT tracking, the Linux `bbr_update_min_rtt` rule. `<=`
        // (not `<`) so a steady path keeps refreshing the stamp and
        // PROBE_RTT only fires when the floor has genuinely not been
        // seen for the whole expiry window. On expiry the current
        // sample *replaces* the minimum even when larger — without
        // that, a path whose propagation delay rose would keep an
        // obsolete low min forever, permanently under-sizing the BDP
        // (and PROBE_RTT, which uses the pre-update expiry verdict
        // below, then re-measures the drained floor from scratch).
        let min_rtt_expired = self.min_rtt.is_some()
            && now.saturating_duration_since(self.min_rtt_stamp) > BBR_MIN_RTT_EXPIRY;
        if !rs.rtt.is_zero() && (self.min_rtt.is_none_or(|m| rs.rtt <= m) || min_rtt_expired) {
            self.min_rtt = Some(rs.rtt);
            self.min_rtt_stamp = now;
        }

        match self.mode {
            BbrMode::Startup => {
                if self.filled_pipe {
                    self.mode = BbrMode::Drain;
                    self.pacing_gain = 1.0 / BBR_HIGH_GAIN;
                    self.cwnd_gain = BBR_HIGH_GAIN;
                }
            }
            BbrMode::Drain => {
                if self.bdp(1.0).is_some_and(|bdp| inflight <= bdp) {
                    self.enter_probe_bw(now);
                }
            }
            BbrMode::ProbeBw => self.advance_cycle(inflight, now),
            BbrMode::ProbeRtt => {}
        }

        if self.mode != BbrMode::ProbeRtt && min_rtt_expired {
            self.save_cwnd();
            self.mode = BbrMode::ProbeRtt;
            self.pacing_gain = 1.0;
            self.cwnd_gain = 1.0;
            self.cwnd = BBR_MIN_CWND;
            self.probe_rtt_done_at = None;
        }
        if self.mode == BbrMode::ProbeRtt {
            self.handle_probe_rtt(inflight, now);
        }
    }

    fn pacing_rate(&self) -> Option<u64> {
        self.max_bw()
            .map(|bw| ((bw as f64 * self.pacing_gain) as u64).max(1))
    }

    fn in_slow_start(&self) -> bool {
        !self.filled_pipe
    }
}

/// A socket's congestion controller. The default, Reno, lives in the
/// socket's own allocation; CUBIC (twice Reno's size) and BBR (four
/// times) are boxed, so a default socket does not carry their room — every
/// inline byte is held until the socket's host lets it go (DESIGN.md §3).
pub(crate) enum Controller {
    Reno(Reno),
    Cubic(Box<Cubic>),
    Bbr(Box<Bbr>),
}

impl Controller {
    /// The controller for `alg` with the given initial window in bytes.
    pub(crate) fn new(alg: CcAlgorithm, initial_window: u64) -> Controller {
        match alg {
            CcAlgorithm::Reno => Controller::Reno(Reno::with_initial_window(initial_window)),
            CcAlgorithm::Cubic => {
                Controller::Cubic(Box::new(Cubic::with_initial_window(initial_window)))
            }
            CcAlgorithm::Bbr => Controller::Bbr(Box::new(Bbr::with_initial_window(initial_window))),
        }
    }
}

impl std::ops::Deref for Controller {
    type Target = dyn CongestionControl;

    fn deref(&self) -> &Self::Target {
        match self {
            Controller::Reno(c) => c,
            Controller::Cubic(c) => &**c,
            Controller::Bbr(c) => &**c,
        }
    }
}

impl std::ops::DerefMut for Controller {
    fn deref_mut(&mut self) -> &mut Self::Target {
        match self {
            Controller::Reno(c) => c,
            Controller::Cubic(c) => &mut **c,
            Controller::Bbr(c) => &mut **c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reno_slow_start_doubles_per_rtt() {
        let mut r = Reno::new();
        let w0 = r.cwnd();
        // Ack a full window: slow start should double it.
        r.on_ack(w0, Timestamp::from_millis(100), None);
        assert_eq!(r.cwnd(), 2 * w0);
        assert!(r.in_slow_start());
    }

    #[test]
    fn reno_congestion_avoidance_linear() {
        let mut r = Reno::new();
        r.on_fast_retransmit(100 * MSS64, Timestamp::from_millis(1));
        r.on_recovery_exit();
        let w = r.cwnd();
        assert!(!r.in_slow_start());
        // One full window of acks → +1 MSS.
        r.on_ack(w, Timestamp::from_millis(200), None);
        assert_eq!(r.cwnd(), w + MSS64);
    }

    #[test]
    fn reno_fast_retransmit_halves() {
        let mut r = Reno::new();
        let flight = 64 * MSS64;
        r.on_fast_retransmit(flight, Timestamp::from_millis(1));
        assert_eq!(r.ssthresh(), flight / 2);
        assert_eq!(r.cwnd(), flight / 2);
    }

    #[test]
    fn reno_timeout_collapses_to_one_mss() {
        let mut r = Reno::new();
        r.on_timeout(64 * MSS64, Timestamp::from_millis(1));
        assert_eq!(r.cwnd(), MSS64);
        assert_eq!(r.ssthresh(), 32 * MSS64);
        assert!(r.in_slow_start());
    }

    #[test]
    fn spurious_timeout_restores_window() {
        let mut r = Reno::new();
        r.on_fast_retransmit(100 * MSS64, Timestamp::from_millis(1));
        r.on_recovery_exit();
        let (cwnd, ssthresh) = (r.cwnd(), r.ssthresh());
        r.on_timeout(cwnd, Timestamp::from_millis(2));
        assert_eq!(r.cwnd(), MSS64);
        r.on_spurious_timeout();
        assert_eq!(r.cwnd(), cwnd);
        assert_eq!(r.ssthresh(), ssthresh);
        // A second undo without a new timeout is a no-op.
        r.on_spurious_timeout();
        assert_eq!(r.cwnd(), cwnd);

        let mut c = Cubic::new();
        c.cwnd = 80 * MSS64;
        c.ssthresh = 40 * MSS64;
        c.on_timeout(80 * MSS64, Timestamp::from_secs(1));
        assert_eq!(c.cwnd(), MSS64);
        c.on_spurious_timeout();
        assert_eq!(c.cwnd(), 80 * MSS64);
        assert_eq!(c.ssthresh(), 40 * MSS64);
    }

    #[test]
    fn reno_min_ssthresh_floor() {
        let mut r = Reno::new();
        r.on_timeout(MSS64, Timestamp::from_millis(1));
        assert_eq!(r.ssthresh(), 2 * MSS64);
    }

    #[test]
    fn cubic_reduces_by_beta() {
        let mut c = Cubic::new();
        let w0 = c.cwnd();
        c.on_fast_retransmit(w0, Timestamp::from_millis(1));
        assert_eq!(c.cwnd(), (w0 as f64 * CUBIC_BETA) as u64);
    }

    #[test]
    fn cubic_grows_toward_wmax_after_loss() {
        let mut c = Cubic::new();
        // Build a large window, lose, then grow: should stay below ~Wmax
        // early and approach it over time.
        c.cwnd = 100 * MSS64;
        c.ssthresh = 50 * MSS64;
        c.on_fast_retransmit(100 * MSS64, Timestamp::from_secs(1));
        c.on_recovery_exit();
        let after_loss = c.cwnd();
        let mut now = Timestamp::from_secs(1);
        // Stay within the concave region (t < K ≈ 4.2 s for Wmax = 100 MSS):
        // the window should climb back toward Wmax but not overshoot it.
        for _ in 0..30 {
            now += SimDuration::from_millis(100);
            c.on_ack(10 * MSS64, now, Some(SimDuration::from_millis(100)));
        }
        assert!(c.cwnd() > after_loss, "cubic window should recover");
        assert!(
            c.cwnd() as f64 <= 100.0 * MSS as f64 * 1.05,
            "cubic should plateau near Wmax in the concave region: {}",
            c.cwnd()
        );
    }

    #[test]
    fn cubic_timeout_resets_window() {
        let mut c = Cubic::new();
        c.cwnd = 50 * MSS64;
        c.on_timeout(50 * MSS64, Timestamp::from_secs(2));
        assert_eq!(c.cwnd(), MSS64);
        assert!(c.in_slow_start());
    }

    #[test]
    fn factory_produces_all() {
        let r = Controller::new(CcAlgorithm::Reno, INITIAL_WINDOW);
        let c = Controller::new(CcAlgorithm::Cubic, INITIAL_WINDOW);
        let b = Controller::new(CcAlgorithm::Bbr, INITIAL_WINDOW);
        assert_eq!(r.cwnd(), INITIAL_WINDOW);
        assert_eq!(c.cwnd(), INITIAL_WINDOW);
        assert_eq!(b.cwnd(), INITIAL_WINDOW);
    }

    /// A synthetic rate sample: `bw` bytes/s, `rtt` ms, with the round
    /// bookkeeping driven by (prior_delivered, delivered).
    fn rs(bw: u64, rtt_ms: u64, prior_delivered: u64, delivered: u64) -> RateSample {
        RateSample {
            bw,
            delivered,
            prior_delivered,
            rtt: SimDuration::from_millis(rtt_ms),
            is_app_limited: false,
        }
    }

    /// Feed `n` rounds of samples at a fixed bw/rtt, advancing the
    /// delivered counter a window per round so every sample starts a
    /// round.
    fn feed_rounds(
        b: &mut Bbr,
        n: u64,
        bw: u64,
        rtt_ms: u64,
        now_ms: &mut u64,
        delivered: &mut u64,
    ) {
        for _ in 0..n {
            let prior = *delivered;
            *delivered += bw * rtt_ms / 1000;
            *now_ms += rtt_ms;
            b.on_rate_sample(
                &rs(bw, rtt_ms, prior, *delivered),
                bw * rtt_ms / 1000,
                Timestamp::from_millis(*now_ms),
            );
        }
    }

    #[test]
    fn bbr_startup_exits_on_bw_plateau_then_drains_to_probe_bw() {
        let mut b = Bbr::new();
        assert!(b.in_slow_start());
        let (mut now_ms, mut delivered) = (0u64, 0u64);
        // Growing bandwidth: stays in startup.
        feed_rounds(&mut b, 1, 100_000, 100, &mut now_ms, &mut delivered);
        feed_rounds(&mut b, 1, 200_000, 100, &mut now_ms, &mut delivered);
        feed_rounds(&mut b, 1, 400_000, 100, &mut now_ms, &mut delivered);
        assert_eq!(b.mode, BbrMode::Startup);
        // Plateau at 400 kB/s: three rounds without 25% growth → drain.
        feed_rounds(&mut b, 3, 400_000, 100, &mut now_ms, &mut delivered);
        assert!(b.filled_pipe, "plateau must fill the pipe");
        assert_eq!(b.mode, BbrMode::Drain);
        assert!(b.pacing_gain < 1.0, "drain pacing gain {}", b.pacing_gain);
        assert!(!b.in_slow_start());
        // One more sample with inflight ≤ BDP (40 kB) finishes draining.
        let prior = delivered;
        delivered += 1000;
        now_ms += 100;
        b.on_rate_sample(
            &rs(400_000, 100, prior, delivered),
            10_000,
            Timestamp::from_millis(now_ms),
        );
        assert_eq!(b.mode, BbrMode::ProbeBw);
        assert_eq!(b.pacing_gain, 1.0, "probe-bw starts in a cruise phase");
        // Pacing rate follows the bandwidth model.
        assert_eq!(b.pacing_rate(), Some(400_000));
        // cwnd target = 2 × BDP = 80 kB.
        assert_eq!(b.cwnd_target(), 80_000);
    }

    #[test]
    fn bbr_probe_bw_cycles_gains() {
        let mut b = Bbr::new();
        let (mut now_ms, mut delivered) = (0u64, 0u64);
        feed_rounds(&mut b, 2, 400_000, 100, &mut now_ms, &mut delivered);
        feed_rounds(&mut b, 4, 400_000, 100, &mut now_ms, &mut delivered);
        assert_eq!(b.mode, BbrMode::ProbeBw);
        // Walk at least one full gain cycle; every configured gain must
        // appear.
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..20 {
            feed_rounds(&mut b, 1, 400_000, 100, &mut now_ms, &mut delivered);
            seen.insert((b.pacing_gain * 100.0) as u64);
        }
        assert!(seen.contains(&125), "probing gain seen: {seen:?}");
        assert!(seen.contains(&75), "draining gain seen: {seen:?}");
        assert!(seen.contains(&100), "cruise gain seen: {seen:?}");
    }

    #[test]
    fn bbr_probe_rtt_after_min_rtt_expiry_and_recovery() {
        let mut b = Bbr::new();
        let (mut now_ms, mut delivered) = (0u64, 0u64);
        feed_rounds(&mut b, 6, 400_000, 100, &mut now_ms, &mut delivered);
        assert_eq!(b.mode, BbrMode::ProbeBw);
        let cwnd_before = b.cwnd();
        // RTTs above the recorded minimum for > 10 s: the stamp goes
        // stale and PROBE_RTT engages, pinning the window at the floor.
        feed_rounds(&mut b, 101, 400_000, 105, &mut now_ms, &mut delivered);
        assert_eq!(b.mode, BbrMode::ProbeRtt);
        assert_eq!(b.cwnd(), BBR_MIN_CWND);
        b.on_ack(100_000, Timestamp::from_millis(now_ms), None);
        assert_eq!(b.cwnd(), BBR_MIN_CWND, "acks must not regrow the hold");
        // Inflight reaches the floor → 200 ms hold → restore and resume.
        let prior = delivered;
        delivered += 1000;
        now_ms += 100;
        b.on_rate_sample(
            &rs(400_000, 100, prior, delivered),
            BBR_MIN_CWND,
            Timestamp::from_millis(now_ms),
        );
        assert!(b.probe_rtt_done_at.is_some());
        let prior = delivered;
        delivered += 1000;
        now_ms += 250;
        b.on_rate_sample(
            &rs(400_000, 100, prior, delivered),
            BBR_MIN_CWND,
            Timestamp::from_millis(now_ms),
        );
        assert_eq!(b.mode, BbrMode::ProbeBw);
        assert!(b.cwnd() >= cwnd_before.min(b.cwnd_target()));
    }

    #[test]
    fn bbr_loss_conserves_and_restores() {
        let mut b = Bbr::new();
        let (mut now_ms, mut delivered) = (0u64, 0u64);
        feed_rounds(&mut b, 6, 400_000, 100, &mut now_ms, &mut delivered);
        // Grow the window to the model target (2 × BDP = 80 kB).
        b.on_ack(200_000, Timestamp::from_millis(now_ms), None);
        let cwnd = b.cwnd();
        assert_eq!(cwnd, 80_000);
        b.on_fast_retransmit(30_000, Timestamp::from_millis(now_ms));
        assert_eq!(b.cwnd(), 30_000, "packet conservation during recovery");
        assert_eq!(b.ssthresh(), u64::MAX, "no multiplicative collapse");
        b.on_recovery_exit();
        assert_eq!(b.cwnd(), cwnd, "window restored after recovery");
        // Timeout collapses, F-RTO undo restores.
        b.on_timeout(30_000, Timestamp::from_millis(now_ms));
        assert!(b.cwnd() <= BBR_MIN_CWND);
        b.on_spurious_timeout();
        assert_eq!(b.cwnd(), cwnd);
    }

    #[test]
    fn bbr_recovery_interleaved_with_probe_rtt_keeps_the_saved_window() {
        // Recovery starts, PROBE_RTT engages mid-recovery, recovery
        // exits mid-hold: the exit must not burst past the hold's
        // 4-segment floor, and the hold's own exit must still restore
        // the window saved before either episode began.
        let mut b = Bbr::new();
        let (mut now_ms, mut delivered) = (0u64, 0u64);
        feed_rounds(&mut b, 6, 400_000, 100, &mut now_ms, &mut delivered);
        b.on_ack(200_000, Timestamp::from_millis(now_ms), None);
        let cwnd = b.cwnd();
        assert_eq!(cwnd, 80_000);
        b.on_fast_retransmit(30_000, Timestamp::from_millis(now_ms));
        // Min-RTT goes stale during recovery → PROBE_RTT engages.
        feed_rounds(&mut b, 101, 400_000, 105, &mut now_ms, &mut delivered);
        assert_eq!(b.mode, BbrMode::ProbeRtt);
        // Recovery completes mid-hold: the window stays at the floor.
        b.on_recovery_exit();
        assert_eq!(b.cwnd(), BBR_MIN_CWND, "no burst into the hold");
        // Hold runs to completion; the pre-episode window comes back.
        let prior = delivered;
        delivered += 1000;
        now_ms += 100;
        b.on_rate_sample(
            &rs(400_000, 100, prior, delivered),
            BBR_MIN_CWND,
            Timestamp::from_millis(now_ms),
        );
        let prior = delivered;
        delivered += 1000;
        now_ms += 250;
        b.on_rate_sample(
            &rs(400_000, 100, prior, delivered),
            BBR_MIN_CWND,
            Timestamp::from_millis(now_ms),
        );
        assert_ne!(b.mode, BbrMode::ProbeRtt);
        assert_eq!(b.cwnd(), cwnd, "saved window restored at hold exit");
    }

    #[test]
    fn bbr_min_rtt_tracks_a_rising_path_after_expiry() {
        // Propagation delay rises mid-connection: once the 10 s filter
        // expires the higher sample must *replace* the obsolete minimum
        // (the Linux rule) — otherwise BDP stays under-sized forever.
        let mut b = Bbr::new();
        let (mut now_ms, mut delivered) = (0u64, 0u64);
        feed_rounds(&mut b, 3, 400_000, 50, &mut now_ms, &mut delivered);
        assert_eq!(b.min_rtt, Some(SimDuration::from_millis(50)));
        // The path now takes 150 ms; before expiry the min holds...
        feed_rounds(&mut b, 10, 400_000, 150, &mut now_ms, &mut delivered);
        assert_eq!(b.min_rtt, Some(SimDuration::from_millis(50)));
        // ...and once the 10 s window passes, the estimate follows the
        // path up.
        feed_rounds(&mut b, 60, 400_000, 150, &mut now_ms, &mut delivered);
        assert_eq!(b.min_rtt, Some(SimDuration::from_millis(150)));
    }

    #[test]
    fn bbr_app_limited_samples_never_lower_bw() {
        let mut b = Bbr::new();
        let (mut now_ms, mut delivered) = (0u64, 0u64);
        feed_rounds(&mut b, 2, 400_000, 100, &mut now_ms, &mut delivered);
        assert_eq!(b.max_bw(), Some(400_000));
        let prior = delivered;
        delivered += 100;
        now_ms += 100;
        let mut s = rs(1_000, 100, prior, delivered);
        s.is_app_limited = true;
        b.on_rate_sample(&s, 100, Timestamp::from_millis(now_ms));
        assert_eq!(b.max_bw(), Some(400_000), "app-limited trickle ignored");
    }
}
