//! RFC 6298 retransmission-timeout estimation.

use mm_sim::SimDuration;

/// Smoothed RTT estimator producing RTO values per RFC 6298, with the
/// Linux-style 200 ms floor mahimahi-era kernels used.
#[derive(Debug, Clone)]
pub(crate) struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    min_rto: SimDuration,
    max_rto: SimDuration,
}

impl RttEstimator {
    /// Estimator with the given initial RTO (RFC 6298 says 1 s) and floor.
    pub(crate) fn new(initial_rto: SimDuration, min_rto: SimDuration) -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: initial_rto,
            min_rto,
            max_rto: SimDuration::from_secs(60),
        }
    }

    /// Feed one RTT measurement (must be from a non-retransmitted segment —
    /// Karn's algorithm is the caller's responsibility).
    pub(crate) fn on_measurement(&mut self, rtt: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = SimDuration::from_nanos(rtt.as_nanos() / 2);
            }
            Some(srtt) => {
                // RTTVAR <- 3/4 RTTVAR + 1/4 |SRTT - R'|
                let err = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar =
                    SimDuration::from_nanos((3 * self.rttvar.as_nanos() + err.as_nanos()) / 4);
                // SRTT <- 7/8 SRTT + 1/8 R'
                self.srtt = Some(SimDuration::from_nanos(
                    (7 * srtt.as_nanos() + rtt.as_nanos()) / 8,
                ));
            }
        }
        let srtt = self.srtt.unwrap();
        // Linux applies its 200 ms rto_min as a floor on the *variance
        // term*, not the total (`tcp_rto_min` bounds `rttvar` in
        // tcp_set_rto): RTO = SRTT + max(4·RTTVAR, rto_min). Flooring the
        // total instead lets RTO converge down to SRTT itself on a
        // steady path, where the slightest queueing delay then fires a
        // spurious timeout and a go-back-N storm with no actual loss.
        let var_term = self.rttvar.saturating_mul(4).max(self.min_rto);
        self.rto = (srtt + var_term).min(self.max_rto);
    }

    /// Exponential backoff after a retransmission timeout.
    pub(crate) fn backoff(&mut self) {
        self.rto = self.rto.saturating_mul(2).min(self.max_rto);
    }

    /// Drop accumulated exponential backoff by recomputing the RTO from
    /// the current estimates. Linux resets `icsk_backoff` on bare
    /// forward progress, but Linux also detects spurious timeouts
    /// (F-RTO); without that counterpart an eagerly-reset RTO fires
    /// during cellular outages and floods the recovering link with
    /// presumed-lost data (the measured regression DESIGN.md §3
    /// records). The socket therefore reaches this exclusively through
    /// the `RackTlp` tier's F-RTO machinery, on a validated
    /// spurious-timeout verdict — never on bare forward progress. No-op
    /// until a first measurement exists.
    pub(crate) fn reset_backoff(&mut self) {
        if let Some(srtt) = self.srtt {
            let var_term = self.rttvar.saturating_mul(4).max(self.min_rto);
            self.rto = (srtt + var_term).min(self.max_rto);
        }
    }

    /// Current retransmission timeout.
    pub(crate) fn rto(&self) -> SimDuration {
        self.rto
    }

    /// Smoothed RTT, if any measurement has been taken.
    pub(crate) fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Initial RTO 1 s, floor 200 ms.
    fn estimator() -> RttEstimator {
        RttEstimator::new(SimDuration::from_secs(1), SimDuration::from_millis(200))
    }

    #[test]
    fn first_measurement_initializes() {
        let mut e = estimator();
        e.on_measurement(SimDuration::from_millis(100));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(100)));
        // RTO = SRTT + 4*RTTVAR = 100 + 4*50 = 300ms
        assert_eq!(e.rto(), SimDuration::from_millis(300));
    }

    #[test]
    fn steady_rtt_converges_to_srtt_plus_floor() {
        let mut e = estimator();
        for _ in 0..100 {
            e.on_measurement(SimDuration::from_millis(40));
        }
        // RTTVAR decays toward 0, but the floored variance term keeps
        // RTO a full rto_min above SRTT (Linux semantics) so steady
        // paths never sit one queueing blip away from a spurious RTO.
        assert_eq!(e.rto(), SimDuration::from_millis(240));
        let srtt = e.srtt().unwrap();
        assert!((srtt.as_millis_f64() - 40.0).abs() < 1.0);
    }

    #[test]
    fn variance_raises_rto() {
        let mut e = estimator();
        for i in 0..50 {
            let rtt = if i % 2 == 0 { 50 } else { 250 };
            e.on_measurement(SimDuration::from_millis(rtt));
        }
        assert!(e.rto() > SimDuration::from_millis(300), "rto {}", e.rto());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = estimator();
        assert_eq!(e.rto(), SimDuration::from_secs(1));
        e.backoff();
        assert_eq!(e.rto(), SimDuration::from_secs(2));
        for _ in 0..10 {
            e.backoff();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(60));
    }

    #[test]
    fn rto_never_below_floor() {
        let mut e = estimator();
        e.on_measurement(SimDuration::from_micros(500));
        assert!(e.rto() >= SimDuration::from_millis(200));
        assert!(e.rto() <= SimDuration::from_millis(201));
    }
}
