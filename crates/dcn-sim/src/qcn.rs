//! QCN-style congestion notification (Sec. III-A/B; refs \[21\]–\[23\], \[28\]).
//!
//! Switches detect congestion from queue state and send quantized feedback
//! to the sending end host, which adjusts its rate (the paper: "modify the
//! rate at end host to reach the goal of easing the congestion"). We model
//! the standard QCN pair: a *congestion point* (CP) sampling its queue and
//! a *reaction point* (RP) running multiplicative decrease plus
//! fast-recovery/active-increase.

/// Equilibrium queue length `Q_eq` of a congestion point (packets).
const Q_EQ: f64 = 33.0;
/// Derivative weight `w` in `F_b = −(Q_off + w·Q_delta)`.
const W: f64 = 2.0;
/// Feedback quantisation: |F_b| is clamped to this maximum.
const FB_MAX: f64 = 64.0;

/// Multiplicative-decrease gain `G_d` of a reaction point (QCN: 1/128
/// per feedback unit).
const GD: f64 = 1.0 / 128.0;
/// Rate increase per active-increase cycle (fraction of target rate).
const R_AI: f64 = 0.05;
/// Cycles of fast recovery before active increase.
const FR_CYCLES: u32 = 5;
/// Minimum rate floor of a reaction point.
const MIN_RATE: f64 = 0.01;

/// A switch queue acting as QCN congestion point; `default()` is an
/// empty queue.
#[derive(Debug, Clone, Default)]
pub struct CongestionPoint {
    queue: f64,
    prev_queue: f64,
}

/// Quantized congestion feedback carried back to the sender (negative
/// means "slow down").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QcnFeedback {
    /// The (negative) feedback value `F_b`.
    pub fb: f64,
}

impl CongestionPoint {
    /// Current queue length.
    pub fn queue_len(&self) -> f64 {
        self.queue
    }

    /// Advance one sampling interval: `arrived` packets came in, `serviced`
    /// packets left. Returns feedback when the congestion measure is
    /// negative (queue above equilibrium or growing).
    pub fn sample(&mut self, arrived: f64, serviced: f64) -> Option<QcnFeedback> {
        self.prev_queue = self.queue;
        self.queue = (self.queue + arrived - serviced).max(0.0);
        let q_off = self.queue - Q_EQ;
        let q_delta = self.queue - self.prev_queue;
        let fb = -(q_off + W * q_delta);
        if fb < 0.0 {
            Some(QcnFeedback {
                fb: fb.max(-FB_MAX),
            })
        } else {
            None
        }
    }

    /// Congestion severity in [0, 1] for alert generation: queue occupancy
    /// relative to 2·Q_eq, clamped.
    pub fn severity(&self) -> f64 {
        (self.queue / (2.0 * Q_EQ)).clamp(0.0, 1.0)
    }
}

/// An end-host rate limiter acting as QCN reaction point.
#[derive(Debug, Clone)]
pub struct ReactionPoint {
    /// Current sending rate.
    rate: f64,
    /// Target rate remembered from before the last decrease.
    target: f64,
    cycles_since_decrease: u32,
}

impl ReactionPoint {
    /// New RP sending at `rate`.
    pub fn new(rate: f64) -> Self {
        Self {
            rate,
            target: rate,
            cycles_since_decrease: 0,
        }
    }

    /// Current sending rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Apply a congestion feedback: multiplicative decrease proportional to
    /// |F_b| (QCN's `R ← R·(1 − G_d·|F_b|)`), remembering the old rate as
    /// the recovery target.
    pub fn on_feedback(&mut self, fb: QcnFeedback) {
        debug_assert!(fb.fb <= 0.0);
        self.target = self.rate;
        let dec = (GD * fb.fb.abs()).min(0.5);
        self.rate = (self.rate * (1.0 - dec)).max(MIN_RATE);
        self.cycles_since_decrease = 0;
    }

    /// One recovery cycle with no congestion feedback: fast recovery moves
    /// the rate halfway back to target; after `FR_CYCLES`, active increase
    /// probes above the target.
    pub fn on_quiet_cycle(&mut self) {
        self.cycles_since_decrease += 1;
        if self.cycles_since_decrease <= FR_CYCLES {
            self.rate = (self.rate + self.target) / 2.0;
        } else {
            self.target += R_AI * self.target;
            self.rate = (self.rate + self.target) / 2.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_queue_gives_no_feedback() {
        let mut cp = CongestionPoint::default();
        assert!(cp.sample(10.0, 10.0).is_none());
        assert_eq!(cp.queue_len(), 0.0);
    }

    #[test]
    fn overloaded_queue_raises_negative_feedback() {
        let mut cp = CongestionPoint::default();
        let mut fb = None;
        for _ in 0..20 {
            fb = cp.sample(20.0, 10.0); // net +10 per cycle
        }
        let fb = fb.expect("queue above Q_eq must signal");
        assert!(fb.fb < 0.0);
        assert!(fb.fb >= -FB_MAX);
        assert!(cp.severity() > 0.5);
    }

    #[test]
    fn growing_queue_signals_before_reaching_q_eq() {
        // derivative term fires on rapid growth even below equilibrium
        let mut cp = CongestionPoint::default();
        let fb = cp.sample(30.0, 0.0); // queue 0 -> 30 in one cycle
        assert!(fb.is_some(), "w-weighted growth must trigger feedback");
    }

    #[test]
    fn feedback_is_clamped() {
        let mut cp = CongestionPoint::default();
        let fb = cp.sample(10_000.0, 0.0).unwrap();
        assert_eq!(fb.fb, -FB_MAX);
    }

    #[test]
    fn rp_decreases_then_recovers() {
        let mut rp = ReactionPoint::new(10.0);
        rp.on_feedback(QcnFeedback { fb: -64.0 });
        let dropped = rp.rate();
        assert!(dropped < 10.0);
        for _ in 0..6 {
            rp.on_quiet_cycle();
        }
        assert!(rp.rate() > dropped);
        assert!(rp.rate() <= 10.5 * 1.5, "recovery should be gradual");
    }

    #[test]
    fn rp_never_drops_below_floor() {
        let mut rp = ReactionPoint::new(1.0);
        for _ in 0..200 {
            rp.on_feedback(QcnFeedback { fb: -64.0 });
        }
        assert!(rp.rate() >= MIN_RATE);
    }

    #[test]
    fn active_increase_probes_above_target() {
        let mut rp = ReactionPoint::new(10.0);
        rp.on_feedback(QcnFeedback { fb: -10.0 });
        for _ in 0..50 {
            rp.on_quiet_cycle();
        }
        assert!(rp.rate() > 10.0, "active increase must exceed old target");
    }
}
