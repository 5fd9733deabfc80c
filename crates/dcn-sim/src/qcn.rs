//! QCN-style congestion notification (Sec. III-A/B; refs \[21\]–\[23\], \[28\]).
//!
//! Switches detect congestion from queue state and send quantized feedback
//! to the sending end host, which adjusts its rate (the paper: "modify the
//! rate at end host to reach the goal of easing the congestion"). We model
//! the standard QCN pair: a *congestion point* (CP) sampling its queue and
//! a *reaction point* (RP) running multiplicative decrease plus
//! fast-recovery/active-increase.

/// Congestion-point parameters.
#[derive(Debug, Clone)]
pub struct CpConfig {
    /// Equilibrium queue length `Q_eq` (packets).
    pub q_eq: f64,
    /// Derivative weight `w` in `F_b = −(Q_off + w·Q_delta)`.
    pub w: f64,
    /// Feedback quantisation: |F_b| is clamped to this maximum.
    pub fb_max: f64,
}

impl Default for CpConfig {
    fn default() -> Self {
        Self {
            q_eq: 33.0,
            w: 2.0,
            fb_max: 64.0,
        }
    }
}

/// A switch queue acting as QCN congestion point.
#[derive(Debug, Clone)]
pub struct CongestionPoint {
    cfg: CpConfig,
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
    /// New CP with an empty queue.
    pub fn new(cfg: CpConfig) -> Self {
        Self {
            cfg,
            queue: 0.0,
            prev_queue: 0.0,
        }
    }

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
        let q_off = self.queue - self.cfg.q_eq;
        let q_delta = self.queue - self.prev_queue;
        let fb = -(q_off + self.cfg.w * q_delta);
        if fb < 0.0 {
            Some(QcnFeedback {
                fb: fb.max(-self.cfg.fb_max),
            })
        } else {
            None
        }
    }

    /// Congestion severity in [0, 1] for alert generation: queue occupancy
    /// relative to 2·Q_eq, clamped.
    pub fn severity(&self) -> f64 {
        (self.queue / (2.0 * self.cfg.q_eq)).clamp(0.0, 1.0)
    }
}

/// Reaction-point parameters.
#[derive(Debug, Clone)]
pub struct RpConfig {
    /// Multiplicative-decrease gain `G_d` (QCN: 1/128 per feedback unit).
    pub gd: f64,
    /// Rate increase per fast-recovery cycle (fraction of target rate).
    pub r_ai: f64,
    /// Cycles of fast recovery before active increase.
    pub fr_cycles: u32,
    /// Minimum rate floor.
    pub min_rate: f64,
}

impl Default for RpConfig {
    fn default() -> Self {
        Self {
            gd: 1.0 / 128.0,
            r_ai: 0.05,
            fr_cycles: 5,
            min_rate: 0.01,
        }
    }
}

/// An end-host rate limiter acting as QCN reaction point.
#[derive(Debug, Clone)]
pub struct ReactionPoint {
    cfg: RpConfig,
    /// Current sending rate.
    rate: f64,
    /// Target rate remembered from before the last decrease.
    target: f64,
    cycles_since_decrease: u32,
}

impl ReactionPoint {
    /// New RP sending at `rate`.
    pub fn new(rate: f64, cfg: RpConfig) -> Self {
        Self {
            cfg,
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
        let dec = (self.cfg.gd * fb.fb.abs()).min(0.5);
        self.rate = (self.rate * (1.0 - dec)).max(self.cfg.min_rate);
        self.cycles_since_decrease = 0;
    }

    /// One recovery cycle with no congestion feedback: fast recovery moves
    /// the rate halfway back to target; after `fr_cycles`, active increase
    /// probes above the target.
    pub fn on_quiet_cycle(&mut self) {
        self.cycles_since_decrease += 1;
        if self.cycles_since_decrease <= self.cfg.fr_cycles {
            self.rate = (self.rate + self.target) / 2.0;
        } else {
            self.target += self.cfg.r_ai * self.target;
            self.rate = (self.rate + self.target) / 2.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_queue_gives_no_feedback() {
        let mut cp = CongestionPoint::new(CpConfig::default());
        assert!(cp.sample(10.0, 10.0).is_none());
        assert_eq!(cp.queue_len(), 0.0);
    }

    #[test]
    fn overloaded_queue_raises_negative_feedback() {
        let mut cp = CongestionPoint::new(CpConfig::default());
        let mut fb = None;
        for _ in 0..20 {
            fb = cp.sample(20.0, 10.0); // net +10 per cycle
        }
        let fb = fb.expect("queue above Q_eq must signal");
        assert!(fb.fb < 0.0);
        assert!(fb.fb >= -CpConfig::default().fb_max);
        assert!(cp.severity() > 0.5);
    }

    #[test]
    fn growing_queue_signals_before_reaching_q_eq() {
        // derivative term fires on rapid growth even below equilibrium
        let mut cp = CongestionPoint::new(CpConfig::default());
        let fb = cp.sample(30.0, 0.0); // queue 0 -> 30 in one cycle
        assert!(fb.is_some(), "w-weighted growth must trigger feedback");
    }

    #[test]
    fn feedback_is_clamped() {
        let mut cp = CongestionPoint::new(CpConfig::default());
        let fb = cp.sample(10_000.0, 0.0).unwrap();
        assert_eq!(fb.fb, -CpConfig::default().fb_max);
    }

    #[test]
    fn rp_decreases_then_recovers() {
        let mut rp = ReactionPoint::new(10.0, RpConfig::default());
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
        let mut rp = ReactionPoint::new(1.0, RpConfig::default());
        for _ in 0..200 {
            rp.on_feedback(QcnFeedback { fb: -64.0 });
        }
        assert!(rp.rate() >= RpConfig::default().min_rate);
    }

    #[test]
    fn active_increase_probes_above_target() {
        let mut rp = ReactionPoint::new(10.0, RpConfig::default());
        rp.on_feedback(QcnFeedback { fb: -10.0 });
        for _ in 0..50 {
            rp.on_quiet_cycle();
        }
        assert!(rp.rate() > 10.0, "active increase must exceed old target");
    }
}
