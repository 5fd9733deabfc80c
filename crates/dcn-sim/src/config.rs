//! Simulation parameters, defaulting to the paper's settings (Sec. VI-B).

use crate::error::{check_probability, SheriffError};

/// Global simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// `C_r`: fixed cost of initialization + reservation + commitment +
    /// activation of a live migration (paper: 100).
    pub c_r: f64,
    /// `δ`: weight of the transmission-time term (paper: 1).
    pub delta: f64,
    /// `η`: weight of the bandwidth-utility term (paper: 1).
    pub eta: f64,
    /// `C_d`: unit dependency cost per distance in `G_d` (paper: 1).
    pub c_d: f64,
    /// `B_t`: minimum available bandwidth for a link to carry a migration.
    pub bandwidth_threshold: f64,
    /// `THRESHOLD` on the normalised workload profile that triggers an
    /// ALERT (Sec. III-A uses 90 % utilisation as the canonical example).
    pub alert_threshold: f64,
    /// `α`: portion of switch capacity released per round when handling an
    /// outer-switch alert (Alg. 2).
    pub alpha: f64,
    /// `β`: portion of ToR capacity released per round when handling an
    /// uplink-congestion alert (Alg. 1 line 10 / Alg. 2).
    pub beta: f64,
    /// Weight of the load-aware tie-break added to Eqn. 1 when ranking
    /// destination hosts: `weight × post-move utilisation`. Among
    /// equal-cost destinations (e.g. every host of the same rack costs
    /// exactly `C_r`), this steers the matching toward the least-loaded
    /// host — the balancing objective behind constraint (10) and the
    /// declining curves of Fig. 9/10. Set to 0 for the literal Eqn. 1.
    pub load_balance_weight: f64,
    /// Scope of a shim's dominating region in graph hops when picking
    /// migration destinations (paper: one-hop wired neighbours; two graph
    /// hops = rack → switch → rack).
    pub region_hops: usize,
}

/// The most extra ticks the reorder fault holds a message back: a
/// reordered message is delayed by a uniform draw from
/// `1..=REORDER_HOLD_BACK` on top of its base delay.
pub const REORDER_HOLD_BACK: u64 = 3;

/// Fault model for the control channel carrying REQUEST/ACK/REJECT and
/// heartbeat traffic between shims (the crash scenarios Sec. III-A
/// delegates to a "backup system"). All probabilities are per message and
/// applied independently; delivery delay is drawn uniformly from
/// `[delay_min, delay_max]` virtual ticks.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelFaults {
    /// Probability a message is silently lost.
    pub drop: f64,
    /// Probability a message is delivered twice.
    pub duplicate: f64,
    /// Probability a message is held back extra ticks, overtaking later
    /// traffic from the same sender.
    pub reorder: f64,
    /// Minimum delivery delay in ticks (clamped to ≥ 1).
    pub delay_min: u64,
    /// Maximum delivery delay in ticks.
    pub delay_max: u64,
}

impl Default for ChannelFaults {
    fn default() -> Self {
        Self::reliable()
    }
}

impl ChannelFaults {
    /// A perfect channel: nothing dropped, duplicated, or reordered, and
    /// every message takes exactly one tick.
    pub fn reliable() -> Self {
        Self {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            delay_min: 1,
            delay_max: 1,
        }
    }

    /// A uniformly lossy channel: each fault fires with probability `p`
    /// and delays spread over 1–3 ticks.
    pub fn lossy(p: f64) -> Self {
        Self {
            drop: p,
            duplicate: p / 2.0,
            reorder: p,
            delay_min: 1,
            delay_max: 3,
        }
    }

    /// Whether every fault probability is zero and delay is deterministic
    /// (the channel cannot perturb message order or delivery).
    pub fn is_reliable(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.delay_min == self.delay_max
    }

    /// The longest a delivered message can take: the base delay window's
    /// maximum, plus the reorder hold-back when the reorder fault is on.
    pub fn max_delay(&self) -> u64 {
        let hold_back = if self.reorder > 0.0 {
            REORDER_HOLD_BACK
        } else {
            0
        };
        self.delay_max + hold_back
    }

    /// Check every probability is in `[0, 1]` and the delay window is
    /// non-empty — the invariants `SimNet` construction relies on.
    pub fn validate(&self) -> Result<(), SheriffError> {
        check_probability("channel.drop", self.drop)?;
        check_probability("channel.duplicate", self.duplicate)?;
        check_probability("channel.reorder", self.reorder)?;
        if self.delay_max < self.delay_min {
            return Err(SheriffError::InvalidDelayWindow {
                min: self.delay_min,
                max: self.delay_max,
            });
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            c_r: 100.0,
            delta: 1.0,
            eta: 1.0,
            c_d: 1.0,
            bandwidth_threshold: 0.05,
            alert_threshold: 0.9,
            alpha: 0.2,
            beta: 0.2,
            load_balance_weight: 200.0,
            region_hops: 2,
        }
    }
}

impl SimConfig {
    /// The exact settings of the paper's Sec. VI-B simulation.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Check the configuration is internally consistent: cost weights
    /// finite and non-negative, thresholds and release fractions within
    /// `[0, 1]`.
    pub fn validate(&self) -> Result<(), SheriffError> {
        let nonneg: [(&'static str, f64); 6] = [
            ("c_r", self.c_r),
            ("delta", self.delta),
            ("eta", self.eta),
            ("c_d", self.c_d),
            ("bandwidth_threshold", self.bandwidth_threshold),
            ("load_balance_weight", self.load_balance_weight),
        ];
        for (field, v) in nonneg {
            if !v.is_finite() || v < 0.0 {
                return Err(SheriffError::InvalidSimConfig {
                    field,
                    reason: format!("must be finite and >= 0, got {v}"),
                });
            }
        }
        check_probability("alert_threshold", self.alert_threshold)?;
        check_probability("alpha", self.alpha)?;
        check_probability("beta", self.beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_settings_match_section_vi_b() {
        let c = SimConfig::paper();
        assert_eq!(c.c_r, 100.0);
        assert_eq!(c.delta, 1.0);
        assert_eq!(c.eta, 1.0);
        assert_eq!(c.c_d, 1.0);
        // the paper's largest VM (20) bounds the sampled VM sizes
        assert_eq!(crate::ClusterConfig::default().vm_capacity_range.1, 20.0);
    }

    #[test]
    fn default_channel_is_reliable() {
        assert!(ChannelFaults::default().is_reliable());
        assert!(!ChannelFaults::lossy(0.1).is_reliable());
        assert!(
            !ChannelFaults {
                delay_min: 1,
                delay_max: 3,
                ..ChannelFaults::reliable()
            }
            .is_reliable(),
            "random delay can reorder across senders"
        );
    }

    #[test]
    fn max_delay_adds_the_reorder_hold_back() {
        assert_eq!(ChannelFaults::reliable().max_delay(), 1);
        assert_eq!(ChannelFaults::lossy(0.1).max_delay(), 3 + REORDER_HOLD_BACK);
        let reorder_only = ChannelFaults {
            reorder: 0.3,
            ..ChannelFaults::reliable()
        };
        assert_eq!(reorder_only.max_delay(), 1 + REORDER_HOLD_BACK);
    }

    #[test]
    fn validate_accepts_paper_and_rejects_bad_fields() {
        assert!(SimConfig::paper().validate().is_ok());
        assert!(ChannelFaults::lossy(0.3).validate().is_ok());
        let bad = SimConfig {
            alert_threshold: 1.5,
            ..SimConfig::paper()
        };
        assert!(bad.validate().is_err());
        let bad = ChannelFaults {
            drop: -0.1,
            ..ChannelFaults::reliable()
        };
        assert!(bad.validate().is_err());
        let bad = ChannelFaults {
            delay_min: 5,
            delay_max: 2,
            ..ChannelFaults::reliable()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn debug_covers_every_tunable() {
        let dbg = format!("{:?}", SimConfig::paper());
        for field in [
            "c_r",
            "delta",
            "eta",
            "c_d",
            "alert_threshold",
            "region_hops",
        ] {
            assert!(dbg.contains(field), "missing {field}");
        }
    }
}
