//! Physical link model: capacity `C(e)`, distance `D(e)` and available
//! bandwidth `B(e)` (Table I of the paper).
//!
//! `B(e)` is defined as "the smaller one of current available bandwidth and
//! bandwidth in request on e" and must exceed the threshold `B_t` for the
//! link to be usable during a migration transfer (Sec. III-C).

/// The tier a link belongs to; used to assign the paper's simulation
/// bandwidths (core–aggregation 10, aggregation–ToR 1, Sec. VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkTier {
    /// ToR/rack ↔ aggregation switch (Fat-Tree) or server-level (BCube).
    Edge,
    /// Aggregation ↔ core switch.
    CoreAgg,
}

/// An undirected physical link `e ∈ E_r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Maximum capacity `C(e)` (normalised Gbps units).
    pub capacity: f64,
    /// Physical distance `D(e)` (metres; racks are ~0.6 m wide with ~2 m
    /// row spacing, Sec. II-A).
    pub distance: f64,
    /// Available bandwidth `B(e)`: min(free bandwidth, requested bandwidth).
    pub available_bw: f64,
    /// Which tier the link belongs to.
    pub tier: LinkTier,
}

impl Link {
    /// Create a link with full capacity available.
    pub fn new(capacity: f64, distance: f64, tier: LinkTier) -> Self {
        assert!(capacity > 0.0, "link capacity must be positive");
        assert!(distance >= 0.0, "link distance must be non-negative");
        Self {
            capacity,
            distance,
            available_bw: capacity,
            tier,
        }
    }

    /// Transmission time `T(e) = m.capacity / B(e)` for moving a VM of the
    /// given size across this link (Sec. III-C).
    #[inline]
    pub fn transmission_time(&self, vm_capacity: f64) -> f64 {
        debug_assert!(self.available_bw > 0.0);
        vm_capacity / self.available_bw
    }

    /// Utilisation rate `P(e) = B(e) / C(e)` of the bandwidth (Sec. III-C).
    #[inline]
    pub fn utility_rate(&self) -> f64 {
        self.available_bw / self.capacity
    }

    /// Whether the link can carry a migration given threshold `B_t`.
    #[inline]
    pub fn usable(&self, threshold: f64) -> bool {
        self.available_bw > threshold
    }

    /// Consume `amount` of available bandwidth (e.g. a flow is routed over
    /// this link). Saturates at zero.
    pub fn consume(&mut self, amount: f64) {
        self.available_bw = (self.available_bw - amount).max(0.0);
    }

    /// Release `amount` of bandwidth back (a flow ended). Saturates at the
    /// link capacity.
    pub fn release(&mut self, amount: f64) {
        self.available_bw = (self.available_bw + amount).min(self.capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> Link {
        Link::new(10.0, 2.0, LinkTier::CoreAgg)
    }

    #[test]
    fn new_link_is_fully_available() {
        let l = link();
        assert_eq!(l.available_bw, 10.0);
        assert_eq!(l.utility_rate(), 1.0);
    }

    #[test]
    fn transmission_time_scales_with_vm_size() {
        let l = link();
        assert_eq!(l.transmission_time(20.0), 2.0);
        assert_eq!(l.transmission_time(5.0), 0.5);
    }

    #[test]
    fn consume_and_release_clamp() {
        let mut l = link();
        l.consume(4.0);
        assert_eq!(l.available_bw, 6.0);
        assert_eq!(l.utility_rate(), 0.6);
        l.consume(100.0);
        assert_eq!(l.available_bw, 0.0);
        l.release(3.0);
        assert_eq!(l.available_bw, 3.0);
        l.release(100.0);
        assert_eq!(l.available_bw, 10.0);
    }

    #[test]
    fn usable_respects_threshold() {
        let mut l = link();
        assert!(l.usable(5.0));
        l.consume(6.0);
        assert!(!l.usable(5.0));
        assert!(l.usable(1.0));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Link::new(0.0, 1.0, LinkTier::Edge);
    }
}
