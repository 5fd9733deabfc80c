//! Fluent, validating construction of the assembled [`System`].
//!
//! [`Cluster::build`]/[`System::new`] take positional arguments and panic
//! on out-of-range configuration. [`SystemBuilder`] names every knob,
//! validates through [`Cluster::try_build`], and returns a typed
//! [`SheriffError`] instead of panicking — so binaries and experiments
//! can surface configuration mistakes as errors.
//!
//! ```
//! use dcn_topology::fattree::{self, FatTreeConfig};
//! use sheriff_core::SystemBuilder;
//!
//! let dcn = fattree::build(&FatTreeConfig::paper(4));
//! let system = SystemBuilder::new(dcn).seed(7).build().unwrap();
//! assert_eq!(system.time(), 0);
//! ```

use crate::system::System;
use dcn_sim::engine::{Cluster, ClusterConfig};
use dcn_sim::flows::{Flow, FlowNetwork};
use dcn_sim::{SheriffError, SimConfig};
use dcn_topology::Dcn;
use sheriff_obs::EventSink;

/// Builder for the assembled [`System`]: topology in, validated system
/// out. Every setter has a sensible default (paper parameters, no flows,
/// no observation).
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    dcn: Dcn,
    cluster: ClusterConfig,
    sim: SimConfig,
    flows: Vec<Flow>,
}

impl SystemBuilder {
    /// Start from a built topology (Fat-Tree, BCube, DCell, ...), with
    /// [`ClusterConfig::default`] population and [`SimConfig::paper`]
    /// parameters.
    pub fn new(dcn: Dcn) -> Self {
        Self {
            dcn,
            cluster: ClusterConfig::default(),
            sim: SimConfig::paper(),
            flows: Vec::new(),
        }
    }

    /// Replace the whole cluster-population config.
    pub fn cluster_config(mut self, cfg: ClusterConfig) -> Self {
        self.cluster = cfg;
        self
    }

    /// Replace the whole simulation config.
    pub fn sim_config(mut self, cfg: SimConfig) -> Self {
        self.sim = cfg;
        self
    }

    /// Mean VMs per host for the initial placement.
    pub fn vms_per_host(mut self, v: f64) -> Self {
        self.cluster.vms_per_host = v;
        self
    }

    /// Placement skew: higher values concentrate VMs on fewer hosts.
    pub fn skew(mut self, skew: f64) -> Self {
        self.cluster.skew = skew;
        self
    }

    /// Seed for the cluster-population RNG.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cluster.seed = seed;
        self
    }

    /// Length of the synthetic per-VM workload traces (0 disables
    /// workload-driven host alerts).
    pub fn workload_len(mut self, len: usize) -> Self {
        self.cluster.workload_len = len;
        self
    }

    /// Initial flows between VMs; routed at build time. Without flows the
    /// ToR and QCN alert sources stay silent.
    pub fn flows(mut self, flows: Vec<Flow>) -> Self {
        self.flows = flows;
        self
    }

    /// Validate and assemble an unobserved `System<NullSink>`.
    pub fn build(self) -> Result<System, SheriffError> {
        self.build_with_sink(sheriff_obs::NullSink)
    }

    /// Validate and assemble a `System<S>` observed by `sink`.
    pub fn build_with_sink<S: EventSink>(self, sink: S) -> Result<System<S>, SheriffError> {
        let cluster = Cluster::try_build(self.dcn, &self.cluster, self.sim)?;
        let flows = FlowNetwork::route(&cluster.dcn, &cluster.placement, self.flows);
        Ok(System::with_sink(cluster, flows, sink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::engine::HoltPredictor;
    use dcn_topology::fattree::{self, FatTreeConfig};
    use sheriff_obs::RingRecorder;

    #[test]
    fn builder_defaults_produce_a_working_system() {
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let mut sys = SystemBuilder::new(dcn)
            .vms_per_host(2.0)
            .skew(2.0)
            .seed(7)
            .workload_len(100)
            .build()
            .expect("valid defaults");
        let reports = sys.run(&HoltPredictor::default(), 5);
        assert_eq!(reports.len(), 5);
        assert_eq!(sys.time(), 5);
    }

    #[test]
    fn builder_surfaces_invalid_config_as_typed_errors() {
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let Err(err) = SystemBuilder::new(dcn.clone()).vms_per_host(-1.0).build() else {
            panic!("negative vms_per_host must be rejected");
        };
        assert!(matches!(err, SheriffError::InvalidClusterConfig { .. }));

        let bad_sim = SimConfig {
            alpha: 7.0,
            ..SimConfig::paper()
        };
        let Err(err) = SystemBuilder::new(dcn).sim_config(bad_sim).build() else {
            panic!("alpha outside [0, 1] must be rejected");
        };
        assert!(matches!(err, SheriffError::InvalidProbability { .. }));
    }

    #[test]
    fn build_with_sink_observes_round_boundaries() {
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let mut sys = SystemBuilder::new(dcn)
            .seed(9)
            .workload_len(100)
            .build_with_sink(RingRecorder::new(1024))
            .expect("valid config");
        sys.run(&HoltPredictor::default(), 3);
        let rec = sys.into_sink();
        assert_eq!(rec.count_kind("round_start"), 3);
        assert_eq!(rec.count_kind("round_end"), 3);
        assert!(rec.timing_stat("system.step").is_some());
    }
}
