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

use crate::fabric::FabricConfig;
use crate::runtime::FabricRuntime;
use crate::system::System;
use dcn_sim::engine::{Cluster, ClusterConfig};
use dcn_sim::flows::{Flow, FlowNetwork};
use dcn_sim::{ChannelFaults, SheriffError, SimConfig};
use dcn_topology::{Dcn, RackId};
use sheriff_obs::EventSink;
use sheriff_transfer::TransferConfig;

/// Builder for the assembled [`System`]: topology in, validated system
/// out. Every setter has a sensible default (paper parameters, no flows,
/// no observation).
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    dcn: Dcn,
    cluster: ClusterConfig,
    sim: SimConfig,
    flows: Vec<Flow>,
    heartbeat_every: Option<u64>,
    liveness_deadline: Option<u64>,
    beacon_intervals: Vec<(RackId, u64)>,
    alert_checks: Vec<(RackId, u64)>,
    transfer: Option<TransferConfig>,
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
            heartbeat_every: None,
            liveness_deadline: None,
            beacon_intervals: Vec::new(),
            alert_checks: Vec::new(),
            transfer: None,
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

    /// Fault model for the shim control channel (adopted by
    /// [`fabric_runtime`](Self::fabric_runtime) and by
    /// [`FabricConfig::for_channel`](crate::FabricConfig::for_channel)).
    pub fn channel_faults(mut self, faults: ChannelFaults) -> Self {
        self.sim.channel = faults;
        self
    }

    /// Global liveness-beacon interval for the fabric runtime, in virtual
    /// ticks (the event-scheduled replacement for the old
    /// `heartbeat_period` queue knob).
    pub fn heartbeat_every(mut self, ticks: u64) -> Self {
        self.heartbeat_every = Some(ticks);
        self
    }

    /// Silence (in virtual ticks) after which the fabric runtime's
    /// liveness view presumes a rack dead.
    pub fn liveness_deadline(mut self, ticks: u64) -> Self {
        self.liveness_deadline = Some(ticks);
        self
    }

    /// Beacon `rack` every `every` virtual ticks instead of the global
    /// heartbeat interval — a per-rack event cadence for racks that need
    /// tighter failure detection.
    pub fn beacon_interval(mut self, rack: RackId, every: u64) -> Self {
        self.beacon_intervals.retain(|(r, _)| *r != rack);
        self.beacon_intervals.push((rack, every));
        self
    }

    /// Rescan `rack` for fresh pre-alerts every `every` virtual ticks
    /// within each fabric round (see
    /// [`FabricConfig::with_alert_check`](crate::FabricConfig::with_alert_check)).
    pub fn alert_check(mut self, rack: RackId, every: u64) -> Self {
        self.alert_checks.retain(|(r, _)| *r != rack);
        self.alert_checks.push((rack, every));
        self
    }

    /// Lazily-initialized transfer model, shared by the migration
    /// bandwidth knobs below.
    fn transfer_mut(&mut self) -> &mut TransferConfig {
        self.transfer.get_or_insert_with(TransferConfig::default)
    }

    /// Enable the migration transfer model with an explicit config
    /// (overrides any knob set earlier).
    pub fn transfer_config(mut self, cfg: TransferConfig) -> Self {
        self.transfer = Some(cfg);
        self
    }

    /// Enable the transfer model and set the per-link migration
    /// bandwidth (capacity units per virtual tick shared max-min among
    /// concurrent pre-copies).
    pub fn migration_bandwidth(mut self, per_link: f64) -> Self {
        self.transfer_mut().link_bandwidth = per_link;
        self
    }

    /// Enable the transfer model and cap concurrent pre-copies
    /// fabric-wide; excess admissions queue FIFO (0 = unlimited).
    pub fn max_concurrent_transfers(mut self, cap: usize) -> Self {
        self.transfer_mut().max_concurrent = cap;
        self
    }

    /// A [`FabricRuntime`] matching this builder's channel faults and
    /// event intervals: the channel-aware replacement for constructing a
    /// `FabricConfig` by hand and writing its deprecated queue knobs.
    pub fn fabric_runtime(&self, seed: u64) -> FabricRuntime {
        let mut cfg = FabricConfig::for_channel(self.sim.channel.clone(), seed);
        if let Some(h) = self.heartbeat_every {
            cfg = cfg.with_heartbeat_every(h);
        }
        if let Some(d) = self.liveness_deadline {
            cfg = cfg.with_liveness_deadline(d);
        }
        for &(rack, every) in &self.beacon_intervals {
            cfg = cfg.with_beacon_interval(rack, every);
        }
        for &(rack, every) in &self.alert_checks {
            cfg = cfg.with_alert_check(rack, every);
        }
        if let Some(tc) = self.transfer {
            cfg = cfg.with_transfer(tc);
        }
        FabricRuntime::with_config(cfg)
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
    fn fabric_runtime_carries_channel_and_event_intervals() {
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let rack = dcn_topology::RackId::from_index(0);
        let rt = SystemBuilder::new(dcn)
            .channel_faults(ChannelFaults::lossy(0.05))
            .heartbeat_every(4)
            .liveness_deadline(16)
            .beacon_interval(rack, 2)
            .alert_check(rack, 3)
            .fabric_runtime(11);
        assert_eq!(rt.cfg.seed, 11);
        assert!(!rt.cfg.faults.is_reliable());
        assert_eq!(rt.cfg.heartbeat_every(), 4);
        assert_eq!(rt.cfg.liveness_deadline, 16);
        assert_eq!(rt.cfg.beacon_every(rack), 2);
        assert_eq!(
            rt.cfg.beacon_every(dcn_topology::RackId::from_index(1)),
            4,
            "unlisted racks stay on the global interval"
        );
        assert_eq!(rt.cfg.alert_check_every(rack), 3);
        assert!(rt.cfg.transfer.is_none(), "transfer model defaults off");
    }

    #[test]
    fn transfer_knobs_compose_into_the_fabric_config() {
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let rt = SystemBuilder::new(dcn)
            .migration_bandwidth(2.0)
            .max_concurrent_transfers(6)
            .fabric_runtime(5);
        let tc = rt.cfg.transfer.expect("knobs enable the model");
        assert_eq!(tc.link_bandwidth, 2.0);
        assert_eq!(tc.max_concurrent, 6);
        assert_eq!(
            tc.k_paths,
            sheriff_transfer::TransferConfig::default().k_paths,
            "knobs leave the other fields at their defaults"
        );
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
