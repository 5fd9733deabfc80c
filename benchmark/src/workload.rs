//! The four workloads: how each seed's fabric is built, and what each
//! round feeds it. Why each workload exists is recorded in `main.rs`.

use crate::time_ms;
use dcn_sim::{Alert, ChannelFaults, Cluster, ClusterConfig, RackMetric, SheriffError, SimConfig};
use dcn_topology::fattree::{self, FatTreeConfig};
use dcn_topology::RackId;
use sheriff_core::{CrashWindow, FabricConfig, FabricRuntime, LinkFaultWindow, TransferConfig};

/// Fewest timed (non-warm-up) rounds a run may measure, so a p90 has ten
/// samples beyond it.
pub const MIN_TIMED_ROUNDS: usize = 100;

/// Mid-round faults a workload writes into every round's fabric config.
#[derive(Clone, Copy, Debug)]
pub enum Faults {
    /// No scheduled faults.
    None,
    /// Two shims crash at tick 10 and recover at tick 60; the pair
    /// rotates with the round.
    ShimCrashes,
    /// On odd rounds every 8th graph edge fails for the transfer plane
    /// from tick 50 to tick 150.
    LinkFlaps,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Fat-Tree `k`.
    pub pods: usize,
    /// Share of VMs raising a pre-alert each round.
    pub alert_fraction: f64,
    /// Control-channel fault model.
    pub channel: ChannelFaults,
    /// Pre-copy transfer model, `None` to settle moves instantly.
    pub transfer: Option<TransferConfig>,
    /// Scheduled mid-round faults.
    pub faults: Faults,
    /// Seeds per run: `--seed S` runs seeds `S, S+1, …`.
    pub seeds: u64,
    /// Timed rounds per second measured on the reference machine (2 vCPU
    /// x86-64). `--seconds` becomes a fixed round count through it, so a
    /// run's work depends only on its arguments and both sides of a
    /// comparison time the same rounds.
    pub reference_rounds_per_s: f64,
}

/// Every workload, in the order `--workload all` runs them.
pub fn all() -> Vec<Workload> {
    let reliable = ChannelFaults::reliable;
    vec![
        Workload {
            name: "paper_k32",
            pods: 32,
            alert_fraction: 0.05,
            channel: reliable(),
            transfer: None,
            faults: Faults::None,
            seeds: 3,
            reference_rounds_per_s: 17.0,
        },
        Workload {
            name: "hotspot_k24",
            pods: 24,
            alert_fraction: 0.30,
            channel: reliable(),
            transfer: None,
            faults: Faults::None,
            seeds: 4,
            reference_rounds_per_s: 29.0,
        },
        Workload {
            name: "lossy_failover_k16",
            pods: 16,
            alert_fraction: 0.05,
            channel: ChannelFaults {
                drop: 0.2,
                duplicate: 0.1,
                reorder: 0.0,
                delay_min: 1,
                delay_max: 4,
            },
            transfer: None,
            faults: Faults::ShimCrashes,
            seeds: 6,
            reference_rounds_per_s: 33.0,
        },
        Workload {
            name: "transfer_k16",
            pods: 16,
            alert_fraction: 0.05,
            channel: reliable(),
            transfer: Some(TransferConfig {
                link_bandwidth: 1.0,
                bytes_per_capacity: 16.0,
                max_concurrent: 64,
                k_paths: 4,
                reroute_threshold: 0.02,
                ..TransferConfig::default()
            }),
            faults: Faults::LinkFlaps,
            seeds: 6,
            reference_rounds_per_s: 9.0,
        },
    ]
}

/// Wall time of each set-up stage, in milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupMs {
    /// `fattree::build`.
    pub topology: f64,
    /// `Cluster::try_build`.
    pub cluster: f64,
    /// `RackMetric::build`.
    pub metric: f64,
    /// `FabricRuntime::with_config`.
    pub runtime: f64,
}

impl SetupMs {
    /// Whole set-up, in seconds.
    pub fn total_s(&self) -> f64 {
        (self.topology + self.cluster + self.metric + self.runtime) / 1e3
    }
}

/// One seed's system under test.
pub struct Fabric {
    /// The populated data center; rounds mutate its placement.
    pub cluster: Cluster,
    /// Rack-to-rack migration-cost metric.
    pub metric: RackMetric,
    /// The fabric runtime with its cross-round failover state.
    pub runtime: FabricRuntime,
}

impl Workload {
    /// Timed rounds per seed for a run of `seconds`, never fewer than
    /// [`MIN_TIMED_ROUNDS`] over all seeds.
    pub fn rounds_per_seed(&self, seconds: u64) -> usize {
        let seeds = self.seeds as f64;
        let budget = (seconds as f64 * self.reference_rounds_per_s / seeds).round() as usize;
        budget.max(MIN_TIMED_ROUNDS.div_ceil(self.seeds as usize))
    }

    /// Build seed `seed`'s fabric, timing each stage.
    pub fn setup(&self, seed: u64) -> Result<(Fabric, SetupMs), SheriffError> {
        let (dcn, topology) = time_ms(|| fattree::build(&FatTreeConfig::paper(self.pods)));
        let ccfg = ClusterConfig {
            vms_per_host: 2.5,
            skew: 4.0,
            seed,
            ..ClusterConfig::default()
        };
        let (cluster, cluster_ms) = time_ms(|| Cluster::try_build(dcn, &ccfg, SimConfig::paper()));
        let cluster = cluster?;
        let (metric, metric_ms) = time_ms(|| RackMetric::build(&cluster.dcn, &cluster.sim));
        let (runtime, runtime_ms) = time_ms(|| {
            let mut cfg = FabricConfig::for_channel(self.channel.clone(), seed);
            cfg.transfer = self.transfer.clone();
            FabricRuntime::with_config(cfg)
        });
        let fabric = Fabric {
            cluster,
            metric,
            runtime,
        };
        let ms = SetupMs {
            topology,
            cluster: cluster_ms,
            metric: metric_ms,
            runtime: runtime_ms,
        };
        Ok((fabric, ms))
    }

    /// Write round `t`'s fault windows into the runtime's config. Runs
    /// before the round's timer starts: it is input, not work.
    pub fn schedule_faults(&self, fabric: &mut Fabric, t: usize) {
        let cfg = &mut fabric.runtime.cfg;
        match self.faults {
            Faults::None => {}
            Faults::ShimCrashes => {
                let racks = fabric.cluster.dcn.rack_count();
                let first = (t * 37) % racks;
                cfg.crashed = [first, (first + racks / 2) % racks]
                    .into_iter()
                    .map(|r| CrashWindow {
                        rack: RackId::from_index(r),
                        crash_at: 10,
                        recover_at: Some(60),
                    })
                    .collect();
            }
            Faults::LinkFlaps => {
                let edges = fabric.cluster.dcn.graph.edge_count();
                cfg.link_faults = if t % 2 == 1 {
                    (0..edges)
                        .step_by(8)
                        .map(|link| LinkFaultWindow {
                            link,
                            fail_at: 50,
                            restore_at: Some(150),
                        })
                        .collect()
                } else {
                    Vec::new()
                };
            }
        }
    }

    /// Round `t`'s pre-alerts and per-VM ALERT values (the utilisation
    /// of the VM's host), as the paper's Fig. 9–14 protocol raises them.
    pub fn round_inputs(&self, cluster: &Cluster, t: usize) -> (Vec<Alert>, Vec<f64>) {
        let alerts = cluster.fraction_alerts(self.alert_fraction, t);
        let values = cluster
            .placement
            .vm_ids()
            .map(|vm| cluster.placement.utilization(cluster.placement.host_of(vm)))
            .collect();
        (alerts, values)
    }
}
