//! One trait over both management loops.
//!
//! A management round runs either under the centralized baseline of
//! Sec. VI-B ([`CentralizedRuntime`]) or under Sheriff's per-rack shims,
//! which negotiate every move as REQUEST/ACK/REJECT messages on the
//! virtual-time fabric ([`FabricRuntime`]). The [`Runtime`] trait puts
//! both behind `step(&mut self, ctx)` so experiments, benches and the
//! bakeoff examples can iterate over `Box<dyn Runtime>` values instead of
//! matching on names, and both report through the same [`RoundOutcome`]
//! and the same [`EventSink`].

use crate::alert_mgmt::{alert_lookup, select_victims};
use crate::audit::{audit_moves, audit_placement, AuditReport};
use crate::centralized::centralized_migration;
use crate::fabric::{run_round, FabricConfig};
use crate::failure::RegionFailover;
use crate::vmmigration::{MigrationContext, MigrationPlan};
use dcn_sim::engine::Cluster;
use dcn_sim::{Alert, RackMetric};
use dcn_topology::{RackId, VmId};
use sheriff_obs::{emit, Event, EventSink, NullSink};

/// Everything one management round needs: the mutable cluster, the
/// precomputed cost metric, this period's alerts with their ALERT
/// magnitudes, and the event sink observing the round.
///
/// The sink is a `&mut dyn EventSink` (not a generic parameter) so
/// `Runtime` stays object-safe — heterogeneous `Box<dyn Runtime>`
/// bakeoffs are the point of the trait.
pub struct RunCtx<'a> {
    /// Cluster state; `step` mutates its placement in place.
    pub cluster: &'a mut Cluster,
    /// Precomputed rack-to-rack migration-cost metric.
    pub metric: &'a RackMetric,
    /// Pre-alerts raised this management period.
    pub alerts: &'a [Alert],
    /// `alert_values[vm.index()]` is the ALERT magnitude used by
    /// PRIORITY's `w = 1` branch.
    pub alert_values: &'a [f64],
    /// Observer for the round's structured events.
    pub sink: &'a mut dyn EventSink,
}

/// What one [`Runtime::step`] did, across both runtimes. Fields a
/// runtime does not track (e.g. `ticks` outside the fabric) stay zero.
///
/// A count that an event already records lives only in the sink: the
/// event's counter (`net.dropped`, `net.dedup_hits`, `txn.prepared`,
/// `txn.committed`, `txn.aborted`, `region.takeovers`, `txn.fenced`; see
/// [`Event::counter`](sheriff_obs::Event::counter)) or its kind tally
/// (`shim_degraded`, one per degraded shim). The fields here are the
/// plan, the audit, what no counter carries in the form its readers
/// need, and the counts `benchmark/` reads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundOutcome {
    /// Merged migration plan of the round.
    pub plan: MigrationPlan,
    /// Shims (or managers) that participated.
    pub shims: usize,
    /// Requests whose reply deadline expired at least once (fabric only).
    pub timeouts: usize,
    /// Retransmissions sent after timeouts (fabric only).
    pub resends: usize,
    /// Alerted shims that were crashed and could not participate.
    pub crashed_shims: usize,
    /// Virtual ticks the round took (fabric only).
    pub ticks: u64,
    /// Shims that crashed mid-round and came back (fabric only).
    pub recoveries: usize,
    /// Shims that planned in partition-degraded local mode (fabric only).
    pub partition_degraded: usize,
    /// Pending VMs dropped at partition heal because another manager
    /// handled them during the cut (fabric only).
    pub reconciliations: usize,
    /// Migration pre-copies admitted by the transfer scheduler (fabric
    /// only, zero unless the transfer model is enabled).
    pub transfers_started: usize,
    /// Pre-copies that streamed to completion and finalized COMMIT.
    pub transfers_completed: usize,
    /// Transfers steered off their route by QCN congestion or a failed
    /// link.
    pub transfer_reroutes: usize,
    /// 95th-percentile transfer completion time in virtual ticks
    /// (nearest-rank over this round's completed transfers; 0.0 when
    /// none completed).
    pub transfer_p95_completion: f64,
    /// True when some link carried two or more concurrent transfers —
    /// the round paid a bottleneck serialization penalty.
    pub bottleneck_serialized: bool,
    /// Streams stalled by a link failure, mid-copy or at admission.
    pub transfer_stalls: usize,
    /// Backoff retries attempted by stalled streams.
    pub transfer_retries: usize,
    /// Pre-copies that failed for good: their retry budget ran out, or a
    /// destination crash with no recovery cancelled them.
    pub transfer_failures: usize,
    /// Bytes checkpointed resumes avoided re-copying versus a restart
    /// from zero.
    pub resumed_bytes_saved: f64,
    /// Post-round invariant audit — clean unless a bug corrupted state.
    pub audit: AuditReport,
}

/// One management loop: given this period's alerts, mutate the cluster's
/// placement and report what happened.
pub trait Runtime {
    /// Stable identifier for reports and trace labels.
    fn name(&self) -> &'static str;

    /// Run one management round.
    fn step(&mut self, ctx: &mut RunCtx<'_>) -> RoundOutcome;
}

/// The centralized global manager of Sec. VI-B behind the [`Runtime`]
/// trait: Alg. 1/2 victim selection per alerted rack, then one global
/// VMMIGRATION whose destination set is every rack in the network.
#[derive(Debug, Clone)]
pub struct CentralizedRuntime {
    /// Replan rounds for the global matching.
    pub max_rounds: usize,
}

impl Default for CentralizedRuntime {
    fn default() -> Self {
        Self { max_rounds: 3 }
    }
}

impl Runtime for CentralizedRuntime {
    fn name(&self) -> &'static str {
        "centralized"
    }

    fn step(&mut self, ctx: &mut RunCtx<'_>) -> RoundOutcome {
        let mut racks: Vec<RackId> = ctx.alerts.iter().map(|a| a.rack).collect();
        racks.sort_unstable();
        racks.dedup();
        let mut candidates: Vec<VmId> = Vec::new();
        for &rack in &racks {
            let (selected, pool) = select_victims(
                &ctx.cluster.placement,
                &ctx.cluster.dcn.inventory,
                &ctx.cluster.sim,
                rack,
                ctx.alerts,
                alert_lookup(ctx.alert_values),
            );
            emit(&mut *ctx.sink, || Event::VictimsSelected {
                rack: rack.index() as u64,
                candidates: pool as u64,
                selected: selected.len() as u64,
            });
            candidates.extend(selected);
        }
        candidates.sort_unstable();
        candidates.dedup();
        let plan = {
            let mut mctx = MigrationContext {
                placement: &mut ctx.cluster.placement,
                inventory: &ctx.cluster.dcn.inventory,
                deps: &ctx.cluster.deps,
                metric: ctx.metric,
                sim: &ctx.cluster.sim,
            };
            centralized_migration(&mut mctx, &candidates, self.max_rounds, &mut *ctx.sink)
        };
        let mut audit = audit_placement(&ctx.cluster.placement, &ctx.cluster.deps);
        audit.merge(audit_moves(
            &ctx.cluster.placement,
            plan.moves.iter().map(|m| (m.vm, m.to)),
        ));
        RoundOutcome {
            plan,
            shims: if racks.is_empty() { 0 } else { 1 },
            audit,
            ..RoundOutcome::default()
        }
    }
}

/// The virtual-time fabric runtime behind the [`Runtime`] trait:
/// REQUEST/ACK/REJECT over a seeded faulty channel with timeouts,
/// backoff, dedup and heartbeat liveness, plus persistent
/// partition-tolerance state — the failure detector's silence clock,
/// regional epochs, and manager table all survive across rounds, so a
/// shim that stays dark is eventually declared Dead and taken over even
/// when each individual round is short.
///
/// `step()` is a facade over the round's own per-tick agenda: the round
/// runs in virtual time from activated tick to activated tick (beacons,
/// crash/heal and link windows, deliveries, timeouts, leases, detector
/// transitions) and returns at the round boundary, so callers keep the
/// familiar one-call-per-round shape.
#[derive(Debug, Clone, Default)]
pub struct FabricRuntime {
    /// Channel fault model, seed, retries, fault windows and transfers.
    pub cfg: FabricConfig,
    /// Cross-round failover state (detector, epochs, managers).
    pub failover: RegionFailover,
}

impl FabricRuntime {
    /// Runtime for `cfg`, with fresh failover state on the fabric's own
    /// beacon cadence ([`RegionFailover::default`]).
    pub fn with_config(cfg: FabricConfig) -> Self {
        Self {
            cfg,
            failover: RegionFailover::default(),
        }
    }
}

impl Runtime for FabricRuntime {
    fn name(&self) -> &'static str {
        "fabric"
    }

    fn step(&mut self, ctx: &mut RunCtx<'_>) -> RoundOutcome {
        run_round(ctx, &self.cfg, &mut self.failover)
    }
}

/// Run `rounds` successive rounds of `runtime` with the Fig. 9/10
/// protocol: each round a fixed fraction of VMs alerts, and each VM's
/// ALERT value is its host's utilisation. Returns the std-dev trajectory,
/// initial point included, and the merged plan of every round.
pub fn balance_trajectory(
    runtime: &mut dyn Runtime,
    cluster: &mut Cluster,
    metric: &RackMetric,
    alert_fraction: f64,
    rounds: usize,
) -> (Vec<f64>, MigrationPlan) {
    let mut stddevs = vec![cluster.utilization_stddev()];
    let mut plan = MigrationPlan::default();
    for t in 0..rounds {
        let alerts = cluster.fraction_alerts(alert_fraction, t);
        let utils: Vec<f64> = cluster
            .placement
            .vm_ids()
            .map(|vm| cluster.placement.utilization(cluster.placement.host_of(vm)))
            .collect();
        let out = runtime.step(&mut RunCtx {
            cluster: &mut *cluster,
            metric,
            alerts: &alerts,
            alert_values: &utils,
            sink: &mut NullSink,
        });
        plan.absorb(out.plan);
        stddevs.push(cluster.utilization_stddev());
    }
    (stddevs, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::engine::ClusterConfig;
    use dcn_sim::SimConfig;
    use dcn_topology::bcube::{self, BCubeConfig};
    use dcn_topology::fattree::{self, FatTreeConfig};
    use sheriff_obs::RingRecorder;

    fn cluster(seed: u64, skew: f64) -> Cluster {
        let dcn = fattree::build(&FatTreeConfig::paper(8));
        Cluster::build(
            dcn,
            &ClusterConfig {
                vms_per_host: 2.5,
                skew,
                seed,
                ..ClusterConfig::default()
            },
            SimConfig::paper(),
        )
    }

    fn alert_values(c: &Cluster) -> Vec<f64> {
        c.placement
            .vm_ids()
            .map(|vm| c.placement.utilization(c.placement.host_of(vm)))
            .collect()
    }

    #[test]
    fn every_runtime_reduces_imbalance_through_one_interface() {
        let runtimes: Vec<Box<dyn Runtime>> = vec![
            Box::new(CentralizedRuntime::default()),
            Box::new(FabricRuntime::default()),
        ];
        for mut rt in runtimes {
            let mut c = cluster(91, 3.0);
            let metric = RackMetric::build(&c.dcn, &c.sim);
            let (traj, plan) = balance_trajectory(rt.as_mut(), &mut c, &metric, 0.08, 4);
            assert_eq!(traj.len(), 5);
            assert!(!plan.moves.is_empty(), "{}: no moves", rt.name());
            let (before, after) = (traj[0], traj[4]);
            assert!(
                after < before * 0.75,
                "{}: std-dev {before} -> {after}",
                rt.name()
            );
        }
    }

    #[test]
    fn balancing_reduces_stddev_on_fattree() {
        let mut c = cluster(1, 4.0);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let (traj, plan) =
            balance_trajectory(&mut FabricRuntime::default(), &mut c, &metric, 0.05, 24);
        assert_eq!(traj.len(), 25);
        assert!(!plan.moves.is_empty());
        let first = traj[0];
        let last = *traj.last().unwrap();
        assert!(
            last < first * 0.6,
            "std-dev should roughly halve over 24 rounds: {first} -> {last}"
        );
    }

    #[test]
    fn balancing_reduces_stddev_on_bcube() {
        let dcn = bcube::build(&BCubeConfig::paper(8));
        let mut c = Cluster::build(
            dcn,
            &ClusterConfig {
                vms_per_host: 2.5,
                skew: 4.0,
                seed: 2,
                ..ClusterConfig::default()
            },
            SimConfig::paper(),
        );
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let (traj, _) =
            balance_trajectory(&mut FabricRuntime::default(), &mut c, &metric, 0.05, 24);
        assert!(*traj.last().unwrap() < traj[0] * 0.7, "{traj:?}");
    }

    #[test]
    fn rounds_are_deterministic() {
        let run = |seed| {
            let mut c = cluster(seed, 4.0);
            let metric = RackMetric::build(&c.dcn, &c.sim);
            let (traj, plan) =
                balance_trajectory(&mut FabricRuntime::default(), &mut c, &metric, 0.05, 5);
            (traj, plan.total_cost)
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn trait_step_streams_events_through_the_ctx_sink() {
        let mut c = cluster(93, 3.0);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let vals = alert_values(&c);
        let mut rec = RingRecorder::new(4096);
        let mut rt = FabricRuntime::default();
        let out = rt.step(&mut RunCtx {
            cluster: &mut c,
            metric: &metric,
            alerts: &alerts,
            alert_values: &vals,
            sink: &mut rec,
        });
        assert!(!out.plan.moves.is_empty());
        assert_eq!(
            rec.count_kind("migration_committed"),
            out.plan.moves.len(),
            "one commit event per recorded move"
        );
        assert!(rec.count_kind("request_sent") >= rec.count_kind("ack_received"));
        assert_eq!(
            rec.counters().get("migrations.committed"),
            out.plan.moves.len() as u64
        );
    }
}
