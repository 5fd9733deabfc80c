//! The assembled Sheriff system: one object owning the cluster, the flow
//! network, the QCN queues, the ToR monitors and the shim controllers,
//! stepped as a whole — the deployment described in Sec. II ("by simply
//! inserting a shim layer on each rack, Sheriff can automatically monitor
//! its dominating region and provide quick response").
//!
//! Each step gathers alerts from all three sources of Sec. III-B —
//! predicted host overload, predicted ToR uplink congestion, and QCN
//! feedback from outer switches — and lets every alerted shim run Alg. 1:
//! each reroutes around its outer-switch alerts, then the shims place
//! their migration victims in one [`FabricRuntime`] round.

use crate::alert_mgmt::reroute_switch_alerts;
use crate::runtime::{FabricRuntime, RunCtx, Runtime};
use dcn_sim::congestion::{CongestionConfig, CongestionSim};
use dcn_sim::engine::{Cluster, ProfilePredictor};
use dcn_sim::flows::FlowNetwork;
use dcn_sim::tor_monitor::TorMonitor;
use dcn_sim::{Alert, AlertSource, RackMetric};
use dcn_topology::RackId;
use sheriff_obs::{emit, AlertKind, Event, EventSink, NullSink, Timer};

/// What one system step did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepReport {
    /// Simulation step executed.
    pub time: usize,
    /// Host-overload pre-alerts raised.
    pub host_alerts: usize,
    /// ToR uplink pre-alerts raised.
    pub tor_alerts: usize,
    /// Outer-switch (QCN) alerts raised.
    pub switch_alerts: usize,
    /// Migrations committed.
    pub migrations: usize,
    /// Flows rerouted.
    pub reroutes: usize,
    /// Host-utilisation std-dev after the step.
    pub stddev: f64,
    /// Worst switch queue after the step.
    pub worst_queue: f64,
    /// Invariant breaches found by every audit the fabric round ran
    /// (placement, managers, moves, journals and in-round transfer
    /// probes; zero unless a bug corrupted state). A round with no live
    /// alerted shim moves no VM and audits nothing.
    pub audit_violations: usize,
}

/// The full assembled system, generic over the [`EventSink`] observing
/// it. The default `System<NullSink>` is observation-free and compiles
/// to exactly the uninstrumented loop; [`System::with_sink`] swaps in a
/// recorder or JSON-lines streamer without touching the management code.
pub struct System<S: EventSink = NullSink> {
    /// Cluster state (topology, placement, workloads).
    pub cluster: Cluster,
    /// Live flows between dependent VMs.
    pub flows: FlowNetwork,
    /// Per-switch QCN queues.
    pub qcn: CongestionSim,
    /// Per-rack ToR uplink monitors.
    pub tor: TorMonitor,
    /// Precomputed migration-cost metric.
    pub metric: RackMetric,
    /// The shims' runtime, kept across steps so its failover state
    /// carries over.
    runtime: FabricRuntime,
    sink: S,
    time: usize,
}

impl System {
    /// Assemble the system with no observation. `flows` may be empty when
    /// only host-side management is simulated.
    pub fn new(cluster: Cluster, flows: FlowNetwork) -> Self {
        Self::with_sink(cluster, flows, NullSink)
    }
}

impl<S: EventSink> System<S> {
    /// Assemble the system with an [`EventSink`] observing every round:
    /// round boundaries, each raised alert, and the full negotiation
    /// trace of the management loop.
    pub fn with_sink(cluster: Cluster, flows: FlowNetwork, sink: S) -> Self {
        let metric = RackMetric::build(&cluster.dcn, &cluster.sim);
        let qcn = CongestionSim::new(&cluster.dcn, CongestionConfig::default());
        let tor = TorMonitor::new(&cluster.dcn, 32);
        Self {
            cluster,
            flows,
            qcn,
            tor,
            metric,
            runtime: FabricRuntime::default(),
            sink,
            time: 0,
        }
    }

    /// Current simulation step.
    pub fn time(&self) -> usize {
        self.time
    }

    /// Borrow the event sink (e.g. to query a
    /// [`RingRecorder`](sheriff_obs::RingRecorder) mid-run).
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Tear the system down and hand back the sink (e.g. to call
    /// [`JsonLinesSink::finish`](sheriff_obs::JsonLinesSink::finish)).
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Advance one management period `T`: monitor, pre-alert, manage.
    pub fn step<P: ProfilePredictor>(&mut self, predictor: &P) -> StepReport {
        let t = self.time;
        let timer = Timer::start("system.step", t as u64);
        emit(&mut self.sink, || Event::RoundStart { time: t as u64 });
        let mut report = StepReport {
            time: t,
            ..StepReport::default()
        };

        // --- monitoring (Sec. III-B) ---------------------------------
        // 1. hosts: predicted workload-profile overload
        let mut alerts: Vec<Alert> = if self.cluster.workloads.is_empty() {
            Vec::new()
        } else {
            self.cluster.predicted_alerts(predictor, t + 1)
        };
        report.host_alerts = alerts.len();
        for a in &alerts {
            emit(&mut self.sink, || Event::AlertRaised {
                time: t as u64,
                rack: a.rack.index() as u64,
                kind: AlertKind::Host,
                severity: a.severity,
            });
        }
        self.sink.counter("alerts.host", report.host_alerts as u64);

        // 2. local ToR: predicted uplink congestion
        self.tor.record(&self.flows, &self.cluster.placement);
        let tor_alerts = self
            .tor
            .predicted_alerts(self.cluster.sim.alert_threshold, 3, t);
        report.tor_alerts = tor_alerts.len();
        for a in &tor_alerts {
            emit(&mut self.sink, || Event::AlertRaised {
                time: t as u64,
                rack: a.rack.index() as u64,
                kind: AlertKind::LocalTor,
                severity: a.severity,
            });
        }
        self.sink.counter("alerts.tor", report.tor_alerts as u64);
        alerts.extend(tor_alerts);

        // 3. outer switches: QCN feedback
        let feedbacks = self.qcn.step(&self.cluster.dcn, &self.flows);
        for (sw, _) in &feedbacks {
            let racks: std::collections::BTreeSet<RackId> = self
                .flows
                .flows_through_switch(&self.cluster.dcn, *sw)
                .into_iter()
                .map(|f| self.cluster.placement.rack_of(self.flows.flows()[f].src))
                .collect();
            for rack in racks {
                let severity = self.qcn.severity(*sw).max(0.9);
                emit(&mut self.sink, || Event::AlertRaised {
                    time: t as u64,
                    rack: rack.index() as u64,
                    kind: AlertKind::OuterSwitch,
                    severity,
                });
                alerts.push(Alert {
                    rack,
                    source: AlertSource::OuterSwitch(*sw),
                    severity,
                    time: t,
                });
                report.switch_alerts += 1;
            }
        }
        self.sink
            .counter("alerts.switch", report.switch_alerts as u64);

        // --- management (Alg. 1 per alerted shim) ---------------------
        // 1. the outer-switch arm: each alerted shim reroutes first, in
        //    rack order
        let mut racks: Vec<RackId> = alerts.iter().map(|a| a.rack).collect();
        racks.sort_unstable();
        racks.dedup();
        for rack in racks {
            let r = reroute_switch_alerts(
                &self.cluster.dcn,
                &self.cluster.placement,
                &self.cluster.sim,
                &mut self.flows,
                rack,
                &alerts,
                &mut self.sink,
            );
            report.reroutes += r.rerouted;
        }
        // 2. the host and local-ToR arms: one fabric round over every
        //    alert, ranked by each VM's predicted demand
        let placement = &self.cluster.placement;
        let demands: Vec<f64> = if self.cluster.workloads.is_empty() {
            placement
                .vm_ids()
                .map(|vm| placement.utilization(placement.host_of(vm)))
                .collect()
        } else {
            let workloads = &self.cluster.workloads;
            placement
                .vm_ids()
                .map(|vm| predictor.predict(&workloads[vm.index()], t + 1).max())
                .collect()
        };
        let outcome = self.runtime.step(&mut RunCtx {
            cluster: &mut self.cluster,
            metric: &self.metric,
            alerts: &alerts,
            alert_values: &demands,
            sink: &mut self.sink,
        });
        report.migrations = outcome.plan.moves.len();
        // the round audited its post-round placement, and the rebase
        // below moves no VM
        report.audit_violations = outcome.audit.len();
        // 3. migrated VMs carry their flows with them: rebase any flow
        //    touching a moved VM onto its new rack's paths
        for m in &outcome.plan.moves {
            self.flows
                .rebase_vm(&self.cluster.dcn, &self.cluster.placement, m.vm);
        }

        report.stddev = self.cluster.utilization_stddev();
        report.worst_queue = self.qcn.worst_queue();
        self.time += 1;
        emit(&mut self.sink, || Event::RoundEnd {
            time: t as u64,
            migrations: report.migrations as u64,
            reroutes: report.reroutes as u64,
        });
        timer.stop(&mut self.sink, self.time as u64);
        report
    }

    /// Run `n` steps, returning every report.
    pub fn run<P: ProfilePredictor>(&mut self, predictor: &P, n: usize) -> Vec<StepReport> {
        (0..n).map(|_| self.step(predictor)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::engine::{ClusterConfig, HoltPredictor};
    use dcn_sim::flows::Flow;
    use dcn_sim::SimConfig;
    use dcn_topology::fattree::{self, FatTreeConfig};
    use dcn_topology::{HostId, VmId};

    fn system(seed: u64, hot_flows: bool) -> System {
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let cluster = Cluster::build(
            dcn,
            &ClusterConfig {
                vms_per_host: 2.0,
                skew: 2.0,
                workload_len: 200,
                seed,
                ..ClusterConfig::default()
            },
            SimConfig::paper(),
        );
        let mut flow_list = Vec::new();
        if hot_flows {
            // two overlapping flows between the first two racks populous
            // enough to host them; their shared shortest path congests
            let vms_in = |rack: RackId| -> Vec<VmId> {
                cluster
                    .placement
                    .vm_ids()
                    .filter(|&vm| cluster.placement.rack_of(vm) == rack)
                    .collect()
            };
            let fat: Vec<RackId> = (0..cluster.dcn.rack_count())
                .map(RackId::from_index)
                .filter(|&r| vms_in(r).len() >= 2)
                .collect();
            if fat.len() >= 2 {
                let srcs = vms_in(fat[0]);
                let dsts = vms_in(fat[1]);
                for i in 0..2 {
                    flow_list.push(Flow {
                        src: srcs[i],
                        dst: dsts[i],
                        rate: 0.55,
                        delay_sensitive: false,
                    });
                }
            }
        }
        let flows = FlowNetwork::route(&cluster.dcn, &cluster.placement, flow_list);
        System::new(cluster, flows)
    }

    #[test]
    fn all_three_alert_sources_fire_over_a_run() {
        let mut sys = system(7, true);
        let p = HoltPredictor::default();
        let reports = sys.run(&p, 60);
        let hosts: usize = reports.iter().map(|r| r.host_alerts).sum();
        let switches: usize = reports.iter().map(|r| r.switch_alerts).sum();
        assert!(hosts > 0, "host pre-alerts never fired");
        assert!(switches > 0, "QCN alerts never fired");
        // the loop must act on them
        let actions: usize = reports.iter().map(|r| r.migrations + r.reroutes).sum();
        assert!(actions > 0);
    }

    #[test]
    fn congestion_is_resolved_by_the_loop() {
        let mut sys = system(62, true);
        let p = HoltPredictor::default();
        let reports = sys.run(&p, 60);
        let peak = reports.iter().map(|r| r.worst_queue).fold(0.0, f64::max);
        let last = reports.last().unwrap().worst_queue;
        assert!(peak > 0.0, "hot flows should congest something");
        assert!(
            last < peak,
            "the loop should drain the queue: {peak} -> {last}"
        );
    }

    #[test]
    fn invariants_hold_after_long_run() {
        let mut sys = system(63, true);
        let p = HoltPredictor::default();
        sys.run(&p, 40);
        let c = &sys.cluster;
        for h in 0..c.placement.host_count() {
            let h = HostId::from_index(h);
            assert!(c.placement.used_capacity(h) <= c.placement.host_capacity(h) + 1e-9);
        }
        for vm in c.placement.vm_ids() {
            let host = c.placement.host_of(vm);
            for &other in c.placement.vms_on(host) {
                assert!(other == vm || !c.deps.dependent(vm, other));
            }
        }
        assert_eq!(sys.time(), 40);
    }

    #[test]
    fn steps_commit_through_the_fabric_two_phase_commit() {
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let mut sys = crate::SystemBuilder::new(dcn)
            .seed(7)
            .vms_per_host(2.0)
            .workload_len(200)
            .build_with_sink(sheriff_obs::RingRecorder::new(64))
            .expect("valid config");
        let reports = sys.run(&HoltPredictor::default(), 40);
        let migrations: usize = reports.iter().map(|r| r.migrations).sum();
        let committed = sys.sink().counters().get("txn.committed");
        assert!(migrations > 0, "no step migrated");
        assert_eq!(committed, migrations as u64);
    }

    #[test]
    fn flowless_system_still_manages_hosts() {
        let mut sys = system(64, false);
        let p = HoltPredictor::default();
        let reports = sys.run(&p, 30);
        assert!(reports.iter().all(|r| r.switch_alerts == 0));
        assert!(reports.iter().all(|r| r.tor_alerts == 0));
        let hosts: usize = reports.iter().map(|r| r.host_alerts).sum();
        assert!(hosts > 0, "host alerts still expected");
    }
}
