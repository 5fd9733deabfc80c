//! The two passes over a workload's seeds and rounds. The timed pass
//! runs each round exactly as a user would, with the `NullSink`, and
//! yields the end-to-end metrics; the traced pass swaps in a counting
//! sink and times public calls into each layer around every round,
//! outside the timed `step`, for the per-layer metrics. Round 0 of each
//! seed is warm-up in both: run and audited, but kept out of the wall
//! and per-layer samples.

use crate::time_ms;
use crate::workload::{Fabric, SetupMs, Workload};
use dcn_sim::{Alert, AlertSource, Cluster, RackMetric, SheriffError};
use dcn_topology::ksp::k_shortest_paths;
use dcn_topology::NodeId;
use sheriff_core::{
    audit_moves, audit_placement, pre_alert_management, priority, Budget, MigrationContext, Move,
    RoundOutcome, RunCtx, Runtime,
};
use sheriff_obs::{Counters, EventSink, NullSink};
use sheriff_scenario::TallySink;
use std::hint::black_box;

/// A round's deterministic outputs; the two passes must agree on each.
#[derive(Debug, PartialEq)]
pub struct RoundRecord {
    /// Migrations committed.
    pub moves: usize,
    /// Eqn. 1 cost of the committed migrations.
    pub cost: f64,
    /// Victims left unplaced.
    pub unplaced: usize,
    /// Virtual ticks the round stayed open.
    pub ticks: u64,
    /// Fig. 9 utilisation std-dev (percent) after the round.
    pub stddev_pct: f64,
}

/// Correctness state shared by both passes: every round's audits and
/// record, plus the tallies the workload drift guards read.
#[derive(Debug, Default)]
pub struct Checks {
    /// Rounds run, warm-up included.
    pub rounds: usize,
    /// Rounds whose program or bench-side audit was unclean.
    pub failed_rounds: usize,
    /// Every round's record, seed-major.
    pub records: Vec<RoundRecord>,
    /// Everything found wrong; the run is correct only when empty.
    pub problems: Vec<String>,
    timeouts: usize,
    resends: usize,
    recoveries: usize,
    moves: usize,
    transfers_started: usize,
    transfer_activity: usize,
    flap_disruptions: usize,
}

impl Checks {
    /// Audit round `t` of `seed` against the post-round cluster and fold
    /// its outcome into the guards. Returns the bench-side audit's wall
    /// milliseconds and violation count.
    fn round(
        &mut self,
        w: &Workload,
        fabric: &Fabric,
        seed: u64,
        t: usize,
        alerts: usize,
        out: &RoundOutcome,
    ) -> (f64, usize) {
        let cluster = &fabric.cluster;
        let (audit, audit_ms) = time_ms(|| {
            let mut report = audit_placement(&cluster.placement, &cluster.deps);
            let moved = out.plan.moves.iter().map(|m| (m.vm, m.to));
            report.merge(audit_moves(&cluster.placement, moved));
            report
        });
        self.rounds += 1;
        if !out.audit.is_clean() || !audit.is_clean() {
            self.failed_rounds += 1;
            self.problems.push(format!(
                "seed {seed} round {t}: {} program and {} bench-side audit violations",
                out.audit.len(),
                audit.len()
            ));
        }
        let vms = cluster.placement.vm_count() as f64;
        let want = (vms * w.alert_fraction).ceil() as usize;
        if alerts != want {
            self.problems.push(format!(
                "seed {seed} round {t}: {alerts} alerts, want {want} ({}% of VMs)",
                w.alert_fraction * 100.0
            ));
        }
        self.records.push(RoundRecord {
            moves: out.plan.moves.len(),
            cost: out.plan.total_cost,
            unplaced: out.plan.unplaced.len(),
            ticks: out.ticks,
            stddev_pct: cluster.utilization_stddev(),
        });
        self.timeouts += out.timeouts;
        self.resends += out.resends;
        self.recoveries += out.recoveries;
        self.moves += out.plan.moves.len();
        self.transfers_started += out.transfers_started;
        self.transfer_activity += out.transfers_started
            + out.transfers_completed
            + out.transfer_reroutes
            + out.transfer_stalls
            + out.transfer_retries
            + out.transfer_failures;
        if !fabric.runtime.cfg.link_faults.is_empty() {
            self.flap_disruptions += out.transfer_reroutes + out.transfer_stalls;
        }
        (audit_ms, audit.len())
    }

    /// The workload drift guards: each workload must keep exercising
    /// the layer it was chosen for.
    fn guard(&mut self, w: &Workload) {
        let mut fail = |ok: bool, what: String| {
            if !ok {
                self.problems.push(format!("{} drifted: {what}", w.name));
            }
        };
        if w.channel.drop > 0.0 {
            fail(self.timeouts > 0, "no request timed out".into());
            fail(self.resends > 0, "no request was resent".into());
            fail(self.recoveries > 0, "no shim recovered".into());
        }
        if w.transfer.is_some() {
            fail(
                self.transfers_started == self.moves,
                format!(
                    "{} transfers started for {} committed moves",
                    self.transfers_started, self.moves
                ),
            );
            fail(
                self.flap_disruptions > 0,
                "link flaps caused no reroute or stall".into(),
            );
        } else {
            fail(
                self.transfer_activity == 0,
                format!(
                    "{} transfer events without the model",
                    self.transfer_activity
                ),
            );
        }
    }
}

/// One `Runtime::step` on `fabric`.
fn step(
    fabric: &mut Fabric,
    alerts: &[Alert],
    values: &[f64],
    sink: &mut dyn EventSink,
) -> RoundOutcome {
    fabric.runtime.step(&mut RunCtx {
        cluster: &mut fabric.cluster,
        metric: &fabric.metric,
        alerts,
        alert_values: values,
        sink,
    })
}

/// What the timed pass measured.
#[derive(Debug, Default)]
pub struct TimedPass {
    /// Set-up seconds, one per seed.
    pub setup_s: Vec<f64>,
    /// Wall milliseconds of each timed round.
    pub round_ms: Vec<f64>,
    /// Committed moves over the timed rounds.
    pub moves: usize,
    /// Unplaced victims over the timed rounds.
    pub unplaced: usize,
    /// Eqn. 1 cost over the timed rounds.
    pub cost: f64,
    /// Utilisation std-dev after each seed's last round.
    pub final_stddev_pct: Vec<f64>,
    /// Audits, records and guards.
    pub checks: Checks,
}

/// Run `rounds` timed rounds (plus warm-up) on each of `seeds` seeds
/// from `first_seed`. A round is the alerts, the ALERT values and one
/// `step`, back to back: the next round starts when `step` returns.
pub fn timed_pass(
    w: &Workload,
    first_seed: u64,
    seeds: u64,
    rounds: usize,
) -> Result<TimedPass, SheriffError> {
    let mut pass = TimedPass::default();
    for seed in first_seed..first_seed + seeds {
        let (mut fabric, setup) = w.setup(seed)?;
        pass.setup_s.push(setup.total_s());
        for t in 0..=rounds {
            w.schedule_faults(&mut fabric, t);
            let ((alerts, out), ms) = time_ms(|| {
                let (alerts, values) = w.round_inputs(&fabric.cluster, t);
                let out = step(&mut fabric, &alerts, &values, &mut NullSink);
                (alerts.len(), out)
            });
            pass.checks.round(w, &fabric, seed, t, alerts, &out);
            if t > 0 {
                pass.round_ms.push(ms);
                pass.moves += out.plan.moves.len();
                pass.unplaced += out.plan.unplaced.len();
                pass.cost += out.plan.total_cost;
            }
        }
        pass.final_stddev_pct
            .push(fabric.cluster.utilization_stddev());
    }
    pass.checks.guard(w);
    Ok(pass)
}

/// Per-round wall samples of the traced pass, in milliseconds.
#[derive(Debug, Default)]
pub struct LayerMs {
    /// `fraction_alerts` plus the ALERT values.
    pub alerts: Vec<f64>,
    /// PRIORITY per alerted host.
    pub priority: Vec<f64>,
    /// Alg. 1 per alerted rack over its region, on a cloned cluster.
    pub plan: Vec<f64>,
    /// The traced `step`.
    pub step: Vec<f64>,
    /// `step` minus a twin `step` without the transfer model.
    pub transfer_delta: Vec<f64>,
    /// k-shortest paths for each committed move's rack pair.
    pub route: Vec<f64>,
    /// Bench-side `audit_placement` + `audit_moves`.
    pub audit: Vec<f64>,
}

/// What the traced pass measured.
#[derive(Debug, Default)]
pub struct TracedPass {
    /// Set-up stage times, one entry per seed.
    pub setup: Vec<SetupMs>,
    /// Per-round wall samples.
    pub ms: LayerMs,
    /// Event-kind and named counters of the timed rounds.
    pub counters: Counters,
    /// Alerts raised in the timed rounds.
    pub alerts: usize,
    /// Candidate (VM, destination) pairs the timed rounds' plans examined.
    pub search_space: usize,
    /// Victims (committed plus unplaced) of the timed rounds.
    pub victims: usize,
    /// REQUESTs rejected in the timed rounds.
    pub rejected: usize,
    /// Virtual ticks of each timed round.
    pub ticks: Vec<f64>,
    /// Transfer counts of the timed rounds: started, completed,
    /// reroutes, stalls, retries, failures.
    pub transfer: [usize; 6],
    /// Each timed round's p95 transfer completion, in virtual ticks.
    pub transfer_p95_ticks: Vec<f64>,
    /// Bench-side audit violations.
    pub audit_violations: usize,
    /// Audits, records and guards.
    pub checks: Checks,
}

/// PRIORITY for every alerted host, on the pre-round placement.
fn time_priority(cluster: &Cluster, alerts: &[Alert], values: &[f64]) -> f64 {
    let placement = &cluster.placement;
    let alert_of = |vm: dcn_topology::VmId| values[vm.index()];
    time_ms(|| {
        for a in alerts {
            if let AlertSource::Host(h) = a.source {
                let victims = priority(
                    placement.vms_on(h),
                    placement,
                    alert_of,
                    Budget::SingleMaxAlert,
                );
                black_box(victims);
            }
        }
    })
    .1
}

/// Alg. 1 (`pre_alert_management`) for every alerted rack over its
/// region, in rack order, on a clone of the pre-round cluster.
fn time_plan(
    cluster: &Cluster,
    metric: &RackMetric,
    alerts: &[Alert],
    values: &[f64],
    max_retry: usize,
) -> f64 {
    let mut c = cluster.clone();
    let mut racks: Vec<_> = alerts.iter().map(|a| a.rack).collect();
    racks.sort_unstable();
    racks.dedup();
    let alert_of = |vm: dcn_topology::VmId| values[vm.index()];
    time_ms(|| {
        for rack in racks {
            let region = c.region_of(rack);
            let mut ctx = MigrationContext {
                placement: &mut c.placement,
                inventory: &c.dcn.inventory,
                deps: &c.deps,
                metric,
                sim: &c.sim,
            };
            let outcome = pre_alert_management(
                &mut ctx, &c.dcn, None, rack, &region, alerts, &alert_of, max_retry,
            );
            black_box(outcome);
        }
    })
    .1
}

/// A traced `step` on clones of the pre-round cluster and runtime with
/// the transfer model switched off.
fn time_without_transfer(fabric: &Fabric, alerts: &[Alert], values: &[f64]) -> f64 {
    let mut cluster = fabric.cluster.clone();
    let mut runtime = fabric.runtime.clone();
    runtime.cfg.transfer = None;
    let mut ctx = RunCtx {
        cluster: &mut cluster,
        metric: &fabric.metric,
        alerts,
        alert_values: values,
        sink: &mut TallySink::default(),
    };
    time_ms(|| runtime.step(&mut ctx)).1
}

/// k-shortest paths between the racks of every inter-rack move.
fn time_routes(cluster: &Cluster, moves: &[Move], k: usize) -> f64 {
    let g = &cluster.dcn.graph;
    let node = |h| g.node_idx(NodeId::Rack(cluster.placement.rack_of_host(h)));
    time_ms(|| {
        for m in moves {
            if let (Some(src), Some(dst)) = (node(m.from), node(m.to)) {
                if src != dst {
                    black_box(k_shortest_paths(g, src, dst, k, |_| 1.0));
                }
            }
        }
    })
    .1
}

/// The timed pass's rounds again, with a counting sink and each layer's
/// public calls timed around the round.
pub fn traced_pass(
    w: &Workload,
    first_seed: u64,
    seeds: u64,
    rounds: usize,
) -> Result<TracedPass, SheriffError> {
    let mut pass = TracedPass::default();
    for seed in first_seed..first_seed + seeds {
        let (mut fabric, setup) = w.setup(seed)?;
        pass.setup.push(setup);
        for t in 0..=rounds {
            w.schedule_faults(&mut fabric, t);
            let ((alerts, values), alerts_ms) = time_ms(|| w.round_inputs(&fabric.cluster, t));
            let priority_ms = time_priority(&fabric.cluster, &alerts, &values);
            let max_retry = fabric.runtime.cfg.max_retry;
            let plan_ms = time_plan(&fabric.cluster, &fabric.metric, &alerts, &values, max_retry);
            let without_transfer_ms = w
                .transfer
                .as_ref()
                .map(|_| time_without_transfer(&fabric, &alerts, &values));
            let mut tally = TallySink::default();
            let (out, step_ms) = time_ms(|| step(&mut fabric, &alerts, &values, &mut tally));
            let route_ms = match &w.transfer {
                Some(tc) => time_routes(&fabric.cluster, &out.plan.moves, tc.k_paths),
                None => 0.0,
            };
            let (audit_ms, violations) = pass.checks.round(w, &fabric, seed, t, alerts.len(), &out);
            if t == 0 {
                continue;
            }
            let ms = &mut pass.ms;
            ms.alerts.push(alerts_ms);
            ms.priority.push(priority_ms);
            ms.plan.push(plan_ms);
            ms.step.push(step_ms);
            ms.transfer_delta
                .push(without_transfer_ms.map_or(0.0, |base| step_ms - base));
            ms.route.push(route_ms);
            ms.audit.push(audit_ms);
            pass.counters.merge(&tally.counters);
            pass.alerts += alerts.len();
            pass.search_space += out.plan.search_space;
            pass.victims += out.plan.moves.len() + out.plan.unplaced.len();
            pass.rejected += out.plan.rejected;
            pass.ticks.push(out.ticks as f64);
            let counts = [
                out.transfers_started,
                out.transfers_completed,
                out.transfer_reroutes,
                out.transfer_stalls,
                out.transfer_retries,
                out.transfer_failures,
            ];
            for (sum, n) in pass.transfer.iter_mut().zip(counts) {
                *sum += n;
            }
            pass.transfer_p95_ticks.push(out.transfer_p95_completion);
            pass.audit_violations += violations;
        }
    }
    pass.checks.guard(w);
    Ok(pass)
}
