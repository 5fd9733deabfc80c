//! Deterministic scenario execution: one system per (topology, seed)
//! job, run serially or fanned out over scoped threads.
//!
//! A job is a pure function of the spec, the topology variant and the
//! sweep seed — it builds its own [`Cluster`], its own fault state (the
//! private `faults` module, which turns the spec's `[[fault]]` actions
//! into the fabric's crash, link-fault and partition windows) and its
//! own event sink, and never shares mutable state with sibling jobs. The parallel path therefore produces byte-identical results to
//! the serial path: jobs are distributed over threads in contiguous
//! chunks and re-assembled in job order, and nothing inside a job can
//! observe scheduling (wall-clock durations travel outside the
//! deterministic state, see [`SeedRun::wall_nanos`]).

use crate::faults::Faults;
use crate::spec::{PredictorKind, RuntimeSpec, ScenarioSpec, SurgeSpec, TopologySpec};
use dcn_sim::engine::Cluster;
use dcn_sim::{
    alert::alert_value, Alert, AlertSource, ChannelFaults, HoltPredictor, LastValue,
    ProfilePredictor, RackMetric, SheriffError,
};
use dcn_topology::{HostId, RackId};
use sheriff_core::{
    drain_rack, evacuate_host, CentralizedRuntime, FabricConfig, FabricRuntime, MigrationContext,
    MigrationPlan, RoundOutcome, RunCtx, Runtime,
};
use sheriff_obs::{Counters, Event, EventSink};

/// Event sink used by every job: folds the event stream into a counter
/// per [`Event::kind`] and keeps the runtimes' own named counters.
/// Wall-clock timings are deliberately dropped — they are the one
/// non-deterministic signal, and they must not reach the report's
/// canonical form.
#[derive(Debug, Default, Clone)]
pub struct TallySink {
    /// Event-kind and named-counter tallies for one seed run.
    pub counters: Counters,
}

impl EventSink for TallySink {
    fn record(&mut self, event: Event) {
        self.counters.add(event.kind(), 1);
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        self.counters.add(name, delta);
    }
}

/// Everything measured in one management round of one seed run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundStat {
    /// Round index (0-based).
    pub round: usize,
    /// Utilisation std-dev (percent) *after* the round.
    pub stddev_pct: f64,
    /// Alerts served this round.
    pub alerts: usize,
    /// Alerts whose host really exceeds the threshold at the predicted
    /// step (trace mode; equals `alerts` in fraction mode, where alerts
    /// are by construction the hottest hosts).
    pub true_alerts: usize,
    /// Hosts above the alert threshold after the round.
    pub overloaded_hosts: usize,
    /// VMs evacuated by the backup system this round (host/rack faults).
    pub evacuated: usize,
    /// What the runtime reported: the committed plan, the protocol and
    /// transfer counters, and the post-round audit.
    pub outcome: RoundOutcome,
}

/// The full deterministic record of one (topology, seed) job.
#[derive(Debug, Clone)]
pub struct SeedRun {
    /// Sweep seed that drove this run.
    pub seed: u64,
    /// Topology label ([`TopologySpec::label`]).
    pub topology: String,
    /// Utilisation std-dev (percent) before round 0.
    pub initial_stddev_pct: f64,
    /// Per-round measurements, `rounds` entries.
    pub rounds: Vec<RoundStat>,
    /// Merged event-kind / named-counter tallies.
    pub counters: Counters,
    /// Wall-clock duration of the job. NOT part of the deterministic
    /// state — excluded from the report's canonical JSON.
    pub wall_nanos: u64,
}

/// Executes a [`ScenarioSpec`]'s sweep, serially or in parallel.
#[derive(Debug, Clone)]
pub struct ScenarioRunner {
    /// The validated scenario.
    pub spec: ScenarioSpec,
    /// Fan jobs out over scoped threads (default) or run them in order
    /// on the calling thread.
    pub parallel: bool,
    /// Worker threads for the parallel path (0 = one per available CPU,
    /// capped at the job count).
    pub threads: usize,
}

impl ScenarioRunner {
    /// Runner with the default execution policy (parallel, auto threads).
    pub fn new(spec: ScenarioSpec) -> Self {
        Self {
            spec,
            parallel: true,
            threads: 0,
        }
    }

    /// Run every (topology, seed) job and return the runs in job order
    /// (topology-major, then seed) — identical regardless of `parallel`.
    pub fn run(&self) -> Result<Vec<SeedRun>, SheriffError> {
        let jobs: Vec<(usize, usize)> = (0..self.spec.topologies.len())
            .flat_map(|ti| (0..self.spec.seeds.len()).map(move |si| (ti, si)))
            .collect();
        if !self.parallel || jobs.len() <= 1 {
            return jobs
                .iter()
                .map(|&(ti, si)| run_job(&self.spec, ti, si))
                .collect();
        }
        let workers = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
        .clamp(1, jobs.len());
        // contiguous chunks keep the re-assembly a plain concatenation
        let chunk = jobs.len().div_ceil(workers);
        let spec = &self.spec;
        let outcome: Result<Vec<Vec<Result<SeedRun, SheriffError>>>, _> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = jobs
                    .chunks(chunk)
                    .map(|part| {
                        scope.spawn(move || {
                            part.iter()
                                .map(|&(ti, si)| run_job(spec, ti, si))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
        let mut runs = Vec::with_capacity(jobs.len());
        for part in outcome.map_err(|_| SheriffError::Invalid {
            reason: "scenario worker panicked".to_string(),
        })? {
            for run in part {
                runs.push(run?);
            }
        }
        Ok(runs)
    }
}

/// The two management loops behind one dispatch point. A plain enum
/// (not `Box<dyn Runtime>`) so the fabric arm's [`FabricConfig`] stays
/// reachable for per-round channel-phase and crash-list updates.
#[allow(clippy::large_enum_variant)] // one Loop per job; the fabric arm carries its failover state
enum Loop {
    Centralized(CentralizedRuntime),
    Fabric(FabricRuntime),
}

impl Loop {
    fn build(spec: &RuntimeSpec, channel: &ChannelFaults, seed: u64) -> Self {
        match *spec {
            RuntimeSpec::Centralized { max_rounds } => {
                Loop::Centralized(CentralizedRuntime { max_rounds })
            }
            RuntimeSpec::Fabric {
                max_retry,
                transfer,
            } => {
                let mut cfg = FabricConfig::for_channel(channel.clone(), seed);
                cfg.max_retry = max_retry;
                if let Some(ts) = transfer {
                    cfg = cfg.with_transfer(ts);
                }
                Loop::Fabric(FabricRuntime::with_config(cfg))
            }
        }
    }

    fn step(&mut self, ctx: &mut RunCtx<'_>) -> RoundOutcome {
        match self {
            Loop::Centralized(rt) => rt.step(ctx),
            Loop::Fabric(rt) => rt.step(ctx),
        }
    }
}

/// splitmix64 — the deterministic per-VM coin for surge membership.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether `vm` is in the surge's deterministic `fraction`-sized subset.
fn surge_hits(seed: u64, surge_index: usize, vm: usize, fraction: f64) -> bool {
    let h = splitmix64(seed ^ (surge_index as u64).rotate_left(32) ^ (vm as u64));
    // top 53 bits → uniform in [0, 1)
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    u < fraction
}

/// Overlay the spec's surges onto the cluster's synthetic traces.
fn apply_surges(cluster: &mut Cluster, surges: &[SurgeSpec], seed: u64) {
    for (i, s) in surges.iter().enumerate() {
        for vm in 0..cluster.workloads.len() {
            if surge_hits(seed, i, vm, s.fraction) {
                cluster.workloads[vm].apply_surge(s.start, s.duration, s.factor);
            }
        }
    }
}

/// A predictor chosen by the spec, behind one dispatch point.
enum Predictor {
    Holt(HoltPredictor),
    Last(LastValue),
}

impl Predictor {
    fn build(kind: &PredictorKind) -> Self {
        match *kind {
            PredictorKind::Holt { alpha, beta } => Predictor::Holt(HoltPredictor { alpha, beta }),
            PredictorKind::LastValue => Predictor::Last(LastValue),
        }
    }
}

impl ProfilePredictor for Predictor {
    fn predict(&self, workload: &dcn_sim::VmWorkload, t: usize) -> dcn_sim::Profile {
        match self {
            Predictor::Holt(p) => p.predict(workload, t),
            Predictor::Last(p) => p.predict(workload, t),
        }
    }
}

/// The backup system of Sec. III-A: place every VM stranded by a host
/// or rack failure somewhere live, via the same matching machinery as
/// VMMIGRATION. Returns the merged evacuation plan.
fn evacuate(
    cluster: &mut Cluster,
    metric: &RackMetric,
    stranded: &[HostId],
    drained: &[RackId],
) -> Result<MigrationPlan, SheriffError> {
    let mut plan = MigrationPlan::default();
    for rack in drained.iter().copied() {
        let region = cluster.region_of(rack);
        let mut ctx = MigrationContext {
            placement: &mut cluster.placement,
            inventory: &cluster.dcn.inventory,
            deps: &cluster.deps,
            metric,
            sim: &cluster.sim,
        };
        plan.absorb(drain_rack(&mut ctx, rack, &region, 3)?);
    }
    for &host in stranded {
        let rack = cluster.placement.rack_of_host(host);
        // hosts inside a drained rack were already handled above
        if drained.contains(&rack) {
            continue;
        }
        let region = cluster.region_of(rack);
        let mut ctx = MigrationContext {
            placement: &mut cluster.placement,
            inventory: &cluster.dcn.inventory,
            deps: &cluster.deps,
            metric,
            sim: &cluster.sim,
        };
        plan.absorb(evacuate_host(&mut ctx, host, &region, 3)?);
    }
    Ok(plan)
}

/// Run one (topology, seed) job to completion.
pub(crate) fn run_job(
    spec: &ScenarioSpec,
    topology_index: usize,
    seed_index: usize,
) -> Result<SeedRun, SheriffError> {
    #[allow(clippy::disallowed_methods)]
    // sheriff-lint: allow(DET01, "wall clock feeds only wall_time_ms, which canonical_json excludes from the deterministic report")
    let start = std::time::Instant::now();
    let topo: &TopologySpec = &spec.topologies[topology_index];
    let seed = spec.seeds[seed_index];
    let trace = spec.trace_mode();

    let dcn = topo.build();
    let mut ccfg = spec.cluster.clone();
    ccfg.seed = seed;
    let mut cluster = Cluster::try_build(dcn, &ccfg, spec.sim.clone())?;
    if trace {
        apply_surges(&mut cluster, &spec.workload.surges, seed);
    }
    let predictor = Predictor::build(&spec.workload.predictor);
    let threshold = cluster.sim.alert_threshold;

    let mut faults = Faults::default();
    let mut metric = RackMetric::build(&cluster.dcn, &cluster.sim);
    let mut runtime = Loop::build(&spec.runtime, &spec.channel, seed);
    let mut sink = TallySink::default();
    let mut phase_cursor = 0usize;

    let initial_stddev_pct = cluster.utilization_stddev();
    let mut rounds = Vec::with_capacity(spec.rounds);

    for t in 0..spec.rounds {
        // 1. scheduled faults fire at the start of the round
        for ev in spec.faults.iter().filter(|e| e.round == t) {
            faults.apply(&ev.action, &mut cluster, &mut sink);
        }
        if std::mem::take(&mut faults.links_changed) {
            metric = RackMetric::build(&cluster.dcn, &cluster.sim);
        }
        // 2. the backup system resolves crash errors before management
        let evac = evacuate(&mut cluster, &metric, &faults.stranded, &faults.drained)?;

        // 3. the round's fault windows; taking them applies each timed
        // link window's end-state to the topology graph, so the metric
        // is rebuilt when that end-state changed a link
        let (crashed, link_faults, partitions) = faults.windows(&mut cluster.dcn);
        if std::mem::take(&mut faults.links_changed) {
            metric = RackMetric::build(&cluster.dcn, &cluster.sim);
        }

        // 4. raise this round's pre-alerts
        let mut alerts: Vec<Alert> = if trace {
            cluster.predicted_alerts(&predictor, t)
        } else {
            cluster.fraction_alerts(spec.workload.alert_fraction, t)
        };
        match &mut runtime {
            // channel phases re-shape the fabric's control channel, and
            // the fabric runs the fault windows in virtual time: a
            // crashed shim serves no alerts through its liveness ladder
            Loop::Fabric(rt) => {
                while phase_cursor < spec.channel_phases.len()
                    && spec.channel_phases[phase_cursor].round <= t
                {
                    let phase = &spec.channel_phases[phase_cursor];
                    rt.cfg.faults = phase.faults.clone();
                    phase_cursor += 1;
                }
                rt.cfg.crashed = crashed;
                rt.cfg.link_faults = link_faults;
                rt.cfg.partitions = partitions;
            }
            // without virtual time every crash window is whole-round: the
            // crashed shim serves none of its alerts
            Loop::Centralized(_) => alerts.retain(|a| crashed.iter().all(|w| w.rack != a.rack)),
        }
        let true_alerts = if trace {
            alerts
                .iter()
                .filter(|a| match a.source {
                    AlertSource::Host(h) => cluster
                        .placement
                        .vms_on(h)
                        .iter()
                        .any(|&vm| cluster.profile_at(vm, t + 1).exceeds(threshold)),
                    _ => false,
                })
                .count()
        } else {
            alerts.len()
        };

        // 5. ALERT magnitudes per VM (PRIORITY's w = 1 ordering)
        let alert_values: Vec<f64> = if trace {
            cluster
                .placement
                .vm_ids()
                .map(|vm| {
                    let predicted = predictor.predict(&cluster.workloads[vm.index()], t);
                    alert_value(&predicted, threshold)
                })
                .collect()
        } else {
            cluster
                .placement
                .vm_ids()
                .map(|vm| cluster.placement.utilization(cluster.placement.host_of(vm)))
                .collect()
        };

        // 6. one management round through the Runtime trait
        let alert_count = alerts.len();
        let outcome = {
            let mut ctx = RunCtx {
                cluster: &mut cluster,
                metric: &metric,
                alerts: &alerts,
                alert_values: &alert_values,
                sink: &mut sink,
            };
            runtime.step(&mut ctx)
        };

        // 7. measure the post-round state
        let overloaded_hosts = (0..cluster.placement.host_count())
            .map(HostId::from_index)
            .filter(|&h| {
                cluster.placement.is_host_online(h) && cluster.placement.utilization(h) > threshold
            })
            .count();
        rounds.push(RoundStat {
            round: t,
            stddev_pct: cluster.utilization_stddev(),
            alerts: alert_count,
            true_alerts,
            overloaded_hosts,
            evacuated: evac.moves.len(),
            outcome,
        });
    }

    Ok(SeedRun {
        seed,
        topology: topo.label(),
        initial_stddev_pct,
        rounds,
        counters: sink.counters,
        wall_nanos: start.elapsed().as_nanos() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    fn small_spec(extra: &str) -> ScenarioSpec {
        let src = format!(
            r#"
name = "test"
title = "test scenario"
rounds = 3
seeds = [7, 8]

[topology]
kind = "fat_tree"
pods = 4

[cluster]
vms_per_host = 2.0
skew = 3.0
{extra}
"#
        );
        ScenarioSpec::parse_str(&src).expect("spec parses")
    }

    #[test]
    fn serial_and_parallel_runs_are_identical() {
        let spec = small_spec("");
        let mut serial = ScenarioRunner::new(spec.clone());
        serial.parallel = false;
        let mut parallel = ScenarioRunner::new(spec);
        parallel.threads = 2;
        let a = serial.run().unwrap();
        let b = parallel.run().unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.topology, y.topology);
            assert_eq!(x.rounds, y.rounds);
            assert_eq!(x.initial_stddev_pct, y.initial_stddev_pct);
            let xc: Vec<_> = x.counters.iter().collect();
            let yc: Vec<_> = y.counters.iter().collect();
            assert_eq!(xc, yc);
        }
    }

    #[test]
    fn rounds_reduce_imbalance() {
        let spec = small_spec("");
        let runs = ScenarioRunner::new(spec).run().unwrap();
        for run in &runs {
            let last = run.rounds.last().unwrap();
            assert!(
                last.stddev_pct < run.initial_stddev_pct,
                "seed {}: {} -> {}",
                run.seed,
                run.initial_stddev_pct,
                last.stddev_pct
            );
        }
    }

    #[test]
    fn host_failure_triggers_evacuation() {
        let spec = small_spec("\n[[fault]]\nround = 1\naction = \"fail_host\"\nhost = 0\n");
        let runs = ScenarioRunner::new(spec).run().unwrap();
        for run in &runs {
            // host 0 held VMs in these seeds; round 1 must evacuate them
            assert!(
                run.rounds[1].evacuated > 0,
                "seed {}: no evacuation recorded",
                run.seed
            );
            assert_eq!(run.counters.get("fault_injected"), 1);
        }
    }

    #[test]
    fn crashed_shim_suppresses_its_alerts() {
        // crash every shim: no alerts can be served at all
        let mut faults = String::new();
        for r in 0..16 {
            faults.push_str(&format!(
                "\n[[fault]]\nround = 0\naction = \"crash_shim\"\nrack = {r}\n"
            ));
        }
        let spec = small_spec(&faults);
        let runs = ScenarioRunner::new(spec).run().unwrap();
        for run in &runs {
            for rs in &run.rounds {
                assert!(
                    rs.outcome.plan.moves.is_empty(),
                    "seed {}: moves under total crash",
                    run.seed
                );
            }
        }
    }

    #[test]
    fn centralized_drops_alerts_of_a_shim_that_recovers_within_the_round() {
        // the centralized runtime has no virtual time, so a crash that
        // recovers within its round counts as whole-round: it must serve
        // what a whole-round crash followed by `recover_shim` serves
        let run = |faults: &str| {
            let src = format!(
                r#"
name = "test"
rounds = 3
seeds = [7]

[topology]
kind = "fat_tree"
pods = 4

[cluster]
vms_per_host = 1.5
skew = 2.0

[workload]
alert_fraction = 0.3

[runtime]
kind = "centralized"
{faults}"#
            );
            let spec = ScenarioSpec::parse_str(&src).expect("spec parses");
            ScenarioRunner::new(spec).run().unwrap().remove(0).rounds
        };
        let timed = run(
            "\n[[fault]]\nround = 1\naction = \"crash_shim\"\nrack = 0\ncrash_at = 2\nrecover_at = 5\n",
        );
        let whole = run(
            "\n[[fault]]\nround = 1\naction = \"crash_shim\"\nrack = 0\n\
             \n[[fault]]\nround = 2\naction = \"recover_shim\"\nrack = 0\n",
        );
        let alerts: Vec<usize> = timed.iter().map(|r| r.alerts).collect();
        assert_eq!(alerts, vec![8, 7, 8]);
        assert_eq!(timed, whole);
    }

    #[test]
    fn surge_subset_is_deterministic_and_sized() {
        let n = 10_000;
        let hits = (0..n).filter(|&vm| surge_hits(42, 0, vm, 0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.03, "got {frac}");
        for vm in 0..100 {
            assert_eq!(
                surge_hits(42, 0, vm, 0.3),
                surge_hits(42, 0, vm, 0.3),
                "vm {vm} flapped"
            );
        }
    }
}
