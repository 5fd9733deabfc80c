//! The typed scenario specification and its validation.
//!
//! A scenario file (TOML or JSON, parsed by [`crate::value`]) is checked
//! into a [`ScenarioSpec`]: unknown keys are errors, every field is
//! range-checked before any topology is built, and [`ScenarioSpec::validate`]
//! additionally returns *warnings* for spec smells that are legal but
//! probably unintended (a fault scheduled after the last round, channel
//! phases under a runtime that ignores the channel, ...). DESIGN.md §8
//! maps each section to the paper knob it drives.

use crate::value::Value;
use dcn_sim::engine::ClusterConfig;
use dcn_sim::{ChannelFaults, SheriffError, SimConfig};
use dcn_topology::bcube::{self, BCubeConfig};
use dcn_topology::dcell::{self, DCellConfig};
use dcn_topology::fattree::{self, FatTreeConfig};
use dcn_topology::vl2::{self, Vl2Config};
use dcn_topology::Dcn;
use sheriff_core::TransferConfig;
use std::collections::BTreeMap;
use std::path::Path;

fn invalid(reason: String) -> SheriffError {
    SheriffError::Invalid { reason }
}

/// Most hosts a scenario topology may have. A Fat-Tree with k = 128
/// (524,288 hosts) fits; a mutated size cannot ask for billions.
const MAX_HOSTS: usize = 1 << 20;

/// Which DCN substrate a scenario variant runs on, plus its size knobs.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// `k`-pod Fat-Tree (paper Sec. VI-B; `pods` even, ≥ 2).
    FatTree {
        /// Pod count `k`.
        pods: usize,
        /// Servers per rack; defaults to the classical `k/2`.
        hosts_per_rack: Option<usize>,
    },
    /// BCube(n, 1) as in Fig. 10 (`n` ≥ 2).
    BCube {
        /// Switch port count / servers per BCube₀.
        n: usize,
    },
    /// DCell(n, k) extension topology (`n` ≥ 2).
    DCell {
        /// Servers per DCell₀.
        n: usize,
        /// Recursion level.
        k: usize,
    },
    /// VL2 Clos fabric extension (`d_a` even ≥ 4, `d_i` even ≥ 2).
    Vl2 {
        /// Aggregation-switch port count `D_A`.
        d_a: usize,
        /// Intermediate-switch port count `D_I`.
        d_i: usize,
    },
}

impl TopologySpec {
    /// A stable label for report columns, e.g. `fat_tree_8`.
    pub fn label(&self) -> String {
        match self {
            TopologySpec::FatTree { pods, .. } => format!("fat_tree_{pods}"),
            TopologySpec::BCube { n } => format!("bcube_{n}"),
            TopologySpec::DCell { n, k } => format!("dcell_{n}_{k}"),
            TopologySpec::Vl2 { d_a, d_i } => format!("vl2_{d_a}_{d_i}"),
        }
    }

    /// Hosts the built network would have, or `None` when the count
    /// overflows `usize`; computed from the size knobs, building nothing.
    fn host_count(&self) -> Option<usize> {
        match *self {
            TopologySpec::FatTree {
                pods,
                hosts_per_rack,
            } => {
                let per_rack = hosts_per_rack.unwrap_or(FatTreeConfig::paper(pods).hosts_per_rack);
                (pods.checked_mul(pods)? / 2).checked_mul(per_rack)
            }
            TopologySpec::BCube { n } => {
                let cfg = BCubeConfig::paper(n);
                let racks = n.checked_pow(cfg.k as u32 + 1)?;
                racks.checked_mul(cfg.hosts_per_rack)
            }
            TopologySpec::DCell { n, k } => {
                // t_k = t_{k-1} (t_{k-1} + 1) overflows within a few
                // levels for any n >= 2, so the loop stops early
                let mut racks = n;
                for _ in 0..k {
                    racks = racks.checked_mul(racks.checked_add(1)?)?;
                }
                racks.checked_mul(DCellConfig::paper(n, k).hosts_per_rack)
            }
            TopologySpec::Vl2 { d_a, d_i } => {
                (d_a.checked_mul(d_i)? / 4).checked_mul(Vl2Config::paper(d_a, d_i).hosts_per_rack)
            }
        }
    }

    /// Check the size constraints the builders assert on, and that the
    /// network has at most 2²⁰ hosts (a Fat-Tree with k = 128 has
    /// 524,288), so no size knob can ask a build for billions.
    pub fn validate(&self) -> Result<(), SheriffError> {
        match *self {
            TopologySpec::FatTree {
                pods,
                hosts_per_rack,
            } => {
                if pods < 2 || pods % 2 != 0 {
                    return Err(invalid(format!(
                        "fat_tree pods must be even and >= 2, got {pods}"
                    )));
                }
                if hosts_per_rack == Some(0) {
                    return Err(invalid("fat_tree hosts_per_rack must be >= 1".into()));
                }
            }
            TopologySpec::BCube { n } => {
                if n < 2 {
                    return Err(invalid(format!("bcube n must be >= 2, got {n}")));
                }
            }
            TopologySpec::DCell { n, .. } => {
                if n < 2 {
                    return Err(invalid(format!("dcell n must be >= 2, got {n}")));
                }
            }
            TopologySpec::Vl2 { d_a, d_i } => {
                if d_a < 4 || d_a % 2 != 0 {
                    return Err(invalid(format!("vl2 d_a must be even and >= 4, got {d_a}")));
                }
                if d_i < 2 || d_i % 2 != 0 {
                    return Err(invalid(format!("vl2 d_i must be even and >= 2, got {d_i}")));
                }
            }
        }
        match self.host_count() {
            Some(hosts) if hosts <= MAX_HOSTS => Ok(()),
            Some(hosts) => Err(invalid(format!(
                "topology {} has {hosts} hosts, more than the {MAX_HOSTS} supported",
                self.label()
            ))),
            None => Err(invalid(format!(
                "topology {} has more hosts than a usize can count",
                self.label()
            ))),
        }
    }

    /// Build the network.
    pub fn build(&self) -> Dcn {
        match *self {
            TopologySpec::FatTree {
                pods,
                hosts_per_rack,
            } => {
                let mut cfg = FatTreeConfig::paper(pods);
                if let Some(h) = hosts_per_rack {
                    cfg.hosts_per_rack = h;
                }
                fattree::build(&cfg)
            }
            TopologySpec::BCube { n } => bcube::build(&BCubeConfig::paper(n)),
            TopologySpec::DCell { n, k } => dcell::build(&DCellConfig::paper(n, k)),
            TopologySpec::Vl2 { d_a, d_i } => vl2::build(&Vl2Config::paper(d_a, d_i)),
        }
    }
}

/// Which workload-profile predictor raises the pre-alerts (Sec. IV-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictorKind {
    /// Double exponential smoothing (Holt's method).
    Holt {
        /// Level smoothing factor.
        alpha: f64,
        /// Trend smoothing factor.
        beta: f64,
    },
    /// Naive last-value predictor.
    LastValue,
}

impl Default for PredictorKind {
    fn default() -> Self {
        PredictorKind::Holt {
            alpha: 0.5,
            beta: 0.2,
        }
    }
}

/// One surge/burst overlay multiplying a window of the workload traces —
/// the bursty scenarios motivated by the early-warning related work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurgeSpec {
    /// First affected round.
    pub start: usize,
    /// Window length in rounds.
    pub duration: usize,
    /// Multiplier applied to every workload feature (clamped to [0, 1]).
    pub factor: f64,
    /// Fraction of VMs hit by the surge (chosen deterministically).
    pub fraction: f64,
}

/// Workload / alert-generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Fraction of VMs alerting per round in trace-less mode (the
    /// Fig. 9–14 protocol; used when `cluster.workload_len == 0`).
    pub alert_fraction: f64,
    /// Predictor driving `predicted_alerts` in trace mode.
    pub predictor: PredictorKind,
    /// Surge overlays applied to the synthetic traces.
    pub surges: Vec<SurgeSpec>,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self {
            alert_fraction: 0.05,
            predictor: PredictorKind::default(),
            surges: Vec::new(),
        }
    }
}

/// Which management loop runs the rounds, via the `Runtime` trait.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RuntimeSpec {
    /// Global manager baseline (Sec. VI-B).
    Centralized {
        /// Replan rounds for the global matching.
        max_rounds: usize,
    },
    /// Sheriff's per-rack shims negotiating over the virtual-time fabric
    /// (`kind = "distributed"` is an alias).
    Fabric {
        /// Replan rounds per shim after the first.
        max_retry: usize,
        /// Optional migration transfer model (pre-copies stream over
        /// the core at finite bandwidth instead of committing
        /// instantly).
        transfer: Option<TransferConfig>,
    },
}

impl Default for RuntimeSpec {
    fn default() -> Self {
        RuntimeSpec::Fabric {
            max_retry: 3,
            transfer: None,
        }
    }
}

impl RuntimeSpec {
    /// Stable runtime name matching `Runtime::name()`.
    pub fn name(&self) -> &'static str {
        match self {
            RuntimeSpec::Centralized { .. } => "centralized",
            RuntimeSpec::Fabric { .. } => "fabric",
        }
    }
}

/// A scheduled fault action (applied at the *start* of its round).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Kill one link by edge index. With the optional virtual-time
    /// fields the failure happens *mid-round* on the fabric runtime's
    /// transfer plane: the link dies at tick `fail_at` and — when
    /// `restore_at` is set — comes back within the same round. Omitting
    /// both keeps the whole-round, round-boundary semantics.
    FailLink {
        /// Edge index in the topology graph.
        link: usize,
        /// Virtual tick (within the round) at which the link dies;
        /// `None` means "down from tick 0" (round-boundary failure).
        fail_at: Option<u64>,
        /// Virtual tick at which the link comes back; `None` means it
        /// stays down until a `restore_link` action names it.
        restore_at: Option<u64>,
    },
    /// Restore a previously failed link.
    RestoreLink {
        /// Edge index in the topology graph.
        link: usize,
    },
    /// Fail a host; its VMs are evacuated by the backup system.
    FailHost {
        /// Host index.
        host: usize,
    },
    /// Bring a failed host back online.
    RestoreHost {
        /// Host index.
        host: usize,
    },
    /// Fail every host of a rack and crash its shim (ToR failure).
    FailRack {
        /// Rack index.
        rack: usize,
    },
    /// Restore a failed rack's hosts and recover its shim.
    RestoreRack {
        /// Rack index.
        rack: usize,
    },
    /// Crash a rack's shim process only (hosts keep running). With the
    /// optional virtual-time fields the crash happens *mid-round* on the
    /// fabric runtime: the shim dies at tick `crash_at` and — when
    /// `recover_at` is set — replays its intent journal and rejoins at
    /// that tick. Omitting both keeps the whole-round semantics.
    CrashShim {
        /// Rack index.
        rack: usize,
        /// Virtual tick (within the round) at which the shim dies;
        /// `None` means "down from tick 0".
        crash_at: Option<u64>,
        /// Virtual tick at which the shim recovers; `None` means it
        /// stays down into the following rounds.
        recover_at: Option<u64>,
    },
    /// Recover a crashed shim.
    RecoverShim {
        /// Rack index.
        rack: usize,
    },
    /// Cut a named set of racks off from the rest of the cluster in the
    /// fabric round's virtual time: traffic crossing the cut is silently
    /// swallowed from tick `start_at`. With `heal_at` set the cut heals
    /// within the same round; without it the partition stands across
    /// rounds until a `heal` action names it.
    Partition {
        /// Name the partition is later healed by.
        name: String,
        /// Rack indices on the minority side of the cut.
        racks: Vec<usize>,
        /// Virtual tick (within the round) the cut starts.
        start_at: u64,
        /// Virtual tick the cut heals, if within this round.
        heal_at: Option<u64>,
    },
    /// Heal a standing named partition at tick `heal_at` of the round.
    HealPartition {
        /// Name given to the earlier `partition` action.
        name: String,
        /// Virtual tick (within the round) the cut heals.
        heal_at: u64,
    },
}

/// One entry of the fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Round at whose start the action fires.
    pub round: usize,
    /// What happens.
    pub action: FaultAction,
}

/// A channel-fault phase: from `round` on, the fabric's control channel
/// behaves per `faults` (until a later phase replaces it).
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelPhase {
    /// First round the phase applies to.
    pub round: usize,
    /// The channel fault model during the phase.
    pub faults: ChannelFaults,
}

/// A fully-validated scenario: everything a sweep needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Report id (also the default output file stem).
    pub name: String,
    /// Human-readable title.
    pub title: String,
    /// Management rounds per seed.
    pub rounds: usize,
    /// Seed sweep; one independent system per seed.
    pub seeds: Vec<u64>,
    /// Topology variants (more than one = comparison scenario).
    pub topologies: Vec<TopologySpec>,
    /// Cluster population parameters (seed is overridden per sweep seed).
    pub cluster: ClusterConfig,
    /// Workload / alert generation.
    pub workload: WorkloadSpec,
    /// Management loop choice.
    pub runtime: RuntimeSpec,
    /// Simulation parameters (thresholds, cost weights).
    pub sim: SimConfig,
    /// The fabric's control-channel fault model (`[sim.channel]`); the
    /// centralized runtime sends no messages.
    pub channel: ChannelFaults,
    /// Scheduled faults, sorted by round.
    pub faults: Vec<FaultEvent>,
    /// Channel fault phases, sorted by round.
    pub channel_phases: Vec<ChannelPhase>,
}

// -------------------------------------------------------- value helpers

fn check_keys(
    table: &BTreeMap<String, Value>,
    allowed: &[&str],
    section: &str,
) -> Result<(), SheriffError> {
    for key in table.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(invalid(format!(
                "unknown key {key:?} in {section} (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn want_table<'v>(v: &'v Value, what: &str) -> Result<&'v BTreeMap<String, Value>, SheriffError> {
    v.as_table()
        .ok_or_else(|| invalid(format!("{what} must be a table, got {}", v.type_name())))
}

fn get_f64(
    t: &BTreeMap<String, Value>,
    key: &str,
    section: &str,
) -> Result<Option<f64>, SheriffError> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| invalid(format!("{section}.{key} must be a number"))),
    }
}

fn get_usize(
    t: &BTreeMap<String, Value>,
    key: &str,
    section: &str,
) -> Result<Option<usize>, SheriffError> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => {
            let i = v
                .as_i64()
                .ok_or_else(|| invalid(format!("{section}.{key} must be an integer")))?;
            usize::try_from(i)
                .map(Some)
                .map_err(|_| invalid(format!("{section}.{key} must be >= 0, got {i}")))
        }
    }
}

fn get_u64(
    t: &BTreeMap<String, Value>,
    key: &str,
    section: &str,
) -> Result<Option<u64>, SheriffError> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => {
            let i = v
                .as_i64()
                .ok_or_else(|| invalid(format!("{section}.{key} must be an integer")))?;
            u64::try_from(i)
                .map(Some)
                .map_err(|_| invalid(format!("{section}.{key} must be >= 0, got {i}")))
        }
    }
}

fn get_str<'t>(
    t: &'t BTreeMap<String, Value>,
    key: &str,
    section: &str,
) -> Result<Option<&'t str>, SheriffError> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| invalid(format!("{section}.{key} must be a string"))),
    }
}

fn get_usize_list(
    t: &BTreeMap<String, Value>,
    key: &str,
    section: &str,
) -> Result<Option<Vec<usize>>, SheriffError> {
    match t.get(key) {
        None => Ok(None),
        Some(Value::Array(a)) => a
            .iter()
            .map(|v| {
                let i = v
                    .as_i64()
                    .ok_or_else(|| invalid(format!("{section}.{key} must be integers")))?;
                usize::try_from(i)
                    .map_err(|_| invalid(format!("{section}.{key} entries must be >= 0, got {i}")))
            })
            .collect::<Result<Vec<usize>, SheriffError>>()
            .map(Some),
        Some(v) => Err(invalid(format!(
            "{section}.{key} must be an array, got {}",
            v.type_name()
        ))),
    }
}

fn get_pair(
    t: &BTreeMap<String, Value>,
    key: &str,
    section: &str,
) -> Result<Option<(f64, f64)>, SheriffError> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => {
            let a = v
                .as_array()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| invalid(format!("{section}.{key} must be a [lo, hi] pair")))?;
            let lo = a[0]
                .as_f64()
                .ok_or_else(|| invalid(format!("{section}.{key}[0] must be a number")))?;
            let hi = a[1]
                .as_f64()
                .ok_or_else(|| invalid(format!("{section}.{key}[1] must be a number")))?;
            Ok(Some((lo, hi)))
        }
    }
}

// -------------------------------------------------------- section parsers

fn parse_topology(v: &Value) -> Result<TopologySpec, SheriffError> {
    let t = want_table(v, "topology")?;
    let kind = get_str(t, "kind", "topology")?
        .ok_or_else(|| invalid("topology.kind is required".into()))?;
    let spec = match kind {
        "fat_tree" | "fattree" => {
            check_keys(t, &["kind", "pods", "hosts_per_rack"], "topology")?;
            TopologySpec::FatTree {
                pods: get_usize(t, "pods", "topology")?
                    .ok_or_else(|| invalid("topology.pods is required for fat_tree".into()))?,
                hosts_per_rack: get_usize(t, "hosts_per_rack", "topology")?,
            }
        }
        "bcube" => {
            check_keys(t, &["kind", "n"], "topology")?;
            TopologySpec::BCube {
                n: get_usize(t, "n", "topology")?
                    .ok_or_else(|| invalid("topology.n is required for bcube".into()))?,
            }
        }
        "dcell" => {
            check_keys(t, &["kind", "n", "k"], "topology")?;
            TopologySpec::DCell {
                n: get_usize(t, "n", "topology")?
                    .ok_or_else(|| invalid("topology.n is required for dcell".into()))?,
                k: get_usize(t, "k", "topology")?.unwrap_or(1),
            }
        }
        "vl2" => {
            check_keys(t, &["kind", "d_a", "d_i"], "topology")?;
            TopologySpec::Vl2 {
                d_a: get_usize(t, "d_a", "topology")?
                    .ok_or_else(|| invalid("topology.d_a is required for vl2".into()))?,
                d_i: get_usize(t, "d_i", "topology")?
                    .ok_or_else(|| invalid("topology.d_i is required for vl2".into()))?,
            }
        }
        other => {
            return Err(invalid(format!(
                "unknown topology.kind {other:?} (fat_tree, bcube, dcell, vl2)"
            )))
        }
    };
    spec.validate()?;
    Ok(spec)
}

fn parse_cluster(v: &Value) -> Result<ClusterConfig, SheriffError> {
    let t = want_table(v, "cluster")?;
    if t.contains_key("seed") {
        return Err(invalid(
            "cluster.seed is not allowed: the sweep's `seeds` list drives the RNG".into(),
        ));
    }
    check_keys(
        t,
        &[
            "vms_per_host",
            "vm_capacity",
            "vm_value",
            "delay_sensitive_fraction",
            "dependency_degree",
            "workload_len",
            "skew",
        ],
        "cluster",
    )?;
    let mut cfg = ClusterConfig::default();
    if let Some(x) = get_f64(t, "vms_per_host", "cluster")? {
        cfg.vms_per_host = x;
    }
    if let Some(p) = get_pair(t, "vm_capacity", "cluster")? {
        cfg.vm_capacity_range = p;
    }
    if let Some(p) = get_pair(t, "vm_value", "cluster")? {
        cfg.vm_value_range = p;
    }
    if let Some(x) = get_f64(t, "delay_sensitive_fraction", "cluster")? {
        cfg.delay_sensitive_fraction = x;
    }
    if let Some(x) = get_f64(t, "dependency_degree", "cluster")? {
        cfg.dependency_degree = x;
    }
    if let Some(x) = get_usize(t, "workload_len", "cluster")? {
        cfg.workload_len = x;
    }
    if let Some(x) = get_f64(t, "skew", "cluster")? {
        cfg.skew = x;
    }
    Ok(cfg)
}

fn parse_predictor(v: &Value) -> Result<PredictorKind, SheriffError> {
    let t = want_table(v, "workload.predictor")?;
    check_keys(t, &["kind", "alpha", "beta"], "workload.predictor")?;
    match get_str(t, "kind", "workload.predictor")? {
        Some("holt") | None => {
            let PredictorKind::Holt { alpha, beta } = PredictorKind::default() else {
                unreachable!("default predictor is Holt");
            };
            Ok(PredictorKind::Holt {
                alpha: get_f64(t, "alpha", "workload.predictor")?.unwrap_or(alpha),
                beta: get_f64(t, "beta", "workload.predictor")?.unwrap_or(beta),
            })
        }
        Some("last_value") => Ok(PredictorKind::LastValue),
        Some(other) => Err(invalid(format!(
            "unknown predictor.kind {other:?} (holt, last_value)"
        ))),
    }
}

fn parse_surge(v: &Value) -> Result<SurgeSpec, SheriffError> {
    let t = want_table(v, "surge")?;
    check_keys(t, &["start", "duration", "factor", "fraction"], "surge")?;
    Ok(SurgeSpec {
        start: get_usize(t, "start", "surge")?
            .ok_or_else(|| invalid("surge.start is required".into()))?,
        duration: get_usize(t, "duration", "surge")?
            .ok_or_else(|| invalid("surge.duration is required".into()))?,
        factor: get_f64(t, "factor", "surge")?
            .ok_or_else(|| invalid("surge.factor is required".into()))?,
        fraction: get_f64(t, "fraction", "surge")?.unwrap_or(1.0),
    })
}

fn parse_workload(v: &Value) -> Result<WorkloadSpec, SheriffError> {
    let t = want_table(v, "workload")?;
    check_keys(t, &["alert_fraction", "predictor", "surge"], "workload")?;
    let mut spec = WorkloadSpec::default();
    if let Some(x) = get_f64(t, "alert_fraction", "workload")? {
        spec.alert_fraction = x;
    }
    if let Some(p) = t.get("predictor") {
        spec.predictor = parse_predictor(p)?;
    }
    if let Some(s) = t.get("surge") {
        let arr = s
            .as_array()
            .ok_or_else(|| invalid("workload.surge must be an array of tables".into()))?;
        spec.surges = arr.iter().map(parse_surge).collect::<Result<_, _>>()?;
    }
    Ok(spec)
}

fn parse_runtime(v: &Value) -> Result<RuntimeSpec, SheriffError> {
    let t = want_table(v, "runtime")?;
    let kind =
        get_str(t, "kind", "runtime")?.ok_or_else(|| invalid("runtime.kind is required".into()))?;
    match kind {
        "centralized" => {
            check_keys(t, &["kind", "max_rounds"], "runtime")?;
            Ok(RuntimeSpec::Centralized {
                max_rounds: get_usize(t, "max_rounds", "runtime")?.unwrap_or(3),
            })
        }
        "distributed" => {
            check_keys(t, &["kind", "max_retry"], "runtime")?;
            Ok(RuntimeSpec::Fabric {
                max_retry: get_usize(t, "max_retry", "runtime")?.unwrap_or(3),
                transfer: None,
            })
        }
        "fabric" => {
            check_keys(
                t,
                &[
                    "kind",
                    "max_retry",
                    "transfer_bandwidth",
                    "transfer_max_concurrent",
                    "transfer_reroute_threshold",
                    "transfer_bytes_per_capacity",
                    "transfer_k_paths",
                    "transfer_dirty_rate",
                    "transfer_stall_budget",
                    "transfer_max_attempts",
                ],
                "runtime",
            )?;
            Ok(RuntimeSpec::Fabric {
                max_retry: get_usize(t, "max_retry", "runtime")?.unwrap_or(3),
                transfer: parse_transfer_model(t)?,
            })
        }
        other => Err(invalid(format!(
            "unknown runtime.kind {other:?} (centralized, distributed, fabric)"
        ))),
    }
}

/// The fabric runtime's optional `transfer_*` keys. Present ⇒ the
/// transfer model is on; absent keys fall back to the scheduler's
/// defaults.
fn parse_transfer_model(
    t: &BTreeMap<String, Value>,
) -> Result<Option<TransferConfig>, SheriffError> {
    let any = t.keys().any(|k| k.starts_with("transfer_"));
    if !any {
        return Ok(None);
    }
    let mut spec = TransferConfig::default();
    if let Some(bw) = get_f64(t, "transfer_bandwidth", "runtime")? {
        if bw.is_nan() || bw <= 0.0 {
            return Err(invalid(format!(
                "runtime.transfer_bandwidth must be positive, got {bw}"
            )));
        }
        spec.link_bandwidth = bw;
    }
    if let Some(cap) = get_usize(t, "transfer_max_concurrent", "runtime")? {
        spec.max_concurrent = cap;
    }
    if let Some(thr) = get_f64(t, "transfer_reroute_threshold", "runtime")? {
        if !(0.0..=1.0).contains(&thr) {
            return Err(invalid(format!(
                "runtime.transfer_reroute_threshold must be in [0, 1], got {thr}"
            )));
        }
        spec.reroute_threshold = thr;
    }
    if let Some(bpc) = get_f64(t, "transfer_bytes_per_capacity", "runtime")? {
        if bpc.is_nan() || bpc <= 0.0 {
            return Err(invalid(format!(
                "runtime.transfer_bytes_per_capacity must be positive, got {bpc}"
            )));
        }
        spec.bytes_per_capacity = bpc;
    }
    if let Some(k) = get_usize(t, "transfer_k_paths", "runtime")? {
        if k == 0 {
            return Err(invalid(
                "runtime.transfer_k_paths must be at least 1".into(),
            ));
        }
        spec.k_paths = k;
    }
    if let Some(d) = get_f64(t, "transfer_dirty_rate", "runtime")? {
        if !(0.0..=1.0).contains(&d) {
            return Err(invalid(format!(
                "runtime.transfer_dirty_rate must be in [0, 1], got {d}"
            )));
        }
        spec.dirty_rate = d;
    }
    if let Some(b) = get_u64(t, "transfer_stall_budget", "runtime")? {
        if b == 0 {
            return Err(invalid(
                "runtime.transfer_stall_budget must be at least 1".into(),
            ));
        }
        spec.stall_budget = b;
    }
    if let Some(a) = get_u64(t, "transfer_max_attempts", "runtime")? {
        if a == 0 {
            return Err(invalid(
                "runtime.transfer_max_attempts must be at least 1".into(),
            ));
        }
        spec.max_attempts = u32::try_from(a).unwrap_or(u32::MAX);
    }
    Ok(Some(spec))
}

/// A channel fault table; `extra` names the keys the section adds
/// (`[[channel_phase]]`'s `round`).
fn parse_channel(
    t: &BTreeMap<String, Value>,
    section: &str,
    extra: &[&str],
) -> Result<ChannelFaults, SheriffError> {
    let keys = ["drop", "duplicate", "reorder", "delay_min", "delay_max"];
    check_keys(t, &[extra, &keys].concat(), section)?;
    let mut ch = ChannelFaults::reliable();
    if let Some(x) = get_f64(t, "drop", section)? {
        ch.drop = x;
    }
    if let Some(x) = get_f64(t, "duplicate", section)? {
        ch.duplicate = x;
    }
    if let Some(x) = get_f64(t, "reorder", section)? {
        ch.reorder = x;
    }
    if let Some(x) = get_u64(t, "delay_min", section)? {
        ch.delay_min = x;
    }
    if let Some(x) = get_u64(t, "delay_max", section)? {
        ch.delay_max = x;
    }
    ch.validate()?;
    Ok(ch)
}

/// The `[sim]` table: the simulation parameters and the control
/// channel's fault model.
fn parse_sim(v: &Value) -> Result<(SimConfig, ChannelFaults), SheriffError> {
    let t = want_table(v, "sim")?;
    check_keys(
        t,
        &[
            "c_r",
            "delta",
            "eta",
            "c_d",
            "bandwidth_threshold",
            "alert_threshold",
            "alpha",
            "beta",
            "load_balance_weight",
            "region_hops",
            "channel",
        ],
        "sim",
    )?;
    let mut cfg = SimConfig::paper();
    {
        let fields: [(&str, &mut f64); 9] = [
            ("c_r", &mut cfg.c_r),
            ("delta", &mut cfg.delta),
            ("eta", &mut cfg.eta),
            ("c_d", &mut cfg.c_d),
            ("bandwidth_threshold", &mut cfg.bandwidth_threshold),
            ("alert_threshold", &mut cfg.alert_threshold),
            ("alpha", &mut cfg.alpha),
            ("beta", &mut cfg.beta),
            ("load_balance_weight", &mut cfg.load_balance_weight),
        ];
        for (key, slot) in fields {
            if let Some(x) = get_f64(t, key, "sim")? {
                *slot = x;
            }
        }
    }
    if let Some(x) = get_usize(t, "region_hops", "sim")? {
        cfg.region_hops = x;
    }
    let channel = match t.get("channel") {
        Some(ch) => parse_channel(want_table(ch, "sim.channel")?, "sim.channel", &[])?,
        None => ChannelFaults::reliable(),
    };
    Ok((cfg, channel))
}

fn parse_fault(v: &Value) -> Result<FaultEvent, SheriffError> {
    let t = want_table(v, "fault")?;
    check_keys(
        t,
        &[
            "round",
            "action",
            "link",
            "host",
            "rack",
            "crash_at",
            "recover_at",
            "fail_at",
            "restore_at",
            "name",
            "racks",
            "start_at",
            "heal_at",
        ],
        "fault",
    )?;
    let round =
        get_usize(t, "round", "fault")?.ok_or_else(|| invalid("fault.round is required".into()))?;
    let action =
        get_str(t, "action", "fault")?.ok_or_else(|| invalid("fault.action is required".into()))?;
    let need = |key: &str| -> Result<usize, SheriffError> {
        get_usize(t, key, "fault")?
            .ok_or_else(|| invalid(format!("fault.{key} is required for action {action:?}")))
    };
    let action = match action {
        "fail_link" => FaultAction::FailLink {
            link: need("link")?,
            fail_at: get_u64(t, "fail_at", "fault")?,
            restore_at: get_u64(t, "restore_at", "fault")?,
        },
        "restore_link" => FaultAction::RestoreLink {
            link: need("link")?,
        },
        "fail_host" => FaultAction::FailHost {
            host: need("host")?,
        },
        "restore_host" => FaultAction::RestoreHost {
            host: need("host")?,
        },
        "fail_rack" => FaultAction::FailRack {
            rack: need("rack")?,
        },
        "restore_rack" => FaultAction::RestoreRack {
            rack: need("rack")?,
        },
        "crash_shim" => FaultAction::CrashShim {
            rack: need("rack")?,
            crash_at: get_u64(t, "crash_at", "fault")?,
            recover_at: get_u64(t, "recover_at", "fault")?,
        },
        "recover_shim" => FaultAction::RecoverShim {
            rack: need("rack")?,
        },
        "partition" => {
            let name = get_str(t, "name", "fault")?
                .ok_or_else(|| invalid("fault.name is required for action \"partition\"".into()))?
                .to_owned();
            let racks = get_usize_list(t, "racks", "fault")?.ok_or_else(|| {
                invalid("fault.racks is required for action \"partition\"".into())
            })?;
            if racks.is_empty() {
                return Err(invalid("fault.racks must not be empty".into()));
            }
            FaultAction::Partition {
                name,
                racks,
                start_at: get_u64(t, "start_at", "fault")?.unwrap_or(0),
                heal_at: get_u64(t, "heal_at", "fault")?,
            }
        }
        "heal" => FaultAction::HealPartition {
            name: get_str(t, "name", "fault")?
                .ok_or_else(|| invalid("fault.name is required for action \"heal\"".into()))?
                .to_owned(),
            heal_at: get_u64(t, "heal_at", "fault")?
                .ok_or_else(|| invalid("fault.heal_at is required for action \"heal\"".into()))?,
        },
        other => {
            return Err(invalid(format!(
                "unknown fault.action {other:?} (fail_link, restore_link, fail_host, \
                 restore_host, fail_rack, restore_rack, crash_shim, recover_shim, \
                 partition, heal)"
            )))
        }
    };
    if !matches!(action, FaultAction::CrashShim { .. })
        && (t.contains_key("crash_at") || t.contains_key("recover_at"))
    {
        return Err(invalid(
            "fault.crash_at / fault.recover_at only apply to action \"crash_shim\"".into(),
        ));
    }
    if !matches!(action, FaultAction::FailLink { .. })
        && (t.contains_key("fail_at") || t.contains_key("restore_at"))
    {
        return Err(invalid(
            "fault.fail_at / fault.restore_at only apply to action \"fail_link\"".into(),
        ));
    }
    if let FaultAction::FailLink {
        fail_at,
        restore_at: Some(r),
        ..
    } = &action
    {
        if *r <= fail_at.unwrap_or(0) {
            return Err(invalid(format!(
                "fault.restore_at {r} must be after fail_at {}",
                fail_at.unwrap_or(0)
            )));
        }
    }
    if !matches!(
        action,
        FaultAction::Partition { .. } | FaultAction::HealPartition { .. }
    ) && (t.contains_key("name")
        || t.contains_key("racks")
        || t.contains_key("start_at")
        || t.contains_key("heal_at"))
    {
        return Err(invalid(
            "fault.name / fault.racks / fault.start_at / fault.heal_at only apply to \
             actions \"partition\" and \"heal\""
                .into(),
        ));
    }
    if let FaultAction::Partition {
        start_at,
        heal_at: Some(h),
        ..
    } = &action
    {
        if *h <= *start_at {
            return Err(invalid(format!(
                "fault.heal_at {h} must be after start_at {start_at}"
            )));
        }
    }
    Ok(FaultEvent { round, action })
}

fn parse_seeds(v: &Value) -> Result<Vec<u64>, SheriffError> {
    match v {
        Value::Array(a) => a
            .iter()
            .map(|x| {
                x.as_i64()
                    .and_then(|i| u64::try_from(i).ok())
                    .ok_or_else(|| invalid("seeds entries must be non-negative integers".into()))
            })
            .collect(),
        Value::Table(t) => {
            check_keys(t, &["base", "count"], "seeds")?;
            let base = get_u64(t, "base", "seeds")?.unwrap_or(1);
            let count = get_u64(t, "count", "seeds")?
                .ok_or_else(|| invalid("seeds.count is required".into()))?;
            Ok((0..count).map(|i| base + i).collect())
        }
        other => Err(invalid(format!(
            "seeds must be an array or {{base, count}}, got {}",
            other.type_name()
        ))),
    }
}

impl ScenarioSpec {
    /// Parse and range-check a document already loaded into a [`Value`].
    pub fn from_value(v: &Value) -> Result<Self, SheriffError> {
        let t = want_table(v, "scenario")?;
        check_keys(
            t,
            &[
                "name",
                "title",
                "rounds",
                "seeds",
                "topology",
                "cluster",
                "workload",
                "runtime",
                "sim",
                "fault",
                "channel_phase",
            ],
            "scenario",
        )?;
        let name = get_str(t, "name", "scenario")?
            .ok_or_else(|| invalid("scenario.name is required".into()))?
            .to_string();
        let title = get_str(t, "title", "scenario")?
            .unwrap_or(&name)
            .to_string();
        let rounds = get_usize(t, "rounds", "scenario")?
            .ok_or_else(|| invalid("scenario.rounds is required".into()))?;
        let seeds = match t.get("seeds") {
            Some(v) => parse_seeds(v)?,
            None => vec![1],
        };
        let topologies = match t.get("topology") {
            Some(Value::Array(a)) => a.iter().map(parse_topology).collect::<Result<_, _>>()?,
            Some(single) => vec![parse_topology(single)?],
            None => return Err(invalid("a [topology] section is required".into())),
        };
        let cluster = match t.get("cluster") {
            Some(v) => parse_cluster(v)?,
            None => ClusterConfig::default(),
        };
        let workload = match t.get("workload") {
            Some(v) => parse_workload(v)?,
            None => WorkloadSpec::default(),
        };
        let runtime = match t.get("runtime") {
            Some(v) => parse_runtime(v)?,
            None => RuntimeSpec::default(),
        };
        let (sim, channel) = match t.get("sim") {
            Some(v) => parse_sim(v)?,
            None => (SimConfig::paper(), ChannelFaults::reliable()),
        };
        let mut faults: Vec<FaultEvent> = match t.get("fault") {
            Some(v) => v
                .as_array()
                .ok_or_else(|| invalid("fault must be an array of tables ([[fault]])".into()))?
                .iter()
                .map(parse_fault)
                .collect::<Result<_, _>>()?,
            None => Vec::new(),
        };
        faults.sort_by_key(|f| f.round);
        let mut channel_phases: Vec<ChannelPhase> = match t.get("channel_phase") {
            Some(v) => v
                .as_array()
                .ok_or_else(|| {
                    invalid("channel_phase must be an array of tables ([[channel_phase]])".into())
                })?
                .iter()
                .map(|p| {
                    let pt = want_table(p, "channel_phase")?;
                    let round = get_usize(pt, "round", "channel_phase")?
                        .ok_or_else(|| invalid("channel_phase.round is required".into()))?;
                    Ok(ChannelPhase {
                        round,
                        faults: parse_channel(pt, "channel_phase", &["round"])?,
                    })
                })
                .collect::<Result<_, SheriffError>>()?,
            None => Vec::new(),
        };
        channel_phases.sort_by_key(|p| p.round);
        Ok(Self {
            name,
            title,
            rounds,
            seeds,
            topologies,
            cluster,
            workload,
            runtime,
            sim,
            channel,
            faults,
            channel_phases,
        })
    }

    /// Parse a TOML or JSON source string (dispatch on shape).
    pub fn parse_str(src: &str) -> Result<Self, SheriffError> {
        Self::from_value(&Value::parse(src)?)
    }

    /// Load and parse a scenario file.
    pub fn load(path: &Path) -> Result<Self, SheriffError> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| invalid(format!("cannot read {}: {e}", path.display())))?;
        Self::parse_str(&src).map_err(|e| invalid(format!("{}: {e}", path.display())))
    }

    /// Whether the scenario runs in trace mode (synthetic workloads and
    /// predicted alerts) rather than the Fig. 9–14 fraction protocol.
    pub fn trace_mode(&self) -> bool {
        self.cluster.workload_len > 0
    }

    /// Full semantic validation. Errors make the scenario unrunnable;
    /// the returned strings are *warnings* — legal but suspicious specs
    /// (`--check` treats them as errors).
    pub fn validate(&self) -> Result<Vec<String>, SheriffError> {
        if self.name.is_empty() {
            return Err(invalid("scenario.name must be non-empty".into()));
        }
        if self.rounds == 0 {
            return Err(invalid("scenario.rounds must be >= 1".into()));
        }
        if self.seeds.is_empty() {
            return Err(invalid(
                "the seed sweep must contain at least one seed".into(),
            ));
        }
        if self.topologies.is_empty() {
            return Err(invalid("at least one topology is required".into()));
        }
        for topo in &self.topologies {
            topo.validate()?;
        }
        self.cluster.validate()?;
        self.sim.validate()?;
        let f = self.workload.alert_fraction;
        if !f.is_finite() || !(0.0..=1.0).contains(&f) || f == 0.0 {
            return Err(invalid(format!(
                "workload.alert_fraction must be in (0, 1], got {f}"
            )));
        }
        if let PredictorKind::Holt { alpha, beta } = self.workload.predictor {
            for (name, v) in [("alpha", alpha), ("beta", beta)] {
                if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                    return Err(invalid(format!(
                        "predictor.{name} must be in [0, 1], got {v}"
                    )));
                }
            }
        }
        for s in &self.workload.surges {
            if s.duration == 0 {
                return Err(invalid("surge.duration must be >= 1".into()));
            }
            if !s.factor.is_finite() || s.factor <= 0.0 {
                return Err(invalid(format!(
                    "surge.factor must be finite and > 0, got {}",
                    s.factor
                )));
            }
            if !s.fraction.is_finite() || !(0.0..=1.0).contains(&s.fraction) {
                return Err(invalid(format!(
                    "surge.fraction must be in [0, 1], got {}",
                    s.fraction
                )));
            }
        }
        if let RuntimeSpec::Centralized { max_rounds: 0 } = self.runtime {
            return Err(invalid("runtime.max_rounds must be >= 1".into()));
        }
        for p in &self.channel_phases {
            p.faults.validate()?;
        }
        // per-topology structural checks for fault targets
        if !self.faults.is_empty() {
            for topo in &self.topologies {
                let dcn = topo.build();
                let (links, hosts, racks) = (
                    dcn.graph.edge_count(),
                    dcn.inventory.host_count(),
                    dcn.inventory.rack_count(),
                );
                for f in &self.faults {
                    let (kind, id, bound) = match &f.action {
                        FaultAction::FailLink { link, .. } | FaultAction::RestoreLink { link } => {
                            ("link", *link, links)
                        }
                        FaultAction::FailHost { host } | FaultAction::RestoreHost { host } => {
                            ("host", *host, hosts)
                        }
                        FaultAction::FailRack { rack }
                        | FaultAction::RestoreRack { rack }
                        | FaultAction::CrashShim { rack, .. }
                        | FaultAction::RecoverShim { rack } => ("rack", *rack, racks),
                        FaultAction::Partition { racks: members, .. } => {
                            match members.iter().find(|&&r| r >= racks) {
                                Some(&bad) => ("rack", bad, racks),
                                None => continue,
                            }
                        }
                        FaultAction::HealPartition { .. } => continue,
                    };
                    if id >= bound {
                        return Err(invalid(format!(
                            "fault {kind} {id} out of range for topology {} ({kind} count {bound})",
                            topo.label()
                        )));
                    }
                }
            }
        }

        // warnings: legal but probably unintended
        let mut warnings = Vec::new();
        let mut sorted = self.seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != self.seeds.len() {
            warnings.push("duplicate seeds in the sweep: repeated runs skew the aggregates".into());
        }
        for fevent in &self.faults {
            if fevent.round >= self.rounds {
                warnings.push(format!(
                    "fault at round {} never fires (rounds = {})",
                    fevent.round, self.rounds
                ));
            }
            if let FaultAction::Partition { name, heal_at, .. } = &fevent.action {
                if heal_at.is_none()
                    && !self.faults.iter().any(|g| {
                        matches!(&g.action, FaultAction::HealPartition { name: n, .. } if n == name)
                    })
                {
                    warnings.push(format!(
                        "partition {name:?} is never healed: it stands for the rest of the run"
                    ));
                }
                if !matches!(self.runtime, RuntimeSpec::Fabric { .. }) {
                    warnings.push(format!(
                        "partitions need virtual time: the {} runtime ignores them",
                        self.runtime.name()
                    ));
                }
            }
            if let FaultAction::HealPartition { name, .. } = &fevent.action {
                if !self.faults.iter().any(|g| {
                    matches!(&g.action, FaultAction::Partition { name: n, heal_at: None, .. }
                        if n == name)
                        && g.round < fevent.round
                }) {
                    warnings.push(format!(
                        "heal of partition {name:?} has no standing partition of that name \
                         in an earlier round"
                    ));
                }
            }
            if let FaultAction::CrashShim {
                crash_at,
                recover_at,
                ..
            } = fevent.action
            {
                if let Some(r) = recover_at {
                    if r <= crash_at.unwrap_or(0) {
                        return Err(invalid(format!(
                            "fault.recover_at {} must be after crash_at {}",
                            r,
                            crash_at.unwrap_or(0)
                        )));
                    }
                }
                if (crash_at.is_some() || recover_at.is_some())
                    && !matches!(self.runtime, RuntimeSpec::Fabric { .. })
                {
                    warnings.push(format!(
                        "crash_at/recover_at need virtual time: the {} runtime treats the \
                         crash as whole-round",
                        self.runtime.name()
                    ));
                }
            }
        }
        for p in &self.channel_phases {
            if p.round >= self.rounds {
                warnings.push(format!(
                    "channel_phase at round {} never applies (rounds = {})",
                    p.round, self.rounds
                ));
            }
        }
        if !matches!(self.runtime, RuntimeSpec::Fabric { .. }) {
            if !self.channel_phases.is_empty() {
                warnings.push(format!(
                    "channel_phase entries are ignored by the {} runtime (only fabric uses the channel)",
                    self.runtime.name()
                ));
            }
            if !self.channel.is_reliable() {
                warnings.push(format!(
                    "sim.channel faults are ignored by the {} runtime (only fabric uses the channel)",
                    self.runtime.name()
                ));
            }
        }
        if !self.workload.surges.is_empty() && !self.trace_mode() {
            warnings.push(
                "surge overlays need trace mode: set cluster.workload_len > 0 or drop [[workload.surge]]"
                    .into(),
            );
        }
        if self.trace_mode() && self.cluster.workload_len < self.rounds + 1 {
            warnings.push(format!(
                "cluster.workload_len {} is shorter than rounds {} + 1: the trace clamps at its end",
                self.cluster.workload_len, self.rounds
            ));
        }
        Ok(warnings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
        name = "mini"
        rounds = 4
        seeds = [1, 2]

        [topology]
        kind = "fat_tree"
        pods = 4
    "#;

    #[test]
    fn minimal_spec_parses_with_defaults() {
        let spec = ScenarioSpec::parse_str(MINIMAL).unwrap();
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.title, "mini");
        assert_eq!(spec.rounds, 4);
        assert_eq!(spec.seeds, vec![1, 2]);
        assert_eq!(
            spec.topologies,
            vec![TopologySpec::FatTree {
                pods: 4,
                hosts_per_rack: None
            }]
        );
        assert_eq!(
            spec.runtime,
            RuntimeSpec::Fabric {
                max_retry: 3,
                transfer: None
            }
        );
        assert!(!spec.trace_mode());
        assert!(spec.validate().unwrap().is_empty());
    }

    #[test]
    fn full_spec_parses_every_section() {
        let spec = ScenarioSpec::parse_str(
            r#"
            name = "full"
            title = "everything"
            rounds = 6
            seeds = { base = 10, count = 3 }

            [[topology]]
            kind = "fat_tree"
            pods = 4

            [[topology]]
            kind = "bcube"
            n = 4

            [cluster]
            vms_per_host = 2.0
            vm_capacity = [5.0, 20.0]
            workload_len = 40
            skew = 3.0

            [workload]
            alert_fraction = 0.1
            predictor = { kind = "holt", alpha = 0.4, beta = 0.1 }

            [[workload.surge]]
            start = 2
            duration = 3
            factor = 1.8
            fraction = 0.5

            [runtime]
            kind = "fabric"
            max_retry = 2

            [sim]
            alert_threshold = 0.85
            region_hops = 2

            [sim.channel]
            drop = 0.05
            delay_max = 3

            [[fault]]
            round = 1
            action = "fail_link"
            link = 0

            [[fault]]
            round = 3
            action = "restore_link"
            link = 0

            [[channel_phase]]
            round = 2
            drop = 0.2
            delay_max = 4
            "#,
        )
        .unwrap();
        assert_eq!(spec.seeds, vec![10, 11, 12]);
        assert_eq!(spec.topologies.len(), 2);
        assert_eq!(spec.cluster.workload_len, 40);
        assert!(spec.trace_mode());
        assert_eq!(
            spec.workload.predictor,
            PredictorKind::Holt {
                alpha: 0.4,
                beta: 0.1
            }
        );
        assert_eq!(spec.workload.surges.len(), 1);
        assert_eq!(
            spec.runtime,
            RuntimeSpec::Fabric {
                max_retry: 2,
                transfer: None
            }
        );
        assert_eq!(spec.sim.alert_threshold, 0.85);
        assert_eq!(spec.channel.drop, 0.05);
        assert_eq!(spec.faults.len(), 2);
        assert_eq!(spec.channel_phases[0].faults.drop, 0.2);
        let warnings = spec.validate().unwrap();
        assert!(warnings.is_empty(), "unexpected warnings: {warnings:?}");
    }

    #[test]
    fn json_spec_parses_too() {
        let spec = ScenarioSpec::parse_str(
            r#"{"name": "j", "rounds": 2, "seeds": [7],
                "topology": {"kind": "vl2", "d_a": 4, "d_i": 2},
                "runtime": {"kind": "centralized"}}"#,
        )
        .unwrap();
        assert_eq!(spec.topologies, vec![TopologySpec::Vl2 { d_a: 4, d_i: 2 }]);
        assert_eq!(spec.runtime, RuntimeSpec::Centralized { max_rounds: 3 });
    }

    #[test]
    fn distributed_is_a_fabric_alias() {
        let spec = ScenarioSpec::parse_str(&format!(
            "{MINIMAL}\n[runtime]\nkind = \"distributed\"\nmax_retry = 5\n"
        ))
        .unwrap();
        assert_eq!(
            spec.runtime,
            RuntimeSpec::Fabric {
                max_retry: 5,
                transfer: None
            }
        );
        // the alias takes no fabric-only keys
        let err = ScenarioSpec::parse_str(&format!(
            "{MINIMAL}\n[runtime]\nkind = \"distributed\"\ntransfer_k_paths = 2\n"
        ))
        .unwrap_err();
        assert!(err.to_string().contains("transfer_k_paths"), "{err}");
    }

    #[test]
    fn sharded_runtime_is_an_unknown_kind() {
        let err = ScenarioSpec::parse_str(&format!("{MINIMAL}\n[runtime]\nkind = \"sharded\"\n"))
            .unwrap_err();
        assert!(matches!(err, SheriffError::Invalid { .. }), "{err:?}");
        assert!(
            err.to_string().contains("unknown runtime.kind \"sharded\""),
            "{err}"
        );
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let err = ScenarioSpec::parse_str(&format!("{MINIMAL}\ntypo_key = 3")).unwrap_err();
        assert!(err.to_string().contains("typo_key"), "{err}");
        let err = ScenarioSpec::parse_str(
            r#"
            name = "x"
            rounds = 1
            [topology]
            kind = "fat_tree"
            pods = 4
            extra = 1
            "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("extra"), "{err}");
        let err = ScenarioSpec::parse_str(&format!("{MINIMAL}\n[sim]\nvm_capacity_max = 20.0\n"))
            .unwrap_err();
        assert!(err.to_string().contains("vm_capacity_max"), "{err}");
    }

    #[test]
    fn round_is_a_channel_phase_key_only() {
        // only a phase has a round to start at; [sim.channel] holds from
        // round 0 and must not swallow the key
        let err = ScenarioSpec::parse_str(&format!(
            "{MINIMAL}\n[sim.channel]\nround = 7\ndrop = 0.1\n"
        ))
        .unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown key \"round\" in sim.channel"),
            "{err}"
        );
        let spec = ScenarioSpec::parse_str(&format!(
            "{MINIMAL}\n[[channel_phase]]\nround = 1\ndrop = 0.1\n"
        ))
        .unwrap();
        assert_eq!(spec.channel_phases[0].round, 1);
    }

    #[test]
    fn cluster_seed_is_rejected() {
        let err = ScenarioSpec::parse_str(
            r#"
            name = "x"
            rounds = 1
            [topology]
            kind = "fat_tree"
            pods = 4
            [cluster]
            seed = 3
            "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("seeds"), "{err}");
    }

    #[test]
    fn size_constraints_are_enforced() {
        for (kind, body) in [
            ("fat_tree odd pods", "kind = \"fat_tree\"\npods = 5"),
            ("bcube n 1", "kind = \"bcube\"\nn = 1"),
            ("vl2 odd d_a", "kind = \"vl2\"\nd_a = 5\nd_i = 2"),
        ] {
            let src = format!("name = \"x\"\nrounds = 1\n[topology]\n{body}\n");
            assert!(ScenarioSpec::parse_str(&src).is_err(), "{kind} accepted");
        }
    }

    #[test]
    fn fault_bounds_checked_per_topology() {
        let spec = ScenarioSpec::parse_str(
            r#"
            name = "x"
            rounds = 4
            [topology]
            kind = "fat_tree"
            pods = 4
            [[fault]]
            round = 0
            action = "fail_host"
            host = 100000
            "#,
        )
        .unwrap();
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn oversized_topologies_are_rejected_before_any_build() {
        let mut spec = ScenarioSpec::parse_str(
            r#"
            name = "x"
            rounds = 1
            [topology]
            kind = "fat_tree"
            pods = 4
            [[fault]]
            round = 0
            action = "fail_host"
            host = 0
            "#,
        )
        .unwrap();
        for (topology, expected) in [
            (
                TopologySpec::FatTree {
                    pods: 1_000_000,
                    hosts_per_rack: None,
                },
                "fat_tree_1000000 has 250000000000000000 hosts",
            ),
            (
                TopologySpec::DCell { n: 2, k: 9 },
                "dcell_2_9 has more hosts than a usize can count",
            ),
        ] {
            spec.topologies = vec![topology];
            let err = spec.validate().unwrap_err().to_string();
            assert!(err.contains(expected), "{err}");
        }
        // the bound admits a Fat-Tree with k = 128
        let k128 = TopologySpec::FatTree {
            pods: 128,
            hosts_per_rack: None,
        };
        assert_eq!(k128.host_count(), Some(524_288));
        assert!(k128.validate().is_ok());
    }

    #[test]
    fn warnings_flag_suspicious_specs() {
        let spec = ScenarioSpec::parse_str(
            r#"
            name = "x"
            rounds = 2
            seeds = [1, 1]
            [topology]
            kind = "fat_tree"
            pods = 4
            [runtime]
            kind = "centralized"
            [[channel_phase]]
            round = 9
            drop = 0.5
            "#,
        )
        .unwrap();
        let warnings = spec.validate().unwrap();
        assert!(warnings.iter().any(|w| w.contains("duplicate seeds")));
        assert!(warnings.iter().any(|w| w.contains("never applies")));
        assert!(warnings
            .iter()
            .any(|w| w.contains("ignored by the centralized runtime")));
    }

    #[test]
    fn bad_probability_in_channel_phase_is_an_error() {
        let err = ScenarioSpec::parse_str(
            r#"
            name = "x"
            rounds = 2
            [topology]
            kind = "fat_tree"
            pods = 4
            [[channel_phase]]
            round = 0
            drop = 1.5
            "#,
        )
        .unwrap_err();
        assert!(
            matches!(err, SheriffError::InvalidProbability { .. }),
            "{err:?}"
        );
    }
}
