//! # sheriff-dcn
//!
//! Facade crate for the Sheriff reproduction (ICPP'15: *Sheriff: A
//! Regional Pre-Alert Management Scheme in Data Center Networks*).
//! Re-exports six workspace crates:
//!
//! * [`topology`] — Fat-Tree/BCube builders, wired graph, shortest paths,
//!   placement, dependency graph;
//! * [`forecast`] — ARIMA, NARNET, dynamic model selection, synthetic
//!   traces;
//! * [`sim`] — workload profiles, alerts, migration cost model, QCN,
//!   flows, the cluster engine;
//! * [`sheriff`] — the management algorithms (PRIORITY, VMMIGRATION,
//!   REQUEST, k-median local search) and both runtimes, including the
//!   fabric runtime whose virtual-time rounds run on a per-tick agenda
//!   of their own;
//! * [`obs`] — structured events, counters and timers;
//! * [`scenario`] — declarative experiment files (TOML/JSON), seed
//!   sweeps with fault schedules, parallel deterministic execution.
//!
//! Assemble a system with the validating [`SystemBuilder`](prelude::SystemBuilder)
//! and step it while a recorder observes every round:
//!
//! ```
//! use sheriff_dcn::prelude::*;
//!
//! let dcn = fattree::build(&FatTreeConfig::paper(4));
//! let mut system = SystemBuilder::new(dcn)
//!     .vms_per_host(2.0)
//!     .seed(7)
//!     .workload_len(100)
//!     .build_with_sink(RingRecorder::new(1024))
//!     .expect("paper configuration is valid");
//! system.run(&HoltPredictor::default(), 3);
//! assert_eq!(system.sink().count_kind("round_start"), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dcn_sim as sim;
pub use dcn_topology as topology;
pub use sheriff_core as sheriff;
pub use sheriff_obs as obs;
pub use sheriff_scenario as scenario;
pub use timeseries as forecast;

/// Everything a typical application needs, one `use` away, grouped by
/// layer: topology → simulation → management → forecasting →
/// observability.
pub mod prelude {
    // --- topology: builders, graph, placement ------------------------
    pub use dcn_topology::bcube::{self, BCubeConfig};
    pub use dcn_topology::dcell::{self, DCellConfig};
    pub use dcn_topology::fattree::{self, FatTreeConfig};
    pub use dcn_topology::{Dcn, DependencyGraph, HostId, Placement, RackId, VmId, VmSpec};

    // --- simulation: cluster engine, alerts, cost model, faults ------
    pub use dcn_sim::engine::{Cluster, ClusterConfig, HoltPredictor, ProfilePredictor};
    pub use dcn_sim::{
        Alert, AlertSource, ArimaProfilePredictor, CongestionSim, Profile, RackMetric, SimConfig,
        TorMonitor, VmWorkload,
    };
    pub use dcn_sim::{ChannelFaults, SheriffError};

    // --- management: both loops behind one Runtime trait -------------
    pub use sheriff_core::{
        audit_placement, balance_trajectory, drain_rack, evacuate_host, priority, vmmigration,
        AuditReport, Budget, CentralizedRuntime, CrashWindow, FabricConfig, FabricRuntime,
        FailureDetector, IntentJournal, MigrationContext, MigrationPlan, PartitionWindow,
        RegionFailover, RoundOutcome, RunCtx, Runtime, ShimHealth, StepReport, System,
        SystemBuilder,
    };

    // --- forecasting: the Sec. III-B predictors ----------------------
    pub use timeseries::{ArimaModel, ArimaSpec, DynamicSelector, Narnet, NarnetConfig, Predictor};

    // --- scenarios: declarative sweeps over all of the above ---------
    pub use sheriff_scenario::{aggregate, ScenarioReport, ScenarioRunner, ScenarioSpec};

    // --- observability: structured events, counters, timers ----------
    pub use sheriff_obs::{
        Counters, Event, EventSink, JsonLinesSink, NullSink, RingRecorder, Timer,
    };
}
