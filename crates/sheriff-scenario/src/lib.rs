//! # sheriff-scenario
//!
//! Declarative scenario engine for the Sheriff reproduction: describe an
//! experiment — topology, cluster population, workload and surge
//! overlays, fault schedule, channel phases, runtime, seed sweep — in a
//! TOML (or JSON) file, validate it into a typed [`ScenarioSpec`], run
//! the sweep deterministically (serial or parallel, provably identical)
//! with [`ScenarioRunner`], and fold the per-seed outcomes into a
//! [`ScenarioReport`] whose JSON shape extends the `results/fig*.json`
//! tables.
//!
//! ```toml
//! name = "fig9_prealert"
//! rounds = 24
//! seeds = { base = 42, count = 4 }
//!
//! [topology]
//! kind = "fat_tree"
//! pods = 8
//!
//! [cluster]
//! vms_per_host = 2.5
//! skew = 4.0
//!
//! [runtime]
//! kind = "distributed"
//! ```
//!
//! The pipeline is three calls:
//!
//! ```no_run
//! use sheriff_scenario::{aggregate, ScenarioRunner, ScenarioSpec};
//! let spec = ScenarioSpec::load(std::path::Path::new("scenarios/fig9_prealert.toml"))?;
//! spec.validate()?;
//! let runs = ScenarioRunner::new(spec.clone()).run()?;
//! let report = aggregate(&spec, &runs);
//! println!("{}", report.to_json_pretty());
//! # Ok::<(), dcn_sim::SheriffError>(())
//! ```
//!
//! Determinism contract: a job is a pure function of (spec, topology,
//! seed). The parallel path chunks jobs over `std::thread::scope`
//! threads and re-assembles them in job order, so
//! [`ScenarioReport::canonical_json`] is byte-identical between serial
//! and parallel execution and across repeated runs of the same file —
//! property-tested in `tests/scenario_determinism.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod faults;
pub mod report;
pub mod runner;
pub mod spec;
pub mod value;

pub use report::{aggregate, ScenarioReport, Stat};
pub use runner::{RoundStat, ScenarioRunner, SeedRun, TallySink};
pub use spec::{
    ChannelPhase, FaultAction, FaultEvent, PredictorKind, RuntimeSpec, ScenarioSpec, SurgeSpec,
    TopologySpec, WorkloadSpec,
};
pub use value::Value;

// The error type is the workspace-wide one.
pub use dcn_sim::SheriffError;
