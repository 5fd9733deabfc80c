//! # dcn-sim
//!
//! Round-based data-center simulator for the Sheriff reproduction
//! (ICPP'15): per-VM workload profiles `[CPU, MEM, IO, TRF]` backed by
//! synthetic traces, the ALERT rule of Sec. IV-C, the live-migration cost
//! model of Eqn. 1 with its rack-to-rack metric collapse, the six-stage
//! pre-copy timeline, QCN-style congestion feedback, and a flow network
//! with per-link load accounting.
//!
//! ```
//! use dcn_sim::engine::{Cluster, ClusterConfig};
//! use dcn_sim::config::SimConfig;
//! use dcn_topology::fattree::{self, FatTreeConfig};
//!
//! let dcn = fattree::build(&FatTreeConfig::paper(4));
//! let cluster = Cluster::build(dcn, &ClusterConfig::default(), SimConfig::paper());
//! assert!(cluster.placement.vm_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod config;
pub mod congestion;
pub mod engine;
pub mod error;
pub mod faults;
pub mod flows;
pub mod forecaster;
pub mod migration;
pub mod qcn;
pub mod tor_monitor;
pub mod workload;

pub use alert::{Alert, AlertSource};
pub use config::{ChannelFaults, SimConfig, REORDER_HOLD_BACK};
pub use congestion::{CongestionConfig, CongestionSim};
pub use engine::{Cluster, ClusterConfig, HoltPredictor, LastValue, ProfilePredictor};
pub use error::SheriffError;
pub use flows::{Flow, FlowNetwork};
pub use forecaster::ArimaProfilePredictor;
pub use migration::{precopy_timeline, MigrationTimeline, RackMetric};
pub use tor_monitor::TorMonitor;
pub use workload::{Feature, Profile, VmWorkload};
