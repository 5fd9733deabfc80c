//! # sheriff-core
//!
//! The primary contribution of *Sheriff: A Regional Pre-Alert Management
//! Scheme in Data Center Networks* (ICPP'15): the per-rack shim
//! controllers and their management algorithms —
//!
//! * Alg. 1 [`pre_alert_management`] — the framework routine dispatching
//!   on alert type,
//! * Alg. 2 [`priority()`] — knapsack victim selection,
//! * Alg. 3 [`vmmigration()`] — minimum-weight-matching migration with
//!   negotiation,
//! * Alg. 4 [`request_migration`] — FCFS ACK/REJECT at the destination,
//! * Alg. 5 [`kmedian::local_search`] — the p-swap local search with
//!   ratio 3 + 2/p, plus the VMMIGRATION → k-median transformation,
//!
//! together with FLOWREROUTE, the centralized-manager baseline
//! ([`CentralizedRuntime`]) and the shim runtime, which negotiates every
//! move with its destination as two-phase PREPARE/COMMIT messages in
//! virtual time, on a per-tick agenda of its own ([`FabricRuntime`]
//! behind the [`Runtime`] trait). Every Sheriff round runs on the
//! fabric: the figures through [`balance_trajectory`], the assembled
//! [`System`] through one kept `FabricRuntime`. Every runtime runs the
//! same copy of each step: Alg. 1's switch arm and Alg. 1/2 victim
//! selection live in [`alert_mgmt`], the Eqn. 1 matching step in
//! [`mod@vmmigration`], and the destination's verdict in [`request`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert_mgmt;
pub mod audit;
pub mod builder;
pub mod centralized;
pub mod channel;
pub mod evacuation;
pub mod fabric;
pub mod failure;
pub mod journal;
pub mod kmedian;
pub mod matching;
pub mod metrics;
pub mod priority;
pub mod protocol;
pub mod request;
pub mod reroute;
pub mod runtime;
pub mod strategy;
pub mod system;
pub mod vmmigration;

pub use alert_mgmt::{pre_alert_management, reroute_switch_alerts, ShimOutcome};
pub use audit::{
    audit_journals, audit_managers, audit_moves, audit_placement, AuditReport, AuditViolation,
};
pub use builder::SystemBuilder;
pub use centralized::{
    centralized_migration, centralized_migration_chunked, destination_tors, kmedian_migration,
};
pub use channel::{CrashWindow, LinkFaultWindow, PartitionWindow};
pub use evacuation::{drain_rack, evacuate_host, try_drain_rack, try_evacuate_host};
pub use fabric::FabricConfig;
pub use failure::{FailureDetector, RegionFailover, ShimHealth};
pub use journal::{AbortOutcome, IntentJournal, RecoveryReport, TxnRecord, TxnState};
pub use kmedian::{
    exact_optimal, local_search, local_search_from, KMedianInstance, KMedianSolution,
};
pub use matching::min_cost_assignment;
pub use metrics::{RatioPoint, Series};
pub use priority::{priority, Budget};
pub use protocol::{ReqId, ShimMsg, TwoPhaseReply};
pub use request::request_migration;
pub use reroute::{flow_reroute, flow_reroute_balanced, RerouteReport};
pub use runtime::{
    balance_trajectory, CentralizedRuntime, FabricRuntime, RoundOutcome, RunCtx, Runtime,
};
pub use sheriff_transfer::{TransferConfig, TransferScheduler};
pub use strategy::{run_policy, AlertPolicy, StrategyOutcome};
pub use system::{StepReport, System};
pub use vmmigration::{vmmigration, vmmigration_scoped, MigrationContext, MigrationPlan, Move};

// The construction error type lives in `dcn-sim` (both layers raise it);
// re-exported here so users of the management crate see one error type.
pub use dcn_sim::SheriffError;
