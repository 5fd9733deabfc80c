//! The typed event vocabulary of the Sheriff control loop.
//!
//! Every variant corresponds to an observable step of the paper's
//! pipeline; DESIGN.md maps each one to the section or figure it
//! instruments. Payloads are plain integers/floats — this crate knows
//! nothing about topology types, so it stays dependency-free and the
//! same events can describe any runtime.
//!
//! The schema is declared once, in the `labels!` and `events!` tables
//! below; `label`, `Display`, `kind` and `to_json` are generated.

use crate::json::JsonObject;
use std::fmt;

/// A payload type an event field may carry: how it renders as the value
/// of `key` in the event's JSON object.
trait Field {
    fn put(&self, key: &str, w: &mut JsonObject);
}

impl Field for u64 {
    fn put(&self, key: &str, w: &mut JsonObject) {
        w.u64(key, *self);
    }
}

impl Field for f64 {
    fn put(&self, key: &str, w: &mut JsonObject) {
        w.f64(key, *self);
    }
}

/// Declares fieldless enums whose variants each carry a stable lowercase
/// label: generates the enum, `label`, `Display` and the JSON rendering
/// (the label as a string).
macro_rules! labels {
    ($(
        $(#[$meta:meta])*
        pub enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident = $label:literal,)*
        }
    )*) => {$(
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)*
        }

        impl $name {
            /// Stable lowercase label used in JSON traces.
            pub fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)*
                }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.label())
            }
        }

        impl Field for $name {
            fn put(&self, key: &str, w: &mut JsonObject) {
                w.str(key, self.label());
            }
        }
    )*};
}

labels! {
    /// Which of the three alert sources of Sec. III-B raised an alert.
    pub enum AlertKind {
        /// Predicted host overload (CPU/memory profile above `alert_threshold`).
        Host = "host",
        /// Predicted local ToR uplink congestion.
        LocalTor = "local_tor",
        /// QCN congestion feedback from an outer switch.
        OuterSwitch = "outer_switch",
    }

    /// Why a destination shim refused a migration REQUEST or COMMIT (the
    /// REJECT payload of Alg. 4 and of the 2PC built on it).
    pub enum RejectKind {
        /// The host no longer has Eqn. 8 capacity for the VM.
        Capacity = "capacity",
        /// A dependent VM occupies the host (χ constraint, Eqn. 7).
        Conflict = "conflict",
        /// The VM is already on that host — a duplicate of an applied move
        /// or a stale plan.
        Noop = "noop",
        /// The transaction was aborted (lease lapsed or ABORT arrived)
        /// before this message; the source must replan from scratch.
        Expired = "expired",
        /// The message carried an epoch older than the rack's current
        /// epoch: the sender missed a takeover and is fenced (the `Reject`
        /// reports the current epoch for the sender to adopt).
        Stale = "stale_epoch",
    }

    /// What kind of fault an injector applied to the running cluster.
    pub enum FaultKind {
        /// A link went down.
        LinkDown = "link_down",
        /// A previously failed link came back.
        LinkUp = "link_up",
        /// A host went down (its VMs are stranded until recovery).
        HostDown = "host_down",
        /// A previously failed host came back.
        HostUp = "host_up",
        /// A shim controller crashed (stops answering the fabric).
        ShimDown = "shim_down",
        /// A crashed shim controller recovered.
        ShimUp = "shim_up",
        /// A named partition cut the network into disjoint rack sets.
        Partition = "partition",
        /// A named partition healed; both sides can talk again.
        Heal = "heal",
    }
}

/// Declares the event enum from one table whose entries give each variant,
/// its `"ev"` kind, the sink counter one occurrence adds 1 to (`=>
/// "name"`, optional) and its fields in JSON key order. The literal `enum
/// Event { … }` tokens stay in the call for sheriff-lint's EVT01 scan;
/// rustfmt skips the table, so keep it formatted by hand.
macro_rules! events {
    (@counter) => { None };
    (@counter $counter:literal) => { Some($counter) };
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $kind:literal $(=> $counter:literal)? {
                    $($(#[$fmeta:meta])* $field:ident: $ty:ty,)*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant {
                    $($(#[$fmeta])* $field: $ty,)*
                },
            )*
        }

        impl $name {
            /// Every kind in table order, with the counter its events add
            /// 1 to, if it declares one.
            // sheriff-lint: allow(DEAD01, "every_declared_counter_equals_its_event_tally in tests/scenario_determinism.rs")
            pub const KIND_COUNTERS: &'static [(&'static str, Option<&'static str>)] =
                &[$(($kind, events!(@counter $($counter)?)),)*];

            /// Stable snake_case discriminant name, used as the `"ev"`
            /// field of JSON traces and by
            /// [`RingRecorder::count_kind`](crate::RingRecorder::count_kind).
            pub fn kind(&self) -> &'static str {
                match self {
                    $($name::$variant { .. } => $kind,)*
                }
            }

            /// The sink counter one occurrence of this event adds 1 to:
            /// [`emit`](crate::emit) bumps it, so no call site names it.
            pub fn counter(&self) -> Option<&'static str> {
                match self {
                    $($name::$variant { .. } => events!(@counter $($counter)?),)*
                }
            }

            /// Render the event as one JSON object with stable key order
            /// (`"ev"` first, then payload fields in declaration order).
            pub fn to_json(&self) -> String {
                let mut w = JsonObject::new(self.kind());
                match self {
                    $($name::$variant { $($field),* } => {
                        $(Field::put($field, stringify!($field), &mut w);)*
                    })*
                }
                w.finish()
            }
        }
    };
}

events! {
    /// One structured observation from the Sheriff control loop.
    ///
    /// Identifiers are raw indices (`rack`, `vm`, `host` …) so the event
    /// vocabulary is independent of the topology crate. Request ids follow
    /// the wire format of the shim protocol: `rack << 32 | sequence`.
    ///
    /// Payloads are fully deterministic — no wall-clock values — so equal
    /// seeds yield equal event streams (the recorder property tests rely
    /// on this).
    #[derive(Clone, Debug, PartialEq)]
    pub enum Event {
        /// A management round began.
        RoundStart = "round_start" {
            /// Virtual time (period index) of the round.
            time: u64,
        },
        /// A management round finished.
        RoundEnd = "round_end" {
            /// Virtual time (period index) of the round.
            time: u64,
            /// VM migrations committed during the round.
            migrations: u64,
            /// Flows rerouted during the round.
            reroutes: u64,
        },
        /// One of the three alert sources fired (Sec. III-B).
        AlertRaised = "alert_raised" {
            /// Virtual time at which the alert was raised.
            time: u64,
            /// Rack whose shim receives the alert.
            rack: u64,
            /// Which detector fired.
            kind: AlertKind,
            /// Severity score handed to PRIORITY (predicted utilization,
            /// uplink load or QCN feedback value).
            severity: f64,
        },
        /// PRIORITY (Alg. 2) selected migration victims for a rack.
        VictimsSelected = "victims_selected" {
            /// Alerted rack.
            rack: u64,
            /// Candidate VMs considered by the knapsack.
            candidates: u64,
            /// Victims actually selected for migration.
            selected: u64,
        },
        /// VMMIGRATION (Alg. 3) produced a min-cost assignment for a rack.
        PlanComputed = "plan_computed" {
            /// Rack the plan was computed for.
            rack: u64,
            /// Proposed (vm, destination) assignments.
            proposals: u64,
            /// Victims that could not be assigned a destination.
            unassigned: u64,
            /// Size of the searched (vm × destination) space.
            search_space: u64,
        },
        /// A shim sent a migration REQUEST (Alg. 4).
        RequestSent = "request_sent" {
            /// Request id (`rack << 32 | seq`).
            req: u64,
            /// VM the request wants to move.
            vm: u64,
            /// Destination host.
            dest_host: u64,
            /// 1-based send attempt (1 = first transmission).
            attempt: u64,
        },
        /// The destination shim ACKed a REQUEST; the move is committed.
        AckReceived = "ack_received" {
            /// Request id.
            req: u64,
            /// VM that moved.
            vm: u64,
        },
        /// The destination shim REJECTed a REQUEST.
        RejectReceived = "reject_received" => "migrations.rejected" {
            /// Request id.
            req: u64,
            /// VM that failed to move.
            vm: u64,
            /// Why the destination refused.
            reason: RejectKind,
        },
        /// A pending REQUEST passed its deadline without a verdict.
        RequestTimeout = "request_timeout" => "net.timeouts" {
            /// Request id.
            req: u64,
            /// Attempt that timed out.
            attempt: u64,
        },
        /// A timed-out REQUEST was retransmitted after backoff.
        RequestResent = "request_resent" => "net.resends" {
            /// Request id.
            req: u64,
            /// New 1-based attempt number.
            attempt: u64,
        },
        /// A duplicate delivery was absorbed by the receiver's dedup log.
        DuplicateAbsorbed = "duplicate_absorbed" {
            /// Request id of the duplicate.
            req: u64,
        },
        /// The k-median local search (Alg. 5) accepted an improving p-swap.
        SwapAccepted = "swap_accepted" => "kmedian.swaps" {
            /// 1-based improving-swap count within the search.
            iteration: u64,
            /// Objective value after the swap.
            cost: f64,
        },
        /// A VM migration was committed to the placement.
        MigrationCommitted = "migration_committed" => "migrations.committed" {
            /// VM that moved.
            vm: u64,
            /// Source host.
            from_host: u64,
            /// Destination host.
            to_host: u64,
            /// Migration cost `c(v, h)` of the move.
            cost: f64,
        },
        /// A planned VM migration could not be committed.
        MigrationFailed = "migration_failed" => "migrations.failed" {
            /// VM that stayed put.
            vm: u64,
            /// Rack whose shim had planned the move.
            rack: u64,
        },
        /// Alg. 1 rerouted delay-insensitive flows off a congested uplink.
        FlowsRerouted = "flows_rerouted" {
            /// Alerted rack.
            rack: u64,
            /// Flows moved to alternate paths.
            rerouted: u64,
            /// Flows that had no alternate path.
            stuck: u64,
        },
        /// A fault injector changed the cluster (link/host/shim up or down).
        FaultInjected = "fault_injected" {
            /// What changed.
            kind: FaultKind,
            /// Index of the affected link, host or rack.
            id: u64,
        },
        /// A shim fell back to degraded local-only operation.
        ShimDegraded = "shim_degraded" {
            /// Rack of the degraded shim.
            rack: u64,
        },
        /// A shim was declared dead by the liveness tracker.
        ShimCrashed = "shim_crashed" {
            /// Rack of the crashed shim.
            rack: u64,
        },
        /// A crashed shim came back, replayed its journal and rejoined.
        ShimRecovered = "shim_recovered" {
            /// Rack of the recovered shim.
            rack: u64,
        },
        /// A destination shim journalled a PREPARE (intent durable).
        TxnPrepared = "txn_prepared" => "txn.prepared" {
            /// Request id of the transaction.
            req: u64,
            /// VM the transaction wants to move.
            vm: u64,
            /// Destination host of the prepared move.
            dest_host: u64,
        },
        /// A prepared transaction committed (COMMIT applied, ACK sent).
        TxnCommitted = "txn_committed" => "txn.committed" {
            /// Request id of the transaction.
            req: u64,
            /// VM that moved.
            vm: u64,
        },
        /// A prepared transaction aborted (rolled back or lease-expired).
        TxnAborted = "txn_aborted" => "txn.aborted" {
            /// Request id of the transaction.
            req: u64,
            /// VM whose move was undone.
            vm: u64,
        },
        /// The failure detector moved a shim from Alive to Suspect: its
        /// heartbeat silence exceeded the adaptive suspect threshold.
        ShimSuspected = "shim_suspected" => "detector.suspected" {
            /// Rack of the suspected shim.
            rack: u64,
        },
        /// The failure detector declared a shim Dead: silence exceeded the
        /// dead threshold and its racks are eligible for takeover.
        ShimDeclaredDead = "shim_declared_dead" => "detector.declared_dead" {
            /// Rack of the dead shim.
            rack: u64,
        },
        /// A neighbor shim took over a dead shim's rack; the rack's epoch
        /// was bumped so the old manager's stale messages can be fenced.
        RegionTakenOver = "region_taken_over" => "region.takeovers" {
            /// Rack whose management changed hands.
            rack: u64,
            /// Rack of the shim that took over.
            by: u64,
            /// The rack's epoch after the bump.
            epoch: u64,
        },
        /// A named network partition healed; the cut rack sets rejoined.
        PartitionHealed = "partition_healed" => "net.healed" {
            /// Index of the healed partition window.
            partition: u64,
            /// Racks that were inside the partition set.
            racks: u64,
        },
        /// A 2PC message carrying a pre-takeover epoch was fenced and
        /// rejected instead of being applied.
        StaleEpochRejected = "stale_epoch_rejected" => "txn.fenced" {
            /// Request id of the fenced message.
            req: u64,
            /// Rack that fenced the message.
            rack: u64,
            /// Epoch the stale message carried.
            stale: u64,
            /// The rack's current epoch.
            current: u64,
        },
        /// A committed migration's pre-copy began streaming on the transfer
        /// scheduler (the 2PC commit finalizes at `TransferCompleted`).
        TransferStarted = "transfer_started" => "transfer.started" {
            /// 2PC request id of the migration.
            req: u64,
            /// VM being transferred.
            vm: u64,
            /// Pre-copy volume in bytes.
            bytes: f64,
            /// Hop count of the chosen route (0 = intra-rack).
            hops: u64,
            /// Max-min fair rate granted at admission, bytes per tick.
            rate: f64,
            /// Ticks the transfer waited behind the admission cap.
            waited: u64,
        },
        /// QCN congestion steered a pre-copy off its primary k-shortest
        /// route onto an alternate candidate.
        TransferRerouted = "transfer_rerouted" => "transfer.rerouted" {
            /// 2PC request id of the migration.
            req: u64,
            /// VM being transferred.
            vm: u64,
            /// Hop count of the alternate route actually taken.
            hops: u64,
        },
        /// A pre-copy streamed its last byte; placement flips now.
        TransferCompleted = "transfer_completed" => "transfer.completed" {
            /// 2PC request id of the migration.
            req: u64,
            /// VM that finished moving.
            vm: u64,
            /// Wall ticks from admission to completion.
            ticks: u64,
            /// Achieved bandwidth in bytes per tick.
            bandwidth: f64,
        },
        /// A link failure cut every surviving route for an in-flight
        /// pre-copy; it holds its checkpoint and waits out the stall budget.
        TransferStalled = "transfer_stalled" => "transfer.stalled" {
            /// 2PC request id of the migration.
            req: u64,
            /// VM whose pre-copy stalled.
            vm: u64,
            /// Edge index of the link whose failure caused the stall.
            link: u64,
        },
        /// A stalled pre-copy found a surviving route and resumed from its
        /// checkpoint (bytes already copied, minus the dirty re-copy penalty).
        TransferResumed = "transfer_resumed" => "transfer.resumed" {
            /// 2PC request id of the migration.
            req: u64,
            /// VM whose pre-copy resumed.
            vm: u64,
            /// Bytes the checkpoint saved versus restarting from zero.
            saved: f64,
        },
        /// A stalled pre-copy's backoff timer fired and it re-probed for a
        /// surviving route (whether or not one was found).
        TransferRetried = "transfer_retried" => "transfer.retried" {
            /// 2PC request id of the migration.
            req: u64,
            /// VM whose pre-copy retried.
            vm: u64,
            /// Retry attempt number (1-based).
            attempt: u64,
        },
        /// A pre-copy exhausted its retry budget (or lost an endpoint) and
        /// escalated to a clean 2PC abort: lease released, source placement
        /// kept, `txn_aborted` accounted.
        TransferFailed = "transfer_failed" => "transfer.failed" {
            /// 2PC request id of the migration.
            req: u64,
            /// VM whose migration aborted.
            vm: u64,
            /// Retry attempts consumed before giving up.
            attempts: u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Declares one sample of every `Event` variant with its exact JSON
    /// line and its counter, as `samples()` and `pinned(&Event)`.
    /// `pinned` is a `match` without a wildcard arm, so a variant missing
    /// from the list fails to compile, and every listed variant has a
    /// sample to render.
    macro_rules! pins {
        ($(
            $variant:ident { $($field:ident: $value:expr),* $(,)? }
                => $json:literal, $counter:expr,
        )*) => {
            fn samples() -> Vec<Event> {
                vec![$(Event::$variant { $($field: $value),* }),*]
            }

            fn pinned(ev: &Event) -> (&'static str, Option<&'static str>) {
                match ev {
                    $(Event::$variant { .. } => ($json, $counter),)*
                }
            }
        };
    }

    pins! {
        RoundStart { time: 3 }
            => r#"{"ev":"round_start","time":3}"#,
            None,
        RoundEnd { time: 3, migrations: 12, reroutes: 2 }
            => r#"{"ev":"round_end","time":3,"migrations":12,"reroutes":2}"#,
            None,
        AlertRaised { time: 7, rack: 2, kind: AlertKind::OuterSwitch, severity: 0.5 }
            => r#"{"ev":"alert_raised","time":7,"rack":2,"kind":"outer_switch","severity":0.5}"#,
            None,
        VictimsSelected { rack: 2, candidates: 9, selected: 3 }
            => r#"{"ev":"victims_selected","rack":2,"candidates":9,"selected":3}"#,
            None,
        PlanComputed { rack: 2, proposals: 3, unassigned: 1, search_space: 48 }
            => r#"{"ev":"plan_computed","rack":2,"proposals":3,"unassigned":1,"search_space":48}"#,
            None,
        RequestSent { req: 9, vm: 4, dest_host: 17, attempt: 1 }
            => r#"{"ev":"request_sent","req":9,"vm":4,"dest_host":17,"attempt":1}"#,
            None,
        AckReceived { req: 9, vm: 4 }
            => r#"{"ev":"ack_received","req":9,"vm":4}"#,
            None,
        RejectReceived { req: 1, vm: 2, reason: RejectKind::Stale }
            => r#"{"ev":"reject_received","req":1,"vm":2,"reason":"stale_epoch"}"#,
            Some("migrations.rejected"),
        RequestTimeout { req: 9, attempt: 2 }
            => r#"{"ev":"request_timeout","req":9,"attempt":2}"#,
            Some("net.timeouts"),
        RequestResent { req: 9, attempt: 3 }
            => r#"{"ev":"request_resent","req":9,"attempt":3}"#,
            Some("net.resends"),
        DuplicateAbsorbed { req: 9 }
            => r#"{"ev":"duplicate_absorbed","req":9}"#,
            None,
        SwapAccepted { iteration: 4, cost: 12.25 }
            => r#"{"ev":"swap_accepted","iteration":4,"cost":12.25}"#,
            Some("kmedian.swaps"),
        MigrationCommitted { vm: 4, from_host: 1, to_host: 17, cost: 101.5 }
            => r#"{"ev":"migration_committed","vm":4,"from_host":1,"to_host":17,"cost":101.5}"#,
            Some("migrations.committed"),
        MigrationFailed { vm: 4, rack: 2 }
            => r#"{"ev":"migration_failed","vm":4,"rack":2}"#,
            Some("migrations.failed"),
        FlowsRerouted { rack: 2, rerouted: 5, stuck: 1 }
            => r#"{"ev":"flows_rerouted","rack":2,"rerouted":5,"stuck":1}"#,
            None,
        FaultInjected { kind: FaultKind::Partition, id: 3 }
            => r#"{"ev":"fault_injected","kind":"partition","id":3}"#,
            None,
        ShimDegraded { rack: 2 }
            => r#"{"ev":"shim_degraded","rack":2}"#,
            None,
        ShimCrashed { rack: 2 }
            => r#"{"ev":"shim_crashed","rack":2}"#,
            None,
        ShimRecovered { rack: 2 }
            => r#"{"ev":"shim_recovered","rack":2}"#,
            None,
        TxnPrepared { req: 9, vm: 4, dest_host: 17 }
            => r#"{"ev":"txn_prepared","req":9,"vm":4,"dest_host":17}"#,
            Some("txn.prepared"),
        TxnCommitted { req: 9, vm: 4 }
            => r#"{"ev":"txn_committed","req":9,"vm":4}"#,
            Some("txn.committed"),
        TxnAborted { req: 9, vm: 4 }
            => r#"{"ev":"txn_aborted","req":9,"vm":4}"#,
            Some("txn.aborted"),
        ShimSuspected { rack: 1 }
            => r#"{"ev":"shim_suspected","rack":1}"#,
            Some("detector.suspected"),
        ShimDeclaredDead { rack: 1 }
            => r#"{"ev":"shim_declared_dead","rack":1}"#,
            Some("detector.declared_dead"),
        RegionTakenOver { rack: 3, by: 1, epoch: 2 }
            => r#"{"ev":"region_taken_over","rack":3,"by":1,"epoch":2}"#,
            Some("region.takeovers"),
        PartitionHealed { partition: 0, racks: 4 }
            => r#"{"ev":"partition_healed","partition":0,"racks":4}"#,
            Some("net.healed"),
        StaleEpochRejected { req: 9, rack: 3, stale: 0, current: 2 }
            => r#"{"ev":"stale_epoch_rejected","req":9,"rack":3,"stale":0,"current":2}"#,
            Some("txn.fenced"),
        TransferStarted { req: 5, vm: 7, bytes: 8.0, hops: 4, rate: 2.0, waited: 0 }
            => r#"{"ev":"transfer_started","req":5,"vm":7,"bytes":8,"hops":4,"rate":2,"waited":0}"#,
            Some("transfer.started"),
        TransferRerouted { req: 5, vm: 7, hops: 6 }
            => r#"{"ev":"transfer_rerouted","req":5,"vm":7,"hops":6}"#,
            Some("transfer.rerouted"),
        TransferCompleted { req: 5, vm: 7, ticks: 4, bandwidth: 2.5 }
            => r#"{"ev":"transfer_completed","req":5,"vm":7,"ticks":4,"bandwidth":2.5}"#,
            Some("transfer.completed"),
        TransferStalled { req: 5, vm: 7, link: 12 }
            => r#"{"ev":"transfer_stalled","req":5,"vm":7,"link":12}"#,
            Some("transfer.stalled"),
        TransferResumed { req: 5, vm: 7, saved: 3.5 }
            => r#"{"ev":"transfer_resumed","req":5,"vm":7,"saved":3.5}"#,
            Some("transfer.resumed"),
        TransferRetried { req: 5, vm: 7, attempt: 2 }
            => r#"{"ev":"transfer_retried","req":5,"vm":7,"attempt":2}"#,
            Some("transfer.retried"),
        TransferFailed { req: 5, vm: 7, attempts: 4 }
            => r#"{"ev":"transfer_failed","req":5,"vm":7,"attempts":4}"#,
            Some("transfer.failed"),
    }

    #[test]
    fn every_variant_renders_its_pinned_json_line() {
        let samples = samples();
        assert_eq!(samples.len(), 34);
        for ev in &samples {
            let (json, counter) = pinned(ev);
            assert_eq!(ev.to_json(), json, "{}", ev.kind());
            assert_eq!(ev.counter(), counter, "{}", ev.kind());
        }
        let declared = samples.iter().filter_map(Event::counter).count();
        assert_eq!(declared, 21);
        let listed: Vec<_> = samples.iter().map(|ev| (ev.kind(), ev.counter())).collect();
        assert_eq!(listed, Event::KIND_COUNTERS);
    }

    #[test]
    fn every_kind_is_in_the_design_event_map() {
        let design = include_str!("../../../DESIGN.md");
        let start = design.find("\n## 7. ").expect("DESIGN.md §7");
        let section = &design[start + 1..];
        let section = &section[..section.find("\n## ").unwrap_or(section.len())];
        let missing: Vec<&str> = samples()
            .iter()
            .map(Event::kind)
            .filter(|kind| !section.contains(&format!("`{kind}`")))
            .collect();
        assert!(missing.is_empty(), "DESIGN.md §7 lacks {missing:?}");
    }

    /// Declares every label of the three label enums as `label_pins()`:
    /// each variant's `label()`, its `Display` and its pinned label. Each
    /// enum's `match` has no wildcard arm, so a variant missing from the
    /// list fails to compile.
    macro_rules! label_pins {
        ($($ty:ident { $($variant:ident => $label:literal,)* })*) => {
            fn label_pins() -> Vec<(&'static str, String, &'static str)> {
                let mut out = Vec::new();
                $(
                    let pinned = |kind: $ty| match kind {
                        $($ty::$variant => $label,)*
                    };
                    out.extend([$($ty::$variant),*].map(|k| (k.label(), k.to_string(), pinned(k))));
                )*
                out
            }
        };
    }

    label_pins! {
        AlertKind {
            Host => "host",
            LocalTor => "local_tor",
            OuterSwitch => "outer_switch",
        }
        RejectKind {
            Capacity => "capacity",
            Conflict => "conflict",
            Noop => "noop",
            Expired => "expired",
            Stale => "stale_epoch",
        }
        FaultKind {
            LinkDown => "link_down",
            LinkUp => "link_up",
            HostDown => "host_down",
            HostUp => "host_up",
            ShimDown => "shim_down",
            ShimUp => "shim_up",
            Partition => "partition",
            Heal => "heal",
        }
    }

    #[test]
    fn labels_are_stable() {
        let pins = label_pins();
        assert_eq!(pins.len(), 3 + 5 + 8);
        for (label, shown, pinned) in &pins {
            assert_eq!(label, pinned);
            assert_eq!(shown, pinned);
        }
    }

    #[test]
    fn equality_is_structural() {
        let a = Event::AckReceived { req: 9, vm: 4 };
        let b = Event::AckReceived { req: 9, vm: 4 };
        let c = Event::AckReceived { req: 9, vm: 5 };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
