//! Properties of the network-aware transfer scheduler (`sheriff-transfer`)
//! as wired into the fabric runtime:
//!
//! 1. With the transfer model *disabled* (the default), the fabric is
//!    byte-identical to the PR 7 event-core runtime — pinned by digests
//!    of the full event stream + report captured on the pre-transfer
//!    tree.
//! 2. With the transfer model *enabled*, same-seed rounds are
//!    byte-identical across repeats even under lossy channels and
//!    mid-transfer shim crashes.

use dcn_sim::engine::{Cluster, ClusterConfig};
use dcn_sim::{ChannelFaults, RackMetric, SimConfig};
use dcn_topology::fattree::{self, FatTreeConfig};
use proptest::prelude::*;
use sheriff_core::fabric::MAX_TICKS;
use sheriff_core::{
    CrashWindow, FabricConfig, FabricRuntime, LinkFaultWindow, RoundOutcome, RunCtx, Runtime,
};
use sheriff_obs::{Event, RingRecorder};

fn small_cluster(seed: u64) -> Cluster {
    let dcn = fattree::build(&FatTreeConfig::paper(4));
    Cluster::build(
        dcn,
        &ClusterConfig {
            vms_per_host: 2.5,
            skew: 3.0,
            seed,
            ..ClusterConfig::default()
        },
        SimConfig::paper(),
    )
}

/// FNV-1a over the serialized event stream and the report's debug
/// rendering: any behavioral drift — one extra event, one changed
/// counter — changes the digest.
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn round_digest(cluster_seed: u64, cfg: &FabricConfig) -> u64 {
    let (report, rec, c) = faulted_round(cluster_seed, cfg);
    digest_of(&report, &rec, &c, cfg.transfer.is_some())
}

fn digest_of(
    report: &RoundOutcome,
    rec: &RingRecorder,
    c: &Cluster,
    transfer_enabled: bool,
) -> u64 {
    let mut buf = String::new();
    for ev in rec.events() {
        buf.push_str(&ev.to_json());
        buf.push('\n');
    }
    // the report fields of the pre-transfer fabric, spelled out so adding
    // *new* fields to RoundOutcome (a schema change, not a behavior
    // change) does not move the digest; the counts an event or `close`
    // records come from the recorder, in the slots the fields had
    let count = |name: &str| rec.counters().get(name);
    for m in &report.plan.moves {
        buf.push_str(&format!(
            "mv {:?} {:?} {:?} {};",
            m.vm, m.from, m.to, m.cost
        ));
    }
    buf.push_str(&format!(
        "plan {} {} {} {:?};",
        report.plan.total_cost,
        report.plan.search_space,
        report.plan.rejected,
        report.plan.unplaced
    ));
    buf.push_str(&format!(
        "r {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {};",
        report.plan.rejected,
        report.shims,
        count("net.dropped"),
        report.timeouts,
        report.resends,
        count("net.dedup_hits"),
        rec.count_kind("shim_degraded"),
        report.crashed_shims,
        report.ticks,
        count("txn.prepared"),
        count("txn.committed"),
        count("txn.aborted"),
        report.recoveries,
        count("region.takeovers"),
        count("txn.fenced"),
        report.partition_degraded,
        report.reconciliations,
        report.audit,
    ));
    if transfer_enabled {
        buf.push_str(&format!(
            "t {} {} {} {} {} {} {} {} {};",
            report.transfers_started,
            report.transfers_completed,
            report.transfer_reroutes,
            report.transfer_p95_completion,
            report.bottleneck_serialized,
            report.transfer_stalls,
            report.transfer_retries,
            report.transfer_failures,
            report.resumed_bytes_saved,
        ));
    }
    // final placement is part of the behavior, not just the report
    for vm in c.placement.vm_ids() {
        buf.push_str(&format!("{vm:?}={:?};", c.placement.host_of(vm)));
    }
    fnv1a(buf.bytes())
}

fn pr7_cases() -> Vec<(u64, FabricConfig)> {
    let reliable = FabricConfig::default();
    let lossy = FabricConfig {
        faults: ChannelFaults {
            drop: 0.10,
            duplicate: 0.10,
            reorder: 0.15,
            delay_min: 1,
            delay_max: 3,
        },
        seed: 99,
        ..FabricConfig::default()
    };
    let mut crashy = lossy.clone();
    crashy.crashed = vec![CrashWindow {
        rack: dcn_topology::RackId::from_index(1),
        crash_at: 5,
        recover_at: Some(14),
    }];
    vec![(26, reliable), (27, lossy), (31, crashy)]
}

/// Digests of the PR 7 fabric captured before `sheriff-transfer`
/// existed. With `FabricConfig::transfer` left at `None` the runtime
/// must keep reproducing these exactly.
const PR7_DIGESTS: [u64; 3] = [
    0x0fdb_3b6b_9bcb_d834,
    0xbc1e_4385_741d_102c,
    0xad38_c394_7ec1_d63c,
];

#[test]
#[ignore = "capture helper: prints digests for pinning"]
fn print_pr7_digests() {
    for (i, (seed, cfg)) in pr7_cases().into_iter().enumerate() {
        println!("case {i}: {:#018x}", round_digest(seed, &cfg));
        let _ = seed;
    }
}

#[test]
fn disabled_transfer_model_reproduces_pr7_digests() {
    for (i, (seed, cfg)) in pr7_cases().into_iter().enumerate() {
        assert_eq!(
            round_digest(seed, &cfg),
            PR7_DIGESTS[i],
            "case {i} drifted from the PR 7 fabric"
        );
    }
}

/// Digests of the transfer-enabled, fault-free fabric (the `pr7_cases`
/// channel configs with crash windows cleared and
/// `TransferConfig::default()`), over every transfer field of the
/// outcome. They were re-pinned once, when the digest moved onto
/// `RoundOutcome`: both formulas were computed in one run on the tree
/// that still matched the original pins. The recovery machinery must
/// stay strictly inert — byte-identical — when no link fault or crash is
/// scheduled.
const PR8_ENABLED_DIGESTS: [u64; 3] = [
    0x9fa7_7182_b06c_a4c0,
    0x6265_a1c5_3066_5457,
    0x551e_fa30_c2e0_9daf,
];

#[test]
#[ignore = "capture helper: prints digests for pinning"]
fn print_pr8_enabled_digests() {
    for (i, (seed, cfg)) in pr7_cases().into_iter().enumerate() {
        let mut cfg = cfg;
        cfg.crashed.clear();
        let cfg = cfg.with_transfer(sheriff_transfer::TransferConfig::default());
        println!("enabled case {i}: {:#018x}", round_digest(seed, &cfg));
    }
}

#[test]
fn enabled_without_faults_reproduces_pr8_digests() {
    for (i, (seed, cfg)) in pr7_cases().into_iter().enumerate() {
        let mut cfg = cfg;
        cfg.crashed.clear();
        let cfg = cfg.with_transfer(sheriff_transfer::TransferConfig::default());
        assert_eq!(
            round_digest(seed, &cfg),
            PR8_ENABLED_DIGESTS[i],
            "enabled case {i} drifted from the PR 8 fabric"
        );
    }
}

/// One round of a fresh runtime for `cfg` on `small_cluster(cluster_seed)`
/// at 15% alerts; returns `(outcome, recorder, cluster)`.
fn faulted_round(cluster_seed: u64, cfg: &FabricConfig) -> (RoundOutcome, RingRecorder, Cluster) {
    let mut c = small_cluster(cluster_seed);
    let metric = RackMetric::build(&c.dcn, &c.sim);
    let alerts = c.fraction_alerts(0.15, 0);
    let vals: Vec<f64> = c
        .placement
        .vm_ids()
        .map(|vm| c.placement.utilization(c.placement.host_of(vm)))
        .collect();
    let mut rec = RingRecorder::new(1 << 16);
    let report = FabricRuntime::with_config(cfg.clone()).step(&mut RunCtx {
        cluster: &mut c,
        metric: &metric,
        alerts: &alerts,
        alert_values: &vals,
        sink: &mut rec,
    });
    (report, rec, c)
}

#[test]
fn mid_round_link_failure_stalls_then_resumes_from_checkpoint() {
    // slow transfers so plenty are mid-stream when, at tick 10, every
    // edge dies — no surviving candidate exists, so streaming pre-copies
    // stall at their checkpoints — and at tick 16 the fabric heals and
    // they resume
    let edges = small_cluster(26).dcn.graph.edge_count();
    let cfg = FabricConfig {
        link_faults: (0..edges)
            .map(|e| LinkFaultWindow::during(e, 10, 16))
            .collect(),
        ..FabricConfig::default()
    }
    .with_transfer(sheriff_transfer::TransferConfig {
        link_bandwidth: 1.0,
        ..sheriff_transfer::TransferConfig::default()
    });
    let (report, rec, _) = faulted_round(26, &cfg);
    assert!(report.transfer_stalls >= 1, "no transfer ever stalled");
    assert!(
        rec.count_kind("transfer_resumed") >= 1,
        "no stalled transfer resumed after the restore"
    );
    assert!(
        report.resumed_bytes_saved > 0.0,
        "checkpointed resume must save the bytes copied before the stall"
    );
    assert_eq!(
        report.transfers_completed, report.transfers_started,
        "every stalled pre-copy must still finish once the links return"
    );
    assert_eq!(report.transfer_failures, 0);
    assert!(report.audit.is_clean(), "{}", report.audit);
}

#[test]
fn permanent_link_failure_exhausts_retries_and_aborts_cleanly() {
    // every edge dies at tick 10 and never comes back: stalled pre-copies
    // burn their retry budget and escalate to a clean journal abort; the
    // sources replan and the round still terminates with a clean audit
    let edges = small_cluster(26).dcn.graph.edge_count();
    let cfg = FabricConfig {
        link_faults: (0..edges)
            .map(|e| LinkFaultWindow {
                link: e,
                fail_at: 10,
                restore_at: None,
            })
            .collect(),
        ..FabricConfig::default()
    }
    .with_transfer(sheriff_transfer::TransferConfig {
        link_bandwidth: 1.0,
        stall_budget: 4,
        max_attempts: 2,
        ..sheriff_transfer::TransferConfig::default()
    });
    let (report, rec, _) = faulted_round(26, &cfg);
    let count = |name: &str| rec.counters().get(name) as usize;
    assert!(report.transfer_stalls >= 1, "no transfer ever stalled");
    assert!(
        report.transfer_failures >= 1,
        "permanent outage must exhaust some retry budget"
    );
    assert_eq!(
        rec.count_kind("transfer_failed"),
        report.transfer_failures,
        "every failure emits its event"
    );
    assert!(report.transfer_retries >= 1);
    assert!(
        count("txn.aborted") >= report.transfer_failures,
        "each exhausted transfer escalates to a journal abort"
    );
    assert_eq!(
        count("txn.prepared"),
        count("txn.committed") + count("txn.aborted"),
        "2PC conservation: every prepare settles exactly once"
    );
    assert!(report.audit.is_clean(), "{}", report.audit);
}

#[test]
fn rack_crash_without_recovery_fails_transfers_and_accounts_aborts() {
    // regression for the silent rack-crash cancellation: a pre-copy
    // streaming into a rack that dies for good must surface as a
    // `transfer_failed` event with its journal prepare aborted, not
    // vanish behind a bare cancellation counter
    let mut found = false;
    for rack in 0..8u32 {
        let cfg = FabricConfig {
            crashed: vec![CrashWindow {
                rack: dcn_topology::RackId::from_index(rack as usize),
                crash_at: 8,
                recover_at: None,
            }],
            ..FabricConfig::default()
        }
        .with_transfer(sheriff_transfer::TransferConfig {
            link_bandwidth: 1.0,
            ..sheriff_transfer::TransferConfig::default()
        });
        let (report, rec, _) = faulted_round(26, &cfg);
        let failed = rec.count_kind("transfer_failed");
        if failed == 0 {
            continue;
        }
        found = true;
        let count = |name: &str| rec.counters().get(name) as usize;
        assert!(
            count("txn.aborted") >= failed,
            "each failed transfer must abort its journalled prepare: \
             {failed} failures, {} aborts",
            count("txn.aborted")
        );
        assert_eq!(
            count("txn.prepared"),
            count("txn.committed") + count("txn.aborted"),
            "2PC conservation under rack crash"
        );
        assert!(report.audit.is_clean(), "{}", report.audit);
        break;
    }
    assert!(
        found,
        "no crashed rack ever hosted an in-flight pre-copy; the \
         regression path was never exercised"
    );
}

#[test]
fn enabled_transfers_stream_commit_and_audit_clean() {
    let cfg = FabricConfig::default().with_transfer(sheriff_transfer::TransferConfig::default());
    let initial = small_cluster(26).placement;
    let (report, rec, c) = faulted_round(26, &cfg);

    assert!(report.transfers_started > 0, "no transfer ever started");
    assert_eq!(
        report.transfers_completed, report.transfers_started,
        "a reliable round must finish every pre-copy it starts"
    );
    let durations: Vec<u64> = rec
        .events()
        .filter_map(|e| match e {
            Event::TransferCompleted { ticks, .. } => Some(*ticks),
            _ => None,
        })
        .collect();
    assert_eq!(
        durations.len(),
        report.transfers_completed,
        "every completion records its duration"
    );
    assert!(durations.iter().all(|&d| d >= 1));
    assert!(!report.plan.moves.is_empty());
    assert_eq!(
        rec.counters().get("txn.committed") as usize,
        report.plan.moves.len()
    );
    assert_eq!(rec.count_kind("transfer_started"), report.transfers_started);
    assert_eq!(
        rec.count_kind("transfer_completed"),
        report.transfers_completed
    );
    assert!(report.audit.is_clean(), "{}", report.audit);
    // exactly-once: replaying the recorded moves reproduces the final
    // placement even with the deferred, transfer-gated commit path
    let mut loc: std::collections::HashMap<_, _> = c
        .placement
        .vm_ids()
        .map(|vm| (vm, initial.host_of(vm)))
        .collect();
    for m in &report.plan.moves {
        assert_eq!(loc[&m.vm], m.from, "stale or doubled move for {}", m.vm);
        loc.insert(m.vm, m.to);
    }
    for vm in c.placement.vm_ids() {
        assert_eq!(loc[&vm], c.placement.host_of(vm));
    }
}

#[test]
fn enabled_round_takes_longer_than_instantaneous_settlement() {
    let run = |transfer: Option<sheriff_transfer::TransferConfig>| {
        let cfg = FabricConfig {
            transfer,
            ..FabricConfig::default()
        };
        faulted_round(26, &cfg).0
    };
    let instant = run(None);
    let modeled = run(Some(sheriff_transfer::TransferConfig {
        link_bandwidth: 1.0,
        ..sheriff_transfer::TransferConfig::default()
    }));
    assert!(
        modeled.ticks > instant.ticks,
        "streaming pre-copies must stretch the round: {} vs {}",
        modeled.ticks,
        instant.ticks
    );
    assert_eq!(
        modeled.plan.moves.len(),
        instant.plan.moves.len(),
        "the transfer model changes timing, not outcomes, on a reliable channel"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same-seed transfer schedules are byte-identical across 5 repeats
    /// under lossy channels and mid-transfer shim crashes: the full
    /// event stream (transfer events included), report, and final
    /// placement digest to the same value every time.
    #[test]
    fn transfer_schedule_is_byte_identical_across_repeats(
        cluster_seed in 0u64..4,
        net_seed in 0u64..500,
        drop in 0.0f64..0.25,
        duplicate in 0.0f64..0.2,
        crash_at in 3u64..20,
        recover_delay in 0u64..16,
        bandwidth in 1u64..6,
        max_concurrent in 0usize..4,
    ) {
        let cfg = FabricConfig {
            faults: ChannelFaults {
                drop,
                duplicate,
                reorder: 0.1,
                delay_min: 1,
                delay_max: 2,
            },
            seed: net_seed,
            crashed: vec![CrashWindow {
                rack: dcn_topology::RackId::from_index((cluster_seed as usize) % 8),
                crash_at,
                recover_at: (recover_delay > 0).then(|| crash_at + recover_delay),
            }],
            ..FabricConfig::default()
        }
        .with_transfer(sheriff_transfer::TransferConfig {
            link_bandwidth: bandwidth as f64,
            max_concurrent,
            ..sheriff_transfer::TransferConfig::default()
        });
        let first = round_digest(cluster_seed, &cfg);
        for rep in 1..5 {
            prop_assert_eq!(first, round_digest(cluster_seed, &cfg), "repeat {} diverged", rep);
        }
    }

    /// Under any fault mix, the transfer-enabled fabric keeps the
    /// exactly-once and audit invariants.
    #[test]
    fn enabled_transfers_stay_safe_under_faults(
        cluster_seed in 0u64..4,
        net_seed in 0u64..500,
        drop in 0.0f64..0.3,
        crash_at in 0u64..24,
    ) {
        let cfg = FabricConfig {
            faults: ChannelFaults {
                drop,
                duplicate: 0.1,
                reorder: 0.1,
                delay_min: 1,
                delay_max: 2,
            },
            seed: net_seed,
            crashed: vec![CrashWindow {
                rack: dcn_topology::RackId::from_index(1),
                crash_at,
                recover_at: Some(crash_at + 9),
            }],
            ..FabricConfig::default()
        }
        .with_transfer(sheriff_transfer::TransferConfig::default());
        let initial = small_cluster(cluster_seed).placement;
        let (report, _, c) = faulted_round(cluster_seed, &cfg);
        // no alerted rack is written off for the whole round here, so
        // no shim means no alerts
        prop_assume!(report.shims > 0);
        prop_assert!(report.ticks <= MAX_TICKS);
        prop_assert!(report.audit.is_clean(), "{}", report.audit);
        let mut loc: std::collections::HashMap<_, _> = c
            .placement
            .vm_ids()
            .map(|vm| (vm, initial.host_of(vm)))
            .collect();
        for m in &report.plan.moves {
            prop_assert_eq!(loc[&m.vm], m.from, "stale or doubled move for {}", m.vm);
            loc.insert(m.vm, m.to);
        }
        for vm in c.placement.vm_ids() {
            prop_assert_eq!(loc[&vm], c.placement.host_of(vm));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The recovery state machine under arbitrary fault schedules:
    /// random mid-round link fail/restore windows combined with random
    /// shim crash windows must leave (1) a clean audit — which includes
    /// the fabric's in-round probes that no transfer streams across a
    /// failed link and every active transfer holds a Prepared journal
    /// entry, (2) 2PC conservation (every prepare commits or aborts,
    /// never both, never neither), and (3) byte-identical behavior
    /// across 5 repeats of the same schedule.
    #[test]
    fn random_fault_schedules_recover_cleanly_and_deterministically(
        cluster_seed in 0u64..4,
        // restore/recover delays of 0 mean "never" (an Option encoded
        // as a plain integer — the vendored proptest has no option::of)
        link_schedule in proptest::collection::vec(
            (0usize..32, 0u64..40, 0u64..24),
            0..6,
        ),
        crash_schedule in proptest::collection::vec(
            (0usize..8, 2u64..24, 0u64..16),
            0..2,
        ),
        stall_budget in 2u64..6,
        max_attempts in 1u32..4,
    ) {
        let cfg = FabricConfig {
            link_faults: link_schedule
                .iter()
                .map(|&(link, fail_at, restore_delay)| LinkFaultWindow {
                    link,
                    fail_at,
                    restore_at: (restore_delay > 0).then(|| fail_at + restore_delay),
                })
                .collect(),
            crashed: crash_schedule
                .iter()
                .map(|&(rack, crash_at, recover_delay)| CrashWindow {
                    rack: dcn_topology::RackId::from_index(rack),
                    crash_at,
                    recover_at: (recover_delay > 0).then(|| crash_at + recover_delay),
                })
                .collect(),
            ..FabricConfig::default()
        }
        .with_transfer(sheriff_transfer::TransferConfig {
            link_bandwidth: 1.0,
            stall_budget,
            max_attempts,
            ..sheriff_transfer::TransferConfig::default()
        });
        let (report, rec, c) = faulted_round(cluster_seed, &cfg);
        let first = digest_of(&report, &rec, &c, true);
        let count = |name: &str| rec.counters().get(name) as usize;
        prop_assert!(report.audit.is_clean(), "{}", report.audit);
        prop_assert_eq!(
            count("txn.prepared"),
            count("txn.committed") + count("txn.aborted"),
            "2PC conservation: every prepare settles exactly once"
        );
        prop_assert!(
            count("txn.aborted") >= report.transfer_failures,
            "each exhausted transfer escalates to a journal abort: \
             links={:?} crashes={:?} failures={} aborted={} prepared={} committed={}",
            link_schedule,
            crash_schedule,
            report.transfer_failures,
            count("txn.aborted"),
            count("txn.prepared"),
            count("txn.committed")
        );
        for rep in 1..5 {
            let (r, re, cl) = faulted_round(cluster_seed, &cfg);
            prop_assert_eq!(
                first,
                digest_of(&r, &re, &cl, true),
                "repeat {} diverged",
                rep
            );
        }
    }
}
