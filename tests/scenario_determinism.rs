//! Determinism proofs for the scenario engine: the parallel seed sweep
//! is byte-identical to the serial one, and re-running a spec file
//! reproduces the same canonical report.

use proptest::prelude::*;
use sheriff_dcn::prelude::{aggregate, Event, ScenarioRunner, ScenarioSpec};

/// The canonical report of `spec` run on `threads` workers (0 = auto,
/// 1 = the serial path).
fn canonical(spec: &ScenarioSpec, threads: usize) -> String {
    let mut runner = ScenarioRunner::new(spec.clone());
    runner.threads = threads;
    let runs = runner.run().expect("scenario runs");
    aggregate(spec, &runs).canonical_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole contract: for any small scenario — any runtime, any
    /// seed pair, faults or not — the parallel sweep's canonical report
    /// is byte-identical to the serial one.
    #[test]
    fn parallel_sweep_matches_serial_byte_for_byte(
        base_seed in 1u64..1000,
        rounds in 1usize..4,
        runtime in 0usize..3,
        threads in 2usize..5,
        with_fault in any::<bool>(),
    ) {
        // "distributed" is a parse-time alias of "fabric"
        let runtime = ["centralized", "distributed", "fabric"][runtime];
        let fault = if with_fault {
            "\n[[fault]]\nround = 1\naction = \"fail_host\"\nhost = 0\n"
        } else {
            ""
        };
        let src = format!(
            r#"
name = "prop"
rounds = {rounds}
seeds = [{base_seed}, {}]

[topology]
kind = "fat_tree"
pods = 4

[cluster]
vms_per_host = 1.5
skew = 2.0

[runtime]
kind = "{runtime}"
{fault}"#,
            base_seed + 1
        );
        let spec = ScenarioSpec::parse_str(&src).expect("generated spec parses");
        spec.validate().expect("generated spec is valid");
        let serial = canonical(&spec, 1);
        let parallel = canonical(&spec, threads);
        prop_assert_eq!(serial, parallel);
    }
}

#[test]
fn rerunning_a_shipped_spec_file_reproduces_the_report() {
    // the bundled Fig. 9 scenario, truncated so the test stays fast;
    // truncation happens after parse, exactly like `scenarios --check`
    let mut spec = ScenarioSpec::load(std::path::Path::new("scenarios/fig9_prealert.toml"))
        .expect("bundled scenario parses");
    spec.rounds = 4;
    spec.seeds.truncate(2);
    let first = canonical(&spec, 0);
    let second = canonical(&spec, 2);
    let third = canonical(&spec, 1);
    assert_eq!(first, second, "parallel re-run diverged");
    assert_eq!(first, third, "serial run diverged from parallel");
    assert!(first.contains("\"columns\": [\"round\", \"stddev_pct\"]"));
    assert!(!first.contains("timings_ns"));
}

#[test]
fn mid_round_crash_scenario_is_deterministic_with_clean_audit() {
    // the crash-consistency scenario: shims die and recover *inside*
    // rounds; parallel must still equal serial byte-for-byte, and the
    // always-on auditor columns must report zero violations
    let mut spec = ScenarioSpec::load(std::path::Path::new("scenarios/mid_round_shim_crash.toml"))
        .expect("bundled scenario parses");
    spec.seeds.truncate(2);
    let serial = canonical(&spec, 1);
    let parallel = canonical(&spec, 2);
    assert_eq!(serial, parallel, "mid-round crashes broke determinism");
    for metric in [
        "audit_violations_total",
        "txn_committed_total",
        "txn_aborted_total",
        "shim_recoveries_total",
    ] {
        assert!(serial.contains(metric), "report lacks {metric}");
    }

    // per-round ground truth: the auditor never fires, transactions
    // commit, and the round-3 mid-round crash recovers in-round
    let mut runner = ScenarioRunner::new(spec.clone());
    runner.threads = 1;
    let runs = runner.run().expect("scenario runs");
    for run in &runs {
        for s in &run.rounds {
            assert!(
                s.outcome.audit.is_clean(),
                "seed {} round {}: auditor found violations",
                run.seed,
                s.round
            );
        }
        assert!(
            run.counters.get("txn.committed") > 0,
            "seed {}: no transaction ever committed",
            run.seed
        );
        assert!(
            run.rounds
                .iter()
                .map(|s| s.outcome.recoveries)
                .sum::<usize>()
                >= 1,
            "seed {}: the scheduled mid-round recovery never happened",
            run.seed
        );
    }
}

#[test]
fn fabric_shim_fate_settlement_order_is_not_hash_order() {
    // regression for the DET02 conversions in sheriff-core: the fabric
    // shim's outstanding/zombie tables and the audit journal index used
    // to be HashMaps, whose per-instance RandomState made the drain
    // order at crash/settlement time differ between runs *in the same
    // process*. A lossy channel plus mid-round crashes maximises how
    // many requests those tables hold when they are drained; five
    // repeat runs must produce byte-identical canonical reports.
    let src = r#"
name = "fate_order"
rounds = 8
seeds = [71, 72]

[topology]
kind = "fat_tree"
pods = 8

[cluster]
vms_per_host = 2.0
skew = 3.0

[workload]
alert_fraction = 0.08

[runtime]
kind = "fabric"
max_retry = 2

[sim.channel]
drop = 0.25
delay_min = 1
delay_max = 3

[[fault]]
round = 2
action = "crash_shim"
rack = 0
crash_at = 3
recover_at = 11

[[fault]]
round = 4
action = "crash_shim"
rack = 2
crash_at = 5
"#;
    let spec = ScenarioSpec::parse_str(src).expect("spec parses");
    spec.validate().expect("spec is valid");
    let reference = canonical(&spec, 1);
    for attempt in 1..5 {
        // odd attempts serial, even ones on two workers
        let again = canonical(&spec, 2 - attempt % 2);
        assert_eq!(
            reference, again,
            "run {attempt}: shim fate settlement leaked hash iteration order"
        );
    }
}

#[test]
fn zombie_shim_scenario_takes_over_and_fences_the_returner() {
    // the bundled zombie scenario is the epoch-fencing acceptance test:
    // the detector must declare rack 0 dead, a neighbour must take its
    // region over, and the returning shim's stale 2PC burst must be
    // rejected — for every seed in the file
    let spec = ScenarioSpec::load(std::path::Path::new("scenarios/zombie_shim.toml"))
        .expect("bundled scenario parses");
    let mut runner = ScenarioRunner::new(spec.clone());
    runner.threads = 1;
    let runs = runner.run().expect("scenario runs");
    for run in &runs {
        assert!(
            run.counters.get("shim_declared_dead") >= 1,
            "seed {}: the detector never declared rack 0 dead",
            run.seed
        );
        assert!(
            run.counters.get("region.takeovers") >= 1,
            "seed {}: nobody took the dead region over",
            run.seed
        );
        assert!(
            run.counters.get("stale_epoch_rejected") >= 1,
            "seed {}: the returning zombie was never fenced",
            run.seed
        );
        for s in &run.rounds {
            assert!(
                s.outcome.audit.is_clean(),
                "seed {} round {}: auditor found violations",
                run.seed,
                s.round
            );
        }
    }
    // determinism holds with the failover machinery engaged
    let serial = canonical(&spec, 1);
    let parallel = canonical(&spec, 2);
    assert_eq!(serial, parallel, "takeover/fencing broke determinism");
}

#[test]
fn region_partition_scenario_degrades_and_heals_clean() {
    let spec = ScenarioSpec::load(std::path::Path::new("scenarios/region_partition.toml"))
        .expect("bundled scenario parses");
    let mut runner = ScenarioRunner::new(spec.clone());
    runner.threads = 1;
    let runs = runner.run().expect("scenario runs");
    for run in &runs {
        assert!(
            run.rounds
                .iter()
                .map(|s| s.outcome.partition_degraded)
                .sum::<usize>()
                > 0,
            "seed {}: the cut never degraded anyone",
            run.seed
        );
        // a partition is not a crash: emission-based detection must not
        // let the cut trigger a takeover or any fencing
        assert_eq!(
            run.counters.get("region.takeovers"),
            0,
            "seed {}: a partition masqueraded as a crash",
            run.seed
        );
        for s in &run.rounds {
            assert!(
                s.outcome.audit.is_clean(),
                "seed {} round {}: auditor found violations",
                run.seed,
                s.round
            );
        }
    }
    let serial = canonical(&spec, 1);
    let parallel = canonical(&spec, 2);
    assert_eq!(serial, parallel, "partitions broke determinism");
}

/// Every `scenarios/*.toml`, in file-name order.
fn bundled_scenarios() -> Vec<std::path::PathBuf> {
    let mut entries: Vec<_> = std::fs::read_dir("scenarios")
        .expect("scenarios/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    entries.sort();
    entries
}

#[test]
fn every_bundled_scenario_parses_and_validates_clean() {
    let mut checked = 0;
    for path in bundled_scenarios() {
        let spec = ScenarioSpec::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let warnings = spec
            .validate()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            warnings.is_empty(),
            "{}: shipped scenarios must be warning-free: {warnings:?}",
            path.display()
        );
        checked += 1;
    }
    assert!(
        checked >= 6,
        "expected the full scenario library, found {checked}"
    );
}

/// FNV-1a-64 of each bundled scenario's full canonical report. A
/// refactor that claims identical behaviour must leave every digest
/// alone; a new scenario file needs its own pin.
const SCENARIO_DIGESTS: &[(&str, u64)] = &[
    ("burst_surge.toml", 0xe138_29d8_9adc_5c07),
    ("cascading_rack_failure.toml", 0xdb11_00e8_dbf8_628e),
    ("congested_core.toml", 0x6c0d_2b54_b76d_f59a),
    ("fig10_bcube.toml", 0x4c40_f8ad_5297_baba),
    ("fig9_prealert.toml", 0x1cbd_c57e_afa3_8a1b),
    ("flaky_spine.toml", 0x8b04_d0e0_70b0_9489),
    ("lossy_fabric.toml", 0x6d97_a50b_68c3_1f88),
    ("mid_round_shim_crash.toml", 0xaaa3_cb71_1391_8bce),
    ("mixed_topology.toml", 0x74e3_5902_44ce_a733),
    ("region_partition.toml", 0x11f8_01d0_5c82_7046),
    ("zombie_shim.toml", 0x22cd_4751_2dc9_11e0),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn every_bundled_scenario_reproduces_its_pinned_report() {
    let mut failures = Vec::new();
    for path in bundled_scenarios() {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 file name");
        let spec = ScenarioSpec::load(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let digest = fnv1a64(canonical(&spec, 0).as_bytes());
        match SCENARIO_DIGESTS.iter().find(|(n, _)| *n == name) {
            Some(&(_, pinned)) if pinned == digest => {}
            Some(&(_, pinned)) => failures.push(format!(
                "{name}: digest {digest:#018x}, pinned {pinned:#018x}"
            )),
            None => failures.push(format!("{name}: no pin; its digest is {digest:#018x}")),
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn every_declared_counter_equals_its_event_tally() {
    // `TallySink` tallies each event kind and each named counter, so a
    // counter bumped by hand beside the emit of its event counts twice
    let declared: Vec<(&str, &str)> = Event::KIND_COUNTERS
        .iter()
        .filter_map(|&(kind, counter)| Some((kind, counter?)))
        .collect();
    assert_eq!(declared.len(), 21);
    let mut specs: Vec<(String, ScenarioSpec)> = bundled_scenarios()
        .into_iter()
        .map(|path| {
            let spec = ScenarioSpec::load(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            (path.display().to_string(), spec)
        })
        .collect();
    let every_action = every_fault_action_spec(FABRIC_WITH_TRANSFERS, true);
    specs.push(("every fault action".into(), every_action));
    let mut exercised = std::collections::BTreeSet::new();
    for (name, spec) in specs {
        for run in ScenarioRunner::new(spec).run().expect("scenario runs") {
            for &(kind, counter) in &declared {
                let (events, count) = (run.counters.get(kind), run.counters.get(counter));
                assert_eq!(count, events, "{name} seed {}: {counter}", run.seed);
                if events > 0 {
                    exercised.insert(kind);
                }
            }
        }
    }
    // Alg. 5's k-median search runs in no scenario
    let unexercised: Vec<&str> = declared
        .iter()
        .map(|&(kind, _)| kind)
        .filter(|kind| !exercised.contains(kind))
        .collect();
    assert_eq!(unexercised, ["swap_accepted"]);
}

/// A k=4 Fat-Tree spec whose `[[fault]]` schedule fires every action
/// kind: an untimed link cut, a link blip that restores in-round and a
/// mid-round cut that stays down, `restore_link`, a host failure and its
/// silent repeat, `restore_host`, a rack failure and its restore, shim
/// crashes untimed and mid-round without recovery, `recover_shim`, and
/// an in-round and a standing partition with its heal.
/// `recovering_crash` adds a shim crash that recovers within its round.
fn every_fault_action_spec(runtime: &str, recovering_crash: bool) -> ScenarioSpec {
    let recovering = if recovering_crash {
        "[[fault]]\nround = 2\naction = \"crash_shim\"\nrack = 2\ncrash_at = 10\nrecover_at = 60\n"
    } else {
        ""
    };
    let src = format!(
        r#"
name = "every_fault_action"
rounds = 7
seeds = [11, 12]

[topology]
kind = "fat_tree"
pods = 4

[cluster]
vms_per_host = 2.0
skew = 3.0

[workload]
alert_fraction = 0.3

[runtime]
{runtime}

[[fault]]
round = 0
action = "fail_link"
link = 2

[[fault]]
round = 0
action = "fail_link"
link = 1
fail_at = 10
restore_at = 40

[[fault]]
round = 0
action = "fail_host"
host = 0

[[fault]]
round = 0
action = "partition"
name = "blip"
racks = [3]
start_at = 2
heal_at = 30

[[fault]]
round = 1
action = "fail_link"
link = 3
fail_at = 20

[[fault]]
round = 1
action = "fail_host"
host = 0

[[fault]]
round = 1
action = "crash_shim"
rack = 1

[[fault]]
round = 1
action = "partition"
name = "west"
racks = [4, 5]
start_at = 5

[[fault]]
round = 2
action = "restore_link"
link = 2

[[fault]]
round = 2
action = "restore_host"
host = 0

[[fault]]
round = 2
action = "fail_rack"
rack = 6

{recovering}
[[fault]]
round = 3
action = "crash_shim"
rack = 3
crash_at = 15

[[fault]]
round = 3
action = "recover_shim"
rack = 1

[[fault]]
round = 4
action = "restore_rack"
rack = 6

[[fault]]
round = 4
action = "heal"
name = "west"
heal_at = 10

[[fault]]
round = 4
action = "restore_link"
link = 3

[[fault]]
round = 5
action = "recover_shim"
rack = 3
"#
    );
    let spec = ScenarioSpec::parse_str(&src).expect("spec parses");
    spec.validate().expect("spec is valid");
    spec
}

/// The fabric runtime with the transfer model on, as a `[runtime]` body.
const FABRIC_WITH_TRANSFERS: &str = "kind = \"fabric\"\nmax_retry = 3\ntransfer_bandwidth = 1.0\n\
    transfer_max_concurrent = 3\ntransfer_bytes_per_capacity = 16.0\n\
    transfer_k_paths = 2\ntransfer_stall_budget = 8\ntransfer_max_attempts = 3";

#[test]
fn every_fault_action_reproduces_its_pinned_report() {
    // FNV-1a-64 of each canonical report; a change that claims identical
    // behaviour must leave both alone. No bundled scenario uses
    // `restore_link`, `fail_host`, `restore_host` or the centralized
    // runtime, so SCENARIO_DIGESTS alone does not guard those paths
    let cases = [
        (
            "fabric",
            every_fault_action_spec(FABRIC_WITH_TRANSFERS, true),
            0x917f_b3dc_6603_b4f7,
        ),
        (
            "centralized",
            every_fault_action_spec("kind = \"centralized\"", false),
            0x1d23_c05b_da47_c9cf,
        ),
    ];
    let mut failures = Vec::new();
    for (name, spec, pinned) in cases {
        let digest = fnv1a64(canonical(&spec, 0).as_bytes());
        if digest != pinned {
            failures.push(format!(
                "{name}: digest {digest:#018x}, pinned {pinned:#018x}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A k=4 Fat-Tree spec that fails `links` at round 1, untimed or with
/// `timing` (e.g. `fail_at = 0`) added to each `fail_link`.
fn link_fault_spec(runtime: &str, links: &[usize], timing: &str) -> ScenarioSpec {
    let faults: String = links
        .iter()
        .map(|l| format!("\n[[fault]]\nround = 1\naction = \"fail_link\"\nlink = {l}\n{timing}"))
        .collect();
    let src = format!(
        r#"
name = "link_fault"
rounds = 4
seeds = [11, 12]

[topology]
kind = "fat_tree"
pods = 4

[cluster]
vms_per_host = 2.0
skew = 3.0

[workload]
alert_fraction = 0.3

[runtime]
kind = "{runtime}"
{faults}"#
    );
    let spec = ScenarioSpec::parse_str(&src).expect("spec parses");
    spec.validate().expect("spec is valid");
    spec
}

#[test]
fn fail_at_zero_link_fault_matches_the_untimed_form() {
    // a window that fails at tick 0 and never restores takes the link
    // down for the whole round and after it, exactly like the untimed
    // action, so the planner's metric must drop the link in both
    for runtime in ["fabric", "centralized"] {
        for links in [&[0][..], &[0, 1], &[2, 3, 4, 5]] {
            let untimed = canonical(&link_fault_spec(runtime, links, ""), 1);
            let timed = canonical(&link_fault_spec(runtime, links, "fail_at = 0\n"), 1);
            assert_eq!(untimed, timed, "{runtime}: links {links:?}");
        }
    }
}
