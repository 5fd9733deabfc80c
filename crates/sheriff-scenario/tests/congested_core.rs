//! Acceptance for the migration transfer model through the scenario
//! engine: `scenarios/congested_core.toml` must show real contention —
//! a p95 pre-copy completion strictly above the uncontended baseline,
//! at least one QCN-driven reroute, and bottleneck serialization.

use sheriff_scenario::{aggregate, RuntimeSpec, ScenarioRunner, ScenarioSpec, Stat};

fn load_spec() -> ScenarioSpec {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/congested_core.toml"
    );
    let src = std::fs::read_to_string(path).expect("scenario file exists");
    ScenarioSpec::parse_str(&src).expect("scenario parses")
}

fn metric(report: &sheriff_scenario::ScenarioReport, key: &str) -> Stat {
    report
        .metrics
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("metric {key} missing"))
        .1
}

#[test]
fn congested_core_spec_parses_with_transfer_model() {
    let spec = load_spec();
    let RuntimeSpec::Fabric {
        max_retry,
        transfer: Some(t),
    } = spec.runtime
    else {
        panic!("congested_core must run the fabric runtime with transfers on");
    };
    assert_eq!(max_retry, 3);
    assert_eq!(t.link_bandwidth, 1.0);
    assert_eq!(t.max_concurrent, 3);
    assert_eq!(t.reroute_threshold, 0.02);
    assert_eq!(t.bytes_per_capacity, 16.0);
    assert_eq!(t.k_paths, 4);
    assert!(spec.validate().expect("valid").is_empty());
}

#[test]
fn congested_core_shows_contention_against_uncontended_baseline() {
    let spec = load_spec();

    // uncontended twin: same workload and routes, but effectively
    // infinite migration bandwidth and rerouting disabled
    let mut uncontended = spec.clone();
    let RuntimeSpec::Fabric {
        transfer: Some(t), ..
    } = &mut uncontended.runtime
    else {
        panic!("fabric runtime expected");
    };
    t.link_bandwidth = 1e9;
    t.reroute_threshold = 1.0;

    let congested_runs = ScenarioRunner::new(spec.clone()).run().expect("runs");
    let congested = aggregate(&spec, &congested_runs);
    let baseline_runs = ScenarioRunner::new(uncontended.clone())
        .run()
        .expect("baseline runs");
    let baseline = aggregate(&uncontended, &baseline_runs);

    let started = metric(&congested, "transfers_started_total");
    let completed = metric(&congested, "transfers_completed_total");
    assert!(started.mean > 0.0, "pre-copies must be admitted");
    assert!(completed.mean > 0.0, "pre-copies must stream to completion");

    let p95 = metric(&congested, "transfer_p95_completion");
    let p95_base = metric(&baseline, "transfer_p95_completion");
    assert!(
        p95.mean > p95_base.mean,
        "contention must stretch p95 completion: congested {} vs uncontended {}",
        p95.mean,
        p95_base.mean
    );

    let reroutes = metric(&congested, "transfer_reroutes_total");
    assert!(
        reroutes.mean >= 1.0,
        "QCN pressure on the shared core must force at least one reroute, got {}",
        reroutes.mean
    );

    let serialized = metric(&congested, "bottleneck_serialization_rounds");
    assert!(
        serialized.mean >= 1.0,
        "shared links must carry concurrent pre-copies in some round"
    );

    // invariants survive the congestion
    assert_eq!(metric(&congested, "audit_violations_total").mean, 0.0);
}
