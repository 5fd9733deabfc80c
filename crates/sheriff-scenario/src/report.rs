//! Folding per-seed runs into one [`ScenarioReport`].
//!
//! The report's core is the same `{id, title, columns, rows, notes}`
//! shape as the `results/fig*.json` tables the bench binaries emit, so
//! scenario output drops into the existing tooling; on top of that it
//! carries the sweep's aggregate metrics (mean/p50/p95 across seeds)
//! and the merged observability counters.
//!
//! Two serializations exist: [`ScenarioReport::to_json_pretty`] (the
//! full report, wall-clock timings included) and
//! [`ScenarioReport::canonical_json`] (the deterministic subset — what
//! the parallel ≡ serial and re-run reproducibility proofs compare).

use crate::runner::SeedRun;
use crate::spec::ScenarioSpec;
use sheriff_core::RoundOutcome;
use sheriff_obs::{json_str, Counters};

/// Mean / median / 95th percentile of one metric across seed runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median: the sorted value at index `round((n - 1) * 0.5)`.
    pub p50: f64,
    /// 95th percentile: the sorted value at index `round((n - 1) * 0.95)`.
    pub p95: f64,
}

impl Stat {
    /// Compute the statistic over `values` (empty → all zeros).
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                mean: 0.0,
                p50: 0.0,
                p95: 0.0,
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let q = |frac: f64| {
            let idx = ((sorted.len() - 1) as f64 * frac).round() as usize;
            sorted[idx]
        };
        Self {
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: q(0.50),
            p95: q(0.95),
        }
    }
}

/// The aggregated result of one scenario sweep.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Report id (the spec's `name`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Runtime that ran the rounds.
    pub runtime: String,
    /// Rounds per seed.
    pub rounds: usize,
    /// The seed sweep.
    pub seeds: Vec<u64>,
    /// Table header: `round` plus one std-dev column per topology
    /// (`stddev_pct` when the scenario has a single topology).
    pub columns: Vec<String>,
    /// `rounds + 1` rows: round index, then the across-seed mean
    /// std-dev per topology (row 0 is the pre-management state).
    pub rows: Vec<Vec<f64>>,
    /// Human-readable summary lines.
    pub notes: Vec<String>,
    /// Named aggregate metrics in deterministic order.
    pub metrics: Vec<(String, Stat)>,
    /// Observability counters merged across every run.
    pub counters: Counters,
    /// Wall-clock statistics (nanoseconds). NOT deterministic; excluded
    /// from [`ScenarioReport::canonical_json`].
    pub timings_ns: Vec<(String, Stat)>,
}

/// Fold the sweep's runs (job order: topology-major, then seed) into a
/// report. `runs` must be exactly the runner's output for `spec`.
pub fn aggregate(spec: &ScenarioSpec, runs: &[SeedRun]) -> ScenarioReport {
    let labels: Vec<String> = spec.topologies.iter().map(|t| t.label()).collect();
    let per_topo = spec.seeds.len();

    let mut columns = vec!["round".to_string()];
    if labels.len() == 1 {
        columns.push("stddev_pct".to_string());
    } else {
        columns.extend(labels.iter().map(|l| format!("stddev_{l}")));
    }

    // rows: mean std-dev across seeds, one column per topology
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(spec.rounds + 1);
    for r in 0..=spec.rounds {
        let mut row = vec![r as f64];
        for ti in 0..labels.len() {
            let group = &runs[ti * per_topo..(ti + 1) * per_topo];
            let vals: Vec<f64> = group
                .iter()
                .map(|run| {
                    if r == 0 {
                        run.initial_stddev_pct
                    } else {
                        run.rounds[r - 1].stddev_pct
                    }
                })
                .collect();
            row.push(Stat::of(&vals).mean);
        }
        rows.push(row);
    }

    // aggregate metrics across every run (seeds × topologies)
    let stat = |f: &dyn Fn(&SeedRun) -> f64| {
        let vals: Vec<f64> = runs.iter().map(f).collect();
        Stat::of(&vals)
    };
    let sum_rounds = |f: &dyn Fn(&crate::runner::RoundStat) -> f64| {
        stat(&|run: &SeedRun| run.rounds.iter().map(f).sum())
    };
    let sum_outcomes = |f: &dyn Fn(&RoundOutcome) -> f64| {
        sum_rounds(&|s: &crate::runner::RoundStat| f(&s.outcome))
    };
    // a count an event or the fabric's `close` records is read from the
    // run's counters, never re-summed from the rounds
    let count = |name: &str| stat(&|run: &SeedRun| run.counters.get(name) as f64);
    let metrics: Vec<(String, Stat)> = vec![
        ("initial_stddev_pct".into(), stat(&|r| r.initial_stddev_pct)),
        (
            "final_stddev_pct".into(),
            stat(&|r| {
                r.rounds
                    .last()
                    .map_or(r.initial_stddev_pct, |s| s.stddev_pct)
            }),
        ),
        ("alerts_total".into(), sum_rounds(&|s| s.alerts as f64)),
        (
            "alert_precision".into(),
            stat(&|r| {
                let alerts: usize = r.rounds.iter().map(|s| s.alerts).sum();
                let hits: usize = r.rounds.iter().map(|s| s.true_alerts).sum();
                if alerts == 0 {
                    1.0
                } else {
                    hits as f64 / alerts as f64
                }
            }),
        ),
        ("migrations_total".into(), count("migrations.committed")),
        (
            "migration_cost_total".into(),
            sum_outcomes(&|o| o.plan.total_cost),
        ),
        (
            "unplaced_total".into(),
            sum_outcomes(&|o| o.plan.unplaced.len() as f64),
        ),
        (
            "evacuated_total".into(),
            sum_rounds(&|s| s.evacuated as f64),
        ),
        ("retries_total".into(), count("migrations.rejected")),
        ("drops_total".into(), count("net.dropped")),
        ("timeouts_total".into(), count("net.timeouts")),
        ("resends_total".into(), count("net.resends")),
        ("dedup_hits_total".into(), count("net.dedup_hits")),
        ("degraded_shim_rounds".into(), count("shim_degraded")),
        (
            "crashed_shim_rounds".into(),
            sum_outcomes(&|o| o.crashed_shims as f64),
        ),
        ("ticks_total".into(), sum_outcomes(&|o| o.ticks as f64)),
        (
            "overload_rounds".into(),
            stat(&|r| r.rounds.iter().filter(|s| s.overloaded_hosts > 0).count() as f64),
        ),
        (
            "audit_violations_total".into(),
            sum_outcomes(&|o| o.audit.len() as f64),
        ),
        ("txn_committed_total".into(), count("txn.committed")),
        ("txn_aborted_total".into(), count("txn.aborted")),
        ("shim_recoveries_total".into(), count("shim_recovered")),
        ("takeovers_total".into(), count("region.takeovers")),
        ("fenced_messages_total".into(), count("txn.fenced")),
        (
            "partition_degraded_rounds".into(),
            stat(&|r| {
                r.rounds
                    .iter()
                    .filter(|s| s.outcome.partition_degraded > 0)
                    .count() as f64
            }),
        ),
        (
            "reconciliation_conflicts_total".into(),
            sum_outcomes(&|o| o.reconciliations as f64),
        ),
        ("transfers_started_total".into(), count("transfer.started")),
        (
            "transfers_completed_total".into(),
            count("transfer.completed"),
        ),
        ("transfer_reroutes_total".into(), count("transfer.rerouted")),
        (
            // worst per-round p95 across the run: the round where
            // bottleneck sharing hurt transfer latency the most
            "transfer_p95_completion".into(),
            stat(&|r| {
                r.rounds
                    .iter()
                    .map(|s| s.outcome.transfer_p95_completion)
                    .fold(0.0, f64::max)
            }),
        ),
        (
            "bottleneck_serialization_rounds".into(),
            stat(&|r| {
                r.rounds
                    .iter()
                    .filter(|s| s.outcome.bottleneck_serialized)
                    .count() as f64
            }),
        ),
        ("transfer_stalls_total".into(), count("transfer.stalled")),
        ("transfer_retries_total".into(), count("transfer.retried")),
        ("transfer_failures_total".into(), count("transfer.failed")),
        (
            "resumed_bytes_saved_total".into(),
            sum_outcomes(&|o| o.resumed_bytes_saved),
        ),
    ];

    let mut counters = Counters::new();
    for run in runs {
        counters.merge(&run.counters);
    }

    let timings_ns = vec![("seed_run".to_string(), stat(&|r| r.wall_nanos as f64))];

    let initial = metrics[0].1.mean;
    let final_sd = metrics[1].1.mean;
    let moves = metrics
        .iter()
        .find(|(k, _)| k == "migrations_total")
        .map_or(0.0, |(_, s)| s.mean);
    let cost = metrics
        .iter()
        .find(|(k, _)| k == "migration_cost_total")
        .map_or(0.0, |(_, s)| s.mean);
    let drop_pct = if initial > 0.0 {
        (1.0 - final_sd / initial) * 100.0
    } else {
        0.0
    };
    let mut notes = vec![format!(
        "std-dev {initial:.1}% -> {final_sd:.1}% over {} rounds ({drop_pct:.0}% drop); \
         {moves:.0} migrations/seed, mean total cost {cost:.0}",
        spec.rounds
    )];
    notes.push(format!(
        "runtime {}, {} seed(s) x {} topology variant(s), {} mode",
        spec.runtime.name(),
        spec.seeds.len(),
        spec.topologies.len(),
        if spec.trace_mode() {
            "trace (predicted alerts)"
        } else {
            "fraction-alert"
        }
    ));
    if !spec.faults.is_empty() {
        notes.push(format!("{} scheduled fault action(s)", spec.faults.len()));
    }
    if !spec.channel_phases.is_empty() {
        notes.push(format!(
            "{} channel phase(s) on the fabric control plane",
            spec.channel_phases.len()
        ));
    }

    ScenarioReport {
        id: spec.name.clone(),
        title: spec.title.clone(),
        runtime: spec.runtime.name().to_string(),
        rounds: spec.rounds,
        seeds: spec.seeds.clone(),
        columns,
        rows,
        notes,
        metrics,
        counters,
        timings_ns,
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // bare integers stay valid JSON numbers, but keep the float
        // form stable across formatting paths
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

fn stat_json(s: &Stat) -> String {
    format!(
        "{{\"mean\": {}, \"p50\": {}, \"p95\": {}}}",
        num(s.mean),
        num(s.p50),
        num(s.p95)
    )
}

impl ScenarioReport {
    /// The deterministic serialization: everything except wall-clock
    /// timings. Two runs of the same spec — serial or parallel, today
    /// or tomorrow — produce byte-identical canonical JSON.
    pub fn canonical_json(&self) -> String {
        self.render(false)
    }

    /// The full report, wall-clock timing statistics included.
    pub fn to_json_pretty(&self) -> String {
        self.render(true)
    }

    fn render(&self, with_timings: bool) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"id\": {},\n", json_str(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", json_str(&self.title)));
        out.push_str(&format!("  \"runtime\": {},\n", json_str(&self.runtime)));
        out.push_str(&format!("  \"rounds\": {},\n", self.rounds));
        let seeds: Vec<String> = self.seeds.iter().map(|s| s.to_string()).collect();
        out.push_str(&format!("  \"seeds\": [{}],\n", seeds.join(", ")));
        let columns: Vec<String> = self.columns.iter().map(|c| json_str(c)).collect();
        out.push_str(&format!("  \"columns\": [{}],\n", columns.join(", ")));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let cells: Vec<String> = row.iter().map(|&v| num(v)).collect();
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            out.push_str(&format!("    [{}]{}\n", cells.join(", "), comma));
        }
        out.push_str("  ],\n");
        out.push_str("  \"metrics\": {\n");
        for (i, (k, s)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            out.push_str(&format!("    {}: {}{}\n", json_str(k), stat_json(s), comma));
        }
        out.push_str("  },\n");
        out.push_str("  \"counters\": {\n");
        let n = self.counters.len();
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            out.push_str(&format!("    {}: {}{}\n", json_str(k), v, comma));
        }
        out.push_str("  },\n");
        if with_timings {
            out.push_str("  \"timings_ns\": {\n");
            for (i, (k, s)) in self.timings_ns.iter().enumerate() {
                let comma = if i + 1 < self.timings_ns.len() {
                    ","
                } else {
                    ""
                };
                out.push_str(&format!("    {}: {}{}\n", json_str(k), stat_json(s), comma));
            }
            out.push_str("  },\n");
        }
        let notes: Vec<String> = self.notes.iter().map(|s| json_str(s)).collect();
        out.push_str(&format!(
            "  \"notes\": [\n    {}\n  ]\n",
            notes.join(",\n    ")
        ));
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ScenarioRunner;
    use crate::spec::ScenarioSpec;

    fn run_spec(src: &str) -> (ScenarioSpec, ScenarioReport) {
        let spec = ScenarioSpec::parse_str(src).expect("spec parses");
        let runs = ScenarioRunner::new(spec.clone()).run().expect("runs");
        let report = aggregate(&spec, &runs);
        (spec, report)
    }

    const SMALL: &str = r#"
name = "agg-test"
title = "aggregation test"
rounds = 3
seeds = [5, 6]

[topology]
kind = "fat_tree"
pods = 4

[cluster]
vms_per_host = 2.0
skew = 3.0
"#;

    #[test]
    fn stat_quantiles_round_a_linear_index() {
        let s = Stat::of(&[4.0, 1.0, 3.0, 2.0]);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.p50, 3.0); // index round(3 * 0.5) = 2 on [1,2,3,4]
        assert_eq!(s.p95, 4.0);
        let empty = Stat::of(&[]);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    fn report_has_fig9_shape_and_round_rows() {
        let (spec, report) = run_spec(SMALL);
        assert_eq!(report.id, "agg-test");
        assert_eq!(report.columns, vec!["round", "stddev_pct"]);
        assert_eq!(report.rows.len(), spec.rounds + 1);
        assert_eq!(report.rows[0][0], 0.0);
        assert!(report.rows[0][1] > report.rows[spec.rounds][1]);
        let json = report.to_json_pretty();
        for key in [
            "\"id\"",
            "\"title\"",
            "\"columns\"",
            "\"rows\"",
            "\"notes\"",
            "\"metrics\"",
            "\"counters\"",
            "\"timings_ns\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn canonical_json_excludes_timings_and_is_reproducible() {
        let (spec, report) = run_spec(SMALL);
        assert!(!report.canonical_json().contains("timings_ns"));
        // a fresh run of the same spec reproduces the canonical bytes
        let runs = ScenarioRunner::new(spec.clone()).run().unwrap();
        let again = aggregate(&spec, &runs);
        assert_eq!(report.canonical_json(), again.canonical_json());
    }

    #[test]
    fn multi_topology_report_gets_labelled_columns() {
        let (_, report) = run_spec(
            r#"
name = "multi"
rounds = 2
seeds = [3]

[[topology]]
kind = "fat_tree"
pods = 4

[[topology]]
kind = "bcube"
n = 4

[cluster]
vms_per_host = 2.0
"#,
        );
        assert_eq!(
            report.columns,
            vec!["round", "stddev_fat_tree_4", "stddev_bcube_4"]
        );
        assert_eq!(report.rows[0].len(), 3);
    }
}
