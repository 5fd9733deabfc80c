//! End-to-end and per-layer benchmark of the Sheriff fabric runtime.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload NAME [--seed S] [--seconds N] [--trace 0|1]
//!   --workload NAME  paper_k32 | hotspot_k24 | lossy_failover_k16 |
//!                    transfer_k16, or `all` to run every workload with
//!                    and without tracing, one child process each, and
//!                    print every metric with its unit
//!   --seed S         seeds S, S+1, … build the clusters (default 1)
//!   --seconds N      run length: N seconds of timed rounds at the
//!                    reference machine's speed (default 10)
//!   --trace 0|1      0: end-to-end metrics; 1: per-layer metrics
//! --smoke            every workload, 1 seed × 3 rounds; prints the
//!                    deterministic per-round outputs
//! ```
//!
//! The last line of a run is one JSON object: `correct`, `attempted` and
//! `failed` (management rounds; a round fails when an audit finds an
//! invariant broken) and `metrics`. Exit 1 means the outputs were wrong:
//! an unclean audit, a workload guard that saw the workload drift, or a
//! traced pass whose per-round outputs differ from the timed pass's.
//! Exit 2 means bad arguments.
//!
//! # Workloads
//!
//! Each builds a Fat-Tree with `fattree::build`, populates it with
//! `Cluster::try_build` (2.5 VMs per host, skew 4.0), builds the cost
//! metric and a `FabricRuntime`, then runs a closed loop of rounds on one
//! thread: a round is `Cluster::fraction_alerts`, the ALERT values (each
//! VM's host utilisation) and one `Runtime::step`, and the next round
//! starts when `step` returns. Round 0 of each seed is warm-up.
//!
//! - `paper_k32`: k=32 (8192 hosts, 512 racks, 20480 VMs), 5% alerts,
//!   reliable channel, 3 seeds. The paper's Fig. 11–14 protocol at the
//!   largest size that runs in seconds; most of a round is
//!   rack-proportional control-plane work, and most of set-up is
//!   `Cluster::try_build`.
//! - `hotspot_k24`: k=24 (3456 hosts, 8640 VMs), 30% alerts, reliable
//!   channel, 4 seeds. About 2.5k moves commit per round in a few virtual
//!   ticks, so the planner (PRIORITY, matching) is a large share of the
//!   round and messaging is trivial: where a planner gain shows.
//! - `lossy_failover_k16`: k=16 (1024 hosts, 128 racks), 5% alerts,
//!   channel drop 0.2, duplicate 0.1, delay 1–4 ticks, and two shims
//!   crashing at tick 10 and recovering at tick 60 each round, 6 seeds.
//!   The planner is a sliver; timeouts, resends, dedup, journal replay
//!   and failure detection (the event core and 2PC layer) dominate.
//! - `transfer_k16`: k=16, 5% alerts, reliable channel, the pre-copy
//!   transfer model on (bandwidth 1.0, 16 bytes per capacity unit, 64
//!   concurrent, 4 paths, reroute threshold 0.02), and on odd rounds
//!   every 8th link down from tick 50 to 150, 6 seeds. Rounds last
//!   hundreds of ticks and the cost is `TransferScheduler`'s max-min
//!   recompute; the other three workloads bypass the transfer path.
//!
//! # End-to-end metrics
//!
//! `--trace 0` reports what an operator of the management loop sees:
//! set-up time (median over the run's seeds), timed rounds per second,
//! round wall time p50 and p90 (nearest rank, with the sample count),
//! committed migrations per timed second and peak RSS; and the
//! deterministic quality of the result: Fig. 9 imbalance after each
//! seed's last round (mean over seeds), Eqn. 1 cost per migration, and
//! the share of victims placed (with its base). Virtual ticks per round
//! and the transfer p95 are per-layer metrics instead: the first is
//! constant on a reliable channel and the second is zero wherever the
//! transfer model is off.
//!
//! # Which layer should move which metric
//!
//! | layer metrics | end-to-end metric | workload |
//! |---|---|---|
//! | `setup.*` | `setup_s`, `peak_rss_mb` | `paper_k32` |
//! | `alerts.*` | `round_ms_p50` | `paper_k32` |
//! | `planner.*` | `round_ms_p50`, `migrations_per_s` | `hotspot_k24` (no change predicted on `transfer_k16`) |
//! | `fabric.*`, `net.*`, `txn.*`, `failover.*` | `round_ms_p50`, `round_ms_p90` | `lossy_failover_k16`, `paper_k32` |
//! | `transfer.*` | `round_ms_p50` | `transfer_k16` only |
//! | `audit.*` | `round_ms_p50` | `paper_k32` |
//!
//! The traced pass (`--trace 1`) re-runs the timed pass's rounds with a
//! counting sink and times public calls on each round's pre-round state,
//! outside the timed `step`: PRIORITY per alerted host, Alg. 1 per
//! alerted rack on a cloned cluster, a twin `step` with the transfer
//! model off, k-shortest paths per committed move, and the audit.
//! `fabric.other_ms` (step − plan − transfer delta) is an estimate: the
//! planner probe is not the code path `step` runs. `trace.overhead_pct`
//! compares the traced round (alerts + step) with the untraced one.

mod run;
mod stats;
mod workload;

use run::{timed_pass, traced_pass, TimedPass, TracedPass};
use sheriff_obs::{Event, EventSink, Timer};
use stats::{median, percentile, quartiles};
use workload::Workload;

/// Receives one [`Timer`]'s wall time: the benchmark's only clock.
#[derive(Default)]
struct Stopwatch {
    wall_nanos: u64,
}

impl EventSink for Stopwatch {
    fn record(&mut self, _event: Event) {}

    fn timing(&mut self, _name: &'static str, wall_nanos: u64, _virt_ticks: u64) {
        self.wall_nanos = wall_nanos;
    }
}

/// Run `f`, returning its result and its wall time in milliseconds.
pub(crate) fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let mut watch = Stopwatch::default();
    let timer = Timer::start("benchmark", 0);
    let out = f();
    timer.stop(&mut watch, 0);
    (out, watch.wall_nanos as f64 / 1e6)
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: benchmark --workload NAME|all [--seed S] [--seconds N] [--trace 0|1]\n       \
         benchmark --smoke [--seed S]"
    );
    std::process::exit(2)
}

/// Peak resident set of this process image in MiB: `VmHWM`, which
/// (unlike `getrusage`'s `ru_maxrss`) does not carry over the parent's
/// peak across `exec`. 0 where `/proc/self/status` is unavailable.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Base or sample count printed beside the value.
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

/// The end-to-end metrics of a timed pass, or why one cannot be reported.
fn end_to_end(p: &TimedPass) -> Result<Vec<Metric>, String> {
    let n = p.round_ms.len();
    let tail = |q: f64| {
        percentile(&p.round_ms, q).ok_or_else(|| format!("{n} timed rounds are too few for a p{q}"))
    };
    let wall_s = sum(&p.round_ms) / 1e3;
    let (q1, q3) = quartiles(&p.round_ms).unwrap_or_default();
    let victims = p.moves + p.unplaced;
    let mut p50 = metric("round_ms_p50", tail(50.0)?, "ms");
    p50.note = format!("quartiles {q1:.3}–{q3:.3} ms");
    let mut p90 = metric("round_ms_p90", tail(90.0)?, "ms");
    p90.note = format!("n={n}, {} beyond", n - (0.9 * n as f64).ceil() as usize);
    let mut placed = metric(
        "placed_pct",
        100.0 * share(p.moves as f64, victims as f64),
        "%",
    );
    placed.note = format!("{} of {victims} victims placed", p.moves);
    Ok(vec![
        metric("setup_s", median(&p.setup_s).unwrap_or(0.0), "s"),
        metric("rounds_per_s", n as f64 / wall_s, "1/s"),
        p50,
        p90,
        metric("migrations_per_s", p.moves as f64 / wall_s, "1/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric(
            "final_stddev_pct",
            sum(&p.final_stddev_pct) / p.final_stddev_pct.len() as f64,
            "%",
        ),
        metric("cost_per_migration", share(p.cost, p.moves as f64), "cost"),
        placed,
    ])
}

/// The per-layer metrics of a traced pass; `timed` is the same rounds
/// untraced, for the tracing overhead.
fn per_layer(timed: &TimedPass, t: &TracedPass) -> Vec<Metric> {
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let setup = |f: fn(&workload::SetupMs) -> f64| med(&t.setup.iter().map(f).collect::<Vec<_>>());
    let count = |name: &str| t.counters.get(name) as f64;
    let ms = &t.ms;
    let other: Vec<f64> = (0..ms.step.len())
        .map(|i| ms.step[i] - ms.plan[i] - ms.transfer_delta[i])
        .collect();
    let traced_round: Vec<f64> = ms.alerts.iter().zip(&ms.step).map(|(a, s)| a + s).collect();
    let overhead = share(med(&traced_round), med(&timed.round_ms)) - 1.0;
    let [started, completed, reroutes, stalls, retries, failures] = t.transfer.map(|n| n as f64);
    let step_total = sum(&ms.step);
    vec![
        metric("setup.topology_ms", setup(|s| s.topology), "ms"),
        metric("setup.cluster_ms", setup(|s| s.cluster), "ms"),
        metric("setup.metric_ms", setup(|s| s.metric), "ms"),
        metric("setup.runtime_ms", setup(|s| s.runtime), "ms"),
        metric("alerts.ms", med(&ms.alerts), "ms"),
        metric("alerts.count", t.alerts as f64, "count"),
        metric("planner.priority_ms", med(&ms.priority), "ms"),
        metric("planner.plan_ms", med(&ms.plan), "ms"),
        metric(
            "planner.plan_share_pct",
            100.0 * share(sum(&ms.plan), step_total),
            "%",
        ),
        metric("planner.search_space", t.search_space as f64, "count"),
        metric("planner.victims", t.victims as f64, "count"),
        metric("planner.rejected", t.rejected as f64, "count"),
        metric("fabric.step_ms", med(&ms.step), "ms"),
        metric("fabric.other_ms", med(&other), "ms"),
        metric("fabric.ticks", med(&t.ticks), "ticks"),
        metric("net.requests", count("request_sent"), "count"),
        metric("net.timeouts", count("net.timeouts"), "count"),
        metric("net.resends", count("net.resends"), "count"),
        metric("net.drops", count("net.dropped"), "count"),
        metric("net.dedup_hits", count("net.dedup_hits"), "count"),
        metric("txn.prepared", count("txn.prepared"), "count"),
        metric("txn.committed", count("txn.committed"), "count"),
        metric("txn.aborted", count("txn.aborted"), "count"),
        metric("failover.recoveries", count("shim_recovered"), "count"),
        metric("failover.takeovers", count("region.takeovers"), "count"),
        metric("failover.fenced", count("txn.fenced"), "count"),
        metric(
            "fabric.useful_ratio",
            share(count("txn.committed"), count("request_sent")),
            "ratio",
        ),
        metric("transfer.delta_ms", med(&ms.transfer_delta), "ms"),
        metric(
            "transfer.delta_share_pct",
            100.0 * share(sum(&ms.transfer_delta), step_total),
            "%",
        ),
        metric("transfer.route_ms", med(&ms.route), "ms"),
        metric("transfer.started", started, "count"),
        metric("transfer.completed", completed, "count"),
        metric("transfer.reroutes", reroutes, "count"),
        metric("transfer.stalls", stalls, "count"),
        metric("transfer.retries", retries, "count"),
        metric("transfer.failures", failures, "count"),
        metric("transfer.p95_ticks", med(&t.transfer_p95_ticks), "ticks"),
        metric("audit.ms", med(&ms.audit), "ms"),
        metric("audit.violations", t.audit_violations as f64, "count"),
        metric("trace.overhead_pct", 100.0 * overhead, "%"),
    ]
}

/// Print the metrics, one per line, then the result object as the last
/// line of standard output.
fn report(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "  {:<26} {:>14.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Run one workload in this process; returns the exit code.
fn run_workload(w: &Workload, seed: u64, seconds: u64, trace: bool) -> i32 {
    let rounds = w.rounds_per_seed(seconds);
    println!(
        "{}: seeds {seed}..{}, {} x (1 + {rounds}) rounds, trace {}",
        w.name,
        seed + w.seeds - 1,
        w.seeds,
        u8::from(trace)
    );
    let fail = |e: dcn_sim::SheriffError| -> ! {
        eprintln!("error: {} set-up failed: {e}", w.name);
        std::process::exit(1)
    };
    let timed = timed_pass(w, seed, w.seeds, rounds).unwrap_or_else(|e| fail(e));
    let mut problems = timed.checks.problems.clone();
    let mut attempted = timed.checks.rounds;
    let mut failed = timed.checks.failed_rounds;
    let metrics = if trace {
        let traced = traced_pass(w, seed, w.seeds, rounds).unwrap_or_else(|e| fail(e));
        problems.extend(traced.checks.problems.iter().cloned());
        if traced.checks.records != timed.checks.records {
            problems.push("traced pass's per-round outputs differ from the timed pass's".into());
        }
        attempted += traced.checks.rounds;
        failed += traced.checks.failed_rounds;
        per_layer(&timed, &traced)
    } else {
        end_to_end(&timed).unwrap_or_else(|e| {
            problems.push(e);
            Vec::new()
        })
    };
    problems.extend(
        metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("{} is not finite", m.name)),
    );
    for p in &problems {
        eprintln!("error: {p}");
    }
    report(problems.is_empty(), attempted, failed, &metrics);
    i32::from(!problems.is_empty())
}

/// Every workload with one seed and three rounds: the deterministic
/// per-round outputs as text, or everything found wrong.
fn smoke(seed: u64) -> Result<String, String> {
    let mut out = String::new();
    let mut problems = Vec::new();
    for w in workload::all() {
        let pass = timed_pass(&w, seed, 1, 2).map_err(|e| format!("{}: {e}", w.name))?;
        for (t, r) in pass.checks.records.iter().enumerate() {
            out.push_str(&format!(
                "{} round {t}: moves {} cost {} unplaced {} ticks {} stddev_pct {}\n",
                w.name, r.moves, r.cost, r.unplaced, r.ticks, r.stddev_pct
            ));
        }
        problems.extend(pass.checks.problems);
    }
    if problems.is_empty() {
        Ok(out)
    } else {
        Err(problems.join("\n"))
    }
}

/// Every workload, untraced then traced, each in a child process of its
/// own so peak RSS is that workload's; returns the exit code.
fn run_all(seed: u64, seconds: u64) -> i32 {
    let exe = std::env::current_exe().unwrap_or_else(|e| die(&format!("no executable path: {e}")));
    let mut code = 0;
    for w in workload::all() {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .status()
                .unwrap_or_else(|e| die(&format!("cannot run {}: {e}", exe.display())));
            if !status.success() {
                eprintln!("error: {} --trace {trace} exited with {status}", w.name);
                code = 1;
            }
        }
    }
    code
}

fn main() {
    let mut name: Option<String> = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut smoke_mode = false;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .unwrap_or_else(|| die(&format!("{a} needs {what}")))
        };
        match a.as_str() {
            "--workload" => name = Some(value("a name")),
            "--seed" => {
                seed = value("an integer")
                    .parse::<u32>()
                    .map(u64::from)
                    .unwrap_or_else(|_| die("--seed needs an integer below 2^32"))
            }
            "--seconds" => {
                seconds = value("an integer")
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .unwrap_or_else(|| die("--seconds needs a positive integer"))
            }
            "--trace" => {
                trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    other => die(&format!("--trace needs 0 or 1, got {other}")),
                }
            }
            "--smoke" => smoke_mode = true,
            other => die(&format!("unknown argument {other}")),
        }
    }
    if smoke_mode {
        match smoke(seed) {
            Ok(text) => print!("{text}"),
            Err(problems) => {
                eprintln!("error: {problems}");
                std::process::exit(1)
            }
        }
        return;
    }
    let Some(name) = name else {
        die("nothing to do: pass --workload NAME or --smoke")
    };
    let code = if name == "all" {
        run_all(seed, seconds)
    } else {
        let w = workload::all()
            .into_iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| die(&format!("unknown workload {name}")));
        run_workload(&w, seed, seconds, trace)
    };
    std::process::exit(code)
}

#[cfg(test)]
mod tests {
    use super::smoke;

    #[test]
    fn smoke_is_deterministic_and_correct() {
        let first = smoke(1).expect("smoke run is correct");
        assert_eq!(
            first.lines().count(),
            4 * 3,
            "four workloads × three rounds"
        );
        assert_eq!(first, smoke(1).expect("second smoke run is correct"));
    }
}
