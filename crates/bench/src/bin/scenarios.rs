//! Scenario driver: validate and run declarative scenario files.
//!
//! ```text
//! scenarios [--check] [--threads N] [--out DIR] <file.toml>...
//!   --check      validate only (warnings are errors), then a truncated
//!                1-seed, <= 3-round smoke run per file — the CI job
//!   --threads N  worker threads (default: auto; 1 runs the jobs in
//!                order on one thread, bit-identical to more)
//!   --out DIR    where report JSON lands (default: results/scenarios)
//! ```
//!
//! Each file produces `<out>/<name>.json` (full report, timings
//! included) where `<name>` is the spec's `name` field. Exit status is
//! non-zero on any parse/validation/run failure.

use sheriff_scenario::{aggregate, ScenarioRunner, ScenarioSpec};
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: scenarios [--check] [--threads N] [--out DIR] <file>...";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut check = false;
    let mut threads = 0usize;
    let mut out = PathBuf::from("results/scenarios");
    let mut files: Vec<PathBuf> = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--check" => check = true,
            "--threads" => {
                threads = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--threads needs an integer"))
            }
            "--out" => {
                out = PathBuf::from(argv.next().unwrap_or_else(|| die("--out needs a path")))
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
            file => files.push(PathBuf::from(file)),
        }
    }
    if files.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }

    let mut failed = false;
    for file in &files {
        match run_one(file, check, threads, &out) {
            Ok(summary) => println!("{}: {summary}", file.display()),
            Err(err) => {
                eprintln!("{}: ERROR: {err}", file.display());
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn run_one(file: &Path, check: bool, threads: usize, out: &Path) -> Result<String, String> {
    let mut spec = ScenarioSpec::load(file).map_err(|e| e.to_string())?;
    let warnings = spec.validate().map_err(|e| e.to_string())?;
    if check {
        // CI mode: a suspicious spec is a broken spec
        if !warnings.is_empty() {
            return Err(format!("validation warnings:\n  {}", warnings.join("\n  ")));
        }
        // truncated smoke run: 1 seed, at most 3 rounds
        spec.seeds.truncate(1);
        spec.rounds = spec.rounds.min(3);
    } else {
        for w in &warnings {
            eprintln!("{}: warning: {w}", file.display());
        }
    }

    let mut runner = ScenarioRunner::new(spec.clone());
    runner.threads = threads;
    let runs = runner.run().map_err(|e| e.to_string())?;
    let report = aggregate(&spec, &runs);

    if check {
        return Ok(format!(
            "OK (validated; smoke ran {} round(s) x {} job(s))",
            spec.rounds,
            runs.len()
        ));
    }
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let path = out.join(format!("{}.json", spec.name));
    std::fs::write(&path, report.to_json_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let final_row = report
        .rows
        .last()
        .ok_or_else(|| "report has no rows (rounds = 0?)".to_string())?;
    Ok(format!(
        "{} seed(s) x {} topology variant(s), {} rounds; final mean std-dev {:.1}% -> {}",
        spec.seeds.len(),
        spec.topologies.len(),
        spec.rounds,
        final_row[1],
        path.display()
    ))
}
