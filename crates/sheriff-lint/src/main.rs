//! CLI driver: `sheriff-lint check [--json] [--sarif PATH] [--deny-new]
//! [--update-baseline] [--baseline PATH] [--root PATH]`.
//!
//! Exit codes: `0` clean, `1` violations or ratchet divergence, `2`
//! usage or I/O error — identical across the text, `--json`, and
//! `--sarif` output modes.

#![forbid(unsafe_code)]

use sheriff_lint::baseline::{Baseline, BaselineIssue};
use sheriff_lint::diagnostics::to_json;
use sheriff_lint::rules::{lint_workspace, EngineStats};
use sheriff_lint::symbols::SourceFile;
use sheriff_lint::workspace::{discover_root, walk_sources};
use std::path::PathBuf;

const USAGE: &str = "\
sheriff-lint: static analysis for Sheriff's determinism and panic-safety invariants

USAGE:
    sheriff-lint check [OPTIONS]

OPTIONS:
    --json               emit one JSON object per finding instead of rustc-style text
                         (plus a trailing stats object with the call graph's unresolved bucket)
    --sarif <PATH>       additionally write the outstanding findings as SARIF 2.1.0
    --deny-new           CI mode: also fail on stale baseline entries (forces ratcheting)
    --update-baseline    rewrite the baseline from the current tree and exit
    --baseline <PATH>    baseline file (default: <root>/lint-baseline.json)
    --root <PATH>        workspace root (default: discovered from the current directory)
";

struct Options {
    json: bool,
    sarif: Option<PathBuf>,
    deny_new: bool,
    update_baseline: bool,
    baseline_path: Option<PathBuf>,
    root: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut iter = args.iter();
    match iter.next().map(String::as_str) {
        Some("check") => {}
        Some(other) => return Err(format!("unknown command {other:?} (expected `check`)")),
        None => return Err("missing command (expected `check`)".into()),
    }
    let mut opts = Options {
        json: false,
        sarif: None,
        deny_new: false,
        update_baseline: false,
        baseline_path: None,
        root: None,
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--sarif" => match iter.next() {
                Some(p) => opts.sarif = Some(PathBuf::from(p)),
                None => return Err("--sarif needs a path".into()),
            },
            "--deny-new" => opts.deny_new = true,
            "--update-baseline" => opts.update_baseline = true,
            "--baseline" => match iter.next() {
                Some(p) => opts.baseline_path = Some(PathBuf::from(p)),
                None => return Err("--baseline needs a path".into()),
            },
            "--root" => match iter.next() {
                Some(p) => opts.root = Some(PathBuf::from(p)),
                None => return Err("--root needs a path".into()),
            },
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

fn run(opts: &Options) -> Result<i32, String> {
    let root = match &opts.root {
        Some(r) => r.clone(),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
            discover_root(&cwd).ok_or_else(|| {
                "no workspace root found above the current directory (pass --root)".to_string()
            })?
        }
    };
    let baseline_path = opts
        .baseline_path
        .clone()
        .unwrap_or_else(|| root.join("lint-baseline.json"));

    // every file is read and lexed exactly once: the parsed SourceFiles
    // feed the per-file rules and the whole-program symbol/call-graph/taint
    // passes
    let sources = walk_sources(&root)?;
    let (diags, stats) = lint_workspace(parse_all(&sources.lint)?, &parse_all(&sources.readers)?);

    if opts.update_baseline {
        let fresh = Baseline::from_diagnostics(&diags);
        std::fs::write(&baseline_path, fresh.render())
            .map_err(|e| format!("cannot write {}: {e}", baseline_path.display()))?;
        let suppressed: usize = diags
            .iter()
            .filter(|d| sheriff_lint::baseline::BASELINABLE.contains(&d.rule))
            .count();
        eprintln!(
            "wrote {} ({} entr{} covering {suppressed} finding(s))",
            baseline_path.display(),
            fresh.entry_count(),
            if fresh.entry_count() == 1 { "y" } else { "ies" },
        );
        // non-baselinable findings still fail the run
        let mut diags = diags;
        diags.retain(|d| !sheriff_lint::baseline::BASELINABLE.contains(&d.rule));
        return report(&diags, &[], &stats, opts);
    }

    let committed = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => {
            Baseline::parse(&text).map_err(|e| format!("{}: {e}", baseline_path.display()))?
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Baseline::default(),
        Err(e) => return Err(format!("cannot read {}: {e}", baseline_path.display())),
    };
    let (outstanding, issues) = committed.apply(&diags);
    report(&outstanding, &issues, &stats, opts)
}

/// Read and lex each file exactly once.
fn parse_all(sources: &[(String, PathBuf)]) -> Result<Vec<SourceFile>, String> {
    sources
        .iter()
        .map(|(rel, abs)| {
            let src = std::fs::read_to_string(abs)
                .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
            Ok(SourceFile::parse(rel, &src))
        })
        .collect()
}

/// Print findings (and write the SARIF file, when requested) and decide
/// the exit code.
fn report(
    diags: &[sheriff_lint::diagnostics::Diagnostic],
    issues: &[BaselineIssue],
    stats: &EngineStats,
    opts: &Options,
) -> Result<i32, String> {
    if let Some(path) = &opts.sarif {
        std::fs::write(path, sheriff_lint::sarif::render(diags))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    for d in diags {
        if opts.json {
            println!("{}", to_json(d));
        } else {
            println!("{d}\n");
        }
    }
    let stale: Vec<&BaselineIssue> = issues
        .iter()
        .filter(|i| matches!(i, BaselineIssue::Stale { .. }))
        .collect();
    let fresh: Vec<&BaselineIssue> = issues
        .iter()
        .filter(|i| matches!(i, BaselineIssue::New { .. }))
        .collect();
    if !opts.json {
        for i in &fresh {
            println!("{i}\n");
        }
        if opts.deny_new {
            for i in &stale {
                println!("{i}\n");
            }
        }
    }
    if opts.json {
        println!("{}", stats.to_json());
    }
    let failing = diags.len() + fresh.len() + if opts.deny_new { stale.len() } else { 0 };
    Ok(if failing == 0 {
        if !opts.json {
            eprintln!("sheriff-lint: clean");
        }
        0
    } else {
        if !opts.json {
            eprintln!("sheriff-lint: {failing} finding(s)");
        }
        1
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args) {
        Ok(opts) => match run(&opts) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("sheriff-lint: error: {e}");
                2
            }
        },
        Err(e) => {
            eprintln!("sheriff-lint: error: {e}\n\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}
