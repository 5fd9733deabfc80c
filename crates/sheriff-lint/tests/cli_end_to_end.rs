//! End-to-end CLI coverage: build a synthetic workspace on disk, run
//! the real binary against it, and assert the exit codes and the
//! baseline ratchet behave as documented.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_sheriff-lint")
}

fn fixture_root(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("clean fixture dir");
    }
    std::fs::create_dir_all(root.join("src")).expect("mkdir src");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("write manifest");
    root
}

fn check(root: &Path, extra: &[&str]) -> Output {
    let mut cmd = Command::new(bin());
    cmd.arg("check").arg("--root").arg(root);
    cmd.args(extra);
    cmd.output().expect("spawn sheriff-lint")
}

fn write_lib(root: &Path, body: &str) {
    std::fs::write(root.join("src/lib.rs"), body).expect("write lib.rs");
}

const CLEAN_LIB: &str = "#![forbid(unsafe_code)]\n\
    fn safe(v: &[u32]) -> Option<u32> { v.first().copied() }\n";

const DIRTY_LIB: &str = "#![forbid(unsafe_code)]\n\
    fn risky(v: &[u32]) -> u32 { v.first().copied().unwrap() }\n";

#[test]
fn clean_tree_exits_zero() {
    let root = fixture_root("clean_tree");
    write_lib(&root, CLEAN_LIB);
    let out = check(&root, &["--deny-new"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn violation_fails_with_rustc_style_diagnostic() {
    let root = fixture_root("dirty_tree");
    write_lib(&root, DIRTY_LIB);
    let out = check(&root, &["--deny-new"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[PANIC01]:"), "stdout: {stdout}");
    assert!(stdout.contains("--> src/lib.rs:2:"), "stdout: {stdout}");
    assert!(stdout.contains("= help:"), "stdout: {stdout}");
}

#[test]
fn json_mode_emits_machine_readable_findings() {
    let root = fixture_root("json_tree");
    write_lib(&root, DIRTY_LIB);
    let out = check(&root, &["--json"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().next().unwrap_or_default();
    assert!(
        line.starts_with("{\"rule\":\"PANIC01\""),
        "stdout: {stdout}"
    );
    assert!(line.contains("\"file\":\"src/lib.rs\""), "stdout: {stdout}");
}

#[test]
fn baseline_ratchet_admits_old_debt_and_rejects_new() {
    let root = fixture_root("ratchet_tree");
    write_lib(&root, DIRTY_LIB);

    // ratchet the existing debt into the baseline → clean
    let out = check(&root, &["--update-baseline"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let baseline = std::fs::read_to_string(root.join("lint-baseline.json")).expect("baseline");
    assert!(baseline.contains("\"PANIC01\""), "baseline: {baseline}");
    assert_eq!(check(&root, &["--deny-new"]).status.code(), Some(0));

    // a second unwrap exceeds the ratchet
    write_lib(
        &root,
        "#![forbid(unsafe_code)]\n\
         fn risky(v: &[u32]) -> u32 { v.first().copied().unwrap() }\n\
         fn worse(v: &[u32]) -> u32 { v.last().copied().unwrap() }\n",
    );
    let out = check(&root, &["--deny-new"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("baseline allows 1"), "stdout: {stdout}");

    // fixing *both* makes the entry stale: plain check passes, CI mode
    // demands the ratchet move down
    write_lib(&root, CLEAN_LIB);
    assert_eq!(check(&root, &[]).status.code(), Some(0));
    let out = check(&root, &["--deny-new"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stale baseline"), "stdout: {stdout}");

    // re-ratcheting clears it
    assert_eq!(check(&root, &["--update-baseline"]).status.code(), Some(0));
    assert_eq!(check(&root, &["--deny-new"]).status.code(), Some(0));
}

#[test]
fn usage_errors_exit_two() {
    let out = Command::new(bin())
        .arg("frobnicate")
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let out = Command::new(bin()).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}

/// Where a `sheriff-lint: allow` pragma sits in the taint fixture.
enum Pragma {
    None,
    /// At the deterministic module's boundary call site.
    Boundary,
    /// At the primitive source inside the helper crate.
    Source,
}

/// A two-crate workspace where a deterministic module reaches the wall
/// clock only through a helper crate — a chain only the interprocedural
/// taint pass can connect.
fn write_taint_fixture(root: &Path, pragma: Pragma) {
    std::fs::create_dir_all(root.join("crates/sheriff-core/src")).expect("mkdir core");
    std::fs::create_dir_all(root.join("crates/helper/src")).expect("mkdir helper");
    let call = if matches!(pragma, Pragma::Boundary) {
        "    // sheriff-lint: allow(DET01, \"round timing is report-only, never in the digest\")\n    \
         let _ = stamp();\n"
    } else {
        "    let _ = stamp();\n"
    };
    std::fs::write(
        root.join("crates/sheriff-core/src/lib.rs"),
        format!("#![forbid(unsafe_code)]\nfn step() {{\n{call}}}\n"),
    )
    .expect("write core");
    let source = if matches!(pragma, Pragma::Source) {
        "pub fn middle() -> std::time::Instant {\n    \
         // sheriff-lint: allow(DET01, \"wall time never enters the digest\")\n    \
         std::time::Instant::now()\n}\n"
    } else {
        "pub fn middle() -> std::time::Instant { std::time::Instant::now() }\n"
    };
    std::fs::write(
        root.join("crates/helper/src/lib.rs"),
        format!(
            "#![forbid(unsafe_code)]\n\
             pub fn stamp() -> std::time::Instant {{ middle() }}\n{source}"
        ),
    )
    .expect("write helper");
}

#[test]
fn interprocedural_chain_is_reported_with_notes_and_pragma_clears_it() {
    let root = fixture_root("taint_tree");
    write_taint_fixture(&root, Pragma::None);

    let out = check(&root, &["--deny-new"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(
            "error[DET01]: deterministic fn `step` reaches an ambient wall-clock read via `stamp`"
        ),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("= note: `stamp` calls `middle` at crates/helper/src/lib.rs"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("= note: `middle` reads the wall clock (`Instant::now()`)"),
        "stdout: {stdout}"
    );

    // the same chain in --json, notes included
    let out = check(&root, &["--json"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"notes\":[\"`stamp` calls `middle`"),
        "stdout: {stdout}"
    );

    // a pragma at the boundary call site suppresses the chain finding;
    // the helper's own source stays the per-file rule's business
    write_taint_fixture(&root, Pragma::Boundary);
    let out = check(&root, &["--deny-new"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("deterministic fn `step`"),
        "boundary pragma must clear the chain finding; stdout: {stdout}"
    );
    assert!(
        stdout.contains("ambient wall-clock read"),
        "the primitive source itself stays flagged; stdout: {stdout}"
    );

    // a pragma at the source sanctions the whole chain: nothing seeds,
    // nothing propagates, the tree is clean
    write_taint_fixture(&root, Pragma::Source);
    let out = check(&root, &["--deny-new"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn sarif_output_is_written_in_every_mode_with_identical_exit_codes() {
    let root = fixture_root("sarif_tree");
    write_lib(&root, DIRTY_LIB);
    let sarif = root.join("findings.sarif");
    let sarif_arg = sarif.to_str().expect("utf8 path");

    // text, json, and text+sarif must agree on the verdict
    let text = check(&root, &["--deny-new", "--sarif", sarif_arg]);
    assert_eq!(text.status.code(), Some(1));
    let doc = std::fs::read_to_string(&sarif).expect("sarif written");
    assert!(doc.contains("\"version\": \"2.1.0\""), "doc: {doc}");
    assert!(doc.contains("\"ruleId\": \"PANIC01\""), "doc: {doc}");
    assert!(doc.contains("\"uri\": \"src/lib.rs\""), "doc: {doc}");

    let json = check(&root, &["--deny-new", "--json", "--sarif", sarif_arg]);
    assert_eq!(json.status.code(), Some(1));

    // a clean tree writes an empty (but valid) run and exits 0 everywhere
    write_lib(&root, CLEAN_LIB);
    for extra in [
        &["--deny-new", "--sarif", sarif_arg][..],
        &["--deny-new", "--json", "--sarif", sarif_arg][..],
    ] {
        let out = check(&root, extra);
        assert_eq!(out.status.code(), Some(0));
    }
    let doc = std::fs::read_to_string(&sarif).expect("sarif rewritten");
    assert!(doc.contains("\"results\": ["), "doc: {doc}");
    assert!(!doc.contains("\"ruleId\": \"PANIC01\""), "doc: {doc}");
}

#[test]
fn whole_repo_check_stays_under_the_wall_time_budget() {
    // the engine must stay fast enough for a pre-push hook: lexing is
    // memoized (each file tokenized exactly once) and the fixed point is
    // a worklist, so the real workspace — the largest tree we have —
    // must lint well inside the 30s budget
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    // measuring the linter's own wall time is the point of this test
    #[allow(clippy::disallowed_methods)]
    let started = std::time::Instant::now();
    let out = check(&repo, &["--deny-new"]);
    let elapsed = started.elapsed();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        elapsed < std::time::Duration::from_secs(30),
        "whole-repo lint took {elapsed:?}"
    );
}
