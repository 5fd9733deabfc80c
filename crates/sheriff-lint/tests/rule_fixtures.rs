//! Fixture coverage for every rule: one offending snippet, one clean
//! snippet, and one pragma-suppressed snippet each, linted through the
//! public `lint_source` entry point exactly as the CLI does.

use sheriff_lint::rules::lint_source;

const CORE: &str = "crates/sheriff-core/src/fixture.rs";

fn codes(path: &str, src: &str) -> Vec<String> {
    lint_source(path, src)
        .into_iter()
        .map(|d| d.rule.to_string())
        .collect()
}

// ------------------------------------------------------------- DET01

#[test]
fn det01_flags_ambient_wall_clock() {
    let src = "pub fn tick() { let t = std::time::Instant::now(); let _ = t; }";
    assert_eq!(codes(CORE, src), vec!["DET01"]);
    let sys = "pub fn stamp() { let t = SystemTime::now(); let _ = t; }";
    assert_eq!(codes(CORE, sys), vec!["DET01"]);
}

#[test]
fn det01_clean_in_obs_and_under_pragma() {
    let src = "pub fn tick() { let t = std::time::Instant::now(); let _ = t; }";
    assert!(codes("crates/sheriff-obs/src/timer.rs", src).is_empty());
    let suppressed = "// sheriff-lint: allow(DET01, \"wall time never enters the report\")\n\
                      pub fn tick() { let t = std::time::Instant::now(); let _ = t; }";
    assert!(codes(CORE, suppressed).is_empty());
}

#[test]
fn det01_ignores_test_code() {
    let src = "#[test]\nfn timing() { let t = Instant::now(); let _ = t; }";
    assert!(codes(CORE, src).is_empty());
}

// ------------------------------------------------------------- DET02

#[test]
fn det02_flags_hash_iteration_in_deterministic_modules() {
    let src = "use std::collections::HashMap;\n\
               pub fn fates(outstanding: HashMap<u64, u32>) {\n\
                   for (id, fate) in &outstanding { report(*id, *fate); }\n\
               }";
    assert_eq!(codes(CORE, src), vec!["DET02"]);
    let method = "pub fn drain() {\n\
                  let mut m: HashMap<u64, u32> = HashMap::new();\n\
                  let fates: Vec<u32> = m.drain().map(|(_, f)| f).collect();\n\
                  let _ = fates;\n}";
    assert_eq!(codes(CORE, method), vec!["DET02"]);
}

#[test]
fn det02_clean_for_btree_sorts_and_other_modules() {
    let btree = "use std::collections::BTreeMap;\n\
                 pub fn fates(outstanding: BTreeMap<u64, u32>) {\n\
                     for (id, fate) in &outstanding { report(*id, *fate); }\n\
                 }";
    assert!(codes(CORE, btree).is_empty());
    // collect-then-sort within the next statement neutralises the visit
    let sorted = "pub fn ranked(rates: HashMap<u64, f64>) -> Vec<(u64, f64)> {\n\
                  let mut v: Vec<(u64, f64)> = rates.iter().map(|(k, r)| (*k, *r)).collect();\n\
                  v.sort_by_key(|(k, _)| *k);\n  v\n}";
    assert!(codes(CORE, sorted).is_empty());
    // the same offending code outside a deterministic module is fine
    let src = "pub fn fates(m: HashMap<u64, u32>) { for (i, f) in &m { report(*i, *f); } }";
    assert!(codes("crates/bench/src/fixture.rs", src).is_empty());
}

#[test]
fn det02_pragma_suppresses_with_reason() {
    let src = "pub fn fates(m: HashMap<u64, u32>) {\n\
               // sheriff-lint: allow(DET02, \"order folded into a commutative sum below\")\n\
               for (i, f) in &m { accumulate(*i, *f); }\n}";
    assert!(codes(CORE, src).is_empty());
}

// ------------------------------------------------------------- DET03

#[test]
fn det03_flags_ambient_randomness() {
    let src = "pub fn jitter() -> f64 { rand::random() }";
    assert_eq!(codes(CORE, src), vec!["DET03"]);
    let trng = "pub fn jitter() { let mut rng = thread_rng(); let _ = rng; }";
    assert_eq!(codes(CORE, trng), vec!["DET03"]);
}

#[test]
fn det03_clean_for_seeded_rngs_and_pragma() {
    let seeded = "pub fn jitter(seed: u64) { let rng = StdRng::seed_from_u64(seed); let _ = rng; }";
    assert!(codes(CORE, seeded).is_empty());
    let suppressed = "// sheriff-lint: allow(DET03, \"demo binary, not a management loop\")\n\
                      pub fn jitter() -> f64 { rand::random() }";
    assert!(codes(CORE, suppressed).is_empty());
}

// ----------------------------------------------------------- PANIC01

#[test]
fn panic01_flags_unwrap_expect_and_indexing() {
    assert_eq!(
        codes(
            CORE,
            "pub fn f(v: Vec<u32>) -> u32 { v.first().copied().unwrap() }"
        ),
        vec!["PANIC01"]
    );
    assert_eq!(
        codes(
            CORE,
            "pub fn f(v: Vec<u32>) -> u32 { *v.first().expect(\"nonempty\") }"
        ),
        vec!["PANIC01"]
    );
    assert_eq!(
        codes(CORE, "pub fn f(v: &[u32]) -> u32 { v[0] }"),
        vec!["PANIC01"]
    );
}

#[test]
fn panic01_clean_code_and_structural_brackets_pass() {
    // slice patterns, array types, attributes and macro brackets are
    // not index expressions
    let src = "#[derive(Clone)]\n\
               pub struct W { xs: [f64; 4] }\n\
               pub fn f(v: &[u32]) -> Option<u32> {\n\
                   if let [only] = v { return Some(*only); }\n\
                   let buf = vec![0u32; 3];\n\
                   let _ = buf;\n\
                   v.get(0).copied()\n\
               }";
    assert!(codes(CORE, src).is_empty());
}

#[test]
fn panic01_exempts_tests_and_respects_pragma() {
    let test_code =
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!(x()[0].unwrap(), 1); }\n}";
    assert!(codes(CORE, test_code).is_empty());
    let suppressed = "pub fn f(v: &[u32]) -> u32 {\n\
                      // sheriff-lint: allow(PANIC01, \"index bounded by the loop above\")\n\
                      v[0]\n}";
    assert!(codes(CORE, suppressed).is_empty());
}

// ---------------------------------------------------------- UNSAFE01

#[test]
fn unsafe01_requires_forbid_on_crate_roots_only() {
    let bare = "//! Crate docs.\npub fn f() {}";
    assert_eq!(codes("crates/dcn-sim/src/lib.rs", bare), vec!["UNSAFE01"]);
    assert_eq!(codes("src/lib.rs", bare), vec!["UNSAFE01"]);
    // non-root modules don't need the attribute
    assert!(codes("crates/dcn-sim/src/engine.rs", bare).is_empty());
    let guarded = "#![forbid(unsafe_code)]\npub fn f() {}";
    assert!(codes("crates/dcn-sim/src/lib.rs", guarded).is_empty());
}

// ------------------------------------------------------------- LINT00

#[test]
fn malformed_pragmas_are_reported_not_silent() {
    let src = "// sheriff-lint: allow(PANIC01)\n\
               pub fn f(v: &[u32]) -> u32 { v[0] }";
    let got = codes(CORE, src);
    assert_eq!(
        got,
        vec!["LINT00", "PANIC01"],
        "typo'd pragma must not suppress"
    );
}

#[test]
fn lint00_cannot_be_pragma_suppressed() {
    let src = "// sheriff-lint: allow(LINT00, \"quiet the meta rule\")\n\
               // sheriff-lint: allow(PANIC01)\n\
               pub fn f() {}";
    let got = codes(CORE, src);
    assert!(got.contains(&"LINT00".to_string()));
}

// ------------------------------------------- failure/epoch fencing

const FAILURE: &str = "crates/sheriff-core/src/failure.rs";

#[test]
fn failure_detector_module_is_det_scoped() {
    // the failure detector lives under sheriff-core: wall clock and
    // hash-ordered iteration are flagged there like everywhere else in
    // the deterministic core
    let clock = "pub fn now() -> u64 { let t = std::time::Instant::now(); drop(t); 0 }";
    assert_eq!(codes(FAILURE, clock), vec!["DET01"]);
    let hash = "use std::collections::HashMap;\n\
                pub fn sweep(h: HashMap<u64, u64>) { for (r, e) in &h { fence(*r, *e); } }";
    assert_eq!(codes(FAILURE, hash), vec!["DET02"]);
}

#[test]
fn epoch_comparison_pattern_lints_clean() {
    // the blessed epoch-fencing idiom: epochs live in a BTreeMap, the
    // fence reads with `.get()` and a 0 default (a rack never taken
    // over is implicitly at epoch 0), comparison is forward-only, and
    // sweeps iterate in rack order
    let src = "use std::collections::BTreeMap;\n\
        pub fn fence(epochs: &BTreeMap<u64, u64>, from: u64, msg_epoch: u64) -> Option<u64> {\n\
            let current = epochs.get(&from).copied().unwrap_or(0);\n\
            (msg_epoch < current).then_some(current)\n\
        }\n\
        pub fn sweep(epochs: &BTreeMap<u64, u64>) {\n\
            for (rack, epoch) in epochs { observe(*rack, *epoch); }\n\
        }";
    assert!(codes(FAILURE, src).is_empty());
}

#[test]
fn epoch_table_indexing_is_flagged() {
    // reaching into the epoch table with `[]` panics on a rack that was
    // never taken over; the fence must use `.get()` with a 0 default
    let src = "use std::collections::BTreeMap;\n\
        pub fn fence(epochs: &BTreeMap<u64, u64>, from: u64, e: u64) -> bool {\n\
            e < epochs[&from]\n\
        }";
    assert_eq!(codes(FAILURE, src), vec!["PANIC01"]);
}

// -------------------------------------------- sheriff-transfer scope

const TRANSFER: &str = "crates/sheriff-transfer/src/fixture.rs";

#[test]
fn transfer_scheduler_is_det_scoped() {
    // the bandwidth-sharing scheduler schedules completion events on
    // the deterministic core: same-seed transfer schedules must be
    // byte-identical, so all three DET rules apply under
    // crates/sheriff-transfer/src/
    let clock = "pub fn sampled() -> u64 { let t = std::time::Instant::now(); drop(t); 0 }";
    assert_eq!(codes(TRANSFER, clock), vec!["DET01"]);
    let hash = "use std::collections::HashMap;\n\
                pub fn recompute(active: HashMap<u64, f64>) { for (id, rate) in &active { set(*id, *rate); } }";
    assert_eq!(codes(TRANSFER, hash), vec!["DET02"]);
    let rng = "pub fn tie_break() -> f64 { rand::random() }";
    assert_eq!(codes(TRANSFER, rng), vec!["DET03"]);
}

#[test]
fn transfer_route_table_idiom_lints_clean() {
    // the blessed scheduler idiom: active transfers in a BTreeMap keyed
    // by id, per-link shares recomputed by ordered iteration
    let src = "use std::collections::BTreeMap;\n\
        pub fn rates(active: &BTreeMap<u64, f64>) -> f64 {\n\
            let mut total = 0.0;\n\
            for (_, r) in active { total += r; }\n\
            total\n\
        }";
    assert!(codes(TRANSFER, src).is_empty());
}

// ------------------------------------------ transfer recovery scope

#[test]
fn recovery_backoff_must_not_use_ambient_randomness() {
    // retry backoff needs jitter so simultaneous stalls don't herd onto
    // the same restored link, but ambient randomness would make the
    // recovery schedule differ run-to-run: DET03 catches the shortcut
    let ambient = "pub fn retry_jitter() -> u64 { (rand::random::<f64>() * 8.0) as u64 }";
    assert_eq!(codes(TRANSFER, ambient), vec!["DET03"]);
    // the blessed idiom: SplitMix64 over (attempt, transfer id) — pure
    // arithmetic, same inputs, same jitter
    let seeded = "pub fn retry_jitter(attempt: u32, id: u64) -> u64 {\n\
        let mut z = id ^ (u64::from(attempt) << 32);\n\
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);\n\
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);\n\
        z ^ (z >> 31)\n\
    }";
    assert!(codes(TRANSFER, seeded).is_empty());
}

#[test]
fn recovery_failed_link_set_must_iterate_ordered() {
    // the failed-link set feeds route viability checks whose visit
    // order reaches the report; a HashSet sweep is flagged, the
    // BTreeSet the recovery machine actually uses is clean
    let hash = "use std::collections::HashSet;\n\
        pub fn reroute_all(failed: HashSet<usize>) {\n\
            for e in &failed { invalidate(*e); }\n\
        }";
    assert_eq!(codes(TRANSFER, hash), vec!["DET02"]);
    let btree = "use std::collections::BTreeSet;\n\
        pub fn reroute_all(failed: &BTreeSet<usize>) {\n\
            for e in failed { invalidate(*e); }\n\
        }";
    assert!(codes(TRANSFER, btree).is_empty());
}

#[test]
fn recovery_stall_deadline_must_not_read_wall_clock() {
    // stall budgets are virtual-time ticks; an Instant-based deadline
    // would tie retry exhaustion to host speed
    let wall = "pub fn expired() -> bool { let t = std::time::Instant::now(); drop(t); false }";
    assert_eq!(codes(TRANSFER, wall), vec!["DET01"]);
    let virt = "pub fn expired(now: u64, stalled_since: u64, budget: u64) -> bool {\n\
        now.saturating_sub(stalled_since) >= budget\n\
    }";
    assert!(codes(TRANSFER, virt).is_empty());
}

#[test]
fn transfer_crate_panic01_ratchet_holds_at_zero() {
    // the committed lint-baseline.json carries no PANIC01 grants for
    // crates/sheriff-transfer/src/ — the recovery machine must keep it
    // that way (the CLI's --deny-new also rejects stale entries, so
    // this can only ratchet down)
    let baseline = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../lint-baseline.json"
    ))
    .expect("committed lint baseline");
    assert!(
        !baseline.contains("sheriff-transfer"),
        "sheriff-transfer grew a lint-baseline grant; fix the finding instead"
    );
}

// ------------------------------------------------------ determinism

#[test]
fn diagnostics_are_position_sorted_and_stable() {
    let src = "pub fn f(v: &[u32], m: HashMap<u64, u32>) -> u32 {\n\
               for (i, x) in &m { report(*i, *x); }\n\
               v[0] + v.last().copied().unwrap()\n}";
    let a = lint_source(CORE, src);
    let b = lint_source(CORE, src);
    assert_eq!(a, b, "linting must be deterministic");
    let keys: Vec<_> = a.iter().map(|d| (d.line, d.col)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings must be position-sorted");
    assert_eq!(a.len(), 3, "DET02 + two PANIC01 findings: {a:?}");
}

// ------------------------------------------------------------- PROTO01

#[test]
fn proto01_flags_catchall_in_protocol_match() {
    let src = "pub fn handle(msg: ShimMsg) {\n\
                   match msg {\n\
                       ShimMsg::Prepare { .. } => prepare(),\n\
                       _ => {}\n\
                   }\n\
               }";
    assert_eq!(codes(CORE, src), vec!["PROTO01"]);
}

#[test]
fn proto01_clean_for_exhaustive_variant_patterns_and_other_modules() {
    // a variant pattern with inner wildcards is still a position taken
    let exhaustive = "pub fn handle(msg: ShimMsg) {\n\
                          match msg {\n\
                              ShimMsg::Prepare { .. } => prepare(),\n\
                              ShimMsg::Commit(_) => commit(),\n\
                          }\n\
                      }";
    assert!(codes(CORE, exhaustive).is_empty());
    // non-protocol matches may use `_` freely
    let plain = "pub fn classify(n: u32) -> u32 { match n { 0 => 1, _ => 2 } }";
    assert!(codes(CORE, plain).is_empty());
    // outside the deterministic modules the rule does not apply
    let bench =
        "pub fn handle(msg: ShimMsg) { match msg { ShimMsg::Prepare { .. } => p(), _ => {} } }";
    assert!(codes("crates/bench/src/fixture.rs", bench).is_empty());
}

#[test]
fn proto01_pragma_suppresses_with_reason() {
    let suppressed = "pub fn handle(msg: TwoPhaseReply) {\n\
                          match msg {\n\
                              TwoPhaseReply::Ack(_) => ack(),\n\
                              // sheriff-lint: allow(PROTO01, \"forward-compat shim for replayed journals\")\n\
                              _ => {}\n\
                          }\n\
                      }";
    assert!(codes(CORE, suppressed).is_empty());
}

// ------------------------------------------------------------- EVT01

#[test]
fn evt01_flags_dead_event_variant_across_the_workspace() {
    use sheriff_lint::rules::lint_workspace;
    use sheriff_lint::symbols::SourceFile;

    let event_enum = "pub enum Event {\n    Alive { rack: u64 },\n    Dead { rack: u64 },\n}";
    let emitter = "pub fn fire() { emit(|| Event::Alive { rack: 0 }); }";
    let run = |files: &[(&str, &str)]| -> Vec<(&'static str, String)> {
        let parsed: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        let (diags, _) = lint_workspace(parsed);
        diags.into_iter().map(|d| (d.rule, d.message)).collect()
    };
    let only_dead = |found: &[(&str, String)]| {
        found.len() == 1 && found[0].0 == "EVT01" && found[0].1.contains("`Event::Dead`")
    };

    let dead = run(&[
        ("crates/sheriff-obs/src/event.rs", event_enum),
        ("crates/sheriff-core/src/fixture.rs", emitter),
    ]);
    assert!(only_dead(&dead), "Dead has no emit site: {dead:?}");

    // a consume site (matching on the variant) keeps it live too
    let consumer = "pub fn fold(e: Event) -> u64 {\n\
                        match e {\n\
                            Event::Alive { rack } => rack,\n\
                            Event::Dead { rack } => rack,\n\
                        }\n\
                    }";
    let live = run(&[
        ("crates/sheriff-obs/src/event.rs", event_enum),
        ("crates/sheriff-core/src/fixture.rs", emitter),
        ("crates/bench/src/fixture.rs", consumer),
    ]);
    assert!(live.is_empty(), "{live:?}");

    // test-gated uses do not count as live
    let test_only =
        "#[cfg(test)]\nmod tests {\n    fn t() { emit(|| Event::Dead { rack: 1 }); }\n}";
    let still_dead = run(&[
        ("crates/sheriff-obs/src/event.rs", event_enum),
        ("crates/sheriff-core/src/fixture.rs", emitter),
        ("crates/sheriff-core/src/tests_fixture.rs", test_only),
    ]);
    assert!(only_dead(&still_dead), "{still_dead:?}");

    // the one-table form: a `macro_rules!` declares `pub enum $name`, and
    // the call keeps the literal `enum Event { … }` tokens the scan reads
    let table = "macro_rules! events {\n\
                     (pub enum $name:ident { $($v:ident = $k:literal { $($f:tt)* },)* }) => {\n\
                         pub enum $name { $($v { $($f)* },)* }\n\
                     };\n\
                 }\n\
                 events! {\n\
                     pub enum Event {\n\
                         Alive = \"alive\" { rack: u64, },\n\
                         Dead = \"dead\" { rack: u64, },\n\
                     }\n\
                 }";
    let found = run(&[
        ("crates/sheriff-obs/src/event.rs", table),
        ("crates/sheriff-core/src/fixture.rs", emitter),
    ]);
    assert!(only_dead(&found), "{found:?}");
}
