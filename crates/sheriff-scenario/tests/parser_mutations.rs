//! Robustness of the scenario readers: every mutant of every bundled
//! `scenarios/*.toml` must parse to `Ok` or `Err`, never panic. Mutants
//! come from byte deletions, truncations, random bytes, spliced copies
//! and inserted tokens, drawn from a seeded SplitMix64, and are read
//! through both `Value::parse` and `ScenarioSpec::parse_str`; every
//! mutant that parses also goes through `validate()`, which bounds a
//! topology's host count before it builds one.

use sheriff_scenario::{ScenarioSpec, Value};
use std::panic::catch_unwind;

/// Mutants drawn per bundled scenario file.
const MUTANTS_PER_FILE: usize = 600;

/// Tokens that open, close or break the grammar's constructs.
const TOKENS: &[&str] = &[
    "[[",
    "]]",
    "[",
    "]",
    "{",
    "}",
    "\"",
    "\\",
    "\\u",
    "\\uD800",
    "1e400",
    "-",
    "=",
    ".",
    ",",
    "#",
    "\n",
    "9223372036854775808",
    "true",
    "0x1F",
    "é",
    "\u{2713}",
];

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be positive.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn bundled_scenarios() -> Vec<(String, Vec<u8>)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("scenarios directory exists")
        .map(|e| e.expect("readable directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .map(|p| {
            let name = p.file_name().expect("file name").to_string_lossy().into();
            (name, std::fs::read(&p).expect("readable scenario"))
        })
        .collect();
    files.sort();
    files
}

/// One to three random edits of `doc`; `donors` supplies spliced bytes.
fn mutate(doc: &[u8], donors: &[(String, Vec<u8>)], rng: &mut SplitMix64) -> Vec<u8> {
    let mut out = doc.to_vec();
    for _ in 0..=rng.below(3) {
        let at = rng.below(out.len() + 1);
        match rng.below(5) {
            0 => {
                let end = (at + 1 + rng.below(8)).min(out.len());
                out.drain(at..end);
            }
            1 => out.truncate(at),
            2 => {
                for b in out.iter_mut().skip(at).take(1 + rng.below(4)) {
                    *b = rng.next() as u8;
                }
            }
            3 => {
                let donor = &donors[rng.below(donors.len())].1;
                let from = rng.below(donor.len() + 1);
                let to = (from + rng.below(64)).min(donor.len());
                out.splice(at..at, donor[from..to].iter().copied());
            }
            _ => {
                let token = TOKENS[rng.below(TOKENS.len())].bytes();
                out.splice(at..at, token);
            }
        }
    }
    out
}

#[test]
fn mutated_scenarios_never_panic_the_parser() {
    let files = bundled_scenarios();
    assert!(!files.is_empty(), "no bundled scenarios found");
    let mut rng = SplitMix64(0x5EED);
    for (name, doc) in &files {
        for i in 0..MUTANTS_PER_FILE {
            let mutant = mutate(doc, &files, &mut rng);
            let src = String::from_utf8_lossy(&mutant);
            let outcome = catch_unwind(|| {
                let _ = Value::parse(&src);
                if let Ok(spec) = ScenarioSpec::parse_str(&src) {
                    let _ = spec.validate();
                }
            });
            assert!(
                outcome.is_ok(),
                "mutant {i} of {name} panicked the parser or the validator; input: {src:?}"
            );
        }
    }
}
