//! The ratchet: known pre-existing debt, committed as
//! `lint-baseline.json` at the workspace root.
//!
//! The baseline is a per-rule ratchet: PANIC01 panic debt, PROTO01
//! catch-all debt, and — since the DET rules went interprocedural —
//! DET01–DET03 findings flushed out of legacy `bench`/`dcn-sim` call
//! paths may be carried as tracked debt. Unsafety (UNSAFE01), dead
//! telemetry (EVT01), and malformed pragmas (LINT00) must be zero. The baseline stores a *count per file*, not
//! positions, so it is robust to unrelated line shifts:
//!
//! * count > baseline → new violations, the check fails;
//! * count < baseline → the entry is stale, the check also fails until
//!   `--update-baseline` re-ratchets it down (debt may only shrink).
//!
//! The file format is a two-level JSON object,
//! `{"PANIC01": {"crates/x/src/y.rs": 3}}`, parsed by the minimal
//! reader below (same zero-dep stance as the rest of the crate).

use crate::diagnostics::{json_escape, Diagnostic};
use std::collections::BTreeMap;

/// Rules whose pre-existing violations may be carried as debt.
pub const BASELINABLE: &[&str] = &["DET01", "DET02", "DET03", "PANIC01", "PROTO01"];

/// rule → file → allowed count.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    counts: BTreeMap<String, BTreeMap<String, u32>>,
}

/// One divergence between the committed baseline and the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineIssue {
    /// More violations than the ratchet allows.
    New {
        /// Rule code.
        rule: String,
        /// Repo-relative file.
        file: String,
        /// Violations found in the tree.
        actual: u32,
        /// Violations the baseline allows.
        allowed: u32,
    },
    /// Fewer violations than recorded — the entry must be re-ratcheted.
    Stale {
        /// Rule code.
        rule: String,
        /// Repo-relative file.
        file: String,
        /// Violations found in the tree.
        actual: u32,
        /// Violations the baseline allows.
        allowed: u32,
    },
}

impl std::fmt::Display for BaselineIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineIssue::New {
                rule,
                file,
                actual,
                allowed,
            } => write!(
                f,
                "error[{rule}]: {file} has {actual} violation(s) but the baseline allows \
                 {allowed} — fix the new site(s) instead of re-baselining"
            ),
            BaselineIssue::Stale {
                rule,
                file,
                actual,
                allowed,
            } => write!(
                f,
                "error[{rule}]: stale baseline for {file}: allows {allowed} but only {actual} \
                 remain — run `cargo run -p sheriff-lint -- check --update-baseline` to ratchet \
                 the debt down"
            ),
        }
    }
}

impl Baseline {
    /// Build the would-be baseline from a lint run: counts of the
    /// baselinable rules only.
    pub fn from_diagnostics(diags: &[Diagnostic]) -> Self {
        let mut counts: BTreeMap<String, BTreeMap<String, u32>> = BTreeMap::new();
        for d in diags {
            if !BASELINABLE.contains(&d.rule) {
                continue;
            }
            *counts
                .entry(d.rule.to_string())
                .or_default()
                .entry(d.file.clone())
                .or_insert(0) += 1;
        }
        Baseline { counts }
    }

    /// Split diagnostics into (suppressed-by-baseline, outstanding) and
    /// report ratchet divergences. Within a file the *first* `allowed`
    /// findings (in position order) are attributed to the baseline.
    pub fn apply(&self, diags: &[Diagnostic]) -> (Vec<Diagnostic>, Vec<BaselineIssue>) {
        let actual = Baseline::from_diagnostics(diags);
        let mut issues = Vec::new();

        for (rule, files) in &actual.counts {
            for (file, &n) in files {
                let allowed = self.allowed(rule, file);
                if n > allowed {
                    issues.push(BaselineIssue::New {
                        rule: rule.clone(),
                        file: file.clone(),
                        actual: n,
                        allowed,
                    });
                } else if n < allowed {
                    issues.push(BaselineIssue::Stale {
                        rule: rule.clone(),
                        file: file.clone(),
                        actual: n,
                        allowed,
                    });
                }
            }
        }
        // entries for files that no longer violate at all (or vanished)
        for (rule, files) in &self.counts {
            for (file, &allowed) in files {
                if actual.allowed(rule, file) == 0 && allowed > 0 {
                    issues.push(BaselineIssue::Stale {
                        rule: rule.clone(),
                        file: file.clone(),
                        actual: 0,
                        allowed,
                    });
                }
            }
        }

        let mut seen: BTreeMap<(String, String), u32> = BTreeMap::new();
        let mut outstanding = Vec::new();
        for d in diags {
            if !BASELINABLE.contains(&d.rule) {
                outstanding.push(d.clone());
                continue;
            }
            let key = (d.rule.to_string(), d.file.clone());
            let used = seen.entry(key).or_insert(0);
            if *used < self.allowed(d.rule, &d.file) {
                *used += 1;
            } else {
                outstanding.push(d.clone());
            }
        }
        (outstanding, issues)
    }

    fn allowed(&self, rule: &str, file: &str) -> u32 {
        self.counts
            .get(rule)
            .and_then(|m| m.get(file))
            .copied()
            .unwrap_or(0)
    }

    /// Total entries (file, rule) pairs carried as debt.
    pub fn entry_count(&self) -> usize {
        self.counts.values().map(BTreeMap::len).sum()
    }

    /// Render as pretty, sorted JSON with a trailing newline — the
    /// committed `lint-baseline.json` representation.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        let rules: Vec<_> = self.counts.iter().filter(|(_, m)| !m.is_empty()).collect();
        for (ri, (rule, files)) in rules.iter().enumerate() {
            out.push_str(&format!("  \"{}\": {{\n", json_escape(rule)));
            for (fi, (file, n)) in files.iter().enumerate() {
                let comma = if fi + 1 == files.len() { "" } else { "," };
                out.push_str(&format!("    \"{}\": {n}{comma}\n", json_escape(file)));
            }
            let comma = if ri + 1 == rules.len() { "" } else { "," };
            out.push_str(&format!("  }}{comma}\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Parse the committed representation. Strict two-level
    /// `{"rule": {"file": count}}` shape; anything else is an error.
    pub fn parse(src: &str) -> Result<Baseline, String> {
        let mut p = Json {
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.ws();
        p.expect_byte(b'{')?;
        let mut counts: BTreeMap<String, BTreeMap<String, u32>> = BTreeMap::new();
        p.ws();
        if !p.eat(b'}') {
            loop {
                p.ws();
                let rule = p.string()?;
                if !BASELINABLE.contains(&rule.as_str()) {
                    return Err(format!(
                        "rule {rule:?} is not baselinable (only {BASELINABLE:?} may carry debt)"
                    ));
                }
                p.ws();
                p.expect_byte(b':')?;
                p.ws();
                p.expect_byte(b'{')?;
                let mut files = BTreeMap::new();
                p.ws();
                if !p.eat(b'}') {
                    loop {
                        p.ws();
                        let file = p.string()?;
                        p.ws();
                        p.expect_byte(b':')?;
                        p.ws();
                        let n = p.number()?;
                        if files.insert(file.clone(), n).is_some() {
                            return Err(format!("duplicate baseline entry for {file:?}"));
                        }
                        p.ws();
                        if p.eat(b',') {
                            continue;
                        }
                        p.expect_byte(b'}')?;
                        break;
                    }
                }
                if counts.insert(rule.clone(), files).is_some() {
                    return Err(format!("duplicate baseline section for {rule:?}"));
                }
                p.ws();
                if p.eat(b',') {
                    continue;
                }
                p.expect_byte(b'}')?;
                break;
            }
        }
        p.ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(Baseline { counts })
    }
}

/// Minimal JSON cursor for the baseline's fixed shape.
struct Json<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Json<'_> {
    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {} of baseline file",
                b as char, self.pos
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string in baseline file".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        other => {
                            return Err(format!(
                                "unsupported escape {:?} in baseline file",
                                other.map(|b| b as char)
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(b) => {
                    // baseline strings are paths/rule codes: copy bytes,
                    // validating UTF-8 at the end is unnecessary since the
                    // input is a &str already
                    let start = self.pos;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&c| c != b'"' && c != b'\\')
                    {
                        self.pos += 1;
                    }
                    let chunk = self.bytes.get(start..self.pos).unwrap_or(&[]);
                    out.push_str(&String::from_utf8_lossy(chunk));
                    let _ = b;
                }
            }
        }
    }

    fn number(&mut self) -> Result<u32, String> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        let digits = self.bytes.get(start..self.pos).unwrap_or(&[]);
        if digits.is_empty() {
            return Err(format!("expected a count at byte {start} of baseline file"));
        }
        String::from_utf8_lossy(digits)
            .parse::<u32>()
            .map_err(|e| format!("bad count in baseline file: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(rule: &'static str, file: &str, line: u32) -> Diagnostic {
        Diagnostic {
            rule,
            file: file.to_string(),
            line,
            col: 1,
            message: "m".into(),
            help: "h",
            notes: Vec::new(),
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let diags = vec![
            d("PANIC01", "crates/a/src/x.rs", 1),
            d("PANIC01", "crates/a/src/x.rs", 9),
            d("PANIC01", "crates/b/src/y.rs", 4),
        ];
        let b = Baseline::from_diagnostics(&diags);
        let parsed = Baseline::parse(&b.render());
        assert_eq!(parsed, Ok(b));
    }

    #[test]
    fn non_baselinable_rules_never_enter_the_baseline() {
        let b = Baseline::from_diagnostics(&[
            d("UNSAFE01", "src/lib.rs", 1),
            d("EVT01", "crates/sheriff-obs/src/event.rs", 3),
            d("LINT00", "src/lib.rs", 9),
        ]);
        assert_eq!(b.entry_count(), 0);
        assert!(Baseline::parse("{\"UNSAFE01\": {\"src/lib.rs\": 1}}").is_err());
        assert!(Baseline::parse("{\"EVT01\": {\"crates/sheriff-obs/src/event.rs\": 1}}").is_err());
    }

    #[test]
    fn det_rules_ratchet_per_rule() {
        let diags = vec![
            d("DET02", "crates/dcn-sim/src/flows.rs", 5),
            d("PANIC01", "crates/dcn-sim/src/flows.rs", 5),
        ];
        let b = Baseline::from_diagnostics(&diags);
        assert_eq!(b.entry_count(), 2, "one entry per (rule, file) pair");
        let parsed = Baseline::parse(&b.render()).expect("round-trip");
        let (outstanding, issues) = parsed.apply(&diags);
        assert!(outstanding.is_empty());
        assert!(issues.is_empty());
    }

    #[test]
    fn ratchet_flags_new_and_stale() {
        let committed = Baseline::from_diagnostics(&[
            d("PANIC01", "a.rs", 1),
            d("PANIC01", "a.rs", 2),
            d("PANIC01", "gone.rs", 3),
        ]);
        // a.rs grew to 3 violations, gone.rs is clean now
        let now = vec![
            d("PANIC01", "a.rs", 1),
            d("PANIC01", "a.rs", 2),
            d("PANIC01", "a.rs", 8),
        ];
        let (outstanding, issues) = committed.apply(&now);
        assert_eq!(outstanding.len(), 1, "one new violation past the ratchet");
        assert!(issues
            .iter()
            .any(|i| matches!(i, BaselineIssue::New { file, actual: 3, allowed: 2, .. } if file == "a.rs")));
        assert!(issues
            .iter()
            .any(|i| matches!(i, BaselineIssue::Stale { file, actual: 0, allowed: 1, .. } if file == "gone.rs")));
    }

    #[test]
    fn matching_tree_is_clean() {
        let diags = vec![d("PANIC01", "a.rs", 1)];
        let committed = Baseline::from_diagnostics(&diags);
        let (outstanding, issues) = committed.apply(&diags);
        assert!(outstanding.is_empty());
        assert!(issues.is_empty());
    }
}
