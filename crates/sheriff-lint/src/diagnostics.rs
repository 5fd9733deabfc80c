//! Typed, rustc-style diagnostics with a `--json` machine rendering.

use std::fmt;

/// One finding: a rule violated at a position, with a suggestion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule code, e.g. `DET01`.
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// What happened, specific to the site.
    pub message: String,
    /// How to fix or suppress it.
    pub help: &'static str,
    /// Rustc-style `= note:` lines — the interprocedural rules use these
    /// to spell out the call chain from the deterministic root to the
    /// primitive source.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Ordering key: file, then position, then rule — the render order.
    pub fn sort_key(&self) -> (String, u32, u32, &'static str) {
        (self.file.clone(), self.line, self.col, self.rule)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}]: {}", self.rule, self.message)?;
        writeln!(f, "  --> {}:{}:{}", self.file, self.line, self.col)?;
        for n in &self.notes {
            writeln!(f, "   = note: {n}")?;
        }
        write!(f, "   = help: {}", self.help)
    }
}

/// Minimal JSON string escaping (the subset `Diagnostic` fields need).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render one diagnostic as a JSON object (one line, no trailing newline).
pub fn to_json(d: &Diagnostic) -> String {
    let notes: Vec<String> = d
        .notes
        .iter()
        .map(|n| format!("\"{}\"", json_escape(n)))
        .collect();
    format!(
        "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\",\"help\":\"{}\",\"notes\":[{}]}}",
        d.rule,
        json_escape(&d.file),
        d.line,
        d.col,
        json_escape(&d.message),
        json_escape(d.help),
        notes.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> Diagnostic {
        Diagnostic {
            rule: "DET01",
            file: "crates/x/src/a.rs".into(),
            line: 3,
            col: 9,
            message: "ambient wall-clock read: `Instant::now`".into(),
            help: "route timing through sheriff_obs::Timer",
            notes: Vec::new(),
        }
    }

    #[test]
    fn renders_notes_between_location_and_help() {
        let mut d = diag();
        d.notes = vec![
            "`helper` calls `inner`".into(),
            "`inner` reads the clock".into(),
        ];
        let text = d.to_string();
        let note_pos = text.find("= note: `helper`").expect("first note");
        let help_pos = text.find("= help:").expect("help");
        assert!(note_pos < help_pos);
        assert!(text.contains("= note: `inner` reads the clock"));
        let j = to_json(&d);
        assert!(j.contains("\"notes\":[\"`helper` calls `inner`\","));
    }

    #[test]
    fn renders_rustc_style() {
        let text = diag().to_string();
        assert!(text.starts_with("error[DET01]: "));
        assert!(text.contains("--> crates/x/src/a.rs:3:9"));
        assert!(text.contains("= help: "));
    }

    #[test]
    fn json_is_escaped() {
        let mut d = diag();
        d.message = "say \"hi\"\n".into();
        let j = to_json(&d);
        assert!(j.contains("\\\"hi\\\"\\n"));
        assert!(j.contains("\"line\":3"));
    }
}
