//! The suppression pragma: `// sheriff-lint: allow(RULE, "reason")`.
//!
//! A pragma on line *N* suppresses diagnostics of that rule on line *N*
//! (trailing-comment style) and on line *N + 1* (preceding-comment
//! style). The reason is mandatory and non-empty: every suppression in
//! the tree documents *why* the invariant may be waived at that site.

use crate::lexer::Comment;

/// One parsed suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// The rule code being allowed, e.g. `DET02`.
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
    /// 1-based line the pragma comment starts on.
    pub line: u32,
}

/// Why a `sheriff-lint:` comment failed to parse as a pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PragmaError {
    /// The directive after `sheriff-lint:` is not `allow`.
    UnknownDirective(String),
    /// Structural problem: missing parens, comma, or quotes.
    Malformed(String),
    /// The reason string is empty (or whitespace).
    EmptyReason,
}

impl std::fmt::Display for PragmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PragmaError::UnknownDirective(d) => {
                write!(f, "unknown sheriff-lint directive {d:?} (expected `allow`)")
            }
            PragmaError::Malformed(what) => write!(f, "malformed sheriff-lint pragma: {what}"),
            PragmaError::EmptyReason => {
                f.write_str("sheriff-lint pragma needs a non-empty reason string")
            }
        }
    }
}

/// Render a pragma as the comment body that [`parse`] accepts, the
/// round-trip partner of the property tests. The result excludes the
/// leading `//`.
// sheriff-lint: allow(DEAD01, "the round-trip proptest in tests/pragma_roundtrip.rs")
pub fn format(rule: &str, reason: &str) -> String {
    let mut escaped = String::with_capacity(reason.len());
    for c in reason.chars() {
        match c {
            '\\' => escaped.push_str("\\\\"),
            '"' => escaped.push_str("\\\""),
            _ => escaped.push(c),
        }
    }
    format!(" sheriff-lint: allow({rule}, \"{escaped}\")")
}

/// Try to parse one line comment as a pragma.
///
/// Returns `None` when the comment is not a `sheriff-lint:` comment at
/// all; `Some(Err(…))` when it *is* one but is malformed (the rule
/// engine reports those — a typo'd pragma must not silently suppress
/// nothing).
pub fn parse(comment: &Comment) -> Option<Result<Pragma, PragmaError>> {
    let text = comment.text.trim_start();
    let rest = text.strip_prefix("sheriff-lint:")?;
    Some(parse_directive(rest, comment.line))
}

fn parse_directive(rest: &str, line: u32) -> Result<Pragma, PragmaError> {
    let rest = rest.trim_start();
    let Some(args) = rest.strip_prefix("allow") else {
        let directive: String = rest.chars().take_while(|c| !c.is_whitespace()).collect();
        return Err(PragmaError::UnknownDirective(directive));
    };
    let args = args.trim_start();
    let Some(args) = args.strip_prefix('(') else {
        return Err(PragmaError::Malformed("expected `(` after `allow`".into()));
    };
    // rule code: up to the comma
    let Some(comma) = args.find(',') else {
        return Err(PragmaError::Malformed(
            "expected `,` between rule and reason".into(),
        ));
    };
    let (rule_part, after_comma) = args.split_at(comma);
    let rule = rule_part.trim();
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(PragmaError::Malformed(format!(
            "invalid rule code {rule:?}"
        )));
    }
    let after_comma = after_comma.get(1..).unwrap_or("").trim_start();
    let Some(body) = after_comma.strip_prefix('"') else {
        return Err(PragmaError::Malformed(
            "reason must be a quoted string".into(),
        ));
    };
    // unescape up to the closing quote
    let mut reason = String::new();
    let mut chars = body.chars();
    let mut closed = false;
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                closed = true;
                break;
            }
            '\\' => match chars.next() {
                Some('"') => reason.push('"'),
                Some('\\') => reason.push('\\'),
                Some(other) => {
                    reason.push('\\');
                    reason.push(other);
                }
                None => return Err(PragmaError::Malformed("dangling escape in reason".into())),
            },
            _ => reason.push(c),
        }
    }
    if !closed {
        return Err(PragmaError::Malformed("unterminated reason string".into()));
    }
    if !chars.as_str().trim_start().starts_with(')') {
        return Err(PragmaError::Malformed("expected `)` after reason".into()));
    }
    if reason.trim().is_empty() {
        return Err(PragmaError::EmptyReason);
    }
    Ok(Pragma {
        rule: rule.to_string(),
        reason,
        line,
    })
}

/// The suppression set of one file: which (rule, line) pairs are waived.
#[derive(Debug, Default)]
pub struct Suppressions {
    allowed: Vec<(String, u32)>,
}

impl Suppressions {
    /// Build from parsed pragmas.
    pub fn from_pragmas(pragmas: &[Pragma]) -> Self {
        Suppressions {
            allowed: pragmas.iter().map(|p| (p.rule.clone(), p.line)).collect(),
        }
    }

    /// Whether a diagnostic of `rule` on `line` is suppressed: a pragma
    /// covers its own line and the one after it.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.allowed
            .iter()
            .any(|(r, l)| r == rule && (*l == line || l + 1 == line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comment(text: &str) -> Comment {
        Comment {
            text: text.to_string(),
            line: 7,
            col: 1,
        }
    }

    #[test]
    fn plain_comments_are_not_pragmas() {
        assert!(parse(&comment(" just words")).is_none());
        assert!(parse(&comment("! module docs")).is_none());
    }

    #[test]
    fn well_formed_pragma_parses() {
        let p = parse(&comment(" sheriff-lint: allow(DET02, \"sorted below\")"));
        let p = p.and_then(Result::ok);
        assert_eq!(
            p,
            Some(Pragma {
                rule: "DET02".into(),
                reason: "sorted below".into(),
                line: 7,
            })
        );
    }

    #[test]
    fn malformed_pragmas_are_errors_not_silence() {
        for bad in [
            " sheriff-lint: allow(DET02)",
            " sheriff-lint: allow(DET02, unquoted)",
            " sheriff-lint: allow(DET02, \"\")",
            " sheriff-lint: allow(DET02, \"  \")",
            " sheriff-lint: deny(DET02, \"x\")",
            " sheriff-lint: allow(DET02, \"unterminated)",
        ] {
            let parsed = parse(&comment(bad));
            assert!(matches!(parsed, Some(Err(_))), "{bad:?} should be an error");
        }
    }

    #[test]
    fn format_then_parse_round_trips_escapes() {
        let reason = "he said \"x\\y\" loudly";
        let text = format("PANIC01", reason);
        let parsed = parse(&comment(&text)).and_then(Result::ok);
        assert_eq!(parsed.map(|p| p.reason), Some(reason.to_string()));
    }

    #[test]
    fn coverage_spans_own_and_next_line() {
        let s = Suppressions::from_pragmas(&[Pragma {
            rule: "DET01".into(),
            reason: "r".into(),
            line: 10,
        }]);
        assert!(s.covers("DET01", 10));
        assert!(s.covers("DET01", 11));
        assert!(!s.covers("DET01", 12));
        assert!(!s.covers("DET02", 10));
    }
}
