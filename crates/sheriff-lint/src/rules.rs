//! The rule engine: the per-file rules over the token stream, plus the
//! whole-program passes that run over the workspace symbol index.
//!
//! | Code     | Invariant guarded                                            |
//! |----------|--------------------------------------------------------------|
//! | DET01    | no ambient wall clock outside `sheriff-obs`, and no call     |
//! |          | chain from a deterministic root that reaches one             |
//! | DET02    | no order-sensitive `HashMap`/`HashSet` iteration in          |
//! |          | deterministic modules, nor reachable from them               |
//! | DET03    | no ambient randomness (`thread_rng`, `rand::random`),        |
//! |          | intraprocedural or reachable                                 |
//! | PANIC01  | no `unwrap`/`expect`/indexing in non-test library code       |
//! | UNSAFE01 | every crate root carries `#![forbid(unsafe_code)]`           |
//! | EVT01    | every `sheriff-obs::Event` variant has a non-test emit site  |
//! | PROTO01  | protocol `match`es in deterministic modules take a position  |
//! |          | on every variant — no `_` catch-all                          |
//! | LINT00   | (meta) malformed `sheriff-lint:` pragmas never silently      |
//! |          | suppress nothing                                             |
//!
//! The engine is heuristic by design — a hand-rolled lexer cannot do
//! type inference — but every heuristic errs so that real regressions in
//! *this* workspace are caught, and false positives have a typed escape
//! hatch: `// sheriff-lint: allow(RULE, "reason")`.

use crate::callgraph::CallGraph;
use crate::diagnostics::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::symbols::{SourceFile, SymbolIndex};
use crate::taint;
use std::collections::BTreeSet;

/// Rule codes, in report order.
pub const RULES: &[&str] = &[
    "DET01", "DET02", "DET03", "PANIC01", "UNSAFE01", "EVT01", "PROTO01", "LINT00",
];

const HELP_DET01: &str = "route timing through sheriff_obs::Timer (wall clock is excluded from \
     canonical output there), or add `// sheriff-lint: allow(DET01, \"why\")`";
const HELP_DET02: &str = "iterate a BTreeMap/BTreeSet, sort the items in this statement, or add \
     `// sheriff-lint: allow(DET02, \"why the order cannot leak\")`";
const HELP_DET03: &str = "construct a seeded RNG (e.g. `StdRng::seed_from_u64`) and thread it \
     through, or add `// sheriff-lint: allow(DET03, \"why\")`";
const HELP_PANIC01: &str = "return the module's typed error instead (SheriffError / FitError / \
     TraceIoError patterns), use `.get(..)`, or add `// sheriff-lint: allow(PANIC01, \"why this \
     cannot panic\")`";
const HELP_UNSAFE01: &str = "add `#![forbid(unsafe_code)]` next to the crate's other inner \
     attributes";
pub(crate) const HELP_LINT00: &str = "write `// sheriff-lint: allow(RULE, \"reason\")` — a \
     typo'd pragma must not silently suppress nothing";
const HELP_EVT01: &str = "emit the variant from the runtime path it documents (see DESIGN.md \
     §7's event-to-paper map), or delete it — dead telemetry rots the map";
const HELP_PROTO01: &str = "name every variant (or-patterns are fine) so the next protocol \
     extension forces this handler to take a position, or add \
     `// sheriff-lint: allow(PROTO01, \"why\")` on the match";

/// Keywords that can directly precede `[` without forming an index
/// expression (plus everything that is never an expression tail).
pub(crate) const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while", "yield",
];

/// Identifiers that make a hash-iteration statement order-insensitive:
/// explicit sorts, BTree rebuilds, and commutative terminal consumers.
pub(crate) const NEUTRALIZERS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "sum",
    "count",
    "len",
    "is_empty",
    "all",
    "any",
    "min",
    "max",
];

/// Methods whose receiver order becomes observable.
pub(crate) const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Paths (repo-relative, `/`-separated) whose iteration order is part of
/// the reproducibility contract: the management loops, the simulator,
/// the transfer scheduler, and the scenario runner's pure `run_job`
/// path. These are also the taint pass's reachability roots.
pub(crate) fn is_deterministic_module(path: &str) -> bool {
    path.starts_with("crates/sheriff-core/src/")
        || path.starts_with("crates/dcn-sim/src/")
        || path.starts_with("crates/sheriff-transfer/src/")
        || path == "crates/sheriff-scenario/src/runner.rs"
}

/// The one crate allowed to read the wall clock: its `Timer` keeps wall
/// durations out of the deterministic event stream by contract.
pub(crate) fn is_wall_clock_allowlisted(path: &str) -> bool {
    path.starts_with("crates/sheriff-obs/")
}

/// Crate roots that must carry `#![forbid(unsafe_code)]`.
fn is_crate_root(path: &str) -> bool {
    path == "src/lib.rs" || (path.starts_with("crates/") && path.ends_with("/src/lib.rs"))
}

// ------------------------------------------------------------- regions

/// Per-token flags derived from attributes: inside a `#[cfg(test)]` /
/// `#[test]` item.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Flags {
    pub(crate) test: bool,
}

#[derive(Debug)]
struct Attr {
    /// Index of the `#` token.
    hash: usize,
    /// Index one past the closing `]`.
    end: usize,
    inner: bool,
    idents: Vec<String>,
}

/// Scan one attribute starting at tokens\[i\] == `#`.
fn scan_attr(tokens: &[Token], i: usize) -> Option<Attr> {
    let mut j = i + 1;
    let inner = tokens.get(j).is_some_and(|t| t.is_punct('!'));
    if inner {
        j += 1;
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct('[')) {
        return None;
    }
    j += 1;
    let mut depth = 1u32;
    let mut idents = Vec::new();
    while let Some(t) = tokens.get(j) {
        match &t.kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some(Attr {
                        hash: i,
                        end: j + 1,
                        inner,
                        idents,
                    });
                }
            }
            TokenKind::Ident(s) => idents.push(s.clone()),
            _ => {}
        }
        j += 1;
    }
    None
}

/// Index one past the end of the item starting at `start`: the matching
/// `}` of its first top-level brace block, or its terminating `;`.
fn item_end(tokens: &[Token], start: usize) -> usize {
    let mut j = start;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    while let Some(t) = tokens.get(j) {
        match &t.kind {
            TokenKind::Punct('(') => paren += 1,
            TokenKind::Punct(')') => paren -= 1,
            TokenKind::Punct('[') => bracket += 1,
            TokenKind::Punct(']') => bracket -= 1,
            TokenKind::Punct(';') if paren <= 0 && bracket <= 0 => return j + 1,
            TokenKind::Punct('{') if paren <= 0 && bracket <= 0 => {
                let mut depth = 1i32;
                let mut k = j + 1;
                while let Some(t2) = tokens.get(k) {
                    match &t2.kind {
                        TokenKind::Punct('{') => depth += 1,
                        TokenKind::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                return k + 1;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                return tokens.len();
            }
            _ => {}
        }
        j += 1;
    }
    tokens.len()
}

/// Compute per-token flags plus file-level facts from the attributes.
pub(crate) fn compute_flags(tokens: &[Token]) -> (Vec<Flags>, bool) {
    let mut flags = vec![Flags::default(); tokens.len()];
    let mut has_forbid_unsafe = false;
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens.get(i).is_some_and(|t| t.is_punct('#')) {
            i += 1;
            continue;
        }
        let Some(attr) = scan_attr(tokens, i) else {
            i += 1;
            continue;
        };
        let is_test_attr = attr.idents.iter().any(|s| s == "test");
        if attr.inner {
            if is_test_attr {
                // `#![cfg(test)]`: the whole file is test code
                for f in &mut flags {
                    f.test = true;
                }
            }
            if attr.idents.iter().any(|s| s == "forbid")
                && attr.idents.iter().any(|s| s == "unsafe_code")
            {
                has_forbid_unsafe = true;
            }
            i = attr.end;
            continue;
        }
        if !is_test_attr {
            i = attr.end;
            continue;
        }
        // skip any further attributes between this one and the item
        let mut item_start = attr.end;
        while tokens.get(item_start).is_some_and(|t| t.is_punct('#')) {
            match scan_attr(tokens, item_start) {
                Some(a) => item_start = a.end,
                None => break,
            }
        }
        let end = item_end(tokens, item_start);
        for f in flags.iter_mut().take(end.min(tokens.len())).skip(attr.hash) {
            f.test = true;
        }
        i = attr.end;
    }
    (flags, has_forbid_unsafe)
}

// ------------------------------------------------------------ the rules

fn diag(
    rule: &'static str,
    path: &str,
    tok: &Token,
    message: String,
    help: &'static str,
) -> Diagnostic {
    Diagnostic {
        rule,
        file: path.to_string(),
        line: tok.line,
        col: tok.col,
        message,
        help,
        notes: Vec::new(),
    }
}

/// The help string for a DET rule code — used by the taint pass so the
/// interprocedural findings carry the same remediation text.
pub(crate) fn det_help(rule: &str) -> &'static str {
    match rule {
        "DET01" => HELP_DET01,
        "DET02" => HELP_DET02,
        _ => HELP_DET03,
    }
}

/// `A :: B` at index `i`: the path-segment pair (A, B) if present.
pub(crate) fn path_pair(tokens: &[Token], i: usize) -> Option<(&str, &str)> {
    let a = tokens.get(i)?.ident()?;
    if !(tokens.get(i + 1)?.is_punct(':') && tokens.get(i + 2)?.is_punct(':')) {
        return None;
    }
    let b = tokens.get(i + 3)?.ident()?;
    Some((a, b))
}

fn det01(tokens: &[Token], flags: &[Flags], path: &str, out: &mut Vec<Diagnostic>) {
    if is_wall_clock_allowlisted(path) {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if flags.get(i).copied().unwrap_or_default().test {
            continue;
        }
        if let Some((a, b)) = path_pair(tokens, i) {
            if (a == "SystemTime" || a == "Instant") && b == "now" {
                out.push(diag(
                    "DET01",
                    path,
                    t,
                    format!(
                        "ambient wall-clock read: `{a}::now()` breaks same-seed reproducibility"
                    ),
                    HELP_DET01,
                ));
            }
        }
    }
}

fn det03(tokens: &[Token], flags: &[Flags], path: &str, out: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        if flags.get(i).copied().unwrap_or_default().test {
            continue;
        }
        if t.is_ident("thread_rng") {
            out.push(diag(
                "DET03",
                path,
                t,
                "ambient randomness: `thread_rng` is seeded from the OS".to_string(),
                HELP_DET03,
            ));
        } else if let Some(("rand", "random")) = path_pair(tokens, i) {
            out.push(diag(
                "DET03",
                path,
                t,
                "ambient randomness: `rand::random` is seeded from the OS".to_string(),
                HELP_DET03,
            ));
        }
    }
}

/// Names in this file declared (or initialised) as `HashMap`/`HashSet`.
pub(crate) fn hash_typed_names(tokens: &[Token]) -> BTreeSet<String> {
    const WINDOW: usize = 9;
    let mut names = BTreeSet::new();
    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if KEYWORDS.contains(&name) {
            continue;
        }
        // `name : … HashMap …` (type ascription / struct field), where the
        // `:` is not a path separator
        let ascription = tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && !tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && !tokens
                .get(i.wrapping_sub(1))
                .is_some_and(|p| p.is_punct(':'));
        // `let [mut] name = … HashMap …`
        let let_binding = tokens.get(i + 1).is_some_and(|n| n.is_punct('='))
            && !tokens.get(i + 2).is_some_and(|n| n.is_punct('='))
            && {
                let prev = tokens.get(i.wrapping_sub(1));
                prev.is_some_and(|p| p.is_ident("let"))
                    || (prev.is_some_and(|p| p.is_ident("mut"))
                        && tokens
                            .get(i.wrapping_sub(2))
                            .is_some_and(|p| p.is_ident("let")))
            };
        if !(ascription || let_binding) {
            continue;
        }
        let hashy = tokens
            .iter()
            .skip(i + 2)
            .take(WINDOW)
            .take_while(|n| !n.is_punct(';'))
            .any(|n| n.is_ident("HashMap") || n.is_ident("HashSet"));
        if hashy {
            names.insert(name.to_string());
        }
    }
    names
}

/// Idents of the statement containing index `i` plus the following
/// statement — the window in which a sort/BTree rebuild neutralises an
/// order-sensitive iteration.
pub(crate) fn statement_window_has_neutralizer(tokens: &[Token], i: usize) -> bool {
    // backward to the start of the statement
    let before = tokens
        .iter()
        .take(i)
        .rev()
        .take_while(|t| !(t.is_punct(';') || t.is_punct('{') || t.is_punct('}')));
    // forward through the end of the *next* statement
    let mut semis = 0u32;
    let after = tokens.iter().skip(i).take_while(move |t| {
        if t.is_punct(';') {
            semis += 1;
        }
        semis < 2
    });
    before
        .chain(after)
        .filter_map(|t| t.ident())
        .any(|s| NEUTRALIZERS.contains(&s))
}

/// Whether tokens\[i\] is an order-sensitive iteration over one of
/// `names` (the file's hash-typed bindings) that no sort/BTree rebuild
/// neutralises within its statement window. Returns the binding name.
/// Shared between the intraprocedural DET02 rule and the taint seeder.
pub(crate) fn hash_iter_site<'a>(
    tokens: &'a [Token],
    i: usize,
    names: &BTreeSet<String>,
) -> Option<&'a str> {
    let name = tokens.get(i)?.ident()?;
    if !names.contains(name) {
        return None;
    }
    // `name.iter()` and friends
    let method_iter = tokens.get(i + 1).is_some_and(|n| n.is_punct('.'))
        && tokens
            .get(i + 2)
            .and_then(|n| n.ident())
            .is_some_and(|m| ITER_METHODS.contains(&m))
        && tokens.get(i + 3).is_some_and(|n| n.is_punct('('));
    // `for … in [&|&mut|(] name {`
    let for_iter = {
        let mut j = i;
        let mut saw_in = false;
        while j > 0 {
            j -= 1;
            match tokens.get(j).map(|p| &p.kind) {
                Some(TokenKind::Punct('&' | '(')) => continue,
                Some(TokenKind::Ident(s)) if s == "mut" => continue,
                Some(TokenKind::Ident(s)) if s == "in" => {
                    saw_in = true;
                    break;
                }
                _ => break,
            }
        }
        saw_in && tokens.get(i + 1).is_some_and(|n| n.is_punct('{'))
    };
    if !(method_iter || for_iter) {
        return None;
    }
    if statement_window_has_neutralizer(tokens, i) {
        return None;
    }
    Some(name)
}

fn det02(tokens: &[Token], flags: &[Flags], path: &str, out: &mut Vec<Diagnostic>) {
    if !is_deterministic_module(path) {
        return;
    }
    let names = hash_typed_names(tokens);
    if names.is_empty() {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if flags.get(i).copied().unwrap_or_default().test {
            continue;
        }
        let Some(name) = hash_iter_site(tokens, i, &names) else {
            continue;
        };
        out.push(diag(
            "DET02",
            path,
            t,
            format!(
                "iteration over hash-ordered `{name}` in a deterministic module: the visit \
                 order can differ across processes"
            ),
            HELP_DET02,
        ));
    }
}

fn panic01(tokens: &[Token], flags: &[Flags], path: &str, out: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        if flags.get(i).copied().unwrap_or_default().test {
            continue;
        }
        match &t.kind {
            TokenKind::Ident(m) if (m == "unwrap" || m == "expect") => {
                let is_call = tokens
                    .get(i.wrapping_sub(1))
                    .is_some_and(|p| p.is_punct('.'))
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
                if is_call {
                    out.push(diag(
                        "PANIC01",
                        path,
                        t,
                        format!("`.{m}()` can panic on the library hot path"),
                        HELP_PANIC01,
                    ));
                }
            }
            TokenKind::Punct('[') => {
                let indexes = match tokens.get(i.wrapping_sub(1)).map(|p| &p.kind) {
                    Some(TokenKind::Ident(s)) => !KEYWORDS.contains(&s.as_str()),
                    Some(TokenKind::Punct(')' | ']')) => true,
                    _ => false,
                };
                if indexes {
                    out.push(diag(
                        "PANIC01",
                        path,
                        t,
                        "direct indexing can panic on out-of-bounds access".to_string(),
                        HELP_PANIC01,
                    ));
                }
            }
            _ => {}
        }
    }
}

fn unsafe01(tokens: &[Token], has_forbid: bool, path: &str, out: &mut Vec<Diagnostic>) {
    if !is_crate_root(path) || has_forbid {
        return;
    }
    let anchor = tokens.first().cloned().unwrap_or(Token {
        kind: TokenKind::Punct('?'),
        line: 1,
        col: 1,
    });
    out.push(Diagnostic {
        rule: "UNSAFE01",
        file: path.to_string(),
        line: anchor.line,
        col: anchor.col,
        message: "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
        help: HELP_UNSAFE01,
        notes: Vec::new(),
    });
}

// ------------------------------------------------- PROTO01 (match arms)

/// Enum names whose `match`es must take a position on every variant:
/// the shim wire protocol, the 2PC reply lattice, and the fabric's own
/// event agenda.
const PROTO_ENUMS: &[&str] = &["ShimMsg", "TwoPhaseReply", "FabricEvent"];

/// PROTO01: a `match` in a deterministic module whose arm *patterns*
/// name a protocol enum must not carry a bare `_` catch-all arm — when
/// the next PR adds a variant, every handler has to take a position.
/// Only patterns are inspected (tokens between the arm start and its
/// `=>`), so constructing a protocol message inside an arm body never
/// qualifies the surrounding match.
fn proto01(tokens: &[Token], flags: &[Flags], path: &str, out: &mut Vec<Diagnostic>) {
    if !is_deterministic_module(path) {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("match") || flags.get(i).copied().unwrap_or_default().test {
            continue;
        }
        let Some(open) = match_block_open(tokens, i) else {
            continue;
        };
        let close = block_close(tokens, open);
        let mut protocol = false;
        let mut catchalls: Vec<&Token> = Vec::new();
        let mut k = open + 1;
        while k < close {
            let Some((pattern, arrow)) = arm_pattern(tokens, k, close) else {
                break;
            };
            // the pattern proper stops at a `if` guard
            let guard = pattern
                .iter()
                .position(|p| p.is_ident("if"))
                .unwrap_or(pattern.len());
            if pattern
                .iter()
                .take(guard)
                .any(|p| p.ident().is_some_and(|s| PROTO_ENUMS.contains(&s)))
            {
                protocol = true;
            }
            if guard == 1 {
                if let Some(u) = pattern.first().filter(|p| p.is_ident("_")) {
                    catchalls.push(u);
                }
            }
            k = arm_body_end(tokens, arrow + 2, close);
        }
        if !protocol {
            continue;
        }
        for c in catchalls {
            out.push(diag(
                "PROTO01",
                path,
                c,
                "`_` catch-all in a protocol match: new `ShimMsg`/`TwoPhaseReply`/fabric \
                 event variants would be silently swallowed here"
                    .to_string(),
                HELP_PROTO01,
            ));
        }
    }
}

/// From a `match` keyword, the index of the `{` opening its arm block.
fn match_block_open(tokens: &[Token], i: usize) -> Option<usize> {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut j = i + 1;
    while let Some(t) = tokens.get(j) {
        match &t.kind {
            TokenKind::Punct('(') => paren += 1,
            TokenKind::Punct(')') => paren -= 1,
            TokenKind::Punct('[') => bracket += 1,
            TokenKind::Punct(']') => bracket -= 1,
            TokenKind::Punct('{') if paren <= 0 && bracket <= 0 => return Some(j),
            TokenKind::Punct(';') if paren <= 0 && bracket <= 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn block_close(tokens: &[Token], open: usize) -> usize {
    let mut depth = 1i32;
    let mut k = open + 1;
    while let Some(t) = tokens.get(k) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
        k += 1;
    }
    tokens.len()
}

/// Parse one arm's pattern starting at `k`: the tokens before its `=>`,
/// and the index of the arrow's `=`.
fn arm_pattern(tokens: &[Token], k: usize, close: usize) -> Option<(Vec<&Token>, usize)> {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut brace = 0i32;
    let mut pattern = Vec::new();
    let mut m = k;
    while m < close {
        let Some(t) = tokens.get(m) else { break };
        if paren <= 0
            && bracket <= 0
            && brace <= 0
            && t.is_punct('=')
            && tokens.get(m + 1).is_some_and(|n| n.is_punct('>'))
        {
            return Some((pattern, m));
        }
        match &t.kind {
            TokenKind::Punct('(') => paren += 1,
            TokenKind::Punct(')') => paren -= 1,
            TokenKind::Punct('[') => bracket += 1,
            TokenKind::Punct(']') => bracket -= 1,
            TokenKind::Punct('{') => brace += 1,
            TokenKind::Punct('}') => brace -= 1,
            _ => {}
        }
        pattern.push(t);
        m += 1;
    }
    None
}

/// Skip one arm body starting just past `=>`: returns the index of the
/// next arm's first token.
fn arm_body_end(tokens: &[Token], start: usize, close: usize) -> usize {
    let mut m = start;
    if tokens.get(m).is_some_and(|t| t.is_punct('{')) {
        m = block_close(tokens, m) + 1;
        if tokens.get(m).is_some_and(|t| t.is_punct(',')) {
            m += 1;
        }
        return m.min(close);
    }
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut brace = 0i32;
    while m < close {
        let Some(t) = tokens.get(m) else { break };
        match &t.kind {
            TokenKind::Punct('(') => paren += 1,
            TokenKind::Punct(')') => paren -= 1,
            TokenKind::Punct('[') => bracket += 1,
            TokenKind::Punct(']') => bracket -= 1,
            TokenKind::Punct('{') => brace += 1,
            TokenKind::Punct('}') => brace -= 1,
            TokenKind::Punct(',') if paren <= 0 && bracket <= 0 && brace <= 0 => {
                return m + 1;
            }
            _ => {}
        }
        m += 1;
    }
    close
}

// ------------------------------------------------ EVT01 (event coverage)

/// The file defining the observability event vocabulary.
const EVENT_ENUM_FILE: &str = "crates/sheriff-obs/src/event.rs";

/// EVT01: every `sheriff-obs::Event` variant needs at least one non-test
/// `Event::Variant` use outside `sheriff-obs` itself — dead telemetry is
/// how DESIGN.md §7's event-to-paper map rots. (Pattern uses count as
/// live sites too: a consumed variant is wired, not dead.)
fn evt01(index: &SymbolIndex, out: &mut Vec<Diagnostic>) {
    let Some(efile) = index.files.iter().find(|f| f.path == EVENT_ENUM_FILE) else {
        return;
    };
    let variants = enum_variants(&efile.tokens, "Event");
    if variants.is_empty() {
        return;
    }
    let mut live: BTreeSet<&str> = BTreeSet::new();
    for file in &index.files {
        if file.path.starts_with("crates/sheriff-obs/") {
            continue;
        }
        for i in 0..file.tokens.len() {
            if file.flag(i).test {
                continue;
            }
            if let Some(("Event", v)) = path_pair(&file.tokens, i) {
                live.insert(v);
            }
        }
    }
    for (name, tok) in &variants {
        if !live.contains(name.as_str()) {
            out.push(diag(
                "EVT01",
                EVENT_ENUM_FILE,
                tok,
                format!(
                    "`Event::{name}` has no non-test emit or consume site outside \
                     `sheriff-obs`: dead telemetry"
                ),
                HELP_EVT01,
            ));
        }
    }
}

/// The variants of `enum <name>` in a token stream, with their tokens.
fn enum_variants<'a>(tokens: &'a [Token], name: &str) -> Vec<(String, &'a Token)> {
    let mut out = Vec::new();
    let Some(pos) = tokens
        .windows(2)
        .position(|w| matches!(w, [a, b] if a.is_ident("enum") && b.is_ident(name)))
    else {
        return out;
    };
    let Some(open) = tokens
        .iter()
        .enumerate()
        .skip(pos + 2)
        .find(|(_, t)| t.is_punct('{'))
        .map(|(i, _)| i)
    else {
        return out;
    };
    let close = block_close(tokens, open);
    let mut expect_variant = true;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut brace = 0i32;
    let mut k = open + 1;
    while k < close {
        let Some(t) = tokens.get(k) else { break };
        match &t.kind {
            TokenKind::Punct('#') if expect_variant => {
                // skip the variant's attributes
                if let Some(a) = scan_attr(tokens, k) {
                    k = a.end;
                    continue;
                }
            }
            TokenKind::Ident(s)
                if expect_variant
                    && paren <= 0
                    && bracket <= 0
                    && brace <= 0
                    && !KEYWORDS.contains(&s.as_str()) =>
            {
                out.push((s.clone(), t));
                expect_variant = false;
            }
            TokenKind::Punct('(') => paren += 1,
            TokenKind::Punct(')') => paren -= 1,
            TokenKind::Punct('[') => bracket += 1,
            TokenKind::Punct(']') => bracket -= 1,
            TokenKind::Punct('{') => brace += 1,
            TokenKind::Punct('}') => brace -= 1,
            TokenKind::Punct(',') if paren <= 0 && bracket <= 0 && brace <= 0 => {
                expect_variant = true;
            }
            _ => {}
        }
        k += 1;
    }
    out
}

// ---------------------------------------------------------- entry points

/// Run the per-file rules over one already-parsed file. Suppressions are
/// applied; the result is unsorted.
fn lint_file(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = file.lint00.clone();
    let tokens = &file.tokens;
    let flags = &file.flags;
    let path = &file.path;
    det01(tokens, flags, path, &mut out);
    det02(tokens, flags, path, &mut out);
    det03(tokens, flags, path, &mut out);
    panic01(tokens, flags, path, &mut out);
    unsafe01(tokens, file.has_forbid_unsafe, path, &mut out);
    proto01(tokens, flags, path, &mut out);
    out.retain(|d| d.rule == "LINT00" || !file.suppressions.covers(d.rule, d.line));
    out
}

/// Lint one source file. `path` must be repo-relative with `/`
/// separators — it selects which rules apply. (The whole-program rules
/// need the full workspace: see [`lint_workspace`].)
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let file = SourceFile::parse(path, src);
    let mut out = lint_file(&file);
    out.sort_by_key(Diagnostic::sort_key);
    out
}

/// Whole-workspace accounting surfaced in `--json` output, including the
/// call graph's explicit unresolved bucket.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EngineStats {
    /// Source files linted.
    pub files: usize,
    /// Function definitions indexed.
    pub functions: usize,
    /// Call-shaped sites inspected.
    pub call_sites: usize,
    /// Sites linked to at least one workspace definition.
    pub resolved_calls: usize,
    /// Sites with no workspace candidate (std, vendored, constructors) —
    /// the graph's visible soundness gap.
    pub unresolved_calls: usize,
    /// Functions tainted by at least one determinism taint kind.
    pub tainted_functions: usize,
}

impl EngineStats {
    /// One-line JSON rendering, emitted after the findings in `--json`
    /// mode.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"stats\":{{\"files\":{},\"functions\":{},\"call_sites\":{},\
             \"resolved_calls\":{},\"unresolved_calls\":{},\"tainted_functions\":{}}}}}",
            self.files,
            self.functions,
            self.call_sites,
            self.resolved_calls,
            self.unresolved_calls,
            self.tainted_functions
        )
    }
}

/// Lint the whole workspace: the per-file rules plus the symbol-index,
/// call-graph, taint, EVT01, and PROTO01 passes — all off the memoized
/// per-file token streams (each file is lexed exactly once).
pub fn lint_workspace(files: Vec<SourceFile>) -> (Vec<Diagnostic>, EngineStats) {
    let mut out = Vec::new();
    for f in &files {
        out.extend(lint_file(f));
    }

    let index = SymbolIndex::build(files);
    let graph = CallGraph::build(&index);
    let taint_map = taint::analyze(&index, &graph);

    let mut global = taint::interprocedural_diagnostics(&index, &graph, &taint_map);
    evt01(&index, &mut global);
    global.retain(|d| {
        let suppressed = index
            .files
            .iter()
            .find(|f| f.path == d.file)
            .is_some_and(|f| f.suppressions.covers(d.rule, d.line));
        !suppressed
    });
    out.extend(global);
    out.sort_by_key(Diagnostic::sort_key);

    let stats = EngineStats {
        files: index.files.len(),
        functions: index.fns.len(),
        call_sites: graph.call_sites,
        resolved_calls: graph.resolved,
        unresolved_calls: graph.unresolved,
        tainted_functions: taint_map.tainted_count(),
    };
    (out, stats)
}
