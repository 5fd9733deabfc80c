//! The workspace symbol index: every `fn` and `impl`-method definition,
//! with its module path, `#[cfg(test)]`/feature-gate region flags, and
//! body token range.
//!
//! This is the memoization layer the whole-program passes share: each
//! source file is read and lexed exactly once into a [`SourceFile`]
//! (tokens, attribute-derived flags, pragma suppressions), and the
//! [`SymbolIndex`] built over those files feeds the per-file rules, the
//! call graph, the taint fixed-point, and the EVT01/PROTO01 coverage
//! rules without ever re-tokenizing. That single-pass shape is what
//! keeps `check --deny-new` over the ~130-file workspace inside its CI
//! wall-time budget.

use crate::diagnostics::Diagnostic;
use crate::lexer::{lex, Comment, Token, TokenKind};
use crate::pragma::{self, Pragma, Suppressions};
use crate::rules::{compute_flags, Flags, HELP_LINT00, KEYWORDS};
use std::collections::BTreeMap;

/// One source file, read and lexed exactly once.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// Code tokens (comments stripped).
    pub tokens: Vec<Token>,
    /// Line comments, for pragma scanning.
    pub comments: Vec<Comment>,
    /// Per-token region flags (`#[cfg(test)]`).
    pub(crate) flags: Vec<Flags>,
    /// Whether the file carries `#![forbid(unsafe_code)]`.
    pub has_forbid_unsafe: bool,
    /// Parsed suppression pragmas.
    pub suppressions: Suppressions,
    /// LINT00 findings for malformed pragmas (never suppressible).
    pub lint00: Vec<Diagnostic>,
}

impl SourceFile {
    /// Lex `src` once and derive everything the passes need.
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let (flags, has_forbid_unsafe) = compute_flags(&lexed.tokens);
        let mut pragmas: Vec<Pragma> = Vec::new();
        let mut lint00 = Vec::new();
        for c in &lexed.comments {
            match pragma::parse(c) {
                None => {}
                Some(Ok(p)) => pragmas.push(p),
                Some(Err(e)) => lint00.push(Diagnostic {
                    rule: "LINT00",
                    file: path.to_string(),
                    line: c.line,
                    col: c.col,
                    message: e.to_string(),
                    help: HELP_LINT00,
                    notes: Vec::new(),
                }),
            }
        }
        SourceFile {
            path: path.to_string(),
            tokens: lexed.tokens,
            comments: lexed.comments,
            flags,
            has_forbid_unsafe,
            suppressions: Suppressions::from_pragmas(&pragmas),
            lint00,
        }
    }

    /// The region flags for token `i` (default: not test).
    pub(crate) fn flag(&self, i: usize) -> Flags {
        self.flags.get(i).copied().unwrap_or_default()
    }
}

/// One function definition found in the workspace.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function name (last path segment only).
    pub name: String,
    /// Index of the defining file in [`SymbolIndex::files`].
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// For `impl` methods (and trait-body fns): the self type name.
    pub self_ty: Option<String>,
    /// Defined inside a `#[cfg(test)]` / `#[test]` region.
    pub is_test: bool,
    /// Body token range `[start, end)` into the file's token stream —
    /// empty for bodyless trait declarations.
    pub body: (usize, usize),
}

/// The workspace-wide function index.
#[derive(Debug, Default)]
pub struct SymbolIndex {
    /// All parsed files, in walk (sorted-path) order.
    pub files: Vec<SourceFile>,
    /// All function definitions, in (file, position) order.
    pub fns: Vec<FnDef>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl SymbolIndex {
    /// Build the index over already-parsed files (no re-lexing).
    pub fn build(files: Vec<SourceFile>) -> SymbolIndex {
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for d in scan_fns(file, fi) {
                by_name.entry(d.name.clone()).or_default().push(fns.len());
                fns.push(d);
            }
        }
        SymbolIndex {
            files,
            fns,
            by_name,
        }
    }

    /// Function ids sharing `name` (free fns and methods alike).
    pub fn candidates(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// The definition of function `id`. Ids are minted by
    /// [`SymbolIndex::build`] and are always in-bounds.
    pub fn def(&self, id: usize) -> &FnDef {
        // sheriff-lint: allow(PANIC01, "fn ids are minted by build() and bounded by fns.len()")
        &self.fns[id]
    }

    /// The file defining function `id`.
    pub fn file_of(&self, id: usize) -> &SourceFile {
        // sheriff-lint: allow(PANIC01, "file ids are minted by build() and bounded by files.len()")
        &self.files[self.def(id).file]
    }
}

/// `impl` regions currently open at a token index.
struct ImplRegion {
    self_ty: String,
    end: usize,
}

/// `impl Trait` in type position (`x: impl Fn()`, `-> impl Iterator`)
/// rather than an `impl` item: recognised by the preceding punctuation.
fn impl_in_type_position(tokens: &[Token], i: usize) -> bool {
    match tokens.get(i.wrapping_sub(1)).map(|t| &t.kind) {
        Some(TokenKind::Punct(c)) => matches!(c, ':' | '(' | ',' | '=' | '&' | '<' | '>' | '|'),
        _ => false,
    }
}

/// Extract every `fn` definition in one file.
fn scan_fns(file: &SourceFile, fi: usize) -> Vec<FnDef> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    let mut impls: Vec<ImplRegion> = Vec::new();
    let mut i = 0usize;
    while let Some(t) = tokens.get(i) {
        impls.retain(|r| r.end > i);
        if t.is_ident("impl") && !impl_in_type_position(tokens, i) {
            if let Some((self_ty, body_start, body_end)) = scan_impl_header(tokens, i) {
                impls.push(ImplRegion {
                    self_ty,
                    end: body_end,
                });
                i = body_start; // descend into the impl body
                continue;
            }
        }
        if t.is_ident("trait") {
            // `trait Name … { … }`: body fns are methods of the trait
            if let Some((name, body_start, body_end)) = scan_trait_header(tokens, i) {
                impls.push(ImplRegion {
                    self_ty: name,
                    end: body_end,
                });
                i = body_start;
                continue;
            }
        }
        if t.is_ident("fn") {
            // `fn` in a function-pointer type has no name ident after it
            if let Some(name) = tokens.get(i + 1).and_then(Token::ident) {
                let flags = file.flag(i);
                let body = fn_body_range(tokens, i + 2);
                out.push(FnDef {
                    name: name.to_string(),
                    file: fi,
                    line: t.line,
                    col: t.col,
                    self_ty: impls.last().map(|r| r.self_ty.clone()),
                    is_test: flags.test,
                    body,
                });
                // continue scanning *inside* the body: nested fns and the
                // call sites the graph pass reads both live there
            }
        }
        i += 1;
    }
    out
}

/// Parse an `impl` header starting at tokens\[i\] == `impl`: returns the
/// self-type name (the segment after `for`, or the last path segment of
/// the implemented type), the body-start index (one past `{`), and the
/// body-end index (one past the matching `}`).
fn scan_impl_header(tokens: &[Token], i: usize) -> Option<(String, usize, usize)> {
    let mut j = i + 1;
    // skip generic parameters: `impl<...>`
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i32;
        while let Some(t) = tokens.get(j) {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    let mut self_ty: Option<String> = None;
    let mut in_where = false;
    let mut angle = 0i32;
    while let Some(t) = tokens.get(j) {
        match &t.kind {
            TokenKind::Punct('{') if angle <= 0 => {
                let body_start = j + 1;
                let mut depth = 1i32;
                let mut k = body_start;
                while let Some(t2) = tokens.get(k) {
                    if t2.is_punct('{') {
                        depth += 1;
                    } else if t2.is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            return self_ty.map(|ty| (ty, body_start, k + 1));
                        }
                    }
                    k += 1;
                }
                return self_ty.map(|ty| (ty, body_start, tokens.len()));
            }
            TokenKind::Punct(';') if angle <= 0 => return None,
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle -= 1,
            TokenKind::Ident(s) if s == "for" && angle <= 0 => {
                self_ty = None; // the real self type follows
            }
            TokenKind::Ident(s) if s == "where" && angle <= 0 => {
                in_where = true; // type name is settled; scan on to the `{`
            }
            TokenKind::Ident(s) if angle <= 0 && !in_where && !KEYWORDS.contains(&s.as_str()) => {
                // keep the last path segment seen (skips module qualifiers)
                self_ty = Some(s.clone());
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parse a `trait` header starting at tokens\[i\] == `trait`: the trait
/// name plus the body-start/body-end token indices.
fn scan_trait_header(tokens: &[Token], i: usize) -> Option<(String, usize, usize)> {
    let name = tokens.get(i + 1)?.ident()?.to_string();
    let mut angle = 0i32;
    let mut paren = 0i32;
    let mut j = i + 2;
    while let Some(t) = tokens.get(j) {
        match &t.kind {
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle -= 1,
            TokenKind::Punct('(') => paren += 1,
            TokenKind::Punct(')') => paren -= 1,
            TokenKind::Punct(';') if angle <= 0 && paren <= 0 => return None, // alias
            TokenKind::Punct('{') if angle <= 0 && paren <= 0 => {
                let body_start = j + 1;
                let mut depth = 1i32;
                let mut k = body_start;
                while let Some(t2) = tokens.get(k) {
                    if t2.is_punct('{') {
                        depth += 1;
                    } else if t2.is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            return Some((name, body_start, k + 1));
                        }
                    }
                    k += 1;
                }
                return Some((name, body_start, tokens.len()));
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// From just past the fn name, find the body `{ … }` token range.
/// Returns an empty range for bodyless trait declarations (`;`).
fn fn_body_range(tokens: &[Token], mut j: usize) -> (usize, usize) {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut angle = 0i32;
    while let Some(t) = tokens.get(j) {
        match &t.kind {
            TokenKind::Punct('(') => paren += 1,
            TokenKind::Punct(')') => paren -= 1,
            TokenKind::Punct('[') => bracket += 1,
            TokenKind::Punct(']') => bracket -= 1,
            TokenKind::Punct('<') if paren <= 0 => angle += 1,
            TokenKind::Punct('>') if paren <= 0 => angle = (angle - 1).max(0),
            TokenKind::Punct(';') if paren <= 0 && bracket <= 0 => return (j, j),
            TokenKind::Punct('{') if paren <= 0 && bracket <= 0 && angle <= 0 => {
                let start = j + 1;
                let mut depth = 1i32;
                let mut k = start;
                while let Some(t2) = tokens.get(k) {
                    if t2.is_punct('{') {
                        depth += 1;
                    } else if t2.is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            return (start, k);
                        }
                    }
                    k += 1;
                }
                return (start, tokens.len());
            }
            _ => {}
        }
        j += 1;
    }
    (tokens.len(), tokens.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_of(src: &str) -> SymbolIndex {
        SymbolIndex::build(vec![SourceFile::parse("crates/x/src/lib.rs", src)])
    }

    #[test]
    fn finds_free_fns_methods_and_trait_impls() {
        let idx = index_of(
            "fn free() { helper(); }\n\
             struct W;\n\
             impl W { fn method(&self) -> u32 { 7 } }\n\
             impl std::fmt::Display for W {\n\
                 fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n\
             }\n",
        );
        let names: Vec<(&str, Option<&str>)> = idx
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.self_ty.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![("free", None), ("method", Some("W")), ("fmt", Some("W"))]
        );
    }

    #[test]
    fn test_region_flags_carry_to_defs() {
        let idx = index_of(
            "fn live() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn gated() { live(); }\n\
             }\n",
        );
        assert!(!idx.fns[0].is_test);
        assert!(
            idx.fns[1].is_test,
            "fn inside #[cfg(test)] mod is test-gated"
        );
    }

    #[test]
    fn body_ranges_cover_the_braces_only() {
        let idx = index_of("fn f(x: u32) -> u32 { x + 1 }\ntrait T { fn decl(&self); }\n");
        let f = &idx.fns[0];
        let (s, e) = f.body;
        assert!(s < e, "fn with a body has a non-empty range");
        let decl = &idx.fns[1];
        assert_eq!(decl.body.0, decl.body.1, "trait declaration has no body");
        assert_eq!(decl.self_ty.as_deref(), Some("T"));
    }

    #[test]
    fn generic_impl_headers_resolve_the_self_type() {
        let idx = index_of(
            "struct Ring<T> { items: Vec<T> }\n\
             impl<T: Clone> Ring<T> where T: Send { fn push(&mut self, t: T) {} }\n",
        );
        assert_eq!(idx.fns[0].self_ty.as_deref(), Some("Ring"));
    }
}
