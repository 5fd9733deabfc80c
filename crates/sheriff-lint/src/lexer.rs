//! A hand-rolled Rust lexer, in the spirit of the TOML reader in
//! `sheriff-scenario/src/value.rs`: enough tokenization to drive the rule
//! engine, nothing more. Comments and literals are recognised (so rules
//! never fire on text inside strings or docs), idents and punctuation
//! carry `line:col` positions, and line comments are returned separately
//! for pragma scanning.

/// One lexical token of a Rust source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword.
    Ident(String),
    /// A single punctuation character (`::` arrives as two `:`).
    Punct(char),
    /// A string/char/byte/numeric literal or a lifetime, with its raw
    /// text.
    Literal(String),
}

/// A token plus its 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }

    /// Whether this token is the given identifier.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, TokenKind::Ident(i) if i == s)
    }
}

/// A `//` line comment (doc comments included), captured for pragma
/// scanning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Text after the leading `//`, untrimmed.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based byte column of the first `/`.
    pub col: u32,
}

/// The lexed form of one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens, comments stripped.
    pub tokens: Vec<Token>,
    /// Line comments, for pragma scanning.
    pub comments: Vec<Comment>,
}

struct Scanner<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Scanner<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    /// Raw text between two byte offsets, clamped (never panics).
    fn text(&self, start: usize, end: usize) -> String {
        let bytes = self.src.get(start..end.min(self.src.len())).unwrap_or(&[]);
        String::from_utf8_lossy(bytes).into_owned()
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Tokenize one Rust source file. The lexer is total: any byte sequence
/// produces *some* token stream, so the linter never aborts on exotic
/// syntax — worst case a rule sees slightly garbled punctuation.
pub fn lex(src: &str) -> Lexed {
    let mut s = Scanner {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();

    while let Some(b) = s.peek() {
        let (line, col, start) = (s.line, s.col, s.pos);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                s.bump();
            }
            b'/' if s.peek_at(1) == Some(b'/') => {
                s.bump();
                s.bump();
                let text_start = s.pos;
                while let Some(c) = s.peek() {
                    if c == b'\n' {
                        break;
                    }
                    s.bump();
                }
                out.comments.push(Comment {
                    text: s.text(text_start, s.pos),
                    line,
                    col,
                });
            }
            b'/' if s.peek_at(1) == Some(b'*') => {
                s.bump();
                s.bump();
                let mut depth = 1u32;
                while depth > 0 {
                    match (s.peek(), s.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            s.bump();
                            s.bump();
                            depth += 1;
                        }
                        (Some(b'*'), Some(b'/')) => {
                            s.bump();
                            s.bump();
                            depth -= 1;
                        }
                        (Some(_), _) => {
                            s.bump();
                        }
                        (None, _) => break,
                    }
                }
            }
            b'"' => {
                lex_string(&mut s);
                out.tokens.push(Token {
                    kind: TokenKind::Literal(s.text(start, s.pos)),
                    line,
                    col,
                });
            }
            b'\'' => {
                lex_quote(&mut s);
                out.tokens.push(Token {
                    kind: TokenKind::Literal(s.text(start, s.pos)),
                    line,
                    col,
                });
            }
            b'0'..=b'9' => {
                lex_number(&mut s);
                out.tokens.push(Token {
                    kind: TokenKind::Literal(s.text(start, s.pos)),
                    line,
                    col,
                });
            }
            _ if is_ident_start(b) => {
                if let Some(kind) = lex_prefixed_literal(&mut s) {
                    out.tokens.push(Token { kind, line, col });
                } else {
                    while let Some(c) = s.peek() {
                        if is_ident_continue(c) {
                            s.bump();
                        } else {
                            break;
                        }
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Ident(s.text(start, s.pos)),
                        line,
                        col,
                    });
                }
            }
            _ => {
                s.bump();
                out.tokens.push(Token {
                    kind: TokenKind::Punct(b as char),
                    line,
                    col,
                });
            }
        }
    }
    out
}

/// A string body starting at the opening `"`; handles `\"` escapes.
fn lex_string(s: &mut Scanner<'_>) {
    s.bump(); // opening quote
    while let Some(c) = s.bump() {
        match c {
            b'\\' => {
                s.bump();
            }
            b'"' => return,
            _ => {}
        }
    }
}

/// A raw string starting at `r` / the first `#`: `r"…"`, `r#"…"#`, …
fn lex_raw_string(s: &mut Scanner<'_>) {
    let mut hashes = 0usize;
    while s.peek() == Some(b'#') {
        s.bump();
        hashes += 1;
    }
    if s.peek() != Some(b'"') {
        return; // not actually a raw string; idents were consumed already
    }
    s.bump();
    loop {
        match s.bump() {
            None => return,
            Some(b'"') => {
                let mut seen = 0usize;
                while seen < hashes && s.peek() == Some(b'#') {
                    s.bump();
                    seen += 1;
                }
                if seen == hashes {
                    return;
                }
            }
            Some(_) => {}
        }
    }
}

/// After a `'`: either a lifetime (`'a`, `'static`) or a char literal
/// (`'x'`, `'\n'`, `'\''`). Both are emitted as [`TokenKind::Literal`].
fn lex_quote(s: &mut Scanner<'_>) {
    s.bump(); // the quote
    match (s.peek(), s.peek_at(1)) {
        // `'a` not followed by a closing quote is a lifetime
        (Some(c), next) if is_ident_start(c) && next != Some(b'\'') => {
            while let Some(c) = s.peek() {
                if is_ident_continue(c) {
                    s.bump();
                } else {
                    break;
                }
            }
        }
        _ => {
            // char literal: consume an optional escape, then to the quote
            if s.peek() == Some(b'\\') {
                s.bump();
                s.bump();
            } else {
                s.bump();
            }
            while let Some(c) = s.peek() {
                s.bump();
                if c == b'\'' {
                    break;
                }
            }
        }
    }
}

/// A numeric literal: integers, floats, hex/oct/bin, `_` separators,
/// exponents and type suffixes. Over-consumption is impossible for valid
/// Rust because `1.method()` keeps the dot (next byte is not a digit).
fn lex_number(s: &mut Scanner<'_>) {
    while let Some(c) = s.peek() {
        if c.is_ascii_alphanumeric() || c == b'_' {
            s.bump();
        } else {
            break;
        }
    }
    if s.peek() == Some(b'.') && s.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
        s.bump();
        while let Some(c) = s.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                s.bump();
            } else {
                break;
            }
        }
    }
    // `1e-3` / `2.5E+7`: the exponent sign follows a trailing e/E
    if s.pos > 0
        && matches!(s.src.get(s.pos - 1), Some(b'e' | b'E'))
        && matches!(s.peek(), Some(b'+' | b'-'))
    {
        s.bump();
        while let Some(c) = s.peek() {
            if c.is_ascii_digit() || c == b'_' {
                s.bump();
            } else {
                break;
            }
        }
    }
}

/// `r"…"`, `r#"…"#`, `b"…"`, `b'…'`, `br#"…"#` and friends. Returns the
/// literal token if the upcoming bytes are a prefixed literal, otherwise
/// consumes nothing.
fn lex_prefixed_literal(s: &mut Scanner<'_>) -> Option<TokenKind> {
    let start = s.pos;
    let (line0, col0, pos0) = (s.line, s.col, s.pos);
    let mut prefix = String::new();
    while let Some(c) = s.peek() {
        if prefix.len() < 2 && c.is_ascii_alphabetic() {
            prefix.push(c as char);
            s.bump();
        } else {
            break;
        }
    }
    let is_raw = matches!(prefix.as_str(), "r" | "br" | "cr");
    let is_plain = matches!(prefix.as_str(), "b" | "c");
    let next = s.peek();
    if is_raw && (next == Some(b'"') || next == Some(b'#')) {
        lex_raw_string(s);
        return Some(TokenKind::Literal(s.text(start, s.pos)));
    }
    if is_plain && next == Some(b'"') {
        lex_string(s);
        return Some(TokenKind::Literal(s.text(start, s.pos)));
    }
    if prefix == "b" && next == Some(b'\'') {
        lex_quote(s);
        return Some(TokenKind::Literal(s.text(start, s.pos)));
    }
    // not a literal prefix: rewind and let the ident path take over
    s.pos = pos0;
    s.line = line0;
    s.col = col0;
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_their_contents() {
        let lexed = lex("let x = \"SystemTime::now()\"; // Instant::now\n/* thread_rng */");
        assert!(lexed.tokens.iter().all(|t| !t.is_ident("SystemTime")));
        assert!(lexed.tokens.iter().all(|t| !t.is_ident("Instant")));
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed
            .comments
            .first()
            .is_some_and(|c| c.text.contains("Instant::now")));
    }

    #[test]
    fn raw_strings_and_chars_are_opaque() {
        let src = "let s = r#\"unwrap() \"quoted\" \"#; let c = '\\''; let b = b'x';";
        assert_eq!(idents(src), vec!["let", "s", "let", "c", "let", "b"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let names = idents(src);
        assert!(names.contains(&"str".to_string()));
        // `'a` must not swallow `>(x: ...` as a char body
        assert!(names.contains(&"x".to_string()));
    }

    #[test]
    fn positions_are_one_based() {
        let lexed = lex("a\n  bb");
        assert_eq!(lexed.tokens.first().map(|t| (t.line, t.col)), Some((1, 1)));
        assert_eq!(lexed.tokens.get(1).map(|t| (t.line, t.col)), Some((2, 3)));
    }

    #[test]
    fn numbers_including_exponents_lex_as_single_literals() {
        let lexed = lex("let x = 1.5e-3 + 0xff_u32 + 2;");
        let lits: Vec<_> = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Literal(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(lits, vec!["1.5e-3", "0xff_u32", "2"]);
    }

    #[test]
    fn range_dots_stay_punctuation() {
        let lexed = lex("for i in 0..10 {}");
        let dots = lexed.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2);
    }
}
