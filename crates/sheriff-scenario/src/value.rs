//! A minimal self-describing value tree with hand-rolled TOML and JSON
//! readers.
//!
//! The workspace builds offline and depends on no parsing crate, so the
//! scenario engine parses its own input. Only the subset of TOML that scenario files need is
//! supported: comments, `[table]` / `[[array-of-tables]]` headers with
//! dotted paths, `key = value` pairs (bare or quoted keys, dotted
//! paths), strings with escapes, integers, floats, booleans, arrays
//! (single- or multi-line) and inline tables. JSON is full recursive
//! descent minus `null` (a scenario field is either present or absent).
//! Both readers reject a document that nests more than 128 levels deep.

use dcn_sim::SheriffError;
use std::collections::BTreeMap;

/// One node of a parsed scenario document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// An integer (TOML integer / JSON number without fraction).
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An ordered list.
    Array(Vec<Value>),
    /// A key → value table with stable (sorted) key order.
    Table(BTreeMap<String, Value>),
}

/// The deepest a document may nest: the root is level 1, and each table
/// or array below adds one, from a bracket or a key-path segment (an
/// array of tables adds two). Bundled scenarios nest 4 deep; the bound
/// keeps the recursive readers and the tree's drop within the stack.
const MAX_DEPTH: usize = 128;

fn invalid(reason: String) -> SheriffError {
    SheriffError::Invalid { reason }
}

/// The level of a container opened at byte `at` below level `parent`.
fn nest(parent: usize, at: usize) -> Result<usize, SheriffError> {
    if parent >= MAX_DEPTH {
        return Err(invalid(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {at}"
        )));
    }
    Ok(parent + 1)
}

impl Value {
    /// A short name of the variant for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
            Value::Table(_) => "table",
        }
    }

    /// Borrow as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Borrow as a float; integers widen losslessly enough for configs.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Borrow as an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as a table.
    pub fn as_table(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// Look up a key in a table value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_table().and_then(|t| t.get(key))
    }

    /// Parse a document, dispatching on shape: a leading `{` means JSON,
    /// anything else is treated as TOML.
    pub fn parse(src: &str) -> Result<Value, SheriffError> {
        if src.trim_start().starts_with('{') {
            Value::from_json(src)
        } else {
            Value::from_toml(src)
        }
    }

    /// Parse a TOML document (the subset described in the module docs).
    pub fn from_toml(src: &str) -> Result<Value, SheriffError> {
        toml_parse(src)
    }

    /// Parse a JSON document.
    pub fn from_json(src: &str) -> Result<Value, SheriffError> {
        let mut p = Cursor::new(src);
        p.skip_ws();
        let v = p.json_value(0)?;
        p.skip_ws();
        if !p.at_end() {
            return Err(invalid(format!(
                "trailing content after JSON document at byte {}",
                p.pos
            )));
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------- cursor

/// Byte cursor over a document; shared by the JSON reader and the TOML
/// value reader.
struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skip spaces, tabs, newlines *and* `#` comments — TOML's
    /// inter-token whitespace inside multi-line arrays.
    fn skip_ws_and_comments(&mut self) {
        loop {
            self.skip_ws();
            if self.peek() == Some(b'#') {
                while let Some(b) = self.peek() {
                    if b == b'\n' {
                        break;
                    }
                    self.pos += 1;
                }
            } else {
                return;
            }
        }
    }

    /// The byte slice `start..end`, clamped to the document — keeps the
    /// cursor arithmetic free of panicking index ops (PANIC01).
    fn slice(&self, start: usize, end: usize) -> &'a [u8] {
        self.src.get(start..end.min(self.src.len())).unwrap_or(&[])
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), SheriffError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(invalid(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    /// Parse a quoted string starting at the opening `"`.
    fn quoted_string(&mut self) -> Result<String, SheriffError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(invalid("unterminated string".into())),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or_else(|| invalid("bad \\u escape".into()))?;
                            code = code * 16 + d;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| invalid("bad \\u code point".into()))?,
                        );
                    }
                    other => {
                        return Err(invalid(format!(
                            "unsupported escape \\{:?}",
                            other.map(|c| c as char)
                        )))
                    }
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // re-assemble a UTF-8 sequence: back up and decode
                    let start = self.pos - 1;
                    let width = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let chunk = std::str::from_utf8(self.slice(start, start + width))
                        .map_err(|_| invalid("invalid UTF-8 in string".into()))?;
                    let ch = chunk
                        .chars()
                        .next()
                        .ok_or_else(|| invalid("invalid UTF-8 in string".into()))?;
                    out.push(ch);
                    self.pos = start + ch.len_utf8();
                }
            }
        }
    }

    /// Parse a number token (shared by TOML and JSON: optional sign,
    /// digits with `_` separators in TOML, optional fraction/exponent).
    fn number(&mut self) -> Result<Value, SheriffError> {
        let start = self.pos;
        if matches!(self.peek(), Some(b'+' | b'-')) {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'_' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                    if matches!(self.peek(), Some(b'+' | b'-')) {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
        let raw: String = std::str::from_utf8(self.slice(start, self.pos))
            .map_err(|_| invalid("invalid number".into()))?
            .chars()
            .filter(|&c| c != '_')
            .collect();
        if raw.is_empty() || raw == "+" || raw == "-" {
            return Err(invalid(format!("expected a number at byte {start}")));
        }
        if is_float {
            raw.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| invalid(format!("invalid float literal {raw:?}")))
        } else {
            raw.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| invalid(format!("invalid integer literal {raw:?}")))
        }
    }

    // ------------------------------------------------------------- JSON

    /// A JSON value below level `parent` (0 for the document itself).
    fn json_value(&mut self, parent: usize) -> Result<Value, SheriffError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.json_object(nest(parent, self.pos)?),
            Some(b'[') => self.json_array(nest(parent, self.pos)?),
            Some(b'"') => Ok(Value::Str(self.quoted_string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(_) => self.number(),
            None => Err(invalid("unexpected end of JSON document".into())),
        }
    }

    fn keyword(&mut self, word: &str, v: Value) -> Result<Value, SheriffError> {
        if self
            .slice(self.pos, self.src.len())
            .starts_with(word.as_bytes())
        {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(invalid(format!("expected `{word}` at byte {}", self.pos)))
        }
    }

    fn json_object(&mut self, level: usize) -> Result<Value, SheriffError> {
        self.expect_byte(b'{')?;
        let mut table = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Table(table));
        }
        loop {
            self.skip_ws();
            let key = self.quoted_string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            let v = self.json_value(level)?;
            if table.insert(key.clone(), v).is_some() {
                return Err(invalid(format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Table(table)),
                _ => return Err(invalid("expected ',' or '}' in object".into())),
            }
        }
    }

    fn json_array(&mut self, level: usize) -> Result<Value, SheriffError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.json_value(level)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => return Err(invalid("expected ',' or ']' in array".into())),
            }
        }
    }

    // ------------------------------------------------------------- TOML

    /// A TOML value (string, number, bool, array, inline table) below `parent`.
    fn toml_value(&mut self, parent: usize) -> Result<Value, SheriffError> {
        self.skip_ws_and_comments();
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.quoted_string()?)),
            Some(b'[') => {
                let level = nest(parent, self.pos)?;
                self.expect_byte(b'[')?;
                let mut items = Vec::new();
                loop {
                    self.skip_ws_and_comments();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    items.push(self.toml_value(level)?);
                    self.skip_ws_and_comments();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(invalid("expected ',' or ']' in array".into())),
                    }
                }
            }
            Some(b'{') => {
                let level = nest(parent, self.pos)?;
                self.expect_byte(b'{')?;
                let mut table = BTreeMap::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Table(table));
                }
                loop {
                    self.skip_ws();
                    let key = self.toml_key()?;
                    self.skip_ws();
                    self.expect_byte(b'=')?;
                    let v = self.toml_value(level)?;
                    if table.insert(key.clone(), v).is_some() {
                        return Err(invalid(format!("duplicate key {key:?}")));
                    }
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b'}') => return Ok(Value::Table(table)),
                        _ => return Err(invalid("expected ',' or '}' in inline table".into())),
                    }
                }
            }
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(_) => self.number(),
            None => Err(invalid("expected a TOML value".into())),
        }
    }

    /// One key segment: bare (`[A-Za-z0-9_-]+`) or quoted.
    fn toml_key(&mut self) -> Result<String, SheriffError> {
        if self.peek() == Some(b'"') {
            return self.quoted_string();
        }
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(invalid(format!("expected a key at byte {start}")));
        }
        Ok(std::str::from_utf8(self.slice(start, self.pos))
            .map_err(|_| invalid("invalid key".into()))?
            .to_string())
    }

    /// A dotted key path (`a.b."c d"`).
    fn toml_key_path(&mut self) -> Result<Vec<String>, SheriffError> {
        let mut path = vec![self.toml_key()?];
        loop {
            self.skip_ws();
            if self.peek() == Some(b'.') {
                self.pos += 1;
                self.skip_ws();
                path.push(self.toml_key()?);
            } else {
                return Ok(path);
            }
        }
    }
}

/// Walk/create the table at `path` under `root`, descending into the
/// *last element* of any array-of-tables met on the way (TOML's rule).
/// Returns the table and its level. A path past [`MAX_DEPTH`] is an error
/// naming byte `at`, its statement's start; no table past the bound is made.
fn descend<'t>(
    root: &'t mut BTreeMap<String, Value>,
    path: &[String],
    at: usize,
) -> Result<(&'t mut BTreeMap<String, Value>, usize), SheriffError> {
    let mut cur = root;
    let mut level = 1;
    for seg in path {
        level = nest(level, at)?;
        let entry = cur
            .entry(seg.clone())
            .or_insert_with(|| Value::Table(BTreeMap::new()));
        cur = match entry {
            Value::Table(t) => t,
            Value::Array(a) => match a.last_mut() {
                Some(Value::Table(t)) => {
                    level = nest(level, at)?;
                    t
                }
                _ => return Err(invalid(format!("key {seg:?} is not a table"))),
            },
            other => {
                return Err(invalid(format!(
                    "key {seg:?} already holds a {}",
                    other.type_name()
                )))
            }
        };
    }
    Ok((cur, level))
}

fn toml_parse(src: &str) -> Result<Value, SheriffError> {
    let mut root: BTreeMap<String, Value> = BTreeMap::new();
    // path of the currently open [table] / [[array-of-tables]] header
    let mut open: Vec<String> = Vec::new();

    let mut cursor = Cursor::new(src);
    loop {
        cursor.skip_ws_and_comments();
        if cursor.at_end() {
            break;
        }
        let at = cursor.pos;
        if cursor.peek() == Some(b'[') {
            cursor.pos += 1;
            let is_array = cursor.peek() == Some(b'[');
            if is_array {
                cursor.pos += 1;
            }
            cursor.skip_ws();
            let path = cursor.toml_key_path()?;
            cursor.skip_ws();
            cursor.expect_byte(b']')?;
            if is_array {
                cursor.expect_byte(b']')?;
                let Some((leaf, parents)) = path.split_last() else {
                    return Err(invalid("empty key path".to_string()));
                };
                let (parent, level) = descend(&mut root, parents, at)?;
                nest(nest(level, at)?, at)?; // the array and its new table
                let slot = parent
                    .entry(leaf.clone())
                    .or_insert_with(|| Value::Array(Vec::new()));
                match slot {
                    Value::Array(a) => a.push(Value::Table(BTreeMap::new())),
                    other => {
                        return Err(invalid(format!(
                            "[[{leaf}]] conflicts with existing {}",
                            other.type_name()
                        )))
                    }
                }
            } else {
                // materialise the table so empty sections still exist
                descend(&mut root, &path, at)?;
            }
            open = path;
            continue;
        }
        // key = value
        let path = cursor.toml_key_path()?;
        cursor.skip_ws();
        cursor.expect_byte(b'=')?;
        let Some((leaf, parents)) = path.split_last() else {
            return Err(invalid("empty key path".to_string()));
        };
        let mut full = open.clone();
        full.extend_from_slice(parents);
        let (table, level) = descend(&mut root, &full, at)?;
        let value = cursor.toml_value(level)?;
        if table.insert(leaf.clone(), value).is_some() {
            return Err(invalid(format!("duplicate key {leaf:?}")));
        }
    }
    Ok(Value::Table(root))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_sections() {
        let v = Value::from_toml(
            r#"
            # a comment
            name = "fig9"
            rounds = 24
            fraction = 0.05
            enabled = true

            [cluster]
            vms_per_host = 2.5
            seed-less = "yes"
            "#,
        )
        .unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("fig9"));
        assert_eq!(v.get("rounds").unwrap().as_i64(), Some(24));
        assert_eq!(v.get("fraction").unwrap().as_f64(), Some(0.05));
        assert_eq!(v.get("enabled"), Some(&Value::Bool(true)));
        let cluster = v.get("cluster").unwrap();
        assert_eq!(cluster.get("vms_per_host").unwrap().as_f64(), Some(2.5));
        assert_eq!(cluster.get("seed-less").unwrap().as_str(), Some("yes"));
    }

    #[test]
    fn parses_arrays_inline_tables_and_multiline() {
        let v = Value::from_toml(
            r#"
            seeds = [1, 2, 3]
            pair = { a = 1, b = "x" }
            grid = [
                [1, 2],  # inner comment
                [3, 4],
            ]
            "#,
        )
        .unwrap();
        let seeds: Vec<i64> = v
            .get("seeds")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_i64().unwrap())
            .collect();
        assert_eq!(seeds, vec![1, 2, 3]);
        assert_eq!(v.get("pair").unwrap().get("a").unwrap().as_i64(), Some(1));
        let grid = v.get("grid").unwrap().as_array().unwrap();
        assert_eq!(grid.len(), 2);
        assert_eq!(grid[1].as_array().unwrap()[0].as_i64(), Some(3));
    }

    #[test]
    fn parses_array_of_tables() {
        let v = Value::from_toml(
            r#"
            [[fault]]
            round = 3
            action = "fail_link"

            [[fault]]
            round = 7
            action = "restore_link"

            [fault_meta]
            note = "two faults"
            "#,
        )
        .unwrap();
        let faults = v.get("fault").unwrap().as_array().unwrap();
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[0].get("round").unwrap().as_i64(), Some(3));
        assert_eq!(
            faults[1].get("action").unwrap().as_str(),
            Some("restore_link")
        );
        assert!(v.get("fault_meta").is_some());
    }

    #[test]
    fn nested_array_of_tables_descends_into_last() {
        let v = Value::from_toml(
            r#"
            [[workload.surge]]
            start = 5
            [[workload.surge]]
            start = 9
            factor = 1.5
            "#,
        )
        .unwrap();
        let surges = v
            .get("workload")
            .unwrap()
            .get("surge")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(surges.len(), 2);
        assert_eq!(surges[1].get("factor").unwrap().as_f64(), Some(1.5));
    }

    #[test]
    fn dotted_keys_and_subtable_headers() {
        let v = Value::from_toml(
            r#"
            [sim]
            alert_threshold = 0.9
            channel.drop = 0.1

            [sim.channel]
            delay_max = 3
            "#,
        )
        .unwrap();
        let ch = v.get("sim").unwrap().get("channel").unwrap();
        assert_eq!(ch.get("drop").unwrap().as_f64(), Some(0.1));
        assert_eq!(ch.get("delay_max").unwrap().as_i64(), Some(3));
    }

    #[test]
    fn rejects_duplicates_and_garbage() {
        assert!(Value::from_toml("a = 1\na = 2").is_err());
        assert!(Value::from_toml("a = ").is_err());
        assert!(Value::from_toml("= 3").is_err());
        assert!(Value::from_toml("a = [1, 2").is_err());
    }

    #[test]
    fn negative_numbers_and_underscores() {
        let v = Value::from_toml("a = -3\nb = 1_000\nc = -0.5\nd = 1e3").unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(-3));
        assert_eq!(v.get("b").unwrap().as_i64(), Some(1000));
        assert_eq!(v.get("c").unwrap().as_f64(), Some(-0.5));
        assert_eq!(v.get("d").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn json_documents_roundtrip_the_same_tree() {
        let toml = Value::from_toml(
            r#"
            name = "x"
            rounds = 2
            [runtime]
            kind = "distributed"
            "#,
        )
        .unwrap();
        let json =
            Value::parse(r#"{"name": "x", "rounds": 2, "runtime": {"kind": "distributed"}}"#)
                .unwrap();
        assert_eq!(toml, json);
    }

    #[test]
    fn json_arrays_nested() {
        let v =
            Value::from_json(r#"{"rows": [[0, 1.5], [1, -2e1]], "ok": [true, false]}"#).unwrap();
        let rows = v.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[1].as_array().unwrap()[1].as_f64(), Some(-20.0));
        assert_eq!(v.get("ok").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn json_string_escapes() {
        let v = Value::from_json(r#"{"s": "a\"b\ncA"}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\ncA"));
    }

    #[test]
    fn json_rejects_trailing_garbage() {
        assert!(Value::from_json(r#"{"a": 1} extra"#).is_err());
        assert!(Value::from_json(r#"{"a": }"#).is_err());
    }

    #[test]
    fn nesting_past_the_depth_limit_is_an_error_not_a_stack_overflow() {
        let n = 100_000;
        let key_path = vec!["a"; n].join(".");
        // (document, byte the error names): JSON arrays, TOML arrays,
        // TOML inline tables, a dotted header and a dotted key
        let shapes = [
            (format!("{{\"a\": {}", "[".repeat(n)), 6 + 127),
            (format!("a = {}", "[".repeat(n)), 4 + 127),
            (format!("a = {}", "{b = ".repeat(n)), 4 + 127 * 5),
            (format!("[{key_path}]"), 0),
            (format!("{key_path} = 1"), 0),
        ];
        for (src, at) in &shapes {
            let want = format!("nesting deeper than {MAX_DEPTH} levels at byte {at}");
            let err = Value::parse(src).unwrap_err().to_string();
            assert!(err.contains(&want), "{err}");
            let err = crate::ScenarioSpec::parse_str(src).unwrap_err().to_string();
            assert!(err.contains(&want), "{err}");
        }
        // the root is level 1, so 127 brackets reach the limit exactly
        let deepest = format!("a = {}{}", "[".repeat(127), "]".repeat(127));
        assert!(Value::parse(&deepest).is_ok());
        let deepest_path = format!("[{}]", vec!["a"; 127].join("."));
        assert!(Value::parse(&deepest_path).is_ok());
        // an array of tables takes two levels
        assert!(Value::parse(&format!("[[{}]]", vec!["a"; 126].join("."))).is_ok());
        assert!(Value::parse(&format!("[[{}]]", vec!["a"; 127].join("."))).is_err());
    }

    #[test]
    fn unicode_in_toml_strings() {
        let v = Value::from_toml("title = \"Sheriff — ICPP'15 ✓\"").unwrap();
        assert_eq!(
            v.get("title").unwrap().as_str(),
            Some("Sheriff — ICPP'15 ✓")
        );
    }
}
