//! A minimal, dependency-free JSON tree ([`JsonValue`]): parser,
//! pretty-printer, and the one field reader ([`Fields`]) that scenario
//! files, `tdc serve` frames and technology packs are read through.
//!
//! The workspace's `serde` dependency is an offline stand-in whose
//! derives expand to nothing (see `vendor/serde`), so scenario files
//! and reports go through this hand-rolled layer instead. It covers
//! the full JSON grammar (RFC 8259) with two deliberate properties:
//!
//! * **objects preserve insertion order** (reports render in a stable,
//!   human-chosen order), and
//! * **rendering is deterministic** — the same tree always produces
//!   the same bytes, which is what lets a parallel sweep's report be
//!   byte-identical to a serial one.
//!
//! Arrays and objects may nest at most [`MAX_DEPTH`] levels deep: the
//! parser, the renderers and `Drop` all recurse once per level, so
//! deeper input is rejected with a positioned error instead of
//! overflowing the stack of whichever thread parses it.
//!
//! A [`Fields`] reader answers a wrong type, a missing required field
//! or an unknown key with a [`FieldError`] naming the field's path
//! (`design.dies[0].node_nm`). Paths are [`FieldPath`] chains on the
//! stack and render to text only when an error names them, so a
//! document that reads cleanly formats no path at all.

use std::collections::HashSet;
use std::fmt;

/// The deepest array/object nesting [`JsonValue::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, like JavaScript).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in insertion order.
    Object(Vec<(String, JsonValue)>),
}

/// Parse failure with 1-based line/column position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column of the offending byte.
    pub column: usize,
    /// What went wrong, without quoting the input.
    pub message: String,
    /// The input the message is about (an unexpected character, a
    /// malformed number, a repeated key), quoted after it on display.
    pub found: Option<String>,
}

impl JsonError {
    /// The same error without its quoted input: what a caller reports
    /// about a file it read, so no byte of the file is echoed back.
    #[must_use]
    pub fn without_input(self) -> Self {
        Self {
            found: None,
            ..self
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON error at line {}, column {}: {}",
            self.line, self.column, self.message
        )?;
        match &self.found {
            Some(found) => write!(f, " `{found}`"),
            None => Ok(()),
        }
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses a JSON document (the whole input must be one value).
    ///
    /// # Errors
    ///
    /// Returns a positioned [`JsonError`] on malformed input.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_whitespace();
        let value = p.parse_value()?;
        p.skip_whitespace();
        if p.pos != text.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Object field lookup (None for non-objects and missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object fields, if it is one.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// A short name of the value's type, for error messages.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "boolean",
            JsonValue::Number(_) => "number",
            JsonValue::String(_) => "string",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }

    /// Renders the tree as pretty-printed JSON (2-space indent,
    /// trailing newline) — deterministic byte-for-byte.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the tree as single-line JSON with no insignificant
    /// whitespace and no trailing newline — the framing the `tdc
    /// serve` JSONL protocol needs. Deterministic byte-for-byte, like
    /// [`render`](Self::render).
    #[must_use]
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => write_number(out, *n),
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => write_number(out, *n),
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Writes a finite number in Rust's shortest round-trip form
/// (non-finite values have no JSON spelling and render as `null`).
fn write_number(out: &mut String, n: f64) {
    use fmt::Write as _;
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        #[allow(clippy::cast_possible_truncation)]
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    use fmt::Write as _;
    out.push('"');
    // Each run of characters that need no escape is copied in one
    // step. Every escaped character is ASCII, so a run ends on a
    // character boundary.
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            control => {
                let _ = write!(out, "\\u{control:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A field that could not be read: the dotted path naming it (empty
/// for the whole document) and what is wrong with it. Each input
/// surface words it its own way (a scenario schema error, a pack
/// error, a `tdc serve` error frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    /// Where the field sits, e.g. `design.dies[0].node_nm`.
    pub path: String,
    /// What is wrong with it.
    pub message: String,
}

/// Where a value sits in its document, as a chain of borrowed links
/// that renders (`sweep.nodes_nm[3]`) only when an error needs it.
#[derive(Debug, Clone, Copy)]
pub enum FieldPath<'p> {
    /// The document itself; renders as the empty string.
    Root,
    /// A field of the object at the parent path.
    Key(&'p FieldPath<'p>, &'p str),
    /// An element of the array at the parent path.
    Index(&'p FieldPath<'p>, usize),
}

impl FieldPath<'_> {
    /// An error about the value at this path.
    #[must_use]
    pub fn error(&self, message: impl Into<String>) -> FieldError {
        FieldError {
            path: self.to_string(),
            message: message.into(),
        }
    }
}

impl fmt::Display for FieldPath<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldPath::Root => Ok(()),
            FieldPath::Key(FieldPath::Root, key) => f.write_str(key),
            FieldPath::Key(parent, key) => write!(f, "{parent}.{key}"),
            FieldPath::Index(parent, index) => write!(f, "{parent}[{index}]"),
        }
    }
}

/// A JSON object read field by field. Every reader returns `Ok(None)`
/// for an absent field, and an `expected <type>, got <type>` error at
/// the field's path for a value of the wrong type.
#[derive(Debug, Clone, Copy)]
pub struct Fields<'a> {
    entries: &'a [(String, JsonValue)],
    path: FieldPath<'a>,
}

impl<'a> Fields<'a> {
    /// Reads `value`, found at `path`, as an object.
    ///
    /// # Errors
    ///
    /// `expected an object, got …` at `path` for any other value.
    pub fn new(value: &'a JsonValue, path: FieldPath<'a>) -> Result<Self, FieldError> {
        match value {
            JsonValue::Object(entries) => Ok(Self { entries, path }),
            other => Err(path.error(format!("expected an object, got {}", other.type_name()))),
        }
    }

    /// The path of field `key`.
    #[must_use]
    pub fn child<'s>(&'s self, key: &'s str) -> FieldPath<'s> {
        FieldPath::Key(&self.path, key)
    }

    /// An error about the object itself.
    #[must_use]
    pub fn error(&self, message: impl Into<String>) -> FieldError {
        self.path.error(message)
    }

    /// The raw value of field `key`, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&'a JsonValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn typed<T>(
        &self,
        key: &str,
        read: fn(&'a JsonValue) -> Option<T>,
        expected: &str,
    ) -> Result<Option<T>, FieldError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => read(v).map(Some).ok_or_else(|| {
                self.child(key)
                    .error(format!("expected {expected}, got {}", v.type_name()))
            }),
        }
    }

    /// Field `key` as a number.
    pub fn number(&self, key: &str) -> Result<Option<f64>, FieldError> {
        self.typed(key, JsonValue::as_f64, "a number")
    }

    /// Field `key` as a string.
    pub fn string(&self, key: &str) -> Result<Option<&'a str>, FieldError> {
        self.typed(key, JsonValue::as_str, "a string")
    }

    /// Field `key` as a boolean.
    pub fn boolean(&self, key: &str) -> Result<Option<bool>, FieldError> {
        self.typed(key, JsonValue::as_bool, "a boolean")
    }

    fn array(&self, key: &str) -> Result<Option<&'a [JsonValue]>, FieldError> {
        self.typed(key, JsonValue::as_array, "an array")
    }

    /// Field `key` as an object, read through its own [`Fields`].
    pub fn object<'s>(&'s self, key: &'s str) -> Result<Option<Fields<'s>>, FieldError> {
        self.get(key)
            .map(|value| Fields::new(value, self.child(key)))
            .transpose()
    }

    /// What `read` (e.g. [`Fields::number`]) returns for field `key`,
    /// which must be present.
    ///
    /// # Errors
    ///
    /// `read`'s error, or `required field is missing` at `key`.
    pub fn required<T>(
        &self,
        key: &str,
        read: impl FnOnce(&Self, &str) -> Result<Option<T>, FieldError>,
    ) -> Result<T, FieldError> {
        read(self, key)?.ok_or_else(|| self.child(key).error("required field is missing"))
    }

    /// Reads the array at `key` element by element: `read` gets each
    /// element with its path, which renders only if an error names it.
    ///
    /// # Errors
    ///
    /// `expected an array, got …`, or the first error `read` returns.
    pub fn items<T>(
        &self,
        key: &str,
        mut read: impl FnMut(&'a JsonValue, FieldPath<'_>) -> Result<T, FieldError>,
    ) -> Result<Option<Vec<T>>, FieldError> {
        let Some(values) = self.array(key)? else {
            return Ok(None);
        };
        let path = self.child(key);
        values
            .iter()
            .enumerate()
            .map(|(index, value)| read(value, FieldPath::Index(&path, index)))
            .collect::<Result<_, _>>()
            .map(Some)
    }

    /// Visits every field in document order with its path.
    ///
    /// # Errors
    ///
    /// The first error `visit` returns.
    pub fn each(
        &self,
        mut visit: impl FnMut(&'a str, &'a JsonValue, FieldPath<'_>) -> Result<(), FieldError>,
    ) -> Result<(), FieldError> {
        self.entries
            .iter()
            .try_for_each(|(key, value)| visit(key, value, self.child(key)))
    }

    /// Rejects keys outside `allowed`: a typo in an optional field
    /// would otherwise be silently ignored.
    ///
    /// # Errors
    ///
    /// `unknown field (expected one of: …)` at the first such key.
    pub fn deny_unknown(&self, allowed: &[&str]) -> Result<(), FieldError> {
        match self
            .entries
            .iter()
            .find(|(key, _)| !allowed.contains(&key.as_str()))
        {
            None => Ok(()),
            Some((key, _)) => Err(self.child(key).error(format!(
                "unknown field (expected one of: {})",
                allowed.join(", ")
            ))),
        }
    }
}

/// Reads one model parameter — a number, or a boolean as `0`/`1` — the
/// form of a `context.power_model` field and of a pack entry's
/// `params`.
///
/// # Errors
///
/// `expected a number or boolean, got …` at `path` for any other value.
pub fn param(value: &JsonValue, path: FieldPath<'_>) -> Result<f64, FieldError> {
    match value {
        JsonValue::Number(n) => Ok(*n),
        JsonValue::Bool(b) => Ok(f64::from(*b)),
        other => Err(path.error(format!(
            "expected a number or boolean, got {}",
            other.type_name()
        ))),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn error(&self, message: impl Into<String>) -> JsonError {
        self.error_at(message, None)
    }

    /// An error about the input `found`, quoted on display.
    fn error_at(&self, message: impl Into<String>, found: Option<String>) -> JsonError {
        let mut line = 1;
        let mut column = 1;
        for &b in &self.bytes()[..self.pos.min(self.text.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        JsonError {
            line,
            column,
            message: message.into(),
            found,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(self.error_at("unexpected character", Some((c as char).to_string()))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to open
    /// a level beyond [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.error_at("invalid number", Some(text.to_owned())))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.parse_hex4()?;
                            // Surrogate pairs for astral-plane chars.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if !(self.peek() == Some(b'\\')
                                    && self.bytes().get(self.pos + 1) == Some(&b'u'))
                                {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let low = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.error("invalid unicode escape"))?);
                            continue; // parse_hex4 advanced pos already
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of bytes up to the next `"` or `\` in
                    // one step. Both are ASCII, so the run ends on a
                    // character boundary of the `&str` input.
                    let rest = &self.bytes()[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let Some(slice) = self.bytes().get(self.pos..end) else {
            return Err(self.error("truncated \\u escape"));
        };
        let text = std::str::from_utf8(slice).map_err(|_| self.error("invalid \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        // The keys read so far, so a repeated one is found in constant
        // time however many keys the object has.
        let mut keys: HashSet<String> = HashSet::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            if !keys.insert(key.clone()) {
                return Err(self.error_at("duplicate key", Some(key)));
            }
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_document() {
        let text = r#"{"a": 1, "b": [true, null, "x\ny"], "c": {"d": 2.5e3}}"#;
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("b").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(2500.0));
        // Rendering then re-parsing is the identity.
        let rendered = v.render();
        assert_eq!(JsonValue::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn compact_rendering_is_single_line_and_round_trips() {
        let v = JsonValue::parse(r#"{"a": 1, "b": [true, null, "x\ny"], "c": {}}"#).unwrap();
        let compact = v.render_compact();
        assert_eq!(compact, r#"{"a":1,"b":[true,null,"x\ny"],"c":{}}"#);
        assert!(!compact.contains('\n'), "escapes keep the line unbroken");
        assert_eq!(JsonValue::parse(&compact).unwrap(), v);
    }

    #[test]
    fn rendering_is_deterministic_and_ordered() {
        let v = JsonValue::Object(vec![
            ("z".to_owned(), JsonValue::Number(1.0)),
            ("a".to_owned(), JsonValue::Number(0.1)),
        ]);
        let r = v.render();
        assert_eq!(r, "{\n  \"z\": 1,\n  \"a\": 0.1\n}\n");
        assert_eq!(v.render(), r);
    }

    #[test]
    fn integers_render_without_decimal_point() {
        let mut s = String::new();
        write_number(&mut s, 17.0e9);
        assert_eq!(s, "17000000000");
        s.clear();
        write_number(&mut s, 0.15);
        assert_eq!(s, "0.15");
        s.clear();
        write_number(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn errors_carry_positions() {
        let err = JsonValue::parse("{\n  \"a\": tru\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("true"));
        assert!(JsonValue::parse("[1, 2").is_err());
        assert!(JsonValue::parse("{} extra").is_err());
        let err = JsonValue::parse(r#"{"k": 1, "k": 2}"#).unwrap_err();
        assert!(err.to_string().ends_with(": duplicate key `k`"), "{err}");
        let err = err.without_input();
        assert!(err.to_string().ends_with(": duplicate key"), "{err}");
    }

    #[test]
    fn nesting_is_capped_with_a_position() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&at_cap).is_ok());
        let err = JsonValue::parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!((err.line, err.column), (1, MAX_DEPTH + 1));
        assert!(err.message.contains("nesting"), "{err}");
        let objects = format!("{}1", r#"{"a": "#.repeat(MAX_DEPTH + 1));
        let err = JsonValue::parse(&objects).unwrap_err();
        assert_eq!(err.column, 6 * MAX_DEPTH + 1, "{err}");
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = JsonValue::parse(r#""Aé 😀 \t\"\\""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé 😀 \t\"\\"));
        let rendered = JsonValue::String(v.as_str().unwrap().to_owned()).render();
        assert_eq!(JsonValue::parse(&rendered).unwrap(), v);
    }

    /// A `\u` escape of the four hex digits `hex`.
    fn esc(hex: &str) -> String {
        format!("\\u{hex}")
    }

    #[test]
    fn strings_parse_to_the_same_values() {
        let long = "é".repeat(5_000) + "\\n" + &"x".repeat(5_000);
        let cases = [
            (
                r#""a\"b\\c\/d\b\f\n\r\t""#.to_owned(),
                "a\"b\\c/d\u{8}\u{c}\n\r\t".to_owned(),
            ),
            (format!("\"é中{}\"", esc("0000")), "é中\u{0}".to_owned()),
            (
                format!(
                    "\"{}{} {}{}\"",
                    esc("d83d"),
                    esc("de00"),
                    esc("d834"),
                    esc("dd1e")
                ),
                "\u{1f600} \u{1d11e}".to_owned(),
            ),
            ("\"Aé中\u{1f600}\"".to_owned(), "Aé中\u{1f600}".to_owned()),
            (
                "\"a\u{1}b\tc\nd\u{7f}\"".to_owned(),
                "a\u{1}b\tc\nd\u{7f}".to_owned(),
            ),
            (
                format!("\"{long}\""),
                "é".repeat(5_000) + "\n" + &"x".repeat(5_000),
            ),
            ("\"\"".to_owned(), String::new()),
        ];
        for (text, value) in cases {
            assert_eq!(
                JsonValue::parse(&text),
                Ok(JsonValue::String(value)),
                "{text}"
            );
        }
    }

    #[test]
    fn malformed_strings_and_repeated_keys_keep_their_errors() {
        let error = |text: &str| {
            let e = JsonValue::parse(text).unwrap_err();
            (e.line, e.column, e.message, e.found)
        };
        let cases = [
            ("\"abc".to_owned(), 1, 5, "unterminated string"),
            ("\"é\n中".to_owned(), 2, 4, "unterminated string"),
            (r#""\x""#.to_owned(), 1, 3, "invalid escape sequence"),
            ("\"ab\\".to_owned(), 1, 5, "invalid escape sequence"),
            (format!("\"{}", esc("12")), 1, 4, "truncated \\u escape"),
            (format!("\"{}\"", esc("00zz")), 1, 4, "invalid \\u escape"),
            (format!("\"{}\"", esc("00é")), 1, 4, "invalid \\u escape"),
            (format!("\"{}\"", esc("d83d")), 1, 8, "unpaired surrogate"),
            (
                format!("\"{}{}\"", esc("d83d"), esc("0041")),
                1,
                14,
                "invalid low surrogate",
            ),
            (
                format!("\"{}\"", esc("dc00")),
                1,
                8,
                "invalid unicode escape",
            ),
        ];
        for (text, line, column, message) in cases {
            assert_eq!(
                error(&text),
                (line, column, message.to_owned(), None),
                "{text}"
            );
        }
        let duplicate = |key: &str| Some(key.to_owned());
        assert_eq!(
            error(r#"{"a": 1, "b": 2, "a": 3}"#),
            (1, 21, "duplicate key".to_owned(), duplicate("a"))
        );
        assert_eq!(
            error(&format!("{{\"a\": 1, \"b\": 2, \"{}\": 3}}", esc("0061"))),
            (1, 26, "duplicate key".to_owned(), duplicate("a"))
        );
        // A 40-key object, one key per line, the 40th repeating an
        // earlier one, and a value that would fail after it.
        let keys: Vec<String> = (0..39).map(|i| format!("\"k{i}\": {i}")).collect();
        for (repeated, found) in [
            ("k3".to_owned(), "k3"),
            ("k30".to_owned(), "k30"),
            (esc("006b") + "38", "k38"),
        ] {
            let text = format!("{{{},\n\"{repeated}\": tru}}", keys.join(",\n"));
            assert_eq!(
                error(&text),
                (
                    40,
                    repeated.len() + 3,
                    "duplicate key".to_owned(),
                    duplicate(found)
                ),
                "{repeated}"
            );
        }
        let distinct = JsonValue::parse(&format!("{{{}}}", keys.join(","))).unwrap();
        let fields = distinct.as_object().unwrap();
        assert_eq!(fields.len(), 39);
        for (i, (key, value)) in fields.iter().enumerate() {
            assert_eq!(
                (key.as_str(), value),
                (format!("k{i}").as_str(), &JsonValue::Number(i as f64))
            );
        }
    }

    #[test]
    fn strings_render_with_the_same_escapes() {
        let value = JsonValue::String("a\"b\\c\n\r\t\u{1}\u{1f}é\u{1f600}\u{7f}/".to_owned());
        let expected = format!(
            "\"a\\\"b\\\\c\\n\\r\\t{}{}é\u{1f600}\u{7f}/\"",
            esc("0001"),
            esc("001f")
        );
        assert_eq!(value.render_compact(), expected);
        assert_eq!(JsonValue::parse(&expected).unwrap(), value);
        let plain = "x".repeat(10_000);
        assert_eq!(
            JsonValue::String(plain.clone()).render_compact(),
            format!("\"{plain}\"")
        );
    }

    #[test]
    fn fields_name_the_path_of_what_they_reject() {
        let doc = JsonValue::parse(r#"{"a": {"b": [1, "x"], "c": true}, "n": "7"}"#).unwrap();
        let root = Fields::new(&doc, FieldPath::Root).unwrap();
        let a = root.object("a").unwrap().unwrap();
        let rejected = |e: FieldError| (e.path, e.message);
        let bad = a.items("b", |v, path| v.as_f64().ok_or_else(|| path.error("bad")));
        assert_eq!(rejected(bad.unwrap_err()), ("a.b[1]".into(), "bad".into()));
        assert_eq!(param(a.get("c").unwrap(), a.child("c")), Ok(1.0));
        assert_eq!(
            rejected(root.number("n").unwrap_err()),
            ("n".into(), "expected a number, got string".into())
        );
        assert_eq!(
            rejected(a.required("z", Fields::string).unwrap_err()),
            ("a.z".into(), "required field is missing".into())
        );
        assert_eq!(
            rejected(root.deny_unknown(&["a"]).unwrap_err()),
            ("n".into(), "unknown field (expected one of: a)".into())
        );
        let err = Fields::new(&JsonValue::Null, FieldPath::Root).unwrap_err();
        assert_eq!(
            rejected(err),
            (String::new(), "expected an object, got null".into())
        );
    }

    #[test]
    fn accessors_reject_wrong_types() {
        let v = JsonValue::parse("[1]").unwrap();
        assert!(v.get("x").is_none());
        assert!(v.as_f64().is_none());
        assert!(v.as_str().is_none());
        assert!(v.as_bool().is_none());
        assert!(v.as_object().is_none());
        assert_eq!(v.type_name(), "array");
    }
}
