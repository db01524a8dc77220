//! A minimal JSON emitter and reader for machine-readable bench artifacts.
//!
//! The workspace builds with no registry access (CARGO_NET_OFFLINE), so
//! there is no serde; this writer covers exactly what the bench documents
//! need — objects, arrays, strings, finite numbers, null — and always
//! produces valid, pretty-printed JSON. [`parse`] reads such documents
//! back into a [`Value`] tree, so tests check structure, not spelling.

/// Streaming JSON writer. Call the structural methods in document order
/// and [`JsonWriter::finish`] at the end.
///
/// ```
/// use sctc_bench::json::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.key("answer");
/// w.number(42.0);
/// w.end_object();
/// assert_eq!(w.finish(), "{\n  \"answer\": 42\n}\n");
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    depth: usize,
    /// Whether the current container already holds a value (a comma is
    /// needed before the next one).
    needs_comma: Vec<bool>,
    /// A `key(...)` was emitted and awaits its value.
    pending_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn newline_indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    fn before_value(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        if let Some(needs_comma) = self.needs_comma.last_mut() {
            if *needs_comma {
                self.out.push(',');
            }
            *needs_comma = true;
            self.newline_indent();
        }
    }

    /// Starts an object (`{`).
    pub fn begin_object(&mut self) {
        self.before_value();
        self.out.push('{');
        self.depth += 1;
        self.needs_comma.push(false);
    }

    /// Closes the innermost object (`}`).
    pub fn end_object(&mut self) {
        let had_values = self.needs_comma.pop().unwrap_or(false);
        self.depth -= 1;
        if had_values {
            self.newline_indent();
        }
        self.out.push('}');
    }

    /// Starts an array (`[`).
    pub fn begin_array(&mut self) {
        self.before_value();
        self.out.push('[');
        self.depth += 1;
        self.needs_comma.push(false);
    }

    /// Closes the innermost array (`]`).
    pub fn end_array(&mut self) {
        let had_values = self.needs_comma.pop().unwrap_or(false);
        self.depth -= 1;
        if had_values {
            self.newline_indent();
        }
        self.out.push(']');
    }

    /// Emits an object key; the next call must emit its value.
    pub fn key(&mut self, key: &str) {
        self.before_value();
        self.push_string(key);
        self.out.push_str(": ");
        self.pending_key = true;
    }

    /// Emits a string value.
    pub fn string(&mut self, value: &str) {
        self.before_value();
        self.push_string(value);
    }

    /// Emits a number. Non-finite values become `null` (JSON has no
    /// NaN/Inf); integral values print without a fraction.
    pub fn number(&mut self, value: f64) {
        self.before_value();
        if !value.is_finite() {
            self.out.push_str("null");
        } else if value.fract() == 0.0 && value.abs() < 9.0e15 {
            let _ = {
                use std::fmt::Write as _;
                write!(self.out, "{}", value as i64)
            };
        } else {
            let _ = {
                use std::fmt::Write as _;
                write!(self.out, "{value}")
            };
        }
    }

    /// Emits `null`.
    pub fn null(&mut self) {
        self.before_value();
        self.out.push_str("null");
    }

    /// Emits `true`/`false`.
    pub fn boolean(&mut self, value: bool) {
        self.before_value();
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// Returns the finished document with a trailing newline.
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }

    fn push_string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    use std::fmt::Write as _;
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

/// A parsed JSON value. Objects keep their keys in document order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Number(f64),
    /// A string, escapes resolved.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object as `(key, value)` pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error.
///
/// ```
/// use sctc_bench::json::{parse, Value};
/// let doc = parse("{\"rows\": [1, \"two\", null]}").unwrap();
/// let rows = doc.get("rows").and_then(Value::as_array).unwrap();
/// assert_eq!(rows[0].as_f64(), Some(1.0));
/// assert_eq!(rows[1].as_str(), Some("two"));
/// assert_eq!(rows[2], Value::Null);
/// ```
pub fn parse(text: &str) -> Result<Value, String> {
    let mut reader = Reader {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = reader.value()?;
    reader.skip_ws();
    if reader.pos != reader.bytes.len() {
        return Err(reader.error("trailing characters"));
    }
    Ok(value)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("unknown literal"))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses `open item (, item)* close` or an empty container.
    fn items(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b) if *b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or a closing bracket")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        let mut fields = Vec::new();
        self.items(b'{', b'}', |r| {
            r.skip_ws();
            let key = r.string()?;
            r.expect(b':')?;
            fields.push((key, r.value()?));
            Ok(())
        })?;
        Ok(Value::Object(fields))
    }

    fn array(&mut self) -> Result<Value, String> {
        let mut items = Vec::new();
        self.items(b'[', b']', |r| {
            items.push(r.value()?);
            Ok(())
        })?;
        Ok(Value::Array(items))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.bytes[self.pos..])
                .map_err(|_| self.error("invalid UTF-8"))?;
            let mut chars = rest.chars();
            let c = chars
                .next()
                .ok_or_else(|| self.error("unterminated string"))?;
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let escape = chars
                        .next()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    out.push(match escape {
                        '"' => '"',
                        '\\' => '\\',
                        '/' => '/',
                        'n' => '\n',
                        'r' => '\r',
                        't' => '\t',
                        'b' => '\u{8}',
                        'f' => '\u{c}',
                        'u' => {
                            let hex = rest
                                .get(2..6)
                                .ok_or_else(|| self.error("short \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            char::from_u32(code).ok_or_else(|| self.error("bad \\u escape"))?
                        }
                        _ => return Err(self.error("unknown escape")),
                    });
                }
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|text| text.parse().ok())
            .map(Value::Number)
            .ok_or_else(|| self.error("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_document() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("rows");
        w.begin_array();
        w.begin_object();
        w.key("name");
        w.string("tb\"1000\"");
        w.key("bound");
        w.null();
        w.key("ok");
        w.boolean(true);
        w.end_object();
        w.end_array();
        w.key("rate");
        w.number(0.5);
        w.end_object();
        let doc = w.finish();
        assert!(doc.contains("\"tb\\\"1000\\\"\""));
        assert!(doc.contains("\"bound\": null"));
        assert!(doc.contains("\"rate\": 0.5"));
        assert!(doc.ends_with("}\n"));
    }

    #[test]
    fn integral_numbers_have_no_fraction() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.number(42.0);
        w.number(f64::NAN);
        w.end_array();
        let doc = w.finish();
        assert!(doc.contains("42"), "{doc}");
        assert!(!doc.contains("42.0"), "{doc}");
        assert!(doc.contains("null"), "{doc}");
    }

    #[test]
    fn empty_containers_stay_compact() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("rows");
        w.begin_array();
        w.end_array();
        w.end_object();
        assert_eq!(w.finish(), "{\n  \"rows\": []\n}\n");
    }

    #[test]
    fn control_characters_are_escaped() {
        let mut w = JsonWriter::new();
        w.string("a\u{1}b\nc");
        assert_eq!(w.finish(), "\"a\\u0001b\\nc\"\n");
    }

    #[test]
    fn reader_round_trips_the_writer() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name");
        w.string("tb\"1000\"\n\u{1}é");
        w.key("rows");
        w.begin_array();
        w.number(-1.5e-3);
        w.number(42.0);
        w.null();
        w.boolean(false);
        w.begin_object();
        w.end_object();
        w.end_array();
        w.end_object();
        let doc = parse(&w.finish()).expect("writer output parses");
        assert_eq!(
            doc.get("name").and_then(Value::as_str),
            Some("tb\"1000\"\n\u{1}é")
        );
        let rows = doc
            .get("rows")
            .and_then(Value::as_array)
            .expect("rows array");
        assert_eq!(
            rows,
            [
                Value::Number(-1.5e-3),
                Value::Number(42.0),
                Value::Null,
                Value::Bool(false),
                Value::Object(Vec::new()),
            ]
        );
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn reader_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"open",
            "nul",
            "[1] 2",
            "{\"a\":\"\\x\"}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
