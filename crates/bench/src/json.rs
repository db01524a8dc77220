//! The JSON document model of the machine-readable bench artifacts.
//!
//! The workspace builds with no registry access (CARGO_NET_OFFLINE), so
//! there is no serde. Every artifact is built as one [`Value`] tree (the
//! [`object!`](crate::object) macro keeps keys in the order written),
//! serialized by [`Value::render`] as pretty-printed JSON, and read back
//! by [`parse`], so tests check structure, not spelling.

use std::fmt::Write as _;

/// A JSON value. Objects keep their keys in document order.
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

/// Builds a [`Value::Object`] whose keys keep the order written; every
/// value goes through `Value::from`.
///
/// ```
/// use sctc_bench::object;
/// let doc = object! { "answer" => 42u64, "bound" => None::<u64> };
/// assert_eq!(doc.render(), "{\n  \"answer\": 42,\n  \"bound\": null\n}\n");
/// ```
#[macro_export]
macro_rules! object {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::json::Value::Object(vec![
            $(($key.to_owned(), $crate::json::Value::from($value))),*
        ])
    };
}

impl Value {
    /// Serializes the document: two-space indent, integral numbers
    /// without a fraction, non-finite numbers as `null` (JSON has no
    /// NaN/Inf), empty containers compact, and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) if !n.is_finite() => out.push_str("null"),
            Value::Number(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => {
                let _ = write!(out, "{}", *n as i64);
            }
            Value::Number(n) => {
                let _ = write!(out, "{n}");
            }
            Value::String(s) => write_string(out, s),
            Value::Array(items) => write_items(out, depth, ('[', ']'), items, |out, item| {
                item.write(out, depth + 1);
            }),
            Value::Object(fields) => {
                write_items(out, depth, ('{', '}'), fields, |out, (key, value)| {
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                });
            }
        }
    }

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

static NULL: Value = Value::Null;

/// `doc["key"]` is the value under `key`, or `null` when this is not an
/// object or has no such key.
impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Number(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Number(n as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Self {
        Value::Array(items)
    }
}

fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes `open item, item close`, one item per line one level deeper;
/// an empty container stays `[]` / `{}`.
fn write_items<T>(
    out: &mut String,
    depth: usize,
    (open, close): (char, char),
    items: &[T],
    mut item: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline_indent(out, depth + 1);
        item(out, x);
    }
    if !items.is_empty() {
        newline_indent(out, depth);
    }
    out.push(close);
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
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
        let doc = object! {
            "rows" => vec![object! {
                "name" => "tb\"1000\"",
                "bound" => Value::Null,
                "ok" => true,
            }],
            "rate" => 0.5,
        }
        .render();
        assert!(doc.contains("\"tb\\\"1000\\\"\""));
        assert!(doc.contains("\"bound\": null"));
        assert!(doc.contains("\"rate\": 0.5"));
        assert!(doc.ends_with("}\n"));
    }

    #[test]
    fn integral_numbers_have_no_fraction() {
        let doc = Value::Array(vec![42.0.into(), f64::NAN.into()]).render();
        assert!(doc.contains("42"), "{doc}");
        assert!(!doc.contains("42.0"), "{doc}");
        assert!(doc.contains("null"), "{doc}");
    }

    #[test]
    fn empty_containers_stay_compact() {
        let doc = object! { "rows" => Vec::<Value>::new() };
        assert_eq!(doc.render(), "{\n  \"rows\": []\n}\n");
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(Value::from("a\u{1}b\nc").render(), "\"a\\u0001b\\nc\"\n");
    }

    #[test]
    fn reader_round_trips_the_writer() {
        let rendered = object! {
            "name" => "tb\"1000\"\n\u{1}é",
            "rows" => vec![
                (-1.5e-3).into(),
                42.0.into(),
                Value::Null,
                false.into(),
                object! {},
            ],
        }
        .render();
        let doc = parse(&rendered).expect("writer output parses");
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
        assert_eq!(doc["missing"], Value::Null);
    }

    #[test]
    fn parse_inverts_render_on_a_nested_document() {
        let doc = object! {
            "schema" => "bench-test/v1",
            "host_parallelism" => 2usize,
            "rows" => vec![
                object! {
                    "flow" => "derived",
                    "bound" => Some(1000u64),
                    "rate" => 0.125,
                    "tiny" => -2.5e-7,
                    "ok" => true,
                    "args" => object! { "nested" => vec![Value::Null, "\t\\".into()] },
                },
                object! { "flow" => "micro", "bound" => None::<u64>, "empty" => object! {} },
            ],
            "empty_rows" => Vec::<Value>::new(),
        };
        assert_eq!(parse(&doc.render()), Ok(doc));
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
