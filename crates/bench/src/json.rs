//! The one JSON model every `BENCH_*.json` writer and gate shares: a
//! small [`Value`] tree, a compact emitter (its `Display`) and a strict
//! [`parse`]r. The build environment is offline, so no serde.
//!
//! Numbers keep their text, so parsing a published file and emitting it
//! again reproduces it byte for byte, and a gate compares exactly the
//! digits a writer published.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (what [`Obj::num`] writes for a non-finite number).
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as its text (writers render floats `{:.4}`).
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value at a dotted path of object keys, e.g.
    /// `dynamics.watermark_violations`.
    pub fn at(&self, path: &str) -> Option<&Value> {
        path.split('.').try_fold(self, |v, key| v.get(key))
    }

    /// A number's value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// An array's items.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Emits the value compactly: no whitespace, keys in insertion order.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => f.write_str(n),
            Value::Str(s) => write_str(f, s),
            Value::Arr(items) => write_seq(f, "[]", items.iter().map(|v| (None, v))),
            Value::Obj(fields) => write_seq(f, "{}", fields.iter().map(|(k, v)| (Some(k), v))),
        }
    }
}

fn write_seq<'a>(
    f: &mut fmt::Formatter<'_>,
    brackets: &str,
    items: impl Iterator<Item = (Option<&'a String>, &'a Value)>,
) -> fmt::Result {
    f.write_str(&brackets[..1])?;
    for (i, (key, v)) in items.enumerate() {
        if i > 0 {
            f.write_str(",")?;
        }
        if let Some(k) = key {
            write_str(f, k)?;
            f.write_str(":")?;
        }
        write!(f, "{v}")?;
    }
    f.write_str(&brackets[1..])
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A JSON object builder preserving insertion order.
#[derive(Debug, Default)]
pub struct Obj {
    fields: Vec<(String, Value)>,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Adds a string field.
    pub fn str(self, key: &str, value: &str) -> Obj {
        self.val(key, Value::Str(value.to_string()))
    }

    /// Adds an integer field.
    pub fn int(self, key: &str, value: i64) -> Obj {
        self.val(key, Value::Num(value.to_string()))
    }

    /// Adds a number field with four decimals (non-finite: `null`).
    pub fn num(self, key: &str, value: f64) -> Obj {
        let v = if value.is_finite() {
            Value::Num(format!("{value:.4}"))
        } else {
            Value::Null
        };
        self.val(key, v)
    }

    /// Adds a field holding any value.
    pub fn val(mut self, key: &str, value: Value) -> Obj {
        self.fields.push((key.to_string(), value));
        self
    }

    /// The finished object.
    pub fn build(self) -> Value {
        Value::Obj(self.fields)
    }
}

/// An array of `items`.
pub fn arr<I: IntoIterator<Item = Value>>(items: I) -> Value {
    Value::Arr(items.into_iter().collect())
}

/// Parses one JSON document.
///
/// # Errors
///
/// Names the byte offset of the first problem: malformed syntax, an
/// unterminated string, a bad escape, a duplicate object key, nesting
/// deeper than 64 levels, or anything but whitespace after the value.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value(0)?;
    p.ws();
    if p.i != p.s.len() {
        return p.err("trailing data");
    }
    Ok(v)
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    /// Consumes `lit` after optional whitespace, reporting whether it was
    /// there.
    fn eat(&mut self, lit: &[u8]) -> bool {
        self.ws();
        let found = self.s[self.i..].starts_with(lit);
        if found {
            self.i += lit.len();
        }
        found
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.ws();
        for (lit, v) in [
            (&b"null"[..], Value::Null),
            (b"true", Value::Bool(true)),
            (b"false", Value::Bool(false)),
        ] {
            if self.eat(lit) {
                return Ok(v);
            }
        }
        match self.peek() {
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                if !self.eat(b"]") {
                    loop {
                        items.push(self.value(depth + 1)?);
                        if self.end_of(b"]")? {
                            break;
                        }
                    }
                }
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                self.i += 1;
                let mut fields: Vec<(String, Value)> = Vec::new();
                if !self.eat(b"}") {
                    loop {
                        self.ws();
                        if self.peek() != Some(b'"') {
                            return self.err("expected a key");
                        }
                        let key = self.string()?;
                        if fields.iter().any(|(k, _)| *k == key) {
                            return self.err(&format!("duplicate key `{key}`"));
                        }
                        if !self.eat(b":") {
                            return self.err("expected `:`");
                        }
                        fields.push((key, self.value(depth + 1)?));
                        if self.end_of(b"}")? {
                            break;
                        }
                    }
                }
                Ok(Value::Obj(fields))
            }
            _ => self.err("expected a value"),
        }
    }

    /// After a container item: `true` at the closing bracket, `false`
    /// after a `,`.
    fn end_of(&mut self, close: &[u8]) -> Result<bool, String> {
        if self.eat(close) {
            Ok(true)
        } else if self.eat(b",") {
            Ok(false)
        } else {
            self.err("expected `,` or a closing bracket")
        }
    }

    fn digits(&mut self) -> usize {
        let from = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i - from
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        self.i += usize::from(self.peek() == Some(b'-'));
        let int = self.i;
        let mut ok = match self.digits() {
            0 => false,
            n => n == 1 || self.s[int] != b'0',
        };
        if ok && self.peek() == Some(b'.') {
            self.i += 1;
            ok = self.digits() > 0;
        }
        if ok && matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            self.i += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            ok = self.digits() > 0;
        }
        if !ok {
            return self.err("malformed number");
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).expect("number text is ASCII");
        Ok(Value::Num(text.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let Some(b) = self.peek() else {
                return self.err("unterminated string");
            };
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let code = self
                                .s
                                .get(self.i + 1..self.i + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            let Some(c) = code else {
                                return self.err("bad \\u escape");
                            };
                            self.i += 4;
                            c
                        }
                        _ => return self.err("bad escape"),
                    };
                    self.i += 1;
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                b if b < 0x20 => return self.err("control character in string"),
                b => out.push(b),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_emit_compact_json() {
        let v = Obj::new()
            .str("name", "a\"b\\c\nd\u{1}")
            .int("n", -1)
            .num("x", 62.5)
            .num("nan", f64::NAN)
            .val("ok", Value::Bool(true))
            .val("rows", arr([Obj::new().int("k", 1).build(), arr([])]))
            .build();
        assert_eq!(
            v.to_string(),
            r#"{"name":"a\"b\\c\nd\u0001","n":-1,"x":62.5000,"nan":null,"ok":true,"rows":[{"k":1},[]]}"#
        );
        assert_eq!(parse(&v.to_string()), Ok(v));
    }

    #[test]
    fn paths_resolve_nested_fields() {
        let v = parse(r#"{"a":{"b}":{"c":[1,2]},"n":2.5000},"t":false}"#).unwrap();
        assert_eq!(v.at("a.n").and_then(Value::as_f64), Some(2.5));
        assert_eq!(
            v.at("a.b}.c").and_then(Value::as_arr).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(v.at("t"), Some(&Value::Bool(false)));
        assert_eq!(v.at("a.missing"), None);
        assert_eq!(v.at("t.deeper"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 2), "]".repeat(MAX_DEPTH + 2));
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\":1,\"a\":2}",
            "01",
            "1.",
            "-",
            "1e",
            "\"open",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"tab\there\"",
            "{} x",
            "nul",
            &too_deep,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn committed_bench_files_round_trip_byte_for_byte() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut seen = 0;
        for entry in std::fs::read_dir(root).expect("repository root") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable BENCH file");
            let value = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(value.to_string() == text, "{name} did not round-trip");
            seen += 1;
        }
        assert!(seen >= 26, "found only {seen} committed BENCH_*.json files");
    }
}
