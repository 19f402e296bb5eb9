//! The workspace's one JSON codec: a value model, two renderings, one
//! string escaper, and one parser.
//!
//! The build is fully offline, so `serde`/`serde_json` are not available.
//! Every JSON byte the workspace writes or re-reads — experiment
//! artifacts, the lint report and baseline, trend-log lines, the
//! `BENCH_runtime.json` baseline — goes through this module, so the bytes
//! that are hashed and compared have exactly one definition:
//!
//! * [`Json::pretty`] is the two-space-indented artifact layout;
//!   [`Json::compact`] is the single-line form with no spaces.
//! * A finite integral float keeps its `.0` (`3.0`, never `3`); a
//!   non-finite float is written as `null`. Integers kept as
//!   [`Json::UInt`]/[`Json::Int`] stay exact over the whole `u64`/`i64`
//!   range.
//! * [`json_string`] is the only string escaper.
//! * [`parse`] returns `Err` on any malformed input — it never panics —
//!   and refuses nesting deeper than [`MAX_DEPTH`]. Non-negative integers
//!   read back as `UInt`, negative ones as `Int`, anything with a
//!   fraction or exponent as `Num`.
//!
//! Structs opt into serialization with the
//! [`impl_to_json!`](crate::impl_to_json) field-listing macro.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts; deeper input is an
/// error instead of unbounded recursion.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A float (non-finite values serialize as `null`).
    Num(f64),
    /// An integer kept exact (u64 range).
    UInt(u64),
    /// A signed integer kept exact (i64 range).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Pretty-prints with two-space indentation (the `serde_json` style the
    /// result artifacts were originally written in).
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Renders on a single line with no whitespace.
    #[must_use]
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// `indent` is the current depth for pretty output, `None` for compact.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Num(x) if x.is_finite() => {
                // `Display` never uses an exponent, so an integral value
                // prints as bare digits; keep it a float (`1.0` not `1`).
                out.push_str(&x.to_string());
                if x.fract() == 0.0 {
                    out.push_str(".0");
                }
            }
            Self::Null | Self::Num(_) => out.push_str("null"),
            Self::UInt(n) => out.push_str(&n.to_string()),
            Self::Int(n) => out.push_str(&n.to_string()),
            Self::Str(s) => out.push_str(&json_string(s)),
            Self::Arr(items) => {
                write_items(out, indent, ('[', ']'), items.iter().map(|v| (None, v)));
            }
            Self::Obj(fields) => write_items(
                out,
                indent,
                ('{', '}'),
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }

    /// The value under `key`, if this is an object that has it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        let fields = self.as_object()?;
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value, if this is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Self::UInt(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a float, if this is any number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Self::Num(x) => Some(x),
            Self::UInt(n) => Some(n as f64),
            Self::Int(n) => Some(n as f64),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value list, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Self::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Writes an array (every `key` is `None`) or object between `brackets`.
fn write_items<'a>(
    out: &mut String,
    indent: Option<usize>,
    (open, close): (char, char),
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    out.push(open);
    let inner = indent.map(|n| n + 1);
    let mut empty = true;
    for (key, value) in items {
        if !empty {
            out.push(',');
        }
        empty = false;
        if let Some(depth) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        if let Some(key) = key {
            out.push_str(&json_string(key));
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        value.write(out, inner);
    }
    if let (false, Some(depth)) = (empty, indent) {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

/// Escapes a string as a JSON string literal (quotes included).
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Parses one JSON document.
///
/// # Errors
///
/// A message naming the byte offset of the first malformed token, for
/// trailing bytes after the document, or for nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

/// A byte cursor over the input. It only ever stops on ASCII bytes, and
/// every slice goes through `str::get`, so no input can make it panic.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    /// Consumes the longest run of bytes matching `pred`.
    fn take_while(&mut self, pred: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(&pred) {
            self.pos += 1;
        }
        self.text.get(start..self.pos).unwrap_or_default()
    }

    fn skip_ws(&mut self) {
        self.take_while(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'));
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.bump() == Some(c) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'[') => self.items(b']', |p| p.value(depth + 1)).map(Json::Arr),
            Some(b'{') => self
                .items(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Json::Obj),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'a'..=b'z') => match self.take_while(|c| c.is_ascii_lowercase()) {
                "true" => Ok(Json::Bool(true)),
                "false" => Ok(Json::Bool(false)),
                "null" => Ok(Json::Null),
                _ => Err(self.err("unknown literal")),
            },
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parses the comma-separated items after an opening bracket up to
    /// and including `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1; // the opening bracket
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(c) if c == close => return Ok(out),
                _ => return Err(self.err("expected `,` or a closing bracket")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            out.push_str(self.take_while(|c| c >= 0x20 && c != b'"' && c != b'\\'));
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => out.push(self.escape()?),
                _ => return Err(self.err("unterminated string or raw control character")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let code = self
                    .text
                    .get(self.pos..self.pos + 4)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .and_then(char::from_u32)
                    .ok_or_else(|| self.err("bad or surrogate \\u escape"))?;
                self.pos += 4;
                code
            }
            _ => return Err(self.err("bad escape")),
        })
    }

    fn number(&mut self) -> Result<Json, String> {
        let text = self.take_while(|c| c.is_ascii_digit() || b"-+.eE".contains(&c));
        let unsigned = text.strip_prefix('-').unwrap_or(text);
        if !unsigned.starts_with(|c: char| c.is_ascii_digit()) {
            return Err(self.err("bad number"));
        }
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(n) = text.parse() {
                return Ok(Json::UInt(n));
            }
            if let Ok(n) = text.parse() {
                return Ok(Json::Int(n));
            }
        }
        text.parse()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

/// Conversion into a [`Json`] value (the serialization half of `Serialize`).
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Scalars convert into one [`Json`] variant each.
macro_rules! to_json_as {
    ($variant:ident($target:ty): $($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::$variant(*self as $target)
            }
        }
    )+};
}
to_json_as!(Bool(bool): bool);
to_json_as!(Num(f64): f64);
to_json_as!(UInt(u64): u8, u16, u32, u64, usize);
to_json_as!(Int(i64): i8, i16, i32, i64, isize);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

/// Tuples serialize as arrays.
macro_rules! to_json_tuple {
    ($(($($t:ident $i:tt),+)),*) => {$(
        impl<$($t: ToJson),+> ToJson for ($($t,)+) {
            fn to_json(&self) -> Json {
                Json::Arr(vec![$(self.$i.to_json()),+])
            }
        }
    )*};
}
to_json_tuple!((A 0, B 1), (A 0, B 1, C 2), (A 0, B 1, C 2, D 3), (A 0, B 1, C 2, D 3, E 4));

/// Implements [`ToJson`] for a struct by listing its fields, keeping the
/// result-struct definitions as close to the old `#[derive(Serialize)]`
/// form as possible:
///
/// ```
/// use flashmark_registry::{impl_to_json, json::ToJson};
///
/// struct Fig05Data { t_pew_us: f64, distinguishable: usize }
/// impl_to_json!(Fig05Data { t_pew_us, distinguishable });
///
/// let json = Fig05Data { t_pew_us: 23.0, distinguishable: 9 }.to_json();
/// assert_eq!(json.compact(), r#"{"t_pew_us":23.0,"distinguishable":9}"#);
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $( (stringify!($field).to_string(), $crate::json::ToJson::to_json(&self.$field)) ),*
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_nesting() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("a\"b\\c\n".into())),
            (
                "xs".into(),
                Json::Arr(vec![Json::UInt(1), Json::Num(2.5), Json::Null]),
            ),
        ]);
        let s = v.pretty();
        assert!(s.contains("\\\"b\\\\c\\n"));
        assert!(s.contains("2.5"));
        assert!(s.contains("null"));
        assert_eq!(v.compact(), r#"{"name":"a\"b\\c\n","xs":[1,2.5,null]}"#);
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn pretty_layout_is_two_space_indented() {
        let v = Json::Obj(vec![
            (
                "a".into(),
                Json::Arr(vec![Json::UInt(1), Json::Arr(vec![])]),
            ),
            ("b".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": [\n    1,\n    []\n  ],\n  \"b\": {}\n}"
        );
    }

    #[test]
    fn integral_floats_keep_a_decimal() {
        assert_eq!(Json::Num(3.0).pretty(), "3.0");
        assert_eq!(Json::Num(-0.0).compact(), "-0.0");
        assert_eq!(Json::Num(1e16).compact(), "10000000000000000.0");
        assert_eq!(Json::Num(0.25).compact(), "0.25");
        assert_eq!(Json::Num(f64::NAN).pretty(), "null");
        assert_eq!(Json::Num(f64::INFINITY).compact(), "null");
    }

    #[test]
    fn signed_integers_stay_exact() {
        assert_eq!((-3i64).to_json().pretty(), "-3");
        assert_eq!(7i32.to_json().pretty(), "7");
    }

    #[test]
    fn parser_keeps_integers_exact() {
        assert_eq!(parse("18446744073709551615"), Ok(Json::UInt(u64::MAX)));
        assert_eq!(
            parse(&Json::Num(f64::MAX).compact()),
            Ok(Json::Num(f64::MAX))
        );
        assert_eq!(parse("-9223372036854775808"), Ok(Json::Int(i64::MIN)));
        assert_eq!(parse("1.0"), Ok(Json::Num(1.0)));
        assert_eq!(parse("2e3"), Ok(Json::Num(2000.0)));
        assert_eq!(
            parse("18446744073709551616"),
            Ok(Json::Num(18446744073709551616.0))
        );
    }

    #[test]
    fn parser_reads_nested_documents() {
        let v = parse(r#" {"a": [1, 2.5, "s\u00e9\/"], "b": {"c": true, "d": null}} "#).unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.as_array()).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_str(),
            Some("sé/")
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_f64(), None);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "1 2",
            "{\"a\" 1}",
            "{1:2}",
            "+1",
            ".5",
            "-",
            "tru",
            "nul",
            "\"open",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"a\nb\"",
            "[1}",
            "1-2",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nesting too deep"));
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    struct Demo {
        a: u32,
        b: Vec<(f64, usize)>,
        c: Option<f64>,
    }
    crate::impl_to_json!(Demo { a, b, c });

    #[test]
    fn derive_macro_lists_fields_in_order() {
        let d = Demo {
            a: 7,
            b: vec![(1.5, 2)],
            c: None,
        };
        assert_eq!(d.to_json().compact(), r#"{"a":7,"b":[[1.5,2]],"c":null}"#);
        assert!(d.to_json().pretty().contains("\"c\": null"));
    }
}
