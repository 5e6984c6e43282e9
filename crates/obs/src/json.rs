//! A minimal JSON value, serializer and parser.
//!
//! The simulation cannot pull external crates (runs are reproducible from a
//! hermetic toolchain), so report and trace serialization use this small
//! in-tree implementation. Objects preserve insertion order so serialized
//! output is deterministic — a requirement for the golden trace test and
//! for diffable `BENCH_*.json` artifacts.
//!
//! Object keys and string values are `Cow<'static, str>`: the fixed keys
//! and phase/level names that make up most of an export are borrowed from
//! static text, and only formatted or parsed text is owned. One writer,
//! generic over [`fmt::Write`], renders both the compact ([`Display`]) and
//! the pretty ([`Json::pretty`]) form in a single pass: strings are escaped
//! in place (an escape-free string is one `write_str`), integers are
//! formatted into a stack buffer, and indentation is sliced from a static
//! run of spaces, so rendering allocates nothing beyond the output itself.
//!
//! [`Display`]: fmt::Display

use std::borrow::Cow;
use std::fmt;

/// A JSON value.
///
/// # Examples
///
/// ```
/// use svt_obs::Json;
///
/// let j = Json::obj([("a", Json::from(1u64)), ("b", Json::from("x"))]);
/// assert_eq!(j.to_string(), r#"{"a":1,"b":"x"}"#);
/// assert_eq!(Json::parse(&j.to_string()).unwrap(), j);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A float. Non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(Cow<'static, str>),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered for deterministic output.
    Obj(Vec<(Cow<'static, str>, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(v as i64)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<&'static str> for Json {
    fn from(v: &'static str) -> Json {
        Json::Str(Cow::Borrowed(v))
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(Cow::Owned(v))
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<Cow<'static, str>>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn arr<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value's object pairs, if it is an object.
    pub fn as_obj(&self) -> Option<&[(Cow<'static, str>, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline,
    /// suitable for committed artifacts.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        // Writing into a `String` cannot fail.
        let _ = self.write_to(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// The one serializer: compact when `pretty` is `None`, otherwise
    /// pretty-printed with two spaces per level starting at depth
    /// `pretty`. Empty arrays and objects stay `[]`/`{}` in both forms.
    fn write_to<W: fmt::Write>(&self, out: &mut W, pretty: Option<usize>) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::Int(v) => write_int(out, *v),
            // Whole floats keep a decimal point so they re-parse as Num,
            // not Int — required for exact round trips.
            Json::Num(v) if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 => {
                write!(out, "{v:.1}")
            }
            Json::Num(v) if v.is_finite() => write!(out, "{v}"),
            Json::Num(_) => out.write_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) if items.is_empty() => out.write_str("[]"),
            Json::Obj(pairs) if pairs.is_empty() => out.write_str("{}"),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    open_entry(out, i, pretty)?;
                    item.write_to(out, pretty.map(|d| d + 1))?;
                }
                close(out, ']', pretty)
            }
            Json::Obj(pairs) => {
                out.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    open_entry(out, i, pretty)?;
                    write_escaped(out, k)?;
                    out.write_str(if pretty.is_some() { ": " } else { ":" })?;
                    v.write_to(out, pretty.map(|d| d + 1))?;
                }
                close(out, '}', pretty)
            }
        }
    }

    /// Parses a JSON document.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError {
                pos: p.pos,
                msg: "trailing characters",
            });
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f, None)
    }
}

/// Two spaces per level; deeper nesting writes it in chunks.
const INDENT: &str = "                                                                ";

fn write_indent<W: fmt::Write>(out: &mut W, depth: usize) -> fmt::Result {
    let mut n = 2 * depth;
    while n > 0 {
        let chunk = n.min(INDENT.len());
        out.write_str(&INDENT[..chunk])?;
        n -= chunk;
    }
    Ok(())
}

/// Separator before the `i`-th entry of an array or object at nesting
/// `pretty` (the container's depth), plus its line break and indent.
fn open_entry<W: fmt::Write>(out: &mut W, i: usize, pretty: Option<usize>) -> fmt::Result {
    if i > 0 {
        out.write_char(',')?;
    }
    match pretty {
        Some(depth) => {
            out.write_char('\n')?;
            write_indent(out, depth + 1)
        }
        None => Ok(()),
    }
}

fn close<W: fmt::Write>(out: &mut W, bracket: char, pretty: Option<usize>) -> fmt::Result {
    if let Some(depth) = pretty {
        out.write_char('\n')?;
        write_indent(out, depth)?;
    }
    out.write_char(bracket)
}

/// Decimal digits of `v` from a stack buffer (20 bytes hold `i64::MIN`).
fn write_int<W: fmt::Write>(out: &mut W, v: i64) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut n = v.unsigned_abs();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        i -= 1;
        buf[i] = b'-';
    }
    out.write_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"))
}

/// Writes `s` quoted, escaping in place: runs between escapes go out as
/// slices of `s`, so an escape-free string is a single `write_str`.
fn write_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.write_char('"')?;
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        // `b` is ASCII, so `i` is a char boundary.
        out.write_str(&s[run..i])?;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => {
                out.write_str("\\u00")?;
                out.write_char(HEX[usize::from(b >> 4)] as char)?;
                out.write_char(HEX[usize::from(b & 0xf)] as char)?;
            }
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// A parse failure with its byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What was wrong.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { pos: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into())),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("invalid integer"))
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key.into(), value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "42"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
        let v = Json::parse("1.5").unwrap();
        assert_eq!(v, Json::Num(1.5));
        assert_eq!(v.to_string(), "1.5");
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let j = Json::from("a\"b\\c\nd\te");
        let text = j.to_string();
        assert_eq!(Json::parse(&text).unwrap(), j);
        let unicode = Json::parse(r#""éx""#).unwrap();
        assert_eq!(unicode.as_str(), Some("éx"));
    }

    #[test]
    fn nested_structures_round_trip() {
        let j = Json::obj([
            ("name", Json::from("fig6")),
            ("speedups", Json::arr([Json::Num(1.25), Json::Num(1.9)])),
            ("nested", Json::obj([("empty", Json::Arr(vec![]))])),
            ("flag", Json::Null),
        ]);
        let compact = j.to_string();
        assert_eq!(Json::parse(&compact).unwrap(), j);
        let pretty = j.pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), j);
        assert!(pretty.ends_with('\n'));
    }

    #[test]
    fn object_order_is_preserved() {
        let j = Json::obj([("z", Json::from(1u64)), ("a", Json::from(2u64))]);
        assert_eq!(j.to_string(), r#"{"z":1,"a":2}"#);
        assert_eq!(j.get("a"), Some(&Json::Int(2)));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn large_integers_survive() {
        // Picosecond timestamps exceed f64's 2^53 integer range in long
        // runs; Int preserves them exactly.
        let big = 9_007_199_254_740_993i64; // 2^53 + 1
        let text = Json::Int(big).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_i64(), Some(big));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn accessors() {
        let j = Json::parse(r#"{"a":[1,2.5],"s":"x"}"#).unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(j.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(j.as_obj().unwrap().len(), 2);
    }

    /// The serializer as it was before the one-pass writer: a temporary
    /// `String` per escaped string and key, and `"  ".repeat(depth)` per
    /// pretty line. Kept as the byte-for-byte reference.
    mod reference {
        use super::Json;
        use std::fmt;

        pub struct Compact<'a>(pub &'a Json);

        impl fmt::Display for Compact<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self.0 {
                    Json::Null => f.write_str("null"),
                    Json::Bool(b) => write!(f, "{b}"),
                    Json::Int(v) => write!(f, "{v}"),
                    Json::Num(v) if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 => {
                        write!(f, "{v:.1}")
                    }
                    Json::Num(v) if v.is_finite() => write!(f, "{v}"),
                    Json::Num(_) => f.write_str("null"),
                    Json::Str(s) => {
                        let mut out = String::new();
                        write_escaped(&mut out, s);
                        f.write_str(&out)
                    }
                    Json::Arr(items) => {
                        f.write_str("[")?;
                        for (i, item) in items.iter().enumerate() {
                            if i > 0 {
                                f.write_str(",")?;
                            }
                            write!(f, "{}", Compact(item))?;
                        }
                        f.write_str("]")
                    }
                    Json::Obj(pairs) => {
                        f.write_str("{")?;
                        for (i, (k, v)) in pairs.iter().enumerate() {
                            if i > 0 {
                                f.write_str(",")?;
                            }
                            let mut key = String::new();
                            write_escaped(&mut key, k);
                            write!(f, "{key}:{}", Compact(v))?;
                        }
                        f.write_str("}")
                    }
                }
            }
        }

        pub fn pretty(j: &Json) -> String {
            let mut out = String::new();
            write_pretty(j, &mut out, 0);
            out.push('\n');
            out
        }

        fn write_pretty(j: &Json, out: &mut String, depth: usize) {
            match j {
                Json::Arr(items) if !items.is_empty() => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push('\n');
                        out.push_str(&"  ".repeat(depth + 1));
                        write_pretty(item, out, depth + 1);
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth));
                    out.push(']');
                }
                Json::Obj(pairs) if !pairs.is_empty() => {
                    out.push('{');
                    for (i, (k, v)) in pairs.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push('\n');
                        out.push_str(&"  ".repeat(depth + 1));
                        write_escaped(out, k);
                        out.push_str(": ");
                        write_pretty(v, out, depth + 1);
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth));
                    out.push('}');
                }
                other => {
                    use fmt::Write;
                    let _ = write!(out, "{}", Compact(other));
                }
            }
        }

        fn write_escaped(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
    }

    /// Text pieces covering every escape class: quotes, backslashes, the
    /// named and `\u00XX` control escapes, DEL (not escaped), multi-byte
    /// UTF-8 and the empty string.
    const PIECES: &[&str] = &[
        "",
        "plain",
        "\"",
        "\\",
        "\n",
        "\r",
        "\t",
        "\u{0}",
        "\u{8}",
        "\u{c}",
        "\u{1b}",
        "\u{1f}",
        "\u{7f}",
        " ",
        "é",
        "日本",
        "\u{1F4A1}",
        "a\"b\\c",
        "/",
    ];

    /// Floats around every formatting boundary: signed zero, whole values
    /// below, at and above 1e15, fractions, extremes and non-finite.
    const FLOATS: &[f64] = &[
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -2.25,
        0.01,
        1e-7,
        123.456,
        999_999_999_999_999.0,
        -999_999_999_999_999.0,
        1e15,
        -1e15,
        1e15 + 2.0,
        1e16,
        1e21,
        1e300,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        f64::EPSILON,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    const INTS: &[i64] = &[
        0,
        1,
        -1,
        9,
        10,
        -10,
        i64::MIN,
        i64::MIN + 1,
        i64::MAX,
        1 << 53,
        -(1 << 53) - 1,
    ];

    struct Gen(svt_sim::DetRng);

    impl Gen {
        fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
            &xs[self.0.below(xs.len() as u64) as usize]
        }

        fn text(&mut self) -> Cow<'static, str> {
            match self.0.below(3) {
                0 => Cow::Borrowed(*self.pick(PIECES)),
                _ => {
                    let n = self.0.below(5);
                    Cow::Owned((0..n).map(|_| *self.pick(PIECES)).collect())
                }
            }
        }

        fn value(&mut self, depth: u32) -> Json {
            let leaf = depth == 0 || self.0.chance(0.4);
            match self.0.below(if leaf { 6 } else { 8 }) {
                0 => Json::Null,
                1 => Json::Bool(self.0.chance(0.5)),
                2 if self.0.chance(0.5) => Json::Int(*self.pick(INTS)),
                2 => Json::Int(self.0.next_u64() as i64),
                3 if self.0.chance(0.5) => Json::Num(*self.pick(FLOATS)),
                3 => Json::Num(f64::from_bits(self.0.next_u64())),
                4 => Json::Num(self.0.below(1 << 20) as f64 / 1e6),
                5 => Json::Str(self.text()),
                6 => Json::Arr(
                    (0..self.0.below(4))
                        .map(|_| self.value(depth - 1))
                        .collect(),
                ),
                _ => Json::Obj(
                    (0..self.0.below(4))
                        .map(|_| (self.text(), self.value(depth - 1)))
                        .collect(),
                ),
            }
        }
    }

    fn assert_same_bytes(j: &Json) {
        assert_eq!(
            j.to_string(),
            reference::Compact(j).to_string(),
            "compact: {j:?}"
        );
        assert_eq!(j.pretty(), reference::pretty(j), "pretty: {j:?}");
    }

    #[test]
    fn writer_matches_reference_serializer_on_edge_values() {
        let mut leaves: Vec<Json> = vec![Json::Null, Json::Bool(true), Json::Bool(false)];
        leaves.extend(INTS.iter().map(|&v| Json::Int(v)));
        leaves.extend(FLOATS.iter().map(|&v| Json::Num(v)));
        leaves.extend(PIECES.iter().map(|&s| Json::from(s)));
        leaves.push(Json::Arr(vec![]));
        leaves.push(Json::Obj(vec![]));
        for leaf in &leaves {
            assert_same_bytes(leaf);
        }
        let keyed = Json::Obj(
            PIECES
                .iter()
                .zip(&leaves)
                .map(|(&k, v)| (Cow::Borrowed(k), v.clone()))
                .collect(),
        );
        let nested = Json::arr([
            Json::Arr(leaves.clone()),
            keyed.clone(),
            Json::arr([Json::Arr(vec![]), Json::obj([("e", Json::Obj(vec![]))])]),
            Json::obj([("deep", Json::arr([Json::arr([Json::arr([keyed])])]))]),
        ]);
        assert_same_bytes(&nested);
    }

    #[test]
    fn writer_matches_reference_serializer_on_generated_trees() {
        let mut g = Gen(svt_sim::DetRng::seed(0x5EED_150F));
        for _ in 0..2_000 {
            assert_same_bytes(&g.value(5));
        }
        // Nesting past the static indent run (32 levels) writes the
        // indent in chunks.
        let mut deep = g.value(2);
        for i in 0..40 {
            deep = if i % 2 == 0 {
                Json::arr([deep, Json::Int(i)])
            } else {
                Json::obj([("k", deep)])
            };
        }
        assert_same_bytes(&deep);
    }
}
