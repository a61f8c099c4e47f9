//! A minimal JSON value type shared by the report writer, the serializable
//! [`CampaignSpec`](crate::spec::CampaignSpec) and the campaign service's
//! wire protocol.
//!
//! The workspace builds offline with no serialization crate, and every
//! document crossing this codebase is produced by our own writers, so a
//! small strict parser covering objects, arrays, strings,
//! numbers, booleans and null — with escapes handled exactly as the writer
//! emits them — is all that is needed. Serialization is the [`Json`] value's
//! `Display` impl: object keys emit in sorted (BTreeMap) order, so a given
//! value always serializes to the same bytes.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, kept as `f64` (exact for integers up to 2^53).
    Number(f64),
    /// A string, with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object (key order not preserved; serialization is by sorted key).
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number that is one
    /// (integral, in range, no fractional part).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object map, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(map) => Some(map),
            _ => None,
        }
    }

    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Convenience constructor for a string value.
    pub fn string(s: impl Into<String>) -> Json {
        Json::String(s.into())
    }

    /// Convenience constructor for an integer number value.
    pub fn integer(n: u64) -> Json {
        Json::Number(n as f64)
    }
}

/// Appends `text` to `out` with JSON string escaping (the exact escape set
/// [`parse`] resolves: quotes, backslashes, the common control escapes, and
/// `\u00XX` for the remaining control characters).
fn escape_into(out: &mut String, text: &str) {
    for c in text.chars() {
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
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(n) => {
                // Integers (the overwhelming majority of what this codebase
                // emits) print without a decimal point; everything else uses
                // Rust's shortest-round-trip float formatting.
                if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::String(s) => {
                let mut escaped = String::with_capacity(s.len() + 2);
                escape_into(&mut escaped, s);
                write!(f, "\"{escaped}\"")
            }
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(map) => {
                f.write_str("{")?;
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut escaped = String::with_capacity(key.len());
                    escape_into(&mut escaped, key);
                    write!(f, "\"{escaped}\":{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so without a bound one request line of `[`s
/// overflows the stack of the thread that reads it; the deepest document the
/// project writes (a spec, a bench dump, a report) nests fewer than 8.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document (trailing whitespace allowed, nothing else).
/// A document nested deeper than [`MAX_DEPTH`] is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing data at byte {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                byte as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_owned())?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_owned())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "invalid \\u escape".to_owned())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("invalid \\u escape {hex:?}"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint {code:#x}"))?,
                            );
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the writer only emits valid
                    // UTF-8; recover the char boundary from the remainder).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8".to_owned())?;
                    let c = rest.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_real_bench_dump_shape() {
        let doc = parse(
            r#"{"figure":"fig5","wall_ms":27582,"tables":[{"title":"Fig. \"5\"","headers":["app","GRASP"],"rows":[["BC","+5.2"],["PR\n","-1.0"]]}]}"#,
        )
        .expect("parses");
        assert_eq!(doc.get("wall_ms").and_then(Json::as_f64), Some(27582.0));
        let tables = doc.get("tables").and_then(Json::as_array).expect("tables");
        assert_eq!(tables.len(), 1);
        assert_eq!(
            tables[0].get("title").and_then(Json::as_str),
            Some("Fig. \"5\"")
        );
        let rows = tables[0]
            .get("rows")
            .and_then(Json::as_array)
            .expect("rows");
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[1].as_array().expect("row")[0].as_str(),
            Some("PR\n"),
            "escapes resolve"
        );
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_docs() {
        assert!(parse("{} extra").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn nesting_is_bounded_without_overflowing_a_default_stack() {
        // A spawned thread has the default stack a daemon connection gets, so
        // an unbounded recursion aborts the whole test process here.
        std::thread::spawn(|| {
            let error = parse(&"[".repeat(100_000)).expect_err("far past the limit");
            assert!(error.contains("nesting deeper than"), "{error}");
            let nested = |depth: usize, open: &str, close: &str| {
                format!("{}{}", open.repeat(depth), close.repeat(depth))
            };
            let at_limit = parse(&nested(MAX_DEPTH, "[", "]")).expect("at the limit");
            assert!(at_limit.as_array().is_some());
            assert!(parse(&nested(MAX_DEPTH, "{\"a\":", "}").replace(":}", ":1}")).is_ok());
            assert!(parse(&nested(MAX_DEPTH + 1, "[", "]")).is_err());
            assert!(parse(&nested(MAX_DEPTH + 1, "{\"a\":[", "]}")).is_err());
        })
        .join()
        .expect("parsing deep documents must not overflow the stack");
    }

    #[test]
    fn numbers_bools_and_null_round_trip() {
        assert_eq!(parse("-12.5e2").unwrap().as_f64(), Some(-1250.0));
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("[]").unwrap(), Json::Array(Vec::new()));
    }

    #[test]
    fn display_round_trips_through_parse() {
        let doc = Json::object([
            ("name", Json::string("tw\n\"quoted\"")),
            ("count", Json::integer(42)),
            ("ratio", Json::Number(2.5)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            (
                "items",
                Json::Array(vec![Json::integer(1), Json::string("x")]),
            ),
            (
                "escapes",
                Json::Array(
                    ["plain-name.v2.trace", "a\"b\\c", "a\nb\tc", "\u{1}"]
                        .map(Json::string)
                        .to_vec(),
                ),
            ),
        ]);
        let text = doc.to_string();
        assert!(text.contains(r#"["plain-name.v2.trace","a\"b\\c","a\nb\tc","\u0001"]"#));
        assert_eq!(parse(&text).expect("own output parses"), doc);
        // Stable: the same value always serializes to the same bytes.
        assert_eq!(text, doc.to_string());
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(Json::integer(27582).to_string(), "27582");
        assert_eq!(Json::Number(-3.0).to_string(), "-3");
        assert_eq!(Json::Number(0.5).to_string(), "0.5");
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Number(4.0).as_u64(), Some(4));
        assert_eq!(Json::Number(4.5).as_u64(), None);
        assert_eq!(Json::Number(-1.0).as_u64(), None);
        assert_eq!(Json::string("4").as_u64(), None);
    }
}
