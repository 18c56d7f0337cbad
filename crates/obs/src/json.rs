//! Hand-rolled JSON emission and a small recursive-descent parser.
//!
//! The workspace builds offline with no serde, so the observability exports
//! build their documents from this value type. Integers are emitted
//! losslessly (no f64 round-trip for `u64` nanosecond timestamps). The
//! parser ([`parse`]) is what the bench baseline compare and the exporter
//! tests use to read documents back.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::U64(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::I64(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::F64(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl Json {
    /// Convenience constructor for objects.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a field of an object by key (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as `f64` (covers `U64`, `I64` and `F64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Unsigned integer value, if the token was one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object fields.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // Always keep a decimal point so the token stays a JSON
                    // number even for integral values.
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        let _ = write!(out, "{v:.1}");
                    } else {
                        let _ = write!(out, "{v}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Schema tag of the uniform CLI report envelope: every `--json` report the
/// observability binaries emit (`obs report`, `obs diff`, `obs meter`) wraps
/// its body in [`report_document`] under this tag, so CI consumers parse one
/// shape regardless of which tool produced the artifact.
pub const REPORT_SCHEMA: &str = "cronus-report/v1";

/// Wraps a report body in the shared CLI envelope:
/// `{"schema": "cronus-report/v1", "kind": <kind>, "body": <body>}`.
/// `kind` names the report type (`"queue"`, `"slo"`, `"diff"`, `"meter"`).
pub fn report_document(kind: &str, body: Json) -> Json {
    Json::Obj(vec![
        ("schema".to_string(), Json::Str(REPORT_SCHEMA.to_string())),
        ("kind".to_string(), Json::Str(kind.to_string())),
        ("body".to_string(), body),
    ])
}

/// Validates that `input` is a single well-formed JSON document. Used by the
/// export tests; intentionally strict (no trailing garbage, no NaN tokens).
pub fn is_well_formed(input: &str) -> bool {
    parse(input).is_ok()
}

/// Parses a single well-formed JSON document into a [`Json`] value.
///
/// Strict like [`is_well_formed`] (it is the same parser): no trailing
/// garbage, no NaN/Infinity tokens. Numbers parse to `U64` when they are
/// unsigned integers in range, `I64` for in-range negatives, `F64` otherwise.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p
        .value()
        .map_err(|()| format!("invalid JSON at byte {}", p.pos))?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Ok(v)
    } else {
        Err(format!("trailing garbage at byte {}", p.pos))
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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

    fn eat(&mut self, tok: &str) -> Result<(), ()> {
        if self.bytes[self.pos..].starts_with(tok.as_bytes()) {
            self.pos += tok.len();
            Ok(())
        } else {
            Err(())
        }
    }

    fn value(&mut self) -> Result<Json, ()> {
        self.skip_ws();
        match self.peek().ok_or(())? {
            b'n' => self.eat("null").map(|()| Json::Null),
            b't' => self.eat("true").map(|()| Json::Bool(true)),
            b'f' => self.eat("false").map(|()| Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => {
                self.pos += 1;
                self.skip_ws();
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bump().ok_or(())? {
                        b',' => continue,
                        b']' => return Ok(Json::Arr(items)),
                        _ => return Err(()),
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                self.skip_ws();
                let mut fields = Vec::new();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if self.bump() != Some(b':') {
                        return Err(());
                    }
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    match self.bump().ok_or(())? {
                        b',' => continue,
                        b'}' => return Ok(Json::Obj(fields)),
                        _ => return Err(()),
                    }
                }
            }
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(()),
        }
    }

    fn string(&mut self) -> Result<String, ()> {
        if self.bump() != Some(b'"') {
            return Err(());
        }
        let mut out = Vec::new();
        loop {
            match self.bump().ok_or(())? {
                b'"' => {
                    return String::from_utf8(out).map_err(|_| ());
                }
                b'\\' => match self.bump().ok_or(())? {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0c),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'u' => {
                        let unit = self.hex4()?;
                        // Combine a high surrogate with a following \uXXXX
                        // low surrogate; lone surrogates become U+FFFD.
                        let cp = if (0xd800..0xdc00).contains(&unit) {
                            let save = self.pos;
                            if self.bump() == Some(b'\\') && self.bump() == Some(b'u') {
                                let lo = self.hex4()?;
                                if (0xdc00..0xe000).contains(&lo) {
                                    0x10000 + ((unit - 0xd800) << 10) + (lo - 0xdc00)
                                } else {
                                    self.pos = save;
                                    0xfffd
                                }
                            } else {
                                self.pos = save;
                                0xfffd
                            }
                        } else if (0xdc00..0xe000).contains(&unit) {
                            0xfffd
                        } else {
                            unit
                        };
                        let c = char::from_u32(cp).unwrap_or('\u{fffd}');
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    _ => return Err(()),
                },
                b if b < 0x20 => return Err(()),
                b => out.push(b),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ()> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or(())?;
            let d = (b as char).to_digit(16).ok_or(())?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ()> {
        let start = self.pos;
        let mut float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(());
        }
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            let frac_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(());
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| ())?;
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>().map(Json::F64).map_err(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_documents() {
        let doc = Json::obj([
            ("name", Json::from("sRPC \"fast\"\npath")),
            ("count", Json::from(18_446_744_073_709_551_615u64)),
            ("delta", Json::from(-3i64)),
            ("ratio", Json::from(0.5)),
            ("whole", Json::from(2.0)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        let s = doc.render();
        assert!(s.contains("\"sRPC \\\"fast\\\"\\npath\""));
        assert!(s.contains("18446744073709551615"));
        assert!(s.contains("\"whole\":2.0"));
        assert!(is_well_formed(&s), "rendered JSON must parse: {s}");
    }

    #[test]
    fn nan_becomes_null() {
        let s = Json::F64(f64::NAN).render();
        assert_eq!(s, "null");
        assert!(is_well_formed(&s));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "[1,2.5,-3,1e9,\"x\",null,true,{\"k\":[false]}]",
            "  {\"a\" : \"b\\u0041\"} ",
        ] {
            assert!(is_well_formed(good), "{good}");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "nul",
            "[1] trailing",
            "\"unterminated",
            "01e",
            "NaN",
        ] {
            assert!(!is_well_formed(bad), "{bad}");
        }
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let doc = Json::obj([
            ("name", Json::from("квант \"q\" \\ path")),
            ("big", Json::U64(u64::MAX)),
            ("neg", Json::I64(-42)),
            ("ratio", Json::F64(1.5)),
            ("items", Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        let parsed = parse(&doc.render()).expect("round trip");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.get("big").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(parsed.get("ratio").and_then(Json::as_f64), Some(1.5));
        assert_eq!(
            parsed.get("name").and_then(Json::as_str),
            Some("квант \"q\" \\ path")
        );
        assert_eq!(
            parsed.get("items").and_then(Json::as_arr).map(|a| a.len()),
            Some(2)
        );
    }

    #[test]
    fn parse_decodes_unicode_escapes() {
        assert_eq!(parse("\"\\u0041\""), Ok(Json::Str("A".to_string())));
        // Surrogate pair → astral code point.
        assert_eq!(parse("\"\\ud83d\\ude00\""), Ok(Json::Str("😀".to_string())));
        // Lone surrogate degrades to the replacement character.
        assert_eq!(
            parse("\"\\ud800x\""),
            Ok(Json::Str("\u{fffd}x".to_string()))
        );
    }
}
