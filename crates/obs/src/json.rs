//! A deliberately tiny JSON reader/writer helper — just enough for the
//! observability layer to emit JSONL span events and for the trace checker
//! and tests to validate them, with no external dependencies.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Escape a string for embedding inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Arrays and objects nested deeper than this are refused, so a hostile
/// document cannot overflow the parser's stack. Nothing the repo emits is
/// more than 3 deep.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document. Errors carry a byte offset and a short reason.
/// Time is linear in the input's length.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser { src, b: src.as_bytes(), at: 0, depth: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.at != p.b.len() {
        return Err(format!("trailing content at byte {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    b: &'a [u8],
    at: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.at))
    }

    fn ws(&mut self) {
        while matches!(self.b.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.b.get(self.at) == Some(&c) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            self.err("bad literal")
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.at) {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => self.err("nesting too deep"),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a value"),
        }
    }

    /// Parse an array or object one level deeper.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.at += 1; // '{'
        let mut fields = Vec::new();
        self.ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            if !self.eat(b':') {
                return self.err("expected ':'");
            }
            self.ws();
            fields.push((key, self.value()?));
            self.ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            return self.err("expected ',' or '}'");
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.at += 1; // '['
        let mut items = Vec::new();
        self.ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            return self.err("expected ',' or ']'");
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return self.err("expected '\"'");
        }
        let mut out = String::new();
        loop {
            match self.b.get(self.at) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.b.get(self.at) {
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
                                .b
                                .get(self.at + 1..self.at + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                Some(c) => {
                                    out.push(c);
                                    self.at += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar: every byte the parser steps
                    // over singly is ASCII, so `at` is a char boundary.
                    let c = self.src[self.at..].chars().next().expect("non-empty");
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        let _ = self.eat(b'-');
        while matches!(self.b.get(self.at), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        if self.eat(b'.') {
            while matches!(self.b.get(self.at), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        if matches!(self.b.get(self.at), Some(b'e' | b'E')) {
            self.at += 1;
            if !self.eat(b'+') {
                let _ = self.eat(b'-');
            }
            while matches!(self.b.get(self.at), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        std::str::from_utf8(&self.b[start..self.at])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_span_line() {
        let line = r#"{"ts_us": 12, "span": "wal_append", "batch": 3, "muts": 7, "dur_us": 1.25}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("span").and_then(Json::as_str), Some("wal_append"));
        assert_eq!(v.get("muts").and_then(Json::as_num), Some(7.0));
        assert_eq!(v.get("dur_us").and_then(Json::as_num), Some(1.25));
    }

    #[test]
    fn parses_nesting_escapes_and_negatives() {
        let v = parse(r#"{"a": [1, -2.5e1, "x\n\"yA"], "b": {"c": null, "d": false}}"#).unwrap();
        let arr = match v.get("a").unwrap() {
            Json::Arr(items) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr[1].as_num(), Some(-25.0));
        assert_eq!(arr[2].as_str(), Some("x\n\"yA"));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "nul", "\"open", "{\"a\":1} extra"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("{{\"k\": \"{}\"}}", escape(nasty));
        assert_eq!(parse(&doc).unwrap().get("k").and_then(Json::as_str), Some(nasty));
    }
}
