//! The one JSON reader of the suite: daemon requests, the events a client
//! reads back and run-manifest lines all go through [`Json::parse`]. The
//! workspace has no serialization framework, so this is a small
//! recursive-descent parser, and it treats every line as hostile: nesting
//! is depth-limited, nothing panics whatever the bytes, numbers keep their
//! literal text so integers read exactly ([`Json::as_u64`]), and `\u`
//! escapes take exactly four hex digits, with surrogate pairs decoded and
//! lone surrogates refused. Typed readers ([`crate::api`], [`crate::manifest`]) read their
//! fields by name, so field order and whitespace never matter to them.

/// Maximum nesting depth the parser follows. The suite's own lines nest
/// three levels at most; recursing far deeper would let a hostile client
/// overflow the daemon's stack.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value. Objects keep insertion order; duplicate keys keep
/// the last occurrence (looked up via reverse scan), matching common JSON
/// semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its literal text (checked against the JSON number
    /// grammar). Read it with [`Json::as_u64`].
    Num(String),
    /// A string, with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ⟨key, value⟩ pairs in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document. Trailing garbage, unterminated
    /// strings, bad escapes, and nesting deeper than 32 levels are all
    /// errors — never panics, whatever the input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup (last occurrence wins); `None` for non-objects.
    pub fn get(&self, field: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries
                .iter()
                .rev()
                .find(|(k, _)| k == field)
                .map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, for [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, for [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as an exact non-negative integer: only a plain decimal
    /// literal that fits `u64` reads. A sign, fraction or exponent (even
    /// `1.0` or `1e2`) and anything past `u64::MAX` are `None`, never
    /// rounded.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(text) if text.bytes().all(|b| b.is_ascii_digit()) => text.parse().ok(),
            _ => None,
        }
    }

    /// The items, for [`Json::Arr`].
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    /// Always on a char boundary: it only moves past ASCII bytes and whole
    /// runs of string content that end at an ASCII byte.
    pos: usize,
}

impl<'a> Parser<'a> {
    /// The unread input.
    fn rest(&self) -> &'a str {
        self.text.get(self.pos..).unwrap_or_default()
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.rest().starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(format!("unexpected character at byte {}", self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.items(b']', |p| p.value(depth + 1)).map(Json::Arr)
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        let entry = |p: &mut Self| {
            let key = p.string()?;
            p.skip_ws();
            p.eat(b':')?;
            p.skip_ws();
            Ok((key, p.value(depth + 1)?))
        };
        self.items(b'}', entry).map(Json::Obj)
    }

    /// The comma-separated items of an array or object whose opening
    /// bracket is next, through the `close` bracket.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => {
                    let close = char::from(close);
                    return Err(format!("expected ',' or '{close}' at byte {}", self.pos));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy everything up to the next quote or backslash at once:
            // both are ASCII, so the run ends on a char boundary.
            let rest = self.rest();
            let run = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            self.pos += run;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            let escape = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            match escape {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b't' => out.push('\t'),
                b'r' => out.push('\r'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => out.push(self.unicode_escape()?),
                _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
            }
        }
    }

    /// The scalar of a `\u` escape whose `\u` was just read: four hex
    /// digits, plus a second escape when they name a high surrogate.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos - 2;
        let high = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&high) {
            let low = match self.rest().strip_prefix("\\u") {
                Some(_) => {
                    self.pos += 2;
                    self.hex4()?
                }
                None => high,
            };
            if !(0xDC00..0xE000).contains(&low) {
                return Err(format!("unpaired surrogate \\u{high:04x} at byte {at}"));
            }
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        } else {
            high
        };
        // A low surrogate with no high one before it is no scalar.
        char::from_u32(code).ok_or_else(|| format!("unpaired surrogate \\u{code:04x} at byte {at}"))
    }

    /// Exactly four ASCII hex digits (no sign, no shorter run).
    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .rest()
            .as_bytes()
            .get(..4)
            .and_then(|digits| {
                digits
                    .iter()
                    .try_fold(0, |code, &d| Some(code * 16 + char::from(d).to_digit(16)?))
            })
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(code)
    }

    /// A number, kept as its literal text once it matches the JSON grammar
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let rest = self.rest();
        let end = rest
            .find(|c: char| !matches!(c, '-' | '+' | '.' | 'e' | 'E' | '0'..='9'))
            .unwrap_or(rest.len());
        let literal = &rest[..end];
        self.pos += end;
        let unsigned = literal.strip_prefix('-').unwrap_or(literal);
        let (mantissa, exponent) = unsigned.split_once(['e', 'E']).unwrap_or((unsigned, "0"));
        let (int, fraction) = mantissa.split_once('.').unwrap_or((mantissa, "0"));
        let exponent = exponent.strip_prefix(['+', '-']).unwrap_or(exponent);
        let digits = |d: &str| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit());
        if digits(int)
            && (int == "0" || !int.starts_with('0'))
            && digits(fraction)
            && digits(exponent)
        {
            Ok(Json::Num(literal.to_string()))
        } else {
            Err(format!("bad number '{literal}' at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_edge_values() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(
            Json::parse("{\"a\":{\"b\":[1,true,\"x\"]}}")
                .unwrap()
                .get("a")
                .and_then(|a| a.get("b"))
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(3)
        );
        // Duplicate keys: last wins.
        assert_eq!(
            Json::parse("{\"a\":1,\"a\":2}")
                .unwrap()
                .get("a")
                .and_then(Json::as_u64),
            Some(2)
        );
        // Exactly at the depth limit parses; one past it fails.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&too_deep).is_err());
    }

    #[test]
    fn integers_are_read_exactly_or_not_at_all() {
        let int = |text: &str| Json::parse(text).expect("a JSON number").as_u64();
        assert_eq!(int("0"), Some(0));
        assert_eq!(int("9007199254740993"), Some(9_007_199_254_740_993));
        assert_eq!(int("18446744073709551615"), Some(u64::MAX));
        for inexact in [
            "18446744073709551616",
            "-0",
            "-1",
            "1.0",
            "1e2",
            "0.99999999999999999999",
            "9007199254740990.7",
        ] {
            assert_eq!(int(inexact), None, "{inexact}");
        }
        for not_json in ["01", "+1", ".5", "1.", "1e", "1e+", "-", "--1", "0x10"] {
            assert!(Json::parse(not_json).is_err(), "{not_json}");
        }
    }

    #[test]
    fn unicode_escapes_are_strict() {
        let string = |text: &str| Json::parse(text).map(|v| v.as_str().map(str::to_string));
        assert_eq!(string(r#""\u0041\u00e9""#), Ok(Some("Aé".to_string())));
        // What Python's `json.dumps` writes for U+1F600: one scalar.
        assert_eq!(string(r#""\ud83d\ude00""#), Ok(Some("😀".to_string())));
        assert_eq!(string(r#""\uD83D\uDE00""#), Ok(Some("😀".to_string())));
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u12""#,
            r#""\u12g4""#,
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
        ] {
            assert!(string(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn non_ascii_content_passes_through_whole() {
        assert_eq!(
            Json::parse("[\"é😀\\n\",\"\"]").unwrap(),
            Json::Arr(vec![Json::Str("é😀\n".into()), Json::Str(String::new())])
        );
        assert!(Json::parse("é").is_err());
        assert!(Json::parse("\"é").is_err());
    }
}
