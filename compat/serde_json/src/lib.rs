//! Offline JSON rendering/parsing over the workspace `serde` subset.
//!
//! Provides the three entry points this repository uses — [`to_string`],
//! [`to_string_pretty`], [`from_str`]. Rendering streams through
//! [`serde::Writer`] into a `String`; parsing builds the owned
//! [`serde::Value`] tree, which callers read field by field. Nothing
//! decodes JSON into a typed value.

#![forbid(unsafe_code)]

pub use serde::Error;
pub use serde::Value;
use serde::{Serialize, Writer};

/// How deep arrays and objects may nest before [`from_str`] gives up with
/// an error instead of recursing further: upstream serde_json's limit.
const MAX_DEPTH: usize = 128;

/// Render a serializable value as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value
        .serialize(&mut Writer::compact(&mut out))
        .map_err(Error::msg)?;
    Ok(out)
}

/// Render a serializable value as indented JSON (2 spaces, like upstream).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value
        .serialize(&mut Writer::pretty(&mut out))
        .map_err(Error::msg)?;
    Ok(out)
}

/// Parse JSON text into a [`Value`] tree. Input that is not one complete
/// JSON value, or that nests arrays and objects more than 128 deep, is an
/// error naming the byte offset where parsing stopped.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

// ----------------------------------------------------------------------
// Parsing
// ----------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(Error(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                v
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error(format!(
                "unexpected input {other:?} at byte {}",
                self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, kw: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error("invalid UTF-8 in string".into()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error("unterminated escape".into()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error("short \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by this
                            // crate's writer; reject them on input.
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("invalid \\u code point".into()))?,
                            );
                        }
                        other => return Err(Error(format!("bad escape `\\{}`", other as char))),
                    }
                }
                _ => return Err(Error("unterminated string".into())),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error(format!("invalid number `{text}`")))
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(xs));
        }
        loop {
            xs.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(xs));
                }
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(entries: &[(&str, Value)]) -> Value {
        Value::Map(
            entries
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    /// Render `value`, parse the text back and check it gives `want` and
    /// re-renders to the same text.
    fn roundtrip<T: Serialize + ?Sized>(value: &T, want: Value) {
        let text = to_string(value).unwrap();
        let back = from_str(&text).unwrap();
        assert_eq!(back, want, "{text}");
        assert_eq!(to_string(&back).unwrap(), text);
    }

    #[test]
    fn roundtrip_primitives() {
        roundtrip(&7u32, Value::U64(7));
        roundtrip(&u64::MAX, Value::U64(u64::MAX));
        roundtrip(&-3i64, Value::I64(-3));
        roundtrip(&-0.5f64, Value::F64(-0.5));
        roundtrip(&true, Value::Bool(true));
        roundtrip("hi", Value::Str("hi".into()));
        roundtrip(&Option::<u8>::None, Value::Null);
        roundtrip(
            &vec![1u8, 2, 3],
            Value::Seq(vec![Value::U64(1), Value::U64(2), Value::U64(3)]),
        );
        roundtrip(&Vec::<u8>::new(), Value::Seq(vec![]));
        for (text, want) in [
            (" false ", Value::Bool(false)),
            ("1e3", Value::F64(1000.0)),
            ("{}", Value::Map(vec![])),
        ] {
            assert_eq!(from_str(text).unwrap(), want, "{text}");
        }
    }

    #[test]
    fn roundtrip_vec_of_tuples() {
        let row = |n: u64, s: &str, b: bool| {
            Value::Seq(vec![Value::U64(n), Value::Str(s.into()), Value::Bool(b)])
        };
        roundtrip(
            &vec![
                (1u64, "a".to_string(), true),
                (2, "b\"x".to_string(), false),
            ],
            Value::Seq(vec![row(1, "a", true), row(2, "b\"x", false)]),
        );
    }

    #[test]
    fn parses_escapes_and_nesting() {
        let cases = [
            (
                r#"[null, "a\nb", "A"]"#,
                Value::Seq(vec![
                    Value::Null,
                    Value::Str("a\nb".into()),
                    Value::Str("A".into()),
                ]),
            ),
            (r#""a\nb\"\\\/\u00e9""#, Value::Str("a\nb\"\\/é".into())),
            (
                r#"[null, "a\nb", [1, [2]]]"#,
                Value::Seq(vec![
                    Value::Null,
                    Value::Str("a\nb".into()),
                    Value::Seq(vec![Value::U64(1), Value::Seq(vec![Value::U64(2)])]),
                ]),
            ),
            (
                r#"{ "b": {"x": []}, "a": -1 }"#,
                map(&[
                    ("b", map(&[("x", Value::Seq(vec![]))])),
                    ("a", Value::I64(-1)),
                ]),
            ),
        ];
        for (text, want) in cases {
            assert_eq!(from_str(text).unwrap(), want, "{text}");
        }
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = vec![1u8, 2];
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains("\n  1"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str("true x").is_err());
    }

    #[test]
    fn float_keeps_decimal_point() {
        let text = to_string(&1.0f64).unwrap();
        assert_eq!(text, "1.0");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(from_str(&"[".repeat(100_000)).is_err());
        assert!(from_str(&"{\"k\":".repeat(100_000)).is_err());
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(from_str(&nest(MAX_DEPTH)).is_ok());
        let err = from_str(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.0.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
    }
}
