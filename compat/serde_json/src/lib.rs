//! Offline JSON rendering/parsing over the workspace `serde` subset.
//!
//! Provides the three entry points this repository uses — [`to_string`],
//! [`to_string_pretty`], [`from_str`]. Rendering streams through
//! [`serde::Writer`] into a `String`; parsing builds the owned
//! [`serde::Value`] tree that [`Deserialize`] impls read.

#![forbid(unsafe_code)]

pub use serde::Error;
pub use serde::Value;
use serde::{Deserialize, Serialize, Writer};

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

/// Parse JSON text and rebuild a deserializable value.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    T::from_value(&v)
}

// ----------------------------------------------------------------------
// Parsing
// ----------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
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

    #[test]
    fn roundtrip_primitives() {
        assert_eq!(from_str::<u32>(&to_string(&7u32).unwrap()).unwrap(), 7);
        assert_eq!(from_str::<i64>(&to_string(&-3i64).unwrap()).unwrap(), -3);
        assert!(from_str::<bool>(&to_string(&true).unwrap()).unwrap());
        assert_eq!(from_str::<String>(&to_string("hi").unwrap()).unwrap(), "hi");
        assert_eq!(
            from_str::<Option<u8>>(&to_string(&Option::<u8>::None).unwrap()).unwrap(),
            None
        );
        assert_eq!(
            from_str::<Vec<u8>>(&to_string(&vec![1u8, 2, 3]).unwrap()).unwrap(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn roundtrip_vec_of_tuples() {
        let v = vec![
            (1u64, "a".to_string(), true),
            (2, "b\"x".to_string(), false),
        ];
        let text = to_string(&v).unwrap();
        let back: Vec<(u64, String, bool)> = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = vec![1u8, 2];
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains("\n  1"));
    }

    #[test]
    fn parses_escapes_and_nesting() {
        let v: Vec<Option<String>> = from_str(r#"[null, "a\nb", "A"]"#).unwrap();
        assert_eq!(
            v,
            vec![None, Some("a\nb".to_string()), Some("A".to_string())]
        );
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<bool>("true x").is_err());
    }

    #[test]
    fn float_keeps_decimal_point() {
        let text = to_string(&1.0f64).unwrap();
        assert_eq!(text, "1.0");
    }
}
