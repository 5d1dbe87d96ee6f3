//! The streaming JSON writer every [`Serialize`](crate::Serialize) impl
//! writes through.

use std::fmt;

/// Writes JSON text into any [`fmt::Write`] sink — a `String`, or a hasher
/// that implements `fmt::Write` — in compact form or indented by two spaces
/// per level, like upstream `serde_json`'s pretty printer.
///
/// Containers are written as `begin_*`, then one [`Self::elem`] (arrays) or
/// key (objects) before each value, then `end_*`. An empty container renders
/// as `[]`/`{}` in both forms.
pub struct Writer<W> {
    out: W,
    pretty: bool,
    depth: usize,
    /// Nothing written yet inside the innermost open container.
    first: bool,
}

impl<W: fmt::Write> Writer<W> {
    /// A writer producing compact JSON.
    pub fn compact(out: W) -> Self {
        Self {
            out,
            pretty: false,
            depth: 0,
            first: true,
        }
    }

    /// A writer producing indented JSON.
    pub fn pretty(out: W) -> Self {
        Self {
            pretty: true,
            ..Self::compact(out)
        }
    }

    /// JSON `null`.
    pub fn null(&mut self) -> fmt::Result {
        self.out.write_str("null")
    }

    /// JSON boolean.
    pub fn bool(&mut self, b: bool) -> fmt::Result {
        self.out.write_str(if b { "true" } else { "false" })
    }

    /// Unsigned integer.
    pub fn u64(&mut self, n: u64) -> fmt::Result {
        write!(self.out, "{n}")
    }

    /// Signed integer.
    pub fn i64(&mut self, n: i64) -> fmt::Result {
        write!(self.out, "{n}")
    }

    /// Floating point number; non-finite values render as `null`.
    pub fn f64(&mut self, f: f64) -> fmt::Result {
        if !f.is_finite() {
            return self.null();
        }
        write!(self.out, "{f}")?;
        // `{}` never uses an exponent and renders integral values without
        // a point ("1"); keep them floats so round-trips preserve the
        // numeric class where it matters.
        if f.fract() == 0.0 {
            self.out.write_str(".0")?;
        }
        Ok(())
    }

    /// A string, quoted and escaped.
    pub fn str(&mut self, s: &str) -> fmt::Result {
        self.out.write_char('"')?;
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
                continue;
            }
            self.out.write_str(&s[run..i])?;
            match b {
                b'"' => self.out.write_str("\\\""),
                b'\\' => self.out.write_str("\\\\"),
                b'\n' => self.out.write_str("\\n"),
                b'\r' => self.out.write_str("\\r"),
                b'\t' => self.out.write_str("\\t"),
                _ => write!(self.out, "\\u{b:04x}"),
            }?;
            run = i + 1;
        }
        self.out.write_str(&s[run..])?;
        self.out.write_char('"')
    }

    /// A string literal that is already quoted and escaped (derived enum
    /// tags).
    pub fn raw(&mut self, lit: &str) -> fmt::Result {
        self.out.write_str(lit)
    }

    /// Open an array.
    pub fn begin_seq(&mut self) -> fmt::Result {
        self.open('[')
    }

    /// Start the next array element.
    pub fn elem(&mut self) -> fmt::Result {
        self.separate()
    }

    /// Close an array.
    pub fn end_seq(&mut self) -> fmt::Result {
        self.close(']')
    }

    /// An array of `items`.
    pub fn seq<'a, T: crate::Serialize + 'a>(
        &mut self,
        items: impl IntoIterator<Item = &'a T>,
    ) -> fmt::Result {
        self.begin_seq()?;
        for x in items {
            self.elem()?;
            x.serialize(self)?;
        }
        self.end_seq()
    }

    /// Open an object.
    pub fn begin_map(&mut self) -> fmt::Result {
        self.open('{')
    }

    /// Start the next object entry with key `k`.
    pub fn key(&mut self, k: &str) -> fmt::Result {
        self.separate()?;
        self.str(k)?;
        self.colon()
    }

    /// Start the next object entry with a key that is already quoted and
    /// escaped (derived field names).
    pub fn raw_key(&mut self, lit: &str) -> fmt::Result {
        self.separate()?;
        self.out.write_str(lit)?;
        self.colon()
    }

    /// Close an object.
    pub fn end_map(&mut self) -> fmt::Result {
        self.close('}')
    }

    /// An object of `entries`, in iteration order.
    pub fn map<'a, V: crate::Serialize + 'a>(
        &mut self,
        entries: impl IntoIterator<Item = (&'a str, &'a V)>,
    ) -> fmt::Result {
        self.begin_map()?;
        for (k, v) in entries {
            self.key(k)?;
            v.serialize(self)?;
        }
        self.end_map()
    }

    fn open(&mut self, c: char) -> fmt::Result {
        self.depth += 1;
        self.first = true;
        self.out.write_char(c)
    }

    fn close(&mut self, c: char) -> fmt::Result {
        self.depth -= 1;
        if !self.first {
            self.newline()?;
        }
        // Back in the parent, which has just written this value.
        self.first = false;
        self.out.write_char(c)
    }

    fn separate(&mut self) -> fmt::Result {
        if !self.first {
            self.out.write_char(',')?;
        }
        self.first = false;
        self.newline()
    }

    fn newline(&mut self) -> fmt::Result {
        if self.pretty {
            self.out.write_char('\n')?;
            for _ in 0..self.depth {
                self.out.write_str("  ")?;
            }
        }
        Ok(())
    }

    fn colon(&mut self) -> fmt::Result {
        self.out.write_str(if self.pretty { ": " } else { ":" })
    }
}
