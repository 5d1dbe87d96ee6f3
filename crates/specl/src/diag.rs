//! Source spans and caret diagnostics.
//!
//! Every error out of the lexer, parser and semantic analysis carries a
//! [`Span`] into the original source text; [`Diagnostic::render`] turns it
//! into the classic compiler shape — file, line and column, the offending
//! source line, and a caret run underneath:
//!
//! ```text
//! error: unknown channel `uplink`
//!   --> specs/attach.specl:14:10
//!    |
//! 14 |     send uplink AttachRequest;
//!    |          ^^^^^^
//! ```

use std::fmt;

/// A half-open byte range into the spec source, with the 1-based line and
/// column of its start (precomputed by the lexer so later passes never need
/// the source to locate themselves).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column of `start` (in characters).
    pub col: u32,
}

impl Span {
    /// A span covering a single point (zero-width; renders one caret).
    pub fn point(start: usize, line: u32, col: u32) -> Self {
        Self {
            start,
            end: start,
            line,
            col,
        }
    }

    /// The span from the start of `self` to the end of `other`.
    pub fn to(self, other: Span) -> Self {
        Self {
            start: self.start,
            end: other.end.max(self.start),
            line: self.line,
            col: self.col,
        }
    }
}

/// One error, pinned to a source location.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// What went wrong, in one sentence.
    pub message: String,
    /// Where.
    pub span: Span,
}

impl Diagnostic {
    /// Build a diagnostic.
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        Self {
            message: message.into(),
            span,
        }
    }

    /// Render with the caret snippet. `file` is whatever name the caller
    /// wants shown (a path, `<inline>`, ...); `source` must be the exact
    /// text the spec was parsed from.
    pub fn render(&self, file: &str, source: &str) -> String {
        let line_no = self.span.line as usize;
        let src_line = source.lines().nth(line_no.saturating_sub(1)).unwrap_or("");
        let gutter = line_no.to_string();
        let pad = " ".repeat(gutter.len());
        // Caret run: at least one caret, at most to the end of the line.
        let col = self.span.col.saturating_sub(1) as usize;
        let width = self
            .span
            .end
            .saturating_sub(self.span.start)
            .clamp(1, src_line.chars().count().saturating_sub(col).max(1));
        format!(
            "error: {msg}\n{pad}--> {file}:{line}:{col}\n{pad} |\n{gutter} | {src}\n{pad} | {lead}{carets}\n",
            msg = self.message,
            line = line_no,
            col = self.span.col,
            src = src_line,
            lead = " ".repeat(col),
            carets = "^".repeat(width),
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.span.line, self.span.col, self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_points_caret_at_column() {
        let src = "spec x;\nchan bad;\n";
        let d = Diagnostic::new(
            "unknown keyword `bad`",
            Span {
                start: 13,
                end: 16,
                line: 2,
                col: 6,
            },
        );
        let out = d.render("demo.specl", src);
        assert!(out.contains("error: unknown keyword `bad`"));
        assert!(out.contains("--> demo.specl:2:6"));
        assert!(out.contains("2 | chan bad;"));
        assert!(out.contains("|      ^^^"), "caret under `bad`:\n{out}");
    }

    #[test]
    fn zero_width_span_still_draws_one_caret() {
        let src = "spec x\n";
        let d = Diagnostic::new("expected `;`", Span::point(6, 1, 7));
        let out = d.render("f", src);
        assert!(out.contains("^"));
    }

    #[test]
    fn display_is_compact() {
        let d = Diagnostic::new("boom", Span::point(0, 3, 9));
        assert_eq!(d.to_string(), "3:9: boom");
    }
}
