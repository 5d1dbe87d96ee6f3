//! Hand-written lexer.
//!
//! Produces a flat token stream with [`Span`]s; `//` comments run to end of
//! line. The keyword set is closed — anything alphabetic that is not a
//! keyword is an identifier, so specs may freely use protocol vocabulary
//! (`AttachRequest`, `RegisteredInitiated`, ...) as names.

use crate::diag::{Diagnostic, Span};

/// Token kinds. Keywords are split out so the parser never string-compares.
#[allow(missing_docs)] // variant names restate their lexemes
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    // Keywords.
    Spec,
    Instance,
    Msg,
    Chan,
    From,
    To,
    Cap,
    Lossy,
    Dup,
    Global,
    Proc,
    Var,
    Init,
    State,
    When,
    Recv,
    Send,
    Goto,
    As,
    Bool,
    Int,
    True,
    False,
    Always,
    Never,
    Eventually,
    Boundary,
    Timer,
    Deadline,
    Start,
    Stop,
    Expire,
    Atomic,
    // Literals and names.
    Ident(String),
    Number(i64),
    Str(String),
    // Punctuation and operators.
    Semi,
    Colon,
    Comma,
    LBrace,
    RBrace,
    LParen,
    RParen,
    At,
    Dot,
    DotDot,
    Assign,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Not,
    Plus,
    Minus,
    /// End of input (single trailing token; simplifies the parser).
    Eof,
}

impl Tok {
    /// Human name used in "expected X, found Y" errors.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Number(n) => format!("number `{n}`"),
            Tok::Str(s) => format!("string {s:?}"),
            Tok::Eof => "end of input".into(),
            other => format!("`{}`", other.lexeme()),
        }
    }

    /// The literal source text of fixed tokens (used by `describe` and the
    /// AST pretty-printer).
    pub fn lexeme(&self) -> &'static str {
        match self {
            Tok::Spec => "spec",
            Tok::Instance => "instance",
            Tok::Msg => "msg",
            Tok::Chan => "chan",
            Tok::From => "from",
            Tok::To => "to",
            Tok::Cap => "cap",
            Tok::Lossy => "lossy",
            Tok::Dup => "dup",
            Tok::Global => "global",
            Tok::Proc => "proc",
            Tok::Var => "var",
            Tok::Init => "init",
            Tok::State => "state",
            Tok::When => "when",
            Tok::Recv => "recv",
            Tok::Send => "send",
            Tok::Goto => "goto",
            Tok::As => "as",
            Tok::Bool => "bool",
            Tok::Int => "int",
            Tok::True => "true",
            Tok::False => "false",
            Tok::Always => "always",
            Tok::Never => "never",
            Tok::Eventually => "eventually",
            Tok::Boundary => "boundary",
            Tok::Timer => "timer",
            Tok::Deadline => "deadline",
            Tok::Start => "start",
            Tok::Stop => "stop",
            Tok::Expire => "expire",
            Tok::Atomic => "atomic",
            Tok::Semi => ";",
            Tok::Colon => ":",
            Tok::Comma => ",",
            Tok::LBrace => "{",
            Tok::RBrace => "}",
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::At => "@",
            Tok::Dot => ".",
            Tok::DotDot => "..",
            Tok::Assign => "=",
            Tok::Eq => "==",
            Tok::Ne => "!=",
            Tok::Lt => "<",
            Tok::Le => "<=",
            Tok::Gt => ">",
            Tok::Ge => ">=",
            Tok::AndAnd => "&&",
            Tok::OrOr => "||",
            Tok::Not => "!",
            Tok::Plus => "+",
            Tok::Minus => "-",
            Tok::Ident(_) | Tok::Number(_) | Tok::Str(_) | Tok::Eof => "",
        }
    }
}

/// A token plus where it came from.
#[derive(Clone, Debug)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// Its source range.
    pub span: Span,
}

fn keyword(s: &str) -> Option<Tok> {
    Some(match s {
        "spec" => Tok::Spec,
        "instance" => Tok::Instance,
        "msg" => Tok::Msg,
        "chan" => Tok::Chan,
        "from" => Tok::From,
        "to" => Tok::To,
        "cap" => Tok::Cap,
        "lossy" => Tok::Lossy,
        "dup" => Tok::Dup,
        "global" => Tok::Global,
        "proc" => Tok::Proc,
        "var" => Tok::Var,
        "init" => Tok::Init,
        "state" => Tok::State,
        "when" => Tok::When,
        "recv" => Tok::Recv,
        "send" => Tok::Send,
        "goto" => Tok::Goto,
        "as" => Tok::As,
        "bool" => Tok::Bool,
        "int" => Tok::Int,
        "true" => Tok::True,
        "false" => Tok::False,
        "always" => Tok::Always,
        "never" => Tok::Never,
        "eventually" => Tok::Eventually,
        "boundary" => Tok::Boundary,
        "timer" => Tok::Timer,
        "deadline" => Tok::Deadline,
        "start" => Tok::Start,
        "stop" => Tok::Stop,
        "expire" => Tok::Expire,
        "atomic" => Tok::Atomic,
        _ => return None,
    })
}

/// Tokenize the whole source, or report the first lexical error.
pub fn lex(source: &str) -> Result<Vec<Token>, Diagnostic> {
    let bytes = source.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;
    let mut col: u32 = 1;
    macro_rules! push {
        ($tok:expr, $start:expr, $len:expr, $scol:expr) => {
            toks.push(Token {
                tok: $tok,
                span: Span {
                    start: $start,
                    end: $start + $len,
                    line,
                    col: $scol,
                },
            })
        };
    }
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            ' ' | '\t' | '\r' => {
                i += 1;
                col += 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                let scol = col;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                    col += 1;
                }
                let word = &source[start..i];
                let tok = keyword(word).unwrap_or_else(|| Tok::Ident(word.to_string()));
                push!(tok, start, i - start, scol);
            }
            '0'..='9' => {
                let start = i;
                let scol = col;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                    col += 1;
                }
                let text = &source[start..i];
                let n: i64 = text.parse().map_err(|_| {
                    Diagnostic::new(
                        format!("number `{text}` is too large"),
                        Span {
                            start,
                            end: i,
                            line,
                            col: scol,
                        },
                    )
                })?;
                push!(Tok::Number(n), start, i - start, scol);
            }
            '"' => {
                let start = i;
                let scol = col;
                i += 1;
                col += 1;
                let text_start = i;
                while i < bytes.len() && bytes[i] != b'"' && bytes[i] != b'\n' {
                    i += 1;
                    col += 1;
                }
                if bytes.get(i) != Some(&b'"') {
                    return Err(Diagnostic::new(
                        "unterminated string literal",
                        Span {
                            start,
                            end: i,
                            line,
                            col: scol,
                        },
                    ));
                }
                let text = source[text_start..i].to_string();
                i += 1;
                col += 1;
                push!(Tok::Str(text), start, i - start, scol);
            }
            _ => {
                let start = i;
                let scol = col;
                let two = |a: u8, b: u8| bytes[i] == a && bytes.get(i + 1) == Some(&b);
                let (tok, len) = if two(b'.', b'.') {
                    (Tok::DotDot, 2)
                } else if two(b'=', b'=') {
                    (Tok::Eq, 2)
                } else if two(b'!', b'=') {
                    (Tok::Ne, 2)
                } else if two(b'<', b'=') {
                    (Tok::Le, 2)
                } else if two(b'>', b'=') {
                    (Tok::Ge, 2)
                } else if two(b'&', b'&') {
                    (Tok::AndAnd, 2)
                } else if two(b'|', b'|') {
                    (Tok::OrOr, 2)
                } else {
                    let t = match c {
                        ';' => Tok::Semi,
                        ':' => Tok::Colon,
                        ',' => Tok::Comma,
                        '{' => Tok::LBrace,
                        '}' => Tok::RBrace,
                        '(' => Tok::LParen,
                        ')' => Tok::RParen,
                        '@' => Tok::At,
                        '.' => Tok::Dot,
                        '=' => Tok::Assign,
                        '<' => Tok::Lt,
                        '>' => Tok::Gt,
                        '!' => Tok::Not,
                        '+' => Tok::Plus,
                        '-' => Tok::Minus,
                        other => {
                            return Err(Diagnostic::new(
                                format!("unexpected character `{other}`"),
                                Span {
                                    start,
                                    end: start + c.len_utf8(),
                                    line,
                                    col: scol,
                                },
                            ))
                        }
                    };
                    (t, 1)
                };
                i += len;
                col += len as u32;
                push!(tok, start, len, scol);
            }
        }
    }
    toks.push(Token {
        tok: Tok::Eof,
        span: Span::point(bytes.len(), line, col),
    });
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_keywords_idents_numbers() {
        assert_eq!(
            kinds("proc dev { var x: int 0..5 = 3; }"),
            vec![
                Tok::Proc,
                Tok::Ident("dev".into()),
                Tok::LBrace,
                Tok::Var,
                Tok::Ident("x".into()),
                Tok::Colon,
                Tok::Int,
                Tok::Number(0),
                Tok::DotDot,
                Tok::Number(5),
                Tok::Assign,
                Tok::Number(3),
                Tok::Semi,
                Tok::RBrace,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn two_char_operators_win_over_one_char() {
        assert_eq!(
            kinds("a <= b == c && !d"),
            vec![
                Tok::Ident("a".into()),
                Tok::Le,
                Tok::Ident("b".into()),
                Tok::Eq,
                Tok::Ident("c".into()),
                Tok::AndAnd,
                Tok::Not,
                Tok::Ident("d".into()),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn comments_and_strings() {
        let toks = kinds("when x as \"retry timer\" // trailing\n{ }");
        assert!(toks.contains(&Tok::Str("retry timer".into())));
        assert!(!toks
            .iter()
            .any(|t| matches!(t, Tok::Ident(s) if s == "trailing")));
    }

    #[test]
    fn spans_carry_line_and_col() {
        let toks = lex("spec a;\n  chan b;").unwrap();
        let chan = toks.iter().find(|t| t.tok == Tok::Chan).unwrap();
        assert_eq!((chan.span.line, chan.span.col), (2, 3));
    }

    #[test]
    fn rejects_unknown_character() {
        let err = lex("spec $x;").unwrap_err();
        assert!(err.message.contains('$'));
        assert_eq!(err.span.col, 6);
    }

    #[test]
    fn rejects_unterminated_string() {
        let err = lex("as \"oops\nnext").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }
}
