//! Recursive-descent parser.
//!
//! Grammar (EBNF, `[]` optional, `*` repetition):
//!
//! ```text
//! Spec     := "spec" IDENT ";" Item*
//! Item     := "instance" IDENT ";"
//!           | "msg" IDENT ("," IDENT)* ";"
//!           | "chan" IDENT "from" IDENT "to" IDENT "cap" NUM ["lossy"] ["dup" NUM] ";"
//!           | ("timer" | "deadline") IDENT "=" NUM ";"
//!           | "global" IDENT ":" Ty "=" Lit ";"
//!           | "proc" IDENT "{" ProcItem* "}"
//!           | ("always" | "never" | "eventually") IDENT ":" Expr ";"
//!           | "boundary" ":" Expr ";"
//! Ty       := "bool" | "int" NUM ".." NUM
//! Lit      := "true" | "false" | NUM
//! ProcItem := "var" IDENT ":" Ty "=" Lit ";"
//!           | "init" Block
//!           | "state" IDENT "{" Edge* "}"
//! Edge     := ["atomic"] EdgeCore
//! EdgeCore := "when" Expr ["as" STR] Block
//!           | "recv" IDENT IDENT ["when" Expr] ["as" STR] Block
//!           | "expire" IDENT ["when" Expr] ["as" STR] Block
//! Block    := "{" Stmt* "}"
//! Stmt     := "send" IDENT IDENT ";" | "goto" IDENT ";"
//!           | "start" IDENT ";" | "stop" IDENT ";" | IDENT "=" Expr ";"
//! Expr     := Or ;  Or := And ("||" And)* ;  And := Cmp ("&&" Cmp)*
//! Cmp      := Add [("==" | "!=" | "<" | "<=" | ">" | ">=") Add]
//! Add      := Unary (("+" | "-") Unary)*
//! Unary    := ("!" | "-") Unary | Primary
//! Primary  := NUM | "true" | "false" | "(" Expr ")"
//!           | IDENT ["." IDENT | "@" IDENT]
//! ```
//!
//! Comparisons do not chain (`a == b == c` is a parse error); `&&`/`||`
//! associate left. The parser stops at the first error and reports it with
//! the offending token's span.

use crate::ast::*;
use crate::diag::{Diagnostic, Span};
use crate::lexer::{lex, Tok, Token};

/// Parse a complete spec source, or report the first error.
pub fn parse(source: &str) -> Result<Spec, Diagnostic> {
    let toks = lex(source)?;
    Parser { toks, pos: 0 }.spec()
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek_span(&self) -> Span {
        self.toks[self.pos].span
    }

    /// Consume the current token. Its `Tok` moves out and leaves `Eof`
    /// behind, while the slot keeps its span for the `pos - 1` read in
    /// [`Parser::edge`]. The trailing `Eof` is never consumed, so `peek`
    /// always has a token.
    fn bump(&mut self) -> Token {
        let span = self.toks[self.pos].span;
        if self.pos + 1 == self.toks.len() {
            return Token {
                tok: Tok::Eof,
                span,
            };
        }
        let tok = std::mem::replace(&mut self.toks[self.pos].tok, Tok::Eof);
        self.pos += 1;
        Token { tok, span }
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<Token, Diagnostic> {
        if self.peek() == &tok {
            Ok(self.bump())
        } else {
            Err(Diagnostic::new(
                format!(
                    "expected `{}`, found {}",
                    tok.lexeme(),
                    self.peek().describe()
                ),
                self.peek_span(),
            ))
        }
    }

    fn ident(&mut self, what: &str) -> Result<Ident, Diagnostic> {
        match self.peek() {
            Tok::Ident(_) => {
                let Token {
                    tok: Tok::Ident(name),
                    span,
                } = self.bump()
                else {
                    unreachable!("peeked an identifier")
                };
                Ok(Ident { name, span })
            }
            other => Err(Diagnostic::new(
                format!("expected {what}, found {}", other.describe()),
                self.peek_span(),
            )),
        }
    }

    fn number(&mut self, what: &str) -> Result<(i64, Span), Diagnostic> {
        match *self.peek() {
            Tok::Number(n) => {
                let t = self.bump();
                Ok((n, t.span))
            }
            ref other => Err(Diagnostic::new(
                format!("expected {what}, found {}", other.describe()),
                self.peek_span(),
            )),
        }
    }

    fn spec(&mut self) -> Result<Spec, Diagnostic> {
        self.expect(Tok::Spec)?;
        let name = self.ident("spec name")?;
        self.expect(Tok::Semi)?;
        let mut spec = Spec {
            name,
            instance: None,
            msgs: Vec::new(),
            chans: Vec::new(),
            timers: Vec::new(),
            globals: Vec::new(),
            procs: Vec::new(),
            props: Vec::new(),
            boundary: None,
        };
        loop {
            match *self.peek() {
                Tok::Eof => break,
                Tok::Instance => {
                    let kw = self.bump();
                    let tag = self.ident("instance tag")?;
                    self.expect(Tok::Semi)?;
                    if spec.instance.is_some() {
                        return Err(Diagnostic::new("duplicate `instance` declaration", kw.span));
                    }
                    spec.instance = Some(tag);
                }
                Tok::Msg => {
                    self.bump();
                    spec.msgs.push(self.ident("message name")?);
                    while self.eat(&Tok::Comma) {
                        spec.msgs.push(self.ident("message name")?);
                    }
                    self.expect(Tok::Semi)?;
                }
                Tok::Chan => spec.chans.push(self.chan_decl()?),
                Tok::Timer | Tok::Deadline => {
                    let kw = self.bump();
                    let oneshot = kw.tok == Tok::Deadline;
                    let name = self.ident("timer name")?;
                    self.expect(Tok::Assign)?;
                    let (duration, _) = self.number("timer duration")?;
                    let end = self.expect(Tok::Semi)?;
                    spec.timers.push(TimerDecl {
                        name,
                        duration,
                        oneshot,
                        span: kw.span.to(end.span),
                    });
                }
                Tok::Global => {
                    self.bump();
                    spec.globals.push(self.var_decl()?);
                }
                Tok::Proc => spec.procs.push(self.proc_decl()?),
                Tok::Always => spec.props.push(self.prop_decl(Quant::Always)?),
                Tok::Never => spec.props.push(self.prop_decl(Quant::Never)?),
                Tok::Eventually => spec.props.push(self.prop_decl(Quant::Eventually)?),
                Tok::Boundary => {
                    let kw = self.bump();
                    self.expect(Tok::Colon)?;
                    let e = self.expr()?;
                    self.expect(Tok::Semi)?;
                    if spec.boundary.is_some() {
                        return Err(Diagnostic::new("duplicate `boundary` clause", kw.span));
                    }
                    spec.boundary = Some(e);
                }
                ref other => {
                    return Err(Diagnostic::new(
                        format!(
                            "expected a declaration (`msg`, `chan`, `timer`, `deadline`, \
                             `global`, `proc`, `always`, `never`, `eventually`, \
                             `boundary`), found {}",
                            other.describe()
                        ),
                        self.peek_span(),
                    ))
                }
            }
        }
        Ok(spec)
    }

    fn chan_decl(&mut self) -> Result<ChanDecl, Diagnostic> {
        let kw = self.expect(Tok::Chan)?;
        let name = self.ident("channel name")?;
        self.expect(Tok::From)?;
        let from = self.ident("sending process")?;
        self.expect(Tok::To)?;
        let to = self.ident("receiving process")?;
        self.expect(Tok::Cap)?;
        let (cap, cap_span) = self.number("channel capacity")?;
        let lossy = self.eat(&Tok::Lossy);
        let dup = if self.eat(&Tok::Dup) {
            Some(self.number("duplication budget")?.0)
        } else {
            None
        };
        let end = self.expect(Tok::Semi)?;
        let _ = cap_span;
        Ok(ChanDecl {
            name,
            from,
            to,
            cap,
            lossy,
            dup,
            span: kw.span.to(end.span),
        })
    }

    fn ty(&mut self) -> Result<Ty, Diagnostic> {
        if self.eat(&Tok::Bool) {
            Ok(Ty::Bool)
        } else if self.eat(&Tok::Int) {
            let (lo, _) = self.number("lower bound")?;
            self.expect(Tok::DotDot)?;
            let (hi, _) = self.number("upper bound")?;
            Ok(Ty::Int { lo, hi })
        } else {
            Err(Diagnostic::new(
                format!(
                    "expected a type (`bool` or `int lo..hi`), found {}",
                    self.peek().describe()
                ),
                self.peek_span(),
            ))
        }
    }

    fn literal(&mut self) -> Result<Literal, Diagnostic> {
        match *self.peek() {
            Tok::True => {
                self.bump();
                Ok(Literal::Bool(true))
            }
            Tok::False => {
                self.bump();
                Ok(Literal::Bool(false))
            }
            Tok::Number(n) => {
                self.bump();
                Ok(Literal::Int(n))
            }
            ref other => Err(Diagnostic::new(
                format!("expected a literal initializer, found {}", other.describe()),
                self.peek_span(),
            )),
        }
    }

    /// `NAME ":" Ty "=" Lit ";"` — the `var`/`global` keyword is consumed by
    /// the caller.
    fn var_decl(&mut self) -> Result<VarDecl, Diagnostic> {
        let name = self.ident("variable name")?;
        self.expect(Tok::Colon)?;
        let ty = self.ty()?;
        self.expect(Tok::Assign)?;
        let init = self.literal()?;
        let end = self.expect(Tok::Semi)?;
        let span = name.span.to(end.span);
        Ok(VarDecl {
            name,
            ty,
            init,
            span,
        })
    }

    fn proc_decl(&mut self) -> Result<ProcDecl, Diagnostic> {
        let kw = self.expect(Tok::Proc)?;
        let name = self.ident("process name")?;
        self.expect(Tok::LBrace)?;
        let mut vars = Vec::new();
        let mut init = Vec::new();
        let mut init_seen = false;
        let mut states = Vec::new();
        loop {
            match *self.peek() {
                Tok::RBrace => break,
                Tok::Var => {
                    self.bump();
                    vars.push(self.var_decl()?);
                }
                Tok::Init => {
                    let kw = self.bump();
                    if init_seen {
                        return Err(Diagnostic::new(
                            format!("process `{}` has more than one `init` block", name.name),
                            kw.span,
                        ));
                    }
                    init_seen = true;
                    init = self.block()?;
                }
                Tok::State => {
                    self.bump();
                    let sname = self.ident("state name")?;
                    self.expect(Tok::LBrace)?;
                    let mut edges = Vec::new();
                    while !self.eat(&Tok::RBrace) {
                        edges.push(self.edge()?);
                    }
                    states.push(StateDecl { name: sname, edges });
                }
                ref other => {
                    return Err(Diagnostic::new(
                        format!(
                            "expected `var`, `init`, `state`, or `}}` in process body, found {}",
                            other.describe()
                        ),
                        self.peek_span(),
                    ))
                }
            }
        }
        let end = self.expect(Tok::RBrace)?;
        Ok(ProcDecl {
            name,
            vars,
            init,
            states,
            span: kw.span.to(end.span),
        })
    }

    fn edge(&mut self) -> Result<EdgeDecl, Diagnostic> {
        let start = self.peek_span();
        let atomic = self.eat(&Tok::Atomic);
        let trigger = match *self.peek() {
            Tok::When => {
                self.bump();
                Trigger::When(self.expr()?)
            }
            Tok::Recv => {
                self.bump();
                let chan = self.ident("channel name")?;
                let msg = self.ident("message name")?;
                let guard = if self.eat(&Tok::When) {
                    Some(self.expr()?)
                } else {
                    None
                };
                Trigger::Recv { chan, msg, guard }
            }
            Tok::Expire => {
                self.bump();
                let timer = self.ident("timer name")?;
                let guard = if self.eat(&Tok::When) {
                    Some(self.expr()?)
                } else {
                    None
                };
                Trigger::Expire { timer, guard }
            }
            ref other => {
                return Err(Diagnostic::new(
                    format!(
                        "expected an edge (`when ...`, `recv ...`, or `expire ...`), found {}",
                        other.describe()
                    ),
                    self.peek_span(),
                ))
            }
        };
        let label = if self.eat(&Tok::As) {
            match self.peek() {
                Tok::Str(_) => {
                    let Tok::Str(s) = self.bump().tok else {
                        unreachable!("peeked a string")
                    };
                    Some(s)
                }
                other => {
                    return Err(Diagnostic::new(
                        format!(
                            "expected a string label after `as`, found {}",
                            other.describe()
                        ),
                        self.peek_span(),
                    ))
                }
            }
        } else {
            None
        };
        let body = self.block()?;
        let end = self.toks[self.pos.saturating_sub(1)].span;
        Ok(EdgeDecl {
            atomic,
            trigger,
            label,
            body,
            span: start.to(end),
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, Diagnostic> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        loop {
            match *self.peek() {
                Tok::RBrace => {
                    self.bump();
                    return Ok(stmts);
                }
                Tok::Send => {
                    self.bump();
                    let chan = self.ident("channel name")?;
                    let msg = self.ident("message name")?;
                    self.expect(Tok::Semi)?;
                    stmts.push(Stmt::Send { chan, msg });
                }
                Tok::Goto => {
                    self.bump();
                    let target = self.ident("state name")?;
                    self.expect(Tok::Semi)?;
                    stmts.push(Stmt::Goto { target });
                }
                Tok::Start => {
                    self.bump();
                    let timer = self.ident("timer name")?;
                    self.expect(Tok::Semi)?;
                    stmts.push(Stmt::Start { timer });
                }
                Tok::Stop => {
                    self.bump();
                    let timer = self.ident("timer name")?;
                    self.expect(Tok::Semi)?;
                    stmts.push(Stmt::Stop { timer });
                }
                Tok::Ident(_) => {
                    let target = self.ident("variable name")?;
                    self.expect(Tok::Assign)?;
                    let value = self.expr()?;
                    self.expect(Tok::Semi)?;
                    stmts.push(Stmt::Assign { target, value });
                }
                ref other => {
                    return Err(Diagnostic::new(
                        format!(
                            "expected a statement (`send`, `goto`, `start`, `stop`, or an \
                             assignment), found {}",
                            other.describe()
                        ),
                        self.peek_span(),
                    ))
                }
            }
        }
    }

    fn prop_decl(&mut self, quant: Quant) -> Result<PropDecl, Diagnostic> {
        self.bump(); // the quantifier keyword
        let name = self.ident("property name")?;
        self.expect(Tok::Colon)?;
        let expr = self.expr()?;
        self.expect(Tok::Semi)?;
        Ok(PropDecl { quant, name, expr })
    }

    // ---- expressions ----

    fn expr(&mut self) -> Result<Expr, Diagnostic> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.and_expr()?;
        while self.eat(&Tok::OrOr) {
            let rhs = self.and_expr()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.cmp_expr()?;
        while self.eat(&Tok::AndAnd) {
            let rhs = self.cmp_expr()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, Diagnostic> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::Eq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    fn add_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    fn unary_expr(&mut self) -> Result<Expr, Diagnostic> {
        if self.eat(&Tok::Not) {
            Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(self.unary_expr()?),
            })
        } else if self.eat(&Tok::Minus) {
            Ok(Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(self.unary_expr()?),
            })
        } else {
            self.primary_expr()
        }
    }

    fn primary_expr(&mut self) -> Result<Expr, Diagnostic> {
        match *self.peek() {
            Tok::Number(n) => {
                let t = self.bump();
                Ok(Expr::Int(n, t.span))
            }
            Tok::True => {
                let t = self.bump();
                Ok(Expr::Bool(true, t.span))
            }
            Tok::False => {
                let t = self.bump();
                Ok(Expr::Bool(false, t.span))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(_) => {
                let first = self.ident("a name")?;
                if self.eat(&Tok::Dot) {
                    let var = self.ident("variable name")?;
                    Ok(Expr::Field { proc: first, var })
                } else if self.eat(&Tok::At) {
                    let loc = self.ident("state name")?;
                    Ok(Expr::AtLoc { proc: first, loc })
                } else {
                    Ok(Expr::Var(first))
                }
            }
            ref other => Err(Diagnostic::new(
                format!("expected an expression, found {}", other.describe()),
                self.peek_span(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = r#"
spec tiny;
instance S2;

msg Ping, Pong;

chan up from p to q cap 2 lossy dup 1;
chan down from q to p cap 2;

global done: bool = false;

proc p {
    var tries: int 0..3 = 0;
    init {
        send up Ping;
        goto Waiting;
    }
    state Waiting {
        recv down Pong when tries < 3 as "pong arrives" {
            done = true;
            goto Happy;
        }
        when tries < 3 {
            tries = tries + 1;
            send up Ping;
        }
    }
    state Happy {
    }
}

proc q {
    state Idle {
        recv up Ping {
            send down Pong;
        }
    }
}

never Stuck: p @ Waiting && p.tries >= 3;
boundary: p.tries <= 3;
"#;

    #[test]
    fn parses_a_complete_spec() {
        let spec = parse(TINY).expect("parses");
        assert_eq!(spec.name.name, "tiny");
        assert_eq!(spec.instance.as_ref().unwrap().name, "S2");
        assert_eq!(spec.msgs.len(), 2);
        assert_eq!(spec.chans.len(), 2);
        assert!(spec.chans[0].lossy && spec.chans[0].dup == Some(1));
        assert!(!spec.chans[1].lossy && spec.chans[1].dup.is_none());
        assert_eq!(spec.procs.len(), 2);
        assert_eq!(spec.procs[0].init.len(), 2);
        assert_eq!(spec.procs[0].states[0].edges.len(), 2);
        assert_eq!(
            spec.procs[0].states[0].edges[0].label.as_deref(),
            Some("pong arrives")
        );
        assert_eq!(spec.props.len(), 1);
        assert!(spec.boundary.is_some());
    }

    #[test]
    fn print_parse_roundtrip_is_identity() {
        let mut first = parse(TINY).unwrap();
        let printed = first.to_string();
        let mut second = parse(&printed)
            .unwrap_or_else(|d| panic!("canonical print must reparse: {d}\n{printed}"));
        first.strip_spans();
        second.strip_spans();
        assert_eq!(first, second);
        // And printing is a fixpoint.
        assert_eq!(printed, second.to_string());
    }

    const TIMED: &str = r#"
spec timed;

msg Req;

chan up from p to q cap 1;

timer t3510 = 15;
deadline guard = 20;

proc p {
    init {
        start t3510;
        goto Waiting;
    }
    state Waiting {
        expire t3510 as "registration timer fires" {
            send up Req;
        }
        atomic expire guard when p @ Waiting {
            stop t3510;
            goto Lost;
        }
        atomic when false {
            goto Lost;
        }
    }
    state Lost {
    }
}

proc q {
    state Idle {
        recv up Req {
        }
    }
}

never Lost: p @ Lost;
"#;

    #[test]
    fn parses_timer_declarations_and_edges() {
        let spec = parse(TIMED).expect("parses");
        assert_eq!(spec.timers.len(), 2);
        assert!(!spec.timers[0].oneshot && spec.timers[0].duration == 15);
        assert!(spec.timers[1].oneshot && spec.timers[1].duration == 20);
        let edges = &spec.procs[0].states[0].edges;
        assert!(!edges[0].atomic);
        assert!(matches!(
            edges[0].trigger,
            Trigger::Expire { ref timer, guard: None } if timer.name == "t3510"
        ));
        assert!(edges[1].atomic);
        assert!(matches!(
            edges[1].trigger,
            Trigger::Expire { ref timer, guard: Some(_) } if timer.name == "guard"
        ));
        assert!(edges[2].atomic && matches!(edges[2].trigger, Trigger::When(_)));
        assert!(
            matches!(spec.procs[0].init[0], Stmt::Start { ref timer } if timer.name == "t3510")
        );
        assert!(matches!(
            spec.procs[0].states[0].edges[1].body[0],
            Stmt::Stop { ref timer } if timer.name == "t3510"
        ));
    }

    #[test]
    fn timed_print_parse_roundtrip_is_identity() {
        let mut first = parse(TIMED).unwrap();
        let printed = first.to_string();
        let mut second = parse(&printed)
            .unwrap_or_else(|d| panic!("canonical print must reparse: {d}\n{printed}"));
        first.strip_spans();
        second.strip_spans();
        assert_eq!(first, second);
        assert_eq!(printed, second.to_string());
    }

    #[test]
    fn timer_declaration_requires_a_duration() {
        let err = parse("spec x; timer t = ;").unwrap_err();
        assert!(
            err.message.contains("expected timer duration"),
            "{}",
            err.message
        );
    }

    #[test]
    fn comparisons_do_not_chain() {
        let err = parse("spec x; never p: 1 == 2 == 3;").unwrap_err();
        assert!(err.message.contains("expected `;`"), "{}", err.message);
    }

    #[test]
    fn error_spans_point_at_the_offending_token() {
        let err = parse("spec x;\nchan c from a to b cap;\n").unwrap_err();
        assert!(err.message.contains("expected channel capacity"));
        assert_eq!((err.span.line, err.span.col), (2, 23));
    }

    #[test]
    fn missing_semicolon_is_reported() {
        let err = parse("spec x").unwrap_err();
        assert!(err.message.contains("expected `;`"));
    }
}
