//! Abstract syntax tree and its canonical pretty-printer.
//!
//! The printer ([`Spec`]'s `Display`) emits the canonical formatting of a
//! spec; parsing its output yields a structurally identical tree (parentheses
//! have no AST node — grouping lives in the tree shape — so print → parse is
//! the identity up to [`Span`]s, which [`Spec::strip_spans`] erases for
//! comparisons). The parser/printer round-trip property test leans on this.

use std::fmt;

use crate::diag::Span;

/// A dummy span for synthesized or span-erased nodes.
pub fn dummy_span() -> Span {
    Span::point(0, 1, 1)
}

/// A name with its source location.
#[derive(Clone, Debug, PartialEq)]
pub struct Ident {
    /// The name text.
    pub name: String,
    /// Where it was written.
    pub span: Span,
}

impl Ident {
    /// An identifier with a dummy span (for synthesized trees).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            span: dummy_span(),
        }
    }
}

/// A whole spec file.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// Spec name (`spec attach;`).
    pub name: Ident,
    /// Optional paper-instance tag (`instance S2;`) used by the screening
    /// loader to classify findings.
    pub instance: Option<Ident>,
    /// Message alphabet (flattened from `msg A, B;` declarations).
    pub msgs: Vec<Ident>,
    /// Channels.
    pub chans: Vec<ChanDecl>,
    /// Timers and deadlines.
    pub timers: Vec<TimerDecl>,
    /// Shared globals.
    pub globals: Vec<VarDecl>,
    /// Processes.
    pub procs: Vec<ProcDecl>,
    /// Property clauses.
    pub props: Vec<PropDecl>,
    /// Scenario boundary predicate (`boundary: expr;`), if any.
    pub boundary: Option<Expr>,
}

/// `chan NAME from P to Q cap N [lossy] [dup N];`
#[derive(Clone, Debug, PartialEq)]
pub struct ChanDecl {
    /// Channel name.
    pub name: Ident,
    /// Sending process.
    pub from: Ident,
    /// Receiving process.
    pub to: Ident,
    /// Queue capacity.
    pub cap: i64,
    /// Messages may be dropped (adds drop transitions; full sends drop).
    pub lossy: bool,
    /// Duplication budget, if the channel duplicates.
    pub dup: Option<i64>,
    /// Whole-declaration span (errors about bounds point here).
    pub span: Span,
}

/// `timer NAME = DURATION;` or `deadline NAME = DURATION;`
///
/// Timers are the in-language form of the T3410 family: a process `start`s
/// one, and once armed its expiry (`expire NAME` edges) races the other
/// armed timers — only timers whose effective duration is minimal among
/// the armed set may fire, so relative durations, not absolute clocks,
/// shape the interleavings. A `timer` re-arms freely; a `deadline` is
/// one-shot — once expired it stays expired and `start` is a no-op.
#[derive(Clone, Debug, PartialEq)]
pub struct TimerDecl {
    /// Timer name.
    pub name: Ident,
    /// Abstract duration (positive). Only *ratios* between durations are
    /// meaningful; the timing-lattice sweep rescales them per scenario.
    pub duration: i64,
    /// `deadline` (one-shot) rather than `timer` (rearmable).
    pub oneshot: bool,
    /// Whole-declaration span.
    pub span: Span,
}

/// Variable type.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Ty {
    /// Boolean.
    Bool,
    /// Bounded integer `lo..hi` (inclusive); assignments clamp to the range.
    Int {
        /// Lower bound.
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
}

/// Literal initializer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Literal {
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Int(i64),
}

/// `var x: TY = LIT;` (or `global x: TY = LIT;` at top level).
#[derive(Clone, Debug, PartialEq)]
pub struct VarDecl {
    /// Variable name.
    pub name: Ident,
    /// Declared type.
    pub ty: Ty,
    /// Initial value.
    pub init: Literal,
    /// Whole-declaration span.
    pub span: Span,
}

/// A process: typed locals, an optional `init` block, and named states.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcDecl {
    /// Process name.
    pub name: Ident,
    /// Local variables.
    pub vars: Vec<VarDecl>,
    /// Statements run once to produce the initial state (may `send`/`goto`).
    pub init: Vec<Stmt>,
    /// States; the first is the start location unless `init` ends in `goto`.
    pub states: Vec<StateDecl>,
    /// Whole-declaration span.
    pub span: Span,
}

/// `state NAME { edges... }`
#[derive(Clone, Debug, PartialEq)]
pub struct StateDecl {
    /// State (location) name.
    pub name: Ident,
    /// Outgoing edges, in declaration order (order breaks recv ties).
    pub edges: Vec<EdgeDecl>,
}

/// What enables an edge.
#[derive(Clone, Debug, PartialEq)]
pub enum Trigger {
    /// `when EXPR` — a spontaneous guarded step.
    When(Expr),
    /// `recv CHAN MSG [when EXPR]` — fires when the checker delivers `MSG`
    /// from `CHAN` to this process while it sits in this state.
    Recv {
        /// Channel to receive from.
        chan: Ident,
        /// Expected message.
        msg: Ident,
        /// Extra guard over variables.
        guard: Option<Expr>,
    },
    /// `expire TIMER [when EXPR]` — fires when the named timer expires
    /// while this process sits in this state.
    Expire {
        /// The expiring timer.
        timer: Ident,
        /// Extra guard over variables.
        guard: Option<Expr>,
    },
}

/// One guarded transition.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeDecl {
    /// `atomic` prefix: the author asserts this edge is independent of
    /// every other process (sema restricts what such an edge may do), so
    /// partial-order reduction may pick it as an ample set even when the
    /// syntactic self-containment analysis cannot prove independence.
    pub atomic: bool,
    /// Enabling trigger.
    pub trigger: Trigger,
    /// Optional `as "label"` used in rendered counterexamples.
    pub label: Option<String>,
    /// Atomically executed body.
    pub body: Vec<Stmt>,
    /// Whole-edge span.
    pub span: Span,
}

/// Statements allowed in edge bodies and `init` blocks.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `x = EXPR;` — assign a local or global.
    Assign {
        /// Assigned variable (locals shadow globals).
        target: Ident,
        /// New value.
        value: Expr,
    },
    /// `send CHAN MSG;`
    Send {
        /// Channel (its `from` must be the enclosing process).
        chan: Ident,
        /// Message to queue.
        msg: Ident,
    },
    /// `goto STATE;` — move this process to another location.
    Goto {
        /// Target state.
        target: Ident,
    },
    /// `start TIMER;` — arm the timer (re-arm for `timer`, no-op for an
    /// already-expired `deadline`).
    Start {
        /// The timer to arm.
        timer: Ident,
    },
    /// `stop TIMER;` — disarm the timer (an expired `deadline` stays
    /// expired).
    Stop {
        /// The timer to disarm.
        timer: Ident,
    },
}

/// Property quantifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quant {
    /// Must hold in every reachable state.
    Always,
    /// Must hold in no reachable state.
    Never,
    /// Must hold at least once on every maximal path.
    Eventually,
}

impl Quant {
    fn keyword(self) -> &'static str {
        match self {
            Quant::Always => "always",
            Quant::Never => "never",
            Quant::Eventually => "eventually",
        }
    }
}

/// `always|never|eventually NAME: EXPR;`
#[derive(Clone, Debug, PartialEq)]
pub struct PropDecl {
    /// Quantifier.
    pub quant: Quant,
    /// Property name (reported in violations; matched against the
    /// hand-written models' property names by the cross-checks).
    pub name: Ident,
    /// The state predicate.
    pub expr: Expr,
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    /// Boolean negation.
    Not,
    /// Integer negation.
    Neg,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `||`
    Or,
    /// `&&`
    And,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
}

impl BinOp {
    /// Binding strength (higher binds tighter).
    pub fn prec(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
            BinOp::Add | BinOp::Sub => 4,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            BinOp::Or => "||",
            BinOp::And => "&&",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
        }
    }
}

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64, Span),
    /// Boolean literal.
    Bool(bool, Span),
    /// Unqualified variable (local of the enclosing process, else global).
    Var(Ident),
    /// `proc.var` — another process's local (read-only).
    Field {
        /// Owning process.
        proc: Ident,
        /// Its local variable.
        var: Ident,
    },
    /// `proc @ State` — location test.
    AtLoc {
        /// Process.
        proc: Ident,
        /// Location name.
        loc: Ident,
    },
    /// `!e` or `-e`.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `lhs OP rhs`.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// The span of the expression's leftmost token (best effort; composite
    /// nodes fall back to their left child).
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s) | Expr::Bool(_, s) => *s,
            Expr::Var(id) => id.span,
            Expr::Field { proc, .. } | Expr::AtLoc { proc, .. } => proc.span,
            Expr::Unary { expr, .. } => expr.span(),
            Expr::Binary { lhs, .. } => lhs.span(),
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, min_prec: u8) -> fmt::Result {
        match self {
            Expr::Int(n, _) => write!(f, "{n}"),
            Expr::Bool(b, _) => write!(f, "{b}"),
            Expr::Var(id) => write!(f, "{}", id.name),
            Expr::Field { proc, var } => write!(f, "{}.{}", proc.name, var.name),
            Expr::AtLoc { proc, loc } => write!(f, "{} @ {}", proc.name, loc.name),
            Expr::Unary { op, expr } => {
                write!(f, "{}", if *op == UnOp::Not { "!" } else { "-" })?;
                // Unary binds tightest; parenthesize any non-atomic operand.
                expr.fmt_prec(f, 5)
            }
            Expr::Binary { op, lhs, rhs } => {
                let prec = op.prec();
                let paren = prec < min_prec;
                if paren {
                    write!(f, "(")?;
                }
                // Left-associative chains reparse identically when the left
                // child prints at `prec` and the right child one tighter.
                // Comparisons don't chain (`a < b < c` is a parse error), so
                // a comparison operand of a comparison must parenthesize —
                // both children print one level tighter.
                let left_min = if op.prec() == 3 { prec + 1 } else { prec };
                lhs.fmt_prec(f, left_min)?;
                write!(f, " {} ", op.symbol())?;
                rhs.fmt_prec(f, prec + 1)?;
                if paren {
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

fn fmt_ty(ty: Ty) -> String {
    match ty {
        Ty::Bool => "bool".into(),
        Ty::Int { lo, hi } => format!("int {lo}..{hi}"),
    }
}

fn fmt_lit(lit: Literal) -> String {
    match lit {
        Literal::Bool(b) => b.to_string(),
        Literal::Int(n) => n.to_string(),
    }
}

fn fmt_stmts(f: &mut fmt::Formatter<'_>, stmts: &[Stmt], indent: &str) -> fmt::Result {
    for s in stmts {
        match s {
            Stmt::Assign { target, value } => writeln!(f, "{indent}{} = {};", target.name, value)?,
            Stmt::Send { chan, msg } => writeln!(f, "{indent}send {} {};", chan.name, msg.name)?,
            Stmt::Goto { target } => writeln!(f, "{indent}goto {};", target.name)?,
            Stmt::Start { timer } => writeln!(f, "{indent}start {};", timer.name)?,
            Stmt::Stop { timer } => writeln!(f, "{indent}stop {};", timer.name)?,
        }
    }
    Ok(())
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "spec {};", self.name.name)?;
        if let Some(inst) = &self.instance {
            writeln!(f, "instance {};", inst.name)?;
        }
        if !self.msgs.is_empty() {
            writeln!(f)?;
        }
        for m in &self.msgs {
            writeln!(f, "msg {};", m.name)?;
        }
        if !self.chans.is_empty() {
            writeln!(f)?;
        }
        for c in &self.chans {
            write!(
                f,
                "chan {} from {} to {} cap {}",
                c.name.name, c.from.name, c.to.name, c.cap
            )?;
            if c.lossy {
                write!(f, " lossy")?;
            }
            if let Some(d) = c.dup {
                write!(f, " dup {d}")?;
            }
            writeln!(f, ";")?;
        }
        if !self.timers.is_empty() {
            writeln!(f)?;
        }
        for t in &self.timers {
            writeln!(
                f,
                "{} {} = {};",
                if t.oneshot { "deadline" } else { "timer" },
                t.name.name,
                t.duration
            )?;
        }
        if !self.globals.is_empty() {
            writeln!(f)?;
        }
        for g in &self.globals {
            writeln!(
                f,
                "global {}: {} = {};",
                g.name.name,
                fmt_ty(g.ty),
                fmt_lit(g.init)
            )?;
        }
        for p in &self.procs {
            writeln!(f, "\nproc {} {{", p.name.name)?;
            for v in &p.vars {
                writeln!(
                    f,
                    "    var {}: {} = {};",
                    v.name.name,
                    fmt_ty(v.ty),
                    fmt_lit(v.init)
                )?;
            }
            if !p.init.is_empty() {
                writeln!(f, "    init {{")?;
                fmt_stmts(f, &p.init, "        ")?;
                writeln!(f, "    }}")?;
            }
            for st in &p.states {
                writeln!(f, "    state {} {{", st.name.name)?;
                for e in &st.edges {
                    write!(f, "        ")?;
                    if e.atomic {
                        write!(f, "atomic ")?;
                    }
                    match &e.trigger {
                        Trigger::When(g) => write!(f, "when {g}")?,
                        Trigger::Recv { chan, msg, guard } => {
                            write!(f, "recv {} {}", chan.name, msg.name)?;
                            if let Some(g) = guard {
                                write!(f, " when {g}")?;
                            }
                        }
                        Trigger::Expire { timer, guard } => {
                            write!(f, "expire {}", timer.name)?;
                            if let Some(g) = guard {
                                write!(f, " when {g}")?;
                            }
                        }
                    }
                    if let Some(l) = &e.label {
                        write!(f, " as \"{l}\"")?;
                    }
                    writeln!(f, " {{")?;
                    fmt_stmts(f, &e.body, "            ")?;
                    writeln!(f, "        }}")?;
                }
                writeln!(f, "    }}")?;
            }
            writeln!(f, "}}")?;
        }
        if !self.props.is_empty() {
            writeln!(f)?;
        }
        for p in &self.props {
            writeln!(f, "{} {}: {};", p.quant.keyword(), p.name.name, p.expr)?;
        }
        if let Some(b) = &self.boundary {
            writeln!(f, "boundary: {b};")?;
        }
        Ok(())
    }
}

impl Spec {
    /// Erase every span (set to a dummy) so two trees can be compared
    /// structurally — the parser/printer round-trip test uses this.
    pub fn strip_spans(&mut self) {
        fn ident(i: &mut Ident) {
            i.span = dummy_span();
        }
        fn expr(e: &mut Expr) {
            match e {
                Expr::Int(_, s) | Expr::Bool(_, s) => *s = dummy_span(),
                Expr::Var(i) => ident(i),
                Expr::Field { proc, var } => {
                    ident(proc);
                    ident(var);
                }
                Expr::AtLoc { proc, loc } => {
                    ident(proc);
                    ident(loc);
                }
                Expr::Unary { expr: inner, .. } => expr(inner),
                Expr::Binary { lhs, rhs, .. } => {
                    expr(lhs);
                    expr(rhs);
                }
            }
        }
        fn stmt(s: &mut Stmt) {
            match s {
                Stmt::Assign { target, value } => {
                    ident(target);
                    expr(value);
                }
                Stmt::Send { chan, msg } => {
                    ident(chan);
                    ident(msg);
                }
                Stmt::Goto { target } => ident(target),
                Stmt::Start { timer } | Stmt::Stop { timer } => ident(timer),
            }
        }
        ident(&mut self.name);
        if let Some(i) = &mut self.instance {
            ident(i);
        }
        self.msgs.iter_mut().for_each(ident);
        for c in &mut self.chans {
            ident(&mut c.name);
            ident(&mut c.from);
            ident(&mut c.to);
            c.span = dummy_span();
        }
        for t in &mut self.timers {
            ident(&mut t.name);
            t.span = dummy_span();
        }
        for g in &mut self.globals {
            ident(&mut g.name);
            g.span = dummy_span();
        }
        for p in &mut self.procs {
            ident(&mut p.name);
            p.span = dummy_span();
            for v in &mut p.vars {
                ident(&mut v.name);
                v.span = dummy_span();
            }
            p.init.iter_mut().for_each(stmt);
            for st in &mut p.states {
                ident(&mut st.name);
                for e in &mut st.edges {
                    e.span = dummy_span();
                    match &mut e.trigger {
                        Trigger::When(g) => expr(g),
                        Trigger::Recv { chan, msg, guard } => {
                            ident(chan);
                            ident(msg);
                            if let Some(g) = guard {
                                expr(g);
                            }
                        }
                        Trigger::Expire { timer, guard } => {
                            ident(timer);
                            if let Some(g) = guard {
                                expr(g);
                            }
                        }
                    }
                    e.body.iter_mut().for_each(stmt);
                }
            }
        }
        for p in &mut self.props {
            ident(&mut p.name);
            expr(&mut p.expr);
        }
        if let Some(b) = &mut self.boundary {
            expr(b);
        }
    }
}
