//! Semantic analysis: name resolution, typing, and bound checks.
//!
//! `check` walks a parsed [`Spec`] and collects *all* diagnostics rather
//! than stopping at the first, so a broken spec reports every problem in one
//! compile. The rules:
//!
//! - every name is declared exactly once in its namespace (messages,
//!   channels, globals, processes, per-process locals, per-process states,
//!   properties); locals may not shadow globals;
//! - channels connect declared processes, `cap` is 1..=16, `dup` is 1..=255;
//! - `int lo..hi` needs `lo <= hi`; initializers match the declared type and
//!   fall inside the range;
//! - processes declare at least one state; `goto` targets a state of the
//!   same process; `send` only on channels the process is the `from` end of;
//!   `recv` only on channels it is the `to` end of, for declared messages;
//! - guards, properties and the boundary are boolean; assignments are
//!   type-correct; unqualified names resolve local-then-global inside a
//!   process, globals-only in properties and the boundary; `p.var` and
//!   `p @ State` are allowed everywhere;
//! - timers are declared once, with a positive duration; `start`, `stop`
//!   and `expire` reference declared timers; `expire` guards are boolean;
//! - `atomic` applies only to `when` edges, and the edge body may not
//!   `send`, `start` or `stop` — an atomic step must stay local to the
//!   process so the partial-order reducer can keep treating it as
//!   invisible to every other component.

use std::collections::{HashMap, HashSet};

use crate::ast::*;
use crate::diag::Diagnostic;

/// Expression type (ranges are checked separately, at initializers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum STy {
    Bool,
    Int,
}

impl STy {
    fn name(self) -> &'static str {
        match self {
            STy::Bool => "bool",
            STy::Int => "int",
        }
    }
}

fn of(ty: Ty) -> STy {
    match ty {
        Ty::Bool => STy::Bool,
        Ty::Int { .. } => STy::Int,
    }
}

struct Ck<'a> {
    spec: &'a Spec,
    procs: HashMap<&'a str, &'a ProcDecl>,
    globals: HashMap<&'a str, &'a VarDecl>,
    chans: HashMap<&'a str, &'a ChanDecl>,
    msgs: HashSet<&'a str>,
    timers: HashMap<&'a str, &'a TimerDecl>,
    diags: Vec<Diagnostic>,
}

/// Check a parsed spec; `Err` carries every diagnostic found.
pub fn check(spec: &Spec) -> Result<(), Vec<Diagnostic>> {
    let mut ck = Ck {
        spec,
        procs: HashMap::new(),
        globals: HashMap::new(),
        chans: HashMap::new(),
        msgs: HashSet::new(),
        timers: HashMap::new(),
        diags: Vec::new(),
    };
    ck.collect_names();
    ck.check_chans();
    ck.check_timers();
    for g in &spec.globals {
        ck.check_var(g);
    }
    for p in &spec.procs {
        ck.check_proc(p);
    }
    ck.check_props();
    if ck.diags.is_empty() {
        Ok(())
    } else {
        Err(ck.diags)
    }
}

impl<'a> Ck<'a> {
    fn err(&mut self, msg: impl Into<String>, span: crate::diag::Span) {
        self.diags.push(Diagnostic::new(msg, span));
    }

    fn collect_names(&mut self) {
        let spec = self.spec;
        for m in &spec.msgs {
            if !self.msgs.insert(&m.name) {
                self.err(format!("message `{}` declared twice", m.name), m.span);
            }
        }
        for c in &spec.chans {
            if self.chans.insert(&c.name.name, c).is_some() {
                self.err(
                    format!("channel `{}` declared twice", c.name.name),
                    c.name.span,
                );
            }
        }
        for g in &spec.globals {
            if self.globals.insert(&g.name.name, g).is_some() {
                self.err(
                    format!("global `{}` declared twice", g.name.name),
                    g.name.span,
                );
            }
        }
        for p in &spec.procs {
            if self.procs.insert(&p.name.name, p).is_some() {
                self.err(
                    format!("process `{}` declared twice", p.name.name),
                    p.name.span,
                );
            }
        }
        for t in &spec.timers {
            if self.timers.insert(&t.name.name, t).is_some() {
                self.err(
                    format!("timer `{}` declared twice", t.name.name),
                    t.name.span,
                );
            }
        }
    }

    fn check_timers(&mut self) {
        for t in &self.spec.timers {
            if !(1..=1_000_000).contains(&t.duration) {
                self.err(
                    format!(
                        "timer `{}` duration must be between 1 and 1000000, got {}",
                        t.name.name, t.duration
                    ),
                    t.span,
                );
            }
        }
    }

    fn check_timer_ref(&mut self, what: &str, timer: &Ident) {
        if !self.timers.contains_key(timer.name.as_str()) {
            self.err(
                format!("`{what} {}`: no such timer or deadline", timer.name),
                timer.span,
            );
        }
    }

    fn check_chans(&mut self) {
        for c in &self.spec.chans {
            for endpoint in [&c.from, &c.to] {
                if !self.procs.contains_key(endpoint.name.as_str()) {
                    self.err(
                        format!(
                            "channel `{}` references unknown process `{}`",
                            c.name.name, endpoint.name
                        ),
                        endpoint.span,
                    );
                }
            }
            if !(1..=16).contains(&c.cap) {
                self.err(
                    format!(
                        "channel `{}` capacity must be between 1 and 16, got {}",
                        c.name.name, c.cap
                    ),
                    c.span,
                );
            }
            if let Some(d) = c.dup {
                if !(1..=255).contains(&d) {
                    self.err(
                        format!(
                            "channel `{}` duplication budget must be between 1 and 255, got {d}",
                            c.name.name
                        ),
                        c.span,
                    );
                }
            }
        }
    }

    fn check_var(&mut self, v: &VarDecl) {
        match (v.ty, v.init) {
            (Ty::Bool, Literal::Bool(_)) => {}
            (Ty::Bool, Literal::Int(_)) => {
                self.err(
                    format!("`{}` is bool but its initializer is a number", v.name.name),
                    v.span,
                );
            }
            (Ty::Int { lo, hi }, Literal::Int(n)) => {
                if lo > hi {
                    self.err(
                        format!("`{}` has an empty range {lo}..{hi}", v.name.name),
                        v.span,
                    );
                } else if !(lo..=hi).contains(&n) {
                    self.err(
                        format!(
                            "`{}` initializer {n} is outside its range {lo}..{hi}",
                            v.name.name
                        ),
                        v.span,
                    );
                }
            }
            (Ty::Int { .. }, Literal::Bool(_)) => {
                self.err(
                    format!("`{}` is int but its initializer is a boolean", v.name.name),
                    v.span,
                );
            }
        }
    }

    fn check_proc(&mut self, p: &'a ProcDecl) {
        let mut locals: HashMap<&str, &VarDecl> = HashMap::new();
        for v in &p.vars {
            self.check_var(v);
            if self.globals.contains_key(v.name.name.as_str()) {
                self.err(
                    format!("local `{}` shadows a global of the same name", v.name.name),
                    v.name.span,
                );
            }
            if locals.insert(&v.name.name, v).is_some() {
                self.err(
                    format!(
                        "local `{}` declared twice in `{}`",
                        v.name.name, p.name.name
                    ),
                    v.name.span,
                );
            }
        }
        if p.states.is_empty() {
            self.err(
                format!("process `{}` declares no states", p.name.name),
                p.name.span,
            );
        }
        let mut state_names: HashSet<&str> = HashSet::new();
        for s in &p.states {
            if !state_names.insert(&s.name.name) {
                self.err(
                    format!(
                        "state `{}` declared twice in `{}`",
                        s.name.name, p.name.name
                    ),
                    s.name.span,
                );
            }
        }
        for stmt in &p.init {
            self.check_stmt(p, stmt);
        }
        for s in &p.states {
            for e in &s.edges {
                match &e.trigger {
                    Trigger::When(g) => {
                        self.expect_ty(g, STy::Bool, Some(p), "a `when` guard");
                    }
                    Trigger::Recv { chan, msg, guard } => {
                        if let Some(c) = self.chans.get(chan.name.as_str()).copied() {
                            if c.to.name != p.name.name {
                                self.err(
                                    format!(
                                        "process `{}` cannot recv on `{}` (its receiver is `{}`)",
                                        p.name.name, chan.name, c.to.name
                                    ),
                                    chan.span,
                                );
                            }
                        } else {
                            self.err(format!("unknown channel `{}`", chan.name), chan.span);
                        }
                        if !self.msgs.contains(msg.name.as_str()) {
                            self.err(format!("unknown message `{}`", msg.name), msg.span);
                        }
                        if let Some(g) = guard {
                            self.expect_ty(g, STy::Bool, Some(p), "a `recv` guard");
                        }
                    }
                    Trigger::Expire { timer, guard } => {
                        self.check_timer_ref("expire", timer);
                        if let Some(g) = guard {
                            self.expect_ty(g, STy::Bool, Some(p), "an `expire` guard");
                        }
                    }
                }
                if e.atomic {
                    if !matches!(e.trigger, Trigger::When(_)) {
                        self.err(
                            format!(
                                "`atomic` in process `{}` applies only to `when` edges",
                                p.name.name
                            ),
                            e.span,
                        );
                    }
                    for stmt in &e.body {
                        let offender = match stmt {
                            Stmt::Send { .. } => Some("send"),
                            Stmt::Start { .. } => Some("start"),
                            Stmt::Stop { .. } => Some("stop"),
                            Stmt::Assign { .. } | Stmt::Goto { .. } => None,
                        };
                        if let Some(kw) = offender {
                            self.err(
                                format!(
                                    "`atomic` edge in process `{}` may not `{kw}` — atomic \
                                     steps must stay local to the process",
                                    p.name.name
                                ),
                                e.span,
                            );
                        }
                    }
                }
                for stmt in &e.body {
                    self.check_stmt(p, stmt);
                }
            }
        }
    }

    fn check_stmt(&mut self, p: &'a ProcDecl, stmt: &Stmt) {
        match stmt {
            Stmt::Assign { target, value } => {
                let target_ty = p
                    .vars
                    .iter()
                    .find(|v| v.name.name == target.name)
                    .map(|v| of(v.ty))
                    .or_else(|| self.globals.get(target.name.as_str()).map(|v| of(v.ty)));
                match target_ty {
                    Some(ty) => {
                        self.expect_ty(value, ty, Some(p), "the assigned value");
                    }
                    None => {
                        self.err(format!("unknown variable `{}`", target.name), target.span);
                        // Still type-check the value for secondary errors.
                        self.ty_of(value, Some(p));
                    }
                }
            }
            Stmt::Send { chan, msg } => {
                if let Some(c) = self.chans.get(chan.name.as_str()).copied() {
                    if c.from.name != p.name.name {
                        self.err(
                            format!(
                                "process `{}` cannot send on `{}` (its sender is `{}`)",
                                p.name.name, chan.name, c.from.name
                            ),
                            chan.span,
                        );
                    }
                } else {
                    self.err(format!("unknown channel `{}`", chan.name), chan.span);
                }
                if !self.msgs.contains(msg.name.as_str()) {
                    self.err(format!("unknown message `{}`", msg.name), msg.span);
                }
            }
            Stmt::Goto { target } => {
                if !p.states.iter().any(|s| s.name.name == target.name) {
                    self.err(
                        format!(
                            "`goto {}`: process `{}` has no such state",
                            target.name, p.name.name
                        ),
                        target.span,
                    );
                }
            }
            Stmt::Start { timer } => self.check_timer_ref("start", timer),
            Stmt::Stop { timer } => self.check_timer_ref("stop", timer),
        }
    }

    fn check_props(&mut self) {
        let mut names: HashSet<String> = HashSet::new();
        let props = self.spec.props.clone();
        for p in &props {
            if !names.insert(p.name.name.clone()) {
                self.err(
                    format!("property `{}` declared twice", p.name.name),
                    p.name.span,
                );
            }
            self.expect_ty(&p.expr, STy::Bool, None, "a property");
        }
        if let Some(b) = &self.spec.boundary.clone() {
            self.expect_ty(b, STy::Bool, None, "the boundary");
        }
    }

    fn expect_ty(&mut self, e: &Expr, want: STy, proc: Option<&'a ProcDecl>, what: &str) {
        if let Some(got) = self.ty_of(e, proc) {
            if got != want {
                self.err(
                    format!("{what} must be {}, got {}", want.name(), got.name()),
                    e.span(),
                );
            }
        }
    }

    /// Best-effort type of `e`; pushes diagnostics and returns `None` on
    /// resolution failure so one bad leaf doesn't cascade.
    fn ty_of(&mut self, e: &Expr, proc: Option<&'a ProcDecl>) -> Option<STy> {
        match e {
            Expr::Int(..) => Some(STy::Int),
            Expr::Bool(..) => Some(STy::Bool),
            Expr::Var(id) => {
                if let Some(p) = proc {
                    if let Some(v) = p.vars.iter().find(|v| v.name.name == id.name) {
                        return Some(of(v.ty));
                    }
                }
                if let Some(v) = self.globals.get(id.name.as_str()) {
                    return Some(of(v.ty));
                }
                let hint = if proc.is_none() {
                    " (properties and the boundary may only use globals, `p.var`, or `p @ State`)"
                } else {
                    ""
                };
                self.err(format!("unknown variable `{}`{hint}", id.name), id.span);
                None
            }
            Expr::Field { proc: owner, var } => {
                let Some(p) = self.procs.get(owner.name.as_str()).copied() else {
                    self.err(format!("unknown process `{}`", owner.name), owner.span);
                    return None;
                };
                match p.vars.iter().find(|v| v.name.name == var.name) {
                    Some(v) => Some(of(v.ty)),
                    None => {
                        self.err(
                            format!("process `{}` has no local `{}`", owner.name, var.name),
                            var.span,
                        );
                        None
                    }
                }
            }
            Expr::AtLoc { proc: owner, loc } => {
                let Some(p) = self.procs.get(owner.name.as_str()).copied() else {
                    self.err(format!("unknown process `{}`", owner.name), owner.span);
                    return None;
                };
                if !p.states.iter().any(|s| s.name.name == loc.name) {
                    self.err(
                        format!("process `{}` has no state `{}`", owner.name, loc.name),
                        loc.span,
                    );
                    return None;
                }
                Some(STy::Bool)
            }
            Expr::Unary { op, expr } => {
                let want = if *op == UnOp::Not {
                    STy::Bool
                } else {
                    STy::Int
                };
                self.expect_ty(expr, want, proc, "the operand");
                Some(want)
            }
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::And | BinOp::Or => {
                    self.expect_ty(lhs, STy::Bool, proc, "the left operand");
                    self.expect_ty(rhs, STy::Bool, proc, "the right operand");
                    Some(STy::Bool)
                }
                BinOp::Eq | BinOp::Ne => {
                    let lt = self.ty_of(lhs, proc);
                    let rt = self.ty_of(rhs, proc);
                    if let (Some(a), Some(b)) = (lt, rt) {
                        if a != b {
                            self.err(
                                format!("cannot compare {} with {}", a.name(), b.name()),
                                lhs.span(),
                            );
                        }
                    }
                    Some(STy::Bool)
                }
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    self.expect_ty(lhs, STy::Int, proc, "the left operand");
                    self.expect_ty(rhs, STy::Int, proc, "the right operand");
                    Some(STy::Bool)
                }
                BinOp::Add | BinOp::Sub => {
                    self.expect_ty(lhs, STy::Int, proc, "the left operand");
                    self.expect_ty(rhs, STy::Int, proc, "the right operand");
                    Some(STy::Int)
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn errs(src: &str) -> Vec<String> {
        let spec = parse(src).expect("test sources must parse");
        match check(&spec) {
            Ok(()) => Vec::new(),
            Err(ds) => ds.into_iter().map(|d| d.message).collect(),
        }
    }

    const OK: &str = "
spec ok;
msg M;
chan c from a to b cap 2;
global g: bool = false;
proc a { state S { when !g { send c M; g = true; } } }
proc b { var n: int 0..3 = 0; state T { recv c M when n < 3 { n = n + 1; } } }
never P: g && b.n >= 1 && b @ T;
";

    #[test]
    fn accepts_a_valid_spec() {
        assert!(errs(OK).is_empty(), "{:?}", errs(OK));
    }

    #[test]
    fn rejects_unknown_names_with_context() {
        let es = errs(
            "spec x; msg M; chan c from a to b cap 2;
             proc a { state S { when true { send d M; goto Nope; } } }
             proc b { state T { recv c Q { } } }
             never P: c_undeclared;",
        );
        assert!(
            es.iter().any(|e| e.contains("unknown channel `d`")),
            "{es:?}"
        );
        assert!(es.iter().any(|e| e.contains("no such state")), "{es:?}");
        assert!(
            es.iter().any(|e| e.contains("unknown message `Q`")),
            "{es:?}"
        );
        assert!(
            es.iter()
                .any(|e| e.contains("unknown variable `c_undeclared`")),
            "{es:?}"
        );
    }

    #[test]
    fn rejects_wrong_direction_send_and_recv() {
        let es = errs(
            "spec x; msg M; chan c from a to b cap 2;
             proc a { state S { recv c M { } } }
             proc b { state T { when true { send c M; } } }",
        );
        assert!(
            es.iter().any(|e| e.contains("cannot recv on `c`")),
            "{es:?}"
        );
        assert!(
            es.iter().any(|e| e.contains("cannot send on `c`")),
            "{es:?}"
        );
    }

    #[test]
    fn rejects_type_errors() {
        let es = errs(
            "spec x;
             global g: bool = false;
             global n: int 0..5 = 0;
             proc a { state S { when n { n = g; g = n + 1; } } }",
        );
        assert!(
            es.iter().any(|e| e.contains("guard must be bool")),
            "{es:?}"
        );
        assert!(
            es.iter()
                .any(|e| e.contains("assigned value must be int, got bool")),
            "{es:?}"
        );
        assert!(
            es.iter()
                .any(|e| e.contains("assigned value must be bool, got int")),
            "{es:?}"
        );
    }

    #[test]
    fn rejects_bad_bounds_and_initializers() {
        let es = errs(
            "spec x;
             global a: int 5..2 = 3;
             global b: int 0..2 = 9;
             proc p { state S { } }
             chan c from p to p cap 99;",
        );
        assert!(es.iter().any(|e| e.contains("empty range")), "{es:?}");
        assert!(es.iter().any(|e| e.contains("outside its range")), "{es:?}");
        assert!(
            es.iter().any(|e| e.contains("capacity must be between")),
            "{es:?}"
        );
    }

    #[test]
    fn rejects_duplicates_and_shadowing() {
        let es = errs(
            "spec x; msg M; msg M;
             global g: bool = false;
             proc p { var g: bool = true; state S { } state S { } }
             proc p { state T { } }
             never P: g; never P: !g;",
        );
        assert!(
            es.iter().any(|e| e.contains("message `M` declared twice")),
            "{es:?}"
        );
        assert!(es.iter().any(|e| e.contains("shadows a global")), "{es:?}");
        assert!(
            es.iter().any(|e| e.contains("state `S` declared twice")),
            "{es:?}"
        );
        assert!(
            es.iter().any(|e| e.contains("process `p` declared twice")),
            "{es:?}"
        );
        assert!(
            es.iter().any(|e| e.contains("property `P` declared twice")),
            "{es:?}"
        );
    }

    const TIMED_OK: &str = "
spec t;
timer retry = 10;
deadline guard = 25;
proc p {
    var n: int 0..3 = 0;
    init { start retry; }
    state S {
        expire retry when n < 3 { n = n + 1; start retry; }
        expire guard { stop retry; goto Dead; }
        atomic when n == 3 { n = 0; goto Dead; }
    }
    state Dead { }
}
never P: p @ Dead;
";

    #[test]
    fn accepts_timers_and_atomic_edges() {
        assert!(errs(TIMED_OK).is_empty(), "{:?}", errs(TIMED_OK));
    }

    #[test]
    fn rejects_bad_timer_declarations_and_references() {
        let es = errs(
            "spec x;
             timer t = 0;
             timer t = 5;
             proc p { init { start u; stop v; } state S { expire w { } } }",
        );
        assert!(
            es.iter().any(|e| e.contains("duration must be between")),
            "{es:?}"
        );
        assert!(
            es.iter().any(|e| e.contains("timer `t` declared twice")),
            "{es:?}"
        );
        assert!(es.iter().any(|e| e.contains("`start u`")), "{es:?}");
        assert!(es.iter().any(|e| e.contains("`stop v`")), "{es:?}");
        assert!(es.iter().any(|e| e.contains("`expire w`")), "{es:?}");
    }

    #[test]
    fn rejects_unsound_atomic_edges() {
        let es = errs(
            "spec x; msg M; chan c from p to q cap 1;
             timer t = 5;
             proc p {
                 state S {
                     atomic when true { send c M; }
                     atomic when true { start t; }
                     atomic expire t { }
                 }
             }
             proc q { state T { recv c M { } } }",
        );
        assert!(es.iter().any(|e| e.contains("may not `send`")), "{es:?}");
        assert!(es.iter().any(|e| e.contains("may not `start`")), "{es:?}");
        assert!(
            es.iter()
                .any(|e| e.contains("applies only to `when` edges")),
            "{es:?}"
        );
    }

    #[test]
    fn expire_guards_must_be_boolean() {
        let es = errs(
            "spec x;
             timer t = 5;
             proc p { var n: int 0..3 = 0; state S { expire t when n + 1 { } } }",
        );
        assert!(
            es.iter().any(|e| e.contains("`expire` guard must be bool")),
            "{es:?}"
        );
    }

    #[test]
    fn properties_cannot_use_process_locals_unqualified() {
        let es = errs(
            "spec x;
             proc p { var n: int 0..3 = 0; state S { } }
             never P: n > 0;",
        );
        assert!(
            es.iter()
                .any(|e| e.contains("unknown variable `n`") && e.contains("globals")),
            "{es:?}"
        );
    }
}
