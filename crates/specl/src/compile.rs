//! Lowering a checked spec into an executable [`mck::Model`].
//!
//! Compilation flattens the AST into index-addressed tables ([`Program`]):
//! messages, channels, variables (globals first, then each process's locals)
//! and per-state edge lists, with every name resolved to a slot and every
//! expression lowered to a small [`CExpr`] tree. [`SpecModel`] then
//! interprets that program under exactly the channel semantics of
//! [`mck::Chan`] so that a spec and a hand-written Rust model of the same
//! protocol explore *identical* state graphs:
//!
//! - the checker's interleaving actions are the enabled `when` edges plus,
//!   per non-empty channel, deliver / drop (lossy only) / duplicate
//!   (duplicating with budget left only) of the head message;
//! - `deliver` pops the head and runs the receiver's first matching `recv`
//!   edge (by declaration order) whose guard holds; an unmatched message is
//!   consumed silently, like the Rust FSMs ignoring unexpected NAS messages;
//! - `duplicate` hands the head to the receiver while leaving it queued and
//!   burns one unit of the channel's duplication budget;
//! - `send` onto a full lossy channel bumps a per-channel overflow counter
//!   (a visible state change, as in `Chan::send`); onto a full reliable
//!   channel it vanishes silently (the models ignore `ChanFull`);
//! - edge bodies are atomic: recv + assignments + sends + goto are one
//!   transition, never interleaved.
//!
//! Integer assignment clamps to the variable's declared range, which is what
//! keeps every spec finite-state by construction.
//!
//! # Timer semantics
//!
//! Timers are lowered to a **priority abstraction** rather than a clock:
//! each declared `timer`/`deadline` is a three-valued cell (idle / armed /
//! expired), `start`/`stop` flip it, and the checker gets one
//! `TimerFire` action per armed timer whose *effective duration* is
//! minimal among all armed timers — shorter timers always beat longer
//! ones, equal durations race nondeterministically. Firing runs the first
//! declared `expire` edge (process order, then declaration order) whose
//! guard holds in the pre-fire state; with no taker the expiry is
//! consumed silently, like an unexpected NAS message. A `timer` returns
//! to idle when it fires and may be re-`start`ed; a `deadline` is
//! one-shot: it fires into a sticky `expired` state that `start` and
//! `stop` cannot leave.
//!
//! Effective durations are the declared ones multiplied per-timer by
//! [`SpecModel::with_timer_scale`]; sweeping those factors is how the
//! screening pipeline asks "which races survive when this timer is slow
//! and that one is fast?" without adding a single bit of state. Scales
//! matter only through how they order timers that can be armed in the
//! same state, so two scalings that order every such pair alike give the
//! same model ([`SpecModel::fires_like`]).

use std::sync::Arc;

use mck::{Model, Property};

use crate::ast::{self, BinOp, Quant, Spec, Stmt, Trigger, Ty, UnOp};
use crate::diag::Diagnostic;
use crate::intern::intern;
use crate::sema;

/// A lowered, index-addressed spec.
#[derive(Debug)]
pub struct Program {
    /// Spec name.
    pub name: String,
    /// Paper-instance tag (`instance S2;`), if declared.
    pub instance: Option<String>,
    /// Message alphabet; a message id is an index here.
    pub msgs: Vec<String>,
    /// Channels.
    pub chans: Vec<ChanDef>,
    /// Timers and deadlines; a timer id is an index here.
    pub timers: Vec<TimerDef>,
    /// All variables: globals first, then each process's locals.
    pub vars: Vec<VarDef>,
    /// Processes.
    pub procs: Vec<ProcDef>,
    /// Properties.
    pub props: Vec<PropDef>,
    /// Boundary predicate.
    pub boundary: Option<CExpr>,
    /// Partial-order-reduction metadata derived during lowering.
    pub por: PorInfo,
    /// Where each part of a [`SpecState`] sits among its cells.
    cells: CellLayout,
    /// Timer pairs `(t, u)`, `t < u`, that may be armed in one reachable
    /// state ([`co_armed_pairs`]).
    co_armed: Vec<(usize, usize)>,
}

/// Cell offsets of a [`SpecState`], computed once by [`lower`].
#[derive(Debug)]
struct CellLayout {
    /// First variable cell; the cells before it are process locations.
    vars: usize,
    /// First cell of each channel's block.
    chans: Vec<usize>,
    /// First timer cell.
    timers: usize,
    /// Cells per state.
    len: usize,
}

/// Offsets inside a channel's block of cells: queue length, remaining
/// duplication budget, overflow count, then `cap` queue slots.
const CHAN_LEN: usize = 0;
const CHAN_DUP: usize = 1;
const CHAN_LOST: usize = 2;
const CHAN_QUEUE: usize = 3;

/// Static independence facts driving [`mck::Model::reduced_actions`].
///
/// A process `p` qualifies for ample-set reduction when nothing outside `p`
/// can observe or perturb its moves:
///
/// * **unobserved** — no property, boundary, or other process's guard /
///   assignment expression reads `p`'s locals or tests `p @ State`;
/// * **undeliverable** — every channel routed to `p` either is never sent
///   on (init included) or carries only messages `p` has no `recv` edge
///   for anywhere, so a delivery can never execute `p`'s code;
/// * **self-contained location** — every `when` edge at `p`'s current
///   location has a guard reading only `p`'s own locals / own location and
///   a body of own-local assignments and `goto`s (no sends, no globals).
///
/// Under those conditions `p`'s enabled `when` edges form a valid ample
/// set: they commute with every other action and are invisible to the
/// properties. The engines add the cycle proviso on top.
#[derive(Debug)]
pub struct PorInfo {
    /// Per process: unobserved and undeliverable (conditions 1–2).
    pub independent: Vec<bool>,
    /// Per process, per state: condition 3 holds and the state has at
    /// least one `when` edge.
    pub ample_locs: Vec<Vec<bool>>,
}

/// A lowered channel.
#[derive(Debug)]
pub struct ChanDef {
    /// Name (for rendering).
    pub name: String,
    /// Receiving process index (deliveries route here).
    pub to: usize,
    /// Queue capacity.
    pub cap: usize,
    /// May drop messages.
    pub lossy: bool,
    /// May duplicate messages.
    pub duplicating: bool,
    /// Initial duplication budget.
    pub dup_budget: u8,
}

/// A lowered timer or deadline.
#[derive(Debug)]
pub struct TimerDef {
    /// Name (for rendering and scale lookup).
    pub name: String,
    /// Declared duration (abstract units; only relative order matters).
    pub duration: i64,
    /// True for `deadline`: fires once into a sticky expired state.
    pub oneshot: bool,
}

/// A lowered variable.
#[derive(Debug)]
pub struct VarDef {
    /// Qualified display name (`ever_registered` or `dev.attempts`).
    pub name: String,
    /// True for `bool` variables (rendered true/false).
    pub is_bool: bool,
    /// Clamp floor.
    pub lo: i64,
    /// Clamp ceiling.
    pub hi: i64,
    /// Initial value.
    pub init: i64,
}

/// A lowered process.
#[derive(Debug)]
pub struct ProcDef {
    /// Name.
    pub name: String,
    /// Slots of this process's locals (contiguous).
    pub local_slots: std::ops::Range<usize>,
    /// Init-block operations, run once while building the initial state.
    pub init_ops: Vec<Op>,
    /// States; the location of a process is an index here.
    pub states: Vec<StateDef>,
}

/// A lowered state.
#[derive(Debug)]
pub struct StateDef {
    /// Name (for `@` tests and rendering).
    pub name: String,
    /// Outgoing edges in declaration order.
    pub edges: Vec<EdgeDef>,
}

/// What fires a lowered edge.
#[derive(Debug, PartialEq, Eq)]
pub enum EdgeTrigger {
    /// Spontaneous guarded step.
    When,
    /// Fires when the checker delivers `msg` from `chan`.
    Recv {
        /// Channel index.
        chan: usize,
        /// Message id.
        msg: u16,
    },
    /// Fires when the checker expires a timer.
    Expire {
        /// Timer index.
        timer: usize,
    },
}

/// A lowered edge.
#[derive(Debug)]
pub struct EdgeDef {
    /// User-asserted atomicity (`atomic when ...`): the partial-order
    /// reducer may treat this edge as invisible to every other component
    /// even where the syntactic self-containment analysis cannot prove
    /// it. Sema bounds the blast radius (no sends, no timer ops); the
    /// full-vs-reduced verdict agreement in the statespace experiment
    /// checks the assertion empirically.
    pub atomic: bool,
    /// Trigger kind.
    pub trigger: EdgeTrigger,
    /// Guard (the `when` expression); `None` means always enabled.
    pub guard: Option<CExpr>,
    /// Atomic body.
    pub ops: Vec<Op>,
    /// Rendering label (`as "..."` or a derived `proc@State#k`).
    pub display: String,
}

/// A lowered statement.
#[derive(Debug)]
pub enum Op {
    /// Assign `slot = expr` (ints clamp to the declared range).
    Set(usize, CExpr),
    /// Queue a message (channel, message id).
    Send(usize, u16),
    /// Move the executing process to a state index.
    Goto(u16),
    /// Arm a timer (no-op on an expired deadline).
    Start(usize),
    /// Disarm a timer (expired deadlines stay expired).
    Stop(usize),
}

/// A lowered property.
#[derive(Debug)]
pub struct PropDef {
    /// Interned name (mck property names are `&'static str`).
    pub name: &'static str,
    /// Quantifier.
    pub quant: Quant,
    /// Predicate.
    pub cond: CExpr,
}

/// A lowered expression; booleans evaluate to 0/1.
#[derive(Debug)]
pub enum CExpr {
    /// Literal (bools lowered to 0/1).
    Lit(i64),
    /// Read a variable slot.
    Var(usize),
    /// `proc @ State` as (process index, state index).
    AtLoc(usize, u16),
    /// Unary op.
    Unary(UnOp, Box<CExpr>),
    /// Binary op.
    Binary(BinOp, Box<CExpr>, Box<CExpr>),
}

/// A global interpreter state: one boxed slice of cells, so a clone is a
/// single allocation. [`lower`] fixes the layout, in this order: one
/// location per process, one value per variable slot (globals first), one
/// block per channel (queue length, remaining duplication budget, overflow
/// count, then `cap` queue slots, head first), and one [`timer_state`]
/// cell per timer. A queue slot past the queue's length is always zero, so
/// the derived equality and hash see only what the state holds.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SpecState(Box<[i64]>);

/// Timer-cell values of a [`SpecState`].
pub mod timer_state {
    /// Not running.
    pub const IDLE: i64 = 0;
    /// Running; eligible to fire when minimal among armed.
    pub const ARMED: i64 = 1;
    /// A fired deadline (sticky).
    pub const EXPIRED: i64 = 2;
}

/// A transition label of the interpreted model.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SpecAction {
    /// Fire edge `edge` of state `state` of process `proc`.
    Edge {
        /// Process index.
        proc: u16,
        /// State index (the process must still be there).
        state: u16,
        /// Edge index within the state.
        edge: u16,
    },
    /// Deliver the head message of a channel to its receiver.
    Deliver {
        /// Channel index.
        chan: u16,
        /// Expected head (kept in the label for rendering and replay).
        msg: u16,
    },
    /// Drop the head message of a lossy channel.
    Drop {
        /// Channel index.
        chan: u16,
        /// Expected head.
        msg: u16,
    },
    /// Duplicate the head of a duplicating channel (deliver it while leaving
    /// it queued; burns one unit of budget).
    Dup {
        /// Channel index.
        chan: u16,
        /// Expected head.
        msg: u16,
    },
    /// Expire an armed timer whose effective duration is minimal among
    /// all armed timers (see the module docs' priority abstraction).
    TimerFire {
        /// Timer index.
        timer: u16,
    },
}

/// An executable spec: a thin, cloneable handle around the lowered
/// [`Program`], implementing [`mck::Model`].
#[derive(Clone, Debug)]
pub struct SpecModel {
    /// The lowered program.
    pub program: Arc<Program>,
    /// Per-timer duration multipliers (all 1 after lowering); private so
    /// scaled models only arise through [`SpecModel::with_timer_scale`].
    timer_scale: Vec<i64>,
}

impl SpecModel {
    /// A copy of this model with `timer`'s effective duration multiplied
    /// by `factor` (composing with any earlier scaling). `None` when no
    /// such timer is declared or `factor < 1`. State spaces of scaled
    /// models share the same state type — only which `TimerFire` actions
    /// are enabled shifts, which is exactly what a timing sweep varies.
    pub fn with_timer_scale(&self, timer: &str, factor: i64) -> Option<SpecModel> {
        let t = self.program.timers.iter().position(|d| d.name == timer)?;
        if factor < 1 {
            return None;
        }
        let mut scaled = self.clone();
        scaled.timer_scale[t] = scaled.timer_scale[t].saturating_mul(factor);
        Some(scaled)
    }

    /// True when both models interpret the same lowered program and their
    /// effective durations order every pair of timers that may be armed
    /// together the same way, a tie counting as its own outcome. A timer
    /// fires only by comparison with the timers armed beside it, so such
    /// models enable the same actions in every reachable state: their
    /// reachable graphs, and any exhaustive run over them, are identical.
    pub fn fires_like(&self, other: &SpecModel) -> bool {
        Arc::ptr_eq(&self.program, &other.program)
            && self.program.co_armed.iter().all(|&(t, u)| {
                self.effective_duration(t).cmp(&self.effective_duration(u))
                    == other
                        .effective_duration(t)
                        .cmp(&other.effective_duration(u))
            })
    }

    fn effective_duration(&self, t: usize) -> i64 {
        self.program.timers[t]
            .duration
            .saturating_mul(self.timer_scale[t])
    }

    /// The minimal effective duration among armed timers, if any is armed.
    fn armed_min(&self, s: &SpecState) -> Option<i64> {
        (0..self.program.timers.len())
            .filter(|&t| self.program.timer(s, t) == timer_state::ARMED)
            .map(|t| self.effective_duration(t))
            .min()
    }
}

/// Parse + check + lower a spec source into a runnable model.
///
/// `Err` carries every diagnostic found (parse errors are a single entry).
pub fn compile(source: &str) -> Result<SpecModel, Vec<Diagnostic>> {
    let spec = crate::parser::parse(source).map_err(|d| vec![d])?;
    sema::check(&spec)?;
    Ok(lower(&spec))
}

/// Lower a spec that already passed [`sema::check`]. Panics on unresolved
/// names — run the checker first.
pub fn lower(spec: &Spec) -> SpecModel {
    let msgs: Vec<String> = spec.msgs.iter().map(|m| m.name.clone()).collect();
    let msg_id = |name: &str| -> u16 {
        msgs.iter()
            .position(|m| m == name)
            .expect("sema checked msgs") as u16
    };
    let proc_idx = |name: &str| -> usize {
        spec.procs
            .iter()
            .position(|p| p.name.name == name)
            .expect("sema checked procs")
    };

    let chans: Vec<ChanDef> = spec
        .chans
        .iter()
        .map(|c| ChanDef {
            name: c.name.name.clone(),
            to: proc_idx(&c.to.name),
            cap: c.cap as usize,
            lossy: c.lossy,
            duplicating: c.dup.is_some(),
            dup_budget: c.dup.unwrap_or(0) as u8,
        })
        .collect();
    let chan_idx = |name: &str| -> usize {
        spec.chans
            .iter()
            .position(|c| c.name.name == name)
            .expect("sema checked chans")
    };

    let timers: Vec<TimerDef> = spec
        .timers
        .iter()
        .map(|t| TimerDef {
            name: t.name.name.clone(),
            duration: t.duration,
            oneshot: t.oneshot,
        })
        .collect();
    let timer_idx = |name: &str| -> usize {
        spec.timers
            .iter()
            .position(|t| t.name.name == name)
            .expect("sema checked timers")
    };

    // Variable slots: globals first, then each process's locals in order.
    let mut vars: Vec<VarDef> = Vec::new();
    let lower_var = |v: &ast::VarDecl, qual: Option<&str>| -> VarDef {
        let (is_bool, lo, hi) = match v.ty {
            Ty::Bool => (true, 0, 1),
            Ty::Int { lo, hi } => (false, lo, hi),
        };
        let init = match v.init {
            ast::Literal::Bool(b) => b as i64,
            ast::Literal::Int(n) => n,
        };
        let name = match qual {
            Some(p) => format!("{p}.{}", v.name.name),
            None => v.name.name.clone(),
        };
        VarDef {
            name,
            is_bool,
            lo,
            hi,
            init,
        }
    };
    for g in &spec.globals {
        vars.push(lower_var(g, None));
    }
    let mut local_ranges = Vec::new();
    for p in &spec.procs {
        let start = vars.len();
        for v in &p.vars {
            vars.push(lower_var(v, Some(&p.name.name)));
        }
        local_ranges.push(start..vars.len());
    }

    // Slot of an unqualified name seen from inside process `pi`
    // (local-then-global), or of a global when `pi` is None.
    let slot_of = |name: &str, pi: Option<usize>| -> usize {
        if let Some(pi) = pi {
            let p = &spec.procs[pi];
            if let Some(k) = p.vars.iter().position(|v| v.name.name == name) {
                return local_ranges[pi].start + k;
            }
        }
        spec.globals
            .iter()
            .position(|g| g.name.name == name)
            .expect("sema checked vars")
    };
    let field_slot = |proc: &str, var: &str| -> usize {
        let pi = proc_idx(proc);
        let k = spec.procs[pi]
            .vars
            .iter()
            .position(|v| v.name.name == var)
            .expect("sema checked fields");
        local_ranges[pi].start + k
    };
    let state_idx = |pi: usize, name: &str| -> u16 {
        spec.procs[pi]
            .states
            .iter()
            .position(|s| s.name.name == name)
            .expect("sema checked states") as u16
    };

    fn lower_expr(
        e: &ast::Expr,
        pi: Option<usize>,
        slot_of: &dyn Fn(&str, Option<usize>) -> usize,
        field_slot: &dyn Fn(&str, &str) -> usize,
        proc_idx: &dyn Fn(&str) -> usize,
        state_idx: &dyn Fn(usize, &str) -> u16,
    ) -> CExpr {
        match e {
            ast::Expr::Int(n, _) => CExpr::Lit(*n),
            ast::Expr::Bool(b, _) => CExpr::Lit(*b as i64),
            ast::Expr::Var(id) => CExpr::Var(slot_of(&id.name, pi)),
            ast::Expr::Field { proc, var } => CExpr::Var(field_slot(&proc.name, &var.name)),
            ast::Expr::AtLoc { proc, loc } => {
                let p = proc_idx(&proc.name);
                CExpr::AtLoc(p, state_idx(p, &loc.name))
            }
            ast::Expr::Unary { op, expr } => CExpr::Unary(
                *op,
                Box::new(lower_expr(
                    expr, pi, slot_of, field_slot, proc_idx, state_idx,
                )),
            ),
            ast::Expr::Binary { op, lhs, rhs } => CExpr::Binary(
                *op,
                Box::new(lower_expr(
                    lhs, pi, slot_of, field_slot, proc_idx, state_idx,
                )),
                Box::new(lower_expr(
                    rhs, pi, slot_of, field_slot, proc_idx, state_idx,
                )),
            ),
        }
    }
    let lx = |e: &ast::Expr, pi: Option<usize>| -> CExpr {
        lower_expr(e, pi, &slot_of, &field_slot, &proc_idx, &state_idx)
    };
    let lower_stmts = |stmts: &[Stmt], pi: usize| -> Vec<Op> {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::Assign { target, value } => {
                    Op::Set(slot_of(&target.name, Some(pi)), lx(value, Some(pi)))
                }
                Stmt::Send { chan, msg } => Op::Send(chan_idx(&chan.name), msg_id(&msg.name)),
                Stmt::Goto { target } => Op::Goto(state_idx(pi, &target.name)),
                Stmt::Start { timer } => Op::Start(timer_idx(&timer.name)),
                Stmt::Stop { timer } => Op::Stop(timer_idx(&timer.name)),
            })
            .collect()
    };

    let procs: Vec<ProcDef> = spec
        .procs
        .iter()
        .enumerate()
        .map(|(pi, p)| ProcDef {
            name: p.name.name.clone(),
            local_slots: local_ranges[pi].clone(),
            init_ops: lower_stmts(&p.init, pi),
            states: p
                .states
                .iter()
                .map(|s| StateDef {
                    name: s.name.name.clone(),
                    edges: s
                        .edges
                        .iter()
                        .enumerate()
                        .map(|(k, e)| {
                            let (trigger, guard) = match &e.trigger {
                                Trigger::When(g) => (EdgeTrigger::When, Some(lx(g, Some(pi)))),
                                Trigger::Recv { chan, msg, guard } => (
                                    EdgeTrigger::Recv {
                                        chan: chan_idx(&chan.name),
                                        msg: msg_id(&msg.name),
                                    },
                                    guard.as_ref().map(|g| lx(g, Some(pi))),
                                ),
                                Trigger::Expire { timer, guard } => (
                                    EdgeTrigger::Expire {
                                        timer: timer_idx(&timer.name),
                                    },
                                    guard.as_ref().map(|g| lx(g, Some(pi))),
                                ),
                            };
                            let display = e.label.clone().unwrap_or_else(|| {
                                format!("{}@{}#{}", p.name.name, s.name.name, k)
                            });
                            EdgeDef {
                                atomic: e.atomic,
                                trigger,
                                guard,
                                ops: lower_stmts(&e.body, pi),
                                display,
                            }
                        })
                        .collect(),
                })
                .collect(),
        })
        .collect();

    let props: Vec<PropDef> = spec
        .props
        .iter()
        .map(|p| PropDef {
            name: intern(&p.name.name),
            quant: p.quant,
            cond: lx(&p.expr, None),
        })
        .collect();
    let boundary = spec.boundary.as_ref().map(|b| lx(b, None));
    let por = analyze_por(&chans, &procs, &props, &boundary);
    let co_armed = co_armed_pairs(&procs, timers.len());

    let mut next = procs.len() + vars.len();
    let chan_cells = chans
        .iter()
        .map(|c| {
            let at = next;
            next += CHAN_QUEUE + c.cap;
            at
        })
        .collect();
    let cells = CellLayout {
        vars: procs.len(),
        chans: chan_cells,
        timers: next,
        len: next + timers.len(),
    };

    let timer_scale = vec![1; timers.len()];
    SpecModel {
        program: Arc::new(Program {
            name: spec.name.name.clone(),
            instance: spec.instance.as_ref().map(|i| i.name.clone()),
            msgs,
            chans,
            timers,
            vars,
            procs,
            props,
            boundary,
            por,
            cells,
            co_armed,
        }),
        timer_scale,
    }
}

/// True when `e` reads nothing outside process `pi` (its `locals` slot
/// range and its own `@` location).
fn expr_self_contained(e: &CExpr, pi: usize, locals: &std::ops::Range<usize>) -> bool {
    match e {
        CExpr::Lit(_) => true,
        CExpr::Var(slot) => locals.contains(slot),
        CExpr::AtLoc(p, _) => *p == pi,
        CExpr::Unary(_, x) => expr_self_contained(x, pi, locals),
        CExpr::Binary(_, a, b) => {
            expr_self_contained(a, pi, locals) && expr_self_contained(b, pi, locals)
        }
    }
}

/// True when `e` reads any of process `pi`'s locals or tests its location.
fn expr_observes(e: &CExpr, pi: usize, locals: &std::ops::Range<usize>) -> bool {
    match e {
        CExpr::Lit(_) => false,
        CExpr::Var(slot) => locals.contains(slot),
        CExpr::AtLoc(p, _) => *p == pi,
        CExpr::Unary(_, x) => expr_observes(x, pi, locals),
        CExpr::Binary(_, a, b) => expr_observes(a, pi, locals) || expr_observes(b, pi, locals),
    }
}

/// Derive [`PorInfo`] from the lowered tables (see its docs for the three
/// conditions). Purely syntactic and conservative: a `false` never makes
/// the reduction unsound, only less effective.
fn analyze_por(
    chans: &[ChanDef],
    procs: &[ProcDef],
    props: &[PropDef],
    boundary: &Option<CExpr>,
) -> PorInfo {
    // Channels that any init block or edge body ever sends on.
    let mut sent = vec![false; chans.len()];
    let mark = |ops: &[Op], sent: &mut Vec<bool>| {
        for op in ops {
            if let Op::Send(ci, _) = op {
                sent[*ci] = true;
            }
        }
    };
    for p in procs {
        mark(&p.init_ops, &mut sent);
        for s in &p.states {
            for e in &s.edges {
                mark(&e.ops, &mut sent);
            }
        }
    }
    let recvs_on = |pi: usize, ci: usize| {
        procs[pi].states.iter().any(|s| {
            s.edges
                .iter()
                .any(|e| matches!(e.trigger, EdgeTrigger::Recv { chan, .. } if chan == ci))
        })
    };

    let independent = (0..procs.len())
        .map(|pi| {
            let locals = &procs[pi].local_slots;
            let observes = |e: &CExpr| expr_observes(e, pi, locals);
            let ops_observe = |ops: &[Op]| {
                ops.iter()
                    .any(|op| matches!(op, Op::Set(_, e) if observes(e)))
            };
            let observed = props.iter().any(|p| observes(&p.cond))
                || boundary.as_ref().is_some_and(observes)
                || procs.iter().enumerate().any(|(qi, q)| {
                    qi != pi
                        && (ops_observe(&q.init_ops)
                            || q.states.iter().any(|s| {
                                s.edges.iter().any(|e| {
                                    e.guard.as_ref().is_some_and(observes) || ops_observe(&e.ops)
                                })
                            }))
                });
            let deliverable = chans
                .iter()
                .enumerate()
                .any(|(ci, c)| c.to == pi && sent[ci] && recvs_on(pi, ci));
            !observed && !deliverable
        })
        .collect();

    let ample_locs = procs
        .iter()
        .enumerate()
        .map(|(pi, p)| {
            let locals = &p.local_slots;
            p.states
                .iter()
                .map(|s| {
                    // A location with an `expire` edge depends on the
                    // globally shared timer cells, so its process can
                    // never be an ample candidate there.
                    if s.edges
                        .iter()
                        .any(|e| matches!(e.trigger, EdgeTrigger::Expire { .. }))
                    {
                        return false;
                    }
                    let mut whens = s
                        .edges
                        .iter()
                        .filter(|e| e.trigger == EdgeTrigger::When)
                        .peekable();
                    whens.peek().is_some()
                        && whens.all(|e| {
                            // `atomic` is the user asserting this edge is
                            // invisible where the syntax can't prove it.
                            e.atomic
                                || (e
                                    .guard
                                    .as_ref()
                                    .is_none_or(|g| expr_self_contained(g, pi, locals))
                                    && e.ops.iter().all(|op| match op {
                                        Op::Set(slot, v) => {
                                            locals.contains(slot)
                                                && expr_self_contained(v, pi, locals)
                                        }
                                        Op::Goto(_) => true,
                                        // Sends are visible to the receiver;
                                        // timer ops are visible to every
                                        // process with an `expire` edge.
                                        Op::Send(..) | Op::Start(_) | Op::Stop(_) => false,
                                    }))
                        })
                })
                .collect()
        })
        .collect();

    PorInfo {
        independent,
        ample_locs,
    }
}

/// The timer pairs `(t, u)`, `t < u`, that may be armed in one reachable
/// state.
///
/// A timer is *owned* by a process when every `start`/`stop` of it and
/// every `expire` edge for it lie in that process. For each process the
/// analysis bounds which timers may be armed at each of its locations:
/// it starts from the init block's ops and final `goto`, then walks every
/// edge until nothing changes, ignoring guards. An `expire t` edge first
/// clears `t`, which just fired, then applies its `start`/`stop`/`goto`
/// ops in order. The bound holds for the owned timers in every reachable
/// state because no other process starts or stops them, a silent expiry
/// only disarms one, and only the owner's `goto`s move it. So two timers
/// owned by one process are co-armable only when one of its locations may
/// hold both; every other pair is. A spurious pair can only cost
/// [`SpecModel::fires_like`] a match, never change a model.
fn co_armed_pairs(procs: &[ProcDef], n_timers: usize) -> Vec<(usize, usize)> {
    let touches = |p: &ProcDef, t: usize| {
        let in_ops = |ops: &[Op]| {
            ops.iter()
                .any(|op| matches!(op, Op::Start(u) | Op::Stop(u) if *u == t))
        };
        in_ops(&p.init_ops)
            || p.states
                .iter()
                .flat_map(|s| &s.edges)
                .any(|e| e.trigger == (EdgeTrigger::Expire { timer: t }) || in_ops(&e.ops))
    };
    let owner: Vec<Option<usize>> = (0..n_timers)
        .map(|t| {
            let mut by = procs.iter().enumerate().filter(|(_, p)| touches(p, t));
            match (by.next(), by.next()) {
                (Some((pi, _)), None) => Some(pi),
                _ => None,
            }
        })
        .collect();
    let may: Vec<Vec<Vec<bool>>> = procs.iter().map(|p| may_be_armed(p, n_timers)).collect();
    (0..n_timers)
        .flat_map(|t| (t + 1..n_timers).map(move |u| (t, u)))
        .filter(|&(t, u)| match (owner[t], owner[u]) {
            (Some(p), Some(q)) if p == q => may[p].iter().any(|at| at[t] && at[u]),
            _ => true,
        })
        .collect()
}

/// Per location of `p`, the timers that `p`'s own ops may leave armed
/// while `p` is there (see [`co_armed_pairs`]).
fn may_be_armed(p: &ProcDef, n_timers: usize) -> Vec<Vec<bool>> {
    fn apply(ops: &[Op], armed: &mut [bool], loc: &mut usize) {
        for op in ops {
            match *op {
                Op::Start(t) => armed[t] = true,
                Op::Stop(t) => armed[t] = false,
                Op::Goto(l) => *loc = usize::from(l),
                Op::Set(..) | Op::Send(..) => {}
            }
        }
    }
    let mut may = vec![vec![false; n_timers]; p.states.len()];
    let (mut armed, mut loc) = (vec![false; n_timers], 0);
    apply(&p.init_ops, &mut armed, &mut loc);
    may[loc] = armed;
    let mut changed = true;
    while changed {
        changed = false;
        for (from, s) in p.states.iter().enumerate() {
            for e in &s.edges {
                let (mut armed, mut to) = (may[from].clone(), from);
                if let EdgeTrigger::Expire { timer } = e.trigger {
                    armed[timer] = false;
                }
                apply(&e.ops, &mut armed, &mut to);
                for (at, a) in may[to].iter_mut().zip(armed) {
                    changed |= a && !*at;
                    *at |= a;
                }
            }
        }
    }
    may
}

impl Program {
    /// Number of global variable slots (they precede all locals).
    pub fn global_count(&self) -> usize {
        self.vars.len()
            - self
                .procs
                .iter()
                .map(|p| p.local_slots.len())
                .sum::<usize>()
    }

    /// Process `pi`'s location (a state index).
    fn loc(&self, s: &SpecState, pi: usize) -> usize {
        s.0[pi] as usize
    }

    /// Variable slot `slot`'s value.
    fn var(&self, s: &SpecState, slot: usize) -> i64 {
        s.0[self.cells.vars + slot]
    }

    /// Timer `t`'s [`timer_state`] cell.
    fn timer(&self, s: &SpecState, t: usize) -> i64 {
        s.0[self.cells.timers + t]
    }

    /// Channel `ci`'s block of cells (see the `CHAN_*` offsets).
    fn chan<'s>(&self, s: &'s SpecState, ci: usize) -> &'s [i64] {
        let at = self.cells.chans[ci];
        &s.0[at..at + CHAN_QUEUE + self.chans[ci].cap]
    }

    /// Channel `ci`'s queued message ids, head first.
    fn queue<'s>(&self, s: &'s SpecState, ci: usize) -> &'s [i64] {
        let c = self.chan(s, ci);
        &c[CHAN_QUEUE..CHAN_QUEUE + c[CHAN_LEN] as usize]
    }

    /// Channel `ci`'s head message, if any.
    fn head(&self, s: &SpecState, ci: usize) -> Option<u16> {
        self.queue(s, ci).first().map(|&m| m as u16)
    }

    /// Remove channel `ci`'s head, zeroing the slot that frees.
    fn pop(&self, s: &mut SpecState, ci: usize) {
        let at = self.cells.chans[ci];
        let q = at + CHAN_QUEUE;
        let len = s.0[at + CHAN_LEN] as usize;
        s.0.copy_within(q + 1..q + len, q);
        s.0[q + len - 1] = 0;
        s.0[at + CHAN_LEN] -= 1;
    }

    fn eval(&self, e: &CExpr, s: &SpecState) -> i64 {
        match e {
            CExpr::Lit(n) => *n,
            CExpr::Var(slot) => self.var(s, *slot),
            CExpr::AtLoc(p, loc) => (self.loc(s, *p) == usize::from(*loc)) as i64,
            CExpr::Unary(op, inner) => {
                let v = self.eval(inner, s);
                match op {
                    UnOp::Not => (v == 0) as i64,
                    UnOp::Neg => -v,
                }
            }
            CExpr::Binary(op, lhs, rhs) => {
                let a = self.eval(lhs, s);
                let b = self.eval(rhs, s);
                match op {
                    BinOp::Or => ((a != 0) || (b != 0)) as i64,
                    BinOp::And => ((a != 0) && (b != 0)) as i64,
                    BinOp::Eq => (a == b) as i64,
                    BinOp::Ne => (a != b) as i64,
                    BinOp::Lt => (a < b) as i64,
                    BinOp::Le => (a <= b) as i64,
                    BinOp::Gt => (a > b) as i64,
                    BinOp::Ge => (a >= b) as i64,
                    BinOp::Add => a.saturating_add(b),
                    BinOp::Sub => a.saturating_sub(b),
                }
            }
        }
    }

    fn eval_bool(&self, e: &CExpr, s: &SpecState) -> bool {
        self.eval(e, s) != 0
    }

    /// Run an edge/init body atomically: sends mirror `mck::Chan::send`
    /// (lossy-full counts an overflow, reliable-full vanishes silently).
    fn exec(&self, s: &mut SpecState, pi: usize, ops: &[Op]) {
        for op in ops {
            match op {
                Op::Set(slot, e) => {
                    let v = self.eval(e, s);
                    let d = &self.vars[*slot];
                    s.0[self.cells.vars + *slot] = v.clamp(d.lo, d.hi);
                }
                Op::Send(ci, msg) => {
                    let def = &self.chans[*ci];
                    let at = self.cells.chans[*ci];
                    let len = s.0[at + CHAN_LEN] as usize;
                    if len >= def.cap {
                        if def.lossy {
                            s.0[at + CHAN_LOST] += 1;
                        }
                    } else {
                        s.0[at + CHAN_QUEUE + len] = i64::from(*msg);
                        s.0[at + CHAN_LEN] += 1;
                    }
                }
                Op::Goto(loc) => s.0[pi] = i64::from(*loc),
                Op::Start(t) => {
                    let cell = &mut s.0[self.cells.timers + *t];
                    if !(self.timers[*t].oneshot && *cell == timer_state::EXPIRED) {
                        *cell = timer_state::ARMED;
                    }
                }
                Op::Stop(t) => {
                    let cell = &mut s.0[self.cells.timers + *t];
                    if !(self.timers[*t].oneshot && *cell == timer_state::EXPIRED) {
                        *cell = timer_state::IDLE;
                    }
                }
            }
        }
    }

    /// The receiver's first matching recv edge for `msg` on `chan` in the
    /// receiver's current location, by declaration order.
    fn matching_recv(&self, s: &SpecState, ci: usize, msg: u16) -> Option<(usize, usize)> {
        let pi = self.chans[ci].to;
        let loc = self.loc(s, pi);
        for (k, e) in self.procs[pi].states[loc].edges.iter().enumerate() {
            if e.trigger == (EdgeTrigger::Recv { chan: ci, msg }) {
                let open = e.guard.as_ref().is_none_or(|g| self.eval_bool(g, s));
                if open {
                    return Some((pi, k));
                }
            }
        }
        None
    }

    /// The first `expire` edge for timer `t` (process order, then
    /// declaration order) at its process's current location whose guard
    /// holds; `None` means the expiry is consumed silently.
    fn matching_expire(&self, s: &SpecState, t: usize) -> Option<(usize, usize)> {
        for (pi, p) in self.procs.iter().enumerate() {
            let loc = self.loc(s, pi);
            for (k, e) in p.states[loc].edges.iter().enumerate() {
                if e.trigger == (EdgeTrigger::Expire { timer: t }) {
                    let open = e.guard.as_ref().is_none_or(|g| self.eval_bool(g, s));
                    if open {
                        return Some((pi, k));
                    }
                }
            }
        }
        None
    }

    /// Every process at state 0, variables at their initial values, queues
    /// empty with full duplication budgets, timers idle (a zero cell), and
    /// then each process's init block run.
    fn initial_state(&self) -> SpecState {
        let mut cells = vec![0; self.cells.len];
        for (cell, v) in cells[self.cells.vars..].iter_mut().zip(&self.vars) {
            *cell = v.init;
        }
        for (&at, c) in self.cells.chans.iter().zip(&self.chans) {
            cells[at + CHAN_DUP] = i64::from(c.dup_budget);
        }
        let mut s = SpecState(cells.into_boxed_slice());
        for (pi, p) in self.procs.iter().enumerate() {
            let ops: &[Op] = &p.init_ops;
            self.exec(&mut s, pi, ops);
        }
        s
    }
}

impl Model for SpecModel {
    type State = SpecState;
    type Action = SpecAction;

    fn init_states(&self) -> Vec<SpecState> {
        vec![self.program.initial_state()]
    }

    fn actions(&self, s: &SpecState, out: &mut Vec<SpecAction>) {
        let prog = &*self.program;
        for (pi, p) in prog.procs.iter().enumerate() {
            let loc = prog.loc(s, pi);
            for (k, e) in p.states[loc].edges.iter().enumerate() {
                if e.trigger == EdgeTrigger::When
                    && e.guard.as_ref().is_none_or(|g| prog.eval_bool(g, s))
                {
                    out.push(SpecAction::Edge {
                        proc: pi as u16,
                        state: loc as u16,
                        edge: k as u16,
                    });
                }
            }
        }
        for (ci, c) in prog.chans.iter().enumerate() {
            let Some(head) = prog.head(s, ci) else {
                continue;
            };
            out.push(SpecAction::Deliver {
                chan: ci as u16,
                msg: head,
            });
            if c.lossy {
                out.push(SpecAction::Drop {
                    chan: ci as u16,
                    msg: head,
                });
            }
            if c.duplicating && prog.chan(s, ci)[CHAN_DUP] > 0 {
                out.push(SpecAction::Dup {
                    chan: ci as u16,
                    msg: head,
                });
            }
        }
        if let Some(min) = self.armed_min(s) {
            for t in 0..prog.timers.len() {
                if prog.timer(s, t) == timer_state::ARMED && self.effective_duration(t) == min {
                    out.push(SpecAction::TimerFire { timer: t as u16 });
                }
            }
        }
    }

    fn next_state(&self, s: &SpecState, a: &SpecAction) -> Option<SpecState> {
        let prog = &*self.program;
        match *a {
            SpecAction::Edge { proc, state, edge } => {
                let pi = proc as usize;
                if prog.loc(s, pi) != usize::from(state) {
                    return None;
                }
                let e = prog.procs[pi].states[state as usize]
                    .edges
                    .get(edge as usize)?;
                if e.trigger != EdgeTrigger::When {
                    return None;
                }
                if let Some(g) = &e.guard {
                    if !prog.eval_bool(g, s) {
                        return None;
                    }
                }
                let mut n = s.clone();
                prog.exec(&mut n, pi, &e.ops);
                Some(n)
            }
            SpecAction::Deliver { chan, msg } => {
                let ci = chan as usize;
                if prog.head(s, ci) != Some(msg) {
                    return None;
                }
                let mut n = s.clone();
                prog.pop(&mut n, ci);
                if let Some((pi, k)) = prog.matching_recv(s, ci, msg) {
                    let loc = prog.loc(s, pi);
                    // Split borrow: clone not needed, ops indexed directly.
                    let ops = &prog.procs[pi].states[loc].edges[k].ops;
                    prog.exec(&mut n, pi, ops);
                }
                Some(n)
            }
            SpecAction::Drop { chan, msg } => {
                let ci = chan as usize;
                if !prog.chans[ci].lossy || prog.head(s, ci) != Some(msg) {
                    return None;
                }
                let mut n = s.clone();
                prog.pop(&mut n, ci);
                Some(n)
            }
            SpecAction::Dup { chan, msg } => {
                let ci = chan as usize;
                let ok = prog.chans[ci].duplicating
                    && prog.chan(s, ci)[CHAN_DUP] > 0
                    && prog.head(s, ci) == Some(msg);
                if !ok {
                    return None;
                }
                let mut n = s.clone();
                n.0[prog.cells.chans[ci] + CHAN_DUP] -= 1;
                if let Some((pi, k)) = prog.matching_recv(s, ci, msg) {
                    let loc = prog.loc(s, pi);
                    let ops = &prog.procs[pi].states[loc].edges[k].ops;
                    prog.exec(&mut n, pi, ops);
                }
                Some(n)
            }
            SpecAction::TimerFire { timer } => {
                let t = timer as usize;
                let ok = t < prog.timers.len()
                    && prog.timer(s, t) == timer_state::ARMED
                    && self.armed_min(s) == Some(self.effective_duration(t));
                if !ok {
                    return None;
                }
                let mut n = s.clone();
                n.0[prog.cells.timers + t] = if prog.timers[t].oneshot {
                    timer_state::EXPIRED
                } else {
                    timer_state::IDLE
                };
                if let Some((pi, k)) = prog.matching_expire(s, t) {
                    let loc = prog.loc(s, pi);
                    let ops = &prog.procs[pi].states[loc].edges[k].ops;
                    prog.exec(&mut n, pi, ops);
                }
                Some(n)
            }
        }
    }

    fn properties(&self) -> Vec<Property<Self>> {
        self.program
            .props
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let cond = move |m: &SpecModel, s: &SpecState| {
                    let p = &m.program.props[i];
                    m.program.eval_bool(&p.cond, s)
                };
                match p.quant {
                    Quant::Always => Property::always(p.name, cond),
                    Quant::Never => Property::never(p.name, cond),
                    Quant::Eventually => Property::eventually(p.name, cond),
                }
            })
            .collect()
    }

    fn within_boundary(&self, s: &SpecState) -> bool {
        match &self.program.boundary {
            Some(b) => self.program.eval_bool(b, s),
            None => true,
        }
    }

    /// Component split for collapse interning and frontier spilling: one
    /// component of globals, one per process (location + locals), one per
    /// channel (budget, overflow, queue), plus one trailing component of
    /// timer cells when the spec declares any.
    fn components(&self, s: &SpecState, out: &mut Vec<Vec<u8>>) -> bool {
        let prog = &*self.program;
        let timer_comps = usize::from(!prog.timers.is_empty());
        out.resize_with(
            1 + prog.procs.len() + prog.chans.len() + timer_comps,
            Vec::new,
        );
        let (g, rest) = out.split_first_mut().expect("the globals component");
        g.clear();
        for slot in 0..prog.global_count() {
            g.extend_from_slice(&prog.var(s, slot).to_le_bytes());
        }
        let (procs, rest) = rest.split_at_mut(prog.procs.len());
        for ((pi, p), c) in prog.procs.iter().enumerate().zip(procs) {
            c.clear();
            c.extend_from_slice(&(prog.loc(s, pi) as u16).to_le_bytes());
            for slot in p.local_slots.clone() {
                c.extend_from_slice(&prog.var(s, slot).to_le_bytes());
            }
        }
        let (chans, timers) = rest.split_at_mut(prog.chans.len());
        for (ci, c) in chans.iter_mut().enumerate() {
            let (block, queue) = (prog.chan(s, ci), prog.queue(s, ci));
            c.clear();
            c.push(block[CHAN_DUP] as u8);
            c.extend_from_slice(&(block[CHAN_LOST] as u32).to_le_bytes());
            c.extend_from_slice(&(queue.len() as u16).to_le_bytes());
            for &m in queue {
                c.extend_from_slice(&(m as u16).to_le_bytes());
            }
        }
        if let Some(t) = timers.first_mut() {
            t.clear();
            t.extend((0..prog.timers.len()).map(|ti| prog.timer(s, ti) as u8));
        }
        true
    }

    /// The inverse of [`SpecModel::components`]. `None` for anything
    /// `components` cannot produce: a wrong arity or length, a queue longer
    /// than its channel's capacity, or a timer cell out of range.
    fn reassemble(&self, comps: &[Vec<u8>]) -> Option<SpecState> {
        let prog = &*self.program;
        let layout = &prog.cells;
        let timer_comps = usize::from(!prog.timers.is_empty());
        if comps.len() != 1 + prog.procs.len() + prog.chans.len() + timer_comps {
            return None;
        }
        let mut cells = vec![0; layout.len];
        let g = &comps[0];
        if g.len() != prog.global_count() * 8 {
            return None;
        }
        for (cell, chunk) in cells[layout.vars..].iter_mut().zip(g.chunks_exact(8)) {
            *cell = i64::from_le_bytes(chunk.try_into().ok()?);
        }
        for (pi, p) in prog.procs.iter().enumerate() {
            let c = &comps[1 + pi];
            if c.len() != 2 + p.local_slots.len() * 8 {
                return None;
            }
            cells[pi] = i64::from(u16::from_le_bytes([c[0], c[1]]));
            for (slot, chunk) in p.local_slots.clone().zip(c[2..].chunks_exact(8)) {
                cells[layout.vars + slot] = i64::from_le_bytes(chunk.try_into().ok()?);
            }
        }
        for (ci, def) in prog.chans.iter().enumerate() {
            let c = &comps[1 + prog.procs.len() + ci];
            if c.len() < 7 {
                return None;
            }
            let qlen = usize::from(u16::from_le_bytes([c[5], c[6]]));
            if c.len() != 7 + qlen * 2 || qlen > def.cap {
                return None;
            }
            let block = &mut cells[layout.chans[ci]..];
            block[CHAN_LEN] = qlen as i64;
            block[CHAN_DUP] = i64::from(c[0]);
            block[CHAN_LOST] = i64::from(u32::from_le_bytes(c[1..5].try_into().ok()?));
            for (slot, m) in block[CHAN_QUEUE..].iter_mut().zip(c[7..].chunks_exact(2)) {
                *slot = i64::from(u16::from_le_bytes([m[0], m[1]]));
            }
        }
        if timer_comps == 1 {
            let c = comps.last()?;
            if c.len() != prog.timers.len()
                || c.iter().any(|&b| i64::from(b) > timer_state::EXPIRED)
            {
                return None;
            }
            for (cell, &b) in cells[layout.timers..].iter_mut().zip(c) {
                *cell = i64::from(b);
            }
        }
        Some(SpecState(cells.into_boxed_slice()))
    }

    /// Ample set from the lowering's [`PorInfo`]: the enabled `when` edges
    /// of the first process that is independent and self-contained at its
    /// current location (see [`PorInfo`] for why that set is sound).
    fn reduced_actions(&self, s: &SpecState, out: &mut Vec<SpecAction>) -> bool {
        let prog = &*self.program;
        for (pi, p) in prog.procs.iter().enumerate() {
            if !prog.por.independent[pi] {
                continue;
            }
            let loc = prog.loc(s, pi);
            if !prog.por.ample_locs[pi][loc] {
                continue;
            }
            out.clear();
            for (k, e) in p.states[loc].edges.iter().enumerate() {
                if e.trigger == EdgeTrigger::When
                    && e.guard.as_ref().is_none_or(|g| prog.eval_bool(g, s))
                {
                    out.push(SpecAction::Edge {
                        proc: pi as u16,
                        state: loc as u16,
                        edge: k as u16,
                    });
                }
            }
            if !out.is_empty() {
                return true;
            }
        }
        false
    }

    fn describe(&self) -> String {
        format!("spec:{}", self.program.name)
    }

    fn format_state(&self, s: &SpecState) -> String {
        use std::fmt::Write;
        let prog = &*self.program;
        let mut out = String::new();
        for (pi, p) in prog.procs.iter().enumerate() {
            if pi > 0 {
                out.push(' ');
            }
            let _ = write!(out, "{}@{}", p.name, p.states[prog.loc(s, pi)].name);
            if !p.local_slots.is_empty() {
                out.push('{');
                for (j, slot) in p.local_slots.clone().enumerate() {
                    if j > 0 {
                        out.push(' ');
                    }
                    let d = &prog.vars[slot];
                    let local = d.name.rsplit('.').next().unwrap_or(&d.name);
                    let _ = write!(out, "{}={}", local, render_val(d, prog.var(s, slot)));
                }
                out.push('}');
            }
        }
        let n_globals = prog.global_count();
        if n_globals > 0 {
            out.push_str(" |");
            for slot in 0..n_globals {
                let d = &prog.vars[slot];
                let _ = write!(out, " {}={}", d.name, render_val(d, prog.var(s, slot)));
            }
        }
        for (ci, c) in prog.chans.iter().enumerate() {
            let block = prog.chan(s, ci);
            let msgs: Vec<&str> = prog
                .queue(s, ci)
                .iter()
                .map(|&m| prog.msgs[m as usize].as_str())
                .collect();
            let _ = write!(out, " | {}=[{}]", c.name, msgs.join(","));
            if c.duplicating {
                let _ = write!(out, " dup={}", block[CHAN_DUP]);
            }
            if c.lossy {
                let _ = write!(out, " lost={}", block[CHAN_LOST]);
            }
        }
        for (ti, t) in prog.timers.iter().enumerate() {
            let cell = match prog.timer(s, ti) {
                timer_state::ARMED => "armed",
                timer_state::EXPIRED => "expired",
                _ => "idle",
            };
            let _ = write!(out, " | {}={}", t.name, cell);
        }
        out
    }

    fn format_action(&self, a: &SpecAction) -> String {
        let prog = &*self.program;
        match *a {
            SpecAction::Edge { proc, state, edge } => {
                prog.procs[proc as usize].states[state as usize].edges[edge as usize]
                    .display
                    .clone()
            }
            SpecAction::Deliver { chan, msg } => format!(
                "{} delivers {}",
                prog.chans[chan as usize].name, prog.msgs[msg as usize]
            ),
            SpecAction::Drop { chan, msg } => format!(
                "{} drops {}",
                prog.chans[chan as usize].name, prog.msgs[msg as usize]
            ),
            SpecAction::Dup { chan, msg } => format!(
                "{} duplicates {}",
                prog.chans[chan as usize].name, prog.msgs[msg as usize]
            ),
            SpecAction::TimerFire { timer } => {
                let t = &prog.timers[timer as usize];
                let kind = if t.oneshot { "deadline" } else { "timer" };
                format!("{kind} {} fires", t.name)
            }
        }
    }
}

fn render_val(d: &VarDef, v: i64) -> String {
    if d.is_bool {
        (v != 0).to_string()
    } else {
        v.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mck::{Checker, SearchStrategy};

    const PINGPONG: &str = r#"
spec pingpong;
msg Ping, Pong;
chan up from p to q cap 1 lossy dup 1;
chan down from q to p cap 1;
global rallies: int 0..2 = 0;

proc p {
    init {
        send up Ping;
        goto Waiting;
    }
    state Waiting {
        recv down Pong when rallies < 2 as "pong back" {
            rallies = rallies + 1;
            send up Ping;
        }
        recv down Pong when rallies >= 2 {
            goto Done;
        }
    }
    state Done {
    }
}

proc q {
    state Echo {
        recv up Ping {
            send down Pong;
        }
    }
}

never RallyDone: p @ Done;
"#;

    #[test]
    fn compiles_and_explores() {
        let model = compile(PINGPONG).expect("compiles");
        assert_eq!(model.program.procs.len(), 2);
        let result = Checker::new(model).strategy(SearchStrategy::Bfs).run();
        let v = result.violation("RallyDone").expect("rally completes");
        assert!(
            v.path.len() >= 6,
            "three rallies need sends+delivers, got {}",
            v.path.len()
        );
        assert!(result.stats.unique_states > 5);
    }

    #[test]
    fn lossy_full_send_bumps_overflow_reliable_full_send_vanishes() {
        let model = compile(
            "spec t; msg M;
             chan l from a to b cap 1 lossy;
             chan r from a to b cap 1;
             proc a { init { send l M; send l M; send r M; send r M; } state S { } }
             proc b { state T { } }",
        )
        .unwrap();
        let (prog, s) = (&*model.program, model.init_states().remove(0));
        assert_eq!(prog.queue(&s, 0), [0]);
        assert_eq!(
            prog.chan(&s, 0)[CHAN_LOST],
            1,
            "lossy overflow is counted state"
        );
        assert_eq!(prog.queue(&s, 1), [0]);
        assert_eq!(
            prog.chan(&s, 1)[CHAN_LOST],
            0,
            "reliable full send vanishes silently"
        );
    }

    #[test]
    fn duplicate_burns_budget_and_keeps_message() {
        let model = compile(
            "spec t; msg M;
             chan c from a to b cap 2 lossy dup 1;
             global got: int 0..9 = 0;
             proc a { init { send c M; } state S { } }
             proc b { state T { recv c M { got = got + 1; } } }",
        )
        .unwrap();
        let s0 = model.init_states().remove(0);
        let dup = SpecAction::Dup { chan: 0, msg: 0 };
        let s1 = model.next_state(&s0, &dup).expect("dup enabled");
        let prog = &*model.program;
        assert_eq!(prog.queue(&s1, 0), [0], "message stays queued");
        assert_eq!(prog.chan(&s1, 0)[CHAN_DUP], 0);
        assert_eq!(prog.var(&s1, 0), 1, "receiver handled the duplicate");
        assert!(model.next_state(&s1, &dup).is_none(), "budget exhausted");
    }

    #[test]
    fn unmatched_delivery_consumes_the_message() {
        let model = compile(
            "spec t; msg M, N;
             chan c from a to b cap 2;
             proc a { init { send c N; } state S { } }
             proc b { state T { recv c M { goto U; } } state U { } }",
        )
        .unwrap();
        let s0 = model.init_states().remove(0);
        let s1 = model
            .next_state(&s0, &SpecAction::Deliver { chan: 0, msg: 1 })
            .expect("deliver enabled");
        assert!(model.program.queue(&s1, 0).is_empty(), "message consumed");
        assert_eq!(
            model.program.loc(&s1, 1),
            0,
            "receiver unmoved by unexpected message"
        );
    }

    #[test]
    fn a_pop_zeroes_the_slot_it_frees() {
        let model = compile(
            "spec t; msg M, N;
             chan c from a to b cap 2;
             proc a { init { send c N; send c N; } state S { } }
             proc b { state T { } }",
        )
        .unwrap();
        let s0 = model.init_states().remove(0);
        let s1 = model
            .next_state(&s0, &SpecAction::Deliver { chan: 0, msg: 1 })
            .expect("deliver enabled");
        assert_eq!(model.program.queue(&s1, 0), [1]);
        // Rebuilt from its components, the state has nothing past the
        // queue's end; only a zeroed slot makes the two equal.
        let mut comps = Vec::new();
        assert!(model.components(&s1, &mut comps));
        assert_eq!(model.reassemble(&comps), Some(s1));
    }

    #[test]
    fn int_assignment_clamps_to_range() {
        let model = compile(
            "spec t;
             global n: int 0..3 = 0;
             proc a { init { n = n - 2; } state S { when n < 3 { n = n + 9; } } }",
        )
        .unwrap();
        let s0 = model.init_states().remove(0);
        assert_eq!(model.program.var(&s0, 0), 0, "clamped at the floor");
        let s1 = model
            .next_state(
                &s0,
                &SpecAction::Edge {
                    proc: 0,
                    state: 0,
                    edge: 0,
                },
            )
            .unwrap();
        assert_eq!(model.program.var(&s1, 0), 3, "clamped at the ceiling");
    }

    #[test]
    fn boundary_prunes_exploration() {
        let unbounded = compile(
            "spec t;
             global n: int 0..9 = 0;
             proc a { state S { when n < 9 { n = n + 1; } } }",
        )
        .unwrap();
        let bounded = compile(
            "spec t;
             global n: int 0..9 = 0;
             proc a { state S { when n < 9 { n = n + 1; } } }
             boundary: n <= 3;",
        )
        .unwrap();
        let full = Checker::new(unbounded).strategy(SearchStrategy::Bfs).run();
        let cut = Checker::new(bounded).strategy(SearchStrategy::Bfs).run();
        assert_eq!(full.stats.unique_states, 10);
        assert_eq!(
            cut.stats.unique_states, 5,
            "states past the boundary are not expanded"
        );
    }

    #[test]
    fn format_state_is_readable() {
        let model = compile(PINGPONG).unwrap();
        let s = model.init_states().remove(0);
        let txt = model.format_state(&s);
        assert!(txt.contains("p@Waiting"), "{txt}");
        assert!(txt.contains("rallies=0"), "{txt}");
        assert!(txt.contains("up=[Ping] dup=1 lost=0"), "{txt}");
        assert!(txt.contains("down=[]"), "{txt}");
    }

    /// Buffers as a previous call may leave them: two more than `comps`
    /// holds, each longer than any of its components and full of garbage.
    fn dirty_like(comps: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let longest = comps.iter().map(Vec::len).max().unwrap_or(0);
        vec![vec![0xEE; longest + 8]; comps.len() + 2]
    }

    #[test]
    fn components_roundtrip_every_reachable_state() {
        let model = compile(PINGPONG).unwrap();
        let graph = mck::explore(&model, 10_000);
        assert!(graph.complete);
        let mut comps = Vec::new();
        for s in &graph.states {
            comps.clear();
            assert!(model.components(s, &mut comps));
            assert_eq!(comps.len(), 1 + 2 + 2, "globals + 2 procs + 2 chans");
            let back = model.reassemble(&comps).expect("well-formed components");
            assert_eq!(&back, s, "intern→reconstruct must be the identity");
            let mut dirty = dirty_like(&comps);
            assert!(model.components(s, &mut dirty));
            assert_eq!(dirty, comps, "a dirty `out` is overwritten in place");
        }
    }

    #[test]
    fn reassemble_rejects_malformed_components() {
        let model = compile(PINGPONG).unwrap();
        let s = model.init_states().remove(0);
        let mut comps = Vec::new();
        model.components(&s, &mut comps);
        assert!(model.reassemble(&comps[..2]).is_none(), "wrong arity");
        let mut bad = comps.clone();
        bad[1].push(0xff);
        assert!(model.reassemble(&bad).is_none(), "wrong proc length");
        let mut bad = comps.clone();
        let last = bad.len() - 1;
        bad[last].truncate(3);
        assert!(model.reassemble(&bad).is_none(), "truncated channel");
        // `up` holds one Ping at cap 1: claim two, with the bytes to match.
        let mut bad = comps.clone();
        bad[3][5..7].copy_from_slice(&2u16.to_le_bytes());
        bad[3].extend_from_slice(&0u16.to_le_bytes());
        assert!(
            model.reassemble(&bad).is_none(),
            "queue longer than its capacity"
        );
    }

    const POR_SPEC: &str = "
        spec por;
        global done: bool = false;
        proc a { state S { when !done { goto T; } } state T { } }
        proc b {
            var n: int 0..3 = 0;
            state U { when n < 3 { n = n + 1; } }
        }
        never Impossible: done;
    ";

    #[test]
    fn por_metadata_separates_private_from_observed_procs() {
        let model = compile(POR_SPEC).unwrap();
        let por = &model.program.por;
        // `a` guards on the global `done`, so its edges are not
        // self-contained; `b` touches only its own counter.
        assert_eq!(por.independent, vec![true, true]);
        assert!(!por.ample_locs[0][0], "a@S reads a global");
        assert!(por.ample_locs[1][0], "b@U is self-contained");
    }

    #[test]
    fn por_reduces_interleavings_and_agrees_on_verdicts() {
        let full = Checker::new(compile(POR_SPEC).unwrap())
            .strategy(SearchStrategy::Bfs)
            .run();
        let reduced = Checker::new(compile(POR_SPEC).unwrap())
            .strategy(SearchStrategy::Bfs)
            .por(true)
            .run();
        assert_eq!(full.stats.unique_states, 8, "{{S,T}} × n∈0..=3");
        assert_eq!(reduced.stats.unique_states, 5, "b runs to completion first");
        assert!(full.complete && reduced.complete);
        assert!(full.violations.is_empty() && reduced.violations.is_empty());
    }

    #[test]
    fn sending_procs_never_get_ample_sets() {
        // p sends and q receives: neither qualifies (p's edge sends, q is
        // deliverable), so reduced_actions must decline.
        let model = compile(PINGPONG).unwrap();
        let por = &model.program.por;
        assert_eq!(por.independent, vec![false, false]);
        let s = model.init_states().remove(0);
        let mut ample = Vec::new();
        assert!(!model.reduced_actions(&s, &mut ample));
    }

    const TIMED: &str = r#"
spec timed;
timer short = 5;
timer long = 20;
global fired_short: bool = false;
global fired_long: bool = false;

proc p {
    init {
        start short;
        start long;
        goto Waiting;
    }
    state Waiting {
        expire short as "short timer fires" {
            fired_short = true;
        }
        expire long as "long timer fires" {
            fired_long = true;
            goto Done;
        }
    }
    state Done {
    }
}

never LongBeatsShort: fired_long && !fired_short;
"#;

    #[test]
    fn shorter_timers_always_fire_first() {
        let model = compile(TIMED).expect("compiles");
        let s0 = model.init_states().remove(0);
        let mut acts = Vec::new();
        model.actions(&s0, &mut acts);
        assert_eq!(
            acts,
            vec![SpecAction::TimerFire { timer: 0 }],
            "only the minimal armed timer may fire"
        );
        let result = Checker::new(model).strategy(SearchStrategy::Bfs).run();
        assert!(result.complete);
        assert!(
            result.violations.is_empty(),
            "long can never overtake short at equal scales"
        );
    }

    #[test]
    fn equal_effective_durations_race() {
        let model = compile(TIMED).unwrap();
        let scaled = model.with_timer_scale("short", 4).expect("short exists");
        let s0 = scaled.init_states().remove(0);
        let mut acts = Vec::new();
        scaled.actions(&s0, &mut acts);
        assert_eq!(
            acts,
            vec![
                SpecAction::TimerFire { timer: 0 },
                SpecAction::TimerFire { timer: 1 },
            ],
            "5×4 == 20 ties, so both race"
        );
        let result = Checker::new(scaled).strategy(SearchStrategy::Bfs).run();
        assert!(
            result.violation("LongBeatsShort").is_some(),
            "at the tied scale the long timer can win the race"
        );
    }

    #[test]
    fn timer_scaling_flips_fire_priority() {
        let model = compile(TIMED).unwrap();
        let scaled = model.with_timer_scale("short", 8).expect("short exists");
        let s0 = scaled.init_states().remove(0);
        let mut acts = Vec::new();
        scaled.actions(&s0, &mut acts);
        assert_eq!(
            acts,
            vec![SpecAction::TimerFire { timer: 1 }],
            "5×8 == 40 > 20: long now fires first"
        );
        assert!(model.with_timer_scale("nosuch", 2).is_none());
        assert!(model.with_timer_scale("short", 0).is_none());
    }

    #[test]
    fn fires_like_tells_a_tie_from_either_order() {
        let base = compile(TIMED).unwrap();
        assert_eq!(base.program.co_armed, [(0, 1)], "both armed at Waiting");
        let short_x = |f| base.with_timer_scale("short", f).unwrap();
        assert!(base.fires_like(&short_x(2)), "10 < 20 orders like 5 < 20");
        let (tie, flipped) = (short_x(4), short_x(8));
        assert!(!base.fires_like(&tie), "20 == 20 is its own outcome");
        assert!(!tie.fires_like(&flipped));
        assert!(!flipped.fires_like(&base), "40 > 20 flips the order");
        assert!(flipped.fires_like(&short_x(16)));
    }

    #[test]
    fn models_of_different_programs_never_fire_alike() {
        let (a, b) = (compile(TIMED).unwrap(), compile(TIMED).unwrap());
        assert!(a.fires_like(&a.clone()));
        assert!(!a.fires_like(&b), "same source, two lowered programs");
    }

    #[test]
    fn t3410_and_t3412_are_never_co_armed() {
        let model = compile(include_str!(
            "../../../specs/fivegs/attach_timer_race_s10.specl"
        ))
        .unwrap();
        let timers: Vec<&str> = model
            .program
            .timers
            .iter()
            .map(|t| t.name.as_str())
            .collect();
        assert_eq!(timers, ["t3410", "t3412"]);
        // T3412 starts as T3410 stops, and T3410 restarts only once T3412
        // has fired, so every scaling runs the same model.
        assert!(model.program.co_armed.is_empty());
        let stretched = model.with_timer_scale("t3410", 4).unwrap();
        assert!(model.fires_like(&stretched));
    }

    #[test]
    fn only_pairs_within_one_owner_can_be_apart() {
        // `a` owns `ta` and `later` and never arms both; `b` owns `tb`,
        // which it only arms after `ta` fired, yet the analysis does not
        // follow messages between processes. `shared` is started in `a`
        // and stopped in `b`, and `idle` is never used: neither has an
        // owner.
        let model = compile(
            "spec t; msg Go;
             chan c from a to b cap 1;
             timer ta = 1; timer tb = 2; timer shared = 3; timer idle = 4; timer later = 5;
             proc a {
                 init { start ta; }
                 state S { expire ta { send c Go; start shared; start later; goto T; } }
                 state T { expire later { } }
             }
             proc b {
                 state W { recv c Go { start tb; stop shared; } }
             }",
        )
        .unwrap();
        let all: Vec<(usize, usize)> = (0..5)
            .flat_map(|t| (t + 1..5).map(move |u| (t, u)))
            .collect();
        let apart = all
            .iter()
            .copied()
            .filter(|p| !model.program.co_armed.contains(p));
        assert_eq!(apart.collect::<Vec<_>>(), [(0, 4)], "only ta and later");
    }

    #[test]
    fn deadlines_are_oneshot_and_sticky() {
        let model = compile(
            "spec t;
             deadline guard = 10;
             global fires: int 0..3 = 0;
             proc p {
                 init { start guard; }
                 state S {
                     expire guard { fires = fires + 1; start guard; goto S2; }
                 }
                 state S2 {
                     when fires == 1 { stop guard; start guard; }
                 }
             }",
        )
        .unwrap();
        let s0 = model.init_states().remove(0);
        let s1 = model
            .next_state(&s0, &SpecAction::TimerFire { timer: 0 })
            .expect("armed deadline fires");
        assert_eq!(
            model.program.timer(&s1, 0),
            timer_state::EXPIRED,
            "restart in the body is a no-op"
        );
        assert!(
            model
                .next_state(&s1, &SpecAction::TimerFire { timer: 0 })
                .is_none(),
            "an expired deadline never fires again"
        );
        let s2 = model
            .next_state(
                &s1,
                &SpecAction::Edge {
                    proc: 0,
                    state: 1,
                    edge: 0,
                },
            )
            .expect("when edge enabled");
        assert_eq!(
            model.program.timer(&s2, 0),
            timer_state::EXPIRED,
            "stop/start leave an expired deadline expired"
        );
    }

    #[test]
    fn rearmable_timer_cycles_and_unmatched_expiry_is_silent() {
        let model = compile(
            "spec t;
             timer tick = 3;
             global n: int 0..5 = 0;
             proc p {
                 init { start tick; }
                 state S {
                     expire tick when n < 2 { n = n + 1; start tick; }
                 }
             }",
        )
        .unwrap();
        let fire = SpecAction::TimerFire { timer: 0 };
        let s0 = model.init_states().remove(0);
        let prog = &*model.program;
        let s1 = model.next_state(&s0, &fire).expect("fires");
        assert_eq!(
            (prog.var(&s1, 0), prog.timer(&s1, 0)),
            (1, timer_state::ARMED),
            "rearmed"
        );
        let s2 = model.next_state(&s1, &fire).expect("fires again");
        let s3 = model
            .next_state(&s2, &fire)
            .expect("guard now false; silent");
        assert_eq!(prog.var(&s3, 0), 2, "unmatched expiry runs no body");
        assert_eq!(
            prog.timer(&s3, 0),
            timer_state::IDLE,
            "consumed without rearm"
        );
        assert!(
            model.next_state(&s3, &fire).is_none(),
            "idle timers never fire"
        );
        let result = Checker::new(model).strategy(SearchStrategy::Bfs).run();
        assert!(result.complete, "timer cycles stay finite-state");
    }

    #[test]
    fn components_roundtrip_with_timers() {
        let model = compile(TIMED).unwrap();
        let graph = mck::explore(&model, 10_000);
        assert!(graph.complete);
        let mut comps = Vec::new();
        for s in &graph.states {
            comps.clear();
            assert!(model.components(s, &mut comps));
            assert_eq!(comps.len(), 3, "globals slab + 1 proc slab + timers slab");
            let back = model.reassemble(&comps).expect("well-formed components");
            assert_eq!(&back, s);
            let mut dirty = dirty_like(&comps);
            assert!(model.components(s, &mut dirty));
            assert_eq!(dirty, comps, "a dirty `out` is overwritten in place");
        }
        let s = model.init_states().remove(0);
        comps.clear();
        model.components(&s, &mut comps);
        let last = comps.len() - 1;
        comps[last][0] = 9;
        assert!(
            model.reassemble(&comps).is_none(),
            "garbage timer cell rejected"
        );
    }

    #[test]
    fn timer_state_renders_in_states_and_actions() {
        let model = compile(TIMED).unwrap();
        let s = model.init_states().remove(0);
        let txt = model.format_state(&s);
        assert!(txt.contains("short=armed"), "{txt}");
        assert!(txt.contains("long=armed"), "{txt}");
        assert_eq!(
            model.format_action(&SpecAction::TimerFire { timer: 0 }),
            "timer short fires",
            "labelled edges don't rename the fire action"
        );
        let dl = compile("spec t; deadline d = 2; proc p { state S { } }").unwrap();
        assert_eq!(
            dl.format_action(&SpecAction::TimerFire { timer: 0 }),
            "deadline d fires"
        );
    }

    #[test]
    fn atomic_edges_unlock_ample_sets() {
        // `a` guards on the global `done`, so the syntactic analysis
        // refuses an ample set — `atomic` overrides it.
        let plain = compile(
            "spec t;
             global done: bool = false;
             proc a { state S { when !done { goto T; } } state T { } }
             never P: done;",
        )
        .unwrap();
        assert!(!plain.program.por.ample_locs[0][0]);
        let atomic = compile(
            "spec t;
             global done: bool = false;
             proc a { state S { atomic when !done { goto T; } } state T { } }
             never P: done;",
        )
        .unwrap();
        assert!(
            atomic.program.por.ample_locs[0][0],
            "atomic asserts invisibility"
        );
        let s = atomic.init_states().remove(0);
        let mut ample = Vec::new();
        assert!(atomic.reduced_actions(&s, &mut ample));
        assert_eq!(ample.len(), 1);
    }

    #[test]
    fn timer_ops_and_expire_edges_block_ample_sets() {
        let model = compile(
            "spec t;
             timer tick = 3;
             proc a {
                 var n: int 0..3 = 0;
                 state S { when n < 3 { n = n + 1; start tick; } }
                 state T { expire tick { goto S; } when n > 0 { n = n - 1; } }
             }",
        )
        .unwrap();
        let por = &model.program.por;
        assert!(
            !por.ample_locs[0][0],
            "start in the body is visible to expire edges"
        );
        assert!(
            !por.ample_locs[0][1],
            "expire locations depend on shared timer cells"
        );
    }

    #[test]
    fn replay_rejects_stale_actions() {
        let model = compile(PINGPONG).unwrap();
        let s = model.init_states().remove(0);
        // down is empty: delivering from it must be vetoed.
        assert!(model
            .next_state(&s, &SpecAction::Deliver { chan: 1, msg: 1 })
            .is_none());
        // p sits in Waiting (state 0); an edge claiming state 1 is stale.
        assert!(model
            .next_state(
                &s,
                &SpecAction::Edge {
                    proc: 0,
                    state: 1,
                    edge: 0
                }
            )
            .is_none());
    }
}
