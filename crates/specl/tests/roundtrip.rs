//! Parser/printer round-trip property: pretty-printing a randomly
//! generated AST and reparsing the output yields a structurally identical
//! tree, and the printed form is a fixpoint of print∘parse.
//!
//! The generator draws from the full grammar — nested expressions across
//! every operator and precedence level, qualified reads (`p.var`,
//! `p @ State`), channels with `lossy`/`dup` knobs, labelled edges, `init`
//! blocks, timer/deadline declarations with `start`/`stop`/`expire` and
//! `atomic` edge markers, properties and `boundary` — but only *structural*
//! validity: the
//! specs need not pass `sema::check` (round-tripping is a parser/printer
//! contract, not a type-system one). Integer literals stay non-negative
//! because `-3` canonically reparses as unary negation.

use proptest::prelude::*;
use specl::ast::dummy_span;
use specl::ast::{
    BinOp, ChanDecl, EdgeDecl, Expr, Ident, Literal, ProcDecl, PropDecl, Quant, Spec, StateDecl,
    Stmt, TimerDecl, Trigger, Ty, UnOp, VarDecl,
};
use specl::parse;

/// Deterministic xorshift64* generator — the proptest shim hands us a seed
/// and the whole tree is derived from it, so failures replay exactly.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    /// A lexically valid identifier that is never a keyword: drawn from a
    /// cellular-flavoured pool, optionally numbered.
    fn ident(&mut self) -> Ident {
        const POOL: &[&str] = &[
            "ue",
            "mme",
            "msc",
            "rrc",
            "emm",
            "esm",
            "bearer",
            "alpha",
            "beta",
            "gamma",
            "delta",
            "attempts",
            "registered",
            "uplink",
            "downlink",
            "Idle",
            "Connected",
            "Waiting",
        ];
        let base = POOL[self.below(POOL.len() as u64) as usize];
        if self.chance(40) {
            Ident::new(format!("{base}_{}", self.below(10)))
        } else {
            Ident::new(base)
        }
    }

    /// An `as "..."` label over a quote-free, escape-free alphabet.
    fn label(&mut self) -> String {
        const WORDS: &[&str] = &["device", "network", "retries", "timer fires", "TAU", "lost"];
        let n = 1 + self.below(3);
        (0..n)
            .map(|_| WORDS[self.below(WORDS.len() as u64) as usize])
            .collect::<Vec<_>>()
            .join(" ")
    }

    fn literal(&mut self) -> Literal {
        if self.chance(50) {
            Literal::Bool(self.chance(50))
        } else {
            Literal::Int(self.below(1000) as i64)
        }
    }

    fn ty(&mut self) -> Ty {
        if self.chance(50) {
            Ty::Bool
        } else {
            let lo = self.below(10) as i64;
            Ty::Int {
                lo,
                hi: lo + self.below(20) as i64,
            }
        }
    }

    fn expr(&mut self, depth: u32) -> Expr {
        if depth == 0 || self.chance(35) {
            return match self.below(5) {
                0 => Expr::Int(self.below(1000) as i64, dummy_span()),
                1 => Expr::Bool(self.chance(50), dummy_span()),
                2 => Expr::Var(self.ident()),
                3 => Expr::Field {
                    proc: self.ident(),
                    var: self.ident(),
                },
                _ => Expr::AtLoc {
                    proc: self.ident(),
                    loc: self.ident(),
                },
            };
        }
        if self.chance(25) {
            Expr::Unary {
                op: if self.chance(50) {
                    UnOp::Not
                } else {
                    UnOp::Neg
                },
                expr: Box::new(self.expr(depth - 1)),
            }
        } else {
            const OPS: &[BinOp] = &[
                BinOp::Or,
                BinOp::And,
                BinOp::Eq,
                BinOp::Ne,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
                BinOp::Add,
                BinOp::Sub,
            ];
            Expr::Binary {
                op: OPS[self.below(OPS.len() as u64) as usize],
                lhs: Box::new(self.expr(depth - 1)),
                rhs: Box::new(self.expr(depth - 1)),
            }
        }
    }

    fn stmt(&mut self) -> Stmt {
        match self.below(5) {
            0 => Stmt::Assign {
                target: self.ident(),
                value: self.expr(2),
            },
            1 => Stmt::Send {
                chan: self.ident(),
                msg: self.ident(),
            },
            2 => Stmt::Start {
                timer: self.ident(),
            },
            3 => Stmt::Stop {
                timer: self.ident(),
            },
            _ => Stmt::Goto {
                target: self.ident(),
            },
        }
    }

    fn stmts(&mut self, max: u64) -> Vec<Stmt> {
        (0..self.below(max + 1)).map(|_| self.stmt()).collect()
    }

    fn edge(&mut self) -> EdgeDecl {
        let trigger = match self.below(3) {
            0 => Trigger::When(self.expr(3)),
            1 => Trigger::Recv {
                chan: self.ident(),
                msg: self.ident(),
                guard: self.chance(50).then(|| self.expr(2)),
            },
            _ => Trigger::Expire {
                timer: self.ident(),
                guard: self.chance(50).then(|| self.expr(2)),
            },
        };
        EdgeDecl {
            atomic: self.chance(25),
            trigger,
            label: self.chance(50).then(|| self.label()),
            body: self.stmts(3),
            span: dummy_span(),
        }
    }

    fn var_decl(&mut self) -> VarDecl {
        VarDecl {
            name: self.ident(),
            ty: self.ty(),
            init: self.literal(),
            span: dummy_span(),
        }
    }

    fn proc(&mut self) -> ProcDecl {
        ProcDecl {
            name: self.ident(),
            vars: (0..self.below(3)).map(|_| self.var_decl()).collect(),
            init: if self.chance(50) {
                self.stmts(3)
            } else {
                Vec::new()
            },
            states: (0..self.below(4))
                .map(|_| StateDecl {
                    name: self.ident(),
                    edges: (0..self.below(4)).map(|_| self.edge()).collect(),
                })
                .collect(),
            span: dummy_span(),
        }
    }

    fn spec(&mut self) -> Spec {
        const QUANTS: &[Quant] = &[Quant::Always, Quant::Never, Quant::Eventually];
        Spec {
            name: self.ident(),
            instance: self.chance(50).then(|| self.ident()),
            msgs: (0..self.below(5)).map(|_| self.ident()).collect(),
            chans: (0..self.below(4))
                .map(|_| ChanDecl {
                    name: self.ident(),
                    from: self.ident(),
                    to: self.ident(),
                    cap: self.below(16) as i64,
                    lossy: self.chance(50),
                    dup: self.chance(40).then(|| 1 + self.below(4) as i64),
                    span: dummy_span(),
                })
                .collect(),
            timers: (0..self.below(3))
                .map(|_| TimerDecl {
                    name: self.ident(),
                    duration: 1 + self.below(500) as i64,
                    oneshot: self.chance(50),
                    span: dummy_span(),
                })
                .collect(),
            globals: (0..self.below(4)).map(|_| self.var_decl()).collect(),
            procs: (0..1 + self.below(3)).map(|_| self.proc()).collect(),
            props: (0..self.below(4))
                .map(|_| PropDecl {
                    quant: QUANTS[self.below(3) as usize],
                    name: self.ident(),
                    expr: self.expr(3),
                })
                .collect(),
            boundary: self.chance(50).then(|| self.expr(3)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// print → parse is the identity on span-stripped trees, and the
    /// canonical form is a fixpoint (printing the reparse changes nothing).
    #[test]
    fn print_parse_roundtrip(seed in any::<u64>()) {
        let mut spec = Gen::new(seed).spec();
        spec.strip_spans();
        let printed = spec.to_string();
        let mut reparsed = match parse(&printed) {
            Ok(s) => s,
            Err(d) => panic!("canonical form must reparse, got `{d}` in:\n{printed}"),
        };
        reparsed.strip_spans();
        prop_assert_eq!(&reparsed, &spec, "round-trip changed the tree for:\n{}", printed);
        prop_assert_eq!(reparsed.to_string(), printed);
    }

    /// Every structurally valid expression round-trips through a one-prop
    /// harness spec — exercises deep operator nests far more densely than
    /// whole-spec generation does.
    #[test]
    fn expression_roundtrip(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let expr = g.expr(6);
        let mut spec = Gen::new(seed ^ 0xdead_beef).spec();
        spec.props = vec![PropDecl {
            quant: Quant::Never,
            name: Ident::new("Probe"),
            expr,
        }];
        spec.strip_spans();
        let printed = spec.to_string();
        let mut reparsed = parse(&printed).expect("canonical form reparses");
        reparsed.strip_spans();
        prop_assert_eq!(&reparsed.props[0], &spec.props[0], "in:\n{}", printed);
    }
}
