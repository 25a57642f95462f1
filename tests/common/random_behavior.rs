//! The one random-program generator. Every target that runs generated
//! programs includes this file with `#[path]`: `prop_differential`,
//! `bound_differential`, `fault_coverage`, `netlist_properties` (with the
//! kind-coverage test), `schedule_equivalence`, `hls-lint`'s static-timing
//! oracle and `hls-sched`'s scheduler oracles. So it names its dependencies
//! by crate: `hls-frontend`, `hls-ir` and the vendored `rand`.
//!
//! A program has two input ports, one output port, one to three variables
//! of 8, 16 or 32 bits, and one loop: a few assignments, maybe a
//! conditional, one unconditional write of `out` and a `wait`. It draws from
//! one of two menus:
//!
//! - [`random_behavior`], the full menu, which every caller uses: every
//!   binary operator, shifts by a constant and by a variable amount,
//!   negation, bitwise not, slices, all six comparisons as values, as select
//!   conditions and as `if` conditions, an `if` nested in either branch of
//!   another with and without `else`, and `while` as well as `do … while`
//!   loops. `netlist_properties` checks that its corpus reaches every
//!   operation and netlist cell kind.
//! - [`historic_behavior`], the narrower menu the schedule-equivalence
//!   suite's own copy of this generator drew from, reproduced draw for
//!   draw. `tests/golden/sched_equivalence/random_programs.txt` was blessed
//!   on that stream and has held the same decisions since, so only the test
//!   behind that golden reads it, and the record is kept rather than
//!   re-blessed.

use hls_frontend::ast::{Behavior, BinOp, Expr, LoopKind, Stmt, VarId};
use hls_frontend::BehaviorBuilder;
use hls_ir::CmpKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CMPS: [CmpKind; 6] = [
    CmpKind::Eq,
    CmpKind::Ne,
    CmpKind::Lt,
    CmpKind::Le,
    CmpKind::Gt,
    CmpKind::Ge,
];

/// The random program `seed`, drawn from the full menu.
pub fn random_behavior(seed: u64) -> Behavior {
    Gen::new(seed, false).behavior()
}

/// The random program `seed`, drawn from the historic menu.
#[allow(dead_code)] // only the schedule-equivalence golden reads it
pub fn historic_behavior(seed: u64) -> Behavior {
    Gen::new(seed, true).behavior()
}

struct Gen {
    rng: SmallRng,
    b: BehaviorBuilder,
    vars: Vec<VarId>,
    historic: bool,
}

impl Gen {
    fn new(seed: u64, historic: bool) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = BehaviorBuilder::new(format!("rand{seed}"));
        b.port_in("p0", 16);
        b.port_in("p1", 8);
        b.port_out("out", 16);
        let widths = [8u16, 16, 32];
        let vars = (0..rng.gen_range(1usize..=3))
            .map(|i| {
                let w = widths[rng.gen_range(0usize..3)];
                let init = rng.gen_range(0u64..64) as i64 - 32;
                b.var(format!("v{i}"), w, init)
            })
            .collect();
        Gen {
            rng,
            b,
            vars,
            historic,
        }
    }

    fn behavior(mut self) -> Behavior {
        let mut body: Vec<Stmt> = (0..self.rng.gen_range(2usize..6))
            .map(|_| self.assign())
            .collect();
        if self.rng.gen_bool(0.7) {
            let conditional = if self.historic {
                self.historic_conditional()
            } else {
                self.conditional(true)
            };
            body.push(conditional);
        }
        let v = self.var();
        body.push(self.b.write_port("out", Expr::Var(v)));
        body.push(self.b.wait());
        let main = if self.historic {
            let cond = Expr::cmp(CmpKind::Ne, self.b.read_port("p0"), Expr::Const(0));
            self.b.do_while("main", body, cond)
        } else {
            let kind = [LoopKind::DoWhile, LoopKind::While][self.rng.gen_range(0usize..2)];
            Stmt::Loop {
                kind,
                body,
                cond: Some(self.compare()),
                label: Some("main".into()),
            }
        };
        self.b.infinite_loop(vec![main]);
        self.b.build()
    }

    fn var(&mut self) -> VarId {
        self.vars[self.rng.gen_range(0usize..self.vars.len())]
    }

    /// A port read, a variable read or a constant.
    fn leaf(&mut self) -> Expr {
        match self.rng.gen_range(0u32..5) {
            0 => self.b.read_port("p0"),
            1 => self.b.read_port("p1"),
            2 | 3 => Expr::Var(self.var()),
            _ => Expr::Const(self.rng.gen_range(0u64..512) as i64 - 256),
        }
    }

    /// A comparison of two leaves, of any of the six kinds.
    fn compare(&mut self) -> Expr {
        let kind = CMPS[self.rng.gen_range(0usize..6)];
        let (a, c) = (self.leaf(), self.leaf());
        Expr::cmp(kind, a, c)
    }

    /// One operation over `a` and `c`; a unary one or a slice drops `c`.
    fn node(&mut self, a: Expr, c: Expr) -> Expr {
        let bin = |op, a, c| Expr::Binary(op, Box::new(a), Box::new(c));
        if self.historic {
            return match self.rng.gen_range(0u32..10) {
                0 => Expr::add(a, c),
                1 => Expr::sub(a, c),
                2 => Expr::mul(a, c),
                3 => bin(BinOp::And, a, c),
                4 => bin(BinOp::Xor, a, c),
                5 => Expr::shl(a, Expr::Const(self.rng.gen_range(0u64..20) as i64)),
                6 => Expr::shr(a, Expr::Const(self.rng.gen_range(0u64..20) as i64)),
                7 => bin(BinOp::Div, a, c),
                8 => bin(BinOp::Rem, a, c),
                _ => Expr::select(Expr::cmp(CmpKind::Gt, a.clone(), Expr::Const(0)), a, c),
            };
        }
        const BINARY: [BinOp; 10] = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Shr,
        ];
        match self.rng.gen_range(0u32..17) {
            k @ 0..=9 => bin(BINARY[k as usize], a, c),
            10 => Expr::shl(a, Expr::Const(self.rng.gen_range(0u64..20) as i64)),
            11 => Expr::shr(a, Expr::Const(self.rng.gen_range(0u64..20) as i64)),
            12 => Expr::Neg(Box::new(a)),
            13 => Expr::Not(Box::new(a)),
            14 => {
                let hi = self.rng.gen_range(0u16..16);
                let lo = self.rng.gen_range(0..=hi);
                Expr::Slice {
                    value: Box::new(a),
                    hi,
                    lo,
                }
            }
            15 => Expr::cmp(CMPS[self.rng.gen_range(0usize..6)], a, c),
            _ => {
                let cond = Expr::cmp(CMPS[self.rng.gen_range(0usize..6)], a.clone(), c.clone());
                Expr::select(cond, a, c)
            }
        }
    }

    /// A variable assigned one or two operations over leaves.
    fn assign(&mut self) -> Stmt {
        let var = self.var();
        let (l0, l1) = (self.leaf(), self.leaf());
        let mut e = self.node(l0, l1);
        if self.rng.gen_bool(0.5) {
            let l2 = self.leaf();
            e = self.node(e, l2);
        }
        self.b.assign(var, e)
    }

    /// `if (cond) { … } else { … }`: each branch assigns a variable, the
    /// else branch is empty a quarter of the time, and when `nest` is set,
    /// half the time one branch also holds a nested conditional, before or
    /// after its assignment.
    fn conditional(&mut self, nest: bool) -> Stmt {
        let cond = self.compare();
        let then_body = vec![self.assign()];
        let else_body = if self.rng.gen_bool(0.75) {
            vec![self.assign()]
        } else {
            Vec::new()
        };
        let mut branches = [then_body, else_body];
        if nest && self.rng.gen_bool(0.5) {
            let inner = self.conditional(false);
            let branch = &mut branches[self.rng.gen_range(0usize..2)];
            branch.insert(self.rng.gen_range(0..=branch.len()), inner);
        }
        let [then_body, else_body] = branches;
        self.b.if_then_else(cond, then_body, else_body)
    }

    /// The historic menu's one conditional shape: a variable compared with
    /// a small constant, tripled from a leaf on one branch and incremented
    /// from a leaf on the other.
    fn historic_conditional(&mut self) -> Stmt {
        let v = self.var();
        let cond = Expr::cmp(
            CmpKind::Gt,
            Expr::Var(v),
            Expr::Const(self.rng.gen_range(0u64..16) as i64),
        );
        let (l, r) = (self.leaf(), self.leaf());
        self.b.if_then_else(
            cond,
            vec![self.b.assign(v, Expr::mul(l, Expr::Const(3)))],
            vec![self.b.assign(v, Expr::add(r, Expr::Const(1)))],
        )
    }
}
