//! Abstract syntax tree for behavioural threads.
//!
//! The AST is deliberately close to the untimed / partially timed SystemC
//! subset the paper's tool consumes: a module has input/output ports and one
//! thread whose body mixes variable assignments, port writes, `wait()` clock
//! boundaries, `if/else` conditionals and loops.

use hls_ir::{CmpKind, PortDirection};
use std::fmt;

/// Identifier of a local variable of a behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// Raw dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Binary arithmetic / logic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
}

/// An expression of the behavioural language.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Const(i64),
    /// Read of a local variable.
    Var(VarId),
    /// Read of an input port.
    Port(String),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Comparison producing a 1-bit value.
    Cmp(CmpKind, Box<Expr>, Box<Expr>),
    /// Unary negation (`-x`).
    Neg(Box<Expr>),
    /// Bitwise not (`~x`).
    Not(Box<Expr>),
    /// Conditional expression `cond ? a : b`.
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Bit-range selection `x.range(hi, lo)`.
    Slice {
        /// Value being sliced.
        value: Box<Expr>,
        /// Most significant bit.
        hi: u16,
        /// Least significant bit.
        lo: u16,
    },
}

// The constructors below are free associated functions (no `self`), not
// operator implementations; the std-ops names are kept because they read as
// the operation they build.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Convenience constructor for `a + b`.
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Add, Box::new(a), Box::new(b))
    }
    /// Convenience constructor for `a - b`.
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Sub, Box::new(a), Box::new(b))
    }
    /// Convenience constructor for `a * b`.
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Mul, Box::new(a), Box::new(b))
    }
    /// Convenience constructor for `a >> n`.
    pub fn shr(a: Expr, n: Expr) -> Expr {
        Expr::Binary(BinOp::Shr, Box::new(a), Box::new(n))
    }
    /// Convenience constructor for `a << n`.
    pub fn shl(a: Expr, n: Expr) -> Expr {
        Expr::Binary(BinOp::Shl, Box::new(a), Box::new(n))
    }
    /// Convenience constructor for a comparison.
    pub fn cmp(kind: CmpKind, a: Expr, b: Expr) -> Expr {
        Expr::Cmp(kind, Box::new(a), Box::new(b))
    }
    /// Convenience constructor for `cond ? a : b`.
    pub fn select(cond: Expr, a: Expr, b: Expr) -> Expr {
        Expr::Select(Box::new(cond), Box::new(a), Box::new(b))
    }

    /// Number of operation-producing nodes in the expression tree (constants
    /// and variable/port references excluded). Useful for size estimates.
    pub fn op_count(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Var(_) | Expr::Port(_) => 0,
            Expr::Binary(_, a, b) | Expr::Cmp(_, a, b) => 1 + a.op_count() + b.op_count(),
            Expr::Neg(a) | Expr::Not(a) => 1 + a.op_count(),
            Expr::Select(c, a, b) => 1 + c.op_count() + a.op_count() + b.op_count(),
            Expr::Slice { value, .. } => value.op_count(),
        }
    }
}

/// Kind of a loop statement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopKind {
    /// `do { body } while (cond)` — condition evaluated at the end.
    DoWhile,
    /// `while (cond) { body }` — condition evaluated at the start.
    While,
    /// `while (true) { body }` — runs forever (thread outer loop).
    Infinite,
}

/// A statement of the behavioural language.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `var = expr;`
    Assign {
        /// Target variable.
        var: VarId,
        /// Value.
        value: Expr,
    },
    /// `port = expr;` (output port write).
    WritePort {
        /// Output port name.
        port: String,
        /// Value written.
        value: Expr,
    },
    /// `wait();` — clock boundary.
    Wait,
    /// `if (cond) { then_body } else { else_body }`.
    If {
        /// Branch condition.
        cond: Expr,
        /// Taken branch.
        then_body: Vec<Stmt>,
        /// Not-taken branch (may be empty).
        else_body: Vec<Stmt>,
    },
    /// A loop.
    Loop {
        /// Loop kind.
        kind: LoopKind,
        /// Loop body.
        body: Vec<Stmt>,
        /// Continuation condition (ignored for `Infinite`).
        cond: Option<Expr>,
        /// Optional label used in reports and pipelining directives.
        label: Option<String>,
    },
}

impl Stmt {
    /// Number of operation-producing expression nodes in the statement,
    /// recursively.
    pub fn op_count(&self) -> usize {
        match self {
            Stmt::Assign { value, .. } => value.op_count(),
            Stmt::WritePort { value, .. } => 1 + value.op_count(),
            Stmt::Wait => 0,
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                cond.op_count()
                    + then_body.iter().map(Stmt::op_count).sum::<usize>()
                    + else_body.iter().map(Stmt::op_count).sum::<usize>()
            }
            Stmt::Loop { body, cond, .. } => {
                body.iter().map(Stmt::op_count).sum::<usize>()
                    + cond.as_ref().map(Expr::op_count).unwrap_or(0)
            }
        }
    }

    /// Number of `wait()` statements directly or indirectly contained.
    pub fn wait_count(&self) -> usize {
        match self {
            Stmt::Wait => 1,
            Stmt::Assign { .. } | Stmt::WritePort { .. } => 0,
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                then_body.iter().map(Stmt::wait_count).sum::<usize>()
                    + else_body.iter().map(Stmt::wait_count).sum::<usize>()
            }
            Stmt::Loop { body, .. } => body.iter().map(Stmt::wait_count).sum(),
        }
    }
}

/// Declaration of a local variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarDecl {
    /// Variable name.
    pub name: String,
    /// Bit width.
    pub width: u16,
    /// Initial value at thread start.
    pub init: i64,
}

/// Declaration of a module port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortDecl {
    /// Port name.
    pub name: String,
    /// Direction.
    pub direction: PortDirection,
    /// Bit width.
    pub width: u16,
}

/// A behavioural thread: ports, local variables and a statement body.
#[derive(Clone, Debug, PartialEq)]
pub struct Behavior {
    /// Design (module) name.
    pub name: String,
    /// Port declarations.
    pub ports: Vec<PortDecl>,
    /// Variable declarations, indexed by [`VarId`].
    pub vars: Vec<VarDecl>,
    /// Thread body.
    pub body: Vec<Stmt>,
}

impl Behavior {
    /// Looks up a port declaration by name.
    pub fn port(&self, name: &str) -> Option<&PortDecl> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Declaration of a variable.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn var(&self, id: VarId) -> &VarDecl {
        &self.vars[id.index()]
    }

    /// Total operation-producing expression nodes in the body (a rough
    /// pre-elaboration size estimate).
    pub fn op_count(&self) -> usize {
        self.body.iter().map(Stmt::op_count).sum()
    }

    /// Total `wait()` statements in the body.
    pub fn wait_count(&self) -> usize {
        self.body.iter().map(Stmt::wait_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_builders_and_op_count() {
        let e = Expr::mul(
            Expr::Port("a".into()),
            Expr::add(Expr::Var(VarId(0)), Expr::Const(1)),
        );
        assert_eq!(e.op_count(), 2);
        let s = Expr::select(
            Expr::cmp(CmpKind::Gt, Expr::Var(VarId(0)), Expr::Const(3)),
            Expr::Const(1),
            Expr::Const(0),
        );
        assert_eq!(s.op_count(), 2);
    }

    #[test]
    fn stmt_counts() {
        let body = vec![
            Stmt::Assign {
                var: VarId(0),
                value: Expr::add(Expr::Const(1), Expr::Const(2)),
            },
            Stmt::Wait,
            Stmt::If {
                cond: Expr::cmp(CmpKind::Ne, Expr::Var(VarId(0)), Expr::Const(0)),
                then_body: vec![Stmt::WritePort {
                    port: "y".into(),
                    value: Expr::Var(VarId(0)),
                }],
                else_body: vec![],
            },
        ];
        let loop_stmt = Stmt::Loop {
            kind: LoopKind::Infinite,
            body,
            cond: None,
            label: None,
        };
        assert_eq!(loop_stmt.wait_count(), 1);
        assert_eq!(loop_stmt.op_count(), 1 + 1 + 1);
    }

    #[test]
    fn behavior_lookup() {
        let b = Behavior {
            name: "m".into(),
            ports: vec![PortDecl {
                name: "x".into(),
                direction: PortDirection::Input,
                width: 8,
            }],
            vars: vec![VarDecl {
                name: "acc".into(),
                width: 16,
                init: 0,
            }],
            body: vec![],
        };
        assert!(b.port("x").is_some());
        assert!(b.port("y").is_none());
        assert_eq!(b.var(VarId(0)).width, 16);
        assert_eq!(b.op_count(), 0);
    }
}
