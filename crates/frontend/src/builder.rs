//! Ergonomic construction of [`Behavior`] values.
//!
//! The builder plays the role of "writing the SystemC module" in the paper's
//! flow: it declares ports and variables and assembles the thread body.
//! Statement lists for nested constructs (loop bodies, branch arms) are built
//! with the free-standing block helpers and passed in as vectors.

use crate::ast::{Behavior, Expr, LoopKind, PortDecl, Stmt, VarDecl, VarId};
use hls_ir::PortDirection;

/// Builder for [`Behavior`] values.
///
/// # Example
///
/// ```
/// use hls_frontend::{BehaviorBuilder, Expr};
///
/// let mut b = BehaviorBuilder::new("doubler");
/// b.port_in("x", 16);
/// b.port_out("y", 17);
/// let body = vec![
///     b.write_port("y", Expr::mul(b.read_port("x"), Expr::Const(2))),
///     b.wait(),
/// ];
/// let behavior = b.infinite_loop(body).build();
/// assert_eq!(behavior.ports.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct BehaviorBuilder {
    name: String,
    ports: Vec<PortDecl>,
    vars: Vec<VarDecl>,
    body: Vec<Stmt>,
}

impl BehaviorBuilder {
    /// Starts a new behaviour with the given module name.
    pub fn new(name: impl Into<String>) -> Self {
        BehaviorBuilder {
            name: name.into(),
            ports: Vec::new(),
            vars: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Declares an input port.
    pub fn port_in(&mut self, name: impl Into<String>, width: u16) -> String {
        let name = name.into();
        self.ports.push(PortDecl {
            name: name.clone(),
            direction: PortDirection::Input,
            width,
        });
        name
    }

    /// Declares an output port.
    pub fn port_out(&mut self, name: impl Into<String>, width: u16) -> String {
        let name = name.into();
        self.ports.push(PortDecl {
            name: name.clone(),
            direction: PortDirection::Output,
            width,
        });
        name
    }

    /// Declares a local variable with an initial value and returns its id.
    pub fn var(&mut self, name: impl Into<String>, width: u16, init: i64) -> VarId {
        self.vars.push(VarDecl {
            name: name.into(),
            width,
            init,
        });
        VarId((self.vars.len() - 1) as u32)
    }

    /// Expression reading an input port.
    pub fn read_port(&self, name: impl Into<String>) -> Expr {
        Expr::Port(name.into())
    }

    /// Expression reading a variable.
    pub fn read_var(&self, var: VarId) -> Expr {
        Expr::Var(var)
    }

    /// Statement `var = value`.
    pub fn assign(&self, var: VarId, value: Expr) -> Stmt {
        Stmt::Assign { var, value }
    }

    /// Statement writing an output port.
    pub fn write_port(&self, port: impl Into<String>, value: Expr) -> Stmt {
        Stmt::WritePort {
            port: port.into(),
            value,
        }
    }

    /// Statement `wait()`.
    pub fn wait(&self) -> Stmt {
        Stmt::Wait
    }

    /// Statement `if (cond) { then_body }`.
    pub fn if_then(&self, cond: Expr, then_body: Vec<Stmt>) -> Stmt {
        Stmt::If {
            cond,
            then_body,
            else_body: Vec::new(),
        }
    }

    /// Statement `if (cond) { then_body } else { else_body }`.
    pub fn if_then_else(&self, cond: Expr, then_body: Vec<Stmt>, else_body: Vec<Stmt>) -> Stmt {
        Stmt::If {
            cond,
            then_body,
            else_body,
        }
    }

    /// Statement `do { body } while (cond)` with a loop label.
    pub fn do_while(&self, label: impl Into<String>, body: Vec<Stmt>, cond: Expr) -> Stmt {
        Stmt::Loop {
            kind: LoopKind::DoWhile,
            body,
            cond: Some(cond),
            label: Some(label.into()),
        }
    }

    /// Appends a statement to the top-level thread body.
    pub fn push(&mut self, stmt: Stmt) -> &mut Self {
        self.body.push(stmt);
        self
    }

    /// Wraps the given statements in the thread's outer `while(true)` loop and
    /// appends it to the body (the usual SystemC thread shape).
    pub fn infinite_loop(&mut self, body: Vec<Stmt>) -> &mut Self {
        self.body.push(Stmt::Loop {
            kind: LoopKind::Infinite,
            body,
            cond: None,
            label: Some("thread".into()),
        });
        self
    }

    /// Finishes construction.
    pub fn build(&self) -> Behavior {
        Behavior {
            name: self.name.clone(),
            ports: self.ports.clone(),
            vars: self.vars.clone(),
            body: self.body.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::CmpKind;

    #[test]
    fn builds_ports_vars_and_body() {
        let mut b = BehaviorBuilder::new("demo");
        b.port_in("a", 8);
        b.port_out("y", 8);
        let acc = b.var("acc", 16, 0);
        let body = vec![
            b.assign(acc, Expr::add(b.read_var(acc), b.read_port("a"))),
            b.wait(),
            b.write_port("y", b.read_var(acc)),
        ];
        let behavior = b.infinite_loop(body).build();
        assert_eq!(behavior.name, "demo");
        assert_eq!(behavior.ports.len(), 2);
        assert_eq!(behavior.vars.len(), 1);
        assert_eq!(behavior.wait_count(), 1);
        assert_eq!(behavior.body.len(), 1);
    }

    #[test]
    fn conditional_and_do_while() {
        let mut b = BehaviorBuilder::new("cond");
        b.port_in("x", 8);
        let v = b.var("v", 8, 0);
        let inner = vec![
            b.if_then_else(
                Expr::cmp(CmpKind::Gt, b.read_var(v), Expr::Const(3)),
                vec![b.assign(v, Expr::Const(0))],
                vec![b.assign(v, Expr::add(b.read_var(v), Expr::Const(1)))],
            ),
            b.wait(),
        ];
        let loop_stmt = b.do_while(
            "main",
            inner,
            Expr::cmp(CmpKind::Ne, b.read_var(v), Expr::Const(0)),
        );
        b.push(loop_stmt);
        let behavior = b.build();
        assert_eq!(behavior.body.len(), 1);
        match &behavior.body[0] {
            Stmt::Loop { kind, label, .. } => {
                assert_eq!(*kind, LoopKind::DoWhile);
                assert_eq!(label.as_deref(), Some("main"));
            }
            other => panic!("expected loop, got {other:?}"),
        }
    }
}
