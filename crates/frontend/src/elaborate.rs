//! Elaboration: turning a [`Behavior`] into an [`hls_ir::Cdfg`].
//!
//! This mirrors the first box of the paper's Figure 2 design flow. The
//! elaborator walks the thread body and builds:
//!
//! * CFG nodes for `wait()` boundaries, fork/join pairs for conditionals and
//!   loop top/bottom pairs for loops, with control-step edges between them;
//! * DFG operations for every expression node, with each operation *homed* on
//!   the control-step edge it appears on in the source;
//! * the `loopMux` pattern for loop-carried variables: a multiplexer that
//!   selects the pre-loop value on the first iteration and the value produced
//!   by the previous iteration afterwards (see Figure 3(b) of the paper,
//!   where `aver` is carried through `loopMux`);
//! * the per-fork branch-condition table used later by predicate conversion.

use crate::ast::{Behavior, BinOp, Expr, LoopKind, Stmt, VarId};
use crate::error::FrontendError;
use hls_ir::{
    Cdfg, CfgEdgeId, CfgNodeId, CfgNodeKind, CmpKind, LoopId, LoopInfo, OpId, OpKind,
    PortDirection, PortId, Signal,
};
use std::collections::{BTreeMap, HashSet};

/// Elaborates a behaviour into a CDFG.
///
/// # Errors
///
/// Returns a [`FrontendError`] if the behaviour references undeclared
/// ports/variables, never writes one of its output ports, accesses a port
/// against its direction, uses `wait()` inside a conditional branch
/// (unsupported — the paper balances such branches before predicate
/// conversion, this reproduction requires them to be balanced in the
/// source), or produces an invalid CDFG.
pub fn elaborate(behavior: &Behavior) -> Result<Cdfg, FrontendError> {
    let mut elab = Elaborator::new(behavior)?;
    elab.run()?;
    let cdfg = elab.finish();
    cdfg.validate()?;
    Ok(cdfg)
}

struct Elaborator<'a> {
    behavior: &'a Behavior,
    cdfg: Cdfg,
    /// Port table keyed by name. Ordered (`BTreeMap`) so that any iteration
    /// — today only lookups, but the map is a public-ish surface through
    /// elaboration order — is deterministic across runs.
    ports: BTreeMap<String, (PortId, PortDirection, u16)>,
    /// Current value of each variable.
    env: Vec<Signal>,
    /// Operations created since the last control-step boundary, awaiting
    /// assignment of their home edge.
    pending: Vec<OpId>,
    current_node: CfgNodeId,
    /// The polarity of the branch that `current_node`, a fork, opens next:
    /// the first edge to leave it is that branch's edge.
    branch: Option<bool>,
    next_loop_id: u32,
}

impl<'a> Elaborator<'a> {
    fn new(behavior: &'a Behavior) -> Result<Self, FrontendError> {
        if let Some(var) = undeclared_var(&behavior.body, behavior.vars.len()) {
            return Err(FrontendError::UnknownVar {
                name: var.to_string(),
            });
        }
        if let Some(port) = behavior
            .ports
            .iter()
            .find(|p| p.direction == PortDirection::Output && !writes_port(&behavior.body, &p.name))
        {
            return Err(FrontendError::UnwrittenOutput {
                name: port.name.clone(),
            });
        }
        let mut cdfg = Cdfg::new(behavior.name.clone());
        let mut ports = BTreeMap::new();
        for decl in &behavior.ports {
            let id = cdfg
                .dfg
                .add_port(decl.name.clone(), decl.direction, decl.width);
            ports.insert(decl.name.clone(), (id, decl.direction, decl.width));
        }
        let env = behavior
            .vars
            .iter()
            .map(|v| Signal::constant(v.init, v.width))
            .collect();
        let entry = cdfg.cfg.add_node(CfgNodeKind::Entry);
        Ok(Elaborator {
            behavior,
            cdfg,
            ports,
            env,
            pending: Vec::new(),
            current_node: entry,
            branch: None,
            next_loop_id: 0,
        })
    }

    fn run(&mut self) -> Result<(), FrontendError> {
        let body = self.behavior.body.clone();
        self.stmts(&body)?;
        if !self.pending.is_empty() || self.cdfg.loops.is_empty() {
            let exit = self.cdfg.cfg.add_node(CfgNodeKind::Exit);
            self.flush_to(exit);
        }
        Ok(())
    }

    fn finish(self) -> Cdfg {
        self.cdfg
    }

    /// Creates the edge `current_node → to`, a branch edge when a branch is
    /// open, homes all pending operations on it, and makes `to` the current
    /// node.
    fn flush_to(&mut self, to: CfgNodeId) -> CfgEdgeId {
        let edge = match self.branch.take() {
            Some(taken) => self.cdfg.cfg.add_branch_edge(self.current_node, to, taken),
            None => self.cdfg.cfg.add_edge(self.current_node, to),
        };
        for op in self.pending.drain(..) {
            self.cdfg.dfg.set_home_edge(op, edge);
        }
        self.current_node = to;
        edge
    }

    fn add_op(&mut self, kind: OpKind, width: u16, inputs: Vec<Signal>) -> OpId {
        let id = self.cdfg.dfg.add_op(kind, width, inputs);
        self.pending.push(id);
        id
    }

    fn add_named_op(&mut self, name: &str, kind: OpKind, width: u16, inputs: Vec<Signal>) -> OpId {
        let id = self.add_op(kind, width, inputs);
        self.cdfg.dfg.op_mut(id).name = Some(name.to_string());
        id
    }

    fn port(&self, name: &str) -> Result<(PortId, PortDirection, u16), FrontendError> {
        self.ports
            .get(name)
            .copied()
            .ok_or_else(|| FrontendError::UnknownPort {
                name: name.to_string(),
            })
    }

    /// Elaborates an expression and returns the signal carrying its value.
    fn expr(&mut self, e: &Expr) -> Result<Signal, FrontendError> {
        match e {
            Expr::Const(v) => Ok(Signal::constant(*v, 32)),
            Expr::Var(v) => Ok(self.env[v.index()]),
            Expr::Port(name) => {
                let (pid, dir, width) = self.port(name)?;
                if dir != PortDirection::Input {
                    return Err(FrontendError::PortDirection { name: name.clone() });
                }
                let op =
                    self.add_named_op(&format!("{name}_read"), OpKind::Read(pid), width, vec![]);
                Ok(Signal::op_w(op, width))
            }
            Expr::Binary(op, a, b) => {
                let sa = self.expr(a)?;
                let sb = self.expr(b)?;
                let width = sa.width.max(sb.width);
                let kind = match op {
                    BinOp::Add => OpKind::Add,
                    BinOp::Sub => OpKind::Sub,
                    BinOp::Mul => OpKind::Mul,
                    BinOp::Div => OpKind::Div,
                    BinOp::Rem => OpKind::Rem,
                    BinOp::And => OpKind::And,
                    BinOp::Or => OpKind::Or,
                    BinOp::Xor => OpKind::Xor,
                    BinOp::Shl => OpKind::Shl,
                    BinOp::Shr => OpKind::Shr,
                };
                let id = self.add_op(kind, width, vec![sa, sb]);
                Ok(Signal::op_w(id, width))
            }
            Expr::Cmp(kind, a, b) => {
                let sa = self.expr(a)?;
                let sb = self.expr(b)?;
                let id = self.add_op(OpKind::Cmp(*kind), 1, vec![sa, sb]);
                Ok(Signal::op_w(id, 1))
            }
            Expr::Neg(a) => {
                let sa = self.expr(a)?;
                let id = self.add_op(OpKind::Neg, sa.width, vec![sa]);
                Ok(Signal::op_w(id, sa.width))
            }
            Expr::Not(a) => {
                let sa = self.expr(a)?;
                let id = self.add_op(OpKind::Not, sa.width, vec![sa]);
                Ok(Signal::op_w(id, sa.width))
            }
            Expr::Select(c, a, b) => {
                let sc = self.expr(c)?;
                let sa = self.expr(a)?;
                let sb = self.expr(b)?;
                let width = sa.width.max(sb.width);
                let id = self.add_op(OpKind::Mux, width, vec![sc, sa, sb]);
                Ok(Signal::op_w(id, width))
            }
            Expr::Slice { value, hi, lo } => {
                let sv = self.expr(value)?;
                let width = hi.saturating_sub(*lo).saturating_add(1);
                let id = self.add_op(OpKind::Slice { hi: *hi, lo: *lo }, width, vec![sv]);
                Ok(Signal::op_w(id, width))
            }
        }
    }

    /// Materializes an operation id for a signal so it can serve as a branch
    /// condition: the producing operation if there is one in this iteration,
    /// otherwise a `!= 0` comparison.
    fn materialize_condition(&mut self, sig: Signal) -> OpId {
        match sig.producer() {
            Some(op) if sig.distance == 0 => op,
            _ => self.add_op(
                OpKind::Cmp(CmpKind::Ne),
                1,
                vec![sig, Signal::constant(0, sig.width)],
            ),
        }
    }

    fn stmts(&mut self, stmts: &[Stmt]) -> Result<(), FrontendError> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), FrontendError> {
        match stmt {
            Stmt::Assign { var, value } => {
                let sig = self.expr(value)?;
                let decl_width = self.behavior.var(*var).width;
                // Assigning a wider expression to a narrower variable
                // truncates. Materialize the truncation as a free `Resize`
                // op so the IR, the estimators and the emitted RTL agree on
                // the value's width; constants just narrow in place.
                let sig = if sig.width > decl_width && sig.producer().is_some() {
                    let r = self.add_op(OpKind::Resize, decl_width, vec![sig]);
                    Signal::op_w(r, decl_width)
                } else {
                    Signal {
                        width: sig.width.min(decl_width),
                        ..sig
                    }
                };
                self.env[var.index()] = sig;
                Ok(())
            }
            Stmt::WritePort { port, value } => {
                let (pid, dir, width) = self.port(port)?;
                if dir != PortDirection::Output {
                    return Err(FrontendError::PortDirection { name: port.clone() });
                }
                let sig = self.expr(value)?;
                self.add_named_op(
                    &format!("{port}_write"),
                    OpKind::Write(pid),
                    width,
                    vec![sig],
                );
                Ok(())
            }
            Stmt::Wait => {
                let node = self.cdfg.cfg.add_node(CfgNodeKind::Wait { label: None });
                self.flush_to(node);
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => self.if_stmt(cond, then_body, else_body),
            Stmt::Loop {
                kind,
                body,
                cond,
                label,
            } => self.loop_stmt(*kind, body, cond.as_ref(), label.as_deref()),
        }
    }

    fn if_stmt(
        &mut self,
        cond: &Expr,
        then_body: &[Stmt],
        else_body: &[Stmt],
    ) -> Result<(), FrontendError> {
        if then_body.iter().map(Stmt::wait_count).sum::<usize>() > 0
            || else_body.iter().map(Stmt::wait_count).sum::<usize>() > 0
        {
            return Err(FrontendError::Unsupported {
                message: "wait() inside a conditional branch; balance branches before elaboration"
                    .to_string(),
            });
        }
        let cond_sig = self.expr(cond)?;
        let cond_op = self.materialize_condition(cond_sig);
        let cond_sig = Signal::op_w(cond_op, 1);

        let fork = self.cdfg.cfg.add_node(CfgNodeKind::Fork);
        self.flush_to(fork);
        self.cdfg.fork_conditions.insert(fork, cond_op);
        let join = self.cdfg.cfg.add_node(CfgNodeKind::Join);

        let env_before = self.env.clone();

        // Each branch opens at the fork and closes where its statements
        // ended, which is the inner join when it ends in a nested `if`.
        self.branch = Some(true);
        self.stmts(then_body)?;
        let env_then = self.env.clone();
        self.flush_to(join);

        self.current_node = fork;
        self.branch = Some(false);
        self.env = env_before.clone();
        self.stmts(else_body)?;
        let env_else = self.env.clone();
        self.flush_to(join);

        // Merge at the join: variables that differ get a selection mux.
        self.env = env_before;
        for (idx, (t, e)) in env_then.iter().zip(env_else.iter()).enumerate() {
            if t == e {
                self.env[idx] = *t;
            } else {
                let width = t.width.max(e.width);
                let var_name = &self.behavior.vars[idx].name;
                let mux = self.add_named_op(
                    &format!("{var_name}_mux"),
                    OpKind::Mux,
                    width,
                    vec![cond_sig, *t, *e],
                );
                self.env[idx] = Signal::op_w(mux, width);
            }
        }
        Ok(())
    }

    fn loop_stmt(
        &mut self,
        kind: LoopKind,
        body: &[Stmt],
        cond: Option<&Expr>,
        label: Option<&str>,
    ) -> Result<(), FrontendError> {
        let loop_id = LoopId::from_raw(self.next_loop_id);
        self.next_loop_id += 1;
        let label = label
            .map(|s| s.to_string())
            .unwrap_or_else(|| format!("loop{}", loop_id.index()));

        let top = self.cdfg.cfg.add_node(CfgNodeKind::LoopTop { loop_id });
        self.flush_to(top);

        // Reserve the loop record now so that outer loops appear before inner
        // ones in `cdfg.loops` (outermost-first ordering).
        let loop_slot = self.cdfg.loops.len();
        self.cdfg.loops.push(LoopInfo {
            id: loop_id,
            top,
            bottom: top, // patched below
            body_edges: Vec::new(),
            exit_condition: None,
            infinite: kind == LoopKind::Infinite,
            name: Some(label.clone()),
        });

        let first_edge_idx = self.cdfg.cfg.num_edges();

        // Loop-carried variables: those read before being written inside the
        // body. Each gets the paper's loopMux selecting the pre-loop value on
        // the first iteration and the previous iteration's value afterwards.
        let carried: Vec<VarId> = {
            let mut exposed = upward_exposed_vars(body);
            // a `while` condition is read before the body, every iteration
            if let (LoopKind::While, Some(c)) = (kind, cond) {
                scan_expr(c, &HashSet::new(), &mut exposed);
            }
            let mut v: Vec<VarId> = exposed.into_iter().collect();
            v.sort();
            v
        };
        let first_iter = if carried.is_empty() {
            None
        } else {
            Some(self.add_named_op(&format!("{label}_first_iter"), OpKind::Pass, 1, vec![]))
        };
        let mut loop_muxes: Vec<(VarId, OpId)> = Vec::new();
        for var in &carried {
            let width = self.behavior.var(*var).width;
            let init = self.env[var.index()];
            let name = format!("{}_loop_mux", self.behavior.var(*var).name);
            let mux = self.add_named_op(
                &name,
                OpKind::Mux,
                width,
                vec![
                    Signal::op_w(first_iter.expect("carried implies first_iter"), 1),
                    init,
                    Signal::constant(0, width), // patched to the carried value below
                ],
            );
            self.env[var.index()] = Signal::op_w(mux, width);
            loop_muxes.push((*var, mux));
        }

        // While loops evaluate their condition at the top of the body.
        let mut exit_condition = None;
        if kind == LoopKind::While {
            if let Some(c) = cond {
                let sig = self.expr(c)?;
                exit_condition = Some(self.materialize_condition(sig));
            }
        }

        self.stmts(body)?;

        // Do-while loops evaluate their condition at the end of the body.
        if kind == LoopKind::DoWhile {
            if let Some(c) = cond {
                let sig = self.expr(c)?;
                exit_condition = Some(self.materialize_condition(sig));
            }
        }

        let bottom = self.cdfg.cfg.add_node(CfgNodeKind::LoopBottom { loop_id });
        self.flush_to(bottom);
        self.cdfg.cfg.add_back_edge(bottom, top);

        // Patch the carried input of every loopMux with the value the body
        // computed, one iteration away.
        for (var, mux) in loop_muxes {
            let end_val = self.env[var.index()];
            let width = self.cdfg.dfg.op(mux).width;
            let carried_sig = match end_val.producer() {
                Some(producer) => Signal::carried(producer, end_val.width, end_val.distance + 1),
                None => end_val,
            };
            self.cdfg.dfg.op_mut(mux).inputs[2] = Signal {
                width: carried_sig.width.min(width),
                ..carried_sig
            };
        }

        // Record the loop body edges: every forward edge created while the
        // body was elaborated (branch edges included, back edge excluded).
        let body_edges: Vec<CfgEdgeId> = (first_edge_idx..self.cdfg.cfg.num_edges())
            .map(|i| CfgEdgeId::from_raw(i as u32))
            .filter(|&e| !self.cdfg.cfg.edge(e).back_edge)
            .collect();

        let info = &mut self.cdfg.loops[loop_slot];
        info.bottom = bottom;
        info.body_edges = body_edges;
        info.exit_condition = exit_condition;
        Ok(())
    }
}

/// The first variable the statements assign or read that is not among the
/// `declared` ones.
fn undeclared_var(stmts: &[Stmt], declared: usize) -> Option<VarId> {
    let in_expr = |e: &Expr| undeclared_var_in(e, declared);
    stmts.iter().find_map(|s| match s {
        Stmt::Assign { var, value } => Some(*var)
            .filter(|v| v.index() >= declared)
            .or_else(|| in_expr(value)),
        Stmt::WritePort { value, .. } => in_expr(value),
        Stmt::Wait => None,
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => in_expr(cond)
            .or_else(|| undeclared_var(then_body, declared))
            .or_else(|| undeclared_var(else_body, declared)),
        Stmt::Loop { body, cond, .. } => {
            undeclared_var(body, declared).or_else(|| cond.as_ref().and_then(in_expr))
        }
    })
}

fn undeclared_var_in(expr: &Expr, declared: usize) -> Option<VarId> {
    match expr {
        Expr::Var(v) => Some(*v).filter(|v| v.index() >= declared),
        Expr::Const(_) | Expr::Port(_) => None,
        Expr::Binary(_, a, b) | Expr::Cmp(_, a, b) => {
            undeclared_var_in(a, declared).or_else(|| undeclared_var_in(b, declared))
        }
        Expr::Neg(a) | Expr::Not(a) | Expr::Slice { value: a, .. } => {
            undeclared_var_in(a, declared)
        }
        Expr::Select(c, a, b) => [c, a, b]
            .into_iter()
            .find_map(|e| undeclared_var_in(e, declared)),
    }
}

/// Whether a statement of `stmts`, nested ones included, writes `port`.
fn writes_port(stmts: &[Stmt], port: &str) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::WritePort { port: p, .. } => p == port,
        Stmt::If {
            then_body,
            else_body,
            ..
        } => writes_port(then_body, port) || writes_port(else_body, port),
        Stmt::Loop { body, .. } => writes_port(body, port),
        Stmt::Assign { .. } | Stmt::Wait => false,
    })
}

/// Variables read before being (definitely) written inside a statement list —
/// the loop-carried candidates.
fn upward_exposed_vars(body: &[Stmt]) -> HashSet<VarId> {
    let mut exposed = HashSet::new();
    let mut assigned = HashSet::new();
    scan_stmts(body, &mut assigned, &mut exposed);
    exposed
}

fn scan_stmts(stmts: &[Stmt], assigned: &mut HashSet<VarId>, exposed: &mut HashSet<VarId>) {
    for s in stmts {
        match s {
            Stmt::Assign { var, value } => {
                scan_expr(value, assigned, exposed);
                assigned.insert(*var);
            }
            Stmt::WritePort { value, .. } => scan_expr(value, assigned, exposed),
            Stmt::Wait => {}
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                scan_expr(cond, assigned, exposed);
                let mut assigned_then = assigned.clone();
                let mut assigned_else = assigned.clone();
                scan_stmts(then_body, &mut assigned_then, exposed);
                scan_stmts(else_body, &mut assigned_else, exposed);
                // Only variables assigned on *both* paths are definitely
                // assigned after the conditional.
                for v in assigned_then.intersection(&assigned_else) {
                    assigned.insert(*v);
                }
            }
            Stmt::Loop { body, cond, .. } => {
                // A nested loop may execute zero times (while) or at least
                // once (do-while); be conservative: its body reads count as
                // exposed unless already assigned, and its assignments are
                // not guaranteed.
                let mut inner_assigned = assigned.clone();
                scan_stmts(body, &mut inner_assigned, exposed);
                if let Some(c) = cond {
                    scan_expr(c, &inner_assigned, exposed);
                }
            }
        }
    }
}

fn scan_expr(expr: &Expr, assigned: &HashSet<VarId>, exposed: &mut HashSet<VarId>) {
    match expr {
        Expr::Const(_) | Expr::Port(_) => {}
        Expr::Var(v) => {
            if !assigned.contains(v) {
                exposed.insert(*v);
            }
        }
        Expr::Binary(_, a, b) | Expr::Cmp(_, a, b) => {
            scan_expr(a, assigned, exposed);
            scan_expr(b, assigned, exposed);
        }
        Expr::Neg(a) | Expr::Not(a) => scan_expr(a, assigned, exposed),
        Expr::Select(c, a, b) => {
            scan_expr(c, assigned, exposed);
            scan_expr(a, assigned, exposed);
            scan_expr(b, assigned, exposed);
        }
        Expr::Slice { value, .. } => scan_expr(value, assigned, exposed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BehaviorBuilder;
    use hls_ir::analysis::sccs;

    fn accumulator_behavior() -> Behavior {
        let mut b = BehaviorBuilder::new("acc");
        b.port_in("x", 16);
        b.port_out("y", 32);
        let acc = b.var("acc", 32, 0);
        let body = vec![
            b.assign(acc, Expr::add(b.read_var(acc), b.read_port("x"))),
            b.write_port("y", b.read_var(acc)),
            b.wait(),
        ];
        let inner = b.do_while(
            "main",
            body,
            Expr::cmp(CmpKind::Ne, b.read_var(acc), Expr::Const(0)),
        );
        b.push(inner);
        b.build()
    }

    #[test]
    fn accumulator_elaborates_with_loop_mux_scc() {
        let cdfg = elaborate(&accumulator_behavior()).expect("elaboration");
        assert_eq!(cdfg.loops.len(), 1);
        let comps = sccs(&cdfg.dfg);
        assert_eq!(comps.len(), 1, "accumulator recurrence must form one SCC");
        // the SCC contains the add and the loop mux
        let names: Vec<String> = comps[0]
            .ops
            .iter()
            .map(|&op| cdfg.dfg.op(op).display_name())
            .collect();
        assert!(names.iter().any(|n| n.contains("loop_mux")), "{names:?}");
        assert!(names.iter().any(|n| n == "add"), "{names:?}");
    }

    #[test]
    fn loop_anchor_satisfies_the_first_iter_contract() {
        // The execution engines (hls-sim) and the RTL emitter detect the
        // first-iteration anchor through Operation::is_first_iter_anchor,
        // which matches the name this elaborator assigns. Renaming the
        // anchor here without updating that predicate would silently break
        // all loop-carried initialization — this test pins the contract.
        let cdfg = elaborate(&accumulator_behavior()).expect("elaboration");
        let anchors: Vec<_> = cdfg
            .dfg
            .iter_ops()
            .filter(|(_, op)| op.is_first_iter_anchor())
            .collect();
        assert_eq!(anchors.len(), 1, "one anchor for the single loop");
        assert!(anchors[0].1.display_name().ends_with("first_iter"));
    }

    #[test]
    fn elaboration_is_deterministic_across_runs() {
        let a = elaborate(&accumulator_behavior()).expect("elab a");
        let b = elaborate(&accumulator_behavior()).expect("elab b");
        assert_eq!(a.dfg, b.dfg, "op tables must match exactly");
        let ports_a: Vec<_> = a
            .dfg
            .iter_ports()
            .map(|(id, p)| (id, p.name.clone()))
            .collect();
        let ports_b: Vec<_> = b
            .dfg
            .iter_ports()
            .map(|(id, p)| (id, p.name.clone()))
            .collect();
        assert_eq!(ports_a, ports_b);
    }

    #[test]
    fn upward_exposed_detects_read_before_write() {
        let behavior = accumulator_behavior();
        let Stmt::Loop { body, .. } = &behavior.body[0] else {
            panic!("expected loop")
        };
        let exposed = upward_exposed_vars(body);
        assert!(exposed.contains(&VarId(0)), "acc is read before written");
    }

    #[test]
    fn variable_written_first_is_not_carried() {
        let mut b = BehaviorBuilder::new("t");
        b.port_in("x", 8);
        b.port_out("y", 8);
        let tmp = b.var("tmp", 8, 0);
        let body = vec![
            b.assign(tmp, b.read_port("x")),
            b.write_port("y", b.read_var(tmp)),
            b.wait(),
        ];
        let l = b.do_while(
            "main",
            body,
            Expr::cmp(CmpKind::Ne, b.read_var(tmp), Expr::Const(0)),
        );
        b.push(l);
        let cdfg = elaborate(&b.build()).expect("elaboration");
        // no loop mux, no SCC
        assert!(sccs(&cdfg.dfg).is_empty());
        let has_loop_mux = cdfg
            .dfg
            .iter_ops()
            .any(|(_, op)| op.display_name().contains("loop_mux"));
        assert!(!has_loop_mux);
    }

    #[test]
    fn if_creates_fork_join_and_merge_mux() {
        let mut b = BehaviorBuilder::new("cond");
        b.port_in("x", 8);
        b.port_out("y", 8);
        let v = b.var("v", 8, 0);
        let body = vec![
            b.assign(v, b.read_port("x")),
            b.if_then_else(
                Expr::cmp(CmpKind::Gt, b.read_var(v), Expr::Const(5)),
                vec![b.assign(v, Expr::mul(b.read_var(v), Expr::Const(3)))],
                vec![b.assign(v, Expr::add(b.read_var(v), Expr::Const(1)))],
            ),
            b.write_port("y", b.read_var(v)),
            b.wait(),
        ];
        let l = b.do_while(
            "main",
            body,
            Expr::cmp(CmpKind::Ne, b.read_var(v), Expr::Const(0)),
        );
        b.push(l);
        let cdfg = elaborate(&b.build()).expect("elaboration");
        let forks = cdfg
            .cfg
            .iter_nodes()
            .filter(|(_, n)| matches!(n.kind, CfgNodeKind::Fork))
            .count();
        assert_eq!(forks, 1);
        assert_eq!(cdfg.fork_conditions.len(), 1);
        let mux_count = cdfg
            .dfg
            .iter_ops()
            .filter(|(_, op)| matches!(op.kind, OpKind::Mux))
            .count();
        assert!(mux_count >= 1, "merge mux expected");
    }

    #[test]
    fn wait_in_branch_is_rejected() {
        let mut b = BehaviorBuilder::new("bad");
        b.port_in("x", 8);
        let v = b.var("v", 8, 0);
        let body = vec![
            b.if_then(
                Expr::cmp(CmpKind::Gt, b.read_port("x"), Expr::Const(0)),
                vec![b.wait(), b.assign(v, Expr::Const(1))],
            ),
            b.wait(),
        ];
        let l = b.do_while(
            "main",
            body,
            Expr::cmp(CmpKind::Ne, b.read_var(v), Expr::Const(0)),
        );
        b.push(l);
        let err = elaborate(&b.build()).unwrap_err();
        assert!(matches!(err, FrontendError::Unsupported { .. }));
    }

    #[test]
    fn unknown_port_is_rejected() {
        let mut b = BehaviorBuilder::new("bad");
        let v = b.var("v", 8, 0);
        b.push(Stmt::Assign {
            var: v,
            value: Expr::Port("nope".into()),
        });
        let err = elaborate(&b.build()).unwrap_err();
        assert!(matches!(err, FrontendError::UnknownPort { .. }));
    }

    #[test]
    fn undeclared_variables_are_rejected() {
        // an assignment target, and a read a loop carries, past the one
        // declared variable
        let mut b = BehaviorBuilder::new("bad");
        let v = b.var("v", 8, 0);
        let body = vec![b.assign(VarId(1), b.read_var(v)), b.wait()];
        let assigns = b.infinite_loop(body).build();
        let mut b = BehaviorBuilder::new("bad");
        let v = b.var("v", 8, 0);
        let body = vec![b.assign(v, b.read_var(VarId(2))), b.wait()];
        let reads = b.infinite_loop(body).build();
        for (behavior, name) in [(assigns, "v1"), (reads, "v2")] {
            let err = elaborate(&behavior).unwrap_err();
            assert_eq!(err, FrontendError::UnknownVar { name: name.into() });
        }
    }

    #[test]
    fn a_slice_of_every_u16_bit_is_refused_not_a_panic() {
        // [65535:0] is 65 536 bits, one more than a width holds
        let mut b = BehaviorBuilder::new("wide");
        b.port_in("x", 8);
        b.port_out("y", 8);
        let slice = Expr::Slice {
            value: Box::new(b.read_port("x")),
            hi: u16::MAX,
            lo: 0,
        };
        let body = vec![b.write_port("y", slice), b.wait()];
        let err = elaborate(&b.infinite_loop(body).build()).unwrap_err();
        assert!(
            matches!(&err, FrontendError::Elaboration { message } if message.contains("65535 bits")),
            "{err}"
        );
    }

    #[test]
    fn port_direction_enforced() {
        let mut b = BehaviorBuilder::new("bad");
        b.port_in("x", 8);
        b.push(Stmt::WritePort {
            port: "x".into(),
            value: Expr::Const(0),
        });
        let err = elaborate(&b.build()).unwrap_err();
        assert!(matches!(err, FrontendError::PortDirection { .. }));
    }

    #[test]
    fn while_loop_tests_the_value_entering_the_iteration() {
        // `while (i < 10) { i = i + 1; wait; }` tests `i`'s loop mux; the same
        // body as a do-while loop tests `i + 1`.
        let exit_operand = |kind| {
            let mut b = BehaviorBuilder::new("count");
            let i = b.var("i", 32, 0);
            let body = vec![
                b.assign(i, Expr::add(b.read_var(i), Expr::Const(1))),
                b.wait(),
            ];
            b.push(Stmt::Loop {
                kind,
                body,
                cond: Some(Expr::cmp(CmpKind::Lt, b.read_var(i), Expr::Const(10))),
                label: None,
            });
            let cdfg = elaborate(&b.build()).expect("elaboration");
            let exit = cdfg.innermost_loop().unwrap().exit_condition.unwrap();
            let test = cdfg.dfg.op(exit);
            assert_eq!(test.kind, OpKind::Cmp(CmpKind::Lt));
            let operand = test.inputs[0].producer().expect("reads an operation");
            (cdfg.dfg.op(operand).clone(), cdfg)
        };
        let (entering, _) = exit_operand(LoopKind::While);
        assert_eq!(entering.display_name(), "i_loop_mux");
        let (leaving, cdfg) = exit_operand(LoopKind::DoWhile);
        assert_eq!(leaving.kind, OpKind::Add);
        let addend = leaving.inputs[0].producer().expect("reads an operation");
        assert_eq!(cdfg.dfg.op(addend).display_name(), "i_loop_mux");
    }

    #[test]
    fn loop_body_edges_are_recorded() {
        let cdfg = elaborate(&accumulator_behavior()).expect("elaboration");
        let l = cdfg.innermost_loop().unwrap();
        assert!(!l.body_edges.is_empty());
        assert!(l.exit_condition.is_some());
        // ops of the loop are homed on body edges
        let by_edge = cdfg.ops_by_edge();
        let total_on_body: usize = l
            .body_edges
            .iter()
            .filter_map(|e| by_edge.get(e))
            .map(Vec::len)
            .sum();
        assert!(total_on_body >= 5);
    }

    #[test]
    fn nested_loops_are_outermost_first() {
        let mut b = BehaviorBuilder::new("nested");
        b.port_in("x", 8);
        b.port_out("y", 8);
        let acc = b.var("acc", 16, 0);
        let inner_body = vec![
            b.assign(acc, Expr::add(b.read_var(acc), b.read_port("x"))),
            b.wait(),
        ];
        let inner = b.do_while(
            "inner",
            inner_body,
            Expr::cmp(CmpKind::Ne, b.read_var(acc), Expr::Const(0)),
        );
        let outer_body = vec![
            b.assign(acc, Expr::Const(0)),
            b.wait(),
            inner,
            b.write_port("y", b.read_var(acc)),
        ];
        b.infinite_loop(outer_body);
        let cdfg = elaborate(&b.build()).expect("elaboration");
        assert_eq!(cdfg.loops.len(), 2);
        assert!(cdfg.loops[0].infinite, "outer thread loop first");
        assert!(!cdfg.loops[1].infinite);
        assert_eq!(
            cdfg.innermost_loop().unwrap().name.as_deref(),
            Some("inner")
        );
    }

    #[test]
    fn narrowing_assignment_materializes_a_resize_op() {
        // `var v : 8` assigned a 16-bit sum: the declared-width truncation
        // must exist in the IR (as a free Resize op of width 8), not just as
        // relabeled signal metadata.
        let mut b = BehaviorBuilder::new("narrow");
        b.port_in("a", 16);
        b.port_out("y", 8);
        let v = b.var("v", 8, 0);
        let body = vec![
            b.assign(v, Expr::add(b.read_port("a"), b.read_port("a"))),
            b.write_port("y", b.read_var(v)),
            b.wait(),
        ];
        b.infinite_loop(body);
        let cdfg = elaborate(&b.build()).expect("elaboration");
        let resizes: Vec<_> = cdfg
            .dfg
            .iter_ops()
            .filter(|(_, op)| matches!(op.kind, OpKind::Resize))
            .collect();
        assert_eq!(resizes.len(), 1, "one truncation op expected");
        let (_, resize) = resizes[0];
        assert_eq!(resize.width, 8);
        assert_eq!(resize.inputs[0].width, 16);
        // widening or equal-width assignments add no resize
        let mut b2 = BehaviorBuilder::new("wide");
        b2.port_in("a", 8);
        b2.port_out("y", 16);
        let w = b2.var("w", 16, 0);
        let body2 = vec![
            b2.assign(w, b2.read_port("a")),
            b2.write_port("y", b2.read_var(w)),
            b2.wait(),
        ];
        b2.infinite_loop(body2);
        let cdfg2 = elaborate(&b2.build()).expect("elaboration");
        assert!(!cdfg2
            .dfg
            .iter_ops()
            .any(|(_, op)| matches!(op.kind, OpKind::Resize)));
    }
}
