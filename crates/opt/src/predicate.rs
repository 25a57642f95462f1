//! Predicate conversion (branch predication, Figure 4 of the paper).
//!
//! Operations homed on the edges of a branch receive a predicate derived
//! from the fork's condition: `Cond(c)` for the taken branch, `NotCond(c)`
//! for the not-taken branch, conjoined with the literal of every enclosing
//! branch (nested conditionals). After this pass the scheduler can treat the
//! loop body as a straight line: mutual exclusion between the two arms is
//! captured entirely by predicates, which both the resource lower bound and
//! per-control-step resource sharing exploit.

use crate::error::OptError;
use crate::passes::Pass;
use hls_ir::{Cdfg, CfgNodeKind, Predicate};

/// The branch predication pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct PredicateConversion;

impl Pass for PredicateConversion {
    fn name(&self) -> &'static str {
        "predicate-conversion"
    }

    fn run(&self, cdfg: &mut Cdfg) -> Result<usize, OptError> {
        let cfg = &cdfg.cfg;
        // The branch literals open on each node and forward edge, outermost
        // first: a fork's branch edge opens one and a join closes the
        // innermost. The walk starts at every node without a forward
        // in-edge, and the first edge to reach a node decides what is open
        // there, which is exact for the nested fork/join regions that
        // elaboration builds.
        let mut open_at: Vec<Option<Vec<Predicate>>> = vec![None; cfg.num_nodes()];
        let mut open_on: Vec<Vec<Predicate>> = vec![Vec::new(); cfg.num_edges()];
        let mut walk: Vec<_> = cfg
            .iter_nodes()
            .map(|(id, _)| id)
            .filter(|&id| cfg.in_edges(id).iter().all(|&e| cfg.edge(e).back_edge))
            .collect();
        for &root in &walk {
            open_at[root.index()] = Some(Vec::new());
        }
        while let Some(node) = walk.pop() {
            let here = open_at[node.index()].clone().unwrap_or_default();
            let cond = match cfg.node(node).kind {
                CfgNodeKind::Fork => cdfg.fork_conditions.get(&node).copied(),
                _ => None,
            };
            for edge_id in cfg.out_edges(node) {
                let edge = cfg.edge(edge_id);
                if edge.back_edge {
                    continue;
                }
                let mut open = here.clone();
                if let (Some(c), Some(taken)) = (cond, edge.branch_taken) {
                    open.push(if taken {
                        Predicate::Cond(c)
                    } else {
                        Predicate::NotCond(c)
                    });
                }
                if open_at[edge.to.index()].is_none() {
                    let mut there = open.clone();
                    if matches!(cfg.node(edge.to).kind, CfgNodeKind::Join) {
                        there.pop();
                    }
                    open_at[edge.to.index()] = Some(there);
                    walk.push(edge.to);
                }
                open_on[edge_id.index()] = open;
            }
        }
        let mut changed = 0;
        for op_id in cdfg.dfg.op_ids().collect::<Vec<_>>() {
            let Some(edge) = cdfg.dfg.op(op_id).home_edge else {
                continue;
            };
            let literals = &open_on[edge.index()];
            if literals.is_empty() {
                continue;
            }
            let op = cdfg.dfg.op_mut(op_id);
            let old = std::mem::take(&mut op.predicate);
            op.predicate = literals.iter().cloned().fold(old, Predicate::and);
            changed += 1;
        }
        Ok(changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_frontend::{designs, elaborate, BehaviorBuilder, Expr};
    use hls_ir::{CmpKind, OpKind};

    #[test]
    fn example1_mul2_gets_predicated_on_gt() {
        let mut cdfg = designs::paper_example1_cdfg().expect("elaborate");
        let n = PredicateConversion.run(&mut cdfg).unwrap();
        assert!(n >= 1, "at least mul2_op must be predicated");
        let (gt_id, _) = cdfg
            .dfg
            .iter_ops()
            .find(|(_, op)| op.display_name() == "gt_op")
            .expect("gt op");
        let (_, mul2) = cdfg
            .dfg
            .iter_ops()
            .find(|(_, op)| op.display_name() == "mul2_op")
            .expect("mul2 op");
        assert_eq!(mul2.predicate, Predicate::Cond(gt_id));
        // operations outside the branch stay unconditional
        let (_, mul1) = cdfg
            .dfg
            .iter_ops()
            .find(|(_, op)| op.display_name() == "mul1_op")
            .expect("mul1 op");
        assert!(mul1.predicate.is_true());
    }

    #[test]
    fn then_and_else_arms_become_mutually_exclusive() {
        let mut b = BehaviorBuilder::new("branchy");
        b.port_in("x", 16);
        b.port_out("y", 16);
        let v = b.var("v", 16, 0);
        let body = vec![
            b.assign(v, b.read_port("x")),
            b.if_then_else(
                Expr::cmp(CmpKind::Gt, b.read_var(v), Expr::Const(7)),
                vec![b.assign(v, Expr::mul(b.read_var(v), Expr::Const(3)))],
                vec![b.assign(v, Expr::mul(b.read_var(v), Expr::Const(5)))],
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
        let mut cdfg = elaborate(&b.build()).expect("elaborate");
        PredicateConversion.run(&mut cdfg).unwrap();
        let muls: Vec<_> = cdfg
            .dfg
            .iter_ops()
            .filter(|(_, op)| matches!(op.kind, OpKind::Mul))
            .map(|(_, op)| op.predicate.clone())
            .collect();
        assert_eq!(muls.len(), 2);
        assert!(muls[0].mutually_exclusive(&muls[1]), "{muls:?}");
    }

    #[test]
    fn design_without_branches_is_untouched() {
        let mut cdfg = elaborate(&designs::moving_average(3, 16)).expect("elaborate");
        let n = PredicateConversion.run(&mut cdfg).unwrap();
        assert_eq!(n, 0);
    }
}
