//! Graph analyses on the DFG: strongly connected components and dependence
//! levels (untimed ASAP/ALAP).
//!
//! The pipelining approach of the paper hinges on the observation that
//! *inter-iteration dependencies are represented by cycles that form strongly
//! connected components in the DFG of a loop* (Section V, requirement a), and
//! that preserving causality requires all operations of each SCC to be
//! scheduled within `II` states. The [`sccs`] function computes those
//! components (Tarjan's algorithm over the dependence graph including
//! loop-carried edges).

use crate::dfg::Dfg;
use crate::ids::OpId;
use std::collections::HashMap;

/// A strongly connected component of the DFG dependence graph (including
/// loop-carried edges). Components with a single operation and no self loop
/// are not reported.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scc {
    /// Operations in the component.
    pub ops: Vec<OpId>,
}

impl Scc {
    /// Number of operations in the component.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the component is empty (never produced by [`sccs`]).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Returns `true` if the component contains the operation.
    pub fn contains(&self, op: OpId) -> bool {
        self.ops.contains(&op)
    }
}

/// Computes the non-trivial strongly connected components of the dependence
/// graph of `dfg`, *including* loop-carried (distance ≥ 1) edges.
///
/// A component is non-trivial if it has more than one operation, or a single
/// operation with a self loop (e.g. `acc = acc + x` expressed as a
/// loop-carried self-dependency).
pub fn sccs(dfg: &Dfg) -> Vec<Scc> {
    let n = dfg.num_ops();
    // adjacency including loop-carried edges
    let adj = dfg.successors(true);

    // Iterative Tarjan's algorithm.
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Scc> = Vec::new();

    #[derive(Clone, Copy)]
    struct Frame {
        v: usize,
        child: usize,
    }

    let mut call_stack: Vec<Frame> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        call_stack.push(Frame { v: start, child: 0 });
        index[start] = next_index;
        lowlink[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(frame) = call_stack.last_mut() {
            let v = frame.v;
            if let Some(&w) = adj.of(v).get(frame.child) {
                let w = w as usize;
                frame.child += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push(Frame { v: w, child: 0 });
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                call_stack.pop();
                if let Some(parent) = call_stack.last() {
                    lowlink[parent.v] = lowlink[parent.v].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    // a lone op without a self loop is a trivial component:
                    // popped, not collected
                    if stack.last() == Some(&v) && !adj.of(v).contains(&(v as u32)) {
                        stack.pop();
                        on_stack[v] = false;
                        continue;
                    }
                    let mut ops = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        ops.push(OpId::from_raw(w as u32));
                        if w == v {
                            break;
                        }
                    }
                    ops.sort();
                    out.push(Scc { ops });
                }
            }
        }
    }

    // Deterministic order: by smallest member id.
    out.sort_by_key(|c| c.ops[0]);
    out
}

/// Untimed ASAP levels: the length (in dependence hops) of the longest
/// distance-0 dependence chain ending at each operation.
pub fn asap_levels(dfg: &Dfg) -> HashMap<OpId, u32> {
    let order = dfg
        .topo_order()
        .expect("asap_levels requires an acyclic intra-iteration dependence graph");
    let mut level: HashMap<OpId, u32> = HashMap::new();
    for id in order {
        let l = dfg
            .preds(id)
            .into_iter()
            .map(|p| level.get(&p).copied().unwrap_or(0) + 1)
            .max()
            .unwrap_or(0);
        level.insert(id, l);
    }
    level
}

/// Untimed ALAP levels for a given total depth: `depth - longest chain from
/// the operation to any sink`.
pub fn alap_levels(dfg: &Dfg, depth: u32) -> HashMap<OpId, u32> {
    let order = dfg
        .topo_order()
        .expect("alap_levels requires an acyclic intra-iteration dependence graph");
    // In reverse topological order every consumer is final before its
    // producers, so each operation pushes its chain length to them.
    let mut below = vec![0u32; dfg.num_ops()];
    for &id in order.iter().rev() {
        for p in dfg.preds(id) {
            below[p.index()] = below[p.index()].max(below[id.index()] + 1);
        }
    }
    order
        .into_iter()
        .map(|id| (id, depth.saturating_sub(below[id.index()])))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::{PortDirection, Signal};
    use crate::op::{CmpKind, OpKind};

    /// Builds the accumulator pattern of the paper's Figure 3(b):
    /// `aver = mux(gt, aver*scale, aver0); aver0 = loopMux(aver@-1) + delta`.
    fn accumulator_dfg() -> (Dfg, Vec<OpId>) {
        let mut dfg = Dfg::new();
        let mask = dfg.add_port("mask", PortDirection::Input, 32);
        let chrome = dfg.add_port("chrome", PortDirection::Input, 32);
        let scale = dfg.add_port("scale", PortDirection::Input, 32);
        let th = dfg.add_port("th", PortDirection::Input, 32);

        let mask_rd = dfg.add_op(OpKind::Read(mask), 32, vec![]);
        let chrome_rd = dfg.add_op(OpKind::Read(chrome), 32, vec![]);
        let scale_rd = dfg.add_op(OpKind::Read(scale), 32, vec![]);
        let th_rd = dfg.add_op(OpKind::Read(th), 32, vec![]);

        let mul1 = dfg.add_op(
            OpKind::Mul,
            32,
            vec![Signal::op(mask_rd), Signal::op(chrome_rd)],
        );
        // loopMux selects 0 on the first iteration, previous aver otherwise —
        // represented as a mux whose second input is the loop-carried MUX
        // output; ids are patched after creating the final MUX.
        let loop_mux = dfg.add_op(
            OpKind::Mux,
            32,
            vec![
                Signal::constant(1, 1),
                Signal::constant(0, 32),
                Signal::constant(0, 32),
            ],
        );
        let add = dfg.add_op(
            OpKind::Add,
            32,
            vec![Signal::op(loop_mux), Signal::op(mul1)],
        );
        let gt = dfg.add_op(
            OpKind::Cmp(CmpKind::Gt),
            1,
            vec![Signal::op(add), Signal::op(th_rd)],
        );
        let mul2 = dfg.add_op(OpKind::Mul, 32, vec![Signal::op(add), Signal::op(scale_rd)]);
        let mux = dfg.add_op(
            OpKind::Mux,
            32,
            vec![Signal::op(gt), Signal::op(mul2), Signal::op(add)],
        );
        // close the recurrence: loopMux input 2 is MUX from the previous iteration
        dfg.op_mut(loop_mux).inputs[2] = Signal::carried(mux, 32, 1);

        (dfg, vec![loop_mux, add, mul2, mux, gt])
    }

    #[test]
    fn scc_of_accumulator_matches_paper() {
        let (dfg, ids) = accumulator_dfg();
        assert!(dfg.validate().is_ok());
        let comps = sccs(&dfg);
        assert_eq!(comps.len(), 1, "exactly one SCC expected");
        let scc = &comps[0];
        // The paper lists the SCC as {loopMux, add_op, mul2_op, MUX}; gt_op is
        // also on the cycle through the MUX select input (the paper's prose
        // simply omits it), so we expect all five operations here.
        let loop_mux = ids[0];
        let add = ids[1];
        let mul2 = ids[2];
        let mux = ids[3];
        let gt = ids[4];
        assert!(scc.contains(loop_mux));
        assert!(scc.contains(add));
        assert!(scc.contains(mul2));
        assert!(scc.contains(mux));
        assert!(scc.contains(gt));
        assert_eq!(scc.len(), 5);
    }

    #[test]
    fn self_loop_accumulator_is_an_scc() {
        let mut dfg = Dfg::new();
        let p = dfg.add_port("x", PortDirection::Input, 16);
        let r = dfg.add_op(OpKind::Read(p), 16, vec![]);
        let acc = dfg.add_op(
            OpKind::Add,
            16,
            vec![Signal::op_w(r, 16), Signal::op_w(r, 16)],
        );
        dfg.op_mut(acc).inputs[1] = Signal::carried(acc, 16, 1);
        let comps = sccs(&dfg);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].ops, vec![acc]);
    }

    #[test]
    fn dag_has_no_sccs() {
        let mut dfg = Dfg::new();
        let a = dfg.add_op(OpKind::Const(1), 8, vec![]);
        let b = dfg.add_op(
            OpKind::Add,
            8,
            vec![Signal::op_w(a, 8), Signal::constant(1, 8)],
        );
        let _c = dfg.add_op(
            OpKind::Add,
            8,
            vec![Signal::op_w(b, 8), Signal::constant(2, 8)],
        );
        assert!(sccs(&dfg).is_empty());
    }

    #[test]
    fn asap_alap_levels_bound_each_other() {
        let (dfg, _) = accumulator_dfg();
        let asap = asap_levels(&dfg);
        let depth = asap.values().copied().max().unwrap_or(0);
        let alap = alap_levels(&dfg, depth);
        for id in dfg.op_ids() {
            assert!(
                asap[&id] <= alap[&id],
                "asap {} must not exceed alap {} for {id}",
                asap[&id],
                alap[&id]
            );
        }

        // Generated DAGs, with loop-carried inputs that must not count: an
        // operation's ALAP level is the depth less its longest distance-0
        // path to a sink, found here by relaxing every edge to a fixpoint.
        for seed in 1..=8u64 {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut rand_below = |n: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % n as u64) as usize
            };
            let mut dfg = Dfg::new();
            for i in 0..60 {
                let (kind, arity) = if i < 3 || rand_below(5) == 0 {
                    (OpKind::Pass, 0)
                } else {
                    (OpKind::Add, 2)
                };
                let inputs = (0..arity)
                    .map(|_| {
                        let p = OpId::from_raw(rand_below(i) as u32);
                        match rand_below(4) {
                            0 => Signal::carried(p, 8, 1),
                            _ => Signal::op_w(p, 8),
                        }
                    })
                    .collect();
                dfg.add_op(kind, 8, inputs);
            }
            let mut height = vec![0u32; dfg.num_ops()];
            let mut changed = true;
            while changed {
                changed = false;
                for (id, op) in dfg.iter_ops() {
                    for p in op.inputs.iter().filter(|s| s.distance == 0) {
                        let p = p.producer().expect("operation input").index();
                        if height[p] < height[id.index()] + 1 {
                            height[p] = height[id.index()] + 1;
                            changed = true;
                        }
                    }
                }
            }
            let asap = asap_levels(&dfg);
            let depth = asap.values().copied().max().unwrap_or(0);
            let alap = alap_levels(&dfg, depth);
            for id in dfg.op_ids() {
                assert_eq!(alap[&id], depth - height[id.index()], "seed {seed}, {id}");
                assert!(asap[&id] <= alap[&id], "seed {seed}, {id}");
            }
        }
    }
}
