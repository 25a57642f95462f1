//! The data flow graph: operations, ports and data dependencies.

use crate::error::IrError;
use crate::eval::MAX_WIDTH;
use crate::ids::{CfgEdgeId, OpId, PortId};
use crate::op::{OpKind, Operation};
use crate::predicate::Predicate;
use std::collections::HashMap;
use std::fmt;

/// Direction of a module port.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PortDirection {
    /// Data flowing into the module (read by `OpKind::Read`).
    Input,
    /// Data flowing out of the module (written by `OpKind::Write`).
    Output,
}

/// A module-level I/O port (an `sc_in`/`sc_out` of the paper's SystemC input).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Port {
    /// Port name as written in the source description.
    pub name: String,
    /// Direction.
    pub direction: PortDirection,
    /// Bit width.
    pub width: u16,
}

/// A data input of an operation.
///
/// A signal either references the result of another operation (possibly from
/// a *previous loop iteration*, expressed by `distance > 0`) or is an
/// immediate constant. Loop-carried references are how inter-iteration
/// dependencies — and therefore the strongly connected components that
/// constrain pipelining (Section V, requirement a) — enter the DFG.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Signal {
    /// Producer of the value.
    pub source: SignalSource,
    /// Bit width of the consumed value.
    pub width: u16,
    /// Iteration distance: 0 = same iteration, k > 0 = value produced k
    /// iterations earlier.
    pub distance: u32,
}

/// Where a [`Signal`] value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SignalSource {
    /// Result of another DFG operation.
    Op(OpId),
    /// Immediate constant (also representable as `OpKind::Const`; immediates
    /// avoid polluting the DFG with constant nodes).
    Const(i64),
}

impl Signal {
    /// Signal fed by the result of `op` in the same iteration.
    pub fn op(op: OpId) -> Self {
        Signal {
            source: SignalSource::Op(op),
            width: 32,
            distance: 0,
        }
    }

    /// Signal fed by the result of `op` with an explicit bit width.
    pub fn op_w(op: OpId, width: u16) -> Self {
        Signal {
            source: SignalSource::Op(op),
            width,
            distance: 0,
        }
    }

    /// Loop-carried signal: the value `op` produced `distance` iterations ago.
    pub fn carried(op: OpId, width: u16, distance: u32) -> Self {
        Signal {
            source: SignalSource::Op(op),
            width,
            distance,
        }
    }

    /// Immediate constant signal.
    pub fn constant(value: i64, width: u16) -> Self {
        Signal {
            source: SignalSource::Const(value),
            width,
            distance: 0,
        }
    }

    /// Returns the producing operation, if the source is an operation.
    pub fn producer(&self) -> Option<OpId> {
        match self.source {
            SignalSource::Op(id) => Some(id),
            SignalSource::Const(_) => None,
        }
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.source {
            SignalSource::Op(id) => {
                if self.distance > 0 {
                    write!(f, "{id}@-{}", self.distance)
                } else {
                    write!(f, "{id}")
                }
            }
            SignalSource::Const(v) => write!(f, "#{v}"),
        }
    }
}

/// A data dependency edge `from → to` derived from operation inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DataDep {
    /// Producing operation.
    pub from: OpId,
    /// Consuming operation.
    pub to: OpId,
    /// Input position on the consumer.
    pub to_input: usize,
    /// Iteration distance (0 = intra-iteration).
    pub distance: u32,
}

/// The data flow graph of one behavioural thread (or one loop body).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Dfg {
    ops: Vec<Operation>,
    ports: Vec<Port>,
}

impl Dfg {
    /// Creates an empty DFG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a module port and returns its id.
    pub fn add_port(
        &mut self,
        name: impl Into<String>,
        direction: PortDirection,
        width: u16,
    ) -> PortId {
        self.ports.push(Port {
            name: name.into(),
            direction,
            width,
        });
        PortId::from_raw((self.ports.len() - 1) as u32)
    }

    /// Adds an operation and returns its id.
    pub fn add_op(&mut self, kind: OpKind, width: u16, inputs: Vec<Signal>) -> OpId {
        self.ops.push(Operation::new(kind, width, inputs));
        OpId::from_raw((self.ops.len() - 1) as u32)
    }

    /// Adds a named operation (names show up in schedules and reports, like
    /// `mul1_op` in the paper's Table 2).
    pub fn add_named_op(
        &mut self,
        name: impl Into<String>,
        kind: OpKind,
        width: u16,
        inputs: Vec<Signal>,
    ) -> OpId {
        let id = self.add_op(kind, width, inputs);
        self.ops[id.index()].name = Some(name.into());
        id
    }

    /// Adds an operation guarded by a predicate.
    pub fn add_predicated_op(
        &mut self,
        kind: OpKind,
        width: u16,
        inputs: Vec<Signal>,
        predicate: Predicate,
    ) -> OpId {
        let id = self.add_op(kind, width, inputs);
        self.ops[id.index()].predicate = predicate;
        id
    }

    /// Number of operations.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Immutable access to an operation.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this DFG.
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id.index()]
    }

    /// Mutable access to an operation.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this DFG.
    pub fn op_mut(&mut self, id: OpId) -> &mut Operation {
        &mut self.ops[id.index()]
    }

    /// Immutable access to a port.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this DFG.
    pub fn port(&self, id: PortId) -> &Port {
        &self.ports[id.index()]
    }

    /// Iterator over `(OpId, &Operation)` pairs in id order.
    pub fn iter_ops(&self) -> impl Iterator<Item = (OpId, &Operation)> {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, op)| (OpId::from_raw(i as u32), op))
    }

    /// Iterator over all operation ids.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> {
        (0..self.ops.len() as u32).map(OpId::from_raw)
    }

    /// Iterator over `(PortId, &Port)` pairs.
    pub fn iter_ports(&self) -> impl Iterator<Item = (PortId, &Port)> {
        self.ports
            .iter()
            .enumerate()
            .map(|(i, p)| (PortId::from_raw(i as u32), p))
    }

    /// All data dependency edges, derived from operation inputs.
    pub fn data_deps(&self) -> Vec<DataDep> {
        let mut deps = Vec::new();
        for (to, op) in self.iter_ops() {
            for (pos, sig) in op.inputs.iter().enumerate() {
                if let Some(from) = sig.producer() {
                    deps.push(DataDep {
                        from,
                        to,
                        to_input: pos,
                        distance: sig.distance,
                    });
                }
            }
        }
        deps
    }

    /// Direct intra-iteration predecessors of `id` (distance-0 producers).
    pub fn preds(&self, id: OpId) -> Vec<OpId> {
        self.op(id)
            .inputs
            .iter()
            .filter(|s| s.distance == 0)
            .filter_map(|s| s.producer())
            .collect()
    }

    /// All predecessors of `id` including loop-carried ones.
    pub fn preds_with_carried(&self, id: OpId) -> Vec<(OpId, u32)> {
        self.op(id)
            .inputs
            .iter()
            .filter_map(|s| s.producer().map(|p| (p, s.distance)))
            .collect()
    }

    /// Associates an operation with its home CFG edge (control step).
    pub fn set_home_edge(&mut self, op: OpId, edge: CfgEdgeId) {
        self.ops[op.index()].home_edge = Some(edge);
    }

    /// Checks structural invariants:
    ///
    /// * every referenced operation / port id exists,
    /// * every operation has the number of inputs its kind expects,
    /// * intra-iteration dependencies are acyclic (cycles may only appear
    ///   through loop-carried signals),
    /// * predicates are satisfiable and reference 1-bit condition ops,
    /// * no port, operation result, operand or slice field is wider than
    ///   [`MAX_WIDTH`] bits.
    ///
    /// # Errors
    /// Returns the first violated invariant as an [`IrError`].
    pub fn validate(&self) -> Result<(), IrError> {
        for (_, port) in self.iter_ports() {
            if port.width > MAX_WIDTH {
                return Err(IrError::TooWide {
                    what: format!("port `{}`", port.name),
                    width: port.width,
                });
            }
        }
        for (id, op) in self.iter_ops() {
            let arity = op.kind.arity();
            if op.inputs.len() != arity {
                return Err(IrError::BadArity {
                    op: id,
                    kind: op.kind.mnemonic(),
                    expected: arity,
                    found: op.inputs.len(),
                });
            }
            for sig in &op.inputs {
                if let Some(p) = sig.producer() {
                    if p.index() >= self.ops.len() {
                        return Err(IrError::DanglingOp {
                            op: id,
                            referenced: p,
                        });
                    }
                }
            }
            match &op.kind {
                OpKind::Read(p) | OpKind::Write(p) => {
                    if p.index() >= self.ports.len() {
                        return Err(IrError::DanglingPort {
                            op: id,
                            referenced: *p,
                        });
                    }
                    let port = self.port(*p);
                    let expect = match op.kind {
                        OpKind::Read(_) => PortDirection::Input,
                        _ => PortDirection::Output,
                    };
                    if port.direction != expect {
                        return Err(IrError::PortDirectionMismatch { op: id, port: *p });
                    }
                }
                _ => {}
            }
            if !op.predicate.is_satisfiable() {
                return Err(IrError::UnsatisfiablePredicate { op: id });
            }
            for cond in op.predicate.condition_ops() {
                if cond.index() >= self.ops.len() {
                    return Err(IrError::DanglingOp {
                        op: id,
                        referenced: cond,
                    });
                }
            }
            if op.width == 0 {
                return Err(IrError::ZeroWidth { op: id });
            }
            let field = match op.kind {
                OpKind::Slice { hi, lo } => hi.saturating_sub(lo).saturating_add(1),
                _ => 0,
            };
            let width = op.max_width().max(field);
            if width > MAX_WIDTH {
                return Err(IrError::TooWide {
                    what: format!("operation {id}"),
                    width,
                });
            }
        }
        if let Some(cycle_member) = self.find_intra_iteration_cycle() {
            return Err(IrError::CombinationalDependenceCycle { op: cycle_member });
        }
        Ok(())
    }

    /// Finds an operation that is part of an intra-iteration (distance-0)
    /// dependence cycle, if any. Such cycles are malformed: within one
    /// iteration data flow must be acyclic; cycles across iterations must use
    /// loop-carried (distance ≥ 1) signals.
    fn find_intra_iteration_cycle(&self) -> Option<OpId> {
        // Kahn's algorithm; any node not drained is on a cycle.
        let n = self.ops.len();
        let succ = self.successors(false);
        let mut indeg = succ.in_degrees();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut drained = 0usize;
        while let Some(i) = queue.pop() {
            drained += 1;
            for &s in succ.of(i) {
                let s = s as usize;
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s);
                }
            }
        }
        if drained == n {
            None
        } else {
            (0..n)
                .find(|&i| indeg[i] > 0)
                .map(|i| OpId::from_raw(i as u32))
        }
    }

    /// Topological order of operations over intra-iteration dependencies.
    ///
    /// # Errors
    /// Returns [`IrError::CombinationalDependenceCycle`] if the distance-0
    /// dependence graph is cyclic.
    pub fn topo_order(&self) -> Result<Vec<OpId>, IrError> {
        let n = self.ops.len();
        let succ = self.successors(false);
        let mut indeg = succ.in_degrees();
        let mut queue: std::collections::VecDeque<usize> =
            (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(OpId::from_raw(i as u32));
            for &s in succ.of(i) {
                let s = s as usize;
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push_back(s);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            let member = (0..n)
                .find(|&i| indeg[i] > 0)
                .map(|i| OpId::from_raw(i as u32))
                .expect("cycle implies a node with nonzero in-degree");
            Err(IrError::CombinationalDependenceCycle { op: member })
        }
    }

    /// Every op's consumers over the same-iteration data edges, and over
    /// the loop-carried ones too when `carried`, in one flat array: each
    /// op's list holds one entry per edge, in the order [`Dfg::data_deps`]
    /// lists the edges.
    pub(crate) fn successors(&self, carried: bool) -> Successors {
        let n = self.ops.len();
        let edges = || {
            self.ops.iter().enumerate().flat_map(move |(to, op)| {
                op.inputs
                    .iter()
                    .filter(move |sig| carried || sig.distance == 0)
                    .filter_map(move |sig| sig.producer().map(|p| (p.index(), to as u32)))
            })
        };
        // offsets[p + 1] counts p's edges, then the prefix sums place them
        let mut offsets = vec![0u32; n + 1];
        for (p, _) in edges() {
            offsets[p + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets[..n].to_vec();
        let mut targets = vec![0u32; offsets[n] as usize];
        for (p, to) in edges() {
            targets[next[p] as usize] = to;
            next[p] += 1;
        }
        Successors { offsets, targets }
    }

    /// Counts operations of each kind mnemonic; handy for reports and for
    /// resource estimation sanity checks.
    pub fn kind_histogram(&self) -> HashMap<String, usize> {
        let mut map = HashMap::new();
        for (_, op) in self.iter_ops() {
            *map.entry(op.kind.mnemonic()).or_insert(0) += 1;
        }
        map
    }
}

/// Every op's consumers in one flat array (see [`Dfg::successors`]).
pub(crate) struct Successors {
    /// Op `i`'s consumers are `targets[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Successors {
    /// Op `i`'s consumers, one per edge.
    pub(crate) fn of(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Each op's edges in.
    fn in_degrees(&self) -> Vec<usize> {
        let mut indeg = vec![0usize; self.offsets.len() - 1];
        for &s in &self.targets {
            indeg[s as usize] += 1;
        }
        indeg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::CmpKind;

    fn small_dfg() -> (Dfg, OpId, OpId, OpId) {
        let mut dfg = Dfg::new();
        let a = dfg.add_port("a", PortDirection::Input, 16);
        let b = dfg.add_port("b", PortDirection::Input, 16);
        let ra = dfg.add_op(OpKind::Read(a), 16, vec![]);
        let rb = dfg.add_op(OpKind::Read(b), 16, vec![]);
        let sum = dfg.add_op(
            OpKind::Add,
            17,
            vec![Signal::op_w(ra, 16), Signal::op_w(rb, 16)],
        );
        (dfg, ra, rb, sum)
    }

    #[test]
    fn build_and_query() {
        let (dfg, ra, rb, sum) = small_dfg();
        assert_eq!(dfg.num_ops(), 3);
        assert_eq!(dfg.num_ports(), 2);
        assert_eq!(dfg.preds(sum), vec![ra, rb]);
        assert!(dfg.validate().is_ok());
    }

    #[test]
    fn data_deps_positions() {
        let (dfg, ra, rb, sum) = small_dfg();
        let deps = dfg.data_deps();
        assert_eq!(deps.len(), 2);
        assert!(deps.contains(&DataDep {
            from: ra,
            to: sum,
            to_input: 0,
            distance: 0
        }));
        assert!(deps.contains(&DataDep {
            from: rb,
            to: sum,
            to_input: 1,
            distance: 0
        }));
    }

    #[test]
    fn loop_carried_signals_do_not_count_as_intra_cycle() {
        let mut dfg = Dfg::new();
        // acc = acc@-1 + in ; classic accumulator SCC
        let inp = dfg.add_port("in", PortDirection::Input, 32);
        let read = dfg.add_op(OpKind::Read(inp), 32, vec![]);
        let acc = dfg.add_op(OpKind::Add, 32, vec![Signal::op(read), Signal::op(read)]);
        // rewrite second input as the accumulator's own value from the
        // previous iteration
        dfg.op_mut(acc).inputs[1] = Signal::carried(acc, 32, 1);
        assert!(dfg.validate().is_ok());
        let order = dfg
            .topo_order()
            .expect("loop-carried edge must not create a cycle");
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn intra_iteration_cycle_is_rejected() {
        let mut dfg = Dfg::new();
        let x = dfg.add_op(
            OpKind::Add,
            32,
            vec![Signal::constant(1, 32), Signal::constant(2, 32)],
        );
        let y = dfg.add_op(
            OpKind::Add,
            32,
            vec![Signal::op(x), Signal::constant(1, 32)],
        );
        // create x <- y cycle at distance 0
        dfg.op_mut(x).inputs[0] = Signal::op(y);
        assert!(matches!(
            dfg.validate(),
            Err(IrError::CombinationalDependenceCycle { .. })
        ));
        assert!(dfg.topo_order().is_err());
    }

    #[test]
    fn arity_validation() {
        let mut dfg = Dfg::new();
        dfg.add_op(OpKind::Add, 32, vec![Signal::constant(1, 32)]);
        assert!(matches!(dfg.validate(), Err(IrError::BadArity { .. })));
    }

    #[test]
    fn port_direction_validation() {
        let mut dfg = Dfg::new();
        let out = dfg.add_port("pixel", PortDirection::Output, 32);
        dfg.add_op(OpKind::Read(out), 32, vec![]);
        assert!(matches!(
            dfg.validate(),
            Err(IrError::PortDirectionMismatch { .. })
        ));
    }

    #[test]
    fn unsatisfiable_predicate_rejected() {
        let mut dfg = Dfg::new();
        let cond = dfg.add_op(
            OpKind::Cmp(CmpKind::Gt),
            1,
            vec![Signal::constant(1, 32), Signal::constant(0, 32)],
        );
        let p = Predicate::Cond(cond).and(Predicate::NotCond(cond));
        dfg.add_predicated_op(
            OpKind::Add,
            32,
            vec![Signal::constant(1, 32), Signal::constant(2, 32)],
            p,
        );
        assert!(matches!(
            dfg.validate(),
            Err(IrError::UnsatisfiablePredicate { .. })
        ));
    }

    #[test]
    fn topo_order_respects_deps() {
        let (dfg, ra, rb, sum) = small_dfg();
        let order = dfg.topo_order().unwrap();
        let pos = |id: OpId| order.iter().position(|&o| o == id).unwrap();
        assert!(pos(ra) < pos(sum));
        assert!(pos(rb) < pos(sum));
    }

    #[test]
    fn kind_histogram_counts() {
        let (dfg, ..) = small_dfg();
        let hist = dfg.kind_histogram();
        assert_eq!(hist.get("add"), Some(&1));
        assert_eq!(hist.values().sum::<usize>(), 3);
    }

    #[test]
    fn zero_width_rejected() {
        let mut dfg = Dfg::new();
        dfg.add_op(OpKind::Pass, 0, vec![]);
        assert!(matches!(dfg.validate(), Err(IrError::ZeroWidth { .. })));
    }

    #[test]
    fn widths_beyond_the_value_model_are_rejected() {
        let too_wide = |dfg: &Dfg| match dfg.validate() {
            Err(IrError::TooWide { what, width }) => Some((what, width)),
            _ => None,
        };
        let mut dfg = Dfg::new();
        let x = dfg.add_port("x", PortDirection::Input, 64);
        let r = dfg.add_op(OpKind::Read(x), 64, vec![]);
        assert_eq!(dfg.validate(), Ok(()));
        let s = dfg.add_op(
            OpKind::Slice { hi: 64, lo: 0 },
            8,
            vec![Signal::op_w(r, 64)],
        );
        assert_eq!(too_wide(&dfg), Some((format!("operation {s}"), 65)));
        dfg.op_mut(s).kind = OpKind::Slice { hi: 63, lo: 0 };
        dfg.op_mut(s).inputs[0].width = 65;
        assert_eq!(too_wide(&dfg), Some((format!("operation {s}"), 65)));
        dfg.add_port("y", PortDirection::Output, 65);
        assert_eq!(too_wide(&dfg), Some(("port `y`".into(), 65)));
    }

    #[test]
    fn signal_display() {
        let s = Signal::carried(OpId::from_raw(2), 32, 1);
        assert_eq!(s.to_string(), "op2@-1");
        assert_eq!(Signal::constant(5, 8).to_string(), "#5");
        assert_eq!(Signal::op(OpId::from_raw(0)).to_string(), "op0");
    }
}
