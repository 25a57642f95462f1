//! The reference interpreter: direct, untimed execution of a loop body.
//!
//! Each iteration evaluates every operation once, in topological order, over
//! a row of values indexed by operation id (the data-flow-graph walking
//! idiom). Loop-carried inputs (`distance > 0`) read the value the producer
//! computed that many iterations earlier, from a ring of the last
//! `max distance + 1` rows; reads that reach before the first iteration
//! yield zero, and the elaborator's *first-iteration anchors* (see
//! [`hls_ir::Operation::is_first_iter_anchor`]) evaluate to 1 exactly on
//! iteration 0, which is how the `loopMux` pattern selects the pre-loop
//! value.
//!
//! Predicates gate only externally observable actions (port writes): pure
//! operations are evaluated unconditionally and the multiplexers introduced
//! by predicate conversion select the governing value — the same convention
//! the RTL emitter and the cycle-accurate simulator use, so all three
//! engines are bit-exact against each other.

use crate::error::SimError;
use crate::stimulus::Stimulus;
use hls_ir::dfg::SignalSource;
use hls_ir::eval::{eval_op, BitVal};
use hls_ir::{LinearBody, OpId, OpKind, PortId, Signal};

/// One predicate-passing port write, in program order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteEvent {
    /// Iteration the write executed in.
    pub iteration: u32,
    /// Written port.
    pub port: PortId,
    /// Written value (canonical signed reading at the port width).
    pub value: i64,
}

/// The observable behaviour of an interpreted run.
#[derive(Clone, Debug, Default)]
pub struct InterpTrace {
    /// Number of iterations executed.
    pub iterations: u32,
    /// All predicate-passing writes, ordered by iteration, then source
    /// state, then operation id.
    pub writes: Vec<WriteEvent>,
}

impl InterpTrace {
    /// The `(iteration, value)` write sequence of one port.
    pub fn port_writes(&self, port: PortId) -> Vec<(u32, i64)> {
        self.writes
            .iter()
            .filter(|w| w.port == port)
            .map(|w| (w.iteration, w.value))
            .collect()
    }
}

/// Reference interpreter over a [`LinearBody`].
pub struct Interpreter<'a> {
    body: &'a LinearBody,
    order: Vec<OpId>,
    /// Write operations in (source state, id) order — the program order of
    /// observable effects within one iteration.
    write_order: Vec<OpId>,
    /// The largest iteration distance any operand reads across.
    max_distance: usize,
}

impl<'a> Interpreter<'a> {
    /// Prepares an interpreter, validating the body and computing the
    /// evaluation order.
    ///
    /// # Errors
    /// [`SimError::InvalidBody`] if the body (or its intra-iteration
    /// dependence graph) is malformed.
    pub fn new(body: &'a LinearBody) -> Result<Self, SimError> {
        body.validate()?;
        let order = body.dfg.topo_order()?;
        let mut write_order: Vec<OpId> = body
            .dfg
            .iter_ops()
            .filter(|(_, op)| matches!(op.kind, OpKind::Write(_)))
            .map(|(id, _)| id)
            .collect();
        write_order.sort_by_key(|&id| (body.source_state.get(&id).copied().unwrap_or(0), id));
        let max_distance = body
            .dfg
            .iter_ops()
            .flat_map(|(_, op)| &op.inputs)
            .filter(|sig| matches!(sig.source, SignalSource::Op(_)))
            .map(|sig| sig.distance as usize)
            .max()
            .unwrap_or(0);
        Ok(Interpreter {
            body,
            order,
            write_order,
            max_distance,
        })
    }

    /// Runs one iteration per stimulus row and collects the write trace.
    ///
    /// # Errors
    /// [`SimError::Eval`] if an operation cannot be evaluated.
    pub fn run(&self, stimulus: &Stimulus) -> Result<InterpTrace, SimError> {
        let n_ops = self.body.dfg.num_ops();
        let iterations = stimulus.iterations();
        // A read reaching before iteration 0 never touches the ring, so no
        // run needs more rows than it has iterations.
        let depth = self.max_distance.min(iterations) + 1;
        let mut rows = Rows {
            values: vec![BitVal::zero(1); depth * n_ops],
            depth,
            n_ops,
        };
        let mut inputs: Vec<BitVal> = Vec::new();
        let mut trace = InterpTrace {
            iterations: iterations as u32,
            writes: Vec::with_capacity(iterations * self.write_order.len()),
        };
        for k in 0..iterations {
            // Iteration `k` overwrites the row of iteration `k - depth` op
            // by op in topological order, so a distance-0 read always finds
            // the current iteration's value.
            let row = rows.start(k);
            for &id in &self.order {
                let op = self.body.dfg.op(id);
                let value = match &op.kind {
                    OpKind::Read(p) => BitVal::new(stimulus.value(k, *p), op.width),
                    OpKind::Write(_) => rows.resolve(&op.inputs[0], k).resize(op.width),
                    OpKind::Pass if op.inputs.is_empty() => {
                        if op.is_first_iter_anchor() {
                            BitVal::from_bits(u64::from(k == 0), 1)
                        } else {
                            // neutralized dead/CSE ops and live-ins carry no
                            // in-loop value
                            BitVal::zero(op.width)
                        }
                    }
                    kind => {
                        inputs.clear();
                        inputs.extend(op.inputs.iter().map(|sig| rows.resolve(sig, k)));
                        eval_op(kind, op.width, &inputs)
                            .map_err(|source| SimError::Eval { op: id, source })?
                    }
                };
                rows.values[row + id.index()] = value;
            }
            // observable effects, in program order, gated by their predicate
            let vals = &rows.values[row..row + n_ops];
            for &w in &self.write_order {
                let op = self.body.dfg.op(w);
                if op.predicate.eval(&|c| vals[c.index()].is_true()) {
                    if let OpKind::Write(p) = op.kind {
                        trace.writes.push(WriteEvent {
                            iteration: k as u32,
                            port: p,
                            value: vals[w.index()].as_i64(),
                        });
                    }
                }
            }
        }
        Ok(trace)
    }
}

/// The values of the last `depth` iterations: iteration `k` holds row
/// `k % depth`, one value per operation.
struct Rows {
    values: Vec<BitVal>,
    depth: usize,
    n_ops: usize,
}

impl Rows {
    /// Index of iteration `k`'s first value.
    fn start(&self, k: usize) -> usize {
        (k % self.depth) * self.n_ops
    }

    /// Resolves a signal for iteration `k`: constants are immediates,
    /// distance-0 references read the current row, loop-carried references
    /// read the row of that many iterations earlier (zero before the first
    /// production). The producer value is resized to the consuming signal's
    /// width (sign-extend / truncate).
    fn resolve(&self, sig: &Signal, k: usize) -> BitVal {
        match sig.source {
            SignalSource::Const(v) => BitVal::new(v, sig.width),
            SignalSource::Op(p) => {
                let d = sig.distance as usize;
                if k < d {
                    return BitVal::zero(sig.width);
                }
                self.values[self.start(k - d) + p.index()].resize(sig.width)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::{Dfg, PortDirection};

    /// `y = (x * 3) + acc` with `acc += x` carried across iterations.
    fn accumulator_body() -> (LinearBody, PortId, PortId) {
        let mut dfg = Dfg::new();
        let x = dfg.add_port("x", PortDirection::Input, 16);
        let y = dfg.add_port("y", PortDirection::Output, 32);
        let r = dfg.add_op(OpKind::Read(x), 16, vec![]);
        let acc = dfg.add_op(
            OpKind::Add,
            32,
            vec![Signal::op_w(r, 16), Signal::constant(0, 32)],
        );
        dfg.op_mut(acc).inputs[1] = Signal::carried(acc, 32, 1);
        let m = dfg.add_op(
            OpKind::Mul,
            32,
            vec![Signal::op_w(r, 16), Signal::constant(3, 8)],
        );
        let s = dfg.add_op(
            OpKind::Add,
            32,
            vec![Signal::op_w(m, 32), Signal::op_w(acc, 32)],
        );
        dfg.add_op(OpKind::Write(y), 32, vec![Signal::op_w(s, 32)]);
        (LinearBody::from_dfg("acc", dfg), x, y)
    }

    #[test]
    fn accumulator_matches_hand_computation() {
        let (body, x, y) = accumulator_body();
        let mut stim = Stimulus::constant(&body.dfg, 4, 0);
        for (k, v) in [5i64, -2, 7, 0].into_iter().enumerate() {
            stim.row_mut(k).unwrap().insert(x, v);
        }
        let trace = Interpreter::new(&body).unwrap().run(&stim).unwrap();
        // acc after each iteration: 5, 3, 10, 10 → y = 3x + acc
        assert_eq!(
            trace.port_writes(y),
            vec![(0, 20), (1, -3), (2, 31), (3, 10)]
        );
    }

    #[test]
    fn a_distance_three_read_wraps_the_ring() {
        // y = x + x@-3 beside acc += x: four rows of values, so ten
        // iterations wrap the ring twice, and x@-3 reads zero until
        // iteration 3
        let mut dfg = Dfg::new();
        let x = dfg.add_port("x", PortDirection::Input, 16);
        let y = dfg.add_port("y", PortDirection::Output, 16);
        let z = dfg.add_port("z", PortDirection::Output, 16);
        let r = dfg.add_op(OpKind::Read(x), 16, vec![]);
        let sum = dfg.add_op(
            OpKind::Add,
            16,
            vec![Signal::op_w(r, 16), Signal::carried(r, 16, 3)],
        );
        let acc = dfg.add_op(
            OpKind::Add,
            16,
            vec![Signal::op_w(r, 16), Signal::constant(0, 16)],
        );
        dfg.op_mut(acc).inputs[1] = Signal::carried(acc, 16, 1);
        dfg.add_op(OpKind::Write(y), 16, vec![Signal::op_w(sum, 16)]);
        dfg.add_op(OpKind::Write(z), 16, vec![Signal::op_w(acc, 16)]);
        let body = LinearBody::from_dfg("ring", dfg);
        let xs = [3i64, -1, 4, 1, -5, 9, 2, -6, 5, 3];
        let mut stim = Stimulus::constant(&body.dfg, xs.len(), 0);
        for (k, v) in xs.into_iter().enumerate() {
            stim.row_mut(k).unwrap().insert(x, v);
        }
        let trace = Interpreter::new(&body).unwrap().run(&stim).unwrap();
        let expect = |values: [i64; 10]| -> Vec<(u32, i64)> { (0..).zip(values).collect() };
        assert_eq!(
            trace.port_writes(y),
            expect([3, -1, 4, 4, -6, 13, 3, -11, 14, 5])
        );
        assert_eq!(
            trace.port_writes(z),
            expect([3, 2, 6, 7, 2, 11, 13, 7, 12, 15])
        );
    }

    #[test]
    fn first_iter_anchor_selects_the_init_value() {
        // loopMux pattern: mux(first_iter, 42, v@-1) with v = mux + 1
        let mut dfg = Dfg::new();
        let y = dfg.add_port("y", PortDirection::Output, 16);
        let anchor = dfg.add_named_op("l_first_iter", OpKind::Pass, 1, vec![]);
        let mux = dfg.add_op(
            OpKind::Mux,
            16,
            vec![
                Signal::op_w(anchor, 1),
                Signal::constant(42, 16),
                Signal::constant(0, 16), // patched below
            ],
        );
        let inc = dfg.add_op(
            OpKind::Add,
            16,
            vec![Signal::op_w(mux, 16), Signal::constant(1, 8)],
        );
        dfg.op_mut(mux).inputs[2] = Signal::carried(inc, 16, 1);
        dfg.add_op(OpKind::Write(y), 16, vec![Signal::op_w(inc, 16)]);
        let body = LinearBody::from_dfg("counter", dfg);
        let stim = Stimulus::constant(&body.dfg, 3, 0);
        let trace = Interpreter::new(&body).unwrap().run(&stim).unwrap();
        assert_eq!(trace.port_writes(y), vec![(0, 43), (1, 44), (2, 45)]);
    }

    #[test]
    fn predicated_writes_are_gated() {
        // write y only when x > 0
        let mut dfg = Dfg::new();
        let x = dfg.add_port("x", PortDirection::Input, 8);
        let y = dfg.add_port("y", PortDirection::Output, 8);
        let r = dfg.add_op(OpKind::Read(x), 8, vec![]);
        let c = dfg.add_op(
            OpKind::Cmp(hls_ir::CmpKind::Gt),
            1,
            vec![Signal::op_w(r, 8), Signal::constant(0, 8)],
        );
        let w = dfg.add_op(OpKind::Write(y), 8, vec![Signal::op_w(r, 8)]);
        dfg.op_mut(w).predicate = hls_ir::Predicate::Cond(c);
        let body = LinearBody::from_dfg("gated", dfg);
        let mut stim = Stimulus::constant(&body.dfg, 3, 0);
        stim.row_mut(0).unwrap().insert(x, 5);
        stim.row_mut(1).unwrap().insert(x, -5);
        stim.row_mut(2).unwrap().insert(x, 1);
        let trace = Interpreter::new(&body).unwrap().run(&stim).unwrap();
        assert_eq!(trace.port_writes(y), vec![(0, 5), (2, 1)]);
    }
}
