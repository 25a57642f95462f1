//! Linearized loop bodies: the straight-line, predicated form the scheduler
//! consumes.
//!
//! Step I.1 of the paper's pipelining procedure converts the loop into "a
//! straight-line sequence of nodes in the CFG" by balancing fork/join regions
//! and applying full predicate conversion. The same form is also what the
//! non-pipelined pass scheduler operates on — which is precisely the paper's
//! point: one scheduling engine for both micro-architectures.
//!
//! A [`LinearBody`] owns a [`Dfg`] whose operations are all predicated (no
//! control flow left), plus scheduling-relevant metadata: the source state of
//! each operation, I/O pinning constraints and the loop exit condition.

use crate::dfg::Dfg;
use crate::error::IrError;
use crate::ids::{OpId, StateIdx};
use crate::op::OpKind;
use std::collections::{BTreeMap, HashMap};

/// How an operation is tied to a control step by user/source constraints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinnedState {
    /// Must be scheduled exactly in this state (cycle-accurate I/O protocol).
    Exact(StateIdx),
    /// Must be scheduled in this state or later (loosely timed I/O).
    AtOrAfter(StateIdx),
}

impl PinnedState {
    /// Whether `state` satisfies the pin.
    pub fn allows(self, state: StateIdx) -> bool {
        match self {
            PinnedState::Exact(s) => state == s,
            PinnedState::AtOrAfter(s) => state >= s,
        }
    }
}

/// A straight-line (fully predicated) loop body ready for scheduling.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinearBody {
    /// Design / loop name.
    pub name: String,
    /// The predicated data flow graph.
    pub dfg: Dfg,
    /// Number of control steps the body occupies in the *source* description
    /// (the number of `wait()`-delimited states). The scheduler may add
    /// states beyond this when relaxing constraints.
    pub source_states: u32,
    /// The state each operation belongs to in the source description.
    pub source_state: HashMap<OpId, u32>,
    /// Scheduling pins (typically on I/O operations).
    pub pins: HashMap<OpId, PinnedState>,
    /// Operation computing the loop exit condition, if any.
    pub exit_condition: Option<OpId>,
}

impl LinearBody {
    /// Wraps a DFG as a single-source-state linear body.
    pub fn from_dfg(name: impl Into<String>, dfg: Dfg) -> Self {
        LinearBody {
            name: name.into(),
            dfg,
            source_states: 1,
            source_state: HashMap::new(),
            pins: HashMap::new(),
            exit_condition: None,
        }
    }

    /// Records the source state of an operation.
    pub fn set_source_state(&mut self, op: OpId, state: u32) {
        self.source_state.insert(op, state);
        if state + 1 > self.source_states {
            self.source_states = state + 1;
        }
    }

    /// Returns the pin of an operation, if any.
    pub fn pin_of(&self, op: OpId) -> Option<PinnedState> {
        self.pins.get(&op).copied()
    }

    /// Number of operations in the body.
    pub fn num_ops(&self) -> usize {
        self.dfg.num_ops()
    }

    /// Sequential-ordering dependencies between accesses to the same port.
    ///
    /// Two reads of the same port in different source states, or any two
    /// writes of the same port, must not be reordered; this returns the
    /// implied `(earlier, later)` pairs in source order. The scheduler treats
    /// them as extra (distance-0) precedence edges.
    pub fn io_order_deps(&self) -> Vec<(OpId, OpId)> {
        let mut by_port: BTreeMap<(u32, bool), Vec<OpId>> = BTreeMap::new();
        for (id, op) in self.dfg.iter_ops() {
            match op.kind {
                OpKind::Read(p) => by_port
                    .entry((p.index() as u32, false))
                    .or_default()
                    .push(id),
                OpKind::Write(p) => by_port
                    .entry((p.index() as u32, true))
                    .or_default()
                    .push(id),
                _ => {}
            }
        }
        let mut deps = Vec::new();
        for ((_, is_write), mut ops) in by_port {
            // order accesses by source state, then id
            ops.sort_by_key(|&id| (self.source_state.get(&id).copied().unwrap_or(0), id));
            for pair in ops.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                let sa = self.source_state.get(&a).copied().unwrap_or(0);
                let sb = self.source_state.get(&b).copied().unwrap_or(0);
                // Reads in the same source state may be reordered freely;
                // writes never.
                if is_write || sa != sb {
                    deps.push((a, b));
                }
            }
        }
        deps
    }

    /// Validates the body: the DFG must be well formed, pins must reference
    /// existing operations and lie within a plausible state range, and the
    /// exit condition (if any) must exist and be 1 bit wide.
    ///
    /// # Errors
    /// Returns the first violated invariant as an [`IrError`].
    pub fn validate(&self) -> Result<(), IrError> {
        self.dfg.validate()?;
        for (&op, &pin) in &self.pins {
            if op.index() >= self.dfg.num_ops() {
                return Err(IrError::DanglingOp { op, referenced: op });
            }
            if let PinnedState::Exact(s) = pin {
                if s.0 >= self.source_states.max(1) + 64 {
                    return Err(IrError::InconsistentConstraint {
                        detail: format!("pin of {op} at {s} is far beyond the source latency"),
                    });
                }
            }
        }
        for (&op, &state) in &self.source_state {
            if op.index() >= self.dfg.num_ops() {
                return Err(IrError::DanglingOp { op, referenced: op });
            }
            if state >= self.source_states {
                return Err(IrError::InconsistentConstraint {
                    detail: format!("source state {state} of {op} exceeds source_states"),
                });
            }
        }
        if let Some(cond) = self.exit_condition {
            if cond.index() >= self.dfg.num_ops() {
                return Err(IrError::DanglingOp {
                    op: cond,
                    referenced: cond,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::{PortDirection, Signal};

    fn body_with_io() -> (LinearBody, OpId, OpId, OpId, OpId) {
        let mut dfg = Dfg::new();
        let a = dfg.add_port("a", PortDirection::Input, 8);
        let y = dfg.add_port("y", PortDirection::Output, 8);
        let r1 = dfg.add_op(OpKind::Read(a), 8, vec![]);
        let r2 = dfg.add_op(OpKind::Read(a), 8, vec![]);
        let sum = dfg.add_op(
            OpKind::Add,
            8,
            vec![Signal::op_w(r1, 8), Signal::op_w(r2, 8)],
        );
        let w1 = dfg.add_op(OpKind::Write(y), 8, vec![Signal::op_w(sum, 8)]);
        let w2 = dfg.add_op(OpKind::Write(y), 8, vec![Signal::op_w(sum, 8)]);
        let mut body = LinearBody::from_dfg("io", dfg);
        body.set_source_state(r1, 0);
        body.set_source_state(r2, 1);
        body.set_source_state(w1, 1);
        body.set_source_state(w2, 1);
        (body, r1, r2, w1, w2)
    }

    #[test]
    fn pinned_state_semantics() {
        let exact = PinnedState::Exact(StateIdx::new(2));
        assert!(exact.allows(StateIdx::new(2)));
        assert!(!exact.allows(StateIdx::new(3)));
        let after = PinnedState::AtOrAfter(StateIdx::new(1));
        assert!(after.allows(StateIdx::new(1)));
        assert!(after.allows(StateIdx::new(5)));
        assert!(!after.allows(StateIdx::new(0)));
    }

    #[test]
    fn source_states_grow_with_assignments() {
        let (body, ..) = body_with_io();
        assert_eq!(body.source_states, 2);
    }

    #[test]
    fn io_order_deps_are_generated() {
        let (body, r1, r2, w1, w2) = body_with_io();
        let deps = body.io_order_deps();
        // reads in different states stay ordered
        assert!(deps.contains(&(r1, r2)));
        // writes to the same port always stay ordered
        assert!(deps.contains(&(w1, w2)));
        // no dependency from write to read of different ports
        assert!(!deps.contains(&(w1, r2)));
    }

    #[test]
    fn validation_catches_bad_pins_and_states() {
        let (mut body, r1, ..) = body_with_io();
        assert!(body.validate().is_ok());
        body.pins.insert(r1, PinnedState::Exact(StateIdx::new(500)));
        assert!(body.validate().is_err());
        body.pins.clear();
        body.source_state.insert(r1, 99);
        assert!(body.validate().is_err());
    }

    #[test]
    fn from_dfg_defaults() {
        let dfg = Dfg::new();
        let body = LinearBody::from_dfg("empty", dfg);
        assert_eq!(body.source_states, 1);
        assert!(body.validate().is_ok());
        assert_eq!(body.num_ops(), 0);
    }
}
