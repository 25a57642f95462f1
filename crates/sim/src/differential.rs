//! Differential verification: the reference interpreter and the netlist
//! simulator must agree bit-for-bit.
//!
//! The observable behaviour of a design is its sequence of predicate-passing
//! port writes. [`check_nir`] runs the same stimulus through the
//! interpreter and [`NirSim`](crate::NirSim) on a netlist and compares, per
//! output port, the full `(iteration, value)` write sequence. [`check`] and
//! [`check_bound`] first lower a design to that netlist: the schedule with
//! one operator per operation, or the bound design with its shared units.
//! Any disagreement — a wrong value, a missing or spurious write — is a bug
//! in the scheduler, the binder, the lowering, the pipeliner or the
//! semantics themselves, reported with enough context to reproduce.
//!
//! A [`Reference`] holds one stimulus and runs the interpreter on it once,
//! so any number of netlists of the same body compare against one trace:
//! `hls::Synthesizer` checks every netlist of a run against one, and a
//! fault sweep its baseline and every mutant. The free functions are
//! one-shot wrappers that build a reference per call.

use crate::error::{ReplayInfo, SimError};
use crate::interp::Interpreter;
use crate::nir::NirSim;
use crate::stimulus::Stimulus;
use hls_bind::{BoundDesign, RtlStyle};
use hls_ir::{LinearBody, Port, PortDirection, PortId};
use hls_netlist::ScheduleDesc;
use hls_nir::NirModule;
use std::borrow::Cow;
use std::cell::OnceCell;

/// Summary of a passing differential run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DifferentialReport {
    /// Iterations (input vectors) executed.
    pub iterations: u32,
    /// Output ports compared.
    pub ports: usize,
    /// Total writes compared bit-exactly.
    pub writes_checked: usize,
}

/// One stimulus and the reference interpreter's writes under it, to
/// compare any number of netlists of the same body against.
///
/// The interpreter runs once, on the first comparison and after that
/// comparison's netlist has compiled and run, so a netlist error still
/// takes precedence over an interpreter error. A random stimulus carries
/// its [`ReplayInfo`] into every divergence.
#[derive(Debug)]
pub struct Reference<'a> {
    body: &'a LinearBody,
    stimulus: Cow<'a, Stimulus>,
    replay: Option<ReplayInfo>,
    /// Each output port's writes, in port order.
    writes: OnceCell<Result<Vec<PortWrites>, SimError>>,
}

/// One port's `(iteration, value)` write sequence.
type PortWrites = Vec<(u32, i64)>;

impl<'a> Reference<'a> {
    /// The reference for a given stimulus.
    pub fn new(body: &'a LinearBody, stimulus: &'a Stimulus) -> Self {
        Reference {
            body,
            stimulus: Cow::Borrowed(stimulus),
            replay: None,
            writes: OnceCell::new(),
        }
    }

    /// The reference for `vectors` random input vectors drawn from `seed`.
    pub fn random(body: &'a LinearBody, vectors: usize, seed: u64) -> Self {
        Reference {
            body,
            stimulus: Cow::Owned(Stimulus::random(&body.dfg, vectors, seed)),
            replay: Some(ReplayInfo { seed, vectors }),
            writes: OnceCell::new(),
        }
    }

    /// The stimulus every comparison runs.
    pub fn stimulus(&self) -> &Stimulus {
        &self.stimulus
    }

    /// [`check`] against this reference.
    ///
    /// # Errors
    /// See [`check`].
    pub fn check(&self, desc: &ScheduleDesc) -> Result<DifferentialReport, SimError> {
        self.body.validate()?;
        let netlist = hls_bind::lower(self.body, desc, &BoundDesign::default(), RtlStyle::PerOp)
            .map_err(SimError::Lowering)?;
        self.check_nir(&netlist)
    }

    /// [`check_bound`] against this reference.
    ///
    /// # Errors
    /// See [`check_bound`].
    pub fn check_bound(
        &self,
        desc: &ScheduleDesc,
        bound: &BoundDesign,
    ) -> Result<DifferentialReport, SimError> {
        let netlist = hls_bind::lower(self.body, desc, bound, RtlStyle::SharedFu)
            .map_err(SimError::Lowering)?;
        self.check_nir(&netlist)
    }

    /// [`check_nir`] against this reference.
    ///
    /// # Errors
    /// See [`check_nir`].
    pub fn check_nir(&self, netlist: &NirModule) -> Result<DifferentialReport, SimError> {
        self.check_sim(&NirSim::new(netlist)?)
    }

    /// [`check_nir`] on a netlist already compiled into `sim`, so several
    /// references (a fault sweep's stimulus and its escalated one) can run
    /// one compiled netlist.
    ///
    /// # Errors
    /// See [`check_nir`]; compiling the netlist cannot fail here.
    pub fn check_sim(&self, sim: &NirSim<'_>) -> Result<DifferentialReport, SimError> {
        let timed = sim.run(&self.stimulus)?;
        self.compare(&timed).map_err(|e| match self.replay {
            Some(info) => e.with_replay(info),
            None => e,
        })
    }

    /// Compares the netlist simulator's write trace against the reference
    /// interpreter's.
    fn compare(&self, timed: &crate::cycle::CycleTrace) -> Result<DifferentialReport, SimError> {
        let reference = self
            .writes
            .get_or_init(|| {
                let trace = Interpreter::new(self.body)?.run(&self.stimulus)?;
                Ok(self
                    .outputs()
                    .map(|(port, _)| trace.port_writes(port))
                    .collect())
            })
            .as_ref()
            .map_err(Clone::clone)?;
        let mut report = DifferentialReport {
            iterations: self.stimulus.iterations() as u32,
            ports: 0,
            writes_checked: 0,
        };
        for ((port, decl), expected) in self.outputs().zip(reference) {
            report.ports += 1;
            let actual = timed.port_writes(port);
            if expected.len() != actual.len() {
                return Err(SimError::WriteCountMismatch {
                    port,
                    port_name: decl.name.clone(),
                    expected: expected.len(),
                    actual: actual.len(),
                    replay: None,
                });
            }
            for (i, (e, a)) in expected.iter().zip(actual.iter()).enumerate() {
                if e != a {
                    // The first diverging write's clock cycle in the timed
                    // engine pins the failure on the waveform.
                    let cycle = timed.write_cycles(port).get(i).copied();
                    return Err(SimError::Mismatch {
                        port,
                        port_name: decl.name.clone(),
                        index: i,
                        iteration: e.0,
                        expected: e.1,
                        actual: a.1,
                        cycle,
                        replay: None,
                    });
                }
                report.writes_checked += 1;
            }
        }
        Ok(report)
    }

    fn outputs(&self) -> impl Iterator<Item = (PortId, &'a Port)> {
        self.body
            .dfg
            .iter_ports()
            .filter(|(_, decl)| decl.direction == PortDirection::Output)
    }
}

/// Lowers the **schedule** with one operator per operation
/// ([`RtlStyle::PerOp`], which reads no binding) and runs [`check_nir`] on
/// the result: the schedule's own netlist, controller and register chains
/// included, against the reference interpreter. A schedule that reads a
/// value before it is computed cannot be lowered, and is refused with
/// [`LowerError::AcausalRead`](hls_bind::LowerError::AcausalRead) naming
/// the consumer and the producer.
///
/// # Errors
/// [`SimError::InvalidBody`] when the body fails validation,
/// [`SimError::Lowering`] when the schedule cannot be lowered, and the
/// contract of [`check_nir`] otherwise.
pub fn check(
    body: &LinearBody,
    desc: &ScheduleDesc,
    stimulus: &Stimulus,
) -> Result<DifferentialReport, SimError> {
    Reference::new(body, stimulus).check(desc)
}

/// Lowers the **bound** design with [`RtlStyle::SharedFu`] — one operator
/// per functional unit, operand muxes steered by the FSM and, in contended
/// slots, by predicates — and runs [`check_nir`] on the result. Passing
/// this check proves the binding's sharing and steering correct by
/// execution: a mis-steered unit would leak a wrong value into an
/// observable write.
///
/// # Errors
/// Same contract as [`check_nir`], plus [`SimError::Lowering`] when the
/// binding cannot be lowered (it is not one `hls_bind::bind` could have
/// produced for `desc`).
pub fn check_bound(
    body: &LinearBody,
    desc: &ScheduleDesc,
    bound: &BoundDesign,
    stimulus: &Stimulus,
) -> Result<DifferentialReport, SimError> {
    Reference::new(body, stimulus).check_bound(desc, bound)
}

/// Runs `stimulus` through the interpreter and the **netlist** simulator —
/// the lowered cell-level hardware, controller and register chains included —
/// and asserts bit-exact agreement of every output port's write sequence.
/// This is the deepest check in the flow: it executes the same object the
/// Verilog printer serializes, so passing it proves the lowering (and any
/// rewrite passes applied to the netlist) correct by execution.
///
/// # Errors
/// [`SimError::Mismatch`] / [`SimError::WriteCountMismatch`] on divergence,
/// [`SimError::Netlist`] when the netlist itself cannot be simulated, plus
/// the reference interpreter's errors.
pub fn check_nir(
    body: &LinearBody,
    netlist: &NirModule,
    stimulus: &Stimulus,
) -> Result<DifferentialReport, SimError> {
    Reference::new(body, stimulus).check_nir(netlist)
}

/// Convenience wrapper: [`check`] with `vectors` random input vectors.
/// Divergence errors carry the [`ReplayInfo`](crate::error::ReplayInfo)
/// needed to regenerate the failing stimulus.
///
/// # Errors
/// See [`check`].
pub fn random_check(
    body: &LinearBody,
    desc: &ScheduleDesc,
    vectors: usize,
    seed: u64,
) -> Result<DifferentialReport, SimError> {
    Reference::random(body, vectors, seed).check(desc)
}

/// Convenience wrapper: [`check_bound`] with `vectors` random input vectors.
/// Divergence errors carry the [`ReplayInfo`](crate::error::ReplayInfo)
/// needed to regenerate the failing stimulus.
///
/// # Errors
/// See [`check_bound`].
pub fn random_check_bound(
    body: &LinearBody,
    desc: &ScheduleDesc,
    bound: &BoundDesign,
    vectors: usize,
    seed: u64,
) -> Result<DifferentialReport, SimError> {
    Reference::random(body, vectors, seed).check_bound(desc, bound)
}

/// Convenience wrapper: [`check_nir`] with `vectors` random input vectors.
/// Divergence errors carry the [`ReplayInfo`](crate::error::ReplayInfo)
/// needed to regenerate the failing stimulus.
///
/// # Errors
/// See [`check_nir`].
pub fn random_check_nir(
    body: &LinearBody,
    netlist: &NirModule,
    vectors: usize,
    seed: u64,
) -> Result<DifferentialReport, SimError> {
    Reference::random(body, vectors, seed).check_nir(netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_bind::LowerError;
    use hls_frontend::designs;
    use hls_opt::linearize::prepare_innermost_loop;
    use hls_sched::{Scheduler, SchedulerConfig};
    use hls_tech::{ClockConstraint, TechLibrary};

    /// The replay information a divergence carries.
    fn replay_of(err: &SimError) -> Option<ReplayInfo> {
        match err {
            SimError::Mismatch { replay, .. } | SimError::WriteCountMismatch { replay, .. } => {
                *replay
            }
            _ => None,
        }
    }

    fn example1() -> LinearBody {
        let mut cdfg = designs::paper_example1_cdfg().expect("elab");
        prepare_innermost_loop(&mut cdfg).expect("prepare")
    }

    fn desc(body: &LinearBody, config: SchedulerConfig) -> ScheduleDesc {
        let lib = TechLibrary::artisan_90nm_typical();
        Scheduler::new(body, &lib, config)
            .run()
            .expect("schedulable")
            .desc
    }

    #[test]
    fn example1_differential_passes_for_all_microarchitectures() {
        let body = example1();
        let clk = ClockConstraint::from_period_ps(1600.0);
        for config in [
            SchedulerConfig::sequential(clk, 1, 3),
            SchedulerConfig::pipelined(clk, 2, 6),
            SchedulerConfig::pipelined(clk, 1, 6),
        ] {
            let d = desc(&body, config);
            let report = random_check(&body, &d, 100, 42).expect("bit-exact");
            assert_eq!(report.iterations, 100);
            assert!(report.writes_checked >= 100);
        }
    }

    #[test]
    fn a_corrupted_binding_is_detected() {
        let body = example1();
        let clk = ClockConstraint::from_period_ps(1600.0);
        let mut d = desc(&body, SchedulerConfig::sequential(clk, 1, 3));
        // sabotage: move the port write before the multiplication feeding
        // it, so it would sample its operand before the producer has fired
        let write = body
            .dfg
            .iter_ops()
            .find(|(_, op)| matches!(op.kind, hls_ir::OpKind::Write(_)))
            .map(|(id, _)| id)
            .unwrap();
        d.ops.get_mut(&write).unwrap().state = 0;
        let err = random_check(&body, &d, 10, 1).unwrap_err();
        assert!(
            matches!(err, SimError::Lowering(LowerError::AcausalRead { consumer, .. })
                if consumer == write),
            "{err}"
        );
    }

    #[test]
    fn same_cycle_carried_read_is_a_causality_violation() {
        // II=1, LI=2: producer in state 1, a loop-carried (distance-1)
        // consumer in state 0. At cycle t the producing iteration t-1 fires
        // in the same cycle as the consuming iteration t — in hardware the
        // carried value sits in a register that only updates at the end of
        // the cycle, so this schedule must be rejected, not silently
        // resolved combinationally.
        use hls_ir::{Dfg, OpKind, Signal};
        use hls_netlist::ScheduledOp;
        use std::collections::BTreeMap;
        let mut dfg = Dfg::new();
        let x = dfg.add_port("x", PortDirection::Input, 8);
        let y = dfg.add_port("y", PortDirection::Output, 8);
        let r = dfg.add_op(OpKind::Read(x), 8, vec![]);
        let a = dfg.add_op(
            OpKind::Add,
            8,
            vec![Signal::op_w(r, 8), Signal::constant(0, 8)],
        );
        let b = dfg.add_op(
            OpKind::Add,
            8,
            vec![Signal::op_w(a, 8), Signal::constant(1, 8)],
        );
        dfg.op_mut(a).inputs[1] = Signal::carried(b, 8, 1);
        let w = dfg.add_op(OpKind::Write(y), 8, vec![Signal::op_w(b, 8)]);
        let body = LinearBody::from_dfg("carried", dfg);
        let mut ops = BTreeMap::new();
        for (id, state) in [(r, 0), (a, 0), (b, 1), (w, 1)] {
            ops.insert(
                id,
                ScheduledOp {
                    op: id,
                    state,
                    resource: None,
                },
            );
        }
        let d = ScheduleDesc {
            num_states: 2,
            ii: Some(1),
            ops,
            resources: hls_tech::ResourceSet::new(),
        };
        let stim = Stimulus::random(&body.dfg, 4, 2);
        let err = check(&body, &d, &stim);
        assert!(
            matches!(err, Err(SimError::Lowering(LowerError::AcausalRead { consumer, producer, .. }))
                if consumer == a && producer == b),
            "expected causality violation, got {err:?}"
        );
    }

    /// Sequential Example 1 lowered with the low bit of a coefficient
    /// constant flipped.
    fn corrupted_example1_netlist() -> (LinearBody, NirModule) {
        let body = example1();
        let clk = ClockConstraint::from_period_ps(1600.0);
        let d = desc(&body, SchedulerConfig::sequential(clk, 1, 3));
        let bound = hls_bind::bind(&body, &d).expect("binds");
        let mut m = hls_bind::lower(&body, &d, &bound, RtlStyle::SharedFu).expect("lowers");
        let coeff = (0..m.num_cells() as u32)
            .map(hls_nir::CellId::from_raw)
            .find(|&c| {
                m.cell(c).width >= 8 && matches!(m.cell(c).kind, hls_nir::CellKind::Const(_))
            })
            .expect("example1 has coefficient constants");
        if let hls_nir::CellKind::Const(v) = &mut m.cells[coeff.index()].kind {
            *v ^= 1;
        }
        (body, m)
    }

    #[test]
    fn divergences_are_replayable() {
        // the random harness pins a failure: the exact stimulus arguments
        // plus the first diverging cycle
        let (body, m) = corrupted_example1_netlist();
        let err = random_check_nir(&body, &m, 10, 0xC0FFEE).unwrap_err();
        let replay = replay_of(&err).expect("divergence carries replay info");
        assert_eq!(replay.seed, 0xC0FFEE);
        assert_eq!(replay.vectors, 10);
        if let SimError::Mismatch { cycle, .. } = &err {
            assert!(cycle.is_some(), "diverging cycle recorded");
        }
        let rendered = err.to_string();
        assert!(rendered.contains("0xc0ffee"), "{rendered}");
        // the replay arguments reproduce the same failure deterministically
        let again = random_check_nir(&body, &m, 10, 0xC0FFEE).unwrap_err();
        assert_eq!(err, again);
    }

    #[test]
    fn one_reference_checks_many_netlists_as_the_one_shot_checks_do() {
        let (body, corrupted) = corrupted_example1_netlist();
        let clk = ClockConstraint::from_period_ps(1600.0);
        let d = desc(&body, SchedulerConfig::sequential(clk, 1, 3));
        let bound = hls_bind::bind(&body, &d).expect("binds");
        let reference = Reference::random(&body, 10, 0xC0FFEE);
        for _ in 0..2 {
            assert_eq!(reference.check(&d), random_check(&body, &d, 10, 0xC0FFEE));
            assert_eq!(
                reference.check_bound(&d, &bound),
                random_check_bound(&body, &d, &bound, 10, 0xC0FFEE)
            );
            let err = reference.check_nir(&corrupted).unwrap_err();
            assert_eq!(replay_of(&err).map(|r| r.seed), Some(0xC0FFEE));
            assert_eq!(
                err,
                random_check_nir(&body, &corrupted, 10, 0xC0FFEE).unwrap_err()
            );
        }
    }

    #[test]
    fn netlist_divergences_blame_no_engine() {
        let (body, m) = corrupted_example1_netlist();
        let err = random_check_nir(&body, &m, 10, 7).unwrap_err();
        assert!(matches!(err, SimError::Mismatch { .. }), "{err}");
        let count = SimError::WriteCountMismatch {
            port: hls_ir::PortId::from_raw(1),
            port_name: "y".into(),
            expected: 3,
            actual: 2,
            replay: None,
        };
        for rendered in [err.to_string(), count.to_string()] {
            assert!(rendered.contains("expected"), "{rendered}");
            assert!(!rendered.contains("schedule"), "{rendered}");
        }
    }

    #[test]
    fn predicate_contended_slot_steers_to_the_true_branch() {
        // Two mutually exclusive multiplications share one multiplier in the
        // *same* control step; the operand mux select includes the
        // predicate. The loser captures the winner's value — the downstream
        // predicate-conversion mux must discard it, which the differential
        // against the (unshared) interpreter proves on both branch
        // polarities.
        use hls_ir::{Dfg, OpKind, Predicate, Signal};
        use hls_netlist::ScheduledOp;
        use hls_tech::{ResourceClass, ResourceSet, ResourceType};
        use std::collections::BTreeMap;

        let mut dfg = Dfg::new();
        let x = dfg.add_port("x", PortDirection::Input, 16);
        let y = dfg.add_port("y", PortDirection::Output, 16);
        let r = dfg.add_op(OpKind::Read(x), 16, vec![]);
        let c = dfg.add_op(
            OpKind::Cmp(hls_ir::CmpKind::Gt),
            1,
            vec![Signal::op_w(r, 16), Signal::constant(0, 16)],
        );
        let m1 = dfg.add_op(
            OpKind::Mul,
            16,
            vec![Signal::op_w(r, 16), Signal::constant(3, 16)],
        );
        let m2 = dfg.add_op(
            OpKind::Mul,
            16,
            vec![Signal::op_w(r, 16), Signal::constant(5, 16)],
        );
        dfg.op_mut(m1).predicate = Predicate::Cond(c);
        dfg.op_mut(m2).predicate = Predicate::NotCond(c);
        let sel = dfg.add_op(
            OpKind::Mux,
            16,
            vec![
                Signal::op_w(c, 1),
                Signal::op_w(m1, 16),
                Signal::op_w(m2, 16),
            ],
        );
        let w = dfg.add_op(OpKind::Write(y), 16, vec![Signal::op_w(sel, 16)]);
        let body = LinearBody::from_dfg("contended", dfg);

        let mut resources = ResourceSet::new();
        let mul = resources.add(ResourceType::binary(ResourceClass::Multiplier, 16, 16, 16));
        let mux = resources.add(ResourceType::mux(2, 16));
        let mut ops = BTreeMap::new();
        for (id, state, res) in [
            (r, 0, None),
            (c, 0, None),
            (m1, 1, Some(mul)),
            (m2, 1, Some(mul)),
            (sel, 2, Some(mux)),
            (w, 2, None),
        ] {
            ops.insert(
                id,
                ScheduledOp {
                    op: id,
                    state,
                    resource: res,
                },
            );
        }
        let d = ScheduleDesc {
            num_states: 3,
            ii: None,
            ops,
            resources,
        };
        let bound = hls_bind::bind(&body, &d).expect("steerable sharing binds");
        let fu = &bound.fus[bound.fu_of[m1].expect("m1 bound").index()];
        assert_eq!(fu.candidates(1).count(), 2, "contended slot");
        // a stimulus covering both polarities of x > 0
        let mut stim = Stimulus::random(&body.dfg, 16, 9);
        stim.row_mut(0).unwrap().insert(x, 7);
        stim.row_mut(1).unwrap().insert(x, -7);
        let report = check_bound(&body, &d, &bound, &stim).expect("bit-exact");
        assert!(report.writes_checked >= 16);
    }
}
