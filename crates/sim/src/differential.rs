//! Differential verification: the reference interpreter and a timed
//! engine — the per-op schedule simulator or the netlist simulator — must
//! agree bit-for-bit.
//!
//! The observable behaviour of a design is its sequence of predicate-passing
//! port writes. [`check`], [`check_bound`] and [`check_nir`] run the same
//! stimulus through the interpreter and a timed engine and compare, per
//! output port, the full `(iteration, value)` write sequence. Any
//! disagreement — a wrong value, a missing or spurious write — is a bug in
//! the scheduler, the binder, the lowering, the pipeliner or the semantics
//! themselves, reported with enough context to reproduce.

use crate::cycle::ScheduleSim;
use crate::error::SimError;
use crate::interp::Interpreter;
use crate::stimulus::Stimulus;
use hls_bind::RtlStyle;
use hls_ir::{LinearBody, PortDirection};
use hls_netlist::ScheduleDesc;
use hls_nir::NirModule;

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

/// Runs `stimulus` through the interpreter and the cycle-accurate simulator
/// of `desc` and asserts bit-exact agreement of every output port's write
/// sequence.
///
/// # Errors
/// [`SimError::Mismatch`] / [`SimError::WriteCountMismatch`] on divergence,
/// plus any execution error of the two engines.
pub fn check(
    body: &LinearBody,
    desc: &ScheduleDesc,
    stimulus: &Stimulus,
) -> Result<DifferentialReport, SimError> {
    let timed = ScheduleSim::new(body, desc)?.run(stimulus)?;
    compare(body, stimulus, &timed)
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
    bound: &hls_bind::BoundDesign,
    stimulus: &Stimulus,
) -> Result<DifferentialReport, SimError> {
    let netlist =
        hls_bind::lower(body, desc, bound, RtlStyle::SharedFu).map_err(SimError::Lowering)?;
    check_nir(body, &netlist, stimulus)
}

/// Runs `stimulus` through the interpreter and the **netlist** simulator —
/// the lowered cell-level hardware, controller and register chains included —
/// and asserts bit-exact agreement of every output port's write sequence.
/// This is the deepest check in the flow: it executes the same object the
/// Verilog printer serializes, so passing it proves the lowering (and any
/// rewrite passes applied to the netlist) correct by execution.
///
/// # Errors
/// Same contract as [`check`], plus [`SimError::Netlist`] when the netlist
/// itself cannot be simulated.
pub fn check_nir(
    body: &LinearBody,
    netlist: &NirModule,
    stimulus: &Stimulus,
) -> Result<DifferentialReport, SimError> {
    let timed = crate::nir::NirSim::new(netlist)?.run(stimulus)?;
    compare(body, stimulus, &timed)
}

/// Compares a timed engine's write trace against the reference interpreter.
fn compare(
    body: &LinearBody,
    stimulus: &Stimulus,
    timed: &crate::cycle::CycleTrace,
) -> Result<DifferentialReport, SimError> {
    let reference = Interpreter::new(body)?.run(stimulus)?;
    let mut report = DifferentialReport {
        iterations: stimulus.iterations() as u32,
        ports: 0,
        writes_checked: 0,
    };
    for (port, decl) in body.dfg.iter_ports() {
        if decl.direction != PortDirection::Output {
            continue;
        }
        report.ports += 1;
        let expected = reference.port_writes(port);
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
    let stimulus = Stimulus::random(&body.dfg, vectors, seed);
    check(body, desc, &stimulus).map_err(|e| e.with_replay(replay(seed, vectors)))
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
    bound: &hls_bind::BoundDesign,
    vectors: usize,
    seed: u64,
) -> Result<DifferentialReport, SimError> {
    let stimulus = Stimulus::random(&body.dfg, vectors, seed);
    check_bound(body, desc, bound, &stimulus).map_err(|e| e.with_replay(replay(seed, vectors)))
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
    let stimulus = Stimulus::random(&body.dfg, vectors, seed);
    check_nir(body, netlist, &stimulus).map_err(|e| e.with_replay(replay(seed, vectors)))
}

fn replay(seed: u64, vectors: usize) -> crate::error::ReplayInfo {
    crate::error::ReplayInfo { seed, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_frontend::designs;
    use hls_opt::linearize::prepare_innermost_loop;
    use hls_sched::{Scheduler, SchedulerConfig};
    use hls_tech::{ClockConstraint, TechLibrary};

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
        // sabotage: delay the write by one state so it lands in a state the
        // FSM only reaches in the next iteration slot — the write sequence
        // shifts and the differential must notice
        let write = body
            .dfg
            .iter_ops()
            .find(|(_, op)| matches!(op.kind, hls_ir::OpKind::Write(_)))
            .map(|(id, _)| id)
            .unwrap();
        d.ops.get_mut(&write).unwrap().state = 0;
        let err = random_check(&body, &d, 10, 1).unwrap_err();
        assert!(
            matches!(err, SimError::Causality { .. } | SimError::Mismatch { .. }),
            "{err}"
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
        let replay = err.replay().expect("divergence carries replay info");
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
        let fu = bound.fu_of(m1).expect("m1 bound");
        assert_eq!(fu.candidates(1).count(), 2, "contended slot");
        // a stimulus covering both polarities of x > 0
        let mut stim = Stimulus::random(&body.dfg, 16, 9);
        stim.row_mut(0).unwrap().insert(x, 7);
        stim.row_mut(1).unwrap().insert(x, -7);
        let report = check_bound(&body, &d, &bound, &stim).expect("bit-exact");
        assert!(report.writes_checked >= 16);
    }
}
