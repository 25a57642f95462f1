//! The timed write trace of a simulated run.
//!
//! [`NirSim`](crate::NirSim) records every predicate-passing port write
//! with the clock cycle it happened in and the iteration it belongs to. The
//! differential checks compare the per-port `(iteration, value)` sequences
//! against the reference interpreter; the cycles show the throughput a
//! pipeline sustains.

use hls_ir::PortId;

/// One predicate-passing port write with its timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedWrite {
    /// Clock cycle of the write.
    pub cycle: u64,
    /// Iteration the write belongs to.
    pub iteration: u32,
    /// Written port.
    pub port: PortId,
    /// Written value (canonical signed reading at the port width).
    pub value: i64,
}

/// The port writes of a simulated run.
#[derive(Clone, Debug, Default)]
pub struct CycleTrace {
    /// Cycles per initiated iteration (II if pipelined, latency otherwise).
    pub cycles_per_iteration: u32,
    /// All predicate-passing writes, in time order.
    pub writes: Vec<TimedWrite>,
}

impl CycleTrace {
    /// The `(iteration, value)` write sequence of one port.
    pub fn port_writes(&self, port: PortId) -> Vec<(u32, i64)> {
        self.writes
            .iter()
            .filter(|w| w.port == port)
            .map(|w| (w.iteration, w.value))
            .collect()
    }

    /// The cycles at which `port` was written.
    pub fn write_cycles(&self, port: PortId) -> Vec<u64> {
        self.writes
            .iter()
            .filter(|w| w.port == port)
            .map(|w| w.cycle)
            .collect()
    }

    /// Steady-state intervals between consecutive writes of `port` —
    /// for a correctly folded pipeline every entry equals the initiation
    /// interval, i.e. the throughput is `1 / II`.
    pub fn write_intervals(&self, port: PortId) -> Vec<u64> {
        self.write_cycles(port)
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::differential::check;
    use crate::error::SimError;
    use crate::stimulus::Stimulus;
    use hls_bind::LowerError;
    use hls_frontend::designs;
    use hls_ir::OpKind;
    use hls_opt::linearize::prepare_innermost_loop;
    use hls_sched::{Scheduler, SchedulerConfig};
    use hls_tech::{ClockConstraint, TechLibrary};

    #[test]
    fn broken_schedule_is_caught_as_causality_violation() {
        let mut cdfg = designs::paper_example1_cdfg().expect("elab");
        let body = prepare_innermost_loop(&mut cdfg).expect("prepare");
        let lib = TechLibrary::artisan_90nm_typical();
        let clk = ClockConstraint::from_period_ps(1600.0);
        let mut desc = Scheduler::new(&body, &lib, SchedulerConfig::sequential(clk, 1, 3))
            .run()
            .expect("schedulable")
            .desc;
        // sabotage: move the port write before the multiplication feeding it
        let write = body
            .dfg
            .iter_ops()
            .find(|(_, op)| matches!(op.kind, OpKind::Write(_)))
            .map(|(id, _)| id)
            .unwrap();
        desc.ops.get_mut(&write).unwrap().state = 0;
        let stim = Stimulus::random(&body.dfg, 4, 9);
        // the write now samples its operand, within its own iteration,
        // before the producer has fired: no timed trace may come of it
        let err = check(&body, &desc, &stim);
        assert!(
            matches!(err, Err(SimError::Lowering(LowerError::AcausalRead { consumer, distance: 0, .. }))
                if consumer == write),
            "expected causality violation, got {err:?}"
        );
    }
}
