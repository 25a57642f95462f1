//! Error type shared by the simulation engines.

use hls_bind::LowerError;
use hls_ir::eval::EvalError;
use hls_ir::{IrError, OpId, PortId};
use std::error::Error;
use std::fmt;

/// How to reproduce a failed differential run: the exact
/// [`Stimulus::random`](crate::stimulus::Stimulus::random) arguments the
/// harness used. Attached by the `random_check*` wrappers so a CI failure
/// is replayable from its rendering alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayInfo {
    /// Seed the stimulus was generated from.
    pub seed: u64,
    /// Number of input vectors (iterations) generated.
    pub vectors: usize,
}

impl fmt::Display for ReplayInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay with Stimulus::random(dfg, {}, {:#x})",
            self.vectors, self.seed
        )
    }
}

/// Errors raised by the interpreter, the simulators or the differential
/// checker.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The loop body failed IR validation.
    InvalidBody(IrError),
    /// An operation could not be evaluated.
    Eval {
        /// The failing operation.
        op: OpId,
        /// The underlying evaluation error.
        source: EvalError,
    },
    /// The design calls a pre-designed IP block; simulating it would require
    /// a model of the block, which this reproduction does not ship.
    UnsupportedCall {
        /// The call operation.
        op: OpId,
        /// The IP block name.
        name: String,
    },
    /// The schedule has no placement for an operation another one depends on.
    Unscheduled {
        /// The unplaced operation.
        op: OpId,
    },
    /// An operation fired before one of its inputs was computed — the
    /// schedule violates a data (or write-predicate) dependence.
    Causality {
        /// The consuming operation.
        op: OpId,
        /// The producing operation whose value was not yet available.
        input: OpId,
        /// Iteration being executed.
        iteration: u32,
        /// Clock cycle at which the consumer fired.
        cycle: u64,
    },
    /// The reference interpreter and the timed engine under check disagree.
    Mismatch {
        /// Port on which the writes diverge.
        port: PortId,
        /// Port name, for readable reports.
        port_name: String,
        /// Index of the diverging write in the port's write sequence.
        index: usize,
        /// Iteration the diverging write belongs to.
        iteration: u32,
        /// Value the reference interpreter produced.
        expected: i64,
        /// Value the timed engine produced.
        actual: i64,
        /// Clock cycle of the diverging write in the timed engine, when the
        /// trace recorded one.
        cycle: Option<u64>,
        /// How to regenerate the failing stimulus, when the run came from a
        /// `random_check*` harness.
        replay: Option<ReplayInfo>,
    },
    /// The bound design could not be lowered to the netlist that
    /// [`check_bound`](crate::differential::check_bound) executes.
    Lowering(LowerError),
    /// The structural netlist could not be simulated: a combinational
    /// cycle, or a cell that failed to evaluate.
    Netlist {
        /// Index of the offending cell in the netlist.
        cell: u32,
        /// What went wrong.
        reason: String,
    },
    /// The two engines produced a different number of writes on a port.
    WriteCountMismatch {
        /// Port on which the counts diverge.
        port: PortId,
        /// Port name, for readable reports.
        port_name: String,
        /// Number of writes the reference interpreter produced.
        expected: usize,
        /// Number of writes the timed engine produced.
        actual: usize,
        /// How to regenerate the failing stimulus, when the run came from a
        /// `random_check*` harness.
        replay: Option<ReplayInfo>,
    },
}

impl SimError {
    /// Attaches replay information to the divergence variants (other
    /// variants are returned unchanged) — used by the `random_check*`
    /// wrappers, which know the seed the stimulus came from.
    #[must_use]
    pub fn with_replay(mut self, info: ReplayInfo) -> Self {
        match &mut self {
            SimError::Mismatch { replay, .. } | SimError::WriteCountMismatch { replay, .. } => {
                *replay = Some(info);
            }
            _ => {}
        }
        self
    }

    /// Replay information, when the error carries it.
    pub fn replay(&self) -> Option<ReplayInfo> {
        match self {
            SimError::Mismatch { replay, .. } | SimError::WriteCountMismatch { replay, .. } => {
                *replay
            }
            _ => None,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidBody(e) => write!(f, "invalid body: {e}"),
            SimError::Eval { op, source } => write!(f, "evaluating {op}: {source}"),
            SimError::UnsupportedCall { op, name } => {
                write!(f, "{op} calls IP block `{name}`, which has no simulation model")
            }
            SimError::Unscheduled { op } => write!(f, "{op} has no schedule placement"),
            SimError::Causality {
                op,
                input,
                iteration,
                cycle,
            } => write!(
                f,
                "{op} fired at cycle {cycle} (iteration {iteration}) before its input {input} was computed"
            ),
            SimError::Mismatch {
                port_name,
                index,
                iteration,
                expected,
                actual,
                cycle,
                replay,
                ..
            } => {
                write!(
                    f,
                    "write #{index} to `{port_name}` (iteration {iteration}): expected {expected}, got {actual}"
                )?;
                if let Some(cycle) = cycle {
                    write!(f, " at cycle {cycle}")?;
                }
                if let Some(replay) = replay {
                    write!(f, "; {replay}")?;
                }
                Ok(())
            }
            SimError::Lowering(e) => write!(f, "lowering the bound design: {e}"),
            SimError::Netlist { cell, reason } => {
                write!(f, "netlist cell %{cell}: {reason}")
            }
            SimError::WriteCountMismatch {
                port_name,
                expected,
                actual,
                replay,
                ..
            } => {
                write!(
                    f,
                    "port `{port_name}`: expected {expected} writes, got {actual}"
                )?;
                if let Some(replay) = replay {
                    write!(f, "; {replay}")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::InvalidBody(e) => Some(e),
            SimError::Eval { source, .. } => Some(source),
            SimError::Lowering(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IrError> for SimError {
    fn from(e: IrError) -> Self {
        SimError::InvalidBody(e)
    }
}
