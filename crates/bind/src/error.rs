//! Errors detected while binding a schedule onto shared hardware.

use hls_ir::OpId;
use hls_tech::ResourceInstanceId;
use std::error::Error;
use std::fmt;

/// Errors the binder reports when a schedule cannot be realized as a shared
/// datapath, and that [`lower`](fn@crate::lower) reports for a
/// [`BoundDesign`] `bind` could not have produced.
///
/// Every variant names the first offending operation(s) and functional unit,
/// so a failing design can be traced back to the scheduling decision that
/// produced it.
///
/// [`BoundDesign`]: crate::BoundDesign
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BindError {
    /// An operation that occupies a resource has no schedule entry.
    Unscheduled {
        /// The unscheduled operation.
        op: OpId,
    },
    /// An operation is placed on an instance the schedule did not allocate,
    /// or on a unit that is not stored at its own instance index.
    UnknownInstance {
        /// The operation.
        op: OpId,
        /// The instance it is placed on.
        instance: ResourceInstanceId,
    },
    /// A bound design's per-operation map and its units disagree: `fu_of`
    /// names a unit that does not list the operation (or one the body does
    /// not have), a unit lists an operation `fu_of` places elsewhere, or the
    /// unit's entry for it is out of steering-priority order or disagrees
    /// with the schedule.
    UnitMismatch {
        /// The operation.
        op: OpId,
        /// The unit that `fu_of` or the entry names.
        instance: ResourceInstanceId,
    },
    /// The scheduler assigned an operation to an instance whose type cannot
    /// implement it.
    IncompatibleBinding {
        /// The operation.
        op: OpId,
        /// The assigned instance.
        instance: ResourceInstanceId,
    },
    /// Two operations share a functional unit in the same folded control
    /// step without being steerable apart: they execute in different
    /// (unfolded) control steps of a folded pipeline, or their predicates
    /// are not mutually exclusive.
    SlotConflict {
        /// First operation (lower id).
        a: OpId,
        /// Second operation.
        b: OpId,
        /// The shared instance.
        instance: ResourceInstanceId,
        /// The folded control step both occupy.
        folded_state: u32,
    },
    /// A functional unit is shared under predicates whose condition
    /// operation is scheduled *after* the shared control step — the operand
    /// mux would have to select on a value that does not exist yet.
    UnsteerableSlot {
        /// The predicated operation.
        op: OpId,
        /// The condition operation scheduled too late.
        condition: OpId,
        /// The shared instance.
        instance: ResourceInstanceId,
        /// The control step of the shared slot.
        state: u32,
    },
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::Unscheduled { op } => {
                write!(f, "operation {op} occupies a resource but is unscheduled")
            }
            BindError::UnknownInstance { op, instance } => write!(
                f,
                "operation {op} is placed on instance {instance}, which the schedule did not allocate"
            ),
            BindError::UnitMismatch { op, instance } => write!(
                f,
                "operation {op} and unit {instance} disagree: fu_of, the unit's operation list \
                 and the schedule must name the same placement"
            ),
            BindError::IncompatibleBinding { op, instance } => write!(
                f,
                "operation {op} is bound to instance {instance}, which cannot implement it"
            ),
            BindError::SlotConflict {
                a,
                b,
                instance,
                folded_state,
            } => write!(
                f,
                "operations {a} and {b} cannot share instance {instance} in folded step {folded_state}"
            ),
            BindError::UnsteerableSlot {
                op,
                condition,
                instance,
                state,
            } => write!(
                f,
                "operation {op} shares instance {instance} in step {state} but its steering \
                 condition {condition} is scheduled later"
            ),
        }
    }
}

impl Error for BindError {}
