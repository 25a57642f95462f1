//! The optimizer pipeline: the standard passes, run once each in order,
//! with per-pass statistics.

use crate::error::OptError;
use crate::passes::{
    CanonicalizeCompares, CommonSubexpression, ConstWidthReduction, ConstantFolding,
    DeadCodeElimination, Pass, StrengthReduction,
};
use crate::predicate::PredicateConversion;
use hls_ir::Cdfg;

/// Statistics of one optimizer run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassReport {
    /// `(pass name, number of changes)` in execution order.
    pub changes: Vec<(String, usize)>,
    /// Operation count before optimization.
    pub ops_before: usize,
    /// Operation count (non-free) after optimization.
    pub effective_ops_after: usize,
}

/// Runs the pipeline the synthesis flow uses — canonicalization, constant
/// folding, strength reduction, CSE, predicate conversion, constant width
/// reduction and finally dead-code elimination — once each, in order, and
/// validates the IR afterwards.
///
/// # Errors
/// Returns the first [`OptError`] raised by a pass or by post-run
/// validation.
pub fn optimize(cdfg: &mut Cdfg) -> Result<PassReport, OptError> {
    let passes: [&dyn Pass; 7] = [
        &CanonicalizeCompares,
        &ConstantFolding,
        &StrengthReduction,
        &CommonSubexpression,
        &PredicateConversion,
        &ConstWidthReduction,
        &DeadCodeElimination,
    ];
    let mut report = PassReport {
        ops_before: cdfg.dfg.num_ops(),
        ..PassReport::default()
    };
    for pass in passes {
        let n = pass.run(cdfg)?;
        report.changes.push((pass.name().to_string(), n));
    }
    cdfg.validate()?;
    report.effective_ops_after = crate::passes::effective_op_count(cdfg);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_frontend::designs;

    #[test]
    fn standard_pipeline_runs_on_example1() {
        let mut cdfg = designs::paper_example1_cdfg().expect("elaborate");
        let report = optimize(&mut cdfg).expect("passes");
        assert_eq!(report.ops_before, cdfg.dfg.num_ops());
        assert!(report.effective_ops_after <= report.ops_before);
        // predicate conversion must have predicated at least one op
        let pc = report
            .changes
            .iter()
            .find(|(name, _)| name == "predicate-conversion")
            .expect("predicate conversion in pipeline");
        assert!(pc.1 >= 1);
        assert!(cdfg.validate().is_ok());
    }
}
