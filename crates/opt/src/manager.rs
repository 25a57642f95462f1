//! Pass manager: runs a configurable pipeline of optimization passes and
//! collects per-pass statistics.

use crate::error::OptError;
use crate::passes::{
    CanonicalizeCompares, CommonSubexpression, ConstWidthReduction, ConstantFolding,
    DeadCodeElimination, Pass, StrengthReduction,
};
use crate::predicate::PredicateConversion;
use hls_ir::Cdfg;

/// Statistics of one pass-manager run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassReport {
    /// `(pass name, number of changes)` in execution order.
    pub changes: Vec<(String, usize)>,
    /// Operation count before optimization.
    pub ops_before: usize,
    /// Operation count (non-free) after optimization.
    pub effective_ops_after: usize,
}

/// Runs a sequence of [`Pass`]es over a CDFG.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// Creates an empty pass manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard pipeline used by the synthesis flow: canonicalization,
    /// constant folding, strength reduction, CSE, predicate conversion,
    /// constant width reduction and finally dead-code elimination.
    pub fn standard() -> Self {
        let mut pm = Self::new();
        pm.add(CanonicalizeCompares)
            .add(ConstantFolding)
            .add(StrengthReduction)
            .add(CommonSubexpression)
            .add(PredicateConversion)
            .add(ConstWidthReduction)
            .add(DeadCodeElimination);
        pm
    }

    /// Appends a pass to the pipeline.
    pub fn add<P: Pass + 'static>(&mut self, pass: P) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Runs every pass once, in order, validating the IR afterwards.
    ///
    /// # Errors
    /// Returns the first [`OptError`] raised by a pass or by post-run
    /// validation.
    pub fn run(&self, cdfg: &mut Cdfg) -> Result<PassReport, OptError> {
        let ops_before = cdfg.dfg.num_ops();
        let mut report = PassReport {
            ops_before,
            ..PassReport::default()
        };
        for pass in &self.passes {
            let n = pass.run(cdfg)?;
            report.changes.push((pass.name().to_string(), n));
        }
        cdfg.validate()?;
        report.effective_ops_after = crate::passes::effective_op_count(cdfg);
        Ok(report)
    }
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassManager")
            .field(
                "passes",
                &self.passes.iter().map(|p| p.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_frontend::designs;

    #[test]
    fn standard_pipeline_runs_on_example1() {
        let mut cdfg = designs::paper_example1_cdfg().expect("elaborate");
        let report = PassManager::standard().run(&mut cdfg).expect("passes");
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

    #[test]
    fn debug_lists_pass_names() {
        let pm = PassManager::standard();
        let dbg = format!("{pm:?}");
        assert!(dbg.contains("constant-folding"));
        assert!(dbg.contains("dead-code-elimination"));
    }
}
