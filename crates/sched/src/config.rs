//! Scheduler configuration.

use hls_tech::ClockConstraint;

/// Pipelining request: the designer-specified initiation interval.
///
/// Following the paper (Section V, condition 1) the II is always given by the
/// designer; the latency interval LI is chosen by the tool within the latency
/// bounds of the configuration, starting from `II + 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineRequest {
    /// Initiation interval in clock cycles (must be ≥ 1).
    pub ii: u32,
}

impl PipelineRequest {
    /// Creates a request with the given initiation interval.
    ///
    /// # Panics
    /// Panics if `ii` is zero.
    pub fn new(ii: u32) -> Self {
        assert!(ii >= 1, "initiation interval must be at least 1");
        PipelineRequest { ii }
    }
}

/// Region decomposition options (see [`crate::region`]).
///
/// When enabled, the scheduler condenses the DFG's SCC graph into regions of
/// roughly `target_ops` operations each, schedules them separately with
/// registered cut-value interfaces, and re-passes only dirty regions after a
/// relaxation action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionOptions {
    /// Rough number of operations per region. Regions never split an SCC, so
    /// a single SCC larger than the target becomes a region of its own.
    pub target_ops: usize,
}

impl RegionOptions {
    /// Creates region options with the given target region size (clamped to
    /// at least one operation per region).
    pub fn new(target_ops: usize) -> Self {
        RegionOptions {
            target_ops: target_ops.max(1),
        }
    }
}

/// Full configuration of a scheduling run.
#[derive(Clone, Debug, PartialEq)]
pub struct SchedulerConfig {
    /// Target clock.
    pub clock: ClockConstraint,
    /// Minimum loop latency (states) the designer allows.
    pub min_latency: u32,
    /// Maximum loop latency (states) the designer allows.
    pub max_latency: u32,
    /// Pipelining request, if any.
    pub pipeline: Option<PipelineRequest>,
    /// Maximum number of scheduling passes before giving up with
    /// [`SchedError::BudgetExhausted`](crate::SchedError::BudgetExhausted),
    /// which carries the last pass's diagnostics.
    pub max_passes: u32,
    /// Whether the relaxation engine may move whole SCCs to later pipeline
    /// stages when facing negative slack (the paper's Table 4 ablates this).
    pub allow_scc_move: bool,
    /// Whether the relaxation engine may add resources beyond the initial
    /// lower-bound set.
    pub allow_add_resources: bool,
    /// Region decomposition: `None` (the default) schedules the body as one
    /// monolithic region; `Some` splits it along SCC-condensation cuts so
    /// large designs re-pass only dirty regions (and independent region
    /// groups run on multiple cores).
    pub region_decomposition: Option<RegionOptions>,
}

impl SchedulerConfig {
    /// Configuration for a sequential (non-pipelined) loop.
    pub fn sequential(clock: ClockConstraint, min_latency: u32, max_latency: u32) -> Self {
        SchedulerConfig {
            clock,
            min_latency: min_latency.max(1),
            max_latency: max_latency.max(min_latency.max(1)),
            pipeline: None,
            max_passes: 64,
            allow_scc_move: true,
            allow_add_resources: true,
            region_decomposition: None,
        }
    }

    /// Configuration for a pipelined loop with the given initiation interval.
    /// The latency interval explored starts at `II + 1` (the minimum for
    /// pipelined execution) and may grow up to `max_latency`.
    pub fn pipelined(clock: ClockConstraint, ii: u32, max_latency: u32) -> Self {
        let min = ii + 1;
        SchedulerConfig {
            clock,
            min_latency: min,
            max_latency: max_latency.max(min),
            pipeline: Some(PipelineRequest::new(ii)),
            max_passes: 64,
            allow_scc_move: true,
            allow_add_resources: true,
            region_decomposition: None,
        }
    }

    /// Enables region-decomposed scheduling with the given target region
    /// size (see [`RegionOptions`] and [`crate::region`]).
    pub fn with_region_decomposition(mut self, target_ops: usize) -> Self {
        self.region_decomposition = Some(RegionOptions::new(target_ops));
        self
    }

    /// Disables the timing-driven SCC move action (used by the Table 4
    /// ablation experiment).
    pub fn without_scc_move(mut self) -> Self {
        self.allow_scc_move = false;
        self
    }

    /// The initiation interval in force: the requested II for pipelined
    /// loops, otherwise the latency (a sequential loop starts a new iteration
    /// only when the previous one finished).
    pub fn ii_or(&self, latency: u32) -> u32 {
        self.pipeline.map(|p| p.ii).unwrap_or(latency).max(1)
    }

    /// Whether any sharing of resources/registers is possible. With `II = 1`
    /// every control step is equivalent to every other, so nothing can be
    /// shared.
    pub fn sharing_possible(&self) -> bool {
        self.pipeline.map(|p| p.ii > 1).unwrap_or(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clk() -> ClockConstraint {
        ClockConstraint::from_period_ps(1600.0)
    }

    #[test]
    fn sequential_defaults() {
        let c = SchedulerConfig::sequential(clk(), 1, 3);
        assert_eq!(c.min_latency, 1);
        assert_eq!(c.max_latency, 3);
        assert!(c.pipeline.is_none());
        assert!(c.sharing_possible());
        assert_eq!(c.ii_or(3), 3);
    }

    #[test]
    fn pipelined_latency_starts_above_ii() {
        let c = SchedulerConfig::pipelined(clk(), 2, 6);
        assert_eq!(c.min_latency, 3);
        assert_eq!(c.ii_or(4), 2);
        assert!(c.sharing_possible());
        let c1 = SchedulerConfig::pipelined(clk(), 1, 4);
        assert_eq!(c1.min_latency, 2);
        assert!(!c1.sharing_possible(), "II=1 makes all edges equivalent");
    }

    #[test]
    fn without_scc_move_flag() {
        let c = SchedulerConfig::pipelined(clk(), 2, 6).without_scc_move();
        assert!(!c.allow_scc_move);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_ii_panics() {
        let _ = PipelineRequest::new(0);
    }

    #[test]
    fn max_latency_clamped_to_min() {
        let c = SchedulerConfig::sequential(clk(), 5, 2);
        assert!(c.max_latency >= c.min_latency);
    }
}
