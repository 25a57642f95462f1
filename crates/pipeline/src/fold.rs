//! Folding a scheduled loop iteration into a pipeline with `LI / II` stages.

use hls_ir::{LinearBody, OpId};
use hls_sched::Schedule;
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

/// Errors detected while folding or verifying a pipelined schedule.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum FoldError {
    /// The schedule is not pipelined (no initiation interval).
    NotPipelined,
    /// Two operations that are not mutually exclusive share a resource on
    /// equivalent edges.
    SharedOnEquivalentEdges {
        /// First operation.
        a: OpId,
        /// Second operation.
        b: OpId,
    },
    /// An inter-iteration (loop-carried) dependence is violated by the
    /// overlap: the consumer would read the value before the producer of the
    /// earlier iteration has computed it.
    CausalityViolation {
        /// Producing operation (earlier iteration).
        from: OpId,
        /// Consuming operation.
        to: OpId,
        /// Dependence distance in iterations.
        distance: u32,
    },
}

impl fmt::Display for FoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FoldError::NotPipelined => write!(f, "schedule has no initiation interval"),
            FoldError::SharedOnEquivalentEdges { a, b } => {
                write!(
                    f,
                    "operations {a} and {b} share a resource on equivalent edges"
                )
            }
            FoldError::CausalityViolation { from, to, distance } => write!(
                f,
                "loop-carried dependence {from} → {to} (distance {distance}) violated by folding"
            ),
        }
    }
}

impl Error for FoldError {}

/// A folded pipelined loop: `II` physical states, each executing the union of
/// the operations of its equivalent original states, predicated by stage.
#[derive(Clone, Debug)]
pub struct FoldedPipeline {
    /// Initiation interval.
    pub ii: u32,
    /// Latency interval (original number of states).
    pub li: u32,
    /// Number of pipeline stages (`ceil(LI / II)`).
    pub stages: u32,
    /// For every folded state (0..II): the operations executing there,
    /// with the pipeline stage they belong to.
    pub folded_states: Vec<Vec<(OpId, u32)>>,
    /// Pipeline stage of each operation.
    pub stage_of: BTreeMap<OpId, u32>,
    /// Prologue length in cycles (time to fill the pipeline).
    pub prologue_cycles: u32,
    /// Epilogue length in cycles (time to drain the pipeline).
    pub epilogue_cycles: u32,
}

impl FoldedPipeline {
    /// Steady-state throughput: iterations per cycle.
    pub fn throughput(&self) -> f64 {
        1.0 / f64::from(self.ii.max(1))
    }

    /// Total cycles to execute `iterations` iterations, including prologue
    /// and epilogue: `LI + (iterations - 1) * II`.
    pub fn total_cycles(&self, iterations: u64) -> u64 {
        if iterations == 0 {
            return 0;
        }
        u64::from(self.li) + (iterations - 1) * u64::from(self.ii)
    }

    /// The iterations in flight at the given clock cycle (iterations are
    /// initiated every `II` cycles, back to back), as `(iteration, stage)`
    /// pairs — the live version of the paper's Figure 5 overlap picture.
    /// Cycle-accurate simulation replays exactly this occupancy.
    pub fn active_iterations(&self, cycle: u64) -> Vec<(u64, u32)> {
        let ii = u64::from(self.ii.max(1));
        let li = u64::from(self.li.max(1));
        let mut active = Vec::new();
        let first = cycle.saturating_sub(li - 1).div_ceil(ii);
        for k in first..=(cycle / ii) {
            let local = cycle - k * ii;
            if local < li {
                active.push((k, (local / ii) as u32));
            }
        }
        active
    }
}

/// Folds a pipelined schedule produced by [`hls_sched::Scheduler`] and
/// verifies the two conditions the paper states for correctness: no resource
/// sharing across equivalent edges, and preservation of inter-iteration
/// causality (every SCC inside one stage window of `II` states).
///
/// # Errors
/// Returns a [`FoldError`] describing the first violated condition.
pub fn fold_schedule(body: &LinearBody, schedule: &Schedule) -> Result<FoldedPipeline, FoldError> {
    let Some(ii) = schedule.desc.ii else {
        return Err(FoldError::NotPipelined);
    };
    let ii = ii.max(1);
    let li = schedule.latency.max(1);
    let stages = li.div_ceil(ii);

    // resource exclusivity across equivalent edges
    let mut by_folded_resource: HashMap<(u32, u32), Vec<OpId>> = HashMap::new();
    for (id, s) in &schedule.desc.ops {
        if let Some(r) = s.resource {
            by_folded_resource
                .entry((r.0, s.state % ii))
                .or_default()
                .push(*id);
        }
    }
    for ops in by_folded_resource.values() {
        for i in 0..ops.len() {
            for j in (i + 1)..ops.len() {
                let pa = &body.dfg.op(ops[i]).predicate;
                let pb = &body.dfg.op(ops[j]).predicate;
                // sharing across equivalent edges is only sound within one
                // control step: predicates of different stages guard
                // different iterations, so mutual exclusion alone does not
                // make the sharing realizable (mirrors the scheduler's busy
                // check and the binder's slot validation)
                let sa = schedule.desc.ops[&ops[i]].state;
                let sb = schedule.desc.ops[&ops[j]].state;
                if sa != sb || !pa.mutually_exclusive(pb) {
                    return Err(FoldError::SharedOnEquivalentEdges {
                        a: ops[i],
                        b: ops[j],
                    });
                }
            }
        }
    }

    // causality: for a loop-carried dependence from → to with distance d, the
    // consumer executes d*II cycles after the producer's iteration started;
    // it must not start before the producer finished:
    //   state(to) + d*II >= state(from)
    for dep in body.dfg.data_deps() {
        if dep.distance == 0 {
            continue;
        }
        let (Some(sf), Some(st)) = (
            schedule.desc.ops.get(&dep.from).map(|s| s.state),
            schedule.desc.ops.get(&dep.to).map(|s| s.state),
        ) else {
            continue;
        };
        if st + dep.distance * ii < sf {
            return Err(FoldError::CausalityViolation {
                from: dep.from,
                to: dep.to,
                distance: dep.distance,
            });
        }
    }

    let mut folded_states: Vec<Vec<(OpId, u32)>> = vec![Vec::new(); ii as usize];
    let mut stage_of = BTreeMap::new();
    for (id, s) in &schedule.desc.ops {
        let stage = s.state / ii;
        folded_states[(s.state % ii) as usize].push((*id, stage));
        stage_of.insert(*id, stage);
    }
    for v in &mut folded_states {
        v.sort();
    }

    Ok(FoldedPipeline {
        ii,
        li,
        stages,
        folded_states,
        stage_of,
        prologue_cycles: (stages - 1) * ii,
        epilogue_cycles: (stages - 1) * ii,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_frontend::designs;
    use hls_opt::linearize::prepare_innermost_loop;
    use hls_sched::{Scheduler, SchedulerConfig};
    use hls_tech::{ClockConstraint, TechLibrary};

    fn pipelined_example(ii: u32) -> (LinearBody, Schedule) {
        let mut cdfg = designs::paper_example1_cdfg().expect("elab");
        let body = prepare_innermost_loop(&mut cdfg).expect("prepare");
        let lib = TechLibrary::artisan_90nm_typical();
        let schedule = Scheduler::new(
            &body,
            &lib,
            SchedulerConfig::pipelined(ClockConstraint::from_period_ps(1600.0), ii, 8),
        )
        .run()
        .expect("schedulable");
        (body, schedule)
    }

    #[test]
    fn example2_folds_into_two_stages() {
        // Figure 5 of the paper: LI=3, II=2 → 2 stages.
        let (body, schedule) = pipelined_example(2);
        let folded = fold_schedule(&body, &schedule).expect("foldable");
        assert_eq!(folded.ii, 2);
        assert_eq!(folded.li, 3);
        assert_eq!(folded.stages, 2);
        assert_eq!(folded.folded_states.len(), 2);
        // every op belongs to exactly one folded state
        let total: usize = folded.folded_states.iter().map(Vec::len).sum();
        assert_eq!(total, schedule.desc.ops.len());
        assert!((folded.throughput() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn example3_ii1_single_folded_state() {
        let (body, schedule) = pipelined_example(1);
        let folded = fold_schedule(&body, &schedule).expect("foldable");
        assert_eq!(folded.ii, 1);
        assert_eq!(folded.folded_states.len(), 1);
        assert!((folded.throughput() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn total_cycles_accounts_for_prologue() {
        let (body, schedule) = pipelined_example(2);
        let folded = fold_schedule(&body, &schedule).expect("foldable");
        // LI + (n-1)*II
        assert_eq!(folded.total_cycles(1), u64::from(folded.li));
        assert_eq!(folded.total_cycles(100), u64::from(folded.li) + 99 * 2);
        assert_eq!(folded.total_cycles(0), 0);
    }

    #[test]
    fn sequential_schedule_cannot_be_folded() {
        let mut cdfg = designs::paper_example1_cdfg().expect("elab");
        let body = prepare_innermost_loop(&mut cdfg).expect("prepare");
        let lib = TechLibrary::artisan_90nm_typical();
        let schedule = Scheduler::new(
            &body,
            &lib,
            SchedulerConfig::sequential(ClockConstraint::from_period_ps(1600.0), 1, 3),
        )
        .run()
        .expect("schedulable");
        assert_eq!(
            fold_schedule(&body, &schedule).unwrap_err(),
            FoldError::NotPipelined
        );
    }

    #[test]
    fn active_iterations_tracks_fill_and_steady_state() {
        let (body, schedule) = pipelined_example(2);
        let folded = fold_schedule(&body, &schedule).expect("foldable");
        // LI=3, II=2: cycle 0 only iteration 0; cycle 2 overlaps it0 (stage 1)
        // with it1 (stage 0); steady state always has 2 iterations in flight
        assert_eq!(folded.active_iterations(0), vec![(0, 0)]);
        assert_eq!(folded.active_iterations(2), vec![(0, 1), (1, 0)]);
        // with LI=3 over II=2 the second stage carries a bubble every other
        // cycle: even cycles overlap two iterations, odd cycles one
        for cycle in 10..20u64 {
            let expected = if cycle % 2 == 0 { 2 } else { 1 };
            assert_eq!(
                folded.active_iterations(cycle).len(),
                expected,
                "cycle {cycle}"
            );
        }
        let _ = body;
    }

    #[test]
    fn stage_of_is_consistent_with_states() {
        let (body, schedule) = pipelined_example(2);
        let folded = fold_schedule(&body, &schedule).expect("foldable");
        for (op, s) in &schedule.desc.ops {
            assert_eq!(folded.stage_of[op], s.state / 2);
        }
        let _ = body;
    }
}
