//! Property-based end-to-end tests: randomly generated designs must always
//! produce schedules that respect dependencies, resource exclusivity and the
//! clock constraint — and, when scheduled region by region, the registered
//! cut rule.
use hls::explore::{synthetic_design, DesignClass};
use hls::ir::analysis::sccs;
use hls::sched::{RegionPlan, Scheduler, SchedulerConfig};
use hls::tech::{ClockConstraint, TechLibrary};
use proptest::prelude::*;

fn class_strategy() -> impl Strategy<Value = DesignClass> {
    prop_oneof![
        Just(DesignClass::Filter),
        Just(DesignClass::Fft),
        Just(DesignClass::ImageKernel),
    ]
}

/// No decomposition, or a region target from one op per region up.
fn region_strategy() -> impl Strategy<Value = Option<usize>> {
    prop_oneof![Just(None), Just(Some(1)), Just(Some(4)), Just(Some(16))]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    #[test]
    fn random_designs_schedule_and_respect_invariants(
        class in class_strategy(),
        ops in 40usize..160,
        seed in 0u64..1000,
        pipelined in any::<bool>(),
        region in region_strategy(),
    ) {
        let body = synthetic_design(class, ops, seed);
        prop_assert!(body.validate().is_ok());
        let lib = TechLibrary::artisan_90nm_typical();
        let clock = ClockConstraint::from_period_ps(1800.0);
        let mut config = if pipelined {
            SchedulerConfig::pipelined(clock, 2, 32)
        } else {
            SchedulerConfig::sequential(clock, 1, 32)
        };
        if let Some(target) = region {
            config = config.with_region_decomposition(target);
        }
        let Ok(schedule) = Scheduler::new(&body, &lib, config).run() else {
            // an over-constrained random instance is acceptable; nothing to check
            return Ok(());
        };
        // dependencies respected
        for dep in body.dfg.data_deps() {
            if dep.distance == 0 {
                prop_assert!(schedule.desc.state_of(dep.from) <= schedule.desc.state_of(dep.to));
            }
        }
        // the cut rule: a value crossing regions is registered, so its
        // consumer sits in a strictly later state
        if let Some(target) = region {
            let plan = RegionPlan::build(&body, &sccs(&body.dfg), target);
            for dep in body.dfg.data_deps() {
                let (from, to) = (dep.from.index(), dep.to.index());
                if dep.distance == 0 && plan.region_of[from] != plan.region_of[to] {
                    prop_assert!(
                        schedule.desc.state_of(dep.from) < schedule.desc.state_of(dep.to),
                        "{dep:?} crosses regions within one state"
                    );
                }
            }
        }
        // no non-exclusive double booking per folded state
        let ii = schedule.desc.ii.unwrap_or(schedule.latency).max(1);
        let mut used: std::collections::HashMap<(u32, u32), Vec<hls::ir::OpId>> = std::collections::HashMap::new();
        for (id, s) in &schedule.desc.ops {
            if let Some(r) = s.resource {
                used.entry((r.0, s.state % ii)).or_default().push(*id);
            }
        }
        for ops in used.values() {
            for i in 0..ops.len() {
                for j in (i + 1)..ops.len() {
                    let a = &body.dfg.op(ops[i]).predicate;
                    let b = &body.dfg.op(ops[j]).predicate;
                    prop_assert!(a.mutually_exclusive(b));
                }
            }
        }
        // positive slack
        prop_assert!(schedule.min_slack_ps >= 0.0);
    }
}
