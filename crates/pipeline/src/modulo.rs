//! A classical iterative-modulo-scheduling baseline (Rau, MICRO'94).
//!
//! The paper positions its approach against modulo scheduling, whose
//! "formulation is significantly more involved than that of traditional
//! scheduling and requires a specialized engine". This module provides a
//! compact height-priority IMS with a modulo reservation table and bounded
//! backtracking so the two approaches can be compared on the same loop bodies
//! (the `paper_example` example prints this baseline's II and latency on
//! Example 1).
//!
//! The baseline is intentionally *resource-count* driven (like the classical
//! formulation) and only checks chaining delays per operation, not full
//! register-to-register paths with sharing multiplexers — which is precisely
//! the methodological gap the paper's unified scheduler/binder closes.

use hls_ir::analysis::{alap_levels, asap_levels};
use hls_ir::{DenseOpMap, LinearBody, OpId};
use hls_tech::{Interner, ResourceClass, ResourceClassId, ResourceType, TechLibrary};
use std::collections::HashMap;

/// Result of the modulo-scheduling baseline.
#[derive(Clone, Debug)]
pub struct ModuloResult {
    /// Achieved initiation interval.
    pub ii: u32,
    /// Schedule time (cycle) of every operation within one iteration.
    pub time_of: HashMap<OpId, u32>,
    /// Number of iterations of the placement loop that were needed.
    pub attempts: u32,
    /// The interner giving meaning to the class ids of `resource_counts`.
    pub interner: Interner,
    /// Instances implied by the modulo reservation table occupancy, indexed
    /// by [`ResourceClassId`] (zero for classes the design never occupied).
    pub resource_counts: Vec<usize>,
}

impl ModuloResult {
    /// Latency (makespan) of one iteration.
    pub fn latency(&self) -> u32 {
        self.time_of
            .values()
            .copied()
            .max()
            .map(|t| t + 1)
            .unwrap_or(0)
    }

    /// Implied instance count of a resource class.
    pub fn count_of(&self, class: &ResourceClass) -> usize {
        self.interner
            .lookup_class(class)
            .map(|id| self.resource_counts[id.index()])
            .unwrap_or(0)
    }

    /// The non-zero per-class counts, in deterministic (interning) order.
    pub fn counts(&self) -> impl Iterator<Item = (ResourceClassId, &ResourceClass, usize)> {
        self.interner
            .iter_classes()
            .map(|(id, c)| (id, c, self.resource_counts[id.index()]))
            .filter(|&(_, _, n)| n > 0)
    }
}

/// Runs iterative modulo scheduling on a loop body, starting from `min_ii`
/// and increasing the II until a feasible schedule is found (or `max_ii` is
/// exceeded).
///
/// Returns `None` if no II up to `max_ii` produced a feasible placement.
pub fn modulo_schedule(
    body: &LinearBody,
    lib: &TechLibrary,
    clock_period_ps: f64,
    min_ii: u32,
    max_ii: u32,
    resource_limit: impl Fn(&ResourceClass) -> usize,
) -> Option<ModuloResult> {
    let asap = asap_levels(&body.dfg);
    let depth = asap.values().copied().max().unwrap_or(0);
    let alap = alap_levels(&body.dfg, depth);
    let n = body.dfg.num_ops();

    // Per-op precomputation: interned class, per-op delay, resource limit per
    // class, dense predecessor lists. Everything the placement loop touches
    // is a flat array lookup from here on.
    let mut interner = Interner::new();
    let mut class_of: DenseOpMap<Option<ResourceClassId>> = DenseOpMap::new(n);
    let mut delay_of: DenseOpMap<f64> = DenseOpMap::filled(n, 0.0);
    let mut own_delay_of: DenseOpMap<f64> = DenseOpMap::filled(n, 0.0);
    for (id, op) in body.dfg.iter_ops() {
        let ty = ResourceType::for_op(op);
        if let Some(t) = &ty {
            delay_of[id] = lib.delay_ps(t);
        }
        let class = ty
            .filter(|t| !matches!(t.class, ResourceClass::IoPort))
            .map(|t| t.class);
        if let Some(c) = &class {
            own_delay_of[id] = lib.delay_ps(&ResourceType::binary(
                c.clone(),
                op.max_width(),
                op.max_width(),
                op.width,
            ));
            class_of[id] = Some(interner.class_id(c));
        }
    }
    let num_classes = interner.num_classes();
    let limit_of: Vec<usize> = (0..num_classes)
        .map(|c| resource_limit(interner.class(ResourceClassId(c as u32))))
        .collect();
    let preds: DenseOpMap<Vec<(OpId, u32)>> =
        DenseOpMap::from_fn(n, |id| body.dfg.preds_with_carried(id));
    let carried_deps: Vec<(OpId, OpId, u32)> = body
        .dfg
        .data_deps()
        .into_iter()
        .filter(|d| d.distance > 0)
        .map(|d| (d.from, d.to, d.distance))
        .collect();

    // height-based priority: deeper ALAP first (critical ops first)
    let mut order: Vec<OpId> = body.dfg.op_ids().collect();
    order.sort_by_key(|id| (alap[id], *id));

    'ii_loop: for ii in min_ii.max(1)..=max_ii.max(1) {
        // modulo reservation table: one flat row per class,
        // indexed `class_id * ii + slot`
        let mut mrt: Vec<usize> = vec![0; num_classes * ii as usize];
        let mut time_of: DenseOpMap<Option<u32>> = DenseOpMap::new(n);
        let mut attempts = 0u32;

        for &op_id in &order {
            attempts += 1;
            let class = class_of[op_id];

            // earliest start honouring already-placed intra-iteration preds
            // (with a simple one-op-per-cycle chaining check against the
            // clock period)
            let mut earliest = 0u32;
            for &(p, dist) in &preds[op_id] {
                if dist > 0 {
                    continue;
                }
                if let Some(tp) = time_of[p] {
                    let pred_delay = delay_of[p];
                    let own_delay = own_delay_of[op_id];
                    // chain only if both fit in one cycle, else next cycle
                    let same_cycle_ok = pred_delay + own_delay + 190.0 < clock_period_ps;
                    earliest = earliest.max(if same_cycle_ok { tp } else { tp + 1 });
                }
            }

            // find a slot from `earliest` within a budget of II consecutive
            // candidate cycles (classical IMS search window)
            let mut placed = false;
            for t in earliest..earliest + ii.max(1) * 4 {
                if let Some(c) = class {
                    let key = c.index() * ii as usize + (t % ii) as usize;
                    if mrt[key] >= limit_of[c.index()] {
                        continue;
                    }
                    mrt[key] += 1;
                }
                time_of[op_id] = Some(t);
                placed = true;
                break;
            }
            if !placed {
                continue 'ii_loop;
            }
        }

        // verify loop-carried dependences: t(to) + d*II >= t(from) (+1 cycle)
        for &(from, to, distance) in &carried_deps {
            let (Some(tf), Some(tt)) = (time_of[from], time_of[to]) else {
                continue;
            };
            if tt + distance * ii < tf {
                continue 'ii_loop;
            }
        }

        let resource_counts: Vec<usize> = (0..num_classes)
            .map(|c| {
                (0..ii as usize)
                    .map(|slot| mrt[c * ii as usize + slot])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        return Some(ModuloResult {
            ii,
            time_of: time_of
                .iter()
                .filter_map(|(id, t)| t.map(|t| (id, t)))
                .collect(),
            attempts,
            interner,
            resource_counts,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_frontend::designs;
    use hls_opt::linearize::prepare_innermost_loop;

    fn example1() -> LinearBody {
        let mut cdfg = designs::paper_example1_cdfg().expect("elab");
        prepare_innermost_loop(&mut cdfg).expect("prepare")
    }

    #[test]
    fn modulo_baseline_schedules_example1() {
        let body = example1();
        let lib = TechLibrary::artisan_90nm_typical();
        let result = modulo_schedule(&body, &lib, 1600.0, 2, 8, |_| 2).expect("feasible");
        assert!(result.ii >= 2);
        assert_eq!(result.time_of.len(), body.dfg.num_ops());
        assert!(result.latency() >= 2);
        // dependences respected (intra-iteration, non-chained ordering)
        for dep in body.dfg.data_deps() {
            if dep.distance == 0 {
                assert!(result.time_of[&dep.from] <= result.time_of[&dep.to]);
            }
        }
    }

    #[test]
    fn tighter_resource_limit_never_lowers_ii() {
        let body = example1();
        let lib = TechLibrary::artisan_90nm_typical();
        let generous = modulo_schedule(&body, &lib, 1600.0, 1, 12, |_| 4).expect("feasible");
        let scarce = modulo_schedule(&body, &lib, 1600.0, 1, 12, |c| {
            if matches!(c, ResourceClass::Multiplier) {
                1
            } else {
                4
            }
        })
        .expect("feasible");
        assert!(scarce.ii >= generous.ii);
    }

    #[test]
    fn resource_counts_are_keyed_by_interned_class_ids() {
        let body = example1();
        let lib = TechLibrary::artisan_90nm_typical();
        let result = modulo_schedule(&body, &lib, 1600.0, 2, 8, |_| 2).expect("feasible");
        assert!(result.count_of(&ResourceClass::Multiplier) >= 1);
        // Example 1 divides nothing, so no divider class was interned
        assert_eq!(result.count_of(&ResourceClass::Divider), 0);
        // every reported id resolves through the owning interner
        for (id, class, n) in result.counts() {
            assert_eq!(result.interner.lookup_class(class), Some(id));
            assert!(n > 0);
            assert_eq!(result.resource_counts[id.index()], n);
        }
    }

    #[test]
    fn infeasible_window_returns_none() {
        let body = example1();
        let lib = TechLibrary::artisan_90nm_typical();
        // zero resources for multipliers → impossible
        assert!(modulo_schedule(&body, &lib, 1600.0, 1, 3, |_| 0).is_none());
    }
}
