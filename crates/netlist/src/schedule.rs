//! Schedule description, datapath extraction, and area / power estimation.

use hls_ir::{LinearBody, OpId, OpKind};
use hls_tech::{
    ClockConstraint, ImplVariant, ResourceInstanceId, ResourceSet, ResourceType, TechLibrary,
};
use std::collections::{BTreeMap, HashMap};

/// One scheduled and bound operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledOp {
    /// The operation.
    pub op: OpId,
    /// Control step (state) the operation executes in, within the loop body
    /// schedule (before folding for pipelined loops).
    pub state: u32,
    /// The resource instance it is bound to, if it occupies one (free
    /// operations such as constants have no binding).
    pub resource: Option<ResourceInstanceId>,
}

/// The result of scheduling one loop body: state count, bindings and the
/// allocated resource set, plus the initiation interval when pipelined.
#[derive(Clone, Debug, Default)]
pub struct ScheduleDesc {
    /// Number of control steps of the (unfolded) schedule — the latency
    /// interval LI for pipelined loops.
    pub num_states: u32,
    /// Initiation interval; `None` for a sequential (non-pipelined) schedule.
    pub ii: Option<u32>,
    /// Per-operation placement, keyed by operation.
    pub ops: BTreeMap<OpId, ScheduledOp>,
    /// The allocated resources.
    pub resources: ResourceSet,
}

impl ScheduleDesc {
    /// State of an operation.
    ///
    /// # Panics
    /// Panics if the operation is not scheduled.
    pub fn state_of(&self, op: OpId) -> u32 {
        self.ops[&op].state
    }

    /// Resource binding of an operation, if any.
    pub fn resource_of(&self, op: OpId) -> Option<ResourceInstanceId> {
        self.ops.get(&op).and_then(|s| s.resource)
    }

    /// Effective cycles per loop iteration: the initiation interval when
    /// pipelined, otherwise the full latency.
    pub fn cycles_per_iteration(&self) -> u32 {
        self.ii.unwrap_or(self.num_states).max(1)
    }

    /// Operations scheduled in a given state, in id order.
    pub fn ops_in_state(&self, state: u32) -> Vec<OpId> {
        self.ops
            .values()
            .filter(|s| s.state == state)
            .map(|s| s.op)
            .collect()
    }

    /// Number of *physical* FSM states after folding: the initiation
    /// interval for pipelined schedules, the full latency otherwise. This is
    /// the modulus of the controller's state counter in the emitted RTL and
    /// in the netlist simulator.
    pub fn fold_states(&self) -> u32 {
        // numerically the iteration cadence: the FSM wraps once per
        // initiated iteration
        self.cycles_per_iteration()
    }

    /// Clock cycle at which `op` fires while executing iteration
    /// `iteration`, assuming iteration `k` is initiated at cycle
    /// `k * cycles_per_iteration()` (back-to-back iterations). Returns
    /// `None` for unscheduled operations.
    pub fn fire_cycle(&self, op: OpId, iteration: u64) -> Option<u64> {
        self.ops
            .get(&op)
            .map(|s| iteration * u64::from(self.cycles_per_iteration()) + u64::from(s.state))
    }

    /// Number of pipeline stages (`ceil(LI / II)`); 1 for sequential.
    pub fn num_stages(&self) -> u32 {
        match self.ii {
            Some(ii) if ii > 0 => self.num_states.div_ceil(ii),
            _ => 1,
        }
    }

    /// Renders the schedule as a state × resource table, like the paper's
    /// Table 2.
    pub fn to_table(&self, body: &LinearBody) -> String {
        let mut out = String::new();
        out.push_str("state | bindings\n");
        for state in 0..self.num_states {
            let mut cells = Vec::new();
            for op in self.ops_in_state(state) {
                let name = body.dfg.op(op).display_name();
                if body.dfg.op(op).kind.is_free() {
                    continue;
                }
                let res = self
                    .resource_of(op)
                    .map(|r| self.resources.instance(r).name.clone())
                    .unwrap_or_else(|| "-".to_string());
                cells.push(format!("{name}→{res}"));
            }
            out.push_str(&format!("s{}    | {}\n", state + 1, cells.join(", ")));
        }
        out
    }
}

/// Area breakdown of an implementation, in library area units.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AreaBreakdown {
    /// Functional units.
    pub functional: f64,
    /// Sharing multiplexers (FU inputs and register inputs).
    pub muxes: f64,
    /// Registers.
    pub registers: f64,
    /// FSM / controller.
    pub controller: f64,
}

impl AreaBreakdown {
    /// Total area.
    pub fn total(&self) -> f64 {
        self.functional + self.muxes + self.registers + self.controller
    }
}

/// Power breakdown of an implementation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PowerBreakdown {
    /// Dynamic (switching) power in microwatts.
    pub dynamic_uw: f64,
    /// Leakage power in microwatts.
    pub leakage_uw: f64,
}

impl PowerBreakdown {
    /// Total power in microwatts.
    pub fn total_uw(&self) -> f64 {
        self.dynamic_uw + self.leakage_uw
    }
}

/// The structural datapath extracted from a schedule: functional units with
/// their input-sharing multiplexers, storage registers and the controller.
#[derive(Clone, Debug)]
pub struct Datapath {
    /// Per resource instance: number of operations sharing it.
    pub ops_per_resource: HashMap<ResourceInstanceId, usize>,
    /// Registers allocated: `(producing op, width, copies)` — `copies` > 1
    /// when the value must survive several pipeline stages.
    pub registers: Vec<(OpId, u16, u32)>,
    /// Area breakdown.
    pub area: AreaBreakdown,
    /// Power breakdown.
    pub power: PowerBreakdown,
}

impl Datapath {
    /// Builds the datapath implied by a schedule and estimates its area and
    /// power, using the *fast* implementation variant for resources on
    /// timing-critical states and the *small* variant when slack allows.
    ///
    /// `slack_fraction` is the fraction of the clock period left unused on
    /// the most critical path (0.0 = critical, used to pick fast cells
    /// everywhere; larger values let non-critical units shrink).
    pub fn from_schedule(
        body: &LinearBody,
        sched: &ScheduleDesc,
        lib: &TechLibrary,
        clock: ClockConstraint,
        slack_fraction: f64,
    ) -> Datapath {
        // --- sharing structure -------------------------------------------------
        let mut ops_per_resource: HashMap<ResourceInstanceId, usize> = HashMap::new();
        for s in sched.ops.values() {
            if let Some(r) = s.resource {
                *ops_per_resource.entry(r).or_insert(0) += 1;
            }
        }

        // --- functional unit area ---------------------------------------------
        // Units whose class is fast enough to afford the small variant under
        // the given slack use it; otherwise the fast variant.
        let mut functional = 0.0;
        let mut fu_leakage = 0.0;
        for inst in sched.resources.iter() {
            let fast = lib.characterize_variant(&inst.ty, ImplVariant::Fast);
            let small = lib.characterize_variant(&inst.ty, ImplVariant::Small);
            let usable = clock.period_ps() * (1.0 - slack_fraction.clamp(0.0, 0.9));
            let chosen = if small.delay_ps <= usable * 0.75 {
                small
            } else {
                fast
            };
            functional += chosen.area;
            fu_leakage += chosen.leakage_uw;
        }

        // --- sharing multiplexers ----------------------------------------------
        // FU input muxes: one n-way mux per input port of every shared unit.
        let mut muxes = 0.0;
        for (res, &n_ops) in &ops_per_resource {
            if n_ops >= 2 {
                let ty = &sched.resources.instance(*res).ty;
                let ports = ty.in_widths.len().max(1);
                for w in ty.in_widths.iter().take(ports) {
                    muxes += lib.mux_area(n_ops.min(255) as u8, *w);
                }
            }
        }

        // --- registers ----------------------------------------------------------
        // A value needs storage if any consumer reads it in a later state or a
        // later iteration; it needs one copy per stage boundary it crosses.
        let mut registers_list: Vec<(OpId, u16, u32)> = Vec::new();
        let mut register_area = 0.0;
        let mut writers_per_reg = 0usize;
        let consumers: HashMap<OpId, Vec<(OpId, u32)>> = {
            let mut m: HashMap<OpId, Vec<(OpId, u32)>> = HashMap::new();
            for (id, op) in body.dfg.iter_ops() {
                for sig in &op.inputs {
                    if let Some(p) = sig.producer() {
                        m.entry(p).or_default().push((id, sig.distance));
                    }
                }
            }
            m
        };
        for (id, op) in body.dfg.iter_ops() {
            if op.kind.is_free() && !matches!(op.kind, OpKind::Pass) {
                continue;
            }
            let Some(sid) = sched.ops.get(&id) else {
                continue;
            };
            let mut max_span = 0u32;
            let mut needed = false;
            if let Some(cons) = consumers.get(&id) {
                for (c, distance) in cons {
                    let Some(cs) = sched.ops.get(c) else { continue };
                    if *distance > 0 {
                        needed = true;
                        let span = (cs.state + distance * sched.cycles_per_iteration())
                            .saturating_sub(sid.state)
                            .div_ceil(sched.cycles_per_iteration().max(1))
                            .max(1);
                        max_span = max_span.max(span);
                    } else if cs.state > sid.state {
                        needed = true;
                        let span = match sched.ii {
                            Some(ii) if ii > 0 => (cs.state - sid.state).div_ceil(ii).max(1),
                            _ => 1,
                        };
                        max_span = max_span.max(span);
                    }
                }
            }
            // Port writes always register their output value.
            if matches!(op.kind, OpKind::Write(_)) {
                needed = true;
                max_span = max_span.max(1);
            }
            if needed {
                let width = op.width;
                registers_list.push((id, width, max_span.max(1)));
                register_area += lib.register_area(width) * f64::from(max_span.max(1));
                writers_per_reg += 1;
            }
        }
        // Register-input sharing muxes: charge one 2-input mux per register.
        muxes += writers_per_reg as f64 * lib.mux_area(2, 32);

        // --- controller ----------------------------------------------------------
        let controller =
            60.0 + 35.0 * f64::from(sched.num_states) + 25.0 * f64::from(sched.num_stages());

        // --- power ----------------------------------------------------------------
        // Dynamic: every non-free op activates its resource once per iteration;
        // registers toggle every initiation interval.
        let iteration_ps = f64::from(sched.cycles_per_iteration()) * clock.period_ps();
        let mut energy_fj_per_iter = 0.0;
        for (id, op) in body.dfg.iter_ops() {
            if op.kind.is_free() {
                continue;
            }
            if !sched.ops.contains_key(&id) {
                continue;
            }
            if let Some(ty) = ResourceType::for_op(op) {
                energy_fj_per_iter += lib.energy_fj(&ty);
            }
        }
        for (_, width, copies) in &registers_list {
            energy_fj_per_iter +=
                lib.characterize(&ResourceType::register(*width)).energy_fj * f64::from(*copies);
        }
        // fJ / ps = mW; convert to µW (× 1000).
        let dynamic_uw = energy_fj_per_iter / iteration_ps * 1000.0;
        let area = AreaBreakdown {
            functional,
            muxes,
            registers: register_area,
            controller,
        };
        let leakage_uw = fu_leakage + 0.0008 * area.total();
        Datapath {
            ops_per_resource,
            registers: registers_list,
            area,
            power: PowerBreakdown {
                dynamic_uw,
                leakage_uw,
            },
        }
    }

    /// Total area in library units.
    pub fn total_area(&self) -> f64 {
        self.area.total()
    }

    /// Total power in microwatts.
    pub fn total_power_uw(&self) -> f64 {
        self.power.total_uw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::{Dfg, PortDirection, Signal};
    use hls_tech::ResourceClass;

    /// A small hand-scheduled body: read → mul → add → write over 2 states.
    fn tiny() -> (LinearBody, ScheduleDesc) {
        let mut dfg = Dfg::new();
        let x = dfg.add_port("x", PortDirection::Input, 32);
        let y = dfg.add_port("y", PortDirection::Output, 32);
        let r = dfg.add_op(OpKind::Read(x), 32, vec![]);
        let m = dfg.add_op(OpKind::Mul, 32, vec![Signal::op(r), Signal::op(r)]);
        let a = dfg.add_op(
            OpKind::Add,
            32,
            vec![Signal::op(m), Signal::constant(1, 32)],
        );
        let w = dfg.add_op(OpKind::Write(y), 32, vec![Signal::op(a)]);
        let body = LinearBody::from_dfg("tiny", dfg);

        let mut resources = ResourceSet::new();
        let mul = resources.add(ResourceType::binary(ResourceClass::Multiplier, 32, 32, 32));
        let add = resources.add(ResourceType::binary(ResourceClass::Adder, 32, 32, 32));
        let mut ops = BTreeMap::new();
        ops.insert(
            r,
            ScheduledOp {
                op: r,
                state: 0,
                resource: None,
            },
        );
        ops.insert(
            m,
            ScheduledOp {
                op: m,
                state: 0,
                resource: Some(mul),
            },
        );
        ops.insert(
            a,
            ScheduledOp {
                op: a,
                state: 1,
                resource: Some(add),
            },
        );
        ops.insert(
            w,
            ScheduledOp {
                op: w,
                state: 1,
                resource: None,
            },
        );
        let sched = ScheduleDesc {
            num_states: 2,
            ii: None,
            ops,
            resources,
        };
        (body, sched)
    }

    #[test]
    fn schedule_queries() {
        let (_, sched) = tiny();
        assert_eq!(sched.num_states, 2);
        assert_eq!(sched.cycles_per_iteration(), 2);
        assert_eq!(sched.num_stages(), 1);
        assert_eq!(sched.ops_in_state(0).len(), 2);
        assert_eq!(sched.ops_in_state(1).len(), 2);
    }

    #[test]
    fn pipelined_stage_math() {
        let (_, mut sched) = tiny();
        sched.ii = Some(1);
        assert_eq!(sched.cycles_per_iteration(), 1);
        assert_eq!(sched.num_stages(), 2);
    }

    #[test]
    fn fold_states_and_fire_cycles() {
        let (body, mut sched) = tiny();
        assert_eq!(sched.fold_states(), 2, "sequential folds to the latency");
        let add_id = body
            .dfg
            .iter_ops()
            .find(|(_, op)| matches!(op.kind, OpKind::Add))
            .map(|(id, _)| id)
            .unwrap();
        // sequential: iteration k starts at k * latency
        assert_eq!(sched.fire_cycle(add_id, 0), Some(1));
        assert_eq!(sched.fire_cycle(add_id, 3), Some(7));
        // pipelined at II=1: iterations start every cycle
        sched.ii = Some(1);
        assert_eq!(sched.fold_states(), 1);
        assert_eq!(sched.fire_cycle(add_id, 3), Some(4));
        assert_eq!(sched.fire_cycle(OpId::from_raw(99), 0), None);
    }

    #[test]
    fn datapath_area_is_positive_and_decomposed() {
        let (body, sched) = tiny();
        let lib = TechLibrary::artisan_90nm_typical();
        let clock = ClockConstraint::from_period_ps(1600.0);
        let dp = Datapath::from_schedule(&body, &sched, &lib, clock, 0.0);
        assert!(dp.area.functional > 0.0);
        assert!(
            dp.area.registers > 0.0,
            "mul result crosses a state boundary"
        );
        assert!(dp.area.controller > 0.0);
        assert!(dp.total_area() >= dp.area.functional);
        assert!(dp.total_power_uw() > 0.0);
    }

    #[test]
    fn more_resources_mean_more_area() {
        let (body, sched) = tiny();
        let lib = TechLibrary::artisan_90nm_typical();
        let clock = ClockConstraint::from_period_ps(1600.0);
        let base = Datapath::from_schedule(&body, &sched, &lib, clock, 0.0).total_area();
        let mut bigger = sched.clone();
        bigger
            .resources
            .add(ResourceType::binary(ResourceClass::Multiplier, 32, 32, 32));
        let more = Datapath::from_schedule(&body, &bigger, &lib, clock, 0.0).total_area();
        assert!(more > base);
    }

    #[test]
    fn slower_clock_lowers_dynamic_power() {
        let (body, sched) = tiny();
        let lib = TechLibrary::artisan_90nm_typical();
        let fast = Datapath::from_schedule(
            &body,
            &sched,
            &lib,
            ClockConstraint::from_period_ps(800.0),
            0.0,
        );
        let slow = Datapath::from_schedule(
            &body,
            &sched,
            &lib,
            ClockConstraint::from_period_ps(3200.0),
            0.0,
        );
        assert!(slow.power.dynamic_uw < fast.power.dynamic_uw);
    }

    #[test]
    fn generous_slack_allows_smaller_functional_area() {
        let (body, sched) = tiny();
        let lib = TechLibrary::artisan_90nm_typical();
        // A very slow clock lets every unit use its small variant.
        let clock = ClockConstraint::from_period_ps(6400.0);
        let tight = Datapath::from_schedule(
            &body,
            &sched,
            &lib,
            ClockConstraint::from_period_ps(1100.0),
            0.0,
        );
        let relaxed = Datapath::from_schedule(&body, &sched, &lib, clock, 0.0);
        assert!(relaxed.area.functional < tight.area.functional);
    }

    #[test]
    fn table_rendering_mentions_states_and_resources() {
        let (body, sched) = tiny();
        let table = sched.to_table(&body);
        assert!(table.contains("s1"));
        assert!(table.contains("s2"));
        assert!(table.contains("mul1"));
    }
}
