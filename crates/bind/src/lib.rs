//! # hls-bind — the binding subsystem: schedules onto shared hardware
//!
//! The scheduler of the paper performs *simultaneous scheduling and binding*:
//! it assigns every operation both a control step and a resource instance.
//! This crate turns that per-operation assignment into a first-class
//! description of the shared datapath — the missing box between the
//! scheduler and the output generator of the paper's Figure 2 flow:
//!
//! * **functional-unit binding** ([`BoundFu`]) — the operations sharing each
//!   allocated instance, validated as *steerable* hardware (same-step
//!   sharing only under mutually exclusive predicates whose conditions are
//!   computed in time; never across pipeline stages, where per-iteration
//!   predicates cannot discriminate);
//! * **register binding** ([`BoundRegister`]) — lifetime analysis over the
//!   folded schedule period assigns values with disjoint cyclic live ranges
//!   to shared physical registers (left-edge allocation), with dedicated
//!   register chains for values crossing stages or iterations;
//! * **input-mux derivation** ([`InputMux`]) — per FU port, the distinct
//!   sources the FSM steers onto it, which is what the sharing muxes of the
//!   emitted RTL implement and what the area model charges.
//!
//! Everything is expressed over **interned ids** ([`hls_tech::Interner`],
//! [`ResourceClassId`] / [`ResourceTypeId`], dense [`RegId`]s and
//! [`hls_ir::DenseOpMap`]): the `BoundDesign` owns the interner that gives
//! its ids meaning, and every per-op table is a flat vector indexed by
//! `OpId`.
//!
//! The bound design is executable: [`lower`](fn@lower) builds the netlist
//! the Verilog is printed from, one operator per functional unit with
//! FSM-steered operand muxes, after checking that the binding is one
//! [`bind`] could have produced. `hls-sim` runs that netlist against the
//! reference interpreter, so differential verification proves the sharing
//! correct by execution rather than by construction.
//!
//! [`ResourceClassId`]: hls_tech::ResourceClassId
//! [`ResourceTypeId`]: hls_tech::ResourceTypeId

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fu;
pub mod lower;
pub mod mux;
pub mod regs;

pub use error::BindError;
pub use fu::{BoundFu, FuSlotOp};
pub use lower::{lower, LowerError, RtlStyle};
pub use mux::InputMux;
pub use regs::{BoundRegister, RegId};

use hls_ir::{DenseOpMap, LinearBody};
use hls_netlist::ScheduleDesc;
use hls_tech::{Interner, ResourceInstanceId};

/// Binding statistics: the concrete hardware a schedule costs, as counted
/// from the bound design (not estimated). These are the area proxies the
/// exploration drivers trade against latency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BindStats {
    /// Functional units with at least one operation bound.
    pub fu_count: usize,
    /// Instances the scheduler allocated (`fu_count` never exceeds this).
    pub allocated_fus: usize,
    /// Functional units shared by more than one operation.
    pub shared_fu_count: usize,
    /// Operations bound onto functional units.
    pub bound_ops: usize,
    /// Physical datapath registers (register chains count once).
    pub register_count: usize,
    /// Total storage bits over all datapath registers and their copies.
    pub register_bits: u64,
    /// Values that obtained a register.
    pub registered_values: usize,
    /// Physical input muxes (ports steered between ≥ 2 distinct sources).
    pub mux_count: usize,
    /// Total data inputs over all physical muxes.
    pub mux_inputs: usize,
}

/// The bound design: the canonical description of the shared datapath a
/// schedule implies, expressed over interned ids.
///
/// ## Data layout
///
/// * `fus[i]` describes resource instance `ResourceInstanceId(i)` — the
///   vector is indexed by the instance id, including allocated-but-unused
///   instances (empty `ops`);
/// * `fu_of` / `reg_of` are dense per-operation maps (`OpId`-indexed flat
///   vectors);
/// * `registers[r]` is `RegId(r)`;
/// * `interner` resolves every [`ResourceClassId`] / `ResourceTypeId`
///   carried by the units; ids are meaningful only relative to it.
///
/// The default is the empty binding: no units, no registers. It is what
/// [`lower()`] is given for [`RtlStyle::PerOp`], which reads no binding.
#[derive(Clone, Debug, Default)]
pub struct BoundDesign {
    /// Interner resolving the class/type ids carried by the units.
    pub interner: Interner,
    /// One entry per allocated resource instance, indexed by
    /// [`ResourceInstanceId`].
    pub fus: Vec<BoundFu>,
    /// The functional unit of each operation (`None` for free and I/O
    /// operations).
    pub fu_of: DenseOpMap<Option<ResourceInstanceId>>,
    /// The input muxes of the shared units (including degenerate
    /// single-source "muxes"; see [`InputMux::is_real`]).
    pub muxes: Vec<InputMux>,
    /// The physical registers, indexed by [`RegId`].
    pub registers: Vec<BoundRegister>,
    /// The register holding each operation's value (`None` for values
    /// consumed purely combinationally).
    pub reg_of: DenseOpMap<Option<RegId>>,
    /// Counted hardware statistics.
    pub stats: BindStats,
}

impl BoundDesign {
    /// Steering fan-in of every functional unit, indexed by
    /// [`ResourceInstanceId`]: how many operations the FSM steers onto the
    /// instance — the `n` of the paper's `mux_n` sharing-delay model, and
    /// the fan-in the static timing analyzer charges on the unit's operand
    /// trees. 0 for allocated-but-unused instances, 1 for unshared units.
    pub fn steering_fanins(&self) -> Vec<usize> {
        self.fus.iter().map(|f| f.ops.len()).collect()
    }

    /// The largest sharing-mux fan-in anywhere in the design (0 when no
    /// operation is bound) — the figure the fan-in lint compares against its
    /// configured bound.
    pub fn max_steering_fanin(&self) -> usize {
        self.steering_fanins().into_iter().max().unwrap_or(0)
    }
}

/// Binds a schedule: functional units (honoring the scheduler's instance
/// assignments and fold-state reservations), registers (lifetime analysis)
/// and input muxes.
///
/// # Errors
///
/// Returns a [`BindError`] when the schedule cannot be realized as steered
/// shared hardware — an incompatible or conflicting instance assignment, or
/// sharing whose discriminating predicate is not available in time.
pub fn bind(body: &LinearBody, desc: &ScheduleDesc) -> Result<BoundDesign, BindError> {
    let mut interner = Interner::new();
    let fus = fu::bind_fus(body, desc, &mut interner)?;
    let mut fu_of: DenseOpMap<Option<ResourceInstanceId>> = DenseOpMap::new(body.dfg.num_ops());
    for fu in &fus {
        for s in &fu.ops {
            fu_of[s.op] = Some(fu.instance);
        }
    }
    let muxes = mux::derive_muxes(body, &fus);
    let (registers, reg_of) = regs::bind_registers(body, desc);

    let stats = BindStats {
        fu_count: fus.iter().filter(|f| !f.ops.is_empty()).count(),
        allocated_fus: fus.len(),
        shared_fu_count: fus.iter().filter(|f| f.is_shared()).count(),
        bound_ops: fus.iter().map(|f| f.ops.len()).sum(),
        register_count: registers.len(),
        register_bits: registers.iter().map(BoundRegister::bits).sum(),
        registered_values: registers.iter().map(|r| r.values.len()).sum(),
        mux_count: muxes.iter().filter(|m| m.is_real()).count(),
        mux_inputs: muxes
            .iter()
            .filter(|m| m.is_real())
            .map(|m| m.sources.len())
            .sum(),
    };
    Ok(BoundDesign {
        interner,
        fus,
        fu_of,
        muxes,
        registers,
        reg_of,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_frontend::designs;
    use hls_opt::linearize::prepare_innermost_loop;
    use hls_sched::{Scheduler, SchedulerConfig};
    use hls_tech::{ClockConstraint, ResourceClass, TechLibrary};

    fn example1() -> LinearBody {
        let mut cdfg = designs::paper_example1_cdfg().expect("elab");
        prepare_innermost_loop(&mut cdfg).expect("prepare")
    }

    fn schedule(body: &LinearBody, config: SchedulerConfig) -> ScheduleDesc {
        let lib = TechLibrary::artisan_90nm_typical();
        Scheduler::new(body, &lib, config)
            .run()
            .expect("schedulable")
            .desc
    }

    fn clk() -> ClockConstraint {
        ClockConstraint::from_period_ps(1600.0)
    }

    #[test]
    fn example1_sequential_shares_one_multiplier_across_three_steps() {
        let body = example1();
        let desc = schedule(&body, SchedulerConfig::sequential(clk(), 1, 3));
        let bound = bind(&body, &desc).expect("bindable");
        // Table 2: one multiplier runs all three multiplications
        let mul_fus: Vec<&BoundFu> = bound
            .fus
            .iter()
            .filter(|f| bound.interner.class(f.class) == &ResourceClass::Multiplier)
            .collect();
        assert_eq!(mul_fus.len(), 1);
        assert_eq!(mul_fus[0].ops.len(), 3, "{:?}", mul_fus[0]);
        assert!(mul_fus[0].is_shared());
        // the shared multiplier needs real operand muxes
        let mul_muxes: Vec<&InputMux> = bound
            .muxes
            .iter()
            .filter(|m| m.fu == mul_fus[0].instance && m.is_real())
            .collect();
        assert!(!mul_muxes.is_empty());
        // binding never invents hardware
        assert!(bound.stats.fu_count <= desc.resources.len());
        assert!(bound.stats.register_count > 0);
    }

    #[test]
    fn example1_pipelined_ii1_needs_no_multiplier_sharing() {
        let body = example1();
        let desc = schedule(&body, SchedulerConfig::pipelined(clk(), 1, 6));
        let bound = bind(&body, &desc).expect("bindable");
        // II=1 allocates one multiplier per multiplication: no shared muls
        for fu in &bound.fus {
            if bound.interner.class(fu.class) == &ResourceClass::Multiplier {
                assert!(fu.ops.len() <= 1, "{fu:?}");
            }
        }
        assert_eq!(bound.stats.fu_count, bound.stats.bound_ops);
    }

    #[test]
    fn steering_fanins_expose_the_sharing_structure() {
        let body = example1();
        let desc = schedule(&body, SchedulerConfig::sequential(clk(), 1, 3));
        let bound = bind(&body, &desc).expect("bindable");
        let fanins = bound.steering_fanins();
        assert_eq!(fanins.len(), bound.fus.len());
        // Table 2: the multiplier runs three multiplications
        let mul_fanin = bound
            .fus
            .iter()
            .zip(&fanins)
            .filter(|(f, _)| bound.interner.class(f.class) == &ResourceClass::Multiplier)
            .map(|(_, &n)| n)
            .max()
            .unwrap();
        assert_eq!(mul_fanin, 3);
        assert_eq!(
            bound.max_steering_fanin(),
            fanins.iter().copied().max().unwrap()
        );
        // physical port fan-in never exceeds steering fan-in
        for m in &bound.muxes {
            let steering = fanins[m.fu.index()];
            assert!(
                m.sources.len() <= steering.max(1),
                "port fan-in {} > steering {steering}",
                m.sources.len()
            );
        }
    }

    #[test]
    fn every_bound_op_maps_back_to_its_unit() {
        let body = example1();
        let desc = schedule(&body, SchedulerConfig::sequential(clk(), 1, 3));
        let bound = bind(&body, &desc).expect("bindable");
        for (id, s) in &desc.ops {
            assert_eq!(bound.fu_of[*id], s.resource);
            if let Some(r) = s.resource {
                assert!(bound.fus[r.index()].ops.iter().any(|o| o.op == *id));
            }
        }
    }
}
