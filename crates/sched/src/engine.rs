//! The dense, incremental, region-aware scheduling engine behind both
//! [`schedule_pass`] (one-shot, from scratch) and the multi-pass
//! [`Scheduler`] driver (incremental across relaxation actions).
//!
//! [`schedule_pass`]: crate::pass::schedule_pass
//! [`Scheduler`]: crate::scheduler::Scheduler
//!
//! # Arena layout
//!
//! Every hot table is a flat `Vec` indexed by dense ids: per-operation state
//! lives in region-local vectors (`placed`, `first_considered`,
//! `last_reasons`), resource classes are interned to [`ResourceClassId`]s,
//! the busy table is one `Vec` per region indexed by
//! `local_instance * fold_states + folded_state`, and the
//! combinational-cycle graph is an adjacency `Vec` over region-local
//! resource indices with epoch-marked DFS over a reused stack. Nothing on
//! the placement path hashes a key. A successful placement allocates
//! nothing beyond the amortized growth of those tables; a failed one
//! allocates its counted restraint list — one entry per distinct
//! (kind, type) or (kind, slack), not one per busy instance — and the
//! `Arc` that shares it with the per-state snapshots.
//!
//! # Regions
//!
//! The engine always schedules through a [`RegionPlan`]. The default plan is
//! trivial — one region holding every op, which reproduces the historical
//! monolithic behavior exactly. A non-trivial plan (built by
//! [`RegionPlan::build`] from the SCC condensation) splits the body into
//! topologically ordered regions with **registered cut-value interfaces**: a
//! consumer in another region becomes ready only in a *strictly later* state
//! than its producer and always sees a register-launch arrival. Because
//! cross-region readiness depends only on strictly earlier states, the
//! global state-major fixpoint decomposes into independent per-region
//! fixpoints, and scheduling the regions one after the other (or independent
//! weakly-connected groups in parallel via
//! [`map_indexed`](crate::parallel::map_indexed)) produces exactly the
//! schedule one monolithic pass under the same cut rule would.
//!
//! # Incremental re-passes
//!
//! The greedy pass is deterministic: given (latency, resources, forbidden
//! bindings, SCC stages, upstream interface states) a region always makes
//! the same decisions in the same order. Each region snapshots its mutable
//! state at the start of every control step and carries a private `resume`
//! watermark; a relaxation action dirties only the regions that can observe
//! it:
//!
//! * `AddState` — every region continues from the previous final state,
//!   unless mobility saturation swapped two of its ops in the priority
//!   order; it then replays from the first state where the two waited in
//!   a ready list together (see [`priority_flips`] and [`flip_resume`]);
//! * `AddResource(ty)` — the instance is added to the pool of the region
//!   owning the restraint that provoked it; only that region re-passes,
//!   from the first state where a member of `ty`'s class was considered;
//! * `MoveScc` — only the region containing the SCC re-passes;
//! * `ForbidBinding` — only the region containing the op re-passes.
//!
//! After a region re-runs, its boundary interface (the states of its
//! cut-value producers) is diffed against the last published one; consumer
//! regions replay only if an interface state actually moved, and only from
//! the earliest state that can observe the move. Everything else keeps its
//! cached result — including its failure-report fragment, so a failed
//! pass's restraints are assembled without touching clean regions.
//!
//! The replayed work must make exactly the decisions a from-scratch pass
//! would make. [`Scheduler::run_reference`] builds a fresh engine for every
//! pass, so nothing is resumed and no per-instance table is carried over;
//! the schedule-equivalence suite (`tests/schedule_equivalence.rs`) asserts
//! the two drivers agree bit for bit.
//!
//! [`Scheduler::run_reference`]: crate::scheduler::Scheduler::run_reference

use crate::config::SchedulerConfig;
use crate::pass::PassFailure;
use crate::region::RegionPlan;
use crate::relax::{count_contention, count_slack, RelaxAction, Restraint};
use hls_ir::analysis::Scc;
use hls_ir::{LinearBody, OpId, OpKind, PinnedState};
use hls_netlist::ChainTiming;
use hls_netlist::{ScheduleDesc, ScheduledOp};
use hls_tech::{
    Interner, ResourceClass, ResourceClassId, ResourceInstanceId, ResourceSet, ResourceType,
    ResourceTypeId, TechLibrary,
};
use std::sync::{Arc, Mutex};

/// Resume watermark marking a region that does not need to re-pass.
const CLEAN: u32 = u32::MAX;

/// Cap on the transitive-fanout cone count used as a scheduling-priority
/// tie-breaker. Counting the exact cone is O(V·E) over the whole body, which
/// dominates setup on 100k-op designs; cones at or above the cap all compare
/// equal, and the remaining tie-breaker (op id) keeps the order
/// deterministic. The cap exceeds every design of the schedule-equivalence
/// and scheduling-decision goldens, so their priority orders are uncapped.
const FANOUT_CONE_CAP: usize = 4096;

/// Transitive distance-0 fanout cone size per op, counting at most `cap`
/// distinct consumers (the DFS stops early once the cap is hit).
fn fanout_cone_sizes(body: &LinearBody, cap: usize) -> Vec<usize> {
    let n = body.dfg.num_ops();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (id, op) in body.dfg.iter_ops() {
        for sig in &op.inputs {
            if sig.distance == 0 {
                if let Some(p) = sig.producer() {
                    succs[p.index()].push(id.index());
                }
            }
        }
    }
    let mut fanout = vec![0usize; n];
    let mut mark = vec![usize::MAX; n];
    let mut stack: Vec<usize> = Vec::new();
    for (root, cone) in fanout.iter_mut().enumerate() {
        let mut count = 0usize;
        stack.clear();
        stack.push(root);
        // the root itself is not part of its cone unless reached again
        'dfs: while let Some(v) = stack.pop() {
            for &s in &succs[v] {
                if mark[s] != root {
                    mark[s] = root;
                    count += 1;
                    if count >= cap {
                        break 'dfs;
                    }
                    stack.push(s);
                }
            }
        }
        *cone = count;
    }
    fanout
}

/// Cached predicate literals for the allocation-free mutual-exclusivity
/// test. `lits` is sorted by condition op (the order `Predicate::literals`
/// produces); each entry records whether the condition occurs with positive
/// and/or negative polarity.
#[derive(Clone, Debug, Default)]
struct PredLits {
    is_true: bool,
    lits: Vec<(OpId, bool, bool)>,
}

impl PredLits {
    fn of(pred: &hls_ir::Predicate) -> Self {
        let lits = pred
            .literals()
            .into_iter()
            .map(|(cond, pols)| (cond, pols.contains(&true), pols.contains(&false)))
            .collect();
        PredLits {
            is_true: pred.is_true(),
            lits,
        }
    }

    /// Mirrors `Predicate::mutually_exclusive` over the cached literals.
    fn mutually_exclusive(&self, other: &PredLits) -> bool {
        if self.is_true || other.is_true {
            return false;
        }
        for &(cond, a_true, a_false) in &self.lits {
            if let Ok(pos) = other.lits.binary_search_by_key(&cond, |l| l.0) {
                let (_, b_true, b_false) = other.lits[pos];
                if (a_true && b_false && !a_false && !b_true)
                    || (a_false && b_true && !a_true && !b_false)
                {
                    return true;
                }
            }
        }
        false
    }
}

/// Immutable per-run precomputation: everything about the body that no
/// relaxation action can change, computed once per `Scheduler::run` instead
/// of once per pass (or worse, once per placement attempt).
struct PassStatics {
    n: usize,
    /// Distance-0 producers per op (duplicates preserved, as in `Dfg::preds`).
    preds: Vec<Vec<OpId>>,
    /// Extra precedence edges from I/O ordering, keyed by the later op.
    extra_preds: Vec<Vec<OpId>>,
    pin: Vec<Option<PinnedState>>,
    /// The op's required resource type (including `IoPort` interface types).
    required_ty: Vec<Option<ResourceType>>,
    /// Whether the op occupies a datapath resource (non-`IoPort`).
    needs_resource: Vec<bool>,
    /// Interned class of datapath ops.
    class_id: Vec<Option<ResourceClassId>>,
    /// Interned required type of datapath ops.
    required_type_id: Vec<Option<ResourceTypeId>>,
    /// Combinational delay per interned type (indexed by `ResourceTypeId`);
    /// replaces the per-attempt `ResourceType` hash of the delay cache.
    type_delay: Vec<f64>,
    /// Widest operand/result width per interned type (mux sizing).
    type_width: Vec<u16>,
    complexity: Vec<f64>,
    asap: Vec<u32>,
    /// Longest distance-0 successor chain below each op.
    below: Vec<u32>,
    fanout: Vec<usize>,
    /// Predicate condition ops, filled only for side-effecting ops.
    cond_ops: Vec<Vec<OpId>>,
    has_side_effects: Vec<bool>,
    pred_lits: Vec<PredLits>,
    scc_of: Vec<Option<u32>>,
    /// Whether the op is a free/IO op whose arrival is a register launch.
    launches_from_register: Vec<bool>,
}

impl PassStatics {
    fn build(body: &LinearBody, lib: &TechLibrary, sccs: &[Scc], interner: &mut Interner) -> Self {
        let n = body.dfg.num_ops();
        let mut preds: Vec<Vec<OpId>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (id, op) in body.dfg.iter_ops() {
            for sig in &op.inputs {
                if sig.distance == 0 {
                    if let Some(p) = sig.producer() {
                        preds[id.index()].push(p);
                        succs[p.index()].push(id.index());
                    }
                }
            }
        }
        let mut extra_preds: Vec<Vec<OpId>> = vec![Vec::new(); n];
        for (a, b) in body.io_order_deps() {
            extra_preds[b.index()].push(a);
        }

        // ASAP levels and below-heights over the distance-0 dependence graph,
        // via one topological sweep each (same values as
        // `analysis::asap_levels` / the height pass of `alap_levels`).
        let order = body
            .dfg
            .topo_order()
            .expect("scheduling requires an acyclic intra-iteration dependence graph");
        let mut asap = vec![0u32; n];
        for &id in &order {
            let l = preds[id.index()]
                .iter()
                .map(|p| asap[p.index()] + 1)
                .max()
                .unwrap_or(0);
            asap[id.index()] = l;
        }
        let mut below = vec![0u32; n];
        for &id in order.iter().rev() {
            let l = succs[id.index()]
                .iter()
                .map(|&s| below[s] + 1)
                .max()
                .unwrap_or(0);
            below[id.index()] = l;
        }

        let fanout = fanout_cone_sizes(body, FANOUT_CONE_CAP);

        let mut required_ty = vec![None; n];
        let mut needs_resource = vec![false; n];
        let mut class_id = vec![None; n];
        let mut required_type_id = vec![None; n];
        let mut type_delay: Vec<f64> = Vec::new();
        let mut type_width: Vec<u16> = Vec::new();
        let mut complexity = vec![0.0f64; n];
        let mut cond_ops: Vec<Vec<OpId>> = vec![Vec::new(); n];
        let mut has_side_effects = vec![false; n];
        let mut pred_lits = vec![PredLits::default(); n];
        let mut launches_from_register = vec![false; n];
        for (id, op) in body.dfg.iter_ops() {
            let i = id.index();
            let ty = ResourceType::for_op(op);
            if let Some(ty) = &ty {
                if !matches!(ty.class, ResourceClass::IoPort) {
                    needs_resource[i] = true;
                    complexity[i] = lib.delay_ps(ty);
                    let cid = interner.class_id(&ty.class);
                    class_id[i] = Some(cid);
                    let tid = interner.type_id(ty);
                    if tid.index() >= type_delay.len() {
                        type_delay.push(lib.delay_ps(ty));
                        type_width.push(ty.max_width());
                    }
                    required_type_id[i] = Some(tid);
                }
            }
            required_ty[i] = ty;
            has_side_effects[i] = op.kind.has_side_effects();
            if has_side_effects[i] {
                cond_ops[i] = op.predicate.condition_ops();
            }
            pred_lits[i] = PredLits::of(&op.predicate);
            launches_from_register[i] = matches!(op.kind, OpKind::Read(_) | OpKind::Pass);
        }

        let mut scc_of = vec![None; n];
        for (si, scc) in sccs.iter().enumerate() {
            for &op in &scc.ops {
                scc_of[op.index()] = Some(si as u32);
            }
        }

        let pin = (0..n)
            .map(|i| body.pin_of(OpId::from_raw(i as u32)))
            .collect();

        PassStatics {
            n,
            preds,
            extra_preds,
            pin,
            required_ty,
            needs_resource,
            class_id,
            required_type_id,
            type_delay,
            type_width,
            complexity,
            asap,
            below,
            fanout,
            cond_ops,
            has_side_effects,
            pred_lits,
            scc_of,
            launches_from_register,
        }
    }
}

/// Priority order for a given latency: complexity (delay) descending,
/// then mobility ascending, then fanout cone descending, then id —
/// exactly the comparator of the original per-round `ready.sort_by`.
fn order_for(s: &PassStatics, latency: u32) -> Vec<OpId> {
    let latency = latency.max(1);
    let depth = latency.saturating_sub(1);
    let mobility = |i: usize| -> u32 {
        let alap = depth.saturating_sub(s.below[i]);
        alap.saturating_sub(s.asap[i])
    };
    let mut order: Vec<OpId> = (0..s.n as u32).map(OpId::from_raw).collect();
    order.sort_by(|&a, &b| {
        let (ia, ib) = (a.index(), b.index());
        s.complexity[ib]
            .partial_cmp(&s.complexity[ia])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| mobility(ia).cmp(&mobility(ib)))
            .then_with(|| s.fanout[ib].cmp(&s.fanout[ia]))
            .then_with(|| a.cmp(&b))
    });
    order
}

/// An op whose place in the priority order changes when the latency grows
/// by one (see [`priority_flips`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Flip {
    op: OpId,
    /// Position in the old order.
    rank: u32,
    /// Index of the op's run of equal complexity in the old order.
    group: u32,
    /// Whether the op's mobility leaves 0, so it moves later; otherwise
    /// it is saturated and moves earlier.
    leaving: bool,
}

/// The ops whose relative priority changes when the latency grows from
/// `latency` to `latency + 1`, in old-order rank order. `order` must be
/// `order_for(s, latency)`.
///
/// [`order_for`] ranks by complexity ↓, mobility ↑, fanout ↓, id ↑, where
/// mobility = max(0, L − 1 − h) for h = asap + below. Raising L by one
/// raises the mobility of every op with h ≤ L − 1 by one and leaves the
/// rest at 0, so the only pairs that swap are an op with h = L − 1, whose
/// mobility leaves 0, and a saturated op (h ≥ L) of equal complexity that
/// it used to precede on the fanout/id tie-break. So a leaving op flips
/// iff it precedes its group's last saturated op, and a saturated op iff
/// it follows its group's first leaving op. O(n); no pair is enumerated.
fn priority_flips(s: &PassStatics, order: &[OpId], latency: u32) -> Vec<Flip> {
    let latency = latency.max(1);
    let height = |op: &OpId| s.asap[op.index()] + s.below[op.index()];
    let mut flips = Vec::new();
    let (mut lo, mut group) = (0usize, 0u32);
    while lo < order.len() {
        let c = s.complexity[order[lo].index()];
        let hi = lo
            + order[lo..]
                .iter()
                .position(|op| s.complexity[op.index()] != c)
                .unwrap_or(order.len() - lo);
        let run = &order[lo..hi];
        let first_leaving = run.iter().position(|op| height(op) == latency - 1);
        let last_saturated = run.iter().rposition(|op| height(op) >= latency);
        if let (Some(a), Some(b)) = (first_leaving, last_saturated) {
            for (k, op) in run.iter().enumerate().take(b + 1).skip(a) {
                let h = height(op);
                let leaving = h == latency - 1;
                if (leaving && k < b) || (h >= latency && k > a) {
                    flips.push(Flip {
                        op: *op,
                        rank: (lo + k) as u32,
                        group,
                        leaving,
                    });
                }
            }
        }
        lo = hi;
        group += 1;
    }
    flips
}

/// The first state at which a swapped pair among one region's `flips` can
/// both wait in a ready list, or `None` if no such pair's windows overlap.
/// `window(op)` is the op's waiting window in the old pass: from its first
/// considered state to the state it was placed in (or the final state),
/// `None` if it was never considered. A swap can change a decision only in
/// a round whose ready list holds both ops, so every earlier state makes
/// the old decisions. O(k log k) for k flips.
fn flip_resume(flips: &[Flip], window: impl Fn(OpId) -> Option<(u32, u32)>) -> Option<u32> {
    // (group, start, rank, end, leaving), in group then start order
    let mut events: Vec<(u32, u32, u32, u32, bool)> = flips
        .iter()
        .filter_map(|f| window(f.op).map(|(from, to)| (f.group, from, f.rank, to, f.leaving)))
        .collect();
    events.sort_unstable();
    let mut best: Option<u32> = None;
    let mut lo = 0;
    while lo < events.len() {
        let group = events[lo].0;
        let hi = lo
            + events[lo..]
                .iter()
                .position(|e| e.0 != group)
                .unwrap_or(events.len() - lo);
        best = min_opt(best, first_meeting(&events[lo..hi]));
        lo = hi;
    }
    best
}

/// The first state at which one complexity group's waiting windows, in
/// start order, hold a leaving op ranked before a saturated one. The
/// waiting leaving ops' earliest rank and the waiting saturated ops'
/// latest are kept in heaps that drop expired windows lazily; a swapped
/// pair waits together exactly when the earliest is below the latest, and
/// only a window's start can make that true.
fn first_meeting(events: &[(u32, u32, u32, u32, bool)]) -> Option<u32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut leaving: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
    let mut saturated: BinaryHeap<(u32, u32)> = BinaryHeap::new();
    for (k, &(_, state, rank, to, is_leaving)) in events.iter().enumerate() {
        if is_leaving {
            leaving.push(Reverse((rank, to)));
        } else {
            saturated.push((rank, to));
        }
        if events.get(k + 1).is_some_and(|next| next.1 == state) {
            continue;
        }
        while leaving.peek().is_some_and(|Reverse((_, to))| *to < state) {
            leaving.pop();
        }
        while saturated.peek().is_some_and(|(_, to)| *to < state) {
            saturated.pop();
        }
        if let (Some(Reverse((a, _))), Some((b, _))) = (leaving.peek(), saturated.peek()) {
            if a < b {
                return Some(state);
            }
        }
    }
    None
}

/// One placed operation: its control step, binding and output arrival time.
#[derive(Clone, Copy, Debug, PartialEq)]
struct PlacedOp {
    state: u32,
    resource: Option<ResourceInstanceId>,
    arrival: f64,
}

/// The mutable per-region pass state — everything a control step's decisions
/// inside one region can read or write. Cloning it (one `Vec` clone per
/// field) is what a per-state snapshot costs; the busy table and
/// combinational graph are derived from `placed` and deliberately excluded.
/// All vectors are indexed by the *region-local* op index except
/// `scc_dyn_stage`, which stays global-SCC-indexed (an SCC is always wholly
/// inside one region, so only its owner ever reads or writes its entry).
#[derive(Clone)]
struct RegionFrame {
    placed: Vec<Option<PlacedOp>>,
    num_placed: usize,
    scc_dyn_stage: Vec<Option<u32>>,
    /// Reasons recorded by the op's latest failed binding attempt; `None`
    /// means the op was never attempted (the failure report treats an
    /// attempted-but-reasonless op differently from a never-attempted one).
    /// `Arc` so per-state snapshots clone a pointer, not the restraint list.
    last_reasons: Vec<Option<Arc<Vec<Restraint>>>>,
    first_considered: Vec<Option<u32>>,
    min_slack: f64,
}

impl RegionFrame {
    fn fresh(n_local: usize, scc_stage_input: &[Option<u32>]) -> Self {
        RegionFrame {
            placed: vec![None; n_local],
            num_placed: 0,
            scc_dyn_stage: scc_stage_input.to_vec(),
            last_reasons: vec![None; n_local],
            first_considered: vec![None; n_local],
            min_slack: f64::INFINITY,
        }
    }
}

/// Per-region runtime: the region's slice of the problem (members, priority
/// order, resource pool), its persisted pass state, its scratch tables and
/// its incremental bookkeeping (resume watermark, published interface,
/// cached failure fragment).
struct RegionRt {
    /// Member ops (global indices) in plan order — the local index layout.
    members: Vec<u32>,
    /// Global priority order filtered to this region's members.
    order: Vec<OpId>,
    /// The region's resource instances (ascending global instance ids).
    insts: Vec<ResourceInstanceId>,
    /// Datapath members per interned class (sharing-factor numerator).
    ops_per_class: Vec<usize>,
    /// Pool instances per interned class (sharing-factor denominator).
    insts_per_class: Vec<usize>,

    frame: RegionFrame,
    snapshots: Vec<RegionFrame>,
    /// Earliest state the next pass must replay from; [`CLEAN`] = skip.
    resume: u32,
    /// Last published boundary interface: the state of each boundary op
    /// (`plan.regions[r].boundary` order), `None` while unplaced.
    iface: Vec<Option<u32>>,
    /// Cached failure-report fragment from the region's last run.
    fail: Vec<(OpId, Vec<Restraint>)>,
    /// The region's work over every pass so far.
    work: Work,

    // scratch reused across passes
    busy: Vec<Vec<OpId>>,
    comb_succ: Vec<Vec<u32>>,
    comb_mark: Vec<u32>,
    comb_epoch: u32,
    comb_stack: Vec<u32>,
    ready: Vec<OpId>,
    in_arrivals: Vec<f64>,
    /// Per local op: its placement failed earlier in the current step.
    step_failed: Vec<bool>,
    /// The current step's failed ops, each with the region's placement
    /// count at its failed attempt.
    step_fails: Vec<(OpId, usize)>,
}

/// Work counters, summed over an engine's passes and regions: the control
/// steps scheduled and the placement attempts that reached the instance
/// scan. Each region counts its own, so parallel components share nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Work {
    pub(crate) steps: u64,
    pub(crate) attempts: u64,
}

impl std::ops::AddAssign for Work {
    fn add_assign(&mut self, other: Work) {
        self.steps += other.steps;
        self.attempts += other.attempts;
    }
}

/// What one placement attempt did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Attempt {
    Placed,
    /// The instance scan bound nothing; `last_reasons` says why.
    Failed,
    /// An input (such as a predicate condition) is not placed yet, so the
    /// scan was not reached. Not a failure: a later round may place it.
    NotReady,
}

/// Outcome of one engine pass (the schedule itself stays inside the engine
/// until the driver extracts it, so success allocates nothing).
pub(crate) enum EngineOutcome {
    Success { min_slack_ps: f64 },
    Failure(PassFailure),
}

/// The incremental scheduling engine. Owns the allocated resources, the
/// relaxation inputs and the persisted per-region pass state; `run_pass()`
/// executes one (possibly partial, possibly parallel) pass over the dirty
/// regions and `apply` folds a relaxation action in, dirtying exactly the
/// regions that can observe it.
pub(crate) struct Engine<'a> {
    body: &'a LinearBody,
    lib: &'a TechLibrary,
    config: &'a SchedulerConfig,
    statics: PassStatics,
    interner: Interner,
    timing: ChainTiming<'a>,
    sccs: &'a [Scc],
    plan: RegionPlan,

    // relaxation inputs
    pub(crate) resources: ResourceSet,
    forbidden: Vec<Vec<ResourceInstanceId>>,
    scc_stage_input: Vec<Option<u32>>,
    pub(crate) latency: u32,

    // derived per-instance tables, maintained across passes
    /// Interned type per resource instance, in instance-id order.
    inst_type_ids: Vec<ResourceTypeId>,
    /// Region-local index per resource instance (the owning region is
    /// implied: an instance only ever appears in its own region's tables).
    inst_local: Vec<u32>,
    /// Compatible instances per op, restricted to the op's region pool.
    compat: Vec<Vec<ResourceInstanceId>>,
    /// Global priority order (regions filter it to their members).
    order: Vec<OpId>,

    regions: Vec<RegionRt>,
}

impl<'a> Engine<'a> {
    /// Monolithic construction: the trivial single-region plan over the
    /// caller-provided resource set — the historical engine behavior.
    pub(crate) fn new(
        body: &'a LinearBody,
        lib: &'a TechLibrary,
        config: &'a SchedulerConfig,
        sccs: &'a [Scc],
        resources: ResourceSet,
        latency: u32,
    ) -> Self {
        let plan = RegionPlan::trivial(body.dfg.num_ops());
        let inst_region = vec![0u32; resources.len()];
        Self::init(
            body,
            lib,
            config,
            sccs,
            plan,
            resources,
            inst_region,
            latency,
        )
    }

    /// Region-decomposed construction: the global resource set is the
    /// concatenation of per-region lower-bound pools (so binding never
    /// contends across regions, and the single-region fallback is
    /// byte-identical to [`Engine::new`] over `initial_resource_set`).
    pub(crate) fn new_with_plan(
        body: &'a LinearBody,
        lib: &'a TechLibrary,
        config: &'a SchedulerConfig,
        sccs: &'a [Scc],
        plan: RegionPlan,
        slots_per_instance: u32,
        latency: u32,
    ) -> Self {
        let pools = crate::region::region_pools(body, &plan, slots_per_instance);
        let (resources, inst_region) = crate::region::concat_pools(&pools);
        Self::init(
            body,
            lib,
            config,
            sccs,
            plan,
            resources,
            inst_region,
            latency,
        )
    }

    /// Construction over an explicit plan and resource set: `inst_region`
    /// names the region owning each instance, in instance-id order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn init(
        body: &'a LinearBody,
        lib: &'a TechLibrary,
        config: &'a SchedulerConfig,
        sccs: &'a [Scc],
        plan: RegionPlan,
        resources: ResourceSet,
        inst_region: Vec<u32>,
        latency: u32,
    ) -> Self {
        let mut interner = Interner::new();
        let mut statics = PassStatics::build(body, lib, sccs, &mut interner);
        let n = statics.n;
        let num_regions = plan.regions.len();
        debug_assert_eq!(inst_region.len(), resources.len());

        // Per-instance tables, in instance-id order (the interning order the
        // monolithic engine used: class first, then type, per instance).
        let mut inst_type_ids: Vec<ResourceTypeId> = Vec::with_capacity(resources.len());
        let mut inst_local: Vec<u32> = Vec::with_capacity(resources.len());
        let mut insts_by_region: Vec<Vec<ResourceInstanceId>> = vec![Vec::new(); num_regions];
        let mut insts_per_class_by_region: Vec<Vec<usize>> = vec![Vec::new(); num_regions];
        for inst in resources.iter() {
            let cid = interner.class_id(&inst.ty.class);
            let tid = interner.type_id(&inst.ty);
            if tid.index() >= statics.type_delay.len() {
                statics.type_delay.push(lib.delay_ps(&inst.ty));
                statics.type_width.push(inst.ty.max_width());
            }
            inst_type_ids.push(tid);
            let r = inst_region[inst.id.index()] as usize;
            inst_local.push(insts_by_region[r].len() as u32);
            insts_by_region[r].push(inst.id);
            let per_class = &mut insts_per_class_by_region[r];
            if cid.index() >= per_class.len() {
                per_class.resize(cid.index() + 1, 0);
            }
            per_class[cid.index()] += 1;
        }

        let scc_stage_input: Vec<Option<u32>> = vec![None; sccs.len()];
        let latency = latency.max(1);
        let order = order_for(&statics, latency);
        let mut region_orders: Vec<Vec<OpId>> = vec![Vec::new(); num_regions];
        for &op in &order {
            region_orders[plan.region_of[op.index()] as usize].push(op);
        }

        let mut regions: Vec<RegionRt> = Vec::with_capacity(num_regions);
        for (ri, info) in plan.regions.iter().enumerate() {
            let members = info.ops.clone();
            let mut ops_per_class: Vec<usize> = Vec::new();
            for &g in &members {
                if let Some(cid) = statics.class_id[g as usize] {
                    if cid.index() >= ops_per_class.len() {
                        ops_per_class.resize(cid.index() + 1, 0);
                    }
                    ops_per_class[cid.index()] += 1;
                }
            }
            regions.push(RegionRt {
                frame: RegionFrame::fresh(members.len(), &scc_stage_input),
                members,
                order: std::mem::take(&mut region_orders[ri]),
                insts: std::mem::take(&mut insts_by_region[ri]),
                ops_per_class,
                insts_per_class: std::mem::take(&mut insts_per_class_by_region[ri]),
                snapshots: Vec::new(),
                resume: 0,
                iface: vec![None; info.boundary.len()],
                fail: Vec::new(),
                work: Work::default(),
                busy: Vec::new(),
                comb_succ: Vec::new(),
                comb_mark: Vec::new(),
                comb_epoch: 0,
                comb_stack: Vec::new(),
                ready: Vec::with_capacity(regions_capacity_hint(n, num_regions)),
                in_arrivals: Vec::with_capacity(8),
                step_failed: vec![false; info.ops.len()],
                step_fails: Vec::new(),
            });
        }

        let mut compat: Vec<Vec<ResourceInstanceId>> = vec![Vec::new(); n];
        for (i, slot) in compat.iter_mut().enumerate() {
            if let Some(req) = &statics.required_ty[i] {
                let ri = plan.region_of[i] as usize;
                for &res_id in &regions[ri].insts {
                    if Self::type_can_implement(req, &resources.instance(res_id).ty) {
                        slot.push(res_id);
                    }
                }
            }
        }

        Engine {
            body,
            lib,
            config,
            statics,
            interner,
            timing: ChainTiming::new(lib, config.clock),
            sccs,
            plan,
            resources,
            forbidden: vec![Vec::new(); n],
            scc_stage_input,
            latency,
            inst_type_ids,
            inst_local,
            compat,
            order,
            regions,
        }
    }

    /// Seeds the relaxation inputs (used by the one-shot pass wrappers in
    /// [`pass`](crate::pass) to honour an explicit `PassInput`).
    pub(crate) fn seed_inputs(
        &mut self,
        forbidden: impl IntoIterator<Item = (OpId, ResourceInstanceId)>,
        scc_stage: impl IntoIterator<Item = (usize, u32)>,
    ) {
        for (op, res) in forbidden {
            if op.index() < self.forbidden.len() {
                self.forbidden[op.index()].push(res);
            }
        }
        for (scc, stage) in scc_stage {
            if scc < self.scc_stage_input.len() {
                self.scc_stage_input[scc] = Some(stage);
            }
        }
        let pins = &self.scc_stage_input;
        for rt in &mut self.regions {
            rt.frame = RegionFrame::fresh(rt.members.len(), pins);
            rt.snapshots.clear();
            rt.resume = 0;
            rt.iface = vec![None; rt.iface.len()];
            rt.fail.clear();
        }
    }

    /// The SCC stage inputs, dense over SCC index.
    pub(crate) fn scc_stage(&self) -> &[Option<u32>] {
        &self.scc_stage_input
    }

    /// Mirrors `ResourceType::can_implement` given the op's precomputed
    /// required type (avoids re-deriving it per check).
    fn type_can_implement(required: &ResourceType, have: &ResourceType) -> bool {
        required.class == have.class
            && required.out_width <= have.out_width
            && required.in_widths.len() <= have.in_widths.len()
            && required
                .in_widths
                .iter()
                .zip(have.in_widths.iter())
                .all(|(need, h)| need <= h)
    }

    /// Applies a relaxation action, dirtying exactly the regions whose next
    /// pass can observe it (each region tracks its own resume watermark).
    /// `restraints` is the failed pass's restraint list — `AddResource`
    /// derives the owning region from the restraint that provoked it.
    pub(crate) fn apply(&mut self, action: &RelaxAction, restraints: &[Restraint]) {
        match action {
            RelaxAction::AddState => self.add_state(),
            RelaxAction::AddResource(ty) => {
                let owner = crate::region::owner_region(restraints, ty, &self.plan.region_of);
                self.add_instance(ty, owner);
            }
            RelaxAction::AddResourceBatch { ty, count } => {
                let owners = crate::region::batch_owner_regions(
                    restraints,
                    ty,
                    *count,
                    &self.plan.region_of,
                );
                for owner in owners {
                    self.add_instance(ty, owner);
                }
            }
            RelaxAction::MoveScc { scc_index } => {
                let cur = self
                    .scc_stage_input
                    .get(*scc_index)
                    .copied()
                    .flatten()
                    .unwrap_or(0);
                if *scc_index < self.scc_stage_input.len() {
                    self.scc_stage_input[*scc_index] = Some(cur + 1);
                }
                if let Some(scc) = self.sccs.get(*scc_index) {
                    let owner = self.plan.region_of[scc.ops[0].index()];
                    let local_of = &self.plan.local_of;
                    let rt = &mut self.regions[owner as usize];
                    let mut resume = None;
                    for &op in &scc.ops {
                        resume = min_opt(
                            resume,
                            rt.frame.first_considered[local_of[op.index()] as usize],
                        );
                    }
                    rt.resume = rt.resume.min(resume.unwrap_or(0));
                }
            }
            RelaxAction::ForbidBinding { op, resource } => {
                self.forbidden[op.index()].push(*resource);
                let owner = self.plan.region_of[op.index()];
                let local = self.plan.local_of[op.index()] as usize;
                let rt = &mut self.regions[owner as usize];
                let fc = rt.frame.first_considered[local];
                rt.resume = rt.resume.min(fc.unwrap_or(0));
            }
        }
    }

    /// Raises the latency by one. Nothing before the old latency can observe
    /// the new state, but the priorities depend on the latency through
    /// mobility. A region whose order keeps every pair that can meet in a
    /// ready list continues from its final state; the others resume at the
    /// first state where a swapped pair can meet.
    fn add_state(&mut self) {
        let old_latency = self.latency;
        self.latency += 1;
        let flips = priority_flips(&self.statics, &self.order, old_latency);
        if flips.is_empty() {
            debug_assert!(order_for(&self.statics, self.latency) == self.order);
            for rt in &mut self.regions {
                rt.resume = rt.resume.min(old_latency);
            }
            return;
        }
        self.order = order_for(&self.statics, self.latency);
        let num_regions = self.regions.len();
        let mut region_orders: Vec<Vec<OpId>> = vec![Vec::new(); num_regions];
        for &op in &self.order {
            region_orders[self.plan.region_of[op.index()] as usize].push(op);
        }
        let mut region_flips: Vec<Vec<Flip>> = vec![Vec::new(); num_regions];
        for f in flips {
            region_flips[self.plan.region_of[f.op.index()] as usize].push(f);
        }
        let local_of = &self.plan.local_of;
        let regions = self.regions.iter_mut().zip(region_orders).zip(region_flips);
        for ((rt, order), flips) in regions {
            let frame = &rt.frame;
            let resume = flip_resume(&flips, |op| {
                let l = local_of[op.index()] as usize;
                let to = frame.placed[l].map_or(old_latency - 1, |p| p.state);
                frame.first_considered[l].map(|from| (from, to))
            });
            rt.order = order;
            rt.resume = rt.resume.min(resume.unwrap_or(old_latency));
        }
    }

    /// Adds one fresh instance of `ty` to `owner`'s pool, extending the
    /// interner tables, the compatibility lists of the region's members, and
    /// rewinding the region's resume watermark to the first state where a
    /// member of the matching class was considered.
    fn add_instance(&mut self, ty: &ResourceType, owner: u32) {
        let inst_id = self.resources.add(ty.clone());
        let cid = self.interner.class_id(&ty.class);
        let tid = self.interner.type_id(ty);
        if tid.index() >= self.statics.type_delay.len() {
            self.statics.type_delay.push(self.lib.delay_ps(ty));
            self.statics.type_width.push(ty.max_width());
        }
        self.inst_type_ids.push(tid);
        let local_of = &self.plan.local_of;
        let rt = &mut self.regions[owner as usize];
        self.inst_local.push(rt.insts.len() as u32);
        rt.insts.push(inst_id);
        if cid.index() >= rt.insts_per_class.len() {
            rt.insts_per_class.resize(cid.index() + 1, 0);
        }
        rt.insts_per_class[cid.index()] += 1;
        let new_ty = &self.resources.instance(inst_id).ty;
        let mut resume = None;
        for &g in &rt.members {
            let i = g as usize;
            if self.statics.class_id[i] != Some(cid) {
                continue;
            }
            if let Some(req) = &self.statics.required_ty[i] {
                if Self::type_can_implement(req, new_ty) {
                    self.compat[i].push(inst_id);
                }
            }
            resume = min_opt(resume, rt.frame.first_considered[local_of[i] as usize]);
        }
        rt.resume = rt.resume.min(resume.unwrap_or(0));
    }

    fn fold(&self, state: u32, ii: u32) -> u32 {
        if self.config.pipeline.is_some() {
            state % ii
        } else {
            state
        }
    }

    fn scc_window(&self, idx: usize, dyn_stage: &[Option<u32>], ii: u32) -> Option<(u32, u32)> {
        dyn_stage[idx].map(|stage| (stage * ii, (stage * ii + ii - 1).min(self.latency - 1)))
    }

    /// Rebuilds one region's busy table and combinational graph from its
    /// current placement (they are pure functions of it). Only same-region
    /// producer/consumer pairs can chain combinationally: a cross-region
    /// value is registered by the cut rule, so it never shares a state.
    fn rebuild_derived(&self, cur: &mut RegionRt, fold_states: u32, ii: u32) {
        let slots = cur.insts.len() * fold_states as usize;
        for b in &mut cur.busy {
            b.clear();
        }
        if cur.busy.len() < slots {
            cur.busy.resize_with(slots, Vec::new);
        }
        for c in &mut cur.comb_succ {
            c.clear();
        }
        if cur.comb_succ.len() < cur.insts.len() {
            cur.comb_succ.resize_with(cur.insts.len(), Vec::new);
            cur.comb_mark.resize(cur.insts.len(), 0);
        }
        for (l, &g) in cur.members.iter().enumerate() {
            let Some(p) = &cur.frame.placed[l] else {
                continue;
            };
            if let Some(r) = p.resource {
                let slot = self.inst_local[r.index()] as usize * fold_states as usize
                    + self.fold(p.state, ii) as usize;
                cur.busy[slot].push(OpId::from_raw(g));
            }
        }
        for (l, &g) in cur.members.iter().enumerate() {
            let Some(pc) = cur.frame.placed[l] else {
                continue;
            };
            let Some(rc) = pc.resource else { continue };
            for sig in &self.body.dfg.op(OpId::from_raw(g)).inputs {
                if sig.distance > 0 {
                    continue;
                }
                let Some(prod) = sig.producer() else { continue };
                if self.plan.region_of[prod.index()] != self.plan.region_of[g as usize] {
                    continue;
                }
                let pl = self.plan.local_of[prod.index()] as usize;
                let Some(pp) = cur.frame.placed[pl] else {
                    continue;
                };
                if pp.state == pc.state {
                    if let Some(rp) = pp.resource {
                        comb_add_edge(
                            &mut cur.comb_succ,
                            self.inst_local[rp.index()],
                            self.inst_local[rc.index()],
                        );
                    }
                }
            }
        }
    }

    /// Whether predecessor `p` permits scheduling its consumer in `state`:
    /// same region — placed no later than `state` (same-state chaining
    /// allowed); other region — placed *strictly earlier* (the registered
    /// cut rule, which is what makes cross-region readiness invariant during
    /// a state's placement rounds).
    fn pred_sched_ok(
        &self,
        base: u32,
        ridx: u32,
        cur: &RegionRt,
        done: &[RegionRt],
        p: OpId,
        state: u32,
    ) -> bool {
        let pr = self.plan.region_of[p.index()];
        let pl = self.plan.local_of[p.index()] as usize;
        if pr == ridx {
            cur.frame.placed[pl]
                .map(|s| s.state <= state)
                .unwrap_or(false)
        } else {
            done[(pr - base) as usize].frame.placed[pl]
                .map(|s| s.state < state)
                .unwrap_or(false)
        }
    }

    /// The placement of `p` as visible from region `ridx` (any state).
    fn placed_of(
        &self,
        base: u32,
        ridx: u32,
        cur: &RegionRt,
        done: &[RegionRt],
        p: OpId,
    ) -> Option<PlacedOp> {
        let pr = self.plan.region_of[p.index()];
        let pl = self.plan.local_of[p.index()] as usize;
        if pr == ridx {
            cur.frame.placed[pl]
        } else {
            done[(pr - base) as usize].frame.placed[pl]
        }
    }

    /// Arrival of producer `p`'s value at a consumer scheduled in `state`,
    /// `None` while the producer does not yet permit that state. Same-region
    /// same-state values chain combinationally; everything else (earlier
    /// state, or any cross-region value) launches from a register.
    fn input_arrival(
        &self,
        base: u32,
        ridx: u32,
        cur: &RegionRt,
        done: &[RegionRt],
        p: OpId,
        state: u32,
    ) -> Option<f64> {
        let pr = self.plan.region_of[p.index()];
        let pl = self.plan.local_of[p.index()] as usize;
        if pr == ridx {
            match cur.frame.placed[pl] {
                Some(sp) if sp.state < state => Some(self.timing.register_arrival_ps()),
                Some(sp) if sp.state == state => Some(sp.arrival),
                _ => None,
            }
        } else {
            match done[(pr - base) as usize].frame.placed[pl] {
                Some(sp) if sp.state < state => Some(self.timing.register_arrival_ps()),
                _ => None,
            }
        }
    }

    /// Runs one pass over every dirty region and assembles the global
    /// outcome. Independent weakly-connected component groups run in
    /// parallel when more than one of them is dirty.
    pub(crate) fn run_pass(&mut self) -> EngineOutcome {
        let latency = self.latency.max(1);
        let ii = self.config.ii_or(latency);
        let pipelined = self.config.pipeline.is_some();
        let sharing = self.config.sharing_possible();
        let fold_states = if pipelined { ii } else { latency };

        let mut regions = std::mem::take(&mut self.regions);
        let outcome;
        {
            let this: &Engine = &*self;
            let dirty_components = this
                .plan
                .components
                .iter()
                .filter(|&&(lo, hi)| {
                    regions[lo as usize..hi as usize]
                        .iter()
                        .any(|r| r.resume != CLEAN)
                })
                .count();
            if dirty_components > 1 && crate::parallel::worker_count() > 1 {
                // Hand each component its contiguous chunk of regions. The
                // Mutex<Option<..>> wrapper moves the &mut chunk through the
                // shared-reference closure `map_indexed` requires.
                type ComponentCell<'a> = Mutex<Option<(u32, &'a mut [RegionRt])>>;
                let mut items: Vec<ComponentCell<'_>> =
                    Vec::with_capacity(this.plan.components.len());
                let mut rest: &mut [RegionRt] = &mut regions;
                let mut consumed = 0u32;
                for &(lo, hi) in &this.plan.components {
                    debug_assert_eq!(lo, consumed, "component ranges must be contiguous");
                    let (chunk, tail) = rest.split_at_mut((hi - lo) as usize);
                    items.push(Mutex::new(Some((lo, chunk))));
                    rest = tail;
                    consumed = hi;
                }
                crate::parallel::map_indexed(&items, |_, cell| {
                    let (base, chunk) = cell.lock().unwrap().take().unwrap();
                    this.run_component(base, chunk, latency, ii, fold_states, sharing);
                });
            } else {
                for &(lo, hi) in &this.plan.components {
                    this.run_component(
                        lo,
                        &mut regions[lo as usize..hi as usize],
                        latency,
                        ii,
                        fold_states,
                        sharing,
                    );
                }
            }
            outcome = this.assemble_outcome(&regions);
        }
        self.regions = regions;
        outcome
    }

    /// Runs the dirty regions of one weakly-connected component in
    /// topological order, propagating boundary-interface changes downstream.
    fn run_component(
        &self,
        base: u32,
        comp: &mut [RegionRt],
        latency: u32,
        ii: u32,
        fold_states: u32,
        sharing: bool,
    ) {
        for k in 0..comp.len() {
            if comp[k].resume == CLEAN {
                continue;
            }
            let (done, rest) = comp.split_at_mut(k);
            let cur = &mut rest[0];
            let ridx = base + k as u32;
            self.run_region(base, ridx, cur, done, latency, ii, fold_states, sharing);

            // Diff the boundary interface: a consumer region must replay only
            // if a cut value's state actually moved, and only from the
            // earliest state that can observe the move.
            let info = &self.plan.regions[ridx as usize];
            let mut dirties: Vec<(u32, u32)> = Vec::new();
            for (bi, &gop) in info.boundary.iter().enumerate() {
                let l = self.plan.local_of[gop as usize] as usize;
                let new = cur.frame.placed[l].map(|p| p.state);
                if new != cur.iface[bi] {
                    let resume = match (cur.iface[bi], new) {
                        (Some(a), Some(b)) => a.min(b),
                        (Some(a), None) => a,
                        (None, Some(b)) => b,
                        (None, None) => unreachable!("diff of equal interfaces"),
                    };
                    cur.iface[bi] = new;
                    for &rc in &info.consumers[bi] {
                        dirties.push((rc, resume));
                    }
                }
            }
            cur.resume = CLEAN;
            for (rc, resume) in dirties {
                debug_assert!(rc > ridx, "consumers are always downstream");
                let slot = &mut comp[(rc - base) as usize].resume;
                *slot = (*slot).min(resume);
            }
        }
    }

    /// Runs one region's pass from its resume watermark, restoring the
    /// snapshot when resuming mid-schedule, and refreshes its cached
    /// failure-report fragment.
    #[allow(clippy::too_many_arguments)]
    fn run_region(
        &self,
        base: u32,
        ridx: u32,
        cur: &mut RegionRt,
        done: &[RegionRt],
        latency: u32,
        ii: u32,
        fold_states: u32,
        sharing: bool,
    ) {
        let n_local = cur.members.len();

        // --- restore ---------------------------------------------------------
        let resume = cur.resume.min(latency);
        if resume == 0 {
            cur.frame = RegionFrame::fresh(n_local, &self.scc_stage_input);
            cur.snapshots.clear();
        } else if (resume as usize) < cur.snapshots.len() {
            cur.frame = cur.snapshots[resume as usize].clone();
            cur.snapshots.truncate(resume as usize);
            // re-apply the (possibly updated) input stage pins; for sccs
            // whose input is unchanged this is a no-op
            for (i, stage) in self.scc_stage_input.iter().enumerate() {
                if let Some(v) = stage {
                    cur.frame.scc_dyn_stage[i] = Some(*v);
                }
            }
        } else {
            // continue from the live frame (AddState append); snapshots for
            // the existing states remain valid
            cur.snapshots.truncate(resume as usize);
        }
        self.rebuild_derived(cur, fold_states, ii);

        // --- control steps ---------------------------------------------------
        // Within a step the busy table and the combinational graph only
        // grow, and an op's input arrivals are fixed once its inputs are
        // ready, so an op whose placement failed fails again in every later
        // round of the step; it is not retried. The step's last round places
        // nothing, and its attempts set the restraints the failure report
        // sees, so each failed op's restraints are recomputed once after it
        // — only if something was placed since its attempt, because
        // otherwise they are already the same.
        let order = std::mem::take(&mut cur.order);
        for state in resume..latency {
            debug_assert_eq!(cur.snapshots.len(), state as usize);
            cur.snapshots.push(cur.frame.clone());
            cur.work.steps += 1;
            loop {
                // ready operations, already in priority order
                let mut ready = std::mem::take(&mut cur.ready);
                ready.clear();
                for &op_id in &order {
                    let i = op_id.index();
                    let l = self.plan.local_of[i] as usize;
                    // A failed op would still be ready: SCC members need no
                    // exception, since a first placement in this step pins
                    // an SCC window that contains this step.
                    if cur.frame.placed[l].is_some() || cur.step_failed[l] {
                        continue;
                    }
                    let preds_ok = self.statics.preds[i]
                        .iter()
                        .all(|&p| self.pred_sched_ok(base, ridx, cur, done, p, state))
                        && self.statics.extra_preds[i]
                            .iter()
                            .all(|&p| self.pred_sched_ok(base, ridx, cur, done, p, state));
                    if !preds_ok {
                        continue;
                    }
                    if let Some(pin) = self.statics.pin[i] {
                        if !pin.allows(hls_ir::StateIdx::new(state)) {
                            continue;
                        }
                    }
                    if cur.frame.first_considered[l].is_none() {
                        cur.frame.first_considered[l] = Some(state);
                    }
                    if let Some(scc) = self.statics.scc_of[i] {
                        if let Some((lo, hi)) =
                            self.scc_window(scc as usize, &cur.frame.scc_dyn_stage, ii)
                        {
                            if state < lo || state > hi {
                                continue;
                            }
                        }
                    }
                    ready.push(op_id);
                }
                if ready.is_empty() {
                    cur.ready = ready;
                    break;
                }

                let mut placed_any = false;
                for &op_id in &ready {
                    match self.try_place(
                        base,
                        ridx,
                        cur,
                        done,
                        op_id,
                        state,
                        ii,
                        fold_states,
                        sharing,
                    ) {
                        Attempt::Placed => placed_any = true,
                        Attempt::Failed => {
                            cur.step_failed[self.plan.local_of[op_id.index()] as usize] = true;
                            cur.step_fails.push((op_id, cur.frame.num_placed));
                        }
                        Attempt::NotReady => {}
                    }
                }
                cur.ready = ready;
                if !placed_any {
                    break;
                }
            }
            let mut fails = std::mem::take(&mut cur.step_fails);
            for &(op_id, placed_then) in &fails {
                cur.step_failed[self.plan.local_of[op_id.index()] as usize] = false;
                if cur.frame.num_placed > placed_then {
                    let refresh = self.try_place(
                        base,
                        ridx,
                        cur,
                        done,
                        op_id,
                        state,
                        ii,
                        fold_states,
                        sharing,
                    );
                    debug_assert_eq!(
                        refresh,
                        Attempt::Failed,
                        "a failed placement succeeded later in its step"
                    );
                }
            }
            fails.clear();
            cur.step_fails = fails;
        }
        cur.order = order;

        // --- cache the failure-report fragment -------------------------------
        cur.fail.clear();
        if cur.frame.num_placed < n_local {
            for (l, &g) in cur.members.iter().enumerate() {
                if cur.frame.placed[l].is_some() {
                    continue;
                }
                let i = g as usize;
                // only report ops whose predecessors were all placed (root
                // causes) — mirrors the monolithic failure scan, which checks
                // data preds only
                let preds_ok = self.statics.preds[i]
                    .iter()
                    .all(|&p| self.placed_of(base, ridx, cur, done, p).is_some());
                if !preds_ok {
                    continue;
                }
                let id = OpId::from_raw(g);
                if let Some(rs) = &cur.frame.last_reasons[l] {
                    cur.fail.push((id, rs.as_ref().clone()));
                } else {
                    // never attempted: distinguish "a region-crossing value
                    // is registered in the final state, so readiness needs a
                    // state that does not exist" from plain starvation
                    let blocked = {
                        let last = self.latency.saturating_sub(1);
                        let cut_blocked = |p: &OpId| {
                            self.plan.region_of[p.index()] != ridx
                                && self
                                    .placed_of(base, ridx, cur, done, *p)
                                    .is_some_and(|pl| pl.state >= last)
                        };
                        self.statics.preds[i].iter().any(cut_blocked)
                            || self.statics.extra_preds[i].iter().any(cut_blocked)
                            || (self.statics.has_side_effects[i]
                                && self.statics.cond_ops[i].iter().any(cut_blocked))
                    };
                    if blocked {
                        cur.fail
                            .push((id, vec![Restraint::StateExhausted { op: id }]));
                    } else if let Some(ty) = &self.statics.required_ty[i] {
                        cur.fail.push((
                            id,
                            vec![Restraint::ResourceContention {
                                op: id,
                                ty: ty.clone(),
                                instances: 1,
                            }],
                        ));
                    } else {
                        cur.fail.push((id, Vec::new()));
                    }
                }
            }
        }
    }

    /// Attempts to place one ready operation in `state`. Mirrors the
    /// original pass body exactly, with the registered cut rule applied to
    /// cross-region inputs.
    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn try_place(
        &self,
        base: u32,
        ridx: u32,
        cur: &mut RegionRt,
        done: &[RegionRt],
        op_id: OpId,
        state: u32,
        ii: u32,
        fold_states: u32,
        sharing: bool,
    ) -> Attempt {
        let i = op_id.index();
        let l = self.plan.local_of[i] as usize;
        let op = self.body.dfg.op(op_id);

        // input arrival times
        let mut inputs_ready = true;
        cur.in_arrivals.clear();
        let mut in_arrivals = std::mem::take(&mut cur.in_arrivals);
        for sig in &op.inputs {
            let a = match sig.producer() {
                None => 0.0,
                Some(_) if sig.distance > 0 => self.timing.register_arrival_ps(),
                Some(p) => match self.input_arrival(base, ridx, cur, done, p, state) {
                    Some(a) => a,
                    None => {
                        inputs_ready = false;
                        0.0
                    }
                },
            };
            in_arrivals.push(a);
        }
        if self.statics.has_side_effects[i] {
            for &cond in &self.statics.cond_ops[i] {
                match self.input_arrival(base, ridx, cur, done, cond, state) {
                    Some(a) => in_arrivals.push(a),
                    None => inputs_ready = false,
                }
            }
        }
        if !inputs_ready {
            cur.in_arrivals = in_arrivals;
            return Attempt::NotReady;
        }

        if !self.statics.needs_resource[i] {
            let a = if self.statics.launches_from_register[i] {
                self.timing.register_arrival_ps()
            } else {
                in_arrivals.iter().copied().fold(0.0f64, f64::max)
            };
            cur.frame.placed[l] = Some(PlacedOp {
                state,
                resource: None,
                arrival: a,
            });
            cur.frame.num_placed += 1;
            cur.in_arrivals = in_arrivals;
            return Attempt::Placed;
        }

        let class = self.statics.class_id[i].expect("datapath op has a class");
        let share = {
            let ops = cur
                .ops_per_class
                .get(class.index())
                .copied()
                .unwrap_or(0)
                .max(1);
            let insts = cur
                .insts_per_class
                .get(class.index())
                .copied()
                .unwrap_or(0)
                .max(1);
            ops.div_ceil(insts)
        };

        cur.work.attempts += 1;
        // counted: one entry per distinct busy type or slack value
        let mut reasons: Vec<Restraint> = Vec::new();
        let mut bound = false;
        let mut tried_any = false;
        for &res_id in &self.compat[i] {
            if self.forbidden[i].contains(&res_id) {
                continue;
            }
            tried_any = true;
            // busy check in this folded state: mutually exclusive predicated
            // ops may share, but only within the *same* control step — in a
            // folded pipeline equivalent states belong to different stages,
            // whose predicates guard different iterations, so cross-stage
            // "mutual exclusion" would not hold in hardware (the binder
            // rejects such slots as unsteerable)
            let slot = self.inst_local[res_id.index()] as usize * fold_states as usize
                + self.fold(state, ii) as usize;
            let conflict = cur.busy[slot].iter().any(|other| {
                let ol = self.plan.local_of[other.index()] as usize;
                !cur.frame.placed[ol].is_some_and(|p| p.state == state)
                    || !self.statics.pred_lits[other.index()]
                        .mutually_exclusive(&self.statics.pred_lits[i])
            });
            if conflict {
                count_contention(&mut reasons, op_id, &self.resources.instance(res_id).ty, 1);
                continue;
            }
            // timing check (mirrors `ChainTiming::op_arrival_ps` over the
            // interned per-type delay/width tables — no type hashing)
            let tid = self.inst_type_ids[res_id.index()];
            let base_a = in_arrivals.iter().copied().fold(0.0f64, f64::max);
            let a = base_a
                + self
                    .timing
                    .input_mux_delay_ps(share, self.statics.type_width[tid.index()])
                + self.statics.type_delay[tid.index()];
            let slack = self.timing.slack_shared_ps(a, op.width, sharing);
            if slack < 0.0 {
                count_slack(&mut reasons, op_id, slack, 1);
                continue;
            }
            // combinational cycle check (only same-region producers can
            // chain in the same state — cross-region values are registered)
            let mut creates_cycle = false;
            for sig in &op.inputs {
                if sig.distance > 0 {
                    continue;
                }
                let Some(p) = sig.producer() else { continue };
                if self.plan.region_of[p.index()] != ridx {
                    continue;
                }
                if let Some(sp) = cur.frame.placed[self.plan.local_of[p.index()] as usize] {
                    if sp.state == state {
                        if let Some(rp) = sp.resource {
                            if comb_would_create_cycle(
                                &cur.comb_succ,
                                &mut cur.comb_mark,
                                &mut cur.comb_epoch,
                                &mut cur.comb_stack,
                                self.inst_local[rp.index()],
                                self.inst_local[res_id.index()],
                            ) {
                                creates_cycle = true;
                            }
                        }
                    }
                }
            }
            if creates_cycle {
                reasons.push(Restraint::CombCycle {
                    op: op_id,
                    resource: res_id,
                });
                continue;
            }
            // accept the binding
            for sig in &op.inputs {
                if sig.distance > 0 {
                    continue;
                }
                let Some(p) = sig.producer() else { continue };
                if self.plan.region_of[p.index()] != ridx {
                    continue;
                }
                if let Some(sp) = cur.frame.placed[self.plan.local_of[p.index()] as usize] {
                    if sp.state == state {
                        if let Some(rp) = sp.resource {
                            comb_add_edge(
                                &mut cur.comb_succ,
                                self.inst_local[rp.index()],
                                self.inst_local[res_id.index()],
                            );
                        }
                    }
                }
            }
            cur.busy[slot].push(op_id);
            cur.frame.placed[l] = Some(PlacedOp {
                state,
                resource: Some(res_id),
                arrival: a,
            });
            cur.frame.num_placed += 1;
            cur.frame.min_slack = cur.frame.min_slack.min(slack);
            // pin the SCC stage on first placement
            if let Some(scc) = self.statics.scc_of[i] {
                let entry = &mut cur.frame.scc_dyn_stage[scc as usize];
                if entry.is_none() {
                    *entry = Some(state / ii);
                }
            }
            bound = true;
            break;
        }
        if !bound {
            // If every instance was busy, also check whether a brand new
            // instance would have met timing; if not, the real problem is
            // slack, not hardware.
            if reasons
                .iter()
                .all(|r| matches!(r, Restraint::ResourceContention { .. }))
            {
                if let Some(tid) = self.statics.required_type_id[i] {
                    let base_a = in_arrivals.iter().copied().fold(0.0f64, f64::max);
                    let a = base_a
                        + self
                            .timing
                            .input_mux_delay_ps(share, self.statics.type_width[tid.index()])
                        + self.statics.type_delay[tid.index()];
                    let slack = self.timing.slack_shared_ps(a, op.width, sharing);
                    if slack < 0.0 {
                        count_slack(&mut reasons, op_id, slack, 1);
                    }
                }
            }
            // No allowed instance at all (none compatible, or every
            // compatible one forbidden): the fix is more hardware.
            if !tried_any {
                if let Some(ty) = &self.statics.required_ty[i] {
                    count_contention(&mut reasons, op_id, ty, 1);
                }
            }
            if let Some(scc) = self.statics.scc_of[i] {
                if self
                    .scc_window(scc as usize, &cur.frame.scc_dyn_stage, ii)
                    .map(|(_, hi)| state >= hi)
                    .unwrap_or(false)
                {
                    reasons.push(Restraint::SccWindow {
                        scc_index: scc as usize,
                        op: op_id,
                    });
                }
            }
            cur.frame.last_reasons[l] = Some(Arc::new(reasons));
        }
        cur.in_arrivals = in_arrivals;
        if bound {
            Attempt::Placed
        } else {
            Attempt::Failed
        }
    }

    /// Assembles the global outcome from the per-region results, matching
    /// the monolithic engine's report exactly: failed ops in ascending op-id
    /// order with their restraints, min-slack folded over every region.
    fn assemble_outcome(&self, regions: &[RegionRt]) -> EngineOutcome {
        let n = self.statics.n;
        let total: usize = regions.iter().map(|r| r.frame.num_placed).sum();
        if total == n {
            let min_slack = regions
                .iter()
                .map(|r| r.frame.min_slack)
                .fold(f64::INFINITY, f64::min);
            let min_slack_ps = if min_slack.is_finite() {
                min_slack
            } else {
                self.config.clock.period_ps()
            };
            EngineOutcome::Success { min_slack_ps }
        } else {
            let mut failure = PassFailure {
                scheduled: total,
                ..PassFailure::default()
            };
            let mut frags: Vec<&(OpId, Vec<Restraint>)> =
                regions.iter().flat_map(|r| r.fail.iter()).collect();
            frags.sort_by_key(|(op, _)| *op);
            for (op, rs) in frags {
                failure.failed_ops.push(*op);
                failure.restraints.extend(rs.iter().cloned());
            }
            EngineOutcome::Failure(failure)
        }
    }

    /// The work of every pass so far, summed over the regions.
    pub(crate) fn work(&self) -> Work {
        let mut total = Work::default();
        for rt in &self.regions {
            total += rt.work;
        }
        total
    }

    /// Extracts the schedule after a successful pass, consuming the engine
    /// (the resource set is moved, not cloned).
    pub(crate) fn into_desc(self) -> ScheduleDesc {
        let mut ops = std::collections::BTreeMap::new();
        for rt in &self.regions {
            for (l, &g) in rt.members.iter().enumerate() {
                let p = rt.frame.placed[l].expect("into_desc requires a complete schedule");
                let id = OpId::from_raw(g);
                ops.insert(
                    id,
                    ScheduledOp {
                        op: id,
                        state: p.state,
                        resource: p.resource,
                    },
                );
            }
        }
        ScheduleDesc {
            num_states: self.latency,
            ii: self.config.pipeline.map(|p| p.ii),
            ops,
            resources: self.resources,
        }
    }
}

/// Combinational-cycle check over one region's local comb graph, whose
/// edge `a → b` means a unit bound on `a` chains into a unit bound on `b`
/// in some state. A cycle is the false combinational loop of the paper's
/// Figure 6: two shared units feeding each other through their sharing
/// muxes. Adding `from → to` closes one iff `from == to` or a path
/// `to → … → from` already exists. `dfs` is scratch reused across calls.
fn comb_would_create_cycle(
    succ: &[Vec<u32>],
    mark: &mut [u32],
    epoch: &mut u32,
    dfs: &mut Vec<u32>,
    from: u32,
    to: u32,
) -> bool {
    if from == to {
        return true;
    }
    *epoch += 1;
    let epoch = *epoch;
    dfs.clear();
    dfs.push(to);
    while let Some(v) = dfs.pop() {
        if mark[v as usize] == epoch {
            continue;
        }
        mark[v as usize] = epoch;
        for &s in &succ[v as usize] {
            if s == from {
                return true;
            }
            dfs.push(s);
        }
    }
    false
}

fn comb_add_edge(succ: &mut [Vec<u32>], from: u32, to: u32) {
    let entry = &mut succ[from as usize];
    if !entry.contains(&to) {
        entry.push(to);
    }
}

fn min_opt(a: Option<u32>, b: Option<u32>) -> Option<u32> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Ready-list capacity hint: an even split of the ops over the regions.
fn regions_capacity_hint(n: usize, num_regions: usize) -> usize {
    n / num_regions.max(1) + 1
}

#[cfg(test)]
#[path = "../../../tests/common/random_behavior.rs"]
mod random_behavior;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::initial_resource_set;
    use hls_ir::analysis::sccs;
    use hls_ir::{Dfg, PortDirection, Signal};
    use hls_tech::ClockConstraint;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use random_behavior::random_behavior;

    /// A random DAG of `n` 16-bit operations of mixed kinds over two input
    /// ports, each reading recent results or constants, and one write.
    fn random_dag(seed: u64, n: usize) -> LinearBody {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut dfg = Dfg::new();
        let w = 16;
        let a = dfg.add_port("a", PortDirection::Input, w);
        let b = dfg.add_port("b", PortDirection::Input, w);
        let out = dfg.add_port("out", PortDirection::Output, w);
        let mut vals: Vec<Signal> = [a, b]
            .into_iter()
            .map(|p| Signal::op_w(dfg.add_op(OpKind::Read(p), w, vec![]), w))
            .collect();
        for _ in 0..n {
            let kind = match rng.gen_range(0u32..6) {
                0 => OpKind::Add,
                1 => OpKind::Sub,
                2 | 3 => OpKind::Mul,
                4 => OpKind::And,
                _ => OpKind::Xor,
            };
            let operand = |rng: &mut SmallRng| {
                if rng.gen_bool(0.2) {
                    Signal::constant(rng.gen_range(1u64..100) as i64, w)
                } else {
                    vals[rng.gen_range(vals.len().saturating_sub(6)..vals.len())]
                }
            };
            let inputs = vec![operand(&mut rng), operand(&mut rng)];
            vals.push(Signal::op_w(dfg.add_op(kind, w, inputs), w));
        }
        dfg.add_op(OpKind::Write(out), w, vec![*vals.last().unwrap()]);
        let mut body = LinearBody::from_dfg("dag", dfg);
        body.source_states = 1;
        body
    }

    /// Position of every op in `order`.
    fn positions(order: &[OpId]) -> Vec<usize> {
        let mut pos = vec![0; order.len()];
        for (k, op) in order.iter().enumerate() {
            pos[op.index()] = k;
        }
        pos
    }

    /// At every latency L from 1 to 48, one pass over `body` and then one
    /// `AddState`, compared with brute force over every pair of ops: the
    /// flip set must be the ops of the pairs that `order_for(L)` and
    /// `order_for(L + 1)` rank differently, and each region must resume at
    /// the first state where such a pair of its own waited together in
    /// the pass, or at L. Returns how many (L, region) cases resumed early
    /// and how many had swapped pairs but appended.
    fn check_add_state(label: &str, body: &LinearBody, config: &SchedulerConfig) -> (u32, u32) {
        let lib = TechLibrary::artisan_90nm_typical();
        let components = sccs(&body.dfg);
        let n = body.dfg.num_ops();
        let (mut early, mut appended) = (0, 0);
        for latency in 1..=48u32 {
            let mut engine = match config.region_decomposition {
                Some(opts) => {
                    let plan = RegionPlan::build(body, &components, opts.target_ops);
                    Engine::new_with_plan(body, &lib, config, &components, plan, 48, latency)
                }
                None => {
                    let resources = initial_resource_set(body, 48);
                    Engine::new(body, &lib, config, &components, resources, latency)
                }
            };
            let _ = engine.run_pass();
            let old = positions(&order_for(&engine.statics, latency));
            let new = positions(&order_for(&engine.statics, latency + 1));
            let mut swapped: Vec<(usize, usize)> = Vec::new();
            for x in 0..n {
                for y in 0..n {
                    if old[x] < old[y] && new[x] > new[y] {
                        swapped.push((x, y));
                    }
                }
            }
            let mut expected: Vec<(usize, bool)> = swapped
                .iter()
                .flat_map(|&(x, y)| [(x, true), (y, false)])
                .collect();
            expected.sort_unstable();
            expected.dedup();
            let mut flips: Vec<(usize, bool)> =
                priority_flips(&engine.statics, &engine.order, latency)
                    .iter()
                    .map(|f| (f.op.index(), f.leaving))
                    .collect();
            flips.sort_unstable();
            assert_eq!(flips, expected, "{label} L{latency}: flip set");

            let plan = &engine.plan;
            let window = |rt: &RegionRt, op: usize| {
                let l = plan.local_of[op] as usize;
                let to = rt.frame.placed[l].map_or(latency - 1, |p| p.state);
                rt.frame.first_considered[l].map(|from| (from, to))
            };
            let mut resumes = Vec::new();
            for (r, rt) in engine.regions.iter().enumerate() {
                let own = |op: usize| plan.region_of[op] as usize == r;
                let pairs: Vec<&(usize, usize)> =
                    swapped.iter().filter(|(x, y)| own(*x) && own(*y)).collect();
                let meet = pairs
                    .iter()
                    .filter_map(|&&(x, y)| {
                        let ((fx, tx), (fy, ty)) = (window(rt, x)?, window(rt, y)?);
                        let from = fx.max(fy);
                        (from <= tx.min(ty)).then_some(from)
                    })
                    .min();
                match meet {
                    Some(_) => early += 1,
                    None if !pairs.is_empty() => appended += 1,
                    None => {}
                }
                resumes.push(meet.unwrap_or(latency));
            }
            engine.apply(&RelaxAction::AddState, &[]);
            let got: Vec<u32> = engine.regions.iter().map(|rt| rt.resume).collect();
            assert_eq!(got, resumes, "{label} L{latency}: resume states");
            let order = positions(&engine.order);
            assert_eq!(order, new, "{label} L{latency}: new order");
        }
        (early, appended)
    }

    #[test]
    fn add_state_resumes_where_the_first_swapped_pair_waits_together() {
        let clock = ClockConstraint::from_period_ps(1600.0);
        let configs = [
            ("seq", SchedulerConfig::sequential(clock, 1, 48)),
            ("ii2", SchedulerConfig::pipelined(clock, 2, 48)),
            (
                "seq/regions4",
                SchedulerConfig::sequential(clock, 1, 48).with_region_decomposition(4),
            ),
        ];
        let (mut early, mut appended) = (0, 0);
        let mut bodies: Vec<(String, LinearBody)> = Vec::new();
        for seed in 0..12u64 {
            let behavior = random_behavior(seed);
            let mut cdfg = hls_frontend::elaborate(&behavior).expect("elaborates");
            let body = hls_opt::linearize::prepare_innermost_loop(&mut cdfg).expect("linearizes");
            bodies.push((format!("rand{seed}"), body));
        }
        for seed in 0..6u64 {
            bodies.push((format!("dag{seed}"), random_dag(seed, 60)));
        }
        for (name, body) in &bodies {
            for (tag, config) in &configs {
                let (e, a) = check_add_state(&format!("{name}/{tag}"), body, config);
                early += e;
                appended += a;
            }
        }
        // the corpus must reach both outcomes of a reorder
        assert!(
            early > 0 && appended > 0,
            "early {early}, appended {appended}"
        );
    }

    #[test]
    fn comb_graph_detects_figure6_cycle() {
        // adder A feeds adder B in s1, adder B feeds adder A in s2 → cycle
        let mut succ: Vec<Vec<u32>> = vec![Vec::new(); 4];
        let (mut mark, mut epoch, mut dfs) = (vec![0u32; 4], 0u32, Vec::new());
        let mut closes = |succ: &[Vec<u32>], from, to| {
            comb_would_create_cycle(succ, &mut mark, &mut epoch, &mut dfs, from, to)
        };
        comb_add_edge(&mut succ, 0, 1); // A -> B (state s1 chaining)
        assert!(!closes(&succ, 0, 1));
        assert!(closes(&succ, 1, 0));
        comb_add_edge(&mut succ, 1, 2);
        assert!(closes(&succ, 2, 0));
        assert!(closes(&succ, 3, 3), "self edge is a cycle");
        comb_add_edge(&mut succ, 0, 1);
        assert_eq!(succ.iter().map(Vec::len).sum::<usize>(), 2, "edges dedup");
    }
}
