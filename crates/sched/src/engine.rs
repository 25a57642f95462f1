//! The dense, incremental, region-aware scheduling engine behind both
//! the one-shot pass of [`pass`](crate::pass) (from scratch) and the
//! multi-pass [`Scheduler`] driver (incremental across relaxation actions).
//!
//! [`Scheduler`]: crate::scheduler::Scheduler
//!
//! # Arena layout
//!
//! Every hot table is a flat `Vec` indexed by dense ids: per-operation state
//! lives in region-local vectors (`placed`, `first_considered`,
//! `last_reasons`), resource classes and types are interned to
//! [`ResourceClassId`]s and [`ResourceTypeId`]s, and each region numbers
//! its instances locally in ascending instance-id order. The busy table is
//! one `Vec` per region indexed by `local_instance * fold_states +
//! folded_state`, listing the ops bound in each slot. Two kinds of bitset
//! over the local instance indices sit beside it: one per interned type
//! (the region's instances of that type) and one per folded state (the
//! slots whose busy list is non-empty). An op's compatible instances are
//! the bits of the types able to implement its own, so a placement attempt
//! reads a few words per type instead of walking its pool, computes arrival
//! and slack once per type, and counts its restraints by popcount. Only a
//! predicated op, which may share an occupied instance with a mutually
//! exclusive one, reads the busy lists. The combinational-cycle graph is an
//! adjacency `Vec` over region-local resource indices with epoch-marked DFS
//! over a reused stack. Nothing on the placement path hashes a key, and no
//! placement, failed or not, allocates beyond the amortized growth of
//! those tables. A failed attempt appends its reasons to its region's
//! reason arena, a `Vec` of small `Copy` entries: one per distinct busy
//! type (interned) or slack, counted as the public [`Restraint`]s are, one
//! per cycle-closing instance and one for a closing SCC window. The op's
//! `last_reasons` holds the attempt's span of the arena. The public
//! restraints, with their `ResourceType` clones, are built only when a
//! failed pass's report is assembled.
//!
//! A round's ready list is read from a bitset over the region's priority
//! ranks that holds each unplaced op whose same-region producers are all
//! placed. Every op counts its unplaced same-region producers, and a
//! placement decrements the counts of its consumers, so a round visits the
//! ops that are ready instead of the whole body. Producers in upstream
//! regions do not move while a region runs, so the first state they allow
//! is computed once per run.
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
//! the same decisions in the same order. Each region journals every write
//! to its mutable state, with a mark at the start of every control step
//! that also holds the reason arena's length, and carries a private
//! `resume` watermark. Resuming at a step undoes the writes made since its
//! mark and truncates the arena to it, so a resume costs what it undoes,
//! not the size of the region, and the arena holds only the live steps'
//! reasons. A relaxation action dirties only the regions that can observe
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
#[cfg(test)]
use crate::relax::{count_contention, count_slack};
use crate::relax::{RelaxAction, Restraint};
use hls_ir::analysis::Scc;
use hls_ir::{LinearBody, OpId, OpKind, PinnedState};
use hls_netlist::ChainTiming;
use hls_netlist::{ScheduleDesc, ScheduledOp};
use hls_tech::{
    Interner, ResourceClass, ResourceClassId, ResourceInstanceId, ResourceSet, ResourceType,
    ResourceTypeId, TechLibrary,
};
use std::sync::Mutex;

/// Resume watermark marking a region that does not need to re-pass.
const CLEAN: u32 = u32::MAX;

/// Target ops per block of the fanout sweep: a reachability row is at most
/// 1 024 bits, 128 bytes per op.
const CONE_BLOCK: usize = 1024;

/// Transitive distance-0 fanout cone size per op: how many distinct ops
/// its value reaches, over any path. `succs` lists each op's distance-0
/// consumers, duplicates included.
///
/// The ops are numbered in a depth-first topological order, which keeps
/// an independent kernel in consecutive positions, and cut into blocks of
/// at most [`CONE_BLOCK`] positions. For each block one sweep in reverse
/// order gives every op a row of bits over the block: the block members it
/// reaches, the OR of its consumers' rows and their own bits. An op whose
/// furthest reachable position lies before the block reaches nothing in
/// it and is skipped, so an op pays only for the blocks its cone touches.
fn fanout_cone_sizes(succs: &[Vec<usize>]) -> Vec<usize> {
    let n = succs.len();
    let order = dfs_topo_order(succs);
    let mut pos = vec![0usize; n];
    for (k, &v) in order.iter().enumerate() {
        pos[v] = k;
    }
    // per position, the furthest position its op reaches, itself included
    let mut reach = vec![0usize; n];
    for (k, &v) in order.iter().enumerate().rev() {
        reach[k] = succs[v].iter().map(|&s| reach[pos[s]]).fold(k, usize::max);
    }
    // at least one word, so an empty body steps by a positive block size
    let words = n.min(CONE_BLOCK).div_ceil(64).max(1);
    let mut rows = vec![0u64; n * words];
    let mut cone = vec![0usize; n];
    for lo in (0..n).step_by(words * 64) {
        let hi = (lo + words * 64).min(n);
        for k in (0..hi).rev().filter(|&k| reach[k] >= lo) {
            // a consumer sits at a later position, so its row is done
            let (head, later) = rows.split_at_mut((k + 1) * words);
            let row = &mut head[k * words..];
            row.fill(0);
            for &s in &succs[order[k]] {
                let p = pos[s];
                if p >= hi || reach[p] < lo {
                    continue;
                }
                if p >= lo {
                    row[(p - lo) / 64] |= 1 << ((p - lo) % 64);
                }
                let from = &later[(p - k - 1) * words..][..words];
                for (r, f) in row.iter_mut().zip(from) {
                    *r |= f;
                }
            }
            cone[order[k]] += row.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        }
    }
    cone
}

/// A topological order of the graph whose edges `succs` lists: the reverse
/// of the order in which depth-first searches from each op, in id order,
/// finish their ops.
fn dfs_topo_order(succs: &[Vec<usize>]) -> Vec<usize> {
    let n = succs.len();
    let mut seen = vec![false; n];
    let mut finished = Vec::with_capacity(n);
    // each entry: an op and the index of its next consumer to visit
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        stack.push((root, 0));
        while let Some(top) = stack.last_mut() {
            let (v, next) = *top;
            match succs[v].get(next) {
                Some(&s) => {
                    top.1 += 1;
                    if !seen[s] {
                        seen[s] = true;
                        stack.push((s, 0));
                    }
                }
                None => {
                    finished.push(v);
                    stack.pop();
                }
            }
        }
    }
    finished.reverse();
    finished
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
    /// Transitive distance-0 fanout cone size (see [`fanout_cone_sizes`]).
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

        let fanout = fanout_cone_sizes(&succs);

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

    /// Every producer op `i` waits for, with duplicates: its distance-0
    /// data producers, then its I/O-order producers.
    fn producers(&self, i: usize) -> impl Iterator<Item = OpId> + '_ {
        self.preds[i].iter().chain(&self.extra_preds[i]).copied()
    }
}

/// Priority order for a given latency: complexity (delay) descending,
/// then mobility ascending, then fanout cone descending, then id —
/// exactly the comparator of the original per-round `ready.sort_by`. It
/// gives a run's first order; an `AddState` reorders that one in place
/// (see [`priority_flips`]).
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
/// `order_for(s, latency)`; it is reordered into `order_for(s, latency + 1)`.
///
/// [`order_for`] ranks by complexity ↓, mobility ↑, fanout ↓, id ↑, where
/// mobility = max(0, L − 1 − h) for h = asap + below. Raising L by one
/// raises the mobility of every op with h ≤ L − 1 by one and leaves the
/// rest at 0. So within each run of equal complexity only the mobility-0
/// prefix changes: its saturated ops (h ≥ L) stay at mobility 0, and its
/// leaving ops (h = L − 1) move to mobility 1, behind them and ahead of
/// the rest of the run. The new order is a stable partition of each
/// prefix, and the only pairs that swap are a leaving op and a saturated
/// op it used to precede on the fanout/id tie-break. So a leaving op flips
/// iff it precedes its group's last saturated op, and a saturated op iff
/// it follows its group's first leaving op. O(n), with no comparison
/// between ops.
fn priority_flips(s: &PassStatics, order: &mut [OpId], latency: u32) -> Vec<Flip> {
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
        let run = &mut order[lo..hi];
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
            if a < b {
                // ops a..=b have mobility 0: the saturated ones keep it, and
                // the leaving ones move behind them
                let (kept, moved): (Vec<OpId>, Vec<OpId>) =
                    run[a..=b].iter().partition(|op| height(op) >= latency);
                run[a..a + kept.len()].copy_from_slice(&kept);
                run[a + kept.len()..=b].copy_from_slice(&moved);
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

/// Extends `compat` to every type `interner` holds: entry `r` lists the
/// interned types able to implement type `r`, itself included. Interned
/// ids are equal exactly when the types are.
fn extend_compat_types(compat: &mut Vec<Vec<ResourceTypeId>>, interner: &Interner) {
    let (old, n) = (compat.len(), interner.num_types());
    compat.resize(n, Vec::new());
    for (r, list) in compat.iter_mut().enumerate() {
        let required = interner.ty(ResourceTypeId(r as u32));
        // an old type need only meet the new ones
        for t in if r < old { old..n } else { 0..n } {
            let id = ResourceTypeId(t as u32);
            if type_can_implement(required, interner.ty(id)) {
                list.push(id);
            }
        }
    }
}

/// Sets bit `l` of a bitset, growing it to cover `l`.
fn set_bit(bits: &mut Vec<u64>, l: usize) {
    if l / 64 >= bits.len() {
        bits.resize(l / 64 + 1, 0);
    }
    bits[l / 64] |= 1 << (l % 64);
}

/// Where a placement attempt binds: the region, the control step, its
/// folded state, and the number of folded states (the busy table's
/// stride).
#[derive(Clone, Copy, Debug)]
struct Slot {
    region: u32,
    state: u32,
    folded: u32,
    fold_states: u32,
}

/// What a placement scan found. The scan reports its reasons as a [`Span`]
/// of the region's reason arena; the walk oracle reports a restraint list.
#[derive(Clone, Debug, PartialEq)]
enum Scan<R = Span> {
    /// The region-local instance to bind, with the op's arrival and slack
    /// on it.
    Bound {
        local: u32,
        arrival: f64,
        slack: f64,
    },
    /// Nothing to bind: the counted reasons, and whether any compatible
    /// instance was allowed at all.
    Failed { reasons: R, tried_any: bool },
}

/// The set bits of word `w` of a bitset, as ascending indices.
fn ones(w: usize, word: u64) -> impl Iterator<Item = usize> {
    let mut rest = word;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let b = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            w * 64 + b
        })
    })
}

/// The popcount and the first set bit of a bitset, taken word by word in
/// ascending order.
#[derive(Clone, Copy, Debug, Default)]
struct Bits {
    count: u32,
    first: Option<usize>,
}

impl Bits {
    fn add(&mut self, w: usize, word: u64) {
        self.count += word.count_ones();
        if self.first.is_none() && word != 0 {
            self.first = Some(w * 64 + word.trailing_zeros() as usize);
        }
    }
}

/// One compatible type's part in a placement attempt: the type's allowed
/// instances split into busy and free, and the op's arrival and slack on
/// the type, computed once it has a free instance.
#[derive(Clone, Copy, Debug)]
struct TypeTally {
    tid: ResourceTypeId,
    busy: Bits,
    free: Bits,
    timing: Option<(f64, f64)>,
}

/// One entry of a region's reason arena: part of why a failed placement
/// attempt bound nothing. An attempt's entries are contiguous, and the op
/// they belong to is the one whose `last_reasons` spans them.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Reason {
    /// That many allowed instances of the type were busy.
    Busy(ResourceTypeId, u32),
    /// That many free candidates missed the clock by the slack, in ps.
    Slow(f64, u32),
    /// Binding the op to the instance would close a combinational cycle.
    Cycle(ResourceInstanceId),
    /// The window of the op's SCC, of this index, closes in the state.
    Window(u32),
}

impl Reason {
    /// The public restraint this entry of `op`'s attempt stands for.
    fn restraint(self, op: OpId, interner: &Interner) -> Restraint {
        match self {
            Reason::Busy(tid, instances) => Restraint::ResourceContention {
                op,
                ty: interner.ty(tid).clone(),
                instances,
            },
            Reason::Slow(slack_ps, instances) => Restraint::NegativeSlack {
                op,
                slack_ps,
                instances,
            },
            Reason::Cycle(resource) => Restraint::CombCycle { op, resource },
            Reason::Window(scc) => Restraint::SccWindow {
                scc_index: scc as usize,
                op,
            },
        }
    }
}

/// Counts `r` into the failed attempt whose entries start at `from` of the
/// arena: a busy type or a slack adds its count to the attempt's entry for
/// the same type or slack bits, if there is one; anything else is
/// appended. These are the rules by which a restraint list is counted
/// (`relax::count_contention` and `count_slack`), so the entries keep
/// their first-appearance order.
fn count_reason(arena: &mut Vec<Reason>, from: usize, r: Reason) {
    for e in &mut arena[from..] {
        match (e, r) {
            (Reason::Busy(t, n), Reason::Busy(tid, more)) if *t == tid => {
                *n += more;
                return;
            }
            (Reason::Slow(s, n), Reason::Slow(slack, more)) if s.to_bits() == slack.to_bits() => {
                *n += more;
                return;
            }
            _ => {}
        }
    }
    arena.push(r);
}

/// A failed attempt's entries in its region's reason arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Span {
    start: usize,
    end: usize,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// Why an unplaced op is in its region's failure-report fragment.
#[derive(Clone, Copy, Debug)]
enum Fail {
    /// The reasons of its latest failed attempt.
    Attempted(Span),
    /// Never attempted: a region-crossing value it reads is registered in
    /// the final state.
    StateExhausted,
    /// Never considered: its pin refused every state it was ready in.
    Pin(PinnedState),
    /// Never attempted otherwise: reported as contention for its own
    /// type, if it has one.
    Starved,
}

/// Where a control step began: the lengths of the undo journal and of the
/// reason arena.
#[derive(Clone, Copy, Debug)]
struct Mark {
    journal: usize,
    reasons: usize,
}

/// One placed operation: its control step, binding and output arrival time.
#[derive(Clone, Copy, Debug, PartialEq)]
struct PlacedOp {
    state: u32,
    resource: Option<ResourceInstanceId>,
    arrival: f64,
}

/// The mutable per-region pass state — everything a control step's decisions
/// inside one region can read or write. Every write goes through the
/// region's undo journal (see [`RegionRt::rewind`]); the busy table and
/// combinational graph are derived from `placed` and rebuilt instead.
/// All vectors are indexed by the *region-local* op index except
/// `scc_dyn_stage`, which stays global-SCC-indexed (an SCC is always wholly
/// inside one region, so only its owner ever reads or writes its entry).
#[cfg_attr(test, derive(Clone, PartialEq))]
struct RegionFrame {
    placed: Vec<Option<PlacedOp>>,
    num_placed: usize,
    scc_dyn_stage: Vec<Option<u32>>,
    /// The span of the reason arena recorded by the op's latest failed
    /// binding attempt; `None` means the op was never attempted (the
    /// failure report treats an attempted-but-reasonless op differently
    /// from a never-attempted one).
    last_reasons: Vec<Option<Span>>,
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

    /// Refills the frame as [`RegionFrame::fresh`] builds it, in place.
    fn reset(&mut self, scc_stage_input: &[Option<u32>]) {
        self.placed.fill(None);
        self.num_placed = 0;
        self.scc_dyn_stage.clear();
        self.scc_dyn_stage.extend_from_slice(scc_stage_input);
        self.last_reasons.fill(None);
        self.first_considered.fill(None);
        self.min_slack = f64::INFINITY;
    }

    /// Reverts one journaled write.
    fn undo(&mut self, entry: Undo) {
        match entry {
            Undo::Placed { l, min_slack } => {
                self.placed[l as usize] = None;
                self.num_placed -= 1;
                self.min_slack = min_slack;
            }
            Undo::Considered(l) => self.first_considered[l as usize] = None,
            Undo::Reasons(l, old) => self.last_reasons[l as usize] = old,
            Undo::Stage(i, old) => self.scc_dyn_stage[i as usize] = old,
        }
    }
}

/// One write to a [`RegionFrame`], with what it replaced.
enum Undo {
    /// `placed[l]` was set, and `min_slack` held this before it.
    Placed { l: u32, min_slack: f64 },
    /// `first_considered[l]` was set.
    Considered(u32),
    /// `last_reasons[l]` held this before the step's first write to it.
    Reasons(u32, Option<Span>),
    /// `scc_dyn_stage[i]` held this.
    Stage(u32, Option<u32>),
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
    /// Per interned type, a bitset over the local instance indices with a
    /// bit for each of the region's instances of the type. Words past a
    /// bitset's end are zero.
    type_bits: Vec<Vec<u64>>,
    /// Datapath members per interned class (sharing-factor numerator).
    ops_per_class: Vec<usize>,
    /// Pool instances per interned class (sharing-factor denominator).
    insts_per_class: Vec<usize>,

    frame: RegionFrame,
    /// Every write to `frame` since the region last started from state 0.
    journal: Vec<Undo>,
    /// The reason arena: the entries of every failed attempt since the
    /// region last started from state 0, in attempt order, less those of
    /// the steps a rewind undid. `frame.last_reasons` spans it.
    reasons: Vec<Reason>,
    /// Per control step run, where it began in the journal and the arena.
    marks: Vec<Mark>,
    /// Earliest state the next pass must replay from; [`CLEAN`] = skip.
    resume: u32,
    /// Last published boundary interface: the state of each boundary op
    /// (`plan.regions[r].boundary` order), `None` while unplaced.
    iface: Vec<Option<u32>>,
    /// Cached failure-report fragment from the region's last run.
    fail: Vec<(OpId, Fail)>,
    /// The region's work over every pass so far.
    work: Work,

    // scratch reused across passes
    busy: Vec<Vec<OpId>>,
    /// Per folded state, `words` words over the local instance indices: a
    /// bit is set when that slot's busy list is non-empty.
    occupied: Vec<u64>,
    /// Words per instance bitset: the pool size rounded up to 64.
    words: usize,
    /// One attempt's candidates: allowed, free and timing-clean instances.
    cand: Vec<u64>,
    /// One attempt's forbidden instances.
    forbid: Vec<u64>,
    /// One attempt's tally per compatible type.
    tallies: Vec<TypeTally>,
    /// One failed attempt's reasons, keyed by the first instance each
    /// counts.
    met: Vec<(usize, Reason)>,
    /// One attempt's same-state, same-region producers' local instances.
    chain_from: Vec<u32>,
    /// What the walk oracle checked since the last pass was recorded.
    #[cfg(test)]
    coverage: oracle::Coverage,
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

    // the ready set: `consumers` is fixed, the rest is rebuilt per run
    /// Per local op, its same-region consumers' local indices, once per
    /// edge (as `PassStatics::producers` lists them).
    consumers: Vec<Vec<u32>>,
    /// Per local op, its position in `order`.
    rank: Vec<u32>,
    /// Per local op, its unplaced same-region producers, once per edge.
    waiting: Vec<u32>,
    /// Per local op, the first state its upstream-region producers allow
    /// (one past the latest one's state), [`NEVER`] while one is unplaced.
    release: Vec<u32>,
    /// A bitset over ranks: the unplaced ops with nothing `waiting`.
    ready_bits: Vec<u64>,
    /// The frame and the reason arena's length at the start of each step
    /// run, to check every rewind against.
    #[cfg(test)]
    clones: Vec<(RegionFrame, usize)>,
    /// The ops whose end-of-step refresh the last step skipped, which the
    /// next round must attempt.
    #[cfg(test)]
    skipped_refreshes: Vec<OpId>,
}

/// A [`RegionRt::release`] that no state reaches: an upstream producer is
/// unplaced.
const NEVER: u32 = u32::MAX;

impl RegionRt {
    /// Sets `first_considered[l]`, which is unset.
    fn consider(&mut self, l: usize, state: u32) {
        self.journal.push(Undo::Considered(l as u32));
        self.frame.first_considered[l] = Some(state);
    }

    /// Records the span of the arena holding op `l`'s failed attempt's
    /// reasons. Only the step's first write to the slot is journaled, since
    /// a rewind returns to the start of a step: a second attempt in one
    /// step is the end-of-step refresh of an op still marked `step_failed`,
    /// made only when the next step does not attempt the op first.
    fn record_failure(&mut self, l: usize, reasons: Span) {
        let old = self.frame.last_reasons[l].replace(reasons);
        if !self.step_failed[l] {
            self.journal.push(Undo::Reasons(l as u32, old));
        }
    }

    /// Sets the dynamic stage of SCC `i`.
    fn set_stage(&mut self, i: usize, stage: Option<u32>) {
        let old = std::mem::replace(&mut self.frame.scc_dyn_stage[i], stage);
        if old != stage {
            self.journal.push(Undo::Stage(i as u32, old));
        }
    }

    /// Places op `l`, folding the slack of a bound op into `min_slack`, and
    /// moves it out of the ready set; each same-region consumer it was the
    /// last unplaced producer of moves in, for the next round.
    fn place(&mut self, l: usize, placed: PlacedOp, slack: Option<f64>) {
        let frame = &mut self.frame;
        self.journal.push(Undo::Placed {
            l: l as u32,
            min_slack: frame.min_slack,
        });
        frame.placed[l] = Some(placed);
        frame.num_placed += 1;
        if let Some(slack) = slack {
            frame.min_slack = frame.min_slack.min(slack);
        }
        let rank = self.rank[l] as usize;
        self.ready_bits[rank / 64] &= !(1 << (rank % 64));
        for &c in &self.consumers[l] {
            let c = c as usize;
            self.waiting[c] -= 1;
            if self.waiting[c] == 0 {
                set_bit(&mut self.ready_bits, self.rank[c] as usize);
            }
        }
    }

    /// Undoes the journal back to the start of step `state`, which ran, and
    /// drops the reasons recorded since.
    fn rewind(&mut self, state: u32) {
        let mark = self.marks[state as usize];
        self.marks.truncate(state as usize);
        for entry in self.journal.drain(mark.journal..).rev() {
            self.frame.undo(entry);
        }
        self.reasons.truncate(mark.reasons);
    }

    /// Starts the region again from state 0.
    fn reset(&mut self, scc_stage_input: &[Option<u32>]) {
        self.frame.reset(scc_stage_input);
        self.journal.clear();
        self.reasons.clear();
        self.marks.clear();
        #[cfg(test)]
        self.clones.clear();
    }
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

/// Whether an op's pin and SCC window admit a state (see
/// [`Engine::admits`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Admits {
    /// Both admit it.
    Yes,
    /// The op's pin refuses it.
    Pin,
    /// The op's pin admits it and its SCC window refuses it.
    Window,
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
    /// Per interned type, the interned types able to implement it, itself
    /// included. A datapath op's compatible types are those of its
    /// required type.
    compat_types: Vec<Vec<ResourceTypeId>>,
    /// Global priority order (regions filter it to their members).
    order: Vec<OpId>,

    regions: Vec<RegionRt>,
    /// The relaxation action applied last, which the oracle's rewind
    /// coverage is counted by.
    #[cfg(test)]
    last_action: Option<RelaxAction>,
}

impl<'a> Engine<'a> {
    /// Construction over a region plan: the global resource set is the
    /// concatenation of per-region lower-bound pools, so binding never
    /// contends across regions. The trivial single-region plan's one pool
    /// is `initial_resource_set` over the whole body.
    pub(crate) fn new_with_plan(
        body: &'a LinearBody,
        lib: &'a TechLibrary,
        config: &'a SchedulerConfig,
        sccs: &'a [Scc],
        plan: RegionPlan,
        slots_per_instance: u32,
        latency: u32,
    ) -> Self {
        let (resources, inst_region) =
            crate::region::plan_resources(body, &plan, slots_per_instance);
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
            let consumers = region_consumers(&statics, &plan, ri);
            regions.push(RegionRt {
                frame: RegionFrame::fresh(members.len(), &scc_stage_input),
                members,
                order: std::mem::take(&mut region_orders[ri]),
                insts: std::mem::take(&mut insts_by_region[ri]),
                type_bits: Vec::new(),
                ops_per_class,
                insts_per_class: std::mem::take(&mut insts_per_class_by_region[ri]),
                journal: Vec::new(),
                reasons: Vec::new(),
                marks: Vec::new(),
                resume: 0,
                iface: vec![None; info.boundary.len()],
                fail: Vec::new(),
                work: Work::default(),
                busy: Vec::new(),
                occupied: Vec::new(),
                words: 0,
                cand: Vec::new(),
                forbid: Vec::new(),
                tallies: Vec::new(),
                met: Vec::new(),
                chain_from: Vec::new(),
                #[cfg(test)]
                coverage: oracle::Coverage::default(),
                comb_succ: Vec::new(),
                comb_mark: Vec::new(),
                comb_epoch: 0,
                comb_stack: Vec::new(),
                ready: Vec::with_capacity(regions_capacity_hint(n, num_regions)),
                in_arrivals: Vec::with_capacity(8),
                step_failed: vec![false; info.ops.len()],
                step_fails: Vec::new(),
                consumers,
                rank: Vec::new(),
                waiting: Vec::new(),
                release: Vec::new(),
                ready_bits: Vec::new(),
                #[cfg(test)]
                clones: Vec::new(),
                #[cfg(test)]
                skipped_refreshes: Vec::new(),
            });
        }

        for rt in &mut regions {
            for (l, inst) in rt.insts.iter().enumerate() {
                let tid = inst_type_ids[inst.index()].index();
                if tid >= rt.type_bits.len() {
                    rt.type_bits.resize(tid + 1, Vec::new());
                }
                set_bit(&mut rt.type_bits[tid], l);
            }
        }
        let mut compat_types = Vec::new();
        extend_compat_types(&mut compat_types, &interner);

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
            compat_types,
            order,
            regions,
            #[cfg(test)]
            last_action: None,
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
        for rt in &mut self.regions {
            rt.reset(&self.scc_stage_input);
            rt.resume = 0;
            rt.iface = vec![None; rt.iface.len()];
            rt.fail.clear();
        }
    }

    /// The SCC stage inputs, dense over SCC index.
    pub(crate) fn scc_stage(&self) -> &[Option<u32>] {
        &self.scc_stage_input
    }

    /// Applies a relaxation action, dirtying exactly the regions whose next
    /// pass can observe it (each region tracks its own resume watermark).
    /// `restraints` is the failed pass's restraint list — `AddResource`
    /// derives the owning region from the restraint that provoked it.
    pub(crate) fn apply(&mut self, action: &RelaxAction, restraints: &[Restraint]) {
        #[cfg(test)]
        {
            self.last_action = Some(action.clone());
        }
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
    /// mobility: [`priority_flips`] reorders the priority order in one walk
    /// over its complexity groups, without a sort. A region whose order
    /// keeps every pair that can meet in a ready list continues from its
    /// final state; the others resume at the first state where a swapped
    /// pair can meet.
    fn add_state(&mut self) {
        let old_latency = self.latency;
        self.latency += 1;
        let flips = priority_flips(&self.statics, &mut self.order, old_latency);
        #[cfg(test)]
        assert!(
            self.order == order_for(&self.statics, self.latency),
            "the reordered priority order differs from the sorted one at latency {}",
            self.latency
        );
        if flips.is_empty() {
            for rt in &mut self.regions {
                rt.resume = rt.resume.min(old_latency);
            }
            return;
        }
        let region_of = &self.plan.region_of;
        for rt in &mut self.regions {
            rt.order.clear();
        }
        for &op in &self.order {
            self.regions[region_of[op.index()] as usize].order.push(op);
        }
        let mut region_flips: Vec<Vec<Flip>> = vec![Vec::new(); self.regions.len()];
        for f in flips {
            region_flips[region_of[f.op.index()] as usize].push(f);
        }
        let local_of = &self.plan.local_of;
        for (rt, flips) in self.regions.iter_mut().zip(region_flips) {
            let frame = &rt.frame;
            let resume = flip_resume(&flips, |op| {
                let l = local_of[op.index()] as usize;
                let to = frame.placed[l].map_or(old_latency - 1, |p| p.state);
                frame.first_considered[l].map(|from| (from, to))
            });
            rt.resume = rt.resume.min(resume.unwrap_or(old_latency));
        }
    }

    /// Adds one fresh instance of `ty` to `owner`'s pool, extending the
    /// interner tables, the compatible types of every type the new one can
    /// implement if it is new, and the region's type bitset, and rewinding
    /// the region's resume watermark to the first state where a member of
    /// the matching class was considered.
    fn add_instance(&mut self, ty: &ResourceType, owner: u32) {
        let inst_id = self.resources.add(ty.clone());
        let cid = self.interner.class_id(&ty.class);
        let tid = self.interner.type_id(ty);
        if tid.index() >= self.statics.type_delay.len() {
            self.statics.type_delay.push(self.lib.delay_ps(ty));
            self.statics.type_width.push(ty.max_width());
        }
        extend_compat_types(&mut self.compat_types, &self.interner);
        self.inst_type_ids.push(tid);
        let local_of = &self.plan.local_of;
        let rt = &mut self.regions[owner as usize];
        let local = rt.insts.len();
        self.inst_local.push(local as u32);
        rt.insts.push(inst_id);
        if tid.index() >= rt.type_bits.len() {
            rt.type_bits.resize(tid.index() + 1, Vec::new());
        }
        set_bit(&mut rt.type_bits[tid.index()], local);
        if cid.index() >= rt.insts_per_class.len() {
            rt.insts_per_class.resize(cid.index() + 1, 0);
        }
        rt.insts_per_class[cid.index()] += 1;
        let mut resume = None;
        for &g in &rt.members {
            let i = g as usize;
            if self.statics.class_id[i] == Some(cid) {
                resume = min_opt(resume, rt.frame.first_considered[local_of[i] as usize]);
            }
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

    /// Whether op `i`'s pin and SCC window admit `state`, the pin checked
    /// first. The window is the one `dyn_stage` gives the op's SCC; an SCC
    /// with no stage yet admits every state.
    fn admits(&self, i: usize, state: u32, dyn_stage: &[Option<u32>], ii: u32) -> Admits {
        let pin = self.statics.pin[i];
        if pin.is_some_and(|pin| !pin.allows(hls_ir::StateIdx::new(state))) {
            return Admits::Pin;
        }
        let scc = self.statics.scc_of[i];
        let window = scc.and_then(|scc| self.scc_window(scc as usize, dyn_stage, ii));
        if window.is_some_and(|(lo, hi)| state < lo || state > hi) {
            return Admits::Window;
        }
        Admits::Yes
    }

    /// Rebuilds one region's busy table, occupancy bitsets and
    /// combinational graph from its current placement (they are pure
    /// functions of it). Only same-region producer/consumer pairs can chain
    /// combinationally: a cross-region value is registered by the cut rule,
    /// so it never shares a state.
    fn rebuild_derived(&self, cur: &mut RegionRt, fold_states: u32, ii: u32) {
        let slots = cur.insts.len() * fold_states as usize;
        for b in &mut cur.busy {
            b.clear();
        }
        if cur.busy.len() < slots {
            cur.busy.resize_with(slots, Vec::new);
        }
        cur.words = cur.insts.len().div_ceil(64);
        cur.occupied.clear();
        cur.occupied.resize(fold_states as usize * cur.words, 0);
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
                let local = self.inst_local[r.index()] as usize;
                let folded = self.fold(p.state, ii) as usize;
                cur.busy[local * fold_states as usize + folded].push(OpId::from_raw(g));
                cur.occupied[folded * cur.words + local / 64] |= 1 << (local % 64);
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

    /// Rebuilds one region's ready set from its current placement: every
    /// op's rank, unplaced same-region producers and upstream release
    /// state, and the ready bitset. Every same-region producer placed so
    /// far is in an earlier state than any the run schedules, so it allows
    /// chaining in all of them; an upstream producer allows the states
    /// after its own, and upstream regions do not move while this one runs.
    fn rebuild_ready(&self, base: u32, ridx: u32, cur: &mut RegionRt, done: &[RegionRt]) {
        let n_local = cur.members.len();
        cur.rank.resize(n_local, 0);
        for (k, op) in cur.order.iter().enumerate() {
            cur.rank[self.plan.local_of[op.index()] as usize] = k as u32;
        }
        cur.waiting.clear();
        cur.waiting.resize(n_local, 0);
        cur.release.clear();
        cur.release.resize(n_local, 0);
        cur.ready_bits.clear();
        cur.ready_bits.resize(n_local.div_ceil(64), 0);
        for (l, &g) in cur.members.iter().enumerate() {
            if cur.frame.placed[l].is_some() {
                continue;
            }
            let (mut waiting, mut release) = (0, 0);
            for p in self.statics.producers(g as usize) {
                let pr = self.plan.region_of[p.index()];
                let pl = self.plan.local_of[p.index()] as usize;
                if pr == ridx {
                    waiting += u32::from(cur.frame.placed[pl].is_none());
                } else {
                    let placed = done[(pr - base) as usize].frame.placed[pl];
                    release = release.max(placed.map_or(NEVER, |sp| sp.state + 1));
                }
            }
            cur.waiting[l] = waiting;
            cur.release[l] = release;
            if waiting == 0 {
                set_bit(&mut cur.ready_bits, cur.rank[l] as usize);
            }
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
        #[cfg(test)]
        oracle::record(&mut regions);
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

    /// Runs one region's pass from its resume watermark, rewinding the
    /// journal when resuming mid-schedule, and refreshes its cached
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
            cur.reset(&self.scc_stage_input);
        } else if (resume as usize) < cur.marks.len() {
            cur.rewind(resume);
            #[cfg(test)]
            oracle::check_rewind(self, cur, resume);
            // re-apply the (possibly updated) input stage pins; for sccs
            // whose input is unchanged this is a no-op
            for (i, stage) in self.scc_stage_input.iter().enumerate() {
                if stage.is_some() {
                    cur.set_stage(i, *stage);
                }
            }
        }
        // otherwise continue from the live frame (AddState append): the
        // marks of the existing states remain valid
        self.rebuild_derived(cur, fold_states, ii);
        self.rebuild_ready(base, ridx, cur, done);

        // --- control steps ---------------------------------------------------
        // Within a step the busy table and the combinational graph only
        // grow, and an op's input arrivals are fixed once its inputs are
        // ready, so an op whose placement failed fails again in every later
        // round of the step; it is not retried. (A condition placed later in
        // the step can make a shared instance steerable for a predicated op;
        // it still waits for a later step.) The step's last round places
        // nothing, and the failure report sees the restraints of each failed
        // op's last attempt. So after the step a failed op's restraints are
        // recomputed, if something was placed since its attempt and nothing
        // overwrites them first: the next step's first round attempts the
        // op again when that state exists and the op's pin and SCC window
        // admit it, since its inputs stay ready.
        let order = std::mem::take(&mut cur.order);
        for state in resume..latency {
            debug_assert_eq!(cur.marks.len(), state as usize);
            cur.marks.push(Mark {
                journal: cur.journal.len(),
                reasons: cur.reasons.len(),
            });
            #[cfg(test)]
            cur.clones.push((cur.frame.clone(), cur.reasons.len()));
            cur.work.steps += 1;
            loop {
                // ready operations, already in priority order
                let mut ready = std::mem::take(&mut cur.ready);
                ready.clear();
                #[cfg(test)]
                let considered = cur.frame.first_considered.clone();
                for w in 0..cur.ready_bits.len() {
                    for rank in ones(w, cur.ready_bits[w]) {
                        let op_id = order[rank];
                        let i = op_id.index();
                        let l = self.plan.local_of[i] as usize;
                        // A failed op would still be ready: SCC members need
                        // no exception, since a first placement in this step
                        // pins an SCC window that contains this step.
                        if cur.step_failed[l] || cur.release[l] > state {
                            continue;
                        }
                        let admits = self.admits(i, state, &cur.frame.scc_dyn_stage, ii);
                        if admits == Admits::Pin {
                            continue;
                        }
                        if cur.frame.first_considered[l].is_none() {
                            cur.consider(l, state);
                        }
                        if admits == Admits::Yes {
                            ready.push(op_id);
                        }
                    }
                }
                #[cfg(test)]
                oracle::check_ready(
                    self, base, ridx, cur, done, &order, state, ii, considered, &ready,
                );

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
                        false,
                    ) {
                        Attempt::Placed => placed_any = true,
                        Attempt::Failed => {
                            cur.step_failed[self.plan.local_of[op_id.index()] as usize] = true;
                            cur.step_fails.push((op_id, cur.frame.num_placed));
                        }
                        Attempt::NotReady => {}
                    }
                }
                #[cfg(test)]
                oracle::check_skipped_refreshes(self, cur, &ready);
                cur.ready = ready;
                if !placed_any {
                    break;
                }
            }
            let mut fails = std::mem::take(&mut cur.step_fails);
            for &(op_id, placed_then) in &fails {
                let i = op_id.index();
                if cur.frame.num_placed > placed_then {
                    let next = (state + 1 < latency)
                        .then(|| self.admits(i, state + 1, &cur.frame.scc_dyn_stage, ii));
                    #[cfg(test)]
                    oracle::count_refresh(cur, op_id, next);
                    if next != Some(Admits::Yes) {
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
                            true,
                        );
                        debug_assert_eq!(
                            refresh,
                            Attempt::Failed,
                            "a failed placement succeeded later in its step"
                        );
                    }
                }
                cur.step_failed[self.plan.local_of[i] as usize] = false;
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
                if let Some(span) = cur.frame.last_reasons[l] {
                    cur.fail.push((id, Fail::Attempted(span)));
                } else {
                    // never attempted: distinguish "a region-crossing value
                    // is registered in the final state, so readiness needs a
                    // state that does not exist" and "the pin refused every
                    // state the op was ready in" (a pinned op never
                    // considered) from plain starvation
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
                    let pin = self.statics.pin[i];
                    let considered = cur.frame.first_considered[l].is_some();
                    let fail = if blocked {
                        Fail::StateExhausted
                    } else if let Some(pin) = pin.filter(|_| !considered) {
                        Fail::Pin(pin)
                    } else {
                        Fail::Starved
                    };
                    cur.fail.push((id, fail));
                }
            }
        }
    }

    /// Attempts to place one ready operation in `state`. Mirrors the
    /// original pass body exactly, with the registered cut rule applied to
    /// cross-region inputs. `refresh` marks an end-of-step recomputation of
    /// a failed op's restraints.
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
        refresh: bool,
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
            let placed = PlacedOp {
                state,
                resource: None,
                arrival: a,
            };
            cur.place(l, placed, None);
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
        let base_a = in_arrivals.iter().copied().fold(0.0f64, f64::max);
        let at = Slot {
            region: ridx,
            state,
            folded: self.fold(state, ii),
            fold_states,
        };
        #[cfg(test)]
        let walked = self.walk(cur, op_id, at, base_a, share, sharing);
        let scan = self.scan(cur, op_id, at, base_a, share, sharing);
        #[cfg(test)]
        oracle::check(self, cur, op_id, at, walked, &scan);
        let outcome = match scan {
            // A condition placed since the op's attempt in this step made a
            // shared instance steerable: the op keeps that attempt's
            // restraints and waits for a later step.
            Scan::Bound { .. } if refresh => {
                debug_assert!(
                    !self.statics.pred_lits[i].lits.is_empty(),
                    "a failed placement succeeded later in its step"
                );
                Attempt::Failed
            }
            Scan::Bound {
                local,
                arrival,
                slack,
            } => {
                let local = local as usize;
                // the scan left the op's chained producers in `chain_from`
                for &from in &cur.chain_from {
                    comb_add_edge(&mut cur.comb_succ, from, local as u32);
                }
                cur.busy[local * fold_states as usize + at.folded as usize].push(op_id);
                cur.occupied[at.folded as usize * cur.words + local / 64] |= 1 << (local % 64);
                let placed = PlacedOp {
                    state,
                    resource: Some(cur.insts[local]),
                    arrival,
                };
                cur.place(l, placed, Some(slack));
                // pin the SCC stage on first placement
                if let Some(scc) = self.statics.scc_of[i] {
                    if cur.frame.scc_dyn_stage[scc as usize].is_none() {
                        cur.set_stage(scc as usize, Some(state / ii));
                    }
                }
                Attempt::Placed
            }
            Scan::Failed {
                mut reasons,
                tried_any,
            } => {
                // the scan's entries end the arena; this attempt's other
                // reasons join them
                let from = reasons.start;
                let required = self.statics.required_type_id[i].expect("datapath op has a type");
                // If every instance was busy, also check whether a brand new
                // instance would have met timing; if not, the real problem
                // is slack, not hardware.
                if cur.reasons[from..]
                    .iter()
                    .all(|r| matches!(r, Reason::Busy(..)))
                {
                    let (_, slack) = self.arrival_slack(base_a, share, required, op.width, sharing);
                    if slack < 0.0 {
                        count_reason(&mut cur.reasons, from, Reason::Slow(slack, 1));
                    }
                }
                // No allowed instance at all (none compatible, or every
                // compatible one forbidden): the fix is more hardware.
                if !tried_any {
                    count_reason(&mut cur.reasons, from, Reason::Busy(required, 1));
                }
                if let Some(scc) = self.statics.scc_of[i] {
                    if self
                        .scc_window(scc as usize, &cur.frame.scc_dyn_stage, ii)
                        .map(|(_, hi)| state >= hi)
                        .unwrap_or(false)
                    {
                        cur.reasons.push(Reason::Window(scc));
                    }
                }
                reasons.end = cur.reasons.len();
                cur.record_failure(l, reasons);
                Attempt::Failed
            }
        };
        cur.in_arrivals = in_arrivals;
        outcome
    }

    /// Arrival and slack of an op whose inputs arrive at `base_a` on an
    /// instance of type `tid` shared `share` ways (mirrors
    /// `ChainTiming::op_arrival_ps` over the interned per-type delay and
    /// width tables — no type hashing).
    fn arrival_slack(
        &self,
        base_a: f64,
        share: usize,
        tid: ResourceTypeId,
        width: u16,
        sharing: bool,
    ) -> (f64, f64) {
        let a = base_a
            + self
                .timing
                .input_mux_delay_ps(share, self.statics.type_width[tid.index()])
            + self.statics.type_delay[tid.index()];
        (a, self.timing.slack_shared_ps(a, width, sharing))
    }

    /// Whether binding `op_id` in `at` on the occupied local instance `l`
    /// conflicts with an op already there. Mutually exclusive predicated
    /// ops may share, but only within the *same* control step — in a
    /// folded pipeline equivalent states belong to different stages, whose
    /// predicates guard different iterations, so cross-stage "mutual
    /// exclusion" would not hold in hardware (the binder rejects such slots
    /// as unsteerable) — and only when both are [`steerable`](Self::steerable)
    /// there.
    fn busy_conflict(&self, cur: &RegionRt, op_id: OpId, at: Slot, l: usize) -> bool {
        let slot = l * at.fold_states as usize + at.folded as usize;
        cur.busy[slot].iter().any(|other| {
            let ol = self.plan.local_of[other.index()] as usize;
            !cur.frame.placed[ol].is_some_and(|p| p.state == at.state)
                || !self.statics.pred_lits[other.index()]
                    .mutually_exclusive(&self.statics.pred_lits[op_id.index()])
                || !self.steerable(cur, op_id, at.state)
                || !self.steerable(cur, *other, at.state)
        })
    }

    /// Whether every condition of `op`'s predicate is placed in this region
    /// no later than `state`. A shared instance is steered by the
    /// conditions of the ops it executes, so they must be known in the
    /// step (the binder refuses the slot as unsteerable otherwise); a
    /// condition in another region counts as unknown.
    fn steerable(&self, cur: &RegionRt, op: OpId, state: u32) -> bool {
        self.statics.pred_lits[op.index()]
            .lits
            .iter()
            .all(|&(cond, _, _)| {
                let cl = self.plan.local_of[cond.index()] as usize;
                cur.members.get(cl) == Some(&(cond.index() as u32))
                    && cur.frame.placed[cl].is_some_and(|p| p.state <= state)
            })
    }

    /// The placement scan: binds `op_id` to the lowest-indexed compatible
    /// instance that is allowed, free in `at`, meets timing and closes no
    /// combinational cycle, or says why none does. Per compatible type it
    /// reads the type's bitset, masks forbidden instances and intersects
    /// the folded state's occupancy; arrival and slack depend on the type
    /// alone, so they are computed once, when the type has a free instance.
    /// Only the free instances of timing-clean types reach the cycle check.
    /// The restraints are counted as a walk over the pool in ascending
    /// local index would count them, in the order it would first meet them.
    fn scan(
        &self,
        cur: &mut RegionRt,
        op_id: OpId,
        at: Slot,
        base_a: f64,
        share: usize,
        sharing: bool,
    ) -> Scan {
        let i = op_id.index();
        let op = self.body.dfg.op(op_id);
        let words = cur.words;
        let mut forbid = std::mem::take(&mut cur.forbid);
        forbid.clear();
        if !self.forbidden[i].is_empty() {
            forbid.resize(words, 0);
        }
        for f in &self.forbidden[i] {
            // an id outside this region's pool is never compatible
            if let Some(&fl) = self.inst_local.get(f.index()) {
                let fl = fl as usize;
                if cur.insts.get(fl) == Some(f) {
                    forbid[fl / 64] |= 1 << (fl % 64);
                }
            }
        }
        let mut cand = std::mem::take(&mut cur.cand);
        cand.clear();
        cand.resize(words, 0);
        let mut tallies = std::mem::take(&mut cur.tallies);
        tallies.clear();
        let occupied = &cur.occupied[at.folded as usize * words..][..words];
        let required = self.statics.required_type_id[i].expect("datapath op has a type");
        for &tid in &self.compat_types[required.index()] {
            // most interned types have no instance in a given pool
            let Some(bits) = cur.type_bits.get(tid.index()).filter(|b| !b.is_empty()) else {
                continue;
            };
            let mut tally = TypeTally {
                tid,
                busy: Bits::default(),
                free: Bits::default(),
                timing: None,
            };
            for (w, &word) in bits.iter().enumerate() {
                let allowed = word & !forbid.get(w).copied().unwrap_or(0);
                let mut busy = allowed & occupied[w];
                // only a predicated op can share an occupied instance
                if !self.statics.pred_lits[i].is_true {
                    for l in ones(w, busy) {
                        if !self.busy_conflict(cur, op_id, at, l) {
                            busy &= !(1 << (l % 64));
                        }
                    }
                }
                let free = allowed & !busy;
                tally.busy.add(w, busy);
                tally.free.add(w, free);
                if free != 0 {
                    let (_, slack) = *tally.timing.get_or_insert_with(|| {
                        self.arrival_slack(base_a, share, tid, op.width, sharing)
                    });
                    let misses_clock = slack < 0.0;
                    if !misses_clock {
                        cand[w] |= free;
                    }
                }
            }
            tallies.push(tally);
        }
        // same-state producers in the op's region, bound to an instance:
        // binding the op chains each of them into it (a value from another
        // region is registered)
        let mut chain_from = std::mem::take(&mut cur.chain_from);
        chain_from.clear();
        if cand.iter().any(|&word| word != 0) {
            for sig in op.inputs.iter().filter(|sig| sig.distance == 0) {
                let Some(p) = sig.producer() else { continue };
                if self.plan.region_of[p.index()] != at.region {
                    continue;
                }
                if let Some(sp) = cur.frame.placed[self.plan.local_of[p.index()] as usize] {
                    if let Some(rp) = sp.resource.filter(|_| sp.state == at.state) {
                        chain_from.push(self.inst_local[rp.index()]);
                    }
                }
            }
        }
        let candidates = || cand.iter().enumerate().flat_map(|(w, &word)| ones(w, word));
        let bound = candidates().find(|&l| {
            !chain_from.iter().any(|&from| {
                comb_would_create_cycle(
                    &cur.comb_succ,
                    &mut cur.comb_mark,
                    &mut cur.comb_epoch,
                    &mut cur.comb_stack,
                    from,
                    l as u32,
                )
            })
        });
        let scan = match bound {
            Some(local) => {
                let tid = self.inst_type_ids[cur.insts[local].index()];
                let (arrival, slack) = tallies
                    .iter()
                    .find(|t| t.tid == tid)
                    .and_then(|t| t.timing)
                    .expect("a candidate's type has a free instance");
                Scan::Bound {
                    local: local as u32,
                    arrival,
                    slack,
                }
            }
            None => {
                // every candidate closes a cycle; count the reasons into
                // the arena in the order of the first instance each counts
                let mut met = std::mem::take(&mut cur.met);
                met.clear();
                for t in &tallies {
                    met.extend(t.busy.first.map(|l| (l, Reason::Busy(t.tid, t.busy.count))));
                    if let (Some(l), Some((_, slack))) = (t.free.first, t.timing) {
                        if slack < 0.0 {
                            met.push((l, Reason::Slow(slack, t.free.count)));
                        }
                    }
                }
                met.extend(candidates().map(|l| (l, Reason::Cycle(cur.insts[l]))));
                met.sort_unstable_by_key(|&(l, _)| l);
                let from = cur.reasons.len();
                for &(_, r) in &met {
                    count_reason(&mut cur.reasons, from, r);
                }
                cur.met = met;
                Scan::Failed {
                    reasons: Span {
                        start: from,
                        end: cur.reasons.len(),
                    },
                    tried_any: tallies.iter().any(|t| t.busy.count + t.free.count > 0),
                }
            }
        };
        cur.forbid = forbid;
        cur.cand = cand;
        cur.tallies = tallies;
        cur.chain_from = chain_from;
        scan
    }

    /// The per-instance walk that [`Engine::scan`] replaced, kept as its
    /// oracle: every compatible instance of the pool in ascending local
    /// index, checked in turn for a forbidden binding, a busy slot, timing
    /// and a combinational cycle, with the restraints counted as it goes.
    /// It binds nothing; `try_place` asserts that the scan finds the same,
    /// with the scan's arena entries built into restraints.
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    fn walk(
        &self,
        cur: &mut RegionRt,
        op_id: OpId,
        at: Slot,
        base_a: f64,
        share: usize,
        sharing: bool,
    ) -> Scan<Vec<Restraint>> {
        let i = op_id.index();
        let op = self.body.dfg.op(op_id);
        let required = self.statics.required_ty[i].as_ref().expect("datapath op");
        let mut reasons: Vec<Restraint> = Vec::new();
        let mut tried_any = false;
        for local in 0..cur.insts.len() {
            let res_id = cur.insts[local];
            let ty = &self.resources.instance(res_id).ty;
            if !type_can_implement(required, ty) || self.forbidden[i].contains(&res_id) {
                continue;
            }
            tried_any = true;
            let slot = local * at.fold_states as usize + at.folded as usize;
            let conflict = cur.busy[slot].iter().any(|other| {
                let ol = self.plan.local_of[other.index()] as usize;
                !cur.frame.placed[ol].is_some_and(|p| p.state == at.state)
                    || !self.statics.pred_lits[other.index()]
                        .mutually_exclusive(&self.statics.pred_lits[i])
                    || !self.steerable(cur, op_id, at.state)
                    || !self.steerable(cur, *other, at.state)
            });
            if conflict {
                count_contention(&mut reasons, op_id, ty, 1);
                continue;
            }
            let tid = self.inst_type_ids[res_id.index()];
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
            let mut creates_cycle = false;
            for sig in &op.inputs {
                if sig.distance > 0 {
                    continue;
                }
                let Some(p) = sig.producer() else { continue };
                if self.plan.region_of[p.index()] != at.region {
                    continue;
                }
                if let Some(sp) = cur.frame.placed[self.plan.local_of[p.index()] as usize] {
                    if sp.state == at.state {
                        if let Some(rp) = sp.resource {
                            if comb_would_create_cycle(
                                &cur.comb_succ,
                                &mut cur.comb_mark,
                                &mut cur.comb_epoch,
                                &mut cur.comb_stack,
                                self.inst_local[rp.index()],
                                local as u32,
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
            return Scan::Bound {
                local: local as u32,
                arrival: a,
                slack,
            };
        }
        Scan::Failed { reasons, tried_any }
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
            // the public restraints are built here, from each region's
            // fragment and reason arena, and nowhere else
            let mut frags: Vec<(OpId, Fail, &RegionRt)> = regions
                .iter()
                .flat_map(|rt| rt.fail.iter().map(move |&(op, fail)| (op, fail, rt)))
                .collect();
            frags.sort_unstable_by_key(|&(op, ..)| op);
            let mut failure = PassFailure::default();
            for (op, fail, rt) in frags {
                failure.failed_ops.push(op);
                let restraints = &mut failure.restraints;
                match fail {
                    Fail::Attempted(span) => restraints.extend(
                        rt.reasons[span.range()]
                            .iter()
                            .map(|r| r.restraint(op, &self.interner)),
                    ),
                    Fail::StateExhausted => restraints.push(Restraint::StateExhausted { op }),
                    Fail::Pin(pin) => restraints.push(Restraint::PinUnreached { op, pin }),
                    Fail::Starved => {
                        if let Some(ty) = &self.statics.required_ty[op.index()] {
                            restraints.push(Restraint::ResourceContention {
                                op,
                                ty: ty.clone(),
                                instances: 1,
                            });
                        }
                    }
                }
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

/// Region `r`'s same-region consumer lists (see [`RegionRt::consumers`]).
fn region_consumers(statics: &PassStatics, plan: &RegionPlan, r: usize) -> Vec<Vec<u32>> {
    let members = &plan.regions[r].ops;
    let mut consumers = vec![Vec::new(); members.len()];
    for (l, &g) in members.iter().enumerate() {
        for p in statics.producers(g as usize) {
            if plan.region_of[p.index()] as usize == r {
                consumers[plan.local_of[p.index()] as usize].push(l as u32);
            }
        }
    }
    consumers
}

/// Ready-list capacity hint: an even split of the ops over the regions.
fn regions_capacity_hint(n: usize, num_regions: usize) -> usize {
    n / num_regions.max(1) + 1
}

/// The test-build oracles: the walk that checks every placement scan, the
/// full scan of the priority order that checks every ready list, the
/// cloned frames that check every rewind, and the coverage they report.
#[cfg(test)]
mod oracle {
    use super::*;
    use std::cell::Cell;

    /// What the oracles checked, in all and in the cases the bitsets and
    /// the journal handle apart from the plain one.
    #[derive(Clone, Copy, Debug, Default)]
    pub(crate) struct Coverage {
        pub(crate) attempts: u64,
        /// A compatible instance past the pool's first 64.
        pub(crate) wide: u64,
        /// A predicated op bound to an instance already occupied in its
        /// folded state.
        pub(crate) shared: u64,
        /// An op with a forbidden instance in its region's pool.
        pub(crate) forbidden: u64,
        /// Ready lists checked against the full scan.
        pub(crate) rounds: u64,
        /// An op whose upstream-region producers allow no state up to this
        /// one left out of a ready list.
        pub(crate) held: u64,
        /// An op with an upstream-region producer in a ready list.
        pub(crate) released: u64,
        /// An op left out because its pin does not allow the state.
        pub(crate) pin_skips: u64,
        /// An SCC member left out because the state is outside its window.
        pub(crate) window_skips: u64,
        /// An op left out because it failed earlier in the step.
        pub(crate) failed_skips: u64,
        /// Rewinds checked against a cloned frame, by the action applied
        /// last: `AddState`, `AddResource` or `AddResourceBatch`, `MoveScc`
        /// and `ForbidBinding`.
        pub(crate) rewinds: [u64; 4],
        /// End-of-step refreshes skipped because the next step's first
        /// round attempts the op again.
        pub(crate) refresh_skips: u64,
        /// End-of-step refreshes performed, in all and those forced by the
        /// op's pin or by its closing SCC window (the rest are in a
        /// region's final state).
        pub(crate) refreshes: u64,
        pub(crate) pin_refreshes: u64,
        pub(crate) window_refreshes: u64,
    }

    impl std::ops::AddAssign for Coverage {
        fn add_assign(&mut self, o: Coverage) {
            self.attempts += o.attempts;
            self.wide += o.wide;
            self.shared += o.shared;
            self.forbidden += o.forbidden;
            self.rounds += o.rounds;
            self.held += o.held;
            self.released += o.released;
            self.pin_skips += o.pin_skips;
            self.window_skips += o.window_skips;
            self.failed_skips += o.failed_skips;
            for (a, b) in self.rewinds.iter_mut().zip(o.rewinds) {
                *a += b;
            }
            self.refresh_skips += o.refresh_skips;
            self.refreshes += o.refreshes;
            self.pin_refreshes += o.pin_refreshes;
            self.window_refreshes += o.window_refreshes;
        }
    }

    thread_local! {
        static RECORDED: Cell<Coverage> = Cell::new(Coverage::default());
    }

    /// Asserts that the scan found what the walk did, with the restraints
    /// built from the arena entries the scan appended compared entry for
    /// entry with the walk's list, and counts the case.
    pub(super) fn check(
        engine: &Engine,
        cur: &mut RegionRt,
        op_id: OpId,
        at: Slot,
        walked: Scan<Vec<Restraint>>,
        scanned: &Scan,
    ) {
        let built = match *scanned {
            Scan::Bound {
                local,
                arrival,
                slack,
            } => Scan::Bound {
                local,
                arrival,
                slack,
            },
            Scan::Failed { reasons, tried_any } => {
                assert_eq!(
                    reasons.end,
                    cur.reasons.len(),
                    "the scan of {op_id} did not end the reason arena"
                );
                Scan::Failed {
                    reasons: cur.reasons[reasons.range()]
                        .iter()
                        .map(|r| r.restraint(op_id, &engine.interner))
                        .collect(),
                    tried_any,
                }
            }
        };
        assert_eq!(
            built, walked,
            "the bitset scan of {op_id} in state {} disagrees with the walk",
            at.state
        );
        let i = op_id.index();
        let cov = &mut cur.coverage;
        cov.attempts += 1;
        let required = engine.statics.required_type_id[i].expect("datapath op");
        let wide = engine.compat_types[required.index()].iter().any(|t| {
            cur.type_bits
                .get(t.index())
                .is_some_and(|b| b.iter().skip(1).any(|&w| w != 0))
        });
        cov.wide += u64::from(wide);
        if let Scan::Bound { local, .. } = scanned {
            let l = *local as usize;
            let word = cur.occupied[at.folded as usize * cur.words + l / 64];
            cov.shared += (word >> (l % 64)) & 1;
        }
        let forbidden = engine.forbidden[i]
            .iter()
            .any(|f| cur.insts.binary_search(f).is_ok());
        cov.forbidden += u64::from(forbidden);
    }

    /// Whether predecessor `p` permits scheduling its consumer in `state`:
    /// same region — placed no later than `state` (same-state chaining
    /// allowed); other region — placed *strictly earlier* (the registered
    /// cut rule, which is what makes cross-region readiness invariant during
    /// a state's placement rounds).
    fn pred_sched_ok(
        engine: &Engine,
        base: u32,
        ridx: u32,
        cur: &RegionRt,
        done: &[RegionRt],
        p: OpId,
        state: u32,
    ) -> bool {
        let pr = engine.plan.region_of[p.index()];
        let pl = engine.plan.local_of[p.index()] as usize;
        if pr == ridx {
            cur.frame.placed[pl].is_some_and(|s| s.state <= state)
        } else {
            done[(pr - base) as usize].frame.placed[pl].is_some_and(|s| s.state < state)
        }
    }

    /// Asserts that the ready set gave the ready list the full scan of the
    /// priority order gives, and marked the same ops considered; the scan
    /// starts from `considered`, the marks before the round. Counts the
    /// ops each filter left out.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn check_ready(
        engine: &Engine,
        base: u32,
        ridx: u32,
        cur: &mut RegionRt,
        done: &[RegionRt],
        order: &[OpId],
        state: u32,
        ii: u32,
        mut considered: Vec<Option<u32>>,
        ready: &[OpId],
    ) {
        let mut cov = Coverage {
            rounds: 1,
            ..Coverage::default()
        };
        let mut scanned = Vec::new();
        for &op_id in order {
            let i = op_id.index();
            let l = engine.plan.local_of[i] as usize;
            if cur.frame.placed[l].is_some() {
                continue;
            }
            if cur.step_failed[l] {
                cov.failed_skips += 1;
                continue;
            }
            let upstream = |p: &OpId| engine.plan.region_of[p.index()] != ridx;
            let ok = |p: OpId| pred_sched_ok(engine, base, ridx, cur, done, p, state);
            let producers = || engine.statics.producers(i);
            if !producers().filter(|p| !upstream(p)).all(ok) {
                continue;
            }
            if !producers().filter(upstream).all(ok) {
                cov.held += 1;
                continue;
            }
            if let Some(pin) = engine.statics.pin[i] {
                if !pin.allows(hls_ir::StateIdx::new(state)) {
                    cov.pin_skips += 1;
                    continue;
                }
            }
            if considered[l].is_none() {
                considered[l] = Some(state);
            }
            if let Some(scc) = engine.statics.scc_of[i] {
                if let Some((lo, hi)) =
                    engine.scc_window(scc as usize, &cur.frame.scc_dyn_stage, ii)
                {
                    if state < lo || state > hi {
                        cov.window_skips += 1;
                        continue;
                    }
                }
            }
            cov.released += u64::from(producers().any(|p| upstream(&p)));
            scanned.push(op_id);
        }
        assert_eq!(
            ready, scanned,
            "region {ridx}'s ready set disagrees with the full scan in state {state}"
        );
        assert!(
            cur.frame.first_considered == considered,
            "region {ridx}'s ready set marked other ops considered in state {state}"
        );
        cur.coverage += cov;
    }

    /// Asserts that the rewind to `state` restored the frame cloned when
    /// that step began, left the reason arena as long as it was then, and
    /// left every `last_reasons` span inside it; counts the rewind by the
    /// action applied last.
    pub(super) fn check_rewind(engine: &Engine, cur: &mut RegionRt, state: u32) {
        let (frame, arena_len) = &cur.clones[state as usize];
        assert!(
            cur.frame == *frame,
            "the rewind to state {state} differs from the frame cloned there"
        );
        assert_eq!(
            cur.reasons.len(),
            *arena_len,
            "the rewind to state {state} left the reason arena at another length than its mark"
        );
        assert!(
            cur.frame
                .last_reasons
                .iter()
                .flatten()
                .all(|span| span.start <= span.end && span.end <= cur.reasons.len()),
            "the rewind to state {state} left a reason span outside the arena"
        );
        cur.clones.truncate(state as usize);
        let kind = match engine.last_action {
            Some(RelaxAction::AddState) => 0,
            Some(RelaxAction::AddResource(_) | RelaxAction::AddResourceBatch { .. }) => 1,
            Some(RelaxAction::MoveScc { .. }) => 2,
            Some(RelaxAction::ForbidBinding { .. }) => 3,
            None => unreachable!("a rewind follows an action"),
        };
        cur.coverage.rewinds[kind] += 1;
    }

    /// Counts the end-of-step refresh of `op`, whose failed attempt was
    /// followed by a placement: skipped when `next`, what the pin and SCC
    /// window say of the next state, is `Some(Admits::Yes)`, performed
    /// otherwise. A skipped op is checked by the next round.
    pub(super) fn count_refresh(cur: &mut RegionRt, op: OpId, next: Option<Admits>) {
        let cov = &mut cur.coverage;
        match next {
            Some(Admits::Yes) => {
                cov.refresh_skips += 1;
                cur.skipped_refreshes.push(op);
                return;
            }
            Some(Admits::Pin) => cov.pin_refreshes += 1,
            Some(Admits::Window) => cov.window_refreshes += 1,
            None => {}
        }
        cov.refreshes += 1;
    }

    /// Asserts that the round just run attempted every op whose refresh the
    /// step before skipped: the op is in the ready list, and its attempt
    /// placed the op or failed, so nothing read the restraints the refresh
    /// would have written. The list is non-empty only before a step's
    /// first round.
    pub(super) fn check_skipped_refreshes(engine: &Engine, cur: &mut RegionRt, ready: &[OpId]) {
        for op in std::mem::take(&mut cur.skipped_refreshes) {
            let l = engine.plan.local_of[op.index()] as usize;
            assert!(
                ready.contains(&op) && (cur.frame.placed[l].is_some() || cur.step_failed[l]),
                "{op}'s refresh was skipped, and the next round did not attempt it"
            );
        }
    }

    /// The per-op depth-first search that [`fanout_cone_sizes`] replaced,
    /// kept as its oracle: the distinct distance-0 descendants of each op.
    pub(super) fn cone_sizes_by_dfs(body: &LinearBody) -> Vec<usize> {
        let n = body.dfg.num_ops();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (id, op) in body.dfg.iter_ops() {
            for sig in op.inputs.iter().filter(|sig| sig.distance == 0) {
                if let Some(p) = sig.producer() {
                    succs[p.index()].push(id.index());
                }
            }
        }
        let mut cone = vec![0usize; n];
        let mut mark = vec![usize::MAX; n];
        let mut stack = Vec::new();
        for (root, size) in cone.iter_mut().enumerate() {
            stack.push(root);
            while let Some(v) = stack.pop() {
                for &s in &succs[v] {
                    if mark[s] != root {
                        mark[s] = root;
                        *size += 1;
                        stack.push(s);
                    }
                }
            }
        }
        cone
    }

    /// Moves the regions' coverage into the calling thread's record (the
    /// regions may have run on worker threads).
    pub(super) fn record(regions: &mut [RegionRt]) {
        let mut total = RECORDED.get();
        for rt in regions {
            total += std::mem::take(&mut rt.coverage);
        }
        RECORDED.set(total);
    }

    /// The calling thread's recorded coverage, reset to zero.
    pub(crate) fn take() -> Coverage {
        RECORDED.take()
    }
}

#[cfg(test)]
#[path = "../../../tests/common/random_behavior.rs"]
mod random_behavior;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SchedError;
    use crate::scheduler::{Schedule, Scheduler};
    use hls_explore::{synthetic_design, DesignClass};
    use hls_ir::analysis::sccs;
    use hls_ir::{Dfg, PortDirection, Predicate, Signal, StateIdx};
    use hls_tech::ClockConstraint;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use random_behavior::random_behavior;

    /// A random DAG of `n` 16-bit operations of mixed kinds over two input
    /// ports, each reading recent results or constants, and one write.
    /// When `predicated`, half of the operations are guarded by a 1-bit
    /// condition read from a third port: the first of every four under the
    /// condition, the second under its negation, so mutually exclusive
    /// operations of one kind can share an instance.
    fn random_dag(seed: u64, n: usize, predicated: bool) -> LinearBody {
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
        let cond = predicated.then(|| {
            let c = dfg.add_port("c", PortDirection::Input, 1);
            dfg.add_op(OpKind::Read(c), 1, vec![])
        });
        for k in 0..n {
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
            let id = dfg.add_op(kind, w, inputs);
            if let Some(c) = cond {
                dfg.op_mut(id).predicate = match k % 4 {
                    0 => Predicate::Cond(c),
                    1 => Predicate::NotCond(c),
                    _ => Predicate::True,
                };
            }
            vals.push(Signal::op_w(id, w));
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
            let plan = match config.region_decomposition {
                Some(opts) => RegionPlan::build(body, &components, opts.target_ops),
                None => RegionPlan::trivial(n),
            };
            let mut engine =
                Engine::new_with_plan(body, &lib, config, &components, plan, 48, latency);
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
                priority_flips(&engine.statics, &mut engine.order.clone(), latency)
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
            bodies.push((format!("dag{seed}"), random_dag(seed, 60, false)));
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

    /// The generated designs the oracle tests schedule, and the four
    /// configurations they are scheduled in, the last region-decomposed.
    fn oracle_corpus() -> (Vec<LinearBody>, [SchedulerConfig; 4]) {
        let c1600 = ClockConstraint::from_period_ps(1600.0);
        let c2200 = ClockConstraint::from_period_ps(2200.0);
        let configs = [
            SchedulerConfig::sequential(c1600, 1, 24),
            SchedulerConfig::pipelined(c2200, 2, 24),
            SchedulerConfig::pipelined(c2200, 1, 24),
            SchedulerConfig::sequential(c1600, 1, 24).with_region_decomposition(4),
        ];
        let mut bodies: Vec<LinearBody> = (0..24u64)
            .map(|seed| {
                let mut cdfg = hls_frontend::elaborate(&random_behavior(seed)).expect("elaborates");
                hls_opt::linearize::prepare_innermost_loop(&mut cdfg).expect("linearizes")
            })
            .collect();
        for (seed, n) in [(0u64, 100usize), (1, 200), (2, 300)] {
            bodies.push(random_dag(seed, n, false));
            bodies.push(random_dag(seed, n, true));
        }
        (bodies, configs)
    }

    /// At every latency L from 1 to 64, [`priority_flips`] reorders
    /// `order_for(L)` into `order_for(L + 1)` on every body of the oracle
    /// corpus.
    #[test]
    fn add_state_reorders_the_priority_order_as_the_sort_does() {
        let lib = TechLibrary::artisan_90nm_typical();
        let (bodies, _) = oracle_corpus();
        for body in &bodies {
            let statics = PassStatics::build(body, &lib, &sccs(&body.dfg), &mut Interner::new());
            for latency in 1..=64u32 {
                let mut order = order_for(&statics, latency);
                priority_flips(&statics, &mut order, latency);
                assert!(
                    order == order_for(&statics, latency + 1),
                    "{} L{latency}: next order",
                    body.name
                );
            }
        }
    }

    /// Two reads, and ops over them with two diamonds and a multiply that
    /// reads one producer twice: `x = a + b`, `y = x * x`, `z = x - a`,
    /// `u = y + z`, `v = u & y`, and a write of `v`.
    fn diamonds_body() -> LinearBody {
        let mut dfg = Dfg::new();
        let w = 16;
        let pa = dfg.add_port("a", PortDirection::Input, w);
        let pb = dfg.add_port("b", PortDirection::Input, w);
        let out = dfg.add_port("out", PortDirection::Output, w);
        let a = Signal::op_w(dfg.add_op(OpKind::Read(pa), w, vec![]), w);
        let b = Signal::op_w(dfg.add_op(OpKind::Read(pb), w, vec![]), w);
        let x = Signal::op_w(dfg.add_op(OpKind::Add, w, vec![a, b]), w);
        let y = Signal::op_w(dfg.add_op(OpKind::Mul, w, vec![x, x]), w);
        let z = Signal::op_w(dfg.add_op(OpKind::Sub, w, vec![x, a]), w);
        let u = Signal::op_w(dfg.add_op(OpKind::Add, w, vec![y, z]), w);
        let v = Signal::op_w(dfg.add_op(OpKind::And, w, vec![u, y]), w);
        dfg.add_op(OpKind::Write(out), w, vec![v]);
        LinearBody::from_dfg("diamonds", dfg)
    }

    /// The fanout sweep counts the cones the per-op DFS counts, on the
    /// oracle corpus, an empty body, [`diamonds_body`], 2 400-op
    /// single-kernel designs (three blocks of the sweep) and a 5 000-op
    /// multi-kernel design.
    #[test]
    fn fanout_sweep_counts_the_cones_the_dfs_counts() {
        let lib = TechLibrary::artisan_90nm_typical();
        let (mut bodies, _) = oracle_corpus();
        let diamonds = diamonds_body();
        // a: x y z u v write; b: the same; x: y z u v write; y: u v write
        assert_eq!(
            oracle::cone_sizes_by_dfs(&diamonds),
            [6, 6, 5, 3, 3, 2, 1, 0]
        );
        bodies.push(diamonds);
        bodies.push(LinearBody::from_dfg("empty", Dfg::new()));
        for seed in 0..3 {
            bodies.push(synthetic_design(DesignClass::Filter, 2400, seed));
        }
        bodies.push(synthetic_design(DesignClass::Fft, 5000, 0));
        for body in &bodies {
            let statics = PassStatics::build(body, &lib, &sccs(&body.dfg), &mut Interner::new());
            assert!(
                statics.fanout == oracle::cone_sizes_by_dfs(body),
                "{}: the sweep's cones differ from the DFS's",
                body.name
            );
        }
    }

    /// Every placement attempt of every run goes through the walk oracle
    /// (see `oracle::check`); this corpus must also reach the cases the
    /// bitsets treat apart from the plain one.
    #[test]
    fn bitset_scan_matches_the_walk_on_generated_designs() {
        let lib = TechLibrary::artisan_90nm_typical();
        let (bodies, configs) = oracle_corpus();
        let _ = oracle::take();
        for body in &bodies {
            for config in &configs {
                let _ = Scheduler::new(body, &lib, config.clone()).run();
            }
        }
        let cov = oracle::take();
        assert!(
            cov.wide > 0 && cov.shared > 0 && cov.forbidden > 0,
            "the corpus must reach pools past 64 instances, a predicated op \
             sharing an occupied instance and a forbidden instance: {cov:?}"
        );
    }

    /// `body` with each write and each multiply pinned to exactly the state
    /// `schedule` gave it, and each op of its first SCC to state 1 or later.
    /// A multiply that finds its pinned state full fails where the pin
    /// allows no later state.
    fn pinned(body: &LinearBody, schedule: &ScheduleDesc) -> LinearBody {
        let mut body = body.clone();
        let scc = sccs(&body.dfg)
            .into_iter()
            .next()
            .map_or(Vec::new(), |c| c.ops);
        for (id, op) in body.dfg.iter_ops() {
            let pin = if matches!(op.kind, OpKind::Write(_)) {
                PinnedState::Exact(StateIdx::new(schedule.ops[&id].state))
            } else if scc.contains(&id) {
                PinnedState::AtOrAfter(StateIdx::new(1))
            } else if matches!(op.kind, OpKind::Mul) {
                PinnedState::Exact(StateIdx::new(schedule.ops[&id].state))
            } else {
                continue;
            };
            body.pins.insert(id, pin);
        }
        body
    }

    /// What the incremental and reference drivers must agree on: the
    /// schedule, latency, passes, actions and worst slack, or the error.
    fn verdict(run: &Result<Schedule, SchedError>) -> String {
        match run {
            Ok(s) => format!(
                "{:?} {} {} {:?} {}",
                s.desc, s.latency, s.passes, s.actions, s.min_slack_ps
            ),
            Err(e) => format!("{e:?}"),
        }
    }

    /// Every round's ready list, every rewind and every skipped end-of-step
    /// refresh of the runs over the oracle corpus goes through its oracle
    /// (see `oracle::check_ready`, `oracle::check_rewind` and
    /// `oracle::check_skipped_refreshes`). The corpus is run as generated,
    /// then with the pins of [`pinned`] on every body the first run
    /// scheduled, which the incremental driver must schedule as the
    /// reference does and honour; it must reach each filter of the ready
    /// walk, a rewind after each kind of action, and a skipped refresh and
    /// refreshes forced by a pin and by a closing SCC window.
    #[test]
    fn ready_set_and_journal_match_their_oracles_on_generated_designs() {
        let lib = TechLibrary::artisan_90nm_typical();
        let (bodies, configs) = oracle_corpus();
        let _ = oracle::take();
        let mut pinned_bodies = Vec::new();
        for body in &bodies {
            for config in &configs {
                if let Ok(s) = Scheduler::new(body, &lib, config.clone()).run() {
                    pinned_bodies.push((pinned(body, &s.desc), config));
                }
            }
        }
        let mut honoured = 0;
        for (body, config) in &pinned_bodies {
            let scheduler = Scheduler::new(body, &lib, (*config).clone());
            let run = scheduler.run();
            assert_eq!(verdict(&run), verdict(&scheduler.run_reference()));
            let Ok(schedule) = run else { continue };
            for (op, pin) in &body.pins {
                let state = schedule.desc.ops[op].state;
                assert!(
                    pin.allows(StateIdx::new(state)),
                    "{op} in s{state}: {pin:?}"
                );
            }
            honoured += 1;
        }
        let cov = oracle::take();
        assert!(
            cov.held > 0
                && cov.released > 0
                && cov.pin_skips > 0
                && cov.window_skips > 0
                && cov.failed_skips > 0
                && cov.rewinds.iter().all(|&n| n > 0)
                && cov.refresh_skips > 0
                && cov.pin_refreshes > 0
                && cov.window_refreshes > 0
                && cov.refreshes > cov.pin_refreshes + cov.window_refreshes,
            "the corpus must reach an op held back by and released from an \
             upstream region, a pin, an SCC window and a failed op left out of a \
             ready list, a rewind after each kind of action, and a skipped \
             refresh and refreshes forced by a pin, a closing SCC window and \
             the final state: {cov:?}"
        );
        assert!(
            honoured * 2 > pinned_bodies.len(),
            "{honoured} of {} pinned runs scheduled",
            pinned_bodies.len()
        );
    }

    /// A write pinned past the largest latency the configuration allows is
    /// never considered: both drivers refuse it with the same typed error.
    #[test]
    fn an_exact_pin_no_schedule_reaches_is_refused_with_a_typed_error() {
        let lib = TechLibrary::artisan_90nm_typical();
        let (bodies, configs) = oracle_corpus();
        for body in bodies.iter().take(6) {
            let mut body = body.clone();
            let (write, _) = body
                .dfg
                .iter_ops()
                .filter(|(_, op)| matches!(op.kind, OpKind::Write(_)))
                .last()
                .expect("a generated body writes");
            for config in &configs {
                let past = StateIdx::new(config.max_latency + 2);
                body.pins.insert(write, PinnedState::Exact(past));
                let scheduler = Scheduler::new(&body, &lib, config.clone());
                let run = scheduler.run();
                assert!(
                    matches!(
                        run,
                        Err(SchedError::Overconstrained { .. } | SchedError::BudgetExhausted { .. })
                    ),
                    "{run:?}"
                );
                assert_eq!(verdict(&run), verdict(&scheduler.run_reference()));
            }
        }
    }

    /// Filter/100/s0 with every write pinned to exactly state 6, which its
    /// data flow does not reach in time at 1600 ps: while the pinned state
    /// is past the latency the relaxation adds states, it never adds an
    /// I/O port, and once the schedule reaches the state it refuses with a
    /// pinned write named.
    #[test]
    fn a_pin_no_ready_state_meets_is_refused_by_name_without_adding_io_ports() {
        let lib = TechLibrary::artisan_90nm_typical();
        let mut body = synthetic_design(DesignClass::Filter, 100, 0);
        let writes: Vec<OpId> = body
            .dfg
            .iter_ops()
            .filter(|(_, op)| matches!(op.kind, OpKind::Write(_)))
            .map(|(id, _)| id)
            .collect();
        for &write in &writes {
            body.pins
                .insert(write, PinnedState::Exact(StateIdx::new(6)));
        }
        let mut config =
            SchedulerConfig::sequential(ClockConstraint::from_period_ps(1600.0), 1, 24);
        let scheduler = Scheduler::new(&body, &lib, config.clone());
        let run = scheduler.run();
        assert_eq!(verdict(&run), verdict(&scheduler.run_reference()));
        let Err(SchedError::Overconstrained {
            latency,
            passes,
            details,
            ..
        }) = run
        else {
            panic!("{run:?}");
        };
        assert!(latency > 6, "refused at latency {latency}: {details}");
        assert!(
            writes
                .iter()
                .any(|w| details.contains(&format!("{w} is pinned to s7 and is not ready there"))),
            "{details}"
        );
        // one pass fewer ends the same run with the actions it applied
        config.max_passes = passes - 1;
        let Err(SchedError::BudgetExhausted { actions, .. }) =
            Scheduler::new(&body, &lib, config).run()
        else {
            panic!("the shortened run must exhaust its budget");
        };
        assert!(
            actions.iter().all(|a| !a.starts_with("add resource io_")),
            "{actions:?}"
        );
    }

    /// Sixty-four unpredicated 16-bit adds, then `p` under `c` and `q`
    /// under `!c`, all in one state: the adds fill the first word of an
    /// adder pool, so `p` and `q` can only bind past it.
    fn word_boundary_body() -> (LinearBody, OpId, OpId) {
        let mut dfg = Dfg::new();
        let a = dfg.add_port("a", PortDirection::Input, 16);
        let b = dfg.add_port("b", PortDirection::Input, 16);
        let c = dfg.add_port("c", PortDirection::Input, 1);
        let a = Signal::op_w(dfg.add_op(OpKind::Read(a), 16, vec![]), 16);
        let b = Signal::op_w(dfg.add_op(OpKind::Read(b), 16, vec![]), 16);
        let c = dfg.add_op(OpKind::Read(c), 1, vec![]);
        for _ in 0..64 {
            dfg.add_op(OpKind::Add, 16, vec![a, b]);
        }
        let p = dfg.add_op(OpKind::Add, 16, vec![a, b]);
        dfg.op_mut(p).predicate = Predicate::Cond(c);
        let q = dfg.add_op(OpKind::Add, 16, vec![a, b]);
        dfg.op_mut(q).predicate = Predicate::NotCond(c);
        let mut body = LinearBody::from_dfg("word_boundary", dfg);
        body.source_states = 1;
        (body, p, q)
    }

    #[test]
    fn pool_grows_across_a_word_boundary_between_passes() {
        let (body, p, q) = word_boundary_body();
        let lib = TechLibrary::artisan_90nm_typical();
        let config = SchedulerConfig::sequential(ClockConstraint::from_period_ps(1600.0), 1, 1);
        let components = sccs(&body.dfg);
        let adder = ResourceType::for_op(body.dfg.op(p)).expect("datapath op");
        let mut resources = ResourceSet::new();
        for _ in 0..60 {
            resources.add(adder.clone());
        }
        let _ = oracle::take();
        let plan = RegionPlan::trivial(body.dfg.num_ops());
        let inst_region = vec![0; resources.len()];
        let mut engine = Engine::init(
            &body,
            &lib,
            &config,
            &components,
            plan,
            resources,
            inst_region,
            1,
        );
        let EngineOutcome::Failure(failure) = engine.run_pass() else {
            panic!("66 adds cannot share 60 adders in one state");
        };
        assert_eq!(engine.regions[0].words, 1);
        let batch = RelaxAction::AddResourceBatch {
            ty: adder.clone(),
            count: 6,
        };
        engine.apply(&batch, &failure.restraints);
        // the second word's first instance is forbidden to both
        let second_word = ResourceInstanceId(64);
        for op in [p, q] {
            let forbid = RelaxAction::ForbidBinding {
                op,
                resource: second_word,
            };
            engine.apply(&forbid, &failure.restraints);
        }
        assert!(matches!(engine.run_pass(), EngineOutcome::Success { .. }));
        assert_eq!(engine.regions[0].words, 2);
        let cov = oracle::take();
        assert!(
            cov.wide > 0 && cov.shared > 0 && cov.forbidden > 0,
            "{cov:?}"
        );
        let desc = engine.into_desc();
        let bound = |op: OpId| desc.ops[&op].resource;
        // the unpredicated adds take the first word in priority order; `p`
        // skips its forbidden instance, and `q` shares `p`'s
        for k in 0..64u32 {
            assert_eq!(bound(OpId::from_raw(3 + k)), Some(ResourceInstanceId(k)));
        }
        assert_eq!(bound(p), Some(ResourceInstanceId(65)));
        assert_eq!(bound(q), Some(ResourceInstanceId(65)));
    }

    /// A 16-bit add of a 16-bit and an 8-bit operand fits both an
    /// `add_16x8` and an `add_16x16`, whose delays depend on the widest
    /// width alone; at 300 ps it misses the clock on both by the same
    /// slack, which the walk counts as one restraint.
    #[test]
    fn one_slack_restraint_counts_every_type_that_misses_the_clock_by_it() {
        let mut dfg = Dfg::new();
        let a = dfg.add_port("a", PortDirection::Input, 16);
        let b = dfg.add_port("b", PortDirection::Input, 8);
        let a = Signal::op_w(dfg.add_op(OpKind::Read(a), 16, vec![]), 16);
        let b = Signal::op_w(dfg.add_op(OpKind::Read(b), 8, vec![]), 8);
        let sum = dfg.add_op(OpKind::Add, 16, vec![a, b]);
        let mut body = LinearBody::from_dfg("two_adders", dfg);
        body.source_states = 1;
        let lib = TechLibrary::artisan_90nm_typical();
        let config = SchedulerConfig::sequential(ClockConstraint::from_period_ps(300.0), 1, 1);
        let components = sccs(&body.dfg);
        let mut resources = ResourceSet::new();
        resources.add(ResourceType::binary(ResourceClass::Adder, 16, 16, 16));
        resources.add(ResourceType::for_op(body.dfg.op(sum)).expect("datapath op"));
        let plan = RegionPlan::trivial(body.dfg.num_ops());
        let inst_region = vec![0; resources.len()];
        let mut engine = Engine::init(
            &body,
            &lib,
            &config,
            &components,
            plan,
            resources,
            inst_region,
            1,
        );
        let EngineOutcome::Failure(failure) = engine.run_pass() else {
            panic!("no adder meets a 300 ps clock");
        };
        assert!(
            matches!(
                failure.restraints[..],
                [Restraint::NegativeSlack { op, instances: 2, .. }] if op == sum
            ),
            "{:?}",
            failure.restraints
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
