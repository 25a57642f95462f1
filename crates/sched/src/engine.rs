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
use hls_ir::{LinearBody, OpId, OpKind, Operation, PinnedState, Predicate};
use hls_netlist::ChainTiming;
use hls_netlist::{ScheduleDesc, ScheduledOp};
use hls_tech::{
    Interner, ResourceClass, ResourceClassId, ResourceInstanceId, ResourceSet, ResourceType,
    ResourceTypeId, TechLibrary,
};
use std::collections::HashMap;
use std::sync::Mutex;

/// Resume watermark marking a region that does not need to re-pass.
const CLEAN: u32 = u32::MAX;

/// Target ops per block of the fanout sweep: a reachability row is at most
/// 1 024 bits, 128 bytes per op.
const CONE_BLOCK: usize = 1024;

/// Transitive distance-0 fanout cone size per op: how many distinct ops
/// its value reaches, over any path. `succs` lists each op's distance-0
/// consumers, duplicates included, and `order` is [`dfs_topo_order`]'s.
///
/// The ops are numbered in that depth-first topological order, which keeps
/// an independent kernel in consecutive positions, and cut into blocks of
/// at most [`CONE_BLOCK`] positions. For each block one sweep in reverse
/// order gives every op a row of bits over the block: the block members it
/// reaches, the OR of its consumers' rows and their own bits. An op whose
/// furthest reachable position lies before the block reaches nothing in
/// it and is skipped, so an op pays only for the blocks its cone touches.
fn fanout_cone_sizes(succs: &Lists<u32>, order: &[usize]) -> Vec<usize> {
    let n = order.len();
    let mut pos = vec![0usize; n];
    for (k, &v) in order.iter().enumerate() {
        pos[v] = k;
    }
    // per position, the furthest position its op reaches, itself included
    let mut reach = vec![0usize; n];
    for (k, &v) in order.iter().enumerate().rev() {
        reach[k] = succs
            .get(v)
            .iter()
            .map(|&s| reach[pos[s as usize]])
            .fold(k, usize::max);
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
            for &s in succs.get(order[k]) {
                let p = pos[s as usize];
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
fn dfs_topo_order(succs: &Lists<u32>) -> Vec<usize> {
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
            match succs.get(v).get(next) {
                Some(&s) => {
                    let s = s as usize;
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

/// Lists over dense indices in one flat array: list `i` is
/// `targets[offsets[i]..offsets[i + 1]]`.
#[derive(Clone, Debug, Default)]
struct Lists<T> {
    offsets: Vec<u32>,
    targets: Vec<T>,
}

impl<T: Copy> Lists<T> {
    /// `n` lists, list `i` holding what `fill(i, targets)` appends.
    fn build(n: usize, mut fill: impl FnMut(usize, &mut Vec<T>)) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(n);
        offsets.push(0);
        for i in 0..n {
            fill(i, &mut targets);
            offsets.push(targets.len() as u32);
        }
        Lists { offsets, targets }
    }

    /// `n` lists, list `k` holding the `t` of each `(k, t)` that `pairs`
    /// yields, in its order; `blank` only fills the array before it is
    /// written.
    fn from_pairs<I: Iterator<Item = (usize, T)>>(
        n: usize,
        pairs: impl Fn() -> I,
        blank: T,
    ) -> Self {
        let mut offsets = vec![0u32; n + 1];
        for (k, _) in pairs() {
            offsets[k + 1] += 1;
        }
        for k in 0..n {
            offsets[k + 1] += offsets[k];
        }
        let mut next = offsets[..n].to_vec();
        let mut targets = vec![blank; offsets[n] as usize];
        for (k, t) in pairs() {
            targets[next[k] as usize] = t;
            next[k] += 1;
        }
        Lists { offsets, targets }
    }

    fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    fn get(&self, i: usize) -> &[T] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// The resource type [`ResourceType::for_op`] gives an op, held inline so
/// that looking it up builds no `ResourceType`: the class, the operand
/// widths widest first, and the result width.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct TypeKey {
    class: ResourceClass,
    ins: [u16; 3],
    arity: u8,
    out: u16,
}

impl TypeKey {
    /// The key of `op`, of class `class`; `None` past three operands.
    fn of(op: &Operation, class: ResourceClass) -> Option<Self> {
        let skip = usize::from(matches!(op.kind, OpKind::Mux));
        let widths = op.inputs.get(skip..).unwrap_or_default();
        let mut ins = [0u16; 3];
        for (w, sig) in ins.iter_mut().zip(widths) {
            *w = sig.width;
        }
        let arity = match widths.len() {
            0 => {
                ins[0] = op.width;
                1
            }
            n @ 1..=3 => n,
            _ => return None,
        };
        ins[..arity].sort_unstable_by(|a, b| b.cmp(a));
        Some(TypeKey {
            class,
            ins,
            arity: arity as u8,
            out: op.width,
        })
    }
}

/// Appends the literals of `pred` as `(condition, polarity)` pairs.
fn push_literals(pred: &Predicate, out: &mut Vec<(OpId, bool)>) {
    match pred {
        Predicate::True => {}
        Predicate::Cond(c) => out.push((*c, true)),
        Predicate::NotCond(c) => out.push((*c, false)),
        Predicate::And(ps) => {
            for p in ps {
                push_literals(p, out);
            }
        }
    }
}

/// Immutable per-run precomputation: everything about the body that no
/// relaxation action can change, computed once per `Scheduler::run` instead
/// of once per pass (or worse, once per placement attempt). Per-op lists
/// are flat [`Lists`].
struct PassStatics {
    n: usize,
    /// Distance-0 producers per op (duplicates preserved, as in `Dfg::preds`).
    preds: Lists<OpId>,
    /// Extra precedence edges from I/O ordering, keyed by the later op.
    extra_preds: Lists<OpId>,
    pin: Vec<Option<PinnedState>>,
    /// The op's interned required type (including `IoPort` interface
    /// types).
    required_type_id: Vec<Option<ResourceTypeId>>,
    /// Whether the op occupies a datapath resource (non-`IoPort`).
    needs_resource: Vec<bool>,
    /// Interned class of datapath ops.
    class_id: Vec<Option<ResourceClassId>>,
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
    has_side_effects: Vec<bool>,
    /// Per op, its predicate's literals sorted by condition op (the order
    /// `Predicate::literals` produces): the condition, and whether it
    /// occurs with positive and with negative polarity. A side-effecting
    /// op's conditions are its predicate condition ops.
    lits: Lists<(OpId, bool, bool)>,
    scc_of: Vec<Option<u32>>,
    /// Whether the op is a free/IO op whose arrival is a register launch.
    launches_from_register: Vec<bool>,
}

impl PassStatics {
    fn build(body: &LinearBody, lib: &TechLibrary, sccs: &[Scc], interner: &mut Interner) -> Self {
        let dfg = &body.dfg;
        let n = dfg.num_ops();
        let ops = || dfg.iter_ops().map(|(_, op)| op);
        let preds = Lists::build(n, |i, out| {
            let inputs = &dfg.op(OpId::from_raw(i as u32)).inputs;
            out.extend(
                inputs
                    .iter()
                    .filter(|sig| sig.distance == 0)
                    .filter_map(|sig| sig.producer()),
            );
        });
        // each producer's consumers, in consumer then input order
        let succs = Lists::from_pairs(
            n,
            || (0..n).flat_map(|i| preds.get(i).iter().map(move |p| (p.index(), i as u32))),
            0,
        );
        let io_deps = body.io_order_deps();
        let extra_preds = Lists::from_pairs(
            n,
            || io_deps.iter().map(|&(a, b)| (b.index(), a)),
            OpId::from_raw(0),
        );

        // ASAP levels and below-heights over the distance-0 dependence graph,
        // via one topological sweep each (same values as
        // `analysis::asap_levels` / the height pass of `alap_levels`).
        let order = dfs_topo_order(&succs);
        let mut asap = vec![0u32; n];
        for &i in &order {
            asap[i] = preds
                .get(i)
                .iter()
                .map(|p| asap[p.index()] + 1)
                .max()
                .unwrap_or(0);
        }
        let mut below = vec![0u32; n];
        for &i in order.iter().rev() {
            below[i] = succs
                .get(i)
                .iter()
                .map(|&s| below[s as usize] + 1)
                .max()
                .unwrap_or(0);
        }
        let fanout = fanout_cone_sizes(&succs, &order);

        // each distinct type is built and interned once, at its first op
        let mut known: HashMap<TypeKey, ResourceTypeId> = HashMap::new();
        let mut type_delay: Vec<f64> = Vec::new();
        let mut type_width: Vec<u16> = Vec::new();
        let mut required_type_id = vec![None; n];
        let mut needs_resource = vec![false; n];
        let mut class_id = vec![None; n];
        let mut complexity = vec![0.0f64; n];
        for (i, op) in ops().enumerate() {
            let Some(class) = ResourceType::class_for_kind(&op.kind) else {
                continue;
            };
            let datapath = !matches!(class, ResourceClass::IoPort);
            if datapath {
                class_id[i] = Some(interner.class_id(&class));
            }
            let key = TypeKey::of(op, class);
            let tid = match key.as_ref().and_then(|key| known.get(key)) {
                Some(&tid) => tid,
                None => {
                    let ty = ResourceType::for_op(op).expect("a typed op");
                    let tid = interner.type_id(&ty);
                    if tid.index() >= type_delay.len() {
                        type_delay.push(lib.delay_ps(&ty));
                        type_width.push(ty.max_width());
                    }
                    known.extend(key.map(|key| (key, tid)));
                    tid
                }
            };
            required_type_id[i] = Some(tid);
            needs_resource[i] = datapath;
            if datapath {
                complexity[i] = type_delay[tid.index()];
            }
        }

        let mut scratch: Vec<(OpId, bool)> = Vec::new();
        let lits = Lists::build(n, |i, out: &mut Vec<(OpId, bool, bool)>| {
            scratch.clear();
            push_literals(&dfg.op(OpId::from_raw(i as u32)).predicate, &mut scratch);
            scratch.sort_unstable_by_key(|&(cond, _)| cond);
            for (k, &(cond, pol)) in scratch.iter().enumerate() {
                match out.last_mut() {
                    Some(last) if k > 0 && last.0 == cond => {
                        last.1 |= pol;
                        last.2 |= !pol;
                    }
                    _ => out.push((cond, pol, !pol)),
                }
            }
        });

        let mut scc_of = vec![None; n];
        for (si, scc) in sccs.iter().enumerate() {
            for &op in &scc.ops {
                scc_of[op.index()] = Some(si as u32);
            }
        }
        let mut pin = vec![None; n];
        for (op, p) in &body.pins {
            if let Some(slot) = pin.get_mut(op.index()) {
                *slot = Some(*p);
            }
        }

        PassStatics {
            n,
            preds,
            extra_preds,
            pin,
            required_type_id,
            needs_resource,
            class_id,
            type_delay,
            type_width,
            complexity,
            asap,
            below,
            fanout,
            has_side_effects: ops().map(|op| op.kind.has_side_effects()).collect(),
            lits,
            scc_of,
            launches_from_register: ops()
                .map(|op| matches!(op.kind, OpKind::Read(_) | OpKind::Pass))
                .collect(),
        }
    }

    /// Every producer op `i` waits for, with duplicates: its distance-0
    /// data producers, then its I/O-order producers.
    fn producers(&self, i: usize) -> impl Iterator<Item = OpId> + '_ {
        self.preds
            .get(i)
            .iter()
            .chain(self.extra_preds.get(i))
            .copied()
    }

    /// Op `i`'s predicate condition ops if it has side effects.
    fn cond_ops(&self, i: usize) -> impl Iterator<Item = OpId> + '_ {
        let lits = if self.has_side_effects[i] {
            self.lits.get(i)
        } else {
            &[]
        };
        lits.iter().map(|&(cond, ..)| cond)
    }

    /// Mirrors `Predicate::mutually_exclusive` over the literal lists of
    /// ops `a` and `b`.
    fn mutually_exclusive(&self, a: usize, b: usize) -> bool {
        let other = self.lits.get(b);
        self.lits.get(a).iter().any(|&(cond, a_true, a_false)| {
            other.binary_search_by_key(&cond, |l| l.0).is_ok_and(|k| {
                let (_, b_true, b_false) = other[k];
                (a_true && b_false && !a_false && !b_true)
                    || (a_false && b_true && !a_true && !b_false)
            })
        })
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

/// Where a placement attempt binds: the region, the control step and its
/// folded state.
#[derive(Clone, Copy, Debug)]
struct Slot {
    region: u32,
    state: u32,
    folded: u32,
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
/// region's undo journal (see [`RegionRt::rewind`]), which also keeps the
/// tables derived from `placed` (the busy table, the combinational graph,
/// the ready set) current.
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
}

/// Where a bound op sits in its region's busy table: its folded state and
/// its instance's local index.
#[derive(Clone, Copy, Debug)]
struct Seat {
    folded: u32,
    local: u32,
}

/// One write to a [`RegionRt`]'s pass state, with what it replaced.
enum Undo {
    /// `placed[l]` was set, and the op took `seat`, if it is bound;
    /// `min_slack` held this before it.
    Placed {
        l: u32,
        seat: Option<Seat>,
        min_slack: f64,
    },
    /// `first_considered[l]` was set.
    Considered(u32),
    /// `class_considered[c]` was set.
    ClassConsidered(u32),
    /// `last_reasons[l]` held this before the step's first write to it.
    Reasons(u32, Option<Span>),
    /// `scc_dyn_stage[i]` held this.
    Stage(u32, Option<u32>),
    /// The combinational graph gained its last edge out of this instance.
    Edge(u32),
}

/// Per-region runtime: the region's slice of the problem (members, priority
/// order, resource pool), its persisted pass state with the tables derived
/// from it, its scratch tables and its incremental bookkeeping (resume
/// watermark, published interface, cached failure fragment).
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
    /// Every write to `frame` and the kept tables since the region last
    /// started from state 0.
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

    // tables kept equal to functions of the placement by `place` and the
    // journal; `oracle::check_tables` rebuilds them in test builds
    /// The busy table, state-major: per folded state, `words * 64` slots
    /// over the local instances, each holding the local op bound there
    /// last, or [`VACANT`].
    busy: Vec<u32>,
    /// Per local op bound to a slot, the op bound there before it, or
    /// [`VACANT`]: the rest of the slot's list. A rewind pops ops in the
    /// reverse order of their placement, so an undone op heads its list.
    busy_next: Vec<u32>,
    /// Per folded state, `words` words over the local instance indices: a
    /// bit is set when that slot's busy list is non-empty.
    occupied: Vec<u64>,
    /// Words per instance bitset: the pool size rounded up to 64.
    words: usize,
    /// The combinational-cycle graph over local instances: an edge per
    /// bound producer and consumer placed in one state, each kept once.
    comb_succ: Vec<Vec<u32>>,
    /// Per interned class, the state the first member of the class was
    /// considered in, which is the earliest such state (a pass considers
    /// its ops in state order).
    class_considered: Vec<Option<u32>>,
    /// Per local op, its position in `order`.
    rank: Vec<u32>,
    /// Per local op, its unplaced same-region producers, once per edge.
    waiting: Vec<u32>,
    /// Per local op, the first state its upstream-region producers allow
    /// (one past the latest one's state), [`NEVER`] while one is unplaced;
    /// refreshed for `cut` as a pass starts.
    release: Vec<u32>,
    /// A bitset over ranks: the unplaced ops with nothing `waiting`.
    ready_bits: Vec<u64>,
    /// A bitset over the local ops: the unplaced ones.
    unplaced: Vec<u64>,

    // fixed per run
    /// Per local op, its same-region consumers' local indices, once per
    /// edge (as `PassStatics::producers` lists them).
    consumers: Lists<u32>,
    /// `waiting` and `ready_bits` with nothing placed, which a start from
    /// state 0 copies.
    initial_waiting: Vec<u32>,
    initial_ready: Vec<u64>,
    /// The local ops with a producer in an upstream region.
    cut: Vec<u32>,

    // scratch reused across passes
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

/// An empty busy-table slot, or the end of a slot's list.
const VACANT: u32 = u32::MAX;

/// Sets bit `k` of a bitset that covers it to `on`.
fn put_bit(bits: &mut [u64], k: usize, on: bool) {
    let mask = 1 << (k % 64);
    if on {
        bits[k / 64] |= mask;
    } else {
        bits[k / 64] &= !mask;
    }
}

/// Sets the first `n` bits of a bitset of `n.div_ceil(64)` words.
fn fill_bits(bits: &mut [u64], n: usize) {
    bits.fill(!0);
    if n % 64 != 0 {
        bits[n / 64] = (1 << (n % 64)) - 1;
    }
}

/// Widens a table of `rows` rows from `old` to `new` entries per row,
/// filling each row's new entries with `blank`.
fn restride<T: Copy>(table: &mut Vec<T>, rows: usize, old: usize, new: usize, blank: T) {
    table.resize(rows * new, blank);
    // rows move up, so the last one moves first
    for r in (0..rows).rev() {
        table.copy_within(r * old..(r + 1) * old, r * new);
        table[r * new + old..(r + 1) * new].fill(blank);
    }
}

impl RegionRt {
    /// The runtime of region `r` of `plan` at the start of a run: members,
    /// priority order and pool as given, the same-region consumer lists
    /// and the empty placement's ready set.
    fn new(
        statics: &PassStatics,
        plan: &RegionPlan,
        r: usize,
        order: Vec<OpId>,
        insts: Vec<ResourceInstanceId>,
        insts_per_class: Vec<usize>,
        scc_stage_input: &[Option<u32>],
    ) -> Self {
        let info = &plan.regions[r];
        let members = info.ops.clone();
        let n_local = members.len();
        let mut ops_per_class: Vec<usize> = Vec::new();
        for &g in &members {
            if let Some(cid) = statics.class_id[g as usize] {
                if cid.index() >= ops_per_class.len() {
                    ops_per_class.resize(cid.index() + 1, 0);
                }
                ops_per_class[cid.index()] += 1;
            }
        }
        let class_considered = vec![None; ops_per_class.len()];
        let own = |p: &OpId| plan.region_of[p.index()] as usize == r;
        let consumers = Lists::from_pairs(
            n_local,
            || {
                members.iter().enumerate().flat_map(move |(l, &g)| {
                    statics
                        .producers(g as usize)
                        .filter(own)
                        .map(move |p| (plan.local_of[p.index()] as usize, l as u32))
                })
            },
            0,
        );
        let mut initial_waiting = vec![0u32; n_local];
        let mut cut = Vec::new();
        for (l, &g) in members.iter().enumerate() {
            for p in statics.producers(g as usize) {
                if own(&p) {
                    initial_waiting[l] += 1;
                } else if cut.last() != Some(&(l as u32)) {
                    cut.push(l as u32);
                }
            }
        }
        let mut unplaced = vec![0u64; n_local.div_ceil(64)];
        fill_bits(&mut unplaced, n_local);
        let mut rank = vec![0u32; n_local];
        let mut initial_ready = vec![0u64; n_local.div_ceil(64)];
        for (k, op) in order.iter().enumerate() {
            let l = plan.local_of[op.index()] as usize;
            rank[l] = k as u32;
            put_bit(&mut initial_ready, k, initial_waiting[l] == 0);
        }
        RegionRt {
            frame: RegionFrame::fresh(n_local, scc_stage_input),
            order,
            insts,
            type_bits: Vec::new(),
            ops_per_class,
            insts_per_class,
            journal: Vec::new(),
            reasons: Vec::new(),
            marks: Vec::new(),
            resume: 0,
            iface: vec![None; info.boundary.len()],
            fail: Vec::new(),
            work: Work::default(),
            busy: Vec::new(),
            busy_next: vec![VACANT; n_local],
            occupied: Vec::new(),
            words: 0,
            comb_succ: Vec::new(),
            class_considered,
            rank,
            waiting: initial_waiting.clone(),
            release: vec![0; n_local],
            ready_bits: initial_ready.clone(),
            unplaced,
            consumers,
            initial_waiting,
            initial_ready,
            cut,
            cand: Vec::new(),
            forbid: Vec::new(),
            tallies: Vec::new(),
            met: Vec::new(),
            chain_from: Vec::new(),
            #[cfg(test)]
            coverage: oracle::Coverage::default(),
            comb_mark: Vec::new(),
            comb_epoch: 0,
            comb_stack: Vec::new(),
            ready: Vec::with_capacity(n_local + 1),
            in_arrivals: Vec::with_capacity(8),
            step_failed: vec![false; n_local],
            step_fails: Vec::new(),
            members,
            #[cfg(test)]
            clones: Vec::new(),
            #[cfg(test)]
            skipped_refreshes: Vec::new(),
        }
    }

    /// The busy-table slot of local instance `local` in folded state
    /// `folded`.
    fn slot(&self, folded: u32, local: usize) -> usize {
        folded as usize * self.words * 64 + local
    }

    /// The local ops bound in busy-table slot `slot`, latest first.
    fn bound_in(&self, slot: usize) -> impl Iterator<Item = usize> + '_ {
        let mut next = self.busy[slot];
        std::iter::from_fn(move || {
            (next != VACANT).then(|| {
                let l = next as usize;
                next = self.busy_next[l];
                l
            })
        })
    }

    /// Sizes the busy table and the occupancy bits for the pool and
    /// `fold_states` folded states, and the combinational graph for the
    /// pool. A pool that outgrew its words widens every row; an `AddState`
    /// of a sequential schedule appends a row.
    fn fit_tables(&mut self, fold_states: u32) {
        let words = self.insts.len().div_ceil(64);
        if words != self.words {
            let rows = self.occupied.len().checked_div(self.words).unwrap_or(0);
            restride(&mut self.busy, rows, self.words * 64, words * 64, VACANT);
            restride(&mut self.occupied, rows, self.words, words, 0);
            self.words = words;
        }
        self.busy.resize(fold_states as usize * words * 64, VACANT);
        self.occupied.resize(fold_states as usize * words, 0);
        self.comb_succ.resize_with(self.insts.len(), Vec::new);
        self.comb_mark.resize(self.insts.len(), 0);
    }

    /// Sets `first_considered[l]`, which is unset, and the first state of
    /// the op's datapath class, if it has none.
    fn consider(&mut self, l: usize, state: u32, class: Option<ResourceClassId>) {
        self.journal.push(Undo::Considered(l as u32));
        self.frame.first_considered[l] = Some(state);
        if let Some(c) = class {
            let first = &mut self.class_considered[c.index()];
            if first.is_none() {
                *first = Some(state);
                self.journal.push(Undo::ClassConsidered(c.0));
            }
        }
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

    /// Adds the combinational edge `from → to` unless the graph has it.
    fn chain(&mut self, from: u32, to: u32) {
        if comb_add_edge(&mut self.comb_succ, from, to) {
            self.journal.push(Undo::Edge(from));
        }
    }

    /// Places op `l`, bound to `bound`'s seat with its slack if it takes
    /// an instance, folding that slack into `min_slack`, and moves it out
    /// of the unplaced and ready sets; each same-region consumer it was
    /// the last unplaced producer of moves in, for the next round.
    fn place(&mut self, l: usize, placed: PlacedOp, bound: Option<(Seat, f64)>) {
        self.journal.push(Undo::Placed {
            l: l as u32,
            seat: bound.map(|(seat, _)| seat),
            min_slack: self.frame.min_slack,
        });
        self.frame.placed[l] = Some(placed);
        self.frame.num_placed += 1;
        if let Some((seat, slack)) = bound {
            self.frame.min_slack = self.frame.min_slack.min(slack);
            let slot = self.slot(seat.folded, seat.local as usize);
            self.busy_next[l] = self.busy[slot];
            self.busy[slot] = l as u32;
            let word = seat.folded as usize * self.words + seat.local as usize / 64;
            self.occupied[word] |= 1 << (seat.local % 64);
        }
        put_bit(&mut self.unplaced, l, false);
        put_bit(&mut self.ready_bits, self.rank[l] as usize, false);
        for &c in self.consumers.get(l) {
            let c = c as usize;
            self.waiting[c] -= 1;
            if self.waiting[c] == 0 {
                put_bit(&mut self.ready_bits, self.rank[c] as usize, true);
            }
        }
    }

    /// Reverts one journaled write.
    fn undo(&mut self, entry: Undo) {
        match entry {
            Undo::Placed { l, seat, min_slack } => {
                let l = l as usize;
                self.frame.placed[l] = None;
                self.frame.num_placed -= 1;
                self.frame.min_slack = min_slack;
                if let Some(seat) = seat {
                    let slot = self.slot(seat.folded, seat.local as usize);
                    debug_assert_eq!(
                        self.busy[slot], l as u32,
                        "a rewind pops its slot's latest op"
                    );
                    self.busy[slot] = self.busy_next[l];
                    if self.busy[slot] == VACANT {
                        let word = seat.folded as usize * self.words + seat.local as usize / 64;
                        self.occupied[word] &= !(1 << (seat.local % 64));
                    }
                }
                put_bit(&mut self.unplaced, l, true);
                // its consumers are unplaced: they were placed after it
                for &c in self.consumers.get(l) {
                    let c = c as usize;
                    self.waiting[c] += 1;
                    if self.waiting[c] == 1 {
                        put_bit(&mut self.ready_bits, self.rank[c] as usize, false);
                    }
                }
                put_bit(&mut self.ready_bits, self.rank[l] as usize, true);
            }
            Undo::Considered(l) => self.frame.first_considered[l as usize] = None,
            Undo::ClassConsidered(c) => self.class_considered[c as usize] = None,
            Undo::Reasons(l, old) => self.frame.last_reasons[l as usize] = old,
            Undo::Stage(i, old) => self.frame.scc_dyn_stage[i as usize] = old,
            Undo::Edge(from) => {
                self.comb_succ[from as usize].pop();
            }
        }
    }

    /// Undoes the journal back to the start of step `state`, which ran, and
    /// drops the reasons recorded since.
    fn rewind(&mut self, state: u32) {
        let mark = self.marks[state as usize];
        self.marks.truncate(state as usize);
        let mut journal = std::mem::take(&mut self.journal);
        for entry in journal.drain(mark.journal..).rev() {
            self.undo(entry);
        }
        self.journal = journal;
        self.reasons.truncate(mark.reasons);
    }

    /// Starts the region again from state 0: nothing placed, the ready set
    /// copied from the run's initial one.
    fn reset(&mut self, scc_stage_input: &[Option<u32>]) {
        self.frame.reset(scc_stage_input);
        self.journal.clear();
        self.reasons.clear();
        self.marks.clear();
        self.busy.fill(VACANT);
        self.occupied.fill(0);
        for succ in &mut self.comb_succ {
            succ.clear();
        }
        self.class_considered.fill(None);
        self.waiting.copy_from_slice(&self.initial_waiting);
        self.ready_bits.copy_from_slice(&self.initial_ready);
        fill_bits(&mut self.unplaced, self.members.len());
        #[cfg(test)]
        self.clones.clear();
    }

    /// Re-ranks the ops at the positions `flips` name, which a reorder of
    /// `order` permuted among themselves, and rewrites the ready bits
    /// there, the current and the initial ones.
    fn rerank(&mut self, flips: &[Flip], local_of: &[u32]) {
        for f in flips {
            let k = f.rank as usize;
            let l = local_of[self.order[k].index()] as usize;
            self.rank[l] = k as u32;
            let ready = self.waiting[l] == 0 && self.frame.placed[l].is_none();
            put_bit(&mut self.ready_bits, k, ready);
            put_bit(&mut self.initial_ready, k, self.initial_waiting[l] == 0);
        }
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
        // the global priority order, filtered to each region's members
        let mut order = order_for(&statics, latency);
        let mut region_orders: Vec<Vec<OpId>> = vec![Vec::new(); num_regions];
        if plan.is_trivial() {
            region_orders[0] = std::mem::take(&mut order);
        }
        for &op in &order {
            region_orders[plan.region_of[op.index()] as usize].push(op);
        }

        let mut regions: Vec<RegionRt> = region_orders
            .into_iter()
            .zip(insts_by_region.into_iter().zip(insts_per_class_by_region))
            .enumerate()
            .map(|(r, (order, (insts, per_class)))| {
                RegionRt::new(
                    &statics,
                    &plan,
                    r,
                    order,
                    insts,
                    per_class,
                    &scc_stage_input,
                )
            })
            .collect();

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
        let local_of = &self.plan.local_of;
        #[cfg(test)]
        let sorted = order_for(&self.statics, self.latency);
        for rt in &mut self.regions {
            // a region's order is the global one filtered, so its flips
            // are the global ones that have a partner in the region
            let flips = priority_flips(&self.statics, &mut rt.order, old_latency);
            #[cfg(test)]
            assert!(
                rt.order.iter().eq(sorted.iter().filter(|op| {
                    rt.members.get(local_of[op.index()] as usize) == Some(&(op.index() as u32))
                })),
                "the reordered priority order differs from the sorted one at latency {}",
                self.latency
            );
            rt.rerank(&flips, local_of);
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
    /// the matching class was considered (kept per class by the region).
    /// The region's busy table widens when its next pass starts.
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
        let resume = rt.class_considered.get(cid.index()).copied().flatten();
        #[cfg(test)]
        {
            let local_of = &self.plan.local_of;
            let scanned = rt
                .members
                .iter()
                .filter(|&&g| self.statics.class_id[g as usize] == Some(cid))
                .filter_map(|&g| rt.frame.first_considered[local_of[g as usize] as usize])
                .min();
            assert_eq!(
                resume, scanned,
                "the kept first state of a class differs from the scan's"
            );
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

    /// Refreshes the first state each of `cur`'s ops with an upstream
    /// producer may take: upstream regions ran before this one, and do not
    /// move while it runs.
    fn refresh_release(&self, base: u32, ridx: u32, cur: &mut RegionRt, done: &[RegionRt]) {
        for &l in &cur.cut {
            let g = cur.members[l as usize] as usize;
            let mut release = 0;
            for p in self.statics.producers(g) {
                let pr = self.plan.region_of[p.index()];
                if pr != ridx {
                    let pl = self.plan.local_of[p.index()] as usize;
                    let placed = done[(pr - base) as usize].frame.placed[pl];
                    release = release.max(placed.map_or(NEVER, |sp| sp.state + 1));
                }
            }
            cur.release[l as usize] = release;
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
        // --- restore ---------------------------------------------------------
        // The kept tables follow the placement through the journal: a
        // rewind undoes what it pops, a start from state 0 clears them.
        cur.fit_tables(fold_states);
        let resume = cur.resume.min(latency);
        #[cfg(test)]
        let start = oracle::Start::of(resume, cur.marks.len());
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
        self.refresh_release(base, ridx, cur, done);
        #[cfg(test)]
        oracle::check_tables(self, base, ridx, cur, done, fold_states, ii, start);

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
                            cur.consider(l, state, self.statics.class_id[i]);
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
                    match self.try_place(base, ridx, cur, done, op_id, state, ii, sharing, false) {
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
                        let refresh =
                            self.try_place(base, ridx, cur, done, op_id, state, ii, sharing, true);
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
        for w in 0..cur.unplaced.len() {
            for l in ones(w, cur.unplaced[w]) {
                let g = cur.members[l];
                let i = g as usize;
                // only report ops whose predecessors were all placed (root
                // causes) — mirrors the monolithic failure scan, which checks
                // data preds only
                let preds_ok = self
                    .statics
                    .preds
                    .get(i)
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
                        let cut_blocked = |p: OpId| {
                            self.plan.region_of[p.index()] != ridx
                                && self
                                    .placed_of(base, ridx, cur, done, p)
                                    .is_some_and(|pl| pl.state >= last)
                        };
                        self.statics.producers(i).any(cut_blocked)
                            || self.statics.cond_ops(i).any(cut_blocked)
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
        for cond in self.statics.cond_ops(i) {
            match self.input_arrival(base, ridx, cur, done, cond, state) {
                Some(a) => in_arrivals.push(a),
                None => inputs_ready = false,
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
                    !self.statics.lits.get(i).is_empty(),
                    "a failed placement succeeded later in its step"
                );
                Attempt::Failed
            }
            Scan::Bound {
                local,
                arrival,
                slack,
            } => {
                // the scan left the op's chained producers in `chain_from`
                for k in 0..cur.chain_from.len() {
                    cur.chain(cur.chain_from[k], local);
                }
                let placed = PlacedOp {
                    state,
                    resource: Some(cur.insts[local as usize]),
                    arrival,
                };
                let seat = Seat {
                    folded: at.folded,
                    local,
                };
                cur.place(l, placed, Some((seat, slack)));
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
        cur.bound_in(cur.slot(at.folded, l)).any(|ol| {
            let other = cur.members[ol] as usize;
            !cur.frame.placed[ol].is_some_and(|p| p.state == at.state)
                || !self.statics.mutually_exclusive(other, op_id.index())
                || !self.steerable(cur, op_id, at.state)
                || !self.steerable(cur, OpId::from_raw(other as u32), at.state)
        })
    }

    /// Whether every condition of `op`'s predicate is placed in this region
    /// no later than `state`. A shared instance is steered by the
    /// conditions of the ops it executes, so they must be known in the
    /// step (the binder refuses the slot as unsteerable otherwise); a
    /// condition in another region counts as unknown.
    fn steerable(&self, cur: &RegionRt, op: OpId, state: u32) -> bool {
        self.statics
            .lits
            .get(op.index())
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
                if !self.statics.lits.get(i).is_empty() {
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
        let required_id = self.statics.required_type_id[i].expect("datapath op");
        let required = self.interner.ty(required_id);
        let mut reasons: Vec<Restraint> = Vec::new();
        let mut tried_any = false;
        for local in 0..cur.insts.len() {
            let res_id = cur.insts[local];
            let ty = &self.resources.instance(res_id).ty;
            if !type_can_implement(required, ty) || self.forbidden[i].contains(&res_id) {
                continue;
            }
            tried_any = true;
            let conflict = cur.bound_in(cur.slot(at.folded, local)).any(|ol| {
                let other = cur.members[ol] as usize;
                !cur.frame.placed[ol].is_some_and(|p| p.state == at.state)
                    || !self.statics.mutually_exclusive(other, i)
                    || !self.steerable(cur, op_id, at.state)
                    || !self.steerable(cur, OpId::from_raw(other as u32), at.state)
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
            let mut frags: Vec<(OpId, Fail, &RegionRt)> =
                Vec::with_capacity(regions.iter().map(|rt| rt.fail.len()).sum());
            for rt in regions {
                frags.extend(rt.fail.iter().map(|&(op, fail)| (op, fail, rt)));
            }
            frags.sort_unstable_by_key(|&(op, ..)| op);
            let restraints = frags
                .iter()
                .map(|(_, fail, _)| match fail {
                    Fail::Attempted(span) => span.end - span.start,
                    _ => 1,
                })
                .sum();
            let mut failure = PassFailure {
                failed_ops: Vec::with_capacity(frags.len()),
                restraints: Vec::with_capacity(restraints),
            };
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
                        if let Some(tid) = self.statics.required_type_id[op.index()] {
                            restraints.push(Restraint::ResourceContention {
                                op,
                                ty: self.interner.ty(tid).clone(),
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
        let mut ops: Vec<(OpId, ScheduledOp)> = Vec::with_capacity(self.statics.n);
        for rt in &self.regions {
            for (l, &g) in rt.members.iter().enumerate() {
                let p = rt.frame.placed[l].expect("into_desc requires a complete schedule");
                let op = OpId::from_raw(g);
                let scheduled = ScheduledOp {
                    op,
                    state: p.state,
                    resource: p.resource,
                };
                ops.push((op, scheduled));
            }
        }
        // the trivial plan's one region lists its ops in id order
        if !self.plan.is_trivial() {
            ops.sort_unstable_by_key(|&(op, _)| op);
        }
        ScheduleDesc {
            num_states: self.latency,
            ii: self.config.pipeline.map(|p| p.ii),
            // built in bulk from the sorted pairs
            ops: ops.into_iter().collect(),
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

/// Adds the edge `from → to` unless `succ` has it; says whether it did.
fn comb_add_edge(succ: &mut [Vec<u32>], from: u32, to: u32) -> bool {
    let entry = &mut succ[from as usize];
    let new = !entry.contains(&to);
    if new {
        entry.push(to);
    }
    new
}

fn min_opt(a: Option<u32>, b: Option<u32>) -> Option<u32> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// The test-build oracles: the walk that checks every placement scan, the
/// full scan of the priority order that checks every ready list, the
/// cloned frames that check every rewind, the rebuilds that check the kept
/// tables as every region pass starts, and the coverage they report.
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
        /// Region passes whose kept tables were checked against their
        /// rebuilds, by how they started: from state 0 as a run's first
        /// pass, from state 0 again, from the live frame, and after a
        /// rewind that followed `AddState`, `AddResource`,
        /// `AddResourceBatch`, `MoveScc` and `ForbidBinding`.
        pub(crate) tables: [u64; 8],
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
            for (a, b) in self.tables.iter_mut().zip(o.tables) {
                *a += b;
            }
        }
    }

    /// How a region pass starts: from state 0, from the live frame (an
    /// `AddState` appending a state), or by a rewind to a step that ran.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(super) enum Start {
        Reset,
        Continue,
        Rewind,
    }

    impl Start {
        /// The start of a pass resuming at `resume` over `marks` steps run.
        pub(super) fn of(resume: u32, marks: usize) -> Self {
            if resume == 0 {
                Start::Reset
            } else if (resume as usize) < marks {
                Start::Rewind
            } else {
                Start::Continue
            }
        }
    }

    /// The tables a region derives from its placement (see
    /// [`rebuild_derived`]), with every busy list and every adjacency
    /// list sorted.
    #[derive(PartialEq)]
    pub(super) struct Derived {
        busy: Vec<Vec<u32>>,
        occupied: Vec<u64>,
        comb_succ: Vec<Vec<u32>>,
    }

    /// The ready set a region derives from its placement and the upstream
    /// regions' (see [`rebuild_ready`]).
    #[derive(PartialEq)]
    pub(super) struct Ready {
        rank: Vec<u32>,
        waiting: Vec<u32>,
        release: Vec<u32>,
        ready_bits: Vec<u64>,
        unplaced: Vec<u64>,
    }

    /// Rebuilds one region's busy table, occupancy bitsets and
    /// combinational graph from its current placement (they are pure
    /// functions of it), as every pass did before the journal kept them.
    /// Only same-region producer/consumer pairs can chain combinationally:
    /// a cross-region value is registered by the cut rule, so it never
    /// shares a state.
    pub(super) fn rebuild_derived(
        engine: &Engine,
        cur: &RegionRt,
        fold_states: u32,
        ii: u32,
    ) -> Derived {
        let words = cur.insts.len().div_ceil(64);
        let mut busy = vec![Vec::new(); fold_states as usize * words * 64];
        let mut occupied = vec![0u64; fold_states as usize * words];
        let mut comb_succ = vec![Vec::new(); cur.insts.len()];
        for (l, &g) in cur.members.iter().enumerate() {
            let Some(pc) = cur.frame.placed[l] else {
                continue;
            };
            let Some(rc) = pc.resource else { continue };
            let local = engine.inst_local[rc.index()] as usize;
            let folded = engine.fold(pc.state, ii) as usize;
            busy[folded * words * 64 + local].push(l as u32);
            occupied[folded * words + local / 64] |= 1 << (local % 64);
            for sig in &engine.body.dfg.op(OpId::from_raw(g)).inputs {
                if sig.distance > 0 {
                    continue;
                }
                let Some(prod) = sig.producer() else { continue };
                if engine.plan.region_of[prod.index()] != engine.plan.region_of[g as usize] {
                    continue;
                }
                let pl = engine.plan.local_of[prod.index()] as usize;
                let Some(pp) = cur.frame.placed[pl] else {
                    continue;
                };
                if pp.state == pc.state {
                    if let Some(rp) = pp.resource {
                        comb_add_edge(&mut comb_succ, engine.inst_local[rp.index()], local as u32);
                    }
                }
            }
        }
        for list in &mut comb_succ {
            list.sort_unstable();
        }
        Derived {
            busy,
            occupied,
            comb_succ,
        }
    }

    /// Rebuilds one region's ready set from its current placement: every
    /// op's rank, unplaced same-region producers and upstream release
    /// state, the ready bitset and the unplaced ops, as every pass did
    /// before the journal kept them. Every same-region producer placed so
    /// far is in an earlier state than any the run schedules, so it allows
    /// chaining in all of them; an upstream producer allows the states
    /// after its own, and upstream regions do not move while this one runs.
    pub(super) fn rebuild_ready(
        engine: &Engine,
        base: u32,
        ridx: u32,
        cur: &RegionRt,
        done: &[RegionRt],
    ) -> Ready {
        let n_local = cur.members.len();
        let mut rank = vec![0; n_local];
        for (k, op) in cur.order.iter().enumerate() {
            rank[engine.plan.local_of[op.index()] as usize] = k as u32;
        }
        let mut waiting = vec![0; n_local];
        let mut release = vec![0; n_local];
        let mut ready_bits = vec![0; n_local.div_ceil(64)];
        let mut unplaced = vec![0; n_local.div_ceil(64)];
        for (l, &g) in cur.members.iter().enumerate() {
            for p in engine.statics.producers(g as usize) {
                let pr = engine.plan.region_of[p.index()];
                let pl = engine.plan.local_of[p.index()] as usize;
                if pr == ridx {
                    waiting[l] += u32::from(cur.frame.placed[pl].is_none());
                } else {
                    let placed = done[(pr - base) as usize].frame.placed[pl];
                    release[l] = release[l].max(placed.map_or(NEVER, |sp| sp.state + 1));
                }
            }
            if cur.frame.placed[l].is_none() {
                put_bit(&mut unplaced, l, true);
                put_bit(&mut ready_bits, rank[l] as usize, waiting[l] == 0);
            }
        }
        Ready {
            rank,
            waiting,
            release,
            ready_bits,
            unplaced,
        }
    }

    /// Asserts that the tables `cur` keeps through the journal equal their
    /// rebuilds from the placement as a pass starts, and counts the check
    /// by how the pass started.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn check_tables(
        engine: &Engine,
        base: u32,
        ridx: u32,
        cur: &mut RegionRt,
        done: &[RegionRt],
        fold_states: u32,
        ii: u32,
        start: Start,
    ) {
        let derived = rebuild_derived(engine, cur, fold_states, ii);
        let kept = Derived {
            busy: (0..cur.busy.len())
                .map(|slot| {
                    let mut list: Vec<u32> = cur.bound_in(slot).map(|l| l as u32).collect();
                    list.sort_unstable();
                    list
                })
                .collect(),
            occupied: cur.occupied.clone(),
            comb_succ: cur
                .comb_succ
                .iter()
                .map(|list| {
                    let mut list = list.clone();
                    list.sort_unstable();
                    list
                })
                .collect(),
        };
        assert!(
            kept == derived,
            "region {ridx}'s kept busy table, occupancy or combinational graph differs from its \
             rebuild ({start:?})"
        );
        let ready = rebuild_ready(engine, base, ridx, cur, done);
        let kept = Ready {
            rank: cur.rank.clone(),
            waiting: cur.waiting.clone(),
            release: cur.release.clone(),
            ready_bits: cur.ready_bits.clone(),
            unplaced: cur.unplaced.clone(),
        };
        assert!(
            kept == ready,
            "region {ridx}'s kept ready set differs from its rebuild ({start:?})"
        );
        let kind = match (start, &engine.last_action) {
            (Start::Reset, None) => 0,
            (Start::Reset, Some(_)) => 1,
            (Start::Continue, _) => 2,
            (Start::Rewind, Some(RelaxAction::AddState)) => 3,
            (Start::Rewind, Some(RelaxAction::AddResource(_))) => 4,
            (Start::Rewind, Some(RelaxAction::AddResourceBatch { .. })) => 5,
            (Start::Rewind, Some(RelaxAction::MoveScc { .. })) => 6,
            (Start::Rewind, Some(RelaxAction::ForbidBinding { .. })) => 7,
            (Start::Rewind, None) => unreachable!("a rewind follows an action"),
        };
        cur.coverage.tables[kind] += 1;
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
            let mut flips: Vec<(usize, bool)> = priority_flips(
                &engine.statics,
                &mut order_for(&engine.statics, latency),
                latency,
            )
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
            let next = order_for(&engine.statics, latency + 1);
            for (r, rt) in engine.regions.iter().enumerate() {
                let own = next
                    .iter()
                    .filter(|op| engine.plan.region_of[op.index()] as usize == r);
                assert!(
                    rt.order.iter().eq(own),
                    "{label} L{latency}: region {r}'s new order"
                );
            }
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

    /// Every region pass of the runs over the oracle corpus starts with its
    /// kept tables (busy table, occupancy bits, combinational graph, ranks,
    /// waiting counts, release states, ready bits and unplaced ops)
    /// checked against their rebuilds from the placement (see
    /// `oracle::check_tables`). The corpus is run as generated and with
    /// the pins of [`pinned`]. Sequentially and at II = 2 it must check
    /// passes that start from state 0 again and passes resumed by a rewind;
    /// over its four configurations, a pass after each way of starting one.
    #[test]
    fn kept_tables_match_their_rebuilds_on_generated_designs() {
        let lib = TechLibrary::artisan_90nm_typical();
        let (bodies, configs) = oracle_corpus();
        let _ = oracle::take();
        let mut tables = [0u64; 8];
        for (c, config) in configs.iter().enumerate() {
            for body in &bodies {
                if let Ok(s) = Scheduler::new(body, &lib, config.clone()).run() {
                    let _ = Scheduler::new(&pinned(body, &s.desc), &lib, config.clone()).run();
                }
            }
            let cov = oracle::take();
            // the first two configurations: sequential, and II = 2
            if c < 2 {
                assert!(
                    cov.tables[1] > 0 && cov.tables[3..].iter().sum::<u64>() > 0,
                    "{config:?}: {:?}",
                    cov.tables
                );
            }
            for (a, b) in tables.iter_mut().zip(cov.tables) {
                *a += b;
            }
        }
        assert!(
            tables.iter().all(|&n| n > 0),
            "the corpus must check a run's first pass, a pass from state 0 again, \
             one from the live frame, and one after a rewind following each \
             kind of action: {tables:?}"
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
