//! Region decomposition: condensing the DFG's SCC graph into independently
//! schedulable regions.
//!
//! Large designs make whole-body re-passes the scalability bottleneck: a
//! relaxation action that touches one operation forces the pass scheduler to
//! revisit every op from the resume state onward. This module condenses the
//! dependence graph — Tarjan SCCs as atomic nodes, a greedy feedback-arc-set
//! heuristic linearizing the ops *inside* each cyclic SCC — and chunks the
//! condensation, component by component in topological order, into regions of
//! roughly `target_ops` operations.
//!
//! Regions communicate only through **registered cut values**: a value whose
//! producer and consumer live in different regions is launched from a
//! register, so the consumer can only be scheduled in a *strictly later*
//! control step than the producer. This makes a region's schedule a pure
//! function of (a) its own ops/pool and (b) the *states* of its upstream
//! boundary ops — no same-state chaining crosses a cut, so scheduling regions
//! one after the other (or independent region groups in parallel) reproduces
//! exactly what a single state-major pass over the whole body would produce
//! under the same cut rule. The scheduler exploits that for bounded
//! invalidation: an action re-passes only the regions whose inputs it
//! changed, and downstream regions replay only if a boundary state actually
//! moved.
//!
//! Each region also owns a private resource pool (computed as
//! [`initial_resource_set_for_ops`](crate::resources::initial_resource_set_for_ops)
//! does over its members; `plan_resources` builds them all into one set)
//! so binding never contends across regions. With a single region the plan
//! degenerates to the monolithic problem: full pool, no cuts,
//! byte-identical behavior to a run without region decomposition.

use crate::relax::{same_name, slack_ops, Restraint};
use crate::resources::add_initial_resources;
use hls_ir::analysis::Scc;
use hls_ir::{LinearBody, OpId};
use hls_tech::{ResourceSet, ResourceType};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// One schedulable region of the decomposition.
#[derive(Clone, Debug)]
pub struct RegionInfo {
    /// Member operations (global op indices) in dataflow order: topological
    /// across condensation nodes, greedy-FAS (feedback-minimal) inside each
    /// cyclic SCC. This order fixes the region-local index layout; it does
    /// not affect scheduling decisions.
    pub ops: Vec<u32>,
    /// Member ops whose value crosses into another region (ascending ids).
    pub boundary: Vec<u32>,
    /// For each boundary entry, the regions consuming it (ascending, dedup).
    pub consumers: Vec<Vec<u32>>,
}

/// A full region decomposition of one loop body.
#[derive(Clone, Debug)]
pub struct RegionPlan {
    /// The regions, in topological order (all dependence edges point from a
    /// lower region index to a higher one within a component).
    pub regions: Vec<RegionInfo>,
    /// Region index of every op.
    pub region_of: Vec<u32>,
    /// Region-local index of every op (position in its region's `ops`).
    pub local_of: Vec<u32>,
    /// Weakly connected component ranges as `[start, end)` region index
    /// pairs. Regions in different components share no dependence edges and
    /// can be scheduled concurrently.
    pub components: Vec<(u32, u32)>,
}

impl RegionPlan {
    /// The monolithic plan: one region containing every op in id order.
    pub fn trivial(num_ops: usize) -> Self {
        RegionPlan {
            regions: vec![RegionInfo {
                ops: (0..num_ops as u32).collect(),
                boundary: Vec::new(),
                consumers: Vec::new(),
            }],
            region_of: vec![0; num_ops],
            local_of: (0..num_ops as u32).collect(),
            components: vec![(0, 1)],
        }
    }

    /// Whether the plan is a single region (no cuts, no decomposition
    /// overhead — the scheduler behaves exactly as without a plan).
    pub fn is_trivial(&self) -> bool {
        self.regions.len() <= 1
    }

    /// Builds a decomposition targeting `target_ops` operations per region.
    ///
    /// `sccs` must be the body's non-trivial SCCs (from
    /// [`hls_ir::analysis::sccs`]); each SCC is kept atomic — its dynamic
    /// pipeline-stage pinning is per-SCC state that cannot span regions — so
    /// one SCC larger than the target becomes a region of its own, and a body
    /// that is a single giant SCC collapses to the trivial plan.
    pub fn build(body: &LinearBody, sccs: &[Scc], target_ops: usize) -> Self {
        let n = body.dfg.num_ops();
        if n == 0 {
            return Self::trivial(0);
        }
        let target = target_ops.max(1);

        // Dependence edges the pass scheduler reads across ops: same-iteration
        // data inputs, io ordering deps, and predicate condition values of
        // side-effecting ops. Loop-carried edges are excluded — a carried
        // value is launched from a register regardless of regions, so it
        // imposes no region precedence.
        let preds = intra_iteration_preds(body);

        // Condensation nodes: the non-trivial SCCs (greedy-FAS-linearized),
        // then every remaining op as a singleton node.
        let mut node_of = vec![u32::MAX; n];
        let mut nodes: Vec<Vec<u32>> = Vec::with_capacity(sccs.len());
        for (si, scc) in sccs.iter().enumerate() {
            for op in &scc.ops {
                node_of[op.index()] = si as u32;
            }
            nodes.push(scc_linearization(body, scc, &preds));
        }
        for (i, slot) in node_of.iter_mut().enumerate() {
            if *slot == u32::MAX {
                *slot = nodes.len() as u32;
                nodes.push(vec![i as u32]);
            }
        }
        let m = nodes.len();

        // Node-level edges (dedup) and weak components via union-find.
        let mut parent: Vec<u32> = (0..m as u32).collect();
        let mut node_preds: Vec<Vec<u32>> = vec![Vec::new(); m];
        for (b, ps) in preds.iter().enumerate() {
            for &p in ps {
                let (np, nb) = (node_of[p as usize], node_of[b]);
                if np != nb {
                    node_preds[nb as usize].push(np);
                    union(&mut parent, np, nb);
                }
            }
        }
        let mut node_succs: Vec<Vec<u32>> = vec![Vec::new(); m];
        let mut indeg: Vec<u32> = vec![0; m];
        for b in 0..m {
            node_preds[b].sort_unstable();
            node_preds[b].dedup();
            indeg[b] = node_preds[b].len() as u32;
            for &p in &node_preds[b] {
                node_succs[p as usize].push(b as u32);
            }
        }

        // Components ordered by their smallest member op id, for determinism.
        let mut comps: BTreeMap<u32, (u32, Vec<u32>)> = BTreeMap::new();
        for v in 0..m as u32 {
            let root = find(&mut parent, v);
            let min_op = nodes[v as usize].iter().copied().min().unwrap_or(u32::MAX);
            let entry = comps.entry(root).or_insert((u32::MAX, Vec::new()));
            entry.0 = entry.0.min(min_op);
            entry.1.push(v);
        }
        let mut ordered: Vec<(u32, Vec<u32>)> = comps.into_values().collect();
        ordered.sort_unstable_by_key(|(key, _)| *key);

        // Per component: Kahn topological order over its nodes (smallest node
        // id first among ready nodes), chunked greedily up to the target.
        let mut regions_ops: Vec<Vec<u32>> = Vec::new();
        let mut components: Vec<(u32, u32)> = Vec::new();
        for (_, comp) in ordered {
            let start = regions_ops.len() as u32;
            let mut heap: BinaryHeap<std::cmp::Reverse<u32>> = comp
                .iter()
                .copied()
                .filter(|&v| indeg[v as usize] == 0)
                .map(std::cmp::Reverse)
                .collect();
            let mut cur: Vec<u32> = Vec::new();
            while let Some(std::cmp::Reverse(v)) = heap.pop() {
                let members = &nodes[v as usize];
                if !cur.is_empty() && cur.len() + members.len() > target {
                    regions_ops.push(std::mem::take(&mut cur));
                }
                cur.extend_from_slice(members);
                for &s in &node_succs[v as usize] {
                    indeg[s as usize] -= 1;
                    if indeg[s as usize] == 0 {
                        heap.push(std::cmp::Reverse(s));
                    }
                }
            }
            if !cur.is_empty() {
                regions_ops.push(cur);
            }
            components.push((start, regions_ops.len() as u32));
        }

        // Index maps and boundary interfaces.
        let mut region_of = vec![0u32; n];
        let mut local_of = vec![0u32; n];
        for (ri, ops) in regions_ops.iter().enumerate() {
            for (l, &g) in ops.iter().enumerate() {
                region_of[g as usize] = ri as u32;
                local_of[g as usize] = l as u32;
            }
        }
        let mut bmaps: Vec<BTreeMap<u32, BTreeSet<u32>>> = vec![BTreeMap::new(); regions_ops.len()];
        for (b, ps) in preds.iter().enumerate() {
            for &p in ps {
                let (rp, rb) = (region_of[p as usize], region_of[b]);
                if rp != rb {
                    bmaps[rp as usize].entry(p).or_default().insert(rb);
                }
            }
        }
        let regions = regions_ops
            .into_iter()
            .zip(bmaps)
            .map(|(ops, bmap)| {
                let boundary: Vec<u32> = bmap.keys().copied().collect();
                let consumers: Vec<Vec<u32>> = bmap
                    .into_values()
                    .map(|s| s.into_iter().collect())
                    .collect();
                RegionInfo {
                    ops,
                    boundary,
                    consumers,
                }
            })
            .collect();
        RegionPlan {
            regions,
            region_of,
            local_of,
            components,
        }
    }
}

fn find(parent: &mut [u32], v: u32) -> u32 {
    let mut root = v;
    while parent[root as usize] != root {
        root = parent[root as usize];
    }
    let mut cur = v;
    while parent[cur as usize] != root {
        let next = parent[cur as usize];
        parent[cur as usize] = root;
        cur = next;
    }
    root
}

fn union(parent: &mut [u32], a: u32, b: u32) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent[ra.max(rb) as usize] = ra.min(rb);
    }
}

/// Same-iteration predecessor lists over op indices: distance-0 data inputs,
/// io ordering deps and (for side-effecting ops) predicate condition values —
/// exactly the cross-op reads the pass scheduler performs.
fn intra_iteration_preds(body: &LinearBody) -> Vec<Vec<u32>> {
    let n = body.dfg.num_ops();
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (id, op) in body.dfg.iter_ops() {
        let b = id.index();
        for sig in &op.inputs {
            if sig.distance == 0 {
                if let Some(p) = sig.producer() {
                    preds[b].push(p.index() as u32);
                }
            }
        }
        if op.kind.has_side_effects() {
            for c in op.predicate.condition_ops() {
                preds[b].push(c.index() as u32);
            }
        }
    }
    for (a, b) in body.io_order_deps() {
        preds[b.index()].push(a.index() as u32);
    }
    preds
}

/// Linearizes one SCC's members with the greedy feedback-arc-set heuristic:
/// repeatedly peel sinks to the right and sources to the left, and when only
/// cyclic structure remains pick the node with the largest out−in degree
/// delta. The resulting order puts intra-iteration producers before
/// consumers wherever possible, so region listings read in dataflow order
/// even inside a cycle. Ties break on the smallest op id — the order is
/// deterministic.
fn scc_linearization(body: &LinearBody, scc: &Scc, preds: &[Vec<u32>]) -> Vec<u32> {
    let mut ids: Vec<u32> = scc.ops.iter().map(|o| o.index() as u32).collect();
    ids.sort_unstable();
    if ids.len() <= 1 {
        return ids;
    }
    // Local edges: every dependence between members, including loop-carried
    // data edges (they are what closes the cycle).
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (lb, &g) in ids.iter().enumerate() {
        for (p, _distance) in body.dfg.preds_with_carried(OpId::from_raw(g)) {
            if let Ok(lp) = ids.binary_search(&(p.index() as u32)) {
                edges.push((lp, lb));
            }
        }
        for &p in &preds[g as usize] {
            if let Ok(lp) = ids.binary_search(&p) {
                edges.push((lp, lb));
            }
        }
    }
    greedy_fas_order(ids.len(), &edges)
        .into_iter()
        .map(|l| ids[l])
        .collect()
}

/// Greedy feedback-arc-set ordering of a (possibly cyclic) graph over nodes
/// `0..n`: returns a permutation in which the number of edges pointing
/// "backwards" is heuristically minimized. Self-loops and duplicate edges
/// are ignored; ties break on the smallest node index.
pub fn greedy_fas_order(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    let mut uniq: Vec<(usize, usize)> = edges.iter().copied().filter(|(a, b)| a != b).collect();
    uniq.sort_unstable();
    uniq.dedup();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pred: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in &uniq {
        succ[a].push(b);
        pred[b].push(a);
    }
    let mut outdeg: Vec<isize> = succ.iter().map(|v| v.len() as isize).collect();
    let mut indeg: Vec<isize> = pred.iter().map(|v| v.len() as isize).collect();
    let mut removed = vec![false; n];
    let mut remaining = n;
    let mut left: Vec<usize> = Vec::new();
    let mut right: Vec<usize> = Vec::new();
    let remove =
        |v: usize, removed: &mut Vec<bool>, outdeg: &mut Vec<isize>, indeg: &mut Vec<isize>| {
            removed[v] = true;
            for &s in &succ[v] {
                if !removed[s] {
                    indeg[s] -= 1;
                }
            }
            for &p in &pred[v] {
                if !removed[p] {
                    outdeg[p] -= 1;
                }
            }
        };
    while remaining > 0 {
        // Peel sinks (to the right) and sources (to the left) until neither
        // exists, then break one cycle by ejecting the best spreader.
        let mut progressed = true;
        while progressed {
            progressed = false;
            while let Some(v) = (0..n).find(|&v| !removed[v] && outdeg[v] == 0) {
                remove(v, &mut removed, &mut outdeg, &mut indeg);
                right.push(v);
                remaining -= 1;
                progressed = true;
            }
            while let Some(v) = (0..n).find(|&v| !removed[v] && indeg[v] == 0) {
                remove(v, &mut removed, &mut outdeg, &mut indeg);
                left.push(v);
                remaining -= 1;
                progressed = true;
            }
        }
        if remaining > 0 {
            let v = (0..n)
                .filter(|&v| !removed[v])
                .max_by_key(|&v| (outdeg[v] - indeg[v], std::cmp::Reverse(v)))
                .expect("remaining nodes exist");
            remove(v, &mut removed, &mut outdeg, &mut indeg);
            left.push(v);
            remaining -= 1;
        }
    }
    right.reverse();
    left.extend(right);
    left
}

/// The global resource set of a plan, built once: each region's initial
/// pool (the lower-bound set its own ops demand), added in region order,
/// and per instance the region that owns it. Region pools are what makes
/// binding region-local — both the incremental engine and the reference
/// driver start from this set, so they solve the identical problem. The
/// trivial single-region plan's set is `initial_resource_set` over the
/// whole body.
pub(crate) fn plan_resources(
    body: &LinearBody,
    plan: &RegionPlan,
    slots_per_instance: u32,
) -> (ResourceSet, Vec<u32>) {
    let mut set = ResourceSet::new();
    let mut inst_region = Vec::new();
    for (r, region) in plan.regions.iter().enumerate() {
        let ops = region.ops.iter().map(|&g| OpId::from_raw(g));
        add_initial_resources(&mut set, body, ops, slots_per_instance);
        inst_region.resize(set.len(), r as u32);
    }
    (set, inst_region)
}

/// The region that receives a new instance of `ty` after an `AddResource`
/// action: the region of the first resource-contention restraint naming the
/// type, skipping ops that also have negative slack — the same filter
/// [`choose_action`](crate::relax::choose_action) applied when it proposed
/// the action, so the owner is the op the action was created for. Both
/// scheduling drivers derive the owner from the same restraint list and
/// therefore agree. Types are matched by name, compared by [`same_name`].
pub(crate) fn owner_region(restraints: &[Restraint], ty: &ResourceType, region_of: &[u32]) -> u32 {
    let slack_ops = slack_ops(restraints);
    restraints
        .iter()
        .find_map(|r| match r {
            Restraint::ResourceContention { op, ty: rty, .. }
                if !slack_ops.contains(op) && same_name(rty, ty) =>
            {
                Some(region_of.get(op.index()).copied().unwrap_or(0))
            }
            _ => None,
        })
        .unwrap_or(0)
}

/// The regions that receive the instances of an `AddResourceBatch` action:
/// one per distinct operation with a contention restraint naming the type, in
/// restraint order, padded with region 0 if the restraint list yields fewer
/// than `count` owners. Both scheduling drivers derive the owners from the
/// same restraint list and therefore agree. Types are matched by name,
/// compared by [`same_name`].
pub(crate) fn batch_owner_regions(
    restraints: &[Restraint],
    ty: &ResourceType,
    count: usize,
    region_of: &[u32],
) -> Vec<u32> {
    let slack_ops = slack_ops(restraints);
    let mut seen: std::collections::HashSet<OpId> = std::collections::HashSet::new();
    let mut owners = Vec::with_capacity(count);
    // Two rounds: pure-contention ops first — the ops the normal candidate
    // source counted — then contention-with-timing ops, which only the
    // deadlock escape proposes hardware for.
    for round in 0..2 {
        for r in restraints {
            if owners.len() >= count {
                break;
            }
            if let Restraint::ResourceContention { op, ty: rty, .. } = r {
                if (round == 1) != slack_ops.contains(op) {
                    continue;
                }
                if same_name(rty, ty) && seen.insert(*op) {
                    owners.push(region_of.get(op.index()).copied().unwrap_or(0));
                }
            }
        }
    }
    owners.resize(count, 0);
    owners
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::analysis::sccs;
    use hls_ir::{Dfg, LinearBody, OpKind, PortDirection, Signal};

    /// in → a → b → c → out : a pure chain.
    fn chain_body() -> LinearBody {
        let mut dfg = Dfg::new();
        let pin = dfg.add_port("in", PortDirection::Input, 16);
        let pout = dfg.add_port("out", PortDirection::Output, 16);
        let r = dfg.add_op(OpKind::Read(pin), 16, vec![]);
        let a = dfg.add_op(
            OpKind::Add,
            16,
            vec![Signal::op_w(r, 16), Signal::constant(1, 16)],
        );
        let b = dfg.add_op(
            OpKind::Add,
            16,
            vec![Signal::op_w(a, 16), Signal::constant(2, 16)],
        );
        let c = dfg.add_op(
            OpKind::Add,
            16,
            vec![Signal::op_w(b, 16), Signal::constant(3, 16)],
        );
        dfg.add_op(OpKind::Write(pout), 16, vec![Signal::op_w(c, 16)]);
        LinearBody::from_dfg("chain", dfg)
    }

    #[test]
    fn trivial_plan_shape() {
        let p = RegionPlan::trivial(4);
        assert!(p.is_trivial());
        assert_eq!(p.regions[0].ops, vec![0, 1, 2, 3]);
        assert_eq!(p.components, vec![(0, 1)]);
        assert!(p.regions[0].boundary.is_empty());
    }

    #[test]
    fn chain_with_target_one_puts_every_op_in_its_own_region() {
        let body = chain_body();
        let comps = sccs(&body.dfg);
        let plan = RegionPlan::build(&body, &comps, 1);
        assert_eq!(plan.regions.len(), body.dfg.num_ops());
        // Topological: every region's boundary consumers point forward.
        for (ri, r) in plan.regions.iter().enumerate() {
            for cons in &r.consumers {
                for &c in cons {
                    assert!(c as usize > ri, "consumers must be downstream");
                }
            }
        }
        // The chain's cut values are exactly the four producer→consumer arcs.
        let cuts: usize = plan.regions.iter().map(|r| r.boundary.len()).sum();
        assert_eq!(cuts, 4);
    }

    #[test]
    fn large_target_collapses_to_one_region() {
        let body = chain_body();
        let comps = sccs(&body.dfg);
        let plan = RegionPlan::build(&body, &comps, 1000);
        assert!(plan.is_trivial());
        assert!(plan.regions[0].boundary.is_empty());
    }

    #[test]
    fn greedy_fas_is_topological_on_dags() {
        // 0→1→2→3 plus 0→2: any feedback-free order is 0,1,2,3.
        let order = greedy_fas_order(4, &[(0, 1), (1, 2), (2, 3), (0, 2)]);
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn greedy_fas_breaks_cycles_with_minimal_feedback() {
        // A 3-cycle with an extra forward chain hanging off node 1:
        // 0→1→2→0 and 1→3→4. One feedback edge is unavoidable; all chain
        // edges must stay forward.
        let edges = [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4)];
        let order = greedy_fas_order(5, &edges);
        let pos: Vec<usize> = {
            let mut p = vec![0; 5];
            for (i, &v) in order.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        let feedback = edges.iter().filter(|&&(a, b)| pos[a] > pos[b]).count();
        assert_eq!(
            feedback, 1,
            "exactly one cycle edge goes backwards: {order:?}"
        );
    }

    #[test]
    fn carried_accumulator_scc_stays_atomic() {
        // acc = acc@-1 + in : a self-loop SCC; with target 1 the SCC op is
        // still a single region (atomic), and the carried edge imposes no
        // region precedence.
        let mut dfg = Dfg::new();
        let pin = dfg.add_port("in", PortDirection::Input, 16);
        let pout = dfg.add_port("out", PortDirection::Output, 16);
        let r = dfg.add_op(OpKind::Read(pin), 16, vec![]);
        let acc = dfg.add_op(OpKind::Add, 16, vec![Signal::op_w(r, 16)]);
        let acc_self = Signal::carried(acc, 16, 1);
        dfg.op_mut(acc).inputs.push(acc_self);
        dfg.add_op(OpKind::Write(pout), 16, vec![Signal::op_w(acc, 16)]);
        let body = LinearBody::from_dfg("acc", dfg);
        let comps = sccs(&body.dfg);
        assert_eq!(comps.len(), 1, "the accumulator forms one SCC");
        let plan = RegionPlan::build(&body, &comps, 1);
        assert_eq!(plan.regions.len(), 3);
        let acc_region = plan.region_of[acc.index()] as usize;
        assert_eq!(plan.regions[acc_region].ops, vec![acc.index() as u32]);
    }

    #[test]
    fn pool_concatenation_tracks_owning_region() {
        let body = chain_body();
        let comps = sccs(&body.dfg);
        let plan = RegionPlan::build(&body, &comps, 2);
        let (set, inst_region) = plan_resources(&body, &plan, 4);
        assert_eq!(set.len(), inst_region.len());
        // region by region, the instances are that region's own pool's
        let mut start = 0;
        for (r, region) in plan.regions.iter().enumerate() {
            let ops: Vec<OpId> = region.ops.iter().map(|&g| OpId::from_raw(g)).collect();
            let pool = crate::resources::initial_resource_set_for_ops(&body, &ops, 4);
            let end = start + pool.len();
            assert!(inst_region[start..end].iter().all(|&o| o == r as u32));
            let types = set.iter().skip(start).take(pool.len()).map(|i| &i.ty);
            assert!(types.eq(pool.iter().map(|i| &i.ty)), "region {r}");
            start = end;
        }
        assert_eq!(start, set.len());
        // one region: the whole body's initial set, names and all
        let trivial = RegionPlan::trivial(body.dfg.num_ops());
        let (whole, owners) = plan_resources(&body, &trivial, 4);
        assert_eq!(whole, crate::resources::initial_resource_set(&body, 4));
        assert!(owners.iter().all(|&o| o == 0));
    }
}
