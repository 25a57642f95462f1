//! Cell-level static timing analysis over a validated netlist.
//!
//! The analyzer replays the paper's Figure 8 delay model on the *lowered*
//! netlist instead of the scheduler's operation chains: every value launched
//! from a register (or a registered source such as an input port or a
//! controller bit) starts at the flip-flop clock-to-Q delay, combinational
//! cells add their Table 1 functional-unit delay, and every path ends at a
//! register or output-port endpoint with the flip-flop setup time.
//!
//! ## Steering trees are charged by fan-in, not by depth
//!
//! The lowering expresses an `n`-way sharing multiplexer as a chain of
//! 2-way [`CellKind::Mux`] cells. Physically that chain is one `mux_n`
//! (synthesis rebalances it into a tree), and the paper's model prices it as
//! such: `mux2` = 110 ps, `mux3` = 115 ps, ~5 ps per further tree level —
//! not 110 ps per chained element. The analyzer therefore computes each mux
//! subtree's *leaf fan-in* and charges [`ChainTiming::mux_tree_delay_ps`]
//! once at the point where the tree's value is consumed by a non-mux cell;
//! inner tree cells are transparent. A select the current state resolves
//! statically is a registered Moore output of the controller and launches at
//! clock-to-Q; a data-dependent select (a predicate computed this cycle)
//! contributes its full combinational arrival.
//!
//! ## The analysis is mode-aware: one pass per folded state
//!
//! In a shared-FU netlist the steering selects are `fsm == k` compares, so a
//! purely topological walk would chase *temporally false* paths: the
//! multiplier's state-2 result into the adder's state-3 steering arm looks
//! like one combinational path even though no single cycle exercises it.
//! The analyzer instead evaluates the control network once per folded state
//! (the state counter pinned to `k`, constants folded through the guard
//! logic), restricts every mux whose select is then statically known to its
//! selected arm, skips register/output endpoints whose enable is statically
//! false in that state, and reports each endpoint's worst arrival over all
//! states. Selects that stay unknown — stage-valid bits, data-dependent
//! predicates — keep both arms, which is the conservative direction.
//!
//! ## What is computed once, and what per state
//!
//! Only the folded control values change from state to state. Each call
//! therefore builds, once, the topological order, every cell's role (launch
//! point, mux or plain cell) with its delay, the endpoint list and the
//! *control cone*: the cells a mux select or an endpoint enable reads
//! through the kinds the fold propagates. Each state then folds the cone
//! only and walks the arrivals in buffers reused across states. The
//! critical path is recovered by walking the winning state once more with
//! predecessor recording.

use hls_ir::CmpKind;
use hls_netlist::ChainTiming;
use hls_nir::{BinKind, CellId, CellKind, NirModule, UnKind};
use hls_tech::ClockConstraint;

#[cfg(test)]
mod oracle;

/// One cell on the critical path, with its contribution to the path delay.
#[derive(Clone, Debug, PartialEq)]
pub struct PathStep {
    /// The cell.
    pub cell: CellId,
    /// Display name (the lowering-assigned net name, or `%id`).
    pub name: String,
    /// Cell-kind mnemonic (`mul`, `mux`, `reg`, ...).
    pub kind: &'static str,
    /// Output width of the cell.
    pub width: u16,
    /// Steering-tree leaf fan-in (1 for non-mux cells; for a mux, the number
    /// of data leaves of the subtree rooted here).
    pub fanin: usize,
    /// Delay this step adds to the path, in picoseconds. Steps telescope:
    /// the sum of all increments equals the endpoint arrival.
    pub incr_ps: f64,
    /// Path arrival time at this step's output, in picoseconds.
    pub arrival_ps: f64,
}

/// One timing endpoint: a register or output-port cell where a
/// combinational path is captured.
#[derive(Clone, Debug, PartialEq)]
pub struct TimingEndpoint {
    /// The capturing cell.
    pub cell: CellId,
    /// Display name of the capturing cell.
    pub name: String,
    /// Total path delay into this endpoint (arrival + setup), picoseconds.
    pub delay_ps: f64,
    /// Slack against the clock; negative means a setup violation.
    pub slack_ps: f64,
}

/// Whole-netlist timing summary: worst slack, total negative slack and the
/// named critical path.
#[derive(Clone, Debug, PartialEq)]
pub struct TimingSummary {
    /// Clock period the slacks are measured against, picoseconds.
    pub clock_ps: f64,
    /// Worst negative slack — the smallest endpoint slack (positive when
    /// every path meets the clock).
    pub wns_ps: f64,
    /// Total negative slack: the sum of all negative endpoint slacks
    /// (0 when timing is met).
    pub tns_ps: f64,
    /// Every endpoint, sorted worst-slack first.
    pub endpoints: Vec<TimingEndpoint>,
    /// The worst path, launch to capture; empty when the netlist has no
    /// endpoints.
    pub critical_path: Vec<PathStep>,
}

impl TimingSummary {
    /// Delay of the worst path (0 when there are no endpoints).
    pub fn critical_delay_ps(&self) -> f64 {
        self.endpoints.first().map(|e| e.delay_ps).unwrap_or(0.0)
    }

    /// Whether every endpoint meets the clock.
    pub fn meets_clock(&self) -> bool {
        self.wns_ps >= 0.0
    }

    /// The critical path as a one-line `a -> b -> c` rendering.
    pub fn critical_path_names(&self) -> String {
        self.critical_path
            .iter()
            .map(|s| s.name.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Display name of a cell: its lowering-assigned name, or `%id`.
pub(crate) fn cell_name(m: &NirModule, id: CellId) -> String {
    m.cell(id).name.clone().unwrap_or_else(|| format!("{id}"))
}

/// Steering-tree leaf fan-in per cell: 1 for non-mux cells; for a mux, the
/// number of data leaves of the 2-way-mux subtree rooted at it (an arm that
/// is itself a mux contributes its own fan-in, any other arm is one leaf).
pub(crate) fn mux_fanins(m: &NirModule) -> Vec<usize> {
    mux_fanins_in(m, &m.comb_topo_order())
}

/// [`mux_fanins`] over an already computed [`NirModule::comb_topo_order`].
fn mux_fanins_in(m: &NirModule, order: &[CellId]) -> Vec<usize> {
    let mut fanin = vec![1usize; m.num_cells()];
    // Arena order is not topological, so walk the validated topo order.
    for &id in order {
        let cell = m.cell(id);
        if let CellKind::Mux = cell.kind {
            let arm = |x: CellId| match m.cell(x).kind {
                CellKind::Mux => fanin[x.index()],
                _ => 1,
            };
            fanin[id.index()] = arm(cell.inputs[1]) + arm(cell.inputs[2]);
        }
    }
    fanin
}

/// Masks `v` to its low `w` bits.
fn mask(v: u64, w: u16) -> u64 {
    if w >= 64 {
        v
    } else {
        v & ((1u64 << w) - 1)
    }
}

/// Reads a value stored masked at width `from` back as signed, matching the
/// evaluator's two's-complement model.
fn sext(v: u64, from: u16) -> u64 {
    if from == 0 || from >= 64 {
        return v;
    }
    if v & (1u64 << (from - 1)) != 0 {
        v | !((1u64 << from) - 1)
    } else {
        v
    }
}

/// The statically known value of cell `id` with the FSM state counter
/// pinned to `fsm_state` (or left free with `None`), given the known values
/// of its operands: constants, the counter itself, and control logic folded
/// over them. `None` means unknown.
///
/// This deliberately covers only the shapes the lowering builds guards from
/// — `fsm == k` compares and `and`/`or`/`not` folds — plus enough mux/xor
/// propagation to chase a resolved select through derived control, and
/// width adapters ([`CellKind::Resize`]/[`CellKind::Slice`]) so that
/// rewrite-introduced re-widths on control nets stay transparent.
/// Normalization's identity forwarding and shift strength reduction leave
/// such adapters behind; a resolved select threaded through one must still
/// resolve, or the rewritten netlist would pick up spurious
/// `comb-fanin`/`dead-mux-arm` findings the pre-rewrite netlist did not
/// have. [`folds_operands`] names the kinds that read their operands here.
fn fold_cell(
    m: &NirModule,
    id: CellId,
    fsm_state: Option<u64>,
    known: &[Option<u64>],
) -> Option<u64> {
    let cell = m.cell(id);
    let w = cell.width;
    let input = |k: usize| known[cell.inputs[k].index()];
    let input_width = |k: usize| m.cell(cell.inputs[k]).width;
    match &cell.kind {
        CellKind::Const(v) => Some(mask(*v as u64, w)),
        CellKind::FsmState => fsm_state.map(|s| mask(s, w)),
        // Timing is analyzed at steady-state occupancy: every pipeline
        // stage valid, so steering is governed by the folded state
        // alone. Paths that appear only under partial occupancy carry
        // don't-care values (the consumer's capture is stage-gated).
        CellKind::StageValid { .. } => Some(1),
        CellKind::Bin(BinKind::And) => match (input(0), input(1)) {
            (Some(0), _) | (_, Some(0)) => Some(0),
            (Some(a), Some(b)) => Some(a & b),
            _ => None,
        },
        CellKind::Bin(BinKind::Or) => match (input(0), input(1)) {
            (Some(a), _) if a == mask(u64::MAX, w) => Some(a),
            (_, Some(b)) if b == mask(u64::MAX, w) => Some(b),
            (Some(a), Some(b)) => Some(a | b),
            _ => None,
        },
        CellKind::Bin(BinKind::Xor) => match (input(0), input(1)) {
            (Some(a), Some(b)) => Some(a ^ b),
            _ => None,
        },
        CellKind::Bin(BinKind::Cmp(CmpKind::Eq)) => match (input(0), input(1)) {
            (Some(a), Some(b)) => Some(u64::from(a == b)),
            _ => None,
        },
        CellKind::Bin(BinKind::Cmp(CmpKind::Ne)) => match (input(0), input(1)) {
            (Some(a), Some(b)) => Some(u64::from(a != b)),
            _ => None,
        },
        CellKind::Un(UnKind::Not) => input(0).map(|a| mask(!a, w)),
        CellKind::Mux => match input(0) {
            Some(sel) => input(if sel != 0 { 1 } else { 2 }),
            None => None,
        },
        CellKind::Resize => input(0).map(|a| mask(sext(a, input_width(0)), w)),
        CellKind::Slice { lo, .. } => input(0).map(|a| {
            let wide = sext(a, input_width(0)) as i64;
            mask((wide >> (*lo).min(63)) as u64, w)
        }),
        _ => None,
    }
}

/// Whether [`fold_cell`] reads the known values of a cell's operands: the
/// kinds through which the control cone extends.
fn folds_operands(kind: &CellKind) -> bool {
    matches!(
        kind,
        CellKind::Bin(
            BinKind::And | BinKind::Or | BinKind::Xor | BinKind::Cmp(CmpKind::Eq | CmpKind::Ne)
        ) | CellKind::Un(UnKind::Not)
            | CellKind::Mux
            | CellKind::Resize
            | CellKind::Slice { .. }
    )
}

/// Comb cells on a failing cone: every combinational cell reachable
/// backwards from an endpoint with negative slack, stopping at sequential
/// and source cells (registers, ports, constants, controller bits — the
/// launch points of the next path segment). This is the eligibility mask
/// `hls_lint::optimize_timed` hands to the `hls_nir` timing rewrites so
/// that netlists, and netlist regions, that already meet the clock are
/// never churned.
pub fn critical_cells(m: &NirModule, summary: &TimingSummary) -> Vec<bool> {
    let mut mask = vec![false; m.num_cells()];
    let mut stack: Vec<CellId> = Vec::new();
    for ep in &summary.endpoints {
        if ep.slack_ps >= 0.0 {
            continue;
        }
        stack.extend(m.cell(ep.cell).inputs.iter().copied());
    }
    while let Some(id) = stack.pop() {
        let i = id.index();
        if mask[i] {
            continue;
        }
        let cell = m.cell(id);
        if cell.kind.is_seq() || cell.kind.is_source() {
            continue;
        }
        mask[i] = true;
        stack.extend(cell.inputs.iter().copied());
    }
    mask
}

/// The folded states one analysis walks; a netlist without a folded
/// controller (pipelined II=1, fully combinational, or with no state
/// counter to read the state) gets a single free pass.
fn folded_states(m: &NirModule) -> Vec<Option<u64>> {
    let has_counter = m.cells.iter().any(|c| c.kind == CellKind::FsmState);
    if m.fold_states > 1 && has_counter {
        (0..m.fold_states).map(|k| Some(u64::from(k))).collect()
    } else {
        vec![None]
    }
}

/// The worst of `cells`' arrivals in `val`, first cell winning ties.
fn worst_of(cells: &[CellId], val: &[f64]) -> Option<(CellId, f64)> {
    let mut best: Option<(CellId, f64)> = None;
    for &c in cells {
        let v = val[c.index()];
        if best.map(|(_, b)| v > b).unwrap_or(true) {
            best = Some((c, v));
        }
    }
    best
}

/// What a combinational cell does in every state's walk.
enum Step<'m> {
    /// A 2-way mux: its select, its then/else arms (each flagged when it is
    /// an inner tree cell, read at its base), and the tree charge for this
    /// cell's leaf fan-in.
    Mux {
        cell: CellId,
        sel: CellId,
        arms: [(CellId, bool); 2],
        tree_ps: f64,
    },
    /// Any other combinational cell: its worst operand plus its own delay.
    Plain {
        cell: CellId,
        inputs: &'m [CellId],
        delay_ps: f64,
    },
}

/// One state's arrival times: per cell, the arrival at its output (`val`)
/// and, for muxes, the arrival before the tree charge (`base`). A recording
/// walk also keeps each cell's worst predecessor and the value it
/// contributed, for path recovery.
struct Arrivals {
    val: Vec<f64>,
    base: Vec<f64>,
    pred: Vec<Option<CellId>>,
    pred_val: Vec<f64>,
}

/// The state-independent part of one analysis, built once per call.
struct Plan<'m> {
    m: &'m NirModule,
    launch: f64,
    fanin: Vec<usize>,
    /// Combinational cells in topological order.
    steps: Vec<Step<'m>>,
    /// Cells a mux select or an endpoint enable reads through
    /// [`folds_operands`] kinds, in topological order.
    cone: Vec<CellId>,
    /// Register and output-port cells, in arena order.
    endpoints: Vec<CellId>,
    /// Arrival at every launch point: registers, port samples and
    /// controller bits at clock-to-Q, constants at 0.
    launch_val: Vec<f64>,
}

impl<'m> Plan<'m> {
    fn new(m: &'m NirModule, timing: &mut ChainTiming) -> Self {
        let n = m.num_cells();
        let order = m.comb_topo_order();
        let fanin = mux_fanins_in(m, &order);
        let launch = timing.register_arrival_ps();
        let mut launch_val = vec![0.0f64; n];
        let mut steps = Vec::with_capacity(n);
        let mut widths = Vec::new();
        for &id in &order {
            let cell = m.cell(id);
            match cell.kind {
                // Registers and port samples launch from a flip-flop;
                // controller bits are registers in the emitted RTL, and
                // constants are static.
                CellKind::Const(_) => {}
                _ if cell.kind.is_seq() || cell.kind.is_source() => {
                    launch_val[id.index()] = launch;
                }
                CellKind::Mux => {
                    let arm = |x: CellId| (x, matches!(m.cell(x).kind, CellKind::Mux));
                    steps.push(Step::Mux {
                        cell: id,
                        sel: cell.inputs[0],
                        arms: [arm(cell.inputs[1]), arm(cell.inputs[2])],
                        tree_ps: timing.mux_tree_delay_ps(fanin[id.index()], cell.width),
                    });
                }
                _ => {
                    widths.clear();
                    widths.extend(cell.inputs.iter().map(|&x| m.cell(x).width));
                    steps.push(Step::Plain {
                        cell: id,
                        inputs: &cell.inputs,
                        delay_ps: timing.cell_delay_ps(&cell.kind, &widths, cell.width),
                    });
                }
            }
        }

        let endpoints: Vec<CellId> = m
            .iter_cells()
            .filter(|(_, c)| matches!(c.kind, CellKind::Reg { .. } | CellKind::Output { .. }))
            .map(|(id, _)| id)
            .collect();
        let mut in_cone = vec![false; n];
        let mut stack: Vec<CellId> = endpoints
            .iter()
            .filter_map(|&e| m.cell(e).inputs.get(1).copied())
            .collect();
        stack.extend(steps.iter().filter_map(|s| match s {
            Step::Mux { sel, .. } => Some(*sel),
            Step::Plain { .. } => None,
        }));
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut in_cone[id.index()], true) {
                continue;
            }
            let cell = m.cell(id);
            if folds_operands(&cell.kind) {
                stack.extend(cell.inputs.iter().copied());
            }
        }
        let cone = order.into_iter().filter(|c| in_cone[c.index()]).collect();

        Plan {
            m,
            launch,
            fanin,
            steps,
            cone,
            endpoints,
            launch_val,
        }
    }

    /// Fresh arrival buffers; `pred`/`pred_val` are sized only for a
    /// recording walk.
    fn arrivals(&self, record: bool) -> Arrivals {
        let n = self.m.num_cells();
        let rec = if record { n } else { 0 };
        Arrivals {
            val: self.launch_val.clone(),
            base: vec![0.0; n],
            pred: vec![None; rec],
            pred_val: vec![0.0; rec],
        }
    }

    /// Folds the control cone with the state counter pinned to `state`.
    /// Cells outside the cone are never read and stay `None`.
    fn fold(&self, state: Option<u64>, known: &mut [Option<u64>]) {
        for &id in &self.cone {
            known[id.index()] = fold_cell(self.m, id, state, known);
        }
    }

    /// One state's arrival walk over the combinational cells.
    fn walk<const RECORD: bool>(&self, known: &[Option<u64>], arr: &mut Arrivals) {
        for step in &self.steps {
            match *step {
                Step::Mux {
                    cell,
                    sel,
                    arms,
                    tree_ps,
                } => {
                    // Candidate arrivals: the select, each *active* arm at
                    // its base when the arm is an inner tree cell (its own
                    // tree charge is subsumed by this root's fan-in charge).
                    // A select resolved by the current state restricts the
                    // candidates to the selected arm — the other arm is a
                    // different state's path — and counts as a registered
                    // control line: per the paper's model the steering
                    // decode is a Moore output of the controller, so it
                    // launches at clock-to-Q rather than re-tracing the
                    // state compare logic. Data-dependent selects
                    // (predicates computed this cycle) keep their full
                    // combinational arrival.
                    let resolved = known[sel.index()];
                    let sel_arrival = match resolved {
                        Some(_) => self.launch,
                        None => arr.val[sel.index()],
                    };
                    let at = |(x, inner): (CellId, bool)| {
                        let v = if inner { &arr.base } else { &arr.val };
                        (x, v[x.index()])
                    };
                    let (mut bp, mut bv) = match resolved {
                        Some(s) => at(arms[if s != 0 { 0 } else { 1 }]),
                        None => {
                            let (then, other) = (at(arms[0]), at(arms[1]));
                            if other.1 > then.1 {
                                other
                            } else {
                                then
                            }
                        }
                    };
                    if sel_arrival > bv {
                        (bp, bv) = (sel, sel_arrival);
                    }
                    let i = cell.index();
                    arr.base[i] = bv;
                    arr.val[i] = bv + tree_ps;
                    if RECORD {
                        // A winning *resolved* select has no meaningful
                        // predecessor chain (its combinational decode is not
                        // what launches the path), so the path starts here,
                        // at the control register.
                        arr.pred[i] = (bp != sel || resolved.is_none()).then_some(bp);
                        arr.pred_val[i] = bv;
                    }
                }
                // Plain combinational cell (including Output sinks, whose
                // own "delay" is zero — the setup charge is added at the
                // endpoint).
                Step::Plain {
                    cell,
                    inputs,
                    delay_ps,
                } => {
                    let (p, b) = worst_of(inputs, &arr.val).unwrap_or((cell, 0.0));
                    let i = cell.index();
                    arr.val[i] = b + delay_ps;
                    if RECORD && p != cell {
                        arr.pred[i] = Some(p);
                        arr.pred_val[i] = b;
                    }
                }
            }
        }
    }
}

/// Runs the analysis. The module must be [`hls_nir::validate`]-clean: on a
/// combinational cycle [`NirModule::comb_topo_order`] still lists every
/// cell, but some cycle member comes before its operand, whose arrival it
/// then reads before that arrival is computed.
pub fn analyze_timing(m: &NirModule, timing: &mut ChainTiming) -> TimingSummary {
    let plan = Plan::new(m, timing);
    let states = folded_states(m);
    let mut known: Vec<Option<u64>> = vec![None; m.num_cells()];
    let mut arr = plan.arrivals(false);

    // Per endpoint cell: the worst (arrival, state index) over all states
    // in which the endpoint's enable can be true.
    let mut worst: Vec<Option<(f64, usize)>> = vec![None; m.num_cells()];
    for (si, &st) in states.iter().enumerate() {
        plan.fold(st, &mut known);
        plan.walk::<false>(&known, &mut arr);
        for &e in &plan.endpoints {
            if !endpoint_active(m, &known, e) {
                continue;
            }
            let (_, arrival) = endpoint_arrival(m, &arr.val, e);
            if worst[e.index()].map(|(a, _)| arrival > a).unwrap_or(true) {
                worst[e.index()] = Some((arrival, si));
            }
        }
    }

    summarize(
        m,
        timing.clock(),
        timing.setup_ps(),
        &plan.fanin,
        &worst,
        |si| {
            plan.fold(states[si], &mut known);
            let mut arr = plan.arrivals(true);
            plan.walk::<true>(&known, &mut arr);
            arr
        },
    )
}

/// The capturing endpoint's worst input in one state's arrivals: every
/// register and output-port cell captures `max(data, enable)` plus the
/// flip-flop setup. The lowering registers producers directly (no
/// register-input mux), so no mux charge is added here.
fn endpoint_arrival(m: &NirModule, val: &[f64], id: CellId) -> (Option<CellId>, f64) {
    match worst_of(&m.cell(id).inputs, val) {
        Some((p, arrival)) => (Some(p), arrival),
        None => (None, 0.0),
    }
}

/// Whether an endpoint can capture in the current state: its enable operand
/// is not statically false. Register and output cells carry the enable as
/// their second input.
fn endpoint_active(m: &NirModule, known: &[Option<u64>], id: CellId) -> bool {
    match m.cell(id).inputs.get(1) {
        Some(en) => known[en.index()] != Some(0),
        None => true,
    }
}

/// Builds the summary from each endpoint's worst (arrival, state index).
/// `rerun` walks one state again with predecessor recording, for the
/// critical path.
fn summarize(
    m: &NirModule,
    clock: ClockConstraint,
    setup: f64,
    fanin: &[usize],
    worst: &[Option<(f64, usize)>],
    rerun: impl FnOnce(usize) -> Arrivals,
) -> TimingSummary {
    let mut endpoints = Vec::new();
    for (id, cell) in m.iter_cells() {
        if !matches!(cell.kind, CellKind::Reg { .. } | CellKind::Output { .. }) {
            continue;
        }
        // An endpoint inactive in every state never captures; report it at
        // the setup floor rather than dropping it from the summary.
        let arrival = worst[id.index()].map(|(a, _)| a).unwrap_or(0.0);
        let delay = arrival + setup;
        endpoints.push(TimingEndpoint {
            cell: id,
            name: cell_name(m, id),
            delay_ps: delay,
            slack_ps: clock.slack_ps(delay),
        });
    }
    endpoints.sort_by(|a, b| {
        a.slack_ps
            .partial_cmp(&b.slack_ps)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cell.cmp(&b.cell))
    });

    let wns_ps = endpoints
        .first()
        .map(|e| e.slack_ps)
        .unwrap_or_else(|| clock.period_ps());
    let tns_ps = endpoints.iter().map(|e| e.slack_ps.min(0.0)).sum::<f64>();

    // Recover the worst path by re-running the winning endpoint's state and
    // walking the recorded predecessors, carrying the value each link
    // actually contributed so increments telescope.
    let mut critical_path = Vec::new();
    if let Some(worst_ep) = endpoints.first() {
        let e = worst_ep.cell;
        let si = worst[e.index()].map(|(_, s)| s).unwrap_or(0);
        let pass = rerun(si);
        let (end_pred, _) = endpoint_arrival(m, &pass.val, e);
        let cell = m.cell(e);
        let mut cursor = end_pred.filter(|&p| p != e);
        let upstream = cursor.map(|p| pass.val[p.index()]).unwrap_or(0.0);
        critical_path.push(PathStep {
            cell: e,
            name: cell_name(m, e),
            kind: cell.kind.mnemonic(),
            width: cell.width,
            fanin: 1,
            incr_ps: worst_ep.delay_ps - upstream,
            arrival_ps: worst_ep.delay_ps,
        });
        let mut carried = upstream;
        while let Some(id) = cursor {
            let i = id.index();
            let cell = m.cell(id);
            let from = pass.pred[i].map(|_| pass.pred_val[i]).unwrap_or(0.0);
            critical_path.push(PathStep {
                cell: id,
                name: cell_name(m, id),
                kind: cell.kind.mnemonic(),
                width: cell.width,
                fanin: fanin[i],
                incr_ps: carried - from,
                arrival_ps: carried,
            });
            carried = from;
            cursor = pass.pred[i];
        }
        critical_path.reverse();
    }

    TimingSummary {
        clock_ps: clock.period_ps(),
        wns_ps,
        tns_ps,
        endpoints,
        critical_path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::{Port, PortDirection};
    use hls_nir::{validate, BinKind, Cell, NirModule};
    use hls_tech::{ClockConstraint, TechLibrary};

    fn timing(period: f64) -> (TechLibrary, ClockConstraint) {
        (
            TechLibrary::artisan_90nm_typical(),
            ClockConstraint::from_period_ps(period),
        )
    }

    fn named(
        m: &mut NirModule,
        kind: CellKind,
        width: u16,
        inputs: Vec<CellId>,
        name: &str,
    ) -> CellId {
        m.add_cell(Cell {
            kind,
            width,
            inputs,
            name: Some(name.to_string()),
        })
    }

    /// reg -> mul -> add -> reg: 40 + 930 + 350 + 40 = 1360 ps.
    #[test]
    fn chained_mul_add_matches_figure8_arithmetic() {
        let mut m = NirModule::new("chain");
        // No cell reads a state counter, so the folded-state count is
        // inert: a header claiming every `u32` state still costs one walk.
        m.fold_states = u32::MAX;
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let a = named(&mut m, CellKind::Reg { init: 0 }, 32, vec![], "a");
        m.cells[a.index()].inputs = vec![a, en];
        let b = named(&mut m, CellKind::Reg { init: 0 }, 32, vec![a, en], "b");
        let p = named(&mut m, CellKind::Bin(BinKind::Mul), 32, vec![a, b], "p");
        let s = named(&mut m, CellKind::Bin(BinKind::Add), 32, vec![p, b], "s");
        let r = named(&mut m, CellKind::Reg { init: 0 }, 32, vec![s, en], "r");
        validate(&m).expect("well-formed");
        let (lib, clock) = timing(1600.0);
        let mut t = ChainTiming::new(&lib, clock);
        let summary = analyze_timing(&m, &mut t);
        assert!(
            (summary.critical_delay_ps() - 1360.0).abs() < 0.1,
            "{summary:?}"
        );
        assert!((summary.wns_ps - 240.0).abs() < 0.1);
        assert_eq!(summary.tns_ps, 0.0);
        let worst = &summary.endpoints[0];
        assert_eq!(worst.cell, r);
        // the path names every cell, launch to capture
        let names: Vec<&str> = summary
            .critical_path
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert!(names.ends_with(&["p", "s", "r"]), "{names:?}");
        // increments telescope to the endpoint delay
        let total: f64 = summary.critical_path.iter().map(|s| s.incr_ps).sum();
        assert!((total - worst.delay_ps).abs() < 1e-9);
        assert!(summary.critical_path_names().contains("->"));
    }

    /// A 4-leaf steering chain is one mux4 (120 ps), not three mux2s.
    #[test]
    fn steering_chains_are_charged_as_one_tree() {
        let mut m = NirModule::new("steer");
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let sel = m.push(CellKind::Const(1), 1, vec![]);
        let mut leaves = Vec::new();
        for i in 0..4 {
            let r = named(
                &mut m,
                CellKind::Reg { init: 0 },
                32,
                vec![],
                &format!("l{i}"),
            );
            m.cells[r.index()].inputs = vec![r, en];
            leaves.push(r);
        }
        let m1 = m.push(CellKind::Mux, 32, vec![sel, leaves[0], leaves[1]]);
        let m2 = m.push(CellKind::Mux, 32, vec![sel, leaves[2], m1]);
        let m3 = m.push(CellKind::Mux, 32, vec![sel, leaves[3], m2]);
        let cap = named(&mut m, CellKind::Reg { init: 0 }, 32, vec![m3, en], "cap");
        validate(&m).expect("well-formed");
        let fans = mux_fanins(&m);
        assert_eq!(fans[m1.index()], 2);
        assert_eq!(fans[m2.index()], 3);
        assert_eq!(fans[m3.index()], 4);
        let (lib, clock) = timing(1600.0);
        let mut t = ChainTiming::new(&lib, clock);
        let expected = t.register_arrival_ps() + t.mux_tree_delay_ps(4, 32) + t.setup_ps();
        let summary = analyze_timing(&m, &mut t);
        assert_eq!(summary.endpoints[0].cell, cap);
        assert!(
            (summary.critical_delay_ps() - expected).abs() < 0.1,
            "got {} want {expected}",
            summary.critical_delay_ps()
        );
        // depth-based charging would have been 40 + 3*110 + 40 = 410;
        // fan-in charging gives 40 + mux4 (115) + 40 = 195.
        assert!(summary.critical_delay_ps() < 210.0);
    }

    /// An output port is an endpoint; a tight clock produces negative slack.
    #[test]
    fn output_endpoints_and_negative_slack() {
        let mut m = NirModule::new("out");
        m.ports.push(Port {
            name: "y".into(),
            direction: PortDirection::Output,
            width: 32,
        });
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let r = named(&mut m, CellKind::Reg { init: 0 }, 32, vec![], "r");
        m.cells[r.index()].inputs = vec![r, en];
        let p = named(&mut m, CellKind::Bin(BinKind::Mul), 32, vec![r, r], "p");
        m.push(CellKind::Output { port: 0, state: 0 }, 32, vec![p, en]);
        validate(&m).expect("well-formed");
        let (lib, clock) = timing(500.0);
        let mut t = ChainTiming::new(&lib, clock);
        let summary = analyze_timing(&m, &mut t);
        // 40 + 930 + 40 = 1010 ps against a 500 ps clock
        assert!((summary.critical_delay_ps() - 1010.0).abs() < 0.1);
        assert!((summary.wns_ps + 510.0).abs() < 0.1);
        assert!((summary.tns_ps + 510.0).abs() < 0.1);
        assert!(!summary.meets_clock());
    }

    /// A mux steered by an FSM-state compare only exposes each arm in the
    /// state that selects it, and an endpoint whose enable is false in a
    /// state ignores that state's arrivals — the cross-state "multiplier
    /// feeds next state's adder" path is temporally false and must not be
    /// reported. A data-dependent select keeps both arms (conservative).
    #[test]
    fn cross_state_false_paths_are_pruned() {
        let build = |data_dependent_select: bool| {
            let mut m = NirModule::new("modes");
            m.fold_states = 2;
            let fsm = m.push(CellKind::FsmState, 8, vec![]);
            let k0 = m.push(CellKind::Const(0), 8, vec![]);
            let eq0 = m.push(
                CellKind::Bin(BinKind::Cmp(hls_ir::CmpKind::Eq)),
                1,
                vec![fsm, k0],
            );
            let sel = if data_dependent_select {
                // an unresolvable mode bit: the analyzer must keep both arms
                m.push(CellKind::FirstIter { stage: 0 }, 1, vec![])
            } else {
                eq0
            };
            let r = named(&mut m, CellKind::Reg { init: 0 }, 32, vec![], "r");
            m.cells[r.index()].inputs = vec![r, eq0];
            let p = named(&mut m, CellKind::Bin(BinKind::Mul), 32, vec![r, r], "p");
            // state 0 selects the register, state 1 the multiplier — but the
            // capture register is enabled in state 0 only.
            let d = m.push(CellKind::Mux, 32, vec![sel, r, p]);
            named(&mut m, CellKind::Reg { init: 0 }, 32, vec![d, eq0], "cap");
            validate(&m).expect("well-formed");
            m
        };
        let (lib, clock) = timing(1600.0);
        // resolved select: only state 0's reg -> mux2 -> cap path counts
        let pruned = analyze_timing(&build(false), &mut ChainTiming::new(&lib, clock));
        let mut t = ChainTiming::new(&lib, clock);
        let short = t.register_arrival_ps() + t.mux_tree_delay_ps(2, 32) + t.setup_ps();
        assert!(
            (pruned.critical_delay_ps() - short).abs() < 0.1,
            "got {} want {short}",
            pruned.critical_delay_ps()
        );
        // data-dependent select: the multiplier arm stays in
        let kept = analyze_timing(&build(true), &mut ChainTiming::new(&lib, clock));
        let long = t.register_arrival_ps()
            + t.cell_delay_ps(&CellKind::Bin(BinKind::Mul), &[32, 32], 32)
            + t.mux_tree_delay_ps(2, 32)
            + t.setup_ps();
        assert!(
            (kept.critical_delay_ps() - long).abs() < 0.1,
            "got {} want {long}",
            kept.critical_delay_ps()
        );
    }

    /// The analysis is a pure function of the module.
    #[test]
    fn analysis_is_deterministic() {
        let mut m = NirModule::new("det");
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let r = named(&mut m, CellKind::Reg { init: 0 }, 16, vec![], "r");
        m.cells[r.index()].inputs = vec![r, en];
        let s = named(&mut m, CellKind::Bin(BinKind::Add), 16, vec![r, r], "s");
        let _cap = named(&mut m, CellKind::Reg { init: 0 }, 16, vec![s, en], "cap");
        let (lib, clock) = timing(1600.0);
        let a = analyze_timing(&m, &mut ChainTiming::new(&lib, clock));
        let b = analyze_timing(&m, &mut ChainTiming::new(&lib, clock));
        assert_eq!(a, b);
    }
}
