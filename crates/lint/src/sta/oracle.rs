//! The per-state walk [`analyze_timing`] replaced, kept as its oracle: every
//! folded state folds every cell's known value and walks every cell in
//! fresh buffers, pricing each combinational cell through [`ChainTiming`]
//! again. The analyzer hoists that state-independent work and folds only
//! the control cone; its summaries must equal the oracle's bit for bit.

use super::*;
use hls_bind::{bind, lower, RtlStyle};
use hls_ir::{Port, PortDirection};
use hls_nir::{optimize, validate};
use hls_sched::{Scheduler, SchedulerConfig};
use hls_tech::TechLibrary;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[path = "../../../../tests/common/random_behavior.rs"]
mod random_behavior;

/// Every cell's known value with the state counter pinned to `fsm_state`.
fn known_values(m: &NirModule, fsm_state: Option<u64>) -> Vec<Option<u64>> {
    let mut known: Vec<Option<u64>> = vec![None; m.num_cells()];
    for id in m.comb_topo_order() {
        known[id.index()] = fold_cell(m, id, fsm_state, &known);
    }
    known
}

fn timing_pass(
    m: &NirModule,
    timing: &mut ChainTiming,
    fanin: &[usize],
    known: &[Option<u64>],
) -> Arrivals {
    let n = m.num_cells();
    let launch = timing.register_arrival_ps();
    let mut val = vec![0.0f64; n];
    let mut base = vec![0.0f64; n];
    let mut pred: Vec<Option<CellId>> = vec![None; n];
    let mut pred_val = vec![0.0f64; n];

    for id in m.comb_topo_order() {
        let cell = m.cell(id);
        let i = id.index();
        if cell.kind.is_seq() || matches!(cell.kind, CellKind::Input { .. }) {
            val[i] = launch;
            base[i] = launch;
            continue;
        }
        if cell.kind.is_source() {
            let a = match cell.kind {
                CellKind::Const(_) => 0.0,
                _ => launch,
            };
            val[i] = a;
            base[i] = a;
            continue;
        }
        if let CellKind::Mux = cell.kind {
            let sel = cell.inputs[0];
            let resolved = known[sel.index()].is_some();
            let sel_arrival = if resolved { launch } else { val[sel.index()] };
            let arms: &[CellId] = match known[sel.index()] {
                Some(s) => {
                    let picked = if s != 0 { 1 } else { 2 };
                    &cell.inputs[picked..=picked]
                }
                None => &cell.inputs[1..],
            };
            let mut best: Option<(CellId, f64)> = None;
            for &armed in arms {
                let v = match m.cell(armed).kind {
                    CellKind::Mux => base[armed.index()],
                    _ => val[armed.index()],
                };
                if best.map(|(_, b)| v > b).unwrap_or(true) {
                    best = Some((armed, v));
                }
            }
            let (mut bp, mut bv) = best.expect("muxes have at least one active arm");
            if sel_arrival > bv {
                (bp, bv) = (sel, sel_arrival);
            }
            base[i] = bv;
            val[i] = bv + timing.mux_tree_delay_ps(fanin[i], cell.width);
            pred[i] = (bp != sel || !resolved).then_some(bp);
            pred_val[i] = bv;
            continue;
        }
        let mut best: Option<(CellId, f64)> = None;
        for &input in &cell.inputs {
            let v = val[input.index()];
            if best.map(|(_, b)| v > b).unwrap_or(true) {
                best = Some((input, v));
            }
        }
        let in_widths: Vec<u16> = cell.inputs.iter().map(|&x| m.cell(x).width).collect();
        let delay = timing.cell_delay_ps(&cell.kind, &in_widths, cell.width);
        let (p, b) = best.unwrap_or((id, 0.0));
        val[i] = b + delay;
        base[i] = val[i];
        if p != id {
            pred[i] = Some(p);
            pred_val[i] = b;
        }
    }

    Arrivals {
        val,
        base,
        pred,
        pred_val,
    }
}

/// The analysis as it ran before the state-independent work was hoisted.
fn oracle_timing(m: &NirModule, timing: &mut ChainTiming) -> TimingSummary {
    let fanin = mux_fanins(m);
    let states = folded_states(m);
    let mut worst: Vec<Option<(f64, usize)>> = vec![None; m.num_cells()];
    for (si, &st) in states.iter().enumerate() {
        let known = known_values(m, st);
        let pass = timing_pass(m, timing, &fanin, &known);
        for (id, cell) in m.iter_cells() {
            if !matches!(cell.kind, CellKind::Reg { .. } | CellKind::Output { .. }) {
                continue;
            }
            if !endpoint_active(m, &known, id) {
                continue;
            }
            let (_, arrival) = endpoint_arrival(m, &pass.val, id);
            if worst[id.index()].map(|(a, _)| arrival > a).unwrap_or(true) {
                worst[id.index()] = Some((arrival, si));
            }
        }
    }
    let (clock, setup) = (timing.clock(), timing.setup_ps());
    summarize(m, clock, setup, &fanin, &worst, |si| {
        let known = known_values(m, states[si]);
        timing_pass(m, timing, &fanin, &known)
    })
}

/// Asserts that the analyzer and the oracle agree on `m` to the bit.
fn assert_matches_oracle(m: &NirModule) -> Result<(), TestCaseError> {
    let lib = TechLibrary::artisan_90nm_typical();
    let clock = ClockConstraint::from_period_ps(1000.0);
    let fast = analyze_timing(m, &mut ChainTiming::new(&lib, clock));
    let slow = oracle_timing(m, &mut ChainTiming::new(&lib, clock));
    let (fast, slow) = (format!("{fast:?}"), format!("{slow:?}"));
    prop_assert!(fast == slow, "{}:\n{fast}\nvs the oracle's\n{slow}", m.name);
    Ok(())
}

/// A random module whose mux selects and endpoint enables run through every
/// kind the control cone propagates — `fsm == k` and `fsm != k` compares,
/// and/or/xor/not folds, eq/ne over control bits, muxes over control bits,
/// resizes and slices — next to data-dependent bits that never resolve.
/// Data muxes and capture registers draw on that pool, and two registers
/// are enabled in no state.
fn control_heavy(seed: u64) -> NirModule {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pick = |rng: &mut SmallRng, pool: &[CellId]| pool[rng.gen_range(0..pool.len())];
    let mut m = NirModule::new(format!("control{seed}"));
    m.fold_states = rng.gen_range(1u32..6);
    m.stages = 1;
    let fsm = m.push(CellKind::FsmState, 8, vec![]);
    let mut ctl = vec![
        m.push(CellKind::FirstIter { stage: 0 }, 1, vec![]),
        m.push(CellKind::StageValid { stage: 0 }, 1, vec![]),
        m.push(CellKind::Const(1), 1, vec![]),
    ];
    for k in 0..=m.fold_states {
        let konst = m.push(CellKind::Const(i64::from(k)), 8, vec![]);
        let cmp = if rng.gen_bool(0.7) {
            CmpKind::Eq
        } else {
            CmpKind::Ne
        };
        ctl.push(m.push(CellKind::Bin(BinKind::Cmp(cmp)), 1, vec![fsm, konst]));
    }
    for _ in 0..rng.gen_range(4usize..16) {
        let (a, b) = (pick(&mut rng, &ctl), pick(&mut rng, &ctl));
        let c = match rng.gen_range(0u32..9) {
            0 => m.push(CellKind::Bin(BinKind::And), 1, vec![a, b]),
            1 => m.push(CellKind::Bin(BinKind::Or), 1, vec![a, b]),
            2 => m.push(CellKind::Bin(BinKind::Xor), 1, vec![a, b]),
            3 => m.push(CellKind::Bin(BinKind::Cmp(CmpKind::Eq)), 1, vec![a, b]),
            4 => m.push(CellKind::Bin(BinKind::Cmp(CmpKind::Ne)), 1, vec![a, b]),
            5 => m.push(CellKind::Un(UnKind::Not), 1, vec![a]),
            6 => {
                let c = pick(&mut rng, &ctl);
                m.push(CellKind::Mux, 1, vec![a, b, c])
            }
            7 => {
                let w = rng.gen_range(2u16..9);
                let wide = m.push(CellKind::Resize, w, vec![a]);
                let bit = rng.gen_range(0..w);
                m.push(CellKind::Slice { hi: bit, lo: bit }, 1, vec![wide])
            }
            _ => {
                let bit = rng.gen_range(0u16..3);
                m.push(CellKind::Slice { hi: bit, lo: bit }, 1, vec![fsm])
            }
        };
        ctl.push(c);
    }

    let sources: Vec<CellId> = (0..3)
        .map(|_| m.push(CellKind::Reg { init: 0 }, 16, vec![]))
        .collect();
    let mut data = sources.clone();
    for _ in 0..rng.gen_range(3usize..12) {
        let (a, b) = (pick(&mut rng, &data), pick(&mut rng, &data));
        let d = match rng.gen_range(0u32..4) {
            0 => m.push(CellKind::Bin(BinKind::Mul), 16, vec![a, b]),
            1 => m.push(CellKind::Bin(BinKind::Add), 16, vec![a, b]),
            _ => {
                let sel = pick(&mut rng, &ctl);
                m.push(CellKind::Mux, 16, vec![sel, a, b])
            }
        };
        data.push(d);
    }
    for r in sources {
        m.cells[r.index()].inputs = vec![pick(&mut rng, &data), pick(&mut rng, &ctl)];
    }
    for _ in 0..rng.gen_range(1usize..4) {
        let (d, en) = (pick(&mut rng, &data), pick(&mut rng, &ctl));
        m.push(CellKind::Reg { init: 0 }, 16, vec![d, en]);
    }
    m.ports.push(Port {
        name: "y".into(),
        direction: PortDirection::Output,
        width: 16,
    });
    let (d, en) = (pick(&mut rng, &data), pick(&mut rng, &ctl));
    m.push(CellKind::Output { port: 0, state: 0 }, 16, vec![d, en]);

    // Enabled in no state: a constant-false enable, and a compare against a
    // state the counter never reaches.
    let off = m.push(CellKind::Const(0), 1, vec![]);
    let k = m.push(CellKind::Const(200), 8, vec![]);
    let unreachable = m.push(CellKind::Bin(BinKind::Cmp(CmpKind::Eq)), 1, vec![fsm, k]);
    for en in [off, unreachable] {
        let d = pick(&mut rng, &data);
        m.push(CellKind::Reg { init: 0 }, 16, vec![d, en]);
    }
    validate(&m).expect("well-formed");
    m
}

/// The registers enabled in no state are reported at the setup floor, by
/// the analyzer and the oracle alike.
#[test]
fn endpoints_enabled_in_no_state_sit_at_the_setup_floor() {
    let m = control_heavy(7);
    assert!(m.fold_states > 1, "a folded controller pins the counter");
    let lib = TechLibrary::artisan_90nm_typical();
    let mut t = ChainTiming::new(&lib, ClockConstraint::from_period_ps(1000.0));
    let summary = analyze_timing(&m, &mut t);
    let last = m.num_cells() - 1;
    for cell in [last, last - 1] {
        let ep = summary
            .endpoints
            .iter()
            .find(|e| e.cell.index() == cell)
            .expect("reported");
        assert_eq!(ep.delay_ps, t.setup_ps(), "{ep:?}");
    }
    assert_matches_oracle(&m).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Hand-built control networks: data-dependent selects, every
    /// propagating kind on control nets, and endpoints enabled in no state.
    #[test]
    fn control_heavy_modules_match_the_oracle(seed in 0u64..100_000) {
        assert_matches_oracle(&control_heavy(seed))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Lowered netlists of random programs, sequential and at II=2, shared-FU
    /// and per-op, before and after `optimize`.
    #[test]
    fn lowered_netlists_match_the_oracle(
        seed in 0u64..10_000,
        pipelined in any::<bool>(),
        shared in any::<bool>(),
    ) {
        let behavior = random_behavior::random_behavior(seed);
        let mut cdfg = hls_frontend::elaborate(&behavior).expect("elaborates");
        let body = hls_opt::linearize::prepare_innermost_loop(&mut cdfg).expect("linearizes");
        let lib = TechLibrary::artisan_90nm_typical();
        let clock = ClockConstraint::from_period_ps(4200.0);
        let config = if pipelined {
            SchedulerConfig::pipelined(clock, 2, 24)
        } else {
            SchedulerConfig::sequential(clock, 1, 24)
        };
        let Ok(schedule) = Scheduler::new(&body, &lib, config).run() else {
            // an over-constrained random instance is acceptable
            return Ok(());
        };
        let bound = bind(&body, &schedule.desc).expect("binds");
        let style = if shared { RtlStyle::SharedFu } else { RtlStyle::PerOp };
        let mut m = lower(&body, &schedule.desc, &bound, style).expect("lowers");
        assert_matches_oracle(&m)?;
        optimize(&mut m);
        assert_matches_oracle(&m)?;
    }
}
