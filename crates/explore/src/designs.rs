//! Synthetic design generation.
//!
//! The paper's Figure 9 profiles about 40 industrial designs (filters, FFTs,
//! image processing) between 100 and over 6000 operations. Those designs are
//! proprietary, so this module generates synthetic loop bodies with the same
//! structural characteristics: layered arithmetic data flow, a configurable
//! multiplier density, I/O at the boundaries, predicated regions, and
//! loop-carried accumulators that create the SCCs pipelining must respect.
//!
//! [`idct8_design`] builds a genuine 8-point inverse DCT (even/odd
//! decomposition) processing one row per loop iteration — the same algorithm
//! class as the paper's video-decoding IDCT of Figures 10/11.

use hls_ir::{CmpKind, Dfg, LinearBody, OpKind, PortDirection, Signal};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The flavour of synthetic design to generate, mirroring the application
/// classes the paper lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DesignClass {
    /// Multiply-accumulate dominated (FIR/IIR filters).
    Filter,
    /// Butterfly-structured (FFT-like): adds/subs with twiddle multiplies.
    Fft,
    /// Image kernel: window arithmetic with predicated clamping.
    ImageKernel,
}

impl DesignClass {
    /// All classes, used to round-robin design generation.
    pub fn all() -> [DesignClass; 3] {
        [
            DesignClass::Filter,
            DesignClass::Fft,
            DesignClass::ImageKernel,
        ]
    }
}

/// Above this op count [`synthetic_design`] splits the body into several
/// independent kernels, the way large industrial designs aggregate many
/// loosely coupled filter/transform blocks. Each kernel has its own I/O and
/// no data edges to the others, so region decomposition can schedule them
/// concurrently.
pub(crate) const MULTI_KERNEL_THRESHOLD: usize = 2400;

/// Rough op count of one kernel in a multi-kernel design.
const KERNEL_OPS: usize = 600;

/// Generates a synthetic loop body with roughly `target_ops` operations.
///
/// The generator is deterministic for a given `(class, target_ops, seed)`
/// triple. Above [`MULTI_KERNEL_THRESHOLD`] ops the body is a union of
/// independent ~[`KERNEL_OPS`]-op kernels (ports prefixed `k{j}_`); at or
/// below it, a single kernel identical to what earlier versions generated.
pub fn synthetic_design(class: DesignClass, target_ops: usize, seed: u64) -> LinearBody {
    let mut dfg = Dfg::new();
    if target_ops > MULTI_KERNEL_THRESHOLD {
        let kernels = target_ops.div_ceil(KERNEL_OPS);
        let per = target_ops / kernels;
        for j in 0..kernels {
            let mut rng = SmallRng::seed_from_u64(
                seed ^ ((per as u64) << 8) ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            grow_kernel(&mut dfg, &mut rng, class, per, &format!("k{j}_"));
        }
    } else {
        let mut rng = SmallRng::seed_from_u64(seed ^ (target_ops as u64) << 8);
        grow_kernel(&mut dfg, &mut rng, class, target_ops, "");
    }
    let mut body = LinearBody::from_dfg(format!("{class:?}_{target_ops}"), dfg);
    body.source_states = 1;
    body
}

/// Grows one kernel of roughly `target_ops` operations into `dfg`, with its
/// ports prefixed by `prefix`.
fn grow_kernel(
    dfg: &mut Dfg,
    rng: &mut SmallRng,
    class: DesignClass,
    target_ops: usize,
    prefix: &str,
) {
    let width: u16 = 16;
    let base_ops = dfg.num_ops();

    let n_inputs = (target_ops / 24).clamp(2, 32);
    let in_ports: Vec<_> = (0..n_inputs)
        .map(|i| dfg.add_port(format!("{prefix}in{i}"), PortDirection::Input, width))
        .collect();
    let out_port = dfg.add_port(format!("{prefix}out"), PortDirection::Output, 2 * width);

    // layer 0: port reads
    let mut frontier: Vec<Signal> = in_ports
        .iter()
        .map(|&p| Signal::op_w(dfg.add_op(OpKind::Read(p), width, vec![]), width))
        .collect();

    let mul_prob = match class {
        DesignClass::Filter => 0.45,
        DesignClass::Fft => 0.30,
        DesignClass::ImageKernel => 0.20,
    };

    // a couple of loop-carried accumulators (SCCs)
    let n_accs = (target_ops / 200).clamp(1, 4);
    let mut accumulators = Vec::new();
    for _ in 0..n_accs {
        let src = frontier[rng.gen_range(0..frontier.len())];
        let acc = dfg.add_op(
            OpKind::Add,
            2 * width,
            vec![src, Signal::constant(0, 2 * width)],
        );
        dfg.op_mut(acc).inputs[1] = Signal::carried(acc, 2 * width, 1);
        accumulators.push(acc);
        frontier.push(Signal::op_w(acc, 2 * width));
    }

    while dfg.num_ops() - base_ops < target_ops.saturating_sub(2) {
        let a = frontier[rng.gen_range(0..frontier.len())];
        let b = frontier[rng.gen_range(0..frontier.len())];
        let roll: f64 = rng.gen();
        let (kind, w) = if roll < mul_prob {
            (OpKind::Mul, 2 * width)
        } else if roll < mul_prob + 0.35 {
            (if rng.gen() { OpKind::Add } else { OpKind::Sub }, width)
        } else if roll < mul_prob + 0.45 {
            (OpKind::Shr, width)
        } else if roll < mul_prob + 0.55 {
            (if rng.gen() { OpKind::And } else { OpKind::Xor }, width)
        } else if roll < mul_prob + 0.62 && matches!(class, DesignClass::ImageKernel) {
            // predicated clamp: cmp + mux
            let cmp = dfg.add_op(OpKind::Cmp(CmpKind::Gt), 1, vec![a, b]);
            let mux = dfg.add_op(OpKind::Mux, width, vec![Signal::op_w(cmp, 1), a, b]);
            frontier.push(Signal::op_w(mux, width));
            continue;
        } else {
            (OpKind::Add, width)
        };
        let op = dfg.add_op(kind, w, vec![a, b]);
        frontier.push(Signal::op_w(op, w));
        // keep the frontier from growing without bound: drop old entries
        if frontier.len() > 48 {
            let idx = rng.gen_range(0..frontier.len() / 2);
            frontier.remove(idx);
        }
    }

    // sink: reduce a few frontier values into the output write
    let mut acc = frontier[0];
    for sig in frontier.iter().skip(1).take(3) {
        let add = dfg.add_op(OpKind::Add, 2 * width, vec![acc, *sig]);
        acc = Signal::op_w(add, 2 * width);
    }
    dfg.add_op(OpKind::Write(out_port), 2 * width, vec![acc]);
}

/// Builds an 8-point 1-D inverse DCT loop body (even/odd decomposition, 11
/// constant multiplications), processing one row of a block per iteration.
///
/// The constants are the usual scaled cosine coefficients; their exact values
/// do not affect scheduling, only the operation mix (which matches a real
/// IDCT: ~11 multiplications, ~29 additions/subtractions per 8-point
/// transform).
pub fn idct8_design() -> LinearBody {
    let mut dfg = Dfg::new();
    let w: u16 = 16;
    let ww: u16 = 32;
    let inputs: Vec<_> = (0..8)
        .map(|i| dfg.add_port(format!("x{i}"), PortDirection::Input, w))
        .collect();
    let outputs: Vec<_> = (0..8)
        .map(|i| dfg.add_port(format!("y{i}"), PortDirection::Output, w))
        .collect();
    let x: Vec<Signal> = inputs
        .iter()
        .map(|&p| Signal::op_w(dfg.add_op(OpKind::Read(p), w, vec![]), w))
        .collect();

    // cosine coefficients (scaled by 2^11, as in common fixed-point IDCTs)
    const C1: i64 = 2841;
    const C2: i64 = 2676;
    const C3: i64 = 2408;
    const C5: i64 = 1609;
    const C6: i64 = 1108;
    const C7: i64 = 565;
    const SQRT2: i64 = 181;

    let mul = |dfg: &mut Dfg, a: Signal, c: i64| -> Signal {
        let m = dfg.add_op(OpKind::Mul, ww, vec![a, Signal::constant(c, 13)]);
        Signal::op_w(m, ww)
    };
    let add = |dfg: &mut Dfg, a: Signal, b: Signal| -> Signal {
        Signal::op_w(dfg.add_op(OpKind::Add, ww, vec![a, b]), ww)
    };
    let sub = |dfg: &mut Dfg, a: Signal, b: Signal| -> Signal {
        Signal::op_w(dfg.add_op(OpKind::Sub, ww, vec![a, b]), ww)
    };
    let shr = |dfg: &mut Dfg, a: Signal, k: i64| -> Signal {
        Signal::op_w(
            dfg.add_op(OpKind::Shr, ww, vec![a, Signal::constant(k, 5)]),
            ww,
        )
    };

    // even part
    let x0 = shr(&mut dfg, x[0], 0);
    let x2 = x[2];
    let x4 = x[4];
    let x6 = x[6];
    let s04a = add(&mut dfg, x0, x4);
    let s04s = sub(&mut dfg, x0, x4);
    let m2 = mul(&mut dfg, x2, C2);
    let m6 = mul(&mut dfg, x6, C6);
    let m2b = mul(&mut dfg, x2, C6);
    let m6b = mul(&mut dfg, x6, C2);
    let even_hi = add(&mut dfg, m2, m6);
    let even_lo = sub(&mut dfg, m2b, m6b);
    let e0 = add(&mut dfg, s04a, even_hi);
    let e1 = add(&mut dfg, s04s, even_lo);
    let e2 = sub(&mut dfg, s04s, even_lo);
    let e3 = sub(&mut dfg, s04a, even_hi);

    // odd part
    let m1 = mul(&mut dfg, x[1], C1);
    let m7 = mul(&mut dfg, x[7], C7);
    let m5 = mul(&mut dfg, x[5], C5);
    let m3 = mul(&mut dfg, x[3], C3);
    let o0 = add(&mut dfg, m1, m7);
    let o1 = add(&mut dfg, m5, m3);
    let o2 = sub(&mut dfg, m1, m7);
    let o3 = sub(&mut dfg, m5, m3);
    let o_sum = add(&mut dfg, o0, o1);
    let o_diff = sub(&mut dfg, o2, o3);
    let o_rot = mul(&mut dfg, o_diff, SQRT2);
    let o_rot = shr(&mut dfg, o_rot, 8);
    let o_mid0 = add(&mut dfg, o2, o_rot);
    let o_mid1 = sub(&mut dfg, o3, o_rot);

    // butterfly outputs
    let o_last = sub(&mut dfg, o0, o1);
    let pairs = [(e0, o_sum), (e1, o_mid0), (e2, o_mid1), (e3, o_last)];
    for (i, (e, o)) in pairs.iter().enumerate() {
        let hi = add(&mut dfg, *e, *o);
        let lo = sub(&mut dfg, *e, *o);
        let hi = shr(&mut dfg, hi, 11);
        let lo = shr(&mut dfg, lo, 11);
        dfg.add_op(OpKind::Write(outputs[i]), w, vec![hi]);
        dfg.add_op(OpKind::Write(outputs[7 - i]), w, vec![lo]);
    }

    let mut body = LinearBody::from_dfg("idct8", dfg);
    body.source_states = 1;
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::analysis::sccs;

    #[test]
    fn synthetic_design_hits_target_size() {
        for class in DesignClass::all() {
            let body = synthetic_design(class, 300, 7);
            assert!(body.validate().is_ok());
            let n = body.dfg.num_ops();
            assert!((250..=360).contains(&n), "{class:?} produced {n} ops");
        }
    }

    #[test]
    fn large_designs_split_into_independent_kernels() {
        let body = synthetic_design(DesignClass::Fft, 5000, 3);
        assert!(body.validate().is_ok());
        let n = body.dfg.num_ops();
        assert!((4000..=6000).contains(&n), "got {n} ops");
        // 5000 ops → ceil(5000/2000) = 3 kernels, each with its own output
        let ports: Vec<String> = body.dfg.iter_ports().map(|(_, p)| p.name.clone()).collect();
        for j in 0..3 {
            assert!(
                ports.iter().any(|name| name == &format!("k{j}_out")),
                "missing kernel {j} output in {ports:?}"
            );
        }
    }

    #[test]
    fn small_designs_keep_the_single_kernel_shape() {
        let body = synthetic_design(DesignClass::Filter, 300, 7);
        let ports: Vec<String> = body.dfg.iter_ports().map(|(_, p)| p.name.clone()).collect();
        assert!(ports.iter().any(|n| n == "out"), "{ports:?}");
        assert!(ports.iter().all(|n| !n.starts_with("k0_")), "{ports:?}");
    }

    #[test]
    fn synthetic_design_is_deterministic() {
        let a = synthetic_design(DesignClass::Filter, 200, 3);
        let b = synthetic_design(DesignClass::Filter, 200, 3);
        assert_eq!(a.dfg.num_ops(), b.dfg.num_ops());
        assert_eq!(a.dfg.kind_histogram(), b.dfg.kind_histogram());
    }

    #[test]
    fn synthetic_design_has_accumulator_sccs() {
        let body = synthetic_design(DesignClass::Filter, 400, 11);
        assert!(!sccs(&body.dfg).is_empty());
    }

    #[test]
    fn filter_designs_are_multiplier_rich() {
        let filt = synthetic_design(DesignClass::Filter, 500, 5);
        let img = synthetic_design(DesignClass::ImageKernel, 500, 5);
        let muls = |b: &LinearBody| b.dfg.kind_histogram().get("mul").copied().unwrap_or(0);
        assert!(muls(&filt) > muls(&img));
    }

    #[test]
    fn idct_has_expected_operation_mix() {
        let body = idct8_design();
        assert!(body.validate().is_ok());
        let hist = body.dfg.kind_histogram();
        // even/odd decomposition: 9 constant multiplications, a few dozen
        // add/sub butterflies (a Loeffler-class operation mix)
        assert_eq!(hist.get("mul").copied().unwrap_or(0), 9, "{hist:?}");
        assert!(hist.get("add").copied().unwrap_or(0) >= 10);
        assert!(hist.get("sub").copied().unwrap_or(0) >= 10);
        let reads = body
            .dfg
            .iter_ops()
            .filter(|(_, o)| matches!(o.kind, OpKind::Read(_)))
            .count();
        let writes = body
            .dfg
            .iter_ops()
            .filter(|(_, o)| matches!(o.kind, OpKind::Write(_)))
            .count();
        assert_eq!(reads, 8);
        assert_eq!(writes, 8);
        // purely feed-forward: no SCC, so any II is reachable with enough hw
        assert!(sccs(&body.dfg).is_empty());
    }
}
