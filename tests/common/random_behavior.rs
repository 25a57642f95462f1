//! The random-program generator behind the netlist properties and the
//! static-timing oracle test in `hls-lint`. Both include this file with
//! `#[path]`, so it names its dependencies by crate: `hls-frontend`,
//! `hls-ir` and the vendored `rand`.

use hls_frontend::ast::{Behavior, BinOp, Expr};
use hls_frontend::BehaviorBuilder;
use hls_ir::CmpKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds a random behaviour (same shape as `prop_differential`): a few
/// variables, a straight-line body of assignments over random expressions,
/// a predicated region, a port write and a trailing wait.
pub fn random_behavior(seed: u64) -> Behavior {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = BehaviorBuilder::new(format!("nir{seed}"));
    b.port_in("p0", 16);
    b.port_in("p1", 8);
    b.port_out("out", 16);
    let n_vars = rng.gen_range(1usize..=3);
    let widths = [8u16, 16, 32];
    let vars: Vec<_> = (0..n_vars)
        .map(|i| {
            let w = widths[rng.gen_range(0usize..3)];
            let init = rng.gen_range(0u64..64) as i64 - 32;
            b.var(format!("v{i}"), w, init)
        })
        .collect();

    let leaf = |rng: &mut SmallRng, b: &BehaviorBuilder| -> Expr {
        match rng.gen_range(0u32..5) {
            0 => b.read_port("p0"),
            1 => b.read_port("p1"),
            2 | 3 => Expr::Var(vars[rng.gen_range(0usize..vars.len())]),
            _ => Expr::Const(rng.gen_range(0u64..512) as i64 - 256),
        }
    };
    let node = |rng: &mut SmallRng, a: Expr, c: Expr| -> Expr {
        match rng.gen_range(0u32..8) {
            0 => Expr::add(a, c),
            1 => Expr::sub(a, c),
            2 => Expr::mul(a, c),
            3 => Expr::Binary(BinOp::And, Box::new(a), Box::new(c)),
            4 => Expr::Binary(BinOp::Xor, Box::new(a), Box::new(c)),
            5 => Expr::shl(a, Expr::Const(rng.gen_range(0u64..12) as i64)),
            6 => Expr::shr(a, Expr::Const(rng.gen_range(0u64..12) as i64)),
            _ => Expr::select(Expr::cmp(CmpKind::Gt, a.clone(), Expr::Const(0)), a, c),
        }
    };

    let mut body = Vec::new();
    for _ in 0..rng.gen_range(2usize..6) {
        let var = vars[rng.gen_range(0usize..vars.len())];
        let l0 = leaf(&mut rng, &b);
        let l1 = leaf(&mut rng, &b);
        let mut e = node(&mut rng, l0, l1);
        if rng.gen_bool(0.5) {
            let l2 = leaf(&mut rng, &b);
            e = node(&mut rng, e, l2);
        }
        body.push(b.assign(var, e));
    }
    if rng.gen_bool(0.7) {
        let v = vars[rng.gen_range(0usize..vars.len())];
        let cond = Expr::cmp(
            CmpKind::Gt,
            Expr::Var(v),
            Expr::Const(rng.gen_range(0u64..16) as i64),
        );
        let l = leaf(&mut rng, &b);
        let r = leaf(&mut rng, &b);
        body.push(b.if_then_else(
            cond,
            vec![b.assign(v, Expr::mul(l, Expr::Const(3)))],
            vec![b.assign(v, Expr::add(r, Expr::Const(1)))],
        ));
    }
    body.push(b.write_port("out", Expr::Var(vars[rng.gen_range(0usize..vars.len())])));
    body.push(b.wait());
    let l = b.do_while(
        "main",
        body,
        Expr::cmp(CmpKind::Ne, b.read_port("p0"), Expr::Const(0)),
    );
    b.infinite_loop(vec![l]);
    b.build()
}
