//! End-to-end flow tests across the front-end, optimizer, scheduler, netlist
//! and RTL emission.
use hls::designs::{fir_filter, moving_average, paper_example1};
use hls::frontend::ast::BinOp;
use hls::frontend::{
    elaborate, Behavior, BehaviorBuilder, Expr, FrontendError, LoopKind, Stmt, VarId,
};
use hls::ir::{CmpKind, PortDirection};
use hls::opt::linearize::prepare_innermost_loop;
use hls::sim::{Interpreter, Stimulus};
use hls::Synthesizer;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Applies one random mutation to a behaviour: a statement deleted,
/// duplicated or wrapped in a loop; a variable past the declared ones
/// assigned or read; an undeclared port named, or a port used against its
/// direction; a `wait` put in an `else` branch; a declared width set to 0,
/// 65 or 200; or an expression sliced past its width, divided, reduced or
/// shifted by a constant.
fn mutate(behavior: &mut Behavior, rng: &mut SmallRng) {
    let past = VarId((behavior.vars.len() + rng.gen_range(0usize..3)) as u32);
    let (mut blocks, mut exprs) = (0usize, 0usize);
    each_block(&mut behavior.body, &mut |_| blocks += 1);
    each_expr(&mut behavior.body, &mut |_| exprs += 1);
    let (block, expr, at) = (
        rng.gen_range(0..blocks),
        rng.gen_range(0..exprs.max(1)),
        rng.gen_range(0usize..8),
    );
    let choice = rng.gen_range(0u32..11);
    let mut on_block = |f: &mut dyn FnMut(&mut Vec<Stmt>)| {
        let mut k = 0;
        each_block(&mut behavior.body, &mut |stmts| {
            if k == block {
                f(stmts);
            }
            k += 1;
        });
    };
    match choice {
        // delete, duplicate or wrap a statement in a loop
        0..=2 => {
            let kind = one_of(
                rng,
                &[LoopKind::While, LoopKind::DoWhile, LoopKind::Infinite],
            );
            let cond = rng
                .gen_bool(0.5)
                .then(|| Expr::cmp(CmpKind::Ne, Expr::Var(VarId(0)), Expr::Const(0)));
            on_block(&mut |stmts| {
                if stmts.is_empty() {
                    return;
                }
                let i = at % stmts.len();
                match choice {
                    0 => drop(stmts.remove(i)),
                    1 => stmts.insert(i, stmts[i].clone()),
                    _ => {
                        let body = vec![stmts.remove(i)];
                        let cond = cond.clone();
                        stmts.insert(
                            i,
                            Stmt::Loop {
                                kind,
                                body,
                                cond,
                                label: None,
                            },
                        );
                    }
                }
            });
        }
        // assign to a variable past the declared ones
        3 => on_block(&mut |stmts| {
            let value = Expr::Const(1);
            stmts.insert(at.min(stmts.len()), Stmt::Assign { var: past, value });
        }),
        // write an undeclared port or an input port
        4 => {
            let port = one_of(rng, &["nosuch", "mask"]).to_string();
            on_block(&mut |stmts| {
                let value = Expr::Const(1);
                let port = port.clone();
                stmts.insert(at.min(stmts.len()), Stmt::WritePort { port, value });
            });
        }
        // put a wait in the else branch of a conditional
        5 => each_block(&mut behavior.body, &mut |stmts| {
            for s in stmts.iter_mut() {
                if let Stmt::If { else_body, .. } = s {
                    else_body.push(Stmt::Wait);
                }
            }
        }),
        // a declared width of 0, 65 or 200
        6 => {
            let width = one_of(rng, &[0, 65, 200]);
            let (vars, ports) = (behavior.vars.len(), behavior.ports.len());
            let i = rng.gen_range(0..vars + ports);
            match behavior.vars.get_mut(i) {
                Some(v) => v.width = width,
                None => behavior.ports[i - vars].width = width,
            }
        }
        // replace an expression, or build on it
        _ => {
            let hi = one_of(rng, &[31, 32, 64, 65, 200, 65535]);
            let lo = one_of(rng, &[0, 16, hi]);
            let op = one_of(rng, &[BinOp::Div, BinOp::Rem, BinOp::Shl, BinOp::Shr]);
            let c = one_of(rng, &[0, 1, -1, 2, 31, 32, 64, 65, i64::MIN, i64::MAX]);
            let port = one_of(rng, &["nosuch", "pixel"]).to_string();
            let mut k = 0;
            each_expr(&mut behavior.body, &mut |e| {
                if k == expr {
                    let old = Box::new(e.clone());
                    *e = match choice {
                        7 => Expr::Var(past),
                        8 => Expr::Port(port.clone()),
                        9 => Expr::Slice { value: old, hi, lo },
                        _ => Expr::Binary(op, old, Box::new(Expr::Const(c))),
                    };
                }
                k += 1;
            });
        }
    }
}

fn one_of<T: Clone>(rng: &mut SmallRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())].clone()
}

/// Calls `f` on every statement list of `stmts`, each before those nested
/// in it.
fn each_block(stmts: &mut Vec<Stmt>, f: &mut dyn FnMut(&mut Vec<Stmt>)) {
    f(stmts);
    for s in stmts.iter_mut() {
        match s {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                each_block(then_body, f);
                each_block(else_body, f);
            }
            Stmt::Loop { body, .. } => each_block(body, f),
            Stmt::Assign { .. } | Stmt::WritePort { .. } | Stmt::Wait => {}
        }
    }
}

/// Calls `f` on every expression of `stmts`, each before its operands.
fn each_expr(stmts: &mut [Stmt], f: &mut dyn FnMut(&mut Expr)) {
    for s in stmts {
        match s {
            Stmt::Assign { value, .. } | Stmt::WritePort { value, .. } => expr_tree(value, f),
            Stmt::Wait => {}
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                expr_tree(cond, f);
                each_expr(then_body, f);
                each_expr(else_body, f);
            }
            Stmt::Loop { body, cond, .. } => {
                each_expr(body, f);
                if let Some(c) = cond {
                    expr_tree(c, f);
                }
            }
        }
    }
}

fn expr_tree(e: &mut Expr, f: &mut dyn FnMut(&mut Expr)) {
    f(e);
    match e {
        Expr::Const(_) | Expr::Var(_) | Expr::Port(_) => {}
        Expr::Binary(_, a, b) | Expr::Cmp(_, a, b) => {
            expr_tree(a, f);
            expr_tree(b, f);
        }
        Expr::Neg(a) | Expr::Not(a) | Expr::Slice { value: a, .. } => expr_tree(a, f),
        Expr::Select(c, a, b) => {
            expr_tree(c, f);
            expr_tree(a, f);
            expr_tree(b, f);
        }
    }
}

/// Whether the behaviour assigns or reads a variable it does not declare.
fn names_an_undeclared_var(behavior: &Behavior) -> bool {
    let (mut body, declared) = (behavior.body.clone(), behavior.vars.len());
    let mut undeclared = false;
    each_block(&mut body, &mut |stmts| {
        for s in stmts.iter() {
            if let Stmt::Assign { var, .. } = s {
                undeclared |= var.index() >= declared;
            }
        }
    });
    each_expr(&mut body, &mut |e| {
        if let Expr::Var(v) = e {
            undeclared |= v.index() >= declared;
        }
    });
    undeclared
}

/// Whether a `WritePort` statement names each declared output port.
fn writes_every_output(behavior: &Behavior) -> bool {
    let mut body = behavior.body.clone();
    let mut written = HashSet::new();
    each_block(&mut body, &mut |stmts| {
        for s in stmts.iter() {
            if let Stmt::WritePort { port, .. } = s {
                written.insert(port.clone());
            }
        }
    });
    behavior
        .ports
        .iter()
        .filter(|p| p.direction == PortDirection::Output)
        .all(|p| written.contains(&p.name))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, .. ProptestConfig::default() })]

    /// Example 1's behaviour, mutated one to three times (see [`mutate`]),
    /// ends in `Ok` or a typed error through elaboration and loop
    /// preparation, and never panics; one that names an undeclared variable
    /// is refused with `UnknownVar`, and one that elaborates writes every
    /// output port it declares.
    #[test]
    fn mutated_example1_behaviour_elaborates_or_fails_with_a_typed_error(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut behavior = paper_example1();
        for _ in 0..rng.gen_range(1u32..=3) {
            mutate(&mut behavior, &mut rng);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            elaborate(&behavior).map(|mut cdfg| prepare_innermost_loop(&mut cdfg).map(drop))
        }));
        let Ok(outcome) = outcome else {
            return Err(TestCaseError::fail(format!("seed {seed} panicked: {behavior:?}")));
        };
        if names_an_undeclared_var(&behavior) {
            let refused = matches!(outcome, Err(FrontendError::UnknownVar { .. }));
            prop_assert!(refused, "seed {seed}: {outcome:?} for {behavior:?}");
        }
        if outcome.is_ok() {
            let written = writes_every_output(&behavior);
            prop_assert!(written, "seed {seed}: elaborated {behavior:?}");
        }
    }
}

#[test]
fn moving_average_sequential_and_pipelined_agree_on_resources() {
    let seq = Synthesizer::new(moving_average(4, 16))
        .clock_ps(1600.0)
        .latency_bounds(1, 4)
        .run()
        .expect("seq");
    let pipe = Synthesizer::new(moving_average(4, 16))
        .clock_ps(1600.0)
        .latency_bounds(1, 6)
        .pipeline(1)
        .run()
        .expect("pipe");
    assert_eq!(pipe.schedule.cycles_per_iteration(), 1);
    assert!(pipe.schedule.cycles_per_iteration() <= seq.schedule.cycles_per_iteration());
    assert!(
        pipe.area >= seq.area * 0.8,
        "pipelining should not magically shrink the datapath"
    );
}

#[test]
fn fir_resources_grow_with_throughput() {
    use hls::tech::ResourceClass;
    let slow = Synthesizer::new(fir_filter(&[3, 5, 7, 11], 16))
        .clock_ps(1600.0)
        .latency_bounds(1, 12)
        .pipeline(4)
        .run()
        .expect("ii4");
    let fast = Synthesizer::new(fir_filter(&[3, 5, 7, 11], 16))
        .clock_ps(1600.0)
        .latency_bounds(1, 12)
        .pipeline(1)
        .run()
        .expect("ii1");
    // II=1 forbids sharing: one multiplier per multiplication, against one
    // shared multiplier at II=4 (narrow 16-bit multipliers are cheap enough
    // that register/mux overheads dominate total area, so the robust claim is
    // about functional units and throughput, not total area).
    let muls = |r: &hls::SynthesisResult| {
        r.schedule
            .desc
            .resources
            .count_of_class(&ResourceClass::Multiplier)
    };
    assert!(muls(&fast) > muls(&slow));
    assert!(fast.schedule.cycles_per_iteration() < slow.schedule.cycles_per_iteration());
}

#[test]
fn faster_clock_costs_more_states() {
    let relaxed = Synthesizer::new(fir_filter(&[1, 2, 3, 4], 16))
        .clock_ps(3200.0)
        .latency_bounds(1, 16)
        .run()
        .expect("3.2ns");
    let tight = Synthesizer::new(fir_filter(&[1, 2, 3, 4], 16))
        .clock_ps(1250.0)
        .latency_bounds(1, 16)
        .run()
        .expect("1.25ns");
    assert!(tight.schedule.latency >= relaxed.schedule.latency);
}

/// A behaviour over inputs `a`, `b`, `c` and output `y` whose loop body
/// resets `v` to 0, runs `shape` and waits. `shape` gets the conditions
/// `a > 0`, `b < 3` and `c >= 0`.
fn nested(name: &str, shape: impl Fn(&BehaviorBuilder, VarId, [Expr; 3]) -> Vec<Stmt>) -> Behavior {
    let mut b = BehaviorBuilder::new(name);
    b.port_in("a", 16);
    b.port_in("b", 8);
    b.port_in("c", 8);
    b.port_out("y", 16);
    let v = b.var("v", 16, 0);
    let conds = [
        Expr::cmp(CmpKind::Gt, b.read_port("a"), Expr::Const(0)),
        Expr::cmp(CmpKind::Lt, b.read_port("b"), Expr::Const(3)),
        Expr::cmp(CmpKind::Ge, b.read_port("c"), Expr::Const(0)),
    ];
    let mut body = vec![b.assign(v, Expr::Const(0))];
    body.extend(shape(&b, v, conds));
    body.push(b.wait());
    let l = b.do_while(
        "main",
        body,
        Expr::cmp(CmpKind::Ne, b.read_port("a"), Expr::Const(0)),
    );
    b.infinite_loop(vec![l]);
    b.build()
}

/// The value written to `y` in an iteration, given its three conditions,
/// or `None` when the iteration writes no `y`.
type Expected = fn([bool; 3]) -> Option<i64>;

/// An `if` or an `if … else` nested in either branch of another `if`,
/// statements after the inner `if`, a port write inside a nested branch and
/// three levels of nesting: each elaborates, verifies sequentially and at
/// II = 2, and writes `y` exactly when and as the source says.
#[test]
fn nested_conditionals_elaborate_verify_and_write_as_the_source_says() {
    let set = |b: &BehaviorBuilder, v: VarId, k: i64| b.assign(v, Expr::Const(k));
    let write_v = |b: &BehaviorBuilder, v: VarId| b.write_port("y", b.read_var(v));
    let shapes: Vec<(Behavior, Expected)> = vec![
        (
            nested("if_in_then", |b, v, [a, bb, _]| {
                vec![
                    b.if_then_else(
                        a,
                        vec![b.if_then(bb, vec![set(b, v, 1)])],
                        vec![set(b, v, 2)],
                    ),
                    write_v(b, v),
                ]
            }),
            |[a, b, _]| Some(if a { i64::from(b) } else { 2 }),
        ),
        (
            nested("if_else_in_then", |b, v, [a, bb, _]| {
                let inner = b.if_then_else(bb, vec![set(b, v, 1)], vec![set(b, v, 3)]);
                vec![
                    b.if_then_else(a, vec![inner], vec![set(b, v, 2)]),
                    write_v(b, v),
                ]
            }),
            |[a, b, _]| {
                Some(if !a {
                    2
                } else if b {
                    1
                } else {
                    3
                })
            },
        ),
        (
            nested("if_in_else", |b, v, [a, bb, _]| {
                vec![
                    b.if_then_else(
                        a,
                        vec![set(b, v, 2)],
                        vec![b.if_then(bb, vec![set(b, v, 1)])],
                    ),
                    write_v(b, v),
                ]
            }),
            |[a, b, _]| Some(if a { 2 } else { i64::from(b) }),
        ),
        (
            nested("if_else_in_else", |b, v, [a, bb, _]| {
                let inner = b.if_then_else(bb, vec![set(b, v, 1)], vec![set(b, v, 3)]);
                vec![
                    b.if_then_else(a, vec![set(b, v, 2)], vec![inner]),
                    write_v(b, v),
                ]
            }),
            |[a, b, _]| {
                Some(if a {
                    2
                } else if b {
                    1
                } else {
                    3
                })
            },
        ),
        (
            nested("after_inner_if", |b, v, [a, bb, _]| {
                let then = vec![
                    b.if_then(bb, vec![set(b, v, 1)]),
                    b.assign(v, Expr::add(b.read_var(v), Expr::Const(10))),
                ];
                vec![b.if_then_else(a, then, vec![set(b, v, 2)]), write_v(b, v)]
            }),
            |[a, b, _]| Some(if a { 10 + i64::from(b) } else { 2 }),
        ),
        (
            nested("write_in_nested_branch", |b, _, [a, bb, _]| {
                let inner = b.if_then(bb, vec![b.write_port("y", Expr::Const(1))]);
                vec![b.if_then_else(a, vec![inner], vec![b.write_port("y", Expr::Const(2))])]
            }),
            |[a, b, _]| match (a, b) {
                (false, _) => Some(2),
                (true, true) => Some(1),
                (true, false) => None,
            },
        ),
        (
            nested("three_levels", |b, v, [a, bb, c]| {
                let third = b.if_then_else(c, vec![set(b, v, 1)], vec![set(b, v, 4)]);
                let second = b.if_then_else(bb, vec![third], vec![set(b, v, 3)]);
                vec![
                    b.if_then_else(a, vec![second], vec![set(b, v, 2)]),
                    write_v(b, v),
                ]
            }),
            |[a, b, c]| {
                Some(match (a, b, c) {
                    (false, _, _) => 2,
                    (true, false, _) => 3,
                    (true, true, true) => 1,
                    (true, true, false) => 4,
                })
            },
        ),
    ];
    for (behavior, expected) in shapes {
        let name = behavior.name.clone();
        let mut cdfg = elaborate(&behavior).unwrap_or_else(|e| panic!("{name}: {e}"));
        let body = prepare_innermost_loop(&mut cdfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let port = |n: &str| {
            body.dfg
                .iter_ports()
                .find(|(_, p)| p.name == n)
                .map(|(id, _)| id)
                .expect("port")
        };
        let stim = Stimulus::random(&body.dfg, 64, 7);
        let trace = Interpreter::new(&body).unwrap().run(&stim).unwrap();
        let want: Vec<(u32, i64)> = (0..64usize)
            .filter_map(|k| {
                let conds = [
                    stim.value(k, port("a")) > 0,
                    stim.value(k, port("b")) < 3,
                    stim.value(k, port("c")) >= 0,
                ];
                expected(conds).map(|y| (k as u32, y))
            })
            .collect();
        assert_eq!(trace.port_writes(port("y")), want, "{name}");
        for ii in [None, Some(2)] {
            let mut synth = Synthesizer::new(behavior.clone())
                .clock_ps(1600.0)
                .latency_bounds(1, 12)
                .verify(64);
            if let Some(ii) = ii {
                synth = synth.pipeline(ii);
            }
            synth
                .run()
                .unwrap_or_else(|e| panic!("{name} at II {ii:?}: {e}"));
        }
    }
}

/// Two subtractions on the branches of a conditional whose condition comes
/// out of a multiplier chain: the subtractions are ready first, and being
/// mutually exclusive they may share one subtractor, but only once the
/// condition that steers it is known. Sharing it before that step leaves a
/// binding the binder refuses as unsteerable.
#[test]
fn exclusive_ops_share_an_instance_only_once_their_condition_is_known() {
    let mut b = BehaviorBuilder::new("late_condition");
    b.port_in("p0", 16);
    b.port_in("p1", 8);
    b.port_out("out", 16);
    let v = b.var("v", 16, 0);
    let w = b.var("w", 16, 0);
    let body = vec![
        b.assign(v, Expr::mul(b.read_port("p0"), b.read_port("p1"))),
        b.assign(v, Expr::mul(b.read_var(v), b.read_port("p0"))),
        b.if_then_else(
            Expr::cmp(CmpKind::Gt, b.read_var(v), Expr::Const(5)),
            vec![b.assign(w, Expr::sub(b.read_port("p0"), Expr::Const(84)))],
            vec![b.assign(w, Expr::sub(b.read_port("p1"), Expr::Const(7)))],
        ),
        b.write_port("out", b.read_var(w)),
        b.wait(),
    ];
    let l = b.do_while(
        "main",
        body,
        Expr::cmp(CmpKind::Ne, b.read_port("p0"), Expr::Const(0)),
    );
    b.infinite_loop(vec![l]);
    let behavior = b.build();
    for clock_ps in [1600.0, 2200.0] {
        for ii in [None, Some(2)] {
            let mut synth = Synthesizer::new(behavior.clone())
                .clock_ps(clock_ps)
                .latency_bounds(1, 12)
                .verify(64);
            if let Some(ii) = ii {
                synth = synth.pipeline(ii);
            }
            synth
                .run()
                .unwrap_or_else(|e| panic!("{clock_ps} ps, II {ii:?}: {e}"));
        }
    }
}

/// A `while` loop whose condition reads `v`, which its body writes from a
/// multiplier chain and reads only before that write: the condition reads
/// the value the previous iteration left, and no recurrence keeps that
/// read within II states of the chain's last multiply. Pipelined, the read
/// must still wait until the value exists.
#[test]
fn a_while_condition_reads_the_carried_value_once_it_exists() {
    let mut b = BehaviorBuilder::new("late_carried");
    b.port_in("p0", 16);
    b.port_in("p1", 8);
    b.port_out("out", 16);
    let v = b.var("v", 16, 3);
    let chain = Expr::mul(
        Expr::mul(
            Expr::mul(b.read_port("p0"), b.read_port("p1")),
            b.read_port("p0"),
        ),
        b.read_port("p1"),
    );
    let cond = Expr::cmp(CmpKind::Gt, b.read_var(v), b.read_port("p0"));
    let mut exposed = b.clone();
    let loop_of = |body: Vec<Stmt>, cond: Expr| Stmt::Loop {
        kind: LoopKind::While,
        body,
        cond: Some(cond),
        label: Some("main".into()),
    };
    // the condition alone reads `v` before the body writes it
    let only_cond = vec![
        b.assign(v, chain.clone()),
        b.write_port("out", b.read_port("p1")),
        b.wait(),
    ];
    b.push(loop_of(only_cond, cond.clone()));
    let mut cdfg = elaborate(&b.build()).expect("elaborates");
    let body = prepare_innermost_loop(&mut cdfg).expect("linearizes");
    let exit = body.exit_condition.expect("exit condition");
    let reads_carried = body.dfg.op(exit).inputs.iter().any(|sig| {
        sig.producer()
            .is_some_and(|p| body.dfg.op(p).inputs.iter().any(|s| s.distance > 0))
    });
    assert!(reads_carried, "the exit condition reads the pre-loop `v`");
    // the write reads `v` before the body writes it too
    exposed.push(loop_of(
        vec![
            exposed.write_port("out", exposed.read_var(v)),
            exposed.assign(v, chain),
            exposed.wait(),
        ],
        cond,
    ));
    let behavior = exposed.build();
    for ii in [1, 2] {
        Synthesizer::new(behavior.clone())
            .clock_ps(1600.0)
            .latency_bounds(1, 12)
            .pipeline(ii)
            .verify(64)
            .run()
            .unwrap_or_else(|e| panic!("II {ii}: {e}"));
    }
}
