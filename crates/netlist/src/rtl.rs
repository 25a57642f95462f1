//! Verilog printer over the structural netlist.
//!
//! The printer is a thin, deterministic walk of a validated
//! [`hls_nir::NirModule`]: every cell prints as at most one declaration plus
//! one statement, in arena order, and carries its lowering-assigned display
//! name into the text. All behaviour-level decisions (operand steering,
//! register chains, predicates, resource sharing) were made by the lowering
//! and the rewrite passes — nothing here invents structure.
//!
//! Width semantics lean on the fact that every declared net is `signed`:
//! Verilog's implicit sign-extension on widening and truncation on assignment
//! match the netlist's `Resize` semantics exactly, so a `resize` cell is just
//! `assign dst = src;`. `Div`/`Rem` are guarded so division by zero produces
//! the evaluator's defined results (`a / 0 = 0`, `a % 0 = a`).

use hls_ir::BitVal;
use hls_nir::{sanitize, BinKind, CellId, CellKind, Ident, NetNames, NirModule, UnKind};
use std::fmt::Write as _;

/// Writes a constant at `width` bits: non-negative values as sized signed
/// decimals, negative ones as `$signed` bit patterns.
fn write_literal(out: &mut String, value: i64, width: u16) {
    let b = BitVal::new(value, width.max(1));
    let w = b.width();
    let _ = if b.as_i64() >= 0 {
        write!(out, "{w}'sd{}", b.as_i64())
    } else {
        write!(out, "$signed({w}'d{})", b.as_u64())
    };
}

/// The Verilog operator of a two-input cell, with its surrounding spaces.
fn operator(b: BinKind) -> &'static str {
    match b {
        BinKind::Add => " + ",
        BinKind::Sub => " - ",
        BinKind::Mul => " * ",
        BinKind::Div => " / ",
        BinKind::Rem => " % ",
        BinKind::And => " & ",
        BinKind::Or => " | ",
        BinKind::Xor => " ^ ",
        BinKind::Shl => " << ",
        BinKind::Shr => " >>> ",
        BinKind::Cmp(k) => match k {
            hls_ir::CmpKind::Eq => " == ",
            hls_ir::CmpKind::Ne => " != ",
            hls_ir::CmpKind::Lt => " < ",
            hls_ir::CmpKind::Le => " <= ",
            hls_ir::CmpKind::Gt => " > ",
            hls_ir::CmpKind::Ge => " >= ",
        },
    }
}

/// Writes the declared range of a `width`-bit net.
fn write_range(out: &mut String, width: u16) {
    let _ = write!(out, "[{}:0]", width.saturating_sub(1));
}

fn is_identifier(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

struct Printer<'a> {
    m: &'a NirModule,
    /// The identifier of every port and declared cell.
    names: NetNames<'a>,
}

impl<'a> Printer<'a> {
    /// The identifier of declared cell `id`.
    fn name(&self, id: CellId) -> Ident<'_> {
        self.names.cell(id).expect("declared cells are named")
    }

    /// The identifier of port `port`.
    fn port(&self, port: u32) -> Ident<'_> {
        Ident::Name(self.names.port(port as usize))
    }

    /// Writes the expression that reads the value of `id`: the declared
    /// identifier, or an inline rendering for constants, port reads and
    /// controller bits.
    fn reference(&self, out: &mut String, id: CellId) {
        if let Some(ident) = self.names.cell(id) {
            if let Ident::Name(name) = ident {
                out.push_str(name);
            } else {
                let _ = write!(out, "{ident}");
            }
            return;
        }
        let cell = self.m.cell(id);
        let _ = match &cell.kind {
            CellKind::Const(v) => {
                write_literal(out, *v, cell.width);
                Ok(())
            }
            CellKind::Input { port, .. } => out.write_str(self.names.port(*port as usize)),
            CellKind::FsmState => out.write_str("state"),
            CellKind::StageValid { stage } => write!(out, "stage_valid[{stage}]"),
            CellKind::FirstIter { stage } => write!(out, "first_iter[{stage}]"),
            CellKind::Output { .. } => {
                // Outputs are sinks; nothing references them.
                unreachable!("output cells have no value")
            }
            _ => unreachable!("declared kinds are named"),
        };
    }

    /// Writes the continuous assignment of declared combinational cell `id`.
    fn statement(&self, out: &mut String, id: CellId) {
        let cell = self.m.cell(id);
        let r = |out: &mut String, i: usize| self.reference(out, cell.inputs[i]);
        let _ = write!(out, "  assign {} = ", self.name(id));
        match &cell.kind {
            CellKind::Bin(b) => {
                if matches!(b, BinKind::Div | BinKind::Rem) {
                    // Hardware-friendly total division, matching the
                    // evaluator: `(c == 0) ? 0 : a / c` and
                    // `(c == 0) ? a : a % c`.
                    out.push('(');
                    r(out, 1);
                    out.push_str(" == ");
                    write_literal(out, 0, self.m.cell(cell.inputs[1]).width);
                    out.push_str(") ? ");
                    if *b == BinKind::Div {
                        write_literal(out, 0, cell.width);
                    } else {
                        r(out, 0);
                    }
                    out.push_str(" : ");
                }
                r(out, 0);
                out.push_str(operator(*b));
                r(out, 1);
            }
            CellKind::Un(u) => {
                out.push(match u {
                    UnKind::Not => '~',
                    UnKind::Neg => '-',
                });
                r(out, 0);
            }
            CellKind::Mux => {
                r(out, 0);
                out.push_str(" ? ");
                r(out, 1);
                out.push_str(" : ");
                r(out, 2);
            }
            CellKind::Slice { hi, lo } => {
                let start = out.len();
                r(out, 0);
                let iw = self.m.cell(cell.inputs[0]).width;
                if is_identifier(&out[start..]) && *hi < iw {
                    let _ = write!(out, "[{hi}:{lo}]");
                } else if *lo != 0 {
                    let _ = write!(out, " >>> {lo}");
                }
                // otherwise the assignment truncates to the slice width
            }
            // Sign-extension / truncation is implicit in the assignment.
            CellKind::Resize => r(out, 0),
            _ => unreachable!("only declared combinational cells have statements"),
        }
        out.push_str(";\n");
    }

    /// Writes the clocked capture of `data` into `target` under `enable`.
    fn capture(&self, out: &mut String, target: Ident<'_>, data: CellId, enable: CellId) {
        let en = self.m.cell(enable);
        match en.kind {
            // A constant enable needs no guard (and a constant-false one no
            // statement at all).
            CellKind::Const(v) => {
                if !BitVal::new(v, en.width).is_true() {
                    return;
                }
                out.push_str("      ");
            }
            _ => {
                out.push_str("      if (");
                self.reference(out, enable);
                out.push_str(") ");
            }
        }
        let _ = write!(out, "{target} <= ");
        self.reference(out, data);
        out.push_str(";\n");
    }
}

/// Prints a validated netlist as synthesizable Verilog. The output is fully
/// deterministic: cells print in arena order under their lowering-assigned
/// names.
pub fn emit_verilog(m: &NirModule) -> String {
    let p = Printer {
        m,
        names: NetNames::new(m),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// {}: emitted by rpp-hls from the structural netlist",
        m.name
    );
    let _ = writeln!(
        out,
        "// {} cells, {} folded state(s), {} pipeline stage(s)",
        m.num_cells(),
        m.fold_states,
        m.stages
    );
    let _ = writeln!(out, "module {} (", sanitize(&m.name));
    let _ = writeln!(out, "  input wire clk,");
    let _ = write!(out, "  input wire rst");
    for (i, port) in m.ports.iter().enumerate() {
        let dir = match port.direction {
            hls_ir::PortDirection::Input => "input wire signed",
            hls_ir::PortDirection::Output => "output reg signed",
        };
        let _ = write!(out, ",\n  {dir} ");
        write_range(&mut out, port.width);
        let _ = write!(out, " {}", p.names.port(i));
    }
    let _ = writeln!(out, "\n);");

    // --- controller -------------------------------------------------------
    let has_fsm = m.cells.iter().any(|c| matches!(c.kind, CellKind::FsmState));
    let has_sv = m
        .cells
        .iter()
        .any(|c| matches!(c.kind, CellKind::StageValid { .. }));
    let has_fi = m
        .cells
        .iter()
        .any(|c| matches!(c.kind, CellKind::FirstIter { .. }));
    if has_fsm || has_sv || has_fi {
        let fold = m.fold_states.max(1);
        let stages = m.stages.max(1);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "  // controller: {fold} folded state(s), {stages} stage(s)"
        );
        let _ = writeln!(out, "  reg [7:0] state;");
        if has_sv {
            out.push_str("  reg ");
            write_range(&mut out, stages as u16);
            out.push_str(" stage_valid;\n");
        }
        if has_fi {
            out.push_str("  reg ");
            write_range(&mut out, stages as u16);
            out.push_str(" first_iter;\n");
        }
        let _ = writeln!(out, "  always @(posedge clk) begin");
        let _ = writeln!(out, "    if (rst) begin");
        let _ = writeln!(out, "      state <= 8'd0;");
        if has_sv {
            // Stage 0 has valid work from the very first cycle.
            let _ = writeln!(out, "      stage_valid <= {stages}'d1;");
        }
        if has_fi {
            let _ = writeln!(out, "      first_iter <= {stages}'d1;");
        }
        let _ = writeln!(out, "    end else begin");
        let _ = writeln!(
            out,
            "      state <= (state == 8'd{}) ? 8'd0 : state + 8'd1;",
            fold - 1
        );
        if has_sv {
            let _ = write!(out, "      if (state == 8'd{}) stage_valid <= ", fold - 1);
            if stages > 1 {
                let _ = write!(out, "{{stage_valid[{}:0], 1'b1}}", stages - 2);
            } else {
                out.push_str("1'b1");
            }
            out.push_str("; // pipeline fill\n");
        }
        if has_fi {
            let _ = writeln!(
                out,
                "      if (state == 8'd{}) first_iter <= first_iter << 1; // track iteration 0",
                fold - 1
            );
        }
        let _ = writeln!(out, "    end");
        let _ = writeln!(out, "  end");
    }

    // --- combinational cells ---------------------------------------------
    let comb: Vec<CellId> = m
        .iter_cells()
        .filter(|(_, c)| c.kind.is_declared() && !c.kind.is_seq())
        .map(|(id, _)| id)
        .collect();
    if !comb.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "  // combinational cells");
        for &id in &comb {
            out.push_str("  wire signed ");
            write_range(&mut out, m.cell(id).width);
            let _ = writeln!(out, " {};", p.name(id));
        }
        for &id in &comb {
            p.statement(&mut out, id);
        }
    }

    // --- registers and output captures -----------------------------------
    let regs: Vec<CellId> = m
        .iter_cells()
        .filter(|(_, c)| c.kind.is_seq())
        .map(|(id, _)| id)
        .collect();
    let outputs: Vec<(CellId, Ident<'_>)> = m
        .iter_cells()
        .filter_map(|(id, c)| match c.kind {
            CellKind::Output { port, .. } => Some((id, p.port(port))),
            _ => None,
        })
        .collect();
    if !regs.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "  // datapath registers");
        for &id in &regs {
            out.push_str("  reg signed ");
            write_range(&mut out, m.cell(id).width);
            let _ = writeln!(out, " {};", p.name(id));
        }
    }
    if !regs.is_empty() || !outputs.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "  always @(posedge clk) begin");
        let _ = writeln!(out, "    if (rst) begin");
        for &id in &regs {
            let cell = m.cell(id);
            let CellKind::Reg { init } = cell.kind else {
                unreachable!()
            };
            let _ = write!(out, "      {} <= ", p.name(id));
            write_literal(&mut out, init, cell.width);
            out.push_str(";\n");
        }
        for &(id, target) in &outputs {
            let _ = write!(out, "      {target} <= ");
            write_literal(&mut out, 0, m.cell(id).width);
            out.push_str(";\n");
        }
        let _ = writeln!(out, "    end else begin");
        for &id in &regs {
            let cell = m.cell(id);
            p.capture(&mut out, p.name(id), cell.inputs[0], cell.inputs[1]);
        }
        for &(id, target) in &outputs {
            let cell = m.cell(id);
            p.capture(&mut out, target, cell.inputs[0], cell.inputs[1]);
        }
        let _ = writeln!(out, "    end");
        let _ = writeln!(out, "  end");
    }

    let _ = writeln!(out, "endmodule");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::{Port, PortDirection};
    use hls_nir::{validate, Cell, NirModule};

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

    /// A tiny hand-built accumulator netlist: out <= reg(acc + x) in a
    /// 2-state FSM, written in state 1.
    fn accumulator() -> NirModule {
        let mut m = NirModule::new("acc loop");
        m.fold_states = 2;
        m.num_states = 2;
        m.ports.push(Port {
            name: "x".into(),
            direction: PortDirection::Input,
            width: 16,
        });
        m.ports.push(Port {
            name: "out".into(),
            direction: PortDirection::Output,
            width: 16,
        });
        let x = m.push(CellKind::Input { port: 0, state: 0 }, 16, vec![]);
        let fsm = m.push(CellKind::FsmState, 8, vec![]);
        let s0 = m.push(CellKind::Const(0), 8, vec![]);
        let in_s0 = named(
            &mut m,
            CellKind::Bin(BinKind::Cmp(hls_ir::CmpKind::Eq)),
            1,
            vec![fsm, s0],
            "at_s0",
        );
        // acc register feeds back through an adder
        let en1 = m.push(CellKind::Const(1), 1, vec![]);
        let acc = m.add_cell(Cell {
            kind: CellKind::Reg { init: 0 },
            width: 16,
            inputs: vec![x, en1], // patched below
            name: Some("v_acc".into()),
        });
        let sum = named(
            &mut m,
            CellKind::Bin(BinKind::Add),
            16,
            vec![acc, x],
            "w_sum",
        );
        m.cells[acc.index()].inputs = vec![sum, in_s0];
        let s1 = m.push(CellKind::Const(1), 8, vec![]);
        let in_s1 = named(
            &mut m,
            CellKind::Bin(BinKind::Cmp(hls_ir::CmpKind::Eq)),
            1,
            vec![fsm, s1],
            "at_s1",
        );
        m.push(CellKind::Output { port: 1, state: 1 }, 16, vec![acc, in_s1]);
        m
    }

    #[test]
    fn prints_a_complete_module() {
        let m = accumulator();
        validate(&m).unwrap();
        let v = emit_verilog(&m);
        assert!(v.contains("module acc_loop ("), "{v}");
        assert!(v.contains("input wire signed [15:0] x"), "{v}");
        assert!(v.contains("output reg signed [15:0] out"), "{v}");
        assert!(v.contains("reg [7:0] state;"), "{v}");
        assert!(
            v.contains("state <= (state == 8'd1) ? 8'd0 : state + 8'd1;"),
            "{v}"
        );
        assert!(v.contains("assign at_s0 = state == 8'sd0;"), "{v}");
        assert!(v.contains("assign w_sum = v_acc + x;"), "{v}");
        assert!(v.contains("if (at_s0) v_acc <= w_sum;"), "{v}");
        assert!(v.contains("if (at_s1) out <= v_acc;"), "{v}");
        assert!(v.ends_with("endmodule\n"), "{v}");
    }

    #[test]
    fn a_cell_named_like_a_keyword_prints_under_its_fallback() {
        let mut m = accumulator();
        m.cells[3].name = Some("reg".into());
        m.cells[6].name = Some("wire".into());
        validate(&m).unwrap();
        let v = emit_verilog(&m);
        assert!(v.contains("assign n3 = state == 8'sd0;"), "{v}");
        assert!(v.contains("assign n6 = v_acc + x;"), "{v}");
        assert!(v.contains("if (n3) v_acc <= n6;"), "{v}");
    }

    #[test]
    fn one_multiply_cell_prints_one_star() {
        let mut m = NirModule::new("mul once");
        m.ports.push(Port {
            name: "o".into(),
            direction: PortDirection::Output,
            width: 8,
        });
        let a = m.push(CellKind::Const(3), 8, vec![]);
        let b = m.push(CellKind::Const(5), 8, vec![]);
        let prod = named(&mut m, CellKind::Bin(BinKind::Mul), 8, vec![a, b], "w_p");
        let en = m.push(CellKind::Const(1), 1, vec![]);
        m.push(CellKind::Output { port: 0, state: 0 }, 8, vec![prod, en]);
        validate(&m).unwrap();
        let v = emit_verilog(&m);
        assert_eq!(v.matches(" * ").count(), 1, "{v}");
        // constant-true enable prints an unguarded capture
        assert!(v.contains("      o <= w_p;"), "{v}");
    }

    #[test]
    fn resize_and_slice_print_as_assignments() {
        let mut m = NirModule::new("shapes");
        m.ports.push(Port {
            name: "o".into(),
            direction: PortDirection::Output,
            width: 4,
        });
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let c = m.push(CellKind::Const(-100), 16, vec![]);
        let r = m.add_cell(Cell {
            kind: CellKind::Reg { init: 0 },
            width: 16,
            inputs: vec![c, en],
            name: Some("v_c".into()),
        });
        let sl = named(
            &mut m,
            CellKind::Slice { hi: 11, lo: 4 },
            8,
            vec![r],
            "w_mid",
        );
        let rz = named(&mut m, CellKind::Resize, 4, vec![sl], "w_small");
        m.push(CellKind::Output { port: 0, state: 0 }, 4, vec![rz, en]);
        validate(&m).unwrap();
        let v = emit_verilog(&m);
        assert!(v.contains("assign w_mid = v_c[11:4];"), "{v}");
        // truncation is implicit in the assignment
        assert!(v.contains("assign w_small = w_mid;"), "{v}");
    }

    #[test]
    fn division_is_guarded_against_zero() {
        let mut m = NirModule::new("divs");
        m.ports.push(Port {
            name: "o".into(),
            direction: PortDirection::Output,
            width: 8,
        });
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let c = m.push(CellKind::Const(9), 8, vec![]);
        let d = m.add_cell(Cell {
            kind: CellKind::Reg { init: 1 },
            width: 8,
            inputs: vec![c, en],
            name: Some("v_d".into()),
        });
        let q = named(&mut m, CellKind::Bin(BinKind::Div), 8, vec![c, d], "w_q");
        named(&mut m, CellKind::Bin(BinKind::Rem), 8, vec![c, d], "w_r");
        m.push(CellKind::Output { port: 0, state: 0 }, 8, vec![q, en]);
        validate(&m).unwrap();
        let v = emit_verilog(&m);
        assert!(
            v.contains("assign w_q = (v_d == 8'sd0) ? 8'sd0 : 8'sd9 / v_d;"),
            "{v}"
        );
        assert!(
            v.contains("assign w_r = (v_d == 8'sd0) ? 8'sd9 : 8'sd9 % v_d;"),
            "{v}"
        );
    }

    #[test]
    fn pipeline_controller_prints_fill_and_first_iteration_pipes() {
        let mut m = NirModule::new("pipe");
        m.fold_states = 2;
        m.num_states = 4;
        m.stages = 2;
        m.ports.push(Port {
            name: "o".into(),
            direction: PortDirection::Output,
            width: 8,
        });
        let sv = m.push(CellKind::StageValid { stage: 1 }, 1, vec![]);
        let _fi = m.push(CellKind::FirstIter { stage: 0 }, 1, vec![]);
        let c = m.push(CellKind::Const(7), 8, vec![]);
        m.push(CellKind::Output { port: 0, state: 3 }, 8, vec![c, sv]);
        validate(&m).unwrap();
        let v = emit_verilog(&m);
        assert!(v.contains("reg [1:0] stage_valid;"), "{v}");
        assert!(v.contains("stage_valid <= 2'd1;"), "{v}");
        assert!(
            v.contains("if (state == 8'd1) stage_valid <= {stage_valid[0:0], 1'b1};"),
            "{v}"
        );
        assert!(
            v.contains("if (state == 8'd1) first_iter <= first_iter << 1;"),
            "{v}"
        );
        assert!(v.contains("if (stage_valid[1]) o <= 8'sd7;"), "{v}");
    }
}
