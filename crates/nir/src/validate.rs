//! Structural validation of a [`NirModule`].
//!
//! `validate` checks the invariants every consumer (simulator, rewriter,
//! Verilog printer) relies on: ports that print as distinct identifiers,
//! operands that name a value, per-kind arity, width agreement, port
//! references consistent with the module interface, every output port
//! driven, and the absence of combinational cycles (registers break
//! cycles). The cycle check uses the same
//! iterative colour-marked DFS idiom as the scheduler's
//! combinational-path walker.

use crate::model::{
    is_verilog_keyword, sanitize, CellId, CellKind, NirModule, RESERVED_IDENTIFIERS,
};
use crate::naming::identifier;
use hls_ir::eval::MAX_WIDTH;
use hls_ir::{Port, PortDirection};
use std::borrow::{Borrow, Cow};
use std::fmt;

/// A structural defect found by [`validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NirError {
    /// An operand names no value: its id is outside the cell arena, or it
    /// names an output cell ([`CellKind::Output`]), which writes a port
    /// and has no result.
    BadOperand {
        /// The referencing cell.
        cell: CellId,
        /// Which operand slot held the bad id.
        index: usize,
    },
    /// A cell has the wrong number of operands for its kind.
    BadArity {
        /// The offending cell.
        cell: CellId,
        /// Operand count the kind requires.
        expected: usize,
        /// Operand count the cell has.
        found: usize,
    },
    /// A cell has width zero.
    ZeroWidth {
        /// The offending cell.
        cell: CellId,
    },
    /// A cell is wider than [`MAX_WIDTH`] bits, the widest value the
    /// semantics and the simulator model.
    TooWide {
        /// The offending cell.
        cell: CellId,
        /// Its width in bits.
        width: u16,
    },
    /// Widths disagree between a cell and one of its operands, its port,
    /// or what its kind requires (1-bit compares, the 8-bit state counter
    /// and the folded states it must count).
    WidthMismatch {
        /// The offending cell.
        cell: CellId,
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// A port reference is out of range or has the wrong direction.
    BadPort {
        /// The offending cell.
        cell: CellId,
    },
    /// An output port has no `Output` cell driving it.
    UndrivenOutput {
        /// Index of the undriven port.
        port: u32,
    },
    /// A pipeline-stage reference is outside `0..stages`.
    BadStage {
        /// The offending cell.
        cell: CellId,
    },
    /// A combinational cycle passes through this cell.
    CombCycle {
        /// A cell on the cycle.
        cell: CellId,
    },
    /// A port prints as a Verilog identifier that is already taken: an
    /// earlier port's name sanitizes to the same text, the controller
    /// declares it ([`RESERVED_IDENTIFIERS`]), or Verilog reserves it as a
    /// keyword ([`crate::VERILOG_KEYWORDS`]).
    PortNameClash {
        /// Index of the port.
        port: u32,
        /// The port's name.
        name: String,
        /// The identifier the port prints as.
        identifier: String,
        /// The earlier port printing as the same identifier; `None` when
        /// the controller declares it or Verilog reserves it.
        earlier: Option<u32>,
    },
}

impl fmt::Display for NirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NirError::BadOperand { cell, index } => {
                write!(f, "cell {cell}: operand {index} names no value")
            }
            NirError::BadArity {
                cell,
                expected,
                found,
            } => write!(
                f,
                "cell {cell}: expected {expected} operand(s), found {found}"
            ),
            NirError::ZeroWidth { cell } => write!(f, "cell {cell}: zero width"),
            NirError::TooWide { cell, width } => write!(
                f,
                "cell {cell}: {width} bits wide, values are at most {MAX_WIDTH} bits"
            ),
            NirError::WidthMismatch { cell, detail } => {
                write!(f, "cell {cell}: width mismatch ({detail})")
            }
            NirError::BadPort { cell } => {
                write!(f, "cell {cell}: bad port reference")
            }
            NirError::UndrivenOutput { port } => {
                write!(f, "output port {port} has no driver")
            }
            NirError::BadStage { cell } => {
                write!(f, "cell {cell}: pipeline stage out of range")
            }
            NirError::CombCycle { cell } => {
                write!(f, "combinational cycle through cell {cell}")
            }
            NirError::PortNameClash {
                port,
                name,
                identifier,
                earlier,
            } => {
                write!(f, "port {port} `{name}` prints as `{identifier}`, ")?;
                match earlier {
                    Some(earlier) => write!(f, "as port {earlier} does"),
                    None if is_verilog_keyword(identifier) => {
                        write!(f, "which Verilog reserves as a keyword")
                    }
                    None => write!(f, "which the controller declares"),
                }
            }
        }
    }
}

impl std::error::Error for NirError {}

/// Checks that every port prints as a Verilog identifier of its own: no two
/// port names sanitize to the same text, and none to an identifier the
/// controller declares or to a Verilog keyword.
///
/// # Errors
/// [`NirError::PortNameClash`] naming the first port, in port order, whose
/// identifier is taken, and the first port that prints as it.
pub fn check_port_names<P: Borrow<Port>>(ports: &[P]) -> Result<(), NirError> {
    // Sorted by identifier, then by index, each run of equal identifiers
    // starts with the port that holds it; every later port of the run
    // clashes with that one.
    let mut order: Vec<(Cow<'_, str>, usize)> = ports
        .iter()
        .enumerate()
        .map(|(p, port)| (identifier(&port.borrow().name), p))
        .collect();
    order.sort_unstable();
    let mut clash: Option<(usize, Option<usize>)> = None;
    let mut holder = 0;
    for (k, (ident, p)) in order.iter().enumerate() {
        if k == 0 || order[k - 1].0 != *ident {
            holder = *p;
        }
        let earlier = (holder != *p).then_some(holder);
        let reserved = RESERVED_IDENTIFIERS.contains(&ident.as_ref()) || is_verilog_keyword(ident);
        if (earlier.is_some() || reserved) && clash.map_or(true, |(first, _)| *p < first) {
            clash = Some((*p, earlier));
        }
    }
    match clash {
        None => Ok(()),
        Some((port, earlier)) => {
            let name = &ports[port].borrow().name;
            Err(NirError::PortNameClash {
                port: port as u32,
                name: name.clone(),
                identifier: sanitize(name),
                earlier: earlier.map(|e| e as u32),
            })
        }
    }
}

/// Checks all structural invariants of `m`; `Ok(())` means every consumer may
/// assume ports print as distinct identifiers, widths agree, references
/// resolve and combinational logic is acyclic.
pub fn validate(m: &NirModule) -> Result<(), NirError> {
    check_port_names(&m.ports)?;
    for (id, cell) in m.iter_cells() {
        let expected = cell.kind.arity();
        if cell.inputs.len() != expected {
            return Err(NirError::BadArity {
                cell: id,
                expected,
                found: cell.inputs.len(),
            });
        }
        for (index, input) in cell.inputs.iter().enumerate() {
            let names_value = m
                .cells
                .get(input.index())
                .is_some_and(|c| !matches!(c.kind, CellKind::Output { .. }));
            if !names_value {
                return Err(NirError::BadOperand { cell: id, index });
            }
        }
        if cell.width == 0 {
            return Err(NirError::ZeroWidth { cell: id });
        }
        if cell.width > MAX_WIDTH {
            return Err(NirError::TooWide {
                cell: id,
                width: cell.width,
            });
        }
        let in_w = |i: usize| m.cell(cell.inputs[i]).width;
        match &cell.kind {
            // Every controller cell implies the printed 8-bit state register.
            CellKind::FsmState | CellKind::StageValid { .. } | CellKind::FirstIter { .. }
                if m.fold_states > 256 =>
            {
                return Err(NirError::WidthMismatch {
                    cell: id,
                    detail: format!(
                        "the 8-bit state counter holds 256 folded states, not {}",
                        m.fold_states
                    ),
                });
            }
            CellKind::Const(_) => {}
            CellKind::Input { port, .. } => {
                let Some(p) = m.ports.get(*port as usize) else {
                    return Err(NirError::BadPort { cell: id });
                };
                if p.direction != PortDirection::Input {
                    return Err(NirError::BadPort { cell: id });
                }
                if p.width != cell.width {
                    return Err(NirError::WidthMismatch {
                        cell: id,
                        detail: format!("input cell w{} vs port w{}", cell.width, p.width),
                    });
                }
            }
            CellKind::Output { port, .. } => {
                let Some(p) = m.ports.get(*port as usize) else {
                    return Err(NirError::BadPort { cell: id });
                };
                if p.direction != PortDirection::Output {
                    return Err(NirError::BadPort { cell: id });
                }
                if p.width != cell.width || in_w(0) != cell.width {
                    return Err(NirError::WidthMismatch {
                        cell: id,
                        detail: format!(
                            "output cell w{} data w{} vs port w{}",
                            cell.width,
                            in_w(0),
                            p.width
                        ),
                    });
                }
            }
            CellKind::Bin(b) => {
                if matches!(b, crate::model::BinKind::Cmp(_)) && cell.width != 1 {
                    return Err(NirError::WidthMismatch {
                        cell: id,
                        detail: format!("comparison must be 1 bit, found w{}", cell.width),
                    });
                }
            }
            CellKind::Un(_) => {}
            CellKind::Mux => {
                if in_w(1) != cell.width || in_w(2) != cell.width {
                    return Err(NirError::WidthMismatch {
                        cell: id,
                        detail: format!(
                            "mux w{} with arms w{} / w{}",
                            cell.width,
                            in_w(1),
                            in_w(2)
                        ),
                    });
                }
            }
            CellKind::Slice { hi, lo } => {
                // [65535:0] is 65 536 bits, one more than a `u16` holds
                if hi < lo || u32::from(cell.width) != u32::from(hi - lo) + 1 {
                    return Err(NirError::WidthMismatch {
                        cell: id,
                        detail: format!("slice [{hi}:{lo}] with w{}", cell.width),
                    });
                }
            }
            CellKind::Resize => {}
            CellKind::Reg { .. } => {
                if in_w(0) != cell.width {
                    return Err(NirError::WidthMismatch {
                        cell: id,
                        detail: format!("reg w{} with data w{}", cell.width, in_w(0)),
                    });
                }
            }
            CellKind::FsmState => {
                if cell.width != 8 {
                    return Err(NirError::WidthMismatch {
                        cell: id,
                        detail: format!("fsm state must be 8 bits, found w{}", cell.width),
                    });
                }
            }
            CellKind::StageValid { stage } | CellKind::FirstIter { stage } => {
                if cell.width != 1 {
                    return Err(NirError::WidthMismatch {
                        cell: id,
                        detail: format!("controller bit must be 1 bit, found w{}", cell.width),
                    });
                }
                if *stage >= m.stages {
                    return Err(NirError::BadStage { cell: id });
                }
            }
        }
    }

    // Driver presence: every output port must be written by at least one
    // Output cell.
    for (pi, p) in m.ports.iter().enumerate() {
        if p.direction != PortDirection::Output {
            continue;
        }
        let driven = m
            .cells
            .iter()
            .any(|c| matches!(c.kind, CellKind::Output { port, .. } if port as usize == pi));
        if !driven {
            return Err(NirError::UndrivenOutput { port: pi as u32 });
        }
    }

    comb_cycle_check(m)
}

/// Iterative colour-marked DFS over combinational edges; a register has no
/// outgoing combinational edges (its value is the stored one), so cycles
/// through a register are legal feedback, not errors.
fn comb_cycle_check(m: &NirModule) -> Result<(), NirError> {
    const WHITE: u8 = 0;
    const GREY: u8 = 1;
    const BLACK: u8 = 2;
    let mut colour = vec![WHITE; m.cells.len()];
    let mut stack: Vec<(u32, bool)> = Vec::new();
    for root in 0..m.cells.len() as u32 {
        if colour[root as usize] != WHITE {
            continue;
        }
        stack.push((root, false));
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                colour[id as usize] = BLACK;
                continue;
            }
            if colour[id as usize] == BLACK {
                continue;
            }
            colour[id as usize] = GREY;
            stack.push((id, true));
            let cell = &m.cells[id as usize];
            if cell.kind.is_seq() {
                // Sequential: inputs are sampled at the clock edge, not
                // combinationally transparent.
                continue;
            }
            for &input in &cell.inputs {
                match colour[input.index()] {
                    WHITE => stack.push((input.index() as u32, false)),
                    GREY => {
                        return Err(NirError::CombCycle { cell: input });
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BinKind, Cell, NirModule};
    use hls_ir::Port;

    fn module_with_out() -> NirModule {
        let mut m = NirModule::new("t");
        m.ports.push(Port {
            name: "x".into(),
            direction: PortDirection::Input,
            width: 8,
        });
        m.ports.push(Port {
            name: "y".into(),
            direction: PortDirection::Output,
            width: 8,
        });
        m
    }

    fn drive_output(m: &mut NirModule, data: CellId) {
        let en = m.push(CellKind::Const(1), 1, vec![]);
        m.push(CellKind::Output { port: 1, state: 0 }, 8, vec![data, en]);
    }

    #[test]
    fn accepts_a_well_formed_module() {
        let mut m = module_with_out();
        let i = m.push(CellKind::Input { port: 0, state: 0 }, 8, vec![]);
        let c = m.push(CellKind::Const(2), 8, vec![]);
        let s = m.push(CellKind::Bin(BinKind::Add), 8, vec![i, c]);
        drive_output(&mut m, s);
        assert_eq!(validate(&m), Ok(()));
    }

    #[test]
    fn rejects_out_of_range_operand() {
        let mut m = module_with_out();
        let bogus = CellId::from_raw(99);
        let id = m.add_cell(Cell {
            kind: CellKind::Resize,
            width: 8,
            inputs: vec![bogus],
            name: None,
        });
        drive_output(&mut m, id);
        assert!(matches!(validate(&m), Err(NirError::BadOperand { .. })));
    }

    #[test]
    fn rejects_an_operand_that_reads_an_output_cell() {
        // An output cell is a port write: reading it as a value is no
        // netlist the printer or the simulator can interpret.
        let mut m = module_with_out();
        let i = m.push(CellKind::Input { port: 0, state: 0 }, 8, vec![]);
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let out = m.push(CellKind::Output { port: 1, state: 0 }, 8, vec![i, en]);
        let sum = m.push(CellKind::Bin(BinKind::Add), 8, vec![out, i]);
        m.push(CellKind::Reg { init: 0 }, 8, vec![sum, en]);
        assert_eq!(
            validate(&m),
            Err(NirError::BadOperand {
                cell: CellId::from_raw(3),
                index: 0,
            })
        );
    }

    #[test]
    fn rejects_a_cell_wider_than_the_value_model() {
        let module = |width: u16| {
            let mut m = module_with_out();
            let i = m.push(CellKind::Input { port: 0, state: 0 }, 8, vec![]);
            let wide = m.push(CellKind::Resize, width, vec![i]);
            let sum = m.push(CellKind::Bin(BinKind::Add), width, vec![wide, wide]);
            let narrow = m.push(CellKind::Resize, 8, vec![sum]);
            drive_output(&mut m, narrow);
            m
        };
        assert_eq!(validate(&module(64)), Ok(()));
        assert_eq!(
            validate(&module(65)),
            Err(NirError::TooWide {
                cell: CellId::from_raw(1),
                width: 65,
            })
        );
    }

    #[test]
    fn rejects_a_slice_of_every_u16_bit_without_overflow() {
        let mut m = module_with_out();
        let i = m.push(CellKind::Input { port: 0, state: 0 }, 8, vec![]);
        let wide = CellKind::Slice {
            hi: u16::MAX,
            lo: 0,
        };
        let s = m.push(wide, 8, vec![i]);
        drive_output(&mut m, s);
        assert!(matches!(
            validate(&m),
            Err(NirError::WidthMismatch { cell, .. }) if cell == s
        ));
    }

    #[test]
    fn rejects_more_folded_states_than_the_state_counter_holds() {
        let mut m = module_with_out();
        let fsm = m.push(CellKind::FsmState, 8, vec![]);
        drive_output(&mut m, fsm);
        m.fold_states = 256;
        assert_eq!(validate(&m), Ok(()));
        m.fold_states = 257;
        assert!(matches!(
            validate(&m),
            Err(NirError::WidthMismatch { cell, .. }) if cell == fsm
        ));
    }

    #[test]
    fn rejects_mux_arm_width_mismatch() {
        let mut m = module_with_out();
        let s = m.push(CellKind::Const(1), 1, vec![]);
        let a = m.push(CellKind::Const(1), 8, vec![]);
        let b = m.push(CellKind::Const(1), 4, vec![]);
        let mx = m.push(CellKind::Mux, 8, vec![s, a, b]);
        drive_output(&mut m, mx);
        assert!(matches!(validate(&m), Err(NirError::WidthMismatch { .. })));
    }

    #[test]
    fn rejects_undriven_output_port() {
        let m = module_with_out();
        assert_eq!(validate(&m), Err(NirError::UndrivenOutput { port: 1 }));
    }

    #[test]
    fn rejects_combinational_cycle_but_allows_register_feedback() {
        let mut m = module_with_out();
        // a = add(a, c): direct comb cycle
        let c = m.push(CellKind::Const(1), 8, vec![]);
        let a = m.add_cell(Cell {
            kind: CellKind::Bin(BinKind::Add),
            width: 8,
            inputs: vec![CellId::from_raw(1), c],
            name: None,
        });
        assert_eq!(a.index(), 1);
        drive_output(&mut m, a);
        assert!(matches!(validate(&m), Err(NirError::CombCycle { .. })));

        // feedback through a register is fine: r = reg(add(r, c))
        let mut m = module_with_out();
        let c = m.push(CellKind::Const(1), 8, vec![]);
        let en = m.push(CellKind::Const(1), 1, vec![]);
        // reserve the reg id first
        let r = m.add_cell(Cell {
            kind: CellKind::Reg { init: 0 },
            width: 8,
            inputs: vec![c, en], // placeholder, patched below
            name: None,
        });
        let sum = m.push(CellKind::Bin(BinKind::Add), 8, vec![r, c]);
        m.cells[r.index()].inputs = vec![sum, en];
        drive_output(&mut m, r);
        assert_eq!(validate(&m), Ok(()));
    }

    #[test]
    fn rejects_wrong_direction_port_reference() {
        let mut m = module_with_out();
        // reading the output port
        let i = m.push(CellKind::Input { port: 1, state: 0 }, 8, vec![]);
        drive_output(&mut m, i);
        assert!(matches!(validate(&m), Err(NirError::BadPort { .. })));
    }
}
