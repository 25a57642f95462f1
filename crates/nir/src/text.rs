//! Round-trippable human-readable text format.
//!
//! One line per port and per cell, in arena order, so `text_parse(&text_emit(m))`
//! reconstructs a module structurally equal to `m`. The format is strict —
//! fixed field order, `%N` ids matching arena indices, quoted strings with
//! `\"`/`\\` escapes — which keeps the parser small and the round-trip exact.
//!
//! ```text
//! module "demo loop" fold=3 states=3 stages=1
//! port "x" in 16
//! port "out" out 16
//! %0 = input port=0 state=0 w16 name="w_0_read"
//! %1 = const 3 w16
//! %2 = mul %0 %1 w16 name="w_1_mul"
//! %3 = fsm w8
//! %4 = eq %3 %5 w1
//! %5 = const 0 w8
//! %6 = reg init=0 %2 %4 w16 name="v_1_mul"
//! %7 = output port=1 state=2 %2 %4 w16
//! endmodule
//! ```

use crate::model::{BinKind, Cell, CellId, CellKind, NirModule, UnKind};
use hls_ir::{CmpKind, Port, PortDirection};
use std::fmt;
use std::fmt::Write as _;

/// A syntax or consistency error while parsing the text format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serializes `m` into the line-based text format.
pub fn text_emit(m: &NirModule) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "module {} fold={} states={} stages={}",
        quote(&m.name),
        m.fold_states,
        m.num_states,
        m.stages
    );
    for p in &m.ports {
        let dir = match p.direction {
            PortDirection::Input => "in",
            PortDirection::Output => "out",
        };
        let _ = writeln!(out, "port {} {dir} {}", quote(&p.name), p.width);
    }
    for (id, cell) in m.iter_cells() {
        let _ = write!(out, "{id} = {}", cell.kind.mnemonic());
        match &cell.kind {
            CellKind::Const(v) => {
                let _ = write!(out, " {v}");
            }
            CellKind::Input { port, state } | CellKind::Output { port, state } => {
                let _ = write!(out, " port={port} state={state}");
            }
            CellKind::Slice { hi, lo } => {
                let _ = write!(out, " {hi} {lo}");
            }
            CellKind::Reg { init } => {
                let _ = write!(out, " init={init}");
            }
            CellKind::StageValid { stage } | CellKind::FirstIter { stage } => {
                let _ = write!(out, " {stage}");
            }
            _ => {}
        }
        for input in &cell.inputs {
            let _ = write!(out, " {input}");
        }
        let _ = write!(out, " w{}", cell.width);
        if let Some(name) = &cell.name {
            let _ = write!(out, " name={}", quote(name));
        }
        out.push('\n');
    }
    out.push_str("endmodule\n");
    out
}

/// One lexical token of a line: a bare word or a quoted (unescaped) string.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Word(String),
    Str(String),
}

impl Tok {
    fn word(&self, line: usize) -> Result<&str, ParseError> {
        match self {
            Tok::Word(w) => Ok(w),
            Tok::Str(_) => Err(err(line, "expected a bare word, found a quoted string")),
        }
    }
}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn lex(line: &str, lineno: usize) -> Result<Vec<Tok>, ParseError> {
    let mut toks = Vec::new();
    let mut chars = line.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '"' {
            chars.next();
            let mut s = String::new();
            loop {
                match chars.next() {
                    Some('"') => break,
                    Some('\\') => match chars.next() {
                        Some(e @ ('"' | '\\')) => s.push(e),
                        _ => return Err(err(lineno, "bad escape in string")),
                    },
                    Some(ch) => s.push(ch),
                    None => return Err(err(lineno, "unterminated string")),
                }
            }
            toks.push(Tok::Str(s));
        } else {
            let mut w = String::new();
            while let Some(&ch) = chars.peek() {
                if ch.is_whitespace() || ch == '"' {
                    break;
                }
                w.push(ch);
                chars.next();
            }
            // `name="..."` splits at the quote: keep the `name=` prefix as a
            // word and let the string lex on the next round.
            toks.push(Tok::Word(w));
        }
    }
    Ok(toks)
}

struct Fields<'a> {
    toks: &'a [Tok],
    at: usize,
    line: usize,
}

impl<'a> Fields<'a> {
    fn next(&mut self) -> Result<&'a Tok, ParseError> {
        let t = self
            .toks
            .get(self.at)
            .ok_or_else(|| err(self.line, "unexpected end of line"))?;
        self.at += 1;
        Ok(t)
    }

    fn next_word(&mut self) -> Result<&'a str, ParseError> {
        let line = self.line;
        self.next()?.word(line)
    }

    fn next_str(&mut self) -> Result<&'a str, ParseError> {
        match self.next()? {
            Tok::Str(s) => Ok(s),
            Tok::Word(_) => Err(err(self.line, "expected a quoted string")),
        }
    }

    /// Parses `key=value` where the value is part of the same word.
    fn next_kv(&mut self, key: &str) -> Result<&'a str, ParseError> {
        let line = self.line;
        let w = self.next_word()?;
        w.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix('='))
            .ok_or_else(|| err(line, format!("expected `{key}=<value>`")))
    }

    fn done(&self) -> bool {
        self.at >= self.toks.len()
    }
}

fn int_at<T: std::str::FromStr>(line: usize, s: &str) -> Result<T, ParseError> {
    s.parse()
        .map_err(|_| err(line, format!("bad integer `{s}`")))
}

fn parse_cell_id(f: &mut Fields<'_>) -> Result<CellId, ParseError> {
    let line = f.line;
    let w = f.next_word()?;
    let raw = w
        .strip_prefix('%')
        .ok_or_else(|| err(line, format!("expected a %id, found `{w}`")))?;
    Ok(CellId::from_raw(int_at(f.line, raw)?))
}

fn bin_kind(word: &str) -> Option<BinKind> {
    Some(match word {
        "add" => BinKind::Add,
        "sub" => BinKind::Sub,
        "mul" => BinKind::Mul,
        "div" => BinKind::Div,
        "rem" => BinKind::Rem,
        "and" => BinKind::And,
        "or" => BinKind::Or,
        "xor" => BinKind::Xor,
        "shl" => BinKind::Shl,
        "shr" => BinKind::Shr,
        "eq" => BinKind::Cmp(CmpKind::Eq),
        "neq" => BinKind::Cmp(CmpKind::Ne),
        "lt" => BinKind::Cmp(CmpKind::Lt),
        "le" => BinKind::Cmp(CmpKind::Le),
        "gt" => BinKind::Cmp(CmpKind::Gt),
        "ge" => BinKind::Cmp(CmpKind::Ge),
        _ => return None,
    })
}

/// Parses the text format back into a [`NirModule`]; the inverse of
/// [`text_emit`] (structural equality holds for emitted text).
pub fn text_parse(text: &str) -> Result<NirModule, ParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l))
        .filter(|(_, l)| !l.trim().is_empty());

    let (lineno, header) = lines
        .next()
        .ok_or_else(|| err(1, "empty input, expected `module`"))?;
    let toks = lex(header, lineno)?;
    let mut f = Fields {
        toks: &toks,
        at: 0,
        line: lineno,
    };
    if f.next_word()? != "module" {
        return Err(err(lineno, "expected `module`"));
    }
    let mut m = NirModule::new(f.next_str()?.to_string());
    m.fold_states = int_at(f.line, f.next_kv("fold")?)?;
    m.num_states = int_at(f.line, f.next_kv("states")?)?;
    m.stages = int_at(f.line, f.next_kv("stages")?)?;
    if !f.done() {
        return Err(err(lineno, "trailing tokens after module header"));
    }

    let mut saw_end = false;
    for (lineno, line) in lines {
        if saw_end {
            return Err(err(lineno, "content after `endmodule`"));
        }
        let toks = lex(line, lineno)?;
        let mut f = Fields {
            toks: &toks,
            at: 0,
            line: lineno,
        };
        let head = f.next_word()?;
        match head {
            "endmodule" => {
                saw_end = true;
                continue;
            }
            "port" => {
                if !m.cells.is_empty() {
                    return Err(err(lineno, "ports must precede cells"));
                }
                let name = f.next_str()?.to_string();
                let direction = match f.next_word()? {
                    "in" => PortDirection::Input,
                    "out" => PortDirection::Output,
                    d => return Err(err(lineno, format!("bad port direction `{d}`"))),
                };
                let width: u16 = int_at(f.line, f.next_word()?)?;
                m.ports.push(Port {
                    name,
                    direction,
                    width,
                });
            }
            _ => {
                let raw = head
                    .strip_prefix('%')
                    .ok_or_else(|| err(lineno, format!("expected `%id`, found `{head}`")))?;
                let id: u32 = int_at(f.line, raw)?;
                if id as usize != m.cells.len() {
                    return Err(err(
                        lineno,
                        format!("cell id %{id} out of order (expected %{})", m.cells.len()),
                    ));
                }
                if f.next_word()? != "=" {
                    return Err(err(lineno, "expected `=`"));
                }
                let kw = f.next_word()?.to_string();
                let kind = if let Some(b) = bin_kind(&kw) {
                    CellKind::Bin(b)
                } else {
                    match kw.as_str() {
                        "not" => CellKind::Un(UnKind::Not),
                        "neg" => CellKind::Un(UnKind::Neg),
                        "const" => CellKind::Const(int_at(f.line, f.next_word()?)?),
                        "input" => CellKind::Input {
                            port: int_at(f.line, f.next_kv("port")?)?,
                            state: int_at(f.line, f.next_kv("state")?)?,
                        },
                        "output" => CellKind::Output {
                            port: int_at(f.line, f.next_kv("port")?)?,
                            state: int_at(f.line, f.next_kv("state")?)?,
                        },
                        "mux" => CellKind::Mux,
                        "slice" => {
                            let hi: u16 = int_at(f.line, f.next_word()?)?;
                            let lo: u16 = int_at(f.line, f.next_word()?)?;
                            CellKind::Slice { hi, lo }
                        }
                        "resize" => CellKind::Resize,
                        "reg" => CellKind::Reg {
                            init: int_at(f.line, f.next_kv("init")?)?,
                        },
                        "fsm" => CellKind::FsmState,
                        "stagevalid" => CellKind::StageValid {
                            stage: int_at(f.line, f.next_word()?)?,
                        },
                        "firstiter" => CellKind::FirstIter {
                            stage: int_at(f.line, f.next_word()?)?,
                        },
                        other => return Err(err(lineno, format!("unknown cell kind `{other}`"))),
                    }
                };
                let mut inputs = Vec::with_capacity(kind.arity());
                for _ in 0..kind.arity() {
                    inputs.push(parse_cell_id(&mut f)?);
                }
                let w = f.next_word()?;
                let width: u16 = int_at(
                    lineno,
                    w.strip_prefix('w')
                        .ok_or_else(|| err(lineno, format!("expected `w<width>`, found `{w}`")))?,
                )?;
                let mut name = None;
                while !f.done() {
                    match f.next()? {
                        Tok::Word(w) if w == "name=" => {
                            name = Some(f.next_str()?.to_string());
                        }
                        _ => return Err(err(lineno, "unexpected trailing token")),
                    }
                }
                m.add_cell(Cell {
                    kind,
                    width,
                    inputs,
                    name,
                });
            }
        }
    }
    if !saw_end {
        return Err(err(text.lines().count().max(1), "missing `endmodule`"));
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NirModule;

    fn demo() -> NirModule {
        let mut m = NirModule::new("demo loop");
        m.fold_states = 3;
        m.num_states = 3;
        m.stages = 1;
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
        let i = m.add_cell(Cell {
            kind: CellKind::Input { port: 0, state: 0 },
            width: 16,
            inputs: vec![],
            name: Some("w_0_read".into()),
        });
        let c = m.push(CellKind::Const(-3), 16, vec![]);
        let p = m.add_cell(Cell {
            kind: CellKind::Bin(BinKind::Mul),
            width: 16,
            inputs: vec![i, c],
            name: Some("w_1_mul".into()),
        });
        let fsm = m.push(CellKind::FsmState, 8, vec![]);
        let z = m.push(CellKind::Const(0), 8, vec![]);
        let en = m.push(CellKind::Bin(BinKind::Cmp(CmpKind::Eq)), 1, vec![fsm, z]);
        let mx = m.push(CellKind::Mux, 16, vec![en, p, c]);
        let sl = m.push(CellKind::Slice { hi: 7, lo: 0 }, 8, vec![mx]);
        let rz = m.push(CellKind::Resize, 16, vec![sl]);
        let r = m.add_cell(Cell {
            kind: CellKind::Reg { init: -1 },
            width: 16,
            inputs: vec![rz, en],
            name: Some("v_1_mul".into()),
        });
        m.push(CellKind::Output { port: 1, state: 2 }, 16, vec![r, en]);
        m
    }

    #[test]
    fn round_trips_structurally() {
        let m = demo();
        let text = text_emit(&m);
        let back = text_parse(&text).expect("parses");
        assert_eq!(back, m);
        // and the re-emitted text is byte-identical
        assert_eq!(text_emit(&back), text);
    }

    #[test]
    fn round_trips_quoted_names_with_escapes() {
        let mut m = NirModule::new("weird \"name\" \\ here");
        m.push(CellKind::Const(1), 1, vec![]);
        let back = text_parse(&text_emit(&m)).expect("parses");
        assert_eq!(back, m);
    }

    #[test]
    fn rejects_out_of_order_ids() {
        let text = "module \"t\" fold=1 states=1 stages=1\n%1 = const 0 w8\nendmodule\n";
        let e = text_parse(text).unwrap_err();
        assert!(e.message.contains("out of order"), "{e}");
    }

    #[test]
    fn rejects_unknown_kind_and_missing_end() {
        assert!(
            text_parse("module \"t\" fold=1 states=1 stages=1\n%0 = frob w8\nendmodule\n").is_err()
        );
        assert!(text_parse("module \"t\" fold=1 states=1 stages=1\n").is_err());
    }

    #[test]
    fn controller_bits_round_trip() {
        let mut m = NirModule::new("pipe");
        m.stages = 2;
        m.push(CellKind::StageValid { stage: 1 }, 1, vec![]);
        m.push(CellKind::FirstIter { stage: 0 }, 1, vec![]);
        let back = text_parse(&text_emit(&m)).expect("parses");
        assert_eq!(back, m);
    }
}
