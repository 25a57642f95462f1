//! A small textual behavioural language.
//!
//! The language is a C-like subset sufficient to describe the paper's input
//! threads without a SystemC compiler:
//!
//! ```text
//! module example1 {
//!   in  mask : 32;  in chrome : 32;  in scale : 32;  in th : 32;
//!   out pixel : 32;
//!   var aver : 32 = 0;  var delta : 32 = 0;  var filt : 32 = 0;
//!   thread {
//!     aver = 0;
//!     wait;
//!     do {
//!       filt = mask;
//!       delta = mask * chrome;
//!       aver = aver + delta;
//!       if (aver > th) { aver = aver * scale; }
//!       wait;
//!       pixel = aver * filt;
//!     } while (delta != 0);
//!   }
//! }
//! ```
//!
//! Statements inside `thread { ... }` are wrapped in the implicit infinite
//! thread loop, exactly like the `while(true)` of the SystemC original.

use crate::ast::{Behavior, BinOp, Expr, LoopKind, PortDecl, Stmt, VarDecl, VarId};
use crate::error::FrontendError;
use hls_ir::eval::MAX_WIDTH;
use hls_ir::{CmpKind, PortDirection};

/// Parses the textual behavioural language into a [`Behavior`].
///
/// # Errors
/// Returns [`FrontendError::Parse`] with a line number and message when the
/// text does not conform to the grammar.
pub fn parse(source: &str) -> Result<Behavior, FrontendError> {
    let tokens = lex(source)?;
    Parser { tokens, pos: 0 }.module()
}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Num(i64),
    Sym(String),
}

#[derive(Clone, Debug)]
struct Token {
    tok: Tok,
    line: usize,
}

fn lex(src: &str) -> Result<Vec<Token>, FrontendError> {
    let mut out = Vec::new();
    for (lineno, line) in src.lines().enumerate() {
        let line_no = lineno + 1;
        let code = line.split("//").next().unwrap_or("");
        let mut chars = code.chars().peekable();
        while let Some(&c) = chars.peek() {
            if c.is_whitespace() {
                chars.next();
            } else if c.is_ascii_digit() {
                let mut n = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit() {
                        n.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let value = n.parse::<i64>().map_err(|_| FrontendError::Parse {
                    line: line_no,
                    message: format!("bad number `{n}`"),
                })?;
                out.push(Token {
                    tok: Tok::Num(value),
                    line: line_no,
                });
            } else if c.is_alphabetic() || c == '_' {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_alphanumeric() || d == '_' {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    tok: Tok::Ident(s),
                    line: line_no,
                });
            } else {
                chars.next();
                let two = match (c, chars.peek()) {
                    ('=', Some('='))
                    | ('!', Some('='))
                    | ('<', Some('='))
                    | ('>', Some('='))
                    | ('<', Some('<'))
                    | ('>', Some('>')) => {
                        let mut s = String::from(c);
                        s.push(*chars.peek().expect("peeked"));
                        chars.next();
                        Some(s)
                    }
                    _ => None,
                };
                let sym = two.unwrap_or_else(|| c.to_string());
                out.push(Token {
                    tok: Tok::Sym(sym),
                    line: line_no,
                });
            }
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    /// The 1-based line of the current token (of the last one past the end,
    /// and line 1 when the source has no tokens at all).
    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or(1, |t| t.line)
    }

    fn err(&self, message: impl Into<String>) -> FrontendError {
        FrontendError::Parse {
            line: self.line(),
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|t| t.tok.clone());
        self.pos += 1;
        t
    }

    fn eat_sym(&mut self, sym: &str) -> Result<(), FrontendError> {
        match self.next() {
            Some(Tok::Sym(s)) if s == sym => Ok(()),
            other => Err(self.err(format!("expected `{sym}`, found {other:?}"))),
        }
    }

    fn eat_ident(&mut self, kw: &str) -> Result<(), FrontendError> {
        match self.next() {
            Some(Tok::Ident(s)) if s == kw => Ok(()),
            other => Err(self.err(format!("expected `{kw}`, found {other:?}"))),
        }
    }

    fn ident(&mut self) -> Result<String, FrontendError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn number(&mut self) -> Result<i64, FrontendError> {
        match self.next() {
            Some(Tok::Num(n)) => Ok(n),
            Some(Tok::Sym(s)) if s == "-" => Ok(-self.number()?),
            other => Err(self.err(format!("expected number, found {other:?}"))),
        }
    }

    /// Parses a port/variable bit width, rejecting widths outside
    /// `1..=MAX_WIDTH`: the value model covers no wider value, so a wider
    /// design would be verified at 64 bits and emitted at full width.
    fn width(&mut self) -> Result<u16, FrontendError> {
        let n = self.number()?;
        if !(1..=i64::from(MAX_WIDTH)).contains(&n) {
            return Err(self.err(format!("bad width `{n}` (expected 1..={MAX_WIDTH} bits)")));
        }
        Ok(n as u16)
    }

    fn is_sym(&self, sym: &str) -> bool {
        matches!(self.peek(), Some(Tok::Sym(s)) if s == sym)
    }

    fn is_ident(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    fn module(&mut self) -> Result<Behavior, FrontendError> {
        self.eat_ident("module")?;
        let name = self.ident()?;
        self.eat_sym("{")?;
        let mut ports = Vec::new();
        let mut vars = Vec::new();
        let mut body = Vec::new();
        loop {
            if self.is_sym("}") {
                self.next();
                break;
            }
            if self.is_ident("in") || self.is_ident("out") {
                let dir = if self.is_ident("in") {
                    PortDirection::Input
                } else {
                    PortDirection::Output
                };
                self.next();
                let pname = self.ident()?;
                self.eat_sym(":")?;
                let width = self.width()?;
                self.eat_sym(";")?;
                ports.push(PortDecl {
                    name: pname,
                    direction: dir,
                    width,
                });
            } else if self.is_ident("var") {
                self.next();
                let vname = self.ident()?;
                self.eat_sym(":")?;
                let width = self.width()?;
                let init = if self.is_sym("=") {
                    self.next();
                    self.number()?
                } else {
                    0
                };
                self.eat_sym(";")?;
                vars.push(VarDecl {
                    name: vname,
                    width,
                    init,
                });
            } else if self.is_ident("thread") {
                self.next();
                let names = Names {
                    ports: &ports,
                    vars: &vars,
                };
                let stmts = self.block(&names)?;
                body.push(Stmt::Loop {
                    kind: LoopKind::Infinite,
                    body: stmts,
                    cond: None,
                    label: Some("thread".into()),
                });
            } else {
                return Err(self.err(format!("unexpected token {:?}", self.peek())));
            }
        }
        Ok(Behavior {
            name,
            ports,
            vars,
            body,
        })
    }

    fn block(&mut self, names: &Names<'_>) -> Result<Vec<Stmt>, FrontendError> {
        self.eat_sym("{")?;
        let mut out = Vec::new();
        while !self.is_sym("}") {
            out.push(self.stmt(names)?);
        }
        self.eat_sym("}")?;
        Ok(out)
    }

    fn stmt(&mut self, names: &Names<'_>) -> Result<Stmt, FrontendError> {
        if self.is_ident("wait") {
            self.next();
            if self.is_sym("(") {
                self.next();
                self.eat_sym(")")?;
            }
            self.eat_sym(";")?;
            return Ok(Stmt::Wait);
        }
        if self.is_ident("if") {
            self.next();
            self.eat_sym("(")?;
            let cond = self.expr(names)?;
            self.eat_sym(")")?;
            let then_body = self.block(names)?;
            let else_body = if self.is_ident("else") {
                self.next();
                self.block(names)?
            } else {
                Vec::new()
            };
            return Ok(Stmt::If {
                cond,
                then_body,
                else_body,
            });
        }
        if self.is_ident("do") {
            self.next();
            let body = self.block(names)?;
            self.eat_ident("while")?;
            self.eat_sym("(")?;
            let cond = self.expr(names)?;
            self.eat_sym(")")?;
            self.eat_sym(";")?;
            return Ok(Stmt::Loop {
                kind: LoopKind::DoWhile,
                body,
                cond: Some(cond),
                label: Some("do_while".into()),
            });
        }
        if self.is_ident("while") {
            self.next();
            self.eat_sym("(")?;
            let cond = self.expr(names)?;
            self.eat_sym(")")?;
            let body = self.block(names)?;
            return Ok(Stmt::Loop {
                kind: LoopKind::While,
                body,
                cond: Some(cond),
                label: Some("while".into()),
            });
        }
        // assignment: `name = expr ;`
        let target = self.ident()?;
        self.eat_sym("=")?;
        let value = self.expr(names)?;
        self.eat_sym(";")?;
        if let Some(var) = names.var(&target) {
            Ok(Stmt::Assign { var, value })
        } else if names.is_port(&target) {
            Ok(Stmt::WritePort {
                port: target,
                value,
            })
        } else {
            Err(self.err(format!("unknown assignment target `{target}`")))
        }
    }

    fn expr(&mut self, names: &Names<'_>) -> Result<Expr, FrontendError> {
        self.comparison(names)
    }

    fn comparison(&mut self, names: &Names<'_>) -> Result<Expr, FrontendError> {
        let lhs = self.add_sub(names)?;
        let kind = match self.peek() {
            Some(Tok::Sym(s)) if s == "==" => Some(CmpKind::Eq),
            Some(Tok::Sym(s)) if s == "!=" => Some(CmpKind::Ne),
            Some(Tok::Sym(s)) if s == "<" => Some(CmpKind::Lt),
            Some(Tok::Sym(s)) if s == "<=" => Some(CmpKind::Le),
            Some(Tok::Sym(s)) if s == ">" => Some(CmpKind::Gt),
            Some(Tok::Sym(s)) if s == ">=" => Some(CmpKind::Ge),
            _ => None,
        };
        if let Some(kind) = kind {
            self.next();
            let rhs = self.add_sub(names)?;
            Ok(Expr::Cmp(kind, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn add_sub(&mut self, names: &Names<'_>) -> Result<Expr, FrontendError> {
        let mut lhs = self.mul_div(names)?;
        loop {
            let op = match self.peek() {
                Some(Tok::Sym(s)) if s == "+" => BinOp::Add,
                Some(Tok::Sym(s)) if s == "-" => BinOp::Sub,
                Some(Tok::Sym(s)) if s == "&" => BinOp::And,
                Some(Tok::Sym(s)) if s == "|" => BinOp::Or,
                Some(Tok::Sym(s)) if s == "^" => BinOp::Xor,
                _ => break,
            };
            self.next();
            let rhs = self.mul_div(names)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul_div(&mut self, names: &Names<'_>) -> Result<Expr, FrontendError> {
        let mut lhs = self.unary(names)?;
        loop {
            let op = match self.peek() {
                Some(Tok::Sym(s)) if s == "*" => BinOp::Mul,
                Some(Tok::Sym(s)) if s == "/" => BinOp::Div,
                Some(Tok::Sym(s)) if s == "%" => BinOp::Rem,
                Some(Tok::Sym(s)) if s == "<<" => BinOp::Shl,
                Some(Tok::Sym(s)) if s == ">>" => BinOp::Shr,
                _ => break,
            };
            self.next();
            let rhs = self.unary(names)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self, names: &Names<'_>) -> Result<Expr, FrontendError> {
        if self.is_sym("-") {
            self.next();
            return Ok(Expr::Neg(Box::new(self.unary(names)?)));
        }
        if self.is_sym("~") {
            self.next();
            return Ok(Expr::Not(Box::new(self.unary(names)?)));
        }
        self.primary(names)
    }

    fn primary(&mut self, names: &Names<'_>) -> Result<Expr, FrontendError> {
        match self.next() {
            Some(Tok::Num(n)) => Ok(Expr::Const(n)),
            Some(Tok::Sym(s)) if s == "(" => {
                let e = self.expr(names)?;
                self.eat_sym(")")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                if let Some(var) = names.var(&name) {
                    Ok(Expr::Var(var))
                } else if names.is_port(&name) {
                    Ok(Expr::Port(name))
                } else {
                    Err(self.err(format!("unknown identifier `{name}`")))
                }
            }
            other => Err(self.err(format!("unexpected token {other:?}"))),
        }
    }
}

struct Names<'a> {
    ports: &'a [PortDecl],
    vars: &'a [VarDecl],
}

impl Names<'_> {
    fn var(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(|i| VarId(i as u32))
    }
    fn is_port(&self, name: &str) -> bool {
        self.ports.iter().any(|p| p.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::elaborate;

    const EXAMPLE1_SRC: &str = r#"
module example1 {
  in mask : 32; in chrome : 32; in scale : 32; in th : 32;
  out pixel : 32;
  var aver : 32 = 0; var delta : 32 = 0; var filt : 32 = 0;
  thread {
    aver = 0;
    wait;
    do {
      filt = mask;
      delta = mask * chrome;
      aver = aver + delta;
      if (aver > th) { aver = aver * scale; }
      wait;
      pixel = aver * filt;
    } while (delta != 0);
  }
}
"#;

    #[test]
    fn parses_paper_example() {
        let behavior = parse(EXAMPLE1_SRC).expect("parse");
        assert_eq!(behavior.name, "example1");
        assert_eq!(behavior.ports.len(), 5);
        assert_eq!(behavior.vars.len(), 3);
        assert_eq!(behavior.wait_count(), 2);
        // and it elaborates with the expected operation mix
        let cdfg = elaborate(&behavior).expect("elaborate");
        let hist = cdfg.dfg.kind_histogram();
        assert_eq!(hist.get("mul"), Some(&3));
        assert_eq!(hist.get("add"), Some(&1));
    }

    #[test]
    fn parsed_example_matches_builder_example() {
        let parsed = parse(EXAMPLE1_SRC).expect("parse");
        let built = crate::designs::paper_example1();
        // Same op and wait counts (structural equivalence proxy).
        assert_eq!(parsed.op_count(), built.op_count());
        assert_eq!(parsed.wait_count(), built.wait_count());
    }

    #[test]
    fn precedence_mul_over_add() {
        let src = "module m { in a : 8; out y : 8; var v : 8 = 0; thread { v = a + a * 2; wait; y = v; } }";
        let b = parse(src).expect("parse");
        // v = a + (a*2): top node is Add
        let Stmt::Loop { body, .. } = &b.body[0] else {
            panic!()
        };
        let Stmt::Assign { value, .. } = &body[0] else {
            panic!()
        };
        match value {
            Expr::Binary(BinOp::Add, _, rhs) => match rhs.as_ref() {
                Expr::Binary(BinOp::Mul, _, _) => {}
                other => panic!("expected mul on rhs, got {other:?}"),
            },
            other => panic!("expected add at top, got {other:?}"),
        }
    }

    #[test]
    fn comparison_and_while_loop() {
        let src = "module m { in a : 8; out y : 8; var i : 8 = 0; thread { while (i < 10) { i = i + 1; wait; } y = i; wait; } }";
        let b = parse(src).expect("parse");
        let Stmt::Loop { body, .. } = &b.body[0] else {
            panic!()
        };
        assert!(matches!(
            &body[0],
            Stmt::Loop {
                kind: LoopKind::While,
                ..
            }
        ));
    }

    #[test]
    fn error_has_line_number() {
        let src = "module m {\n  in a : 8;\n  bogus token here\n}";
        let err = parse(src).unwrap_err();
        match err {
            FrontendError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_identifier_rejected() {
        let src = "module m { in a : 8; out y : 8; var v : 8; thread { v = nosuch + 1; wait; } }";
        assert!(parse(src).is_err());
    }

    #[test]
    fn malformed_module_is_rejected() {
        // missing `module` keyword
        let err = parse("widget m { }").unwrap_err();
        assert!(
            matches!(err, FrontendError::Parse { line: 1, .. }),
            "{err:?}"
        );
        // missing module name
        assert!(parse("module { }").is_err());
        // unclosed module body: the parser runs out of tokens
        let err = parse("module m {\n  in a : 8;\n").unwrap_err();
        let FrontendError::Parse { message, .. } = &err else {
            panic!("expected parse error, got {err:?}")
        };
        assert!(
            message.contains("None") || message.contains("unexpected"),
            "{message}"
        );
        // stray declaration keyword inside the body
        assert!(parse("module m { input a : 8; }").is_err());
        // no tokens at all: the error still names a 1-based line
        for src in ["", "// only a comment\n\n"] {
            let err = parse(src).unwrap_err();
            assert!(
                matches!(err, FrontendError::Parse { line: 1, .. }),
                "{src:?}: {err:?}"
            );
        }
    }

    #[test]
    fn unknown_assignment_target_is_rejected() {
        let src = "module m { in a : 8; out y : 8; thread { nosuch = a; wait; } }";
        let err = parse(src).unwrap_err();
        let FrontendError::Parse { message, .. } = &err else {
            panic!("expected parse error, got {err:?}")
        };
        assert!(message.contains("nosuch"), "{message}");
    }

    #[test]
    fn input_port_cannot_be_assigned_but_output_can() {
        // writing an output port is fine...
        let ok = "module m { in a : 8; out y : 8; thread { y = a; wait; } }";
        assert!(parse(ok).is_ok());
        // ...and an unknown name on the right-hand side is caught too
        let bad = "module m { in a : 8; out y : 8; thread { y = ghost + 1; wait; } }";
        assert!(parse(bad).is_err());
    }

    #[test]
    fn bad_width_is_rejected() {
        for (src, what) in [
            ("module m { in a : 0; }", "zero width"),
            ("module m { in a : -4; }", "negative width"),
            ("module m { in a : 100000; }", "huge width"),
            ("module m { var v : 0; }", "zero var width"),
            // verified at 64 bits, these would be emitted at full width
            ("module m { in a : 65; }", "one bit beyond the value model"),
            ("module m { var v : 1024; }", "a 1024-bit variable"),
        ] {
            let err = parse(src).unwrap_err();
            let FrontendError::Parse { message, .. } = &err else {
                panic!("{what}: expected parse error, got {err:?}")
            };
            assert!(message.contains("bad width"), "{what}: {message}");
        }
        // non-numeric width is still a plain "expected number" error
        assert!(parse("module m { in a : wide; }").is_err());
        // boundary widths are accepted: the value model's 1..=64 bits
        assert!(parse("module m { in a : 1; }").is_ok());
        assert!(parse("module m { in a : 64; }").is_ok());
    }

    #[test]
    fn comments_and_negative_literals() {
        let src = "module m { in a : 8; out y : 8; var v : 8 = 0; thread { // comment\n v = 0 - 3; wait; y = v; } }";
        let b = parse(src).expect("parse");
        assert_eq!(b.vars[0].init, 0);
        assert_eq!(b.wait_count(), 1);
    }
}
