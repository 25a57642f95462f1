//! The Verilog identifier of every port and declared cell of a module.
//!
//! [`NetNames`] is the one place that decides how a netlist's nets print:
//! the Verilog printer in `hls-netlist` writes the identifiers it resolves,
//! and the `duplicate-net-name` lint in `hls-lint` reports the names it
//! drops, so the lint names exactly what the printer renames.
//!
//! Ports and the controller's fixed nets ([`RESERVED_IDENTIFIERS`]) claim
//! their identifiers first ([`crate::validate`] refuses ports that clash).
//! Declared cells ([`CellKind::is_declared`]) then claim theirs in id
//! order: a named cell keeps its [`sanitize`]d name unless Verilog reserves
//! it as a keyword or a reserved identifier, a port, an earlier cell's name
//! or an earlier cell's fallback holds it. A cell that is unnamed or loses
//! its name prints under the fallback `n<id>`, or `n<id>_<k>` with the
//! first free `k` when a port or an earlier cell's name holds that.
//!
//! No keyword or reserved identifier has the fallback's shape, and two
//! cells' fallbacks never coincide, so a fallback competes only with
//! names of that shape. The resolver keeps fallbacks as numbers, not
//! strings, and for an unnamed cell looks nothing up unless some port or
//! name has the fallback's shape; a name that [`sanitize`] keeps is
//! borrowed, not copied.

use crate::model::{is_verilog_keyword, sanitize, CellId, NirModule, RESERVED_IDENTIFIERS};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// `name`'s Verilog identifier, borrowed when [`sanitize`] would not change
/// it.
pub fn identifier(name: &str) -> Cow<'_, str> {
    let plain = name.bytes().next().is_some_and(|b| !b.is_ascii_digit())
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_');
    if plain {
        Cow::Borrowed(name)
    } else {
        Cow::Owned(sanitize(name))
    }
}

/// The printed identifier of a port or a declared cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ident<'a> {
    /// A port's or a cell's sanitized name.
    Name(&'a str),
    /// A cell's fallback: `n<cell>` when `k` is 0, `n<cell>_<k>` otherwise.
    Fallback {
        /// The cell's id.
        cell: u32,
        /// The suffix; 0 for none.
        k: u32,
    },
}

impl fmt::Display for Ident<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Ident::Name(name) => f.write_str(name),
            Ident::Fallback { cell, k: 0 } => write!(f, "n{cell}"),
            Ident::Fallback { cell, k } => write!(f, "n{cell}_{k}"),
        }
    }
}

/// What holds the identifier a named cell's name sanitizes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NameHolder {
    /// Verilog-2005 reserves it as a keyword.
    Keyword,
    /// The controller declares it (one of [`RESERVED_IDENTIFIERS`]).
    Reserved(&'static str),
    /// The port of this index prints as it.
    Port(u32),
    /// This earlier cell prints under it as its name.
    Cell(CellId),
    /// This earlier cell prints under it as its fallback.
    Fallback(CellId),
}

/// A named declared cell that prints under its fallback instead of its
/// name, and what holds the name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DroppedName {
    /// The cell.
    pub cell: CellId,
    /// What holds the identifier its name sanitizes to.
    pub holder: NameHolder,
}

/// How one cell prints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// Not declared: referenced inline.
    Inline,
    /// Under its name, which [`sanitize`] keeps.
    Name,
    /// Under `sanitized[i]`.
    Sanitized(u32),
    /// Under its fallback with this suffix.
    Fallback(u32),
}

/// An identifier as the resolver compares it: a fallback's text and a name
/// of the same text are the same key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Key<'a> {
    Text(&'a str),
    /// The text `n<id>` (`k == 0`) or `n<id>_<k>`.
    Fallback(u32, u32),
}

impl<'a> Key<'a> {
    fn of(ident: &'a str) -> Self {
        fallback_shape(ident).map_or(Key::Text(ident), |(id, k)| Key::Fallback(id, k))
    }
}

/// `(id, k)` when `ident` is the text of the fallback of cell `id` with
/// suffix `k`: `n<id>` for `k == 0`, `n<id>_<k>` for `k >= 1`.
fn fallback_shape(ident: &str) -> Option<(u32, u32)> {
    let rest = ident.strip_prefix('n')?;
    match rest.split_once('_') {
        None => Some((decimal(rest)?, 0)),
        Some((id, k)) => Some((decimal(id)?, decimal(k).filter(|&k| k >= 1)?)),
    }
}

/// The value of `s` when it is a decimal numeral as `u32`'s `Display`
/// writes it: digits only, no leading zero.
fn decimal(s: &str) -> Option<u32> {
    let canonical = s.bytes().all(|b| b.is_ascii_digit()) && (s == "0" || !s.starts_with('0'));
    if canonical {
        s.parse().ok()
    } else {
        None
    }
}

/// The identifiers claimed so far and what holds each, fallbacks aside: a
/// fallback is read from its cell's slot.
struct Claims<'k> {
    held: HashMap<Key<'k>, NameHolder>,
    /// How many held keys have the fallback's shape.
    shaped: usize,
}

impl<'k> Claims<'k> {
    /// Claims `key` for `holder`, or returns what already holds it.
    fn claim(&mut self, key: Key<'k>, holder: NameHolder) -> Option<NameHolder> {
        match self.held.entry(key) {
            Entry::Occupied(o) => Some(*o.get()),
            Entry::Vacant(v) => {
                v.insert(holder);
                self.shaped += usize::from(matches!(key, Key::Fallback(..)));
                None
            }
        }
    }

    /// The first suffix of cell `c`'s fallback that no claimed name holds.
    fn free_suffix(&self, c: usize) -> u32 {
        if self.shaped == 0 {
            return 0;
        }
        (0..)
            .find(|&k| !self.held.contains_key(&Key::Fallback(c as u32, k)))
            .expect("a cell has a free fallback")
    }
}

/// Settles every declared cell's slot of `m` in id order and returns the
/// named cells that lose their name. `ports` are the ports' identifiers,
/// `sanitized` the identifiers `Slot::Sanitized` indexes, and `named`
/// counts the named declared cells.
fn resolve(
    m: &NirModule,
    ports: &[Cow<'_, str>],
    slots: &mut [Slot],
    sanitized: &[String],
    named: usize,
) -> Vec<DroppedName> {
    let mut claims = Claims {
        held: HashMap::with_capacity(RESERVED_IDENTIFIERS.len() + ports.len() + named),
        shaped: 0,
    };
    for r in RESERVED_IDENTIFIERS {
        claims.claim(Key::Text(r), NameHolder::Reserved(r));
    }
    for (p, ident) in ports.iter().enumerate() {
        claims.claim(Key::of(ident), NameHolder::Port(p as u32));
    }
    let mut dropped = Vec::new();
    for c in 0..slots.len() {
        let ident = match slots[c] {
            Slot::Inline => continue,
            Slot::Fallback(_) => {
                slots[c] = Slot::Fallback(claims.free_suffix(c));
                continue;
            }
            Slot::Name => m.cells[c].name.as_deref().expect("a named slot has a name"),
            Slot::Sanitized(i) => sanitized[i as usize].as_str(),
        };
        let cell = CellId::from_raw(c as u32);
        let holder = match Key::of(ident) {
            _ if is_verilog_keyword(ident) => Some(NameHolder::Keyword),
            Key::Fallback(owner, k)
                if (owner as usize) < c && slots[owner as usize] == Slot::Fallback(k) =>
            {
                Some(NameHolder::Fallback(CellId::from_raw(owner)))
            }
            key => claims.claim(key, NameHolder::Cell(cell)),
        };
        if let Some(holder) = holder {
            dropped.push(DroppedName { cell, holder });
            slots[c] = Slot::Fallback(claims.free_suffix(c));
        }
    }
    dropped
}

/// The printed identifier of every port and declared cell of a module, and
/// the named cells that lose their name (see the [module docs](self)).
#[derive(Clone, Debug)]
pub struct NetNames<'a> {
    m: &'a NirModule,
    ports: Vec<Cow<'a, str>>,
    slots: Vec<Slot>,
    /// The identifiers of the declared cells' names that [`sanitize`]
    /// changes, in id order.
    sanitized: Vec<String>,
    dropped: Vec<DroppedName>,
}

impl<'a> NetNames<'a> {
    /// Resolves every identifier of `m`.
    pub fn new(m: &'a NirModule) -> Self {
        let ports: Vec<Cow<'a, str>> = m.ports.iter().map(|p| identifier(&p.name)).collect();
        let mut sanitized = Vec::new();
        let mut named = 0;
        // An unnamed declared cell starts as `Fallback(0)` and a named one
        // as its name; the second walk settles both.
        let mut slots: Vec<Slot> = m
            .cells
            .iter()
            .map(|cell| match (&cell.name, cell.kind.is_declared()) {
                (_, false) => Slot::Inline,
                (None, true) => Slot::Fallback(0),
                (Some(name), true) => {
                    named += 1;
                    match identifier(name) {
                        Cow::Borrowed(_) => Slot::Name,
                        Cow::Owned(ident) => {
                            sanitized.push(ident);
                            Slot::Sanitized(sanitized.len() as u32 - 1)
                        }
                    }
                }
            })
            .collect();
        let dropped = resolve(m, &ports, &mut slots, &sanitized, named);
        NetNames {
            m,
            ports,
            slots,
            sanitized,
            dropped,
        }
    }

    /// The identifier port `port` prints as.
    pub fn port(&self, port: usize) -> &str {
        &self.ports[port]
    }

    /// The identifier cell `id` prints as; `None` for a cell referenced
    /// inline (constants, port reads, controller bits, port writes).
    pub fn cell(&self, id: CellId) -> Option<Ident<'_>> {
        let c = id.index();
        match self.slots[c] {
            Slot::Inline => None,
            Slot::Name => self.m.cells[c].name.as_deref().map(Ident::Name),
            Slot::Sanitized(i) => Some(Ident::Name(&self.sanitized[i as usize])),
            Slot::Fallback(k) => Some(Ident::Fallback { cell: c as u32, k }),
        }
    }

    /// The named declared cells that print under their fallback, in id
    /// order.
    pub fn dropped(&self) -> &[DroppedName] {
        &self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BinKind, Cell, CellKind};
    use hls_ir::{Port, PortDirection};

    fn port(m: &mut NirModule, name: &str) {
        m.ports.push(Port {
            name: name.into(),
            direction: PortDirection::Input,
            width: 8,
        });
    }

    /// Appends a declared 8-bit resize of cell 0, named `name` if given.
    fn declared(m: &mut NirModule, name: Option<&str>) -> CellId {
        m.add_cell(Cell {
            kind: CellKind::Resize,
            width: 8,
            inputs: vec![CellId::from_raw(0)],
            name: name.map(String::from),
        })
    }

    fn printed(names: &NetNames<'_>, id: CellId) -> String {
        names.cell(id).expect("declared").to_string()
    }

    #[test]
    fn only_fallback_texts_parse_as_fallbacks() {
        assert_eq!(fallback_shape("n0"), Some((0, 0)));
        assert_eq!(fallback_shape("n12"), Some((12, 0)));
        assert_eq!(fallback_shape("n12_3"), Some((12, 3)));
        for text in [
            "n", "n_1", "n01", "n1_0", "n1_01", "n1_2_3", "n+1", "m1", "n1x",
        ] {
            assert_eq!(fallback_shape(text), None, "{text}");
        }
        // past `u32`: no cell has such an id
        assert_eq!(fallback_shape("n4294967296"), None);
    }

    #[test]
    fn names_are_borrowed_sanitized_or_replaced_by_fallbacks() {
        let mut m = NirModule::new("t");
        port(&mut m, "in.x");
        let c = m.push(CellKind::Const(1), 8, vec![]);
        let plain = declared(&mut m, Some("w_sum"));
        let dotted = declared(&mut m, Some("a.b"));
        let unnamed = declared(&mut m, None);
        let names = NetNames::new(&m);
        assert_eq!(names.port(0), "in_x");
        assert_eq!(names.cell(c), None);
        assert_eq!(names.cell(plain), Some(Ident::Name("w_sum")));
        assert_eq!(names.cell(dotted), Some(Ident::Name("a_b")));
        assert_eq!(names.cell(unnamed), Some(Ident::Fallback { cell: 3, k: 0 }));
        assert!(names.dropped().is_empty());
    }

    #[test]
    fn every_holder_is_named() {
        let mut m = NirModule::new("t");
        port(&mut m, "x");
        m.push(CellKind::Const(1), 8, vec![]);
        let first = declared(&mut m, Some("a.b"));
        let twin = declared(&mut m, Some("a-b"));
        let reserved = declared(&mut m, Some("state"));
        let keyword = declared(&mut m, Some("wire"));
        let on_port = declared(&mut m, Some("x"));
        let names = NetNames::new(&m);
        let holders: Vec<_> = names.dropped().iter().map(|d| (d.cell, d.holder)).collect();
        assert_eq!(
            holders,
            [
                (twin, NameHolder::Cell(first)),
                (reserved, NameHolder::Reserved("state")),
                (keyword, NameHolder::Keyword),
                (on_port, NameHolder::Port(0)),
            ]
        );
        assert_eq!(printed(&names, twin), "n2");
        assert_eq!(printed(&names, keyword), "n4");
    }

    #[test]
    fn a_name_taken_by_an_earlier_fallback_is_dropped() {
        // cell 1 prints as `n1`, so the adder named `n1` cannot
        let mut m = NirModule::new("t");
        port(&mut m, "x");
        let x = m.push(CellKind::Input { port: 0, state: 0 }, 8, vec![]);
        let unnamed = m.push(CellKind::Bin(BinKind::Add), 8, vec![x, x]);
        let late = m.add_cell(Cell {
            kind: CellKind::Bin(BinKind::Add),
            width: 8,
            inputs: vec![unnamed, x],
            name: Some("n1".into()),
        });
        let names = NetNames::new(&m);
        assert_eq!(printed(&names, unnamed), "n1");
        assert_eq!(printed(&names, late), "n2");
        assert_eq!(
            names.dropped(),
            [DroppedName {
                cell: late,
                holder: NameHolder::Fallback(unnamed),
            }]
        );
    }

    #[test]
    fn a_fallback_skips_ports_and_earlier_names_of_its_shape() {
        let mut m = NirModule::new("t");
        port(&mut m, "n3");
        m.push(CellKind::Const(1), 8, vec![]);
        let named = declared(&mut m, Some("n3_1"));
        let own = declared(&mut m, Some("n2"));
        let unnamed = declared(&mut m, None);
        let names = NetNames::new(&m);
        assert_eq!(printed(&names, named), "n3_1");
        // a cell may print under its own fallback's text as its name
        assert_eq!(printed(&names, own), "n2");
        assert_eq!(printed(&names, unnamed), "n3_2");
        assert!(names.dropped().is_empty());
    }

    #[test]
    fn identifiers_borrow_plain_names() {
        assert!(matches!(identifier("w_1_mul"), Cow::Borrowed("w_1_mul")));
        assert_eq!(identifier("3x"), "m3x");
        assert_eq!(identifier(""), "m");
        assert_eq!(identifier("a.b"), "a_b");
    }
}
