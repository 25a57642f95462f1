//! Diagnostics and the lint report, with a JSON serialization.
//!
//! The JSON is hand-rolled (the workspace has no serialization
//! dependency): a flat object with the module name, the clock, every
//! diagnostic and the timing summary. Numbers print with three
//! decimals so reports are byte-stable across runs.

use crate::config::{Lint, Severity};
use crate::sta::TimingSummary;
use hls_nir::CellId;
use std::fmt::Write as _;

/// One finding of the analyzer.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Which check fired.
    pub lint: Lint,
    /// Severity the finding reports at (after configuration overrides).
    pub severity: Severity,
    /// The cell the finding anchors to, when it concerns a single cell.
    pub cell: Option<CellId>,
    /// Display name of that cell, when it has one.
    pub name: Option<String>,
    /// Human-readable description.
    pub message: String,
}

/// Everything one [`crate::analyze`] call found.
#[derive(Clone, Debug, PartialEq)]
pub struct LintReport {
    /// Name of the analyzed module.
    pub module: String,
    /// Clock period the analysis ran against, picoseconds.
    pub clock_ps: f64,
    /// Findings, deny-level first.
    pub diagnostics: Vec<Diagnostic>,
    /// Static timing summary; absent when validation failed before timing
    /// could run.
    pub timing: Option<TimingSummary>,
}

impl LintReport {
    /// Whether any finding is deny-level (fails the synthesis run).
    pub fn has_deny(&self) -> bool {
        self.deny_count() > 0
    }

    /// Number of deny-level findings.
    pub fn deny_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
    }

    /// Number of warn-level findings.
    pub fn warn_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// Number of findings of one lint.
    pub fn count_of(&self, lint: Lint) -> usize {
        self.diagnostics.iter().filter(|d| d.lint == lint).count()
    }

    /// Per-lint finding counts, in [`Lint::ALL`] order — the shape the
    /// "optimize introduces no new diagnostics" property compares.
    pub fn counts(&self) -> [usize; Lint::ALL.len()] {
        let mut counts = [0usize; Lint::ALL.len()];
        for d in &self.diagnostics {
            let i = Lint::ALL.iter().position(|&l| l == d.lint).expect("in ALL");
            counts[i] += 1;
        }
        counts
    }

    /// Restores the canonical diagnostic order: deny first, then catalog
    /// order, then anchor cell — a stable order for reports and for the
    /// determinism property.
    pub fn sort_canonical(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| {
                    let pos = |l: Lint| Lint::ALL.iter().position(|&x| x == l).expect("in ALL");
                    pos(a.lint).cmp(&pos(b.lint))
                })
                .then(a.cell.cmp(&b.cell))
        });
    }

    /// Appends a finding produced outside [`crate::analyze`] (the `hls`
    /// facade uses this to surface flow-level findings such as
    /// [`Lint::RewriteRoundLimit`]) and restores the canonical order.
    /// Allow-level findings are dropped, matching the analyzer.
    pub fn push_sorted(&mut self, diagnostic: Diagnostic) {
        if diagnostic.severity == Severity::Allow {
            return;
        }
        self.diagnostics.push(diagnostic);
        self.sort_canonical();
    }

    /// Renders the report as human-readable text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "lint report for `{}` @ {:.0} ps: {} deny, {} warn",
            self.module,
            self.clock_ps,
            self.deny_count(),
            self.warn_count()
        );
        for d in &self.diagnostics {
            let at = match (&d.cell, &d.name) {
                (Some(c), Some(n)) => format!(" [{c} `{n}`]"),
                (Some(c), None) => format!(" [{c}]"),
                _ => String::new(),
            };
            let _ = writeln!(out, "  {}: {}{}: {}", d.severity, d.lint, at, d.message);
        }
        if let Some(t) = &self.timing {
            let _ = writeln!(
                out,
                "  timing: wns {:.1} ps, tns {:.1} ps over {} endpoint(s)",
                t.wns_ps,
                t.tns_ps,
                t.endpoints.len()
            );
            for s in &t.critical_path {
                let _ = writeln!(
                    out,
                    "    {:>8.1} ps  +{:>6.1}  {} {} (w{}, fanin {})",
                    s.arrival_ps, s.incr_ps, s.kind, s.name, s.width, s.fanin
                );
            }
        }
        out
    }

    /// Serializes the report to JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"module\": \"{}\",", esc(&self.module));
        let _ = writeln!(out, "  \"clock_ps\": {},", num(self.clock_ps));
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"lint\": \"{}\", \"severity\": \"{}\", ",
                d.lint, d.severity
            );
            match d.cell {
                Some(c) => {
                    let _ = write!(out, "\"cell\": {}, ", c.index());
                }
                None => out.push_str("\"cell\": null, "),
            }
            match &d.name {
                Some(n) => {
                    let _ = write!(out, "\"name\": \"{}\", ", esc(n));
                }
                None => out.push_str("\"name\": null, "),
            }
            let _ = write!(out, "\"message\": \"{}\"}}", esc(&d.message));
        }
        out.push_str(if self.diagnostics.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        match &self.timing {
            None => out.push_str("  \"timing\": null\n"),
            Some(t) => {
                out.push_str("  \"timing\": {\n");
                let _ = writeln!(out, "    \"wns_ps\": {},", num(t.wns_ps));
                let _ = writeln!(out, "    \"tns_ps\": {},", num(t.tns_ps));
                let _ = writeln!(out, "    \"endpoints\": {},", t.endpoints.len());
                out.push_str("    \"critical_path\": [");
                for (i, s) in t.critical_path.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    let _ = write!(
                        out,
                        "      {{\"cell\": {}, \"name\": \"{}\", \"kind\": \"{}\", \
                         \"width\": {}, \"fanin\": {}, \"incr_ps\": {}, \"arrival_ps\": {}}}",
                        s.cell.index(),
                        esc(&s.name),
                        s.kind,
                        s.width,
                        s.fanin,
                        num(s.incr_ps),
                        num(s.arrival_ps)
                    );
                }
                out.push_str(if t.critical_path.is_empty() {
                    "]\n"
                } else {
                    "\n    ]\n"
                });
                out.push_str("  }\n");
            }
        }
        out.push('}');
        out
    }
}

/// Escapes a string for a JSON literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a float as a JSON number with three stable decimals. JSON has
/// no infinities, so a positive infinity prints as `f64::MAX` and any other
/// non-finite value as `f64::MIN`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        // JSON has no infinities; clamp to a sentinel.
        format!("{:.3}", if v > 0.0 { f64::MAX } else { f64::MIN })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> LintReport {
        LintReport {
            module: "demo \"loop\"".into(),
            clock_ps: 1600.0,
            diagnostics: vec![
                Diagnostic {
                    lint: Lint::DuplicateNetName,
                    severity: Severity::Deny,
                    cell: Some(CellId::from_raw(7)),
                    name: Some("a\nb".into()),
                    message: "collides".into(),
                },
                Diagnostic {
                    lint: Lint::DeadRegister,
                    severity: Severity::Warn,
                    cell: None,
                    name: None,
                    message: "unused".into(),
                },
            ],
            timing: None,
        }
    }

    #[test]
    fn counts_and_gating() {
        let r = report();
        assert!(r.has_deny());
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.warn_count(), 1);
        assert_eq!(r.count_of(Lint::DeadRegister), 1);
        assert_eq!(r.count_of(Lint::SetupViolation), 0);
        let counts = r.counts();
        assert_eq!(counts.iter().sum::<usize>(), 2);
    }

    #[test]
    fn json_escapes_and_shapes() {
        let j = report().to_json();
        assert!(j.contains("\"module\": \"demo \\\"loop\\\"\""));
        assert!(j.contains("\"a\\nb\""));
        assert!(j.contains("\"lint\": \"duplicate-net-name\""));
        assert!(j.contains("\"severity\": \"deny\""));
        assert!(j.contains("\"cell\": 7"));
        assert!(j.contains("\"cell\": null"));
        assert!(j.contains("\"timing\": null"));
        assert!(j.contains("\"clock_ps\": 1600.000"));
        // balanced braces/brackets (cheap well-formedness proxy)
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn push_sorted_keeps_canonical_order_and_drops_allow() {
        let mut r = report();
        r.push_sorted(Diagnostic {
            lint: Lint::RewriteRoundLimit,
            severity: Severity::Warn,
            cell: None,
            name: None,
            message: "budget spent".into(),
        });
        // deny first, then catalog order: dead-register before
        // rewrite-round-limit
        let lints: Vec<Lint> = r.diagnostics.iter().map(|d| d.lint).collect();
        assert_eq!(
            lints,
            vec![
                Lint::DuplicateNetName,
                Lint::DeadRegister,
                Lint::RewriteRoundLimit
            ]
        );
        let before = r.clone();
        r.push_sorted(Diagnostic {
            lint: Lint::WidthTruncation,
            severity: Severity::Allow,
            cell: None,
            name: None,
            message: "suppressed".into(),
        });
        assert_eq!(r, before, "allow-level findings are dropped");
    }

    #[test]
    fn render_mentions_every_finding() {
        let text = report().render();
        assert!(text.contains("1 deny, 1 warn"));
        assert!(text.contains("deny: duplicate-net-name"));
        assert!(text.contains("warn: dead-register"));
    }
}
