//! Execution predicates produced by predicate conversion (if-conversion).
//!
//! The paper's branch predication transformation (Figure 4) replaces fork/join
//! regions in the CFG by a straight-line segment with *predicates enabling
//! operations*. A [`Predicate`] is a small boolean expression over condition
//! operations (1-bit DFG values). Two predicated operations are **mutually
//! exclusive** when their predicates can never be true simultaneously; the
//! scheduler exploits this when computing resource lower bounds and when
//! sharing resources inside one control step.

use crate::ids::OpId;
use std::collections::BTreeMap;
use std::fmt;

/// A guard expression over 1-bit condition values.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// Always executes.
    #[default]
    True,
    /// Executes when the condition op evaluates to 1.
    Cond(OpId),
    /// Executes when the condition op evaluates to 0.
    NotCond(OpId),
    /// Conjunction of sub-predicates (nested if-conversion).
    And(Vec<Predicate>),
}

impl Predicate {
    /// Builds the conjunction of two predicates, flattening nested `And`s and
    /// simplifying `True` away.
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (Predicate::And(mut a), Predicate::And(b)) => {
                a.extend(b);
                Predicate::And(a)
            }
            (Predicate::And(mut a), p) => {
                a.push(p);
                Predicate::And(a)
            }
            (p, Predicate::And(mut b)) => {
                b.insert(0, p);
                Predicate::And(b)
            }
            (a, b) => Predicate::And(vec![a, b]),
        }
    }

    /// Returns `true` if the predicate is the constant `True`.
    pub fn is_true(&self) -> bool {
        matches!(self, Predicate::True)
    }

    /// Collects the literals of the predicate as `(condition op, polarity)`
    /// pairs. A polarity of `true` means the condition must be 1.
    ///
    /// If the same condition appears with both polarities the predicate is
    /// unsatisfiable; [`Predicate::is_satisfiable`] reports this.
    pub fn literals(&self) -> BTreeMap<OpId, Vec<bool>> {
        let mut out: BTreeMap<OpId, Vec<bool>> = BTreeMap::new();
        self.collect_literals(&mut out);
        out
    }

    fn collect_literals(&self, out: &mut BTreeMap<OpId, Vec<bool>>) {
        match self {
            Predicate::True => {}
            Predicate::Cond(c) => out.entry(*c).or_default().push(true),
            Predicate::NotCond(c) => out.entry(*c).or_default().push(false),
            Predicate::And(ps) => {
                for p in ps {
                    p.collect_literals(out);
                }
            }
        }
    }

    /// Returns `false` if the predicate contains contradictory literals
    /// (e.g. `c && !c`), which means the guarded operation can never execute.
    pub fn is_satisfiable(&self) -> bool {
        self.literals()
            .values()
            .all(|pols| !(pols.contains(&true) && pols.contains(&false)))
    }

    /// Conservatively decides whether two predicates are **mutually
    /// exclusive**: they are if some condition op appears with opposite
    /// polarities in the two predicates. Returning `false` only means "may
    /// overlap".
    ///
    /// This is the mutual-exclusivity test the paper's resource lower bound
    /// uses to avoid over-counting operations coming from the two branches of
    /// a converted `if` (Section IV.A).
    pub fn mutually_exclusive(&self, other: &Predicate) -> bool {
        if self.is_true() || other.is_true() {
            return false;
        }
        let a = self.literals();
        let b = other.literals();
        for (cond, pols_a) in &a {
            if let Some(pols_b) = b.get(cond) {
                let a_true = pols_a.contains(&true);
                let a_false = pols_a.contains(&false);
                let b_true = pols_b.contains(&true);
                let b_false = pols_b.contains(&false);
                if (a_true && b_false && !a_false && !b_true)
                    || (a_false && b_true && !a_true && !b_false)
                {
                    return true;
                }
            }
        }
        false
    }

    /// Evaluates the predicate, reading each condition's truth value from
    /// `cond`.
    pub fn eval(&self, cond: &impl Fn(OpId) -> bool) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Cond(c) => cond(*c),
            Predicate::NotCond(c) => !cond(*c),
            Predicate::And(ps) => ps.iter().all(|p| p.eval(cond)),
        }
    }

    /// Condition operations referenced by the predicate.
    pub fn condition_ops(&self) -> Vec<OpId> {
        self.literals().keys().copied().collect()
    }

    /// Redirects every literal over condition `from` to condition `to`,
    /// preserving polarity. Used when an optimization pass merges two
    /// structurally identical condition operations.
    pub fn replace_cond(&mut self, from: OpId, to: OpId) {
        match self {
            Predicate::True => {}
            Predicate::Cond(c) | Predicate::NotCond(c) => {
                if *c == from {
                    *c = to;
                }
            }
            Predicate::And(ps) => {
                for p in ps {
                    p.replace_cond(from, to);
                }
            }
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "1"),
            Predicate::Cond(c) => write!(f, "{c}"),
            Predicate::NotCond(c) => write!(f, "!{c}"),
            Predicate::And(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| p.to_string()).collect();
                write!(f, "({})", parts.join(" & "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> OpId {
        OpId::from_raw(i)
    }

    #[test]
    fn and_simplifies_true() {
        let p = Predicate::True.and(Predicate::Cond(c(0)));
        assert_eq!(p, Predicate::Cond(c(0)));
        let q = Predicate::Cond(c(0)).and(Predicate::True);
        assert_eq!(q, Predicate::Cond(c(0)));
    }

    #[test]
    fn and_flattens() {
        let p = Predicate::Cond(c(0))
            .and(Predicate::NotCond(c(1)))
            .and(Predicate::Cond(c(2)));
        match p {
            Predicate::And(v) => assert_eq!(v.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
    }

    #[test]
    fn mutual_exclusion_of_branch_arms() {
        let then_arm = Predicate::Cond(c(5));
        let else_arm = Predicate::NotCond(c(5));
        assert!(then_arm.mutually_exclusive(&else_arm));
        assert!(else_arm.mutually_exclusive(&then_arm));
        assert!(!then_arm.mutually_exclusive(&then_arm));
        assert!(!then_arm.mutually_exclusive(&Predicate::True));
    }

    #[test]
    fn nested_predicates_mutual_exclusion() {
        // if (a) { if (b) X else Y }
        let x = Predicate::Cond(c(0)).and(Predicate::Cond(c(1)));
        let y = Predicate::Cond(c(0)).and(Predicate::NotCond(c(1)));
        assert!(x.mutually_exclusive(&y));
        // X is not exclusive with the outer branch predicate itself.
        assert!(!x.mutually_exclusive(&Predicate::Cond(c(0))));
    }

    #[test]
    fn satisfiability() {
        let contradiction = Predicate::Cond(c(0)).and(Predicate::NotCond(c(0)));
        assert!(!contradiction.is_satisfiable());
        assert!(Predicate::True.is_satisfiable());
        assert!(Predicate::Cond(c(0)).is_satisfiable());
    }

    #[test]
    fn eval_under_assignment() {
        let asg = |op: OpId| op == c(0);
        assert!(Predicate::Cond(c(0)).eval(&asg));
        assert!(!Predicate::Cond(c(1)).eval(&asg));
        assert!(Predicate::NotCond(c(1)).eval(&asg));
        let both = Predicate::Cond(c(0)).and(Predicate::NotCond(c(1)));
        assert!(both.eval(&asg));
    }

    #[test]
    fn display_is_readable() {
        let p = Predicate::Cond(c(0)).and(Predicate::NotCond(c(1)));
        assert_eq!(p.to_string(), "(op0 & !op1)");
        assert_eq!(Predicate::True.to_string(), "1");
    }

    #[test]
    fn condition_ops_are_sorted_unique() {
        let p = Predicate::Cond(c(3))
            .and(Predicate::NotCond(c(1)))
            .and(Predicate::Cond(c(3)));
        assert_eq!(p.condition_ops(), vec![c(1), c(3)]);
    }
}
