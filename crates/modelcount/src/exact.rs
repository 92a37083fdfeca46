//! Exact projected model counting.
//!
//! This plays the role ProjMC plays in the MCML paper: given a CNF formula
//! and a projection (independent-support) variable set, compute the exact
//! number of assignments to the projection variables that can be extended to
//! a model of the formula.
//!
//! [`ExactCounter`] runs the workspace's one projected #SAT search, the
//! [`satkit::ddnnf::Compiler`] (unit propagation, component decomposition
//! and caching, branching on projection variables only), and counts the
//! circuit that search records. The circuit is dropped after the count; a
//! caller that queries one formula many times keeps it instead, through
//! `mcml::counter::CompiledCounter`.
//!
//! Counts are exact `u128` values. Projection sets are limited to 127
//! variables ([`satkit::ddnnf::MAX_PROJECTION_VARS`]; the reproduction's
//! scopes go up to 11 atoms = 121 variables); a larger set fails with
//! [`CompileError::TooManyProjectionVars`] rather than a saturated count.

use satkit::cnf::Cnf;
use satkit::ddnnf::{CompileError, CompileStats, Compiler};

/// Exact projected model counter.
#[derive(Debug, Clone, Default)]
pub struct ExactCounter {
    compiler: Compiler,
}

impl ExactCounter {
    /// A counter with no budget.
    pub fn new() -> Self {
        ExactCounter::default()
    }

    /// A counter that gives up after `max_nodes` branching decisions.
    pub fn with_node_budget(max_nodes: u64) -> Self {
        ExactCounter {
            compiler: Compiler::with_decision_budget(max_nodes),
        }
    }

    /// Counts the formula's models projected onto its effective projection
    /// set. Returns `None` if the search gives up.
    pub fn count(&self, cnf: &Cnf) -> Option<u128> {
        self.try_count(cnf).ok().map(|(count, _)| count)
    }

    /// Counts and reports the search statistics, or says why the search
    /// gave up.
    pub fn try_count(&self, cnf: &Cnf) -> Result<(u128, CompileStats), CompileError> {
        let circuit = self.compiler.compile(cnf)?;
        Ok((circuit.count(), circuit.stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_count;
    use satkit::cnf::{Cnf, Lit, Var};

    fn count(cnf: &Cnf) -> u128 {
        ExactCounter::new().count(cnf).expect("no budget set")
    }

    #[test]
    fn empty_formula_counts_all_assignments() {
        let cnf = Cnf::new(5);
        assert_eq!(count(&cnf), 32);
    }

    #[test]
    fn single_clause() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        // 3 models of the clause times 2 for the free variable.
        assert_eq!(count(&cnf), 6);
    }

    #[test]
    fn unit_then_freed_variable() {
        // [x0] and [x0 | x1]: propagation fixes x0 and frees x1 -> count 2.
        let mut cnf = Cnf::new(2);
        cnf.add_clause(vec![Lit::pos(0)]);
        cnf.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        assert_eq!(count(&cnf), 2);
    }

    #[test]
    fn unsat_counts_zero() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause(vec![Lit::pos(0)]);
        cnf.add_clause(vec![Lit::neg(0)]);
        assert_eq!(count(&cnf), 0);
    }

    #[test]
    fn projected_count_ignores_auxiliary_vars() {
        // x2 <-> (x0 & x1), projection {x0, x1}: all 4 assignments extend.
        let mut cnf = Cnf::new(3);
        cnf.add_clause(vec![Lit::neg(2), Lit::pos(0)]);
        cnf.add_clause(vec![Lit::neg(2), Lit::pos(1)]);
        cnf.add_clause(vec![Lit::pos(2), Lit::neg(0), Lit::neg(1)]);
        cnf.set_projection(vec![Var(0), Var(1)]);
        assert_eq!(count(&cnf), 4);
    }

    #[test]
    fn projected_count_with_assertion() {
        // Same defining clauses but assert x2: only (1,1) remains.
        let mut cnf = Cnf::new(3);
        cnf.add_clause(vec![Lit::neg(2), Lit::pos(0)]);
        cnf.add_clause(vec![Lit::neg(2), Lit::pos(1)]);
        cnf.add_clause(vec![Lit::pos(2), Lit::neg(0), Lit::neg(1)]);
        cnf.add_clause(vec![Lit::pos(2)]);
        cnf.set_projection(vec![Var(0), Var(1)]);
        assert_eq!(count(&cnf), 1);
    }

    #[test]
    fn component_decomposition_multiplies() {
        // Two independent constraints: (x0 | x1) and (x2 | x3): 3 * 3 = 9.
        let mut cnf = Cnf::new(4);
        cnf.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        cnf.add_clause(vec![Lit::pos(2), Lit::pos(3)]);
        assert_eq!(count(&cnf), 9);
    }

    #[test]
    fn agrees_with_brute_force_on_random_cnfs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        for round in 0..60 {
            let n = rng.gen_range(3..=9usize);
            let m = rng.gen_range(1..=20usize);
            let mut cnf = Cnf::new(n);
            for _ in 0..m {
                let len = rng.gen_range(1..=3usize);
                let mut c = Vec::new();
                for _ in 0..len {
                    let v = rng.gen_range(0..n) as u32;
                    c.push(if rng.gen_bool(0.5) {
                        Lit::pos(v)
                    } else {
                        Lit::neg(v)
                    });
                }
                cnf.add_clause(c);
            }
            assert_eq!(
                count(&cnf),
                brute_force_count(&cnf),
                "round {round}, cnf {cnf}"
            );
        }
    }

    #[test]
    fn agrees_with_brute_force_on_projected_random_cnfs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(29);
        for round in 0..50 {
            let n = rng.gen_range(4..=9usize);
            let proj_size = rng.gen_range(2..=n);
            let m = rng.gen_range(1..=18usize);
            let mut cnf = Cnf::new(n);
            for _ in 0..m {
                let len = rng.gen_range(1..=3usize);
                let mut c = Vec::new();
                for _ in 0..len {
                    let v = rng.gen_range(0..n) as u32;
                    c.push(if rng.gen_bool(0.5) {
                        Lit::pos(v)
                    } else {
                        Lit::neg(v)
                    });
                }
                cnf.add_clause(c);
            }
            cnf.set_projection((0..proj_size as u32).map(Var).collect());
            assert_eq!(
                count(&cnf),
                brute_force_count(&cnf),
                "round {round}, projection {proj_size}, cnf {cnf}"
            );
        }
    }

    #[test]
    fn node_budget_aborts() {
        // A formula with a large search space and a tiny budget.
        let mut cnf = Cnf::new(20);
        for i in 0..19u32 {
            cnf.add_clause(vec![Lit::pos(i), Lit::pos(i + 1)]);
        }
        let counter = ExactCounter::with_node_budget(3);
        assert_eq!(counter.count(&cnf), None);
    }

    #[test]
    fn property_counts_scope3_match_closed_forms() {
        use relspec::properties::Property;
        use relspec::translate::{translate_to_cnf, TranslateOptions};
        let expected = [
            (Property::Reflexive, 64u128),
            (Property::Irreflexive, 64),
            (Property::Function, 27),
            (Property::Equivalence, 5),
            (Property::TotalOrder, 6),
            (Property::Transitive, 171),
        ];
        for (p, want) in expected {
            let gt = translate_to_cnf(&p.spec(), TranslateOptions::new(3));
            let got = count(&gt.cnf_positive());
            assert_eq!(got, want, "property {p}");
            // Complement check: |space| - positives.
            let got_neg = count(&gt.cnf_negative());
            assert_eq!(got_neg, 512 - want, "negated property {p}");
        }
    }

    #[test]
    fn stats_report_activity() {
        let mut cnf = Cnf::new(4);
        cnf.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        cnf.add_clause(vec![Lit::pos(2), Lit::pos(3)]);
        let (c, stats) = ExactCounter::new().try_count(&cnf).unwrap();
        assert_eq!(c, 9);
        assert!(stats.decisions > 0);
    }
}
