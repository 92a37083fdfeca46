//! Bounded translation of relational formulas to propositional logic.
//!
//! This reproduces the role of the Alloy analyzer (Kodkod): given a formula
//! over the relation `r: S -> S` and a scope `n`, produce a propositional
//! formula over the `n * n` *primary* variables (one per adjacency-matrix
//! entry, indexed row-major as `i * n + j`) that holds exactly for the
//! instances satisfying the formula. The propositional formula is then
//! converted to CNF by the Tseitin encoder in `satkit`, with the primary
//! variables registered as the projection set so that projected model counts
//! equal the number of satisfying instances.
//!
//! Relational expressions translate to matrices of propositional formulas;
//! quantifiers expand into finite conjunctions/disjunctions over the atoms;
//! transitive closure is translated by iterated squaring.

use crate::ast::{Expr, Formula, QuantVar};
use crate::symmetry::{symmetry_breaking_expr, SymmetryBreaking};
use satkit::cnf::{Cnf, Lit};
use satkit::expr::{BoolExpr, TseitinEncoder};
use std::rc::Rc;

/// Options controlling the bounded translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslateOptions {
    /// The scope: number of atoms in the universe `S`.
    pub scope: usize,
    /// The symmetry-breaking setting whose predicates are conjoined to the
    /// translated formula.
    pub symmetry: SymmetryBreaking,
}

impl TranslateOptions {
    /// Options for the given scope with no symmetry breaking.
    pub fn new(scope: usize) -> Self {
        TranslateOptions {
            scope,
            symmetry: SymmetryBreaking::None,
        }
    }

    /// Sets the symmetry-breaking level.
    pub fn with_symmetry(mut self, sb: SymmetryBreaking) -> Self {
        self.symmetry = sb;
        self
    }
}

/// The result of translating a property at a bounded scope: CNF defining
/// clauses plus a root literal that is equivalent to the property.
///
/// The symmetry-breaking predicates (if any) are asserted unconditionally;
/// the property itself is only *defined* (via `property_root`), so callers
/// can assert either the property or its negation — exactly what the MCML
/// false-positive / true-negative metrics need.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    scope: usize,
    cnf: Cnf,
    property_root: Lit,
    symmetry: SymmetryBreaking,
    positive: Cnf,
    negative: Cnf,
    space: Cnf,
}

impl GroundTruth {
    /// The scope (number of atoms).
    pub fn scope(&self) -> usize {
        self.scope
    }

    /// Number of primary variables (`scope * scope`).
    pub fn num_primary(&self) -> usize {
        self.scope * self.scope
    }

    /// The symmetry-breaking setting baked into the formula.
    pub fn symmetry(&self) -> SymmetryBreaking {
        self.symmetry
    }

    /// The defining CNF: Tseitin clauses for the property and asserted
    /// symmetry-breaking predicates, but no assertion of the property itself.
    pub fn defining_cnf(&self) -> &Cnf {
        &self.cnf
    }

    /// The literal equivalent to the property.
    pub fn property_root(&self) -> Lit {
        self.property_root
    }

    /// CNF asserting the property (φ, optionally ∧ SB).
    pub fn cnf_positive(&self) -> Cnf {
        self.positive.clone()
    }

    /// CNF asserting the negation of the property (¬φ, optionally ∧ SB).
    pub fn cnf_negative(&self) -> Cnf {
        self.negative.clone()
    }

    /// Borrowed view of [`Self::cnf_positive`] — both assertions are built
    /// once at translation time, so per-model counting loops can hand the
    /// counter a reference instead of cloning the whole formula per query.
    pub fn cnf_positive_ref(&self) -> &Cnf {
        &self.positive
    }

    /// Borrowed view of [`Self::cnf_negative`].
    pub fn cnf_negative_ref(&self) -> &Cnf {
        &self.negative
    }

    /// CNF of the space the property is evaluated over: the
    /// symmetry-breaking predicates SB alone over the `scope²` primary
    /// variables, with no clauses when symmetry breaking is off.
    ///
    /// φ and ¬φ split this space, and every Tseitin auxiliary is fixed by
    /// the primary variables, so for any cube `c` of primary literals the
    /// projected counts satisfy `mc(¬φ | c) = mc(SB | c) − mc(φ | c)`.
    pub fn cnf_space(&self) -> &Cnf {
        &self.space
    }
}

/// A matrix of propositional formulas denoting a relational expression of
/// arity 1 (length `n`) or 2 (length `n * n`, row-major).
#[derive(Debug, Clone)]
struct ExprMatrix {
    arity: usize,
    n: usize,
    entries: Vec<Rc<BoolExpr>>,
}

impl ExprMatrix {
    fn new(arity: usize, n: usize, fill: Rc<BoolExpr>) -> Self {
        let size = n.pow(arity as u32);
        ExprMatrix {
            arity,
            n,
            entries: vec![fill; size],
        }
    }

    fn get1(&self, i: usize) -> Rc<BoolExpr> {
        debug_assert_eq!(self.arity, 1);
        Rc::clone(&self.entries[i])
    }

    fn get2(&self, i: usize, j: usize) -> Rc<BoolExpr> {
        debug_assert_eq!(self.arity, 2);
        Rc::clone(&self.entries[i * self.n + j])
    }

    fn set1(&mut self, i: usize, e: Rc<BoolExpr>) {
        debug_assert_eq!(self.arity, 1);
        self.entries[i] = e;
    }

    fn set2(&mut self, i: usize, j: usize, e: Rc<BoolExpr>) {
        debug_assert_eq!(self.arity, 2);
        self.entries[i * self.n + j] = e;
    }
}

/// Environment mapping quantified variables to atoms during translation.
#[derive(Debug, Clone, Default)]
struct TranslateEnv {
    bindings: Vec<Option<usize>>,
}

impl TranslateEnv {
    fn bind(&self, v: QuantVar, atom: usize) -> TranslateEnv {
        let mut out = self.clone();
        if out.bindings.len() <= v.0 {
            out.bindings.resize(v.0 + 1, None);
        }
        out.bindings[v.0] = Some(atom);
        out
    }

    fn lookup(&self, v: QuantVar) -> usize {
        self.bindings
            .get(v.0)
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("unbound quantified variable {v} during translation"))
    }
}

/// The primary variable for the adjacency-matrix entry `(i, j)` at scope `n`.
pub fn primary_var(n: usize, i: usize, j: usize) -> u32 {
    (i * n + j) as u32
}

fn translate_expr(expr: &Expr, n: usize, env: &TranslateEnv) -> ExprMatrix {
    match expr {
        Expr::Rel => {
            let mut m = ExprMatrix::new(2, n, BoolExpr::fls());
            for i in 0..n {
                for j in 0..n {
                    m.set2(i, j, BoolExpr::var(primary_var(n, i, j)));
                }
            }
            m
        }
        Expr::Iden => {
            let mut m = ExprMatrix::new(2, n, BoolExpr::fls());
            for i in 0..n {
                m.set2(i, i, BoolExpr::tru());
            }
            m
        }
        Expr::Univ => ExprMatrix::new(1, n, BoolExpr::tru()),
        Expr::Empty(a) => ExprMatrix::new(*a, n, BoolExpr::fls()),
        Expr::Var(v) => {
            let atom = env.lookup(*v);
            let mut m = ExprMatrix::new(1, n, BoolExpr::fls());
            m.set1(atom, BoolExpr::tru());
            m
        }
        Expr::Union(a, b) => zip_matrices(a, b, n, env, BoolExpr::or2),
        Expr::Intersect(a, b) => zip_matrices(a, b, n, env, BoolExpr::and2),
        Expr::Diff(a, b) => zip_matrices(a, b, n, env, |x, y| BoolExpr::and2(x, BoolExpr::not(y))),
        Expr::Join(a, b) => {
            let ma = translate_expr(a, n, env);
            let mb = translate_expr(b, n, env);
            join_matrices(&ma, &mb, n)
        }
        Expr::Product(a, b) => {
            let ma = translate_expr(a, n, env);
            let mb = translate_expr(b, n, env);
            debug_assert_eq!(ma.arity, 1);
            debug_assert_eq!(mb.arity, 1);
            let mut m = ExprMatrix::new(2, n, BoolExpr::fls());
            for i in 0..n {
                for j in 0..n {
                    m.set2(i, j, BoolExpr::and2(ma.get1(i), mb.get1(j)));
                }
            }
            m
        }
        Expr::Transpose(a) => {
            let ma = translate_expr(a, n, env);
            let mut m = ExprMatrix::new(2, n, BoolExpr::fls());
            for i in 0..n {
                for j in 0..n {
                    m.set2(i, j, ma.get2(j, i));
                }
            }
            m
        }
        Expr::Closure(a) => {
            let ma = translate_expr(a, n, env);
            closure_matrix(&ma, n, false)
        }
        Expr::ReflClosure(a) => {
            let ma = translate_expr(a, n, env);
            closure_matrix(&ma, n, true)
        }
    }
}

fn zip_matrices(
    a: &Expr,
    b: &Expr,
    n: usize,
    env: &TranslateEnv,
    op: impl Fn(Rc<BoolExpr>, Rc<BoolExpr>) -> Rc<BoolExpr>,
) -> ExprMatrix {
    let ma = translate_expr(a, n, env);
    let mb = translate_expr(b, n, env);
    debug_assert_eq!(ma.arity, mb.arity);
    let mut out = ExprMatrix::new(ma.arity, n, BoolExpr::fls());
    for (idx, (x, y)) in ma.entries.iter().zip(&mb.entries).enumerate() {
        out.entries[idx] = op(Rc::clone(x), Rc::clone(y));
    }
    out
}

fn join_matrices(a: &ExprMatrix, b: &ExprMatrix, n: usize) -> ExprMatrix {
    match (a.arity, b.arity) {
        (1, 2) => {
            let mut m = ExprMatrix::new(1, n, BoolExpr::fls());
            for j in 0..n {
                let terms: Vec<Rc<BoolExpr>> = (0..n)
                    .map(|i| BoolExpr::and2(a.get1(i), b.get2(i, j)))
                    .collect();
                m.set1(j, BoolExpr::or(terms));
            }
            m
        }
        (2, 1) => {
            let mut m = ExprMatrix::new(1, n, BoolExpr::fls());
            for i in 0..n {
                let terms: Vec<Rc<BoolExpr>> = (0..n)
                    .map(|j| BoolExpr::and2(a.get2(i, j), b.get1(j)))
                    .collect();
                m.set1(i, BoolExpr::or(terms));
            }
            m
        }
        (2, 2) => {
            let mut m = ExprMatrix::new(2, n, BoolExpr::fls());
            for i in 0..n {
                for k in 0..n {
                    let terms: Vec<Rc<BoolExpr>> = (0..n)
                        .map(|j| BoolExpr::and2(a.get2(i, j), b.get2(j, k)))
                        .collect();
                    m.set2(i, k, BoolExpr::or(terms));
                }
            }
            m
        }
        (x, y) => panic!("join of arities {x} and {y} is not supported"),
    }
}

fn closure_matrix(a: &ExprMatrix, n: usize, reflexive: bool) -> ExprMatrix {
    debug_assert_eq!(a.arity, 2);
    // Iterated squaring: after k rounds the matrix covers paths of length
    // up to 2^k, so ceil(log2(n)) rounds suffice.
    let mut cur = a.clone();
    let mut len = 1usize;
    while len < n {
        let squared = join_matrices(&cur, &cur, n);
        let mut next = ExprMatrix::new(2, n, BoolExpr::fls());
        for i in 0..n {
            for j in 0..n {
                next.set2(i, j, BoolExpr::or2(cur.get2(i, j), squared.get2(i, j)));
            }
        }
        cur = next;
        len *= 2;
    }
    if reflexive {
        for i in 0..n {
            cur.set2(i, i, BoolExpr::tru());
        }
    }
    cur
}

/// Translates a closed formula at scope `n` to a propositional formula over
/// the primary variables.
pub fn translate_formula(formula: &Formula, n: usize) -> Rc<BoolExpr> {
    translate_formula_env(formula, n, &TranslateEnv::default())
}

fn translate_formula_env(formula: &Formula, n: usize, env: &TranslateEnv) -> Rc<BoolExpr> {
    match formula {
        Formula::True => BoolExpr::tru(),
        Formula::False => BoolExpr::fls(),
        Formula::Subset(a, b) => {
            let ma = translate_expr(a, n, env);
            let mb = translate_expr(b, n, env);
            debug_assert_eq!(ma.arity, mb.arity);
            let conj: Vec<Rc<BoolExpr>> = ma
                .entries
                .iter()
                .zip(&mb.entries)
                .map(|(x, y)| BoolExpr::implies(Rc::clone(x), Rc::clone(y)))
                .collect();
            BoolExpr::and(conj)
        }
        Formula::Equal(a, b) => {
            let ma = translate_expr(a, n, env);
            let mb = translate_expr(b, n, env);
            debug_assert_eq!(ma.arity, mb.arity);
            let conj: Vec<Rc<BoolExpr>> = ma
                .entries
                .iter()
                .zip(&mb.entries)
                .map(|(x, y)| BoolExpr::iff(Rc::clone(x), Rc::clone(y)))
                .collect();
            BoolExpr::and(conj)
        }
        Formula::Some(e) => {
            let m = translate_expr(e, n, env);
            BoolExpr::or(m.entries.clone())
        }
        Formula::No(e) => {
            let m = translate_expr(e, n, env);
            BoolExpr::not(BoolExpr::or(m.entries.clone()))
        }
        Formula::Lone(e) => {
            let m = translate_expr(e, n, env);
            at_most_one(&m.entries)
        }
        Formula::One(e) => {
            let m = translate_expr(e, n, env);
            BoolExpr::and2(BoolExpr::or(m.entries.clone()), at_most_one(&m.entries))
        }
        Formula::Not(f) => BoolExpr::not(translate_formula_env(f, n, env)),
        Formula::And(fs) => BoolExpr::and(
            fs.iter()
                .map(|f| translate_formula_env(f, n, env))
                .collect(),
        ),
        Formula::Or(fs) => BoolExpr::or(
            fs.iter()
                .map(|f| translate_formula_env(f, n, env))
                .collect(),
        ),
        Formula::Implies(a, b) => BoolExpr::implies(
            translate_formula_env(a, n, env),
            translate_formula_env(b, n, env),
        ),
        Formula::Iff(a, b) => BoolExpr::iff(
            translate_formula_env(a, n, env),
            translate_formula_env(b, n, env),
        ),
        Formula::All(v, body) => {
            let conj: Vec<Rc<BoolExpr>> = (0..n)
                .map(|atom| translate_formula_env(body, n, &env.bind(*v, atom)))
                .collect();
            BoolExpr::and(conj)
        }
        Formula::Exists(v, body) => {
            let disj: Vec<Rc<BoolExpr>> = (0..n)
                .map(|atom| translate_formula_env(body, n, &env.bind(*v, atom)))
                .collect();
            BoolExpr::or(disj)
        }
    }
}

/// Pairwise at-most-one constraint over a list of propositional formulas.
fn at_most_one(entries: &[Rc<BoolExpr>]) -> Rc<BoolExpr> {
    let mut conj = Vec::new();
    for i in 0..entries.len() {
        for j in (i + 1)..entries.len() {
            conj.push(BoolExpr::not(BoolExpr::and2(
                Rc::clone(&entries[i]),
                Rc::clone(&entries[j]),
            )));
        }
    }
    BoolExpr::and(conj)
}

/// Translates a formula to CNF at the given scope, producing a
/// [`GroundTruth`] whose projection set is the `scope²` primary variables.
///
/// Symmetry-breaking predicates selected in `options` are asserted; the
/// property itself is only defined and can be asserted positively or
/// negatively through [`GroundTruth::cnf_positive`] /
/// [`GroundTruth::cnf_negative`]. The predicates alone make up
/// [`GroundTruth::cnf_space`].
pub fn translate_to_cnf(formula: &Formula, options: TranslateOptions) -> GroundTruth {
    let n = options.scope;
    let num_primary = n * n;
    let prop_expr = translate_formula(formula, n);
    let sb_expr = options
        .symmetry
        .is_enabled()
        .then(|| symmetry_breaking_expr(n, options.symmetry));
    let mut enc = TseitinEncoder::new(num_primary);
    let property_root = enc.encode(&prop_expr);
    let mut space_enc = TseitinEncoder::new(num_primary);
    if let Some(sb_expr) = &sb_expr {
        enc.assert(sb_expr);
        space_enc.assert(sb_expr);
    }
    let cnf = enc.into_cnf();
    let mut positive = cnf.clone();
    positive.add_unit(property_root);
    let mut negative = cnf.clone();
    negative.add_unit(!property_root);
    GroundTruth {
        scope: n,
        cnf,
        property_root,
        symmetry: options.symmetry,
        positive,
        negative,
        space: space_enc.into_cnf(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, Formula, QuantVar};
    use crate::eval::eval_formula;
    use crate::instance::RelInstance;
    use satkit::enumerate::{enumerate_projected, EnumerateConfig};

    /// Exhaustively checks that the propositional translation of a formula
    /// agrees with the direct evaluator on every instance at scope `n`.
    fn check_translation_agrees(formula: &Formula, n: usize) {
        let expr = translate_formula(formula, n);
        for bits in 0u64..(1 << (n * n)) {
            let assignment: Vec<bool> = (0..n * n).map(|k| bits >> k & 1 == 1).collect();
            let inst = RelInstance::from_bits(n, assignment.clone());
            assert_eq!(
                expr.eval(&assignment),
                eval_formula(formula, &inst),
                "formula {formula} disagrees on instance {bits:b} at scope {n}"
            );
        }
    }

    fn reflexive() -> Rc<Formula> {
        let s = QuantVar(0);
        Formula::all(s, Formula::pair_in(Expr::var(s), Expr::var(s), Expr::rel()))
    }

    fn symmetric() -> Rc<Formula> {
        let s = QuantVar(0);
        let t = QuantVar(1);
        Formula::all_many(
            &[s, t],
            Formula::implies(
                Formula::pair_in(Expr::var(s), Expr::var(t), Expr::rel()),
                Formula::pair_in(Expr::var(t), Expr::var(s), Expr::rel()),
            ),
        )
    }

    #[test]
    fn reflexive_translation_agrees_with_evaluator() {
        check_translation_agrees(&reflexive(), 2);
        check_translation_agrees(&reflexive(), 3);
    }

    #[test]
    fn symmetric_translation_agrees_with_evaluator() {
        check_translation_agrees(&symmetric(), 3);
    }

    #[test]
    fn closure_translation_agrees_with_evaluator() {
        // "r is its own transitive closure" is equivalent to transitivity.
        let f = Formula::equal(Expr::closure(Expr::rel()), Expr::rel());
        check_translation_agrees(&f, 3);
    }

    #[test]
    fn multiplicity_translation_agrees_with_evaluator() {
        let s = QuantVar(0);
        // all s | one s.r (every atom has exactly one successor)
        let f = Formula::all(s, Formula::one(Expr::join(Expr::var(s), Expr::rel())));
        check_translation_agrees(&f, 3);
        // lone variant
        let g = Formula::all(s, Formula::lone(Expr::join(Expr::var(s), Expr::rel())));
        check_translation_agrees(&g, 3);
    }

    #[test]
    fn ground_truth_counts_reflexive_scope2() {
        // Reflexive relations on 2 atoms: diagonal fixed, 2 free bits -> 4.
        let gt = translate_to_cnf(&reflexive(), TranslateOptions::new(2));
        let cnf = gt.cnf_positive();
        let sols = enumerate_projected(&cnf, &[], &EnumerateConfig::default());
        assert_eq!(sols.len(), 4);
        // And the complement: 16 - 4 = 12.
        let neg = gt.cnf_negative();
        let sols_neg = enumerate_projected(&neg, &[], &EnumerateConfig::default());
        assert_eq!(sols_neg.len(), 12);
    }

    #[test]
    fn ground_truth_respects_symmetry_breaking() {
        // Equivalence-free sanity check: counting all relations on 3 atoms
        // with full symmetry breaking yields the number of isomorphism
        // classes (104), and without it the full 512.
        let gt_all = translate_to_cnf(&Formula::True, TranslateOptions::new(3));
        let all = enumerate_projected(&gt_all.cnf_positive(), &[], &EnumerateConfig::default());
        assert_eq!(all.len(), 512);

        let gt_sb = translate_to_cnf(
            &Formula::True,
            TranslateOptions::new(3).with_symmetry(SymmetryBreaking::Full),
        );
        let kept = enumerate_projected(&gt_sb.cnf_positive(), &[], &EnumerateConfig::default());
        assert_eq!(kept.len(), 104);
    }

    #[test]
    fn space_cnf_counts_the_symmetry_broken_space_under_any_cube() {
        use satkit::ddnnf::Compiler;
        let n = 3;
        // Duplicate literals count once; a contradictory cube counts 0.
        let cubes: Vec<Vec<Lit>> = vec![
            vec![],
            vec![Lit::pos(0)],
            vec![Lit::pos(0), Lit::pos(0)],
            vec![Lit::neg(1), Lit::pos(5), Lit::neg(1)],
            vec![Lit::pos(4), Lit::neg(4)],
            vec![Lit::neg(2), Lit::pos(3), Lit::neg(7), Lit::pos(8)],
        ];
        for sb in [
            SymmetryBreaking::None,
            SymmetryBreaking::Transpositions,
            SymmetryBreaking::Full,
        ] {
            let gt = translate_to_cnf(&reflexive(), TranslateOptions::new(n).with_symmetry(sb));
            let space = gt.cnf_space();
            assert_eq!(space.num_clauses() == 0, !sb.is_enabled(), "{sb:?}");
            assert_eq!(space.projection().len(), n * n);
            let circuit = Compiler::new().compile(space).expect("no budget");
            let counts = circuit.count_cubes(&cubes);
            for (cube, count) in cubes.iter().zip(counts) {
                let expected = (0u64..1 << (n * n))
                    .map(|bits| {
                        RelInstance::from_bits(n, (0..n * n).map(|k| bits >> k & 1 == 1).collect())
                    })
                    .filter(|inst| sb.keeps(inst))
                    .filter(|inst| {
                        cube.iter()
                            .all(|l| inst.bits()[l.var().index()] == l.is_positive())
                    })
                    .count() as u128;
                assert_eq!(count, expected, "{sb:?}, cube {cube:?}");
            }
        }
    }

    #[test]
    fn primary_var_indexing_is_row_major() {
        assert_eq!(primary_var(4, 0, 0), 0);
        assert_eq!(primary_var(4, 1, 0), 4);
        assert_eq!(primary_var(4, 2, 3), 11);
    }

    #[test]
    fn projection_set_is_primary_block() {
        let gt = translate_to_cnf(&reflexive(), TranslateOptions::new(3));
        assert_eq!(gt.num_primary(), 9);
        assert_eq!(gt.defining_cnf().projection().len(), 9);
    }
}
