//! Cardinality constraints: a totalizer encoding over arbitrary literals.
//!
//! The totalizer (Bailleux–Boufkhad) builds a balanced binary tree over the
//! input literals; each node carries a unary counter `o_1 ≥ o_2 ≥ … ≥ o_m`
//! where `o_j` is true iff at least `j` of the node's inputs are true. This
//! implementation emits **both** implication directions, so every output is
//! *equivalent* to its threshold — which is what projected model counting
//! needs: after asserting `o_k` (or `¬o_k`) the encoding is satisfiable for
//! exactly the assignments of the original literals meeting (or missing) the
//! threshold, and each such assignment extends to exactly the truthful
//! counter values. Model counts projected onto the original variables are
//! therefore preserved.
//!
//! The encoding introduces `O(n log n)` auxiliary variables and `O(n²)`
//! clauses; at the ensemble sizes used by the MCML whole-space metrics
//! (tens of trees) this is negligible next to the counting itself.
//!
//! Beyond unit-weight cardinality, [`weighted_at_least`] /
//! [`assert_weighted_at_least`] encode **signed pseudo-Boolean**
//! thresholds `Σ wᵢ·ℓᵢ ≥ t` (integer weights of either sign) as a
//! memoized branching program over partial sums — the substrate for the
//! quantized MLP/SVM encoders, whose fixed-point weights do not reduce
//! to counting literals.

use crate::cnf::{Cnf, Lit};
use std::collections::HashMap;

/// A built totalizer: the unary counter outputs of the root node.
#[derive(Debug, Clone)]
pub struct Totalizer {
    outputs: Vec<Lit>,
}

impl Totalizer {
    /// Builds the totalizer circuit for `inputs` into `cnf`, allocating
    /// auxiliary variables via [`Cnf::new_var`].
    pub fn build(cnf: &mut Cnf, inputs: &[Lit]) -> Self {
        Totalizer {
            outputs: build_node(cnf, inputs),
        }
    }

    /// Number of inputs counted.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// Whether the totalizer counts zero inputs.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// The output literal equivalent to "at least `k` inputs are true"
    /// (`k ≥ 1`). Returns `None` when `k` exceeds the input count (the
    /// threshold is then unsatisfiable).
    pub fn at_least(&self, k: usize) -> Option<Lit> {
        assert!(
            k >= 1,
            "threshold must be at least 1 (k = 0 is trivially true)"
        );
        self.outputs.get(k - 1).copied()
    }

    /// Asserts "at least `k` of the inputs are true" on `cnf`.
    pub fn assert_at_least(&self, cnf: &mut Cnf, k: usize) {
        if k == 0 {
            return;
        }
        match self.at_least(k) {
            Some(lit) => cnf.add_unit(lit),
            None => cnf.add_clause(Vec::new()), // k > n: unsatisfiable
        }
    }

    /// Asserts "at most `k` of the inputs are true" on `cnf`.
    pub fn assert_at_most(&self, cnf: &mut Cnf, k: usize) {
        if let Some(lit) = self.outputs.get(k).copied() {
            cnf.add_unit(!lit);
        }
        // k >= n: trivially true, nothing to assert.
    }
}

/// Recursively builds the counter for a slice of inputs and returns its
/// sorted outputs (`outputs[j-1]` ⟺ at least `j` of the slice are true).
fn build_node(cnf: &mut Cnf, inputs: &[Lit]) -> Vec<Lit> {
    match inputs.len() {
        0 => Vec::new(),
        1 => vec![inputs[0]],
        n => {
            let (left, right) = inputs.split_at(n / 2);
            let a = build_node(cnf, left);
            let b = build_node(cnf, right);
            merge(cnf, &a, &b)
        }
    }
}

/// Merges two sorted unary counters into one, emitting the equivalence
/// clauses of the totalizer.
fn merge(cnf: &mut Cnf, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
    let (p, q) = (a.len(), b.len());
    let outputs: Vec<Lit> = (0..p + q).map(|_| cnf.new_var().pos()).collect();
    // Treat a[0] / b[0] as constant true and a[p+1] / b[q+1] as constant
    // false, per the standard formulation.
    for i in 0..=p {
        for j in 0..=q {
            // sum ≥ i + j  ⇒  r_{i+j}:   (¬a_i ∨ ¬b_j ∨ r_{i+j})
            if i + j >= 1 {
                let mut clause = Vec::with_capacity(3);
                if i >= 1 {
                    clause.push(!a[i - 1]);
                }
                if j >= 1 {
                    clause.push(!b[j - 1]);
                }
                clause.push(outputs[i + j - 1]);
                cnf.add_clause(clause);
            }
            // r_{i+j+1}  ⇒  a_{i+1} ∨ b_{j+1}:   (a_{i+1} ∨ b_{j+1} ∨ ¬r_{i+j+1})
            if i + j < p + q {
                let mut clause = Vec::with_capacity(3);
                if i < p {
                    clause.push(a[i]);
                }
                if j < q {
                    clause.push(b[j]);
                }
                clause.push(!outputs[i + j]);
                cnf.add_clause(clause);
            }
        }
    }
    outputs
}

/// Appends clauses asserting that at least `k` of `lits` are true,
/// allocating auxiliary variables in `cnf`.
pub fn encode_at_least_k(cnf: &mut Cnf, lits: &[Lit], k: usize) {
    if k == 0 {
        return;
    }
    if k > lits.len() {
        cnf.add_clause(Vec::new());
        return;
    }
    let tot = Totalizer::build(cnf, lits);
    tot.assert_at_least(cnf, k);
}

/// Appends clauses asserting that at most `k` of `lits` are true,
/// allocating auxiliary variables in `cnf`.
pub fn encode_at_most_k(cnf: &mut Cnf, lits: &[Lit], k: usize) {
    if k >= lits.len() {
        return;
    }
    let tot = Totalizer::build(cnf, lits);
    tot.assert_at_most(cnf, k);
}

/// The result of a pseudo-Boolean threshold encoding: a defined literal
/// equivalent to the threshold, or a constant when the weights decide it
/// outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdLit {
    /// The threshold holds for every (`true`) or no (`false`) assignment.
    Const(bool),
    /// A literal equivalent to "the weighted sum meets the threshold".
    Lit(Lit),
}

/// Defines a literal equivalent to the signed pseudo-Boolean threshold
/// `Σ wᵢ·ℓᵢ ≥ threshold`, where each term `(ℓᵢ, wᵢ)` contributes `wᵢ`
/// exactly when `ℓᵢ` is true. Weights may be negative.
///
/// The encoding is a memoized branching program over `(index, partial
/// sum)` states: at most one auxiliary variable per reachable state,
/// each defined by *equivalence* clauses, so model counts projected onto
/// the original variables are preserved — every input assignment extends
/// to exactly one assignment of the auxiliaries. States whose best- or
/// worst-case suffix already decides the comparison fold to constants,
/// which keeps the program near-linear for the sharply-peaked weight
/// profiles trained models produce.
pub fn weighted_at_least(cnf: &mut Cnf, terms: &[(Lit, i64)], threshold: i64) -> ThresholdLit {
    let n = terms.len();
    // suffix_min[i] / suffix_max[i]: bounds of Σ_{j ≥ i} wⱼ·ℓⱼ.
    let mut suffix_min = vec![0i64; n + 1];
    let mut suffix_max = vec![0i64; n + 1];
    for i in (0..n).rev() {
        let w = terms[i].1;
        suffix_min[i] = suffix_min[i + 1] + w.min(0);
        suffix_max[i] = suffix_max[i + 1] + w.max(0);
    }
    let mut builder = ThresholdBuilder {
        terms,
        threshold,
        suffix_min,
        suffix_max,
        memo: HashMap::new(),
    };
    builder.node(cnf, 0, 0)
}

/// Asserts `Σ wᵢ·ℓᵢ ≥ threshold` on `cnf` (an empty clause when the
/// threshold is unsatisfiable, nothing when it is trivial).
pub fn assert_weighted_at_least(cnf: &mut Cnf, terms: &[(Lit, i64)], threshold: i64) {
    match weighted_at_least(cnf, terms, threshold) {
        ThresholdLit::Const(true) => {}
        ThresholdLit::Const(false) => cnf.add_clause(Vec::new()),
        ThresholdLit::Lit(lit) => cnf.add_unit(lit),
    }
}

struct ThresholdBuilder<'a> {
    terms: &'a [(Lit, i64)],
    threshold: i64,
    suffix_min: Vec<i64>,
    suffix_max: Vec<i64>,
    memo: HashMap<(usize, i64), ThresholdLit>,
}

impl ThresholdBuilder<'_> {
    /// The node for "`sum` + Σ_{j ≥ index} wⱼ·ℓⱼ ≥ threshold" as a
    /// function of the suffix literals.
    fn node(&mut self, cnf: &mut Cnf, index: usize, sum: i64) -> ThresholdLit {
        if sum + self.suffix_min[index] >= self.threshold {
            return ThresholdLit::Const(true);
        }
        if sum + self.suffix_max[index] < self.threshold {
            return ThresholdLit::Const(false);
        }
        // Both bounds are 0 at index == n, so one constant arm fired
        // above; reaching here implies index < n.
        if let Some(&node) = self.memo.get(&(index, sum)) {
            return node;
        }
        let (lit, weight) = self.terms[index];
        let hi = self.node(cnf, index + 1, sum + weight);
        let lo = self.node(cnf, index + 1, sum);
        let node = ite_lit(cnf, lit, hi, lo);
        self.memo.insert((index, sum), node);
        node
    }
}

/// Defines `u ↔ (v ? hi : lo)` with equivalence (Tseitin) clauses,
/// folding constant branches so trivial nodes cost no variables.
fn ite_lit(cnf: &mut Cnf, v: Lit, hi: ThresholdLit, lo: ThresholdLit) -> ThresholdLit {
    use ThresholdLit::{Const, Lit as L};
    match (hi, lo) {
        (a, b) if a == b => a,
        (Const(true), Const(false)) => L(v),
        (Const(false), Const(true)) => L(!v),
        (Const(true), L(l)) => {
            // u ↔ (v ∨ l)
            let u = cnf.new_var().pos();
            cnf.add_clause(vec![!v, u]);
            cnf.add_clause(vec![!l, u]);
            cnf.add_clause(vec![v, l, !u]);
            L(u)
        }
        (Const(false), L(l)) => {
            // u ↔ (¬v ∧ l)
            let u = cnf.new_var().pos();
            cnf.add_clause(vec![!u, !v]);
            cnf.add_clause(vec![!u, l]);
            cnf.add_clause(vec![v, !l, u]);
            L(u)
        }
        (L(h), Const(true)) => {
            // u ↔ (¬v ∨ h)
            let u = cnf.new_var().pos();
            cnf.add_clause(vec![v, u]);
            cnf.add_clause(vec![!h, u]);
            cnf.add_clause(vec![!u, !v, h]);
            L(u)
        }
        (L(h), Const(false)) => {
            // u ↔ (v ∧ h)
            let u = cnf.new_var().pos();
            cnf.add_clause(vec![!u, v]);
            cnf.add_clause(vec![!u, h]);
            cnf.add_clause(vec![!v, !h, u]);
            L(u)
        }
        (L(h), L(l)) => {
            // u ↔ (v ? h : l)
            let u = cnf.new_var().pos();
            cnf.add_clause(vec![!v, !h, u]);
            cnf.add_clause(vec![!v, h, !u]);
            cnf.add_clause(vec![v, !l, u]);
            cnf.add_clause(vec![v, l, !u]);
            L(u)
        }
        (Const(_), Const(_)) => unreachable!("equal constants folded above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Var;

    /// Counts assignments of the first `n` variables that can be extended to
    /// a model of `cnf` (brute force over all variables).
    fn projected_count(cnf: &Cnf, n: usize) -> usize {
        let total = cnf.num_vars();
        let mut seen = std::collections::HashSet::new();
        for bits in 0u64..(1 << total) {
            let assignment: Vec<bool> = (0..total).map(|i| bits >> i & 1 == 1).collect();
            if cnf.eval(&assignment) {
                seen.insert(bits & ((1 << n) - 1));
            }
        }
        seen.len()
    }

    fn binomial(n: u64, k: u64) -> u64 {
        if k > n {
            return 0;
        }
        let k = k.min(n - k);
        let mut result = 1u64;
        for i in 0..k {
            result = result * (n - i) / (i + 1);
        }
        result
    }

    #[test]
    fn at_least_k_counts_binomial_tails() {
        for n in 1usize..=5 {
            for k in 0..=n + 1 {
                let mut cnf = Cnf::new(n);
                let lits: Vec<Lit> = (0..n as u32).map(|v| Var(v).pos()).collect();
                encode_at_least_k(&mut cnf, &lits, k);
                let expected: u64 = (k..=n).map(|j| binomial(n as u64, j as u64)).sum();
                assert_eq!(
                    projected_count(&cnf, n) as u64,
                    expected,
                    "n = {n}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn at_most_k_counts_binomial_heads() {
        for n in 1usize..=5 {
            for k in 0..=n {
                let mut cnf = Cnf::new(n);
                let lits: Vec<Lit> = (0..n as u32).map(|v| Var(v).pos()).collect();
                encode_at_most_k(&mut cnf, &lits, k);
                let expected: u64 = (0..=k).map(|j| binomial(n as u64, j as u64)).sum();
                assert_eq!(
                    projected_count(&cnf, n) as u64,
                    expected,
                    "n = {n}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn works_over_negated_literals() {
        // "at least 2 of {!x0, x1, !x2}": count assignments directly.
        let mut cnf = Cnf::new(3);
        let lits = vec![Var(0).neg(), Var(1).pos(), Var(2).neg()];
        encode_at_least_k(&mut cnf, &lits, 2);
        let mut expected = 0;
        for bits in 0u64..8 {
            let vals = [bits & 1 == 1, bits >> 1 & 1 == 1, bits >> 2 & 1 == 1];
            let ones = [!vals[0], vals[1], !vals[2]].iter().filter(|&&b| b).count();
            if ones >= 2 {
                expected += 1;
            }
        }
        assert_eq!(projected_count(&cnf, 3), expected);
    }

    #[test]
    fn outputs_are_equivalences_not_mere_implications() {
        // Assert the *negation* of an output: exactly the assignments below
        // the threshold must remain, which requires the reverse implication.
        let n = 4;
        let mut cnf = Cnf::new(n);
        let lits: Vec<Lit> = (0..n as u32).map(|v| Var(v).pos()).collect();
        let tot = Totalizer::build(&mut cnf, &lits);
        tot.assert_at_most(&mut cnf, 1);
        // C(4,0) + C(4,1) = 5 assignments with at most one bit set.
        assert_eq!(projected_count(&cnf, n), 5);
    }

    #[test]
    fn degenerate_thresholds() {
        let mut cnf = Cnf::new(2);
        let lits = vec![Var(0).pos(), Var(1).pos()];
        encode_at_least_k(&mut cnf, &lits, 0); // no-op
        assert_eq!(projected_count(&cnf, 2), 4);
        encode_at_most_k(&mut cnf, &lits, 2); // no-op
        assert_eq!(projected_count(&cnf, 2), 4);
        encode_at_least_k(&mut cnf, &lits, 3); // unsatisfiable
        assert_eq!(projected_count(&cnf, 2), 0);
    }

    #[test]
    fn single_input_uses_no_aux_vars() {
        let mut cnf = Cnf::new(1);
        let tot = Totalizer::build(&mut cnf, &[Var(0).pos()]);
        assert_eq!(cnf.num_vars(), 1);
        assert_eq!(tot.at_least(1), Some(Var(0).pos()));
        assert_eq!(tot.at_least(2), None);
    }

    /// Assignments of `n` boolean inputs whose weighted sum meets the
    /// threshold, by brute force over the raw weights.
    fn brute_weighted(weights: &[i64], threshold: i64) -> usize {
        let n = weights.len();
        (0u64..1 << n)
            .filter(|bits| {
                let sum: i64 = weights
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| bits >> i & 1 == 1)
                    .map(|(_, &w)| w)
                    .sum();
                sum >= threshold
            })
            .count()
    }

    #[test]
    fn weighted_at_least_matches_brute_force_with_signed_weights() {
        let profiles: [&[i64]; 5] = [
            &[3, -2, 1],
            &[-5, 4, 4, -1],
            &[7, 0, -7, 2, -3],
            &[1, 1, 1, 1],
            &[-1, -2, -4],
        ];
        for weights in profiles {
            let lo: i64 = weights.iter().map(|w| w.min(&0)).sum();
            let hi: i64 = weights.iter().map(|w| w.max(&0)).sum();
            for threshold in (lo - 1)..=(hi + 2) {
                let mut cnf = Cnf::new(weights.len());
                let terms: Vec<(Lit, i64)> = weights
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| (Var(i as u32).pos(), w))
                    .collect();
                assert_weighted_at_least(&mut cnf, &terms, threshold);
                assert_eq!(
                    projected_count(&cnf, weights.len()),
                    brute_weighted(weights, threshold),
                    "weights {weights:?}, threshold {threshold}"
                );
            }
        }
    }

    #[test]
    fn weighted_indicator_is_an_equivalence() {
        // Asserting the indicator's *negation* must keep exactly the
        // below-threshold assignments — the reverse implication at work.
        let weights: [i64; 4] = [2, -3, 5, -1];
        let threshold = 2;
        let mut cnf = Cnf::new(weights.len());
        let terms: Vec<(Lit, i64)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (Var(i as u32).pos(), w))
            .collect();
        match weighted_at_least(&mut cnf, &terms, threshold) {
            ThresholdLit::Lit(lit) => cnf.add_unit(!lit),
            other => panic!("expected a defined literal, got {other:?}"),
        }
        assert_eq!(
            projected_count(&cnf, weights.len()),
            (1 << weights.len()) - brute_weighted(&weights, threshold)
        );
    }

    #[test]
    fn weighted_at_least_over_negated_literals() {
        // 3·¬x0 − 2·x1 ≥ 1 ⇔ ¬x0 (the −2 term can never rescue x0 = 1).
        let mut cnf = Cnf::new(2);
        let terms = vec![(Var(0).neg(), 3i64), (Var(1).pos(), -2i64)];
        assert_weighted_at_least(&mut cnf, &terms, 1);
        assert_eq!(projected_count(&cnf, 2), 2);
    }

    #[test]
    fn weighted_threshold_constants_fold() {
        let mut cnf = Cnf::new(2);
        let terms = vec![(Var(0).pos(), 1i64), (Var(1).pos(), 2i64)];
        // Trivially true: worst case 0 ≥ -1.
        assert_eq!(
            weighted_at_least(&mut cnf, &terms, -1),
            ThresholdLit::Const(true)
        );
        // Unsatisfiable: best case 3 < 4.
        assert_eq!(
            weighted_at_least(&mut cnf, &terms, 4),
            ThresholdLit::Const(false)
        );
        // Empty sum compares 0 against the threshold.
        assert_eq!(
            weighted_at_least(&mut cnf, &[], 0),
            ThresholdLit::Const(true)
        );
        assert_eq!(
            weighted_at_least(&mut cnf, &[], 1),
            ThresholdLit::Const(false)
        );
        assert_eq!(cnf.num_vars(), 2, "constant folds must allocate nothing");
        // Unsatisfiable assertion emits the empty clause.
        assert_weighted_at_least(&mut cnf, &terms, 4);
        assert_eq!(projected_count(&cnf, 2), 0);
    }

    #[test]
    fn weighted_states_are_memoized() {
        // Eight unit weights: without memoization the branching program
        // would be exponential; with it, at most O(n·range) states exist.
        let n = 8usize;
        let mut cnf = Cnf::new(n);
        let terms: Vec<(Lit, i64)> = (0..n as u32).map(|v| (Var(v).pos(), 1i64)).collect();
        assert_weighted_at_least(&mut cnf, &terms, 4);
        let aux = cnf.num_vars() - n;
        assert!(aux <= n * n, "expected O(n²) aux vars, got {aux}");
        let expected: u64 = (4..=8).map(|j| binomial(8, j)).sum();
        assert_eq!(projected_count(&cnf, n) as u64, expected);
    }
}
