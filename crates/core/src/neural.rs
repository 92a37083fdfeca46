//! [`CnfEncodable`] for the quantized neural and margin families — the
//! first non-tree compilation pipeline in the repo.
//!
//! Tree families compile by path splitting; the quantized models compile
//! by **threshold layers**:
//!
//! * [`QuantizedSvm`] is a single signed pseudo-Boolean threshold
//!   `Σ qwᵢ·xᵢ ≥ −qb` over the feature literals —
//!   [`satkit::card::weighted_at_least`] for the CNF leg, a memoized
//!   partial-sum branching program over [`Bdd`] nodes for the region leg.
//! * [`QuantizedMlp`] composes two layers. Each hidden unit is the same
//!   kind of threshold over the inputs, materialized as an indicator
//!   literal (CNF) or a feature-space diagram (regions); the output
//!   layer is a staged additive fold over the ±1 unit activations —
//!   `AdditiveVoteCompiler` for CNF, [`Bdd::staged_vote_fold`] for
//!   regions — with one two-alternative stage per non-constant unit
//!   (fires: `+q2ⱼ`, otherwise: `−q2ⱼ`) and the final integer score
//!   thresholded at `≥ 0`.
//!
//! Both legs run the *same* `i64` arithmetic as
//! [`QuantizedMlp::predict_quantized`] / [`QuantizedSvm::predict_quantized`]
//! (an `i64` partial sum travels as its two's-complement `u64` bit
//! pattern through the fold state), so the encodings agree with the
//! quantized predictions **bit for bit** — the count-preservation
//! invariant the conformance suites pin. Hidden units whose threshold is
//! decided by the exact best/worst-case input bounds fold into the
//! initial score on both legs, so neither materializes guards for
//! constant activations.

use crate::encode::{
    assert_feature_block, regions_from_diagram, AdditiveVoteCompiler, CnfEncodable, DecisionRegion,
};
use crate::error::EvalError;
use crate::tree2cnf::TreeLabel;
use mlkit::quant::{QuantizedMlp, QuantizedSvm};
use satkit::bdd::{Bdd, BddError, NodeRef, ReorderPolicy};
use satkit::card::{weighted_at_least, ThresholdLit};
use satkit::cnf::{Cnf, Lit, Var};
use std::collections::HashMap;

/// The feature literals paired with their integer weights, for the
/// pseudo-Boolean helpers (feature `i` is variable `i`).
fn feature_terms(weights: &[i64]) -> Vec<(Lit, i64)> {
    weights
        .iter()
        .enumerate()
        .map(|(i, &w)| (Var(i as u32).pos(), w))
        .collect()
}

/// Builds the BDD of `Σ weights[i]·xᵢ ≥ threshold` over the feature
/// variables: the same memoized `(index, partial sum)` branching program
/// as [`satkit::card::weighted_at_least`], with [`Bdd::ite`] in place of
/// Tseitin clauses, so both legs fold the same states to the same
/// constants. The manager's node budget bounds the build.
fn weighted_threshold_bdd(
    bdd: &mut Bdd,
    weights: &[i64],
    threshold: i64,
) -> Result<NodeRef, BddError> {
    let n = weights.len();
    let mut suffix_min = vec![0i64; n + 1];
    let mut suffix_max = vec![0i64; n + 1];
    for i in (0..n).rev() {
        suffix_min[i] = suffix_min[i + 1] + weights[i].min(0);
        suffix_max[i] = suffix_max[i + 1] + weights[i].max(0);
    }
    let mut builder = BddThresholdBuilder {
        weights,
        threshold,
        suffix_min,
        suffix_max,
        memo: HashMap::new(),
    };
    builder.node(bdd, 0, 0)
}

struct BddThresholdBuilder<'a> {
    weights: &'a [i64],
    threshold: i64,
    suffix_min: Vec<i64>,
    suffix_max: Vec<i64>,
    memo: HashMap<(usize, i64), NodeRef>,
}

impl BddThresholdBuilder<'_> {
    fn node(&mut self, bdd: &mut Bdd, index: usize, sum: i64) -> Result<NodeRef, BddError> {
        if sum + self.suffix_min[index] >= self.threshold {
            return Ok(bdd.constant(true));
        }
        if sum + self.suffix_max[index] < self.threshold {
            return Ok(bdd.constant(false));
        }
        if let Some(&node) = self.memo.get(&(index, sum)) {
            return Ok(node);
        }
        let hi = self.node(bdd, index + 1, sum + self.weights[index])?;
        let lo = self.node(bdd, index + 1, sum)?;
        let test = bdd.literal(index as u32, true)?;
        let node = bdd.ite(test, hi, lo)?;
        self.memo.insert((index, sum), node);
        Ok(node)
    }
}

impl CnfEncodable for QuantizedSvm {
    fn num_features(&self) -> usize {
        QuantizedSvm::num_features(self)
    }

    /// `Σ qw·x + qb ≥ 0 ⇔ Σ qw·x ≥ −qb`: one equivalence-encoded
    /// threshold indicator, asserted in the label's polarity.
    fn encode_label(&self, cnf: &mut Cnf, label: TreeLabel) {
        assert_feature_block(cnf, QuantizedSvm::num_features(self));
        let terms = feature_terms(self.weights());
        let wanted = matches!(label, TreeLabel::True);
        match weighted_at_least(cnf, &terms, -self.bias()) {
            ThresholdLit::Const(value) => {
                if value != wanted {
                    cnf.add_clause(Vec::new()); // the region is empty
                }
            }
            ThresholdLit::Lit(lit) => cnf.add_unit(if wanted { lit } else { !lit }),
        }
    }

    /// The threshold diagram *is* the decision diagram: its true paths
    /// are the positive regions, its false paths the negative ones.
    fn decision_regions_bounded(
        &self,
        vote_node_bound: usize,
    ) -> Result<Vec<DecisionRegion>, EvalError> {
        let mut bdd =
            Bdd::with_node_budget(vote_node_bound).with_reorder_policy(ReorderPolicy::OnPressure);
        let root = weighted_threshold_bdd(&mut bdd, self.weights(), -self.bias())?;
        regions_from_diagram(&mut bdd, root, ReorderPolicy::OnPressure)
    }
}

/// The single source of truth for the MLP output-layer fold, shared by
/// the CNF compiler ([`encode_mlp_label`]) and the region extraction
/// ([`mlp_decision_regions`]) the same way [`GradientBoosting`]'s fold
/// plan is shared — both legs must advance the same `i64` states in the
/// same stage order, or classic-vs-compiled bit-identity breaks.
///
/// Hidden units whose pre-activation is decided by the exact input
/// bounds (`Σ min(w, 0)` / `Σ max(w, 0)` are attained by real inputs)
/// contribute their `±q2ⱼ` to the base score instead of a stage; the
/// remaining units become two-alternative stages in index order.
///
/// [`GradientBoosting`]: mlkit::gbdt::GradientBoosting
struct MlpFoldPlan {
    /// `qb2` plus the contributions of all constant-activation units.
    base: i64,
    /// Hidden-unit indices with input-dependent activations, in order.
    units: Vec<usize>,
}

impl MlpFoldPlan {
    fn of(model: &QuantizedMlp) -> MlpFoldPlan {
        let mut base = model.output_bias();
        let mut units = Vec::new();
        for j in 0..model.hidden_units() {
            let weights = model.hidden_weights(j);
            let threshold = -model.hidden_bias(j);
            let min: i64 = weights.iter().map(|&w| w.min(0)).sum();
            let max: i64 = weights.iter().map(|&w| w.max(0)).sum();
            if min >= threshold {
                base += model.output_weight(j); // always fires: h = +1
            } else if max < threshold {
                base -= model.output_weight(j); // never fires: h = −1
            } else {
                units.push(j);
            }
        }
        MlpFoldPlan { base, units }
    }

    /// The state-advance closure: alternative 0 is "the unit fires"
    /// (`+q2ⱼ`), the otherwise-alternative is "it does not" (`−q2ⱼ`),
    /// the `i64` score travelling as its `u64` bit pattern.
    fn cast<'m>(&'m self, model: &'m QuantizedMlp) -> impl Fn(usize, usize, u64) -> u64 + 'm {
        move |stage, alternative, state| {
            let weight = model.output_weight(self.units[stage]);
            let score = state as i64;
            (if alternative == 0 {
                score + weight
            } else {
                score - weight
            }) as u64
        }
    }

    /// The decision closure: the predictor's own `score ≥ 0` threshold.
    fn decide(state: u64) -> bool {
        (state as i64) >= 0
    }
}

/// Encodes the quantized-MLP `label` region with an explicit vote-node
/// bound: one threshold indicator per non-constant hidden unit, then the
/// staged additive fold over `±q2ⱼ` contributions, thresholded at
/// `score ≥ 0` — exactly [`QuantizedMlp::predict_quantized`]. Exposed at
/// crate level so tests can exercise the bound directly.
pub(crate) fn encode_mlp_label(
    model: &QuantizedMlp,
    cnf: &mut Cnf,
    label: TreeLabel,
    bound: usize,
) -> Result<(), EvalError> {
    assert_feature_block(cnf, QuantizedMlp::num_features(model));
    let plan = MlpFoldPlan::of(model);
    let stages: Vec<Vec<Lit>> = plan
        .units
        .iter()
        .map(|&j| {
            let terms = feature_terms(model.hidden_weights(j));
            match weighted_at_least(cnf, &terms, -model.hidden_bias(j)) {
                ThresholdLit::Lit(lit) => vec![lit],
                ThresholdLit::Const(_) => {
                    unreachable!("constant-activation units fold into the base score")
                }
            }
        })
        .collect();
    let mut compiler =
        AdditiveVoteCompiler::new(&stages, plan.cast(model), MlpFoldPlan::decide, bound);
    compiler.assert_label(cnf, plan.base as u64, label)
}

/// Extracts the quantized-MLP decision regions through
/// [`Bdd::staged_vote_fold`]: one feature-space threshold diagram per
/// non-constant hidden unit as the stage guard, the same `±q2ⱼ` fold and
/// `score ≥ 0` decision as the CNF leg. Exposed at crate level (with an
/// explicit [`ReorderPolicy`]) for order-sensitivity tests; the trait
/// implementation always passes [`ReorderPolicy::OnPressure`].
pub(crate) fn mlp_decision_regions(
    model: &QuantizedMlp,
    vote_node_bound: usize,
    policy: ReorderPolicy,
) -> Result<Vec<DecisionRegion>, EvalError> {
    let mut bdd = Bdd::with_node_budget(vote_node_bound).with_reorder_policy(policy);
    let plan = MlpFoldPlan::of(model);
    let mut stages = Vec::with_capacity(plan.units.len());
    for &j in &plan.units {
        let guard =
            weighted_threshold_bdd(&mut bdd, model.hidden_weights(j), -model.hidden_bias(j))?;
        stages.push(vec![guard]);
    }
    let root = bdd.staged_vote_fold(
        &stages,
        plan.base as u64,
        &plan.cast(model),
        &MlpFoldPlan::decide,
        vote_node_bound,
    )?;
    regions_from_diagram(&mut bdd, root, policy)
}

impl CnfEncodable for QuantizedMlp {
    fn num_features(&self) -> usize {
        QuantizedMlp::num_features(self)
    }

    fn encode_label(&self, cnf: &mut Cnf, label: TreeLabel) {
        self.try_encode_label(cnf, label)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    fn try_encode_label_bounded(
        &self,
        cnf: &mut Cnf,
        label: TreeLabel,
        vote_node_bound: usize,
    ) -> Result<(), EvalError> {
        encode_mlp_label(self, cnf, label, vote_node_bound)
    }

    fn decision_regions_bounded(
        &self,
        vote_node_bound: usize,
    ) -> Result<Vec<DecisionRegion>, EvalError> {
        mlp_decision_regions(self, vote_node_bound, ReorderPolicy::OnPressure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlkit::data::Dataset;
    use mlkit::mlp::{Mlp, MlpConfig};
    use mlkit::quant::DEFAULT_QUANT_BITS;
    use mlkit::svm::{LinearSvm, SvmConfig};
    use mlkit::Classifier;
    use modelcount::exact::ExactCounter;

    fn dataset_from_fn(num_features: usize, f: impl Fn(&[u8]) -> bool) -> Dataset {
        let mut d = Dataset::new(num_features);
        for bits in 0u32..(1 << num_features) {
            let row: Vec<u8> = (0..num_features).map(|k| ((bits >> k) & 1) as u8).collect();
            let label = f(&row);
            d.push(row, label);
        }
        d
    }

    fn fit_quantized_mlp(d: &Dataset, hidden: usize, seed: u64) -> QuantizedMlp {
        let mlp = Mlp::fit(
            d,
            MlpConfig {
                hidden_units: hidden,
                epochs: 30,
                seed,
                ..MlpConfig::default()
            },
        );
        QuantizedMlp::from_mlp(&mlp, DEFAULT_QUANT_BITS)
    }

    fn fit_quantized_svm(d: &Dataset, seed: u64) -> QuantizedSvm {
        let svm = LinearSvm::fit(
            d,
            SvmConfig {
                seed,
                ..SvmConfig::default()
            },
        );
        QuantizedSvm::from_svm(&svm, DEFAULT_QUANT_BITS)
    }

    /// The core invariant: the projected models of `label_cnf` are exactly
    /// the inputs `predict_quantized` maps to that label.
    fn check_encoding_matches_predictions<M: CnfEncodable + Classifier>(model: &M) {
        let n = CnfEncodable::num_features(model);
        let counter = ExactCounter::new();
        let mut expected_true = 0u128;
        for bits in 0u32..(1 << n) {
            let features: Vec<u8> = (0..n).map(|k| ((bits >> k) & 1) as u8).collect();
            if model.predict(&features) {
                expected_true += 1;
            }
        }
        let t = counter
            .count(&model.label_cnf(TreeLabel::True))
            .expect("no budget");
        let f = counter
            .count(&model.label_cnf(TreeLabel::False))
            .expect("no budget");
        assert_eq!(t, expected_true, "true-region count");
        assert_eq!(f, (1u128 << n) - expected_true, "false-region count");
    }

    /// Every input satisfies exactly one region cube, carrying the
    /// quantized prediction's label.
    fn check_regions_partition<M: CnfEncodable + Classifier>(model: &M) {
        let n = CnfEncodable::num_features(model);
        let regions = model.decision_regions().expect("within the default bound");
        for bits in 0u32..(1 << n) {
            let features: Vec<u8> = (0..n).map(|k| ((bits >> k) & 1) as u8).collect();
            let matching: Vec<&DecisionRegion> = regions
                .iter()
                .filter(|r| {
                    r.cube
                        .iter()
                        .all(|l| l.eval(features[l.var().index()] != 0))
                })
                .collect();
            assert_eq!(matching.len(), 1, "input {features:?} must hit one region");
            let expected = if model.predict(&features) {
                TreeLabel::True
            } else {
                TreeLabel::False
            };
            assert_eq!(matching[0].label, expected, "input {features:?}");
        }
    }

    #[test]
    fn svm_encoding_matches_quantized_predictions() {
        for (seed, f) in [
            (0u64, (|x: &[u8]| x[0] == 1) as fn(&[u8]) -> bool),
            (1, |x: &[u8]| {
                x.iter().map(|&b| b as usize).sum::<usize>() >= 2
            }),
            (2, |x: &[u8]| x[1] == 0 || x[3] == 1),
        ] {
            let d = dataset_from_fn(4, f);
            let svm = fit_quantized_svm(&d, seed);
            check_encoding_matches_predictions(&svm);
            check_regions_partition(&svm);
        }
    }

    #[test]
    fn mlp_encoding_matches_quantized_predictions() {
        for (hidden, seed, f) in [
            (1usize, 0u64, (|x: &[u8]| x[0] == 1) as fn(&[u8]) -> bool),
            (3, 1, |x: &[u8]| (x[0] ^ x[2]) == 1 || x[3] == 1),
            (4, 2, |x: &[u8]| {
                x.iter().map(|&b| b as usize).sum::<usize>() >= 2
            }),
        ] {
            let d = dataset_from_fn(4, f);
            let mlp = fit_quantized_mlp(&d, hidden, seed);
            check_encoding_matches_predictions(&mlp);
            check_regions_partition(&mlp);
        }
    }

    #[test]
    fn constant_svm_regions_cover_the_space_with_one_cube() {
        // A single-class dataset trains an always-positive separator: one
        // full-space region, an empty complementary count.
        let mut d = Dataset::new(3);
        d.push(vec![0, 1, 0], true);
        d.push(vec![1, 1, 1], true);
        let svm = fit_quantized_svm(&d, 0);
        assert!((0u32..8).all(|bits| {
            let features: Vec<u8> = (0..3).map(|k| ((bits >> k) & 1) as u8).collect();
            svm.predict_quantized(&features)
        }));
        check_encoding_matches_predictions(&svm);
        let regions = svm.decision_regions().expect("trivial diagram");
        assert_eq!(regions.len(), 1);
        assert!(regions[0].cube.is_empty());
        assert_eq!(regions[0].label, TreeLabel::True);
    }

    #[test]
    fn mlp_vote_bound_is_a_typed_error() {
        let d = dataset_from_fn(4, |x| (x[0] ^ x[1]) == 1);
        let mlp = fit_quantized_mlp(&d, 4, 3);
        assert!(mlp.decision_regions().is_ok());
        let err = mlp
            .decision_regions_bounded(1)
            .expect_err("one node cannot hold a four-unit threshold fold");
        assert!(
            matches!(err, EvalError::VoteCircuitTooLarge { bound: 1, .. }),
            "unexpected error {err:?}"
        );
        let mut cnf = Cnf::new(4);
        let err = encode_mlp_label(&mlp, &mut cnf, TreeLabel::True, 1)
            .expect_err("one node cannot hold the CNF fold either");
        assert!(
            matches!(err, EvalError::VoteCircuitTooLarge { bound: 1, .. }),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn threshold_bdd_matches_integer_arithmetic() {
        let weights: [i64; 5] = [3, -2, 0, 5, -4];
        for threshold in [-7, -1, 0, 1, 2, 4, 9] {
            let mut bdd = Bdd::with_node_budget(1 << 12);
            let root = weighted_threshold_bdd(&mut bdd, &weights, threshold).expect("small DP");
            for bits in 0u32..32 {
                let assignment: Vec<bool> = (0..5).map(|k| bits >> k & 1 == 1).collect();
                let sum: i64 = weights
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| assignment[*i])
                    .map(|(_, &w)| w)
                    .sum();
                assert_eq!(
                    bdd.eval(root, &assignment),
                    sum >= threshold,
                    "weights {weights:?}, threshold {threshold}, input {assignment:?}"
                );
            }
        }
    }
}
