//! AccMC: quantifying a classifier's performance over the entire bounded
//! input space with respect to a ground-truth formula φ.
//!
//! Following Section 4 of the paper, the four counts are model counts of
//! conjunctions of (¬)φ with the CNF of the model's positive / negative
//! decision region:
//!
//! * `tp = mc(φ ∧ model_true)`     * `fp = mc(¬φ ∧ model_true)`
//! * `tn = mc(¬φ ∧ model_false)`   * `fn = mc(φ ∧ model_false)`
//!
//! from which accuracy, precision, recall and F1 are derived exactly as for
//! dataset-based evaluation — except the "dataset" is now all 2^(n²)
//! adjacency matrices (optionally restricted by the symmetry-breaking
//! predicates SB baked into φ).
//!
//! The analysis is generic on both axes: any [`CnfEncodable`] model family
//! and any [`QueryCounter`] backend. Two evaluation strategies are
//! selectable through [`CountingEngine`]:
//!
//! * [`Classic`](CountingEngine::Classic) — encode the model's decision
//!   region into (¬)φ and run four fresh counts, exactly as above;
//! * [`Compiled`](CountingEngine::Compiled) — a *query plan* over the
//!   model's [`decision_regions`](CnfEncodable::decision_regions): never
//!   encode the model, and sum per-region counts instead. φ and ¬φ split
//!   the space SB ([`GroundTruth::cnf_space`]), so the plan counts only φ
//!   and SB and derives `mc(¬φ | c) = mc(SB | c) − mc(φ | c)` for each
//!   region cube `c`. Against a
//!   [`CompiledCounter`](crate::counter::CompiledCounter) backend, φ and SB
//!   compile to d-DNNF once per (property, scope) — SB is small, and with
//!   symmetry breaking off it is one trivial circuit per scope — and every
//!   model of a batch costs two linear sweeps. ¬φ, the costly circuit, is
//!   never compiled. The subtraction is taken only where both counts are
//!   exact: a region whose count was rescued as an (ε, δ) estimate counts
//!   ¬φ directly, because a difference of estimates keeps no (1 + ε)
//!   guarantee. Trees list their root-to-leaf paths; ensembles and
//!   quantized models compile their vote circuits into region cube lists
//!   through [`satkit::bdd`], guarded by a configurable
//!   [vote-node budget](AccMc::vote_node_bound).

use crate::backend::CounterBackend;
use crate::counter::{CountOutcome, QueryCounter};
use crate::encode::CnfEncodable;
use crate::error::EvalError;
use crate::fallback::{rescue_batch, FallbackLadder, FallbackPolicy};
use crate::tree2cnf::TreeLabel;
use mlkit::metrics::BinaryMetrics;
use relspec::translate::GroundTruth;
use satkit::cnf::{Cnf, Lit};
use std::time::{Duration, Instant};

/// Which counting strategy an analysis uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CountingEngine {
    /// One CNF, one search: encode the model region into (¬)φ and count
    /// each of the four conjunctions from scratch.
    #[default]
    Classic,
    /// Compile once, query many: condition compiled φ and space circuits
    /// on the model's decision-region cubes, derive ¬φ per region by
    /// subtraction, and sum the per-region counts. Covers every
    /// [`CnfEncodable`] family (trees and voting ensembles).
    Compiled,
}

impl CountingEngine {
    /// Parses a case-insensitive engine name (`"classic"`, `"compiled"`).
    pub fn parse(name: &str) -> Option<CountingEngine> {
        match name.to_ascii_lowercase().as_str() {
            "classic" => Some(CountingEngine::Classic),
            "compiled" => Some(CountingEngine::Compiled),
            _ => None,
        }
    }

    /// The engine's lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            CountingEngine::Classic => "classic",
            CountingEngine::Compiled => "compiled",
        }
    }

    /// Reads the engine from the `MCML_ENGINE` environment variable — the
    /// switch the CI conformance matrix uses to run the same test suite
    /// under both engines. Unset or empty means [`CountingEngine::Classic`].
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized value, so a typo in a CI matrix fails
    /// loudly instead of silently testing the default engine.
    pub fn from_env() -> CountingEngine {
        match std::env::var("MCML_ENGINE") {
            Err(_) => CountingEngine::Classic,
            Ok(v) if v.is_empty() => CountingEngine::Classic,
            Ok(v) => CountingEngine::parse(&v)
                .unwrap_or_else(|| panic!("MCML_ENGINE={v:?} is not a counting engine")),
        }
    }
}

impl std::fmt::Display for CountingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The (ε, δ) guarantee attached to an approximate whole-space result.
///
/// A result built from several approximate counts only holds when *every*
/// contributing estimate does, so ε is the largest per-count tolerance and
/// δ is the **union bound** over the contributing counts — the sum of
/// their failure probabilities, saturated at 1 (at which point the
/// combined guarantee is vacuous).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxInfo {
    /// Largest per-count tolerance ε among the approximate counts.
    pub epsilon: f64,
    /// Union-bound failure probability: the sum of the contributing
    /// counts' δ parameters, capped at 1.
    pub delta: f64,
}

/// The four whole-space counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpaceCounts {
    /// Inputs satisfying φ that the model classifies as positive.
    pub tp: u128,
    /// Inputs violating φ that the model classifies as positive.
    pub fp: u128,
    /// Inputs violating φ that the model classifies as negative.
    pub tn: u128,
    /// Inputs satisfying φ that the model classifies as negative.
    pub fn_: u128,
}

impl SpaceCounts {
    /// Total number of inputs covered by the four counts.
    pub fn total(&self) -> u128 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// The derived accuracy / precision / recall / F1 scores.
    pub fn metrics(&self) -> BinaryMetrics {
        BinaryMetrics::from_counts(self.tp, self.fp, self.tn, self.fn_)
    }
}

/// Result of one AccMC evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccMcResult {
    /// The four whole-space counts.
    pub counts: SpaceCounts,
    /// The derived scores.
    pub metrics: BinaryMetrics,
    /// Wall-clock time spent in the counting calls (the paper's "Time\[s\]"
    /// column).
    pub counting_time: Duration,
    /// The combined (ε, δ) guarantee of the approximate counts contributing
    /// to the result; `None` when every count is exact.
    pub approx: Option<ApproxInfo>,
}

impl AccMcResult {
    /// Whether every contributing count is exact.
    pub fn is_exact(&self) -> bool {
        self.approx.is_none()
    }
}

/// Accumulates per-count outcome metadata — exactness, largest ε,
/// union-bound δ — across the counts of one evaluation. `mcml-serve`
/// labels its degraded replies with the same accumulator, so a served
/// label and a batch label over the same counts agree bit for bit.
#[derive(Debug, Default)]
pub struct OutcomeMeta {
    approx: Option<ApproxInfo>,
}

impl OutcomeMeta {
    /// Folds one outcome in, returning its value (`None` = budget ran out).
    pub fn absorb(&mut self, outcome: CountOutcome) -> Option<u128> {
        match outcome {
            CountOutcome::Exact(v) => Some(v),
            CountOutcome::Approx {
                estimate,
                epsilon,
                delta,
            } => {
                let info = self.approx.get_or_insert(ApproxInfo {
                    epsilon: 0.0,
                    delta: 0.0,
                });
                info.epsilon = info.epsilon.max(epsilon);
                // Union bound: the joint result fails if any contributing
                // estimate does, so failure probabilities add.
                info.delta = (info.delta + delta).min(1.0);
                Some(estimate)
            }
            CountOutcome::BudgetExhausted { .. } => None,
        }
    }

    /// The combined label of the approximate counts folded in so far;
    /// `None` while every count was exact.
    pub fn approx(&self) -> Option<ApproxInfo> {
        self.approx
    }
}

/// The AccMC analysis, parameterized by a counting backend and a
/// [`CountingEngine`].
#[derive(Debug, Clone)]
pub struct AccMc<'a, C: QueryCounter + ?Sized = CounterBackend> {
    backend: &'a C,
    engine: CountingEngine,
    vote_node_bound: usize,
    fallback: FallbackPolicy,
}

impl<'a, C: QueryCounter + ?Sized> AccMc<'a, C> {
    /// Creates the analysis over the given backend with the classic
    /// four-conjunction strategy.
    pub fn new(backend: &'a C) -> Self {
        AccMc::with_engine(backend, CountingEngine::Classic)
    }

    /// Creates the analysis with an explicit counting engine.
    pub fn with_engine(backend: &'a C, engine: CountingEngine) -> Self {
        AccMc {
            backend,
            engine,
            vote_node_bound: crate::encode::MAX_VOTE_NODES,
            fallback: FallbackPolicy::default(),
        }
    }

    /// Sets the degradation policy applied when a count exhausts its
    /// budget (default [`FallbackPolicy::Fail`], which preserves the
    /// exact-or-`None` contract of [`AccMc::evaluate`]).
    pub fn fallback(mut self, policy: FallbackPolicy) -> Self {
        self.fallback = policy;
        self
    }

    /// Sets the vote-circuit node budget (default
    /// [`MAX_VOTE_NODES`](crate::encode::MAX_VOTE_NODES)): it bounds the
    /// vote BDDs the compiled engine extracts decision regions from *and*
    /// the ABT weighted-vote diagram of the classic engine's CNF encoding.
    /// An ensemble whose diagram exceeds it reports
    /// [`EvalError::VoteCircuitTooLarge`].
    pub fn vote_node_bound(mut self, bound: usize) -> Self {
        self.vote_node_bound = bound;
        self
    }

    /// The engine this analysis evaluates with.
    pub fn engine(&self) -> CountingEngine {
        self.engine
    }

    /// Computes the whole-space confusion counts of `model` against the
    /// ground truth φ.
    ///
    /// Returns `Ok(None)` if the backend's budget was exhausted on any
    /// count (the paper's time-outs), [`EvalError::FeatureMismatch`] if the
    /// model's feature count differs from the ground truth's
    /// primary-variable count, and propagates encoding errors (e.g.
    /// [`EvalError::VoteCircuitTooLarge`]).
    pub fn evaluate<M: CnfEncodable + ?Sized>(
        &self,
        ground_truth: &GroundTruth,
        model: &M,
    ) -> Result<Option<AccMcResult>, EvalError> {
        if model.num_features() != ground_truth.num_primary() {
            return Err(EvalError::FeatureMismatch {
                model_features: model.num_features(),
                expected_features: ground_truth.num_primary(),
                context: "ground truth",
            });
        }
        let start = Instant::now();
        let mut meta = OutcomeMeta::default();
        let ladder = FallbackLadder::new(
            self.fallback,
            Some(ground_truth.scope()),
            ground_truth.symmetry(),
        );
        let counts = match self.engine {
            CountingEngine::Compiled => {
                let regions = model.decision_regions_bounded(self.vote_node_bound)?;
                self.counts_by_regions(ground_truth, &regions, ladder.as_ref(), &mut meta)?
            }
            CountingEngine::Classic => {
                self.counts_classic(ground_truth, model, ladder.as_ref(), &mut meta)?
            }
        };
        Ok(counts.map(|counts| AccMcResult {
            counts,
            metrics: counts.metrics(),
            counting_time: start.elapsed(),
            approx: meta.approx(),
        }))
    }

    /// The classic strategy: four conjunction CNFs, four counts.
    fn counts_classic<M: CnfEncodable + ?Sized>(
        &self,
        ground_truth: &GroundTruth,
        model: &M,
        ladder: Option<&FallbackLadder>,
        meta: &mut OutcomeMeta,
    ) -> Result<Option<SpaceCounts>, EvalError> {
        let mut values = [0u128; 4];
        let cells = [
            (true, TreeLabel::True),
            (false, TreeLabel::True),
            (false, TreeLabel::False),
            (true, TreeLabel::False),
        ];
        for (slot, &(phi_positive, label)) in values.iter_mut().zip(&cells) {
            let mut cnf = if phi_positive {
                ground_truth.cnf_positive()
            } else {
                ground_truth.cnf_negative()
            };
            model.try_encode_label_bounded(&mut cnf, label, self.vote_node_bound)?;
            // The conjunction is unique to this (model, cell) pair: count
            // it transiently so compiling backends don't cache a circuit
            // that can never be reused.
            let mut outcome = self.backend.count_transient(&cnf);
            if outcome.is_budget_exhausted() {
                if let Some(ladder) = ladder {
                    outcome = ladder.rescue(&cnf, &[]);
                }
            }
            match meta.absorb(outcome) {
                None => return Ok(None),
                Some(v) => *slot = v,
            }
        }
        Ok(Some(SpaceCounts {
            tp: values[0],
            fp: values[1],
            tn: values[2],
            fn_: values[3],
        }))
    }

    /// The query plan: φ and the space SB are fixed queries, the model
    /// contributes only condition cubes. The model's regions partition the
    /// space, so summing `mc(φ | cube)` over the positive regions equals
    /// `mc(φ ∧ model_true)` (and analogously for the other three cells) —
    /// asserted by the engine-agreement regression tests.
    ///
    /// All regions of the model are evaluated **batched**: one
    /// [`count_cubes`](QueryCounter::count_cubes) call against φ and one
    /// against SB, which a compiled backend answers with a single
    /// topological sweep each. Each region's ¬φ count is `SB − φ` when both
    /// counts are exact. The remaining regions — φ rescued or approximate,
    /// or SB not exact — count ¬φ directly in one more batch, rescued
    /// exactly as before, so their (ε, δ) labels are unchanged.
    fn counts_by_regions(
        &self,
        ground_truth: &GroundTruth,
        regions: &[crate::encode::DecisionRegion],
        ladder: Option<&FallbackLadder>,
        meta: &mut OutcomeMeta,
    ) -> Result<Option<SpaceCounts>, EvalError> {
        let positive = ground_truth.cnf_positive_ref();
        let cubes: Vec<&[Lit]> = regions.iter().map(|r| r.cube.as_slice()).collect();
        // Absorb the φ side before paying for any other batch: if a count
        // already blew the budget here, the evaluation is void. An enabled
        // fallback ladder rescues exhausted (and batch-omitted) outcomes
        // per region first, so under it nothing here short-circuits.
        let phi_outcomes = self.count_batch(positive, &cubes);
        let phi_outcomes = rescue_batch(ladder, positive, &cubes, phi_outcomes);
        let mut in_phi = Vec::with_capacity(regions.len());
        // Regions whose φ count is exact: only these may derive ¬φ.
        let mut derivable = Vec::with_capacity(regions.len());
        for (i, outcome) in phi_outcomes.into_iter().enumerate() {
            if outcome.is_exact() {
                derivable.push(i);
            }
            match meta.absorb(outcome) {
                Some(v) => in_phi.push(v),
                None => return Ok(None),
            }
        }

        let mut in_not_phi: Vec<Option<u128>> = vec![None; regions.len()];
        let space_cubes = select(&cubes, &derivable);
        let space_outcomes = self.count_batch(ground_truth.cnf_space(), &space_cubes);
        for (&i, outcome) in derivable.iter().zip(space_outcomes) {
            if let CountOutcome::Exact(space) = outcome {
                let phi = in_phi[i];
                let derived = space
                    .checked_sub(phi)
                    .ok_or(EvalError::CountUnderflow { space, phi })?;
                in_not_phi[i] = Some(derived);
            }
        }

        let direct: Vec<usize> = (0..regions.len())
            .filter(|&i| in_not_phi[i].is_none())
            .collect();
        if !direct.is_empty() {
            let negative = ground_truth.cnf_negative_ref();
            let direct_cubes = select(&cubes, &direct);
            let outcomes = self.count_batch(negative, &direct_cubes);
            let outcomes = rescue_batch(ladder, negative, &direct_cubes, outcomes);
            for (&i, outcome) in direct.iter().zip(outcomes) {
                match meta.absorb(outcome) {
                    Some(v) => in_not_phi[i] = Some(v),
                    None => return Ok(None),
                }
            }
        }

        let mut counts = SpaceCounts::default();
        for (region, (in_phi, in_not_phi)) in regions.iter().zip(in_phi.into_iter().zip(in_not_phi))
        {
            let in_not_phi = in_not_phi.expect("every region's ¬φ count is derived or counted");
            match region.label {
                TreeLabel::True => {
                    counts.tp += in_phi;
                    counts.fp += in_not_phi;
                }
                TreeLabel::False => {
                    counts.fn_ += in_phi;
                    counts.tn += in_not_phi;
                }
            }
        }
        Ok(Some(counts))
    }

    /// One batched count of `cnf` over `cubes`.
    fn count_batch(&self, cnf: &Cnf, cubes: &[&[Lit]]) -> Vec<CountOutcome> {
        let outcomes = self.backend.count_cubes(cnf, cubes);
        crate::counter::debug_assert_batch_complete(&outcomes, cubes.len());
        outcomes
    }
}

/// The cubes at `indices`, in index order.
fn select<'c>(cubes: &[&'c [Lit]], indices: &[usize]) -> Vec<&'c [Lit]> {
    indices.iter().map(|&i| cubes[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlkit::data::Dataset;
    use mlkit::forest::{ForestConfig, RandomForest};
    use mlkit::tree::{DecisionTree, TreeConfig};
    use mlkit::Classifier;
    use relspec::instance::RelInstance;
    use relspec::properties::Property;
    use relspec::symmetry::SymmetryBreaking;
    use relspec::translate::{translate_to_cnf, TranslateOptions};

    /// Brute-force whole-space counts by iterating over every adjacency
    /// matrix at the scope.
    fn brute_counts<M: Classifier>(
        property: Property,
        scope: usize,
        symmetry: SymmetryBreaking,
        model: &M,
    ) -> SpaceCounts {
        let mut counts = SpaceCounts::default();
        for bits in 0u64..(1 << (scope * scope)) {
            let inst = RelInstance::from_bits(
                scope,
                (0..scope * scope).map(|k| bits >> k & 1 == 1).collect(),
            );
            if !symmetry.keeps(&inst) {
                continue;
            }
            let truth = property.holds(&inst);
            let predicted = model.predict(&inst.to_features());
            match (truth, predicted) {
                (true, true) => counts.tp += 1,
                (false, true) => counts.fp += 1,
                (false, false) => counts.tn += 1,
                (true, false) => counts.fn_ += 1,
            }
        }
        counts
    }

    fn labeled_dataset(property: Property, scope: usize) -> Dataset {
        let mut d = Dataset::new(scope * scope);
        for bits in 0u64..(1 << (scope * scope)) {
            let inst = RelInstance::from_bits(
                scope,
                (0..scope * scope).map(|k| bits >> k & 1 == 1).collect(),
            );
            d.push(inst.to_features(), property.holds(&inst));
        }
        d
    }

    #[test]
    fn counts_match_brute_force_scope3() {
        let scope = 3;
        for property in [
            Property::Reflexive,
            Property::Antisymmetric,
            Property::Function,
        ] {
            // Train on a small subsample so the tree is imperfect, which
            // exercises all four counts.
            let dataset = labeled_dataset(property, scope).subsample(60, 3);
            let tree = DecisionTree::fit(&dataset, TreeConfig::default());
            let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
            let backend = CounterBackend::exact();
            let result = AccMc::new(&backend)
                .evaluate(&gt, &tree)
                .expect("scopes match")
                .expect("no budget");
            let brute = brute_counts(property, scope, SymmetryBreaking::None, &tree);
            assert_eq!(result.counts, brute, "property {property}");
            assert_eq!(result.counts.total(), 512);
            assert!(result.is_exact());
        }
    }

    #[test]
    fn counts_match_brute_force_with_symmetry_breaking() {
        let scope = 3;
        let property = Property::PartialOrder;
        let dataset = labeled_dataset(property, scope).subsample(80, 9);
        let tree = DecisionTree::fit(&dataset, TreeConfig::default());
        let symmetry = SymmetryBreaking::Transpositions;
        let gt = translate_to_cnf(
            &property.spec(),
            TranslateOptions::new(scope).with_symmetry(symmetry),
        );
        let backend = CounterBackend::exact();
        let result = AccMc::new(&backend)
            .evaluate(&gt, &tree)
            .expect("scopes match")
            .expect("no budget");
        let brute = brute_counts(property, scope, symmetry, &tree);
        assert_eq!(result.counts, brute);
    }

    #[test]
    fn forest_counts_match_brute_force() {
        let scope = 3;
        let property = Property::Antisymmetric;
        let dataset = labeled_dataset(property, scope).subsample(100, 7);
        let forest = RandomForest::fit(
            &dataset,
            ForestConfig {
                num_trees: 7,
                seed: 5,
                ..ForestConfig::default()
            },
        );
        let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
        let backend = CounterBackend::exact();
        let result = AccMc::new(&backend)
            .evaluate(&gt, &forest)
            .expect("scopes match")
            .expect("no budget");
        let brute = brute_counts(property, scope, SymmetryBreaking::None, &forest);
        assert_eq!(result.counts, brute);
        assert_eq!(result.counts.total(), 512);
    }

    #[test]
    fn perfect_tree_scores_one() {
        // Reflexive at scope 2 is learnable exactly from the full space.
        let property = Property::Reflexive;
        let dataset = labeled_dataset(property, 2);
        let tree = DecisionTree::fit(&dataset, TreeConfig::default());
        let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(2));
        let backend = CounterBackend::exact();
        let result = AccMc::new(&backend)
            .evaluate(&gt, &tree)
            .expect("scopes match")
            .expect("no budget");
        assert_eq!(result.counts.fp, 0);
        assert_eq!(result.counts.fn_, 0);
        assert_eq!(result.metrics.accuracy, 1.0);
        assert_eq!(result.metrics.f1, 1.0);
    }

    #[test]
    fn approx_backend_close_to_exact() {
        let property = Property::Antisymmetric;
        let scope = 3;
        let dataset = labeled_dataset(property, scope).subsample(100, 5);
        let tree = DecisionTree::fit(&dataset, TreeConfig::default());
        let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
        let exact = CounterBackend::exact();
        let approx = CounterBackend::approx();
        let re = AccMc::new(&exact)
            .evaluate(&gt, &tree)
            .expect("scopes match")
            .expect("no budget");
        let ra = AccMc::new(&approx)
            .evaluate(&gt, &tree)
            .expect("scopes match")
            .expect("approx always answers");
        assert!(!ra.is_exact());
        // The whole space at scope 3 is only 512, so the approximate counter
        // enumerates exactly.
        let close = |a: u128, b: u128| (a as f64 - b as f64).abs() <= (b as f64) * 0.6 + 8.0;
        assert!(close(ra.counts.tp, re.counts.tp));
        assert!(close(ra.counts.tn, re.counts.tn));
    }

    #[test]
    fn budget_exhaustion_reports_none() {
        let property = Property::Transitive;
        let scope = 3;
        let dataset = labeled_dataset(property, scope).subsample(100, 5);
        let tree = DecisionTree::fit(&dataset, TreeConfig::default());
        let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
        let backend = CounterBackend::exact_with_budget(1);
        assert_eq!(
            AccMc::new(&backend).evaluate(&gt, &tree),
            Ok(None),
            "budget exhaustion is a value, not an error"
        );
    }

    #[test]
    fn compiled_engine_matches_classic_and_brute_force() {
        use crate::counter::CompiledCounter;
        let scope = 3;
        for property in [
            Property::Reflexive,
            Property::Antisymmetric,
            Property::Function,
        ] {
            let dataset = labeled_dataset(property, scope).subsample(60, 3);
            let tree = DecisionTree::fit(&dataset, TreeConfig::default());
            let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
            let exact = CounterBackend::exact();
            let classic = AccMc::new(&exact)
                .evaluate(&gt, &tree)
                .expect("scopes match")
                .expect("no budget");
            let compiled_backend = CompiledCounter::new();
            let compiled = AccMc::with_engine(&compiled_backend, CountingEngine::Compiled)
                .evaluate(&gt, &tree)
                .expect("scopes match")
                .expect("no budget");
            assert_eq!(compiled.counts, classic.counts, "property {property}");
            assert_eq!(
                compiled.counts,
                brute_counts(property, scope, SymmetryBreaking::None, &tree)
            );
            assert!(compiled.is_exact());
            assert_eq!(compiled.approx, None);
            // Exactly φ and the space were compiled, regardless of how many
            // regions the tree has; ¬φ never was.
            assert_compiled_phi_and_space_only(&compiled_backend, &gt);
        }
    }

    #[test]
    fn compiled_engine_covers_ensembles_by_regions() {
        use crate::counter::CompiledCounter;
        let scope = 3;
        let property = Property::Antisymmetric;
        let dataset = labeled_dataset(property, scope).subsample(100, 7);
        let forest = RandomForest::fit(
            &dataset,
            ForestConfig {
                num_trees: 5,
                seed: 5,
                ..ForestConfig::default()
            },
        );
        let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
        let backend = CompiledCounter::new();
        let result = AccMc::with_engine(&backend, CountingEngine::Compiled)
            .evaluate(&gt, &forest)
            .expect("scopes match")
            .expect("no budget");
        let brute = brute_counts(property, scope, SymmetryBreaking::None, &forest);
        assert_eq!(result.counts, brute);
        // The ensemble rides the region plan: only φ and the space compile.
        assert_compiled_phi_and_space_only(&backend, &gt);
    }

    /// Pins the compiled plan's circuits: φ and the space, never ¬φ.
    fn assert_compiled_phi_and_space_only(
        counter: &crate::counter::CompiledCounter,
        gt: &GroundTruth,
    ) {
        use crate::counter::cnf_fingerprint;
        let mut compiled: Vec<u128> = counter
            .snapshot_circuits()
            .into_iter()
            .map(|(key, _)| key)
            .collect();
        compiled.sort_unstable();
        let mut expected = vec![
            cnf_fingerprint(gt.cnf_positive_ref()),
            cnf_fingerprint(gt.cnf_space()),
        ];
        expected.sort_unstable();
        assert_eq!(compiled, expected, "φ and the space compiled, ¬φ not");
        assert_eq!(counter.stats().misses, 2);
    }

    /// A compiled counter that gives up on φ from region `fail_from` on (or
    /// inflates every φ count by `inflate`), optionally gives up on every
    /// ¬φ count, and logs the cubes queried against ¬φ.
    struct Rigged {
        inner: crate::counter::CompiledCounter,
        phi: u128,
        not_phi: u128,
        fail_from: usize,
        inflate: u128,
        exhaust_not_phi: bool,
        not_phi_cubes: std::sync::Mutex<Vec<Vec<Lit>>>,
    }

    impl Rigged {
        fn new(gt: &GroundTruth, fail_from: usize, inflate: u128) -> Self {
            use crate::counter::cnf_fingerprint;
            Rigged {
                inner: crate::counter::CompiledCounter::new(),
                phi: cnf_fingerprint(gt.cnf_positive_ref()),
                not_phi: cnf_fingerprint(gt.cnf_negative_ref()),
                fail_from,
                inflate,
                exhaust_not_phi: false,
                not_phi_cubes: std::sync::Mutex::new(Vec::new()),
            }
        }

        fn exhausting_not_phi(self) -> Self {
            Rigged {
                exhaust_not_phi: true,
                ..self
            }
        }
    }

    impl crate::counter::ModelCounter for Rigged {
        fn name(&self) -> &str {
            "rigged"
        }

        fn count(&self, cnf: &Cnf) -> CountOutcome {
            self.inner.count(cnf)
        }
    }

    impl QueryCounter for Rigged {
        fn count_cubes(&self, cnf: &Cnf, cubes: &[&[Lit]]) -> Vec<CountOutcome> {
            let key = crate::counter::cnf_fingerprint(cnf);
            if key == self.not_phi {
                let mut log = self.not_phi_cubes.lock().unwrap();
                log.extend(cubes.iter().map(|cube| cube.to_vec()));
                if self.exhaust_not_phi {
                    return vec![CountOutcome::BudgetExhausted { nodes_used: 1 }; cubes.len()];
                }
            }
            let mut outcomes = self.inner.count_cubes(cnf, cubes);
            if key == self.phi {
                for outcome in &mut outcomes {
                    if let CountOutcome::Exact(v) = outcome {
                        *v += self.inflate;
                    }
                }
                if outcomes.len() > self.fail_from {
                    outcomes.truncate(self.fail_from);
                    outcomes.push(CountOutcome::BudgetExhausted { nodes_used: 1 });
                }
            }
            outcomes
        }
    }

    #[test]
    fn rescued_regions_count_not_phi_directly_with_unchanged_labels() {
        let scope = 3;
        let property = Property::Transitive;
        let dataset = labeled_dataset(property, scope).subsample(100, 5);
        let tree = DecisionTree::fit(&dataset, TreeConfig::default());
        let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
        let regions = tree.decision_regions().expect("trees expose regions");
        assert!(regions.len() >= 4, "{} regions", regions.len());
        let cubes: Vec<&[Lit]> = regions.iter().map(|r| r.cube.as_slice()).collect();
        let fail_from = regions.len() / 2;

        let rigged = Rigged::new(&gt, fail_from, 0);
        let result = AccMc::with_engine(&rigged, CountingEngine::Compiled)
            .fallback(FallbackPolicy::approx())
            .evaluate(&gt, &tree)
            .expect("scopes match")
            .expect("the ladder always lands");
        // Only the rescued regions counted ¬φ, and directly.
        let queried = rigged.not_phi_cubes.lock().unwrap().clone();
        let rescued: Vec<Vec<Lit>> = cubes[fail_from..].iter().map(|c| c.to_vec()).collect();
        assert_eq!(queried, rescued);

        // The plan before subtraction: φ and ¬φ counted directly over every
        // region, both rescued, absorbed φ side first.
        let reference = Rigged::new(&gt, fail_from, 0);
        let ladder = FallbackLadder::new(
            FallbackPolicy::approx(),
            Some(scope),
            SymmetryBreaking::None,
        );
        let mut meta = OutcomeMeta::default();
        let mut counts = SpaceCounts::default();
        let mut sides = Vec::new();
        for cnf in [gt.cnf_positive_ref(), gt.cnf_negative_ref()] {
            let outcomes = reference.count_cubes(cnf, &cubes);
            let outcomes = rescue_batch(ladder.as_ref(), cnf, &cubes, outcomes);
            let values: Vec<u128> = outcomes
                .into_iter()
                .map(|o| meta.absorb(o).expect("rescued"))
                .collect();
            sides.push(values);
        }
        for (i, region) in regions.iter().enumerate() {
            match region.label {
                TreeLabel::True => {
                    counts.tp += sides[0][i];
                    counts.fp += sides[1][i];
                }
                TreeLabel::False => {
                    counts.fn_ += sides[0][i];
                    counts.tn += sides[1][i];
                }
            }
        }
        assert_eq!(result.counts, counts);
        let label = result.approx.expect("φ was rescued on some regions");
        assert_eq!(Some(label), meta.approx());
        let policy_delta = match FallbackPolicy::approx() {
            FallbackPolicy::SymmetryThenApprox { delta, .. } => delta,
            FallbackPolicy::Fail => unreachable!(),
        };
        let rescued_counts = (regions.len() - fail_from) as f64;
        assert!((label.delta - (rescued_counts * policy_delta).min(1.0)).abs() < 1e-12);
    }

    #[test]
    fn an_exact_phi_count_never_queries_not_phi() {
        // ¬φ's circuit is the costly one: a budget that φ fits in but ¬φ
        // would blow still yields exact, unlabelled counts, because ¬φ is
        // derived and never queried.
        let scope = 3;
        let property = Property::Transitive;
        let dataset = labeled_dataset(property, scope).subsample(100, 5);
        let tree = DecisionTree::fit(&dataset, TreeConfig::default());
        let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
        let rigged = Rigged::new(&gt, usize::MAX, 0).exhausting_not_phi();
        let result = AccMc::with_engine(&rigged, CountingEngine::Compiled)
            .fallback(FallbackPolicy::approx())
            .evaluate(&gt, &tree)
            .expect("scopes match")
            .expect("φ and the space count exactly");
        assert!(rigged.not_phi_cubes.lock().unwrap().is_empty());
        assert!(result.is_exact());
        assert_eq!(result.approx, None);
        let brute = brute_counts(property, scope, SymmetryBreaking::None, &tree);
        assert_eq!(result.counts, brute);
    }

    #[test]
    fn a_phi_count_past_its_space_is_an_error_not_a_wrapped_count() {
        let scope = 3;
        let property = Property::Function;
        let dataset = labeled_dataset(property, scope).subsample(60, 3);
        let tree = DecisionTree::fit(&dataset, TreeConfig::default());
        let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
        let rigged = Rigged::new(&gt, usize::MAX, 1 << 20);
        let result = AccMc::with_engine(&rigged, CountingEngine::Compiled).evaluate(&gt, &tree);
        assert!(
            matches!(result, Err(EvalError::CountUnderflow { .. })),
            "unexpected result {result:?}"
        );
    }

    #[test]
    fn compiled_engine_vote_bound_is_a_typed_error() {
        use crate::counter::CompiledCounter;
        let scope = 3;
        let property = Property::Antisymmetric;
        let dataset = labeled_dataset(property, scope).subsample(100, 7);
        let forest = RandomForest::fit(
            &dataset,
            ForestConfig {
                num_trees: 5,
                seed: 5,
                ..ForestConfig::default()
            },
        );
        let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
        let backend = CompiledCounter::new();
        let result = AccMc::with_engine(&backend, CountingEngine::Compiled)
            .vote_node_bound(1)
            .evaluate(&gt, &forest);
        assert!(
            matches!(result, Err(EvalError::VoteCircuitTooLarge { bound: 1, .. })),
            "unexpected result {result:?}"
        );
    }

    #[test]
    fn classic_engine_honours_the_vote_node_bound() {
        // The same knob bounds the classic path's ABT weighted-vote CNF
        // diagram — `--vote-nodes` is never a silent no-op.
        use mlkit::adaboost::{AdaBoost, AdaBoostConfig};
        let scope = 3;
        let property = Property::Antisymmetric;
        let dataset = labeled_dataset(property, scope).subsample(100, 7);
        let ensemble = AdaBoost::fit(
            &dataset,
            AdaBoostConfig {
                num_rounds: 4,
                weak_depth: 1,
                seed: 3,
            },
        );
        let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
        let backend = CounterBackend::exact();
        let result = AccMc::with_engine(&backend, CountingEngine::Classic)
            .vote_node_bound(1)
            .evaluate(&gt, &ensemble);
        assert!(
            matches!(result, Err(EvalError::VoteCircuitTooLarge { bound: 1, .. })),
            "unexpected result {result:?}"
        );
        assert!(AccMc::with_engine(&backend, CountingEngine::Classic)
            .evaluate(&gt, &ensemble)
            .expect("scopes match")
            .is_some());
    }

    #[test]
    fn approx_metadata_reaches_the_result() {
        let property = Property::Antisymmetric;
        let scope = 3;
        let dataset = labeled_dataset(property, scope).subsample(100, 5);
        let tree = DecisionTree::fit(&dataset, TreeConfig::default());
        let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
        let approx = CounterBackend::approx();
        let result = AccMc::new(&approx)
            .evaluate(&gt, &tree)
            .expect("scopes match")
            .expect("approx always answers");
        assert!(!result.is_exact());
        let info = result.approx.expect("approximate runs carry (ε, δ)");
        assert!(info.epsilon > 0.0 && info.delta > 0.0);

        // An exact run carries no (ε, δ).
        let exact = CounterBackend::exact();
        let exact_result = AccMc::new(&exact)
            .evaluate(&gt, &tree)
            .expect("scopes match")
            .expect("no budget");
        assert!(exact_result.is_exact());
        assert_eq!(exact_result.approx, None);
    }

    #[test]
    fn outcome_meta_takes_max_epsilon_and_union_bound_delta() {
        let mut meta = OutcomeMeta::default();
        assert_eq!(meta.absorb(CountOutcome::Exact(5)), Some(5));
        assert_eq!(meta.approx(), None);
        for (epsilon, delta) in [(0.4, 0.2), (0.2, 0.3)] {
            meta.absorb(CountOutcome::Approx {
                estimate: 1,
                epsilon,
                delta,
            });
        }
        let info = meta.approx().expect("approximate counts were absorbed");
        assert_eq!(info.epsilon, 0.4, "largest per-count tolerance");
        assert!(
            (info.delta - 0.5).abs() < 1e-12,
            "failure probabilities add (union bound), got {}",
            info.delta
        );
        // The union bound saturates at 1 (a vacuous guarantee).
        for _ in 0..4 {
            meta.absorb(CountOutcome::Approx {
                estimate: 1,
                epsilon: 0.1,
                delta: 0.3,
            });
        }
        assert_eq!(meta.approx().unwrap().delta, 1.0);
    }

    #[test]
    fn engine_parsing_round_trips() {
        for engine in [CountingEngine::Classic, CountingEngine::Compiled] {
            assert_eq!(CountingEngine::parse(engine.name()), Some(engine));
        }
        assert_eq!(CountingEngine::parse("ddnnf"), None);
        assert_eq!(CountingEngine::default(), CountingEngine::Classic);
    }

    #[test]
    fn mismatched_scope_is_a_typed_error() {
        let dataset = labeled_dataset(Property::Reflexive, 2);
        let tree = DecisionTree::fit(&dataset, TreeConfig::default());
        let gt = translate_to_cnf(&Property::Reflexive.spec(), TranslateOptions::new(3));
        let backend = CounterBackend::exact();
        assert_eq!(
            AccMc::new(&backend).evaluate(&gt, &tree),
            Err(EvalError::FeatureMismatch {
                model_features: 4,
                expected_features: 9,
                context: "ground truth",
            })
        );
    }
}
