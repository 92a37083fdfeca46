//! Agreement tests between the counting engines: the d-DNNF
//! `CompiledCounter` must return exactly the counts of the search-based
//! `ExactCounter` on every formula class the reproduction produces, and the
//! compiled AccMC query plan (sums of conditioned region counts) must
//! reproduce the classic four-conjunction counts bit for bit.

use mcml::accmc::{AccMc, CountingEngine};
use mcml::backend::CounterBackend;
use mcml::counter::{cnf_fingerprint, CompiledCounter, CountOutcome, ModelCounter, QueryCounter};
use mcml::encode::CnfEncodable;
use mlkit::adaboost::{AdaBoost, AdaBoostConfig};
use mlkit::data::Dataset;
use mlkit::forest::{ForestConfig, RandomForest};
use mlkit::gbdt::{GbdtConfig, GradientBoosting};
use mlkit::mlp::{Mlp, MlpConfig};
use mlkit::quant::{QuantizedMlp, QuantizedSvm, DEFAULT_QUANT_BITS};
use mlkit::svm::{LinearSvm, SvmConfig};
use mlkit::tree::{DecisionTree, TreeConfig};
use modelcount::exact::ExactCounter;
use proptest::prelude::*;
use relspec::instance::RelInstance;
use relspec::properties::Property;
use relspec::symmetry::SymmetryBreaking;
use relspec::translate::{translate_to_cnf, GroundTruth, TranslateOptions};
use satkit::cnf::{Cnf, Lit, Var};

fn exact_count(cnf: &Cnf) -> u128 {
    ExactCounter::new().count(cnf).expect("no budget")
}

fn compiled_count(cnf: &Cnf) -> u128 {
    match ModelCounter::count(&CompiledCounter::new(), cnf) {
        CountOutcome::Exact(v) => v,
        other => panic!("compiled counter must be exact, got {other:?}"),
    }
}

/// Strategy: a random CNF over `max_vars` variables, optionally projected
/// onto a prefix of them.
fn arb_cnf(max_vars: usize, max_clauses: usize) -> impl Strategy<Value = Cnf> {
    let clause = prop::collection::vec((0..max_vars as u32, any::<bool>()), 1..=3);
    (prop::collection::vec(clause, 0..=max_clauses), 0..=max_vars).prop_map(
        move |(clauses, proj)| {
            let mut cnf = Cnf::new(max_vars);
            for c in clauses {
                let lits: Vec<Lit> = c
                    .into_iter()
                    .map(|(v, pos)| if pos { Lit::pos(v) } else { Lit::neg(v) })
                    .collect();
                cnf.add_clause(lits);
            }
            if proj > 0 {
                cnf.set_projection((0..proj as u32).map(Var).collect());
            }
            cnf
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CompiledCounter == ExactCounter on random (projected) CNFs.
    #[test]
    fn compiled_matches_exact_on_random_cnfs(cnf in arb_cnf(9, 18)) {
        prop_assert_eq!(compiled_count(&cnf), exact_count(&cnf));
    }

    /// Conditioned circuit queries == exact counts of the conjunction.
    #[test]
    fn conditioned_queries_match_unit_conjunctions(
        cnf in arb_cnf(8, 14),
        cube_spec in prop::collection::vec((0u32..8, any::<bool>()), 0..=3),
    ) {
        let cube: Vec<Lit> = cube_spec
            .into_iter()
            .filter(|(v, _)| {
                // Keep only projection variables (the cube contract).
                cnf.effective_projection().contains(&Var(*v))
            })
            .map(|(v, pos)| if pos { Lit::pos(v) } else { Lit::neg(v) })
            .collect();
        let compiled = CompiledCounter::new();
        let conditioned = match compiled.count_conditioned(&cnf, &cube) {
            CountOutcome::Exact(v) => v,
            other => panic!("compiled counter must be exact, got {other:?}"),
        };
        let mut asserted = cnf.clone();
        for &l in &cube {
            asserted.add_unit(l);
        }
        prop_assert_eq!(conditioned, exact_count(&asserted));
    }
}

/// Both engines on every table property at scopes 2 and 3, φ and ¬φ, with
/// and without symmetry breaking — the exhaustive formula set of the
/// whole-space tables.
#[test]
fn engines_agree_on_all_table_properties() {
    for property in Property::all() {
        for scope in [2usize, 3] {
            for symmetry in [SymmetryBreaking::None, SymmetryBreaking::Transpositions] {
                let gt = translate_to_cnf(
                    &property.spec(),
                    TranslateOptions::new(scope).with_symmetry(symmetry),
                );
                for cnf in [gt.cnf_positive(), gt.cnf_negative()] {
                    assert_eq!(
                        compiled_count(&cnf),
                        exact_count(&cnf),
                        "property {property}, scope {scope}, symmetry {symmetry:?}"
                    );
                }
            }
        }
    }
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

/// Regression for the compiled query plan: on every table property at scope
/// 3, the sum of conditioned region counts must equal the classic four
/// conjunction counts — same tp/fp/tn/fn, same derived metrics.
#[test]
fn region_sums_equal_classic_four_counts() {
    for property in Property::all() {
        let scope = 3;
        let dataset = labeled_dataset(property, scope).subsample(70, 11);
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
        assert_eq!(compiled.metrics, classic.metrics, "property {property}");
        assert_eq!(
            compiled.counts.total(),
            1u128 << (scope * scope),
            "regions must partition the whole space (property {property})"
        );
        // φ and the space compiled once for all regions; ¬φ never.
        assert_compiled_phi_and_space_only(&compiled_backend, &gt, &format!("{property}"));
    }
}

/// Pins the compiled plan's circuits: exactly φ and the space, never ¬φ.
fn assert_compiled_phi_and_space_only(counter: &CompiledCounter, gt: &GroundTruth, what: &str) {
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
    assert_eq!(
        compiled, expected,
        "φ and the space compiled, ¬φ not ({what})"
    );
    assert_eq!(counter.stats().misses, 2, "{what}");
}

/// Trains the compact ensemble trio the conformance tests use: a
/// three-tree majority-vote forest, a three-round boosted-stump ensemble,
/// and a three-round gradient-boosting ensemble — all small enough that
/// the exhaustive scope sweep stays fast while still exercising the
/// vote-BDD region extraction (binary folds for RFT/ABT, the staged
/// additive-score fold for GBDT).
fn fit_ensembles(train: &Dataset, seed: u64) -> (RandomForest, AdaBoost, GradientBoosting) {
    let forest = RandomForest::fit(
        train,
        ForestConfig {
            num_trees: 3,
            seed,
            ..ForestConfig::default()
        },
    );
    let ensemble = AdaBoost::fit(
        train,
        AdaBoostConfig {
            num_rounds: 3,
            weak_depth: 1,
            seed,
        },
    );
    let boosted = GradientBoosting::fit(
        train,
        GbdtConfig {
            num_rounds: 3,
            max_depth: 2,
            ..GbdtConfig::default()
        },
    );
    (forest, ensemble, boosted)
}

/// Exhaustive engine conformance for the voting ensembles: on every table
/// property at scopes 2 and 3, a random forest, a boosted ensemble and a
/// gradient-boosting ensemble must produce bit-identical whole-space
/// counts under the classic four-conjunction plan and the compiled
/// region-sum plan — and the compiled plan must reach them without ever
/// encoding the ensemble (only φ and the space are compiled, shared by all
/// three models).
#[test]
fn ensemble_engines_agree_on_all_table_properties() {
    for property in Property::all() {
        for scope in [2usize, 3] {
            let full = labeled_dataset(property, scope);
            let train = if scope == 3 {
                full.subsample(80, 13)
            } else {
                full
            };
            let (forest, ensemble, boosted) = fit_ensembles(&train, 7);
            let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));

            let exact = CounterBackend::exact();
            let compiled_backend = CompiledCounter::new();
            let models: [&dyn CnfEncodable; 3] = [&forest, &ensemble, &boosted];
            for (name, model) in ["RFT", "ABT", "GBDT"].into_iter().zip(models) {
                let classic = AccMc::new(&exact)
                    .evaluate(&gt, model)
                    .expect("scopes match")
                    .expect("no budget");
                let compiled = AccMc::with_engine(&compiled_backend, CountingEngine::Compiled)
                    .evaluate(&gt, model)
                    .expect("scopes match")
                    .expect("no budget");
                assert_eq!(
                    compiled.counts, classic.counts,
                    "{name}, property {property}, scope {scope}"
                );
                assert_eq!(
                    compiled.metrics, classic.metrics,
                    "{name}, property {property}, scope {scope}"
                );
                assert_eq!(
                    compiled.counts.total(),
                    1u128 << (scope * scope),
                    "{name} regions must partition the space \
                     (property {property}, scope {scope})"
                );
            }
            // φ and the space compiled once, shared by all three
            // ensembles; ¬φ never.
            assert_compiled_phi_and_space_only(
                &compiled_backend,
                &gt,
                &format!("property {property}, scope {scope}"),
            );
        }
    }
}

/// Region-sum regression per ensemble family, mirroring
/// [`region_sums_equal_classic_four_counts`] for trees: accumulating
/// per-region conditioned counts of φ / ¬φ by hand — the exact arithmetic
/// the compiled query plan performs — must reproduce the classic four
/// conjunction counts of the same trained model, and the sums must cover
/// the whole space exactly once.
#[test]
fn ensemble_region_sums_equal_classic_four_counts() {
    let property = Property::Antisymmetric;
    let scope = 3;
    let train = labeled_dataset(property, scope).subsample(100, 17);
    let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
    let (forest, ensemble, boosted) = fit_ensembles(&train, 23);

    let models: [(&str, &dyn CnfEncodable); 3] =
        [("RFT", &forest), ("ABT", &ensemble), ("GBDT", &boosted)];
    for (name, model) in models {
        let regions = model.decision_regions().expect("within the default bound");
        assert!(!regions.is_empty(), "{name} must expose regions");

        // The four classic conjunction counts, reconstructed per label from
        // the model's own label CNFs: tp+fp = |model-true|, tn+fn = ...
        let exact = CounterBackend::exact();
        let classic = AccMc::new(&exact)
            .evaluate(&gt, model)
            .expect("scopes match")
            .expect("no budget");

        // The region sums, computed directly (not through AccMc): for each
        // region, count φ and ¬φ conditioned on its cube, and accumulate
        // into the confusion cells by region label.
        let compiled_backend = CompiledCounter::new();
        let (mut tp, mut fp, mut tn, mut fn_) = (0u128, 0u128, 0u128, 0u128);
        for region in &regions {
            let pos = match compiled_backend.count_conditioned(&gt.cnf_positive(), &region.cube) {
                CountOutcome::Exact(v) => v,
                other => panic!("compiled counts are exact, got {other:?}"),
            };
            let neg = match compiled_backend.count_conditioned(&gt.cnf_negative(), &region.cube) {
                CountOutcome::Exact(v) => v,
                other => panic!("compiled counts are exact, got {other:?}"),
            };
            match region.label {
                mcml::tree2cnf::TreeLabel::True => {
                    tp += pos;
                    fp += neg;
                }
                mcml::tree2cnf::TreeLabel::False => {
                    fn_ += pos;
                    tn += neg;
                }
            }
        }
        assert_eq!(
            (tp, fp, tn, fn_),
            (
                classic.counts.tp,
                classic.counts.fp,
                classic.counts.tn,
                classic.counts.fn_
            ),
            "{name}"
        );
        assert_eq!(
            tp + fp + tn + fn_,
            1u128 << (scope * scope),
            "{name} region sums must cover the space exactly once"
        );
    }
}

/// Trains the quantized neural/margin pair the conformance tests use: a
/// calibrated three-unit binarized MLP and an integer-weight SVM, the
/// exact models the MLP/SVM table rows evaluate.
fn fit_quantized(train: &Dataset, seed: u64) -> (QuantizedMlp, QuantizedSvm) {
    let float_mlp = Mlp::fit(
        train,
        MlpConfig {
            hidden_units: 3,
            epochs: 30,
            seed,
            ..MlpConfig::default()
        },
    );
    let mlp = QuantizedMlp::from_mlp_calibrated(&float_mlp, DEFAULT_QUANT_BITS, train.features());
    let float_svm = LinearSvm::fit(
        train,
        SvmConfig {
            seed,
            ..SvmConfig::default()
        },
    );
    (mlp, QuantizedSvm::from_svm(&float_svm, DEFAULT_QUANT_BITS))
}

/// Exhaustive engine conformance for the quantized neural/margin families:
/// on every table property at scopes 2 and 3, the binarized MLP and the
/// integer-weight SVM must produce bit-identical whole-space counts under
/// the classic threshold-CNF plan and the compiled region-sum plan — with
/// φ and the space compiled once and shared by both models.
#[test]
fn quantized_engines_agree_on_all_table_properties() {
    for property in Property::all() {
        for scope in [2usize, 3] {
            let full = labeled_dataset(property, scope);
            let train = if scope == 3 {
                full.subsample(80, 13)
            } else {
                full
            };
            let (mlp, svm) = fit_quantized(&train, 7);
            let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));

            let exact = CounterBackend::exact();
            let compiled_backend = CompiledCounter::new();
            let models: [(&str, &dyn CnfEncodable); 2] = [("MLP", &mlp), ("SVM", &svm)];
            for (name, model) in models {
                let classic = AccMc::new(&exact)
                    .evaluate(&gt, model)
                    .expect("scopes match")
                    .expect("no budget");
                let compiled = AccMc::with_engine(&compiled_backend, CountingEngine::Compiled)
                    .evaluate(&gt, model)
                    .expect("scopes match")
                    .expect("no budget");
                assert_eq!(
                    compiled.counts, classic.counts,
                    "{name}, property {property}, scope {scope}"
                );
                assert_eq!(
                    compiled.metrics, classic.metrics,
                    "{name}, property {property}, scope {scope}"
                );
                assert_eq!(
                    compiled.counts.total(),
                    1u128 << (scope * scope),
                    "{name} regions must partition the space \
                     (property {property}, scope {scope})"
                );
            }
            // φ and the space compiled once, shared by both quantized
            // models; ¬φ never.
            assert_compiled_phi_and_space_only(
                &compiled_backend,
                &gt,
                &format!("property {property}, scope {scope}"),
            );
        }
    }
}

/// Region-sum regression for the quantized families, mirroring
/// [`ensemble_region_sums_equal_classic_four_counts`]: hand-accumulated
/// per-region conditioned counts must reproduce the classic four
/// conjunction counts and cover the space exactly once.
#[test]
fn quantized_region_sums_equal_classic_four_counts() {
    let property = Property::Antisymmetric;
    let scope = 3;
    let train = labeled_dataset(property, scope).subsample(100, 17);
    let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
    let (mlp, svm) = fit_quantized(&train, 23);

    let models: [(&str, &dyn CnfEncodable); 2] = [("MLP", &mlp), ("SVM", &svm)];
    for (name, model) in models {
        let regions = model.decision_regions().expect("within the default bound");
        assert!(!regions.is_empty(), "{name} must expose regions");

        let exact = CounterBackend::exact();
        let classic = AccMc::new(&exact)
            .evaluate(&gt, model)
            .expect("scopes match")
            .expect("no budget");

        let compiled_backend = CompiledCounter::new();
        let (mut tp, mut fp, mut tn, mut fn_) = (0u128, 0u128, 0u128, 0u128);
        for region in &regions {
            let pos = match compiled_backend.count_conditioned(&gt.cnf_positive(), &region.cube) {
                CountOutcome::Exact(v) => v,
                other => panic!("compiled counts are exact, got {other:?}"),
            };
            let neg = match compiled_backend.count_conditioned(&gt.cnf_negative(), &region.cube) {
                CountOutcome::Exact(v) => v,
                other => panic!("compiled counts are exact, got {other:?}"),
            };
            match region.label {
                mcml::tree2cnf::TreeLabel::True => {
                    tp += pos;
                    fp += neg;
                }
                mcml::tree2cnf::TreeLabel::False => {
                    fn_ += pos;
                    tn += neg;
                }
            }
        }
        assert_eq!(
            (tp, fp, tn, fn_),
            (
                classic.counts.tp,
                classic.counts.fp,
                classic.counts.tn,
                classic.counts.fn_
            ),
            "{name}"
        );
        assert_eq!(
            tp + fp + tn + fn_,
            1u128 << (scope * scope),
            "{name} region sums must cover the space exactly once"
        );
    }
}

/// The compiled engine also goes through any backend's generic conditioned
/// path — a plain exact counter produces identical results, just without
/// circuit reuse.
#[test]
fn compiled_engine_is_backend_agnostic() {
    let property = Property::Function;
    let scope = 3;
    let dataset = labeled_dataset(property, scope).subsample(60, 5);
    let tree = DecisionTree::fit(&dataset, TreeConfig::default());
    let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));

    let exact = ExactCounter::new();
    let via_search = AccMc::with_engine(&exact, CountingEngine::Compiled)
        .evaluate(&gt, &tree)
        .expect("scopes match")
        .expect("no budget");
    let compiled_backend = CompiledCounter::new();
    let via_circuit = AccMc::with_engine(&compiled_backend, CountingEngine::Compiled)
        .evaluate(&gt, &tree)
        .expect("scopes match")
        .expect("no budget");
    assert_eq!(via_search.counts, via_circuit.counts);
}

/// The batch plan derives each region's ¬φ count as `space − φ`. On every
/// table property at scopes 2 and 3, with symmetry breaking off and on,
/// and for tree, forest and quantized-MLP regions, that difference must
/// equal the direct ¬φ count of the same region and a brute-force count
/// over every adjacency matrix.
#[test]
fn derived_not_phi_equals_direct_not_phi_region_by_region() {
    for property in Property::all() {
        for scope in [2usize, 3] {
            let full = labeled_dataset(property, scope);
            let train = if scope == 3 {
                full.subsample(80, 13)
            } else {
                full
            };
            let tree = DecisionTree::fit(&train, TreeConfig::default());
            let (forest, _, _) = fit_ensembles(&train, 7);
            let (mlp, _) = fit_quantized(&train, 7);
            let models: [(&str, &dyn CnfEncodable); 3] =
                [("DT", &tree), ("RFT", &forest), ("MLP", &mlp)];
            for symmetry in [SymmetryBreaking::None, SymmetryBreaking::Transpositions] {
                let gt = translate_to_cnf(
                    &property.spec(),
                    TranslateOptions::new(scope).with_symmetry(symmetry),
                );
                let counter = CompiledCounter::new();
                let instances: Vec<RelInstance> = (0u64..1 << (scope * scope))
                    .map(|bits| {
                        RelInstance::from_bits(
                            scope,
                            (0..scope * scope).map(|k| bits >> k & 1 == 1).collect(),
                        )
                    })
                    .filter(|inst| symmetry.keeps(inst) && !property.holds(inst))
                    .collect();
                for (name, model) in models {
                    let regions = model.decision_regions().expect("within the default bound");
                    let cubes: Vec<&[Lit]> = regions.iter().map(|r| r.cube.as_slice()).collect();
                    let exact = |cnf: &Cnf| -> Vec<u128> {
                        counter
                            .count_cubes(cnf, &cubes)
                            .into_iter()
                            .map(|outcome| outcome.value().expect("no budget"))
                            .collect()
                    };
                    let phi = exact(gt.cnf_positive_ref());
                    let space = exact(gt.cnf_space());
                    let direct = exact(gt.cnf_negative_ref());
                    for (i, cube) in cubes.iter().enumerate() {
                        let what = format!(
                            "{name}, property {property}, scope {scope}, {symmetry:?}, region {i}"
                        );
                        let derived = space[i].checked_sub(phi[i]).expect(&what);
                        let brute = instances
                            .iter()
                            .filter(|inst| {
                                cube.iter()
                                    .all(|l| inst.bits()[l.var().index()] == l.is_positive())
                            })
                            .count() as u128;
                        assert_eq!(derived, direct[i], "{what}");
                        assert_eq!(derived, brute, "{what}");
                    }
                }
            }
        }
    }
}
