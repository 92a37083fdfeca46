//! Exhaustive agreement tests for the `CnfEncodable` model families: at
//! scopes 2–3 the whole input space (2^(n²) adjacency matrices) is small
//! enough to enumerate, so the AccMC counts produced through the CNF
//! encodings can be checked bit-for-bit against `Classifier::predict`.

use mcml::accmc::{AccMc, SpaceCounts};
use mcml::backend::CounterBackend;
use mcml::counter::{CachedCounter, ModelCounter};
use mcml::encode::CnfEncodable;
use mcml::tree2cnf::TreeLabel;
use mlkit::adaboost::{AdaBoost, AdaBoostConfig};
use mlkit::data::Dataset;
use mlkit::forest::{ForestConfig, RandomForest};
use mlkit::gbdt::{GbdtConfig, GradientBoosting};
use mlkit::mlp::{Mlp, MlpConfig};
use mlkit::quant::{QuantizedMlp, QuantizedSvm, DEFAULT_QUANT_BITS};
use mlkit::svm::{LinearSvm, SvmConfig};
use mlkit::tree::{DecisionTree, TreeConfig};
use mlkit::Classifier;
use modelcount::exact::ExactCounter;
use relspec::instance::RelInstance;
use relspec::properties::Property;
use relspec::translate::{translate_to_cnf, TranslateOptions};

/// The full labeled space of a property at a scope.
fn labeled_space(property: Property, scope: usize) -> Dataset {
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

/// Brute-force whole-space confusion counts from `Classifier::predict`.
fn brute_counts<M: Classifier + ?Sized>(
    property: Property,
    scope: usize,
    model: &M,
) -> SpaceCounts {
    let mut counts = SpaceCounts::default();
    for bits in 0u64..(1 << (scope * scope)) {
        let inst = RelInstance::from_bits(
            scope,
            (0..scope * scope).map(|k| bits >> k & 1 == 1).collect(),
        );
        match (property.holds(&inst), model.predict(&inst.to_features())) {
            (true, true) => counts.tp += 1,
            (false, true) => counts.fp += 1,
            (false, false) => counts.tn += 1,
            (true, false) => counts.fn_ += 1,
        }
    }
    counts
}

/// Asserts that the encoded AccMC counts equal the brute-force counts for
/// the model, at every scope in `scopes`.
fn check_family<M, F>(scopes: &[usize], properties: &[Property], train: F)
where
    M: CnfEncodable + Classifier,
    F: Fn(&Dataset, u64) -> M,
{
    let backend = CounterBackend::exact();
    for &scope in scopes {
        for (i, &property) in properties.iter().enumerate() {
            // Subsampled training keeps the models imperfect so all four
            // counts are exercised.
            let sample = labeled_space(property, scope).subsample(70, i as u64 + 11);
            let model = train(&sample, i as u64);
            let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
            let result = AccMc::new(&backend)
                .evaluate(&gt, &model)
                .expect("scopes match")
                .expect("exact backend has no budget");
            let brute = brute_counts(property, scope, &model);
            assert_eq!(
                result.counts, brute,
                "{property} at scope {scope} (model family mismatch)"
            );
            assert_eq!(result.counts.total(), 1u128 << (scope * scope));
        }
    }
}

const PROPERTIES: [Property; 4] = [
    Property::Reflexive,
    Property::Antisymmetric,
    Property::Function,
    Property::Transitive,
];

#[test]
fn decision_tree_counts_match_predictions_exhaustively() {
    check_family(&[2, 3], &PROPERTIES, |train, _seed| {
        DecisionTree::fit(train, TreeConfig::default())
    });
}

#[test]
fn random_forest_counts_match_predictions_exhaustively() {
    check_family(&[2, 3], &PROPERTIES, |train, seed| {
        RandomForest::fit(
            train,
            ForestConfig {
                num_trees: 7,
                seed,
                ..ForestConfig::default()
            },
        )
    });
}

#[test]
fn even_sized_forest_counts_match_predictions_exhaustively() {
    // Even tree counts exercise the tie-breaking side of the majority
    // threshold (`votes * 2 >= T` accepts an exact tie).
    check_family(&[3], &PROPERTIES[..2], |train, seed| {
        RandomForest::fit(
            train,
            ForestConfig {
                num_trees: 6,
                seed,
                ..ForestConfig::default()
            },
        )
    });
}

#[test]
fn gbdt_counts_match_predictions_exhaustively() {
    check_family(&[2, 3], &PROPERTIES, |train, _seed| {
        GradientBoosting::fit(
            train,
            GbdtConfig {
                num_rounds: 6,
                max_depth: 2,
                ..GbdtConfig::default()
            },
        )
    });
}

#[test]
fn adaboost_counts_match_predictions_exhaustively() {
    check_family(&[2, 3], &PROPERTIES, |train, seed| {
        AdaBoost::fit(
            train,
            AdaBoostConfig {
                num_rounds: 8,
                weak_depth: 2,
                seed,
            },
        )
    });
}

/// Trains the float MLP and returns its calibrated quantization — the
/// model the MLP table rows actually evaluate.
fn quantized_mlp(train: &Dataset, seed: u64) -> QuantizedMlp {
    let float = Mlp::fit(
        train,
        MlpConfig {
            hidden_units: 3,
            epochs: 30,
            seed,
            ..MlpConfig::default()
        },
    );
    QuantizedMlp::from_mlp_calibrated(&float, DEFAULT_QUANT_BITS, train.features())
}

/// Trains the float SVM and returns its integer-weight quantization.
fn quantized_svm(train: &Dataset, seed: u64) -> QuantizedSvm {
    let float = LinearSvm::fit(
        train,
        SvmConfig {
            seed,
            ..SvmConfig::default()
        },
    );
    QuantizedSvm::from_svm(&float, DEFAULT_QUANT_BITS)
}

#[test]
fn quantized_mlp_counts_match_predictions_exhaustively() {
    check_family(&[2, 3], &PROPERTIES, quantized_mlp);
}

#[test]
fn quantized_svm_counts_match_predictions_exhaustively() {
    check_family(&[2, 3], &PROPERTIES, quantized_svm);
}

#[test]
fn quantized_predictions_equal_encoded_semantics_on_every_input() {
    // The quantization-agreement pin: on every one of the 2^(scope²)
    // inputs, the quantized integer prediction must equal the semantics of
    // the compiled encoding — the decision regions contain the input in
    // exactly one cube whose label is the prediction.
    for scope in [2usize, 3] {
        let sample = labeled_space(Property::Function, scope).subsample(70, 7);
        let models: Vec<Box<dyn EncodableClassifier>> = vec![
            Box::new(quantized_mlp(&sample, 7)),
            Box::new(quantized_svm(&sample, 7)),
        ];
        for model in &models {
            let regions = model.as_encodable().decision_regions().expect("in budget");
            for bits in 0u64..(1 << (scope * scope)) {
                let features: Vec<u8> = (0..scope * scope).map(|k| (bits >> k & 1) as u8).collect();
                let holding: Vec<&TreeLabel> = regions
                    .iter()
                    .filter(|region| {
                        region.cube.iter().all(|lit| {
                            let value = features[lit.var().index()] == 1;
                            value == lit.is_positive()
                        })
                    })
                    .map(|region| &region.label)
                    .collect();
                assert_eq!(
                    holding.len(),
                    1,
                    "input {bits:b} must fall in exactly one cube"
                );
                let predicted = model.as_classifier().predict(&features);
                assert_eq!(
                    *holding[0] == TreeLabel::True,
                    predicted,
                    "scope {scope} input {bits:b}"
                );
            }
        }
    }
}

/// Object-safe pairing of the two sides compared by the
/// quantization-agreement pin.
trait EncodableClassifier {
    fn as_encodable(&self) -> &dyn CnfEncodable;
    fn as_classifier(&self) -> &dyn Classifier;
}

impl<M: CnfEncodable + Classifier> EncodableClassifier for M {
    fn as_encodable(&self) -> &dyn CnfEncodable {
        self
    }
    fn as_classifier(&self) -> &dyn Classifier {
        self
    }
}

#[test]
fn label_regions_partition_the_space_for_every_family() {
    let scope = 3;
    let property = Property::PartialOrder;
    let sample = labeled_space(property, scope).subsample(90, 3);
    let counter = ExactCounter::new();
    let models: Vec<(&str, Box<dyn CnfEncodable>)> = vec![
        (
            "DT",
            Box::new(DecisionTree::fit(&sample, TreeConfig::default())),
        ),
        (
            "RFT",
            Box::new(RandomForest::fit(
                &sample,
                ForestConfig {
                    num_trees: 5,
                    seed: 2,
                    ..ForestConfig::default()
                },
            )),
        ),
        (
            "GBDT",
            Box::new(GradientBoosting::fit(
                &sample,
                GbdtConfig {
                    num_rounds: 6,
                    max_depth: 2,
                    ..GbdtConfig::default()
                },
            )),
        ),
        (
            "ABT",
            Box::new(AdaBoost::fit(
                &sample,
                AdaBoostConfig {
                    num_rounds: 6,
                    weak_depth: 1,
                    seed: 2,
                },
            )),
        ),
        ("MLP", Box::new(quantized_mlp(&sample, 2))),
        ("SVM", Box::new(quantized_svm(&sample, 2))),
    ];
    for (name, model) in &models {
        let t = counter
            .count(&model.label_cnf(TreeLabel::True))
            .expect("no budget");
        let f = counter
            .count(&model.label_cnf(TreeLabel::False))
            .expect("no budget");
        assert_eq!(t + f, 512, "{name}: regions must partition the space");
    }
}

#[test]
fn cached_backend_reports_identical_counts() {
    // The memoizing wrapper must be semantically invisible.
    let property = Property::Function;
    let scope = 3;
    let sample = labeled_space(property, scope).subsample(60, 5);
    let forest = RandomForest::fit(
        &sample,
        ForestConfig {
            num_trees: 5,
            seed: 0,
            ..ForestConfig::default()
        },
    );
    let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
    let plain = CounterBackend::exact();
    let cached = CachedCounter::new(ExactCounter::new());
    let direct = AccMc::new(&plain).evaluate(&gt, &forest).unwrap().unwrap();
    let via_cache_cold = AccMc::new(&cached).evaluate(&gt, &forest).unwrap().unwrap();
    let via_cache_warm = AccMc::new(&cached).evaluate(&gt, &forest).unwrap().unwrap();
    assert_eq!(direct.counts, via_cache_cold.counts);
    assert_eq!(direct.counts, via_cache_warm.counts);
    let stats = cached.stats();
    assert_eq!(stats.misses, 4, "four distinct formulas");
    assert_eq!(stats.hits, 4, "second evaluation fully cached");
    assert_eq!(cached.name(), "cached");
}
