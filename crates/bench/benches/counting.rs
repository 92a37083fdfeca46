//! Criterion benchmarks for the model counters (exact vs approximate) on
//! ground-truth property formulas — the kernels behind Table 1 and the
//! Section 3 ApproxMC/ProjMC anecdote — and for the classic vs compiled
//! AccMC engines on a multi-model batch (the Table 3/5 access pattern).

use criterion::{criterion_group, BenchmarkId, Criterion};
use datagen::builder::{DatasetBuilder, DatasetConfig};
use mcml::accmc::{AccMc, CountingEngine};
use mcml::backend::CounterBackend;
use mcml::counter::CompiledCounter;
use mcml::encode::CnfEncodable;
use mcml::framework::ExperimentConfig;
use mlkit::adaboost::{AdaBoost, AdaBoostConfig};
use mlkit::data::Dataset;
use mlkit::forest::{ForestConfig, RandomForest};
use mlkit::gbdt::{GbdtConfig, GradientBoosting};
use mlkit::mlp::{Mlp, MlpConfig};
use mlkit::quant::{QuantizedMlp, QuantizedSvm, DEFAULT_QUANT_BITS};
use mlkit::svm::{LinearSvm, SvmConfig};
use mlkit::tree::{DecisionTree, TreeConfig};
use modelcount::approx::{ApproxConfig, ApproxCounter};
use modelcount::exact::ExactCounter;
use relspec::instance::RelInstance;
use relspec::properties::Property;
use relspec::symmetry::SymmetryBreaking;
use relspec::translate::{translate_to_cnf, TranslateOptions};
use std::hint::black_box;

fn bench_exact_counting(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_count_property");
    group.sample_size(10);
    for property in [
        Property::Reflexive,
        Property::Antisymmetric,
        Property::Function,
    ] {
        for scope in [3usize, 4] {
            let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
            let cnf = gt.cnf_positive();
            let counter = ExactCounter::new();
            group.bench_with_input(BenchmarkId::new(property.name(), scope), &cnf, |b, cnf| {
                b.iter(|| black_box(counter.count(black_box(cnf))))
            });
        }
    }
    group.finish();
}

fn bench_approx_counting(c: &mut Criterion) {
    let mut group = c.benchmark_group("approx_count_property");
    group.sample_size(10);
    for property in [Property::Antisymmetric, Property::PartialOrder] {
        let scope = 4;
        let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
        let cnf = gt.cnf_positive();
        let counter = ApproxCounter::new(ApproxConfig::default());
        group.bench_with_input(BenchmarkId::new(property.name(), scope), &cnf, |b, cnf| {
            b.iter(|| black_box(counter.count(black_box(cnf))))
        });
    }
    group.finish();
}

fn bench_symmetry_breaking_translation(c: &mut Criterion) {
    let mut group = c.benchmark_group("translate_with_symmetry");
    group.sample_size(20);
    for scope in [4usize, 5] {
        group.bench_with_input(BenchmarkId::from_parameter(scope), &scope, |b, &scope| {
            b.iter(|| {
                black_box(translate_to_cnf(
                    &Property::PartialOrder.spec(),
                    TranslateOptions::new(scope).with_symmetry(SymmetryBreaking::Transpositions),
                ))
            })
        });
    }
    group.finish();
}

/// Trains `count` distinct decision trees on different subsamples of the
/// full labeled space — stand-ins for the many models one (property, scope)
/// pair meets across table rows, seeds and families.
fn tree_batch(property: Property, scope: usize, count: usize) -> Vec<DecisionTree> {
    let mut full = Dataset::new(scope * scope);
    for bits in 0u64..(1 << (scope * scope)) {
        let inst = RelInstance::from_bits(
            scope,
            (0..scope * scope).map(|k| bits >> k & 1 == 1).collect(),
        );
        full.push(inst.to_features(), property.holds(&inst));
    }
    (0..count)
        .map(|seed| DecisionTree::fit(&full.subsample(80, seed as u64), TreeConfig::default()))
        .collect()
}

/// Classic vs compiled engine on a ≥8-model batch per property: the classic
/// engine re-searches four conjunctions per model, the compiled engine
/// compiles φ / ¬φ once and conditions them on every model's regions.
fn bench_accmc_engine_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("accmc_engine_batch8");
    group.sample_size(10);
    let scope = 3;
    for property in [Property::Antisymmetric, Property::Transitive] {
        let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
        let trees = tree_batch(property, scope, 8);
        group.bench_with_input(
            BenchmarkId::new(format!("classic/{}", property.name()), scope),
            &trees,
            |b, trees| {
                b.iter(|| {
                    let backend = CounterBackend::exact();
                    let accmc = AccMc::new(&backend);
                    for tree in trees {
                        black_box(accmc.evaluate(&gt, tree).unwrap().unwrap());
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("compiled/{}", property.name()), scope),
            &trees,
            |b, trees| {
                b.iter(|| {
                    // A fresh counter per iteration charges the compiled
                    // engine its full φ / ¬φ compilation cost.
                    let backend = CompiledCounter::new();
                    let accmc = AccMc::with_engine(&backend, CountingEngine::Compiled);
                    for tree in trees {
                        black_box(accmc.evaluate(&gt, tree).unwrap().unwrap());
                    }
                })
            },
        );
    }
    group.finish();
}

/// Trains an 8-model ensemble batch — four random forests and four boosted
/// ensembles on different subsamples — for one (property, scope) pair.
fn ensemble_batch(property: Property, scope: usize) -> Vec<Box<dyn CnfEncodable>> {
    let mut full = Dataset::new(scope * scope);
    for bits in 0u64..(1 << (scope * scope)) {
        let inst = RelInstance::from_bits(
            scope,
            (0..scope * scope).map(|k| bits >> k & 1 == 1).collect(),
        );
        full.push(inst.to_features(), property.holds(&inst));
    }
    let mut models: Vec<Box<dyn CnfEncodable>> = Vec::with_capacity(8);
    for seed in 0..4u64 {
        models.push(Box::new(RandomForest::fit(
            &full.subsample(80, seed),
            ForestConfig {
                num_trees: 5,
                seed,
                ..ForestConfig::default()
            },
        )));
        models.push(Box::new(AdaBoost::fit(
            &full.subsample(80, seed + 4),
            AdaBoostConfig {
                num_rounds: 5,
                weak_depth: 2,
                seed,
            },
        )));
    }
    models
}

/// Classic vs compiled engine on an 8-model *ensemble* batch (RFT + ABT):
/// the classic engine re-encodes every ensemble into four conjunction CNFs
/// and searches each, the compiled engine extracts vote-BDD region cubes
/// and conditions the φ / ¬φ circuits compiled once per property.
fn bench_accmc_ensemble_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("accmc_ensemble_batch8");
    group.sample_size(10);
    let scope = 3;
    for property in [Property::Antisymmetric, Property::Function] {
        let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
        let models = ensemble_batch(property, scope);
        group.bench_with_input(
            BenchmarkId::new(format!("classic/{}", property.name()), scope),
            &models,
            |b, models| {
                b.iter(|| {
                    let backend = CounterBackend::exact();
                    let accmc = AccMc::new(&backend);
                    for model in models {
                        black_box(accmc.evaluate(&gt, model.as_ref()).unwrap().unwrap());
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("compiled/{}", property.name()), scope),
            &models,
            |b, models| {
                b.iter(|| {
                    // A fresh counter per iteration charges the compiled
                    // engine its full φ / ¬φ compilation cost.
                    let backend = CompiledCounter::new();
                    let accmc = AccMc::with_engine(&backend, CountingEngine::Compiled);
                    for model in models {
                        black_box(accmc.evaluate(&gt, model.as_ref()).unwrap().unwrap());
                    }
                })
            },
        );
    }
    group.finish();
}

/// Trains an 8-model GBDT batch on different subsamples for one
/// (property, scope) pair. Six rounds of depth-2 trees keeps the staged
/// additive-score fold comfortably inside the default vote-node budget.
fn gbdt_batch(property: Property, scope: usize) -> Vec<GradientBoosting> {
    let mut full = Dataset::new(scope * scope);
    for bits in 0u64..(1 << (scope * scope)) {
        let inst = RelInstance::from_bits(
            scope,
            (0..scope * scope).map(|k| bits >> k & 1 == 1).collect(),
        );
        full.push(inst.to_features(), property.holds(&inst));
    }
    (0..8u64)
        .map(|seed| {
            GradientBoosting::fit(
                &full.subsample(80, seed),
                GbdtConfig {
                    num_rounds: 6,
                    max_depth: 2,
                    ..GbdtConfig::default()
                },
            )
        })
        .collect()
}

/// Classic vs compiled engine on an 8-model *GBDT* batch: the classic
/// engine compiles each ensemble's additive-score branching program into
/// four conjunction CNFs and searches them, the compiled engine folds the
/// per-tree leaf stages into a feature-space BDD (sifting on budget
/// pressure) and conditions the φ / ¬φ circuits compiled once per property.
fn bench_accmc_gbdt_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("accmc_gbdt_batch8");
    group.sample_size(10);
    let scope = 3;
    for property in [Property::Antisymmetric, Property::Function] {
        let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
        let models = gbdt_batch(property, scope);
        group.bench_with_input(
            BenchmarkId::new(format!("classic/{}", property.name()), scope),
            &models,
            |b, models| {
                b.iter(|| {
                    let backend = CounterBackend::exact();
                    let accmc = AccMc::new(&backend);
                    for model in models {
                        black_box(accmc.evaluate(&gt, model).unwrap().unwrap());
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("compiled/{}", property.name()), scope),
            &models,
            |b, models| {
                b.iter(|| {
                    // A fresh counter per iteration charges the compiled
                    // engine its full φ / ¬φ compilation cost.
                    let backend = CompiledCounter::new();
                    let accmc = AccMc::with_engine(&backend, CountingEngine::Compiled);
                    for model in models {
                        black_box(accmc.evaluate(&gt, model).unwrap().unwrap());
                    }
                })
            },
        );
    }
    group.finish();
}

/// Trains an 8-model quantized neural/margin batch — four calibrated
/// sign-activation MLPs and four integer-weight SVMs on different
/// subsamples — for one (property, scope) pair. These are the models the
/// MLP/SVM table rows evaluate: the float parents are discarded.
fn quant_batch(property: Property, scope: usize) -> Vec<Box<dyn CnfEncodable>> {
    let mut full = Dataset::new(scope * scope);
    for bits in 0u64..(1 << (scope * scope)) {
        let inst = RelInstance::from_bits(
            scope,
            (0..scope * scope).map(|k| bits >> k & 1 == 1).collect(),
        );
        full.push(inst.to_features(), property.holds(&inst));
    }
    let mut models: Vec<Box<dyn CnfEncodable>> = Vec::with_capacity(8);
    for seed in 0..4u64 {
        let train = full.subsample(80, seed);
        let mlp = Mlp::fit(
            &train,
            MlpConfig {
                hidden_units: 4,
                epochs: 30,
                seed,
                ..MlpConfig::default()
            },
        );
        models.push(Box::new(QuantizedMlp::from_mlp_calibrated(
            &mlp,
            DEFAULT_QUANT_BITS,
            train.features(),
        )));
        let svm = LinearSvm::fit(
            &full.subsample(80, seed + 4),
            SvmConfig {
                seed,
                ..SvmConfig::default()
            },
        );
        models.push(Box::new(QuantizedSvm::from_svm(&svm, DEFAULT_QUANT_BITS)));
    }
    models
}

/// Classic vs compiled engine on an 8-model quantized MLP + SVM batch:
/// the classic engine asserts the signed pseudo-Boolean thresholds into
/// four conjunction CNFs per model and searches them, the compiled engine
/// builds weighted-threshold BDDs (the MLP output stage through the
/// staged vote fold) and conditions the φ / ¬φ circuits compiled once per
/// property.
fn bench_accmc_mlp_svm_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("accmc_mlp_svm_batch8");
    group.sample_size(10);
    let scope = 3;
    for property in [Property::Antisymmetric, Property::Function] {
        let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
        let models = quant_batch(property, scope);
        group.bench_with_input(
            BenchmarkId::new(format!("classic/{}", property.name()), scope),
            &models,
            |b, models| {
                b.iter(|| {
                    let backend = CounterBackend::exact();
                    let accmc = AccMc::new(&backend);
                    for model in models {
                        black_box(accmc.evaluate(&gt, model.as_ref()).unwrap().unwrap());
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("compiled/{}", property.name()), scope),
            &models,
            |b, models| {
                b.iter(|| {
                    // A fresh counter per iteration charges the compiled
                    // engine its full φ / ¬φ compilation cost.
                    let backend = CompiledCounter::new();
                    let accmc = AccMc::with_engine(&backend, CountingEngine::Compiled);
                    for model in models {
                        black_box(accmc.evaluate(&gt, model.as_ref()).unwrap().unwrap());
                    }
                })
            },
        );
    }
    group.finish();
}

/// The 15-tree random forests `table5` fits at scope 4 (experiment seed
/// 0) for the properties whose vote fold hits the default node budget:
/// their region extraction is the fold's two-rung pressure response
/// (restart from sifted voters, then in-flight sifting) plus the cover.
fn bench_regions_rft_pressure(c: &mut Criterion) {
    let mut group = c.benchmark_group("regions_rft_pressure");
    group.sample_size(10);
    for property in [
        Property::Antisymmetric,
        Property::Functional,
        Property::PartialOrder,
        Property::Transitive,
    ] {
        let config = ExperimentConfig::table5(property, 4);
        let dataset = DatasetBuilder::new().build(DatasetConfig {
            property,
            scope: config.scope,
            symmetry: config.data_symmetry,
            max_positive: config.max_positive,
            seed: config.seed,
        });
        let (train, _) = dataset.split(config.ratio);
        let forest = RandomForest::fit(
            &train,
            ForestConfig {
                num_trees: 15,
                seed: config.seed,
                ..ForestConfig::default()
            },
        );
        group.bench_with_input(
            BenchmarkId::new(property.name(), config.scope),
            &forest,
            |b, forest| b.iter(|| black_box(forest.decision_regions().unwrap().len())),
        );
    }
    group.finish();
}

fn fast_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group!(
    name = benches;
    config = fast_config();
    targets =
    bench_exact_counting,
    bench_approx_counting,
    bench_accmc_engine_batch,
    bench_accmc_ensemble_batch,
    bench_accmc_gbdt_batch,
    bench_accmc_mlp_svm_batch,
    bench_regions_rft_pressure,
    bench_symmetry_breaking_translation
);

/// Escapes a string for embedding in a JSON document (labels are plain
/// ASCII, but correctness is cheap).
fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Per-(property, scope) compile statistics of the φ / ¬φ circuits the
/// compiled benches exercise: decisions, conflicts, component-cache hit
/// rate and the cross-query shared-cache hit rate (¬φ reusing φ's
/// components), so a branching-heuristic or reuse regression is visible in
/// the perf trail even before it shows up as slower wall-clock.
fn compile_stats_json() -> String {
    let scope = 3;
    let mut entries = Vec::new();
    for property in [
        Property::Antisymmetric,
        Property::Transitive,
        Property::Function,
    ] {
        let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
        let backend = CompiledCounter::new();
        // Compile φ and ¬φ exactly like the compiled engine does.
        let _ = mcml::counter::ModelCounter::count(&backend, &gt.cnf_positive());
        let _ = mcml::counter::ModelCounter::count(&backend, &gt.cnf_negative());
        let stats = backend.compile_stats();
        entries.push(format!(
            "    \"{}/{}\": {{\"decisions\": {}, \"conflicts\": {}, \"cache_hits\": {}, \
             \"cache_lookups\": {}, \"cache_hit_rate\": {:.4}, \"sat_calls\": {}, \
             \"shared_hits\": {}, \"shared_lookups\": {}, \"shared_hit_rate\": {:.4}}}",
            json_escape(property.name()),
            scope,
            stats.decisions,
            stats.conflicts,
            stats.cache_hits,
            stats.cache_lookups,
            stats.cache_hit_rate(),
            stats.sat_calls,
            stats.shared_hits,
            stats.shared_lookups,
            stats.shared_hit_rate(),
        ));
    }
    entries.join(",\n")
}

/// Classic-over-compiled wall-clock ratios for every benchmark that ran in
/// both engine variants — the headline number the PR perf gates read.
fn speedups_json(records: &[criterion::BenchRecord]) -> String {
    let mut entries = Vec::new();
    for rec in records {
        let Some(idx) = rec.label.find("/compiled/") else {
            continue;
        };
        let classic_label = format!(
            "{}/classic/{}",
            &rec.label[..idx],
            &rec.label[idx + "/compiled/".len()..]
        );
        if let Some(classic) = records.iter().find(|r| r.label == classic_label) {
            if rec.mean_ns > 0 {
                entries.push(format!(
                    "    \"{}\": {:.2}",
                    json_escape(&rec.label),
                    classic.mean_ns as f64 / rec.mean_ns as f64
                ));
            }
        }
    }
    entries.join(",\n")
}

/// Writes the machine-readable bench report: per-bench mean/min/max
/// nanoseconds, compile stats of the φ / ¬φ circuits, and the
/// classic-vs-compiled speedup ratios.
fn write_json_report(path: &str) {
    let records = criterion::recorded_benches();
    let benches: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
                 \"samples\": {}}}",
                json_escape(&r.label),
                r.mean_ns,
                r.min_ns,
                r.max_ns,
                r.samples
            )
        })
        .collect();
    let report = format!(
        "{{\n  \"schema\": 1,\n  \"mode\": \"{}\",\n  \"benches\": [\n{}\n  ],\n  \
         \"compile_stats\": {{\n{}\n  }},\n  \"speedups\": {{\n{}\n  }}\n}}\n",
        if criterion::smoke_mode() {
            "smoke"
        } else {
            "measure"
        },
        benches.join(",\n"),
        compile_stats_json(),
        speedups_json(&records),
    );
    std::fs::write(path, report).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}

fn main() {
    benches();
    if let Some(path) = criterion::json_output_path("BENCH_counting.json") {
        write_json_report(&path);
    }
}
