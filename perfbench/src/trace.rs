//! The traced driver: one span per call into each layer, recorded from
//! outside the library.
//!
//! [`run_traced`] re-drives every cell of a batch with the same public calls
//! `Runner::run_family_row` makes — `DatasetBuilder::build`,
//! `translate_to_cnf`, `<Family>::fit` with the Runner's explicitly set
//! hyper-parameters, `evaluate_classifier` and `AccMc::evaluate` — on one
//! thread, in job order. Two wrappers see the calls `AccMc` makes into the
//! lower layers:
//!
//! * [`TracedEncodable`] spans `decision_regions_bounded` (region
//!   extraction) and `try_encode_label_bounded` (the classic engine's label
//!   CNF);
//! * [`TracedCounter`] spans `count`, `count_transient`,
//!   `count_conditioned` and `count_cubes`. On the compiled engine a call
//!   that raised `CompiledCounter::stats().misses` is charged to compile
//!   and every other call to sweep; on the classic engine every call is an
//!   exact search. Before the first `count_cubes` on a formula the wrapper
//!   compiles it with one plain count on the inner `CompiledCounter`, so a
//!   batch that compiles and then sweeps is split into its two parts
//!   instead of charging the whole sweep to compile.
//!
//! Spans live in memory and are written out as JSON lines when the run
//! ends. A span's self time is its duration minus its children's.

use crate::workload::{
    BatchSpec, ABT_DEPTH, ABT_ROUNDS, GBDT_DEPTH, GBDT_ROUNDS, MLP_HIDDEN, QUANT_BITS, RFT_TREES,
};
use datagen::builder::{DatasetBuilder, DatasetConfig};
use mcml::accmc::AccMc;
use mcml::backend::CounterBackend;
use mcml::counter::{
    cnf_fingerprint, CachedCounter, CompiledCounter, CountOutcome, ModelCounter, QueryCounter,
};
use mcml::encode::{CnfEncodable, DecisionRegion};
use mcml::error::EvalError;
use mcml::fallback::FallbackPolicy;
use mcml::framework::{
    evaluate_classifier, BatchOutcome, CellError, ExperimentConfig, ModelFamily, RunnerRow,
};
use mcml::tree2cnf::TreeLabel;
use mlkit::adaboost::{AdaBoost, AdaBoostConfig};
use mlkit::data::Dataset;
use mlkit::forest::{ForestConfig, RandomForest};
use mlkit::gbdt::{GbdtConfig, GradientBoosting};
use mlkit::mlp::{Mlp, MlpConfig};
use mlkit::quant::{QuantizedMlp, QuantizedSvm};
use mlkit::svm::{LinearSvm, SvmConfig};
use mlkit::tree::{DecisionTree, TreeConfig};
use mlkit::Classifier;
use relspec::translate::{translate_to_cnf, TranslateOptions};
use satkit::cnf::{Cnf, Lit};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `counter.compile`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the tracer was created.
    pub start_s: f64,
    /// End, seconds since the tracer was created.
    pub end_s: f64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

#[derive(Debug, Default)]
struct TraceState {
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

/// An in-memory span and counter recorder. Spans nest by call order, so it
/// is meant for one thread; the lock only makes the wrappers `Sync`.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: Mutex<TraceState>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            state: Mutex::new(TraceState::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceState> {
        self.state.lock().expect("a traced call panicked")
    }

    /// Opens a span whose name is given when it is closed.
    pub fn enter(&self) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        let mut state = self.lock();
        let id = state.spans.len();
        let parent = state.open.last().copied();
        state.spans.push(Span {
            name: "",
            parent,
            start_s: now,
            end_s: now,
        });
        state.open.push(id);
        id
    }

    /// Closes span `id` under `name`.
    pub fn exit(&self, id: usize, name: &'static str) {
        let now = self.origin.elapsed().as_secs_f64();
        let mut state = self.lock();
        state.open.retain(|&open| open != id);
        let span = &mut state.spans[id];
        span.name = name;
        span.end_s = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter();
        let out = f();
        self.exit(id, name);
        out
    }

    /// Adds `value` to counter `name`.
    pub fn add(&self, name: &'static str, value: f64) {
        *self.lock().counters.entry(name).or_insert(0.0) += value;
    }

    /// The value of counter `name` (0 if never added to).
    pub fn counter(&self, name: &str) -> f64 {
        self.lock().counters.get(name).copied().unwrap_or(0.0)
    }

    /// A copy of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Per-layer `(total seconds, self seconds, calls)`, keyed by span name.
    pub fn layers(&self) -> BTreeMap<&'static str, (f64, f64, usize)> {
        let spans = self.spans();
        let mut child_time = vec![0.0; spans.len()];
        for span in &spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.duration_s();
            }
        }
        let mut layers: BTreeMap<&'static str, (f64, f64, usize)> = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_time) {
            let entry = layers.entry(span.name).or_default();
            entry.0 += span.duration_s();
            entry.1 += span.duration_s() - children;
            entry.2 += 1;
        }
        layers
    }

    /// Total and self seconds of layer `name`.
    pub fn layer_s(&self, name: &str) -> (f64, f64) {
        self.layers()
            .get(name)
            .map(|&(total, own, _)| (total, own))
            .unwrap_or((0.0, 0.0))
    }

    /// Every span as one JSON object per line. `root` is the outermost
    /// enclosing span, shared by all spans of one cell.
    pub fn spans_jsonl(&self) -> String {
        let spans = self.spans();
        let mut out = String::new();
        for (id, span) in spans.iter().enumerate() {
            let mut root = id;
            while let Some(parent) = spans[root].parent {
                root = parent;
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"root\": {root}, \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}}}",
                span.name, span.start_s, span.end_s
            );
        }
        out
    }
}

/// A [`QueryCounter`] wrapper that spans every count and charges it to
/// compile, sweep or the exact search.
pub struct TracedCounter<'a> {
    inner: &'a CachedCounter<CounterBackend>,
    tracer: &'a Tracer,
    compiled_formulas: Mutex<HashSet<u128>>,
}

impl<'a> TracedCounter<'a> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: &'a CachedCounter<CounterBackend>, tracer: &'a Tracer) -> Self {
        TracedCounter {
            inner,
            tracer,
            compiled_formulas: Mutex::new(HashSet::new()),
        }
    }

    fn compiled(&self) -> Option<&CompiledCounter> {
        self.inner.inner().as_compiled()
    }

    /// Runs one count and closes its span under the layer that did the
    /// work; `cubes` is the number of conditioned counts it answered.
    fn traced<T>(&self, cubes: usize, count: impl FnOnce() -> T) -> T {
        let Some(compiled) = self.compiled() else {
            let out = self.tracer.span("exact.count", count);
            self.tracer.add("exact.counts", 1.0);
            return out;
        };
        let misses = compiled.stats().misses;
        let decisions = compiled.compile_stats().decisions;
        let id = self.tracer.enter();
        let out = count();
        let compiles = compiled.stats().misses - misses;
        if compiles > 0 {
            self.tracer.exit(id, "counter.compile");
            self.tracer.add("counter.compiles", compiles as f64);
            let decided = compiled.compile_stats().decisions - decisions;
            self.tracer.add("counter.decisions", decided as f64);
        } else {
            self.tracer.exit(id, "counter.sweep");
            self.tracer.add("counter.sweep_cubes", cubes as f64);
        }
        out
    }
}

impl ModelCounter for TracedCounter<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn count(&self, cnf: &Cnf) -> CountOutcome {
        self.traced(1, || self.inner.count(cnf))
    }

    fn count_transient(&self, cnf: &Cnf) -> CountOutcome {
        self.traced(1, || self.inner.count_transient(cnf))
    }
}

impl QueryCounter for TracedCounter<'_> {
    fn count_conditioned(&self, cnf: &Cnf, cube: &[Lit]) -> CountOutcome {
        self.traced(1, || self.inner.count_conditioned(cnf, cube))
    }

    fn count_cubes(&self, cnf: &Cnf, cubes: &[&[Lit]]) -> Vec<CountOutcome> {
        if let Some(compiled) = self.compiled() {
            let first_sight = self
                .compiled_formulas
                .lock()
                .expect("a traced count panicked")
                .insert(cnf_fingerprint(cnf));
            if first_sight {
                self.traced(0, || ModelCounter::count(compiled, cnf));
            }
        }
        self.traced(cubes.len(), || self.inner.count_cubes(cnf, cubes))
    }
}

/// A [`CnfEncodable`] wrapper that spans region extraction and label
/// encoding.
pub struct TracedEncodable<'a, M: ?Sized> {
    inner: &'a M,
    tracer: &'a Tracer,
}

impl<'a, M: CnfEncodable + ?Sized> TracedEncodable<'a, M> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: &'a M, tracer: &'a Tracer) -> Self {
        TracedEncodable { inner, tracer }
    }
}

impl<M: CnfEncodable + ?Sized> CnfEncodable for TracedEncodable<'_, M> {
    fn num_features(&self) -> usize {
        self.inner.num_features()
    }

    fn encode_label(&self, cnf: &mut Cnf, label: TreeLabel) {
        let before = cnf.num_clauses();
        self.tracer
            .span("encode.label_cnf", || self.inner.encode_label(cnf, label));
        self.tracer
            .add("encode.label_clauses", (cnf.num_clauses() - before) as f64);
    }

    fn try_encode_label_bounded(
        &self,
        cnf: &mut Cnf,
        label: TreeLabel,
        vote_node_bound: usize,
    ) -> Result<(), EvalError> {
        let before = cnf.num_clauses();
        let out = self.tracer.span("encode.label_cnf", || {
            self.inner
                .try_encode_label_bounded(cnf, label, vote_node_bound)
        });
        self.tracer.add(
            "encode.label_clauses",
            cnf.num_clauses().saturating_sub(before) as f64,
        );
        out
    }

    fn decision_regions_bounded(
        &self,
        vote_node_bound: usize,
    ) -> Result<Vec<DecisionRegion>, EvalError> {
        let out = self.tracer.span("encode.regions", || {
            self.inner.decision_regions_bounded(vote_node_bound)
        });
        if let Ok(regions) = &out {
            self.tracer.add("encode.regions", regions.len() as f64);
            let lits: usize = regions.iter().map(|r| r.cube.len()).sum();
            self.tracer.add("encode.cube_lits", lits as f64);
        }
        out
    }
}

/// A trained model: classifiable on the test set and encodable for the
/// whole-space evaluation.
trait Trained: Classifier + CnfEncodable {}

impl<T: Classifier + CnfEncodable> Trained for T {}

/// Fits `family` on `train` exactly as `Runner` does with the
/// hyper-parameters of [`crate::workload`], quantization included.
fn fit(config: &ExperimentConfig, family: ModelFamily, train: &Dataset) -> Box<dyn Trained> {
    match family {
        ModelFamily::Dt => Box::new(DecisionTree::fit(train, TreeConfig::default())),
        ModelFamily::Rft => Box::new(RandomForest::fit(
            train,
            ForestConfig {
                num_trees: RFT_TREES,
                seed: config.seed,
                ..ForestConfig::default()
            },
        )),
        ModelFamily::Gbdt => Box::new(GradientBoosting::fit(
            train,
            GbdtConfig {
                num_rounds: GBDT_ROUNDS,
                max_depth: GBDT_DEPTH,
                ..GbdtConfig::default()
            },
        )),
        ModelFamily::Abt => Box::new(AdaBoost::fit(
            train,
            AdaBoostConfig {
                num_rounds: ABT_ROUNDS,
                weak_depth: ABT_DEPTH,
                seed: config.seed,
            },
        )),
        ModelFamily::Mlp => {
            let float = Mlp::fit(
                train,
                MlpConfig {
                    hidden_units: MLP_HIDDEN,
                    seed: config.seed,
                    ..MlpConfig::default()
                },
            );
            Box::new(QuantizedMlp::from_mlp_calibrated(
                &float,
                QUANT_BITS,
                train.features(),
            ))
        }
        ModelFamily::Svm => {
            let float = LinearSvm::fit(
                train,
                SvmConfig {
                    seed: config.seed,
                    ..SvmConfig::default()
                },
            );
            Box::new(QuantizedSvm::from_svm(&float, QUANT_BITS))
        }
    }
}

/// A finished traced batch.
pub struct TracedRun {
    /// Rows and cell errors in job order, as `Runner::run_collect` returns
    /// them.
    pub outcome: BatchOutcome,
    /// Wall time of the whole traced batch.
    pub total_s: f64,
    /// The recorded spans and counters.
    pub tracer: Tracer,
    /// Nodes of every circuit the batch compiled.
    pub circuit_nodes: usize,
}

/// Runs `spec` single-threaded under the tracer, with a fresh backend.
pub fn run_traced(spec: &BatchSpec, seed: u64) -> TracedRun {
    let tracer = Tracer::new();
    let backend = spec.backend();
    let counter = TracedCounter::new(&backend, &tracer);
    let configs = spec.configs(seed);
    let start = Instant::now();
    let inputs: Vec<_> = configs
        .iter()
        .map(|config| {
            let dataset = tracer.span("datagen.build", || {
                DatasetBuilder::new().build(DatasetConfig {
                    property: config.property,
                    scope: config.scope,
                    symmetry: config.data_symmetry,
                    max_positive: config.max_positive,
                    seed: config.seed,
                })
            });
            tracer.add("datagen.rows", dataset.dataset.len() as f64);
            let truth = tracer.span("relspec.translate", || {
                translate_to_cnf(
                    &config.property.spec(),
                    TranslateOptions::new(config.scope).with_symmetry(config.eval_symmetry),
                )
            });
            tracer.add(
                "relspec.clauses",
                truth.cnf_positive_ref().num_clauses() as f64,
            );
            (dataset, truth)
        })
        .collect();
    let mut rows = Vec::new();
    let mut errors = Vec::new();
    for (config, (dataset, truth)) in configs.iter().zip(&inputs) {
        for &family in &spec.families {
            let cell = tracer.enter();
            let (train, test) = dataset.split(config.ratio);
            let model = tracer.span("mlkit.fit", || fit(config, family, &train));
            tracer.add("mlkit.models", 1.0);
            let test_metrics = evaluate_classifier(&*model, &test);
            let encodable = TracedEncodable::new(&*model, &tracer);
            let whole_space = tracer.span("accmc.evaluate", || {
                AccMc::with_engine(&counter, spec.engine)
                    .vote_node_bound(spec.vote_node_bound)
                    .fallback(FallbackPolicy::default())
                    .evaluate(truth, &encodable)
            });
            match whole_space {
                Ok(whole_space) => rows.push(RunnerRow {
                    config: *config,
                    family,
                    test_metrics,
                    whole_space,
                    dataset_size: dataset.dataset.len(),
                    train_size: train.len(),
                }),
                Err(error) => errors.push(CellError {
                    config: *config,
                    family,
                    error,
                }),
            }
            tracer.exit(cell, "cell");
        }
    }
    let total_s = start.elapsed().as_secs_f64();
    let circuit_nodes = backend
        .inner()
        .as_compiled()
        .map(|c| {
            c.snapshot_circuits()
                .iter()
                .map(|(_, d)| d.num_nodes())
                .sum()
        })
        .unwrap_or(0);
    TracedRun {
        outcome: BatchOutcome { rows, errors },
        total_s,
        tracer,
        circuit_nodes,
    }
}
