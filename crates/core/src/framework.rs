//! The end-to-end MCML experiment pipeline.
//!
//! One [`Experiment`] reproduces one row of the paper's Tables 3, 5, 6 or 7:
//! build the property dataset (with the configured symmetry-breaking
//! setting), split it, train a model, evaluate it traditionally on the
//! held-out test set, and then evaluate it against the entire bounded input
//! space with [`AccMc`] using a ground truth that may carry a *different*
//! symmetry-breaking setting (the mismatch scenarios of RQ4).
//!
//! The batch-oriented [`Runner`] supersedes driving [`Experiment`] in a
//! loop: it deduplicates dataset construction and ground-truth translation
//! across rows, trains any subset of the [`ModelFamily`] encodable families
//! per row, executes rows in parallel with `std::thread::scope`, and
//! surfaces malformed rows as typed [`EvalError`]s instead of panicking.
//! Rows are scheduled as *cells* — `(property × scope × family × config)`
//! units ordered largest-estimated-cost-first over work-stealing deques —
//! and every finished cell can be streamed out through a [`RowSink`] the
//! moment it lands ([`Runner::run_stream`]), or collected with a typed
//! per-cell error list ([`Runner::run_collect`]) so one bad row no longer
//! discards the rest of the batch.
//!
//! [`evaluate_all_models`] covers Tables 2 and 4: it trains all six model
//! families on the same split and reports their test-set metrics.

use crate::accmc::{AccMc, AccMcResult, CountingEngine};
use crate::artifact::{CircuitArtifact, RegionCover};
use crate::counter::{cnf_fingerprint, CompiledCounter, ModelCounter, QueryCounter};
use crate::encode::CnfEncodable;
use crate::error::EvalError;
use crate::fallback::FallbackPolicy;
use datagen::builder::{DatasetBuilder, DatasetConfig, PropertyDataset, SplitRatio};
use mlkit::adaboost::{AdaBoost, AdaBoostConfig};
use mlkit::data::Dataset;
use mlkit::forest::{ForestConfig, RandomForest};
use mlkit::gbdt::{GbdtConfig, GradientBoosting};
use mlkit::metrics::{BinaryMetrics, ConfusionMatrix};
use mlkit::mlp::{Mlp, MlpConfig};
use mlkit::quant::{QuantizedMlp, QuantizedSvm, DEFAULT_QUANT_BITS};
use mlkit::svm::{LinearSvm, SvmConfig};
use mlkit::tree::{DecisionTree, TreeConfig};
use mlkit::Classifier;
use relspec::properties::Property;
use relspec::symmetry::SymmetryBreaking;
use relspec::translate::{translate_to_cnf, GroundTruth, TranslateOptions};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Configuration of one whole-space experiment (one table row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExperimentConfig {
    /// The relational property under study.
    pub property: Property,
    /// Scope (number of atoms).
    pub scope: usize,
    /// Symmetry breaking used to generate the training/test datasets.
    pub data_symmetry: SymmetryBreaking,
    /// Symmetry breaking constraining the ground truth φ for the whole-space
    /// evaluation (may differ from `data_symmetry`, reproducing RQ4).
    pub eval_symmetry: SymmetryBreaking,
    /// Train:test split ratio.
    pub ratio: SplitRatio,
    /// Cap on the number of positive samples enumerated.
    pub max_positive: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// A configuration with the defaults shared by the AccMC tables.
    ///
    /// The paper trains the Table 3/5/6/7 trees on 10% of datasets holding
    /// ≥20 000 samples, i.e. on roughly 2 000 training rows. At this
    /// reproduction's reduced scopes the whole dataset holds a few hundred
    /// rows, so a 10:90 split would leave only tens of training samples; the
    /// default here is a 50:50 split, which puts the *absolute* training-set
    /// size back in a comparable regime while keeping a large held-out set.
    pub fn new(property: Property, scope: usize) -> Self {
        ExperimentConfig {
            property,
            scope,
            data_symmetry: SymmetryBreaking::Transpositions,
            eval_symmetry: SymmetryBreaking::Transpositions,
            ratio: SplitRatio::new(50),
            max_positive: 2_000,
            seed: 0,
        }
    }

    /// Table 3: data with symmetry breaking, φ constrained by the same
    /// symmetry breaking.
    pub fn table3(property: Property, scope: usize) -> Self {
        ExperimentConfig::new(property, scope)
    }

    /// Table 5: neither the data nor φ use symmetry breaking.
    pub fn table5(property: Property, scope: usize) -> Self {
        ExperimentConfig {
            data_symmetry: SymmetryBreaking::None,
            eval_symmetry: SymmetryBreaking::None,
            ..ExperimentConfig::new(property, scope)
        }
    }

    /// Table 6: data with symmetry breaking, φ unconstrained (mismatch 1).
    pub fn table6(property: Property, scope: usize) -> Self {
        ExperimentConfig {
            eval_symmetry: SymmetryBreaking::None,
            ..ExperimentConfig::new(property, scope)
        }
    }

    /// Table 7: data without symmetry breaking, φ constrained (mismatch 2).
    pub fn table7(property: Property, scope: usize) -> Self {
        ExperimentConfig {
            data_symmetry: SymmetryBreaking::None,
            eval_symmetry: SymmetryBreaking::Transpositions,
            ..ExperimentConfig::new(property, scope)
        }
    }

    fn dataset_config(&self) -> DatasetConfig {
        DatasetConfig {
            property: self.property,
            scope: self.scope,
            symmetry: self.data_symmetry,
            max_positive: self.max_positive,
            seed: self.seed,
        }
    }

    fn ground_truth_key(&self) -> GroundTruthKey {
        (self.property, self.scope, self.eval_symmetry)
    }

    fn translate_ground_truth(&self) -> GroundTruth {
        translate_to_cnf(
            &self.property.spec(),
            TranslateOptions::new(self.scope).with_symmetry(self.eval_symmetry),
        )
    }
}

/// Key identifying one distinct ground-truth translation in a batch.
type GroundTruthKey = (Property, usize, SymmetryBreaking);

/// Result of one decision-tree experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The configuration that produced this result.
    pub config: ExperimentConfig,
    /// Traditional metrics on the held-out test set.
    pub test_metrics: BinaryMetrics,
    /// Whole-space AccMC result (`None` when the counter's budget ran out —
    /// the paper's "-" cells).
    pub whole_space: Option<AccMcResult>,
    /// Number of leaves of the trained tree.
    pub tree_leaves: usize,
    /// Depth of the trained tree.
    pub tree_depth: usize,
    /// Total size of the balanced dataset.
    pub dataset_size: usize,
    /// Number of training samples.
    pub train_size: usize,
}

/// One decision-tree experiment (dataset → train → test metrics → AccMC).
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    config: ExperimentConfig,
}

impl Experiment {
    /// Creates the experiment.
    pub fn new(config: ExperimentConfig) -> Self {
        Experiment { config }
    }

    /// The experiment's configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Runs the experiment with the given counting backend (classic
    /// engine).
    pub fn run<C: QueryCounter + ?Sized>(&self, backend: &C) -> ExperimentResult {
        self.run_with_engine(backend, CountingEngine::Classic)
    }

    /// Runs the experiment with an explicit [`CountingEngine`].
    pub fn run_with_engine<C: QueryCounter + ?Sized>(
        &self,
        backend: &C,
        engine: CountingEngine,
    ) -> ExperimentResult {
        let dataset = DatasetBuilder::new().build(self.config.dataset_config());
        let ground_truth = self.config.translate_ground_truth();
        run_dt_row(
            &self.config,
            &dataset,
            &ground_truth,
            backend,
            engine,
            crate::encode::MAX_VOTE_NODES,
            FallbackPolicy::default(),
        )
        .expect("dataset and ground truth share the scope by construction")
    }

    /// Runs only the training/test part and returns the trained tree along
    /// with its test metrics (used by the DiffMC and class-ratio harnesses).
    pub fn train_tree(&self, tree_config: TreeConfig) -> (DecisionTree, BinaryMetrics) {
        let dataset = DatasetBuilder::new().build(self.config.dataset_config());
        let (train, test) = dataset.split(self.config.ratio);
        let tree = DecisionTree::fit(&train, tree_config);
        let metrics = evaluate_classifier(&tree, &test);
        (tree, metrics)
    }
}

/// Shared per-row pipeline: split, train a default decision tree, evaluate
/// on the test set and against the whole space. Both the sequential
/// [`Experiment::run`] and the parallel [`Runner`] call this, which is what
/// guarantees their metrics are identical.
#[allow(clippy::too_many_arguments)]
fn run_dt_row<C: QueryCounter + ?Sized>(
    config: &ExperimentConfig,
    dataset: &PropertyDataset,
    ground_truth: &GroundTruth,
    backend: &C,
    engine: CountingEngine,
    vote_node_bound: usize,
    fallback: FallbackPolicy,
) -> Result<ExperimentResult, EvalError> {
    let (train, test) = dataset.split(config.ratio);
    let tree = DecisionTree::fit(&train, TreeConfig::default());
    let test_metrics = evaluate_classifier(&tree, &test);
    let whole_space = AccMc::with_engine(backend, engine)
        .vote_node_bound(vote_node_bound)
        .fallback(fallback)
        .evaluate(ground_truth, &tree)?;
    Ok(ExperimentResult {
        config: *config,
        test_metrics,
        whole_space,
        tree_leaves: tree.num_leaves(),
        tree_depth: tree.depth(),
        dataset_size: dataset.dataset.len(),
        train_size: train.len(),
    })
}

/// The model families eligible for whole-space (CNF-encodable) evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// CART decision tree.
    Dt,
    /// Random forest (majority vote).
    Rft,
    /// Gradient-boosted regression trees (additive score).
    Gbdt,
    /// AdaBoost over depth-limited stumps (weighted vote).
    Abt,
    /// Binarized multi-layer perceptron: trained as a float ReLU network,
    /// then post-training quantized to sign activations and fixed-point
    /// integer weights ([`QuantizedMlp`]) so every hidden unit becomes a
    /// pseudo-Boolean threshold over the input literals.
    Mlp,
    /// Linear SVM quantized to integer weights ([`QuantizedSvm`]): a single
    /// pseudo-Boolean threshold over the input literals.
    Svm,
}

impl ModelFamily {
    /// All encodable families, in the order the paper's tables list the
    /// tree ensembles (DT, RFT, GBDT, ABT) followed by the quantized
    /// neural/margin families (MLP, SVM). Returned as a slice so call sites
    /// iterate the roster instead of pattern-matching a fixed arity —
    /// adding a family extends every `all()` consumer automatically.
    pub fn all() -> &'static [ModelFamily] {
        &[
            ModelFamily::Dt,
            ModelFamily::Rft,
            ModelFamily::Gbdt,
            ModelFamily::Abt,
            ModelFamily::Mlp,
            ModelFamily::Svm,
        ]
    }

    /// The paper's short name (`DT`, `RFT`, `GBDT`, `ABT`, `MLP`, `SVM`).
    pub fn name(&self) -> &'static str {
        match self {
            ModelFamily::Dt => "DT",
            ModelFamily::Rft => "RFT",
            ModelFamily::Gbdt => "GBDT",
            ModelFamily::Abt => "ABT",
            ModelFamily::Mlp => "MLP",
            ModelFamily::Svm => "SVM",
        }
    }

    /// Parses a case-insensitive family name (`"dt"`, `"rft"`, `"gbdt"`,
    /// `"abt"`, `"mlp"`, `"svm"`).
    pub fn parse(name: &str) -> Option<ModelFamily> {
        match name.to_ascii_lowercase().as_str() {
            "dt" => Some(ModelFamily::Dt),
            "rft" => Some(ModelFamily::Rft),
            "gbdt" => Some(ModelFamily::Gbdt),
            "abt" => Some(ModelFamily::Abt),
            "mlp" => Some(ModelFamily::Mlp),
            "svm" => Some(ModelFamily::Svm),
            _ => None,
        }
    }
}

impl std::fmt::Display for ModelFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A model trained by the [`Runner`] for one row.
enum TrainedModel {
    Dt(DecisionTree),
    Rft(RandomForest),
    Gbdt(GradientBoosting),
    Abt(AdaBoost),
    Mlp(QuantizedMlp),
    Svm(QuantizedSvm),
}

impl TrainedModel {
    fn as_classifier(&self) -> &dyn Classifier {
        match self {
            TrainedModel::Dt(m) => m,
            TrainedModel::Rft(m) => m,
            TrainedModel::Gbdt(m) => m,
            TrainedModel::Abt(m) => m,
            TrainedModel::Mlp(m) => m,
            TrainedModel::Svm(m) => m,
        }
    }

    fn as_encodable(&self) -> &dyn CnfEncodable {
        match self {
            TrainedModel::Dt(m) => m,
            TrainedModel::Rft(m) => m,
            TrainedModel::Gbdt(m) => m,
            TrainedModel::Abt(m) => m,
            TrainedModel::Mlp(m) => m,
            TrainedModel::Svm(m) => m,
        }
    }
}

/// One row produced by a [`Runner`] batch: a (config, family) pair with its
/// test-set and whole-space metrics.
#[derive(Debug, Clone)]
pub struct RunnerRow {
    /// The experiment configuration of the row.
    pub config: ExperimentConfig,
    /// The model family trained and evaluated.
    pub family: ModelFamily,
    /// Traditional metrics on the held-out test set.
    pub test_metrics: BinaryMetrics,
    /// Whole-space AccMC result (`None` when the counter's budget ran out).
    pub whole_space: Option<AccMcResult>,
    /// Total size of the balanced dataset.
    pub dataset_size: usize,
    /// Number of training samples.
    pub train_size: usize,
}

/// A typed per-cell failure from a batch: which `(config, family)` cell
/// went wrong and why. [`Runner::run_collect`] and [`Runner::run_stream`]
/// report these alongside the rows that did land, instead of discarding
/// the whole batch at the first error the way [`Runner::run`] does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// The experiment configuration of the failed cell.
    pub config: ExperimentConfig,
    /// The model family of the failed cell.
    pub family: ModelFamily,
    /// What went wrong.
    pub error: EvalError,
}

/// Partial outcome of a batch: every row that landed plus the typed error
/// list, both in job order (`configs` outer, families inner). A stopped
/// stream simply omits the cells that were never claimed.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Cells that completed successfully.
    pub rows: Vec<RunnerRow>,
    /// Cells that failed with a typed error.
    pub errors: Vec<CellError>,
}

/// What a [`RowSink`] tells the scheduler after absorbing a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkDecision {
    /// Keep scheduling the remaining cells.
    Continue,
    /// Claim no further cells. Cells already in flight still land (and are
    /// still delivered to the sink), so the batch ends with a consistent
    /// partial table rather than mid-cell.
    Stop,
}

/// A streaming consumer of finished cells, fed by
/// [`Runner::run_stream`] in **completion order** — the scheduler starts
/// the costliest cells first, but cheap cells overtake them, which is
/// exactly what lets a table print its fast rows while a scope-4 cell is
/// still counting. Implemented for every `FnMut` closure of the right
/// shape; the sink is called from worker threads (serialized by the
/// scheduler), hence `Send`.
pub trait RowSink: Send {
    /// Absorbs one finished cell — a completed row or its typed error —
    /// and decides whether the scheduler keeps claiming cells.
    fn absorb(&mut self, cell: Result<&RunnerRow, &CellError>) -> SinkDecision;
}

impl<F> RowSink for F
where
    F: FnMut(Result<&RunnerRow, &CellError>) -> SinkDecision + Send,
{
    fn absorb(&mut self, cell: Result<&RunnerRow, &CellError>) -> SinkDecision {
        self(cell)
    }
}

/// Estimated cost of one `(config, family)` cell, used to schedule the
/// most expensive cells first. The whole-space sweep over `2^(scope²)`
/// instances dominates a row, so scope towers over everything else; the
/// family weight breaks ties at equal scope in favour of the ensemble and
/// boosting encodings, whose vote circuits multiply the per-instance work.
fn cell_cost(config: &ExperimentConfig, family: ModelFamily) -> u128 {
    let bits = (config.scope * config.scope).min(100) as u32;
    let family_weight: u128 = match family {
        ModelFamily::Dt => 1,
        // A quantized SVM is a single threshold circuit: barely costlier
        // than a tree, cheaper than any ensemble fold.
        ModelFamily::Svm => 2,
        ModelFamily::Rft => 6,
        ModelFamily::Abt => 6,
        // One threshold circuit per hidden unit plus the output fold.
        ModelFamily::Mlp => 6,
        ModelFamily::Gbdt => 10,
    };
    (1u128 << bits).saturating_mul(family_weight)
}

/// Claims the next cell for worker `me`: its own deque front first (the
/// costliest cells it was dealt), then the **back** of the other workers'
/// deques — stealing their cheapest remaining cells, which keeps the big
/// cells with the workers that started them.
fn claim_cell(deques: &[Mutex<VecDeque<usize>>], me: usize) -> Option<usize> {
    if let Some(index) = deques[me].lock().expect("cell deque poisoned").pop_front() {
        return Some(index);
    }
    for offset in 1..deques.len() {
        let victim = (me + offset) % deques.len();
        if let Some(index) = deques[victim]
            .lock()
            .expect("cell deque poisoned")
            .pop_back()
        {
            return Some(index);
        }
    }
    None
}

/// Batch executor for whole-space experiments.
///
/// Compared to looping over [`Experiment::run`], a `Runner`:
///
/// * builds each distinct dataset and translates each distinct ground truth
///   **once**, no matter how many rows share them;
/// * executes cells concurrently on scoped threads, largest estimated cost
///   first over work-stealing deques (the counting backend is shared, so a
///   [`CachedCounter`](crate::counter::CachedCounter) also shares its memo
///   across rows);
/// * trains any subset of the encodable [`ModelFamily`] values per row;
/// * returns typed [`EvalError`]s instead of panicking — per cell via
///   [`run_collect`](Runner::run_collect), streamed through a [`RowSink`]
///   via [`run_stream`](Runner::run_stream), or strictly via
///   [`run`](Runner::run).
///
/// # Example
///
/// ```
/// use mcml::backend::CounterBackend;
/// use mcml::framework::{ExperimentConfig, ModelFamily, Runner};
/// use relspec::properties::Property;
///
/// let configs = vec![
///     ExperimentConfig::table5(Property::Reflexive, 3),
///     ExperimentConfig::table5(Property::Function, 3),
/// ];
/// let backend = CounterBackend::exact();
/// let rows = Runner::new()
///     .families(&[ModelFamily::Dt])
///     .run(&configs, &backend)
///     .expect("well-formed configs");
/// assert_eq!(rows.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Runner {
    threads: usize,
    families: Vec<ModelFamily>,
    engine: CountingEngine,
    vote_node_bound: usize,
    fallback: FallbackPolicy,
    rft_trees: usize,
    abt_rounds: usize,
    abt_depth: usize,
    gbdt_rounds: usize,
    gbdt_depth: usize,
    mlp_hidden: usize,
    quant_bits: u32,
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new()
    }
}

impl Runner {
    /// A runner with default settings: decision trees only, one thread per
    /// available core, classic counting engine.
    pub fn new() -> Self {
        Runner {
            threads: 0,
            families: vec![ModelFamily::Dt],
            engine: CountingEngine::Classic,
            vote_node_bound: crate::encode::MAX_VOTE_NODES,
            fallback: FallbackPolicy::default(),
            rft_trees: 15,
            abt_rounds: 10,
            abt_depth: 2,
            gbdt_rounds: 6,
            gbdt_depth: 2,
            mlp_hidden: 4,
            quant_bits: DEFAULT_QUANT_BITS,
        }
    }

    /// Sets the number of worker threads (`0` = one per available core).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the [`CountingEngine`] used for the whole-space evaluation of
    /// every row. With [`CountingEngine::Compiled`] and a backend that
    /// compiles (a [`CompiledCounter`], possibly wrapped in a
    /// [`CachedCounter`](crate::counter::CachedCounter)), the φ circuit and
    /// the circuit of the symmetry-broken space
    /// ([`GroundTruth::cnf_space`]) are shared across all rows of the batch
    /// — compiled once per (property, scope, symmetry). Each model then
    /// issues **one batched query per circuit**
    /// ([`QueryCounter::count_cubes`] with its whole decision-region
    /// list): a single topological sweep, not one walk per region. ¬φ is
    /// derived per region as space − φ, so the batch never compiles the ¬φ
    /// circuit unless a rescued region needs a direct ¬φ count.
    pub fn engine(mut self, engine: CountingEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the vote-circuit node budget (default
    /// [`MAX_VOTE_NODES`](crate::encode::MAX_VOTE_NODES)) bounding both the
    /// compiled engine's region-extraction vote BDDs and the classic
    /// engine's ABT vote-diagram CNF encodings. Rows whose ensembles exceed
    /// it fail with [`EvalError::VoteCircuitTooLarge`].
    pub fn vote_node_bound(mut self, bound: usize) -> Self {
        self.vote_node_bound = bound;
        self
    }

    /// Sets the degradation [`FallbackPolicy`] every row evaluates under
    /// (default [`FallbackPolicy::Fail`]): an enabled ladder turns
    /// budget-exhausted cells into (ε, δ)-labeled approximate rows instead
    /// of the paper's "-" cells. Rescue seeds are derived from the queries
    /// themselves, so the policy never makes the batch
    /// scheduler's completion order observable in the results.
    pub fn fallback(mut self, policy: FallbackPolicy) -> Self {
        self.fallback = policy;
        self
    }

    /// Sets the model families trained and evaluated per row.
    pub fn families(mut self, families: &[ModelFamily]) -> Self {
        self.families = families.to_vec();
        self
    }

    /// Number of trees per random forest (kept modest so the majority-vote
    /// cardinality encoding stays cheap to count).
    pub fn rft_trees(mut self, rft_trees: usize) -> Self {
        self.rft_trees = rft_trees.max(1);
        self
    }

    /// Number of AdaBoost rounds (bounds the weighted-vote branching
    /// program compiled by the `ABT` encoding).
    pub fn abt_rounds(mut self, abt_rounds: usize) -> Self {
        self.abt_rounds = abt_rounds.max(1);
        self
    }

    /// Depth of the AdaBoost weak learners.
    pub fn abt_depth(mut self, abt_depth: usize) -> Self {
        self.abt_depth = abt_depth.max(1);
        self
    }

    /// Number of GBDT boosting rounds. With shrinkage producing
    /// pairwise-distinct leaf contributions, the additive-score fold can
    /// reach `Πₜ leavesₜ` abstract states, so the default (6 rounds of
    /// depth-2 trees, ≈5.5k worst-case fold states) keeps an order of
    /// magnitude of headroom under the default vote-node budget (2¹⁶).
    pub fn gbdt_rounds(mut self, gbdt_rounds: usize) -> Self {
        self.gbdt_rounds = gbdt_rounds.max(1);
        self
    }

    /// Depth of the GBDT regression trees.
    pub fn gbdt_depth(mut self, gbdt_depth: usize) -> Self {
        self.gbdt_depth = gbdt_depth.max(1);
        self
    }

    /// Number of MLP hidden units. Much smaller than the float
    /// [`MlpConfig`] default: after quantization every hidden unit becomes
    /// one stage of the output-layer fold, whose abstract-state count grows
    /// with the number of distinct partial sums, so the default (4) keeps
    /// the compiled vote diagram far under the vote-node budget while still
    /// fitting the small-scope properties.
    pub fn mlp_hidden(mut self, mlp_hidden: usize) -> Self {
        self.mlp_hidden = mlp_hidden.max(1);
        self
    }

    /// Fractional bits of the post-training fixed-point quantization
    /// (default [`DEFAULT_QUANT_BITS`]) applied to the MLP and SVM weights:
    /// `q = round(w · 2^bits)`. More bits track the float model more
    /// faithfully but widen the threshold DP's reachable partial-sum range.
    pub fn quant_bits(mut self, quant_bits: u32) -> Self {
        self.quant_bits = quant_bits;
        self
    }

    /// Worker threads for `jobs` live cells: the configured thread count
    /// (or one per available core), clamped so no worker sits idle — a
    /// scope-2 smoke table with two cells gets two workers, and an empty
    /// batch spawns none at all.
    fn worker_count(&self, jobs: usize) -> usize {
        if jobs == 0 {
            return 0;
        }
        let threads = if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        threads.clamp(1, jobs)
    }

    /// Builds every distinct dataset and ground truth exactly once, using
    /// the same worker parallelism as row execution — dataset construction
    /// (SAT-based positive enumeration) dominates wall-clock for large
    /// batches and must not serialize on the caller thread.
    fn shared_inputs(
        &self,
        configs: &[ExperimentConfig],
    ) -> (
        HashMap<DatasetConfig, PropertyDataset>,
        HashMap<GroundTruthKey, GroundTruth>,
    ) {
        let mut dataset_configs: Vec<DatasetConfig> = Vec::new();
        let mut gt_configs: Vec<ExperimentConfig> = Vec::new();
        let mut seen_datasets = std::collections::HashSet::new();
        let mut seen_gts = std::collections::HashSet::new();
        for config in configs {
            if seen_datasets.insert(config.dataset_config()) {
                dataset_configs.push(config.dataset_config());
            }
            if seen_gts.insert(config.ground_truth_key()) {
                gt_configs.push(*config);
            }
        }

        let total_jobs = dataset_configs.len() + gt_configs.len();
        let datasets: Mutex<HashMap<DatasetConfig, PropertyDataset>> =
            Mutex::new(HashMap::with_capacity(dataset_configs.len()));
        let ground_truths: Mutex<HashMap<GroundTruthKey, GroundTruth>> =
            Mutex::new(HashMap::with_capacity(gt_configs.len()));
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.worker_count(total_jobs) {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if let Some(dc) = dataset_configs.get(index) {
                        let built = DatasetBuilder::new().build(*dc);
                        datasets
                            .lock()
                            .expect("dataset table poisoned")
                            .insert(*dc, built);
                    } else if let Some(config) = gt_configs.get(index - dataset_configs.len()) {
                        let built = config.translate_ground_truth();
                        ground_truths
                            .lock()
                            .expect("ground-truth table poisoned")
                            .insert(config.ground_truth_key(), built);
                    } else {
                        break;
                    }
                });
            }
        });
        (
            datasets.into_inner().expect("dataset table poisoned"),
            ground_truths
                .into_inner()
                .expect("ground-truth table poisoned"),
        )
    }

    /// Runs all `configs × families` rows in parallel, preserving the order
    /// `configs` outer, families inner. Fails with the first (in job order)
    /// [`EvalError`] encountered — the strict wrapper around
    /// [`run_collect`](Self::run_collect) for callers that treat any cell
    /// error as a malformed batch.
    pub fn run<C: QueryCounter + ?Sized>(
        &self,
        configs: &[ExperimentConfig],
        backend: &C,
    ) -> Result<Vec<RunnerRow>, EvalError> {
        let outcome = self.run_collect(configs, backend)?;
        match outcome.errors.into_iter().next() {
            Some(first) => Err(first.error),
            None => Ok(outcome.rows),
        }
    }

    /// Runs the batch like [`run`](Self::run) but never discards finished
    /// work: every row that landed comes back together with a typed
    /// [`CellError`] per failed cell, both in job order. A cell error
    /// (say, one family's vote circuit over budget) costs that cell, not
    /// the batch.
    pub fn run_collect<C: QueryCounter + ?Sized>(
        &self,
        configs: &[ExperimentConfig],
        backend: &C,
    ) -> Result<BatchOutcome, EvalError> {
        self.run_stream(configs, backend, |_: Result<&RunnerRow, &CellError>| {
            SinkDecision::Continue
        })
    }

    /// Runs the batch, delivering every finished cell to `sink` the moment
    /// it lands (completion order, not job order). Returning
    /// [`SinkDecision::Stop`] keeps the scheduler from claiming further
    /// cells while in-flight cells still finish and reach the sink, so an
    /// interrupted batch yields a consistent partial table instead of
    /// nothing. The returned [`BatchOutcome`] holds the same cells the
    /// sink saw, re-ordered into job order.
    pub fn run_stream<C, S>(
        &self,
        configs: &[ExperimentConfig],
        backend: &C,
        mut sink: S,
    ) -> Result<BatchOutcome, EvalError>
    where
        C: QueryCounter + ?Sized,
        S: RowSink,
    {
        if self.families.is_empty() {
            return Err(EvalError::NoModelFamilies);
        }
        let jobs: Vec<(ExperimentConfig, ModelFamily)> = configs
            .iter()
            .flat_map(|c| self.families.iter().map(move |f| (*c, *f)))
            .collect();
        let slots = self.execute_cells(
            &jobs,
            backend,
            |config, family, dataset, ground_truth, backend| {
                self.run_family_row(config, family, dataset, ground_truth, backend)
            },
            |config, family, outcome: &Result<RunnerRow, EvalError>| match outcome {
                Ok(row) => sink.absorb(Ok(row)),
                Err(error) => sink.absorb(Err(&CellError {
                    config: *config,
                    family,
                    error: error.clone(),
                })),
            },
        );
        let mut rows = Vec::new();
        let mut errors = Vec::new();
        for ((config, family), slot) in jobs.iter().zip(slots) {
            match slot {
                Some(Ok(row)) => rows.push(row),
                Some(Err(error)) => errors.push(CellError {
                    config: *config,
                    family: *family,
                    error,
                }),
                // Never claimed: the sink stopped the batch first.
                None => {}
            }
        }
        Ok(BatchOutcome { rows, errors })
    }

    /// Runs `configs` as decision-tree rows, producing results identical to
    /// calling [`Experiment::run`] per config (same training, same metrics,
    /// same tree statistics) while sharing work and executing in parallel.
    pub fn run_experiments<C: QueryCounter + ?Sized>(
        &self,
        configs: &[ExperimentConfig],
        backend: &C,
    ) -> Result<Vec<ExperimentResult>, EvalError> {
        let jobs: Vec<(ExperimentConfig, ModelFamily)> =
            configs.iter().map(|c| (*c, ModelFamily::Dt)).collect();
        self.execute(
            &jobs,
            backend,
            |config, _family, dataset, ground_truth, backend| {
                run_dt_row(
                    config,
                    dataset,
                    ground_truth,
                    backend,
                    self.engine,
                    self.vote_node_bound,
                    self.fallback,
                )
            },
        )
    }

    /// Strict parallel driver over `(config, family)` jobs: every cell
    /// runs, and the result fails with the first error in job order.
    fn execute<C, T, F>(
        &self,
        jobs: &[(ExperimentConfig, ModelFamily)],
        backend: &C,
        job_fn: F,
    ) -> Result<Vec<T>, EvalError>
    where
        C: QueryCounter + ?Sized,
        T: Send,
        F: Fn(
                &ExperimentConfig,
                ModelFamily,
                &PropertyDataset,
                &GroundTruth,
                &C,
            ) -> Result<T, EvalError>
            + Sync,
    {
        self.execute_cells(jobs, backend, job_fn, |_, _, _: &Result<T, EvalError>| {
            SinkDecision::Continue
        })
        .into_iter()
        .map(|slot| slot.expect("a never-stopping sink claims every cell"))
        .collect()
    }

    /// Streaming cost-aware driver over `(config, family)` cells.
    ///
    /// Cells are dealt largest-estimated-cost-first across per-worker
    /// deques; a worker drains its own deque from the front and steals
    /// from the back of its neighbours' when empty, so the batch's big
    /// cells start immediately on distinct workers while the cheap tail is
    /// rebalanced onto whoever runs dry. Every finished cell is reported
    /// to `sink` as it lands (completion order); [`SinkDecision::Stop`]
    /// keeps workers from claiming further cells. The returned slots are
    /// in job order, with `None` marking cells never claimed because of an
    /// early stop.
    fn execute_cells<C, T, F, S>(
        &self,
        jobs: &[(ExperimentConfig, ModelFamily)],
        backend: &C,
        job_fn: F,
        sink: S,
    ) -> Vec<Option<Result<T, EvalError>>>
    where
        C: QueryCounter + ?Sized,
        T: Send,
        F: Fn(
                &ExperimentConfig,
                ModelFamily,
                &PropertyDataset,
                &GroundTruth,
                &C,
            ) -> Result<T, EvalError>
            + Sync,
        S: FnMut(&ExperimentConfig, ModelFamily, &Result<T, EvalError>) -> SinkDecision + Send,
    {
        let configs: Vec<ExperimentConfig> = jobs.iter().map(|(c, _)| *c).collect();
        let (datasets, ground_truths) = self.shared_inputs(&configs);
        let workers = self.worker_count(jobs.len());
        let slots: Vec<Mutex<Option<Result<T, EvalError>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        if workers == 0 {
            return Vec::new();
        }

        // Deal cells round-robin in descending cost order: stable sort, so
        // equal-cost cells keep job order and a single worker visits them
        // deterministically.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(cell_cost(&jobs[i].0, jobs[i].1)));
        let deques: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (turn, &index) in order.iter().enumerate() {
            deques[turn % workers]
                .lock()
                .expect("cell deque poisoned")
                .push_back(index);
        }

        let stop = AtomicBool::new(false);
        let sink = Mutex::new(sink);
        std::thread::scope(|scope| {
            for me in 0..workers {
                let deques = &deques;
                let slots = &slots;
                let datasets = &datasets;
                let ground_truths = &ground_truths;
                let stop = &stop;
                let sink = &sink;
                let job_fn = &job_fn;
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let Some(index) = claim_cell(deques, me) else {
                            break;
                        };
                        let (config, family) = &jobs[index];
                        let dataset = &datasets[&config.dataset_config()];
                        let ground_truth = &ground_truths[&config.ground_truth_key()];
                        let outcome = job_fn(config, *family, dataset, ground_truth, backend);
                        let decision = {
                            let mut sink = sink.lock().expect("row sink poisoned");
                            (*sink)(config, *family, &outcome)
                        };
                        *slots[index].lock().expect("result slot poisoned") = Some(outcome);
                        if decision == SinkDecision::Stop {
                            stop.store(true, Ordering::Relaxed);
                        }
                    }
                });
            }
        });

        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("result slot poisoned"))
            .collect()
    }

    /// Trains one `(config, family)` model with the runner's
    /// hyper-parameters and the config's seed. Training is deterministic
    /// in those inputs, which is what lets
    /// [`build_artifact`](Self::build_artifact) reproduce the exact models
    /// a [`run`](Self::run) batch evaluated.
    fn train_model(
        &self,
        config: &ExperimentConfig,
        family: ModelFamily,
        train: &Dataset,
    ) -> TrainedModel {
        match family {
            ModelFamily::Dt => TrainedModel::Dt(DecisionTree::fit(train, TreeConfig::default())),
            ModelFamily::Rft => TrainedModel::Rft(RandomForest::fit(
                train,
                ForestConfig {
                    num_trees: self.rft_trees,
                    seed: config.seed,
                    ..ForestConfig::default()
                },
            )),
            ModelFamily::Gbdt => TrainedModel::Gbdt(GradientBoosting::fit(
                train,
                GbdtConfig {
                    num_rounds: self.gbdt_rounds,
                    max_depth: self.gbdt_depth,
                    ..GbdtConfig::default()
                },
            )),
            ModelFamily::Abt => TrainedModel::Abt(AdaBoost::fit(
                train,
                AdaBoostConfig {
                    num_rounds: self.abt_rounds,
                    weak_depth: self.abt_depth,
                    seed: config.seed,
                },
            )),
            // The float networks are training scaffolding only: the
            // quantized model IS the evaluated classifier, so its test-set
            // metrics and its CNF/region encodings describe the same
            // function bit for bit.
            ModelFamily::Mlp => {
                let float = Mlp::fit(
                    train,
                    MlpConfig {
                        hidden_units: self.mlp_hidden,
                        seed: config.seed,
                        ..MlpConfig::default()
                    },
                );
                TrainedModel::Mlp(QuantizedMlp::from_mlp_calibrated(
                    &float,
                    self.quant_bits,
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
                TrainedModel::Svm(QuantizedSvm::from_svm(&float, self.quant_bits))
            }
        }
    }

    /// Re-trains the batch's models and packages everything a warm start
    /// needs into a [`CircuitArtifact`]: each model's decision-region
    /// cover, the φ / ¬φ circuit fingerprints they are counted against,
    /// and a snapshot of `counter`'s circuit cache with those circuits
    /// force-compiled. Training goes through the same
    /// `train_model` path as [`run`](Self::run) —
    /// deterministic hyper-parameters and seeds — so the covers reproduce
    /// the evaluated models exactly and served results can match batch
    /// rows bit for bit. Each cover records the ground truth's
    /// `eval_symmetry`, so the serving layer can refuse whole-space plans
    /// that a symmetry-constrained φ would silently skew. Failed
    /// compilations are not persisted (the snapshot skips them).
    pub fn build_artifact(
        &self,
        configs: &[ExperimentConfig],
        counter: &CompiledCounter,
    ) -> Result<CircuitArtifact, EvalError> {
        if self.families.is_empty() {
            return Err(EvalError::NoModelFamilies);
        }
        let jobs: Vec<(ExperimentConfig, ModelFamily)> = configs
            .iter()
            .flat_map(|c| self.families.iter().map(move |f| (*c, *f)))
            .collect();
        let covers = self.execute(
            &jobs,
            counter,
            |config, family, dataset, ground_truth, counter| {
                let (train, _test) = dataset.split(config.ratio);
                let model = self.train_model(config, family, &train);
                let regions = model
                    .as_encodable()
                    .decision_regions_bounded(self.vote_node_bound)?;
                let phi_cnf = ground_truth.cnf_positive_ref();
                let not_phi_cnf = ground_truth.cnf_negative_ref();
                // Force both circuits into the cache; a budget-exhausted
                // compilation simply stays out of the snapshot.
                let _ = ModelCounter::count(counter, phi_cnf);
                let _ = ModelCounter::count(counter, not_phi_cnf);
                Ok(RegionCover {
                    property: config.property.name().to_string(),
                    scope: config.scope,
                    family: family.name().to_string(),
                    symmetry: config.eval_symmetry,
                    phi: cnf_fingerprint(phi_cnf),
                    not_phi: cnf_fingerprint(not_phi_cnf),
                    regions,
                })
            },
        )?;
        Ok(CircuitArtifact {
            backend: "compiled".to_string(),
            circuits: counter.snapshot_circuits(),
            covers,
        })
    }

    /// Trains and evaluates one `(config, family)` row.
    fn run_family_row<C: QueryCounter + ?Sized>(
        &self,
        config: &ExperimentConfig,
        family: ModelFamily,
        dataset: &PropertyDataset,
        ground_truth: &GroundTruth,
        backend: &C,
    ) -> Result<RunnerRow, EvalError> {
        let (train, test) = dataset.split(config.ratio);
        let model = self.train_model(config, family, &train);
        let test_metrics = evaluate_classifier(model.as_classifier(), &test);
        let whole_space = AccMc::with_engine(backend, self.engine)
            .vote_node_bound(self.vote_node_bound)
            .fallback(self.fallback)
            .evaluate(ground_truth, model.as_encodable())?;
        Ok(RunnerRow {
            config: *config,
            family,
            test_metrics,
            whole_space,
            dataset_size: dataset.dataset.len(),
            train_size: train.len(),
        })
    }
}

/// Evaluates a trained classifier on a dataset with the traditional metrics.
pub fn evaluate_classifier<C: Classifier + ?Sized>(model: &C, data: &Dataset) -> BinaryMetrics {
    let predictions: Vec<bool> = data.features().iter().map(|x| model.predict(x)).collect();
    ConfusionMatrix::from_predictions(data.labels(), &predictions).metrics()
}

/// Test-set performance of one model family (one row of Tables 2 / 4).
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// Short model name (DT, RFT, GBDT, ABT, SVM, MLP).
    pub model: &'static str,
    /// Metrics on the test set.
    pub metrics: BinaryMetrics,
}

/// Trains all six model families of the study on `train` and evaluates them
/// on `test`, in the order the paper's tables list them.
pub fn evaluate_all_models(train: &Dataset, test: &Dataset, seed: u64) -> Vec<ModelReport> {
    let mut reports = Vec::with_capacity(6);

    let dt = DecisionTree::fit(
        train,
        TreeConfig {
            seed,
            ..TreeConfig::default()
        },
    );
    reports.push(ModelReport {
        model: dt.model_name(),
        metrics: evaluate_classifier(&dt, test),
    });

    let rft = RandomForest::fit(
        train,
        ForestConfig {
            seed,
            num_trees: 30,
            ..ForestConfig::default()
        },
    );
    reports.push(ModelReport {
        model: rft.model_name(),
        metrics: evaluate_classifier(&rft, test),
    });

    let gbdt = GradientBoosting::fit(
        train,
        GbdtConfig {
            num_rounds: 60,
            ..GbdtConfig::default()
        },
    );
    reports.push(ModelReport {
        model: gbdt.model_name(),
        metrics: evaluate_classifier(&gbdt, test),
    });

    let abt = AdaBoost::fit(
        train,
        AdaBoostConfig {
            seed,
            num_rounds: 40,
            weak_depth: 2,
        },
    );
    reports.push(ModelReport {
        model: abt.model_name(),
        metrics: evaluate_classifier(&abt, test),
    });

    let svm = LinearSvm::fit(
        train,
        SvmConfig {
            seed,
            ..SvmConfig::default()
        },
    );
    reports.push(ModelReport {
        model: svm.model_name(),
        metrics: evaluate_classifier(&svm, test),
    });

    let mlp = Mlp::fit(
        train,
        MlpConfig {
            seed,
            epochs: 40,
            ..MlpConfig::default()
        },
    );
    reports.push(ModelReport {
        model: mlp.model_name(),
        metrics: evaluate_classifier(&mlp, test),
    });

    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CounterBackend;
    use crate::counter::CachedCounter;
    use modelcount::exact::ExactCounter;

    #[test]
    fn reflexive_experiment_is_perfect_everywhere() {
        // Reflexive only depends on the diagonal; a tree learns it exactly
        // and both the test-set and the whole-space metrics are 1.0.
        let config = ExperimentConfig {
            ratio: SplitRatio::new(50),
            ..ExperimentConfig::table5(Property::Reflexive, 3)
        };
        let backend = CounterBackend::exact();
        let result = Experiment::new(config).run(&backend);
        assert!(result.test_metrics.accuracy >= 0.99);
        let ws = result.whole_space.expect("no budget configured");
        assert_eq!(ws.metrics.precision, 1.0);
        assert_eq!(ws.metrics.recall, 1.0);
        assert_eq!(ws.counts.total(), 512);
    }

    #[test]
    fn sparse_property_shows_precision_collapse() {
        // The central finding of the paper: a tree that looks excellent on
        // the balanced test set has far lower precision over the whole space,
        // because the true positive class is a tiny fraction of the space.
        let config = ExperimentConfig {
            ratio: SplitRatio::new(50),
            ..ExperimentConfig::table5(Property::PartialOrder, 4)
        };
        let backend = CounterBackend::exact();
        let result = Experiment::new(config).run(&backend);
        assert!(result.test_metrics.accuracy >= 0.80);
        let ws = result.whole_space.expect("no budget configured");
        assert_eq!(ws.counts.total(), 1u128 << 16);
        assert!(
            ws.metrics.precision < result.test_metrics.precision,
            "whole-space precision {} should be below test precision {}",
            ws.metrics.precision,
            result.test_metrics.precision
        );
    }

    #[test]
    fn mismatch_configs_carry_different_symmetries() {
        let t6 = ExperimentConfig::table6(Property::Connex, 4);
        assert_eq!(t6.data_symmetry, SymmetryBreaking::Transpositions);
        assert_eq!(t6.eval_symmetry, SymmetryBreaking::None);
        let t7 = ExperimentConfig::table7(Property::Connex, 4);
        assert_eq!(t7.data_symmetry, SymmetryBreaking::None);
        assert_eq!(t7.eval_symmetry, SymmetryBreaking::Transpositions);
    }

    #[test]
    fn all_six_models_report_metrics() {
        // Scope 4 keeps the balanced dataset large enough (hundreds of
        // rows) that "better than chance" is a stable expectation.
        let dataset = DatasetBuilder::new().build(
            DatasetConfig::new(Property::Function, 4)
                .without_symmetry()
                .with_max_positive(200),
        );
        let (train, test) = dataset.split(SplitRatio::new(75));
        let reports = evaluate_all_models(&train, &test, 1);
        let names: Vec<&str> = reports.iter().map(|r| r.model).collect();
        assert_eq!(names, vec!["DT", "RFT", "GBDT", "ABT", "SVM", "MLP"]);
        for r in &reports {
            assert!(
                r.metrics.accuracy >= 0.5,
                "{} no better than chance: {}",
                r.model,
                r.metrics.accuracy
            );
        }
    }

    #[test]
    fn train_tree_returns_usable_tree() {
        let config = ExperimentConfig {
            ratio: SplitRatio::new(50),
            ..ExperimentConfig::table3(Property::Irreflexive, 4)
        };
        let (tree, metrics) = Experiment::new(config).train_tree(TreeConfig::default());
        assert!(tree.num_leaves() >= 1);
        assert!(metrics.accuracy > 0.8);
    }

    #[test]
    fn runner_matches_sequential_experiments() {
        let configs = vec![
            ExperimentConfig::table5(Property::Reflexive, 3),
            ExperimentConfig::table5(Property::Function, 3),
            ExperimentConfig::table3(Property::Antisymmetric, 3),
            // A duplicate row: dataset/ground-truth dedup must not change it.
            ExperimentConfig::table5(Property::Reflexive, 3),
        ];
        let backend = CounterBackend::exact();
        let parallel = Runner::new()
            .threads(4)
            .run_experiments(&configs, &backend)
            .expect("well-formed configs");
        assert_eq!(parallel.len(), configs.len());
        for (config, row) in configs.iter().zip(&parallel) {
            let sequential = Experiment::new(*config).run(&backend);
            assert_eq!(row.config, *config);
            assert_eq!(row.test_metrics, sequential.test_metrics);
            assert_eq!(
                row.whole_space.map(|w| w.counts),
                sequential.whole_space.map(|w| w.counts)
            );
            assert_eq!(row.tree_leaves, sequential.tree_leaves);
            assert_eq!(row.tree_depth, sequential.tree_depth);
            assert_eq!(row.train_size, sequential.train_size);
        }
    }

    #[test]
    fn runner_trains_all_requested_families() {
        let configs = vec![ExperimentConfig::table5(Property::Reflexive, 3)];
        let backend = CounterBackend::exact();
        let rows = Runner::new()
            .families(ModelFamily::all())
            .rft_trees(5)
            .abt_rounds(5)
            .gbdt_rounds(4)
            .run(&configs, &backend)
            .expect("well-formed configs");
        let families: Vec<ModelFamily> = rows.iter().map(|r| r.family).collect();
        assert_eq!(families, ModelFamily::all().to_vec());
        for row in &rows {
            let ws = row.whole_space.expect("no budget configured");
            assert_eq!(ws.counts.total(), 512, "family {}", row.family);
            assert!(
                row.test_metrics.accuracy >= 0.9,
                "family {} accuracy {}",
                row.family,
                row.test_metrics.accuracy
            );
        }
    }

    #[test]
    fn runner_shares_cached_counts_across_rows() {
        // Two identical configs share the dataset, so they train identical
        // trees and issue identical counting queries: the second row must be
        // answered from the cache.
        let configs = vec![
            ExperimentConfig::table5(Property::Function, 3),
            ExperimentConfig::table5(Property::Function, 3),
        ];
        let cached = CachedCounter::new(ExactCounter::new());
        let rows = Runner::new()
            .threads(1)
            .run_experiments(&configs, &cached)
            .expect("well-formed configs");
        assert_eq!(
            rows[0].whole_space.unwrap().counts,
            rows[1].whole_space.unwrap().counts
        );
        let stats = cached.stats();
        assert!(stats.hits >= 4, "cache stats: {stats:?}");
    }

    #[test]
    fn runner_compiled_engine_matches_classic() {
        use crate::counter::CompiledCounter;
        let configs = vec![
            ExperimentConfig::table5(Property::Reflexive, 3),
            ExperimentConfig::table5(Property::Function, 3),
            ExperimentConfig::table3(Property::Antisymmetric, 3),
        ];
        let exact = CounterBackend::exact();
        let classic = Runner::new()
            .families(ModelFamily::all())
            .rft_trees(5)
            .abt_rounds(5)
            .gbdt_rounds(4)
            .run(&configs, &exact)
            .expect("well-formed configs");
        let compiled_backend = CachedCounter::new(CompiledCounter::new());
        let compiled = Runner::new()
            .families(ModelFamily::all())
            .rft_trees(5)
            .abt_rounds(5)
            .gbdt_rounds(4)
            .engine(CountingEngine::Compiled)
            .run(&configs, &compiled_backend)
            .expect("well-formed configs");
        assert_eq!(classic.len(), compiled.len());
        for (a, b) in classic.iter().zip(&compiled) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.family, b.family);
            assert_eq!(
                a.whole_space.map(|w| w.counts),
                b.whole_space.map(|w| w.counts),
                "family {} property {}",
                a.family,
                a.config.property
            );
        }
    }

    #[test]
    fn compiled_runs_never_compile_not_phi_but_artifacts_still_do() {
        use crate::counter::CompiledCounter;
        let configs = vec![
            ExperimentConfig::table5(Property::Function, 3),
            ExperimentConfig::table3(Property::Antisymmetric, 3),
        ];
        let runner = Runner::new()
            .families(&[ModelFamily::Dt, ModelFamily::Rft])
            .rft_trees(5)
            .engine(CountingEngine::Compiled);
        let compiled_keys = |counter: &CompiledCounter| -> Vec<u128> {
            counter
                .snapshot_circuits()
                .into_iter()
                .map(|(k, _)| k)
                .collect()
        };
        let counter = CompiledCounter::new();
        runner.run(&configs, &counter).expect("well-formed configs");
        let after_run = compiled_keys(&counter);
        let artifact = CompiledCounter::new();
        runner
            .build_artifact(&configs, &artifact)
            .expect("well-formed configs");
        let after_build = compiled_keys(&artifact);
        for config in &configs {
            let gt = config.translate_ground_truth();
            let (phi, not_phi, space) = (
                cnf_fingerprint(gt.cnf_positive_ref()),
                cnf_fingerprint(gt.cnf_negative_ref()),
                cnf_fingerprint(gt.cnf_space()),
            );
            let property = config.property;
            assert!(after_run.contains(&phi), "{property}: φ compiled");
            assert!(after_run.contains(&space), "{property}: space compiled");
            assert!(
                !after_run.contains(&not_phi),
                "{property}: ¬φ never compiled"
            );
            for key in [phi, not_phi] {
                assert!(after_build.contains(&key), "{property}: artifact circuit");
            }
        }
        assert_eq!(after_run.len(), 4, "φ and space for each of two properties");
    }

    #[test]
    fn runner_with_no_families_is_a_typed_error() {
        let backend = CounterBackend::exact();
        let result = Runner::new().families(&[]).run(&[], &backend);
        assert!(matches!(result, Err(EvalError::NoModelFamilies)));
        let collected = Runner::new().families(&[]).run_collect(&[], &backend);
        assert!(matches!(collected, Err(EvalError::NoModelFamilies)));
    }

    #[test]
    fn empty_batch_yields_empty_rows_without_workers() {
        // Zero cells spawn zero workers (worker_count clamps to live
        // cells); the batch still resolves to an empty, well-typed result.
        let backend = CounterBackend::exact();
        let rows = Runner::new().run(&[], &backend).expect("empty batch");
        assert!(rows.is_empty());
        let outcome = Runner::new()
            .run_collect(&[], &backend)
            .expect("empty batch");
        assert!(outcome.rows.is_empty());
        assert!(outcome.errors.is_empty());
    }

    #[test]
    fn run_collect_keeps_partial_rows_and_types_the_failures() {
        use crate::counter::CompiledCounter;
        // Decision trees ignore the vote-node bound, ensembles honour it:
        // with a bound of 1 every RFT cell fails while every DT cell
        // lands, which is exactly the partial table `run` used to discard.
        let configs = vec![
            ExperimentConfig::table5(Property::Reflexive, 3),
            ExperimentConfig::table5(Property::Function, 3),
        ];
        let backend = CompiledCounter::new();
        let runner = Runner::new()
            .families(&[ModelFamily::Dt, ModelFamily::Rft])
            .rft_trees(5)
            .engine(CountingEngine::Compiled)
            .vote_node_bound(1);
        let outcome = runner
            .run_collect(&configs, &backend)
            .expect("families configured");
        assert_eq!(outcome.rows.len(), 2);
        assert!(outcome.rows.iter().all(|r| r.family == ModelFamily::Dt));
        assert_eq!(outcome.errors.len(), 2);
        for cell in &outcome.errors {
            assert_eq!(cell.family, ModelFamily::Rft);
            assert!(
                matches!(cell.error, EvalError::VoteCircuitTooLarge { bound: 1, .. }),
                "unexpected cell error: {:?}",
                cell.error
            );
        }
        // Rows and errors come back in job order: configs outer, families
        // inner.
        assert_eq!(outcome.rows[0].config.property, Property::Reflexive);
        assert_eq!(outcome.rows[1].config.property, Property::Function);
        assert_eq!(outcome.errors[0].config.property, Property::Reflexive);
        assert_eq!(outcome.errors[1].config.property, Property::Function);

        // And `run` is the strict wrapper: same batch, first job-order
        // error.
        let strict = runner.run(&configs, &backend);
        assert!(
            matches!(strict, Err(EvalError::VoteCircuitTooLarge { bound: 1, .. })),
            "unexpected strict outcome: {strict:?}"
        );
    }

    #[test]
    fn run_stream_emits_cells_as_they_land_costliest_first() {
        // One worker drains its deque in descending cost order, so the
        // scope-4 cell must stream out before the scope-3 one even though
        // job order lists scope 3 first.
        let configs = vec![
            ExperimentConfig::table5(Property::Reflexive, 3),
            ExperimentConfig::table5(Property::Reflexive, 4),
        ];
        let backend = CounterBackend::exact();
        let mut seen: Vec<(usize, bool)> = Vec::new();
        let outcome = Runner::new()
            .threads(1)
            .run_stream(
                &configs,
                &backend,
                |cell: Result<&RunnerRow, &CellError>| {
                    let row = cell.expect("reflexive rows are well-formed");
                    seen.push((row.config.scope, row.whole_space.is_some()));
                    SinkDecision::Continue
                },
            )
            .expect("families configured");
        assert_eq!(seen, vec![(4, true), (3, true)]);
        // The collected outcome is re-ordered into job order.
        assert_eq!(outcome.rows.len(), 2);
        assert_eq!(outcome.rows[0].config.scope, 3);
        assert_eq!(outcome.rows[1].config.scope, 4);
        assert!(outcome.errors.is_empty());
    }

    #[test]
    fn run_stream_stop_yields_a_partial_table() {
        let configs = vec![
            ExperimentConfig::table5(Property::Reflexive, 3),
            ExperimentConfig::table5(Property::Function, 3),
            ExperimentConfig::table5(Property::Irreflexive, 3),
        ];
        let backend = CounterBackend::exact();
        let mut delivered = 0usize;
        let outcome = Runner::new()
            .threads(1)
            .run_stream(&configs, &backend, |_: Result<&RunnerRow, &CellError>| {
                delivered += 1;
                SinkDecision::Stop
            })
            .expect("families configured");
        // The sink stopped after the first cell: exactly one row landed,
        // the unclaimed cells are neither rows nor errors.
        assert_eq!(delivered, 1);
        assert_eq!(outcome.rows.len(), 1);
        assert!(outcome.errors.is_empty());
    }

    #[test]
    fn model_family_parsing_round_trips() {
        assert_eq!(ModelFamily::all().len(), 6, "the six-family roster");
        for &family in ModelFamily::all() {
            assert_eq!(ModelFamily::parse(family.name()), Some(family));
            assert_eq!(
                ModelFamily::parse(&family.name().to_ascii_lowercase()),
                Some(family)
            );
        }
        assert_eq!(ModelFamily::parse("gbdt"), Some(ModelFamily::Gbdt));
        assert_eq!(ModelFamily::parse("mlp"), Some(ModelFamily::Mlp));
        assert_eq!(ModelFamily::parse("svm"), Some(ModelFamily::Svm));
        assert_eq!(ModelFamily::parse("cnn"), None, "CNNs are not encodable");
    }
}
