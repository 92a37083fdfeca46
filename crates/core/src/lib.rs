//! # mcml
//!
//! The core MCML contribution: quantifying the performance of (and semantic
//! differences among) trained classifiers **over the entire bounded input
//! space** by reduction to projected model counting.
//!
//! The evaluation core is built around three abstractions:
//!
//! * [`encode`] — the [`CnfEncodable`] trait for model
//!   families whose decision regions translate to CNF, implemented by
//!   decision trees (the auxiliary-variable-free Tree2CNF translation),
//!   random forests (majority vote via a totalizer cardinality encoding)
//!   and AdaBoost ensembles (weighted-vote threshold compiled to clauses);
//! * [`counter`] — the [`ModelCounter`] trait with
//!   structured [`CountOutcome`]s (exact / (ε, δ)
//!   approximate / budget-exhausted) and the memoizing
//!   [`CachedCounter`] wrapper;
//! * [`framework`] — the end-to-end pipeline (dataset → training → test-set
//!   metrics → whole-space metrics), including the parallel batch
//!   [`Runner`] used by the table harnesses.
//!
//! On top of those sit the metrics and plumbing:
//!
//! * [`tree2cnf`] — the decision-tree-specific translation (negate the DNF
//!   of the complementary label's paths);
//! * [`accmc`] — `AccMC`: whole-space true/false positive/negative counts of
//!   a model against a ground-truth formula φ, and the derived accuracy,
//!   precision, recall and F1 metrics;
//! * [`diffmc`] — `DiffMC`: whole-space agreement/disagreement counts of two
//!   models (TT / TF / FT / FF) and the derived diff/sim ratios — no ground
//!   truth or dataset required;
//! * [`backend`] — the exact/approximate [`CounterBackend`] selector;
//! * [`error`] — typed [`EvalError`]s replacing the
//!   panics of the original concrete-type API;
//! * [`report`] — plain-text table formatting shared by the harness
//!   binaries.
//!
//! # Example: one table row, sequentially
//!
//! ```
//! use mcml::backend::CounterBackend;
//! use mcml::framework::{Experiment, ExperimentConfig};
//! use relspec::properties::Property;
//!
//! // One row of Table 5 (no symmetry breaking) at a small scope.
//! let config = ExperimentConfig::table5(Property::Reflexive, 3);
//! let result = Experiment::new(config).run(&CounterBackend::exact());
//! let whole_space = result.whole_space.expect("exact backend has no budget");
//! assert_eq!(whole_space.counts.total(), 512);
//! ```
//!
//! # Example: a batch of rows, in parallel, with shared counting
//!
//! ```
//! use mcml::counter::{CachedCounter, ModelCounter};
//! use mcml::framework::{ExperimentConfig, ModelFamily, Runner};
//! use modelcount::exact::ExactCounter;
//! use relspec::properties::Property;
//!
//! let configs: Vec<ExperimentConfig> = [Property::Reflexive, Property::Function]
//!     .into_iter()
//!     .map(|p| ExperimentConfig::table5(p, 3))
//!     .collect();
//! let backend = CachedCounter::new(ExactCounter::new());
//! let rows = Runner::new()
//!     .families(&[ModelFamily::Dt, ModelFamily::Rft])
//!     .rft_trees(5)
//!     .run(&configs, &backend)
//!     .expect("well-formed configs");
//! assert_eq!(rows.len(), 4); // 2 properties x 2 model families
//! for row in &rows {
//!     let ws = row.whole_space.expect("exact backend has no budget");
//!     assert_eq!(ws.counts.total(), 512);
//! }
//! ```

pub mod accmc;
pub mod artifact;
pub mod backend;
pub mod counter;
pub mod diffmc;
pub mod encode;
pub mod error;
pub mod fallback;
pub mod framework;
pub mod neural;
pub mod persist;
pub mod report;
pub mod tree2cnf;

pub use accmc::{AccMc, AccMcResult, ApproxInfo, CountingEngine, OutcomeMeta, SpaceCounts};
pub use artifact::{CircuitArtifact, RegionCover};
pub use backend::CounterBackend;
pub use counter::{CachedCounter, CompiledCounter, CountOutcome, ModelCounter, QueryCounter};
pub use diffmc::{DiffCounts, DiffMc, DiffMcResult};
pub use encode::CnfEncodable;
pub use error::EvalError;
pub use fallback::FallbackPolicy;
pub use framework::{
    evaluate_all_models, Experiment, ExperimentConfig, ExperimentResult, ModelFamily, Runner,
    RunnerRow,
};
pub use tree2cnf::{tree_label_cnf, TreeLabel};
