//! Minimal command-line argument handling shared by the table binaries.
//!
//! Every `table*` binary accepts the same small set of flags:
//!
//! * `--scope N` — override the per-property study scope (at most
//!   [`MAX_SCOPE`]);
//! * `--approx` — use the approximate counter instead of the exact one;
//! * `--max-positive N` — cap on enumerated positive samples;
//! * `--seed N` — RNG seed;
//! * `--property NAME` — restrict to a single property (tables 1, 3, 5–8);
//! * `--models dt,rft,gbdt,abt,mlp,svm` — model families for the
//!   whole-space tables (3, 5, 6, 7), exercising the generic
//!   `CnfEncodable` path (MLP and SVM rows evaluate the post-training
//!   quantized models);
//! * `--mlp-hidden N` — hidden units of the quantized MLP family
//!   (default 4; each unit is one threshold circuit plus one stage of
//!   the output fold, so large values inflate the vote diagrams);
//! * `--quant-bits N` — fractional bits of the MLP/SVM fixed-point
//!   quantization (default 8);
//! * `--threads N` — worker threads for the batch `Runner` (0 = one per
//!   core);
//! * `--engine classic|compiled` — whole-space counting strategy: fresh
//!   search per count, or d-DNNF compile-once/query-many;
//! * `--vote-nodes N` — node budget for the ensemble vote circuits (the
//!   compiled engine's region-extraction BDDs and the ABT CNF vote
//!   diagram); an ensemble exceeding it fails with a typed
//!   `VoteCircuitTooLarge` error instead of exhausting memory;
//! * `--budget N` — decision budget for the exact and compiled backends
//!   (default 20 000 000); a count exceeding it reports `BudgetExhausted`
//!   instead of hanging;
//! * `--fallback exact|approx[:eps,delta]` — what a blown budget does to a
//!   row: `exact` (the default) keeps today's "-" cells, `approx` climbs
//!   the degradation ladder (symmetry-broken exact retry, then per-region
//!   (ε, δ)-approximate counts) so the row completes `A`-labeled;
//! * `--stream` — print each table row the moment its cell finishes
//!   (completion order, costliest cells scheduled first) instead of
//!   holding the whole table until the batch ends; per-cell errors are
//!   reported inline and the run keeps going;
//! * `--cache-dir DIR` — persist the count cache to `DIR` and reload it on
//!   the next run (cross-process reuse); ignored with `--engine compiled`,
//!   whose warm start is `--artifact-dir`;
//! * `--artifact-dir DIR` — with `--engine compiled`, persist the compiled
//!   circuits and decision-region covers (one `circuits.compiled.v2.bin`
//!   per directory, overwritten) and preload them on the next run — the
//!   warm store `mcml-serve` reads at startup. Repeatable: every named
//!   directory's artifact is preloaded; the build is saved to the first.
//!
//! A malformed or unknown argument makes [`HarnessArgs::from_env`] print
//! the error and [`USAGE`] on stderr and exit with status 1 — a usage
//! mistake is not a crash, so the binaries never panic over one.

use mcml::accmc::CountingEngine;
use mcml::backend::CounterBackend;
use mcml::fallback::FallbackPolicy;
use mcml::framework::ModelFamily;
use mlkit::quant::DEFAULT_QUANT_BITS;
use relspec::properties::Property;
use std::path::PathBuf;

/// The largest `--scope`: scope 11 has 121 primary variables, the last
/// space within the exact counters' 127-variable projection limit
/// ([`satkit::ddnnf::MAX_PROJECTION_VARS`]).
pub const MAX_SCOPE: usize = 11;

/// Usage summary printed (with the offending error) when argument parsing
/// fails.
pub const USAGE: &str = "\
usage: table* [flags]
  --scope N                     override the per-property study scope (max 11)
  --approx                      use the approximate counter
  --exact                       use the exact counter (default)
  --max-positive N              cap on enumerated positive samples
  --seed N                      RNG seed
  --property NAME               restrict to a single property
  --models dt,rft,gbdt,abt,mlp,svm
                                model families for the whole-space tables
  --mlp-hidden N                hidden units of the quantized MLP (default 4)
  --quant-bits N                fractional bits of the MLP/SVM fixed-point
                                quantization (default 8, max 24)
  --threads N                   worker threads for the batch runner (0 = cores)
  --engine classic|compiled     whole-space counting strategy
  --vote-nodes N                node budget for ensemble vote circuits
  --budget N                    decision budget for the exact and compiled engines
  --fallback exact|approx[:eps,delta]
                                what a blown counting budget does to a row
  --stream                      print rows in completion order
  --cache-dir DIR               persist the count cache across runs (not with
                                --engine compiled; use --artifact-dir)
  --artifact-dir DIR            persist/preload compiled circuit artifacts";

/// Parsed harness arguments.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Scope override (`None` = per-property default).
    pub scope: Option<usize>,
    /// Use the approximate counter.
    pub approx: bool,
    /// Cap on enumerated positive samples.
    pub max_positive: usize,
    /// RNG seed.
    pub seed: u64,
    /// Restrict to one property.
    pub property: Option<Property>,
    /// Model families evaluated by the whole-space tables.
    pub models: Vec<ModelFamily>,
    /// Hidden units of the quantized MLP family.
    pub mlp_hidden: usize,
    /// Fractional bits of the MLP/SVM fixed-point quantization.
    pub quant_bits: u32,
    /// Worker threads for the batch runner (0 = one per core).
    pub threads: usize,
    /// Whole-space counting engine.
    pub engine: CountingEngine,
    /// Node budget for ensemble vote circuits (region-extraction BDDs).
    pub vote_nodes: usize,
    /// Decision budget for the exact and compiled counting backends.
    pub budget: u64,
    /// Degradation policy applied when a count exhausts the budget.
    pub fallback: FallbackPolicy,
    /// Stream table rows as their cells finish instead of waiting for the
    /// whole batch.
    pub stream: bool,
    /// Directory holding the persistent count cache (`None` = in-memory
    /// only).
    pub cache_dir: Option<PathBuf>,
    /// Directories holding circuit artifact stores (empty = no circuit
    /// persistence). Only meaningful with the compiled engine. All are
    /// preloaded; a fresh build is saved to the first.
    pub artifact_dirs: Vec<PathBuf>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scope: None,
            approx: false,
            max_positive: 2_000,
            seed: 0,
            property: None,
            models: vec![ModelFamily::Dt],
            mlp_hidden: 4,
            quant_bits: DEFAULT_QUANT_BITS,
            threads: 0,
            engine: CountingEngine::Classic,
            vote_nodes: mcml::encode::MAX_VOTE_NODES,
            budget: 20_000_000,
            fallback: FallbackPolicy::default(),
            stream: false,
            cache_dir: None,
            artifact_dirs: Vec::new(),
        }
    }
}

impl HarnessArgs {
    /// Parses arguments from an iterator of strings (excluding the program
    /// name). A malformed or unknown argument is a usage error returned as
    /// `Err`, not a panic; [`from_env`](Self::from_env) turns it into a
    /// [`USAGE`] message and exit status 1.
    pub fn try_parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        fn value<I: Iterator<Item = String>>(
            iter: &mut I,
            flag: &str,
            what: &str,
        ) -> Result<String, String> {
            iter.next().ok_or_else(|| format!("{flag} requires {what}"))
        }
        fn number<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag} must be a number"))
        }
        let mut out = HarnessArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scope" => {
                    let v = value(&mut iter, "--scope", "a value")?;
                    let scope = number(&v, "--scope")?;
                    if scope > MAX_SCOPE {
                        return Err(format!("--scope must be at most {MAX_SCOPE}"));
                    }
                    out.scope = Some(scope);
                }
                "--approx" => out.approx = true,
                "--exact" => out.approx = false,
                "--max-positive" => {
                    let v = value(&mut iter, "--max-positive", "a value")?;
                    out.max_positive = number(&v, "--max-positive")?;
                }
                "--seed" => {
                    let v = value(&mut iter, "--seed", "a value")?;
                    out.seed = number(&v, "--seed")?;
                }
                "--property" => {
                    let v = value(&mut iter, "--property", "a name")?;
                    out.property = Some(
                        Property::from_name(&v).ok_or_else(|| format!("unknown property {v:?}"))?,
                    );
                }
                "--models" => {
                    let v = value(&mut iter, "--models", "a comma-separated list")?;
                    out.models = v
                        .split(',')
                        .map(|name| {
                            ModelFamily::parse(name.trim()).ok_or_else(|| {
                                format!(
                                    "unknown model family {name:?} \
                                     (expected dt, rft, gbdt, abt, mlp or svm)"
                                )
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    if out.models.is_empty() {
                        return Err("--models requires at least one family".to_string());
                    }
                }
                "--mlp-hidden" => {
                    let v = value(&mut iter, "--mlp-hidden", "a value")?;
                    out.mlp_hidden = number(&v, "--mlp-hidden")?;
                    if out.mlp_hidden == 0 {
                        return Err("--mlp-hidden must be positive".to_string());
                    }
                }
                "--quant-bits" => {
                    let v = value(&mut iter, "--quant-bits", "a value")?;
                    out.quant_bits = number(&v, "--quant-bits")?;
                    if out.quant_bits == 0 || out.quant_bits > 24 {
                        return Err("--quant-bits must be between 1 and 24".to_string());
                    }
                }
                "--threads" => {
                    let v = value(&mut iter, "--threads", "a value")?;
                    out.threads = number(&v, "--threads")?;
                }
                "--engine" => {
                    let v = value(&mut iter, "--engine", "a name")?;
                    out.engine = CountingEngine::parse(&v).ok_or_else(|| {
                        format!("unknown engine {v:?} (expected classic or compiled)")
                    })?;
                }
                "--vote-nodes" => {
                    let v = value(&mut iter, "--vote-nodes", "a value")?;
                    out.vote_nodes = number(&v, "--vote-nodes")?;
                    if out.vote_nodes == 0 {
                        return Err("--vote-nodes must be positive".to_string());
                    }
                }
                "--budget" => {
                    let v = value(&mut iter, "--budget", "a value")?;
                    out.budget = number(&v, "--budget")?;
                    if out.budget == 0 {
                        return Err("--budget must be positive".to_string());
                    }
                }
                "--fallback" => {
                    let v = value(&mut iter, "--fallback", "a policy")?;
                    out.fallback = FallbackPolicy::parse(&v)?;
                }
                "--stream" => out.stream = true,
                "--cache-dir" => {
                    let v = value(&mut iter, "--cache-dir", "a path")?;
                    out.cache_dir = Some(PathBuf::from(v));
                }
                "--artifact-dir" => {
                    let v = value(&mut iter, "--artifact-dir", "a path")?;
                    out.artifact_dirs.push(PathBuf::from(v));
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if out.approx && out.engine == CountingEngine::Compiled {
            return Err(
                "--approx is incompatible with --engine compiled (the d-DNNF engine is exact)"
                    .to_string(),
            );
        }
        Ok(out)
    }

    /// Parses the process arguments; a usage error prints the message and
    /// [`USAGE`] on stderr and exits with status 1.
    pub fn from_env() -> Self {
        match HarnessArgs::try_parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!("{USAGE}");
                std::process::exit(1);
            }
        }
    }

    /// Warns on stderr when flags only honoured by the `Runner`-backed
    /// AccMC tables (3/5/6/7) were passed to a binary that ignores them,
    /// so an experimenter never mis-attributes a DT table to `--models`.
    pub fn warn_ignored_runner_flags(&self, binary: &str) {
        if self.models != vec![ModelFamily::Dt] {
            eprintln!("warning: {binary} ignores --models (only tables 3, 5, 6 and 7 use it)");
        }
        if self.threads != 0 {
            eprintln!("warning: {binary} ignores --threads (only tables 3, 5, 6 and 7 use it)");
        }
        if self.stream {
            eprintln!("warning: {binary} ignores --stream (only tables 3, 5, 6 and 7 use it)");
        }
    }

    /// The counting backend selected by the flags. The exact and compiled
    /// backends carry the `--budget` allowance (20M by default — generous
    /// enough that a pathological instance reports "-" instead of hanging,
    /// the analogue of the paper's 5 000 s timeout; small values are the
    /// degradation ladder's test bench).
    pub fn backend(&self) -> CounterBackend {
        if self.approx {
            CounterBackend::approx()
        } else if self.engine == CountingEngine::Compiled {
            CounterBackend::compiled_with_budget(self.budget)
        } else {
            CounterBackend::exact_with_budget(self.budget)
        }
    }

    /// The properties selected (all 16 unless `--property` was given).
    pub fn properties(&self) -> Vec<Property> {
        match self.property {
            Some(p) => vec![p],
            None => Property::all().to_vec(),
        }
    }

    /// The scope to use for a property.
    pub fn scope_for(&self, property: Property) -> usize {
        self.scope
            .unwrap_or_else(|| crate::scopes::study_scope(property))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> HarnessArgs {
        HarnessArgs::try_parse(args.iter().map(|s| s.to_string())).expect("well-formed flags")
    }

    fn parse_err(args: &[&str]) -> String {
        HarnessArgs::try_parse(args.iter().map(|s| s.to_string()))
            .expect_err("malformed flags must be a usage error")
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.scope, None);
        assert!(!a.approx);
        assert_eq!(a.properties().len(), 16);
        assert_eq!(a.models, vec![ModelFamily::Dt]);
        assert_eq!(a.threads, 0);
    }

    #[test]
    fn parses_flags() {
        let a = parse(&[
            "--scope",
            "5",
            "--approx",
            "--seed",
            "9",
            "--property",
            "reflexive",
        ]);
        assert_eq!(a.scope, Some(5));
        assert!(a.approx);
        assert_eq!(a.seed, 9);
        assert_eq!(a.properties(), vec![Property::Reflexive]);
        assert_eq!(a.scope_for(Property::Reflexive), 5);
        assert_eq!(a.backend().name(), "approx");
    }

    #[test]
    fn parses_model_families() {
        let a = parse(&["--models", "dt,rft,gbdt,abt,mlp,svm", "--threads", "2"]);
        assert_eq!(a.models, ModelFamily::all().to_vec());
        assert_eq!(a.threads, 2);
        let single = parse(&["--models", "RFT"]);
        assert_eq!(single.models, vec![ModelFamily::Rft]);
        let quantized = parse(&["--models", "mlp,svm"]);
        assert_eq!(quantized.models, vec![ModelFamily::Mlp, ModelFamily::Svm]);
    }

    #[test]
    fn parses_quantization_knobs() {
        let defaults = parse(&[]);
        assert_eq!(defaults.mlp_hidden, 4);
        assert_eq!(defaults.quant_bits, DEFAULT_QUANT_BITS);
        let a = parse(&["--mlp-hidden", "8", "--quant-bits", "6"]);
        assert_eq!(a.mlp_hidden, 8);
        assert_eq!(a.quant_bits, 6);
        assert_eq!(
            parse_err(&["--mlp-hidden", "0"]),
            "--mlp-hidden must be positive"
        );
        assert_eq!(
            parse_err(&["--quant-bits", "0"]),
            "--quant-bits must be between 1 and 24"
        );
        assert_eq!(
            parse_err(&["--quant-bits", "30"]),
            "--quant-bits must be between 1 and 24"
        );
    }

    #[test]
    fn parses_stream() {
        assert!(parse(&["--stream"]).stream);
        assert!(!parse(&[]).stream);
    }

    #[test]
    fn parses_budget_and_fallback() {
        let defaults = parse(&[]);
        assert_eq!(defaults.budget, 20_000_000);
        assert_eq!(defaults.fallback, FallbackPolicy::Fail);
        let a = parse(&["--budget", "1", "--fallback", "approx"]);
        assert_eq!(a.budget, 1);
        assert_eq!(a.fallback, FallbackPolicy::approx());
        let tuned = parse(&["--fallback", "approx:0.8,0.1"]);
        assert_eq!(
            tuned.fallback,
            FallbackPolicy::SymmetryThenApprox {
                epsilon: 0.8,
                delta: 0.1
            }
        );
        assert_eq!(
            parse(&["--fallback", "exact"]).fallback,
            FallbackPolicy::Fail
        );
        // The ladder is a budget response, not a backend: it composes with
        // the compiled engine (unlike --approx, which replaces the backend).
        let compiled = parse(&["--engine", "compiled", "--fallback", "approx"]);
        assert_eq!(compiled.backend().name(), "compiled");
    }

    #[test]
    fn unknown_fallback_is_a_usage_error() {
        assert!(parse_err(&["--fallback", "magic"]).contains("unknown fallback policy"));
    }

    #[test]
    fn scope_past_the_128_bit_limit_is_a_usage_error() {
        assert_eq!(parse(&["--scope", "11"]).scope, Some(MAX_SCOPE));
        assert_eq!(parse_err(&["--scope", "12"]), "--scope must be at most 11");
    }

    #[test]
    fn zero_budget_is_a_usage_error() {
        assert_eq!(parse_err(&["--budget", "0"]), "--budget must be positive");
    }

    #[test]
    fn parses_vote_nodes() {
        let a = parse(&["--vote-nodes", "1024"]);
        assert_eq!(a.vote_nodes, 1024);
        assert_eq!(parse(&[]).vote_nodes, mcml::encode::MAX_VOTE_NODES);
    }

    #[test]
    fn zero_vote_nodes_is_a_usage_error() {
        assert_eq!(
            parse_err(&["--vote-nodes", "0"]),
            "--vote-nodes must be positive"
        );
    }

    #[test]
    fn parses_engine_and_cache_dir() {
        let a = parse(&["--engine", "compiled", "--cache-dir", "/tmp/mcml-cache"]);
        assert_eq!(a.engine, CountingEngine::Compiled);
        assert_eq!(a.backend().name(), "compiled");
        assert_eq!(
            a.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/mcml-cache"))
        );
        let default = parse(&[]);
        assert_eq!(default.engine, CountingEngine::Classic);
        assert_eq!(default.cache_dir, None);
        assert_eq!(parse(&["--engine", "CLASSIC"]).backend().name(), "exact");
    }

    #[test]
    fn parses_artifact_dir() {
        // The flag is repeatable: every directory is preloaded, the build
        // is saved to the first.
        let a = parse(&[
            "--engine",
            "compiled",
            "--artifact-dir",
            "/tmp/mcml-artifacts",
            "--artifact-dir",
            "/tmp/mcml-artifacts-2",
        ]);
        assert_eq!(
            a.artifact_dirs,
            vec![
                std::path::PathBuf::from("/tmp/mcml-artifacts"),
                std::path::PathBuf::from("/tmp/mcml-artifacts-2"),
            ]
        );
        assert!(parse(&[]).artifact_dirs.is_empty());
    }

    #[test]
    fn unknown_engine_is_a_usage_error() {
        assert!(parse_err(&["--engine", "magic"]).contains("unknown engine"));
    }

    #[test]
    fn approx_with_compiled_engine_is_a_usage_error() {
        assert!(parse_err(&["--approx", "--engine", "compiled"]).contains("incompatible"));
    }

    #[test]
    fn unknown_flag_is_a_usage_error() {
        assert!(parse_err(&["--bogus"]).contains("unknown argument"));
    }

    #[test]
    fn unknown_property_is_a_usage_error() {
        assert!(parse_err(&["--property", "nope"]).contains("unknown property"));
    }

    #[test]
    fn unknown_model_family_is_a_usage_error() {
        assert!(parse_err(&["--models", "dt,xgb"]).contains("unknown model family"));
    }

    #[test]
    fn missing_values_are_usage_errors_not_panics() {
        assert_eq!(parse_err(&["--scope"]), "--scope requires a value");
        assert_eq!(parse_err(&["--scope", "many"]), "--scope must be a number");
        assert_eq!(parse_err(&["--property"]), "--property requires a name");
        assert_eq!(
            parse_err(&["--models"]),
            "--models requires a comma-separated list"
        );
        assert_eq!(parse_err(&["--fallback"]), "--fallback requires a policy");
        assert_eq!(parse_err(&["--cache-dir"]), "--cache-dir requires a path");
    }

    #[test]
    fn usage_covers_every_flag() {
        // Keep the printed usage in sync with the parser: every flag the
        // parser matches must appear in USAGE.
        for flag in [
            "--scope",
            "--approx",
            "--exact",
            "--max-positive",
            "--seed",
            "--property",
            "--models",
            "--mlp-hidden",
            "--quant-bits",
            "--threads",
            "--engine",
            "--vote-nodes",
            "--budget",
            "--fallback",
            "--stream",
            "--cache-dir",
            "--artifact-dir",
        ] {
            assert!(USAGE.contains(flag), "USAGE is missing {flag}");
        }
    }
}
