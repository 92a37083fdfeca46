//! Integration round-trip for the persistent count cache: a cache warmed
//! by a *real* whole-space evaluation is saved, reloaded into a fresh
//! process-alike counter, and must answer the same evaluation without
//! touching its inner counter at all — plus the backend-mismatch guard
//! that keeps an approximate cache from silently seeding an exact run.

use mcml::accmc::{AccMc, CountingEngine};
use mcml::artifact::{artifact_file_name, load_artifact, save_artifact, CircuitArtifact};
use mcml::backend::CounterBackend;
use mcml::counter::{CachedCounter, CompiledCounter, ModelCounter};
use mcml::framework::{ExperimentConfig, ModelFamily, Runner};
use mcml::persist::{cache_file_name, load_outcomes, save_outcomes};
use mlkit::data::Dataset;
use mlkit::tree::{DecisionTree, TreeConfig};
use relspec::instance::RelInstance;
use relspec::properties::Property;
use relspec::translate::{translate_to_cnf, TranslateOptions};
use satkit::cnf::Lit;
use satkit::ddnnf::{CompileStats, Ddnnf};
use std::collections::HashMap;

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

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "mcml-roundtrip-{}-{}",
        std::process::id(),
        cache_file_name(name)
    ));
    p
}

fn temp_artifact_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "mcml-roundtrip-{}-{tag}-{}",
        std::process::id(),
        artifact_file_name("compiled")
    ));
    p
}

/// Warm → save → load → replay. The second counter wraps a zero-budget
/// inner backend, so any count the preload fails to cover would surface as
/// a `BudgetExhausted` outcome (and a missing whole-space result) — equal
/// results plus zero misses prove the whole evaluation was served from the
/// reloaded cache.
#[test]
fn warmed_cache_replays_an_evaluation_across_a_process_boundary() {
    let property = Property::Function;
    let scope = 3;
    let dataset = labeled_dataset(property, scope).subsample(90, 3);
    let tree = DecisionTree::fit(&dataset, TreeConfig::default());
    let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));

    // First "process": evaluate with a generously-budgeted exact backend
    // and persist the warmed cache.
    let path = temp_path("exact");
    let warm = CachedCounter::new(CounterBackend::exact());
    let first = AccMc::new(&warm)
        .evaluate(&gt, &tree)
        .expect("scopes match")
        .expect("no budget");
    let written = save_outcomes(&path, "exact", &warm.snapshot()).expect("save cache");
    assert!(written >= 4, "the four AccMC counts must be persisted");

    // Second "process": a zero-budget inner counter can only answer from
    // the preload.
    let cold = CachedCounter::new(CounterBackend::exact_with_budget(0));
    cold.preload(load_outcomes(&path, "exact").expect("load cache"));
    let second = AccMc::new(&cold)
        .evaluate(&gt, &tree)
        .expect("scopes match")
        .expect("every count preloaded");
    assert_eq!(second.counts, first.counts);
    assert_eq!(second.metrics, first.metrics);
    assert_eq!(
        cold.stats().misses,
        0,
        "the replay must never fall through to the zero-budget counter"
    );

    // Backend mismatch: the same file must never seed a differently-backed
    // run — and the per-backend file names keep them apart on disk too.
    let err = load_outcomes(&path, "approx").expect_err("foreign backend must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_ne!(cache_file_name("exact"), cache_file_name("approx"));
    std::fs::remove_file(&path).ok();
}

/// Circuit artifacts round-trip for **every** model family at scopes 2 and
/// 3: `count_cubes` over a serialized-then-reloaded circuit must equal the
/// fresh-compiled result, region for region, on both the φ and ¬φ sides.
#[test]
fn artifact_round_trips_every_family_across_scopes() {
    let configs: Vec<ExperimentConfig> = [2usize, 3]
        .iter()
        .map(|&scope| ExperimentConfig::table5(Property::Function, scope))
        .collect();
    let runner = Runner::new().families(ModelFamily::all());
    let counter = CompiledCounter::new();
    let artifact = runner
        .build_artifact(&configs, &counter)
        .expect("well-formed batch");
    assert_eq!(
        artifact.covers.len(),
        configs.len() * ModelFamily::all().len(),
        "one cover per (scope, family)"
    );

    let path = temp_artifact_path("families");
    save_artifact(&path, &artifact).expect("save artifact");
    let loaded = load_artifact(&path, "compiled").expect("load artifact");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.covers, artifact.covers, "region covers must survive");

    let fresh: HashMap<u128, &Ddnnf> = artifact.circuits.iter().map(|(k, c)| (*k, c)).collect();
    let reloaded: HashMap<u128, &Ddnnf> = loaded.circuits.iter().map(|(k, c)| (*k, c)).collect();
    assert_eq!(reloaded.len(), fresh.len());
    for cover in &loaded.covers {
        let unit = format!("{} scope {} {}", cover.property, cover.scope, cover.family);
        let cubes: Vec<&[Lit]> = cover.regions.iter().map(|r| r.cube.as_slice()).collect();
        assert!(!cubes.is_empty(), "{unit}: empty region cover");
        for key in [cover.phi, cover.not_phi] {
            assert_eq!(
                reloaded[&key].count_cubes(&cubes),
                fresh[&key].count_cubes(&cubes),
                "{unit}: conditioned counts drifted across the byte image"
            );
        }
    }
}

/// The acceptance bar for warm starts: after preloading a saved artifact,
/// a full compiled-engine accuracy evaluation must reproduce the original
/// results while performing **zero** d-DNNF compilation decisions — proved
/// by a zero-budget compiler (any fallthrough would lose the whole-space
/// result) and a still-default `CompileStats`.
#[test]
fn preloaded_artifact_serves_accuracy_with_zero_compilation_decisions() {
    let configs = vec![ExperimentConfig::table5(Property::Function, 3)];
    let runner = Runner::new()
        .families(&[ModelFamily::Dt])
        .engine(CountingEngine::Compiled);
    let rows = runner
        .run(&configs, &CounterBackend::compiled())
        .expect("well-formed batch");
    let warm_result = rows[0].whole_space.as_ref().expect("no budget configured");

    let warm = CompiledCounter::new();
    let artifact = runner
        .build_artifact(&configs, &warm)
        .expect("well-formed batch");
    assert!(
        warm.compile_stats().decisions > 0,
        "the warm pass must actually compile something"
    );

    let path = temp_artifact_path("warm-start");
    save_artifact(&path, &artifact).expect("save artifact");
    let loaded = load_artifact(&path, "compiled").expect("load artifact");
    std::fs::remove_file(&path).ok();

    let cold = CompiledCounter::with_decision_budget(0);
    cold.preload_circuits(loaded.circuits);
    assert_eq!(cold.preloaded_len(), 2, "φ and ¬φ circuits preloaded");
    let cold_rows = runner
        .run(&configs, &CounterBackend::Compiled(cold.clone()))
        .expect("well-formed batch");
    let cold_result = cold_rows[0]
        .whole_space
        .as_ref()
        .expect("every circuit preloaded — the zero-budget compiler is never consulted");
    assert_eq!(cold_result.counts, warm_result.counts);
    assert_eq!(cold_result.metrics, warm_result.metrics);
    assert_eq!(
        cold.compile_stats(),
        CompileStats::default(),
        "the warm-started evaluation must perform zero compilation decisions"
    );
}

/// The artifact store's mismatch policy at the file level: a foreign
/// backend, a bumped store version, a truncated file, and a flipped payload
/// byte must all be rejected as `InvalidData` — never misread.
#[test]
fn artifact_store_rejects_foreign_versions_and_corruption() {
    let counter = CompiledCounter::new();
    let gt = translate_to_cnf(&Property::Function.spec(), TranslateOptions::new(2));
    assert!(ModelCounter::count(&counter, &gt.cnf_positive()).is_exact());
    let artifact = CircuitArtifact {
        backend: "compiled".to_string(),
        circuits: counter.snapshot_circuits(),
        covers: Vec::new(),
    };
    let path = temp_artifact_path("tamper");
    save_artifact(&path, &artifact).expect("save artifact");
    let pristine = std::fs::read(&path).expect("read back");

    let expect_invalid = |label: &str| {
        let err = load_artifact(&path, "compiled").expect_err(label);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{label}");
    };

    // Foreign backend: same file, different expectation.
    let err = load_artifact(&path, "exact").expect_err("foreign backend");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // Store-version drift: bump the `v2` in the ASCII header line.
    let header_end = pristine.iter().position(|&b| b == b'\n').unwrap();
    let mut bumped = pristine.clone();
    let v = bumped[..header_end]
        .windows(2)
        .position(|w| w == b"v2")
        .expect("versioned header");
    bumped[v + 1] = b'9';
    std::fs::write(&path, &bumped).unwrap();
    expect_invalid("bumped store version");

    // Truncation at several depths.
    for keep in [pristine.len() - 1, pristine.len() / 2, 8] {
        std::fs::write(&path, &pristine[..keep]).unwrap();
        expect_invalid("truncated artifact");
    }

    // A single flipped payload byte trips the checksum.
    let mut flipped = pristine.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x40;
    std::fs::write(&path, &flipped).unwrap();
    expect_invalid("flipped payload byte");

    std::fs::remove_file(&path).ok();
}
