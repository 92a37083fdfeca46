//! Serving-vs-batch conformance: a query answered by `mcml-serve` from a
//! preloaded artifact must reproduce the batch evaluation **bit for bit**
//! — same `u128` counts, same `f64` metrics (compared via `to_bits`) —
//! under whichever engine `MCML_ENGINE` selects for the batch side. The
//! serving side always runs the compiled region-sum plan, so these tests
//! double as engine-conformance coverage for the serve crate.

use mcml::accmc::{ApproxInfo, CountingEngine, OutcomeMeta};
use mcml::artifact::{CircuitArtifact, RegionCover};
use mcml::backend::CounterBackend;
use mcml::counter::{cnf_fingerprint, CompiledCounter, CountOutcome, ModelCounter};
use mcml::diffmc::DiffMc;
use mcml::encode::CnfEncodable;
use mcml::framework::{ExperimentConfig, ModelFamily, Runner};
use mcml_serve::{client, server, CircuitStore, ServeOptions};
use mlkit::data::Dataset;
use mlkit::forest::{ForestConfig, RandomForest};
use mlkit::tree::{DecisionTree, TreeConfig};
use relspec::instance::RelInstance;
use relspec::properties::Property;
use relspec::symmetry::SymmetryBreaking;
use relspec::translate::{translate_to_cnf, TranslateOptions};

fn two_workers() -> ServeOptions {
    ServeOptions {
        workers: 2,
        ..ServeOptions::default()
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

fn temp_dir(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mcml-serve-conf-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&p).expect("create temp dir");
    p
}

/// A hand-built compiled artifact for `Reflexive` scope 3 covering the
/// named families (`"DT"` / `"RFT"`), no symmetry breaking — the
/// building block for the reload and multi-directory tests.
fn reflexive_artifact(families: &[&str]) -> CircuitArtifact {
    let property = Property::Reflexive;
    let scope = 3;
    let dataset = labeled_dataset(property, scope).subsample(90, 3);
    let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
    let phi = gt.cnf_positive();
    let not_phi = gt.cnf_negative();
    let counter = CompiledCounter::new();
    assert!(counter.count(&phi).is_exact());
    assert!(counter.count(&not_phi).is_exact());
    let cover = |family: &str, regions| RegionCover {
        property: property.name().to_string(),
        scope,
        family: family.to_string(),
        phi: cnf_fingerprint(&phi),
        not_phi: cnf_fingerprint(&not_phi),
        symmetry: SymmetryBreaking::None,
        regions,
    };
    let covers = families
        .iter()
        .map(|family| match *family {
            "DT" => {
                let tree = DecisionTree::fit(&dataset, TreeConfig::default());
                cover("DT", tree.decision_regions().expect("tree regions"))
            }
            "RFT" => {
                let forest = RandomForest::fit(
                    &dataset,
                    ForestConfig {
                        num_trees: 3,
                        seed: 11,
                        ..ForestConfig::default()
                    },
                );
                cover("RFT", forest.decision_regions().expect("forest regions"))
            }
            other => panic!("unknown family {other}"),
        })
        .collect();
    CircuitArtifact {
        backend: "compiled".to_string(),
        circuits: counter.snapshot_circuits(),
        covers,
    }
}

fn ok_fields(reply: &str) -> Vec<String> {
    let fields: Vec<String> = reply.split_ascii_whitespace().map(String::from).collect();
    assert_eq!(
        fields.first().map(String::as_str),
        Some("ok"),
        "reply {reply:?}"
    );
    fields[1..].to_vec()
}

/// Asserts the fixed `stats` summary header — `queries <n> degraded <d>
/// units <k> p50_ns <p> p99_ns <q>` — and returns the per-unit tail.
/// With at least one query recorded, both quantiles must be positive and
/// ordered.
fn check_stats_header(stats: &[String], queries: u64, degraded: u64, units: u64) -> &[String] {
    assert_eq!(stats[..2], ["queries".to_string(), queries.to_string()]);
    assert_eq!(stats[2..4], ["degraded".to_string(), degraded.to_string()]);
    assert_eq!(stats[4..6], ["units".to_string(), units.to_string()]);
    assert_eq!(stats[6], "p50_ns");
    let p50: u64 = stats[7].parse().expect("p50_ns is a number");
    assert_eq!(stats[8], "p99_ns");
    let p99: u64 = stats[9].parse().expect("p99_ns is a number");
    if queries > 0 {
        assert!(0 < p50 && p50 <= p99, "quantiles out of order in {stats:?}");
    } else {
        assert_eq!((p50, p99), (0, 0), "no queries, no latency: {stats:?}");
    }
    &stats[10..]
}

/// One parsed per-unit stats entry: the unit key, its hit count, and the
/// sparse `<bucket>:<count>` histogram words that follow it.
struct UnitEntry {
    key: String,
    hits: u64,
    buckets: Vec<(usize, u64)>,
}

/// Splits the stats tail into per-unit entries — four plain words
/// (`<property> <scope> <family> <hits>`), then any number of
/// `<bucket>:<count>` words — and checks the per-unit histogram
/// invariants: bucket indices in range and counts summing to the hits.
fn parse_unit_entries(tail: &[String]) -> Vec<UnitEntry> {
    let mut entries: Vec<UnitEntry> = Vec::new();
    let mut i = 0;
    while i < tail.len() {
        assert!(i + 4 <= tail.len(), "truncated unit entry in {tail:?}");
        let mut entry = UnitEntry {
            key: format!("{} {} {}", tail[i], tail[i + 1], tail[i + 2]),
            hits: tail[i + 3].parse().expect("hits is a number"),
            buckets: Vec::new(),
        };
        i += 4;
        while i < tail.len() && tail[i].contains(':') {
            let (bucket, count) = tail[i].split_once(':').expect("bucket word");
            entry.buckets.push((
                bucket.parse().expect("bucket index"),
                count.parse().expect("bucket count"),
            ));
            i += 1;
        }
        assert!(
            entry.buckets.iter().all(|(bucket, _)| *bucket < 32),
            "bucket index out of range in {tail:?}"
        );
        assert_eq!(
            entry.buckets.iter().map(|(_, count)| count).sum::<u64>(),
            entry.hits,
            "histogram of {} must sum to its hits",
            entry.key
        );
        entries.push(entry);
    }
    entries
}

/// Batch rows via the `Runner`, artifact via `Runner::build_artifact`
/// (identical training paths), then every row queried back over TCP: the
/// served counts and metrics must equal the batch's exactly.
#[test]
fn served_accuracy_is_bit_identical_to_the_batch_runner() {
    let configs = vec![ExperimentConfig::table5(Property::Function, 3)];
    let families = [ModelFamily::Dt, ModelFamily::Rft];
    let runner = Runner::new()
        .families(&families)
        .engine(CountingEngine::from_env());
    let rows = runner
        .run(&configs, &CounterBackend::compiled())
        .expect("well-formed batch");

    let counter = CompiledCounter::new();
    let artifact = runner
        .build_artifact(&configs, &counter)
        .expect("well-formed batch");
    let store = CircuitStore::from_artifact(artifact).expect("resolvable covers");
    assert_eq!(store.skipped_covers(), 0);
    assert_eq!(store.len(), 2);
    let handle = server::start(store, "127.0.0.1:0", two_workers()).expect("bind");
    let addr = handle.addr().to_string();

    for row in &rows {
        let ws = row.whole_space.as_ref().expect("no budget configured");
        let reply = client::query(
            &addr,
            &format!(
                "accuracy {} {} {}",
                row.config.property.name(),
                row.config.scope,
                row.family.name()
            ),
        )
        .expect("query");
        let fields = ok_fields(&reply);
        let counts: Vec<u128> = fields[..4].iter().map(|f| f.parse().unwrap()).collect();
        assert_eq!(
            counts,
            vec![ws.counts.tp, ws.counts.fp, ws.counts.tn, ws.counts.fn_],
            "count drift in {reply:?}"
        );
        let served: Vec<f64> = fields[4..8].iter().map(|f| f.parse().unwrap()).collect();
        let batch = [
            ws.metrics.accuracy,
            ws.metrics.precision,
            ws.metrics.recall,
            ws.metrics.f1,
        ];
        for (s, b) in served.iter().zip(batch) {
            assert_eq!(s.to_bits(), b.to_bits(), "metric drift in {reply:?}");
        }
    }

    assert_eq!(client::query(&addr, "ping").expect("ping"), "ok pong");

    // Two accuracy queries landed (one per row); ping is not a counting
    // query and must not inflate the stats.
    let stats = ok_fields(&client::query(&addr, "stats").expect("stats"));
    let tail = check_stats_header(&stats, 2, 0, 2);
    assert_eq!(parse_unit_entries(tail).len(), 2);

    assert_eq!(
        client::query(&addr, "shutdown").expect("shutdown"),
        "ok bye"
    );
    handle.join();
}

/// The conformance pin for the per-unit latency histograms: the `stats`
/// reply format is `ok queries <n> degraded <d> units <k> p50_ns <p>
/// p99_ns <q>` followed by per-unit entries, each carrying its
/// `<bucket>:<count>` log-scale histogram whose counts sum to the unit's
/// hits. Before any query both quantiles read 0; after queries they are
/// positive, ordered, and every recorded sample is accounted for.
#[test]
fn stats_report_per_unit_latency_histograms() {
    let store =
        CircuitStore::from_artifact(reflexive_artifact(&["DT"])).expect("resolvable covers");
    let handle = server::start(store, "127.0.0.1:0", two_workers()).expect("bind");
    let addr = handle.addr().to_string();

    // A fresh server has recorded nothing: empty histogram, zero
    // quantiles, no unit entries.
    let stats = ok_fields(&client::query(&addr, "stats").expect("stats"));
    assert!(check_stats_header(&stats, 0, 0, 0).is_empty());

    for _ in 0..5 {
        let reply = client::query(&addr, "accuracy Reflexive 3 DT").expect("accuracy");
        assert!(reply.starts_with("ok "), "got {reply:?}");
    }

    let stats = ok_fields(&client::query(&addr, "stats").expect("stats"));
    let entries = parse_unit_entries(check_stats_header(&stats, 5, 0, 1));
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].key, "Reflexive 3 DT");
    assert_eq!(entries[0].hits, 5);
    // parse_unit_entries already checked the histogram sums to the hits
    // and stays within the 32 fixed buckets; the buckets must also be
    // sorted and non-empty, so the sparse encoding is canonical.
    let indices: Vec<usize> = entries[0]
        .buckets
        .iter()
        .map(|(bucket, _)| *bucket)
        .collect();
    let mut sorted = indices.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(indices, sorted, "bucket words must be sorted and unique");
    assert!(entries[0].buckets.iter().all(|(_, count)| *count > 0));

    assert_eq!(
        client::query(&addr, "shutdown").expect("shutdown"),
        "ok bye"
    );
    handle.join();
}

/// Hand-built artifact for two models, served diff vs `DiffMc::compare` on
/// the very same trained models. The ground truth carries no symmetry
/// breaking, so φ ∨ ¬φ covers the full feature space and the served
/// pairwise-intersection plan must agree exactly — plus conditioned-count
/// and error-path coverage over the same connection.
#[test]
fn served_diff_and_counts_match_the_batch_analyses() {
    let property = Property::Reflexive;
    let scope = 3;
    let dataset = labeled_dataset(property, scope).subsample(90, 3);
    let tree = DecisionTree::fit(&dataset, TreeConfig::default());
    let forest = RandomForest::fit(
        &dataset,
        ForestConfig {
            num_trees: 3,
            seed: 11,
            ..ForestConfig::default()
        },
    );
    let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
    let expected = DiffMc::with_engine(&CounterBackend::compiled(), CountingEngine::from_env())
        .compare(&tree, &forest)
        .expect("feature counts match")
        .expect("no budget configured");

    let phi = gt.cnf_positive();
    let not_phi = gt.cnf_negative();
    let counter = CompiledCounter::new();
    assert!(counter.count(&phi).is_exact());
    assert!(counter.count(&not_phi).is_exact());
    let cover = |family: &str, regions| RegionCover {
        property: property.name().to_string(),
        scope,
        family: family.to_string(),
        phi: cnf_fingerprint(&phi),
        not_phi: cnf_fingerprint(&not_phi),
        symmetry: SymmetryBreaking::None,
        regions,
    };
    let artifact = CircuitArtifact {
        backend: "compiled".to_string(),
        circuits: counter.snapshot_circuits(),
        covers: vec![
            cover("DT", tree.decision_regions().expect("tree regions")),
            cover("RFT", forest.decision_regions().expect("forest regions")),
        ],
    };
    let store = CircuitStore::from_artifact(artifact).expect("resolvable covers");
    let handle = server::start(
        store,
        "127.0.0.1:0",
        ServeOptions {
            workers: 3,
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = handle.addr().to_string();

    let reply = client::query(&addr, &format!("diff {} {scope} DT RFT", property.name()))
        .expect("diff query");
    let fields = ok_fields(&reply);
    let counts: Vec<u128> = fields[..4].iter().map(|f| f.parse().unwrap()).collect();
    assert_eq!(
        counts,
        vec![
            expected.counts.tt,
            expected.counts.tf,
            expected.counts.ft,
            expected.counts.ff
        ],
        "count drift in {reply:?}"
    );
    let diff: f64 = fields[4].parse().unwrap();
    let sim: f64 = fields[5].parse().unwrap();
    assert_eq!(diff.to_bits(), expected.counts.diff().to_bits());
    assert_eq!(sim.to_bits(), expected.counts.sim().to_bits());

    // Conditioned counts against the preloaded φ: unconditioned equals the
    // circuit count, a one-literal cube splits it, and the two sides of
    // feature 1 sum back to the whole.
    let total: u128 = ok_fields(
        &client::query(&addr, &format!("count {} {scope} phi", property.name())).unwrap(),
    )[0]
    .parse()
    .unwrap();
    let pos: u128 = ok_fields(
        &client::query(&addr, &format!("count {} {scope} phi 1", property.name())).unwrap(),
    )[0]
    .parse()
    .unwrap();
    let neg: u128 = ok_fields(
        &client::query(&addr, &format!("count {} {scope} phi -1", property.name())).unwrap(),
    )[0]
    .parse()
    .unwrap();
    assert_eq!(pos + neg, total);

    // Error paths: unknown unit, foreign literal, malformed requests — all
    // `err` replies, never a dropped connection.
    for bad in [
        format!("accuracy {} {scope} GBDT", property.name()),
        format!("count {} {scope} phi 999", property.name()),
        format!("count {} {scope} phi 0", property.name()),
        format!("count {} {scope} psi", property.name()),
        "accuracy onlytwo 3".to_string(),
        "frobnicate".to_string(),
    ] {
        let reply = client::query(&addr, &bad).expect("connection survives");
        assert!(
            reply.starts_with("err "),
            "expected err for {bad:?}, got {reply:?}"
        );
    }

    // The stats verb tallies exactly the queries that were answered `ok`:
    // one diff (hitting both units), three conditioned counts (recorded
    // under the `truth` pseudo-family) — the error-path probes above must
    // not appear, so no phantom GBDT unit shows up.
    let stats = ok_fields(&client::query(&addr, "stats").expect("stats"));
    let tail = check_stats_header(&stats, 4, 0, 3);
    let entries = parse_unit_entries(tail);
    let summary: Vec<(&str, u64)> = entries
        .iter()
        .map(|entry| (entry.key.as_str(), entry.hits))
        .collect();
    assert_eq!(
        summary,
        vec![
            ("Reflexive 3 DT", 1),
            ("Reflexive 3 RFT", 1),
            ("Reflexive 3 truth", 3),
        ]
    );

    assert_eq!(
        client::query(&addr, "shutdown").expect("shutdown"),
        "ok bye"
    );
    handle.join();
}

/// Table 3's ground truth bakes lex-leader symmetry breaking into φ/¬φ,
/// so the artifact's covers record it, served accuracy stays bit-identical
/// to the batch runner (both are defined over the constrained space), and
/// `diff` — whose batch counterpart `DiffMc` counts the full feature
/// space — switches to the full-space combinatorial region-intersection
/// plan instead of refusing (or silently serving constrained-space
/// numbers).
#[test]
fn symmetry_broken_artifacts_serve_accuracy_and_full_space_diff() {
    let configs = vec![ExperimentConfig::table3(Property::Function, 3)];
    let families = [ModelFamily::Dt, ModelFamily::Rft];
    let runner = Runner::new()
        .families(&families)
        .engine(CountingEngine::from_env());
    let rows = runner
        .run(&configs, &CounterBackend::compiled())
        .expect("well-formed batch");

    let counter = CompiledCounter::new();
    let artifact = runner
        .build_artifact(&configs, &counter)
        .expect("well-formed batch");
    for cover in &artifact.covers {
        assert_eq!(
            cover.symmetry,
            SymmetryBreaking::Transpositions,
            "table3 covers must record the eval symmetry"
        );
    }
    let store = CircuitStore::from_artifact(artifact).expect("resolvable covers");
    let handle = server::start(store, "127.0.0.1:0", two_workers()).expect("bind");
    let addr = handle.addr().to_string();

    // Accuracy is still served, bit-identical to the batch rows.
    for row in &rows {
        let ws = row.whole_space.as_ref().expect("no budget configured");
        let reply = client::query(
            &addr,
            &format!(
                "accuracy {} {} {}",
                row.config.property.name(),
                row.config.scope,
                row.family.name()
            ),
        )
        .expect("query");
        let fields = ok_fields(&reply);
        let counts: Vec<u128> = fields[..4].iter().map(|f| f.parse().unwrap()).collect();
        assert_eq!(
            counts,
            vec![ws.counts.tp, ws.counts.fp, ws.counts.tn, ws.counts.fn_],
            "count drift in {reply:?}"
        );
        let served_acc: f64 = fields[4].parse().unwrap();
        assert_eq!(served_acc.to_bits(), ws.metrics.accuracy.to_bits());
    }

    // The whole-space diff is served over the full feature space (2^9
    // inputs at scope 3): the four label-pair counts must sum to the
    // whole space, and the answer is exact — no approx label.
    let reply = client::query(&addr, "diff Function 3 DT RFT").expect("diff query");
    let fields = ok_fields(&reply);
    let counts: Vec<u128> = fields[..4].iter().map(|f| f.parse().unwrap()).collect();
    assert_eq!(
        counts.iter().sum::<u128>(),
        1u128 << 9,
        "full-space diff counts must partition the whole feature space: {reply:?}"
    );
    assert_eq!(fields.len(), 6, "exact diff carries no approx label");
    // The diff is a counting answer now and hits both units in the stats.
    let stats = ok_fields(&client::query(&addr, "stats").expect("stats"));
    check_stats_header(&stats, 3, 0, 2);

    assert_eq!(
        client::query(&addr, "shutdown").expect("shutdown"),
        "ok bye"
    );
    handle.join();
}

/// The satellite conformance pin for the symmetry-breaking diff: a
/// hand-built artifact whose ground truth bakes in `Transpositions`, with
/// both families trained exactly as the batch side — the served diff
/// must reproduce the **unconstrained** batch `DiffMc::compare` counts
/// bit for bit, because the server recounts both models over the full
/// feature space instead of sweeping the constrained circuits.
#[test]
fn symmetry_broken_diff_is_bit_identical_to_unconstrained_diffmc() {
    let property = Property::Reflexive;
    let scope = 3;
    let dataset = labeled_dataset(property, scope).subsample(90, 3);
    let tree = DecisionTree::fit(&dataset, TreeConfig::default());
    let forest = RandomForest::fit(
        &dataset,
        ForestConfig {
            num_trees: 3,
            seed: 11,
            ..ForestConfig::default()
        },
    );
    // The batch side: DiffMc over the full feature space — it never sees
    // the ground truth, so the symmetry setting below cannot leak in.
    let expected = DiffMc::with_engine(&CounterBackend::compiled(), CountingEngine::from_env())
        .compare(&tree, &forest)
        .expect("feature counts match")
        .expect("no budget configured");

    // The served side: the artifact's circuits bake in transposition
    // symmetry breaking, which the covers record.
    let gt = translate_to_cnf(
        &property.spec(),
        TranslateOptions::new(scope).with_symmetry(SymmetryBreaking::Transpositions),
    );
    let phi = gt.cnf_positive();
    let not_phi = gt.cnf_negative();
    let counter = CompiledCounter::new();
    assert!(counter.count(&phi).is_exact());
    assert!(counter.count(&not_phi).is_exact());
    let cover = |family: &str, regions| RegionCover {
        property: property.name().to_string(),
        scope,
        family: family.to_string(),
        phi: cnf_fingerprint(&phi),
        not_phi: cnf_fingerprint(&not_phi),
        symmetry: SymmetryBreaking::Transpositions,
        regions,
    };
    let artifact = CircuitArtifact {
        backend: "compiled".to_string(),
        circuits: counter.snapshot_circuits(),
        covers: vec![
            cover("DT", tree.decision_regions().expect("tree regions")),
            cover("RFT", forest.decision_regions().expect("forest regions")),
        ],
    };
    let store = CircuitStore::from_artifact(artifact).expect("resolvable covers");
    let handle = server::start(store, "127.0.0.1:0", two_workers()).expect("bind");
    let addr = handle.addr().to_string();

    let reply = client::query(&addr, &format!("diff {} {scope} DT RFT", property.name()))
        .expect("diff query");
    let fields = ok_fields(&reply);
    let counts: Vec<u128> = fields[..4].iter().map(|f| f.parse().unwrap()).collect();
    assert_eq!(
        counts,
        vec![
            expected.counts.tt,
            expected.counts.tf,
            expected.counts.ft,
            expected.counts.ff
        ],
        "count drift in {reply:?}"
    );
    let diff: f64 = fields[4].parse().unwrap();
    let sim: f64 = fields[5].parse().unwrap();
    assert_eq!(diff.to_bits(), expected.counts.diff().to_bits());
    assert_eq!(sim.to_bits(), expected.counts.sim().to_bits());

    assert_eq!(
        client::query(&addr, "shutdown").expect("shutdown"),
        "ok bye"
    );
    handle.join();
}

/// The per-unit fallback ladder on the serving path: an artifact whose
/// circuits were never persisted (every compilation blew its budget
/// during the batch run) yields only degraded units under
/// `--fallback approx`. Accuracy and conditioned counts answer with the
/// `approx <ε> <δ>` label, deterministically; the diff between two
/// degraded units is still exact (the combinatorial full-space plan needs
/// no circuits) and matches the batch `DiffMc` bit for bit; `stats`
/// counts the degraded answers.
#[test]
fn circuitless_artifacts_serve_degraded_labeled_answers_under_approx_fallback() {
    use mcml::fallback::FallbackPolicy;

    let property = Property::Reflexive;
    let scope = 3;
    let dataset = labeled_dataset(property, scope).subsample(90, 3);
    let tree = DecisionTree::fit(&dataset, TreeConfig::default());
    let forest = RandomForest::fit(
        &dataset,
        ForestConfig {
            num_trees: 3,
            seed: 11,
            ..ForestConfig::default()
        },
    );
    let expected_diff =
        DiffMc::with_engine(&CounterBackend::compiled(), CountingEngine::from_env())
            .compare(&tree, &forest)
            .expect("feature counts match")
            .expect("no budget configured");
    let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(scope));
    let phi = gt.cnf_positive();
    let cover = |family: &str, regions| RegionCover {
        property: property.name().to_string(),
        scope,
        family: family.to_string(),
        phi: cnf_fingerprint(&phi),
        not_phi: cnf_fingerprint(&gt.cnf_negative()),
        symmetry: SymmetryBreaking::None,
        regions,
    };
    // No circuits at all: every cover's fingerprints dangle, exactly as
    // after a batch run whose compilations all exhausted their budgets.
    let artifact = CircuitArtifact {
        backend: "compiled".to_string(),
        circuits: Vec::new(),
        covers: vec![
            cover("DT", tree.decision_regions().expect("tree regions")),
            cover("RFT", forest.decision_regions().expect("forest regions")),
        ],
    };

    // The default policy skips the covers; the approx policy rescues them.
    let strict = CircuitStore::from_artifact(CircuitArtifact {
        backend: "compiled".to_string(),
        circuits: Vec::new(),
        covers: vec![cover("DT", tree.decision_regions().expect("tree regions"))],
    })
    .expect("resolves");
    assert_eq!(strict.len(), 0);
    assert_eq!(strict.skipped_covers(), 1);

    let policy = FallbackPolicy::SymmetryThenApprox {
        epsilon: 0.4,
        delta: 0.2,
    };
    let store = CircuitStore::from_artifact_with(artifact, policy).expect("resolves");
    assert_eq!(store.len(), 2);
    assert_eq!(store.skipped_covers(), 0);
    assert_eq!(store.degraded_units(), 2);
    let handle = server::start(store, "127.0.0.1:0", two_workers()).expect("bind");
    let addr = handle.addr().to_string();

    // Degraded accuracy: an ok reply, labeled, and deterministic (the
    // seeds derive from the (CNF, cube) fingerprints, not from any
    // run-time state). The reply sums 2·|regions| approximate counts, so
    // its label is the batch one: the largest ε and δ union-bounded over
    // every count, capped at 1 — not one count's δ.
    let request = format!("accuracy {} {scope} DT", property.name());
    let first = client::query(&addr, &request).expect("degraded accuracy");
    assert!(first.starts_with("ok "), "got {first:?}");
    let regions = tree.decision_regions().expect("tree regions").len();
    let mut meta = OutcomeMeta::default();
    for _ in 0..2 * regions {
        meta.absorb(CountOutcome::Approx {
            estimate: 0,
            epsilon: 0.4,
            delta: 0.2,
        });
    }
    let ApproxInfo { epsilon, delta } = meta.approx().expect("approximate counts");
    assert!(
        first.ends_with(&format!("approx {epsilon} {delta}")),
        "degraded replies must carry the union-bound label: {first:?}"
    );
    assert!(
        first.ends_with("approx 0.4 1"),
        "{regions} regions: δ saturates at 1: {first:?}"
    );
    let second = client::query(&addr, &request).expect("degraded accuracy again");
    assert_eq!(first, second, "degraded answers must be deterministic");
    // The four cell estimates are (ε, δ)-approximations of a partition of
    // the 2^9 full space; with the fingerprint-derived seeds they are
    // fixed, and a wildly wrong sum would mean the ladder miscounted.
    let fields = ok_fields(&first);
    let counts: Vec<u128> = fields[..4].iter().map(|f| f.parse().unwrap()).collect();
    let sum = counts.iter().sum::<u128>();
    assert!(
        (256..=1024).contains(&sum),
        "cell estimates should roughly partition the 512-input space: {first:?}"
    );

    // Degraded conditioned count, also labeled and deterministic.
    let count_req = format!("count {} {scope} phi 1", property.name());
    let count_reply = client::query(&addr, &count_req).expect("degraded count");
    assert!(count_reply.starts_with("ok "), "got {count_reply:?}");
    assert!(
        count_reply.ends_with("approx 0.4 0.2"),
        "got {count_reply:?}"
    );
    assert_eq!(
        count_reply,
        client::query(&addr, &count_req).expect("degraded count again")
    );

    // The diff between two degraded units is exact — the combinatorial
    // full-space plan never touches circuits — and reproduces the batch
    // DiffMc bit for bit, unlabeled.
    let reply = client::query(&addr, &format!("diff {} {scope} DT RFT", property.name()))
        .expect("diff query");
    let fields = ok_fields(&reply);
    assert_eq!(fields.len(), 6, "exact diff carries no approx label");
    let counts: Vec<u128> = fields[..4].iter().map(|f| f.parse().unwrap()).collect();
    assert_eq!(
        counts,
        vec![
            expected_diff.counts.tt,
            expected_diff.counts.tf,
            expected_diff.counts.ft,
            expected_diff.counts.ff
        ],
        "count drift in {reply:?}"
    );

    // stats: 5 ok queries, of which 4 were degraded (2 accuracy + 2
    // count); the exact diff is not degraded. Units: DT, RFT, truth.
    let stats = ok_fields(&client::query(&addr, "stats").expect("stats"));
    check_stats_header(&stats, 5, 4, 3);

    assert_eq!(
        client::query(&addr, "shutdown").expect("shutdown"),
        "ok bye"
    );
    handle.join();
}

/// The `reload` verb swaps in a validated new store generation atomically:
/// a query in flight across the swap answers from the generation it
/// started on, later queries see the new units, and a reload that fails
/// to load leaves the serving generation untouched.
#[test]
fn reload_swaps_generations_atomically_and_survives_bad_artifacts() {
    use std::time::Duration;

    let dir = temp_dir("reload");
    let path = dir.join(mcml::artifact::artifact_file_name("compiled"));
    mcml::artifact::save_artifact(&path, &reflexive_artifact(&["DT"])).expect("save v1");

    let store = CircuitStore::load_dirs(&[&dir]).expect("load");
    let options = ServeOptions {
        workers: 2,
        reload_dirs: vec![dir.clone()],
        // Slow every counting answer down so a query provably spans the
        // reload below. Verb replies (reload itself) are not delayed.
        answer_latency: Duration::from_millis(500),
        ..ServeOptions::default()
    };
    let handle = server::start(store, "127.0.0.1:0", options).expect("bind");
    let addr = handle.addr().to_string();

    // Generation 0 serves DT only; reloading the unchanged file works.
    assert_eq!(
        client::query(&addr, "reload").expect("reload"),
        "ok reloaded generation 1 units 1"
    );

    // Grow the on-disk artifact, then race a query against the reload:
    // the query parses (and snapshots its generation) before the reload
    // lands, so it must answer from the old store even though the worker
    // finishes well after the swap.
    mcml::artifact::save_artifact(&path, &reflexive_artifact(&["DT", "RFT"])).expect("save v2");
    let (dispatched, wait_dispatched) = std::sync::mpsc::channel();
    let in_flight = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut conn = mcml_serve::Connection::connect(&addr).expect("connect");
            // The write returns once the request is on the wire; the
            // handler parses and dispatches it within one read tick.
            dispatched.send(()).expect("signal");
            conn.request("accuracy Reflexive 3 RFT").expect("reply")
        })
    };
    wait_dispatched.recv().expect("in-flight query started");
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        client::query(&addr, "reload").expect("reload"),
        "ok reloaded generation 2 units 2"
    );
    assert_eq!(
        in_flight.join().expect("in-flight query"),
        "err unknown unit Reflexive 3 RFT",
        "a query in flight across a reload must answer from its own generation"
    );

    // After the swap, the new unit serves.
    let reply = client::query(&addr, "accuracy Reflexive 3 RFT").expect("query");
    assert!(reply.starts_with("ok "), "got {reply:?}");

    // A corrupt artifact fails the reload and leaves the store serving.
    std::fs::write(&path, b"not an artifact").expect("corrupt");
    let reply = client::query(&addr, "reload").expect("reload");
    assert!(
        reply.starts_with("err reload failed:"),
        "expected a typed reload failure, got {reply:?}"
    );
    let reply = client::query(&addr, "accuracy Reflexive 3 RFT").expect("query");
    assert!(
        reply.starts_with("ok "),
        "a failed reload must not disturb the serving generation, got {reply:?}"
    );

    assert_eq!(
        client::query(&addr, "shutdown").expect("shutdown"),
        "ok bye"
    );
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The mtime poller notices an artifact overwrite and hot-reloads without
/// any client asking.
#[test]
fn mtime_polling_hot_reloads_on_artifact_change() {
    use std::time::{Duration, Instant};

    let dir = temp_dir("poll");
    let path = dir.join(mcml::artifact::artifact_file_name("compiled"));
    mcml::artifact::save_artifact(&path, &reflexive_artifact(&["DT"])).expect("save v1");

    let store = CircuitStore::load_dirs(&[&dir]).expect("load");
    let options = ServeOptions {
        workers: 2,
        reload_dirs: vec![dir.clone()],
        poll_interval: Some(Duration::from_millis(100)),
        ..ServeOptions::default()
    };
    let handle = server::start(store, "127.0.0.1:0", options).expect("bind");
    let addr = handle.addr().to_string();

    let probe = "accuracy Reflexive 3 RFT";
    assert!(client::query(&addr, probe)
        .expect("query")
        .starts_with("err unknown unit"));

    mcml::artifact::save_artifact(&path, &reflexive_artifact(&["DT", "RFT"])).expect("save v2");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let reply = client::query(&addr, probe).expect("query");
        if reply.starts_with("ok ") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "poller never picked up the artifact change; last reply {reply:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    assert_eq!(
        client::query(&addr, "shutdown").expect("shutdown"),
        "ok bye"
    );
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// `--artifact-dir` is repeatable: several directories merge into one
/// store, duplicate unit keys are rejected loudly, and the merged store
/// serves every directory's units.
#[test]
fn multi_directory_stores_merge_and_reject_duplicates() {
    let dir_a = temp_dir("multi-a");
    let dir_b = temp_dir("multi-b");
    let file = mcml::artifact::artifact_file_name("compiled");
    mcml::artifact::save_artifact(&dir_a.join(&file), &reflexive_artifact(&["DT"]))
        .expect("save A");
    mcml::artifact::save_artifact(&dir_b.join(&file), &reflexive_artifact(&["RFT"]))
        .expect("save B");

    // The same directory twice is a duplicate-unit error, not a silent
    // overwrite; no directories at all is an error too.
    let err = match CircuitStore::load_dirs(&[&dir_a, &dir_a]) {
        Err(err) => err,
        Ok(_) => panic!("duplicate units must be rejected"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("duplicate unit Reflexive 3 DT"),
        "got {err}"
    );
    assert!(CircuitStore::load_dirs(&Vec::<std::path::PathBuf>::new()).is_err());

    let store = CircuitStore::load_dirs(&[&dir_a, &dir_b]).expect("merge");
    assert_eq!(store.len(), 2);
    let handle = server::start(store, "127.0.0.1:0", two_workers()).expect("bind");
    let addr = handle.addr().to_string();
    for family in ["DT", "RFT"] {
        let reply = client::query(&addr, &format!("accuracy Reflexive 3 {family}")).expect("query");
        assert!(
            reply.starts_with("ok "),
            "unit {family} not served: {reply:?}"
        );
    }
    assert_eq!(
        client::query(&addr, "shutdown").expect("shutdown"),
        "ok bye"
    );
    handle.join();
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}
