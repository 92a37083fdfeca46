//! The traced driver must measure the same program the untraced benchmark
//! runs: for the same workload and seed, its rows equal `Runner`'s rows
//! with the time column masked.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! the scope-4 roster takes a few seconds in release mode and minutes in
//! a debug build.

use mcml::accmc::CountingEngine;
use mcml::framework::ModelFamily;
use mcml_perfbench::gate::{check_batch, phi_counts, row_lines, Gate};
use mcml_perfbench::serve::{session, Verb};
use mcml_perfbench::trace::run_traced;
use mcml_perfbench::workload::{BatchSpec, Workload, THREADS};
use relspec::properties::Property;

fn assert_traced_equals_untraced(spec: &BatchSpec, seed: u64) {
    let backend = spec.backend();
    let untraced = spec
        .runner(THREADS)
        .run_collect(&spec.configs(seed), &backend)
        .expect("well-formed batch");
    let traced = run_traced(spec, seed);
    assert!(untraced.errors.is_empty(), "{:?}", untraced.errors);
    assert!(
        traced.outcome.errors.is_empty(),
        "{:?}",
        traced.outcome.errors
    );
    assert_eq!(row_lines(&traced.outcome.rows), row_lines(&untraced.rows));
    let mut gate = Gate::default();
    check_batch(
        &mut gate,
        "traced",
        spec,
        &traced.outcome,
        &phi_counts(spec),
    );
    assert!(gate.passed());
}

#[test]
fn traced_rows_equal_runner_rows_on_the_scope4_roster() {
    let spec = Workload::Roster4.batch();
    assert_traced_equals_untraced(&spec, 0);
    assert_traced_equals_untraced(&spec, 7);
}

#[test]
fn traced_rows_equal_runner_rows_on_the_classic_engine() {
    // The classic workload's roster restricted to its cheaper families, so
    // the label-CNF and exact-search wrappers are covered quickly.
    let spec = BatchSpec {
        families: vec![ModelFamily::Dt, ModelFamily::Rft, ModelFamily::Svm],
        ..BatchSpec::roster(3, CountingEngine::Classic)
    };
    assert_traced_equals_untraced(&spec, 0);
}

#[test]
fn traced_run_charges_compile_and_sweep_separately() {
    let spec = BatchSpec::roster(3, CountingEngine::Compiled);
    let traced = run_traced(&spec, 0);
    let tracer = &traced.tracer;
    // φ and ¬φ of each of the 16 properties compile exactly once.
    assert_eq!(tracer.counter("counter.compiles"), 32.0);
    assert!(tracer.counter("counter.sweep_cubes") >= tracer.counter("encode.regions"));
    assert_eq!(tracer.counter("exact.counts"), 0.0);
    assert_eq!(tracer.counter("mlkit.models"), spec.cells() as f64);
    let (evaluate, evaluate_self) = tracer.layer_s("accmc.evaluate");
    assert!(evaluate_self >= 0.0 && evaluate_self <= evaluate);
}

#[test]
fn sessions_are_seeded_with_an_exact_verb_mix() {
    let script = session(3, 1, 2, 16);
    assert_eq!(script, session(3, 1, 2, 16));
    assert_ne!(script, session(4, 1, 2, 16));
    let count = |verb| script.iter().filter(|r| r.verb == verb).count();
    assert_eq!(
        (count(Verb::Accuracy), count(Verb::Count), count(Verb::Diff)),
        (6, 12, 2)
    );
    // Diff pairs rotate through the 80 DT-against-family pairs whatever
    // the seed, two pairs per session.
    let diffs = |seed, connection, index| -> Vec<(&str, &str)> {
        let mut pairs: Vec<(&str, &str)> = session(seed, connection, index, 16)
            .into_iter()
            .filter(|r| r.verb == Verb::Diff)
            .map(|r| (r.property.name(), r.family.name()))
            .collect();
        pairs.sort();
        pairs
    };
    let all = Property::all();
    assert_eq!(diffs(3, 0, 0), diffs(4, 0, 0));
    assert_eq!(
        diffs(3, 0, 1),
        vec![(all[2].name(), "ABT"), (all[3].name(), "MLP")]
    );
    assert!(diffs(9, 0, 20).contains(&(all[40 % 16].name(), "RFT")));
    // Accuracy units rotate through all 96 units the same way.
    let units: Vec<_> = (0..16)
        .flat_map(|index| session(5, 0, index, 16))
        .filter(|r| r.verb == Verb::Accuracy)
        .map(|r| (r.property.name(), r.family.name()))
        .collect();
    let mut distinct = units.clone();
    distinct.sort();
    distinct.dedup();
    assert_eq!((units.len(), distinct.len()), (96, 96));
    // Count requests spread over the properties.
    let mut counted: Vec<_> = (0..16)
        .flat_map(|index| session(5, 0, index, 16))
        .filter(|r| r.verb == Verb::Count)
        .map(|r| r.property.name())
        .collect();
    counted.sort();
    counted.dedup();
    assert!(counted.len() > 8, "{counted:?}");
    for request in &script {
        assert!(request.cube.len() <= 6);
        assert!(request.cube.iter().all(|l| (1..=16).contains(&l.abs())));
        if request.verb == Verb::Diff {
            assert_ne!(request.family, ModelFamily::Dt);
        }
    }
}
