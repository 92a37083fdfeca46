//! The correctness gate: every check a run must pass before its metrics
//! count.

use crate::workload::BatchSpec;
use mcml::counter::{CompiledCounter, ModelCounter};
use mcml::framework::{BatchOutcome, RunnerRow};
use relspec::properties::Property;
use relspec::translate::{translate_to_cnf, TranslateOptions};
use std::collections::HashMap;
use std::path::Path;

/// Collected gate violations of one run.
#[derive(Debug, Default)]
pub struct Gate {
    violations: Vec<String>,
}

impl Gate {
    /// Records a violation.
    pub fn fail(&mut self, message: String) {
        eprintln!("gate: {message}");
        self.violations.push(message);
    }

    /// Records `message` unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A row as one line with the time column masked: everything the table
/// prints except `counting_time`. Floats print with Rust's round-trip
/// formatting, so equal lines mean bit-identical rows.
pub fn row_line(row: &RunnerRow) -> String {
    let whole = match &row.whole_space {
        Some(ws) => format!("{:?} {:?} {:?}", ws.counts, ws.metrics, ws.approx),
        None => "none".to_string(),
    };
    format!(
        "{} s{} {} seed={} test={:?} whole={} dataset={} train={}",
        row.config.property.name(),
        row.config.scope,
        row.family.name(),
        row.config.seed,
        row.test_metrics,
        whole,
        row.dataset_size,
        row.train_size
    )
}

/// All row lines of a batch, sorted, so that batches run in different job
/// orders compare.
pub fn row_lines(rows: &[RunnerRow]) -> Vec<String> {
    let mut lines: Vec<String> = rows.iter().map(row_line).collect();
    lines.sort();
    lines
}

/// `|φ|` at the batch's scope for every property, counted by a fresh
/// compiled counter independent of the batch's own backend.
pub fn phi_counts(spec: &BatchSpec) -> HashMap<Property, u128> {
    let counter = CompiledCounter::new();
    spec.properties
        .iter()
        .map(|&property| {
            let gt = translate_to_cnf(&property.spec(), TranslateOptions::new(spec.scope));
            let count = ModelCounter::count(&counter, gt.cnf_positive_ref())
                .value()
                .expect("an unbudgeted compile always counts");
            (property, count)
        })
        .collect()
}

/// Checks one batch outcome: every cell landed exactly, and each row's
/// confusion counts cover the whole space `2^(scope²)` with `tp + fn = |φ|`.
pub fn check_batch(
    gate: &mut Gate,
    label: &str,
    spec: &BatchSpec,
    outcome: &BatchOutcome,
    phi: &HashMap<Property, u128>,
) {
    for error in &outcome.errors {
        gate.fail(format!(
            "{label}: cell {} {} failed: {}",
            error.config.property.name(),
            error.family.name(),
            error.error
        ));
    }
    gate.check(outcome.rows.len() == spec.cells(), || {
        format!(
            "{label}: {} of {} cells produced rows",
            outcome.rows.len(),
            spec.cells()
        )
    });
    let space = 1u128 << (spec.scope * spec.scope);
    for row in &outcome.rows {
        let name = format!(
            "{label}: {} {}",
            row.config.property.name(),
            row.family.name()
        );
        let Some(ws) = &row.whole_space else {
            gate.fail(format!("{name}: no whole-space result"));
            continue;
        };
        let c = ws.counts;
        gate.check(ws.approx.is_none(), || format!("{name}: approximate row"));
        gate.check(c.total() == space, || {
            format!("{name}: counts sum to {} not {space}", c.total())
        });
        let expected = phi.get(&row.config.property).copied();
        gate.check(Some(c.tp + c.fn_) == expected, || {
            format!("{name}: tp+fn = {} but |phi| = {expected:?}", c.tp + c.fn_)
        });
    }
}

/// Checks that two row sets are identical with the time column masked.
pub fn check_same_rows(gate: &mut Gate, what: &str, a: &[String], b: &[String]) {
    if a.len() != b.len() {
        gate.fail(format!("{what}: {} rows against {}", a.len(), b.len()));
        return;
    }
    if let Some((x, y)) = a.iter().zip(b).find(|(x, y)| x != y) {
        gate.fail(format!("{what}: rows differ:\n  {x}\n  {y}"));
    }
}

/// Compares `lines` with the rows an earlier run of the same workload and
/// seed recorded under `dir`, or records them if this is the first run.
pub fn check_across_runs(gate: &mut Gate, dir: &Path, key: &str, lines: &[String]) {
    let path = dir.join(format!("{key}.rows"));
    let text = lines.join("\n");
    match std::fs::read_to_string(&path) {
        Ok(previous) => {
            let previous: Vec<String> = previous.lines().map(str::to_string).collect();
            check_same_rows(
                gate,
                &format!("rows of an earlier run ({key})"),
                &previous,
                lines,
            );
        }
        Err(_) => {
            let written = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, text));
            if let Err(e) = written {
                eprintln!("note: could not record rows in {}: {e}", path.display());
            }
        }
    }
}
