//! Shared driver for the AccMC tables (Tables 3, 5, 6 and 7).
//!
//! Each of those tables runs the same per-property experiment — train a
//! model on the balanced dataset, evaluate it on the test set and against
//! the whole bounded space — and differs only in which symmetry settings the
//! dataset and the ground truth use. The rows are executed by the batch
//! [`Runner`], which deduplicates dataset construction and ground-truth
//! translation, shares one memoizing counter across all rows, and runs them
//! in parallel; `--models dt,rft,gbdt,abt,mlp,svm` evaluates any subset of
//! the CNF-encodable model families per property (`--mlp-hidden` and
//! `--quant-bits` tune the quantized neural/margin families), `--engine
//! compiled` switches the whole-space evaluation to the d-DNNF
//! compile-once/query-many plan (all six families ride it through their
//! decision regions, with `--vote-nodes` bounding the vote circuits), and
//! `--cache-dir DIR` (without the compiled engine) persists the count
//! cache across processes. `--artifact-dir DIR` (compiled engine only,
//! repeatable) persists the compiled circuits and decision-region covers
//! instead — every
//! named directory is preloaded on the next run and the fresh build is
//! saved to the first, forming the warm store(s) the `mcml-serve` query
//! service reads.
//!
//! Rows run through the streaming batch scheduler either way: `--stream`
//! prints each row the moment its cell lands (completion order — the
//! costliest cells start first, cheap rows overtake them), and without it
//! the table is buffered and printed whole. In both modes a failed cell
//! costs one stderr warning, not the batch.

use crate::cli::HarnessArgs;
use mcml::accmc::CountingEngine;
use mcml::artifact;
use mcml::counter::CachedCounter;
use mcml::framework::{CellError, ExperimentConfig, Runner, RunnerRow, SinkDecision};
use mcml::persist;
use mcml::report::{format_count_guarantee, format_metric, TextTable};
use relspec::properties::Property;
use std::path::PathBuf;

/// Column headers shared by the buffered and streaming renderers.
const COLUMNS: [&str; 12] = [
    "Property",
    "Model",
    "Acc(test)",
    "Prec(test)",
    "Rec(test)",
    "F1(test)",
    "Acc(phi)",
    "Prec(phi)",
    "Rec(phi)",
    "F1(phi)",
    "Count",
    "Time[s]",
];

/// Fixed column widths for `--stream` mode, where a row prints before the
/// batch's widest cell is known.
const STREAM_WIDTHS: [usize; 12] = [16, 5, 9, 10, 9, 8, 8, 9, 8, 7, 26, 7];

/// One streamed table line with the fixed column layout.
fn stream_line<S: AsRef<str>>(cells: &[S]) -> String {
    cells
        .iter()
        .zip(STREAM_WIDTHS)
        .map(|(cell, width)| format!("{:<width$}", cell.as_ref()))
        .collect::<Vec<_>>()
        .join(" ")
        .trim_end()
        .to_string()
}

/// The printable cells of one finished row, in [`COLUMNS`] order.
fn row_cells(row: &RunnerRow) -> Vec<String> {
    let t = &row.test_metrics;
    let (phi, time) = match &row.whole_space {
        Some(ws) => (
            [
                Some(ws.metrics.accuracy),
                Some(ws.metrics.precision),
                Some(ws.metrics.recall),
                Some(ws.metrics.f1),
            ],
            format!("{:.1}", ws.counting_time.as_secs_f64()),
        ),
        None => ([None, None, None, None], "-".to_string()),
    };
    vec![
        row.config.property.name().to_string(),
        row.family.name().to_string(),
        format_metric(Some(t.accuracy)),
        format_metric(Some(t.precision)),
        format_metric(Some(t.recall)),
        format_metric(Some(t.f1)),
        format_metric(phi[0]),
        format_metric(phi[1]),
        format_metric(phi[2]),
        format_metric(phi[3]),
        format_count_guarantee(row.whole_space.as_ref()),
        time,
    ]
}

/// One stderr warning per failed cell; the rest of the batch still prints.
fn warn_failed_cell(cell: &CellError) {
    eprintln!(
        "warning: row {}/{} (scope {}) failed: {}",
        cell.config.property.name(),
        cell.family,
        cell.config.scope,
        cell.error
    );
}

/// The cache file under `--cache-dir`, if configured and meaningful: the
/// compiled engine answers its region counts from circuits, not from the
/// whole-formula count cache, so the flag warns and is ignored there (its
/// warm start is `--artifact-dir`). The file name spells out the backend
/// so differently-configured runs (exact / approx) never read each
/// other's outcomes.
fn cache_file(args: &HarnessArgs) -> Option<PathBuf> {
    let dir = args.cache_dir.as_ref()?;
    if args.engine == CountingEngine::Compiled {
        eprintln!("warning: --cache-dir is ignored with --engine compiled (use --artifact-dir)");
        return None;
    }
    Some(dir.join(persist::cache_file_name(&args.backend().cache_tag())))
}

/// The circuit-artifact files under the `--artifact-dir`s, if configured
/// and meaningful: only the compiled engine has circuits to persist, so
/// the flag warns and is ignored otherwise. Every file is preloaded; a
/// fresh build is saved to the first.
fn artifact_files(args: &HarnessArgs) -> Vec<PathBuf> {
    if args.artifact_dirs.is_empty() {
        return Vec::new();
    }
    if args.engine != CountingEngine::Compiled {
        eprintln!("warning: --artifact-dir is ignored without --engine compiled");
        return Vec::new();
    }
    args.artifact_dirs
        .iter()
        .map(|dir| dir.join(artifact::artifact_file_name("compiled")))
        .collect()
}

/// Runs one AccMC-style table and prints it.
///
/// `make_config` maps `(property, scope)` to the experiment configuration
/// for the table being reproduced (e.g. [`ExperimentConfig::table3`]).
pub fn run_accmc_table(
    title: &str,
    args: &HarnessArgs,
    make_config: impl Fn(Property, usize) -> ExperimentConfig,
) {
    let inner = args.backend();
    // A clone of the compiled counter shares its circuit cache, so holding
    // one here lets the artifact path preload/snapshot the same cache the
    // runner counts through.
    let compiled = inner.as_compiled().cloned();
    let artifact_paths = artifact_files(args);
    if let Some(counter) = &compiled {
        for path in &artifact_paths {
            match artifact::load_artifact(path, "compiled") {
                Ok(loaded) => {
                    eprintln!(
                        "(preloaded {} compiled circuits from {})",
                        loaded.circuits.len(),
                        path.display()
                    );
                    counter.preload_circuits(loaded.circuits);
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => eprintln!(
                    "warning: ignoring unreadable circuit artifact {}: {e}",
                    path.display()
                ),
            }
        }
    }
    let backend = CachedCounter::new(inner);
    let cache_path = cache_file(args);
    if let Some(path) = &cache_path {
        match persist::load_outcomes(path, &args.backend().cache_tag()) {
            Ok(entries) => {
                eprintln!(
                    "(loaded {} cached counts from {})",
                    entries.len(),
                    path.display()
                );
                backend.preload(entries);
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => eprintln!(
                "warning: ignoring unreadable count cache {}: {e}",
                path.display()
            ),
        }
    }

    let configs: Vec<ExperimentConfig> = args
        .properties()
        .into_iter()
        .map(|property| {
            let mut config = make_config(property, args.scope_for(property));
            config.max_positive = args.max_positive;
            config.seed = args.seed;
            config
        })
        .collect();

    let runner = Runner::new()
        .families(&args.models)
        .threads(args.threads)
        .engine(args.engine)
        .vote_node_bound(args.vote_nodes)
        .fallback(args.fallback)
        .mlp_hidden(args.mlp_hidden)
        .quant_bits(args.quant_bits);
    if args.stream {
        println!("{title}");
        println!(
            "(counting engine: {}; streaming rows in completion order)",
            args.engine
        );
        println!("{}", stream_line(&COLUMNS));
        runner
            .run_stream(
                &configs,
                &backend,
                |cell: Result<&RunnerRow, &CellError>| {
                    match cell {
                        Ok(row) => println!("{}", stream_line(&row_cells(row))),
                        Err(failed) => warn_failed_cell(failed),
                    }
                    SinkDecision::Continue
                },
            )
            .unwrap_or_else(|e| panic!("malformed experiment batch: {e}"));
    } else {
        let outcome = runner
            .run_collect(&configs, &backend)
            .unwrap_or_else(|e| panic!("malformed experiment batch: {e}"));
        for failed in &outcome.errors {
            warn_failed_cell(failed);
        }
        let mut table = TextTable::new(COLUMNS.to_vec());
        for row in &outcome.rows {
            table.push_row(row_cells(row));
        }
        println!("{title}");
        println!("(counting engine: {})", args.engine);
        println!("{}", table.render());
    }
    let stats = backend.stats();
    if stats.hits > 0 {
        println!(
            "(counter cache: {} hits / {} misses)",
            stats.hits, stats.misses
        );
    }

    if let Some(path) = &cache_path {
        match persist::save_outcomes(path, &args.backend().cache_tag(), &backend.snapshot()) {
            Ok(written) => eprintln!("(saved {} cached counts to {})", written, path.display()),
            Err(e) => eprintln!(
                "warning: failed to save count cache {}: {e}",
                path.display()
            ),
        }
    }

    if let (Some(path), Some(counter)) = (artifact_paths.first(), &compiled) {
        match runner.build_artifact(&configs, counter) {
            Ok(built) => match artifact::save_artifact(path, &built) {
                Ok(written) => eprintln!(
                    "(saved {} compiled circuits and {} region covers to {})",
                    written,
                    built.covers.len(),
                    path.display()
                ),
                Err(e) => eprintln!(
                    "warning: failed to save circuit artifact {}: {e}",
                    path.display()
                ),
            },
            Err(e) => eprintln!("warning: failed to build circuit artifact: {e}"),
        }
    }
}
