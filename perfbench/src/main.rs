//! `mcml-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--serve-bin PATH]`
//!
//! Runs one workload, checks its outputs, and prints one JSON result line
//! last on standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a separate traced run with `--trace 1`. Progress
//! and the layer table go to standard error. State that must outlive one
//! run (the artifact store, recorded rows, span dumps) lives under
//! `.perfbench/` in the working directory.

use mcml::accmc::CountingEngine;
use mcml::counter::CacheStats;
use mcml::framework::{BatchOutcome, CellError, ExperimentConfig, RunnerRow, SinkDecision};
use mcml_perfbench::gate::{self, Gate};
use mcml_perfbench::procfs;
use mcml_perfbench::serve::{self, LocalStore, Server, Verb};
use mcml_perfbench::stats::{median, result_line, tail, Metrics};
use mcml_perfbench::trace::{run_traced, TracedRun};
use mcml_perfbench::workload::{BatchSpec, Workload, EXPERIMENT_SEED, THREADS};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: mcml-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--serve-bin PATH]
workloads: table5-s4-roster | table5-s5-cubes | serve-s4-mixed | table5-s3-classic";

/// Set-up repetitions of a batch workload (the scope-3 warm-up batch). The
/// first second of a process often runs these batches at half speed (seen
/// on a shared 2-core container), so the median needs enough repetitions
/// to fall past it.
const BATCH_SETUP_REPS: usize = 15;
/// Batches a batch workload runs at the least, however short the run, so
/// that its median and slowest batch are two measurements.
const MIN_BATCHES: usize = 2;
/// Set-up repetitions of the serve workload (store build + server load).
const SERVE_SETUP_REPS: usize = 3;
/// Pings timed before the serve load.
const PINGS: usize = 5;
/// Feature variables at scope 4.
const SERVE_FEATURES: usize = 16;

/// The end-to-end metrics every `--trace 0` run prints, with their units.
/// A batch workload's caller waits for a whole batch and its operations
/// are cells; the serve workload's caller waits for each reply, and each
/// request is one operation.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every `--trace 1` run prints, with their units. A
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 48] = [
    ("relspec.translate_s", "s"),
    ("relspec.clauses", "count"),
    ("datagen.build_s", "s"),
    ("datagen.rows", "count"),
    ("mlkit.fit_s", "s"),
    ("mlkit.models", "count"),
    ("encode.regions_s", "s"),
    ("encode.regions", "count"),
    ("encode.cube_lits", "count"),
    ("encode.label_cnf_s", "s"),
    ("encode.label_clauses", "count"),
    ("counter.compile_s", "s"),
    ("counter.compiles", "count"),
    ("counter.compile_dup", "count"),
    ("counter.decisions", "count"),
    ("counter.circuit_nodes", "count"),
    ("counter.sweep_s", "s"),
    ("counter.sweep_cubes", "count"),
    ("counter.sweep_ns_per_cube", "ns"),
    ("counter.memo_hit_frac", "ratio"),
    ("exact.count_s", "s"),
    ("exact.counts", "count"),
    ("accmc.evaluate_s", "s"),
    ("accmc.self_s", "s"),
    ("framework.cpu_util", "ratio"),
    ("framework.first_row_s", "s"),
    ("trace.total_s", "s"),
    ("trace.untraced_1w_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("artifact.build_s", "s"),
    ("artifact.save_s", "s"),
    ("artifact.load_s", "s"),
    ("artifact.bytes", "B"),
    ("serve.load_s", "s"),
    ("serve.ping_rtt_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.sweep_ms.accuracy", "ms"),
    ("serve.sweep_ms.count", "ms"),
    ("serve.sweep_ms.diff", "ms"),
    ("serve.diff_cubes", "count"),
    ("serve.stats_p50_ns", "ns"),
    ("serve.stats_p99_ns", "ns"),
    ("serve.accuracy_p50_ms", "ms"),
    ("serve.count_p50_ms", "ms"),
    ("serve.diff_p50_ms", "ms"),
    ("serve.load_peak_rss_mb", "MB"),
    ("serve.tail_percentile", "%"),
    ("serve.rtt_samples", "count"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = PathBuf::from(".bench_build/release/mcml-serve");
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad seconds {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--serve-bin" => serve_bin = PathBuf::from(value),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        serve_bin,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let state = PathBuf::from(".perfbench");
    let mut gate = Gate::default();
    let mut metrics = Metrics::default();
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in table {
        metrics.declare(name, unit);
    }
    let result = match args.workload {
        Workload::Serve4 => serve_workload(&args, &state, &mut gate, &mut metrics),
        _ => batch_workload(&args, &state, &mut gate, &mut metrics),
    };
    let (attempted, failed) = match result {
        Ok(counts) => counts,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{}",
        result_line(gate.passed(), attempted, failed, &metrics)
    );
    if gate.passed() {
        ExitCode::SUCCESS
    } else {
        eprintln!("correctness gate failed");
        ExitCode::FAILURE
    }
}

/// One untraced `Runner::run_stream` batch, measured from outside.
struct BatchRun {
    outcome: BatchOutcome,
    wall_s: f64,
    cpu_s: f64,
    first_row_s: f64,
    memo: CacheStats,
    compile_dup: u64,
}

fn run_batch(spec: &BatchSpec, configs: &[ExperimentConfig], threads: usize) -> BatchRun {
    let backend = spec.backend();
    let runner = spec.runner(threads);
    let mut first_row_s = None;
    let cpu = procfs::self_cpu_seconds();
    let start = Instant::now();
    let outcome = runner
        .run_stream(configs, &backend, |_: Result<&RunnerRow, &CellError>| {
            first_row_s.get_or_insert(start.elapsed().as_secs_f64());
            SinkDecision::Continue
        })
        .expect("the workload batches are well formed");
    let wall_s = start.elapsed().as_secs_f64();
    let compile_dup = backend
        .inner()
        .as_compiled()
        .map_or(0, |c| c.stats().misses.saturating_sub(c.len() as u64));
    BatchRun {
        outcome,
        wall_s,
        cpu_s: procfs::self_cpu_seconds() - cpu,
        first_row_s: first_row_s.unwrap_or(wall_s),
        memo: backend.stats(),
        compile_dup,
    }
}

/// The batch workloads' set-up: one batch of the scope-3 compiled roster
/// at [`EXPERIMENT_SEED`], which also gives the compiled-engine rows the
/// classic workload must reproduce. Returns the per-repetition wall times
/// and the rows.
fn warm_up(reps: usize, gate: &mut Gate) -> (Vec<f64>, Vec<String>) {
    let spec = BatchSpec::roster(3, CountingEngine::Compiled);
    let configs = spec.configs(EXPERIMENT_SEED);
    let mut walls = Vec::new();
    let mut rows: Option<Vec<String>> = None;
    for _ in 0..reps {
        let run = run_batch(&spec, &configs, THREADS);
        walls.push(run.wall_s);
        let lines = gate::row_lines(&run.outcome.rows);
        match &rows {
            Some(first) => gate::check_same_rows(gate, "scope-3 set-up batches", first, &lines),
            None => rows = Some(lines),
        }
    }
    (walls, rows.unwrap_or_default())
}

fn batch_workload(
    args: &Args,
    state: &Path,
    gate: &mut Gate,
    metrics: &mut Metrics,
) -> io::Result<(u64, u64)> {
    let spec = args.workload.batch();
    let phi = gate::phi_counts(&spec);
    let reps = if args.trace { 1 } else { BATCH_SETUP_REPS };
    let (setup, oracle) = warm_up(reps, gate);
    eprintln!(
        "set-up batches (s): {:?}",
        setup
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    // The classic engine must reproduce the compiled rows, and every batch
    // the rows recorded by earlier batches and runs.
    let check_rows = |gate: &mut Gate, lines: &[String]| {
        if spec.engine == CountingEngine::Classic {
            gate::check_same_rows(gate, "classic rows against compiled rows", &oracle, lines);
        }
        gate::check_across_runs(
            gate,
            &state.join("rows"),
            &spec.rows_key(EXPERIMENT_SEED),
            lines,
        );
    };
    if args.trace {
        let (two, one, traced) = traced_batches(&spec, EXPERIMENT_SEED, gate, &phi);
        check_rows(gate, &gate::row_lines(&two.outcome.rows));
        layer_metrics(metrics, &two, &one, &traced);
        let trace_key = format!("{}-seed{}", args.workload.name(), args.seed);
        dump_trace(state, &trace_key, &traced.tracer, metrics)?;
        let cells = 3 * spec.cells() as u64;
        let failed = (two.outcome.errors.len()
            + one.outcome.errors.len()
            + traced.outcome.errors.len()) as u64;
        return Ok((cells, failed));
    }

    // Batches in seeded job orders until the time is up. Each batch's peak
    // RSS is its own: the peak is reset before it.
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut runs: Vec<BatchRun> = Vec::new();
    let mut peaks_mb = Vec::new();
    while runs.len() < MIN_BATCHES || Instant::now() < deadline {
        let index = runs.len();
        if let Err(e) = procfs::reset_self_peak_rss() {
            eprintln!("note: cannot reset the peak RSS ({e}); peaks accumulate");
        }
        let run = run_batch(&spec, &spec.shuffled_configs(args.seed, index), THREADS);
        peaks_mb.push(procfs::self_peak_rss_mb());
        eprintln!(
            "batch {}: {} cells, {:.3} s wall, {:.3} s cpu, {:.1} MiB peak",
            index + 1,
            spec.cells(),
            run.wall_s,
            run.cpu_s,
            peaks_mb[index]
        );
        gate::check_batch(gate, "batch", &spec, &run.outcome, &phi);
        check_rows(gate, &gate::row_lines(&run.outcome.rows));
        runs.push(run);
    }
    let walls_ms: Vec<f64> = runs.iter().map(|r| r.wall_s * 1e3).collect();
    let attempted = (runs.len() * spec.cells()) as u64;
    let wall_s: f64 = runs.iter().map(|r| r.wall_s).sum();
    let cpu_s: f64 = runs.iter().map(|r| r.cpu_s).sum();
    metrics.set("setup_s", median(&setup));
    report_latency(metrics, &walls_ms);
    metrics.set("throughput_per_s", attempted as f64 / wall_s);
    metrics.set("cpu_ms_per_op", cpu_s * 1e3 / attempted as f64);
    metrics.set("peak_rss_mb", median(&peaks_mb));
    let failed = runs.iter().map(|r| r.outcome.errors.len() as u64).sum();
    Ok((attempted, failed))
}

/// Sets `latency_p50_ms` and `latency_tail_ms`, and logs the tail's
/// percentile and sample count.
fn report_latency(metrics: &mut Metrics, latencies: &[f64]) {
    let (percentile, value) = tail(latencies);
    metrics.set("latency_p50_ms", median(latencies));
    metrics.set("latency_tail_ms", value);
    eprintln!(
        "latency: p50 {:.3} ms, p{percentile} {:.3} ms over {} samples",
        median(latencies),
        value,
        latencies.len()
    );
}

/// The trace mode's three batches of `spec`: untraced on [`THREADS`]
/// workers, untraced on one worker, and traced on one worker. All three
/// must produce the same rows.
fn traced_batches(
    spec: &BatchSpec,
    seed: u64,
    gate: &mut Gate,
    phi: &HashMap<relspec::properties::Property, u128>,
) -> (BatchRun, BatchRun, TracedRun) {
    let configs = spec.configs(seed);
    let two = run_batch(spec, &configs, THREADS);
    let one = run_batch(spec, &configs, 1);
    let traced = run_traced(spec, seed);
    eprintln!(
        "untraced {} workers {:.3} s, untraced 1 worker {:.3} s, traced 1 worker {:.3} s",
        THREADS, two.wall_s, one.wall_s, traced.total_s
    );
    gate::check_batch(gate, "untraced batch", spec, &two.outcome, phi);
    gate::check_batch(gate, "one-worker batch", spec, &one.outcome, phi);
    gate::check_batch(gate, "traced batch", spec, &traced.outcome, phi);
    let lines = gate::row_lines(&two.outcome.rows);
    gate::check_same_rows(
        gate,
        "1 against 2 worker threads",
        &lines,
        &gate::row_lines(&one.outcome.rows),
    );
    gate::check_same_rows(
        gate,
        "traced against untraced",
        &lines,
        &gate::row_lines(&traced.outcome.rows),
    );
    (two, one, traced)
}

/// The per-layer metrics of a batch: span totals from the traced run,
/// cache and scheduling ratios from the untraced runs.
fn layer_metrics(metrics: &mut Metrics, two: &BatchRun, one: &BatchRun, traced: &TracedRun) {
    let t = &traced.tracer;
    let total = |name| t.layer_s(name).0;
    metrics.set("relspec.translate_s", total("relspec.translate"));
    metrics.set("relspec.clauses", t.counter("relspec.clauses"));
    metrics.set("datagen.build_s", total("datagen.build"));
    metrics.set("datagen.rows", t.counter("datagen.rows"));
    metrics.set("mlkit.fit_s", total("mlkit.fit"));
    metrics.set("mlkit.models", t.counter("mlkit.models"));
    metrics.set("encode.regions_s", total("encode.regions"));
    metrics.set("encode.regions", t.counter("encode.regions"));
    metrics.set("encode.cube_lits", t.counter("encode.cube_lits"));
    metrics.set("encode.label_cnf_s", total("encode.label_cnf"));
    metrics.set("encode.label_clauses", t.counter("encode.label_clauses"));
    metrics.set("counter.compile_s", total("counter.compile"));
    metrics.set("counter.compiles", t.counter("counter.compiles"));
    metrics.set("counter.compile_dup", two.compile_dup as f64);
    metrics.set("counter.decisions", t.counter("counter.decisions"));
    metrics.set("counter.circuit_nodes", traced.circuit_nodes as f64);
    let sweep_s = total("counter.sweep");
    let sweep_cubes = t.counter("counter.sweep_cubes");
    metrics.set("counter.sweep_s", sweep_s);
    metrics.set("counter.sweep_cubes", sweep_cubes);
    metrics.set(
        "counter.sweep_ns_per_cube",
        if sweep_cubes > 0.0 {
            sweep_s * 1e9 / sweep_cubes
        } else {
            0.0
        },
    );
    let lookups = two.memo.hits + two.memo.misses;
    metrics.set(
        "counter.memo_hit_frac",
        if lookups > 0 {
            two.memo.hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
    metrics.set("exact.count_s", total("exact.count"));
    metrics.set("exact.counts", t.counter("exact.counts"));
    let (evaluate_s, evaluate_self_s) = t.layer_s("accmc.evaluate");
    metrics.set("accmc.evaluate_s", evaluate_s);
    metrics.set("accmc.self_s", evaluate_self_s);
    metrics.set(
        "framework.cpu_util",
        two.cpu_s / (THREADS as f64 * two.wall_s),
    );
    metrics.set("framework.first_row_s", two.first_row_s);
    metrics.set("trace.total_s", traced.total_s);
    metrics.set("trace.untraced_1w_s", one.wall_s);
    metrics.set("trace.overhead_frac", traced.total_s / one.wall_s - 1.0);
}

/// Writes the spans (JSON lines) and the per-layer metrics of a traced run
/// under `state`, and prints the layer table.
fn dump_trace(
    state: &Path,
    key: &str,
    tracer: &mcml_perfbench::trace::Tracer,
    metrics: &Metrics,
) -> io::Result<()> {
    std::fs::create_dir_all(state)?;
    std::fs::write(
        state.join(format!("trace-{key}.spans.jsonl")),
        tracer.spans_jsonl(),
    )?;
    std::fs::write(
        state.join(format!("trace-{key}.metrics.json")),
        format!("{}\n", metrics.to_json()),
    )?;
    let layers = tracer.layers();
    let traced_total = metrics.get("trace.total_s").unwrap_or(0.0).max(1e-12);
    eprintln!("layer                      calls    total_s     self_s  self_share");
    for (name, (total, own, calls)) in &layers {
        eprintln!(
            "{name:<24} {calls:>7} {total:>10.4} {own:>10.4} {:>10.2}%",
            100.0 * own / traced_total
        );
    }
    Ok(())
}

fn serve_workload(
    args: &Args,
    state: &Path,
    gate: &mut Gate,
    metrics: &mut Metrics,
) -> io::Result<(u64, u64)> {
    let spec = args.workload.batch();
    let dir = state.join("store");
    let trace_key = format!("{}-seed{}", args.workload.name(), args.seed);

    // Set-up, repeated: build and save the store, start the server.
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..SERVE_SETUP_REPS {
        if let Some(previous) = server.take() {
            previous.shutdown()?;
        }
        let start = Instant::now();
        let build = serve::build_store(&spec, EXPERIMENT_SEED, &dir)?;
        let started = Server::start(&args.serve_bin, &dir)?;
        setups.push(start.elapsed().as_secs_f64());
        eprintln!(
            "set-up: build {:.3} s, save {:.3} s, server load {:.3} s, {} bytes",
            build.build_s, build.save_s, started.load_s, build.bytes
        );
        builds.push((build, started.load_s));
        server = Some(started);
    }
    let server = server.expect("at least one set-up repetition");

    let load_start = Instant::now();
    let local = LocalStore::load(&dir)?;
    let artifact_load_s = load_start.elapsed().as_secs_f64();

    // The batch rows the store was built from: the accuracy oracle.
    let phi = gate::phi_counts(&spec);
    let rows = if args.trace {
        let (two, one, traced) = traced_batches(&spec, EXPERIMENT_SEED, gate, &phi);
        layer_metrics(metrics, &two, &one, &traced);
        dump_trace(state, &trace_key, &traced.tracer, metrics)?;
        two.outcome.rows
    } else {
        let run = run_batch(&spec, &spec.configs(EXPERIMENT_SEED), THREADS);
        gate::check_batch(gate, "reference batch", &spec, &run.outcome, &phi);
        run.outcome.rows
    };
    gate::check_across_runs(
        gate,
        &state.join("rows"),
        &spec.rows_key(EXPERIMENT_SEED),
        &gate::row_lines(&rows),
    );

    let ping_ms = serve::ping_rtt_ms(&server.addr, PINGS)?;
    // The server's footprint once the store is loaded and serving; the
    // load's own peak (diff intersections are materialised) is reported
    // per layer.
    let setup_rss_mb = procfs::peak_rss_mb(server.pid())?;
    let cpu_before = procfs::cpu_seconds(server.pid())?;
    let load = serve::closed_loop(
        &server.addr,
        args.seed,
        args.seconds,
        SERVE_FEATURES,
        spec.scope,
    );
    let cpu_s = procfs::cpu_seconds(server.pid())? - cpu_before;
    let (stats_p50_ns, stats_p99_ns) = serve::server_stats(&server.addr)?;
    let load_rss_mb = procfs::peak_rss_mb(server.pid())?;
    server.shutdown()?;

    let space = 1u128 << (spec.scope * spec.scope);
    let failed = serve::check_answers(gate, &load.answers, &rows, &local, space);
    let rtts: Vec<f64> = load.answers.iter().map(|a| a.rtt_ms).collect();
    let verb_p50 = |verb: Verb| {
        let v: Vec<f64> = load
            .answers
            .iter()
            .filter(|a| a.request.verb == verb)
            .map(|a| a.rtt_ms)
            .collect();
        median(&v)
    };
    eprintln!(
        "load: {} requests in {} sessions over {:.3} s; p50 accuracy {:.3} ms, count {:.3} ms, diff {:.3} ms",
        load.answers.len(),
        load.session_s.len(),
        load.elapsed_s,
        verb_p50(Verb::Accuracy),
        verb_p50(Verb::Count),
        verb_p50(Verb::Diff)
    );
    eprintln!(
        "server peak RSS: {setup_rss_mb:.1} MiB after set-up, {load_rss_mb:.1} MiB after the load"
    );

    if args.trace {
        let mut sweeps: HashMap<Verb, Vec<f64>> = HashMap::new();
        let mut overheads = Vec::new();
        let mut diff_cubes = Vec::new();
        for answer in &load.answers {
            if let Some((_, sweep_s)) = local.sweep(&answer.request) {
                let sweep_ms = sweep_s * 1e3;
                sweeps
                    .entry(answer.request.verb)
                    .or_default()
                    .push(sweep_ms);
                overheads.push(answer.rtt_ms - sweep_ms);
            }
            if answer.request.verb == Verb::Diff {
                diff_cubes.push(local.diff_cubes(&answer.request) as f64);
            }
        }
        let sweep_p50 = |verb| sweeps.get(&verb).map_or(0.0, |v| median(v));
        let build_s: Vec<f64> = builds.iter().map(|(b, _)| b.build_s).collect();
        let save_s: Vec<f64> = builds.iter().map(|(b, _)| b.save_s).collect();
        let load_s: Vec<f64> = builds.iter().map(|(_, l)| *l).collect();
        metrics.set("artifact.build_s", median(&build_s));
        metrics.set("artifact.save_s", median(&save_s));
        metrics.set("artifact.load_s", artifact_load_s);
        metrics.set("artifact.bytes", builds[0].0.bytes as f64);
        metrics.set("serve.load_s", median(&load_s));
        metrics.set("serve.ping_rtt_ms", ping_ms);
        metrics.set("serve.overhead_ms", median(&overheads));
        metrics.set("serve.sweep_ms.accuracy", sweep_p50(Verb::Accuracy));
        metrics.set("serve.sweep_ms.count", sweep_p50(Verb::Count));
        metrics.set("serve.sweep_ms.diff", sweep_p50(Verb::Diff));
        metrics.set("serve.diff_cubes", median(&diff_cubes));
        metrics.set("serve.stats_p50_ns", stats_p50_ns);
        metrics.set("serve.stats_p99_ns", stats_p99_ns);
        metrics.set("serve.accuracy_p50_ms", verb_p50(Verb::Accuracy));
        metrics.set("serve.count_p50_ms", verb_p50(Verb::Count));
        metrics.set("serve.diff_p50_ms", verb_p50(Verb::Diff));
        let (percentile, _) = tail(&rtts);
        metrics.set("serve.load_peak_rss_mb", load_rss_mb);
        metrics.set("serve.tail_percentile", percentile);
        metrics.set("serve.rtt_samples", rtts.len() as f64);
        std::fs::write(
            state.join(format!("trace-{trace_key}.metrics.json")),
            format!("{}\n", metrics.to_json()),
        )?;
    } else {
        let requests = load.answers.len().max(1) as f64;
        let session_rates: Vec<f64> = load
            .session_s
            .iter()
            .map(|s| serve::SESSION_REQUESTS as f64 / s)
            .collect();
        metrics.set("setup_s", median(&setups));
        report_latency(metrics, &rtts);
        metrics.set("throughput_per_s", median(&session_rates));
        metrics.set("cpu_ms_per_op", cpu_s * 1e3 / requests);
        metrics.set("peak_rss_mb", setup_rss_mb);
    }
    Ok((load.answers.len() as u64, failed))
}
