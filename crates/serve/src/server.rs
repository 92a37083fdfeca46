//! The query server: a bounded connection runtime over sharded workers
//! and hot-swappable store generations.
//!
//! # Connection runtime
//!
//! [`start`] binds the address and spins up three kinds of threads, all
//! bounded up front by [`ServeOptions`]:
//!
//! * one **acceptor**, which accepts TCP connections into a bounded
//!   hand-off queue ([`ServeOptions::backlog`]); when the queue is full
//!   every further connection is answered `err server busy` and closed
//!   instead of piling up unboundedly;
//! * a fixed pool of [`ServeOptions::connections`] **connection
//!   handlers**, each claiming one queued connection at a time and
//!   serving its frames until the peer closes, idles past
//!   [`ServeOptions::idle_timeout`] (the handler replies
//!   `err idle timeout` and disconnects — an idle client can never pin a
//!   handler forever), stalls mid-frame past
//!   [`ServeOptions::io_timeout`], or the server shuts down;
//! * [`ServeOptions::workers`] **count workers**, each owning one shard
//!   of the store (units sharded by `(property, scope)` hash, so a diff
//!   query's two families always live on one shard) and answering the
//!   queries routed to it over an mpsc channel.
//!
//! Shutdown is a drain, not a race: the `shutdown` verb stops the
//! acceptor, refuses whatever was queued but never claimed, lets every
//! handler finish the request it is serving (workers stay alive until
//! all handlers have exited, so an in-flight query racing `shutdown`
//! still completes with `ok`), then joins every thread before
//! [`ServerHandle::join`] returns.
//!
//! # Store generations and hot reload
//!
//! The store is immutable and swapped whole: every request snapshots the
//! current [`Arc`] store *generation* and is answered entirely from that
//! snapshot, so a query can never observe a half-reloaded (torn) store.
//! The `reload` verb — and, when [`ServeOptions::poll_interval`] is set,
//! a background mtime poller watching the artifact files — loads a fresh
//! [`CircuitStore`] from [`ServeOptions::reload_dirs`], validates it
//! completely, and atomically publishes it as the next generation;
//! in-flight queries finish on the generation they started with. A
//! reload that fails to load or validate leaves the serving generation
//! untouched.
//!
//! # Request grammar
//!
//! One request per frame (see [`crate::protocol`]), space-separated words:
//!
//! ```text
//! ping
//! accuracy <property> <scope> <family>
//! diff     <property> <scope> <familyA> <familyB>
//! count    <property> <scope> phi|nphi [lit ...]
//! stats
//! reload
//! shutdown
//! ```
//!
//! Connections are persistent: any number of requests may be issued over
//! one connection, interleaving verbs freely. Cube literals are signed
//! 1-indexed DIMACS over the feature variables (`3` = feature 2 true,
//! `-1` = feature 0 false). Replies are `ok <fields...>` or
//! `err <message>`:
//!
//! ```text
//! accuracy → ok <tp> <fp> <tn> <fn> <accuracy> <precision> <recall> <f1>
//!               [approx <epsilon> <delta>]
//! diff     → ok <tt> <tf> <ft> <ff> <diff> <sim>
//! count    → ok <count> [approx <epsilon> <delta>]
//! stats    → ok queries <n> degraded <d> units <k> p50_ns <p> p99_ns <q>
//!               [<property> <scope> <family> <hits> <bucket>:<count>...]...
//! reload   → ok reloaded generation <id> units <n>
//! ```
//!
//! `stats` reports cumulative serving statistics: how many queries were
//! answered successfully, how many of those answers were degraded
//! (approximate, labeled), and per-unit hit counts sorted by key. A
//! `diff` touches both of its units; a `count` hits the
//! `(property, scope)` ground-truth pair rather than one family's unit
//! and is recorded under the pseudo-family `truth`.
//!
//! Each unit carries its query latency histogram over fixed log-scale
//! buckets: `<bucket>:<count>` says `count` answers landed in the
//! half-open nanosecond range `[2^bucket, 2^(bucket+1))` (bucket 0 also
//! absorbs sub-nanosecond readings; the last bucket, 31, is unbounded
//! above). Only non-empty buckets print, and their counts sum to the
//! unit's `<hits>`. The `p50_ns`/`p99_ns` pair summarizes the same
//! histogram aggregated over all queries — each quantile is the upper
//! bound of the bucket where the cumulative count crosses the rank, so
//! it is a deterministic over-estimate, never an interpolation.
//!
//! Counts are exact `u128` sums; derived metrics are printed with Rust's
//! shortest-round-trip float formatting, so parsing a reply back yields
//! the bit-identical `f64` the batch `Runner` computed from the same
//! counts.
//!
//! # Query plans
//!
//! Queries against compiled units resolve through batched
//! [`satkit::ddnnf::Ddnnf::count_cubes`] sweeps over preloaded circuits — that serving
//! path performs **zero** compilation. Accuracy is the AccMC region-sum
//! plan (one batch against φ, one against ¬φ).
//!
//! Diff has two exact plans. When neither unit carries symmetry breaking
//! (and both are compiled), each pairwise region intersection
//! `cube_a ∧ cube_b` is counted as `mc(φ | cube) + mc(¬φ | cube)` in two
//! batched sweeps: φ and ¬φ partition the full feature space, so the sum
//! is the intersection's size (contradictory concatenations count 0).
//! When either ground truth bakes in symmetry breaking — where that sweep
//! would count the *constrained* space and silently disagree with the
//! batch `DiffMc` — the server instead recounts both models over the full
//! feature space combinatorially: an intersection of two region cubes
//! fixes some set of distinct feature variables (or is contradictory and
//! counts 0), so its size is exactly `2^(features − fixed)`. Region
//! covers partition the space by construction, so both plans reproduce
//! the unconstrained `DiffMc` counts bit for bit; the combinatorial plan
//! touches no circuits at all and therefore also serves degraded units.
//!
//! Queries against **degraded** units (covers whose circuits were never
//! persisted, rescued by `--fallback approx[:eps,delta]` — see
//! [`crate::store`]) are answered by the (ε, δ)-approximate XOR-hash
//! counter over the re-translated CNF, with seeds derived from the
//! `(CNF, cube)` fingerprint so replies are deterministic across
//! restarts, workers and thread counts. Every degraded `ok` reply is
//! suffixed `approx <ε> <δ>` and counted in `stats` under `degraded`. The
//! label is the batch one: an `accuracy` reply sums 2·|regions|
//! approximate counts, so its δ is union-bounded over them (capped at 1);
//! a `count` reply is a single count and carries that count's δ.
//! Accuracy and conditioned counts are defined over whatever space the
//! ground truth constrains by construction (they match the batch `AccMc`
//! either way) and are always available.

use crate::protocol::{write_frame, MAX_FRAME};
use crate::store::{CircuitStore, Circuits, Unit, UnitKey};
use mcml::diffmc::DiffCounts;
use mcml::fallback::{approx_conditioned, FallbackPolicy};
use mcml::tree2cnf::TreeLabel;
use mcml::{ApproxInfo, CountOutcome, OutcomeMeta};
use mlkit::metrics::BinaryMetrics;
use satkit::cnf::{Cnf, Lit};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Granularity at which blocked reads, idle handlers and the mtime
/// poller re-check deadlines and the shutdown flag.
const TICK: Duration = Duration::from_millis(25);

/// Bounds and behaviors of the connection runtime. Every field has a
/// serving-oriented default; the zero values are sanitized up to their
/// minimum (1 thread / 1 queue slot / 1 ms) rather than rejected.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Count-worker threads the store is sharded across (at least one).
    pub workers: usize,
    /// Connection-handler threads — the hard bound on concurrently
    /// served connections.
    pub connections: usize,
    /// Accepted-but-unclaimed connections queued for a free handler;
    /// when the queue is full further connections get `err server busy`.
    pub backlog: usize,
    /// How long a connection may sit between requests before the server
    /// replies `err idle timeout` and disconnects it.
    pub idle_timeout: Duration,
    /// Per-frame read deadline (measured from a frame's first byte) and
    /// the write timeout for replies — a stalled peer costs at most this
    /// long before its handler is reclaimed.
    pub io_timeout: Duration,
    /// Artifact directories `reload` (and the mtime poller) re-load the
    /// store from; empty makes `reload` answer a typed error.
    pub reload_dirs: Vec<PathBuf>,
    /// Interval at which the artifact files' mtimes are polled for
    /// automatic reload; `None` disables polling (the `reload` verb
    /// still works when `reload_dirs` is set).
    pub poll_interval: Option<Duration>,
    /// Artificial latency added to every worker answer — a testing aid
    /// for pinning drain/atomicity races; leave zero in production.
    pub answer_latency: Duration,
    /// Degradation policy for covers whose circuits were never persisted:
    /// [`FallbackPolicy::Fail`] (the default) skips them at load time,
    /// [`FallbackPolicy::SymmetryThenApprox`] serves them as degraded
    /// units with `approx <ε> <δ>`-labeled replies. Reloads resolve the
    /// fresh store under the same policy.
    pub fallback: FallbackPolicy,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            connections: 64,
            backlog: 64,
            idle_timeout: Duration::from_secs(60),
            io_timeout: Duration::from_secs(10),
            reload_dirs: Vec::new(),
            poll_interval: None,
            answer_latency: Duration::ZERO,
            fallback: FallbackPolicy::Fail,
        }
    }
}

impl ServeOptions {
    fn sanitized(mut self) -> ServeOptions {
        self.workers = self.workers.max(1);
        self.connections = self.connections.max(1);
        self.backlog = self.backlog.max(1);
        self.idle_timeout = self.idle_timeout.max(Duration::from_millis(1));
        self.io_timeout = self.io_timeout.max(Duration::from_millis(1));
        self
    }
}

/// Locks a mutex, recovering from poisoning: the protected state is
/// either a swap-only `Arc` or monotone statistics, both valid after a
/// panicking holder, so inheriting the lock beats killing every later
/// request with a poisoning panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Number of log-scale latency buckets: bucket `i` covers the half-open
/// nanosecond range `[2^i, 2^(i+1))`, bucket 0 also absorbs 0 ns, and
/// the last bucket is unbounded above (2^31 ns ≈ 2.1 s — far past the
/// bounded connection runtime, so real sweeps never saturate it).
const LATENCY_BUCKETS: usize = 32;

/// A fixed log-scale latency histogram. Copy-cheap (one cache line of
/// counters) so per-unit histograms live inside the stats map and the
/// reply path can snapshot them under the same lock as the hit counts.
#[derive(Clone, Copy, Default)]
struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    /// The bucket a reading falls in: `floor(log2(nanos))`, clamped into
    /// the fixed range.
    fn bucket(nanos: u64) -> usize {
        match nanos.checked_ilog2() {
            Some(log) => (log as usize).min(LATENCY_BUCKETS - 1),
            None => 0,
        }
    }

    fn record(&mut self, nanos: u64) {
        self.buckets[Self::bucket(nanos)] += 1;
    }

    /// The upper bound (in ns) of the bucket where the cumulative count
    /// reaches `percent` of the samples — a deterministic over-estimate
    /// of the quantile, 0 when nothing was recorded.
    fn quantile_ns(&self, percent: u64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = (total * percent).div_ceil(100).max(1);
        let mut seen = 0;
        for (i, count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }

    /// The non-empty buckets as ` <bucket>:<count>` reply words.
    fn reply_words(&self) -> String {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, count)| **count > 0)
            .map(|(i, count)| format!(" {i}:{count}"))
            .collect()
    }
}

/// One unit's row in the stats table: how often it was hit and how long
/// those answers took.
#[derive(Clone, Copy, Default)]
struct UnitStats {
    hits: u64,
    latency: LatencyHistogram,
}

/// Cumulative serving statistics, shared by every shard and reported by
/// the `stats` verb. Only successfully answered queries are recorded, so
/// the per-unit table never grows entries for units that do not exist.
#[derive(Default)]
struct ServerStats {
    /// Queries answered with `ok` by the sharded sweep path
    /// (accuracy / diff / count).
    queries: AtomicU64,
    /// The subset of `queries` answered degraded: approximate counts with
    /// an `approx <ε> <δ>` label in the reply frame.
    degraded: AtomicU64,
    /// Per-unit hit counts and latency histograms. `count` queries hit
    /// the `(property, scope)` ground-truth pair rather than one family's
    /// unit and are recorded under the pseudo-family `truth`. A `diff`
    /// records its latency under both units it touched; the aggregate
    /// `p50_ns`/`p99_ns` pair is instead computed per query, so it never
    /// double-weights diffs.
    unit_hits: Mutex<HashMap<(String, usize, String), UnitStats>>,
    /// One latency sample per answered query, for the aggregate
    /// `p50_ns`/`p99_ns` summary.
    latency: Mutex<LatencyHistogram>,
}

impl ServerStats {
    fn record(&self, query: &Query, nanos: u64, degraded: bool) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if degraded {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
        lock(&self.latency).record(nanos);
        let mut hits = lock(&self.unit_hits);
        let mut bump = |property: &str, scope: usize, family: &str| {
            let unit = hits
                .entry((property.to_string(), scope, family.to_string()))
                .or_default();
            unit.hits += 1;
            unit.latency.record(nanos);
        };
        match query {
            Query::Accuracy { key } => bump(&key.0, key.1, &key.2),
            Query::Diff {
                property,
                scope,
                family_a,
                family_b,
            } => {
                bump(property, *scope, family_a);
                bump(property, *scope, family_b);
            }
            Query::Count {
                property, scope, ..
            } => bump(property, *scope, "truth"),
        }
    }

    fn reply(&self) -> String {
        let mut entries: Vec<((String, usize, String), UnitStats)> = lock(&self.unit_hits)
            .iter()
            .map(|(key, unit)| (key.clone(), *unit))
            .collect();
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        let aggregate = *lock(&self.latency);
        let mut reply = format!(
            "ok queries {} degraded {} units {} p50_ns {} p99_ns {}",
            self.queries.load(Ordering::Relaxed),
            self.degraded.load(Ordering::Relaxed),
            entries.len(),
            aggregate.quantile_ns(50),
            aggregate.quantile_ns(99),
        );
        for ((property, scope, family), unit) in entries {
            reply.push_str(&format!(" {property} {scope} {family} {}", unit.hits));
            reply.push_str(&unit.latency.reply_words());
        }
        reply
    }
}

/// A running server: the bound address and the acceptor to join.
pub struct ServerHandle {
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
}

impl ServerHandle {
    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server has fully drained and shut down (a client
    /// sent `shutdown`): every connection handler and count worker is
    /// joined before this returns.
    pub fn join(self) {
        self.acceptor.join().expect("acceptor thread panicked");
    }
}

/// One immutable snapshot of the servable store, sharded for the worker
/// pool. Requests answer entirely from the generation they snapshot, so
/// a reload can never tear a query.
struct Generation {
    id: u64,
    units: usize,
    shards: Vec<ShardData>,
}

/// One worker's slice of a generation: its units plus a
/// `(property, scope)` index of the ground-truth circuit pairs for
/// `count` queries.
#[derive(Default)]
struct ShardData {
    units: HashMap<UnitKey, Unit>,
    truths: HashMap<(String, usize), Circuits>,
}

/// Shards a store across `workers` slices by `(property, scope)` hash —
/// a diff query's two families always land on one shard.
fn shard_store(store: CircuitStore, workers: usize, id: u64) -> Generation {
    let units = store.len();
    let mut shards: Vec<ShardData> = (0..workers).map(|_| ShardData::default()).collect();
    for (key, unit) in store.into_units() {
        let shard = &mut shards[shard_of(&key.0, key.1, workers)];
        // A compiled truth always wins over a degraded stand-in for the
        // same `(property, scope)` — `count` answers exactly when any
        // family's cover kept its circuits.
        match shard.truths.entry((key.0.clone(), key.1)) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(unit.circuits.clone());
            }
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                if matches!(slot.get(), Circuits::Degraded { .. })
                    && matches!(unit.circuits, Circuits::Compiled { .. })
                {
                    slot.insert(unit.circuits.clone());
                }
            }
        }
        shard.units.insert(key, unit);
    }
    Generation { id, units, shards }
}

/// State shared by the acceptor, handler pool, workers and poller.
struct Shared {
    options: ServeOptions,
    local: SocketAddr,
    stats: ServerStats,
    shutdown: AtomicBool,
    /// Accepted connections awaiting a free handler, bounded by
    /// `options.backlog`.
    queue: Mutex<VecDeque<TcpStream>>,
    queue_signal: Condvar,
    /// The serving store generation; swapped whole by reloads.
    generation: Mutex<Arc<Generation>>,
    next_generation: AtomicU64,
    /// Serializes reloads (verb vs. poller) so generation ids publish in
    /// order.
    reload_serial: Mutex<()>,
}

impl Shared {
    fn current_generation(&self) -> Arc<Generation> {
        Arc::clone(&lock(&self.generation))
    }

    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Binds `addr`, shards `store` across the worker pool, and starts the
/// bounded connection runtime in the background. The returned handle
/// resolves the bound address immediately; the server runs until a
/// client sends `shutdown`.
pub fn start(store: CircuitStore, addr: &str, options: ServeOptions) -> io::Result<ServerHandle> {
    let options = options.sanitized();
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;

    let shared = Arc::new(Shared {
        local,
        stats: ServerStats::default(),
        shutdown: AtomicBool::new(false),
        queue: Mutex::new(VecDeque::new()),
        queue_signal: Condvar::new(),
        generation: Mutex::new(Arc::new(shard_store(store, options.workers, 0))),
        next_generation: AtomicU64::new(1),
        reload_serial: Mutex::new(()),
        options,
    });

    // Count workers: one shard index each, alive until every handler has
    // exited (their job senders are only dropped after the handler join
    // below), so an in-flight query can always collect its reply.
    let mut senders = Vec::with_capacity(shared.options.workers);
    let mut worker_handles = Vec::with_capacity(shared.options.workers);
    for index in 0..shared.options.workers {
        let (sender, receiver) = mpsc::channel::<Job>();
        senders.push(sender);
        let shared = Arc::clone(&shared);
        worker_handles.push(std::thread::spawn(move || {
            while let Ok(job) = receiver.recv() {
                if !shared.options.answer_latency.is_zero() {
                    std::thread::sleep(shared.options.answer_latency);
                }
                // A panicking query (a bug, not a protocol error) costs
                // one `err` reply, never the shard: the worker keeps
                // serving and the stats lock recovers from poisoning.
                let reply = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    job.generation.shards[index].answer(&job.query, &shared.stats)
                }))
                .unwrap_or_else(|_| "err internal error (query panicked)".to_string());
                let _ = job.reply.send(reply);
            }
        }));
    }

    // The fixed connection-handler pool.
    let mut handler_handles = Vec::with_capacity(shared.options.connections);
    for _ in 0..shared.options.connections {
        let shared = Arc::clone(&shared);
        let senders = senders.clone();
        handler_handles.push(std::thread::spawn(move || {
            while let Some(stream) = next_connection(&shared) {
                // A torn frame or reset connection only ends that
                // connection; the handler returns to the pool.
                let _ = handle_connection(stream, &shared, &senders);
            }
        }));
    }

    let poller_handle = spawn_poller(Arc::clone(&shared));

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shared.is_shutting_down() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let mut queue = lock(&shared.queue);
                if queue.len() >= shared.options.backlog {
                    // Overload: reply instead of queueing unboundedly.
                    drop(queue);
                    refuse(stream, "err server busy", &shared.options);
                } else {
                    queue.push_back(stream);
                    shared.queue_signal.notify_one();
                }
            }
            // Drain: refuse whatever was queued but never claimed, wake
            // every idle handler, and join the pools in dependency order
            // (handlers first — workers must outlive their last job).
            for stream in lock(&shared.queue).drain(..) {
                refuse(stream, "err server is shutting down", &shared.options);
            }
            shared.queue_signal.notify_all();
            for handle in handler_handles {
                let _ = handle.join();
            }
            drop(senders);
            for handle in worker_handles {
                let _ = handle.join();
            }
            if let Some(handle) = poller_handle {
                let _ = handle.join();
            }
        })
    };
    Ok(ServerHandle {
        addr: local,
        acceptor,
    })
}

/// Best-effort one-frame refusal of a connection the pool cannot serve.
fn refuse(mut stream: TcpStream, message: &str, options: &ServeOptions) {
    let _ = stream.set_write_timeout(Some(options.io_timeout));
    let _ = write_frame(&mut stream, message);
}

/// Claims the next queued connection, or `None` once the server is
/// shutting down and the queue has been drained.
fn next_connection(shared: &Shared) -> Option<TcpStream> {
    let mut queue = lock(&shared.queue);
    loop {
        // The shutdown check comes first: a draining server leaves queued
        // connections for the acceptor's refusal pass instead of starting
        // to serve them.
        if shared.is_shutting_down() {
            return None;
        }
        if let Some(stream) = queue.pop_front() {
            return Some(stream);
        }
        queue = shared
            .queue_signal
            .wait_timeout(queue, TICK)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
    }
}

/// Performs one validated reload: load + resolve the artifact
/// directories, and only then atomically publish the new generation.
/// Failure leaves the serving generation untouched.
fn reload_now(shared: &Shared) -> Result<(u64, usize), String> {
    if shared.options.reload_dirs.is_empty() {
        return Err("reload unavailable (no artifact directories configured)".to_string());
    }
    let _serial = lock(&shared.reload_serial);
    let store = CircuitStore::load_dirs_with(&shared.options.reload_dirs, shared.options.fallback)
        .map_err(|e| format!("reload failed: {e}"))?;
    let skipped = store.skipped_covers();
    let id = shared.next_generation.fetch_add(1, Ordering::Relaxed);
    let generation = Arc::new(shard_store(store, shared.options.workers, id));
    let (id, units) = (generation.id, generation.units);
    *lock(&shared.generation) = generation;
    if skipped > 0 {
        eprintln!("(reload: generation {id} skipped {skipped} unservable covers)");
    }
    Ok((id, units))
}

/// What the poller remembers per artifact file: modification time and
/// length, `None` while the file is absent.
type PollState = Vec<Option<(std::time::SystemTime, u64)>>;

fn poll_state(dirs: &[PathBuf]) -> PollState {
    dirs.iter()
        .map(|dir| {
            let path = dir.join(mcml::artifact::artifact_file_name("compiled"));
            std::fs::metadata(&path)
                .ok()
                .and_then(|m| m.modified().ok().map(|t| (t, m.len())))
        })
        .collect()
}

/// Watches the artifact files' (mtime, length) and reloads on change. A
/// failed reload (e.g. a mid-write torn file) is logged and retried when
/// the file changes again — the completed write bumps the mtime.
fn spawn_poller(shared: Arc<Shared>) -> Option<JoinHandle<()>> {
    let interval = shared.options.poll_interval?;
    if shared.options.reload_dirs.is_empty() {
        return None;
    }
    Some(std::thread::spawn(move || {
        let mut seen = poll_state(&shared.options.reload_dirs);
        loop {
            let wake = Instant::now() + interval;
            while Instant::now() < wake {
                if shared.is_shutting_down() {
                    return;
                }
                std::thread::sleep(TICK.min(interval));
            }
            let state = poll_state(&shared.options.reload_dirs);
            if state != seen {
                seen = state;
                match reload_now(&shared) {
                    Ok((id, units)) => {
                        eprintln!("(artifact change: now serving generation {id}, {units} units)");
                    }
                    Err(e) => eprintln!("warning: artifact change detected but {e}"),
                }
            }
        }
    }))
}

/// A formatted reply plus whether the answer plan degraded — the flag
/// comes from the plan that produced the text, never from re-parsing it,
/// so the `stats` accounting cannot drift from the reply format.
struct Reply {
    text: String,
    degraded: bool,
}

impl Reply {
    fn exact(text: String) -> Reply {
        Reply {
            text,
            degraded: false,
        }
    }
}

impl ShardData {
    fn answer(&self, query: &Query, stats: &ServerStats) -> String {
        let start = Instant::now();
        let reply = self.answer_inner(query);
        if reply.text.starts_with("ok") {
            stats.record(query, start.elapsed().as_nanos() as u64, reply.degraded);
        }
        reply.text
    }

    fn answer_inner(&self, query: &Query) -> Reply {
        match query {
            Query::Accuracy { key } => match self.units.get(key) {
                Some(unit) => accuracy_reply(unit),
                None => Reply::exact(format!("err unknown unit {} {} {}", key.0, key.1, key.2)),
            },
            Query::Diff {
                property,
                scope,
                family_a,
                family_b,
            } => {
                let a = self
                    .units
                    .get(&(property.clone(), *scope, family_a.clone()));
                let b = self
                    .units
                    .get(&(property.clone(), *scope, family_b.clone()));
                Reply::exact(match (a, b) {
                    (Some(a), Some(b)) => diff_reply(a, b, *scope),
                    (None, _) => format!("err unknown unit {property} {scope} {family_a}"),
                    (_, None) => format!("err unknown unit {property} {scope} {family_b}"),
                })
            }
            Query::Count {
                property,
                scope,
                negated,
                cube,
            } => match self.truths.get(&(property.clone(), *scope)) {
                Some(circuits) => conditioned_reply(circuits, *negated, cube),
                None => Reply::exact(format!("err unknown property/scope {property} {scope}")),
            },
        }
    }
}

/// The AccMC region-sum plan: one batched circuit sweep against φ, one
/// against ¬φ, summed by region label — or, for a degraded unit, one
/// deterministic approximate count per `(region, side)`. The reply is then
/// labeled `approx <ε> <δ>` as the batch labels the same sum: the largest
/// ε, and δ union-bounded over all 2·|regions| counts, capped at 1.
fn accuracy_reply(unit: &Unit) -> Reply {
    let mut meta = OutcomeMeta::default();
    let (in_phi, in_not_phi) = match &unit.circuits {
        Circuits::Compiled { phi, not_phi } => {
            let cubes: Vec<&[Lit]> = unit.regions.iter().map(|r| r.cube.as_slice()).collect();
            (phi.count_cubes(&cubes), not_phi.count_cubes(&cubes))
        }
        Circuits::Degraded {
            phi,
            not_phi,
            epsilon,
            delta,
        } => {
            let mut sweep = |cnf: &Cnf| {
                unit.regions
                    .iter()
                    .map(|r| meta.absorb(approx_conditioned(cnf, &r.cube, *epsilon, *delta)))
                    .collect::<Option<Vec<u128>>>()
            };
            match (sweep(phi), sweep(not_phi)) {
                (Some(p), Some(n)) => (p, n),
                _ => return Reply::exact("err degraded count failed".to_string()),
            }
        }
    };
    let (mut tp, mut fp, mut tn, mut fn_) = (0u128, 0u128, 0u128, 0u128);
    for (region, (p, n)) in unit.regions.iter().zip(in_phi.into_iter().zip(in_not_phi)) {
        match region.label {
            TreeLabel::True => {
                tp += p;
                fp += n;
            }
            TreeLabel::False => {
                fn_ += p;
                tn += n;
            }
        }
    }
    let m = BinaryMetrics::from_counts(tp, fp, tn, fn_);
    let mut text = format!(
        "ok {tp} {fp} {tn} {fn_} {} {} {} {}",
        m.accuracy, m.precision, m.recall, m.f1
    );
    let label = meta.approx();
    if let Some(ApproxInfo { epsilon, delta }) = label {
        text.push_str(&format!(" approx {epsilon} {delta}"));
    }
    Reply {
        text,
        degraded: label.is_some(),
    }
}

/// One (ε, δ)-approximate conditioned count over a degraded unit's CNF;
/// `None` if the count produced no value, which is never read as 0.
/// The seed derives from the `(CNF, cube)` fingerprint inside
/// [`approx_conditioned`], so the estimate is a pure function of the
/// query — identical across restarts, workers and thread counts.
fn degraded_count(cnf: &Cnf, cube: &[Lit], epsilon: f64, delta: f64) -> Option<u128> {
    match approx_conditioned(cnf, cube, epsilon, delta) {
        CountOutcome::Exact(value)
        | CountOutcome::Approx {
            estimate: value, ..
        } => Some(value),
        CountOutcome::BudgetExhausted { .. } => None,
    }
}

/// The served diff: both models recounted over the **full feature
/// space**, exactly, by one of two plans that agree bit for bit with the
/// unconstrained batch `DiffMc`.
///
/// With compiled circuits and no symmetry breaking, each pairwise region
/// intersection `cube_a ∧ cube_b` is sized as
/// `mc(φ | cube) + mc(¬φ | cube)` in two batched sweeps — φ / ¬φ
/// partition the full space, so the sum is the intersection's size (a
/// contradictory concatenation counts 0 on both sides).
///
/// When either ground truth bakes in symmetry breaking, the circuits
/// partition the *constrained* space and that sweep would silently
/// disagree with `DiffMc` — so the intersections are counted
/// combinatorially instead: a non-contradictory intersection fixes some
/// distinct feature variables and has exactly `2^(features − fixed)`
/// models. The combinatorial plan needs no circuits, so it also serves
/// degraded units.
fn diff_reply(a: &Unit, b: &Unit, scope: usize) -> String {
    let sweeps = match (&a.circuits, &b.circuits) {
        (Circuits::Compiled { phi, not_phi }, Circuits::Compiled { .. })
            if !a.symmetry.is_enabled() && !b.symmetry.is_enabled() =>
        {
            Some((phi, not_phi))
        }
        _ => None,
    };
    let mut counts = DiffCounts::default();
    if let Some((phi, not_phi)) = sweeps {
        let mut cubes = Vec::with_capacity(a.regions.len() * b.regions.len());
        let mut labels = Vec::with_capacity(cubes.capacity());
        for ra in a.regions.iter() {
            for rb in b.regions.iter() {
                let mut cube = ra.cube.clone();
                cube.extend_from_slice(&rb.cube);
                cubes.push(cube);
                labels.push((ra.label, rb.label));
            }
        }
        let in_phi = phi.count_cubes(&cubes);
        let in_not_phi = not_phi.count_cubes(&cubes);
        for ((la, lb), (p, n)) in labels.iter().zip(in_phi.into_iter().zip(in_not_phi)) {
            tally_diff(&mut counts, *la, *lb, p + n);
        }
    } else {
        let num_features = scope * scope;
        if num_features >= 128 {
            return format!("err scope {scope} overflows the full-space diff count");
        }
        for ra in a.regions.iter() {
            for rb in b.regions.iter() {
                match cube_intersection_size(&ra.cube, &rb.cube, num_features) {
                    Ok(size) => tally_diff(&mut counts, ra.label, rb.label, size),
                    Err(e) => return format!("err {e}"),
                }
            }
        }
    }
    format!(
        "ok {} {} {} {} {} {}",
        counts.tt,
        counts.tf,
        counts.ft,
        counts.ff,
        counts.diff(),
        counts.sim()
    )
}

/// Adds one region-pair intersection to the diff's label-pair counter.
fn tally_diff(counts: &mut DiffCounts, la: TreeLabel, lb: TreeLabel, size: u128) {
    match (la, lb) {
        (TreeLabel::True, TreeLabel::True) => counts.tt += size,
        (TreeLabel::True, TreeLabel::False) => counts.tf += size,
        (TreeLabel::False, TreeLabel::True) => counts.ft += size,
        (TreeLabel::False, TreeLabel::False) => counts.ff += size,
    }
}

/// The exact full-space size of `cube_a ∧ cube_b` over `num_features`
/// boolean variables: `0` when the cubes fix some variable to both
/// polarities (empty intersection), otherwise `2^(features − fixed)`.
/// A cube variable outside the feature space is an error — every fixed
/// variable must be a feature, or the `features − fixed` exponent would
/// underflow and the count would be meaningless.
fn cube_intersection_size(
    cube_a: &[Lit],
    cube_b: &[Lit],
    num_features: usize,
) -> Result<u128, String> {
    let mut fixed: HashMap<u32, bool> = HashMap::with_capacity(cube_a.len() + cube_b.len());
    for lit in cube_a.iter().chain(cube_b) {
        if lit.var().index() >= num_features {
            return Err(format!(
                "region cube variable {} is outside the {num_features}-feature space",
                lit.var().index() + 1
            ));
        }
        if let Some(previous) = fixed.insert(lit.var().0, lit.is_positive()) {
            if previous != lit.is_positive() {
                return Ok(0);
            }
        }
    }
    Ok(1u128 << (num_features - fixed.len()))
}

/// One conditioned count. Compiled truths answer exactly from the
/// circuit; degraded truths answer approximately from the re-translated
/// CNF with the `approx <ε> <δ>` label. Either way the cube is validated
/// against the projection first — [`satkit::ddnnf::Ddnnf::count_conditioned`] panics on
/// foreign variables, and a malformed query must never take the server
/// down.
fn conditioned_reply(circuits: &Circuits, negated: bool, cube: &[Lit]) -> Reply {
    let projection: HashSet<usize> = match circuits {
        Circuits::Compiled { phi, not_phi } => {
            let circuit = if negated { not_phi } else { phi };
            circuit.projection().iter().map(|v| v.index()).collect()
        }
        Circuits::Degraded { phi, not_phi, .. } => {
            let cnf = if negated { not_phi } else { phi };
            cnf.effective_projection()
                .iter()
                .map(|v| v.index())
                .collect()
        }
    };
    for lit in cube {
        if !projection.contains(&lit.var().index()) {
            return Reply::exact(format!(
                "err literal {} is outside the circuit's projection",
                lit.var().index() + 1
            ));
        }
    }
    match circuits {
        Circuits::Compiled { phi, not_phi } => {
            let circuit = if negated { not_phi } else { phi };
            Reply::exact(format!("ok {}", circuit.count_conditioned(cube)))
        }
        Circuits::Degraded {
            phi,
            not_phi,
            epsilon,
            delta,
        } => {
            let cnf = if negated { not_phi } else { phi };
            // One approximate count: its own (ε, δ) is the whole label.
            match degraded_count(cnf, cube, *epsilon, *delta) {
                Some(count) => Reply {
                    text: format!("ok {count} approx {epsilon} {delta}"),
                    degraded: true,
                },
                None => Reply::exact("err degraded count failed".to_string()),
            }
        }
    }
}

/// A parsed query with its reply channel and the store generation it
/// must be answered from, sent to the owning shard.
struct Job {
    query: Query,
    generation: Arc<Generation>,
    reply: mpsc::Sender<String>,
}

enum Query {
    Accuracy {
        key: UnitKey,
    },
    Diff {
        property: String,
        scope: usize,
        family_a: String,
        family_b: String,
    },
    Count {
        property: String,
        scope: usize,
        negated: bool,
        cube: Vec<Lit>,
    },
}

impl Query {
    fn parse(words: &[&str]) -> Result<Query, String> {
        let scope = |word: &str| {
            word.parse::<usize>()
                .map_err(|_| format!("bad scope {word:?}"))
        };
        match words {
            ["accuracy", property, s, family] => Ok(Query::Accuracy {
                key: (property.to_string(), scope(s)?, family.to_string()),
            }),
            ["diff", property, s, family_a, family_b] => Ok(Query::Diff {
                property: property.to_string(),
                scope: scope(s)?,
                family_a: family_a.to_string(),
                family_b: family_b.to_string(),
            }),
            ["count", property, s, side, lits @ ..] => {
                let negated = match *side {
                    "phi" => false,
                    "nphi" => true,
                    other => return Err(format!("bad side {other:?} (expected phi or nphi)")),
                };
                let cube = lits
                    .iter()
                    .map(|w| parse_dimacs_lit(w))
                    .collect::<Result<Vec<Lit>, String>>()?;
                Ok(Query::Count {
                    property: property.to_string(),
                    scope: scope(s)?,
                    negated,
                    cube,
                })
            }
            [verb, ..] => Err(format!(
                "unknown request {verb:?} \
                 (expected ping, accuracy, diff, count, stats, reload or shutdown)"
            )),
            [] => Err("empty request".to_string()),
        }
    }

    fn route(&self) -> (&str, usize) {
        match self {
            Query::Accuracy { key } => (&key.0, key.1),
            Query::Diff {
                property, scope, ..
            }
            | Query::Count {
                property, scope, ..
            } => (property, *scope),
        }
    }
}

/// A signed 1-indexed DIMACS literal (`3` / `-1`) as a [`Lit`]. The zero
/// check runs before the 1-index conversion — `0u64.wrapping_sub(1)`
/// would otherwise overflow the `u32` conversion first and misreport
/// `0` as out of range.
fn parse_dimacs_lit(word: &str) -> Result<Lit, String> {
    let value: i64 = word.parse().map_err(|_| format!("bad literal {word:?}"))?;
    if value == 0 {
        return Err("literal 0 is not valid DIMACS".to_string());
    }
    let var = u32::try_from(value.unsigned_abs() - 1)
        .map_err(|_| format!("literal {word} out of range"))?;
    Ok(if value > 0 {
        Lit::pos(var)
    } else {
        Lit::neg(var)
    })
}

/// The shard owning a `(property, scope)` — both sides of a diff share it.
fn shard_of(property: &str, scope: usize, workers: usize) -> usize {
    let mut hasher = DefaultHasher::new();
    (property, scope).hash(&mut hasher);
    (hasher.finish() % workers as u64) as usize
}

/// How one attempt to read the next request frame ended.
enum RequestRead {
    /// A complete frame arrived.
    Request(String),
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// No request arrived within the idle deadline.
    IdleTimeout,
    /// The server is draining for shutdown and no frame had started.
    ShuttingDown,
}

fn retriable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one length-prefixed request frame under the connection
/// deadlines. The stream's read timeout is [`TICK`], so the loop can
/// re-check the idle deadline and shutdown flag while no frame has
/// started, and the per-frame deadline (from the frame's first byte)
/// once one has — a client stalling mid-frame is disconnected instead of
/// pinning the handler.
fn read_request(stream: &mut TcpStream, shared: &Shared) -> io::Result<RequestRead> {
    let idle_deadline = Instant::now() + shared.options.idle_timeout;
    let mut frame_deadline: Option<Instant> = None;
    let stalled = || {
        io::Error::new(
            io::ErrorKind::TimedOut,
            "client stalled mid-frame past the io timeout",
        )
    };

    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < len_buf.len() {
        match stream.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(RequestRead::Closed),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame header",
                ))
            }
            Ok(n) => {
                if frame_deadline.is_none() {
                    frame_deadline = Some(Instant::now() + shared.options.io_timeout);
                }
                filled += n;
            }
            Err(e) if retriable(&e) => match frame_deadline {
                None => {
                    if shared.is_shutting_down() {
                        return Ok(RequestRead::ShuttingDown);
                    }
                    if Instant::now() >= idle_deadline {
                        return Ok(RequestRead::IdleTimeout);
                    }
                }
                Some(deadline) if Instant::now() >= deadline => return Err(stalled()),
                Some(_) => {}
            },
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }

    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte bound"),
        ));
    }
    let frame_deadline =
        frame_deadline.unwrap_or_else(|| Instant::now() + shared.options.io_timeout);
    let mut payload = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        match stream.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame payload",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if retriable(&e) => {
                if Instant::now() >= frame_deadline {
                    return Err(stalled());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    String::from_utf8(payload)
        .map(RequestRead::Request)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 frame payload"))
}

/// Serves one connection until the peer closes, a deadline fires, the
/// server drains, or the peer sends `shutdown`.
fn handle_connection(
    mut stream: TcpStream,
    shared: &Shared,
    senders: &[mpsc::Sender<Job>],
) -> io::Result<()> {
    stream.set_read_timeout(Some(TICK))?;
    stream.set_write_timeout(Some(shared.options.io_timeout))?;
    loop {
        match read_request(&mut stream, shared)? {
            RequestRead::Closed | RequestRead::ShuttingDown => return Ok(()),
            RequestRead::IdleTimeout => {
                let _ = write_frame(&mut stream, "err idle timeout");
                return Ok(());
            }
            RequestRead::Request(request) => {
                let words: Vec<&str> = request.split_ascii_whitespace().collect();
                match words.first().copied() {
                    Some("ping") => write_frame(&mut stream, "ok pong")?,
                    Some("stats") => write_frame(&mut stream, &shared.stats.reply())?,
                    Some("reload") => {
                        let reply = match reload_now(shared) {
                            Ok((id, units)) => {
                                format!("ok reloaded generation {id} units {units}")
                            }
                            Err(message) => format!("err {message}"),
                        };
                        write_frame(&mut stream, &reply)?;
                    }
                    Some("shutdown") => {
                        shared.shutdown.store(true, Ordering::SeqCst);
                        shared.queue_signal.notify_all();
                        // The acceptor is blocked in accept(); a
                        // self-connection wakes it so it observes the
                        // flag and starts the drain.
                        let _ = TcpStream::connect(shared.local);
                        write_frame(&mut stream, "ok bye")?;
                        return Ok(());
                    }
                    _ => {
                        let reply = match Query::parse(&words) {
                            Err(message) => format!("err {message}"),
                            Ok(query) => dispatch_query(query, shared, senders),
                        };
                        write_frame(&mut stream, &reply)?;
                    }
                }
            }
        }
    }
}

/// Routes a parsed query to its owning shard under a generation
/// snapshot and waits for the reply. Workers outlive every handler, so
/// the error arms are anomaly paths (a worker died on a panic storm),
/// not shutdown races.
fn dispatch_query(query: Query, shared: &Shared, senders: &[mpsc::Sender<Job>]) -> String {
    let generation = shared.current_generation();
    let (property, scope) = query.route();
    let index = shard_of(property, scope, senders.len());
    let (reply_sender, reply_receiver) = mpsc::channel();
    if senders[index]
        .send(Job {
            query,
            generation,
            reply: reply_sender,
        })
        .is_err()
    {
        return "err worker unavailable".to_string();
    }
    reply_receiver
        .recv()
        .unwrap_or_else(|_| "err worker unavailable".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimacs_literal_parsing_covers_the_edges() {
        assert_eq!(parse_dimacs_lit("3"), Ok(Lit::pos(2)));
        assert_eq!(parse_dimacs_lit("-1"), Ok(Lit::neg(0)));
        // The zero check must win over the range check.
        assert_eq!(
            parse_dimacs_lit("0"),
            Err("literal 0 is not valid DIMACS".to_string())
        );
        // i64::MIN survives `unsigned_abs` and fails the range check.
        let min = i64::MIN.to_string();
        assert_eq!(
            parse_dimacs_lit(&min),
            Err(format!("literal {min} out of range"))
        );
        // An out-of-range positive literal is a range error, not a parse
        // error.
        let big = (u64::from(u32::MAX) + 2).to_string();
        assert_eq!(
            parse_dimacs_lit(&big),
            Err(format!("literal {big} out of range"))
        );
        assert_eq!(
            parse_dimacs_lit("x7"),
            Err("bad literal \"x7\"".to_string())
        );
    }

    #[test]
    fn stats_recover_from_a_poisoned_hit_table() {
        let stats = Arc::new(ServerStats::default());
        let query = Query::Accuracy {
            key: ("Function".to_string(), 3, "DT".to_string()),
        };
        stats.record(&query, 17, false);

        // Poison the lock: a thread panics while holding `unit_hits`.
        let poisoner = Arc::clone(&stats);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.unit_hits.lock().unwrap();
            panic!("poison the stats table");
        })
        .join();
        assert!(stats.unit_hits.lock().is_err(), "lock must be poisoned");

        // Recording and reporting must keep working — one bad query can
        // never disable stats server-wide.
        stats.record(&query, 25, true);
        let reply = stats.reply();
        // 17 ns and 25 ns both land in bucket 4 ([16, 32)), so both
        // quantiles report its 32 ns upper bound.
        assert!(
            reply.starts_with("ok queries 2 degraded 1 units 1 p50_ns 32 p99_ns 32"),
            "unexpected stats reply {reply:?}"
        );
        assert!(reply.ends_with("Function 3 DT 2 4:2"), "reply {reply:?}");
    }

    #[test]
    fn latency_buckets_are_log_scale_and_quantiles_over_estimate() {
        assert_eq!(LatencyHistogram::bucket(0), 0);
        assert_eq!(LatencyHistogram::bucket(1), 0);
        assert_eq!(LatencyHistogram::bucket(2), 1);
        assert_eq!(LatencyHistogram::bucket(3), 1);
        assert_eq!(LatencyHistogram::bucket(4), 2);
        assert_eq!(LatencyHistogram::bucket(1023), 9);
        assert_eq!(LatencyHistogram::bucket(1024), 10);
        assert_eq!(LatencyHistogram::bucket(u64::MAX), LATENCY_BUCKETS - 1);

        let empty = LatencyHistogram::default();
        assert_eq!(empty.quantile_ns(50), 0);
        assert_eq!(empty.quantile_ns(99), 0);
        assert_eq!(empty.reply_words(), "");

        // 99 fast samples and one slow straggler: the median stays in the
        // fast bucket, the p99 rank (ceil(100 · 0.99) = 99) is still the
        // last fast sample, and only a p100 read reaches the straggler.
        let mut skewed = LatencyHistogram::default();
        for _ in 0..99 {
            skewed.record(100); // bucket 6: [64, 128)
        }
        skewed.record(1 << 20); // bucket 20
        assert_eq!(skewed.quantile_ns(50), 128);
        assert_eq!(skewed.quantile_ns(99), 128);
        assert_eq!(skewed.quantile_ns(100), 1 << 21);
        assert_eq!(skewed.reply_words(), " 6:99 20:1");

        // The unbounded top bucket still reports a finite bound: its
        // nominal 2^32 ns upper edge.
        let mut top = LatencyHistogram::default();
        top.record(u64::MAX);
        assert_eq!(top.quantile_ns(50), 1u64 << LATENCY_BUCKETS);
    }

    #[test]
    fn sanitized_options_never_zero_out_the_runtime() {
        let opts = ServeOptions {
            workers: 0,
            connections: 0,
            backlog: 0,
            idle_timeout: Duration::ZERO,
            io_timeout: Duration::ZERO,
            ..ServeOptions::default()
        }
        .sanitized();
        assert_eq!(opts.workers, 1);
        assert_eq!(opts.connections, 1);
        assert_eq!(opts.backlog, 1);
        assert!(opts.idle_timeout >= Duration::from_millis(1));
        assert!(opts.io_timeout >= Duration::from_millis(1));
    }
}
