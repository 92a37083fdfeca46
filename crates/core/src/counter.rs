//! The pluggable model-counting abstraction: the [`ModelCounter`] trait, the
//! structured [`CountOutcome`] it returns, the [`QueryCounter`] extension
//! for conditioned (cube) queries, the compile-once/query-many
//! [`CompiledCounter`], and the memoizing [`CachedCounter`] wrapper.
//!
//! Historically the evaluation core took a concrete `CounterBackend` whose
//! `count` returned `Option<u128>` — conflating "the budget ran out" with
//! the absence of a value and hiding whether a number was exact or an
//! (ε, δ)-estimate. [`CountOutcome`] makes the three cases explicit, and any
//! counter implementing [`ModelCounter`] can drive the AccMC/DiffMC metrics:
//! the built-in exact and approximate counters, the [`CounterBackend`] enum
//! (kept as a thin selector for CLI-style call sites), or a
//! [`CachedCounter`] wrapping any of them so repeated formulas — e.g. the
//! shared φ / ¬φ prefixes of the four AccMC counts across table rows — are
//! counted once.
//!
//! [`QueryCounter`] extends the contract with
//! [`count_conditioned`](QueryCounter::count_conditioned): counting the
//! models of a formula restricted to a cube of projection literals. Search
//! counters answer it by re-counting the conjunction; [`CompiledCounter`]
//! compiles the formula to a d-DNNF circuit **once** ([`satkit::ddnnf`])
//! and answers every subsequent cube query in time linear in the circuit —
//! the access pattern of the AccMC/DiffMC query plans, where one φ is hit
//! with the decision regions of many models.

use crate::backend::CounterBackend;
use modelcount::approx::ApproxCounter;
use modelcount::exact::ExactCounter;
use satkit::cnf::{Cnf, Lit};
use satkit::ddnnf::{CompileError, CompileStats, Compiler, Ddnnf, SharedComponentCache};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The structured result of one projected model count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CountOutcome {
    /// An exact count.
    Exact(u128),
    /// An (ε, δ)-approximate count: within a factor `1 + epsilon` of the
    /// true count with probability at least `1 - delta`.
    Approx {
        /// The estimated count.
        estimate: u128,
        /// Tolerance ε of the estimate.
        epsilon: f64,
        /// Confidence parameter δ of the estimate.
        delta: f64,
    },
    /// The counter gave up before producing a value: the paper's time-outs,
    /// or a projection set past the exact counters' 127-variable limit.
    BudgetExhausted {
        /// Branching decisions made before the counter gave up (0 when
        /// the projection set was refused up front).
        nodes_used: u64,
    },
}

impl CountOutcome {
    /// The counted (or estimated) value, `None` when the budget ran out.
    pub fn value(&self) -> Option<u128> {
        match *self {
            CountOutcome::Exact(v) => Some(v),
            CountOutcome::Approx { estimate, .. } => Some(estimate),
            CountOutcome::BudgetExhausted { .. } => None,
        }
    }

    /// Whether this outcome carries an exact count.
    pub fn is_exact(&self) -> bool {
        matches!(self, CountOutcome::Exact(_))
    }

    /// Whether the counter gave up.
    pub fn is_budget_exhausted(&self) -> bool {
        matches!(self, CountOutcome::BudgetExhausted { .. })
    }
}

/// A projected model-counting backend usable by the evaluation core.
///
/// Implementations must be shareable across the threads of a
/// [`Runner`](crate::framework::Runner), hence the `Send + Sync` supertrait.
pub trait ModelCounter: Send + Sync {
    /// Short name for reports (e.g. `"exact"`, `"approx"`, `"cached"`).
    fn name(&self) -> &str;

    /// Counts the models of `cnf` projected onto its effective projection
    /// set.
    fn count(&self, cnf: &Cnf) -> CountOutcome;

    /// Counts a formula the caller will **not** ask about again (e.g. the
    /// per-model conjunction CNFs of the classic AccMC/DiffMC paths).
    ///
    /// Most backends answer exactly like [`count`](Self::count); backends
    /// that build a per-formula artifact ([`CompiledCounter`]'s circuits)
    /// answer with a transient strategy instead of growing their caches
    /// with entries that can never be reused.
    fn count_transient(&self, cnf: &Cnf) -> CountOutcome {
        self.count(cnf)
    }
}

/// Conditioned counting: the extension trait behind the compiled AccMC and
/// DiffMC query plans.
///
/// `count_conditioned(cnf, cube)` is semantically `count(cnf ∧ cube)` for a
/// cube of literals over the formula's projection variables. The provided
/// implementation literally builds that conjunction and delegates to
/// [`ModelCounter::count`] — correct for every backend, with no sharing.
/// [`CompiledCounter`] overrides it to answer from a circuit compiled once
/// per formula, which is what makes region-cube query plans asymptotically
/// cheaper than four-conjunction counting.
pub trait QueryCounter: ModelCounter {
    /// Counts the models of `cnf ∧ cube` projected onto the effective
    /// projection set of `cnf`.
    fn count_conditioned(&self, cnf: &Cnf, cube: &[Lit]) -> CountOutcome {
        if cube.is_empty() {
            return self.count(cnf);
        }
        let mut conditioned = cnf.clone();
        for &lit in cube {
            conditioned.add_unit(lit);
        }
        self.count(&conditioned)
    }

    /// Counts `cnf ∧ cube` for **every** cube of a batch — the query shape
    /// of the compiled AccMC/DiffMC region-sum plans, which evaluate one
    /// model side with its whole decision-region cube list at once.
    ///
    /// The provided implementation answers cube by cube (correct for any
    /// backend). [`CompiledCounter`] overrides it to resolve the circuit
    /// once and evaluate the entire batch in a single topological sweep
    /// ([`Ddnnf::count_cubes`]); [`CachedCounter`] forwards it to the
    /// inner counter's batch path.
    ///
    /// Cubes are borrowed slices so the region-sum plans can pass their
    /// decision-region cube lists without cloning a single literal.
    ///
    /// A batch with a [`BudgetExhausted`](CountOutcome::BudgetExhausted)
    /// count is void for the region-sum plans, so implementations may stop
    /// early: the result always contains the outcomes **up to and
    /// including the first exhausted count**, and outcomes past it may be
    /// omitted. Callers must absorb outcomes in order and treat the
    /// exhausted one as ending the batch.
    fn count_cubes(&self, cnf: &Cnf, cubes: &[&[Lit]]) -> Vec<CountOutcome> {
        let mut outcomes = Vec::with_capacity(cubes.len());
        for cube in cubes {
            let outcome = self.count_conditioned(cnf, cube);
            let exhausted = matches!(outcome, CountOutcome::BudgetExhausted { .. });
            outcomes.push(outcome);
            if exhausted {
                break;
            }
        }
        outcomes
    }
}

/// Debug-asserts the early-exit contract of
/// [`QueryCounter::count_cubes`]: a batch shorter than its cube list must
/// end in the exhausted count that voided it. The AccMC/DiffMC region-sum
/// plans zip outcomes against their region lists, so a contract-violating
/// short batch would otherwise silently drop regions and mis-sum the
/// space counts.
pub(crate) fn debug_assert_batch_complete(outcomes: &[CountOutcome], cubes: usize) {
    debug_assert!(
        outcomes.len() == cubes
            || matches!(outcomes.last(), Some(CountOutcome::BudgetExhausted { .. })),
        "count_cubes returned {} outcomes for {cubes} cubes without a trailing exhausted count",
        outcomes.len(),
    );
}

/// The outcome of a search that gave up. Both causes carry no value; a
/// projection set of 128 or more variables is refused before the first
/// decision, so it is never reported as a saturated count.
fn search_failure(error: CompileError) -> CountOutcome {
    let nodes_used = match error {
        CompileError::BudgetExhausted { decisions } => decisions,
        CompileError::TooManyProjectionVars { .. } => 0,
    };
    CountOutcome::BudgetExhausted { nodes_used }
}

impl ModelCounter for ExactCounter {
    fn name(&self) -> &str {
        "exact"
    }

    fn count(&self, cnf: &Cnf) -> CountOutcome {
        match self.try_count(cnf) {
            Ok((value, _)) => CountOutcome::Exact(value),
            Err(error) => search_failure(error),
        }
    }
}

impl ModelCounter for ApproxCounter {
    fn name(&self) -> &str {
        "approx"
    }

    fn count(&self, cnf: &Cnf) -> CountOutcome {
        CountOutcome::Approx {
            estimate: self.count(cnf),
            epsilon: self.config().epsilon,
            delta: self.config().delta,
        }
    }
}

impl ModelCounter for CounterBackend {
    fn name(&self) -> &str {
        CounterBackend::name(self)
    }

    fn count(&self, cnf: &Cnf) -> CountOutcome {
        match self {
            CounterBackend::Exact(c) => ModelCounter::count(c, cnf),
            CounterBackend::Approx(c) => ModelCounter::count(c, cnf),
            CounterBackend::Compiled(c) => ModelCounter::count(c, cnf),
        }
    }

    fn count_transient(&self, cnf: &Cnf) -> CountOutcome {
        match self {
            CounterBackend::Exact(c) => c.count_transient(cnf),
            CounterBackend::Approx(c) => c.count_transient(cnf),
            CounterBackend::Compiled(c) => c.count_transient(cnf),
        }
    }
}

impl QueryCounter for ExactCounter {}

impl QueryCounter for ApproxCounter {}

impl QueryCounter for CounterBackend {
    fn count_conditioned(&self, cnf: &Cnf, cube: &[Lit]) -> CountOutcome {
        match self {
            CounterBackend::Exact(c) => QueryCounter::count_conditioned(c, cnf, cube),
            CounterBackend::Approx(c) => QueryCounter::count_conditioned(c, cnf, cube),
            CounterBackend::Compiled(c) => QueryCounter::count_conditioned(c, cnf, cube),
        }
    }

    fn count_cubes(&self, cnf: &Cnf, cubes: &[&[Lit]]) -> Vec<CountOutcome> {
        match self {
            CounterBackend::Exact(c) => QueryCounter::count_cubes(c, cnf, cubes),
            CounterBackend::Approx(c) => QueryCounter::count_cubes(c, cnf, cubes),
            CounterBackend::Compiled(c) => QueryCounter::count_cubes(c, cnf, cubes),
        }
    }
}

/// Statistics of a [`CompiledCounter`]'s compilation cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileCacheStats {
    /// Queries served from an already-compiled circuit.
    pub hits: u64,
    /// Formulas compiled (including failed compilations).
    pub misses: u64,
}

/// A compile-once/query-many counting backend built on [`satkit::ddnnf`].
///
/// The first count of a formula compiles it into a d-DNNF circuit; the
/// circuit is cached (keyed on [`cnf_fingerprint`]) and every later count —
/// plain or cube-conditioned via [`QueryCounter::count_conditioned`] — is a
/// linear circuit traversal. This is the engine behind
/// [`CountingEngine::Compiled`](crate::accmc::CountingEngine): AccMC
/// compiles φ and the symmetry-broken space
/// ([`GroundTruth::cnf_space`](relspec::translate::GroundTruth::cnf_space))
/// once per (property, scope), evaluates every model of the batch with
/// per-region cube queries against both, and derives each region's ¬φ
/// count by subtraction. ¬φ is compiled only on request — for a circuit
/// artifact, or for regions whose counts had to be rescued.
///
/// Cloning is cheap and **shares** the circuit cache (it lives behind an
/// [`Arc`]), so one counter can serve all threads of a
/// [`Runner`](crate::framework::Runner) whether shared by reference or by
/// clone.
///
/// Beyond whole-circuit reuse, the counter owns a cross-query
/// [`SharedComponentCache`] for the lifetime of the batch: every
/// compilation it runs feeds and probes one content-addressed component
/// store, so φ, φ∧ψ and the per-family label CNFs reuse each other's
/// interned components even though their fingerprints differ. The
/// cross-query hit rate is surfaced through
/// [`compile_stats`](Self::compile_stats) (`shared_hits` /
/// `shared_lookups`); [`advance_shared_generation`](Self::advance_shared_generation)
/// bounds the component store to its live working set at batch boundaries.
///
/// A formula projecting onto 128 or more variables (beyond every scope of
/// the study), whose count might not fit a `u128`, is reported as
/// [`CountOutcome::BudgetExhausted`], like every other failed compile.
#[derive(Debug, Clone)]
pub struct CompiledCounter {
    max_decisions: u64,
    circuits: Arc<Mutex<CircuitCache>>,
    shared: Arc<SharedComponentCache>,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
}

/// Fingerprint-keyed store of compilation results (shared via [`Arc`] so a
/// hit hands out the circuit without cloning it). Each entry remembers
/// whether the circuit was compiled by this process or seeded from a
/// persisted artifact, so warm-start claims stay verifiable.
type CircuitCache = HashMap<u128, CachedCircuit>;

#[derive(Debug, Clone)]
struct CachedCircuit {
    result: Arc<Result<Ddnnf, CompileError>>,
    preloaded: bool,
}

impl Default for CompiledCounter {
    fn default() -> Self {
        CompiledCounter::new()
    }
}

impl CompiledCounter {
    /// A compiled counter with no compilation budget.
    pub fn new() -> Self {
        CompiledCounter::with_decision_budget(u64::MAX)
    }

    /// A compiled counter that gives up on a formula after `max_decisions`
    /// compilation decisions (reported as
    /// [`CountOutcome::BudgetExhausted`], like the search counters).
    pub fn with_decision_budget(max_decisions: u64) -> Self {
        CompiledCounter {
            max_decisions,
            circuits: Arc::new(Mutex::new(HashMap::new())),
            shared: Arc::new(SharedComponentCache::new()),
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The cross-query component cache every compilation of this counter
    /// (and its clones) feeds and probes. Exposed so long-lived owners —
    /// the query server, a multi-batch harness — can inspect its size and
    /// cumulative hit counters.
    pub fn shared_cache(&self) -> &Arc<SharedComponentCache> {
        &self.shared
    }

    /// Closes the component cache's current generation, dropping entries
    /// the finished batch never touched. Call between batches to keep the
    /// cross-query store bounded to its live working set.
    pub fn advance_shared_generation(&self) {
        self.shared.advance_generation();
    }

    /// Hit/miss statistics of the circuit cache.
    pub fn stats(&self) -> CompileCacheStats {
        CompileCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// The summed [`CompileStats`] of every circuit **compiled by this
    /// process** — decisions, conflicts, component-cache hit counts — the
    /// numbers the counting benches export to `BENCH_counting.json` so
    /// branching-heuristic regressions show up in the perf trail, not just
    /// as slower wall-clock. Circuits seeded by
    /// [`preload_circuits`](Self::preload_circuits) are excluded: their
    /// work was paid by an earlier process, so a fully warm start reports
    /// zero decisions here (the warm-start proof the artifact tests
    /// assert).
    pub fn compile_stats(&self) -> CompileStats {
        let circuits = self.circuits.lock().expect("circuit cache poisoned");
        let mut total = CompileStats::default();
        for entry in circuits.values() {
            if entry.preloaded {
                continue;
            }
            if let Ok(circuit) = entry.result.as_ref() {
                let s = circuit.stats();
                total.decisions += s.decisions;
                total.cache_hits += s.cache_hits;
                total.cache_lookups += s.cache_lookups;
                total.conflicts += s.conflicts;
                total.sat_calls += s.sat_calls;
                total.shared_hits += s.shared_hits;
                total.shared_lookups += s.shared_lookups;
            }
        }
        total
    }

    /// Seeds the circuit cache with circuits deserialized from an
    /// artifact. Entries already in the cache win (a circuit this process
    /// compiled is at least as fresh as the artifact's copy), and
    /// preloaded circuits are excluded from
    /// [`compile_stats`](Self::compile_stats).
    pub fn preload_circuits<I: IntoIterator<Item = (u128, Ddnnf)>>(&self, circuits: I) {
        use std::collections::hash_map::Entry;
        let mut cache = self.circuits.lock().expect("circuit cache poisoned");
        for (key, circuit) in circuits {
            if let Entry::Vacant(slot) = cache.entry(key) {
                slot.insert(CachedCircuit {
                    result: Arc::new(Ok(circuit)),
                    preloaded: true,
                });
            }
        }
    }

    /// Number of cached circuits that were seeded by
    /// [`preload_circuits`](Self::preload_circuits) rather than compiled
    /// by this process.
    pub fn preloaded_len(&self) -> usize {
        self.circuits
            .lock()
            .expect("circuit cache poisoned")
            .values()
            .filter(|entry| entry.preloaded)
            .count()
    }

    /// A clone of every successfully compiled circuit in the cache,
    /// process-compiled and preloaded alike, keyed by fingerprint — the
    /// payload [`crate::artifact::save_artifact`] persists. Failed
    /// compilations are never persisted: a later run may carry a larger
    /// budget and should retry them.
    pub fn snapshot_circuits(&self) -> Vec<(u128, Ddnnf)> {
        let cache = self.circuits.lock().expect("circuit cache poisoned");
        let mut out = Vec::new();
        for (key, entry) in cache.iter() {
            if let Ok(circuit) = entry.result.as_ref() {
                out.push((*key, circuit.clone()));
            }
        }
        out
    }

    /// Number of distinct formulas compiled (successfully or not).
    pub fn len(&self) -> usize {
        self.circuits.lock().expect("circuit cache poisoned").len()
    }

    /// Whether no formula has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached circuit (statistics are kept).
    pub fn clear(&self) {
        self.circuits
            .lock()
            .expect("circuit cache poisoned")
            .clear();
    }

    /// The compiled circuit for `cnf`, compiling on first sight.
    fn circuit(&self, cnf: &Cnf) -> Arc<Result<Ddnnf, CompileError>> {
        let key = cnf_fingerprint(cnf);
        if let Some(c) = self
            .circuits
            .lock()
            .expect("circuit cache poisoned")
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(&c.result);
        }
        // Compile outside the lock so concurrent misses on different
        // formulas proceed in parallel (a duplicated compile on the same
        // formula is merely redundant work, never wrong).
        let compiler = Compiler::with_decision_budget(self.max_decisions)
            .with_shared_cache(Arc::clone(&self.shared));
        let compiled = Arc::new(compiler.compile(cnf));
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.circuits
            .lock()
            .expect("circuit cache poisoned")
            .insert(
                key,
                CachedCircuit {
                    result: Arc::clone(&compiled),
                    preloaded: false,
                },
            );
        compiled
    }

    fn outcome(&self, cnf: &Cnf, cube: &[Lit]) -> CountOutcome {
        match &*self.circuit(cnf) {
            Ok(circuit) => CountOutcome::Exact(circuit.count_conditioned(cube)),
            Err(error) => search_failure(*error),
        }
    }
}

impl ModelCounter for CompiledCounter {
    fn name(&self) -> &str {
        "compiled"
    }

    fn count(&self, cnf: &Cnf) -> CountOutcome {
        self.outcome(cnf, &[])
    }

    /// One-shot formulas get one uncached [`ExactCounter`] count with the
    /// same budget: caching their circuits (or feeding their components to
    /// the shared store) would only grow memory that is never queried
    /// again.
    fn count_transient(&self, cnf: &Cnf) -> CountOutcome {
        ModelCounter::count(&ExactCounter::with_node_budget(self.max_decisions), cnf)
    }
}

impl QueryCounter for CompiledCounter {
    fn count_conditioned(&self, cnf: &Cnf, cube: &[Lit]) -> CountOutcome {
        self.outcome(cnf, cube)
    }

    /// The whole batch is answered from **one** circuit resolution (a
    /// single cache probe) and one topological sweep
    /// ([`Ddnnf::count_cubes`]) — no per-cube walk, no per-cube memo.
    fn count_cubes(&self, cnf: &Cnf, cubes: &[&[Lit]]) -> Vec<CountOutcome> {
        if cubes.is_empty() {
            return Vec::new();
        }
        match &*self.circuit(cnf) {
            Ok(circuit) => circuit
                .count_cubes(cubes)
                .into_iter()
                .map(CountOutcome::Exact)
                .collect(),
            // Compilation is all-or-nothing: one exhausted outcome ends
            // the batch (the early-exit contract of the trait method).
            Err(error) => vec![search_failure(*error)],
        }
    }
}

/// A 128-bit structural fingerprint of a CNF (variables, projection and
/// clause list), used as the memoization key by [`CachedCounter`].
///
/// Two independently salted SipHash-1-3 passes give a 128-bit digest; a
/// collision between distinct formulas in one process is vanishingly
/// unlikely (birthday bound ≈ 2⁻⁶⁴ at a billion cached entries).
pub fn cnf_fingerprint(cnf: &Cnf) -> u128 {
    cnf_cube_fingerprint(cnf, &[])
}

/// Fingerprint of `cnf ∧ cube`, the seed of the fallback ladder's
/// approximate rung ([`crate::fallback::derive_seed`]). With an empty cube
/// this equals [`cnf_fingerprint`].
pub fn cnf_cube_fingerprint(cnf: &Cnf, cube: &[Lit]) -> u128 {
    let pass = |salt: u64| -> u64 {
        let mut h = DefaultHasher::new();
        salt.hash(&mut h);
        cnf.num_vars().hash(&mut h);
        for v in cnf.projection() {
            v.0.hash(&mut h);
        }
        0xffff_ffffu64.hash(&mut h); // separator between projection and clauses
        for clause in cnf.clauses() {
            for lit in clause.iter() {
                lit.code().hash(&mut h);
            }
            u64::MAX.hash(&mut h); // clause separator
        }
        // A cube literal hashes exactly like the equivalent unit clause, so
        // the fingerprint of (cnf, cube) equals that of cnf ∧ cube built by
        // appending units.
        for lit in cube {
            lit.code().hash(&mut h);
            u64::MAX.hash(&mut h);
        }
        h.finish()
    };
    (u128::from(pass(0x9E37_79B9_7F4A_7C15)) << 64) | u128::from(pass(0xC2B2_AE3D_27D4_EB4F))
}

/// Hit/miss statistics of a [`CachedCounter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Counts served from the cache.
    pub hits: u64,
    /// Counts delegated to the inner counter.
    pub misses: u64,
}

/// A memoizing wrapper around any [`ModelCounter`], keyed on
/// [`cnf_fingerprint`].
///
/// AccMC issues four counts per evaluated model, and table harnesses repeat
/// structurally identical formulas across rows (the φ / ¬φ ground-truth
/// halves, identical re-trained models, …). Wrapping the backend in a
/// `CachedCounter` makes every repeat free. The cache is internally
/// synchronized, so one instance can serve all threads of a
/// [`Runner`](crate::framework::Runner).
///
/// Only whole formulas are memoized. Conditioned and batched cube queries
/// go straight to the inner counter's native path: a [`CompiledCounter`]
/// already answers them from its cached circuit, and a per-cube memo in
/// front of that sweep almost never hits.
#[derive(Debug, Default)]
pub struct CachedCounter<C> {
    inner: C,
    cache: Mutex<HashMap<u128, CountOutcome>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<C: ModelCounter> CachedCounter<C> {
    /// Wraps `inner` with an empty cache.
    pub fn new(inner: C) -> Self {
        CachedCounter {
            inner,
            cache: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The wrapped counter.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Hit/miss statistics so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct formulas cached.
    pub fn len(&self) -> usize {
        self.cache.lock().expect("cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached outcomes (statistics are kept).
    pub fn clear(&self) {
        self.cache.lock().expect("cache poisoned").clear();
    }

    /// A snapshot of the cached outcomes, e.g. for persisting to disk with
    /// [`persist::save_outcomes`](crate::persist::save_outcomes).
    pub fn snapshot(&self) -> HashMap<u128, CountOutcome> {
        self.cache.lock().expect("cache poisoned").clone()
    }

    /// Seeds the cache with previously computed outcomes (e.g. loaded from
    /// disk by [`persist::load_outcomes`](crate::persist::load_outcomes)).
    /// Existing entries win on key collisions.
    pub fn preload<I: IntoIterator<Item = (u128, CountOutcome)>>(&self, entries: I) {
        let mut cache = self.cache.lock().expect("cache poisoned");
        for (key, outcome) in entries {
            cache.entry(key).or_insert(outcome);
        }
    }

    /// Memoized lookup shared by the plain and transient count paths.
    fn count_keyed(&self, cnf: &Cnf, compute: impl FnOnce() -> CountOutcome) -> CountOutcome {
        let key = cnf_fingerprint(cnf);
        if let Some(&outcome) = self.cache.lock().expect("cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return outcome;
        }
        // Count outside the lock so concurrent misses on *different*
        // formulas proceed in parallel (a duplicated count on the same
        // formula is merely redundant work, never wrong).
        let outcome = compute();
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.cache
            .lock()
            .expect("cache poisoned")
            .insert(key, outcome);
        outcome
    }
}

impl<C: ModelCounter> ModelCounter for CachedCounter<C> {
    fn name(&self) -> &str {
        "cached"
    }

    fn count(&self, cnf: &Cnf) -> CountOutcome {
        self.count_keyed(cnf, || self.inner.count(cnf))
    }

    /// Outcomes of transient counts are still memoized (they are cheap to
    /// keep, and identical table rows do repeat them); only the inner
    /// counter is told not to build reusable artifacts.
    fn count_transient(&self, cnf: &Cnf) -> CountOutcome {
        self.count_keyed(cnf, || self.inner.count_transient(cnf))
    }
}

impl<C: QueryCounter> QueryCounter for CachedCounter<C> {
    fn count_conditioned(&self, cnf: &Cnf, cube: &[Lit]) -> CountOutcome {
        self.inner.count_conditioned(cnf, cube)
    }

    fn count_cubes(&self, cnf: &Cnf, cubes: &[&[Lit]]) -> Vec<CountOutcome> {
        self.inner.count_cubes(cnf, cubes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satkit::cnf::{Lit, Var};

    fn clause_cnf() -> Cnf {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        cnf
    }

    #[test]
    fn outcome_value_accessors() {
        assert_eq!(CountOutcome::Exact(7).value(), Some(7));
        assert!(CountOutcome::Exact(7).is_exact());
        let approx = CountOutcome::Approx {
            estimate: 9,
            epsilon: 0.4,
            delta: 0.2,
        };
        assert_eq!(approx.value(), Some(9));
        assert!(!approx.is_exact());
        let exhausted = CountOutcome::BudgetExhausted { nodes_used: 5 };
        assert_eq!(exhausted.value(), None);
        assert!(exhausted.is_budget_exhausted());
    }

    #[test]
    fn exact_counter_reports_outcomes() {
        let cnf = clause_cnf();
        assert_eq!(
            ModelCounter::count(&ExactCounter::new(), &cnf),
            CountOutcome::Exact(6)
        );
        let budgeted = ExactCounter::with_node_budget(0);
        assert!(ModelCounter::count(&budgeted, &chain_cnf()).is_budget_exhausted());
    }

    #[test]
    fn approx_counter_reports_config() {
        let cnf = clause_cnf();
        match ModelCounter::count(&ApproxCounter::default(), &cnf) {
            CountOutcome::Approx {
                estimate,
                epsilon,
                delta,
            } => {
                assert_eq!(estimate, 6);
                assert!(epsilon > 0.0 && delta > 0.0);
            }
            other => panic!("expected approx outcome, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_distinguishes_structure() {
        let a = clause_cnf();
        let mut b = clause_cnf();
        b.add_clause(vec![Lit::neg(2)]);
        assert_ne!(cnf_fingerprint(&a), cnf_fingerprint(&b));
        assert_eq!(cnf_fingerprint(&a), cnf_fingerprint(&clause_cnf()));

        // Projection changes the count, so it must change the fingerprint.
        let mut c = clause_cnf();
        c.set_projection(vec![Var(0)]);
        assert_ne!(cnf_fingerprint(&a), cnf_fingerprint(&c));
    }

    #[test]
    fn cached_counter_memoizes() {
        let cached = CachedCounter::new(ExactCounter::new());
        let cnf = clause_cnf();
        assert_eq!(cached.count(&cnf).value(), Some(6));
        assert_eq!(cached.count(&cnf).value(), Some(6));
        assert_eq!(cached.count(&cnf).value(), Some(6));
        let stats = cached.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(cached.len(), 1);
        cached.clear();
        assert!(cached.is_empty());
    }

    #[test]
    fn cached_counter_is_shareable_across_threads() {
        let cached = CachedCounter::new(ExactCounter::new());
        let cnf = clause_cnf();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..8 {
                        assert_eq!(cached.count(&cnf).value(), Some(6));
                    }
                });
            }
        });
        let stats = cached.stats();
        assert_eq!(stats.hits + stats.misses, 32);
        assert!(stats.hits >= 28, "stats: {stats:?}");
    }

    #[test]
    fn backend_implements_model_counter() {
        let cnf = clause_cnf();
        let exact: &dyn ModelCounter = &CounterBackend::exact();
        assert_eq!(exact.count(&cnf), CountOutcome::Exact(6));
        assert_eq!(exact.name(), "exact");
        let approx: &dyn ModelCounter = &CounterBackend::approx();
        assert_eq!(approx.count(&cnf).value(), Some(6));
        assert_eq!(approx.name(), "approx");
        let compiled: &dyn ModelCounter = &CounterBackend::compiled();
        assert_eq!(compiled.count(&cnf), CountOutcome::Exact(6));
        assert_eq!(compiled.name(), "compiled");
    }

    #[test]
    fn compiled_counter_agrees_with_exact() {
        let cnf = clause_cnf();
        let compiled = CompiledCounter::new();
        assert_eq!(compiled.count(&cnf), CountOutcome::Exact(6));
        // Second count of the same formula is a cache hit.
        assert_eq!(compiled.count(&cnf), CountOutcome::Exact(6));
        let stats = compiled.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(compiled.len(), 1);
    }

    #[test]
    fn compiled_counter_conditioned_queries_share_one_circuit() {
        let cnf = clause_cnf();
        let compiled = CompiledCounter::new();
        // mc((x0 | x1) ∧ x0) = 4, mc((x0 | x1) ∧ ¬x0) = 2 over 3 vars.
        assert_eq!(
            compiled.count_conditioned(&cnf, &[Lit::pos(0)]),
            CountOutcome::Exact(4)
        );
        assert_eq!(
            compiled.count_conditioned(&cnf, &[Lit::neg(0)]),
            CountOutcome::Exact(2)
        );
        assert_eq!(
            compiled.count_conditioned(&cnf, &[Lit::neg(0), Lit::neg(1)]),
            CountOutcome::Exact(0)
        );
        // One compile served every query.
        assert_eq!(compiled.stats().misses, 1);
        assert_eq!(compiled.stats().hits, 2);
    }

    #[test]
    fn compiled_counter_transient_counts_skip_the_circuit_cache() {
        let compiled = CompiledCounter::new();
        let cnf = clause_cnf();
        assert_eq!(compiled.count_transient(&cnf), CountOutcome::Exact(6));
        assert!(
            compiled.is_empty(),
            "one-shot counts must not populate the circuit cache"
        );
        assert_eq!(compiled.count(&cnf), CountOutcome::Exact(6));
        assert_eq!(compiled.len(), 1);
    }

    #[test]
    fn compiled_counter_budget_reports_exhaustion() {
        let compiled = CompiledCounter::with_decision_budget(2);
        assert!(compiled.count(&chain_cnf()).is_budget_exhausted());
    }

    #[test]
    fn projections_past_128_variables_never_count_as_exact() {
        // 128 and 129 free projection variables: 2^128 and 2^129 models,
        // which no u128 holds.
        for width in [128, 129] {
            let wide = Cnf::new(width);
            let outcomes = [
                ModelCounter::count(&ExactCounter::new(), &wide),
                ExactCounter::new().count_transient(&wide),
                CompiledCounter::new().count(&wide),
                CompiledCounter::new().count_transient(&wide),
                CompiledCounter::new().count_conditioned(&wide, &[Lit::pos(0)]),
            ];
            for outcome in outcomes {
                assert_eq!(
                    outcome,
                    CountOutcome::BudgetExhausted { nodes_used: 0 },
                    "{width} variables"
                );
            }
            let cube = [Lit::pos(0)];
            let batch = CompiledCounter::new().count_cubes(&wide, &[&cube[..], &cube[..]]);
            assert_eq!(batch, vec![CountOutcome::BudgetExhausted { nodes_used: 0 }]);
        }
        // 127 variables is the widest exact count: 2^127.
        assert_eq!(
            CompiledCounter::new().count(&Cnf::new(127)),
            CountOutcome::Exact(1 << 127)
        );
    }

    /// A chain CNF that exhausts any zero/low decision budget.
    fn chain_cnf() -> Cnf {
        let mut chain = Cnf::new(20);
        for i in 0..19u32 {
            chain.add_clause(vec![Lit::pos(i), Lit::pos(i + 1)]);
        }
        chain
    }

    #[test]
    fn count_cubes_stops_at_the_first_exhausted_count() {
        let budgeted = ExactCounter::with_node_budget(0);
        let chain = chain_cnf();
        let cube = [Lit::pos(0)];
        let cubes: Vec<&[Lit]> = vec![&cube, &cube, &cube];
        let outcomes = QueryCounter::count_cubes(&budgeted, &chain, &cubes);
        assert_eq!(
            outcomes.len(),
            1,
            "the batch must end at the first exhausted count"
        );
        assert!(outcomes[0].is_budget_exhausted());
    }

    #[test]
    fn cached_batch_truncates_when_the_inner_counter_gives_up() {
        let cached = CachedCounter::new(CompiledCounter::with_decision_budget(2));
        let chain = chain_cnf();
        let a = [Lit::pos(0)];
        let b = [Lit::pos(1)];
        let c = [Lit::pos(2)];
        let cubes: Vec<&[Lit]> = vec![&a, &b, &c];
        let outcomes = cached.count_cubes(&chain, &cubes);
        assert_eq!(outcomes.len(), 1, "nothing past the exhausted count");
        assert!(outcomes[0].is_budget_exhausted());
    }

    #[test]
    fn compiled_counter_shares_components_across_distinct_formulas() {
        // φ and φ∧ψ have distinct fingerprints (no whole-circuit reuse),
        // but φ's connected components reappear untouched in φ∧ψ over the
        // disjoint ψ variables — exactly the cross-query shape the shared
        // component cache exists for.
        // One connected φ component, large enough to clear the sharing
        // gate (small components are cheaper to recompile than to intern).
        let mut phi = Cnf::new(8);
        phi.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        phi.add_clause(vec![Lit::neg(1), Lit::pos(2), Lit::pos(3)]);
        phi.add_clause(vec![Lit::neg(2), Lit::pos(3)]);
        phi.add_clause(vec![Lit::pos(0), Lit::neg(3), Lit::pos(1)]);
        let mut phi_and_psi = phi.clone();
        phi_and_psi.add_clause(vec![Lit::pos(4), Lit::neg(5)]);
        phi_and_psi.add_clause(vec![Lit::pos(6), Lit::pos(7)]);

        let compiled = CompiledCounter::new();
        let phi_count = compiled.count(&phi);
        let both_count = compiled.count(&phi_and_psi);
        assert_eq!(compiled.stats().misses, 2, "two distinct circuits");
        let stats = compiled.compile_stats();
        assert!(
            stats.shared_hits > 0,
            "φ∧ψ must reuse φ's components, stats {stats:?}"
        );
        // Reuse never changes the counts: a cold counter agrees bit for bit.
        let cold = CompiledCounter::new();
        assert_eq!(cold.count(&phi), phi_count);
        assert_eq!(cold.count(&phi_and_psi), both_count);
        // Generation hygiene: the owner can close a batch.
        compiled.advance_shared_generation();
        assert_eq!(compiled.shared_cache().generation(), 1);
    }

    #[test]
    fn compiled_counter_clones_share_the_cache() {
        let compiled = CompiledCounter::new();
        let clone = compiled.clone();
        assert_eq!(clone.count(&clause_cnf()), CountOutcome::Exact(6));
        assert_eq!(compiled.len(), 1, "clone populated the shared cache");
        assert_eq!(compiled.count(&clause_cnf()), CountOutcome::Exact(6));
        assert_eq!(compiled.stats().hits, 1);
    }

    #[test]
    fn query_counter_default_matches_unit_assertion() {
        let cnf = clause_cnf();
        let exact = ExactCounter::new();
        let mut asserted = cnf.clone();
        asserted.add_unit(Lit::pos(0));
        assert_eq!(
            QueryCounter::count_conditioned(&exact, &cnf, &[Lit::pos(0)]),
            ModelCounter::count(&exact, &asserted)
        );
    }

    #[test]
    fn cube_fingerprint_matches_appended_units() {
        let cnf = clause_cnf();
        let cube = [Lit::pos(0), Lit::neg(2)];
        let mut asserted = cnf.clone();
        for &l in &cube {
            asserted.add_unit(l);
        }
        assert_eq!(
            cnf_cube_fingerprint(&cnf, &cube),
            cnf_fingerprint(&asserted),
            "conditioned and conjunction routes must share cache entries"
        );
        assert_eq!(cnf_cube_fingerprint(&cnf, &[]), cnf_fingerprint(&cnf));
    }

    #[test]
    fn snapshot_and_preload_round_trip() {
        let cached = CachedCounter::new(ExactCounter::new());
        let cnf = clause_cnf();
        assert_eq!(cached.count(&cnf).value(), Some(6));
        let snapshot = cached.snapshot();
        assert_eq!(snapshot.len(), 1);

        let fresh = CachedCounter::new(ExactCounter::new());
        fresh.preload(snapshot);
        assert_eq!(fresh.count(&cnf).value(), Some(6));
        let stats = fresh.stats();
        assert_eq!(stats.hits, 1, "preloaded entry must serve the count");
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn preloaded_circuits_are_excluded_from_compile_stats() {
        let mut cnf = Cnf::new(4);
        cnf.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        cnf.add_clause(vec![Lit::neg(2), Lit::pos(3)]);

        // First "process" compiles and reports its own decisions.
        let warm = CompiledCounter::new();
        let expected = warm.count(&cnf);
        assert!(warm.compile_stats().decisions > 0);
        assert_eq!(warm.preloaded_len(), 0);

        // Second "process" preloads the snapshot into a zero-budget
        // counter: the count is served, yet compile_stats stays empty —
        // the compilation work verifiably happened elsewhere.
        let cold = CompiledCounter::with_decision_budget(0);
        cold.preload_circuits(warm.snapshot_circuits());
        assert_eq!(cold.preloaded_len(), 1);
        assert_eq!(cold.count(&cnf), expected);
        assert_eq!(cold.compile_stats(), CompileStats::default());
        assert_eq!(cold.stats().misses, 0);

        // A process-compiled entry wins over a later preload of the same
        // key, and keeps counting as compiled-here.
        let compiled_first = CompiledCounter::new();
        compiled_first.count(&cnf);
        compiled_first.preload_circuits(warm.snapshot_circuits());
        assert_eq!(compiled_first.preloaded_len(), 0);
        assert!(compiled_first.compile_stats().decisions > 0);
    }
}
