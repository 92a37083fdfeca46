//! Compilation of CNF formulas into deterministic decomposable NNF (d-DNNF)
//! circuits for compile-once / query-many projected model counting.
//!
//! The MCML metrics ask many counting queries that share one formula: AccMC
//! conditions the same ground truth φ on the decision region of every
//! evaluated model, and every table row repeats the φ / ¬φ halves. A search
//! counter pays the full #SAT cost per query; a knowledge-compilation
//! counter (the ProjMC/D4 lineage) pays it **once**, producing a circuit on
//! which each subsequent count is linear in the circuit size.
//!
//! The [`Compiler`] here is the classic projected #SAT search, recording
//! its trace. It is the workspace's only exact search: `modelcount::exact`
//! counts a freshly compiled circuit and drops it. The search:
//!
//! 1. unit propagation — fixed *projection* literals become [`Lit`] leaves;
//!    fixed auxiliary (non-projection) literals are existentially forgotten;
//! 2. connected-component decomposition — components become the children of
//!    a decomposable `And` node (their variable sets are disjoint by
//!    construction);
//! 3. branching on a projection variable — the two subtraces become the
//!    branches of a `Decision` node (a deterministic `Or`: the branches
//!    disagree on the branch variable);
//! 4. a component without projection variables contributes `True` or
//!    `False` depending on plain satisfiability, decided by the CDCL
//!    [`Solver`] — this is the existential forgetting of the remaining
//!    Tseitin auxiliaries, so compiled counts equal projected counts.
//!
//! The hot paths are engineered sharpSAT-style rather than naively:
//!
//! * **Interned components.** Clauses live once in a flat arena; the search
//!   never materializes residual formulas. A component is a sorted list of
//!   arena [`ClauseId`]s plus the sorted list of its free variables (which
//!   together determine the residual exactly: in an unsatisfied clause every
//!   assigned variable has a falsified literal, so the residual clause is
//!   its literals over free variables). The component cache hashes a
//!   precomputed 64-bit signature of that pair — a cache probe never clones
//!   or re-hashes literal vectors.
//! * **Occurrence lists.** Per-literal clause lists drive counter-based unit
//!   propagation (satisfier / free-literal counters with trail-based undo)
//!   and the stamp-based component walk, so neither ever scans the whole
//!   clause set.
//! * **Activity-guided branching.** VSIDS-style variable activities (seeded
//!   from occurrence counts, bumped on conflicts and on decisions whose
//!   propagation splits the component, decayed per decision) replace pure
//!   occurrence counting. [`CompileStats`] exposes decisions, conflicts and
//!   the component-cache hit rate so heuristic regressions are measurable.
//! * **Cross-query component reuse.** A [`SharedComponentCache`] attached
//!   via [`Compiler::with_shared_cache`] outlives any single run: it keys
//!   component *content* (canonical residual clauses plus projection
//!   membership) and stores portable sub-circuits, so the φ / φ∧ψ halves
//!   and the per-family label CNFs of one batch reuse each other's
//!   components instead of recompiling them. The cross-query hit rate is
//!   surfaced in [`CompileStats::shared_hits`] /
//!   [`CompileStats::shared_lookups`].
//!
//! The compiled [`Ddnnf`] supports [`count`](Ddnnf::count), conditioned
//! counting on a cube of projection literals
//! ([`count_conditioned`](Ddnnf::count_conditioned)), **batched** cube
//! counting ([`count_cubes`](Ddnnf::count_cubes): all cubes of a region
//! list in one iterative topological sweep — the query the AccMC/DiffMC
//! region-sum plans issue per model side), structural conditioning
//! ([`condition`](Ddnnf::condition), which returns a smaller circuit) and
//! model enumeration over the projection set ([`models`](Ddnnf::models)).
//!
//! Circuits are hash-consed DAGs: structurally identical subtraces (which
//! the search cache detects) share one node. Projection sets are limited to
//! [`MAX_PROJECTION_VARS`] = 127 variables — enough for every scope of the
//! reproduction (scope 11 has 121 primary variables) — so per-node variable
//! sets are single `u128` bitmasks, gap ("smoothing") factors are
//! popcounts, and every count, at most 2^127, fits a `u128` exactly.

use crate::cnf::{Cnf, Lit, Var};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::solver::Solver;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The largest projection set a circuit may have. Per-node variable sets
/// are `u128` bitmasks, which would hold 128 variables, but 128 free
/// variables have 2^128 models and no `u128` holds that count.
pub const MAX_PROJECTION_VARS: usize = 127;

/// Index of a node inside a [`Ddnnf`] circuit.
pub type NodeId = usize;

/// Index of a clause in the compiler's clause arena.
pub type ClauseId = u32;

/// One node of a d-DNNF circuit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// The constant true (neutral element of `And`).
    True,
    /// The constant false (an unsatisfiable subtrace).
    False,
    /// A projection literal fixed by unit propagation.
    Lit(Lit),
    /// Decomposable conjunction: the children's variable sets are pairwise
    /// disjoint.
    And(Vec<NodeId>),
    /// Deterministic disjunction `(var ∧ hi) ∨ (¬var ∧ lo)` produced by
    /// branching on a projection variable.
    Decision {
        /// The projection variable branched on.
        var: u32,
        /// Subcircuit under `var = true`.
        hi: NodeId,
        /// Subcircuit under `var = false`.
        lo: NodeId,
    },
}

/// Why a compilation attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileError {
    /// The decision budget ran out before the trace was complete (the
    /// compile-time analogue of a counting time-out).
    BudgetExhausted {
        /// Branching decisions recorded before giving up.
        decisions: u64,
    },
    /// The formula projects onto more than [`MAX_PROJECTION_VARS`]
    /// variables, so its count might not fit a `u128`.
    TooManyProjectionVars {
        /// Size of the effective projection set.
        found: usize,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::BudgetExhausted { decisions } => {
                write!(
                    f,
                    "d-DNNF compilation budget exhausted after {decisions} decisions"
                )
            }
            CompileError::TooManyProjectionVars { found } => {
                write!(
                    f,
                    "projection set of {found} variables exceeds the \
                     {MAX_PROJECTION_VARS}-variable limit"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Statistics of one compilation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Branching decisions recorded.
    pub decisions: u64,
    /// Component-cache probes that found a shared subtrace.
    pub cache_hits: u64,
    /// Total component-cache probes (hits + misses).
    pub cache_lookups: u64,
    /// Conflicts found by unit propagation (each one bumps the activities
    /// of the conflicting clause's variables).
    pub conflicts: u64,
    /// SAT-solver calls on projection-free components.
    pub sat_calls: u64,
    /// Cross-query probes of the attached [`SharedComponentCache`] that
    /// found a reusable sub-circuit from an earlier compilation.
    pub shared_hits: u64,
    /// Total cross-query shared-cache probes (only made on local-cache
    /// misses, and only when a shared cache is attached).
    pub shared_lookups: u64,
}

impl CompileStats {
    /// Fraction of component-cache probes answered from the cache
    /// (`0.0` when no probe was made).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }

    /// Fraction of cross-query shared-cache probes answered from the cache
    /// (`0.0` when no shared cache was attached or no probe was made).
    pub fn shared_hit_rate(&self) -> f64 {
        if self.shared_lookups == 0 {
            0.0
        } else {
            self.shared_hits as f64 / self.shared_lookups as f64
        }
    }
}

/// A compiled d-DNNF circuit together with its projection set.
#[derive(Debug, Clone)]
pub struct Ddnnf {
    nodes: Vec<Node>,
    /// Projection variables mentioned by node `i` (bit `k` = `proj_vars[k]`).
    masks: Vec<u128>,
    root: NodeId,
    /// Nodes reachable from the root in topological order (children precede
    /// parents) — the evaluation schedule of the iterative count sweep.
    order: Vec<u32>,
    /// Maps a [`NodeId`] to its position in `order` (`u32::MAX` when the
    /// node is unreachable from the root).
    dense: Vec<u32>,
    /// Sorted projection variables; bit positions in masks index this list.
    proj_vars: Vec<u32>,
    /// Map from variable id to bit position.
    var_bit: HashMap<u32, u32>,
    stats: CompileStats,
}

/// Saturating `2^exp`.
fn pow2(exp: u32) -> u128 {
    if exp >= 128 {
        u128::MAX
    } else {
        1u128 << exp
    }
}

/// Count cell of the batched sweep: `u64` when the projection is narrow
/// enough that no count — every count is at most `2^|projection|`, and
/// decomposability keeps every intermediate product under the same bound —
/// can overflow, `u128` otherwise. The narrow cells halve the scratch
/// traffic and replace two-word arithmetic with single instructions on the
/// sweep's inner loop.
trait CountCell: Copy {
    const ZERO: Self;
    const ONE: Self;
    fn is_zero(self) -> bool;
    fn sat_mul(self, other: Self) -> Self;
    fn sat_add(self, other: Self) -> Self;
    fn pow2(exp: u32) -> Self;
    fn widen(self) -> u128;
}

impl CountCell for u64 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    fn is_zero(self) -> bool {
        self == 0
    }
    fn sat_mul(self, other: Self) -> Self {
        self.saturating_mul(other)
    }
    fn sat_add(self, other: Self) -> Self {
        self.saturating_add(other)
    }
    fn pow2(exp: u32) -> Self {
        if exp >= 64 {
            u64::MAX
        } else {
            1u64 << exp
        }
    }
    fn widen(self) -> u128 {
        u128::from(self)
    }
}

impl CountCell for u128 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    fn is_zero(self) -> bool {
        self == 0
    }
    fn sat_mul(self, other: Self) -> Self {
        self.saturating_mul(other)
    }
    fn sat_add(self, other: Self) -> Self {
        self.saturating_add(other)
    }
    fn pow2(exp: u32) -> Self {
        pow2(exp)
    }
    fn widen(self) -> u128 {
        self
    }
}

impl Ddnnf {
    /// Number of nodes in the circuit (including the constants).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The nodes of the circuit in topological order (children precede
    /// parents); the last retains no special role — see [`root`](Self::root).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The projection variables of the compiled formula, sorted.
    pub fn projection(&self) -> Vec<Var> {
        self.proj_vars.iter().map(|&v| Var(v)).collect()
    }

    /// Statistics of the compilation that produced this circuit.
    pub fn stats(&self) -> CompileStats {
        self.stats
    }

    /// The number of models projected onto the projection set.
    pub fn count(&self) -> u128 {
        self.count_conditioned(&[])
    }

    /// The number of projected models consistent with `cube` — i.e. the
    /// projected count of `φ ∧ cube` — in one linear pass over the circuit,
    /// without re-running any search.
    ///
    /// Every literal of `cube` must be over a projection variable.
    /// A self-contradictory cube yields 0.
    ///
    /// # Panics
    ///
    /// Panics if a cube literal mentions a non-projection variable.
    pub fn count_conditioned(&self, cube: &[Lit]) -> u128 {
        self.count_cubes(&[cube])[0]
    }

    /// The conditioned counts of **all** `cubes` in iterative topological
    /// sweeps over the circuit: `result[i]` equals
    /// `count_conditioned(&cubes[i])`, but the circuit is traversed once
    /// per chunk of up to 64 cubes — every node evaluates the whole chunk
    /// before the sweep moves on — over one scratch buffer shared by the
    /// chunk. Chunking bounds the scratch at `64 × |circuit|` counts no
    /// matter how wide the batch: a region list of any width against a
    /// large circuit costs `⌈k / 64⌉` linear passes, never a
    /// `k × |circuit|` allocation.
    ///
    /// This is the query the compiled AccMC/DiffMC region-sum plans issue:
    /// one call per (model, φ-side) with the model's full decision-region
    /// cube list, instead of one circuit walk (and one memo allocation) per
    /// region.
    ///
    /// # Panics
    ///
    /// Panics if a cube literal mentions a non-projection variable.
    pub fn count_cubes<C: AsRef<[Lit]>>(&self, cubes: &[C]) -> Vec<u128> {
        // Narrow projections cannot overflow a u64 count (≤ 2^|projection|,
        // and decomposability bounds every intermediate the same way), so
        // the sweep runs on single-word cells whenever it can.
        if self.proj_vars.len() < 64 {
            self.count_cubes_with::<u64, C>(cubes)
        } else {
            self.count_cubes_with::<u128, C>(cubes)
        }
    }

    fn count_cubes_with<T: CountCell, C: AsRef<[Lit]>>(&self, cubes: &[C]) -> Vec<u128> {
        const SWEEP_CHUNK: usize = 64;
        let mut counts = Vec::with_capacity(cubes.len());
        // One scratch buffer for the whole batch, reused across chunks.
        let mut scratch: Vec<T> = Vec::new();
        for chunk in cubes.chunks(SWEEP_CHUNK) {
            let parsed: Vec<Option<(u128, u128)>> =
                chunk.iter().map(|c| self.cube_masks(c.as_ref())).collect();
            counts.extend(self.sweep(&parsed, &mut scratch));
        }
        counts
    }

    /// Structural conditioning: returns the circuit of `φ ∧ cube` with the
    /// cube variables removed from the projection set (so
    /// `condition(c).count() == count_conditioned(c)` — the former counts
    /// over fewer variables, but the cube variables it drops are fixed and
    /// contribute a factor of 1).
    ///
    /// # Panics
    ///
    /// Panics if a cube literal mentions a non-projection variable.
    pub fn condition(&self, cube: &[Lit]) -> Ddnnf {
        let parsed = self.cube_masks(cube);
        let contradictory = parsed.is_none();
        let (fixed, values) = parsed.unwrap_or_else(|| {
            // Contradictory cube: still drop every mentioned variable from
            // the projection of the (False) result circuit.
            let mut fixed = 0u128;
            for &lit in cube {
                fixed |= 1u128 << self.var_bit[&lit.var().0];
            }
            (fixed, 0)
        });
        let remaining: Vec<u32> = self
            .proj_vars
            .iter()
            .copied()
            .filter(|v| fixed & (1u128 << self.var_bit[v]) == 0)
            .collect();
        let mut builder = Builder::new(remaining);
        if contradictory {
            let root = builder.false_node();
            return builder.finish(root, self.stats);
        }
        // Children precede parents, so one forward pass remaps every node.
        let mut remap: Vec<NodeId> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let mapped = match node {
                Node::True => builder.true_node(),
                Node::False => builder.false_node(),
                Node::Lit(l) => {
                    let bit = 1u128 << self.var_bit[&l.var().0];
                    if fixed & bit == 0 {
                        builder.lit_node(*l)
                    } else if (values & bit != 0) == l.is_positive() {
                        builder.true_node()
                    } else {
                        builder.false_node()
                    }
                }
                Node::And(children) => {
                    let mapped: Vec<NodeId> = children.iter().map(|&c| remap[c]).collect();
                    builder.and_node(mapped)
                }
                Node::Decision { var, hi, lo } => {
                    let bit = 1u128 << self.var_bit[var];
                    if fixed & bit != 0 {
                        if values & bit != 0 {
                            remap[*hi]
                        } else {
                            remap[*lo]
                        }
                    } else {
                        builder.decision_node(*var, remap[*hi], remap[*lo])
                    }
                }
            };
            remap.push(mapped);
        }
        let root = remap[self.root];
        builder.finish(root, self.stats)
    }

    /// Enumerates every projected model as a full assignment of the
    /// projection variables, sorted by variable. Intended for tests and
    /// small circuits — the output is exponential in the gap sizes.
    pub fn models(&self) -> Vec<Vec<(Var, bool)>> {
        let full = self.full_mask();
        let mut out = Vec::new();
        for (mask, values) in self.partial_models(self.root) {
            let mut expanded = Vec::new();
            expand_bits(full & !mask, values, &mut expanded);
            out.extend(expanded.into_iter().map(|v| self.unpack(full, v)));
        }
        out.sort();
        out
    }

    fn full_mask(&self) -> u128 {
        (1u128 << self.proj_vars.len()) - 1
    }

    /// Validates the cube and returns `(fixed, values)` bitmasks, or `None`
    /// if the cube contradicts itself.
    fn cube_masks(&self, cube: &[Lit]) -> Option<(u128, u128)> {
        let mut fixed = 0u128;
        let mut values = 0u128;
        for &lit in cube {
            let bit_index = *self
                .var_bit
                .get(&lit.var().0)
                .unwrap_or_else(|| panic!("cube literal {lit} is not a projection variable"));
            let bit = 1u128 << bit_index;
            if fixed & bit != 0 {
                if (values & bit != 0) != lit.is_positive() {
                    return None;
                }
                continue;
            }
            fixed |= bit;
            if lit.is_positive() {
                values |= bit;
            }
        }
        Some((fixed, values))
    }

    /// The batched evaluation core: one forward pass over the reachable
    /// nodes in topological order, computing the count of every cube at
    /// every node before moving on. No recursion, no per-query memo —
    /// one flat scratch buffer sized `reachable nodes × cubes`, owned by
    /// the caller so chunked batches reuse its allocation.
    ///
    /// `parsed[j]` is the `(fixed, values)` mask pair of cube `j`, or
    /// `None` for a self-contradictory cube (whose count is 0).
    fn sweep<T: CountCell>(
        &self,
        parsed: &[Option<(u128, u128)>],
        scratch: &mut Vec<T>,
    ) -> Vec<u128> {
        let k = parsed.len();
        if k == 0 {
            return Vec::new();
        }
        scratch.clear();
        scratch.resize(self.order.len() * k, T::ZERO);
        for (oi, &id) in self.order.iter().enumerate() {
            let base = oi * k;
            match &self.nodes[id as usize] {
                Node::False => {}
                Node::True => {
                    for slot in &mut scratch[base..base + k] {
                        *slot = T::ONE;
                    }
                }
                Node::Lit(l) => {
                    let bit = 1u128 << self.var_bit[&l.var().0];
                    for (j, p) in parsed.iter().enumerate() {
                        let Some((fixed, values)) = *p else { continue };
                        scratch[base + j] =
                            if fixed & bit != 0 && (values & bit != 0) != l.is_positive() {
                                T::ZERO
                            } else {
                                T::ONE
                            };
                    }
                }
                Node::And(children) => {
                    for j in 0..k {
                        if parsed[j].is_none() {
                            continue;
                        }
                        let mut total = T::ONE;
                        for &c in children {
                            let n = scratch[self.dense[c] as usize * k + j];
                            if n.is_zero() {
                                total = T::ZERO;
                                break;
                            }
                            total = total.sat_mul(n);
                        }
                        scratch[base + j] = total;
                    }
                }
                Node::Decision { var, hi, lo } => {
                    let bit = 1u128 << self.var_bit[var];
                    let scope = self.masks[id as usize] & !bit;
                    for (j, p) in parsed.iter().enumerate() {
                        let Some((fixed, values)) = *p else { continue };
                        let mut total = T::ZERO;
                        for (branch, wanted) in [(*hi, true), (*lo, false)] {
                            if fixed & bit != 0 && (values & bit != 0) != wanted {
                                continue;
                            }
                            let branch_count = scratch[self.dense[branch] as usize * k + j];
                            let gap = scope & !self.masks[branch] & !fixed;
                            total = total.sat_add(branch_count.sat_mul(T::pow2(gap.count_ones())));
                        }
                        scratch[base + j] = total;
                    }
                }
            }
        }
        let root_base = self.dense[self.root] as usize * k;
        let root_gap = self.full_mask() & !self.masks[self.root];
        parsed
            .iter()
            .enumerate()
            .map(|(j, p)| match *p {
                None => 0,
                Some((fixed, _)) => scratch[root_base + j]
                    .sat_mul(T::pow2((root_gap & !fixed).count_ones()))
                    .widen(),
            })
            .collect()
    }

    /// Partial models of the subcircuit at `node`, as `(mask, values)`
    /// bitmask pairs over the projection set.
    fn partial_models(&self, node: NodeId) -> Vec<(u128, u128)> {
        match &self.nodes[node] {
            Node::True => vec![(0, 0)],
            Node::False => Vec::new(),
            Node::Lit(l) => {
                let bit = 1u128 << self.var_bit[&l.var().0];
                vec![(bit, if l.is_positive() { bit } else { 0 })]
            }
            Node::And(children) => {
                let mut acc = vec![(0u128, 0u128)];
                for &c in children {
                    let child = self.partial_models(c);
                    let mut next = Vec::with_capacity(acc.len() * child.len());
                    for &(am, av) in &acc {
                        for &(cm, cv) in &child {
                            next.push((am | cm, av | cv));
                        }
                    }
                    acc = next;
                }
                acc
            }
            Node::Decision { var, hi, lo } => {
                let bit = 1u128 << self.var_bit[var];
                let scope = self.masks[node];
                let mut out = Vec::new();
                for (branch, value) in [(*hi, bit), (*lo, 0)] {
                    for (m, v) in self.partial_models(branch) {
                        // Smooth inside the decision scope so every partial
                        // from this node covers the same variable set.
                        let mut expanded = Vec::new();
                        expand_bits(scope & !bit & !m, v | value, &mut expanded);
                        out.extend(expanded.into_iter().map(|v| (scope, v)));
                    }
                }
                out
            }
        }
    }

    /// Renders the variables selected by `mask` with their `values` bits.
    fn unpack(&self, mask: u128, values: u128) -> Vec<(Var, bool)> {
        self.proj_vars
            .iter()
            .enumerate()
            .filter(|&(k, _)| mask & (1u128 << k) != 0)
            .map(|(k, &v)| (Var(v), values & (1u128 << k) != 0))
            .collect()
    }
}

/// Why a circuit byte image was rejected by [`Ddnnf::from_bytes`].
///
/// The message names the structural invariant that failed (bad magic,
/// out-of-range child id, non-projection literal, …); callers that persist
/// circuits typically map this to [`std::io::ErrorKind::InvalidData`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed d-DNNF image: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Magic prefix of a serialized circuit image (`"ddn1"`), bumped when the
/// byte layout changes so a stale image fails loudly instead of decoding
/// into garbage.
const IMAGE_MAGIC: [u8; 4] = *b"ddn1";

/// Node tags of the serialized image.
const TAG_FALSE: u8 = 0;
const TAG_TRUE: u8 = 1;
const TAG_LIT: u8 = 2;
const TAG_AND: u8 = 3;
const TAG_DECISION: u8 = 4;

/// Little-endian cursor over a circuit byte image.
struct ImageReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ImageReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| DecodeError(format!("truncated at byte {}", self.pos)))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

impl Ddnnf {
    /// Serializes the circuit into a self-contained little-endian byte
    /// image: projection set, compile statistics, root and the node list
    /// (children by id). Variable masks and the evaluation schedule are
    /// *not* stored — [`from_bytes`](Self::from_bytes) recomputes them, so
    /// the image stays compact and the derived structures can never
    /// disagree with the nodes they were derived from. The cross-query
    /// shared-cache counters are not stored either: they describe the batch
    /// the circuit was compiled in, not the circuit, and keeping them out
    /// leaves the `ddn1` layout unchanged.
    pub fn to_bytes(&self) -> Vec<u8> {
        assert!(
            self.nodes.len() <= u32::MAX as usize,
            "circuit too large for the u32 node-id image format"
        );
        let mut out = Vec::with_capacity(32 + self.nodes.len() * 8);
        out.extend_from_slice(&IMAGE_MAGIC);
        out.extend_from_slice(&(self.proj_vars.len() as u32).to_le_bytes());
        for &v in &self.proj_vars {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for s in [
            self.stats.decisions,
            self.stats.cache_hits,
            self.stats.cache_lookups,
            self.stats.conflicts,
            self.stats.sat_calls,
        ] {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out.extend_from_slice(&(self.root as u32).to_le_bytes());
        out.extend_from_slice(&(self.nodes.len() as u32).to_le_bytes());
        for node in &self.nodes {
            match node {
                Node::False => out.push(TAG_FALSE),
                Node::True => out.push(TAG_TRUE),
                Node::Lit(l) => {
                    out.push(TAG_LIT);
                    out.extend_from_slice(&(l.code() as u32).to_le_bytes());
                }
                Node::And(children) => {
                    out.push(TAG_AND);
                    out.extend_from_slice(&(children.len() as u32).to_le_bytes());
                    for &c in children {
                        out.extend_from_slice(&(c as u32).to_le_bytes());
                    }
                }
                Node::Decision { var, hi, lo } => {
                    out.push(TAG_DECISION);
                    out.extend_from_slice(&var.to_le_bytes());
                    out.extend_from_slice(&(*hi as u32).to_le_bytes());
                    out.extend_from_slice(&(*lo as u32).to_le_bytes());
                }
            }
        }
        out
    }

    /// Reconstructs a circuit from a [`to_bytes`](Self::to_bytes) image,
    /// revalidating every structural invariant the counting sweeps rely on:
    /// the projection set is sorted and within [`MAX_PROJECTION_VARS`], every child id points *below* its parent (so the node list is
    /// acyclic and topologically ordered), and every literal or decision
    /// variable belongs to the projection set. Masks, the evaluation
    /// schedule and the variable-bit map are recomputed from the validated
    /// nodes. Any violation — including trailing garbage — is a
    /// [`DecodeError`], never a panic or a silently wrong circuit shape.
    pub fn from_bytes(bytes: &[u8]) -> Result<Ddnnf, DecodeError> {
        let mut r = ImageReader { bytes, pos: 0 };
        if r.take(4)? != IMAGE_MAGIC {
            return Err(DecodeError("bad magic".to_string()));
        }
        let proj_len = r.u32()? as usize;
        if proj_len > MAX_PROJECTION_VARS {
            return Err(DecodeError(format!(
                "projection set of {proj_len} variables exceeds the \
                 {MAX_PROJECTION_VARS}-variable limit"
            )));
        }
        let mut proj_vars = Vec::with_capacity(proj_len);
        for _ in 0..proj_len {
            proj_vars.push(r.u32()?);
        }
        if !proj_vars.windows(2).all(|w| w[0] < w[1]) {
            return Err(DecodeError(
                "projection variables must be strictly ascending".to_string(),
            ));
        }
        let var_bit: HashMap<u32, u32> = proj_vars
            .iter()
            .enumerate()
            .map(|(k, &v)| (v, k as u32))
            .collect();
        let stats = CompileStats {
            decisions: r.u64()?,
            cache_hits: r.u64()?,
            cache_lookups: r.u64()?,
            conflicts: r.u64()?,
            sat_calls: r.u64()?,
            ..CompileStats::default()
        };
        let root = r.u32()? as NodeId;
        let num_nodes = r.u32()? as usize;
        let mut nodes = Vec::with_capacity(num_nodes.min(1 << 20));
        let mut masks = Vec::with_capacity(num_nodes.min(1 << 20));
        for id in 0..num_nodes {
            let child = |c: u32| -> Result<NodeId, DecodeError> {
                if (c as usize) < id {
                    Ok(c as NodeId)
                } else {
                    Err(DecodeError(format!(
                        "node {id} references child {c} at or above itself"
                    )))
                }
            };
            let proj_bit = |v: u32| -> Result<u128, DecodeError> {
                var_bit
                    .get(&v)
                    .map(|&bit| 1u128 << bit)
                    .ok_or_else(|| DecodeError(format!("variable {v} is not in the projection")))
            };
            let (node, mask) = match r.u8()? {
                TAG_FALSE => (Node::False, 0),
                TAG_TRUE => (Node::True, 0),
                TAG_LIT => {
                    let lit = Lit::from_code(r.u32()? as usize);
                    let mask = proj_bit(lit.var().0)?;
                    (Node::Lit(lit), mask)
                }
                TAG_AND => {
                    let len = r.u32()? as usize;
                    let mut children = Vec::with_capacity(len.min(1 << 20));
                    let mut mask = 0u128;
                    for _ in 0..len {
                        let c = child(r.u32()?)?;
                        mask |= masks[c];
                        children.push(c);
                    }
                    (Node::And(children), mask)
                }
                TAG_DECISION => {
                    let var = r.u32()?;
                    let hi = child(r.u32()?)?;
                    let lo = child(r.u32()?)?;
                    let mask = proj_bit(var)? | masks[hi] | masks[lo];
                    (Node::Decision { var, hi, lo }, mask)
                }
                tag => return Err(DecodeError(format!("node {id} has unknown tag {tag}"))),
            };
            nodes.push(node);
            masks.push(mask);
        }
        if r.pos != bytes.len() {
            return Err(DecodeError(format!(
                "{} trailing bytes after the node list",
                bytes.len() - r.pos
            )));
        }
        if root >= nodes.len() {
            return Err(DecodeError(format!(
                "root {root} out of range for {} nodes",
                nodes.len()
            )));
        }
        let (order, dense) = evaluation_schedule(&nodes, root);
        Ok(Ddnnf {
            nodes,
            masks,
            root,
            order,
            dense,
            proj_vars,
            var_bit,
            stats,
        })
    }
}

/// Expands every bit of `gap` both ways, pushing the completed value masks.
fn expand_bits(gap: u128, values: u128, out: &mut Vec<u128>) {
    if gap == 0 {
        out.push(values);
        return;
    }
    let bit = 1u128 << gap.trailing_zeros();
    expand_bits(gap & !bit, values, out);
    expand_bits(gap & !bit, values | bit, out);
}

/// Hash-consing circuit builder shared by the compiler and
/// [`Ddnnf::condition`].
struct Builder {
    nodes: Vec<Node>,
    masks: Vec<u128>,
    unique: FxHashMap<Node, NodeId>,
    proj_vars: Vec<u32>,
    var_bit: HashMap<u32, u32>,
}

impl Builder {
    fn new(mut proj_vars: Vec<u32>) -> Self {
        proj_vars.sort_unstable();
        proj_vars.dedup();
        let var_bit: HashMap<u32, u32> = proj_vars
            .iter()
            .enumerate()
            .map(|(k, &v)| (v, k as u32))
            .collect();
        let mut b = Builder {
            nodes: Vec::new(),
            masks: Vec::new(),
            unique: FxHashMap::default(),
            proj_vars,
            var_bit,
        };
        // Interned constants at fixed slots.
        b.intern(Node::False, 0);
        b.intern(Node::True, 0);
        b
    }

    fn intern(&mut self, node: Node, mask: u128) -> NodeId {
        if let Some(&id) = self.unique.get(&node) {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(node.clone());
        self.masks.push(mask);
        self.unique.insert(node, id);
        id
    }

    fn false_node(&mut self) -> NodeId {
        0
    }

    fn true_node(&mut self) -> NodeId {
        1
    }

    fn lit_node(&mut self, lit: Lit) -> NodeId {
        let bit = 1u128 << self.var_bit[&lit.var().0];
        self.intern(Node::Lit(lit), bit)
    }

    /// Conjunction with constant folding and flattening of single children.
    fn and_node(&mut self, children: Vec<NodeId>) -> NodeId {
        let mut flat: Vec<NodeId> = Vec::with_capacity(children.len());
        for c in children {
            match self.nodes[c] {
                Node::False => return self.false_node(),
                Node::True => continue,
                _ => flat.push(c),
            }
        }
        match flat.len() {
            0 => self.true_node(),
            1 => flat[0],
            _ => {
                flat.sort_unstable();
                flat.dedup();
                if flat.len() == 1 {
                    return flat[0];
                }
                let mask = flat.iter().fold(0u128, |m, &c| {
                    debug_assert_eq!(m & self.masks[c], 0, "And children must be disjoint");
                    m | self.masks[c]
                });
                self.intern(Node::And(flat), mask)
            }
        }
    }

    /// Decision node with the standard BDD-style reductions.
    fn decision_node(&mut self, var: u32, hi: NodeId, lo: NodeId) -> NodeId {
        if hi == lo {
            // (v ∧ A) ∨ (¬v ∧ A) = A; v moves into the enclosing gap.
            return hi;
        }
        if self.nodes[hi] == Node::True && self.nodes[lo] == Node::False {
            return self.lit_node(Lit::pos(var));
        }
        if self.nodes[hi] == Node::False && self.nodes[lo] == Node::True {
            return self.lit_node(Lit::neg(var));
        }
        let mask = (1u128 << self.var_bit[&var]) | self.masks[hi] | self.masks[lo];
        self.intern(Node::Decision { var, hi, lo }, mask)
    }

    fn finish(self, root: NodeId, stats: CompileStats) -> Ddnnf {
        let (order, dense) = evaluation_schedule(&self.nodes, root);
        Ddnnf {
            nodes: self.nodes,
            masks: self.masks,
            root,
            order,
            dense,
            proj_vars: self.proj_vars,
            var_bit: self.var_bit,
            stats,
        }
    }
}

/// Marks the nodes reachable from the root and derives the evaluation
/// schedule. Children always carry smaller ids than their parents (the
/// builder interns bottom-up, and the deserializer verifies it), so a
/// single high-to-low pass settles reachability, and the ascending id
/// order of the marked nodes is a topological evaluation schedule.
fn evaluation_schedule(nodes: &[Node], root: NodeId) -> (Vec<u32>, Vec<u32>) {
    let mut reachable = vec![false; nodes.len()];
    reachable[root] = true;
    for id in (0..nodes.len()).rev() {
        if !reachable[id] {
            continue;
        }
        match &nodes[id] {
            Node::And(children) => {
                for &c in children {
                    reachable[c] = true;
                }
            }
            Node::Decision { hi, lo, .. } => {
                reachable[*hi] = true;
                reachable[*lo] = true;
            }
            _ => {}
        }
    }
    let mut order = Vec::new();
    let mut dense = vec![u32::MAX; nodes.len()];
    for (id, &r) in reachable.iter().enumerate() {
        if r {
            dense[id] = order.len() as u32;
            order.push(id as u32);
        }
    }
    (order, dense)
}

/// The d-DNNF compiler: a projected #SAT search that records its trace.
#[derive(Debug, Clone)]
pub struct Compiler {
    max_decisions: u64,
    shared: Option<Arc<SharedComponentCache>>,
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler::new()
    }
}

impl Compiler {
    /// A compiler with no decision budget.
    pub fn new() -> Self {
        Compiler {
            max_decisions: u64::MAX,
            shared: None,
        }
    }

    /// A compiler that aborts after `max_decisions` branching decisions,
    /// failing with [`CompileError::BudgetExhausted`] (the analogue of a
    /// counting time-out).
    pub fn with_decision_budget(max_decisions: u64) -> Self {
        Compiler {
            max_decisions,
            shared: None,
        }
    }

    /// Attaches a cross-query [`SharedComponentCache`]: local component
    /// misses probe (and, when freshly compiled, feed) the shared cache, so
    /// later compilations over the same variable numbering — φ then φ∧ψ,
    /// or the label CNFs of a batch — splice in this run's sub-circuits
    /// instead of re-searching them.
    pub fn with_shared_cache(mut self, cache: Arc<SharedComponentCache>) -> Self {
        self.shared = Some(cache);
        self
    }

    /// Compiles `cnf` into a d-DNNF circuit whose counts are projected onto
    /// the formula's effective projection set.
    pub fn compile(&self, cnf: &Cnf) -> Result<Ddnnf, CompileError> {
        let projection: Vec<u32> = cnf.effective_projection().iter().map(|v| v.0).collect();
        if projection.len() > MAX_PROJECTION_VARS {
            return Err(CompileError::TooManyProjectionVars {
                found: projection.len(),
            });
        }
        let mut builder = Builder::new(projection);

        // Intern the normalized clauses into the flat arena.
        let mut pool: Vec<Lit> = Vec::with_capacity(cnf.num_literals());
        let mut starts: Vec<u32> = vec![0];
        let mut contradiction = false;
        for c in cnf.clauses() {
            match c.normalized() {
                None => continue,
                Some(n) => {
                    if n.is_empty() {
                        contradiction = true;
                        break;
                    }
                    pool.extend_from_slice(n.lits());
                    starts.push(pool.len() as u32);
                }
            }
        }
        if contradiction {
            let root = builder.false_node();
            return Ok(builder.finish(root, CompileStats::default()));
        }

        let num_vars = cnf.num_vars();
        let num_clauses = starts.len() - 1;
        let mut occ: Vec<Vec<ClauseId>> = vec![Vec::new(); 2 * num_vars];
        let mut free_count: Vec<u32> = Vec::with_capacity(num_clauses);
        let mut activity: Vec<f64> = vec![0.0; num_vars];
        for c in 0..num_clauses {
            let lits = &pool[starts[c] as usize..starts[c + 1] as usize];
            free_count.push(lits.len() as u32);
            for &l in lits {
                occ[l.code()].push(c as ClauseId);
                // Seed activities from occurrence counts, so the very first
                // branchings reproduce the classic most-occurrences pick.
                activity[l.var().index()] += 1.0;
            }
        }
        let mut is_proj = vec![false; num_vars];
        for &v in &builder.proj_vars {
            if (v as usize) < num_vars {
                is_proj[v as usize] = true;
            }
        }

        let mut search = Search {
            pool,
            starts,
            occ,
            is_proj,
            value: vec![UNASSIGNED; num_vars],
            free_count,
            satisfier: vec![NO_SATISFIER; num_clauses],
            trail: Vec::with_capacity(num_vars),
            activity,
            var_inc: 1.0,
            clause_stamp: vec![0; num_clauses],
            var_stamp: vec![0; num_vars],
            stamp: 0,
            cache: FxHashMap::default(),
            shared: self.shared.clone(),
            depth: 0,
            stats: CompileStats::default(),
            max_decisions: self.max_decisions,
            exhausted: false,
        };
        let all_clauses: Vec<ClauseId> = (0..num_clauses as ClauseId).collect();
        let initial_units: Vec<ClauseId> = all_clauses
            .iter()
            .copied()
            .filter(|&c| search.free_count[c as usize] == 1)
            .collect();
        let root = search.compile_subproblem(&all_clauses, initial_units, None, &mut builder);
        if search.exhausted {
            return Err(CompileError::BudgetExhausted {
                decisions: search.stats.decisions,
            });
        }
        Ok(builder.finish(root, search.stats))
    }
}

const UNASSIGNED: u8 = 2;
const NO_SATISFIER: u32 = u32::MAX;

/// Cache key of one interned component: the sorted arena clause ids plus
/// the sorted free variables, with a precomputed 64-bit signature. Hashing
/// writes only the signature (an O(1) probe); equality compares the full
/// key, so a signature collision can never corrupt a count.
struct CompKey {
    sig: u64,
    clauses: Box<[ClauseId]>,
    vars: Box<[u32]>,
}

impl CompKey {
    fn new(clauses: Vec<ClauseId>, vars: Vec<u32>) -> Self {
        let mut sig: u64 = 0x243F_6A88_85A3_08D3;
        for &c in &clauses {
            sig = splitmix64(sig ^ (u64::from(c) + 1));
        }
        sig = splitmix64(sig ^ 0x9E37_79B9_7F4A_7C15);
        for &v in &vars {
            sig = splitmix64(sig ^ (u64::from(v) + 1));
        }
        CompKey {
            sig,
            clauses: clauses.into_boxed_slice(),
            vars: vars.into_boxed_slice(),
        }
    }
}

impl Hash for CompKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.sig);
    }
}

impl PartialEq for CompKey {
    fn eq(&self, other: &Self) -> bool {
        self.sig == other.sig && self.clauses == other.clauses && self.vars == other.vars
    }
}

impl Eq for CompKey {}

/// One stage of splitmix64 — the signature mixer of [`CompKey`].
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Content-addressed key of a shared (cross-query) component: the canonical
/// length-prefixed encoding of its residual clauses (per-clause literal
/// codes sorted, clause list sorted and deduplicated) plus the sorted
/// projection members of its free variables, with a precomputed 64-bit
/// signature. Unlike [`CompKey`], which names clauses by per-run arena ids,
/// this key survives across compilation runs: equal keys mean equal
/// residual Boolean functions over equal variables with equal projection
/// membership, so any valid d-DNNF of one is a valid d-DNNF of the other.
struct PortableKey {
    sig: u64,
    data: Box<[u32]>,
    proj: Box<[u32]>,
}

impl PortableKey {
    fn new(data: Vec<u32>, proj: Vec<u32>) -> Self {
        let mut sig: u64 = 0x4528_21E6_38D0_1377;
        for &w in &data {
            sig = splitmix64(sig ^ (u64::from(w) + 1));
        }
        sig = splitmix64(sig ^ 0x9E37_79B9_7F4A_7C15);
        for &v in &proj {
            sig = splitmix64(sig ^ (u64::from(v) + 1));
        }
        PortableKey {
            sig,
            data: data.into_boxed_slice(),
            proj: proj.into_boxed_slice(),
        }
    }
}

impl Hash for PortableKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.sig);
    }
}

impl PartialEq for PortableKey {
    fn eq(&self, other: &Self) -> bool {
        self.sig == other.sig && self.data == other.data && self.proj == other.proj
    }
}

impl Eq for PortableKey {}

/// One node of a [`PortableCircuit`], referencing children by local index.
#[derive(Debug)]
enum PortableNode {
    False,
    True,
    Lit(Lit),
    And(Box<[u32]>),
    Decision { var: u32, hi: u32, lo: u32 },
}

/// A self-contained sub-circuit image stored by the shared cache: nodes in
/// children-before-parents order with local ids. Importable into any
/// [`Builder`] whose projection covers the circuit's variables — which a
/// [`PortableKey`] match guarantees, because the key records the projection
/// membership of every free variable.
#[derive(Debug)]
struct PortableCircuit {
    nodes: Vec<PortableNode>,
    root: u32,
}

/// Components larger than this are recompiled rather than copied through
/// the shared cache's lock: past a few thousand nodes the copy (and the
/// lock hold) costs more than the compile it would save.
const EXPORT_NODE_CAP: usize = 4096;

/// Components with fewer residual clauses than this skip the shared cache
/// entirely — no key, no probe, no export. The recursion bottoms out in a
/// stream of tiny components whose canonical keys cost more to build than
/// the one or two decisions a hit would save; sharing only pays for the
/// larger components where real compilation work is at stake.
const MIN_SHARED_CLAUSES: usize = 4;

/// Components discovered deeper than this many decisions skip the shared
/// cache. Cross-query reuse comes from whole sub-formulas — φ inside φ∧ψ,
/// the ground-truth clauses inside a label CNF — which component
/// decomposition isolates at or near the top of the search; the deep
/// residual components are query-specific, so keying and exporting each of
/// them taxes every cold compile for hits that never come.
const MAX_SHARED_DEPTH: usize = 1;

impl PortableCircuit {
    /// Extracts the reachable subgraph under `root` from `builder`, or
    /// `None` when it exceeds [`EXPORT_NODE_CAP`]. Traversal touches only
    /// the reachable nodes (with an early exit at the cap), so the cost
    /// scales with the exported component, not with the whole builder —
    /// components are exported once per local-cache miss, and a scan over
    /// every interned node each time would be quadratic across a run.
    fn export(builder: &Builder, root: NodeId) -> Option<PortableCircuit> {
        let mut ids: Vec<NodeId> = Vec::new();
        let mut seen: FxHashSet<NodeId> = FxHashSet::default();
        let mut stack = vec![root];
        seen.insert(root);
        while let Some(id) = stack.pop() {
            ids.push(id);
            if ids.len() > EXPORT_NODE_CAP {
                return None;
            }
            let mut visit = |c: NodeId, stack: &mut Vec<NodeId>| {
                if seen.insert(c) {
                    stack.push(c);
                }
            };
            match &builder.nodes[id] {
                Node::And(children) => {
                    for &c in children {
                        visit(c, &mut stack);
                    }
                }
                Node::Decision { hi, lo, .. } => {
                    visit(*hi, &mut stack);
                    visit(*lo, &mut stack);
                }
                _ => {}
            }
        }
        // The builder interns bottom-up (children carry smaller ids), so
        // ascending id order is already topological; children then map to
        // local indices by binary search over the sorted id list.
        ids.sort_unstable();
        let local = |ids: &[NodeId], c: NodeId| -> u32 {
            ids.binary_search(&c).expect("child was visited") as u32
        };
        let mut nodes = Vec::with_capacity(ids.len());
        for &id in &ids {
            nodes.push(match &builder.nodes[id] {
                Node::False => PortableNode::False,
                Node::True => PortableNode::True,
                Node::Lit(l) => PortableNode::Lit(*l),
                Node::And(children) => {
                    PortableNode::And(children.iter().map(|&c| local(&ids, c)).collect())
                }
                Node::Decision { var, hi, lo } => PortableNode::Decision {
                    var: *var,
                    hi: local(&ids, *hi),
                    lo: local(&ids, *lo),
                },
            });
        }
        Some(PortableCircuit {
            nodes,
            root: local(&ids, root),
        })
    }

    /// Splices the circuit into `builder`, returning the new id of the
    /// root. Hash-consing and the builder's reductions apply as usual, so
    /// an import never duplicates nodes the builder already holds.
    fn import(&self, builder: &mut Builder) -> NodeId {
        let mut map: Vec<NodeId> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let id = match node {
                PortableNode::False => builder.false_node(),
                PortableNode::True => builder.true_node(),
                PortableNode::Lit(l) => builder.lit_node(*l),
                PortableNode::And(children) => {
                    let mapped: Vec<NodeId> = children.iter().map(|&c| map[c as usize]).collect();
                    builder.and_node(mapped)
                }
                PortableNode::Decision { var, hi, lo } => {
                    builder.decision_node(*var, map[*hi as usize], map[*lo as usize])
                }
            };
            map.push(id);
        }
        map[self.root as usize]
    }
}

/// Entries beyond this are not inserted (existing keys still refresh), so a
/// pathological batch cannot grow the shared cache without bound.
const SHARED_CACHE_CAPACITY: usize = 1 << 16;

struct SharedEntry {
    circuit: Arc<PortableCircuit>,
    /// Generation of the last insert or hit — the eviction criterion of
    /// [`SharedComponentCache::advance_generation`].
    stamp: u64,
}

struct SharedInner {
    entries: FxHashMap<PortableKey, SharedEntry>,
    generation: u64,
}

/// A thread-safe, generation-stamped cache of compiled components shared
/// **across** compilation runs.
///
/// The per-run component cache keys components by arena [`ClauseId`]s,
/// which are meaningless outside the run that interned them; it dies with
/// its `Builder`. A `SharedComponentCache` instead keys component *content*
/// (the internal `PortableKey`: canonical residual clauses plus projection
/// membership) and stores self-contained sub-circuits, so φ,
/// φ∧ψ and the per-family label CNFs of one batch — which share most of
/// their connected components under a common variable numbering — reuse
/// each other's compilation work. Attach one with
/// [`Compiler::with_shared_cache`]; [`CompileStats::shared_hits`] /
/// [`CompileStats::shared_lookups`] surface the per-run cross-query hit
/// rate, and [`hits`](Self::hits) / [`lookups`](Self::lookups) the
/// cumulative one.
///
/// Entries are generation-stamped: a probe hit restamps the entry with the
/// current generation, and [`advance_generation`](Self::advance_generation)
/// drops every entry the generation that just ended never touched before
/// opening the next one. A long-lived owner (a batch counter, a query
/// server) calls it at batch boundaries to bound the cache to its live
/// working set.
pub struct SharedComponentCache {
    inner: Mutex<SharedInner>,
    hits: AtomicU64,
    lookups: AtomicU64,
}

impl Default for SharedComponentCache {
    fn default() -> Self {
        SharedComponentCache::new()
    }
}

impl std::fmt::Debug for SharedComponentCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (len, generation) = {
            let inner = self.inner.lock().expect("shared cache poisoned");
            (inner.entries.len(), inner.generation)
        };
        f.debug_struct("SharedComponentCache")
            .field("entries", &len)
            .field("generation", &generation)
            .field("hits", &self.hits())
            .field("lookups", &self.lookups())
            .finish()
    }
}

impl SharedComponentCache {
    /// An empty cache at generation 0.
    pub fn new() -> Self {
        SharedComponentCache {
            inner: Mutex::new(SharedInner {
                entries: FxHashMap::default(),
                generation: 0,
            }),
            hits: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
        }
    }

    /// Closes the current generation: drops every entry it never inserted
    /// or hit, then opens the next one. Call at batch boundaries to keep
    /// the cache bounded to the working set of the batch that just ran.
    pub fn advance_generation(&self) {
        let mut inner = self.inner.lock().expect("shared cache poisoned");
        let current = inner.generation;
        inner.entries.retain(|_, e| e.stamp == current);
        inner.generation += 1;
    }

    /// The current generation (starts at 0, bumped by
    /// [`advance_generation`](Self::advance_generation)).
    pub fn generation(&self) -> u64 {
        self.inner.lock().expect("shared cache poisoned").generation
    }

    /// Number of cached components.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("shared cache poisoned")
            .entries
            .len()
    }

    /// Whether the cache holds no component.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative cross-query probes answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative cross-query probes.
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    fn lookup(&self, key: &PortableKey) -> Option<Arc<PortableCircuit>> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().expect("shared cache poisoned");
        let generation = inner.generation;
        let entry = inner.entries.get_mut(key)?;
        entry.stamp = generation;
        let circuit = Arc::clone(&entry.circuit);
        drop(inner);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(circuit)
    }

    fn store(&self, key: PortableKey, circuit: PortableCircuit) {
        let mut inner = self.inner.lock().expect("shared cache poisoned");
        if inner.entries.len() >= SHARED_CACHE_CAPACITY && !inner.entries.contains_key(&key) {
            return;
        }
        let stamp = inner.generation;
        inner.entries.insert(
            key,
            SharedEntry {
                circuit: Arc::new(circuit),
                stamp,
            },
        );
    }
}

/// A connected component of the residual formula under the current
/// assignment: sorted active clause ids and sorted free variables.
struct Component {
    clauses: Vec<ClauseId>,
    vars: Vec<u32>,
}

/// The compiler's search state: clause arena, occurrence lists, the
/// counter-based assignment trail, VSIDS-style activities and the
/// signature-keyed component cache.
struct Search {
    /// Flat literal arena; clause `c` is `pool[starts[c]..starts[c+1]]`.
    pool: Vec<Lit>,
    starts: Vec<u32>,
    /// `occ[lit.code()]` lists the clauses containing `lit`.
    occ: Vec<Vec<ClauseId>>,
    is_proj: Vec<bool>,
    /// Per-variable assignment (false / true / [`UNASSIGNED`]).
    value: Vec<u8>,
    /// Per-clause count of unassigned literals.
    free_count: Vec<u32>,
    /// Per-clause first satisfying variable ([`NO_SATISFIER`] = active).
    satisfier: Vec<u32>,
    trail: Vec<Lit>,
    activity: Vec<f64>,
    var_inc: f64,
    /// Generation stamps of the component walk (no per-split allocation).
    clause_stamp: Vec<u32>,
    var_stamp: Vec<u32>,
    stamp: u32,
    cache: FxHashMap<CompKey, NodeId>,
    /// The cross-query cache, when the [`Compiler`] attached one.
    shared: Option<Arc<SharedComponentCache>>,
    /// Decisions on the current search path — the shared cache only admits
    /// components found within [`MAX_SHARED_DEPTH`] of the top.
    depth: usize,
    stats: CompileStats,
    max_decisions: u64,
    exhausted: bool,
}

impl Search {
    fn clause_range(&self, c: ClauseId) -> (usize, usize) {
        (
            self.starts[c as usize] as usize,
            self.starts[c as usize + 1] as usize,
        )
    }

    /// Asserts `lit`: marks newly satisfied clauses, decrements free
    /// counters on the falsified side, queues clauses that became unit and
    /// reports the first clause falsified outright. Counters stay
    /// consistent even on conflict, so [`undo_to`](Self::undo_to) always
    /// restores the prior state exactly.
    fn assign(&mut self, lit: Lit, pending: &mut Vec<ClauseId>) -> Result<(), ClauseId> {
        let v = lit.var().index();
        debug_assert_eq!(self.value[v], UNASSIGNED);
        self.value[v] = u8::from(lit.is_positive());
        self.trail.push(lit);
        let code = lit.code();
        for i in 0..self.occ[code].len() {
            let c = self.occ[code][i] as usize;
            if self.satisfier[c] == NO_SATISFIER {
                self.satisfier[c] = v as u32;
            }
        }
        let ncode = (!lit).code();
        let mut conflict = None;
        for i in 0..self.occ[ncode].len() {
            let c = self.occ[ncode][i];
            let cu = c as usize;
            self.free_count[cu] -= 1;
            if self.satisfier[cu] == NO_SATISFIER {
                match self.free_count[cu] {
                    0 if conflict.is_none() => conflict = Some(c),
                    1 => pending.push(c),
                    _ => {}
                }
            }
        }
        match conflict {
            Some(c) => Err(c),
            None => Ok(()),
        }
    }

    /// Exhaustive unit propagation from the queued unit clauses.
    fn propagate(&mut self, mut pending: Vec<ClauseId>) -> Result<(), ClauseId> {
        let mut i = 0;
        while i < pending.len() {
            let c = pending[i];
            i += 1;
            let cu = c as usize;
            if self.satisfier[cu] != NO_SATISFIER || self.free_count[cu] != 1 {
                continue;
            }
            let (s, e) = self.clause_range(c);
            let lit = self.pool[s..e]
                .iter()
                .copied()
                .find(|&l| self.value[l.var().index()] == UNASSIGNED)
                .expect("a unit clause has exactly one unassigned literal");
            self.assign(lit, &mut pending)?;
        }
        Ok(())
    }

    /// Unwinds the trail to `mark`, restoring satisfier marks and free
    /// counters (reverse order guarantees first-satisfier bookkeeping).
    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let lit = self.trail.pop().expect("trail is longer than mark");
            let v = lit.var().index();
            self.value[v] = UNASSIGNED;
            let code = lit.code();
            for i in 0..self.occ[code].len() {
                let c = self.occ[code][i] as usize;
                if self.satisfier[c] == v as u32 {
                    self.satisfier[c] = NO_SATISFIER;
                }
            }
            let ncode = (!lit).code();
            for i in 0..self.occ[ncode].len() {
                let c = self.occ[ncode][i] as usize;
                self.free_count[c] += 1;
            }
        }
    }

    /// Bumps a variable's activity, rescaling on overflow.
    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    /// Records a conflict: bump every variable of the falsified clause.
    fn on_conflict(&mut self, c: ClauseId) {
        self.stats.conflicts += 1;
        let (s, e) = self.clause_range(c);
        for i in s..e {
            let v = self.pool[i].var().index();
            self.bump(v);
        }
    }

    /// Per-decision activity decay (implemented as inverse increment
    /// growth, MiniSat-style).
    fn decay(&mut self) {
        self.var_inc *= 1.0 / 0.95;
    }

    /// Splits the active clauses of the current subproblem into connected
    /// components of the free-variable interaction graph, walking the
    /// occurrence lists under generation stamps (no per-split hash maps).
    fn split_components(&mut self, clauses: &[ClauseId]) -> Vec<Component> {
        if self.stamp == u32::MAX {
            self.clause_stamp.fill(0);
            self.var_stamp.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let mut comps: Vec<Component> = Vec::new();
        let mut queue: Vec<ClauseId> = Vec::new();
        for &seed in clauses {
            if self.satisfier[seed as usize] != NO_SATISFIER
                || self.clause_stamp[seed as usize] == stamp
            {
                continue;
            }
            self.clause_stamp[seed as usize] = stamp;
            queue.clear();
            queue.push(seed);
            let mut comp_clauses: Vec<ClauseId> = Vec::new();
            let mut comp_vars: Vec<u32> = Vec::new();
            while let Some(c) = queue.pop() {
                comp_clauses.push(c);
                let (s, e) = self.clause_range(c);
                for i in s..e {
                    let l = self.pool[i];
                    let v = l.var().index();
                    if self.value[v] != UNASSIGNED || self.var_stamp[v] == stamp {
                        continue;
                    }
                    self.var_stamp[v] = stamp;
                    comp_vars.push(v as u32);
                    for code in [Lit::pos(v as u32).code(), Lit::neg(v as u32).code()] {
                        for j in 0..self.occ[code].len() {
                            let c2 = self.occ[code][j];
                            if self.satisfier[c2 as usize] != NO_SATISFIER
                                || self.clause_stamp[c2 as usize] == stamp
                            {
                                continue;
                            }
                            self.clause_stamp[c2 as usize] = stamp;
                            queue.push(c2);
                        }
                    }
                }
            }
            comp_clauses.sort_unstable();
            comp_vars.sort_unstable();
            comps.push(Component {
                clauses: comp_clauses,
                vars: comp_vars,
            });
        }
        // Smallest components first, like the original compiler, so an
        // early False child short-circuits the expensive siblings.
        comps.sort_by_key(|c| c.clauses.len());
        comps
    }

    /// Compiles a subproblem (a clause set plus queued units): propagate,
    /// turn fixed projection literals into leaves, decompose, recurse.
    /// `split_credit` names the decision variable to reward when its
    /// propagation decomposed the component.
    fn compile_subproblem(
        &mut self,
        clauses: &[ClauseId],
        pending: Vec<ClauseId>,
        split_credit: Option<u32>,
        builder: &mut Builder,
    ) -> NodeId {
        if self.exhausted {
            return builder.false_node();
        }
        let mark = self.trail.len();
        if let Err(c) = self.propagate(pending) {
            self.on_conflict(c);
            self.undo_to(mark);
            return builder.false_node();
        }
        let mut children: Vec<NodeId> = Vec::new();
        for i in mark..self.trail.len() {
            let l = self.trail[i];
            if self.is_proj[l.var().index()] {
                children.push(builder.lit_node(l));
            }
        }
        let comps = self.split_components(clauses);
        if comps.len() > 1 {
            if let Some(v) = split_credit {
                self.bump(v as usize);
            }
        }
        for comp in comps {
            let child = self.compile_component(comp, builder);
            children.push(child);
            if child == builder.false_node() {
                // A False child annihilates the conjunction; skip siblings.
                break;
            }
        }
        self.undo_to(mark);
        builder.and_node(children)
    }

    /// Compiles one component: probe the run-local signature-keyed cache,
    /// then the cross-query shared cache (importing a hit's portable
    /// sub-circuit), pick the highest-activity projection variable, branch
    /// (or SAT-check a projection-free component), cache the node both
    /// locally and — freshly compiled, within the export cap — shared.
    fn compile_component(&mut self, comp: Component, builder: &mut Builder) -> NodeId {
        if self.exhausted {
            return builder.false_node();
        }
        let key = CompKey::new(comp.clauses, comp.vars);
        self.stats.cache_lookups += 1;
        if let Some(&id) = self.cache.get(&key) {
            self.stats.cache_hits += 1;
            return id;
        }
        let portable = self
            .shared
            .clone()
            .filter(|_| self.depth <= MAX_SHARED_DEPTH && key.clauses.len() >= MIN_SHARED_CLAUSES)
            .map(|shared| (shared, self.portable_key(&key)));
        if let Some((shared, pk)) = &portable {
            self.stats.shared_lookups += 1;
            if let Some(circuit) = shared.lookup(pk) {
                self.stats.shared_hits += 1;
                let id = circuit.import(builder);
                self.cache.insert(key, id);
                return id;
            }
        }
        let mut branch: Option<u32> = None;
        for &v in key.vars.iter() {
            if !self.is_proj[v as usize] {
                continue;
            }
            match branch {
                None => branch = Some(v),
                // Strict `>` with ascending iteration = smallest id on ties.
                Some(b) => {
                    if self.activity[v as usize] > self.activity[b as usize] {
                        branch = Some(v);
                    }
                }
            }
        }
        let id = match branch {
            None => {
                // Projection-free: existentially forget the auxiliaries by
                // reducing the component to its satisfiability.
                self.stats.sat_calls += 1;
                if self.component_satisfiable(&key.clauses) {
                    builder.true_node()
                } else {
                    builder.false_node()
                }
            }
            Some(v) => {
                self.stats.decisions += 1;
                if self.stats.decisions > self.max_decisions {
                    self.exhausted = true;
                    return builder.false_node();
                }
                self.decay();
                let mut branches = [builder.false_node(); 2];
                for (slot, lit) in branches.iter_mut().zip([Lit::pos(v), Lit::neg(v)]) {
                    let mark = self.trail.len();
                    let mut pending = Vec::new();
                    match self.assign(lit, &mut pending) {
                        Err(c) => self.on_conflict(c),
                        Ok(()) => {
                            self.depth += 1;
                            *slot =
                                self.compile_subproblem(&key.clauses, pending, Some(v), builder);
                            self.depth -= 1;
                        }
                    }
                    self.undo_to(mark);
                }
                builder.decision_node(v, branches[0], branches[1])
            }
        };
        if !self.exhausted {
            // Mirror the local-cache guard: a budget-truncated trace must
            // never leak into the shared cache either.
            if let Some((shared, pk)) = portable {
                if let Some(circuit) = PortableCircuit::export(builder, id) {
                    shared.store(pk, circuit);
                }
            }
            self.cache.insert(key, id);
        }
        id
    }

    /// Builds the content-addressed shared-cache key of a component: the
    /// canonical encoding of its residual clauses (each active clause
    /// reduced to its unassigned literals — assigned literals of an active
    /// clause are always falsified) plus the projection members of its free
    /// variables. The residual fixes the component's Boolean function and
    /// the projection membership fixes its count semantics, so equal keys
    /// across runs compile to interchangeable sub-circuits.
    fn portable_key(&self, key: &CompKey) -> PortableKey {
        // Residual clauses live as ranges over one flat literal buffer —
        // this runs on every local-cache miss, and a `Vec` per clause is
        // most of the keying cost.
        let mut flat: Vec<u32> = Vec::new();
        let mut ranges: Vec<(u32, u32)> = Vec::with_capacity(key.clauses.len());
        for &c in key.clauses.iter() {
            let (s, e) = self.clause_range(c);
            let start = flat.len();
            flat.extend(
                self.pool[s..e]
                    .iter()
                    .filter(|l| self.value[l.var().index()] == UNASSIGNED)
                    .map(|l| l.code() as u32),
            );
            flat[start..].sort_unstable();
            ranges.push((start as u32, flat.len() as u32));
        }
        let slice = |r: &(u32, u32)| &flat[r.0 as usize..r.1 as usize];
        // Duplicate residual clauses don't change the Boolean function;
        // dropping them widens the match.
        ranges.sort_unstable_by(|a, b| slice(a).cmp(slice(b)));
        ranges.dedup_by(|a, b| slice(a) == slice(b));
        let mut data = Vec::with_capacity(flat.len() + ranges.len());
        for r in &ranges {
            let cl = slice(r);
            data.push(cl.len() as u32);
            data.extend_from_slice(cl);
        }
        let proj: Vec<u32> = key
            .vars
            .iter()
            .copied()
            .filter(|&v| self.is_proj[v as usize])
            .collect();
        PortableKey::new(data, proj)
    }

    /// Plain satisfiability of a projection-free component: materialize the
    /// residual clauses (the unassigned literals of each active clause —
    /// assigned literals of an active clause are always falsified) and run
    /// the CDCL solver.
    fn component_satisfiable(&self, clauses: &[ClauseId]) -> bool {
        let mut max_var = 0usize;
        let mut residual: Vec<Vec<Lit>> = Vec::with_capacity(clauses.len());
        for &c in clauses {
            let (s, e) = self.clause_range(c);
            let lits: Vec<Lit> = self.pool[s..e]
                .iter()
                .copied()
                .filter(|&l| self.value[l.var().index()] == UNASSIGNED)
                .collect();
            for &l in &lits {
                max_var = max_var.max(l.var().index());
            }
            residual.push(lits);
        }
        let mut cnf = Cnf::new(max_var + 1);
        for lits in residual {
            cnf.add_clause(lits);
        }
        Solver::from_cnf(&cnf).solve().is_sat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Var;

    /// Projected brute-force count: distinct projection-variable patterns
    /// among the models of the full formula.
    fn brute_projected(cnf: &Cnf) -> u128 {
        let n = cnf.num_vars();
        assert!(n <= 20, "brute force oracle only at tiny sizes");
        let projection: Vec<usize> = cnf
            .effective_projection()
            .iter()
            .map(|v| v.index())
            .collect();
        let mut patterns = std::collections::HashSet::new();
        for bits in 0u64..(1 << n) {
            let assignment: Vec<bool> = (0..n).map(|k| bits >> k & 1 == 1).collect();
            if cnf.eval(&assignment) {
                let pattern: Vec<bool> = projection.iter().map(|&k| assignment[k]).collect();
                patterns.insert(pattern);
            }
        }
        patterns.len() as u128
    }

    fn compile(cnf: &Cnf) -> Ddnnf {
        Compiler::new().compile(cnf).expect("no budget configured")
    }

    fn random_cnf(rng: &mut rand_chacha::ChaCha8Rng, max_vars: usize, max_clauses: usize) -> Cnf {
        use rand::Rng;
        let n = rng.gen_range(3..=max_vars);
        let m = rng.gen_range(1..=max_clauses);
        let mut cnf = Cnf::new(n);
        for _ in 0..m {
            let len = rng.gen_range(1..=3usize);
            let mut c = Vec::new();
            for _ in 0..len {
                let v = rng.gen_range(0..n) as u32;
                c.push(if rng.gen_bool(0.5) {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                });
            }
            cnf.add_clause(c);
        }
        cnf
    }

    #[test]
    fn empty_formula_counts_all_assignments() {
        let d = compile(&Cnf::new(5));
        assert_eq!(d.count(), 32);
        assert_eq!(d.models().len(), 32);
    }

    #[test]
    fn single_clause_counts_and_enumerates() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        let d = compile(&cnf);
        assert_eq!(d.count(), 6);
        let models = d.models();
        assert_eq!(models.len(), 6);
        for m in &models {
            assert_eq!(m.len(), 3, "models are total over the projection");
            let by_var: std::collections::HashMap<u32, bool> =
                m.iter().map(|&(v, b)| (v.0, b)).collect();
            assert!(by_var[&0] || by_var[&1]);
        }
    }

    #[test]
    fn unsat_compiles_to_false() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause(vec![Lit::pos(0)]);
        cnf.add_clause(vec![Lit::neg(0)]);
        let d = compile(&cnf);
        assert_eq!(d.count(), 0);
        assert!(d.models().is_empty());
    }

    #[test]
    fn projected_count_forgets_auxiliaries() {
        // x2 <-> (x0 & x1), projected onto {x0, x1}: all 4 assignments.
        let mut cnf = Cnf::new(3);
        cnf.add_clause(vec![Lit::neg(2), Lit::pos(0)]);
        cnf.add_clause(vec![Lit::neg(2), Lit::pos(1)]);
        cnf.add_clause(vec![Lit::pos(2), Lit::neg(0), Lit::neg(1)]);
        cnf.set_projection(vec![Var(0), Var(1)]);
        let d = compile(&cnf);
        assert_eq!(d.count(), 4);

        // Asserting the auxiliary leaves exactly (1, 1).
        let mut asserted = cnf.clone();
        asserted.add_unit(Lit::pos(2));
        let d = compile(&asserted);
        assert_eq!(d.count(), 1);
        assert_eq!(d.models(), vec![vec![(Var(0), true), (Var(1), true)]]);
    }

    #[test]
    fn conditioning_matches_unit_assertion() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(41);
        for round in 0..40 {
            let cnf = random_cnf(&mut rng, 8, 16);
            let d = compile(&cnf);
            // Random cube over up to 3 projection variables.
            let n = cnf.num_vars();
            let cube: Vec<Lit> = (0..rng.gen_range(0..=3usize))
                .map(|_| {
                    let v = rng.gen_range(0..n) as u32;
                    if rng.gen_bool(0.5) {
                        Lit::pos(v)
                    } else {
                        Lit::neg(v)
                    }
                })
                .collect();
            let mut asserted = cnf.clone();
            for &l in &cube {
                asserted.add_unit(l);
            }
            let expected = brute_projected(&asserted);
            assert_eq!(
                d.count_conditioned(&cube),
                expected,
                "round {round}, cube {cube:?}, cnf {cnf}"
            );
            assert_eq!(
                d.condition(&cube).count(),
                expected,
                "structural conditioning, round {round}"
            );
        }
    }

    #[test]
    fn count_cubes_agrees_with_per_cube_conditioning() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(97);
        for round in 0..30 {
            let cnf = random_cnf(&mut rng, 9, 18);
            let d = compile(&cnf);
            let n = cnf.num_vars();
            // A batch of random cubes, including an occasionally
            // self-contradictory one.
            let cubes: Vec<Vec<Lit>> = (0..rng.gen_range(1..=6usize))
                .map(|_| {
                    (0..rng.gen_range(0..=4usize))
                        .map(|_| {
                            let v = rng.gen_range(0..n) as u32;
                            if rng.gen_bool(0.5) {
                                Lit::pos(v)
                            } else {
                                Lit::neg(v)
                            }
                        })
                        .collect()
                })
                .collect();
            let batched = d.count_cubes(&cubes);
            assert_eq!(batched.len(), cubes.len());
            for (j, cube) in cubes.iter().enumerate() {
                assert_eq!(
                    batched[j],
                    d.count_conditioned(cube),
                    "round {round}, cube {cube:?}"
                );
            }
        }
    }

    #[test]
    fn count_cubes_handles_empty_batches_and_empty_cubes() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        let d = compile(&cnf);
        assert!(d.count_cubes::<Vec<Lit>>(&[]).is_empty());
        assert_eq!(d.count_cubes(&[Vec::new()]), vec![6]);
        assert_eq!(
            d.count_cubes(&[
                vec![Lit::pos(0)],
                vec![Lit::neg(0)],
                vec![Lit::pos(0), Lit::neg(0)]
            ]),
            vec![4, 2, 0]
        );
    }

    #[test]
    fn contradictory_cube_counts_zero() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        let d = compile(&cnf);
        let cube = [Lit::pos(0), Lit::neg(0)];
        assert_eq!(d.count_conditioned(&cube), 0);
        assert_eq!(d.condition(&cube).count(), 0);
    }

    #[test]
    #[should_panic(expected = "not a projection variable")]
    fn conditioning_on_auxiliary_panics() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        cnf.set_projection(vec![Var(0), Var(1)]);
        let d = compile(&cnf);
        d.count_conditioned(&[Lit::pos(2)]);
    }

    #[test]
    fn agrees_with_brute_force_on_random_cnfs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        for round in 0..60 {
            let mut cnf = random_cnf(&mut rng, 9, 20);
            if round % 2 == 0 {
                let proj = rng.gen_range(2..=cnf.num_vars());
                cnf.set_projection((0..proj as u32).map(Var).collect());
            }
            let d = compile(&cnf);
            assert_eq!(d.count(), brute_projected(&cnf), "round {round}, cnf {cnf}");
            assert_eq!(
                d.models().len() as u128,
                d.count(),
                "enumeration size, round {round}"
            );
        }
    }

    #[test]
    fn models_satisfy_the_formula() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let cnf = random_cnf(&mut rng, 7, 12);
        let d = compile(&cnf);
        let mut seen = std::collections::HashSet::new();
        for model in d.models() {
            assert!(seen.insert(model.clone()), "duplicate model {model:?}");
            let mut assignment = vec![false; cnf.num_vars()];
            for (v, b) in model {
                assignment[v.index()] = b;
            }
            assert!(cnf.eval(&assignment));
        }
    }

    #[test]
    fn decision_budget_aborts() {
        let mut cnf = Cnf::new(20);
        for i in 0..19u32 {
            cnf.add_clause(vec![Lit::pos(i), Lit::pos(i + 1)]);
        }
        let result = Compiler::with_decision_budget(3).compile(&cnf);
        assert!(matches!(
            result,
            Err(CompileError::BudgetExhausted { decisions }) if decisions > 3
        ));
        assert!(Compiler::new().compile(&cnf).is_ok());
    }

    #[test]
    fn circuit_is_a_shared_dag() {
        // Independent identical constraints share one compiled subtrace.
        let mut cnf = Cnf::new(6);
        cnf.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        cnf.add_clause(vec![Lit::pos(2), Lit::pos(3)]);
        cnf.add_clause(vec![Lit::pos(4), Lit::pos(5)]);
        let d = compile(&cnf);
        assert_eq!(d.count(), 27);
        assert!(
            d.num_nodes() <= 12,
            "hash-consing should keep the circuit small, got {}",
            d.num_nodes()
        );
    }

    #[test]
    fn compile_stats_report_activity() {
        let mut cnf = Cnf::new(4);
        cnf.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        cnf.add_clause(vec![Lit::pos(2), Lit::pos(3)]);
        let d = compile(&cnf);
        assert!(d.stats().decisions > 0);
        assert!(d.stats().cache_lookups > 0);
        assert!(d.stats().cache_hits <= d.stats().cache_lookups);
        let rate = d.stats().cache_hit_rate();
        assert!((0.0..=1.0).contains(&rate));
        assert_eq!(d.count(), 9);
    }

    #[test]
    fn component_cache_hits_on_repeated_subtraces() {
        // A chain of implications branches into identical residual tails
        // from both sides of early decisions, so the signature-keyed
        // component cache must report hits.
        let mut cnf = Cnf::new(10);
        for i in 0..9u32 {
            cnf.add_clause(vec![Lit::pos(i), Lit::pos(i + 1)]);
            cnf.add_clause(vec![Lit::neg(i), Lit::pos(i + 1), Lit::pos((i + 5) % 10)]);
        }
        let d = compile(&cnf);
        assert_eq!(d.count(), brute_projected(&cnf));
        assert!(
            d.stats().cache_hits > 0,
            "expected component-cache hits, stats {:?}",
            d.stats()
        );
    }

    #[test]
    fn empty_cache_hit_rate_is_zero() {
        assert_eq!(CompileStats::default().cache_hit_rate(), 0.0);
        assert_eq!(CompileStats::default().shared_hit_rate(), 0.0);
    }

    #[test]
    fn shared_cache_reuses_components_across_runs() {
        let mut cnf = Cnf::new(10);
        for i in 0..9u32 {
            cnf.add_clause(vec![Lit::pos(i), Lit::pos(i + 1)]);
            cnf.add_clause(vec![Lit::neg(i), Lit::pos(i + 1), Lit::pos((i + 5) % 10)]);
        }
        let cold = compile(&cnf);
        let shared = Arc::new(SharedComponentCache::new());
        let compiler = Compiler::new().with_shared_cache(Arc::clone(&shared));
        let first = compiler.compile(&cnf).expect("no budget configured");
        assert_eq!(first.count(), cold.count());
        assert!(first.stats().shared_lookups > 0, "probes must be counted");
        assert!(!shared.is_empty(), "first run must feed the cache");
        // A second run over the same formula resolves every probed
        // component from the shared cache.
        let second = compiler.compile(&cnf).expect("no budget configured");
        assert_eq!(second.count(), cold.count());
        assert!(
            second.stats().shared_hits > 0,
            "second run must hit the shared cache, stats {:?}",
            second.stats()
        );
        assert_eq!(second.stats().shared_hits, second.stats().shared_lookups);
        assert_eq!(second.stats().shared_hit_rate(), 1.0);
        assert_eq!(shared.hits(), second.stats().shared_hits);
    }

    #[test]
    fn shared_cache_counts_agree_with_cold_compiles_on_random_cnfs() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5EED);
        let shared = Arc::new(SharedComponentCache::new());
        let warm = Compiler::new().with_shared_cache(Arc::clone(&shared));
        for round in 0..40 {
            let mut cnf = random_cnf(&mut rng, 9, 18);
            if round % 2 == 0 {
                cnf.set_projection((0..5u32).map(Var).collect());
            }
            let cold = compile(&cnf);
            // Twice through the warm compiler: once feeding the cache,
            // once (mostly) reading it. Counts and models must be
            // bit-identical to the cold compile in both.
            for pass in 0..2 {
                let d = warm.compile(&cnf).expect("no budget configured");
                assert_eq!(d.count(), cold.count(), "round {round} pass {pass}");
                assert_eq!(d.models(), cold.models(), "round {round} pass {pass}");
            }
        }
        assert!(shared.hits() > 0, "the sweep must produce cross-query hits");
    }

    #[test]
    fn advance_generation_evicts_untouched_entries() {
        // One connected component comfortably above the shared-cache size
        // gate (tiny components skip the cache by design).
        let mut cnf = Cnf::new(6);
        for i in 0..5u32 {
            cnf.add_clause(vec![Lit::pos(i), Lit::pos(i + 1)]);
            cnf.add_clause(vec![Lit::neg(i), Lit::pos((i + 2) % 6)]);
        }
        let shared = Arc::new(SharedComponentCache::new());
        let compiler = Compiler::new().with_shared_cache(Arc::clone(&shared));
        compiler.compile(&cnf).expect("no budget configured");
        let populated = shared.len();
        assert!(populated > 0);
        // Generation 0 inserted the entries, so closing it keeps them.
        shared.advance_generation();
        assert_eq!(shared.len(), populated);
        assert_eq!(shared.generation(), 1);
        // Generation 1 never touched them, so closing it drops them.
        shared.advance_generation();
        assert!(shared.is_empty());
        // A hit restamps: probed entries survive the next boundary again.
        // (Only the components actually probed survive — a hit imports its
        // whole sub-circuit without recursing, so nested entries lapse.)
        compiler.compile(&cnf).expect("no budget configured");
        shared.advance_generation();
        compiler.compile(&cnf).expect("no budget configured");
        shared.advance_generation();
        assert!(!shared.is_empty());
        assert!(shared.len() <= populated);
    }

    #[test]
    fn budget_truncated_traces_never_feed_the_shared_cache() {
        let mut cnf = Cnf::new(20);
        for i in 0..19u32 {
            cnf.add_clause(vec![Lit::pos(i), Lit::pos(i + 1)]);
        }
        let shared = Arc::new(SharedComponentCache::new());
        let result = Compiler::with_decision_budget(3)
            .with_shared_cache(Arc::clone(&shared))
            .compile(&cnf);
        assert!(matches!(result, Err(CompileError::BudgetExhausted { .. })));
        // Components cached before exhaustion are complete and reusable;
        // verify nothing poisoned: a fresh full compile through the same
        // cache must still agree with a cold one.
        let warm = Compiler::new()
            .with_shared_cache(Arc::clone(&shared))
            .compile(&cnf)
            .expect("no budget configured");
        assert_eq!(warm.count(), compile(&cnf).count());
    }

    #[test]
    fn byte_image_round_trips_counts_and_schedule() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xD0D0);
        for _ in 0..40 {
            let cnf = random_cnf(&mut rng, 10, 14);
            let d = compile(&cnf);
            let back = Ddnnf::from_bytes(&d.to_bytes()).expect("own image must decode");
            assert_eq!(back.count(), d.count());
            assert_eq!(back.num_nodes(), d.num_nodes());
            assert_eq!(back.projection(), d.projection());
            assert_eq!(back.stats(), d.stats());
            // The recomputed schedule must drive conditioned sweeps too.
            let cubes: Vec<Vec<Lit>> = (0..cnf.num_vars().min(4) as u32)
                .map(|v| vec![Lit::pos(v)])
                .collect();
            assert_eq!(back.count_cubes(&cubes), d.count_cubes(&cubes));
            // Same structure in, same bytes out.
            assert_eq!(back.to_bytes(), d.to_bytes());
        }
    }

    #[test]
    fn byte_image_round_trips_projected_circuits() {
        let mut cnf = Cnf::new(6);
        cnf.add_clause(vec![Lit::pos(0), Lit::neg(3)]);
        cnf.add_clause(vec![Lit::pos(3), Lit::pos(4), Lit::neg(1)]);
        cnf.add_clause(vec![Lit::neg(5), Lit::pos(2)]);
        cnf.set_projection(vec![Var(0), Var(1), Var(2)]);
        let d = compile(&cnf);
        let back = Ddnnf::from_bytes(&d.to_bytes()).expect("projected image must decode");
        assert_eq!(back.count(), d.count());
        assert_eq!(back.projection(), d.projection());
        assert_eq!(
            back.count_conditioned(&[Lit::pos(1)]),
            d.count_conditioned(&[Lit::pos(1)])
        );
    }

    #[test]
    fn corrupted_images_are_rejected_not_misread() {
        let mut cnf = Cnf::new(5);
        cnf.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        cnf.add_clause(vec![Lit::neg(2), Lit::pos(3), Lit::pos(4)]);
        let bytes = compile(&cnf).to_bytes();

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(
            Ddnnf::from_bytes(&bad).is_err(),
            "bad magic must be rejected"
        );

        // Every truncation point fails cleanly instead of panicking.
        for cut in 0..bytes.len() {
            assert!(
                Ddnnf::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }

        // Trailing garbage is not silently ignored.
        let mut long = bytes.clone();
        long.push(0);
        assert!(
            Ddnnf::from_bytes(&long).is_err(),
            "trailing bytes must be rejected"
        );
    }

    #[test]
    fn forward_references_and_foreign_variables_are_rejected() {
        let mut cnf = Cnf::new(4);
        cnf.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        cnf.add_clause(vec![Lit::pos(2), Lit::neg(3)]);
        let d = compile(&cnf);
        let bytes = d.to_bytes();
        // Walk the image flipping each u32-aligned word in the node region;
        // decode must either fail or produce a structurally valid circuit —
        // never panic. (Some flips land on literal payloads and still decode;
        // the invariant under test is "no out-of-bounds child survives".)
        let node_region = 4 + 4 + 4 * d.projection().len() + 40 + 4 + 4;
        for pos in (node_region..bytes.len().saturating_sub(3)).step_by(4) {
            let mut bad = bytes.clone();
            bad[pos] = bad[pos].wrapping_add(0x40);
            bad[pos + 3] |= 0x80; // push ids/lengths far out of range
            if let Ok(back) = Ddnnf::from_bytes(&bad) {
                // Decoding succeeded: counting must still be safe.
                let _ = back.count();
            }
        }
    }
}
