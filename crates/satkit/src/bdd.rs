//! Reduced ordered binary decision diagrams (ROBDDs) with hash-consing and
//! dynamic variable reordering.
//!
//! The module exists for one job in the reproduction: compiling the
//! *vote circuits* of ensemble models (random-forest majority votes,
//! AdaBoost weighted votes, GBDT additive score folds) into functions of
//! the **feature variables**, and then extracting a
//! [`cube_cover`](Bdd::cube_cover) from the diagram — a disjoint,
//! exhaustive list of cubes labelling every input with the ensemble's
//! decision. Those cubes are exactly the *decision regions* the compiled
//! AccMC/DiffMC query plans consume (`Σ mc(φ | region-cube)`), so with this
//! module the ensembles ride the same compile-once/query-many counting path
//! as single decision trees.
//!
//! Design notes:
//!
//! * Nodes are hash-consed into a unique table, so the diagram is *reduced*:
//!   no duplicate `(var, lo, hi)` triples and no redundant tests
//!   (`lo == hi` collapses). Equal functions therefore share one node.
//! * Variables are ordered by **level**, not by index: the manager carries a
//!   var ↔ level permutation (initially the identity, so the default order
//!   is by `u32` index exactly as before reordering existed). [`Bdd::ite`]
//!   is the classic recursive if-then-else apply with a memo cache,
//!   branching on the topmost level among its operands.
//! * The manager carries a **node budget**: a vote diagram over learners
//!   with pairwise-distinct float weights can reach `2^rounds` nodes, so
//!   [`Bdd::ite`] (and the other constructors) report
//!   [`BddError::TooManyNodes`] instead of exhausting memory. The budget
//!   counts every stored node that has not been collected yet — the ITE
//!   intermediates of a computation included, not only the nodes its
//!   result reaches — and slots reclaimed by garbage collection are
//!   reused. A fold whose final diagram holds a thousand nodes can
//!   therefore still fill a budget of tens of thousands.
//!   Cube extraction counts root-to-sink paths first and reports
//!   [`BddError::TooManyCubes`] before materializing an oversized cover.
//!
//! # Dynamic reordering (sifting)
//!
//! A fixed variable order can be exponentially worse than the best one
//! (the classic example: `(x₀∧x₃) ∨ (x₁∧x₄) ∨ (x₂∧x₅)` is linear when the
//! pairs are adjacent and exponential when they interleave). The manager
//! therefore supports **in-place reordering**:
//!
//! * [`Bdd::swap_adjacent_levels`] exchanges two adjacent levels in place.
//!   Nodes are rewritten *without changing their [`NodeRef`]s*: every
//!   handle keeps denoting the same boolean function across swaps, so
//!   callers' roots, memo tables and caches stay valid.
//! * [`Bdd::sift`] runs Rudell's sifting: each variable (densest first) is
//!   moved through every level by adjacent swaps and parked where the
//!   reachable-node count is smallest. Sifting garbage-collects first
//!   (only nodes reachable from the caller's `roots` survive — any other
//!   handle is dangling afterwards) and again at the end, so the budget
//!   measures the live diagram. For the duration of one sift the manager
//!   keeps per-variable node lists and reference counts, so each swap
//!   costs only the nodes of the two levels it exchanges and the
//!   reachable-node count is tracked rather than recounted.
//! * [`ReorderPolicy`] selects when reordering happens automatically:
//!   [`Off`](ReorderPolicy::Off) (never — explicit [`Bdd::sift`] calls
//!   remain available), or [`OnPressure`](ReorderPolicy::OnPressure) —
//!   [`Bdd::vote_fold`] responds to a blown node budget by reordering
//!   instead of failing, so wider ensembles fit smaller budgets. The
//!   response has two rungs. First the fold is abandoned, the voter
//!   diagrams alone are sifted (collecting the memo and every
//!   intermediate) and the fold reruns from its first stage under the new
//!   order: the voters are a fraction of the memo, so this sift is cheap,
//!   and the refold usually fits outright. Only if the refold blows the
//!   budget too does the second rung sift in flight — voters, memoized
//!   partial diagrams and intermediates — and retry the step.
//!
//! # Example
//!
//! ```
//! use satkit::bdd::{Bdd, NodeRef};
//!
//! let mut bdd = Bdd::new();
//! let x0 = bdd.literal(0, true).unwrap();
//! let x1 = bdd.literal(1, true).unwrap();
//! let f = bdd.or(x0, x1).unwrap(); // x0 ∨ x1
//! assert!(bdd.eval(f, &[true, false]));
//! assert!(!bdd.eval(f, &[false, false]));
//! let cubes = bdd.cube_cover(f).unwrap();
//! // Every input satisfies exactly one cube of the cover.
//! assert_eq!(cubes.iter().map(|c| 1u128 << (2 - c.lits.len())).sum::<u128>(), 4);
//! ```

use crate::fxhash::FxHashMap;
use std::fmt;

/// A handle to a node of a [`Bdd`] manager. The two sinks are
/// [`Bdd::FALSE`] and [`Bdd::TRUE`]; every other handle points at a decision
/// node owned by the manager that created it. Reordering rewrites nodes in
/// place, so a handle keeps denoting the same boolean function across
/// [`Bdd::swap_adjacent_levels`] and [`Bdd::sift`] — but [`Bdd::sift`]
/// garbage-collects, so only handles reachable from its `roots` survive it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRef(u32);

/// An interned decision node: branch on `var`, follow `lo` when it is
/// false, `hi` when it is true.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    lo: NodeRef,
    hi: NodeRef,
}

/// When a [`Bdd`] manager reorders its variables automatically.
///
/// Explicit reordering — calling [`Bdd::sift`] directly — is available
/// under every policy; the policy only governs what the manager does on its
/// own when a [`vote_fold`](Bdd::vote_fold) hits the node budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReorderPolicy {
    /// Never reorder automatically: a blown node budget is reported as
    /// [`BddError::TooManyNodes`] immediately (the pre-reordering
    /// behaviour).
    #[default]
    Off,
    /// Reorder under budget pressure. When a [`vote_fold`](Bdd::vote_fold)
    /// step first exceeds the node budget, the fold is abandoned, the voter
    /// diagrams alone are [sifted](Bdd::sift) and the fold restarts from
    /// its first stage. If the restarted fold exceeds the budget as well,
    /// each further blown step sifts everything the fold holds and is
    /// retried (a bounded number of times); the error only surfaces if the
    /// reordered diagram still does not fit.
    OnPressure,
}

/// Errors reported by the size-guarded [`Bdd`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BddError {
    /// An operation would have materialized more decision nodes than the
    /// manager's budget allows.
    TooManyNodes {
        /// Nodes alive when the bound was hit.
        nodes: usize,
        /// The configured node budget.
        bound: usize,
    },
    /// A [`cube_cover`](Bdd::cube_cover) would contain more cubes than the
    /// manager's budget allows.
    TooManyCubes {
        /// Lower bound on the cubes of the cover when extraction gave up.
        cubes: usize,
        /// The configured budget.
        bound: usize,
    },
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::TooManyNodes { nodes, bound } => {
                write!(
                    f,
                    "BDD exceeded its node budget ({nodes} nodes, bound {bound})"
                )
            }
            BddError::TooManyCubes { cubes, bound } => {
                write!(
                    f,
                    "BDD cube cover exceeded its budget ({cubes}+ cubes, bound {bound})"
                )
            }
        }
    }
}

impl std::error::Error for BddError {}

/// One cube of a [`Bdd::cube_cover`]: the literals fixed along a
/// root-to-sink path (as `(variable, polarity)` pairs, in the diagram's
/// current level order) and the sink value the path reaches. Variables
/// absent from `lits` are free — the cube covers both values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BddCube {
    /// The `(variable, polarity)` literals of the cube.
    pub lits: Vec<(u32, bool)>,
    /// The function value on every input of the cube.
    pub value: bool,
}

/// Cap on the in-flight sift-and-retry attempts of one
/// [`vote_fold`](Bdd::vote_fold) under [`ReorderPolicy::OnPressure`], after
/// its one restart from sifted voters — a fold whose diagram keeps
/// outgrowing the budget after this many reorderings is genuinely too
/// large, and each extra sift only delays the typed error.
const MAX_FOLD_SIFTS: usize = 32;

/// Immutable context of one [`staged_vote_fold`](Bdd::staged_vote_fold).
/// The fold recurses once per reachable abstract vote state; hoisting the
/// loop-invariant arguments into one borrowed struct keeps each recursion
/// frame down to the two values that actually change (`stage`, `state`)
/// plus the mutable tables.
struct FoldCtx<'a, C, D> {
    stages: &'a [Vec<NodeRef>],
    guards: &'a [NodeRef],
    cast: &'a C,
    decide: &'a D,
    bound: usize,
    /// Whether a blown node budget is met by sifting in flight (the second
    /// rung of the pressure response) rather than stopping the attempt.
    sift_in_flight: bool,
}

/// Why one attempt of a [`staged_vote_fold`](Bdd::staged_vote_fold) stopped.
enum FoldStop {
    /// A fold ITE exceeded the node budget; a better order may fit it.
    Nodes(BddError),
    /// The abstract vote states outgrew their cap; no order merges them.
    States(BddError),
}

impl FoldStop {
    fn error(self) -> BddError {
        match self {
            FoldStop::Nodes(e) | FoldStop::States(e) => e,
        }
    }
}

/// The bookkeeping of one [`sift`](Bdd::sift): per-variable node lists and
/// reference counts, so a swap visits only the two levels it exchanges and
/// the reachable-node count is tracked instead of recounted.
struct SiftIndex {
    /// `by_var[v]` — arena slots of the interned nodes testing `v`,
    /// referenced or not.
    by_var: Vec<Vec<u32>>,
    /// Per arena slot: edges from referenced parents plus occurrences in
    /// the sift's roots. A node is referenced iff it is reachable.
    refs: Vec<u32>,
    /// Referenced nodes — always `reachable_count(roots)`.
    live: usize,
    /// Unreferenced nodes a swap dropped from the unique table (their
    /// content no longer respects the order); freed with the rest.
    unlinked: Vec<u32>,
    /// Scratch stack of [`acquire`](Self::acquire) and
    /// [`release`](Self::release).
    stack: Vec<NodeRef>,
}

impl SiftIndex {
    /// Adds one reference to `r`; a node gaining its first reference
    /// references its children in turn.
    fn acquire(&mut self, nodes: &[Node], r: NodeRef) {
        self.stack.push(r);
        while let Some(r) = self.stack.pop() {
            if r == Bdd::FALSE || r == Bdd::TRUE {
                continue;
            }
            let slot = r.0 as usize - 2;
            self.refs[slot] += 1;
            if self.refs[slot] == 1 {
                self.live += 1;
                self.stack.extend([nodes[slot].lo, nodes[slot].hi]);
            }
        }
    }

    /// Drops one reference to `r`; a node losing its last reference
    /// releases its children in turn.
    fn release(&mut self, nodes: &[Node], r: NodeRef) {
        self.stack.push(r);
        while let Some(r) = self.stack.pop() {
            if r == Bdd::FALSE || r == Bdd::TRUE {
                continue;
            }
            let slot = r.0 as usize - 2;
            self.refs[slot] -= 1;
            if self.refs[slot] == 0 {
                self.live -= 1;
                self.stack.extend([nodes[slot].lo, nodes[slot].hi]);
            }
        }
    }
}

impl Node {
    /// Sentinel filling a garbage-collected arena slot. Never interned:
    /// real nodes cannot carry the reserved sink variable.
    const FREE: Node = Node {
        var: u32::MAX,
        lo: NodeRef(0),
        hi: NodeRef(0),
    };
}

/// A reduced ordered BDD manager: a shared node store plus the operation
/// caches. All nodes of one computation must come from one manager.
#[derive(Debug, Clone)]
pub struct Bdd {
    nodes: Vec<Node>,
    /// Arena indices of garbage-collected slots, reused by allocation.
    free: Vec<u32>,
    unique: FxHashMap<Node, NodeRef>,
    ite_cache: FxHashMap<(NodeRef, NodeRef, NodeRef), NodeRef>,
    /// Memo table of [`vote_fold`](Bdd::vote_fold), keyed on
    /// `(voter index, vote state)`. Owned by the manager so repeated folds
    /// on one manager reuse the allocation instead of building a fresh map
    /// per fold.
    vote_memo: FxHashMap<(u32, u64), NodeRef>,
    /// `level_of[var]` — the level a variable currently sits at (smaller =
    /// closer to the root). Initially the identity permutation.
    level_of: Vec<u32>,
    /// `var_at[level]` — the inverse permutation.
    var_at: Vec<u32>,
    bound: usize,
    policy: ReorderPolicy,
    /// Automatic sifts performed by the current [`vote_fold`](Bdd::vote_fold).
    fold_sifts: usize,
}

impl Default for Bdd {
    fn default() -> Self {
        Bdd::new()
    }
}

impl Bdd {
    /// The false sink.
    pub const FALSE: NodeRef = NodeRef(0);
    /// The true sink.
    pub const TRUE: NodeRef = NodeRef(1);

    /// Sentinel variable index of the sinks, ordered after every real
    /// variable.
    const SINK_VAR: u32 = u32::MAX;

    /// Sentinel level of the sinks, below every real level.
    const SINK_LEVEL: u32 = u32::MAX;

    /// A manager with an effectively unlimited node budget.
    pub fn new() -> Self {
        Bdd::with_node_budget(usize::MAX)
    }

    /// A manager that fails any operation pushing the number of live
    /// decision nodes (sinks excluded, garbage-collected slots reusable)
    /// past `bound`.
    pub fn with_node_budget(bound: usize) -> Self {
        // Seed the node store and both operation tables with room for a
        // typical vote diagram: growing them from empty costs a rehash of
        // every entry at each doubling, which shows up on the region
        // extraction hot path (many short-lived managers, one per model).
        let seed_capacity = bound.saturating_add(1).min(1 << 10);
        Bdd {
            nodes: Vec::with_capacity(seed_capacity),
            free: Vec::new(),
            unique: FxHashMap::with_capacity_and_hasher(seed_capacity, Default::default()),
            ite_cache: FxHashMap::with_capacity_and_hasher(seed_capacity, Default::default()),
            vote_memo: FxHashMap::default(),
            level_of: Vec::new(),
            var_at: Vec::new(),
            bound,
            policy: ReorderPolicy::Off,
            fold_sifts: 0,
        }
    }

    /// Sets the automatic-reordering policy (default
    /// [`ReorderPolicy::Off`]).
    pub fn with_reorder_policy(mut self, policy: ReorderPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The manager's automatic-reordering policy.
    pub fn reorder_policy(&self) -> ReorderPolicy {
        self.policy
    }

    /// Number of live decision nodes (sinks and garbage-collected slots
    /// excluded) — the quantity the node budget bounds.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// The current variable order, root level first. Starts as the
    /// identity over the variables seen so far; [`sift`](Bdd::sift) and
    /// [`swap_adjacent_levels`](Bdd::swap_adjacent_levels) permute it.
    pub fn variable_order(&self) -> &[u32] {
        &self.var_at
    }

    /// The sink for a boolean constant.
    pub fn constant(&self, value: bool) -> NodeRef {
        if value {
            Bdd::TRUE
        } else {
            Bdd::FALSE
        }
    }

    /// Registers `var` (and any smaller index not yet seen) at the bottom
    /// of the order, keeping the default index order for fresh managers.
    fn ensure_var(&mut self, var: u32) {
        assert!(var != Bdd::SINK_VAR, "variable index reserved for sinks");
        while self.level_of.len() <= var as usize {
            let v = self.level_of.len() as u32;
            self.level_of.push(v);
            self.var_at.push(v);
        }
    }

    /// The function of a single literal: `var` when `positive`, `¬var`
    /// otherwise.
    pub fn literal(&mut self, var: u32, positive: bool) -> Result<NodeRef, BddError> {
        self.ensure_var(var);
        if positive {
            self.mk(var, Bdd::FALSE, Bdd::TRUE)
        } else {
            self.mk(var, Bdd::TRUE, Bdd::FALSE)
        }
    }

    fn node(&self, r: NodeRef) -> Node {
        let n = self.nodes[r.0 as usize - 2];
        debug_assert!(n != Node::FREE, "dangling NodeRef into a collected slot");
        n
    }

    fn var_of(&self, r: NodeRef) -> u32 {
        if r == Bdd::FALSE || r == Bdd::TRUE {
            Bdd::SINK_VAR
        } else {
            self.node(r).var
        }
    }

    /// The level `r` branches at ([`SINK_LEVEL`](Self::SINK_LEVEL) for the
    /// sinks, which sit below every variable). The hot paths use
    /// [`branch_info`](Self::branch_info) instead; this remains the
    /// readable form for invariant checks.
    #[cfg(test)]
    fn level_of_ref(&self, r: NodeRef) -> u32 {
        if r == Bdd::FALSE || r == Bdd::TRUE {
            Bdd::SINK_LEVEL
        } else {
            self.level_of[self.node(r).var as usize]
        }
    }

    /// The cofactors of `r` with respect to `var` (identity when `r` does
    /// not branch on `var` at its root).
    fn cofactors(&self, r: NodeRef, var: u32) -> (NodeRef, NodeRef) {
        if self.var_of(r) == var {
            let n = self.node(r);
            (n.lo, n.hi)
        } else {
            (r, r)
        }
    }

    /// Stores a fresh node, reusing a garbage-collected slot when one is
    /// available, and interns it in the unique table.
    fn alloc(&mut self, node: Node) -> NodeRef {
        let r = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                NodeRef(slot + 2)
            }
            None => {
                self.nodes.push(node);
                NodeRef(self.nodes.len() as u32 + 1)
            }
        };
        self.unique.insert(node, r);
        r
    }

    /// Interns the reduced node `(var, lo, hi)`, enforcing the node budget.
    fn mk(&mut self, var: u32, lo: NodeRef, hi: NodeRef) -> Result<NodeRef, BddError> {
        if lo == hi {
            return Ok(lo);
        }
        let node = Node { var, lo, hi };
        if let Some(&r) = self.unique.get(&node) {
            return Ok(r);
        }
        if self.node_count() >= self.bound {
            return Err(BddError::TooManyNodes {
                nodes: self.node_count() + 1,
                bound: self.bound,
            });
        }
        Ok(self.alloc(node))
    }

    /// The level an operand branches at and its children, fetched in one
    /// arena read ([`SINK_LEVEL`](Self::SINK_LEVEL) and self-children for
    /// the sinks, which branch nowhere).
    fn branch_info(&self, r: NodeRef) -> (u32, NodeRef, NodeRef) {
        if r == Bdd::FALSE || r == Bdd::TRUE {
            (Bdd::SINK_LEVEL, r, r)
        } else {
            let n = self.node(r);
            (self.level_of[n.var as usize], n.lo, n.hi)
        }
    }

    /// If-then-else: the function `(f ∧ g) ∨ (¬f ∧ h)`. Every binary (and
    /// the unary) connective reduces to this.
    pub fn ite(&mut self, f: NodeRef, g: NodeRef, h: NodeRef) -> Result<NodeRef, BddError> {
        if f == Bdd::TRUE {
            return Ok(g);
        }
        if f == Bdd::FALSE {
            return Ok(h);
        }
        // Standard-triple rewrites: a branch equal to the selector is the
        // selector's value on that branch (ite(f, f, h) = f ∨ h and
        // ite(f, g, f) = f ∧ g — without complement edges these are the
        // applicable identities). Canonicalizing improves cache hits and
        // lets the terminal checks below fire more often.
        let g = if g == f { Bdd::TRUE } else { g };
        let h = if h == f { Bdd::FALSE } else { h };
        if g == h {
            return Ok(g);
        }
        if g == Bdd::TRUE && h == Bdd::FALSE {
            return Ok(f);
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            return Ok(r);
        }
        // One arena read per operand: level and both children together,
        // instead of separate level/cofactor lookups re-reading the node.
        let (fl, f_lo, f_hi) = self.branch_info(f);
        let (gl, g_lo, g_hi) = self.branch_info(g);
        let (hl, h_lo, h_hi) = self.branch_info(h);
        let level = fl.min(gl).min(hl);
        let var = self.var_at[level as usize];
        let (f0, f1) = if fl == level { (f_lo, f_hi) } else { (f, f) };
        let (g0, g1) = if gl == level { (g_lo, g_hi) } else { (g, g) };
        let (h0, h1) = if hl == level { (h_lo, h_hi) } else { (h, h) };
        let lo = self.ite(f0, g0, h0)?;
        let hi = self.ite(f1, g1, h1)?;
        let r = self.mk(var, lo, hi)?;
        self.ite_cache.insert((f, g, h), r);
        Ok(r)
    }

    /// Conjunction. Commutative, so the operands are ordered by handle
    /// before the [`ite`](Self::ite) call — `a ∧ b` and `b ∧ a` share one
    /// cache entry.
    pub fn and(&mut self, a: NodeRef, b: NodeRef) -> Result<NodeRef, BddError> {
        let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.ite(a, b, Bdd::FALSE)
    }

    /// Disjunction. Commutative, so the operands are ordered by handle
    /// before the [`ite`](Self::ite) call — `a ∨ b` and `b ∨ a` share one
    /// cache entry.
    pub fn or(&mut self, a: NodeRef, b: NodeRef) -> Result<NodeRef, BddError> {
        let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.ite(a, Bdd::TRUE, b)
    }

    /// Negation.
    pub fn not(&mut self, a: NodeRef) -> Result<NodeRef, BddError> {
        self.ite(a, Bdd::FALSE, Bdd::TRUE)
    }

    /// Evaluates the function rooted at `root` under an assignment indexed
    /// by variable.
    ///
    /// # Panics
    ///
    /// Panics if a variable tested on the path is out of `assignment`'s
    /// bounds.
    pub fn eval(&self, root: NodeRef, assignment: &[bool]) -> bool {
        let mut r = root;
        loop {
            if r == Bdd::TRUE {
                return true;
            }
            if r == Bdd::FALSE {
                return false;
            }
            let n = self.node(r);
            r = if assignment[n.var as usize] {
                n.hi
            } else {
                n.lo
            };
        }
    }

    /// Exchanges the variables at `level` and `level + 1` **in place**,
    /// preserving every handle's function and the reduced/hash-consed
    /// invariants.
    ///
    /// Only nodes at `level` whose children test the variable below are
    /// rewritten (their content changes, their [`NodeRef`] does not); every
    /// other node is untouched. Nodes created by the rewrite bypass the
    /// construction budget — swap growth is transient and bounded by the
    /// sifting loop that drives it. A standalone swap indexes the whole
    /// arena first, so it costs a pass over every node; inside
    /// [`sift`](Bdd::sift) the index is built once and each swap costs only
    /// the two levels it exchanges.
    ///
    /// # Panics
    ///
    /// Panics unless both `level` and `level + 1` are occupied levels.
    pub fn swap_adjacent_levels(&mut self, level: usize) {
        // Every stored node counts as referenced, so the swap rewrites
        // garbage too and never drops a node.
        let every: Vec<NodeRef> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i] != Node::FREE)
            .map(|i| NodeRef(i as u32 + 2))
            .collect();
        let mut ix = self.index(&every);
        self.swap_indexed(level, &mut ix);
    }

    /// Builds the per-variable node lists and reference counts of
    /// [`SiftIndex`] over the current arena, counting `roots` as references.
    fn index(&self, roots: &[NodeRef]) -> SiftIndex {
        let mut ix = SiftIndex {
            by_var: vec![Vec::new(); self.var_at.len()],
            refs: vec![0; self.nodes.len()],
            live: 0,
            unlinked: Vec::new(),
            stack: Vec::new(),
        };
        for (i, n) in self.nodes.iter().enumerate() {
            if *n != Node::FREE {
                ix.by_var[n.var as usize].push(i as u32);
            }
        }
        for &r in roots {
            ix.acquire(&self.nodes, r);
        }
        ix
    }

    /// [`swap_adjacent_levels`](Bdd::swap_adjacent_levels) over an index:
    /// visits only the nodes of the upper variable and keeps the reference
    /// counts (and so [`SiftIndex::live`]) exact.
    fn swap_indexed(&mut self, level: usize, ix: &mut SiftIndex) {
        assert!(
            level + 1 < self.var_at.len(),
            "swap needs two adjacent levels, got level {level} of {}",
            self.var_at.len()
        );
        let x = self.var_at[level];
        let y = self.var_at[level + 1];
        // Nodes testing x above a y-child change structure; everything else
        // just changes level, which is recorded only in the permutation. An
        // unreferenced one would break the order once x sinks below y, so it
        // leaves the unique table instead and waits for the next collection.
        let mut rewrite = Vec::new();
        let xs = std::mem::take(&mut ix.by_var[x as usize]);
        let mut kept = Vec::with_capacity(xs.len());
        for s in xs {
            let n = self.nodes[s as usize];
            if self.var_of(n.lo) != y && self.var_of(n.hi) != y {
                kept.push(s);
                continue;
            }
            self.unique.remove(&n);
            if ix.refs[s as usize] > 0 {
                rewrite.push(s);
            } else {
                ix.unlinked.push(s);
            }
        }
        ix.by_var[x as usize] = kept;
        // Reorder the permutation first so new nodes place x below y.
        self.var_at.swap(level, level + 1);
        self.level_of.swap(x as usize, y as usize);
        for s in rewrite {
            let n = self.nodes[s as usize];
            // f = x ? (y ? hi1 : hi0) : (y ? lo1 : lo0)
            //   = y ? (x ? hi1 : lo1) : (x ? hi0 : lo0)
            let (lo0, lo1) = self.cofactors(n.lo, y);
            let (hi0, hi1) = self.cofactors(n.hi, y);
            let new_lo = self.mk_indexed(x, lo0, hi0, ix);
            ix.acquire(&self.nodes, new_lo);
            let new_hi = self.mk_indexed(x, lo1, hi1, ix);
            ix.acquire(&self.nodes, new_hi);
            // With full reduction the rewritten content is provably fresh:
            // at least one child is an x-node (otherwise the original node
            // was redundant), and no interned node can have an x-child at
            // this point in the order.
            let rewritten = Node {
                var: y,
                lo: new_lo,
                hi: new_hi,
            };
            self.nodes[s as usize] = rewritten;
            self.unique.insert(rewritten, NodeRef(s + 2));
            ix.by_var[y as usize].push(s);
            // Released after the new children hold their references, so a
            // grandchild shared through them never drops to zero in passing.
            ix.release(&self.nodes, n.lo);
            ix.release(&self.nodes, n.hi);
        }
    }

    /// Interns `(var, lo, hi)` for a swap: no construction budget, and a
    /// fresh node joins the index unreferenced. An existing node is reused
    /// even when unreferenced — that is how a swap brings back a node an
    /// earlier swap of the same sift orphaned.
    fn mk_indexed(&mut self, var: u32, lo: NodeRef, hi: NodeRef, ix: &mut SiftIndex) -> NodeRef {
        if lo == hi {
            return lo;
        }
        let node = Node { var, lo, hi };
        if let Some(&r) = self.unique.get(&node) {
            return r;
        }
        let r = self.alloc(node);
        let slot = r.0 as usize - 2;
        if slot >= ix.refs.len() {
            ix.refs.resize(slot + 1, 0);
        }
        ix.by_var[var as usize].push(slot as u32);
        r
    }

    /// Frees every node of the index without references, and those a swap
    /// unlinked: their slots go onto the free list.
    fn free_unreferenced(&mut self, ix: &mut SiftIndex) {
        for list in &mut ix.by_var {
            list.retain(|&s| {
                if ix.refs[s as usize] > 0 {
                    return true;
                }
                self.unique.remove(&self.nodes[s as usize]);
                self.nodes[s as usize] = Node::FREE;
                self.free.push(s);
                false
            });
        }
        for s in ix.unlinked.drain(..) {
            self.nodes[s as usize] = Node::FREE;
            self.free.push(s);
        }
    }

    /// Marks every decision node reachable from `roots`. The returned
    /// bitmap is indexed by arena slot.
    fn mark_reachable(&self, roots: &[NodeRef]) -> Vec<bool> {
        let mut marked = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeRef> = roots
            .iter()
            .copied()
            .filter(|&r| r != Bdd::FALSE && r != Bdd::TRUE)
            .collect();
        while let Some(r) = stack.pop() {
            let slot = r.0 as usize - 2;
            if marked[slot] {
                continue;
            }
            marked[slot] = true;
            let n = self.nodes[slot];
            for child in [n.lo, n.hi] {
                if child != Bdd::FALSE && child != Bdd::TRUE {
                    stack.push(child);
                }
            }
        }
        marked
    }

    /// Number of decision nodes reachable from `roots` — the size metric
    /// sifting minimizes (the arena may additionally hold garbage awaiting
    /// collection).
    pub fn reachable_count(&self, roots: &[NodeRef]) -> usize {
        self.mark_reachable(roots).iter().filter(|&&m| m).count()
    }

    /// Reclaims every node not reachable from `roots`: the slot goes onto
    /// the free list (reused by later allocations) and its unique-table
    /// entry disappears. The operation caches are cleared — they may hold
    /// collected handles.
    ///
    /// Any [`NodeRef`] not reachable from `roots` is dangling afterwards.
    pub fn collect_garbage(&mut self, roots: &[NodeRef]) {
        let marked = self.mark_reachable(roots);
        for (i, keep) in marked.iter().enumerate() {
            if !keep && self.nodes[i] != Node::FREE {
                self.unique.remove(&self.nodes[i]);
                self.nodes[i] = Node::FREE;
                self.free.push(i as u32);
            }
        }
        self.ite_cache.clear();
        self.vote_memo.clear();
    }

    /// Rudell-style sifting: garbage-collects down to `roots`, then moves
    /// each variable (densest first) through every level by
    /// [adjacent swaps](Bdd::swap_adjacent_levels) and parks it at the
    /// position minimizing the reachable-node count. A sweep direction is
    /// abandoned early when the diagram doubles past the best size seen.
    ///
    /// A swap costs only the nodes of the two levels it exchanges: for the
    /// duration of the sift the manager keeps per-variable node lists and
    /// reference counts (edges from referenced parents plus occurrences in
    /// `roots`), so the reachable-node count is tracked as the swaps go
    /// rather than recounted. A node whose count drops to zero stays
    /// interned, so a later swap can bring it back; unreferenced nodes are
    /// freed together before each variable is sifted and at the end.
    ///
    /// Handles in `roots` remain valid and keep their functions; every
    /// other handle must be considered dangling (the collection reclaims
    /// it). Sifting never fails — if no better order exists the diagram is
    /// simply left at the best (possibly original) position per variable.
    pub fn sift(&mut self, roots: &[NodeRef]) {
        self.collect_garbage(roots);
        let levels = self.var_at.len();
        if levels < 2 {
            return;
        }
        let mut ix = self.index(roots);
        let mut vars: Vec<u32> = (0..levels as u32)
            .filter(|&v| !ix.by_var[v as usize].is_empty())
            .collect();
        vars.sort_by_key(|&v| std::cmp::Reverse(ix.by_var[v as usize].len()));
        for var in vars {
            // Keep the levels lean: each variable's sweep orphans nodes the
            // next sweep should not have to walk around.
            self.free_unreferenced(&mut ix);
            self.sift_var(var, roots, &mut ix);
        }
        self.free_unreferenced(&mut ix);
    }

    /// Sifts one variable: down to the bottom, up to the top, then back to
    /// the best level seen.
    fn sift_var(&mut self, var: u32, roots: &[NodeRef], ix: &mut SiftIndex) {
        let levels = self.var_at.len();
        let mut cur = self.level_of[var as usize] as usize;
        let mut best = cur;
        let mut best_size = ix.live;
        // Abandon a sweep direction once the diagram doubles past the best
        // size seen (Rudell's max-growth heuristic).
        let grow_limit = best_size.saturating_mul(2).max(16);
        while cur + 1 < levels {
            let size = self.sift_swap(cur, roots, ix);
            cur += 1;
            if size < best_size {
                best_size = size;
                best = cur;
            }
            if size > grow_limit {
                break;
            }
        }
        while cur > 0 {
            let size = self.sift_swap(cur - 1, roots, ix);
            cur -= 1;
            if size < best_size {
                best_size = size;
                best = cur;
            }
            if size > grow_limit {
                break;
            }
        }
        // Every visited position is at or below `cur` when a sweep
        // abandons, so the best level is always reachable by settling
        // downward.
        while cur < best {
            self.sift_swap(cur, roots, ix);
            cur += 1;
        }
    }

    /// One sifting swap; returns the reachable-node count after it. Test
    /// builds check the tracked count against a full walk from `roots`.
    fn sift_swap(&mut self, level: usize, roots: &[NodeRef], ix: &mut SiftIndex) -> usize {
        self.swap_indexed(level, ix);
        if cfg!(test) {
            assert_eq!(
                ix.live,
                self.reachable_count(roots),
                "tracked size drifted at level {level}"
            );
        }
        ix.live
    }

    /// Compiles an ensemble vote `decide(state after every voter)` into the
    /// diagram — the builder behind the random-forest majority vote and the
    /// AdaBoost weighted vote.
    ///
    /// `voters[i]` is the diagram of voter `i`'s positive region; `cast`
    /// folds one vote into the running `u64` state (`true` = the voter
    /// fired; a tally fits directly, an `f64` partial sum travels as its
    /// bit pattern), and `decide` maps a final state to the ensemble's
    /// output. This is the two-alternative case of
    /// [`staged_vote_fold`](Bdd::staged_vote_fold) — one stage per voter,
    /// whose guard is the voter's region and whose "otherwise" branch is
    /// the vote not firing — and shares all of its machinery: the
    /// manager-owned memo table, the state-space cap, and the
    /// [`ReorderPolicy::OnPressure`] restart and sift-and-retry on budget
    /// pressure.
    pub fn vote_fold(
        &mut self,
        voters: &[NodeRef],
        initial: u64,
        cast: &impl Fn(usize, u64, bool) -> u64,
        decide: &impl Fn(u64) -> bool,
        vote_node_bound: usize,
    ) -> Result<NodeRef, BddError> {
        let stages: Vec<Vec<NodeRef>> = voters.iter().map(|&v| vec![v]).collect();
        self.staged_vote_fold(
            &stages,
            initial,
            &|stage, alternative, state| cast(stage, state, alternative == 0),
            decide,
            vote_node_bound,
        )
    }

    /// Compiles a **staged** vote `decide(state after every stage)` into
    /// the diagram — the general additive-score fold behind
    /// [`vote_fold`](Bdd::vote_fold) and the GBDT leaf fold.
    ///
    /// Stage `t` chooses among `stages[t].len() + 1` mutually exclusive
    /// alternatives: alternative `j < stages[t].len()` is guarded by the
    /// diagram `stages[t][j]`, and the last alternative (index
    /// `stages[t].len()`) is the implicit *otherwise* branch, taken when no
    /// guard holds. The guards of one stage must be **pairwise disjoint**
    /// (so the chained if-then-else tests are order-independent); when they
    /// are also exhaustive with the otherwise-alternative (a regression
    /// tree's leaf cubes), every input takes exactly one alternative per
    /// stage. `cast(stage, alternative, state)` advances the `u64` state —
    /// a tally directly, or an `f64` partial sum as its bit pattern.
    ///
    /// Staging is what keeps multi-way voters tractable: a gradient-boosted
    /// tree with `k` leaves folded as `k` independent binary voters would
    /// enumerate abstract subsets of leaves (`2^k` states per tree), while
    /// one stage with `k` alternatives enumerates only the states one
    /// firing leaf per tree can reach.
    ///
    /// Memoization is keyed on `(stage, state)` in a table **owned by the
    /// manager** — cleared, allocation kept — so repeated folds on one
    /// manager reuse the allocation. The table is capped at
    /// `vote_node_bound` entries: distinct `(stage, state)` pairs are
    /// exactly the nodes of the abstract vote branching program, and
    /// bounding them keeps the fold fail-fast even when every ITE collapses
    /// to a constant (the diagram stays tiny while the state space — e.g.
    /// pairwise-distinct float partial sums — still grows exponentially).
    ///
    /// Under [`ReorderPolicy::OnPressure`], the first fold step that blows
    /// the node budget abandons the fold: the memo and every intermediate
    /// are dropped, the guards alone are [sifted](Bdd::sift), and the fold
    /// reruns from stage 0. A step of the rerun that blows the budget
    /// sifts everything the fold still holds and retries, a bounded
    /// number of times, before reporting
    /// [`BddError::TooManyNodes`]. The state-space cap above is never
    /// retried (reordering cannot merge distinct vote states).
    pub fn staged_vote_fold(
        &mut self,
        stages: &[Vec<NodeRef>],
        initial: u64,
        cast: &impl Fn(usize, usize, u64) -> u64,
        decide: &impl Fn(u64) -> bool,
        vote_node_bound: usize,
    ) -> Result<NodeRef, BddError> {
        let mut memo = std::mem::take(&mut self.vote_memo);
        memo.clear();
        // The memo holds one entry per reachable abstract vote state; the
        // product of per-stage alternative counts bounds that from above.
        // Reserving up front (capped by the state budget and a sanity
        // ceiling) avoids rehashing the table several times mid-fold.
        let state_space = stages
            .iter()
            .try_fold(1usize, |acc, s| acc.checked_mul(s.len() + 1))
            .unwrap_or(usize::MAX);
        memo.reserve(state_space.min(vote_node_bound).min(1 << 13));
        let guards: Vec<NodeRef> = stages.iter().flatten().copied().collect();
        let mut ctx = FoldCtx {
            stages,
            guards: &guards,
            cast,
            decide,
            bound: vote_node_bound,
            sift_in_flight: false,
        };
        // Intermediate fold results alive across recursive calls; the
        // pressure sift must treat them as roots.
        let mut protect: Vec<NodeRef> = Vec::new();
        self.fold_sifts = 0;
        let result = loop {
            match self.staged_fold_rec(&ctx, 0, initial, &mut memo, &mut protect) {
                Err(FoldStop::Nodes(_))
                    if self.policy == ReorderPolicy::OnPressure && !ctx.sift_in_flight =>
                {
                    // First rung: abandon the attempt, sift the voters alone
                    // (collecting the memo and every intermediate) and fold
                    // again from stage 0 under the better order.
                    memo.clear();
                    protect.clear();
                    self.sift(&guards);
                    ctx.sift_in_flight = true;
                }
                other => break other.map_err(FoldStop::error),
            }
        };
        // Hand the allocation back to the manager even on failure.
        self.vote_memo = memo;
        result
    }

    fn staged_fold_rec<C: Fn(usize, usize, u64) -> u64, D: Fn(u64) -> bool>(
        &mut self,
        ctx: &FoldCtx<'_, C, D>,
        stage: usize,
        state: u64,
        memo: &mut FxHashMap<(u32, u64), NodeRef>,
        protect: &mut Vec<NodeRef>,
    ) -> Result<NodeRef, FoldStop> {
        if stage == ctx.stages.len() {
            return Ok(self.constant((ctx.decide)(state)));
        }
        if let Some(&r) = memo.get(&(stage as u32, state)) {
            return Ok(r);
        }
        if memo.len() >= ctx.bound {
            return Err(FoldStop::States(BddError::TooManyNodes {
                nodes: memo.len() + 1,
                bound: ctx.bound,
            }));
        }
        let alts = &ctx.stages[stage];
        // Build the if-then-else chain from the otherwise-branch backwards:
        // acc = g₀ ? s₀ : (g₁ ? s₁ : (… : s_otherwise)).
        let mut acc = self.staged_fold_rec(
            ctx,
            stage + 1,
            (ctx.cast)(stage, alts.len(), state),
            memo,
            protect,
        )?;
        for j in (0..alts.len()).rev() {
            // `acc` must survive any pressure sift happening below `sub`.
            protect.push(acc);
            let sub =
                self.staged_fold_rec(ctx, stage + 1, (ctx.cast)(stage, j, state), memo, protect);
            protect.pop();
            acc = self.pressure_ite(ctx, alts[j], sub?, acc, memo, protect)?;
        }
        memo.insert((stage as u32, state), acc);
        Ok(acc)
    }

    /// [`ite`](Bdd::ite) with the fold's in-flight pressure response: once
    /// an attempt has restarted from sifted voters
    /// ([`FoldCtx::sift_in_flight`]), a blown node budget triggers one
    /// garbage-collecting [sift](Bdd::sift) over everything the fold still
    /// needs — the stage guards, every memoized partial diagram, the
    /// in-flight intermediates, and this step's operands — and one retry,
    /// at most [`MAX_FOLD_SIFTS`] times per fold.
    fn pressure_ite<C, D>(
        &mut self,
        ctx: &FoldCtx<'_, C, D>,
        f: NodeRef,
        g: NodeRef,
        h: NodeRef,
        memo: &FxHashMap<(u32, u64), NodeRef>,
        protect: &[NodeRef],
    ) -> Result<NodeRef, FoldStop> {
        match self.ite(f, g, h) {
            Err(BddError::TooManyNodes { .. })
                if ctx.sift_in_flight && self.fold_sifts < MAX_FOLD_SIFTS =>
            {
                self.fold_sifts += 1;
                let mut roots: Vec<NodeRef> =
                    Vec::with_capacity(ctx.guards.len() + memo.len() + protect.len() + 3);
                roots.extend_from_slice(ctx.guards);
                roots.extend(memo.values().copied());
                roots.extend_from_slice(protect);
                roots.extend([f, g, h]);
                self.sift(&roots);
                self.ite(f, g, h).map_err(FoldStop::Nodes)
            }
            other => other.map_err(FoldStop::Nodes),
        }
    }

    /// Number of root-to-sink paths under `root`, saturated at `cap`
    /// (paths, not nodes: a small DAG can have exponentially many).
    fn path_count(&self, root: NodeRef, cap: usize) -> usize {
        if root == Bdd::FALSE || root == Bdd::TRUE {
            return 1;
        }
        // Dense per-slot tables: the sweep touches every reachable node
        // exactly once, and arena-indexed vectors beat a hash map on that
        // walk. A separate `done` bitmap (instead of a sentinel count)
        // keeps every saturated value — including `usize::MAX` — distinct
        // from "not computed yet".
        let mut counts = vec![0usize; self.nodes.len()];
        let mut done = vec![false; self.nodes.len()];
        let resolved = |counts: &[usize], done: &[bool], r: NodeRef| -> Option<usize> {
            if r == Bdd::FALSE || r == Bdd::TRUE {
                Some(1)
            } else if done[r.0 as usize - 2] {
                Some(counts[r.0 as usize - 2])
            } else {
                None
            }
        };
        // Post-order without recursion: push unresolved children first
        // (sinks are always resolved, so only decision nodes are stacked).
        let mut stack = vec![root];
        while let Some(&r) = stack.last() {
            let slot = r.0 as usize - 2;
            if done[slot] {
                stack.pop();
                continue;
            }
            let n = self.node(r);
            match (
                resolved(&counts, &done, n.lo),
                resolved(&counts, &done, n.hi),
            ) {
                (Some(lo), Some(hi)) => {
                    counts[slot] = lo.saturating_add(hi).min(cap);
                    done[slot] = true;
                    stack.pop();
                }
                (lo, hi) => {
                    if lo.is_none() {
                        stack.push(n.lo);
                    }
                    if hi.is_none() {
                        stack.push(n.hi);
                    }
                }
            }
        }
        counts[root.0 as usize - 2]
    }

    /// The root-to-sink path cubes of the function: a **disjoint and
    /// exhaustive** cover of the input space. Every assignment follows
    /// exactly one path (the diagram is deterministic and ordered), so each
    /// input satisfies exactly one cube, whose `value` is the function's
    /// output on that input.
    ///
    /// Fails with [`BddError::TooManyCubes`] when the cover would exceed the
    /// manager's budget — path counts can be exponential in the node count.
    pub fn cube_cover(&self, root: NodeRef) -> Result<Vec<BddCube>, BddError> {
        let total = self.path_count(root, self.bound.saturating_add(1));
        if total > self.bound {
            return Err(BddError::TooManyCubes {
                cubes: total,
                bound: self.bound,
            });
        }
        let mut cover = Vec::with_capacity(total);
        // DFS over one shared literal prefix: each entry restores the
        // prefix to its depth and appends its own literal, so only the
        // emitted cubes are materialized — no per-node prefix clones.
        // A frame: the node to visit, the prefix depth to restore, and the
        // literal this edge contributes (None at the root).
        type CoverFrame = (NodeRef, usize, Option<(u32, bool)>);
        let mut lits: Vec<(u32, bool)> = Vec::new();
        let mut stack: Vec<CoverFrame> = vec![(root, 0, None)];
        while let Some((r, depth, lit)) = stack.pop() {
            lits.truncate(depth);
            if let Some(l) = lit {
                lits.push(l);
            }
            if r == Bdd::TRUE || r == Bdd::FALSE {
                cover.push(BddCube {
                    lits: lits.clone(),
                    value: r == Bdd::TRUE,
                });
                continue;
            }
            let n = self.node(r);
            let depth = lits.len();
            stack.push((n.hi, depth, Some((n.var, true))));
            stack.push((n.lo, depth, Some((n.var, false))));
        }
        Ok(cover)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force check that a cover partitions `{0,1}^n` and agrees with
    /// the diagram on every input.
    fn assert_cover_partitions(bdd: &Bdd, root: NodeRef, n: usize) {
        let cover = bdd.cube_cover(root).expect("within budget");
        for bits in 0u32..(1 << n) {
            let assignment: Vec<bool> = (0..n).map(|k| bits >> k & 1 == 1).collect();
            let matching: Vec<&BddCube> = cover
                .iter()
                .filter(|c| c.lits.iter().all(|&(v, p)| assignment[v as usize] == p))
                .collect();
            assert_eq!(matching.len(), 1, "input {assignment:?}");
            assert_eq!(matching[0].value, bdd.eval(root, &assignment));
        }
    }

    /// Asserts the reduced/hash-consed invariants over the live nodes:
    /// no redundant tests, no duplicated contents, children strictly below
    /// their parent in the current order, and a consistent unique table.
    fn assert_reduced(bdd: &Bdd) {
        let mut seen = std::collections::HashSet::new();
        for (i, n) in bdd.nodes.iter().enumerate() {
            if *n == Node::FREE {
                continue;
            }
            assert_ne!(n.lo, n.hi, "redundant test survived at slot {i}");
            assert!(seen.insert(*n), "duplicate content {n:?} at slot {i}");
            let parent_level = bdd.level_of[n.var as usize];
            for child in [n.lo, n.hi] {
                assert!(
                    bdd.level_of_ref(child) > parent_level,
                    "child above parent at slot {i}"
                );
            }
            assert_eq!(
                bdd.unique.get(n),
                Some(&NodeRef(i as u32 + 2)),
                "unique table out of sync at slot {i}"
            );
        }
    }

    /// The classic order-sensitive function: `(x0∧x3) ∨ (x1∧x4) ∨ (x2∧x5)`.
    /// Under the identity (interleaved) order its diagram is exponential in
    /// the number of pairs; with the pairs adjacent it is linear.
    fn disjoint_pairs(bdd: &mut Bdd, pairs: u32) -> NodeRef {
        let mut f = bdd.constant(false);
        for i in 0..pairs {
            let a = bdd.literal(i, true).unwrap();
            let b = bdd.literal(i + pairs, true).unwrap();
            let both = bdd.and(a, b).unwrap();
            f = bdd.or(f, both).unwrap();
        }
        f
    }

    #[test]
    fn literal_and_constants_evaluate() {
        let mut bdd = Bdd::new();
        assert_eq!(bdd.constant(true), Bdd::TRUE);
        assert_eq!(bdd.constant(false), Bdd::FALSE);
        let x = bdd.literal(2, true).unwrap();
        assert!(bdd.eval(x, &[false, false, true]));
        assert!(!bdd.eval(x, &[true, true, false]));
        let nx = bdd.literal(2, false).unwrap();
        assert!(bdd.eval(nx, &[false, false, false]));
    }

    #[test]
    fn ite_implements_the_connectives() {
        let mut bdd = Bdd::new();
        let x = bdd.literal(0, true).unwrap();
        let y = bdd.literal(1, true).unwrap();
        let and = bdd.and(x, y).unwrap();
        let or = bdd.or(x, y).unwrap();
        let not = bdd.not(x).unwrap();
        for bits in 0u32..4 {
            let a = [bits & 1 == 1, bits & 2 == 2];
            assert_eq!(bdd.eval(and, &a), a[0] && a[1]);
            assert_eq!(bdd.eval(or, &a), a[0] || a[1]);
            assert_eq!(bdd.eval(not, &a), !a[0]);
        }
    }

    #[test]
    fn hash_consing_shares_equal_functions() {
        let mut bdd = Bdd::new();
        let x = bdd.literal(0, true).unwrap();
        let y = bdd.literal(1, true).unwrap();
        let a = bdd.and(x, y).unwrap();
        let b = bdd.and(y, x).unwrap();
        assert_eq!(a, b, "∧ is commutative and nodes are hash-consed");
        // De Morgan: ¬(x ∧ y) == ¬x ∨ ¬y, again a single shared node.
        let na = bdd.not(a).unwrap();
        let nx = bdd.not(x).unwrap();
        let ny = bdd.not(y).unwrap();
        let de_morgan = bdd.or(nx, ny).unwrap();
        assert_eq!(na, de_morgan);
    }

    #[test]
    fn reduction_removes_redundant_tests() {
        let mut bdd = Bdd::new();
        let x = bdd.literal(0, true).unwrap();
        // (x ∧ y) ∨ (¬x ∧ y) reduces to y: no test on x survives.
        let y = bdd.literal(1, true).unwrap();
        let f = bdd.ite(x, y, y).unwrap();
        assert_eq!(f, y);
    }

    #[test]
    fn node_budget_is_enforced() {
        let mut bdd = Bdd::with_node_budget(2);
        let x = bdd.literal(0, true).unwrap();
        let y = bdd.literal(1, true).unwrap();
        let err = bdd.and(x, y).expect_err("third node exceeds the bound");
        assert!(
            matches!(err, BddError::TooManyNodes { nodes: 3, bound: 2 }),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn cube_cover_partitions_the_space() {
        let mut bdd = Bdd::new();
        let x0 = bdd.literal(0, true).unwrap();
        let x1 = bdd.literal(1, true).unwrap();
        let x2 = bdd.literal(2, true).unwrap();
        let n1 = bdd.not(x1).unwrap();
        let xor = bdd.ite(x0, n1, x1).unwrap();
        let f = bdd.or(xor, x2).unwrap();
        assert_cover_partitions(&bdd, f, 3);
    }

    #[test]
    fn constant_cover_is_one_empty_cube() {
        let bdd = Bdd::new();
        let cover = bdd.cube_cover(Bdd::TRUE).unwrap();
        assert_eq!(
            cover,
            vec![BddCube {
                lits: Vec::new(),
                value: true
            }]
        );
    }

    #[test]
    fn cube_budget_is_enforced() {
        // A parity function over k variables has 2^k paths but only k nodes
        // per level; with a budget below the path count, extraction fails
        // while construction succeeds.
        let mut bdd = Bdd::with_node_budget(64);
        let mut f = bdd.constant(false);
        for v in 0..5 {
            let x = bdd.literal(v, true).unwrap();
            let nf = bdd.not(f).unwrap();
            f = bdd.ite(x, nf, f).unwrap();
        }
        let mut small = bdd.clone();
        small.bound = 8;
        let err = small.cube_cover(f).expect_err("parity has 32 paths");
        assert!(matches!(err, BddError::TooManyCubes { cubes: 9, bound: 8 }));
        assert_eq!(bdd.cube_cover(f).unwrap().len(), 32);
    }

    #[test]
    fn errors_display() {
        let n = BddError::TooManyNodes {
            nodes: 10,
            bound: 5,
        };
        let c = BddError::TooManyCubes {
            cubes: 10,
            bound: 5,
        };
        assert!(n.to_string().contains("node budget"));
        assert!(c.to_string().contains("cube cover"));
    }

    #[test]
    fn adjacent_swap_preserves_semantics_and_reduction() {
        let mut bdd = Bdd::new();
        let f = disjoint_pairs(&mut bdd, 3);
        let expected: Vec<bool> = (0u32..64)
            .map(|bits| {
                let a: Vec<bool> = (0..6).map(|k| bits >> k & 1 == 1).collect();
                (a[0] && a[3]) || (a[1] && a[4]) || (a[2] && a[5])
            })
            .collect();
        // Walk a few swaps up and down the order, checking after each that
        // the handle still denotes the same function and the diagram stays
        // reduced and hash-consed.
        for level in [0usize, 2, 4, 1, 3, 0, 0, 4] {
            bdd.swap_adjacent_levels(level);
            assert_reduced(&bdd);
            for (bits, want) in expected.iter().enumerate() {
                let a: Vec<bool> = (0..6).map(|k| bits >> k & 1 == 1).collect();
                assert_eq!(bdd.eval(f, &a), *want, "input {a:?} after swap {level}");
            }
        }
        let mut order = bdd.variable_order().to_vec();
        order.sort_unstable();
        assert_eq!(
            order,
            (0..6).collect::<Vec<u32>>(),
            "order is a permutation"
        );
    }

    #[test]
    fn garbage_collection_reclaims_unreachable_nodes() {
        let mut bdd = Bdd::new();
        let f = disjoint_pairs(&mut bdd, 3);
        let live_before = bdd.reachable_count(&[f]);
        assert!(bdd.node_count() > live_before, "construction left garbage");
        bdd.collect_garbage(&[f]);
        assert_eq!(bdd.node_count(), live_before);
        assert_reduced(&bdd);
        // Collected slots are reused by later allocations.
        let before = bdd.nodes.len();
        let x = bdd.literal(1, true).unwrap();
        let y = bdd.literal(4, true).unwrap();
        bdd.and(x, y).unwrap();
        assert_eq!(bdd.nodes.len(), before, "allocation must reuse free slots");
    }

    #[test]
    fn sifting_preserves_cube_cover_semantics() {
        let mut bdd = Bdd::new();
        let f = disjoint_pairs(&mut bdd, 3);
        let before: Vec<bool> = (0u32..64)
            .map(|bits| {
                let a: Vec<bool> = (0..6).map(|k| bits >> k & 1 == 1).collect();
                bdd.eval(f, &a)
            })
            .collect();
        bdd.sift(&[f]);
        assert_reduced(&bdd);
        // Same satisfying set, and the reordered cover still partitions.
        for (bits, want) in before.iter().enumerate() {
            let a: Vec<bool> = (0..6).map(|k| bits >> k & 1 == 1).collect();
            assert_eq!(bdd.eval(f, &a), *want, "input {a:?}");
        }
        assert_cover_partitions(&bdd, f, 6);
    }

    /// Regression pin for the sifting win on a fixed vote circuit: the
    /// interleaved disjoint-pairs majority-style vote (`decide` fires when
    /// any pair voted) must shrink measurably under sifting. The pinned
    /// sizes fail loudly if the sweep heuristic regresses.
    #[test]
    fn sifting_shrinks_the_interleaved_pairs_vote_circuit() {
        let pairs = 4u32;
        let mut bdd = Bdd::new();
        let voters: Vec<NodeRef> = (0..pairs)
            .map(|i| {
                let a = bdd.literal(i, true).unwrap();
                let b = bdd.literal(i + pairs, true).unwrap();
                bdd.and(a, b).unwrap()
            })
            .collect();
        let root = bdd
            .vote_fold(
                &voters,
                0,
                &|_, tally, fired| tally + u64::from(fired),
                &|tally| tally >= 1,
                1 << 16,
            )
            .unwrap();
        let before = bdd.reachable_count(&[root]);
        bdd.sift(&[root]);
        let after = bdd.reachable_count(&[root]);
        assert!(
            after < before,
            "sifting must shrink {before} nodes, got {after}"
        );
        // Interleaved order: 2·(2^pairs - 1) nodes (the top half remembers
        // every subset of first elements); pairs-adjacent order: 2 per pair.
        assert_eq!(before, 30, "interleaved size drifted — update the pin");
        assert_eq!(after, 8, "sifted size drifted — update the pin");
        assert_reduced(&bdd);
        for bits in 0u32..(1 << (2 * pairs)) {
            let a: Vec<bool> = (0..2 * pairs).map(|k| bits >> k & 1 == 1).collect();
            let want = (0..pairs).any(|i| a[i as usize] && a[(i + pairs) as usize]);
            assert_eq!(bdd.eval(root, &a), want);
        }
    }

    #[test]
    fn on_pressure_fold_succeeds_where_off_fails() {
        // Six interleaved pairs: the identity order needs 2^6 + … nodes,
        // the pairs-adjacent order only 12. A budget between the two makes
        // the static fold fail and the sifting fold succeed.
        let pairs = 6u32;
        let build = |policy: ReorderPolicy, bound: usize| {
            let mut bdd = Bdd::with_node_budget(bound).with_reorder_policy(policy);
            let voters: Vec<NodeRef> = (0..pairs)
                .map(|i| {
                    let a = bdd.literal(i, true).unwrap();
                    let b = bdd.literal(i + pairs, true).unwrap();
                    bdd.and(a, b).unwrap()
                })
                .collect();
            let root = bdd.vote_fold(
                &voters,
                0,
                &|_, tally, fired| tally + u64::from(fired),
                &|tally| tally >= 1,
                bound,
            )?;
            Ok((bdd, root))
        };
        let bound = 48;
        let err = build(ReorderPolicy::Off, bound).map(|_| ()).unwrap_err();
        assert!(
            matches!(err, BddError::TooManyNodes { bound: 48, .. }),
            "unexpected error {err:?}"
        );
        let (bdd, root) = build(ReorderPolicy::OnPressure, bound).expect("sifting must fit");
        assert!(bdd.node_count() <= bound);
        // Each voter is one pair (two nodes under any order), so sifting
        // the voters alone cannot regroup the pairs: the restarted fold
        // blows the budget again and the second rung sifts in flight.
        assert_eq!(bdd.fold_sifts, 1, "the second rung must sift once");
        for bits in [0u32, 1, 65, 4095, 2080, 33] {
            let a: Vec<bool> = (0..2 * pairs).map(|k| bits >> k & 1 == 1).collect();
            let want = (0..pairs).any(|i| a[i as usize] && a[(i + pairs) as usize]);
            assert_eq!(bdd.eval(root, &a), want, "input bits {bits}");
        }
    }

    #[test]
    fn on_pressure_fold_restarts_from_sifted_voters() {
        // Six interleaved pairs again, but each voter spans two cyclically
        // adjacent pairs, so the voters alone are smaller with the pairs
        // grouped. Sifting them before the restart groups the pairs, and
        // the refold fits without any sift in flight.
        let pairs = 6u32;
        let bound = 96;
        let build = |policy: ReorderPolicy| {
            let mut bdd = Bdd::with_node_budget(bound).with_reorder_policy(policy);
            let mut voters = Vec::new();
            for i in 0..pairs {
                let mut voter = bdd.constant(false);
                for j in [i, (i + 1) % pairs] {
                    let a = bdd.literal(j, true)?;
                    let b = bdd.literal(j + pairs, true)?;
                    let both = bdd.and(a, b)?;
                    voter = bdd.or(voter, both)?;
                }
                voters.push(voter);
            }
            let root = bdd.vote_fold(
                &voters,
                0,
                &|_, tally, fired| tally + u64::from(fired),
                &|tally| tally >= 2,
                bound,
            )?;
            Ok((bdd, root))
        };
        let err = build(ReorderPolicy::Off).map(|_| ()).unwrap_err();
        assert!(
            matches!(err, BddError::TooManyNodes { bound: 96, .. }),
            "unexpected error {err:?}"
        );
        let (bdd, root) = build(ReorderPolicy::OnPressure).expect("the restart must fit");
        assert_eq!(bdd.fold_sifts, 0, "the restarted fold must not sift again");
        for bits in 0u32..(1 << (2 * pairs)) {
            let a: Vec<bool> = (0..2 * pairs).map(|k| bits >> k & 1 == 1).collect();
            let pair = |j: u32| a[j as usize] && a[(j + pairs) as usize];
            let votes = (0..pairs)
                .filter(|&i| pair(i) || pair((i + 1) % pairs))
                .count();
            assert_eq!(bdd.eval(root, &a), votes >= 2, "input bits {bits}");
        }
    }

    #[test]
    fn staged_fold_matches_direct_evaluation() {
        // Two three-way stages mimicking depth-1 regression trees: stage 0
        // splits on (x0, x1), stage 1 on (x2, x3); each alternative adds a
        // distinct weight and the decision thresholds the total.
        let mut bdd = Bdd::new();
        let x0 = bdd.literal(0, true).unwrap();
        let x1 = bdd.literal(1, true).unwrap();
        let nx1 = bdd.literal(1, false).unwrap();
        let x2 = bdd.literal(2, true).unwrap();
        let x3 = bdd.literal(3, true).unwrap();
        let nx3 = bdd.literal(3, false).unwrap();
        // Guards per stage are disjoint and, with the otherwise branch,
        // exhaustive: {x0∧x1, x0∧¬x1, otherwise ¬x0}.
        let s0a = bdd.and(x0, x1).unwrap();
        let s0b = bdd.and(x0, nx1).unwrap();
        let s1a = bdd.and(x2, x3).unwrap();
        let s1b = bdd.and(x2, nx3).unwrap();
        let stages = vec![vec![s0a, s0b], vec![s1a, s1b]];
        let weights = [[5i64, 2, -3], [1, -4, 2]];
        let root = bdd
            .staged_vote_fold(
                &stages,
                0u64,
                &|stage, alt, state| (state as i64 + weights[stage][alt]) as u64,
                &|state| (state as i64) >= 2,
                1 << 12,
            )
            .unwrap();
        for bits in 0u32..16 {
            let a: Vec<bool> = (0..4).map(|k| bits >> k & 1 == 1).collect();
            let pick = |stage: usize| {
                let (hi, lo) = (a[2 * stage], a[2 * stage + 1]);
                if hi && lo {
                    0
                } else if hi {
                    1
                } else {
                    2
                }
            };
            let total = weights[0][pick(0)] + weights[1][pick(1)];
            assert_eq!(bdd.eval(root, &a), total >= 2, "input {a:?}");
        }
        assert_cover_partitions(&bdd, root, 4);
    }

    #[test]
    fn vote_fold_state_cap_is_not_retried_by_reordering() {
        // Pairwise-distinct vote states under a constant decide(): every
        // ITE collapses to a terminal, so the reduced diagram never grows —
        // the memo cap must trip instead of letting the fold enumerate all
        // 2^50 states, even under OnPressure (reordering cannot merge
        // abstract vote states).
        for policy in [ReorderPolicy::Off, ReorderPolicy::OnPressure] {
            let mut bdd = Bdd::with_node_budget(64).with_reorder_policy(policy);
            let voters: Vec<NodeRef> = (0..50u32)
                .map(|v| bdd.literal(v, true).expect("within budget"))
                .collect();
            let err = bdd
                .vote_fold(
                    &voters,
                    0u64,
                    &|_, state, fired| (state << 1) | u64::from(fired),
                    &|_| true,
                    64,
                )
                .expect_err("the state space is 2^50");
            assert!(
                matches!(err, BddError::TooManyNodes { bound: 64, .. }),
                "unexpected error {err:?} under {policy:?}"
            );
        }
    }

    /// Today's sifting loop rebuilt from the public primitives alone: each
    /// swap is a standalone [`Bdd::swap_adjacent_levels`] and each size a
    /// full [`Bdd::reachable_count`] walk.
    fn reference_sift(bdd: &mut Bdd, roots: &[NodeRef]) {
        bdd.collect_garbage(roots);
        let levels = bdd.variable_order().len();
        let mut population = vec![0usize; levels];
        for n in bdd.nodes.iter().filter(|&&n| n != Node::FREE) {
            population[n.var as usize] += 1;
        }
        let mut vars: Vec<u32> = (0..levels as u32)
            .filter(|&v| population[v as usize] > 0)
            .collect();
        vars.sort_by_key(|&v| std::cmp::Reverse(population[v as usize]));
        let step = |bdd: &mut Bdd, level: usize| {
            bdd.swap_adjacent_levels(level);
            bdd.reachable_count(roots)
        };
        for var in vars {
            bdd.collect_garbage(roots);
            let mut cur = bdd.level_of[var as usize] as usize;
            let mut best = cur;
            let mut best_size = bdd.reachable_count(roots);
            let grow_limit = best_size.saturating_mul(2).max(16);
            while cur + 1 < levels {
                let size = step(bdd, cur);
                cur += 1;
                if size < best_size {
                    (best_size, best) = (size, cur);
                }
                if size > grow_limit {
                    break;
                }
            }
            while cur > 0 {
                let size = step(bdd, cur - 1);
                cur -= 1;
                if size < best_size {
                    (best_size, best) = (size, cur);
                }
                if size > grow_limit {
                    break;
                }
            }
            while cur < best {
                step(bdd, cur);
                cur += 1;
            }
        }
        bdd.collect_garbage(roots);
    }

    /// A seeded random multi-root diagram over `vars` variables: each root
    /// folds random two-literal terms into the previous root with a random
    /// connective, so roots share structure and their sizes depend on the
    /// order.
    fn random_roots(bdd: &mut Bdd, seed: u64, vars: u32, roots: usize) -> Vec<NodeRef> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |bound: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % u64::from(bound)) as u32
        };
        let mut out = Vec::new();
        let mut f = bdd.constant(false);
        for _ in 0..roots {
            for _ in 0..12 {
                let a = bdd.literal(next(vars), next(2) == 1).unwrap();
                let b = bdd.literal(next(vars), next(2) == 1).unwrap();
                let term = bdd.and(a, b).unwrap();
                f = match next(3) {
                    0 => bdd.and(f, term).unwrap(),
                    1 => bdd.or(f, term).unwrap(),
                    _ => {
                        let nf = bdd.not(f).unwrap();
                        bdd.ite(term, nf, f).unwrap()
                    }
                };
            }
            out.push(f);
        }
        out
    }

    #[test]
    fn indexed_sift_matches_the_reference_sifter() {
        let vars = 10u32;
        for seed in 1..=24u64 {
            let mut bdd = Bdd::new();
            let roots = random_roots(&mut bdd, seed, vars, 4);
            let truth = |bdd: &Bdd| -> Vec<Vec<bool>> {
                (0u32..1 << vars)
                    .map(|bits| {
                        let a: Vec<bool> = (0..vars).map(|k| bits >> k & 1 == 1).collect();
                        roots.iter().map(|&r| bdd.eval(r, &a)).collect()
                    })
                    .collect()
            };
            let before = truth(&bdd);
            let mut reference = bdd.clone();
            reference_sift(&mut reference, &roots);
            // Test builds also check the tracked size against a full walk
            // after every swap of this sift.
            bdd.sift(&roots);
            assert_eq!(
                bdd.variable_order(),
                reference.variable_order(),
                "seed {seed}: sifted orders differ"
            );
            assert_eq!(
                bdd.reachable_count(&roots),
                reference.reachable_count(&roots),
                "seed {seed}: sifted sizes differ"
            );
            assert_eq!(bdd.node_count(), bdd.reachable_count(&roots));
            assert_reduced(&bdd);
            assert_eq!(
                truth(&bdd),
                before,
                "seed {seed}: a root changed its function"
            );
        }
    }
}
