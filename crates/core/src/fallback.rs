//! Graceful degradation: the budget-fallback ladder from exact counting to
//! a symmetry-broken exact retry to (ε, δ)-approximate per-region counts.
//!
//! The exact engines answer [`CountOutcome::BudgetExhausted`] when a
//! decision/node allowance blows, and by default that kills the whole table
//! row. [`FallbackPolicy`] lets the query plan fail soft instead, climbing a
//! typed ladder per conditioned count:
//!
//! 1. **Exact** — whatever the configured backend produced. Anything other
//!    than `BudgetExhausted` passes through untouched.
//! 2. **Symmetry-broken exact retry, verified** — conjoin the
//!    [`relspec::symmetry`] lex-leader predicates for
//!    [`SymmetryBreaking::Full`] onto the query, shrinking the space by the
//!    orbit structure of the property, and recount exactly under a fresh
//!    allowance. The constrained count is scaled back to the full space by
//!    the correction factor `kept(baked) / kept(Full)` — the ratio of
//!    lex-leader representatives admitted by the symmetry already baked
//!    into the formula to those admitted by the full generator set. That
//!    scaling is an orbit-average heuristic (decision-region cubes are not
//!    symmetry-invariant), so on its own it carries **no** (ε, δ)
//!    guarantee. It is therefore never reported unverified: the ladder
//!    always computes the rung-3 anchor at the tightened tolerance
//!    ε′ = √(1+ε) − 1 and accepts the rung-2 value only when it lies
//!    inside the anchor's `[a/(1+ε′), a·(1+ε′)]` band. Since the anchor is
//!    within `1+ε′` of the truth with probability ≥ 1 − δ, an accepted
//!    rung-2 value is within `(1+ε′)² = 1+ε` of the truth with the same
//!    probability — the advertised label holds either way.
//! 3. **(ε, δ)-approximate count** — the
//!    [`modelcount::approx`] XOR-hash counter over the conditioned query,
//!    run at ε′ so it doubles as the rung-2 verifier. The seed is derived
//!    from [`cnf_cube_fingerprint`], i.e. from the `(formula, region
//!    cube)` pair itself, so the estimate for a given region is one
//!    deterministic value no matter which scheduler thread reaches it
//!    first or in what order.
//!
//! The ladder always lands: rung 3 is enumeration-based and has no budget,
//! so an enabled policy turns every `BudgetExhausted` into an `Approx`
//! outcome that genuinely satisfies the policy's (ε, δ). Aggregation then
//! follows the existing largest-ε / union-bound-δ rules into
//! `AccMcResult::approx` / `DiffMcResult::approx`, and degraded rows are
//! marked `A` in the reports.

use crate::counter::{cnf_cube_fingerprint, CountOutcome};
use modelcount::approx::{ApproxConfig, ApproxCounter};
use modelcount::exact::ExactCounter;
use relspec::symmetry::{symmetry_breaking_expr, SymmetryBreaking};
use satkit::cnf::{Cnf, Lit, Var};
use satkit::expr::TseitinEncoder;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// Fresh decision budget for the rung-2 exact retry and for the one-off
/// lex-leader representative counts behind its correction factor. Matches
/// the table harness' default `--budget`; if the symmetry-broken query
/// blows this too, the ladder falls through to rung 3.
const RETRY_NODE_BUDGET: u64 = 20_000_000;

/// What a query plan does when a count comes back `BudgetExhausted`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FallbackPolicy {
    /// Propagate the exhaustion: the row reports no whole-space result
    /// (today's behavior, and the default).
    #[default]
    Fail,
    /// Climb the ladder: symmetry-broken exact retry, then per-region
    /// (ε, δ)-approximate counts with deterministic seeds.
    SymmetryThenApprox {
        /// Multiplicative tolerance of the rung-3 estimate.
        epsilon: f64,
        /// Failure probability of the rung-3 guarantee.
        delta: f64,
    },
}

impl FallbackPolicy {
    /// The degradation ladder with the approximate counter's default
    /// tolerances.
    pub fn approx() -> Self {
        let config = ApproxConfig::default();
        FallbackPolicy::SymmetryThenApprox {
            epsilon: config.epsilon,
            delta: config.delta,
        }
    }

    /// Whether the policy degrades instead of failing.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, FallbackPolicy::Fail)
    }

    /// Parses the `--fallback` CLI syntax: `exact`, `approx`, or
    /// `approx:EPS,DELTA`.
    pub fn parse(input: &str) -> Result<Self, String> {
        if input == "exact" {
            return Ok(FallbackPolicy::Fail);
        }
        if input == "approx" {
            return Ok(FallbackPolicy::approx());
        }
        if let Some(tolerances) = input.strip_prefix("approx:") {
            let parts: Vec<&str> = tolerances.split(',').collect();
            if let [eps, delta] = parts[..] {
                let epsilon: f64 = eps
                    .trim()
                    .parse()
                    .map_err(|_| format!("invalid fallback epsilon {:?}", eps.trim()))?;
                let delta: f64 = delta
                    .trim()
                    .parse()
                    .map_err(|_| format!("invalid fallback delta {:?}", delta.trim()))?;
                if epsilon.is_nan() || epsilon <= 0.0 {
                    return Err(format!("fallback epsilon must be > 0, got {epsilon}"));
                }
                if delta.is_nan() || delta <= 0.0 || delta >= 1.0 {
                    return Err(format!("fallback delta must be in (0, 1), got {delta}"));
                }
                return Ok(FallbackPolicy::SymmetryThenApprox { epsilon, delta });
            }
            return Err(format!(
                "invalid fallback tolerances {tolerances:?} (expected approx:EPS,DELTA)"
            ));
        }
        Err(format!(
            "unknown fallback policy {input:?} (expected exact or approx[:eps,delta])"
        ))
    }
}

impl fmt::Display for FallbackPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FallbackPolicy::Fail => write!(f, "exact"),
            FallbackPolicy::SymmetryThenApprox { epsilon, delta } => {
                write!(f, "approx:{epsilon},{delta}")
            }
        }
    }
}

/// The per-evaluation rescue plan: an enabled [`FallbackPolicy`] bound to
/// what the plan knows about the query space — whether it is an `n × n`
/// adjacency matrix (rung 2 needs the scope to build lex-leader
/// predicates) and which symmetry breaking is already baked into the
/// formulas (rung 2's correction factor).
#[derive(Debug, Clone, Copy)]
pub struct FallbackLadder {
    epsilon: f64,
    delta: f64,
    scope: Option<usize>,
    baked: SymmetryBreaking,
}

impl FallbackLadder {
    /// Builds the ladder, or `None` under [`FallbackPolicy::Fail`].
    /// `scope` is `Some(n)` when the projected variables are the cells of
    /// an `n × n` adjacency matrix; `baked` names the symmetry-breaking
    /// predicates already conjoined into the formulas being counted.
    pub fn new(
        policy: FallbackPolicy,
        scope: Option<usize>,
        baked: SymmetryBreaking,
    ) -> Option<Self> {
        match policy {
            FallbackPolicy::Fail => None,
            FallbackPolicy::SymmetryThenApprox { epsilon, delta } => Some(FallbackLadder {
                epsilon,
                delta,
                scope,
                baked,
            }),
        }
    }

    /// Rescues one exhausted conditioned count `cnf ∧ cube` into an
    /// [`CountOutcome::Approx`] that genuinely satisfies the policy's
    /// (ε, δ). Never returns `BudgetExhausted`.
    ///
    /// The rung-3 anchor always runs, at the tightened tolerance
    /// `verification_epsilon(ε)` — it is the only rung with a PAC
    /// guarantee. The rung-2 orbit-scaled exact count, when available and
    /// inside the anchor's band, replaces the anchor as the reported
    /// estimate (it is typically far closer to the truth than a hash
    /// estimate); outside the band it is discarded as the heuristic it is.
    pub fn rescue(&self, cnf: &Cnf, cube: &[Lit]) -> CountOutcome {
        let anchor_epsilon = verification_epsilon(self.epsilon);
        let anchor = match approx_conditioned(cnf, cube, anchor_epsilon, self.delta) {
            CountOutcome::Approx { estimate, .. } => estimate,
            other => return other,
        };
        let estimate = match self.symmetry_retry(cnf, cube) {
            Some(scaled) if within_band(scaled, anchor, anchor_epsilon) => scaled,
            _ => anchor,
        };
        CountOutcome::Approx {
            estimate,
            epsilon: self.epsilon,
            delta: self.delta,
        }
    }

    /// Rung 2: recount `cnf ∧ SB_full ∧ cube` exactly under a fresh
    /// allowance and scale back to the full space in integer arithmetic
    /// (round-half-up), so counts past 2^53 lose no precision. `None`
    /// when the space shape is unknown, the formula is already fully
    /// broken, the constrained count blows the fresh budget too, or the
    /// scaling overflows `u128`.
    fn symmetry_retry(&self, cnf: &Cnf, cube: &[Lit]) -> Option<u128> {
        let n = self.scope?;
        if self.baked == SymmetryBreaking::Full {
            return None;
        }
        let kept_full = kept_count(n, SymmetryBreaking::Full)?;
        let kept_baked = kept_count(n, self.baked)?;
        if kept_full == 0 {
            return None;
        }
        let mut constrained = cnf.clone();
        conjoin_symmetry(&mut constrained, n, SymmetryBreaking::Full);
        for &lit in cube {
            constrained.add_unit(lit);
        }
        let constrained_count =
            ExactCounter::with_node_budget(RETRY_NODE_BUDGET).count(&constrained)?;
        constrained_count
            .checked_mul(kept_baked)?
            .checked_add(kept_full / 2)?
            .checked_div(kept_full)
    }
}

/// The tightened rung-3 tolerance ε′ with `(1+ε′)² ≤ 1+ε`: an anchor
/// within `1+ε′` of the truth certifies any value inside its `1+ε′` band
/// as within `1+ε` of the truth. The nominal √(1+ε) − 1 is shaved by one
/// part in 10⁹ so f64 rounding in the square root can never push the
/// squared factor past `1+ε`.
fn verification_epsilon(epsilon: f64) -> f64 {
    ((1.0 + epsilon).sqrt() - 1.0) * (1.0 - 1e-9)
}

/// Whether `candidate` lies in `[anchor/(1+epsilon), anchor·(1+epsilon)]`.
/// The band is shrunk by one part in 10⁹ so u128→f64 conversion and
/// multiplication rounding only ever *reject* a borderline candidate
/// (which falls back to the anchor — still guaranteed), never accept one
/// outside the true band.
fn within_band(candidate: u128, anchor: u128, epsilon: f64) -> bool {
    let factor = (1.0 + epsilon) * (1.0 - 1e-9);
    let (candidate, anchor) = (candidate as f64, anchor as f64);
    candidate <= anchor * factor && anchor <= candidate * factor
}

/// Rescues the outcomes of a batched [`count_cubes`] call. Batch counters
/// may stop at the first `BudgetExhausted` outcome and omit the rest, so
/// every cube from the first exhaustion on — reported or not — is rescued
/// individually. With no ladder the outcomes pass through untouched.
///
/// [`count_cubes`]: crate::counter::QueryCounter::count_cubes
pub(crate) fn rescue_batch(
    ladder: Option<&FallbackLadder>,
    cnf: &Cnf,
    cubes: &[&[Lit]],
    mut outcomes: Vec<CountOutcome>,
) -> Vec<CountOutcome> {
    let Some(ladder) = ladder else {
        return outcomes;
    };
    for (index, cube) in cubes.iter().enumerate() {
        if index >= outcomes.len() {
            outcomes.push(ladder.rescue(cnf, cube));
        } else if outcomes[index].is_budget_exhausted() {
            outcomes[index] = ladder.rescue(cnf, cube);
        }
    }
    outcomes
}

/// Rung 3 directly: the XOR-hash (ε, δ) estimate of `cnf ∧ cube` with the
/// deterministic per-`(formula, cube)` seed. Exposed for `mcml-serve`,
/// which answers degraded units without a plan-level ladder.
pub fn approx_conditioned(cnf: &Cnf, cube: &[Lit], epsilon: f64, delta: f64) -> CountOutcome {
    let seed = derive_seed(cnf, cube);
    let mut conditioned = cnf.clone();
    for &lit in cube {
        conditioned.add_unit(lit);
    }
    let counter = ApproxCounter::new(ApproxConfig {
        epsilon,
        delta,
        seed,
    });
    CountOutcome::Approx {
        estimate: counter.count(&conditioned),
        epsilon,
        delta,
    }
}

/// The deterministic rung-3 seed: a fold of [`cnf_cube_fingerprint`], so it
/// depends only on the conditioned query (which encodes property, scope and
/// region), never on scheduler order or thread count.
pub fn derive_seed(cnf: &Cnf, cube: &[Lit]) -> u64 {
    let fingerprint = cnf_cube_fingerprint(cnf, cube);
    (fingerprint >> 64) as u64 ^ fingerprint as u64
}

/// How many of the `2^(n²)` adjacency matrices the lex-leader predicates
/// for `sb` keep. Counted once per `(n, sb)` per process (an exact
/// projected count of the standalone predicate CNF) and memoized; `None`
/// if even that count blows the retry budget.
fn kept_count(n: usize, sb: SymmetryBreaking) -> Option<u128> {
    let num_primary = n * n;
    if !sb.is_enabled() {
        if num_primary >= 128 {
            return None;
        }
        return Some(1u128 << num_primary);
    }
    type KeptMemo = Mutex<HashMap<(usize, SymmetryBreaking), Option<u128>>>;
    static KEPT: OnceLock<KeptMemo> = OnceLock::new();
    let memo = KEPT.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(&cached) = memo.lock().expect("kept-count memo poisoned").get(&(n, sb)) {
        return cached;
    }
    let mut encoder = TseitinEncoder::new(num_primary);
    let predicate = symmetry_breaking_expr(n, sb);
    encoder.assert(&predicate);
    let mut cnf = encoder.into_cnf();
    cnf.set_projection((0..num_primary as u32).map(Var).collect());
    let count = ExactCounter::with_node_budget(RETRY_NODE_BUDGET).count(&cnf);
    memo.lock()
        .expect("kept-count memo poisoned")
        .insert((n, sb), count);
    count
}

/// Conjoins the lex-leader predicates for `sb` over an `n × n` adjacency
/// matrix onto `cnf`. The predicates are Tseitin-encoded standalone and
/// their auxiliary variables are remapped past `cnf`'s existing ones, so
/// the two encodings never collide; `cnf`'s projection is frozen first so
/// the new auxiliaries stay outside the counted set.
fn conjoin_symmetry(cnf: &mut Cnf, n: usize, sb: SymmetryBreaking) {
    let num_primary = n * n;
    debug_assert!(cnf.num_vars() >= num_primary);
    if cnf.projection().is_empty() {
        cnf.set_projection((0..cnf.num_vars() as u32).map(Var).collect());
    }
    let mut encoder = TseitinEncoder::new(num_primary);
    let predicate = symmetry_breaking_expr(n, sb);
    encoder.assert(&predicate);
    let sb_cnf = encoder.into_cnf();
    let offset = cnf.num_vars() - num_primary;
    cnf.ensure_vars(cnf.num_vars() + (sb_cnf.num_vars() - num_primary));
    for clause in sb_cnf.clauses() {
        let remapped: Vec<Lit> = clause
            .iter()
            .map(|&lit| {
                let var = lit.var().index();
                if var < num_primary {
                    lit
                } else {
                    Lit::from_var(Var((var + offset) as u32), lit.is_positive())
                }
            })
            .collect();
        cnf.add_clause(remapped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modelcount::brute::brute_force_count;
    use relspec::properties::Property;
    use relspec::translate::{translate_to_cnf, TranslateOptions};

    #[test]
    fn policy_parsing_round_trips() {
        assert_eq!(
            FallbackPolicy::parse("exact").unwrap(),
            FallbackPolicy::Fail
        );
        assert_eq!(
            FallbackPolicy::parse("approx").unwrap(),
            FallbackPolicy::approx()
        );
        assert_eq!(
            FallbackPolicy::parse("approx:0.8,0.1").unwrap(),
            FallbackPolicy::SymmetryThenApprox {
                epsilon: 0.8,
                delta: 0.1
            }
        );
        assert!(FallbackPolicy::parse("maybe").is_err());
        assert!(FallbackPolicy::parse("approx:0.8").is_err());
        assert!(FallbackPolicy::parse("approx:0,0.1").is_err());
        assert!(FallbackPolicy::parse("approx:0.8,1.5").is_err());
        assert_eq!(
            FallbackPolicy::parse("approx:0.8,0.1").unwrap().to_string(),
            "approx:0.8,0.1"
        );
        assert_eq!(FallbackPolicy::Fail.to_string(), "exact");
    }

    #[test]
    fn fail_policy_builds_no_ladder() {
        assert!(
            FallbackLadder::new(FallbackPolicy::Fail, Some(3), SymmetryBreaking::None).is_none()
        );
        assert!(
            FallbackLadder::new(FallbackPolicy::approx(), Some(3), SymmetryBreaking::None)
                .is_some()
        );
    }

    #[test]
    fn conjoining_full_symmetry_matches_the_baked_translation() {
        // φ ∧ SB_full built by remapped conjunction must count exactly like
        // the translation that bakes Full in from the start.
        for property in [Property::Reflexive, Property::Antisymmetric] {
            let formula = property.spec();
            let plain = translate_to_cnf(&formula, TranslateOptions::new(3));
            let baked = translate_to_cnf(
                &formula,
                TranslateOptions::new(3).with_symmetry(SymmetryBreaking::Full),
            );
            let mut conjoined = plain.cnf_positive();
            conjoin_symmetry(&mut conjoined, 3, SymmetryBreaking::Full);
            let exact = ExactCounter::new();
            assert_eq!(
                exact.count(&conjoined),
                exact.count(baked.cnf_positive_ref()),
                "{} at scope 3",
                property.name()
            );
        }
    }

    #[test]
    fn kept_counts_match_brute_force_at_scope_3() {
        // 512 unconstrained matrices; Full keeps the 104 lex-leaders
        // (pinned by relspec::symmetry's own tests).
        assert_eq!(kept_count(3, SymmetryBreaking::None), Some(512));
        assert_eq!(kept_count(3, SymmetryBreaking::Full), Some(104));
        let transpositions = kept_count(3, SymmetryBreaking::Transpositions).unwrap();
        assert!((104..512).contains(&(transpositions as usize)));
    }

    #[test]
    fn verification_epsilon_squared_stays_within_the_policy_tolerance() {
        for epsilon in [0.05, 0.1, 0.4, 0.8, 1.0, 2.0, 10.0] {
            let inner = verification_epsilon(epsilon);
            assert!(
                inner > 0.0 && inner < epsilon,
                "ε′ out of range for {epsilon}"
            );
            assert!(
                (1.0 + inner) * (1.0 + inner) <= 1.0 + epsilon,
                "(1+ε′)² must not exceed 1+ε for {epsilon}"
            );
        }
    }

    #[test]
    fn band_check_rejects_candidates_outside_the_anchor_tolerance() {
        // ε′ for the default ε = 0.4 is ≈ 0.1832.
        let inner = verification_epsilon(0.4);
        assert!(within_band(100, 100, inner));
        assert!(within_band(110, 100, inner));
        assert!(within_band(100, 110, inner));
        assert!(!within_band(130, 100, inner));
        assert!(!within_band(100, 130, inner));
        assert!(within_band(0, 0, inner));
        assert!(!within_band(0, 100, inner));
        assert!(!within_band(100, 0, inner));
    }

    #[test]
    fn rescue_respects_the_advertised_tolerance() {
        // Rung 2 engages here (scope known, nothing baked), so this pins
        // the whole rescue — orbit-scaled value or anchor, whichever was
        // reported — inside the advertised 1+ε of the brute-force truth.
        let formula = Property::Transitive.spec();
        let truth = translate_to_cnf(&formula, TranslateOptions::new(3));
        let cnf = truth.cnf_positive_ref();
        let ladder =
            FallbackLadder::new(FallbackPolicy::approx(), Some(3), SymmetryBreaking::None).unwrap();
        for cube in [&[][..], &[Lit::pos(0)][..], &[Lit::pos(0), Lit::neg(4)][..]] {
            let mut conditioned = cnf.clone();
            for &lit in cube {
                conditioned.add_unit(lit);
            }
            let expected = brute_force_count(&conditioned);
            match ladder.rescue(cnf, cube) {
                CountOutcome::Approx {
                    estimate, epsilon, ..
                } => {
                    let (est, truth_count) = (estimate as f64, expected as f64);
                    assert!(
                        est <= truth_count * (1.0 + epsilon)
                            && truth_count <= est * (1.0 + epsilon),
                        "estimate {estimate} outside 1+{epsilon} of {expected}"
                    );
                }
                other => panic!("expected an approx outcome, got {other:?}"),
            }
        }
    }

    #[test]
    fn rescue_is_deterministic_and_never_exhausted() {
        let formula = Property::Transitive.spec();
        let truth = translate_to_cnf(&formula, TranslateOptions::new(3));
        let ladder =
            FallbackLadder::new(FallbackPolicy::approx(), Some(3), SymmetryBreaking::None).unwrap();
        let cube = [Lit::pos(0), Lit::neg(4)];
        let first = ladder.rescue(truth.cnf_positive_ref(), &cube);
        let second = ladder.rescue(truth.cnf_positive_ref(), &cube);
        assert_eq!(first, second, "rescue must not depend on call order");
        assert!(!first.is_budget_exhausted());
        assert!(matches!(first, CountOutcome::Approx { .. }));
    }

    #[test]
    fn approx_rung_is_exact_below_the_pivot() {
        // Scope-2 conditioned counts are far below the pivot (~121 at the
        // default ε), where the XOR-hash counter's base case enumerates
        // exactly.
        let formula = Property::Reflexive.spec();
        let truth = translate_to_cnf(&formula, TranslateOptions::new(2));
        let cnf = truth.cnf_positive_ref();
        for cube in [&[][..], &[Lit::pos(1)][..], &[Lit::neg(1), Lit::pos(2)][..]] {
            let mut conditioned = cnf.clone();
            for &lit in cube {
                conditioned.add_unit(lit);
            }
            let expected = brute_force_count(&conditioned);
            let config = ApproxConfig::default();
            match approx_conditioned(cnf, cube, config.epsilon, config.delta) {
                CountOutcome::Approx { estimate, .. } => assert_eq!(estimate, expected),
                other => panic!("expected an approx outcome, got {other:?}"),
            }
        }
    }

    #[test]
    fn rescue_batch_fills_in_omitted_tail_outcomes() {
        let formula = Property::Reflexive.spec();
        let truth = translate_to_cnf(&formula, TranslateOptions::new(2));
        let cnf = truth.cnf_positive_ref();
        let owned_cubes = [vec![], vec![Lit::pos(1)], vec![Lit::neg(2)]];
        let cubes: Vec<&[Lit]> = owned_cubes.iter().map(Vec::as_slice).collect();
        // A batch counter that exhausted on the second cube and omitted the
        // third entirely.
        let partial = vec![
            CountOutcome::Exact(4),
            CountOutcome::BudgetExhausted { nodes_used: 1 },
        ];
        let ladder =
            FallbackLadder::new(FallbackPolicy::approx(), None, SymmetryBreaking::None).unwrap();
        let rescued = rescue_batch(Some(&ladder), cnf, &cubes, partial.clone());
        assert_eq!(rescued.len(), 3);
        assert_eq!(rescued[0], CountOutcome::Exact(4));
        assert!(matches!(rescued[1], CountOutcome::Approx { .. }));
        assert!(matches!(rescued[2], CountOutcome::Approx { .. }));
        // Without a ladder the partial batch passes through untouched.
        assert_eq!(rescue_batch(None, cnf, &cubes, partial.clone()), partial);
    }
}
