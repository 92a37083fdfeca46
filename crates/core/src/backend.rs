//! Model-counter backend selection.
//!
//! MCML's tool supports two back-ends: the exact counter (ProjMC in the
//! paper, [`modelcount::exact`] here) and the approximate counter (ApproxMC
//! in the paper, [`modelcount::approx`] here); the reproduction adds a
//! third, the compile-once/query-many [`CompiledCounter`]. Both exact
//! backends run the same [`satkit::ddnnf`] search: the exact counter
//! counts each formula's circuit once and drops it, the compiled counter
//! caches the circuit and answers cube queries from it.
//! [`CounterBackend`] is a thin runtime selector among
//! them, kept for CLI-style call sites; the evaluation core itself is
//! generic over any [`ModelCounter`] (and
//! [`QueryCounter`](crate::counter::QueryCounter) for conditioned query
//! plans), which this enum implements. Counts are reported as structured
//! [`CountOutcome`] values.

use crate::counter::{CompiledCounter, CountOutcome, ModelCounter};
use modelcount::approx::{ApproxConfig, ApproxCounter};
use modelcount::exact::ExactCounter;
use satkit::cnf::Cnf;

/// A projected model-counting backend selector.
#[derive(Debug, Clone)]
pub enum CounterBackend {
    /// Exact counting (the ProjMC role); reports
    /// [`CountOutcome::BudgetExhausted`] when its decision budget runs out.
    Exact(ExactCounter),
    /// Approximate counting (the ApproxMC role).
    Approx(ApproxCounter),
    /// Exact counting through a cached d-DNNF compilation (the knowledge
    /// compilation lineage); clones share the circuit cache.
    Compiled(CompiledCounter),
}

impl CounterBackend {
    /// An exact backend with no budget.
    pub fn exact() -> Self {
        CounterBackend::Exact(ExactCounter::new())
    }

    /// An exact backend that gives up after `max_nodes` branching
    /// decisions.
    pub fn exact_with_budget(max_nodes: u64) -> Self {
        CounterBackend::Exact(ExactCounter::with_node_budget(max_nodes))
    }

    /// An approximate backend with default (ε, δ).
    pub fn approx() -> Self {
        CounterBackend::Approx(ApproxCounter::default())
    }

    /// An approximate backend with a specific configuration.
    pub fn approx_with(config: ApproxConfig) -> Self {
        CounterBackend::Approx(ApproxCounter::new(config))
    }

    /// A compiled (d-DNNF) backend with no compilation budget.
    pub fn compiled() -> Self {
        CounterBackend::Compiled(CompiledCounter::new())
    }

    /// A compiled backend that gives up on a formula after `max_decisions`
    /// compilation decisions.
    pub fn compiled_with_budget(max_decisions: u64) -> Self {
        CounterBackend::Compiled(CompiledCounter::with_decision_budget(max_decisions))
    }

    /// Short name for reports (`"exact"`, `"approx"` or `"compiled"`).
    pub fn name(&self) -> &'static str {
        match self {
            CounterBackend::Exact(_) => "exact",
            CounterBackend::Approx(_) => "approx",
            CounterBackend::Compiled(_) => "compiled",
        }
    }

    /// The tag the persisted count cache is keyed by. For the exact and
    /// compiled backends this is just [`CounterBackend::name`] — their
    /// outcomes mean the same thing under any configuration — but an
    /// approximate backend's estimates are only reusable under the *same*
    /// `(ε, δ, seed)`, so its tag spells the configuration out. A cache
    /// saved under one tolerance is therefore never served to a query
    /// demanding a tighter one: the file name and header simply don't
    /// match.
    pub fn cache_tag(&self) -> String {
        match self {
            CounterBackend::Exact(_) | CounterBackend::Compiled(_) => self.name().to_string(),
            CounterBackend::Approx(counter) => {
                let config = counter.config();
                format!(
                    "approx-e{}-d{}-s{:#x}",
                    config.epsilon, config.delta, config.seed
                )
            }
        }
    }

    /// The inner [`CompiledCounter`] when this is the compiled backend —
    /// the handle the artifact warm-start path needs for
    /// preloading/snapshotting circuits (a clone of it shares the cache).
    pub fn as_compiled(&self) -> Option<&CompiledCounter> {
        match self {
            CounterBackend::Compiled(c) => Some(c),
            _ => None,
        }
    }

    /// Counts the models of `cnf` projected onto its effective projection
    /// set (inherent convenience for [`ModelCounter::count`]).
    pub fn count(&self, cnf: &Cnf) -> CountOutcome {
        ModelCounter::count(self, cnf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satkit::cnf::Lit;

    #[test]
    fn both_backends_count_a_small_formula() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        assert_eq!(CounterBackend::exact().count(&cnf), CountOutcome::Exact(6));
        assert_eq!(CounterBackend::approx().count(&cnf).value(), Some(6));
        assert!(!CounterBackend::approx().count(&cnf).is_exact());
    }

    #[test]
    fn budgeted_exact_backend_gives_up() {
        let mut cnf = Cnf::new(20);
        for i in 0..19u32 {
            cnf.add_clause(vec![Lit::pos(i), Lit::pos(i + 1)]);
        }
        let outcome = CounterBackend::exact_with_budget(2).count(&cnf);
        assert!(outcome.is_budget_exhausted());
        match outcome {
            CountOutcome::BudgetExhausted { nodes_used } => assert!(nodes_used >= 2),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn names() {
        assert_eq!(CounterBackend::exact().name(), "exact");
        assert_eq!(CounterBackend::approx().name(), "approx");
    }

    #[test]
    fn cache_tags_distinguish_approx_configurations() {
        assert_eq!(CounterBackend::exact().cache_tag(), "exact");
        assert_eq!(CounterBackend::compiled().cache_tag(), "compiled");
        let defaults = CounterBackend::approx().cache_tag();
        let tighter = CounterBackend::approx_with(ApproxConfig {
            epsilon: 0.1,
            ..ApproxConfig::default()
        })
        .cache_tag();
        assert_ne!(defaults, tighter);
        assert!(defaults.starts_with("approx-e"));
        let reseeded = CounterBackend::approx_with(ApproxConfig {
            seed: 7,
            ..ApproxConfig::default()
        })
        .cache_tag();
        assert_ne!(defaults, reseeded);
    }
}
