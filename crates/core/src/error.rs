//! Typed errors for the evaluation core.
//!
//! The original API `panic!`ed on malformed inputs (e.g. evaluating a model
//! against a ground truth at a different scope). The redesigned entry
//! points — [`AccMc::evaluate`](crate::accmc::AccMc::evaluate),
//! [`DiffMc::compare`](crate::diffmc::DiffMc::compare) and the batch
//! [`Runner`](crate::framework::Runner) — surface these conditions as
//! [`EvalError`] values instead, so harnesses driving many rows can report
//! a bad row and keep going.

use std::error::Error;
use std::fmt;

/// An error raised by the evaluation core before any counting happens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The model's feature count does not match the variable block it is
    /// being evaluated against.
    FeatureMismatch {
        /// Features the model was trained on.
        model_features: usize,
        /// Primary variables of the ground truth (or features of the other
        /// model, for DiffMC).
        expected_features: usize,
        /// What the expectation came from (e.g. `"ground truth"`).
        context: &'static str,
    },
    /// A batch run was asked to evaluate zero model families.
    NoModelFamilies,
    /// An ensemble vote circuit — the AdaBoost weighted-vote branching
    /// program of the CNF encoding, or the feature-space vote BDD behind
    /// decision-region extraction — exceeded its node bound. With
    /// pairwise-distinct vote weights a weighted-vote diagram can reach
    /// `2^rounds` nodes; the bound turns that silent blow-up into a typed,
    /// reportable condition.
    VoteCircuitTooLarge {
        /// Nodes — or, for a cube-cover blow-up, extracted region cubes —
        /// materialized before the bound was hit.
        nodes: usize,
        /// The configured node bound.
        bound: usize,
    },
    /// An exact φ count exceeded the exact count of the space φ lives in,
    /// so ¬φ cannot be derived by subtraction. Only a counter or ground
    /// truth that disagrees with itself produces this; it is reported
    /// instead of a wrapped or zeroed count.
    CountUnderflow {
        /// Exact count of the space (the symmetry-breaking predicates).
        space: u128,
        /// Exact count of φ under the same cube.
        phi: u128,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::FeatureMismatch {
                model_features,
                expected_features,
                context,
            } => write!(
                f,
                "feature-count mismatch: the model under evaluation has {model_features} \
                 features but the {context} expects {expected_features}"
            ),
            EvalError::NoModelFamilies => {
                write!(f, "batch run configured with zero model families")
            }
            EvalError::VoteCircuitTooLarge { nodes, bound } => write!(
                f,
                "ensemble vote circuit exceeded its budget ({nodes} diagram \
                 nodes or region cubes materialized, bound {bound}); raise \
                 the vote-node budget or shrink the ensemble"
            ),
            EvalError::CountUnderflow { space, phi } => write!(
                f,
                "inconsistent counts: φ has {phi} models in a region whose \
                 space has only {space}"
            ),
        }
    }
}

impl Error for EvalError {}

/// Size blow-ups inside a [`satkit::bdd`] vote compilation (too many
/// diagram nodes, or a cube cover past the budget) all surface as
/// [`EvalError::VoteCircuitTooLarge`] — the caller's remedy is the same:
/// raise the vote-node budget, reduce the ensemble, or fall back to the
/// classic engine.
impl From<satkit::bdd::BddError> for EvalError {
    fn from(e: satkit::bdd::BddError) -> Self {
        match e {
            satkit::bdd::BddError::TooManyNodes { nodes, bound } => {
                EvalError::VoteCircuitTooLarge { nodes, bound }
            }
            satkit::bdd::BddError::TooManyCubes { cubes, bound } => {
                EvalError::VoteCircuitTooLarge {
                    nodes: cubes,
                    bound,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = EvalError::FeatureMismatch {
            model_features: 9,
            expected_features: 16,
            context: "ground truth",
        };
        let msg = e.to_string();
        assert!(msg.contains('9') && msg.contains("16") && msg.contains("ground truth"));
        assert!(EvalError::NoModelFamilies.to_string().contains("zero"));
    }
}
