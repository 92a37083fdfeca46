//! # modelcount
//!
//! Projected model counters for the MCML reproduction.
//!
//! Stand-ins for the two counters the paper uses:
//!
//! * [`exact`] — an exact projected counter (the role ProjMC plays in the
//!   paper): a count of the d-DNNF circuit that [`satkit::ddnnf::Compiler`]
//!   records while it searches the projection variables with
//!   connected-component decomposition and component caching;
//! * [`approx`] — an (ε, δ) approximate counter (the role ApproxMC plays):
//!   random XOR parity constraints over the projection set plus bounded
//!   enumeration per cell, with a median taken across rounds;
//! * [`brute`] — a 2ⁿ brute-force counter used as a test oracle at tiny
//!   scopes.

pub mod approx;
pub mod brute;
pub mod exact;

pub use approx::{ApproxConfig, ApproxCounter};
pub use exact::ExactCounter;
