//! The MCML repository benchmark: four workloads driven through the public
//! API, an untraced end-to-end measurement, a traced per-layer breakdown and
//! a correctness gate. See `perfbench/README.md` for the workloads, the
//! metrics and how to run them.

pub mod gate;
pub mod procfs;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;
