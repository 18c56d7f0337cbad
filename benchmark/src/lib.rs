//! The repository benchmark: four workloads timed on two clocks (host and
//! simulated), with per-layer host spans, isolated probes of the lower
//! layers and the simulated-clock account. See `README.md` beside this
//! package for every metric and why each workload exists.

pub mod account;
pub mod harness;
pub mod probes;
pub mod rng;
pub mod stats;
pub mod timed_backend;
pub mod trace;
pub mod workloads;
