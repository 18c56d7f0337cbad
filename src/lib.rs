//! # cronus — reproduction of CRONUS (MICRO 2022)
//!
//! This umbrella crate re-exports the whole workspace behind one dependency,
//! mirroring how the paper's artifact bundles its components:
//!
//! * [`sim`] — the simulated TrustZone-class machine (memory, page tables,
//!   TZASC/TZPC/SMMU, device tree, virtual time),
//! * [`obs`] — the flight recorder: spans, metrics and simulated-time
//!   attribution (see `OBSERVABILITY.md`),
//! * [`crypto`] — simulation-grade crypto for attestation and channels,
//! * [`devices`] — GPU / VTA-NPU / CPU simulators and the secure PCIe bus,
//! * [`mos`] — the MicroOS layer (Enclave Manager, HAL, shim kernel),
//! * [`spm`] — the Secure Partition Manager, secure monitor, attestation
//!   and the proceed-trap failover protocol,
//! * [`core`] — the MicroEnclave model, the Enclave Dispatcher and the
//!   streaming RPC (sRPC) protocol — the paper's contribution,
//! * [`audit`] — the isolation auditor: static verification of the
//!   mapping-state invariants plus the repo-rule source lint (see
//!   `AUDIT.md`),
//! * [`chaos`] — deterministic fault-injection campaigns against the sRPC
//!   pipeline (see `FAULTS.md`),
//! * [`forensics`] — the tamper-evident security-event ledger, proceed-trap
//!   black box and failure-timeline reconstructor (see `FORENSICS.md`),
//! * [`runtime`] — CUDA-like, VTA and CPU execution models,
//! * [`workloads`] — Rodinia, vta-bench, DNN training/inference,
//! * [`baselines`] — native Linux, monolithic TrustZone, HIX-TrustZone,
//! * [`mod@bench`] — the harness that regenerates every table and figure.
//!
//! Start with `examples/quickstart.rs`, then `cargo run -p cronus-bench
//! --bin fig -- all` to regenerate the paper's evaluation.

pub use cronus_audit as audit;
pub use cronus_baselines as baselines;
pub use cronus_bench as bench;
pub use cronus_chaos as chaos;
pub use cronus_core as core;
pub use cronus_crypto as crypto;
pub use cronus_devices as devices;
pub use cronus_forensics as forensics;
pub use cronus_mos as mos;
pub use cronus_obs as obs;
pub use cronus_runtime as runtime;
pub use cronus_sim as sim;
pub use cronus_spm as spm;
pub use cronus_workloads as workloads;
