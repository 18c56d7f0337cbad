//! # cronus-runtime — execution models for mEnclaves
//!
//! The paper's mEnclave abstraction separates the enclave *specification*
//! from its *execution model*: "an executor can execute a dynamic library
//! ... and a CUDA executable file" (§IV-A). This crate provides three
//! execution models over `cronus-core`:
//!
//! * [`cuda`] — a CUDA-like runtime (the gdev/ocelot analogue): device
//!   memory management, host↔device copies through a trusted staging buffer
//!   with SMMU-checked DMA, and asynchronous kernel launches over sRPC;
//! * [`vta`] — a VTA/TVM-like NPU runtime: buffer management plus
//!   submission of compiled [`cronus_devices::VtaProgram`]s;
//! * [`cpu`] — the CPU mEnclave runtime (the musl/LibOS analogue):
//!   registered functions invoked as mECalls.
//!
//! All three register their server-side mECall handlers with
//! [`cronus_core::CronusSystem`] and expose client-side APIs that charge
//! simulated time to the calling enclave's clock.

pub mod cpu;
pub mod cuda;
mod staging;
pub mod vta;
pub mod wire;

pub use cpu::{cpu_manifest, CpuEnclaveBuilder};
pub use cuda::{cuda_manifest, CudaContext, CudaError, CudaOptions, DevPtr, LaunchArg};
pub use vta::{vta_manifest, NpuPtr, VtaContext, VtaError, VtaOptions};
