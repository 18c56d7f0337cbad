//! # cronus-runtime — execution models for mEnclaves
//!
//! The paper's mEnclave abstraction separates the enclave *specification*
//! from its *execution model*: "an executor can execute a dynamic library
//! ... and a CUDA executable file" (§IV-A). This crate provides three
//! execution models over `cronus-core`:
//!
//! * [`session`] — what the two accelerator runtimes share: the device
//!   mEnclave and its in-order sRPC stream, device memory management,
//!   host↔device copies through a trusted staging buffer with SMMU-checked
//!   DMA, synchronization, and one error type;
//! * [`cuda`] — the CUDA-like runtime (the gdev/ocelot analogue) over it:
//!   module loading, `cudaFree` and asynchronous kernel launches;
//! * [`vta`] — the VTA/TVM-like NPU runtime over it: submission of compiled
//!   [`cronus_devices::VtaProgram`]s;
//! * [`cpu`] — the CPU mEnclave runtime (the musl/LibOS analogue):
//!   registered functions invoked as mECalls.
//!
//! All three register their server-side mECall handlers with
//! [`cronus_core::CronusSystem`] and expose client-side APIs that charge
//! simulated time to the calling enclave's clock.

pub mod cpu;
pub mod cuda;
pub mod session;
mod staging;
pub mod vta;
pub mod wire;

pub use cpu::{cpu_manifest, CpuEnclaveBuilder};
pub use cuda::{cuda_manifest, CudaContext, CudaOptions, LaunchArg};
pub use session::{DevPtr, RuntimeError, Session};
pub use vta::{vta_manifest, VtaContext, VtaOptions};
