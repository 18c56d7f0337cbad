//! Backend abstraction: one GPU compute interface, many systems.
//!
//! The paper evaluates identical workloads on native Linux, monolithic
//! TrustZone, HIX-TrustZone and CRONUS. [`GpuBackend`] is the seam that
//! makes that possible here: the Rodinia suite and the DNN trainer issue
//! allocs/copies/launches/syncs against this trait, and each system supplies
//! an implementation with its own protection costs. [`CronusGpuBackend`]
//! is the CRONUS implementation over [`cronus_runtime::CudaContext`];
//! the baselines live in `cronus-baselines`.

use std::fmt;

use cronus_core::CronusSystem;
use cronus_devices::gpu::{GpuKernelDesc, KernelFn};
use cronus_runtime::{CudaContext, DevPtr, LaunchArg, RuntimeError};
use cronus_sim::SimNs;

/// A kernel launch argument, backend-neutral.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arg {
    /// Device pointer (backend-scoped handle).
    Ptr(u64),
    /// Integer scalar.
    Int(i64),
    /// Float scalar.
    Float(f32),
}

/// Backend error: a message plus a fatal flag for peer failures.
#[derive(Clone, Debug, PartialEq)]
pub struct BackendError {
    /// Human-readable description.
    pub message: String,
    /// True when the device's partition failed (CRONUS failover signal).
    pub peer_failed: bool,
}

impl BackendError {
    /// Creates a non-fatal error.
    pub fn msg(message: impl Into<String>) -> Self {
        BackendError {
            message: message.into(),
            peer_failed: false,
        }
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for BackendError {}

impl From<RuntimeError> for BackendError {
    fn from(e: RuntimeError) -> Self {
        let peer_failed = matches!(
            &e,
            RuntimeError::Srpc(cronus_core::SrpcError::PeerFailed { .. })
        );
        BackendError {
            message: e.to_string(),
            peer_failed,
        }
    }
}

/// The system-neutral GPU compute interface.
pub trait GpuBackend {
    /// System name (for report rows).
    fn system_name(&self) -> &str;

    /// Installs a kernel implementation.
    ///
    /// # Errors
    ///
    /// Backend-specific failures.
    fn register_kernel(&mut self, name: &str, f: KernelFn) -> Result<(), BackendError>;

    /// Allocates device memory, returning an opaque handle.
    ///
    /// # Errors
    ///
    /// Out-of-memory and transport failures.
    fn alloc(&mut self, len: u64) -> Result<u64, BackendError>;

    /// Frees device memory.
    ///
    /// # Errors
    ///
    /// Unknown-handle and transport failures.
    fn free(&mut self, ptr: u64) -> Result<(), BackendError>;

    /// Copies host bytes to the device.
    ///
    /// # Errors
    ///
    /// Transport failures.
    fn h2d(&mut self, dst: u64, data: &[u8]) -> Result<(), BackendError>;

    /// Copies device bytes back to the host.
    ///
    /// # Errors
    ///
    /// Transport failures.
    fn d2h(&mut self, src: u64, len: u64) -> Result<Vec<u8>, BackendError>;

    /// Launches a kernel asynchronously.
    ///
    /// # Errors
    ///
    /// Transport failures; execution errors surface at the next sync.
    fn launch(
        &mut self,
        kernel: &str,
        args: &[Arg],
        desc: GpuKernelDesc,
    ) -> Result<(), BackendError>;

    /// Waits until all launched work completes.
    ///
    /// # Errors
    ///
    /// Transport failures.
    fn sync(&mut self) -> Result<(), BackendError>;

    /// The driving (CPU-side) virtual clock.
    fn elapsed(&self) -> SimNs;
}

/// Helper: upload a slice of `f32`s.
///
/// # Errors
///
/// Propagates backend errors.
pub fn h2d_f32(backend: &mut dyn GpuBackend, dst: u64, data: &[f32]) -> Result<(), BackendError> {
    let mut bytes = vec![0u8; data.len() * 4];
    for (chunk, v) in bytes.chunks_exact_mut(4).zip(data) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
    backend.h2d(dst, &bytes)
}

/// Helper: download a slice of `f32`s.
///
/// # Errors
///
/// Propagates backend errors.
pub fn d2h_f32(
    backend: &mut dyn GpuBackend,
    src: u64,
    count: usize,
) -> Result<Vec<f32>, BackendError> {
    let bytes = backend.d2h(src, (count * 4) as u64)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect())
}

/// The CRONUS backend: a CPU mEnclave driving a CUDA mEnclave over sRPC.
pub struct CronusGpuBackend<'a> {
    sys: &'a mut CronusSystem,
    cuda: CudaContext,
}

impl fmt::Debug for CronusGpuBackend<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CronusGpuBackend").finish_non_exhaustive()
    }
}

impl<'a> CronusGpuBackend<'a> {
    /// Wraps an already-created CUDA context.
    pub fn new(sys: &'a mut CronusSystem, cuda: CudaContext) -> Self {
        CronusGpuBackend { sys, cuda }
    }

    /// The underlying CUDA context (e.g. for failure injection by tests).
    pub fn cuda(&self) -> &CudaContext {
        &self.cuda
    }

    /// The underlying system.
    pub fn system_mut(&mut self) -> &mut CronusSystem {
        self.sys
    }
}

impl GpuBackend for CronusGpuBackend<'_> {
    fn system_name(&self) -> &str {
        "cronus"
    }

    fn register_kernel(&mut self, name: &str, f: KernelFn) -> Result<(), BackendError> {
        self.cuda.load_kernel(self.sys, name, f)?;
        Ok(())
    }

    fn alloc(&mut self, len: u64) -> Result<u64, BackendError> {
        Ok(self.cuda.alloc(self.sys, len)?.0)
    }

    fn free(&mut self, ptr: u64) -> Result<(), BackendError> {
        self.cuda.free(self.sys, DevPtr(ptr))?;
        Ok(())
    }

    fn h2d(&mut self, dst: u64, data: &[u8]) -> Result<(), BackendError> {
        self.cuda.memcpy_h2d(self.sys, DevPtr(dst), data)?;
        Ok(())
    }

    fn d2h(&mut self, src: u64, len: u64) -> Result<Vec<u8>, BackendError> {
        Ok(self.cuda.memcpy_d2h(self.sys, DevPtr(src), len)?)
    }

    fn launch(
        &mut self,
        kernel: &str,
        args: &[Arg],
        desc: GpuKernelDesc,
    ) -> Result<(), BackendError> {
        let args: Vec<LaunchArg> = args
            .iter()
            .map(|a| match a {
                Arg::Ptr(p) => LaunchArg::Ptr(DevPtr(*p)),
                Arg::Int(v) => LaunchArg::Int(*v),
                Arg::Float(v) => LaunchArg::Float(*v),
            })
            .collect();
        self.cuda.launch(self.sys, kernel, &args, desc)?;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), BackendError> {
        self.cuda.synchronize(self.sys)?;
        Ok(())
    }

    fn elapsed(&self) -> SimNs {
        self.sys.enclave_time(self.cuda.cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::cronus_gpu_system;

    #[test]
    fn cronus_backend_round_trip() {
        let (mut sys, cpu) = cronus_gpu_system();
        let cuda = CudaContext::new(&mut sys, cpu, Default::default()).unwrap();
        let mut backend = CronusGpuBackend::new(&mut sys, cuda);
        assert_eq!(backend.system_name(), "cronus");

        let buf = backend.alloc(16).unwrap();
        h2d_f32(&mut backend, buf, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let out = d2h_f32(&mut backend, buf, 4).unwrap();
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0]);
        backend.free(buf).unwrap();
        backend.sync().unwrap();
        assert!(backend.elapsed() > SimNs::ZERO);
    }
}
