//! The session every accelerator runtime is built on.
//!
//! A CPU mEnclave drives a device mEnclave the same way whatever the device
//! computes: it creates the mEnclave from a manifest, opens one in-order sRPC
//! stream to it, shares a staging buffer for bulk data ([`crate::staging`]),
//! allocates device memory, copies in and out, and synchronizes. A runtime
//! ([`crate::cuda`], [`crate::vta`]) wraps a [`Session`], dereferences to it,
//! and adds its command set.

use std::collections::BTreeMap;

use cronus_core::{Actor, CronusError, CronusSystem, EnclaveRef, SrpcError, StreamId, SystemError};
use cronus_mos::hal::DeviceCtx;
use cronus_mos::manifest::Manifest;
use cronus_sim::SimNs;

use crate::staging::Staging;
use crate::wire::{Reader, Writer};

/// What distinguishes one runtime's session from the other's.
#[derive(Debug)]
pub(crate) struct SessionNames {
    /// The synchronous allocation mECall.
    pub alloc_call: &'static str,
    /// The asynchronous staging → device copy mECall.
    pub h2d_call: &'static str,
    /// The synchronous device → staging copy mECall.
    pub d2h_call: &'static str,
    /// The `<runtime>.memcpy_bytes{dir}` counter.
    pub bytes_metric: &'static str,
}

/// A device pointer (CUDA `CUdeviceptr` analogue).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DevPtr(pub u64);

/// Errors from the accelerator runtimes.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// sRPC transport error (including peer-partition failure).
    Srpc(SrpcError),
    /// Enclave or stream setup rejected by the system layer.
    Setup(SystemError),
    /// Typed SPM/HAL/device error during setup or control operations.
    System(CronusError),
    /// Malformed response descriptor.
    Protocol,
    /// The enclave's device context is not one of the runtime's device.
    WrongDeviceCtx,
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Srpc(e) => write!(f, "srpc: {e}"),
            RuntimeError::Setup(e) => write!(f, "setup: {e}"),
            RuntimeError::System(e) => write!(f, "system: {e}"),
            RuntimeError::Protocol => f.write_str("malformed rpc response"),
            RuntimeError::WrongDeviceCtx => {
                f.write_str("enclave is not backed by a context of the runtime's device")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Srpc(e) => Some(e),
            RuntimeError::Setup(e) => Some(e),
            RuntimeError::System(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SrpcError> for RuntimeError {
    fn from(e: SrpcError) -> Self {
        RuntimeError::Srpc(e)
    }
}

/// The device context backing mEnclave `dev`.
fn device_ctx(sys: &CronusSystem, dev: EnclaveRef) -> Result<DeviceCtx, CronusError> {
    Ok(sys.spm().mos(dev.asid)?.manager().entry(dev.eid)?.ctx)
}

/// A live session: a CPU mEnclave driving a device mEnclave over sRPC.
#[derive(Debug)]
pub struct Session {
    /// The caller (CPU) enclave.
    pub cpu: EnclaveRef,
    /// The device mEnclave.
    pub dev: EnclaveRef,
    /// The sRPC stream.
    pub stream: StreamId,
    staging: Staging,
}

impl Session {
    /// Creates the device mEnclave described by `manifest` (owned by `cpu`),
    /// opens the sRPC stream, sets up the staging buffer with SMMU grants,
    /// and registers the allocation and copy handlers. Returns the session
    /// and the device context backing the mEnclave, for the runtime's own
    /// handlers.
    ///
    /// # Errors
    ///
    /// Enclave creation, stream setup or sharing failures.
    pub(crate) fn open(
        sys: &mut CronusSystem,
        cpu: EnclaveRef,
        manifest: Manifest,
        ring_pages: usize,
        staging_pages: usize,
        names: &'static SessionNames,
    ) -> Result<(Session, DeviceCtx), RuntimeError> {
        let dev = sys
            .create_enclave(Actor::Enclave(cpu), manifest, &BTreeMap::new())
            .map_err(RuntimeError::Setup)?;
        // A device context models one in-order command queue (CUDA default-
        // stream / VTA instruction-fetch semantics), so its sRPC stream is
        // pinned to a single lane: commands must not overlap on the virtual
        // clock. Multi-lane geometry is for independent service streams.
        let stream = sys.stream(cpu, dev).rings(1).pages(ring_pages).open()?;
        let dctx = device_ctx(sys, dev).map_err(RuntimeError::System)?;
        // Staging buffer: a second trusted shared region for bulk data.
        let staging = Staging::open(sys, cpu, dev, stream, staging_pages, dctx, names)
            .map_err(RuntimeError::System)?;

        // alloc(len) -> handle
        sys.register_handler(
            dev,
            names.alloc_call,
            Box::new(move |ctx, payload| {
                let len = Reader::new(payload).u64()?;
                let (accel, actx) = ctx.spm.mos_mut(ctx.asid)?.hal_mut().accel(dctx)?;
                let buf = accel.alloc(actx, len)?;
                let mut w = Writer::new();
                w.u64(buf.as_raw());
                Ok((w.finish(), SimNs::from_micros(2)))
            }),
        );
        let session = Session {
            cpu,
            dev,
            stream,
            staging,
        };
        Ok((session, dctx))
    }

    /// Allocates device memory (`cudaMalloc`).
    ///
    /// # Errors
    ///
    /// RPC or device out-of-memory errors.
    pub fn alloc(&mut self, sys: &mut CronusSystem, len: u64) -> Result<DevPtr, RuntimeError> {
        let mut w = Writer::new();
        w.u64(len);
        let out = sys
            .call(self.stream, self.staging.names.alloc_call)
            .payload(&w.finish())
            .sync()?;
        let raw = Reader::new(&out)
            .u64()
            .map_err(|_| RuntimeError::Protocol)?;
        Ok(DevPtr(raw))
    }

    /// `cudaMemcpyHostToDevice`: copies host bytes into device memory via
    /// the staging buffer. The caller pays the staging write; the device
    /// copy streams asynchronously.
    ///
    /// # Errors
    ///
    /// RPC or device errors.
    pub fn memcpy_h2d(
        &mut self,
        sys: &mut CronusSystem,
        dst: DevPtr,
        data: &[u8],
    ) -> Result<(), RuntimeError> {
        Ok(self.staging.h2d(sys, dst.0, data)?)
    }

    /// `cudaMemcpyDeviceToHost`: synchronous copy back to the host.
    ///
    /// # Errors
    ///
    /// RPC or device errors.
    pub fn memcpy_d2h(
        &mut self,
        sys: &mut CronusSystem,
        src: DevPtr,
        len: u64,
    ) -> Result<Vec<u8>, RuntimeError> {
        Ok(self.staging.d2h(sys, src.0, len)?)
    }

    /// Waits for all submitted work (`cudaDeviceSynchronize`).
    ///
    /// # Errors
    ///
    /// RPC errors, including peer failure.
    pub fn synchronize(&mut self, sys: &mut CronusSystem) -> Result<(), RuntimeError> {
        sys.sync(self.stream)?;
        self.staging.rewind();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CudaContext, CudaOptions, VtaContext, VtaOptions};
    use cronus_core::FaultKind;
    use cronus_devices::DeviceKind;
    use cronus_spm::spm::{BootConfig, DeviceSpec, PartitionSpec};

    /// `cuMalloc`/`vtaAlloc` take their length straight from the payload. A
    /// length whose sum with the context's usage wraps used to pass the
    /// quota check and abort the device partition inside `vec![0; len]`.
    #[test]
    fn a_forged_alloc_length_is_a_typed_error_and_the_stream_lives_on() {
        let gpu = DeviceSpec::Gpu {
            memory: 1 << 28,
            sms: 46,
        };
        let mut sys = CronusSystem::boot(BootConfig {
            partitions: vec![
                PartitionSpec::new(1, b"cpu-mos", "v1", DeviceSpec::Cpu),
                PartitionSpec::new(2, b"cuda-mos", "v3", gpu),
                PartitionSpec::new(3, b"npu-mos", "v1", DeviceSpec::Npu { memory: 1 << 26 }),
            ],
            ..Default::default()
        });
        let app = sys.create_app();
        let manifest = Manifest::new(DeviceKind::Cpu).with_memory(1 << 20);
        let cpu = sys
            .create_enclave(Actor::App(app), manifest, &BTreeMap::new())
            .unwrap();
        let mut cuda = CudaContext::new(&mut sys, cpu, CudaOptions::default()).unwrap();
        let mut vta = VtaContext::new(&mut sys, cpu, VtaOptions::default()).unwrap();
        let sessions: [&mut Session; 2] = [&mut cuda, &mut vta];
        for session in sessions {
            let first = session.alloc(&mut sys, 16).unwrap();
            let err = session.alloc(&mut sys, u64::MAX - 15).unwrap_err();
            match err {
                RuntimeError::Srpc(SrpcError::Handler(e)) => {
                    assert_eq!(e.kind(), FaultKind::Device, "{e}");
                    assert!(e.to_string().contains("out of memory"), "{e}");
                }
                other => panic!("expected a handler error, got {other:?}"),
            }
            // Same stream, same partition: still serving.
            let next = session.alloc(&mut sys, 16).unwrap();
            assert_ne!(next, first);
            session.memcpy_h2d(&mut sys, next, &[7; 16]).unwrap();
            assert_eq!(session.memcpy_d2h(&mut sys, next, 16).unwrap(), [7; 16]);
            session.synchronize(&mut sys).unwrap();
        }
    }
}
