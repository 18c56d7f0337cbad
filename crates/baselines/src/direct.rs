//! Direct-access GPU backends with per-system protection costs.
//!
//! Each baseline owns a raw [`GpuDevice`] (the same simulator CRONUS's GPU
//! partition manages) and differs only in what each operation costs:
//!
//! | system      | per-call transport                           | data path    |
//! |-------------|----------------------------------------------|--------------|
//! | native      | user→driver submit                           | plain DMA    |
//! | trustzone   | submit + secure-world driver entry           | plain DMA    |
//! | hix         | encrypt + full context-switch round trip per | encrypted    |
//! |             | control message (×3 per launch), lock-step   | bounce copy  |
//!
//! The HIX costs follow the paper's §VI-B analysis: "HIX conducts an RPC
//! for each hardware control message" and its RPCs are synchronous and
//! encrypted over untrusted memory.

use cronus_devices::gpu::GpuContextId;
use cronus_devices::gpu::{GpuDevice, GpuKernelDesc, KernelArg, KernelFn};
use cronus_sim::tzpc::DeviceId;
use cronus_sim::{CostModel, SimClock, SimNs, StreamId};
use cronus_workloads::backend::{Arg, BackendError, GpuBackend};

/// Protection profile of a direct backend.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Protection {
    /// Unprotected native execution (Linux / native gdev).
    Native,
    /// Monolithic TrustZone: driver inside the TEE, no per-call RPC.
    TrustZone,
    /// HIX-style: encrypted lock-step RPC to a GPU enclave.
    Hix,
}

impl Protection {
    fn system_name(self) -> &'static str {
        match self {
            Protection::Native => "linux",
            Protection::TrustZone => "trustzone",
            Protection::Hix => "hix-trustzone",
        }
    }

    /// Control messages per kernel launch (HIX sends several per launch).
    fn launch_messages(self) -> u64 {
        match self {
            Protection::Hix => 3,
            _ => 1,
        }
    }
}

/// A backend with direct device access and a protection cost profile.
pub struct DirectBackend {
    protection: Protection,
    cost: CostModel,
    device: GpuDevice,
    ctx: GpuContextId,
    caller: SimClock,
    device_clock: SimClock,
}

impl std::fmt::Debug for DirectBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirectBackend")
            .field("protection", &self.protection)
            .finish_non_exhaustive()
    }
}

/// Submission cost of one driver call (ioctl + doorbell).
const SUBMIT: SimNs = SimNs::from_nanos(1_200);
/// Extra cost of entering the secure-world driver (monolithic TrustZone).
const TEE_DRIVER_ENTRY: SimNs = SimNs::from_nanos(250);

impl DirectBackend {
    /// Creates a backend over a fresh GTX 2080-class device.
    pub fn new(protection: Protection, cost: CostModel) -> Self {
        let mut device = GpuDevice::new(DeviceId::new(1), StreamId::new(1), 8 << 30, 46);
        let ctx = device
            .create_context(1 << 30)
            .expect("fresh device has room");
        DirectBackend {
            protection,
            cost,
            device,
            ctx,
            caller: SimClock::new(),
            device_clock: SimClock::new(),
        }
    }

    /// The protection profile.
    pub fn protection(&self) -> Protection {
        self.protection
    }

    fn call_overhead(&self, payload_bytes: u64, messages: u64) -> SimNs {
        match self.protection {
            Protection::Native => SUBMIT * messages,
            Protection::TrustZone => (SUBMIT + TEE_DRIVER_ENTRY) * messages,
            Protection::Hix => {
                // Encrypt the message, cross into the GPU enclave (4 context
                // switches each way), decrypt, and wait for the ack.
                (self.cost.encrypt(payload_bytes.max(64))
                    + self.cost.sync_rpc_transport()
                    + self.cost.encrypt(64))
                    * messages
            }
        }
    }

    fn data_cost(&self, len: u64) -> SimNs {
        let copy = self.cost.memcpy(len) + self.cost.pcie_copy(len);
        match self.protection {
            // Encrypted bounce buffer: encrypt + extra copy through
            // untrusted memory + decrypt in the GPU enclave.
            Protection::Hix => copy + self.cost.encrypt(len) * 2 + self.cost.memcpy(len),
            _ => copy,
        }
    }

    fn gpu_err(e: cronus_devices::gpu::GpuError) -> BackendError {
        BackendError::msg(e.to_string())
    }
}

impl GpuBackend for DirectBackend {
    fn system_name(&self) -> &str {
        self.protection.system_name()
    }

    fn register_kernel(&mut self, name: &str, f: KernelFn) -> Result<(), BackendError> {
        self.device
            .register_kernel(self.ctx, name, f)
            .map_err(Self::gpu_err)
    }

    fn alloc(&mut self, len: u64) -> Result<u64, BackendError> {
        self.caller.advance(self.call_overhead(32, 1));
        let buf = self.device.alloc(self.ctx, len).map_err(Self::gpu_err)?;
        Ok(buf.as_raw())
    }

    fn free(&mut self, ptr: u64) -> Result<(), BackendError> {
        self.caller.advance(self.call_overhead(16, 1));
        self.device
            .free(self.ctx, cronus_devices::gpu::GpuBuffer::from_raw(ptr))
            .map_err(Self::gpu_err)
    }

    fn h2d(&mut self, dst: u64, data: &[u8]) -> Result<(), BackendError> {
        self.caller.advance(self.call_overhead(64, 1));
        self.caller.advance(self.data_cost(data.len() as u64));
        self.device
            .write_buffer(
                self.ctx,
                cronus_devices::gpu::GpuBuffer::from_raw(dst),
                0,
                data,
            )
            .map_err(Self::gpu_err)?;
        self.device_clock.advance_to(self.caller.now());
        Ok(())
    }

    fn d2h(&mut self, src: u64, len: u64) -> Result<Vec<u8>, BackendError> {
        // Reads synchronize with outstanding kernels.
        self.caller.sync_with(&self.device_clock);
        self.caller.advance(self.call_overhead(64, 1));
        self.caller.advance(self.data_cost(len));
        let mut out = vec![0u8; len as usize];
        self.device
            .read_buffer(
                self.ctx,
                cronus_devices::gpu::GpuBuffer::from_raw(src),
                0,
                &mut out,
            )
            .map_err(Self::gpu_err)?;
        Ok(out)
    }

    fn launch(
        &mut self,
        kernel: &str,
        args: &[Arg],
        desc: GpuKernelDesc,
    ) -> Result<(), BackendError> {
        let messages = self.protection.launch_messages();
        self.caller.advance(self.call_overhead(256, messages));
        let kargs: Vec<KernelArg> = args
            .iter()
            .map(|a| match a {
                Arg::Ptr(p) => KernelArg::Buffer(cronus_devices::gpu::GpuBuffer::from_raw(*p)),
                Arg::Int(v) => KernelArg::Int(*v),
                Arg::Float(v) => KernelArg::Float(*v),
            })
            .collect();
        let exec = self
            .device
            .launch(&self.cost, self.ctx, kernel, &kargs, desc)
            .map_err(Self::gpu_err)?;
        // The kernel runs asynchronously after everything already queued.
        self.device_clock.advance_to(self.caller.now());
        self.device_clock.advance(exec);
        if self.protection == Protection::Hix {
            // Lock-step RPC: the caller waits for the enclave's ack of
            // the control message (not the kernel itself).
            self.caller.advance(self.cost.sel2_context_switch * 2);
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), BackendError> {
        self.caller.advance(self.call_overhead(32, 1));
        self.caller.sync_with(&self.device_clock);
        Ok(())
    }

    fn elapsed(&self) -> SimNs {
        self.caller.now()
    }
}

/// Unprotected native backend (the paper's "Linux" / "native gdev").
pub fn native_backend() -> DirectBackend {
    DirectBackend::new(Protection::Native, CostModel::default())
}

/// Monolithic TrustZone backend.
pub fn trustzone_backend() -> DirectBackend {
    DirectBackend::new(Protection::TrustZone, CostModel::default())
}

/// HIX-TrustZone backend.
pub fn hix_backend() -> DirectBackend {
    DirectBackend::new(Protection::Hix, CostModel::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cronus_workloads::kernels::register_standard_kernels;
    use cronus_workloads::rodinia;

    #[test]
    fn all_systems_compute_identical_results() {
        let mut checksums = Vec::new();
        for mut backend in [native_backend(), trustzone_backend(), hix_backend()] {
            register_standard_kernels(&mut backend).unwrap();
            let run = rodinia::hotspot::run(&mut backend, 1).unwrap();
            checksums.push(run.checksum);
        }
        assert_eq!(checksums[0], checksums[1]);
        assert_eq!(checksums[1], checksums[2]);
    }

    #[test]
    fn protection_cost_ordering() {
        let mut times = Vec::new();
        for mut backend in [native_backend(), trustzone_backend(), hix_backend()] {
            register_standard_kernels(&mut backend).unwrap();
            let run = rodinia::nw::run(&mut backend, 1).unwrap();
            times.push(run.sim_time);
        }
        let (native, tz, hix) = (times[0], times[1], times[2]);
        assert!(native <= tz, "native {native} <= trustzone {tz}");
        assert!(tz < hix, "trustzone {tz} < hix {hix}");
        // TrustZone stays within ~10% of native; HIX pays far more on this
        // launch-heavy workload.
        assert!(tz.as_nanos() as f64 <= native.as_nanos() as f64 * 1.10);
        assert!(hix.as_nanos() as f64 >= tz.as_nanos() as f64 * 1.15);
    }

    #[test]
    fn launches_overlap_with_caller_on_native() {
        let mut backend = native_backend();
        register_standard_kernels(&mut backend).unwrap();
        let t0 = backend.elapsed();
        for _ in 0..20 {
            backend
                .launch(
                    "noop",
                    &[],
                    GpuKernelDesc {
                        flops: 1e8,
                        mem_bytes: 0.0,
                        sm_demand: 46,
                    },
                )
                .unwrap();
        }
        let streamed = backend.elapsed() - t0;
        backend.sync().unwrap();
        let synced = backend.elapsed() - t0;
        assert!(streamed * 5 < synced, "native launches are asynchronous");
    }

    #[test]
    fn device_round_trip() {
        let mut backend = trustzone_backend();
        let buf = backend.alloc(8).unwrap();
        backend.h2d(buf, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        assert_eq!(backend.d2h(buf, 8).unwrap(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        backend.free(buf).unwrap();
    }
}
