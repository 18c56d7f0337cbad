//! Hardware Adaptation Layer.
//!
//! "HAL is responsible for configuring, accessing, attesting and virtualizing
//! hardware resources for different mEnclaves ... Overall, HAL works as a
//! 'driver' and virtualization layer for a device" (§IV-B). Each mOS owns
//! exactly one [`DeviceHal`] wrapping the one device its partition manages.
//!
//! Host↔device copies go through the machine's DMA path, so they are checked
//! by the SMMU and TZASC like real transfers.

use std::fmt;

use cronus_crypto::{PublicKey, Signature};
use cronus_devices::bus::{BusError, PcieBus};
use cronus_devices::cpu::{CpuDevice, CpuError};
use cronus_devices::gpu::{GpuBuffer, GpuContextId, GpuDevice, GpuError};
use cronus_devices::npu::{NpuBuffer, NpuContextId, NpuDevice, NpuError};
use cronus_devices::{DeviceKind, SimDevice};
use cronus_sim::addr::PhysAddr;
use cronus_sim::tzpc::DeviceId;
use cronus_sim::{Machine, SimNs, StreamId};

/// Errors surfaced by the HAL.
#[derive(Clone, Debug, PartialEq)]
pub enum HalError {
    /// Operation targeted the wrong device kind (e.g. GPU op on an NPU mOS).
    WrongKind {
        expected: DeviceKind,
        actual: DeviceKind,
    },
    /// GPU driver error.
    Gpu(GpuError),
    /// NPU driver error.
    Npu(NpuError),
    /// CPU driver error.
    Cpu(CpuError),
    /// DMA/bus error.
    Bus(BusError),
}

impl fmt::Display for HalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HalError::WrongKind { expected, actual } => {
                write!(
                    f,
                    "hal manages a {actual} device, operation expects {expected}"
                )
            }
            HalError::Gpu(e) => write!(f, "gpu: {e}"),
            HalError::Npu(e) => write!(f, "npu: {e}"),
            HalError::Cpu(e) => write!(f, "cpu: {e}"),
            HalError::Bus(e) => write!(f, "bus: {e}"),
        }
    }
}

impl std::error::Error for HalError {}

impl From<GpuError> for HalError {
    fn from(e: GpuError) -> Self {
        HalError::Gpu(e)
    }
}

impl From<NpuError> for HalError {
    fn from(e: NpuError) -> Self {
        HalError::Npu(e)
    }
}

impl From<CpuError> for HalError {
    fn from(e: CpuError) -> Self {
        HalError::Cpu(e)
    }
}

impl From<BusError> for HalError {
    fn from(e: BusError) -> Self {
        HalError::Bus(e)
    }
}

/// A device context handle, uniform across device kinds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DeviceCtx {
    /// CPU function-table context.
    Cpu(u32),
    /// GPU context.
    Gpu(GpuContextId),
    /// NPU context.
    Npu(NpuContextId),
}

/// A device's attestation evidence: the accelerator signs its configuration
/// with the ROM key, and the client later checks that `PubK_acc` is endorsed
/// by the vendor (§IV-A).
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceAttestation {
    /// Device kind.
    pub kind: DeviceKind,
    /// Compatible string reported by the device.
    pub compatible: String,
    /// The device's hardware public key (`PubK_acc`).
    pub rot_public: PublicKey,
    /// Configuration bytes that were signed.
    pub config: Vec<u8>,
    /// Signature over `config` by the device's ROM key.
    pub signature: Signature,
}

impl DeviceAttestation {
    /// Verifies the device's self-signature (authenticity step 1; step 2,
    /// vendor endorsement, happens at the client).
    pub fn verify_self(&self) -> bool {
        self.rot_public
            .verify(&self.config, &self.signature)
            .is_ok()
    }
}

/// The HAL: one managed device behind a uniform interface.
pub enum DeviceHal {
    /// CPU partition.
    Cpu(CpuDevice),
    /// GPU partition.
    Gpu(GpuDevice),
    /// NPU partition.
    Npu(NpuDevice),
}

impl fmt::Debug for DeviceHal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DeviceHal({})", self.kind())
    }
}

impl DeviceHal {
    /// The managed device's kind.
    pub fn kind(&self) -> DeviceKind {
        match self {
            DeviceHal::Cpu(d) => d.kind(),
            DeviceHal::Gpu(d) => d.kind(),
            DeviceHal::Npu(d) => d.kind(),
        }
    }

    /// Bus id of the managed device.
    pub fn device_id(&self) -> DeviceId {
        match self {
            DeviceHal::Cpu(d) => d.id(),
            DeviceHal::Gpu(d) => d.id(),
            DeviceHal::Npu(d) => d.id(),
        }
    }

    /// SMMU stream of the managed device.
    pub fn dma_stream(&self) -> StreamId {
        match self {
            DeviceHal::Cpu(d) => d.dma_stream(),
            DeviceHal::Gpu(d) => d.dma_stream(),
            DeviceHal::Npu(d) => d.dma_stream(),
        }
    }

    /// Live device contexts (spatial-sharing tenants).
    pub fn context_count(&self) -> usize {
        match self {
            DeviceHal::Cpu(d) => d.context_count(),
            DeviceHal::Gpu(d) => d.context_count(),
            DeviceHal::Npu(d) => d.context_count(),
        }
    }

    /// Interrupt service routine: drains the device's pending completion
    /// interrupts ("HAL also handles page faults and interruptions from the
    /// device", §IV-B). Returns the number serviced.
    pub fn service_irqs(&mut self) -> u32 {
        match self {
            DeviceHal::Cpu(_) => 0,
            DeviceHal::Gpu(d) => d.take_irqs(),
            DeviceHal::Npu(d) => d.take_irqs(),
        }
    }

    /// Fully clears device state (failover step 2).
    pub fn reset_device(&mut self) {
        match self {
            DeviceHal::Cpu(d) => d.reset(),
            DeviceHal::Gpu(d) => d.reset(),
            DeviceHal::Npu(d) => d.reset(),
        }
    }

    /// Produces the device's attestation evidence over its current
    /// configuration description.
    pub fn attest_device(&self) -> DeviceAttestation {
        let (kind, compatible, config, rot_public, signature) = match self {
            DeviceHal::Cpu(d) => {
                let cfg = format!("cpu:{}", d.id()).into_bytes();
                (
                    d.kind(),
                    d.compatible().to_string(),
                    cfg.clone(),
                    d.rot_public(),
                    d.sign_config(&cfg),
                )
            }
            DeviceHal::Gpu(d) => {
                let cfg = format!(
                    "gpu:{}:sms={}:mem={}",
                    d.id(),
                    d.sm_count(),
                    d.memory_capacity()
                )
                .into_bytes();
                (
                    d.kind(),
                    d.compatible().to_string(),
                    cfg.clone(),
                    d.rot_public(),
                    d.sign_config(&cfg),
                )
            }
            DeviceHal::Npu(d) => {
                let cfg = format!("npu:{}", d.id()).into_bytes();
                (
                    d.kind(),
                    d.compatible().to_string(),
                    cfg.clone(),
                    d.rot_public(),
                    d.sign_config(&cfg),
                )
            }
        };
        DeviceAttestation {
            kind,
            compatible,
            rot_public,
            config,
            signature,
        }
    }

    /// Opens a device context with a memory quota (intra-accelerator
    /// isolation for spatial sharing, R2).
    ///
    /// # Errors
    ///
    /// Device-specific out-of-memory errors.
    pub fn create_context(&mut self, quota: u64) -> Result<DeviceCtx, HalError> {
        Ok(match self {
            DeviceHal::Cpu(d) => DeviceCtx::Cpu(d.create_context()),
            DeviceHal::Gpu(d) => DeviceCtx::Gpu(d.create_context(quota)?),
            DeviceHal::Npu(d) => DeviceCtx::Npu(d.create_context(quota)?),
        })
    }

    /// Destroys a device context, zeroing its memory.
    ///
    /// # Errors
    ///
    /// Unknown-context errors; [`HalError::WrongKind`] on a mismatched handle.
    pub fn destroy_context(&mut self, ctx: DeviceCtx) -> Result<(), HalError> {
        match (self, ctx) {
            (DeviceHal::Cpu(d), DeviceCtx::Cpu(c)) => Ok(d.destroy_context(c)?),
            (DeviceHal::Gpu(d), DeviceCtx::Gpu(c)) => Ok(d.destroy_context(c)?),
            (DeviceHal::Npu(d), DeviceCtx::Npu(c)) => Ok(d.destroy_context(c)?),
            (hal, _) => Err(HalError::WrongKind {
                expected: hal.kind(),
                actual: hal.kind(),
            }),
        }
    }

    /// Typed access to the GPU driver.
    ///
    /// # Errors
    ///
    /// [`HalError::WrongKind`] when this HAL manages another device.
    pub fn gpu_mut(&mut self) -> Result<&mut GpuDevice, HalError> {
        match self {
            DeviceHal::Gpu(d) => Ok(d),
            other => Err(HalError::WrongKind {
                expected: DeviceKind::Gpu,
                actual: other.kind(),
            }),
        }
    }

    /// Typed read access to the GPU driver.
    ///
    /// # Errors
    ///
    /// [`HalError::WrongKind`].
    pub fn gpu(&self) -> Result<&GpuDevice, HalError> {
        match self {
            DeviceHal::Gpu(d) => Ok(d),
            other => Err(HalError::WrongKind {
                expected: DeviceKind::Gpu,
                actual: other.kind(),
            }),
        }
    }

    /// Typed access to the NPU driver.
    ///
    /// # Errors
    ///
    /// [`HalError::WrongKind`].
    pub fn npu_mut(&mut self) -> Result<&mut NpuDevice, HalError> {
        match self {
            DeviceHal::Npu(d) => Ok(d),
            other => Err(HalError::WrongKind {
                expected: DeviceKind::Npu,
                actual: other.kind(),
            }),
        }
    }

    /// Typed access to the CPU driver.
    ///
    /// # Errors
    ///
    /// [`HalError::WrongKind`].
    pub fn cpu_mut(&mut self) -> Result<&mut CpuDevice, HalError> {
        match self {
            DeviceHal::Cpu(d) => Ok(d),
            other => Err(HalError::WrongKind {
                expected: DeviceKind::Cpu,
                actual: other.kind(),
            }),
        }
    }

    /// Host→device copy (`cudaMemcpyHostToDevice` and its NPU twin): the bus
    /// DMAs host physical memory straight into the bytes the device lends
    /// of buffer `dst` (a raw handle of `ctx`'s device). Returns the
    /// simulated transfer time.
    ///
    /// # Errors
    ///
    /// Bus/SMMU faults, device buffer errors, or [`HalError::WrongKind`]
    /// when `ctx` is not a context of the managed device.
    #[allow(clippy::too_many_arguments)] // DMA descriptors are wide
    pub fn copy_h2d(
        &mut self,
        machine: &mut Machine,
        bus: &PcieBus,
        ctx: DeviceCtx,
        dst: u64,
        dst_offset: u64,
        host_src: PhysAddr,
        len: usize,
    ) -> Result<SimNs, HalError> {
        let device = self.device_id();
        let dma = |dst: &mut [u8]| -> Result<SimNs, HalError> {
            Ok(bus.dma_to_device(machine, device, host_src, dst)?)
        };
        match (self, ctx) {
            (DeviceHal::Gpu(d), DeviceCtx::Gpu(c)) => {
                d.dma_in(c, GpuBuffer::from_raw(dst), dst_offset, len, dma)
            }
            (DeviceHal::Npu(d), DeviceCtx::Npu(c)) => {
                d.dma_in(c, NpuBuffer::from_raw(dst), dst_offset, len, dma)
            }
            (hal, ctx) => Err(hal.not_a_context(ctx)),
        }
    }

    /// Device→host copy: the bus DMAs the bytes the device lends of buffer
    /// `src` straight into host physical memory.
    ///
    /// # Errors
    ///
    /// Same as [`DeviceHal::copy_h2d`].
    #[allow(clippy::too_many_arguments)] // DMA descriptors are wide
    pub fn copy_d2h(
        &mut self,
        machine: &mut Machine,
        bus: &PcieBus,
        ctx: DeviceCtx,
        src: u64,
        src_offset: u64,
        host_dst: PhysAddr,
        len: usize,
    ) -> Result<SimNs, HalError> {
        let device = self.device_id();
        let dma = |src: &[u8]| -> Result<SimNs, HalError> {
            Ok(bus.dma_from_device(machine, device, host_dst, src)?)
        };
        match (self, ctx) {
            (DeviceHal::Gpu(d), DeviceCtx::Gpu(c)) => {
                d.dma_out(c, GpuBuffer::from_raw(src), src_offset, len, dma)
            }
            (DeviceHal::Npu(d), DeviceCtx::Npu(c)) => {
                d.dma_out(c, NpuBuffer::from_raw(src), src_offset, len, dma)
            }
            (hal, ctx) => Err(hal.not_a_context(ctx)),
        }
    }

    fn not_a_context(&self, ctx: DeviceCtx) -> HalError {
        HalError::WrongKind {
            expected: match ctx {
                DeviceCtx::Cpu(_) => DeviceKind::Cpu,
                DeviceCtx::Gpu(_) => DeviceKind::Gpu,
                DeviceCtx::Npu(_) => DeviceKind::Npu,
            },
            actual: self.kind(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cronus_devices::bus::PcieSlot;
    use cronus_sim::addr::PhysRange;
    use cronus_sim::pagetable::PagePerms;
    use cronus_sim::{MachineConfig, World};

    fn gpu_hal() -> DeviceHal {
        DeviceHal::Gpu(GpuDevice::new(
            DeviceId::new(1),
            StreamId::new(1),
            1 << 20,
            46,
        ))
    }

    /// Allocates `len` device bytes in `ctx`, returning the raw handle.
    fn alloc(hal: &mut DeviceHal, ctx: DeviceCtx, len: u64) -> u64 {
        let DeviceCtx::Gpu(ctx) = ctx else {
            panic!("expected gpu ctx");
        };
        hal.gpu_mut().unwrap().alloc(ctx, len).unwrap().as_raw()
    }

    fn secure_bus(device: DeviceId, stream: StreamId) -> PcieBus {
        let mut bus = PcieBus::new();
        bus.register(PcieSlot {
            device,
            bar: PhysRange::from_base_len(PhysAddr::new(0x1000_0000), 0x1000),
            stream,
            world: World::Secure,
        })
        .unwrap();
        bus
    }

    #[test]
    fn kind_and_context_lifecycle() {
        let mut hal = gpu_hal();
        assert_eq!(hal.kind(), DeviceKind::Gpu);
        let ctx = hal.create_context(4096).unwrap();
        assert_eq!(hal.context_count(), 1);
        hal.destroy_context(ctx).unwrap();
        assert_eq!(hal.context_count(), 0);
    }

    #[test]
    fn wrong_kind_access_rejected() {
        let mut hal = gpu_hal();
        assert!(matches!(
            hal.npu_mut().unwrap_err(),
            HalError::WrongKind {
                expected: DeviceKind::Npu,
                actual: DeviceKind::Gpu
            }
        ));
        assert!(matches!(
            hal.cpu_mut().unwrap_err(),
            HalError::WrongKind { .. }
        ));
        assert!(hal.gpu_mut().is_ok());
    }

    #[test]
    fn device_attestation_self_verifies() {
        let hal = gpu_hal();
        let att = hal.attest_device();
        assert!(att.verify_self());
        assert_eq!(att.kind, DeviceKind::Gpu);
        // Tampered config does not verify.
        let mut bad = att.clone();
        bad.config.push(0);
        assert!(!bad.verify_self());
    }

    #[test]
    fn gpu_memcpy_round_trip_via_dma() {
        let mut machine = Machine::new(MachineConfig::default());
        let mut hal = gpu_hal();
        let bus = secure_bus(hal.device_id(), hal.dma_stream());

        let ctx = hal.create_context(4096).unwrap();
        let buf = alloc(&mut hal, ctx, 8);

        // Stage host data in secure memory with an SMMU grant.
        let frame = machine.alloc_frame(World::Secure).unwrap();
        machine
            .smmu_mut()
            .grant(hal.dma_stream(), frame.page(), PagePerms::RW);
        machine
            .phys_write(World::Secure, frame.base(), &[9, 8, 7, 6, 5, 4, 3, 2])
            .unwrap();

        let t1 = hal
            .copy_h2d(&mut machine, &bus, ctx, buf, 0, frame.base(), 8)
            .unwrap();
        assert!(t1 > SimNs::ZERO);

        // Overwrite host memory, then copy back from the device.
        machine
            .phys_write(World::Secure, frame.base(), &[0u8; 8])
            .unwrap();
        hal.copy_d2h(&mut machine, &bus, ctx, buf, 0, frame.base(), 8)
            .unwrap();
        let host = machine
            .phys_read_vec(World::Secure, frame.base(), 8)
            .unwrap();
        assert_eq!(host, vec![9, 8, 7, 6, 5, 4, 3, 2]);
    }

    #[test]
    fn gpu_memcpy_without_smmu_grant_faults() {
        let mut machine = Machine::new(MachineConfig::default());
        let mut hal = gpu_hal();
        let bus = secure_bus(hal.device_id(), hal.dma_stream());
        let ctx = hal.create_context(4096).unwrap();
        let buf = alloc(&mut hal, ctx, 8);
        let frame = machine.alloc_frame(World::Secure).unwrap();
        let err = hal
            .copy_h2d(&mut machine, &bus, ctx, buf, 0, frame.base(), 8)
            .unwrap_err();
        assert!(matches!(err, HalError::Bus(BusError::DmaFault(_))));
    }

    #[test]
    fn memcpy_checks_the_device_side_before_moving_a_byte() {
        let mut machine = Machine::new(MachineConfig::default());
        let mut hal = gpu_hal();
        let bus = secure_bus(hal.device_id(), hal.dma_stream());
        let ctx = hal.create_context(4096).unwrap();
        let buf = alloc(&mut hal, ctx, 8);
        let frame = machine.alloc_frame(World::Secure).unwrap();
        machine
            .smmu_mut()
            .grant(hal.dma_stream(), frame.page(), PagePerms::RW);
        machine
            .phys_write(World::Secure, frame.base(), &[0xAA; 16])
            .unwrap();
        // Past the end of the buffer, an unknown handle, a context of another
        // device kind: typed errors, host memory untouched.
        let err = hal
            .copy_d2h(&mut machine, &bus, ctx, buf, 4, frame.base(), 8)
            .unwrap_err();
        assert!(matches!(err, HalError::Gpu(GpuError::OutOfBounds { .. })));
        let err = hal
            .copy_h2d(&mut machine, &bus, ctx, buf + 1, 0, frame.base(), 8)
            .unwrap_err();
        assert!(matches!(err, HalError::Gpu(GpuError::UnknownBuffer(_))));
        let npu_ctx = DeviceHal::Npu(NpuDevice::vta(DeviceId::new(2), StreamId::new(2)))
            .create_context(4096)
            .unwrap();
        let err = hal
            .copy_d2h(&mut machine, &bus, npu_ctx, buf, 0, frame.base(), 8)
            .unwrap_err();
        assert_eq!(
            err,
            HalError::WrongKind {
                expected: DeviceKind::Npu,
                actual: DeviceKind::Gpu
            }
        );
        let host = machine
            .phys_read_vec(World::Secure, frame.base(), 16)
            .unwrap();
        assert_eq!(host, vec![0xAA; 16]);
    }

    #[test]
    fn reset_device_clears_contexts() {
        let mut hal = gpu_hal();
        hal.create_context(4096).unwrap();
        hal.create_context(4096).unwrap();
        hal.reset_device();
        assert_eq!(hal.context_count(), 0);
    }
}
