//! Hardware Adaptation Layer.
//!
//! "HAL is responsible for configuring, accessing, attesting and virtualizing
//! hardware resources for different mEnclaves ... Overall, HAL works as a
//! 'driver' and virtualization layer for a device" (§IV-B). Each mOS owns
//! exactly one [`DeviceHal`] wrapping the one device its partition manages.
//! Contexts, memory, DMA and interrupts of an accelerator go through the
//! [`Accelerator`] every accelerator driver is built on; only a device's
//! command set is reached through its typed accessor.
//!
//! Host↔device copies go through the machine's DMA path, so they are checked
//! by the SMMU and TZASC like real transfers.

use std::fmt;

use cronus_crypto::{PublicKey, Signature};
use cronus_devices::bus::{BusError, PcieBus};
use cronus_devices::cpu::{CpuDevice, CpuError};
use cronus_devices::gpu::GpuDevice;
use cronus_devices::npu::NpuDevice;
use cronus_devices::{Accelerator, BufferId, ContextId, DeviceError, DeviceKind, Dma, SimDevice};
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
    /// Accelerator driver error.
    Device(DeviceError),
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
            HalError::Device(e) => write!(f, "device: {e}"),
            HalError::Cpu(e) => write!(f, "cpu: {e}"),
            HalError::Bus(e) => write!(f, "bus: {e}"),
        }
    }
}

impl std::error::Error for HalError {}

impl From<DeviceError> for HalError {
    fn from(e: DeviceError) -> Self {
        HalError::Device(e)
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
    /// A context of an accelerator of the given kind.
    Accel(DeviceKind, ContextId),
}

impl DeviceCtx {
    /// The kind of device this is a context of.
    pub fn kind(self) -> DeviceKind {
        match self {
            DeviceCtx::Cpu(_) => DeviceKind::Cpu,
            DeviceCtx::Accel(kind, _) => kind,
        }
    }
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
    /// The managed device, as what every device is.
    pub fn device(&self) -> &dyn SimDevice {
        match self {
            DeviceHal::Cpu(d) => d,
            DeviceHal::Gpu(d) => &**d,
            DeviceHal::Npu(d) => &**d,
        }
    }

    fn device_mut(&mut self) -> &mut dyn SimDevice {
        match self {
            DeviceHal::Cpu(d) => d,
            DeviceHal::Gpu(d) => &mut **d,
            DeviceHal::Npu(d) => &mut **d,
        }
    }

    /// The managed device, as what every accelerator is built on.
    fn accel_mut(&mut self) -> Option<&mut Accelerator> {
        match self {
            DeviceHal::Cpu(_) => None,
            DeviceHal::Gpu(d) => Some(d),
            DeviceHal::Npu(d) => Some(d),
        }
    }

    /// The managed accelerator and `ctx` as a context of it: the memory,
    /// DMA and interrupt surface every accelerator shares.
    ///
    /// # Errors
    ///
    /// [`HalError::WrongKind`] when `ctx` is not a context of the managed
    /// device.
    pub fn accel(&mut self, ctx: DeviceCtx) -> Result<(&mut Accelerator, ContextId), HalError> {
        let actual = self.kind();
        match (ctx, self.accel_mut()) {
            (DeviceCtx::Accel(kind, c), Some(accel)) if kind == actual => Ok((accel, c)),
            _ => Err(HalError::WrongKind {
                expected: ctx.kind(),
                actual,
            }),
        }
    }

    /// The managed device's kind.
    pub fn kind(&self) -> DeviceKind {
        self.device().kind()
    }

    /// Bus id of the managed device.
    pub fn device_id(&self) -> DeviceId {
        self.device().id()
    }

    /// SMMU stream of the managed device.
    pub fn dma_stream(&self) -> StreamId {
        self.device().dma_stream()
    }

    /// Live device contexts (spatial-sharing tenants).
    pub fn context_count(&self) -> usize {
        self.device().context_count()
    }

    /// Interrupt service routine: drains the device's pending completion
    /// interrupts ("HAL also handles page faults and interruptions from the
    /// device", §IV-B). Returns the number serviced.
    pub fn service_irqs(&mut self) -> u32 {
        self.accel_mut().map_or(0, Accelerator::take_irqs)
    }

    /// Fully clears device state (failover step 2).
    pub fn reset_device(&mut self) {
        self.device_mut().reset();
    }

    /// Produces the device's attestation evidence over its current
    /// configuration description.
    pub fn attest_device(&self) -> DeviceAttestation {
        let config = match self {
            DeviceHal::Cpu(d) => format!("cpu:{}", d.id()),
            DeviceHal::Gpu(d) => format!(
                "gpu:{}:sms={}:mem={}",
                d.id(),
                d.sm_count(),
                d.memory_capacity()
            ),
            DeviceHal::Npu(d) => format!("npu:{}", d.id()),
        }
        .into_bytes();
        let device = self.device();
        DeviceAttestation {
            kind: device.kind(),
            compatible: device.compatible().to_string(),
            rot_public: device.rot_public(),
            signature: device.sign_config(&config),
            config,
        }
    }

    /// Opens a device context with a memory quota (intra-accelerator
    /// isolation for spatial sharing, R2).
    ///
    /// # Errors
    ///
    /// Device-specific out-of-memory errors.
    pub fn create_context(&mut self, quota: u64) -> Result<DeviceCtx, HalError> {
        Ok(match self.accel_mut() {
            Some(accel) => DeviceCtx::Accel(accel.kind(), accel.create_context(quota)?),
            None => DeviceCtx::Cpu(self.cpu_mut()?.create_context()),
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
            (hal, ctx) => {
                let (accel, c) = hal.accel(ctx)?;
                Ok(accel.destroy_context(c)?)
            }
        }
    }

    fn wrong_kind(&self, expected: DeviceKind) -> HalError {
        HalError::WrongKind {
            expected,
            actual: self.kind(),
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
            other => Err(other.wrong_kind(DeviceKind::Gpu)),
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
            other => Err(other.wrong_kind(DeviceKind::Npu)),
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
            other => Err(other.wrong_kind(DeviceKind::Cpu)),
        }
    }

    /// Host↔device copy (`cudaMemcpy` and its NPU twin): the bus DMAs
    /// between host physical memory at `host` and the `len` bytes the
    /// device lends of buffer `buf` (a raw handle of `ctx`'s device) from
    /// `offset`, in direction `dir`. Returns the simulated transfer time.
    ///
    /// # Errors
    ///
    /// Bus/SMMU faults, device buffer errors, or [`HalError::WrongKind`]
    /// when `ctx` is not a context of the managed device.
    #[allow(clippy::too_many_arguments)] // DMA descriptors are wide
    pub fn copy(
        &mut self,
        machine: &mut Machine,
        bus: &PcieBus,
        dir: Dma,
        ctx: DeviceCtx,
        buf: u64,
        offset: u64,
        host: PhysAddr,
        len: usize,
    ) -> Result<SimNs, HalError> {
        let device = self.device_id();
        let (accel, ctx) = self.accel(ctx)?;
        let buf = BufferId::from_raw(buf);
        match dir {
            Dma::H2d => accel.dma_in(ctx, buf, offset, len, |dst| {
                Ok(bus.dma_to_device(machine, device, host, dst)?)
            }),
            Dma::D2h => accel.dma_out(ctx, buf, offset, len, |src| {
                Ok(bus.dma_from_device(machine, device, host, src)?)
            }),
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
        let (accel, ctx) = hal.accel(ctx).unwrap();
        accel.alloc(ctx, len).unwrap().as_raw()
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

        // A context handle of another device kind names both kinds, whatever
        // the operation.
        let mut machine = Machine::new(MachineConfig::default());
        let bus = secure_bus(hal.device_id(), hal.dma_stream());
        let host = machine.alloc_frame(World::Secure).unwrap().base();
        let mut npu = DeviceHal::Npu(NpuDevice::vta(DeviceId::new(2), StreamId::new(2)));
        let mut cpu = DeviceHal::Cpu(CpuDevice::new(DeviceId::new(3), StreamId::new(3)));
        for (other, expected) in [(&mut npu, DeviceKind::Npu), (&mut cpu, DeviceKind::Cpu)] {
            let foreign = other.create_context(4096).unwrap();
            let wrong = HalError::WrongKind {
                expected,
                actual: DeviceKind::Gpu,
            };
            assert_eq!(hal.destroy_context(foreign).unwrap_err(), wrong);
            let err = hal
                .copy(&mut machine, &bus, Dma::H2d, foreign, 1, 0, host, 8)
                .unwrap_err();
            assert_eq!(err, wrong);
            let said = wrong.to_string();
            assert!(
                said.contains("a gpu device") && said.contains(&format!("expects {expected}")),
                "{said}"
            );
            // And the other way round.
            let mine = hal.create_context(4096).unwrap();
            let wrong = HalError::WrongKind {
                expected: DeviceKind::Gpu,
                actual: expected,
            };
            assert_eq!(other.destroy_context(mine).unwrap_err(), wrong);
            hal.destroy_context(mine).unwrap();
        }
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
            .copy(&mut machine, &bus, Dma::H2d, ctx, buf, 0, frame.base(), 8)
            .unwrap();
        assert!(t1 > SimNs::ZERO);

        // Overwrite host memory, then copy back from the device.
        machine
            .phys_write(World::Secure, frame.base(), &[0u8; 8])
            .unwrap();
        hal.copy(&mut machine, &bus, Dma::D2h, ctx, buf, 0, frame.base(), 8)
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
            .copy(&mut machine, &bus, Dma::H2d, ctx, buf, 0, frame.base(), 8)
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
            .copy(&mut machine, &bus, Dma::D2h, ctx, buf, 4, frame.base(), 8)
            .unwrap_err();
        assert!(matches!(
            err,
            HalError::Device(DeviceError::OutOfBounds { .. })
        ));
        let err = hal
            .copy(
                &mut machine,
                &bus,
                Dma::H2d,
                ctx,
                buf + 1,
                0,
                frame.base(),
                8,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            HalError::Device(DeviceError::UnknownBuffer(_))
        ));
        let npu_ctx = DeviceHal::Npu(NpuDevice::vta(DeviceId::new(2), StreamId::new(2)))
            .create_context(4096)
            .unwrap();
        let err = hal
            .copy(
                &mut machine,
                &bus,
                Dma::D2h,
                npu_ctx,
                buf,
                0,
                frame.base(),
                8,
            )
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
