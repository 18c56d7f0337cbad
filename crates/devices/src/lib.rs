//! # cronus-devices — simulated accelerators and the secure PCIe bus
//!
//! The paper evaluates CRONUS with an NVIDIA GTX 2080 (driven by
//! nouveau/gdev), a VTA-compatible NPU (TVM's `fsim` functional simulator
//! wrapped in a QEMU PCIe device), and CPU enclaves. This crate provides the
//! equivalent simulated hardware:
//!
//! * [`bus`] — a PCIe bus model whose DMA path is checked against the
//!   machine's SMMU and TZASC, mirroring the paper's modified QEMU bus that
//!   "allows devices in the secure PCIe bus to conduct DMA access only to
//!   the secure memory region",
//! * [`accel`] — what every accelerator has in common: identity and
//!   root-of-trust key, device DRAM partitioned into per-context buffers
//!   with quotas and zero-on-release, the DMA engine, the completion
//!   interrupt line and their telemetry,
//! * [`gpu`] — the GPU's command set over it: named kernels that really
//!   compute on device memory lent to them as checked [`view`]s, and an
//!   MPS-style spatial-sharing contention model,
//! * [`npu`] — the VTA-class NPU's: a LOAD/GEMM/ALU/STORE instruction set
//!   over int8 tensors (the reproduction's analogue of `fsim`),
//! * [`cpu`] — a trivial CPU "device" so CPU mEnclaves fit the same model.
//!
//! Every device carries a hardware root-of-trust key pair used by CRONUS's
//! accelerator-authenticity attestation (§IV-A), exposes a full
//! [`SimDevice::reset`] for failover clearing (§IV-D), and reports
//! per-operation costs from the machine's [`cronus_sim::CostModel`].

pub mod accel;
pub mod bus;
pub mod cpu;
pub mod gpu;
pub mod npu;
pub mod view;

pub use accel::{Accelerator, BufferId, ContextId, DeviceError, Dma, IRQ_QUEUE_SLOTS};
pub use bus::{BusError, PcieBus, PcieSlot};
pub use cpu::CpuDevice;
pub use gpu::{
    BufView, BufViewMut, GpuBuffer, GpuContextId, GpuDevice, GpuError, GpuKernelDesc, GpuMemAccess,
    KernelArg, KernelFn,
};
pub use npu::{AluOp, NpuBuffer, NpuDevice, VtaInsn, VtaProgram};

use cronus_crypto::{KeyPair, PublicKey};
use cronus_sim::tzpc::DeviceId;
use cronus_sim::StreamId;

/// The kind of computation a device accelerates; matches the manifest's
/// `device_type` field.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DeviceKind {
    /// General-purpose CPU (the paper's CPU mEnclave substrate).
    Cpu,
    /// CUDA-class GPU.
    Gpu,
    /// VTA-class NPU.
    Npu,
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceKind::Cpu => f.write_str("cpu"),
            DeviceKind::Gpu => f.write_str("gpu"),
            DeviceKind::Npu => f.write_str("npu"),
        }
    }
}

/// Behaviour common to all simulated devices.
pub trait SimDevice {
    /// Bus/TZPC identifier.
    fn id(&self) -> DeviceId;

    /// SMMU stream used for this device's DMA.
    fn dma_stream(&self) -> StreamId;

    /// Device-tree compatible string.
    fn compatible(&self) -> &str;

    /// Kind of accelerator.
    fn kind(&self) -> DeviceKind;

    /// Hardware root-of-trust public key (the paper's `PubK_acc`).
    fn rot_public(&self) -> PublicKey;

    /// Digest of the root-of-trust public key, as recorded by the SPM's
    /// security-event ledger in `device-endorsed` records.
    fn rot_digest(&self) -> cronus_crypto::Digest {
        cronus_crypto::measure("rot-public", &self.rot_public().0.to_le_bytes())
    }

    /// Signs `config` with the hardware key, proving authenticity.
    fn sign_config(&self, config: &[u8]) -> cronus_crypto::Signature;

    /// Number of live contexts (spatially sharing tenants).
    fn context_count(&self) -> usize;

    /// Clears *all* device state: memory, contexts, queues. Failover step 2
    /// runs this before an mOS reload so a recovered partition cannot read
    /// the crashed tenant's data.
    fn reset(&mut self);
}

/// Creates the deterministic hardware key pair for a device, as if burned
/// into ROM by `vendor`.
pub fn device_rot_keypair(vendor: &str, device: DeviceId) -> KeyPair {
    KeyPair::from_seed(&format!("rot:{vendor}:{}", device.as_u32()))
}

/// Creates the vendor endorsement key pair used by clients to check that
/// `PubK_acc` "is endorsed by the accelerator vendors" (§IV-A).
pub fn vendor_keypair(vendor: &str) -> KeyPair {
    KeyPair::from_seed(&format!("vendor:{vendor}"))
}

/// A vendor's endorsement of a device key: `Sign_vendor(PubK_acc)`.
pub fn endorse_device(vendor: &KeyPair, device_key: PublicKey) -> cronus_crypto::Signature {
    vendor.sign(&device_key.0.to_le_bytes())
}

/// Verifies a vendor endorsement.
pub fn verify_endorsement(
    vendor_public: PublicKey,
    device_key: PublicKey,
    endorsement: &cronus_crypto::Signature,
) -> bool {
    vendor_public
        .verify(&device_key.0.to_le_bytes(), endorsement)
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rot_keys_are_per_device() {
        let a = device_rot_keypair("nvidia", DeviceId::new(1));
        let b = device_rot_keypair("nvidia", DeviceId::new(2));
        assert_ne!(a.public(), b.public());
        // Deterministic: same inputs, same key.
        let a2 = device_rot_keypair("nvidia", DeviceId::new(1));
        assert_eq!(a.public(), a2.public());
    }

    #[test]
    fn endorsement_round_trip() {
        let vendor = vendor_keypair("nvidia");
        let dev = device_rot_keypair("nvidia", DeviceId::new(1));
        let sig = endorse_device(&vendor, dev.public());
        assert!(verify_endorsement(vendor.public(), dev.public(), &sig));
        // A different vendor's endorsement does not verify.
        let other = vendor_keypair("fabricated");
        assert!(!verify_endorsement(other.public(), dev.public(), &sig));
        // A fabricated device key is not endorsed.
        let fake = device_rot_keypair("fabricated", DeviceId::new(1));
        assert!(!verify_endorsement(vendor.public(), fake.public(), &sig));
    }

    #[test]
    fn device_kind_display() {
        assert_eq!(DeviceKind::Gpu.to_string(), "gpu");
        assert_eq!(DeviceKind::Npu.to_string(), "npu");
        assert_eq!(DeviceKind::Cpu.to_string(), "cpu");
    }
}
