//! # cronus-sim — a simulated TrustZone-class machine
//!
//! This crate is the hardware substrate of the CRONUS reproduction. The paper
//! prototypes CRONUS on QEMU/FVP with an emulated TZC-400, a "secure" PCIe bus
//! and a simulated NPU; we follow the same strategy one level up and model the
//! *architectural* behaviour that CRONUS's security and performance arguments
//! rest on:
//!
//! * physical memory partitioned into secure and normal worlds, filtered by a
//!   [`tzasc::Tzasc`] (TrustZone Address Space Controller) model,
//! * I/O devices gated by a [`tzpc::Tzpc`] (TrustZone Protection Controller),
//! * stage-1 page tables per address space, stage-2 page tables per S-EL2
//!   partition, and SMMU tables per DMA-capable device
//!   ([`pagetable`], [`smmu`]),
//! * a validated device tree ([`devtree`]) used by attestation,
//! * a deterministic virtual clock and calibrated cost model ([`clock`]),
//! * the event vocabulary and sink hook ([`trace`]) higher layers observe.
//!
//! Every memory access in the simulation is a fallible operation returning
//! [`Fault`] values rather than UB; the proceed-trap failover protocol of the
//! paper (§IV-D) is expressed in terms of these faults.
//!
//! ```
//! use cronus_sim::{Machine, MachineConfig, World};
//!
//! # fn main() -> Result<(), cronus_sim::Fault> {
//! let mut machine = Machine::new(MachineConfig::default());
//! let frame = machine.alloc_frame(World::Secure).unwrap();
//! machine.phys_write(World::Secure, frame.base(), &[1, 2, 3])?;
//! // The normal world cannot read secure memory: the TZASC filters it.
//! assert!(machine.phys_read_vec(World::Normal, frame.base(), 3).is_err());
//! # Ok(())
//! # }
//! ```

pub mod addr;
pub mod clock;
pub mod cost;
pub mod devtree;
pub mod fault;
pub mod machine;
pub mod mem;
pub mod pagetable;
pub mod rng;
pub mod smmu;
pub mod trace;
pub mod tzasc;
pub mod tzpc;

pub use addr::{PhysAddr, VirtAddr, PAGE_SIZE};
pub use clock::{CostModel, SimClock, SimNs};
pub use cost::{Cost, CostRow, TimeCategory, Unit};
pub use devtree::{DeviceTree, DtNode, DtValidationError};
pub use fault::Fault;
pub use machine::{AsId, Frame, Machine, MachineConfig};
pub use mem::{PhysMem, World};
pub use pagetable::{PagePerms, PageTable, Stage2Table};
pub use rng::SimRng;
pub use smmu::{Smmu, StreamId};
pub use trace::{EventKind, EventSink};
pub use tzasc::Tzasc;
pub use tzpc::{DeviceId, Tzpc};
