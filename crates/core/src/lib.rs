//! # cronus-core — the CRONUS TEE architecture
//!
//! This crate is the paper's primary contribution, assembled over the
//! substrate crates:
//!
//! * the **MicroEnclave model**: heterogeneous computation partitioned into
//!   per-device-kind enclaves with manifests, eids and ownership
//!   (`cronus-mos` supplies the Enclave Manager; this crate supplies the
//!   application-facing lifecycle in [`system::CronusSystem`]);
//! * the **Enclave Dispatcher** ([`dispatcher`]) in the untrusted normal
//!   world, with least-loaded routing and malicious-dispatch attack
//!   injection;
//! * **streaming RPC (sRPC)** ([`ring`], [`srpc`], [`stream`], driven by
//!   [`system::CronusSystem`]): requests flow through per-stream multi-lane
//!   rings in trusted shared TEE memory with per-lane `Rid`/`Sid` indices,
//!   doorbell-batched enqueue notifications, zero-copy payload grants,
//!   dCheck channel authentication and streamCheck completion checks.
//!   Callers stream without context switches and synchronize only when they
//!   need data;
//! * **secure failover**: stage-2 faults on streams convert into the
//!   proceed-trap failure signals of §IV-D (the heavy lifting lives in
//!   `cronus-spm`; this crate wires it into the RPC path);
//! * **attestation** glue: remote reports per partition and automatic local
//!   attestation at stream establishment.
//!
//! ## Quick tour
//!
//! ```
//! use std::collections::BTreeMap;
//! use cronus_core::{Actor, CronusSystem};
//! use cronus_devices::DeviceKind;
//! use cronus_mos::manifest::{Manifest, McallDecl};
//! use cronus_sim::SimNs;
//! use cronus_spm::spm::{BootConfig, DeviceSpec, PartitionSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut system = CronusSystem::boot(BootConfig {
//!     partitions: vec![
//!         PartitionSpec::new(1, b"cpu-mos", "v1", DeviceSpec::Cpu),
//!         PartitionSpec::new(2, b"cuda-mos", "v3", DeviceSpec::Gpu { memory: 1 << 26, sms: 46 }),
//!     ],
//!     ..Default::default()
//! });
//! let app = system.create_app();
//! let cpu = system.create_enclave(
//!     Actor::App(app),
//!     Manifest::new(DeviceKind::Cpu),
//!     &BTreeMap::new(),
//! )?;
//! let gpu = system.create_enclave(
//!     Actor::Enclave(cpu),
//!     Manifest::new(DeviceKind::Gpu)
//!         .with_mecall(McallDecl::asynchronous("launch"))
//!         .with_memory(1 << 20),
//!     &BTreeMap::new(),
//! )?;
//! system.register_handler(gpu, "launch", Box::new(|_ctx, args| {
//!     Ok((args.to_vec(), SimNs::from_micros(50)))
//! }));
//! let stream = system.stream(cpu, gpu).rings(4).open()?;
//! system.call(stream, "launch").payload(&[1, 2, 3]).start()?;
//! system.sync(stream)?;
//! # Ok(())
//! # }
//! ```
//!
//! ## Reliability and fault injection
//!
//! The [`inject`] module exposes deterministic fault-injection hooks at the
//! six phases of an sRPC call (used by the `cronus-chaos` campaign runner);
//! [`reliability`] supplies retry policies, deadlines and the stall
//! watchdog; [`error`] defines the typed [`error::CronusError`] hierarchy
//! that replaced stringly-typed handler failures.

pub mod call;
pub mod dispatcher;
pub mod error;
mod executor;
pub mod inject;
pub mod recovery;
pub mod reliability;
pub mod ring;
pub mod srpc;
pub mod stream;
mod stream_obs;
pub mod system;
pub mod transport;

pub use call::Call;
pub use cronus_forensics::MONITOR_CHAIN;
pub use dispatcher::{Dispatcher, PartitionInfo};
pub use error::{CronusError, FaultKind};
pub use inject::{ArmedFault, FaultAction, FiredFault, SrpcPhase};
pub use reliability::{retryable, RetryPolicy, StallWarning};
pub use srpc::{SrpcError, StreamId, StreamStats};
pub use stream::{StreamBuilder, StreamConfig};
pub use system::{
    Actor, AppId, CronusSystem, EnclaveRef, McallHandler, ServerCtx, SystemError,
    DEFAULT_ARENA_PAGES, DEFAULT_RING_PAGES, DEFAULT_STREAM_LANES,
};
