//! Architecturally visible events and the observer hook that receives them.
//!
//! The machine keeps no log of its own: [`crate::Machine::record`] hands
//! each event to the installed [`EventSink`] (the flight recorder in a
//! booted system, a collecting sink in a test that asserts on order).

use crate::clock::SimNs;
use crate::fault::Fault;
use crate::machine::AsId;

/// What happened.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// Normal <-> secure world switch.
    WorldSwitch,
    /// An sRPC request was enqueued into a trusted shared ring.
    RpcEnqueue { stream: u64 },
    /// An sRPC request was dequeued and dispatched.
    RpcDispatch { stream: u64 },
    /// A synchronization point merged two actor clocks.
    RpcSync { stream: u64 },
    /// A memory/DMA access faulted.
    Faulted(Fault),
    /// The secure monitor marked a partition failed.
    PartitionFailed { partition: AsId },
    /// A failed partition finished clearing (device + smem zeroed).
    PartitionCleared { partition: AsId },
    /// A partition's mOS finished restarting.
    PartitionRecovered { partition: AsId },
    /// Pages were shared between two partitions.
    MemoryShared { from: AsId, to: AsId, pages: usize },
    /// A trap handler delivered a failure signal to an mEnclave.
    FailureSignal { partition: AsId },
    /// A device raised (and the HAL serviced) completion interrupts.
    DeviceIrq {
        /// Interrupts serviced in this batch.
        count: u32,
    },
    /// Free-form marker for experiment phases.
    Marker(&'static str),
}

/// Observer hook for events as they are recorded.
///
/// The simulator deliberately does not depend on any observability crate;
/// higher layers (e.g. `cronus-obs`'s flight recorder) implement this trait
/// and install themselves with [`crate::Machine::set_event_sink`].
pub trait EventSink: Send {
    /// Called once per recorded event, in recording order.
    fn on_event(&mut self, at: SimNs, kind: &EventKind);
}
