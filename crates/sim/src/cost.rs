//! Where simulated time is priced: one table of every charge the system
//! crates (core, spm, mos, runtime) make at a [`CostModel`] price.
//!
//! Each [`Cost`] row names one priced operation: the field that prices it,
//! its unit and the profiler frame (`category;detail`) its time is charged
//! to. Those crates read the fields only through [`CostModel::price`] (the
//! lint's `cost-seam` rule holds them to it), and `cronus_obs::spend` is the
//! one step that advances the acting clock by the price and charges the
//! row's frame with its count, so every charged nanosecond is a count times
//! a named cost.
//!
//! Measured durations stay outside the table: handler execution, retry
//! backoff, local computation an enclave reports, and the device
//! roofline/DMA models.

use crate::clock::{CostModel, SimNs};

use TimeCategory::{Crypto, Memcpy, Mgmt, Recovery, Ring, WorldSwitch};

/// Where a nanosecond of simulated time went.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimeCategory {
    /// Normal ↔ secure world switches.
    WorldSwitch,
    /// S-EL2 partition context switches.
    ContextSwitch,
    /// Crypto: attestation, key exchange, signing, encrypted RPC.
    Crypto,
    /// CPU/PCIe data movement.
    Memcpy,
    /// sRPC ring operations (enqueue, dequeue, sync wakeups, stream setup).
    Ring,
    /// Device/compute kernel execution.
    Kernel,
    /// Failover: invalidate, clear, reload, trap handling.
    Recovery,
    /// Partition/enclave management (boot, create, page mapping).
    Mgmt,
    /// Elapsed time not charged to any busy category.
    Idle,
}

impl TimeCategory {
    /// The folded-stack frame name.
    pub fn name(self) -> &'static str {
        match self {
            TimeCategory::WorldSwitch => "world-switch",
            TimeCategory::ContextSwitch => "context-switch",
            TimeCategory::Crypto => "crypto",
            TimeCategory::Memcpy => "memcpy",
            TimeCategory::Ring => "ring",
            TimeCategory::Kernel => "kernel",
            TimeCategory::Recovery => "recovery",
            TimeCategory::Mgmt => "mgmt",
            TimeCategory::Idle => "idle",
        }
    }

    /// All busy categories (everything except [`TimeCategory::Idle`]).
    pub const BUSY: [TimeCategory; 8] = [
        TimeCategory::WorldSwitch,
        TimeCategory::ContextSwitch,
        TimeCategory::Crypto,
        TimeCategory::Memcpy,
        TimeCategory::Ring,
        TimeCategory::Kernel,
        TimeCategory::Recovery,
        TimeCategory::Mgmt,
    ];
}

/// One priced operation: a row of the table in [`Cost::row`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cost {
    /// Creating an mEnclave (manifest parse, image load, measurement).
    EnclaveCreate,
    /// The owner's side of an enclave's key exchange.
    DhExchange,
    /// One normal ↔ secure world switch.
    WorldSwitch,
    /// Local attestation of a stream's callee.
    LocalAttest,
    /// Setting up an sRPC stream.
    StreamSetup,
    /// Mapping one page of a share into one of its two partitions.
    ShareMap,
    /// Booking one page of a zero-copy grant: the arena is mapped at open,
    /// so a grant is page bookkeeping, charged with the enqueue it rides on.
    GrantMap,
    /// Writing one request descriptor into a ring.
    SrpcEnqueue,
    /// Ringing an executor's doorbell (once per enqueue batch).
    SrpcDoorbell,
    /// Fetching and dispatching one request in the executor loop.
    SrpcDequeue,
    /// A caller observing the executor's progress at a sync point.
    SyncWakeup,
    /// Invalidating one page of a failed partition's shares.
    Invalidate,
    /// Unmapping one page in a survivor's proceed-trap handler.
    Trap,
    /// Clearing a failed partition's device and shared memory.
    PartitionClear,
    /// Reloading a failed partition's mOS.
    MosRestart,
    /// Copying bytes into a staging buffer.
    StagingWrite,
    /// Copying bytes out of a staging buffer.
    StagingRead,
}

/// What the `n` of a priced charge counts.
#[derive(Clone, Copy, Debug)]
pub enum Unit {
    /// Operations, each at the field's price.
    Op(fn(&CostModel) -> SimNs),
    /// Bytes, through one of [`CostModel`]'s bandwidth helpers.
    Bytes(fn(&CostModel, u64) -> SimNs),
}

/// How one [`Cost`] is priced and where its time is charged.
#[derive(Clone, Copy, Debug)]
pub struct CostRow {
    /// The [`CostModel`] field that prices it.
    pub field: &'static str,
    /// Per operation, or per byte.
    pub unit: Unit,
    /// The profiler category it is charged to.
    pub category: TimeCategory,
    /// The detail frame under the category, if any.
    pub detail: Option<&'static str>,
}

/// The priced charges. Two rows may share a field (`page_map`,
/// `page_unmap`) or a frame (`ring;enqueue`): a row is an operation, not a
/// constant.
impl Cost {
    /// Every row, in declaration order.
    pub const ALL: [Cost; 17] = [
        Cost::EnclaveCreate,
        Cost::DhExchange,
        Cost::WorldSwitch,
        Cost::LocalAttest,
        Cost::StreamSetup,
        Cost::ShareMap,
        Cost::GrantMap,
        Cost::SrpcEnqueue,
        Cost::SrpcDoorbell,
        Cost::SrpcDequeue,
        Cost::SyncWakeup,
        Cost::Invalidate,
        Cost::Trap,
        Cost::PartitionClear,
        Cost::MosRestart,
        Cost::StagingWrite,
        Cost::StagingRead,
    ];

    /// The row's position in [`Cost::ALL`].
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// How this operation is priced and where its time is charged.
    #[inline]
    pub fn row(self) -> CostRow {
        let op = Unit::Op;
        #[rustfmt::skip]
        let (field, unit, category, detail) = match self {
            Cost::EnclaveCreate  => ("enclave_create",      op(|cm| cm.enclave_create),    Mgmt,        Some("enclave_create")),
            Cost::DhExchange     => ("dh_exchange",         op(|cm| cm.dh_exchange),       Crypto,      Some("dh_exchange")),
            Cost::WorldSwitch    => ("world_switch",        op(|cm| cm.world_switch),      WorldSwitch, None),
            Cost::LocalAttest    => ("local_attest",        op(|cm| cm.local_attest),      Crypto,      Some("local_attest")),
            Cost::StreamSetup    => ("srpc_stream_setup",   op(|cm| cm.srpc_stream_setup), Ring,        Some("stream_setup")),
            Cost::ShareMap       => ("page_map",            op(|cm| cm.page_map),          Mgmt,        None),
            Cost::GrantMap       => ("page_map",            op(|cm| cm.page_map),          Ring,        Some("enqueue")),
            Cost::SrpcEnqueue    => ("srpc_enqueue",        op(|cm| cm.srpc_enqueue),      Ring,        Some("enqueue")),
            Cost::SrpcDoorbell   => ("srpc_doorbell",       op(|cm| cm.srpc_doorbell),     Ring,        Some("doorbell")),
            Cost::SrpcDequeue    => ("srpc_dequeue",        op(|cm| cm.srpc_dequeue),      Ring,        Some("dequeue")),
            Cost::SyncWakeup     => ("srpc_sync_wakeup",    op(|cm| cm.srpc_sync_wakeup),  Ring,        Some("sync_wakeup")),
            Cost::Invalidate     => ("page_unmap",          op(|cm| cm.page_unmap),        Recovery,    Some("invalidate")),
            Cost::Trap           => ("page_unmap",          op(|cm| cm.page_unmap),        Recovery,    Some("trap")),
            Cost::PartitionClear => ("partition_clear",     op(|cm| cm.partition_clear),   Recovery,    Some("clear")),
            Cost::MosRestart     => ("mos_restart",         op(|cm| cm.mos_restart),       Recovery,    Some("reload")),
            Cost::StagingWrite   => ("memcpy_bytes_per_ns", Unit::Bytes(CostModel::memcpy), Memcpy,     Some("staging_write")),
            Cost::StagingRead    => ("memcpy_bytes_per_ns", Unit::Bytes(CostModel::memcpy), Memcpy,     Some("staging_read")),
        };
        CostRow {
            field,
            unit,
            category,
            detail,
        }
    }
}

impl CostModel {
    /// The simulated time of `n` operations (bytes, for a per-byte row) of
    /// `cost`.
    #[inline]
    pub fn price(&self, cost: Cost, n: u64) -> SimNs {
        match cost.row().unit {
            Unit::Op(per_op) => per_op(self) * n,
            Unit::Bytes(through) => through(self, n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_row_in_declaration_order() {
        for (i, cost) in Cost::ALL.into_iter().enumerate() {
            assert_eq!(cost.index(), i, "{cost:?} is out of place");
        }
    }

    #[test]
    fn each_row_names_the_field_that_prices_it() {
        // No two fields share a default price, so a field's rendered
        // value identifies it.
        let cm = CostModel::default();
        let rendered = format!("{cm:?}");
        for cost in Cost::ALL {
            let row = cost.row();
            let Unit::Op(per_op) = row.unit else {
                let bw = format!("{}: {:?}", row.field, cm.memcpy_bytes_per_ns);
                assert!(rendered.contains(&bw), "{cost:?} names {}", row.field);
                continue;
            };
            let field = format!("{}: {:?}", row.field, per_op(&cm));
            assert!(rendered.contains(&field), "{cost:?} names {}", row.field);
        }
    }

    #[test]
    fn prices_scale_with_the_count() {
        let cm = CostModel::default();
        assert_eq!(cm.price(Cost::WorldSwitch, 2), cm.world_switch * 2);
        assert_eq!(cm.price(Cost::ShareMap, 0), SimNs::ZERO);
        assert_eq!(cm.price(Cost::StagingRead, 4096), cm.memcpy(4096));
        assert_eq!(cm.price(Cost::StagingWrite, 0), SimNs::ZERO);
    }
}
