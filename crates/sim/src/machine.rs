//! The simulated machine: DRAM + TZASC + TZPC + stage-2 tables + SMMU.
//!
//! [`Machine`] is the hardware root that the Secure Partition Manager drives.
//! It owns physical memory, the world filters, the per-partition stage-2
//! tables and the SMMU, and reports architecturally visible events to the
//! installed [`EventSink`]. Stage-1 tables are owned by each mOS (software), so stage-1
//! translation happens in `cronus-mos`; the machine exposes the *physical*
//! access path `stage-2 → TZASC → DRAM` and the DMA path `SMMU → TZASC → DRAM`.

use std::collections::BTreeMap;
use std::fmt;

use crate::addr::{PhysAddr, PAGE_SIZE};
use crate::clock::{CostModel, SimNs};
use crate::devtree::DeviceTree;
use crate::fault::Fault;
use crate::mem::{last_byte, PhysMem, World};
use crate::pagetable::{Access, PagePerms, Stage2Table};
use crate::smmu::{Smmu, StreamId};
use crate::trace::{EventKind, EventSink};
use crate::tzasc::Tzasc;
use crate::tzpc::Tzpc;

/// Identifier of an address-space owner: an S-EL2 partition (or, for the
/// normal world, the distinguished id [`AsId::NORMAL_WORLD`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AsId(u32);

impl AsId {
    /// The normal world's pseudo-partition id.
    pub const NORMAL_WORLD: AsId = AsId(0);

    /// Creates an id from a raw value.
    pub const fn new(raw: u32) -> Self {
        AsId(raw)
    }

    /// Returns the raw value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for AsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AsId({})", self.0)
    }
}

impl fmt::Display for AsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// An owned physical frame handle returned by [`Machine::alloc_frame`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Frame {
    page: u64,
    world: World,
}

impl Frame {
    /// Physical page number.
    pub fn page(self) -> u64 {
        self.page
    }

    /// The world whose pool the frame came from.
    pub fn world(self) -> World {
        self.world
    }

    /// Base physical address of the frame.
    pub fn base(self) -> PhysAddr {
        PhysAddr::from_page_number(self.page)
    }
}

/// Static machine configuration (Table II analogue).
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Physical base address of DRAM.
    pub dram_base: u64,
    /// Normal-world pages.
    pub normal_pages: u64,
    /// Secure-world pages.
    pub secure_pages: u64,
    /// Cost model used for all simulated timing.
    pub cost: CostModel,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            dram_base: 0x8000_0000,
            // 8 GiB normal / 4 GiB secure in the paper, scaled down 1024x
            // with the 2:1 ratio kept. DRAM is materialised on write, so the
            // size costs about one pointer per page; the scale stays because
            // every page number handed out, and so every committed baseline,
            // depends on it.
            normal_pages: 2048,
            secure_pages: 1024,
            cost: CostModel::default(),
        }
    }
}

/// What the machine keeps per partition: its stage-2 table and the failed
/// mark (`r_f` in the paper).
#[derive(Default)]
struct Partition {
    stage2: Stage2Table,
    failed: bool,
}

/// The simulated machine.
pub struct Machine {
    mem: PhysMem,
    tzasc: Tzasc,
    tzpc: Tzpc,
    smmu: Smmu,
    partitions: BTreeMap<AsId, Partition>,
    devtree: Option<DeviceTree>,
    cost: CostModel,
    monotonic: SimNs,
    sink: Option<Box<dyn EventSink>>,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("partitions", &self.partitions.len())
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds a machine from the configuration, with an empty TZPC and the
    /// TZASC programmed to cover the secure DRAM pool.
    pub fn new(config: MachineConfig) -> Self {
        let mem = PhysMem::new(
            PhysAddr::new(config.dram_base),
            config.normal_pages,
            config.secure_pages,
        );
        let tzasc = Tzasc::new(mem.secure_range());
        Machine {
            mem,
            tzasc,
            tzpc: Tzpc::new(),
            smmu: Smmu::new(),
            partitions: BTreeMap::new(),
            devtree: None,
            cost: config.cost,
            monotonic: SimNs::ZERO,
            sink: None,
        }
    }

    /// Installs the observer that receives every recorded event, in recording
    /// order. Replaces any previous sink.
    pub fn set_event_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sink = Some(sink);
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Records an event at the machine's monotonic timestamp counter.
    pub fn record(&mut self, kind: EventKind) {
        self.monotonic += SimNs::from_nanos(1);
        let at = self.monotonic;
        if let Some(sink) = self.sink.as_mut() {
            sink.on_event(at, &kind);
        }
    }

    /// The TZASC (read-only; programmed at construction and by secure boot).
    pub fn tzasc(&self) -> &Tzasc {
        &self.tzasc
    }

    /// The TZPC.
    pub fn tzpc(&self) -> &Tzpc {
        &self.tzpc
    }

    /// Mutable TZPC access (secure boot only).
    pub fn tzpc_mut(&mut self) -> &mut Tzpc {
        &mut self.tzpc
    }

    /// The SMMU.
    pub fn smmu(&self) -> &Smmu {
        &self.smmu
    }

    /// Mutable SMMU access (SPM only).
    pub fn smmu_mut(&mut self) -> &mut Smmu {
        &mut self.smmu
    }

    /// Physical memory statistics.
    pub fn free_pages(&self, world: World) -> usize {
        self.mem.free_pages(world)
    }

    /// Installs the boot device tree (once, at SPM init).
    ///
    /// # Panics
    ///
    /// Panics if a tree is already installed: the paper requires a reboot to
    /// activate a new DT, so double-installation is a driver bug.
    pub fn install_devtree(&mut self, dt: DeviceTree) {
        assert!(
            self.devtree.is_none(),
            "device tree already installed; reboot required"
        );
        self.devtree = Some(dt);
    }

    /// The installed device tree, if any.
    pub fn devtree(&self) -> Option<&DeviceTree> {
        self.devtree.as_ref()
    }

    // ---- frames -----------------------------------------------------------

    /// Allocates one frame from `world`'s pool.
    pub fn alloc_frame(&mut self, world: World) -> Option<Frame> {
        let page = self.mem.alloc_page(world)?;
        Some(Frame { page, world })
    }

    /// Allocates `n` frames, returning `None` (and freeing nothing) if the
    /// pool cannot satisfy the request atomically.
    pub fn alloc_frames(&mut self, world: World, n: usize) -> Option<Vec<Frame>> {
        if self.mem.free_pages(world) < n {
            return None;
        }
        (0..n).map(|_| self.alloc_frame(world)).collect()
    }

    /// Frees a frame, zeroing it.
    pub fn free_frame(&mut self, frame: Frame) {
        self.mem.free_page(frame.page);
    }

    /// Zeroes a physical page in place (partition clearing).
    pub fn zero_page(&mut self, page: u64) {
        self.mem.zero_page(page);
    }

    // ---- partitions & stage-2 ---------------------------------------------

    /// Registers a partition, creating its (empty) stage-2 table.
    pub fn register_partition(&mut self, asid: AsId) {
        self.partitions.entry(asid).or_default().failed = false;
    }

    fn stage2_mut(&mut self, asid: AsId) -> Option<&mut Stage2Table> {
        self.partitions.get_mut(&asid).map(|p| &mut p.stage2)
    }

    fn stage2(&self, asid: AsId) -> Option<&Stage2Table> {
        self.partitions.get(&asid).map(|p| &p.stage2)
    }

    /// Marks a partition failed (`r_f = 1` in the paper): all consecutive new
    /// memory-sharing requests and accesses are blocked. Marking an id never
    /// registered registers it, so it is blocked too.
    pub fn mark_failed(&mut self, asid: AsId) {
        self.partitions.entry(asid).or_default().failed = true;
        self.record(EventKind::PartitionFailed { partition: asid });
    }

    /// Clears the failed mark after recovery (`r_f = 0`).
    pub fn mark_recovered(&mut self, asid: AsId) {
        if let Some(p) = self.partitions.get_mut(&asid) {
            p.failed = false;
        }
        self.record(EventKind::PartitionRecovered { partition: asid });
    }

    /// Returns true while the partition is marked failed.
    pub fn is_failed(&self, asid: AsId) -> bool {
        self.partitions.get(&asid).is_some_and(|p| p.failed)
    }

    /// Grants `asid` stage-2 access to physical page `ppn`.
    ///
    /// # Errors
    ///
    /// Fails with [`Fault::PartitionFailed`] while the partition is marked
    /// failed (blocking new grants during failover is step 1 of §IV-D).
    pub fn stage2_grant(&mut self, asid: AsId, ppn: u64, perms: PagePerms) -> Result<(), Fault> {
        let p = self
            .partitions
            .get_mut(&asid)
            .ok_or(Fault::Stage2Unmapped {
                asid,
                pa: PhysAddr::from_page_number(ppn),
            })?;
        if p.failed {
            return Err(Fault::PartitionFailed { asid });
        }
        p.stage2.grant(ppn, perms);
        Ok(())
    }

    /// Invalidates `asid`'s stage-2 entry for `ppn` (accesses now trap).
    pub fn stage2_invalidate(&mut self, asid: AsId, ppn: u64) -> bool {
        self.stage2_mut(asid).is_some_and(|t| t.invalidate(ppn))
    }

    /// Re-validates an invalidated entry (page reclaim by its owner).
    pub fn stage2_revalidate(&mut self, asid: AsId, ppn: u64) -> bool {
        self.stage2_mut(asid).is_some_and(|t| t.revalidate(ppn))
    }

    /// Revokes a stage-2 entry entirely.
    pub fn stage2_revoke(&mut self, asid: AsId, ppn: u64) -> bool {
        self.stage2_mut(asid).is_some_and(|t| t.revoke(ppn))
    }

    /// Returns true if `asid` holds a *valid* stage-2 grant for `ppn`.
    pub fn stage2_is_valid(&self, asid: AsId, ppn: u64) -> bool {
        self.stage2(asid).is_some_and(|t| t.is_valid(ppn))
    }

    /// Pages granted (valid or invalidated) to a partition.
    pub fn stage2_pages(&self, asid: AsId) -> Vec<u64> {
        self.stage2(asid)
            .map(|t| t.granted_pages().collect())
            .unwrap_or_default()
    }

    /// Every registered partition, in id order (the normal world has no
    /// stage-2 table and never appears here).
    pub fn partitions(&self) -> Vec<AsId> {
        self.partitions.keys().copied().collect()
    }

    /// A partition's complete stage-2 state as `(ppn, perms, valid)`
    /// triples, sorted by page number — used by the isolation auditor.
    pub fn stage2_entries(&self, asid: AsId) -> Vec<(u64, PagePerms, bool)> {
        let mut entries: Vec<(u64, PagePerms, bool)> = self
            .stage2(asid)
            .map(|t| t.entries().collect())
            .unwrap_or_default();
        entries.sort_by_key(|(ppn, _, _)| *ppn);
        entries
    }

    /// The normal-world DRAM pool range.
    pub fn normal_range(&self) -> crate::addr::PhysRange {
        self.mem.normal_range()
    }

    /// The secure DRAM pool range.
    pub fn secure_range(&self) -> crate::addr::PhysRange {
        self.mem.secure_range()
    }

    // ---- checked physical access -----------------------------------------

    fn stage2_check(&self, asid: AsId, pa: PhysAddr, access: Access) -> Result<(), Fault> {
        if asid == AsId::NORMAL_WORLD {
            // The normal world has no stage-2 table in the secure world; the
            // TZASC alone filters it.
            return Ok(());
        }
        let p = self
            .partitions
            .get(&asid)
            .ok_or(Fault::Stage2Unmapped { asid, pa })?;
        if p.failed {
            return Err(Fault::PartitionFailed { asid });
        }
        p.stage2.check(asid, pa, access)
    }

    fn check_span(
        &self,
        asid: AsId,
        world: World,
        pa: PhysAddr,
        len: u64,
        access: Access,
    ) -> Result<(), Fault> {
        if len == 0 {
            return Ok(());
        }
        let last_page = last_byte(pa, len)?.page_number();
        for page in pa.page_number()..=last_page {
            let page_pa = PhysAddr::from_page_number(page);
            self.stage2_check(asid, page_pa, access)?;
            self.tzasc.check(world, page_pa)?;
        }
        Ok(())
    }

    /// Reads physical memory on behalf of partition `asid` executing in
    /// `world`, enforcing stage-2 then TZASC. Faults are reported to the event sink.
    ///
    /// # Errors
    ///
    /// Any [`Fault`] from the stage-2 or TZASC checks, or a bus abort.
    pub fn mem_read(
        &mut self,
        asid: AsId,
        world: World,
        pa: PhysAddr,
        buf: &mut [u8],
    ) -> Result<(), Fault> {
        if let Err(f) = self.check_span(asid, world, pa, buf.len() as u64, Access::Read) {
            self.record(EventKind::Faulted(f));
            return Err(f);
        }
        self.mem.read(&self.tzasc, world, pa, buf)
    }

    /// Writes physical memory on behalf of `asid`/`world`; see [`Machine::mem_read`].
    ///
    /// # Errors
    ///
    /// Any [`Fault`] from the stage-2 or TZASC checks, or a bus abort.
    pub fn mem_write(
        &mut self,
        asid: AsId,
        world: World,
        pa: PhysAddr,
        data: &[u8],
    ) -> Result<(), Fault> {
        if let Err(f) = self.check_span(asid, world, pa, data.len() as u64, Access::Write) {
            self.record(EventKind::Faulted(f));
            return Err(f);
        }
        self.mem.write(&self.tzasc, world, pa, data)
    }

    /// Convenience read returning a fresh buffer.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::mem_read`].
    pub fn mem_read_vec(
        &mut self,
        asid: AsId,
        world: World,
        pa: PhysAddr,
        len: usize,
    ) -> Result<Vec<u8>, Fault> {
        let mut buf = vec![0u8; len];
        self.mem_read(asid, world, pa, &mut buf)?;
        Ok(buf)
    }

    /// Raw physical write that bypasses stage-2 (but not TZASC): used by the
    /// secure monitor itself, which runs at EL3 above all partitions.
    ///
    /// # Errors
    ///
    /// TZASC faults or bus aborts.
    pub fn phys_write(&mut self, world: World, pa: PhysAddr, data: &[u8]) -> Result<(), Fault> {
        self.mem.write(&self.tzasc, world, pa, data)
    }

    /// Raw physical read counterpart of [`Machine::phys_write`].
    ///
    /// # Errors
    ///
    /// TZASC faults or bus aborts.
    pub fn phys_read_vec(
        &mut self,
        world: World,
        pa: PhysAddr,
        len: usize,
    ) -> Result<Vec<u8>, Fault> {
        let mut buf = vec![0u8; len];
        self.mem.read(&self.tzasc, world, pa, &mut buf)?;
        Ok(buf)
    }

    // ---- DMA ---------------------------------------------------------------

    /// Device DMA read through `SMMU → TZASC`.
    ///
    /// The `world` is the world the device is assigned to: the paper's QEMU
    /// prototype "allows devices in the secure PCIe bus to conduct DMA access
    /// only to the secure memory region"; here the TZASC enforces exactly the
    /// filtering appropriate to the device's world.
    ///
    /// # Errors
    ///
    /// [`Fault::SmmuDenied`], TZASC faults or bus aborts.
    pub fn dma_read(
        &mut self,
        stream: StreamId,
        world: World,
        pa: PhysAddr,
        buf: &mut [u8],
    ) -> Result<(), Fault> {
        if let Err(f) = self.dma_check(stream, world, pa, buf.len() as u64, Access::Read) {
            self.record(EventKind::Faulted(f));
            return Err(f);
        }
        self.mem.read(&self.tzasc, world, pa, buf)
    }

    /// Device DMA write; see [`Machine::dma_read`].
    ///
    /// # Errors
    ///
    /// [`Fault::SmmuDenied`], TZASC faults or bus aborts.
    pub fn dma_write(
        &mut self,
        stream: StreamId,
        world: World,
        pa: PhysAddr,
        data: &[u8],
    ) -> Result<(), Fault> {
        if let Err(f) = self.dma_check(stream, world, pa, data.len() as u64, Access::Write) {
            self.record(EventKind::Faulted(f));
            return Err(f);
        }
        self.mem.write(&self.tzasc, world, pa, data)
    }

    fn dma_check(
        &self,
        stream: StreamId,
        world: World,
        pa: PhysAddr,
        len: u64,
        access: Access,
    ) -> Result<(), Fault> {
        if len == 0 {
            return Ok(());
        }
        let last_page = last_byte(pa, len)?.page_number();
        for page in pa.page_number()..=last_page {
            let page_pa = PhysAddr::from_page_number(page);
            self.smmu.check(stream, page_pa, access)?;
            self.tzasc.check(world, page_pa)?;
        }
        Ok(())
    }

    /// Zeroes every page currently granted to `asid` in stage-2 and reports
    /// how many bytes were cleared. Part of failover step 2 (clear `D` and
    /// `smem` before reload).
    pub fn clear_partition_pages(&mut self, asid: AsId) -> u64 {
        let pages = self.stage2_pages(asid);
        for page in &pages {
            self.mem.zero_page(*page);
        }
        self.record(EventKind::PartitionCleared { partition: asid });
        pages.len() as u64 * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig::default())
    }

    const P1: AsId = AsId::new(1);
    const P2: AsId = AsId::new(2);

    type Seen = std::sync::Arc<std::sync::Mutex<Vec<(SimNs, EventKind)>>>;

    /// Collects every recorded event for the test to inspect.
    struct Collect(Seen);

    impl EventSink for Collect {
        fn on_event(&mut self, at: SimNs, kind: &EventKind) {
            self.0.lock().unwrap().push((at, kind.clone()));
        }
    }

    fn collect_events(m: &mut Machine) -> Seen {
        let seen = Seen::default();
        m.set_event_sink(Box::new(Collect(seen.clone())));
        seen
    }

    #[test]
    fn partition_needs_stage2_grant_to_access() {
        let mut m = machine();
        m.register_partition(P1);
        let frame = m.alloc_frame(World::Secure).unwrap();
        // No grant yet: stage-2 fault.
        let err = m
            .mem_write(P1, World::Secure, frame.base(), &[1])
            .unwrap_err();
        assert!(err.is_stage2());
        m.stage2_grant(P1, frame.page(), PagePerms::RW).unwrap();
        m.mem_write(P1, World::Secure, frame.base(), &[1, 2, 3])
            .unwrap();
        let data = m.mem_read_vec(P1, World::Secure, frame.base(), 3).unwrap();
        assert_eq!(data, vec![1, 2, 3]);
    }

    #[test]
    fn partitions_cannot_read_each_others_pages() {
        let mut m = machine();
        let seen = collect_events(&mut m);
        m.register_partition(P1);
        m.register_partition(P2);
        let frame = m.alloc_frame(World::Secure).unwrap();
        m.stage2_grant(P1, frame.page(), PagePerms::RW).unwrap();
        m.mem_write(P1, World::Secure, frame.base(), b"secret")
            .unwrap();
        let err = m
            .mem_read_vec(P2, World::Secure, frame.base(), 6)
            .unwrap_err();
        assert!(err.is_stage2());
        let faults = seen
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, k)| matches!(k, EventKind::Faulted(_)))
            .count();
        assert_eq!(faults, 1);
    }

    #[test]
    fn normal_world_is_filtered_by_tzasc_only() {
        let mut m = machine();
        let nw_frame = m.alloc_frame(World::Normal).unwrap();
        let sw_frame = m.alloc_frame(World::Secure).unwrap();
        m.mem_write(AsId::NORMAL_WORLD, World::Normal, nw_frame.base(), &[1])
            .unwrap();
        let err = m
            .mem_write(AsId::NORMAL_WORLD, World::Normal, sw_frame.base(), &[1])
            .unwrap_err();
        assert!(err.is_world_filter());
    }

    #[test]
    fn failed_partition_blocks_access_and_grants() {
        let mut m = machine();
        m.register_partition(P1);
        let frame = m.alloc_frame(World::Secure).unwrap();
        m.stage2_grant(P1, frame.page(), PagePerms::RW).unwrap();
        m.mark_failed(P1);
        assert!(m.is_failed(P1));
        let err = m
            .mem_read_vec(P1, World::Secure, frame.base(), 1)
            .unwrap_err();
        assert_eq!(err, Fault::PartitionFailed { asid: P1 });
        let err = m
            .stage2_grant(P1, frame.page() + 1, PagePerms::RW)
            .unwrap_err();
        assert_eq!(err, Fault::PartitionFailed { asid: P1 });
        m.mark_recovered(P1);
        assert!(m.mem_read_vec(P1, World::Secure, frame.base(), 1).is_ok());
    }

    #[test]
    fn stage2_invalidate_traps_then_revalidate_restores() {
        let mut m = machine();
        m.register_partition(P1);
        let frame = m.alloc_frame(World::Secure).unwrap();
        m.stage2_grant(P1, frame.page(), PagePerms::RW).unwrap();
        assert!(m.stage2_invalidate(P1, frame.page()));
        let err = m
            .mem_read_vec(P1, World::Secure, frame.base(), 1)
            .unwrap_err();
        assert!(err.is_stage2());
        assert!(m.stage2_revalidate(P1, frame.page()));
        assert!(m.mem_read_vec(P1, World::Secure, frame.base(), 1).is_ok());
    }

    #[test]
    fn dma_needs_smmu_grant() {
        let mut m = machine();
        let stream = StreamId::new(9);
        let frame = m.alloc_frame(World::Secure).unwrap();
        let err = m
            .dma_write(stream, World::Secure, frame.base(), &[7])
            .unwrap_err();
        assert!(matches!(err, Fault::SmmuDenied { .. }));
        m.smmu_mut().grant(stream, frame.page(), PagePerms::RW);
        m.dma_write(stream, World::Secure, frame.base(), &[7])
            .unwrap();
        let mut buf = [0u8; 1];
        m.dma_read(stream, World::Secure, frame.base(), &mut buf)
            .unwrap();
        assert_eq!(buf, [7]);
    }

    #[test]
    fn normal_world_device_dma_cannot_reach_secure_memory() {
        let mut m = machine();
        let stream = StreamId::new(3);
        let frame = m.alloc_frame(World::Secure).unwrap();
        // Even with an SMMU grant, the TZASC filters a normal-world device.
        m.smmu_mut().grant(stream, frame.page(), PagePerms::RW);
        let err = m
            .dma_write(stream, World::Normal, frame.base(), &[1])
            .unwrap_err();
        assert!(err.is_world_filter());
    }

    #[test]
    fn clear_partition_pages_zeroes_contents() {
        let mut m = machine();
        m.register_partition(P1);
        let frame = m.alloc_frame(World::Secure).unwrap();
        m.stage2_grant(P1, frame.page(), PagePerms::RW).unwrap();
        m.mem_write(P1, World::Secure, frame.base(), &[0xAA; 32])
            .unwrap();
        let cleared = m.clear_partition_pages(P1);
        assert_eq!(cleared, PAGE_SIZE);
        let data = m.mem_read_vec(P1, World::Secure, frame.base(), 32).unwrap();
        assert_eq!(data, vec![0u8; 32]);
    }

    /// Four bytes at `u64::MAX - 1` wrap the address space: every access
    /// path reports a bus abort instead of overflowing.
    const WRAPS: PhysAddr = PhysAddr::new(u64::MAX - 1);

    #[test]
    fn wrapping_phys_access_is_bus_abort() {
        let mut m = machine();
        let abort = Fault::BusAbort { pa: WRAPS };
        assert_eq!(m.phys_read_vec(World::Secure, WRAPS, 4), Err(abort));
        assert_eq!(m.phys_write(World::Secure, WRAPS, &[1; 4]), Err(abort));
    }

    #[test]
    fn wrapping_checked_access_is_bus_abort() {
        let mut m = machine();
        m.register_partition(P1);
        let abort = Fault::BusAbort { pa: WRAPS };
        for asid in [AsId::NORMAL_WORLD, P1] {
            assert_eq!(m.mem_read_vec(asid, World::Secure, WRAPS, 4), Err(abort));
            assert_eq!(m.mem_write(asid, World::Secure, WRAPS, &[1; 4]), Err(abort));
        }
    }

    #[test]
    fn wrapping_dma_is_bus_abort() {
        let mut m = machine();
        let stream = StreamId::new(9);
        let abort = Fault::BusAbort { pa: WRAPS };
        let mut buf = [0u8; 4];
        assert_eq!(
            m.dma_read(stream, World::Secure, WRAPS, &mut buf),
            Err(abort)
        );
        assert_eq!(m.dma_write(stream, World::Secure, WRAPS, &buf), Err(abort));
    }

    #[test]
    fn alloc_frames_is_atomic() {
        let mut m = machine();
        let free = m.free_pages(World::Secure);
        assert!(m.alloc_frames(World::Secure, free + 1).is_none());
        assert_eq!(m.free_pages(World::Secure), free);
        let frames = m.alloc_frames(World::Secure, 4).unwrap();
        assert_eq!(frames.len(), 4);
        assert_eq!(m.free_pages(World::Secure), free - 4);
    }

    #[test]
    #[should_panic(expected = "device tree already installed")]
    fn devtree_install_is_once() {
        let mut m = machine();
        let dt = DeviceTree::validate(vec![]).unwrap();
        m.install_devtree(dt.clone());
        m.install_devtree(dt);
    }

    #[test]
    fn record_events_are_ordered() {
        let mut m = machine();
        let seen = collect_events(&mut m);
        m.record(EventKind::Marker("a"));
        m.record(EventKind::Marker("b"));
        let events = seen.lock().unwrap();
        assert!(events[0].0 < events[1].0);
    }
}
