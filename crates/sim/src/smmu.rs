//! SMMU (IOMMU) model for DMA-capable devices.
//!
//! Each DMA-capable device owns a *stream*; the SMMU maps stream ids to
//! permitted physical pages. CRONUS invalidates SMMU entries together with
//! stage-2 entries during failover so that in-flight device DMA to a failed
//! partition's shared memory also traps (§IV-D, step 1).

use std::collections::BTreeMap;
use std::fmt;

use crate::addr::PhysAddr;
use crate::fault::Fault;
use crate::machine::AsId;
use crate::pagetable::{Access, PagePerms, Stage2Table};

/// Identifier of an SMMU stream (one per DMA-capable device).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(u32);

impl StreamId {
    /// Creates a stream id.
    pub const fn new(raw: u32) -> Self {
        StreamId(raw)
    }

    /// Returns the raw id.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StreamId({})", self.0)
    }
}

/// The system SMMU: per-stream page grant tables.
///
/// Internally each stream reuses [`Stage2Table`] because the semantics
/// (grant / invalidate / check) are identical to a partition's stage-2 table.
#[derive(Debug, Default)]
pub struct Smmu {
    streams: BTreeMap<StreamId, Stage2Table>,
}

impl Smmu {
    /// Creates an SMMU with no streams configured.
    pub fn new() -> Self {
        Smmu::default()
    }

    /// Registers a stream (idempotent).
    pub fn add_stream(&mut self, stream: StreamId) {
        self.streams.entry(stream).or_default();
    }

    /// Grants DMA access for `stream` to physical page `ppn`.
    pub fn grant(&mut self, stream: StreamId, ppn: u64, perms: PagePerms) {
        self.streams.entry(stream).or_default().grant(ppn, perms);
    }

    /// Revokes a grant entirely.
    pub fn revoke(&mut self, stream: StreamId, ppn: u64) -> bool {
        self.streams.get_mut(&stream).is_some_and(|t| t.revoke(ppn))
    }

    /// Invalidates a grant so later DMA traps (failover step 1).
    pub fn invalidate(&mut self, stream: StreamId, ppn: u64) -> bool {
        self.streams
            .get_mut(&stream)
            .is_some_and(|t| t.invalidate(ppn))
    }

    /// Invalidates every grant of `stream` covering a page in `pages`.
    /// Returns the number of entries invalidated.
    pub fn invalidate_pages(&mut self, stream: StreamId, pages: &[u64]) -> usize {
        match self.streams.get_mut(&stream) {
            Some(t) => pages.iter().filter(|p| t.invalidate(**p)).count(),
            None => 0,
        }
    }

    /// Checks a DMA access from `stream` to `pa`.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::SmmuDenied`] if the stream is unknown or the page is
    /// not (validly) granted.
    pub fn check(&self, stream: StreamId, pa: PhysAddr, access: Access) -> Result<(), Fault> {
        let table = self
            .streams
            .get(&stream)
            .ok_or(Fault::SmmuDenied { stream, pa })?;
        // Reuse the stage-2 check but translate the fault into an SMMU one;
        // the AsId in the inner check is a placeholder.
        table
            .check(AsId::new(u32::MAX), pa, access)
            .map_err(|_| Fault::SmmuDenied { stream, pa })
    }

    /// All pages currently granted (valid or not) to `stream`.
    pub fn granted_pages(&self, stream: StreamId) -> Vec<u64> {
        self.streams
            .get(&stream)
            .map(|t| t.granted_pages().collect())
            .unwrap_or_default()
    }

    /// Every configured stream and its grant table, in stream-id order —
    /// the full SMMU state, used by the isolation auditor.
    pub fn streams(&self) -> Vec<(StreamId, &Stage2Table)> {
        self.streams.iter().map(|(id, t)| (*id, t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GPU: StreamId = StreamId::new(1);

    #[test]
    fn unknown_stream_is_denied() {
        let smmu = Smmu::new();
        assert!(matches!(
            smmu.check(GPU, PhysAddr::new(0x1000), Access::Read),
            Err(Fault::SmmuDenied { .. })
        ));
    }

    #[test]
    fn grant_allows_dma_and_revoke_blocks() {
        let mut smmu = Smmu::new();
        smmu.grant(GPU, 4, PagePerms::RW);
        let pa = PhysAddr::from_page_number(4).add(16);
        assert!(smmu.check(GPU, pa, Access::Write).is_ok());
        assert!(smmu.revoke(GPU, 4));
        assert!(smmu.check(GPU, pa, Access::Read).is_err());
    }

    #[test]
    fn invalidate_traps_dma() {
        let mut smmu = Smmu::new();
        smmu.grant(GPU, 4, PagePerms::RW);
        assert_eq!(smmu.invalidate_pages(GPU, &[4, 5]), 1);
        assert!(smmu
            .check(GPU, PhysAddr::from_page_number(4), Access::Read)
            .is_err());
        assert_eq!(smmu.granted_pages(GPU), vec![4]);
    }

    #[test]
    fn streams_are_isolated_from_each_other() {
        let npu = StreamId::new(2);
        let mut smmu = Smmu::new();
        smmu.grant(GPU, 4, PagePerms::RW);
        smmu.add_stream(npu);
        assert!(smmu
            .check(npu, PhysAddr::from_page_number(4), Access::Read)
            .is_err());
    }
}
