//! Physical memory arena and world attributes.
//!
//! The simulated DRAM is a page arena. Like the paper's QEMU prototype, which
//! "allocates two separate MemRegions for the normal and secure world" and
//! gates them with an emulated TZC-400, the arena is split into a normal pool
//! and a secure pool whose boundary is enforced by [`crate::tzasc::Tzasc`].

use std::collections::BTreeSet;
use std::fmt;

use crate::addr::{PhysAddr, PhysRange, PAGE_SIZE};
use crate::fault::Fault;
use crate::tzasc::Tzasc;

/// The two TrustZone worlds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum World {
    /// The untrusted normal world (Linux, applications, Enclave Dispatcher).
    Normal,
    /// The trusted secure world (secure monitor, SPM, partitions).
    Secure,
}

impl World {
    /// Returns true if an accessor in `self` may touch memory attributed to
    /// `target`: the secure world may access both worlds, the normal world
    /// only its own.
    pub fn may_access(self, target: World) -> bool {
        match (self, target) {
            (World::Secure, _) => true,
            (World::Normal, World::Normal) => true,
            (World::Normal, World::Secure) => false,
        }
    }
}

impl fmt::Display for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            World::Normal => f.write_str("normal"),
            World::Secure => f.write_str("secure"),
        }
    }
}

/// The simulated DRAM: a contiguous page arena starting at `base`.
///
/// `PhysMem` itself performs no world checks; callers route accesses through
/// [`PhysMem::read`]/[`PhysMem::write`] with a [`Tzasc`] which filters them,
/// mirroring how the TZC-400 sits between the interconnect and DRAM.
#[derive(Debug)]
pub struct PhysMem {
    base: PhysAddr,
    /// All of DRAM as one zeroed slab; page `n` is the `n`-th `PAGE_SIZE`
    /// slice. One allocation the OS hands over already zeroed, instead of
    /// one boxed page per frame filled at boot.
    dram: Vec<u8>,
    free_normal: BTreeSet<u64>,
    free_secure: BTreeSet<u64>,
    normal: PhysRange,
    secure: PhysRange,
}

impl PhysMem {
    /// Creates DRAM with `normal_pages` normal-world pages followed by
    /// `secure_pages` secure-world pages, starting at physical `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page-aligned or either pool is empty.
    pub fn new(base: PhysAddr, normal_pages: u64, secure_pages: u64) -> Self {
        assert!(base.is_page_aligned(), "dram base must be page aligned");
        assert!(
            normal_pages > 0 && secure_pages > 0,
            "both pools must be non-empty"
        );
        let total = normal_pages + secure_pages;
        let first_page = base.page_number();
        let dram = vec![0u8; (total * PAGE_SIZE) as usize];
        let normal = PhysRange::from_base_len(base, normal_pages * PAGE_SIZE);
        let secure = PhysRange::from_base_len(normal.end(), secure_pages * PAGE_SIZE);
        PhysMem {
            base,
            dram,
            free_normal: (first_page..first_page + normal_pages).collect(),
            free_secure: (first_page + normal_pages..first_page + total).collect(),
            normal,
            secure,
        }
    }

    /// The normal-world DRAM range.
    pub fn normal_range(&self) -> PhysRange {
        self.normal
    }

    /// The secure-world DRAM range.
    pub fn secure_range(&self) -> PhysRange {
        self.secure
    }

    /// The full DRAM range.
    pub fn dram_range(&self) -> PhysRange {
        PhysRange::new(self.normal.start(), self.secure.end())
    }

    /// Number of free pages remaining in the pool of `world`.
    pub fn free_pages(&self, world: World) -> usize {
        match world {
            World::Normal => self.free_normal.len(),
            World::Secure => self.free_secure.len(),
        }
    }

    /// Allocates one page from the pool of `world`, returning its page
    /// number, or `None` if the pool is exhausted.
    pub fn alloc_page(&mut self, world: World) -> Option<u64> {
        let pool = match world {
            World::Normal => &mut self.free_normal,
            World::Secure => &mut self.free_secure,
        };
        let page = *pool.iter().next()?;
        pool.remove(&page);
        Some(page)
    }

    /// Returns a previously allocated page to its pool and zeroes it.
    ///
    /// Zeroing on free models the paper's requirement that crashed partitions
    /// must not leak residual contents (§IV-D, attack A3).
    ///
    /// # Panics
    ///
    /// Panics if the page is outside DRAM or already free (double free is a
    /// simulator-user bug, not a modeled hardware event).
    pub fn free_page(&mut self, page: u64) {
        let pa = PhysAddr::from_page_number(page);
        let pool = if self.normal.contains(pa) {
            &mut self.free_normal
        } else if self.secure.contains(pa) {
            &mut self.free_secure
        } else {
            panic!("free of non-dram page {page:#x}");
        };
        let inserted = pool.insert(page);
        assert!(inserted, "double free of page {page:#x}");
        self.page_mut(page).fill(0);
    }

    /// Zeroes a page without freeing it (used by partition clearing).
    pub fn zero_page(&mut self, page: u64) {
        self.page_mut(page).fill(0);
    }

    /// Byte offset of `pa` within the slab.
    fn offset_of(&self, pa: PhysAddr) -> Result<usize, Fault> {
        if !self.dram_range().contains(pa) {
            return Err(Fault::BusAbort { pa });
        }
        Ok((pa.as_u64() - self.base.as_u64()) as usize)
    }

    fn page_mut(&mut self, page: u64) -> &mut [u8] {
        let start = ((page - self.base.page_number()) * PAGE_SIZE) as usize;
        &mut self.dram[start..start + PAGE_SIZE as usize]
    }

    /// Reads `buf.len()` bytes at `pa` on behalf of `world`, filtered by
    /// the `tzasc`. The access must not cross a page boundary in a way that
    /// leaves DRAM, but may span pages.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::TzascDenied`] for filtered accesses and
    /// [`Fault::BusAbort`] for addresses outside DRAM.
    pub fn read(
        &self,
        tzasc: &Tzasc,
        world: World,
        pa: PhysAddr,
        buf: &mut [u8],
    ) -> Result<(), Fault> {
        self.check(tzasc, world, pa, buf.len() as u64)?;
        if !buf.is_empty() {
            // `check` placed the whole range inside DRAM, which is
            // contiguous: pages need no stitching.
            let at = self.offset_of(pa)?;
            buf.copy_from_slice(&self.dram[at..at + buf.len()]);
        }
        Ok(())
    }

    /// Writes `data` at `pa` on behalf of `world`, filtered by the `tzasc`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PhysMem::read`].
    pub fn write(
        &mut self,
        tzasc: &Tzasc,
        world: World,
        pa: PhysAddr,
        data: &[u8],
    ) -> Result<(), Fault> {
        self.check(tzasc, world, pa, data.len() as u64)?;
        if !data.is_empty() {
            let at = self.offset_of(pa)?;
            self.dram[at..at + data.len()].copy_from_slice(data);
        }
        Ok(())
    }

    fn check(&self, tzasc: &Tzasc, world: World, pa: PhysAddr, len: u64) -> Result<(), Fault> {
        if len == 0 {
            return Ok(());
        }
        let last = pa.add(len - 1);
        if !self.dram_range().contains(pa) || !self.dram_range().contains(last) {
            return Err(Fault::BusAbort { pa });
        }
        tzasc.check(world, pa)?;
        tzasc.check(world, last)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena() -> (PhysMem, Tzasc) {
        let mem = PhysMem::new(PhysAddr::new(0x8000_0000), 16, 16);
        let tzasc = Tzasc::new(mem.secure_range());
        (mem, tzasc)
    }

    #[test]
    fn world_access_matrix() {
        assert!(World::Secure.may_access(World::Secure));
        assert!(World::Secure.may_access(World::Normal));
        assert!(World::Normal.may_access(World::Normal));
        assert!(!World::Normal.may_access(World::Secure));
    }

    #[test]
    fn read_write_round_trip_within_world() {
        let (mut mem, tzasc) = arena();
        let pa = mem.normal_range().start().add(100);
        mem.write(&tzasc, World::Normal, pa, b"hello").unwrap();
        let mut buf = [0u8; 5];
        mem.read(&tzasc, World::Normal, pa, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn cross_page_access_spans_correctly() {
        let (mut mem, tzasc) = arena();
        let pa = mem.normal_range().start().add(PAGE_SIZE - 2);
        mem.write(&tzasc, World::Normal, pa, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 4];
        mem.read(&tzasc, World::Normal, pa, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn normal_world_cannot_touch_secure_memory() {
        let (mut mem, tzasc) = arena();
        let pa = mem.secure_range().start();
        let err = mem.write(&tzasc, World::Normal, pa, &[0xff]).unwrap_err();
        assert!(matches!(err, Fault::TzascDenied { .. }));
        let mut buf = [0u8; 1];
        let err = mem.read(&tzasc, World::Normal, pa, &mut buf).unwrap_err();
        assert!(matches!(err, Fault::TzascDenied { .. }));
    }

    #[test]
    fn secure_world_accesses_both_pools() {
        let (mut mem, tzasc) = arena();
        let n = mem.normal_range().start();
        let s = mem.secure_range().start();
        mem.write(&tzasc, World::Secure, n, &[1]).unwrap();
        mem.write(&tzasc, World::Secure, s, &[2]).unwrap();
    }

    #[test]
    fn access_straddling_world_boundary_is_filtered_for_normal() {
        let (mut mem, tzasc) = arena();
        // Last byte of normal memory .. first byte of secure memory.
        let pa = mem.secure_range().start().add(0).add(0);
        let pa = PhysAddr::new(pa.as_u64() - 1);
        let err = mem.write(&tzasc, World::Normal, pa, &[9, 9]).unwrap_err();
        assert!(matches!(err, Fault::TzascDenied { .. }));
    }

    #[test]
    fn out_of_dram_access_is_bus_abort() {
        let (mut mem, tzasc) = arena();
        let beyond = mem.dram_range().end();
        let err = mem.write(&tzasc, World::Secure, beyond, &[1]).unwrap_err();
        assert!(matches!(err, Fault::BusAbort { .. }));
        let below = PhysAddr::new(0x1000);
        let mut buf = [0u8; 1];
        let err = mem
            .read(&tzasc, World::Secure, below, &mut buf)
            .unwrap_err();
        assert!(matches!(err, Fault::BusAbort { .. }));
    }

    #[test]
    fn zero_length_access_always_succeeds() {
        let (mut mem, tzasc) = arena();
        let pa = mem.secure_range().start();
        mem.write(&tzasc, World::Normal, pa, &[]).unwrap();
    }

    #[test]
    fn alloc_respects_pools_and_exhaustion() {
        let (mut mem, _) = arena();
        let mut normal_pages = vec![];
        while let Some(p) = mem.alloc_page(World::Normal) {
            let pa = PhysAddr::from_page_number(p);
            assert!(mem.normal_range().contains(pa));
            normal_pages.push(p);
        }
        assert_eq!(normal_pages.len(), 16);
        assert_eq!(mem.free_pages(World::Normal), 0);
        assert_eq!(mem.free_pages(World::Secure), 16);
        mem.free_page(normal_pages[0]);
        assert_eq!(mem.free_pages(World::Normal), 1);
    }

    #[test]
    fn free_zeroes_page_contents() {
        let (mut mem, tzasc) = arena();
        let page = mem.alloc_page(World::Secure).unwrap();
        let pa = PhysAddr::from_page_number(page);
        mem.write(&tzasc, World::Secure, pa, &[0xAB; 64]).unwrap();
        mem.free_page(page);
        let page2 = mem.alloc_page(World::Secure).unwrap();
        // BTreeSet gives back the smallest page first, so we may not get the
        // same page; check directly instead.
        let mut buf = [0u8; 64];
        mem.read(&tzasc, World::Secure, pa, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
        let _ = page2;
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let (mut mem, _) = arena();
        let page = mem.alloc_page(World::Normal).unwrap();
        mem.free_page(page);
        mem.free_page(page);
    }
}
