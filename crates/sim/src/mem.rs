//! Physical memory arena and world attributes.
//!
//! The simulated DRAM is a page arena. Like the paper's QEMU prototype, which
//! "allocates two separate MemRegions for the normal and secure world" and
//! gates them with an emulated TZC-400, the arena is split into a normal pool
//! and a secure pool whose boundary is enforced by [`crate::tzasc::Tzasc`].

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;

use crate::addr::{PhysAddr, PhysRange, PAGE_SIZE};
use crate::fault::Fault;
use crate::tzasc::Tzasc;

const PAGE: usize = PAGE_SIZE as usize;

/// One materialised DRAM page.
type Page = Box<[u8; PAGE]>;

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

/// The address of the last byte of the `len`-byte access at `pa` (`len` must
/// be non-zero), or a bus abort when the access would wrap the address space.
pub(crate) fn last_byte(pa: PhysAddr, len: u64) -> Result<PhysAddr, Fault> {
    len.checked_sub(1)
        .and_then(|rest| pa.as_u64().checked_add(rest))
        .map(PhysAddr::new)
        .ok_or(Fault::BusAbort { pa })
}

/// One world's free pages, handed out lowest first. The pages from `next` to
/// `end` have never been allocated; `returned` holds the freed ones, which
/// all lie below `next`, so its first element (else `next`) is the lowest.
#[derive(Debug)]
struct FreePool {
    start: u64,
    next: u64,
    end: u64,
    returned: BTreeSet<u64>,
}

impl FreePool {
    fn new(start: u64, end: u64) -> Self {
        FreePool {
            start,
            next: start,
            end,
            returned: BTreeSet::new(),
        }
    }

    fn contains(&self, page: u64) -> bool {
        self.start <= page && page < self.end
    }

    fn len(&self) -> usize {
        (self.end - self.next) as usize + self.returned.len()
    }

    fn take(&mut self) -> Option<u64> {
        if let Some(page) = self.returned.pop_first() {
            return Some(page);
        }
        let page = self.next;
        (page < self.end).then(|| {
            self.next += 1;
            page
        })
    }

    /// Takes an allocated page back; `None` if it is already free.
    fn give_back(&mut self, page: u64) -> Option<()> {
        (page < self.next && self.returned.insert(page)).then_some(())
    }
}

/// Splits `len` bytes at byte offset `at` from the DRAM base into per-page
/// pieces, `(page slot, byte range within that page)`, in address order.
fn pieces(mut at: usize, len: usize) -> impl Iterator<Item = (usize, Range<usize>)> {
    let end = at + len;
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let (slot, off) = (at / PAGE, at % PAGE);
            let n = (PAGE - off).min(end - at);
            at += n;
            (slot, off..off + n)
        })
    })
}

/// The simulated DRAM: a contiguous page arena starting at `base`.
///
/// A page is materialised on its first write. Until then, and again once
/// [`PhysMem::zero_page`] or [`PhysMem::free_page`] drops it, its slot is
/// empty and it reads as zeros: building DRAM costs one pointer per page
/// whatever its simulated size, and a freed page cannot leak what it held.
///
/// `PhysMem` itself performs no world checks; callers route accesses through
/// [`PhysMem::read`]/[`PhysMem::write`] with a [`Tzasc`] which filters them,
/// mirroring how the TZC-400 sits between the interconnect and DRAM.
#[derive(Debug)]
pub struct PhysMem {
    dram: PhysRange,
    normal: PhysRange,
    secure: PhysRange,
    /// One slot per page, in address order; `None` reads as zeros.
    pages: Vec<Option<Page>>,
    free_normal: FreePool,
    free_secure: FreePool,
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
        let normal = PhysRange::from_base_len(base, normal_pages * PAGE_SIZE);
        let secure = PhysRange::from_base_len(normal.end(), secure_pages * PAGE_SIZE);
        PhysMem {
            dram: PhysRange::new(base, secure.end()),
            normal,
            secure,
            pages: vec![None; total as usize],
            free_normal: FreePool::new(first_page, first_page + normal_pages),
            free_secure: FreePool::new(first_page + normal_pages, first_page + total),
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
        self.dram
    }

    /// Number of free pages remaining in the pool of `world`.
    pub fn free_pages(&self, world: World) -> usize {
        match world {
            World::Normal => self.free_normal.len(),
            World::Secure => self.free_secure.len(),
        }
    }

    /// Allocates one page from the pool of `world`, returning its page
    /// number, or `None` if the pool is exhausted. The lowest free page
    /// always comes first.
    pub fn alloc_page(&mut self, world: World) -> Option<u64> {
        match world {
            World::Normal => self.free_normal.take(),
            World::Secure => self.free_secure.take(),
        }
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
        [&mut self.free_normal, &mut self.free_secure]
            .into_iter()
            .find(|pool| pool.contains(page))
            .and_then(|pool| pool.give_back(page))
            .expect("double free, or free of a page outside DRAM");
        self.zero_page(page);
    }

    /// Zeroes a page without freeing it (used by partition clearing). A page
    /// outside DRAM holds nothing to zero.
    pub fn zero_page(&mut self, page: u64) {
        if let Some(slot) = page
            .checked_sub(self.dram.start().page_number())
            .and_then(|slot| self.pages.get_mut(usize::try_from(slot).ok()?))
        {
            *slot = None;
        }
    }

    /// Reads `buf.len()` bytes at `pa` on behalf of `world`, filtered by
    /// the `tzasc`. The access may span pages but must lie inside DRAM.
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
        let at = self.check(tzasc, world, pa, buf.len() as u64)?;
        // `check` placed the access inside DRAM, so neither lookup below
        // can miss.
        let abort = Fault::BusAbort { pa };
        let mut rest = buf;
        for (slot, within) in pieces(at, rest.len()) {
            let (dst, tail) = std::mem::take(&mut rest).split_at_mut(within.len());
            rest = tail;
            match self.pages.get(slot).ok_or(abort)? {
                Some(page) => dst.copy_from_slice(page.get(within).ok_or(abort)?),
                None => dst.fill(0),
            }
        }
        Ok(())
    }

    /// Writes `data` at `pa` on behalf of `world`, filtered by the `tzasc`,
    /// materialising every page it touches.
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
        let at = self.check(tzasc, world, pa, data.len() as u64)?;
        let abort = Fault::BusAbort { pa };
        let mut rest = data;
        for (slot, within) in pieces(at, data.len()) {
            let (src, tail) = rest.split_at(within.len());
            rest = tail;
            let page = self
                .pages
                .get_mut(slot)
                .ok_or(abort)?
                .get_or_insert_with(|| Box::new([0; PAGE]));
            page.get_mut(within).ok_or(abort)?.copy_from_slice(src);
        }
        Ok(())
    }

    /// Checks the `len`-byte access at `pa` from `world` and returns its
    /// byte offset from the DRAM base (0 for an empty access, which touches
    /// nothing and always passes).
    fn check(&self, tzasc: &Tzasc, world: World, pa: PhysAddr, len: u64) -> Result<usize, Fault> {
        if len == 0 {
            return Ok(0);
        }
        let last = last_byte(pa, len)?;
        if !self.dram.contains(pa) || !self.dram.contains(last) {
            return Err(Fault::BusAbort { pa });
        }
        tzasc.check(world, pa)?;
        tzasc.check(world, last)?;
        Ok((pa.as_u64() - self.dram.start().as_u64()) as usize)
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

    fn materialised(mem: &PhysMem) -> Vec<u64> {
        let first = mem.dram_range().start().page_number();
        (first..)
            .zip(&mem.pages)
            .filter(|(_, slot)| slot.is_some())
            .map(|(page, _)| page)
            .collect()
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
    fn pages_materialise_on_write_and_drop_on_zero_or_free() {
        let (mut mem, tzasc) = arena();
        assert!(materialised(&mem).is_empty(), "new materialises nothing");
        let first = mem.alloc_page(World::Normal).unwrap();
        let second = mem.alloc_page(World::Normal).unwrap();
        let third = mem.alloc_page(World::Normal).unwrap();
        assert!(materialised(&mem).is_empty(), "allocation is not a write");

        // Reads and empty writes touch nothing.
        let mut buf = [0xffu8; 8];
        let base = PhysAddr::from_page_number(first);
        mem.read(&tzasc, World::Normal, base, &mut buf).unwrap();
        assert_eq!(buf, [0; 8]);
        mem.write(&tzasc, World::Normal, base, &[]).unwrap();
        assert!(materialised(&mem).is_empty());

        // A write spanning the end of `first` and all of `second` into
        // `third` materialises exactly those three.
        let pa = base.add(PAGE_SIZE - 1);
        let data = vec![7u8; 2 + PAGE_SIZE as usize];
        mem.write(&tzasc, World::Normal, pa, &data).unwrap();
        assert_eq!(materialised(&mem), vec![first, second, third]);
        let mut back = vec![0u8; data.len()];
        mem.read(&tzasc, World::Normal, pa, &mut back).unwrap();
        assert_eq!(back, data);

        mem.zero_page(second);
        assert_eq!(materialised(&mem), vec![first, third]);
        mem.free_page(first);
        assert_eq!(materialised(&mem), vec![third]);
        mem.read(&tzasc, World::Normal, pa, &mut back).unwrap();
        assert!(back[..back.len() - 1].iter().all(|&b| b == 0));
        assert_eq!(back[back.len() - 1], 7);
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
        let mut buf = [0u8; 64];
        mem.read(&tzasc, World::Secure, pa, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let (mut mem, _) = arena();
        let page = mem.alloc_page(World::Normal).unwrap();
        mem.free_page(page);
        mem.free_page(page);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn freeing_a_never_allocated_page_panics() {
        let (mut mem, _) = arena();
        let page = mem.alloc_page(World::Normal).unwrap();
        mem.free_page(page + 1);
    }
}
