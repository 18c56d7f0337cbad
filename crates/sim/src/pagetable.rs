//! Stage-1 and stage-2 page table models.
//!
//! * A [`PageTable`] is a stage-1 table: it maps an enclave's (or mOS's)
//!   virtual pages to physical pages with permissions.
//! * A [`Stage2Table`] is an S-EL2 stage-2 table: it records which physical
//!   pages a *partition* may access at all. CRONUS's Secure Partition Manager
//!   isolates partitions by construction of these tables, and its failover
//!   protocol works by *invalidating* stage-2 entries so that subsequent
//!   accesses trap (§IV-D, step 1).
//!
//! We model stage-2 translation as identity (IPA == PA) with a validity +
//! permission bit per physical page, which is precisely the part of the
//! mechanism CRONUS's isolation argument depends on. Both tables hash page
//! numbers with a fixed hasher, not SipHash; it is unordered, so exports sort.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::addr::{PhysAddr, VirtAddr};
use crate::fault::Fault;
use crate::machine::AsId;

/// Access permissions attached to a page mapping.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PagePerms {
    /// Page may be read.
    pub read: bool,
    /// Page may be written.
    pub write: bool,
}

impl PagePerms {
    /// Read-write permissions.
    pub const RW: PagePerms = PagePerms {
        read: true,
        write: true,
    };
    /// Read-only permissions.
    pub const RO: PagePerms = PagePerms {
        read: true,
        write: false,
    };

    /// Returns true if these permissions allow the given access kind.
    pub fn allows(self, access: Access) -> bool {
        match access {
            Access::Read => self.read,
            Access::Write => self.write,
        }
    }
}

/// The kind of memory access being checked.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Access {
    /// Load.
    Read,
    /// Store (including atomic read-modify-write).
    Write,
}

/// rustc-hash's construction: a multiply per `u64`, rotated so high bits index.
#[derive(Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[derive(Clone, Copy, Debug)]
struct Stage1Entry {
    ppn: u64,
    perms: PagePerms,
}

/// A stage-1 page table for one address space.
#[derive(Clone, Debug, Default)]
pub struct PageTable {
    entries: HashMap<u64, Stage1Entry, BuildHasherDefault<PageHasher>>,
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PageTable::default()
    }

    /// Maps virtual page `vpn` to physical page `ppn`. Remapping an existing
    /// page replaces the entry (like rewriting a PTE).
    pub fn map(&mut self, vpn: u64, ppn: u64, perms: PagePerms) {
        self.entries.insert(vpn, Stage1Entry { ppn, perms });
    }

    /// Removes the mapping of `vpn`, returning the physical page it pointed
    /// to, if any.
    pub fn unmap(&mut self, vpn: u64) -> Option<u64> {
        self.entries.remove(&vpn).map(|e| e.ppn)
    }

    /// Number of live mappings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true when the table has no mappings.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Translates a virtual address, checking `access` against the entry's
    /// permissions.
    ///
    /// # Errors
    ///
    /// [`Fault::Stage1Unmapped`] if no entry exists,
    /// [`Fault::Stage1Permission`] if the entry forbids `access`.
    pub fn translate(&self, asid: AsId, va: VirtAddr, access: Access) -> Result<PhysAddr, Fault> {
        let entry = self
            .entries
            .get(&va.page_number())
            .ok_or(Fault::Stage1Unmapped { asid, va })?;
        if !entry.perms.allows(access) {
            return Err(Fault::Stage1Permission { asid, va });
        }
        Ok(PhysAddr::from_page_number(entry.ppn).add(va.page_offset()))
    }

    /// Iterates over `(vpn, ppn)` pairs (used when tearing down an enclave).
    pub fn mappings(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.entries.iter().map(|(vpn, e)| (*vpn, e.ppn))
    }

    /// Iterates over `(vpn, ppn, perms)` triples — the full mapping state,
    /// used by the isolation auditor to extract a model of this table.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64, PagePerms)> + '_ {
        self.entries.iter().map(|(vpn, e)| (*vpn, e.ppn, e.perms))
    }

    /// Removes every mapping whose physical page satisfies `pred`, returning
    /// the removed `(vpn, ppn)` pairs. Used by trap handling: "CRONUS asks
    /// P_i to invalidate the mEnclave's page table entries that map memory to
    /// P_a's" (§IV-D, step 3).
    pub fn unmap_where<F: FnMut(u64) -> bool>(&mut self, mut pred: F) -> Vec<(u64, u64)> {
        let mut removed = Vec::new();
        self.entries.retain(|&vpn, e| {
            let doomed = pred(e.ppn);
            if doomed {
                removed.push((vpn, e.ppn));
            }
            !doomed
        });
        removed
    }
}

#[derive(Clone, Copy, Debug)]
struct Stage2Entry {
    perms: PagePerms,
    valid: bool,
}

/// A stage-2 table: the set of physical pages one partition may access.
#[derive(Clone, Debug, Default)]
pub struct Stage2Table {
    entries: HashMap<u64, Stage2Entry, BuildHasherDefault<PageHasher>>,
}

impl Stage2Table {
    /// Creates an empty stage-2 table.
    pub fn new() -> Self {
        Stage2Table::default()
    }

    /// Grants the partition access to physical page `ppn`.
    pub fn grant(&mut self, ppn: u64, perms: PagePerms) {
        self.entries.insert(ppn, Stage2Entry { perms, valid: true });
    }

    /// Revokes the grant entirely (page no longer belongs to the partition).
    pub fn revoke(&mut self, ppn: u64) -> bool {
        self.entries.remove(&ppn).is_some()
    }

    /// Invalidates the entry without removing it; subsequent accesses fault.
    /// This is the proceed-trap "invalidate stage-2 page table entries" step.
    /// Returns true if an entry existed.
    pub fn invalidate(&mut self, ppn: u64) -> bool {
        match self.entries.get_mut(&ppn) {
            Some(e) => {
                e.valid = false;
                true
            }
            None => false,
        }
    }

    /// Re-validates a previously invalidated entry (used when the surviving
    /// partition reclaims a page it owns, §IV-D step 3).
    pub fn revalidate(&mut self, ppn: u64) -> bool {
        match self.entries.get_mut(&ppn) {
            Some(e) => {
                e.valid = true;
                true
            }
            None => false,
        }
    }

    /// Returns true if the partition currently has a *valid* grant for `ppn`.
    pub fn is_valid(&self, ppn: u64) -> bool {
        self.entries.get(&ppn).is_some_and(|e| e.valid)
    }

    /// Returns true if an entry exists at all (valid or invalidated).
    pub fn contains(&self, ppn: u64) -> bool {
        self.entries.contains_key(&ppn)
    }

    /// Checks an access by the partition `asid` to physical address `pa`.
    ///
    /// # Errors
    ///
    /// [`Fault::Stage2Unmapped`] when no valid entry covers the page,
    /// [`Fault::Stage2Permission`] when the entry forbids the access.
    pub fn check(&self, asid: AsId, pa: PhysAddr, access: Access) -> Result<(), Fault> {
        match self.entries.get(&pa.page_number()) {
            Some(e) if e.valid => {
                if e.perms.allows(access) {
                    Ok(())
                } else {
                    Err(Fault::Stage2Permission { asid, pa })
                }
            }
            _ => Err(Fault::Stage2Unmapped { asid, pa }),
        }
    }

    /// All granted physical pages (valid and invalidated).
    pub fn granted_pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.keys().copied()
    }

    /// Iterates over `(ppn, perms, valid)` triples — the full grant state,
    /// used by the isolation auditor to extract a model of this table.
    pub fn entries(&self) -> impl Iterator<Item = (u64, PagePerms, bool)> + '_ {
        self.entries.iter().map(|(ppn, e)| (*ppn, e.perms, e.valid))
    }

    /// Number of entries in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ASID: AsId = AsId::new(1);

    #[test]
    fn stage1_translate_preserves_offset() {
        let mut pt = PageTable::new();
        pt.map(3, 42, PagePerms::RW);
        let pa = pt
            .translate(ASID, VirtAddr::from_page_number(3).add(0x123), Access::Read)
            .unwrap();
        assert_eq!(pa, PhysAddr::from_page_number(42).add(0x123));
    }

    #[test]
    fn stage1_unmapped_and_permission_faults() {
        let mut pt = PageTable::new();
        pt.map(1, 10, PagePerms::RO);
        assert!(matches!(
            pt.translate(ASID, VirtAddr::from_page_number(2), Access::Read),
            Err(Fault::Stage1Unmapped { .. })
        ));
        assert!(matches!(
            pt.translate(ASID, VirtAddr::from_page_number(1), Access::Write),
            Err(Fault::Stage1Permission { .. })
        ));
        assert!(pt
            .translate(ASID, VirtAddr::from_page_number(1), Access::Read)
            .is_ok());
    }

    #[test]
    fn stage1_remap_replaces_entry() {
        let mut pt = PageTable::new();
        pt.map(1, 10, PagePerms::RW);
        pt.map(1, 20, PagePerms::RW);
        let pa = pt
            .translate(ASID, VirtAddr::from_page_number(1), Access::Read)
            .unwrap();
        assert_eq!(pa.page_number(), 20);
        assert_eq!(pt.len(), 1);
    }

    #[test]
    fn stage1_unmap_where_filters_by_ppn() {
        let mut pt = PageTable::new();
        pt.map(1, 100, PagePerms::RW);
        pt.map(2, 200, PagePerms::RW);
        pt.map(3, 101, PagePerms::RW);
        let removed = pt.unmap_where(|ppn| (100..=101).contains(&ppn));
        assert_eq!(removed.len(), 2);
        assert_eq!(pt.len(), 1);
        assert!(pt
            .translate(ASID, VirtAddr::from_page_number(2), Access::Read)
            .is_ok());
    }

    #[test]
    fn stage2_grant_check_revoke() {
        let mut s2 = Stage2Table::new();
        s2.grant(5, PagePerms::RW);
        let pa = PhysAddr::from_page_number(5).add(8);
        assert!(s2.check(ASID, pa, Access::Write).is_ok());
        assert!(s2.revoke(5));
        assert!(matches!(
            s2.check(ASID, pa, Access::Read),
            Err(Fault::Stage2Unmapped { .. })
        ));
        assert!(!s2.revoke(5));
    }

    #[test]
    fn stage2_invalidate_traps_but_preserves_entry() {
        let mut s2 = Stage2Table::new();
        s2.grant(7, PagePerms::RW);
        assert!(s2.invalidate(7));
        assert!(s2.contains(7));
        assert!(!s2.is_valid(7));
        let pa = PhysAddr::from_page_number(7);
        assert!(matches!(
            s2.check(ASID, pa, Access::Read),
            Err(Fault::Stage2Unmapped { .. })
        ));
        assert!(s2.revalidate(7));
        assert!(s2.check(ASID, pa, Access::Read).is_ok());
    }

    #[test]
    fn stage2_readonly_grant_blocks_writes() {
        let mut s2 = Stage2Table::new();
        s2.grant(9, PagePerms::RO);
        let pa = PhysAddr::from_page_number(9);
        assert!(s2.check(ASID, pa, Access::Read).is_ok());
        assert!(matches!(
            s2.check(ASID, pa, Access::Write),
            Err(Fault::Stage2Permission { .. })
        ));
    }

    #[test]
    fn stage2_invalidate_missing_entry_returns_false() {
        let mut s2 = Stage2Table::new();
        assert!(!s2.invalidate(1));
        assert!(!s2.revalidate(1));
    }
}
