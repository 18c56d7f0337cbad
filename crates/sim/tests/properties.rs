//! Property-based tests for the simulated machine.
//!
//! Cases come from the in-repo `proptest` shim (`crates/ptest`): seeded by the
//! test's name, so every run generates the same ones.

mod full {
    use std::collections::BTreeSet;
    use std::ops::Range;

    use proptest::prelude::*;

    use cronus_sim::addr::{PhysAddr, PhysRange, PAGE_SIZE};
    use cronus_sim::machine::AsId;
    use cronus_sim::pagetable::PagePerms;
    use cronus_sim::{Fault, Machine, MachineConfig, PhysMem, Tzasc, World};

    fn machine() -> Machine {
        Machine::new(MachineConfig::default())
    }

    proptest! {
        /// Overlap is symmetric and implied by containment of any endpoint.
        #[test]
        fn range_overlap_symmetric(a0 in 0u64..1 << 20, alen in 0u64..1 << 12, b0 in 0u64..1 << 20, blen in 0u64..1 << 12) {
            let a = PhysRange::from_base_len(PhysAddr::new(a0), alen);
            let b = PhysRange::from_base_len(PhysAddr::new(b0), blen);
            prop_assert_eq!(a.overlaps(b), b.overlaps(a));
            if a.overlaps(b) {
                prop_assert!(!a.is_empty() && !b.is_empty());
            }
            // Containment of b's start (for non-empty b) implies overlap.
            if !b.is_empty() && a.contains(b.start()) {
                prop_assert!(a.overlaps(b));
            }
        }

        /// Checked writes followed by checked reads round-trip at arbitrary
        /// offsets/lengths within a granted two-page window.
        #[test]
        fn machine_memory_roundtrip(offset in 0u64..PAGE_SIZE, data in proptest::collection::vec(any::<u8>(), 1..1024)) {
            let mut m = machine();
            let asid = AsId::new(1);
            m.register_partition(asid);
            let frames = m.alloc_frames(World::Secure, 2).expect("frames");
            // Contiguity is not guaranteed; restrict to within the first frame
            // unless the two frames happen to be adjacent.
            let contiguous = frames[1].page() == frames[0].page() + 1;
            for f in &frames {
                m.stage2_grant(asid, f.page(), PagePerms::RW).expect("grant");
            }
            let span = data.len() as u64 + offset;
            prop_assume!(contiguous || span <= PAGE_SIZE);
            let pa = frames[0].base().add(offset);
            m.mem_write(asid, World::Secure, pa, &data).expect("write");
            let back = m.mem_read_vec(asid, World::Secure, pa, data.len()).expect("read");
            prop_assert_eq!(back, data);
        }

        /// Frame allocation never double-allocates and free returns pages.
        #[test]
        fn allocator_conserves_pages(takes in 1usize..64) {
            let mut m = machine();
            let before = m.free_pages(World::Secure);
            let frames = m.alloc_frames(World::Secure, takes).expect("within pool");
            let mut pages: Vec<u64> = frames.iter().map(|f| f.page()).collect();
            pages.sort_unstable();
            pages.dedup();
            prop_assert_eq!(pages.len(), takes, "no duplicate frames");
            prop_assert_eq!(m.free_pages(World::Secure), before - takes);
            for f in frames {
                m.free_frame(f);
            }
            prop_assert_eq!(m.free_pages(World::Secure), before);
        }

        /// The normal world can never read a secure frame, regardless of offset.
        #[test]
        fn tzasc_filters_all_normal_world_accesses(offset in 0u64..PAGE_SIZE) {
            let mut m = machine();
            let frame = m.alloc_frame(World::Secure).expect("frame");
            let pa = frame.base().add(offset.min(PAGE_SIZE - 1));
            let err = m
                .mem_read_vec(AsId::NORMAL_WORLD, World::Normal, pa, 1)
                .expect_err("filtered");
            prop_assert!(err.is_world_filter());
        }

        /// Stage-2 grants are per-partition: partition B never gains access
        /// from partition A's grants.
        #[test]
        fn stage2_grants_do_not_leak_across_partitions(n in 1usize..16) {
            let mut m = machine();
            let a = AsId::new(1);
            let b = AsId::new(2);
            m.register_partition(a);
            m.register_partition(b);
            let frames = m.alloc_frames(World::Secure, n).expect("frames");
            for f in &frames {
                m.stage2_grant(a, f.page(), PagePerms::RW).expect("grant");
            }
            for f in &frames {
                prop_assert!(m.mem_read_vec(a, World::Secure, f.base(), 1).is_ok());
                let err = m.mem_read_vec(b, World::Secure, f.base(), 1).expect_err("isolated");
                prop_assert!(err.is_stage2());
            }
        }

        /// `PhysMem` behaves byte for byte, fault for fault and page for
        /// page like the dense arena it replaced, on random sequences of
        /// alloc / free / zero / read / write from both worlds, with
        /// page-crossing, empty, out-of-DRAM, wrapping and TZASC-denied
        /// accesses among them.
        #[test]
        fn phys_mem_matches_dense_reference(ops in proptest::collection::vec(
            (0u8..5, any::<u8>(), any::<u16>(), prop_oneof![Just(0u16), 1u16..16, 1u16..9000]),
            1..64,
        )) {
            let mut mem = PhysMem::new(PhysAddr::new(DRAM_BASE), 8, 8);
            let tzasc = Tzasc::new(mem.secure_range());
            let mut model = DenseMem::new(DRAM_BASE, 8, 8);
            let mut allocated: Vec<u64> = Vec::new();
            for (i, &(kind, a, b, len)) in ops.iter().enumerate() {
                let world = if a & 0x80 == 0 { World::Normal } else { World::Secure };
                let pa = model.address(a, b);
                let len = usize::from(len);
                match kind {
                    0 => {
                        let page = mem.alloc_page(world);
                        prop_assert_eq!(page, model.alloc(world), "op {}: alloc", i);
                        allocated.extend(page);
                    }
                    1 if !allocated.is_empty() => {
                        let page = allocated.swap_remove(usize::from(b) % allocated.len());
                        mem.free_page(page);
                        model.free(page);
                    }
                    2 => {
                        let page = DRAM_BASE / PAGE_SIZE + u64::from(b) % 16;
                        mem.zero_page(page);
                        model.zero(page);
                    }
                    3 => {
                        let mut buf = vec![0xA5; len];
                        let got = mem.read(&tzasc, world, PhysAddr::new(pa), &mut buf).map(|()| buf);
                        let want = model.span(world, pa, len).map(|r| model.bytes[r].to_vec());
                        prop_assert_eq!(got, want, "op {}: read {:#x}+{}", i, pa, len);
                    }
                    _ => {
                        let data: Vec<u8> = (0..len).map(|j| (i * 31 + j) as u8 | 1).collect();
                        let got = mem.write(&tzasc, world, PhysAddr::new(pa), &data);
                        let want = model.span(world, pa, len).map(|r| model.bytes[r].copy_from_slice(&data));
                        prop_assert_eq!(got, want, "op {}: write {:#x}+{}", i, pa, len);
                    }
                }
                for world in [World::Normal, World::Secure] {
                    prop_assert_eq!(mem.free_pages(world), model.free_pages(world), "op {}", i);
                }
            }
            let mut all = vec![0; model.bytes.len()];
            mem.read(&tzasc, World::Secure, PhysAddr::new(DRAM_BASE), &mut all).expect("dram");
            prop_assert!(all == model.bytes, "final DRAM contents differ");
        }
    }

    const DRAM_BASE: u64 = 0x8000_0000;

    /// The arena before DRAM was materialised on write, kept as the
    /// reference: one dense zeroed buffer, each world's free pages an
    /// ordered set handed out lowest first, pages zeroed on free, and the
    /// TZASC programmed over the secure pool.
    struct DenseMem {
        base: u64,
        secure_start: u64,
        bytes: Vec<u8>,
        free: [BTreeSet<u64>; 2],
    }

    impl DenseMem {
        fn new(base: u64, normal: u64, secure: u64) -> Self {
            let first = base / PAGE_SIZE;
            DenseMem {
                base,
                secure_start: base + normal * PAGE_SIZE,
                bytes: vec![0; ((normal + secure) * PAGE_SIZE) as usize],
                free: [
                    (first..first + normal).collect(),
                    (first + normal..first + normal + secure).collect(),
                ],
            }
        }

        fn free_pages(&self, world: World) -> usize {
            self.free[usize::from(world == World::Secure)].len()
        }

        fn alloc(&mut self, world: World) -> Option<u64> {
            self.free[usize::from(world == World::Secure)].pop_first()
        }

        fn free(&mut self, page: u64) {
            let secure = page * PAGE_SIZE >= self.secure_start;
            assert!(self.free[usize::from(secure)].insert(page), "double free");
            self.zero(page);
        }

        fn zero(&mut self, page: u64) {
            let at = (page * PAGE_SIZE - self.base) as usize;
            self.bytes[at..at + PAGE_SIZE as usize].fill(0);
        }

        /// An address near one of the interesting places: anywhere in
        /// DRAM, a page boundary, the world boundary, the end of DRAM,
        /// the top of the address space, or low memory below DRAM.
        fn address(&self, a: u8, b: u16) -> u64 {
            let (b, jitter) = (u64::from(b), u64::from(a & 0x0f));
            let end = self.base + self.bytes.len() as u64;
            match (a >> 4) % 6 {
                0 => self.base + b % self.bytes.len() as u64,
                1 => self.base + (b % 17) * PAGE_SIZE - 8 + jitter,
                2 => self.secure_start - 8 + jitter,
                3 => end - 8 + jitter,
                4 => u64::MAX - jitter,
                _ => b,
            }
        }

        /// The buffer range a `len`-byte access at `pa` from `world`
        /// touches, or the fault the access raises.
        fn span(&self, world: World, pa: u64, len: usize) -> Result<Range<usize>, Fault> {
            if len == 0 {
                return Ok(0..0);
            }
            let abort = Fault::BusAbort {
                pa: PhysAddr::new(pa),
            };
            let last = pa.checked_add(len as u64 - 1).ok_or(abort)?;
            if pa < self.base || last >= self.base + self.bytes.len() as u64 {
                return Err(abort);
            }
            for at in [pa, last] {
                if world == World::Normal && at >= self.secure_start {
                    return Err(Fault::TzascDenied {
                        world,
                        pa: PhysAddr::new(at),
                    });
                }
            }
            let start = (pa - self.base) as usize;
            Ok(start..start + len)
        }
    }
}
