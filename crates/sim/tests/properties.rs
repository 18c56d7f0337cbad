//! Property-based tests for the simulated machine.
//!
//! Cases come from the in-repo `proptest` shim (`crates/ptest`): seeded by the
//! test's name, so every run generates the same ones.

mod full {
    use proptest::prelude::*;

    use cronus_sim::addr::{PhysAddr, PhysRange, PAGE_SIZE};
    use cronus_sim::machine::AsId;
    use cronus_sim::pagetable::PagePerms;
    use cronus_sim::{Machine, MachineConfig, World};

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
    }
}
