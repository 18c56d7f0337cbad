//! Property-based tests for the MicroOS layer.
//!
//! Cases come from the in-repo `proptest` shim (`crates/ptest`): seeded by the
//! test's name, so every run generates the same ones.

mod full {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use cronus_devices::gpu::GpuDevice;
    use cronus_devices::DeviceKind;
    use cronus_mos::hal::DeviceHal;
    use cronus_mos::manager::Owner;
    use cronus_mos::manifest::{Manifest, McallDecl, MosId};
    use cronus_mos::mos::MicroOs;
    use cronus_sim::addr::PAGE_SIZE;
    use cronus_sim::machine::AsId;
    use cronus_sim::tzpc::DeviceId;
    use cronus_sim::{Machine, MachineConfig, StreamId, World};

    fn setup() -> (Machine, MicroOs) {
        let mut machine = Machine::new(MachineConfig::default());
        let asid = AsId::new(2);
        machine.register_partition(asid);
        let gpu = GpuDevice::new(DeviceId::new(1), StreamId::new(1), 1 << 26, 46);
        let mos = MicroOs::new(MosId(2), asid, b"image", "v1", DeviceHal::Gpu(gpu));
        (machine, mos)
    }

    proptest! {
        /// Enclave creation + destruction conserves secure memory for any
        /// allocation pattern.
        #[test]
        fn enclave_memory_conservation(page_counts in proptest::collection::vec(1usize..8, 1..6)) {
            let (mut machine, mut mos) = setup();
            let before = machine.free_pages(World::Secure);
            let mut eids = Vec::new();
            for pages in &page_counts {
                let eid = mos
                    .create_enclave(
                        Manifest::new(DeviceKind::Gpu).with_memory(1 << 16),
                        &BTreeMap::new(),
                        Owner::App(1),
                        7,
                    )
                    .expect("create");
                mos.alloc_enclave_pages(&mut machine, eid, *pages).expect("alloc");
                eids.push(eid);
            }
            for eid in eids {
                mos.destroy_enclave(&mut machine, eid).expect("destroy");
            }
            prop_assert_eq!(machine.free_pages(World::Secure), before);
            prop_assert_eq!(mos.hal().context_count(), 0);
        }

        /// Enclave reads after writes round-trip at arbitrary in-bounds spans.
        #[test]
        fn enclave_rw_roundtrip(pages in 1usize..4, offset in 0u64..PAGE_SIZE, data in proptest::collection::vec(any::<u8>(), 1..512)) {
            let (mut machine, mut mos) = setup();
            let eid = mos
                .create_enclave(
                    Manifest::new(DeviceKind::Gpu).with_memory(1 << 16),
                    &BTreeMap::new(),
                    Owner::App(1),
                    7,
                )
                .expect("create");
            let va = mos.alloc_enclave_pages(&mut machine, eid, pages).expect("alloc");
            let span = offset + data.len() as u64;
            prop_assume!(span <= pages as u64 * PAGE_SIZE);
            let at = va.add(offset);
            mos.enclave_write(&mut machine, eid, at, &data).expect("write");
            let mut back = vec![0u8; data.len()];
            mos.enclave_read(&mut machine, eid, at, &mut back).expect("read");
            prop_assert_eq!(back, data);
        }

        /// Out-of-bounds enclave accesses always fault, never corrupt.
        #[test]
        fn enclave_oob_faults(pages in 1usize..3, past in 1u64..PAGE_SIZE) {
            let (mut machine, mut mos) = setup();
            let eid = mos
                .create_enclave(
                    Manifest::new(DeviceKind::Gpu).with_memory(1 << 16),
                    &BTreeMap::new(),
                    Owner::App(1),
                    7,
                )
                .expect("create");
            let va = mos.alloc_enclave_pages(&mut machine, eid, pages).expect("alloc");
            let beyond = va.add(pages as u64 * PAGE_SIZE + past - 1);
            let mut buf = [0u8; 2];
            prop_assert!(mos.enclave_read(&mut machine, eid, beyond, &mut buf).is_err());
        }

        /// Manifest measurements are injective over the mECall list.
        #[test]
        fn manifest_measurement_tracks_mecalls(names in proptest::collection::btree_set("[a-z]{1,12}", 1..8)) {
            let mut with_calls = Manifest::new(DeviceKind::Gpu);
            for n in &names {
                with_calls = with_calls.with_mecall(McallDecl::asynchronous(n));
            }
            let without = Manifest::new(DeviceKind::Gpu);
            prop_assert_ne!(with_calls.measurement(), without.measurement());
            // Flipping one sync flag changes the measurement.
            let mut flipped = Manifest::new(DeviceKind::Gpu);
            for (i, n) in names.iter().enumerate() {
                flipped = flipped.with_mecall(if i == 0 {
                    McallDecl::synchronous(n)
                } else {
                    McallDecl::asynchronous(n)
                });
            }
            prop_assert_ne!(flipped.measurement(), with_calls.measurement());
        }

        /// The DH secret agreed at creation matches the owner side for any
        /// owner public share.
        #[test]
        fn creation_dh_always_agrees(owner_seed in "[a-z0-9]{1,16}") {
            let (_machine, mut mos) = setup();
            let dh = cronus_crypto::DhKeyPair::from_seed(&owner_seed);
            let eid = mos
                .create_enclave(
                    Manifest::new(DeviceKind::Gpu).with_memory(1 << 16),
                    &BTreeMap::new(),
                    Owner::App(1),
                    dh.public(),
                )
                .expect("create");
            let entry = mos.manager().entry(eid).expect("entry");
            prop_assert_eq!(*entry.secret_dhke(), dh.agree(entry.dh_public));
        }
    }
}
