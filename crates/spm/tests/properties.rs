//! Property-based tests for the SPM's sharing and failover invariants.
//!
//! Cases come from the in-repo `proptest` shim (`crates/ptest`): seeded by the
//! test's name, so every run generates the same ones.

mod full {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use cronus_devices::DeviceKind;
    use cronus_mos::manager::Owner;
    use cronus_mos::manifest::{Manifest, MosId};
    use cronus_sim::{PhysAddr, World};
    use cronus_spm::spm::{asid_of, BootConfig, DeviceSpec, PartitionSpec, Spm};

    fn boot() -> Spm {
        Spm::boot(BootConfig {
            partitions: vec![
                PartitionSpec::new(1, b"cpu-mos", "v1", DeviceSpec::Cpu),
                PartitionSpec::new(
                    2,
                    b"cuda-mos",
                    "v3",
                    DeviceSpec::Gpu {
                        memory: 1 << 26,
                        sms: 46,
                    },
                ),
            ],
            ..Default::default()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Share → fail → recover → reclaim conserves secure memory for any
        /// number of shares of any size, and the recovered partition always
        /// comes back clean.
        #[test]
        fn failover_conserves_memory(shares in proptest::collection::vec(1usize..6, 1..6)) {
            let mut spm = boot();
            let cpu = asid_of(MosId(1));
            let gpu = asid_of(MosId(2));
            let a = spm
                .create_enclave(cpu, Manifest::new(DeviceKind::Cpu), &BTreeMap::new(), Owner::App(1), 7)
                .expect("cpu enclave");
            let b = spm
                .create_enclave(
                    gpu,
                    Manifest::new(DeviceKind::Gpu).with_memory(1 << 20),
                    &BTreeMap::new(),
                    Owner::Enclave(a),
                    7,
                )
                .expect("gpu enclave");
            let before = spm.machine().free_pages(World::Secure);
            let mut handles = Vec::new();
            for pages in &shares {
                let (h, _, _) = spm.share_memory((cpu, a), (gpu, b), *pages).expect("share");
                handles.push(h);
            }
            spm.fail_partition(gpu).expect("fail");
            spm.recover_partition(gpu, b"cuda-mos", "v3").expect("recover");
            for h in handles {
                spm.reclaim_share(h).expect("reclaim");
            }
            prop_assert_eq!(spm.machine().free_pages(World::Secure), before);
            prop_assert_eq!(spm.mos(gpu).expect("mos").manager().len(), 0);
        }

        /// After step 1 (proceed), every shared page is invalid for the
        /// survivor and every page is zero after step 2, whatever was written.
        #[test]
        fn proceed_and_clear_cover_every_page(pages in 1usize..8, fill in any::<u8>()) {
            prop_assume!(fill != 0);
            let mut spm = boot();
            let cpu = asid_of(MosId(1));
            let gpu = asid_of(MosId(2));
            let a = spm
                .create_enclave(cpu, Manifest::new(DeviceKind::Cpu), &BTreeMap::new(), Owner::App(1), 7)
                .expect("cpu enclave");
            let b = spm
                .create_enclave(
                    gpu,
                    Manifest::new(DeviceKind::Gpu).with_memory(1 << 20),
                    &BTreeMap::new(),
                    Owner::Enclave(a),
                    7,
                )
                .expect("gpu enclave");
            let (h, _, _) = spm.share_memory((cpu, a), (gpu, b), pages).expect("share");
            let ppns = spm.share_pages(h).expect("pages").to_vec();
            for ppn in &ppns {
                spm.machine_mut()
                    .phys_write(World::Secure, PhysAddr::from_page_number(*ppn), &[fill; 64])
                    .expect("fill");
            }
            let (invalidated, _) = spm.fail_partition(gpu).expect("fail");
            prop_assert_eq!(invalidated, ppns.len(), "every shared page invalidated");
            for ppn in &ppns {
                prop_assert!(!spm.machine().stage2_is_valid(cpu, *ppn));
            }
            spm.recover_partition(gpu, b"cuda-mos", "v3").expect("recover");
            for ppn in &ppns {
                let bytes = spm
                    .machine_mut()
                    .phys_read_vec(World::Secure, PhysAddr::from_page_number(*ppn), 64)
                    .expect("read");
                prop_assert_eq!(bytes, vec![0u8; 64], "page {:#x} cleared", ppn);
            }
        }

        /// Attestation reports verify for any mix of live enclaves, and always
        /// fail once any enclave measurement expectation is wrong.
        #[test]
        fn reports_cover_all_enclaves(count in 1usize..6) {
            use cronus_spm::attest::{ClientVerifier, Expectations};
            let mut spm = boot();
            let gpu = asid_of(MosId(2));
            for i in 0..count {
                spm.create_enclave(
                    gpu,
                    Manifest::new(DeviceKind::Gpu).with_memory(1 << 16),
                    &BTreeMap::new(),
                    Owner::App(i as u32),
                    7,
                )
                .expect("enclave");
            }
            let signed = spm.make_report(gpu).expect("report");
            prop_assert_eq!(signed.report.enclaves.len(), count);
            let mut verifier = ClientVerifier::new(spm.monitor().platform_public());
            verifier.add_vendor("nvidia", cronus_devices::vendor_keypair("nvidia").public());
            verifier
                .verify(&signed, &Expectations { enclaves: signed.report.enclaves.clone(), ..Default::default() })
                .expect("honest verification");
            // Corrupt one expectation.
            let mut bad = signed.report.enclaves.clone();
            bad[0].1 = cronus_crypto::measure("manifest", b"not-the-real-one");
            let tampered = verifier
                .verify(&signed, &Expectations { enclaves: bad, ..Default::default() })
                .is_err();
            prop_assert!(tampered);
        }
    }
}
