//! Property-based tests over core data structures and protocol invariants.
//!
//! Cases come from the in-repo `proptest` shim (`crates/ptest`): seeded by the
//! test's name, so every run generates the same ones.

mod full {
    use proptest::prelude::*;

    use cronus::core::ring::{
        decode_request, decode_result, encode_request, encode_result, Request, ResultStatus,
        RingLayout, SLOT_PAYLOAD,
    };
    use cronus::crypto::{hmac_sha256, sha256, Digest, KeyPair, Sha256, StreamCipher};
    use cronus::mos::manifest::{Eid, MosId};
    use cronus::sim::machine::AsId;
    use cronus::sim::pagetable::{Access, PagePerms, PageTable, Stage2Table};
    use cronus::sim::{PhysAddr, SimNs, VirtAddr};

    proptest! {
        /// Incremental hashing equals one-shot hashing for any chunking.
        #[test]
        fn sha256_incremental_equals_oneshot(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
            split in 0usize..2048,
        ) {
            let split = split.min(data.len());
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), sha256(&data));
        }

        /// HMAC verification accepts the genuine tag and rejects any single-bit
        /// tamper of the message.
        #[test]
        fn hmac_rejects_tampering(
            key in proptest::collection::vec(any::<u8>(), 1..64),
            mut msg in proptest::collection::vec(any::<u8>(), 1..256),
            flip in 0usize..256,
        ) {
            let tag = hmac_sha256(&key, &msg);
            prop_assert!(cronus::crypto::hmac::verify_hmac(&key, &msg, &tag));
            let idx = flip % msg.len();
            msg[idx] ^= 1;
            prop_assert!(!cronus::crypto::hmac::verify_hmac(&key, &msg, &tag));
        }

        /// Schnorr signatures verify for the signing key and fail for others.
        #[test]
        fn schnorr_sound_and_key_bound(seed_a in "[a-z]{1,12}", seed_b in "[a-z]{1,12}", msg in proptest::collection::vec(any::<u8>(), 0..128)) {
            let a = KeyPair::from_seed(&seed_a);
            let sig = a.sign(&msg);
            prop_assert!(a.public().verify(&msg, &sig).is_ok());
            if seed_a != seed_b {
                let b = KeyPair::from_seed(&seed_b);
                prop_assert!(b.public().verify(&msg, &sig).is_err());
            }
        }

        /// The stream cipher round-trips and its MAC binds the nonce.
        #[test]
        fn stream_cipher_seal_open(
            key in any::<[u8; 32]>(),
            nonce in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let cipher = StreamCipher::new(key);
            let sealed = cipher.seal(nonce, &payload);
            prop_assert_eq!(cipher.open(&sealed).expect("authentic"), payload);
            let mut replayed = sealed;
            replayed.nonce = replayed.nonce.wrapping_add(1);
            prop_assert!(cipher.open(&replayed).is_none());
        }

        /// Ring request slots round-trip any (name, payload) that fits.
        #[test]
        fn ring_request_roundtrip(
            name in "[a-zA-Z0-9_]{1,64}",
            payload in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            prop_assume!(name.len() + payload.len() <= SLOT_PAYLOAD);
            let req = Request { name: name.clone(), payload: payload.clone() };
            let decoded = decode_request(&encode_request(&req).expect("fits")).expect("valid");
            prop_assert_eq!(decoded.name, name);
            prop_assert_eq!(decoded.payload, payload);
        }

        /// Ring result slots round-trip both statuses.
        #[test]
        fn ring_result_roundtrip(ok in any::<bool>(), payload in proptest::collection::vec(any::<u8>(), 0..SLOT_PAYLOAD)) {
            let status = if ok { ResultStatus::Ok } else { ResultStatus::Err };
            let decoded = decode_result(&encode_result(status, &payload).expect("fits")).expect("valid");
            prop_assert_eq!(decoded, (status, payload));
        }

        /// Ring layouts never place a slot outside the region and fullness is
        /// consistent with capacity.
        #[test]
        fn ring_layout_invariants(pages in 1usize..128, rid in 0u64..10_000, backlog in 0u64..10_000) {
            let layout = RingLayout::new(pages);
            let region = pages as u64 * 4096;
            prop_assert!(layout.request_slot(rid) + cronus::core::ring::SLOT_SIZE as u64 <= region);
            prop_assert!(layout.result_slot(rid) + cronus::core::ring::RESULT_SLOT_SIZE as u64 <= region);
            let sid = rid.saturating_sub(backlog.min(rid));
            prop_assert_eq!(layout.is_full(rid, sid), rid - sid >= layout.slots);
        }

        /// Stage-1 translation preserves the page offset and respects unmapping.
        #[test]
        fn stage1_translation_roundtrip(vpn in 0u64..1_000_000, ppn in 0u64..1_000_000, offset in 0u64..4096) {
            let asid = AsId::new(7);
            let mut table = PageTable::new();
            table.map(vpn, ppn, PagePerms::RW);
            let va = VirtAddr::from_page_number(vpn).add(offset);
            let pa = table.translate(asid, va, Access::Write).expect("mapped");
            prop_assert_eq!(pa, PhysAddr::from_page_number(ppn).add(offset));
            table.unmap(vpn);
            prop_assert!(table.translate(asid, va, Access::Read).is_err());
        }

        /// Stage-2 invalidate/revalidate round-trips to the original validity.
        #[test]
        fn stage2_invalidate_revalidate(ppns in proptest::collection::btree_set(0u64..4096, 1..64)) {
            let asid = AsId::new(3);
            let mut s2 = Stage2Table::new();
            for ppn in &ppns {
                s2.grant(*ppn, PagePerms::RW);
            }
            for ppn in &ppns {
                prop_assert!(s2.check(asid, PhysAddr::from_page_number(*ppn), Access::Write).is_ok());
                prop_assert!(s2.invalidate(*ppn));
                prop_assert!(s2.check(asid, PhysAddr::from_page_number(*ppn), Access::Read).is_err());
                prop_assert!(s2.revalidate(*ppn));
                prop_assert!(s2.check(asid, PhysAddr::from_page_number(*ppn), Access::Read).is_ok());
            }
        }

        /// Eids pack and unpack losslessly.
        #[test]
        fn eid_roundtrip(mos in 0u8..=255, local in 0u32..(1 << 24)) {
            let eid = Eid::new(MosId(mos), local);
            prop_assert_eq!(eid.mos(), MosId(mos));
            prop_assert_eq!(eid.local(), local);
        }

        /// SimNs arithmetic: scaling by 1.0 is identity, sums are monotone.
        #[test]
        fn simns_arithmetic_sane(a in 0u64..1 << 40, b in 0u64..1 << 40) {
            let x = SimNs::from_nanos(a);
            let y = SimNs::from_nanos(b);
            prop_assert_eq!(x.scale(1.0), x);
            prop_assert!(x + y >= x);
            prop_assert!(x + y >= y);
            prop_assert_eq!((x + y).saturating_sub(y), x);
        }

        /// measure() is collision-free across labels for identical data.
        #[test]
        fn measure_domain_separation(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let a = cronus::crypto::measure("mos-image", &data);
            let b = cronus::crypto::measure("menclave-image", &data);
            prop_assert_ne!(a, b);
            prop_assert_ne!(a, Digest::ZERO);
        }
    }
}

/// The ring codec's in-place forms against the owned ones and against the
/// owned implementations they replaced, kept here as the reference: over
/// slot bytes a peer may have written, every decoder yields the same name,
/// payload and grant, or the same error.
mod codec {
    use proptest::prelude::*;

    use cronus::core::ring::{
        decode_request, decode_slot_request, encode_result, encode_result_slot, view_slot,
        CodecError, GrantRef, Request, ResultStatus, SlotRequest, SlotView, GRANT_FLAG,
        RESULT_SLOT_SIZE, SLOT_PAYLOAD, SLOT_SIZE,
    };

    fn word(slot: &[u8], at: usize) -> Result<u32, CodecError> {
        let bytes = slot.get(at..at + 4).ok_or(CodecError::Corrupt)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("four bytes")))
    }

    fn reference_decode_request(slot: &[u8]) -> Result<Request, CodecError> {
        let name_len = word(slot, 0)? as usize;
        let payload_len = word(slot, 4)? as usize;
        if name_len + payload_len > SLOT_PAYLOAD || 8 + name_len + payload_len > slot.len() {
            return Err(CodecError::Corrupt);
        }
        let name = std::str::from_utf8(&slot[8..8 + name_len])
            .map_err(|_| CodecError::Corrupt)?
            .to_string();
        let payload = slot[8 + name_len..8 + name_len + payload_len].to_vec();
        Ok(Request { name, payload })
    }

    fn reference_decode_slot_request(slot: &[u8]) -> Result<SlotRequest, CodecError> {
        let payload_word = word(slot, 4)?;
        if payload_word & GRANT_FLAG == 0 {
            return Ok(SlotRequest::Inline(reference_decode_request(slot)?));
        }
        let name_len = word(slot, 0)? as usize;
        if payload_word & !GRANT_FLAG != 16 || name_len + 16 > SLOT_PAYLOAD {
            return Err(CodecError::Corrupt);
        }
        let name = std::str::from_utf8(slot.get(8..8 + name_len).ok_or(CodecError::Corrupt)?)
            .map_err(|_| CodecError::Corrupt)?
            .to_string();
        let u64_at = |at: usize| -> Result<u64, CodecError> {
            let bytes = slot.get(at..at + 8).ok_or(CodecError::Corrupt)?;
            Ok(u64::from_le_bytes(bytes.try_into().expect("eight bytes")))
        };
        let grant = GrantRef {
            offset: u64_at(8 + name_len)?,
            len: u64_at(8 + name_len + 8)?,
        };
        Ok(SlotRequest::Grant { name, grant })
    }

    fn reference_encode_result(
        status: ResultStatus,
        payload: &[u8],
    ) -> Result<Vec<u8>, CodecError> {
        if payload.len() > SLOT_PAYLOAD {
            return Err(CodecError::TooLarge {
                size: payload.len(),
            });
        }
        let mut out = vec![0u8; RESULT_SLOT_SIZE];
        let status: u32 = if status == ResultStatus::Ok { 1 } else { 2 };
        out[0..4].copy_from_slice(&status.to_le_bytes());
        out[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        out[8..8 + payload.len()].copy_from_slice(payload);
        Ok(out)
    }

    /// A request slot as a mangling peer might leave it: `name` and `body`
    /// laid out after the two header words, each word either honest or
    /// replaced (`shape` picks which), then cut to `keep` bytes.
    fn mangled_slot(shape: u8, name: &[u8], body: &[u8], noise: u32, keep: usize) -> Vec<u8> {
        let name_word = match shape % 4 {
            0 | 1 => name.len() as u32,
            2 => noise,
            _ => name.len() as u32 + noise % 64,
        };
        let payload_word = match (shape / 4) % 5 {
            0 => body.len() as u32,
            1 => 16 | GRANT_FLAG,
            2 => (noise % 64) | GRANT_FLAG,
            3 => noise,
            _ => body.len() as u32 + noise % 64,
        };
        let mut slot = vec![0u8; SLOT_SIZE];
        slot[0..4].copy_from_slice(&name_word.to_le_bytes());
        slot[4..8].copy_from_slice(&payload_word.to_le_bytes());
        let tail = name.iter().chain(body).take(SLOT_SIZE - 8);
        for (at, &b) in (8..).zip(tail) {
            slot[at] = b;
        }
        slot.truncate(keep);
        slot
    }

    fn owned(view: SlotView<'_>) -> SlotRequest {
        match view {
            SlotView::Inline { name, payload } => SlotRequest::Inline(Request {
                name: name.to_string(),
                payload: payload.to_vec(),
            }),
            SlotView::Grant { name, grant } => SlotRequest::Grant {
                name: name.to_string(),
                grant,
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `view_slot`, `decode_slot_request` and `decode_request` agree
        /// with the owned decoders they replaced on honest, truncated and
        /// mangled slots: oversized length words, non-UTF-8 names, grant
        /// descriptors of the wrong length.
        #[test]
        fn in_place_decoder_agrees_with_the_owned_ones(
            shape in any::<u8>(),
            name in proptest::collection::vec(any::<u8>(), 0..48),
            ascii in any::<bool>(),
            body in proptest::collection::vec(any::<u8>(), 0..96),
            noise in any::<u32>(),
            keep in 0usize..=SLOT_SIZE + 8,
        ) {
            let name: Vec<u8> = if ascii {
                name.iter().map(|b| b'a' + b % 26).collect()
            } else {
                name
            };
            let slot = mangled_slot(shape, &name, &body, noise, keep);
            let expected = reference_decode_slot_request(&slot);
            prop_assert_eq!(view_slot(&slot).map(owned), expected.clone());
            prop_assert_eq!(decode_slot_request(&slot), expected);
            prop_assert_eq!(decode_request(&slot), reference_decode_request(&slot));
        }

        /// The array result encoder writes exactly `encode_result`'s bytes,
        /// and the reference's, for both statuses and for payloads that do
        /// not fit.
        #[test]
        fn result_slot_encoder_agrees_with_encode_result(
            ok in any::<bool>(),
            payload in proptest::collection::vec(any::<u8>(), 0..SLOT_PAYLOAD + 16),
        ) {
            let status = if ok { ResultStatus::Ok } else { ResultStatus::Err };
            let array = encode_result_slot(status, &payload).map(|slot| slot.to_vec());
            prop_assert_eq!(array.clone(), encode_result(status, &payload));
            prop_assert_eq!(array, reference_encode_result(status, &payload));
        }
    }
}

/// Two fresh systems driven through the same lifecycle are the same system:
/// nothing a run leaves behind depends on anything but the operations.
mod lifecycle {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use cronus::audit::IsolationModel;
    use cronus::core::{Actor, CronusSystem, EnclaveRef, StreamId};
    use cronus::devices::DeviceKind;
    use cronus::forensics::LedgerExport;
    use cronus::mos::manifest::{Manifest, McallDecl, MosId};
    use cronus::sim::SimNs;
    use cronus::spm::spm::{asid_of, BootConfig, DeviceSpec, PartitionSpec};

    fn pick<T: Copy>(from: &[T], i: usize) -> Option<T> {
        (!from.is_empty()).then(|| from[i % from.len()])
    }

    /// Applies `ops` — an operation and a number to choose its operands by —
    /// to a fresh system, then destroys the CPU enclave every stream starts
    /// at. Returns the ledger and the rendered isolation model. What each
    /// operation returns is ignored: one that fails has to fail the same way
    /// on both systems, and the ledger shows it if it does not.
    fn drive(ops: &[(u8, u8)]) -> (LedgerExport, String) {
        let gpu_spec = DeviceSpec::Gpu {
            memory: 1 << 26,
            sms: 46,
        };
        let mut sys = CronusSystem::boot(BootConfig {
            partitions: vec![
                PartitionSpec::new(1, b"cpu-mos", "v1", DeviceSpec::Cpu),
                PartitionSpec::new(2, b"cuda-mos", "v3", gpu_spec),
            ],
            ..Default::default()
        });
        let gpu_asid = asid_of(MosId(2));
        let app = sys.create_app();
        let cpu_manifest = Manifest::new(DeviceKind::Cpu);
        let cpu = sys
            .create_enclave(Actor::App(app), cpu_manifest, &BTreeMap::new())
            .expect("cpu enclave");
        let mut gpus: Vec<EnclaveRef> = Vec::new();
        let mut streams: Vec<StreamId> = Vec::new();
        let mut failed = false;
        for &(op, n) in ops {
            let n = n as usize;
            match op {
                0..=1 => {
                    let manifest = Manifest::new(DeviceKind::Gpu)
                        .with_mecall(McallDecl::asynchronous("work"))
                        .with_memory(1 << 16);
                    if let Ok(gpu) =
                        sys.create_enclave(Actor::Enclave(cpu), manifest, &BTreeMap::new())
                    {
                        sys.register_handler(
                            gpu,
                            "work",
                            Box::new(|_, p| Ok((p.to_vec(), SimNs::from_micros(5)))),
                        );
                        gpus.push(gpu);
                    }
                }
                2..=4 => {
                    if let Some(gpu) = pick(&gpus, n) {
                        let builder = sys.stream(cpu, gpu).rings(1 + n % 4);
                        let builder = if n % 2 == 1 {
                            builder.zero_copy(256)
                        } else {
                            builder
                        };
                        streams.extend(builder.open());
                    }
                }
                5..=7 => {
                    if let Some(stream) = pick(&streams, n) {
                        let payload = vec![n as u8; n * 4];
                        let _ = sys.call(stream, "work").payload(&payload).start();
                        if n.is_multiple_of(3) {
                            let _ = sys.sync(stream);
                        }
                    }
                }
                8 => {
                    if let Some(stream) = pick(&streams, n) {
                        let _ = sys.close_stream(stream);
                    }
                }
                9 => {
                    if !gpus.is_empty() {
                        let _ = sys.destroy_enclave(gpus.remove(n % gpus.len()));
                    }
                }
                10 => {
                    if failed {
                        let _ = sys.recover_partition(gpu_asid);
                        gpus.clear();
                    } else {
                        let _ = sys.inject_partition_failure(gpu_asid);
                    }
                    failed = !failed;
                }
                _ => {
                    if let (Some(old), Some(gpu)) = (pick(&streams, n), pick(&gpus, n / 16)) {
                        streams.extend(sys.stream(cpu, gpu).reopen(old));
                    }
                }
            }
        }
        let _ = sys.destroy_enclave(cpu);
        let model = IsolationModel::extract(&sys).render();
        (sys.spm().ledger().export(), model)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Create, open (some zero-copy), call, close, destroy, fail,
        /// recover, reopen in any order: the second system's ledger and
        /// mapping state equal the first's.
        #[test]
        fn same_operations_leave_the_same_ledger_and_mappings(
            ops in proptest::collection::vec((0u8..12, any::<u8>()), 1..48),
        ) {
            let (ledger, model) = drive(&ops);
            let (again, model_again) = drive(&ops);
            prop_assert!(ledger == again, "ledgers differ after {ops:?}");
            prop_assert_eq!(model, model_again);
        }
    }
}
