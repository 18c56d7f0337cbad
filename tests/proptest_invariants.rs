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
            let layout = RingLayout::new(pages).expect("a page holds a slot pair");
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
            let eid = Eid::new(MosId(mos), local).expect("24-bit local id");
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

/// The index-free SHA-256 and HMAC against the indexed SHA-256 they
/// replaced, kept here as the reference: every length and every split of
/// the input hashes to the same digest.
mod hashes {
    use proptest::prelude::*;

    use cronus::crypto::{hmac_sha256, sha256, Sha256};

    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];

    /// One-shot SHA-256 as the crate computed it before: byte-at-a-time
    /// padding and an indexed message schedule.
    fn reference_sha256(data: &[u8]) -> [u8; 32] {
        let mut state: [u32; 8] = [
            0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
            0x5be0cd19,
        ];
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        for block in msg.chunks(64) {
            let mut w = [0u32; 64];
            for i in 0..16 {
                w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = state;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let t1 = h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = s0.wrapping_add(maj);
                h = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(t2);
            }
            for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *s = s.wrapping_add(v);
            }
        }
        let mut out = [0u8; 32];
        for i in 0..8 {
            out[i * 4..i * 4 + 4].copy_from_slice(&state[i].to_be_bytes());
        }
        out
    }

    /// RFC 2104 over the reference hash.
    fn reference_hmac(key: &[u8], message: &[u8]) -> [u8; 32] {
        let mut key_block = [0u8; 64];
        if key.len() > 64 {
            key_block[..32].copy_from_slice(&reference_sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let inner: Vec<u8> = key_block
            .iter()
            .map(|k| k ^ 0x36)
            .chain(message.iter().copied())
            .collect();
        let outer: Vec<u8> = key_block
            .iter()
            .map(|k| k ^ 0x5c)
            .chain(reference_sha256(&inner))
            .collect();
        reference_sha256(&outer)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Lengths 0–700 cover every padding case (a tail that leaves room
        /// for the length word, one that does not, an exact block) over
        /// one to eleven blocks; two split points cover topping up a
        /// partial block, whole blocks in between, and an empty update.
        #[test]
        fn sha256_matches_the_indexed_reference(
            data in proptest::collection::vec(any::<u8>(), 0..=700),
            a in 0usize..=700,
            b in 0usize..=700,
        ) {
            let expected = reference_sha256(&data);
            prop_assert_eq!(sha256(&data).0, expected);
            let (a, b) = (a.min(data.len()), b.min(data.len()));
            let (lo, hi) = (a.min(b), a.max(b));
            let mut h = Sha256::new();
            h.update(&data[..lo]);
            h.update(&data[lo..hi]);
            h.update(&data[hi..]);
            prop_assert_eq!(h.finalize().0, expected);
        }

        /// HMAC over the rewritten hash equals RFC 2104 over the reference,
        /// keys longer than a block (hashed first) included.
        #[test]
        fn hmac_matches_the_reference(
            key in proptest::collection::vec(any::<u8>(), 0..=150),
            msg in proptest::collection::vec(any::<u8>(), 0..=300),
        ) {
            prop_assert_eq!(hmac_sha256(&key, &msg).0, reference_hmac(&key, &msg));
        }
    }

    #[test]
    fn reference_passes_the_known_answers() {
        let hex = |d: [u8; 32]| d.iter().map(|b| format!("{b:02x}")).collect::<String>();
        assert_eq!(
            hex(reference_sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(reference_hmac(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }
}

/// The absorbed-key HMAC, the streamed ledger digest and the stack hex
/// encoder against the code they replaced, kept here as the reference:
/// the bytes the ledger stores must not move by one bit.
mod ledger_hashing {
    use proptest::prelude::*;

    use cronus::crypto::{measure_chained, sha256, Digest, HmacKey, Sha256};
    use cronus::forensics::{LedgerRecord, SecurityEvent};
    use cronus::sim::SimNs;

    /// HMAC as the crate computed it before: two fresh hashers per MAC,
    /// each absorbing its pad block.
    fn reference_hmac(key: &[u8], message: &[u8]) -> Digest {
        let hashed;
        let key = if key.len() > 64 {
            hashed = sha256(key);
            hashed.as_bytes().as_slice()
        } else {
            key
        };
        let mut ipad = [0x36u8; 64];
        let mut opad = [0x5cu8; 64];
        for ((i, o), k) in ipad.iter_mut().zip(&mut opad).zip(key) {
            *i ^= k;
            *o ^= k;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        inner.update(message);
        let mut outer = Sha256::new();
        outer.update(&opad);
        outer.update(inner.finalize().as_bytes());
        outer.finalize()
    }

    /// Hex as the crate rendered it before: one `format!` per byte.
    fn reference_hex(d: &Digest) -> String {
        d.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// An event's canonical rendering as the crate built it before: a
    /// `format!` per variant, digests through the per-byte hex.
    fn reference_event(e: &SecurityEvent) -> String {
        use SecurityEvent::*;
        let hex = reference_hex;
        match e {
            DevtreeAttested { digest } => format!("devtree-attested digest={}", hex(digest)),
            TzascConfigured { digest } => format!("tzasc-configured digest={}", hex(digest)),
            TzpcLockdown { digest } => format!("tzpc-lockdown digest={}", hex(digest)),
            DeviceEndorsed {
                device,
                vendor,
                rot_digest,
            } => format!(
                "device-endorsed device={device} vendor={vendor} rot={}",
                hex(rot_digest)
            ),
            AttestMeasurement { subject, digest } => format!(
                "attest-measurement subject={subject} digest={}",
                hex(digest)
            ),
            KeyExchange { eid, dh_public } => {
                format!("key-exchange eid={eid} dh_public={dh_public}")
            }
            EnclaveCreated { eid } => format!("enclave-created eid={eid}"),
            EnclaveDestroyed { eid } => format!("enclave-destroyed eid={eid}"),
            ShareGranted {
                share,
                owner,
                peer,
                pages,
            } => format!("share-granted share={share} owner={owner} peer={peer} pages={pages}"),
            ShareAccepted { share, owner, peer } => {
                format!("share-accepted share={share} owner={owner} peer={peer}")
            }
            SharePoisoned { share, survivor } => {
                format!("share-poisoned share={share} survivor={survivor}")
            }
            ShareReclaimed { share } => format!("share-reclaimed share={share}"),
            StreamOpened {
                stream,
                caller,
                callee,
            } => format!("stream-opened stream={stream} caller={caller} callee={callee}"),
            StreamAccepted {
                stream,
                caller,
                callee,
            } => format!("stream-accepted stream={stream} caller={caller} callee={callee}"),
            StreamClosed { stream } => format!("stream-closed stream={stream}"),
            StreamQuarantined { stream, channel } => {
                format!("stream-quarantined stream={stream} channel={channel}")
            }
            StreamReopened { old, new } => format!("stream-reopened old={old} new={new}"),
            FaultInjected {
                phase,
                action,
                stream,
            } => format!("fault-injected phase={phase} action={action} stream={stream}"),
            FailureDetected { asid } => format!("failure-detected asid={asid}"),
            PartitionFailed { asid, invalidated } => {
                format!("partition-failed asid={asid} invalidated={invalidated}")
            }
            TrapHandled {
                survivor,
                ppn,
                signalled,
            } => format!("trap-handled survivor={survivor} ppn={ppn} signalled={signalled}"),
            RecoveryStep { asid, step } => format!("recovery-step asid={asid} step={step}"),
            StallDetected { stream, backlog } => {
                format!("stall-detected stream={stream} backlog={backlog}")
            }
            Checkpoint {
                evicted_total,
                prefix_digest,
            } => format!(
                "checkpoint evicted_total={evicted_total} prefix={}",
                hex(prefix_digest)
            ),
        }
    }

    /// The record digest as the crate computed it before: the canonical
    /// form built as a `String`, then measured in one slice.
    fn reference_digest(r: &LedgerRecord) -> Digest {
        let canonical = format!(
            "{}|{}|{}|{}|{}",
            r.index,
            r.seq,
            r.chain,
            r.at.as_nanos(),
            reference_event(&r.event)
        );
        measure_chained("ledger-record", &r.prev, canonical.as_bytes())
    }

    /// Text with separators, multi-byte and four-byte characters, so a
    /// rendering that splits or re-encodes a `str` shows.
    fn text() -> impl Strategy<Value = String> {
        const CHARS: [char; 12] = [
            'a', 'Z', '0', ' ', '|', '=', 'é', 'ß', '中', '🦀', '\n', '\0',
        ];
        proptest::collection::vec(0usize..CHARS.len(), 0..=24)
            .prop_map(|ix| ix.into_iter().filter_map(|i| CHARS.get(i)).collect())
    }

    /// Every variant, its fields drawn from the case's values.
    fn every_variant(
        (a, b): (u32, u32),
        (x, y, z): (u64, u64, u64),
        d: Digest,
        (s, name): (String, &'static str),
    ) -> Vec<SecurityEvent> {
        use SecurityEvent::*;
        vec![
            DevtreeAttested { digest: d },
            TzascConfigured { digest: d },
            TzpcLockdown { digest: d },
            DeviceEndorsed {
                device: a,
                vendor: s.clone(),
                rot_digest: d,
            },
            AttestMeasurement {
                subject: s,
                digest: d,
            },
            KeyExchange {
                eid: a,
                dh_public: x,
            },
            EnclaveCreated { eid: a },
            EnclaveDestroyed { eid: b },
            ShareGranted {
                share: x,
                owner: a,
                peer: b,
                pages: y,
            },
            ShareAccepted {
                share: x,
                owner: a,
                peer: b,
            },
            SharePoisoned {
                share: x,
                survivor: b,
            },
            ShareReclaimed { share: y },
            StreamOpened {
                stream: x,
                caller: a,
                callee: b,
            },
            StreamAccepted {
                stream: x,
                caller: a,
                callee: b,
            },
            StreamClosed { stream: z },
            StreamQuarantined {
                stream: x,
                channel: name,
            },
            StreamReopened { old: x, new: y },
            FaultInjected {
                phase: name,
                action: name,
                stream: z,
            },
            FailureDetected { asid: a },
            PartitionFailed {
                asid: a,
                invalidated: y,
            },
            TrapHandled {
                survivor: a,
                ppn: x,
                signalled: b,
            },
            RecoveryStep {
                asid: b,
                step: name,
            },
            StallDetected {
                stream: x,
                backlog: z,
            },
            Checkpoint {
                evicted_total: y,
                prefix_digest: d,
            },
        ]
    }

    const NAMES: [&str; 4] = ["", "clear", "doorbell|drop", "épée"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Keys of 0–200 bytes straddle the 64-byte block (longer keys are
        /// hashed first); one absorbed key MACs two messages in turn, so
        /// state left over from the first would show in the second.
        #[test]
        fn absorbed_key_macs_like_two_fresh_hashers(
            key in proptest::collection::vec(any::<u8>(), 0..=200),
            m1 in proptest::collection::vec(any::<u8>(), 0..=300),
            m2 in proptest::collection::vec(any::<u8>(), 0..=300),
        ) {
            let absorbed = HmacKey::new(&key);
            prop_assert_eq!(absorbed.mac(&m1), reference_hmac(&key, &m1));
            prop_assert_eq!(absorbed.mac(&m2), reference_hmac(&key, &m2));
        }

        /// Every variant, random fields and text included: the streamed
        /// digest equals the `String`-based one, and both renderings equal
        /// the old `format!` bodies.
        #[test]
        fn streamed_record_digest_matches_the_string_reference(
            ids in (any::<u32>(), any::<u32>()),
            nums in (any::<u64>(), any::<u64>(), any::<u64>()),
            d in any::<[u8; 32]>(),
            s in text(),
            name in 0usize..NAMES.len(),
            (index, seq, chain, at) in (any::<u64>(), any::<u64>(), any::<u32>(), any::<u64>()),
            prev in any::<[u8; 32]>(),
        ) {
            let name = NAMES.get(name).copied().unwrap_or_default();
            let events = every_variant(ids, nums, Digest(d), (s, name));
            prop_assert_eq!(events.len(), 24);
            for event in events {
                let r = LedgerRecord {
                    index,
                    seq,
                    chain,
                    at: SimNs::from_nanos(at),
                    event,
                    prev: Digest(prev),
                    mac: Digest::ZERO,
                };
                prop_assert_eq!(r.event.canonical(), reference_event(&r.event));
                prop_assert_eq!(r.digest(), reference_digest(&r), "{}", r.canonical());
            }
        }

        /// `Display`, `to_hex` and the per-byte reference agree, and
        /// `from_hex` inverts them in either case.
        #[test]
        fn digest_hex_round_trips(d in any::<[u8; 32]>()) {
            let d = Digest(d);
            let hex = reference_hex(&d);
            prop_assert_eq!(d.to_string(), hex.clone());
            prop_assert_eq!(d.to_hex(), hex.clone());
            prop_assert_eq!(Digest::from_hex(&hex), Some(d));
            prop_assert_eq!(Digest::from_hex(&hex.to_uppercase()), Some(d));
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
