//! Property-based tests for the crypto substrate.
//!
//! Cases come from the in-repo `proptest` shim (`crates/ptest`): seeded by the
//! test's name, so every run generates the same ones.

mod full {
    use proptest::prelude::*;

    use cronus_crypto::group::{mul_mod, pow_mod, Group};
    use cronus_crypto::{hmac_sha256, sha256, DhKeyPair, KeyPair, Sha256};

    proptest! {
        /// mul_mod agrees with 128-bit arithmetic everywhere.
        #[test]
        fn mul_mod_matches_u128(a in any::<u64>(), b in any::<u64>(), m in 1u64..u64::MAX) {
            prop_assert_eq!(mul_mod(a, b, m) as u128, (a as u128 * b as u128) % m as u128);
        }

        /// Exponent laws hold in the shared group: g^(a+b) == g^a * g^b.
        #[test]
        fn group_exponent_addition(a in 0u64..1 << 40, b in 0u64..1 << 40) {
            let g = Group::shared();
            let lhs = g.gen_pow(a.wrapping_add(b) % g.q);
            let rhs = g.mul(g.gen_pow(a % g.q), g.gen_pow(b % g.q));
            prop_assert_eq!(lhs, rhs);
        }

        /// Every subgroup element has an inverse that multiplies to 1.
        #[test]
        fn group_inverse(x in 1u64..1 << 40) {
            let g = Group::shared();
            let elem = g.gen_pow(x);
            prop_assert_eq!(g.mul(elem, g.invert(elem)), 1);
        }

        /// pow_mod matches iterated multiplication for small exponents.
        #[test]
        fn pow_mod_matches_naive(base in 1u64..1 << 20, exp in 0u64..64, m in 2u64..1 << 30) {
            let mut naive = 1u64;
            for _ in 0..exp {
                naive = mul_mod(naive, base, m);
            }
            prop_assert_eq!(pow_mod(base, exp, m), naive);
        }

        /// SHA-256 collision-resistance smoke: distinct short inputs hash apart.
        #[test]
        fn sha256_distinct_inputs(a in proptest::collection::vec(any::<u8>(), 0..64), b in proptest::collection::vec(any::<u8>(), 0..64)) {
            prop_assume!(a != b);
            prop_assert_ne!(sha256(&a), sha256(&b));
        }

        /// Streaming hashing is invariant under arbitrary 3-way chunking.
        #[test]
        fn sha256_three_way_chunking(data in proptest::collection::vec(any::<u8>(), 0..512), c1 in 0usize..512, c2 in 0usize..512) {
            let c1 = c1.min(data.len());
            let c2 = c2.min(data.len() - c1) + c1;
            let mut h = Sha256::new();
            h.update(&data[..c1]);
            h.update(&data[c1..c2]);
            h.update(&data[c2..]);
            prop_assert_eq!(h.finalize(), sha256(&data));
        }

        /// HMAC keys separate: different keys give different tags.
        #[test]
        fn hmac_key_separation(k1 in any::<[u8; 16]>(), k2 in any::<[u8; 16]>(), msg in proptest::collection::vec(any::<u8>(), 0..128)) {
            prop_assume!(k1 != k2);
            prop_assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
        }

        /// DH agreement is symmetric for arbitrary party seeds.
        #[test]
        fn dh_symmetry(sa in "[a-z0-9]{1,16}", sb in "[a-z0-9]{1,16}") {
            let a = DhKeyPair::from_seed(&sa);
            let b = DhKeyPair::from_seed(&sb);
            prop_assert_eq!(a.agree(b.public()), b.agree(a.public()));
        }

        /// Signatures never verify under a tampered message.
        #[test]
        fn signature_message_binding(seed in "[a-z]{1,10}", msg in proptest::collection::vec(any::<u8>(), 1..128), flip in any::<usize>()) {
            let kp = KeyPair::from_seed(&seed);
            let sig = kp.sign(&msg);
            prop_assert!(kp.public().verify(&msg, &sig).is_ok());
            let mut tampered = msg.clone();
            let idx = flip % tampered.len();
            tampered[idx] ^= 0x01;
            prop_assert!(kp.public().verify(&tampered, &sig).is_err());
        }
    }
}
