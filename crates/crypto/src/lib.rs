//! # cronus-crypto — simulation-grade cryptography
//!
//! CRONUS's protocols (attestation, mEnclave ownership, sRPC channel setup,
//! the HIX encrypted-RPC baseline) need hashing, MACs, signatures, key
//! exchange and a stream cipher. This crate implements all of them from
//! scratch so the reproduction has no external crypto dependencies:
//!
//! * [`mod@sha256`] — a complete FIPS-180-4 SHA-256,
//! * [`hmac`] — HMAC-SHA-256,
//! * [`group`] — modular arithmetic over a deterministic 62-bit safe-prime
//!   group (Miller–Rabin tested),
//! * [`schnorr`] — Schnorr signatures over that group with deterministic
//!   (RFC-6979-style) nonces,
//! * [`dh`] — Diffie–Hellman key agreement over the same group,
//! * [`stream`] — a SHA-256-in-counter-mode stream cipher.
//!
//! # Security
//!
//! **This is NOT production cryptography.** The group is 62 bits, far below
//! any real security level; it stands in for ECDSA/RSA the way the paper's
//! QEMU TZC-400 stands in for silicon. The protocol *structure* — who signs
//! what, what a verifier checks, where secrets live — matches the paper, and
//! that structure is what the reproduction's security tests exercise.

pub mod dh;
pub mod group;
pub mod hmac;
pub mod schnorr;
pub mod sha256;
pub mod stream;

pub use dh::{DhKeyPair, SharedSecret};
pub use group::Group;
pub use hmac::{hmac_sha256, HmacKey};
pub use schnorr::{KeyPair, PublicKey, Signature, VerifyError};
pub use sha256::{sha256, Digest, Sha256};
pub use stream::StreamCipher;

/// Measures (hashes) a labeled byte string, domain-separating by `label`.
///
/// Used for all attestation measurements so that e.g. an mOS image hash can
/// never collide with an mEnclave image hash of identical bytes.
///
/// ```
/// use cronus_crypto::measure;
/// let a = measure("mos-image", b"bytes");
/// let b = measure("menclave-image", b"bytes");
/// assert_ne!(a, b);
/// ```
pub fn measure(label: &str, data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(label.as_bytes());
    h.update(&[0u8]);
    h.update(data);
    h.finalize()
}

/// Extends a hash chain by one link: digests `prev || data` under a domain
/// label. The security-event ledger uses this for its per-partition chains,
/// so a record's digest commits to the entire prefix before it.
///
/// ```
/// use cronus_crypto::{measure_chained, Digest};
/// let a = measure_chained("chain", &Digest::ZERO, b"first");
/// let b = measure_chained("chain", &a, b"second");
/// // Re-linking from a different prefix changes the digest.
/// assert_ne!(b, measure_chained("chain", &Digest::ZERO, b"second"));
/// ```
pub fn measure_chained(label: &str, prev: &Digest, data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(label.as_bytes());
    h.update(&[0u8]);
    h.update(prev.as_bytes());
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_is_stable() {
        assert_eq!(measure("x", b"y"), measure("x", b"y"));
    }

    #[test]
    fn measure_separates_domains() {
        // "ab" + "c" vs "a" + "bc" must differ thanks to the separator byte.
        assert_ne!(measure("ab", b"c"), measure("a", b"bc"));
    }
}
