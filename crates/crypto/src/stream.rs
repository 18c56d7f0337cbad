//! SHA-256-in-counter-mode stream cipher.
//!
//! The HIX-TrustZone baseline encrypts every RPC message crossing untrusted
//! memory (the paper's synchronous encrypted-RPC approach, §II-C). This
//! cipher provides the confidentiality layer for that baseline, plus an
//! authenticated `seal`/`open` pair built with HMAC (encrypt-then-MAC).

use std::fmt;

use crate::hmac::{hmac_sha256, verify_hmac};
use crate::sha256::{Digest, Sha256};

/// A keyed keystream generator.
#[derive(Clone)]
pub struct StreamCipher {
    key: [u8; 32],
}

/// Redacted: a `{:?}` of the cipher, or of anything holding one, must not
/// print the key.
impl fmt::Debug for StreamCipher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("StreamCipher { .. }")
    }
}

impl StreamCipher {
    /// Creates a cipher from 32 key bytes.
    pub fn new(key: [u8; 32]) -> Self {
        StreamCipher { key }
    }

    /// Creates a cipher keyed by a shared DH secret.
    pub fn from_secret(secret: &crate::dh::SharedSecret) -> Self {
        StreamCipher::new(*secret.as_bytes())
    }

    fn keystream_block(&self, nonce: u64, counter: u64) -> Digest {
        let mut h = Sha256::new();
        h.update(b"cronus-stream");
        h.update(&self.key);
        h.update(&nonce.to_le_bytes());
        h.update(&counter.to_le_bytes());
        h.finalize()
    }

    /// XORs `data` with the keystream for (`nonce`, offset 0..). Encryption
    /// and decryption are the same operation.
    pub fn apply(&self, nonce: u64, data: &mut [u8]) {
        for (i, chunk) in data.chunks_mut(32).enumerate() {
            let ks = self.keystream_block(nonce, i as u64);
            for (b, k) in chunk.iter_mut().zip(ks.as_bytes()) {
                *b ^= k;
            }
        }
    }

    /// Encrypt-then-MAC: returns `ciphertext` and appends the tag input
    /// domain-separated by the nonce.
    pub fn seal(&self, nonce: u64, plaintext: &[u8]) -> SealedMessage {
        let mut ct = plaintext.to_vec();
        self.apply(nonce, &mut ct);
        let tag = self.tag(nonce, &ct);
        SealedMessage {
            nonce,
            ciphertext: ct,
            tag,
        }
    }

    /// Verifies and decrypts a sealed message.
    ///
    /// # Errors
    ///
    /// Returns `None` if the MAC does not verify (tampered ciphertext, wrong
    /// nonce — i.e. a replayed/reordered message — or wrong key).
    pub fn open(&self, msg: &SealedMessage) -> Option<Vec<u8>> {
        if !verify_hmac(
            &self.key,
            &Self::mac_input(msg.nonce, &msg.ciphertext),
            &msg.tag,
        ) {
            return None;
        }
        let mut pt = msg.ciphertext.clone();
        self.apply(msg.nonce, &mut pt);
        Some(pt)
    }

    fn tag(&self, nonce: u64, ciphertext: &[u8]) -> Digest {
        hmac_sha256(&self.key, &Self::mac_input(nonce, ciphertext))
    }

    fn mac_input(nonce: u64, ciphertext: &[u8]) -> Vec<u8> {
        let mut input = Vec::with_capacity(8 + ciphertext.len());
        input.extend_from_slice(&nonce.to_le_bytes());
        input.extend_from_slice(ciphertext);
        input
    }
}

/// An encrypted, authenticated message with its sequence nonce.
///
/// The nonce doubles as the anti-replay sequence number in the HIX
/// baseline: the receiver tracks the expected nonce and rejects others.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedMessage {
    /// Sequence nonce bound into the MAC.
    pub nonce: u64,
    /// XOR-stream ciphertext.
    pub ciphertext: Vec<u8>,
    /// HMAC-SHA256 tag over nonce ‖ ciphertext.
    pub tag: Digest,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cipher() -> StreamCipher {
        StreamCipher::new([7u8; 32])
    }

    #[test]
    fn debug_does_not_print_the_key() {
        let shown = format!("{:?}", StreamCipher::new([0xab; 32]));
        assert!(!shown.contains("171"), "a key byte leaked: {shown}");
        assert_eq!(shown, "StreamCipher { .. }");
    }

    #[test]
    fn apply_round_trips() {
        let c = cipher();
        let mut data = b"confidential gradient tensor".to_vec();
        let orig = data.clone();
        c.apply(1, &mut data);
        assert_ne!(data, orig);
        c.apply(1, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn different_nonces_differ() {
        let c = cipher();
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        c.apply(1, &mut a);
        c.apply(2, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn seal_open_round_trips() {
        let c = cipher();
        let msg = c.seal(42, b"rpc: cudaLaunchKernel(matmul)");
        assert_eq!(c.open(&msg).unwrap(), b"rpc: cudaLaunchKernel(matmul)");
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let c = cipher();
        let mut msg = c.seal(1, b"payload");
        msg.ciphertext[0] ^= 1;
        assert!(c.open(&msg).is_none());
    }

    #[test]
    fn replayed_nonce_detectable_by_receiver() {
        // The cipher binds the nonce into the MAC; changing it breaks the tag,
        // so an attacker cannot renumber a captured message.
        let c = cipher();
        let mut msg = c.seal(5, b"transfer");
        msg.nonce = 6;
        assert!(c.open(&msg).is_none());
    }

    #[test]
    fn wrong_key_rejected() {
        let c1 = cipher();
        let c2 = StreamCipher::new([8u8; 32]);
        let msg = c1.seal(1, b"x");
        assert!(c2.open(&msg).is_none());
    }

    #[test]
    fn empty_message_seals() {
        let c = cipher();
        let msg = c.seal(0, b"");
        assert_eq!(c.open(&msg).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn from_secret_matches_between_parties() {
        use crate::dh::DhKeyPair;
        let a = DhKeyPair::from_seed("a");
        let b = DhKeyPair::from_seed("b");
        let ca = StreamCipher::from_secret(&a.agree(b.public()));
        let cb = StreamCipher::from_secret(&b.agree(a.public()));
        let msg = ca.seal(9, b"cross-party");
        assert_eq!(cb.open(&msg).unwrap(), b"cross-party");
    }
}
