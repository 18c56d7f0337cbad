//! HMAC-SHA-256 (RFC 2104), used to authenticate messages under
//! `secret_dhke` during mEnclave creation and channel establishment.

use std::fmt;

use crate::sha256::{sha256, Digest, Sha256};

const BLOCK: usize = 64;

/// An HMAC-SHA-256 key with both pad blocks absorbed once, so each
/// [`HmacKey::mac`] costs the message's compressions plus the outer hash's
/// last one. `Debug` is redacted: the absorbed states are as good as the key.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Absorbs `key`'s inner and outer pad blocks.
    pub fn new(key: &[u8]) -> Self {
        // A key longer than a block is replaced by its digest; either way it
        // is XORed into the front of both pads, zero-extended to a block.
        let hashed;
        let key = if key.len() > BLOCK {
            hashed = sha256(key);
            hashed.as_bytes().as_slice()
        } else {
            key
        };
        let [inner, outer] = [0x36u8, 0x5c].map(|fill| {
            let mut block = [fill; BLOCK];
            block.iter_mut().zip(key).for_each(|(b, k)| *b ^= k);
            let mut h = Sha256::new();
            h.update(&block);
            h
        });
        HmacKey { inner, outer }
    }

    /// Computes `HMAC-SHA256(key, message)`.
    pub fn mac(&self, message: &[u8]) -> Digest {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(inner.finalize().as_bytes());
        outer.finalize()
    }
}

impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("HmacKey { .. }")
    }
}

/// Computes `HMAC-SHA256(key, message)`.
///
/// ```
/// use cronus_crypto::hmac_sha256;
/// let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(
///     tag.to_hex(),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8",
/// );
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    HmacKey::new(key).mac(message)
}

/// Constant-time-ish tag comparison (the simulation does not model timing
/// side channels, but tests still want a dedicated verifier API).
pub fn verify_hmac(key: &[u8], message: &[u8], tag: &Digest) -> bool {
    let expect = hmac_sha256(key, message);
    let mut diff = 0u8;
    for (a, b) in expect.as_bytes().iter().zip(tag.as_bytes()) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            tag.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 0xaa*20 key, 0xdd*50 data.
    #[test]
    fn rfc4231_case_3() {
        let tag = hmac_sha256(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(
            tag.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: key longer than a block.
    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            tag.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac_sha256(b"k", b"m");
        assert!(verify_hmac(b"k", b"m", &tag));
        assert!(!verify_hmac(b"k", b"m2", &tag));
        assert!(!verify_hmac(b"k2", b"m", &tag));
        let mut bad = tag;
        bad.0[0] ^= 1;
        assert!(!verify_hmac(b"k", b"m", &bad));
    }
}
