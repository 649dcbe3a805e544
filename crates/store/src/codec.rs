//! Minimal self-describing binary codec for artifact payloads.
//!
//! The build environment is offline — no `serde`, no `bincode` — so the
//! store ships its own little-endian record codec. Floats travel as raw
//! IEEE-754 bit patterns, which is what makes a loaded artifact
//! *bit-identical* to the computed one (decimal round-tripping would not
//! be). Every decode is bounds-checked and returns [`Error::Corrupt`]
//! instead of panicking, so a truncated or bit-flipped payload can never
//! take the process down.

use crate::error::{Error, Result};

/// Append-only encoder building an artifact payload.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    /// Consumes the encoder, returning the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length prefix for a following sequence.
    pub fn len(&mut self, n: usize) {
        self.u32(n as u32);
    }

    /// Appends a length-prefixed `f64` slice (bit patterns).
    pub fn f64s(&mut self, vs: &[f64]) {
        self.len(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn u32s(&mut self, vs: &[u32]) {
        self.len(vs.len());
        for &v in vs {
            self.u32(v);
        }
    }
}

/// Bounds-checked decoder over an artifact payload.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Logical name reported in corruption errors.
    what: &'a str,
}

impl<'a> Dec<'a> {
    /// Creates a decoder over `buf`; `what` names the artifact in errors.
    pub fn new(buf: &'a [u8], what: &'a str) -> Self {
        Dec { buf, pos: 0, what }
    }

    fn corrupt(&self, detail: impl Into<String>) -> Error {
        Error::Corrupt {
            path: self.what.to_owned(),
            detail: detail.into(),
        }
    }

    /// Reads the next `n` bytes as one group: one bounds check, however
    /// many fields the caller then parses out of them.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(self.corrupt(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads the next `N` bytes as a fixed-size group, whose fields the
    /// caller then reads at constant offsets without further checks.
    pub fn array<const N: usize>(&mut self) -> Result<&'a [u8; N]> {
        Ok(self.bytes(N)?.try_into().expect("bytes returns N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a bool, rejecting anything but 0/1.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.corrupt(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length prefix, sanity-capped against the remaining bytes
    /// (`min_elem_size` bytes per element) so a corrupted length cannot
    /// trigger a huge allocation.
    pub fn len(&mut self, min_elem_size: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        let remaining = self.remaining();
        if n.saturating_mul(min_elem_size.max(1)) > remaining {
            return Err(self.corrupt(format!(
                "length {n} exceeds remaining payload ({remaining} bytes)"
            )));
        }
        Ok(n)
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let n = self.len(1)?;
        let bytes = self.bytes(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| self.corrupt("string payload is not valid UTF-8"))
    }

    /// Reads a length-prefixed `f64` slice.
    pub fn f64s(&mut self) -> Result<Vec<f64>> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Reads a length-prefixed `u32` slice.
    pub fn u32s(&mut self) -> Result<Vec<u32>> {
        let n = self.len(4)?;
        (0..n).map(|_| self.u32()).collect()
    }

    /// Asserts the whole payload was consumed (trailing garbage is a sign
    /// of a schema mismatch that happened to parse).
    pub fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(self.corrupt(format!(
                "{} trailing bytes after the last record",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// FNV-1a 64-bit hash: the store's key hash, the cell journal's entry
/// checksum and the record checksum of schemas 1 and 2. It reads one byte
/// per multiply, so it is only fit for short inputs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::default();
    h.write(bytes);
    h.finish()
}

/// [`fnv1a64`] fed piecewise: the hash of everything written so far, in
/// order. As a [`std::fmt::Write`] it hashes formatted text without
/// building it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a64 {
    /// Appends `bytes` to the hashed input.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The hash of the input written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One accumulation step. For a fixed `word` it is a bijection of `acc`,
/// and for a fixed `acc` a bijection of `word`: the multipliers are odd,
/// so multiplying is invertible modulo 2^64, and adding and rotating are.
#[inline(always)]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Folds one 64-bit value into the running hash: a bijection of `h` for a
/// fixed `v` and of `v` for a fixed `h`, by the argument of [`round`].
#[inline(always)]
fn fold(h: u64, v: u64) -> u64 {
    (h ^ round(0, v))
        .rotate_left(27)
        .wrapping_mul(P1)
        .wrapping_add(P4)
}

/// The record checksum of schema 3: a 64-bit hash that reads eight bytes
/// per step, over ten times faster than [`fnv1a64`] on large payloads.
///
/// It follows xxHash64's structure with seed 0: four independent lanes
/// take the payload's 32-byte stripes as little-endian words; the lanes,
/// the length, the whole words after the last stripe and then the last
/// partial word (zero-padded) are folded into one value; a final
/// avalanche mixes it. Its merge differs from xxHash64's, so its values
/// do not match xxHash64's.
///
/// **Guarantee.** For payloads of one length, any change confined to one
/// aligned 8-byte word (every single-bit flip among them) changes the
/// checksum. Every step is a bijection of the state it updates when the
/// rest of the input is fixed (`round`, `fold`, and the avalanche's
/// odd multiplies and right xor-shifts). A changed word inside a stripe
/// changes its lane's accumulator, and the later rounds of that lane carry
/// the difference to its final value while the other lanes stay equal;
/// the fold of that lane then changes the hash, and every later fold and
/// the avalanche preserve the difference. A changed word after the last
/// stripe changes its own fold in the same way. xxHash64's merge adds the
/// rotated lanes and then folds each lane again, so there a change to one
/// lane can cancel; here each lane enters the hash exactly once.
pub fn payload_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let (stripes, rest) = bytes.as_chunks::<32>();
    for stripe in stripes {
        let (words, _) = stripe.as_chunks::<8>();
        for (acc, word) in lanes.iter_mut().zip(words) {
            *acc = round(*acc, u64::from_le_bytes(*word));
        }
    }
    let mut h = P5.wrapping_add(bytes.len() as u64);
    for acc in lanes {
        h = fold(h, acc);
    }
    let (words, tail) = rest.as_chunks::<8>();
    for word in words {
        h = fold(h, u64::from_le_bytes(*word));
    }
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = fold(h, u64::from_le_bytes(word));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.bool(true);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.f64(-0.0);
        e.str("hé");
        e.f64s(&[f64::NAN, 1.5]);
        e.u32s(&[1, 2, 3]);
        let b = e.into_bytes();
        let mut d = Dec::new(&b, "test");
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.str().unwrap(), "hé");
        let fs = d.f64s().unwrap();
        assert!(fs[0].is_nan() && fs[1] == 1.5);
        assert_eq!(d.u32s().unwrap(), vec![1, 2, 3]);
        d.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut e = Enc::new();
        e.f64s(&[1.0, 2.0, 3.0]);
        let b = e.into_bytes();
        for cut in 0..b.len() {
            let mut d = Dec::new(&b[..cut], "t");
            assert!(d.f64s().is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut e = Enc::new();
        e.u32(u32::MAX); // claims 4 billion elements
        let b = e.into_bytes();
        let mut d = Dec::new(&b, "t");
        assert!(matches!(d.f64s(), Err(Error::Corrupt { .. })));
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut e = Enc::new();
        e.u8(1);
        e.u8(2);
        let b = e.into_bytes();
        let mut d = Dec::new(&b, "t");
        d.u8().unwrap();
        assert!(d.finish().is_err());
    }

    /// `len` bytes of a fixed pseudo-random stream.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn checksum_detects_every_single_bit_flip() {
        for len in 0..=100 {
            let mut bytes = noise(len);
            let sum = payload_checksum(&bytes);
            for bit in 0..8 * len {
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(payload_checksum(&bytes), sum, "len {len} bit {bit}");
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn checksum_detects_every_overwritten_word() {
        let others = noise(8 * 64);
        for len in 0..=100 {
            let bytes = noise(len);
            let sum = payload_checksum(&bytes);
            for start in (0..len).step_by(8) {
                let end = (start + 8).min(len);
                let mut fills: Vec<Vec<u8>> = others
                    .chunks_exact(8)
                    .map(|w| w[..end - start].to_vec())
                    .collect();
                fills.push(vec![0; end - start]);
                fills.push(vec![0xFF; end - start]);
                for fill in fills.iter().filter(|f| **f != bytes[start..end]) {
                    let mut changed = bytes.clone();
                    changed[start..end].copy_from_slice(fill);
                    assert_ne!(payload_checksum(&changed), sum, "len {len} word at {start}");
                }
            }
        }
    }

    #[test]
    fn checksum_depends_on_length_and_position() {
        // Zero bytes of every length up to two stripes differ, and so do
        // two payloads that hold the same words in swapped lanes.
        let sums: std::collections::BTreeSet<u64> = (0..=64)
            .map(|len| payload_checksum(&vec![0; len]))
            .collect();
        assert_eq!(sums.len(), 65);
        let mut swapped = noise(32);
        let original = swapped.clone();
        swapped.rotate_left(8);
        assert_ne!(payload_checksum(&swapped), payload_checksum(&original));
    }
}
