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

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
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

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
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
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
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
        let bytes = self.take(n)?;
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

/// FNV-1a 64-bit hash — the store's content checksum and key hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
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
}
