//! Byte-level primitives: little-endian writer, bounds-checked reader, and
//! the FNV-1a checksum both sides share.
//!
//! The reader never indexes past its slice — every access goes through
//! [`Reader::take`], which turns an over-read into a structured
//! [`SnapshotError::Truncated`] instead of a panic. Multi-byte values are
//! decoded with `from_le_bytes` over copied arrays, so loads are
//! alignment-safe no matter where a section starts in the file.

use crate::error::SnapshotError;

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// The section/trailer checksum: FNV-1a's xor-multiply chain applied to
/// **8-byte little-endian words** (tail zero-padded, length folded in last).
///
/// Word-at-a-time matters: the loader checksums every payload plus the
/// whole file, and byte-serial FNV made that the dominant cost of a warm
/// restart — slower than the library rebuild it replaces. This variant is
/// ~8× faster and still guarantees detection of any corruption confined to
/// one word: each step `h' = (h ^ w) · P` is a bijection of `h` (odd `P`),
/// so two inputs differing in exactly one word can never collide. Not
/// FNV-compatible — the snapshot format defines it (DESIGN.md §9);
/// cryptographic integrity is out of scope for a local artifact cache.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().unwrap());
        h = (h ^ w).wrapping_mul(FNV_PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(FNV_PRIME);
    }
    // Folding the length separates "short input" from "same input padded
    // with zeros".
    (h ^ bytes.len() as u64).wrapping_mul(FNV_PRIME)
}

/// Incremental FNV-1a used by the fingerprint walks.
#[derive(Clone, Copy)]
pub struct Hasher(u64);

impl Hasher {
    pub fn new() -> Hasher {
        Hasher(FNV_OFFSET)
    }

    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Hash a length-prefixed string: unambiguous under concatenation.
    pub fn eat_str(&mut self, s: &str) {
        self.eat(&(s.len() as u64).to_le_bytes());
        self.eat(s.as_bytes());
    }

    pub fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

/// Little-endian append-only encoder.
#[derive(Default)]
pub struct Writer {
    pub buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer::default()
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `u32` length prefix + UTF-8 bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn put_f32s(&mut self, vs: &[f32]) {
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Bounds-checked little-endian decoder over a borrowed byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// What is being decoded, for truncation diagnostics.
    context: &'static str,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8], context: &'static str) -> Reader<'a> {
        Reader {
            buf,
            pos: 0,
            context,
        }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                context: self.context,
                needed: n as u64,
                available: self.remaining() as u64,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|e| {
            SnapshotError::malformed(format!("{}: non-UTF-8 string: {e}", self.context))
        })
    }

    /// A length-guarded count: the payload must be able to hold `count`
    /// items of at least `min_item_bytes` each, so a corrupt count cannot
    /// trigger an absurd up-front allocation.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(SnapshotError::Truncated {
                context: self.context,
                needed: (n * min_item_bytes) as u64,
                available: self.remaining() as u64,
            });
        }
        Ok(n)
    }

    /// Decode `n` little-endian f32s. Alignment-safe: bytes are copied
    /// through fixed arrays (which compiles to a straight memcpy on LE
    /// targets), never reinterpreted in place.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, SnapshotError> {
        let bytes = self.take(n.saturating_mul(4))?;
        let mut out = Vec::with_capacity(n);
        for chunk in bytes.chunks_exact(4) {
            out.push(f32::from_le_bytes(chunk.try_into().unwrap()));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = Writer::new();
        w.put_u32(7);
        w.put_u64(u64::MAX - 3);
        w.put_f32(1.5);
        w.put_f64(-2.25);
        w.put_str("héllo");
        w.put_f32s(&[0.0, -1.0, 3.5]);
        let mut r = Reader::new(&w.buf, "test");
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f32().unwrap(), 1.5);
        assert_eq!(r.f64().unwrap(), -2.25);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.f32s(3).unwrap(), vec![0.0, -1.0, 3.5]);
        assert!(r.is_empty());
    }

    #[test]
    fn over_reads_are_truncation_errors() {
        let mut r = Reader::new(&[1, 2, 3], "tiny");
        assert!(matches!(
            r.u32(),
            Err(SnapshotError::Truncated {
                context: "tiny",
                ..
            })
        ));
        // A huge count cannot force a huge allocation.
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        let mut r = Reader::new(&w.buf, "count");
        assert!(matches!(r.count(4), Err(SnapshotError::Truncated { .. })));
    }

    #[test]
    fn invalid_utf8_is_malformed_not_panic() {
        let mut w = Writer::new();
        w.put_u32(2);
        w.buf.extend_from_slice(&[0xff, 0xfe]);
        let mut r = Reader::new(&w.buf, "strings");
        assert!(matches!(r.str(), Err(SnapshotError::Malformed { .. })));
    }

    #[test]
    fn checksum64_detects_flips_truncation_and_padding() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let base = checksum64(&data);
        assert_eq!(base, checksum64(&data), "deterministic");
        // Any single bit flip changes the sum (bijective per-word chain).
        for off in [0, 7, 8, 500, 993, 999] {
            let mut bad = data.clone();
            bad[off] ^= 1;
            assert_ne!(checksum64(&bad), base, "flip at {off}");
        }
        // Truncation and zero-padding both change the sum.
        assert_ne!(checksum64(&data[..999]), base);
        let mut padded = data.clone();
        padded.push(0);
        assert_ne!(checksum64(&padded), base);
        // Empty vs single zero byte differ (length fold).
        assert_ne!(checksum64(b""), checksum64(b"\0"));
    }
}
