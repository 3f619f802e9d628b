//! Deterministic little-endian binary codec for WAL records and
//! checkpoint snapshots.
//!
//! Bit-identical recovery requires a canonical byte encoding: the same
//! logical state must always serialize to the same bytes regardless of
//! worker count or allocation history. Callers are responsible for
//! iterating collections in a canonical order (e.g. `BTreeMap` order);
//! this module only fixes the primitive wire format. Decoding is
//! panic-free — every read returns `Option` and a short or corrupt
//! buffer yields `None`, never an out-of-bounds access.

/// Append-only encoder over a byte vector.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty encoder with room for `capacity` bytes, for
    /// callers that know (or can bound) the encoded size up front.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { buf: Vec::with_capacity(capacity) }
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a single byte (record tags, booleans).
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (total, deterministic).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends bytes as they are, for fields of a fixed, known width.
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Cursor-based decoder; every accessor is bounds-checked.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads `n` bytes as they are (see [`Enc::raw`]).
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Reads a `u16` little-endian.
    pub fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a `u32` little-endian.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a `u64` little-endian.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Reads an `i64` little-endian.
    pub fn i64(&mut self) -> Option<i64> {
        self.take(8)
            .map(|s| i64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        let b = self.bytes()?;
        std::str::from_utf8(b).ok().map(str::to_owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut e = Enc::new();
        e.u8(7);
        e.u16(1025);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.i64(-42);
        e.f64(3.5);
        e.str("zebrafish/run-001");
        e.bytes(&[0, 255, 128]);
        let buf = e.finish();

        let mut d = Dec::new(&buf);
        assert_eq!(d.u8(), Some(7));
        assert_eq!(d.u16(), Some(1025));
        assert_eq!(d.u32(), Some(0xDEAD_BEEF));
        assert_eq!(d.u64(), Some(u64::MAX - 1));
        assert_eq!(d.i64(), Some(-42));
        assert_eq!(d.f64(), Some(3.5));
        assert_eq!(d.str().as_deref(), Some("zebrafish/run-001"));
        assert_eq!(d.bytes(), Some(&[0u8, 255, 128][..]));
        assert!(d.at_end());
    }

    #[test]
    fn truncated_reads_yield_none() {
        let mut e = Enc::new();
        e.str("hello");
        let buf = e.finish();
        for cut in 0..buf.len() {
            let mut d = Dec::new(&buf[..cut]);
            assert!(d.str().is_none());
        }
        // A declared length larger than the remaining buffer is rejected.
        let mut d = Dec::new(&[0xff, 0xff, 0xff, 0xff, b'x']);
        assert!(d.bytes().is_none());
    }
}
