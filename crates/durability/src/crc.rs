//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for WAL frame
//! integrity. Implemented from scratch — the workspace's offline
//! dependency set has no checksum crate — as slice-by-8: eight
//! compile-time 256-entry tables let the loop fold eight input bytes
//! per step instead of one, over the same polynomial, so every
//! checksum (and every frame on disk) is unchanged.

/// Reflected IEEE polynomial used by zlib, Ethernet, and HDFS editlogs.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][i]` is the CRC
/// of byte `i` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 of `data` (init `!0`, final xor `!0`, as in zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        c = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        c = (c >> 8) ^ TABLES[0][((c ^ u32::from(b)) & 0xff) as usize];
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-byte-per-step loop slice-by-8 replaced, kept as the
    /// reference the fast path must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c = (c >> 8) ^ TABLES[0][((c ^ u32::from(b)) & 0xff) as usize];
        }
        !c
    }

    #[test]
    fn known_vectors() {
        // Reference values from zlib's crc32().
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b""), 0);
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        }
    }

    #[test]
    fn slice_by_8_equals_bytewise_at_every_length() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in 0..=data.len() {
            // Every alignment of the 8-byte steps against the data.
            for start in 0..8.min(len + 1) {
                let s = &data[start..len.max(start)];
                assert_eq!(crc32(s), crc32_bytewise(s), "start={start} len={len}");
            }
        }
    }

    proptest! {
        #[test]
        fn slice_by_8_equals_bytewise_on_random_data(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
        ) {
            prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
        }
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"hello world");
        let mut flipped = b"hello world".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(a, crc32(&flipped));
    }
}
