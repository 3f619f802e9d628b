//! Content checksums for ingest integrity and content addressing.
//!
//! The LSDF ingest pipeline checksums every incoming object so that later
//! reads (including tape recalls years later) can verify integrity. We
//! implement SHA-256 from scratch (FIPS 180-4) — the workspace's offline
//! dependency set has no crypto crate — plus FNV-1a for cheap non-crypto
//! hashing of keys.

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The digest a final SHA-256 state spells: its words, big-endian.
    fn from_state(state: [u32; 8]) -> Digest {
        let mut out = [0u8; 32];
        for (o, w) in out.chunks_exact_mut(4).zip(state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        Digest(out)
    }

    /// The 64 lowercase hex digits of the digest, on the stack.
    pub fn hex_digits(&self) -> [u8; 64] {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut out = [0u8; 64];
        for (pair, b) in out.chunks_exact_mut(2).zip(self.0) {
            pair[0] = HEX[usize::from(b >> 4)];
            pair[1] = HEX[usize::from(b & 0xf)];
        }
        out
    }

    /// Hex rendering of the digest.
    pub fn to_hex(&self) -> String {
        self.hex_digits().iter().map(|&b| char::from(b)).collect()
    }

    /// Parses the 64 lowercase hex digits [`Digest::to_hex`] writes;
    /// `None` for any other text, uppercase digits included. Every
    /// digit is looked up in one table and the lookups' high bits are
    /// OR-ed into one validity check, so the parse takes no branch on
    /// the digits' values: it runs inside the catalog's commit section,
    /// where random hex would mispredict a branch per digit.
    pub fn from_hex(s: &str) -> Option<Digest> {
        let digits: &[u8; 64] = s.as_bytes().try_into().ok()?;
        let mut out = [0u8; 32];
        let mut invalid = 0;
        for (o, pair) in out.iter_mut().zip(digits.chunks_exact(2)) {
            let (hi, lo) = (UNHEX[usize::from(pair[0])], UNHEX[usize::from(pair[1])]);
            invalid |= hi | lo;
            *o = hi << 4 | lo & 0xf;
        }
        (invalid & NOT_HEX == 0).then_some(Digest(out))
    }
}

/// What [`UNHEX`] holds for a byte that is not a lowercase hex digit:
/// a bit no digit's value has.
const NOT_HEX: u8 = 0x10;

/// Each byte's value as a lowercase hex digit, or [`NOT_HEX`].
const UNHEX: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        table[b"0123456789abcdef"[i] as usize] = i as u8;
        i += 1;
    }
    table
};

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({})", &self.to_hex()[..12])
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
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

/// Incremental SHA-256 hasher (FIPS 180-4).
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Feeds bytes into the hash.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self
            .total_len
            .checked_add(data.len() as u64)
            // lint: allow(no_panic) -- FIPS 180-4 caps messages below 2^64 bits; wrapping here would silently corrupt digests
            .expect("SHA-256 input exceeds 2^64 bits");
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Whole blocks are hashed where they lie; only the tail is buffered.
        let (blocks, tail) = data.split_at(data.len() & !63);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros, 8-byte big-endian bit length, filling one
        // block when the tail leaves room for the nine bytes and two
        // when it does not.
        let mut pad = [0u8; 128];
        pad[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        pad[self.buf_len] = 0x80;
        let end = if self.buf_len < 56 { 64 } else { 128 };
        pad[end - 8..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, &pad[..end]);
        Digest::from_state(self.state)
    }
}

/// Folds `blocks` (a whole number of 64-byte blocks) into `state` with
/// the SHA-NI kernel when the CPU reports the extension, else with the
/// portable kernel. The CPU is the only input to the choice.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    // Both callers pass whole blocks by construction; a stray tail would
    // be silently left out of the digest.
    assert_eq!(blocks.len() % 64, 0, "compress takes whole 64-byte blocks");
    #[cfg(target_arch = "x86_64")]
    if x86::compress(state, blocks) {
        return;
    }
    compress_portable(state, blocks);
}

/// Which compress kernel [`sha256`] runs on this host: `"x86-sha"`
/// (x86-64 SHA extensions) or `"portable"` (scalar FIPS 180-4 rounds).
/// The operator report prints it so absolute throughput is compared
/// only between hosts running the same kernel.
pub fn sha256_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if x86::detected() {
        return "x86-sha";
    }
    "portable"
}

/// Which kernel [`sha256_many`] runs on a group of at least
/// [`X16_MIN_LANES`] messages sharing a block layout: `"avx512-x16"`
/// where the CPU has AVX-512 (F and BW), else the one-message kernel
/// [`sha256_kernel`] names.
pub fn sha256_many_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if x16::detected() {
        return "avx512-x16";
    }
    sha256_kernel()
}

/// The smallest group the 16-lane kernel takes. One 16-lane step costs
/// about what eight one-message SHA-NI blocks cost (≈ 4.0 against
/// ≈ 1.9 GB/s on a 2-vCPU AVX-512 + SHA-NI host), so fewer than eight
/// filled lanes would hash slower than one message at a time. This is
/// the measured break-even, not an option.
pub const X16_MIN_LANES: usize = 8;

/// A message's block layout: its whole 64-byte blocks and the one or
/// two padding blocks `finalize` builds after them. Messages with the
/// same layout run through the same number of compress steps, which is
/// what hashing them in lockstep needs.
fn layout(len: usize) -> (usize, usize) {
    (len / 64, if len % 64 < 56 { 1 } else { 2 })
}

/// One SHA-256 per message, in input order.
///
/// Messages are grouped by [`layout`]; where the CPU has AVX-512, every
/// sixteen (or the last at least [`X16_MIN_LANES`]) of a group hash in
/// lockstep on the 16-lane kernel, and the rest go through [`sha256`]
/// one at a time. The CPU and the group sizes are the only inputs to
/// the choice, and every digest is bit-identical to [`sha256`]'s.
pub fn sha256_many(messages: &[&[u8]]) -> Vec<Digest> {
    #[cfg(target_arch = "x86_64")]
    if messages.len() >= X16_MIN_LANES && x16::detected() {
        let mut digests = vec![Digest([0; 32]); messages.len()];
        let mut order: Vec<usize> = (0..messages.len()).collect();
        order.sort_by_key(|&i| layout(messages[i].len()));
        let same_layout =
            |&a: &usize, &b: &usize| layout(messages[a].len()) == layout(messages[b].len());
        for group in order.chunk_by(same_layout) {
            for lanes in group.chunks(x16::LANES) {
                let lockstep = if lanes.len() >= X16_MIN_LANES {
                    let batch: Vec<&[u8]> = lanes.iter().map(|&i| messages[i]).collect();
                    x16::hash(&batch)
                } else {
                    None
                };
                match lockstep {
                    Some(out) => lanes.iter().zip(out).for_each(|(&i, d)| digests[i] = d),
                    None => lanes.iter().for_each(|&i| digests[i] = sha256(messages[i])),
                }
            }
        }
        return digests;
    }
    messages.iter().map(|m| sha256(m)).collect()
}

/// The scalar FIPS 180-4 rounds: the kernel for every CPU without SHA
/// extensions and the reference the hardware kernel is tested against.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (wi, b) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
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
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The x86-64 SHA-NI kernel, one of the crate's two `unsafe` modules
/// (`x16` is the other). Everything unsafe needs — that the CPU has the
/// instructions, that every load is in bounds — is established inside
/// this module.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use super::K;

    /// True when the CPU reports every extension the kernel is compiled
    /// with. std caches the CPUID probe, so this is a load and a mask.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Folds `blocks` into `state` and returns `true`, or returns
    /// `false` with `state` untouched when the CPU lacks the extensions.
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        if !detected() {
            return false;
        }
        // SAFETY: `detected()` just confirmed sha, sse2, ssse3 and
        // sse4.1, the features `compress_sha_ni` is compiled with.
        unsafe { compress_sha_ni(state, blocks) };
        true
    }

    /// Four rounds: `$w` holds W[4i..4i+4], `$i` is the quad index.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
            let k = _mm_set_epi32(
                K[4 * $i + 3] as i32,
                K[4 * $i + 2] as i32,
                K[4 * $i + 1] as i32,
                K[4 * $i] as i32,
            );
            let wk = _mm_add_epi32($w, k);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }};
    }

    /// Message schedule for the next quad, then its four rounds:
    /// `$w4` becomes W[4i..4i+4] from the previous four quads.
    macro_rules! schedule_rounds4 {
        ($abef:ident, $cdgh:ident, $w0:ident, $w1:ident, $w2:ident, $w3:ident, $w4:ident, $i:expr) => {{
            let t = _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
            $w4 = _mm_sha256msg2_epu32(t, $w3);
            rounds4!($abef, $cdgh, $w4, $i);
        }};
    }

    /// Calling this is `unsafe` from code not compiled with the same
    /// features: the CPU must support sha, sse2, ssse3 and sse4.1.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
        // Big-endian word load as a byte shuffle.
        let be = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `state` is eight u32 = two 16-byte halves; `loadu`
        // needs no alignment.
        let (dcba, hgfe) = unsafe {
            (
                _mm_loadu_si128(state.as_ptr().cast()),
                _mm_loadu_si128(state.as_ptr().add(4).cast()),
            )
        };
        // The round instruction wants the state as (ABEF, CDGH).
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p: *const __m128i = block.as_ptr().cast();
            // SAFETY: `chunks_exact(64)` yields exactly 64 bytes, so the
            // four 16-byte reads at p..p+4 are in bounds; `loadu` needs
            // no alignment.
            let (mut w0, mut w1, mut w2, mut w3) = unsafe {
                (
                    _mm_shuffle_epi8(_mm_loadu_si128(p), be),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), be),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), be),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), be),
                )
            };
            let mut w4;

            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 4);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 5);
            schedule_rounds4!(abef, cdgh, w2, w3, w4, w0, w1, 6);
            schedule_rounds4!(abef, cdgh, w3, w4, w0, w1, w2, 7);
            schedule_rounds4!(abef, cdgh, w4, w0, w1, w2, w3, 8);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 9);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 10);
            schedule_rounds4!(abef, cdgh, w2, w3, w4, w0, w1, 11);
            schedule_rounds4!(abef, cdgh, w3, w4, w0, w1, w2, 12);
            schedule_rounds4!(abef, cdgh, w4, w0, w1, w2, w3, 13);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 14);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 15);

            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        // SAFETY: as for the loads above: two 16-byte halves of `state`,
        // unaligned stores.
        unsafe {
            _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xF0));
            _mm_storeu_si128(
                state.as_mut_ptr().add(4).cast(),
                _mm_alignr_epi8(dchg, feba, 8),
            );
        }
    }
}

/// The x86-64 AVX-512 16-lane kernel: up to sixteen messages that share
/// a block layout hash in lockstep, one message per 32-bit lane. Like
/// `x86`, everything its `unsafe` needs — that the CPU has the
/// instructions, that every load and store is in bounds — is
/// established inside this module.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x16 {
    use core::arch::x86_64::{
        __m512i, _mm512_add_epi32, _mm512_loadu_si512, _mm512_ror_epi32, _mm512_set1_epi32,
        _mm512_set4_epi64, _mm512_setzero_si512, _mm512_shuffle_epi8, _mm512_shuffle_i32x4,
        _mm512_srli_epi32, _mm512_storeu_si512, _mm512_ternarylogic_epi32, _mm512_unpackhi_epi32,
        _mm512_unpackhi_epi64, _mm512_unpacklo_epi32, _mm512_unpacklo_epi64,
    };

    use super::{layout, Digest, H0, K};

    /// Messages per step: one per 32-bit lane of a 512-bit register.
    pub(super) const LANES: usize = 16;

    /// One 64-byte block per lane.
    type Rows<'a> = [&'a [u8; 64]; LANES];

    /// True when the CPU reports every extension the kernel is compiled
    /// with. std caches the CPUID probe, so this is a load and a mask.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")
    }

    /// The digests of 1..=16 messages that share one block layout, in
    /// order, or `None` when the CPU lacks the extensions (or `messages`
    /// is empty). Lanes past `messages.len()` repeat the last message;
    /// their entries are its digest again and the caller drops them.
    pub(super) fn hash(messages: &[&[u8]]) -> Option<[Digest; LANES]> {
        let last = *messages.last()?;
        if !detected() {
            return None;
        }
        let (whole, pad_blocks) = layout(last.len());
        // Lockstep is only right when every lane runs the same number
        // of compress steps; a lane with more whole blocks would be cut
        // short silently.
        assert!(
            messages.len() <= LANES
                && messages
                    .iter()
                    .all(|m| layout(m.len()) == (whole, pad_blocks)),
            "the 16-lane kernel takes at most 16 messages of one block layout"
        );
        let lanes: [&[u8]; LANES] =
            core::array::from_fn(|l| messages.get(l).copied().unwrap_or(last));
        // Each lane's padding blocks, built on the stack the way
        // `finalize` builds them: tail, 0x80, zeros, bit length.
        let mut pads = [[[0u8; 64]; 2]; LANES];
        for (pad, lane) in pads.iter_mut().zip(lanes) {
            let pad = pad.as_flattened_mut();
            let tail = &lane[whole * 64..];
            pad[..tail.len()].copy_from_slice(tail);
            pad[tail.len()] = 0x80;
            let end = 64 * pad_blocks;
            pad[end - 8..end].copy_from_slice(&(lane.len() as u64).wrapping_mul(8).to_be_bytes());
        }
        // SAFETY: `detected()` just confirmed avx512f and avx512bw, the
        // features `hash_lanes` is compiled with.
        let states = unsafe { hash_lanes(&lanes, whole, &pads, pad_blocks) };
        Some(core::array::from_fn(|l| {
            Digest::from_state(core::array::from_fn(|i| states[i][l]))
        }))
    }

    /// Runs every lane's `whole` blocks where they lie, then its
    /// `pad_blocks` padding blocks, and returns the final state words:
    /// `[word][lane]`.
    ///
    /// Calling this is `unsafe` from code not compiled with the same
    /// features: the CPU must support avx512f and avx512bw.
    #[target_feature(enable = "avx512f,avx512bw")]
    fn hash_lanes(
        lanes: &[&[u8]; LANES],
        whole: usize,
        pads: &[[[u8; 64]; 2]; LANES],
        pad_blocks: usize,
    ) -> [[u32; LANES]; 8] {
        let mut state = [_mm512_setzero_si512(); 8];
        for (s, h) in state.iter_mut().zip(H0) {
            *s = _mm512_set1_epi32(h as i32);
        }
        // `as_chunks` cuts each lane into whole blocks; every lane has
        // `whole` of them because every lane has the same layout.
        let blocks: [&[[u8; 64]]; LANES] = core::array::from_fn(|l| lanes[l].as_chunks::<64>().0);
        let whole_rows =
            (0..whole).map(|b| -> Rows<'_> { core::array::from_fn(|l| &blocks[l][b]) });
        let pad_rows =
            (0..pad_blocks).map(|b| -> Rows<'_> { core::array::from_fn(|l| &pads[l][b]) });
        for rows in whole_rows.chain(pad_rows) {
            compress(&mut state, load_words(&rows));
        }
        let mut out = [[0u32; LANES]; 8];
        for (o, s) in out.iter_mut().zip(state) {
            // SAFETY: `o` is sixteen u32 = 64 bytes, one unaligned
            // 512-bit store.
            unsafe { _mm512_storeu_si512(o.as_mut_ptr().cast(), s) };
        }
        out
    }

    /// Loads one block per lane and transposes them: word `j` of every
    /// lane's block lands in vector `j`, lane `l` in element `l`, each
    /// word big-endian.
    #[target_feature(enable = "avx512f,avx512bw")]
    fn load_words(rows: &Rows<'_>) -> [__m512i; 16] {
        // Big-endian word load as one byte shuffle per row.
        let be = _mm512_set4_epi64(
            0x0c0d_0e0f_0809_0a0b,
            0x0405_0607_0001_0203,
            0x0c0d_0e0f_0809_0a0b,
            0x0405_0607_0001_0203,
        );
        let mut r = [_mm512_setzero_si512(); 16];
        for (v, row) in r.iter_mut().zip(rows) {
            // SAFETY: `row` is exactly 64 bytes, one unaligned 512-bit
            // load.
            *v = _mm512_shuffle_epi8(unsafe { _mm512_loadu_si512(row.as_ptr().cast()) }, be);
        }
        // Interleave row pairs' words, then row quads' word pairs: each
        // 128-bit quarter q of u[4k + m] holds word 4q + m of rows
        // 4k..4k + 4.
        let mut t = [_mm512_setzero_si512(); 16];
        for i in 0..8 {
            t[2 * i] = _mm512_unpacklo_epi32(r[2 * i], r[2 * i + 1]);
            t[2 * i + 1] = _mm512_unpackhi_epi32(r[2 * i], r[2 * i + 1]);
        }
        let mut u = [_mm512_setzero_si512(); 16];
        for k in 0..4 {
            u[4 * k] = _mm512_unpacklo_epi64(t[4 * k], t[4 * k + 2]);
            u[4 * k + 1] = _mm512_unpackhi_epi64(t[4 * k], t[4 * k + 2]);
            u[4 * k + 2] = _mm512_unpacklo_epi64(t[4 * k + 1], t[4 * k + 3]);
            u[4 * k + 3] = _mm512_unpackhi_epi64(t[4 * k + 1], t[4 * k + 3]);
        }
        // Transpose the 4 × 4 grid of quarters for each m: quarter k of
        // word 4q + m is quarter q of u[4k + m].
        let mut w = [_mm512_setzero_si512(); 16];
        for m in 0..4 {
            let lo01 = _mm512_shuffle_i32x4::<0x44>(u[m], u[4 + m]);
            let hi01 = _mm512_shuffle_i32x4::<0xEE>(u[m], u[4 + m]);
            let lo23 = _mm512_shuffle_i32x4::<0x44>(u[8 + m], u[12 + m]);
            let hi23 = _mm512_shuffle_i32x4::<0xEE>(u[8 + m], u[12 + m]);
            w[m] = _mm512_shuffle_i32x4::<0x88>(lo01, lo23);
            w[4 + m] = _mm512_shuffle_i32x4::<0xDD>(lo01, lo23);
            w[8 + m] = _mm512_shuffle_i32x4::<0x88>(hi01, hi23);
            w[12 + m] = _mm512_shuffle_i32x4::<0xDD>(hi01, hi23);
        }
        w
    }

    /// One round on the lane-parallel state `$s` with schedule word
    /// `$w` and round constant `K[$t]`. σ/Σ are three-way XORs (0x96),
    /// Ch is `e ? f : g` (0xCA), Maj the bitwise majority (0xE8).
    macro_rules! round {
        ($s:ident, $w:expr, $t:expr) => {{
            let [a, b, c, d, e, f, g, h] = $s;
            let s1 = _mm512_ternarylogic_epi32::<0x96>(
                _mm512_ror_epi32::<6>(e),
                _mm512_ror_epi32::<11>(e),
                _mm512_ror_epi32::<25>(e),
            );
            let ch = _mm512_ternarylogic_epi32::<0xCA>(e, f, g);
            let kw = _mm512_add_epi32(_mm512_set1_epi32(K[$t] as i32), $w);
            let t1 = _mm512_add_epi32(_mm512_add_epi32(h, s1), _mm512_add_epi32(ch, kw));
            let s0 = _mm512_ternarylogic_epi32::<0x96>(
                _mm512_ror_epi32::<2>(a),
                _mm512_ror_epi32::<13>(a),
                _mm512_ror_epi32::<22>(a),
            );
            let maj = _mm512_ternarylogic_epi32::<0xE8>(a, b, c);
            let t2 = _mm512_add_epi32(s0, maj);
            $s = [
                _mm512_add_epi32(t1, t2),
                a,
                b,
                c,
                _mm512_add_epi32(d, t1),
                e,
                f,
                g,
            ];
        }};
    }

    /// W[t] for t ≥ 16 into ring slot `$j = t mod 16`:
    /// σ1(W[t−2]) + W[t−7] + σ0(W[t−15]) + W[t−16].
    macro_rules! schedule {
        ($w:ident, $j:expr) => {{
            let w15 = $w[($j + 1) & 15];
            let w2 = $w[($j + 14) & 15];
            let s0 = _mm512_ternarylogic_epi32::<0x96>(
                _mm512_ror_epi32::<7>(w15),
                _mm512_ror_epi32::<18>(w15),
                _mm512_srli_epi32::<3>(w15),
            );
            let s1 = _mm512_ternarylogic_epi32::<0x96>(
                _mm512_ror_epi32::<17>(w2),
                _mm512_ror_epi32::<19>(w2),
                _mm512_srli_epi32::<10>(w2),
            );
            $w[$j] = _mm512_add_epi32(
                _mm512_add_epi32($w[$j], s0),
                _mm512_add_epi32($w[($j + 9) & 15], s1),
            );
        }};
    }

    /// Rounds 16r..16r + 16, scheduling each word first when r > 0.
    macro_rules! rounds16 {
        ($s:ident, $w:ident, $r:expr, $($j:expr),+) => {
            $(
                if $r > 0 {
                    schedule!($w, $j);
                }
                round!($s, $w[$j], 16 * $r + $j);
            )+
        };
    }

    /// Folds one block per lane (already transposed into `w`) into the
    /// lane-parallel state.
    #[target_feature(enable = "avx512f")]
    fn compress(state: &mut [__m512i; 8], mut w: [__m512i; 16]) {
        let mut s = *state;
        rounds16!(s, w, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        rounds16!(s, w, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        rounds16!(s, w, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        rounds16!(s, w, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        for (st, v) in state.iter_mut().zip(s) {
            *st = _mm512_add_epi32(*st, v);
        }
    }
}

/// One-shot SHA-256 of a byte slice.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// FNV-1a 64-bit hash — fast, non-cryptographic; used for partitioning.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    type Kernel = fn(&mut [u32; 8], &[u8]);

    /// Every kernel this host can run, called directly rather than
    /// through `compress`: the portable one always, the SHA-NI one when
    /// the CPU has it. A SHA-NI host therefore tests both.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let portable: (&'static str, Kernel) = ("portable", compress_portable);
        #[cfg(target_arch = "x86_64")]
        if x86::detected() {
            let sha_ni: Kernel = |state, blocks| assert!(x86::compress(state, blocks));
            return vec![portable, ("x86-sha", sha_ni)];
        }
        vec![portable]
    }

    /// SHA-256 of `data` by one `kernel` call over the whole padded
    /// message; the padding here is written independently of `finalize`.
    fn hash_with(kernel: Kernel, data: &[u8]) -> Digest {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        kernel(&mut state, &msg);
        Digest::from_state(state)
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 % 251) as u8).collect()
    }

    // NIST / well-known vectors, through the dispatcher and through
    // each kernel directly.
    #[test]
    fn nist_vectors_on_every_kernel() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (msg, hex) in vectors {
            assert_eq!(sha256(msg).to_hex(), hex, "dispatcher, {} bytes", msg.len());
            for (name, kernel) in kernels() {
                assert_eq!(
                    hash_with(kernel, msg).to_hex(),
                    hex,
                    "{name}, {} bytes",
                    msg.len()
                );
            }
        }
    }

    #[test]
    fn sha256_million_a_in_odd_updates() {
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

    /// Lengths 0..=300 cross every padding edge (55/56, 63/64/65,
    /// 119/120, ...): `finalize`'s one-or-two-block padding must agree
    /// with the test's own padding on every kernel.
    #[test]
    fn every_length_to_300_agrees_on_every_kernel() {
        let data = pattern(300);
        for len in 0..=300 {
            let msg = &data[..len];
            let expect = sha256(msg);
            for (name, kernel) in kernels() {
                assert_eq!(hash_with(kernel, msg), expect, "{name}, {len} bytes");
            }
        }
    }

    #[test]
    fn incremental_equals_oneshot_at_odd_boundaries() {
        let data = pattern(1000);
        let whole = sha256(&data);
        for split in [1usize, 63, 64, 65, 127, 500, 999] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    proptest::proptest! {
        /// Random data fed at random `update` split points: incremental
        /// == one-shot == every kernel called directly.
        #[test]
        fn incremental_oneshot_and_every_kernel_agree(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2048),
            cuts in proptest::collection::vec(0usize..2048, 0..8),
        ) {
            let whole = sha256(&data);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut prev = 0;
            for c in cuts {
                h.update(&data[prev..c]);
                prev = c;
            }
            h.update(&data[prev..]);
            proptest::prop_assert_eq!(h.finalize(), whole);
            for (name, kernel) in kernels() {
                proptest::prop_assert_eq!(hash_with(kernel, &data), whole, "{}", name);
            }
        }
    }

    #[test]
    fn reported_kernel_is_the_best_this_host_can_run() {
        // The hardware kernel, listed last, is preferred whenever it exists.
        assert_eq!(sha256_kernel(), kernels().last().map_or("", |(k, _)| k));
        // What CI's job summary lists: a kernel this host cannot run is
        // named as untested, not left out.
        for (name, _) in kernels() {
            eprintln!("sha256 kernel exercised: {name}");
        }
        #[cfg(target_arch = "x86_64")]
        if !x86::detected() {
            eprintln!("sha256 kernel NOT exercised: x86-sha (CPU lacks sha/ssse3/sse4.1)");
        }
    }

    /// The 16-lane kernel called directly on `messages`, or `None`
    /// (after saying so) on a host that cannot run it.
    fn x16_direct(messages: &[&[u8]]) -> Option<Vec<Digest>> {
        #[cfg(target_arch = "x86_64")]
        if x16::detected() {
            let out = x16::hash(messages).map(|d| d[..messages.len()].to_vec());
            assert!(out.is_some(), "a detected kernel hashes");
            return out;
        }
        let _ = messages;
        eprintln!("sha256 kernel NOT exercised: avx512-x16 (CPU lacks avx512f/avx512bw)");
        None
    }

    /// `lanes` distinct messages of `len` bytes each.
    fn lane_messages(lanes: usize, len: usize) -> Vec<Vec<u8>> {
        (0..lanes)
            .map(|l| {
                (0..len)
                    .map(|i| ((i + 7 * l) * 131 % 251) as u8 ^ l as u8)
                    .collect()
            })
            .collect()
    }

    /// Every lane count the kernel takes (8..=16), at every length to
    /// 300 (each padding edge) and at 1 MiB + 16 (the `htm_bulk` item):
    /// the 16-lane kernel agrees with every one-message kernel.
    #[test]
    fn x16_kernel_agrees_with_every_kernel_at_every_lane_count() {
        let mut lengths: Vec<usize> = (0..=300).collect();
        lengths.push((1 << 20) + 16);
        for len in lengths {
            let all = lane_messages(16, len);
            let expect: Vec<Vec<Digest>> = kernels()
                .into_iter()
                .map(|(_, kernel)| all.iter().map(|m| hash_with(kernel, m)).collect())
                .collect();
            for lanes in X16_MIN_LANES..=16 {
                let messages: Vec<&[u8]> = all[..lanes].iter().map(Vec::as_slice).collect();
                let Some(got) = x16_direct(&messages) else {
                    return;
                };
                for ((name, _), want) in kernels().into_iter().zip(&expect) {
                    assert_eq!(got, want[..lanes], "{name}, {lanes} lanes of {len} bytes");
                }
            }
        }
        eprintln!("sha256 kernel exercised: avx512-x16");
    }

    #[test]
    fn the_batch_kernel_is_named_from_the_cpu() {
        #[cfg(target_arch = "x86_64")]
        if x16::detected() {
            assert_eq!(sha256_many_kernel(), "avx512-x16");
            return;
        }
        assert_eq!(sha256_many_kernel(), sha256_kernel());
    }

    proptest::proptest! {
        /// Random sets mixing lengths across and within block layouts
        /// (10 and 55 share one, 56 and 63 another, 119 and 120 a
        /// third), so groups above and below the 8-lane threshold occur:
        /// `sha256_many` is `sha256` mapped over the set, in order.
        #[test]
        fn sha256_many_is_sha256_of_each(
            picks in proptest::collection::vec(
                (
                    proptest::sample::select(vec![0usize, 10, 55, 56, 63, 64, 119, 120, 200, 1000]),
                    proptest::prelude::any::<u8>(),
                ),
                0..48,
            ),
        ) {
            let messages: Vec<Vec<u8>> = picks
                .iter()
                .map(|&(len, seed)| (0..len).map(|i| (i as u8).wrapping_mul(seed) ^ seed).collect())
                .collect();
            let slices: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
            let each: Vec<Digest> = slices.iter().map(|m| sha256(m)).collect();
            proptest::prop_assert_eq!(sha256_many(&slices), each);
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[test]
    fn non_x86_hosts_run_the_portable_kernel() {
        assert_eq!(sha256_kernel(), "portable");
    }

    #[test]
    fn hex_roundtrip() {
        let d = sha256(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(&"0".repeat(63)), None);
        assert_eq!(Digest::from_hex(&"0".repeat(65)), None);
        // Lowercase only, the form `to_hex` writes.
        assert_eq!(Digest::from_hex(&d.to_hex().to_uppercase()), None);
        let hex = d.to_hex();
        for (at, bad) in [(0, 'g'), (63, 'G'), (17, '/'), (40, ':'), (5, '`'), (9, '@')] {
            let mut text = hex.clone();
            text.replace_range(at..at + 1, &bad.to_string());
            assert_eq!(Digest::from_hex(&text), None, "{text}");
        }
        // Every digit value, in both positions of a byte.
        let all = "0123456789abcdef".repeat(4);
        let parsed = Digest::from_hex(&all).unwrap();
        assert_eq!(parsed.to_hex(), all);
        assert_eq!(std::str::from_utf8(&parsed.hex_digits()), Ok(all.as_str()));
        // A multi-byte character makes the length right and a digit wrong.
        assert_eq!(Digest::from_hex(&format!("é{}", &hex[2..])), None);
    }

    #[test]
    fn fnv_known_values() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn distinct_content_distinct_digest() {
        assert_ne!(sha256(b"zebrafish-1"), sha256(b"zebrafish-2"));
    }
}
