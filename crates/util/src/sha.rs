//! Std-only SHA-256 (FIPS 180-4): the integrity hot path of the store.
//!
//! Every WSP1 shard payload is hashed when it is written and again when
//! `PageShardReader::open` verifies it; the WSE1 extraction caches,
//! `MANIFEST.wsm`, the epoch output digest, the replay response digest
//! and the golden artifact manifests all hash on top of that. A cold
//! serve set-up pushes on the order of a hundred megabytes through this
//! module, so the block function is the only part that matters.
//!
//! The workspace depends on no crypto crates, so both kernels are
//! written directly from the spec:
//!
//! * `portable` — the textbook message schedule and 64-round compressor,
//!   compiled on every target;
//! * `shani` (x86_64 only) — the SHA extensions (`sha256rnds2`,
//!   `sha256msg1`, `sha256msg2`), two rounds per instruction, roughly
//!   6× the portable throughput on CPUs that have them.
//!
//! [`compress_blocks`] picks the kernel at run time with
//! `is_x86_feature_detected!` (`sha` and `sse4.1`; std caches the CPUID
//! probe, so the check is a load and a branch) and falls back to the
//! portable kernel on every other CPU and architecture. Both kernels
//! compute the same function, so every digest is bit-identical whichever
//! one runs; a seeded differential test at the bottom of this file holds
//! the dispatched hasher to the portable kernel.

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

/// First 32 bits of the fractional parts of the cube roots of the first
/// 64 primes (FIPS 180-4 §4.2.2).
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

impl Default for Sha256 {
    fn default() -> Self {
        Sha256 {
            // Fractional parts of the square roots of the first 8 primes.
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c,
                0x1f83d9ab, 0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }
}

impl Sha256 {
    /// A fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Sha256::default()
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                // Everything fit in the partial buffer.
                return;
            }
            compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let whole = rest.len() - rest.len() % 64;
        compress_blocks(&mut self.state, &rest[..whole]);
        let tail = &rest[whole..];
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finish and return the 32-byte digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; 32] {
        // Buffered tail, the 0x80 marker, zero fill and the 64-bit message
        // length: one block, or two when the tail leaves no room for the
        // length (FIPS 180-4 §5.1.1).
        let n = self.buf_len;
        let mut last = [0u8; 128];
        last[..n].copy_from_slice(&self.buf[..n]);
        last[n] = 0x80;
        let end = if n < 56 { 64 } else { 128 };
        last[end - 8..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress_blocks(&mut self.state, &last[..end]);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Run the compression function over `blocks` (a whole number of 64-byte
/// blocks), on the SHA-NI kernel when the CPU has it.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    if blocks.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1") {
            // SAFETY: both features the kernel is compiled for were just
            // detected on this CPU (SSE2 and SSSE3 are implied by SSE4.1).
            unsafe { shani::compress_blocks(state, blocks) };
            return;
        }
    }
    portable::compress_blocks(state, blocks);
}

mod portable {
    //! The FIPS 180-4 §6.2.2 compressor, one round per iteration.
    use super::K;

    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        for block in blocks.chunks_exact(64) {
            compress(state, block);
        }
    }

    fn compress(state: &mut [u32; 8], block: &[u8]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
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

#[cfg(target_arch = "x86_64")]
mod shani {
    //! The x86 SHA extensions kernel. `sha256rnds2` keeps the eight
    //! working variables in two vectors, `ABEF` and `CDGH`, and runs two
    //! rounds per instruction; `sha256msg1`/`sha256msg2` extend
    //! the message schedule four words at a time. Not part of the x86_64
    //! baseline, so callers must detect `sha` and `sse4.1` first.
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// SAFETY contract (callers): the CPU supports `sha` and `sse4.1`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte-swaps each 32-bit lane: message words are big-endian.
        let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let state_ptr = state.as_mut_ptr().cast::<__m128i>();
        // SAFETY: `state` is 32 readable bytes; loadu has no alignment
        // requirement.
        let (dcba, hgfe) = unsafe {
            (
                _mm_loadu_si128(state_ptr),
                _mm_loadu_si128(state_ptr.add(1)),
            )
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr().cast::<__m128i>();
            // SAFETY: `block` is 64 readable bytes, four unaligned loads.
            let (mut w0, mut w1, mut w2, mut w3) = unsafe {
                (
                    _mm_shuffle_epi8(_mm_loadu_si128(p), be_words),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), be_words),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), be_words),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), be_words),
                )
            };
            // Four rounds on schedule words W[4i..4i+4].
            macro_rules! rounds4 {
                ($w:expr, $i:expr) => {{
                    // SAFETY: `4 * i + 4 <= 64`, so 16 readable bytes of `K`.
                    let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * $i).cast::<__m128i>()) };
                    let wk = _mm_add_epi32($w, k);
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                }};
            }
            // W[t..t+4] from the previous sixteen words held in
            // `$a, $b, $c, $d` (oldest first), replacing `$a`.
            macro_rules! schedule {
                ($a:ident, $b:ident, $c:ident, $d:ident) => {
                    $a = _mm_sha256msg2_epu32(
                        _mm_add_epi32(_mm_sha256msg1_epu32($a, $b), _mm_alignr_epi8($d, $c, 4)),
                        $d,
                    )
                };
            }
            rounds4!(w0, 0);
            rounds4!(w1, 1);
            rounds4!(w2, 2);
            rounds4!(w3, 3);
            for i in [4, 8, 12] {
                schedule!(w0, w1, w2, w3);
                rounds4!(w0, i);
                schedule!(w1, w2, w3, w0);
                rounds4!(w1, i + 1);
                schedule!(w2, w3, w0, w1);
                rounds4!(w2, i + 2);
                schedule!(w3, w0, w1, w2);
                rounds4!(w3, i + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: `state` is 32 writable bytes; storeu has no alignment
        // requirement.
        unsafe {
            _mm_storeu_si128(state_ptr, dcba);
            _mm_storeu_si128(state_ptr.add(1), hgef);
        }
    }
}

/// `bytes` as a lowercase hex string.
#[must_use]
pub fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from(DIGITS[usize::from(b >> 4)]));
        out.push(char::from(DIGITS[usize::from(b & 0x0f)]));
    }
    out
}

/// SHA-256 of `data` as a lowercase hex string.
#[must_use]
pub fn sha256_hex(data: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(data);
    hex(&h.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Seed, Xoshiro256};

    /// SHA-256 with the padding built by hand and only the portable
    /// kernel run: an oracle independent of `update`/`finalize` and of
    /// the dispatch.
    fn portable_digest(data: &[u8]) -> [u8; 32] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
        let mut state = Sha256::new().state;
        portable::compress_blocks(&mut state, &msg);
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    const FIPS: [(&[u8], &str); 3] = [
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
    ];

    #[test]
    fn fips_vectors() {
        for (msg, want) in FIPS {
            assert_eq!(sha256_hex(msg), want, "dispatched");
            assert_eq!(hex(&portable_digest(msg)), want, "portable");
        }
    }

    #[test]
    fn million_a() {
        const WANT: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(hex(&h.finalize()), WANT, "dispatched");
        assert_eq!(hex(&portable_digest(&[b'a'; 1_000_000])), WANT, "portable");
    }

    #[test]
    fn dispatched_matches_portable_on_seeded_splits() {
        let mut rng = Xoshiro256::from_seed(Seed(0x5a56_2561));
        let data: Vec<u8> = (0..=4096).map(|_| rng.next_u32() as u8).collect();
        for len in 0..=4096usize {
            let msg = &data[..len];
            let want = portable_digest(msg);
            // Three random cut points, so runs of whole blocks, partial
            // buffers and empty updates all reach `compress_blocks`.
            let mut cuts = [0usize; 3].map(|_| rng.usize_below(len + 1));
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([len]) {
                h.update(&msg[at..cut]);
                at = cut;
            }
            assert_eq!(h.finalize(), want, "len {len} cuts {cuts:?}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let oneshot = sha256_hex(&data);
        for split in [0, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(hex(&h.finalize()), oneshot, "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // 55/56/64-byte messages exercise the padding edge cases.
        for len in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![0x5au8; len];
            let mut h = Sha256::new();
            for byte in &data {
                h.update(std::slice::from_ref(byte));
            }
            assert_eq!(h.finalize(), portable_digest(&data), "len {len}");
        }
    }
}
