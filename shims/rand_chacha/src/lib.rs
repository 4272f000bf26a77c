//! Offline shim for `rand_chacha` 0.3: a bit-exact ChaCha8 generator.
//!
//! The simulation's workload generators are seeded ChaCha8 streams, so
//! this shim reproduces the upstream keystream exactly: the original
//! (djb) ChaCha variant with a 64-bit block counter at state words
//! 12–13 and a 64-bit stream id at words 14–15, buffered four blocks
//! (64 `u32` words) at a time with rand_core's `BlockRng` word-consumption
//! order, including its split-read behaviour for `next_u64` at the
//! buffer boundary.
//!
//! The refill computes its four blocks at once, one block per lane of
//! SSE2 vectors, on x86_64 (SSE2 is part of that target's baseline), and
//! one block at a time elsewhere. The scalar block function is the
//! reference the vector refill is tested against.

// The x86_64 refill (entering its SSE2 kernel, and the kernel's stores)
// is the crate's only unsafe code.
#![deny(unsafe_code)]

use rand::{RngCore, SeedableRng};

const BLOCK_WORDS: usize = 16;
const BUF_BLOCKS: u64 = 4;
const BUF_WORDS: usize = 64; // four 16-word ChaCha blocks per refill

/// "expand 32-byte k", the ChaCha constant words 0–3.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// A ChaCha generator with 8 rounds.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    /// Block counter of the block after the buffered ones.
    counter: u64,
    stream: u64,
    buf: [u32; BUF_WORDS],
    index: usize,
}

#[cfg(any(test, not(target_arch = "x86_64")))]
#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// One ChaCha8 block at `counter`, written to `out` (16 words).
#[cfg(any(test, not(target_arch = "x86_64")))]
fn block(key: &[u32; 8], counter: u64, stream: u64, out: &mut [u32]) {
    let mut state = [
        SIGMA[0],
        SIGMA[1],
        SIGMA[2],
        SIGMA[3],
        key[0],
        key[1],
        key[2],
        key[3],
        key[4],
        key[5],
        key[6],
        key[7],
        counter as u32,
        (counter >> 32) as u32,
        stream as u32,
        (stream >> 32) as u32,
    ];
    let initial = state;
    for _ in 0..4 {
        // One double round: a column round then a diagonal round.
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    for (o, (s, i)) in out.iter_mut().zip(state.iter().zip(initial.iter())) {
        *o = s.wrapping_add(*i);
    }
}

/// Fills `buf` with the blocks at `counter .. counter + 4`, one at a
/// time.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn refill_scalar(key: &[u32; 8], counter: u64, stream: u64, buf: &mut [u32; BUF_WORDS]) {
    for (b, out) in (0u64..).zip(buf.chunks_exact_mut(BLOCK_WORDS)) {
        block(key, counter.wrapping_add(b), stream, out);
    }
}

/// Fills `buf` with the blocks at `counter .. counter + 4`, all four at
/// once (see [`sse2_blocks`]).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn refill_wide(key: &[u32; 8], counter: u64, stream: u64, buf: &mut [u32; BUF_WORDS]) {
    // SAFETY: `sse2_blocks` needs only SSE2, which is part of the x86_64
    // baseline: every x86_64 CPU has it.
    unsafe { sse2_blocks(key, counter, stream, buf) }
}

/// The four blocks as SSE2 vectors: state word `w` of block `b` is lane
/// `b` of vector `w`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[allow(unsafe_code)]
fn sse2_blocks(key: &[u32; 8], counter: u64, stream: u64, buf: &mut [u32; BUF_WORDS]) {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_or_si128, _mm_set1_epi32, _mm_set_epi32, _mm_slli_epi32,
        _mm_srli_epi32, _mm_storeu_si128, _mm_unpackhi_epi32, _mm_unpackhi_epi64,
        _mm_unpacklo_epi32, _mm_unpacklo_epi64, _mm_xor_si128,
    };

    macro_rules! rotl {
        ($x:expr, $n:literal) => {
            _mm_or_si128(_mm_slli_epi32::<$n>($x), _mm_srli_epi32::<{ 32 - $n }>($x))
        };
    }

    #[target_feature(enable = "sse2")]
    #[inline]
    fn quarter(s: &mut [__m128i; 16], a: usize, b: usize, c: usize, d: usize) {
        s[a] = _mm_add_epi32(s[a], s[b]);
        s[d] = rotl!(_mm_xor_si128(s[d], s[a]), 16);
        s[c] = _mm_add_epi32(s[c], s[d]);
        s[b] = rotl!(_mm_xor_si128(s[b], s[c]), 12);
        s[a] = _mm_add_epi32(s[a], s[b]);
        s[d] = rotl!(_mm_xor_si128(s[d], s[a]), 8);
        s[c] = _mm_add_epi32(s[c], s[d]);
        s[b] = rotl!(_mm_xor_si128(s[b], s[c]), 7);
    }

    let splat = |w: u32| _mm_set1_epi32(w as i32);
    let lanes = [0, 1, 2, 3].map(|b| counter.wrapping_add(b));
    let lane_words = |word: fn(u64) -> u32| {
        _mm_set_epi32(
            word(lanes[3]) as i32,
            word(lanes[2]) as i32,
            word(lanes[1]) as i32,
            word(lanes[0]) as i32,
        )
    };
    let initial = [
        splat(SIGMA[0]),
        splat(SIGMA[1]),
        splat(SIGMA[2]),
        splat(SIGMA[3]),
        splat(key[0]),
        splat(key[1]),
        splat(key[2]),
        splat(key[3]),
        splat(key[4]),
        splat(key[5]),
        splat(key[6]),
        splat(key[7]),
        lane_words(|c| c as u32),
        lane_words(|c| (c >> 32) as u32),
        splat(stream as u32),
        splat((stream >> 32) as u32),
    ];
    let mut s = initial;
    for _ in 0..4 {
        quarter(&mut s, 0, 4, 8, 12);
        quarter(&mut s, 1, 5, 9, 13);
        quarter(&mut s, 2, 6, 10, 14);
        quarter(&mut s, 3, 7, 11, 15);
        quarter(&mut s, 0, 5, 10, 15);
        quarter(&mut s, 1, 6, 11, 12);
        quarter(&mut s, 2, 7, 8, 13);
        quarter(&mut s, 3, 4, 9, 14);
    }
    for (x, i) in s.iter_mut().zip(initial) {
        *x = _mm_add_epi32(*x, i);
    }
    // Transpose each group of four state words into four block rows.
    for (g, words) in s.chunks_exact(4).enumerate() {
        let ab_lo = _mm_unpacklo_epi32(words[0], words[1]);
        let cd_lo = _mm_unpacklo_epi32(words[2], words[3]);
        let ab_hi = _mm_unpackhi_epi32(words[0], words[1]);
        let cd_hi = _mm_unpackhi_epi32(words[2], words[3]);
        let rows = [
            _mm_unpacklo_epi64(ab_lo, cd_lo),
            _mm_unpackhi_epi64(ab_lo, cd_lo),
            _mm_unpacklo_epi64(ab_hi, cd_hi),
            _mm_unpackhi_epi64(ab_hi, cd_hi),
        ];
        for (b, row) in rows.into_iter().enumerate() {
            let start = b * BLOCK_WORDS + 4 * g;
            let out = &mut buf[start..start + 4];
            // SAFETY: `out` is a live, exclusively borrowed slice of four
            // u32s, i.e. 16 writable bytes, and `_mm_storeu_si128` writes
            // exactly 16 bytes with no alignment requirement.
            unsafe { _mm_storeu_si128(out.as_mut_ptr().cast::<__m128i>(), row) };
        }
    }
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        #[cfg(target_arch = "x86_64")]
        refill_wide(&self.key, self.counter, self.stream, &mut self.buf);
        #[cfg(not(target_arch = "x86_64"))]
        refill_scalar(&self.key, self.counter, self.stream, &mut self.buf);
        self.counter = self.counter.wrapping_add(BUF_BLOCKS);
        self.index = 0;
    }

    /// The offset from the start of the stream, in 32-bit words: how many
    /// keystream words the generator has handed out (rand_chacha 0.3's
    /// `get_word_pos`).
    pub fn get_word_pos(&self) -> u128 {
        let buf_start = self.counter.wrapping_sub(BUF_BLOCKS);
        let block = buf_start.wrapping_add((self.index / BLOCK_WORDS) as u64);
        u128::from(block) * BLOCK_WORDS as u128 + (self.index % BLOCK_WORDS) as u128
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        ChaCha8Rng {
            key,
            counter: 0,
            stream: 0,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill();
        }
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        // Mirrors rand_core's BlockRng::next_u64 so mixed u32/u64 reads
        // consume the keystream in exactly the upstream order.
        if self.index < BUF_WORDS - 1 {
            let lo = u64::from(self.buf[self.index]);
            let hi = u64::from(self.buf[self.index + 1]);
            self.index += 2;
            lo | (hi << 32)
        } else if self.index >= BUF_WORDS {
            self.refill();
            let lo = u64::from(self.buf[0]);
            let hi = u64::from(self.buf[1]);
            self.index = 2;
            lo | (hi << 32)
        } else {
            let lo = u64::from(self.buf[BUF_WORDS - 1]);
            self.refill();
            let hi = u64::from(self.buf[0]);
            self.index = 1;
            lo | (hi << 32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The all-zero-key ChaCha8 keystream's first block, from the
    /// published chacha test vectors (TC1, 8 rounds, djb variant).
    #[test]
    fn zero_key_first_block_matches_reference() {
        let mut words = [0u32; 16];
        block(&[0; 8], 0, 0, &mut words);
        let mut bytes = Vec::new();
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        let expected: [u8; 32] = [
            0x3e, 0x00, 0xef, 0x2f, 0x89, 0x5f, 0x40, 0xd6, 0x7f, 0x5b, 0xb8, 0xe8, 0x1f, 0x09,
            0xa5, 0xa1, 0x2c, 0x84, 0x0e, 0xc3, 0xce, 0x9a, 0x7f, 0x3b, 0x18, 0x1b, 0xe1, 0x88,
            0xef, 0x71, 0x1a, 0x1e,
        ];
        assert_eq!(&bytes[..32], &expected);
    }

    /// The vector refill against the scalar block function, including
    /// counters whose four lanes carry into the high word or wrap.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn wide_refill_matches_scalar_blocks() {
        let counters = [0, 1, 4, 1_000, u64::from(u32::MAX) - 1, u64::MAX - 1];
        for seed in [0, 7, 12_345] {
            let key = ChaCha8Rng::seed_from_u64(seed).key;
            for counter in counters {
                for stream in [0, 0xDEAD_BEEF_0000_0001] {
                    let mut wide = [0; BUF_WORDS];
                    let mut scalar = [0; BUF_WORDS];
                    refill_wide(&key, counter, stream, &mut wide);
                    refill_scalar(&key, counter, stream, &mut scalar);
                    assert_eq!(
                        wide, scalar,
                        "seed {seed} counter {counter} stream {stream}"
                    );
                }
            }
        }
    }

    #[test]
    fn word_pos_counts_words_handed_out() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert_eq!(rng.get_word_pos(), 0);
        rng.next_u32();
        assert_eq!(rng.get_word_pos(), 1);
        rng.next_u64();
        assert_eq!(rng.get_word_pos(), 3);
        for _ in 0..60 {
            rng.next_u32();
        }
        assert_eq!(rng.get_word_pos(), 63);
        // A u64 read split across the refill still takes two words.
        rng.next_u64();
        assert_eq!(rng.get_word_pos(), 65);
        for _ in 0..63 {
            rng.next_u32();
        }
        assert_eq!(rng.get_word_pos(), 128);
        rng.next_u64();
        assert_eq!(rng.get_word_pos(), 130);
    }

    #[test]
    fn mixed_width_reads_are_reproducible() {
        let mut a = ChaCha8Rng::seed_from_u64(12345);
        let mut b = ChaCha8Rng::seed_from_u64(12345);
        let mut seq_a = Vec::new();
        let mut seq_b = Vec::new();
        for i in 0..300 {
            if i % 3 == 0 {
                seq_a.push(u64::from(a.gen::<u8>()));
                seq_b.push(u64::from(b.gen::<u8>()));
            } else {
                seq_a.push(a.gen::<u64>());
                seq_b.push(b.gen::<u64>());
            }
        }
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
