//! The ChaCha8 generator as it was before its refill computed four
//! blocks per SSE2 vector: one scalar block at a time into a temporary,
//! copied into the buffer. Kept verbatim as the oracle the shipping
//! `ChaCha8Rng` must match word for word, plus [`WordCounter`], which
//! counts the words any generator hands out.
//!
//! Shared by the shim's own oracle tests and by `specgen`'s frozen
//! generator test (which includes this file by path).

#![allow(dead_code)]

use rand::{RngCore, SeedableRng};

const BUF_WORDS: usize = 64; // four 16-word ChaCha blocks per refill

/// A ChaCha generator with 8 rounds.
#[derive(Debug, Clone)]
pub struct FrozenChaCha8 {
    key: [u32; 8],
    counter: u64,
    stream: u64,
    buf: [u32; BUF_WORDS],
    index: usize,
}

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

impl FrozenChaCha8 {
    fn block(&self, counter: u64, out: &mut [u32]) {
        let mut state = [
            0x6170_7865,
            0x3320_646e,
            0x7962_2d32,
            0x6b20_6574,
            self.key[0],
            self.key[1],
            self.key[2],
            self.key[3],
            self.key[4],
            self.key[5],
            self.key[6],
            self.key[7],
            counter as u32,
            (counter >> 32) as u32,
            self.stream as u32,
            (self.stream >> 32) as u32,
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

    fn refill(&mut self) {
        for b in 0..4 {
            let counter = self.counter.wrapping_add(b as u64);
            let (lo, hi) = (b * 16, b * 16 + 16);
            let mut words = [0u32; 16];
            self.block(counter, &mut words);
            self.buf[lo..hi].copy_from_slice(&words);
        }
        self.counter = self.counter.wrapping_add(4);
        self.index = 0;
    }
}

impl SeedableRng for FrozenChaCha8 {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        FrozenChaCha8 {
            key,
            counter: 0,
            stream: 0,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }
}

impl RngCore for FrozenChaCha8 {
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill();
        }
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

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

/// Counts the keystream words a generator hands out: one per `next_u32`,
/// two per `next_u64` (rand_core's `BlockRng` never skips or reuses a
/// word, even when a `u64` straddles a refill).
#[derive(Debug, Clone)]
pub struct WordCounter<R> {
    /// The counted generator.
    pub inner: R,
    /// Words handed out so far.
    pub words: u64,
}

impl<R> WordCounter<R> {
    /// Starts counting `inner` from zero.
    pub fn new(inner: R) -> Self {
        WordCounter { inner, words: 0 }
    }
}

impl<R: RngCore> RngCore for WordCounter<R> {
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.words += 2;
        self.inner.next_u64()
    }
}
