//! Oracle tests: the shipping `ChaCha8Rng` against the frozen scalar
//! generator it replaced (`frozen/mod.rs`), word for word.

mod frozen;

use frozen::{FrozenChaCha8, WordCounter};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One draw of the kinds the workload generators make.
#[derive(Debug, Clone, Copy)]
enum Draw {
    U8,
    U32,
    U64,
    F64,
    Bool(f64),
}

fn arb_draw() -> impl Strategy<Value = Draw> {
    prop_oneof![
        Just(Draw::U8),
        Just(Draw::U32),
        Just(Draw::U64),
        Just(Draw::F64),
        (0.0f64..1.0).prop_map(Draw::Bool),
        proptest::sample::select(vec![0.0, 1.0]).prop_map(Draw::Bool),
    ]
}

/// The draw's value as raw bits, so floats compare exactly.
fn take(rng: &mut impl RngCore, draw: Draw) -> u64 {
    match draw {
        Draw::U8 => u64::from(rng.gen::<u8>()),
        Draw::U32 => u64::from(rng.gen::<u32>()),
        Draw::U64 => rng.gen::<u64>(),
        Draw::F64 => rng.gen::<f64>().to_bits(),
        Draw::Bool(p) => u64::from(rng.gen_bool(p)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whole refills, every word of all four blocks, from arbitrary keys
    /// and block counters.
    #[test]
    fn refill_matches_frozen_scalar_refill(seed in 0u64..u64::MAX, skip in 0usize..64, refills in 1usize..6) {
        let mut live = ChaCha8Rng::seed_from_u64(seed);
        let mut frozen = FrozenChaCha8::seed_from_u64(seed);
        // Skipped refills move the block counter off zero.
        for _ in 0..skip * 64 {
            live.next_u32();
            frozen.next_u32();
        }
        for refill in 0..refills {
            for word in 0..64 {
                let (l, f) = (live.next_u32(), frozen.next_u32());
                prop_assert_eq!(l, f, "seed {} refill {} block {} word {}", seed, skip + refill, word / 16, word % 16);
            }
        }
    }

    /// Random mixes of u8, u32, u64, f64 and `gen_bool` draws crossing
    /// the 64-word buffer boundary many times, including `u64` reads that
    /// straddle it; the word position matches the words handed out.
    #[test]
    fn mixed_draws_match_frozen_generator(seed in 0u64..u64::MAX, draws in proptest::collection::vec(arb_draw(), 100..600)) {
        let mut live = ChaCha8Rng::seed_from_u64(seed);
        let mut frozen = WordCounter::new(FrozenChaCha8::seed_from_u64(seed));
        for (i, &draw) in draws.iter().enumerate() {
            let (l, f) = (take(&mut live, draw), take(&mut frozen, draw));
            prop_assert_eq!(l, f, "seed {} draw {} ({:?})", seed, i, draw);
            prop_assert_eq!(live.get_word_pos(), u128::from(frozen.words));
        }
    }
}
