//! The trace generator driven by a [`BenchmarkProfile`].

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use uarch::insn::{MicroOp, OpClass};
use uarch::trace::TraceSource;

use crate::profile::{Benchmark, BenchmarkProfile};

/// Cache-line size assumed by the address streams, bytes.
pub const LINE: u64 = 64;

// Region base addresses (kept far apart so regions never alias).
const STACK_BASE: u64 = 0x7F00_0000;
const HOT_BASE: u64 = 0x1000_0000;
const RESIDENT_BASE: u64 = 0x2000_0000;
const STREAM_BASE: u64 = 0x3000_0000;
const CHASE_BASE: u64 = 0x4000_0000;
const CODE_BASE: u64 = 0x0040_0000;
const FUNC_BASE: u64 = 0x0080_0000;

/// An endless, deterministic instruction stream for one benchmark.
///
/// `SpecTrace` implements [`TraceSource`]; feed it to
/// [`uarch::Core::run`] with the desired instruction budget.
#[derive(Debug, Clone)]
pub struct SpecTrace {
    profile: BenchmarkProfile,
    rng: ChaCha8Rng,
    pc: u64,
    /// Destination registers of recent producers (ring, newest last).
    recent_dests: Vec<u8>,
    next_dest: u8,
    resident_cursor: usize,
    stream_line: u64,
    stream_left: u32,
    /// Return-address stack mirror (the generator emits matching returns).
    call_stack: Vec<u64>,
    /// Outcome of the most recent conditional branch (pattern branches
    /// copy it, which a global-history predictor learns exactly).
    last_taken: bool,
    /// Dest register of the last chase load (serialisation for mcf).
    chase_dest: Option<u8>,
    ops_emitted: u64,
}

impl SpecTrace {
    /// A generator for `benchmark` seeded with `seed`.
    pub fn new(benchmark: Benchmark, seed: u64) -> Self {
        Self::with_profile(benchmark.profile(), seed)
    }

    /// A generator for an explicit (possibly customised) profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`BenchmarkProfile::assert_valid`].
    pub fn with_profile(profile: BenchmarkProfile, seed: u64) -> Self {
        profile.assert_valid();
        SpecTrace {
            profile,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
            pc: CODE_BASE,
            recent_dests: Vec::with_capacity(32),
            next_dest: 1,
            resident_cursor: 0,
            stream_line: 0,
            stream_left: 0,
            call_stack: Vec::with_capacity(32),
            last_taken: false,
            chase_dest: None,
            ops_emitted: 0,
        }
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    /// Instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.ops_emitted
    }

    /// Keystream words drawn so far: a deterministic work counter that
    /// moves only if a draw is added, dropped or changes width.
    pub fn keystream_words(&self) -> u64 {
        // A stream never draws 2^64 words.
        self.rng.get_word_pos() as u64
    }

    fn pick_dest(&mut self) -> u8 {
        // Rotate through integer registers 1..=24, leaving a few registers
        // as perennially-ready sources.
        let d = self.next_dest;
        self.next_dest = if self.next_dest >= 24 {
            1
        } else {
            self.next_dest + 1
        };
        if self.recent_dests.len() == 32 {
            self.recent_dests.remove(0);
        }
        self.recent_dests.push(d);
        d
    }

    fn pick_src(&mut self, prob: f64) -> Option<u8> {
        if self.recent_dests.is_empty() || !self.rng.gen_bool(prob) {
            // An old, long-ready register.
            return Some(25 + (self.rng.gen::<u8>() % 6));
        }
        // Geometric-ish distance into the recent producers.
        let mean = self.profile.dep_mean_dist.max(1.0);
        let p = 1.0 / mean;
        let mut dist = 0usize;
        while dist + 1 < self.recent_dests.len() && !self.rng.gen_bool(p) {
            dist += 1;
        }
        let idx = self.recent_dests.len() - 1 - dist;
        Some(self.recent_dests[idx])
    }

    /// Picks the effective address of a memory access (and whether it is a
    /// serialised chase access).
    fn pick_addr(&mut self) -> (u64, bool) {
        let p = &self.profile;
        let r: f64 = self.rng.gen();
        let offset = (self.rng.gen::<u64>() % (LINE / 8)) * 8;
        if r < p.stack_frac {
            let line = self.rng.gen::<u64>() % p.stack_lines as u64;
            (STACK_BASE + line * LINE + offset, false)
        } else if r < p.stack_frac + p.resident_frac {
            // Cyclic sweep: every resident line is reused once per full
            // rotation, giving a well-defined reuse interval.
            let line = self.resident_cursor as u64;
            self.resident_cursor = (self.resident_cursor + 1) % p.resident_lines.max(1);
            (RESIDENT_BASE + line * LINE + offset, false)
        } else if r < p.stack_frac + p.resident_frac + p.stream_frac {
            if self.stream_left == 0 {
                self.stream_line += 1;
                self.stream_left = p.stream_burst;
            }
            self.stream_left -= 1;
            // Wrap the stream region at 1 GB to keep addresses bounded (the
            // wrap period is weeks of simulated time; lines are still dead).
            let line = self.stream_line % (1 << 24);
            (STREAM_BASE + line * LINE + offset, false)
        } else if r < p.stack_frac + p.resident_frac + p.stream_frac + p.chase_frac {
            let line = self.rng.gen::<u64>() % p.chase_lines.max(1) as u64;
            (CHASE_BASE + line * LINE + offset, p.chase_dependent)
        } else {
            // Hot pool with a skewed (front-loaded) distribution.
            let n = p.hot_lines as u64;
            let a = self.rng.gen::<u64>() % n;
            let b = self.rng.gen::<u64>() % n;
            (HOT_BASE + a.min(b) * LINE + offset, false)
        }
    }

    fn emit_branch(&mut self) -> MicroOp {
        let p = &self.profile;
        let pc = self.pc;
        // Branch behaviour class is a stable function of the PC so the
        // predictor tables can learn each branch.
        let h = pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        let class_sel = (h % 1000) as f64 / 1000.0;
        let taken = if class_sel < p.br_loop_frac {
            self.rng.gen_bool(p.br_loop_bias)
        } else if class_sel < p.br_loop_frac + p.br_pattern_frac {
            // History-correlated branch: repeats the previous branch's
            // outcome. The GAg component sees the outcome as a pure
            // function of its history index and learns it exactly — the
            // behaviour hybrid predictors exist to capture.
            self.last_taken
        } else {
            self.rng.gen_bool(0.5)
        };
        // Stable per-PC target keeps the BTB effective. Block popularity is
        // two-tier: 90 % of jump sites target one of a few dozen hot blocks
        // (real programs spend most dynamic branches in a few hot loops —
        // that concentration is what lets 4 K predictor tables and a 1 K
        // BTB work at all); the rest scatter over the full code footprint.
        let n = self.profile.code_blocks as u64;
        let hot_set = n.min(24);
        let h2 = pc.wrapping_mul(0xA24B_AED4_963E_E407) >> 17;
        let block = if h % 10 < 9 { h2 % hot_set } else { h2 % n };
        // Entry offsets vary per branch site so the visited-PC population
        // samples the whole hash space (keeps the realised instruction mix
        // on target) while targets stay stable per PC for the BTB.
        let entry = ((h2 >> 11) % 32) * 4;
        let target = CODE_BASE + block * 256 + entry;
        let op = MicroOp::branch(pc, taken, target);
        self.last_taken = taken;
        self.pc = if taken { target } else { pc + 4 };
        op
    }

    fn emit_call(&mut self) -> MicroOp {
        let pc = self.pc;
        let h = pc.wrapping_mul(0xD134_2543_DE82_EF95) >> 40;
        let target = FUNC_BASE + (h % 256) * 512;
        self.call_stack.push(pc + 4);
        let op = MicroOp {
            pc,
            class: OpClass::Call,
            dest: None,
            src1: None,
            src2: None,
            mem_addr: 0,
            taken: true,
            target,
        };
        self.pc = target;
        op
    }

    fn emit_return(&mut self) -> MicroOp {
        let pc = self.pc;
        let target = self.call_stack.pop().unwrap_or(CODE_BASE);
        let op = MicroOp {
            pc,
            class: OpClass::Return,
            dest: None,
            src1: None,
            src2: None,
            mem_addr: 0,
            taken: true,
            target,
        };
        self.pc = target;
        op
    }
}

/// Maps a PC to a uniform value in `[0, 1)` — the "static code" hash: the
/// instruction class at a given address never changes, so branch sites,
/// load sites, etc. recur at stable PCs and the predictor tables, BTB and
/// caches see realistic locality.
fn pc_hash01(pc: u64) -> f64 {
    let h = (pc >> 2).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    let h = (h ^ (h >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    ((h ^ (h >> 33)) >> 11) as f64 / (1u64 << 53) as f64
}

impl TraceSource for SpecTrace {
    fn next_op(&mut self) -> Option<MicroOp> {
        self.ops_emitted += 1;
        let p = self.profile;
        let pc = self.pc;
        // The class of the instruction *at this address* is fixed (static
        // code); only outcomes, operands and data addresses are dynamic.
        let r = pc_hash01(pc);

        // Pending returns fire with probability growing in call depth,
        // keeping calls and returns balanced without lookahead.
        if !self.call_stack.is_empty() {
            let p_ret = (p.call_frac * self.call_stack.len() as f64).min(1.0);
            if self.rng.gen_bool(p_ret) {
                return Some(self.emit_return());
            }
        }

        let op = if r < p.load_frac {
            let (addr, serialised) = self.pick_addr();
            let dest = self.pick_dest();
            let src1 = if serialised {
                self.chase_dest
            } else {
                self.pick_src(p.dep_p1 * 0.5)
            };
            if serialised {
                self.chase_dest = Some(dest);
            }
            self.pc += 4;
            MicroOp {
                src1,
                ..MicroOp::load(pc, dest, addr)
            }
        } else if r < p.load_frac + p.store_frac {
            let (addr, _) = self.pick_addr();
            let src = self.pick_src(p.dep_p1).unwrap_or(1);
            self.pc += 4;
            MicroOp::store(pc, src, addr)
        } else if r < p.load_frac + p.store_frac + p.branch_frac {
            self.emit_branch()
        } else if r < p.load_frac + p.store_frac + p.branch_frac + p.call_frac {
            self.emit_call()
        } else {
            let class = {
                let q: f64 = self.rng.gen();
                if q < p.div_frac {
                    OpClass::IntDiv
                } else if q < p.div_frac + p.mult_frac {
                    OpClass::IntMult
                } else {
                    OpClass::IntAlu
                }
            };
            let dest = self.pick_dest();
            let src1 = self.pick_src(p.dep_p1);
            let src2 = if self.rng.gen_bool(p.dep_p2) {
                self.pick_src(0.9)
            } else {
                None
            };
            self.pc += 4;
            MicroOp {
                pc,
                class,
                dest: Some(dest),
                src1,
                src2,
                mem_addr: 0,
                taken: false,
                target: 0,
            }
        };
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn collect(b: Benchmark, seed: u64, n: usize) -> Vec<MicroOp> {
        let mut t = SpecTrace::new(b, seed);
        (0..n).map(|_| t.next_op().expect("endless")).collect()
    }

    #[test]
    fn deterministic_per_seed() {
        let a = collect(Benchmark::Gcc, 7, 5000);
        let b = collect(Benchmark::Gcc, 7, 5000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = collect(Benchmark::Gcc, 7, 500);
        let b = collect(Benchmark::Gcc, 8, 500);
        assert_ne!(a, b);
    }

    #[test]
    fn instruction_mix_tracks_profile() {
        for b in [Benchmark::Gcc, Benchmark::Mcf, Benchmark::Perl] {
            let p = b.profile();
            let ops = collect(b, 1, 60_000);
            let loads = ops.iter().filter(|o| o.class == OpClass::Load).count() as f64;
            let stores = ops.iter().filter(|o| o.class == OpClass::Store).count() as f64;
            let branches = ops.iter().filter(|o| o.class == OpClass::Branch).count() as f64;
            let n = ops.len() as f64;
            // Hot-block popularity skew means the visited-PC population is
            // a weighted sample of the class hash, so realised fractions
            // track the profile within a few points, not exactly.
            assert!(
                (loads / n - p.load_frac).abs() < 0.06,
                "{b}: load frac {}",
                loads / n
            );
            assert!(
                (stores / n - p.store_frac).abs() < 0.06,
                "{b}: store frac {}",
                stores / n
            );
            // Dynamic branch frequency is emergent (run lengths end at
            // taken branches, weighting hot entry PCs), so allow more slack.
            assert!(
                (branches / n - p.branch_frac).abs() < 0.09,
                "{b}: branch frac {}",
                branches / n
            );
        }
    }

    #[test]
    fn memory_footprints_differ_by_benchmark() {
        let lines = |b: Benchmark| -> usize {
            collect(b, 3, 80_000)
                .iter()
                .filter(|o| o.class.is_mem())
                .map(|o| o.mem_addr / LINE)
                .collect::<HashSet<_>>()
                .len()
        };
        let mcf = lines(Benchmark::Mcf);
        let perl = lines(Benchmark::Perl);
        assert!(
            mcf > 4 * perl,
            "mcf ({mcf} lines) must dwarf perl ({perl} lines) in footprint"
        );
    }

    #[test]
    fn calls_and_returns_balance() {
        let ops = collect(Benchmark::Vortex, 9, 100_000);
        let calls = ops.iter().filter(|o| o.class == OpClass::Call).count() as i64;
        let rets = ops.iter().filter(|o| o.class == OpClass::Return).count() as i64;
        assert!(
            (calls - rets).abs() < calls / 2 + 20,
            "calls {calls} vs returns {rets}"
        );
    }

    #[test]
    fn branch_targets_stable_per_pc() {
        let ops = collect(Benchmark::Gzip, 11, 200_000);
        let mut targets: std::collections::HashMap<u64, u64> = Default::default();
        for o in ops.iter().filter(|o| o.class == OpClass::Branch && o.taken) {
            if let Some(&t) = targets.get(&o.pc) {
                assert_eq!(
                    t, o.target,
                    "pc {:x} must always branch to the same target",
                    o.pc
                );
            } else {
                targets.insert(o.pc, o.target);
            }
        }
        assert!(targets.len() > 10, "should see many distinct branch sites");
    }

    #[test]
    fn resident_region_reuses_cyclically() {
        // Consecutive resident accesses walk the pool; the same line must
        // reappear after one full rotation.
        let p = Benchmark::Gzip.profile();
        let ops = collect(Benchmark::Gzip, 13, 400_000);
        let resident: Vec<u64> = ops
            .iter()
            .filter(|o| o.class.is_mem() && (RESIDENT_BASE..STREAM_BASE).contains(&o.mem_addr))
            .map(|o| (o.mem_addr - RESIDENT_BASE) / LINE)
            .collect();
        assert!(
            resident.len() > 2 * p.resident_lines,
            "need at least two rotations"
        );
        // The first pool-size accesses cover distinct lines.
        let first: HashSet<u64> = resident[..p.resident_lines].iter().copied().collect();
        assert_eq!(
            first.len(),
            p.resident_lines,
            "one rotation touches every line once"
        );
    }

    #[test]
    fn streams_never_revisit_lines() {
        let ops = collect(Benchmark::Bzip2, 17, 100_000);
        let stream: Vec<u64> = ops
            .iter()
            .filter(|o| o.class.is_mem() && (STREAM_BASE..CHASE_BASE).contains(&o.mem_addr))
            .map(|o| (o.mem_addr - STREAM_BASE) / LINE)
            .collect();
        // Monotone non-decreasing line numbers: once a line is passed it is
        // dead.
        for w in stream.windows(2) {
            assert!(w[1] >= w[0], "stream must advance monotonically");
        }
    }

    #[test]
    fn mcf_chase_loads_are_serialised() {
        let ops = collect(Benchmark::Mcf, 19, 50_000);
        let mut prev_dest: Option<u8> = None;
        let mut serial = 0;
        let mut total = 0;
        for o in ops
            .iter()
            .filter(|o| o.class == OpClass::Load && (CHASE_BASE..STACK_BASE).contains(&o.mem_addr))
        {
            total += 1;
            if let (Some(pd), Some(s1)) = (prev_dest, o.src1) {
                if s1 == pd {
                    serial += 1;
                }
            }
            prev_dest = o.dest;
        }
        assert!(total > 1000, "mcf must chase a lot, got {total}");
        assert!(
            serial as f64 / total as f64 > 0.8,
            "chase loads must chain through registers: {serial}/{total}"
        );
    }

    #[test]
    fn invalid_profile_rejected() {
        let mut p = Benchmark::Gcc.profile();
        p.load_frac = 1.5;
        let result = std::panic::catch_unwind(|| SpecTrace::with_profile(p, 0));
        assert!(result.is_err());
    }

    #[test]
    fn zero_stream_burst_rejected() {
        // A zero burst would underflow the stream's remaining-use count.
        let mut p = Benchmark::Bzip2.profile();
        p.stream_burst = 0;
        let result = std::panic::catch_unwind(|| SpecTrace::with_profile(p, 0));
        assert!(result.is_err());
    }

    /// Keystream words drawn by fixed streams, recorded before the
    /// ChaCha8 refill was vectorised: a draw added, dropped or widened
    /// anywhere in the generator moves these counts on every host.
    #[test]
    fn keystream_words_are_pinned() {
        let pins = [
            (Benchmark::Gcc, 12_345, 50_000, 664_353),
            (Benchmark::Gzip, 7, 20_000, 312_473),
            (Benchmark::Mcf, 1, 30_000, 360_287),
            (Benchmark::Crafty, 99, 10_000, 170_092),
        ];
        for (b, seed, n, words) in pins {
            let mut t = SpecTrace::new(b, seed);
            for _ in 0..n {
                t.next_op();
            }
            assert_eq!(t.keystream_words(), words, "{b} seed {seed} at {n} ops");
        }
    }
}
