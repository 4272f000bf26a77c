//! Per-benchmark statistical profiles.
//!
//! Parameter values are first-principles estimates calibrated to published
//! SPECint2000 characterisations (instruction mixes, 64 KB-L1 miss ratios,
//! branch misprediction rates, IPC on 4-wide out-of-order cores) and to the
//! qualitative per-benchmark behaviour the paper reports (Table 3 best
//! decay intervals; which benchmarks favour gated-V_ss vs drowsy).

use serde::{Deserialize, Serialize};

/// The 11 SPECint2000 benchmarks of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Benchmark {
    /// 176.gcc — compiler; large code + data footprints, phase behaviour,
    /// lines die young (short best decay intervals).
    Gcc,
    /// 164.gzip — compression; sliding-window dictionary reused at long
    /// intervals (long best gated interval, short best drowsy interval).
    Gzip,
    /// 197.parser — dictionary parser; mixed reuse.
    Parser,
    /// 255.vortex — OO database; hot object pool, low miss rate.
    Vortex,
    /// 254.gap — group theory; medium reuse both techniques like alike.
    Gap,
    /// 253.perlbmk — interpreter; hot interpreter tables, low miss rate.
    Perl,
    /// 300.twolf — place & route; pointer-chasing over a medium footprint.
    Twolf,
    /// 256.bzip2 — compression; streaming with block-sorted reuse.
    Bzip2,
    /// 175.vpr — FPGA place & route; like twolf but lighter.
    Vpr,
    /// 181.mcf — network simplex; giant pointer-chase, dead lines, very low
    /// IPC (short best intervals for both techniques).
    Mcf,
    /// 186.crafty — chess; big hash tables reused at long intervals.
    Crafty,
}

impl Benchmark {
    /// All benchmarks in the paper's figure order.
    pub const ALL: [Benchmark; 11] = [
        Benchmark::Gcc,
        Benchmark::Gzip,
        Benchmark::Parser,
        Benchmark::Vortex,
        Benchmark::Gap,
        Benchmark::Perl,
        Benchmark::Twolf,
        Benchmark::Bzip2,
        Benchmark::Vpr,
        Benchmark::Mcf,
        Benchmark::Crafty,
    ];

    /// The benchmark's display name (lowercase, as in the paper's figures).
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Gcc => "gcc",
            Benchmark::Gzip => "gzip",
            Benchmark::Parser => "parser",
            Benchmark::Vortex => "vortex",
            Benchmark::Gap => "gap",
            Benchmark::Perl => "perl",
            Benchmark::Twolf => "twolf",
            Benchmark::Bzip2 => "bzip2",
            Benchmark::Vpr => "vpr",
            Benchmark::Mcf => "mcf",
            Benchmark::Crafty => "crafty",
        }
    }

    /// The statistical profile of this benchmark.
    pub fn profile(self) -> BenchmarkProfile {
        profile_for(self)
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Knobs of one benchmark's generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkProfile {
    /// Which benchmark this profiles.
    pub benchmark: Benchmark,

    // ---- instruction mix (fractions of all ops; remainder is IntAlu) ----
    /// Fraction of loads.
    pub load_frac: f64,
    /// Fraction of stores.
    pub store_frac: f64,
    /// Fraction of conditional branches.
    pub branch_frac: f64,
    /// Fraction of calls (matched by returns).
    pub call_frac: f64,
    /// Fraction of integer multiplies.
    pub mult_frac: f64,
    /// Fraction of integer divides.
    pub div_frac: f64,

    // ---- register dependences (ILP) ----
    /// Probability the first source reads a recent in-flight result.
    pub dep_p1: f64,
    /// Probability the second source reads a recent in-flight result.
    pub dep_p2: f64,
    /// Mean distance (in producing ops) of a dependent read; smaller means
    /// tighter chains and less ILP.
    pub dep_mean_dist: f64,

    // ---- branch behaviour ----
    /// Fraction of branch PCs behaving like loop back-edges.
    pub br_loop_frac: f64,
    /// Fraction of branch PCs following a global periodic pattern
    /// (learnable by the GAg component).
    pub br_pattern_frac: f64,
    /// Taken bias of loop branches (the rest of branch PCs are random with
    /// this probability of taken = 0.5).
    pub br_loop_bias: f64,

    // ---- memory regions (fractions of memory accesses; must sum ≤ 1,
    //      remainder goes to the hot pool) ----
    /// Stack accesses (a handful of lines, constantly hot).
    pub stack_frac: f64,
    /// Resident-set accesses: lines reused cyclically at medium/long
    /// intervals — the decay-interval-sensitive traffic.
    pub resident_frac: f64,
    /// Streaming accesses: sequential lines used `stream_burst` times then
    /// dead.
    pub stream_frac: f64,
    /// Pointer-chase accesses: uniform over `chase_lines` lines.
    pub chase_frac: f64,

    /// Stack footprint in cache lines.
    pub stack_lines: usize,
    /// Hot-pool footprint in cache lines.
    pub hot_lines: usize,
    /// Resident-set footprint in cache lines.
    pub resident_lines: usize,
    /// Accesses to each streaming line before it dies.
    pub stream_burst: u32,
    /// Pointer-chase footprint in cache lines.
    pub chase_lines: usize,
    /// Whether chase loads are serialised through a register (mcf-style
    /// address-dependent chains that destroy ILP).
    pub chase_dependent: bool,

    // ---- code footprint ----
    /// Number of distinct basic-block start addresses (controls I-cache
    /// pressure).
    pub code_blocks: usize,
}

impl BenchmarkProfile {
    /// Fraction of all ops that access memory.
    pub fn mem_frac(&self) -> f64 {
        self.load_frac + self.store_frac
    }

    /// Fraction of memory accesses hitting the hot pool (the remainder
    /// after the explicit regions).
    pub fn hot_frac(&self) -> f64 {
        (1.0 - self.stack_frac - self.resident_frac - self.stream_frac - self.chase_frac).max(0.0)
    }

    /// Approximate reuse interval of a resident-set line, in instructions:
    /// the line count divided by the per-instruction access rate into the
    /// region. This is the knob that positions each benchmark's best decay
    /// interval (Table 3).
    pub fn resident_reuse_insts(&self) -> f64 {
        let rate = self.resident_frac * self.mem_frac();
        if rate <= 0.0 {
            f64::INFINITY
        } else {
            self.resident_lines as f64 / rate
        }
    }

    /// Sanity-checks that all fractions are in range.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is outside `[0, 1]`, the mixes exceed 1, or
    /// the stack, hot-pool or code size or the stream burst is zero.
    pub fn assert_valid(&self) {
        let fracs = [
            self.load_frac,
            self.store_frac,
            self.branch_frac,
            self.call_frac,
            self.mult_frac,
            self.div_frac,
            self.dep_p1,
            self.dep_p2,
            self.br_loop_frac,
            self.br_pattern_frac,
            self.br_loop_bias,
            self.stack_frac,
            self.resident_frac,
            self.stream_frac,
            self.chase_frac,
        ];
        for f in fracs {
            assert!(
                (0.0..=1.0).contains(&f),
                "fraction {f} out of range in {}",
                self.benchmark
            );
        }
        let mix = self.load_frac
            + self.store_frac
            + self.branch_frac
            + self.call_frac * 2.0
            + self.mult_frac
            + self.div_frac;
        assert!(
            mix <= 1.0,
            "instruction mix exceeds 1.0 in {}",
            self.benchmark
        );
        let mem = self.stack_frac + self.resident_frac + self.stream_frac + self.chase_frac;
        assert!(mem <= 1.0, "memory mix exceeds 1.0 in {}", self.benchmark);
        assert!(self.stack_lines > 0 && self.hot_lines > 0 && self.code_blocks > 0);
        assert!(
            self.stream_burst > 0,
            "stream burst must be positive in {}",
            self.benchmark
        );
    }
}

/// The calibrated profile table.
fn profile_for(b: Benchmark) -> BenchmarkProfile {
    // A fully-populated default the entries below override; values are the
    // "generic SPECint" midpoint.
    let base = BenchmarkProfile {
        benchmark: b,
        load_frac: 0.24,
        store_frac: 0.11,
        branch_frac: 0.14,
        call_frac: 0.01,
        mult_frac: 0.01,
        div_frac: 0.001,
        dep_p1: 0.65,
        dep_p2: 0.30,
        dep_mean_dist: 6.0,
        br_loop_frac: 0.65,
        br_pattern_frac: 0.20,
        br_loop_bias: 0.94,
        stack_frac: 0.30,
        resident_frac: 0.15,
        stream_frac: 0.20,
        chase_frac: 0.05,
        stack_lines: 8,
        hot_lines: 48,
        resident_lines: 320,
        stream_burst: 8,
        chase_lines: 1 << 15,
        chase_dependent: false,
        code_blocks: 600,
    };
    match b {
        // Compiler: big code, lines die young (heavy streaming over IR),
        // mediocre branch prediction. Short best intervals.
        Benchmark::Gcc => BenchmarkProfile {
            load_frac: 0.26,
            store_frac: 0.13,
            branch_frac: 0.16,
            br_loop_frac: 0.62,
            br_pattern_frac: 0.23,
            stack_frac: 0.26,
            resident_frac: 0.10,
            stream_frac: 0.30,
            chase_frac: 0.02,
            resident_lines: 128,
            stream_burst: 16,
            chase_lines: 1 << 14,
            code_blocks: 2600,
            ..base
        },
        // Compression: sliding-window dictionary — a large resident set
        // reused at long intervals. Gated wants a long interval (64 k),
        // drowsy a short one.
        Benchmark::Gzip => BenchmarkProfile {
            load_frac: 0.22,
            store_frac: 0.09,
            branch_frac: 0.13,
            br_loop_frac: 0.70,
            stack_frac: 0.24,
            resident_frac: 0.06,
            stream_frac: 0.30,
            chase_frac: 0.0,
            resident_lines: 640,
            stream_burst: 12,
            code_blocks: 250,
            ..base
        },
        Benchmark::Parser => BenchmarkProfile {
            load_frac: 0.25,
            store_frac: 0.10,
            branch_frac: 0.15,
            br_loop_frac: 0.64,
            br_pattern_frac: 0.24,
            stack_frac: 0.30,
            resident_frac: 0.10,
            stream_frac: 0.18,
            chase_frac: 0.015,
            resident_lines: 288,
            stream_burst: 10,
            chase_lines: 1 << 13,
            code_blocks: 700,
            ..base
        },
        // OO database: hot object pool, very low miss rate, high ILP.
        Benchmark::Vortex => BenchmarkProfile {
            load_frac: 0.27,
            store_frac: 0.14,
            branch_frac: 0.13,
            call_frac: 0.02,
            dep_p1: 0.55,
            dep_mean_dist: 8.0,
            br_loop_bias: 0.96,
            stack_frac: 0.32,
            resident_frac: 0.10,
            stream_frac: 0.10,
            chase_frac: 0.005,
            hot_lines: 96,
            resident_lines: 224,
            stream_burst: 10,
            code_blocks: 1200,
            ..base
        },
        // Group theory: medium everything; both techniques pick 16 k.
        Benchmark::Gap => BenchmarkProfile {
            load_frac: 0.24,
            store_frac: 0.10,
            branch_frac: 0.12,
            stack_frac: 0.28,
            resident_frac: 0.055,
            stream_frac: 0.18,
            chase_frac: 0.005,
            resident_lines: 448,
            stream_burst: 16,
            code_blocks: 500,
            ..base
        },
        // Interpreter: hot dispatch tables, tiny data misses, good ILP.
        Benchmark::Perl => BenchmarkProfile {
            load_frac: 0.26,
            store_frac: 0.13,
            branch_frac: 0.15,
            call_frac: 0.02,
            dep_p1: 0.60,
            br_loop_bias: 0.95,
            stack_frac: 0.34,
            resident_frac: 0.09,
            stream_frac: 0.08,
            chase_frac: 0.003,
            stream_burst: 10,
            hot_lines: 80,
            resident_lines: 160,
            code_blocks: 900,
            ..base
        },
        // Place & route: pointer-chasing over a medium footprint, poor
        // prediction, low-ish IPC.
        Benchmark::Twolf => BenchmarkProfile {
            load_frac: 0.25,
            store_frac: 0.09,
            branch_frac: 0.15,
            br_loop_frac: 0.55,
            br_pattern_frac: 0.22,
            dep_p1: 0.70,
            dep_mean_dist: 4.0,
            stack_frac: 0.26,
            resident_frac: 0.12,
            stream_frac: 0.08,
            chase_frac: 0.12,
            resident_lines: 192,
            chase_lines: 2 << 10, // ~2 K lines: partially cacheable
            code_blocks: 450,
            ..base
        },
        // Compression: streaming plus block-local reuse.
        Benchmark::Bzip2 => BenchmarkProfile {
            load_frac: 0.23,
            store_frac: 0.10,
            branch_frac: 0.13,
            br_loop_frac: 0.68,
            stack_frac: 0.22,
            resident_frac: 0.07,
            stream_frac: 0.34,
            chase_frac: 0.01,
            resident_lines: 384,
            stream_burst: 16,
            chase_lines: 1 << 13,
            code_blocks: 220,
            ..base
        },
        // Like twolf but lighter chase and better prediction.
        Benchmark::Vpr => BenchmarkProfile {
            load_frac: 0.26,
            store_frac: 0.10,
            branch_frac: 0.14,
            br_loop_frac: 0.60,
            br_pattern_frac: 0.24,
            dep_p1: 0.68,
            dep_mean_dist: 4.5,
            stack_frac: 0.26,
            resident_frac: 0.11,
            stream_frac: 0.10,
            chase_frac: 0.07,
            stream_burst: 16,
            resident_lines: 256,
            chase_lines: 2 << 10,
            code_blocks: 400,
            ..base
        },
        // Network simplex: giant serialised pointer-chase; lines are dead
        // on arrival, IPC is dismal, decay can be aggressive (1 k / 2 k).
        Benchmark::Mcf => BenchmarkProfile {
            load_frac: 0.30,
            store_frac: 0.09,
            branch_frac: 0.12,
            dep_p1: 0.75,
            dep_mean_dist: 3.0,
            br_loop_frac: 0.62,
            br_pattern_frac: 0.26,
            stack_frac: 0.22,
            resident_frac: 0.04,
            stream_frac: 0.12,
            chase_frac: 0.22,
            stream_burst: 12,
            resident_lines: 96,
            chase_lines: 1 << 17, // 128 K lines: 8 MB, blows both caches
            chase_dependent: true,
            code_blocks: 150,
            ..base
        },
        // Chess: big transposition tables reused at long intervals; very
        // good prediction, high ILP, low miss rate. Gated wants 32 k.
        Benchmark::Crafty => BenchmarkProfile {
            load_frac: 0.27,
            store_frac: 0.08,
            branch_frac: 0.13,
            dep_p1: 0.55,
            dep_mean_dist: 8.0,
            br_loop_bias: 0.96,
            br_pattern_frac: 0.25,
            stack_frac: 0.30,
            resident_frac: 0.05,
            stream_frac: 0.06,
            chase_frac: 0.02,
            stream_burst: 10,
            hot_lines: 64,
            resident_lines: 512,
            chase_lines: 1 << 12,
            code_blocks: 800,
            ..base
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_valid() {
        for b in Benchmark::ALL {
            b.profile().assert_valid();
        }
    }

    #[test]
    fn names_match_paper_figures() {
        let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            [
                "gcc", "gzip", "parser", "vortex", "gap", "perl", "twolf", "bzip2", "vpr", "mcf",
                "crafty"
            ]
        );
    }

    #[test]
    fn reuse_interval_ordering_matches_table3() {
        // Table 3: gcc and mcf pick the shortest gated intervals, gzip and
        // crafty the longest — resident reuse intervals must order the same
        // way.
        let reuse = |b: Benchmark| b.profile().resident_reuse_insts();
        assert!(reuse(Benchmark::Gcc) < reuse(Benchmark::Gzip));
        assert!(reuse(Benchmark::Mcf) < reuse(Benchmark::Crafty));
        assert!(reuse(Benchmark::Gcc) < reuse(Benchmark::Crafty));
    }

    #[test]
    fn mcf_is_the_pathological_one() {
        let mcf = Benchmark::Mcf.profile();
        assert!(mcf.chase_dependent);
        assert!(mcf.chase_frac > 0.15, "mcf stays chase-dominated");
        for b in Benchmark::ALL {
            if b != Benchmark::Mcf {
                assert!(b.profile().chase_lines < mcf.chase_lines);
            }
        }
    }

    #[test]
    fn display_is_lowercase() {
        assert_eq!(Benchmark::Gcc.to_string(), "gcc");
    }
}
