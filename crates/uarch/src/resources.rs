//! Structural resources: per-cycle slot budgets and functional-unit
//! calendars.
//!
//! The one-pass timing model needs to answer "when is the next cycle ≥ t
//! with a free X?" for fetch/dispatch/issue/commit slots and for each
//! functional-unit pool. [`SlotCalendar`] answers it for width-limited
//! per-cycle budgets with a rolling window (issue times in an out-of-order
//! schedule are nearly monotone, so a small ring suffices);
//! [`UnitPool`] answers it for FU pools by tracking each unit's next-free
//! cycle.

use serde::{Deserialize, Serialize};

use crate::insn::OpClass;

/// Tracks how many of `width` per-cycle slots are used in a rolling window
/// of recent cycles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlotCalendar {
    width: u8,
    /// used[i] = slots consumed in cycle `base + i` (ring indexed by cycle).
    used: Vec<u8>,
    base: u64,
    /// Full cycles [`SlotCalendar::book`] has stepped over (a
    /// deterministic work counter).
    probe_steps: u64,
}

/// Ring capacity: cycles older than this are folded away. 8 K cycles is far
/// beyond any realistic issue-time spread inside an 80-entry window.
const RING: usize = 8192;

impl SlotCalendar {
    /// A calendar allowing `width` events per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: u8) -> Self {
        assert!(width > 0, "slot width must be positive");
        SlotCalendar {
            width,
            used: vec![0; RING],
            base: 0,
            probe_steps: 0,
        }
    }

    fn slide_to(&mut self, cycle: u64) {
        if cycle < self.base + RING as u64 {
            return;
        }
        let new_base = cycle + 1 - RING as u64;
        if new_base >= self.base + RING as u64 {
            // Everything is stale.
            self.used.iter_mut().for_each(|u| *u = 0);
        } else {
            for c in self.base..new_base {
                let idx = (c % RING as u64) as usize;
                self.used[idx] = 0;
            }
        }
        self.base = new_base;
    }

    /// Books one slot at the earliest cycle ≥ `earliest`, returning it.
    pub fn book(&mut self, earliest: u64) -> u64 {
        let mut cycle = earliest.max(self.base);
        loop {
            self.slide_to(cycle);
            let idx = (cycle % RING as u64) as usize;
            if self.used[idx] < self.width {
                self.used[idx] += 1;
                return cycle;
            }
            self.probe_steps += 1;
            cycle += 1;
        }
    }

    /// Full cycles skipped by all bookings so far: the linear scan's work
    /// beyond one probe per booking.
    pub fn probe_steps(&self) -> u64 {
        self.probe_steps
    }
}

/// A pool of identical functional units.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UnitPool {
    next_free: Vec<u64>,
}

impl UnitPool {
    /// A pool of `n` units, all free at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "unit pool must have at least one unit");
        UnitPool {
            next_free: vec![0; n],
        }
    }

    /// Books the earliest-available unit at or after `earliest` for
    /// `occupy` cycles; returns the start cycle.
    pub fn book(&mut self, earliest: u64, occupy: u64) -> u64 {
        let (idx, &free_at) = self
            .next_free
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            // lint: allow(unwrap): the pool is sized > 0 at construction
            .expect("pool is non-empty");
        let start = earliest.max(free_at);
        self.next_free[idx] = start + occupy.max(1);
        start
    }
}

/// The Table 2 functional-unit complement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FuComplement {
    int_alu: UnitPool,
    int_mult: UnitPool,
    fp_alu: UnitPool,
    fp_mult: UnitPool,
    mem_port: UnitPool,
}

impl FuComplement {
    /// 4 IntALU, 1 IntMult/Div, 2 FPALU, 1 FPMult/Div, 2 memory ports.
    pub fn table2() -> Self {
        FuComplement {
            int_alu: UnitPool::new(4),
            int_mult: UnitPool::new(1),
            fp_alu: UnitPool::new(2),
            fp_mult: UnitPool::new(1),
            mem_port: UnitPool::new(2),
        }
    }

    /// Books a unit for `class` at or after `earliest`; returns the cycle
    /// execution starts. Pipelined units are occupied one cycle; dividers
    /// hold their unit for the full latency.
    pub fn book(&mut self, class: OpClass, earliest: u64) -> u64 {
        let occupy = if class.unpipelined() {
            class.latency() as u64
        } else {
            1
        };
        match class {
            OpClass::IntAlu | OpClass::Branch | OpClass::Call | OpClass::Return => {
                self.int_alu.book(earliest, 1)
            }
            OpClass::IntMult | OpClass::IntDiv => self.int_mult.book(earliest, occupy),
            OpClass::FpAlu => self.fp_alu.book(earliest, 1),
            OpClass::FpMult | OpClass::FpDiv => self.fp_mult.book(earliest, occupy),
            OpClass::Load | OpClass::Store => self.mem_port.book(earliest, 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calendar_respects_width() {
        let mut cal = SlotCalendar::new(2);
        assert_eq!(cal.book(10), 10);
        assert_eq!(cal.book(10), 10);
        assert_eq!(cal.book(10), 11, "third booking in a 2-wide cycle spills");
        assert_eq!(cal.probe_steps(), 1, "the spill skips one full cycle");
    }

    #[test]
    fn calendar_slides_forward() {
        let mut cal = SlotCalendar::new(1);
        assert_eq!(cal.book(5), 5);
        assert_eq!(cal.book(5 + 2 * RING as u64), 5 + 2 * RING as u64);
        assert_eq!(cal.book(5 + 2 * RING as u64), 6 + 2 * RING as u64);
    }

    #[test]
    fn pool_serialises_contention() {
        let mut pool = UnitPool::new(1);
        assert_eq!(pool.book(0, 1), 0);
        assert_eq!(pool.book(0, 1), 1);
        assert_eq!(pool.book(0, 1), 2);
    }

    #[test]
    fn pool_parallelism() {
        let mut pool = UnitPool::new(2);
        assert_eq!(pool.book(0, 1), 0);
        assert_eq!(pool.book(0, 1), 0);
        assert_eq!(pool.book(0, 1), 1);
    }

    #[test]
    fn divider_blocks_multiplier_pool() {
        let mut fu = FuComplement::table2();
        let start = fu.book(OpClass::IntDiv, 0);
        assert_eq!(start, 0);
        let next = fu.book(OpClass::IntMult, 0);
        assert_eq!(next, 20, "unpipelined divide occupies the shared unit");
    }

    #[test]
    fn four_alus_issue_in_parallel() {
        let mut fu = FuComplement::table2();
        for _ in 0..4 {
            assert_eq!(fu.book(OpClass::IntAlu, 7), 7);
        }
        assert_eq!(fu.book(OpClass::IntAlu, 7), 8);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_unit_pool_panics() {
        UnitPool::new(0);
    }
}
