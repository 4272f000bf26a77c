//! Structural resources: per-cycle slot budgets and functional-unit
//! calendars.
//!
//! The one-pass timing model needs to answer "when is the next cycle ≥ t
//! with a free X?" for fetch/dispatch/issue/commit slots and for each
//! functional-unit pool. [`InOrderSlots`] answers it in O(1) for fetch
//! and commit, whose requests never go backwards; [`SlotCalendar`]
//! answers it for dispatch and issue, whose requests can, with a rolling
//! window (issue times in an out-of-order schedule are nearly monotone,
//! so a small ring suffices); [`UnitPool`] answers it for FU pools by
//! tracking each unit's next-free cycle.

use crate::insn::OpClass;

/// Window of a [`SlotCalendar`]: cycles older than this are folded away.
/// 8 K cycles is far beyond any realistic issue-time spread inside an
/// 80-entry window.
const WINDOW: usize = 8192;
/// The calendar's storage: two windows, so cycles that leave the window
/// are cleared a window at a time. A power of two, so a cycle's slot is
/// a mask.
const SLOTS: usize = 2 * WINDOW;
const SLOT_MASK: u64 = SLOTS as u64 - 1;

/// Tracks how many of `width` per-cycle slots are used in a rolling window
/// of recent cycles.
#[derive(Debug, Clone)]
pub struct SlotCalendar {
    width: u8,
    /// used[c & SLOT_MASK] = slots consumed in cycle `c`, for `c` in
    /// `fresh_end - SLOTS..fresh_end`.
    used: Box<[u8; SLOTS]>,
    /// The latest cycle booked. The window is the `WINDOW` cycles ending
    /// here.
    top: u64,
    /// Cycles from here on are cleared before their first use.
    fresh_end: u64,
    /// Full cycles [`SlotCalendar::book`] has stepped over (a
    /// deterministic work counter).
    probe_steps: u64,
    /// Requests older than the window, moved up to its start (a
    /// deterministic counter of timing the window may have changed).
    window_clamps: u64,
}

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
            used: Box::new([0; SLOTS]),
            top: 0,
            fresh_end: SLOTS as u64,
            probe_steps: 0,
            window_clamps: 0,
        }
    }

    /// Books one slot at the earliest cycle ≥ `earliest`, returning it.
    /// A request older than the window books from the window's start
    /// instead (counted by [`SlotCalendar::window_clamps`]).
    #[inline]
    pub fn book(&mut self, earliest: u64) -> u64 {
        let base = (self.top + 1).saturating_sub(WINDOW as u64);
        let mut cycle = earliest;
        if cycle < base {
            self.window_clamps += 1;
            cycle = base;
        }
        loop {
            if cycle >= self.fresh_end {
                self.clear_ahead(cycle);
            }
            let used = &mut self.used[(cycle & SLOT_MASK) as usize];
            if *used < self.width {
                *used += 1;
                self.top = self.top.max(cycle);
                return cycle;
            }
            self.probe_steps += 1;
            cycle += 1;
        }
    }

    /// Clears the storage of cycles `fresh_end..cycle + WINDOW`, which
    /// last held cycles that left the window long ago.
    #[cold]
    #[inline(never)]
    fn clear_ahead(&mut self, cycle: u64) {
        let end = cycle + WINDOW as u64;
        if end - self.fresh_end >= SLOTS as u64 {
            self.used.fill(0);
        } else {
            for c in self.fresh_end..end {
                self.used[(c & SLOT_MASK) as usize] = 0;
            }
        }
        self.fresh_end = end;
    }

    /// Full cycles skipped by all bookings so far: the linear scan's work
    /// beyond one probe per booking.
    pub fn probe_steps(&self) -> u64 {
        self.probe_steps
    }

    /// Bookings whose request fell before the window and was moved up to
    /// its start. Each one may have landed later than an unbounded
    /// calendar would have put it.
    pub fn window_clamps(&self) -> u64 {
        self.window_clamps
    }
}

/// A per-cycle slot budget for a client whose requests never go
/// backwards (fetch and commit): the latest booked cycle and the slots
/// used in it.
///
/// Every cycle a booking steps over stays full, and a later request is
/// never older than an earlier one, so everything below the latest
/// booked cycle is either full or never asked for again. A booking is
/// therefore O(1), and on any non-decreasing request sequence it returns
/// the cycle a [`SlotCalendar`] would, with the same
/// [`InOrderSlots::probe_steps`].
#[derive(Debug, Clone)]
pub struct InOrderSlots {
    width: u8,
    /// The latest cycle booked (0 before the first booking).
    cycle: u64,
    /// Slots used in `cycle`.
    used: u8,
    /// The previous request; the next may not be older.
    last_request: u64,
    /// Full cycles stepped over, counted as a [`SlotCalendar`] would
    /// count them.
    probe_steps: u64,
}

impl InOrderSlots {
    /// A counter allowing `width` events per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: u8) -> Self {
        assert!(width > 0, "slot width must be positive");
        InOrderSlots {
            width,
            cycle: 0,
            used: 0,
            last_request: 0,
            probe_steps: 0,
        }
    }

    /// Books one slot at the earliest cycle ≥ `earliest`, returning it.
    /// `earliest` must not be older than the previous request.
    #[inline]
    pub fn book(&mut self, earliest: u64) -> u64 {
        debug_assert!(
            earliest >= self.last_request,
            "in-order slot request went backwards: {earliest} after {}",
            self.last_request
        );
        self.last_request = earliest;
        if earliest > self.cycle {
            self.cycle = earliest;
            self.used = 1;
            return earliest;
        }
        // Cycles `earliest..self.cycle` are full. A ring calendar walks
        // them from the start of its window, which ends at the latest
        // booked cycle.
        let from = earliest.max((self.cycle + 1).saturating_sub(WINDOW as u64));
        if self.used < self.width {
            self.used += 1;
        } else {
            self.cycle += 1;
            self.used = 1;
        }
        self.probe_steps += self.cycle - from;
        self.cycle
    }

    /// Full cycles skipped by all bookings so far (see
    /// [`SlotCalendar::probe_steps`]).
    pub fn probe_steps(&self) -> u64 {
        self.probe_steps
    }
}

/// Most units one [`UnitPool`] holds.
pub const MAX_UNITS: usize = 32;

/// A pool of identical functional units.
#[derive(Debug, Clone)]
pub struct UnitPool {
    /// Next-free cycle of each unit; only the first `len` are in use.
    next_free: [u64; MAX_UNITS],
    len: usize,
}

impl UnitPool {
    /// A pool of `n` units, all free at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or above [`MAX_UNITS`].
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "unit pool must have at least one unit");
        assert!(n <= MAX_UNITS, "unit pool holds at most {MAX_UNITS} units");
        UnitPool {
            next_free: [0; MAX_UNITS],
            len: n,
        }
    }

    /// Books the earliest-available unit at or after `earliest` for
    /// `occupy` cycles; returns the start cycle. Ties go to the
    /// lowest-numbered unit.
    #[inline]
    pub fn book(&mut self, earliest: u64, occupy: u64) -> u64 {
        let units = &self.next_free[..self.len];
        let (mut idx, mut free_at) = (0, units[0]);
        for (i, &t) in units.iter().enumerate().skip(1) {
            if t < free_at {
                (idx, free_at) = (i, t);
            }
        }
        let start = earliest.max(free_at);
        self.next_free[idx] = start + occupy.max(1);
        start
    }
}

/// The Table 2 functional-unit complement.
#[derive(Debug, Clone)]
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
        assert_eq!(cal.book(5 + 2 * WINDOW as u64), 5 + 2 * WINDOW as u64);
        assert_eq!(cal.book(5 + 2 * WINDOW as u64), 6 + 2 * WINDOW as u64);
    }

    #[test]
    fn calendar_counts_window_clamps() {
        let mut cal = SlotCalendar::new(1);
        assert_eq!(cal.book(2 * WINDOW as u64), 2 * WINDOW as u64);
        assert_eq!(cal.window_clamps(), 0);
        // Cycle 3 left the window: the request moves up to its start.
        assert_eq!(cal.book(3), WINDOW as u64 + 1);
        assert_eq!(cal.window_clamps(), 1);
    }

    #[test]
    fn in_order_slots_fill_a_cycle_then_advance() {
        let mut slots = InOrderSlots::new(2);
        assert_eq!(slots.book(10), 10);
        assert_eq!(slots.book(10), 10);
        assert_eq!(slots.book(10), 11, "third booking in a 2-wide cycle spills");
        assert_eq!(slots.book(11), 11);
        assert_eq!(slots.book(11), 12);
        assert_eq!(slots.probe_steps(), 2, "each spill skips one full cycle");
        assert_eq!(slots.book(40), 40, "a later request starts a fresh cycle");
        assert_eq!(slots.probe_steps(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "went backwards")]
    fn in_order_slots_reject_an_older_request() {
        let mut slots = InOrderSlots::new(4);
        slots.book(10);
        slots.book(9);
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

    #[test]
    #[should_panic(expected = "at most 32 units")]
    fn oversized_unit_pool_panics() {
        UnitPool::new(MAX_UNITS + 1);
    }
}
