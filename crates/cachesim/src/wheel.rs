//! A hierarchical timing wheel for decay-event scheduling.
//!
//! The decay machinery gives every line its own deadline (the quarter-wrap
//! at which its two-bit counter saturates, plus `GoingToSleep`/`Waking`
//! settle expiries) and the `Simple` policy one recurring full-interval
//! flush. Sweeping every line at every global-counter wrap to find the few
//! whose deadline arrived is the classic C10M timer mistake; this wheel is
//! the classic fix (Varghese & Lauck's hashed hierarchical wheels, as in
//! kernel timers): O(1) insert and cancel, and an advance that jumps
//! straight from one occupied slot to the next instead of visiting lines.
//!
//! ## Shape
//!
//! [`LEVELS`] levels of [`SLOTS`] slots each; a slot at level `l` covers
//! `64^l` cycles, so the wheel spans `64^6` (~6.9 × 10¹⁰) cycles beyond
//! the current time, and farther deadlines park in an overflow list that
//! is re-examined only when it could possibly be due. Each level keeps a
//! 64-bit occupancy bitmap, so finding the next occupied slot is a
//! rotate-and-count-trailing-zeros, not a scan.
//!
//! Events are identified by caller-chosen dense ids and stored in
//! preallocated parallel arrays (`next`/`prev`/`deadline`/`loc`) forming
//! intrusive doubly-linked lists per slot — **zero steady-state
//! allocation**: after [`TimingWheel::new`], no path here allocates (the
//! `no-alloc-in-sweep` tidy lint enforces this).
//!
//! ## Tick granularity
//!
//! The wheel is exact to a single cycle: level 0 slots are one cycle wide,
//! so deadlines are never rounded. The *scheduling* granularity of decay
//! deadlines is a different, coarser clock — line deadlines only ever land
//! on quarter-interval wrap cycles, and the quarter interval is itself
//! floored by [`crate::decay::MIN_DECAY_INTERVAL_CYCLES`] (interval ≥ 4,
//! so the period between wraps is ≥ 1 cycle). The wheel does not depend on
//! that floor for correctness — it would resolve sub-quarter deadlines just
//! as exactly — but the floor guarantees distinct wraps occupy distinct
//! cycles, which keeps the per-wrap bulk accounting in
//! [`crate::Cache::advance_to`] exact.

/// log2 of the slots per level.
pub const SLOT_BITS: u32 = 6;
/// Slots per level.
pub const SLOTS: usize = 1 << SLOT_BITS;
/// Hierarchy depth; the wheel directly covers `SLOTS^LEVELS` cycles.
pub const LEVELS: usize = 6;

/// Sentinel for "no node" in the intrusive lists.
const NIL: u32 = u32::MAX;
/// `loc` value for an unscheduled node.
const LOC_NONE: u16 = u16::MAX;
/// `loc` value for a node parked in the overflow list.
const LOC_OVERFLOW: u16 = u16::MAX - 1;

/// One wheel level: a slot-occupancy bitmap plus the list head per slot.
#[derive(Debug, Clone)]
struct Level {
    /// Bit `s` set ⇔ `heads[s]` is non-empty.
    occupied: u64,
    /// Head node id per slot (`NIL` when empty).
    heads: Vec<u32>,
}

/// The wheel. See the module docs for the design.
#[derive(Debug, Clone)]
pub struct TimingWheel {
    /// Internal clock: all scheduled deadlines are `> now` except while
    /// [`TimingWheel::pop_next`] is mid-drain at the current cycle.
    now: u64,
    levels: Vec<Level>,
    /// Head of the far-future overflow list.
    overflow_head: u32,
    /// Exact minimum deadline in the overflow list; `u64::MAX` when the
    /// list is empty or the cached minimum was invalidated by a cancel
    /// (recomputed lazily on the next query).
    overflow_min: u64,
    /// Intrusive list links and per-node state, indexed by event id.
    next: Vec<u32>,
    prev: Vec<u32>,
    deadline: Vec<u64>,
    /// `level << SLOT_BITS | slot`, [`LOC_OVERFLOW`], or [`LOC_NONE`].
    loc: Vec<u16>,
    /// Lower bound on the earliest scheduled deadline (`u64::MAX` when
    /// empty); lets callers skip [`TimingWheel::pop_next`] entirely on
    /// quiet advances. Cancels leave it conservatively low.
    soonest: u64,
}

impl TimingWheel {
    /// A wheel able to track event ids `0..capacity`, with its clock at 0.
    ///
    /// All allocation happens here; every other method is allocation-free.
    pub fn new(capacity: usize) -> Self {
        TimingWheel {
            now: 0,
            levels: (0..LEVELS)
                .map(|_| Level {
                    occupied: 0,
                    // lint: allow(no-alloc-in-sweep): one-time construction
                    heads: vec![NIL; SLOTS],
                })
                .collect(),
            overflow_head: NIL,
            overflow_min: u64::MAX,
            // lint: allow(no-alloc-in-sweep): one-time construction
            next: vec![NIL; capacity],
            // lint: allow(no-alloc-in-sweep): one-time construction
            prev: vec![NIL; capacity],
            // lint: allow(no-alloc-in-sweep): one-time construction
            deadline: vec![0; capacity],
            // lint: allow(no-alloc-in-sweep): one-time construction
            loc: vec![LOC_NONE; capacity],
            soonest: u64::MAX,
        }
    }

    /// A lower bound on the earliest scheduled deadline (`u64::MAX` when
    /// nothing is scheduled). `next_due_bound() > t` guarantees no event
    /// fires at or before `t`, so a driver may skip the pop loop for such
    /// advances; the converse is only a hint (a cancel can leave the bound
    /// lower than the true minimum).
    pub fn next_due_bound(&self) -> u64 {
        self.soonest
    }

    /// The wheel's internal clock.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether event `id` is currently scheduled.
    pub fn is_scheduled(&self, id: u32) -> bool {
        self.loc[id as usize] != LOC_NONE
    }

    /// The scheduled deadline of event `id`, if any.
    pub fn deadline_of(&self, id: u32) -> Option<u64> {
        if self.is_scheduled(id) {
            Some(self.deadline[id as usize])
        } else {
            None
        }
    }

    /// Schedules (or reschedules) event `id` to fire at `deadline`.
    /// Deadlines at or before the current clock are clamped to the next
    /// cycle — the wheel never fires into the past. O(1).
    pub fn schedule(&mut self, id: u32, deadline: u64) {
        self.cancel(id);
        let deadline = deadline.max(self.now.saturating_add(1));
        self.deadline[id as usize] = deadline;
        self.soonest = self.soonest.min(deadline);
        self.link(id, deadline);
    }

    /// Cancels event `id` if scheduled; returns whether it was. O(1).
    pub fn cancel(&mut self, id: u32) -> bool {
        let i = id as usize;
        let loc = self.loc[i];
        if loc == LOC_NONE {
            return false;
        }
        let (next, prev) = (self.next[i], self.prev[i]);
        if prev != NIL {
            self.next[prev as usize] = next;
        }
        if next != NIL {
            self.prev[next as usize] = prev;
        }
        if loc == LOC_OVERFLOW {
            if self.overflow_head == id {
                self.overflow_head = next;
            }
            if self.deadline[i] == self.overflow_min {
                self.overflow_min = u64::MAX; // cached min gone; recompute lazily
            }
        } else {
            let (lvl, slot) = (usize::from(loc >> SLOT_BITS), usize::from(loc & 63));
            if self.levels[lvl].heads[slot] == id {
                self.levels[lvl].heads[slot] = next;
            }
            if self.levels[lvl].heads[slot] == NIL {
                self.levels[lvl].occupied &= !(1u64 << slot);
            }
        }
        self.loc[i] = LOC_NONE;
        true
    }

    /// Advances the clock toward `target`, returning the next due event as
    /// `(fire_cycle, id)` — events fire in deadline order, and the clock
    /// stops at each fire cycle so the caller can handle the event (and
    /// schedule or cancel others) before asking again. Returns `None` once
    /// no event is due at or before `target`; the clock then rests at
    /// `target`. Allocation-free.
    pub fn pop_next(&mut self, target: u64) -> Option<(u64, u32)> {
        // A past target is a no-op: the clock never rewinds. (`target ==
        // now` still drains — several events may share the current cycle.)
        if target < self.now {
            return None;
        }
        loop {
            // Cascade any upper-level slot whose window the clock is in:
            // its events re-link at lower levels (eventually level 0).
            let mut cascaded = false;
            for lvl in 1..LEVELS {
                let shift = SLOT_BITS * lvl as u32;
                let slot = ((self.now >> shift) & 63) as usize;
                if self.levels[lvl].occupied & (1u64 << slot) != 0 {
                    self.cascade(lvl, slot);
                    cascaded = true;
                }
            }
            if cascaded {
                continue;
            }

            // Anything in the level-0 slot for `now` is due exactly now.
            let slot0 = (self.now & 63) as usize;
            if self.levels[0].occupied & (1u64 << slot0) != 0 {
                let id = self.levels[0].heads[slot0];
                self.cancel(id);
                return Some((self.now, id));
            }

            // Jump to the next occupied slot across all levels (or the
            // overflow minimum), whichever is earliest.
            let mut next_at = self.overflow_min_deadline();
            for lvl in 0..LEVELS {
                if let Some(t) = self.next_slot_time(lvl) {
                    next_at = next_at.min(t);
                }
            }
            if next_at > target {
                self.now = target;
                self.soonest = next_at; // exact: the scan saw every level
                return None;
            }
            self.now = next_at;
            if self.overflow_min_deadline() == next_at {
                self.drain_overflow();
            }
        }
    }

    /// Links `id` (with `deadline` already recorded) into the level/slot
    /// selected by the highest bit where `deadline` differs from the
    /// clock, or the overflow list.
    fn link(&mut self, id: u32, deadline: u64) {
        // Level = highest differing bit between deadline and clock. Using
        // the XOR (not the distance) guarantees the chosen slot index is
        // strictly ahead of the clock's at that level, so a cascade never
        // re-links an event into the slot being cascaded (an event nearly
        // a full rotation ahead aliases into the current slot otherwise).
        let diff = deadline ^ self.now;
        let lvl = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
        };
        let i = id as usize;
        if lvl >= LEVELS {
            // Farther than the wheel spans: park in the overflow list.
            let head = self.overflow_head;
            self.next[i] = head;
            self.prev[i] = NIL;
            if head != NIL {
                self.prev[head as usize] = id;
            }
            self.overflow_head = id;
            self.overflow_min = self.overflow_min.min(deadline);
            self.loc[i] = LOC_OVERFLOW;
            return;
        }
        let slot = ((deadline >> (SLOT_BITS * lvl as u32)) & 63) as usize;
        let head = self.levels[lvl].heads[slot];
        self.next[i] = head;
        self.prev[i] = NIL;
        if head != NIL {
            self.prev[head as usize] = id;
        }
        self.levels[lvl].heads[slot] = id;
        self.levels[lvl].occupied |= 1u64 << slot;
        self.loc[i] = (lvl << SLOT_BITS as usize | slot) as u16;
    }

    /// Re-links every event in `(lvl, slot)` at the level its (now
    /// shorter) remaining distance selects.
    fn cascade(&mut self, lvl: usize, slot: usize) {
        let mut id = self.levels[lvl].heads[slot];
        self.levels[lvl].heads[slot] = NIL;
        self.levels[lvl].occupied &= !(1u64 << slot);
        while id != NIL {
            let i = id as usize;
            let next = self.next[i];
            self.link(id, self.deadline[i]);
            id = next;
        }
    }

    /// Start cycle of the next occupied slot strictly ahead of `now`'s
    /// slot at `lvl` (the current slot is the cascade/pop paths' job).
    fn next_slot_time(&self, lvl: usize) -> Option<u64> {
        let occ = self.levels[lvl].occupied;
        if occ == 0 {
            return None;
        }
        let shift = SLOT_BITS * lvl as u32;
        let width = 1u64 << shift;
        let pos = ((self.now >> shift) & 63) as u32;
        let ahead = occ.rotate_right(pos) & !1; // exclude the current slot
        if ahead == 0 {
            return None;
        }
        let k = u64::from(ahead.trailing_zeros());
        Some((self.now & !(width - 1)) + k * width)
    }

    /// Exact minimum deadline parked in the overflow list (`u64::MAX` when
    /// empty), recomputing the cached value if a cancel invalidated it.
    fn overflow_min_deadline(&mut self) -> u64 {
        if self.overflow_head == NIL {
            return u64::MAX;
        }
        if self.overflow_min == u64::MAX {
            let mut id = self.overflow_head;
            let mut min = u64::MAX;
            while id != NIL {
                min = min.min(self.deadline[id as usize]);
                id = self.next[id as usize];
            }
            self.overflow_min = min;
        }
        self.overflow_min
    }

    /// Moves every overflow event now within the wheel's span back onto
    /// the levels (called after the clock jumped to the overflow minimum).
    fn drain_overflow(&mut self) {
        let mut id = self.overflow_head;
        self.overflow_head = NIL;
        self.overflow_min = u64::MAX;
        while id != NIL {
            let i = id as usize;
            let next = self.next[i];
            self.loc[i] = LOC_NONE;
            self.link(id, self.deadline[i]);
            id = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains every event up to `target`, returning (cycle, id) pairs.
    fn drain(w: &mut TimingWheel, target: u64) -> Vec<(u64, u32)> {
        let mut fired = Vec::new();
        while let Some(ev) = w.pop_next(target) {
            fired.push(ev);
        }
        fired
    }

    #[test]
    fn fires_in_deadline_order() {
        let mut w = TimingWheel::new(8);
        w.schedule(0, 500);
        w.schedule(1, 3);
        w.schedule(2, 77);
        w.schedule(3, 78);
        let fired = drain(&mut w, 1_000);
        assert_eq!(fired, vec![(3, 1), (77, 2), (78, 3), (500, 0)]);
        assert_eq!(w.now(), 1_000);
    }

    #[test]
    fn respects_the_target_and_resumes() {
        let mut w = TimingWheel::new(4);
        w.schedule(0, 10);
        w.schedule(1, 100);
        assert_eq!(drain(&mut w, 50), vec![(10, 0)]);
        assert_eq!(w.now(), 50);
        assert!(w.is_scheduled(1));
        assert_eq!(drain(&mut w, 100), vec![(100, 1)]);
    }

    #[test]
    fn deadline_exactly_at_a_wrap_boundary() {
        // Slot boundaries at every level: 64 (level-1 edge), 64² and 64³.
        // An event pinned exactly on the edge must fire at the edge, not a
        // slot early or late — the classic off-by-one in cascade code.
        for edge in [64u64, 4096, 262_144] {
            let mut w = TimingWheel::new(4);
            w.schedule(0, edge);
            w.schedule(1, edge - 1);
            w.schedule(2, edge + 1);
            let fired = drain(&mut w, edge + 10);
            assert_eq!(
                fired,
                vec![(edge - 1, 1), (edge, 0), (edge + 1, 2)],
                "boundary {edge}"
            );
        }
    }

    #[test]
    fn deadline_beyond_one_full_rotation() {
        // More than one full level-0 rotation (64) and more than one
        // level-1 rotation (4096): both must cascade down correctly.
        let mut w = TimingWheel::new(4);
        w.schedule(0, 64 + 5); // > one rotation of level 0
        w.schedule(1, 4096 + 7); // > one rotation of level 1
        w.schedule(2, 2 * 4096 + 1);
        let fired = drain(&mut w, 10_000);
        assert_eq!(fired, vec![(69, 0), (4103, 1), (8193, 2)]);
    }

    #[test]
    fn cancel_then_reinsert_same_cycle() {
        let mut w = TimingWheel::new(4);
        w.schedule(0, 40);
        assert!(w.cancel(0));
        assert!(!w.cancel(0), "double cancel is a no-op");
        w.schedule(0, 90);
        assert_eq!(w.deadline_of(0), Some(90));
        // Reschedule without an explicit cancel is also one operation.
        w.schedule(0, 60);
        let fired = drain(&mut w, 100);
        assert_eq!(fired, vec![(60, 0)], "only the last schedule survives");
    }

    #[test]
    fn canceled_events_never_fire() {
        let mut w = TimingWheel::new(8);
        for id in 0..8u32 {
            w.schedule(id, 10 + u64::from(id));
        }
        for id in [1u32, 3, 5, 7] {
            w.cancel(id);
        }
        let fired: Vec<u32> = drain(&mut w, 100).into_iter().map(|(_, id)| id).collect();
        assert_eq!(fired, vec![0, 2, 4, 6]);
    }

    #[test]
    fn same_deadline_events_all_fire_at_that_cycle() {
        let mut w = TimingWheel::new(8);
        for id in 0..8u32 {
            w.schedule(id, 1234);
        }
        let fired = drain(&mut w, 2_000);
        assert_eq!(fired.len(), 8);
        assert!(fired.iter().all(|&(t, _)| t == 1234));
        let mut ids: Vec<u32> = fired.into_iter().map(|(_, id)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn past_deadlines_clamp_to_the_next_cycle() {
        let mut w = TimingWheel::new(2);
        w.schedule(0, 100);
        assert_eq!(drain(&mut w, 500), vec![(100, 0)]);
        w.schedule(1, 7); // already in the past: clamps to now + 1
        assert_eq!(w.deadline_of(1), Some(501));
        assert_eq!(drain(&mut w, 501), vec![(501, 1)]);
    }

    #[test]
    fn rescheduling_during_a_drain_is_seen_by_the_same_drain() {
        // The caller's event handler may schedule new events at or before
        // the target; the ongoing drain must fire them too (this is how a
        // short-period decay reschedule chain advances within one call).
        let mut w = TimingWheel::new(2);
        w.schedule(0, 10);
        let mut fired = Vec::new();
        let mut hops = 0;
        while let Some((t, id)) = w.pop_next(100) {
            fired.push((t, id));
            if hops < 3 {
                hops += 1;
                w.schedule(id, t + 20);
            }
        }
        assert_eq!(fired, vec![(10, 0), (30, 0), (50, 0), (70, 0)]);
    }

    #[test]
    fn far_future_events_park_in_overflow_and_still_fire() {
        let span = 1u64 << (SLOT_BITS * LEVELS as u32); // 64^6
        let mut w = TimingWheel::new(3);
        w.schedule(0, span + 123);
        w.schedule(1, span + 7);
        w.schedule(2, u64::MAX); // effectively never
        assert_eq!(drain(&mut w, span / 2), vec![]);
        let fired = drain(&mut w, span + 200);
        assert_eq!(fired, vec![(span + 7, 1), (span + 123, 0)]);
        assert!(w.is_scheduled(2), "the unreachable deadline stays parked");
        assert!(w.cancel(2));
    }

    #[test]
    fn cancel_from_overflow_invalidates_the_cached_min() {
        let span = 1u64 << (SLOT_BITS * LEVELS as u32);
        let mut w = TimingWheel::new(3);
        w.schedule(0, span + 5);
        w.schedule(1, span + 50);
        assert!(w.cancel(0), "cancel the cached minimum");
        let fired = drain(&mut w, 2 * span);
        assert_eq!(fired, vec![(span + 50, 1)]);
    }

    #[test]
    fn near_rotation_deadline_does_not_alias_into_the_current_slot() {
        // Regression: with the clock mid-rotation, a deadline almost a full
        // level-1 rotation ahead shares the clock's level-1 slot index. A
        // distance-based level choice re-links it into the slot being
        // cascaded forever; the XOR-based choice must fire it exactly once.
        let mut w = TimingWheel::new(1);
        while w.pop_next(64_605).is_some() {}
        assert_eq!(w.now(), 64_605);
        // (64_605 >> 6) & 63 == (68_672 >> 6) & 63 == 49, and the distance
        // (4_067 cycles) still selects level 1.
        w.schedule(0, 68_672);
        let fired = drain(&mut w, 74_425);
        assert_eq!(fired, vec![(68_672, 0)]);
        assert_eq!(w.now(), 74_425);
    }

    #[test]
    fn clock_only_moves_forward() {
        let mut w = TimingWheel::new(1);
        w.schedule(0, 10);
        assert_eq!(drain(&mut w, 50), vec![(10, 0)]);
        assert_eq!(w.now(), 50);
        assert_eq!(drain(&mut w, 20), vec![], "a past target is a no-op");
        assert_eq!(w.now(), 50, "the clock never rewinds");
    }
}
