//! Property tests on the timing engine's structural invariants, and
//! oracles for its slot and unit bookkeeping: [`SlotCalendar`],
//! [`InOrderSlots`] and [`UnitPool`] against the plain implementations
//! they replaced.

use proptest::prelude::*;
use uarch::core::table2_core;
use uarch::insn::{MicroOp, OpClass};
use uarch::resources::{InOrderSlots, SlotCalendar, UnitPool, MAX_UNITS};
use uarch::trace::VecTrace;

/// The reference slot calendar: an 8192-cycle ring of per-cycle use
/// counts that slides one cycle at a time and walks forward to the first
/// cycle with a free slot. This is the calendar every slot of the core
/// used before fetch and commit got [`InOrderSlots`] and the ring got
/// its tighter [`SlotCalendar`].
#[derive(Debug, Clone)]
struct RingCalendar {
    width: u8,
    /// used[i] = slots consumed in cycle `base + i` (ring indexed by cycle).
    used: Vec<u8>,
    base: u64,
    /// Full cycles [`RingCalendar::book`] has stepped over.
    probe_steps: u64,
}

/// Ring capacity: cycles older than this are folded away.
const RING: usize = 8192;

impl RingCalendar {
    fn new(width: u8) -> Self {
        assert!(width > 0, "slot width must be positive");
        RingCalendar {
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
    fn book(&mut self, earliest: u64) -> u64 {
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
}

/// The reference unit pool: a vector of next-free cycles, booking the
/// first unit with the smallest one.
struct VecPool {
    next_free: Vec<u64>,
}

impl VecPool {
    fn book(&mut self, earliest: u64, occupy: u64) -> u64 {
        let (idx, &free_at) = self
            .next_free
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .expect("pool is non-empty");
        let start = earliest.max(free_at);
        self.next_free[idx] = start + occupy.max(1);
        start
    }
}

/// A request older than the window: the ring books it from `base`.
fn clamped(reference: &RingCalendar, request: u64) -> bool {
    request < reference.base
}

/// Books `requests` into an [`InOrderSlots`] and the reference ring,
/// requiring the same cycle and the same probe steps after each.
fn in_order_matches_ring(width: u8, requests: &[u64]) {
    let mut slots = InOrderSlots::new(width);
    let mut reference = RingCalendar::new(width);
    for (i, &r) in requests.iter().enumerate() {
        let want = reference.book(r);
        prop_assert_eq!(slots.book(r), want, "booking {} at request {}", i, r);
        prop_assert_eq!(
            slots.probe_steps(),
            reference.probe_steps,
            "probe steps after booking {} at request {}",
            i,
            r
        );
    }
}

fn arb_op(i: u64) -> impl Strategy<Value = MicroOp> {
    (0u8..5, 0u8..16, proptest::bool::ANY).prop_map(move |(kind, reg, taken)| {
        let pc = 0x1000 + (i % 64) * 4;
        match kind {
            0 => MicroOp::alu(pc, reg % 8 + 1, Some(reg % 4 + 1), None),
            1 => MicroOp::load(pc, reg % 8 + 1, 0x10_0000 + (i % 256) * 64),
            2 => MicroOp::store(pc, reg % 8 + 1, 0x10_0000 + (i % 256) * 64),
            3 => MicroOp::branch(pc, taken, 0x1000),
            _ => MicroOp {
                pc,
                class: OpClass::IntMult,
                dest: Some(reg % 8 + 1),
                src1: Some(reg % 4 + 1),
                src2: None,
                mem_addr: 0,
                taken: false,
                target: 0,
            },
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_trace_commits_all_ops_with_bounded_ipc(
        seeds in proptest::collection::vec(0u8..5, 200..600),
    ) {
        let ops: Vec<MicroOp> = seeds
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let pc = 0x1000 + (i as u64 % 64) * 4;
                match k {
                    0 => MicroOp::alu(pc, (i % 8) as u8 + 1, Some((i % 4) as u8 + 1), None),
                    1 => MicroOp::load(pc, (i % 8) as u8 + 1, 0x10_0000 + (i as u64 % 256) * 64),
                    2 => MicroOp::store(pc, (i % 8) as u8 + 1, 0x10_0000 + (i as u64 % 256) * 64),
                    3 => MicroOp::branch(pc, i % 3 == 0, 0x1000),
                    _ => MicroOp::alu(pc, (i % 8) as u8 + 1, None, None),
                }
            })
            .collect();
        let n = ops.len() as u64;
        let mut core = table2_core(11, None).expect("valid hierarchy");
        let stats = core.run(&mut VecTrace::new(ops), n);
        prop_assert_eq!(stats.committed, n);
        prop_assert!(stats.cycles.get() >= n / 4, "cannot exceed the 4-wide commit bound");
        prop_assert!(stats.ipc().get() <= 4.0 + 1e-9);
        prop_assert!(stats.cycles.get() < n * 400, "no op can take longer than a serial memory miss");
    }

    #[test]
    fn calendar_never_books_before_request(requests in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut cal = SlotCalendar::new(4);
        for &r in &requests {
            let got = cal.book(r);
            prop_assert!(got >= r, "booked {got} before requested {r}");
        }
    }

    #[test]
    fn calendar_respects_width_under_contention(width in 1u8..6, n in 1usize..64) {
        let mut cal = SlotCalendar::new(width);
        let mut per_cycle = std::collections::HashMap::new();
        for _ in 0..n {
            let got = cal.book(100);
            *per_cycle.entry(got).or_insert(0u32) += 1;
        }
        for (&cycle, &count) in &per_cycle {
            prop_assert!(count <= width as u32, "cycle {cycle} got {count} > width {width}");
        }
        // And exactly ceil(n/width) cycles are used, contiguously from 100.
        let max_cycle = per_cycle.keys().max().copied().expect("nonempty");
        prop_assert_eq!(max_cycle, 100 + ((n as u64 - 1) / width as u64));
    }

    /// A calendar booked only by one client returns the same cycle
    /// whether each booking starts from its raw hint or from
    /// `max(hint, previous result)`, because every cycle in between is
    /// full: the fact that lets fetch book from its last fetch cycle.
    /// Jumps past the 8192-cycle window make the calendar clear ahead.
    #[test]
    fn booking_from_the_previous_result_matches_raw_hints(
        width in 1u8..9,
        steps in proptest::collection::vec((0u8..4, 0u64..6, 0u64..3 * 8192), 1..400),
    ) {
        let mut raw = SlotCalendar::new(width);
        let mut floored = SlotCalendar::new(width);
        let (mut hint, mut last) = (0u64, 0u64);
        for (kind, small, jump) in steps {
            hint += match kind {
                0 => 0,
                3 => jump,
                _ => small,
            };
            let want = raw.book(hint);
            let got = floored.book(hint.max(last));
            prop_assert_eq!(got, want, "hint {} floor {}", hint, last);
            last = got;
        }
        prop_assert!(floored.probe_steps() <= raw.probe_steps());
    }

    /// Non-decreasing requests shaped like fetch and commit: runs of
    /// equal hints that pile into full cycles, small steps, I-cache-miss
    /// sized jumps, and jumps past the window that make the ring slide.
    #[test]
    fn in_order_slots_match_the_ring_on_non_decreasing_requests(
        width in 1u8..9,
        steps in proptest::collection::vec((0u8..6, 0u64..6, 0u64..3 * 8192), 1..600),
    ) {
        let mut hint = 0u64;
        let requests: Vec<u64> = steps
            .iter()
            .map(|&(kind, small, jump)| {
                hint += match kind {
                    0..=2 => 0,
                    3 => small,
                    4 => 10 + jump % 300,
                    _ => jump,
                };
                hint
            })
            .collect();
        in_order_matches_ring(width, &requests);
    }

    /// Arbitrary requests shaped like dispatch and issue: a frontier that
    /// drifts forward and jumps past the window, with requests at it,
    /// ahead of it, slightly behind it and far behind it (older than the
    /// window, so the ring clamps them).
    #[test]
    fn slot_calendar_matches_the_ring_on_arbitrary_requests(
        width in 1u8..9,
        steps in proptest::collection::vec((0u8..7, 0u64..40, 0u64..3 * 8192), 1..600),
    ) {
        let mut cal = SlotCalendar::new(width);
        let mut reference = RingCalendar::new(width);
        let (mut frontier, mut clamps) = (0u64, 0u64);
        for (i, (kind, small, jump)) in steps.into_iter().enumerate() {
            let request = match kind {
                0 | 1 => frontier,
                2 => {
                    frontier += small;
                    frontier
                }
                3 => frontier.saturating_sub(small),
                4 => frontier + 10 * small,
                5 => {
                    frontier += jump;
                    frontier
                }
                _ => frontier.saturating_sub(jump),
            };
            clamps += u64::from(clamped(&reference, request));
            let want = reference.book(request);
            prop_assert_eq!(cal.book(request), want, "booking {} at request {}", i, request);
            prop_assert_eq!(cal.probe_steps(), reference.probe_steps, "probe steps after booking {}", i);
            prop_assert_eq!(cal.window_clamps(), clamps, "window clamps after booking {}", i);
        }
    }

    #[test]
    fn unit_pool_matches_the_vec_reference(
        n in 1usize..MAX_UNITS + 1,
        bookings in proptest::collection::vec((0u64..200, 1u64..30), 1..300),
    ) {
        let mut pool = UnitPool::new(n);
        let mut reference = VecPool { next_free: vec![0; n] };
        let mut earliest = 0u64;
        for (i, (step, occupy)) in bookings.into_iter().enumerate() {
            earliest = (earliest + step).saturating_sub(100);
            prop_assert_eq!(pool.book(earliest, occupy), reference.book(earliest, occupy), "booking {}", i);
        }
    }

    #[test]
    fn unit_pool_serialises_busy_time(occupies in proptest::collection::vec(1u64..30, 1..40)) {
        let mut pool = UnitPool::new(1);
        let mut prev_end = 0u64;
        for &occ in &occupies {
            let start = pool.book(0, occ);
            prop_assert!(start >= prev_end, "single unit cannot overlap bookings");
            prev_end = start + occ;
        }
    }

    #[test]
    fn op_strategy_produces_valid_ops(op in arb_op(7)) {
        // Smoke property: generated ops are well-formed for the core.
        if op.class.is_mem() {
            prop_assert!(op.mem_addr > 0);
        }
        prop_assert!(op.pc >= 0x1000);
    }
}

/// A run of equal requests long enough to fill more than a window of
/// cycles: the ring clamps the request to its window start, and the
/// counter must count the same probe steps.
#[test]
fn in_order_slots_match_the_ring_past_the_window() {
    let mut requests = vec![0u64; RING + 300];
    requests.extend([RING as u64, 3 * RING as u64, 3 * RING as u64]);
    in_order_matches_ring(1, &requests);
    requests = vec![5; 2 * RING + 40];
    in_order_matches_ring(2, &requests);
}
