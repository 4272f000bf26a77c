//! Property tests on the timing engine's structural invariants.

use proptest::prelude::*;
use uarch::core::table2_core;
use uarch::insn::{MicroOp, OpClass};
use uarch::resources::{SlotCalendar, UnitPool};
use uarch::trace::VecTrace;

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

    /// The fact the core's fetch floor relies on: a calendar booked only
    /// by one client returns the same cycle whether each booking starts
    /// from its raw hint or from `max(hint, previous result)`, because
    /// every cycle in between is full. Jumps past the 8192-cycle ring
    /// make the ring slide.
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
