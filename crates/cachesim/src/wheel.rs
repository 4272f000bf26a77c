//! The decay calendar: a ring of four wrap buckets.
//!
//! Under the hierarchical counter scheme (paper §2.3) a line decays only
//! on a global-counter wrap — the third wrap after its last touch, when
//! its two-bit counter saturates. Every pending deadline therefore lies
//! one to three wraps ahead of the current one, so four buckets indexed by
//! `wrap % 4` hold the whole schedule without aliasing: bucket `w % 4`
//! contains exactly the lines due at wrap `w` when wrap `w` arrives.
//! [`crate::Cache::advance_to`] drains one bucket per wrap crossed instead
//! of sweeping every line, so a wrap costs O(lines due), not O(lines).
//!
//! Each bucket is an intrusive doubly-linked list over preallocated
//! per-id arrays (`next`/`prev`/`due`): schedule, cancel and pop are O(1),
//! and **no path allocates after [`WrapRing::new`]** (the
//! `no-alloc-in-sweep` tidy lint enforces this). The ring has no clock of
//! its own; the caller keeps every scheduled wrap within the three wraps
//! after the current one, and `Cache::schedule_coherence` audits that.

/// Buckets in the ring: one more than the farthest wrap a deadline can
/// lie ahead of the current one.
const BUCKETS: usize = 4;
/// Sentinel for "no node" in the intrusive lists.
const NIL: u32 = u32::MAX;
/// `due` value for an unscheduled id.
const UNSCHEDULED: u64 = u64::MAX;

/// Per-wrap buckets of line ids. See the module docs for the design.
#[derive(Debug, Clone)]
pub(crate) struct WrapRing {
    /// Head id per bucket (`NIL` when empty).
    heads: [u32; BUCKETS],
    /// Intrusive list links, indexed by id.
    next: Vec<u32>,
    prev: Vec<u32>,
    /// The wrap each id is due at, or [`UNSCHEDULED`].
    due: Vec<u64>,
}

impl WrapRing {
    /// A ring able to hold ids `0..capacity`, all unscheduled.
    ///
    /// All allocation happens here; every other method is allocation-free.
    pub(crate) fn new(capacity: usize) -> Self {
        WrapRing {
            heads: [NIL; BUCKETS],
            // lint: allow(no-alloc-in-sweep): one-time construction
            next: vec![NIL; capacity],
            // lint: allow(no-alloc-in-sweep): one-time construction
            prev: vec![NIL; capacity],
            // lint: allow(no-alloc-in-sweep): one-time construction
            due: vec![UNSCHEDULED; capacity],
        }
    }

    /// The wrap `id` is due at, if scheduled.
    pub(crate) fn due(&self, id: u32) -> Option<u64> {
        Some(self.due[id as usize]).filter(|&w| w != UNSCHEDULED)
    }

    /// Schedules (or moves) `id` to fire at `wrap`. O(1).
    pub(crate) fn schedule(&mut self, id: u32, wrap: u64) {
        self.cancel(id);
        let i = id as usize;
        let bucket = (wrap % BUCKETS as u64) as usize;
        let head = self.heads[bucket];
        self.next[i] = head;
        self.prev[i] = NIL;
        if head != NIL {
            self.prev[head as usize] = id;
        }
        self.heads[bucket] = id;
        self.due[i] = wrap;
    }

    /// Unschedules `id`; returns whether it was scheduled. O(1).
    pub(crate) fn cancel(&mut self, id: u32) -> bool {
        let i = id as usize;
        let wrap = self.due[i];
        if wrap == UNSCHEDULED {
            return false;
        }
        let (next, prev) = (self.next[i], self.prev[i]);
        if prev == NIL {
            self.heads[(wrap % BUCKETS as u64) as usize] = next;
        } else {
            self.next[prev as usize] = next;
        }
        if next != NIL {
            self.prev[next as usize] = prev;
        }
        self.due[i] = UNSCHEDULED;
        true
    }

    /// Unschedules and returns one id due at `wrap`, or `None` once that
    /// wrap's bucket is empty. O(1).
    pub(crate) fn pop(&mut self, wrap: u64) -> Option<u32> {
        let id = self.heads[(wrap % BUCKETS as u64) as usize];
        if id == NIL {
            return None;
        }
        debug_assert_eq!(self.due[id as usize], wrap, "id {id} aliased a bucket");
        self.cancel(id);
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, Cache, CacheConfig, DecayConfig, DecayPolicy, LineMode};
    use crate::{StandbyBehavior, MIN_DECAY_INTERVAL_CYCLES};

    /// Every id due at `wrap`, in pop order.
    fn drain(ring: &mut WrapRing, wrap: u64) -> Vec<u32> {
        std::iter::from_fn(|| ring.pop(wrap)).collect()
    }

    fn drowsy(interval: u64) -> DecayConfig {
        DecayConfig {
            interval_cycles: interval,
            policy: DecayPolicy::NoAccess,
            tags_decay: true,
            behavior: StandbyBehavior::Preserving,
            sleep_settle_cycles: 3,
            wake_settle_cycles: 3,
        }
    }

    /// Line index `addr` maps to, given that the set's only touched way is
    /// way 0 (the first refill of an empty set picks way 0).
    fn line_of(cache: &Cache, addr: u64) -> usize {
        let (_, set) = cache.config().split(addr);
        set * cache.config().assoc
    }

    #[test]
    fn each_wrap_pops_only_its_own_bucket() {
        let mut ring = WrapRing::new(8);
        ring.schedule(0, 5);
        ring.schedule(1, 6);
        ring.schedule(2, 7);
        ring.schedule(3, 5);
        assert_eq!(drain(&mut ring, 4), Vec::<u32>::new());
        let mut at5 = drain(&mut ring, 5);
        at5.sort_unstable();
        assert_eq!(at5, vec![0, 3]);
        assert_eq!(drain(&mut ring, 6), vec![1]);
        assert_eq!(drain(&mut ring, 7), vec![2]);
        assert!((0..8).all(|id| ring.due(id).is_none()), "pop unschedules");
    }

    #[test]
    fn rescheduling_moves_an_id_between_buckets() {
        let mut ring = WrapRing::new(4);
        ring.schedule(0, 3);
        ring.schedule(1, 3);
        ring.schedule(0, 5); // a re-touch: same id, later wrap
        assert_eq!(ring.due(0), Some(5));
        assert_eq!(drain(&mut ring, 3), vec![1], "the old bucket lost it");
        assert_eq!(drain(&mut ring, 4), Vec::<u32>::new());
        assert_eq!(drain(&mut ring, 5), vec![0], "the new bucket holds it");
    }

    #[test]
    fn cancel_unlinks_from_any_list_position() {
        let mut ring = WrapRing::new(4);
        for id in 0..4 {
            ring.schedule(id, 2);
        }
        assert!(ring.cancel(0), "tail");
        assert!(ring.cancel(3), "head");
        assert!(!ring.cancel(3), "double cancel is a no-op");
        assert_eq!(ring.due(3), None);
        let mut left = drain(&mut ring, 2);
        left.sort_unstable();
        assert_eq!(left, vec![1, 2]);
    }

    #[test]
    fn a_deadline_fires_exactly_at_its_wrap_cycle() {
        // Interval 256: wraps every 64 cycles; a touch at cycle 10 (wrap 0)
        // decays at wrap 3, cycle 192 — not a cycle earlier.
        let mut cache = Cache::new(CacheConfig::l1_64k_2way(), Some(drowsy(256))).unwrap();
        cache.access(0x4000, AccessKind::Read, 10);
        let line = line_of(&cache, 0x4000);
        cache.advance_to(191);
        assert_eq!(cache.line_view(line).mode, LineMode::Active);
        cache.advance_to(192);
        let view = cache.line_view(line);
        assert_eq!(view.mode, LineMode::GoingToSleep { until: 195 });
        assert_eq!(view.mode_since, 192);
    }

    #[test]
    fn an_access_on_the_wrap_cycle_sees_the_decay_first() {
        // The deadline fires before an access at the same cycle, so the
        // access is a slow hit on a line that has just begun to sleep.
        let mut cache = Cache::new(CacheConfig::l1_64k_2way(), Some(drowsy(256))).unwrap();
        cache.access(0x4000, AccessKind::Read, 10);
        let r = cache.access(0x4000, AccessKind::Read, 192);
        assert!(r.hit && r.woke_line, "{r:?}");
        // The wake restarts the idle clock: wrap 3 + 3 = 6, cycle 384, and
        // it is the only line left awake.
        let sleeps = cache.stats().sleeps;
        let line = line_of(&cache, 0x4000);
        cache.advance_to(383);
        assert!(cache
            .line_view(line)
            .mode
            .resolved_at(383)
            .is_fully_active());
        assert_eq!(cache.stats().sleeps, sleeps);
        cache.advance_to(384);
        assert_eq!(cache.line_view(line).mode_since, 384);
        assert_eq!(cache.stats().sleeps, sleeps + 1);
    }

    #[test]
    fn a_waking_retry_lands_on_the_next_wrap_in_the_same_advance() {
        // At the floor interval the wrap period is one cycle, shorter than
        // the 3-cycle wake: a line woken on a wrap is still `Waking` when
        // its counter saturates three wraps later, so it retries one wrap
        // on — and both wraps fall inside the single advance below.
        let mut cache = Cache::new(
            CacheConfig::l1_64k_2way(),
            Some(drowsy(MIN_DECAY_INTERVAL_CYCLES)),
        )
        .unwrap();
        cache.access(0x4000, AccessKind::Read, 0);
        cache.advance_to(10); // asleep since wrap 3
        let line = line_of(&cache, 0x4000);
        assert_eq!(
            cache.line_view(line).mode.resolved_at(10),
            LineMode::Standby
        );
        let r = cache.access(0x4000, AccessKind::Read, 10);
        assert!(r.woke_line);
        assert_eq!(cache.line_view(line).mode, LineMode::Waking { until: 13 });
        let sleeps = cache.stats().sleeps;
        cache.advance_to(20);
        // Saturates at wrap 13 while waking (until 13), retries at wrap 14.
        let view = cache.line_view(line);
        assert_eq!(view.mode, LineMode::GoingToSleep { until: 17 });
        assert_eq!(view.mode_since, 14);
        assert_eq!(cache.stats().sleeps, sleeps + 1);
    }

    #[test]
    fn an_interval_switch_rebuckets_every_live_line_to_wrap_3() {
        // Lines touched on different wraps of the old regime (due at wraps
        // 9, 10 and 11: cycles 576, 640, 704) all decay at wrap 3 of the
        // new one instead; every other line has been asleep since 192.
        let mut cache = Cache::new(CacheConfig::l1_64k_2way(), Some(drowsy(256))).unwrap();
        let addrs = [0x4000u64, 0x8000, 0xc000];
        for (k, &addr) in addrs.iter().enumerate() {
            cache.access(addr, AccessKind::Read, 400 + 64 * k as u64);
        }
        cache.advance_to(560);
        cache.set_decay_interval(1024); // regime restarts at 560, period 256
        assert_eq!(cache.schedule_coherence(), Ok(()));
        let sleeps = cache.stats().sleeps;
        let due = 560 + 3 * 256;
        cache.advance_to(due - 1);
        assert_eq!(cache.stats().sleeps, sleeps, "old deadlines are gone");
        cache.advance_to(due);
        for &addr in &addrs {
            let view = cache.line_view(line_of(&cache, addr));
            assert_eq!(view.mode_since, due, "{addr:#x}");
        }
        assert_eq!(cache.stats().sleeps, sleeps + addrs.len() as u64);
    }
}
