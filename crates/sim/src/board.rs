//! Notification boards: range-waitable `(id → value)` signal slots.
//!
//! A *board* is a sparse array of notification slots indexed by `u32`
//! ids. Producers (typically scheduled actions modelling one-sided
//! message arrival) post a value to a slot with
//! [`crate::SimHandle::board_post`]; a consumer task blocks on a *range*
//! of ids with [`crate::Ctx::board_waitsome`] and atomically consumes
//! the lowest posted id in the range. This is the kernel primitive under
//! GASPI-style ranged notifications (`gaspi_notify_waitsome`).
//!
//! Design: a range wait reuses the generation-tagged *wait-group*
//! machinery of [`crate::Ctx::wait_all`] / [`crate::Ctx::wait_any`]
//! rather than polling each id. The waiter registers a single group
//! (remaining count 1) on the board together with its
//! `[first, first+num)` range and parks exactly once; the first post
//! landing inside the range fires the group and produces the only wake
//! entry. Posts outside every parked range cost nothing beyond the map
//! insert. Multiple waiters with overlapping ranges are all woken by a
//! matching post; the baton order decides who consumes, and the losers
//! re-park on a fresh group (their dead group's generation check makes
//! the stale registration inert).
//!
//! Semantics notes (mirroring GASPI):
//!
//! * Posting to an id that already holds an unconsumed value
//!   *overwrites* it — notification ids are level-triggered flags with a
//!   payload, not queues. Use disjoint id sets (e.g. parity schemes) if
//!   every post must be observed.
//! * Consumption is atomic under the kernel lock: a value is returned by
//!   exactly one `board_waitsome`/`board_reset` call.

use std::collections::BTreeMap;

use crate::event::GroupRef;

/// Handle to a notification board. Cheap to copy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BoardId(pub(crate) u32);

impl BoardId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A task parked on a range of board ids, represented by its wait-group
/// registration (remaining count 1). Fired and removed by the first
/// matching post; a stale generation means the group already fired.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RangeWaiter {
    pub(crate) first: u32,
    pub(crate) num: u32,
    pub(crate) group: GroupRef,
}

impl RangeWaiter {
    pub(crate) fn contains(&self, id: u32) -> bool {
        let id = id as u64;
        let first = self.first as u64;
        id >= first && id < first + self.num as u64
    }
}

/// Kernel-side state of one board.
#[derive(Debug, Default)]
pub(crate) struct BoardSlot {
    /// Posted, unconsumed values. Ordered so "lowest posted id in range"
    /// is a deterministic scan.
    pub(crate) values: BTreeMap<u32, u64>,
    /// Parked range waiters, in registration order.
    pub(crate) waiters: Vec<RangeWaiter>,
}

impl BoardSlot {
    /// Lowest posted, unconsumed id in `[first, first + num)` and its
    /// value: the range semantics of `board_waitsome`.
    pub(crate) fn lowest_in_range(&self, first: u32, num: u32) -> Option<(u32, u64)> {
        let end = (first as u64 + num as u64).min(u32::MAX as u64 + 1);
        self.values
            .range(first..)
            .next()
            .filter(|&(&id, _)| (id as u64) < end)
            .map(|(&id, &v)| (id, v))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use crate::{Dur, Sim, Wait};

    #[test]
    fn post_before_wait_returns_without_parking() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let b = h.new_board();
        h.board_post(b, 7, 99);
        sim.spawn("consumer", move |ctx| {
            let (id, v) = ctx.board_waitsome(b, 0, 16, Wait::Block).unwrap();
            assert_eq!((id, v), (7, 99));
            assert_eq!(ctx.now(), crate::SimTime::ZERO, "no park needed");
        });
        sim.run().unwrap();
    }

    #[test]
    fn wait_parks_once_until_a_post_lands_in_range() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let b = h.new_board();
        sim.spawn("producer", move |ctx| {
            ctx.delay(Dur::micros(3.0));
            ctx.board_post(b, 40, 1); // outside the waited range: no wake
            ctx.delay(Dur::micros(2.0));
            ctx.board_post(b, 10, 2);
        });
        sim.spawn("consumer", move |ctx| {
            let (id, v) = ctx.board_waitsome(b, 8, 4, Wait::Block).unwrap();
            assert_eq!((id, v), (10, 2));
            assert_eq!(ctx.now().as_us(), 5.0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn waitsome_returns_lowest_posted_id_in_range() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let b = h.new_board();
        h.board_post(b, 5, 50);
        h.board_post(b, 3, 30);
        h.board_post(b, 9, 90);
        sim.spawn("consumer", move |ctx| {
            assert_eq!(ctx.board_waitsome(b, 0, 16, Wait::Block).unwrap(), (3, 30));
            assert_eq!(ctx.board_waitsome(b, 0, 16, Wait::Block).unwrap(), (5, 50));
            assert_eq!(ctx.board_waitsome(b, 0, 16, Wait::Block).unwrap(), (9, 90));
        });
        sim.run().unwrap();
    }

    #[test]
    fn overlapping_waiters_each_consume_exactly_once() {
        // Two waiters park on the same id; two posts arrive. The first
        // post wakes both, one consumes, the loser re-parks and is woken
        // by the second post. (The single-slot-waiter design this board
        // replaced lost one of the wakes and deadlocked here.)
        let mut sim = Sim::new();
        let h = sim.handle();
        let b = h.new_board();
        let sum = Arc::new(AtomicU64::new(0));
        for name in ["a", "b"] {
            let sum = sum.clone();
            sim.spawn(name, move |ctx| {
                let (id, v) = ctx.board_waitsome(b, 4, 1, Wait::Block).unwrap();
                assert_eq!(id, 4);
                sum.fetch_add(v, Ordering::Relaxed);
            });
        }
        sim.spawn("producer", move |ctx| {
            ctx.delay(Dur::micros(1.0));
            ctx.board_post(b, 4, 100);
            ctx.delay(Dur::micros(1.0));
            ctx.board_post(b, 4, 23);
        });
        sim.run().unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), 123, "each value consumed exactly once");
    }

    #[test]
    fn range_wait_is_one_wake_not_one_per_id() {
        // N posts into a waited range: the waiter parks once per drain
        // round, and posts to ids nobody waits on push no wake entries.
        let n = 64u32;
        let run = |wait: bool| -> u64 {
            let mut sim = Sim::new();
            let h = sim.handle();
            let b = h.new_board();
            sim.spawn("producer", move |ctx| {
                for i in 0..n {
                    ctx.delay(Dur::nanos(10));
                    ctx.board_post(b, i, 1 + i as u64);
                }
            });
            if wait {
                sim.spawn("consumer", move |ctx| {
                    for _ in 0..n {
                        let _ = ctx.board_waitsome(b, 0, n, Wait::Block).unwrap();
                    }
                });
            }
            sim.run().unwrap().entries_processed
        };
        let baseline = run(false);
        let with_waiter = run(true);
        // The drain costs at most one park/wake round-trip per post (the
        // spaced arrivals are the worst case) plus the spawn overhead —
        // not the O(N²) a per-id stale-wake scheme would produce.
        assert!(
            with_waiter <= baseline + 2 * n as u64 + 4,
            "drain cost {with_waiter} vs baseline {baseline} exceeds one wake per post"
        );
    }

    #[test]
    fn board_reset_consumes_and_reports_absence() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let b = h.new_board();
        h.board_post(b, 2, 7);
        assert_eq!(h.board_reset(b, 2), Some(7));
        assert_eq!(h.board_reset(b, 2), None, "second reset finds nothing");
        sim.spawn("noop", |_| {});
        sim.run().unwrap();
    }

    #[test]
    fn posting_twice_overwrites_the_value() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let b = h.new_board();
        h.board_post(b, 1, 10);
        h.board_post(b, 1, 20);
        assert_eq!(h.board_reset(b, 1), Some(20));
        sim.spawn("noop", |_| {});
        sim.run().unwrap();
    }
}
