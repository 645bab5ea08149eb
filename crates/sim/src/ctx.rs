//! Task-side blocking API.
//!
//! A [`Ctx`] is handed to every task closure. It dereferences to
//! [`SimHandle`] for the non-blocking kernel API and adds the blocking
//! primitives (`wait_all`, `delay`, …) that park the calling task: having
//! registered its wake-up, the task dispatches the queue on its own thread
//! until the baton goes to another task or its own wake pops.
//!
//! There are four waits on events and boards — [`Ctx::wait_all`],
//! [`Ctx::wait_any`], [`Ctx::drain`] and [`Ctx::board_waitsome`] — and
//! each takes a [`Wait`]. Each parks on one generation-tagged wait
//! group, so tasks parked on the same event wake in registration order.

use std::sync::Arc;

use parking_lot::MutexGuard;

use crate::board::{BoardId, RangeWaiter};
use crate::event::{EventId, GroupRef};
use crate::kernel::{KState, SimHandle};
use crate::task::{Baton, ParkedOn, TaskId, TaskStatus};
use crate::time::{Dur, SimTime};

/// How long a blocking primitive may block: GASPI's timeout parameter as
/// a type.
///
/// Every bounded-wait primitive in the stack — event waits here,
/// queue/notification waits in the fabric layer, fences in the runtime —
/// takes one `Wait` instead of growing a `_timeout` twin per method.
/// [`Wait::Block`] is `GASPI_BLOCK` (wait forever; the call cannot
/// fail, so callers `expect` its `Result`), [`Wait::Until`] is
/// `GASPI_TIMEOUT` with a virtual-time budget: if the wake condition is
/// not met within the budget the primitive returns a timeout error and
/// leaves partial completion intact for inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// Block until the wake condition is met (`GASPI_BLOCK`).
    Block,
    /// Give up after this much virtual time (`GASPI_TIMEOUT`).
    Until(Dur),
}

impl Wait {
    /// The deadline budget, if bounded.
    pub fn budget(self) -> Option<Dur> {
        match self {
            Wait::Block => None,
            Wait::Until(d) => Some(d),
        }
    }

    /// The instant a wait begun at `now` gives up: `None` under
    /// [`Wait::Block`], and also when `now + budget` reaches the end of
    /// virtual time. Such a wait can never expire, so it blocks instead of
    /// wrapping round into the past. Every deadline is computed here.
    pub fn deadline(self, now: SimTime) -> Option<SimTime> {
        let t = now.nanos().saturating_add(self.budget()?.as_nanos());
        (t < u64::MAX).then_some(SimTime(t))
    }
}

/// A blocking operation's virtual-time deadline fired before its wake
/// condition was met (GASPI's `GASPI_TIMEOUT`). The waited state is left
/// intact — events that completed before the deadline stay completed, so
/// the caller can inspect partial completion and retry or recover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeout {
    /// Virtual time at which the deadline fired.
    pub at: SimTime,
}

impl std::fmt::Display for WaitTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wait timed out at {}", self.at)
    }
}
impl std::error::Error for WaitTimeout {}

/// Per-task execution context; it belongs to one task thread.
pub struct Ctx {
    handle: SimHandle,
    id: TaskId,
    name: String,
    pub(crate) baton: Arc<Baton>,
}

impl std::ops::Deref for Ctx {
    type Target = SimHandle;
    fn deref(&self) -> &SimHandle {
        &self.handle
    }
}

impl Ctx {
    pub(crate) fn new(handle: SimHandle, id: TaskId, name: String, baton: Arc<Baton>) -> Self {
        Ctx { handle, id, name, baton }
    }

    /// This task's name (as given to `spawn`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Borrow the underlying non-blocking handle (cloneable, `Send`).
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }

    /// Park this task on `why`. The caller must already have (under the
    /// kernel lock it hands over) registered a wake-up under a fresh
    /// `next_park` number; see the blocking ops below for the pattern.
    /// Returns once that wake-up has popped, with the baton back on this
    /// thread.
    fn park(&self, mut st: MutexGuard<'_, KState>, why: ParkedOn) {
        let slot = &mut st.tasks[self.id.index()];
        slot.status = TaskStatus::Blocked;
        slot.parked_on = why;
        self.handle.dispatch(st, Some((self.id, &self.baton)));
    }

    /// Number this task's next park; only wakes carrying the number
    /// resume it, every older one is stale.
    fn next_park(&self, st: &mut KState) -> u64 {
        let park_seq = st.park_seqs[self.id.index()] + 1;
        st.park_seqs[self.id.index()] = park_seq;
        park_seq
    }

    /// Open a park on a wait group that fires after `need` registrations,
    /// and queue the deadline's timer wake, if any, under the same park
    /// number: whichever pops first resumes the task and the other is
    /// stale. Every park on events or a board goes through here, so they
    /// all wake by one rule — registration order.
    fn open_group(&self, st: &mut KState, need: usize, deadline: Option<SimTime>) -> GroupRef {
        let park_seq = self.next_park(st);
        if let Some(t) = deadline {
            self.handle.push_wake(st, t, self.id, park_seq, 0);
        }
        st.alloc_wait_group(need, self.id, park_seq)
    }

    /// After a park on `gref`: the wake condition's value if `found`
    /// reports it holds, else the deadline won — the group is killed, so
    /// later completions are inert, and the timeout is returned.
    fn settle<R>(
        &self,
        gref: GroupRef,
        found: impl FnOnce(&KState) -> Option<R>,
    ) -> Result<R, WaitTimeout> {
        let mut st = self.handle.kernel.state.lock();
        match found(&st) {
            Some(r) => Ok(r),
            None => {
                st.kill_group(gref);
                Err(WaitTimeout { at: st.now() })
            }
        }
    }

    /// Block until *all* events complete, or until `wait`'s budget
    /// elapses, whichever comes first. Returns at once if none is
    /// pending.
    ///
    /// One wait group covers every pending event and the task parks
    /// exactly once: the completion that brings the group to zero
    /// produces the only wake entry, so a fence draining N completions
    /// costs one park/wake round-trip, not N. Under [`Wait::Until`] a
    /// timer wake at the deadline rides beside the group. On timeout the
    /// events are left untouched — completed ones stay completed — so the
    /// caller can report partial completion
    /// ([`crate::SimHandle::event_done`]) and wait again or recover. A
    /// completion racing the deadline at the same instant resolves by
    /// queue order (earlier sequence number wins).
    pub fn wait_all(&mut self, evs: &[EventId], wait: Wait) -> Result<(), WaitTimeout> {
        let mut st = self.handle.kernel.state.lock();
        let pending = evs.iter().filter(|&&ev| !st.events.get(ev).completed).count();
        if pending == 0 {
            return Ok(());
        }
        let deadline = wait.deadline(st.now());
        let gref = self.open_group(&mut st, pending, deadline);
        for &ev in evs {
            let slot = st.events.get_mut(ev);
            if !slot.completed {
                slot.group_waiters.push(gref);
            }
        }
        self.park(st, ParkedOn::WaitAll { pending, deadline });
        self.settle(gref, |st| evs.iter().all(|&ev| st.events.get(ev).completed).then_some(()))
    }

    /// Block until *any* of the events completes, or until `wait`'s
    /// budget elapses; returns the index of a completed event (the first
    /// in argument order).
    ///
    /// One wait group with a remaining count of one is registered on
    /// every event: the first completion produces the only wake entry and
    /// every later one finds the group dead and pushes nothing. For a
    /// progress engine polling N in-flight completions per retirement —
    /// the collective runner's inner loop — that is O(1) scheduler
    /// entries per park, not O(N).
    pub fn wait_any(&mut self, evs: &[EventId], wait: Wait) -> Result<usize, WaitTimeout> {
        assert!(!evs.is_empty(), "wait_any on an empty set");
        let first_done = |st: &KState| evs.iter().position(|&ev| st.events.get(ev).completed);
        let mut st = self.handle.kernel.state.lock();
        if let Some(i) = first_done(&st) {
            return Ok(i);
        }
        let deadline = wait.deadline(st.now());
        let gref = self.open_group(&mut st, 1, deadline);
        for &ev in evs {
            st.events.get_mut(ev).group_waiters.push(gref);
        }
        self.park(st, ParkedOn::WaitAny { n: evs.len(), deadline });
        self.settle(gref, first_done)
    }

    /// The one bounded drain: wait for *all* of `evs` under `wait`
    /// ([`Ctx::wait_all`]: one park either way), recycle every event
    /// that completed, and on timeout hand back the ones still in flight,
    /// in the order given. GPI-2 queue waits and `ompx_fence` are this
    /// call plus their own bookkeeping for the survivors.
    pub fn drain(
        &mut self,
        evs: &[EventId],
        wait: Wait,
    ) -> Result<(), (WaitTimeout, Vec<EventId>)> {
        let timed_out = self.wait_all(evs, wait).err();
        let mut left = Vec::new();
        for &ev in evs {
            if timed_out.is_none() || self.handle.event_done(ev) {
                self.handle.free_event(ev);
            } else {
                left.push(ev);
            }
        }
        timed_out.map_or(Ok(()), |t| Err((t, left)))
    }

    /// Block until some notification id in `[first, first + num)` holds a
    /// posted value on `board`, or until `wait`'s budget elapses;
    /// atomically consume and return the lowest such `(id, value)`.
    ///
    /// The ranged blocking primitive under GASPI's
    /// `gaspi_notify_waitsome` + `gaspi_notify_reset`. Like
    /// [`Ctx::wait_any`], the wait registers a single wait group
    /// (remaining count 1) instead of polling each id: the task parks
    /// once and the first [`crate::SimHandle::board_post`] landing inside
    /// the range produces the only wake entry. If a concurrent waiter
    /// with an overlapping range consumes the value first, this task
    /// re-parks on a fresh group. The deadline is absolute across those
    /// re-parks: losing a post does not extend it.
    pub fn board_waitsome(
        &mut self,
        board: BoardId,
        first: u32,
        num: u32,
        wait: Wait,
    ) -> Result<(u32, u64), WaitTimeout> {
        assert!(num > 0, "board_waitsome on an empty range");
        let deadline = wait.deadline(self.handle.now());
        loop {
            let mut st = self.handle.kernel.state.lock();
            let slot = &mut st.boards[board.index()];
            if let Some((id, _)) = slot.lowest_in_range(first, num) {
                return Ok((id, slot.values.remove(&id).expect("value vanished")));
            }
            if deadline.is_some_and(|t| st.now() >= t) {
                return Err(WaitTimeout { at: st.now() });
            }
            let gref = self.open_group(&mut st, 1, deadline);
            st.boards[board.index()].waiters.push(RangeWaiter { first, num, group: gref });
            self.park(st, ParkedOn::Board { id: board, first, num, deadline });
            // Woken by a matching post (board_post already removed the
            // waiter and fired the group) or by the deadline (both still
            // registered). Clean up either way, then loop: consume,
            // re-park, or report the timeout.
            let mut st = self.handle.kernel.state.lock();
            st.boards[board.index()].waiters.retain(|w| w.group != gref);
            st.kill_group(gref);
        }
    }

    /// Advance this task's virtual time by `d` (models local computation
    /// or fixed software overhead). An armed fault plan may stretch the
    /// delay for straggler-matched tasks.
    pub fn delay(&mut self, d: Dur) {
        let t = {
            let st = self.handle.kernel.state.lock();
            st.now() + st.scale_delay(self.id, d)
        };
        self.sleep_until(t);
    }

    /// Block until the virtual clock reaches `t` (no-op if already past):
    /// a coalesced sleep of no chunks.
    pub fn sleep_until(&mut self, t: SimTime) {
        self.sleep_until_coalesced(t, 0);
    }

    /// Block until the virtual clock reaches `t`, charging the single
    /// heap entry as standing in for `coalesced` per-chunk completions.
    ///
    /// This is the coalesced-event primitive behind the closed-form
    /// collective fast paths: a run of same-edge chunk completions whose
    /// times were priced arithmetically (no per-chunk events) ends in one
    /// wake carrying the count, which [`crate::SimReport::coalesced_chunks`]
    /// aggregates for entry accounting. If `t` is already past, the count
    /// is still credited (the chunks were still priced without events).
    pub fn sleep_until_coalesced(&mut self, t: SimTime, coalesced: u64) {
        let mut st = self.handle.kernel.state.lock();
        if t <= st.now() {
            st.coalesced_chunks += coalesced;
            return;
        }
        let park_seq = self.next_park(&mut st);
        self.handle.push_wake(&mut st, t, self.id, park_seq, coalesced);
        self.park(st, ParkedOn::Sleep { until: t });
    }

    /// Re-queue this task at the current virtual time, letting every
    /// already-queued same-time entry run first. Deterministic fairness
    /// point for polling loops.
    pub fn yield_now(&mut self) {
        let mut st = self.handle.kernel.state.lock();
        let now = st.now();
        let park_seq = self.next_park(&mut st);
        self.handle.push_wake(&mut st, now, self.id, park_seq, 0);
        self.park(st, ParkedOn::Sleep { until: now });
    }
}
