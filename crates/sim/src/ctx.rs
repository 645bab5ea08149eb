//! Task-side blocking API.
//!
//! A [`Ctx`] is handed to every task closure. It dereferences to
//! [`SimHandle`] for the non-blocking kernel API and adds the blocking
//! primitives (`delay`, `board_waitsome`, …) that park the calling task:
//! having registered its wake-up, the task dispatches the queue itself
//! until it switches to another task's fiber or its own wake pops.
//!
//! A parked task wakes in one of four ways: a timer ([`Ctx::delay`]), a
//! known instant ([`Ctx::wait_until`]), a board post
//! ([`Ctx::board_waitsome`]) or a completion-queue post
//! ([`Ctx::wait_cq`]). The last three take a [`Wait`]. A post wakes
//! through one generation-tagged wait group per park, so tasks woken by
//! one post wake in registration order.

use std::cell::RefMut;
use std::rc::Rc;

use crate::board::{BoardId, RangeWaiter};
use crate::event::{CqId, GroupRef};
use crate::fiber::Context;
use crate::kernel::{KState, SimHandle};
use crate::task::{ParkedOn, TaskId, TaskStatus};
use crate::time::{Dur, SimTime};

/// How long a blocking primitive may block: GASPI's timeout parameter as
/// a type.
///
/// Every bounded-wait primitive in the stack — board, queue and instant
/// waits here, queue/notification waits in the fabric layer, fences in
/// the runtime — takes one `Wait` instead of growing a `_timeout` twin
/// per method. [`Wait::Block`] is `GASPI_BLOCK` (wait forever; the call cannot
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
/// intact — a post that lands after the deadline is still there for the
/// next wait, so the caller can retry or recover.
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

/// Per-task execution context, handed to the task on its own fiber.
pub struct Ctx {
    handle: SimHandle,
    id: TaskId,
    name: String,
    /// Where this task's fiber is saved while it is parked.
    fiber: Rc<Context>,
}

impl std::ops::Deref for Ctx {
    type Target = SimHandle;
    fn deref(&self) -> &SimHandle {
        &self.handle
    }
}

impl Ctx {
    pub(crate) fn new(handle: SimHandle, id: TaskId, name: String, fiber: Rc<Context>) -> Self {
        Ctx { handle, id, name, fiber }
    }

    /// This task's name (as given to `spawn`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Borrow the underlying non-blocking handle (cloneable).
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }

    /// Park this task on `why`. The caller must already have registered a
    /// wake-up under a fresh `next_park` number, in the kernel state whose
    /// borrow it hands over; see the blocking ops below for the pattern.
    /// Returns once that wake-up has popped and this task runs again.
    fn park(&self, mut st: RefMut<'_, KState>, why: ParkedOn) {
        let slot = &mut st.tasks[self.id.index()];
        slot.status = TaskStatus::Blocked;
        slot.parked_on = why;
        self.handle.dispatch(st, Some((self.id, &self.fiber)));
    }

    /// Number this task's next park; only wakes carrying the number
    /// resume it, every older one is stale.
    fn next_park(&self, st: &mut KState) -> u64 {
        let park_seq = st.park_seqs[self.id.index()] + 1;
        st.park_seqs[self.id.index()] = park_seq;
        park_seq
    }

    /// Open a park on a wait group that the first post reaching it fires,
    /// and queue the deadline's timer wake, if any, under the same park
    /// number: whichever pops first resumes the task and the other is
    /// stale. Every park on a board or a queue goes through here, so they
    /// all wake by one rule — registration order.
    fn open_group(&self, st: &mut KState, deadline: Option<SimTime>) -> GroupRef {
        let park_seq = self.next_park(st);
        if let Some(t) = deadline {
            self.handle.push_wake(st, t, self.id, park_seq, 0);
        }
        st.alloc_wait_group(self.id, park_seq)
    }

    /// Block until completion queue `cq` holds a ready tag, or until
    /// `wait`'s budget elapses (`gaspi_wait` on a queue). Returns at once
    /// if a tag is ready; [`crate::SimHandle::drain_cq`] then takes them.
    ///
    /// The park arms one wait group on the queue, and the first post
    /// fires it: O(1) work and one wake entry per park however many
    /// transfers are in flight. A post racing the deadline at the same
    /// instant resolves by queue order (earlier sequence number wins).
    /// One task waits on a queue at a time.
    pub fn wait_cq(&mut self, cq: CqId, wait: Wait) -> Result<(), WaitTimeout> {
        let mut st = self.handle.kernel.state.borrow_mut();
        let slot = st.cq_mut(cq);
        if !slot.ready.is_empty() {
            return Ok(());
        }
        let inflight = slot.inflight;
        let deadline = wait.deadline(st.now());
        let gref = self.open_group(&mut st, deadline);
        st.cq_mut(cq).waiter = Some(gref);
        self.park(st, ParkedOn::Cq { idx: cq.idx, inflight, deadline });
        let mut st = self.handle.kernel.state.borrow_mut();
        let slot = &st.cqs[cq.idx as usize];
        if slot.gen == cq.gen && !slot.ready.is_empty() {
            return Ok(());
        }
        // The deadline won: kill the group, so a later post is inert.
        st.kill_group(gref);
        Err(WaitTimeout { at: st.now() })
    }

    /// Block until instant `t` — a completion known when its work was
    /// issued: an RMA's arrival or acknowledgement, a stream's tail — or
    /// until `wait`'s deadline, whichever comes first. One park, to the
    /// earlier of the two; none if `t` is already past. At `t == now`
    /// the task still parks, behind every entry already queued at this
    /// instant, so an action due at `t` (a payload's deposit) runs first.
    /// A completion at the deadline is done: the wait times out only if
    /// `t` is later. `ompx_fence`, GPI-2 queue waits and `win_flush` are
    /// this call on their latest pending instant.
    pub fn wait_until(&mut self, t: SimTime, wait: Wait) -> Result<(), WaitTimeout> {
        let st = self.handle.kernel.state.borrow_mut();
        let now = st.now();
        if t < now {
            return Ok(());
        }
        let deadline = wait.deadline(now);
        self.park_until(st, deadline.map_or(t, |at| at.min(t)), 0);
        match deadline {
            Some(at) if t > at => Err(WaitTimeout { at }),
            _ => Ok(()),
        }
    }

    /// Block until some notification id in `[first, first + num)` holds a
    /// posted value on `board`, or until `wait`'s budget elapses;
    /// atomically consume and return the lowest such `(id, value)`.
    ///
    /// The ranged blocking primitive under GASPI's
    /// `gaspi_notify_waitsome` + `gaspi_notify_reset`. Like
    /// [`Ctx::wait_cq`], the wait registers a single wait group instead
    /// of polling each id: the task parks once and the first
    /// [`crate::SimHandle::board_post`] landing inside the range produces
    /// the only wake entry. If a concurrent waiter with an overlapping
    /// range consumes the value first, this task re-parks on a fresh
    /// group. The deadline is absolute across those re-parks: losing a
    /// post does not extend it.
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
            let mut st = self.handle.kernel.state.borrow_mut();
            if let Some(posted) = st.boards[board.index()].take_lowest(first, num) {
                return Ok(posted);
            }
            if deadline.is_some_and(|t| st.now() >= t) {
                return Err(WaitTimeout { at: st.now() });
            }
            let gref = self.open_group(&mut st, deadline);
            st.boards[board.index()].waiters.push(RangeWaiter { first, num, group: gref });
            self.park(st, ParkedOn::Board { id: board, first, num, deadline });
            // Woken by a matching post, which removed the waiter and
            // fired the group, or by the deadline, which left both
            // registered: withdraw them. Then loop: consume, re-park, or
            // report the timeout.
            let mut st = self.handle.kernel.state.borrow_mut();
            if st.kill_group(gref) {
                st.boards[board.index()].waiters.retain(|w| w.group != gref);
            }
        }
    }

    /// Advance this task's virtual time by `d` (models local computation
    /// or fixed software overhead). An armed fault plan may stretch the
    /// delay for straggler-matched tasks.
    pub fn delay(&mut self, d: Dur) {
        let t = {
            let st = self.handle.kernel.state.borrow();
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
    /// This is the coalesced-event primitive behind the event-free
    /// collective fast paths: a run of same-edge chunk completions whose
    /// times were priced arithmetically (no per-chunk events) ends in one
    /// wake carrying the count, which [`crate::SimReport::coalesced_chunks`]
    /// aggregates for entry accounting. If `t` is already past, the count
    /// is still credited (the chunks were still priced without events).
    pub fn sleep_until_coalesced(&mut self, t: SimTime, coalesced: u64) {
        let mut st = self.handle.kernel.state.borrow_mut();
        if t <= st.now() {
            st.coalesced_chunks += coalesced;
            return;
        }
        self.park_until(st, t, coalesced);
    }

    /// Re-queue this task at the current virtual time, letting every
    /// already-queued same-time entry run first. Deterministic fairness
    /// point for polling loops.
    pub fn yield_now(&mut self) {
        let st = self.handle.kernel.state.borrow_mut();
        let now = st.now();
        self.park_until(st, now, 0);
    }

    /// Park until a wake at `t` (not before now) pops: after every entry
    /// already queued at `t`. The wake stands in for `coalesced` chunks.
    fn park_until(&self, mut st: RefMut<'_, KState>, t: SimTime, coalesced: u64) {
        let park_seq = self.next_park(&mut st);
        self.handle.push_wake(&mut st, t, self.id, park_seq, coalesced);
        self.park(st, ParkedOn::Sleep { until: t });
    }
}
