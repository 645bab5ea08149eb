//! Task-side blocking API.
//!
//! A [`Ctx`] is handed to every task closure. It dereferences to
//! [`SimHandle`] for the non-blocking kernel API and adds the blocking
//! primitives (`wait`, `delay`, …) that park the calling task: having
//! registered its wake-up, the task dispatches the queue on its own thread
//! until the baton goes to another task or its own wake pops.

use std::sync::Arc;

use parking_lot::MutexGuard;

use crate::board::{BoardId, RangeWaiter};
use crate::event::{EventId, Waiter};
use crate::kernel::{KState, SimHandle};
use crate::task::{Baton, ParkedOn, TaskId, TaskStatus};
use crate::time::{Dur, SimTime};

/// How long a blocking primitive may block: GASPI's timeout parameter as
/// a type.
///
/// Every bounded-wait primitive in the stack — event waits here,
/// queue/notification waits in the fabric layer, fences in the runtime —
/// takes one `Wait` instead of growing a `_timeout` twin per method.
/// [`Wait::Block`] is `GASPI_BLOCK` (wait forever; the call cannot fail),
/// [`Wait::Until`] is `GASPI_TIMEOUT` with a virtual-time budget: if the
/// wake condition is not met within the budget the primitive returns a
/// timeout error and leaves partial completion intact for inspection.
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
    /// kernel lock it hands over) registered a wake-up and bumped
    /// `park_seq`; see the blocking ops below for the pattern. Returns
    /// once that wake-up has popped, with the baton back on this thread.
    fn park(&self, mut st: MutexGuard<'_, KState>, why: ParkedOn) {
        let slot = &mut st.tasks[self.id.index()];
        slot.status = TaskStatus::Blocked;
        slot.parked_on = why;
        self.handle.dispatch(st, Some((self.id, &self.baton)));
    }

    /// Block until `ev` completes. Returns immediately if it already has.
    pub fn wait(&mut self, ev: EventId) {
        loop {
            let mut st = self.handle.kernel.state.lock();
            if st.events.get(ev).completed {
                return;
            }
            let park_seq = st.park_seqs[self.id.index()] + 1;
            st.park_seqs[self.id.index()] = park_seq;
            st.events.get_mut(ev).waiters.push(Waiter { task: self.id, park_seq });
            self.park(st, ParkedOn::Event(ev));
        }
    }

    /// Block until `ev` completes, then recycle it.
    pub fn wait_free(&mut self, ev: EventId) {
        self.wait(ev);
        self.handle.free_event(ev);
    }

    /// Block until *all* events complete.
    ///
    /// Unlike a loop of [`Ctx::wait`] calls — which parks and re-wakes
    /// once per still-pending event — this registers a single *wait
    /// group* covering every pending event and parks exactly once: the
    /// completion that brings the group to zero produces the only wake
    /// entry. For a fence draining N completions this turns ~N scheduler
    /// park/wake round-trips into one.
    pub fn wait_all(&mut self, evs: &[EventId]) {
        let mut st = self.handle.kernel.state.lock();
        let pending = evs.iter().filter(|&&ev| !st.events.get(ev).completed).count();
        if pending == 0 {
            return;
        }
        let park_seq = st.park_seqs[self.id.index()] + 1;
        st.park_seqs[self.id.index()] = park_seq;
        let gref = st.alloc_wait_group(pending, self.id, park_seq);
        for &ev in evs {
            if !st.events.get(ev).completed {
                st.events.get_mut(ev).group_waiters.push(gref);
            }
        }
        self.park(st, ParkedOn::WaitAll { pending, deadline: None });
        debug_assert!(
            {
                let st = self.handle.kernel.state.lock();
                evs.iter().all(|&ev| st.events.get(ev).completed)
            },
            "wait_all woke before every event completed"
        );
    }

    /// Block until *all* events complete, then recycle every one of them.
    pub fn wait_all_free(&mut self, evs: &[EventId]) {
        self.drain(evs, Wait::Block).expect("a blocking drain cannot time out");
    }

    /// Block until `ev` completes, or until `wait`'s budget elapses.
    ///
    /// The bounded-wait form of [`Ctx::wait`]; see [`Ctx::wait_all_with`]
    /// for the mechanism. `Wait::Block` cannot fail.
    pub fn wait_with(&mut self, ev: EventId, wait: Wait) -> Result<(), WaitTimeout> {
        self.wait_all_with(std::slice::from_ref(&ev), wait)
    }

    /// Block until *all* events complete, or until `wait`'s budget
    /// elapses, whichever comes first.
    ///
    /// With [`Wait::Block`] this is exactly [`Ctx::wait_all`] (and cannot
    /// fail). With [`Wait::Until`] the mechanism is: one wait group over
    /// the pending set (as in [`Ctx::wait_all`]) *plus* a timer wake at
    /// the deadline carrying the same park sequence number. Whichever
    /// wake pops first resumes the task; the loser is discarded by the
    /// stale-wake check. On timeout the group is killed so later
    /// completions are inert, and the events themselves are left
    /// untouched: completed ones stay completed, so the caller can report
    /// partial completion ([`crate::SimHandle::event_done`]) and wait
    /// again or recover. A completion racing the deadline at the exact
    /// same instant resolves deterministically by queue order (earlier
    /// sequence number wins).
    pub fn wait_all_with(&mut self, evs: &[EventId], wait: Wait) -> Result<(), WaitTimeout> {
        let timeout = match wait {
            Wait::Block => {
                self.wait_all(evs);
                return Ok(());
            }
            Wait::Until(d) => d,
        };
        let mut st = self.handle.kernel.state.lock();
        let pending = evs.iter().filter(|&&ev| !st.events.get(ev).completed).count();
        if pending == 0 {
            return Ok(());
        }
        let deadline = st.now() + timeout;
        let park_seq = st.park_seqs[self.id.index()] + 1;
        st.park_seqs[self.id.index()] = park_seq;
        let gref = st.alloc_wait_group(pending, self.id, park_seq);
        for &ev in evs {
            if !st.events.get(ev).completed {
                st.events.get_mut(ev).group_waiters.push(gref);
            }
        }
        self.handle.push_wake(&mut st, deadline, self.id, park_seq);
        self.park(st, ParkedOn::WaitAll { pending, deadline: Some(deadline) });
        let mut st = self.handle.kernel.state.lock();
        if evs.iter().all(|&ev| st.events.get(ev).completed) {
            Ok(())
        } else {
            st.kill_group(gref);
            Err(WaitTimeout { at: st.now() })
        }
    }

    /// The one bounded drain: wait for *all* of `evs` under `wait`
    /// ([`Ctx::wait_all_with`]: one park either way), recycle every event
    /// that completed, and on timeout hand back the ones still in flight,
    /// in the order given. GPI-2 queue waits and `ompx_fence` are this
    /// call plus their own bookkeeping for the survivors.
    pub fn drain(
        &mut self,
        evs: &[EventId],
        wait: Wait,
    ) -> Result<(), (WaitTimeout, Vec<EventId>)> {
        let timed_out = self.wait_all_with(evs, wait).err();
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

    /// Block until *any* of the events completes; returns the index of a
    /// completed event (the first found in argument order).
    pub fn wait_any(&mut self, evs: &[EventId]) -> usize {
        assert!(!evs.is_empty(), "wait_any on empty set");
        loop {
            let mut st = self.handle.kernel.state.lock();
            if let Some(i) = evs.iter().position(|&e| st.events.get(e).completed) {
                return i;
            }
            let park_seq = st.park_seqs[self.id.index()] + 1;
            st.park_seqs[self.id.index()] = park_seq;
            for &ev in evs {
                st.events.get_mut(ev).waiters.push(Waiter { task: self.id, park_seq });
            }
            self.park(st, ParkedOn::WaitAny { n: evs.len(), deadline: None });
        }
    }

    /// Block until *any* of the events completes; returns the index of a
    /// completed event (the first found in argument order).
    ///
    /// Unlike [`Ctx::wait_any`] — which registers a per-event waiter on
    /// every pending event, so *every* later completion pushes a (stale)
    /// wake entry for this task — this registers a single *wait-any
    /// group* (a [`Ctx::wait_all`]-style wait group with a remaining
    /// count of one): the first completion produces the only wake entry
    /// and every later completion finds the group dead and pushes
    /// nothing. For a progress engine polling N in-flight completions
    /// per retirement — the ring-collective engine's inner loop — this
    /// turns O(N) scheduler entries per park into O(1).
    pub fn wait_any_batched(&mut self, evs: &[EventId]) -> usize {
        self.wait_any_batched_with(evs, Wait::Block)
            .expect("wait_any_batched woke with no completed event")
    }

    /// [`Ctx::wait_any_batched`] bounded by `wait`'s budget: with
    /// [`Wait::Until`] a timer wake at the deadline rides beside the
    /// wait-any group, exactly as in [`Ctx::wait_all_with`], and if it
    /// pops first the group is killed and the timeout returned with
    /// every event untouched. [`Wait::Block`] is `wait_any_batched`, and
    /// cannot fail.
    pub fn wait_any_batched_with(
        &mut self,
        evs: &[EventId],
        wait: Wait,
    ) -> Result<usize, WaitTimeout> {
        assert!(!evs.is_empty(), "wait_any_batched on empty set");
        let mut st = self.handle.kernel.state.lock();
        if let Some(i) = evs.iter().position(|&e| st.events.get(e).completed) {
            return Ok(i);
        }
        let park_seq = st.park_seqs[self.id.index()] + 1;
        st.park_seqs[self.id.index()] = park_seq;
        let gref = st.alloc_wait_group(1, self.id, park_seq);
        for &ev in evs {
            st.events.get_mut(ev).group_waiters.push(gref);
        }
        let deadline = wait.budget().map(|d| st.now() + d);
        if let Some(t) = deadline {
            self.handle.push_wake(&mut st, t, self.id, park_seq);
        }
        self.park(st, ParkedOn::WaitAny { n: evs.len(), deadline });
        let mut st = self.handle.kernel.state.lock();
        match evs.iter().position(|&e| st.events.get(e).completed) {
            Some(i) => Ok(i),
            None => {
                st.kill_group(gref);
                Err(WaitTimeout { at: st.now() })
            }
        }
    }

    /// Block until some notification id in `[first, first + num)` holds a
    /// posted value on `board`; atomically consume and return the lowest
    /// such `(id, value)`.
    ///
    /// The ranged blocking primitive under GASPI's
    /// `gaspi_notify_waitsome` + `gaspi_notify_reset`. Like
    /// [`Ctx::wait_any_batched`], the wait registers a single
    /// generation-tagged wait group (remaining count 1) instead of
    /// polling each id: the task parks exactly once and the first
    /// [`crate::SimHandle::board_post`] landing inside the range produces
    /// the only wake entry. If a concurrent waiter with an overlapping
    /// range consumes the value first, this task transparently re-parks
    /// on a fresh group.
    pub fn board_waitsome(&mut self, board: BoardId, first: u32, num: u32) -> (u32, u64) {
        assert!(num > 0, "board_waitsome on an empty range");
        loop {
            let mut st = self.handle.kernel.state.lock();
            if let Some((id, _)) = st.boards[board.index()].lowest_in_range(first, num) {
                let v = st.boards[board.index()].values.remove(&id).expect("value vanished");
                return (id, v);
            }
            let park_seq = st.park_seqs[self.id.index()] + 1;
            st.park_seqs[self.id.index()] = park_seq;
            let gref = st.alloc_wait_group(1, self.id, park_seq);
            st.boards[board.index()].waiters.push(RangeWaiter { first, num, group: gref });
            self.park(st, ParkedOn::Board { id: board, first, num, deadline: None });
        }
    }

    /// Block like [`Ctx::board_waitsome`], bounded by `wait`'s budget:
    /// with [`Wait::Until`] the call gives up once the budget elapses
    /// without a consumable post in the range (`gaspi_notify_waitsome`
    /// with a finite timeout returning `GASPI_TIMEOUT`). The deadline is
    /// absolute across internal re-parks: losing a post to a concurrent
    /// overlapping waiter does not extend it. [`Wait::Block`] cannot
    /// fail.
    pub fn board_waitsome_with(
        &mut self,
        board: BoardId,
        first: u32,
        num: u32,
        wait: Wait,
    ) -> Result<(u32, u64), WaitTimeout> {
        assert!(num > 0, "board_waitsome_with on an empty range");
        let timeout = match wait {
            Wait::Block => return Ok(self.board_waitsome(board, first, num)),
            Wait::Until(d) => d,
        };
        let deadline = self.handle.now() + timeout;
        loop {
            let mut st = self.handle.kernel.state.lock();
            if let Some((id, _)) = st.boards[board.index()].lowest_in_range(first, num) {
                let v = st.boards[board.index()].values.remove(&id).expect("value vanished");
                return Ok((id, v));
            }
            if st.now() >= deadline {
                return Err(WaitTimeout { at: st.now() });
            }
            let park_seq = st.park_seqs[self.id.index()] + 1;
            st.park_seqs[self.id.index()] = park_seq;
            let gref = st.alloc_wait_group(1, self.id, park_seq);
            st.boards[board.index()].waiters.push(RangeWaiter { first, num, group: gref });
            self.handle.push_wake(&mut st, deadline, self.id, park_seq);
            self.park(st, ParkedOn::Board { id: board, first, num, deadline: Some(deadline) });
            // Woken by a matching post (board_post already removed the
            // waiter and killed the group) or by the deadline (both still
            // registered). Clean up unconditionally, then loop: consume,
            // re-park with the remaining time, or report the timeout.
            let mut st = self.handle.kernel.state.lock();
            st.boards[board.index()]
                .waiters
                .retain(|w| !(w.group.gid == gref.gid && w.group.gen == gref.gen));
            st.kill_group(gref);
        }
    }

    /// Advance this task's virtual time by `d` (models local computation
    /// or fixed software overhead). An armed fault plan may stretch the
    /// delay for straggler-matched tasks.
    pub fn delay(&mut self, d: Dur) {
        let t = {
            let st = self.handle.kernel.state.lock();
            st_now(&st) + st.scale_delay(self.id, d)
        };
        self.sleep_until(t);
    }

    /// Block until the virtual clock reaches `t` (no-op if already past).
    pub fn sleep_until(&mut self, t: SimTime) {
        let mut st = self.handle.kernel.state.lock();
        if t <= st_now(&st) {
            // Still yield once so same-time entries queued earlier run
            // in deterministic order? No: sleeping to "now" is a no-op;
            // use `yield_now` for explicit rescheduling.
            return;
        }
        let park_seq = st.park_seqs[self.id.index()] + 1;
        st.park_seqs[self.id.index()] = park_seq;
        self.handle.push_wake(&mut st, t, self.id, park_seq);
        self.park(st, ParkedOn::Sleep { until: t });
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
        if t <= st_now(&st) {
            st.coalesced_chunks += coalesced;
            return;
        }
        let park_seq = st.park_seqs[self.id.index()] + 1;
        st.park_seqs[self.id.index()] = park_seq;
        self.handle.push_wake_coalesced(&mut st, t, self.id, park_seq, coalesced);
        self.park(st, ParkedOn::Sleep { until: t });
    }

    /// Re-queue this task at the current virtual time, letting every
    /// already-queued same-time entry run first. Deterministic fairness
    /// point for polling loops.
    pub fn yield_now(&mut self) {
        let mut st = self.handle.kernel.state.lock();
        let now = st_now(&st);
        let park_seq = st.park_seqs[self.id.index()] + 1;
        st.park_seqs[self.id.index()] = park_seq;
        self.handle.push_wake(&mut st, now, self.id, park_seq);
        self.park(st, ParkedOn::Sleep { until: now });
    }
}

fn st_now(st: &crate::kernel::KState) -> SimTime {
    st.now()
}
