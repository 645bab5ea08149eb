//! Synchronisation: `ompx_fence` and `ompx_barrier` (paper §3.2–3.3).

use diomp_sim::{Ctx, SimTime, Wait};

use crate::config::Conduit;
use crate::group::DiompGroup;
use crate::runtime::DiompRank;

/// Partial-completion state surfaced by a timed-out bounded fence
/// ([`DiompRank::fence_with`] under [`Wait::Until`]): how much of the
/// pending RMA had completed by the deadline, and which completions are
/// still in flight. Those remain fence-tracked — a later `fence` (or
/// another bounded fence) picks them up; nothing is lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FenceTimeout {
    /// Virtual time at which the deadline fired.
    pub at: SimTime,
    /// Operations that completed (and were retired) by the deadline.
    pub completed: usize,
    /// Completion instants still ahead, re-tracked for the next fence.
    pub in_flight: Vec<SimTime>,
}

impl std::fmt::Display for FenceTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fence timed out at {} with {} completed, {} in flight",
            self.at,
            self.completed,
            self.in_flight.len()
        )
    }
}
impl std::error::Error for FenceTimeout {}

impl DiompRank {
    /// `ompx_fence`: block until every RMA operation this rank initiated
    /// is remotely complete — [`DiompRank::fence_with`] under
    /// [`Wait::Block`], which cannot time out.
    pub fn fence(&mut self, ctx: &mut Ctx) {
        self.fence_with(ctx, Wait::Block).expect("a blocking fence cannot time out");
    }

    /// `ompx_fence` with an explicit wait discipline: [`Wait::Block`]
    /// blocks until everything is complete; [`Wait::Until`] drains what
    /// completes by the virtual-time deadline, and on timeout reports
    /// *which* work is done and which is still in flight instead of
    /// blocking forever on a degraded fabric.
    ///
    /// This is the paper's *hybrid event polling*: the runtime
    /// simultaneously drains network completions (GASNet-EX operations
    /// or GPI-2 queues) and device-side stream completions in one
    /// unified loop, so neither source of completion stalls the other.
    /// In the simulation every one of them is an instant known when the
    /// operation was issued, so the unified loop is one
    /// [`Ctx::wait_until`] on the latest pending instant: the task
    /// sleeps once, and wakes behind any deposit due at that instant —
    /// and then settles the device stream horizon.
    ///
    /// On `Err` the returned [`FenceTimeout`] carries the partial state; the
    /// in-flight completions stay fence-tracked, so callers can consult
    /// the health vector, shed load, and fence again — the classic GASPI
    /// timeout-poll loop. The device stream horizon is only settled on
    /// success (it cannot be partially waited).
    pub fn fence_with(&mut self, ctx: &mut Ctx, wait: Wait) -> Result<(), FenceTimeout> {
        // Network + stream completions. GPI-2 additionally tracks
        // completions on its queues; *every* queue is drained, not just
        // queue 0.
        let mut pending = std::mem::take(&mut *self.shared.pending[self.rank].borrow_mut());
        if self.shared.cfg.conduit == Conduit::Gpi2 {
            pending.extend(diomp_fabric::gpi::take_pending_all(&self.shared.world, self.rank));
        }
        if let Some(&latest) = pending.iter().max() {
            if let Err(t) = ctx.wait_until(latest, wait) {
                let total = pending.len();
                pending.retain(|&done| done > t.at);
                let completed = total - pending.len();
                self.shared.pending[self.rank].borrow_mut().extend(pending.iter().copied());
                return Err(FenceTimeout { at: t.at, completed, in_flight: pending });
            }
        }
        // Device horizon: all streams the RMA path touched.
        for d in self.my_devices() {
            let tail = self.shared.world.devs.dev(d).pool.borrow().max_tail();
            ctx.sleep_until(tail);
        }
        Ok(())
    }

    /// `ompx_barrier()`: world barrier.
    pub fn barrier(&mut self, ctx: &mut Ctx) {
        self.shared.world.barrier.arrive_and_wait(ctx, self.rank);
    }

    /// `ompx_barrier(group)`: barrier scoped to a DiOMP group, avoiding
    /// unnecessary global synchronisation (paper §3.3).
    pub fn barrier_group(&mut self, ctx: &mut Ctx, group: &DiompGroup) {
        let idx = group.index_of(self.rank).expect("rank not in group");
        group.barrier.arrive_and_wait(ctx, idx);
    }

    /// `ompx_fence(group)`: local fence plus a group barrier — after it
    /// returns, every member's prior RMA is visible to every member.
    pub fn fence_group(&mut self, ctx: &mut Ctx, group: &DiompGroup) {
        self.fence(ctx);
        self.barrier_group(ctx, group);
    }
}
