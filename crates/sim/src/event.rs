//! Completion queues, and the wait-group references every park hands out.
//!
//! A [`CqId`] names a *completion queue*, GPI-2's unit of one-sided
//! completion: a flow-tagged transfer
//! ([`crate::SimHandle::transfer_qos`]) is posted to a queue once, with
//! a `u64` tag, and its completion appends the tag to the queue. The one
//! task that owns the queue parks on it with [`crate::Ctx::wait_cq`]: one
//! wait group armed on the queue, fired by the first post, so a park
//! costs O(1) however many transfers are in flight.
//! [`crate::SimHandle::drain_cq`] hands back the ready tags in post order.

/// Reference from a board or a completion queue to a parked task's wait
/// group. Generation-tagged: a group whose wait timed out is killed,
/// leaving stale references behind — a post recognises those by a
/// generation mismatch and skips them instead of waking a recycled
/// group slot's next task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GroupRef {
    pub(crate) gid: u32,
    pub(crate) gen: u32,
}

/// Handle to a completion queue (see [`crate::SimHandle::open_cq`]).
/// Generation-tagged like [`crate::FlowId`]: releasing the queue
/// invalidates every copy of the handle, a stale copy is rejected, and a
/// completion still in flight to the released queue is dropped — it can
/// never reach the slot's next tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CqId {
    pub(crate) idx: u32,
    pub(crate) gen: u32,
}

/// Kernel-internal state of one completion queue.
#[derive(Debug, Default)]
pub(crate) struct CqSlot {
    /// Bumped on release, so handles to an earlier tenancy stop matching.
    pub(crate) gen: u32,
    /// Tags posted and not yet drained, in post order.
    pub(crate) ready: Vec<u64>,
    /// Transfers posted to the queue that have neither completed nor been
    /// purged: what a task parked on the queue still waits for.
    pub(crate) inflight: usize,
    /// The wait group of the task parked on the queue, if any; the first
    /// post fires it.
    pub(crate) waiter: Option<GroupRef>,
}
