//! GPI-2-like conduit (InfiniBand only, paper §4.1 / Fig. 5).
//!
//! GPI-2 (GASPI) exposes one-sided `write`/`read` over *queues* plus
//! lightweight *notifications* for remote completion signalling. DiOMP can
//! use it as an alternative communication middleware to GASNet-EX; the
//! paper's Fig. 5 compares the two over NDR InfiniBand, with GPI-2's
//! leaner per-message path winning for small/medium writes.
//!
//! # Notification model
//!
//! Each rank owns a *notification board*: a sparse `u32 → u64` array of
//! level-triggered flags ([`diomp_sim::BoardId`], a kernel primitive).
//! [`write_notify`] makes a notification visible at the target strictly
//! *after* its payload (the notification control message is charged on
//! the same FIFO NIC resource as the data, so it cannot overtake).
//! Consumers drain the board with:
//!
//! * [`notify_waitsome`] — block on a *range* `[first, first + num)` of
//!   ids and atomically consume the lowest posted one
//!   (`gaspi_notify_waitsome` fused with `gaspi_notify_reset`, which is
//!   how virtually every GASPI program uses the pair). The wait parks the
//!   task exactly once regardless of range width — no per-id polling.
//! * [`notify_wait`] — the single-id special case.
//! * [`notify_reset`] — non-blocking consume (`gaspi_notify_reset` alone).
//!
//! Values must be non-zero (a GASPI requirement: 0 is the reset state).
//! Re-posting an unconsumed id overwrites its value, so protocols that
//! must observe every post use disjoint id sets — e.g. the parity scheme
//! of the minimod notified halo exchange (`diomp-apps`).
//!
//! # Timeouts, queue errors and recovery
//!
//! GASPI's fault model is cooperative: blocking calls take a timeout and
//! return `GASPI_TIMEOUT` instead of hanging, a failed operation moves
//! its queue into an *error state* (every later post on it returns
//! `GASPI_ERROR`), and `gaspi_queue_purge` abandons the queue's
//! outstanding operations and re-arms it. The conduit mirrors all three:
//!
//! * [`wait_queue`] / [`wait_all_queues`] / [`notify_waitsome`] called
//!   with [`Wait::Until`] return [`FabricError::Timeout`] when the
//!   virtual-time deadline fires, leaving operations completed by the
//!   deadline retired and later ones re-queued for a later wait. Every
//!   expired deadline also probes the `gaspi_state_vec`
//!   ([`FabricWorld::probe_health`]): a timeout is GASPI's failure
//!   *signal*, and the probe is how a rank-kill becomes visible as
//!   [`crate::RankHealth::Dead`] mid-run so survivors can shrink and
//!   rebuild instead of re-waiting forever.
//! * [`write()`](write()) / [`read()`](read) consult the deterministic fault injector
//!   ([`diomp_sim::FaultPlan::ctrl_fault`] keyed
//!   `fault_key("gpi-queue", rank, queue)`) — an injected `Drop` errors
//!   the queue, a `Delay` stretches the posting overhead.
//! * [`queue_purge`] drops the queue's in-flight completions (the
//!   data may still land; nobody will wait on it) and clears the error
//!   state. [`queue_errored`] exposes the flag for health monitoring.
//!
//! [`write_notify`]'s notification message has its own injection point
//! (`fault_key("gpi-notify", dst_rank, id)`): `Drop` models the
//! notification lost in flight *after* the payload landed — the classic
//! failure a timeout-and-retry protocol must survive.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use diomp_sim::{fault_key, BoardId, CtrlFault, Ctx, Dur, SimHandle, SimTime, Wait};

use crate::error::FabricError;
use crate::loc::Loc;
use crate::path::{raw_path, End};
use crate::segment::SegmentId;
use crate::wire::{self, Price};
use crate::world::FabricWorld;

/// Queue handle (GASPI queues order completions, not data).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct QueueId(pub u8);

/// Per-world GPI-2 state: queue completion lists and notification boards.
pub struct GpiState {
    /// `[rank] → queue → pending remote-completion instants`. Ordered
    /// map: draining *all* queues must visit them in a deterministic
    /// order.
    queues: RefCell<Vec<BTreeMap<QueueId, Vec<SimTime>>>>,
    /// `[rank] → notification board`, created lazily (board allocation
    /// needs a kernel handle, which `FabricWorld::new` does not take).
    boards: RefCell<Vec<Option<BoardId>>>,
    /// `[rank] → queues in the error state (GASPI `GASPI_ERROR`)`: an
    /// operation posted to them failed in flight. Posts fail until
    /// [`queue_purge`] re-arms the queue.
    errors: RefCell<Vec<BTreeSet<QueueId>>>,
}

impl GpiState {
    pub(crate) fn new(nranks: usize) -> Self {
        GpiState {
            queues: RefCell::new(vec![BTreeMap::new(); nranks]),
            boards: RefCell::new(vec![None; nranks]),
            errors: RefCell::new(vec![BTreeSet::new(); nranks]),
        }
    }
}

/// The notification board of `rank`, creating it on first use.
fn board(h: &SimHandle, world: &FabricWorld, rank: usize) -> BoardId {
    let mut boards = world.gpi.boards.borrow_mut();
    *boards[rank].get_or_insert_with(|| h.new_board())
}

fn model(world: &FabricWorld) -> Result<&diomp_sim::GpiModel, FabricError> {
    world.platform.gpi.as_ref().ok_or(FabricError::ConduitUnavailable {
        needed: "GPI-2 requires an InfiniBand platform (paper §4.1)",
    })
}

/// Is `queue` of `rank` in the error state?
pub fn queue_errored(world: &Rc<FabricWorld>, rank: usize, queue: QueueId) -> bool {
    world.gpi.errors.borrow()[rank].contains(&queue)
}

/// Gate a post on `queue`: refuse if the queue is already errored, then
/// consult the fault injector for this queue's control stream. `Drop`
/// moves the queue into the error state (the post is the operation that
/// failed); `Delay` stretches the posting overhead but succeeds.
fn check_queue(
    ctx: &mut Ctx,
    world: &Rc<FabricWorld>,
    rank: usize,
    queue: QueueId,
) -> Result<(), FabricError> {
    if queue_errored(world, rank, queue) {
        return Err(FabricError::QueueError { rank, queue });
    }
    match ctx.handle().take_ctrl_fault(fault_key("gpi-queue", rank as u64, queue.0 as u64)) {
        Some(CtrlFault::Drop) => {
            world.gpi.errors.borrow_mut()[rank].insert(queue);
            Err(FabricError::QueueError { rank, queue })
        }
        Some(CtrlFault::Delay(d)) => {
            ctx.delay(d);
            Ok(())
        }
        None => Ok(()),
    }
}

/// One-sided write into a remote segment (`gaspi_write`). Completion is
/// tracked on `queue`; use [`wait_queue`] to drain.
///
/// Fails with [`FabricError::QueueError`] when the queue is (or just
/// became, via injection) in the error state; recover with
/// [`queue_purge`] and retry.
#[allow(clippy::too_many_arguments)]
pub fn write(
    ctx: &mut Ctx,
    world: &Rc<FabricWorld>,
    src_rank: usize,
    queue: QueueId,
    src: Loc,
    dst: SegmentId,
    dst_off: u64,
    len: u64,
) -> Result<(), FabricError> {
    check_queue(ctx, world, src_rank, queue)?;
    let m = model(world)?;
    let price = Price { overhead: Dur::micros(m.put_o_us), eff: m.eff };
    let dst_loc = world.segment(dst).range(dst_off, len)?;
    let wrote = wire::write(ctx, world, (src_rank, src), (dst.rank, dst_loc), len, price)?;
    track(world, src_rank, queue, wrote.acked);
    Ok(())
}

/// One-sided read from a remote segment (`gaspi_read`).
#[allow(clippy::too_many_arguments)]
pub fn read(
    ctx: &mut Ctx,
    world: &Rc<FabricWorld>,
    rank: usize,
    queue: QueueId,
    dst: Loc,
    src: SegmentId,
    src_off: u64,
    len: u64,
) -> Result<(), FabricError> {
    check_queue(ctx, world, rank, queue)?;
    let m = model(world)?;
    let price = Price { overhead: Dur::micros(m.get_o_us), eff: m.eff };
    let src_loc = world.segment(src).range(src_off, len)?;
    let arrive = wire::read(ctx, world, (rank, dst), (src.rank, src_loc), len, price)?;
    track(world, rank, queue, arrive);
    Ok(())
}

/// Completion bookkeeping of one post: its instant `done`, appended to
/// `queue`'s list.
fn track(world: &FabricWorld, rank: usize, queue: QueueId, done: SimTime) {
    world.gpi.queues.borrow_mut()[rank].entry(queue).or_default().push(done);
}

/// Drain a queue (`gaspi_wait`): wait until every posted operation on
/// it has completed, under the given wait discipline — [`Wait::Block`]
/// maps to `GASPI_BLOCK`, [`Wait::Until`] to a real timeout. Like the
/// GASPI original, the timeout is part of the one signature, not a
/// separate entry point.
///
/// One sleep either way, to the latest pending completion instant or to
/// the deadline, however many completions are pending. On
/// [`FabricError::Timeout`] the partial state is preserved, not
/// discarded: operations that completed by the deadline are retired,
/// the later ones go back on the queue for a later wait (or a
/// [`queue_purge`]).
pub fn wait_queue(
    ctx: &mut Ctx,
    world: &Rc<FabricWorld>,
    rank: usize,
    queue: QueueId,
    wait: Wait,
) -> Result<(), FabricError> {
    drain_queues(ctx, world, rank, Some(queue), wait)
}

/// Remove and return the pending completion lists of `only`, or of
/// *all* of `rank`'s queues, in queue order.
fn take_pending(
    world: &FabricWorld,
    rank: usize,
    only: Option<QueueId>,
) -> Vec<(QueueId, Vec<SimTime>)> {
    let mut q = world.gpi.queues.borrow_mut();
    match only {
        Some(queue) => q[rank].remove_entry(&queue).into_iter().collect(),
        None => std::mem::take(&mut q[rank]).into_iter().collect(),
    }
}

/// Remove and return every pending completion instant across *all* of
/// `rank`'s queues, in queue order, for a caller that merges them into
/// a wait of its own (`ompx_fence`).
pub fn take_pending_all(world: &Rc<FabricWorld>, rank: usize) -> Vec<SimTime> {
    take_pending(world, rank, None).into_iter().flat_map(|(_, ts)| ts).collect()
}

/// The one queue wait: [`Ctx::wait_until`] the latest of the taken
/// completions, one sleep however many queues they span. On timeout
/// every completion later than the deadline goes back on its own queue,
/// and the expired deadline probes the state vector.
fn drain_queues(
    ctx: &mut Ctx,
    world: &Rc<FabricWorld>,
    rank: usize,
    only: Option<QueueId>,
    wait: Wait,
) -> Result<(), FabricError> {
    let taken = take_pending(world, rank, only);
    let Some(&latest) = taken.iter().flat_map(|(_, ts)| ts).max() else { return Ok(()) };
    let Err(t) = ctx.wait_until(latest, wait) else { return Ok(()) };
    {
        let mut q = world.gpi.queues.borrow_mut();
        for (queue, mut ts) in taken {
            ts.retain(|&done| done > t.at);
            if !ts.is_empty() {
                q[rank].entry(queue).or_default().extend(ts);
            }
        }
    }
    world.probe_health();
    Err(t.into())
}

/// Drain every queue of `rank` with a single batched wait
/// (`gaspi_wait` over the whole queue set), under the given wait
/// discipline. Completions posted to *any* queue are awaited — not just
/// queue 0. Same partial-completion contract as [`wait_queue`] on
/// timeout, per queue.
pub fn wait_all_queues(
    ctx: &mut Ctx,
    world: &Rc<FabricWorld>,
    rank: usize,
    wait: Wait,
) -> Result<(), FabricError> {
    drain_queues(ctx, world, rank, None, wait)
}

/// Purge a queue (`gaspi_queue_purge`): abandon every operation posted
/// on it and clear its error state so posts succeed again. In-flight
/// data may still land at the target — purging discards *completion
/// tracking*, not bytes already on the wire — but nobody will ever wait
/// on the abandoned operations. This is the GASPI recovery sequence
/// after a [`FabricError::QueueError`].
pub fn queue_purge(world: &Rc<FabricWorld>, rank: usize, queue: QueueId) {
    take_pending(world, rank, Some(queue));
    world.gpi.errors.borrow_mut()[rank].remove(&queue);
}

/// Write with a remote notification (`gaspi_write_notify`): after the data
/// lands, notification `id` with `value` becomes visible at the target.
///
/// `value` must be non-zero (GASPI reserves 0 for the reset state). The
/// notification is *data*, not a control packet: GASPI orders it on the
/// queue behind its write, so it is a 64-byte bulk reservation on the
/// payload's own link resource (never the control lane, which would
/// overtake a large write) and the FIFO link model guarantees it arrives
/// strictly after the last data byte — a waitsome wake-up implies the
/// halo bytes are already deposited.
#[allow(clippy::too_many_arguments)]
pub fn write_notify(
    ctx: &mut Ctx,
    world: &Rc<FabricWorld>,
    src_rank: usize,
    queue: QueueId,
    src: Loc,
    dst: SegmentId,
    dst_off: u64,
    len: u64,
    id: u32,
    value: u64,
) -> Result<(), FabricError> {
    assert!(value != 0, "GASPI notification values must be non-zero");
    let notify = Dur::micros(model(world)?.notify_us);
    let src_end = wire::end_of(world, src_rank, &src);
    write(ctx, world, src_rank, queue, src, dst, dst_off, len)?;
    ctx.delay(notify);
    // The notification rides behind the data: same source/destination
    // endpoints, hence the same FIFO NIC resource, 64 bytes issued after
    // the write — it queues behind the payload and becomes visible only
    // once the data is deposited.
    let dst_rank = dst.rank;
    let dst_end = End::Dev(world.segment(dst).flat);
    let h = ctx.handle();
    let mut when = raw_path(h, &world.devs, src_end, dst_end, ctx.now(), 64, 1.0).arrive;
    // Injection point for the notification message itself: a dropped
    // flag models the payload landing while its completion signal is
    // lost — the caller's timeout-and-retry path must cover this.
    match h.take_ctrl_fault(fault_key("gpi-notify", dst_rank as u64, id as u64)) {
        Some(CtrlFault::Drop) => return Ok(()),
        Some(CtrlFault::Delay(d)) => when += d,
        None => {}
    }
    let b = board(h, world, dst_rank);
    h.schedule_at(when, move |h| h.board_post(b, id, value));
    Ok(())
}

/// Block until some notification in `[first_id, first_id + num_ids)` has
/// arrived at `rank`'s board; atomically consume the lowest such id and
/// return `(id, value)`.
///
/// This is `gaspi_notify_waitsome` fused with the `gaspi_notify_reset`
/// that consumes the winning id — the reset happens in the same kernel
/// call as the check, so a value is handed to exactly one waiter even
/// when waitsome ranges overlap. The task parks once on the whole range (a single
/// generation-tagged wait group, [`diomp_sim::Ctx::board_waitsome`]), not
/// once per id.
///
/// Like the GASPI original, the wait discipline is an argument of the
/// one signature: [`Wait::Block`] is `GASPI_BLOCK` (cannot time out);
/// [`Wait::Until`] returns [`FabricError::Timeout`] if nothing in the
/// range is posted by the deadline — notifications arriving later stay
/// on the board for the next wait, nothing is consumed on the error
/// path.
pub fn notify_waitsome(
    ctx: &mut Ctx,
    world: &Rc<FabricWorld>,
    rank: usize,
    first_id: u32,
    num_ids: u32,
    wait: Wait,
) -> Result<(u32, u64), FabricError> {
    let b = board(ctx.handle(), world, rank);
    match ctx.board_waitsome(b, first_id, num_ids, wait) {
        Ok(hit) => Ok(hit),
        Err(t) => {
            // GASPI discipline: an expired deadline is the failure
            // signal — probe the state vector before surfacing it.
            world.probe_health();
            Err(t.into())
        }
    }
}

/// Non-blocking consume of notification `id` (`gaspi_notify_reset`):
/// returns the posted value, or `None` if nothing unconsumed is there.
pub fn notify_reset(ctx: &Ctx, world: &Rc<FabricWorld>, rank: usize, id: u32) -> Option<u64> {
    let b = board(ctx.handle(), world, rank);
    ctx.handle().board_reset(b, id)
}

/// Block until notification `id` arrives; returns its value and resets the
/// slot. The single-id special case of [`notify_waitsome`].
///
/// Unlike the pre-board implementation — which kept one waiter slot per
/// id and could silently overwrite (and so forever-park) a concurrent
/// waiter, or re-park a task whose notification was consumed between its
/// wake and its re-check — arrival checking and value consumption happen
/// in one kernel call, with no other task running in between.
pub fn notify_wait(ctx: &mut Ctx, world: &Rc<FabricWorld>, rank: usize, id: u32) -> u64 {
    notify_waitsome(ctx, world, rank, id, 1, Wait::Block).expect("GASPI_BLOCK cannot time out").1
}
