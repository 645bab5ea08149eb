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
//!   virtual-time deadline fires, leaving already-completed operations
//!   retired and incomplete ones re-queued for a later wait. Every
//!   expired deadline also probes the `gaspi_state_vec`
//!   ([`FabricWorld::probe_health`]): a timeout is GASPI's failure
//!   *signal*, and the probe is how a rank-kill becomes visible as
//!   [`crate::RankHealth::Dead`] mid-run so survivors can shrink and
//!   rebuild instead of re-waiting forever.
//! * [`write()`](write()) / [`read()`](read) consult the deterministic fault injector
//!   ([`diomp_sim::FaultPlan::ctrl_fault`] keyed
//!   `fault_key("gpi-queue", rank, queue)`) — an injected `Drop` errors
//!   the queue, a `Delay` stretches the posting overhead.
//! * [`queue_purge`] releases the queue's in-flight completions (the
//!   data may still land; nobody will wait on it) and clears the error
//!   state. [`queue_errored`] exposes the flag for health monitoring.
//!
//! [`write_notify`]'s notification message has its own injection point
//! (`fault_key("gpi-notify", dst_rank, id)`): `Drop` models the
//! notification lost in flight *after* the payload landed — the classic
//! failure a timeout-and-retry protocol must survive.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use diomp_sim::{fault_key, BoardId, CtrlFault, Ctx, Dur, EventId, SimHandle, Wait};
use parking_lot::Mutex;

use crate::error::FabricError;
use crate::loc::Loc;
use crate::path::{control_msg, raw_path, End};
use crate::segment::SegmentId;
use crate::world::FabricWorld;

/// Queue handle (GASPI queues order completions, not data).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct QueueId(pub u8);

/// Per-world GPI-2 state: queue completion lists and notification boards.
pub struct GpiState {
    /// `[rank] → queue → pending remote-completion events`. Ordered map:
    /// draining *all* queues must visit them in a deterministic order.
    queues: Mutex<Vec<BTreeMap<QueueId, Vec<EventId>>>>,
    /// `[rank] → notification board`, created lazily (board allocation
    /// needs a kernel handle, which `FabricWorld::new` does not take).
    boards: Mutex<Vec<Option<BoardId>>>,
    /// `[rank] → queues in the error state (GASPI `GASPI_ERROR`)`: an
    /// operation posted to them failed in flight. Posts fail until
    /// [`queue_purge`] re-arms the queue.
    errors: Mutex<Vec<BTreeSet<QueueId>>>,
}

impl GpiState {
    pub(crate) fn new(nranks: usize) -> Self {
        GpiState {
            queues: Mutex::new(vec![BTreeMap::new(); nranks]),
            boards: Mutex::new(vec![None; nranks]),
            errors: Mutex::new(vec![BTreeSet::new(); nranks]),
        }
    }
}

/// The notification board of `rank`, creating it on first use.
fn board(h: &SimHandle, world: &FabricWorld, rank: usize) -> BoardId {
    let mut boards = world.gpi.boards.lock();
    *boards[rank].get_or_insert_with(|| h.new_board())
}

fn model(world: &FabricWorld) -> Result<&diomp_sim::GpiModel, FabricError> {
    world.platform.gpi.as_ref().ok_or(FabricError::ConduitUnavailable {
        needed: "GPI-2 requires an InfiniBand platform (paper §4.1)",
    })
}

/// Is `queue` of `rank` in the error state?
pub fn queue_errored(world: &Arc<FabricWorld>, rank: usize, queue: QueueId) -> bool {
    world.gpi.errors.lock()[rank].contains(&queue)
}

/// Gate a post on `queue`: refuse if the queue is already errored, then
/// consult the fault injector for this queue's control stream. `Drop`
/// moves the queue into the error state (the post is the operation that
/// failed); `Delay` stretches the posting overhead but succeeds.
fn check_queue(
    ctx: &mut Ctx,
    world: &Arc<FabricWorld>,
    rank: usize,
    queue: QueueId,
) -> Result<(), FabricError> {
    if queue_errored(world, rank, queue) {
        return Err(FabricError::QueueError { rank, queue });
    }
    match ctx.handle().take_ctrl_fault(fault_key("gpi-queue", rank as u64, queue.0 as u64)) {
        Some(CtrlFault::Drop) => {
            world.gpi.errors.lock()[rank].insert(queue);
            Err(FabricError::QueueError { rank, queue })
        }
        Some(CtrlFault::Delay(d)) => {
            ctx.delay(d);
            Ok(())
        }
        None => Ok(()),
    }
}

fn end_of(world: &FabricWorld, rank: usize, loc: &Loc) -> End {
    match loc.dev_flat() {
        Some(f) => End::Dev(f),
        None => End::Node(world.node_of(rank)),
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
    world: &Arc<FabricWorld>,
    src_rank: usize,
    queue: QueueId,
    src: Loc,
    dst: SegmentId,
    dst_off: u64,
    len: u64,
) -> Result<(), FabricError> {
    check_queue(ctx, world, src_rank, queue)?;
    let m = model(world)?.clone();
    let seg = world.segment(dst);
    let dst_loc = seg.loc(dst_off);
    src.check(&world.devs, len)?;
    dst_loc.check(&world.devs, len)?;

    ctx.delay(Dur::micros(m.put_o_us));
    let src_end = end_of(world, src_rank, &src);
    let dst_end = end_of(world, dst.rank, &dst_loc);
    let snapshot = src.snapshot(&world.devs, len)?;
    let h = ctx.handle();
    let times = raw_path(h, &world.devs, src_end, dst_end, ctx.now(), len, m.eff);
    if let Some(bytes) = snapshot {
        let devs = world.devs.clone();
        h.schedule_at(times.arrive, move |_| dst_loc.deposit(&devs, &bytes));
    }
    let ev = h.new_event();
    let ack = control_msg(h, &world.devs, dst_end, src_end, times.arrive);
    h.complete_at(ev, ack);
    world.gpi.queues.lock()[src_rank].entry(queue).or_default().push(ev);
    Ok(())
}

/// One-sided read from a remote segment (`gaspi_read`).
#[allow(clippy::too_many_arguments)]
pub fn read(
    ctx: &mut Ctx,
    world: &Arc<FabricWorld>,
    rank: usize,
    queue: QueueId,
    dst: Loc,
    src: SegmentId,
    src_off: u64,
    len: u64,
) -> Result<(), FabricError> {
    check_queue(ctx, world, rank, queue)?;
    let m = model(world)?.clone();
    let seg = world.segment(src);
    let src_loc = seg.loc(src_off);
    dst.check(&world.devs, len)?;
    src_loc.check(&world.devs, len)?;

    ctx.delay(Dur::micros(m.get_o_us));
    let local_end = end_of(world, rank, &dst);
    let remote_end = end_of(world, src.rank, &src_loc);
    let h = ctx.handle().clone();
    let req = control_msg(&h, &world.devs, local_end, remote_end, ctx.now());
    let times = raw_path(&h, &world.devs, remote_end, local_end, req, len, m.eff);
    // CostOnly runs carry no bytes: no snapshot action is scheduled,
    // keeping scheduler entries free of pure bookkeeping (the same rule
    // as `gasnet::get_nb_timed`).
    if world.devs.mode == diomp_device::DataMode::Functional {
        let devs = world.devs.clone();
        let h2 = h.clone();
        h.schedule_at(times.depart, move |_| {
            if let Some(bytes) = src_loc.snapshot(&devs, len).expect("bounds pre-checked") {
                let devs2 = devs.clone();
                h2.schedule_at(times.arrive, move |_| dst.deposit(&devs2, &bytes));
            }
        });
    }
    let ev = h.new_event();
    h.complete_at(ev, times.arrive);
    world.gpi.queues.lock()[rank].entry(queue).or_default().push(ev);
    Ok(())
}

/// Drain a queue (`gaspi_wait`): wait until every posted operation on
/// it has completed, under the given wait discipline — [`Wait::Block`]
/// maps to `GASPI_BLOCK`, [`Wait::Until`] to a real timeout. Like the
/// GASPI original, the timeout is part of the one signature, not a
/// separate entry point.
///
/// One batched wait either way: the task parks once regardless of how
/// many completions are pending. On [`FabricError::Timeout`] the
/// partial state is preserved, not discarded: operations that *did*
/// complete are retired, the incomplete ones go back on the queue for a
/// later wait (or a [`queue_purge`]).
pub fn wait_queue(
    ctx: &mut Ctx,
    world: &Arc<FabricWorld>,
    rank: usize,
    queue: QueueId,
    wait: Wait,
) -> Result<(), FabricError> {
    let pending: Vec<EventId> = {
        let mut q = world.gpi.queues.lock();
        q[rank].get_mut(&queue).map(std::mem::take).unwrap_or_default()
    };
    if matches!(wait, Wait::Block) {
        ctx.wait_all_free(&pending);
        return Ok(());
    }
    match ctx.wait_all_with(&pending, wait) {
        Ok(()) => {
            for ev in pending {
                ctx.handle().free_event(ev);
            }
            Ok(())
        }
        Err(t) => {
            let mut left = Vec::new();
            for ev in pending {
                if ctx.handle().event_done(ev) {
                    ctx.handle().free_event(ev);
                } else {
                    left.push(ev);
                }
            }
            {
                let mut q = world.gpi.queues.lock();
                let slot = q[rank].entry(queue).or_default();
                // Anything posted while we were parked stays behind the
                // survivors: queue order is completion-tracking order.
                left.append(slot);
                *slot = left;
            }
            world.probe_health();
            Err(t.into())
        }
    }
}

/// Remove and return every pending completion event across *all* of
/// `rank`'s queues, in queue order. Callers decide how to wait (the
/// fence uses one batched `wait_all`; the unbatched ablation loops).
pub fn take_pending_all(world: &Arc<FabricWorld>, rank: usize) -> Vec<EventId> {
    let mut q = world.gpi.queues.lock();
    let rankq = std::mem::take(&mut q[rank]);
    rankq.into_values().flatten().collect()
}

/// Drain every queue of `rank` with a single batched wait
/// (`gaspi_wait` over the whole queue set), under the given wait
/// discipline. Completions posted to *any* queue are awaited — not just
/// queue 0. Same partial-completion contract as [`wait_queue`] on
/// timeout, per queue.
pub fn wait_all_queues(
    ctx: &mut Ctx,
    world: &Arc<FabricWorld>,
    rank: usize,
    wait: Wait,
) -> Result<(), FabricError> {
    if matches!(wait, Wait::Block) {
        let pending = take_pending_all(world, rank);
        ctx.wait_all_free(&pending);
        return Ok(());
    }
    let rankq: BTreeMap<QueueId, Vec<EventId>> = std::mem::take(&mut world.gpi.queues.lock()[rank]);
    let all: Vec<EventId> = rankq.values().flatten().copied().collect();
    match ctx.wait_all_with(&all, wait) {
        Ok(()) => {
            for ev in all {
                ctx.handle().free_event(ev);
            }
            Ok(())
        }
        Err(t) => {
            let mut survivors: Vec<(QueueId, EventId)> = Vec::new();
            for (qu, evs) in rankq {
                for ev in evs {
                    if ctx.handle().event_done(ev) {
                        ctx.handle().free_event(ev);
                    } else {
                        survivors.push((qu, ev));
                    }
                }
            }
            {
                let mut q = world.gpi.queues.lock();
                for (qu, ev) in survivors {
                    q[rank].entry(qu).or_default().push(ev);
                }
            }
            world.probe_health();
            Err(t.into())
        }
    }
}

/// Purge a queue (`gaspi_queue_purge`): abandon every operation posted
/// on it and clear its error state so posts succeed again. In-flight
/// data may still land at the target — purging discards *completion
/// tracking*, not bytes already on the wire — but nobody will ever wait
/// on the abandoned operations and their slots recycle themselves once
/// the wire drains. This is the GASPI recovery sequence after a
/// [`FabricError::QueueError`].
pub fn queue_purge(h: &SimHandle, world: &Arc<FabricWorld>, rank: usize, queue: QueueId) {
    let pending: Vec<EventId> = {
        let mut q = world.gpi.queues.lock();
        q[rank].get_mut(&queue).map(std::mem::take).unwrap_or_default()
    };
    for ev in pending {
        h.release_event(ev);
    }
    world.gpi.errors.lock()[rank].remove(&queue);
}

/// Write with a remote notification (`gaspi_write_notify`): after the data
/// lands, notification `id` with `value` becomes visible at the target.
///
/// `value` must be non-zero (GASPI reserves 0 for the reset state). The
/// notification control message is charged on the *same* endpoints as
/// the payload, so the FIFO link model guarantees it arrives strictly
/// after the last data byte — a waitsome wake-up implies the halo bytes
/// are already deposited.
#[allow(clippy::too_many_arguments)]
pub fn write_notify(
    ctx: &mut Ctx,
    world: &Arc<FabricWorld>,
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
    let m = model(world)?.clone();
    let dst_loc = world.segment(dst).loc(dst_off);
    let src_end = end_of(world, src_rank, &src);
    write(ctx, world, src_rank, queue, src, dst, dst_off, len)?;
    ctx.delay(Dur::micros(m.notify_us));
    // The notification rides behind the data: same source/destination
    // endpoints, hence the same FIFO NIC resources, one control message
    // issued after the write — it queues behind the payload and becomes
    // visible only once the data is deposited.
    let dst_rank = dst.rank;
    let dst_end = end_of(world, dst_rank, &dst_loc);
    let h = ctx.handle();
    let mut when = control_msg(h, &world.devs, src_end, dst_end, ctx.now());
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
/// that consumes the winning id — the reset happens under the same board
/// lock, so a value is handed to exactly one waiter even when waitsome
/// ranges overlap. The task parks once on the whole range (a single
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
    world: &Arc<FabricWorld>,
    rank: usize,
    first_id: u32,
    num_ids: u32,
    wait: Wait,
) -> Result<(u32, u64), FabricError> {
    let b = board(ctx.handle(), world, rank);
    match ctx.board_waitsome_with(b, first_id, num_ids, wait) {
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
pub fn notify_reset(ctx: &Ctx, world: &Arc<FabricWorld>, rank: usize, id: u32) -> Option<u64> {
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
/// atomically under the board lock.
pub fn notify_wait(ctx: &mut Ctx, world: &Arc<FabricWorld>, rank: usize, id: u32) -> u64 {
    notify_waitsome(ctx, world, rank, id, 1, Wait::Block).expect("GASPI_BLOCK cannot time out").1
}
