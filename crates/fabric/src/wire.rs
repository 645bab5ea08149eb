//! The one wire under the three price lists.
//!
//! GASNet-EX, GPI-2 and MPI RMA differ in *what they charge* for a
//! one-sided transfer and in how the initiator learns it completed —
//! not in what a transfer is. That part is said here, once: check both
//! ranges, pay the initiator's software, reserve the modelled path
//! ([`raw_path`]) and the request / acknowledgement control message
//! ([`control_msg`]), and move the bytes. The conduits keep addressing
//! (segments, windows), their [`Price`] and their completion
//! bookkeeping (completion instants, queues, window pending lists).
//!
//! Bytes move in [`DataMode::Functional`] runs only; a CostOnly run
//! schedules no data action at all, so scheduler entries never count
//! pure bookkeeping.

use std::cell::RefCell;
use std::rc::Rc;

use diomp_device::{DataMode, MemError};
use diomp_sim::{Ctx, Dur, SimHandle, SimTime};

use crate::loc::Loc;
use crate::path::{control_msg, raw_path, End, PathTimes};
use crate::world::FabricWorld;

/// One resolved side of a transfer: the rank it belongs to (which names
/// the node of a host buffer) and where the bytes live.
pub(crate) type Side = (usize, Loc);

/// What a middleware charges for one operation.
pub(crate) struct Price {
    /// Initiator-side software, serialised on the calling task (which
    /// bounds the achievable message rate).
    pub overhead: Dur,
    /// Wire efficiency in `(0, 1]`.
    pub eff: f64,
}

/// Modelled instants of a one-sided write.
pub(crate) struct Wrote {
    /// Source buffer reusable (local completion).
    pub depart: SimTime,
    /// Acknowledgement back at the initiator (remote completion).
    pub acked: SimTime,
}

/// The transfer endpoint of a location: its device, or — for a host
/// buffer — the node `rank`'s process runs on.
pub(crate) fn end_of(world: &FabricWorld, rank: usize, loc: &Loc) -> End {
    match loc.dev_flat() {
        Some(f) => End::Dev(f),
        None => End::Node(world.node_of(rank)),
    }
}

/// One-sided write of `len` bytes, `src → dst`, with no target-side
/// software, injected at `ready` — the instant the initiator's software
/// has run. The payload is snapshotted then: in the call when `ready` is
/// now, else when the source's NIC reads it ([`carry`]: a staging buffer
/// a copy reserved earlier is still filling). It is deposited by the
/// (modelled) NIC at arrival; the acknowledgement then travels back.
pub(crate) fn write_from(
    h: &SimHandle,
    world: &FabricWorld,
    (src_rank, src): Side,
    (dst_rank, dst): Side,
    len: u64,
    eff: f64,
    ready: SimTime,
) -> Result<Wrote, MemError> {
    src.check(&world.devs, len)?;
    dst.check(&world.devs, len)?;
    let (src_end, dst_end) = (end_of(world, src_rank, &src), end_of(world, dst_rank, &dst));
    let times = raw_path(h, &world.devs, src_end, dst_end, ready, len, eff);
    if ready > h.now() {
        carry(h, world, src, dst, len, times);
    } else if let Some(bytes) = src.snapshot(&world.devs, len)? {
        let devs = world.devs.clone();
        h.schedule_at(times.arrive, move |_| dst.deposit(&devs, &bytes));
    }
    let acked = control_msg(h, &world.devs, dst_end, src_end, times.arrive);
    Ok(Wrote { depart: times.depart, acked })
}

/// [`write_from`] on the calling task: pay the initiator's software,
/// then inject. A refused operation charges nothing.
pub(crate) fn write(
    ctx: &mut Ctx,
    world: &FabricWorld,
    src: Side,
    dst: Side,
    len: u64,
    price: Price,
) -> Result<Wrote, MemError> {
    src.1.check(&world.devs, len)?;
    dst.1.check(&world.devs, len)?;
    ctx.delay(price.overhead);
    write_from(ctx.handle(), world, src, dst, len, price.eff, ctx.now())
}

/// One-sided read of `len` bytes, `remote → local`: the request travels
/// to the data owner's NIC, which streams the payload back without
/// target-CPU involvement. Returns the arrival instant; actions a caller
/// schedules at it after this returns run strictly after the deposit
/// (see [`carry`]).
pub(crate) fn read(
    ctx: &mut Ctx,
    world: &FabricWorld,
    (local_rank, local): Side,
    (remote_rank, remote): Side,
    len: u64,
    price: Price,
) -> Result<SimTime, MemError> {
    local.check(&world.devs, len)?;
    remote.check(&world.devs, len)?;
    ctx.delay(price.overhead);
    let local_end = end_of(world, local_rank, &local);
    let remote_end = end_of(world, remote_rank, &remote);
    let h = ctx.handle();
    let req = control_msg(h, &world.devs, local_end, remote_end, ctx.now());
    let times = raw_path(h, &world.devs, remote_end, local_end, req, len, price.eff);
    carry(h, world, remote, local, len, times);
    Ok(times.arrive)
}

/// Move `len` bytes `src → dst` along an already reserved path whose
/// source is not read in the call (a read, a rendezvous payload, a
/// staging buffer still filling): snapshot at `times.depart` — the
/// link's *release*, `start + bytes/bw`, when the owner's NIC has read
/// the last byte; a source overwritten before that instant is what the
/// reader receives, one overwritten after it is not — and deposit at
/// `times.arrive`. Both stages are scheduled *now*, in order, so the
/// deposit's sequence number precedes any action scheduled at the
/// arrival instant after this returns. Both ranges must have been
/// checked.
pub(crate) fn carry(
    h: &SimHandle,
    world: &FabricWorld,
    src: Loc,
    dst: Loc,
    len: u64,
    times: PathTimes,
) {
    if world.devs.mode != DataMode::Functional {
        return;
    }
    let in_flight: Rc<RefCell<Option<Vec<u8>>>> = Rc::new(RefCell::new(None));
    let (fill, devs, devs2) = (in_flight.clone(), world.devs.clone(), world.devs.clone());
    h.schedule_at(times.depart, move |_| {
        *fill.borrow_mut() = src.snapshot(&devs, len).expect("bounds pre-checked");
    });
    h.schedule_at(times.arrive, move |_| {
        if let Some(bytes) = in_flight.borrow_mut().take() {
            dst.deposit(&devs2, &bytes);
        }
    });
}
