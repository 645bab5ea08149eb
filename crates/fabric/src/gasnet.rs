//! GASNet-EX-like conduit: one-sided RMA.
//!
//! This is DiOMP's default communication layer (paper §3.1). The key
//! semantic property — and the root of the Fig. 3 latency advantage over
//! MPI RMA — is that a Put/Get against an attached segment involves **no
//! target-side software**: the initiator pays a small, constant conduit
//! overhead and the payload is deposited by the (modelled) NIC at the
//! computed arrival time. MPI one-sided, by contrast, drags window
//! synchronisation and a per-byte software pipeline along (see
//! `crate::mpi::rma`).

use std::rc::Rc;

use diomp_device::MemError;
use diomp_sim::{Ctx, Dur, SimHandle, SimTime};

use crate::loc::Loc;
use crate::segment::SegmentId;
use crate::wire::{self, Price};
use crate::world::FabricWorld;

/// Completion instants of a non-blocking Put, both known at issue.
#[derive(Clone, Copy, Debug)]
pub struct PutHandle {
    /// Source buffer reusable (local completion, `GEX_EVENT_LC`).
    pub local: SimTime,
    /// Data visible at the target and acknowledged (what `ompx_fence`
    /// waits for).
    pub remote: SimTime,
}

/// Initiator software of one RMA operation: `base_us` plus the
/// registration lookup — one end is always a segment, and segments are
/// device memory.
fn initiator_overhead(world: &FabricWorld, base_us: f64) -> Dur {
    Dur::micros(base_us + world.platform.gasnet.gpu_reg_us)
}

/// Transfers below this size are unaffected by the Platform A put
/// anomaly: the paper's Fig. 3a latency curves (4 B – 8 KB) stay flat
/// while the Fig. 4a bandwidth curves (16 KB up) are capped, so the
/// documented driver issue bites the bulk-transfer path only.
const PUT_ANOMALY_MIN_BYTES: u64 = 16 << 10;

/// The anomaly's efficiency ceiling for a device-source Put of `len`
/// bytes, if it applies to this transfer at all. Single source of truth
/// for the anomaly predicate: both the charged efficiency ([`put_eff`])
/// and the pipeline's staging decision ([`put_capped`]) derive from it.
fn anomaly_eff(world: &FabricWorld, inter_node: bool, len: u64) -> Option<f64> {
    match world.platform.put_anomaly_gbps {
        Some(cap) if inter_node && len >= PUT_ANOMALY_MIN_BYTES => {
            Some(cap / world.platform.net.nic_gbps)
        }
        _ => None,
    }
}

/// Effective wire efficiency for a Put, applying the documented
/// Platform A hardware/driver anomaly (Fig. 4a) for inter-node
/// device-to-device transfers.
fn put_eff(world: &FabricWorld, src: &Loc, dst: &Loc, inter_node: bool, len: u64) -> f64 {
    let g = &world.platform.gasnet;
    let device_src = src.dev_flat().is_some() && dst.dev_flat().is_some();
    match anomaly_eff(world, inter_node, len) {
        Some(cap_eff) if device_src => g.eff.min(cap_eff),
        _ => g.eff,
    }
}

/// Would a direct device-source Put of `len` bytes between these nodes
/// run below the conduit's nominal efficiency because of the documented
/// Platform A put cap (Fig. 4a)?
///
/// The DiOMP runtime's large-message pipeline uses this to decide whether
/// staging chunks through host memory pays: a host-source Put is not
/// subject to the cap, so D2H-then-Put chunks overlap into the full wire
/// rate exactly as paper §3.2's copy/transfer overlap describes.
pub fn put_capped(world: &FabricWorld, inter_node: bool, len: u64) -> bool {
    anomaly_eff(world, inter_node, len).is_some_and(|cap_eff| cap_eff < world.platform.gasnet.eff)
}

/// Initiator software of one Put.
pub fn put_overhead(world: &FabricWorld) -> Dur {
    initiator_overhead(world, world.platform.gasnet.put_o_us)
}

/// [`put_nb`] injected at `ready`, the instant [`put_overhead`] has been
/// paid — by the calling task, or on a progress lane whose times the
/// caller chains (the staged pipeline). A `ready` still ahead lets a
/// reserved copy fill `src`: it is read when the NIC releases it, not in
/// the call.
#[allow(clippy::too_many_arguments)]
pub fn put_nb_from(
    h: &SimHandle,
    world: &Rc<FabricWorld>,
    src_rank: usize,
    src: Loc,
    dst: SegmentId,
    dst_off: u64,
    len: u64,
    ready: SimTime,
) -> Result<PutHandle, MemError> {
    let dst_loc = world.segment(dst).range(dst_off, len)?;
    let inter = world.node_of(src_rank) != world.node_of(dst.rank);
    let eff = put_eff(world, &src, &dst_loc, inter, len);
    let dst = (dst.rank, dst_loc);
    let wrote = wire::write_from(h, world, (src_rank, src), dst, len, eff, ready)?;
    Ok(PutHandle { local: wrote.depart, remote: wrote.acked })
}

/// Non-blocking one-sided Put of `len` bytes from a local buffer into a
/// remote segment (`gex_RMA_PutNB`).
pub fn put_nb(
    ctx: &mut Ctx,
    world: &Rc<FabricWorld>,
    src_rank: usize,
    src: Loc,
    dst: SegmentId,
    dst_off: u64,
    len: u64,
) -> Result<PutHandle, MemError> {
    // A refused operation charges nothing.
    world.segment(dst).range(dst_off, len)?;
    src.check(&world.devs, len)?;
    ctx.delay(put_overhead(world));
    let h = ctx.handle();
    put_nb_from(h, world, src_rank, src, dst, dst_off, len, h.now())
}

/// Non-blocking one-sided Get of `len` bytes from a remote segment into a
/// local buffer (`gex_RMA_GetNB`). Returns the instant the data has
/// landed locally — so staged pipelines can reserve follow-on work
/// (e.g. an H2D upload out of a bounce buffer) from the moment the chunk
/// lands, without synchronising the issuing task on the arrival.
/// Actions scheduled at that instant after this call run strictly after
/// the deposit (same instant, later sequence number).
pub fn get_nb(
    ctx: &mut Ctx,
    world: &Rc<FabricWorld>,
    rank: usize,
    dst: Loc,
    src: SegmentId,
    src_off: u64,
    len: u64,
) -> Result<SimTime, MemError> {
    let src_loc = world.segment(src).range(src_off, len)?;
    let price = Price {
        overhead: initiator_overhead(world, world.platform.gasnet.get_o_us),
        eff: world.platform.gasnet.eff,
    };
    wire::read(ctx, world, (rank, dst), (src.rank, src_loc), len, price)
}

/// Blocking Put: initiate and wait for remote completion.
pub fn put_blocking(
    ctx: &mut Ctx,
    world: &Rc<FabricWorld>,
    src_rank: usize,
    src: Loc,
    dst: SegmentId,
    dst_off: u64,
    len: u64,
) -> Result<(), MemError> {
    let hdl = put_nb(ctx, world, src_rank, src, dst, dst_off, len)?;
    ctx.sleep_until(hdl.remote);
    Ok(())
}

/// Blocking Get.
pub fn get_blocking(
    ctx: &mut Ctx,
    world: &Rc<FabricWorld>,
    rank: usize,
    dst: Loc,
    src: SegmentId,
    src_off: u64,
    len: u64,
) -> Result<(), MemError> {
    let arrive = get_nb(ctx, world, rank, dst, src, src_off, len)?;
    ctx.sleep_until(arrive);
    Ok(())
}
