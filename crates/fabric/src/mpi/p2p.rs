//! Two-sided point-to-point: eager / rendezvous with match queues.
//!
//! Small messages travel eagerly: the payload is shipped immediately and
//! parked in the target's *unexpected queue* if no receive is posted —
//! costing an extra copy. Large messages use rendezvous: a ready-to-send
//! (RTS) control message arrives first, and the payload only moves once a
//! matching receive exists (clear-to-send), adding a round trip. Both
//! protocols require target-side matching — the structural overhead that
//! one-sided DiOMP puts avoid entirely.

use std::rc::Rc;

use diomp_device::MemError;
use diomp_sim::{Ctx, Dur, SimHandle, SimTime};

use crate::loc::Loc;
use crate::path::{control_msg, raw_path, End};
use crate::wire::{carry, end_of};
use crate::world::FabricWorld;

use super::{Done, MpiRank, MpiReq, Post, Posted, UnexKind, Unexpected};

fn matches(posted: &Posted, src: usize, tag: u64) -> bool {
    posted.src.map(|s| s == src).unwrap_or(true) && posted.tag.map(|t| t == tag).unwrap_or(true)
}

/// Launch the rendezvous data transfer once both sides are known, post
/// the sender's completion at the payload's departure, and return the
/// receiver's completion instant. Callable from task context (receive
/// found an RTS) or action context (RTS arrival found a posted receive).
#[allow(clippy::too_many_arguments)]
fn start_rndv(
    h: &SimHandle,
    world: &Rc<FabricWorld>,
    from: usize,
    to: usize,
    src_loc: Loc,
    dst_loc: Loc,
    len: u64,
    sender: Post,
) -> SimTime {
    let m = world.platform.mpi_p2p.clone();
    let src_end = end_of(world, from, &src_loc);
    let dst_end = end_of(world, to, &dst_loc);
    // Clear-to-send travels back to the sender...
    let cts = control_msg(h, &world.devs, dst_end, src_end, h.now());
    let data_start = cts + Dur::micros(m.rndv_hs_us);
    // ...then the payload streams over the path.
    let times = raw_path(h, &world.devs, src_end, dst_end, data_start, len, m.eff);
    carry(h, world, src_loc, dst_loc, len, times);
    sender.post_at(h, times.depart);
    times.arrive + Dur::micros(m.recv_o_us)
}

impl MpiRank {
    /// Non-blocking send (`MPI_Isend`).
    pub fn isend(
        &self,
        ctx: &mut Ctx,
        to: usize,
        tag: u64,
        src: Loc,
        len: u64,
    ) -> Result<MpiReq, MemError> {
        let world = &self.world;
        let m = world.platform.mpi_p2p.clone();
        src.check(&world.devs, len)?;
        ctx.delay(Dur::micros(m.send_o_us));
        let h = ctx.handle().clone();
        let from = self.rank;

        if len <= m.eager_max {
            // Eager: ship now, match (or park) at arrival.
            let src_end = end_of(world, from, &src);
            // Destination end is decided by the receive buffer; for path
            // purposes route to the target's node (header goes there; the
            // payload path to a device buffer differs negligibly at eager
            // sizes).
            let dst_end = End::Node(world.node_of(to));
            let snapshot = src.snapshot(&world.devs, len)?;
            let times = raw_path(&h, &world.devs, src_end, dst_end, ctx.now(), len.max(1), m.eff);
            let world2 = world.clone();
            h.schedule_at(times.arrive, move |h| {
                let mut ms = world2.mpi.matching[to].borrow_mut();
                if let Some(i) = ms.posted.iter().position(|p| matches(p, from, tag)) {
                    let p = ms.posted.remove(i);
                    assert!(len <= p.len, "eager message longer than receive buffer");
                    drop(ms);
                    if let Some(bytes) = &snapshot {
                        p.dst.deposit(&world2.devs, bytes);
                    }
                    p.done.post_at(h, h.now() + Dur::micros(m.recv_o_us));
                } else {
                    ms.unexpected.push(Unexpected {
                        src: from,
                        tag,
                        kind: UnexKind::Eager { data: snapshot, len },
                    });
                }
            });
            Ok(MpiReq(Done::At(times.depart)))
        } else {
            // Rendezvous: RTS first, data once matched.
            let src_end = End::Node(world.node_of(from));
            let dst_end = End::Node(world.node_of(to));
            let rts_arrive = control_msg(&h, &world.devs, src_end, dst_end, ctx.now());
            let sender = world.mpi.matching[from].borrow_mut().new_post(&h);
            let world2 = world.clone();
            let src2 = src.clone();
            h.schedule_at(rts_arrive, move |h| {
                let mut ms = world2.mpi.matching[to].borrow_mut();
                if let Some(i) = ms.posted.iter().position(|p| matches(p, from, tag)) {
                    let p = ms.posted.remove(i);
                    assert!(len <= p.len, "rendezvous message longer than receive buffer");
                    drop(ms);
                    let t = start_rndv(h, &world2, from, to, src2, p.dst, len, sender);
                    p.done.post_at(h, t);
                } else {
                    ms.unexpected.push(Unexpected {
                        src: from,
                        tag,
                        kind: UnexKind::Rts { src_loc: src2, len, sender },
                    });
                }
            });
            Ok(MpiReq(Done::Posted(sender)))
        }
    }

    /// Non-blocking receive (`MPI_Irecv`). `src`/`tag` of `None` are the
    /// `MPI_ANY_SOURCE` / `MPI_ANY_TAG` wildcards.
    pub fn irecv(
        &self,
        ctx: &mut Ctx,
        src: Option<usize>,
        tag: Option<u64>,
        dst: Loc,
        len: u64,
    ) -> Result<MpiReq, MemError> {
        let world = &self.world;
        let m = world.platform.mpi_p2p.clone();
        dst.check(&world.devs, len)?;
        let h = ctx.handle().clone();
        let to = self.rank;

        let mut ms = world.mpi.matching[to].borrow_mut();
        let hit = ms.unexpected.iter().position(|u| {
            src.map(|s| s == u.src).unwrap_or(true) && tag.map(|t| t == u.tag).unwrap_or(true)
        });
        let done = match hit {
            Some(i) => {
                let u = ms.unexpected.remove(i);
                drop(ms);
                Done::At(match u.kind {
                    UnexKind::Eager { data, len: mlen } => {
                        assert!(mlen <= len, "unexpected message longer than receive buffer");
                        if let Some(bytes) = &data {
                            dst.deposit(&world.devs, bytes);
                        }
                        // Unexpected-queue hit pays an extra staging copy.
                        let copy = Dur::nanos(
                            (mlen as f64 / world.platform.host_memcpy_gbps).ceil() as u64,
                        );
                        ctx.now() + Dur::micros(m.recv_o_us) + copy
                    }
                    UnexKind::Rts { src_loc, len: mlen, sender } => {
                        assert!(mlen <= len, "rendezvous message longer than receive buffer");
                        start_rndv(&h, world, u.src, to, src_loc, dst, mlen, sender)
                    }
                })
            }
            None => {
                let done = ms.new_post(&h);
                ms.posted.push(Posted { src, tag, dst, len, done });
                Done::Posted(done)
            }
        };
        Ok(MpiReq(done))
    }

    /// Blocking send (`MPI_Send`).
    pub fn send(
        &self,
        ctx: &mut Ctx,
        to: usize,
        tag: u64,
        src: Loc,
        len: u64,
    ) -> Result<(), MemError> {
        let r = self.isend(ctx, to, tag, src, len)?;
        self.wait(ctx, r);
        Ok(())
    }

    /// Blocking receive (`MPI_Recv`).
    pub fn recv(
        &self,
        ctx: &mut Ctx,
        src: Option<usize>,
        tag: Option<u64>,
        dst: Loc,
        len: u64,
    ) -> Result<(), MemError> {
        let r = self.irecv(ctx, src, tag, dst, len)?;
        self.wait(ctx, r);
        Ok(())
    }

    /// Paired exchange (`MPI_Sendrecv`): both transfers in flight at once.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &self,
        ctx: &mut Ctx,
        to: usize,
        stag: u64,
        src: Loc,
        slen: u64,
        from: Option<usize>,
        rtag: Option<u64>,
        dst: Loc,
        rlen: u64,
    ) -> Result<(), MemError> {
        let rr = self.irecv(ctx, from, rtag, dst, rlen)?;
        let sr = self.isend(ctx, to, stag, src, slen)?;
        self.wait(ctx, sr);
        self.wait(ctx, rr);
        Ok(())
    }
}
