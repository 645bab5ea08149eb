//! MPI one-sided: windows, Put/Get, flush and fence.
//!
//! The Fig. 3/4 baseline. Structural costs relative to DiOMP's conduit
//! RMA (paper Fig. 1a): device memory must be registered into a *window*
//! (separately from the OpenMP mapping tables), every operation drags a
//! per-byte software pipeline, and visibility requires explicit window
//! synchronisation (`flush`/`fence`) on top of the transfer itself.

use diomp_device::MemError;
use diomp_sim::{Ctx, Dur};

use crate::loc::Loc;
use crate::path::{control_msg, raw_path, End};

use super::{MpiRank, WinPart, Window};

/// The per-byte software pipeline applies to the small-message path only;
/// above this size the implementation switches to zero-copy RDMA and
/// throughput is governed by the `put_eff`/`get_eff` wire efficiencies
/// (Fig. 3 shows the climb, Fig. 4 the saturating large-message curves).
const RMA_PIPELINE_MAX_BYTES: u64 = 16 << 10;

/// Window handle (index into the world's window table).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct WinId(pub usize);

fn end_of(world: &crate::world::FabricWorld, rank: usize, loc: &Loc) -> End {
    match loc.dev_flat() {
        Some(f) => End::Dev(f),
        None => End::Node(world.node_of(rank)),
    }
}

impl MpiRank {
    /// Collective window creation (`MPI_Win_create`): every rank
    /// contributes its local region; costs registration time and a
    /// metadata exchange.
    pub fn win_create(&self, ctx: &mut Ctx, base: Loc, len: u64) -> WinId {
        let world = self.world.clone();
        let m = world.platform.mpi_rma.clone();
        ctx.delay(Dur::micros(m.win_create_us));
        {
            let mut stage = world.mpi.win_stage.lock();
            let slots = stage.get_or_insert_with(|| vec![None; world.nranks]);
            assert!(slots[self.rank].is_none(), "rank {} double-staged a window", self.rank);
            slots[self.rank] = Some((base, len));
        }
        world.barrier.arrive_and_wait(ctx);
        {
            let mut stage = world.mpi.win_stage.lock();
            if let Some(slots) = stage.take() {
                let parts = slots
                    .into_iter()
                    .map(|s| {
                        let (base, len) = s.expect("missing window contribution");
                        WinPart { base, len }
                    })
                    .collect();
                let mut wins = world.mpi.windows.lock();
                wins.push(Window { parts, pending: vec![Vec::new(); world.nranks] });
                *world.mpi.last_win.lock() = wins.len() - 1;
            }
        }
        let id = WinId(*world.mpi.last_win.lock());
        // Second barrier: nobody may stage the next window (or use this
        // one) before everyone has read the id.
        world.barrier.arrive_and_wait(ctx);
        id
    }

    /// One-sided put into `target`'s window region (`MPI_Put`). Completion
    /// at the origin requires [`MpiRank::win_flush`].
    pub fn win_put(
        &self,
        ctx: &mut Ctx,
        win: WinId,
        target: usize,
        target_off: u64,
        src: Loc,
        len: u64,
    ) -> Result<(), MemError> {
        let world = self.world.clone();
        let m = world.platform.mpi_rma.clone();
        src.check(&world.devs, len)?;
        let dst_loc = {
            let wins = world.mpi.windows.lock();
            let part = &wins[win.0].parts[target];
            assert!(target_off + len <= part.len, "put beyond window part");
            part.base.offset_by(target_off)
        };
        // Origin software: fixed cost plus the per-byte pipeline that makes
        // MPI RMA latency climb across Fig. 3's 4 B – 8 KB range (capped:
        // the large-message path is zero-copy).
        let sw = len.min(RMA_PIPELINE_MAX_BYTES) as f64 * m.per_byte_ns;
        ctx.delay(Dur::micros(m.put_o_us) + Dur::nanos(sw as u64));
        let src_end = end_of(&world, self.rank, &src);
        let dst_end = end_of(&world, target, &dst_loc);
        let snapshot = src.snapshot(&world.devs, len)?;
        let h = ctx.handle();
        let times = raw_path(h, &world.devs, src_end, dst_end, ctx.now(), len, m.put_eff);
        if let Some(bytes) = snapshot {
            let devs = world.devs.clone();
            h.schedule_at(times.arrive, move |_| dst_loc.deposit(&devs, &bytes));
        }
        let ev = h.new_event();
        let ack = control_msg(h, &world.devs, dst_end, src_end, times.arrive);
        h.complete_at(ev, ack);
        world.mpi.windows.lock()[win.0].pending[self.rank].push(ev);
        Ok(())
    }

    /// One-sided get from `target`'s window region (`MPI_Get`).
    pub fn win_get(
        &self,
        ctx: &mut Ctx,
        win: WinId,
        target: usize,
        target_off: u64,
        dst: Loc,
        len: u64,
    ) -> Result<(), MemError> {
        let world = self.world.clone();
        let m = world.platform.mpi_rma.clone();
        dst.check(&world.devs, len)?;
        let src_loc = {
            let wins = world.mpi.windows.lock();
            let part = &wins[win.0].parts[target];
            assert!(target_off + len <= part.len, "get beyond window part");
            part.base.offset_by(target_off)
        };
        let sw = len.min(RMA_PIPELINE_MAX_BYTES) as f64 * m.per_byte_ns;
        ctx.delay(Dur::micros(m.get_o_us) + Dur::nanos(sw as u64));
        let local_end = end_of(&world, self.rank, &dst);
        let remote_end = end_of(&world, target, &src_loc);
        let h = ctx.handle().clone();
        let req = control_msg(&h, &world.devs, local_end, remote_end, ctx.now());
        let times = raw_path(&h, &world.devs, remote_end, local_end, req, len, m.get_eff);
        let devs = world.devs.clone();
        let h2 = h.clone();
        h.schedule_at(times.depart, move |_| {
            if let Some(bytes) = src_loc.snapshot(&devs, len).expect("bounds pre-checked") {
                let devs2 = devs.clone();
                h2.schedule_at(times.arrive, move |_| dst.deposit(&devs2, &bytes));
            }
        });
        let ev = h.new_event();
        h.complete_at(ev, times.arrive);
        world.mpi.windows.lock()[win.0].pending[self.rank].push(ev);
        Ok(())
    }

    /// Flush all of this origin's pending operations on the window
    /// (`MPI_Win_flush_all`).
    pub fn win_flush(&self, ctx: &mut Ctx, win: WinId) {
        let m = self.world.platform.mpi_rma.clone();
        ctx.delay(Dur::micros(m.flush_us));
        let pending = std::mem::take(&mut self.world.mpi.windows.lock()[win.0].pending[self.rank]);
        for ev in pending {
            ctx.wait_free(ev);
        }
    }
}
