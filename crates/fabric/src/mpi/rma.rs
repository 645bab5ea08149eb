//! MPI one-sided: windows, Put/Get, flush and fence.
//!
//! The Fig. 3/4 baseline. Structural costs relative to DiOMP's conduit
//! RMA (paper Fig. 1a): device memory must be registered into a *window*
//! (separately from the OpenMP mapping tables), every operation drags a
//! per-byte software pipeline, and visibility requires explicit window
//! synchronisation (`flush`/`fence`) on top of the transfer itself.

use diomp_device::MemError;
use diomp_sim::{Ctx, Dur, SimTime, Wait};

use crate::loc::Loc;
use crate::rendezvous::{after_hops, log2_ceil};
use crate::wire::{self, Price, Side};

use super::{MpiRank, WinPart, Window};

/// The per-byte software pipeline applies to the small-message path only;
/// above this size the implementation switches to zero-copy RDMA and
/// throughput is governed by the `put_eff`/`get_eff` wire efficiencies
/// (Fig. 3 shows the climb, Fig. 4 the saturating large-message curves).
const RMA_PIPELINE_MAX_BYTES: u64 = 16 << 10;

/// Window handle (index into the world's window table).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct WinId(pub usize);

impl MpiRank {
    /// Collective window creation (`MPI_Win_create`): every rank
    /// contributes its local region; costs registration time and a
    /// metadata exchange — the last arrival registers the window, and
    /// everyone holds its id one gather and one broadcast
    /// (2·⌈log2 n⌉ hops) later, before which nobody may use it.
    pub fn win_create(&self, ctx: &mut Ctx, base: Loc, len: u64) -> WinId {
        let world = &self.world;
        ctx.delay(Dur::micros(world.platform.mpi_rma.win_create_us));
        let register = |ctx: &mut Ctx, parts| {
            let mut wins = world.mpi.windows.borrow_mut();
            wins.push(Window { parts, pending: vec![Vec::new(); world.nranks] });
            let hop = Dur::micros(world.platform.net.latency_us);
            (after_hops(ctx, hop, 2 * log2_ceil(world.nranks)), WinId(wins.len() - 1))
        };
        world
            .mpi
            .win_meet
            .arrive(ctx, self.rank, WinPart { base, len }, Wait::Block, |_| false, register)
            .expect("a blocking arrival cannot time out")
    }

    /// Addressing: `[off, off + len)` of `target`'s part of the window.
    fn part(&self, win: WinId, target: usize, off: u64, len: u64) -> Side {
        let wins = self.world.mpi.windows.borrow();
        let part = &wins[win.0].parts[target];
        assert!(off.checked_add(len).is_some_and(|end| end <= part.len), "beyond window part");
        (target, part.base.offset_by(off))
    }

    /// Origin software: fixed cost plus the per-byte pipeline that makes
    /// MPI RMA latency climb across Fig. 3's 4 B – 8 KB range (capped:
    /// the large-message path is zero-copy).
    fn software(&self, base_us: f64, len: u64) -> Dur {
        let sw = len.min(RMA_PIPELINE_MAX_BYTES) as f64 * self.world.platform.mpi_rma.per_byte_ns;
        Dur::micros(base_us) + Dur::nanos(sw as u64)
    }

    /// Completion bookkeeping: one more origin-side completion instant
    /// for [`MpiRank::win_flush`] to wait for.
    fn pend(&self, win: WinId, done: SimTime) {
        self.world.mpi.windows.borrow_mut()[win.0].pending[self.rank].push(done);
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
        let m = &self.world.platform.mpi_rma;
        let dst = self.part(win, target, target_off, len);
        let price = Price { overhead: self.software(m.put_o_us, len), eff: m.put_eff };
        let wrote = wire::write(ctx, &self.world, (self.rank, src), dst, len, price)?;
        self.pend(win, wrote.acked);
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
        let m = &self.world.platform.mpi_rma;
        let src = self.part(win, target, target_off, len);
        let price = Price { overhead: self.software(m.get_o_us, len), eff: m.get_eff };
        let arrive = wire::read(ctx, &self.world, (self.rank, dst), src, len, price)?;
        self.pend(win, arrive);
        Ok(())
    }

    /// Flush all of this origin's pending operations on the window
    /// (`MPI_Win_flush_all`): one sleep, to the latest completion.
    pub fn win_flush(&self, ctx: &mut Ctx, win: WinId) {
        ctx.delay(Dur::micros(self.world.platform.mpi_rma.flush_us));
        let pending =
            std::mem::take(&mut self.world.mpi.windows.borrow_mut()[win.0].pending[self.rank]);
        if let Some(&latest) = pending.iter().max() {
            ctx.wait_until(latest, Wait::Block).expect("a blocking wait cannot time out");
        }
    }
}
