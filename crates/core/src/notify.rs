//! Notified one-sided RMA: `ompx_put_notify` and ranged notification
//! draining (GPI-2 conduit only).
//!
//! The GASPI-style alternative to fence/barrier synchronisation: a put
//! carries a notification id+value that becomes visible at the *target*
//! strictly after the payload, so the target learns about remote-write
//! completion without a round of global synchronisation. This is the
//! primitive behind notification-driven halo exchange
//! (`diomp_apps::minimod` with `HaloStyle::NotifyWaitsome`): post one
//! notified put per face, then drain arrivals with one
//! [`DiompRank::notify_waitsome`] loop — no per-step barrier.
//!
//! Notified puts always travel through the GPI-2 conduit (like real
//! GASPI, where same-node writes still go through the runtime): they are
//! not routed to the GPUDirect-P2P/IPC fast paths and are not
//! chunk-pipelined — the notification must trail the *whole* payload,
//! which a single conduit write guarantees by FIFO link order.

use diomp_fabric::gpi;
use diomp_sim::{Ctx, Wait};

use crate::config::Conduit;
use crate::error::DiompError;
use crate::gptr::GPtr;
use crate::runtime::DiompRank;

impl DiompRank {
    /// `ompx_put_notify`: like [`DiompRank::put`], but once the payload
    /// is deposited at rank `target`, notification `id` with `value`
    /// (non-zero) becomes visible on the target's notification board.
    ///
    /// Local completion is tracked on the conduit queues and drained by
    /// `ompx_fence` like any other RMA. Remote completion is what the
    /// notification itself signals — the target observes it with
    /// [`DiompRank::notify_wait`] / [`DiompRank::notify_waitsome`].
    ///
    /// Requires [`Conduit::Gpi2`] (and therefore an InfiniBand platform).
    #[allow(clippy::too_many_arguments)]
    pub fn put_notify(
        &mut self,
        ctx: &mut Ctx,
        target: usize,
        dst: GPtr,
        dst_delta: u64,
        src: GPtr,
        src_delta: u64,
        len: u64,
        id: u32,
        value: u64,
    ) -> Result<(), DiompError> {
        assert!(
            dst.covers(dst_delta, len) && src.covers(src_delta, len),
            "put_notify out of bounds"
        );
        self.require_gpi2("put_notify");
        let s = self.shared.clone();
        let src_flat = self.primary();
        let dst_flat = s.world.devices_of(target).start;
        // Spread notified writes across the configured queue set by id so
        // independent faces do not serialise their completion tracking.
        let nq = s.cfg.pipeline.n_queues.max(1) as u32;
        let q = gpi::QueueId((id % nq) as u8);
        let rank = self.rank;
        let src_loc = diomp_fabric::Loc::dev(src_flat, s.seg_base[src_flat] + src.off + src_delta);
        let seg = s.seg[dst_flat];
        let dst_off = dst.off + dst_delta;
        // Notified puts run under the same GASPI recovery loop as plain
        // RMA: an errored queue is purged and the whole write_notify
        // reposted (payload + notification travel together, so the retry
        // re-arms both).
        let world = s.world.clone();
        self.gpi_retry(ctx, &s.world, q, move |ctx| {
            gpi::write_notify(ctx, &world, rank, q, src_loc.clone(), seg, dst_off, len, id, value)
        })?;
        Ok(())
    }

    /// Fail fast on conduit misuse: draining a board nobody can post to
    /// would otherwise surface as an opaque whole-simulation deadlock.
    fn require_gpi2(&self, what: &str) {
        assert!(
            self.shared.cfg.conduit == Conduit::Gpi2,
            "{what} requires the GPI-2 conduit (DiompConfigBuilder::with_conduit)"
        );
    }

    /// Block until some notification in `[first_id, first_id + num_ids)`
    /// has arrived at this rank; atomically consume the lowest posted id
    /// and return `(id, value)` (`gaspi_notify_waitsome` +
    /// `gaspi_notify_reset`). Parks once on the whole range. The
    /// blocking convenience over [`DiompRank::notify_waitsome_with`].
    pub fn notify_waitsome(&mut self, ctx: &mut Ctx, first_id: u32, num_ids: u32) -> (u32, u64) {
        self.notify_waitsome_with(ctx, first_id, num_ids, Wait::Block)
            .expect("GASPI_BLOCK cannot time out")
    }

    /// [`DiompRank::notify_waitsome`] under an explicit wait discipline
    /// (`gaspi_notify_waitsome` with `GASPI_BLOCK` or a real timeout).
    /// On [`DiompError::Fabric`] timeout nothing is consumed; late
    /// notifications stay posted for the next wait — the building block
    /// of lost-notification recovery protocols.
    pub fn notify_waitsome_with(
        &mut self,
        ctx: &mut Ctx,
        first_id: u32,
        num_ids: u32,
        wait: Wait,
    ) -> Result<(u32, u64), DiompError> {
        self.require_gpi2("notify_waitsome");
        gpi::notify_waitsome(ctx, &self.shared.world, self.rank, first_id, num_ids, wait)
            .map_err(Into::into)
    }

    /// Block until notification `id` arrives at this rank; consume and
    /// return its value. Single-id [`DiompRank::notify_waitsome`].
    pub fn notify_wait(&mut self, ctx: &mut Ctx, id: u32) -> u64 {
        self.require_gpi2("notify_wait");
        gpi::notify_wait(ctx, &self.shared.world, self.rank, id)
    }

    /// Non-blocking consume of notification `id` at this rank
    /// (`gaspi_notify_reset`): the posted value, or `None`.
    pub fn notify_reset(&self, ctx: &Ctx, id: u32) -> Option<u64> {
        self.require_gpi2("notify_reset");
        gpi::notify_reset(ctx, &self.shared.world, self.rank, id)
    }

    /// The fabric's per-rank health vector (`gaspi_state_vec`).
    pub fn health(&self) -> diomp_fabric::HealthVec {
        self.shared.world.health()
    }
}
