//! One-sided RMA with topology-aware hierarchical path selection
//! (paper §3.2).
//!
//! `ompx_put` / `ompx_get` resolve the transfer path at runtime:
//!
//! * same device → local copy engine,
//! * same node + GPUDirect P2P enabled → direct NVLink/xGMI peer copy,
//! * same node, different process, no P2P → IPC staging through host
//!   shared memory,
//! * different nodes → the conduit (GASNet-EX Put/Get or GPI-2
//!   write/read, per configuration).
//!
//! Every operation is *fence-tracked*: its remote-completion event is
//! appended to the rank's pending list and drained by `ompx_fence`
//! (Listing 1 of the paper: a loop of `ompx_put` calls followed by one
//! `ompx_fence`). No path parks the caller on a payload: a transfer is
//! a reservation, or a chain of them, made in the call, which costs the
//! initiator's software. Device-side copies are additionally threaded
//! through the source device's bounded stream pool, coupling
//! communication with stream lifecycle exactly as §3.2 describes.

use std::sync::Arc;

use diomp_device::copy;
use diomp_fabric::{gasnet, gpi, FabricError, FabricWorld, Loc};
use diomp_sim::{Ctx, Dur, Placement, SimTime, Wait};

use crate::config::Conduit;
use crate::error::DiompError;
use crate::gptr::{AsymPtr, GPtr};
use crate::runtime::DiompRank;

impl DiompRank {
    /// Record a completion for the fence to drain.
    fn track(&self, ev: diomp_sim::EventId) {
        self.shared.pending[self.rank].lock().push(ev);
    }

    /// Record a completion at instant `t` for the fence to drain.
    fn track_at(&self, h: &diomp_sim::SimHandle, t: SimTime) {
        let ev = h.new_event();
        h.complete_at(ev, t);
        self.track(ev);
    }

    /// Post one GPI-2 operation with the GASPI recovery loop: a post
    /// that hits an errored queue (a transient injected fault, or real
    /// queue failure) is retried after `gaspi_queue_purge` plus an
    /// exponentially-doubling virtual-time backoff, up to the configured
    /// budget. Safe to repeat because a failed post fails *before* any
    /// bytes are scheduled — nothing partial is ever re-sent. Retries
    /// taken are counted on [`DiompRank::rma_retries`].
    pub(crate) fn gpi_retry(
        &mut self,
        ctx: &mut Ctx,
        world: &Arc<FabricWorld>,
        queue: gpi::QueueId,
        mut post: impl FnMut(&mut Ctx) -> Result<(), FabricError>,
    ) -> Result<(), DiompError> {
        let budget = self.shared.cfg.max_rma_retries;
        let mut backoff = Dur::micros(self.shared.cfg.retry_backoff_us);
        let mut attempt = 0;
        loop {
            match post(ctx) {
                Ok(()) => return Ok(()),
                Err(FabricError::QueueError { .. }) if attempt < budget => {
                    attempt += 1;
                    self.rma_retries += 1;
                    gpi::queue_purge(ctx.handle(), world, self.rank, queue);
                    ctx.delay(backoff);
                    backoff += backoff;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Thread a device-side transfer through the source device's stream
    /// pool (lazy/reused/bounded, paper §3.2) and produce its tracked
    /// completion event.
    fn track_device_copy(&self, ctx: &mut Ctx, src_flat: usize, done: SimTime) {
        let dev = self.shared.world.devs.dev(src_flat).clone();
        let s = dev.acquire_stream(ctx);
        {
            let mut pool = dev.pool.lock();
            pool.advance_tail(s, done);
        }
        let ev = dev.pool.lock().record_event(ctx.handle(), s);
        dev.release_stream(s);
        self.track(ev);
    }

    /// Core one-sided put between device segments:
    /// `dst_dev[dst_off] ← src_dev[src_off]`, `len` bytes, where offsets
    /// are *segment* offsets. Non-blocking; completion is observed by
    /// `ompx_fence`.
    pub fn put_dev(
        &mut self,
        ctx: &mut Ctx,
        src_flat: usize,
        src_off: u64,
        dst_flat: usize,
        dst_off: u64,
        len: u64,
    ) -> Result<(), DiompError> {
        assert!(self.my_devices().contains(&src_flat), "put source must be a local device");
        let s = self.shared.clone();
        let w = &s.world;
        let src_loc = w.devs.dev(src_flat).loc;
        let dst_loc = w.devs.dev(dst_flat).loc;
        let h = ctx.handle().clone();
        match w.topo.placement(src_loc, dst_loc) {
            Placement::SameDevice => {
                let done = copy::d2d_local(
                    &h,
                    w.devs.dev(src_flat),
                    s.seg_base[src_flat] + src_off,
                    s.seg_base[dst_flat] + dst_off,
                    len,
                )?;
                self.track_device_copy(ctx, src_flat, done);
            }
            Placement::SameNode => {
                let same_rank = self.my_devices().contains(&dst_flat);
                let p2p = s.cfg.use_p2p && w.devs.dev(src_flat).peer_enabled(dst_flat);
                if same_rank || p2p {
                    let done = copy::d2d_peer(
                        &h,
                        w.devs.dev(src_flat),
                        s.seg_base[src_flat] + src_off,
                        w.devs.dev(dst_flat),
                        s.seg_base[dst_flat] + dst_off,
                        len,
                    )?;
                    self.track_device_copy(ctx, src_flat, done);
                } else {
                    // IPC staging: pay the one-time handle-open cost.
                    let setup = w
                        .devs
                        .dev(src_flat)
                        .open_ipc(dst_flat, Dur::micros(w.platform.intra.ipc_setup_us));
                    if setup > Dur::ZERO {
                        ctx.delay(setup);
                    }
                    let done = copy::d2d_ipc(
                        &h,
                        w.devs.dev(src_flat),
                        s.seg_base[src_flat] + src_off,
                        w.devs.dev(dst_flat),
                        s.seg_base[dst_flat] + dst_off,
                        len,
                        w.topo.shm(src_loc.node),
                    )?;
                    self.track_device_copy(ctx, src_flat, done);
                }
            }
            Placement::InterNode => {
                let pipe = s.cfg.pipeline;
                match s.cfg.conduit {
                    Conduit::GasnetEx => {
                        if pipe.pipelines(len)
                            && gasnet::put_capped(w, true, pipe.chunk_bytes.min(len))
                        {
                            // The direct device-source path is
                            // bandwidth-capped (the documented Fig. 4a
                            // anomaly): bounce the chunks through host
                            // memory, which the cap does not affect.
                            self.put_gasnet_staged(ctx, src_flat, src_off, dst_flat, dst_off, len)?;
                        } else {
                            // Each chunk (the whole message, unpipelined)
                            // is its own `gex_RMA_PutNB` straight from
                            // device memory (GPUDirect). The NIC pipelines
                            // the injections; per-chunk initiator overhead
                            // hides under the wire time.
                            for (coff, clen) in pipe.chunks(len) {
                                let hdl = gasnet::put_nb(
                                    ctx,
                                    w,
                                    self.rank,
                                    Loc::dev(src_flat, s.seg_base[src_flat] + src_off + coff),
                                    s.seg[dst_flat],
                                    dst_off + coff,
                                    clen,
                                )?;
                                // Fence drains both: local completion
                                // (source buffer reuse) and the remote ack.
                                self.track(hdl.local);
                                self.track(hdl.remote);
                            }
                        }
                    }
                    Conduit::Gpi2 => {
                        // Chunk completions round-robin across the
                        // configured queue set; a monolithic write posts
                        // to queue 0. `ompx_fence` drains every queue.
                        // Each post runs under the GASPI recovery loop.
                        let rank = self.rank;
                        for (i, (coff, clen)) in pipe.chunks(len).enumerate() {
                            let q = gpi::QueueId((i % pipe.n_queues.max(1) as usize) as u8);
                            let world = s.world.clone();
                            let src = Loc::dev(src_flat, s.seg_base[src_flat] + src_off + coff);
                            let seg = s.seg[dst_flat];
                            self.gpi_retry(ctx, &s.world, q, move |ctx| {
                                gpi::write(
                                    ctx,
                                    &world,
                                    rank,
                                    q,
                                    src.clone(),
                                    seg,
                                    dst_off + coff,
                                    clen,
                                )
                            })?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Core one-sided get: `src_dev_local[dst_off] ← remote[src_off]`.
    /// Non-blocking; completion via `ompx_fence`.
    pub fn get_dev(
        &mut self,
        ctx: &mut Ctx,
        local_flat: usize,
        local_off: u64,
        remote_flat: usize,
        remote_off: u64,
        len: u64,
    ) -> Result<(), DiompError> {
        assert!(self.my_devices().contains(&local_flat), "get destination must be local");
        let s = self.shared.clone();
        let w = &s.world;
        let lloc = w.devs.dev(local_flat).loc;
        let rloc = w.devs.dev(remote_flat).loc;
        let h = ctx.handle().clone();
        match w.topo.placement(lloc, rloc) {
            Placement::SameDevice | Placement::SameNode => {
                // Intra-node gets run as reversed peer/local copies: the
                // initiator's GPU engines pull over NVLink/xGMI.
                let done = if lloc == rloc {
                    copy::d2d_local(
                        &h,
                        w.devs.dev(local_flat),
                        s.seg_base[remote_flat] + remote_off,
                        s.seg_base[local_flat] + local_off,
                        len,
                    )?
                } else {
                    copy::d2d_peer(
                        &h,
                        w.devs.dev(remote_flat),
                        s.seg_base[remote_flat] + remote_off,
                        w.devs.dev(local_flat),
                        s.seg_base[local_flat] + local_off,
                        len,
                    )?
                };
                self.track_device_copy(ctx, local_flat, done);
            }
            Placement::InterNode => {
                let pipe = s.cfg.pipeline;
                match s.cfg.conduit {
                    Conduit::GasnetEx => {
                        if pipe.pipelines(len)
                            && gasnet::put_capped(w, true, pipe.chunk_bytes.min(len))
                        {
                            // Host-capped platform (the documented Fig. 4a
                            // device-DMA driver issue): route the large get
                            // through the host-staged pipeline too, so the
                            // deposit side never rides the fragile direct
                            // device path.
                            self.get_gasnet_staged(
                                ctx,
                                local_flat,
                                local_off,
                                remote_flat,
                                remote_off,
                                len,
                            )?;
                        } else {
                            // Chunked gets issue one non-blocking injection
                            // per chunk; the requests pipeline on the wire
                            // and the fence drains all completions at once.
                            for (coff, clen) in pipe.chunks(len) {
                                let (ev, _) = gasnet::get_nb(
                                    ctx,
                                    w,
                                    self.rank,
                                    Loc::dev(local_flat, s.seg_base[local_flat] + local_off + coff),
                                    s.seg[remote_flat],
                                    remote_off + coff,
                                    clen,
                                )?;
                                self.track(ev);
                            }
                        }
                    }
                    Conduit::Gpi2 => {
                        let rank = self.rank;
                        for (i, (coff, clen)) in pipe.chunks(len).enumerate() {
                            let q = gpi::QueueId((i % pipe.n_queues.max(1) as usize) as u8);
                            let world = s.world.clone();
                            let dst =
                                Loc::dev(local_flat, s.seg_base[local_flat] + local_off + coff);
                            let seg = s.seg[remote_flat];
                            self.gpi_retry(ctx, &s.world, q, move |ctx| {
                                gpi::read(
                                    ctx,
                                    &world,
                                    rank,
                                    q,
                                    dst.clone(),
                                    seg,
                                    remote_off + coff,
                                    clen,
                                )
                            })?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The bounded ring of host staging buffers a staged transfer bounces
    /// its chunks through: `max_inflight` slots of `chunk_bytes`, backed
    /// only when the run carries bytes.
    fn staging_ring(&self) -> Vec<diomp_device::HostBuf> {
        use diomp_device::{DataMode, HostBuf};
        let pipe = self.shared.cfg.pipeline;
        let functional = self.shared.world.devs.mode == DataMode::Functional;
        let slot = if functional { HostBuf::zeroed } else { HostBuf::phantom };
        (0..pipe.max_inflight.max(1)).map(|_| slot(pipe.chunk_bytes)).collect()
    }

    /// Chunked inter-node put over GASNet-EX, staged through host memory
    /// (paper §3.2: device-side copies overlapping conduit transfers) —
    /// the regime for a bandwidth-capped direct device-source path (the
    /// Platform A Fig. 4a anomaly, [`gasnet::put_capped`]), which a
    /// host-source put is not subject to.
    ///
    /// Non-blocking: a chain of reservations made in the call (DESIGN
    /// D8). Chunk `k`'s D2H is ready when the put that last read its
    /// staging slot completed locally (`GEX_EVENT_LC`; `max_inflight`
    /// slots bound the look-ahead), its injection when that D2H is done
    /// and the previous injection's software has run: the per-chunk
    /// initiator overhead is charged serially on a progress lane, and the
    /// caller pays one, beside chunk 0's D2H. The NIC reads a slot as it
    /// releases it — the earliest the slot's next D2H starts, whose bytes
    /// land a link latency later, so never on an unread slot.
    fn put_gasnet_staged(
        &mut self,
        ctx: &mut Ctx,
        src_flat: usize,
        src_off: u64,
        dst_flat: usize,
        dst_off: u64,
        len: u64,
    ) -> Result<(), DiompError> {
        let s = self.shared.clone();
        let w = &s.world;
        let src_base = s.seg_base[src_flat] + src_off;
        let dev = w.devs.dev(src_flat).clone();
        let bufs = self.staging_ring();
        let (h, now, overhead) = (ctx.handle(), ctx.now(), gasnet::put_overhead(w));
        let mut slot_free = vec![now; bufs.len()];
        let (mut staged, mut injected) = (now, now);
        for (k, (coff, clen)) in s.cfg.pipeline.chunks(len).enumerate() {
            let slot = k % bufs.len();
            staged = copy::d2h(h, &dev, src_base + coff, &bufs[slot], 0, clen, slot_free[slot])?;
            injected = staged.max(injected) + overhead;
            let (src, seg) = (Loc::host(bufs[slot].clone(), 0), s.seg[dst_flat]);
            let (local, remote) =
                gasnet::put_nb_from(h, w, self.rank, src, seg, dst_off + coff, clen, injected)?;
            slot_free[slot] = local;
            self.track_at(h, remote);
        }
        // Local completions are FIFO on the NIC: the latest covers them all.
        self.track_at(h, slot_free.into_iter().max().expect("a staging ring has a slot"));
        let stream = dev.acquire_stream(ctx);
        dev.pool.lock().advance_tail(stream, staged);
        dev.release_stream(stream);
        ctx.delay(overhead);
        Ok(())
    }

    /// Chunked inter-node get staged through host bounce buffers — the
    /// get-side counterpart of [`Self::put_gasnet_staged`], used on
    /// host-capped platforms (where the documented Fig. 4a driver issue
    /// makes the direct device DMA path the fragile one) under a
    /// pipelining config such as the autotuner's.
    ///
    /// Non-blocking like every other get path: each chunk lands in one
    /// of `max_inflight` host bounce buffers via `gex_RMA_GetNB`, and
    /// its H2D upload is *scheduled at the chunk's modelled arrival
    /// instant* ([`gasnet::get_nb`] guarantees the upload's
    /// snapshot runs after the deposit), so uploads overlap later
    /// chunks' wire time without ever synchronising the issuing task —
    /// it returns immediately and `ompx_fence` drains both the chunk
    /// arrivals and the upload completions. The uploads charge the
    /// host-to-device lane of the destination's host link directly — a
    /// staged put's D2H copies, on the other lane, never delay them —
    /// and bypass the bounded stream pool (a scheduled completion action
    /// cannot acquire a stream); stream-pool coupling remains a put-side
    /// property.
    ///
    /// Slot reuse is race-free without any waiting: arrivals on one NIC
    /// are FIFO, so chunk `k`'s upload snapshot (at its arrival) always
    /// precedes chunk `k + max_inflight`'s deposit into the same buffer
    /// (at a strictly later arrival).
    fn get_gasnet_staged(
        &mut self,
        ctx: &mut Ctx,
        local_flat: usize,
        local_off: u64,
        remote_flat: usize,
        remote_off: u64,
        len: u64,
    ) -> Result<(), DiompError> {
        let s = self.shared.clone();
        let w = &s.world;
        let pipe = s.cfg.pipeline;
        let dev = w.devs.dev(local_flat).clone();
        let dst_base = s.seg_base[local_flat] + local_off;
        // Pre-check the device destination range once, so the scheduled
        // upload actions can rely on bounds like every other deposit.
        Loc::dev(local_flat, dst_base).check(&w.devs, len)?;
        let bufs = self.staging_ring();
        let nslots = bufs.len();
        for (k, (coff, clen)) in pipe.chunks(len).enumerate() {
            let slot = k % nslots;
            let (arrival_ev, arrive) = gasnet::get_nb(
                ctx,
                w,
                self.rank,
                Loc::host(bufs[slot].clone(), 0),
                s.seg[remote_flat],
                remote_off + coff,
                clen,
            )?;
            self.track(arrival_ev);
            // Upload the chunk the moment it lands; completion is a
            // fence-tracked event completed by the scheduled action.
            let up_ev = ctx.new_event();
            let dev = dev.clone();
            let buf = bufs[slot].clone();
            ctx.handle().schedule_at(arrive, move |h| {
                let done = copy::h2d(h, &dev, &buf, 0, dst_base + coff, clen)
                    .expect("staged-get bounds pre-checked");
                h.complete_at(up_ev, done);
            });
            self.track(up_ev);
        }
        Ok(())
    }

    /// `ompx_put`: push `len` bytes of the symmetric allocation `src`
    /// (from this rank's primary device, at `src_delta`) into rank
    /// `target`'s copy of `dst` at `dst_delta`. Offset translation is
    /// pure arithmetic (Fig. 2): same symmetric offset, target's base.
    #[allow(clippy::too_many_arguments)]
    pub fn put(
        &mut self,
        ctx: &mut Ctx,
        target: usize,
        dst: GPtr,
        dst_delta: u64,
        src: GPtr,
        src_delta: u64,
        len: u64,
    ) -> Result<(), DiompError> {
        assert!(dst.covers(dst_delta, len) && src.covers(src_delta, len), "put out of bounds");
        let src_flat = self.primary();
        let dst_flat = self.shared.world.devices_of(target).start;
        self.put_dev(ctx, src_flat, src.off + src_delta, dst_flat, dst.off + dst_delta, len)
    }

    /// `ompx_get`: fetch from rank `target`'s symmetric allocation into
    /// this rank's primary device.
    #[allow(clippy::too_many_arguments)]
    pub fn get(
        &mut self,
        ctx: &mut Ctx,
        target: usize,
        src: GPtr,
        src_delta: u64,
        dst: GPtr,
        dst_delta: u64,
        len: u64,
    ) -> Result<(), DiompError> {
        assert!(src.covers(src_delta, len) && dst.covers(dst_delta, len), "get out of bounds");
        let local_flat = self.primary();
        let remote_flat = self.shared.world.devices_of(target).start;
        self.get_dev(ctx, local_flat, dst.off + dst_delta, remote_flat, src.off + src_delta, len)
    }

    /// Resolve a remote asymmetric allocation to its data offset: cache
    /// hit is free; a miss pays a real 8-byte fetch of the second-level
    /// wrapper from the remote device (paper §3.2's two-stage access).
    pub fn resolve_asym(
        &mut self,
        ctx: &mut Ctx,
        target_flat: usize,
        ptr: &AsymPtr,
    ) -> Result<u64, DiompError> {
        let s = self.shared.clone();
        if let Some(off) = self.cache.lookup(&s.asym_reg, target_flat, ptr.wrapper_off) {
            return Ok(off);
        }
        // Stage 1: fetch the wrapper (8 bytes) from the remote segment.
        let staging = diomp_device::HostBuf::zeroed(8);
        let (ev, _) = gasnet::get_nb(
            ctx,
            &s.world,
            self.rank,
            Loc::host(staging.clone(), 0),
            s.seg[target_flat],
            ptr.wrapper_off,
            8,
        )?;
        ctx.drain(&[ev], Wait::Block).expect("a blocking drain cannot time out");
        let authoritative =
            s.asym_reg.lookup(target_flat, ptr.wrapper_off).expect("asym ptr freed mid-access");
        if s.world.devs.mode == diomp_device::DataMode::Functional {
            let fetched = u64::from_le_bytes(staging.to_bytes()[..8].try_into().unwrap());
            assert_eq!(
                fetched, authoritative,
                "wrapper bytes in device memory diverged from the registry"
            );
        }
        self.cache.insert(target_flat, ptr.wrapper_off, authoritative);
        Ok(authoritative)
    }

    /// `ompx_put` into a remote *asymmetric* allocation: two-stage unless
    /// the second-level pointer is cached.
    #[allow(clippy::too_many_arguments)]
    pub fn put_asym(
        &mut self,
        ctx: &mut Ctx,
        target: usize,
        dst: &AsymPtr,
        dst_delta: u64,
        src: GPtr,
        src_delta: u64,
        len: u64,
    ) -> Result<(), DiompError> {
        let target_flat = self.shared.world.devices_of(target).start;
        let data_off = self.resolve_asym(ctx, target_flat, dst)?;
        let src_flat = self.primary();
        self.put_dev(ctx, src_flat, src.off + src_delta, target_flat, data_off + dst_delta, len)
    }

    /// `ompx_get` from a remote asymmetric allocation.
    #[allow(clippy::too_many_arguments)]
    pub fn get_asym(
        &mut self,
        ctx: &mut Ctx,
        target: usize,
        src: &AsymPtr,
        src_delta: u64,
        dst: GPtr,
        dst_delta: u64,
        len: u64,
    ) -> Result<(), DiompError> {
        let target_flat = self.shared.world.devices_of(target).start;
        let data_off = self.resolve_asym(ctx, target_flat, src)?;
        let local_flat = self.primary();
        self.get_dev(ctx, local_flat, dst.off + dst_delta, target_flat, data_off + src_delta, len)
    }
}
