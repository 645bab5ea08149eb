//! MPI+OpenMP implementation of Minimod (paper Listing 2).
//!
//! The halo exchange needs per-neighbour `Isend`/`Irecv` pairs, a request
//! array, and `Waitall` — plus `use_device_ptr`-style device-buffer
//! handling — roughly double the lines of the DiOMP version.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use diomp_device::{DataMode, DeviceTable, KernelBody};
use diomp_fabric::{FabricWorld, Loc, MpiRank, MpiReq};
use diomp_sim::{ClusterSpec, Dur, Sim, Topology};

use crate::matgen;

use super::{
    assemble_wavefield, initial_slab, interior_bytes, serial_reference, stencil_body, verify_slab,
    MinimodConfig, MinimodResult, SlabParts, RADIUS,
};

/// Run the MPI+OpenMP Minimod.
pub fn run(cfg: &MinimodConfig) -> MinimodResult {
    let mut sim = Sim::new();
    let cluster = ClusterSpec::with_total_gpus(cfg.platform.clone(), cfg.gpus);
    let topo = Arc::new(Topology::build(&sim.handle(), cluster));
    let cap = cfg.heap_bytes().max(64 << 20);
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), cfg.mode, Some(cap));
    let world = FabricWorld::new(topo, devs, cfg.gpus);

    let out: Rc<RefCell<(Dur, bool)>> = Rc::new(RefCell::new((Dur::ZERO, true)));
    let parts: SlabParts = Rc::new(RefCell::new(Vec::new()));
    let want_verify = cfg.verify && cfg.mode == DataMode::Functional;
    let functional = cfg.mode == DataMode::Functional;
    let reference =
        if want_verify { Arc::new(serial_reference(cfg)) } else { Arc::new(Vec::new()) };

    for r in 0..cfg.gpus {
        let world = world.clone();
        let out = out.clone();
        let parts = parts.clone();
        let reference = reference.clone();
        let cfg = cfg.clone();
        sim.spawn(format!("mpi-rank{r}"), move |ctx| {
            let mpi = MpiRank::new(world.clone(), r);
            let p = cfg.gpus;
            let nzl = cfg.nz_local();
            let plane = cfg.plane_bytes();
            let halo = cfg.halo_bytes();
            let slab = cfg.slab_bytes();
            let dev = world.primary_dev(r).clone();

            let mut u = dev.malloc(slab, 256).unwrap();
            let mut up = dev.malloc(slab, 256).unwrap();
            let mut un = dev.malloc(slab, 256).unwrap();
            if cfg.mode == DataMode::Functional {
                dev.mem.write(u, &matgen::to_bytes_f32(&initial_slab(&cfg, r))).unwrap();
            }
            mpi.barrier(ctx);

            let t0 = ctx.now();
            for step in 0..cfg.steps {
                // Listing-2-style halo exchange: request array, Isend and
                // Irecv per neighbour, Waitall.
                let mut reqs: Vec<MpiReq> = Vec::with_capacity(4);
                let tag_up = 9000 + 2 * step as u64;
                let tag_dn = 9001 + 2 * step as u64;
                if r + 1 < p {
                    reqs.push(
                        mpi.irecv(
                            ctx,
                            Some(r + 1),
                            Some(tag_dn),
                            Loc::dev(r, u + (RADIUS + nzl) as u64 * plane),
                            halo,
                        )
                        .unwrap(),
                    );
                    reqs.push(
                        mpi.isend(ctx, r + 1, tag_up, Loc::dev(r, u + nzl as u64 * plane), halo)
                            .unwrap(),
                    );
                }
                if r > 0 {
                    reqs.push(
                        mpi.irecv(ctx, Some(r - 1), Some(tag_up), Loc::dev(r, u), halo).unwrap(),
                    );
                    reqs.push(
                        mpi.isend(ctx, r - 1, tag_dn, Loc::dev(r, u + RADIUS as u64 * plane), halo)
                            .unwrap(),
                    );
                }
                // Interior sweep overlaps with the halo transfers (same
                // optimisation as the DiOMP version, for a fair baseline).
                let (ua, upa, una) = (u, up, un);
                let (nx, ny) = (cfg.nx, cfg.ny);
                let (first, last) = (r == 0, r == p - 1);
                let functional = cfg.mode == DataMode::Functional;
                let mk_body = move |zl: std::ops::Range<usize>| -> Option<KernelBody> {
                    if !functional {
                        return None;
                    }
                    Some(Box::new(move |mem: &diomp_device::DeviceMem| {
                        stencil_body(mem, ua, upa, una, nx, ny, nzl, zl, first, last)
                    }))
                };
                let inner = cfg.interior_planes();
                let stream = dev.acquire_stream(ctx);
                if inner > 0 {
                    dev.launch(
                        ctx.handle(),
                        stream,
                        &cfg.stencil_cost(inner),
                        mk_body(RADIUS..nzl - RADIUS),
                    );
                }
                mpi.waitall(ctx, &reqs);
                // Boundary sweep after the halos land.
                let low = 0..RADIUS.min(nzl);
                let high = nzl.saturating_sub(RADIUS).max(RADIUS)..nzl;
                if !low.is_empty() {
                    dev.launch(ctx.handle(), stream, &cfg.stencil_cost(low.len()), mk_body(low));
                }
                if !high.is_empty() {
                    dev.launch(ctx.handle(), stream, &cfg.stencil_cost(high.len()), mk_body(high));
                }
                let tail = dev.pool.borrow().tail(stream);
                dev.release_stream(stream);
                ctx.sleep_until(tail);
                mpi.barrier(ctx);

                let tmp = up;
                up = u;
                u = un;
                un = tmp;
            }
            mpi.barrier(ctx);
            let elapsed = ctx.now().since(t0);

            let mut ok = true;
            if cfg.mode == DataMode::Functional {
                let mut bytes = vec![0u8; slab as usize];
                dev.mem.read(u, &mut bytes).unwrap();
                if cfg.verify {
                    ok = verify_slab(&cfg, r, &matgen::from_bytes_f32(&bytes), &reference);
                    assert!(ok, "rank {r}: wavefield mismatch (MPI)");
                }
                parts.borrow_mut().push((r, interior_bytes(&cfg, &bytes)));
            }
            let mut o = out.borrow_mut();
            o.0 = o.0.max(elapsed);
            o.1 &= ok;
        });
    }
    let report = sim.run().unwrap();
    let (elapsed, verified) = *out.borrow();
    let collected = std::mem::take(&mut *parts.borrow_mut());
    let wavefield = if functional { Some(assemble_wavefield(cfg, collected)) } else { None };
    MinimodResult {
        elapsed,
        verified: verified && want_verify,
        entries: report.entries_processed,
        wavefield,
    }
}
