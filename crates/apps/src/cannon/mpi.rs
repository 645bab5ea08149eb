//! MPI+OpenMP implementation of the ring matmul (the Fig. 7 baseline).
//!
//! Same decomposition and overlap scheme as the DiOMP version, but each
//! half-stripe shift is a two-sided `Isend`/`Irecv` pair under one
//! `Waitall`, device buffers travel over CUDA-aware staging paths, and
//! device memory is managed by the baseline libomptarget-style allocator
//! — the extra machinery Listing 2 of the paper illustrates.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use diomp_device::{DataMode, DeviceTable, KernelBody};
use diomp_fabric::{FabricWorld, Loc, MpiRank};
use diomp_sim::{ClusterSpec, Dur, Sim, Topology};

use crate::matgen;

use super::{gemm_body, verify_stripe, CannonConfig, CannonResult};

/// Run the MPI+OpenMP ring matmul.
pub fn run(cfg: &CannonConfig) -> CannonResult {
    let mut sim = Sim::new();
    let cluster = ClusterSpec::with_total_gpus(cfg.platform.clone(), cfg.gpus);
    let topo = Arc::new(Topology::build(&sim.handle(), cluster));
    let cap = cfg.heap_bytes().max(64 << 20);
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), cfg.mode, Some(cap));
    let world = FabricWorld::new(topo, devs, cfg.gpus);

    let verified = cfg.verify && cfg.mode == DataMode::Functional;
    let out =
        Rc::new(RefCell::new(CannonResult { elapsed: Dur::ZERO, verified, nic_bytes_max: 0 }));

    for r in 0..cfg.gpus {
        let world = world.clone();
        let out = out.clone();
        let cfg = cfg.clone();
        sim.spawn(format!("mpi-rank{r}"), move |ctx| {
            let mpi = MpiRank::new(world.clone(), r);
            let p = cfg.gpus;
            let n = cfg.n;
            let ns = cfg.ns();
            let stripe = cfg.stripe_bytes();
            let dev = world.primary_dev(r).clone();

            // Baseline device allocation (cudaMalloc-style).
            let a = dev.malloc(stripe, 256).unwrap();
            let b0 = dev.malloc(stripe, 256).unwrap();
            let b1 = dev.malloc(stripe, 256).unwrap();
            let c = dev.malloc(stripe, 256).unwrap();
            if cfg.mode == DataMode::Functional {
                dev.mem.write(a, &matgen::to_bytes_f64(&matgen::a_stripe(n, r * ns, ns))).unwrap();
                dev.mem.write(b0, &matgen::to_bytes_f64(&matgen::b_stripe(n, r * ns, ns))).unwrap();
            }
            mpi.barrier(ctx);

            let t0 = ctx.now();
            let bufs = [b0, b1];
            // Top `h` rows forward, the rest backward (see `diomp::run`).
            let h = ns / 2;
            let top = (h * n * 8) as u64;
            let (left, right) = ((r + p - 1) % p, (r + 1) % p);
            for s in 0..p {
                let parts = [((r + s) % p, 0..h), ((r + p - s) % p, h..ns)];
                let cur = bufs[s % 2];
                let nxt = bufs[(s + 1) % 2];

                let body: Option<KernelBody> = if cfg.mode == DataMode::Functional {
                    let (aa, ba, ca) = (a, cur, c);
                    Some(Box::new(move |mem| gemm_body(mem, aa, ba, ca, ns, n, &parts)))
                } else {
                    None
                };
                let stream = dev.acquire_stream(ctx);
                let kernel_done = dev.launch(ctx.handle(), stream, &cfg.gemm_cost(), body);
                dev.release_stream(stream);

                // Ring shift with explicit two-sided messaging: the top
                // half moves right → left, the bottom half left → right.
                if s + 1 < p {
                    let mut reqs = Vec::with_capacity(4);
                    for (from, to, off, len) in
                        [(right, left, 0, top), (left, right, top, stripe - top)]
                    {
                        let tag = 7000 + 2 * s as u64 + u64::from(off > 0);
                        let dst = Loc::dev(r, nxt + off);
                        reqs.push(mpi.irecv(ctx, Some(from), Some(tag), dst, len).unwrap());
                        reqs.push(mpi.isend(ctx, to, tag, Loc::dev(r, cur + off), len).unwrap());
                    }
                    mpi.waitall(ctx, &reqs);
                }
                ctx.sleep_until(kernel_done);
                mpi.barrier(ctx);
            }
            let elapsed = ctx.now().since(t0);

            let mut ok = true;
            if cfg.verify && cfg.mode == DataMode::Functional {
                let mut bytes = vec![0u8; stripe as usize];
                dev.mem.read(c, &mut bytes).unwrap();
                ok = verify_stripe(&matgen::from_bytes_f64(&bytes), n, r, ns);
                assert!(ok, "rank {r}: C stripe mismatch (MPI)");
            }
            let mut o = out.borrow_mut();
            o.elapsed = o.elapsed.max(elapsed);
            o.verified &= ok;
            o.nic_bytes_max = o.nic_bytes_max.max(ctx.handle().resource_bytes(dev.nic));
        });
    }
    sim.run().unwrap();
    let result = *out.borrow();
    result
}
