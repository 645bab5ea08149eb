//! DiOMP implementation of the ring matmul.
//!
//! Stripes live in the symmetric global heap, so each step's shift is
//! two `ompx_get`s — the next top half out of the right neighbour's
//! buffer, the next bottom half out of the left's — with no receive
//! posting and no request arrays (cf. Listing 1 vs 2 of the paper), and
//! intra-node hops ride GPUDirect P2P automatically.

use std::cell::RefCell;
use std::rc::Rc;

use diomp_core::{DiompConfig, DiompRuntime};
use diomp_device::{DataMode, KernelBody};
use diomp_sim::{ClusterSpec, Dur};

use crate::matgen;

use super::{gemm_body, verify_stripe, CannonConfig, CannonResult};

/// Run the DiOMP ring matmul; returns the timed phase (max over ranks).
pub fn run(cfg: &CannonConfig) -> CannonResult {
    let cluster = ClusterSpec::with_total_gpus(cfg.platform.clone(), cfg.gpus);
    let dcfg = DiompConfig::builder(cluster)
        .with_mode(cfg.mode)
        .with_allocator(diomp_core::AllocKind::Linear)
        .with_heap(cfg.heap_bytes())
        .build();
    let verified = cfg.verify && cfg.mode == DataMode::Functional;
    let out =
        Rc::new(RefCell::new(CannonResult { elapsed: Dur::ZERO, verified, nic_bytes_max: 0 }));
    let out2 = out.clone();
    let cfg = cfg.clone();

    DiompRuntime::run(dcfg, move |ctx, rank| {
        let p = rank.nranks();
        let r = rank.rank;
        let n = cfg.n;
        let ns = cfg.ns();
        let stripe = cfg.stripe_bytes();
        let dev = rank.primary();

        // Stripes in the symmetric heap: A, B (double-buffered), C.
        let a = rank.alloc_sym(ctx, stripe).unwrap();
        let b0 = rank.alloc_sym(ctx, stripe).unwrap();
        let b1 = rank.alloc_sym(ctx, stripe).unwrap();
        let c = rank.alloc_sym(ctx, stripe).unwrap();
        if cfg.mode == DataMode::Functional {
            rank.write_local(dev, a, 0, &matgen::to_bytes_f64(&matgen::a_stripe(n, r * ns, ns)));
            rank.write_local(dev, b0, 0, &matgen::to_bytes_f64(&matgen::b_stripe(n, r * ns, ns)));
        }
        rank.barrier(ctx);

        let t0 = ctx.now();
        let bufs = [b0, b1];
        // The top `h` rows of each stripe travel the ring forward, the
        // `ns − h` below backward: at step `s` the held buffer is the top
        // of stripe `r+s` over the bottom of stripe `r−s`.
        let h = ns / 2;
        let top = (h * n * 8) as u64;
        for s in 0..p {
            let parts = [((r + s) % p, 0..h), ((r + p - s) % p, h..ns)];
            let cur = bufs[s % 2];
            let nxt = bufs[(s + 1) % 2];

            // Launch the block GEMM on this device (nowait).
            let body: Option<KernelBody> = if cfg.mode == DataMode::Functional {
                let (aa, ba, ca) = (
                    rank.dev_addr(dev, a.off),
                    rank.dev_addr(dev, cur.off),
                    rank.dev_addr(dev, c.off),
                );
                Some(Box::new(move |mem| gemm_body(mem, aa, ba, ca, ns, n, &parts)))
            } else {
                None
            };
            let kernel_done = rank.target_launch_nowait(ctx, dev, &cfg.gemm_cost(), body);

            // Overlap: while the GEMM runs, pull the next top half from
            // the right neighbour's current buffer and the next bottom
            // half from the left neighbour's, so an inter-node crossing
            // carries half a stripe each way on two NICs at once. The
            // exchange is pull-based (ompx_get): one-sided like the
            // paper's ring, but immune to the documented Platform A
            // put-path driver issue (Fig. 4a), which production runs on
            // that system avoid.
            if s + 1 < p {
                rank.get(ctx, (r + 1) % p, cur, 0, nxt, 0, top).unwrap();
                rank.get(ctx, (r + p - 1) % p, cur, top, nxt, top, stripe - top).unwrap();
            }
            rank.fence(ctx); // gets complete + streams settled
            ctx.sleep_until(kernel_done);
            rank.barrier(ctx); // everyone's next halves have landed
        }
        let elapsed = ctx.now().since(t0);

        let mut ok = true;
        if cfg.verify && cfg.mode == DataMode::Functional {
            let mut bytes = vec![0u8; stripe as usize];
            rank.read_local(dev, c, 0, &mut bytes);
            ok = verify_stripe(&matgen::from_bytes_f64(&bytes), n, r, ns);
            assert!(ok, "rank {r}: C stripe mismatch");
        }
        let nic = rank.shared.world.devs.dev(dev).nic;
        let mut o = out2.borrow_mut();
        o.elapsed = o.elapsed.max(elapsed);
        o.verified &= ok;
        o.nic_bytes_max = o.nic_bytes_max.max(ctx.handle().resource_bytes(nic));
    })
    .unwrap();

    let result = *out.borrow();
    result
}
