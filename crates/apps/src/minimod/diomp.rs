//! DiOMP implementation of Minimod (paper Listing 1).
//!
//! Halo exchange comes in three selectable styles ([`HaloStyle`]):
//!
//! * **Get** — two one-sided `ompx_get` calls, one fence and a group
//!   barrier per step: roughly half the code of the MPI version, which
//!   is the programmability claim of §4.5 (quantified in `crate::loc`).
//! * **NotifyOrdered** — push-based `ompx_put_notify` per face, drained
//!   with per-id ordered `notify_wait` calls. Notification ids are
//!   reused every step, so a per-step barrier keeps ranks in lockstep
//!   (a fast sender must not overwrite an unconsumed notification).
//! * **NotifyWaitsome** — the notification-driven exchange: ids carry a
//!   step-parity bit (`dir + 2·(step mod 2)`), making consecutive
//!   steps' id sets disjoint, and arrivals are drained with one ranged
//!   `notify_waitsome` loop. No per-step barrier runs at all — a rank
//!   can be at most one step ahead of its neighbours (it cannot finish
//!   step *s* before they post their step-*s* faces), and one step of
//!   skew touches only disjoint slab regions. Dropping the barrier is
//!   what the paper's lightweight remote-completion signalling buys.
//!
//! All styles produce byte-identical wavefields (asserted by the
//! `fig_halo` bench and the apps integration tests).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use diomp_core::{Conduit, DiompConfig, DiompRuntime, GPtr};
use diomp_device::{DataMode, KernelBody};
use diomp_sim::{ClusterSpec, Dur};

use crate::matgen;

use super::{
    assemble_wavefield, initial_slab, interior_bytes, serial_reference, stencil_body, verify_slab,
    HaloStyle, MinimodConfig, MinimodResult, SlabParts, RADIUS,
};

/// Notification id for the face arriving from the lower neighbour
/// (deposited into the bottom halo). The waitsome style adds
/// `2 · (step mod 2)` for parity.
const FROM_BELOW: u32 = 0;
/// Notification id for the face arriving from the upper neighbour.
const FROM_ABOVE: u32 = 1;

/// Run the DiOMP Minimod; returns the stepping-loop time (max over ranks).
pub fn run(cfg: &MinimodConfig) -> MinimodResult {
    let cluster = ClusterSpec::with_total_gpus(cfg.platform.clone(), cfg.gpus);
    let conduit = match cfg.halo {
        HaloStyle::Get => Conduit::GasnetEx,
        // Notifications are a GASPI concept: the notify styles run on the
        // GPI-2 conduit (InfiniBand platforms only).
        HaloStyle::NotifyOrdered | HaloStyle::NotifyWaitsome => Conduit::Gpi2,
    };
    let dcfg = DiompConfig::builder(cluster)
        .with_mode(cfg.mode)
        .with_conduit(conduit)
        .with_allocator(diomp_core::AllocKind::Linear)
        .with_heap(cfg.heap_bytes());
    // tuned() resolution happens once at build(), against the conduit
    // recorded above (explicit > tuned > disabled).
    let dcfg = if cfg.tuned { dcfg.tuned() } else { dcfg }.build();
    let out: Rc<RefCell<(Dur, bool)>> = Rc::new(RefCell::new((Dur::ZERO, true)));
    let out2 = out.clone();
    let parts: SlabParts = Rc::new(RefCell::new(Vec::new()));
    let parts2 = parts.clone();
    let want_verify = cfg.verify && cfg.mode == DataMode::Functional;
    let functional = cfg.mode == DataMode::Functional;
    let reference =
        if want_verify { Arc::new(serial_reference(cfg)) } else { Arc::new(Vec::new()) };
    let cfg = cfg.clone();
    let cfg_out = cfg.clone();

    let report = DiompRuntime::run(dcfg, move |ctx, rank| {
        let p = rank.nranks();
        let r = rank.rank;
        let nzl = cfg.nz_local();
        let plane = cfg.plane_bytes();
        let halo = cfg.halo_bytes();
        let slab = cfg.slab_bytes();
        let dev = rank.primary();

        // Three slabs rotate through the wave-equation time levels.
        let mut u = rank.alloc_sym(ctx, slab).unwrap();
        let mut up = rank.alloc_sym(ctx, slab).unwrap();
        let mut un = rank.alloc_sym(ctx, slab).unwrap();
        if cfg.mode == DataMode::Functional {
            rank.write_local(dev, u, 0, &matgen::to_bytes_f32(&initial_slab(&cfg, r)));
        }
        rank.barrier(ctx);

        let world = rank.shared.world_group();
        let t0 = ctx.now();
        for step in 0..cfg.steps {
            // Halo exchange, overlapped with the interior sweep (paper
            // §3.2: "efficient overlap of communication and computation").
            match cfg.halo {
                HaloStyle::Get => {
                    // Listing-1-shaped pull: one-sided gets avoid the
                    // documented Platform A put-path issue (Fig. 4a).
                    if r + 1 < p {
                        // upper neighbour's bottom RADIUS interior planes
                        // → my top halo
                        rank.get(
                            ctx,
                            r + 1,
                            u,
                            RADIUS as u64 * plane,
                            u,
                            (RADIUS + nzl) as u64 * plane,
                            halo,
                        )
                        .unwrap();
                    }
                    if r > 0 {
                        // lower neighbour's top RADIUS interior planes →
                        // my bottom halo
                        rank.get(ctx, r - 1, u, nzl as u64 * plane, u, 0, halo).unwrap();
                    }
                }
                HaloStyle::NotifyOrdered | HaloStyle::NotifyWaitsome => {
                    // Push-based: write my boundary interior planes into
                    // each neighbour's halo, notification trailing the
                    // payload. The value carries step+1 as a sanity tag.
                    let base = match cfg.halo {
                        HaloStyle::NotifyWaitsome => 2 * (step as u32 % 2),
                        _ => 0,
                    };
                    let value = step as u64 + 1;
                    if r + 1 < p {
                        // my top interior planes → (r+1)'s bottom halo
                        rank.put_notify(
                            ctx,
                            r + 1,
                            u,
                            0,
                            u,
                            nzl as u64 * plane,
                            halo,
                            base + FROM_BELOW,
                            value,
                        )
                        .unwrap();
                    }
                    if r > 0 {
                        // my bottom interior planes → (r-1)'s top halo
                        rank.put_notify(
                            ctx,
                            r - 1,
                            u,
                            (RADIUS + nzl) as u64 * plane,
                            u,
                            RADIUS as u64 * plane,
                            halo,
                            base + FROM_ABOVE,
                            value,
                        )
                        .unwrap();
                    }
                }
            }

            // Interior sweep needs no halo data: launch it concurrently
            // with the transfers.
            let (ua, upa, una) =
                (rank.dev_addr(dev, u.off), rank.dev_addr(dev, up.off), rank.dev_addr(dev, un.off));
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
            if inner > 0 {
                rank.target_launch_nowait(
                    ctx,
                    dev,
                    &cfg.stencil_cost(inner),
                    mk_body(RADIUS..nzl - RADIUS),
                );
            }
            // Hybrid polling: one fence drains network completions and the
            // interior kernel's stream together (paper §3.2).
            rank.fence(ctx);

            // Incoming halos: the get styles are already remotely complete
            // after the fence; the notify styles drain arrivals here.
            let nnb = (r > 0) as u32 + (r + 1 < p) as u32;
            match cfg.halo {
                HaloStyle::Get => {}
                HaloStyle::NotifyOrdered => {
                    // Per-id ordered waits, fixed drain order.
                    if r > 0 {
                        assert_eq!(rank.notify_wait(ctx, FROM_BELOW), step as u64 + 1);
                    }
                    if r + 1 < p {
                        assert_eq!(rank.notify_wait(ctx, FROM_ABOVE), step as u64 + 1);
                    }
                }
                HaloStyle::NotifyWaitsome => {
                    // One ranged drain over this step's parity window:
                    // whichever face lands first is consumed first.
                    let base = 2 * (step as u32 % 2);
                    for _ in 0..nnb {
                        let (_, value) = rank.notify_waitsome(ctx, base, 2);
                        assert_eq!(value, step as u64 + 1, "stale-step notification");
                    }
                }
            }

            // Boundary sweep once the halos are in place.
            let low = 0..RADIUS.min(nzl);
            let high = nzl.saturating_sub(RADIUS).max(RADIUS)..nzl;
            if !low.is_empty() {
                rank.target_launch_nowait(ctx, dev, &cfg.stencil_cost(low.len()), mk_body(low));
            }
            if !high.is_empty() {
                rank.target_launch_nowait(ctx, dev, &cfg.stencil_cost(high.len()), mk_body(high));
            }
            rank.fence(ctx);
            match cfg.halo {
                // Target-side quiescence: the next step's one-sided gets
                // may only read a neighbour's slab once its kernel has
                // written it — and the ordered notify style reuses its id
                // set, so consumption must complete before the next posts.
                HaloStyle::Get | HaloStyle::NotifyOrdered => rank.barrier_group(ctx, &world),
                // Parity ids + the waitsome drain already order
                // everything: no per-step barrier.
                HaloStyle::NotifyWaitsome => {}
            }

            // Rotate time levels: up ← u, u ← un, un ← old up.
            let tmp: GPtr = up;
            up = u;
            u = un;
            un = tmp;
        }
        rank.barrier(ctx);
        let elapsed = ctx.now().since(t0);

        let mut ok = true;
        if functional {
            let mut bytes = vec![0u8; slab as usize];
            rank.read_local(dev, u, 0, &mut bytes);
            if want_verify {
                ok = verify_slab(&cfg, r, &matgen::from_bytes_f32(&bytes), &reference);
                assert!(ok, "rank {r}: wavefield mismatch (DiOMP {:?})", cfg.halo);
            }
            parts2.borrow_mut().push((r, interior_bytes(&cfg, &bytes)));
        }
        let mut o = out2.borrow_mut();
        o.0 = o.0.max(elapsed);
        o.1 &= ok;
    })
    .unwrap();

    let (elapsed, verified) = *out.borrow();
    let collected = std::mem::take(&mut *parts.borrow_mut());
    let wavefield = if functional { Some(assemble_wavefield(&cfg_out, collected)) } else { None };
    MinimodResult {
        elapsed,
        verified: verified && want_verify,
        entries: report.entries_processed,
        wavefield,
    }
}
