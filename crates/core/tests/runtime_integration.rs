//! End-to-end tests of the DiOMP runtime: allocation, RMA, fence,
//! groups, OMPCCL, asymmetric memory, target regions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use diomp_core::{
    group_merge, group_split, AllocKind, Binding, Conduit, DiompConfig, DiompError, DiompRank,
    DiompRuntime, DiompTarget, PtrCache, ReduceOp,
};
use diomp_device::{HostBuf, HostId, KernelCost, MapKind};
use diomp_sim::{ClusterSpec, Ctx, Dur, PlatformSpec, Sim, SimTime};

fn builder_a(nodes: usize) -> diomp_core::DiompConfigBuilder {
    DiompConfig::builder_on(PlatformSpec::platform_a(), nodes).with_heap(4 << 20)
}

fn cfg_a(nodes: usize) -> DiompConfig {
    builder_a(nodes).build()
}

#[test]
fn ring_put_fence_delivers_neighbour_data() {
    // The paper's Listing-1 pattern: every rank puts to its right
    // neighbour, one fence, then everyone reads what the left wrote.
    DiompRuntime::run(cfg_a(2), |ctx, rank| {
        let n = rank.nranks();
        let ptr = rank.alloc_sym(ctx, 4096).unwrap();
        let me = rank.rank as u8;
        rank.write_local(rank.primary(), ptr, 0, &[me; 64]);
        rank.barrier(ctx);
        let right = (rank.rank + 1) % n;
        rank.put(ctx, right, ptr, 1024, ptr, 0, 64).unwrap();
        rank.fence(ctx);
        rank.barrier(ctx);
        let mut got = [0u8; 64];
        rank.read_local(rank.primary(), ptr, 1024, &mut got);
        let left = ((rank.rank + n - 1) % n) as u8;
        assert_eq!(got, [left; 64], "rank {me}");
    })
    .unwrap();
}

#[test]
fn get_pulls_remote_symmetric_data() {
    DiompRuntime::run(cfg_a(2), |ctx, rank| {
        let ptr = rank.alloc_sym(ctx, 1024).unwrap();
        rank.write_local(rank.primary(), ptr, 0, &[rank.rank as u8 + 1; 32]);
        rank.barrier(ctx);
        if rank.rank == 0 {
            let n = rank.nranks();
            rank.get(ctx, n - 1, ptr, 0, ptr, 512, 32).unwrap();
            rank.fence(ctx);
            let mut got = [0u8; 32];
            rank.read_local(rank.primary(), ptr, 512, &mut got);
            assert_eq!(got, [n as u8; 32]);
        }
        rank.barrier(ctx);
    })
    .unwrap();
}

/// Rank 0 runs `op`, then a fence whose call lands exactly on the op's
/// completion instant, woken there *ahead of* the deposit due at that
/// instant: a second handle on rank 0 went to sleep until then before
/// the op was issued. Returns the 64 bytes at rank 0's segment offset
/// `check` when that fence returns. The instant is taken from a
/// reference run that fences right after the op.
fn fence_on_the_completion_instant(op: fn(&mut Ctx, &mut DiompRank), check: u64) -> Vec<u8> {
    let boot = |sim: &Sim| {
        let cfg = DiompConfig::builder(ClusterSpec {
            platform: PlatformSpec::platform_a(),
            nodes: 2,
            gpus_per_node: 1,
        })
        .with_heap(1 << 20)
        .build();
        let shared = DiompRuntime::build(sim, cfg);
        for (flat, byte) in [(0, 7u8), (1, 9u8)] {
            shared.world.devs.dev(flat).mem.write(shared.seg_base[flat], &[byte; 64]).unwrap();
        }
        shared
    };
    let rank0 = |shared| DiompRank { shared, rank: 0, cache: PtrCache::new(), rma_retries: 0 };
    let done = Arc::new(AtomicU64::new(0));
    let mut sim = Sim::new();
    let (shared, done2) = (boot(&sim), done.clone());
    sim.spawn("reference", move |ctx| {
        let mut rank = rank0(shared);
        op(ctx, &mut rank);
        rank.fence(ctx);
        done2.store(ctx.now().nanos(), Ordering::SeqCst);
    });
    sim.run().unwrap();
    let done = SimTime(done.load(Ordering::SeqCst));

    let got = Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut sim = Sim::new();
    let shared = boot(&sim);
    let (fencer, got2) = (shared.clone(), got.clone());
    sim.spawn("fencer", move |ctx| {
        let mut rank = rank0(fencer);
        ctx.sleep_until(done);
        rank.fence(ctx);
        assert_eq!(ctx.now(), done, "the fence waits for nothing but its own instant");
        let mut out = vec![0u8; 64];
        let base = rank.shared.seg_base[0];
        rank.shared.world.devs.dev(0).mem.read(base + check, &mut out).unwrap();
        *got2.lock().unwrap() = out;
    });
    sim.spawn("issuer", move |ctx| op(ctx, &mut rank0(shared)));
    sim.run().unwrap();
    let got = got.lock().unwrap().clone();
    got
}

#[test]
fn a_fence_called_at_the_completion_instant_returns_after_the_deposit() {
    // A same-device put and an inter-node get each deposit at their
    // completion instant. A fence called at that instant, before the
    // deposit has run, must still park behind it.
    let put =
        fence_on_the_completion_instant(|ctx, r| r.put_dev(ctx, 0, 0, 0, 4096, 64).unwrap(), 4096);
    assert_eq!(put, [7u8; 64], "put");
    let get =
        fence_on_the_completion_instant(|ctx, r| r.get_dev(ctx, 0, 8192, 1, 0, 64).unwrap(), 8192);
    assert_eq!(get, [9u8; 64], "get");
}

#[test]
fn symmetric_offsets_are_identical_across_ranks() {
    let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
    let seen2 = seen.clone();
    DiompRuntime::run(cfg_a(2), move |ctx, rank| {
        let a = rank.alloc_sym(ctx, 1000).unwrap();
        let b = rank.alloc_sym(ctx, 2000).unwrap();
        seen2.lock().unwrap().push((rank.rank, a.off, b.off));
        assert_ne!(a.off, b.off);
    })
    .unwrap();
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 8);
    let (_, a0, b0) = seen[0];
    for &(r, a, b) in seen.iter() {
        assert_eq!((a, b), (a0, b0), "rank {r} saw different offsets");
    }
}

#[test]
fn sym_heap_exhaustion_reports_out_of_global_memory() {
    DiompRuntime::run(cfg_a(1), |ctx, rank| {
        // Heap is 4 MiB with 25% asym ⇒ 3 MiB symmetric.
        let r = rank.alloc_sym(ctx, 16 << 20);
        assert!(matches!(r, Err(DiompError::OutOfGlobalMemory { .. })));
        // The heap still works afterwards.
        let ok = rank.alloc_sym(ctx, 4096);
        assert!(ok.is_ok());
    })
    .unwrap();
}

#[test]
fn buddy_free_allows_reuse_across_phases() {
    let cfg = builder_a(1).with_allocator(AllocKind::Buddy).build();
    DiompRuntime::run(cfg, |ctx, rank| {
        let a = rank.alloc_sym(ctx, 1 << 20).unwrap();
        rank.free_sym(ctx, a);
        let b = rank.alloc_sym(ctx, 1 << 20).unwrap();
        assert_eq!(a.off, b.off, "buddy must coalesce and reuse the block");
    })
    .unwrap();
}

#[test]
fn asym_alloc_two_stage_access_and_cache() {
    DiompRuntime::run(cfg_a(2), |ctx, rank| {
        // Each rank allocates a different size (the asymmetric case of
        // Fig. 2).
        let mine = rank.alloc_asym(ctx, 256 * (rank.rank as u64 + 1)).unwrap();
        let scratch = rank.alloc_sym(ctx, 4096).unwrap();
        // Publish a pattern in my asymmetric region.
        let pattern = vec![rank.rank as u8 + 40; 64];
        let my_dev = rank.primary();
        let addr = mine.my_data_off + rank.shared.seg_base[my_dev];
        rank.shared.world.devs.dev(my_dev).mem.write(addr, &pattern).unwrap();
        rank.barrier(ctx);

        if rank.rank == 0 {
            let target = rank.nranks() - 1;
            // First access: cache miss ⇒ wrapper fetch + data get.
            let t0 = ctx.now();
            rank.get_asym(ctx, target, &mine, 0, scratch, 0, 64).unwrap();
            rank.fence(ctx);
            let cold = ctx.now().since(t0);
            let mut got = [0u8; 64];
            rank.read_local(my_dev, scratch, 0, &mut got);
            assert_eq!(got, [target as u8 + 40; 64]);

            // Second access: cache hit ⇒ single stage, measurably faster.
            let t1 = ctx.now();
            rank.get_asym(ctx, target, &mine, 0, scratch, 128, 64).unwrap();
            rank.fence(ctx);
            let warm = ctx.now().since(t1);
            assert!(
                warm.as_nanos() * 3 < cold.as_nanos() * 2,
                "cached access {warm} should be well under cold {cold}"
            );
            let (hits, misses) = rank.cache.stats();
            assert_eq!((hits, misses), (1, 1));
        }
        rank.barrier(ctx);
        rank.free_asym(ctx, mine);
    })
    .unwrap();
}

#[test]
fn put_asym_writes_into_remote_region() {
    DiompRuntime::run(cfg_a(2), |ctx, rank| {
        let mine = rank.alloc_asym(ctx, 512).unwrap();
        let src = rank.alloc_sym(ctx, 256).unwrap();
        rank.write_local(rank.primary(), src, 0, &[7u8; 100]);
        rank.barrier(ctx);
        if rank.rank == 1 {
            rank.put_asym(ctx, 5, &mine, 16, src, 0, 100).unwrap();
            rank.fence(ctx);
        }
        rank.barrier(ctx);
        if rank.rank == 5 {
            let dev = rank.primary();
            let addr = rank.shared.seg_base[dev] + mine.my_data_off + 16;
            let mut got = [0u8; 100];
            rank.shared.world.devs.dev(dev).mem.read(addr, &mut got).unwrap();
            assert_eq!(got, [7u8; 100]);
        }
        rank.barrier(ctx);
    })
    .unwrap();
}

#[test]
fn intra_node_put_uses_fast_path() {
    // Same-node neighbour put (P2P) must beat the inter-node put.
    DiompRuntime::run(cfg_a(2), |ctx, rank| {
        if rank.rank == 0 {
            let ptr = rank.alloc_sym(ctx, 1 << 20).unwrap();
            let len = 256 << 10;
            let t0 = ctx.now();
            rank.put(ctx, 1, ptr, 0, ptr, 0, len).unwrap(); // same node (GPU 1)
            rank.fence(ctx);
            let near = ctx.now().since(t0);
            let t1 = ctx.now();
            rank.put(ctx, 4, ptr, 0, ptr, 0, len).unwrap(); // other node
            rank.fence(ctx);
            let far = ctx.now().since(t1);
            assert!(
                near.as_nanos() * 3 < far.as_nanos(),
                "NVLink P2P {near} must be ≫ faster than NIC {far}"
            );
        } else {
            let _ = rank.alloc_sym(ctx, 1 << 20).unwrap();
        }
        rank.barrier(ctx);
    })
    .unwrap();
}

#[test]
fn disabling_p2p_falls_back_to_ipc_and_is_slower() {
    let measure = |use_p2p: bool| -> u64 {
        let out = Arc::new(AtomicU64::new(0));
        let out2 = out.clone();
        let mut cfg = builder_a(1);
        if !use_p2p {
            cfg = cfg.without_p2p();
        }
        let cfg = cfg.build();
        DiompRuntime::run(cfg, move |ctx, rank| {
            let ptr = rank.alloc_sym(ctx, 1 << 20).unwrap();
            if rank.rank == 0 {
                let t0 = ctx.now();
                rank.put(ctx, 2, ptr, 0, ptr, 0, 512 << 10).unwrap();
                rank.fence(ctx);
                out2.store(ctx.now().since(t0).as_nanos(), Ordering::Relaxed);
            }
            rank.barrier(ctx);
        })
        .unwrap();
        out.load(Ordering::Relaxed)
    };
    let p2p = measure(true);
    let ipc = measure(false);
    assert!(ipc > 2 * p2p, "IPC staging ({ipc} ns) must cost more than P2P ({p2p} ns)");
}

#[test]
fn gpi_conduit_works_on_infiniband_platform() {
    let cfg = DiompConfig::builder_on(PlatformSpec::platform_c(), 4)
        .with_heap(4 << 20)
        .with_conduit(Conduit::Gpi2)
        .build();
    DiompRuntime::run(cfg, |ctx, rank| {
        let ptr = rank.alloc_sym(ctx, 4096).unwrap();
        rank.write_local(rank.primary(), ptr, 0, &[rank.rank as u8 + 1; 32]);
        rank.barrier(ctx);
        let right = (rank.rank + 1) % rank.nranks();
        rank.put(ctx, right, ptr, 256, ptr, 0, 32).unwrap();
        rank.fence(ctx);
        rank.barrier(ctx);
        let mut got = [0u8; 32];
        rank.read_local(rank.primary(), ptr, 256, &mut got);
        let left = (rank.rank + rank.nranks() - 1) % rank.nranks();
        assert_eq!(got, [left as u8 + 1; 32]);
    })
    .unwrap();
}

#[test]
fn group_split_scopes_barriers_and_collectives() {
    DiompRuntime::run(cfg_a(2), |ctx, rank| {
        let world = rank.shared.world_group();
        // Split into node groups (color = node).
        let node = rank.shared.world.node_of(rank.rank) as u32;
        let g = group_split(ctx, &rank.shared.groups, &world, rank.rank, node, rank.rank as u32);
        assert_eq!(g.size(), 4, "4 GPUs per node on platform A");
        // Group-scoped allreduce over OMPCCL.
        let ptr = rank.alloc_sym(ctx, 256).unwrap();
        let one: Vec<u8> = 1.0f64.to_le_bytes().repeat(4).to_vec();
        let vals: Vec<u8> = one.to_vec();
        rank.write_local(rank.primary(), ptr, 0, &vals);
        rank.barrier(ctx);
        rank.allreduce(ctx, &g, ptr, 32, ReduceOp::SumF64);
        let mut got = [0u8; 32];
        rank.read_local(rank.primary(), ptr, 0, &mut got);
        for c in got.chunks_exact(8) {
            let v = f64::from_le_bytes(c.try_into().unwrap());
            assert_eq!(v, 4.0, "sum over the node group only");
        }
        rank.barrier(ctx);
    })
    .unwrap();
}

#[test]
fn group_merge_recomposes_two_groups() {
    DiompRuntime::run(cfg_a(2), |ctx, rank| {
        let world = rank.shared.world_group();
        let half = (rank.rank >= 4) as u32;
        let g = group_split(ctx, &rank.shared.groups, &world, rank.rank, half, 0);
        assert_eq!(g.size(), 4);
        let other: Vec<usize> = if half == 0 { (4..8).collect() } else { (0..4).collect() };
        let g_other = rank.shared.groups.get_or_create(other);
        let merged = group_merge(ctx, &rank.shared.groups, &g, &g_other, rank.rank);
        assert_eq!(merged.size(), 8);
        rank.barrier_group(ctx, &merged);
    })
    .unwrap();
}

#[test]
fn ompccl_world_bcast_and_reduce() {
    DiompRuntime::run(cfg_a(2), |ctx, rank| {
        let world = rank.shared.world_group();
        let ptr = rank.alloc_sym(ctx, 1024).unwrap();
        if rank.rank == 3 {
            let vals: Vec<u8> = (0..32).flat_map(|i| (i as f64).to_le_bytes()).collect();
            rank.write_local(rank.primary(), ptr, 0, &vals);
        }
        rank.barrier(ctx);
        rank.bcast(ctx, &world, 3, ptr, 256);
        let mut got = [0u8; 256];
        rank.read_local(rank.primary(), ptr, 0, &mut got);
        for (i, c) in got.chunks_exact(8).enumerate() {
            assert_eq!(f64::from_le_bytes(c.try_into().unwrap()), i as f64);
        }
        rank.barrier(ctx);
    })
    .unwrap();
}

#[test]
fn single_process_multi_gpu_binding_runs_collectives_over_all_devices() {
    // Paper §3.3: RankPerNode binding — 1 rank drives 4 GPUs; OMPCCL
    // still reduces across all 8 devices of the 2-node job.
    let cfg = builder_a(2).with_binding(Binding::RankPerNode).build();
    DiompRuntime::run(cfg, |ctx, rank| {
        assert_eq!(rank.nranks(), 2);
        assert_eq!(rank.my_devices().len(), 4);
        let ptr = rank.alloc_sym(ctx, 256).unwrap();
        for d in rank.my_devices() {
            let vals: Vec<u8> = 1.0f64.to_le_bytes().to_vec();
            let addr = rank.dev_addr(d, ptr.off);
            rank.shared.world.devs.dev(d).mem.write(addr, &vals).unwrap();
        }
        rank.barrier(ctx);
        let world = rank.shared.world_group();
        rank.allreduce(ctx, &world, ptr, 8, ReduceOp::SumF64);
        for d in rank.my_devices() {
            let mut got = [0u8; 8];
            let addr = rank.dev_addr(d, ptr.off);
            rank.shared.world.devs.dev(d).mem.read(addr, &mut got).unwrap();
            assert_eq!(f64::from_le_bytes(got), 8.0, "8 devices contributed");
        }
    })
    .unwrap();
}

#[test]
fn target_region_maps_into_global_segment_and_is_remotely_accessible() {
    DiompRuntime::run(cfg_a(2), |ctx, rank| {
        let tgt = DiompTarget::new(rank);
        let host = HostBuf::from_f64(&[rank.rank as f64; 16]);
        let ptr = rank.target_enter(ctx, &tgt, HostId(1), &host, MapKind::ToFrom).unwrap();
        // Kernel: add 1.0 to every element on the device.
        let dev = rank.primary();
        let addr = rank.dev_addr(dev, ptr.off);
        rank.target_launch(
            ctx,
            dev,
            &KernelCost::Fixed(Dur::micros(3.0)),
            Some(Box::new(move |mem| {
                mem.with_slice_mut(addr, 128, |s| {
                    for c in s.chunks_exact_mut(8) {
                        let v = f64::from_le_bytes(c[..8].try_into().unwrap()) + 1.0;
                        c.copy_from_slice(&v.to_le_bytes());
                    }
                })
                .unwrap();
            })),
        );
        rank.barrier(ctx);
        // The mapped object is remotely addressable with NO extra
        // registration: rank 0 reads rank 3's mapped buffer via ompx_get.
        if rank.rank == 0 {
            let scratch = rank.alloc_sym(ctx, 128).unwrap();
            rank.get(ctx, 3, ptr, 0, scratch, 0, 128).unwrap();
            rank.fence(ctx);
            let mut got = [0u8; 128];
            rank.read_local(dev, scratch, 0, &mut got);
            for c in got.chunks_exact(8) {
                assert_eq!(f64::from_le_bytes(c.try_into().unwrap()), 4.0);
            }
        } else {
            let _ = rank.alloc_sym(ctx, 128).unwrap();
        }
        rank.barrier(ctx);
        rank.target_exit(ctx, &tgt, HostId(1), &host, MapKind::ToFrom).unwrap();
        // tofrom copied the updated data back to the host.
        assert_eq!(host.to_f64(), vec![rank.rank as f64 + 1.0; 16]);
    })
    .unwrap();
}

#[test]
fn diomp_runs_are_deterministic() {
    let run = || -> u64 {
        let t = Arc::new(AtomicU64::new(0));
        let t2 = t.clone();
        DiompRuntime::run(cfg_a(2), move |ctx, rank| {
            let ptr = rank.alloc_sym(ctx, 64 << 10).unwrap();
            for round in 0..3 {
                let to = (rank.rank + round + 1) % rank.nranks();
                rank.put(ctx, to, ptr, 0, ptr, 0, 8 << 10).unwrap();
            }
            rank.fence(ctx);
            rank.barrier(ctx);
            if rank.rank == 0 {
                t2.store(ctx.now().nanos(), Ordering::Relaxed);
            }
        })
        .unwrap();
        t.load(Ordering::Relaxed)
    };
    assert_eq!(run(), run());
}

#[test]
fn cost_only_mode_runs_the_same_code_path() {
    // Paper-scale configs run CostOnly; the control flow must be
    // identical, with no bytes moved.
    let cfg = DiompConfig::builder(ClusterSpec::full_nodes(PlatformSpec::platform_b(), 2))
        .with_mode(diomp_device::DataMode::CostOnly)
        .with_heap(1 << 30)
        .build(); // 1 GiB heap, no real backing
    DiompRuntime::run(cfg, |ctx, rank| {
        let ptr = rank.alloc_sym(ctx, 256 << 20).unwrap(); // 256 MiB "allocation"
        let right = (rank.rank + 1) % rank.nranks();
        rank.put(ctx, right, ptr, 0, ptr, 0, 64 << 20).unwrap();
        rank.fence(ctx);
        rank.barrier(ctx);
        assert!(ctx.now() > SimTime::ZERO);
    })
    .unwrap();
}
