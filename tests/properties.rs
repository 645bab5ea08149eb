//! Property-based tests (proptest) over the core data structures and
//! whole-system invariants (DESIGN.md §7).

use diomp::core::{BuddyAlloc, LinearAlloc};
use diomp::device::FreeListAlloc;
use diomp::fabric::ReduceOp;
use diomp::sim::{BwCurve, Dur, PlatformSpec, Sim, Wait};
use proptest::prelude::*;

// ---------- allocator invariants ----------

#[derive(Clone, Debug)]
enum AllocOp {
    Alloc(u64),
    Free(usize), // index into the held list (mod len)
}

fn alloc_ops() -> impl Strategy<Value = Vec<AllocOp>> {
    prop::collection::vec(
        prop_oneof![(32u64..4096).prop_map(AllocOp::Alloc), (0usize..64).prop_map(AllocOp::Free),],
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Buddy: live blocks never overlap, stay aligned to their size, and
    /// freeing everything coalesces back to one maximal block.
    #[test]
    fn buddy_allocator_invariants(ops in alloc_ops()) {
        let mut b = BuddyAlloc::new(1 << 16, 32);
        let mut held: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                AllocOp::Alloc(len) => {
                    if let Some(off) = b.alloc(len) {
                        let block = b.block_size(len);
                        prop_assert_eq!(off % block, 0, "offset aligned to block size");
                        held.push(off);
                    }
                }
                AllocOp::Free(i) if !held.is_empty() => {
                    b.free(held.swap_remove(i % held.len()));
                }
                AllocOp::Free(_) => {}
            }
            let mut ranges = b.live_ranges();
            ranges.sort_unstable();
            for w in ranges.windows(2) {
                prop_assert!(w[0].0 + w[0].1 <= w[1].0, "live blocks overlap: {:?}", w);
            }
        }
        for off in held.drain(..) {
            b.free(off);
        }
        prop_assert!(b.fully_coalesced(), "full free must coalesce completely");
        prop_assert_eq!(b.total_free(), 1 << 16);
    }

    /// Free-list allocator: allocations never overlap; free restores the
    /// full capacity.
    #[test]
    fn free_list_allocator_invariants(ops in alloc_ops()) {
        let mut a = FreeListAlloc::new(1 << 16);
        let mut held: Vec<(u64, u64)> = Vec::new();
        for op in ops {
            match op {
                AllocOp::Alloc(len) => {
                    if let Ok(off) = a.alloc(len, 64) {
                        prop_assert_eq!(off % 64, 0);
                        for &(o, l) in &held {
                            prop_assert!(off + len <= o || o + l <= off, "overlap");
                        }
                        held.push((off, len));
                    }
                }
                AllocOp::Free(i) if !held.is_empty() => {
                    let (off, _) = held.swap_remove(i % held.len());
                    a.free(off).unwrap();
                }
                AllocOp::Free(_) => {}
            }
        }
        for (off, _) in held.drain(..) {
            a.free(off).unwrap();
        }
        prop_assert_eq!(a.total_free(), 1 << 16);
        prop_assert_eq!(a.live_count(), 0);
    }

    /// Linear allocator: offsets are monotonically increasing, aligned,
    /// and within capacity.
    #[test]
    fn linear_allocator_invariants(lens in prop::collection::vec(1u64..2048, 1..64)) {
        let mut a = LinearAlloc::new(1 << 16);
        let mut last_end = 0u64;
        for len in lens {
            if let Some(off) = a.alloc(len, 64) {
                prop_assert!(off >= last_end);
                prop_assert_eq!(off % 64, 0);
                prop_assert!(off + len <= 1 << 16);
                last_end = off + len;
            }
        }
    }

    /// BwCurve interpolation stays within the convex hull of its control
    /// points and transfer time grows monotonically with size.
    #[test]
    fn bw_curve_bounded_and_monotone(sizes in prop::collection::vec(1u64..(1 << 24), 2..40)) {
        let curve = BwCurve::new(vec![(1024, 2.0), (1 << 16, 8.0), (1 << 22, 20.0)]);
        let (lo, hi) = (2.0 - 1e-9, 20.0 + 1e-9);
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let mut last_t = -1.0;
        for s in sorted {
            let bw = curve.gbps(s);
            prop_assert!((lo..=hi).contains(&bw), "bw {bw} outside hull");
            let t = curve.time_us(s);
            prop_assert!(t >= last_t, "time must not shrink with size");
            last_t = t;
        }
    }

    /// ReduceOp::SumF64 over arbitrary chunks equals the scalar sum.
    #[test]
    fn reduce_op_matches_scalar_sum(
        a in prop::collection::vec(-1e6f64..1e6, 1..64),
        b in prop::collection::vec(-1e6f64..1e6, 1..64),
    ) {
        let n = a.len().min(b.len());
        let mut abuf: Vec<u8> = a[..n].iter().flat_map(|v| v.to_le_bytes()).collect();
        let bbuf: Vec<u8> = b[..n].iter().flat_map(|v| v.to_le_bytes()).collect();
        ReduceOp::SumF64.combine(&mut abuf, &bbuf);
        for i in 0..n {
            let got = f64::from_le_bytes(abuf[i * 8..i * 8 + 8].try_into().unwrap());
            prop_assert_eq!(got, a[i] + b[i]);
        }
    }
}

// ---------- simulation-level properties (fewer cases: each spawns a sim) --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The DES is deterministic: an arbitrary rank workload in which ranks
    /// wake each other produces the same digest twice. At each step every
    /// rank posts its own completion to every rank's board, then sometimes
    /// waits on its board for another rank's completion of the same step
    /// (never a later one, so no rank waits on a rank that waits on it).
    #[test]
    fn des_is_deterministic(seed in 0u64..1_000_000) {
        let run = |seed: u64| {
            let mut sim = Sim::new();
            let h = sim.handle();
            let boards: Vec<_> = (0..5).map(|_| h.new_board()).collect();
            for r in 0..5u32 {
                let boards = boards.clone();
                sim.spawn(format!("r{r}"), move |ctx| {
                    let mut rng = diomp::sim::rng_for(seed, r.into());
                    use rand::Rng;
                    for step in 0..15u32 {
                        ctx.delay(Dur::nanos(rng.gen_range(1..400)));
                        for &b in &boards {
                            ctx.board_post(b, 5 * step + r, 1);
                        }
                        if rng.gen_bool(0.3) {
                            let id = 5 * step + rng.gen_range(0..5);
                            ctx.board_waitsome(boards[r as usize], id, 1, Wait::Block).unwrap();
                        }
                    }
                });
            }
            let rep = sim.run().unwrap();
            (rep.end_time, rep.entries_processed,
             rep.digest)
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Ranged waitsome over a shuffled set of in-flight notifications
    /// drains every id exactly once, and the whole run (digest, entry
    /// count, end time) is deterministic for a given seed.
    #[test]
    fn waitsome_drains_shuffled_notifications_exactly_once(
        seed in 0u64..1_000_000,
        n in 1u32..48,
    ) {
        let run = |seed: u64| {
            let mut sim = Sim::new();
            let h = sim.handle();
            let board = h.new_board();
            // Shuffle the post order and stagger arrival times so some
            // posts land while the drainer is parked and some while it
            // is busy consuming.
            let mut ids: Vec<u32> = (0..n).collect();
            let mut rng = diomp::sim::rng_for(seed, 7);
            use rand::Rng;
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.gen_range(0..(i as u64 + 1)) as usize);
            }
            let gaps: Vec<u64> = (0..n).map(|_| rng.gen_range(1..900)).collect();
            sim.spawn("poster", move |ctx| {
                for (k, id) in ids.into_iter().enumerate() {
                    ctx.delay(Dur::nanos(gaps[k]));
                    ctx.board_post(board, id, id as u64 + 1);
                }
            });
            let drained = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let drained2 = drained.clone();
            sim.spawn("drainer", move |ctx| {
                for _ in 0..n {
                    let (id, v) = ctx.board_waitsome(board, 0, n, Wait::Block).unwrap();
                    assert_eq!(v, id as u64 + 1, "value must travel with its id");
                    drained2.lock().unwrap().push(id);
                }
            });
            let rep = sim.run().unwrap();
            let got = drained.lock().unwrap().clone();
            (got, rep.end_time, rep.entries_processed,
             rep.digest)
        };
        let (got, end, entries, digest) = run(seed);
        // Exactly-once: every id drained, none twice.
        let mut sorted = got.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<u32>>());
        // Replay determinism across reruns of the same seed.
        prop_assert_eq!(run(seed), (got, end, entries, digest));
    }

    /// ISSUE 6: the exactly-once waitsome guarantee survives injector
    /// perturbation. A seeded fault plan straggles the poster's compute
    /// delays and attaches an injected control-message delay to a random
    /// subset of notifications (consumed with `take_ctrl_fault` exactly
    /// as the fabric notify path does) — every id must still drain
    /// exactly once, with its value, and the perturbed run must replay
    /// deterministically for the same seed.
    #[test]
    fn waitsome_stays_exactly_once_under_injected_delays(
        seed in 0u64..1_000_000,
        n in 1u32..48,
    ) {
        use diomp::sim::{fault_key, CtrlFault, FaultPlan};

        let run = |seed: u64| {
            let mut sim = Sim::new();
            let mut rng = diomp::sim::rng_for(seed, 13);
            use rand::Rng;
            let mut plan = FaultPlan::new().straggle("poster", rng.gen_range(1000..4000));
            for id in 0..n {
                if rng.gen_bool(0.4) {
                    plan = plan.ctrl_fault(
                        fault_key("board-post", 0, id as u64),
                        CtrlFault::Delay(Dur::nanos(rng.gen_range(1..2000))),
                    );
                }
            }
            sim.set_fault_plan(plan);
            let h = sim.handle();
            let board = h.new_board();
            let mut ids: Vec<u32> = (0..n).collect();
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.gen_range(0..(i as u64 + 1)) as usize);
            }
            let gaps: Vec<u64> = (0..n).map(|_| rng.gen_range(1..900)).collect();
            sim.spawn("poster", move |ctx| {
                for (k, id) in ids.into_iter().enumerate() {
                    ctx.delay(Dur::nanos(gaps[k]));
                    if let Some(CtrlFault::Delay(d)) =
                        ctx.take_ctrl_fault(fault_key("board-post", 0, id as u64))
                    {
                        ctx.delay(d);
                    }
                    ctx.board_post(board, id, id as u64 + 1);
                }
            });
            let drained = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let drained2 = drained.clone();
            sim.spawn("drainer", move |ctx| {
                for _ in 0..n {
                    let (id, v) = ctx.board_waitsome(board, 0, n, Wait::Block).unwrap();
                    assert_eq!(v, id as u64 + 1, "value must travel with its id");
                    drained2.lock().unwrap().push(id);
                }
            });
            let rep = sim.run().unwrap();
            let got = drained.lock().unwrap().clone();
            (got, rep.end_time, rep.entries_processed,
             rep.digest)
        };
        let (got, end, entries, digest) = run(seed);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<u32>>());
        prop_assert_eq!(run(seed), (got, end, entries, digest));
    }

    /// MPI allreduce equals the sequential reduction for arbitrary rank
    /// counts (including non-powers-of-two) and payload lengths.
    #[test]
    fn mpi_allreduce_matches_reference(nranks in 2usize..9, elems in 1usize..48) {
        use diomp::device::{DataMode, DeviceTable};
        use diomp::fabric::{FabricWorld, Loc, MpiRank};
        use diomp::sim::{ClusterSpec, Topology};
        use std::sync::Arc;

        let mut sim = Sim::new();
        let spec = ClusterSpec {
            platform: PlatformSpec::platform_a(),
            nodes: nranks,
            gpus_per_node: 1,
        };
        let topo = Arc::new(Topology::build(&sim.handle(), spec));
        let devs =
            DeviceTable::build(&sim.handle(), topo.clone(), DataMode::Functional, Some(1 << 20));
        let world = FabricWorld::new(topo, devs, nranks);
        let ok = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        for r in 0..nranks {
            let world = world.clone();
            let ok = ok.clone();
            sim.spawn(format!("r{r}"), move |ctx| {
                let mut mpi = MpiRank::new(world.clone(), r);
                let dev = world.primary_dev(r).clone();
                let off = dev.malloc((elems * 8) as u64, 256).unwrap();
                let bytes: Vec<u8> =
                    (0..elems).flat_map(|i| ((r * 3 + i) as f64).to_le_bytes()).collect();
                dev.mem.write(off, &bytes).unwrap();
                mpi.allreduce(ctx, Loc::dev(r, off), (elems * 8) as u64, ReduceOp::SumF64)
                    .unwrap();
                let mut out = vec![0u8; elems * 8];
                dev.mem.read(off, &mut out).unwrap();
                for i in 0..elems {
                    let got = f64::from_le_bytes(out[i * 8..i * 8 + 8].try_into().unwrap());
                    let want: f64 = (0..nranks).map(|k| (k * 3 + i) as f64).sum();
                    assert!((got - want).abs() < 1e-9, "elem {i}: {got} vs {want}");
                }
                ok.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        }
        sim.run().unwrap();
        prop_assert_eq!(ok.load(std::sync::atomic::Ordering::Relaxed), nranks);
    }

    /// Group split partitions the world: every rank lands in exactly one
    /// group, groups are disjoint, and their union is the world.
    #[test]
    fn group_split_partitions_the_world(colors in prop::collection::vec(0u32..3, 8..9)) {
        use diomp::core::{group_split, DiompConfig, DiompRuntime};
        use std::sync::Arc;

        let cfg = DiompConfig::builder_on(PlatformSpec::platform_a(), 2).with_heap(2 << 20).build();
        let colors = Arc::new(colors);
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let colors2 = colors.clone();
        DiompRuntime::run(cfg, move |ctx, rank| {
            let world = rank.shared.world_group();
            let color = colors2[rank.rank];
            let g = group_split(
                ctx,
                &rank.shared.groups,
                &world,
                rank.rank,
                color,
                rank.rank as u32,
            );
            seen2.lock().unwrap().push((rank.rank, color, g.ranks.clone()));
        })
        .unwrap();
        let seen = seen.lock().unwrap();
        prop_assert_eq!(seen.len(), 8);
        for (rank, color, members) in seen.iter() {
            prop_assert!(members.contains(rank), "rank {} not in its own group", rank);
            for m in members {
                prop_assert_eq!(colors[*m], *color, "member of wrong colour");
            }
            let expect: Vec<usize> =
                (0..8).filter(|&r| colors[r] == *color).collect();
            prop_assert_eq!(members.clone(), expect, "membership must be exactly the colour class");
        }
    }

    /// Chunked-pipeline puts deposit byte-identical data to monolithic
    /// puts for arbitrary message lengths and chunk sizes, including
    /// chunk sizes above the Platform A anomaly floor (host-staged
    /// regime) and below it (direct regime), with arbitrary tails.
    #[test]
    fn chunked_put_matches_monolithic(
        len in 1u64..(256 << 10),
        chunk in 1u64..(48 << 10),
        max_inflight in 1usize..5,
    ) {
        use diomp::core::{DiompConfig, DiompRuntime, PipelineConfig};
        use diomp::sim::ClusterSpec;
        use std::sync::Arc;

        let run = |pipeline: PipelineConfig| {
            let cfg = DiompConfig::builder(ClusterSpec {
                platform: PlatformSpec::platform_a(),
                nodes: 2,
                gpus_per_node: 1,
            })
            .with_heap(2 << 20)
            .with_pipeline(pipeline).build();
            let out = Arc::new(std::sync::Mutex::new(Vec::new()));
            let out2 = out.clone();
            DiompRuntime::run(cfg, move |ctx, rank| {
                let ptr = rank.alloc_sym(ctx, len).unwrap();
                if rank.rank == 0 {
                    let bytes: Vec<u8> =
                        (0..len as usize).map(|i| (i.wrapping_mul(13) + 5) as u8).collect();
                    rank.write_local(rank.primary(), ptr, 0, &bytes);
                }
                rank.barrier(ctx);
                if rank.rank == 0 {
                    rank.put(ctx, 1, ptr, 0, ptr, 0, len).unwrap();
                    rank.fence(ctx);
                }
                rank.barrier(ctx);
                if rank.rank == 1 {
                    let mut got = vec![0u8; len as usize];
                    rank.read_local(rank.primary(), ptr, 0, &mut got);
                    *out2.lock().unwrap() = got;
                }
            })
            .unwrap();
            let bytes = out.lock().unwrap().clone();
            bytes
        };
        let chunked = run(PipelineConfig { chunk_bytes: chunk, max_inflight, n_queues: 4 });
        let mono = run(PipelineConfig::disabled());
        prop_assert_eq!(&chunked, &mono, "chunked and monolithic puts must agree");
        let expect: Vec<u8> =
            (0..len as usize).map(|i| (i.wrapping_mul(13) + 5) as u8).collect();
        prop_assert_eq!(chunked, expect);
    }

    /// The emergent ring engine deposits the same bytes as the profile
    /// engine for arbitrary pipeline shapes through the full DiOMP
    /// runtime (`ompx_allreduce` on the world group), and both match the
    /// sequential reference.
    #[test]
    fn ring_engine_allreduce_matches_profile_engine(
        nodes in 1usize..3,
        elems in 1usize..24,
        chunk in 1u64..512,
        inflight in 1usize..4,
    ) {
        use diomp::core::{CollEngine, DiompConfig, DiompRuntime, RingConfig};
        use std::sync::Arc;

        let run = |engine: CollEngine| {
            let cfg = DiompConfig::builder_on(PlatformSpec::platform_a(), nodes)
                .with_heap(2 << 20)
                .with_coll_engine(engine).build();
            let out = Arc::new(std::sync::Mutex::new(Vec::new()));
            let out2 = out.clone();
            DiompRuntime::run(cfg, move |ctx, rank| {
                let world = rank.shared.world_group();
                let ptr = rank.alloc_sym(ctx, (elems * 8) as u64).unwrap();
                let bytes: Vec<u8> = (0..elems)
                    .flat_map(|i| ((rank.rank * 5 + 3 * i) as u64).to_le_bytes())
                    .collect();
                rank.write_local(rank.primary(), ptr, 0, &bytes);
                rank.barrier(ctx);
                rank.allreduce(ctx, &world, ptr, (elems * 8) as u64, ReduceOp::SumU64);
                let mut got = vec![0u8; elems * 8];
                rank.read_local(rank.primary(), ptr, 0, &mut got);
                out2.lock().unwrap().push((rank.rank, got));
            })
            .unwrap();
            let mut rows = out.lock().unwrap().clone();
            rows.sort_by_key(|&(r, _)| r);
            rows
        };
        let ring = run(CollEngine::Ring(RingConfig { chunk_bytes: chunk, max_inflight: inflight }));
        let prof = run(CollEngine::Profile);
        prop_assert_eq!(&ring, &prof, "ring and profile engines must agree");
        let n = ring.len();
        for (rank, got) in &ring {
            for i in 0..elems {
                let v = u64::from_le_bytes(got[i * 8..i * 8 + 8].try_into().unwrap());
                let want: u64 = (0..n).map(|r| (r * 5 + 3 * i) as u64).sum();
                prop_assert_eq!(v, want, "rank {} elem {}", rank, i);
            }
        }
    }

    /// XCCL allreduce equals the sequential reduction for arbitrary
    /// device counts and payloads (through the full DiOMP runtime).
    #[test]
    fn ompccl_allreduce_matches_reference(nodes in 1usize..3, elems in 1usize..24) {
        use diomp::core::{DiompConfig, DiompRuntime};

        let cfg = DiompConfig::builder_on(PlatformSpec::platform_a(), nodes).with_heap(2 << 20).build();
        DiompRuntime::run(cfg, move |ctx, rank| {
            let world = rank.shared.world_group();
            let n = rank.nranks();
            let ptr = rank.alloc_sym(ctx, (elems * 8) as u64).unwrap();
            let bytes: Vec<u8> =
                (0..elems).flat_map(|i| ((rank.rank + 2 * i) as f64).to_le_bytes()).collect();
            rank.write_local(rank.primary(), ptr, 0, &bytes);
            rank.barrier(ctx);
            rank.allreduce(ctx, &world, ptr, (elems * 8) as u64, ReduceOp::SumF64);
            let mut out = vec![0u8; elems * 8];
            rank.read_local(rank.primary(), ptr, 0, &mut out);
            for i in 0..elems {
                let got = f64::from_le_bytes(out[i * 8..i * 8 + 8].try_into().unwrap());
                let want: f64 = (0..n).map(|r| (r + 2 * i) as f64).sum();
                assert_eq!(got, want);
            }
        })
        .unwrap();
    }

    /// ISSUE 4: the transport autotuner changes *when* bytes move, never
    /// *which* bytes — a tuned config (knee-derived pipeline + protocol-
    /// selecting collectives) produces byte-identical put/get transfer
    /// contents and collective results to the untuned default across
    /// random sizes, dtypes and rank counts, on both a host-capped
    /// (A: staged put/get pipelines) and an uncapped (C) platform.
    #[test]
    fn tuned_config_is_byte_identical_to_default(
        len in 1u64..(2 << 20),
        nodes in 1usize..3,
        elems in 1usize..24,
        platform_c in 0u8..2,
        which in 0u8..3,
    ) {
        use diomp::core::{DiompConfig, DiompRuntime};
        use diomp::sim::ClusterSpec;
        use std::sync::Arc;

        let dtype = [ReduceOp::SumU64, ReduceOp::SumF32, ReduceOp::MaxF64][which as usize];
        let platform = if platform_c == 1 {
            PlatformSpec::platform_c()
        } else {
            PlatformSpec::platform_a()
        };
        // RMA transfer contents: rank 0 puts into 1, then gets back from
        // the last rank, under tuned vs default.
        let p2p = |tuned: bool| {
            let cluster =
                ClusterSpec { platform: platform.clone(), nodes: 2, gpus_per_node: 1 };
            let cfg = DiompConfig::builder(cluster).with_heap(8 << 20);
            let cfg = if tuned { cfg.tuned() } else { cfg }.build();
            let out = Arc::new(std::sync::Mutex::new((Vec::new(), Vec::new())));
            let out2 = out.clone();
            DiompRuntime::run(cfg, move |ctx, rank| {
                let ptr = rank.alloc_sym(ctx, len).unwrap();
                let fill: Vec<u8> =
                    (0..len as usize).map(|i| (i.wrapping_mul(17) + rank.rank * 3) as u8).collect();
                rank.write_local(rank.primary(), ptr, 0, &fill);
                rank.barrier(ctx);
                if rank.rank == 0 {
                    rank.put(ctx, 1, ptr, 0, ptr, 0, len).unwrap();
                    rank.fence(ctx);
                }
                rank.barrier(ctx);
                if rank.rank == 0 {
                    rank.get(ctx, 1, ptr, 0, ptr, 0, len).unwrap();
                    rank.fence(ctx);
                }
                rank.barrier(ctx);
                let mut got = vec![0u8; len as usize];
                rank.read_local(rank.primary(), ptr, 0, &mut got);
                let mut o = out2.lock().unwrap();
                if rank.rank == 0 { o.0 = got } else if rank.rank == 1 { o.1 = got }
            })
            .unwrap();
            let v = out.lock().unwrap().clone();
            v
        };
        prop_assert_eq!(p2p(true), p2p(false), "tuned RMA must move identical bytes");

        // Collective results: integer-valued payloads make every
        // association order exact, so tree- and chain-order reductions
        // must agree bit-for-bit.
        let coll = |tuned: bool| {
            let cfg = DiompConfig::builder_on(platform.clone(), nodes).with_heap(2 << 20);
            let cfg = if tuned { cfg.tuned() } else { cfg }.build();
            let out = Arc::new(std::sync::Mutex::new(Vec::new()));
            let out2 = out.clone();
            DiompRuntime::run(cfg, move |ctx, rank| {
                let world = rank.shared.world_group();
                let ptr = rank.alloc_sym(ctx, (elems * 8) as u64).unwrap();
                let gen = |i: usize| ((rank.rank * 7 + i * 3) % 64) as u64;
                let bytes: Vec<u8> = match dtype {
                    ReduceOp::SumF32 => {
                        (0..elems * 2).flat_map(|i| (gen(i) as f32).to_le_bytes()).collect()
                    }
                    _ => (0..elems).flat_map(|i| gen(i).to_le_bytes()).collect(),
                };
                rank.write_local(rank.primary(), ptr, 0, &bytes);
                rank.barrier(ctx);
                rank.allreduce(ctx, &world, ptr, (elems * 8) as u64, dtype);
                rank.bcast(ctx, &world, 0, ptr, (elems * 8) as u64);
                let mut got = vec![0u8; elems * 8];
                rank.read_local(rank.primary(), ptr, 0, &mut got);
                out2.lock().unwrap().push((rank.rank, got));
            })
            .unwrap();
            let mut rows = out.lock().unwrap().clone();
            rows.sort_by_key(|&(r, _)| r);
            rows
        };
        prop_assert_eq!(coll(true), coll(false), "tuned collectives must land identical bytes");
    }
}

// ---------- ISSUE 4: tuned minimod wavefields ----------

/// The tuned transport must not perturb an application's physics: the
/// minimod wavefield is byte-identical under tuned and default configs,
/// and the tuned run is trace-deterministic (same entry count and
/// elapsed time on replay).
#[test]
fn tuned_minimod_wavefield_is_byte_identical_and_deterministic() {
    use diomp::apps::minimod::{self, HaloStyle, MinimodConfig};
    use diomp::device::DataMode;

    let cfg = |tuned: bool| MinimodConfig {
        platform: PlatformSpec::platform_a(),
        gpus: 4,
        nx: 24,
        ny: 24,
        nz: 48,
        steps: 3,
        mode: DataMode::Functional,
        verify: false,
        halo: HaloStyle::Get,
        tuned,
    };
    let tuned_a = minimod::diomp::run(&cfg(true));
    let tuned_b = minimod::diomp::run(&cfg(true));
    let default = minimod::diomp::run(&cfg(false));
    let wf_tuned = tuned_a.wavefield.expect("functional run captures the wavefield");
    assert_eq!(
        Some(&wf_tuned),
        default.wavefield.as_ref(),
        "tuned and default wavefields must be byte-identical"
    );
    assert_eq!(tuned_a.elapsed, tuned_b.elapsed, "tuned run must replay identically");
    assert_eq!(tuned_a.entries, tuned_b.entries);
    assert_eq!(Some(wf_tuned), tuned_b.wavefield);
}

// ---------- ISSUE 5: dispatch-boundary continuity ----------

/// The three-regime dispatcher must be seamless: at the power-of-two
/// sizes straddling each crossover (LL→DBT and DBT→ring) the modelled
/// latency may not cliff — the step up in size costs at most the size
/// ratio plus protocol overhead, and `Auto` never loses to the pure
/// ring engine on either side of either boundary, on all three paper
/// platforms at Fig. 6 scale.
#[test]
fn auto_dispatch_has_no_cliff_at_regime_boundaries() {
    use diomp::apps::micro::{collective_price, diomp_collective, fig6_nodes, CollKind, CollProbe};
    use diomp::core::{CollEngine, Conduit, Tuner};

    for platform in
        [PlatformSpec::platform_a(), PlatformSpec::platform_b(), PlatformSpec::platform_c()]
    {
        let nodes = fig6_nodes(&platform);
        let engine = Tuner::new(&platform, Conduit::GasnetEx).coll_engine();
        let kind = CollKind::AllReduce;
        let probe = CollProbe { platform: &platform, nodes, server_nodes: 0, kind, engine };
        let (ll_cut, dbt_cut, _) = collective_price(&probe, &[]).cuts.expect("Auto has regimes");
        // Both boundaries inside the scan; an empty band has none.
        let boundaries = [ll_cut, dbt_cut].into_iter().filter(|&c| c > 0 && c < 1 << 30);
        for cut in boundaries.collect::<std::collections::BTreeSet<_>>() {
            // `cut` is the last size of the lower regime; twice it is
            // the first power-of-two size of the upper regime.
            let sizes = [cut, 2 * cut];
            let run = |engine| {
                let kind = CollKind::AllReduce;
                let probe = CollProbe { platform: &platform, nodes, server_nodes: 0, kind, engine };
                diomp_collective(&probe, &sizes)
            };
            let auto = run(Tuner::new(&platform, Conduit::GasnetEx).coll_engine());
            let ring = run(CollEngine::default());
            let (below, above) = (auto[0].1, auto[1].1);
            assert!(
                above <= 4.0 * below,
                "{} boundary {cut}: latency cliffs {below:.1}µs -> {above:.1}µs",
                platform.name
            );
            for (&(s, auto_us, _), &(_, ring_us, _)) in auto.iter().zip(&ring) {
                assert!(
                    auto_us <= ring_us * 1.01,
                    "{} @{s}: Auto ({auto_us:.1}µs) must not lose to the ring ({ring_us:.1}µs) \
                     at a regime boundary",
                    platform.name
                );
            }
        }
    }
}

// ---------- ISSUE 8: in-network reduction offload ----------

/// Boot a server-equipped Auto communicator (trailing `servers` nodes
/// carved out via `ServerSpec::tail`) under `plan` and return its live
/// regime triple `(ll_cut, dbt_cut, rsv_cut)` — the boundaries the
/// dispatcher actually prices at query time, health vector included.
fn server_cuts(
    platform: &diomp::sim::PlatformSpec,
    clients: usize,
    servers: usize,
    plan: &diomp::sim::FaultPlan,
) -> (u64, u64, u64) {
    use diomp::device::{DataMode, DeviceTable};
    use diomp::fabric::{FabricWorld, ReduceOp};
    use diomp::sim::{ClusterSpec, Topology};
    use diomp::xccl::{AutoConfig, CollEngine, CommOpts, ServerSpec, UniqueId, XcclComm, XcclOp};
    use std::sync::Arc;

    let nodes = clients + servers;
    let gpn = platform.gpus_per_node;
    let nranks = nodes * gpn;
    let mut sim = Sim::new();
    sim.set_fault_plan(plan.clone());
    let spec = ClusterSpec { platform: platform.clone(), nodes, gpus_per_node: gpn };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, Some(1 << 20));
    let world = FabricWorld::new(topo, devs, nranks);
    world.refresh_health_from_plan(plan);
    let id = UniqueId::generate();
    let out = Arc::new(std::sync::Mutex::new((0u64, 0u64, 0u64)));
    let out2 = out.clone();
    let ac = AutoConfig::for_platform(platform);
    for r in 0..nranks {
        let world = world.clone();
        let out2 = out2.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            let bits = world.bootstrap.exchange(ctx, r, if r == 0 { id.bits() } else { 0 })[0];
            let comm = XcclComm::init(
                ctx,
                &world,
                (0..nranks).collect(),
                r,
                UniqueId::from_bits(bits),
                CommOpts {
                    engine: CollEngine::Auto(ac),
                    servers: ServerSpec::tail(servers),
                    ..CommOpts::default()
                },
            );
            if r == 0 {
                *out2.lock().unwrap() = comm
                    .auto_regimes(&XcclOp::AllReduce { op: ReduceOp::SumF32 })
                    .expect("Auto engine always has regimes");
            }
        });
    }
    sim.run().unwrap();
    let v = *out.lock().unwrap();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The reduction-server offload changes *where* the fold runs, never
    /// its result: across random payload lengths, dtypes, cluster sizes
    /// and server counts, every client rank lands bytes identical to the
    /// sequential client-order fold, every server buffer passes through
    /// untouched, and the same inputs replay the same virtual-time trace.
    #[test]
    fn rserver_offload_is_byte_identical_and_deterministic(
        nodes in 3usize..5,
        servers in 1usize..3,
        elems in 1usize..64,
        which in 0u8..4,
    ) {
        use diomp::device::{DataMode, DeviceTable};
        use diomp::fabric::{FabricWorld, ReduceOp};
        use diomp::sim::{ClusterSpec, PlatformSpec, SimTime, Topology};
        use diomp::xccl::{
            CollEngine, CommOpts, DeviceBuf, RingConfig, ServerSpec, UniqueId, XcclComm, XcclOp,
        };
        use std::sync::Arc;

        let dtype =
            [ReduceOp::SumF64, ReduceOp::SumF32, ReduceOp::MaxF64, ReduceOp::SumU64]
                [which as usize];
        let platform = PlatformSpec::platform_a();
        let gpn = platform.gpus_per_node;
        let nranks = nodes * gpn;
        let nclients = (nodes - servers) * gpn;
        let len = (elems * 8) as u64;
        // Integer-valued payloads small enough to be exact in f32, so
        // every association order the schedule produces is bit-exact.
        let gen = |r: usize, i: usize| ((r as u64 + 1) * (i as u64 % 13 + 1)) as f64;
        let encode = |r: usize| -> Vec<u8> {
            match dtype {
                ReduceOp::SumF32 => {
                    (0..elems * 2).flat_map(|i| (gen(r, i) as f32).to_le_bytes()).collect()
                }
                ReduceOp::SumU64 => {
                    (0..elems).flat_map(|i| (gen(r, i) as u64).to_le_bytes()).collect()
                }
                _ => (0..elems).flat_map(|i| gen(r, i).to_le_bytes()).collect(),
            }
        };
        let fold = |i: usize| -> f64 {
            match dtype {
                ReduceOp::MaxF64 => gen(nclients - 1, i),
                _ => (0..nclients).map(|r| gen(r, i)).sum(),
            }
        };
        let expect_client: Vec<u8> = match dtype {
            ReduceOp::SumF32 => {
                (0..elems * 2).flat_map(|i| (fold(i) as f32).to_le_bytes()).collect()
            }
            ReduceOp::SumU64 => (0..elems).flat_map(|i| (fold(i) as u64).to_le_bytes()).collect(),
            _ => (0..elems).flat_map(|i| fold(i).to_le_bytes()).collect(),
        };

        let run = || -> (SimTime, Vec<Vec<u8>>) {
            let mut sim = Sim::new();
            let spec = ClusterSpec { platform: platform.clone(), nodes, gpus_per_node: gpn };
            let topo = Arc::new(Topology::build(&sim.handle(), spec));
            let devs =
                DeviceTable::build(&sim.handle(), topo.clone(), DataMode::Functional, Some(1 << 20));
            let world = FabricWorld::new(topo, devs, nranks);
            let id = UniqueId::generate();
            let results = Arc::new(std::sync::Mutex::new(vec![Vec::new(); nranks]));
            for r in 0..nranks {
                let world = world.clone();
                let results = results.clone();
                let bytes = encode(r);
                sim.spawn(format!("rank{r}"), move |ctx| {
                    let bits =
                        world.bootstrap.exchange(ctx, r, if r == 0 { id.bits() } else { 0 })[0];
                    let comm = XcclComm::init(
                        ctx,
                        &world,
                        (0..nranks).collect(),
                        r,
                        UniqueId::from_bits(bits),
                        CommOpts {
                            engine: CollEngine::ReductionServer(RingConfig::default()),
                            servers: ServerSpec::tail(servers),
                            ..CommOpts::default()
                        },
                    );
                    let dev = world.primary_dev(r);
                    let off = dev.malloc(len, 256).unwrap();
                    dev.mem.write(off, &bytes).unwrap();
                    comm.collective(
                        ctx,
                        r,
                        vec![DeviceBuf { flat: r, off }],
                        XcclOp::AllReduce { op: dtype },
                        len,
                    );
                    let mut out = vec![0u8; len as usize];
                    dev.mem.read(off, &mut out).unwrap();
                    results.lock().unwrap()[r] = out;
                });
            }
            let end = sim.run().unwrap().end_time;
            let rows = results.lock().unwrap().clone();
            (end, rows)
        };
        let (end_a, rows) = run();
        for (r, got) in rows.iter().enumerate() {
            if r < nclients {
                prop_assert_eq!(
                    got, &expect_client,
                    "client rank {} diverged from the client-order fold ({:?})", r, dtype
                );
            } else {
                prop_assert_eq!(
                    got, &encode(r),
                    "server rank {} buffer must pass through untouched ({:?})", r, dtype
                );
            }
        }
        let (end_b, rows_b) = run();
        prop_assert_eq!(end_a, end_b, "same inputs must replay the same virtual-time trace");
        prop_assert_eq!(rows, rows_b);
    }
}

/// The fourth regime boundary is seamless too: at the power-of-two
/// sizes straddling the live `rsv_cut` on a server-provisioned cluster,
/// the modelled latency may not cliff, and `Auto` never loses to the
/// pure ring engine on either side — on all three paper platforms.
#[test]
fn auto_dispatch_has_no_cliff_at_the_server_boundary() {
    use diomp::apps::micro::{diomp_collective, CollKind, CollProbe};
    use diomp::core::{CollEngine, Conduit, Tuner};
    use diomp::sim::{FaultPlan, PlatformSpec};

    for (platform, clients, servers) in [
        (PlatformSpec::platform_a(), 8usize, 8usize),
        (PlatformSpec::platform_b(), 4, 4),
        (PlatformSpec::platform_c(), 8, 8),
    ] {
        let (_, dbt_cut, rsv_cut) = server_cuts(&platform, clients, servers, &FaultPlan::new());
        assert!(
            rsv_cut > dbt_cut,
            "{}: a provisioned {clients}+{servers} layout must open the server regime \
             strictly above the mid band (rsv_cut {rsv_cut} vs dbt_cut {dbt_cut})",
            platform.name
        );
        let above = rsv_cut.next_power_of_two();
        let sizes = [above / 2, above];
        let nodes = clients + servers;
        let run = |engine| {
            let kind = CollKind::AllReduce;
            let probe =
                CollProbe { platform: &platform, nodes, server_nodes: servers, kind, engine };
            diomp_collective(&probe, &sizes)
        };
        let auto = run(Tuner::new(&platform, Conduit::GasnetEx).coll_engine());
        let ring = run(CollEngine::default());
        let (below_us, above_us) = (auto[0].1, auto[1].1);
        assert!(
            above_us <= 4.0 * below_us,
            "{} boundary {rsv_cut}: latency cliffs {below_us:.1}µs -> {above_us:.1}µs",
            platform.name
        );
        for (&(s, auto_us, _), &(_, ring_us, _)) in auto.iter().zip(&ring) {
            assert!(
                auto_us <= ring_us * 1.01,
                "{} @{s}: Auto ({auto_us:.1}µs) must not lose to the ring ({ring_us:.1}µs) \
                 at the server boundary",
                platform.name
            );
        }
    }
}

/// The fourth boundary is priced from the *live* configuration, not a
/// frozen table: shrinking the live server set to the point where the
/// servers are injection-bound closes the regime outright, and a
/// degraded fabric (which reprices every schedule) moves it.
#[test]
fn server_crossover_tracks_the_live_ring_and_server_config() {
    use diomp::device::{DataMode, DeviceTable};
    use diomp::sim::{ClusterSpec, FaultPlan, PlatformSpec, SimTime, Topology};
    use std::sync::Arc;

    let platform = PlatformSpec::platform_a();
    let (clients, servers) = (8usize, 8usize);
    let gpn = platform.gpus_per_node;
    let healthy = server_cuts(&platform, clients, servers, &FaultPlan::new());
    assert!(healthy.2 > healthy.1, "healthy 8+8 must open the server regime: {healthy:?}");

    // Build the fault plans against a probe topology (same shape the
    // runs boot, so flat device ids line up).
    let probe = Sim::new();
    let spec =
        ClusterSpec { platform: platform.clone(), nodes: clients + servers, gpus_per_node: gpn };
    let topo = Arc::new(Topology::build(&probe.handle(), spec));
    let devs = DeviceTable::build(&probe.handle(), topo.clone(), DataMode::CostOnly, Some(1 << 20));
    let mut half = FaultPlan::new();
    for f in (clients + servers / 2) * gpn..(clients + servers) * gpn {
        half = half.kill_link(devs.dev(f).nic);
    }
    let mut degraded = FaultPlan::new();
    for f in 0..(clients + servers) * gpn {
        degraded = degraded.degrade_link(devs.dev(f).nic, SimTime::ZERO, SimTime(u64::MAX), 50);
    }
    drop(probe);

    // Half the server nodes dead: 32 client NICs feed 16 server NICs,
    // the servers are injection-bound, the priced win region vanishes —
    // the dispatcher must close the regime rather than offload at a loss.
    let shrunk = server_cuts(&platform, clients, servers, &half);
    assert_eq!(
        shrunk.2, 0,
        "an injection-bound live server set must close the fourth regime: {shrunk:?}"
    );

    // A fabric degraded to 5% of nominal bandwidth reprices every
    // boundary; the server cut must move with the live pricing (here it
    // opens at 1 MiB instead of right above the LL band), never stay
    // frozen.
    let repriced = server_cuts(&platform, clients, servers, &degraded);
    assert!(
        repriced.2 > 0 && repriced.2 != healthy.2,
        "a 20x slower wire must move the server boundary: {repriced:?} vs {healthy:?}"
    );
}

// ---------- ISSUE 7: multi-tenant shared-fabric contention ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The per-link weighted fair queue is work-conserving and loses no
    /// virtual time across flow merges and splits: under an arbitrary
    /// mix of flows, weights and staggered arrivals, every issued byte
    /// is delivered, the link never beats its capacity, and everything
    /// drains by "last arrival + serial service of all bytes" (plus at
    /// most one nanosecond of ceil rounding per completion).
    #[test]
    fn contention_is_work_conserving_under_random_flows(
        weights in prop::collection::vec(50u32..5000, 2..6),
        draws in prop::collection::vec(0u64..u64::MAX, 1..24),
    ) {
        use diomp::sim::{derive_seed, SimTime};
        // Decode each raw draw into (flow, bytes, arrival) — the vendored
        // proptest shim has no tuple strategies.
        let transfers: Vec<(usize, u64, u64)> = draws
            .iter()
            .map(|&d| {
                (
                    (d % 8) as usize,
                    1 + derive_seed(d, 1) % ((4 << 20) - 1),
                    derive_seed(d, 2) % 50_000,
                )
            })
            .collect();
        let bpns = 25.0; // one 25 GB/s NIC port
        let mut sim = Sim::new();
        sim.enable_contention();
        let h = sim.handle();
        let res = h.new_resource(bpns, Dur::ZERO);
        let flows: Vec<_> = weights.iter().map(|&w| h.new_flow(w)).collect();
        let mut issued = 0u64;
        let mut last_arrival = 0u64;
        for (i, &(f, bytes, arrive)) in transfers.iter().enumerate() {
            let flow = flows[f % flows.len()];
            issued += bytes;
            last_arrival = last_arrival.max(arrive);
            let h = sim.handle();
            sim.spawn(format!("t{i}"), move |ctx| {
                ctx.delay(Dur::nanos(arrive));
                let cq = h.open_cq();
                h.transfer_qos(res, flow, ctx.now(), bytes, (cq, 0));
                ctx.wait_cq(cq, Wait::Block).unwrap();
            });
        }
        let end = sim.run().unwrap().end_time;
        let stats: Vec<_> = flows.iter().map(|&f| h.flow_stats(f)).collect();

        let delivered: u64 = stats.iter().map(|s| s.bytes).sum();
        prop_assert_eq!(delivered, issued, "flow stats must account for every issued byte");

        // Work conservation: the wire never idles while any flow is
        // backlogged, so the whole mix drains within the serial service
        // time of the last-arriving backlog. Each completion is ceil'd
        // to a whole nanosecond, which can idle the link < 1 ns per
        // transfer — that is the only slack allowed.
        let service_ns = (issued as f64 / bpns).ceil() as u64;
        let slack = 2 * transfers.len() as u64 + 4;
        prop_assert!(
            end <= SimTime(last_arrival + service_ns + slack),
            "fair queue lost virtual time: end {:?} > last arrival {} + service {} + slack {}",
            end, last_arrival, service_ns, slack
        );

        // And the converse: the fluid shares may never sum past link
        // capacity, so the busy span is at least the serial service time
        // of what was delivered.
        let first = stats.iter().filter_map(|s| s.first_start).min().expect("flows ran");
        let last = stats.iter().map(|s| s.last_depart).max().expect("flows ran");
        let span_ns = last.since(first).as_nanos();
        prop_assert!(
            issued as f64 <= bpns * (span_ns as f64 + 2.0),
            "fair queue beat link capacity: {} bytes in {} ns at {} B/ns",
            issued, span_ns, bpns
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Data semantics are independent of contention: randomized
    /// concurrent jobs — each with its own communicator, engine, QoS
    /// class and seeded arrival, all colliding on one armed fabric —
    /// still produce allreduce results byte-identical to the sequential
    /// reference on every rank (payloads are integer-valued f64s, so
    /// every association order is exact).
    #[test]
    fn engines_stay_byte_identical_under_concurrent_jobs(seed in 0u64..1_000_000) {
        use std::sync::Arc;
        use diomp::device::{DataMode, DeviceTable};
        use diomp::fabric::FabricWorld;
        use diomp::sim::{derive_seed, ClusterSpec, Topology};
        use diomp::xccl::{
            AutoConfig, CollEngine, CommOpts, DeviceBuf, QosClass, RingConfig, UniqueId,
            XcclComm, XcclOp,
        };
        use std::sync::Mutex;

        const NODES: usize = 2;
        const NJOBS: usize = 3;
        let platform = PlatformSpec::platform_a();
        let nranks = NODES * platform.gpus_per_node;
        let engines = [
            CollEngine::Ring(RingConfig::default()),
            CollEngine::Dbt(RingConfig::default()),
            CollEngine::Auto(AutoConfig::for_platform(&platform)),
        ];
        let classes = [QosClass::High, QosClass::Normal, QosClass::Low];

        let mut sim = Sim::new();
        sim.enable_contention();
        let cluster = ClusterSpec {
            platform: platform.clone(),
            nodes: NODES,
            gpus_per_node: platform.gpus_per_node,
        };
        let topo = Arc::new(Topology::build(&sim.handle(), cluster));
        let devs =
            DeviceTable::build(&sim.handle(), topo.clone(), DataMode::Functional, Some(16 << 20));
        let world = FabricWorld::new(topo, devs, nranks);

        let results: Arc<Mutex<Vec<Vec<Vec<f64>>>>> =
            Arc::new(Mutex::new(vec![vec![Vec::new(); nranks]; NJOBS]));
        let mut lens = Vec::new();
        for job in 0..NJOBS {
            let h = derive_seed(seed, 0x10B + job as u64);
            let len = 8 << (10 + h % 6); // 8 KiB .. 256 KiB, seeded
            lens.push(len);
            let engine = engines[job % engines.len()];
            let qos = classes[(h >> 8) as usize % classes.len()];
            let arrival = Dur::nanos(derive_seed(h, 1) % 100_000);
            let id = UniqueId::generate();
            for r in 0..nranks {
                let world = world.clone();
                let results = results.clone();
                sim.spawn(format!("job{job}-rank{r}"), move |ctx| {
                    ctx.delay(arrival);
                    let comm = XcclComm::init(
                        ctx,
                        &world,
                        (0..nranks).collect(),
                        r,
                        id,
                        CommOpts { engine, qos, ..CommOpts::default() },
                    );
                    let dev = world.primary_dev(r);
                    let off = dev.malloc(len, 256).unwrap();
                    let vals: Vec<u8> = (0..len / 8)
                        .flat_map(|i| {
                            ((job as u64 + 1) * (r as u64 + 1) * (i % 13 + 1)) as f64
                        }.to_le_bytes())
                        .collect();
                    dev.mem.write(off, &vals).unwrap();
                    comm.collective(
                        ctx,
                        r,
                        vec![DeviceBuf { flat: r, off }],
                        XcclOp::AllReduce { op: ReduceOp::SumF64 },
                        len,
                    );
                    let mut out = vec![0u8; len as usize];
                    dev.mem.read(off, &mut out).unwrap();
                    results.lock().unwrap()[job][r] = out
                        .chunks_exact(8)
                        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                        .collect();
                });
            }
        }
        sim.run().unwrap();

        for (job, per_rank) in results.lock().unwrap().iter().enumerate() {
            let expect: Vec<f64> = (0..lens[job] / 8)
                .map(|i| {
                    (1..=nranks as u64)
                        .map(|r| ((job as u64 + 1) * r * (i % 13 + 1)) as f64)
                        .sum()
                })
                .collect();
            for (r, got) in per_rank.iter().enumerate() {
                prop_assert_eq!(
                    got, &expect,
                    "seed {}: job {} rank {} diverged under contention", seed, job, r
                );
            }
        }
    }
}

/// `(end_time, entries_processed, digest)` of a seeded DiOMP program on
/// two platform-A nodes: a communicator init on the world group (the
/// plan registry), an Auto allreduce (Auto's cut memo), a barrier and a
/// fenced put to the next rank.
fn seeded_diomp_run(seed: u64) -> (diomp::sim::SimTime, u64, u64) {
    use diomp::core::{DiompConfig, DiompRuntime};
    use diomp::xccl::{AutoConfig, CollEngine};

    let platform = PlatformSpec::platform_a();
    let engine = CollEngine::Auto(AutoConfig::for_platform(&platform));
    let cfg = DiompConfig::builder_on(platform, 2).with_heap(2 << 20).with_coll_engine(engine);
    let len = 8u64 << (8 + diomp::sim::derive_seed(seed, 0) % 8); // 2 KiB .. 256 KiB
    let rep = DiompRuntime::run(cfg.build(), move |ctx, rank| {
        let world = rank.shared.world_group();
        let ptr = rank.alloc_sym(ctx, len).unwrap();
        let mut rng = diomp::sim::rng_for(seed, rank.rank as u64);
        use rand::Rng;
        let bytes: Vec<u8> =
            (0..len / 8).flat_map(|_| (rng.gen_range(0..64) as f64).to_le_bytes()).collect();
        rank.write_local(rank.primary(), ptr, 0, &bytes);
        rank.ompccl_comm(ctx, &world);
        rank.allreduce(ctx, &world, ptr, len, ReduceOp::SumF64);
        rank.barrier(ctx);
        let next = (rank.rank + 1) % rank.nranks();
        rank.put(ctx, next, ptr, 0, ptr, 0, len).unwrap();
        rank.fence(ctx);
    })
    .unwrap();
    (rep.end_time, rep.entries_processed, rep.digest)
}

/// The plan registry is per thread and Auto's cut memo per process: the
/// same seeded program run twice at once on two OS threads and once on
/// the calling thread pops the same entries in the same order each time.
#[test]
fn same_seed_replays_on_two_threads_at_once_and_on_the_caller() {
    let seed = 20250613;
    let runs: Vec<_> = (0..2).map(|_| std::thread::spawn(move || seeded_diomp_run(seed))).collect();
    let here = seeded_diomp_run(seed);
    for run in runs {
        assert_eq!(run.join().expect("the threaded run completes"), here);
    }
}
