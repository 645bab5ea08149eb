//! Ring-protocol engine tests (ISSUE 2): data byte-identity against
//! sequential references across random sizes/dtypes/rank counts, replay
//! determinism of the emergent schedule, and emergent-vs-profile timing
//! behaviour. ISSUE 4 adds the `CollEngine::Auto` protocol-selection
//! tests: the LL/tree fast path must agree byte-for-byte with the other
//! engines, beat the ring at small sizes, and collapse onto the ring
//! above the crossover.

use std::rc::Rc;
use std::sync::Arc;

use diomp_device::{DataMode, DeviceTable};
use diomp_fabric::{FabricWorld, ReduceOp};
use diomp_sim::{ClusterSpec, PlatformSpec, Sim, SimTime, Topology};
use diomp_xccl::{
    AutoConfig, CollEngine, CommOpts, DeviceBuf, RingConfig, UniqueId, XcclComm, XcclOp,
};
use proptest::prelude::*;

fn boot(
    sim: &Sim,
    platform: PlatformSpec,
    nodes: usize,
    per: usize,
    nranks: usize,
) -> Rc<FabricWorld> {
    let spec = ClusterSpec { platform, nodes, gpus_per_node: per };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::Functional, Some(8 << 20));
    FabricWorld::new(topo, devs, nranks)
}

/// Run `f` on every rank of a `nranks`-device platform-A job with a
/// communicator over all ranks using `engine`; returns (end time,
/// entries processed, run digest).
fn with_engine(
    nranks: usize,
    engine: CollEngine,
    f: impl Fn(&mut diomp_sim::Ctx, &Rc<FabricWorld>, &Rc<XcclComm>, usize) + 'static,
) -> (SimTime, u64, u64) {
    let mut sim = Sim::new();
    // One device per rank; pack nodes as densely as the rank count
    // divides so odd counts still form valid multi-node rings.
    let per = [4usize, 2, 1].into_iter().find(|&p| nranks.is_multiple_of(p)).unwrap();
    let world = boot(&sim, PlatformSpec::platform_a(), nranks / per, per, nranks);
    let id = UniqueId::generate();
    let f = Rc::new(f);
    for r in 0..nranks {
        let world = world.clone();
        let f = f.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            let bits = world.bootstrap.exchange(ctx, r, if r == 0 { id.bits() } else { 0 })[0];
            let comm = XcclComm::init(
                ctx,
                &world,
                (0..world.nranks).collect(),
                r,
                UniqueId::from_bits(bits),
                CommOpts { engine, ..CommOpts::default() },
            );
            f(ctx, &world, &comm, r);
        });
    }
    let rep = sim.run().unwrap();
    (rep.end_time, rep.entries_processed, rep.digest)
}

fn payload(rank: usize, len: usize, dtype: ReduceOp) -> Vec<u8> {
    // Integer-valued elements: sums/maxima are exact in every association
    // order, so the reference does not depend on how it is folded.
    let gen = |i: usize| ((rank * 7 + i * 3) % 100) as u64;
    let mut out = Vec::with_capacity(len);
    match dtype {
        ReduceOp::SumF64 | ReduceOp::MaxF64 => {
            for i in 0..len / 8 {
                out.extend((gen(i) as f64).to_le_bytes());
            }
        }
        ReduceOp::SumF32 => {
            for i in 0..len / 4 {
                out.extend((gen(i) as f32).to_le_bytes());
            }
        }
        ReduceOp::SumU64 => {
            for i in 0..len / 8 {
                out.extend(gen(i).to_le_bytes());
            }
        }
    }
    out.resize(len, 0xAB); // ragged tail bytes
    out
}

fn reference(nranks: usize, len: usize, dtype: ReduceOp) -> Vec<u8> {
    let mut acc = payload(0, len, dtype);
    let whole = match dtype {
        ReduceOp::SumF32 => len / 4 * 4,
        _ => len / 8 * 8,
    };
    for r in 1..nranks {
        dtype.combine(&mut acc[..whole], &payload(r, len, dtype)[..whole]);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Ring allreduce is byte-identical to the sequential reference
    /// reduction for random payload sizes, dtypes, rank counts, and
    /// pipeline shapes (chunk size / in-flight window), including ragged
    /// tails and multi-node rings.
    #[test]
    fn ring_allreduce_matches_sequential_reference(
        nranks in 2usize..9,
        len in 1usize..4096,
        chunk in 1u64..2048,
        inflight in 1usize..5,
        which in 0u8..4,
    ) {
        let dtype = [ReduceOp::SumF64, ReduceOp::SumF32, ReduceOp::SumU64, ReduceOp::MaxF64]
            [which as usize];
        let engine = CollEngine::Ring(RingConfig { chunk_bytes: chunk, max_inflight: inflight });
        let want = reference(nranks, len, dtype);
        with_engine(nranks, engine, move |ctx, world, comm, r| {
            let dev = world.primary_dev(r);
            let off = dev.malloc(len.next_power_of_two().max(64) as u64, 256).unwrap();
            dev.mem.write(off, &payload(r, len, dtype)).unwrap();
            comm.collective(
                ctx,
                r,
                vec![DeviceBuf { flat: r, off }],
                XcclOp::AllReduce { op: dtype },
                len as u64,
            );
            let mut got = vec![0u8; len];
            dev.mem.read(off, &mut got).unwrap();
            assert_eq!(got, reference(world.nranks, len, dtype), "rank {r}");
        });
        let _ = want;
    }

    /// The ring engine's data semantics agree byte-for-byte with the
    /// profile engine's for every collective kind on arbitrary payloads.
    #[test]
    fn ring_and_profile_engines_deposit_identical_bytes(
        nranks in 2usize..9,
        len in 8usize..2048,
        kind in 0u8..4,
    ) {
        let run = |engine: CollEngine| {
            let out = Arc::new(std::sync::Mutex::new(Vec::new()));
            let out2 = out.clone();
            with_engine(nranks, engine, move |ctx, world, comm, r| {
                let n = world.nranks;
                let dev = world.primary_dev(r);
                let cap = (len * n).next_power_of_two().max(64) as u64;
                let off = dev.malloc(cap, 256).unwrap();
                let bytes: Vec<u8> =
                    (0..len * n).map(|i| (r * 31 + i * 7) as u8).collect();
                dev.mem.write(off, &bytes).unwrap();
                let op = match kind {
                    0 => XcclOp::AllReduce { op: ReduceOp::SumU64 },
                    1 => XcclOp::Broadcast { root: 1 % n },
                    2 => XcclOp::AllGather,
                    _ => XcclOp::Reduce { root: 1 % n, op: ReduceOp::SumU64 },
                };
                let payload = if kind == 2 { len as u64 } else { (len / 8 * 8).max(8) as u64 };
                comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, payload);
                let mut got = vec![0u8; len * n];
                dev.mem.read(off, &mut got).unwrap();
                out2.lock().unwrap().push((r, got));
            });
            let mut rows = out.lock().unwrap().clone();
            rows.sort_by_key(|&(r, _)| r);
            rows
        };
        let ring = run(CollEngine::Ring(RingConfig { chunk_bytes: 512, max_inflight: 2 }));
        let prof = run(CollEngine::Profile);
        prop_assert_eq!(ring, prof, "engines must agree on the final buffer bytes");
    }

    /// `CollEngine::Auto` deposits the same bytes as the ring engine on
    /// arbitrary payloads whichever regime its prices pick: on the tuned
    /// rings, and on 512-byte rings, whose per-chunk steps hand more of
    /// the small sizes to the LL/tree path.
    #[test]
    fn auto_engine_matches_ring_in_both_regimes(
        nranks in 2usize..9,
        len in 8usize..2048,
        kind in 0u8..4,
        tiny_rings in prop_oneof![Just(false), Just(true)],
    ) {
        let run = |engine: CollEngine| {
            let out = Arc::new(std::sync::Mutex::new(Vec::new()));
            let out2 = out.clone();
            with_engine(nranks, engine, move |ctx, world, comm, r| {
                let n = world.nranks;
                let dev = world.primary_dev(r);
                let cap = (len * n).next_power_of_two().max(64) as u64;
                let off = dev.malloc(cap, 256).unwrap();
                let bytes: Vec<u8> =
                    (0..len * n).map(|i| (r * 31 + i * 7) as u8).collect();
                dev.mem.write(off, &bytes).unwrap();
                let op = match kind {
                    0 => XcclOp::AllReduce { op: ReduceOp::SumU64 },
                    1 => XcclOp::Broadcast { root: 1 % n },
                    2 => XcclOp::AllGather,
                    _ => XcclOp::Reduce { root: 1 % n, op: ReduceOp::SumU64 },
                };
                let payload = if kind == 2 { len as u64 } else { (len / 8 * 8).max(8) as u64 };
                comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, payload);
                let mut got = vec![0u8; len * n];
                dev.mem.read(off, &mut got).unwrap();
                out2.lock().unwrap().push((r, got));
            });
            let mut rows = out.lock().unwrap().clone();
            rows.sort_by_key(|&(r, _)| r);
            rows
        };
        let mut ac = AutoConfig::for_platform(&PlatformSpec::platform_a());
        if tiny_rings {
            let tiny = RingConfig { chunk_bytes: 512, max_inflight: 2 };
            (ac.ring_bcast, ac.ring_allred) = (tiny, tiny);
        }
        let auto = run(CollEngine::Auto(ac));
        let ring = run(CollEngine::default());
        prop_assert_eq!(auto, ring, "auto must agree with the ring engine's bytes");
    }

    /// The double-binary-tree engine's reduction semantics are
    /// byte-identical to the *sequential reference* association for
    /// every dtype — including floats, where association order matters:
    /// every engine folds whole payloads in reference order.
    /// Random payload sizes (ragged tails included), chunkings, windows
    /// and rank counts, over single- and multi-node tree layouts.
    #[test]
    fn dbt_allreduce_matches_sequential_reference(
        nranks in 2usize..9,
        len in 1usize..4096,
        chunk in 1u64..2048,
        inflight in 1usize..5,
        which in 0u8..4,
    ) {
        let dtype = [ReduceOp::SumF64, ReduceOp::SumF32, ReduceOp::SumU64, ReduceOp::MaxF64]
            [which as usize];
        let engine = CollEngine::Dbt(RingConfig { chunk_bytes: chunk, max_inflight: inflight });
        with_engine(nranks, engine, move |ctx, world, comm, r| {
            let dev = world.primary_dev(r);
            let off = dev.malloc(len.next_power_of_two().max(64) as u64, 256).unwrap();
            dev.mem.write(off, &payload(r, len, dtype)).unwrap();
            comm.collective(
                ctx,
                r,
                vec![DeviceBuf { flat: r, off }],
                XcclOp::AllReduce { op: dtype },
                len as u64,
            );
            let mut got = vec![0u8; len];
            dev.mem.read(off, &mut got).unwrap();
            assert_eq!(got, reference(world.nranks, len, dtype), "rank {r}");
        });
    }

    /// The DBT engine deposits the same bytes as the ring engine for
    /// every collective kind — including the rooted ops (the fed
    /// broadcast, the rotated reduce trees) and all-gather (which falls
    /// back to the ring schedule under `CollEngine::Dbt`).
    #[test]
    fn dbt_engine_matches_ring_bytes(
        nranks in 2usize..9,
        len in 8usize..2048,
        kind in 0u8..4,
    ) {
        let run = |engine: CollEngine| {
            let out = Arc::new(std::sync::Mutex::new(Vec::new()));
            let out2 = out.clone();
            with_engine(nranks, engine, move |ctx, world, comm, r| {
                let n = world.nranks;
                let dev = world.primary_dev(r);
                let cap = (len * n).next_power_of_two().max(64) as u64;
                let off = dev.malloc(cap, 256).unwrap();
                let bytes: Vec<u8> =
                    (0..len * n).map(|i| (r * 31 + i * 7) as u8).collect();
                dev.mem.write(off, &bytes).unwrap();
                let op = match kind {
                    0 => XcclOp::AllReduce { op: ReduceOp::SumU64 },
                    1 => XcclOp::Broadcast { root: 1 % n },
                    2 => XcclOp::AllGather,
                    _ => XcclOp::Reduce { root: 1 % n, op: ReduceOp::SumU64 },
                };
                let payload = if kind == 2 { len as u64 } else { (len / 8 * 8).max(8) as u64 };
                comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, payload);
                let mut got = vec![0u8; len * n];
                dev.mem.read(off, &mut got).unwrap();
                out2.lock().unwrap().push((r, got));
            });
            let mut rows = out.lock().unwrap().clone();
            rows.sort_by_key(|&(r, _)| r);
            rows
        };
        let dbt = run(CollEngine::Dbt(RingConfig { chunk_bytes: 512, max_inflight: 2 }));
        let ring = run(CollEngine::default());
        prop_assert_eq!(dbt, ring, "dbt must agree with the ring engine's bytes");
    }
}

/// One fold writes the bytes: on data where association order shows —
/// non-integer f32, 8 ranks on 4 rails, a ragged tail — the ring deposits
/// exactly what the sequential fold over the ring-ordered buffers does,
/// and exactly what the double binary tree does on the same buffers.
#[test]
fn ring_allreduce_on_fractional_f32_matches_the_sequential_fold_and_dbt() {
    const NRANKS: usize = 8;
    const LEN: usize = 4098;
    let data = |r: usize| -> Vec<u8> {
        let mut out: Vec<u8> = (0..LEN / 4)
            .flat_map(|i| ((r as f32 + 1.0) * 0.37 + (i as f32 * 0.013).sin()).to_le_bytes())
            .collect();
        out.resize(LEN, 0xAB);
        out
    };
    let mut want = data(0);
    for r in 1..NRANKS {
        ReduceOp::SumF32.combine(&mut want[..LEN / 4 * 4], &data(r)[..LEN / 4 * 4]);
    }
    let run = |engine: CollEngine| {
        let out = Arc::new(std::sync::Mutex::new(vec![Vec::new(); NRANKS]));
        let out2 = out.clone();
        with_engine(NRANKS, engine, move |ctx, world, comm, r| {
            let dev = world.primary_dev(r);
            let off = dev.malloc(8192, 256).unwrap();
            dev.mem.write(off, &data(r)).unwrap();
            let op = XcclOp::AllReduce { op: ReduceOp::SumF32 };
            comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, LEN as u64);
            let mut got = vec![0u8; LEN];
            dev.mem.read(off, &mut got).unwrap();
            out2.lock().unwrap()[r] = got;
        });
        let rows = out.lock().unwrap().clone();
        rows
    };
    let rc = RingConfig { chunk_bytes: 512, max_inflight: 2 };
    let ring = run(CollEngine::Ring(rc));
    assert!(ring.iter().all(|row| *row == want), "ring vs the sequential fold");
    assert_eq!(ring, run(CollEngine::Dbt(rc)), "ring vs dbt");
}

#[test]
fn emergent_ring_trace_is_stable_across_runs() {
    // The fig6 determinism requirement: the ring schedule (thousands of
    // chunk arrivals racing through one march) must replay
    // bit-identically — same end time, same entry count, same digest.
    let run = || {
        with_engine(8, CollEngine::default(), |ctx, world, comm, r| {
            let dev = world.primary_dev(r);
            let off = dev.malloc(2 << 20, 256).unwrap();
            comm.collective(
                ctx,
                r,
                vec![DeviceBuf { flat: r, off }],
                XcclOp::AllReduce { op: ReduceOp::SumF32 },
                1 << 20,
            );
            comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], XcclOp::AllGather, 64 << 10);
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "ring schedule must be deterministic");
    assert!(a.1 > 0);
}

#[test]
fn ring_time_is_emergent_not_fitted() {
    // The two engines price the same collective differently (the ring
    // time comes from link scheduling, not the curve), and the emergent
    // time respects the physical lower bound of the bottleneck link.
    let coll = |engine: CollEngine| {
        with_engine(8, engine, move |ctx, _world, comm, r| {
            let off = 0; // CostOnly-style: allocate nothing, cost only
            let dev_off = _world.primary_dev(r).malloc(8 << 20, 256).unwrap();
            let _ = off;
            comm.collective(
                ctx,
                r,
                vec![DeviceBuf { flat: r, off: dev_off }],
                XcclOp::AllReduce { op: ReduceOp::SumF64 },
                4 << 20,
            );
        })
        .0
    };
    let ring = coll(CollEngine::default());
    let prof = coll(CollEngine::Profile);
    assert_ne!(ring, prof, "emergent completion must not collapse onto the curve fit");
    // 8 devices over 2 nodes, 4 rails: each inter-node NIC moves at least
    // wire_factor * len / nrings bytes at 25 GB/s — the emergent time can
    // never beat the raw link.
    let wire_per_rail = (2.0 * 7.0 / 8.0) * (4u64 << 20) as f64 / 4.0;
    let min_us = wire_per_rail / 25.0e3;
    assert!(
        ring.as_us() > min_us,
        "emergent time {}us beats the physical link bound {min_us}us",
        ring.as_us()
    );
}

/// Auto's regime boundaries for `op` at 16 ranks (4 nodes × 4 A100s).
fn cuts16(ac: AutoConfig, op: XcclOp) -> (u64, u64, u64) {
    let cuts = Arc::new(std::sync::Mutex::new(None));
    let out = cuts.clone();
    with_engine(16, CollEngine::Auto(ac), move |_, _, comm, r| {
        if r == 0 {
            *out.lock().unwrap() = comm.auto_regimes(&op);
        }
    });
    let got = cuts.lock().unwrap().expect("Auto has regimes");
    got
}

/// Run one collective of `len` bytes under `engine` at 16 ranks
/// (4 nodes × 4 A100s) and return the end time.
fn timed_collective(engine: CollEngine, op: XcclOp, len: u64) -> SimTime {
    with_engine(16, engine, move |ctx, world, comm, r| {
        let off = world.primary_dev(r).malloc((2 * len).next_power_of_two().max(64), 256).unwrap();
        comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, len);
    })
    .0
}

#[test]
fn auto_beats_ring_at_small_sizes_and_equals_it_at_large() {
    // The ISSUE 4 acceptance shape at engine level: below the crossover
    // the LL/tree fast path must finish earlier than the pure ring.
    // Above the allreduce's mid band, which ends by 512 KiB at 16 ranks,
    // Auto runs the identical (tuned) ring schedule, so the times exactly
    // equal the ring engine pinned to the same live config (not merely
    // within tolerance). The broadcast's fed tree undercuts the ring at
    // 4 MiB, so there Auto must beat it; the three-regime dispatch has
    // its own tests.
    let ac = AutoConfig::for_platform(&PlatformSpec::platform_a());
    let (bcast, allred) =
        (XcclOp::Broadcast { root: 0 }, XcclOp::AllReduce { op: ReduceOp::SumF32 });
    let large = 4u64 << 20;
    for op in [bcast, allred] {
        let small = 32u64 << 10;
        let auto = timed_collective(CollEngine::Auto(ac), op, small);
        let ring = timed_collective(CollEngine::default(), op, small);
        assert!(auto < ring, "{op:?}@32KiB: auto {auto:?} must beat ring {ring:?}");

        let auto = timed_collective(CollEngine::Auto(ac), op, large);
        let live = timed_collective(CollEngine::Ring(ac.ring_for(&op)), op, large);
        if op == allred {
            let (_, dbt_cut, _) = cuts16(ac, op);
            assert!(dbt_cut < large, "the allreduce mid band must end below {large}: {dbt_cut}");
            assert_eq!(
                auto, live,
                "allreduce@4MiB: auto must fall back to the identical live ring"
            );
        } else {
            assert!(auto < live, "broadcast@4MiB: auto {auto:?} must beat the ring {live:?}");
        }
    }
    // All-gather has no latency-bound regime: always the ring schedule.
    let auto = timed_collective(CollEngine::Auto(ac), XcclOp::AllGather, 16 << 10);
    let ring = timed_collective(
        CollEngine::Ring(ac.ring_for(&XcclOp::AllGather)),
        XcclOp::AllGather,
        16 << 10,
    );
    assert_eq!(auto, ring, "all-gather never takes the LL path");
}

#[test]
fn dbt_beats_ring_in_the_mid_band_and_is_deterministic() {
    // The PR 5 tentpole at engine level: at 16 ranks (4 nodes × 4
    // A100s) a 1 MiB allreduce sits squarely in the mid band — the
    // double binary tree's 2⌈log2 n⌉-deep schedule must finish earlier
    // than the ring's 2(n−1) steps, and replay bit-identically.
    let op = XcclOp::AllReduce { op: ReduceOp::SumF32 };
    let rc = RingConfig::auto(&PlatformSpec::platform_a(), &op, 4);
    let run = || timed_collective(CollEngine::Dbt(rc), op, 1 << 20);
    let dbt = run();
    assert_eq!(dbt, run(), "dbt schedule must be deterministic");
    let ring = timed_collective(CollEngine::default(), op, 1 << 20);
    assert!(dbt < ring, "DBT {dbt:?} must beat the ring {ring:?} at 1 MiB");
}

#[test]
fn auto_dispatches_three_regimes_in_order() {
    // The dispatcher's boundaries must be ordered and genuinely
    // separate the engines: at a size inside the mid band Auto matches
    // the DBT engine's schedule exactly, and above the upper cut it
    // matches the live ring exactly.
    let platform = PlatformSpec::platform_a();
    let ac = AutoConfig::for_platform(&platform);
    let op = XcclOp::AllReduce { op: ReduceOp::SumF32 };
    // 16 ranks over 4 nodes like timed_collective's world; on A the
    // tree undercuts LL from the smallest size, so the LL band is empty.
    let (ll_cut, dbt_cut, _) = cuts16(ac, op);
    assert!(ll_cut < dbt_cut, "boundaries must be ordered: {ll_cut} vs {dbt_cut}");
    // The priced band, with no ceiling, keeps the regime sizes inside
    // the test world's 8 MiB device heaps.
    assert!(dbt_cut <= 1 << 20, "A/16's mid band must end by 1 MiB, got {dbt_cut}");

    let mid = (dbt_cut / 2).max(ll_cut + 1).next_power_of_two();
    assert!(mid <= dbt_cut, "test size {mid} must sit inside the mid band");
    let auto = timed_collective(CollEngine::Auto(ac), op, mid);
    let dbt = timed_collective(CollEngine::Dbt(RingConfig::auto(&platform, &op, 4)), op, mid);
    assert_eq!(auto, dbt, "mid band must run the DBT schedule");

    let above = (2 * dbt_cut).next_power_of_two();
    let auto = timed_collective(CollEngine::Auto(ac), op, above);
    let ring = timed_collective(CollEngine::Ring(ac.ring_for(&op)), op, above);
    assert_eq!(auto, ring, "above the mid band Auto must run the live ring");
}

/// One `len`-byte broadcast from `root` under `engine` at 16 ranks, every
/// rank's buffer seeded with its own bytes: the end time and every rank's
/// buffer after the call.
fn broadcast16(engine: CollEngine, root: usize, len: u64) -> (SimTime, Vec<Vec<u8>>) {
    let bufs = Arc::new(std::sync::Mutex::new(vec![Vec::new(); 16]));
    let out = bufs.clone();
    let (end, ..) = with_engine(16, engine, move |ctx, world, comm, r| {
        let dev = world.primary_dev(r);
        let off = dev.malloc(len.next_power_of_two(), 256).unwrap();
        dev.mem.write(off, &payload(r, len as usize, ReduceOp::SumU64)).unwrap();
        let op = XcclOp::Broadcast { root };
        comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, len);
        let mut got = vec![0u8; len as usize];
        dev.mem.read(off, &mut got).unwrap();
        out.lock().unwrap()[r] = got;
    });
    let got = bufs.lock().unwrap().clone();
    (end, got)
}

#[test]
fn auto_broadcast_switches_tree_layout_at_its_cut_with_identical_bytes() {
    // Auto's broadcast tree runs top below its priced cut and fed from
    // it, as the pinned tree always does. Rooted on a middle node's
    // middle GPU, the cut is the first size of the tree band where Auto
    // runs the pinned tree's schedule to the nanosecond; an element
    // below it runs top, and at the cut and an element above it, fed.
    // Either way every rank ends with the root's bytes.
    let ac = AutoConfig::for_platform(&PlatformSpec::platform_a());
    let (auto, pinned, root) = (CollEngine::Auto(ac), CollEngine::Dbt(ac.ring_bcast), 6);
    let (ll, dbt, _) = cuts16(ac, XcclOp::Broadcast { root });
    let cut = (10..=24)
        .map(|k| 1u64 << k)
        .filter(|&s| s > ll && s <= dbt)
        .find(|&s| broadcast16(auto, root, s).0 == broadcast16(pinned, root, s).0)
        .expect("A/16's broadcast tree runs fed at its larger sizes");
    assert!(cut - 8 > ll, "an element below the cut is still in the tree band ({ll} B)");
    for (len, fed) in [(cut - 8, false), (cut, true), (cut + 8, true)] {
        let (at, bufs) = broadcast16(auto, root, len);
        assert_eq!(at == broadcast16(pinned, root, len).0, fed, "{len} B: fed {fed}");
        let want = payload(root, len as usize, ReduceOp::SumU64);
        for (r, got) in bufs.iter().enumerate() {
            assert_eq!(got, &want, "{len} B: rank {r} must hold the root's bytes");
        }
    }
}

/// One `len`-byte allreduce under `engine` over `nodes` single-GPU
/// platform-C nodes, cost-only (the `fig_scale` shape); returns the end.
fn c_allreduce(nodes: usize, engine: CollEngine, len: u64) -> SimTime {
    let mut sim = Sim::new();
    let spec = ClusterSpec { platform: PlatformSpec::platform_c(), nodes, gpus_per_node: 1 };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let heap = (2 * len).next_power_of_two();
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, Some(heap));
    let world = FabricWorld::new(topo, devs, nodes);
    let id = UniqueId::generate();
    for r in 0..nodes {
        let world = world.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            let opts = CommOpts { engine, ..CommOpts::default() };
            let comm = XcclComm::init(ctx, &world, (0..nodes).collect(), r, id, opts);
            let off = world.primary_dev(r).malloc(len, 256).unwrap();
            let op = XcclOp::AllReduce { op: ReduceOp::SumF32 };
            comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, len);
        });
    }
    sim.run().unwrap().end_time
}

#[test]
fn auto_runs_the_tree_at_256_nodes_where_the_ring_pays_510_steps() {
    // The mid band has no ceiling: on C/256 the priced cut reaches
    // 16 MiB, so Auto's 16 MiB allreduce is the DBT engine's, to the
    // nanosecond — and well ahead of the ring it ran under the 8 MiB cap.
    let c = PlatformSpec::platform_c();
    let ac = AutoConfig::for_platform(&c);
    let rc = ac.ring_for(&XcclOp::AllReduce { op: ReduceOp::SumF32 });
    let len = 16 << 20;
    let auto = c_allreduce(256, CollEngine::Auto(ac), len);
    assert_eq!(auto, c_allreduce(256, CollEngine::Dbt(rc), len), "Auto must run the tree");
    let ring = c_allreduce(256, CollEngine::Ring(rc), len);
    assert!(auto < ring, "the tree ({auto:?}) must beat the ring ({ring:?}) at 256 nodes");
}

#[test]
fn auto_small_path_is_deterministic_and_cheap_to_schedule() {
    // The LL/tree schedule must replay bit-identically, and — marched by
    // the same coalesced driver as the ring's chunked schedule, one wake
    // per collective — cost no more scheduler entries at the same size.
    let ac = AutoConfig::for_platform(&PlatformSpec::platform_a());
    let run = |engine: CollEngine| {
        with_engine(8, engine, |ctx, world, comm, r| {
            let dev = world.primary_dev(r);
            let off = dev.malloc(64 << 10, 256).unwrap();
            comm.collective(
                ctx,
                r,
                vec![DeviceBuf { flat: r, off }],
                XcclOp::AllReduce { op: ReduceOp::SumF32 },
                32 << 10,
            );
            comm.collective(
                ctx,
                r,
                vec![DeviceBuf { flat: r, off }],
                XcclOp::Broadcast { root: 1 },
                16 << 10,
            );
        })
    };
    let a = run(CollEngine::Auto(ac));
    let b = run(CollEngine::Auto(ac));
    assert_eq!(a, b, "auto schedule must be deterministic");
    let (_, ring_entries, _) = run(CollEngine::default());
    assert!(
        a.1 <= ring_entries,
        "LL path should need no more scheduler entries: {} vs ring {}",
        a.1,
        ring_entries
    );
}

#[test]
fn larger_chunks_pipeline_worse_at_large_sizes() {
    // Chunk pipelining is what hides ring-step latency: a degenerate
    // single-chunk configuration must be no faster than the pipelined
    // default for a multi-megabyte broadcast.
    let run = |chunk_bytes: u64| {
        with_engine(
            8,
            CollEngine::Ring(RingConfig { chunk_bytes, max_inflight: 4 }),
            move |ctx, world, comm, r| {
                let off = world.primary_dev(r).malloc(8 << 20, 256).unwrap();
                comm.collective(
                    ctx,
                    r,
                    vec![DeviceBuf { flat: r, off }],
                    XcclOp::Broadcast { root: 0 },
                    4 << 20,
                );
            },
        )
        .0
    };
    let pipelined = run(128 << 10);
    let monolithic = run(u64::MAX);
    assert!(pipelined < monolithic, "chunked ring must be faster: {pipelined:?} vs {monolithic:?}");
}
