//! Integration tests for the chunked multi-queue RMA pipeline and the
//! one-sleep fence (byte identity, no-later completion, trace
//! determinism, pinned scheduler-entry cost).

use std::sync::Arc;

use diomp_core::{
    Conduit, DiompConfig, DiompConfigBuilder, DiompRank, DiompRuntime, PipelineConfig, PtrCache,
};
use diomp_device::DataMode;
use diomp_sim::{
    ClusterSpec, DevLoc, Dur, FaultPlan, PlatformSpec, Sim, SimReport, SimTime, Topology,
};
use std::sync::Mutex;

/// Two single-GPU nodes: rank 0 and rank 1 are inter-node neighbours.
fn two_nodes(platform: PlatformSpec) -> DiompConfigBuilder {
    DiompConfig::builder(ClusterSpec { platform, nodes: 2, gpus_per_node: 1 })
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i.wrapping_mul(31) + 7) as u8).collect()
}

/// Rank 0 puts `len` bytes into rank 1, fences, and rank 1 reads them
/// back after a barrier. Returns (bytes seen at rank 1, report).
fn put_roundtrip(cfg: DiompConfig, len: u64) -> (Vec<u8>, SimReport) {
    let out = Arc::new(Mutex::new(Vec::new()));
    let out2 = out.clone();
    let rep = DiompRuntime::run(cfg, move |ctx, rank| {
        let ptr = rank.alloc_sym(ctx, len).unwrap();
        if rank.rank == 0 {
            rank.write_local(rank.primary(), ptr, 0, &pattern(len as usize));
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
    (bytes, rep)
}

/// Like `put_roundtrip` but rank 0 *gets* from rank 1.
fn get_roundtrip(cfg: DiompConfig, len: u64) -> Vec<u8> {
    let out = Arc::new(Mutex::new(Vec::new()));
    let out2 = out.clone();
    DiompRuntime::run(cfg, move |ctx, rank| {
        let ptr = rank.alloc_sym(ctx, len).unwrap();
        if rank.rank == 1 {
            rank.write_local(rank.primary(), ptr, 0, &pattern(len as usize));
        }
        rank.barrier(ctx);
        if rank.rank == 0 {
            rank.get(ctx, 1, ptr, 0, ptr, 0, len).unwrap();
            rank.fence(ctx);
            let mut got = vec![0u8; len as usize];
            rank.read_local(rank.primary(), ptr, 0, &mut got);
            *out2.lock().unwrap() = got;
        }
        rank.barrier(ctx);
    })
    .unwrap();
    let bytes = out.lock().unwrap().clone();
    bytes
}

#[test]
fn chunked_put_is_byte_identical_to_unchunked_gasnet() {
    // 1 MiB in 128 KiB chunks: chunks are >= the 16 KiB anomaly floor on
    // Platform A, so this exercises the host-staged pipeline regime.
    let len = 1 << 20;
    let chunked = two_nodes(PlatformSpec::platform_a())
        .with_pipeline(PipelineConfig { chunk_bytes: 128 << 10, max_inflight: 3, n_queues: 4 })
        .build();
    let (got_chunked, _) = put_roundtrip(chunked, len);
    let (got_mono, _) = put_roundtrip(two_nodes(PlatformSpec::platform_a()).build(), len);
    assert_eq!(got_chunked, pattern(len as usize));
    assert_eq!(got_chunked, got_mono);
}

#[test]
fn chunked_put_is_byte_identical_direct_regime() {
    // Platform B has no put anomaly: chunks inject straight from device.
    let len = 1 << 20;
    let chunked = two_nodes(PlatformSpec::platform_b())
        .with_pipeline(PipelineConfig { chunk_bytes: 64 << 10, max_inflight: 4, n_queues: 4 })
        .build();
    let (got, _) = put_roundtrip(chunked, len);
    assert_eq!(got, pattern(len as usize));
}

#[test]
fn chunked_get_is_byte_identical_to_unchunked() {
    let len = 768 << 10;
    let chunked = two_nodes(PlatformSpec::platform_a())
        .with_pipeline(PipelineConfig {
            chunk_bytes: 100 << 10, // deliberately non-divisor: exercises the tail chunk
            max_inflight: 2,
            n_queues: 2,
        })
        .build();
    let got_chunked = get_roundtrip(chunked, len);
    let got_mono = get_roundtrip(two_nodes(PlatformSpec::platform_a()).build(), len);
    assert_eq!(got_chunked, pattern(len as usize));
    assert_eq!(got_chunked, got_mono);
}

#[test]
fn chunked_gpi_put_round_robins_queues_and_fence_drains_them_all() {
    // Platform C is the InfiniBand system with a GPI-2 model. 4 queues:
    // with the old queue-0-only fence this would leave completions
    // unawaited on queues 1–3.
    let len = 512 << 10;
    let cfg = two_nodes(PlatformSpec::platform_c())
        .with_conduit(Conduit::Gpi2)
        .with_pipeline(PipelineConfig { chunk_bytes: 64 << 10, max_inflight: 4, n_queues: 4 })
        .build();
    let (got, _) = put_roundtrip(cfg, len);
    assert_eq!(got, pattern(len as usize));
    let got_get = get_roundtrip(
        two_nodes(PlatformSpec::platform_c())
            .with_conduit(Conduit::Gpi2)
            .with_pipeline(PipelineConfig { chunk_bytes: 96 << 10, max_inflight: 4, n_queues: 3 })
            .build(),
        len,
    );
    assert_eq!(got_get, pattern(len as usize));
}

/// Simulated completion time of a `len`-byte put + fence on `cfg`.
fn put_fence_us(cfg: DiompConfig, len: u64) -> f64 {
    let us = Arc::new(Mutex::new(0.0f64));
    let us2 = us.clone();
    DiompRuntime::run(cfg, move |ctx, rank| {
        let ptr = rank.alloc_sym(ctx, len).unwrap();
        rank.barrier(ctx);
        if rank.rank == 0 {
            let t0 = ctx.now();
            rank.put(ctx, 1, ptr, 0, ptr, 0, len).unwrap();
            rank.fence(ctx);
            *us2.lock().unwrap() = ctx.now().since(t0).as_us();
        }
        rank.barrier(ctx);
    })
    .unwrap();
    let v = *us.lock().unwrap();
    v
}

#[test]
fn pipelined_64mib_put_is_no_later_than_unpipelined() {
    // Platform A, inter-node, 64 MiB: the direct put is capped at
    // 3.2 GB/s by the documented Fig. 4a anomaly; the staged pipeline
    // overlaps D2H chunk copies with host-source NIC injections that the
    // cap does not affect. The pipelined put must finish no later — in
    // fact several times earlier.
    let len = 64 << 20;
    let base = |p: PlatformSpec| two_nodes(p).with_mode(DataMode::CostOnly).with_heap(256 << 20);
    let mono_us = put_fence_us(base(PlatformSpec::platform_a()).build(), len);
    let piped_us = put_fence_us(
        base(PlatformSpec::platform_a()).with_pipeline(PipelineConfig::enabled()).build(),
        len,
    );
    assert!(
        piped_us <= mono_us,
        "pipelined put must not be slower: {piped_us:.1}µs vs {mono_us:.1}µs"
    );
    assert!(
        piped_us * 3.0 < mono_us,
        "staged pipeline should beat the anomaly-capped put by a wide margin: \
         {piped_us:.1}µs vs {mono_us:.1}µs"
    );
}

/// Simulated completion time of a `len`-byte get + fence on `cfg`.
fn get_fence_us(cfg: DiompConfig, len: u64) -> f64 {
    let us = Arc::new(Mutex::new(0.0f64));
    let us2 = us.clone();
    DiompRuntime::run(cfg, move |ctx, rank| {
        let ptr = rank.alloc_sym(ctx, len).unwrap();
        rank.barrier(ctx);
        if rank.rank == 0 {
            let t0 = ctx.now();
            rank.get(ctx, 1, ptr, 0, ptr, 0, len).unwrap();
            rank.fence(ctx);
            *us2.lock().unwrap() = ctx.now().since(t0).as_us();
        }
        rank.barrier(ctx);
    })
    .unwrap();
    let v = *us.lock().unwrap();
    v
}

#[test]
fn staged_get_on_host_capped_platform_is_byte_identical() {
    // Platform A is host-capped (Fig. 4a): large tuned gets route
    // through host bounce buffers + H2D uploads. Byte identity must hold
    // across the staging, including non-divisor tails and slot reuse.
    let len = 900 << 10;
    let staged = two_nodes(PlatformSpec::platform_a())
        .with_pipeline(PipelineConfig {
            chunk_bytes: 96 << 10, // 9 chunks + tail across 2 slots
            max_inflight: 2,
            n_queues: 1,
        })
        .build();
    let got = get_roundtrip(staged, len);
    assert_eq!(got, pattern(len as usize));
    let got_mono = get_roundtrip(two_nodes(PlatformSpec::platform_a()).build(), len);
    assert_eq!(got, got_mono);
}

#[test]
fn staged_get_costs_at_most_a_few_percent_over_monolithic() {
    // The get side is not bandwidth-capped, so staging cannot win
    // bandwidth on the current model — it must at least not lose it: the
    // H2D uploads overlap later chunks' wire time and only the last
    // upload extends the tail.
    let len = 64 << 20;
    let base = |p: PlatformSpec| two_nodes(p).with_mode(DataMode::CostOnly).with_heap(256 << 20);
    let mono_us = get_fence_us(base(PlatformSpec::platform_a()).build(), len);
    let tuned = PipelineConfig::auto(&PlatformSpec::platform_a(), Conduit::GasnetEx);
    let staged_us =
        get_fence_us(base(PlatformSpec::platform_a()).with_pipeline(tuned).build(), len);
    assert!(
        staged_us <= mono_us * 1.05,
        "staged get must stay within 5% of monolithic: {staged_us:.1}µs vs {mono_us:.1}µs"
    );
}

#[test]
fn staged_get_stays_nonblocking_and_overlaps_compute() {
    // The staged regime must honour get_dev's non-blocking contract:
    // issuing a large staged get costs only the per-chunk injection
    // overheads (the wire time and the H2D uploads happen behind the
    // task's back), so compute issued right after the get hides under
    // the transfer instead of serialising with it.
    let len = 32 << 20;
    let base = || {
        two_nodes(PlatformSpec::platform_a())
            .with_mode(DataMode::CostOnly)
            .with_heap(256 << 20)
            .tuned()
            .build()
    };
    let get_alone_us = get_fence_us(base(), len);
    let times = Arc::new(Mutex::new((0.0f64, 0.0f64)));
    let times2 = times.clone();
    DiompRuntime::run(base(), move |ctx, rank| {
        let ptr = rank.alloc_sym(ctx, len).unwrap();
        rank.barrier(ctx);
        if rank.rank == 0 {
            let t0 = ctx.now();
            rank.get(ctx, 1, ptr, 0, ptr, 0, len).unwrap();
            let issue_us = ctx.now().since(t0).as_us();
            // 1 ms of "compute" while the chunks stream in.
            ctx.delay(diomp_sim::Dur::micros(1000.0));
            rank.fence(ctx);
            *times2.lock().unwrap() = (issue_us, ctx.now().since(t0).as_us());
        }
        rank.barrier(ctx);
    })
    .unwrap();
    let (issue_us, total_us) = *times.lock().unwrap();
    assert!(
        issue_us < get_alone_us * 0.2,
        "issuing a staged get must not wait for the wire: {issue_us:.0}µs vs \
         {get_alone_us:.0}µs end-to-end"
    );
    assert!(
        total_us < get_alone_us + 200.0,
        "1 ms of compute must hide under the {get_alone_us:.0}µs transfer, got {total_us:.0}µs"
    );
}

#[test]
fn tuned_config_beats_capped_put_and_respects_precedence() {
    // The tuned build must clear the Fig. 4a put cap like the
    // explicit pipeline does, with parameters read off the tables…
    let len = 64 << 20;
    let base = |p: PlatformSpec| two_nodes(p).with_mode(DataMode::CostOnly).with_heap(256 << 20);
    let mono_us = put_fence_us(base(PlatformSpec::platform_a()).build(), len);
    let tuned_us = put_fence_us(base(PlatformSpec::platform_a()).tuned().build(), len);
    assert!(
        tuned_us * 3.0 < mono_us,
        "tuned put must clear the anomaly cap: {tuned_us:.1}µs vs {mono_us:.1}µs"
    );
    // …and the precedence chain is explicit > tuned > disabled.
    let b = base(PlatformSpec::platform_a()).tuned();
    let cfg = b.clone().build();
    assert!(cfg.pipeline.pipelines(cfg.pipeline.chunk_bytes + 1), "tuned enables the pipeline");
    assert!(matches!(cfg.coll_engine, diomp_core::CollEngine::Auto(_)));
    let overridden = b.with_pipeline(PipelineConfig::disabled()).build();
    assert_eq!(overridden.pipeline, PipelineConfig::disabled(), "explicit beats tuned");
    let mono_after_override_us = put_fence_us(
        base(PlatformSpec::platform_a()).tuned().with_pipeline(PipelineConfig::disabled()).build(),
        len,
    );
    assert_eq!(mono_after_override_us, mono_us, "explicit opt-out restores the published curve");
}

#[test]
fn tuned_roundtrips_are_byte_identical_on_every_platform_and_conduit() {
    let len = (1 << 20) + 4097; // above every tuned chunk, ragged tail
    for (platform, conduit) in [
        (PlatformSpec::platform_a(), Conduit::GasnetEx),
        (PlatformSpec::platform_b(), Conduit::GasnetEx),
        (PlatformSpec::platform_c(), Conduit::GasnetEx),
        (PlatformSpec::platform_c(), Conduit::Gpi2),
    ] {
        let cfg = || {
            two_nodes(platform.clone()).with_conduit(conduit).tuned().with_heap(16 << 20).build()
        };
        let (put_bytes, _) = put_roundtrip(cfg(), len);
        assert_eq!(put_bytes, pattern(len as usize), "{} {conduit:?} put", platform.name);
        let get_bytes = get_roundtrip(cfg(), len);
        assert_eq!(get_bytes, pattern(len as usize), "{} {conduit:?} get", platform.name);
    }
}

/// Run a put workload with chunking enabled; returns (end time, entries
/// processed, run digest).
fn chunked_run() -> (diomp_sim::SimTime, u64, u64) {
    let mut sim = Sim::new();
    let cfg = two_nodes(PlatformSpec::platform_a())
        .with_pipeline(PipelineConfig { chunk_bytes: 32 << 10, max_inflight: 2, n_queues: 2 })
        .build();
    let shared = DiompRuntime::build(&sim, cfg);
    for r in 0..shared.world.nranks {
        let shared = shared.clone();
        sim.spawn(format!("diomp-rank{r}"), move |ctx| {
            let mut rank = DiompRank { shared, rank: r, cache: PtrCache::new(), rma_retries: 0 };
            let len = 256 << 10;
            let ptr = rank.alloc_sym(ctx, len).unwrap();
            if rank.rank == 0 {
                rank.write_local(rank.primary(), ptr, 0, &pattern(len as usize));
            }
            rank.barrier(ctx);
            if rank.rank == 0 {
                rank.put(ctx, 1, ptr, 0, ptr, 0, len).unwrap();
                rank.fence(ctx);
            }
            rank.barrier(ctx);
        });
    }
    let rep = sim.run().unwrap();
    (rep.end_time, rep.entries_processed, rep.digest)
}

#[test]
fn chunked_runs_are_trace_deterministic() {
    let a = chunked_run();
    assert!(a.1 > 0);
    assert_eq!(a, chunked_run(), "chunked pipeline must stay deterministic");
}

/// N small puts + one fence; returns the run report.
fn many_put_fence(cfg: DiompConfig, n: usize) -> SimReport {
    DiompRuntime::run(cfg, move |ctx, rank| {
        let ptr = rank.alloc_sym(ctx, 256 << 10).unwrap();
        rank.barrier(ctx);
        if rank.rank == 0 {
            // 256 KiB per put: the NIC stays busy ~11 µs per message while
            // the initiator only pays ~1.5 µs, so a deep backlog of
            // completions is still in flight when the fence starts.
            for _ in 0..n {
                rank.put(ctx, 1, ptr, 0, ptr, 0, 256 << 10).unwrap();
            }
            rank.fence(ctx);
        }
        rank.barrier(ctx);
    })
    .unwrap()
}

/// The fence sleeps once, to the latest pending completion instant, and
/// no put makes an event or a completion entry: what is left is each
/// put's overhead wake, the fence's one park and the set-up. One park per
/// pending event reached the same virtual instant in 1,504 entries, one
/// wait group over them all in 915. Both numbers are pinned so neither
/// the saving nor the result can drift — the 1000-put twin is the gate
/// row `ablation/fence1000_batched` (81,932.003 µs).
#[test]
fn fence_over_300_puts_is_pinned_in_virtual_time_and_entries() {
    let cfg = two_nodes(PlatformSpec::platform_a()).with_mode(DataMode::CostOnly).build();
    let rep = many_put_fence(cfg, 300);
    assert_eq!((rep.end_time.nanos(), rep.entries_processed), (24_588_003, 315));
}

/// Platform A, tuned, CostOnly: the rig of the staged-put timing tests.
fn tuned_a() -> DiompConfig {
    two_nodes(PlatformSpec::platform_a())
        .with_mode(DataMode::CostOnly)
        .with_heap(256 << 20)
        .tuned()
        .build()
}

/// Rank 0 puts `len` bytes (and, if `opposed`, gets as many into another
/// buffer), then fences. Returns (µs the put call held the caller, µs
/// from the put to the end of the fence, the run's scheduler entries);
/// with `put == false` the same run without the put, for its entries.
fn staged_put_times(len: u64, put: bool, opposed: bool) -> (f64, f64, u64) {
    let times = Arc::new(Mutex::new((0.0f64, 0.0f64)));
    let times2 = times.clone();
    let rep = DiompRuntime::run(tuned_a(), move |ctx, rank| {
        let out = rank.alloc_sym(ctx, len).unwrap();
        let back = rank.alloc_sym(ctx, len).unwrap();
        rank.barrier(ctx);
        if rank.rank == 0 {
            let t0 = ctx.now();
            if put {
                rank.put(ctx, 1, out, 0, out, 0, len).unwrap();
            }
            let call_us = ctx.now().since(t0).as_us();
            if opposed {
                rank.get(ctx, 1, back, 0, back, 0, len).unwrap();
            }
            rank.fence(ctx);
            *times2.lock().unwrap() = (call_us, ctx.now().since(t0).as_us());
        }
        rank.barrier(ctx);
    })
    .unwrap();
    let (call_us, fenced_us) = *times.lock().unwrap();
    (call_us, fenced_us, rep.entries_processed)
}

#[test]
fn staged_put_never_parks_on_a_chunk_and_its_fence_is_no_later() {
    // `ompx_put` is non-blocking on the staged path too: the call makes
    // every chunk's reservations and returns having paid one initiator
    // overhead. At 5b37946 it parked on every chunk's D2H and held the
    // caller 830.5 µs.
    let len = 16u64 << 20;
    let g = PlatformSpec::platform_a().gasnet;
    let overhead_us = g.put_o_us + g.gpu_reg_us;
    let (call_us, fenced_us, entries) = staged_put_times(len, true, false);
    assert!(
        call_us <= 2.0 * overhead_us,
        "a staged put must return within 2x the {overhead_us} µs overhead, held {call_us:.1} µs"
    );
    // Every park is at least one wake entry. What the put may add to the
    // run: one completion per chunk, the last local completion, the wake
    // of the caller's own overhead and the fence's one park — for the
    // task, nothing per chunk.
    let chunks = tuned_a().pipeline.chunks(len).count() as u64;
    let (_, _, idle_entries) = staged_put_times(len, false, false);
    assert!(
        entries <= idle_entries + chunks + 3,
        "{chunks} chunks may cost {chunks} + 3 entries, cost {}",
        entries - idle_entries
    );
    // The parking pipeline's fenced time in this rig, measured at 5b37946.
    assert!(fenced_us <= 770.4, "the chain must not finish later: {fenced_us:.1} µs");
}

#[test]
fn opposed_staged_put_and_get_share_no_link() {
    // A put's payload leaves on rank 0's D2H lane and NIC; a get's
    // arrives over the target's NIC and rank 0's H2D lane. Issued
    // together they overlap: at 5b37946 the get could not be issued
    // until the put had returned, and its uploads queued behind the
    // put's downloads on one PCIe FIFO (≈ 2x).
    let len = 16u64 << 20;
    let (_, put_us, _) = staged_put_times(len, true, false);
    let (_, both_us, _) = staged_put_times(len, true, true);
    assert!(
        both_us <= 1.15 * put_us,
        "put + get must finish within 1.15x of the put alone: {both_us:.1} vs {put_us:.1} µs"
    );
}

/// The staged put's Functional run: chunks of 64 KiB through two staging
/// slots. Rank 0 puts `len` bytes, overwrites the source the moment the
/// call returns, and pulls a second buffer back through the staged get
/// while the put's chunks are still in flight. Returns (what landed at
/// rank 1, what the get fetched, the run digest).
fn staged_put_bytes(len: u64, plan: Option<FaultPlan>) -> (Vec<u8>, Vec<u8>, u64) {
    let mut sim = Sim::new();
    if let Some(plan) = plan {
        sim.set_fault_plan(plan);
    }
    let cfg = two_nodes(PlatformSpec::platform_a())
        .with_pipeline(PipelineConfig { chunk_bytes: STAGED_CHUNK, max_inflight: 2, n_queues: 1 })
        .build();
    let shared = DiompRuntime::build(&sim, cfg);
    let landed = Arc::new(Mutex::new((Vec::new(), Vec::new())));
    for r in 0..shared.world.nranks {
        let (shared, landed) = (shared.clone(), landed.clone());
        sim.spawn(format!("diomp-rank{r}"), move |ctx| {
            let mut rank = DiompRank { shared, rank: r, cache: PtrCache::new(), rma_retries: 0 };
            let (out, back) =
                (rank.alloc_sym(ctx, len).unwrap(), rank.alloc_sym(ctx, len).unwrap());
            let fetched: Vec<u8> = pattern(len as usize).iter().map(|b| !b).collect();
            if r == 0 {
                rank.write_local(rank.primary(), out, 0, &pattern(len as usize));
            } else {
                rank.write_local(rank.primary(), back, 0, &fetched);
            }
            rank.barrier(ctx);
            if r == 0 {
                rank.put(ctx, 1, out, 0, out, 0, len).unwrap();
                rank.write_local(rank.primary(), out, 0, &vec![0xEE; len as usize]);
                rank.get(ctx, 1, back, 0, back, 0, len).unwrap();
                rank.fence(ctx);
                landed.lock().unwrap().1 = vec![0; len as usize];
                rank.read_local(rank.primary(), back, 0, &mut landed.lock().unwrap().1);
            }
            rank.barrier(ctx);
            if r == 1 {
                landed.lock().unwrap().0 = vec![0; len as usize];
                rank.read_local(rank.primary(), out, 0, &mut landed.lock().unwrap().0);
            }
        });
    }
    let rep = sim.run().unwrap();
    let (put, got) = landed.lock().unwrap().clone();
    (put, got, rep.digest)
}
const STAGED_CHUNK: u64 = 64 << 10;

#[test]
fn staged_put_is_byte_identical_with_the_source_overwritten_at_return() {
    // The device bytes are read in the call, so overwriting the source
    // before the fence changes nothing; slot reuse (two slots, up to four
    // chunks) never hands the NIC a slot the next D2H has already
    // refilled. Again with the source NIC stalled for the whole run and
    // the D2H lane flapping across the put — replayed, same digest.
    let ids = Sim::new();
    let spec = ClusterSpec { platform: PlatformSpec::platform_a(), nodes: 2, gpus_per_node: 1 };
    let topo = Topology::build(&ids.handle(), spec);
    let src = DevLoc { node: 0, gpu: 0 };
    let (t0, late) = (SimTime::ZERO, SimTime::ZERO + Dur::millis(10.0));
    let faults = || {
        FaultPlan::new().stall_nic(topo.nic_for(src), t0, late, Dur::micros(5.0)).flap_link(
            topo.d2h(src),
            t0,
            t0 + Dur::micros(150.0),
        )
    };
    let c = STAGED_CHUNK;
    for len in [c - 1, c, c + 1, 3 * c + 7, 4 * c] {
        let (mono, _) = put_roundtrip(two_nodes(PlatformSpec::platform_a()).build(), len);
        let fetched: Vec<u8> = mono.iter().map(|b| !b).collect();
        let (put, got, clean) = staged_put_bytes(len, None);
        assert_eq!(put, mono, "staged put of {len} bytes");
        assert_eq!(got, fetched, "staged get beside a put of {len} bytes");
        let (put, got, faulted) = staged_put_bytes(len, Some(faults()));
        assert_eq!(put, mono, "staged put of {len} bytes under faults");
        assert_eq!(got, fetched, "staged get beside a put of {len} bytes under faults");
        assert_ne!(clean, faulted, "the fault windows must have hit the transfer");
        assert_eq!(staged_put_bytes(len, Some(faults())).2, faulted, "replay of {len} bytes");
    }
}

/// An offset that wraps `u64` when the length is added is out of bounds,
/// in release builds too — at each of the four sites that check a `GPtr`.
fn with_wrapping_delta(site: fn(&mut diomp_sim::Ctx, &mut DiompRank, diomp_core::GPtr, u64)) {
    let cfg = two_nodes(PlatformSpec::platform_c()).with_conduit(Conduit::Gpi2).build();
    let _ = DiompRuntime::run(cfg, move |ctx, rank| {
        let ptr = rank.alloc_sym(ctx, 64).unwrap();
        site(ctx, rank, ptr, u64::MAX - 3);
    });
}

#[test]
#[should_panic(expected = "put out of bounds")]
fn put_refuses_an_offset_that_wraps() {
    with_wrapping_delta(|ctx, rank, p, delta| rank.put(ctx, 1, p, delta, p, 0, 8).unwrap());
}

#[test]
#[should_panic(expected = "get out of bounds")]
fn get_refuses_an_offset_that_wraps() {
    with_wrapping_delta(|ctx, rank, p, delta| rank.get(ctx, 1, p, 0, p, delta, 8).unwrap());
}

#[test]
#[should_panic(expected = "put_notify out of bounds")]
fn put_notify_refuses_an_offset_that_wraps() {
    with_wrapping_delta(|ctx, rank, p, delta| {
        rank.put_notify(ctx, 1, p, 0, p, delta, 8, 0, 1).unwrap()
    });
}

#[test]
#[should_panic(expected = "GPtr slice out of bounds")]
fn slice_refuses_an_offset_that_wraps() {
    with_wrapping_delta(|_, _, p, delta| {
        let _ = p.slice(delta, 8);
    });
}
