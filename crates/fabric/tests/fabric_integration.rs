//! Integration tests for the fabric: GASNet-EX conduit, GPI-2 conduit,
//! and the MPI baseline (P2P, RMA, collectives).

use std::sync::Arc;

use diomp_device::{DataMode, DeviceTable, HostBuf};
use diomp_fabric::{gasnet, gpi, FabricWorld, Loc, ReduceOp};
use diomp_sim::{ClusterSpec, Dur, PlatformSpec, Sim, Topology, Wait};

/// Build a world of `nranks` ranks, one device each, on `platform`.
fn boot(
    sim: &Sim,
    platform: PlatformSpec,
    nodes: usize,
    gpus_per_node: usize,
    nranks: usize,
) -> Arc<FabricWorld> {
    let spec = ClusterSpec { platform, nodes, gpus_per_node };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::Functional, Some(4 << 20));
    FabricWorld::new(topo, devs, nranks)
}

fn world_a(sim: &Sim, nranks: usize) -> Arc<FabricWorld> {
    let nodes = nranks.div_ceil(4);
    boot(sim, PlatformSpec::platform_a(), nodes, 4, nranks)
}

#[test]
fn gasnet_put_moves_bytes_across_nodes() {
    let mut sim = Sim::new();
    let world = world_a(&sim, 8);
    let w = world.clone();
    // Rank 4 (node 1) attaches a segment; rank 0 (node 0) puts into it.
    let seg = w.attach_device_segment(4, 4, 1 << 16).unwrap();
    let w0 = world.clone();
    sim.spawn("rank0", move |ctx| {
        let dev0 = w0.primary_dev(0).clone();
        dev0.mem.write(0, &[42u8; 256]).unwrap();
        gasnet::put_blocking(ctx, &w0, 0, Loc::dev(0, 0), seg, 512, 256).unwrap();
        // After remote completion the bytes are visible at the target.
        let seg_obj = w0.segment(seg);
        let target = seg_obj.range(512, 256).unwrap();
        let bytes = target.snapshot(&w0.devs, 256).unwrap().unwrap();
        assert_eq!(bytes, vec![42u8; 256]);
    });
    sim.run().unwrap();
}

#[test]
fn gasnet_small_put_latency_matches_platform_a_calibration() {
    // Fig. 3a: DiOMP Put at small sizes ≈ 5 µs on Slingshot-11 + A100.
    let mut sim = Sim::new();
    let world = world_a(&sim, 8);
    let seg = world.attach_device_segment(4, 4, 1 << 16).unwrap();
    let w0 = world.clone();
    sim.spawn("rank0", move |ctx| {
        let t0 = ctx.now();
        gasnet::put_blocking(ctx, &w0, 0, Loc::dev(0, 0), seg, 0, 8).unwrap();
        let us = ctx.now().since(t0).as_us();
        assert!((3.5..8.0).contains(&us), "8 B put latency {us:.2} µs out of band");
    });
    sim.run().unwrap();
}

#[test]
fn gasnet_get_latency_exceeds_put_latency() {
    // A get pays the request round trip; puts only the ack.
    let mut sim = Sim::new();
    let world = world_a(&sim, 8);
    let seg = world.attach_device_segment(4, 4, 1 << 16).unwrap();
    let w0 = world.clone();
    sim.spawn("rank0", move |ctx| {
        let t0 = ctx.now();
        gasnet::put_blocking(ctx, &w0, 0, Loc::dev(0, 0), seg, 0, 8).unwrap();
        let put_us = ctx.now().since(t0).as_us();
        let t1 = ctx.now();
        gasnet::get_blocking(ctx, &w0, 0, Loc::dev(0, 64), seg, 0, 8).unwrap();
        let get_us = ctx.now().since(t1).as_us();
        assert!(get_us > put_us, "get {get_us:.2} µs should exceed put {put_us:.2} µs");
    });
    sim.run().unwrap();
}

#[test]
fn platform_a_put_anomaly_caps_bandwidth_but_get_is_unaffected() {
    // Fig. 4a: the documented driver issue caps DiOMP Put throughput.
    let measure = |anomaly: bool| -> (f64, f64) {
        let mut sim = Sim::new();
        let mut platform = PlatformSpec::platform_a();
        if !anomaly {
            platform.put_anomaly_gbps = None;
        }
        let world = boot(&sim, platform, 2, 4, 8);
        let seg = world.attach_device_segment(4, 4, 2 << 20).unwrap();
        let out = Arc::new(parking_lot::Mutex::new((0.0, 0.0)));
        let out2 = out.clone();
        let w0 = world.clone();
        sim.spawn("rank0", move |ctx| {
            let len = 1 << 20;
            let t0 = ctx.now();
            gasnet::put_blocking(ctx, &w0, 0, Loc::dev(0, 0), seg, 0, len).unwrap();
            let put_bw = diomp_sim::bandwidth_gbps(len, ctx.now().since(t0));
            let t1 = ctx.now();
            gasnet::get_blocking(ctx, &w0, 0, Loc::dev(0, 0), seg, 0, len).unwrap();
            let get_bw = diomp_sim::bandwidth_gbps(len, ctx.now().since(t1));
            *out2.lock() = (put_bw, get_bw);
        });
        sim.run().unwrap();
        let r = *out.lock();
        r
    };
    let (put_anom, get_anom) = measure(true);
    let (put_fixed, _) = measure(false);
    assert!(put_anom < 4.0, "anomalous put bw {put_anom:.1} GB/s should be capped ~3.2");
    assert!(put_fixed > 15.0, "corrected put bw {put_fixed:.1} GB/s should approach wire");
    assert!(get_anom > 15.0, "get is not affected by the put anomaly");
}

#[test]
fn gasnet_same_node_put_is_faster_than_internode() {
    let mut sim = Sim::new();
    let world = world_a(&sim, 8);
    let seg_near = world.attach_device_segment(1, 1, 1 << 16).unwrap(); // same node as rank 0
    let seg_far = world.attach_device_segment(4, 4, 1 << 16).unwrap(); // other node
    let w0 = world.clone();
    sim.spawn("rank0", move |ctx| {
        let len = 64 << 10;
        let t0 = ctx.now();
        gasnet::put_blocking(ctx, &w0, 0, Loc::dev(0, 0), seg_near, 0, len).unwrap();
        let near = ctx.now().since(t0);
        let t1 = ctx.now();
        gasnet::put_blocking(ctx, &w0, 0, Loc::dev(0, 0), seg_far, 0, len).unwrap();
        let far = ctx.now().since(t1);
        assert!(near < far, "intra-node staging {near} should beat the NIC path {far}");
    });
    sim.run().unwrap();
}

#[test]
fn gasnet_active_message_runs_handler_at_target() {
    let mut sim = Sim::new();
    let world = world_a(&sim, 8);
    let hits = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let hits2 = hits.clone();
    world.am.register(3, 7, move |_h, msg| {
        hits2.lock().push((msg.from, msg.args.clone()));
    });
    let w0 = world.clone();
    sim.spawn("rank0", move |ctx| {
        gasnet::am_request(ctx, &w0, 0, 3, 7, vec![11, 22], None);
        ctx.delay(Dur::millis(1.0)); // let it land
    });
    sim.run().unwrap();
    assert_eq!(*hits.lock(), vec![(0, vec![11, 22])]);
}

#[test]
fn gpi_write_notify_roundtrip_on_platform_c() {
    let mut sim = Sim::new();
    let world = boot(&sim, PlatformSpec::platform_c(), 4, 1, 4);
    let seg = world.attach_device_segment(2, 2, 1 << 16).unwrap();
    let w0 = world.clone();
    sim.spawn("rank0", move |ctx| {
        let dev = w0.primary_dev(0).clone();
        dev.mem.write(0, &[9u8; 128]).unwrap();
        gpi::write_notify(ctx, &w0, 0, gpi::QueueId(0), Loc::dev(0, 0), seg, 256, 128, 42, 7)
            .unwrap();
        gpi::wait_queue(ctx, &w0, 0, gpi::QueueId(0), Wait::Block).unwrap();
    });
    let w2 = world.clone();
    sim.spawn("rank2", move |ctx| {
        let v = gpi::notify_wait(ctx, &w2, 2, 42);
        assert_eq!(v, 7);
        // Data arrived before/with the notification.
        let seg_obj = w2.segment(seg);
        let bytes = seg_obj.range(256, 128).unwrap().snapshot(&w2.devs, 128).unwrap().unwrap();
        assert_eq!(bytes, vec![9u8; 128]);
    });
    sim.run().unwrap();
}

#[test]
fn gpi_wait_all_queues_drains_every_queue() {
    let mut sim = Sim::new();
    let world = boot(&sim, PlatformSpec::platform_c(), 2, 1, 2);
    let seg = world.attach_device_segment(1, 1, 1 << 16).unwrap();
    let w0 = world.clone();
    sim.spawn("rank0", move |ctx| {
        let dev = w0.primary_dev(0).clone();
        dev.mem.write(0, &[5u8; 256]).unwrap();
        // Spread writes over four queues; a queue-0-only drain would
        // leave three completions unawaited.
        for q in 0..4u8 {
            gpi::write(
                ctx,
                &w0,
                0,
                gpi::QueueId(q),
                Loc::dev(0, 64 * q as u64),
                seg,
                64 * q as u64,
                64,
            )
            .unwrap();
        }
        gpi::wait_all_queues(ctx, &w0, 0, Wait::Block).unwrap();
        // After the drain every queue's data is visible at the target.
        let seg_obj = w0.segment(seg);
        let bytes = seg_obj.range(0, 256).unwrap().snapshot(&w0.devs, 256).unwrap().unwrap();
        assert_eq!(bytes, vec![5u8; 256]);
        // And a second drain finds nothing pending (no deadlock, no-op).
        gpi::wait_all_queues(ctx, &w0, 0, Wait::Block).unwrap();
    });
    sim.run().unwrap();
}

#[test]
fn gpi_notify_waitsome_drains_a_range_in_arrival_id_order() {
    // Four notifications land on ids 10..14 in shuffled arrival order; a
    // waitsome loop over the range consumes each exactly once, returning
    // the lowest posted id first.
    let mut sim = Sim::new();
    let world = boot(&sim, PlatformSpec::platform_c(), 3, 1, 3);
    let seg = world.attach_device_segment(2, 2, 1 << 16).unwrap();
    for (src, ids) in [(0usize, [13u32, 10]), (1, [12, 11])] {
        let w = world.clone();
        sim.spawn(format!("producer{src}"), move |ctx| {
            let dev = w.primary_dev(src).clone();
            dev.mem.write(0, &[src as u8 + 1; 64]).unwrap();
            for (k, id) in ids.into_iter().enumerate() {
                ctx.delay(Dur::micros(30.0 * k as f64 + 10.0 * src as f64));
                gpi::write_notify(
                    ctx,
                    &w,
                    src,
                    gpi::QueueId(0),
                    Loc::dev(src, 0),
                    seg,
                    64 * id as u64,
                    64,
                    id,
                    id as u64 + 100,
                )
                .unwrap();
            }
            gpi::wait_queue(ctx, &w, src, gpi::QueueId(0), Wait::Block).unwrap();
        });
    }
    let w2 = world.clone();
    sim.spawn("consumer", move |ctx| {
        let mut got = Vec::new();
        for _ in 0..4 {
            let (id, v) = gpi::notify_waitsome(ctx, &w2, 2, 10, 4, Wait::Block).unwrap();
            assert_eq!(v, id as u64 + 100, "value must travel with its id");
            got.push(id);
        }
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![10, 11, 12, 13], "each id exactly once");
        // Nothing left on the board afterwards.
        for id in 10..14 {
            assert_eq!(gpi::notify_reset(ctx, &w2, 2, id), None);
        }
    });
    sim.run().unwrap();
}

#[test]
fn gpi_concurrent_waiters_on_one_id_both_complete() {
    // Regression: the pre-board notify_wait kept a single waiter slot per
    // id, so a second waiter overwrote the first's wake registration and
    // the first parked forever once its notification had been consumed.
    // Now arrival checking and consumption are atomic under the board
    // lock: two waiters + two sequenced posts must both return.
    let mut sim = Sim::new();
    let world = boot(&sim, PlatformSpec::platform_c(), 2, 1, 2);
    let seg = world.attach_device_segment(1, 1, 1 << 16).unwrap();
    let sum = Arc::new(std::sync::atomic::AtomicU64::new(0));
    for name in ["waiter-a", "waiter-b"] {
        let w = world.clone();
        let sum = sum.clone();
        sim.spawn(name, move |ctx| {
            let v = gpi::notify_wait(ctx, &w, 1, 9);
            sum.fetch_add(v, std::sync::atomic::Ordering::Relaxed);
        });
    }
    let w0 = world.clone();
    sim.spawn("producer", move |ctx| {
        for v in [5u64, 6] {
            gpi::write_notify(ctx, &w0, 0, gpi::QueueId(0), Loc::dev(0, 0), seg, 0, 8, 9, v)
                .unwrap();
            // Space the posts so the first is consumed before the second
            // lands (posting to an unconsumed id overwrites it).
            ctx.delay(Dur::millis(1.0));
        }
        gpi::wait_queue(ctx, &w0, 0, gpi::QueueId(0), Wait::Block).unwrap();
    });
    sim.run().unwrap();
    assert_eq!(sum.load(std::sync::atomic::Ordering::Relaxed), 11, "both waiters woke");
}

#[test]
fn gpi_notification_never_overtakes_its_payload() {
    // A 16 MiB write_notify: the notification is 64 bytes of data queued
    // behind the payload on the same NIC FIFO — not a control-lane packet,
    // which would arrive a latency after issue — so when the waiter wakes
    // the last byte is already deposited. Alone, and behind another bulk
    // write that keeps the NIC busy first.
    let len: u64 = 16 << 20;
    for concurrent in [false, true] {
        let mut sim = Sim::new();
        let spec = ClusterSpec { platform: PlatformSpec::platform_c(), nodes: 2, gpus_per_node: 1 };
        let topo = Arc::new(Topology::build(&sim.handle(), spec));
        let devs =
            DeviceTable::build(&sim.handle(), topo.clone(), DataMode::Functional, Some(2 * len));
        let world = FabricWorld::new(topo, devs, 2);
        let seg = world.attach_device_segment(1, 1, 2 * len).unwrap();
        let w0 = world.clone();
        sim.spawn("rank0", move |ctx| {
            let dev = w0.primary_dev(0).clone();
            let pattern: Vec<u8> = (0..len).map(|i| (i % 249) as u8).collect();
            dev.mem.write(0, &pattern).unwrap();
            let q = gpi::QueueId(0);
            if concurrent {
                gpi::write(ctx, &w0, 0, q, Loc::dev(0, 0), seg, len, len).unwrap();
            }
            gpi::write_notify(ctx, &w0, 0, q, Loc::dev(0, 0), seg, 0, len, 3, 1).unwrap();
            gpi::wait_queue(ctx, &w0, 0, q, Wait::Block).unwrap();
        });
        let w1 = world.clone();
        sim.spawn("rank1", move |ctx| {
            let v = gpi::notify_wait(ctx, &w1, 1, 3);
            assert_eq!(v, 1);
            let bytes =
                w1.segment(seg).range(0, len).unwrap().snapshot(&w1.devs, len).unwrap().unwrap();
            let intact = bytes.iter().enumerate().all(|(i, &b)| b == (i % 249) as u8);
            assert!(intact, "payload fully deposited before the notification ({concurrent})");
        });
        sim.run().unwrap();
    }
}

#[test]
fn gpi_on_slingshot_platform_reports_conduit_unavailable() {
    // No panic: the missing conduit surfaces as a typed error the caller
    // can react to (fall back to GASNet, report, abort cleanly).
    let mut sim = Sim::new();
    let world = world_a(&sim, 8);
    let seg = world.attach_device_segment(1, 1, 1 << 16).unwrap();
    let w0 = world.clone();
    sim.spawn("rank0", move |ctx| {
        let err = gpi::write(ctx, &w0, 0, gpi::QueueId(0), Loc::dev(0, 0), seg, 0, 64)
            .expect_err("GPI-2 must be unavailable on Slingshot");
        assert!(matches!(err, diomp_fabric::FabricError::ConduitUnavailable { .. }), "{err:?}");
    });
    sim.run().unwrap();
}

// ---------------- MPI baseline ----------------

#[test]
fn mpi_eager_send_recv_delivers_posted_and_unexpected() {
    let mut sim = Sim::new();
    let world = world_a(&sim, 8);
    let w0 = world.clone();
    sim.spawn("rank0", move |ctx| {
        let mpi = diomp_fabric::MpiRank::new(w0.clone(), 0);
        let dev = w0.primary_dev(0).clone();
        dev.mem.write(0, &[1u8; 64]).unwrap();
        // First send races ahead of the recv (unexpected path)...
        mpi.send(ctx, 4, 100, Loc::dev(0, 0), 64).unwrap();
        ctx.delay(Dur::millis(1.0));
        // ...second send arrives after the recv was posted.
        dev.mem.write(0, &[2u8; 64]).unwrap();
        mpi.send(ctx, 4, 101, Loc::dev(0, 0), 64).unwrap();
    });
    let w4 = world.clone();
    sim.spawn("rank4", move |ctx| {
        let mpi = diomp_fabric::MpiRank::new(w4.clone(), 4);
        let dev = w4.primary_dev(4).clone();
        ctx.delay(Dur::micros(500.0)); // guarantee the unexpected path for tag 100
        mpi.recv(ctx, Some(0), Some(100), Loc::dev(4, 0), 64).unwrap();
        let r2 = mpi.irecv(ctx, Some(0), Some(101), Loc::dev(4, 64), 64).unwrap();
        mpi.wait(ctx, r2);
        let mut a = [0u8; 64];
        let mut b = [0u8; 64];
        dev.mem.read(0, &mut a).unwrap();
        dev.mem.read(64, &mut b).unwrap();
        assert_eq!(a, [1u8; 64]);
        assert_eq!(b, [2u8; 64]);
    });
    sim.run().unwrap();
}

#[test]
fn mpi_rendezvous_transfers_large_payload() {
    let mut sim = Sim::new();
    let world = world_a(&sim, 8);
    let len: u64 = 256 << 10; // far above eager_max = 8 KiB
    let w0 = world.clone();
    sim.spawn("rank0", move |ctx| {
        let mpi = diomp_fabric::MpiRank::new(w0.clone(), 0);
        let dev = w0.primary_dev(0).clone();
        let pattern: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        dev.mem.write(0, &pattern).unwrap();
        mpi.send(ctx, 4, 9, Loc::dev(0, 0), len).unwrap();
    });
    let w4 = world.clone();
    sim.spawn("rank4", move |ctx| {
        let mpi = diomp_fabric::MpiRank::new(w4.clone(), 4);
        let dev = w4.primary_dev(4).clone();
        mpi.recv(ctx, Some(0), Some(9), Loc::dev(4, 0), len).unwrap();
        let mut got = vec![0u8; len as usize];
        dev.mem.read(0, &mut got).unwrap();
        let expect: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        assert_eq!(got, expect);
    });
    sim.run().unwrap();
}

#[test]
fn mpi_wildcard_recv_matches_any_source() {
    let mut sim = Sim::new();
    let world = world_a(&sim, 8);
    for r in [1usize, 2] {
        let w = world.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            let mpi = diomp_fabric::MpiRank::new(w.clone(), r);
            let host = HostBuf::from_bytes(vec![r as u8; 16]);
            ctx.delay(Dur::micros(r as f64 * 50.0));
            mpi.send(ctx, 0, 5, Loc::host(host, 0), 16).unwrap();
        });
    }
    let w0 = world.clone();
    sim.spawn("rank0", move |ctx| {
        let mpi = diomp_fabric::MpiRank::new(w0.clone(), 0);
        let a = HostBuf::zeroed(16);
        let b = HostBuf::zeroed(16);
        mpi.recv(ctx, None, Some(5), Loc::host(a.clone(), 0), 16).unwrap();
        mpi.recv(ctx, None, Some(5), Loc::host(b.clone(), 0), 16).unwrap();
        let mut got = vec![a.to_bytes()[0], b.to_bytes()[0]];
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    });
    sim.run().unwrap();
}

#[test]
fn mpi_rma_put_latency_exceeds_gasnet_put_latency() {
    // The Fig. 3 headline: DiOMP RMA beats MPI RMA at small sizes.
    let mut sim = Sim::new();
    let world = world_a(&sim, 8);
    let seg = world.attach_device_segment(4, 4, 1 << 16).unwrap();
    for r in 0..8usize {
        let w = world.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            let mpi = diomp_fabric::MpiRank::new(w.clone(), r);
            let win = mpi.win_create(ctx, Loc::dev(r, 1 << 15), 4096);
            if r == 0 {
                let t0 = ctx.now();
                mpi.win_put(ctx, win, 4, 0, Loc::dev(0, 0), 8).unwrap();
                mpi.win_flush(ctx, win);
                let mpi_us = ctx.now().since(t0).as_us();
                let t1 = ctx.now();
                gasnet::put_blocking(ctx, &w, 0, Loc::dev(0, 0), seg, 0, 8).unwrap();
                let gas_us = ctx.now().since(t1).as_us();
                assert!(
                    mpi_us > 1.3 * gas_us,
                    "MPI put+flush {mpi_us:.2} µs must exceed GASNet put {gas_us:.2} µs"
                );
            }
            mpi.barrier(ctx);
        });
    }
    sim.run().unwrap();
}

#[test]
fn mpi_win_create_completes_two_hop_rounds_after_the_last_arrival() {
    // Registration, then one rendezvous: the ids are gathered and
    // broadcast, 2·⌈log2 4⌉ network latencies after the slowest rank.
    let mut sim = Sim::new();
    let world = world_a(&sim, 4);
    for r in 0..4usize {
        let w = world.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            let mpi = diomp_fabric::MpiRank::new(w.clone(), r);
            ctx.delay(Dur::micros(r as f64 * 10.0));
            let first = mpi.win_create(ctx, Loc::dev(r, 0), 4096);
            let hop = Dur::micros(w.platform.net.latency_us).as_nanos();
            let registered = Dur::micros(30.0 + w.platform.mpi_rma.win_create_us).as_nanos();
            assert_eq!(ctx.now().nanos(), registered + 4 * hop);
            let second = mpi.win_create(ctx, Loc::dev(r, 4096), 4096);
            assert_eq!((first.0, second.0), (0, 1), "every rank learns the same ids");
        });
    }
    sim.run().unwrap();
}

#[test]
fn mpi_rma_get_moves_correct_bytes() {
    let mut sim = Sim::new();
    let world = world_a(&sim, 8);
    for r in 0..8usize {
        let w = world.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            let mpi = diomp_fabric::MpiRank::new(w.clone(), r);
            let dev = w.primary_dev(r).clone();
            dev.mem.write(0, &[r as u8 + 10; 64]).unwrap();
            let win = mpi.win_create(ctx, Loc::dev(r, 0), 4096);
            mpi.barrier(ctx);
            if r == 0 {
                mpi.win_get(ctx, win, 7, 0, Loc::dev(0, 2048), 64).unwrap();
                mpi.win_flush(ctx, win);
                let mut got = [0u8; 64];
                dev.mem.read(2048, &mut got).unwrap();
                assert_eq!(got, [17u8; 64]);
            }
            mpi.barrier(ctx);
        });
    }
    sim.run().unwrap();
}

fn run_allreduce(nranks: usize, elems: usize) {
    let mut sim = Sim::new();
    let world = boot(&sim, PlatformSpec::platform_a(), nranks, 1, nranks);
    for r in 0..nranks {
        let w = world.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            let mut mpi = diomp_fabric::MpiRank::new(w.clone(), r);
            let dev = w.primary_dev(r).clone();
            let off = dev.malloc((elems * 8) as u64, 256).unwrap();
            let vals: Vec<f64> = (0..elems).map(|i| (r * elems + i) as f64).collect();
            let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            dev.mem.write(off, &bytes).unwrap();
            mpi.allreduce(ctx, Loc::dev(r, off), (elems * 8) as u64, ReduceOp::SumF64).unwrap();
            let mut out = vec![0u8; elems * 8];
            dev.mem.read(off, &mut out).unwrap();
            for i in 0..elems {
                let got = f64::from_le_bytes(out[i * 8..i * 8 + 8].try_into().unwrap());
                let expect: f64 = (0..nranks).map(|k| (k * elems + i) as f64).sum();
                assert!(
                    (got - expect).abs() < 1e-9,
                    "rank {r} elem {i}: got {got}, expect {expect}"
                );
            }
        });
    }
    sim.run().unwrap();
}

#[test]
fn mpi_allreduce_matches_sequential_sum_power_of_two() {
    run_allreduce(8, 32);
}

#[test]
fn mpi_allreduce_matches_sequential_sum_odd_ranks() {
    run_allreduce(6, 17);
}

#[test]
fn mpi_allreduce_matches_sequential_sum_large_payload() {
    run_allreduce(4, 4096); // 32 KiB → rendezvous path inside the rounds
}

fn run_bcast(nranks: usize, len: u64, root: usize) {
    let mut sim = Sim::new();
    let world = boot(&sim, PlatformSpec::platform_a(), nranks, 1, nranks);
    for r in 0..nranks {
        let w = world.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            let mut mpi = diomp_fabric::MpiRank::new(w.clone(), r);
            let dev = w.primary_dev(r).clone();
            let off = dev.malloc(len, 256).unwrap();
            if r == root {
                let pattern: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
                dev.mem.write(off, &pattern).unwrap();
            }
            mpi.bcast(ctx, root, Loc::dev(r, off), len).unwrap();
            let mut got = vec![0u8; len as usize];
            dev.mem.read(off, &mut got).unwrap();
            let expect: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
            assert_eq!(got, expect, "rank {r} bcast payload mismatch");
        });
    }
    sim.run().unwrap();
}

#[test]
fn mpi_bcast_binomial_small_message() {
    run_bcast(8, 4096, 0);
}

#[test]
fn mpi_bcast_nonzero_root() {
    run_bcast(6, 2048, 3);
}

#[test]
fn mpi_bcast_scatter_allgather_large_message() {
    run_bcast(8, 1 << 20, 0); // 1 MiB → van de Geijn path
}

#[test]
fn mpi_reduce_collects_at_root() {
    let nranks = 8;
    let mut sim = Sim::new();
    let world = world_a(&sim, nranks);
    for r in 0..nranks {
        let w = world.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            let mut mpi = diomp_fabric::MpiRank::new(w.clone(), r);
            let dev = w.primary_dev(r).clone();
            let off = dev.malloc(64, 256).unwrap();
            let bytes: Vec<u8> = (0..8).flat_map(|i| ((r + i) as f64).to_le_bytes()).collect();
            dev.mem.write(off, &bytes).unwrap();
            mpi.reduce(ctx, 2, Loc::dev(r, off), 64, ReduceOp::SumF64).unwrap();
            if r == 2 {
                let mut out = vec![0u8; 64];
                dev.mem.read(off, &mut out).unwrap();
                for i in 0..8usize {
                    let got = f64::from_le_bytes(out[i * 8..i * 8 + 8].try_into().unwrap());
                    let expect: f64 = (0..nranks).map(|k| (k + i) as f64).sum();
                    assert!((got - expect).abs() < 1e-9);
                }
            }
        });
    }
    sim.run().unwrap();
}

#[test]
fn fabric_runs_are_deterministic() {
    let run = || -> u64 {
        let mut sim = Sim::new();
        let world = world_a(&sim, 8);
        let done = Arc::new(parking_lot::Mutex::new(0u64));
        for r in 0..8usize {
            let w = world.clone();
            let done = done.clone();
            sim.spawn(format!("rank{r}"), move |ctx| {
                let mut mpi = diomp_fabric::MpiRank::new(w.clone(), r);
                mpi.allreduce(ctx, Loc::dev(r, 0), 1024, ReduceOp::SumF64).unwrap();
                mpi.barrier(ctx);
                if r == 0 {
                    *done.lock() = ctx.now().nanos();
                }
            });
        }
        sim.run().unwrap();
        let v = *done.lock();
        v
    };
    assert_eq!(run(), run());
}

// ---------------- Timeouts, faults, and recovery (GASPI fault model) ----------------

use diomp_fabric::{FabricError, RankHealth};
use diomp_sim::{fault_key, CtrlFault, FaultPlan, SimTime};

/// One row of the wire table: an operation moving `WIRE_LEN` bytes
/// between rank 0 (node 0) and rank 1 (node 1) of a two-node platform C
/// world, run SPMD on both ranks.
struct WireCase {
    name: &'static str,
    /// Scheduler entries that exist only to move bytes: 1 per write
    /// (deposit), 2 per read or rendezvous (snapshot + deposit).
    data_actions: u64,
    /// `(flat device, offset)` the payload is read from / lands at.
    src: (usize, u64),
    dst: (usize, u64),
    op: fn(&mut diomp_sim::Ctx, &Arc<FabricWorld>, diomp_fabric::SegmentId, usize),
}

const WIRE_LEN: u64 = 1 << 14;
/// Raw device offsets clear of rank 1's segment (`[0, 64 KiB)` of device 1).
const LOCAL: u64 = 1 << 16;
const WINDOW: u64 = 1 << 17;

fn wire_cases() -> Vec<WireCase> {
    use diomp_fabric::MpiRank;
    const Q: gpi::QueueId = gpi::QueueId(0);
    vec![
        WireCase {
            name: "gasnet put",
            data_actions: 1,
            src: (0, 0),
            dst: (1, 0),
            op: |ctx, w, seg, r| {
                if r == 0 {
                    gasnet::put_blocking(ctx, w, 0, Loc::dev(0, 0), seg, 0, WIRE_LEN).unwrap();
                }
            },
        },
        WireCase {
            name: "gasnet get",
            data_actions: 2,
            src: (1, 0),
            dst: (0, LOCAL),
            op: |ctx, w, seg, r| {
                if r == 0 {
                    gasnet::get_blocking(ctx, w, 0, Loc::dev(0, LOCAL), seg, 0, WIRE_LEN).unwrap();
                }
            },
        },
        WireCase {
            name: "gpi write",
            data_actions: 1,
            src: (0, 0),
            dst: (1, 0),
            op: |ctx, w, seg, r| {
                if r == 0 {
                    gpi::write(ctx, w, 0, Q, Loc::dev(0, 0), seg, 0, WIRE_LEN).unwrap();
                    gpi::wait_queue(ctx, w, 0, Q, Wait::Block).unwrap();
                }
            },
        },
        WireCase {
            name: "gpi read",
            data_actions: 2,
            src: (1, 0),
            dst: (0, LOCAL),
            op: |ctx, w, seg, r| {
                if r == 0 {
                    gpi::read(ctx, w, 0, Q, Loc::dev(0, LOCAL), seg, 0, WIRE_LEN).unwrap();
                    gpi::wait_queue(ctx, w, 0, Q, Wait::Block).unwrap();
                }
            },
        },
        WireCase {
            name: "win_put",
            data_actions: 1,
            src: (0, 0),
            dst: (1, WINDOW),
            op: |ctx, w, _, r| {
                let mpi = MpiRank::new(w.clone(), r);
                let win = mpi.win_create(ctx, Loc::dev(r, WINDOW), WIRE_LEN);
                if r == 0 {
                    mpi.win_put(ctx, win, 1, 0, Loc::dev(0, 0), WIRE_LEN).unwrap();
                    mpi.win_flush(ctx, win);
                }
            },
        },
        WireCase {
            name: "win_get",
            data_actions: 2,
            src: (1, WINDOW),
            dst: (0, LOCAL),
            op: |ctx, w, _, r| {
                let mpi = MpiRank::new(w.clone(), r);
                let win = mpi.win_create(ctx, Loc::dev(r, WINDOW), WIRE_LEN);
                if r == 0 {
                    mpi.win_get(ctx, win, 1, 0, Loc::dev(0, LOCAL), WIRE_LEN).unwrap();
                    mpi.win_flush(ctx, win);
                }
            },
        },
        WireCase {
            name: "mpi rendezvous send",
            data_actions: 2,
            src: (0, 0),
            dst: (1, WINDOW),
            op: |ctx, w, _, r| {
                let mpi = MpiRank::new(w.clone(), r);
                assert!(WIRE_LEN > w.platform.mpi_p2p.eager_max, "must take the rendezvous path");
                if r == 0 {
                    mpi.send(ctx, 1, 7, Loc::dev(0, 0), WIRE_LEN).unwrap();
                } else {
                    mpi.recv(ctx, Some(0), Some(7), Loc::dev(1, WINDOW), WIRE_LEN).unwrap();
                }
            },
        },
    ]
}

#[test]
fn every_one_sided_op_rides_the_same_wire_in_both_data_modes() {
    // One rule under GASNet-EX, GPI-2, MPI windows and the MPI
    // rendezvous: the snapshot and deposit actions are Functional-mode
    // work. A CostOnly run must reach the same instant without them, and
    // a Functional run must deposit at the modelled arrival — not a
    // nanosecond earlier.
    let pattern: Vec<u8> = (0..WIRE_LEN).map(|i| (i % 251) as u8 + 1).collect();
    for case in wire_cases() {
        // `probe_at`: also watch the destination around that instant.
        let run = |mode: DataMode, probe_at: Option<SimTime>| {
            let mut sim = Sim::new();
            let spec =
                ClusterSpec { platform: PlatformSpec::platform_c(), nodes: 2, gpus_per_node: 1 };
            let topo = Arc::new(Topology::build(&sim.handle(), spec));
            let devs = DeviceTable::build(&sim.handle(), topo.clone(), mode, Some(4 << 20));
            let world = FabricWorld::new(topo, devs, 2);
            let seg = world.attach_device_segment(1, 1, 1 << 16).unwrap();
            assert_eq!(world.segment(seg).base, 0, "the table addresses the segment raw");
            if mode == DataMode::Functional {
                world.devs.dev(case.src.0).mem.write(case.src.1, &pattern).unwrap();
            }
            for r in 0..2 {
                let (w, op) = (world.clone(), case.op);
                sim.spawn(format!("rank{r}"), move |ctx| op(ctx, &w, seg, r));
            }
            if let Some(arrive) = probe_at {
                let (w, dst, want) = (world.clone(), case.dst, pattern.clone());
                sim.spawn("probe", move |ctx| {
                    let read = || {
                        let mut got = vec![0u8; WIRE_LEN as usize];
                        w.devs.dev(dst.0).mem.read(dst.1, &mut got).unwrap();
                        got
                    };
                    ctx.sleep_until(SimTime(arrive.nanos() - 1));
                    ctx.yield_now();
                    assert!(read().iter().all(|&b| b == 0), "{}: bytes before arrival", case.name);
                    ctx.sleep_until(arrive);
                    // Let everything already queued at this instant run.
                    ctx.yield_now();
                    assert_eq!(read(), want, "{}: bytes absent at arrival", case.name);
                });
            }
            let handle = sim.handle();
            let rep = sim.run().unwrap();
            // The payload is the last thing its source NIC sent (requests,
            // clear-to-sends and acknowledgements leave from the other
            // side), so the link's watermark is the payload's departure.
            let nic = world.devs.dev(case.src.0).nic;
            let arrive = handle.resource_free_at(nic) + Dur::micros(world.platform.net.latency_us);
            (rep.end_time, rep.entries_processed, arrive)
        };
        let (functional, cost_only) =
            (run(DataMode::Functional, None), run(DataMode::CostOnly, None));
        assert_eq!(functional.0, cost_only.0, "{}: data actions carry no virtual time", case.name);
        assert_eq!(functional.2, cost_only.2, "{}: same wire in both modes", case.name);
        assert_eq!(
            functional.1,
            cost_only.1 + case.data_actions,
            "{}: the data actions are the only difference in entries",
            case.name
        );
        run(DataMode::Functional, Some(functional.2));
    }
}

#[test]
fn conduit_ops_past_the_segment_extent_are_refused_and_touch_nothing() {
    // A 4 KiB segment at the bottom of device 1; the 4 KiB behind it
    // belong to somebody else and must stay zero.
    let mut sim = Sim::new();
    let world = boot(&sim, PlatformSpec::platform_c(), 2, 1, 2);
    let seg = world.attach_device_segment(1, 1, 4096).unwrap();
    let base = world.segment(seg).base;
    world.primary_dev(0).mem.write(0, &[0xAB; 8192]).unwrap();
    let w0 = world.clone();
    sim.spawn("rank0", move |ctx| {
        let q = gpi::QueueId(0);
        let oob = |offset, len| diomp_device::MemError::OutOfBounds { offset, len, capacity: 4096 };
        let err = gasnet::put_nb(ctx, &w0, 0, Loc::dev(0, 0), seg, 0, 8192).unwrap_err();
        assert_eq!(err, oob(0, 8192));
        let err = gpi::write(ctx, &w0, 0, q, Loc::dev(0, 0), seg, 4000, 4096).unwrap_err();
        assert_eq!(err, FabricError::Mem(oob(4000, 4096)));
        assert_eq!(
            gasnet::get_nb(ctx, &w0, 0, Loc::dev(0, 0), seg, 1, 4096).unwrap_err(),
            oob(1, 4096)
        );
        let err = gpi::read(ctx, &w0, 0, q, Loc::dev(0, 0), seg, u64::MAX, 2).unwrap_err();
        assert_eq!(err, FabricError::Mem(oob(u64::MAX, 2)));
        assert_eq!(ctx.now(), SimTime::ZERO, "a refused operation charges nothing");
    });
    sim.run().unwrap();
    let mut behind = [0xFFu8; 4096];
    world.primary_dev(1).mem.read(base + 4096, &mut behind).unwrap();
    assert!(behind.iter().all(|&b| b == 0), "bytes behind the segment were written");
}

#[test]
fn wrapping_offset_is_out_of_bounds_in_cost_only_mode_too() {
    // `off + len` wraps `u64`: nothing to snapshot in CostOnly, so only
    // the bounds check stands between this put and an `Ok`.
    let mut sim = Sim::new();
    let spec = ClusterSpec { platform: PlatformSpec::platform_c(), nodes: 2, gpus_per_node: 1 };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, Some(4 << 20));
    let world = FabricWorld::new(topo, devs, 2);
    let seg = world.attach_device_segment(1, 1, 4096).unwrap();
    sim.spawn("rank0", move |ctx| {
        let src = Loc::dev(0, u64::MAX - 3);
        let err = gasnet::put_nb(ctx, &world, 0, src, seg, 0, 8).unwrap_err();
        assert!(matches!(err, diomp_device::MemError::OutOfBounds { len: 8, .. }), "{err:?}");
    });
    sim.run().unwrap();
}

#[test]
fn gpi_wait_queue_timeout_then_blocking_wait_drains() {
    // A cross-node write cannot complete within 1 ns of virtual time:
    // the timed wait must return GASPI_TIMEOUT-style, leave the
    // operation queued, and a later blocking wait must still drain it
    // (partial state preserved, nothing lost or double-freed).
    let mut sim = Sim::new();
    let world = boot(&sim, PlatformSpec::platform_c(), 2, 1, 2);
    let seg = world.attach_device_segment(1, 1, 1 << 16).unwrap();
    let w0 = world.clone();
    sim.spawn("rank0", move |ctx| {
        gpi::write(ctx, &w0, 0, gpi::QueueId(0), Loc::dev(0, 0), seg, 0, 1 << 14).unwrap();
        let err = gpi::wait_queue(ctx, &w0, 0, gpi::QueueId(0), Wait::Until(Dur::nanos(1)))
            .expect_err("a cross-node write cannot finish in 1 ns");
        assert!(matches!(err, FabricError::Timeout { .. }), "{err:?}");
        gpi::wait_queue(ctx, &w0, 0, gpi::QueueId(0), Wait::Block).unwrap();
    });
    sim.run().unwrap();
}

#[test]
fn gpi_wait_timeout_retires_completed_ops_and_requeues_the_rest() {
    // Two writes on one queue: a tiny one (completes in ~µs) and a huge
    // one. A timed wait placed between their completion times errors,
    // but must retire the finished op; the survivor drains later.
    let mut sim = Sim::new();
    let world = boot(&sim, PlatformSpec::platform_c(), 2, 1, 2);
    let seg = world.attach_device_segment(1, 1, 1 << 20).unwrap();
    let w0 = world.clone();
    sim.spawn("rank0", move |ctx| {
        gpi::write(ctx, &w0, 0, gpi::QueueId(0), Loc::dev(0, 0), seg, 0, 8).unwrap();
        gpi::write(ctx, &w0, 0, gpi::QueueId(0), Loc::dev(0, 64), seg, 64, (1 << 20) - 64).unwrap();
        let err = gpi::wait_all_queues(ctx, &w0, 0, Wait::Until(Dur::micros(30.0)))
            .expect_err("the 1 MiB write outlives a 30 µs deadline");
        assert!(matches!(err, FabricError::Timeout { .. }), "{err:?}");
        // The small write was retired by the timed wait; the big one is
        // still queued and must drain on the unbounded wait.
        gpi::wait_all_queues(ctx, &w0, 0, Wait::Block).unwrap();
    });
    sim.run().unwrap();
}

#[test]
fn wait_queue_and_wait_all_queues_requeue_survivors_in_the_same_place() {
    // A 1 MiB write outlives a 3 µs wait; while rank 0 is parked in it a
    // helper posts an 8-byte write on the same queue, which the FIFO NIC
    // completes strictly later. Whichever wait timed out, the survivor
    // goes back *ahead* of the newer post: queue order is
    // completion-tracking order.
    for all_queues in [false, true] {
        let mut sim = Sim::new();
        let world = boot(&sim, PlatformSpec::platform_c(), 2, 1, 2);
        let seg = world.attach_device_segment(1, 1, 1 << 20).unwrap();
        let q = gpi::QueueId(0);
        let w0 = world.clone();
        sim.spawn("rank0", move |ctx| {
            gpi::write(ctx, &w0, 0, q, Loc::dev(0, 0), seg, 0, 1 << 20).unwrap();
            let budget = Wait::Until(Dur::micros(3.0));
            let err = if all_queues {
                gpi::wait_all_queues(ctx, &w0, 0, budget)
            } else {
                gpi::wait_queue(ctx, &w0, 0, q, budget)
            };
            assert!(matches!(err, Err(FabricError::Timeout { .. })), "{err:?}");
            let queued = gpi::take_pending_all(&w0, 0);
            assert_eq!(queued.len(), 2);
            ctx.wait_all(&queued[..1], Wait::Block).unwrap();
            assert!(!ctx.event_done(queued[1]), "all_queues = {all_queues}: survivor first");
            ctx.drain(&queued, Wait::Block).unwrap();
        });
        let w1 = world.clone();
        sim.spawn("helper", move |ctx| {
            ctx.delay(Dur::micros(1.0));
            gpi::write(ctx, &w1, 0, q, Loc::dev(0, 0), seg, 0, 8).unwrap();
        });
        sim.run().unwrap();
    }
}

#[test]
fn gpi_injected_queue_drop_errors_queue_until_purged() {
    let mut sim = Sim::new();
    sim.set_fault_plan(FaultPlan::new().ctrl_fault(fault_key("gpi-queue", 0, 0), CtrlFault::Drop));
    let world = boot(&sim, PlatformSpec::platform_c(), 2, 1, 2);
    let seg = world.attach_device_segment(1, 1, 1 << 16).unwrap();
    let w0 = world.clone();
    sim.spawn("rank0", move |ctx| {
        let q = gpi::QueueId(0);
        let err = gpi::write(ctx, &w0, 0, q, Loc::dev(0, 0), seg, 0, 64)
            .expect_err("injected drop must error the queue");
        assert_eq!(err, FabricError::QueueError { rank: 0, queue: q });
        assert!(gpi::queue_errored(&w0, 0, q));
        // Error state is sticky: the next post fails without a new fault.
        let err2 = gpi::write(ctx, &w0, 0, q, Loc::dev(0, 0), seg, 0, 64).unwrap_err();
        assert_eq!(err2, FabricError::QueueError { rank: 0, queue: q });
        // An unrelated queue is unaffected.
        gpi::write(ctx, &w0, 0, gpi::QueueId(1), Loc::dev(0, 0), seg, 0, 64).unwrap();
        // Purge re-arms the queue; posting and draining work again.
        gpi::queue_purge(ctx.handle(), &w0, 0, q);
        assert!(!gpi::queue_errored(&w0, 0, q));
        gpi::write(ctx, &w0, 0, q, Loc::dev(0, 0), seg, 0, 64).unwrap();
        gpi::wait_all_queues(ctx, &w0, 0, Wait::Block).unwrap();
    });
    let h = sim.handle();
    sim.run().unwrap();
    assert_eq!(h.faults_injected(), 1, "exactly the one injected drop was charged");
}

#[test]
fn gpi_queue_purge_abandons_inflight_completions_without_leaking() {
    // Purge a queue while its write is still on the wire: the completion
    // event must recycle itself when the ack lands (auto-free), not
    // panic, not leak, and not wake anyone.
    let mut sim = Sim::new();
    let world = boot(&sim, PlatformSpec::platform_c(), 2, 1, 2);
    let seg = world.attach_device_segment(1, 1, 1 << 20).unwrap();
    let w0 = world.clone();
    sim.spawn("rank0", move |ctx| {
        gpi::write(ctx, &w0, 0, gpi::QueueId(0), Loc::dev(0, 0), seg, 0, 1 << 20).unwrap();
        gpi::queue_purge(ctx.handle(), &w0, 0, gpi::QueueId(0));
        // Nothing left to wait on; an immediate drain returns at once.
        let t0 = ctx.now();
        gpi::wait_queue(ctx, &w0, 0, gpi::QueueId(0), Wait::Block).unwrap();
        assert_eq!(ctx.now(), t0, "purged queue has no completions to wait for");
    });
    sim.run().unwrap();
}

#[test]
fn gpi_lost_notification_recovered_by_timeout_and_retry() {
    // The canonical GASPI failure: the payload lands but its notification
    // is lost in flight. The consumer's timed waitsome fires, it asks the
    // producer to re-notify, and the retry (fault already consumed)
    // delivers. End state: payload visible, value observed exactly once.
    let mut sim = Sim::new();
    sim.set_fault_plan(FaultPlan::new().ctrl_fault(fault_key("gpi-notify", 1, 7), CtrlFault::Drop));
    let world = boot(&sim, PlatformSpec::platform_c(), 2, 1, 2);
    let seg = world.attach_device_segment(1, 1, 1 << 16).unwrap();
    let retry = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let w0 = world.clone();
    let retry0 = retry.clone();
    sim.spawn("producer", move |ctx| {
        let dev = w0.primary_dev(0).clone();
        dev.mem.write(0, &[9u8; 64]).unwrap();
        gpi::write_notify(ctx, &w0, 0, gpi::QueueId(0), Loc::dev(0, 0), seg, 0, 64, 7, 77).unwrap();
        gpi::wait_queue(ctx, &w0, 0, gpi::QueueId(0), Wait::Block).unwrap();
        // Await the consumer's re-notify request (virtual-time poll).
        while !retry0.load(std::sync::atomic::Ordering::Relaxed) {
            ctx.delay(Dur::micros(20.0));
        }
        gpi::write_notify(ctx, &w0, 0, gpi::QueueId(0), Loc::dev(0, 0), seg, 0, 64, 7, 77).unwrap();
        gpi::wait_queue(ctx, &w0, 0, gpi::QueueId(0), Wait::Block).unwrap();
    });
    let w1 = world.clone();
    sim.spawn("consumer", move |ctx| {
        let err = gpi::notify_waitsome(ctx, &w1, 1, 0, 16, Wait::Until(Dur::millis(1.0)))
            .expect_err("the first notification was dropped");
        assert!(matches!(err, FabricError::Timeout { .. }), "{err:?}");
        retry.store(true, std::sync::atomic::Ordering::Relaxed);
        let (id, value) = gpi::notify_waitsome(ctx, &w1, 1, 0, 16, Wait::Block).unwrap();
        assert_eq!((id, value), (7, 77));
        let bytes = w1.segment(seg).range(0, 64).unwrap().snapshot(&w1.devs, 64).unwrap().unwrap();
        assert_eq!(bytes, vec![9u8; 64], "payload landed despite the lost notification");
    });
    sim.run().unwrap();
}

#[test]
fn health_vector_reflects_fault_plan_per_rank() {
    let sim = Sim::new();
    let world = boot(&sim, PlatformSpec::platform_c(), 4, 1, 4);
    let nic1 = world.primary_dev(1).nic;
    let nic3 = world.primary_dev(3).nic;
    let plan =
        FaultPlan::new().degrade_link(nic1, SimTime(0), SimTime(u64::MAX), 400).kill_link(nic3);
    world.refresh_health_from_plan(&plan);
    let hv = world.health();
    assert_eq!(hv.rank_health(0), RankHealth::Healthy);
    assert_eq!(hv.rank_health(1), RankHealth::Degraded { factor_milli: 400 });
    assert_eq!(hv.rank_health(2), RankHealth::Healthy);
    assert_eq!(hv.rank_health(3), RankHealth::Dead);
    assert!(hv.any_dead());
    assert_eq!(hv.worst_live_factor_milli(), 400, "dead ranks priced out, not in");
    assert_eq!(hv.link_factor_milli(nic1), 400);
    assert_eq!(hv.link_factor_milli(nic3), 0);
    assert_eq!(hv.link_factor_milli(world.primary_dev(0).nic), 1000);
    drop(sim);
}

#[test]
fn gpi_concurrent_waiters_survive_injected_notification_delays() {
    // The PR 3 lost-wake regression (two waiters, one id) re-run with the
    // injector delaying both notification messages: the stretched post
    // times must not resurrect the overwrite/forever-park bug, at any of
    // several fixed seeds' delay combinations.
    for (d0, d1) in [(5.0, 900.0), (900.0, 5.0), (250.0, 250.0)] {
        let mut sim = Sim::new();
        sim.set_fault_plan(
            FaultPlan::new()
                .ctrl_fault(fault_key("gpi-notify", 1, 9), CtrlFault::Delay(Dur::micros(d0)))
                .ctrl_fault(fault_key("gpi-notify", 1, 9), CtrlFault::Delay(Dur::micros(d1))),
        );
        let world = boot(&sim, PlatformSpec::platform_c(), 2, 1, 2);
        let seg = world.attach_device_segment(1, 1, 1 << 16).unwrap();
        let sum = Arc::new(std::sync::atomic::AtomicU64::new(0));
        for name in ["waiter-a", "waiter-b"] {
            let w = world.clone();
            let sum = sum.clone();
            sim.spawn(name, move |ctx| {
                let v = gpi::notify_wait(ctx, &w, 1, 9);
                sum.fetch_add(v, std::sync::atomic::Ordering::Relaxed);
            });
        }
        let w0 = world.clone();
        sim.spawn("producer", move |ctx| {
            for v in [5u64, 6] {
                gpi::write_notify(ctx, &w0, 0, gpi::QueueId(0), Loc::dev(0, 0), seg, 0, 8, 9, v)
                    .unwrap();
                // Wide spacing so the two posts stay distinguishable even
                // under the injected skews above.
                ctx.delay(Dur::millis(2.0));
            }
            gpi::wait_queue(ctx, &w0, 0, gpi::QueueId(0), Wait::Block).unwrap();
        });
        sim.run().unwrap();
        assert_eq!(
            sum.load(std::sync::atomic::Ordering::Relaxed),
            11,
            "both waiters woke under delays ({d0}, {d1})"
        );
    }
}

#[test]
fn gpi_timed_wait_against_a_killed_peer_times_out_at_the_deadline() {
    // Rank 1 is killed before rank 0 reads from its segment: the kill's
    // dead windows replay the corpse's links 1000× slow, so the
    // transfer sourced at its NIC cannot complete inside the bounded
    // wait. The timed wait (GASPI_TIMEOUT discipline via
    // `drain(Wait::Until)`) must surface `FabricError::Timeout`
    // *exactly at the deadline* — the budget bounds detection, not the
    // stretched transfer — and a later blocking wait still drains it
    // (dead links are slow, never wedged).
    let mut sim = Sim::new();
    sim.set_fault_plan(FaultPlan::new().kill_rank(1, SimTime::ZERO));
    let world = boot(&sim, PlatformSpec::platform_c(), 2, 1, 2);
    // Attach the simulator so the rank kill expands into dead link
    // windows (what the runtime does at build).
    world.attach_sim(&sim.handle());
    let seg = world.attach_device_segment(1, 1, 1 << 16).unwrap();
    let w0 = world.clone();
    sim.spawn("rank0", move |ctx| {
        gpi::read(ctx, &w0, 0, gpi::QueueId(0), Loc::dev(0, 0), seg, 0, 1 << 16).unwrap();
        let t0 = ctx.now();
        let budget = Dur::micros(200.0);
        let err = gpi::wait_queue(ctx, &w0, 0, gpi::QueueId(0), Wait::Until(budget))
            .expect_err("a read sourced at a killed peer cannot finish inside the budget");
        assert!(matches!(err, FabricError::Timeout { .. }), "{err:?}");
        assert_eq!(
            ctx.now(),
            t0 + budget,
            "the timeout fires at the deadline, not after the 1000x-stretched transfer"
        );
        gpi::wait_queue(ctx, &w0, 0, gpi::QueueId(0), Wait::Block).unwrap();
    });
    sim.run().unwrap();
}
