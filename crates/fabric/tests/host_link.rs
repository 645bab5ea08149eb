//! The two-lane host link as the fabric sees it, the timed put, and the
//! instant a transfer reads a source that is not read in the call.

use std::sync::Arc;

use diomp_device::{DataMode, DeviceTable, HostBuf};
use diomp_fabric::path::{raw_path, End};
use diomp_fabric::{gasnet, FabricWorld, Loc, RankHealth};
use diomp_sim::{ClusterSpec, Dur, FaultPlan, PlatformSpec, Sim, SimTime, Topology, Wait};

const LEN: u64 = 1 << 20;

/// Two single-GPU platform-A nodes, one rank each.
fn two_nodes(sim: &Sim, mode: DataMode) -> Arc<FabricWorld> {
    let spec = ClusterSpec { platform: PlatformSpec::platform_a(), nodes: 2, gpus_per_node: 1 };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), mode, Some(4 * LEN));
    FabricWorld::new(topo, devs, 2)
}

#[test]
fn a_download_never_delays_an_upload() {
    let sim = Sim::new();
    let (w, h) = (two_nodes(&sim, DataMode::CostOnly), sim.handle());
    let (dev, host, t0) = (End::Dev(0), End::Node(0), SimTime::ZERO);
    let solo = raw_path(&h, &w.devs, End::Node(1), End::Dev(1), t0, LEN, 1.0);
    let down = raw_path(&h, &w.devs, dev, host, t0, LEN, 1.0);
    let up = raw_path(&h, &w.devs, host, dev, t0, LEN, 1.0);
    assert_eq!((down.arrive, up.arrive), (solo.arrive, solo.arrive), "a lane each, to itself");
    let queued = raw_path(&h, &w.devs, dev, host, t0, LEN, 1.0);
    assert_eq!(queued.depart.nanos(), 2 * down.depart.nanos(), "same direction: FIFO");
}

#[test]
fn a_rank_kill_darkens_both_lanes_and_either_lane_degrades_its_owner() {
    let busy_ns = |plan: Option<FaultPlan>, src: End, dst: End| {
        let sim = Sim::new();
        if let Some(plan) = plan {
            sim.set_fault_plan(plan);
        }
        let w = two_nodes(&sim, DataMode::CostOnly);
        w.attach_sim(&sim.handle());
        raw_path(&sim.handle(), &w.devs, src, dst, SimTime::ZERO, LEN, 1.0).depart.nanos()
    };
    let kill = || Some(FaultPlan::new().kill_rank(1, SimTime::ZERO));
    for (src, dst) in [(End::Dev(1), End::Node(1)), (End::Node(1), End::Dev(1))] {
        let alive = busy_ns(None, src, dst);
        assert!(busy_ns(kill(), src, dst) >= 900 * alive, "{src:?} -> {dst:?} of a dead rank");
    }
    let survivor = (End::Node(0), End::Dev(0));
    assert_eq!(busy_ns(kill(), survivor.0, survivor.1), busy_ns(None, survivor.0, survivor.1));

    let sim = Sim::new();
    let w = two_nodes(&sim, DataMode::CostOnly);
    for lane in [w.devs.dev(1).d2h, w.devs.dev(1).h2d] {
        let plan = FaultPlan::new().degrade_link(lane, SimTime::ZERO, SimTime(u64::MAX), 500);
        w.refresh_health_from_plan(&plan);
        assert_eq!(w.health().rank_health(0), RankHealth::Healthy);
        assert_eq!(w.health().rank_health(1), RankHealth::Degraded { factor_milli: 500 });
    }
}

/// `body` as the only task, with rank 0's device holding `old`.
fn with_source(
    old: u8,
    body: impl FnOnce(&mut diomp_sim::Ctx, &Arc<FabricWorld>) + Send + 'static,
) {
    let mut sim = Sim::new();
    let w = two_nodes(&sim, DataMode::Functional);
    w.devs.dev(0).mem.write(0, &vec![old; LEN as usize]).unwrap();
    sim.spawn("t", move |ctx| body(ctx, &w));
    sim.run().unwrap();
}

#[test]
fn a_remote_source_is_read_when_its_nic_releases_it() {
    // `wire::carry` snapshots at the source link's release, `start +
    // bytes/bw`: what the owner writes before that instant is what the
    // reader receives, what it writes after is not.
    for (late, expect) in [(false, 2u8), (true, 1u8)] {
        with_source(1, move |ctx, w| {
            let seg = w.attach_device_segment(0, 0, 2 * LEN).unwrap();
            let (dst, t0) = (HostBuf::zeroed(LEN), ctx.now());
            let (ev, arrive) =
                gasnet::get_nb(ctx, w, 1, Loc::host(dst.clone(), 0), seg, 0, LEN).unwrap();
            // The payload left rank 0's NIC one link latency before it
            // arrived; it started a 1 MiB serialisation (≈ 42 µs) before.
            let net = &w.platform.net;
            let release = arrive.nanos() - (net.latency_us * 1e3) as u64;
            assert!(release > t0.nanos() + 40_000, "the read has a start and a release apart");
            let rewrite = if late { release + 1 } else { release - 1 };
            let dev0 = w.devs.dev(0).clone();
            ctx.handle().schedule_at(SimTime(rewrite), move |_| {
                dev0.mem.write(0, &vec![2; LEN as usize]).unwrap();
            });
            ctx.drain(&[ev], Wait::Block).unwrap();
            assert_eq!(dst.to_bytes(), vec![expect; LEN as usize], "rewritten late: {late}");
        });
    }
}

#[test]
fn the_timed_put_is_the_put_and_reads_a_later_source_later() {
    // Injected now, it is `put_nb` minus the software: same instants,
    // source read in the call.
    with_source(1, |ctx, w| {
        let seg = w.attach_device_segment(1, 1, 2 * LEN).unwrap();
        let (h, t0) = (ctx.handle().clone(), ctx.now());
        let (local, remote) =
            gasnet::put_nb_from(&h, w, 0, Loc::dev(0, 0), seg, 0, LEN, t0).unwrap();
        w.devs.dev(0).mem.write(0, &vec![2; LEN as usize]).unwrap();
        ctx.sleep_until(remote);
        let mut got = vec![0u8; LEN as usize];
        w.devs.dev(1).mem.read(0, &mut got).unwrap();
        assert_eq!(got, vec![1; LEN as usize], "ready now: the source is read in the call");

        let t1 = ctx.now();
        let hdl = gasnet::put_nb(ctx, w, 0, Loc::dev(0, 0), seg, LEN, LEN).unwrap();
        let overhead = gasnet::put_overhead(w);
        assert_eq!(ctx.now(), t1 + overhead, "the task form pays the software, then injects");
        ctx.drain(&[hdl.local], Wait::Block).unwrap();
        assert_eq!(ctx.now().since(t1), local.since(t0) + overhead);
        ctx.drain(&[hdl.remote], Wait::Block).unwrap();
        assert_eq!(ctx.now().since(t1), remote.since(t0) + overhead);
    });
    // Injected later, out of a buffer a reserved copy is still filling:
    // the NIC reads it when it releases it — after the fill, and before
    // whoever is told the slot is free at `local` refills it.
    with_source(1, |ctx, w| {
        let seg = w.attach_device_segment(1, 1, 2 * LEN).unwrap();
        let (h, slot) = (ctx.handle().clone(), HostBuf::zeroed(LEN));
        let ready = ctx.now() + Dur::micros(50.0);
        let fill = slot.clone();
        h.schedule_at(ready, move |_| fill.write(0, &vec![7; LEN as usize]));
        let (local, remote) =
            gasnet::put_nb_from(&h, w, 0, Loc::host(slot.clone(), 0), seg, 0, LEN, ready).unwrap();
        assert!(local > ready && remote > local);
        let refill = slot.clone();
        h.schedule_at(local, move |_| refill.write(0, &vec![9; LEN as usize]));
        ctx.sleep_until(remote);
        let mut got = vec![0u8; LEN as usize];
        w.devs.dev(1).mem.read(0, &mut got).unwrap();
        assert_eq!(got, vec![7; LEN as usize]);
    });
}
