//! The control lane beside each bulk FIFO: requests, acknowledgements
//! and RTS/CTS neither wait for nor delay payload on the same link, but
//! a fault window hits them like any other packet.

use std::rc::Rc;
use std::sync::Arc;

use diomp_device::{DataMode, DeviceTable};
use diomp_fabric::path::{control_msg, raw_path, End};
use diomp_fabric::{gasnet, FabricWorld, Loc};
use diomp_sim::{ClusterSpec, Dur, FaultPlan, PlatformSpec, ResourceId, Sim, SimTime, Topology};
use std::sync::Mutex;

const LEN: u64 = 16 << 20;

/// Two single-GPU platform-A nodes, cost-only, one rank each.
fn two_nodes(sim: &Sim) -> Rc<FabricWorld> {
    let spec = ClusterSpec { platform: PlatformSpec::platform_a(), nodes: 2, gpus_per_node: 1 };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, Some(4 * LEN));
    FabricWorld::new(topo, devs, 2)
}

/// Time each of `ranks` takes to `get` 16 MiB from the other rank, all
/// issued at the same instant.
fn get_times(ranks: &[usize]) -> Vec<Dur> {
    let mut sim = Sim::new();
    let world = two_nodes(&sim);
    let segs = [0, 1].map(|r| world.attach_device_segment(r, r, 2 * LEN).unwrap());
    let out = Arc::new(Mutex::new(Vec::new()));
    for &r in ranks {
        let (w, out) = (world.clone(), out.clone());
        sim.spawn(format!("rank{r}"), move |ctx| {
            gasnet::get_blocking(ctx, &w, r, Loc::dev(r, LEN), segs[1 - r], 0, LEN).unwrap();
            out.lock().unwrap().push(ctx.now().since(SimTime::ZERO));
        });
    }
    sim.run().unwrap();
    let times = out.lock().unwrap().clone();
    times
}

#[test]
fn opposed_gets_take_one_wire_time_not_two() {
    let solo = get_times(&[0])[0];
    assert!(solo > Dur::micros(600.0), "16 MiB at 25 GB/s is ~670 µs, got {solo}");
    for t in get_times(&[0, 1]) {
        assert!(t <= solo + Dur::micros(10.0), "opposed get took {t}, a solo one {solo}");
    }
}

/// Arrival of a control message and of a 64-byte payload, each 0 → 1 on
/// an otherwise idle link and issued at `at`, under `plan`.
fn idle_arrivals(plan: impl Fn(ResourceId) -> FaultPlan, at: SimTime) -> (SimTime, SimTime) {
    let arrival = |control: bool| {
        let mut sim = Sim::new();
        let world = two_nodes(&sim);
        sim.set_fault_plan(plan(world.devs.dev(0).nic));
        let out = Arc::new(Mutex::new(SimTime::ZERO));
        let out2 = out.clone();
        sim.spawn("rank0", move |ctx| {
            ctx.sleep_until(at);
            let (h, devs, ends) = (ctx.handle(), &world.devs, (End::Dev(0), End::Dev(1)));
            *out2.lock().unwrap() = if control {
                control_msg(h, devs, ends.0, ends.1, at)
            } else {
                raw_path(h, devs, ends.0, ends.1, at, 64, 1.0).arrive
            };
        });
        sim.run().unwrap();
        let t = *out.lock().unwrap();
        t
    };
    (arrival(true), arrival(false))
}

#[test]
fn request_is_not_queued_behind_the_initiators_own_stream() {
    let mut sim = Sim::new();
    let world = two_nodes(&sim);
    let seg = world.attach_device_segment(1, 1, 2 * LEN).unwrap();
    let latency = Dur::micros(world.platform.net.latency_us);
    sim.spawn("rank0", move |ctx| {
        // Rank 0's NIC is busy streaming 16 MiB to rank 1 ...
        gasnet::put_nb(ctx, &world, 0, Loc::dev(0, 0), seg, 0, LEN).unwrap();
        let nic = world.devs.dev(0).nic;
        let busy_until = ctx.handle().resource_free_at(nic);
        assert!(busy_until > ctx.now() + Dur::micros(600.0));
        // ... and a request it sends meanwhile still arrives one latency
        // and 64 B / 25 GB/s later, leaving the bulk FIFO where it was.
        let t = control_msg(ctx.handle(), &world.devs, End::Dev(0), End::Dev(1), ctx.now());
        assert!(t <= ctx.now() + latency + Dur::nanos(3), "request arrived at {t}");
        assert_eq!(ctx.handle().resource_free_at(nic), busy_until);
    });
    sim.run().unwrap();
}

#[test]
fn fault_windows_delay_a_control_message_exactly_as_a_payload() {
    let (from, until) = (SimTime(1_000), SimTime(50_000));
    let clean = idle_arrivals(|_| FaultPlan::new(), from);
    assert_eq!(clean.0, clean.1, "64 B on an idle link: lane and FIFO agree");

    let stall =
        idle_arrivals(|nic| FaultPlan::new().stall_nic(nic, from, until, Dur::micros(7.0)), from);
    assert_eq!(stall.0, clean.0 + Dur::micros(7.0), "a stalled NIC adds its latency to the lane");
    assert_eq!(stall.0, stall.1);

    let flap = idle_arrivals(|nic| FaultPlan::new().flap_link(nic, from, until), from);
    assert_eq!(
        flap.0,
        clean.0 + until.since(from),
        "a flapping link holds the lane until it is back"
    );
    assert_eq!(flap.0, flap.1);

    let slow = idle_arrivals(|nic| FaultPlan::new().degrade_link(nic, from, until, 10), from);
    assert!(slow.0 > clean.0, "a degraded link stretches the packet's serialisation");
    assert_eq!(slow.0, slow.1);
}
