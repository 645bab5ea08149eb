//! Engine-level integration tests for the reduction-server offload:
//! the emergent schedule completes, the membership semantics (client
//! ranks fold, server ranks pass through) hold on every engine of a
//! server-equipped communicator, dead servers degrade to the ring
//! without hanging, and the schedule actually wins its priced region on
//! the bench cluster layout.

use std::rc::Rc;
use std::sync::Arc;

use diomp_device::{DataMode, DeviceTable};
use diomp_fabric::{FabricWorld, ReduceOp};
use diomp_sim::{ClusterSpec, FaultPlan, PlatformSpec, Sim, SimTime, Topology};
use diomp_xccl::{
    AutoConfig, CollEngine, CommOpts, DeviceBuf, RingConfig, ServerSpec, UniqueId, XcclComm, XcclOp,
};
use std::sync::Mutex;

/// Boot a platform-A cluster of `nodes` full nodes.
fn boot(sim: &Sim, nodes: usize, mode: DataMode, heap: u64, plan: &FaultPlan) -> Rc<FabricWorld> {
    sim.set_fault_plan(plan.clone());
    let platform = PlatformSpec::platform_a();
    let gpn = platform.gpus_per_node;
    let spec = ClusterSpec { platform, nodes, gpus_per_node: gpn };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), mode, Some(heap));
    let world = FabricWorld::new(topo, devs, nodes * gpn);
    world.refresh_health_from_plan(plan);
    world
}

/// Run one allreduce on a server-equipped communicator (every rank,
/// servers included, participates) and assert the membership semantics:
/// client ranks receive the fold over *client* contributions only,
/// server buffers pass through untouched. Returns the virtual end time.
fn run_server_allreduce(
    engine: CollEngine,
    nodes: usize,
    server_nodes: usize,
    len: u64,
    plan: &FaultPlan,
    tag: &str,
) -> SimTime {
    let mut sim = Sim::new();
    let world = boot(&sim, nodes, DataMode::Functional, (4 * len).next_power_of_two(), plan);
    let gpn = world.platform.gpus_per_node;
    let nranks = nodes * gpn;
    let nclients = (nodes - server_nodes) * gpn;
    let id = UniqueId::generate();
    let results: Arc<Mutex<Vec<Vec<f64>>>> = Arc::new(Mutex::new(vec![Vec::new(); nranks]));
    for r in 0..nranks {
        let world = world.clone();
        let results = results.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            let bits = world.bootstrap.exchange(ctx, r, if r == 0 { id.bits() } else { 0 })[0];
            let comm = XcclComm::init(
                ctx,
                &world,
                (0..nranks).collect(),
                r,
                UniqueId::from_bits(bits),
                CommOpts { engine, servers: ServerSpec::tail(server_nodes), ..CommOpts::default() },
            );
            let dev = world.primary_dev(r);
            let off = dev.malloc(len, 256).unwrap();
            let vals: Vec<u8> = (0..len / 8)
                .flat_map(|i| (((r as u64 + 1) * (i % 13 + 1)) as f64).to_le_bytes())
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
            results.lock().unwrap()[r] =
                out.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect();
        });
    }
    let end = sim.run().unwrap().end_time;
    // Tail placement on node-major order: ranks on the first
    // `nodes - server_nodes` nodes are clients, the rest servers.
    let expect_client: Vec<f64> = (0..len / 8)
        .map(|i| (1..=nclients as u64).map(|r| (r * (i % 13 + 1)) as f64).sum())
        .collect();
    for (r, got) in results.lock().unwrap().iter().enumerate() {
        if r < nclients {
            assert_eq!(got, &expect_client, "{tag}: client rank {r} diverged from the reference");
        } else {
            let mine: Vec<f64> =
                (0..len / 8).map(|i| ((r as u64 + 1) * (i % 13 + 1)) as f64).collect();
            assert_eq!(got, &mine, "{tag}: server rank {r} buffer must pass through untouched");
        }
    }
    end
}

/// Virtual end time of one `len`-byte allreduce on a server-equipped
/// cluster in CostOnly mode (timing only, no data). Comm init cost is
/// identical across engines, so end-time comparisons compare the
/// collectives.
fn timed_allreduce(engine: CollEngine, nodes: usize, server_nodes: usize, len: u64) -> SimTime {
    let mut sim = Sim::new();
    let world = boot(&sim, nodes, DataMode::CostOnly, 1 << 20, &FaultPlan::new());
    let gpn = world.platform.gpus_per_node;
    let nranks = nodes * gpn;
    let id = UniqueId::generate();
    for r in 0..nranks {
        let world = world.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            let bits = world.bootstrap.exchange(ctx, r, if r == 0 { id.bits() } else { 0 })[0];
            let comm = XcclComm::init(
                ctx,
                &world,
                (0..nranks).collect(),
                r,
                UniqueId::from_bits(bits),
                CommOpts { engine, servers: ServerSpec::tail(server_nodes), ..CommOpts::default() },
            );
            let dev = world.primary_dev(r);
            let off = dev.malloc(64, 256).unwrap();
            comm.collective(
                ctx,
                r,
                vec![DeviceBuf { flat: r, off }],
                XcclOp::AllReduce { op: ReduceOp::SumF64 },
                len,
            );
        });
    }
    sim.run().unwrap().end_time
}

fn engines() -> Vec<CollEngine> {
    let p = PlatformSpec::platform_a();
    vec![
        CollEngine::Ring(RingConfig::default()),
        CollEngine::Dbt(RingConfig::default()),
        CollEngine::ReductionServer(RingConfig::default()),
        CollEngine::Auto(AutoConfig::for_platform(&p)),
    ]
}

#[test]
fn every_engine_honours_membership_semantics_on_a_server_comm() {
    // The client-only fold is a property of the communicator, not of
    // the engine that runs: all five engines on a 2-client + 1-server
    // node comm produce the same client bytes and leave server buffers
    // untouched.
    for engine in engines() {
        run_server_allreduce(engine, 3, 1, 256 << 10, &FaultPlan::new(), &format!("{engine:?}"));
    }
}

#[test]
fn server_schedule_is_deterministic() {
    let engine = CollEngine::ReductionServer(RingConfig::default());
    let a = run_server_allreduce(engine, 3, 1, 512 << 10, &FaultPlan::new(), "replay A");
    let b = run_server_allreduce(engine, 3, 1, 512 << 10, &FaultPlan::new(), "replay B");
    assert_eq!(a, b, "same input must replay the same virtual-time trace");
}

#[test]
fn dead_servers_fall_back_to_the_ring_and_never_hang() {
    // Kill every server-node NIC: the live server set comes up empty,
    // the engine degrades to the ring schedule over the full rails, the
    // run completes, and the membership semantics still hold (the
    // client-only fold is membership, not schedule).
    let probe = Sim::new();
    let world = boot(&probe, 3, DataMode::CostOnly, 1 << 20, &FaultPlan::new());
    let gpn = world.platform.gpus_per_node;
    let mut plan = FaultPlan::new();
    for f in 2 * gpn..3 * gpn {
        plan = plan.kill_link(world.devs.dev(f).nic);
    }
    drop(probe);
    let engine = CollEngine::ReductionServer(RingConfig::default());
    run_server_allreduce(engine, 3, 1, 256 << 10, &plan, "all servers dead");
}

#[test]
fn one_dead_server_nic_restripes_over_the_survivors() {
    // Kill a single server device's NIC: the stripes re-split over the
    // remaining live servers; completion and semantics are unaffected.
    let probe = Sim::new();
    let world = boot(&probe, 3, DataMode::CostOnly, 1 << 20, &FaultPlan::new());
    let gpn = world.platform.gpus_per_node;
    let dead = world.devs.dev(2 * gpn).nic;
    drop(probe);
    let plan = FaultPlan::new().kill_link(dead);
    let engine = CollEngine::ReductionServer(RingConfig::default());
    run_server_allreduce(engine, 3, 1, 256 << 10, &plan, "one server NIC dead");
}

#[test]
fn servers_win_their_priced_region_on_the_bench_layout() {
    // The bench cluster: 8 client + 8 server platform-A nodes. At
    // 16 MiB the clients are injection-bound on the ring (every NIC
    // moves ≈2× the payload share) and the emergent server schedule
    // must beat both the ring and the DBT outright.
    let len = 16 << 20;
    let ring = timed_allreduce(CollEngine::Ring(RingConfig::default()), 16, 8, len);
    let dbt = timed_allreduce(CollEngine::Dbt(RingConfig::default()), 16, 8, len);
    let rsv = timed_allreduce(CollEngine::ReductionServer(RingConfig::default()), 16, 8, len);
    assert!(
        rsv < ring.min(dbt),
        "reduction server must win at 16 MiB on the 8+8 layout: rsv={rsv:?} ring={ring:?} dbt={dbt:?}"
    );
}
