//! Chaos harness: randomized deterministic fault plans replayed against
//! every collective engine.
//!
//! The properties asserted here are the tentpole's acceptance criteria
//! at the collective layer:
//!
//! * **Completion** — a collective under any sampled fault plan still
//!   terminates (the injector may slow, stall, flap and straggle, but
//!   never wedge the schedule).
//! * **Byte-identity** — the data semantics are unchanged by faults: the
//!   result equals the sequential reference regardless of how the
//!   schedule was perturbed (payloads are integer-valued f64 so every
//!   association order is bit-exact).
//! * **Determinism** — the same seed replays the same virtual-time trace
//!   bit-for-bit (the CI chaos step diffs two runs).
//! * **Zero cost when disabled** — an empty plan, or an armed plan whose
//!   windows never match, leaves the virtual-time trace bit-identical to
//!   a clean run.
//! * **Degradation awareness** — dead links blacklist rails at init, and
//!   a degraded fabric moves the Auto dispatcher's priced regime
//!   boundaries toward the ring.
//! * **O(1) parks** — under armed contention the explicit driver posts
//!   its chunks to one completion queue: no event per chunk in flight.

use std::rc::Rc;
use std::sync::Arc;

use diomp_device::{DataMode, DeviceTable};
use diomp_fabric::{FabricWorld, ReduceOp};
use diomp_sim::{ClusterSpec, Dur, FaultPlan, PlatformSpec, ResourceId, Sim, SimTime, Topology};
use diomp_xccl::{
    AutoConfig, CollEngine, CommOpts, DeviceBuf, RingConfig, ServerSpec, UniqueId, XcclComm, XcclOp,
};
use std::sync::Mutex;

const NODES: usize = 2;
const PER_NODE: usize = 4;
const NRANKS: usize = NODES * PER_NODE;

fn boot(sim: &Sim, plan: &FaultPlan) -> Rc<FabricWorld> {
    sim.set_fault_plan(plan.clone());
    let spec =
        ClusterSpec { platform: PlatformSpec::platform_a(), nodes: NODES, gpus_per_node: PER_NODE };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::Functional, Some(8 << 20));
    let world = FabricWorld::new(topo, devs, NRANKS);
    // Attach the simulator so the health vector derives live from the
    // installed plan (what the runtime does): faults armed after build
    // are visible too, and rank-kill windows reach the kernel.
    world.attach_sim(&sim.handle());
    world.refresh_health_from_plan(plan);
    world
}

/// Every link resource a fault plan can plausibly touch: each device's
/// NIC and GPU-fabric port.
fn all_links(world: &FabricWorld) -> Vec<ResourceId> {
    (0..world.devs.len())
        .flat_map(|f| {
            let d = world.devs.dev(f);
            [d.nic, d.port]
        })
        .collect()
}

/// The engines under test. `Auto` covers the LL/tree and DBT bands too
/// once payload sizes span its regime boundaries. `ReductionServer` on
/// this server-free comm exercises its ring-fallback path; the offload
/// schedule itself is chaos-tested on the server comm below.
fn engines() -> Vec<CollEngine> {
    let p = PlatformSpec::platform_a();
    vec![
        CollEngine::Profile,
        CollEngine::Ring(RingConfig::default()),
        CollEngine::Dbt(RingConfig::default()),
        CollEngine::ReductionServer(RingConfig::default()),
        CollEngine::Auto(AutoConfig::for_platform(&p)),
    ]
}

/// Run one allreduce of `len` bytes under `plan` with `engine`; every
/// rank contributes integer-valued f64s. Returns the end-of-sim virtual
/// time beside the run digest and asserts byte-identity with the
/// sequential reference on every rank.
fn run_allreduce(engine: CollEngine, plan: &FaultPlan, len: u64, tag: &str) -> (SimTime, u64) {
    run_allreduce_contended(engine, plan, len, tag, false)
}

/// Same as [`run_allreduce`], but optionally with the per-link weighted
/// fair queue armed — with a single tenant the WFQ must collapse to the
/// serial closed form, so chaos traces replay to the same end time.
fn run_allreduce_contended(
    engine: CollEngine,
    plan: &FaultPlan,
    len: u64,
    tag: &str,
    armed: bool,
) -> (SimTime, u64) {
    let mut sim = Sim::new();
    if armed {
        sim.enable_contention();
    }
    let world = boot(&sim, plan);
    let id = UniqueId::generate();
    let results: Arc<Mutex<Vec<Vec<f64>>>> = Arc::new(Mutex::new(vec![Vec::new(); NRANKS]));
    for r in 0..NRANKS {
        let world = world.clone();
        let results = results.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            let bits = world.bootstrap.exchange(ctx, r, if r == 0 { id.bits() } else { 0 })[0];
            let comm = XcclComm::init(
                ctx,
                &world,
                (0..NRANKS).collect(),
                r,
                UniqueId::from_bits(bits),
                CommOpts { engine, ..CommOpts::default() },
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
    let rep = sim.run().unwrap();
    // Sequential reference: element-wise exact integer sums, identical
    // under every association order the engines produce.
    let expect: Vec<f64> = (0..len / 8)
        .map(|i| (1..=NRANKS as u64).map(|r| (r * (i % 13 + 1)) as f64).sum())
        .collect();
    for (r, got) in results.lock().unwrap().iter().enumerate() {
        assert_eq!(got, &expect, "{tag}: rank {r} diverged from the sequential reference");
    }
    (rep.end_time, rep.digest)
}

/// Chaos runner for the reduction-server offload: the same 2-node world
/// carved into one client node and one server node (`ServerSpec::tail`).
/// Asserts the server-comm membership semantics under the plan — client
/// ranks receive the fold over *client* contributions only, server
/// buffers pass through untouched — and returns the virtual end time
/// beside the run digest.
fn run_server_allreduce(
    engine: CollEngine,
    plan: &FaultPlan,
    len: u64,
    tag: &str,
    armed: bool,
) -> (SimTime, u64) {
    let mut sim = Sim::new();
    if armed {
        sim.enable_contention();
    }
    let world = boot(&sim, plan);
    let id = UniqueId::generate();
    let results: Arc<Mutex<Vec<Vec<f64>>>> = Arc::new(Mutex::new(vec![Vec::new(); NRANKS]));
    for r in 0..NRANKS {
        let world = world.clone();
        let results = results.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            let bits = world.bootstrap.exchange(ctx, r, if r == 0 { id.bits() } else { 0 })[0];
            let comm = XcclComm::init(
                ctx,
                &world,
                (0..NRANKS).collect(),
                r,
                UniqueId::from_bits(bits),
                CommOpts { engine, servers: ServerSpec::tail(1), ..CommOpts::default() },
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
    let rep = sim.run().unwrap();
    // Tail placement on the node-major order: the first node's ranks are
    // clients, the second node's are servers.
    let nclients = PER_NODE;
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
    (rep.end_time, rep.digest)
}

#[test]
fn randomized_fault_plans_complete_byte_identical_on_every_engine() {
    // Fixed seeds — the plans (and therefore the whole run) are
    // reproducible; a failure names its (seed, engine) cell.
    let probe = Sim::new();
    let world = boot(&probe, &FaultPlan::new());
    let links = all_links(&world);
    drop(probe);
    let prefixes = vec!["rank2".to_string(), "rank5".to_string()];
    for seed in [11u64, 29, 43] {
        let plan = FaultPlan::randomized(seed, &links, &prefixes, Dur::millis(5.0));
        for engine in engines() {
            run_allreduce(engine, &plan, 256 << 10, &format!("seed {seed} {engine:?}"));
        }
    }
}

#[test]
fn same_seed_replays_the_same_trace() {
    // Two-run determinism: the property the CI chaos step enforces.
    let probe = Sim::new();
    let world = boot(&probe, &FaultPlan::new());
    let links = all_links(&world);
    drop(probe);
    let plan = FaultPlan::randomized(7, &links, &["rank3".to_string()], Dur::millis(5.0));
    let engine = CollEngine::Auto(AutoConfig::for_platform(&PlatformSpec::platform_a()));
    let a = run_allreduce(engine, &plan, 512 << 10, "determinism run A");
    let b = run_allreduce(engine, &plan, 512 << 10, "determinism run B");
    assert_eq!(a, b, "same seed must replay the same end time and digest");
}

#[test]
fn randomized_fault_plans_complete_byte_identical_on_the_server_comm() {
    // The offload schedule under chaos: randomized plans perturb the
    // upload, reduce and fan-back lanes (straggler prefixes name both a
    // client and a server rank) but the run still terminates and the
    // client-only fold stays bit-exact on every rank.
    let probe = Sim::new();
    let world = boot(&probe, &FaultPlan::new());
    let links = all_links(&world);
    drop(probe);
    let prefixes = vec!["rank2".to_string(), "rank5".to_string()];
    let engine = CollEngine::ReductionServer(RingConfig::default());
    for seed in [11u64, 29, 43] {
        let plan = FaultPlan::randomized(seed, &links, &prefixes, Dur::millis(5.0));
        run_server_allreduce(engine, &plan, 256 << 10, &format!("server seed {seed}"), false);
    }
}

#[test]
fn same_seed_replays_the_same_server_trace() {
    // Two-run determinism for the offload schedule under a faulted plan.
    let probe = Sim::new();
    let world = boot(&probe, &FaultPlan::new());
    let links = all_links(&world);
    drop(probe);
    let plan = FaultPlan::randomized(7, &links, &["rank6".to_string()], Dur::millis(5.0));
    let engine = CollEngine::ReductionServer(RingConfig::default());
    let a = run_server_allreduce(engine, &plan, 512 << 10, "server determinism A", false);
    let b = run_server_allreduce(engine, &plan, 512 << 10, "server determinism B", false);
    assert_eq!(a, b, "same seed must replay the same server-offload end time and digest");
}

#[test]
fn dead_servers_degrade_the_offload_to_the_ring_under_chaos() {
    // Kill every server-node NIC *and* run a randomized plan on top: the
    // live server set comes up empty, the engine falls back to the ring
    // over the client rails, and completion + membership semantics hold.
    let probe = Sim::new();
    let world = boot(&probe, &FaultPlan::new());
    let links = all_links(&world);
    let mut plan = FaultPlan::randomized(23, &links, &["rank1".to_string()], Dur::millis(5.0));
    for f in PER_NODE..NRANKS {
        plan = plan.kill_link(world.devs.dev(f).nic);
    }
    drop(probe);
    let engine = CollEngine::ReductionServer(RingConfig::default());
    run_server_allreduce(engine, &plan, 256 << 10, "all servers dead under chaos", false);
}

#[test]
fn single_tenant_server_comm_replays_contended_traces() {
    // The flow-partition invariant under chaos: client and server flows
    // never share a link, so arming the per-link WFQ on a single-tenant
    // server comm must not move the end time — clean or faulted. (The
    // armed queue pops a different entry sequence, so the digests differ.)
    let probe = Sim::new();
    let world = boot(&probe, &FaultPlan::new());
    let links = all_links(&world);
    drop(probe);
    let faulted = FaultPlan::randomized(19, &links, &["rank6".to_string()], Dur::millis(5.0));
    let engine = CollEngine::ReductionServer(RingConfig::default());
    for plan in [FaultPlan::new(), faulted] {
        let tag = format!("server single-tenant replay faulted={}", !plan.is_empty());
        let disarmed = run_server_allreduce(engine, &plan, 256 << 10, &tag, false).0;
        let armed = run_server_allreduce(engine, &plan, 256 << 10, &tag, true).0;
        assert_eq!(disarmed, armed, "{tag}: arming contention moved the single-tenant trace");
    }
}

#[test]
fn single_tenant_contention_replays_chaos_traces() {
    // A single job on a contention-capable sim replays the chaos traces
    // unchanged: disarmed, `transfer_qos` is call-for-call the legacy
    // path; armed, a lone backlogged flow owns the full link share and
    // the weighted fair queue collapses to the same closed form. Both
    // runs must land on the same virtual end time for every engine,
    // clean and under a randomized fault plan. End time only: the armed
    // queue pops a different entry sequence, so the digests differ.
    let probe = Sim::new();
    let world = boot(&probe, &FaultPlan::new());
    let links = all_links(&world);
    drop(probe);
    let faulted = FaultPlan::randomized(19, &links, &["rank6".to_string()], Dur::millis(5.0));
    for plan in [FaultPlan::new(), faulted] {
        for engine in engines() {
            let tag = format!("single-tenant replay {engine:?} faulted={}", !plan.is_empty());
            let disarmed = run_allreduce_contended(engine, &plan, 256 << 10, &tag, false).0;
            let armed = run_allreduce_contended(engine, &plan, 256 << 10, &tag, true).0;
            assert_eq!(
                disarmed, armed,
                "{tag}: arming contention moved a single-tenant chaos trace"
            );
        }
    }
}

#[test]
fn disabled_injection_leaves_the_trace_bit_identical() {
    // Zero cost when disabled, at the trace level: no plan, an empty
    // plan, and an armed plan whose windows open only after the run all
    // produce the same end time and digest.
    let engine = CollEngine::Ring(RingConfig::default());
    let clean = run_allreduce(engine, &FaultPlan::new(), 256 << 10, "clean");

    // A non-empty plan that never matches: windows parked a virtual hour
    // out, and a straggler prefix no task name carries.
    let probe = Sim::new();
    let world = boot(&probe, &FaultPlan::new());
    let links = all_links(&world);
    drop(probe);
    let hour = SimTime(3_600_000_000_000);
    let mut armed = FaultPlan::new().straggle("no-such-task", 2000);
    for &l in &links {
        armed = armed.degrade_link(l, hour, SimTime(hour.0 + 1), 500);
    }
    let idle = run_allreduce(engine, &armed, 256 << 10, "armed-but-unmatched");
    assert_eq!(clean, idle, "an armed injector that never fires must not move virtual time");
}

#[test]
fn dead_link_blacklists_its_rails_and_the_collective_survives() {
    // Kill one device's NIC: every rail whose ring crosses the node
    // boundary on that NIC is blacklisted at init; the payload re-splits
    // over the survivors and the result stays byte-identical.
    let probe = Sim::new();
    let world = boot(&probe, &FaultPlan::new());
    let dead_nic = world.devs.dev(1).nic;
    drop(probe);
    let plan = FaultPlan::new().kill_link(dead_nic);

    let mut sim = Sim::new();
    let world = boot(&sim, &plan);
    let id = UniqueId::generate();
    let nrings = Arc::new(Mutex::new(0usize));
    let nrings2 = nrings.clone();
    for r in 0..NRANKS {
        let world = world.clone();
        let nrings2 = nrings2.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            let bits = world.bootstrap.exchange(ctx, r, if r == 0 { id.bits() } else { 0 })[0];
            let comm = XcclComm::init(
                ctx,
                &world,
                (0..NRANKS).collect(),
                r,
                UniqueId::from_bits(bits),
                CommOpts::default(),
            );
            if r == 0 {
                *nrings2.lock().unwrap() = comm.ring.nrings;
            }
            let dev = world.primary_dev(r);
            let off = dev.malloc(64, 256).unwrap();
            let vals: Vec<u8> =
                std::iter::repeat_n(((r + 1) as f64).to_le_bytes(), 8).flatten().collect();
            dev.mem.write(off, &vals).unwrap();
            comm.collective(
                ctx,
                r,
                vec![DeviceBuf { flat: r, off }],
                XcclOp::AllReduce { op: ReduceOp::SumF64 },
                64,
            );
            let mut out = vec![0u8; 64];
            dev.mem.read(off, &mut out).unwrap();
            let want = (1..=NRANKS).sum::<usize>() as f64;
            for c in out.chunks_exact(8) {
                assert_eq!(f64::from_le_bytes(c.try_into().unwrap()), want, "rank {r}");
            }
        });
    }
    sim.run().unwrap();
    let survived = *nrings.lock().unwrap();
    assert!(
        (1..PER_NODE).contains(&survived),
        "killing one NIC must blacklist its rails but keep at least one: {survived} of {PER_NODE}"
    );
}

#[test]
fn every_rail_dead_keeps_the_full_layout() {
    // With all NICs condemned there is nothing better to retreat to: the
    // blacklist must keep the full rail set rather than collapse to an
    // empty communicator, and the run still completes (dead links replay
    // 1000× slow, never hang).
    let probe = Sim::new();
    let world = boot(&probe, &FaultPlan::new());
    let mut plan = FaultPlan::new();
    for f in 0..world.devs.len() {
        plan = plan.kill_link(world.devs.dev(f).nic);
    }
    drop(probe);

    let mut sim = Sim::new();
    let world = boot(&sim, &plan);
    let id = UniqueId::generate();
    for r in 0..NRANKS {
        let world = world.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            let bits = world.bootstrap.exchange(ctx, r, if r == 0 { id.bits() } else { 0 })[0];
            let comm = XcclComm::init(
                ctx,
                &world,
                (0..NRANKS).collect(),
                r,
                UniqueId::from_bits(bits),
                CommOpts::default(),
            );
            assert_eq!(comm.ring.nrings, PER_NODE, "nothing to retreat to: keep every rail");
            let dev = world.primary_dev(r);
            let off = dev.malloc(64, 256).unwrap();
            comm.collective(
                ctx,
                r,
                vec![DeviceBuf { flat: r, off }],
                XcclOp::AllReduce { op: ReduceOp::SumF64 },
                64,
            );
        });
    }
    sim.run().unwrap();
}

/// Auto's allreduce cuts on the chaos world, with `plan` armed before
/// the world is built or, `late`, after it. Auto runs on 256-byte rings:
/// on the table-tuned ones the tree undercuts LL and the ring at every
/// size on two nodes, healthy or not, so no cut could move.
fn allreduce_cuts(plan: FaultPlan, late: bool) -> (u64, u64, u64) {
    let mut sim = Sim::new();
    let healthy = FaultPlan::new();
    let world = boot(&sim, if late { &healthy } else { &plan });
    if late {
        sim.set_fault_plan(plan);
    }
    let (id, out) = (UniqueId::generate(), Arc::new(Mutex::new(None)));
    for r in 0..NRANKS {
        let (world, out) = (world.clone(), out.clone());
        sim.spawn(format!("rank{r}"), move |ctx| {
            let tuned = AutoConfig::for_platform(&PlatformSpec::platform_a());
            let tiny = RingConfig { chunk_bytes: 256, max_inflight: 2 };
            let engine =
                CollEngine::Auto(AutoConfig { ring_bcast: tiny, ring_allred: tiny, ..tuned });
            let opts = CommOpts { engine, ..CommOpts::default() };
            let comm = XcclComm::init(ctx, &world, (0..NRANKS).collect(), r, id, opts);
            if r == 0 {
                *out.lock().unwrap() =
                    comm.auto_regimes(&XcclOp::AllReduce { op: ReduceOp::SumF32 });
            }
        });
    }
    sim.run().unwrap();
    let cuts = out.lock().unwrap().expect("Auto engine has regimes");
    cuts
}

/// Every NIC of the chaos world at 5 % of nominal bandwidth, for good.
fn slow_nics() -> FaultPlan {
    let probe = Sim::new();
    let world = boot(&probe, &FaultPlan::new());
    (0..world.devs.len()).fold(FaultPlan::new(), |plan, f| {
        plan.degrade_link(world.devs.dev(f).nic, SimTime::ZERO, SimTime(u64::MAX), 50)
    })
}

#[test]
fn degraded_fabric_moves_auto_regimes_toward_the_ring() {
    // Re-pricing: a fabric degraded to 5 % of nominal NIC bandwidth
    // reprices every schedule. LL's fused hops carry the whole payload,
    // so on the slow wire its band closes; the tree takes it, and the
    // allreduce's ring band starts above 128 KiB instead of 256 KiB.
    assert_eq!(allreduce_cuts(FaultPlan::new(), false), (256 << 10, 256 << 10, 0));
    assert_eq!(allreduce_cuts(slow_nics(), false), (0, 128 << 10, 0));
}

#[test]
fn faults_armed_after_build_still_reprice_auto_regimes() {
    // The stale-health regression: `gaspi_state_vec` derives *live*
    // from whichever plan is installed when it is read, not from a
    // build-time snapshot — so a degradation armed after the world is
    // built must move the Auto dispatcher's priced cuts exactly like
    // one armed before it.
    let late = allreduce_cuts(slow_nics(), true);
    assert_eq!(late, allreduce_cuts(slow_nics(), false));
    assert_ne!(late, allreduce_cuts(FaultPlan::new(), true));
}

/// Slot-recycling regression for the elastic path: every
/// [`XcclComm::shrink`] releases the dying communicator's QoS flow
/// slots before the survivor re-init, so repeated shrink / re-init
/// cycles must hold the kernel's flow table at a constant size instead
/// of leaking a slot pair per retry (the pre-slab behaviour). The
/// process-global communicator registry must let go too: once every
/// survivor has shrunk away from a communicator its plan and gate are
/// dead, and after the run none of the three is left. (Checked by id,
/// not by registry size: the tests of this binary share the registry
/// and run concurrently.)
#[test]
fn repeated_shrink_cycles_recycle_flow_slots() {
    const KILLS: [usize; 2] = [7, 6]; // one node-1 casualty per cycle
    let mut sim = Sim::new();
    let world = boot(&sim, &FaultPlan::new());
    let id = UniqueId::generate();
    let handle = sim.handle();
    // Flow-table watermark recorded by rank 0 after the initial
    // collective and after each shrink cycle's collective (collectives
    // synchronise, so every survivor has re-inited by then).
    let marks: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    // Every communicator id rank 0 held, in order.
    let ids: Arc<Mutex<Vec<UniqueId>>> = Arc::new(Mutex::new(Vec::new()));
    for r in 0..NRANKS {
        let world = world.clone();
        let marks = marks.clone();
        let ids = ids.clone();
        let handle = handle.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            let bits = world.bootstrap.exchange(ctx, r, if r == 0 { id.bits() } else { 0 })[0];
            let mut comm = XcclComm::init(
                ctx,
                &world,
                (0..NRANKS).collect(),
                r,
                UniqueId::from_bits(bits),
                CommOpts {
                    engine: CollEngine::Ring(RingConfig::default()),
                    servers: ServerSpec::tail(1),
                    ..CommOpts::default()
                },
            );
            let dev = world.primary_dev(r);
            let off = dev.malloc(4096, 256).unwrap();
            let vals: Vec<u8> =
                (0..512u64).flat_map(|i| ((r as u64 + i) as f64).to_le_bytes()).collect();
            dev.mem.write(off, &vals).unwrap();
            let op = XcclOp::AllReduce { op: ReduceOp::SumF64 };
            comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, 4096);
            if r == 0 {
                marks.lock().unwrap().push(handle.flows_in_use());
                ids.lock().unwrap().push(comm.id);
            }
            let mut health = diomp_fabric::HealthVec::healthy(NRANKS);
            for &k in &KILLS {
                health.observe(k, 0);
                if r == k {
                    // The casualty leaves without releasing its slots —
                    // a dead process frees nothing; the watermark still
                    // must not grow.
                    return;
                }
                comm = comm.shrink(ctx, &health, r);
                comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, 4096);
                if r == 0 {
                    marks.lock().unwrap().push(handle.flows_in_use());
                    // The collective synchronised the survivors, so all
                    // of them have left the previous communicator.
                    let mut ids = ids.lock().unwrap();
                    let old = *ids.last().unwrap();
                    assert!(!XcclComm::is_live(old), "shrink leaked the communicator it replaced");
                    assert!(XcclComm::is_live(comm.id));
                    ids.push(comm.id);
                }
            }
        });
    }
    sim.run().unwrap();
    let marks = marks.lock().unwrap();
    assert_eq!(marks.len(), KILLS.len() + 1, "rank 0 must survive every cycle");
    let f0 = marks[0];
    for (c, &f) in marks.iter().enumerate().skip(1) {
        assert_eq!(
            f, f0,
            "shrink cycle {c} changed the flow-table watermark: {f} vs {f0} slots in use \
             (survivor re-init must reuse the slots shrink released)"
        );
    }
    let ids = ids.lock().unwrap();
    assert_eq!(ids.len(), KILLS.len() + 1);
    for id in ids.iter() {
        assert!(!XcclComm::is_live(*id), "communicator {id:?} outlived every member");
    }
}

#[test]
fn the_explicit_driver_holds_no_event_per_chunk_in_flight() {
    // Armed contention forces the explicit driver. Right before its
    // collective, rank 0 starts a probe that samples every microsecond,
    // until the last rank returns, the chunks queued on the armed links.
    // Chunks post to one completion queue, and the kernel has no
    // per-completion object left to count: the probe shows the march
    // had many chunks in flight at once.
    let mut sim = Sim::new();
    sim.enable_contention();
    let world = boot(&sim, &FaultPlan::new());
    let links = all_links(&world);
    let id = UniqueId::generate();
    let len = 4 << 20;
    let samples: Arc<Mutex<Vec<usize>>> = Arc::default();
    let running = Arc::new(std::sync::atomic::AtomicUsize::new(NRANKS));
    for r in 0..NRANKS {
        let (world, links, samples, running) =
            (world.clone(), links.clone(), samples.clone(), running.clone());
        sim.spawn(format!("rank{r}"), move |ctx| {
            let bits = world.bootstrap.exchange(ctx, r, if r == 0 { id.bits() } else { 0 })[0];
            let engine = CollEngine::Ring(RingConfig::default());
            let opts = CommOpts { engine, ..CommOpts::default() };
            let comm = XcclComm::init(
                ctx,
                &world,
                (0..NRANKS).collect(),
                r,
                UniqueId::from_bits(bits),
                opts,
            );
            let off = world.primary_dev(r).malloc(len, 256).unwrap();
            if r == 0 {
                let (samples, running) = (samples.clone(), running.clone());
                ctx.handle().spawn("probe", move |ctx| {
                    while running.load(std::sync::atomic::Ordering::Relaxed) > 0 {
                        let backlog = links.iter().map(|&l| ctx.link_backlog(l)).sum();
                        samples.lock().unwrap().push(backlog);
                        ctx.delay(Dur::micros(1.0));
                    }
                });
            }
            let op = XcclOp::AllReduce { op: ReduceOp::SumF64 };
            comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, len);
            running.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
        });
    }
    sim.run().unwrap();
    let samples = samples.lock().unwrap();
    let max_backlog = samples.iter().copied().max().unwrap();
    assert!(max_backlog >= 16, "the probe saw the march: {max_backlog} chunks queued at most");
}
