//! Back-to-back collectives on one communicator, each starting on idle
//! links: what every call leaves behind — its end instant, every member
//! link's `free_at` and bytes, every flow's statistics — and the run's
//! entry count and digest, pinned cell by cell.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use diomp_device::{DataMode, DeviceTable};
use diomp_fabric::{FabricWorld, ReduceOp};
use diomp_sim::{derive_seed, ClusterSpec, PlatformSpec, ResourceId, Sim, SimHandle, Topology};
use diomp_sim::{Dur, FaultPlan, SimTime};

use crate::drive::MARCHED;
use crate::{
    default_nrings, AutoConfig, CollEngine, CommOpts, DeviceBuf, RingConfig, ServerSpec, UniqueId,
    XcclComm, XcclOp,
};

/// One communicator shape and the collective it runs.
#[derive(Clone)]
struct Cell {
    platform: PlatformSpec,
    nodes: usize,
    per_node: usize,
    servers: usize,
    engine: CollEngine,
    op: XcclOp,
    size: u64,
}

/// What one call leaves behind: its end instant, a fold of every member
/// link's `(free_at, bytes)`, the busiest link's `free_at`, the bytes all
/// links carried, and every charged flow's `(bytes, first_start,
/// last_depart)`.
#[derive(Debug, PartialEq, Eq)]
struct CallOut {
    end: u64,
    links: u64,
    last_free: u64,
    bytes: u64,
    flows: Vec<(u64, Option<u64>, u64)>,
}

/// FNV-1a over a list of words.
fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x100_0000_01B3))
}

fn call_out(h: &SimHandle, links: &[ResourceId], flows: &[diomp_sim::FlowId]) -> CallOut {
    let state: Vec<(u64, u64)> =
        links.iter().map(|&r| (h.resource_free_at(r).nanos(), h.resource_bytes(r))).collect();
    let flows = flows
        .iter()
        .map(|&f| h.flow_stats(f))
        .filter(|s| s.bytes > 0)
        .map(|s| (s.bytes, s.first_start.map(|t| t.nanos()), s.last_depart.nanos()))
        .collect();
    CallOut {
        end: h.now().nanos(),
        links: fold(state.iter().flat_map(|&(f, b)| [f, b])),
        last_free: state.iter().map(|s| s.0).max().unwrap_or(0),
        bytes: state.iter().map(|s| s.1).sum(),
        flows,
    }
}

/// Every rank initialises one communicator and calls the cell's
/// collective `calls` times back to back; rank 0 reads the state right
/// after each call returns, before it arrives at the next. Returns each
/// call's outcome and the run's entry count and digest.
fn run(cell: &Cell, calls: usize) -> (Vec<CallOut>, u64, u64) {
    let Cell { nodes, per_node, servers, engine, op, size, .. } = *cell;
    let n = nodes * per_node;
    let mut sim = Sim::new();
    let spec = ClusterSpec { platform: cell.platform.clone(), nodes, gpus_per_node: per_node };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, Some(64 << 20));
    let world = FabricWorld::new(topo, devs, n);
    world.attach_sim(&sim.handle());
    let links: Rc<Vec<ResourceId>> = Rc::new(
        (0..world.devs.len())
            .flat_map(|f| [world.devs.dev(f).nic, world.devs.dev(f).port])
            .collect(),
    );
    let flows = Rc::new(RefCell::new(Vec::new()));
    let outs = Rc::new(RefCell::new(Vec::new()));
    let id = UniqueId::generate();
    for r in 0..n {
        let (world, links, flows, outs) =
            (world.clone(), links.clone(), flows.clone(), outs.clone());
        sim.spawn(format!("rank{r}"), move |ctx| {
            let opts =
                CommOpts { engine, servers: ServerSpec::tail(servers), ..CommOpts::default() };
            let comm = XcclComm::init(ctx, &world, (0..n).collect(), r, id, opts);
            flows
                .borrow_mut()
                .extend([Some(comm.flow()), comm.server_flow()].into_iter().flatten());
            let per = if matches!(op, XcclOp::AllGather) { n as u64 } else { 1 };
            let off = world.primary_dev(r).malloc((size * per).max(256), 256).unwrap();
            for _ in 0..calls {
                comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, size);
                if r == 0 {
                    outs.borrow_mut().push(call_out(ctx.handle(), &links, &flows.borrow()));
                }
            }
        });
    }
    let rep = sim.run().expect("the cell completes");
    let outs = outs.take();
    (outs, rep.entries_processed, rep.digest)
}

const ALLRED: XcclOp = XcclOp::AllReduce { op: ReduceOp::SumF32 };

/// The five cells: a DBT allreduce on C 64×1, a ring allreduce on A 4×4,
/// a broadcast from a seeded non-zero root, the reduction-server
/// allreduce (two flows) and an LL allreduce.
fn cells() -> Vec<(&'static str, Cell)> {
    let (a, c) = (PlatformSpec::platform_a(), PlatformSpec::platform_c());
    let tuned = |p: &PlatformSpec, op: &XcclOp, rails| RingConfig::auto(p, op, rails);
    let root = 1 + (derive_seed(20250613, 0xB0) % 15) as usize;
    let bcast = XcclOp::Broadcast { root };
    let tiny = RingConfig { chunk_bytes: 256, max_inflight: 2 };
    let ll = AutoConfig { ring_bcast: tiny, ring_allred: tiny, ..AutoConfig::for_platform(&a) };
    let cell = |platform: &PlatformSpec, (nodes, per_node), servers, engine, op, size| Cell {
        platform: platform.clone(),
        nodes,
        per_node,
        servers,
        engine,
        op,
        size,
    };
    let rails = default_nrings(&a);
    vec![
        (
            "C/dbt/allred@64x1",
            cell(&c, (64, 1), 0, CollEngine::Dbt(tuned(&c, &ALLRED, 1)), ALLRED, 4 << 20),
        ),
        (
            "A/ring/allred@4x4",
            cell(&a, (4, 4), 0, CollEngine::Ring(tuned(&a, &ALLRED, rails)), ALLRED, 1 << 20),
        ),
        (
            "A/dbt/bcast@4x4",
            cell(&a, (4, 4), 0, CollEngine::Dbt(tuned(&a, &bcast, rails)), bcast, 3 << 20),
        ),
        (
            "A/rserver/allred@3x2",
            cell(
                &a,
                (3, 2),
                1,
                CollEngine::ReductionServer(RingConfig::default()),
                ALLRED,
                1 << 20,
            ),
        ),
        ("A/ll/allred@2x4", cell(&a, (2, 4), 0, CollEngine::Auto(ll), ALLRED, 2 << 10)),
    ]
}

/// A call's pinned outcome: `(end, links, last_free, bytes, flows)` as
/// in [`CallOut`].
type Pin = (u64, u64, u64, u64, &'static [(u64, Option<u64>, u64)]);

/// Each cell's two calls and its run's `(entries, digest)`, recorded by
/// the march.
const PINS: [([Pin; 2], (u64, u64)); 5] = [
    (
        [
            (
                81315184,
                9372870196211234389,
                81308461,
                1832470416,
                &[(1832470416, Some(80077173), 81308461)],
            ),
            (
                82630368,
                5989597386601665813,
                82623645,
                3664940832,
                &[(3664940832, Some(80077173), 82623645)],
            ),
        ],
        (266, 0x4d509485411bb6f0),
    ),
    (
        [
            (
                90123327,
                17339361384454768549,
                90121742,
                40081920,
                &[(40081920, Some(90056665), 90121742)],
            ),
            (
                90246654,
                9275219102840369525,
                90245069,
                80163840,
                &[(80163840, Some(90056665), 90245069)],
            ),
        ],
        (74, 0x5dfe6154793ea5dc),
    ),
    (
        [
            (
                90113942,
                17116163342558824960,
                90112999,
                67997952,
                &[(67997952, Some(90015573), 90112999)],
            ),
            (
                90227884,
                7365615716335508304,
                90226941,
                135995904,
                &[(135995904, Some(90015573), 90226941)],
            ),
        ],
        (74, 0xde283a22ac5b7d7a),
    ),
    (
        [
            (
                90113741,
                3317511535484686736,
                90112156,
                8940288,
                &[(6800320, Some(90056665), 90112156), (2139968, Some(90063803), 90109278)],
            ),
            (
                90227482,
                10449429402178819306,
                90225897,
                17880576,
                &[(13600640, Some(90056665), 90225897), (4279936, Some(90063803), 90223019)],
            ),
        ],
        (34, 0xac9b97c548a0060a),
    ),
    (
        [
            (90072792, 14281758276874130861, 90069542, 31472, &[(31472, Some(90057280), 90069542)]),
            (90145584, 820104525903969541, 90142334, 62944, &[(62944, Some(90057280), 90142334)]),
        ],
        (42, 0x1dca3c6c5a9ba59a),
    ),
];

#[test]
fn back_to_back_calls_leave_the_pinned_state() {
    for ((label, cell), (calls, run_pin)) in cells().into_iter().zip(PINS) {
        let (outs, entries, digest) = run(&cell, 2);
        let want = calls.map(|(end, links, last_free, bytes, flows)| CallOut {
            end,
            links,
            last_free,
            bytes,
            flows: flows.to_vec(),
        });
        assert_eq!(outs, want, "{label}: end, links and flows of each call");
        assert_eq!((entries, digest), run_pin, "{label}: entries and digest");
    }
}

/// How a run departs from the clean coalesced one.
#[derive(Clone, Copy, Default)]
struct Arm {
    explicit: bool,
    unrolled: bool,
    /// A fault plan armed on a link no schedule uses.
    fault: bool,
    /// A 4 MiB put on rank 1's NIC issued as the members leave init, so
    /// it is in flight when the first call starts.
    busy: bool,
}

/// [`run`] under `arm`, twice: each call's outcome with the sends the
/// march issued one by one (0: a replayed idle run; `usize::MAX`: no
/// march, the explicit driver ran).
fn run_arm(cell: &Cell, arm: Arm) -> Vec<(CallOut, usize)> {
    let Cell { nodes, per_node, servers, engine, op, size, .. } = *cell;
    let n = nodes * per_node;
    let mut sim = Sim::new();
    sim.force_explicit_schedules(arm.explicit);
    sim.force_unrolled_schedules(arm.unrolled);
    let spec = ClusterSpec { platform: cell.platform.clone(), nodes, gpus_per_node: per_node };
    let init = Dur::micros(spec.platform.coll.xccl_init_us);
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, Some(64 << 20));
    let world = FabricWorld::new(topo, devs, n);
    world.attach_sim(&sim.handle());
    if arm.fault {
        let unused = sim.handle().new_resource(1.0, Dur::ZERO);
        sim.set_fault_plan(FaultPlan::new().degrade_link(unused, SimTime(0), SimTime(1), 500));
    }
    if arm.busy {
        let nic = world.devs.dev(1).nic;
        sim.spawn("put", move |ctx| {
            ctx.delay(init);
            ctx.handle().transfer(nic, 4 << 20);
        });
    }
    let links: Rc<Vec<ResourceId>> = Rc::new(
        (0..world.devs.len())
            .flat_map(|f| [world.devs.dev(f).nic, world.devs.dev(f).port])
            .collect(),
    );
    let flows = Rc::new(RefCell::new(Vec::new()));
    let outs = Rc::new(RefCell::new(Vec::new()));
    let id = UniqueId::generate();
    for r in 0..n {
        let (world, links, flows, outs) =
            (world.clone(), links.clone(), flows.clone(), outs.clone());
        sim.spawn(format!("rank{r}"), move |ctx| {
            let opts =
                CommOpts { engine, servers: ServerSpec::tail(servers), ..CommOpts::default() };
            let comm = XcclComm::init(ctx, &world, (0..n).collect(), r, id, opts);
            flows
                .borrow_mut()
                .extend([Some(comm.flow()), comm.server_flow()].into_iter().flatten());
            let off = world.primary_dev(r).malloc(size.max(256), 256).unwrap();
            for _ in 0..2 {
                if r == 0 {
                    MARCHED.set(usize::MAX);
                }
                comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, size);
                if r == 0 {
                    let out = call_out(ctx.handle(), &links, &flows.borrow());
                    outs.borrow_mut().push((out, MARCHED.get()));
                }
            }
        });
    }
    sim.run().expect("the cell completes");
    outs.take()
}

/// The second call on idle links replays the first's march, and so do
/// both calls of a fresh `Sim` of the same shape — its fresh flow gets
/// the first start a march would give it. Every outcome is the explicit
/// driver's.
#[test]
fn a_repeated_call_replays_its_idle_run_in_this_sim_and_the_next() {
    for (label, cell) in cells() {
        let first = run_arm(&cell, Arm::default());
        let again = run_arm(&cell, Arm::default());
        let explicit = run_arm(&cell, Arm { explicit: true, ..Arm::default() });
        assert_eq!(first[1].1, 0, "{label}: the second call marches nothing");
        assert_eq!((again[0].1, again[1].1), (0, 0), "{label}: a fresh sim replays both calls");
        for ((a, b), c) in first.iter().zip(&again).zip(&explicit) {
            assert_eq!(a.0, b.0, "{label}: the fresh sim's outcome, first start included");
            assert_eq!(a.0, c.0, "{label}: the explicit driver's outcome");
        }
    }
}

/// With an idle run recorded, a call still marches when a put is in
/// flight on a link it touches, when a fault plan is armed (even on a
/// link it never uses), and under either forced reference — and lands
/// where the explicit driver does.
#[test]
fn a_busy_link_an_armed_plan_or_a_forced_reference_still_marches() {
    for (label, cell) in cells().into_iter().filter(|(l, _)| l.contains("dbt") || l.contains("rs"))
    {
        run_arm(&cell, Arm::default());
        let busy = Arm { busy: true, ..Arm::default() };
        let fault = Arm { fault: true, ..Arm::default() };
        let explicit = Arm { explicit: true, ..Arm::default() };
        let unrolled = Arm { unrolled: true, ..Arm::default() };
        for (what, arm) in
            [("busy", busy), ("fault", fault), ("explicit", explicit), ("unrolled", unrolled)]
        {
            let got = run_arm(&cell, arm);
            let want = run_arm(&cell, Arm { explicit: true, unrolled: false, ..arm });
            let calls = if arm.busy { 1 } else { 2 };
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.0, w.0,
                    "{label}/{what}: call {i} lands where the explicit driver does"
                );
                assert!(i >= calls || g.1 > 0, "{label}/{what}: call {i} marches");
            }
        }
    }
}
