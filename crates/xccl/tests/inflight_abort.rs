//! A member dies while a collective is on the wire (DESIGN.md D17).
//!
//! Under [`Wait::Until`] the runner's parks are bounded like the gate's:
//! one that expires runs the probe, and a confirmed death aborts the
//! episode in flight. The properties pinned here:
//!
//! * **Abort in flight** — every member, the doomed one included,
//!   leaves with `CollAbort` at one pinned instant and with its buffer
//!   untouched, on every schedule-driven engine (ring, DBT, reduction
//!   server, LL, and the fed broadcast tree), contended or not.
//! * **Explicit ≡ coalesced** — uncontended, both drivers abort at the
//!   same instant with the same link watermarks and flow bytes.
//! * **Nothing left behind** — after abort and shrink, the flow table,
//!   the live event count and every armed link's backlog are back where
//!   they were before the collective.
//! * **What must not move** — a blocking collective with a dead member
//!   still crawls the dead links to the instant it always reached, and a
//!   bounded collective on a healthy fabric keeps its virtual time.

use std::sync::Arc;

use diomp_device::{DataMode, DeviceTable};
use diomp_fabric::{FabricWorld, ReduceOp};
use diomp_sim::{ClusterSpec, Dur, FaultPlan, PlatformSpec, Sim, SimTime, Topology, Wait};
use diomp_xccl::{
    AutoConfig, CollEngine, CommOpts, DeviceBuf, RingConfig, ServerSpec, UniqueId, XcclComm, XcclOp,
};
use parking_lot::Mutex;

/// The member the kill plans take: a client on every communicator here.
const DOOMED: usize = 3;
/// `RecoveryConfig::default()`'s collective timeout.
const BUDGET: Wait = Wait::Until(Dur::nanos(1_000_000));

/// A communicator on platform A and the collective it runs. Every rank
/// leaves communicator init at 90 ms and arrives at the gate 20 µs later.
#[derive(Clone, Copy)]
struct Cell {
    name: &'static str,
    nodes: usize,
    per_node: usize,
    engine: CollEngine,
    servers: ServerSpec,
    op: XcclOp,
    len: u64,
    /// Inside the clean collective: about half-way, or earlier where the
    /// doomed rank's last sends would otherwise be behind it.
    kill_ns: u64,
}

impl Cell {
    /// An allreduce cell.
    fn new(name: &'static str, engine: CollEngine, len: u64, kill_ns: u64) -> Cell {
        let (servers, op) = (ServerSpec::default(), XcclOp::AllReduce { op: ReduceOp::SumF64 });
        Cell { name, nodes: 2, per_node: 4, engine, servers, op, len, kill_ns }
    }
}

/// One allreduce cell per schedule-driven engine, on 2 nodes × 4 GPUs
/// (four rails), and the pinned tree's fed broadcast from GPU 2, whose
/// rail-1 feeder is the doomed rank, killed while it still has NIC
/// sends to make. The LL cell is Auto on 256-byte rings, whose chunked
/// regimes price above LL at 32 KiB.
fn cells() -> [Cell; 5] {
    let rc = RingConfig::default();
    let tiny = RingConfig { chunk_bytes: 256, max_inflight: 2 };
    let tuned = AutoConfig::for_platform(&PlatformSpec::platform_a());
    let auto = AutoConfig { ring_bcast: tiny, ring_allred: tiny, ..tuned };
    let rserver = Cell::new("rserver", CollEngine::ReductionServer(rc), 4 << 20, 90_100_000);
    [
        Cell::new("ring", CollEngine::Ring(rc), 4 << 20, 90_115_000),
        Cell::new("dbt", CollEngine::Dbt(rc), 4 << 20, 90_095_000),
        Cell { servers: ServerSpec::tail(1), ..rserver },
        Cell::new("ll", CollEngine::Auto(auto), 32 << 10, 90_057_000),
        Cell {
            op: XcclOp::Broadcast { root: 2 },
            ..Cell::new("fed", CollEngine::Dbt(rc), 4 << 20, 90_040_000)
        },
    ]
}

/// How a cell is run.
#[derive(Clone, Copy)]
struct Arm {
    kill: bool,
    wait: Wait,
    contended: bool,
    explicit: bool,
    /// After an abort the survivors shrink and run the collective again.
    shrink: bool,
}

impl Arm {
    const fn new(kill: bool, wait: Wait, contended: bool) -> Arm {
        Arm { kill, wait, contended, explicit: false, shrink: false }
    }
}

/// `(flows in use, live events, transfers queued on every link)`.
type Marks = (usize, usize, usize);

#[derive(Debug, PartialEq, Eq)]
struct Out {
    /// Every rank's outcome: completion or abort instant, ns.
    outcomes: Vec<Result<u64, u64>>,
    /// Did each rank's buffer keep the bytes it had before the call?
    untouched: Vec<bool>,
    /// Post-run `free_at` of every NIC and fabric port, ns.
    free_at: Vec<u64>,
    /// Bytes on every rank's client flow, then every server flow (empty
    /// when the survivors shrank: a shrink releases the flows).
    flow_bytes: Vec<u64>,
    /// Rank 0's marks before the collective and after the shrunk re-run.
    marks: Option<(Marks, Marks)>,
}

fn run(cell: Cell, arm: Arm) -> Out {
    let nranks = cell.nodes * cell.per_node;
    let mut sim = Sim::new();
    if arm.contended {
        sim.enable_contention();
    }
    sim.force_explicit_schedules(arm.explicit);
    let mut plan = FaultPlan::new();
    if arm.kill {
        plan = plan.kill_rank(DOOMED as u32, SimTime(cell.kill_ns));
    }
    sim.set_fault_plan(plan.clone());
    let platform = PlatformSpec::platform_a();
    let spec = ClusterSpec { platform, nodes: cell.nodes, gpus_per_node: cell.per_node };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let devs =
        DeviceTable::build(&sim.handle(), topo.clone(), DataMode::Functional, Some(16 << 20));
    let world = FabricWorld::new(topo, devs, nranks);
    world.attach_sim(&sim.handle());
    world.refresh_health_from_plan(&plan);
    let links: Vec<_> =
        (0..nranks).flat_map(|f| [world.devs.dev(f).nic, world.devs.dev(f).port]).collect();
    let id = UniqueId::generate();
    let handle = sim.handle();
    let outcomes = Arc::new(Mutex::new(vec![None; nranks]));
    let untouched = Arc::new(Mutex::new(vec![false; nranks]));
    let flows = Arc::new(Mutex::new(vec![(None, None); nranks]));
    let marks = Arc::new(Mutex::new(Vec::new()));
    for r in 0..nranks {
        let (world, handle, links) = (world.clone(), handle.clone(), links.clone());
        let (outcomes, untouched, flows, marks) =
            (outcomes.clone(), untouched.clone(), flows.clone(), marks.clone());
        sim.spawn(format!("rank{r}"), move |ctx| {
            let opts =
                CommOpts { engine: cell.engine, servers: cell.servers, ..CommOpts::default() };
            let mut comm = XcclComm::init(ctx, &world, (0..nranks).collect(), r, id, opts);
            flows.lock()[r] = (Some(comm.flow()), comm.server_flow());
            let dev = world.primary_dev(r);
            let off = dev.malloc(cell.len, 256).unwrap();
            let vals: Vec<u8> = (0..cell.len / 8)
                .flat_map(|i| (((r as u64 + 1) * (i % 13 + 1)) as f64).to_le_bytes())
                .collect();
            dev.mem.write(off, &vals).unwrap();
            let mark = || {
                let backlog = links.iter().map(|&l| handle.link_backlog(l)).sum();
                (handle.flows_in_use(), handle.live_events(), backlog)
            };
            // Rank 0 takes its first mark while every member is parked
            // between init and the collective.
            ctx.delay(Dur::micros(10.0));
            if r == 0 {
                marks.lock().push(mark());
            }
            ctx.delay(Dur::micros(10.0));
            let (op, bufs) = (cell.op, vec![DeviceBuf { flat: r, off }]);
            let got = comm.try_collective(ctx, r, bufs.clone(), op, cell.len, arm.wait);
            let mut now = vec![0u8; cell.len as usize];
            dev.mem.read(off, &mut now).unwrap();
            untouched.lock()[r] = now == vals;
            outcomes.lock()[r] = Some(got.map(|t| t.nanos()).map_err(|a| a.at.nanos()));
            if got.is_err() && arm.shrink && r != DOOMED {
                comm = comm.shrink(ctx, &world.converged_health(), r);
                let again = comm.try_collective(ctx, r, bufs, op, cell.len, arm.wait);
                assert!(again.is_ok(), "{}: the shrunk re-run must complete", cell.name);
                if r == 0 {
                    // Past every survivor's exit from the re-run's gate.
                    ctx.delay(Dur::millis(1.0));
                    marks.lock().push(mark());
                }
            }
        });
    }
    sim.run().unwrap_or_else(|e| panic!("{}: {e}", cell.name));
    assert_eq!(handle.live_events(), 0, "{}: every event recycled by the end", cell.name);
    let outcomes: Vec<_> = outcomes.lock().iter().map(|o| o.expect("every rank called")).collect();
    let flow_bytes = if arm.shrink && outcomes.iter().any(Result::is_err) {
        Vec::new()
    } else {
        let flows = flows.lock();
        let all = flows.iter().map(|f| f.0).chain(flows.iter().map(|f| f.1));
        all.flatten().map(|f| handle.flow_stats(f).bytes).collect()
    };
    let marks = marks.lock();
    let untouched = untouched.lock().clone();
    Out {
        outcomes,
        untouched,
        free_at: links.iter().map(|&l| handle.resource_free_at(l).nanos()).collect(),
        flow_bytes,
        marks: (marks.len() == 2).then(|| (marks[0], marks[1])),
    }
}

/// Each cell's abort instant, uncontended and contended. Before
/// in-flight abort these collectives completed instead, at the instants
/// [`blocking_collectives_still_crawl_the_dead_links`] pins.
const ABORT_NS: [(u64, u64); 5] = [
    (104_224_238, 104_224_238),
    (101_783_222, 102_749_988),
    (100_602_539, 101_061_223),
    (91_213_460, 91_213_460),
    (99_293_822, 99_293_822),
];

#[test]
fn a_death_in_flight_aborts_every_member_at_one_instant() {
    for (cell, abort) in cells().into_iter().zip(ABORT_NS) {
        for (contended, at) in [(false, abort.0), (true, abort.1)] {
            let out = run(cell, Arm::new(true, BUDGET, contended));
            let tag = format!("{} contended={contended}", cell.name);
            assert!(at > cell.kill_ns, "{tag}: an abort follows the kill");
            assert_eq!(out.outcomes, vec![Err(at); out.outcomes.len()], "{tag}");
            assert!(out.untouched.iter().all(|&u| u), "{tag}: an abort folds no byte");
        }
    }
}

#[test]
fn uncontended_drivers_abort_alike() {
    for cell in cells() {
        let arm = Arm::new(true, BUDGET, false);
        let coalesced = run(cell, arm);
        let explicit = run(cell, Arm { explicit: true, ..arm });
        assert!(coalesced.outcomes.iter().all(Result::is_err), "{}: aborted", cell.name);
        assert_eq!(
            coalesced, explicit,
            "{}: the coalesced march must replay the explicit driver's deadline wakes \
             (abort instant, link watermarks, flow bytes)",
            cell.name
        );
    }
}

#[test]
fn abort_and_shrink_leave_nothing_behind() {
    for cell in cells() {
        for contended in [false, true] {
            let out = run(cell, Arm { shrink: true, ..Arm::new(true, BUDGET, contended) });
            let tag = format!("{} contended={contended}", cell.name);
            let (before, after) = out.marks.unwrap_or_else(|| panic!("{tag}: no shrink"));
            assert_eq!(before.2, 0, "{tag}: idle links before the collective");
            assert_eq!(after, before, "{tag}: (flows, events, backlog) after abort and shrink");
        }
    }
}

/// A blocking collective still crawls the dead rank's links to the same
/// completion — and runs its fold — as before in-flight abort existed.
/// So does a bounded one whose budget runs past the end of time: its
/// deadlines never fire, so no park expires and nothing aborts.
#[test]
fn blocking_collectives_still_crawl_the_dead_links() {
    let done_ns: [(u64, u64); 5] = [
        (173_324_045, 154_853_975),
        (154_816_509, 127_111_404),
        (145_825_024, 131_972_413),
        (91_640_455, 91_640_455),
        (205_806_530, 205_806_530),
    ];
    for (cell, done) in cells().into_iter().zip(done_ns) {
        for (contended, at) in [(false, done.0), (true, done.1)] {
            let out = run(cell, Arm::new(true, Wait::Block, contended));
            let tag = format!("{} contended={contended}", cell.name);
            assert_eq!(out.outcomes, vec![Ok(at); out.outcomes.len()], "{tag}");
            assert!(!out.untouched[0], "{tag}: the fold ran");
            let forever = Arm::new(true, Wait::Until(Dur::secs(f64::INFINITY)), contended);
            assert_eq!(run(cell, forever), out, "{tag}: infinite budget");
        }
    }
}

/// On a healthy fabric a bounded collective is the blocking one, down to
/// every watermark — including the single-rail ring allreduce, which
/// leaves the closed-form tier for the schedule when bounded.
#[test]
fn bounded_collectives_on_a_healthy_fabric_keep_their_virtual_time() {
    let single_rail = Cell {
        nodes: 6,
        per_node: 1,
        ..Cell::new("ring-1rail", CollEngine::Ring(RingConfig::default()), 4 << 20, 0)
    };
    let done_ns = [90_208_730, 90_171_264, 90_185_479, 90_095_918, 90_170_706, 90_364_660];
    let all = cells().into_iter().chain([single_rail]);
    for (cell, at) in all.zip(done_ns) {
        for contended in [false, true] {
            let tag = format!("{} contended={contended}", cell.name);
            let bounded = run(cell, Arm::new(false, BUDGET, contended));
            assert_eq!(bounded.outcomes, vec![Ok(at); bounded.outcomes.len()], "{tag}");
            assert_eq!(bounded, run(cell, Arm::new(false, Wait::Block, contended)), "{tag}");
        }
    }
}
