//! Equivalence properties of the coalesced schedule drivers.
//!
//! The LL, ring, DBT and reduction-server generators compile their
//! collectives into one chunk-send normal form, driven either with explicit
//! per-chunk kernel events (the reference) or with the event-free
//! coalesced march, which jumps the repeats of a rigid period (the
//! scale-out fast path). These tests pin the optimisation contract:
//!
//! * **Bit-identical virtual time** — end time, every per-link
//!   `free_at` watermark and byte count, and every communicator flow's
//!   statistics match the forced-explicit driver across engines, ops,
//!   payload sizes and cluster shapes — the small ones here, the 64-GPU
//!   cells the layered benchmark runs, and the fed broadcast's.
//! * **Per-edge fault disarm** — an armed fault plan perturbs the march
//!   through the same kernel arithmetic as explicit events; the fast
//!   path stays engaged (chunks still coalesce) and stays exact.
//! * **Contention forces the reference** — with the weighted fair queue
//!   armed both arms run the explicit driver, nothing coalesces, and
//!   virtual time still replays bit-for-bit.
//! * **Trace determinism** — the coalesced run replays itself exactly:
//!   same end time, same entry count, same coalesced-chunk credit, same
//!   watermarks.
//! * **Periodic ≡ unrolled** — a schedule held as periodic segments and
//!   the same sends written out as one single-repeat segment
//!   (`Sim::force_unrolled_schedules`) agree under both drivers, with
//!   and without faults, at one chunk, a short last chunk and three or
//!   more periods. The unrolling cannot jump, so on the coalesced arm
//!   this also pins the jump against the march it skips.
//! * **The price is the driver's** — `XcclComm::price`, which Auto's
//!   cuts compare, equals the coalesced driver's virtual time to the
//!   nanosecond on every shape here, the 64-GPU benchmark cells and the
//!   fed ones included.

use std::sync::Arc;

use diomp_device::{DataMode, DeviceTable};
use diomp_fabric::{FabricWorld, ReduceOp};
use diomp_sim::{ClusterSpec, Dur, FaultPlan, FlowId, PlatformSpec, ResourceId, Sim, Topology};
use diomp_xccl::{
    default_nrings, AutoConfig, CollEngine, CommOpts, DeviceBuf, RingConfig, ServerSpec, UniqueId,
    XcclComm, XcclOp,
};
use std::sync::Mutex;

/// Scheduler-visible outcome of one run, compared field by field
/// between the coalesced and explicit arms.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RunOut {
    end_ns: u64,
    /// Post-run `free_at` watermark of every NIC and fabric port — the
    /// reservation state the collectives actually mutated.
    free_at: Vec<u64>,
    /// Wire bytes every NIC and fabric port carried, in the same order.
    link_bytes: Vec<u64>,
    /// `(bytes, first_start, last_depart)` of every rank's client flow
    /// and then of every rank's server flow, in rank order (only the
    /// launching rank's are ever charged).
    flows: Vec<(u64, Option<u64>, u64)>,
}

/// One rank's client flow and server flow.
type RankFlows = (Option<FlowId>, Option<FlowId>);

/// Scheduler cost of the same run (not part of the identity — the fast
/// path exists to change exactly these).
struct RunCost {
    entries: u64,
    coalesced: u64,
}

/// One cell of the property wall: a cluster, a communicator and the
/// collective it runs twice.
#[derive(Clone)]
struct Cell {
    platform: PlatformSpec,
    nodes: usize,
    per_node: usize,
    engine: CollEngine,
    servers: ServerSpec,
    op: XcclOp,
    size: u64,
    plan: FaultPlan,
    contention: bool,
}

impl Cell {
    /// A fault-free, uncontended platform-A cell with no servers.
    fn on_a(nodes: usize, per_node: usize, engine: CollEngine, op: XcclOp, size: u64) -> Cell {
        Cell {
            platform: PlatformSpec::platform_a(),
            nodes,
            per_node,
            engine,
            servers: ServerSpec::tail(0),
            op,
            size,
            plan: FaultPlan::new(),
            contention: false,
        }
    }
}

/// Run `cell` with the explicit driver pinned or not, from the periodic
/// schedule or from its unrolling.
fn run_cell(cell: &Cell, forced_explicit: bool, unrolled: bool) -> (RunOut, RunCost) {
    let Cell { nodes, per_node, engine, servers, op, size, .. } = *cell;
    let nranks = nodes * per_node;
    let mut sim = Sim::new();
    if cell.contention {
        sim.enable_contention();
    }
    sim.force_explicit_schedules(forced_explicit);
    sim.force_unrolled_schedules(unrolled);
    sim.set_fault_plan(cell.plan.clone());
    let spec = ClusterSpec { platform: cell.platform.clone(), nodes, gpus_per_node: per_node };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, Some(64 << 20));
    let world = FabricWorld::new(topo, devs, nranks);
    world.attach_sim(&sim.handle());
    world.refresh_health_from_plan(&cell.plan);
    let id = UniqueId::generate();
    let flow_ids: Arc<Mutex<Vec<RankFlows>>> = Arc::new(Mutex::new(vec![(None, None); nranks]));
    for r in 0..nranks {
        let (world, flow_ids) = (world.clone(), flow_ids.clone());
        sim.spawn(format!("rank{r}"), move |ctx| {
            let comm = XcclComm::init(
                ctx,
                &world,
                (0..nranks).collect(),
                r,
                id,
                CommOpts { engine, servers, ..CommOpts::default() },
            );
            flow_ids.lock().unwrap()[r] = (Some(comm.flow()), comm.server_flow());
            // `Auto` cells in this file are LL-regime cells, also on the
            // degraded fabric a fault plan makes the boundaries retreat on.
            if let Some((ll_cut, ..)) = comm.auto_regimes(&op) {
                assert!(size <= ll_cut, "{size} B must sit below the LL cut ({ll_cut} B)");
            }
            let dev = world.primary_dev(r);
            // All-gather needs n·len per buffer.
            let per = if matches!(op, XcclOp::AllGather) { nranks as u64 } else { 1 };
            let off = dev.malloc((size * per).max(256), 256).unwrap();
            // Two back-to-back collectives: the second starts against
            // warm (already reserved) links, so steady-state jumps and
            // busy-resource serialisation both get exercised.
            comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, size);
            comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, size);
        });
    }
    let handle = sim.handle();
    let rep = sim.run().expect("fastpath cell deadlocked");
    let links: Vec<ResourceId> = (0..world.devs.len())
        .flat_map(|f| {
            let d = world.devs.dev(f);
            [d.nic, d.port]
        })
        .collect();
    let free_at = links.iter().map(|&res| handle.resource_free_at(res).nanos()).collect();
    let link_bytes = links.iter().map(|&res| handle.resource_bytes(res)).collect();
    let flow_ids = flow_ids.lock().unwrap();
    let flows = flow_ids
        .iter()
        .map(|f| f.0)
        .chain(flow_ids.iter().map(|f| f.1))
        .flatten()
        .map(|f| {
            let s = handle.flow_stats(f);
            (s.bytes, s.first_start.map(|t| t.nanos()), s.last_depart.nanos())
        })
        .collect();
    (
        RunOut { end_ns: rep.end_time.nanos(), free_at, link_bytes, flows },
        RunCost { entries: rep.entries_processed, coalesced: rep.coalesced_chunks },
    )
}

/// Run the cell coalesced, forced-explicit, and coalesced again;
/// assert virtual-time identity and replay determinism. Returns the
/// two arms' costs for property-specific assertions.
fn assert_equiv(label: &str, cell: &Cell) -> (RunCost, RunCost) {
    let (fast, fast_cost) = run_cell(cell, false, false);
    let (expl, expl_cost) = run_cell(cell, true, false);
    assert_eq!(
        fast, expl,
        "{label}: coalesced arm diverged from the forced-explicit driver \
         (end time, link watermarks or flow stats)"
    );
    assert_eq!(expl_cost.coalesced, 0, "{label}: forced-explicit arm must not coalesce");
    assert!(
        fast_cost.entries <= expl_cost.entries,
        "{label}: coalescing must never add scheduler entries ({} vs {})",
        fast_cost.entries,
        expl_cost.entries
    );
    let (again, again_cost) = run_cell(cell, false, false);
    assert_eq!(fast, again, "{label}: coalesced run must replay bit-identically");
    assert_eq!(
        (fast_cost.entries, fast_cost.coalesced),
        (again_cost.entries, again_cost.coalesced),
        "{label}: coalesced run must replay the same scheduler cost"
    );
    (fast_cost, expl_cost)
}

/// Explicit ≡ coalesced ≡ unrolled: the cell's schedule as emitted under
/// both drivers, then driven from its unrolling under both, must agree on
/// the whole [`RunOut`], and on entries and coalesced count within each
/// driver. Returns the common outcome.
fn assert_three_way(label: &str, cell: &Cell) -> RunOut {
    let (fast, fast_cost) = run_cell(cell, false, false);
    let (expl, expl_cost) = run_cell(cell, true, false);
    assert_eq!(fast, expl, "{label}: fast vs explicit");
    assert!(fast_cost.coalesced > 0, "{label}: fast path must engage");
    for (explicit, base, base_cost) in [(false, &fast, &fast_cost), (true, &expl, &expl_cost)] {
        let (out, cost) = run_cell(cell, explicit, true);
        assert_eq!(&out, base, "{label}: unrolled diverged (explicit={explicit})");
        assert_eq!(
            (cost.entries, cost.coalesced),
            (base_cost.entries, base_cost.coalesced),
            "{label}: unrolled scheduler cost (explicit={explicit})"
        );
    }
    fast
}

/// Cluster shapes: single-node (all-intra edges), fat multi-node,
/// chain-heavy, and one-GPU-per-node (the scale sweep's shape — single
/// rail, every edge distinct and inter-node).
const SHAPES: [(usize, usize); 4] = [(1, 6), (2, 4), (3, 2), (6, 1)];

fn ops_and_sizes() -> Vec<(XcclOp, u64, &'static str)> {
    vec![
        // Uniform token split: hop rows repeating one period, where the
        // coalesced march may jump.
        (XcclOp::AllReduce { op: ReduceOp::SumF32 }, 768 << 10, "allred_768k"),
        // Ragged split (not divisible by rank counts): rotating hop rows,
        // marched send by send.
        (XcclOp::AllReduce { op: ReduceOp::SumF64 }, 100_008, "allred_100k8"),
        (XcclOp::Broadcast { root: 1 }, 96 << 10, "bcast_96k"),
        (XcclOp::AllGather, 24 << 10, "allgather_24k"),
        (XcclOp::Reduce { root: 0, op: ReduceOp::SumF64 }, 48 << 10, "reduce_48k"),
    ]
}

fn engines() -> Vec<(CollEngine, &'static str)> {
    vec![
        (CollEngine::Ring(RingConfig::default()), "ring"),
        (CollEngine::Dbt(RingConfig::default()), "dbt"),
    ]
}

/// Every link resource a fault plan can plausibly touch.
fn all_links(platform: &PlatformSpec, world_shape: (usize, usize)) -> Vec<ResourceId> {
    // Build a throwaway world with the same shape just to enumerate its
    // resource ids (deterministic across runs).
    let (nodes, per_node) = world_shape;
    let sim = Sim::new();
    let spec = ClusterSpec { platform: platform.clone(), nodes, gpus_per_node: per_node };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, Some(1 << 20));
    (0..devs.len())
        .flat_map(|f| {
            let d = devs.dev(f);
            [d.nic, d.port]
        })
        .collect()
}

/// A seeded degradation / flap / stall / straggler plan over every link
/// of the shape, its windows spread over `horizon`.
fn random_plan(
    seed: u64,
    platform: &PlatformSpec,
    shape: (usize, usize),
    horizon: Dur,
) -> FaultPlan {
    let prefixes: Vec<String> = (0..shape.0 * shape.1).map(|r| format!("rank{r}")).collect();
    FaultPlan::randomized(seed, &all_links(platform, shape), &prefixes, horizon)
}

#[test]
fn coalesced_drivers_match_explicit_across_engines_ops_and_shapes() {
    for &(nodes, per_node) in &SHAPES {
        for (engine, etag) in engines() {
            for (op, size, otag) in ops_and_sizes() {
                let label = format!("{etag}/{otag}@{nodes}x{per_node}");
                let (fast, _) =
                    assert_equiv(&label, &Cell::on_a(nodes, per_node, engine, op, size));
                assert!(fast.coalesced > 0, "{label}: fast path must engage on a clean run");
            }
        }
    }
}

/// Reduction-server cells on 3 nodes × 2 GPUs, one of them a server.
fn rserver_cells() -> Vec<(String, Cell)> {
    [
        (XcclOp::AllReduce { op: ReduceOp::SumF32 }, 1 << 20, "allred_1m"),
        (XcclOp::AllReduce { op: ReduceOp::SumF64 }, 100_008, "allred_100k8"),
    ]
    .map(|(op, size, otag)| {
        let engine = CollEngine::ReductionServer(RingConfig::default());
        let cell = Cell { servers: ServerSpec::tail(1), ..Cell::on_a(3, 2, engine, op, size) };
        (format!("rserver/{otag}@3x2"), cell)
    })
    .into()
}

#[test]
fn rserver_offload_matches_explicit() {
    for (label, cell) in rserver_cells() {
        let (fast, _) = assert_equiv(&label, &cell);
        assert!(fast.coalesced > 0, "{label}: fast path must engage");
    }
}

/// The cells the layered benchmark's `coll_sweep` spends its host time
/// in: platform A, 16 nodes × 4 GPUs, on the chunking the `Tuner`
/// derives — 257 k chunk sends per 16 MiB broadcast there, the table
/// the event-driven issue pass exists for.
fn benchmark_cells() -> Vec<(String, Cell)> {
    let p = PlatformSpec::platform_a();
    let allred = XcclOp::AllReduce { op: ReduceOp::SumF32 };
    let tuned = |op: &XcclOp| RingConfig::auto(&p, op, default_nrings(&p));
    let bcast = XcclOp::Broadcast { root: 37 };
    let (none, gather) = (ServerSpec::tail(0), XcclOp::AllGather);
    let rsv = CollEngine::ReductionServer(tuned(&allred));
    [
        ("ring/bcast_4m_root37", CollEngine::Ring(tuned(&bcast)), none, bcast, 4 << 20),
        ("ring/allgather_128k", CollEngine::Ring(tuned(&gather)), none, gather, 128 << 10),
        ("dbt/allred_4m", CollEngine::Dbt(tuned(&allred)), none, allred, 4 << 20),
        ("rserver/allred_4m_8srv", rsv, ServerSpec::tail(8), allred, 4 << 20),
    ]
    .map(|(label, engine, servers, op, size)| {
        (format!("{label}@16x4"), Cell { servers, ..Cell::on_a(16, 4, engine, op, size) })
    })
    .into()
}

/// A single-rail ring allreduce over 64 single-GPU nodes of platform C
/// on the tuned chunking: 4 MiB splits into uniform tokens, whose hop
/// rows the coalesced march jumps, and 4 MiB − 4 B into ragged ones,
/// which rotate.
fn scale_cells() -> Vec<(String, Cell)> {
    let c = PlatformSpec::platform_c();
    let op = XcclOp::AllReduce { op: ReduceOp::SumF32 };
    let engine = CollEngine::Ring(RingConfig::auto(&c, &op, 1));
    [(4 << 20, "uniform"), ((4 << 20) - 4, "ragged")]
        .map(|(size, tag)| {
            let cell = Cell { platform: c.clone(), ..Cell::on_a(64, 1, engine, op, size) };
            (format!("C/ring/allred_4m_{tag}@64x1"), cell)
        })
        .into()
}

/// The benchmark's 64-GPU cells and the 64-rank single-rail ring:
/// explicit ≡ coalesced (replayed) ≡ unrolled.
#[test]
fn benchmark_shapes_match_explicit() {
    for (label, cell) in benchmark_cells().into_iter().chain(scale_cells()) {
        let (fast, _) = assert_equiv(&label, &cell);
        assert!(fast.coalesced > 0, "{label}: fast path must engage");
        assert_three_way(&label, &cell);
    }
}

/// The periodic-segment schedule against the table it replaced: every
/// engine's schedule, driven as emitted and driven from its unrolling
/// (the same sends, one single-repeat segment each), must agree on end
/// time, every link watermark and every flow's statistics under both
/// drivers, and on entries and coalesced count within each driver.
///
/// Chunks are 16 KiB so the sizes below reach, per rail, a single chunk,
/// a short last chunk and three or more periods on both platforms: A as
/// 2 nodes × 4 GPUs (four rails, chains inside the node blocks), C as 6
/// single-GPU nodes (one rail). The armed plans spread their windows
/// over 400 ms — across the 80–90 ms communicator init, so they are live
/// while the collectives run.
#[test]
fn periodic_segments_match_their_unrolling_under_both_drivers() {
    let rc = RingConfig { chunk_bytes: 16 << 10, max_inflight: 3 };
    let sum32 = XcclOp::AllReduce { op: ReduceOp::SumF32 };
    let sum64 = XcclOp::AllReduce { op: ReduceOp::SumF64 };
    let bcast = XcclOp::Broadcast { root: 1 };
    let none = ServerSpec::tail(0);
    let (ring, dbt) = (CollEngine::Ring(rc), CollEngine::Dbt(rc));
    let rsv = CollEngine::ReductionServer(rc);
    let ops: [(&str, CollEngine, XcclOp, &[u64]); 8] = [
        // Chain op: chunk-major periods, last one short.
        ("ring/bcast", ring, bcast, &[8_192, 100_000, 400_008]),
        // Hop-row periods (n − 1 of them), edge-major.
        ("ring/allgather", ring, XcclOp::AllGather, &[8_192, 40_000]),
        // Uniform tokens: 2(n − 1) hop rows.
        ("ring/allred_uniform", ring, sum32, &[3_072, 768 << 10]),
        // Ragged tokens: 2(n − 1) rotating hop rows. At 98 312 B one of
        // C's tokens straddles a chunk boundary and at 40 B some are
        // empty, so there the rail is one repeat of all its rows.
        ("ring/allred_ragged", ring, sum64, &[100_008, 98_312, 40]),
        // One segment per (rail, tree).
        ("dbt/allred", dbt, sum32, &[65_536, 300_000]),
        ("dbt/bcast", dbt, bcast, &[300_000]),
        ("dbt/reduce", dbt, XcclOp::Reduce { root: 0, op: ReduceOp::SumF64 }, &[100_008]),
        ("rserver/allred", rsv, sum32, &[1 << 20]),
    ];
    let platforms = [
        (PlatformSpec::platform_a(), (2, 4), (3, 2, ServerSpec::tail(1))),
        (PlatformSpec::platform_c(), (6, 1), (6, 1, ServerSpec::tail(2))),
    ];
    for (platform, shape, (snodes, sper, sspec)) in platforms {
        for (tag, engine, op, sizes) in ops {
            let served = matches!(engine, CollEngine::ReductionServer(_));
            let (nodes, per_node) = if served { (snodes, sper) } else { shape };
            let plans = [
                FaultPlan::new(),
                random_plan(11, &platform, (nodes, per_node), Dur::millis(400.0)),
            ];
            for (&size, (pi, plan)) in
                sizes.iter().flat_map(|s| plans.iter().enumerate().map(move |p| (s, p)))
            {
                let label = format!("{}/{tag}/{size}/plan{pi}", platform.name);
                let cell = Cell {
                    platform: platform.clone(),
                    nodes,
                    per_node,
                    engine,
                    servers: if served { sspec } else { none },
                    op,
                    size,
                    plan: plan.clone(),
                    contention: false,
                };
                assert_three_way(&label, &cell);
            }
        }
    }
}

/// LL cells: Auto at 2 KiB on a few-device shape of every platform — A
/// with a NIC per GPU, B with two GCDs behind each NIC, C with every hop
/// across nodes — on 256-byte rings, whose chunked regimes price above
/// LL at small sizes (also on a fault plan's slower wires).
fn ll_cells() -> Vec<(String, Cell)> {
    let tiny = RingConfig { chunk_bytes: 256, max_inflight: 2 };
    let mut cells = Vec::new();
    for (platform, nodes, per_node) in [
        (PlatformSpec::platform_a(), 2, 4),
        (PlatformSpec::platform_b(), 2, 8),
        (PlatformSpec::platform_c(), 6, 1),
    ] {
        let tuned = AutoConfig::for_platform(&platform);
        let engine = CollEngine::Auto(AutoConfig { ring_bcast: tiny, ring_allred: tiny, ..tuned });
        for (op, otag) in [
            (XcclOp::Broadcast { root: 1 }, "bcast"),
            (XcclOp::Reduce { root: 0, op: ReduceOp::SumF64 }, "reduce"),
            (XcclOp::AllReduce { op: ReduceOp::SumF32 }, "allred"),
        ] {
            let cell = Cell {
                platform: platform.clone(),
                ..Cell::on_a(nodes, per_node, engine, op, 2 << 10)
            };
            cells.push((format!("{}/ll/{otag}", platform.name), cell));
        }
    }
    cells
}

/// LL is a generator like the others: its fused sends run under the
/// explicit driver, the coalesced march and (trivially — the hop list is
/// one repeat) the unrolling with the same end time, link watermarks and
/// flow statistics, with and without a fault plan — on B's shared NICs
/// too, where ready-time order is the drivers' to agree on.
#[test]
fn ll_regime_matches_explicit_and_unrolled_on_every_platform() {
    for (label, cell) in ll_cells() {
        let shape = (cell.nodes, cell.per_node);
        let plans = [FaultPlan::new(), random_plan(11, &cell.platform, shape, Dur::millis(400.0))];
        for (pi, plan) in plans.into_iter().enumerate() {
            let label = format!("{label}/plan{pi}");
            let out = assert_three_way(&label, &Cell { plan, ..cell.clone() });
            // LL traffic is the communicator's traffic: on C every hop of
            // the 5-hop broadcast tree crosses nodes at the conduit's wire
            // efficiency, and the launching rank's flow saw all of it,
            // both calls.
            if let (1, XcclOp::Broadcast { .. }, CollEngine::Auto(ac)) =
                (cell.per_node, cell.op, cell.engine)
            {
                let wire = (cell.size as f64 * 1000.0 / f64::from(ac.wire_eff_milli)).ceil();
                let charged: u64 = out.flows.iter().map(|f| f.0).sum();
                assert_eq!(
                    charged,
                    2 * 5 * wire as u64,
                    "{label}: flow bytes = schedule wire bytes"
                );
            }
        }
    }
}

#[test]
fn armed_fault_plans_disarm_per_edge_not_per_run() {
    // Randomized degradation windows over every link: the march must
    // price faulted edges through the same perturbed arithmetic as
    // explicit events — and must NOT fall back to the explicit driver
    // wholesale (chunks still coalesce under an armed plan).
    for seed in [3u64, 11, 42] {
        let shape = (2, 4);
        let plan = random_plan(seed, &PlatformSpec::platform_a(), shape, Dur::millis(5.0));
        for (engine, etag) in engines() {
            for (op, size, otag) in [
                (XcclOp::AllReduce { op: ReduceOp::SumF32 }, 768 << 10, "allred_768k"),
                (XcclOp::AllGather, 24 << 10, "allgather_24k"),
            ] {
                let label = format!("fault{seed}/{etag}/{otag}");
                let cell =
                    Cell { plan: plan.clone(), ..Cell::on_a(shape.0, shape.1, engine, op, size) };
                let (fast, _) = assert_equiv(&label, &cell);
                assert!(
                    fast.coalesced > 0,
                    "{label}: an armed fault plan must disarm the fast path per edge, \
                     not per run (nothing coalesced)"
                );
            }
        }
    }
}

#[test]
fn armed_contention_forces_the_explicit_driver_identically() {
    for (engine, etag) in engines() {
        let label = format!("contended/{etag}/allred_768k");
        let op = XcclOp::AllReduce { op: ReduceOp::SumF32 };
        let cell = Cell { contention: true, ..Cell::on_a(2, 4, engine, op, 768 << 10) };
        let (fast, expl) = assert_equiv(&label, &cell);
        // With the fair queue armed, both arms run the reference
        // explicit loop: no coalescing on either side.
        assert_eq!(fast.coalesced, 0, "{label}: contention must force the explicit driver");
        assert_eq!(fast.entries, expl.entries, "{label}: both contended arms run the same driver");
    }
}

/// One call of `cell`'s collective on idle links, right after init:
/// the launching communicator's price and the coalesced driver's
/// virtual time, ns.
fn priced_and_driven(cell: &Cell) -> (u64, u64) {
    let Cell { nodes, per_node, engine, servers, op, size, .. } = *cell;
    let nranks = nodes * per_node;
    let mut sim = Sim::new();
    let spec = ClusterSpec { platform: cell.platform.clone(), nodes, gpus_per_node: per_node };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, Some(64 << 20));
    let world = FabricWorld::new(topo, devs, nranks);
    let id = UniqueId::generate();
    let out = Arc::new(Mutex::new((0, 0)));
    for r in 0..nranks {
        let (world, out) = (world.clone(), out.clone());
        sim.spawn(format!("rank{r}"), move |ctx| {
            let opts = CommOpts { engine, servers, ..CommOpts::default() };
            let comm = XcclComm::init(ctx, &world, (0..nranks).collect(), r, id, opts);
            let per = if matches!(op, XcclOp::AllGather) { nranks as u64 } else { 1 };
            let off = world.primary_dev(r).malloc((size * per).max(256), 256).unwrap();
            let t0 = ctx.now();
            comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, size);
            if r == 0 {
                let price = comm.price(&op, size);
                *out.lock().unwrap() = (price.as_nanos(), ctx.now().since(t0).as_nanos());
            }
        });
    }
    sim.run().expect("price cell deadlocked");
    let got = *out.lock().unwrap();
    got
}

/// `XcclComm::price`, the number Auto compares regimes by, against the
/// coalesced driver it prices: one call on idle links. The price is that
/// driver's own march, jump included, on a kernel holding only the
/// priced links, so it matches to the nanosecond — single-repeat LL and
/// server schedules, links each lane has to itself, B's NICs shared by
/// two GCDs, which serve in ready-time order, and the benchmark's
/// 64-GPU cells alike.
#[test]
fn schedule_price_matches_the_coalesced_driver() {
    let mut cells = ll_cells();
    cells.extend(rserver_cells());
    for platform in [PlatformSpec::platform_a(), PlatformSpec::platform_b()] {
        let shapes = SHAPES.iter().chain(&[(2, 8)]).filter(|s| s.1 <= platform.gpus_per_node);
        for &(nodes, per_node) in shapes {
            for (engine, etag) in engines() {
                for (op, size, otag) in ops_and_sizes() {
                    let label = format!("{}/{etag}/{otag}@{nodes}x{per_node}", platform.name);
                    let cell = Cell {
                        platform: platform.clone(),
                        ..Cell::on_a(nodes, per_node, engine, op, size)
                    };
                    cells.push((label, cell));
                }
            }
        }
    }
    cells.extend(benchmark_cells());
    for (label, cell) in cells {
        let (price, driven) = priced_and_driven(&cell);
        assert_eq!(price, driven, "{label}: price vs driven, ns");
    }
}

/// The fed broadcast — the pinned tree's rooted layout — on the tuned
/// broadcast chunking, rooted on a middle node's middle GPU (a non-zero
/// one but on C): A 16×4, B 8×8 (two GCDs per NIC), C 16×1 (the root is
/// its own feeder) and A 2×4 (one other block: both trees are one
/// edge). 600 008 bytes leave a short last chunk.
fn fed_cells() -> Vec<(String, Cell)> {
    let (a, b, c) =
        (PlatformSpec::platform_a(), PlatformSpec::platform_b(), PlatformSpec::platform_c());
    [(a.clone(), 16, 4), (b, 8, 8), (c, 16, 1), (a, 2, 4)]
        .map(|(platform, nodes, per_node)| {
            let op = XcclOp::Broadcast { root: nodes / 2 * per_node + per_node / 2 };
            let rc = RingConfig::auto(&platform, &op, default_nrings(&platform));
            let label = format!("{}/fed@{nodes}x{per_node}", platform.name);
            let cell =
                Cell { platform, ..Cell::on_a(nodes, per_node, CollEngine::Dbt(rc), op, 600_008) };
            (label, cell)
        })
        .into()
}

/// Explicit ≡ coalesced ≡ unrolled on every fed shape, with and without a
/// seeded fault plan, and with contention armed (both arms explicit, the
/// unrolling too); and the price is the coalesced driver's to the
/// nanosecond.
#[test]
fn fed_broadcast_matches_explicit_unrolled_and_its_price() {
    for (label, cell) in fed_cells() {
        let plan = random_plan(5, &cell.platform, (cell.nodes, cell.per_node), Dur::millis(400.0));
        assert_three_way(&format!("{label}/clean"), &cell);
        assert_three_way(&format!("{label}/plan"), &Cell { plan, ..cell.clone() });
        let contended = Cell { contention: true, ..cell.clone() };
        let (fast, _) = assert_equiv(&format!("{label}/contended"), &contended);
        assert_eq!(fast.coalesced, 0, "{label}: contention must force the explicit driver");
        let (periodic, unrolled) =
            (run_cell(&contended, false, false), run_cell(&contended, false, true));
        assert_eq!(periodic.0, unrolled.0, "{label}/contended: unrolled diverged");
        let (price, driven) = priced_and_driven(&cell);
        assert_eq!(price, driven, "{label}: price vs driven, ns");
    }
}

/// What feeding buys: no NIC of the fed broadcast carries more than the
/// busiest NIC of the ring broadcast on the same chunking — about
/// `len / nrings`, where the top layout's root NIC moved every rail's
/// slice — up to a wire byte of rounding per chunk.
#[test]
fn fed_broadcast_loads_no_nic_beyond_the_ring() {
    for (label, cell) in fed_cells() {
        let CollEngine::Dbt(rc) = cell.engine else { unreachable!("fed cells pin the tree") };
        let ring = Cell { engine: CollEngine::Ring(rc), ..cell.clone() };
        let nic_max = |cell: &Cell| {
            let (out, _) = run_cell(cell, false, false);
            out.link_bytes.iter().step_by(2).copied().max().unwrap()
        };
        let (fed, ring) = (nic_max(&cell), nic_max(&ring));
        assert!(fed <= ring + ring / 1000, "{label}: busiest NIC {fed} B fed vs {ring} B ring");
    }
}
