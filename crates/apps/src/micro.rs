//! Micro-benchmark drivers: point-to-point (Figs. 3–5) and collective
//! (Fig. 6) measurements.
//!
//! One DiOMP probe per kind ([`diomp_p2p`], [`diomp_collective`]), each
//! taking a plain config the caller builds at the call site, beside the
//! MPI reference probes. Each boots a fresh deterministic simulation per
//! data point and returns one row per message size. The paper averages 100
//! repetitions after warm-ups; the simulator is deterministic, so one
//! warm-up (to populate caches, streams and communicators) plus a small
//! number of measured repetitions is exact.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use diomp_core::{
    CollEngine, Conduit, DiompConfig, DiompRank, DiompRuntime, PipelineConfig, ServerSpec,
};
use diomp_device::{DataMode, DeviceTable};
use diomp_fabric::{FabricWorld, Loc, MpiRank, ReduceOp};
use diomp_sim::{bandwidth_gbps, ClusterSpec, Ctx, PlatformSpec, Sim, SimTime, Topology};

/// Which RMA direction a P2P micro-benchmark measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RmaOp {
    /// One-sided put (+ completion).
    Put,
    /// One-sided get.
    Get,
}

/// Which collective Fig. 6 measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollKind {
    /// Broadcast from rank 0.
    Broadcast,
    /// Sum all-reduce.
    AllReduce,
}

const WARMUP: usize = 2;
const REPS: usize = 3;

/// What a P2P probe reports per size.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Metric {
    /// Mean per-operation latency in µs (Fig. 3).
    LatencyUs,
    /// Achieved bandwidth in GB/s (Figs. 4–5).
    BandwidthGbps,
}

impl Metric {
    fn of(self, size: u64, us: f64) -> f64 {
        match self {
            Metric::LatencyUs => us,
            Metric::BandwidthGbps => bandwidth_gbps(size, diomp_sim::Dur::micros(us)),
        }
    }
}

/// One DiOMP point-to-point probe (inter-node, device buffers): every
/// Fig. 3–5 curve is this with a different field. The pipeline is
/// always explicit — [`PipelineConfig::auto`] for the tuned default
/// path, [`PipelineConfig::disabled`] for the paper's published
/// (unpipelined) curves including the Fig. 4a put anomaly,
/// [`PipelineConfig::enabled`] for the legacy hand-tuned constants.
#[derive(Clone, Copy)]
pub struct P2pProbe<'a> {
    /// Platform the two nodes are built from.
    pub platform: &'a PlatformSpec,
    /// Conduit under the runtime.
    pub conduit: Conduit,
    /// RMA direction.
    pub op: RmaOp,
    /// Large-message pipeline configuration.
    pub pipeline: PipelineConfig,
    /// Reported metric.
    pub metric: Metric,
}

/// Run a [`P2pProbe`]: `(size, metric, scheduler entries)` rows. The
/// entry count is the whole run's `SimReport::entries_processed` — the
/// wall-clock scheduler cost tracked in `BENCH_*.json`.
pub fn diomp_p2p(probe: &P2pProbe, sizes: &[u64]) -> Vec<(u64, f64, u64)> {
    let &P2pProbe { platform, conduit, op, pipeline, metric } = probe;
    sizes
        .iter()
        .map(|&size| {
            let heap = (4 * size + (1 << 20)).next_power_of_two();
            let cfg = DiompConfig::builder_on(platform.clone(), 2)
                .with_mode(DataMode::CostOnly)
                .with_conduit(conduit)
                .with_heap(heap)
                .with_pipeline(pipeline)
                .build();
            let out = Rc::new(RefCell::new(0.0f64));
            let out2 = out.clone();
            let target = platform.gpus_per_node; // first device on node 1
            let rep = DiompRuntime::run(cfg, move |ctx, rank| {
                let ptr = rank.alloc_sym(ctx, 2 * size.max(64)).unwrap();
                rank.barrier(ctx);
                if rank.rank == 0 {
                    let mut acc = 0.0;
                    for i in 0..WARMUP + REPS {
                        let t0 = ctx.now();
                        match op {
                            RmaOp::Put => rank.put(ctx, target, ptr, 0, ptr, 0, size).unwrap(),
                            RmaOp::Get => rank.get(ctx, target, ptr, 0, ptr, 0, size).unwrap(),
                        }
                        rank.fence(ctx);
                        if i >= WARMUP {
                            acc += ctx.now().since(t0).as_us();
                        }
                    }
                    *out2.borrow_mut() = acc / REPS as f64;
                }
                rank.barrier(ctx);
            })
            .unwrap();
            let us = *out.borrow();
            (size, metric.of(size, us), rep.entries_processed)
        })
        .collect()
}

/// A bare cost-only fabric world over `spec` (no DiOMP runtime on top):
/// what the MPI reference probes and the scale sweep run on, one rank
/// per device.
fn bare_world(sim: &Sim, spec: ClusterSpec, heap: u64) -> Rc<FabricWorld> {
    let nranks = spec.total_gpus();
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, Some(heap));
    FabricWorld::new(topo, devs, nranks)
}

/// MPI RMA latency or bandwidth per size — the "MPI Put/Get" curves of
/// Figs. 3–4 (window put/get + flush).
pub fn mpi_p2p(
    platform: &PlatformSpec,
    op: RmaOp,
    sizes: &[u64],
    metric: Metric,
) -> Vec<(u64, f64)> {
    sizes
        .iter()
        .map(|&size| {
            let mut sim = Sim::new();
            let spec = ClusterSpec::full_nodes(platform.clone(), 2);
            let per_node = spec.gpus_per_node;
            let heap = (4 * size + (1 << 20)).next_power_of_two();
            let world = bare_world(&sim, spec, heap);
            let out = Rc::new(RefCell::new(0.0f64));
            for r in 0..world.nranks {
                let world = world.clone();
                let out = out.clone();
                sim.spawn(format!("rank{r}"), move |ctx| {
                    let mpi = MpiRank::new(world.clone(), r);
                    let base = world.primary_dev(r).malloc(2 * size.max(64), 256).unwrap();
                    let win = mpi.win_create(ctx, Loc::dev(r, base), 2 * size.max(64));
                    if r == 0 {
                        let mut acc = 0.0;
                        for i in 0..WARMUP + REPS {
                            let t0 = ctx.now();
                            let local = Loc::dev(0, base);
                            match op {
                                RmaOp::Put => mpi.win_put(ctx, win, per_node, 0, local, size),
                                RmaOp::Get => mpi.win_get(ctx, win, per_node, 0, local, size),
                            }
                            .unwrap();
                            mpi.win_flush(ctx, win);
                            if i >= WARMUP {
                                acc += ctx.now().since(t0).as_us();
                            }
                        }
                        *out.borrow_mut() = acc / REPS as f64;
                    }
                    mpi.barrier(ctx);
                });
            }
            sim.run().unwrap();
            let us = *out.borrow();
            (size, metric.of(size, us))
        })
        .collect()
}

/// One DiOMP collective probe — the OMPCCL side of Fig. 6 and every
/// engine comparison built on it. Timing ring, DBT and the server
/// schedule through the *same* probe is what makes those comparisons
/// fair: same hardware, same communicator membership, differing only in
/// which protocol moves the bytes.
#[derive(Clone, Copy)]
pub struct CollProbe<'a> {
    /// Platform the cluster is built from.
    pub platform: &'a PlatformSpec,
    /// Full nodes in the cluster.
    pub nodes: usize,
    /// Trailing nodes carved out as data-passive in-network reduction
    /// servers (0 for none). Only allreduce has a server schedule; other
    /// ops fall back to the ring over the full communicator.
    pub server_nodes: usize,
    /// Which collective.
    pub kind: CollKind,
    /// Completion-time engine.
    pub engine: CollEngine,
}

/// Run a [`CollProbe`]: `(size, µs, scheduler entries)` rows. The
/// communicator is initialised during warm-up, as in the paper's
/// methodology; the entry count is the whole run's
/// `SimReport::entries_processed` — the wall-clock scheduler cost the
/// schedule drivers keep bounded for the ring engine.
pub fn diomp_collective(probe: &CollProbe, sizes: &[u64]) -> Vec<(u64, f64, u64)> {
    let &CollProbe { platform, nodes, server_nodes, kind, engine } = probe;
    sizes
        .iter()
        .map(|&size| {
            let heap = (2 * size + (1 << 20)).next_power_of_two();
            let cfg = DiompConfig::builder_on(platform.clone(), nodes)
                .with_mode(DataMode::CostOnly)
                .with_heap(heap)
                .with_coll_engine(engine)
                .with_coll_servers(ServerSpec::tail(server_nodes))
                .build();
            let done = Rc::new(RefCell::new((SimTime::ZERO, SimTime::ZERO)));
            let done2 = done.clone();
            let rep = DiompRuntime::run(cfg, move |ctx, rank| {
                let world = rank.shared.world_group();
                let ptr = rank.alloc_sym(ctx, size.max(64)).unwrap();
                let run = |ctx: &mut Ctx, rank: &mut DiompRank| match kind {
                    CollKind::Broadcast => rank.bcast(ctx, &world, 0, ptr, size),
                    CollKind::AllReduce => rank.allreduce(ctx, &world, ptr, size, ReduceOp::SumF32),
                };
                // Warm-up round initialises the communicator and rings.
                for _ in 0..WARMUP {
                    run(ctx, rank);
                }
                rank.barrier(ctx);
                let t0 = ctx.now();
                let mut t1 = t0;
                for _ in 0..REPS {
                    run(ctx, rank);
                    t1 = ctx.now();
                }
                if rank.rank == 0 {
                    *done2.borrow_mut() = (t0, t1);
                }
                rank.barrier(ctx);
            })
            .unwrap();
            let (t0, t1) = *done.borrow();
            (size, t1.since(t0).as_us() / REPS as f64, rep.entries_processed)
        })
        .collect()
}

/// What a [`CollProbe`]'s communicator prices, read off one member's
/// communicator over the probe's cluster, running nothing.
#[derive(Default)]
pub struct CollPrice {
    /// Auto's regime boundaries (`None` for the other engines).
    pub cuts: Option<(u64, u64, u64)>,
    /// One call of each size, µs
    /// ([`XcclComm::price`](diomp_core::XcclComm::price)).
    pub us: Vec<(u64, f64)>,
}

/// [`CollPrice`] of `probe` at `sizes`.
pub fn collective_price(probe: &CollProbe, sizes: &[u64]) -> CollPrice {
    use diomp_core::{CommOpts, UniqueId, XcclComm, XcclOp};
    let &CollProbe { platform, nodes, server_nodes, kind, engine } = probe;
    let mut sim = Sim::new();
    let world = bare_world(&sim, ClusterSpec::full_nodes(platform.clone(), nodes), 1 << 20);
    let op = match kind {
        CollKind::Broadcast => XcclOp::Broadcast { root: 0 },
        CollKind::AllReduce => XcclOp::AllReduce { op: ReduceOp::SumF32 },
    };
    let out = Rc::new(RefCell::new(CollPrice::default()));
    let (out2, sizes) = (out.clone(), sizes.to_vec());
    sim.spawn("rank0", move |ctx| {
        let servers = ServerSpec::tail(server_nodes);
        let ranks = (0..world.nranks).collect();
        let opts = CommOpts { engine, servers, ..CommOpts::default() };
        let comm = XcclComm::init(ctx, &world, ranks, 0, UniqueId::generate(), opts);
        let priced = sizes.iter().map(|&s| (s, comm.price(&op, s).map_or(0.0, |d| d.as_us())));
        *out2.borrow_mut() = CollPrice { cuts: comm.auto_regimes(&op), us: priced.collect() };
    });
    sim.run().expect("pricing a collective never blocks");
    let mut out = out.borrow_mut();
    std::mem::take(&mut *out)
}

/// MPI collective latency (µs) per size — the MPI side of Fig. 6.
/// Completion is the latest rank's finish time, like the vendor-library
/// measurement.
pub fn mpi_collective(
    platform: &PlatformSpec,
    nodes: usize,
    kind: CollKind,
    sizes: &[u64],
) -> Vec<(u64, f64)> {
    sizes
        .iter()
        .map(|&size| {
            let mut sim = Sim::new();
            let spec = ClusterSpec::full_nodes(platform.clone(), nodes);
            let heap = (4 * size + (1 << 20)).next_power_of_two();
            let world = bare_world(&sim, spec, heap);
            // (start, latest finish) across ranks, per measured rep.
            let marks = Rc::new(RefCell::new((SimTime::ZERO, SimTime::ZERO)));
            for r in 0..world.nranks {
                let world = world.clone();
                let marks = marks.clone();
                sim.spawn(format!("rank{r}"), move |ctx| {
                    let mut mpi = MpiRank::new(world.clone(), r);
                    let base = world.primary_dev(r).malloc(size.max(64), 256).unwrap();
                    let buf = Loc::dev(r, base);
                    let run = |ctx: &mut Ctx, mpi: &mut MpiRank| {
                        match kind {
                            CollKind::Broadcast => mpi.bcast(ctx, 0, buf.clone(), size),
                            CollKind::AllReduce => {
                                mpi.allreduce(ctx, buf.clone(), size, ReduceOp::SumF32)
                            }
                        }
                        .unwrap()
                    };
                    for _ in 0..WARMUP {
                        run(ctx, &mut mpi);
                    }
                    mpi.barrier(ctx);
                    let t0 = ctx.now();
                    for _ in 0..REPS {
                        run(ctx, &mut mpi);
                    }
                    let t1 = ctx.now();
                    let mut m = marks.borrow_mut();
                    if m.0 == SimTime::ZERO || t0 < m.0 {
                        m.0 = t0;
                    }
                    m.1 = m.1.max(t1);
                });
            }
            sim.run().unwrap();
            let (t0, t1) = *marks.borrow();
            (size, t1.since(t0).as_us() / REPS as f64)
        })
        .collect()
}

/// Fig. 6's reported metric: `log10(t_MPI / t_DiOMP)` per size.
pub fn log_ratio(mpi: &[(u64, f64)], diomp: &[(u64, f64)]) -> Vec<(u64, f64)> {
    mpi.iter()
        .zip(diomp)
        .map(|(&(s, m), &(s2, d))| {
            assert_eq!(s, s2);
            (s, (m / d).log10())
        })
        .collect()
}

/// The per-figure GPU/node counts of the paper's §4.3 setup.
pub fn fig6_nodes(platform: &PlatformSpec) -> usize {
    match platform.id {
        diomp_sim::PlatformId::A => 16, // 64 GPUs
        diomp_sim::PlatformId::B => 8,  // 64 GCDs
        diomp_sim::PlatformId::C => 16, // 16 GPUs
        diomp_sim::PlatformId::Custom => 4,
    }
}

/// One scale-sweep measurement: the virtual end time plus the
/// simulator's *own* scheduler cost for the run.
pub struct ScaleRun {
    /// Virtual end-of-run time in nanoseconds — bit-comparable between
    /// the coalesced and forced-explicit arms.
    pub end_ns: u64,
    /// Virtual time of the allreduce itself, gate to completion, ns.
    pub op_ns: u64,
    /// Scheduler heap entries popped over the whole run.
    pub entries: u64,
    /// Chunk completions credited to coalesced wake entries (0 on the
    /// forced-explicit arm).
    pub coalesced: u64,
    /// Wall-clock milliseconds the scheduler loop itself took.
    pub sim_wall_ms: f64,
}

/// Run one `bytes`-byte allreduce over `nranks` single-GPU nodes of the
/// NDR-IB platform (C) in cost-only mode — one `fig_scale` cell. Every
/// rank is its own node, so the ring is single-rail and every edge
/// crosses the network; rank count, not node fan-out, is the swept
/// variable. With `forced_explicit` the run pins the explicit per-chunk
/// driver ([`Sim::force_explicit_schedules`]) — the uncoalesced
/// reference arm; virtual time must be bit-identical either way, which
/// `fig_scale` and the bench gate assert wherever both arms run.
pub fn scale_allreduce(
    nranks: usize,
    engine: CollEngine,
    bytes: u64,
    forced_explicit: bool,
) -> ScaleRun {
    use diomp_core::{CommOpts, DeviceBuf, UniqueId, XcclComm, XcclOp};
    let mut sim = Sim::new();
    if forced_explicit {
        sim.force_explicit_schedules(true);
    }
    let spec =
        ClusterSpec { platform: PlatformSpec::platform_c(), nodes: nranks, gpus_per_node: 1 };
    let world = bare_world(&sim, spec, (2 * bytes + (1 << 20)).next_power_of_two());
    let id = UniqueId::generate();
    let ranks: Arc<Vec<usize>> = Arc::new((0..nranks).collect());
    let op_ns = Rc::new(RefCell::new(0));
    for r in 0..nranks {
        let (world, ranks, op_ns) = (world.clone(), ranks.clone(), op_ns.clone());
        sim.spawn(format!("rank{r}"), move |ctx| {
            let comm = XcclComm::init(
                ctx,
                &world,
                ranks.as_ref().clone(),
                r,
                id,
                CommOpts { engine, ..CommOpts::default() },
            );
            let dev = world.primary_dev(r);
            let off = dev.malloc(bytes.max(64), 256).unwrap();
            let t0 = ctx.now();
            comm.collective(
                ctx,
                r,
                vec![DeviceBuf { flat: r, off }],
                XcclOp::AllReduce { op: ReduceOp::SumF32 },
                bytes,
            );
            if r == 0 {
                *op_ns.borrow_mut() = ctx.now().since(t0).as_nanos();
            }
        });
    }
    let rep = sim.run().expect("scale sweep deadlocked");
    let op_ns = *op_ns.borrow();
    ScaleRun {
        end_ns: rep.end_time.nanos(),
        op_ns,
        entries: rep.entries_processed,
        coalesced: rep.coalesced_chunks,
        sim_wall_ms: rep.sim_wall_ms,
    }
}
