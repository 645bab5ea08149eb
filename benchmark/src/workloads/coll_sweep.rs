//! `coll_sweep`: the Fig. 6 shape. Platform A on 16 nodes (64 GPUs) and
//! platform C on 16 nodes (16 GPUs), the `Tuner`'s Auto engine,
//! broadcast and allreduce(sum f32) at 32 KiB – 16 MiB, allgather
//! gathering 2 MiB and 8 MiB, and two allreduce cells on a communicator
//! whose last eight nodes are reduction servers. Two timed calls per
//! cell. Small cells run Functional with one more call that is
//! byte-checked against a sequential fold; large ones run CostOnly.
//!
//! *Why:* `xccl` does most of the work and the RMA path none. All four
//! Auto regimes fire, and the schedule march dominates host time.
//! Allgather always rings, so a regime change that helps one op and
//! hurts another shows.

use std::sync::{Arc, Mutex};

use diomp_core::{CollEngine, DiompConfig, DiompRuntime, ReduceOp, ServerSpec, XcclOp};
use diomp_device::{DataMode, DeviceTable};
use diomp_fabric::{FabricWorld, Loc, MpiRank};
use diomp_sim::{ClusterSpec, PlatformSpec, Sim, SimTime, Topology};

use super::{host_ns_where, Check, IterOut, Ledger, OpStats, Workload};
use crate::inputs::{fold_sum_f32, small_int_f32s, Rng};
use crate::paper;
use crate::trace::{Scope, Span, Tracer};

const NODES: usize = 16;
const SERVER_NODES: usize = 8;
/// Timed calls per cell.
const TIMED: usize = 2;
/// Cells up to this payload run Functional and are byte-checked ...
const FUNCTIONAL_MAX: u64 = 512 << 10;
/// ... provided the per-device buffer stays this small (allgather
/// buffers hold one payload per device, on up to 64 devices).
const FUNCTIONAL_BUF_MAX: u64 = 2 << 20;
/// Bytes the allgather cells gather in total; the payload per device is
/// this over the device count, so both platforms move the same volume.
const GATHERED: [u64; 2] = [2 << 20, 8 << 20];
const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Coll {
    Bcast,
    AllReduce,
    AllGather,
}

/// The Auto regimes: span name of a call the regime ran, and the metrics
/// reporting its host cost per call and its calls per iteration.
const REGIMES: [(&str, &str, &str); 4] = [
    ("ll", "xccl.coll_host_us_ll", "xccl.regime_calls_ll"),
    ("dbt", "xccl.coll_host_us_dbt", "xccl.regime_calls_dbt"),
    ("ring", "xccl.coll_host_us_ring", "xccl.regime_calls_ring"),
    ("rserver", "xccl.coll_host_us_rserver", "xccl.regime_calls_rserver"),
];

fn is_call(s: &Span) -> bool {
    s.layer == "xccl" && REGIMES.iter().any(|r| r.0 == s.name)
}

/// One cell of the sweep, with its seeded inputs.
#[derive(Clone, Debug)]
struct Cell {
    platform: char,
    coll: Coll,
    /// Size the cell is named after.
    nominal: u64,
    /// Payload actually sent: the nominal size less a seeded sliver.
    bytes: u64,
    /// Broadcast root rank (seeded).
    root: usize,
    /// Last `SERVER_NODES` nodes are reduction servers.
    served: bool,
    /// Seeded payload pattern of the Functional cells (`bytes` long).
    pattern: Arc<Vec<u8>>,
}

fn platform(tag: char) -> PlatformSpec {
    match tag {
        'A' => PlatformSpec::platform_a(),
        _ => PlatformSpec::platform_c(),
    }
}

impl Cell {
    fn ndev(&self) -> usize {
        NODES * platform(self.platform).gpus_per_node
    }

    fn buf_len(&self) -> u64 {
        let per = if self.coll == Coll::AllGather { self.ndev() as u64 } else { 1 };
        (self.bytes * per).max(64)
    }

    fn functional(&self) -> bool {
        self.nominal <= FUNCTIONAL_MAX && self.buf_len() <= FUNCTIONAL_BUF_MAX
    }

    fn config(&self, mode: DataMode, engine: Option<CollEngine>) -> DiompConfig {
        let heap = (2 * self.buf_len() + MIB).next_power_of_two();
        let servers =
            if self.served { ServerSpec::tail(SERVER_NODES) } else { ServerSpec::default() };
        let b = DiompConfig::builder_on(platform(self.platform), NODES)
            .with_mode(mode)
            .tuned()
            .with_heap(heap)
            .with_coll_servers(servers);
        match engine {
            Some(e) => b.with_coll_engine(e).build(),
            None => b.build(),
        }
    }

    /// Rank `r`'s payload: the pattern rotated by a rank-dependent
    /// stride. Allreduce payloads are small integers stored as f32, so
    /// every association of the sum is exact.
    fn data(&self, r: usize) -> Vec<u8> {
        let n = self.pattern.len();
        if self.coll == Coll::AllReduce {
            small_int_f32s(&self.pattern, r, n / 4)
        } else {
            let k = (131 * r) % n.max(1);
            self.pattern[k..].iter().chain(&self.pattern[..k]).copied().collect()
        }
    }

    /// What rank-ordered device `pos`'s buffer must hold after one call,
    /// given each device's ring position.
    fn expected(&self, ring_pos_of_rank: &[usize]) -> Vec<u8> {
        let ndev = ring_pos_of_rank.len();
        match self.coll {
            Coll::Bcast => self.data(self.root),
            Coll::AllReduce => {
                fold_sum_f32((0..ndev).map(|r| self.data(r)), self.pattern.len() / 4)
            }
            Coll::AllGather => {
                let len = self.bytes as usize;
                let mut out = vec![0u8; ndev * len];
                for (r, &pos) in ring_pos_of_rank.iter().enumerate() {
                    out[pos * len..(pos + 1) * len].copy_from_slice(&self.data(r));
                }
                out
            }
        }
    }
}

/// The sweep's cells with their inputs drawn from the seed.
fn gen_cells(seed: u64) -> Vec<Cell> {
    let mut rng = Rng::new(seed, 0xC011);
    let mut cells = Vec::new();
    for tag in ['A', 'C'] {
        let ndev = NODES * platform(tag).gpus_per_node;
        let gathered = GATHERED.map(|total| total / ndev as u64);
        let shapes: [(Coll, &[u64], bool); 4] = [
            (Coll::Bcast, &[32 * KIB, 512 * KIB, 4 * MIB, 16 * MIB], false),
            (Coll::AllReduce, &[32 * KIB, 512 * KIB, 4 * MIB, 16 * MIB], false),
            (Coll::AllGather, &gathered, false),
            (Coll::AllReduce, &[4 * MIB, 16 * MIB], true),
        ];
        for (coll, sizes, served) in shapes {
            for &nominal in sizes {
                // Up to 1/128 short of the nominal size, whole f32s: enough
                // to move a chunked schedule's last chunk at every size.
                let bytes = nominal - 4 * rng.below(nominal / 512);
                let mut cell = Cell {
                    platform: tag,
                    coll,
                    nominal,
                    bytes,
                    root: rng.below(ndev as u64) as usize,
                    served,
                    pattern: Arc::new(Vec::new()),
                };
                if cell.functional() {
                    cell.pattern = Arc::new(rng.bytes(bytes as usize));
                }
                cells.push(cell);
            }
        }
    }
    cells
}

/// What rank 0 saw of one cell run.
#[derive(Clone, Debug, Default)]
struct View {
    init_virt_us: f64,
    /// Index into [`REGIMES`].
    regime: usize,
    timed_us: Vec<f64>,
    /// Byte checks, all ranks.
    check: Check,
}

fn classify(cuts: Option<(u64, u64, u64)>, cell: &Cell) -> usize {
    let Some((ll, dbt, rsv)) = cuts else { return 2 };
    if cell.bytes <= ll {
        0
    } else if cell.bytes <= dbt {
        1
    } else if cell.served && cell.coll == Coll::AllReduce && rsv > 0 && cell.bytes >= rsv {
        3
    } else {
        2
    }
}

/// Run one cell. Returns `(virtual end, entries, coalesced, view)`.
fn run_cell(
    cell: &Cell,
    mode: DataMode,
    engine: Option<CollEngine>,
    tr: &Arc<Tracer>,
    scope: Scope,
) -> Option<(SimTime, u64, u64, View)> {
    let view = Arc::new(Mutex::new(View::default()));
    let expected: Arc<Mutex<Option<Arc<Vec<u8>>>>> = Arc::new(Mutex::new(None));
    let (view2, tr2, cell2) = (view.clone(), tr.clone(), cell.clone());
    let functional = mode == DataMode::Functional;
    let cfg = cell.config(mode, engine);
    let rep = tr.span(scope, "core", "DiompRuntime::run", cell.bytes, |scope| {
        DiompRuntime::run(cfg, move |ctx, rank| {
            let (tr, cell) = (&tr2, &cell2);
            let me = rank.rank;
            let dev = rank.primary();
            let world = rank.shared.world_group();
            let ptr = rank.alloc_sym(ctx, cell.buf_len()).expect("cell buffer fits the heap");
            if functional {
                tr.span(scope, "bench", "fill", cell.bytes, |_| {
                    rank.write_local(dev, ptr, 0, &cell.data(me));
                });
            }
            // No rank-0 span may be open while other ranks fill.
            rank.barrier(ctx);
            let t0 = ctx.now();
            let comm = if me == 0 {
                tr.span_virt(scope, "xccl", "XcclComm::init", 0, ctx, |ctx| {
                    rank.ompccl_comm(ctx, &world)
                })
            } else {
                rank.ompccl_comm(ctx, &world)
            };
            let init_virt_us = ctx.now().since(t0).as_us();
            let op = match cell.coll {
                Coll::Bcast => XcclOp::Broadcast {
                    root: comm.ring_pos(rank.shared.world.devices_of(cell.root).start),
                },
                Coll::AllReduce => XcclOp::AllReduce { op: ReduceOp::SumF32 },
                Coll::AllGather => XcclOp::AllGather,
            };
            let regime = classify(comm.auto_regimes(&op), cell);
            let call = |ctx: &mut diomp_sim::Ctx, rank: &mut diomp_core::DiompRank| match cell.coll
            {
                Coll::Bcast => rank.bcast(ctx, &world, cell.root, ptr, cell.bytes),
                Coll::AllReduce => rank.allreduce(ctx, &world, ptr, cell.bytes, ReduceOp::SumF32),
                Coll::AllGather => rank.allgather(ctx, &world, ptr, cell.bytes),
            };
            let traced_call = |ctx: &mut diomp_sim::Ctx, rank: &mut diomp_core::DiompRank| {
                if me == 0 {
                    tr.span_virt(scope, "xccl", REGIMES[regime].0, cell.bytes, ctx, |ctx| {
                        call(ctx, rank)
                    })
                } else {
                    call(ctx, rank)
                }
            };
            // The communicator is up, so the timed calls need no warm-up;
            // a Functional cell makes one more call first and byte-checks
            // it between two barriers.
            if functional {
                traced_call(ctx, rank);
                rank.barrier(ctx);
                let ok = tr.span(scope, "bench", "byte check", cell.bytes, |_| {
                    let want = expected
                        .lock()
                        .expect("expected lock")
                        .get_or_insert_with(|| {
                            let n = rank.nranks();
                            let pos: Vec<usize> = (0..n)
                                .map(|r| comm.ring_pos(rank.shared.world.devices_of(r).start))
                                .collect();
                            Arc::new(cell.expected(&pos))
                        })
                        .clone();
                    let mut got = vec![0u8; want.len()];
                    rank.read_local(dev, ptr, 0, &mut got);
                    got == *want
                });
                view2.lock().expect("view lock").check.record(ok);
                rank.barrier(ctx);
            }
            let mut timed_us = Vec::with_capacity(TIMED);
            for _ in 0..TIMED {
                let t0 = ctx.now();
                traced_call(ctx, rank);
                timed_us.push(ctx.now().since(t0).as_us());
            }
            if me == 0 {
                let mut v = view2.lock().expect("view lock");
                v.init_virt_us = init_virt_us;
                v.regime = regime;
                v.timed_us = timed_us;
            }
            rank.barrier(ctx);
        })
    });
    let rep = rep.ok()?;
    let v = std::mem::take(&mut *view.lock().expect("view lock"));
    Some((rep.end_time, rep.entries_processed, rep.coalesced_chunks, v))
}

/// The MPI arm of one Fig. 6 cell, µs per call as the latest rank sees it.
fn mpi_cell_us(cell: &Cell) -> Option<f64> {
    let mut sim = Sim::new();
    let spec = ClusterSpec::full_nodes(platform(cell.platform), NODES);
    let nranks = spec.total_gpus();
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let heap = (4 * cell.bytes + MIB).next_power_of_two();
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, Some(heap));
    let world = FabricWorld::new(topo, devs, nranks);
    let marks = Arc::new(Mutex::new((SimTime(u64::MAX), SimTime::ZERO, true)));
    for r in 0..nranks {
        let (world, marks, cell) = (world.clone(), marks.clone(), cell.clone());
        sim.spawn(format!("rank{r}"), move |ctx| {
            let mut mpi = MpiRank::new(world.clone(), r);
            let base = world.primary_dev(r).malloc(cell.bytes.max(64), 256).expect("device malloc");
            let buf = Loc::dev(r, base);
            let call = |ctx: &mut diomp_sim::Ctx, mpi: &mut MpiRank| match cell.coll {
                Coll::Bcast => mpi.bcast(ctx, cell.root, buf.clone(), cell.bytes).is_ok(),
                _ => mpi.allreduce(ctx, buf.clone(), cell.bytes, ReduceOp::SumF32).is_ok(),
            };
            let mut ok = call(ctx, &mut mpi);
            mpi.barrier(ctx);
            let t0 = ctx.now();
            for _ in 0..TIMED {
                ok &= call(ctx, &mut mpi);
            }
            let t1 = ctx.now();
            let mut m = marks.lock().expect("marks lock");
            *m = (m.0.min(t0), m.1.max(t1), m.2 && ok);
        });
    }
    sim.run().ok()?;
    let (t0, t1, ok) = *marks.lock().expect("marks lock");
    ok.then(|| t1.since(t0).as_us() / TIMED as f64)
}

pub struct CollSweep {
    cells: Vec<Cell>,
    /// Rank 0's view of the latest iteration, one per cell.
    last: Mutex<Vec<View>>,
}

pub fn prepare(seed: u64) -> Box<dyn Workload> {
    Box::new(CollSweep { cells: gen_cells(seed), last: Mutex::new(Vec::new()) })
}

impl CollSweep {
    fn mode(cell: &Cell) -> DataMode {
        if cell.functional() {
            DataMode::Functional
        } else {
            DataMode::CostOnly
        }
    }
}

impl Workload for CollSweep {
    fn verify(&self) -> Check {
        // Every iteration byte-checks its Functional cells; set-up checks
        // them once up front so a broken fold never reaches the window.
        let off = Arc::new(Tracer::new(false));
        let mut c = Check::default();
        for cell in self.cells.iter().filter(|c| c.functional()) {
            match run_cell(cell, DataMode::Functional, None, &off, Scope::default()) {
                Some((.., v)) => c.add(v.check),
                None => c.record(false),
            }
        }
        c
    }

    fn warm_up(&self) -> Check {
        // `verify` has just run the Functional half of an iteration; the
        // CostOnly cells differ from it only in size, and a cold first
        // iteration cannot move a median of six.
        Check::default()
    }

    fn iterate(&self, tr: &Arc<Tracer>, scope: Scope) -> IterOut {
        let mut out = IterOut::default();
        let mut views = Vec::with_capacity(self.cells.len());
        let mut timed_us = Vec::with_capacity(TIMED * self.cells.len());
        let mut bytes = 0u64;
        for cell in &self.cells {
            match run_cell(cell, Self::mode(cell), None, tr, scope) {
                Some((end, entries, coalesced, v)) => {
                    out.end_ns += end.nanos();
                    out.entries += entries;
                    out.coalesced += coalesced;
                    timed_us.extend_from_slice(&v.timed_us);
                    out.check.add(v.check);
                    out.check.attempted += TIMED as u64;
                    out.check.failed += (TIMED - v.timed_us.len().min(TIMED)) as u64;
                    bytes += cell.bytes * TIMED as u64;
                    views.push(v);
                }
                None => {
                    out.check.attempted += TIMED as u64;
                    out.check.failed += TIMED as u64;
                    views.push(View::default());
                }
            }
        }
        // Communicator init (~90 virtual ms per cell) would drown the
        // collectives, so the iteration's virtual time is the timed calls'.
        let op_ns = timed_us.iter().sum::<f64>() * 1e3;
        out.virt_ns = op_ns.round() as u64;
        out.goodput_gbps = if op_ns > 0.0 { bytes as f64 / op_ns } else { 0.0 };
        out.ops = OpStats::of(&timed_us);
        *self.last.lock().expect("view lock") = views;
        out
    }

    fn layer_metrics(&self, spans: &[Span], outs: &[IterOut]) -> Ledger {
        let iters = outs.len().max(1) as f64;
        let views = self.last.lock().expect("view lock").clone();
        let mut m = Ledger::new();

        // Host cost and call count per Auto regime, from rank 0's spans.
        // Every regime but LL marches a chunked schedule.
        let mut march_ns = 0;
        for (i, (name, host_metric, calls_metric)) in REGIMES.into_iter().enumerate() {
            let (ns, calls) = host_ns_where(spans, |s| s.layer == "xccl" && s.name == name);
            m.push((host_metric, ns as f64 / 1e3 / calls.max(1) as f64));
            m.push((calls_metric, calls as f64 / iters));
            if i > 0 {
                march_ns += ns;
            }
        }
        let chunks: u64 = outs.iter().map(|o| o.coalesced).sum();
        m.push(("xccl.host_ns_per_chunk", march_ns as f64 / chunks.max(1) as f64));

        // Virtual latency of the platform-A cells the metrics name.
        for (cell, v) in self.cells.iter().zip(&views) {
            if cell.platform != 'A' || cell.served || v.timed_us.is_empty() {
                continue;
            }
            let metric = match (cell.coll, cell.nominal / KIB) {
                (Coll::Bcast, 32) => "xccl.virt_us_bcast_32KiB",
                (Coll::Bcast, 4096) => "xccl.virt_us_bcast_4MiB",
                (Coll::Bcast, 16384) => "xccl.virt_us_bcast_16MiB",
                (Coll::AllReduce, 32) => "xccl.virt_us_allred_32KiB",
                (Coll::AllReduce, 4096) => "xccl.virt_us_allred_4MiB",
                (Coll::AllReduce, 16384) => "xccl.virt_us_allred_16MiB",
                (Coll::AllGather, 32) => "xccl.virt_us_allgather_32KiB",
                (Coll::AllGather, 128) => "xccl.virt_us_allgather_128KiB",
                _ => continue,
            };
            m.push((metric, v.timed_us.iter().sum::<f64>() / v.timed_us.len() as f64));
        }

        // Cells run in a fixed order, so the j-th run span of an
        // iteration is cell j.
        let runs_of = |j: usize| -> Vec<&Span> {
            spans
                .iter()
                .filter(|root| root.parent.is_none())
                .filter_map(|root| {
                    spans
                        .iter()
                        .filter(|s| s.parent == Some(root.id) && s.name == "DiompRuntime::run")
                        .nth(j)
                })
                .collect()
        };

        // Functional − CostOnly on the same cells: what applying real
        // bytes costs the collectives. The CostOnly twins run here, once,
        // under a private tracer.
        let twin = Arc::new(Tracer::new(true));
        let mut functional_ns = 0;
        for (j, cell) in self.cells.iter().enumerate().filter(|(_, c)| c.functional()) {
            for run in runs_of(j) {
                functional_ns += host_ns_where(spans, |s| s.parent == Some(run.id) && is_call(s)).0;
            }
            run_cell(cell, DataMode::CostOnly, None, &twin, Scope::default());
        }
        let (cost_only_ns, _) = host_ns_where(&twin.spans(), is_call);
        m.push((
            "xccl.data_apply_host_ms",
            (functional_ns as f64 / iters - cost_only_ns as f64) / 1e6,
        ));

        // Auto over the default ring on the cell where the gap is widest:
        // platform A, broadcast, 16 MiB.
        let wide = self
            .cells
            .iter()
            .position(|c| c.platform == 'A' && c.coll == Coll::Bcast && c.nominal == 16 * MIB)
            .expect("the sweep has the A/bcast/16MiB cell");
        let auto_ns: Vec<f64> = runs_of(wide).iter().map(|s| s.host_ns() as f64).collect();
        let ring_arm = Arc::new(Tracer::new(true));
        let ring = Some(CollEngine::default());
        run_cell(&self.cells[wide], DataMode::CostOnly, ring, &ring_arm, Scope::default());
        let (ring_ns, _) = host_ns_where(&ring_arm.spans(), |s| s.name == "DiompRuntime::run");
        m.push((
            "xccl.auto_over_ring_host_x",
            auto_ns.iter().sum::<f64>() / auto_ns.len().max(1) as f64 / ring_ns.max(1) as f64,
        ));

        // Accuracy against the paper's Fig. 6, MPI arm run here.
        let mut pairs = Vec::new();
        for &(tag, op, nominal, published) in &paper::FIG6 {
            let coll = if op == "bcast" { Coll::Bcast } else { Coll::AllReduce };
            let found = self.cells.iter().zip(&views).find(|(c, _)| {
                c.platform == tag && c.coll == coll && c.nominal == nominal && !c.served
            });
            let Some((cell, v)) = found else { continue };
            if let (Some(mpi_us), false) = (mpi_cell_us(cell), v.timed_us.is_empty()) {
                let diomp_us = v.timed_us.iter().sum::<f64>() / v.timed_us.len() as f64;
                pairs.push(((mpi_us / diomp_us).log10(), published));
            }
        }
        m.push(("apps.fig6_mae_log10", paper::mae(&pairs)));
        m.push(("apps.fig6_sign_agreement", paper::sign_agreement(&pairs)));
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_repeat_for_a_seed_and_differ_across_seeds() {
        let key = |seed| -> Vec<(u64, usize, Vec<u8>)> {
            gen_cells(seed).iter().map(|c| (c.bytes, c.root, c.pattern.to_vec())).collect()
        };
        assert_eq!(key(20250613), key(20250613));
        assert_ne!(key(20250613), key(7));
        let cells = gen_cells(7);
        assert_eq!(cells.len(), 2 * 12);
        for c in &cells {
            assert!(
                c.bytes % 4 == 0 && c.bytes <= c.nominal && c.nominal - c.bytes < c.nominal / 128
            );
            assert!(c.root < c.ndev());
            assert_eq!(c.functional(), !c.pattern.is_empty());
        }
        // Allgather cells gather the same volume on both platforms; only
        // the 2 MiB ones fit the Functional buffer cap.
        let ag = |p, n| {
            cells.iter().find(|c| c.platform == p && c.coll == Coll::AllGather && c.nominal == n)
        };
        assert!(ag('A', 32 * KIB).unwrap().functional());
        assert!(ag('C', 128 * KIB).unwrap().functional());
        assert!(!ag('A', 128 * KIB).unwrap().functional());
        assert!(!ag('C', 512 * KIB).unwrap().functional());
    }
}
