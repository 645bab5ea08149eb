//! `scale_ranks`: the `fig_scale` shape. Platform C, 2048 single-GPU
//! nodes, one 16 MiB allreduce under the tuned ring, then the double
//! binary tree, then Auto — built straight from `Sim`, `Topology`,
//! `DeviceTable`, `FabricWorld` and `XcclComm`, so every boundary is
//! visible from outside.
//!
//! *Why:* a run pops only a few thousand scheduler entries, so host time
//! is thread spawn, park and teardown, per-rank schedule derivation and
//! table build (ROADMAP item A). A per-entry optimisation must show
//! nothing here.

use std::sync::{Arc, Mutex};

use diomp_core::{
    CollEngine, CommOpts, Conduit, DeviceBuf, ReduceOp, Tuner, UniqueId, XcclComm, XcclOp,
};
use diomp_device::{DataMode, DeviceTable};
use diomp_fabric::FabricWorld;
use diomp_sim::{ClusterSpec, PlatformSpec, Sim, Topology};

use super::{host_ns_where, Check, IterOut, Ledger, OpStats, Workload};
use crate::inputs::{fold_sum_f32, small_int_f32s, Rng};
use crate::stats::log_slope;
use crate::trace::{Scope, Span, Tracer};

/// Ranks (= single-GPU nodes) of the measured runs.
pub const RANKS: usize = 2048;
/// Ranks of the Functional correctness pass.
const VERIFY_RANKS: usize = 64;
const VERIFY_BYTES: u64 = 64 << 10;
/// Rank ladder of `sim.scale_exponent`, one ring run each.
const LADDER: [usize; 4] = [256, 1024, RANKS, 4096];
const OP: XcclOp = XcclOp::AllReduce { op: ReduceOp::SumF32 };

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Engine {
    Ring,
    Dbt,
    Auto,
}

const ENGINES: [Engine; 3] = [Engine::Ring, Engine::Dbt, Engine::Auto];

impl Engine {
    fn name(self) -> &'static str {
        match self {
            Engine::Ring => "allreduce/ring",
            Engine::Dbt => "allreduce/dbt",
            Engine::Auto => "allreduce/auto",
        }
    }

    /// The engine as the `Tuner` derives it for platform C over GASNet-EX.
    fn resolve(self, tr: &Tracer, scope: Scope) -> CollEngine {
        let platform = PlatformSpec::platform_c();
        tr.span(scope, "core", "Tuner::new", 0, |_| {
            let tuner = Tuner::new(&platform, Conduit::GasnetEx);
            match self {
                Engine::Ring => CollEngine::Ring(tuner.ring_config(&OP)),
                Engine::Dbt => CollEngine::Dbt(tuner.ring_config(&OP)),
                Engine::Auto => tuner.coll_engine(),
            }
        })
    }
}

/// What one allreduce run produced.
struct RunOut {
    end_ns: u64,
    entries: u64,
    coalesced: u64,
    run_host_ms: f64,
    /// Rank 0's virtual latency of communicator init and of the allreduce, µs.
    init_virt_us: f64,
    op_virt_us: f64,
    /// Byte checks (Functional runs only).
    check: Check,
}

/// One allreduce of `bytes` over `nranks` single-GPU nodes of platform C.
/// With `pattern`, runs Functional and byte-checks every rank.
fn run_allreduce(
    nranks: usize,
    engine: Engine,
    bytes: u64,
    pattern: Option<Arc<Vec<u8>>>,
    tr: &Arc<Tracer>,
    scope: Scope,
) -> Option<RunOut> {
    let mode = if pattern.is_some() { DataMode::Functional } else { DataMode::CostOnly };
    let coll_engine = engine.resolve(tr, scope);
    let mut sim = Sim::new();
    let spec =
        ClusterSpec { platform: PlatformSpec::platform_c(), nodes: nranks, gpus_per_node: 1 };
    let topo = tr.span(scope, "sim", "Topology::build", 0, |_| {
        Arc::new(Topology::build(&sim.handle(), spec))
    });
    let heap = (2 * bytes + (1 << 20)).next_power_of_two();
    let devs = tr.span(scope, "device", "DeviceTable::build", 0, |_| {
        DeviceTable::build(&sim.handle(), topo.clone(), mode, Some(heap))
    });
    let world =
        tr.span(scope, "fabric", "FabricWorld::new", 0, |_| FabricWorld::new(topo, devs, nranks));
    let id = UniqueId::generate();
    let ranks: Arc<Vec<usize>> = Arc::new((0..nranks).collect());
    let seen = Arc::new(Mutex::new((0.0f64, 0.0f64, Check::default())));
    // Rank 0's spans hang from the `Sim::run` span, which opens after the
    // spawn loop; rank 0 reads the scope once it runs.
    let run_scope = Arc::new(Mutex::new(scope));
    let elems = bytes as usize / 4;
    let expected: Option<Arc<Vec<u8>>> = pattern
        .as_ref()
        .map(|p| Arc::new(fold_sum_f32((0..nranks).map(|r| small_int_f32s(p, r, elems)), elems)));
    tr.span(scope, "sim", "Sim::spawn", 0, |_| {
        for r in 0..nranks {
            let (world, ranks, seen, tr) = (world.clone(), ranks.clone(), seen.clone(), tr.clone());
            let (pattern, expected) = (pattern.clone(), expected.clone());
            let run_scope = run_scope.clone();
            sim.spawn(format!("rank{r}"), move |ctx| {
                let scope = *run_scope.lock().expect("scope lock");
                let opts = CommOpts { engine: coll_engine, ..CommOpts::default() };
                let t0 = ctx.now();
                let init = |ctx: &mut diomp_sim::Ctx| {
                    XcclComm::init(ctx, &world, ranks.as_ref().clone(), r, id, opts)
                };
                let comm = if r == 0 {
                    tr.span_virt(scope, "xccl", "XcclComm::init", 0, ctx, init)
                } else {
                    init(ctx)
                };
                let init_us = ctx.now().since(t0).as_us();
                let dev = world.primary_dev(r);
                let off = dev.malloc(bytes.max(64), 256).expect("device malloc");
                if let Some(p) = &pattern {
                    dev.mem.write(off, &small_int_f32s(p, r, elems)).expect("payload write");
                }
                let t0 = ctx.now();
                let call = |ctx: &mut diomp_sim::Ctx| {
                    comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], OP, bytes)
                };
                if r == 0 {
                    tr.span_virt(scope, "xccl", engine.name(), bytes, ctx, call);
                } else {
                    call(ctx);
                }
                let op_us = ctx.now().since(t0).as_us();
                let mut s = seen.lock().expect("seen lock");
                if r == 0 {
                    (s.0, s.1) = (init_us, op_us);
                }
                if let Some(want) = &expected {
                    let mut got = vec![0u8; want.len()];
                    dev.mem.read(off, &mut got).expect("payload read");
                    s.2.record(got == **want);
                }
            });
        }
    });
    let rep = tr.span(scope, "sim", "Sim::run", 0, |inner| {
        *run_scope.lock().expect("scope lock") = inner;
        sim.run()
    });
    let rep = rep.ok()?;
    let s = seen.lock().expect("seen lock");
    Some(RunOut {
        end_ns: rep.end_time.nanos(),
        entries: rep.entries_processed,
        coalesced: rep.coalesced_chunks,
        run_host_ms: rep.sim_wall_ms,
        init_virt_us: s.0,
        op_virt_us: s.1,
        check: s.2,
    })
}

pub struct ScaleRanks {
    /// Allreduce payload: 16 MiB less a seeded number of 8 KiB slivers,
    /// so it still splits into whole f32 tokens per rank.
    bytes: u64,
    pattern: Arc<Vec<u8>>,
    last: Mutex<Vec<(f64, f64)>>,
}

pub fn prepare(seed: u64) -> Box<dyn Workload> {
    let mut rng = Rng::new(seed, 0x5CA1);
    let bytes = (16 << 20) - 4 * RANKS as u64 * rng.below(8);
    Box::new(ScaleRanks {
        bytes,
        pattern: Arc::new(rng.bytes(VERIFY_BYTES as usize)),
        last: Mutex::new(Vec::new()),
    })
}

impl Workload for ScaleRanks {
    fn verify(&self) -> Check {
        let off = Arc::new(Tracer::new(false));
        let mut c = Check::default();
        for e in ENGINES {
            let pattern = Some(self.pattern.clone());
            match run_allreduce(VERIFY_RANKS, e, VERIFY_BYTES, pattern, &off, Scope::default()) {
                Some(r) => c.add(r.check),
                None => c.record(false),
            }
        }
        c
    }

    fn warm_up(&self) -> Check {
        // One full-scale run faults in what 2048 rank threads touch; a
        // whole iteration would triple the set-up for nothing more.
        let off = Arc::new(Tracer::new(false));
        let run = run_allreduce(RANKS, Engine::Ring, self.bytes, None, &off, Scope::default());
        let mut c = Check::default();
        c.record(run.is_some());
        c
    }

    fn iterate(&self, tr: &Arc<Tracer>, scope: Scope) -> IterOut {
        let mut out = IterOut::default();
        let mut views = Vec::new();
        let mut op_us = Vec::with_capacity(ENGINES.len());
        for e in ENGINES {
            out.check.attempted += 1;
            match run_allreduce(RANKS, e, self.bytes, None, tr, scope) {
                Some(r) => {
                    out.end_ns += r.end_ns;
                    out.entries += r.entries;
                    out.coalesced += r.coalesced;
                    op_us.push(r.op_virt_us);
                    views.push((r.run_host_ms, r.init_virt_us));
                }
                None => out.check.failed += 1,
            }
        }
        let op_ns = op_us.iter().sum::<f64>() * 1e3;
        out.virt_ns = op_ns.round() as u64;
        out.ops = OpStats::of(&op_us);
        out.goodput_gbps =
            if op_ns > 0.0 { (self.bytes * ENGINES.len() as u64) as f64 / op_ns } else { 0.0 };
        *self.last.lock().expect("view lock") = views;
        out
    }

    fn layer_metrics(&self, spans: &[Span], _outs: &[IterOut]) -> Ledger {
        let views = self.last.lock().expect("view lock").clone();
        let mean_ms = |name: &str| {
            let (ns, n) = host_ns_where(spans, |s| s.name == name);
            ns as f64 / 1e6 / n.max(1) as f64
        };
        let run_ms = mean_ms("Sim::run");
        let kernel_ms = views.iter().map(|v| v.0).sum::<f64>() / views.len().max(1) as f64;
        let whole_ms = ["Tuner::new", "Topology::build", "DeviceTable::build", "FabricWorld::new"]
            .iter()
            .map(|n| mean_ms(n))
            .sum::<f64>()
            + mean_ms("Sim::spawn")
            + run_ms;
        let mut m: Ledger = vec![
            ("sim.spawn_host_ms", mean_ms("Sim::spawn")),
            // The scheduler loop as `SimReport::sim_wall_ms` times it;
            // what `Sim::run` takes beyond that is joining the threads.
            ("sim.run_host_ms", kernel_ms),
            ("sim.join_host_ms", (run_ms - kernel_ms).max(0.0)),
            ("sim.host_us_per_rank", whole_ms * 1e3 / RANKS as f64),
            ("device.build_host_ms", mean_ms("DeviceTable::build")),
            ("fabric.build_host_ms", mean_ms("FabricWorld::new")),
            ("xccl.init_host_ms", mean_ms("XcclComm::init")),
            ("xccl.init_virt_us", views.first().map_or(0.0, |v| v.1)),
            ("core.tune_host_ms", mean_ms("Tuner::new")),
        ];
        // Log-slope of one ring run's host time over the rank ladder.
        let off = Arc::new(Tracer::new(false));
        let points: Vec<(f64, f64)> = LADDER
            .iter()
            .map(|&n| {
                let t = std::time::Instant::now();
                run_allreduce(n, Engine::Ring, self.bytes, None, &off, Scope::default());
                (n as f64, t.elapsed().as_secs_f64())
            })
            .collect();
        m.push(("sim.scale_exponent", log_slope(&points)));
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_seeded_and_still_splits_into_whole_tokens() {
        for seed in 0..32 {
            let mut rng = Rng::new(seed, 0x5CA1);
            let bytes = (16 << 20) - 4 * RANKS as u64 * rng.below(8);
            assert_eq!(bytes % (4 * RANKS as u64), 0);
            assert!(bytes > (16 << 20) - (64 << 10));
        }
    }
}
