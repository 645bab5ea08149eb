//! CI perf-regression gate.
//!
//! Re-runs a deterministic subset of the figure measurements and every
//! DESIGN.md ablation (chunked-pipeline put, batched fence, ring vs
//! calibrated curve, the transport autotuner, the LL/tree, DBT and
//! reduction-server regimes, fault hooks, tenancy, recovery, the scale
//! sweep), emits them as `BENCH_*.json`, and compares against the
//! committed baseline. Every row declares which way is [`Better`]; a
//! move the other way beyond 10 % — in the simulated metric or in the
//! scheduler-entry count (`entries_processed`, always lower-is-better) —
//! fails the build (a price's `*/err` row: any rise past 1e-12, absolute,
//! since float residue on a zero error is no move), as does a row the
//! baseline does not know, a baseline row no longer measured, or two rows
//! under one name. The acceptance relations *between* rows (Auto beats
//! the ring at ≤ 64 KiB, Auto's broadcast loses to neither the ring nor
//! the pinned tree across Fig. 6, the server schedule beats the best
//! client protocol at ≥ 16 MiB, fair-share bounds, …) are hard: each is
//! checked where its operands are measured, and all broken ones are
//! reported together with the regressions.
//! Everything measured is a virtual-time quantity, so the baseline is
//! machine-independent and an unchanged model matches it *exactly*; the
//! last line says how many rows do.
//!
//! Usage:
//!   bench_gate [--json PATH] [--baseline PATH] [--update]
//!
//! `--update` rewrites the baseline file with the current measurements
//! (run after an intentional performance change and commit the result)
//! and prints a before/after diff of every row it refreshed.

use diomp_apps::cannon;
use diomp_apps::micro::{
    collective_price, curve_collective, diomp_collective, diomp_p2p, fig6_nodes, scale_allreduce,
    CollKind, CollProbe, Metric, P2pProbe, RmaOp,
};
use diomp_apps::minimod::{self, HaloStyle, MinimodConfig};
use diomp_apps::workload::{self, run_workload};
use diomp_bench::report::{
    json_path_from_args, parse_json, write_if_requested, write_json, BenchRecord,
};
use diomp_bench::{fig7_cfg, fig8_cfg, paper, scale_engines, size_label};
use diomp_core::{
    default_nrings, CollEngine, Conduit, DiompConfig, DiompRuntime, PipelineConfig, ReduceOp,
    RingConfig, Tuner, XcclOp,
};
use diomp_device::DataMode;
use diomp_sim::{ClusterSpec, PlatformSpec, QosClass, Wait};

/// Allowed relative slack before a change counts as a regression.
const TOLERANCE: f64 = 0.10;

/// Allowed absolute slack of a `*/err` row (a price's relative error,
/// where a price that equals its run reads 0 up to float residue).
const ERR_TOLERANCE: f64 = 1e-12;

/// Which way a row's value improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Better {
    Lower,
    Higher,
}
use Better::{Higher, Lower};

/// What a measurement pass produces: the rows, each with the direction
/// it is gated in, and the hard relations between them that broke.
#[derive(Default)]
struct Gate {
    rows: Vec<(BenchRecord, Better)>,
    broken: Vec<String>,
}

impl Gate {
    fn row(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &str,
        better: Better,
        entries: Option<u64>,
    ) {
        let rec = BenchRecord { entries_processed: entries, ..BenchRecord::new(name, value, unit) };
        self.rows.push((rec, better));
    }

    /// A hard relation: collected, not asserted, so one run reports
    /// every broken one.
    fn check(&mut self, holds: bool, msg: impl FnOnce() -> String) {
        if !holds {
            self.broken.push(msg());
        }
    }
}

fn platforms() -> [(&'static str, PlatformSpec); 3] {
    [
        ("A", PlatformSpec::platform_a()),
        ("B", PlatformSpec::platform_b()),
        ("C", PlatformSpec::platform_c()),
    ]
}

/// The table-tuned allreduce chunking the pinned ring / DBT / server
/// engines run under — the strongest client-side configuration.
fn tuned_allred(platform: &PlatformSpec) -> RingConfig {
    let op = XcclOp::AllReduce { op: ReduceOp::SumF32 };
    RingConfig::auto(platform, &op, default_nrings(platform))
}

/// Two single-GPU platform-A nodes in cost-only mode: the fence and
/// fault-hook rig.
fn two_a100_nodes(heap: u64) -> DiompConfig {
    let platform = PlatformSpec::platform_a();
    DiompConfig::builder(ClusterSpec { platform, nodes: 2, gpus_per_node: 1 })
        .with_mode(DataMode::CostOnly)
        .with_heap(heap)
        .build()
}

fn measure() -> Gate {
    let mut g = Gate::default();
    p2p(&mut g);
    staged_put(&mut g);
    fence(&mut g);
    halo(&mut g);
    apps(&mut g);
    collectives(&mut g);
    ring_tracks_curve(&mut g);
    fault_hooks(&mut g);
    tenancy(&mut g);
    work_conservation(&mut g);
    reduction_servers(&mut g);
    server_tenant(&mut g);
    recovery(&mut g);
    scale(&mut g);
    g
}

/// Fig. 4 put bandwidth — monolithic, chunk-pipelined under the legacy
/// explicit constants, and under the autotuner's knee-derived pipeline,
/// which must clear the Fig. 4a put cap like the hand-tuned one does —
/// and the Fig. 3 headline through the tuned default path: flat µs-scale
/// small-message latency must survive the tuner.
fn p2p(g: &mut Gate) {
    for (tag, platform) in platforms() {
        let tag = tag.to_lowercase();
        let put = |pipeline, metric, sizes: &[u64]| {
            let (conduit, op) = (Conduit::GasnetEx, RmaOp::Put);
            diomp_p2p(&P2pProbe { platform: &platform, conduit, op, pipeline, metric }, sizes)
        };
        let tuned = PipelineConfig::auto(&platform, Conduit::GasnetEx);
        for (suffix, pipeline, sizes) in [
            ("", PipelineConfig::disabled(), &[4u64 << 20, 64 << 20][..]),
            ("_pipelined", PipelineConfig::enabled(), &[4 << 20, 64 << 20]),
            ("_tuned", tuned, &[64 << 20]),
        ] {
            for (s, gbps, entries) in put(pipeline, Metric::BandwidthGbps, sizes) {
                let name = format!("fig4{tag}/diomp_put{suffix}_{}", size_label(s));
                g.row(name, gbps, "GB/s", Higher, Some(entries));
            }
        }
        let lat = put(tuned, Metric::LatencyUs, &[8 << 10]);
        g.row(format!("fig3{tag}/diomp_put_8KB"), lat[0].1, "us", Lower, None);
    }
}

/// The staged put as a reservation chain (DESIGN D8), 16 MiB on the tuned
/// platform-A path: what the call holds the caller for, and bytes over
/// fenced time of one put and of a put opposed by a get — which use the
/// other direction of every link, so together they must move at least
/// 1.7× what the put moves alone.
fn staged_put(g: &mut Gate) {
    let len = 16u64 << 20;
    let pipeline = PipelineConfig::auto(&PlatformSpec::platform_a(), Conduit::GasnetEx);
    let cfg = DiompConfig { pipeline, ..two_a100_nodes(64 << 20) };
    let us = std::rc::Rc::new(std::cell::Cell::new([0.0; 3]));
    let out = us.clone();
    let rep = DiompRuntime::run(cfg, move |ctx, rank| {
        let (a, b) = (rank.alloc_sym(ctx, len).unwrap(), rank.alloc_sym(ctx, len).unwrap());
        rank.barrier(ctx);
        if rank.rank == 0 {
            let t0 = ctx.now();
            rank.put(ctx, 1, a, 0, a, 0, len).unwrap();
            let t1 = ctx.now();
            rank.fence(ctx);
            let t2 = ctx.now();
            rank.put(ctx, 1, a, 0, a, 0, len).unwrap();
            rank.get(ctx, 1, b, 0, b, 0, len).unwrap();
            rank.fence(ctx);
            let spans = [t1.since(t0), t2.since(t0), ctx.now().since(t2)];
            out.set(spans.map(|d| d.as_us()));
        }
        rank.barrier(ctx);
    })
    .unwrap();
    let [call_us, put_us, both_us] = us.get();
    let (put, both) = (len as f64 / put_us / 1e3, 2.0 * len as f64 / both_us / 1e3);
    g.check(both >= 1.7 * put, || {
        format!("staged put: put + get move {both:.2} GB/s, under 1.7x the put's {put:.2}")
    });
    g.row("fig4a/diomp_put_tuned_16MB", put, "GB/s", Higher, Some(rep.entries_processed));
    g.row("fig4a/diomp_putget_tuned_16MB", both, "GB/s", Higher, None);
    g.row("ablation/staged_put_call_us_16MB", call_us, "us", Lower, None);
}

/// One-sleep fence (DESIGN D9): virtual time and entry count of a fence
/// over 1000 outstanding puts — one sleep to the latest completion
/// instant, no event per put.
fn fence(g: &mut Gate) {
    let rep = DiompRuntime::run(two_a100_nodes(64 << 20), |ctx, rank| {
        let ptr = rank.alloc_sym(ctx, 256 << 10).unwrap();
        rank.barrier(ctx);
        if rank.rank == 0 {
            for _ in 0..1000 {
                rank.put(ctx, 1, ptr, 0, ptr, 0, 256 << 10).unwrap();
            }
            rank.fence(ctx);
        }
        rank.barrier(ctx);
    })
    .unwrap();
    let (us, entries) = (rep.end_time.as_us(), rep.entries_processed);
    g.row("ablation/fence1000_batched", us, "us", Lower, Some(entries));
}

/// Notified halo exchange: per-step time and scheduler entries of the
/// minimod halo styles at 8 ranks on the InfiniBand platform. Gates both
/// the notification machinery's virtual-time cost and the entry saving
/// of the barrier-free waitsome drain.
fn halo(g: &mut Gate) {
    for (name, halo) in
        [("ordered", HaloStyle::NotifyOrdered), ("waitsome", HaloStyle::NotifyWaitsome)]
    {
        let (platform, mode) = (PlatformSpec::platform_c(), DataMode::CostOnly);
        let cfg = MinimodConfig::cube(platform, 8, 240, 10, mode, halo);
        let r = minimod::diomp::run(&cfg);
        let us_per_step = r.elapsed.as_us() / cfg.steps as f64;
        let name = format!("fig_halo/{name}_us_per_step_8gpus");
        g.row(name, us_per_step, "us", Lower, Some(r.entries));
    }
}

/// Figs. 7–8 at the top of each ladder: the ring matmul's speedup over
/// its own first rung, Minimod's over MPI's first rung (the paper's
/// baselines), and Minimod's step time — the rows ROADMAP F moves.
fn apps(g: &mut Gate) {
    for (tag, platform, fig7, fig8) in [
        ("A", PlatformSpec::platform_a(), &paper::FIG7_GPUS_A[..], &paper::FIG8_GPUS_A[..]),
        ("B", PlatformSpec::platform_b(), &paper::FIG7_GPUS_B[..], &paper::FIG8_GPUS_B[..]),
    ] {
        let ends = [fig7[0], fig7[fig7.len() - 1]];
        for (arm, run) in [("diomp", cannon::diomp::run as CannonArm), ("mpi", cannon::mpi::run)] {
            let top = cannon::speedup_series(|g| run(&fig7_cfg(&platform, g)), &ends, None)[1];
            g.row(format!("fig7/{arm}_speedup_{tag}_{}", top.0), top.1, "x", Higher, None);
        }
        let (lo, hi) = (fig8[0], fig8[fig8.len() - 1]);
        let base = minimod::mpi::run(&fig8_cfg(&platform, lo)).elapsed.as_us();
        let d = minimod::diomp::run(&fig8_cfg(&platform, hi));
        let m = minimod::mpi::run(&fig8_cfg(&platform, hi));
        for (arm, r) in [("diomp", &d), ("mpi", &m)] {
            let name = format!("fig8/{arm}_speedup_{tag}_{hi}");
            g.row(name, base / r.elapsed.as_us(), "x", Higher, Some(r.entries));
        }
        let step_us = d.elapsed.as_us() / paper::FIG8_SIM_STEPS as f64;
        g.row(format!("fig8/diomp_us_per_step_{tag}_{hi}"), step_us, "us", Lower, None);
    }
}
type CannonArm = fn(&cannon::CannonConfig) -> cannon::CannonResult;

/// Collective engines at the Fig. 6 device counts.
fn collectives(g: &mut Gate) {
    let allred = CollKind::AllReduce;
    for (tag, platform) in platforms() {
        let nodes = fig6_nodes(&platform);
        let run = |kind, engine, sizes: &[u64]| {
            let probe = CollProbe { platform: &platform, nodes, server_nodes: 0, kind, engine };
            diomp_collective(&probe, sizes)
        };
        let ring_engine = CollEngine::default();

        // The ring allreduce on 64 A100s; the entry count gates the
        // schedule driver's scheduler cost.
        if tag == "A" {
            for (s, us, entries) in run(allred, ring_engine, &[1 << 20, 64 << 20]) {
                let name = format!("fig6/allred_A_{}/ring", size_label(s));
                g.row(name, us, "us", Lower, Some(entries));
            }
        }

        // Protocol selection: CollEngine::Auto vs the pure ring across
        // all three regimes. The LL/tree path must win outright at small
        // sizes; in the mid band Auto runs the DBT where it is priced to
        // win and the (tuned) ring otherwise — either way it must not
        // lose to the untuned ring; the large sizes stay within 5 %.
        let ac = Tuner::new(&platform, Conduit::GasnetEx).auto_config();
        let auto_engine = CollEngine::Auto(ac);
        for (op_tag, kind, op) in [
            ("bcast", CollKind::Broadcast, XcclOp::Broadcast { root: 0 }),
            ("allred", allred, XcclOp::AllReduce { op: ReduceOp::SumF32 }),
        ] {
            let sizes = [32u64 << 10, 64 << 10, 1 << 20, 16 << 20];
            let auto = run(kind, auto_engine, &sizes);
            let ring = run(kind, ring_engine, &sizes);
            // The price Auto's cuts compare, against what Auto ran.
            let probe = CollProbe {
                platform: &platform,
                nodes,
                server_nodes: 0,
                kind,
                engine: auto_engine,
            };
            for (&(s, auto_us, _), (_, price_us)) in
                auto.iter().zip(collective_price(&probe, &sizes).us)
            {
                let name = format!("price/{tag}_{op_tag}_{}/err", size_label(s));
                g.row(name, (price_us / auto_us - 1.0).abs(), "x", Lower, None);
            }
            for (&(s, auto_us, auto_entries), &(_, ring_us, ring_entries)) in auto.iter().zip(&ring)
            {
                let sz = size_label(s);
                let (holds, must) = if s <= 64 << 10 {
                    (auto_us < ring_us, "beat the ring at small sizes")
                } else if s <= 1 << 20 {
                    (auto_us <= ring_us * 1.01, "not lose to the ring in the mid band")
                } else {
                    (auto_us <= ring_us * 1.05, "stay within 5% of the ring at large sizes")
                };
                g.check(holds, || {
                    format!(
                        "{op_tag}/{tag}@{sz}: Auto ({auto_us:.1}µs) must {must} ({ring_us:.1}µs)"
                    )
                });
                let name = format!("fig6/{op_tag}_{tag}_{sz}/auto");
                g.row(name, auto_us, "us", Lower, Some(auto_entries));
                // Lock the small/mid-size ring reference so the
                // auto-vs-ring gap stays visible in history — except
                // A/allred@1MB, which the ring row above already records.
                if s <= 1 << 20 && !(tag == "A" && kind == allred && s == 1 << 20) {
                    let name = format!("fig6/{op_tag}_{tag}_{sz}/ring");
                    g.row(name, ring_us, "us", Lower, Some(ring_entries));
                }
            }

            // Auto's regret (ROADMAP B): how much slower Auto is than the
            // best engine it owns, pinned on Auto's own live chunking —
            // 1.00 where the closed-form crossovers pick right. No
            // relation: the rows record the mis-selection inside and just
            // above the LL band so that it can only shrink.
            let rc = ac.ring_for(&op);
            let cells = [32u64 << 10, 256 << 10];
            let arms = [auto_engine, CollEngine::Ring(rc), CollEngine::Dbt(rc)]
                .map(|engine| run(kind, engine, &cells));
            for (i, &s) in cells.iter().enumerate() {
                let best = arms.iter().map(|arm| arm[i].1).fold(f64::INFINITY, f64::min);
                let name = format!("fig6/{op_tag}_{tag}_{}/auto_regret", size_label(s));
                g.row(name, arms[0][i].1 / best, "x", Lower, None);
            }

            // Across the whole Fig. 6 broadcast sweep Auto must run no
            // slower than the ring or the pinned tree, which is always fed:
            // Auto keeps the top layout only where it prices faster.
            if kind == CollKind::Broadcast {
                let sweep = [auto_engine, CollEngine::Ring(rc), CollEngine::Dbt(rc)]
                    .map(|engine| run(kind, engine, &paper::FIG6_BCAST_SIZES));
                for (i, &(s, auto_us, _)) in sweep[0].iter().enumerate() {
                    let (ring_us, dbt_us) = (sweep[1][i].1, sweep[2][i].1);
                    g.check(auto_us <= ring_us.min(dbt_us), || {
                        format!(
                            "bcast/{tag}@{}: Auto ({auto_us:.1}µs) must not lose to the ring \
                             ({ring_us:.1}µs) or the pinned DBT ({dbt_us:.1}µs)",
                            size_label(s)
                        )
                    });
                }
            }
        }

        // The double-binary-tree engine itself, pinned via
        // CollEngine::Dbt: it must beat the ring outright at a mid-band
        // allreduce cell on every platform — 1 MiB on A and C; 512 KiB
        // on B, whose calibrated link efficiency (2.7 % of the wire)
        // starves ring and tree alike so only the latency overhead is
        // saveable and its band closes just past 512 KiB. The large-size
        // no-harm relation is Auto's (checked above at 16 MiB — the
        // dispatcher prices the DBT out of the band there); the raw
        // 16 MiB DBT row is still locked in the baseline so a schedule
        // regression shows up in history.
        let win_cell = if tag == "B" { 512u64 << 10 } else { 1 << 20 };
        let sizes = [win_cell, 16 << 20];
        let dbt = run(allred, CollEngine::Dbt(tuned_allred(&platform)), &sizes);
        let ring = run(allred, ring_engine, &sizes);
        for (&(s, dbt_us, dbt_entries), &(_, ring_us, _)) in dbt.iter().zip(&ring) {
            let sz = size_label(s);
            g.check(s != win_cell || dbt_us < ring_us, || {
                format!(
                    "allred/{tag}@{sz}: DBT ({dbt_us:.1}µs) must beat the ring ({ring_us:.1}µs) \
                     in the mid band"
                )
            });
            g.row(format!("fig6/allred_{tag}_{sz}/dbt"), dbt_us, "us", Lower, Some(dbt_entries));
        }

        // Table-tuned ring chunking: RingConfig::auto must do no harm vs
        // the legacy 128 KiB/4 constants at the bandwidth-bound top end,
        // locked on the 64 GPU / 64 MiB allreduce cell.
        if tag == "A" {
            let tuned = run(allred, CollEngine::Ring(tuned_allred(&platform)), &[64 << 20])[0];
            let legacy = run(allred, ring_engine, &[64 << 20])[0];
            g.check(tuned.1 <= legacy.1 * 1.05, || {
                format!(
                    "tuned ring chunking ({:.1}µs) must not regress the legacy constants ({:.1}µs)",
                    tuned.1, legacy.1
                )
            });
            g.row("fig6/allred_A_64MB/ring_tuned", tuned.1, "us", Lower, Some(tuned.2));
        }
    }
}

/// The emergent ring-protocol curves must stay within tolerance of the
/// calibrated whole-collective curves ([`curve_collective`]) across the
/// Fig. 6 size sweep on all three platforms: anchor sizes spanning the
/// latency-, mid- and bandwidth-dominated regimes of both heatmap rows.
/// One row per cell: the factor the ring's time and the curve's differ
/// by, whichever is slower (a plain quotient, so the row is exact on
/// every machine). The relations are over those rows, as `log10` of the
/// factor.
fn ring_tracks_curve(g: &mut Gate) {
    /// Per-cell cap on the log10 deviation. The loosest cells are the
    /// fitted LL-protocol dips (e.g. RCCL's very fast small-message
    /// broadcast) that a Simple-protocol ring structurally cannot
    /// reproduce.
    const CELL_TOL: f64 = 0.80;
    /// Cap on the mean log10 deviation across a platform/op sweep.
    const MAE_TOL: f64 = 0.45;
    /// Cap at the largest message: the ring's self-calibrated link
    /// efficiency must land the emergent asymptote on the curve's top
    /// control point.
    const ASYMPTOTE_TOL: f64 = 0.15;
    for (tag, platform) in platforms() {
        let nodes = fig6_nodes(&platform);
        for (op_tag, kind, sizes) in [
            ("bcast", CollKind::Broadcast, [32u64 << 10, 512 << 10, 4 << 20, 64 << 20]),
            ("allred", CollKind::AllReduce, [128 << 10, 1 << 20, 16 << 20, 64 << 20]),
        ] {
            let engine = CollEngine::default();
            let probe = CollProbe { platform: &platform, nodes, server_nodes: 0, kind, engine };
            let ring = diomp_collective(&probe, &sizes);
            let curve = curve_collective(&platform, nodes, kind, &sizes);
            let first = g.rows.len();
            for (r, p) in ring.iter().zip(&curve) {
                let name = format!("fig6/{op_tag}_{tag}_{}/ring_vs_profile", size_label(r.0));
                g.row(name, (r.1 / p.1).max(p.1 / r.1), "x", Lower, None);
            }
            let cells: Vec<(String, f64)> =
                g.rows[first..].iter().map(|(r, _)| (r.name.clone(), r.value.log10())).collect();
            for (name, lg) in &cells {
                g.check(*lg <= CELL_TOL, || format!("{name}: {lg:.2} > {CELL_TOL}"));
            }
            let mae = cells.iter().map(|c| c.1).sum::<f64>() / cells.len() as f64;
            g.check(mae <= MAE_TOL, || {
                format!("fig6/{op_tag}_{tag} ring vs curve: MAE {mae:.2} > {MAE_TOL}")
            });
            let (name, last) = cells.last().expect("sweep has sizes");
            g.check(*last <= ASYMPTOTE_TOL, || {
                format!("{name}: asymptote off by {last:.2} (> {ASYMPTOTE_TOL})")
            });
        }
    }
}

/// Fault-injection hooks: with a plan whose windows, task prefixes and
/// keys never match, the hooks must cost *nothing* — same virtual end
/// time, same scheduler entry count, same run digest. The locked ratio row
/// keeps the zero-cost claim visible in CI history.
fn fault_hooks(g: &mut Gate) {
    use diomp_sim::{fault_key, CtrlFault, Dur, FaultPlan, Sim};
    let run = |armed: bool| {
        let mut sim = Sim::new();
        if armed {
            // Inert plan: a straggle prefix no task carries and a
            // control key no protocol consumes. Arming it switches every
            // injection hook on (the per-transfer perturb lookup, the
            // per-delay straggle scaling) with nothing to fire.
            let plan = FaultPlan::new()
                .straggle("no-such-task", 2000)
                .ctrl_fault(fault_key("bench-inert", 0, 0), CtrlFault::Drop);
            sim.set_fault_plan(plan);
        }
        let shared = DiompRuntime::build(&sim, two_a100_nodes(8 << 20));
        for r in 0..2 {
            let shared = shared.clone();
            sim.spawn(format!("diomp-rank{r}"), move |ctx| {
                let mut rank = diomp_core::DiompRank {
                    shared,
                    rank: r,
                    cache: diomp_core::PtrCache::new(),
                    rma_retries: 0,
                };
                let ptr = rank.alloc_sym(ctx, 1 << 20).unwrap();
                rank.barrier(ctx);
                if rank.rank == 0 {
                    for _ in 0..32 {
                        rank.put(ctx, 1, ptr, 0, ptr, 0, 1 << 20).unwrap();
                    }
                    rank.fence(ctx);
                }
                rank.barrier(ctx);
                let world = rank.shared.world_group();
                rank.allreduce(ctx, &world, ptr, 256 << 10, ReduceOp::SumF64);
                ctx.delay(Dur::micros(5.0));
                rank.barrier(ctx);
            });
        }
        let rep = sim.run().unwrap();
        (rep.end_time, rep.entries_processed, rep.digest)
    };
    let (clean, armed) = (run(false), run(true));
    g.check(clean == armed, || {
        format!("inert fault hooks must be zero-cost: clean {clean:?} vs armed {armed:?}")
    });
    let overhead = armed.0.as_us() / clean.0.as_us();
    g.row("chaos/fault_off_overhead", overhead, "x", Lower, Some(armed.1));
}

/// Multi-tenant shared-fabric contention + QoS: the canonical 8-job
/// scenario — two High, four Normal, two Low tenants overlapping on two
/// platform-A nodes. A lone tenant on a contention-armed sim replays the
/// disarmed run bit-identically; every class's p99 stays under its
/// weighted-fair-share bound; the High tenants' p99 under full 8-way
/// load stays within a fixed factor of idle.
fn tenancy(g: &mut Gate) {
    let disarmed = run_workload(&workload::canonical_idle_workload(false));
    let idle = run_workload(&workload::canonical_idle_workload(true));
    g.check(disarmed.end_time == idle.end_time, || {
        "a lone tenant must replay bit-identically whether or not contention is armed".into()
    });
    let idle_p99 = idle.jobs[0].p99_us;

    let loaded = run_workload(&workload::canonical_workload(true));
    let class_p99 = |q: QosClass| {
        loaded.jobs.iter().filter(|j| j.qos == q).map(|j| j.p99_us).fold(0.0, f64::max)
    };
    let total_w: u64 = loaded.jobs.iter().map(|j| j.qos.weight_milli() as u64).sum();
    for (tag, q) in [("high", QosClass::High), ("normal", QosClass::Normal), ("low", QosClass::Low)]
    {
        let p99 = class_p99(q);
        // Weighted fair sharing bounds any class's slowdown by the
        // inverse of its weight share (wire time scales by at most
        // Σw/w_q; software overheads don't scale at all); 25% slack
        // covers scheduling quantisation.
        let bound = idle_p99 * (total_w as f64 / q.weight_milli() as f64) * 1.25;
        g.check(p99 <= bound, || {
            format!(
                "tenancy/{tag}: p99 {p99:.1}µs exceeds the fair-share bound {bound:.1}µs \
                 (idle {idle_p99:.1}µs)"
            )
        });
        let entries = (tag == "high").then_some(loaded.entries_processed);
        g.row(format!("tenancy/8job_{tag}_p99"), p99, "us", Lower, entries);
    }
    let qos_factor = class_p99(QosClass::High) / idle_p99;
    g.check(qos_factor <= 4.0, || {
        format!("tenancy: High p99 under 8-way load is {qos_factor:.2}x idle (must stay ≤ 4x)")
    });
    g.row("tenancy/qos_high_p99_factor", qos_factor, "x", Lower, None);
    let entries = Some(loaded.entries_processed);
    g.row("tenancy/8job_makespan", loaded.makespan_us, "us", Lower, entries);
    // Achieved-vs-table bandwidth of the busiest High tenant, locked so
    // a fair-queue pricing regression shows up as lost wire share.
    let high = loaded
        .jobs
        .iter()
        .find(|j| j.qos == QosClass::High)
        .expect("canonical scenario has High tenants");
    let frac = high.achieved_gbps / high.table_gbps;
    g.row("tenancy/8job_high_achieved_frac", frac, "x", Higher, None);
}

/// Work conservation of the weighted fair queue itself: eight
/// saturating flows on one raw link must jointly achieve the link's
/// table bandwidth (within 2 %) — the fluid scheduler may never idle a
/// wire that has backlogged flows.
fn work_conservation(g: &mut Gate) {
    use diomp_sim::{Dur, Sim, SimTime};
    let mut sim = Sim::new();
    sim.enable_contention();
    let h = sim.handle();
    let bpns = 25.0; // one 25 GB/s NIC port
    let res = h.new_resource(bpns, Dur::micros(1.0));
    let weights = [4000u32, 4000, 1000, 1000, 1000, 1000, 250, 250];
    let flows: Vec<_> = weights.iter().map(|&w| h.new_flow(w)).collect();
    for (i, &flow) in flows.iter().enumerate() {
        let h = sim.handle();
        sim.spawn(format!("flow{i}"), move |ctx| {
            let cq = h.open_cq();
            for tag in 0..10 {
                h.transfer_qos(res, flow, SimTime::ZERO, 4 << 20, (cq, tag));
            }
            let mut landed = Vec::new();
            while landed.len() < 10 {
                ctx.wait_cq(cq, Wait::Block).expect("a blocking wait cannot time out");
                h.drain_cq(cq, &mut landed);
            }
        });
    }
    sim.run().unwrap();
    let stats: Vec<_> = flows.iter().map(|&f| h.flow_stats(f)).collect();
    let first = stats.iter().filter_map(|s| s.first_start).min().expect("flows ran");
    let last = stats.iter().map(|s| s.last_depart).max().expect("flows ran");
    let total_bytes: u64 = stats.iter().map(|s| s.bytes).sum();
    let frac = total_bytes as f64 / last.since(first).as_nanos() as f64 / bpns;
    g.check((0.98..=1.02).contains(&frac), || {
        format!("work conservation: 8 backlogged flows achieved {frac:.4}x of link capacity")
    });
    g.row("tenancy/work_conservation", frac, "x", Higher, None);
}

/// In-network reduction offload: on a cluster whose trailing half is
/// carved out as data-passive reduction servers, the server schedule
/// must beat both client-side protocols outright at the injection-bound
/// sizes — every client NIC moves each byte once instead of ≈2× — and
/// the four-regime Auto dispatcher must track the best engine within
/// 5 % across the whole size range. All engines are timed on the *same*
/// server-equipped communicator, ring and DBT under their table-tuned
/// chunking.
fn reduction_servers(g: &mut Gate) {
    for (tag, platform) in [("A", PlatformSpec::platform_a()), ("C", PlatformSpec::platform_c())] {
        let (nodes, server_nodes, kind) = (16, 8, CollKind::AllReduce);
        let sizes = [256u64 << 10, 1 << 20, 16 << 20, 64 << 20];
        let run = |engine| {
            diomp_collective(
                &CollProbe { platform: &platform, nodes, server_nodes, kind, engine },
                &sizes,
            )
        };
        let rc = tuned_allred(&platform);
        let ring = run(CollEngine::Ring(rc));
        let dbt = run(CollEngine::Dbt(rc));
        let rsv = run(CollEngine::ReductionServer(rc));
        let auto = run(Tuner::new(&platform, Conduit::GasnetEx).coll_engine());
        for i in 0..sizes.len() {
            let (s, ring_us, ring_entries) = ring[i];
            let (dbt_us, (_, rsv_us, rsv_entries), (_, auto_us, auto_entries)) =
                (dbt[i].1, rsv[i], auto[i]);
            let sz = size_label(s);
            let injection_bound = s >= 16 << 20;
            let best_client = ring_us.min(dbt_us);
            g.check(!injection_bound || rsv_us < best_client, || {
                format!(
                    "rserver/{tag}@{sz}: the server schedule ({rsv_us:.1}µs) must beat the best \
                     client-side protocol (ring {ring_us:.1}µs, dbt {dbt_us:.1}µs) at \
                     injection-bound sizes"
                )
            });
            // No-harm across the whole range: below its server band the
            // dispatcher prices among the client-side protocols (the
            // fourth regime opens above the LL band and ends the DBT band
            // beneath it), so the reference there is the ring fallback — the
            // same engine `collectives` gates Auto against on
            // server-free communicators; inside the win region it must
            // track the best of all three — i.e. actually take the
            // offload.
            let best = if injection_bound { best_client.min(rsv_us) } else { ring_us };
            g.check(auto_us <= best * 1.05, || {
                format!(
                    "rserver/{tag}@{sz}: Auto ({auto_us:.1}µs) must stay within 5% of the best \
                     engine ({best:.1}µs) on a server-equipped communicator"
                )
            });
            g.row(format!("rserver/allred_{tag}_{sz}/rsv"), rsv_us, "us", Lower, Some(rsv_entries));
            let name = format!("rserver/allred_{tag}_{sz}/auto");
            g.row(name, auto_us, "us", Lower, Some(auto_entries));
            // The client-side reference at the win cells, so the offload
            // margin stays visible in CI history.
            if injection_bound {
                let name = format!("rserver/allred_{tag}_{sz}/ring");
                g.row(name, ring_us, "us", Lower, Some(ring_entries));
            }
        }
    }
}

/// The server-offload tenant scenario: the canonical 8-job mix with one
/// tenant provisioned a reduction-server node. Its fan-back bytes must
/// land on its own server flow (per-tenant fabric accounting stays
/// total) and nobody else's; the single-tenant armed==disarmed identity
/// must survive the second flow.
fn server_tenant(g: &mut Gate) {
    let disarmed = run_workload(&workload::server_idle_workload(false));
    let armed = run_workload(&workload::server_idle_workload(true));
    g.check(disarmed.end_time == armed.end_time, || {
        "a lone server-equipped tenant must replay bit-identically under the fair queue".into()
    });
    let loaded = run_workload(&workload::server_workload(true));
    for (i, j) in loaded.jobs.iter().enumerate() {
        g.check((j.server_flow_bytes > 0) == (i == 1), || {
            format!(
                "{}: server fan-back must be charged to the server tenant's flow and to no \
                 serverless tenant (saw {} bytes)",
                j.name, j.server_flow_bytes
            )
        });
    }
    // A byte count has no better direction; any move shows as an inexact row.
    let bytes = loaded.jobs[1].server_flow_bytes as f64;
    let entries = Some(loaded.entries_processed);
    g.row("rserver/8job_server_flow_bytes", bytes, "bytes", Lower, entries);
}

/// Elastic rank-failure recovery: the canonical 8-job mix with rank 3
/// killed halfway through the collective stream. Arming the recovery
/// layer on a healthy fabric costs at most 5 % (the checkpoint-epoch
/// no-harm bound — checkpoints charge real modelled copy time at HBM
/// rate) and never shrinks or retries; under the kill every surviving
/// job still completes all its iterations, the affected tenants shrink,
/// every one of them detects the death within 10 ms of the kill (the
/// collectives in flight across it abort from a bounded runner park),
/// and the worst per-job recovery latency stays inside the honest
/// rebuild cost (detection timeout + rollback + backoff + a full
/// communicator re-init, which `xccl_init_us` dominates at ~90 ms).
fn recovery(g: &mut Gate) {
    let disarmed = run_workload(&workload::canonical_workload(true));
    let armed_idle = run_workload(&workload::recovery_idle_workload());
    let overhead = armed_idle.end_time.as_us() / disarmed.end_time.as_us();
    g.check(overhead <= 1.05, || {
        format!(
            "recovery: an armed-but-idle recovery layer costs {overhead:.4}x (must stay ≤ 1.05x)"
        )
    });
    g.check(armed_idle.jobs.iter().all(|j| j.retries == 0 && j.recovery_us == 0.0), || {
        "recovery: a healthy fabric must never shrink or retry".into()
    });
    g.row("recovery/checkpoint_overhead", overhead, "x", Lower, None);

    let spec = workload::recovery_workload();
    let kill_us =
        spec.faults.as_ref().expect("the scenario kills a rank").rank_kills()[0].1.as_us();
    let rec = run_workload(&spec);
    let shrunk = rec.jobs.iter().filter(|j| j.retries > 0).count();
    g.check(shrunk >= 4, || {
        format!("recovery: the mid-stream kill must force most tenants to shrink (saw {shrunk}/8)")
    });
    // Detection latency: a collective in flight across the kill aborts
    // from a bounded runner park, not after crawling the dead links.
    let detect = rec.jobs.iter().filter_map(|j| j.first_abort_us).map(|t| t - kill_us);
    let detect = detect.fold(0.0, f64::max);
    g.check(detect <= 10_000.0, || {
        format!("recovery: a shrunk job first aborted {detect:.0}µs after the kill (> 10 ms)")
    });
    let worst = rec.jobs.iter().map(|j| j.recovery_us).fold(0.0, f64::max);
    g.check(worst > 0.0 && worst <= 120_000.0, || {
        format!("recovery: worst per-job recovery latency {worst:.0}µs outside (0, 120000] µs")
    });
    for j in &rec.jobs {
        g.check(j.samples == 12, || {
            format!("recovery/{}: every surviving job must complete all its iterations", j.name)
        });
    }
    let entries = Some(rec.entries_processed);
    g.row("recovery/8job_makespan", rec.makespan_us, "us", Lower, entries);
    g.row("recovery/worst_recovery_us", worst, "us", Lower, None);
    g.row("recovery/detect_us_max", detect, "us", Lower, None);
}

/// Simulator scale-out: the coalesced schedule drivers at O(10k) ranks.
/// The coalesced arm's virtual time is bit-identical to the
/// forced-explicit driver at every cell where the explicit arm is still
/// tractable; the 4096-rank DBT cell — the largest scale the uncoalesced
/// path can still reach — shows ≥50× fewer scheduler entries; the
/// 4096-rank ring/auto cells (whose explicit schedule is ~33.5M sends,
/// beyond any smoke budget) are bounded analytically against that send
/// count; and under optimized builds every 4096-rank coalesced cell
/// finishes inside an absolute simulator wall-clock budget. Auto's
/// regret — its time over the faster of the ring and the tree — is a row
/// per scale. `sim_wall_ms` rides along in the JSON for CI history but is
/// never baseline-compared.
fn scale(g: &mut Gate) {
    const PAYLOAD: u64 = 16 << 20;
    for (n, explicit_arms) in [(256usize, ["ring", "dbt", "auto"].as_slice()), (4096, &["dbt"])] {
        let (mut ends, mut auto_op_us) = (Vec::new(), 0.0);
        for (eng, engine) in scale_engines() {
            let tag = format!("scale/allred16MB_{n}_{eng}");
            let fast = scale_allreduce(n, engine, PAYLOAD, false);
            ends.push(fast.end_ns as f64);
            auto_op_us = fast.op_ns as f64 / 1e3;
            g.check(fast.coalesced > 0, || format!("{tag}: 0 chunks coalesced"));
            let rec = BenchRecord::with_sim_cost(
                format!("{tag}/coalesced"),
                fast.end_ns as f64 / 1000.0,
                "us",
                fast.entries,
                fast.sim_wall_ms,
            );
            g.rows.push((rec, Lower));
            // Absolute simulator wall-clock budget, only meaningful on
            // optimized builds (CI runs the gate with --release). Local
            // release runs finish each cell in about a second; 60 s/cell
            // absorbs slow shared runners.
            g.check(cfg!(debug_assertions) || n < 4096 || fast.sim_wall_ms < 60_000.0, || {
                format!("{tag}: simulator took {:.0} ms wall (budget 60000 ms)", fast.sim_wall_ms)
            });
            if explicit_arms.contains(&eng) {
                let ex = scale_allreduce(n, engine, PAYLOAD, true);
                g.check(ex.end_ns == fast.end_ns && ex.coalesced == 0, || {
                    format!(
                        "{tag}: coalesced virtual time must be bit-identical to the explicit \
                         driver, which must not coalesce ({} vs {} ns, {} coalesced)",
                        fast.end_ns, ex.end_ns, ex.coalesced
                    )
                });
                let ratio = ex.entries as f64 / fast.entries as f64;
                g.check(ratio >= 50.0, || {
                    format!(
                        "{tag}: only {ratio:.1}x fewer scheduler entries than the explicit \
                         driver (must be ≥ 50x: {} vs {})",
                        fast.entries, ex.entries
                    )
                });
                g.row(format!("{tag}/entry_ratio"), ratio, "x", Higher, None);
            } else {
                // Explicit arm intractable: bound the coalesced entry
                // count against the uncoalesced ring/auto schedule's
                // known send count — 2(n−1) steps × n tokens (one chunk
                // per token at this payload).
                let sends = 2 * (n as u64 - 1) * n as u64;
                g.check(fast.entries <= sends / 50, || {
                    format!(
                        "{tag}: {} entries exceeds 1/50th of the {sends} uncoalesced sends",
                        fast.entries
                    )
                });
            }
        }
        // `scale_engines()` is ring, dbt, auto.
        let regret = ends[2] / ends[0].min(ends[1]);
        g.row(format!("scale/allred16MB_{n}/auto_regret"), regret, "x", Lower, None);
        // The price of Auto's allreduce against its run.
        let platform = PlatformSpec::platform_c();
        let (kind, engine) = (CollKind::AllReduce, scale_engines()[2].1);
        let probe = CollProbe { platform: &platform, nodes: n, server_nodes: 0, kind, engine };
        let price_us = collective_price(&probe, &[PAYLOAD]).us[0].1;
        let err = (price_us / auto_op_us - 1.0).abs();
        g.row(format!("price/C_allred_16MB_{n}/err"), err, "x", Lower, None);
    }
}

/// Relative change in percent; a zero baseline moving to any nonzero
/// value is an unbounded change, not "no change".
fn pct(old: f64, new: f64) -> f64 {
    if old == new {
        0.0
    } else if old == 0.0 {
        f64::INFINITY
    } else {
        (new - old) / old * 100.0
    }
}

/// [`pct`] of a row's value, except that an error row within
/// [`ERR_TOLERANCE`] of its baseline has not moved.
fn deviation(name: &str, old: f64, new: f64) -> f64 {
    if name.ends_with("/err") && (new - old).abs() <= ERR_TOLERANCE {
        0.0
    } else {
        pct(old, new)
    }
}

/// Print a before/after diff of refreshed baseline rows (`--update`).
fn print_update_diff(old: &[BenchRecord], new: &[BenchRecord]) {
    let mut changed = 0usize;
    for n in new {
        match old.iter().find(|o| o.name == n.name) {
            None => {
                changed += 1;
                println!("  + {:<46} {:>12.3} {}", n.name, n.value, n.unit);
            }
            Some(o) => {
                let value_delta = deviation(&n.name, o.value, n.value);
                // A row gaining or losing its gated entries dimension is
                // itself a change worth surfacing.
                let entries_note = match (o.entries_processed, n.entries_processed) {
                    (Some(oe), Some(ne)) => {
                        let d = pct(oe as f64, ne as f64);
                        (d.abs() > 0.1).then(|| format!(", entries {d:+.1}%"))
                    }
                    (None, Some(ne)) => Some(format!(", entries now tracked ({ne})")),
                    (Some(oe), None) => Some(format!(", entries no longer tracked (was {oe})")),
                    (None, None) => None,
                };
                if value_delta.abs() > 0.1 || entries_note.is_some() {
                    changed += 1;
                    println!(
                        "  ~ {:<46} {:>12.3} -> {:>12.3} {} ({:+.1}%{})",
                        n.name,
                        o.value,
                        n.value,
                        n.unit,
                        value_delta,
                        entries_note.unwrap_or_default()
                    );
                }
            }
        }
    }
    for o in old {
        if !new.iter().any(|n| n.name == o.name) {
            changed += 1;
            println!("  - {:<46} (row removed)", o.name);
        }
    }
    if changed == 0 {
        println!("  (no rows changed beyond 0.1%)");
    }
}

/// True when `current` moved away from `better` by more than the
/// tolerance relative to `base`.
fn regressed(base: f64, current: f64, better: Better) -> bool {
    match better {
        Higher => current < base * (1.0 - TOLERANCE),
        Lower => current > base * (1.0 + TOLERANCE),
    }
}

/// What comparing the measured rows against the baseline found.
struct Verdict {
    failures: Vec<String>,
    /// Rows equal to their baseline entry in value *and* entry count.
    exact: usize,
    /// Largest |relative deviation| of any value or entry count, percent.
    max_dev_pct: f64,
}

fn compare(rows: &[(BenchRecord, Better)], baseline: &[BenchRecord]) -> Verdict {
    let mut v = Verdict { failures: Vec::new(), exact: 0, max_dev_pct: 0.0 };
    for (i, (c, better)) in rows.iter().enumerate() {
        if rows[..i].iter().any(|(earlier, _)| earlier.name == c.name) {
            v.failures.push(format!("{}: measured twice (row names must be unique)", c.name));
            continue;
        }
        let Some(b) = baseline.iter().find(|b| b.name == c.name) else {
            v.failures.push(format!("{}: measured but absent from the baseline", c.name));
            continue;
        };
        // An error row moves by its absolute difference: relative to a
        // baseline of 0, float residue would be an unbounded change.
        let (worse, slack) = if c.name.ends_with("/err") {
            (c.value > b.value + ERR_TOLERANCE, format!("{ERR_TOLERANCE:e}"))
        } else {
            (regressed(b.value, c.value, *better), format!("{:.0}%", TOLERANCE * 100.0))
        };
        if worse {
            v.failures.push(format!(
                "{}: {} {} vs baseline {} (>{slack} worse, {better:?} is better)",
                c.name, c.value, c.unit, b.value
            ));
        }
        let mut dev = deviation(&c.name, b.value, c.value).abs();
        if let (Some(be), Some(ce)) = (b.entries_processed, c.entries_processed) {
            if regressed(be as f64, ce as f64, Lower) {
                v.failures.push(format!(
                    "{}: {ce} scheduler entries vs baseline {be} (>{:.0}% more)",
                    c.name,
                    TOLERANCE * 100.0
                ));
            }
            dev = dev.max(pct(be as f64, ce as f64).abs());
        }
        v.exact += (dev == 0.0 && b.entries_processed == c.entries_processed) as usize;
        v.max_dev_pct = v.max_dev_pct.max(dev);
    }
    for b in baseline {
        if !rows.iter().any(|(c, _)| c.name == b.name) {
            v.failures.push(format!("{}: present in baseline but no longer measured", b.name));
        }
    }
    v
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = json_path_from_args(&args);
    let baseline_path = args
        .iter()
        .position(|a| a == "--baseline")
        .map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("error: --baseline requires a path argument");
                std::process::exit(2);
            })
        })
        .unwrap_or_else(|| "bench/baseline.json".to_string());
    let update = args.iter().any(|a| a == "--update");

    let Gate { rows, broken } = measure();
    println!("{:>46} {:>12} {:>8} {:>7} {:>12}", "benchmark", "value", "unit", "better", "entries");
    for (r, better) in &rows {
        println!(
            "{:>46} {:>12.3} {:>8} {:>7} {:>12}",
            r.name,
            r.value,
            r.unit,
            format!("{better:?}").to_lowercase(),
            r.entries_processed.map_or("-".to_string(), |e| e.to_string())
        );
    }
    let current: Vec<BenchRecord> = rows.iter().map(|(r, _)| r.clone()).collect();
    write_if_requested(json_path.as_deref(), &current);
    if update && broken.is_empty() {
        // Before/after diff of what the refresh changes, so intentional
        // performance shifts are visible in the commit that lands them.
        match std::fs::read_to_string(&baseline_path).map(|t| parse_json(&t)) {
            Ok(Ok(old)) => {
                println!("refreshing {baseline_path}:");
                print_update_diff(&old, &current);
            }
            _ => println!("no readable previous baseline at {baseline_path}; writing fresh"),
        }
        // Sorted by name, so the committed file diffs row against row
        // whatever order the sections measure in.
        let mut sorted = current;
        sorted.sort_by(|a, b| a.name.cmp(&b.name));
        write_json(std::path::Path::new(&baseline_path), &sorted).expect("write baseline json");
        println!("updated baseline {baseline_path}");
        return;
    }

    let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        eprintln!("error: cannot read baseline {baseline_path}: {e}");
        eprintln!("hint: regenerate with `bench_gate --update` and commit it");
        std::process::exit(2);
    });
    let baseline = parse_json(&text).unwrap_or_else(|e| {
        eprintln!("error: malformed baseline {baseline_path}: {e}");
        std::process::exit(2);
    });

    let Verdict { failures, exact, max_dev_pct } = compare(&rows, &baseline);
    let summary = format!(
        "{exact} of {} rows match {baseline_path} exactly (value and entries); \
         largest relative deviation {max_dev_pct:.4}%",
        rows.len()
    );
    if broken.is_empty() && failures.is_empty() {
        println!("perf gate OK, every relation holds: {summary}");
        return;
    }
    for (what, list) in [("broken relations", &broken), ("baseline mismatches", &failures)] {
        if !list.is_empty() {
            eprintln!("{} {what}:", list.len());
            for f in list {
                eprintln!("  {f}");
            }
        }
    }
    eprintln!("(if intentional, regenerate with `bench_gate --update` and commit)");
    eprintln!("perf gate FAILED: {summary}");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lower_is_better_row_fails_when_it_rises_and_passes_when_it_falls() {
        let base = [BenchRecord::new("r", 2.0, "x")];
        let verdict =
            |value, better| compare(&[(BenchRecord::new("r", value, "x"), better)], &base);
        assert_eq!(verdict(2.4, Lower).failures.len(), 1, "+20% on a lower-is-better row");
        assert!(verdict(1.6, Lower).failures.is_empty(), "-20% on a lower-is-better row");
        assert!(verdict(2.4, Higher).failures.is_empty());
        assert_eq!(verdict(1.6, Higher).failures.len(), 1);
        let same = verdict(2.0, Lower);
        assert_eq!((same.exact, same.max_dev_pct), (1, 0.0));
        let near = verdict(2.1, Lower);
        assert!(near.failures.is_empty() && near.exact == 0, "within tolerance, not exact");
        assert!((near.max_dev_pct - 5.0).abs() < 1e-9);
    }

    #[test]
    fn an_err_row_tolerates_float_residue_and_nothing_more() {
        let base = [BenchRecord::new("price/A_bcast_32KB/err", 0.0, "x")];
        let verdict = |value| {
            compare(&[(BenchRecord::new("price/A_bcast_32KB/err", value, "x"), Lower)], &base)
        };
        let residue = verdict(2.220446049250313e-16);
        assert!(residue.failures.is_empty(), "{:?}", residue.failures);
        assert_eq!((residue.exact, residue.max_dev_pct), (1, 0.0), "residue counts as exact");
        assert_eq!(verdict(1e-9).failures.len(), 1, "a price that drifts from its run");
    }

    #[test]
    fn overhead_and_slowdown_factors_are_declared_lower_is_better() {
        let mut g = Gate::default();
        fault_hooks(&mut g);
        tenancy(&mut g);
        recovery(&mut g);
        assert_eq!(g.broken, Vec::<String>::new());
        for name in [
            "chaos/fault_off_overhead",
            "tenancy/qos_high_p99_factor",
            "recovery/checkpoint_overhead",
        ] {
            let (_, better) = g.rows.iter().find(|(r, _)| r.name == name).expect(name);
            assert_eq!(*better, Lower, "{name}");
        }
    }

    #[test]
    fn unknown_duplicate_and_missing_rows_all_fail() {
        let base = [BenchRecord::new("kept", 1.0, "us"), BenchRecord::new("gone", 1.0, "us")];
        let rows = [
            (BenchRecord::new("kept", 1.0, "us"), Lower),
            (BenchRecord::new("kept", 1.0, "us"), Lower),
            (BenchRecord::new("new", 1.0, "us"), Lower),
        ];
        let v = compare(&rows, &base);
        assert_eq!(v.failures.len(), 3, "{:?}", v.failures);
        assert!(v.failures[0].contains("measured twice"));
        assert!(v.failures[1].contains("absent from the baseline"));
        assert!(v.failures[2].contains("no longer measured"));
    }
}
