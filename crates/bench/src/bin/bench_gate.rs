//! CI perf-regression gate.
//!
//! Re-runs a deterministic subset of the fig4 bandwidth measurements and
//! the ISSUE 1/2/4/5 ablation measurements (chunked-pipeline put,
//! batched fence, ring vs profile collectives, the transport
//! autotuner's tuned pipeline, the LL/tree and double-binary-tree
//! collective fast paths, and the table-tuned ring chunking), emits
//! them as `BENCH_*.json`, and compares against the committed baseline.
//! Both the simulated metric (GB/s, µs) and the scheduler-entry count
//! (`entries_processed`, the wall-clock cost the batched wait-groups
//! optimise) are gated: a regression beyond 10% in either fails the
//! build. The ISSUE 4/5 acceptance relations are additionally *hard
//! asserts* inside the measurement pass: `CollEngine::Auto` must beat
//! the pure ring at ≤64 KiB on every platform for broadcast and
//! allreduce, never lose to it in the 1 MiB mid band, and stay within
//! 5 % of it at 16 MiB; the pinned DBT engine must beat the ring at its
//! platform's mid-band allreduce cell; the tuned ring chunking must not
//! regress the legacy constants at 64 MiB. Everything measured is a
//! virtual-time quantity, so the baseline is machine-independent.
//!
//! Usage:
//!   bench_gate [--json PATH] [--baseline PATH] [--update]
//!
//! `--update` rewrites the baseline file with the current measurements
//! (run after an intentional performance change and commit the result)
//! and prints a before/after diff of every row it refreshed.

use diomp_apps::micro::{
    diomp_collective_auto, diomp_collective_dbt, diomp_collective_full, diomp_collective_rserver,
    diomp_collective_served, diomp_p2p_full, diomp_p2p_latency, fig6_nodes, scale_allreduce,
    CollKind, RmaOp, ScaleEngine,
};
use diomp_apps::minimod::{self, HaloStyle, MinimodConfig};
use diomp_bench::report::{
    json_path_from_args, parse_json, write_if_requested, write_json, BenchRecord,
};
use diomp_bench::size_label;
use diomp_core::{CollEngine, Conduit, DiompConfig, DiompRuntime, PipelineConfig};
use diomp_device::DataMode;
use diomp_sim::{ClusterSpec, PlatformSpec};

/// Allowed relative slack before a change counts as a regression.
const TOLERANCE: f64 = 0.10;

fn measure() -> Vec<BenchRecord> {
    let mut records = Vec::new();

    // Fig. 4 put bandwidth, monolithic vs chunk-pipelined, all platforms.
    let sizes = [4u64 << 20, 64 << 20];
    for (tag, platform) in [
        ("a", PlatformSpec::platform_a()),
        ("b", PlatformSpec::platform_b()),
        ("c", PlatformSpec::platform_c()),
    ] {
        for (suffix, pipe) in
            [("", PipelineConfig::disabled()), ("_pipelined", PipelineConfig::enabled())]
        {
            let rows = diomp_p2p_full(&platform, Conduit::GasnetEx, RmaOp::Put, &sizes, true, pipe);
            for (s, gbps, entries) in rows {
                records.push(BenchRecord::with_entries(
                    format!("fig4{tag}/diomp_put{suffix}_{}", size_label(s)),
                    gbps,
                    "GB/s",
                    entries,
                ));
            }
        }
    }

    // Batched-fence ablation (ISSUE 1): virtual time and entry count of a
    // 1000-put fence with wait_all batching on.
    let fence_cfg = DiompConfig::builder(ClusterSpec {
        platform: PlatformSpec::platform_a(),
        nodes: 2,
        gpus_per_node: 1,
    })
    .with_mode(DataMode::CostOnly)
    .with_heap(64 << 20)
    .build();
    let rep = DiompRuntime::run(fence_cfg, |ctx, rank| {
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
    records.push(BenchRecord::with_entries(
        "ablation/fence1000_batched",
        rep.end_time.as_us(),
        "us",
        rep.entries_processed,
    ));

    // Notified halo exchange (ISSUE 3): per-step time and scheduler
    // entries of the minimod halo styles at 8 ranks on the InfiniBand
    // platform. Gates both the notification machinery's virtual-time
    // cost and the entry saving of the barrier-free waitsome drain.
    for (name, halo) in
        [("ordered", HaloStyle::NotifyOrdered), ("waitsome", HaloStyle::NotifyWaitsome)]
    {
        let halo_cfg = MinimodConfig {
            platform: PlatformSpec::platform_c(),
            gpus: 8,
            nx: 240,
            ny: 240,
            nz: 240,
            steps: 10,
            mode: DataMode::CostOnly,
            verify: false,
            halo,
            tuned: false,
        };
        let r = minimod::diomp::run(&halo_cfg);
        records.push(BenchRecord::with_entries(
            format!("fig_halo/{name}_us_per_step_8gpus"),
            r.elapsed.as_us() / halo_cfg.steps as f64,
            "us",
            r.entries,
        ));
    }

    // Ring-collective engine (ISSUE 2): emergent vs profiled allreduce on
    // 64 A100s; the entry count gates the progress loop's scheduler cost
    // (what wait_any_batched keeps bounded).
    for (name, engine) in [("ring", CollEngine::default()), ("profile", CollEngine::Profile)] {
        let rows = diomp_collective_full(
            &PlatformSpec::platform_a(),
            16,
            CollKind::AllReduce,
            &[1 << 20, 64 << 20],
            engine,
        );
        for (s, us, entries) in rows {
            records.push(BenchRecord::with_entries(
                format!("fig6/allred_A_{}/{name}", size_label(s)),
                us,
                "us",
                entries,
            ));
        }
    }

    // Transport autotuner (ISSUE 4). (a) Tuned pipeline: the knee-derived
    // parameters must clear the Fig. 4a put cap like the hand-tuned
    // explicit config does — locked per platform.
    for (tag, platform) in [
        ("a", PlatformSpec::platform_a()),
        ("b", PlatformSpec::platform_b()),
        ("c", PlatformSpec::platform_c()),
    ] {
        let tuned = PipelineConfig::auto(&platform, Conduit::GasnetEx);
        let rows =
            diomp_p2p_full(&platform, Conduit::GasnetEx, RmaOp::Put, &[64 << 20], true, tuned);
        for (s, gbps, entries) in rows {
            records.push(BenchRecord::with_entries(
                format!("fig4{tag}/diomp_put_tuned_{}", size_label(s)),
                gbps,
                "GB/s",
                entries,
            ));
        }
        // Small-message P2P latency through the tuned default path (the
        // fig3 headline: flat µs-scale latency must survive the tuner).
        let lat = diomp_p2p_latency(&platform, RmaOp::Put, &[8 << 10]);
        records.push(BenchRecord {
            name: format!("fig3{tag}/diomp_put_8KB"),
            value: lat[0].1,
            unit: "us".into(),
            entries_processed: None,
            sim_wall_ms: None,
        });
    }

    // (b) Collective protocol selection: CollEngine::Auto vs the pure
    // ring at the Fig. 6 device counts, across all three regimes. The
    // ISSUE 4/5 acceptance relations are asserted outright: the LL/tree
    // path wins at small sizes, the mid band (1 MiB, PR 5's double
    // binary tree) never loses to the ring, and the large sizes stay
    // within 5 %. The baseline rows then lock the achieved latencies in
    // CI.
    for (tag, platform) in [
        ("A", PlatformSpec::platform_a()),
        ("B", PlatformSpec::platform_b()),
        ("C", PlatformSpec::platform_c()),
    ] {
        let nodes = fig6_nodes(&platform);
        for (op_tag, kind) in [("bcast", CollKind::Broadcast), ("allred", CollKind::AllReduce)] {
            let sizes = [32u64 << 10, 64 << 10, 1 << 20, 16 << 20];
            let auto = diomp_collective_auto(&platform, nodes, kind, &sizes);
            let ring = diomp_collective_full(&platform, nodes, kind, &sizes, CollEngine::default());
            for (&(s, auto_us, auto_entries), &(_, ring_us, ring_entries)) in auto.iter().zip(&ring)
            {
                if s <= 64 << 10 {
                    assert!(
                        auto_us < ring_us,
                        "{op_tag}/{tag}@{}: Auto ({auto_us:.1}µs) must beat the ring \
                         ({ring_us:.1}µs) at small sizes",
                        size_label(s)
                    );
                } else if s <= 1 << 20 {
                    // Mid band: Auto runs the DBT where it is priced to
                    // win and the (tuned) ring otherwise — either way it
                    // must not lose to the untuned ring.
                    assert!(
                        auto_us <= ring_us * 1.01,
                        "{op_tag}/{tag}@{}: Auto ({auto_us:.1}µs) must not lose to the ring \
                         ({ring_us:.1}µs) in the mid band",
                        size_label(s)
                    );
                } else {
                    assert!(
                        auto_us <= ring_us * 1.05,
                        "{op_tag}/{tag}@{}: Auto ({auto_us:.1}µs) must stay within 5% of the \
                         ring ({ring_us:.1}µs) at large sizes",
                        size_label(s)
                    );
                }
                let sz = size_label(s);
                records.push(BenchRecord::with_entries(
                    format!("fig6/{op_tag}_{tag}_{sz}/auto"),
                    auto_us,
                    "us",
                    auto_entries,
                ));
                // Lock the small/mid-size ring reference so the
                // auto-vs-ring gap stays visible in history — except
                // A/allred@1MB, which the ring-vs-profile section above
                // already records (one row per name keeps the baseline
                // lookups unambiguous).
                if s <= 1 << 20 && !(tag == "A" && op_tag == "allred" && s == 1 << 20) {
                    records.push(BenchRecord::with_entries(
                        format!("fig6/{op_tag}_{tag}_{sz}/ring"),
                        ring_us,
                        "us",
                        ring_entries,
                    ));
                }
            }
        }

        // (c) The double-binary-tree engine itself (PR 5 tentpole),
        // pinned via CollEngine::Dbt: it must beat the ring outright at
        // a mid-band allreduce cell on every platform — 1 MiB on A and
        // C; 512 KiB on B, whose calibrated link efficiency (2.7 % of
        // the wire) starves ring and tree alike so only the latency
        // overhead is saveable and its band closes just past 512 KiB.
        // The large-size no-harm relation is Auto's (asserted above at
        // 16 MiB — the dispatcher prices the DBT out of the band there);
        // the raw 16 MiB DBT row is still locked in the baseline so a
        // schedule regression shows up in history.
        let win_cell = if platform.id == diomp_sim::PlatformId::B { 512u64 << 10 } else { 1 << 20 };
        let sizes = [win_cell, 16 << 20];
        let dbt = diomp_collective_dbt(&platform, nodes, CollKind::AllReduce, &sizes);
        let ring = diomp_collective_full(
            &platform,
            nodes,
            CollKind::AllReduce,
            &sizes,
            CollEngine::default(),
        );
        for (&(s, dbt_us, dbt_entries), &(_, ring_us, _)) in dbt.iter().zip(&ring) {
            if s == win_cell {
                assert!(
                    dbt_us < ring_us,
                    "allred/{tag}@{}: DBT ({dbt_us:.1}µs) must beat the ring ({ring_us:.1}µs) \
                     in the mid band",
                    size_label(s)
                );
            }
            records.push(BenchRecord::with_entries(
                format!("fig6/allred_{tag}_{}/dbt", size_label(s)),
                dbt_us,
                "us",
                dbt_entries,
            ));
        }
    }

    // (d) Table-tuned ring chunking (PR 5): RingConfig::auto must do no
    // harm vs the legacy 128 KiB/4 constants at the bandwidth-bound top
    // end, locked on the 64 GPU / 64 MiB allreduce cell.
    let op = diomp_core::XcclOp::AllReduce { op: diomp_core::ReduceOp::SumF32 };
    let platform = PlatformSpec::platform_a();
    let tuned_rc =
        diomp_core::RingConfig::auto(&platform, &op, diomp_core::default_nrings(&platform));
    let tuned = diomp_collective_full(
        &platform,
        16,
        CollKind::AllReduce,
        &[64 << 20],
        CollEngine::Ring(tuned_rc),
    );
    let legacy = diomp_collective_full(
        &platform,
        16,
        CollKind::AllReduce,
        &[64 << 20],
        CollEngine::default(),
    );
    assert!(
        tuned[0].1 <= legacy[0].1 * 1.05,
        "tuned ring chunking ({:.1}µs) must not regress the legacy constants ({:.1}µs)",
        tuned[0].1,
        legacy[0].1
    );
    records.push(BenchRecord::with_entries(
        "fig6/allred_A_64MB/ring_tuned",
        tuned[0].1,
        "us",
        tuned[0].2,
    ));

    // (e) Fault-injection hooks (ISSUE 6): with nothing armed — or with a
    // plan whose windows, task prefixes and keys never match — the
    // injection hooks must cost *nothing*: same virtual end time, same
    // scheduler entry count, bit for bit. Hard-asserted here; the locked
    // ratio row keeps the zero-cost claim visible in CI history.
    {
        use diomp_sim::{fault_key, CtrlFault, Dur, FaultPlan, Sim};
        let run = |armed: bool| {
            let mut sim = Sim::new();
            if armed {
                // Inert plan: a straggle prefix no task carries and a
                // control key no protocol consumes. Arming it switches
                // every injection hook on (the per-transfer perturb
                // lookup, the per-delay straggle scaling) with nothing
                // to fire.
                let plan = FaultPlan::new()
                    .straggle("no-such-task", 2000)
                    .ctrl_fault(fault_key("bench-inert", 0, 0), CtrlFault::Drop);
                sim.set_fault_plan(plan);
            }
            let cfg = DiompConfig::builder(ClusterSpec {
                platform: PlatformSpec::platform_a(),
                nodes: 2,
                gpus_per_node: 1,
            })
            .with_mode(DataMode::CostOnly)
            .with_heap(8 << 20)
            .build();
            let shared = DiompRuntime::build(&sim, cfg);
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
                    rank.allreduce(ctx, &world, ptr, 256 << 10, diomp_core::ReduceOp::SumF64);
                    ctx.delay(Dur::micros(5.0));
                    rank.barrier(ctx);
                });
            }
            let rep = sim.run().unwrap();
            (rep.end_time, rep.entries_processed)
        };
        let clean = run(false);
        let armed = run(true);
        assert_eq!(
            clean, armed,
            "disarmed/inert fault hooks must be zero-cost: clean {clean:?} vs armed {armed:?}"
        );
        records.push(BenchRecord::with_entries(
            "chaos/fault_off_overhead",
            armed.0.as_us() / clean.0.as_us(),
            "x",
            armed.1,
        ));
    }

    // (f) Multi-tenant shared-fabric contention + QoS (ISSUE 7
    // tentpole): the canonical 8-job scenario — two High, four Normal,
    // two Low tenants overlapping on two platform-A nodes. Hard-asserted
    // relations: a lone tenant on a contention-armed sim replays the
    // disarmed run bit-identically; every class's p99 stays under its
    // weighted-fair-share bound; the High tenants' p99 under full 8-way
    // load stays within a fixed factor of idle. The per-class p99 rows
    // and the makespan are then locked in the baseline.
    {
        use diomp_apps::workload::{canonical_idle_workload, canonical_workload, run_workload};
        use diomp_sim::QosClass;

        let disarmed = run_workload(&canonical_idle_workload(false));
        let idle = run_workload(&canonical_idle_workload(true));
        assert_eq!(
            disarmed.end_time, idle.end_time,
            "a lone tenant must replay bit-identically whether or not contention is armed"
        );
        let idle_p99 = idle.jobs[0].p99_us;

        let loaded = run_workload(&canonical_workload(true));
        let class_p99 = |q: QosClass| {
            loaded.jobs.iter().filter(|j| j.qos == q).map(|j| j.p99_us).fold(0.0, f64::max)
        };
        let total_w: u64 = loaded.jobs.iter().map(|j| j.qos.weight_milli() as u64).sum();
        for (tag, q) in
            [("high", QosClass::High), ("normal", QosClass::Normal), ("low", QosClass::Low)]
        {
            let p99 = class_p99(q);
            // Weighted fair sharing bounds any class's slowdown by the
            // inverse of its weight share (wire time scales by at most
            // Σw/w_q; software overheads don't scale at all); 25% slack
            // covers scheduling quantisation.
            let bound = idle_p99 * (total_w as f64 / q.weight_milli() as f64) * 1.25;
            assert!(
                p99 <= bound,
                "tenancy/{tag}: p99 {p99:.1}µs exceeds the fair-share bound {bound:.1}µs \
                 (idle {idle_p99:.1}µs)"
            );
            records.push(BenchRecord {
                name: format!("tenancy/8job_{tag}_p99"),
                value: p99,
                unit: "us".into(),
                entries_processed: (tag == "high").then_some(loaded.entries_processed),
                sim_wall_ms: None,
            });
        }
        let qos_factor = class_p99(QosClass::High) / idle_p99;
        assert!(
            qos_factor <= 4.0,
            "tenancy: High p99 under 8-way load is {qos_factor:.2}x idle (must stay ≤ 4x)"
        );
        records.push(BenchRecord {
            name: "tenancy/qos_high_p99_factor".into(),
            value: qos_factor,
            unit: "x".into(),
            entries_processed: None,
            sim_wall_ms: None,
        });
        records.push(BenchRecord::with_entries(
            "tenancy/8job_makespan",
            loaded.makespan_us,
            "us",
            loaded.entries_processed,
        ));
        // Achieved-vs-table bandwidth of the busiest High tenant, locked
        // so a fair-queue pricing regression shows up as lost wire share.
        let high = loaded
            .jobs
            .iter()
            .find(|j| j.qos == QosClass::High)
            .expect("canonical scenario has High tenants");
        records.push(BenchRecord {
            name: "tenancy/8job_high_achieved_frac".into(),
            value: high.achieved_gbps / high.table_gbps,
            unit: "x".into(),
            entries_processed: None,
            sim_wall_ms: None,
        });
    }

    // (g) Work conservation of the weighted fair queue itself: eight
    // saturating flows on one raw link must jointly achieve the link's
    // table bandwidth — the fluid scheduler may never idle a wire that
    // has backlogged flows. Hard-asserted within 2%; the ratio row keeps
    // the claim in CI history.
    {
        use diomp_sim::{Dur, Sim, SimTime};
        let sim = Sim::new();
        sim.enable_contention();
        let h = sim.handle();
        let bpns = 25.0; // one 25 GB/s NIC port
        let res = h.new_resource(bpns, Dur::micros(1.0));
        let weights = [4000u32, 4000, 1000, 1000, 1000, 1000, 250, 250];
        let flows: Vec<_> = weights.iter().map(|&w| h.new_flow(w)).collect();
        let mut sim = sim;
        for (i, &flow) in flows.iter().enumerate() {
            let h = sim.handle();
            sim.spawn(format!("flow{i}"), move |ctx| {
                let evs: Vec<_> =
                    (0..10).map(|_| h.transfer_qos(res, flow, SimTime::ZERO, 4 << 20)).collect();
                for ev in evs {
                    ctx.wait_free(ev);
                }
            });
        }
        sim.run().unwrap();
        let stats: Vec<_> = flows.iter().map(|&f| h.flow_stats(f)).collect();
        let first = stats.iter().filter_map(|s| s.first_start).min().expect("flows ran");
        let last = stats.iter().map(|s| s.last_depart).max().expect("flows ran");
        let total_bytes: u64 = stats.iter().map(|s| s.bytes).sum();
        let achieved = total_bytes as f64 / last.since(first).as_nanos() as f64;
        let frac = achieved / bpns;
        assert!(
            (0.98..=1.02).contains(&frac),
            "work conservation: 8 backlogged flows achieved {frac:.4}x of link capacity"
        );
        records.push(BenchRecord {
            name: "tenancy/work_conservation".into(),
            value: frac,
            unit: "x".into(),
            entries_processed: None,
            sim_wall_ms: None,
        });
    }

    // (h) In-network reduction offload (ISSUE 8 tentpole): on a cluster
    // whose trailing half is carved out as data-passive reduction
    // servers, the server schedule must beat both client-side protocols
    // outright at the injection-bound sizes — every client NIC moves
    // each byte once instead of ≈2× — and the four-regime Auto
    // dispatcher must track the best engine within 5 % across the whole
    // size range. All engines are timed on the *same* server-equipped
    // communicator (same membership, same client-only fold), differing
    // only in which protocol moves the bytes; the ring and DBT run
    // their table-tuned chunking so the baseline is the strongest
    // client-side configuration.
    for (tag, platform, clients, servers) in
        [("A", PlatformSpec::platform_a(), 8usize, 8usize), ("C", PlatformSpec::platform_c(), 8, 8)]
    {
        let nodes = clients + servers;
        let op = diomp_core::XcclOp::AllReduce { op: diomp_core::ReduceOp::SumF32 };
        let rc =
            diomp_core::RingConfig::auto(&platform, &op, diomp_core::default_nrings(&platform));
        let sizes = [256u64 << 10, 1 << 20, 16 << 20, 64 << 20];
        let ring = diomp_collective_served(
            &platform,
            nodes,
            servers,
            CollKind::AllReduce,
            &sizes,
            CollEngine::Ring(rc),
        );
        let dbt = diomp_collective_served(
            &platform,
            nodes,
            servers,
            CollKind::AllReduce,
            &sizes,
            CollEngine::Dbt(rc),
        );
        let rsv = diomp_collective_rserver(&platform, nodes, servers, CollKind::AllReduce, &sizes);
        let auto_engine = diomp_core::Tuner::new(&platform, Conduit::GasnetEx).coll_engine();
        let auto = diomp_collective_served(
            &platform,
            nodes,
            servers,
            CollKind::AllReduce,
            &sizes,
            auto_engine,
        );
        for i in 0..sizes.len() {
            let (s, ring_us, ring_entries) = ring[i];
            let (_, dbt_us, _) = dbt[i];
            let (_, rsv_us, rsv_entries) = rsv[i];
            let (_, auto_us, auto_entries) = auto[i];
            let sz = size_label(s);
            let best_client = ring_us.min(dbt_us);
            if s >= 16 << 20 {
                assert!(
                    rsv_us < best_client,
                    "rserver/{tag}@{sz}: the server schedule ({rsv_us:.1}µs) must beat the best \
                     client-side protocol (ring {ring_us:.1}µs, dbt {dbt_us:.1}µs) at \
                     injection-bound sizes"
                );
            }
            // No-harm across the whole range: below its server band the
            // dispatcher prices among the client-side protocols (the
            // fourth regime only opens above the DBT boundary, by
            // design), so the reference there is the ring fallback —
            // the same engine section (b) gates Auto against on
            // server-free communicators; inside the win region it must
            // track the best of all three — i.e. actually take the
            // offload.
            let best = if s >= 16 << 20 { best_client.min(rsv_us) } else { ring_us };
            assert!(
                auto_us <= best * 1.05,
                "rserver/{tag}@{sz}: Auto ({auto_us:.1}µs) must stay within 5% of the best \
                 engine ({best:.1}µs) on a server-equipped communicator"
            );
            records.push(BenchRecord::with_entries(
                format!("rserver/allred_{tag}_{sz}/rsv"),
                rsv_us,
                "us",
                rsv_entries,
            ));
            records.push(BenchRecord::with_entries(
                format!("rserver/allred_{tag}_{sz}/auto"),
                auto_us,
                "us",
                auto_entries,
            ));
            // The client-side reference at the asserted win cells, so
            // the offload margin stays visible in CI history.
            if s >= 16 << 20 {
                records.push(BenchRecord::with_entries(
                    format!("rserver/allred_{tag}_{sz}/ring"),
                    ring_us,
                    "us",
                    ring_entries,
                ));
            }
        }
    }

    // The server-offload tenant scenario: the canonical 8-job mix with
    // one tenant provisioned a reduction-server node. Its fan-back
    // bytes must land on its own server flow (per-tenant fabric
    // accounting stays total) and nobody else's; the single-tenant
    // armed==disarmed identity must survive the second flow.
    {
        use diomp_apps::workload::{run_workload, server_idle_workload, server_workload};
        let disarmed = run_workload(&server_idle_workload(false));
        let armed = run_workload(&server_idle_workload(true));
        assert_eq!(
            disarmed.end_time, armed.end_time,
            "a lone server-equipped tenant must replay bit-identically under the fair queue"
        );
        let loaded = run_workload(&server_workload(true));
        for (i, j) in loaded.jobs.iter().enumerate() {
            if i == 1 {
                assert!(
                    j.server_flow_bytes > 0,
                    "the server tenant's fan-back must be charged to its server flow"
                );
            } else {
                assert_eq!(
                    j.server_flow_bytes, 0,
                    "{}: a serverless tenant must never be charged server traffic",
                    j.name
                );
            }
        }
        records.push(BenchRecord::with_entries(
            "rserver/8job_server_flow_bytes",
            loaded.jobs[1].server_flow_bytes as f64,
            "bytes",
            loaded.entries_processed,
        ));
    }

    // (i) Elastic rank-failure recovery (ISSUE 9 tentpole): the
    // canonical 8-job mix with rank 3 killed halfway through the
    // collective stream. Hard-asserted relations: arming the recovery
    // layer on a healthy fabric costs at most 5% (the checkpoint-epoch
    // no-harm bound — checkpoints charge real modelled copy time at HBM
    // rate) and never shrinks or retries; under the kill every
    // surviving job still completes all its iterations, the affected
    // tenants shrink, and the worst per-job recovery latency stays
    // inside the honest rebuild cost (detection timeout + rollback +
    // backoff + a full communicator re-init, which `xccl_init_us`
    // dominates at ~90 ms). The recovery makespan, worst recovery
    // latency and checkpoint overhead are locked in the baseline.
    {
        use diomp_apps::workload::{
            canonical_workload, recovery_idle_workload, recovery_workload, run_workload,
        };
        let disarmed = run_workload(&canonical_workload(true));
        let armed_idle = run_workload(&recovery_idle_workload());
        let overhead = armed_idle.end_time.as_us() / disarmed.end_time.as_us();
        assert!(
            overhead <= 1.05,
            "recovery: an armed-but-idle recovery layer costs {overhead:.4}x (must stay ≤ 1.05x)"
        );
        assert!(
            armed_idle.jobs.iter().all(|j| j.retries == 0 && j.recovery_us == 0.0),
            "recovery: a healthy fabric must never shrink or retry"
        );
        records.push(BenchRecord {
            name: "recovery/checkpoint_overhead".into(),
            value: overhead,
            unit: "x".into(),
            entries_processed: None,
            sim_wall_ms: None,
        });

        let rec = run_workload(&recovery_workload());
        let shrunk = rec.jobs.iter().filter(|j| j.retries > 0).count();
        assert!(
            shrunk >= 4,
            "recovery: the mid-stream kill must force most tenants to shrink (saw {shrunk}/8)"
        );
        let worst = rec.jobs.iter().map(|j| j.recovery_us).fold(0.0, f64::max);
        assert!(worst > 0.0, "recovery: a shrink must report a nonzero recovery latency");
        assert!(
            worst <= 120_000.0,
            "recovery: worst per-job recovery latency {worst:.0}µs exceeds the rebuild bound"
        );
        for j in &rec.jobs {
            assert_eq!(
                j.samples, 12,
                "recovery/{}: every surviving job must complete all its iterations",
                j.name
            );
        }
        records.push(BenchRecord::with_entries(
            "recovery/8job_makespan",
            rec.makespan_us,
            "us",
            rec.entries_processed,
        ));
        records.push(BenchRecord {
            name: "recovery/worst_recovery_us".into(),
            value: worst,
            unit: "us".into(),
            entries_processed: None,
            sim_wall_ms: None,
        });
    }

    // (j) Simulator scale-out (ISSUE 10 tentpole): the coalesced
    // schedule drivers at O(10k) ranks. Hard-asserted relations: the
    // coalesced arm's virtual time is bit-identical to the
    // forced-explicit driver at every cell where the explicit arm is
    // still tractable; the 4096-rank DBT cell — the largest scale the
    // uncoalesced path can still reach — shows ≥50× fewer scheduler
    // entries; the 4096-rank ring/auto cells (whose explicit schedule
    // is ~33.5M sends, beyond any smoke budget) are bounded
    // analytically against that send count; and under optimized builds
    // every 4096-rank coalesced cell finishes inside an absolute
    // simulator wall-clock budget. Virtual time and entry counts are
    // machine-independent and locked in the baseline; `sim_wall_ms`
    // rides along in the JSON for CI history but is never
    // baseline-compared.
    {
        const SCALE_PAYLOAD: u64 = 16 << 20;
        // The uncoalesced ring/auto schedule at n ranks: 2(n−1) steps ×
        // n tokens (one chunk per token at this payload).
        let ring_sends = |n: u64| 2 * (n - 1) * n;
        let mut cell = |n: usize, eng: ScaleEngine, explicit_arm: bool| {
            let fast = scale_allreduce(n, eng, SCALE_PAYLOAD, false);
            let tag = format!("scale/allred16MB_{n}_{}", eng.tag());
            assert!(
                fast.coalesced > 0,
                "{tag}: the coalesced drivers must run (0 chunks coalesced)"
            );
            records.push(BenchRecord::with_sim_cost(
                format!("{tag}/coalesced"),
                fast.end_ns as f64 / 1000.0,
                "us",
                fast.entries,
                fast.sim_wall_ms,
            ));
            if explicit_arm {
                let ex = scale_allreduce(n, eng, SCALE_PAYLOAD, true);
                assert_eq!(
                    ex.end_ns, fast.end_ns,
                    "{tag}: coalesced virtual time must be bit-identical to the explicit driver"
                );
                assert_eq!(ex.coalesced, 0, "{tag}: the forced-explicit arm must not coalesce");
                let ratio = ex.entries as f64 / fast.entries as f64;
                assert!(
                    ratio >= 50.0,
                    "{tag}: only {ratio:.1}x fewer scheduler entries than the explicit driver \
                     (must be ≥ 50x: {} vs {})",
                    fast.entries,
                    ex.entries
                );
                records.push(BenchRecord {
                    name: format!("{tag}/entry_ratio"),
                    value: ratio,
                    unit: "x".into(),
                    entries_processed: None,
                    sim_wall_ms: None,
                });
            } else {
                // Explicit arm intractable: bound the coalesced entry
                // count against the schedule's known send count.
                let bound = ring_sends(n as u64) / 50;
                assert!(
                    fast.entries <= bound,
                    "{tag}: {} entries exceeds 1/50th of the {} uncoalesced sends",
                    fast.entries,
                    ring_sends(n as u64)
                );
            }
            fast
        };
        for eng in [ScaleEngine::Ring, ScaleEngine::Dbt, ScaleEngine::Auto] {
            cell(256, eng, true);
        }
        let big_ring = cell(4096, ScaleEngine::Ring, false);
        let big_dbt = cell(4096, ScaleEngine::Dbt, true);
        let big_auto = cell(4096, ScaleEngine::Auto, false);
        // Absolute simulator wall-clock budget for the 4096-rank sweep,
        // only meaningful on optimized builds (CI runs the gate with
        // --release). Local release runs finish each cell in 3–10 s;
        // 60 s/cell absorbs slow shared runners.
        if !cfg!(debug_assertions) {
            for (eng, run) in [("ring", &big_ring), ("dbt", &big_dbt), ("auto", &big_auto)] {
                assert!(
                    run.sim_wall_ms < 60_000.0,
                    "scale/allred16MB_4096_{eng}: simulator took {:.0} ms wall \
                     (budget 60000 ms)",
                    run.sim_wall_ms
                );
            }
        }
    }
    records
}

/// Print a before/after diff of refreshed baseline rows (`--update`).
fn print_update_diff(old: &[BenchRecord], new: &[BenchRecord]) {
    // Relative change in percent; a zero baseline moving to any nonzero
    // value is an unbounded change, not "no change".
    let pct = |old: f64, new: f64| {
        if old == 0.0 {
            if new == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (new - old) / old * 100.0
        }
    };
    let mut changed = 0usize;
    for n in new {
        match old.iter().find(|o| o.name == n.name) {
            None => {
                changed += 1;
                println!("  + {:<46} {:>12.3} {}", n.name, n.value, n.unit);
            }
            Some(o) => {
                let value_delta = pct(o.value, n.value);
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

/// True when `current` regressed vs `base` beyond the tolerance, for a
/// metric where `higher_better` says which direction is good.
fn regressed(base: f64, current: f64, higher_better: bool) -> bool {
    if higher_better {
        current < base * (1.0 - TOLERANCE)
    } else {
        current > base * (1.0 + TOLERANCE)
    }
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

    let current = measure();
    println!("{:>46} {:>12} {:>8} {:>12}", "benchmark", "value", "unit", "entries");
    for r in &current {
        println!(
            "{:>46} {:>12.3} {:>8} {:>12}",
            r.name,
            r.value,
            r.unit,
            r.entries_processed.map_or("-".to_string(), |e| e.to_string())
        );
    }
    write_if_requested(json_path.as_deref(), &current);
    if update {
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

    let mut failures = Vec::new();
    for b in &baseline {
        let Some(c) = current.iter().find(|c| c.name == b.name) else {
            failures.push(format!("{}: present in baseline but no longer measured", b.name));
            continue;
        };
        let higher_better = b.unit == "GB/s" || b.unit == "x";
        if regressed(b.value, c.value, higher_better) {
            failures.push(format!(
                "{}: {} {} vs baseline {} (>{:.0}% worse)",
                b.name,
                c.value,
                c.unit,
                b.value,
                TOLERANCE * 100.0
            ));
        }
        if let (Some(be), Some(ce)) = (b.entries_processed, c.entries_processed) {
            if regressed(be as f64, ce as f64, false) {
                failures.push(format!(
                    "{}: {} scheduler entries vs baseline {} (>{:.0}% more)",
                    b.name,
                    ce,
                    be,
                    TOLERANCE * 100.0
                ));
            }
        }
    }
    if failures.is_empty() {
        println!(
            "perf gate OK: {} benchmarks within {:.0}% of {baseline_path}",
            baseline.len(),
            TOLERANCE * 100.0
        );
    } else {
        eprintln!("perf gate FAILED ({} regressions):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        eprintln!("(if intentional, regenerate with `bench_gate --update` and commit)");
        std::process::exit(1);
    }
}
