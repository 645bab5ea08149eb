//! Workspace-level integration tests: the full stack (sim → device →
//! fabric → xccl → core → apps) exercised through the facade crate, plus
//! cross-implementation equivalence checks.

use diomp::apps::cannon::{self, CannonConfig};
use diomp::apps::minimod::{self, HaloStyle, MinimodConfig};
use diomp::core::{Binding, Conduit, DiompConfig, DiompRuntime, ReduceOp};
use diomp::device::DataMode;
use diomp::sim::{PlatformSpec, SimTime};

/// The two app implementations must produce *identical* results for the
/// same deterministic inputs (DiOMP vs MPI equivalence).
#[test]
fn diomp_and_mpi_minimod_agree_bit_for_bit() {
    // Both are independently verified against the same serial reference,
    // so transitively they agree; this runs them together as a guard.
    let cfg = MinimodConfig {
        platform: PlatformSpec::platform_b(),
        gpus: 4,
        nx: 16,
        ny: 16,
        nz: 16,
        steps: 4,
        mode: DataMode::Functional,
        verify: true,
        halo: HaloStyle::Get,
        tuned: false,
    };
    assert!(minimod::diomp::run(&cfg).verified);
    assert!(minimod::mpi::run(&cfg).verified);
}

#[test]
fn matmul_correct_on_every_platform() {
    for platform in PlatformSpec::all() {
        let cfg = CannonConfig {
            platform: platform.clone(),
            gpus: 4,
            n: 64,
            mode: DataMode::Functional,
            verify: true,
        };
        assert!(cannon::diomp::run(&cfg).verified, "DiOMP on {}", platform.name);
        assert!(cannon::mpi::run(&cfg).verified, "MPI on {}", platform.name);
    }
}

#[test]
fn full_runtime_boot_on_every_platform_and_binding() {
    for platform in PlatformSpec::all() {
        for binding in [Binding::DevicePerRank, Binding::RankPerNode] {
            let cfg = DiompConfig::builder_on(platform.clone(), 2)
                .with_binding(binding)
                .with_heap(4 << 20)
                .build();
            DiompRuntime::run(cfg, |ctx, rank| {
                let ptr = rank.alloc_sym(ctx, 1024).unwrap();
                let peer = (rank.rank + 1) % rank.nranks();
                rank.put(ctx, peer, ptr, 0, ptr, 0, 256).unwrap();
                rank.fence(ctx);
                rank.barrier(ctx);
            })
            .unwrap_or_else(|e| panic!("{} / {binding:?}: {e}", platform.name));
        }
    }
}

#[test]
fn both_conduits_run_the_same_program_on_infiniband() {
    let run = |conduit: Conduit| -> u64 {
        let t = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let t2 = t.clone();
        let cfg = DiompConfig::builder_on(PlatformSpec::platform_c(), 4)
            .with_conduit(conduit)
            .with_heap(4 << 20)
            .build();
        DiompRuntime::run(cfg, move |ctx, rank| {
            let ptr = rank.alloc_sym(ctx, 64 << 10).unwrap();
            let right = (rank.rank + 1) % rank.nranks();
            rank.put(ctx, right, ptr, 0, ptr, 0, 32 << 10).unwrap();
            rank.fence(ctx);
            rank.barrier(ctx);
            if rank.rank == 0 {
                t2.store(ctx.now().nanos(), std::sync::atomic::Ordering::Relaxed);
            }
        })
        .unwrap();
        t.load(std::sync::atomic::Ordering::Relaxed)
    };
    let gas = run(Conduit::GasnetEx);
    let gpi = run(Conduit::Gpi2);
    assert!(gas > 0 && gpi > 0);
    assert_ne!(gas, gpi, "the two conduits have distinct cost models");
}

#[test]
fn ompccl_collectives_match_host_reference_across_platforms() {
    for platform in PlatformSpec::all() {
        let cfg = DiompConfig::builder_on(platform.clone(), 2).with_heap(4 << 20).build();
        DiompRuntime::run(cfg, |ctx, rank| {
            let world = rank.shared.world_group();
            let n = rank.nranks();
            let ptr = rank.alloc_sym(ctx, 256).unwrap();
            let vals: Vec<u8> =
                (0..8).flat_map(|i| ((rank.rank + i) as f64).to_le_bytes()).collect();
            rank.write_local(rank.primary(), ptr, 0, &vals);
            rank.barrier(ctx);
            rank.allreduce(ctx, &world, ptr, 64, ReduceOp::SumF64);
            let mut out = vec![0u8; 64];
            rank.read_local(rank.primary(), ptr, 0, &mut out);
            for (i, c) in out.chunks_exact(8).enumerate() {
                let got = f64::from_le_bytes(c.try_into().unwrap());
                let want: f64 = (0..n).map(|r| (r + i) as f64).sum();
                assert_eq!(got, want);
            }
        })
        .unwrap();
    }
}

#[test]
fn whole_application_runs_are_reproducible() {
    let run = || {
        let cfg = CannonConfig {
            platform: PlatformSpec::platform_b(),
            gpus: 16,
            n: 30240,
            mode: DataMode::CostOnly,
            verify: false,
        };
        cannon::diomp::run(&cfg).elapsed
    };
    assert_eq!(run(), run(), "identical configs must give identical virtual times");
}

#[test]
fn paper_ordering_holds_end_to_end() {
    // The paper's three headline orderings, checked in one place:
    use diomp::apps::micro::{diomp_p2p, mpi_p2p, Metric, P2pProbe, RmaOp};
    use diomp::core::{Conduit, PipelineConfig};
    let a = PlatformSpec::platform_a();

    // 1. DiOMP RMA latency < MPI RMA latency (Fig. 3).
    let probe = P2pProbe {
        platform: &a,
        conduit: Conduit::GasnetEx,
        op: RmaOp::Get,
        pipeline: PipelineConfig::auto(&a, Conduit::GasnetEx),
        metric: Metric::LatencyUs,
    };
    let d = diomp_p2p(&probe, &[512]);
    let m = mpi_p2p(&a, RmaOp::Get, &[512], Metric::LatencyUs);
    assert!(d[0].1 < m[0].1);

    // 2. DiOMP app ≥ MPI app at scale (Figs. 7–8).
    let cfg = MinimodConfig {
        platform: a.clone(),
        gpus: 16,
        nx: 1200,
        ny: 1200,
        nz: 1200,
        steps: 8,
        mode: DataMode::CostOnly,
        verify: false,
        halo: HaloStyle::Get,
        tuned: false,
    };
    let d = minimod::diomp::run(&cfg).elapsed;
    let m = minimod::mpi::run(&cfg).elapsed;
    assert!(d <= m, "DiOMP {d} vs MPI {m}");

    // 3. Fewer lines of code for the same exchange (Listings 1–2).
    let t = diomp::apps::loc::loc_table();
    assert!(t[3].lines >= 2 * t[2].lines - 3);
}

#[test]
fn virtual_time_is_meaningful_at_paper_scale() {
    // A 1200³ step on 16 A100s should land in the low-millisecond range —
    // the sanity anchor for every Fig. 8 number.
    let cfg = MinimodConfig {
        platform: PlatformSpec::platform_a(),
        gpus: 16,
        nx: 1200,
        ny: 1200,
        nz: 1200,
        steps: 10,
        mode: DataMode::CostOnly,
        verify: false,
        halo: HaloStyle::Get,
        tuned: false,
    };
    let per_step = minimod::diomp::run(&cfg).elapsed.as_ms() / 10.0;
    assert!(
        (0.5..10.0).contains(&per_step),
        "per-step time {per_step:.2} ms outside the plausible band"
    );
    let _ = SimTime::ZERO;
}
