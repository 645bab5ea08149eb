//! End-to-end application tests: both matmul and Minimod implementations
//! must produce bit-correct results and the paper's qualitative ordering
//! (DiOMP ≥ MPI performance at scale).

use diomp_apps::cannon::{self, CannonConfig};
use diomp_apps::minimod::{self, HaloStyle, MinimodConfig};
use diomp_device::DataMode;
use diomp_sim::PlatformSpec;

fn matmul_cfg(gpus: usize, n: usize, mode: DataMode) -> CannonConfig {
    CannonConfig {
        platform: PlatformSpec::platform_a(),
        gpus,
        n,
        mode,
        verify: mode == DataMode::Functional,
    }
}

#[test]
fn diomp_matmul_is_correct_on_4_gpus() {
    let r = cannon::diomp::run(&matmul_cfg(4, 64, DataMode::Functional));
    assert!(r.verified);
}

#[test]
fn mpi_matmul_is_correct_on_4_gpus() {
    let r = cannon::mpi::run(&matmul_cfg(4, 64, DataMode::Functional));
    assert!(r.verified);
}

#[test]
fn matmul_is_correct_across_nodes() {
    // 8 GPUs = 2 platform-A nodes: the ring crosses the network.
    let d = cannon::diomp::run(&matmul_cfg(8, 96, DataMode::Functional));
    let m = cannon::mpi::run(&matmul_cfg(8, 96, DataMode::Functional));
    assert!(d.verified && m.verified);
}

#[test]
fn counter_rotation_verifies_on_every_ring_shape() {
    // Half-stripes travel the ring both ways: 1–4 nodes, the two-rank
    // ring whose left neighbour is its right one, and odd stripe
    // heights (ns = 3: one row forward, two backward).
    for (gpus, n) in [(2, 8), (4, 12), (8, 48), (12, 48), (16, 48)] {
        let cfg = matmul_cfg(gpus, n, DataMode::Functional);
        assert!(cannon::diomp::run(&cfg).verified, "DiOMP, {gpus} GPUs, N = {n}");
        assert!(cannon::mpi::run(&cfg).verified, "MPI, {gpus} GPUs, N = {n}");
    }
}

#[test]
fn inter_node_crossings_carry_half_a_stripe_each_way() {
    // 12 GPUs = 3 platform-A nodes, three crossings. Each is served by
    // two NICs — the forward half leaves one node, the backward half
    // the other — so no NIC carries more than (p−1) half-stripes (plus
    // 64-byte requests and wire framing, at most 1/0.8 for MPI's
    // rendezvous), where a one-way ring puts (p−1) whole stripes on one
    // NIC per node.
    let cfg = matmul_cfg(12, 30240, DataMode::CostOnly);
    let half = 11 * cfg.stripe_bytes() / 2;
    for (arm, r) in [("DiOMP", cannon::diomp::run(&cfg)), ("MPI", cannon::mpi::run(&cfg))] {
        let b = r.nic_bytes_max;
        assert!(b >= half && b < half * 13 / 10, "{arm}: busiest NIC {b} B vs {half} B");
    }
}

#[test]
fn diomp_matmul_beats_mpi_at_scale() {
    // Fig. 7's qualitative claim at paper scale (CostOnly). With both
    // directions of every link in use, platform A at 32 GPUs is
    // GEMM-bound in both arms and they tie; where the ring is still
    // wire-bound (platform B, 64 GCDs), DiOMP's one-sided pull wins.
    let d = cannon::diomp::run(&matmul_cfg(32, 30240, DataMode::CostOnly)).elapsed;
    let m = cannon::mpi::run(&matmul_cfg(32, 30240, DataMode::CostOnly)).elapsed;
    let ratio = d.as_nanos() as f64 / m.as_nanos() as f64;
    assert!((ratio - 1.0).abs() < 0.01, "A/32 is a GEMM-bound tie: DiOMP {d}, MPI {m}");
    let b64 = CannonConfig {
        platform: PlatformSpec::platform_b(),
        ..matmul_cfg(64, 30240, DataMode::CostOnly)
    };
    let (d, m) = (cannon::diomp::run(&b64).elapsed, cannon::mpi::run(&b64).elapsed);
    assert!(d < m, "B/64: DiOMP {d} must beat MPI {m}");
}

#[test]
fn matmul_strong_scaling_is_superlinear() {
    // Fig. 7: fixed N, 4 → 16 GPUs should give more than 4× (cache term).
    let t4 = cannon::diomp::run(&matmul_cfg(4, 30240, DataMode::CostOnly)).elapsed;
    let t16 = cannon::diomp::run(&matmul_cfg(16, 30240, DataMode::CostOnly)).elapsed;
    let speedup = t4.as_nanos() as f64 / t16.as_nanos() as f64;
    assert!(speedup > 4.2, "expected superlinear speedup at 4x resources, got {speedup:.2}");
}

fn minimod_cfg(gpus: usize, grid: usize, steps: usize, mode: DataMode) -> MinimodConfig {
    MinimodConfig {
        platform: PlatformSpec::platform_a(),
        gpus,
        nx: grid,
        ny: grid,
        nz: grid,
        steps,
        mode,
        verify: mode == DataMode::Functional,
        halo: HaloStyle::Get,
        tuned: false,
    }
}

/// Like [`minimod_cfg`] but on the InfiniBand platform (GPI-2-capable),
/// with a chosen halo style.
fn minimod_cfg_c(gpus: usize, grid: usize, steps: usize, halo: HaloStyle) -> MinimodConfig {
    MinimodConfig {
        platform: PlatformSpec::platform_c(),
        gpus,
        nx: grid,
        ny: grid,
        nz: grid,
        steps,
        mode: DataMode::Functional,
        verify: true,
        halo,
        tuned: false,
    }
}

#[test]
fn notified_halo_styles_match_serial_reference() {
    for halo in [HaloStyle::NotifyOrdered, HaloStyle::NotifyWaitsome] {
        let r = minimod::diomp::run(&minimod_cfg_c(4, 24, 4, halo));
        assert!(r.verified, "{halo:?} must verify against the serial reference");
    }
}

#[test]
fn all_halo_styles_produce_byte_identical_wavefields() {
    // The acceptance bar for the notified exchange: get-based, ordered-
    // notify, waitsome-notify and the MPI baseline all end on the exact
    // same bytes.
    let reference = minimod::mpi::run(&minimod_cfg_c(4, 24, 5, HaloStyle::Get))
        .wavefield
        .expect("functional MPI run captures the wavefield");
    for halo in [HaloStyle::Get, HaloStyle::NotifyOrdered, HaloStyle::NotifyWaitsome] {
        let w = minimod::diomp::run(&minimod_cfg_c(4, 24, 5, halo)).wavefield.unwrap();
        assert_eq!(w, reference, "{halo:?} wavefield diverged from MPI");
    }
}

#[test]
fn waitsome_halo_needs_fewer_scheduler_entries_than_ordered() {
    // Dropping the per-step barrier (parity ids + ranged waitsome) must
    // show up as scheduler-entry savings at ≥ 4 ranks.
    let mut cfg = minimod_cfg_c(4, 32, 6, HaloStyle::NotifyOrdered);
    cfg.mode = DataMode::CostOnly;
    cfg.verify = false;
    let ordered = minimod::diomp::run(&cfg).entries;
    cfg.halo = HaloStyle::NotifyWaitsome;
    let waitsome = minimod::diomp::run(&cfg).entries;
    assert!(
        waitsome < ordered,
        "waitsome drain ({waitsome} entries) must beat ordered per-id waits ({ordered})"
    );
}

#[test]
fn notified_minimod_is_deterministic() {
    let run = || minimod::diomp::run(&minimod_cfg_c(4, 24, 4, HaloStyle::NotifyWaitsome));
    let (a, b) = (run(), run());
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.entries, b.entries);
    assert_eq!(a.wavefield, b.wavefield);
}

#[test]
fn diomp_minimod_matches_serial_reference() {
    let r = minimod::diomp::run(&minimod_cfg(4, 16, 4, DataMode::Functional));
    assert!(r.verified);
}

#[test]
fn mpi_minimod_matches_serial_reference() {
    let r = minimod::mpi::run(&minimod_cfg(4, 16, 4, DataMode::Functional));
    assert!(r.verified);
}

#[test]
fn minimod_is_correct_across_nodes() {
    // 8 ranks need nz ≥ 8·RADIUS so each slab covers the stencil radius.
    let d = minimod::diomp::run(&minimod_cfg(8, 32, 3, DataMode::Functional));
    let m = minimod::mpi::run(&minimod_cfg(8, 32, 3, DataMode::Functional));
    assert!(d.verified && m.verified);
}

#[test]
fn diomp_minimod_beats_mpi_at_paper_scale() {
    // Fig. 8's qualitative claim: 1200³ grid (CostOnly), multi-node.
    let cfg_d = MinimodConfig {
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
    let d = minimod::diomp::run(&cfg_d);
    let m = minimod::mpi::run(&cfg_d);
    assert!(d.elapsed < m.elapsed, "DiOMP {} must beat MPI {}", d.elapsed, m.elapsed);
}

#[test]
fn app_runs_are_deterministic() {
    let a = cannon::diomp::run(&matmul_cfg(8, 30240, DataMode::CostOnly)).elapsed;
    let b = cannon::diomp::run(&matmul_cfg(8, 30240, DataMode::CostOnly)).elapsed;
    assert_eq!(a, b);
    let c = minimod::mpi::run(&minimod_cfg(4, 16, 3, DataMode::Functional)).elapsed;
    let d = minimod::mpi::run(&minimod_cfg(4, 16, 3, DataMode::Functional)).elapsed;
    assert_eq!(c, d);
}

#[test]
fn micro_latency_orders_diomp_below_mpi() {
    // Fig. 3 sign: DiOMP small-message RMA latency (through the tuned
    // default path) under MPI's.
    use diomp_apps::micro::{diomp_p2p, mpi_p2p, Metric, P2pProbe, RmaOp};
    use diomp_core::{Conduit, PipelineConfig};
    let p = PlatformSpec::platform_a();
    let sizes = [8u64, 1024];
    let probe = P2pProbe {
        platform: &p,
        conduit: Conduit::GasnetEx,
        op: RmaOp::Put,
        pipeline: PipelineConfig::auto(&p, Conduit::GasnetEx),
        metric: Metric::LatencyUs,
    };
    let d = diomp_p2p(&probe, &sizes);
    let m = mpi_p2p(&p, RmaOp::Put, &sizes, Metric::LatencyUs);
    for (dd, mm) in d.iter().zip(&m) {
        assert!(dd.1 < mm.1, "size {}: DiOMP {:.2} µs vs MPI {:.2} µs", dd.0, dd.1, mm.1);
    }
}

#[test]
fn micro_bandwidth_shows_put_anomaly_on_platform_a() {
    use diomp_apps::micro::{diomp_p2p, mpi_p2p, Metric, P2pProbe, RmaOp};
    use diomp_core::{Conduit, PipelineConfig};
    let p = PlatformSpec::platform_a();
    let bw = |op| {
        let probe = P2pProbe {
            platform: &p,
            conduit: Conduit::GasnetEx,
            op,
            // The paper's published curves are unpipelined.
            pipeline: PipelineConfig::disabled(),
            metric: Metric::BandwidthGbps,
        };
        diomp_p2p(&probe, &[64 << 20])[0].1
    };
    let (put, get) = (bw(RmaOp::Put), bw(RmaOp::Get));
    assert!(put < 4.0, "Fig. 4a anomaly: put capped, got {put:.1} GB/s");
    assert!(get > 15.0, "get unaffected, got {get:.1} GB/s");
    let mpi_get = mpi_p2p(&p, RmaOp::Get, &[64 << 20], Metric::BandwidthGbps)[0].1;
    assert!(5.0 < mpi_get && mpi_get < get, "MPI get {mpi_get:.1} GB/s under DiOMP's");
}

#[test]
fn gpi_beats_gasnet_for_small_puts_on_infiniband() {
    // Fig. 5's qualitative claim, each conduit under its tuned pipeline.
    use diomp_apps::micro::{diomp_p2p, Metric, P2pProbe, RmaOp};
    use diomp_core::{Conduit, PipelineConfig};
    let c = PlatformSpec::platform_c();
    let put_us = |conduit| {
        let probe = P2pProbe {
            platform: &c,
            conduit,
            op: RmaOp::Put,
            pipeline: PipelineConfig::auto(&c, conduit),
            metric: Metric::LatencyUs,
        };
        diomp_p2p(&probe, &[2048])[0].1
    };
    let (gas, gpi) = (put_us(Conduit::GasnetEx), put_us(Conduit::Gpi2));
    assert!(gpi < gas, "GPI-2 {gpi:.2} µs should beat GASNet-EX {gas:.2} µs at 2 KiB");
}

#[test]
fn micro_collective_orders_ompccl_below_mpi_at_large_sizes() {
    // Fig. 6b sign at the bandwidth-bound end: OMPCCL's ring allreduce
    // beats MPI's on 64 A100s (paper: log10 ratio 0.43 at 4 MB).
    use diomp_apps::micro::{
        diomp_collective, fig6_nodes, log_ratio, mpi_collective, CollKind, CollProbe,
    };
    let platform = PlatformSpec::platform_a();
    let (nodes, kind) = (fig6_nodes(&platform), CollKind::AllReduce);
    let engine = diomp_core::CollEngine::default();
    let probe = CollProbe { platform: &platform, nodes, server_nodes: 0, kind, engine };
    let diomp: Vec<(u64, f64)> =
        diomp_collective(&probe, &[4 << 20]).into_iter().map(|(s, us, _)| (s, us)).collect();
    let mpi = mpi_collective(&platform, nodes, kind, &[4 << 20]);
    let ratio = log_ratio(&mpi, &diomp)[0].1;
    assert!(ratio > 0.0, "DiOMP {:.1} µs vs MPI {:.1} µs", diomp[0].1, mpi[0].1);
}

#[test]
fn ll_broadcast_at_fig6_scale_lands_on_its_recorded_instants() {
    // The LL regime is marched by the shared schedule drivers and pays
    // one step per send. A broadcast has no fold, and on A and C no two
    // devices share a NIC, so none of that may move its completion: these
    // are the closed-form LL engine's values at `3cf65d5` (µs, 32 and
    // 64 KiB on 64 A100s / 16 platform-C nodes). The tuned engine runs
    // the tree there, so Auto runs on 256-byte rings, whose chunked
    // regimes price above LL.
    use diomp_apps::micro::{diomp_collective, fig6_nodes, CollKind, CollProbe};
    use diomp_core::{AutoConfig, CollEngine, Conduit, RingConfig, Tuner};
    let tiny = RingConfig { chunk_bytes: 256, max_inflight: 2 };
    for (platform, want) in [
        (PlatformSpec::platform_a(), [40.174, 46.116]),
        (PlatformSpec::platform_c(), [40.238, 45.642]),
    ] {
        let tuned = Tuner::new(&platform, Conduit::GasnetEx).auto_config();
        let engine = CollEngine::Auto(AutoConfig { ring_bcast: tiny, ring_allred: tiny, ..tuned });
        let (nodes, kind) = (fig6_nodes(&platform), CollKind::Broadcast);
        let probe = CollProbe { platform: &platform, nodes, server_nodes: 0, kind, engine };
        for ((size, us, _), want) in
            diomp_collective(&probe, &[32 << 10, 64 << 10]).iter().zip(want)
        {
            assert!((us - want).abs() < 1e-6, "{}: {size} B took {us} µs", platform.name);
        }
    }
}
