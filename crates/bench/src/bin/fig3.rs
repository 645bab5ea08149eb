//! Fig. 3 — point-to-point RMA latency, 4 B – 8 KB: DiOMP Put/Get vs MPI
//! Put/Get on the three platforms. Lower is better; the paper's headline
//! is DiOMP's flat ~5 µs curve against MPI's climbing one. The DiOMP
//! side runs through the transport autotuner's default path
//! (`PipelineConfig::auto`); every Fig. 3 size
//! sits below the tuned chunk knee, so the published flat curves are
//! what the tuned configuration itself produces — `bench_gate` locks
//! the 8 KB put latency per platform. `--json PATH` emits every cell as
//! a `BENCH_*.json` record.

use diomp_apps::micro::{diomp_p2p, mpi_p2p, Metric, P2pProbe, RmaOp};
use diomp_bench::report::{json_path_from_args, BenchRecord};
use diomp_bench::{paper, size_label};
use diomp_core::{Conduit, PipelineConfig};
use diomp_sim::PlatformSpec;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = json_path_from_args(&args);
    let mut records: Vec<BenchRecord> = Vec::new();
    let sizes = &paper::FIG3_SIZES;
    for (tag, name, platform) in [
        ("a", "(a) Slingshot 11 + A100", PlatformSpec::platform_a()),
        ("b", "(b) Slingshot 11 + MI250X", PlatformSpec::platform_b()),
        ("c", "(c) NDR InfiniBand + Grace Hopper", PlatformSpec::platform_c()),
    ] {
        println!("\n== Fig. 3{name}: latency (µs) ==");
        let diomp = |op| -> Vec<(u64, f64)> {
            let probe = P2pProbe {
                platform: &platform,
                conduit: Conduit::GasnetEx,
                op,
                pipeline: PipelineConfig::auto(&platform, Conduit::GasnetEx),
                metric: Metric::LatencyUs,
            };
            diomp_p2p(&probe, sizes).into_iter().map(|(s, us, _)| (s, us)).collect()
        };
        let dg = diomp(RmaOp::Get);
        let dp = diomp(RmaOp::Put);
        let mg = mpi_p2p(&platform, RmaOp::Get, sizes, Metric::LatencyUs);
        let mp = mpi_p2p(&platform, RmaOp::Put, sizes, Metric::LatencyUs);
        println!(
            "{:>8} {:>11} {:>11} {:>11} {:>11}",
            "size", "DiOMP Get", "DiOMP Put", "MPI Get", "MPI Put"
        );
        for i in 0..sizes.len() {
            println!(
                "{:>8} {:>11.2} {:>11.2} {:>11.2} {:>11.2}",
                size_label(sizes[i]),
                dg[i].1,
                dp[i].1,
                mg[i].1,
                mp[i].1
            );
            let sz = size_label(sizes[i]);
            for (series, row) in
                [("diomp_get", &dg), ("diomp_put", &dp), ("mpi_get", &mg), ("mpi_put", &mp)]
            {
                records.push(BenchRecord::new(format!("fig3{tag}/{series}_{sz}"), row[i].1, "us"));
            }
        }
    }
    println!("\npaper shape: DiOMP nearly flat (~5 µs on A/B, ~6 µs on C); MPI above it");
    println!("and climbing with size (C: MPI an order of magnitude higher).");
    diomp_bench::report::write_if_requested(json_path.as_deref(), &records);
}
