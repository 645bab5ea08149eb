//! Fig. 4 — point-to-point RMA bandwidth, 1/64 MB – 1 GB. Higher is
//! better. Platform A reproduces the documented DiOMP-Put driver anomaly
//! (run with `--no-anomaly` for the corrected curve, or compare the
//! `DiOMP Put*` column: the chunked large-message pipeline dodges the cap
//! by staging through host memory; `Put+` is the transport autotuner's
//! knee-derived pipeline, `PipelineConfig::auto`). `--json PATH`
//! additionally emits `BENCH_*.json` rows carrying each run's
//! scheduler-entry count.

use diomp_apps::micro::{diomp_p2p, mpi_p2p, Metric, P2pProbe, RmaOp};
use diomp_bench::report::{json_path_from_args, BenchRecord};
use diomp_bench::{paper, size_label};
use diomp_core::{Conduit, PipelineConfig};
use diomp_sim::PlatformSpec;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let no_anomaly = args.iter().any(|a| a == "--no-anomaly");
    let json_path = json_path_from_args(&args);
    let mut records: Vec<BenchRecord> = Vec::new();
    let sizes = &paper::FIG4_SIZES;
    for (tag, name, mut platform, max) in [
        ("a", "(a) Slingshot 11 + A100", PlatformSpec::platform_a(), 64 << 20),
        ("b", "(b) Slingshot 11 + MI250X", PlatformSpec::platform_b(), 1 << 30),
        ("c", "(c) NDR InfiniBand + Grace Hopper", PlatformSpec::platform_c(), 1 << 30),
    ] {
        if no_anomaly {
            platform.put_anomaly_gbps = None;
        }
        let sizes: Vec<u64> = sizes.iter().copied().filter(|&s| s <= max).collect();
        println!("\n== Fig. 4{name}: bandwidth (GB/s) ==");
        let diomp = |op, pipeline| {
            let probe = P2pProbe {
                platform: &platform,
                conduit: Conduit::GasnetEx,
                op,
                pipeline,
                metric: Metric::BandwidthGbps,
            };
            diomp_p2p(&probe, &sizes)
        };
        let dg = diomp(RmaOp::Get, PipelineConfig::disabled());
        let dp = diomp(RmaOp::Put, PipelineConfig::disabled());
        let dpp = diomp(RmaOp::Put, PipelineConfig::enabled());
        let dpt = diomp(RmaOp::Put, PipelineConfig::auto(&platform, Conduit::GasnetEx));
        let mg = mpi_p2p(&platform, RmaOp::Get, &sizes, Metric::BandwidthGbps);
        let mp = mpi_p2p(&platform, RmaOp::Put, &sizes, Metric::BandwidthGbps);
        println!(
            "{:>8} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
            "size", "DiOMP Get", "DiOMP Put", "DiOMP Put*", "DiOMP Put+", "MPI Get", "MPI Put"
        );
        for i in 0..sizes.len() {
            println!(
                "{:>8} {:>11.2} {:>11.2} {:>11.2} {:>11.2} {:>11.2} {:>11.2}",
                size_label(sizes[i]),
                dg[i].1,
                dp[i].1,
                dpp[i].1,
                dpt[i].1,
                mg[i].1,
                mp[i].1
            );
            let sz = size_label(sizes[i]);
            for (series, row) in [("", &dp), ("_pipelined", &dpp), ("_tuned", &dpt)] {
                let name = format!("fig4{tag}/diomp_put{series}_{sz}");
                records.push(BenchRecord::with_entries(name, row[i].1, "GB/s", row[i].2));
            }
        }
    }
    println!("\n(*) chunked large-message pipeline enabled (PipelineConfig::enabled()).");
    println!("(+) transport-autotuned pipeline (PipelineConfig::auto, knee-derived).");
    println!("paper shape: DiOMP above MPI everywhere except the documented");
    println!("Platform A DiOMP-Put anomaly (external driver issue, Fig. 4a),");
    println!("which the pipelined put dodges by staging chunks through host memory.");
    diomp_bench::report::write_if_requested(json_path.as_deref(), &records);
}
