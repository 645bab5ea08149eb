//! Fig. 5 — the two DiOMP conduits compared: GASNet-EX vs GPI-2 Put/Get
//! bandwidth over NDR InfiniBand, 32 B – 128 KB. `--json PATH` emits
//! every cell as a `BENCH_*.json` record.

use diomp_apps::micro::{diomp_p2p, Metric, P2pProbe, RmaOp};
use diomp_bench::report::{json_path_from_args, BenchRecord};
use diomp_bench::{paper, size_label};
use diomp_core::{Conduit, PipelineConfig};
use diomp_sim::PlatformSpec;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = json_path_from_args(&args);
    let mut records: Vec<BenchRecord> = Vec::new();
    let sizes = &paper::FIG5_SIZES;
    let c = PlatformSpec::platform_c();
    // Every conduit takes its tuned pipeline, the runtime's default path.
    let run = |conduit, op| {
        let probe = P2pProbe {
            platform: &c,
            conduit,
            op,
            pipeline: PipelineConfig::auto(&c, conduit),
            metric: Metric::BandwidthGbps,
        };
        diomp_p2p(&probe, sizes)
    };
    let gas_get = run(Conduit::GasnetEx, RmaOp::Get);
    let gas_put = run(Conduit::GasnetEx, RmaOp::Put);
    let gpi_get = run(Conduit::Gpi2, RmaOp::Get);
    let gpi_put = run(Conduit::Gpi2, RmaOp::Put);
    println!("== Fig. 5: conduit bandwidth over NDR InfiniBand (GB/s) ==");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "size", "GASNet Get", "GASNet Put", "GPI Get", "GPI Put"
    );
    for i in 0..sizes.len() {
        println!(
            "{:>8} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            size_label(sizes[i]),
            gas_get[i].1,
            gas_put[i].1,
            gpi_get[i].1,
            gpi_put[i].1
        );
        let sz = size_label(sizes[i]);
        for (series, row) in [
            ("gasnet_get", &gas_get),
            ("gasnet_put", &gas_put),
            ("gpi_get", &gpi_get),
            ("gpi_put", &gpi_put),
        ] {
            records.push(BenchRecord::new(format!("fig5/{series}_{sz}"), row[i].1, "GB/s"));
        }
    }
    println!("\npaper shape: GPI-2 Put outperforms GASNet-EX Put in the small/medium");
    println!("range; all four converge as the wire saturates.");
    diomp_bench::report::write_if_requested(json_path.as_deref(), &records);
}
