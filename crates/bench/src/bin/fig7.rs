//! Fig. 7 — ring matmul strong scaling (N = 30240): DiOMP vs MPI+OpenMP
//! speedup over the single-node baseline on platforms A and B. The paper
//! observes superlinear scaling (shrinking per-rank working sets).

use diomp_apps::cannon;
use diomp_bench::report::{json_path_from_args, BenchRecord};
use diomp_bench::{fig7_cfg, paper};
use diomp_sim::PlatformSpec;

type Speedups = Vec<(usize, f64)>;

fn series(platform: &PlatformSpec, gpus: &[usize]) -> (Speedups, Speedups) {
    let d = cannon::speedup_series(|g| cannon::diomp::run(&fig7_cfg(platform, g)), gpus, None);
    let m = cannon::speedup_series(|g| cannon::mpi::run(&fig7_cfg(platform, g)), gpus, None);
    (d, m)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = json_path_from_args(&args);
    let mut records: Vec<BenchRecord> = Vec::new();
    for (tag, name, platform, gpus, peaks) in [
        (
            "a",
            "(a) Slingshot 11 + A100",
            PlatformSpec::platform_a(),
            &paper::FIG7_GPUS_A[..],
            paper::FIG7_PEAK_A,
        ),
        (
            "b",
            "(b) Slingshot 11 + MI250X",
            PlatformSpec::platform_b(),
            &paper::FIG7_GPUS_B[..],
            paper::FIG7_PEAK_B,
        ),
    ] {
        println!("\n== Fig. 7{name}: matmul speedup vs {}-GPU baseline ==", gpus[0]);
        let (d, m) = series(&platform, gpus);
        println!("{:>6} {:>10} {:>10}", "GPUs", "DiOMP", "MPI");
        for (dd, mm) in d.iter().zip(&m) {
            println!("{:>6} {:>10.2} {:>10.2}", dd.0, dd.1, mm.1);
            for (series_tag, v) in [("diomp", dd.1), ("mpi", mm.1)] {
                records.push(BenchRecord::new(
                    format!("fig7{tag}/{series_tag}_speedup_{}gpus", dd.0),
                    v,
                    "x",
                ));
            }
        }
        println!(
            "peak: DiOMP {:.1} (paper ≈{:.1}), MPI {:.1} (paper ≈{:.1}); superlinear = speedup > {}",
            d.last().unwrap().1,
            peaks.0,
            m.last().unwrap().1,
            peaks.1,
            gpus.last().unwrap() / gpus[0],
        );
    }
    diomp_bench::report::write_if_requested(json_path.as_deref(), &records);
}
