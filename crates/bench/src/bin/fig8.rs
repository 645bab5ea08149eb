//! Fig. 8 — Minimod (1200³ grid) speedup: DiOMP vs MPI on platforms A
//! and B, both normalised to MPI's single-node time (the paper's
//! baseline). Steady-state per-step times make speedups step-count
//! invariant, so the harness simulates 40 steps instead of 1000.

use diomp_apps::minimod;
use diomp_bench::report::{json_path_from_args, BenchRecord};
use diomp_bench::{fig8_cfg, paper};
use diomp_sim::PlatformSpec;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = json_path_from_args(&args);
    let mut records: Vec<BenchRecord> = Vec::new();
    for (tag, name, platform, gpus, peaks) in [
        (
            "a",
            "(a) Slingshot 11 + A100",
            PlatformSpec::platform_a(),
            &paper::FIG8_GPUS_A[..],
            paper::FIG8_PEAK_A,
        ),
        (
            "b",
            "(b) Slingshot 11 + MI250X",
            PlatformSpec::platform_b(),
            &paper::FIG8_GPUS_B[..],
            paper::FIG8_PEAK_B,
        ),
    ] {
        let cfg = |g: usize| fig8_cfg(&platform, g);
        println!(
            "\n== Fig. 8{name}: Minimod speedup vs MPI {}-GPU baseline ({} of {} steps simulated) ==",
            gpus[0],
            paper::FIG8_SIM_STEPS,
            paper::FIG8_STEPS
        );
        let base = minimod::mpi::run(&cfg(gpus[0])).elapsed.as_nanos() as f64;
        println!("{:>6} {:>10} {:>10}", "GPUs", "DiOMP", "MPI");
        let mut last = (0.0, 0.0);
        for &g in gpus {
            let d = base / minimod::diomp::run(&cfg(g)).elapsed.as_nanos() as f64;
            let m = base / minimod::mpi::run(&cfg(g)).elapsed.as_nanos() as f64;
            println!("{g:>6} {d:>10.2} {m:>10.2}");
            for (series_tag, v) in [("diomp", d), ("mpi", m)] {
                records.push(BenchRecord::new(
                    format!("fig8{tag}/{series_tag}_speedup_{g}gpus"),
                    v,
                    "x",
                ));
            }
            last = (d, m);
        }
        println!(
            "peak: DiOMP {:.1} (paper ≈{:.1}), MPI {:.1} (paper ≈{:.1})",
            last.0, peaks.0, last.1, peaks.1
        );
    }
    diomp_bench::report::write_if_requested(json_path.as_deref(), &records);
}
