//! Multi-tenant workload scenario driver (ISSUE 7 tentpole).
//!
//! Replays the canonical 8-job contention scenario — two High, four
//! Normal and two Low QoS tenants overlapping on two platform-A nodes —
//! plus its idle single-tenant reference, and prints per-job p50/p99
//! collective latency and achieved-vs-table wire bandwidth. With
//! `--json PATH` the same rows are emitted as `BENCH_*.json`.
//!
//! Usage:
//!   workload [--json PATH]

use diomp_apps::workload::{canonical_idle_workload, canonical_workload, run_workload};
use diomp_bench::report::{json_path_from_args, write_if_requested, BenchRecord};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = json_path_from_args(&args);
    let mut records = Vec::new();

    let idle = run_workload(&canonical_idle_workload(true));
    let loaded = run_workload(&canonical_workload(true));

    println!(
        "{:>10} {:>7} {:>10} {:>10} {:>10} {:>9}",
        "job", "qos", "p50", "p99", "achieved", "of-table"
    );
    for (scenario, rep) in [("idle", &idle), ("8job", &loaded)] {
        for j in &rep.jobs {
            println!(
                "{:>10} {:>7} {:>8.1}us {:>8.1}us {:>6.2}GB/s {:>8.1}%",
                format!("{scenario}/{}", j.name),
                format!("{:?}", j.qos),
                j.p50_us,
                j.p99_us,
                j.achieved_gbps,
                100.0 * j.achieved_gbps / j.table_gbps,
            );
            records.push(BenchRecord::new(
                format!("workload/{scenario}/{}_p50", j.name),
                j.p50_us,
                "us",
            ));
            records.push(BenchRecord::new(
                format!("workload/{scenario}/{}_p99", j.name),
                j.p99_us,
                "us",
            ));
            records.push(BenchRecord::new(
                format!("workload/{scenario}/{}_achieved_gbps", j.name),
                j.achieved_gbps,
                "GB/s",
            ));
        }
        println!(
            "{:>10} makespan {:.1}us, {} scheduler entries",
            scenario, rep.makespan_us, rep.entries_processed
        );
        records.push(BenchRecord::with_entries(
            format!("workload/{scenario}/makespan"),
            rep.makespan_us,
            "us",
            rep.entries_processed,
        ));
    }
    write_if_requested(json_path.as_deref(), &records);
}
