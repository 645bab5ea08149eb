//! Halo-exchange protocol comparison — the paper's notification-driven
//! Minimod scenario (GASPI §4.1 + §4.5), beyond the published figures.
//!
//! Compares the three DiOMP halo styles and the MPI baseline on the
//! InfiniBand platform (the only one carrying GPI-2):
//!
//! * `get`      — pull-based `ompx_get` + fence + per-step barrier,
//! * `ordered`  — push `ompx_put_notify`, per-id ordered `notify_wait`
//!   drain, per-step barrier (ids reused each step),
//! * `waitsome` — push with step-parity ids, one ranged
//!   `notify_waitsome` drain, **no per-step barrier**,
//! * `mpi`      — Isend/Irecv/Waitall + barrier (Listing 2).
//!
//! Two sections: a Functional run asserting all four styles end on
//! byte-identical wavefields, then a CostOnly rank sweep reporting
//! per-step time and scheduler entries. The binary asserts the waitsome
//! drain costs fewer scheduler entries than ordered per-id waits at
//! every rank count ≥ 4 (the win of ranged notifications: the parity
//! scheme they enable replaces the per-step barrier).

use diomp_apps::minimod::{self, HaloStyle, MinimodConfig};
use diomp_bench::report::{json_path_from_args, BenchRecord};
use diomp_device::DataMode;
use diomp_sim::PlatformSpec;

const STYLES: [(&str, HaloStyle); 3] = [
    ("get", HaloStyle::Get),
    ("ordered", HaloStyle::NotifyOrdered),
    ("waitsome", HaloStyle::NotifyWaitsome),
];

fn cfg(gpus: usize, grid: usize, steps: usize, mode: DataMode, halo: HaloStyle) -> MinimodConfig {
    MinimodConfig::cube(PlatformSpec::platform_c(), gpus, grid, steps, mode, halo)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = json_path_from_args(&args);
    let mut records: Vec<BenchRecord> = Vec::new();

    // -- Correctness: byte-identical wavefields across every style. -----
    println!("== halo correctness: 24³ × 5 steps on 4 GH200 nodes (Functional) ==");
    let reference = minimod::mpi::run(&cfg(4, 24, 5, DataMode::Functional, HaloStyle::Get))
        .wavefield
        .expect("functional run captures the wavefield");
    for (name, halo) in STYLES {
        let r = minimod::diomp::run(&cfg(4, 24, 5, DataMode::Functional, halo));
        assert!(r.verified, "{name}: serial-reference verification failed");
        let w = r.wavefield.expect("functional run captures the wavefield");
        assert_eq!(w, reference, "{name}: wavefield diverged from the MPI baseline");
        println!("  {name:<9} wavefield identical to MPI ({} bytes)", w.len());
    }

    // -- Scale: per-step time and scheduler entries vs rank count. ------
    const GRID: usize = 480;
    const STEPS: usize = 10;
    println!("\n== halo protocols at scale: {GRID}³ × {STEPS} steps (CostOnly) ==");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12}   (ms/step | entries)",
        "GPUs", "get", "ordered", "waitsome", "mpi"
    );
    for gpus in [4usize, 8, 16] {
        let mut row = format!("{gpus:>6}");
        let mut entries = std::collections::HashMap::new();
        for (name, halo) in STYLES {
            let r = minimod::diomp::run(&cfg(gpus, GRID, STEPS, DataMode::CostOnly, halo));
            let ms = r.elapsed.as_ms() / STEPS as f64;
            row.push_str(&format!(" {ms:>7.3}|{:<6}", r.entries));
            entries.insert(name, r.entries);
            records.push(BenchRecord::with_entries(
                format!("fig_halo/{name}_ms_per_step_{gpus}gpus"),
                ms,
                "ms",
                r.entries,
            ));
        }
        let m = minimod::mpi::run(&cfg(gpus, GRID, STEPS, DataMode::CostOnly, HaloStyle::Get));
        let ms = m.elapsed.as_ms() / STEPS as f64;
        row.push_str(&format!(" {ms:>7.3}|{:<6}", m.entries));
        records.push(BenchRecord::with_entries(
            format!("fig_halo/mpi_ms_per_step_{gpus}gpus"),
            ms,
            "ms",
            m.entries,
        ));
        println!("{row}");
        // The acceptance assertion: ranged waitsome + parity ids (no
        // per-step barrier) must beat ordered per-id waits on scheduler
        // entries at every measured rank count (all ≥ 4).
        let (ws, ord) = (entries["waitsome"], entries["ordered"]);
        assert!(
            ws < ord,
            "{gpus} GPUs: waitsome ({ws} entries) must beat ordered per-id waits ({ord})"
        );
        records.push(BenchRecord::new(
            format!("fig_halo/waitsome_entry_saving_{gpus}gpus"),
            (ord - ws) as f64,
            "entries",
        ));
    }
    println!("\nwaitsome < ordered scheduler entries at every rank count ≥ 4: OK");

    diomp_bench::report::write_if_requested(json_path.as_deref(), &records);
}
