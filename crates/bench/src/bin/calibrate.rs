//! Calibration probe (maintenance tool): prints raw MPI and DiOMP
//! collective times per Fig. 6 cell so the XCCL achieved-bandwidth curves
//! in `diomp-sim::platform` can be refitted after MPI-side changes.
//!
//! The DiOMP column runs the *profile* engine on purpose: refitting the
//! `CollProfile` curves from ring-engine output would be circular (the
//! ring's link efficiency is itself derived from those curves). The
//! `ring_us` column is printed alongside for cross-checking the emergent
//! protocol, never for fitting.

use diomp_apps::micro::{diomp_collective, fig6_nodes, mpi_collective, CollKind, CollProbe};
use diomp_bench::paper;
use diomp_core::CollEngine;
use diomp_sim::PlatformSpec;

fn main() {
    for (pname, platform) in [
        ("A", PlatformSpec::platform_a()),
        ("B", PlatformSpec::platform_b()),
        ("C", PlatformSpec::platform_c()),
    ] {
        let nodes = fig6_nodes(&platform);
        for (op, opname, sizes) in [
            (CollKind::Broadcast, "bcast", &paper::FIG6_BCAST_SIZES[..]),
            (CollKind::AllReduce, "allred", &paper::FIG6_ALLRED_SIZES[..]),
        ] {
            let mpi = mpi_collective(&platform, nodes, op, sizes);
            let run = |engine| {
                let probe =
                    CollProbe { platform: &platform, nodes, server_nodes: 0, kind: op, engine };
                diomp_collective(&probe, sizes)
            };
            let diomp = run(CollEngine::Profile);
            let ring = run(CollEngine::default());
            for ((&(s, m), &(_, d, _)), &(_, r, _)) in mpi.iter().zip(&diomp).zip(&ring) {
                println!("{pname} {opname} {s} mpi_us={m:.2} diomp_us={d:.2} ring_us={r:.2}");
            }
        }
    }
}
