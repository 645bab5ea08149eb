//! Fig. 6 — collective latency heatmaps: `log10(t_MPI / t_DiOMP)` for
//! Broadcast (32 KB–64 MB) and AllReduce (128 KB–64 MB) on the paper's
//! three platforms (64 A100s, 64 GCDs, 16 GH200s). The DiOMP side runs
//! through the emergent chunk-pipelined ring engine by default; pass
//! `--auto` for the transport autotuner's protocol-selecting engine
//! (LL/tree small-message fast paths, ring above the crossover — the
//! configuration that reproduces the fitted small-size dips).
//! `--json PATH` emits every cell — DiOMP µs with the run's
//! scheduler-entry count, MPI µs, and the log-ratio — as `BENCH_*.json`
//! records.

use diomp_apps::micro::{
    collective_price, diomp_collective, fig6_nodes, log_ratio, mpi_collective, CollKind, CollProbe,
};
use diomp_bench::report::{json_path_from_args, BenchRecord};
use diomp_bench::{mae, paper, print_ratio_row, sign_agreement, size_label};
use diomp_core::{CollEngine, Conduit, Tuner};
use diomp_sim::PlatformSpec;

/// Which DiOMP engine the run measures on a platform (`Auto` is derived
/// from its tables).
type EngineFor = fn(&PlatformSpec) -> CollEngine;

#[allow(clippy::too_many_arguments)]
fn run_op(
    kind: CollKind,
    op_tag: &str,
    sizes: &[u64],
    engine_for: EngineFor,
    records: &mut Vec<BenchRecord>,
    refs: [(&str, &str, PlatformSpec, &[f64]); 3],
) {
    for (tag, name, platform, paper_row) in refs {
        let engine = engine_for(&platform);
        let nodes = fig6_nodes(&platform);
        let probe = CollProbe { platform: &platform, nodes, server_nodes: 0, kind, engine };
        // Under --auto, show where the dispatcher switches protocol for
        // this op at this scale (LL/tree below the first boundary, double
        // binary tree in the mid band, ring above), as a communicator of
        // this shape prices its regimes. A broadcast's tree runs its top
        // layout, then fed from the first size at which Auto prices like
        // the pinned tree, which always runs fed.
        if let (Some((ll, dbt, _)), CollEngine::Auto(ac)) =
            (collective_price(&probe, &[]).cuts, engine)
        {
            let ll_band = if ll == 0 { "none".into() } else { format!("<= {}", size_label(ll)) };
            let mut bands = vec![format!("LL/tree {ll_band}")];
            if dbt > ll {
                let top = if dbt == u64::MAX { "any".into() } else { size_label(dbt) };
                bands.push(format!("DBT <= {top}"));
                if kind == CollKind::Broadcast {
                    let band: Vec<u64> =
                        (10..=24).map(|k| 1u64 << k).filter(|&s| s > ll && s <= dbt).collect();
                    let pinned = CollProbe { engine: CollEngine::Dbt(ac.ring_bcast), ..probe };
                    let fed = collective_price(&pinned, &band).us;
                    let auto = collective_price(&probe, &band).us;
                    let from = auto.iter().zip(&fed).find(|(a, f)| a.1 == f.1).map(|(a, _)| a.0);
                    bands
                        .push(from.map_or("top".into(), |s| format!("fed from {}", size_label(s))));
                }
            }
            if dbt != u64::MAX {
                bands.push("ring above".into());
            }
            println!("   [{tag}] auto regimes: {}", bands.join(", "));
        }
        let mpi = mpi_collective(&platform, nodes, kind, sizes);
        let full = diomp_collective(&probe, sizes);
        let diomp: Vec<(u64, f64)> = full.iter().map(|&(s, us, _)| (s, us)).collect();
        let ratio = log_ratio(&mpi, &diomp);
        print_ratio_row(name, sizes, &ratio, paper_row);
        println!(
            "   sign agreement {:.0}%   MAE {:.2}",
            100.0 * sign_agreement(&ratio, paper_row),
            mae(&ratio, paper_row)
        );
        // Tag the DiOMP rows with the engine so ring and --auto
        // artifacts stay distinguishable side by side.
        let eng = match engine {
            CollEngine::Ring(_) => "diomp",
            CollEngine::Dbt(_) => "diomp_dbt",
            CollEngine::Auto(_) => "diomp_auto",
            CollEngine::ReductionServer(_) => "diomp_rserver",
        };
        for (i, &(s, us, entries)) in full.iter().enumerate() {
            let sz = size_label(s);
            records.push(BenchRecord::with_entries(
                format!("fig6/{op_tag}_{tag}_{sz}/{eng}"),
                us,
                "us",
                entries,
            ));
            records.push(BenchRecord::new(format!("fig6/{op_tag}_{tag}_{sz}/mpi"), mpi[i].1, "us"));
            records.push(BenchRecord::new(
                format!("fig6/{op_tag}_{tag}_{sz}/log_ratio"),
                ratio[i].1,
                "log10",
            ));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = json_path_from_args(&args);
    let engine: EngineFor = if args.iter().any(|a| a == "--auto") {
        |p| Tuner::new(p, Conduit::GasnetEx).coll_engine()
    } else {
        |_| CollEngine::default()
    };
    let mut records = Vec::new();
    println!("Fig. 6(a) Broadcast — log10(MPI/DiOMP), positive = DiOMP faster");
    run_op(
        CollKind::Broadcast,
        "bcast",
        &paper::FIG6_BCAST_SIZES,
        engine,
        &mut records,
        [
            (
                "A",
                "Slingshot 11 + A100 (64 GPUs)",
                PlatformSpec::platform_a(),
                &paper::FIG6_BCAST_A,
            ),
            ("C", "NDR IB + GH200 (16 GPUs)", PlatformSpec::platform_c(), &paper::FIG6_BCAST_C),
            (
                "B",
                "Slingshot 11 + MI250X (64 GCDs)",
                PlatformSpec::platform_b(),
                &paper::FIG6_BCAST_B,
            ),
        ],
    );
    println!("\nFig. 6(b) AllReduce(sum) — log10(MPI/DiOMP)");
    run_op(
        CollKind::AllReduce,
        "allred",
        &paper::FIG6_ALLRED_SIZES,
        engine,
        &mut records,
        [
            (
                "A",
                "Slingshot 11 + A100 (64 GPUs)",
                PlatformSpec::platform_a(),
                &paper::FIG6_ALLRED_A,
            ),
            ("C", "NDR IB + GH200 (16 GPUs)", PlatformSpec::platform_c(), &paper::FIG6_ALLRED_C),
            (
                "B",
                "Slingshot 11 + MI250X (64 GCDs)",
                PlatformSpec::platform_b(),
                &paper::FIG6_ALLRED_B,
            ),
        ],
    );
    diomp_bench::report::write_if_requested(json_path.as_deref(), &records);
}
