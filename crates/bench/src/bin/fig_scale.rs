//! Scale sweep — scheduler cost of the simulator itself at O(10k)
//! ranks: one 16 MB allreduce over {256, 1024, 2048, 4096} single-GPU
//! nodes × {ring, dbt, auto}, in cost-only mode on the NDR-IB platform.
//!
//! Each cell runs the **coalesced** driver (chunk-event coalescing, and
//! the jump over a rigid period's repeats) and, wherever the uncoalesced
//! path is still tractable, a **forced-explicit** reference arm
//! ([`diomp_sim::Sim::force_explicit_schedules`]). The sweep
//! hard-asserts that virtual time is bit-identical between the two arms
//! at every scale both run — the coalesced march is an optimisation of
//! the scheduler, never of the model — and reports the entry reduction
//! and the simulator's own wall-clock side by side.
//!
//! The explicit ring arm is skipped above 1024 ranks: at 4096 its
//! schedule is ~33.5 M chunk sends (2(n−1) steps × n tokens), which is
//! exactly the regime the coalesced march exists for. The DBT schedule
//! stays O(n·chunks), so its explicit arm runs at every scale and carries
//! the measured ≥50× entry-reduction gate at 4096. That arm parks on one
//! completion queue, O(1) per park, so its host time stays within a
//! constant of the coalesced march's: the sweep prints the ratio at 4096
//! ranks and asserts at most 15× (re-registering a wait on every chunk
//! in flight at each park made it 41–48×).
//!
//! The 4096-rank ring cell jumps all but a few hop rows; marching its
//! 33.5 M sends would take several times the tree's host time, so the
//! sweep asserts the ring's is at most the tree's there. Auto's cell
//! also pays its first scan, which marches every candidate schedule on
//! idle links to price it; the sweep prints its host time over the
//! tree's at 4096 ranks and asserts at most 4×, a few marched copies.
//!
//! At 4096 ranks a warm tree cell runs in a second `Sim`: it starts on
//! idle links, so it replays the idle run the cold cell recorded
//! (DESIGN.md D18). The sweep asserts its virtual time is the cold
//! cell's and prints its host time over the cold cell's.
//!
//! Auto must run the tree at every scale (its mid band has no ceiling,
//! so the 16 MB cell sits inside it from 256 ranks up); the sweep
//! asserts that and ends by printing Auto's regret per scale — its time
//! over the faster of ring and tree.
//!
//! Each cell also prints how many of its ranks' fiber stacks were trimmed
//! as they were pooled (`SimReport::stacks_trimmed`): a rank whose frames
//! stayed in its stack's top page is pooled without a syscall.
//!
//! `--json PATH` emits every cell as `BENCH_*.json` records with the
//! run's entry count and simulator wall-clock.

use diomp_apps::micro::{scale_allreduce, ScaleRun};
use diomp_bench::report::{json_path_from_args, BenchRecord};
use diomp_bench::scale_engines;

/// Swept rank counts (= node counts: one GPU per node).
pub const SCALES: [usize; 4] = [256, 1024, 2048, 4096];
/// Fixed payload: 16 MB splits into uniform per-rank tokens at every
/// swept scale (2^24 / 4-byte elements divides by every power of two up
/// to 4096).
pub const PAYLOAD: u64 = 16 << 20;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = json_path_from_args(&args);
    let mut records = Vec::new();
    println!("fig_scale — 16MB allreduce, platform C, 1 GPU/node, cost-only");
    println!(
        "{:>6} {:>5} {:>12} {:>12} {:>12} {:>8} {:>10} {:>10} {:>8}",
        "ranks",
        "eng",
        "virt_ms",
        "entries",
        "entries_ex",
        "ratio",
        "wall_ms",
        "wall_ex_ms",
        "trimmed"
    );
    let mut regrets = Vec::new();
    for &n in &SCALES {
        let mut ends = Vec::new();
        for (eng, engine) in scale_engines() {
            let fast = scale_allreduce(n, engine, PAYLOAD, false);
            let tag = format!("fig_scale/allred16MB_{n}_{eng}");
            records.push(BenchRecord::with_sim_cost(
                format!("{tag}/coalesced"),
                fast.end_ns as f64 / 1000.0,
                "us",
                fast.entries,
                fast.sim_wall_ms,
            ));
            records.push(BenchRecord::new(
                format!("{tag}/coalesced_chunks"),
                fast.coalesced as f64,
                "chunks",
            ));
            // The uncoalesced reference arm, where tractable: the ring
            // materialises 2(n−1)·n sends — ~33.5 M at 4096 ranks, beyond
            // a smoke budget — so its explicit arm (and Auto's, which
            // runs the tree here) stops at 1024. DBT is O(n·chunks) and
            // runs everywhere.
            let explicit: Option<ScaleRun> = (eng == "dbt" || n <= 1024).then(|| {
                let ex = scale_allreduce(n, engine, PAYLOAD, true);
                assert_eq!(
                    ex.end_ns, fast.end_ns,
                    "{tag}: coalesced virtual time diverged from the explicit driver \
                     ({} vs {} ns)",
                    fast.end_ns, ex.end_ns
                );
                records.push(BenchRecord::with_sim_cost(
                    format!("{tag}/explicit"),
                    ex.end_ns as f64 / 1000.0,
                    "us",
                    ex.entries,
                    ex.sim_wall_ms,
                ));
                records.push(BenchRecord::new(
                    format!("{tag}/entry_ratio"),
                    ex.entries as f64 / fast.entries as f64,
                    "x",
                ));
                ex
            });
            let (ex_e, ratio, ex_w) = match &explicit {
                Some(ex) => (
                    format!("{}", ex.entries),
                    format!("{:.1}", ex.entries as f64 / fast.entries as f64),
                    format!("{:.1}", ex.sim_wall_ms),
                ),
                None => ("-".into(), "-".into(), "-".into()),
            };
            if eng == "dbt" && n == 4096 {
                let warm = scale_allreduce(n, engine, PAYLOAD, false);
                assert_eq!(warm.end_ns, fast.end_ns, "{tag}: the warm cell's virtual time moved");
                records.push(BenchRecord::with_sim_cost(
                    format!("{tag}/warm"),
                    warm.end_ns as f64 / 1000.0,
                    "us",
                    warm.entries,
                    warm.sim_wall_ms,
                ));
                let over = warm.sim_wall_ms / fast.sim_wall_ms;
                println!("fig_scale/allred16MB_{n}/dbt_warm_over_cold_wall {over:.2}x");
            }
            ends.push((fast.end_ns, fast.sim_wall_ms, explicit.map(|ex| ex.sim_wall_ms)));
            println!(
                "{n:>6} {eng:>5} {:>12.3} {:>12} {ex_e:>12} {ratio:>8} {:>10.1} {ex_w:>10} {:>8}",
                fast.end_ns as f64 / 1e6,
                fast.entries,
                fast.sim_wall_ms,
                fast.stacks_trimmed,
            );
        }
        // `scale_engines()` is ring, dbt, auto. Auto's mid band has no
        // ceiling, so at every swept scale it runs the tree here.
        let [(ring, ring_ms, _), (dbt, dbt_ms, dbt_ex_ms), (auto, auto_ms, _)] = ends[..] else {
            unreachable!()
        };
        assert_eq!(auto, dbt, "{n} ranks: Auto must run the tree");
        if n == 4096 {
            let ex_ms = dbt_ex_ms.expect("the tree's explicit arm runs at every scale");
            let over = ex_ms / dbt_ms;
            println!("fig_scale/allred16MB_{n}/explicit_over_coalesced_wall {over:.2}x");
            assert!(
                over <= 15.0,
                "{n}: explicit tree host {ex_ms:.1} > 15× coalesced {dbt_ms:.1} ms"
            );
            assert!(ring_ms <= dbt_ms, "{n}: ring host {ring_ms:.1} > tree {dbt_ms:.1} ms");
            let over = auto_ms / dbt_ms;
            println!("fig_scale/allred16MB_{n}/auto_over_dbt_wall {over:.2}x");
            assert!(over <= 4.0, "{n}: Auto host {auto_ms:.1} > 4× tree {dbt_ms:.1} ms");
        }
        let regret = auto as f64 / ring.min(dbt) as f64;
        regrets.push((n, regret));
        records.push(BenchRecord::new(
            format!("fig_scale/allred16MB_{n}/auto_regret"),
            regret,
            "x",
        ));
    }
    for (n, regret) in regrets {
        println!("fig_scale/allred16MB_{n}/auto_regret {regret:.3}x");
    }
    diomp_bench::report::write_if_requested(json_path.as_deref(), &records);
}
