//! `layerbench` — the pinned, fixed-iteration layered benchmark.
//!
//! One invocation runs one named workload:
//!
//! ```text
//! layerbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! It pins itself to one CPU before doing anything else (and refuses to
//! run if it cannot), sets the workload up from the seed, runs a fixed
//! number of identical iterations, checks outputs, prints every metric by
//! name with its unit, and ends with one JSON line. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` repeats the workload with spans
//! recorded around every call into a layer and reports the per-layer
//! ledger. See `benchmark/README.md`.

mod host;
mod inputs;
mod metrics;
mod paper;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use stats::{median, min};
use trace::{Scope, Tracer};
use workloads::{Check, Entry, IterOut, Workload};

/// Default workload seed.
const DEFAULT_SEED: u64 = 20250613;
/// Default length of the measured window, seconds.
const DEFAULT_SECONDS: u32 = 18;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Largest share by which a layer's parts may miss their whole.
const MAX_PARTS_GAP: f64 = 0.02;

struct Args {
    workload: &'static Entry,
    seed: u64,
    seconds: u32,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::ALL.iter().map(|e| e.name).collect();
    format!(
        "usage: layerbench --workload <{}> [--seed N] [--seconds 1..60] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, DEFAULT_SECONDS, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workloads::find(value).ok_or_else(|| format!("no workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value:?}: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(1..=60).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is outside 1..60"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is neither 0 nor 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args { workload: workload.ok_or("--workload is required")?, seed, seconds, trace })
}

/// One timed iteration under a root span.
fn timed_iteration(w: &dyn Workload, tr: &Arc<Tracer>, iter: u32) -> (f64, IterOut) {
    let t = Instant::now();
    let out = tr.span(Scope { parent: None, iter }, "bench", "iteration", 0, |s| w.iterate(tr, s));
    (t.elapsed().as_secs_f64() * 1e3, out)
}

/// Every iteration must reproduce iteration 0's virtual end time and
/// entry count; a mismatch is a failed op.
fn check_repeats(outs: &[IterOut], check: &mut Check) {
    for o in outs {
        check.add(o.check);
    }
    for o in &outs[1..] {
        check.record(o.end_ns == outs[0].end_ns && o.entries == outs[0].entries);
    }
}

fn print_metrics(table: &[(&str, &str)], values: &[(&str, f64)]) {
    for (name, unit) in table {
        let v = values.iter().find(|(n, _)| n == name).map_or(f64::NAN, |x| x.1);
        println!("{name:<34} {v:>18.6} {unit}");
    }
}

fn finish(check: Check, correct: bool, table: &[(&str, &str)], values: &[(&str, f64)]) -> ExitCode {
    let share = check.failed as f64 / check.attempted.max(1) as f64;
    println!("ops attempted {} failed {} ops_failed_share {share}", check.attempted, check.failed);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct && check.failed == 0,
        check.attempted.max(1),
        check.failed,
        metrics::to_json(table, values)
    );
    ExitCode::SUCCESS
}

/// The untraced run: set up three times, measure a fixed number of
/// iterations, report the end-to-end metrics.
fn run_end_to_end(args: &Args) -> ExitCode {
    let e = args.workload;
    let off = Arc::new(Tracer::new(false));
    let mut check = Check::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let w = (e.prepare)(args.seed);
        check.add(w.verify());
        check.add(w.warm_up());
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some(w);
    }
    let w = prepared.expect("at least one set-up");

    let n = e.iterations(args.seconds);
    let window = Instant::now();
    let (host_ms, outs): (Vec<f64>, Vec<IterOut>) =
        (0..n).map(|i| timed_iteration(w.as_ref(), &off, i)).unzip();
    let window_s = window.elapsed().as_secs_f64();
    check_repeats(&outs, &mut check);

    let first = &outs[0];
    let values = [
        ("setup_s", median(&setup_s)),
        ("host_iter_min_ms", min(&host_ms)),
        ("peak_rss_mb", host::peak_rss_mb()),
        ("virt_time_ms", first.virt_ns as f64 / 1e6),
        ("virt_op_p50_us", first.ops.p50_us),
        ("virt_op_tail_us", first.ops.tail_us),
        ("virt_goodput_gbps", first.goodput_gbps),
    ];
    println!(
        "workload {} seed {} iterations {n} window {window_s:.2} s set-ups {setup_s:.3?} s",
        e.name, args.seed
    );
    println!(
        "samples: host_iter_min_ms {} iterations (median {:.3} ms); virt_op_* {} ops per iteration, tail = p{:.2}",
        host_ms.len(),
        median(&host_ms),
        first.ops.samples,
        first.ops.tail_percentile
    );
    println!("host ms per iteration: {host_ms:.1?}");
    println!("sim.entries {} per iteration (identical in all {n})", first.entries);
    print_metrics(&metrics::END_TO_END, &values);
    finish(check, true, &metrics::END_TO_END, &values)
}

/// The traced run: the selected workload untraced and traced (their ratio
/// is the tracing overhead), then one traced iteration of every other
/// workload, so every per-layer metric is read from its home workload.
fn run_traced(args: &Args) -> ExitCode {
    let e = args.workload;
    let off = Arc::new(Tracer::new(false));
    let tr = Arc::new(Tracer::new(true));
    let mut check = Check::default();

    let w = (e.prepare)(args.seed);
    check.add(w.verify());
    check.add(w.warm_up());
    // A quarter of the window each way: with one traced iteration of
    // every other workload and the probes, a traced run then takes about
    // as long as an untraced one.
    let k = (e.iterations(args.seconds) / 4).max(3);
    let (plain_ms, plain): (Vec<f64>, Vec<IterOut>) =
        (0..k).map(|i| timed_iteration(w.as_ref(), &off, i)).unzip();
    tr.set_workload(e.name);
    let cpu0 = host::cpu_times();
    let (traced_ms, traced): (Vec<f64>, Vec<IterOut>) =
        (0..k).map(|i| timed_iteration(w.as_ref(), &tr, i)).unzip();
    let sys_share = host::cpu_times().sys_share_since(&cpu0);
    // Traced iterations must reproduce the untraced ones: tracing may
    // cost host time, never virtual time or entries.
    let all: Vec<IterOut> = plain.iter().chain(&traced).cloned().collect();
    check_repeats(&all, &mut check);

    // One traced iteration of each other workload.
    let mut runs: Vec<(&Entry, Box<dyn Workload>, Vec<IterOut>)> = vec![(e, w, traced)];
    for other in workloads::ALL.iter().filter(|o| o.name != e.name) {
        tr.set_workload(other.name);
        let wo = (other.prepare)(args.seed);
        let (_, out) = timed_iteration(wo.as_ref(), &tr, 0);
        check.add(out.check);
        runs.push((other, wo, vec![out]));
    }

    let spans = tr.spans();
    let st = trace::self_times(&spans);
    let mut values: Vec<(&str, f64)> = Vec::new();
    // Workloads ran one after another, so each one's spans are one
    // contiguous stretch of the table.
    let spans_of = |name: &str| -> &[trace::Span] {
        let start = spans.iter().position(|s| s.workload == name).unwrap_or(spans.len());
        let len = spans[start..].iter().take_while(|s| s.workload == name).count();
        &spans[start..start + len]
    };
    for (entry, wl, outs) in &runs {
        values.extend(wl.layer_metrics(spans_of(entry.name), outs));
    }

    // The selected workload's own ledger: where its host time went.
    let own = spans_of(e.name);
    let root_ns: u64 = own.iter().filter(|s| s.parent.is_none()).map(|s| s.host_ns()).sum();
    println!("layer self time of {} over {k} traced iterations:", e.name);
    let mut parts_ns = 0;
    for (layer, metric) in metrics::LAYER_SHARES {
        let ns: u64 =
            own.iter().filter(|s| s.layer == layer).map(|s| st.self_ns[s.id as usize]).sum();
        parts_ns += ns;
        println!("  {layer:<8} {:>12.3} ms", ns as f64 / 1e6);
        values.push((metric, ns as f64 / root_ns.max(1) as f64));
    }
    println!(
        "  parts    {:>12.3} ms of {:.3} ms whole",
        parts_ns as f64 / 1e6,
        root_ns as f64 / 1e6
    );
    let gap = st.gap_share();
    let first = &runs[0].2[0];
    values.push(("trace.parts_gap_share", gap));
    values.push(("trace_overhead_x", min(&traced_ms) / min(&plain_ms)));
    values.push(("sim.entries", first.entries as f64));
    values.push(("sim.host_ns_per_entry", min(&traced_ms) * 1e6 / first.entries.max(1) as f64));
    values.push((
        "sim.coalesced_share",
        first.coalesced as f64 / (first.coalesced + first.entries).max(1) as f64,
    ));
    values.push(("sim.sys_cpu_share", sys_share));

    let path = std::path::Path::new("benchmark/out").join(format!("trace_{}.jsonl", e.name));
    if let Err(err) = trace::write_jsonl(&path, &spans) {
        eprintln!("cannot write {}: {err}", path.display());
        return ExitCode::from(4);
    }
    println!(
        "workload {} seed {} traced iterations {k} spans {} -> {}",
        e.name,
        args.seed,
        spans.len(),
        path.display()
    );
    print_metrics(metrics::PER_LAYER, &values);
    if gap > MAX_PARTS_GAP {
        println!("FAIL: layer parts miss their whole by {:.2} % (limit 2 %)", gap * 100.0);
    }
    finish(check, gap <= MAX_PARTS_GAP, metrics::PER_LAYER, &values)
}

fn main() -> ExitCode {
    // Pin first: every thread spawned later inherits the mask.
    let pinned = host::pin_to_one_cpu().and_then(|p| host::use_one_malloc_arena().map(|()| p));
    match pinned {
        Ok((cpu, before)) => println!("pinned to cpu {cpu} ({} allowed at start)", before.count()),
        Err(err) => {
            eprintln!("layerbench: {err}; refusing to run unpinned");
            return ExitCode::from(3);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(err) => {
            eprintln!("layerbench: {err}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.trace {
        run_traced(&args)
    } else {
        run_end_to_end(&args)
    }
}
