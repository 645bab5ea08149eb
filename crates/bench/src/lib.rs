//! # diomp-bench — the figure-regeneration harness
//!
//! One binary per table/figure of the paper's evaluation (run with
//! `cargo run -p diomp-bench --release --bin figN`), plus `bench_gate`,
//! the CI regression gate that also holds the DESIGN.md ablation
//! relations.
//!
//! The [`paper`] module embeds the published reference values so every
//! binary prints *paper vs. measured* side by side; `EXPERIMENTS.md`
//! records the comparison.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use diomp_apps::cannon::CannonConfig;
use diomp_apps::minimod::{HaloStyle, MinimodConfig};
use diomp_device::DataMode;
use diomp_sim::PlatformSpec;

/// Reference values transcribed from the paper's figures.
pub mod paper {
    /// Fig. 6 message sizes for Broadcast (bytes): 32 KB … 64 MB.
    pub const FIG6_BCAST_SIZES: [u64; 12] = [
        32 << 10,
        64 << 10,
        128 << 10,
        256 << 10,
        512 << 10,
        1 << 20,
        2 << 20,
        4 << 20,
        8 << 20,
        16 << 20,
        32 << 20,
        64 << 20,
    ];

    /// Fig. 6 message sizes for AllReduce (bytes): 128 KB … 64 MB.
    pub const FIG6_ALLRED_SIZES: [u64; 10] = [
        128 << 10,
        256 << 10,
        512 << 10,
        1 << 20,
        2 << 20,
        4 << 20,
        8 << 20,
        16 << 20,
        32 << 20,
        64 << 20,
    ];

    /// Fig. 6a published `log10(MPI/DiOMP)` — Broadcast, Slingshot-11 + A100.
    pub const FIG6_BCAST_A: [f64; 12] =
        [-0.07, -0.15, -0.10, -0.02, -0.41, -0.26, -0.11, 0.01, 0.10, 0.18, 0.22, 0.57];
    /// Fig. 6a — Broadcast, NDR IB + GH200.
    pub const FIG6_BCAST_C: [f64; 12] =
        [-0.14, -0.26, -0.23, -0.05, 0.09, 0.24, 0.34, 0.42, 0.47, 0.53, 0.45, 0.57];
    /// Fig. 6a — Broadcast, Slingshot-11 + MI250X.
    pub const FIG6_BCAST_B: [f64; 12] =
        [0.16, 0.34, 0.45, 0.34, 0.24, 0.18, 0.18, 0.15, 0.12, 0.03, 0.05, 0.00];

    /// Fig. 6b — AllReduce(sum), Slingshot-11 + A100.
    pub const FIG6_ALLRED_A: [f64; 10] =
        [-0.15, 0.03, 0.15, 0.34, 0.40, 0.43, 0.64, 0.85, 1.02, 1.10];
    /// Fig. 6b — AllReduce, NDR IB + GH200.
    pub const FIG6_ALLRED_C: [f64; 10] =
        [-0.27, -0.27, -0.18, 0.12, 0.22, 0.32, 0.33, 0.36, 0.29, 0.30];
    /// Fig. 6b — AllReduce, Slingshot-11 + MI250X.
    pub const FIG6_ALLRED_B: [f64; 10] =
        [-0.53, -0.39, -0.40, -0.33, -0.38, -0.31, -0.28, -0.31, -0.05, -0.00];

    /// Fig. 3 message sizes (bytes): 4 B … 8 KB.
    pub const FIG3_SIZES: [u64; 12] = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192];

    /// Fig. 4 message sizes (bytes): 1/64 MB … 1 GB.
    pub const FIG4_SIZES: [u64; 9] = [
        1 << 14, // 1/64 MB
        1 << 16, // 1/16 MB
        1 << 18, // 1/4 MB
        1 << 20,
        4 << 20,
        16 << 20,
        64 << 20,
        256 << 20,
        1 << 30,
    ];

    /// Fig. 5 message sizes (bytes): 32 B … 128 KB.
    pub const FIG5_SIZES: [u64; 7] = [32, 128, 512, 2 << 10, 8 << 10, 32 << 10, 128 << 10];

    /// Fig. 7 GPU counts, platform A (paper: 4–40 A100s).
    pub const FIG7_GPUS_A: [usize; 10] = [4, 8, 12, 16, 20, 24, 28, 32, 36, 40];
    /// Fig. 7 GPU counts, platform B (paper: 8–64 GCDs).
    pub const FIG7_GPUS_B: [usize; 8] = [8, 16, 24, 32, 40, 48, 56, 64];
    /// Fig. 7 matrix dimension.
    pub const FIG7_N: usize = 30240;
    /// Fig. 7 approximate peak speedups read off the plots (DiOMP, MPI).
    pub const FIG7_PEAK_A: (f64, f64) = (20.0, 17.5);
    /// Fig. 7 peak speedups on platform B.
    pub const FIG7_PEAK_B: (f64, f64) = (25.0, 21.0);

    /// Fig. 8 GPU counts, platform A (4–32).
    pub const FIG8_GPUS_A: [usize; 8] = [4, 8, 12, 16, 20, 24, 28, 32];
    /// Fig. 8 GPU counts, platform B (8–64).
    pub const FIG8_GPUS_B: [usize; 8] = [8, 16, 24, 32, 40, 48, 56, 64];
    /// Fig. 8 grid edge (1200³).
    pub const FIG8_GRID: usize = 1200;
    /// Paper step count (the harness simulates fewer steps and reports
    /// speedups, which are step-count invariant in steady state).
    pub const FIG8_STEPS: usize = 1000;
    /// Steps the Fig. 8 harness and its gate rows actually simulate.
    pub const FIG8_SIM_STEPS: usize = 40;
    /// Fig. 8 approximate peak speedups read off the plots (DiOMP, MPI).
    pub const FIG8_PEAK_A: (f64, f64) = (4.8, 4.2);
    /// Fig. 8 peak speedups on platform B.
    pub const FIG8_PEAK_B: (f64, f64) = (4.6, 4.0);
}

/// The Fig. 7 run at `gpus` devices: N = 30240, cost-only.
pub fn fig7_cfg(platform: &PlatformSpec, gpus: usize) -> CannonConfig {
    let (n, mode) = (paper::FIG7_N, DataMode::CostOnly);
    CannonConfig { platform: platform.clone(), gpus, n, mode, verify: false }
}

/// The Fig. 8 run at `gpus` devices: the 1200³ grid, cost-only, pull halo.
pub fn fig8_cfg(platform: &PlatformSpec, gpus: usize) -> MinimodConfig {
    let (grid, steps) = (paper::FIG8_GRID, paper::FIG8_SIM_STEPS);
    MinimodConfig::cube(platform.clone(), gpus, grid, steps, DataMode::CostOnly, HaloStyle::Get)
}

/// Machine-readable benchmark emission (`BENCH_*.json`).
///
/// Every record carries the virtual-time metric *and* the backing
/// simulation's scheduler-entry count, so `BENCH_*.json` history tracks
/// wall-clock scheduler cost (what the one-sleep fence optimises)
/// alongside simulated performance.
pub mod report {
    use std::io::Write;

    /// One benchmark result row.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BenchRecord {
        /// Benchmark identifier, e.g. `fig4a/diomp_put_16mb`.
        pub name: String,
        /// The measured metric value.
        pub value: f64,
        /// Metric unit, e.g. `GB/s` or `us`.
        pub unit: String,
        /// `SimReport::entries_processed` of the backing run, when known.
        pub entries_processed: Option<u64>,
        /// `SimReport::sim_wall_ms` of the backing run, when known: the
        /// simulator's *own* wall-clock cost in milliseconds, tracked
        /// next to the entry count so the scale sweep can gate both the
        /// algorithmic metric (entries) and its realised cost (wall).
        pub sim_wall_ms: Option<f64>,
    }

    impl BenchRecord {
        /// Row carrying only the metric (no backing scheduler cost).
        pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
            BenchRecord {
                name: name.into(),
                value,
                unit: unit.into(),
                entries_processed: None,
                sim_wall_ms: None,
            }
        }

        /// Row with a known scheduler-entry count.
        pub fn with_entries(
            name: impl Into<String>,
            value: f64,
            unit: impl Into<String>,
            entries: u64,
        ) -> Self {
            BenchRecord { entries_processed: Some(entries), ..Self::new(name, value, unit) }
        }

        /// Row carrying the backing run's full scheduler cost: entry
        /// count *and* simulator wall-clock.
        pub fn with_sim_cost(
            name: impl Into<String>,
            value: f64,
            unit: impl Into<String>,
            entries: u64,
            sim_wall_ms: f64,
        ) -> Self {
            BenchRecord {
                sim_wall_ms: Some(sim_wall_ms),
                ..Self::with_entries(name, value, unit, entries)
            }
        }

        fn to_json(&self) -> String {
            let mut s = String::from("{");
            s.push_str(&format!("\"name\":\"{}\",", escape(&self.name)));
            s.push_str(&format!("\"value\":{},", fmt_f64(self.value)));
            s.push_str(&format!("\"unit\":\"{}\"", escape(&self.unit)));
            if let Some(e) = self.entries_processed {
                s.push_str(&format!(",\"entries_processed\":{e}"));
            }
            if let Some(w) = self.sim_wall_ms {
                s.push_str(&format!(",\"sim_wall_ms\":{}", fmt_f64(w)));
            }
            s.push('}');
            s
        }
    }

    fn escape(s: &str) -> String {
        s.chars()
            .flat_map(|c| match c {
                '"' => "\\\"".chars().collect::<Vec<_>>(),
                '\\' => "\\\\".chars().collect(),
                '\n' => "\\n".chars().collect(),
                c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                c => vec![c],
            })
            .collect()
    }

    fn fmt_f64(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    /// Serialise records as a JSON array, one record per line, so a
    /// committed file diffs row by row.
    pub fn to_json(records: &[BenchRecord]) -> String {
        let rows: Vec<String> = records.iter().map(BenchRecord::to_json).collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }

    /// Write records to a `BENCH_*.json` file.
    pub fn write_json(path: &std::path::Path, records: &[BenchRecord]) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(to_json(records).as_bytes())?;
        f.write_all(b"\n")
    }

    /// Parse the value of a `--json PATH` argument from an argv slice.
    /// Exits with status 2 when `--json` is present without a path —
    /// shared by every fig binary so the CLI behaves identically.
    pub fn json_path_from_args(args: &[String]) -> Option<std::path::PathBuf> {
        args.iter().position(|a| a == "--json").map(|i| {
            args.get(i + 1).map(std::path::PathBuf::from).unwrap_or_else(|| {
                eprintln!("error: --json requires a path argument");
                std::process::exit(2);
            })
        })
    }

    /// Shared epilogue of every fig binary: when `--json PATH` was given,
    /// write the records there and report the count.
    pub fn write_if_requested(json_path: Option<&std::path::Path>, records: &[BenchRecord]) {
        if let Some(path) = json_path {
            write_json(path, records).expect("write BENCH json");
            println!("wrote {} records to {}", records.len(), path.display());
        }
    }

    /// Parse a `BENCH_*.json` array produced by [`to_json`] back into
    /// records (the regression gate reads the committed baseline with
    /// this; the emitter and parser are round-trip tested together).
    /// Returns an error string describing the first malformed row.
    pub fn parse_json(text: &str) -> Result<Vec<BenchRecord>, String> {
        let body = text.trim();
        let body = body
            .strip_prefix('[')
            .and_then(|b| b.strip_suffix(']'))
            .ok_or("expected a JSON array")?;
        let mut out = Vec::new();
        for row in split_objects(body)? {
            let name = field_str(&row, "name").ok_or_else(|| format!("row missing name: {row}"))?;
            let unit = field_str(&row, "unit").ok_or_else(|| format!("row missing unit: {row}"))?;
            let raw_value =
                field_raw(&row, "value").ok_or_else(|| format!("row missing value: {row}"))?;
            // The emitter writes non-finite values as `null` (fmt_f64);
            // read them back as NaN so one bad metric cannot poison the
            // whole baseline parse.
            let value = if raw_value.trim() == "null" {
                f64::NAN
            } else {
                // Trim: pretty-printed JSON (`"value": 3.18`) is valid and
                // f64's FromStr rejects surrounding whitespace.
                raw_value.trim().parse::<f64>().map_err(|e| format!("bad value in {row}: {e}"))?
            };
            let entries_processed = match field_raw(&row, "entries_processed") {
                Some(raw) => Some(
                    raw.trim().parse::<u64>().map_err(|e| format!("bad entries in {row}: {e}"))?,
                ),
                None => None,
            };
            let sim_wall_ms = match field_raw(&row, "sim_wall_ms") {
                Some(raw) if raw.trim() == "null" => Some(f64::NAN),
                Some(raw) => {
                    Some(raw.trim().parse::<f64>().map_err(|e| format!("bad wall in {row}: {e}"))?)
                }
                None => None,
            };
            out.push(BenchRecord { name, value, unit, entries_processed, sim_wall_ms });
        }
        Ok(out)
    }

    /// Split `{..},{..}` (no nested objects in our format) into rows.
    fn split_objects(body: &str) -> Result<Vec<String>, String> {
        let mut rows = Vec::new();
        let mut depth = 0usize;
        let mut in_str = false;
        let mut esc = false;
        let mut cur = String::new();
        for c in body.chars() {
            if esc {
                cur.push(c);
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => {
                    cur.push(c);
                    esc = true;
                }
                '"' => {
                    cur.push(c);
                    in_str = !in_str;
                }
                '{' if !in_str => {
                    depth += 1;
                    if depth == 1 {
                        cur.clear();
                    } else {
                        cur.push(c);
                    }
                }
                '}' if !in_str => {
                    depth = depth.checked_sub(1).ok_or("unbalanced braces")?;
                    if depth == 0 {
                        rows.push(cur.clone());
                    } else {
                        cur.push(c);
                    }
                }
                _ => {
                    if depth > 0 {
                        cur.push(c);
                    }
                }
            }
        }
        if depth != 0 || in_str {
            return Err("truncated JSON".to_string());
        }
        Ok(rows)
    }

    /// Raw (unquoted) text of `"key":<raw>` up to the next top-level comma.
    fn field_raw(row: &str, key: &str) -> Option<String> {
        let pat = format!("\"{key}\":");
        let start = row.find(&pat)? + pat.len();
        let rest = &row[start..];
        let mut end = rest.len();
        let mut in_str = false;
        let mut esc = false;
        for (i, c) in rest.char_indices() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                ',' if !in_str => {
                    end = i;
                    break;
                }
                _ => {}
            }
        }
        Some(rest[..end].to_string())
    }

    /// Decoded string value of `"key":"..."`.
    fn field_str(row: &str, key: &str) -> Option<String> {
        let raw = field_raw(row, key)?;
        let raw = raw.trim();
        let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
        let mut out = String::new();
        let mut esc = false;
        let mut it = inner.chars();
        while let Some(c) = it.next() {
            if esc {
                match c {
                    'n' => out.push('\n'),
                    'u' => {
                        let code: String = (&mut it).take(4).collect();
                        let v = u32::from_str_radix(&code, 16).ok()?;
                        out.push(char::from_u32(v)?);
                    }
                    other => out.push(other),
                }
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else {
                out.push(c);
            }
        }
        Some(out)
    }
}

/// The engines a scale-sweep cell runs (`fig_scale` and the gate's
/// `scale/*` rows), with their stable row tags: single-rail ring and
/// double binary tree under table-tuned chunking, and the four-regime
/// Auto dispatcher — all for platform C, which
/// [`diomp_apps::micro::scale_allreduce`] builds its cluster from.
pub fn scale_engines() -> [(&'static str, diomp_core::CollEngine); 3] {
    use diomp_core::{AutoConfig, CollEngine, ReduceOp, RingConfig, XcclOp};
    let c = diomp_sim::PlatformSpec::platform_c();
    let rc = RingConfig::auto(&c, &XcclOp::AllReduce { op: ReduceOp::SumF32 }, 1);
    [
        ("ring", CollEngine::Ring(rc)),
        ("dbt", CollEngine::Dbt(rc)),
        ("auto", CollEngine::Auto(AutoConfig::for_platform(&c))),
    ]
}

/// Format a byte size the way the paper labels its axes.
pub fn size_label(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{}MB", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}KB", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}

/// Print measured vs paper rows for a log-ratio series.
pub fn print_ratio_row(platform: &str, sizes: &[u64], measured: &[(u64, f64)], paper: &[f64]) {
    println!("\n-- {platform} --");
    println!("{:>10} {:>10} {:>10} {:>8}", "size", "measured", "paper", "delta");
    for ((&s, &(s2, m)), &p) in sizes.iter().zip(measured).zip(paper) {
        assert_eq!(s, s2);
        println!("{:>10} {m:>10.2} {p:>10.2} {:>8.2}", size_label(s), m - p);
    }
}

/// Mean absolute error between a measured log-ratio series and the paper.
pub fn mae(measured: &[(u64, f64)], paper: &[f64]) -> f64 {
    let n = measured.len() as f64;
    measured.iter().zip(paper).map(|(&(_, m), &p)| (m - p).abs()).sum::<f64>() / n
}

/// Fraction of cells whose winner (sign) matches the paper.
/// Cells with |paper| < 0.05 count as matches when |measured| < 0.15
/// (both "roughly tied").
pub fn sign_agreement(measured: &[(u64, f64)], paper: &[f64]) -> f64 {
    let n = measured.len() as f64;
    let hits = measured
        .iter()
        .zip(paper)
        .filter(
            |(&(_, m), &p)| {
                if p.abs() < 0.05 {
                    m.abs() < 0.15
                } else {
                    m.signum() == p.signum()
                }
            },
        )
        .count();
    hits as f64 / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_axis_style() {
        assert_eq!(size_label(4), "4B");
        assert_eq!(size_label(32 << 10), "32KB");
        assert_eq!(size_label(64 << 20), "64MB");
    }

    #[test]
    fn sign_agreement_counts_ties_loosely() {
        let measured = vec![(1u64, 0.10), (2, -0.3), (3, 0.4)];
        let paper = [0.01, -0.5, 0.3];
        assert!((sign_agreement(&measured, &paper) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mae_is_mean_of_absolute_deltas() {
        let measured = vec![(1u64, 0.2), (2, -0.2)];
        let paper = [0.0, 0.0];
        assert!((mae(&measured, &paper) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn bench_records_serialise_with_entries() {
        use crate::report::{to_json, BenchRecord};
        let rows = vec![
            BenchRecord::with_sim_cost("fig4a/put_16mb", 3.15, "GB/s", 1234, 0.5),
            BenchRecord::new("x\"y", 2.0, "us"),
        ];
        let json = to_json(&rows);
        assert_eq!(
            json,
            "[\n{\"name\":\"fig4a/put_16mb\",\"value\":3.15,\"unit\":\"GB/s\",\
             \"entries_processed\":1234,\"sim_wall_ms\":0.5},\n\
             {\"name\":\"x\\\"y\",\"value\":2,\"unit\":\"us\"}\n]"
        );
    }

    #[test]
    fn bench_json_parses_back_to_the_same_records() {
        use crate::report::{parse_json, to_json, BenchRecord};
        let rows = vec![
            BenchRecord::with_entries("fig4a/put_16MB", 3.15, "GB/s", 1234),
            BenchRecord::new("odd\"name\\x", -2.5, "us"),
        ];
        let back = parse_json(&to_json(&rows)).unwrap();
        assert_eq!(back, rows);
        assert_eq!(parse_json("[]").unwrap(), vec![]);
        assert!(parse_json("{").is_err());
        // Non-finite values are emitted as `null` and read back as NaN
        // instead of failing the whole parse.
        let nan_row = vec![BenchRecord::new("bad", f64::NAN, "us")];
        let parsed = parse_json(&to_json(&nan_row)).unwrap();
        assert_eq!(parsed.len(), 1);
        assert!(parsed[0].value.is_nan());
    }

    #[test]
    fn bench_json_roundtrips_to_disk() {
        use crate::report::{write_json, BenchRecord};
        let dir = std::env::temp_dir().join("diomp_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        write_json(&path, &[BenchRecord::with_entries("a", 1.0, "us", 7)]).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert!(back.contains("\"entries_processed\":7"));
        std::fs::remove_file(&path).unwrap();
    }
}
