//! The metric names and units the benchmark prints. `BENCHMARK.json`
//! lists the same names; a unit test keeps the two in step.
//!
//! Units name which clock a number uses: `s`, `ms`, `us` and `ns` are
//! host time (what the simulator costs), `virt_us` is virtual time of
//! the modelled cluster, which is exact for a seed.

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("host_iter_min_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("virt_time_ms", "ms"),
    ("virt_op_p50_us", "us"),
    ("virt_op_tail_us", "us"),
    ("virt_goodput_gbps", "GB/s"),
];

/// Per-layer metrics, printed by a traced run. Grouped by the workload
/// whose spans each is read from (its *home*); the traced run executes
/// every workload once so each has a value.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The selected workload's own ledger.
    ("trace_overhead_x", "x"),
    ("trace.parts_gap_share", "ratio"),
    ("trace.bench_self_share", "ratio"),
    ("trace.sim_self_share", "ratio"),
    ("trace.device_self_share", "ratio"),
    ("trace.fabric_self_share", "ratio"),
    ("trace.xccl_self_share", "ratio"),
    ("trace.core_self_share", "ratio"),
    ("trace.apps_self_share", "ratio"),
    ("sim.entries", "count"),
    ("sim.host_ns_per_entry", "ns"),
    ("sim.coalesced_share", "ratio"),
    ("sim.sys_cpu_share", "ratio"),
    // Home: scale_ranks (built from the raw constructors, so every
    // boundary is visible from outside).
    ("sim.spawn_host_ms", "ms"),
    ("sim.run_host_ms", "ms"),
    ("sim.join_host_ms", "ms"),
    ("sim.host_us_per_rank", "us"),
    ("sim.scale_exponent", "exponent"),
    ("device.build_host_ms", "ms"),
    ("fabric.build_host_ms", "ms"),
    ("xccl.init_host_ms", "ms"),
    ("xccl.init_virt_us", "virt_us"),
    ("core.tune_host_ms", "ms"),
    // Home: rma_stream.
    ("sim.unpinned_x", "x"),
    ("core.runtime_build_host_ms", "ms"),
    ("fabric.put_virt_us_8B_gasnet", "virt_us"),
    ("fabric.get_virt_us_8B_gasnet", "virt_us"),
    ("fabric.put_gbps_16MiB_gasnet", "GB/s"),
    ("fabric.get_gbps_16MiB_gasnet", "GB/s"),
    ("fabric.put_virt_us_8B_gpi", "virt_us"),
    ("fabric.get_virt_us_8B_gpi", "virt_us"),
    ("fabric.put_gbps_16MiB_gpi", "GB/s"),
    ("fabric.get_gbps_16MiB_gpi", "GB/s"),
    ("fabric.barrier_virt_us", "virt_us"),
    ("core.put_virt_us_p50", "virt_us"),
    ("core.get_virt_us_p50", "virt_us"),
    ("core.put_asym_virt_us_p50", "virt_us"),
    ("core.get_asym_virt_us_p50", "virt_us"),
    ("core.put_notify_virt_us_p50", "virt_us"),
    ("core.fence_virt_us_p50", "virt_us"),
    ("core.rma_host_ns_per_op", "ns"),
    ("core.asym_cache_hit_share", "ratio"),
    ("core.rma_retries", "count"),
    // Home: coll_sweep.
    ("xccl.coll_host_us_ll", "us"),
    ("xccl.coll_host_us_dbt", "us"),
    ("xccl.coll_host_us_ring", "us"),
    ("xccl.coll_host_us_rserver", "us"),
    ("xccl.regime_calls_ll", "count"),
    ("xccl.regime_calls_dbt", "count"),
    ("xccl.regime_calls_ring", "count"),
    ("xccl.regime_calls_rserver", "count"),
    ("xccl.host_ns_per_chunk", "ns"),
    ("xccl.auto_over_ring_host_x", "x"),
    ("xccl.data_apply_host_ms", "ms"),
    ("xccl.virt_us_bcast_32KiB", "virt_us"),
    ("xccl.virt_us_bcast_4MiB", "virt_us"),
    ("xccl.virt_us_bcast_16MiB", "virt_us"),
    ("xccl.virt_us_allred_32KiB", "virt_us"),
    ("xccl.virt_us_allred_4MiB", "virt_us"),
    ("xccl.virt_us_allred_16MiB", "virt_us"),
    ("xccl.virt_us_allgather_32KiB", "virt_us"),
    ("xccl.virt_us_allgather_128KiB", "virt_us"),
    ("apps.fig6_mae_log10", "log10"),
    ("apps.fig6_sign_agreement", "ratio"),
    // Home: tenant_chaos.
    ("fabric.achieved_over_table", "ratio"),
    ("core.retries", "count"),
    ("core.recovery_us_max", "virt_us"),
    // Home: apps_scaling.
    ("device.kernel_virt_share", "ratio"),
    ("apps.cannon_host_ms_per_run", "ms"),
    ("apps.minimod_host_ms_per_run", "ms"),
    ("apps.mpi_host_ms_per_run", "ms"),
    ("apps.cannon_speedup_top_a", "x"),
    ("apps.cannon_speedup_top_b", "x"),
    ("apps.minimod_speedup_top_a", "x"),
    ("apps.minimod_speedup_top_b", "x"),
    ("apps.scaling_eff_top", "ratio"),
    ("apps.diomp_over_mpi_virt_x", "x"),
    ("apps.halo_virt_us_per_step", "virt_us"),
    ("apps.fig7_peak_err", "ratio"),
    ("apps.fig8_peak_err", "ratio"),
];

/// The layers a span may name, in stack order, each with the metric that
/// reports its share of the selected workload's self time.
pub const LAYER_SHARES: [(&str, &str); 7] = [
    ("bench", "trace.bench_self_share"),
    ("sim", "trace.sim_self_share"),
    ("device", "trace.device_self_share"),
    ("fabric", "trace.fabric_self_share"),
    ("xccl", "trace.xccl_self_share"),
    ("core", "trace.core_self_share"),
    ("apps", "trace.apps_self_share"),
];

/// Format a metric map as the `"metrics"` JSON object, in table order.
/// Every table name must have a value: a missing one is a bug in the
/// benchmark, not a measurement.
pub fn to_json(table: &[(&str, &str)], values: &[(&str, f64)]) -> String {
    let rows: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} was never measured"))
                .1;
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    /// The `"name": ..., "unit": ...` pairs of one top-level array.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let field = |obj: &str, f: &str| {
            let at = obj.find(&format!("\"{f}\"")).expect("field present") + f.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("string opens") + 1;
            rest[open..open + rest[open..].find('"').expect("string closes")].to_string()
        };
        body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = manifest();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed(&json, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads() {
        let json = manifest();
        let start = json.find("\"workloads\"").unwrap();
        let body = &json[start..start + json[start..].find(']').unwrap()];
        for e in &crate::workloads::ALL {
            assert!(body.contains(&format!("\"name\": \"{}\"", e.name)), "{} missing", e.name);
        }
        assert_eq!(body.matches("\"name\"").count(), crate::workloads::ALL.len());
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn json_object_keeps_table_order_and_full_precision() {
        let json =
            to_json(&END_TO_END[..2], &[("host_iter_min_ms", 2.5), ("setup_s", 0.123456789)]);
        assert_eq!(
            json,
            "{\"setup_s\": {\"value\": 0.123456789, \"unit\": \"s\"}, \
             \"host_iter_min_ms\": {\"value\": 2.5, \"unit\": \"ms\"}}"
        );
    }
}
