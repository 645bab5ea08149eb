//! `tenant_chaos`: `run_workload` on three contended multi-tenant specs
//! per iteration — the canonical 8-job mix, the reduction-server mix and
//! the rank-kill recovery mix — with the op draws, seeded link faults and
//! the kill derived from the benchmark seed.
//!
//! *Why:* contention forces the explicit per-chunk driver, so `sim`
//! heap/QoS/fault work per entry and `xccl` gate/abort/shrink plus `core`
//! recovery dominate, on only 64–96 tasks: the same `xccl` layer as
//! `coll_sweep` driven the other way, and the opposite `sim` profile to
//! `scale_ranks`.

use std::sync::{Arc, Mutex};

use diomp_apps::workload::{
    canonical_workload, recovery_workload, run_workload, server_workload, JobResult, WorkloadSpec,
};
use diomp_sim::{DevLoc, Dur, FaultPlan, ResourceId, Sim, Topology};

use super::{Check, IterOut, Ledger, OpStats, Workload};
use crate::inputs::Rng;
use crate::trace::{Scope, Span, Tracer};

/// Collectives each job issues, per spec (canonical, server, recovery).
const ITERS: [usize; 3] = [48, 12, 24];
/// Link faults are sampled inside this much virtual time: communicator
/// init ends near 90 ms and the longest stream runs to about 130 ms.
const FAULT_HORIZON_MS: f64 = 140.0;
/// Seed of the link-fault plans' *structure* (which links degrade, flap
/// or stall, when and how much). Fixed, like the scenarios' op draws:
/// a fresh plan per benchmark seed moved virtual time by 37 % and the
/// tail by 117 % across ten seeds, and moving the kill by up to 50 µs
/// still moved the tail by 27 % (recovery latency is quantised by
/// timeouts and doubling backoff). No bound can hold that, so the
/// benchmark seed jitters the jobs' arrivals and nothing else.
const FAULT_PLAN_SEED: u64 = 0x7E4A_FA17;
/// Largest seeded delay added to a job's arrival, ns. The recovery
/// scenario gets none: whether its kill lands before or after a
/// collective boundary moves a job's recovery by 9 ms, and even 100 ns of
/// jitter flipped that for 2 seeds in 14.
const ARRIVAL_JITTER_NS: u64 = 2_000;

/// NIC and GPU-port links of a spec's cluster. Resource ids are handed
/// out in build order, so a probe topology names the same links the
/// workload's own simulation will create.
fn links_of(spec: &WorkloadSpec) -> Vec<ResourceId> {
    let probe = Sim::new();
    let cluster = diomp_sim::ClusterSpec {
        platform: spec.platform.clone(),
        nodes: spec.nodes,
        gpus_per_node: spec.platform.gpus_per_node,
    };
    let topo = Topology::build(&probe.handle(), cluster);
    let mut links = Vec::new();
    for node in 0..spec.nodes {
        for gpu in 0..spec.platform.gpus_per_node {
            let loc = DevLoc { node, gpu };
            for res in [topo.nic_for(loc), topo.gpu_port(loc)] {
                if !links.contains(&res) {
                    links.push(res);
                }
            }
        }
    }
    links
}

/// The three specs with their seeded inputs: every job of the first two
/// arrives a little later (up to 2 µs) than its scenario says. Small
/// shifts, but they reorder contended chunks, so every virtual metric
/// moves with the seed.
pub fn gen_specs(seed: u64) -> [WorkloadSpec; 3] {
    let mut rng = Rng::new(seed, 0x7E4A);
    let mut specs = [canonical_workload(true), server_workload(true), recovery_workload()];
    for (spec, iters) in specs.iter_mut().zip(ITERS) {
        spec.iters = iters;
    }
    for job in specs[..2].iter_mut().flat_map(|s| &mut s.jobs) {
        job.arrival = Dur::nanos(job.arrival.as_nanos() + rng.below(ARRIVAL_JITTER_NS));
    }
    // Link degradations, flaps and NIC stalls on the first two specs; the
    // third keeps its clean fabric, so the scenario's kill is its only fault.
    for (i, spec) in specs[..2].iter_mut().enumerate() {
        let horizon = Dur::millis(FAULT_HORIZON_MS);
        let plan_seed = FAULT_PLAN_SEED + i as u64;
        spec.faults = Some(FaultPlan::randomized(plan_seed, &links_of(spec), &[], horizon));
    }
    specs
}

pub struct TenantChaos {
    specs: [WorkloadSpec; 3],
    /// Job results of the latest iteration.
    last: Mutex<Vec<JobResult>>,
}

pub fn prepare(seed: u64) -> Box<dyn Workload> {
    Box::new(TenantChaos { specs: gen_specs(seed), last: Mutex::new(Vec::new()) })
}

impl Workload for TenantChaos {
    fn verify(&self) -> Check {
        // `run_workload` is CostOnly by construction, so there are no
        // bytes to compare; the correctness pass checks what it can see
        // from outside: the uncontended canonical mix completes every
        // collective of every job and replays to the same virtual end.
        let mut spec = canonical_workload(false);
        spec.jobs = self.specs[0].jobs.clone();
        let (a, b) = (run_workload(&spec), run_workload(&spec));
        let mut c = Check::default();
        for j in &a.jobs {
            c.record(j.samples == spec.iters && j.retries == 0);
        }
        c.record(a.end_time == b.end_time && a.entries_processed == b.entries_processed);
        c
    }

    fn iterate(&self, tr: &Arc<Tracer>, scope: Scope) -> IterOut {
        let mut out = IterOut::default();
        let mut jobs: Vec<JobResult> = Vec::new();
        for spec in &self.specs {
            let rep = tr.span(scope, "apps", "run_workload", 0, |_| run_workload(spec));
            out.end_ns += rep.end_time.nanos();
            out.virt_ns += (rep.makespan_us * 1e3).round() as u64;
            out.entries += rep.entries_processed;
            for j in &rep.jobs {
                // A job that gave up (retry budget spent) leaves its
                // remaining collectives unsampled: those are failed ops.
                out.check.attempted += spec.iters as u64;
                out.check.failed += (spec.iters - j.samples.min(spec.iters)) as u64;
            }
            jobs.extend(rep.jobs);
        }
        // The finest grain `JobResult` exposes is per-job percentiles:
        // the median of the jobs' p50s, and the reporting-rule tail of
        // their p99s. The eight recovering jobs' p99s (~90 ms each) are
        // the samples beyond it; `core.recovery_us_max` reports them.
        let per_job = |f: fn(&JobResult) -> f64| jobs.iter().map(f).collect::<Vec<f64>>();
        out.ops = OpStats {
            p50_us: OpStats::of(&per_job(|j| j.p50_us)).p50_us,
            samples: jobs.iter().map(|j| j.samples).sum(),
            ..OpStats::of(&per_job(|j| j.p99_us))
        };
        // Per-port wire rate inside collectives, averaged over the tenants.
        out.goodput_gbps = jobs.iter().map(|j| j.achieved_gbps).sum::<f64>() / jobs.len() as f64;
        *self.last.lock().expect("jobs lock") = jobs;
        out
    }

    fn layer_metrics(&self, _spans: &[Span], _outs: &[IterOut]) -> Ledger {
        let jobs = self.last.lock().expect("jobs lock");
        let n = jobs.len().max(1) as f64;
        vec![
            (
                "fabric.achieved_over_table",
                jobs.iter().map(|j| j.achieved_gbps / j.table_gbps).sum::<f64>() / n,
            ),
            ("core.retries", jobs.iter().map(|j| f64::from(j.retries)).sum()),
            ("core.recovery_us_max", jobs.iter().map(|j| j.recovery_us).fold(0.0, f64::max)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(specs: &[WorkloadSpec; 3]) -> Vec<(usize, String, String)> {
        specs
            .iter()
            .map(|s| (s.iters, format!("{:?}", s.jobs), format!("{:?}", s.faults)))
            .collect()
    }

    #[test]
    fn specs_repeat_for_a_seed_and_differ_across_seeds() {
        assert_eq!(key(&gen_specs(20250613)), key(&gen_specs(20250613)));
        assert_ne!(key(&gen_specs(20250613)), key(&gen_specs(7)));
    }

    #[test]
    fn every_spec_is_contended_and_the_kill_spares_rank_zero() {
        for seed in 0..16 {
            let specs = gen_specs(seed);
            assert!(specs.iter().all(|s| s.contended));
            assert_eq!(specs.iter().map(|s| s.iters).collect::<Vec<_>>(), ITERS);
            let kills = specs[2].faults.as_ref().unwrap().rank_kills();
            assert_eq!(kills.len(), 1);
            assert_ne!(kills[0].0, 0);
            let base = canonical_workload(true);
            for (job, was) in specs[0].jobs.iter().zip(&base.jobs) {
                let late = job.arrival.as_nanos() - was.arrival.as_nanos();
                assert!(late < ARRIVAL_JITTER_NS);
            }
            assert!(specs[2].recovery.is_some());
        }
    }
}
