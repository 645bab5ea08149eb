//! Multi-tenant workload engine: overlapping jobs on one shared fabric.
//!
//! Replays a set of [`JobSpec`]s — each with its own arrival time, QoS
//! class and communicator — against a single simulated cluster. With
//! contention armed ([`diomp_sim::Sim::enable_contention`]) every wire
//! the jobs collide on is priced by the per-link weighted fair queue,
//! so a high-QoS job keeps a bounded share of each link no matter how
//! many tenants pile on; disarmed, the same workload replays on the
//! legacy serial link model bit for bit.
//!
//! Each job runs a deterministic, seeded sequence of collectives with
//! mixed operations and sizes over its own [`XcclComm`] (built with the
//! job's [`diomp_core::CommOpts`] so its chunk traffic carries the job's QoS
//! weight). The engine reports per-job p50/p99 collective latency and
//! achieved-vs-table wire bandwidth — the rows `bench_gate` gates the
//! canonical 8-job contention scenario on.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use diomp_core::{
    default_nrings, Checkpoint, CollEngine, DeviceBuf, JobSpec, QosClass, RecoveryConfig, ReduceOp,
    RingConfig, ServerSpec, UniqueId, XcclComm, XcclOp,
};
use diomp_device::{DataMode, DeviceTable};
use diomp_fabric::FabricWorld;
use diomp_sim::{
    derive_seed, ClusterSpec, Dur, FaultPlan, Meter, PlatformSpec, Sim, SimTime, Topology, Wait,
};

/// A multi-tenant workload: which jobs share the fabric, and what each
/// of them runs.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Hardware platform of the shared cluster.
    pub platform: PlatformSpec,
    /// Nodes in the shared cluster (one rank per GPU).
    pub nodes: usize,
    /// The tenant jobs. Every job's communicator spans all ranks, so
    /// concurrent jobs contend on every inter-node wire.
    pub jobs: Vec<JobSpec>,
    /// Collectives each job issues.
    pub iters: usize,
    /// Candidate payload sizes; each iteration draws one, seeded.
    pub sizes: Vec<u64>,
    /// Root seed for the per-job op/size draws.
    pub seed: u64,
    /// Arm the per-link weighted fair queue. Disarmed, transfers take
    /// the legacy serial link path bit for bit.
    pub contended: bool,
    /// Fault plan installed before the run (`None` = healthy fabric).
    /// Rank-kill entries are what the recovery loop reacts to.
    pub faults: Option<FaultPlan>,
    /// Arm elastic rank-failure recovery. `None` (the default scenarios)
    /// runs the historical blocking path — bit for bit, even with a
    /// fault plan installed. `Some` bounds every collective park — at the
    /// rendezvous gate and in flight — by
    /// [`RecoveryConfig::collective_timeout`], snapshots buffers every
    /// [`RecoveryConfig::checkpoint_every`] iterations, and on a
    /// confirmed member death shrinks the job's communicator to the
    /// agreed survivors, rolls back, and re-runs — up to each job's
    /// [`JobSpec::max_retries`].
    pub recovery: Option<RecoveryConfig>,
}

/// Per-job outcome of a workload run.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Job name, from its [`JobSpec`].
    pub name: String,
    /// QoS class the job's traffic was charged at.
    pub qos: QosClass,
    /// Collective latency samples observed (one per iteration).
    pub samples: usize,
    /// Median collective latency, µs.
    pub p50_us: f64,
    /// 99th-percentile collective latency, µs.
    pub p99_us: f64,
    /// Achieved per-port wire bandwidth over the job's busy time, GB/s:
    /// ring-algorithm wire bytes (`XcclOp::wire_factor`) divided by the
    /// time the job spent inside collectives.
    pub achieved_gbps: f64,
    /// The platform table's per-NIC wire bandwidth, GB/s — the ceiling
    /// `achieved_gbps` is reported against.
    pub table_gbps: f64,
    /// Wire bytes delivered on the job's reduction-server fan-back flow
    /// (the flow its carved server NICs charge; see
    /// `XcclComm::server_flow`). Zero for a job without servers — the
    /// flow is only created when servers are provisioned, so per-job
    /// fabric accounting attributes every server byte to its tenant.
    pub server_flow_bytes: u64,
    /// Communicator shrink/rebuild rounds this job rode out (0 on a
    /// healthy fabric or with recovery disarmed).
    pub retries: u32,
    /// Virtual time from the first aborted collective to the first
    /// completed collective on the shrunk communicator, µs — the job's
    /// end-to-end recovery latency. 0 when nothing aborted.
    pub recovery_us: f64,
    /// Virtual instant of rank 0's first `CollAbort`, µs —
    /// when the job detected a death. `None` when nothing aborted.
    pub first_abort_us: Option<f64>,
}

/// Whole-workload outcome.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// Per-job results, in `jobs` order.
    pub jobs: Vec<JobResult>,
    /// Virtual end-to-end time of the whole workload, µs.
    pub makespan_us: f64,
    /// Virtual end time of the simulation.
    pub end_time: SimTime,
    /// Scheduler entries processed — the wall-clock cost dimension.
    pub entries_processed: u64,
    /// The run's [`diomp_sim::SimReport::digest`].
    pub digest: u64,
}

/// The seeded draw for iteration `iter` of job `job`: identical on
/// every rank (it only hashes the workload seed and indices), so all
/// participants of a collective agree on its op and size.
fn draw(seed: u64, job: usize, iter: usize, sizes: &[u64]) -> (XcclOp, u64) {
    let h = derive_seed(derive_seed(seed, 0x10B + job as u64), iter as u64);
    let size = sizes[(h % sizes.len() as u64) as usize];
    let op = if (h >> 32) & 1 == 0 {
        XcclOp::AllReduce { op: ReduceOp::SumF32 }
    } else {
        XcclOp::Broadcast { root: 0 }
    };
    (op, size)
}

/// Run a workload: one simulation, one fabric, all jobs.
///
/// Each `(job, rank)` pair is its own simulation task: it sleeps until
/// the job's arrival, collectively initialises the job's communicator
/// (with the job's QoS class), then issues the job's seeded collective
/// sequence. Latency is sampled on the job's rank 0.
pub fn run_workload(spec: &WorkloadSpec) -> WorkloadReport {
    let nranks = spec.nodes * spec.platform.gpus_per_node;
    let max_size = spec.sizes.iter().copied().max().expect("workload needs sizes");
    let mut sim = Sim::new();
    if spec.contended {
        sim.enable_contention();
    }
    if let Some(plan) = &spec.faults {
        sim.set_fault_plan(plan.clone());
    }
    let cluster = ClusterSpec {
        platform: spec.platform.clone(),
        nodes: spec.nodes,
        gpus_per_node: spec.platform.gpus_per_node,
    };
    let topo = Arc::new(Topology::build(&sim.handle(), cluster));
    let heap = (spec.jobs.len() as u64 * 2 * max_size + (1 << 20)).next_power_of_two();
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, Some(heap));
    let world = FabricWorld::new(topo, devs, nranks);
    // Attach the simulator so the health vector derives live from the
    // installed plan and rank kills arm their dead windows.
    world.attach_sim(&sim.handle());

    // Per-job accumulators: latency meter + wire-byte/busy-time totals,
    // filled in by the job's rank-0 task.
    struct JobAcc {
        meter: Meter,
        wire_bytes: f64,
        busy: Dur,
        // Every rank's comm registers its own server flow; the schedule
        // is driven by whichever rank arrives at the gate last, so the
        // job's fan-back bytes are the sum over all of them. A shrink
        // releases the old comm's flows — their handles go stale, and
        // `flow_stats` on a stale handle panics — so the recovery path
        // banks a flow's bytes here and drops its id before shrinking.
        server_flows: Vec<diomp_sim::FlowId>,
        server_flow_retired: u64,
        retries: u32,
        recovery: Dur,
        first_abort: Option<SimTime>,
    }
    let accs: Vec<Rc<RefCell<JobAcc>>> = spec
        .jobs
        .iter()
        .map(|_| {
            Rc::new(RefCell::new(JobAcc {
                meter: Meter::new(),
                wire_bytes: 0.0,
                busy: Dur::ZERO,
                server_flows: Vec::new(),
                server_flow_retired: 0,
                retries: 0,
                recovery: Dur::ZERO,
                first_abort: None,
            }))
        })
        .collect();

    for (j, job) in spec.jobs.iter().enumerate() {
        // Ids only key the communicator's rendezvous gate; a fresh one
        // per job per run keeps gates from leaking across runs in the
        // same process.
        let id = UniqueId::generate();
        for r in 0..nranks {
            let world = world.clone();
            let job = job.clone();
            let acc = accs[j].clone();
            let (iters, sizes, seed) = (spec.iters, spec.sizes.clone(), spec.seed);
            let recovery = spec.recovery;
            sim.spawn(format!("job{j}-{}-rank{r}", job.name), move |ctx| {
                ctx.delay(job.arrival);
                let mut comm = XcclComm::init(
                    ctx,
                    &world,
                    (0..world.nranks).collect(),
                    r,
                    id,
                    job.comm_opts(),
                );
                let buf_len = max_size.max(64);
                let off = world.primary_dev(r).malloc(buf_len, 256).unwrap();
                if let Some(f) = comm.server_flow() {
                    acc.borrow_mut().server_flows.push(f);
                }
                let Some(rc) = recovery else {
                    // Disarmed: the historical blocking path, bit for bit.
                    for i in 0..iters {
                        let (op, size) = draw(seed, j, i, &sizes);
                        let t0 = ctx.now();
                        let wire = op.wire_factor(world.nranks) * size as f64;
                        comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, size);
                        if r == 0 {
                            let d = ctx.now().since(t0);
                            let mut a = acc.borrow_mut();
                            a.meter.record(d);
                            a.wire_bytes += wire;
                            a.busy += d;
                        }
                    }
                    return;
                };
                // Armed: bounded rendezvous parks, checkpoint epochs,
                // shrink + rollback + exponential-backoff retry. Doomed
                // ranks always complete comm init (a process that dies
                // mid-run had joined), then leave at the first collective
                // boundary past their kill time.
                let my_kill = ctx.handle().fault_plan().and_then(|p| p.kill_time(r as u32));
                let bufs = [(r, off, buf_len)];
                let mut ck = Checkpoint::take(ctx, &world, &bufs, 0);
                let mut attempt = 0u32;
                // Iterations already sampled: rollback re-runs an epoch's
                // tail, which must not double-count latency or bytes.
                let mut recorded = 0usize;
                let mut abort_at: Option<SimTime> = None;
                let mut i = 0usize;
                while i < iters {
                    if my_kill.is_some_and(|t| t <= ctx.now()) {
                        return;
                    }
                    let (op, size) = draw(seed, j, i, &sizes);
                    let t0 = ctx.now();
                    let wire = op.wire_factor(comm.ranks.len()) * size as f64;
                    match comm.try_collective(
                        ctx,
                        r,
                        vec![DeviceBuf { flat: r, off }],
                        op,
                        size,
                        Wait::Until(rc.collective_timeout),
                    ) {
                        Ok(_) => {
                            if r == 0 && i >= recorded {
                                let d = ctx.now().since(t0);
                                let mut a = acc.borrow_mut();
                                a.meter.record(d);
                                a.wire_bytes += wire;
                                a.busy += d;
                                if let Some(at) = abort_at.take() {
                                    a.recovery += ctx.now().since(at);
                                }
                                recorded = i + 1;
                            }
                            i += 1;
                            if i < iters && (i as u32).is_multiple_of(rc.checkpoint_every) {
                                ck = Checkpoint::take(ctx, &world, &bufs, i as u64);
                            }
                        }
                        Err(abort) => {
                            // A rank the plan dooms is dead in the agreed
                            // survivor set even before its kill time
                            // (two kills straddling a detection window
                            // must not split the survivors) — it exits
                            // instead of shrinking.
                            if my_kill.is_some() {
                                return;
                            }
                            if attempt >= job.max_retries {
                                return; // retry budget exhausted: job gives up
                            }
                            let health = world.converged_health();
                            ck.restore(ctx, &world);
                            ctx.delay(rc.backoff_for(attempt));
                            // Shrink releases this rank's server flow:
                            // bank its bytes and drop the soon-stale id
                            // first, then track the replacement comm's.
                            if let Some(f) = comm.server_flow() {
                                let mut a = acc.borrow_mut();
                                if let Some(pos) = a.server_flows.iter().position(|&x| x == f) {
                                    a.server_flows.swap_remove(pos);
                                    a.server_flow_retired += ctx.handle().flow_stats(f).bytes;
                                }
                            }
                            comm = comm.shrink(ctx, &health, r);
                            if let Some(f) = comm.server_flow() {
                                acc.borrow_mut().server_flows.push(f);
                            }
                            if r == 0 {
                                let mut a = acc.borrow_mut();
                                a.retries += 1;
                                a.first_abort.get_or_insert(abort.at);
                                if abort_at.is_none() {
                                    abort_at = Some(abort.at);
                                }
                            }
                            attempt += 1;
                            i = ck.iter as usize;
                        }
                    }
                }
            });
        }
    }
    let handle = sim.handle();
    let rep = sim.run().expect("workload simulation deadlocked");
    let jobs = spec
        .jobs
        .iter()
        .zip(&accs)
        .map(|(job, acc)| {
            let a = acc.borrow();
            let busy_ns = a.busy.as_nanos();
            JobResult {
                name: job.name.clone(),
                qos: job.qos,
                samples: a.meter.count(),
                p50_us: a.meter.p50_us(),
                p99_us: a.meter.p99_us(),
                achieved_gbps: if busy_ns == 0 { 0.0 } else { a.wire_bytes / busy_ns as f64 },
                table_gbps: spec.platform.net.nic_gbps,
                server_flow_bytes: a.server_flow_retired
                    + a.server_flows.iter().map(|&f| handle.flow_stats(f).bytes).sum::<u64>(),
                retries: a.retries,
                recovery_us: a.recovery.as_nanos() as f64 / 1000.0,
                first_abort_us: a.first_abort.map(SimTime::as_us),
            }
        })
        .collect();
    WorkloadReport {
        jobs,
        makespan_us: rep.end_time.as_us(),
        end_time: rep.end_time,
        entries_processed: rep.entries_processed,
        digest: rep.digest,
    }
}

/// The canonical mixed-QoS tenant set: job `4k` is High, job `4k+3` is
/// Low, the rest Normal; arrivals are seeded, spread over the first
/// `window`.
pub fn canonical_jobs(n: usize, seed: u64, window: Dur) -> Vec<JobSpec> {
    (0..n)
        .map(|j| {
            let qos = match j % 4 {
                0 => QosClass::High,
                3 => QosClass::Low,
                _ => QosClass::Normal,
            };
            let h = derive_seed(seed, 0xA221 + j as u64);
            let arrival = Dur::nanos(h % window.as_nanos().max(1));
            JobSpec::new(format!("{}{j}", qos_tag(qos)), qos, arrival)
        })
        .collect()
}

fn qos_tag(qos: QosClass) -> &'static str {
    match qos {
        QosClass::High => "high",
        QosClass::Normal => "normal",
        QosClass::Low => "low",
    }
}

/// The canonical 8-job contention scenario `bench_gate` gates: two
/// High, four Normal and two Low tenants on two platform-A nodes, mixed
/// 256 KiB – 4 MiB collectives, arrivals spread over the first 200 µs.
pub fn canonical_workload(contended: bool) -> WorkloadSpec {
    WorkloadSpec {
        platform: PlatformSpec::platform_a(),
        nodes: 2,
        jobs: canonical_jobs(8, 0xD10_1417, Dur::micros(200.0)),
        iters: 12,
        sizes: vec![256 << 10, 1 << 20, 4 << 20],
        seed: 0xD10_1417,
        contended,
        faults: None,
        recovery: None,
    }
}

/// The idle reference for the canonical scenario: the same fabric and
/// collective sequence, but a single tenant with the whole fabric to
/// itself. QoS weights only matter under contention, so one idle run
/// serves as the baseline for every class.
pub fn canonical_idle_workload(contended: bool) -> WorkloadSpec {
    let mut spec = canonical_workload(contended);
    spec.jobs.truncate(1);
    spec
}

/// The server-offload contention scenario `bench_gate` gates alongside
/// the canonical one: the same 8-tenant mix on a three-node platform-A
/// fabric, with one Normal tenant provisioned a reduction-server node
/// and pinned to the server engine. Its fan-back bytes are charged to
/// its own server flow, so `flow_stats` attributes every wire byte —
/// client and server side — to the owning tenant, and the other seven
/// jobs' QoS accounting is undisturbed.
pub fn server_workload(contended: bool) -> WorkloadSpec {
    let mut spec = canonical_workload(contended);
    spec.nodes = 3;
    let p = &spec.platform;
    let rc = RingConfig::auto(p, &XcclOp::AllReduce { op: ReduceOp::SumF32 }, default_nrings(p));
    spec.jobs[1] = spec.jobs[1]
        .clone()
        .with_engine(CollEngine::ReductionServer(rc))
        .with_servers(ServerSpec::tail(1));
    spec
}

/// The single-tenant reference for the server scenario: only the
/// server-equipped job, alone on the fabric.
pub fn server_idle_workload(contended: bool) -> WorkloadSpec {
    let mut spec = server_workload(contended);
    spec.jobs = vec![spec.jobs[1].clone()];
    spec
}

/// The elastic-recovery scenario `bench_gate` gates: the canonical
/// 8-job contention mix with recovery armed and rank 3 killed at
/// roughly 50% of the fault-free makespan. Every job detects the death
/// in the collective it has in flight, or else at its next collective
/// boundary (bounded park → `gaspi_state_vec` probe), shrinks its
/// communicator to the agreed survivors, rolls back one checkpoint
/// epoch, and completes over the shrunk world.
pub fn recovery_workload() -> WorkloadSpec {
    let mut spec = canonical_workload(true);
    for job in &mut spec.jobs {
        *job = job.clone().with_max_retries(2);
    }
    // Half-way through the collective stream: the canonical run spends
    // its first ~90 ms in NCCL-style communicator init
    // (`xccl_init_us`) and runs its 12 iterations over ≈ 90–95 ms, so
    // the kill lands with roughly half of each job's iterations
    // committed and the rest re-run after the shrink.
    spec.faults = Some(FaultPlan::new().kill_rank(3, SimTime(92_500_000)));
    spec.recovery = Some(RecoveryConfig::default());
    spec
}

/// The fault-free armed reference for the recovery scenario: recovery
/// armed (checkpoints and bounded parks included), nothing killed. The
/// bench gate holds its makespan within 1.05× of the disarmed canonical
/// run — checkpoint epochs must not tax a healthy fabric.
pub fn recovery_idle_workload() -> WorkloadSpec {
    let mut spec = recovery_workload();
    spec.faults = None;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_rank_invariant_and_mixed() {
        let sizes = [256u64 << 10, 1 << 20, 4 << 20];
        let mut seen_sizes = std::collections::HashSet::new();
        let mut seen_ops = std::collections::HashSet::new();
        for i in 0..32 {
            let (op, size) = draw(7, 3, i, &sizes);
            assert_eq!((op, size), draw(7, 3, i, &sizes), "draw must be deterministic");
            seen_sizes.insert(size);
            seen_ops.insert(matches!(op, XcclOp::AllReduce { .. }));
        }
        assert!(seen_sizes.len() > 1, "sizes must actually mix");
        assert_eq!(seen_ops.len(), 2, "ops must actually mix");
    }

    #[test]
    fn canonical_jobs_cover_all_classes() {
        let jobs = canonical_jobs(8, 1, Dur::micros(200.0));
        assert_eq!(jobs.iter().filter(|j| j.qos == QosClass::High).count(), 2);
        assert_eq!(jobs.iter().filter(|j| j.qos == QosClass::Normal).count(), 4);
        assert_eq!(jobs.iter().filter(|j| j.qos == QosClass::Low).count(), 2);
        assert!(jobs.iter().all(|j| j.arrival < Dur::micros(200.0)));
    }

    #[test]
    fn single_job_workload_is_contention_invariant() {
        // One tenant: the weighted fair queue has a single backlogged
        // flow on every link, which collapses to the serial closed form
        // — the armed run must land on the same virtual end time.
        let disarmed = run_workload(&canonical_idle_workload(false));
        let armed = run_workload(&canonical_idle_workload(true));
        assert_eq!(disarmed.end_time, armed.end_time);
        assert_eq!(disarmed.jobs[0].p99_us, armed.jobs[0].p99_us);
    }

    #[test]
    fn single_server_job_workload_is_contention_invariant() {
        // The flow-partition invariant at workload level: a lone tenant
        // with carved servers splits its traffic across a client flow
        // (client NICs + ports) and a server flow (server NICs), but no
        // single wire ever carries both — so arming the fair queue still
        // changes nothing.
        let disarmed = run_workload(&server_idle_workload(false));
        let armed = run_workload(&server_idle_workload(true));
        assert_eq!(disarmed.end_time, armed.end_time);
        assert_eq!(disarmed.jobs[0].p99_us, armed.jobs[0].p99_us);
        assert_eq!(disarmed.jobs[0].server_flow_bytes, armed.jobs[0].server_flow_bytes);
    }

    #[test]
    fn server_fan_back_is_charged_to_the_owning_tenant_only() {
        let mut spec = server_workload(true);
        spec.iters = 6;
        let rep = run_workload(&spec);
        assert_eq!(rep.jobs.len(), 8);
        for (i, j) in rep.jobs.iter().enumerate() {
            assert_eq!(j.samples, 6, "{}: every iteration must be sampled", j.name);
            assert!(j.p99_us >= j.p50_us && j.p50_us > 0.0);
            if i == 1 {
                assert!(
                    j.server_flow_bytes > 0,
                    "the server job's fan-back must land on its server flow"
                );
            } else {
                assert_eq!(j.server_flow_bytes, 0, "{}: no servers, no server flow", j.name);
            }
        }
    }

    #[test]
    fn recovery_scenario_completes_every_job_over_the_survivors() {
        let spec = recovery_workload();
        let kill_us = spec.faults.as_ref().unwrap().rank_kills()[0].1.as_us();
        let rep = run_workload(&spec);
        assert_eq!(rep.jobs.len(), 8);
        let mut shrunk = 0;
        for j in &rep.jobs {
            assert_eq!(j.samples, 12, "{}: every iteration must complete", j.name);
            if j.retries > 0 {
                shrunk += 1;
                assert!(
                    j.recovery_us > 0.0,
                    "{}: a job that shrank must report its recovery latency",
                    j.name
                );
                // A collective in flight across the kill aborts within a
                // few budgets of it instead of crawling the dead links.
                let detect = j.first_abort_us.expect("a shrink follows an abort") - kill_us;
                assert!(
                    (0.0..=10_000.0).contains(&detect),
                    "{}: detected after {detect}µs",
                    j.name
                );
            } else {
                // A job whose collective stream finished before the
                // death was detectable never pays for recovery.
                assert_eq!(j.recovery_us, 0.0, "{}: no shrink, no recovery time", j.name);
                assert_eq!(j.first_abort_us, None, "{}: no shrink, no abort", j.name);
            }
        }
        assert!(shrunk >= 4, "most tenants must ride out the mid-run kill (got {shrunk})");
    }

    #[test]
    fn recovery_scenario_replays_bit_identically() {
        let a = run_workload(&recovery_workload());
        let b = run_workload(&recovery_workload());
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.entries_processed, b.entries_processed);
        assert_eq!(a.digest, b.digest);
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.retries, y.retries, "{}: shrink count must replay", x.name);
            assert_eq!(x.recovery_us, y.recovery_us, "{}: recovery time must replay", x.name);
            assert_eq!(x.p99_us, y.p99_us, "{}: latency must replay", x.name);
        }
    }

    #[test]
    fn armed_recovery_on_a_healthy_fabric_never_shrinks() {
        let rep = run_workload(&recovery_idle_workload());
        for j in &rep.jobs {
            assert_eq!(j.samples, 12);
            assert_eq!(j.retries, 0, "{}: nothing died, nothing shrinks", j.name);
            assert_eq!(j.recovery_us, 0.0);
        }
    }

    #[test]
    fn contended_run_reports_all_jobs() {
        let mut spec = canonical_workload(true);
        spec.iters = 4;
        let rep = run_workload(&spec);
        assert_eq!(rep.jobs.len(), 8);
        for j in &rep.jobs {
            assert_eq!(j.samples, 4, "{}: every iteration must be sampled", j.name);
            assert!(j.p99_us >= j.p50_us && j.p50_us > 0.0);
            assert!(j.achieved_gbps > 0.0 && j.achieved_gbps < j.table_gbps);
        }
    }
}
