//! Runtime-level fault recovery: the GASPI retry loop around GPI-2
//! posts, timed fences with partial-completion reporting, and the
//! timeout-driven lost-notification protocol — all under the
//! deterministic injector.

use std::rc::Rc;
use std::sync::Arc;

use diomp_core::{
    Conduit, DiompConfig, DiompConfigBuilder, DiompError, DiompRank, DiompRuntime, FabricError,
    PtrCache,
};
use diomp_sim::{fault_key, ClusterSpec, CtrlFault, Dur, FaultPlan, PlatformSpec, Sim, Wait};
use std::sync::Mutex;

fn two_nodes(platform: PlatformSpec) -> DiompConfigBuilder {
    DiompConfig::builder(ClusterSpec { platform, nodes: 2, gpus_per_node: 1 })
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i.wrapping_mul(31) + 7) as u8).collect()
}

/// Boot a job with a fault plan installed, run `f` per rank, return the
/// per-rank retry counts.
fn run_with_plan<F>(cfg: DiompConfig, plan: FaultPlan, f: F) -> Vec<u64>
where
    F: Fn(&mut diomp_sim::Ctx, &mut DiompRank) + 'static,
{
    let mut sim = Sim::new();
    sim.set_fault_plan(plan);
    let shared = DiompRuntime::build(&sim, cfg);
    let retries = Arc::new(Mutex::new(vec![0u64; shared.world.nranks]));
    let f = Rc::new(f);
    for r in 0..shared.world.nranks {
        let shared = shared.clone();
        let f = f.clone();
        let retries = retries.clone();
        sim.spawn(format!("diomp-rank{r}"), move |ctx| {
            let mut rank = DiompRank { shared, rank: r, cache: PtrCache::new(), rma_retries: 0 };
            f(ctx, &mut rank);
            retries.lock().unwrap()[r] = rank.rma_retries;
        });
    }
    sim.run().unwrap();
    let v = retries.lock().unwrap().clone();
    v
}

#[test]
fn gpi_put_recovers_from_injected_queue_error() {
    // One injected queue drop on rank 0's queue 0: the put must purge,
    // back off, repost, and end byte-identical — with exactly one retry
    // counted and no error surfaced to the caller.
    let len: u64 = 64 << 10;
    let out = Arc::new(Mutex::new(Vec::new()));
    let out2 = out.clone();
    let retries = run_with_plan(
        two_nodes(PlatformSpec::platform_c()).with_conduit(Conduit::Gpi2).build(),
        FaultPlan::new().ctrl_fault(fault_key("gpi-queue", 0, 0), CtrlFault::Drop),
        move |ctx, rank| {
            let ptr = rank.alloc_sym(ctx, len).unwrap();
            if rank.rank == 0 {
                rank.write_local(rank.primary(), ptr, 0, &pattern(len as usize));
            }
            rank.barrier(ctx);
            if rank.rank == 0 {
                rank.put(ctx, 1, ptr, 0, ptr, 0, len).unwrap();
                rank.fence(ctx);
            }
            rank.barrier(ctx);
            if rank.rank == 1 {
                let mut got = vec![0u8; len as usize];
                rank.read_local(rank.primary(), ptr, 0, &mut got);
                *out2.lock().unwrap() = got;
            }
        },
    );
    assert_eq!(*out.lock().unwrap(), pattern(len as usize), "retried put must stay byte-identical");
    assert_eq!(retries, vec![1, 0], "exactly one recovery loop, on rank 0 only");
}

#[test]
fn gpi_put_exhausted_retry_budget_propagates_queue_error() {
    // Five drops queued against a budget of 2: the recovery loop runs
    // twice (purge clears the error, the next post consumes the next
    // drop) and the third failure propagates as a typed error.
    let errs = Arc::new(Mutex::new(Vec::new()));
    let errs2 = errs.clone();
    let plan = (0..5)
        .fold(FaultPlan::new(), |p, _| p.ctrl_fault(fault_key("gpi-queue", 0, 0), CtrlFault::Drop));
    let retries = run_with_plan(
        two_nodes(PlatformSpec::platform_c())
            .with_conduit(Conduit::Gpi2)
            .with_rma_retry(2, 10.0)
            .build(),
        plan,
        move |ctx, rank| {
            let ptr = rank.alloc_sym(ctx, 4096).unwrap();
            rank.barrier(ctx);
            if rank.rank == 0 {
                let err = rank.put(ctx, 1, ptr, 0, ptr, 0, 4096).unwrap_err();
                errs2.lock().unwrap().push(err);
            }
            rank.barrier(ctx);
        },
    );
    let errs = errs.lock().unwrap();
    assert_eq!(errs.len(), 1);
    assert!(
        matches!(&errs[0], DiompError::Fabric(FabricError::QueueError { rank: 0, .. })),
        "{:?}",
        errs[0]
    );
    assert_eq!(retries, vec![2, 0], "budget of 2 fully spent before giving up");
}

#[test]
fn fence_timeout_reports_partial_completion_then_full_fence_drains() {
    // A tiny put and a large put in one fence window: a deadline between
    // their completions must report the split and keep the in-flight
    // completions tracked so the follow-up (unbounded) fence finishes
    // the job — byte-identically.
    let len: u64 = 1 << 20;
    let out = Arc::new(Mutex::new(Vec::new()));
    let out2 = out.clone();
    let seen = Arc::new(Mutex::new(None));
    let seen2 = seen.clone();
    run_with_plan(
        two_nodes(PlatformSpec::platform_a()).with_heap(8 << 20).build(),
        FaultPlan::new(),
        move |ctx, rank| {
            let ptr = rank.alloc_sym(ctx, len).unwrap();
            if rank.rank == 0 {
                rank.write_local(rank.primary(), ptr, 0, &pattern(len as usize));
            }
            rank.barrier(ctx);
            if rank.rank == 0 {
                rank.put(ctx, 1, ptr, 0, ptr, 0, 8).unwrap();
                rank.put(ctx, 1, ptr, 0, ptr, 0, len).unwrap();
                let err = rank
                    .fence_with(ctx, Wait::Until(Dur::micros(30.0)))
                    .expect_err("1 MiB cannot cross nodes in 30 µs");
                assert!(err.completed >= 1, "the 8 B put completed inside the window");
                assert!(!err.in_flight.is_empty(), "the 1 MiB put is still in flight");
                *seen2.lock().unwrap() = Some((err.completed, err.in_flight.len()));
                rank.fence(ctx);
            }
            rank.barrier(ctx);
            if rank.rank == 1 {
                let mut got = vec![0u8; len as usize];
                rank.read_local(rank.primary(), ptr, 0, &mut got);
                *out2.lock().unwrap() = got;
            }
        },
    );
    assert_eq!(*out.lock().unwrap(), pattern(len as usize));
    assert!(seen.lock().unwrap().is_some());
}

#[test]
fn a_bounded_fence_counts_a_completion_at_its_deadline_as_done() {
    // The 8 B put's completion instant, from a run that fences on it
    // alone; the deadline then falls exactly on it. Done means
    // `t <= deadline`: the 8 B put is retired, the 1 MiB one is not.
    let cfg = || two_nodes(PlatformSpec::platform_a()).with_heap(8 << 20).build();
    let small = Arc::new(Mutex::new(None));
    let small2 = small.clone();
    run_with_plan(cfg(), FaultPlan::new(), move |ctx, rank| {
        let ptr = rank.alloc_sym(ctx, 8).unwrap();
        rank.barrier(ctx);
        if rank.rank == 0 {
            let t0 = ctx.now();
            rank.put(ctx, 1, ptr, 0, ptr, 0, 8).unwrap();
            rank.fence(ctx);
            *small2.lock().unwrap() = Some(ctx.now().since(t0));
        }
        rank.barrier(ctx);
    });
    let small = small.lock().unwrap().expect("rank 0 fenced");
    let seen = Arc::new(Mutex::new(None));
    let seen2 = seen.clone();
    run_with_plan(cfg(), FaultPlan::new(), move |ctx, rank| {
        let len: u64 = 1 << 20;
        let ptr = rank.alloc_sym(ctx, len).unwrap();
        rank.barrier(ctx);
        if rank.rank == 0 {
            let t0 = ctx.now();
            rank.put(ctx, 1, ptr, 0, ptr, 0, 8).unwrap();
            let budget = (t0 + small).since(ctx.now());
            let ok = rank.fence_with(ctx, Wait::Until(budget));
            assert_eq!((ok, ctx.now()), (Ok(()), t0 + small), "done at the deadline");
            let t1 = ctx.now();
            rank.put(ctx, 1, ptr, 0, ptr, 0, 8).unwrap();
            rank.put(ctx, 1, ptr, 0, ptr, 0, len).unwrap();
            let budget = (t1 + small).since(ctx.now());
            let err = rank.fence_with(ctx, Wait::Until(budget)).unwrap_err();
            *seen2.lock().unwrap() =
                Some((err.at == t1 + small, err.completed, err.in_flight.len()));
            rank.fence(ctx);
        }
        rank.barrier(ctx);
    });
    assert_eq!(
        *seen.lock().unwrap(),
        Some((true, 1, 1)),
        "(at the deadline, completed, in flight)"
    );
}

#[test]
fn put_notify_retry_and_consumer_timeout_protocol_deliver_exactly_once() {
    // Lost notification end-to-end at the ompx level: the producer's
    // put_notify has its notification dropped in flight; the consumer's
    // timed waitsome fires, requests a resend, and the second notify
    // lands. The payload is read exactly once, after the notification.
    let len: u64 = 16 << 10;
    let got = Arc::new(Mutex::new(Vec::new()));
    let got2 = got.clone();
    let resend = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let resend2 = resend.clone();
    run_with_plan(
        two_nodes(PlatformSpec::platform_c()).with_conduit(Conduit::Gpi2).build(),
        FaultPlan::new().ctrl_fault(fault_key("gpi-notify", 1, 4), CtrlFault::Drop),
        move |ctx, rank| {
            let ptr = rank.alloc_sym(ctx, len).unwrap();
            if rank.rank == 0 {
                rank.write_local(rank.primary(), ptr, 0, &pattern(len as usize));
            }
            rank.barrier(ctx);
            if rank.rank == 0 {
                rank.put_notify(ctx, 1, ptr, 0, ptr, 0, len, 4, 9).unwrap();
                rank.fence(ctx);
                while !resend2.load(std::sync::atomic::Ordering::Relaxed) {
                    ctx.delay(Dur::micros(20.0));
                }
                rank.put_notify(ctx, 1, ptr, 0, ptr, 0, len, 4, 9).unwrap();
                rank.fence(ctx);
            } else {
                let err = rank
                    .notify_waitsome_with(ctx, 0, 8, Wait::Until(Dur::millis(1.0)))
                    .expect_err("first notification was dropped");
                assert!(matches!(err, DiompError::Fabric(FabricError::Timeout { .. })), "{err:?}");
                resend.store(true, std::sync::atomic::Ordering::Relaxed);
                let (id, value) = rank.notify_waitsome(ctx, 0, 8);
                assert_eq!((id, value), (4, 9));
                let mut bytes = vec![0u8; len as usize];
                rank.read_local(rank.primary(), ptr, 0, &mut bytes);
                *got2.lock().unwrap() = bytes;
            }
        },
    );
    assert_eq!(*got.lock().unwrap(), pattern(len as usize));
}

#[test]
fn healthy_fabric_never_counts_retries() {
    // The zero-cost-when-disabled guarantee at the runtime level: with no
    // plan installed, the recovery loop body never runs.
    let retries = run_with_plan(
        two_nodes(PlatformSpec::platform_c()).with_conduit(Conduit::Gpi2).build(),
        FaultPlan::new(),
        move |ctx, rank| {
            let ptr = rank.alloc_sym(ctx, 32 << 10).unwrap();
            rank.barrier(ctx);
            if rank.rank == 0 {
                rank.put(ctx, 1, ptr, 0, ptr, 0, 32 << 10).unwrap();
                rank.fence(ctx);
            }
            rank.barrier(ctx);
        },
    );
    assert_eq!(retries, vec![0, 0]);
}

#[test]
fn notify_waitsome_with_against_a_killed_peer_times_out_at_the_deadline() {
    // The producer is killed before it can post: the consumer's timed
    // waitsome must surface `FabricError::Timeout` exactly at its
    // deadline — GASPI's contract that the budget, not a parked
    // transfer, bounds failure detection — and the follow-up
    // `gaspi_state_vec` probe names the corpse.
    use diomp_core::RankHealth;
    use diomp_sim::SimTime;
    let mut sim = Sim::new();
    sim.set_fault_plan(FaultPlan::new().kill_rank(0, SimTime::ZERO));
    let cfg = two_nodes(PlatformSpec::platform_c()).with_conduit(Conduit::Gpi2).build();
    let shared = DiompRuntime::build(&sim, cfg);
    sim.spawn("diomp-rank0", move |_ctx| {
        // Dead from t = 0: never posts its notification.
    });
    let shared1 = shared.clone();
    sim.spawn("diomp-rank1", move |ctx| {
        let mut rank =
            DiompRank { shared: shared1, rank: 1, cache: PtrCache::new(), rma_retries: 0 };
        let t0 = ctx.now();
        let budget = Dur::millis(1.0);
        let err = rank
            .notify_waitsome_with(ctx, 7, 1, Wait::Until(budget))
            .expect_err("no notification can arrive from a killed producer");
        assert!(matches!(err, DiompError::Fabric(FabricError::Timeout { .. })), "{err:?}");
        assert_eq!(ctx.now(), t0 + budget, "the timeout fires at the deadline");
        assert_eq!(
            rank.shared.world.probe_health().rank_health(0),
            RankHealth::Dead,
            "the expired deadline's state-vec probe names the corpse"
        );
    });
    sim.run().unwrap();
}
