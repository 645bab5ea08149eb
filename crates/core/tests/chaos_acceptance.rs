//! The canonical chaos acceptance scenario (the tentpole's end-to-end
//! criterion): one degraded rail, one compute straggler, and one
//! lost-then-retried notification — replayed against every collective
//! engine. Each run must complete, stay byte-identical to the sequential
//! reference, and keep its virtual-time inflation inside the bound the
//! degraded bandwidth prices.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use diomp_core::{
    AutoConfig, CollEngine, Conduit, DiompConfig, DiompError, DiompRank, DiompRuntime, FabricError,
    PtrCache, RankHealth, RingConfig,
};
use diomp_fabric::ReduceOp;
use diomp_sim::{
    fault_key, ClusterSpec, CtrlFault, Dur, FaultPlan, PlatformSpec, Sim, SimTime, Wait,
};
use std::sync::Mutex;

const NRANKS: usize = 4;
const NOTIFY_ID: u32 = 7;
const NOTIFY_LEN: u64 = 4 << 10;

fn cfg(engine: CollEngine) -> DiompConfig {
    let platform = PlatformSpec::platform_c();
    DiompConfig::builder(ClusterSpec { platform, nodes: NRANKS, gpus_per_node: 1 })
        .with_conduit(Conduit::Gpi2)
        .with_heap(8 << 20)
        .with_coll_engine(engine)
        .build()
}

/// The canonical plan: rank 0's NIC degraded to 40 % of nominal for the
/// whole run, rank 1 a 1.5× compute straggler, and the first
/// notification rank 0 posts toward rank 1 silently dropped.
fn canonical_plan() -> FaultPlan {
    // Probe a throwaway world for the NIC resource id — topology
    // construction is deterministic, so the id is stable across sims.
    let sim = Sim::new();
    let shared = DiompRuntime::build(&sim, cfg(CollEngine::Profile));
    let nic = shared.world.devs.dev(0).nic;
    drop(sim);
    FaultPlan::new()
        .degrade_link(nic, SimTime::ZERO, SimTime(u64::MAX), 400)
        .straggle("diomp-rank1", 1500)
        .ctrl_fault(fault_key("gpi-notify", 1, NOTIFY_ID as u64), CtrlFault::Drop)
}

/// Run the scenario under `plan` and return the end-of-sim virtual time.
///
/// The scenario: a notified put from rank 0 to rank 1 recovered by the
/// timeout-and-resend protocol when the notification is lost, followed
/// by a world allreduce of `len` integer-valued f64 bytes on the
/// configured engine, byte-checked against the sequential sum on every
/// rank.
fn run_scenario(engine: CollEngine, plan: FaultPlan, len: u64, tag: &str) -> SimTime {
    let faulty = !plan.is_empty();
    let mut sim = Sim::new();
    sim.set_fault_plan(plan);
    let shared = DiompRuntime::build(&sim, cfg(engine));
    let resend = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let timed_out = Arc::new(AtomicBool::new(false));
    let sums: Arc<Mutex<Vec<Vec<f64>>>> = Arc::new(Mutex::new(vec![Vec::new(); NRANKS]));
    for r in 0..NRANKS {
        let shared = shared.clone();
        let (resend, done, timed_out) = (resend.clone(), done.clone(), timed_out.clone());
        let sums = sums.clone();
        sim.spawn(format!("diomp-rank{r}"), move |ctx| {
            let mut rank = DiompRank { shared, rank: r, cache: PtrCache::new(), rma_retries: 0 };
            let nptr = rank.alloc_sym(ctx, NOTIFY_LEN).unwrap();
            let aptr = rank.alloc_sym(ctx, len).unwrap();

            // --- lost-notification protocol (ranks 0 and 1) ---
            if rank.rank == 0 {
                rank.put_notify(ctx, 1, nptr, 0, nptr, 0, NOTIFY_LEN, NOTIFY_ID, 1).unwrap();
                rank.fence(ctx);
                while !resend.load(Ordering::Relaxed) && !done.load(Ordering::Relaxed) {
                    ctx.delay(Dur::micros(20.0));
                }
                if resend.load(Ordering::Relaxed) {
                    rank.put_notify(ctx, 1, nptr, 0, nptr, 0, NOTIFY_LEN, NOTIFY_ID, 1).unwrap();
                    rank.fence(ctx);
                }
            } else if rank.rank == 1 {
                match rank.notify_waitsome_with(ctx, NOTIFY_ID, 1, Wait::Until(Dur::millis(1.0))) {
                    Ok((id, value)) => {
                        assert_eq!((id, value), (NOTIFY_ID, 1));
                        done.store(true, Ordering::Relaxed);
                    }
                    Err(err) => {
                        assert!(
                            matches!(err, DiompError::Fabric(FabricError::Timeout { .. })),
                            "{err:?}"
                        );
                        timed_out.store(true, Ordering::Relaxed);
                        resend.store(true, Ordering::Relaxed);
                        let (id, value) = rank.notify_waitsome(ctx, NOTIFY_ID, 1);
                        assert_eq!((id, value), (NOTIFY_ID, 1));
                        done.store(true, Ordering::Relaxed);
                    }
                }
            }
            rank.barrier(ctx);

            // --- allreduce on the configured engine ---
            let vals: Vec<u8> = (0..len / 8)
                .flat_map(|i| (((r as u64 + 1) * (i % 11 + 1)) as f64).to_le_bytes())
                .collect();
            rank.write_local(rank.primary(), aptr, 0, &vals);
            rank.barrier(ctx);
            let world = rank.shared.world_group();
            rank.allreduce(ctx, &world, aptr, len, ReduceOp::SumF64);
            let mut out = vec![0u8; len as usize];
            rank.read_local(rank.primary(), aptr, 0, &mut out);
            sums.lock().unwrap()[r] =
                out.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect();
            rank.barrier(ctx);
        });
    }
    let end = sim.run().unwrap().end_time;
    assert_eq!(
        timed_out.load(Ordering::Relaxed),
        faulty,
        "{tag}: the consumer times out exactly when the notification is dropped"
    );
    let expect: Vec<f64> = (0..len / 8)
        .map(|i| (1..=NRANKS as u64).map(|r| (r * (i % 11 + 1)) as f64).sum())
        .collect();
    for (r, got) in sums.lock().unwrap().iter().enumerate() {
        assert_eq!(got, &expect, "{tag}: rank {r} diverged from the sequential reference");
    }
    end
}

#[test]
fn canonical_plan_completes_byte_identical_within_the_priced_bound_on_every_engine() {
    let p = PlatformSpec::platform_c();
    let auto = CollEngine::Auto(AutoConfig::for_platform(&p));
    // (engine, payload): Auto runs twice so both the LL/tree band and
    // the ring band above the crossovers are exercised under faults.
    let cases: [(CollEngine, u64, &str); 5] = [
        (CollEngine::Profile, 256 << 10, "profile"),
        (CollEngine::Ring(RingConfig::auto(&p, &diomp_xccl_op(), 1)), 256 << 10, "ring"),
        (CollEngine::Dbt(RingConfig::auto(&p, &diomp_xccl_op(), 1)), 256 << 10, "dbt"),
        (auto, 1 << 10, "auto/ll-band"),
        (auto, 1 << 20, "auto/ring-band"),
    ];
    for (engine, len, tag) in cases {
        let t_clean = run_scenario(engine, FaultPlan::new(), len, &format!("{tag} clean"));
        let t_fault = run_scenario(engine, canonical_plan(), len, &format!("{tag} faulty"));
        assert!(
            t_fault > t_clean,
            "{tag}: the canonical faults must cost virtual time ({t_fault:?} vs {t_clean:?})"
        );
        // Hard bound: the degraded NIC prices a 1000/400 = 2.5× slowdown,
        // the straggler 1.5× — the run may inflate by at most the worse
        // of the two (with a 1.5× modelling margin) plus the protocol's
        // fixed costs: the consumer's 1 ms timeout, its 20 µs resend
        // polling grain, and the retried notification's round trip.
        let inflate = 2.5 * 1.5;
        let fixed = Dur::millis(2.0);
        let bound = SimTime((t_clean.0 as f64 * inflate) as u64) + fixed;
        assert!(
            t_fault <= bound,
            "{tag}: inflation exceeds the priced degraded-bandwidth bound: \
             {t_fault:?} > {bound:?} (clean {t_clean:?})"
        );
    }
}

/// The allreduce op used to tune the pinned ring/DBT engines.
fn diomp_xccl_op() -> diomp_core::XcclOp {
    diomp_core::XcclOp::AllReduce { op: ReduceOp::SumF64 }
}

#[test]
fn canonical_plan_is_visible_in_the_health_vector() {
    // The runtime seeds gaspi_state_vec from the armed plan at build:
    // rank 0 (the degraded NIC's owner) reports Degraded{400}, everyone
    // else Healthy — and collectives price against the 400 factor.
    let sim = Sim::new();
    sim.set_fault_plan(canonical_plan());
    let shared = DiompRuntime::build(&sim, cfg(CollEngine::Profile));
    let health = shared.world.health();
    assert_eq!(health.rank_health(0), RankHealth::Degraded { factor_milli: 400 });
    for r in 1..NRANKS {
        assert_eq!(health.rank_health(r), RankHealth::Healthy, "rank {r}");
    }
    assert_eq!(health.worst_live_factor_milli(), 400);
    drop(sim);
}
