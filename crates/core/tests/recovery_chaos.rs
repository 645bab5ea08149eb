//! Elastic-recovery chaos matrix (DESIGN.md D17): mid-run rank kills
//! replayed against every collective engine, including the reduction
//! server with a killed *server* rank.
//!
//! Each cell drives the full recovery protocol at the communicator
//! level — bounded waits at the rendezvous gate, `gaspi_state_vec`
//! probe on timeout, checkpoint rollback, survivor-agreement shrink,
//! re-run — and asserts the tentpole's acceptance criteria:
//!
//! * **Survivor byte-identity** — survivor buffers equal a *sequential
//!   reference* folded over the participation the protocol
//!   deterministically produces: full membership for iterations before
//!   the abort epoch, the agreed survivor set after.
//! * **Single-shrink convergence** — survivor agreement is the fixpoint
//!   over the installed plan ([`FabricWorld::converged_health`] marks
//!   every planned kill dead at first detection), so even kills that
//!   straddle a detection window converge in at most one rebuild.
//! * **Determinism** — the same randomized kill plan replays the same
//!   end time, the same abort epoch, and the same bytes, twice.

use std::rc::Rc;
use std::sync::Arc;

use diomp_core::{
    AutoConfig, Checkpoint, CollEngine, CommOpts, DeviceBuf, RecoveryConfig, ReduceOp, RingConfig,
    ServerSpec, UniqueId, XcclComm, XcclOp,
};
use diomp_device::{DataMode, DeviceTable};
use diomp_fabric::FabricWorld;
use diomp_sim::{
    ClusterSpec, Dur, FaultPlan, PlatformSpec, ResourceId, Sim, SimTime, Topology, Wait,
};
use std::sync::Mutex;

const NODES: usize = 2;
const PER_NODE: usize = 4;
const NRANKS: usize = NODES * PER_NODE;
const ITERS: usize = 6;
const LEN: u64 = 64 << 10;

fn boot(sim: &Sim, plan: &FaultPlan) -> Rc<FabricWorld> {
    sim.set_fault_plan(plan.clone());
    let spec =
        ClusterSpec { platform: PlatformSpec::platform_a(), nodes: NODES, gpus_per_node: PER_NODE };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::Functional, Some(8 << 20));
    let world = FabricWorld::new(topo, devs, NRANKS);
    // Live health: kill windows arm over the doomed ranks' links and
    // `converged_health` can see the plan (what the runtime does too).
    world.attach_sim(&sim.handle());
    world.refresh_health_from_plan(plan);
    world
}

fn all_links(world: &FabricWorld) -> Vec<ResourceId> {
    (0..world.devs.len())
        .flat_map(|f| {
            let d = world.devs.dev(f);
            [d.nic, d.port]
        })
        .collect()
}

fn engines() -> Vec<CollEngine> {
    let p = PlatformSpec::platform_a();
    vec![
        CollEngine::Profile,
        CollEngine::Ring(RingConfig::default()),
        CollEngine::Dbt(RingConfig::default()),
        CollEngine::ReductionServer(RingConfig::default()),
        CollEngine::Auto(AutoConfig::for_platform(&p)),
    ]
}

/// What one recovery run observed (recorded by rank 0, which the kill
/// samplers never target).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RunStats {
    end: SimTime,
    /// First iteration whose collective aborted (`None`: no abort).
    abort_iter: Option<usize>,
    shrinks: u32,
    /// A rank the plan kills left with `CollAbort`: it had arrived, so
    /// (with one kill) the episode aborted in flight, not at its gate.
    doomed_saw_abort: bool,
}

/// Drive `ITERS` allreduce iterations under the armed recovery
/// protocol: per-iteration compute, checkpoint at every collective
/// boundary, bounded gate waits, rollback + survivor-agreement shrink
/// on a confirmed death. Returns the stats and every rank's final
/// buffer (empty for ranks that died or were excluded by agreement).
fn run_recovery(
    engine: CollEngine,
    plan: &FaultPlan,
    servers: ServerSpec,
    compute: Dur,
    len: u64,
    tag: &str,
) -> (RunStats, Vec<Vec<f64>>) {
    let mut sim = Sim::new();
    let world = boot(&sim, plan);
    let id = UniqueId::generate();
    let results: Arc<Mutex<Vec<Vec<f64>>>> = Arc::new(Mutex::new(vec![Vec::new(); NRANKS]));
    let stats: Arc<Mutex<(Option<usize>, u32, bool)>> = Arc::new(Mutex::new((None, 0, false)));
    for r in 0..NRANKS {
        let world = world.clone();
        let results = results.clone();
        let stats = stats.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            let rc = RecoveryConfig::default();
            let bits = world.bootstrap.exchange(ctx, r, if r == 0 { id.bits() } else { 0 })[0];
            let mut comm = XcclComm::init(
                ctx,
                &world,
                (0..NRANKS).collect(),
                r,
                UniqueId::from_bits(bits),
                CommOpts { engine, servers, ..CommOpts::default() },
            );
            let dev = world.primary_dev(r);
            let off = dev.malloc(len, 256).unwrap();
            let vals: Vec<u8> = (0..len / 8)
                .flat_map(|i| (((r as u64 + 1) * (i % 13 + 1)) as f64).to_le_bytes())
                .collect();
            dev.mem.write(off, &vals).unwrap();
            let my_kill = ctx.handle().fault_plan().and_then(|p| p.kill_time(r as u32));
            let bufs = [(r, off, len)];
            let mut ck = Checkpoint::take(ctx, &world, &bufs, 0);
            let mut attempt = 0u32;
            let mut i = 0usize;
            while i < ITERS {
                ctx.delay(compute);
                // A doomed rank exits at the first collective boundary
                // past its kill time — kills take effect at boundaries.
                if my_kill.is_some_and(|t| t <= ctx.now()) {
                    return;
                }
                match comm.try_collective(
                    ctx,
                    r,
                    vec![DeviceBuf { flat: r, off }],
                    XcclOp::AllReduce { op: ReduceOp::SumF64 },
                    len,
                    Wait::Until(rc.collective_timeout),
                ) {
                    Ok(_) => {
                        i += 1;
                        if i < ITERS {
                            ck = Checkpoint::take(ctx, &world, &bufs, i as u64);
                        }
                    }
                    Err(_) => {
                        // Survivor agreement may exclude a doomed rank
                        // whose time has not yet come; it exits rather
                        // than shrinking a comm it has no place in.
                        if my_kill.is_some() {
                            stats.lock().unwrap().2 = true;
                            return;
                        }
                        assert!(attempt < 4, "recovery did not converge");
                        let health = world.converged_health();
                        ck.restore(ctx, &world);
                        ctx.delay(rc.backoff_for(attempt));
                        comm = comm.shrink(ctx, &health, r);
                        if r == 0 {
                            let mut s = stats.lock().unwrap();
                            if s.0.is_none() {
                                s.0 = Some(i);
                            }
                            s.1 += 1;
                        }
                        attempt += 1;
                        i = ck.iter as usize;
                    }
                }
            }
            let mut out = vec![0u8; len as usize];
            dev.mem.read(off, &mut out).unwrap();
            results.lock().unwrap()[r] =
                out.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect();
        });
    }
    let end = sim.run().unwrap_or_else(|e| panic!("{tag}: {e:?}")).end_time;
    let (abort_iter, shrinks, doomed_saw_abort) = *stats.lock().unwrap();
    assert!(shrinks <= 1, "{tag}: survivor agreement must converge in one shrink, saw {shrinks}");
    let bytes = results.lock().unwrap().clone();
    (RunStats { end, abort_iter, shrinks, doomed_saw_abort }, bytes)
}

/// The sequential reference over `n` elements per rank: iterations
/// before the abort epoch fold over `clients_full`, iterations from it
/// on over `clients_shrunk` (non-participants keep their bytes — the
/// server pass-through and the excluded-rank cases fall out of the same
/// rule).
fn reference(
    abort_iter: Option<usize>,
    clients_full: &[usize],
    clients_shrunk: &[usize],
    n: usize,
) -> Vec<Vec<f64>> {
    let d = abort_iter.unwrap_or(ITERS);
    let mut vals: Vec<Vec<f64>> = (0..NRANKS)
        .map(|r| (0..n as u64).map(|i| ((r as u64 + 1) * (i % 13 + 1)) as f64).collect())
        .collect();
    for it in 0..ITERS {
        let parts = if it < d { clients_full } else { clients_shrunk };
        let sums: Vec<f64> = (0..n).map(|i| parts.iter().map(|&p| vals[p][i]).sum()).collect();
        for &p in parts {
            vals[p] = sums.clone();
        }
    }
    vals
}

/// Check every rank the plan does not kill against the reference (rank
/// 0, which no plan here kills, gives the element count).
fn assert_survivors_match(
    plan: &FaultPlan,
    stats: RunStats,
    got: &[Vec<f64>],
    clients_full: &[usize],
    clients_shrunk: &[usize],
    tag: &str,
) {
    let expect = reference(stats.abort_iter, clients_full, clients_shrunk, got[0].len());
    let killed: Vec<u32> = plan.rank_kills().iter().map(|&(r, _)| r).collect();
    for r in 0..NRANKS {
        if killed.contains(&(r as u32)) {
            continue;
        }
        assert_eq!(
            got[r], expect[r],
            "{tag}: survivor rank {r} diverged from the sequential reference \
             (abort at {:?})",
            stats.abort_iter
        );
    }
}

#[test]
fn mid_run_rank_kill_recovers_byte_identical_on_every_engine() {
    // Rank 3 dies mid-stream (iterations span ~[90 ms, 102 ms] after
    // the communicator init; the kill lands halfway). Every engine must
    // detect, shrink once, roll back, and finish with survivor buffers
    // equal to the sequential reference.
    let plan = FaultPlan::new().kill_rank(3, SimTime(96_000_000));
    let full: Vec<usize> = (0..NRANKS).collect();
    let shrunk: Vec<usize> = (0..NRANKS).filter(|&r| r != 3).collect();
    for engine in engines() {
        let tag = format!("kill-rank3 {engine:?}");
        let (stats, got) =
            run_recovery(engine, &plan, ServerSpec::default(), Dur::millis(2.0), LEN, &tag);
        assert_eq!(stats.shrinks, 1, "{tag}: the mid-stream kill must force exactly one shrink");
        let d = stats.abort_iter.expect("a shrink records its epoch");
        assert!((1..ITERS).contains(&d), "{tag}: the kill must land mid-stream, aborted at {d}");
        assert_survivors_match(&plan, stats, &got, &full, &shrunk, &tag);
    }
}

#[test]
fn double_kill_straddling_detection_converges_in_one_shrink() {
    // Two kills whose times straddle the first detection window: the
    // survivor-agreement fixpoint marks *both* dead at first detection,
    // so one rebuild excludes both — the not-yet-dead rank 6 exits on
    // the agreement rather than rejoining a comm it is doomed to wedge.
    let plan =
        FaultPlan::new().kill_rank(3, SimTime(96_000_000)).kill_rank(6, SimTime(100_000_000));
    let full: Vec<usize> = (0..NRANKS).collect();
    let shrunk: Vec<usize> = (0..NRANKS).filter(|&r| r != 3 && r != 6).collect();
    for engine in [
        CollEngine::Ring(RingConfig::default()),
        CollEngine::Auto(AutoConfig::for_platform(&PlatformSpec::platform_a())),
    ] {
        let tag = format!("double-kill {engine:?}");
        let (stats, got) =
            run_recovery(engine, &plan, ServerSpec::default(), Dur::millis(2.0), LEN, &tag);
        assert_eq!(stats.shrinks, 1, "{tag}: straddling kills must converge in one shrink");
        assert_survivors_match(&plan, stats, &got, &full, &shrunk, &tag);
    }
}

#[test]
fn killed_server_rank_shrinks_the_offload_comm_and_the_client_fold_survives() {
    // The reduction-server matrix cell: the comm dedicates the second
    // node as servers (`tail(1)`), and a *server* rank dies mid-stream.
    // Detection and shrink work exactly as for a client death (servers
    // are members and arrive at the gate); the re-carved comm keeps the
    // tail node as servers, the client fold never loses a contributor,
    // and surviving server buffers pass through untouched.
    let plan = FaultPlan::new().kill_rank(5, SimTime(96_000_000));
    let clients: Vec<usize> = (0..PER_NODE).collect();
    let engine = CollEngine::ReductionServer(RingConfig::default());
    let tag = "killed-server";
    let (stats, got) = run_recovery(engine, &plan, ServerSpec::tail(1), Dur::millis(2.0), LEN, tag);
    assert_eq!(stats.shrinks, 1, "{tag}: the dead server must force exactly one shrink");
    assert_survivors_match(&plan, stats, &got, &clients, &clients, tag);
    // Replay determinism for the offload recovery path.
    let (again, got2) =
        run_recovery(engine, &plan, ServerSpec::tail(1), Dur::millis(2.0), LEN, tag);
    assert_eq!(stats, again, "{tag}: the recovery trace must replay bit-identically");
    assert_eq!(got, got2, "{tag}: the recovered bytes must replay bit-identically");
}

#[test]
fn killed_client_rank_reshapes_the_server_fold() {
    // A *client* of the offload comm dies: the shrunk comm re-carves
    // with the tail node still serving, and iterations after the abort
    // epoch fold over the three surviving clients only.
    let plan = FaultPlan::new().kill_rank(2, SimTime(96_000_000));
    let clients_full: Vec<usize> = (0..PER_NODE).collect();
    let clients_shrunk: Vec<usize> = (0..PER_NODE).filter(|&r| r != 2).collect();
    let engine = CollEngine::ReductionServer(RingConfig::default());
    let tag = "killed-client-of-server-comm";
    let (stats, got) = run_recovery(engine, &plan, ServerSpec::tail(1), Dur::millis(2.0), LEN, tag);
    assert_eq!(stats.shrinks, 1, "{tag}: the dead client must force exactly one shrink");
    assert_survivors_match(&plan, stats, &got, &clients_full, &clients_shrunk, tag);
}

#[test]
fn randomized_kill_plans_replay_bit_identically_on_every_engine() {
    // The full matrix: randomized link faults + stragglers + sampled
    // mid-run rank kills, every engine, each cell run twice. Byte
    // identity against the participation-aware reference and two-run
    // trace identity must hold whether the sampled kills land before,
    // inside, or after the collective stream; across the matrix at
    // least one cell must actually exercise a shrink.
    let probe = Sim::new();
    let world = boot(&probe, &FaultPlan::new());
    let links = all_links(&world);
    drop(probe);
    let prefixes = vec!["rank2".to_string(), "rank5".to_string()];
    // 30 ms compute per iteration stretches the stream over
    // ~[90 ms, 270 ms]; the kill sampler's window is [h/4, 3h/4).
    let horizon = Dur::millis(360.0);
    let compute = Dur::millis(30.0);
    let full: Vec<usize> = (0..NRANKS).collect();
    let mut total_shrinks = 0u32;
    for seed in [11u64, 29, 43] {
        let plan = FaultPlan::randomized(seed, &links, &prefixes, Dur::millis(5.0))
            .randomized_rank_kills(seed, NRANKS as u32, horizon);
        let killed: Vec<u32> = plan.rank_kills().iter().map(|&(r, _)| r).collect();
        let shrunk: Vec<usize> = (0..NRANKS).filter(|&r| !killed.contains(&(r as u32))).collect();
        for engine in engines() {
            let tag = format!("seed {seed} {engine:?} kills {killed:?}");
            let (a, bytes_a) =
                run_recovery(engine, &plan, ServerSpec::default(), compute, LEN, &tag);
            let (b, bytes_b) =
                run_recovery(engine, &plan, ServerSpec::default(), compute, LEN, &tag);
            assert_eq!(a, b, "{tag}: the recovery trace must replay bit-identically");
            assert_eq!(bytes_a, bytes_b, "{tag}: recovered bytes must replay bit-identically");
            assert_survivors_match(&plan, a, &bytes_a, &full, &shrunk, &tag);
            total_shrinks += a.shrinks;
        }
    }
    assert!(total_shrinks > 0, "the sampled matrix never exercised a shrink");
}

#[test]
fn a_kill_mid_collective_aborts_in_flight_and_the_fold_still_holds() {
    // Back-to-back 1 MiB allreduces; rank 3 dies inside the second. The
    // schedule-driven engines abort that collective in flight — the
    // doomed rank had arrived, so it sees the abort too — while Profile,
    // which runs no schedule, keeps the boundary rule and detects at the
    // next gate. Either way the survivors match the participation-aware
    // fold, in one shrink.
    let plan = FaultPlan::new().kill_rank(3, SimTime(90_150_000));
    let full: Vec<usize> = (0..NRANKS).collect();
    let shrunk: Vec<usize> = (0..NRANKS).filter(|&r| r != 3).collect();
    for engine in engines() {
        let tag = format!("kill in flight {engine:?}");
        let (stats, got) =
            run_recovery(engine, &plan, ServerSpec::default(), Dur::ZERO, 1 << 20, &tag);
        assert_eq!((stats.abort_iter, stats.shrinks), (Some(1), 1), "{tag}");
        let in_flight = !matches!(engine, CollEngine::Profile);
        assert_eq!(stats.doomed_saw_abort, in_flight, "{tag}: where the death was detected");
        assert_survivors_match(&plan, stats, &got, &full, &shrunk, &tag);
    }
}

#[test]
fn checkpoint_take_and_restore_charge_the_same_time_in_both_modes() {
    // A CostOnly checkpoint keeps no bytes; its restore is still priced
    // by the buffers' lengths, like its take.
    for mode in [DataMode::Functional, DataMode::CostOnly] {
        let mut sim = Sim::new();
        let spec = ClusterSpec { platform: PlatformSpec::platform_a(), nodes: 1, gpus_per_node: 1 };
        let topo = Arc::new(Topology::build(&sim.handle(), spec));
        let devs = DeviceTable::build(&sim.handle(), topo.clone(), mode, Some(8 << 20));
        let world = FabricWorld::new(topo, devs, 1);
        sim.spawn("rank0", move |ctx| {
            let t0 = ctx.now();
            let ck = Checkpoint::take(ctx, &world, &[(0, 0, 4 << 20), (0, 4 << 20, 1 << 20)], 0);
            let took = ctx.now().since(t0);
            assert!(took > Dur::ZERO, "{mode:?}: a snapshot costs time");
            let t1 = ctx.now();
            ck.restore(ctx, &world);
            assert_eq!(ctx.now().since(t1), took, "{mode:?}: restore charges what take did");
        });
        sim.run().unwrap();
    }
}
