//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a declarative, seed-derived schedule of fabric and
//! compute faults: bandwidth degradation windows and flaps on
//! [`crate::ResourceId`] links, fixed-latency NIC stalls, per-task compute
//! stragglers, and dropped/delayed control messages. Installing a plan
//! ([`crate::Sim::set_fault_plan`]) arms an injector inside the kernel;
//! every resource reservation and task delay then consults it.
//!
//! Determinism is by construction, not by locking: the simulation is
//! sequential, the plan is immutable once installed, and all randomness
//! happens when the plan is *generated* ([`FaultPlan::randomized`], driven
//! by the split-stream RNG in [`crate::rng_for`]) — replay of a given plan
//! is a pure function of the event order, so the same seed yields a
//! bit-identical trace every run.
//!
//! Zero cost when disabled: with no plan installed the only overhead is
//! one `Option` discriminant check per hook, and no virtual timestamp is
//! perturbed — baseline traces are unchanged bit-for-bit.

use std::collections::{BTreeMap, HashMap, VecDeque};

use rand::Rng;

use crate::resource::ResourceId;
use crate::rng::{derive_seed, rng_for};
use crate::task::TaskId;
use crate::time::{Dur, SimTime};

/// What to do with one matched control message (see
/// [`crate::SimHandle::take_ctrl_fault`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtrlFault {
    /// Silently drop the control message. The payload it announced is
    /// unaffected — this models a lost notification, the GASPI failure
    /// mode that timeouts plus `queue_purge` exist to recover from.
    Drop,
    /// Deliver the control message late by this much.
    Delay(Dur),
}

/// One perturbation window on a link resource.
#[derive(Clone, Copy, Debug)]
struct LinkWindow {
    from: SimTime,
    until: SimTime,
    /// Bandwidth scale in thousandths (1000 = nominal). `0` marks the
    /// link *dead* for health reporting; replay clamps it to 1 so an
    /// accidental transfer on a dead link is merely 1000× slow, never an
    /// unbounded hang.
    factor_milli: u32,
    /// Fixed extra delivery latency while the window is active.
    extra: Dur,
    /// Transfers starting inside the window are held until it closes.
    flap: bool,
    /// Window was expanded from a rank-kill event rather than declared
    /// on the link directly. Kill windows replay like any other dead
    /// window but are excluded from whole-run link health
    /// ([`FaultPlan::degraded_links`]): a rank that dies at t is not a
    /// degraded link at build time — it is a *live* rank until t, and
    /// the time-aware rank-kill health path owns that transition.
    rank_kill: bool,
}

impl LinkWindow {
    fn active(&self, t: SimTime) -> bool {
        t >= self.from && t < self.until
    }
}

/// Derive the deterministic key under which a control-message fault is
/// matched. Producers of control messages (e.g. the GPI-2 conduit's
/// notification posts) and fault plans must use the same `(domain, a, b)`
/// triple to meet: the domain string namespaces the protocol, `a`/`b`
/// identify the instance (typically destination rank and notification id).
pub fn fault_key(domain: &str, a: u64, b: u64) -> u64 {
    let mut k = 0xFA_07_5E_ED_u64;
    for &byte in domain.as_bytes() {
        k = derive_seed(k, byte as u64);
    }
    derive_seed(derive_seed(k, a), b)
}

/// A declarative, reproducible schedule of faults.
///
/// Build one with the `degrade_link` / `flap_link` / `stall_nic` /
/// `straggle` / `ctrl_fault` constructors (or sample a whole plan from a
/// seed with [`FaultPlan::randomized`]) and install it with
/// [`crate::Sim::set_fault_plan`] before the run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    // Ordered maps so a plan's Debug form (and hence chaos-test logs)
    // is deterministic for a given construction sequence.
    links: BTreeMap<u32, Vec<LinkWindow>>,
    stragglers: Vec<(String, u32)>,
    ctrl: BTreeMap<u64, Vec<CtrlFault>>,
    /// Mid-run rank deaths: rank → virtual kill time. The sim kernel has
    /// no notion of ranks; layers that do (the fabric) expand each entry
    /// into `[at, ∞)` dead windows over the rank's link resources via
    /// [`crate::SimHandle::arm_rank_kill_windows`].
    rank_kills: BTreeMap<u32, SimTime>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
            && self.stragglers.is_empty()
            && self.ctrl.is_empty()
            && self.rank_kills.is_empty()
    }

    /// Scale a link's bandwidth to `factor_milli`/1000 of nominal inside
    /// `[from, until)`. `factor_milli == 0` additionally marks the link
    /// dead for health reporting ([`FaultPlan::degraded_links`]).
    pub fn degrade_link(
        mut self,
        res: ResourceId,
        from: SimTime,
        until: SimTime,
        factor_milli: u32,
    ) -> FaultPlan {
        assert!(factor_milli <= 1000, "degradation cannot exceed nominal bandwidth");
        self.links.entry(res.0).or_default().push(LinkWindow {
            from,
            until,
            factor_milli,
            extra: Dur::ZERO,
            flap: false,
            rank_kill: false,
        });
        self
    }

    /// Mark a link dead for the whole run: health reports factor 0 and
    /// degradation-aware layers must route around it.
    pub fn kill_link(self, res: ResourceId) -> FaultPlan {
        self.degrade_link(res, SimTime::ZERO, SimTime(u64::MAX), 0)
    }

    /// Block the link inside `[from, until)`: transfers that would start
    /// in the window are held until it closes (link flap / route
    /// reconvergence).
    pub fn flap_link(mut self, res: ResourceId, from: SimTime, until: SimTime) -> FaultPlan {
        self.links.entry(res.0).or_default().push(LinkWindow {
            from,
            until,
            factor_milli: 1000,
            extra: Dur::ZERO,
            flap: true,
            rank_kill: false,
        });
        self
    }

    /// Add `extra` fixed latency to every transfer starting inside
    /// `[from, until)` (a stalled NIC pipeline draining slowly).
    pub fn stall_nic(
        mut self,
        res: ResourceId,
        from: SimTime,
        until: SimTime,
        extra: Dur,
    ) -> FaultPlan {
        self.links.entry(res.0).or_default().push(LinkWindow {
            from,
            until,
            factor_milli: 1000,
            extra,
            flap: false,
            rank_kill: false,
        });
        self
    }

    /// Slow every `Ctx::delay` of tasks whose name starts with `prefix`
    /// by `factor_milli`/1000 (e.g. 1500 = a 1.5× compute straggler).
    pub fn straggle(mut self, prefix: impl Into<String>, factor_milli: u32) -> FaultPlan {
        assert!(factor_milli >= 1000, "a straggler can only be slower than nominal");
        self.stragglers.push((prefix.into(), factor_milli));
        self
    }

    /// Schedule `fault` for the next unconsumed control message matching
    /// `key` (see [`fault_key`]). Multiple faults on the same key are
    /// consumed in registration order, one per matching message.
    pub fn ctrl_fault(mut self, key: u64, fault: CtrlFault) -> FaultPlan {
        self.ctrl.entry(key).or_default().push(fault);
        self
    }

    /// Kill `rank` at virtual time `at`: from that instant every one of
    /// the rank's NICs and queues is dead. The kernel replays the death
    /// as `[at, ∞)` dead windows over the rank's link resources (expanded
    /// by the fabric, which knows the rank → resource map); health layers
    /// report the rank `Dead` only once the clock
    /// reaches `at` — a doomed rank is healthy until its kill time.
    /// Killing the same rank twice keeps the earlier time.
    pub fn kill_rank(mut self, rank: u32, at: SimTime) -> FaultPlan {
        let e = self.rank_kills.entry(rank).or_insert(at);
        *e = (*e).min(at);
        self
    }

    /// The virtual time at which the plan kills `rank`, if it does.
    pub fn kill_time(&self, rank: u32) -> Option<SimTime> {
        self.rank_kills.get(&rank).copied()
    }

    /// Every rank the plan kills, with its kill time (ordered by rank).
    pub fn rank_kills(&self) -> Vec<(u32, SimTime)> {
        self.rank_kills.iter().map(|(&r, &t)| (r, t)).collect()
    }

    /// Every link the plan touches, with its worst factor over the run
    /// (ordered by resource id). Health vectors are built from this.
    /// Windows expanded from rank-kill events are excluded: rank death
    /// is reported time-aware through [`FaultPlan::kill_time`], not as a
    /// whole-run link degradation.
    pub fn degraded_links(&self) -> Vec<(ResourceId, u32)> {
        self.links
            .iter()
            .filter_map(|(&r, ws)| {
                let ws: Vec<_> = ws.iter().filter(|w| !w.rank_kill).collect();
                if ws.is_empty() {
                    return None;
                }
                Some((ResourceId(r), ws.iter().map(|w| w.factor_milli).min().unwrap_or(1000)))
            })
            .collect()
    }

    /// The straggle factor (milli) the plan assigns to a task name, if any.
    pub(crate) fn straggle_factor_milli(&self, name: &str) -> Option<u32> {
        self.stragglers.iter().find(|(p, _)| name.starts_with(p.as_str())).map(|&(_, f)| f)
    }

    /// Sample a randomized plan from a seed: for each candidate link,
    /// independent chances of a degradation window, a flap, and a stall
    /// inside `[0, horizon)`; optionally one straggler drawn from
    /// `straggle_prefixes`. All draws come from the split-stream RNG, so
    /// the same `(seed, links, prefixes, horizon)` yields the same plan.
    pub fn randomized(
        seed: u64,
        links: &[ResourceId],
        straggle_prefixes: &[String],
        horizon: Dur,
    ) -> FaultPlan {
        let mut plan = FaultPlan::new();
        let h = horizon.as_nanos().max(2);
        for (i, &res) in links.iter().enumerate() {
            let mut rng = rng_for(seed, i as u64);
            if rng.gen_bool(0.4) {
                let from = rng.gen_range(0..h / 2);
                let until = rng.gen_range(from + 1..h + 1);
                let factor = rng.gen_range(200u32..951);
                plan = plan.degrade_link(res, SimTime(from), SimTime(until), factor);
            }
            if rng.gen_bool(0.2) {
                let from = rng.gen_range(0..h / 2);
                let until = rng.gen_range(from + 1..(from + h / 4).max(from + 2));
                plan = plan.flap_link(res, SimTime(from), SimTime(until));
            }
            if rng.gen_bool(0.2) {
                let from = rng.gen_range(0..h / 2);
                let until = rng.gen_range(from + 1..h + 1);
                let extra = Dur::nanos(rng.gen_range(100u64..50_000));
                plan = plan.stall_nic(res, SimTime(from), SimTime(until), extra);
            }
        }
        let mut rng = rng_for(seed, 0x57A6);
        if !straggle_prefixes.is_empty() && rng.gen_bool(0.5) {
            let which = rng.gen_range(0..straggle_prefixes.len());
            let factor = rng.gen_range(1100u32..2501);
            plan = plan.straggle(straggle_prefixes[which].clone(), factor);
        }
        plan
    }

    /// Optionally extend a plan with randomized mid-run rank kills: each
    /// rank in `1..nranks` is killed with probability 0.2 at a uniform
    /// time inside `[horizon/4, 3·horizon/4)`, capped at `nranks / 2`
    /// kills so a survivor majority always remains. Rank 0 is never
    /// sampled — a deterministic anchor for result collection. Draws
    /// come from a split RNG stream disjoint from
    /// [`FaultPlan::randomized`]'s, so chaining this onto a randomized
    /// plan leaves the link/straggler sample for the same seed unchanged
    /// — existing seeded chaos suites replay bit-identically unless a
    /// caller opts in.
    pub fn randomized_rank_kills(mut self, seed: u64, nranks: u32, horizon: Dur) -> FaultPlan {
        let h = horizon.as_nanos().max(4);
        let mut killed = 0u32;
        for rank in 1..nranks {
            let mut rng = rng_for(seed, derive_seed(0x4B11, rank as u64));
            if killed >= nranks / 2 {
                break;
            }
            if rng.gen_bool(0.2) {
                let at = rng.gen_range(h / 4..h * 3 / 4);
                self = self.kill_rank(rank, SimTime(at));
                killed += 1;
            }
        }
        self
    }
}

/// Combined perturbation for one reservation: hold the start until
/// `not_before`, scale bandwidth by `factor_milli`/1000, add `extra`
/// delivery latency.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Perturb {
    pub(crate) not_before: SimTime,
    pub(crate) factor_milli: u32,
    pub(crate) extra: Dur,
}

/// Kernel-side injector state: the installed plan plus replay bookkeeping.
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Per-task straggle factor (milli), resolved once at spawn.
    task_factor: HashMap<u32, u32>,
    /// Remaining control-fault charges, consumed FIFO per key.
    ctrl_left: HashMap<u64, VecDeque<CtrlFault>>,
    /// Perturbations applied so far (diagnostics / tests).
    pub(crate) injected: u64,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> FaultState {
        let ctrl_left = plan.ctrl.iter().map(|(&k, v)| (k, v.iter().copied().collect())).collect();
        FaultState { plan, task_factor: HashMap::new(), ctrl_left, injected: 0 }
    }

    /// The installed plan (immutable once armed, except for rank-kill
    /// window expansion at fabric build — see
    /// [`FaultState::extend_kill_windows`]).
    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Expand rank-kill events into `[at, ∞)` dead windows over concrete
    /// link resources. Called by the fabric (via
    /// [`crate::SimHandle::arm_rank_kill_windows`]) at build time, before
    /// any transfer consults the plan, so determinism is unaffected: the
    /// expansion is itself a pure function of the plan and the topology.
    pub(crate) fn extend_kill_windows(&mut self, windows: &[(ResourceId, SimTime)]) {
        for &(res, at) in windows {
            self.plan.links.entry(res.0).or_default().push(LinkWindow {
                from: at,
                until: SimTime(u64::MAX),
                factor_milli: 0,
                extra: Dur::ZERO,
                flap: false,
                rank_kill: true,
            });
        }
    }

    /// Resolve and cache the straggle factor for a task at spawn time.
    pub(crate) fn resolve_task(&mut self, task: TaskId, name: &str) {
        if let Some(f) = self.plan.straggle_factor_milli(name) {
            self.task_factor.insert(task.0, f);
        }
    }

    /// Scale a task-local compute delay by the task's straggle factor.
    pub(crate) fn scale_delay(&self, task: TaskId, d: Dur) -> Dur {
        match self.task_factor.get(&task.0) {
            Some(&f) => Dur::nanos((d.as_nanos() as u128 * f as u128 / 1000) as u64),
            None => d,
        }
    }

    /// The perturbation active for a reservation on `res` whose earliest
    /// start estimate is `start`, or `None` when no window matches.
    pub(crate) fn perturb(&mut self, res: ResourceId, start: SimTime) -> Option<Perturb> {
        let ws = self.plan.links.get(&res.0)?;
        let mut p = Perturb { not_before: SimTime::ZERO, factor_milli: 1000, extra: Dur::ZERO };
        let mut hit = false;
        for w in ws {
            if !w.active(start) {
                continue;
            }
            hit = true;
            if w.flap {
                p.not_before = p.not_before.max(w.until);
            }
            // Dead links (factor 0) replay as 1000× slow, never infinite.
            p.factor_milli = p.factor_milli.min(w.factor_milli.max(1));
            p.extra += w.extra;
        }
        if hit {
            self.injected += 1;
            Some(p)
        } else {
            None
        }
    }

    /// Consume one control-fault charge for `key`, if any remain.
    pub(crate) fn take_ctrl(&mut self, key: u64) -> Option<CtrlFault> {
        let f = self.ctrl_left.get_mut(&key)?.pop_front();
        if f.is_some() {
            self.injected += 1;
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(i: u32) -> ResourceId {
        ResourceId(i)
    }

    #[test]
    fn degraded_links_report_the_worst_factor_and_dead_links() {
        let plan = FaultPlan::new()
            .degrade_link(rid(0), SimTime(0), SimTime(100), 400)
            .degrade_link(rid(0), SimTime(200), SimTime(300), 700)
            .kill_link(rid(1));
        // rid(2) is never degraded, so it is absent (nominal).
        assert_eq!(plan.degraded_links(), vec![(rid(0), 400), (rid(1), 0)]);
    }

    #[test]
    fn perturb_combines_overlapping_windows() {
        let plan = FaultPlan::new()
            .degrade_link(rid(0), SimTime(0), SimTime(100), 500)
            .flap_link(rid(0), SimTime(10), SimTime(40))
            .stall_nic(rid(0), SimTime(0), SimTime(100), Dur::nanos(7));
        let mut st = FaultState::new(plan);
        let p = st.perturb(rid(0), SimTime(20)).unwrap();
        assert_eq!(p.not_before, SimTime(40));
        assert_eq!(p.factor_milli, 500);
        assert_eq!(p.extra, Dur::nanos(7));
        // Outside every window: no perturbation at all.
        assert!(st.perturb(rid(0), SimTime(200)).is_none());
        assert_eq!(st.injected, 1);
    }

    #[test]
    fn dead_link_replays_finite() {
        let mut st = FaultState::new(FaultPlan::new().kill_link(rid(3)));
        let p = st.perturb(rid(3), SimTime(5)).unwrap();
        assert_eq!(p.factor_milli, 1, "dead link must replay 1000x slow, not hang");
    }

    #[test]
    fn ctrl_faults_consume_fifo_per_key() {
        let k = fault_key("gpi-notify", 3, 17);
        let plan = FaultPlan::new()
            .ctrl_fault(k, CtrlFault::Drop)
            .ctrl_fault(k, CtrlFault::Delay(Dur::nanos(50)));
        let mut st = FaultState::new(plan);
        assert_eq!(st.take_ctrl(k), Some(CtrlFault::Drop));
        assert_eq!(st.take_ctrl(k), Some(CtrlFault::Delay(Dur::nanos(50))));
        assert_eq!(st.take_ctrl(k), None, "charges are finite");
        assert_eq!(st.take_ctrl(fault_key("gpi-notify", 3, 18)), None);
    }

    #[test]
    fn fault_key_separates_domains_and_instances() {
        assert_ne!(fault_key("a", 0, 0), fault_key("b", 0, 0));
        assert_ne!(fault_key("a", 1, 0), fault_key("a", 0, 1));
    }

    #[test]
    fn straggle_matches_by_prefix_at_spawn() {
        let plan = FaultPlan::new().straggle("diomp-rank1", 1500);
        let mut st = FaultState::new(plan);
        st.resolve_task(TaskId(0), "diomp-rank1");
        st.resolve_task(TaskId(1), "diomp-rank2");
        assert_eq!(st.scale_delay(TaskId(0), Dur::nanos(1000)), Dur::nanos(1500));
        assert_eq!(st.scale_delay(TaskId(1), Dur::nanos(1000)), Dur::nanos(1000));
    }

    #[test]
    fn rank_kills_keep_earliest_time_and_arm_the_plan() {
        let plan = FaultPlan::new()
            .kill_rank(3, SimTime(500))
            .kill_rank(3, SimTime(900))
            .kill_rank(1, SimTime(200));
        assert!(!plan.is_empty(), "a kill-only plan must arm the injector");
        assert_eq!(plan.kill_time(3), Some(SimTime(500)), "earlier kill wins");
        assert_eq!(plan.kill_time(0), None);
        assert_eq!(plan.rank_kills(), vec![(1, SimTime(200)), (3, SimTime(500))]);
    }

    #[test]
    fn kill_windows_replay_dead_but_hide_from_link_health() {
        let mut st = FaultState::new(FaultPlan::new().kill_rank(2, SimTime(100)));
        st.extend_kill_windows(&[(rid(7), SimTime(100))]);
        // Before the kill instant the link is untouched.
        assert!(st.perturb(rid(7), SimTime(50)).is_none());
        // After it, transfers replay 1000× slow (finite, like kill_link).
        assert_eq!(st.perturb(rid(7), SimTime(150)).unwrap().factor_milli, 1);
        // Whole-run link health never sees the expansion: the rank was
        // live until t=100, so build-time health must not report a dead
        // link — only the time-aware rank-kill path reports the death.
        assert!(st.plan().degraded_links().is_empty());
    }

    #[test]
    fn randomized_rank_kills_replay_by_seed_and_spare_rank_zero() {
        let links: Vec<ResourceId> = (0..8).map(rid).collect();
        let base = FaultPlan::randomized(7, &links, &[], Dur::millis(10.0));
        let a = base.clone().randomized_rank_kills(7, 8, Dur::millis(10.0));
        let b = base.clone().randomized_rank_kills(7, 8, Dur::millis(10.0));
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed, same kills");
        // Opt-in: not chaining the sampler leaves the plan untouched.
        assert!(base.rank_kills().is_empty());
        // Over many seeds: rank 0 is never killed and a majority survives.
        let mut any = false;
        for seed in 0..64u64 {
            let p = FaultPlan::new().randomized_rank_kills(seed, 8, Dur::millis(10.0));
            let kills = p.rank_kills();
            any |= !kills.is_empty();
            assert!(p.kill_time(0).is_none(), "rank 0 is the deterministic anchor");
            assert!(kills.len() as u32 <= 4, "at most nranks/2 kills");
        }
        assert!(any, "the sampler should kill something across 64 seeds");
    }

    #[test]
    fn randomized_plans_are_seed_deterministic() {
        let links: Vec<ResourceId> = (0..8).map(rid).collect();
        let prefixes = vec!["rank".to_string()];
        let a = FaultPlan::randomized(42, &links, &prefixes, Dur::millis(10.0));
        let b = FaultPlan::randomized(42, &links, &prefixes, Dur::millis(10.0));
        let c = FaultPlan::randomized(43, &links, &prefixes, Dur::millis(10.0));
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed, same plan");
        assert_ne!(format!("{a:?}"), format!("{c:?}"), "different seed, different plan");
        assert!(!a.is_empty() || !c.is_empty(), "plans should usually inject something");
    }
}
