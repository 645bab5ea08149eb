//! Periodic chunk schedules and their drivers.
//!
//! The LL, ring, DBT and reduction-server generators all compile their
//! collective into one [`Schedule`]: chunk sends, each pinned to a
//! per-edge FIFO *lane*, enabled by the *arrival* of zero or more
//! upstream sends, and bounded by a per-lane in-flight window. The
//! schedule is a **generator, not a table**: an engine emits
//! [`Segment`]s — *one period* of sends with the dependencies that point
//! into the same or the previous period, a repeat count, and the wire
//! bytes of the repeats that differ (a short last chunk, or ring tokens
//! of unequal size rotating one edge per repeat) — and send
//! `(segment, repeat, j)` is addressed by index arithmetic. A pipelined
//! collective repeats one chunk's traversal per chunk (DBT, broadcast,
//! reduce) or one hop row per hop (allgather, ring allreduce), so it
//! stores one period however many chunks flow; a schedule with no such
//! structure is a segment with one repeat, through the same code. A lane
//! belongs to exactly one segment and serves its sends repeat-major, in
//! emission order within a repeat.
//!
//! [`Schedule::drive`] runs it under one of two drivers:
//!
//! * the **explicit** driver: every chunk is a live kernel transfer
//!   posted to one completion queue with its tag, and the progress loop
//!   parks on the queue ([`Ctx::wait_cq`]) — O(1) per park, however many
//!   chunks are in flight. This is the reference semantics (and the only
//!   driver that supports an armed contention model, whose weighted-fair
//!   queues reorder completions at runtime).
//! * the **coalesced** driver: the identical schedule is priced
//!   arithmetically against the live link resources (same reservation
//!   arithmetic, same rounding, same fault perturbation) under one borrow
//!   of the kernel state ([`diomp_sim::Reservations`]), its pending
//!   arrivals queued by instant ([`Arrivals`]), and the collective
//!   collapses to one coalesced wake entry carrying the chunk count. Once
//!   the march state recurs shifted by one time ([`Jump`]), it charges
//!   the repeats up to the last but one at once. Virtual time,
//!   per-resource watermarks and flow statistics are bit-identical to the
//!   explicit driver — `tests/fastpath.rs` pins this, and the periodic
//!   form against its own unrolling, across engines, sizes and faults.
//!
//! Both drivers act only at *arrival instants* — and, under a bounded
//! [`Watch`], at the deadline wakes between them — and share one
//! **event-driven issue pass** ([`March`]).
//!
//! [`Schedule::price`] runs the coalesced driver's march against a
//! throwaway kernel that holds only the priced links, so the price
//! `CollEngine::Auto` compares regimes by is an idle-link run, not a
//! model of one.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use diomp_sim::{Ctx, Dur, FlowId, Reservations, ResourceId, Sim, SimTime, Wait};

/// "No send" / "no lane" in the intrusive `u32` lists below.
const NONE: u32 = u32::MAX;

/// Flag on a dependency index: the send sits in the *previous* period.
const PREV: u32 = 1 << 31;

/// The longest cycle, in repeats, a [`Jump`] looks for.
const MAX_CYCLE: u32 = 8;

/// One chunk transfer as the drivers see it: the link resource it
/// occupies, its FIFO lane, its wire bytes (payload already scaled by
/// the edge's link efficiency), and the QoS flow the transfer is
/// charged to.
#[derive(Clone, Copy)]
pub(crate) struct ChunkSend {
    pub(crate) res: ResourceId,
    pub(crate) lane: u32,
    pub(crate) wire: u64,
    pub(crate) flow: FlowId,
}

/// How the runner's parks end (DESIGN.md D17): the caller's wait
/// discipline and the instant a member death becomes confirmable.
/// [`Wait::Block`] parks never expire. Under [`Wait::Until`] every park
/// that waits for an arrival is bounded by the budget; one that expires
/// runs the `gaspi_state_vec` probe, which confirms a death once `doom` —
/// the earliest kill time of any member — has passed, and otherwise
/// re-parks for another budget.
#[derive(Clone, Copy)]
pub(crate) struct Watch {
    pub(crate) wait: Wait,
    pub(crate) doom: Option<SimTime>,
}

impl Watch {
    /// Does a probe at `t` confirm a member death?
    pub(crate) fn confirms(&self, t: SimTime) -> bool {
        self.doom.is_some_and(|k| k <= t)
    }

    /// The deadline wake that aborts a park begun at `from` when nothing
    /// arrives before `until`: the first of `from + m·budget`, `m ≥ 1`,
    /// strictly before `until` at which the probe confirms a death. (An
    /// arrival at the deadline instant itself wins: its completion was
    /// queued before the park's timer.) The `m`-th deadline follows the
    /// kernel's own rule ([`Wait::deadline`]): one past the end of time
    /// never fires, exactly as the explicit driver's park then blocks.
    fn abort_in(&self, from: SimTime, until: SimTime) -> Option<SimTime> {
        let budget = self.wait.budget()?.as_nanos().max(1);
        let doom = self.doom?;
        let m = doom.nanos().saturating_sub(from.nanos()).div_ceil(budget).max(1);
        let at = Wait::Until(Dur::nanos(m.saturating_mul(budget))).deadline(from)?;
        (at < until).then_some(at)
    }
}

/// The link rates a [`Schedule::price`] runs on, by resource index:
/// bandwidth in bytes per ns and delivery latency — the numbers the
/// kernel's FIFO resources were built with, from which the price builds
/// its own idle copies.
pub(crate) struct Links(Vec<(f64, Dur)>);

impl Links {
    pub(crate) fn new() -> Self {
        Links(Vec::new())
    }

    pub(crate) fn set(&mut self, res: ResourceId, bytes_per_ns: f64, latency: Dur) {
        let i = res.index();
        if self.0.len() <= i {
            self.0.resize(i + 1, (1.0, Dur::ZERO));
        }
        self.0[i] = (bytes_per_ns, latency);
    }
}

/// Wire bytes of a `bytes`-byte chunk on an edge that achieves `eff` of
/// its link's raw bandwidth.
pub(crate) fn wire_bytes(bytes: u64, eff: f64) -> u64 {
    ((bytes as f64 / eff).ceil() as u64).max(1)
}

/// A dependency on send `j` of the previous period (ignored by the
/// first repeat, which has none).
pub(crate) fn prev_period(j: u32) -> u32 {
    j | PREV
}

/// One period of a schedule and how often it repeats. Sends are indexed
/// by emission order within the period; dependency rows are in
/// compressed-sparse-row form (row `j` lists the sends, of this or the
/// previous period, whose *arrival* enables send `j`).
#[derive(Clone)]
pub(crate) struct Segment {
    sends: Vec<ChunkSend>,
    dep_off: Vec<u32>,
    dep_idx: Vec<u32>,
    reps: u32,
    /// The wire bytes of send `j` in variant `v ≥ 1` (variant 0 is
    /// `sends[j].wire`): `alt[j·nalt + v − 1]`. A short final repeat
    /// moves variant 1; a rotating segment, the variant of its token.
    alt: Vec<u64>,
    nalt: u32,
    /// Rotating ring tokens (`group > 0`): send `j` of repeat `k` carries
    /// token `(j / group − k) mod class.len()`, of variant `class[token]`.
    group: u32,
    class: Vec<u8>,
    /// Per send: the next send of the period on the same lane (`NONE` at
    /// the lane's last). Threaded by [`Schedule::add`].
    lane_next: Vec<u32>,
    /// Global index of send `(0, 0)`; `(rep, j)` is `base + rep·P + j`.
    base: u32,
    /// Key of send `j` of every repeat: `pbase + j`, an index into
    /// [`Schedule::key_lane`].
    pbase: u32,
}

impl Segment {
    /// An empty period that will run `reps` times.
    pub(crate) fn new(reps: u64) -> Self {
        Segment {
            sends: Vec::new(),
            dep_off: vec![0],
            dep_idx: Vec::new(),
            reps: u32::try_from(reps).expect("repeat count fits u32"),
            alt: Vec::new(),
            nalt: 0,
            group: 0,
            class: Vec::new(),
            lane_next: Vec::new(),
            base: 0,
            pbase: 0,
        }
    }

    /// An empty period of rotating ring tokens, `group` sends each.
    pub(crate) fn rotating(reps: u64, group: u32, class: Vec<u8>) -> Self {
        Segment { group, class, ..Segment::new(reps) }
    }

    /// Append a send to the period, enabled by the arrival of every send
    /// in `deps`: period-local indices of sends emitted earlier, or
    /// [`prev_period`] of any index. `alt` is the send's wire bytes in
    /// variants `1..` — the short final repeat's, or the other token
    /// sizes of a rotating segment — as many for every send. Returns the
    /// local index.
    pub(crate) fn push(
        &mut self,
        send: ChunkSend,
        alt: &[u64],
        deps: impl IntoIterator<Item = u32>,
    ) -> u32 {
        let j = self.sends.len() as u32;
        self.sends.push(send);
        self.alt.extend_from_slice(alt);
        self.dep_idx.extend(deps);
        self.dep_off.push(self.dep_idx.len() as u32);
        j
    }

    /// Sends per period.
    pub(crate) fn period(&self) -> usize {
        self.sends.len()
    }

    #[inline]
    fn deps(&self, j: u32) -> &[u32] {
        &self.dep_idx[self.dep_off[j as usize] as usize..self.dep_off[j as usize + 1] as usize]
    }

    /// Wire bytes of send `j` in repeat `rep`.
    #[inline]
    fn wire(&self, rep: u32, j: u32) -> u64 {
        let v = match self.group {
            0 => u32::from(rep + 1 == self.reps && self.nalt > 0),
            group => {
                let n = self.class.len() as u32;
                let token = j / group + n - rep % n;
                u32::from(self.class[(if token >= n { token - n } else { token }) as usize])
            }
        };
        match v {
            0 => self.sends[j as usize].wire,
            v => self.alt[j as usize * self.nalt as usize + v as usize - 1],
        }
    }
}

/// A compiled collective: periodic segments over a fixed set of FIFO
/// lanes.
#[derive(Clone)]
pub(crate) struct Schedule {
    segs: Vec<Segment>,
    /// Per lane: the segment that owns it (`NONE` while it has no send)
    /// and its first send within the period.
    lane_seg: Vec<u32>,
    lane_first: Vec<u32>,
    /// Per stored send — its *key*, shared by all its repeats — the lane
    /// it runs on.
    key_lane: Vec<u32>,
    /// Total sends, every repeat counted.
    total: u32,
}

impl Schedule {
    /// An empty schedule over `nlanes` FIFO lanes.
    pub(crate) fn new(nlanes: usize) -> Self {
        Schedule {
            segs: Vec::new(),
            lane_seg: vec![NONE; nlanes],
            lane_first: vec![NONE; nlanes],
            key_lane: Vec::new(),
            total: 0,
        }
    }

    /// Append a segment (an empty one is dropped). Its lanes must not
    /// appear in any other segment.
    pub(crate) fn add(&mut self, mut seg: Segment) {
        let p = seg.sends.len();
        if p == 0 || seg.reps == 0 {
            return;
        }
        assert_eq!(seg.alt.len() % p, 0, "partial wire variant row");
        seg.nalt = (seg.alt.len() / p) as u32;
        assert!(seg.group > 0 || seg.nalt <= 1, "one short repeat at most");
        let sends = p as u64 * u64::from(seg.reps);
        let total = u64::from(self.total) + sends;
        assert!(p < PREV as usize && total < u64::from(NONE), "schedule exceeds u32 send indices");
        let si = self.segs.len() as u32;
        // Thread each lane's sends back to front, so no tail is needed.
        seg.lane_next = vec![NONE; p];
        for (j, s) in seg.sends.iter().enumerate().rev() {
            let lane = s.lane as usize;
            match self.lane_seg[lane] {
                NONE => self.lane_seg[lane] = si,
                owner => assert_eq!(owner, si, "lane {lane} spans two segments"),
            }
            seg.lane_next[j] = std::mem::replace(&mut self.lane_first[lane], j as u32);
        }
        seg.base = self.total;
        seg.pbase = self.key_lane.len() as u32;
        self.key_lane.extend(seg.sends.iter().map(|s| s.lane));
        self.total = total as u32;
        self.segs.push(seg);
    }

    /// Number of sends the schedule runs, every repeat counted.
    pub(crate) fn len(&self) -> usize {
        self.total as usize
    }

    /// Sends held in memory: one period per segment.
    #[cfg(test)]
    pub(crate) fn stored(&self) -> usize {
        self.segs.iter().map(Segment::period).sum()
    }

    /// The same sends as single-repeat segments: every period written
    /// out, every dependency an explicit index. This is the table the
    /// periodic form replaces, kept as its differential reference
    /// ([`diomp_sim::Sim::force_unrolled_schedules`]).
    fn unrolled(&self) -> Schedule {
        let mut out = Schedule::new(self.lane_seg.len());
        for seg in &self.segs {
            let p = seg.sends.len() as u32;
            let mut flat = Segment::new(1);
            for rep in 0..seg.reps {
                for (j, s) in seg.sends.iter().enumerate() {
                    let j = j as u32;
                    let deps = seg.deps(j).iter().filter_map(|&d| match d & PREV {
                        0 => Some(rep * p + d),
                        _ => rep.checked_sub(1).map(|r| r * p + (d & !PREV)),
                    });
                    flat.push(ChunkSend { wire: seg.wire(rep, j), ..*s }, &[], deps);
                }
            }
            out.add(flat);
        }
        out
    }

    /// What the schedule takes on idle links, from time zero to the last
    /// arrival — the one price `CollEngine::Auto` compares regimes by.
    /// It is the coalesced driver's own [`Schedule::march`], jump
    /// included, run under [`Wait::Block`] against a throwaway kernel
    /// that holds only the priced links: one resource per [`Links`]
    /// entry in index order, so every [`ChunkSend::res`] names its own,
    /// and a fresh flow per flow the schedule charges.
    pub(crate) fn price(&self, links: &Links, window: usize, step: Dur) -> Dur {
        let h = Sim::new().handle();
        for &(bytes_per_ns, latency) in &links.0 {
            h.new_resource(bytes_per_ns, latency);
        }
        let flows = self.flows();
        let fresh: Vec<FlowId> = flows.iter().map(|_| h.new_flow(1000)).collect();
        let mut idle = self.clone();
        for s in idle.segs.iter_mut().flat_map(|seg| &mut seg.sends) {
            s.flow = fresh[flows.iter().position(|&f| f == s.flow).expect("a listed flow")];
        }
        let block = Watch { wait: Wait::Block, doom: None };
        let (end, _) = idle.march(&mut h.reserve(), SimTime::ZERO, window, step, block, true);
        end.expect("a blocking march never aborts") - SimTime::ZERO
    }

    /// Drive the schedule to completion in the calling task's context:
    /// a lane head is issued once every dependency has arrived and the
    /// lane has a free slot (`window`), charging `step_d` of per-chunk
    /// processing before the wire bytes occupy the resource.
    ///
    /// Takes the coalesced driver unless armed contention forces the
    /// explicit one: the weighted-fair queues re-price in-service
    /// transfers whenever the backlogged flow set changes, which only
    /// per-chunk completions model. An armed *fault plan* does not: its windows
    /// perturb the march through the same kernel path.
    /// [`diomp_sim::Sim::force_explicit_schedules`] pins the explicit
    /// driver for the equivalence tests and the bench gate's reference
    /// arms.
    ///
    /// Under a bounded `watch` both drivers take the same deadline wakes,
    /// and the first that confirms a death abandons the march there:
    /// `Err` carries that instant, and whatever is still in flight is
    /// left to drain (explicit: its queue released and its flows purged)
    /// without the caller.
    pub(crate) fn drive(
        &self,
        ctx: &mut Ctx,
        window: usize,
        step_d: Dur,
        watch: Watch,
    ) -> Result<(), SimTime> {
        let unrolled;
        let sched = if ctx.unrolled_schedules_forced() {
            unrolled = self.unrolled();
            &unrolled
        } else {
            self
        };
        if ctx.contention_armed() || ctx.explicit_schedules_forced() {
            sched.drive_explicit(ctx, window, step_d, watch)
        } else {
            sched.drive_fast(ctx, window, step_d, watch)
        }
    }

    /// The explicit driver: every chunk is posted to one completion
    /// queue tagged `(send << 32) | key`, and each park waits on the queue
    /// ([`Ctx::wait_cq`]) — O(1) work and one wake per park, however many
    /// chunks are in flight, and no event per chunk.
    ///
    /// Each chunk is charged to its own [`ChunkSend::flow`] (a server's
    /// fan-back to the communicator's server flow), so that under armed
    /// contention concurrent collectives fair-share each link by QoS
    /// weight; disarmed, the charge is a plain FIFO `transfer_from`.
    ///
    /// An abort issues nothing more, releases the queue — a chunk still in
    /// flight lands, but its tag is dropped — and purges the schedule's
    /// flows from the armed fair queues (`gaspi_queue_purge`), so no
    /// abandoned chunk keeps a share of a live link.
    fn drive_explicit(
        &self,
        ctx: &mut Ctx,
        window: usize,
        step_d: Dur,
        watch: Watch,
    ) -> Result<(), SimTime> {
        let mut march = March::new(self, window);
        let cq = ctx.open_cq();
        let mut inflight = 0;
        let mut landed = Vec::new();
        loop {
            let ready = ctx.now() + step_d;
            march.issue_pass(|si, key, s, wire| {
                let tag = u64::from(si) << 32 | u64::from(key);
                ctx.handle().transfer_qos(s.res, s.flow, ready, wire, (cq, tag));
                inflight += 1;
            });
            if inflight == 0 {
                break;
            }
            while ctx.wait_cq(cq, watch.wait).is_err() {
                if watch.confirms(ctx.now()) {
                    ctx.release_cq(cq);
                    for flow in self.flows() {
                        ctx.purge_flow(flow);
                    }
                    return Err(ctx.now());
                }
            }
            // Retire everything that landed by this wake. Order within the
            // instant is free: the next issue pass visits its candidate
            // lanes in lane order whatever order they were marked in.
            ctx.drain_cq(cq, &mut landed);
            inflight -= landed.len();
            for tag in landed.drain(..) {
                march.retire((tag >> 32) as u32, tag as u32);
            }
        }
        ctx.release_cq(cq);
        march.assert_drained();
        Ok(())
    }

    /// Every flow the schedule charges, each once.
    fn flows(&self) -> Vec<FlowId> {
        let mut flows: Vec<FlowId> = Vec::new();
        for s in self.segs.iter().flat_map(|seg| &seg.sends) {
            if !flows.contains(&s.flow) {
                flows.push(s.flow);
            }
        }
        flows
    }

    /// The coalesced driver: [`Schedule::march`] from the current
    /// instant under one borrow of the kernel state, whose clock stays
    /// frozen meanwhile, then one [`Ctx::sleep_until_coalesced`] wake
    /// carrying the chunk count. The [`Jump`] skips a rigid period's
    /// repeats unless a fault plan is armed (a degradation window breaks
    /// the shift).
    fn drive_fast(
        &self,
        ctx: &mut Ctx,
        window: usize,
        step_d: Dur,
        watch: Watch,
    ) -> Result<(), SimTime> {
        // Read before `reserve` borrows the kernel state: both borrow it
        // too, and would panic under the `Reservations` borrow.
        let (t, fault_armed) = (ctx.now(), ctx.fault_armed());
        debug_assert!(watch.doom.is_none() || fault_armed, "a doom comes from an armed plan");
        let (end, issued) =
            self.march(&mut ctx.handle().reserve(), t, window, step_d, watch, !fault_armed);
        ctx.sleep_until_coalesced(end.unwrap_or_else(|at| at), issued as u64);
        end.map(drop)
    }

    /// The coalesced march from `t`: an arithmetic replay of the explicit
    /// driver's decisions. The [`Arrivals`] queue stands in for the
    /// kernel's event queue; each issue reserves the link through
    /// [`diomp_sim::Reservations::transfer_flow`] — the explicit path's
    /// serialisation, rounding, fault windows and flow accounting, minus
    /// the queue post. Returns the last arrival instant and the sends issued
    /// (every one, skipped repeats counted).
    ///
    /// A bounded `watch` is replayed from the gap before each instant:
    /// where the explicit driver's park would expire and its probe
    /// confirm a death ([`Watch::abort_in`]), the march stops with exactly
    /// the reservations the explicit driver had issued by then, and `Err`
    /// carries that instant. A [`Jump`] runs only if `may_jump`.
    fn march(
        &self,
        rsv: &mut Reservations,
        mut t: SimTime,
        window: usize,
        step_d: Dur,
        watch: Watch,
        may_jump: bool,
    ) -> (Result<SimTime, SimTime>, usize) {
        let mut march = March::new(self, window);
        let mut arrivals = Arrivals::new();
        let mut jump = may_jump.then(|| Jump::new(self)).flatten();
        let aborted = loop {
            let ready = t + step_d;
            march.issue_pass(|si, key, s, wire| {
                let tr = rsv.transfer_flow(s.res, s.flow, ready, wire);
                arrivals.push(tr.arrive, si, key);
            });
            jump.take_if(|j| j.boundary(&mut march, &mut arrivals, rsv, &mut t));
            let Some(next) = arrivals.next_instant() else { break None };
            if let Some(at) = watch.abort_in(t, next) {
                break Some(at);
            }
            // Retire every arrival of the next instant, exactly as the
            // explicit loop retires every tag posted by its wake instant.
            arrivals.pop_instant(|si, key| march.retire(si, key));
            t = next;
        };
        #[cfg(test)]
        MARCHED.set(march.issued - march.skip as usize * self.stored());
        if let Some(at) = aborted {
            return (Err(at), march.issued);
        }
        march.assert_drained();
        (Ok(t), march.issued)
    }
}

#[cfg(test)]
thread_local! {
    /// Sends the last coalesced march on this thread issued one by one.
    static MARCHED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The coalesced driver's jump over a rigid period (DESIGN.md D18). The
/// march state after an issue pass — the instant; per lane its cursor,
/// in-flight count and parked-on send; the pending arrivals; its links'
/// `free_at` — decides all it does next. When it recurs `c` repeats on
/// with every instant `δ` later, max-plus shift covariance repeats each
/// further cycle `δ` later until a lane reaches its final repeat, so `m`
/// cycles are charged at once: link watermarks and pending instants
/// `+m·δ`, bytes to links and flow; sends keep their numbers and
/// [`March::skip`] offsets the repeats. Each repeat boundary compares an
/// O(1) fingerprint with the last [`MAX_CYCLE`]; only a match captures
/// the state, and a match whose state equals it jumps. Rotating
/// segments, segments too short to hold a cycle before their final
/// repeat, and two flows never jump.
struct Jump {
    lane: u32,
    /// Sends per repeat, every segment's period summed.
    per_rep: usize,
    seen: VecDeque<Print>,
    /// Each link the schedule uses and the wire bytes a repeat puts on it.
    links: Vec<(ResourceId, u64)>,
}

/// A repeat boundary: its fingerprint — the sends issued, and pending
/// with their instants' sum less `pending · t` — and state if captured.
struct Print {
    t: SimTime,
    rep: u32,
    issued: usize,
    pending: (usize, u64),
    state: Option<Vec<u64>>,
}

impl Jump {
    fn new(sched: &Schedule) -> Option<Jump> {
        let first = sched.segs.first()?.sends[0];
        let sends = || sched.segs.iter().flat_map(|seg| &seg.sends);
        let periodic = sched.segs.iter().all(|seg| seg.group == 0 && seg.reps > 3);
        if !periodic || sends().any(|s| s.flow != first.flow) {
            return None;
        }
        let mut links = BTreeMap::new();
        for s in sends() {
            links.entry(s.res.index()).or_insert((s.res, 0)).1 += s.wire;
        }
        let (per_rep, links) =
            (sched.segs.iter().map(Segment::period).sum(), links.into_values().collect());
        Some(Jump { lane: first.lane, per_rep, seen: VecDeque::new(), links })
    }

    /// After an issue pass: at a repeat boundary, look for a rigid cycle
    /// and skip as many cycles as leave every lane short of its segment's
    /// final repeat (none, possibly), moving `t`. True once it has.
    fn boundary(
        &mut self,
        march: &mut March,
        arrivals: &mut Arrivals,
        rsv: &mut Reservations,
        t: &mut SimTime,
    ) -> bool {
        let (sched, rep, now) = (march.sched, march.lanes[self.lane as usize].rep, *t);
        if self.seen.back().is_some_and(|p| p.rep == rep) {
            return false;
        }
        let offsets = arrivals.sum.wrapping_sub((arrivals.len as u64).wrapping_mul(now.nanos()));
        let pending = (arrivals.len, offsets);
        // The state, repeats and sends counted from send 0 of repeat `rep`
        // and instants from `now`; `None` while a lane has run out.
        let capture = || {
            let rel = |g: u32, si: u32| {
                let seg = &sched.segs[g as usize];
                u64::from((si - seg.base).wrapping_sub(rep * seg.period() as u32))
            };
            let mut v = Vec::new();
            for st in march.lanes.iter().filter(|st| st.seg != NONE) {
                if st.j == NONE {
                    return None;
                }
                let parked =
                    if st.parked_on == NONE { u64::MAX } else { rel(st.seg, st.parked_on) };
                let cursor = u64::from(st.rep.wrapping_sub(rep));
                v.extend([cursor, u64::from(st.j), u64::from(st.inflight), parked]);
            }
            let mut pending = Vec::with_capacity(arrivals.len);
            for (&at, &b) in &arrivals.index {
                for &(si, key) in &arrivals.buckets[b as usize] {
                    let g = sched.lane_seg[sched.key_lane[key as usize] as usize];
                    pending.push([(at - now).as_nanos(), u64::from(key), rel(g, si)]);
                }
            }
            pending.sort_unstable();
            v.extend(pending.iter().flatten());
            let free = |res| (rsv.resource_free_at(res).max(now) - now).as_nanos();
            v.extend(self.links.iter().map(|&(res, _)| free(res)));
            Some(v)
        };
        let mut state = None;
        let rigid = self.seen.iter().rev().find_map(|h| {
            let c = rep - h.rep;
            let issued = c as usize * self.per_rep;
            let fits = c <= MAX_CYCLE && h.pending == pending && march.issued - h.issued == issued;
            let s = fits.then(|| state.get_or_insert_with(&capture))?;
            (s.is_some() && *s == h.state).then_some((c, now - h.t))
        });
        let Some((c, delta)) = rigid else {
            if self.seen.len() == MAX_CYCLE as usize {
                self.seen.pop_front();
            }
            let state = state.flatten();
            self.seen.push_back(Print { t: now, rep, issued: march.issued, pending, state });
            return false;
        };
        let lanes = march.lanes.iter().filter(|st| st.seg != NONE);
        let m = lanes.map(|st| sched.segs[st.seg as usize].reps.saturating_sub(st.rep + 2) / c);
        let m = m.min().unwrap_or(0);
        let (mut bytes, mut last) = (0, SimTime::ZERO);
        for &(res, rep_bytes) in &self.links {
            rsv.bulk_advance_resource(res, delta, m.into(), u64::from(c) * rep_bytes);
            bytes += u64::from(m * c) * rep_bytes;
            last = last.max(rsv.resource_free_at(res));
        }
        rsv.bulk_charge_flow(sched.segs[0].sends[0].flow, bytes, last);
        march.skip = m * c;
        march.issued += (m * c) as usize * self.per_rep;
        let skipped = Dur::nanos(u64::from(m) * delta.as_nanos());
        arrivals.shift(skipped);
        *t += skipped;
        true
    }
}

/// The coalesced driver's pending arrivals, keyed by *instant*: one
/// entry per distinct arrival time, naming the bucket that gathers the
/// `(send, key)` of every send landing then. A pipelined collective on
/// uniform links lands hundreds of sends on each instant (the 2048-rank
/// tree: 1.87 M sends over ~3,300), so a send costs one hash probe and
/// one append; only a *new* instant enters the min-heap that orders
/// them. Popped buckets are recycled with their capacity.
struct Arrivals {
    /// Bucket of every pending instant.
    index: HashMap<SimTime, u32, BuildHasherDefault<InstantHasher>>,
    /// The pending instants, each once, earliest on top.
    order: BinaryHeap<Reverse<SimTime>>,
    buckets: Vec<Vec<(u32, u32)>>,
    /// Buckets emptied by a pop, ready for the next new instant.
    free: Vec<u32>,
    /// Sends pending and their instants' wrapping sum: [`Jump`] reads it.
    len: usize,
    sum: u64,
}

/// Hashes a [`SimTime`] in one folded multiply: instants are arbitrary
/// nanosecond counts, so a fixed mix is as good as SipHash's keyed one
/// here, at a fraction of its cost.
#[derive(Default)]
struct InstantHasher(u64);

impl Hasher for InstantHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (p as u64) ^ (p >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Arrivals {
    fn new() -> Self {
        Arrivals {
            index: HashMap::default(),
            order: BinaryHeap::new(),
            buckets: Vec::new(),
            free: Vec::new(),
            len: 0,
            sum: 0,
        }
    }

    fn push(&mut self, at: SimTime, send: u32, key: u32) {
        self.len += 1;
        self.sum = self.sum.wrapping_add(at.nanos());
        let (order, buckets, free) = (&mut self.order, &mut self.buckets, &mut self.free);
        let b = *self.index.entry(at).or_insert_with(|| {
            order.push(Reverse(at));
            free.pop().unwrap_or_else(|| {
                buckets.push(Vec::new());
                buckets.len() as u32 - 1
            })
        });
        self.buckets[b as usize].push((send, key));
    }

    /// The earliest pending instant; `None` once nothing is in flight.
    fn next_instant(&self) -> Option<SimTime> {
        self.order.peek().map(|&Reverse(at)| at)
    }

    /// Remove the earliest instant, handing each send that lands then to
    /// `retire(send, key)` in push order; `None` once nothing is in flight.
    fn pop_instant(&mut self, mut retire: impl FnMut(u32, u32)) -> Option<SimTime> {
        let Reverse(at) = self.order.pop()?;
        let b = self.index.remove(&at).expect("every queued instant has a bucket");
        let mut landing = std::mem::take(&mut self.buckets[b as usize]);
        for &(send, key) in &landing {
            retire(send, key);
        }
        self.len -= landing.len();
        self.sum = self.sum.wrapping_sub(at.nanos().wrapping_mul(landing.len() as u64));
        landing.clear();
        self.buckets[b as usize] = landing;
        self.free.push(b);
        Some(at)
    }

    /// Move every pending instant `d` later.
    fn shift(&mut self, d: Dur) {
        self.index = self.index.drain().map(|(at, b)| (at + d, b)).collect();
        self.order = self.order.drain().map(|Reverse(at)| Reverse(at + d)).collect();
        self.sum = self.sum.wrapping_add(d.as_nanos().wrapping_mul(self.len as u64));
    }
}

/// Packed arrival flags, one bit per send.
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(n: usize) -> Self {
        BitSet { words: vec![0; n.div_ceil(64)] }
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        (self.words[i >> 6] >> (i & 63)) & 1 != 0
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1 << (i & 63);
    }
}

/// One lane's progress: the next send to issue — `(rep, j)` in the
/// lane's segment, `j == NONE` once exhausted — its in-flight count, and
/// its place in the dynamic reverse dependency index.
struct LaneState {
    seg: u32,
    rep: u32,
    j: u32,
    inflight: u32,
    /// The unarrived dependency this lane's head is parked on.
    parked_on: u32,
    /// The next lane parked on a send of the same key.
    park_next: u32,
}

/// Progress state of one schedule run, shared by both drivers: per-lane
/// cursors and in-flight counts, the arrival bits (the one datum kept
/// per send, named `base + rep·P + j`), and the candidate lanes of the
/// next issue pass: those whose state an instant's arrivals changed —
/// a retired send's own (a slot freed) and those parked on it (a
/// dependency landed). Issuing sets no arrival bit, so no other lane can
/// have become issuable, and visiting them in lane order reproduces a
/// full scan's reservation order on shared links, whatever order the
/// instant's arrivals retired in.
///
/// A blocked lane parks on its head's first unarrived dependency
/// (`parked_on`), chained into the waiter list of that send's *key*
/// `pbase + j` (`waiters` → `park_next`): 4 bytes per key and per lane
/// however many repeats run, and an arrival wakes only the lanes parked
/// on that very repeat.
struct March<'a> {
    sched: &'a Schedule,
    window: u32,
    lanes: Vec<LaneState>,
    arrived: BitSet,
    /// Per key: the first lane parked on one of its repeats.
    waiters: Vec<u32>,
    /// Lanes to re-examine in the next issue pass, one bit per lane.
    cand: BitSet,
    issued: usize,
    /// Repeats a [`Jump`] skipped: a lane's cursor `rep` stands for repeat
    /// `rep + skip` of its segment, and sends keep their numbers.
    skip: u32,
}

impl<'a> March<'a> {
    fn new(sched: &'a Schedule, window: usize) -> Self {
        let lanes = sched.lane_seg.iter().zip(&sched.lane_first).map(|(&seg, &j)| LaneState {
            seg,
            rep: 0,
            j,
            inflight: 0,
            parked_on: NONE,
            park_next: NONE,
        });
        // The first pass examines every lane that has a send at all.
        let mut cand = BitSet::new(sched.lane_seg.len());
        for (l, _) in sched.lane_seg.iter().enumerate().filter(|&(_, &seg)| seg != NONE) {
            cand.set(l);
        }
        March {
            sched,
            window: window.max(1) as u32,
            lanes: lanes.collect(),
            arrived: BitSet::new(sched.len()),
            waiters: vec![NONE; sched.key_lane.len()],
            cand,
            issued: 0,
            skip: 0,
        }
    }

    /// The send `si` (of `key`) arrived: free its lane's window slot and wake
    /// the lanes parked on it, unlinking them from the key's list; lanes
    /// parked on another repeat of the key stay.
    fn retire(&mut self, si: u32, key: u32) {
        self.arrived.set(si as usize);
        let lane = self.sched.key_lane[key as usize];
        self.lanes[lane as usize].inflight -= 1;
        self.cand.set(lane as usize);
        let (mut prev, mut l) = (NONE, self.waiters[key as usize]);
        while l != NONE {
            let waiter = &mut self.lanes[l as usize];
            let next = waiter.park_next;
            if waiter.parked_on == si {
                waiter.parked_on = NONE;
                waiter.park_next = NONE;
                self.cand.set(l as usize);
                match prev {
                    NONE => self.waiters[key as usize] = next,
                    p => self.lanes[p as usize].park_next = next,
                }
            } else {
                prev = l;
            }
            l = next;
        }
    }

    /// One issue pass: visit the candidate lanes in ascending order and
    /// issue each lane's heads — `issue(send, key, &period_send, wire)` —
    /// while its window has a slot and the head's dependencies have arrived.
    fn issue_pass(&mut self, mut issue: impl FnMut(u32, u32, &ChunkSend, u64)) {
        for w in 0..self.cand.words.len() {
            let mut bits = std::mem::take(&mut self.cand.words[w]);
            while bits != 0 {
                let lane = w as u32 * 64 + bits.trailing_zeros();
                bits &= bits - 1;
                self.issue_lane(lane, &mut issue);
            }
        }
    }

    fn issue_lane(&mut self, lane: u32, issue: &mut impl FnMut(u32, u32, &ChunkSend, u64)) {
        let st = &mut self.lanes[lane as usize];
        // Woken by a retirement on its own lane while the dependency it
        // is parked on is still in flight: nothing to do.
        if st.parked_on != NONE {
            return;
        }
        let seg = &self.sched.segs[st.seg as usize];
        let p = seg.sends.len() as u32;
        while st.j != NONE && st.inflight < self.window {
            // Global index of this period's send 0.
            let row = seg.base + st.rep * p;
            let unmet = seg.deps(st.j).iter().find_map(|&d| {
                let dep = match d & PREV {
                    0 => row + d,
                    _ if st.rep == 0 => return None,
                    _ => row - p + (d & !PREV),
                };
                (!self.arrived.get(dep as usize)).then_some((dep, seg.pbase + (d & !PREV)))
            });
            if let Some((dep, key)) = unmet {
                st.parked_on = dep;
                st.park_next = std::mem::replace(&mut self.waiters[key as usize], lane);
                return;
            }
            let rep = st.rep + self.skip;
            issue(row + st.j, seg.pbase + st.j, &seg.sends[st.j as usize], seg.wire(rep, st.j));
            st.inflight += 1;
            self.issued += 1;
            st.j = seg.lane_next[st.j as usize];
            if st.j == NONE && rep + 1 < seg.reps {
                st.rep += 1;
                st.j = self.sched.lane_first[lane as usize];
            }
        }
    }

    /// Nothing in flight and nothing issuable: every send must have run.
    fn assert_drained(&self) {
        assert_eq!(self.issued, self.sched.len(), "chunk schedule stalled with sends outstanding");
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use diomp_sim::{FaultPlan, Sim};

    use super::*;

    /// What a run leaves behind: end time, every link's `free_at` and
    /// bytes, the flow's `(bytes, first_start, last_depart)`.
    type Outcome = (u64, Vec<(u64, u64)>, (u64, Option<u64>, u64));

    /// Drive the schedule `build` makes over `nres` unit-bandwidth,
    /// 100 ns-latency links (window `window`) under the explicit driver
    /// or not, from its unrolling or not, with a fault plan armed on a
    /// link it never uses or none; returns the outcome and the sends the
    /// coalesced march issued one by one.
    fn run(
        (explicit, unrolled): (bool, bool),
        armed: bool,
        (nres, window): (usize, usize),
        build: impl FnOnce(&[ResourceId], FlowId) -> Schedule,
    ) -> (Outcome, usize) {
        let mut sim = Sim::new();
        sim.force_explicit_schedules(explicit);
        sim.force_unrolled_schedules(unrolled);
        let h = sim.handle();
        let res: Vec<ResourceId> =
            (0..nres).map(|_| h.new_resource(1.0, Dur::nanos(100))).collect();
        if armed {
            let idle = h.new_resource(1.0, Dur::ZERO);
            sim.set_fault_plan(FaultPlan::new().degrade_link(idle, SimTime(0), SimTime(1), 500));
        }
        let flow = h.new_flow(1000);
        let (s, marched) = (build(&res, flow), Rc::new(Cell::new(0)));
        let marched2 = marched.clone();
        sim.spawn("driver", move |ctx| {
            let (step, block) = (Dur::nanos(50), Watch { wait: Wait::Block, doom: None });
            assert_eq!(s.drive(ctx, window, step, block), Ok(()));
            marched2.set(MARCHED.get());
        });
        let end = sim.run().unwrap().end_time.nanos();
        let links = res.iter().map(|&r| (h.resource_free_at(r).nanos(), h.resource_bytes(r)));
        let f = h.flow_stats(flow);
        let flow = (f.bytes, f.first_start.map(SimTime::nanos), f.last_depart.nanos());
        let marched = marched.get();
        ((end, links.collect(), flow), marched)
    }

    /// The single-repeat schedule of `sends` — `(resource index, lane,
    /// wire, deps)` — over six lanes, driven by [`run`]: end time and
    /// every `free_at`.
    fn table(explicit: bool, sends: &[(usize, u32, u64, &[u32])]) -> (u64, Vec<u64>) {
        let ((end, links, _), _) = run((explicit, false), false, (5, 1), |res, flow| {
            let mut seg = Segment::new(1);
            for &(r, lane, wire, deps) in sends {
                seg.push(ChunkSend { res: res[r], lane, wire, flow }, &[], deps.iter().copied());
            }
            let mut s = Schedule::new(6);
            s.add(seg);
            s
        });
        (end, links.iter().map(|l| l.0).collect())
    }

    /// Sends 0 and 1 land at the same instant and wake two different
    /// lanes through two different dependencies — send 3 (lane 2) and
    /// send 2 (lane 3) — that share one link. The issue pass must take
    /// them in lane order, not wake order: the order of their
    /// reservations on the shared link decides when everything
    /// downstream runs. A second wave on both lanes (window 1) exercises
    /// the other wake reason, a freed window slot. End time and
    /// watermarks are the full-lane-scan drivers' at `8f23af6`.
    #[test]
    fn same_instant_wakeups_issue_in_lane_order() {
        for explicit in [false, true] {
            let (end, free_at) = table(
                explicit,
                &[
                    (0, 0, 1000, &[]),
                    (1, 1, 1000, &[]),
                    (2, 3, 700, &[0]),
                    (2, 2, 300, &[1]),
                    (3, 4, 500, &[2]),
                    (4, 5, 500, &[3]),
                    (2, 3, 200, &[0]),
                    (2, 2, 900, &[1]),
                ],
            );
            assert_eq!(end, 3400, "explicit={explicit}: end time");
            assert_eq!(free_at, [1050, 1050, 3300, 2850, 2150], "explicit={explicit}: watermarks");
        }
    }

    /// Here send 0 is issued in the first pass and lands at 1150 ns; send 2
    /// is issued one pass later (it waits for send 1, which lands at
    /// 450 ns) and lands at 1150 ns too. The two must retire as *one*
    /// instant: their dependents share link 3, and lane 3 (woken by the
    /// later-issued send) reserves it before lane 4. Retiring them as
    /// two instants would issue lane 4 first and end at 2150 ns.
    #[test]
    fn one_instant_collects_arrivals_from_two_issue_passes() {
        for explicit in [false, true] {
            let (end, free_at) = table(
                explicit,
                &[
                    (0, 0, 1000, &[]),
                    (1, 1, 300, &[]),
                    (2, 2, 550, &[1]),
                    (3, 4, 400, &[0]),
                    (3, 3, 200, &[2]),
                    (4, 5, 100, &[4]),
                ],
            );
            assert_eq!(end, 1900, "explicit={explicit}: end time");
            assert_eq!(free_at, [1050, 350, 1050, 1800, 1650], "explicit={explicit}: watermarks");
        }

        // The queue itself: the second push to 1150 ns joins the pending
        // instant's bucket, and the popped bucket is reused.
        let at = |ns| SimTime::ZERO + Dur::nanos(ns);
        let mut q = Arrivals::new();
        q.push(at(1150), 0, 0);
        q.push(at(450), 1, 1);
        let mut landed = Vec::new();
        assert_eq!(q.pop_instant(|s, k| landed.push((s, k))), Some(at(450)));
        q.push(at(1150), 2, 2);
        assert_eq!((q.index.len(), q.order.len(), q.buckets.len()), (1, 1, 2));
        q.push(at(1300), 3, 3);
        assert_eq!(q.buckets.len(), 2, "the popped bucket serves the new instant");
        assert_eq!(q.pop_instant(|s, k| landed.push((s, k))), Some(at(1150)));
        assert_eq!(q.pop_instant(|s, k| landed.push((s, k))), Some(at(1300)));
        assert_eq!(landed, [(1, 1), (0, 0), (2, 2), (3, 3)]);
        assert_eq!(q.pop_instant(|_, _| unreachable!()), None);
    }

    /// The queue against the ordered map it replaced: seeded pushes over
    /// few distinct instants (so most are ties, some joining an instant
    /// after it was first pushed), interleaved with pops, with every
    /// instant at or after the last one popped — the drivers' contract.
    /// Instants must pop in the same order with the same sends, each
    /// instant's in push order.
    #[test]
    fn arrival_queue_pops_like_an_ordered_map() {
        use std::collections::BTreeMap;
        for seed in 1..=8u64 {
            let mut x = seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let mut rand = move |m: u64| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % m
            };
            let pop = |q: &mut Arrivals| {
                let mut landed = Vec::new();
                q.pop_instant(|s, l| landed.push((s, l))).map(|at| (at, landed))
            };
            let pop_reference = |r: &mut BTreeMap<SimTime, Vec<(u32, u32)>>| r.pop_first();
            let mut q = Arrivals::new();
            let mut reference = BTreeMap::new();
            let mut now = 0u64;
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for send in 0..4000u32 {
                let at = SimTime(now + 5 * rand(24));
                let lane = rand(64) as u32;
                q.push(at, send, lane);
                reference.entry(at).or_insert_with(Vec::new).push((send, lane));
                if rand(3) == 0 {
                    let popped = pop(&mut q).unwrap();
                    now = popped.0.nanos();
                    got.push(popped);
                    want.extend(pop_reference(&mut reference));
                }
            }
            got.extend(std::iter::from_fn(|| pop(&mut q)));
            want.extend(std::iter::from_fn(|| pop_reference(&mut reference)));
            assert_eq!(got, want, "seed {seed}");
            assert!(q.index.is_empty() && q.order.is_empty(), "seed {seed}: queue drained");
        }
    }

    /// The coalesced march's reading of the explicit driver's deadline
    /// wakes: a park begun at `from` wakes every 100 ns until an arrival,
    /// and aborts at the first wake at or past the doom.
    #[test]
    fn deadline_wakes_abort_once_the_doom_has_passed() {
        let w = Watch { wait: Wait::Until(Dur::nanos(100)), doom: Some(SimTime(1_250)) };
        let abort = |w: Watch, from, until| w.abort_in(SimTime(from), SimTime(until));
        assert_eq!(abort(w, 1_000, 1_400), Some(SimTime(1_300)), "first wake past the doom");
        assert_eq!(abort(w, 1_000, 1_300), None, "an arrival at the deadline wins");
        assert_eq!(abort(w, 2_000, 5_000), Some(SimTime(2_100)), "a passed doom: first wake");
        assert_eq!(abort(w, 2_000, 2_090), None, "no wake before the arrival");
        assert_eq!(abort(Watch { doom: None, ..w }, 0, u64::MAX), None, "nobody dies");
        assert_eq!(abort(Watch { wait: Wait::Block, ..w }, 0, u64::MAX), None, "never wakes");
        let forever = Watch { wait: Wait::Until(Dur::secs(f64::INFINITY)), ..w };
        assert_eq!(abort(forever, 1_000, u64::MAX), None, "a budget past the end of time");
    }

    /// A 16-rank single-rail ring allreduce on private links, coalesced,
    /// window 4: one hop row of one-chunk tokens, edge-major, repeated
    /// 2(n−1) times, from its periodic form or its unrolling; ragged
    /// tokens of 1000 and 1200 B rotate one edge per row.
    fn ring_allreduce(ragged: bool, armed: bool, unrolled: bool) -> (Outcome, usize) {
        run((false, unrolled), armed, (ROW, 4), |res, flow| {
            let (n, class) = (ROW, (0..ROW).map(|i| u8::from(i % 3 == 0)).collect());
            let mut seg = match ragged {
                true => Segment::rotating(2 * n as u64 - 2, 1, class),
                false => Segment::new(2 * n as u64 - 2),
            };
            let alt: &[u64] = if ragged { &[1200] } else { &[] };
            for (e, &res) in res.iter().enumerate() {
                let send = ChunkSend { res, lane: e as u32, wire: 1000, flow };
                seg.push(send, alt, Some(prev_period(((e + n - 1) % n) as u32)));
            }
            let mut s = Schedule::new(n);
            s.add(seg);
            s
        })
    }

    /// Sends of one hop row of [`ring_allreduce`], and all of them.
    const ROW: usize = 16;
    const SENDS: usize = 30 * ROW;

    /// The uniform ring turns rigid within its first rows: it jumps by
    /// row 4 to its last two rows, and lands exactly where its unrolling,
    /// which cannot jump, marches every send. An armed fault plan
    /// disables the jump, not the march.
    #[test]
    fn rigid_ring_jumps_by_row_four_and_lands_where_the_unrolling_marches() {
        let (jumped, marched) = ring_allreduce(false, false, false);
        assert!(marched <= (4 + 2) * ROW, "marched {marched} of {SENDS} sends");
        assert_eq!(ring_allreduce(false, false, true), (jumped.clone(), SENDS));
        assert_eq!(ring_allreduce(false, true, false), (jumped, SENDS), "armed plan");
    }

    /// Rotating tokens change a row's wire bytes every repeat, so the
    /// ragged ring never jumps — and matches its unrolling.
    #[test]
    fn rotating_segment_never_jumps() {
        let unrolled = ring_allreduce(true, false, true);
        assert_eq!(ring_allreduce(true, false, false), unrolled);
        assert_eq!(unrolled.1, SENDS);
    }

    /// A period of two lanes repeated four times, a dependency on the
    /// previous period and a short last repeat: the index arithmetic
    /// must name exactly the sends of the written-out table.
    #[test]
    fn unrolling_writes_out_every_period() {
        let h = Sim::new().handle();
        let res = h.new_resource(1.0, Dur::nanos(100));
        let flow = h.new_flow(1000);
        let mut seg = Segment::new(4);
        let a = seg.push(ChunkSend { res, lane: 0, wire: 64, flow }, &[16], None);
        seg.push(ChunkSend { res, lane: 1, wire: 80, flow }, &[20], [a, prev_period(1)]);
        let mut s = Schedule::new(2);
        s.add(seg);
        assert_eq!(s.len(), 8);
        let flat = s.unrolled();
        let (seg, flat) = (&s.segs[0], &flat.segs[0]);
        assert_eq!((flat.reps, flat.period(), seg.period()), (1, 8, 2));
        let wires: Vec<u64> = flat.sends.iter().map(|s| s.wire).collect();
        assert_eq!(wires, [64, 80, 64, 80, 64, 80, 16, 20]);
        let deps: Vec<&[u32]> = (0..8).map(|j| flat.deps(j)).collect();
        assert_eq!(deps, [&[][..], &[0], &[], &[2, 1], &[], &[4, 3], &[], &[6, 5]]);
        assert_eq!(flat.lane_next, [2, 3, 4, 5, 6, 7, NONE, NONE]);
    }
}
