//! Periodic chunk schedules and their drivers.
//!
//! The LL, ring, DBT and reduction-server generators all compile their
//! collective into one [`Schedule`]: chunk sends, each pinned to a
//! per-edge FIFO *lane*, enabled by the *arrival* of zero or more
//! upstream sends, and bounded by a per-lane in-flight window. The
//! schedule is a **generator, not a table**: an engine emits
//! [`Segment`]s — *one period* of sends with the dependencies that point
//! into the same or the previous period, a repeat count, and (when the
//! payload's last chunk is short) the wire bytes of the final repeat —
//! and send `(segment, repeat, j)` is addressed by index arithmetic. A
//! pipelined collective repeats one chunk's traversal per chunk (DBT,
//! broadcast, reduce) or one hop row per hop (allgather, uniform
//! allreduce), so it stores one period however many chunks flow; a
//! schedule with no such structure is a segment with one repeat, through
//! the same code. A lane belongs to exactly one segment and serves its
//! sends repeat-major, in emission order within a repeat.
//!
//! [`Schedule::drive`] runs it under one of two drivers:
//!
//! * the **explicit** driver: every chunk is a kernel event plus a
//!   scheduled completion, and the progress loop parks on
//!   [`Ctx::wait_any`]. This is the reference semantics
//!   (and the only driver that supports an armed contention model, whose
//!   weighted-fair queues reorder completions at runtime).
//! * the **coalesced** driver: the identical schedule is priced
//!   arithmetically against the live link resources (same reservation
//!   arithmetic, same rounding, same fault perturbation) without
//!   allocating a single kernel event. It holds the kernel state lock
//!   once for the whole march ([`diomp_sim::Reservations`]), keeps its
//!   pending arrivals in a queue keyed by *instant* ([`Arrivals`]: one
//!   hashed entry and one heap slot per distinct arrival time, the sends
//!   landing then gathered in a recycled bucket), and collapses the
//!   collective to one coalesced wake entry carrying the chunk count. Virtual time, per-resource
//!   watermarks and flow statistics are bit-identical to the explicit
//!   driver — `tests/fastpath.rs` pins this, and the periodic form
//!   against its own unrolling, across engines, sizes and fault plans.
//!
//! (The one tier outside this module, the ring's closed-form h-major
//! march with its rigid-shift jump, never builds a schedule at all;
//! DESIGN.md D18 has the whole ladder.)
//!
//! Both drivers act only at *arrival instants*, and both share one
//! **event-driven issue pass** ([`March`]): after the arrivals of an
//! instant retire, only the lanes whose state changed are re-examined —
//! the lane of each retired send (a window slot freed) and the lanes
//! parked on it (a dependency landed) — in ascending lane order. Issuing
//! a send never sets an arrival bit, so within one pass a lane outside
//! that set cannot have become issuable: the candidate set is complete,
//! and visiting it in lane order reproduces the reservation order on
//! shared links of a full lane scan exactly. The order in which one
//! instant's arrivals retire is immaterial for the same reason — the
//! candidates are a set of lanes (one bit each), walked in lane order
//! once the whole instant has retired.
//!
//! Under a bounded [`Watch`] the explicit driver also wakes at the
//! deadline of every park that sees no arrival; the coalesced driver
//! reads those wakes off the gap before each instant, so both abandon
//! the march at the same deadline once the probe confirms a death.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use diomp_sim::{Ctx, Dur, EventId, FlowId, ResourceId, SimTime, Wait};

/// "No send" / "no lane" in the intrusive `u32` lists below.
const NONE: u32 = u32::MAX;

/// Flag on a dependency index: the send sits in the *previous* period.
const PREV: u32 = 1 << 31;

/// Repeats of a chunk pipeline [`Schedule::price`] marches before it
/// extrapolates: enough for the in-flight windows to fill.
const HEAD_REPS: u32 = 16;

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

/// The link figures a [`Schedule::price`] reads, by resource index:
/// bandwidth in bytes per ns and delivery latency — the numbers the
/// kernel's FIFO resources were built with.
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

    /// Busy time and delivery time (busy + latency) of `wire` bytes on
    /// `res`, in ns: the kernel's reservation arithmetic on an idle link.
    fn cost(&self, res: ResourceId, wire: u64) -> (u64, u64) {
        let (bytes_per_ns, latency) = self.0[res.index()];
        let busy = (wire as f64 / bytes_per_ns).ceil() as u64;
        (busy, busy + latency.as_nanos())
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
pub(crate) struct Segment {
    sends: Vec<ChunkSend>,
    dep_off: Vec<u32>,
    dep_idx: Vec<u32>,
    reps: u32,
    /// Wire bytes of the final repeat when its chunk is shorter than the
    /// others'; empty when every repeat moves `sends[j].wire`.
    last_wire: Vec<u64>,
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
            last_wire: Vec::new(),
            lane_next: Vec::new(),
            base: 0,
            pbase: 0,
        }
    }

    /// Append a send to the period, enabled by the arrival of every send
    /// in `deps`: period-local indices of sends emitted earlier, or
    /// [`prev_period`] of any index. `last_wire` is the send's wire bytes
    /// in the final repeat when that repeat's chunk is short — given for
    /// every send of the segment or for none. Returns the local index.
    pub(crate) fn push(
        &mut self,
        send: ChunkSend,
        last_wire: Option<u64>,
        deps: impl IntoIterator<Item = u32>,
    ) -> u32 {
        let j = self.sends.len() as u32;
        self.sends.push(send);
        self.last_wire.extend(last_wire);
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

    /// The max-plus cycle time of the period's [`prev_period`] edges,
    /// every send a slot of step + busy + latency: each send points at
    /// its heaviest previous-period dependency `d`, weighted by the
    /// longest path from the period's entry to `d`'s arrival, and the
    /// heaviest mean weight over the cycles of that functional graph is
    /// the time one period adds (0 without such edges). Exact where each
    /// send has one dependency, as in the ring's hop rows.
    fn cycle_time(&self, links: &Links, step: u64) -> u64 {
        let p = self.period();
        // `done[j]`: the longest path from the period's entry to send
        // `j`'s arrival.
        let mut done: Vec<u64> = Vec::with_capacity(p);
        let mut next = vec![NONE; p];
        let mut weight = vec![0u64; p];
        for (j, s) in self.sends.iter().enumerate() {
            let deps = self.deps(j as u32).iter().filter(|&&d| d & PREV == 0);
            let issue = deps.map(|&d| done[d as usize]).max().unwrap_or(0);
            done.push(issue + step + links.cost(s.res, s.wire).1);
        }
        for j in 0..p {
            for d in self.deps(j as u32).iter().filter(|&&d| d & PREV != 0).map(|&d| d & !PREV) {
                if next[j] == NONE || done[d as usize] > weight[j] {
                    (next[j], weight[j]) = (d, done[d as usize]);
                }
            }
        }
        // Walk from every send, marking it with the walk that reached it
        // first; a walk that meets its own mark has closed a cycle.
        let mut walk = vec![NONE; p];
        let mut t = 0u64;
        for s in 0..p as u32 {
            let mut j = s;
            while j != NONE && walk[j as usize] == NONE {
                walk[j as usize] = s;
                j = next[j as usize];
            }
            if j != NONE && walk[j as usize] == s {
                let (mut sum, mut len, mut k) = (0u64, 0u64, j);
                loop {
                    sum += weight[k as usize];
                    len += 1;
                    k = next[k as usize];
                    if k == j {
                        break;
                    }
                }
                t = t.max(sum.div_ceil(len));
            }
        }
        t
    }

    /// Wire bytes of send `j` in repeat `rep`.
    #[inline]
    fn wire(&self, rep: u32, j: u32) -> u64 {
        if rep + 1 == self.reps && !self.last_wire.is_empty() {
            self.last_wire[j as usize]
        } else {
            self.sends[j as usize].wire
        }
    }
}

/// A compiled collective: periodic segments over a fixed set of FIFO
/// lanes.
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
        assert!(seg.last_wire.is_empty() || seg.last_wire.len() == p, "partial last-wire row");
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
                    flat.push(ChunkSend { wire: seg.wire(rep, j), ..*s }, None, deps);
                }
            }
            out.add(flat);
        }
        out
    }

    /// What the schedule takes on idle links, from the first send's issue
    /// to the last arrival, read off a few periods per segment in
    /// O(sends + deps) — the one price `CollEngine::Auto` compares
    /// regimes by. It is the largest of four readings:
    ///
    /// * **the head**: the schedule cut to its first [`HEAD_REPS`]
    ///   repeats per segment (the last of them the segment's own short
    ///   final repeat; a segment of hop rows to its first row), marched
    ///   by the coalesced driver's own issue pass and reservation
    ///   arithmetic. A schedule no longer than its head is priced to the
    ///   nanosecond;
    /// * **each link**: its busy time over every repeat, from its first
    ///   use in the head to the head's tail after its last;
    /// * **each lane**: its sends' slot times (step + busy + latency) over
    ///   every repeat, shared by the in-flight window, from its first
    ///   issue in the head to the head's tail after its last arrival;
    /// * **each segment of hop rows**: its first row plus, per further
    ///   row, the [`cycle_time`] of its previous-period edges.
    ///
    /// A chunk pipeline's steady state runs at its slowest link or lane,
    /// so past its head the link and lane readings price it.
    pub(crate) fn price(&self, links: &Links, window: usize, step: Dur) -> Dur {
        let step = step.as_nanos();
        let head = self.head();
        let mut march = March::new(&head, window);
        let mut arrivals = Arrivals::new();
        // The head's first and last use of every link and lane, and the
        // last arrival of every segment.
        let mut link_first = vec![u64::MAX; links.0.len()];
        let mut link_free = vec![0u64; links.0.len()];
        let mut lane_first = vec![u64::MAX; self.lane_seg.len()];
        let mut lane_last = vec![0u64; self.lane_seg.len()];
        let mut seg_last = vec![0u64; self.segs.len()];
        let mut t = 0u64;
        loop {
            march.issue_pass(|si, key, s, wire| {
                let (busy, deliver) = links.cost(s.res, wire);
                let (r, l) = (s.res.index(), s.lane as usize);
                let start = (t + step).max(link_free[r]);
                link_first[r] = link_first[r].min(start);
                link_free[r] = start + busy;
                lane_first[l] = lane_first[l].min(t);
                lane_last[l] = start + deliver;
                let g = head.lane_seg[l] as usize;
                seg_last[g] = seg_last[g].max(start + deliver);
                arrivals.push(SimTime(start + deliver), si, key);
            });
            match arrivals.pop_instant(|si, key| march.retire(si, key)) {
                Some(at) => t = at.nanos(),
                None => break,
            }
        }
        march.assert_drained();
        if head.total == self.total {
            return Dur::nanos(t);
        }
        let head_end = t;
        let mut busy = vec![0u64; links.0.len()];
        let mut slots = vec![0u64; self.lane_seg.len()];
        for seg in &self.segs {
            let full = u64::from(seg.reps - 1);
            for (j, s) in seg.sends.iter().enumerate() {
                let (b, d) = links.cost(s.res, s.wire);
                let (last_b, last_d) = links.cost(s.res, seg.wire(seg.reps - 1, j as u32));
                busy[s.res.index()] += full * b + last_b;
                slots[s.lane as usize] += full * (step + d) + step + last_d;
            }
        }
        for (r, &b) in busy.iter().enumerate().filter(|&(_, &b)| b > 0) {
            t = t.max(link_first[r] + b + (head_end - link_free[r]));
        }
        let window = window.max(1) as u64;
        for (l, &w) in slots.iter().enumerate().filter(|&(_, &w)| w > 0) {
            t = t.max(lane_first[l] + w.div_ceil(window) + (head_end - lane_last[l]));
        }
        for (g, seg) in self.segs.iter().enumerate().filter(|(_, seg)| seg.reps > HEAD_REPS) {
            let cut = u64::from(seg.reps - HEAD_REPS);
            t = t.max(seg_last[g] + cut * seg.cycle_time(links, step));
        }
        Dur::nanos(t)
    }

    /// The schedule cut to its head: a segment of hop rows to its first
    /// (full) row, any other segment to its first [`HEAD_REPS`] repeats,
    /// the last of which moves the segment's final-repeat wire bytes.
    fn head(&self) -> Schedule {
        let mut out = Schedule::new(self.lane_seg.len());
        for seg in &self.segs {
            out.add(Segment {
                sends: seg.sends.clone(),
                dep_off: seg.dep_off.clone(),
                dep_idx: seg.dep_idx.clone(),
                reps: seg.reps.min(HEAD_REPS),
                last_wire: seg.last_wire.clone(),
                lane_next: Vec::new(),
                base: 0,
                pbase: 0,
            });
        }
        out
    }

    /// Drive the schedule to completion in the calling task's context:
    /// a lane head is issued once every dependency has arrived and the
    /// lane has a free slot (`window`), charging `step_d` of per-chunk
    /// processing before the wire bytes occupy the resource.
    ///
    /// Takes the coalesced driver unless armed contention forces the
    /// explicit one: the weighted-fair queues re-price in-service
    /// transfers whenever the backlogged flow set changes, which only
    /// the live event machinery models. An armed *fault plan* does
    /// **not** force it — the coalesced driver prices every reservation
    /// through the same kernel path, so per-edge degradation windows
    /// perturb the arithmetic march exactly as they perturb explicit
    /// events. [`diomp_sim::Sim::force_explicit_schedules`] pins the
    /// explicit driver for the equivalence tests and the uncoalesced
    /// reference arms of the bench gate.
    ///
    /// Under a bounded `watch` both drivers take the same deadline wakes,
    /// and the first that confirms a death abandons the march there:
    /// `Err` carries that instant, and whatever is still in flight is
    /// left to drain (explicit: released and purged) without the caller.
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
        if fast_path_ok(ctx) {
            sched.drive_fast(ctx, window, step_d, watch)
        } else {
            sched.drive_explicit(ctx, window, step_d, watch)
        }
    }

    /// The explicit driver: one kernel event per chunk, completions
    /// drained with [`Ctx::wait_any`] — one wake per park.
    ///
    /// Each chunk is charged to its own [`ChunkSend::flow`] — normally
    /// the issuing communicator's QoS flow, but the reduction-server
    /// engine charges server fan-back to the communicator's dedicated
    /// server flow — so that on a contention-armed simulator concurrent
    /// collectives fair-share each link by QoS weight. Disarmed (the
    /// default), the charge is bit-identical to a plain FIFO
    /// `transfer_from`.
    ///
    /// An abort issues nothing more, releases every in-flight chunk event
    /// and purges the schedule's flows from the armed fair queues
    /// (`gaspi_queue_purge`), so no abandoned chunk keeps a share of a
    /// live link.
    fn drive_explicit(
        &self,
        ctx: &mut Ctx,
        window: usize,
        step_d: Dur,
        watch: Watch,
    ) -> Result<(), SimTime> {
        let mut march = March::new(self, window);
        // In flight: `(event, send, key)`.
        let mut inflight: Vec<(EventId, u32, u32)> = Vec::new();
        let mut evs: Vec<EventId> = Vec::new();
        loop {
            let ready = ctx.now() + step_d;
            march.issue_pass(|si, key, s, wire| {
                let ev = ctx.handle().transfer_qos(s.res, s.flow, ready, wire);
                inflight.push((ev, si, key));
            });
            if inflight.is_empty() {
                break;
            }
            evs.clear();
            evs.extend(inflight.iter().map(|&(ev, ..)| ev));
            while ctx.wait_any(&evs, watch.wait).is_err() {
                if watch.confirms(ctx.now()) {
                    for &ev in &evs {
                        ctx.release_event(ev);
                    }
                    for flow in self.flows() {
                        ctx.purge_flow(flow);
                    }
                    return Err(ctx.now());
                }
            }
            // Retire everything that completed at this instant.
            inflight.retain(|&(ev, si, key)| {
                let done = ctx.event_done(ev);
                if done {
                    ctx.free_event(ev);
                    march.retire(si, key);
                }
                !done
            });
        }
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

    /// The coalesced driver: an arithmetic march that replays the
    /// explicit driver's decisions exactly.
    ///
    /// The [`Arrivals`] queue stands in for the kernel's event queue, and
    /// each issue reserves the real link resource through
    /// [`diomp_sim::Reservations::transfer_flow`]: the same serialisation
    /// (`free_at`), the same integer rounding, the same fault-window
    /// perturbation and the same flow accounting as the event path,
    /// minus the event — all under one acquisition of the kernel lock.
    /// The kernel clock stays frozen at the issue instant for the whole
    /// march (reservations land in the virtual future, exactly as the
    /// FIFO resource model already allows), and the march ends in a
    /// single [`Ctx::sleep_until_coalesced`] wake carrying the chunk
    /// count — one heap entry standing in for every per-chunk completion.
    ///
    /// A bounded `watch` is replayed from the gap before each instant:
    /// where the explicit driver's park would expire and its probe
    /// confirm a death ([`Watch::abort_in`]), the march stops with the
    /// reservations it has made, exactly the ones the explicit driver
    /// had issued by then.
    fn drive_fast(
        &self,
        ctx: &mut Ctx,
        window: usize,
        step_d: Dur,
        watch: Watch,
    ) -> Result<(), SimTime> {
        let mut march = March::new(self, window);
        let mut arrivals = Arrivals::new();
        let mut t = ctx.now();
        let mut rsv = ctx.handle().reserve();
        let aborted = loop {
            let ready = t + step_d;
            march.issue_pass(|si, key, s, wire| {
                let tr = rsv.transfer_flow(s.res, s.flow, ready, wire);
                arrivals.push(tr.arrive, si, key);
            });
            let Some(next) = arrivals.next_instant() else { break None };
            if let Some(at) = watch.abort_in(t, next) {
                break Some(at);
            }
            // Retire every arrival of the next instant, exactly as the
            // explicit loop retires every event completed at its wake
            // instant.
            arrivals.pop_instant(|si, key| march.retire(si, key));
            t = next;
        };
        drop(rsv);
        if let Some(at) = aborted {
            ctx.sleep_until_coalesced(at, march.issued as u64);
            return Err(at);
        }
        march.assert_drained();
        // One coalesced wake standing in for every per-chunk completion.
        ctx.sleep_until_coalesced(t, self.len() as u64);
        Ok(())
    }
}

/// Should a collective take its event-free fast path? See
/// [`Schedule::drive`] for the rule.
pub(crate) fn fast_path_ok(ctx: &Ctx) -> bool {
    !ctx.contention_armed() && !ctx.explicit_schedules_forced()
}

/// The coalesced driver's pending arrivals, keyed by *instant*: one
/// entry per distinct arrival time, naming the bucket that gathers the
/// `(send, key)` of every send landing then. A pipelined collective on
/// uniform links lands hundreds of sends on each instant (the 2048-rank
/// tree: 1.87 M sends over ~3,300 instants, at most ~60 pending at
/// once), so a send costs one hash probe and one append; only a *new*
/// instant enters the min-heap that orders them. A popped bucket is read
/// front to back and recycled with its capacity, so the march allocates
/// no more buckets than instants are ever pending at once. With one send
/// per instant it costs what a per-send heap costs.
struct Arrivals {
    /// Bucket of every pending instant.
    index: HashMap<SimTime, u32, BuildHasherDefault<InstantHasher>>,
    /// The pending instants, each once, earliest on top.
    order: BinaryHeap<Reverse<SimTime>>,
    buckets: Vec<Vec<(u32, u32)>>,
    /// Buckets emptied by a pop, ready for the next new instant.
    free: Vec<u32>,
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
        }
    }

    fn push(&mut self, at: SimTime, send: u32, key: u32) {
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
        landing.clear();
        self.buckets[b as usize] = landing;
        self.free.push(b);
        Some(at)
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
/// cursors and in-flight counts, the arrival bits, and the event-driven
/// candidate set of the next issue pass. Sends are named by their global
/// index `base + rep·P + j`; only the arrival bit is kept per send.
///
/// The reverse dependency index is *dynamic* and intrusive: a lane whose
/// head is blocked parks on the first dependency that has not arrived
/// (`parked_on`), chained into the waiter list of that send's *key*
/// `pbase + j` (`waiters` → `park_next`), and is re-examined when it
/// lands. A lane parks on at most one send at a time and a key's list
/// holds only the lanes of sends that depend on it, so the index costs 4
/// bytes per key and per lane — no per-send or per-edge table, however
/// many repeats run — and a dependency's arrival wakes only the lanes
/// parked on that very repeat.
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
        }
    }

    /// Send `si` (of `key`) arrived: free its lane's window slot and wake
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
            issue(row + st.j, seg.pbase + st.j, &seg.sends[st.j as usize], seg.wire(st.rep, st.j));
            st.inflight += 1;
            self.issued += 1;
            st.j = seg.lane_next[st.j as usize];
            if st.j == NONE && st.rep + 1 < seg.reps {
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
    use std::sync::{Arc, Mutex};

    use diomp_sim::Sim;

    use super::*;

    /// Drive the single-repeat schedule `sends` — `(resource index, lane,
    /// wire, deps)` over `nres` unit-bandwidth, 100 ns-latency links —
    /// under one driver; returns the end time and every `free_at`.
    fn run(
        explicit: bool,
        nres: usize,
        nlanes: usize,
        sends: &'static [(usize, u32, u64, &'static [u32])],
    ) -> (u64, Vec<u64>) {
        let mut sim = Sim::new();
        let h = sim.handle();
        let res: Vec<ResourceId> =
            (0..nres).map(|_| h.new_resource(1.0, Dur::nanos(100))).collect();
        let end = Arc::new(Mutex::new(0u64));
        let (res2, end2) = (res.clone(), end.clone());
        sim.spawn("driver", move |ctx| {
            let flow = ctx.new_flow(1000);
            let mut seg = Segment::new(1);
            for &(r, lane, wire, deps) in sends {
                seg.push(ChunkSend { res: res2[r], lane, wire, flow }, None, deps.iter().copied());
            }
            let mut s = Schedule::new(nlanes);
            s.add(seg);
            let block = Watch { wait: Wait::Block, doom: None };
            let driven = if explicit {
                s.drive_explicit(ctx, 1, Dur::nanos(50), block)
            } else {
                s.drive_fast(ctx, 1, Dur::nanos(50), block)
            };
            assert_eq!(driven, Ok(()));
            *end2.lock().unwrap() = ctx.now().nanos();
        });
        sim.run().unwrap();
        let end = *end.lock().unwrap();
        (end, res.iter().map(|&r| h.resource_free_at(r).nanos()).collect())
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
            let (end, free_at) = run(
                explicit,
                5,
                6,
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

    /// Send 0 is issued in the first pass and lands at 1150 ns; send 2
    /// is issued one pass later (it waits for send 1, which lands at
    /// 450 ns) and lands at 1150 ns too. The two must retire as *one*
    /// instant: their dependents share link 3, and lane 3 (woken by the
    /// later-issued send) reserves it before lane 4. Retiring them as
    /// two instants would issue lane 4 first and end at 2150 ns.
    #[test]
    fn one_instant_collects_arrivals_from_two_issue_passes() {
        for explicit in [false, true] {
            let (end, free_at) = run(
                explicit,
                5,
                6,
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

    /// A period of two lanes repeated four times, a dependency on the
    /// previous period and a short last repeat: the index arithmetic
    /// must name exactly the sends of the written-out table.
    #[test]
    fn unrolling_writes_out_every_period() {
        let h = Sim::new().handle();
        let res = h.new_resource(1.0, Dur::nanos(100));
        let flow = h.new_flow(1000);
        let mut seg = Segment::new(4);
        let a = seg.push(ChunkSend { res, lane: 0, wire: 64, flow }, Some(16), None);
        seg.push(ChunkSend { res, lane: 1, wire: 80, flow }, Some(20), [a, prev_period(1)]);
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
