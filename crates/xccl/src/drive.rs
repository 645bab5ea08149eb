//! The chunk-schedule normal form and its drivers.
//!
//! The ring, DBT and reduction-server engines all compile their
//! collective into one [`Schedule`]: a table of chunk sends, each pinned
//! to a per-edge FIFO *lane*, enabled by the *arrival* of zero or more
//! upstream sends, and bounded by a per-lane in-flight window. Engines
//! emit it in a single pass — [`Schedule::push`] appends the send, links
//! it to its lane's tail and records its dependency row — and
//! [`Schedule::drive`] runs it under one of two drivers:
//!
//! * the **explicit** driver: every chunk is a kernel event plus a
//!   scheduled completion, and the progress loop parks on
//!   [`Ctx::wait_any_batched`]. This is the reference semantics (and the
//!   only driver that supports an armed contention model, whose
//!   weighted-fair queues reorder completions at runtime).
//! * the **coalesced** driver: the identical schedule is priced
//!   arithmetically against the live link resources (same reservation
//!   calls, same rounding, same fault perturbation) without allocating a
//!   single kernel event; the whole collective collapses to one
//!   coalesced wake entry carrying the chunk count. Virtual time,
//!   per-resource watermarks and flow statistics are bit-identical to
//!   the explicit driver — `tests/fastpath.rs` pins this across engines,
//!   sizes and fault plans.
//!
//! (The third tier, the ring engine's closed-form h-major march with its
//! rigid-shift jump, never builds a schedule at all; DESIGN.md D18 has
//! the whole ladder.)
//!
//! Both drivers act only at *arrival instants*, and both share one
//! **event-driven issue pass** ([`March`]): after the arrivals of an
//! instant retire, only the lanes whose state changed are re-examined —
//! the lane of each retired send (a window slot freed) and the lanes
//! parked on it (a dependency landed) — in ascending lane order. Issuing
//! a send never sets an arrival bit, so within one pass a lane outside
//! that set cannot have become issuable: the candidate set is complete,
//! and visiting it in lane order reproduces the reservation order on
//! shared links and the issue-sequence tie-breaks of a full lane scan
//! exactly, at O(sends · log inflight) total instead of O(lanes ×
//! instants).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use diomp_sim::{Ctx, Dur, EventId, FlowId, ResourceId, SimTime};

/// "No send" / "no lane" in the intrusive `u32` lists below.
const NONE: u32 = u32::MAX;

/// One chunk transfer as the drivers see it: the link resource it
/// occupies, its FIFO lane, its wire bytes (payload already scaled by
/// the edge's link efficiency), and the QoS flow the transfer is
/// charged to.
pub(crate) struct ChunkSend {
    pub(crate) res: ResourceId,
    pub(crate) lane: u32,
    pub(crate) wire: u64,
    pub(crate) flow: FlowId,
}

/// Wire bytes of a `bytes`-byte chunk on an edge that achieves `eff` of
/// its link's raw bandwidth.
pub(crate) fn wire_bytes(bytes: u64, eff: f64) -> u64 {
    ((bytes as f64 / eff).ceil() as u64).max(1)
}

/// A compiled collective: chunk sends in emission order, each lane's
/// FIFO threaded through them as an intrusive list, and the dependency
/// rows in compressed-sparse-row form (row `i` lists the sends whose
/// *arrival* enables send `i`).
pub(crate) struct Schedule {
    sends: Vec<ChunkSend>,
    /// Per send: the next send on the same lane (`NONE` at the tail).
    lane_next: Vec<u32>,
    /// Per lane: its first and last send (`NONE` while empty).
    lane_head: Vec<u32>,
    lane_tail: Vec<u32>,
    dep_off: Vec<u32>,
    dep_idx: Vec<u32>,
}

impl Schedule {
    /// An empty schedule over `nlanes` FIFO lanes.
    pub(crate) fn new(nlanes: usize) -> Self {
        Schedule {
            sends: Vec::new(),
            lane_next: Vec::new(),
            lane_head: vec![NONE; nlanes],
            lane_tail: vec![NONE; nlanes],
            dep_off: vec![0],
            dep_idx: Vec::new(),
        }
    }

    /// Append a send at the tail of its lane, enabled by the arrival of
    /// every send in `deps` (all emitted earlier). Returns its index.
    pub(crate) fn push(&mut self, send: ChunkSend, deps: impl IntoIterator<Item = u32>) -> u32 {
        let si = self.sends.len() as u32;
        let lane = send.lane as usize;
        match self.lane_tail[lane] {
            NONE => self.lane_head[lane] = si,
            tail => self.lane_next[tail as usize] = si,
        }
        self.lane_tail[lane] = si;
        self.sends.push(send);
        self.lane_next.push(NONE);
        self.dep_idx.extend(deps);
        self.dep_off.push(self.dep_idx.len() as u32);
        si
    }

    /// Number of sends emitted so far.
    pub(crate) fn len(&self) -> usize {
        self.sends.len()
    }

    /// The first dependency of send `si` that has not arrived yet.
    #[inline]
    fn first_unmet(&self, si: u32, arrived: &BitSet) -> Option<u32> {
        self.dep_idx[self.dep_off[si as usize] as usize..self.dep_off[si as usize + 1] as usize]
            .iter()
            .copied()
            .find(|&d| !arrived.get(d as usize))
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
    pub(crate) fn drive(&self, ctx: &mut Ctx, window: usize, step_d: Dur) {
        if fast_path_ok(ctx) {
            self.drive_fast(ctx, window, step_d);
        } else {
            self.drive_explicit(ctx, window, step_d);
        }
    }

    /// The explicit driver: one kernel event per chunk, completions
    /// drained with [`Ctx::wait_any_batched`] — one wake per park.
    ///
    /// Each chunk is charged to its own [`ChunkSend::flow`] — normally
    /// the issuing communicator's QoS flow, but the reduction-server
    /// engine charges server fan-back to the communicator's dedicated
    /// server flow — so that on a contention-armed simulator concurrent
    /// collectives fair-share each link by QoS weight. Disarmed (the
    /// default), the charge is bit-identical to a plain FIFO
    /// `transfer_from`.
    fn drive_explicit(&self, ctx: &mut Ctx, window: usize, step_d: Dur) {
        let mut march = March::new(self, window);
        let mut inflight: Vec<(EventId, u32)> = Vec::new();
        let mut evs: Vec<EventId> = Vec::new();
        loop {
            let ready = ctx.now() + step_d;
            march.issue_pass(|si, s| {
                inflight.push((ctx.handle().transfer_qos(s.res, s.flow, ready, s.wire), si));
            });
            if inflight.is_empty() {
                break;
            }
            evs.clear();
            evs.extend(inflight.iter().map(|&(ev, _)| ev));
            let _ = ctx.wait_any_batched(&evs);
            // Retire everything that completed at this instant.
            inflight.retain(|&(ev, si)| {
                let done = ctx.event_done(ev);
                if done {
                    ctx.free_event(ev);
                    march.retire(si);
                }
                !done
            });
        }
        march.assert_drained();
    }

    /// The coalesced driver: an arithmetic march that replays the
    /// explicit driver's decisions exactly.
    ///
    /// A local min-heap of `(arrive, issue_seq)` stands in for the
    /// kernel's event queue, and each issue reserves the real link
    /// resource through [`diomp_sim::SimHandle::transfer_flow`]: the
    /// same serialisation (`free_at`), the same integer rounding, the
    /// same fault-window perturbation and the same flow accounting as
    /// the event path, minus the event. The kernel clock stays frozen at
    /// the issue instant for the whole march (reservations land in the
    /// virtual future, exactly as the FIFO resource model already
    /// allows), and the march ends in a single
    /// [`Ctx::sleep_until_coalesced`] wake carrying the chunk count —
    /// one heap entry standing in for every per-chunk completion.
    fn drive_fast(&self, ctx: &mut Ctx, window: usize, step_d: Dur) {
        let mut march = March::new(self, window);
        // Pending in-flight arrivals, earliest first; `seq` breaks
        // arrival ties by issue order, mirroring the kernel queue's FIFO
        // tiebreak.
        let mut heap: BinaryHeap<Reverse<(SimTime, u32, u32)>> = BinaryHeap::new();
        let mut seq = 0u32;
        let mut t = ctx.now();
        loop {
            let ready = t + step_d;
            march.issue_pass(|si, s| {
                let tr = ctx.handle().transfer_flow(s.res, s.flow, ready, s.wire);
                heap.push(Reverse((tr.arrive, seq, si)));
                seq += 1;
            });
            let Some(&Reverse((at, _, _))) = heap.peek() else { break };
            // Retire every arrival at this instant, exactly as the
            // explicit loop retires every event completed at its wake
            // instant.
            t = at;
            while let Some(&Reverse((a, _, si))) = heap.peek() {
                if a != t {
                    break;
                }
                heap.pop();
                march.retire(si);
            }
        }
        march.assert_drained();
        // One coalesced wake standing in for every per-chunk completion.
        ctx.sleep_until_coalesced(t, self.sends.len() as u64);
    }
}

/// Should a collective take its event-free fast path? See
/// [`Schedule::drive`] for the rule.
pub(crate) fn fast_path_ok(ctx: &Ctx) -> bool {
    !ctx.contention_armed() && !ctx.explicit_schedules_forced()
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

/// Progress state of one schedule run, shared by both drivers: per-lane
/// FIFO cursors and in-flight counts, the arrival bits, and the
/// event-driven candidate set of the next issue pass.
///
/// The reverse dependency index is *dynamic* and intrusive: a lane whose
/// head is blocked parks on the first dependency that has not arrived
/// (`parked_on`), chained into that send's waiter list (`waiters` →
/// `park_next`), and is re-examined when it lands. A lane parks on at
/// most one send at a time, so the index costs 4 bytes per send and per
/// lane — no per-edge reverse table — and a dependency's arrival wakes
/// only the lanes actually blocked on it.
struct March<'a> {
    sched: &'a Schedule,
    window: u32,
    /// Per lane: the next send to issue (`NONE` once exhausted).
    head: Vec<u32>,
    inflight: Vec<u32>,
    arrived: BitSet,
    /// Per lane: the unarrived dependency its head is parked on.
    parked_on: Vec<u32>,
    /// Per send: the first lane parked on it; per lane: the next one.
    waiters: Vec<u32>,
    park_next: Vec<u32>,
    /// Lanes to re-examine in the next issue pass.
    cand: Vec<u32>,
    issued: usize,
}

impl<'a> March<'a> {
    fn new(sched: &'a Schedule, window: usize) -> Self {
        let nlanes = sched.lane_head.len();
        March {
            sched,
            window: window.max(1) as u32,
            head: sched.lane_head.clone(),
            inflight: vec![0; nlanes],
            arrived: BitSet::new(sched.len()),
            parked_on: vec![NONE; nlanes],
            waiters: vec![NONE; sched.len()],
            park_next: vec![NONE; nlanes],
            // The first pass examines every lane that has a send at all.
            cand: (0..nlanes as u32).filter(|&l| sched.lane_head[l as usize] != NONE).collect(),
            issued: 0,
        }
    }

    /// Send `si` arrived: free its lane's window slot and wake the lanes
    /// parked on it.
    fn retire(&mut self, si: u32) {
        self.arrived.set(si as usize);
        let lane = self.sched.sends[si as usize].lane;
        self.inflight[lane as usize] -= 1;
        self.cand.push(lane);
        let mut l = std::mem::replace(&mut self.waiters[si as usize], NONE);
        while l != NONE {
            self.parked_on[l as usize] = NONE;
            self.cand.push(l);
            l = std::mem::replace(&mut self.park_next[l as usize], NONE);
        }
    }

    /// One issue pass: visit the candidate lanes in ascending order and
    /// issue each lane's heads while its window has a slot and the
    /// head's dependencies have arrived.
    fn issue_pass(&mut self, mut issue: impl FnMut(u32, &ChunkSend)) {
        let mut cand = std::mem::take(&mut self.cand);
        cand.sort_unstable();
        cand.dedup();
        for &lane in &cand {
            let l = lane as usize;
            // Woken by a retirement on its own lane while the dependency
            // it is parked on is still in flight: nothing to do.
            if self.parked_on[l] != NONE {
                continue;
            }
            while self.head[l] != NONE && self.inflight[l] < self.window {
                let si = self.head[l];
                if let Some(d) = self.sched.first_unmet(si, &self.arrived) {
                    self.parked_on[l] = d;
                    self.park_next[l] = std::mem::replace(&mut self.waiters[d as usize], lane);
                    break;
                }
                issue(si, &self.sched.sends[si as usize]);
                self.head[l] = self.sched.lane_next[si as usize];
                self.inflight[l] += 1;
                self.issued += 1;
            }
        }
        cand.clear();
        self.cand = cand;
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

    /// Sends 0 and 1 land at the same instant and wake two different
    /// lanes through two different dependencies — send 3 (lane 2) and
    /// send 2 (lane 3) — that share one link. The issue pass must take
    /// them in lane order, not wake order: the order of their
    /// reservations on the shared link decides when everything
    /// downstream runs. A second wave on both lanes (window 1) exercises
    /// the other wake reason, a freed window slot. End time and
    /// watermarks are the full-lane-scan drivers' at the parent commit.
    #[test]
    fn same_instant_wakeups_issue_in_lane_order() {
        for explicit in [false, true] {
            let mut sim = Sim::new();
            let h = sim.handle();
            let res: Vec<ResourceId> =
                (0..5).map(|_| h.new_resource(1.0, Dur::nanos(100))).collect();
            let end = Arc::new(Mutex::new(0u64));
            let (res2, end2) = (res.clone(), end.clone());
            sim.spawn("driver", move |ctx| {
                let flow = ctx.new_flow(1000);
                let send = |r: usize, lane, wire| ChunkSend { res: res2[r], lane, wire, flow };
                let mut s = Schedule::new(6);
                let a = s.push(send(0, 0, 1000), None);
                let b = s.push(send(1, 1, 1000), None);
                let c = s.push(send(2, 3, 700), Some(a));
                let d = s.push(send(2, 2, 300), Some(b));
                s.push(send(3, 4, 500), Some(c));
                s.push(send(4, 5, 500), Some(d));
                s.push(send(2, 3, 200), Some(a));
                s.push(send(2, 2, 900), Some(b));
                if explicit {
                    s.drive_explicit(ctx, 1, Dur::nanos(50));
                } else {
                    s.drive_fast(ctx, 1, Dur::nanos(50));
                }
                *end2.lock().unwrap() = ctx.now().nanos();
            });
            sim.run().unwrap();
            let free_at: Vec<u64> = res.iter().map(|&r| h.resource_free_at(r).nanos()).collect();
            assert_eq!(*end.lock().unwrap(), 3400, "explicit={explicit}: end time");
            assert_eq!(free_at, [1050, 1050, 3300, 2850, 2150], "explicit={explicit}: watermarks");
        }
    }
}
