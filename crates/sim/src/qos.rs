//! Weighted-fair-queuing link contention (DESIGN.md D15).
//!
//! The closed-form FIFO model in [`crate::resource`] serialises transfers:
//! two chunks racing for one NIC take twice as long, but a chunk never
//! *shares* the wire — whoever reserved first owns the link outright until
//! it departs. That is the right model for a single job whose own chunks
//! are pipelined back-to-back, and it is wrong for a multi-tenant fabric
//! where chunks from different jobs are genuinely in flight at once and
//! the switch arbitrates per-packet.
//!
//! This module adds the multi-tenant model as an *armed* subsystem,
//! mirroring the fault injector ([`crate::FaultPlan`]): disarmed (the
//! default), the flow-tagged reservation path
//! [`crate::SimHandle::transfer_qos`] collapses to exactly the closed-form
//! FIFO calls it replaced, so single-tenant runs replay bit-identically to
//! pre-contention traces. Armed ([`crate::Sim::enable_contention`]), each
//! resource becomes a fluid weighted-fair queue:
//!
//! * every flow (≈ one communicator of one job, see `diomp-xccl`) keeps a
//!   FIFO queue per link; only the *head* of each queue is in service;
//! * backlogged heads share the link bandwidth in proportion to their
//!   flow's QoS weight (`rate_i = bw · w_i / Σ w_backlogged`);
//! * a head's remaining service time is re-priced whenever the set of
//!   backlogged flows on its link changes. Each re-pricing bumps the
//!   link's generation counter and schedules a fresh head-finish action;
//!   actions carrying a stale generation are no-ops, so exactly one
//!   pricing is live per link at any instant.
//!
//! With a single backlogged flow the fluid share is the full bandwidth and
//! the head finish is `ceil(bytes / bw)` — the identical integer arithmetic
//! of the closed form — so arming contention under a lone job shifts no
//! completion time (the property tests assert this exactly).
//!
//! Only flow-tagged transfers take part in fair sharing. Untagged traffic
//! (RMA protocol messages, handler occupancy) keeps the serial closed
//! form; see DESIGN.md D15 for the scope rationale.

use std::collections::{BTreeMap, VecDeque};

use crate::event::CqId;
use crate::kernel::{KState, SimHandle};
use crate::resource::ResourceId;
use crate::time::{Dur, SimTime};

/// A head with at most this much service left (in wire bytes) is retired.
/// Head-finish actions land on whole-nanosecond boundaries (virtual time
/// is integral), so the scheduled instant can over-serve the head by up to
/// one nanosecond of bandwidth; the tolerance absorbs the float residue.
const SERVICE_EPS: f64 = 1e-6;

/// QoS service class of a job (and of the flows its communicators open).
///
/// The class fixes the flow's weight in the per-link weighted fair queue:
/// under contention a backlogged flow receives bandwidth proportional to
/// [`QosClass::weight_milli`]. An idle link always serves its lone flow at
/// full rate regardless of class (the queue is work-conserving).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum QosClass {
    /// Latency-sensitive foreground job: 4× the `Normal` share.
    High,
    /// Default best-effort share.
    #[default]
    Normal,
    /// Background/scavenger job: ¼ of the `Normal` share.
    Low,
}

impl QosClass {
    /// WFQ weight in milli-units (`Normal` ≡ 1000).
    pub const fn weight_milli(self) -> u32 {
        match self {
            QosClass::High => 4000,
            QosClass::Normal => 1000,
            QosClass::Low => 250,
        }
    }
}

/// Handle to a registered traffic flow (see [`crate::SimHandle::new_flow`]).
/// Generation-tagged like a wait-group reference: releasing the flow
/// invalidates every copy of the handle, and a stale copy is rejected —
/// it can never read or charge the slot's next owner.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FlowId {
    idx: u32,
    gen: u32,
}

impl FlowId {
    /// Dense slot index of this flow (recycled after release).
    pub fn index(self) -> usize {
        self.idx as usize
    }
}

/// Aggregate delivery statistics for one flow, across every link it used.
///
/// `bytes / (last_depart - first_start)` is the flow's achieved wire
/// bandwidth over its active span — the quantity the work-conservation
/// gate sums across flows and compares against link capacity.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowStats {
    /// Logical payload bytes fully delivered so far.
    pub bytes: u64,
    /// When the flow's first transfer was submitted to a link.
    pub first_start: Option<SimTime>,
    /// When the flow's latest transfer departed its link.
    pub last_depart: SimTime,
}

/// Per-flow registration: WFQ weight plus delivery statistics.
#[derive(Debug)]
pub(crate) struct FlowSlot {
    pub(crate) weight_milli: u32,
    pub(crate) stats: FlowStats,
    /// Bumped on release, so handles to an earlier tenancy stop matching.
    gen: u32,
}

impl KState {
    /// The slot `flow` names. Panics on a released handle — every path
    /// that reads or charges a flow comes through here.
    pub(crate) fn flow_mut(&mut self, flow: FlowId) -> &mut FlowSlot {
        let slot = &mut self.flows[flow.index()];
        assert_eq!(slot.gen, flow.gen, "stale FlowId: flow {} was released", flow.idx);
        slot
    }
}

/// One queued (head = in-service) transfer on a link.
#[derive(Debug)]
struct QTransfer {
    /// Wire bytes of service still owed (fault-scaled if a window matched).
    remaining: f64,
    /// Logical payload bytes, credited to the flow's stats on delivery.
    logical: u64,
    /// The flow credited — through [`KState::flow_mut`], so a transfer
    /// can never be served into a released slot's next tenant.
    flow: FlowId,
    /// Posted `tag` to `cq` at `depart + latency + extra`.
    cq: CqId,
    tag: u64,
    /// Fault-injected extra delivery latency.
    extra: Dur,
}

/// WFQ state of one link: per-flow FIFO queues plus the fluid clock.
#[derive(Debug, Default)]
struct LinkState {
    /// Last instant fluid service was accrued up to.
    last_t: SimTime,
    /// Bumped on every queue change; stale head-finish actions no-op.
    gen: u64,
    /// Flow index → FIFO of queued transfers. Only the front of each
    /// queue receives service. `BTreeMap` for deterministic iteration.
    queues: BTreeMap<u32, VecDeque<QTransfer>>,
}

impl LinkState {
    /// Sum of weights of flows with a backlogged queue.
    fn backlogged_weight(&self, flows: &[FlowSlot]) -> u64 {
        self.queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(f, _)| flows[*f as usize].weight_milli as u64)
            .sum()
    }

    /// Accrue fluid service on every backlogged head from `last_t` to `now`.
    fn advance(&mut self, now: SimTime, bytes_per_ns: f64, flows: &[FlowSlot]) {
        let dt = (now - self.last_t).as_nanos() as f64;
        self.last_t = now;
        if dt <= 0.0 {
            return;
        }
        let total_w = self.backlogged_weight(flows);
        if total_w == 0 {
            return;
        }
        for (f, q) in self.queues.iter_mut() {
            if let Some(head) = q.front_mut() {
                let share = bytes_per_ns * flows[*f as usize].weight_milli as f64 / total_w as f64;
                head.remaining -= dt * share;
            }
        }
    }

    /// Pop every head that has been fully served. Empty queues are removed
    /// so a drained flow stops counting toward the backlogged weight.
    fn take_finished(&mut self) -> Vec<QTransfer> {
        let mut done = Vec::new();
        self.queues.retain(|_, q| {
            while q.front().is_some_and(|h| h.remaining <= SERVICE_EPS) {
                done.push(q.pop_front().expect("front vanished"));
            }
            !q.is_empty()
        });
        done
    }

    /// Next head-finish instant at current shares, if any head is in
    /// service. Always at least 1 ns out so progress is guaranteed.
    fn next_finish(&self, now: SimTime, bytes_per_ns: f64, flows: &[FlowSlot]) -> Option<SimTime> {
        let total_w = self.backlogged_weight(flows);
        if total_w == 0 {
            return None;
        }
        let mut best: Option<f64> = None;
        for (f, q) in &self.queues {
            if let Some(head) = q.front() {
                let share = bytes_per_ns * flows[*f as usize].weight_milli as f64 / total_w as f64;
                let t = head.remaining.max(0.0) / share;
                best = Some(best.map_or(t, |b: f64| b.min(t)));
            }
        }
        best.map(|t| now + Dur::nanos((t.ceil() as u64).max(1)))
    }
}

/// Armed contention subsystem: WFQ state for every link that has seen
/// flow-tagged traffic. Boxed behind an `Option` on the kernel state so
/// disarmed runs pay one branch, exactly like the fault injector.
#[derive(Debug, Default)]
pub(crate) struct ContentionState {
    links: BTreeMap<usize, LinkState>,
}

impl SimHandle {
    /// Register a traffic flow with a WFQ weight in milli-units
    /// (`1000` = one `Normal` share; see [`QosClass::weight_milli`]).
    ///
    /// Flows exist whether or not contention is armed: disarmed, the tag
    /// only routes delivery statistics ([`SimHandle::flow_stats`]).
    pub fn new_flow(&self, weight_milli: u32) -> FlowId {
        assert!(weight_milli > 0, "flow weight must be positive");
        let mut st = self.kernel.state.borrow_mut();
        if let Some(idx) = st.free_flows.pop() {
            let slot = &mut st.flows[idx as usize];
            slot.weight_milli = weight_milli;
            slot.stats = FlowStats::default();
            return FlowId { idx, gen: slot.gen };
        }
        let idx = st.flows.len() as u32;
        st.flows.push(FlowSlot { weight_milli, stats: FlowStats::default(), gen: 0 });
        FlowId { idx, gen: 0 }
    }

    /// Return a flow's slot to the free list for reuse by a later
    /// [`SimHandle::new_flow`]. The flow's accumulated statistics are
    /// discarded, so callers that report per-flow bandwidth must read
    /// [`SimHandle::flow_stats`] *before* releasing: afterwards every
    /// copy of the handle is stale, and using one (a second release
    /// included) panics. So does releasing a flow with transfers still
    /// queued on an armed link — [`SimHandle::purge_flow`] them first.
    pub fn release_flow(&self, flow: FlowId) {
        let mut st = self.kernel.state.borrow_mut();
        let slot = st.flow_mut(flow);
        slot.gen = slot.gen.wrapping_add(1);
        if let Some(c) = st.contention.as_ref() {
            assert!(
                c.links.values().all(|ls| ls.queues.get(&flow.idx).is_none_or(|q| q.is_empty())),
                "released flow {} still backlogged on an armed link",
                flow.idx
            );
        }
        st.free_flows.push(flow.idx);
    }

    /// `gaspi_queue_purge` on the armed fair queues: every transfer of
    /// `flow` still queued on a link is dropped unserved — its bytes are
    /// never delivered and its tag is never posted — and each link it
    /// leaves is re-priced for the flows that remain. A transfer of the
    /// flow not yet enqueued still joins its link when its enqueue fires,
    /// unless its completion queue was released by then
    /// ([`SimHandle::release_cq`]): an issuer that gives up releases its
    /// queue first, then purges. Disarmed this is a no-op: a FIFO
    /// reservation is made at issue and completes on its own.
    pub fn purge_flow(&self, flow: FlowId) {
        let mut st = self.kernel.state.borrow_mut();
        st.flow_mut(flow);
        let now = st.now();
        let s = &mut *st;
        let Some(c) = s.contention.as_mut() else { return };
        let mut touched = Vec::new();
        let mut dropped = Vec::new();
        for (&link, ls) in c.links.iter_mut() {
            if !ls.queues.contains_key(&flow.idx) {
                continue;
            }
            ls.advance(now, s.resources[link].bytes_per_ns(), &s.flows);
            let q = ls.queues.remove(&flow.idx).expect("checked");
            dropped.extend(q.into_iter().map(|qt| qt.cq));
            ls.gen += 1;
            touched.push(ResourceId(link as u32));
        }
        for cq in dropped {
            if let Some(slot) = st.live_cq(cq) {
                slot.inflight -= 1;
            }
        }
        for res in touched {
            self.qos_reschedule(&mut st, res);
        }
    }

    /// Flow-tagged transfers queued on `res`'s fair queue, in service or
    /// waiting (0 when contention is disarmed or the link is idle).
    pub fn link_backlog(&self, res: ResourceId) -> usize {
        let st = self.kernel.state.borrow();
        let link = st.contention.as_ref().and_then(|c| c.links.get(&res.index()));
        link.map_or(0, |ls| ls.queues.values().map(VecDeque::len).sum())
    }

    /// Number of live (allocated, not yet released) flow slots.
    pub fn flows_in_use(&self) -> usize {
        let st = self.kernel.state.borrow();
        st.flows.len() - st.free_flows.len()
    }

    /// Delivery statistics accumulated by a flow so far.
    pub fn flow_stats(&self, flow: FlowId) -> FlowStats {
        self.kernel.state.borrow_mut().flow_mut(flow).stats
    }

    /// Is weighted-fair-queuing contention armed on this sim?
    pub fn contention_armed(&self) -> bool {
        self.kernel.state.borrow().contention.is_some()
    }

    /// Reserve a flow-tagged transfer of `bytes` on `res`, with the
    /// payload ready at `at`, posted to completion queue `cq` with `tag`:
    /// when the last byte arrives at the far side the tag is appended to
    /// the queue ([`crate::Ctx::wait_cq`], [`SimHandle::drain_cq`]).
    ///
    /// Disarmed (the default) the reservation and its one queued action
    /// are *call-for-call identical* to `transfer_from` + a
    /// [`SimHandle::schedule_at`] at `tr.arrive` that posts the
    /// completion — so traces are bit-identical to pre-contention builds.
    /// Armed, the transfer joins its flow's FIFO on the link and is
    /// served at the flow's fair share (module docs).
    pub fn transfer_qos(
        &self,
        res: ResourceId,
        flow: FlowId,
        at: SimTime,
        bytes: u64,
        (cq, tag): (CqId, u64),
    ) {
        let mut st = self.kernel.state.borrow_mut();
        st.cq_mut(cq).inflight += 1;
        if st.contention.is_none() {
            // Disarmed fast path: replicate the exact legacy call sequence
            // (one queue push at the arrival instant).
            let at = at.max(st.now());
            let tr = self.transfer_in(&mut st, res, at, bytes);
            let h = self.clone();
            let t = tr.arrive.max(st.now());
            self.push_action(&mut st, t, Box::new(move |_| h.post_cq(cq, tag)));
            let fs = st.flow_mut(flow);
            fs.stats.bytes += bytes;
            fs.stats.first_start = Some(fs.stats.first_start.unwrap_or(tr.start).min(tr.start));
            fs.stats.last_depart = fs.stats.last_depart.max(tr.depart);
            return;
        }
        // Armed: resolve any fault perturbation once at issue time (same
        // policy as the closed form — the window matching the projected
        // service start applies to the whole transfer), then hand the
        // wire bytes to the link's fair queue at the ready instant.
        st.flow_mut(flow); // reject a stale handle at issue, as the disarmed path does
        let now = st.now();
        let at = at.max(now);
        let mut wire = bytes as f64;
        let mut extra = Dur::ZERO;
        let mut ready = at;
        if st.fault.is_some() {
            let est = at.max(st.resources[res.index()].free_at());
            if let Some(p) = st.fault.as_mut().expect("checked").perturb(res, est) {
                wire = bytes as f64 * 1000.0 / p.factor_milli.max(1) as f64;
                extra = p.extra;
                ready = at.max(p.not_before);
            }
        }
        st.resources[res.index()].note_bytes(bytes);
        let h = self.clone();
        self.push_action(
            &mut st,
            ready,
            Box::new(move |_| h.qos_enqueue(res, flow, wire, bytes, extra, (cq, tag))),
        );
    }

    /// Armed-path enqueue, run as a scheduled action at the transfer's
    /// ready instant: accrue service to date, join the flow's FIFO, and
    /// re-price the link. A transfer whose completion queue was released
    /// in the meantime (its issuer gave up on it) is dropped here instead,
    /// before its flow — possibly released and recycled since — is
    /// touched.
    fn qos_enqueue(
        &self,
        res: ResourceId,
        flow: FlowId,
        wire: f64,
        logical: u64,
        extra: Dur,
        (cq, tag): (CqId, u64),
    ) {
        let mut st = self.kernel.state.borrow_mut();
        if st.live_cq(cq).is_none() {
            return;
        }
        let now = st.now();
        let fs = st.flow_mut(flow);
        fs.stats.first_start = Some(fs.stats.first_start.unwrap_or(now).min(now));
        {
            let s = &mut *st;
            let c = s.contention.as_mut().expect("qos_enqueue with contention disarmed");
            let ls = c.links.entry(res.index()).or_default();
            // Re-pricing happens only when the backlogged *flow set*
            // changes. Queuing behind an already-backlogged flow alters
            // no share: the live head pricing stands, and a lone flow's
            // transfers keep the closed form's single-`ceil` arithmetic
            // (re-pricing mid-service would split one service interval
            // into separately-rounded segments and drift off it).
            let qt = QTransfer { remaining: wire, logical, flow, cq, tag, extra };
            let was_backlogged = ls.queues.get(&flow.idx).is_some_and(|q| !q.is_empty());
            if was_backlogged {
                ls.queues.get_mut(&flow.idx).expect("backlogged queue vanished").push_back(qt);
                return; // shares unchanged; no re-pricing
            }
            let bpns = s.resources[res.index()].bytes_per_ns();
            ls.advance(now, bpns, &s.flows);
            ls.queues.entry(flow.idx).or_default().push_back(qt);
            ls.gen += 1;
        }
        self.qos_reschedule(&mut st, res);
    }

    /// Head-finish action for generation `gen` of `res`'s link. Stale
    /// generations (the queue changed since this action was scheduled)
    /// fall through without touching anything.
    pub(crate) fn qos_service(&self, res: ResourceId, gen: u64) {
        let mut st = self.kernel.state.borrow_mut();
        let now = st.now();
        let mut completions: Vec<(CqId, u64, SimTime)> = Vec::new();
        {
            let s = &mut *st;
            let Some(c) = s.contention.as_mut() else { return };
            let Some(ls) = c.links.get_mut(&res.index()) else { return };
            if ls.gen != gen {
                return;
            }
            let bpns = s.resources[res.index()].bytes_per_ns();
            let latency = s.resources[res.index()].latency();
            ls.advance(now, bpns, &s.flows);
            let done = ls.take_finished();
            ls.gen += 1;
            for qt in done {
                let fs = s.flow_mut(qt.flow);
                fs.stats.bytes += qt.logical;
                fs.stats.last_depart = fs.stats.last_depart.max(now);
                s.resources[res.index()].bump_free_at(now);
                completions.push((qt.cq, qt.tag, now + latency + qt.extra));
            }
        }
        for (cq, tag, t) in completions {
            let h = self.clone();
            self.push_action(&mut st, t, Box::new(move |_| h.post_cq(cq, tag)));
        }
        self.qos_reschedule(&mut st, res);
    }

    /// Schedule the next head-finish action for `res` at current shares,
    /// tagged with the link's present generation.
    fn qos_reschedule(&self, st: &mut KState, res: ResourceId) {
        let now = st.now();
        let (finish, gen) = {
            let s = &mut *st;
            let Some(c) = s.contention.as_ref() else { return };
            let Some(ls) = c.links.get(&res.index()) else { return };
            let bpns = s.resources[res.index()].bytes_per_ns();
            match ls.next_finish(now, bpns, &s.flows) {
                Some(finish) => (finish, ls.gen),
                None => return,
            }
        };
        let h = self.clone();
        self.push_action(st, finish, Box::new(move |_| h.qos_service(res, gen)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Sim;
    use crate::{Ctx, Wait};

    /// Park on `cq` until `n` tags have been posted to it.
    fn wait_tags(ctx: &mut Ctx, cq: CqId, n: usize) {
        let mut tags = Vec::new();
        while tags.len() < n {
            ctx.wait_cq(cq, Wait::Block).unwrap();
            ctx.drain_cq(cq, &mut tags);
        }
    }

    /// Two equal-weight flows saturating one link split it evenly and the
    /// sum of achieved bandwidths equals capacity (work conservation).
    #[test]
    fn equal_flows_halve_the_link_and_conserve_work() {
        let sim = Sim::new();
        sim.enable_contention();
        let h = sim.handle();
        let res = h.new_resource(1.0, Dur::ZERO); // 1 B/ns
        let fa = h.new_flow(1000);
        let fb = h.new_flow(1000);
        let mut sim = sim;
        sim.spawn("a", move |ctx| {
            let cq = ctx.open_cq();
            ctx.transfer_qos(res, fa, SimTime::ZERO, 10_000, (cq, 0));
            wait_tags(ctx, cq, 1);
            assert_eq!(ctx.now(), SimTime(20_000), "half share doubles the service time");
        });
        sim.spawn("b", move |ctx| {
            let cq = ctx.open_cq();
            ctx.transfer_qos(res, fb, SimTime::ZERO, 10_000, (cq, 0));
            wait_tags(ctx, cq, 1);
        });
        let rep = sim.run().unwrap();
        assert_eq!(rep.end_time, SimTime(20_000));
        let (sa, sb) = (h.flow_stats(fa), h.flow_stats(fb));
        assert_eq!(sa.bytes + sb.bytes, 20_000);
        // 20k bytes over 20k ns on a 1 B/ns link: fully work-conserving.
        assert_eq!(sa.last_depart.max(sb.last_depart), SimTime(20_000));
    }

    /// A 4:1 weight split prices the heavy flow out proportionally, and
    /// the light flow speeds up to full rate once the heavy one drains.
    #[test]
    fn weighted_split_finishes_heavy_flow_first() {
        let sim = Sim::new();
        sim.enable_contention();
        let h = sim.handle();
        let res = h.new_resource(1.0, Dur::ZERO);
        let heavy = h.new_flow(4000);
        let light = h.new_flow(1000);
        let mut sim = sim;
        let done_heavy = std::rc::Rc::new(std::cell::Cell::new(SimTime::ZERO));
        let (dh1, dh2) = (done_heavy.clone(), done_heavy.clone());
        sim.spawn("heavy", move |ctx| {
            let cq = ctx.open_cq();
            ctx.transfer_qos(res, heavy, SimTime::ZERO, 8_000, (cq, 0));
            wait_tags(ctx, cq, 1);
            dh1.set(ctx.now());
        });
        sim.spawn("light", move |ctx| {
            let cq = ctx.open_cq();
            ctx.transfer_qos(res, light, SimTime::ZERO, 8_000, (cq, 0));
            wait_tags(ctx, cq, 1);
            // Light flow: 2000 B served at 1/5 rate while heavy drains
            // (10 000 ns), then 6000 B alone at full rate.
            assert_eq!(ctx.now(), SimTime(16_000));
        });
        sim.run().unwrap();
        // Heavy flow: 8000 B at 4/5 of 1 B/ns = 10 000 ns.
        assert_eq!(dh2.get(), SimTime(10_000));
    }

    /// A lone flow on an armed sim reproduces the closed-form FIFO times
    /// exactly — chunk for chunk, including the per-transfer ceil.
    #[test]
    fn single_flow_matches_closed_form_exactly() {
        let run = |armed: bool| -> SimTime {
            let sim = Sim::new();
            if armed {
                sim.enable_contention();
            }
            let h = sim.handle();
            let res = h.new_resource(3.0, Dur::nanos(500)); // non-divisible rate
            let flow = h.new_flow(1000);
            let mut sim = sim;
            sim.spawn("job", move |ctx| {
                let cq = ctx.open_cq();
                for i in 0..4 {
                    ctx.transfer_qos(res, flow, SimTime(i * 100), 10_000 + i * 7, (cq, i));
                }
                wait_tags(ctx, cq, 4);
            });
            sim.run().unwrap().end_time
        };
        assert_eq!(run(false), run(true));
    }

    /// Disarmed, `transfer_qos` replays bit-identically to a plain
    /// reservation whose arrival action posts a board (same end time
    /// *and* same entry count).
    #[test]
    fn disarmed_path_is_bit_identical_to_legacy_calls() {
        let run = |qos: bool| -> (SimTime, u64) {
            let mut sim = Sim::new();
            let h = sim.handle();
            let res = h.new_resource(2.0, Dur::nanos(40));
            let (flow, board) = (h.new_flow(1000), h.new_board());
            sim.spawn("job", move |ctx| {
                let cq = ctx.open_cq();
                for i in 0..5u64 {
                    let at = SimTime(i * 30);
                    if qos {
                        ctx.transfer_qos(res, flow, at, 4096, (cq, i));
                        wait_tags(ctx, cq, 1);
                    } else {
                        let tr = ctx.handle().transfer_from(res, at, 4096);
                        ctx.schedule_at(tr.arrive, move |h| h.board_post(board, 0, i));
                        ctx.board_waitsome(board, 0, 1, Wait::Block).unwrap();
                    }
                }
            });
            let rep = sim.run().unwrap();
            (rep.end_time, rep.entries_processed)
        };
        assert_eq!(run(true), run(false));
    }

    /// ROADMAP C(2): a released handle must not alias the slot's next
    /// owner — the recycled slot's counters belong to the new flow alone.
    #[test]
    #[should_panic(expected = "stale FlowId")]
    fn a_released_handle_is_rejected_after_its_slot_is_recycled() {
        let h = Sim::new().handle();
        let res = h.new_resource(1.0, Dur::ZERO);
        let old = h.new_flow(1000);
        h.release_flow(old);
        let new = h.new_flow(250);
        assert_eq!(new.index(), old.index(), "the slot is recycled");
        assert_ne!(new, old);
        h.reserve().transfer_flow(res, new, SimTime::ZERO, 4096);
        assert_eq!(h.flow_stats(new).bytes, 4096);
        h.flow_stats(old);
    }

    /// Releasing a flow that still has a transfer queued on an armed link
    /// would let the slot's next tenant be credited with its bytes: it is
    /// refused in every build, not only where debug assertions run.
    #[test]
    #[should_panic(expected = "still backlogged on an armed link")]
    fn releasing_a_backlogged_flow_is_refused() {
        let mut sim = Sim::new();
        sim.enable_contention();
        let res = sim.handle().new_resource(1.0, Dur::ZERO);
        sim.spawn("job", move |ctx| {
            let (flow, cq) = (ctx.new_flow(1000), ctx.open_cq());
            ctx.transfer_qos(res, flow, SimTime::ZERO, 10_000, (cq, 0));
            ctx.delay(Dur::nanos(100));
            ctx.release_cq(cq);
            ctx.release_flow(flow);
        });
        sim.run().unwrap();
    }

    /// A transfer whose completion queue is released before its ready
    /// instant is dropped when its enqueue fires: it never joins the fair
    /// queue, so the other flow keeps the whole link and its own flow is
    /// credited nothing, and nothing is left posted.
    #[test]
    fn a_released_transfer_is_dropped_at_enqueue() {
        let mut sim = Sim::new();
        sim.enable_contention();
        let h = sim.handle();
        let res = h.new_resource(1.0, Dur::ZERO);
        let (fa, fb) = (h.new_flow(1000), h.new_flow(1000));
        sim.spawn("a", move |ctx| {
            let cq = ctx.open_cq();
            ctx.transfer_qos(res, fa, SimTime(1_000), 10_000, (cq, 0));
            ctx.release_cq(cq);
            ctx.release_flow(fa);
        });
        sim.spawn("b", move |ctx| {
            let cq = ctx.open_cq();
            ctx.transfer_qos(res, fb, SimTime::ZERO, 10_000, (cq, 0));
            wait_tags(ctx, cq, 1);
            assert_eq!(ctx.now(), SimTime(10_000), "the dropped transfer took no share");
        });
        sim.run().unwrap();
        assert_eq!(h.flow_stats(fb).bytes, 10_000);
        assert_eq!((h.unconsumed_posts(), h.link_backlog(res), h.flows_in_use()), (0, 0, 1));
    }

    /// `purge_flow` drops a flow's queued transfers mid-service and
    /// re-prices the link: the surviving flow has served 2000 of its
    /// 10 000 B at half rate by the purge and finishes the rest alone.
    #[test]
    fn purging_a_flow_drops_its_queue_and_reprices_the_link() {
        let mut sim = Sim::new();
        sim.enable_contention();
        let h = sim.handle();
        let res = h.new_resource(1.0, Dur::ZERO);
        let (fa, fb) = (h.new_flow(1000), h.new_flow(1000));
        sim.spawn("a", move |ctx| {
            let cq = ctx.open_cq();
            for i in 0..3 {
                ctx.transfer_qos(res, fa, SimTime::ZERO, 10_000, (cq, i));
            }
            ctx.delay(Dur::nanos(4_000));
            assert_eq!(ctx.link_backlog(res), 4);
            ctx.release_cq(cq);
            ctx.purge_flow(fa);
            assert_eq!(ctx.link_backlog(res), 1);
            ctx.release_flow(fa);
        });
        sim.spawn("b", move |ctx| {
            let cq = ctx.open_cq();
            ctx.transfer_qos(res, fb, SimTime::ZERO, 10_000, (cq, 0));
            wait_tags(ctx, cq, 1);
            assert_eq!(ctx.now(), SimTime(12_000));
        });
        sim.run().unwrap();
        assert_eq!(h.flow_stats(fb).bytes, 10_000);
        assert_eq!((h.unconsumed_posts(), h.link_backlog(res)), (0, 0));
    }

    #[test]
    fn qos_class_weights_are_ordered() {
        assert!(QosClass::High.weight_milli() > QosClass::Normal.weight_milli());
        assert!(QosClass::Normal.weight_milli() > QosClass::Low.weight_milli());
        assert_eq!(QosClass::default(), QosClass::Normal);
    }
}
