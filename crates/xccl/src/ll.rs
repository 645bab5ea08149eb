//! The LL-style small-message engine: fused eager sends over binomial
//! trees.
//!
//! NCCL's LL ("low latency") protocol sends small payloads as fused
//! data+flag lines: one eager message per peer, no chunk windowing, no
//! separate completion handshake — the receiver polls the flag that
//! arrives *with* the data. That is what produces the small-size dips of
//! the fitted Fig. 6 curves which a pure chunk-pipelined ring cannot
//! reproduce: below the bandwidth crossover the ring pays `n−1` (or
//! `2(n−1)`) serial step latencies where a tree pays `⌈log2 n⌉`.
//!
//! This module emits the [`crate::tree`] hop lists as a
//! [`crate::drive::Schedule`] with exactly that transport: each hop is
//! one send that pays one small software overhead
//! ([`AutoConfig::ll_hop_ns`], derived by the transport autotuner from
//! the platform's conduit tables — a fused write needs only the
//! conduit's initiation cost, not the ring engine's per-step
//! processing), then occupies the sender's link resource with the whole
//! payload as one message. The shared drivers march it like every other
//! regime's schedule, so link FIFO serialisation, QoS flow accounting,
//! weighted-fair contention and fault perturbation apply to LL traffic
//! exactly as they do to chunked traffic.
//!
//! [`CollEngine::Auto`] runs it up to the largest size at which its
//! schedule's price undercuts the ring's and the double binary tree's
//! ([`crate::XcclComm::auto_regimes`]).
//!
//! [`CollEngine::Auto`]: crate::CollEngine::Auto

use diomp_device::DeviceTable;
use diomp_sim::{FlowId, PlatformSpec};

use crate::drive::{ChunkSend, Schedule, Segment};
use crate::ops::XcclOp;
use crate::ring::{self, RingConfig, Tuning};
use crate::tree;

/// Configuration of the [`CollEngine::Auto`](crate::CollEngine::Auto)
/// engine: the small-message fast path, the mid-band double-binary-tree
/// band, and the ring fallback.
///
/// Constructed by the transport autotuner (`diomp-core`'s `Tuner`
/// derives the LL hop cost and the tuned ring configs from the active
/// conduit's tables); [`AutoConfig::for_platform`] gives the
/// GASNet-EX-based derivation when only the platform is known.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AutoConfig {
    /// Ring engine used above the crossovers for broadcast-shaped ops
    /// (broadcast, and all-gather — which has no latency-bound regime;
    /// every byte must travel anyway). This is the *live* ring the
    /// dispatcher falls back to, and the one Auto's scans price the
    /// crossovers against — the two may never diverge (the pre-PR 5
    /// bug priced the switch against `RingConfig::default()` even when
    /// the engine ran a custom ring).
    pub ring_bcast: RingConfig,
    /// Ring engine used above the crossovers for allreduce-shaped ops
    /// (allreduce, reduce) — tuned separately because the per-step
    /// processing cost of a reduction differs from a copy in the
    /// platform tables.
    pub ring_allred: RingConfig,
    /// Per-hop software cost of one fused payload+flag eager send, in
    /// nanoseconds (integer so the engine selector stays `Eq`). Derived
    /// from the conduit tables: write initiation (+ GPU registration or
    /// notification post), with no separate completion round.
    pub ll_hop_ns: u64,
    /// Fraction of raw inter-node wire bandwidth one fused eager send
    /// achieves, in thousandths (integer for `Eq`). Comes from the same
    /// conduit tables as the hop cost, so a GPI-2-tuned engine prices
    /// its wire term with GPI-2's efficiency, not GASNet's.
    pub wire_eff_milli: u16,
}

/// The largest payload `Auto` sends eagerly. A fused send carries its
/// whole payload at the conduit's single-message efficiency, not the
/// library's calibrated rate, so on platform B — whose calibrated rate
/// is under 3 % of the wire — LL's price undercuts both chunked
/// protocols up to the top of the scan. NCCL's LL is a small-message
/// protocol; past this size its price is not the library's.
pub(crate) const MAX_BYTES: u64 = 256 << 10;

impl AutoConfig {
    /// Derive the LL transport cost from the platform's GASNet-EX tables
    /// (initiator software + GPU segment registration,
    /// [`PlatformSpec::gasnet_op_overhead_us`]; the flag rides in the
    /// same message for free — that is the LL trick), and the ring
    /// fallbacks from the same tables via [`RingConfig::auto`] at the
    /// platform's full-node rail count.
    pub fn for_platform(p: &PlatformSpec) -> Self {
        let nrings = crate::ring::default_nrings(p);
        Self::for_conduit(
            p.gasnet_op_overhead_us(),
            p.gasnet.eff,
            RingConfig::auto(p, &XcclOp::Broadcast { root: 0 }, nrings),
            RingConfig::auto(p, &XcclOp::AllReduce { op: diomp_fabric::ReduceOp::SumF32 }, nrings),
        )
    }

    /// Build from a conduit's per-operation overhead (µs), asymptotic
    /// wire efficiency, and the *live* ring configurations the engine
    /// will fall back to — the single place the fixed-point conversions
    /// live, shared by [`Self::for_platform`] and the core `Tuner`'s
    /// per-conduit derivation. Threading the rings through here is what
    /// keeps the crossover pricing honest: Auto prices the switch from
    /// the schedule of exactly the ring that runs above it.
    pub fn for_conduit(
        op_overhead_us: f64,
        wire_eff: f64,
        ring_bcast: RingConfig,
        ring_allred: RingConfig,
    ) -> Self {
        debug_assert!(
            op_overhead_us.is_finite() && op_overhead_us >= 0.0,
            "conduit op overhead must be finite and non-negative, got {op_overhead_us}"
        );
        debug_assert!(
            wire_eff.is_finite() && wire_eff > 0.0 && wire_eff <= 1.0,
            "conduit wire efficiency must be a positive fraction in (0, 1], got {wire_eff}"
        );
        AutoConfig {
            ring_bcast,
            ring_allred,
            ll_hop_ns: (op_overhead_us * 1000.0).ceil() as u64,
            // Clamp at conversion time so even a sub-half-milli (but
            // positive) efficiency keeps a representable floor instead
            // of silently collapsing to a 1000× slower wire at read
            // time (the pre-PR 5 clamp lived in `wire_eff()` and masked
            // misconfigured conduits).
            wire_eff_milli: (wire_eff * 1000.0).round().clamp(1.0, 1000.0) as u16,
        }
    }

    /// The live ring configuration the dispatcher falls back to for
    /// `op` — per op class, because the platform tables price a
    /// reduction step differently from a copy step.
    pub fn ring_for(&self, op: &XcclOp) -> RingConfig {
        match op {
            XcclOp::Broadcast { .. } | XcclOp::AllGather => self.ring_bcast,
            XcclOp::AllReduce { .. } | XcclOp::Reduce { .. } => self.ring_allred,
        }
    }

    /// The wire efficiency as a fraction. The conversion in
    /// [`Self::for_conduit`] guarantees at least one thousandth, so no
    /// read-time clamp is needed (or wanted — it would mask a zeroed
    /// field as a 1000× slower wire).
    pub(crate) fn wire_eff(&self) -> f64 {
        f64::from(self.wire_eff_milli) / 1000.0
    }

    /// The LL transport in the shape the collective runner takes, from
    /// the ring's constants for the same op: a fused send pays only the
    /// conduit's initiation cost per hop — at the sender, and once more
    /// for the receive-side flag poll of the final line — and crosses
    /// nodes at the conduit's single-message efficiency.
    pub(crate) fn ll_tuning(&self, ring: Tuning) -> Tuning {
        Tuning { step_us: self.ll_hop_ns.max(1) as f64 / 1e3, inter_eff: self.wire_eff(), ..ring }
    }
}

/// Emit the LL/tree schedule: one fused message per binomial-tree hop,
/// each on a lane of its own (no chunking, no windowing), enabled by the
/// arrival of every message into its sender — the partials of the
/// sender's subtree (reduce) or the payload from its parent (broadcast).
/// A single-repeat [`Segment`]: the hop list has no period.
///
/// `order` is the communicator's ring order and `root_pos` the root's
/// position in it for rooted ops; the symmetric allreduce reduces to
/// position 0 and broadcasts back. `t` is [`AutoConfig::ll_tuning`].
pub(crate) fn schedule(
    devs: &DeviceTable,
    order: &[usize],
    flow: FlowId,
    op: XcclOp,
    root_pos: Option<usize>,
    len: u64,
    t: &Tuning,
) -> Schedule {
    let n = order.len();
    let hops = match op {
        XcclOp::Broadcast { .. } => {
            tree::bcast_hops(n, root_pos.expect("broadcast without a root"))
        }
        XcclOp::Reduce { .. } => tree::reduce_hops(n, root_pos.expect("reduce without a root")),
        XcclOp::AllReduce { .. } => [tree::reduce_hops(n, 0), tree::bcast_hops(n, 0)].concat(),
        XcclOp::AllGather => unreachable!("all-gather never takes the LL path"),
    };
    let mut sched = Schedule::new(hops.len());
    let mut seg = Segment::new(1);
    // Per position: the sends that land on it, emitted so far. Both hop
    // lists put every hop into a device ahead of the hops out of it.
    let mut into: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (lane, (s, d)) in hops.into_iter().enumerate() {
        let edge = ring::link(devs, order[s], order[d]);
        let send = ChunkSend { res: edge.res, lane: lane as u32, wire: t.wire(edge, len), flow };
        let j = seg.push(send, &[], into[s].iter().copied());
        into[d].push(j);
    }
    sched.add(seg);
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::probe::{self, allred};
    use crate::CollEngine;
    use diomp_sim::FaultPlan;

    #[test]
    fn crossover_is_zero_for_allgather_and_tiny_comms() {
        let a = PlatformSpec::platform_a();
        assert_eq!(probe::cuts(a.clone(), (2, 4), 0, XcclOp::AllGather), (0, 0, 0));
        assert_eq!(probe::cuts(a, (1, 1), 0, XcclOp::Broadcast { root: 0 }), (0, 0, 0));
    }

    #[test]
    fn crossovers_are_positive_and_bounded_at_paper_scale() {
        // At the Fig. 6 device counts the priced LL band never passes
        // MAX_BYTES. On B it spans the small regime for allreduce, and
        // for broadcast up to 32 KiB, above which the fed tree's one rail
        // per NIC undercuts it; on C/16 it spans it for allreduce. On A —
        // and for C's broadcast — the double binary tree undercuts LL
        // from 1 KiB up (A/64 32 KiB allreduce: tree 90.5 µs against LL's
        // 104.0), so the band is empty.
        let bcast = XcclOp::Broadcast { root: 0 };
        for (p, nodes, want) in [
            (PlatformSpec::platform_a(), 16, [0, 0]),
            (PlatformSpec::platform_b(), 8, [32 << 10, MAX_BYTES]),
            (PlatformSpec::platform_c(), 16, [0, MAX_BYTES]),
        ] {
            let gpn = p.gpus_per_node;
            let got = [bcast, allred()].map(|op| probe::cuts(p.clone(), (nodes, gpn), 0, op).0);
            assert_eq!(got, want, "{}: LL cuts (broadcast, allreduce)", p.name);
        }
    }

    #[test]
    fn crossover_tracks_the_live_ring_config() {
        // The live-ring pricing rule: the LL switch point must be priced
        // against the chunked protocols Auto actually falls back to, so a
        // live broadcast chunking of 512 B — a step per 512 B, on the
        // ring and the tree alike — must extend the LL band (on C/16 from
        // nothing to MAX_BYTES), and an allreduce-config change must not
        // move the broadcast cut.
        let p = PlatformSpec::platform_c();
        let op = XcclOp::Broadcast { root: 0 };
        let cut = |ac: AutoConfig| {
            let engine = CollEngine::Auto(ac);
            probe::comm(
                p.clone(),
                (16, 1),
                0,
                engine,
                |_| FaultPlan::new(),
                move |c| c.auto_regimes(&op).unwrap().0,
            )
        };
        let tuned = AutoConfig::for_platform(&p);
        let tiny = RingConfig { chunk_bytes: 512, max_inflight: 2 };
        assert_eq!(cut(tuned), 0);
        assert_eq!(cut(AutoConfig { ring_bcast: tiny, ..tuned }), MAX_BYTES);
        assert_eq!(cut(AutoConfig { ring_allred: tiny, ..tuned }), 0);
    }

    #[test]
    fn wire_eff_round_trips_at_the_extremes() {
        let rings = (RingConfig::default(), RingConfig::default());
        for eff in [0.001, 0.0004, 0.5, 0.9995, 1.0] {
            let ac = AutoConfig::for_conduit(1.0, eff, rings.0, rings.1);
            let got = ac.wire_eff();
            assert!(got > 0.0, "eff {eff} must never collapse to zero");
            assert!(got <= 1.0, "eff {eff} must stay a fraction, got {got}");
            // Fixed-point granularity is one thousandth; the conversion
            // floor is the only deviation allowed beyond rounding.
            assert!(
                (got - eff).abs() <= 0.0005 + 1e-12 || (eff < 0.0005 && got == 0.001),
                "eff {eff} round-tripped to {got}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "wire efficiency")]
    #[cfg(debug_assertions)]
    fn zero_wire_efficiency_is_rejected_not_masked() {
        // The pre-PR 5 clamp silently turned a zeroed efficiency into a
        // 1000× slower wire; now the constructor refuses it outright.
        let _ = AutoConfig::for_conduit(1.0, 0.0, RingConfig::default(), RingConfig::default());
    }

    #[test]
    fn crossover_derives_from_the_tables_not_constants() {
        // Same shape, different platforms -> different crossovers. B's
        // calibrated RCCL allreduce is far from the wire rate, so the
        // tree stays ahead much longer there than on A.
        let (a, b) = (PlatformSpec::platform_a(), PlatformSpec::platform_b());
        assert_ne!(AutoConfig::for_platform(&a).ll_hop_ns, AutoConfig::for_platform(&b).ll_hop_ns);
        let cut_a = probe::cuts(a, (16, 4), 0, allred()).0;
        let cut_b = probe::cuts(b, (8, 8), 0, allred()).0;
        assert!(cut_b > cut_a, "platform B keeps the fast path longer: {cut_b} vs {cut_a}");
    }
}
