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
//! [`crossover_bytes`] is the dispatch rule of [`CollEngine::Auto`]: it
//! prices both protocols from the same platform tables the engines use
//! and returns the largest size at which the LL/tree path still wins
//! with a safety margin, against the ring and the double binary tree;
//! above it, `Auto` runs whichever of those its other cuts pick.
//!
//! [`CollEngine::Auto`]: crate::CollEngine::Auto

use diomp_device::DeviceTable;
use diomp_sim::{FlowId, PlatformSpec};

use crate::dbt;
use crate::drive::{ChunkSend, Schedule, Segment};
use crate::ops::XcclOp;
use crate::ring::{self, RingConfig, Tuning};
use crate::tree;

/// Require the modelled fast-path time to beat the modelled ring time
/// by this factor before a protocol switch is chosen: the closed forms
/// are estimates, and a missed win is cheaper than a regression above
/// the crossover. Shared by the LL and DBT crossovers so both
/// boundaries are priced with the same conservatism.
pub(crate) const SAFETY: f64 = 1.25;

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
    /// dispatcher falls back to, and the one both crossover closed
    /// forms price against — the two may never diverge (the pre-PR 5
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
    /// Hard ceiling on the LL/tree fast path regardless of what the
    /// model says — a guardrail keeping `Auto` conservative where the
    /// closed forms are least trustworthy.
    pub small_max_bytes: u64,
}

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
    /// keeps the crossover pricing honest: the closed forms price the
    /// switch against exactly the ring that runs above it.
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
            // LL fused sends eagerly push the *whole* payload per hop:
            // a genuinely small-message regime. The pre-PR 5 1 MiB
            // ceiling was generous because the only alternative was the
            // ring; with the DBT covering the mid band, the LL guardrail
            // retreats to a faithful small-message bound.
            small_max_bytes: 256 << 10,
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

/// The size below which [`CollEngine::Auto`](crate::CollEngine::Auto)
/// takes the LL/tree fast path for `op` on `n` devices (`nrings` ring
/// rails on the fallback), in bytes. `0` means the ring always wins
/// (notably: all-gather, and single-device communicators).
///
/// Both sides are priced from the platform tables: the tree side pays
/// `⌈log2 n⌉` (doubled for allreduce: reduce + broadcast) rounds of
/// fused-send overhead + wire latency + payload at the conduit's
/// asymptotic single-message bandwidth; the ring side pays its full
/// step count at the ring engine's calibrated per-step cost plus
/// chunk-pipelined wire time on the rail bandwidth. The crossover is
/// the largest power-of-two size where the tree estimate, inflated by a
/// 25 % safety margin, still undercuts the ring estimate — and, where
/// the double binary tree is priced to beat the ring (the mid band of
/// [`crate::dbt_crossover_bytes`]), undercuts the DBT estimate too: the
/// LL band ends where the best alternative Auto owns gets cheaper, not
/// only the ring. The two tree protocols are weighed without the margin,
/// which guards leaving the ring.
pub fn crossover_bytes(
    platform: &PlatformSpec,
    op: &XcclOp,
    n: usize,
    nrings: usize,
    ac: &AutoConfig,
) -> u64 {
    if n < 2 || matches!(op, XcclOp::AllGather) {
        return 0;
    }
    let rounds = tree::rounds(n) as f64;
    let small_hops = match op {
        XcclOp::AllReduce { .. } => 2.0 * rounds,
        _ => rounds,
    };
    let ll_hop_us = ac.ll_hop_ns as f64 / 1000.0;
    let lat = platform.net.latency_us;
    // One fused message per hop at the tuned conduit's achieved rate.
    let ll_bw = platform.net.nic_gbps * ac.wire_eff() * 1e3; // B/µs
    let ring_chunk = ac.ring_for(op).chunk_bytes;
    let dbt = dbt::Price::of(platform, op, n, nrings, ring_chunk);
    let mut best = 0u64;
    for shift in 10..=40u32 {
        let s = 1u64 << shift;
        if s > ac.small_max_bytes {
            break;
        }
        let t_small = small_hops * (ll_hop_us + lat + s as f64 / ll_bw);
        // Ring side: the shared closed form both crossovers price
        // against, on the live ring chunking.
        let t_ring = ring::model_time_us(platform, op, n, nrings, ring_chunk, s as f64);
        let t_dbt = dbt.as_ref().map(|p| p.time_us(s as f64)).filter(|t| t * SAFETY <= t_ring);
        if t_small * SAFETY <= t_ring && t_dbt.is_none_or(|t_dbt| t_small <= t_dbt) {
            best = s;
        } else {
            break;
        }
    }
    best
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
        let j = seg.push(send, None, into[s].iter().copied());
        into[d].push(j);
    }
    sched.add(seg);
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use diomp_fabric::ReduceOp;

    #[test]
    fn crossover_is_zero_for_allgather_and_tiny_comms() {
        let p = PlatformSpec::platform_a();
        let ac = AutoConfig::for_platform(&p);
        assert_eq!(crossover_bytes(&p, &XcclOp::AllGather, 8, 4, &ac), 0);
        assert_eq!(crossover_bytes(&p, &XcclOp::Broadcast { root: 0 }, 1, 1, &ac), 0);
    }

    #[test]
    fn crossovers_are_positive_and_bounded_at_paper_scale() {
        // At the Fig. 6 device counts the tree must win somewhere below
        // the guardrail on every platform, for both measured ops. A's
        // allreduce band is the one that yields early: from 64 KiB its
        // double binary tree prices cheaper (64.6 vs 73.2 µs), so the
        // band ends at 32 KiB; B and C keep LL to the ring's cut.
        for (p, n, nrings) in [
            (PlatformSpec::platform_a(), 64usize, 4usize),
            (PlatformSpec::platform_b(), 64, 4),
            (PlatformSpec::platform_c(), 16, 1),
        ] {
            let ac = AutoConfig::for_platform(&p);
            for op in [XcclOp::Broadcast { root: 0 }, XcclOp::AllReduce { op: ReduceOp::SumF32 }] {
                let cut = crossover_bytes(&p, &op, n, nrings, &ac);
                let yields =
                    p.id == diomp_sim::PlatformId::A && matches!(op, XcclOp::AllReduce { .. });
                let floor = if yields { 32 << 10 } else { 64 << 10 };
                assert!(
                    (floor..=ac.small_max_bytes).contains(&cut),
                    "{}: {op:?} crossover {cut} must cover the small regime",
                    p.name
                );
                if yields {
                    assert_eq!(cut, 32 << 10, "A/64 allreduce: LL yields to the tree at 64 KiB");
                }
            }
        }
    }

    #[test]
    fn crossover_tracks_the_live_ring_config() {
        // The PR 5 headline bugfix: the LL↔ring switch point must be
        // priced against the ring Auto actually falls back to, so
        // changing the live ring chunking must move the crossover.
        let p = PlatformSpec::platform_c();
        let op = XcclOp::Broadcast { root: 0 };
        let mut ac = AutoConfig::for_platform(&p);
        let tuned = crossover_bytes(&p, &op, 16, 1, &ac);
        // A monolithic (unpipelined) ring pays the whole segment's wire
        // time on every hop, so the modelled ring slows down and the
        // fast path must extend.
        ac.ring_bcast = RingConfig { chunk_bytes: u64::MAX, max_inflight: 2 };
        let mono = crossover_bytes(&p, &op, 16, 1, &ac);
        assert!(
            mono > tuned,
            "crossover must move with the ring chunk: {mono} (monolithic) vs {tuned} (tuned)"
        );
        // The per-op threading matters too: an allreduce-config change
        // must not move the broadcast crossover.
        let mut ac2 = AutoConfig::for_platform(&p);
        ac2.ring_allred = RingConfig { chunk_bytes: u64::MAX, max_inflight: 2 };
        assert_eq!(crossover_bytes(&p, &op, 16, 1, &ac2), tuned);
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
        // Same shape, different platforms -> different crossovers.
        let ac_a = AutoConfig::for_platform(&PlatformSpec::platform_a());
        let ac_b = AutoConfig::for_platform(&PlatformSpec::platform_b());
        assert_ne!(ac_a.ll_hop_ns, ac_b.ll_hop_ns);
        let op = XcclOp::AllReduce { op: ReduceOp::SumF32 };
        let a = crossover_bytes(&PlatformSpec::platform_a(), &op, 64, 4, &ac_a);
        let b = crossover_bytes(&PlatformSpec::platform_b(), &op, 64, 4, &ac_b);
        // B's calibrated RCCL allreduce is far from the wire rate, so the
        // tree stays ahead much longer there than on A.
        assert!(b >= a, "platform B should keep the fast path at least as long as A");
    }
}
