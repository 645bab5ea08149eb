//! The transport autotuner (paper §IV–V portability): derive per-
//! platform, per-conduit transport parameters from the calibrated
//! platform tables instead of hard-coding constants.
//!
//! DiOMP's portability story is that the *runtime* adapts to the fabric:
//! the same program must pick sensible chunk sizes, queue counts and
//! collective protocols on Slingshot + A100, Slingshot + MI250X, and
//! NDR IB + GH200. The [`Tuner`] reads the [`diomp_sim::PlatformSpec`]
//! tables and answers three questions:
//!
//! * **How big must a pipeline chunk be?** Large enough that the
//!   conduit's per-operation overhead stops mattering: the knee of the
//!   conduit's achieved-bandwidth curve
//!   ([`diomp_sim::BwCurve::knee_bytes`] at [`KNEE_FRAC`] of the
//!   asymptote) — per-op overheads differ per platform and conduit, so
//!   the chunk size genuinely follows the tables.
//! * **How deep must the pipeline be?** Deep enough that wire latency
//!   plus injection overhead hide under one in-flight chunk; at the
//!   knee a chunk's wire time already dwarfs both, so a double-buffered
//!   window usually suffices (that is *why* the knee is the right chunk
//!   size).
//! * **Which collective protocol?** The [`CollEngine::Auto`] engine with
//!   an LL hop cost read from the active conduit's tables; each
//!   communicator prices its regimes' own schedules to place the cuts
//!   ([`diomp_xccl::XcclComm::auto_regimes`]).
//!
//! Precedence everywhere: **explicit config > tuned > disabled** — an
//! explicit [`PipelineConfig`]/[`CollEngine`] always wins, `.tuned()`
//! derives from the tables, and the base default stays disabled/ring so
//! the paper's published (unpipelined) curves reproduce unchanged.

use diomp_fabric::ReduceOp;
use diomp_sim::{BwCurve, PlatformId, PlatformSpec};
use diomp_xccl::{default_nrings, AutoConfig, CollEngine, RingConfig, XcclOp};

use crate::config::{Conduit, PipelineConfig};

/// Fraction of the conduit's asymptotic bandwidth a single chunk must
/// achieve: the knee query that sizes pipeline chunks. 0.95 keeps the
/// amortised per-chunk overhead near 5 %.
pub const KNEE_FRAC: f64 = 0.95;

/// Pipeline chunk offsets are kept 4 KiB-aligned (page granularity for
/// the host staging buffers).
const CHUNK_ALIGN: u64 = 4 << 10;

/// Derived transport parameters for one `(platform, conduit)` pair — the
/// autotuner's output, kept as a plain value so benches and docs can
/// print per-platform tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneTable {
    /// Which paper platform the parameters were derived for.
    pub platform: PlatformId,
    /// Which conduit they apply to.
    pub conduit: Conduit,
    /// Knee-derived large-message RMA pipeline parameters.
    pub pipeline: PipelineConfig,
    /// Collective protocol-selection parameters (LL hop cost and
    /// efficiency, and the live per-op ring fallbacks) for
    /// [`CollEngine::Auto`].
    pub auto: AutoConfig,
}

/// The transport autotuner: queries the platform tables and derives
/// [`TuneTable`]s. See the module docs for the derivations.
pub struct Tuner<'a> {
    platform: &'a PlatformSpec,
    conduit: Conduit,
}

impl<'a> Tuner<'a> {
    /// Tuner for one `(platform, conduit)` pair.
    pub fn new(platform: &'a PlatformSpec, conduit: Conduit) -> Self {
        Tuner { platform, conduit }
    }

    /// The conduit's single-operation achieved-bandwidth curve. A GPI-2
    /// request on a platform without GPI-2 falls back to the GASNet-EX
    /// curve (mirroring the runtime, which cannot run GPI-2 there
    /// either).
    fn rma_curve(&self) -> BwCurve {
        match self.conduit {
            Conduit::GasnetEx => self.platform.gasnet_rma_curve(),
            Conduit::Gpi2 => {
                self.platform.gpi_rma_curve().unwrap_or_else(|| self.platform.gasnet_rma_curve())
            }
        }
    }

    /// Per-operation initiator overhead of the conduit, µs (what a chunk
    /// or a fused LL send pays before touching the wire) — the sim's
    /// shared per-conduit formulas, GASNet fallback where GPI-2 is
    /// unavailable.
    fn op_overhead_us(&self) -> f64 {
        match self.conduit {
            Conduit::Gpi2 => self
                .platform
                .gpi_op_overhead_us()
                .unwrap_or_else(|| self.platform.gasnet_op_overhead_us()),
            Conduit::GasnetEx => self.platform.gasnet_op_overhead_us(),
        }
    }

    /// Asymptotic wire efficiency of the active conduit (same fallback).
    fn wire_eff(&self) -> f64 {
        match (self.conduit, &self.platform.gpi) {
            (Conduit::Gpi2, Some(g)) => g.eff,
            _ => self.platform.gasnet.eff,
        }
    }

    /// Knee-derived RMA pipeline parameters (see module docs):
    /// `chunk_bytes` from the conduit curve's [`KNEE_FRAC`] knee;
    /// `max_inflight` holds one chunk on the wire, one in a host staging
    /// copy (D2H/H2D runs nearly as long as a wire chunk on every
    /// platform, so the staged regimes need a slot for it), plus enough
    /// to cover latency + injection overhead; `n_queues` is two per NIC
    /// for GPI-2 (so queue drains interleave across rails) and a single
    /// logical queue for GASNet-EX (which has no queue concept).
    pub fn pipeline(&self) -> PipelineConfig {
        let curve = self.rma_curve();
        let knee = curve.knee_bytes(KNEE_FRAC);
        let chunk_bytes = knee.div_ceil(CHUNK_ALIGN) * CHUNK_ALIGN;
        let chunk_us = chunk_bytes as f64 / (curve.asymptote_gbps() * 1e3);
        let cover = (self.platform.net.latency_us + self.op_overhead_us()) / chunk_us;
        let max_inflight = (cover.ceil() as usize + 2).clamp(3, 8);
        let n_queues = match self.conduit {
            Conduit::GasnetEx => 1,
            Conduit::Gpi2 => (2 * self.platform.net.nics_per_node).clamp(1, 8) as u8,
        };
        PipelineConfig { chunk_bytes, max_inflight, n_queues }
    }

    /// Table-tuned ring chunk/window for `op` — [`RingConfig::auto`] at
    /// the platform's full-node rail count ([`default_nrings`]). The
    /// per-chunk step cost and the per-edge bottleneck bandwidth both
    /// come from the platform's collective tables, so the derived
    /// chunks genuinely differ per platform *and* per op class.
    pub fn ring_config(&self, op: &XcclOp) -> RingConfig {
        RingConfig::auto(self.platform, op, default_nrings(self.platform))
    }

    /// Protocol-selection parameters for [`CollEngine::Auto`]: the LL
    /// hop cost and wire efficiency are the active conduit's fused-send
    /// initiation cost and asymptotic efficiency (no separate completion
    /// round — the flag rides with the payload), through
    /// [`AutoConfig::for_conduit`], the single home of the conversions.
    /// The *live* tuned ring configurations are threaded in, so the
    /// regimes Auto prices are the ones it runs.
    pub fn auto_config(&self) -> AutoConfig {
        AutoConfig::for_conduit(
            self.op_overhead_us(),
            self.wire_eff(),
            self.ring_config(&XcclOp::Broadcast { root: 0 }),
            self.ring_config(&XcclOp::AllReduce { op: ReduceOp::SumF32 }),
        )
    }

    /// The tuned collective engine.
    pub fn coll_engine(&self) -> CollEngine {
        CollEngine::Auto(self.auto_config())
    }

    /// The full derived parameter set.
    pub fn table(&self) -> TuneTable {
        TuneTable {
            platform: self.platform.id,
            conduit: self.conduit,
            pipeline: self.pipeline(),
            auto: self.auto_config(),
        }
    }
}

impl TuneTable {
    /// Derive the table for one `(platform, conduit)` pair.
    pub fn derive(platform: &PlatformSpec, conduit: Conduit) -> TuneTable {
        Tuner::new(platform, conduit).table()
    }

    /// Table-tuned ring chunk/window for broadcast-shaped collectives
    /// (broadcast, all-gather) — a view of the live config carried in
    /// [`TuneTable::auto`], so the reported value and the engine's
    /// fallback can never diverge.
    pub fn ring_bcast(&self) -> RingConfig {
        self.auto.ring_bcast
    }

    /// Table-tuned ring chunk/window for allreduce-shaped collectives
    /// (allreduce, reduce) — same single source as
    /// [`TuneTable::ring_bcast`].
    pub fn ring_allred(&self) -> RingConfig {
        self.auto.ring_allred
    }

    /// Tables for every paper platform over its supported conduits, in
    /// figure order (the per-platform defaults documented in the README).
    pub fn all() -> Vec<TuneTable> {
        let mut out = Vec::new();
        for p in PlatformSpec::all() {
            out.push(TuneTable::derive(&p, Conduit::GasnetEx));
            if p.gpi.is_some() {
                out.push(TuneTable::derive(&p, Conduit::Gpi2));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_parameters_differ_across_platforms() {
        // The acceptance bar of the autotuner: parameters must come from
        // the tables, not constants — at least two platforms disagree.
        let a = TuneTable::derive(&PlatformSpec::platform_a(), Conduit::GasnetEx);
        let b = TuneTable::derive(&PlatformSpec::platform_b(), Conduit::GasnetEx);
        let c = TuneTable::derive(&PlatformSpec::platform_c(), Conduit::GasnetEx);
        assert_ne!(a.pipeline.chunk_bytes, b.pipeline.chunk_bytes);
        assert_ne!(a.pipeline.chunk_bytes, c.pipeline.chunk_bytes);
        assert_ne!(a.auto.ll_hop_ns, c.auto.ll_hop_ns);
    }

    #[test]
    fn conduits_tune_differently_on_the_infiniband_platform() {
        let c = PlatformSpec::platform_c();
        let gasnet = TuneTable::derive(&c, Conduit::GasnetEx);
        let gpi = TuneTable::derive(&c, Conduit::Gpi2);
        assert_ne!(gasnet.pipeline.chunk_bytes, gpi.pipeline.chunk_bytes);
        assert_eq!(gasnet.pipeline.n_queues, 1, "GASNet-EX has no queues");
        assert!(gpi.pipeline.n_queues >= 2, "GPI-2 spreads across queues");
        assert_ne!(gasnet.auto.ll_hop_ns, gpi.auto.ll_hop_ns);
    }

    #[test]
    fn tuned_chunks_sit_at_the_conduit_knee() {
        for p in PlatformSpec::all() {
            let t = Tuner::new(&p, Conduit::GasnetEx);
            let pipe = t.pipeline();
            let curve = p.gasnet_rma_curve();
            // The chunk achieves ≈ KNEE_FRAC of asymptotic bandwidth and
            // is meaningfully smaller than the old 4 MiB constant.
            let frac = curve.gbps(pipe.chunk_bytes) / curve.asymptote_gbps();
            assert!(
                (frac - KNEE_FRAC).abs() < 0.02,
                "{}: chunk {} achieves {frac:.3} of asymptote",
                p.name,
                pipe.chunk_bytes
            );
            assert!(pipe.chunk_bytes.is_multiple_of(CHUNK_ALIGN));
            assert!((2..=8).contains(&pipe.max_inflight));
            assert!(pipe.pipelines(pipe.chunk_bytes + 1));
        }
    }

    #[test]
    fn gpi_request_on_non_ib_platform_falls_back_to_gasnet() {
        let a = PlatformSpec::platform_a();
        assert_eq!(
            TuneTable::derive(&a, Conduit::Gpi2).pipeline.chunk_bytes,
            TuneTable::derive(&a, Conduit::GasnetEx).pipeline.chunk_bytes
        );
    }

    #[test]
    fn derived_defaults_match_the_documented_tables() {
        // README.md ("The transport autotuner") and docs/ARCHITECTURE.md
        // print these exact derived values; DESIGN.md D12/D13 quote the
        // chunk sizes. If this test fails after a deliberate change to
        // the knee fractions, CHUNK_ALIGN, or the platform tables,
        // update those three docs alongside the expectations here.
        // Columns: RMA pipeline chunk, LL hop, ring chunk/window for the
        // broadcast-shaped and allreduce-shaped op classes.
        let expect = [
            (PlatformId::A, Conduit::GasnetEx, 684032u64, 1500u64, (4096u64, 7), (16384u64, 5)),
            (PlatformId::B, Conduit::GasnetEx, 598016, 1400, (4096, 4), (4096, 3)),
            (PlatformId::C, Conduit::GasnetEx, 978944, 2100, (28672, 5), (36864, 4)),
            (PlatformId::C, Conduit::Gpi2, 864256, 1800, (28672, 5), (36864, 4)),
        ];
        let all = TuneTable::all();
        assert_eq!(all.len(), expect.len());
        for (t, (pid, conduit, chunk, hop_ns, bcast, allred)) in all.iter().zip(expect) {
            assert_eq!((t.platform, t.conduit), (pid, conduit));
            assert_eq!(t.pipeline.chunk_bytes, chunk, "{pid:?}/{conduit:?} documented chunk");
            assert_eq!(t.pipeline.max_inflight, 3, "{pid:?}/{conduit:?} documented window");
            assert_eq!(t.auto.ll_hop_ns, hop_ns, "{pid:?}/{conduit:?} documented LL hop");
            assert_eq!(
                (t.ring_bcast().chunk_bytes, t.ring_bcast().max_inflight),
                bcast,
                "{pid:?}/{conduit:?} documented bcast ring tuning"
            );
            assert_eq!(
                (t.ring_allred().chunk_bytes, t.ring_allred().max_inflight),
                allred,
                "{pid:?}/{conduit:?} documented allred ring tuning"
            );
        }
    }

    #[test]
    fn tuned_rings_are_threaded_live_and_differ_per_op() {
        // The PR 5 headline bugfix at the tuner level: the AutoConfig the
        // engine runs must carry exactly the per-op ring derivation
        // (the ring Auto prices is the ring it runs), and the
        // derivation is genuine — the op classes' calibrated step costs
        // differ, so their rings do too.
        let platform = PlatformSpec::platform_a();
        let tuner = Tuner::new(&platform, Conduit::GasnetEx);
        let a = tuner.table();
        assert_eq!(a.ring_bcast(), tuner.ring_config(&XcclOp::Broadcast { root: 0 }));
        assert_eq!(a.ring_allred(), tuner.ring_config(&XcclOp::AllReduce { op: ReduceOp::SumF32 }));
        assert_ne!(a.ring_bcast(), a.ring_allred(), "op classes must tune differently on A");
    }

    #[test]
    fn all_tables_cover_platforms_and_conduits() {
        let all = TuneTable::all();
        assert_eq!(all.len(), 4, "A, B, C over GASNet + C over GPI-2");
        assert!(all.iter().any(|t| t.platform == PlatformId::C && t.conduit == Conduit::Gpi2));
    }
}
