//! Runtime configuration.
//!
//! Construction is staged: [`DiompConfigBuilder`] records *what the
//! caller chose* (explicit knobs, plus whether autotuning was requested)
//! and [`DiompConfigBuilder::build`] resolves everything **once** —
//! defaults, then the autotuner for the final `(platform, conduit)`
//! pair, then explicit settings on top. Precedence (**explicit > tuned >
//! default**) is therefore order-independent by construction rather than
//! by careful re-derivation inside each setter, which is what the
//! (since-removed) mutate-in-place setters on [`DiompConfig`] had to do.

use diomp_device::DataMode;
use diomp_sim::{ClusterSpec, PlatformSpec, QosClass};
use diomp_xccl::{CollEngine, ServerSpec};

use crate::galloc::AllocKind;

/// Which communication middleware DiOMP runs over (paper §3.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Conduit {
    /// GASNet-EX (default; all platforms).
    GasnetEx,
    /// GPI-2 (InfiniBand platforms only).
    Gpi2,
}

/// Large-message RMA pipelining knobs (paper §3.2: overlapping
/// device-side copies with conduit transfers).
///
/// When enabled, inter-node transfers larger than `chunk_bytes` are split
/// into `chunk_bytes`-sized chunks that pipeline through the conduit:
/// chunk device-copies overlap in-flight network injections (bounded by
/// `max_inflight` staging slots), and chunk completions round-robin
/// across `n_queues` GPI-2 queues.
///
/// Three ways to obtain one, in precedence order (**explicit > tuned >
/// disabled**):
///
/// * an explicit literal / [`PipelineConfig::enabled`] always wins,
/// * [`PipelineConfig::auto`] derives the parameters from the platform
///   tables per conduit (the transport autotuner, [`crate::tune`]),
/// * the base default is [`PipelineConfig::disabled`] so the paper's
///   published curves — including the Fig. 4a Platform A put anomaly —
///   reproduce unchanged; the gate's `_pipelined` rows flip it on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PipelineConfig {
    /// Chunk size in bytes; inter-node messages strictly larger than this
    /// are pipelined. `u64::MAX` disables chunking.
    pub chunk_bytes: u64,
    /// Bound on staged chunks in flight per transfer (staging-slot ring).
    pub max_inflight: usize,
    /// GPI-2 queues chunk completions are round-robined across.
    pub n_queues: u8,
}

impl PipelineConfig {
    /// Pipelining on, with defaults tuned for the paper's platforms:
    /// 4 MiB chunks, 4 staging slots, 4 queues.
    pub fn enabled() -> Self {
        PipelineConfig { chunk_bytes: 4 << 20, max_inflight: 4, n_queues: 4 }
    }

    /// Pipelining off: every message is one monolithic transfer.
    pub fn disabled() -> Self {
        PipelineConfig { chunk_bytes: u64::MAX, max_inflight: 1, n_queues: 1 }
    }

    /// Tuned pipelining: parameters derived from `platform`'s calibrated
    /// tables for `conduit` by the transport autotuner — chunk size from
    /// the conduit curve's knee, window depth from latency coverage,
    /// queue count from the NIC layout. See [`crate::tune::Tuner`].
    pub fn auto(platform: &diomp_sim::PlatformSpec, conduit: Conduit) -> Self {
        crate::tune::Tuner::new(platform, conduit).pipeline()
    }

    /// Is a transfer of `len` bytes pipelined under this config?
    pub fn pipelines(&self, len: u64) -> bool {
        len > self.chunk_bytes
    }

    /// Chunk boundaries `(offset, len)` of a `len`-byte transfer: all
    /// chunks are `chunk_bytes` long except a possibly-shorter tail. A
    /// zero-length transfer still yields one `(0, 0)` chunk so callers
    /// issue exactly one conduit operation (overhead and completion
    /// semantics match the unchunked path).
    pub fn chunks(&self, len: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let chunk = self.chunk_bytes.max(1);
        (0..len.div_ceil(chunk).max(1)).map(move |i| (i * chunk, chunk.min(len - i * chunk)))
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Device-binding strategy (paper §3.3 "hierarchical device binding").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Binding {
    /// One device per rank — compatible with conventional MPI layouts.
    DevicePerRank,
    /// One rank per node owning every device on it — the single-process
    /// multi-GPU mode that keeps all CPU threads under one OpenMP runtime.
    RankPerNode,
}

/// Full configuration of a DiOMP job.
#[derive(Clone)]
pub struct DiompConfig {
    /// The simulated cluster.
    pub cluster: ClusterSpec,
    /// Device binding strategy.
    pub binding: Binding,
    /// Conduit selection.
    pub conduit: Conduit,
    /// Symmetric+asymmetric global heap size per device, bytes.
    pub heap_bytes: u64,
    /// Symmetric allocator strategy.
    pub allocator: AllocKind,
    /// Functional (real bytes) or CostOnly (paper-scale sweeps).
    pub mode: DataMode,
    /// Use GPUDirect P2P for intra-node transfers when available
    /// (disable to force the IPC staging path).
    pub use_p2p: bool,
    /// Large-message chunked pipelining (off by default; the paper's
    /// published curves are unpipelined).
    pub pipeline: PipelineConfig,
    /// GASPI recovery budget: how many times a GPI-2 post that hits an
    /// errored queue is retried (purge → back off → repost) before the
    /// [`crate::DiompError::Fabric`] error propagates to the caller.
    pub max_rma_retries: u32,
    /// Initial virtual-time backoff before the first repost; doubles on
    /// every subsequent retry of the same operation.
    pub retry_backoff_us: f64,
    /// OMPCCL completion-time engine: the chunk-pipelined ring protocol
    /// over the simulated links (default — Fig. 6 emerges from protocol
    /// structure), the autotuner's protocol-selecting
    /// [`CollEngine::Auto`], or the calibrated whole-collective profiles
    /// (the curve-fit path, kept for ablation).
    pub coll_engine: CollEngine,
    /// Dedicated in-network reduction servers (paper-style SHARP-like
    /// offload): carve this many nodes out of every communicator as
    /// data-passive reduction servers. Disabled by default — the
    /// published single-job curves carry no server nodes. With servers
    /// provisioned, large allreduces offload onto them (the fourth
    /// [`CollEngine::Auto`] regime, or [`CollEngine::ReductionServer`]
    /// explicitly); every other op, and every degraded case, falls back
    /// to the client-side schedules.
    pub coll_servers: ServerSpec,
    /// QoS class of this job's collective traffic on a shared fabric.
    /// Communicators created by the runtime charge their chunk transfers
    /// to a flow with this class's weight; on a contention-armed
    /// simulator concurrent jobs then fair-share each link by weight
    /// (see `diomp_sim::QosClass`). Irrelevant — and bit-neutral — when
    /// the simulator runs a single job or contention is disarmed.
    pub qos: QosClass,
}

impl DiompConfig {
    /// Sensible defaults for a cluster: device-per-rank binding, GASNet-EX
    /// conduit, 16 MiB functional heap, buddy allocator.
    pub fn new(cluster: ClusterSpec) -> Self {
        DiompConfig {
            cluster,
            binding: Binding::DevicePerRank,
            conduit: Conduit::GasnetEx,
            heap_bytes: 16 << 20,
            allocator: AllocKind::Buddy,
            mode: DataMode::Functional,
            use_p2p: true,
            pipeline: PipelineConfig::disabled(),
            max_rma_retries: 3,
            retry_backoff_us: 50.0,
            coll_engine: CollEngine::default(),
            coll_servers: ServerSpec::default(),
            qos: QosClass::default(),
        }
    }

    /// Convenience: platform + node count, all devices used.
    pub fn on_platform(platform: PlatformSpec, nodes: usize) -> Self {
        Self::new(ClusterSpec::full_nodes(platform, nodes))
    }

    /// Start a staged builder for a cluster — the supported way to
    /// configure a job. See [`DiompConfigBuilder`].
    pub fn builder(cluster: ClusterSpec) -> DiompConfigBuilder {
        DiompConfigBuilder::new(cluster)
    }

    /// Staged builder for platform + node count, all devices used.
    pub fn builder_on(platform: PlatformSpec, nodes: usize) -> DiompConfigBuilder {
        DiompConfigBuilder::new(ClusterSpec::full_nodes(platform, nodes))
    }

    /// Number of ranks implied by the binding.
    pub fn nranks(&self) -> usize {
        match self.binding {
            Binding::DevicePerRank => self.cluster.total_gpus(),
            Binding::RankPerNode => self.cluster.nodes,
        }
    }
}

/// Staged builder for [`DiompConfig`].
///
/// Records the caller's choices without resolving anything; [`build`]
/// then resolves **once**, in fixed order — base defaults, autotuned
/// parameters (if [`tuned`] was requested) for the *final* conduit, and
/// explicit settings last. Two consequences, guaranteed by construction
/// rather than by setter bookkeeping:
///
/// * **explicit > tuned > default**, regardless of call order —
///   `b.with_pipeline(p).tuned()` and `b.tuned().with_pipeline(p)` build
///   the same config;
/// * the autotuner never runs against a stale conduit — tuning sees the
///   conduit the job will actually use, however late it was selected.
///
/// ```
/// use diomp_core::{Conduit, DiompConfig, PipelineConfig};
/// use diomp_sim::PlatformSpec;
///
/// let cfg = DiompConfig::builder_on(PlatformSpec::platform_c(), 2)
///     .with_conduit(Conduit::Gpi2)
///     .tuned()
///     .with_heap(64 << 20)
///     .build();
/// assert!(cfg.pipeline != PipelineConfig::disabled());
/// ```
///
/// [`build`]: DiompConfigBuilder::build
/// [`tuned`]: DiompConfigBuilder::tuned
#[derive(Clone)]
pub struct DiompConfigBuilder {
    cluster: ClusterSpec,
    binding: Option<Binding>,
    conduit: Option<Conduit>,
    heap_bytes: Option<u64>,
    allocator: Option<AllocKind>,
    mode: Option<DataMode>,
    use_p2p: Option<bool>,
    pipeline: Option<PipelineConfig>,
    rma_retry: Option<(u32, f64)>,
    coll_engine: Option<CollEngine>,
    coll_servers: Option<ServerSpec>,
    qos: Option<QosClass>,
    tuned: bool,
}

impl DiompConfigBuilder {
    /// Builder over a cluster, all knobs at their defaults.
    pub fn new(cluster: ClusterSpec) -> Self {
        DiompConfigBuilder {
            cluster,
            binding: None,
            conduit: None,
            heap_bytes: None,
            allocator: None,
            mode: None,
            use_p2p: None,
            pipeline: None,
            rma_retry: None,
            coll_engine: None,
            coll_servers: None,
            qos: None,
            tuned: false,
        }
    }

    /// Request the transport autotuner: at [`build`] the RMA pipeline
    /// and the collective engine are derived from the platform tables
    /// for the final conduit — unless set explicitly, which always wins.
    ///
    /// [`build`]: DiompConfigBuilder::build
    pub fn tuned(mut self) -> Self {
        self.tuned = true;
        self
    }

    /// Set the device binding strategy.
    pub fn with_binding(mut self, b: Binding) -> Self {
        self.binding = Some(b);
        self
    }

    /// Select the conduit. Order-independent with [`tuned`]: the
    /// autotuner always runs for the conduit recorded at [`build`].
    ///
    /// [`tuned`]: DiompConfigBuilder::tuned
    /// [`build`]: DiompConfigBuilder::build
    pub fn with_conduit(mut self, c: Conduit) -> Self {
        self.conduit = Some(c);
        self
    }

    /// Set the per-device global heap size in bytes.
    pub fn with_heap(mut self, bytes: u64) -> Self {
        self.heap_bytes = Some(bytes);
        self
    }

    /// Set the symmetric allocator strategy.
    pub fn with_allocator(mut self, k: AllocKind) -> Self {
        self.allocator = Some(k);
        self
    }

    /// Set the data mode.
    pub fn with_mode(mut self, m: DataMode) -> Self {
        self.mode = Some(m);
        self
    }

    /// Force the IPC path by disabling GPUDirect P2P.
    pub fn without_p2p(mut self) -> Self {
        self.use_p2p = Some(false);
        self
    }

    /// Configure large-message pipelining explicitly (see
    /// [`PipelineConfig`]); always wins over [`tuned`] derivation.
    ///
    /// [`tuned`]: DiompConfigBuilder::tuned
    pub fn with_pipeline(mut self, p: PipelineConfig) -> Self {
        self.pipeline = Some(p);
        self
    }

    /// Configure the GASPI recovery loop for GPI-2 posts: retry budget
    /// and initial (doubling) backoff. `max_retries = 0` disables
    /// recovery — the first queue error propagates.
    pub fn with_rma_retry(mut self, max_retries: u32, backoff_us: f64) -> Self {
        self.rma_retry = Some((max_retries, backoff_us));
        self
    }

    /// Select the OMPCCL completion-time engine explicitly; always wins
    /// over [`tuned`] derivation.
    ///
    /// [`tuned`]: DiompConfigBuilder::tuned
    pub fn with_coll_engine(mut self, e: CollEngine) -> Self {
        self.coll_engine = Some(e);
        self
    }

    /// Provision dedicated in-network reduction servers (see
    /// [`DiompConfig::coll_servers`]). Server nodes must come out of the
    /// cluster's node budget; every communicator the runtime creates
    /// carves them from its membership.
    pub fn with_coll_servers(mut self, s: ServerSpec) -> Self {
        self.coll_servers = Some(s);
        self
    }

    /// Set the job's QoS class for shared-fabric contention (see
    /// [`DiompConfig::qos`]).
    pub fn with_qos(mut self, q: QosClass) -> Self {
        self.qos = Some(q);
        self
    }

    /// Resolve the configuration: defaults, then (if requested) the
    /// autotuner for the final `(platform, conduit)` pair, then every
    /// explicit setting on top. The single resolution point is what
    /// makes the precedence order-independent.
    pub fn build(self) -> DiompConfig {
        let mut cfg = DiompConfig::new(self.cluster);
        if let Some(c) = self.conduit {
            cfg.conduit = c;
        }
        if self.tuned {
            let t = crate::tune::Tuner::new(&cfg.cluster.platform, cfg.conduit);
            cfg.pipeline = t.pipeline();
            cfg.coll_engine = t.coll_engine();
        }
        if let Some(b) = self.binding {
            cfg.binding = b;
        }
        if let Some(h) = self.heap_bytes {
            cfg.heap_bytes = h;
        }
        if let Some(k) = self.allocator {
            cfg.allocator = k;
        }
        if let Some(m) = self.mode {
            cfg.mode = m;
        }
        if let Some(p2p) = self.use_p2p {
            cfg.use_p2p = p2p;
        }
        if let Some(p) = self.pipeline {
            cfg.pipeline = p;
        }
        if let Some((r, b)) = self.rma_retry {
            cfg.max_rma_retries = r;
            cfg.retry_backoff_us = b;
        }
        if let Some(e) = self.coll_engine {
            cfg.coll_engine = e;
        }
        if let Some(s) = self.coll_servers {
            cfg.coll_servers = s;
        }
        if let Some(q) = self.qos {
            cfg.qos = q;
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_exactly_once() {
        let p = PipelineConfig { chunk_bytes: 4 << 20, max_inflight: 4, n_queues: 4 };
        let len = (13 << 20) + 17; // non-multiple tail
        let chunks: Vec<_> = p.chunks(len).collect();
        assert_eq!(chunks.len(), 4);
        let mut expect_off = 0;
        for &(off, clen) in &chunks {
            assert_eq!(off, expect_off);
            expect_off += clen;
        }
        assert_eq!(expect_off, len);
        assert_eq!(chunks.last().unwrap().1, (1 << 20) + 17);
    }

    #[test]
    fn zero_length_transfer_still_issues_one_op() {
        let p = PipelineConfig::enabled();
        assert_eq!(p.chunks(0).collect::<Vec<_>>(), vec![(0, 0)]);
        let d = PipelineConfig::disabled();
        assert_eq!(d.chunks(0).collect::<Vec<_>>(), vec![(0, 0)]);
    }

    // One regression test per precedence pair of the staged builder:
    // every (explicit setter, tuned) interaction that the old in-place
    // setters had to keep order-independent by hand must stay
    // order-independent under single-shot build() resolution.

    fn base() -> DiompConfigBuilder {
        DiompConfig::builder_on(PlatformSpec::platform_c(), 2)
    }

    #[test]
    fn precedence_explicit_pipeline_beats_tuned() {
        let custom = PipelineConfig { chunk_bytes: 1 << 20, max_inflight: 2, n_queues: 1 };
        assert_eq!(base().with_pipeline(custom).tuned().build().pipeline, custom);
        assert_eq!(base().tuned().with_pipeline(custom).build().pipeline, custom);
    }

    #[test]
    fn precedence_explicit_engine_beats_tuned() {
        let prof = base().with_coll_engine(CollEngine::Profile).tuned().build();
        assert_eq!(prof.coll_engine, CollEngine::Profile);
        // The non-explicit knob is still tuned.
        assert!(prof.pipeline != PipelineConfig::disabled());
        let prof2 = base().tuned().with_coll_engine(CollEngine::Profile).build();
        assert_eq!(prof2.coll_engine, CollEngine::Profile);
    }

    #[test]
    fn precedence_tuning_sees_the_final_conduit() {
        // The autotuner runs once at build(), against the conduit the
        // job will use — whichever side of tuned() it was selected on.
        let gas = base().tuned().build();
        let gpi = base().tuned().with_conduit(Conduit::Gpi2).build();
        assert_ne!(gas.pipeline, gpi.pipeline, "conduit choice must reach the tuner");
        assert_eq!(gpi.pipeline, PipelineConfig::auto(&PlatformSpec::platform_c(), Conduit::Gpi2));
        let gpi_first = base().with_conduit(Conduit::Gpi2).tuned().build();
        assert_eq!(gpi_first.pipeline, gpi.pipeline);
        assert_eq!(gpi_first.coll_engine, gpi.coll_engine);
    }

    #[test]
    fn precedence_untuned_keeps_published_defaults() {
        let cfg = base().with_conduit(Conduit::Gpi2).build();
        assert_eq!(cfg.pipeline, PipelineConfig::disabled());
        assert_eq!(cfg.coll_engine, CollEngine::default());
    }

    #[test]
    fn precedence_qos_defaults_normal_and_explicit_wins() {
        assert_eq!(base().build().qos, QosClass::Normal);
        assert_eq!(base().with_qos(QosClass::High).tuned().build().qos, QosClass::High);
        assert_eq!(base().tuned().with_qos(QosClass::Low).build().qos, QosClass::Low);
    }

    #[test]
    fn tuned_build_matches_the_tuner_tables() {
        // A tuned build must resolve exactly to what the autotuner
        // derives for the final (platform, conduit) pair.
        let cfg = base()
            .with_conduit(Conduit::Gpi2)
            .tuned()
            .with_heap(64 << 20)
            .with_mode(DataMode::CostOnly)
            .build();
        let t = crate::tune::Tuner::new(&cfg.cluster.platform, Conduit::Gpi2);
        assert_eq!(cfg.pipeline, t.pipeline());
        assert_eq!(cfg.coll_engine, t.coll_engine());
        assert_eq!(cfg.heap_bytes, 64 << 20);
        assert_eq!(cfg.conduit, Conduit::Gpi2);
    }

    #[test]
    fn disabled_never_pipelines() {
        let p = PipelineConfig::disabled();
        assert!(!p.pipelines(u64::MAX - 1));
        let e = PipelineConfig::enabled();
        assert!(e.pipelines((4 << 20) + 1));
        assert!(!e.pipelines(4 << 20));
    }
}
