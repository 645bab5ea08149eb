//! The ring-protocol engine: chunk-pipelined ring collectives executed
//! over the simulated links (paper §3.3, Fig. 6).
//!
//! Instead of pricing a collective with a calibrated whole-collective
//! curve ([`CollEngine::Profile`]), this engine *runs the protocol*: the
//! payload is split across `nrings` rails (one ring per NIC, NCCL's
//! multi-rail layout), each rail executes its 2(n−1) (allreduce) or n−1
//! (broadcast/allgather/reduce) ring steps as chunked transfers over the
//! simulated link resources — intra-node GPU-fabric ports and inter-node
//! NIC ports — with several chunks in flight per ring edge, exactly the
//! machinery PR 1's `PipelineConfig` built for point-to-point RMA. The
//! Fig. 6 size-dependence then *emerges* from protocol structure (step
//! count, pipeline fill, link serialisation, rail aggregation); only the
//! per-platform constants (launch cost, per-step overhead, link
//! efficiency at the bottleneck) remain calibration parameters, derived
//! from the same [`diomp_sim::CollProfile`] tables the profile engine
//! uses.
//!
//! Execution model: every ring edge is a FIFO lane of chunk sends; a
//! send is issued once the same chunk has arrived one edge upstream and
//! the lane has a free buffer slot (`max_inflight`). The last rank to
//! arrive at the gate drives the schedule (the `drive` module).

use diomp_device::DeviceTable;
use diomp_fabric::FabricWorld;
use diomp_sim::{BwCurve, FlowId, PlatformSpec, ResourceId};

use crate::drive::{self, ChunkSend, Schedule, Segment};
use crate::ops::XcclOp;

/// Fraction of the per-edge bottleneck bandwidth one collective chunk
/// must achieve under the engine's per-chunk step overhead — the knee
/// query that sizes ring (and DBT) chunks from the platform tables.
/// Unlike the RMA pipeline's throughput-oriented 95 % knee, collective
/// chunks sit at the *latency–bandwidth balance point* (the 50 % knee,
/// where one chunk's wire time equals the per-chunk step cost): a
/// chunk is the pipeline grain of an `(n−1)`-hop traversal, so an
/// oversized chunk multiplies straight into the serial path — measured
/// on every paper platform, the emergent engines are flat-optimal from
/// this knee up to the segment-pipelining bound and regress beyond it.
const RING_KNEE_FRAC: f64 = 0.5;

/// Ring chunk boundaries are kept 4 KiB-aligned (matches the RMA
/// pipeline's staging granularity; reductions re-align to elements when
/// the payload is split).
const RING_CHUNK_ALIGN: u64 = 4 << 10;

/// Finest useful split of one allreduce ring segment, in chunks (the
/// floor the engine applies on top of the configured grain for huge
/// payloads whose segments dwarf the chunk size).
const ALLRED_TOKEN_CHUNKS: u64 = 4;

/// Chunk-pipeline knobs of the ring engine (mirrors the shape of PR 1's
/// RMA `PipelineConfig`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RingConfig {
    /// Pipeline granularity: a ring step's payload is split into chunks
    /// of this size so several chunks are in flight per step and the
    /// pipeline fill overlaps ring-step latency.
    pub chunk_bytes: u64,
    /// Outstanding chunk sends per ring edge (NCCL-style buffer slots).
    pub max_inflight: usize,
}

impl RingConfig {
    /// Defaults tuned for the paper's platforms: 128 KiB chunks, 4 slots
    /// per edge.
    pub fn new() -> Self {
        RingConfig { chunk_bytes: 128 << 10, max_inflight: 4 }
    }

    /// Derive the chunk size and in-flight window from the platform
    /// tables for `op` on `nrings` rails, instead of hard-coding
    /// 128 KiB / 4 — the transport autotuner's ring tuning (same knee
    /// machinery as the RMA `PipelineConfig::auto`).
    ///
    /// Every chunk pays the engine's per-step processing cost
    /// (`Tuning::step_us`, calibrated from the platform's collective
    /// tables) before touching the wire, so a chunk send follows the
    /// `s / (step + s/B)` saturation curve at the per-edge bottleneck
    /// bandwidth (`inter_eff × nic_gbps`, the rail's share of the
    /// calibrated asymptote). The chunk sits at that curve's
    /// 50 % knee (`RING_KNEE_FRAC`); the window covers wire latency plus one
    /// step per in-flight chunk, exactly like the RMA pipeline's
    /// latency-cover derivation. The same tuned configuration drives
    /// the double-binary-tree engine's chunk pipeline (the `dbt` module)
    /// — both engines share the per-edge grain, so the `Auto`
    /// dispatcher's mid band and ring fallback run on one live config.
    pub fn auto(platform: &PlatformSpec, op: &XcclOp, nrings: usize) -> Self {
        let t = tuning_for(platform, op, nrings);
        let edge_gbps = platform.net.nic_gbps * t.inter_eff;
        let curve = BwCurve::saturation(t.step_us, edge_gbps);
        let chunk_bytes =
            curve.knee_bytes(RING_KNEE_FRAC).div_ceil(RING_CHUNK_ALIGN) * RING_CHUNK_ALIGN;
        let chunk_us = chunk_bytes as f64 / (edge_gbps * 1e3);
        let cover = (platform.net.latency_us + t.step_us) / chunk_us;
        // One slot in flight, one covering latency + step, one spare so
        // a ragged tail chunk never serialises behind a full one — the
        // same shape as the RMA pipeline's window derivation.
        let max_inflight = (cover.ceil() as usize + 2).clamp(3, 8);
        RingConfig { chunk_bytes, max_inflight }
    }
}

impl Default for RingConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Which completion-time engine a communicator uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollEngine {
    /// Calibrated whole-collective profile (the curve-fit path, kept for
    /// ablation against the emergent protocol).
    Profile,
    /// Chunk-pipelined ring protocol over the simulated links (default).
    Ring(RingConfig),
    /// Chunk-pipelined double-binary-tree protocol (the mid-band
    /// bandwidth algorithm, the `dbt` module): two complementary trees each
    /// reduce+broadcast half the payload in `⌈log2 n⌉` rounds instead of
    /// the ring's `2(n−1)` serial steps. Exposed as a first-class engine
    /// so benches and tests can pin it; [`CollEngine::Auto`] selects it
    /// per size. Its broadcast always runs the fed layout, which Auto
    /// keeps for the sizes where it prices below the top one. All-gather
    /// has no tree schedule and falls back to the ring with the same
    /// chunking under this engine.
    Dbt(RingConfig),
    /// Chunk-pipelined reduction-server offload (the `rserver` module):
    /// the communicator's dedicated server ranks
    /// ([`CommOpts::servers`](crate::CommOpts)) receive partitioned
    /// stripes from every client, fold them, and fan results back, so
    /// each client NIC moves every byte once instead of `2(n−1)/n`
    /// times. Only allreduce has a server schedule; other ops — and
    /// allreduce on a communicator with no live servers — fall back to
    /// the ring with the same chunking.
    ReductionServer(RingConfig),
    /// Protocol auto-selection (the transport autotuner's engine): a
    /// four-regime dispatcher priced per (op, size, device count) from
    /// the platform tables (configured by
    /// [`AutoConfig`](crate::ll::AutoConfig)). Small collectives run as
    /// LL-style fused eager sends over binomial trees (the LL engine);
    /// the mid band runs the double-binary-tree protocol; above the
    /// upper crossover — and always for all-gather — the configured ring
    /// takes over, unless the communicator has live reduction servers
    /// and the payload clears the server crossover, in which case the
    /// reduction-server schedule takes the top band.
    Auto(crate::ll::AutoConfig),
}

impl Default for CollEngine {
    fn default() -> Self {
        CollEngine::Ring(RingConfig::default())
    }
}

/// One directed hop: the link resource the source device transmits on.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Edge {
    pub(crate) res: ResourceId,
    /// Crosses a node boundary (NIC) rather than the intra-node fabric.
    inter: bool,
}

/// The hop from flat device `src` to flat device `dst` — the one place a
/// device pair becomes a link: the sender's NIC across nodes, its
/// GPU-fabric port within one. [`Tuning::wire`] prices bytes on it.
pub(crate) fn link(devs: &DeviceTable, src: usize, dst: usize) -> Edge {
    let (s, d) = (devs.dev(src), devs.dev(dst));
    let inter = s.loc.node != d.loc.node;
    Edge { res: if inter { s.nic } else { s.port }, inter }
}

/// One rail: a rotated device order plus its per-edge link assignment.
///
/// Rail `r` rotates each node's device block left by `r`, so the device
/// that crosses the node boundary — and therefore the NIC charged for
/// the crossing — differs per rail. That is how `nrings` concurrent
/// rings aggregate multi-NIC bandwidth on platforms A/B.
#[derive(Clone, Debug)]
pub(crate) struct Rail {
    /// Devices in this rail's ring order.
    pub(crate) order: Vec<usize>,
    edges: Vec<Edge>,
    /// The rail's node blocks in ring order: `(node id, rail positions
    /// of the node's devices)`, the first position being the block's
    /// natural leader. The DBT and reduction-server engines span these.
    pub(crate) blocks: Vec<(usize, Vec<usize>)>,
}

impl Rail {
    /// True when any ring edge of this rail runs over a link the health
    /// vector marks dead (factor 0). Such a rail would replay every
    /// chunk 1000× slow on the dead edge; the communicator blacklists it
    /// at init instead, re-splitting the payload over the survivors —
    /// NCCL's channel-disable on a downed NIC.
    pub(crate) fn uses_dead_link(&self, health: &diomp_fabric::HealthVec) -> bool {
        self.edges.iter().any(|e| health.link_factor_milli(e.res) == 0)
    }
}

/// Build the `nrings` rails over the node-major global ring order.
pub(crate) fn build_rails(world: &FabricWorld, order: &[usize], nrings: usize) -> Vec<Rail> {
    // Group the node-major order into per-node blocks.
    let mut blocks: Vec<Vec<usize>> = Vec::new();
    for &f in order {
        let node = world.devs.dev(f).loc.node;
        match blocks.last_mut() {
            Some(b) if world.devs.dev(*b.last().unwrap()).loc.node == node => b.push(f),
            _ => blocks.push(vec![f]),
        }
    }
    (0..nrings.max(1))
        .map(|r| {
            let mut ord = Vec::with_capacity(order.len());
            let mut rail_blocks = Vec::with_capacity(blocks.len());
            for b in &blocks {
                let k = r % b.len();
                let node = world.devs.dev(b[0]).loc.node;
                rail_blocks.push((node, (ord.len()..ord.len() + b.len()).collect()));
                ord.extend(b[k..].iter().copied().chain(b[..k].iter().copied()));
            }
            let n = ord.len();
            let edges = (0..n).map(|i| link(&world.devs, ord[i], ord[(i + 1) % n])).collect();
            Rail { order: ord, edges, blocks: rail_blocks }
        })
        .collect()
}

/// Calibrated per-op constants of the ring engine, derived from the same
/// platform tables the profile engine reads. The *structure* (steps,
/// chunks, rails, link serialisation) is the protocol's; these scalars
/// pin what each primitive costs on the platform:
///
/// * `launch_us` / `step_us` — the profile's launch cost and per-hop
///   processing overhead (kernel step, reduce, flag check),
/// * `inter_eff` — fraction of raw NIC bandwidth the library achieves at
///   the inter-node bottleneck, chosen so the emergent large-message
///   asymptote lands on the calibrated curve's top control point
///   (`curve_bw ≈ nrings × nic_gbps × eff`),
/// * `intra_eff` — fixed high fraction for the fast intra-node fabric,
///   which is never the bottleneck on the paper's platforms.
pub(crate) struct Tuning {
    pub(crate) launch_us: f64,
    pub(crate) step_us: f64,
    pub(crate) inter_eff: f64,
    pub(crate) intra_eff: f64,
}

const INTRA_EFF: f64 = 0.90;
const MIN_EFF: f64 = 0.01;
const MAX_EFF: f64 = 0.98;

/// The rail count a full-node communicator on this platform discovers
/// (`min(nics_per_node, gpus_per_node)` — the layout `XcclComm::init`
/// derives). The autotuner tunes ring parameters against this count;
/// communicators over partial nodes may discover fewer rails, in which
/// case the per-edge efficiency calibration shifts slightly but the
/// chunk/window shape remains table-derived.
pub fn default_nrings(platform: &PlatformSpec) -> usize {
    platform.net.nics_per_node.min(platform.gpus_per_node).max(1)
}

pub(crate) fn tuning_for(platform: &PlatformSpec, op: &XcclOp, nrings: usize) -> Tuning {
    let profile = op.profile(&platform.coll);
    let top_bw = profile.curve.points.last().expect("BwCurve is non-empty").1;
    let agg = nrings.max(1) as f64 * platform.net.nic_gbps;
    Tuning {
        launch_us: profile.launch_us,
        step_us: profile.hop_us,
        inter_eff: (top_bw / agg).clamp(MIN_EFF, MAX_EFF),
        intra_eff: INTRA_EFF,
    }
}

impl Tuning {
    /// Wire bytes of a `bytes`-byte message on `edge` at the efficiency
    /// this tuning achieves on that kind of link.
    pub(crate) fn wire(&self, edge: Edge, bytes: u64) -> u64 {
        drive::wire_bytes(bytes, if edge.inter { self.inter_eff } else { self.intra_eff })
    }
}

/// Split `total` bytes into `parts` near-equal pieces whose boundaries
/// fall on `align`-byte element boundaries; any ragged tail rides with
/// the last non-empty piece. Returns `(offset, len)` per piece.
pub(crate) fn split_aligned(total: u64, parts: usize, align: u64) -> Vec<(u64, u64)> {
    let parts = parts.max(1);
    let align = align.max(1);
    let units = total / align;
    let base = units / parts as u64;
    let extra = units % parts as u64;
    let mut out = Vec::with_capacity(parts);
    let mut off = 0u64;
    for i in 0..parts as u64 {
        let len = (base + u64::from(i < extra)) * align;
        out.push((off, len));
        off += len;
    }
    // Ragged tail bytes (len not a multiple of align) go to the last piece.
    if off < total {
        let last = out.last_mut().unwrap();
        last.1 += total - off;
    }
    out
}

/// Emit the ring schedule: one segment per rail.
///
/// `root_flat` is the flat device index of the broadcast/reduce root
/// (ignored for symmetric ops).
pub(crate) fn schedule(
    rails: &[Rail],
    flow: FlowId,
    op: XcclOp,
    root_flat: Option<usize>,
    len: u64,
    chunk_bytes: u64,
    t: &Tuning,
) -> Schedule {
    let n = rails.first().map_or(0, |r| r.order.len());
    let elem = op.elem_align();
    let slices = split_aligned(len, rails.len(), elem);
    let chunk_bytes = chunk_bytes.max(1);

    // One lane per ring edge per rail, serving its sends in (step,
    // token, chunk) order. A send's only dependency is the same chunk
    // one hop upstream.
    let mut sched = Schedule::new(rails.len() * n);
    for (ri, rail) in rails.iter().enumerate() {
        let (_, slen) = slices[ri];
        // Tokens: `(bytes, first edge)` flows, each traversing `hops`
        // consecutive edges. Ring allreduce = reduce-scatter + allgather:
        // segment j starts on edge j and travels 2(n−1) hops; the chain
        // ops travel n−1 hops from their root.
        let (mut tokens, hops): (Vec<(u64, usize)>, usize) = match op {
            XcclOp::AllReduce { .. } => (
                split_aligned(slen, n, elem).into_iter().map(|(_, l)| l).zip(0..n).collect(),
                2 * (n - 1),
            ),
            XcclOp::AllGather => ((0..n).map(|j| (slen, j)).collect(), n - 1),
            XcclOp::Broadcast { .. } => {
                let root = rail_pos(rail, root_flat);
                (vec![(slen, root)], n - 1)
            }
            XcclOp::Reduce { .. } => {
                let root = rail_pos(rail, root_flat);
                (vec![(slen, (root + 1) % n)], n - 1)
            }
        };
        // Empty segment/rail share: nothing flows. Tokens are
        // independent, so skipping one leaves no dangling deps — and a
        // sub-segment payload (len < n elements) would otherwise pay the
        // full O(rails·n²) schedule in phantom 1-byte sends.
        tokens.retain(|&(bytes, _)| bytes > 0);
        let Some(&(bytes0, start0)) = tokens.first() else { continue };
        // Allreduce tokens (the n ring segments) already pipeline
        // against each other, so splitting each one beyond a few chunks
        // buys no extra overlap — measured flat on every platform —
        // while multiplying scheduler entries, the gated wall-clock
        // cost. Floor the per-token grain accordingly; the chain ops
        // keep the configured grain (their single token *is* the
        // pipeline).
        let tok_chunk = |bytes: u64| match op {
            XcclOp::AllReduce { .. } => chunk_bytes.max(bytes.div_ceil(ALLRED_TOKEN_CHUNKS)),
            _ => chunk_bytes,
        };
        let send = |e: usize, bytes: u64| {
            let edge = rail.edges[e];
            let lane = (ri * n + e) as u32;
            ChunkSend { res: edge.res, lane, wire: t.wire(edge, bytes), flow }
        };
        let nchunks = |bytes: u64| bytes.div_ceil(tok_chunk(bytes));
        // Chunk `c` of a `bytes`-byte token.
        let chunk = |bytes: u64, c: u64| {
            let tc = tok_chunk(bytes);
            tc.min(bytes - c * tc)
        };
        let nc = nchunks(bytes0);
        let mut seg;
        if tokens.len() == 1 && hops < n {
            // Chain op: the token crosses each edge at most once, so the
            // period is one chunk's traversal of the chain (every lane
            // still sees its chunks in order), repeated per chunk with
            // the last one possibly short.
            seg = Segment::new(nc);
            let (full, last) = (chunk(bytes0, 0), chunk(bytes0, nc - 1));
            for h in 0..hops {
                let e = (start0 + h) % n;
                let short = (last != full).then(|| send(e, last).wire);
                seg.push(send(e, full), short.as_slice(), (h > 0).then(|| h as u32 - 1));
            }
        } else {
            // Ring tokens (allreduce: the n ring segments; allgather: every
            // rank's slice): each hop row moves every token one edge on, a
            // chunk waiting for itself one edge upstream one row earlier.
            // When every edge carries a token of as many chunks, the period
            // is one row, edge-major, rotating through the token sizes if
            // they differ. Otherwise (an empty token, or one straddling a
            // chunk boundary) the rail is one repeat of all its rows.
            let periodic = tokens.len() == n && tokens.iter().all(|&(b, _)| nchunks(b) == nc);
            let mut sizes: Vec<u64> = tokens.iter().map(|&(b, _)| b).collect();
            sizes.sort_unstable();
            sizes.dedup();
            let class = tokens.iter().map(|&(b, _)| sizes.partition_point(|&s| s < b) as u8);
            let row: u64 = tokens.iter().map(|&(bytes, _)| nchunks(bytes)).sum();
            seg = match (periodic, sizes.len()) {
                (true, 1) => Segment::new(hops as u64),
                (true, _) => Segment::rotating(hops as u64, nc as u32, class.collect()),
                (false, _) => Segment::new(1),
            };
            for h in 0..if periodic { 1 } else { hops } {
                for &(bytes, start) in &tokens {
                    let e = (start + h) % n;
                    for c in 0..nchunks(bytes) {
                        if periodic {
                            let up = ((e + n - 1) % n) as u64 * nc + c;
                            let alt: Vec<u64> =
                                sizes[1..].iter().map(|&b| send(e, chunk(b, c)).wire).collect();
                            let first = send(e, chunk(sizes[0], c));
                            seg.push(first, &alt, Some(drive::prev_period(up as u32)));
                        } else {
                            let dep = (h > 0).then(|| (seg.period() as u64 - row) as u32);
                            seg.push(send(e, chunk(bytes, c)), &[], dep);
                        }
                    }
                }
            }
        }
        sched.add(seg);
    }
    sched
}

pub(crate) fn rail_pos(rail: &Rail, root_flat: Option<usize>) -> usize {
    let flat = root_flat.expect("rooted collective without a root device");
    rail.order.iter().position(|&f| f == flat).expect("root device not in rail")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_aligned_covers_exactly_and_respects_alignment() {
        let parts = split_aligned(1000, 3, 8);
        assert_eq!(parts.len(), 3);
        let mut off = 0;
        for &(o, l) in &parts[..2] {
            assert_eq!(o, off);
            assert_eq!(l % 8, 0, "interior boundaries are element-aligned");
            off += l;
        }
        assert_eq!(parts[2].0 + parts[2].1, 1000, "tail bytes ride with the last piece");
    }

    #[test]
    fn split_aligned_handles_degenerate_sizes() {
        assert_eq!(split_aligned(0, 4, 8), vec![(0, 0), (0, 0), (0, 0), (0, 0)]);
        let tiny = split_aligned(8, 4, 8);
        assert_eq!(tiny.iter().map(|&(_, l)| l).sum::<u64>(), 8);
        assert_eq!(tiny[0], (0, 8), "one element lands in the first piece");
    }

    /// A ragged allreduce (16 MiB − 4 B over 1024 ranks: 1023 tokens of
    /// 16 384 B and one of 16 380 B, one chunk each) stores one hop row.
    #[test]
    fn ragged_allreduce_stores_one_hop_row() {
        let (n, h) = (1024, diomp_sim::Sim::new().handle());
        let edges =
            (0..n).map(|_| Edge { res: h.new_resource(1.0, diomp_sim::Dur::ZERO), inter: true });
        let rail = Rail { order: (0..n).collect(), edges: edges.collect(), blocks: Vec::new() };
        let t = Tuning { launch_us: 1.0, step_us: 1.0, inter_eff: 0.9, intra_eff: 0.9 };
        let op = XcclOp::AllReduce { op: diomp_fabric::ReduceOp::SumF32 };
        let sched = schedule(&[rail], h.new_flow(1000), op, None, (16 << 20) - 4, 128 << 10, &t);
        assert_eq!(sched.stored(), n);
        assert_eq!(sched.len(), 2 * (n - 1) * n);
    }

    #[test]
    fn default_ring_config_pipelines() {
        let c = RingConfig::default();
        assert_eq!(c.chunk_bytes, 128 << 10);
        assert!(c.max_inflight >= 2, "pipelining needs at least two slots");
        assert!(matches!(CollEngine::default(), CollEngine::Ring(_)));
    }
}
