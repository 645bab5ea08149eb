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
//! Execution model: the last rank to arrive at the collective gate runs
//! a *progress loop* in its own task context. Every ring edge is a FIFO
//! lane of chunk sends; a send is issued once its upstream dependency
//! (the same chunk's arrival one step earlier) has completed and the
//! lane has a free buffer slot (`max_inflight`). In-flight completions
//! are drained with [`diomp_sim::Ctx::wait_any`] — one wake-entry
//! per park instead of one per pending event, which is what makes a
//! 64-GPU, thousands-of-chunks collective cheap to schedule.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use diomp_device::DeviceTable;
use diomp_fabric::FabricWorld;
use diomp_sim::{BwCurve, Ctx, Dur, FlowId, PlatformSpec, Reservations, ResourceId, SimTime};

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

/// Can this collective take the ring's closed-form tier
/// ([`march_allreduce`]) instead of a [`Schedule`]? A single-rail
/// allreduce owns one lane per ring edge, each on a private link
/// resource, so it can be marched h-major without materialising the
/// O(n²·chunks) sends at all (33.5M at 4096 ranks) — the one regime the
/// collective runner does not hand to [`Schedule::drive`].
pub(crate) fn closed_form_ok(ctx: &Ctx, rails: &[Rail], op: &XcclOp) -> bool {
    matches!(op, XcclOp::AllReduce { .. })
        && rails.len() == 1
        && drive::fast_path_ok(ctx)
        && distinct_edge_resources(&rails[0])
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
        let tc = tok_chunk(bytes0);
        let nc = bytes0.div_ceil(tc);
        let mut seg;
        if tokens.len() == 1 && hops < n {
            // Chain op: the token crosses each edge at most once, so the
            // period is one chunk's traversal of the chain (every lane
            // still sees its chunks in order), repeated per chunk with
            // the last one possibly short.
            seg = Segment::new(nc);
            let last = bytes0 - (nc - 1) * tc;
            let full = tc.min(bytes0);
            for h in 0..hops {
                let e = (start0 + h) % n;
                let short = (last != full).then(|| send(e, last).wire);
                seg.push(send(e, full), short, (h > 0).then(|| h as u32 - 1));
            }
        } else if tokens.len() == n && tokens.iter().all(|&(bytes, _)| bytes == bytes0) {
            // Uniform tokens (allgather always; allreduce when the
            // payload divides evenly): every hop row puts the same
            // chunks on the same edges — only the token riding each edge
            // rotates — so the period is one row, edge-major, repeated
            // per hop, and chunk `c` on edge `e` waits for chunk `c` on
            // edge `e − 1` one row earlier.
            seg = Segment::new(hops as u64);
            for e in 0..n {
                let up = ((e + n - 1) % n) as u64 * nc;
                for c in 0..nc {
                    let dep = drive::prev_period((up + c) as u32);
                    seg.push(send(e, tc.min(bytes0 - c * tc)), None, Some(dep));
                }
            }
        } else {
            // Ragged allreduce: the rows differ as the uneven tokens
            // rotate, so the whole rail is one repeat, hop-major. The
            // send one hop upstream sits exactly one `row` (the rail's
            // chunks per hop) earlier.
            seg = Segment::new(1);
            let row: u64 = tokens.iter().map(|&(bytes, _)| bytes.div_ceil(tok_chunk(bytes))).sum();
            for h in 0..hops {
                for &(bytes, start) in &tokens {
                    let tc = tok_chunk(bytes);
                    for c in 0..bytes.div_ceil(tc) {
                        let dep = (h > 0).then(|| (seg.period() as u64 - row) as u32);
                        seg.push(send((start + h) % n, tc.min(bytes - c * tc)), None, dep);
                    }
                }
            }
        }
        sched.add(seg);
    }
    sched
}

/// Every ring edge of the rail transmits on its own link resource (no
/// port or NIC carries two edges). This is what makes the h-major march
/// exact with a per-lane free-list of reservations: lanes never contend
/// for a resource, so pricing them row-major instead of in global issue
/// order commutes. A single rail satisfies this on every paper platform
/// (one boundary NIC per node block, one fabric port per device); the
/// guard keeps the fast path honest on exotic topologies.
fn distinct_edge_resources(rail: &Rail) -> bool {
    let mut ids: Vec<usize> = rail.edges.iter().map(|e| e.res.index()).collect();
    ids.sort_unstable();
    ids.windows(2).all(|w| w[0] != w[1])
}

/// March the single-rail ring-allreduce schedule h-major — hop by hop,
/// one row of `n` tokens per hop — pricing every chunk with
/// [`diomp_sim::Reservations::transfer_flow`] instead of events, under
/// one acquisition of the kernel lock for the whole march.
///
/// Exactness: the explicit driver issues a send at the first wake
/// instant where (a) the same chunk's upstream arrival has landed,
/// (b) the lane's in-flight window has a free slot, and (c) the lane's
/// FIFO predecessor has issued. All three enabling instants are known
/// in closed form one row ahead — (a) is the previous row's arrival on
/// the upstream lane, (b) is the `(p−window+1)`-th earliest arrival on
/// this lane (a per-lane min-heap of pending arrivals yields them in
/// time order), (c) is tracked per lane — so the issue instant is their
/// max and the reservation arithmetic (`free_at` serialisation,
/// rounding, fault perturbation) is shared with the event path.
///
/// Steady state: with a fault-free plan and uniform tokens, every row
/// applies the same max-plus update with per-edge constants, so as soon
/// as two consecutive rows differ by one rigid time shift `δ`, every
/// later row is the previous plus `δ` (shift covariance of max-plus
/// maps). The remaining rows are then applied in one charge: per-edge
/// `free_at` watermarks advance `m·δ` ([`diomp_sim::Reservations::bulk_advance_resource`]),
/// the flow absorbs `m` rows of wire bytes, and the final-row arrivals
/// are the detected row's plus `m·δ`. An armed fault plan disables only
/// the jump — the per-row march still prices faulted edges exactly
/// (per-edge disarm, not per-run).
pub(crate) fn march_allreduce(
    ctx: &mut Ctx,
    rail: &Rail,
    flow: FlowId,
    elem: u64,
    slen: u64,
    cfg: RingConfig,
    t: &Tuning,
) {
    let n = rail.order.len();
    let hops = 2 * (n - 1);
    let chunk_bytes = cfg.chunk_bytes.max(1);
    let window = cfg.max_inflight.max(1);
    let step_d = Dur::micros(t.step_us);
    let t0 = ctx.now();

    // Token j (the ring segment starting on edge j): bytes, chunk grain
    // and chunk count — the same split `schedule` emits.
    let token_bytes: Vec<u64> = split_aligned(slen, n, elem).into_iter().map(|(_, l)| l).collect();
    let tok_chunk: Vec<u64> =
        token_bytes.iter().map(|&b| chunk_bytes.max(b.div_ceil(ALLRED_TOKEN_CHUNKS))).collect();
    let nchunks: Vec<usize> = token_bytes
        .iter()
        .zip(&tok_chunk)
        .map(|(&b, &tc)| if b == 0 { 0 } else { b.div_ceil(tc) as usize })
        .collect();

    // Per-lane march state (lane = ring edge of the single rail).
    let mut arr_prev: Vec<Vec<SimTime>> = vec![Vec::new(); n];
    let mut arr_cur: Vec<Vec<SimTime>> = vec![Vec::new(); n];
    let mut free_m: Vec<SimTime> = vec![SimTime::ZERO; n];
    let mut last_issue: Vec<SimTime> = vec![SimTime::ZERO; n];
    let mut win: Vec<BinaryHeap<Reverse<SimTime>>> = (0..n).map(|_| BinaryHeap::new()).collect();
    let mut total_sends: u64 = 0;
    let mut t_last = t0;

    // Steady-state jump eligibility: uniform tokens (identical chunk
    // pattern on every lane every row) and no armed fault plan (a
    // degradation window firing mid-run would break row rigidity).
    let uniform = slen > 0 && slen.is_multiple_of(elem) && (slen / elem).is_multiple_of(n as u64);
    let can_jump = uniform && !ctx.fault_armed();
    let mut prev_state: Vec<u64> = Vec::new();
    let mut prev_shape: Vec<u32> = Vec::new();
    let mut cur_state: Vec<u64> = Vec::new();
    let mut cur_shape: Vec<u32> = Vec::new();
    // `fault_armed` is read above: the handle must not be touched while
    // the guard holds the kernel lock.
    let mut rsv = ctx.handle().reserve();

    let mut h = 0usize;
    while h < hops {
        let mut t0_bound = false;
        for e in 0..n {
            arr_cur[e].clear();
            let j = (e + n - (h % n)) % n;
            let nc = nchunks[j];
            if nc == 0 {
                continue;
            }
            let bytes = token_bytes[j];
            let tc = tok_chunk[j];
            let up = (e + n - 1) % n;
            // `c` indexes the upstream lane's previous-row arrivals, not
            // an iterable of this loop — keep the index form.
            #[allow(clippy::needless_range_loop)]
            for c in 0..nc {
                let cb = tc.min(bytes - c as u64 * tc);
                let wire = t.wire(rail.edges[e], cb);
                let dep = if h == 0 { SimTime::ZERO } else { arr_prev[up][c] };
                let w = if win[e].len() >= window {
                    win[e].pop().expect("window heap underflow").0
                } else {
                    SimTime::ZERO
                };
                let ti = dep.max(w).max(last_issue[e]).max(t0);
                if ti == t0 {
                    t0_bound = true;
                }
                let tr = rsv.transfer_flow(rail.edges[e].res, flow, ti + step_d, wire);
                arr_cur[e].push(tr.arrive);
                win[e].push(Reverse(tr.arrive));
                free_m[e] = tr.depart;
                last_issue[e] = ti;
                t_last = t_last.max(tr.arrive);
                total_sends += 1;
            }
        }
        // Jump detection: capture this row's full timing state and
        // compare against the previous row's. `t0_bound` rows are
        // excluded — the `.max(t0)` clamp is the one term of the row
        // update that is not shift-covariant.
        if can_jump && h + 1 < hops && !t0_bound {
            cur_state.clear();
            cur_shape.clear();
            for e in 0..n {
                cur_shape.push(arr_cur[e].len() as u32);
                cur_shape.push(win[e].len() as u32);
                cur_state.extend(arr_cur[e].iter().map(|a| a.nanos()));
                cur_state.push(free_m[e].nanos());
                cur_state.push(last_issue[e].nanos());
                let mut wv: Vec<u64> = win[e].iter().map(|r| r.0.nanos()).collect();
                wv.sort_unstable();
                cur_state.extend(wv);
            }
            if !prev_state.is_empty()
                && prev_shape == cur_shape
                && prev_state.len() == cur_state.len()
            {
                let delta = cur_state[0] - prev_state[0];
                let rigid =
                    delta > 0 && prev_state.iter().zip(&cur_state).all(|(&p, &c)| c == p + delta);
                if rigid {
                    let m = (hops - 1 - h) as u64;
                    // Uniform tokens: any token's chunk split prices a row.
                    let token = (token_bytes[0], tok_chunk[0], nchunks[0]);
                    jump_rows(&mut rsv, rail, flow, t, token, delta, m);
                    for e in 0..n {
                        for a in &arr_cur[e] {
                            t_last = t_last.max(*a + Dur::nanos(delta * m));
                        }
                        total_sends += m * nchunks[(e + n - (h % n)) % n] as u64;
                    }
                    break;
                }
            }
            std::mem::swap(&mut prev_state, &mut cur_state);
            std::mem::swap(&mut prev_shape, &mut cur_shape);
        } else {
            // A non-comparable row (t0-clamped or final) invalidates the
            // captured baseline; rigidity must be re-established.
            prev_state.clear();
            prev_shape.clear();
        }
        std::mem::swap(&mut arr_prev, &mut arr_cur);
        h += 1;
    }
    drop(rsv);
    // One coalesced wake standing in for every per-chunk completion.
    ctx.sleep_until_coalesced(t_last, total_sends);
}

/// Apply `m` steady-state rows in one charge: advance every edge's
/// `free_at` watermark by `m·δ` with the matching utilisation bytes,
/// and credit the flow with `m` rows of wire bytes and the final
/// departure watermark. Called only under a rigid-shift detection, so
/// the updates land the exact state the per-row march would have.
fn jump_rows(
    rsv: &mut Reservations<'_>,
    rail: &Rail,
    flow: FlowId,
    t: &Tuning,
    (bytes, tc, nc): (u64, u64, usize),
    delta: u64,
    m: u64,
) {
    if m == 0 {
        return;
    }
    let d = Dur::nanos(delta);
    let mut row_wire_total = 0u64;
    let mut depart_final = SimTime::ZERO;
    for edge in &rail.edges {
        let mut row_wire = 0u64;
        for c in 0..nc {
            row_wire += t.wire(*edge, tc.min(bytes - c as u64 * tc));
        }
        rsv.bulk_advance_resource(edge.res, d, m, row_wire);
        row_wire_total += row_wire;
        depart_final = depart_final.max(rsv.resource_free_at(edge.res));
    }
    rsv.bulk_charge_flow(flow, m * row_wire_total, depart_final);
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

    #[test]
    fn default_ring_config_pipelines() {
        let c = RingConfig::default();
        assert_eq!(c.chunk_bytes, 128 << 10);
        assert!(c.max_inflight >= 2, "pipelining needs at least two slots");
        assert!(matches!(CollEngine::default(), CollEngine::Ring(_)));
    }
}
