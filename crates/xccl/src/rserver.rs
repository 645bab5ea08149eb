//! The reduction-server engine: in-network allreduce offload onto
//! dedicated server ranks ([`CollEngine::ReductionServer`]).
//!
//! DiOMP's thesis is moving work off the host critical path; this engine
//! takes it to the logical end by offloading the *collective itself*.
//! Optcast-style reduction servers (a Rust NCCL-plugin design) dedicate
//! aggregation ranks with their own NICs: every GPU client sends each
//! byte **once** (a partitioned stripe to the server that owns it) and
//! receives each result byte **once**, instead of circulating the
//! payload `2(n−1)/n` times around a ring — and the reduce arithmetic
//! leaves the GPU ranks entirely.
//!
//! The schedule, per rail (the communicator's existing multi-NIC rail
//! machinery — rail rotation varies each node's *leader*, spreading the
//! upload across the node's NICs exactly like the ring's boundary
//! crossings):
//!
//! 1. **Chain up** — each client node block chain-reduces its members'
//!    contributions over the intra-node GPU fabric into the block's
//!    leader (sending the whole rail slice to the servers from every
//!    GPU would multiply the client NIC load `gpus_per_node`-fold and
//!    lose to the ring outright in the sender-charged link model).
//! 2. **Upload** — the leader stripes the rail slice across the live
//!    server devices and injects each stripe chunk on its NIC: `s /
//!    nrings` outbound bytes per client NIC, *half* the ring's
//!    `≈ 2s/nrings`.
//! 3. **Fold** — the stripe's owner reduces the arriving client copies;
//!    the per-chunk fold is charged at the engine's calibrated step cost
//!    when the result chunk is issued.
//! 4. **Fan back** — the owner sends the reduced chunk to every client
//!    leader on its *own* NIC (`client_blocks · s / server_nics` per
//!    server NIC — the dimension server provisioning buys down), charged
//!    to the communicator's dedicated **server flow** so multi-tenant
//!    WFQ accounting stays per-job but server traffic is separately
//!    observable in `flow_stats`.
//! 5. **Chain down** — the leader chain-broadcasts the chunk through
//!    its block.
//!
//! Everything is chunk-pipelined through the shared
//! [`crate::drive::Schedule`] progress loop (per-edge FIFO lanes,
//! bounded in-flight windows): stripe `k` folds while stripe `k+1` is
//! on the wire.
//!
//! **Membership semantics.** Server ranks are communicator members — they
//! arrive at the collective gate like everyone else — but they are
//! *infrastructure*: for allreduce on a server-equipped communicator the
//! data result is the element-wise reduction over the **client** ranks'
//! buffers (in ring order — the sequential reference association, like
//! the DBT engine), delivered to every client; server buffers pass
//! through untouched. This holds for every engine on such a
//! communicator, so engines stay byte-comparable. Ops other than
//! allreduce (and allreduce with every server dead) fall back to the
//! ring schedule over the full rails — the engine degrades, it never
//! hangs.
//!
//! [`CollEngine::Auto`](crate::CollEngine::Auto) runs it as the *fourth*
//! regime when the communicator has live servers: a top band opening
//! where its schedule's price undercuts the ring's and the tree's at
//! every larger size, above the LL band and ending the
//! double-binary-tree band beneath it
//! ([`crate::XcclComm::auto_regimes`]).
//!
//! [`CollEngine::ReductionServer`]: crate::CollEngine::ReductionServer

use std::borrow::Cow;

use diomp_fabric::FabricWorld;
use diomp_sim::FlowId;

use crate::drive::{ChunkSend, Schedule, Segment};
use crate::ops::XcclOp;
use crate::ring::{self, Rail};

/// Finest useful split of one server's share of a rail slice, in
/// chunks. Chunks are dealt round-robin across the live servers, so
/// each server's fan-back starts as soon as its first chunk lands and
/// pipelines through the whole upload; a few chunks per server is
/// enough overlap grain (contiguous per-server stripes instead would
/// serialise the tail: the last stripe's owner only starts fanning back
/// once the upload is essentially complete, costing a second full
/// wire pass — measured, that erases the entire win). Beyond this
/// floor, finer splits multiply scheduler entries — the gated
/// wall-clock cost — without buying overlap, the same trade the ring
/// engine's segment floor makes.
const STRIPE_CHUNKS: u64 = 4;

/// Floor on the dealt-chunk grain: below this, per-chunk step cost on
/// the leaders' upload lanes outweighs the overlap a finer deal buys.
const MIN_GRAIN: u64 = 4 << 10;

/// Reduction-server designation for a communicator
/// ([`CommOpts::servers`](crate::CommOpts)): how many whole nodes of the
/// communicator are dedicated server nodes. They are carved from the
/// tail of the node-major ring order, which keeps client ranks' ring
/// positions — and therefore existing rooted-op root indices — stable
/// when servers are added. `nodes == 0` (the default) disables the
/// server path entirely — the communicator behaves exactly as before
/// this engine existed.
///
/// Servers are designated in node granularity because the win condition
/// is about NICs: every device of a server node serves (owns stripes on
/// its own NIC), and at least one node always remains a client.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerSpec {
    /// Number of whole nodes dedicated as reduction servers (capped at
    /// `nodes − 1` so at least one client node remains; 0 disables).
    pub nodes: usize,
}

impl ServerSpec {
    /// Designate `nodes` tail nodes as reduction servers.
    pub fn tail(nodes: usize) -> Self {
        ServerSpec { nodes }
    }

    /// Is the server path enabled at all?
    pub fn enabled(&self) -> bool {
        self.nodes > 0
    }
}

/// The resolved server set a communicator carries (None when
/// [`ServerSpec::nodes`] is 0): which nodes are infrastructure and which
/// devices are live stripe owners.
pub(crate) struct ServerSet {
    /// Node ids carved out as reduction servers — the *membership*
    /// boundary: these nodes' ranks are excluded from allreduce data
    /// semantics regardless of link health.
    pub(crate) nodes: Vec<usize>,
    /// Live stripe owners (flat device indices): server devices whose
    /// NIC the health vector marked alive at init. Dead servers are
    /// blacklisted and the stripes re-split over the survivors; empty
    /// means every server is dead and the schedule falls back to the
    /// ring.
    pub(crate) devs: Vec<usize>,
}

/// Emit the reduction-server allreduce schedule over the live server
/// set `srv` (never empty: the communicator falls back to the ring
/// first): per-rail payload slices, per-edge FIFO lanes, client traffic
/// on `flow` and the servers' fan-back on `srv_flow`.
#[allow(clippy::too_many_arguments)] // one arg per schedule dimension; a struct would be ceremony
pub(crate) fn schedule(
    world: &FabricWorld,
    rails: &[Rail],
    flow: FlowId,
    srv: &ServerSet,
    srv_flow: FlowId,
    op: XcclOp,
    len: u64,
    chunk_bytes: u64,
    t: &ring::Tuning,
) -> Schedule {
    debug_assert!(matches!(op, XcclOp::AllReduce { .. }), "only allreduce has a server schedule");
    let n = rails.first().map_or(0, |r| r.order.len());
    let health = world.health();
    let elem = op.elem_align();
    let slices = ring::split_aligned(len, rails.len(), elem);
    let chunk_bytes = chunk_bytes.max(1);

    // Per-edge FIFO lane kinds, keyed by the *sending* rail position:
    // intra-node chain hops up and down, the leader's stripe uploads,
    // and the server's fan-back (charged on its own NIC).
    const CHAIN_UP: usize = 0;
    const UP: usize = 1;
    const DOWN: usize = 2;
    const CHAIN_DOWN: usize = 3;
    // Emission order is every lane's FIFO order, and every dependency
    // is emitted before the send it enables. The dealt stripes give the
    // schedule no period worth naming (chunk `c`'s owner rotates and the
    // split is element-aligned, not uniform), so it is one repeat.
    let mut sched = Schedule::new(rails.len() * n * 4);
    let mut seg = Segment::new(1);
    let mut emit = |edge: ring::Edge, lane, bytes, flow, deps: &[u32]| {
        let send = ChunkSend { res: edge.res, lane, wire: t.wire(edge, bytes), flow };
        seg.push(send, &[], deps.iter().copied())
    };
    // The fold's inputs: every client upload of the current chunk. A
    // fan-back send is enabled only once all of them have arrived.
    let mut uploads: Vec<u32> = Vec::new();
    let any_dead = health.any_dead_link();
    for (ri, rail) in rails.iter().enumerate() {
        let (_, slen) = slices[ri];
        if slen == 0 {
            continue;
        }
        // Rail position of every flat device (servers included — rails
        // span the full communicator).
        let mut pos = vec![u32::MAX; world.devs.len()];
        for (i, &f) in rail.order.iter().enumerate() {
            pos[f] = i as u32;
        }
        // Client node blocks in this rail's rotated order
        // (`Rail::blocks`); server nodes are infrastructure and
        // contribute no data, so they form no blocks. Each block is
        // rotated so a live-NIC member leads (the rail rotation already
        // varies the natural leader per rail — that is what spreads the
        // upload across the node's NICs; the health rotation only steps
        // in when a leader's NIC is dead).
        let mut blocks: Vec<Cow<'_, [usize]>> = rail
            .blocks
            .iter()
            .filter(|(node, _)| !srv.nodes.contains(node))
            .map(|(_, m)| m.as_slice().into())
            .collect();
        if any_dead {
            for b in &mut blocks {
                let alive =
                    |&p: &usize| health.link_factor_milli(world.devs.dev(rail.order[p]).nic) != 0;
                if let Some(k) = b.iter().position(alive).filter(|&k| k > 0) {
                    b.to_mut().rotate_left(k);
                }
            }
        }
        if blocks.is_empty() {
            continue;
        }
        let lane_of = |p: usize, kind: usize| (((ri * n) + p) * 4 + kind) as u32;
        let edge =
            |src: usize, dst: usize| ring::link(&world.devs, rail.order[src], rail.order[dst]);
        // Round-robin chunk striping (optcast's layout): chunk `c` of
        // the rail slice belongs to server `c mod ndevs`, so every
        // server's inbound chunks — and therefore its fan-back — are
        // spread evenly across the upload timeline.
        // Grain: aim for STRIPE_CHUNKS chunks per server (the dealing
        // only smooths the tail if each server owns several), floored so
        // per-chunk step cost stays negligible and capped at the ring
        // chunk so an explicitly coarse config is honoured.
        let ndevs = srv.devs.len();
        let raw = slen.div_ceil(STRIPE_CHUNKS * ndevs as u64);
        let grain = raw.clamp(MIN_GRAIN.min(slen.max(1)), chunk_bytes.max(MIN_GRAIN));
        let nchunks = slen.div_ceil(grain) as usize;
        for (c, &(_, cb)) in ring::split_aligned(slen, nchunks, elem).iter().enumerate() {
            if cb == 0 {
                continue;
            }
            let sp = pos[srv.devs[c % ndevs]] as usize;
            // Chain up + upload: every client block reduces this chunk
            // to its leader, which injects it toward the stripe's owner
            // on its NIC.
            uploads.clear();
            for m in &blocks {
                let mut prev: Option<u32> = None;
                for k in (1..m.len()).rev() {
                    let lane = lane_of(m[k], CHAIN_UP);
                    prev = Some(emit(edge(m[k], m[k - 1]), lane, cb, flow, prev.as_slice()));
                }
                uploads.push(emit(edge(m[0], sp), lane_of(m[0], UP), cb, flow, prev.as_slice()));
            }
            // Fold + fan back + chain down: once every block's copy of
            // this chunk has arrived, the owner issues the reduced chunk
            // to each leader (paying the fold's step cost at issue) on
            // the dedicated server flow, and leaders chain it through
            // their blocks.
            for m in &blocks {
                let mut prev = emit(edge(sp, m[0]), lane_of(sp, DOWN), cb, srv_flow, &uploads);
                for k in 1..m.len() {
                    let lane = lane_of(m[k - 1], CHAIN_DOWN);
                    prev = emit(edge(m[k - 1], m[k]), lane, cb, flow, &[prev]);
                }
            }
        }
    }
    sched.add(seg);
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::probe::{self, allred};
    use crate::ll::AutoConfig;
    use crate::ring::CollEngine;
    use diomp_sim::{FaultPlan, PlatformSpec};

    #[test]
    fn crossover_is_zero_without_servers_or_for_non_allreduce() {
        let p = PlatformSpec::platform_a();
        assert_eq!(probe::cuts(p.clone(), (16, 4), 0, allred()).2, 0);
        for op in [XcclOp::Broadcast { root: 0 }, XcclOp::AllGather] {
            assert_eq!(probe::cuts(p.clone(), (16, 4), 8, op).2, 0, "{op:?}");
        }
    }

    #[test]
    fn provisioned_servers_win_at_large_sizes_on_every_platform() {
        // The bench clusters: client nodes matched by server nodes. The
        // fourth regime must open at or below 16 MiB — the size the
        // bench gate hard-asserts the emergent win at.
        for (p, clients, servers) in [
            (PlatformSpec::platform_a(), 8, 8),
            (PlatformSpec::platform_b(), 4, 4),
            (PlatformSpec::platform_c(), 8, 8),
        ] {
            let shape = (clients + servers, p.gpus_per_node);
            let cut = probe::cuts(p.clone(), shape, servers, allred()).2;
            assert!(cut > 0 && cut <= 16 << 20, "{}: server cut {cut} must open", p.name);
        }
    }

    #[test]
    fn starved_server_nics_never_win() {
        // One server node against many clients: the fan-back NIC
        // serialises every client's result and the price must refuse the
        // switch at any size.
        assert_eq!(probe::cuts(PlatformSpec::platform_a(), (16, 4), 1, allred()).2, 0);
    }

    #[test]
    fn open_band_never_loses_above_its_boundary() {
        // The top-band rule behind the scan: wherever the band opens, the
        // server schedule's price undercuts the ring's at every power of
        // two above it — also past the top of the scan, where the band
        // runs on unpriced.
        let p = PlatformSpec::platform_a();
        let rc = AutoConfig::for_platform(&p).ring_allred;
        let cut = probe::cuts(p.clone(), (16, 4), 8, allred()).2;
        let sizes: Vec<u64> = (10..=26).map(|k| 1u64 << k).filter(|&s| s >= cut).collect();
        let priced = |engine| {
            let sizes = sizes.clone();
            probe::comm(
                p.clone(),
                (16, 4),
                8,
                engine,
                |_| FaultPlan::new(),
                move |c| sizes.iter().map(|&s| c.price(&allred(), s).unwrap()).collect::<Vec<_>>(),
            )
        };
        let rsv = priced(CollEngine::ReductionServer(rc));
        let ring = priced(CollEngine::Ring(rc));
        for ((s, rsv), ring) in sizes.iter().zip(rsv).zip(ring) {
            assert!(rsv <= ring, "loss inside the open band at {s} bytes: {rsv:?} vs {ring:?}");
        }
    }

    #[test]
    fn crossover_tracks_the_live_server_set() {
        // The other live config: a dead NIC blacklists its server device.
        // With only the first server node's four devices left, their NICs
        // fan every client block's result back and the band closes.
        let p = PlatformSpec::platform_a();
        let engine = CollEngine::Auto(AutoConfig::for_platform(&p));
        let cut = |live: usize| {
            let plan_of = move |w: &FabricWorld| {
                let dead = 32 + live..64;
                dead.fold(FaultPlan::new(), |plan, f| plan.kill_link(w.devs.dev(f).nic))
            };
            probe::comm(p.clone(), (16, 4), 8, engine, plan_of, |c| {
                (c.live_servers(), c.auto_regimes(&allred()).unwrap().2)
            })
        };
        assert_eq!(cut(32), (32, 1 << 10), "every server live: the band opens above LL");
        assert_eq!(cut(4), (4, 0), "one server node live: the band closes");
    }

    #[test]
    fn server_spec_defaults_disabled_and_caps_nothing() {
        let d = ServerSpec::default();
        assert!(!d.enabled());
        assert!(ServerSpec::tail(2).enabled());
    }
}
