//! The double-binary-tree engine: the mid-band bandwidth algorithm
//! between the LL/tree latency protocol and the chunk-pipelined ring.
//!
//! A ring allreduce pays `2(n−1)` serial step latencies; below the
//! multi-MiB sizes where its near-perfect bandwidth utilisation pays
//! off, those steps dominate. NCCL's answer (and this module's) is the
//! *double binary tree* of Sanders, Speck & Träff: two complementary
//! trees over the same ranks, each reducing-then-broadcasting **half**
//! the payload in `⌈log2 n⌉` rounds. The trees complement each other —
//! no rank forwards (has children) in both trees — so the per-rank
//! send load stays ≈ `2·len`, the same asymptotic wire cost as the
//! ring, while the critical path shrinks from `2(n−1)` steps to
//! `2⌈log2 n⌉`.
//!
//! The trees span **node blocks**, not devices: within a node the
//! payload chains over the GPU fabric to the block's *leader*, and only
//! leaders talk across nodes — one up and at most two down NIC
//! transfers per node per tree, which keeps the per-NIC load at the
//! ring's `2·slice` bound (a device-level tree crosses a node boundary
//! at every subtree seam and loses the bandwidth race before latency
//! even counts). Like the ring engine, the schedule runs **per rail**:
//! the payload splits across the communicator's `nrings` rails, and the
//! rails' rotated block orders make a different device lead each rail's
//! blocks, so the leader NIC load spreads across the node's NICs
//! exactly like the ring's boundary crossings (NCCL's tree *channels*).
//!
//! A rooted op has two layouts ([`Layout`]). *Top* rotates both trees
//! onto the root's block and lets the root device lead it on every rail,
//! so every rail's slice leaves through the root's one NIC. *Fed*
//! (broadcast only) is Sanders, Speck & Träff's two-tree broadcast: rail
//! `r`'s slice crosses the GPU fabric to the device `r` places after the
//! root in its block, which feeds the roots of two unrotated trees over
//! the *other* blocks, one half each — every NIC carries about
//! `len / nrings`, the ring's load, at tree depth plus two hops.
//!
//! Execution mirrors [`crate::ring`]: the schedule is chunk sends with
//! explicit dependencies (a chunk climbs to a parent only once the same
//! chunk has arrived from *both* children; it descends to a child only
//! once it has arrived from the parent) — one chunk's trip over a tree
//! is the period of a [`crate::drive::Segment`], repeated per chunk —
//! per-edge FIFO lanes bound in-flight chunks to the configured window,
//! and the shared progress loop ([`crate::drive::Schedule::drive`])
//! marches it. Chunk size
//! and window are table-derived ([`crate::RingConfig::auto`], the knee
//! machinery at the latency–bandwidth balance point), so the whole mid
//! band is tuned from the platform tables, not constants.
//!
//! [`CollEngine::Auto`](crate::CollEngine::Auto) runs it above the
//! LL/tree band up to the largest size at which its schedule's price
//! undercuts the ring's ([`crate::XcclComm::auto_regimes`]).

use diomp_fabric::FabricWorld;
use diomp_sim::FlowId;

use crate::drive::{ChunkSend, Schedule, Segment};
use crate::ops::XcclOp;
use crate::ring::{self, Rail};

/// One of the two trees: parent/children per node-block position.
#[derive(Clone, Debug)]
pub(crate) struct Tree {
    root: usize,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    /// Positions ordered root-first (every parent before its children).
    top_down: Vec<usize>,
}

impl Tree {
    fn from_parents(root: usize, parent: Vec<Option<usize>>) -> Tree {
        let mut children = vec![Vec::new(); parent.len()];
        for (v, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[*p].push(v);
            }
        }
        let mut top_down = vec![root];
        let mut i = 0;
        while i < top_down.len() {
            top_down.extend(children[top_down[i]].iter().copied());
            i += 1;
        }
        Tree { root, parent, children, top_down }
    }
}

/// Parent of `v` in the single binary tree over `0..n` rooted at 0 —
/// NCCL's `ncclGetBtree` construction: strip the lowest set bit and
/// attach to the next power-of-two boundary, falling back inside range.
/// Odd positions are always leaves, even positions interior — the
/// property the complementary second tree exploits.
fn btree_parent(n: usize, v: usize) -> Option<usize> {
    if v == 0 {
        return None;
    }
    let bit = v & v.wrapping_neg();
    let up = (v ^ bit) | (bit << 1);
    Some(if up >= n { v ^ bit } else { up })
}

/// The two complementary trees over `n` ring positions. Tree 0 is the
/// plain btree; tree 1 is its *shift* (odd `n`) or *mirror* (even `n`),
/// which swaps the leaf/interior roles: for even `n` no position
/// forwards in both trees (odd `n` concedes one overlapping position —
/// perfect complementarity is impossible there), so the two
/// half-payload pipelines never stack their forwarding load onto the
/// same NICs.
pub(crate) fn double_tree(n: usize) -> [Tree; 2] {
    let t0 = Tree::from_parents(0, (0..n).map(|v| btree_parent(n, v)).collect());
    let t1 = if n % 2 == 1 {
        // Shift: relabel v -> v+1 (mod n).
        let parent =
            (0..n).map(|v| btree_parent(n, (v + n - 1) % n).map(|p| (p + 1) % n)).collect();
        Tree::from_parents(1 % n, parent)
    } else {
        // Mirror: relabel v -> n-1-v.
        let parent = (0..n).map(|v| btree_parent(n, n - 1 - v).map(|p| n - 1 - p)).collect();
        Tree::from_parents(n - 1, parent)
    };
    [t0, t1]
}

/// Which trees a schedule runs and where a rooted op enters them.
#[derive(Clone, Copy)]
pub(crate) enum Layout<'a> {
    /// The [`double_tree`] over every node block. Rooted ops rotate it
    /// onto the root's block, whose root device leads it on every rail;
    /// allreduce keeps the natural roots, where complementarity is exact.
    Top(&'a [Tree; 2]),
    /// Broadcast only: the [`double_tree`] over the `nb − 1` other node
    /// blocks, in ring order from the one after the root's, fed per rail
    /// by the device `r` places after the root in its block — the root
    /// itself when `r` is a multiple of the block size.
    Fed(&'a [Tree; 2]),
}

/// Emit the schedule: one [`Segment`] per (rail, tree), whose period is
/// one chunk's trip over the tree — up the block chains and the tree
/// (reduce), then down the tree and the chains (broadcast) — repeated
/// once per chunk of the tree's half of the rail slice. `root_flat` is
/// the rooted ops' root device.
#[allow(clippy::too_many_arguments)] // one arg per schedule dimension; a struct would be ceremony
pub(crate) fn schedule(
    world: &FabricWorld,
    rails: &[Rail],
    layout: Layout,
    flow: FlowId,
    op: XcclOp,
    root_flat: Option<usize>,
    len: u64,
    chunk_bytes: u64,
    t: &ring::Tuning,
) -> Schedule {
    let n = rails.first().map_or(0, |r| r.order.len());
    let mut sched = Schedule::new(rails.len() * 2 * 4 * n);
    if n <= 1 || len == 0 {
        return sched;
    }
    let (do_reduce, do_bcast) = match op {
        XcclOp::AllReduce { .. } => (true, true),
        XcclOp::Broadcast { .. } => (false, true),
        XcclOp::Reduce { .. } => (true, false),
        XcclOp::AllGather => unreachable!("all-gather never takes the DBT path"),
    };
    let (trees, fed) = match layout {
        Layout::Top(trees) => (trees, false),
        Layout::Fed(trees) => (trees, true),
    };
    debug_assert!(!fed || !do_reduce, "only a broadcast is fed");
    let slices = ring::split_aligned(len, rails.len(), op.elem_align());
    let chunk_bytes = chunk_bytes.max(1);

    // Per-edge FIFO lane kinds, keyed so every directed edge owns
    // exactly one lane: intra-node chain hops by their *sender*
    // position, inter-node tree ups by the sending leader, tree downs
    // by the receiving leader (a leader sends up once but down twice).
    const CHAIN_UP: usize = 0;
    const CHAIN_DOWN: usize = 1;
    const TREE_UP: usize = 2;
    const TREE_DOWN: usize = 3;
    for (ri, rail) in rails.iter().enumerate() {
        let (_, slen) = slices[ri];
        if slen == 0 {
            continue;
        }
        // The trees span *node blocks* (`Rail::blocks`), not devices:
        // within a node the payload moves as a chain over the GPU fabric
        // toward the block's leader; only leaders talk across nodes, so
        // each node pays exactly one up and at most two down NIC
        // transfers per tree — the layout that keeps the per-NIC load at
        // the ring's `2·slice` bound (a device-level tree would cross
        // node boundaries at every subtree seam and lose the bandwidth
        // race ~1.5× before latency even counts). The rail's intra-block
        // rotation makes a different device lead each rail's blocks, so
        // the leader NIC load spreads across the node's NICs exactly
        // like the ring's boundary crossings.
        let nb = rail.blocks.len();
        // Fed trees span the other blocks; with none, only the root's
        // block is left to chain.
        let spanned = if fed { nb - 1 } else { nb };
        debug_assert_eq!(spanned.max(1), trees[0].parent.len(), "trees span the node blocks");
        // Rooted ops: the root device leads its block (chains reduce
        // toward / broadcast from the leader) — or, fed, this rail's
        // feeder leads the chain through the block's other members.
        let rooted = matches!(op, XcclOp::Broadcast { .. } | XcclOp::Reduce { .. });
        let (mut root_pos, mut root_block) = (0usize, 0usize);
        let mut root_members: Vec<usize> = Vec::new();
        if rooted {
            root_pos = ring::rail_pos(rail, root_flat);
            root_block = rail.blocks.iter().position(|(_, m)| m.contains(&root_pos)).unwrap();
            root_members.clone_from(&rail.blocks[root_block].1);
            let at = root_members.iter().position(|&p| p == root_pos).unwrap();
            root_members.rotate_left(at);
            let feeder = ri % root_members.len();
            if fed && feeder > 0 {
                root_members.rotate_left(feeder);
                root_members.retain(|&p| p != root_pos);
            }
        }
        let halves = ring::split_aligned(slen, 2, op.elem_align());
        for (ti, tree) in trees.iter().enumerate() {
            let (_, hlen) = halves[ti];
            if hlen == 0 {
                continue;
            }
            // Top rooted ops rotate the tree in block space so its
            // natural root lands on the root device's block; allreduce
            // keeps the natural roots (exact leaf/interior
            // complementarity), and fed trees start after the root's block.
            let rot = if rooted && !fed { (root_block + nb - tree.root) % nb } else { 0 };
            let blk = |b: usize| -> &[usize] {
                if fed {
                    return &rail.blocks[(root_block + 1 + b) % nb].1;
                }
                let b = (b + rot) % nb;
                if rooted && b == root_block {
                    &root_members
                } else {
                    &rail.blocks[b].1
                }
            };
            let edge =
                |src: usize, dst: usize| ring::link(&world.devs, rail.order[src], rail.order[dst]);
            let lane_of = |pos: usize, kind: usize| (((ri * 2 + ti) * n + pos) * 4 + kind) as u32;
            // The period: one full chunk. Only the last repeat's chunk
            // can be shorter.
            let nchunks = hlen.div_ceil(chunk_bytes);
            let full = chunk_bytes.min(hlen);
            let last = hlen - (nchunks - 1) * chunk_bytes;
            let mut seg = Segment::new(nchunks);
            // Emission order is every lane's FIFO order, and every
            // dependency — the same chunk from the block's own chain plus
            // both child leaders (climbing), or from the parent leader /
            // the previous chain hop (descending) — is emitted before the
            // send it enables.
            let mut emit = |edge: ring::Edge, lane, deps: [Option<u32>; 3]| {
                let send = ChunkSend { res: edge.res, lane, wire: t.wire(edge, full), flow };
                let short = (last != full).then(|| t.wire(edge, last));
                seg.push(send, short.as_slice(), deps.into_iter().flatten())
            };
            let mut chain_done: Vec<Option<u32>> = vec![None; nb];
            let mut up_idx: Vec<Option<u32>> = vec![None; nb];
            let mut down_recv: Vec<Option<u32>> = vec![None; nb];
            // Reduce: each block chains its members' contributions into
            // the leader, then leaders climb the tree once both child
            // leaders' copies of this chunk have arrived.
            if do_reduce {
                for (b, done) in chain_done.iter_mut().enumerate() {
                    let m = blk(b);
                    let mut prev = None;
                    for k in (1..m.len()).rev() {
                        let lane = lane_of(m[k], CHAIN_UP);
                        prev = Some(emit(edge(m[k], m[k - 1]), lane, [prev, None, None]));
                    }
                    *done = prev;
                }
                for &b in tree.top_down.iter().rev() {
                    if b == tree.root {
                        continue;
                    }
                    let mut deps = [chain_done[b], None, None];
                    for (i, &cb) in tree.children[b].iter().enumerate() {
                        deps[i + 1] = up_idx[cb];
                    }
                    let p = tree.parent[b].unwrap();
                    let lane = lane_of(blk(b)[0], TREE_UP);
                    up_idx[b] = Some(emit(edge(blk(b)[0], blk(p)[0]), lane, deps));
                }
            }
            // Fed: the root hands the chunk to this rail's feeder, which
            // sends it to the tree's root leader and chains it through
            // the rest of the root's block.
            if fed {
                let feeder = root_members[0];
                let feed = (feeder != root_pos).then(|| {
                    emit(edge(root_pos, feeder), lane_of(root_pos, CHAIN_DOWN), [None; 3])
                });
                if spanned > 0 {
                    let head = blk(tree.root)[0];
                    let lane = lane_of(head, TREE_DOWN);
                    down_recv[tree.root] = Some(emit(edge(feeder, head), lane, [feed, None, None]));
                }
                let mut prev = feed;
                for k in 1..root_members.len() {
                    let (src, dst) = (root_members[k - 1], root_members[k]);
                    prev = Some(emit(edge(src, dst), lane_of(src, CHAIN_DOWN), [prev, None, None]));
                }
            }
            // Broadcast: the root leader's sends wait for this chunk's
            // reduction to close (allreduce), for its arrival from the
            // feeder (fed), or for nothing (top), then the chunk descends
            // the tree and chains through each block.
            if do_bcast {
                let root_deps = {
                    let mut d = [down_recv[tree.root].or(chain_done[tree.root]), None, None];
                    for (i, &cb) in tree.children[tree.root].iter().enumerate() {
                        d[i + 1] = up_idx[cb];
                    }
                    d
                };
                for &b in tree.top_down.iter().take(spanned) {
                    for &cb in &tree.children[b] {
                        let deps =
                            if b == tree.root { root_deps } else { [down_recv[b], None, None] };
                        let lane = lane_of(blk(cb)[0], TREE_DOWN);
                        down_recv[cb] = Some(emit(edge(blk(b)[0], blk(cb)[0]), lane, deps));
                    }
                    let m = blk(b);
                    let mut prev = down_recv[b];
                    for k in 1..m.len() {
                        let deps =
                            if k == 1 && b == tree.root { root_deps } else { [prev, None, None] };
                        let lane = lane_of(m[k - 1], CHAIN_DOWN);
                        prev = Some(emit(edge(m[k - 1], m[k]), lane, deps));
                    }
                }
            }
            sched.add(seg);
        }
    }
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::probe::{self, allred};
    use crate::ll::AutoConfig;
    use crate::ring::{CollEngine, RingConfig};
    use diomp_fabric::ReduceOp;
    use diomp_sim::{FaultPlan, PlatformId, PlatformSpec};

    /// Walk up from `v`; returns the hop count to the root (panics on a
    /// broken parent chain longer than `n`).
    fn hops_to_root(t: &Tree, mut v: usize) -> usize {
        let mut hops = 0;
        while let Some(p) = t.parent[v] {
            v = p;
            hops += 1;
            assert!(hops <= t.parent.len(), "parent chain cycles");
        }
        assert_eq!(v, t.root);
        hops
    }

    #[test]
    fn both_trees_span_every_rank_with_logarithmic_depth() {
        for n in 2..80usize {
            let bound = (n as f64).log2().ceil() as usize + 1;
            for t in double_tree(n) {
                assert!(t.parent[t.root].is_none());
                assert_eq!(t.parent.iter().filter(|p| p.is_none()).count(), 1);
                let mut max = 0;
                for v in 0..n {
                    max = max.max(hops_to_root(&t, v));
                }
                assert!(max <= bound, "n={n}: depth {max} exceeds ⌈log2 n⌉+1={bound}");
                assert!(t.children.iter().all(|c| c.len() <= 2), "binary tree");
                assert_eq!(t.top_down.len(), n, "top_down covers every position");
            }
        }
    }

    #[test]
    fn trees_are_complementary() {
        // The double-binary-tree property: no rank forwards (has
        // children) in both trees, so the two half-payload pipelines
        // never stack their interior send load on one NIC. Odd rank
        // counts concede exactly one overlapping position (perfect
        // complementarity needs an even count).
        for n in 2..80usize {
            let [t0, t1] = double_tree(n);
            let overlaps = (0..n)
                .filter(|&v| !t0.children[v].is_empty() && !t1.children[v].is_empty())
                .count();
            assert!(
                overlaps <= n % 2,
                "n={n}: {overlaps} ranks forward in both trees (allowed: {})",
                n % 2
            );
        }
    }

    /// The `scale_ranks` / `fig_scale` cell: 2048 single-GPU nodes of
    /// platform C, a 16 MiB allreduce on the tuned chunking. Each tree's
    /// period is one chunk over its 2047 edges, up and down; the schedule
    /// holds exactly those two periods however many chunks repeat them —
    /// the 1.87 M-send table must not come back.
    #[test]
    fn a_2048_block_allreduce_stores_two_periods() {
        use diomp_device::{DataMode, DeviceTable};
        use diomp_sim::{ClusterSpec, Sim, Topology};
        use std::sync::Arc;

        let sim = Sim::new();
        let platform = PlatformSpec::platform_c();
        let spec = ClusterSpec { platform: platform.clone(), nodes: 2048, gpus_per_node: 1 };
        let topo = Arc::new(Topology::build(&sim.handle(), spec));
        let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, None);
        let world = FabricWorld::new(topo, devs, 2048);
        let order: Vec<usize> = (0..2048).collect();
        let rails = ring::build_rails(&world, &order, 1);
        let op = XcclOp::AllReduce { op: ReduceOp::SumF32 };
        let cfg = RingConfig::auto(&platform, &op, 1);
        let t = ring::tuning_for(&platform, &op, 1);
        let flow = sim.handle().new_flow(1000);
        let trees = double_tree(2048);
        let len = 16 << 20;
        let top = Layout::Top(&trees);
        let sched = schedule(&world, &rails, top, flow, op, None, len, cfg.chunk_bytes, &t);
        let nchunks = (len / 2).div_ceil(cfg.chunk_bytes) as usize;
        assert!(nchunks >= 100, "the cell must be deep in the periodic regime");
        assert_eq!(sched.stored(), 2 * 2 * 2047);
        assert_eq!(sched.len(), sched.stored() * nchunks);
    }

    #[test]
    fn crossover_is_zero_for_allgather_and_tiny_comms() {
        let a = PlatformSpec::platform_a();
        assert_eq!(probe::cuts(a.clone(), (4, 4), 0, XcclOp::AllGather), (0, 0, 0));
        assert_eq!(probe::cuts(a, (1, 1), 0, allred()), (0, 0, 0));
    }

    #[test]
    fn allreduce_mid_band_is_nonempty_at_paper_scale() {
        // The tentpole's reason to exist: at the Fig. 6 device counts the
        // DBT band must extend beyond the LL cut on every platform, so
        // Auto has a genuine third regime for allreduce — through 512 KiB
        // everywhere (on B its calibrated link efficiency starves ring
        // and tree alike, so only latency overhead is saveable) and
        // through 1 MiB on A.
        for (p, nodes) in [
            (PlatformSpec::platform_a(), 16),
            (PlatformSpec::platform_b(), 8),
            (PlatformSpec::platform_c(), 16),
        ] {
            let (ll, dbt, _) = probe::cuts(p.clone(), (nodes, p.gpus_per_node), 0, allred());
            assert!(dbt > ll, "{}: DBT cut {dbt} must extend past the LL cut {ll}", p.name);
            let floor = if p.id == PlatformId::A { 1 << 20 } else { 512 << 10 };
            assert!(dbt >= floor, "{}: mid band should reach {floor}, got {dbt}", p.name);
        }
    }

    #[test]
    fn mid_band_has_no_ceiling_only_a_price() {
        // The cuts of every communicator Fig. 6, `coll_sweep` and the gate
        // build, as the schedules price them; from 256 node blocks the
        // ring's 2(n−1) steps keep the tree ahead past the top of the
        // scan, so its band runs on above 16 MiB.
        for (p, nodes, gpn, want) in [
            (PlatformSpec::platform_a(), 16, 4, 4u64 << 20),
            (PlatformSpec::platform_a(), 4, 4, 1 << 20),
            (PlatformSpec::platform_b(), 8, 8, 512 << 10),
            (PlatformSpec::platform_c(), 16, 1, 1 << 20),
            (PlatformSpec::platform_c(), 256, 1, u64::MAX),
            (PlatformSpec::platform_c(), 2048, 1, u64::MAX),
        ] {
            let name = p.name;
            assert_eq!(probe::cuts(p, (nodes, gpn), 0, allred()).1, want, "{name}/{nodes}x{gpn}");
        }
    }

    #[test]
    fn dbt_crossover_tracks_the_live_ring_config() {
        // Mid-band counterpart of the live-ring pricing rule: the tree band
        // is priced on the live allreduce chunking, so changing it must
        // move the cut, and a broadcast-config change must not.
        let p = PlatformSpec::platform_c();
        let cut = |ac: AutoConfig| {
            let engine = CollEngine::Auto(ac);
            probe::comm(
                p.clone(),
                (16, 1),
                0,
                engine,
                |_| FaultPlan::new(),
                |c| c.auto_regimes(&allred()).unwrap().1,
            )
        };
        let tuned = AutoConfig::for_platform(&p);
        let tiny = RingConfig { chunk_bytes: 512, max_inflight: 2 };
        let moved = cut(AutoConfig { ring_allred: tiny, ..tuned });
        assert_ne!(moved, cut(tuned), "the DBT cut must move with the live ring chunk");
        assert_eq!(cut(AutoConfig { ring_bcast: tiny, ..tuned }), cut(tuned));
    }
}
