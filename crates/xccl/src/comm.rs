//! XCCL communicators: bootstrap, topology discovery, collective launch.
//!
//! A communicator has two halves. The **plan** ([`CommPlan`]) is
//! everything that is a pure function of `(world, ranks, opts)` — the
//! node-major ring order, the rails over it, the reduction-server
//! carving and the rendezvous gate — derived **once per [`UniqueId`]**
//! by the first rank to reach [`XcclComm::init`] and shared by `Rc`
//! with every other member. The per-rank half ([`XcclComm`]) is what
//! genuinely differs between members: the rank's index, its QoS flow
//! ids, and the rail / server-device sets *as filtered by the health
//! vector that rank observed* when it initialised (members can leave the
//! init delay at different instants under a straggler plan). With no
//! dead link in sight — the overwhelmingly common case — the filter is
//! skipped and every member holds the plan's own `Arc`s.
//!
//! The collective itself is launched by the **last** rank to arrive at
//! the gate, with *its* rails, flow and regime boundaries; no other rank
//! does any per-collective work beyond the arrival (DESIGN.md D18).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::{Rc, Weak};
use std::sync::Arc;

use diomp_fabric::{FabricWorld, HealthVec, RankHealth, Rendezvous};
use diomp_sim::{derive_seed, ClusterSpec, Ctx, Dur, FlowId, QosClass, SimTime, Wait, WaitTimeout};

use crate::dbt;
use crate::drive::{Links, Schedule, Watch};
use crate::gate::{CollAbort, DeviceBuf};
use crate::ll::{self, AutoConfig};
use crate::ops::XcclOp;
use crate::ring::{self, CollEngine, Rail, RingConfig, Tuning};
use crate::rserver::{self, ServerSet, ServerSpec};
use crate::unique_id::UniqueId;

/// The shared half of a communicator: what every member derives
/// identically from `(world, ranks, opts)`.
struct CommPlan {
    ranks: Arc<[usize]>,
    /// Ring summary over the *unfiltered* rails.
    ring: Arc<RingInfo>,
    /// Ring position of every flat device of the world (`u32::MAX` for
    /// devices outside the communicator).
    pos: Vec<u32>,
    /// One rail per NIC, before any dead-link blacklisting. Each carries
    /// its node blocks, which the DBT and server schedules span.
    rails: Arc<Vec<Rail>>,
    /// The double binary tree over the node blocks (every rail has the
    /// same block count; top rooted ops rotate it per call), and the one
    /// over all blocks but a fed broadcast root's.
    trees: [dbt::Tree; 2],
    fed_trees: [dbt::Tree; 2],
    /// Reduction-server carving with every server device listed, before
    /// any dead-NIC blacklisting (None when servers are disabled).
    servers: Option<Arc<ServerSet>>,
    /// The rendezvous gate all members share — that sharing is exactly
    /// what the UniqueId bootstrap establishes in NCCL. Each rank brings
    /// its device buffers; everyone leaves with the runner's outcome: the
    /// completion instant, or the instant it aborted.
    gate: Rendezvous<Vec<DeviceBuf>, Result<SimTime, SimTime>>,
    /// Auto's cuts, shared by every plan of the same shape.
    cuts: Arc<CutTable>,
}

/// Auto's cuts already scanned ([`XcclComm::auto_regimes`]), by key.
type CutTable = std::sync::Mutex<Vec<(CutKey, Cuts)>>;

/// Auto's cuts for one [`CutKey`]: [`XcclComm::auto_regimes`]' three, and
/// the size from which the tree band runs the fed layout (`u64::MAX`:
/// never; only a broadcast is fed).
#[derive(Clone, Copy)]
struct Cuts {
    regimes: (u64, u64, u64),
    fed: u64,
}

/// What a plan's schedules are built from: its cluster, members and
/// server designation. Plans of one shape price alike, so they share one
/// [`CutTable`] — a communicator rebuilt over the same cluster and ranks
/// reads its cuts instead of scanning again.
#[derive(PartialEq)]
struct Shape {
    cluster: ClusterSpec,
    gpus_per_rank: usize,
    ranks: Arc<[usize]>,
    servers: ServerSpec,
}

fn cut_table(shape: Shape) -> Arc<CutTable> {
    /// Every shape's [`CutTable`] the process has built: one memo for all
    /// the test harness's threads, so none re-runs Auto's cold scans.
    static TABLES: std::sync::Mutex<Vec<(Shape, Arc<CutTable>)>> =
        std::sync::Mutex::new(Vec::new());
    let mut tables = TABLES.lock().expect("nothing panics while holding the shape tables");
    if let Some((_, table)) = tables.iter().find(|(s, _)| *s == shape) {
        return table.clone();
    }
    let table = Arc::new(CutTable::default());
    tables.push((shape, table.clone()));
    table
}

/// What Auto's cuts depend on beyond the plan's shape: the op (its root
/// set to position 0), the engine's config, the health factor the links
/// are rated at, and the communicator's live state — the leading device
/// of each live rail, the live server devices, and the member links the
/// health vector now marks dead.
#[derive(PartialEq)]
struct CutKey {
    op: XcclOp,
    ac: AutoConfig,
    factor: u32,
    rails: Vec<usize>,
    servers: Vec<usize>,
    dead: Vec<usize>,
}

/// The powers of two Auto's scans price: 1 KiB to 16 MiB, Fig. 6's
/// largest cell.
const SCAN_SHIFTS: std::ops::RangeInclusive<u32> = 10..=24;

impl CommPlan {
    /// Out of line: only the first member builds, but inlined into
    /// [`XcclComm::init`] its frame rides on every member's fiber stack.
    #[inline(never)]
    fn build(world: &FabricWorld, ranks: Vec<usize>, spec: ServerSpec) -> CommPlan {
        // Node-major device ordering minimises ring node-crossings.
        let node_of = |f: usize| world.devs.dev(f).loc.node;
        let mut order: Vec<usize> = ranks.iter().flat_map(|&r| world.devices_of(r)).collect();
        order.sort_by_key(|&f| (node_of(f), world.devs.dev(f).loc.gpu));
        let mut node_ids: Vec<usize> = order.iter().map(|&f| node_of(f)).collect();
        node_ids.dedup();
        let nodes = node_ids.len();
        let devs_per_node = order.len().div_ceil(nodes.max(1));
        let nrings = world.topo.nics_per_node().min(devs_per_node).max(1);
        let rails = ring::build_rails(world, &order, nrings);

        // Reduction-server carving: whole node blocks from the tail of
        // the node-major order become infrastructure (at least one
        // client node always remains).
        let servers = (spec.enabled() && nodes > 1).then(|| {
            let nsrv = spec.nodes.min(nodes - 1);
            let srv_nodes = node_ids[nodes - nsrv..].to_vec();
            let devs = order.iter().copied().filter(|&f| srv_nodes.contains(&node_of(f))).collect();
            Arc::new(ServerSet { nodes: srv_nodes, devs })
        });

        let mut pos = vec![u32::MAX; world.devs.len()];
        for (i, &f) in order.iter().enumerate() {
            pos[f] = i as u32;
        }
        let ranks: Arc<[usize]> = ranks.into();
        let shape = Shape {
            cluster: world.topo.spec.clone(),
            gpus_per_rank: world.gpus_per_rank,
            ranks: ranks.clone(),
            servers: spec,
        };
        CommPlan {
            gate: Rendezvous::new(ranks.len()),
            ranks,
            ring: Arc::new(RingInfo { order, nodes, nrings: rails.len() }),
            pos,
            rails: Arc::new(rails),
            trees: dbt::double_tree(nodes),
            fed_trees: dbt::double_tree(nodes.max(2) - 1),
            servers,
            cuts: cut_table(shape),
        }
    }
}

thread_local! {
    /// The plan registry: every rank constructs its own communicator
    /// object, but all communicators created from the same [`UniqueId`]
    /// share one plan (and through it one rendezvous gate). Per thread,
    /// because a simulation never leaves the thread that runs it.
    static PLANS: RefCell<HashMap<u64, Weak<CommPlan>>> = RefCell::new(HashMap::new());
}

/// The plan registered for `id`. The first arriver builds it; the rest
/// take the `Rc`. Entries are weak — a plan lives exactly as long as some
/// member's communicator does — and dead ones are purged whenever a new
/// plan is registered, so init / shrink cycles hold the registry at its
/// live size.
fn plan_for(id: UniqueId, build: impl FnOnce() -> CommPlan) -> Rc<CommPlan> {
    PLANS.with_borrow_mut(|plans| {
        if let Some(plan) = plans.get(&id.bits()).and_then(Weak::upgrade) {
            return plan;
        }
        plans.retain(|_, p| p.strong_count() > 0);
        let plan = Rc::new(build());
        plans.insert(id.bits(), Rc::downgrade(&plan));
        plan
    })
}

/// Construction options for [`XcclComm::init`] — the one communicator
/// constructor. `CommOpts::default()` reproduces the historical
/// `init` behaviour (ring engine, normal QoS, no servers);
/// override fields with struct-update syntax:
///
/// ```ignore
/// XcclComm::init(ctx, &world, ranks, r, id, CommOpts {
///     qos: QosClass::High,
///     ..CommOpts::default()
/// });
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct CommOpts {
    /// Completion-time engine (emergent ring protocol, DBT, LL/tree
    /// auto-selection, or the calibrated profile).
    pub engine: CollEngine,
    /// QoS class of the owning job: fixes the weight this communicator's
    /// chunk traffic carries in the per-link weighted fair queue when
    /// contention is armed ([`diomp_sim::Sim::enable_contention`]).
    pub qos: QosClass,
    /// Reduction-server designation: how many whole nodes of the
    /// communicator are dedicated in-network reduction servers (see
    /// [`ServerSpec`]; the default disables the server path). Server
    /// ranks are members — they arrive at the gate — but are
    /// *infrastructure*: allreduce on a server-equipped communicator
    /// reduces over the **client** ranks only, and their fan-back
    /// traffic is charged to a dedicated QoS flow.
    pub servers: ServerSpec,
}

/// Ring topology summary produced by communicator initialisation.
#[derive(Clone, Debug)]
pub struct RingInfo {
    /// Devices in ring order (node-major, so node boundaries are crossed
    /// exactly `nodes` times — NCCL's bandwidth-optimal layout).
    pub order: Vec<usize>,
    /// Number of distinct nodes spanned.
    pub nodes: usize,
    /// Concurrent rings (one per NIC on multi-rail nodes — how NCCL
    /// reaches >single-NIC bandwidth on platforms A/B).
    pub nrings: usize,
}

/// A communicator over the devices of a set of ranks (the backend of one
/// DiOMP group, paper §3.3).
pub struct XcclComm {
    /// The fabric world.
    pub world: Rc<FabricWorld>,
    /// Participating ranks, in order (shared by every member).
    pub ranks: Arc<[usize]>,
    /// Bootstrap identifier this communicator was created from.
    pub id: UniqueId,
    /// Discovered ring topology (shared by every member unless this
    /// rank blacklisted dead rails).
    pub ring: Arc<RingInfo>,
    /// Completion-time engine (emergent ring protocol or calibrated
    /// profile; see [`CollEngine`]).
    pub engine: CollEngine,
    /// QoS class of the owning job (see [`CommOpts::qos`]).
    pub qos: QosClass,
    /// The once-per-[`UniqueId`] shared half.
    plan: Rc<CommPlan>,
    /// This rank's index in `ranks`.
    idx: usize,
    /// This rank's traffic flow: tags every chunk charge the collective
    /// engines issue, so armed contention prices them at the
    /// communicator's QoS weight.
    flow: FlowId,
    /// Per-rail rotated ring orders with their edge link assignments —
    /// the plan's, minus the rails this rank's health vector condemned.
    rails: Arc<Vec<Rail>>,
    /// Resolved reduction-server set — the plan's carving, minus the
    /// server devices whose NIC this rank saw dead — and the dedicated
    /// flow server fan-back is charged to: same QoS weight as the
    /// owning job (WFQ accounting stays per-job) but separately
    /// observable in `flow_stats`. None when [`CommOpts::servers`] is
    /// disabled — the communicator then behaves exactly as before the
    /// server engine existed, including flow-id allocation.
    servers: Option<(Arc<ServerSet>, FlowId)>,
    /// Construction options, kept verbatim so [`XcclComm::shrink`] can
    /// re-initialise the survivor communicator with the same policy.
    opts: CommOpts,
}

impl XcclComm {
    /// Collectively initialise a communicator over `ranks` (every listed
    /// rank must call with the same `ranks`/`id`/`opts`). Charges the
    /// library's initialisation cost (topology discovery, ring
    /// construction, transport setup) and synchronises all participants.
    ///
    /// Engine, QoS weight and server designation all ride in [`CommOpts`];
    /// `CommOpts::default()` reproduces the historical default
    /// constructor.
    pub fn init(
        ctx: &mut Ctx,
        world: &Rc<FabricWorld>,
        ranks: Vec<usize>,
        my_rank: usize,
        id: UniqueId,
        opts: CommOpts,
    ) -> Rc<XcclComm> {
        let idx = ranks.iter().position(|&r| r == my_rank).expect("rank not in communicator");
        // The first member to get here derives the plan; the rest share
        // it. The plan reads no health, so it is joined *before* the init
        // delay: no member holds its rank list across the park.
        let plan = plan_for(id, || CommPlan::build(world, ranks, opts.servers));
        debug_assert_eq!(plan.ranks[idx], my_rank, "members disagree on the rank list");

        // Topology discovery + transport setup (ncclCommInitRank).
        ctx.delay(Dur::micros(world.platform.coll.xccl_init_us));

        // Degradation awareness, keyed on the health vector
        // (`gaspi_state_vec`) *this* rank observes now. With no dead
        // link in it — always, on a healthy fabric — both filters below
        // drop nothing, so they are skipped and the layout is the
        // plan's, bit-identical to the fault-free build.
        let health = world.health();
        let any_dead = health.any_dead_link();

        // Rails whose edges ride a dead link are blacklisted and the
        // payload re-split over the survivors, trading aggregate
        // bandwidth for avoiding a 1000×-slow dead edge. At least one
        // rail always survives: with every rail condemned there is no
        // better topology to retreat to, so the layout stays unchanged
        // and the injector's replay makes the damage visible.
        let mut rails = plan.rails.clone();
        let mut ring = plan.ring.clone();
        if any_dead {
            let alive: Vec<Rail> =
                rails.iter().filter(|r| !r.uses_dead_link(&health)).cloned().collect();
            if !alive.is_empty() && alive.len() < rails.len() {
                ring = Arc::new(RingInfo { nrings: alive.len(), ..(*ring).clone() });
                rails = Arc::new(alive);
            }
        }

        // Server devices whose NIC the health vector marks dead are
        // blacklisted — the stripes re-split over the survivors, and
        // with *every* server dead the set is empty and the engines fall
        // back to the ring schedule: degrade, never hang. The dedicated
        // server flow is allocated only when servers are configured, so
        // server-free communicators keep their historical flow-id
        // sequence bit for bit.
        let servers = plan.servers.as_ref().map(|carved| {
            let nic_alive = |&f: &usize| health.link_factor_milli(world.devs.dev(f).nic) != 0;
            let set = if any_dead && !carved.devs.iter().all(nic_alive) {
                let devs = carved.devs.iter().copied().filter(nic_alive).collect();
                Arc::new(ServerSet { nodes: carved.nodes.clone(), devs })
            } else {
                carved.clone()
            };
            (set, ctx.new_flow(opts.qos.weight_milli()))
        });

        let flow = ctx.new_flow(opts.qos.weight_milli());
        Rc::new(XcclComm {
            world: world.clone(),
            ranks: plan.ranks.clone(),
            id,
            ring,
            engine: opts.engine,
            qos: opts.qos,
            plan,
            idx,
            flow,
            rails,
            servers,
            opts,
        })
    }

    /// Shrink the communicator onto the survivors of a failure:
    /// every rank the health vector marks [`RankHealth::Dead`] is
    /// dropped, and the survivor set is collectively re-initialised —
    /// rails, reduction-server carving, QoS flows and all four Auto
    /// regime boundaries are re-derived for the reduced topology by the
    /// one constructor ([`XcclComm::init`]) with the *original*
    /// construction options.
    ///
    /// Deterministic by construction: the replacement [`UniqueId`] is
    /// derived from the old communicator's id
    /// ([`diomp_sim::derive_seed`]), so every survivor — each calling
    /// `shrink` with the *same* health vector, e.g. the survivor
    /// agreement fixpoint ([`FabricWorld::converged_health`]) — lands on
    /// the same fresh rendezvous gate without any extra bootstrap
    /// round. Each survivor must call this collectively, like `init`.
    ///
    /// Panics if `my_rank` is itself marked dead or no rank survives.
    pub fn shrink(&self, ctx: &mut Ctx, health: &HealthVec, my_rank: usize) -> Rc<XcclComm> {
        let survivors: Vec<usize> = self
            .ranks
            .iter()
            .copied()
            .filter(|&r| health.rank_health(r) != RankHealth::Dead)
            .collect();
        assert!(survivors.contains(&my_rank), "a dead rank cannot shrink a communicator");
        let id = UniqueId::from_bits(derive_seed(self.id.bits(), 0x0541_814C));
        // Retire the dying communicator's QoS flow slots *before* the
        // survivor re-init so the replacement communicator reuses them —
        // repeated shrink cycles hold the kernel's flow table at a
        // constant size instead of leaking a slot pair per retry.
        // Accumulated [`diomp_sim::FlowStats`] are discarded with the
        // slot and the old handles go stale; callers attributing bytes
        // across a shrink must read [`diomp_sim::SimHandle::flow_stats`]
        // first (the workload harness does).
        ctx.release_flow(self.flow);
        if let Some((_, srv_flow)) = self.servers {
            ctx.release_flow(srv_flow);
        }
        XcclComm::init(ctx, &self.world, survivors, my_rank, id, self.opts)
    }

    /// Is any member's communicator created from `id` still alive? The
    /// plan registry holds communicators weakly, so this turns false
    /// once every member has dropped (or shrunk away from) its handle —
    /// what the elastic path's leak tests assert.
    pub fn is_live(id: UniqueId) -> bool {
        PLANS.with_borrow(|plans| plans.get(&id.bits()).is_some_and(|p| p.strong_count() > 0))
    }

    /// The QoS flow this rank's collectives are charged to when it is
    /// the one that launches them (the last arriver) — the client-side
    /// twin of [`XcclComm::server_flow`], for
    /// [`diomp_sim::SimHandle::flow_stats`].
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Position of a device in the ring.
    pub fn ring_pos(&self, flat: usize) -> usize {
        match self.plan.pos.get(flat) {
            Some(&p) if p != u32::MAX => p as usize,
            _ => panic!("device not in communicator"),
        }
    }

    /// Number of devices in the communicator.
    pub fn ndevices(&self) -> usize {
        self.ring.order.len()
    }

    /// Node ids dedicated as reduction servers (empty when
    /// [`CommOpts::servers`] is disabled). These nodes' ranks are
    /// communicator members but contribute no data to allreduce.
    pub fn server_nodes(&self) -> &[usize] {
        self.servers.as_ref().map_or(&[], |(s, _)| &s.nodes)
    }

    /// The dedicated QoS flow server fan-back traffic is charged to
    /// (None when no servers are configured). Pass it to
    /// [`diomp_sim::SimHandle::flow_stats`] to observe server traffic
    /// separately from the communicator's client flow.
    pub fn server_flow(&self) -> Option<FlowId> {
        self.servers.as_ref().map(|&(_, flow)| flow)
    }

    /// Live server devices (0 with no servers configured, or every
    /// server NIC dead).
    pub(crate) fn live_servers(&self) -> usize {
        self.servers.as_ref().map_or(0, |(s, _)| s.devs.len())
    }

    /// The regime boundaries of this communicator's engine for `op`:
    /// `Some((ll_cut, dbt_cut, rsv_cut))` under [`CollEngine::Auto`],
    /// `None` for the single-protocol engines. Payloads up to `ll_cut`
    /// bytes run the LL/tree fast path, payloads in `(ll_cut, dbt_cut]`
    /// run the double-binary-tree engine, payloads of `rsv_cut` bytes
    /// and above run the reduction-server schedule when the
    /// communicator has live servers (`rsv_cut == 0` means the fourth
    /// regime is closed — no servers, or they never win), and
    /// everything in between falls back to the configured ring;
    /// `dbt_cut >= ll_cut` always, and an open `rsv_cut` always sits
    /// strictly above both (the mid band ends at `rsv_cut − 1` where the
    /// servers open beneath its priced top; an empty mid band collapses
    /// onto the lower boundary).
    ///
    /// Each boundary comes from a power-of-two scan, 1 KiB to 16 MiB, in
    /// which every size is priced by the candidate regimes' own schedules
    /// ([`XcclComm::price`]), on links rated at the health vector's worst
    /// live factor, so a degraded fabric moves them. The LL band ends at
    /// the largest size, at most 256 KiB, where LL undercuts both the
    /// ring and the tree; the tree band ends at the largest size above it
    /// where the tree undercuts the ring; the server band opens at the
    /// smallest size from which the servers undercut the ring at every
    /// larger one. A band still winning at 16 MiB runs on above it. A
    /// broadcast's tree is priced in the layout it runs: top below the
    /// smallest size from which the fed layout undercuts it at every
    /// larger one, fed from there (DESIGN.md D13). A scan runs once per
    /// key — the op with its root aside, the engine config, that factor,
    /// and the live rails, servers and dead links — in a table every plan
    /// over the same cluster, members and server designation shares, so
    /// no member, call or rebuilt communicator pays for it twice.
    pub fn auto_regimes(&self, op: &XcclOp) -> Option<(u64, u64, u64)> {
        self.cuts(op).map(|c| c.regimes)
    }

    /// [`XcclComm::auto_regimes`]' cuts with the fed one, scanned once per
    /// key.
    fn cuts(&self, op: &XcclOp) -> Option<Cuts> {
        let CollEngine::Auto(ac) = self.engine else { return None };
        // Rooted ops are priced from ring position 0: a cut belongs to
        // the op, not to one call's root.
        let op = match *op {
            XcclOp::Broadcast { .. } => XcclOp::Broadcast { root: 0 },
            XcclOp::Reduce { op, .. } => XcclOp::Reduce { root: 0, op },
            op => op,
        };
        let health = self.world.health();
        let devs = &self.world.devs;
        let dead = match health.any_dead_link() {
            false => Vec::new(),
            true => (self.ring.order.iter().flat_map(|&f| [devs.dev(f).nic, devs.dev(f).port]))
                .enumerate()
                .filter_map(|(i, res)| (health.link_factor_milli(res) == 0).then_some(i))
                .collect(),
        };
        let key = CutKey {
            op,
            ac,
            factor: health.worst_live_factor_milli(),
            rails: self.rails.iter().map(|r| r.order[0]).collect(),
            servers: self.servers.as_ref().map_or(Vec::new(), |(s, _)| s.devs.clone()),
            dead,
        };
        let table = || self.plan.cuts.lock().expect("nothing panics while holding a cut table");
        if let Some(&(_, cuts)) = table().iter().find(|(k, _)| *k == key) {
            return Some(cuts);
        }
        let cuts = self.scan(&ac, op, key.factor);
        table().push((key, cuts));
        Some(cuts)
    }

    /// Auto's cuts for `op` ([`XcclComm::cuts`]), each band scanned down
    /// from its far end over [`SCAN_SHIFTS`].
    fn scan(&self, ac: &AutoConfig, op: XcclOp, factor: u32) -> Cuts {
        if self.ndevices() < 2 || matches!(op, XcclOp::AllGather) {
            return Cuts { regimes: (0, 0, 0), fed: u64::MAX };
        }
        let links = self.links(factor);
        let rc = ac.ring_for(&op);
        let top = 1u64 << SCAN_SHIFTS.end();
        let sizes = || SCAN_SHIFTS.rev().map(|k| 1u64 << k);
        // One scan runs each regime on one config, so its variant names it.
        let mut memo = HashMap::new();
        let mut price = |regime: Regime, s: u64| {
            let key = (std::mem::discriminant(&regime), s);
            *memo.entry(key).or_insert_with(|| self.priced(regime, op, s, &links))
        };
        let (ring, fed_tree) = (Regime::Ring(rc), Regime::Fed(rc));
        let fed = match op {
            XcclOp::Broadcast { .. } => sizes()
                .take_while(|&s| price(fed_tree, s) <= price(Regime::Dbt(rc), s))
                .last()
                .unwrap_or(u64::MAX),
            _ => u64::MAX,
        };
        let tree = |s: u64| if s >= fed { fed_tree } else { Regime::Dbt(rc) };
        let ll_cut = sizes()
            .skip_while(|&s| s > ll::MAX_BYTES)
            .find(|&s| price(Regime::Ll(*ac), s) <= price(ring, s).min(price(tree(s), s)))
            .unwrap_or(0);
        let dbt_cut = match sizes()
            .take_while(|&s| s > ll_cut)
            .find(|&s| price(tree(s), s) <= price(ring, s))
        {
            Some(s) if s == top => u64::MAX,
            found => found.unwrap_or(ll_cut),
        };
        let served = matches!(op, XcclOp::AllReduce { .. }) && self.live_servers() > 0;
        let rsv_cut = if served {
            sizes()
                .take_while(|&s| price(Regime::Rserver(rc), s) <= price(ring, s))
                .last()
                .map_or(0, |s| s.max(ll_cut + 1))
        } else {
            0
        };
        let dbt_cut = if rsv_cut > 0 { dbt_cut.min(rsv_cut - 1) } else { dbt_cut };
        Cuts { regimes: (ll_cut, dbt_cut, rsv_cut), fed }
    }

    /// What one call of `op` on `len` bytes costs this communicator on
    /// idle links: the regime its engine runs for the call, priced from
    /// that regime's own schedule — launch, the schedule's
    /// `Schedule::price`, one receive-side step, exactly what a call
    /// charges. Inter-node links are rated at the health vector's worst
    /// live factor. This is the price [`XcclComm::auto_regimes`]
    /// compares regimes by; `None` under [`CollEngine::Profile`], which
    /// runs no schedule.
    pub fn price(&self, op: &XcclOp, len: u64) -> Option<Dur> {
        let regime = self.regime(op, len)?;
        let links = self.links(self.world.health().worst_live_factor_milli());
        Some(self.priced(regime, *op, len, &links))
    }

    fn priced(&self, regime: Regime, op: XcclOp, len: u64, links: &Links) -> Dur {
        let (t, window) = self.tuning(regime, &op);
        let launch = Dur::micros(t.launch_us);
        if self.ring.order.len() <= 1 || len == 0 {
            return launch;
        }
        let sched = self.schedule(regime, op, len, &t);
        if sched.len() == 0 {
            return launch;
        }
        let step = Dur::micros(t.step_us);
        launch + sched.price(links, window, step) + step
    }

    /// The link rates the price reads, from the topology the schedules'
    /// links come from: every member's NIC at the platform's NIC rate
    /// scaled by `factor`/1000, its fabric port at the GPU-link rate.
    fn links(&self, factor: u32) -> Links {
        let p = &self.world.topo.spec.platform;
        let nic = p.net.nic_gbps * f64::from(factor) / 1000.0;
        let mut links = Links::new();
        for &f in &self.ring.order {
            let d = self.world.devs.dev(f);
            links.set(d.nic, nic, Dur::micros(p.net.latency_us));
            links.set(d.port, p.intra.gpu_link_gbps, Dur::micros(p.intra.gpu_link_lat_us));
        }
        links
    }

    /// Launch a collective. Every participating rank calls this with the
    /// buffers of *its* devices (`DeviceBuf` per owned device); all block
    /// until the modelled completion and the data semantics have been
    /// applied. Returns the completion instant.
    ///
    /// `len` is the per-device payload in bytes.
    pub fn collective(
        &self,
        ctx: &mut Ctx,
        my_rank: usize,
        my_bufs: Vec<DeviceBuf>,
        op: XcclOp,
        len: u64,
    ) -> SimTime {
        match self.try_collective(ctx, my_rank, my_bufs, op, len, Wait::Block) {
            Ok(done) => done,
            Err(_) => unreachable!("a blocking collective cannot abort"),
        }
    }

    /// [`XcclComm::collective`] under a wait discipline — the elastic
    /// entry point. [`Wait::Block`] is exactly `collective` (bit-
    /// identical park and completion). With [`Wait::Until`] every park
    /// is bounded: at the rendezvous gate, and — once the gate fills —
    /// every park of the schedule's runner waiting for a chunk arrival.
    /// When a deadline expires the `gaspi_state_vec` probe runs
    /// ([`FabricWorld::probe_health`]) and the fault plan is consulted
    /// for a member whose kill time has passed. At the gate that means
    /// it can never fill, so the arrival is withdrawn; in flight the
    /// runner stops issuing, releases and purges its chunks, and ends
    /// the episode for every member. Either way the buffers are
    /// untouched — the fold only runs when a schedule completes — and
    /// [`CollAbort`] is returned for the caller to [`XcclComm::shrink`]
    /// and re-run. A timeout *without* a confirmed death re-parks:
    /// slowness is straggling, not failure. [`CollEngine::Profile`] runs
    /// no schedule, so only its gate can abort.
    pub fn try_collective(
        &self,
        ctx: &mut Ctx,
        my_rank: usize,
        my_bufs: Vec<DeviceBuf>,
        op: XcclOp,
        len: u64,
        wait: Wait,
    ) -> Result<SimTime, CollAbort> {
        assert_eq!(self.ranks[self.idx], my_rank, "collective called by a rank other than init's");
        let dead = |ctx: &mut Ctx| {
            self.world.probe_health();
            self.watch(ctx, wait).confirms(ctx.now())
        };
        // Everything past the arrival — regime selection, schedule
        // build, the march — runs once, on the last arriver, with *its*
        // rails, flow and server set; the outcome it reaches, completion
        // or abort, is what every member leaves with at that instant.
        let launch = |ctx: &mut Ctx, arrivals| {
            let watch = self.watch(ctx, wait);
            let out = self.launch(ctx, arrivals, op, len, watch);
            let (Ok(at) | Err(at)) = out;
            (at, out)
        };
        match self.plan.gate.arrive(ctx, self.idx, my_bufs, wait, dead, launch) {
            Ok(Ok(done)) => Ok(done),
            Ok(Err(at)) | Err(WaitTimeout { at }) => Err(CollAbort { at }),
        }
    }

    /// The probe behind every bounded park of a collective, the gate's
    /// and the runner's alike (DESIGN.md D17). GASPI discipline: an
    /// expired deadline is the failure signal, and the probe confirms a
    /// death once some member's kill time has passed — degraded-but-alive
    /// members are stragglers and never abort. The plan is read as the
    /// earliest member kill time, so the coalesced march can replay every
    /// probe by arithmetic; [`Wait::Block`] never probes.
    fn watch(&self, ctx: &Ctx, wait: Wait) -> Watch {
        let doom = wait.budget().and_then(|_| {
            let plan = ctx.handle().fault_plan()?;
            self.ranks.iter().filter_map(|&r| plan.kill_time(r as u32)).min()
        });
        Watch { wait, doom }
    }

    /// What one call of `op` on `len` bytes runs: the engine selector
    /// resolved against the op, the size and the live server set. Under
    /// [`CollEngine::Auto`] the boundaries are [`XcclComm::auto_regimes`]'
    /// and every chunked regime runs on the same live per-op chunking —
    /// one tuned config either side of a boundary. The single-protocol
    /// engines stay total over ops by falling back to the ring with the
    /// same chunking: all-gather has no tree schedule, and only an
    /// allreduce with a live server (configured, and not every server
    /// NIC dead) has a server schedule — degrade, never hang. `None` is
    /// [`CollEngine::Profile`], which runs no schedule at all.
    fn regime(&self, op: &XcclOp, len: u64) -> Option<Regime> {
        let served = matches!(op, XcclOp::AllReduce { .. }) && self.live_servers() > 0;
        Some(match self.engine {
            CollEngine::Profile => return None,
            CollEngine::Ring(rc) => Regime::Ring(rc),
            CollEngine::Dbt(rc) if matches!(op, XcclOp::AllGather) => Regime::Ring(rc),
            CollEngine::Dbt(rc) if matches!(op, XcclOp::Broadcast { .. }) => Regime::Fed(rc),
            CollEngine::Dbt(rc) => Regime::Dbt(rc),
            CollEngine::ReductionServer(rc) if served => Regime::Rserver(rc),
            CollEngine::ReductionServer(rc) => Regime::Ring(rc),
            CollEngine::Auto(ac) => {
                let Cuts { regimes: (ll_cut, dbt_cut, rsv_cut), fed } =
                    self.cuts(op).expect("Auto engine always has regime boundaries");
                let rc = ac.ring_for(op);
                if len <= ll_cut {
                    Regime::Ll(ac)
                } else if len <= dbt_cut && len >= fed {
                    Regime::Fed(rc)
                } else if len <= dbt_cut {
                    Regime::Dbt(rc)
                } else if served && rsv_cut > 0 && len >= rsv_cut {
                    // Clients are injection-bound at these sizes, so hand
                    // the fold to the server ranks.
                    Regime::Rserver(rc)
                } else {
                    Regime::Ring(rc)
                }
            }
        })
    }

    /// The tuning and in-flight window `regime` runs `op` with.
    fn tuning(&self, regime: Regime, op: &XcclOp) -> (Tuning, usize) {
        let ring_t = ring::tuning_for(&self.world.platform, op, self.rails.len());
        match regime {
            // One fused message per tree edge: a lane never holds two.
            Regime::Ll(ac) => (ac.ll_tuning(ring_t), 1),
            Regime::Dbt(rc) | Regime::Fed(rc) | Regime::Rserver(rc) | Regime::Ring(rc) => {
                (ring_t, rc.max_inflight)
            }
        }
    }

    /// `regime`'s generator output for one call of `op` on `len` bytes,
    /// on this rank's rails, flow and server set.
    fn schedule(&self, regime: Regime, op: XcclOp, len: u64, t: &Tuning) -> Schedule {
        let world = &*self.world;
        let (rails, flow, order) = (&*self.rails, self.flow, &self.ring.order);
        let root_pos = match op {
            XcclOp::Broadcast { root } | XcclOp::Reduce { root, .. } => Some(root),
            _ => None,
        };
        let root_flat = root_pos.map(|r| order[r]);
        match regime {
            Regime::Ring(rc) => ring::schedule(rails, flow, op, root_flat, len, rc.chunk_bytes, t),
            Regime::Ll(_) => ll::schedule(&world.devs, order, flow, op, root_pos, len, t),
            Regime::Dbt(rc) => {
                let (top, chunk) = (dbt::Layout::Top(&self.plan.trees), rc.chunk_bytes);
                dbt::schedule(world, rails, top, flow, op, root_flat, len, chunk, t)
            }
            Regime::Fed(rc) => {
                let (fed, chunk) = (dbt::Layout::Fed(&self.plan.fed_trees), rc.chunk_bytes);
                dbt::schedule(world, rails, fed, flow, op, root_flat, len, chunk, t)
            }
            Regime::Rserver(rc) => {
                let (srv, srv_flow) = self.servers.as_ref().expect("regime implies servers");
                let chunk = rc.chunk_bytes;
                rserver::schedule(world, rails, flow, srv, *srv_flow, op, len, chunk, t)
            }
        }
    }

    /// Run `regime`'s schedule in the calling (the last arriving) task's
    /// context, advancing virtual time to the emergent completion
    /// instant: launch delay, the march, one receive-side step. Every
    /// send pays one step before it touches the wire — a ring or tree
    /// chunk's processing, a fused LL line's initiation, a fold at the
    /// hop that forwards its result — so what the price charges per
    /// send is what runs. `Err` is the instant a bounded park of the
    /// march confirmed a member death ([`Schedule::drive`]).
    fn run(
        &self,
        ctx: &mut Ctx,
        regime: Regime,
        op: XcclOp,
        len: u64,
        watch: Watch,
    ) -> Result<SimTime, SimTime> {
        let (t, window) = self.tuning(regime, &op);
        let step = Dur::micros(t.step_us);
        ctx.delay(Dur::micros(t.launch_us));
        if self.ring.order.len() <= 1 || len == 0 {
            return Ok(ctx.now());
        }
        let sched = self.schedule(regime, op, len, &t);
        if sched.len() == 0 {
            return Ok(ctx.now());
        }
        if let Err(at) = sched.drive(ctx, window, step, watch) {
            self.world.probe_health();
            return Err(at);
        }
        // Receive-side processing of the final chunk (LL: the flag poll
        // of the final fused line).
        ctx.delay(step);
        Ok(ctx.now())
    }

    /// Run one collective whose gate just filled: resolve the regime,
    /// drive it in this (the last arriving) task's context, and schedule
    /// the data semantics at the completion instant — unless the march
    /// aborted, which leaves every buffer as it was.
    fn launch(
        &self,
        ctx: &mut Ctx,
        arrivals: Vec<Vec<DeviceBuf>>,
        op: XcclOp,
        len: u64,
        watch: Watch,
    ) -> Result<SimTime, SimTime> {
        let world = &*self.world;
        let order = &self.ring.order;

        // Assemble buffers in ring order.
        let mut by_flat: Vec<Option<DeviceBuf>> = vec![None; world.devs.len()];
        for b in arrivals.iter().flatten() {
            by_flat[b.flat] = Some(*b);
        }
        // Membership semantics of a server-equipped communicator:
        // allreduce reduces over the *client* ranks only, delivered to
        // every client; server buffers pass through untouched. This is a
        // property of the communicator, not of the regime that happens
        // to run, so every engine on such a communicator stays
        // byte-comparable — and the ring fallback for a dead server set
        // produces the same bytes the server schedule would have.
        let clients_only = self.servers.as_ref().filter(|_| matches!(op, XcclOp::AllReduce { .. }));
        let is_server = |f: usize| {
            clients_only.is_some_and(|(srv, _)| srv.nodes.contains(&world.devs.dev(f).loc.node))
        };
        let bufs: Vec<DeviceBuf> = order
            .iter()
            .map(|&f| (f, by_flat[f].unwrap_or_else(|| panic!("no buffer for device {f}"))))
            .filter(|&(f, _)| !is_server(f))
            .map(|(_, b)| b)
            .collect();

        let done = match self.regime(&op, len) {
            None => {
                // Modelled completion: launch + ring-fill hop latency +
                // wire bytes over the library's achieved-bandwidth
                // curve. The curve is calibrated per platform against
                // the vendor library's measured behaviour (Fig. 6) and
                // already includes multi-rail aggregation and protocol
                // switches (LL/LL128/Simple), which is why it need not
                // be monotonic. No link is touched: this is the oracle
                // the emergent regimes are calibrated against.
                let n = order.len();
                let profile = op.profile(&world.platform.coll);
                let hops = (n.max(2) - 1) as u32;
                let wire = (len as f64 * op.wire_factor(n)).ceil() as u64;
                Ok(ctx.now() + Dur::micros(profile.time_us(wire.max(1), hops)))
            }
            Some(regime) => self.run(ctx, regime, op, len, watch),
        };

        // Real data semantics at completion: one fold for every regime,
        // in the sequential reference order over the ring-ordered
        // buffers, so every engine deposits the same bytes on any data.
        if let Ok(done) = done {
            let devs = world.devs.clone();
            ctx.handle().schedule_at(done, move |_| op.apply(&devs, &bufs, len));
        }
        done
    }
}

/// The resolved form of a [`CollEngine`] for one call (see
/// [`XcclComm::regime`]): which generator emits the schedule.
#[derive(Clone, Copy)]
enum Regime {
    /// Fused eager sends over binomial trees (`ll`).
    Ll(ll::AutoConfig),
    /// Chunk-pipelined double binary tree (`dbt`), top layout.
    Dbt(RingConfig),
    /// The broadcast's double binary tree in the fed layout (`dbt`).
    Fed(RingConfig),
    /// Reduction-server offload over the live server set (`rserver`).
    Rserver(RingConfig),
    /// Chunk-pipelined ring (`ring`).
    Ring(RingConfig),
}

#[cfg(test)]
mod tests {
    use diomp_device::{DataMode, DeviceTable};
    use diomp_fabric::ReduceOp;
    use diomp_sim::{ClusterSpec, FaultPlan, PlatformSpec, Sim, SimHandle, SimReport, Topology};

    use super::*;
    use crate::ring::RingConfig;

    const NRANKS: usize = 8;

    /// Platform A, 2 nodes × 4 GPUs, one rank per GPU. `plan_of` builds
    /// the fault plan from the world (it needs its link ids); every rank
    /// initialises a communicator, runs `body`, and hands its
    /// communicator back.
    fn run(
        engine: CollEngine,
        plan_of: impl FnOnce(&FabricWorld) -> FaultPlan,
        body: impl Fn(&mut Ctx, &XcclComm, usize) + 'static,
    ) -> (SimHandle, Vec<Rc<XcclComm>>, SimReport) {
        let mut sim = Sim::new();
        let spec = ClusterSpec { platform: PlatformSpec::platform_a(), nodes: 2, gpus_per_node: 4 };
        let topo = Arc::new(Topology::build(&sim.handle(), spec));
        let devs =
            DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, Some(8 << 20));
        let world = FabricWorld::new(topo, devs, NRANKS);
        let plan = plan_of(&world);
        sim.set_fault_plan(plan.clone());
        world.attach_sim(&sim.handle());
        world.refresh_health_from_plan(&plan);
        let id = UniqueId::generate();
        let comms = Rc::new(RefCell::new(vec![None; NRANKS]));
        let body = Rc::new(body);
        for r in 0..NRANKS {
            let (world, comms, body) = (world.clone(), comms.clone(), body.clone());
            sim.spawn(format!("rank{r}"), move |ctx| {
                let opts = CommOpts { engine, ..CommOpts::default() };
                let comm = XcclComm::init(ctx, &world, (0..NRANKS).collect(), r, id, opts);
                body(ctx, &comm, r);
                comms.borrow_mut()[r] = Some(comm);
            });
        }
        let handle = sim.handle();
        let rep = sim.run().expect("communicator test deadlocked");
        let comms = comms.borrow_mut().drain(..).map(|c| c.expect("every rank finished")).collect();
        (handle, comms, rep)
    }

    #[test]
    fn members_share_one_plan_until_a_dead_link_makes_them_filter() {
        let ring = CollEngine::Ring(RingConfig::default());
        let (_, comms, _) = run(ring, |_| FaultPlan::new(), |_, _, _| {});
        for c in &comms {
            assert!(Rc::ptr_eq(&c.plan, &comms[0].plan), "one plan per UniqueId");
            assert!(Arc::ptr_eq(&c.rails, &c.plan.rails), "healthy members hold the plan's rails");
            assert!(Arc::ptr_eq(&c.ring, &c.plan.ring));
            assert!(Arc::ptr_eq(&c.ranks, &c.plan.ranks));
        }

        // One NIC dead: every member blacklists the same rail on its own
        // health vector; the shared plan keeps the unfiltered layout.
        let (_, comms, _) =
            run(ring, |w| FaultPlan::new().kill_link(w.devs.dev(1).nic), |_, _, _| {});
        for c in &comms {
            assert!(Rc::ptr_eq(&c.plan, &comms[0].plan));
            assert_eq!(c.plan.rails.len(), 4);
            assert_eq!((c.rails.len(), c.ring.nrings), (3, 3));
            assert_eq!(c.ring.order, c.plan.ring.order);
        }
    }

    /// Init joins the plan before it parks in the init delay, so no
    /// member holds its rank list across the park: one virtual µs in,
    /// while every member is still parked, the plan is registered — and
    /// every member still leaves init at exactly the delay.
    #[test]
    fn plan_is_registered_before_the_init_delay_ends() {
        let mut sim = Sim::new();
        let spec = ClusterSpec { platform: PlatformSpec::platform_a(), nodes: 2, gpus_per_node: 4 };
        let init_us = spec.platform.coll.xccl_init_us;
        let topo = Arc::new(Topology::build(&sim.handle(), spec));
        let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, None);
        let world = FabricWorld::new(topo, devs, NRANKS);
        let id = UniqueId::generate();
        let left = Rc::new(RefCell::new(Vec::new()));
        for r in 0..NRANKS {
            let (world, left) = (world.clone(), left.clone());
            sim.spawn(format!("rank{r}"), move |ctx| {
                XcclComm::init(ctx, &world, (0..NRANKS).collect(), r, id, CommOpts::default());
                left.borrow_mut().push(ctx.now());
            });
        }
        let live = Rc::new(RefCell::new(None));
        let seen = live.clone();
        sim.spawn("observer", move |ctx| {
            ctx.delay(Dur::micros(1.0));
            *seen.borrow_mut() = Some(XcclComm::is_live(id));
        });
        sim.run().unwrap();
        assert_eq!(*live.borrow(), Some(true), "the plan must exist while members are parked");
        assert_eq!(*left.borrow(), vec![SimTime::ZERO + Dur::micros(init_us); NRANKS]);
    }

    #[test]
    fn dead_plans_are_purged_when_the_next_one_registers() {
        let ring = CollEngine::Ring(RingConfig::default());
        let (_, comms, _) = run(ring, |_| FaultPlan::new(), |_, _, _| {});
        let old = comms[0].id;
        assert!(XcclComm::is_live(old));
        drop(comms);
        assert!(!XcclComm::is_live(old), "the registry must not keep a plan alive");
        let (_, comms, _) = run(ring, |_| FaultPlan::new(), |_, _, _| {});
        assert!(XcclComm::is_live(comms[0].id));
        let purged = PLANS.with_borrow(|plans| !plans.contains_key(&old.bits()));
        assert!(purged, "dead entries go on insert");
    }

    /// Rank 5 straggles out of the init delay 135 ms after the others,
    /// and a dead window on one NIC opens and closes in between. Every
    /// member must still blacklist that NIC's rail (health is the
    /// whole-run worst) and the collective — launched by the straggler,
    /// the last arriver — must land exactly where it did when each rank
    /// derived its own plan: end time, entry count and link watermarks
    /// below were recorded at the parent commit.
    #[test]
    fn straggler_and_dead_window_straddling_init_replay_the_per_rank_derivation() {
        let ms = |m: u64| SimTime(m * 1_000_000);
        let cells: [(CollEngine, u64, [u64; 16]); 2] = [
            (
                CollEngine::Ring(RingConfig::default()),
                225179485,
                [
                    225175518, 225176008, 0, 225176008, 225175518, 225174500, 225175518, 225176008,
                    225175523, 225176004, 0, 225176004, 225175523, 225174503, 225175523, 225176004,
                ],
            ),
            (
                CollEngine::Dbt(RingConfig::default()),
                225175783,
                [
                    225165688, 225170554, 225165687, 225172301, 0, 225172871, 225165687, 225172871,
                    225166011, 225170231, 225166010, 225171978, 0, 225172547, 225166010, 225172548,
                ],
            ),
        ];
        for (engine, end_ns, free_at) in cells {
            let inited = Rc::new(RefCell::new([0u64; NRANKS]));
            let inited2 = inited.clone();
            let (handle, comms, rep) = run(
                engine,
                |w| {
                    FaultPlan::new().straggle("rank5", 2500).degrade_link(
                        w.devs.dev(1).nic,
                        ms(100),
                        ms(150),
                        0,
                    )
                },
                move |ctx, comm, r| {
                    inited2.borrow_mut()[r] = ctx.now().nanos();
                    let off = comm.world.primary_dev(r).malloc(1 << 20, 256).unwrap();
                    let op = XcclOp::AllReduce { op: ReduceOp::SumF32 };
                    comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, 1 << 20);
                },
            );
            let mut want_inited = [ms(90).nanos(); NRANKS];
            want_inited[5] = ms(225).nanos();
            assert_eq!(*inited.borrow(), want_inited, "{engine:?}: the window straddles init");
            assert!(comms.iter().all(|c| c.ring.nrings == 3), "{engine:?}: one rail blacklisted");
            assert_eq!((rep.end_time.nanos(), rep.entries_processed), (end_ns, 29), "{engine:?}");
            let devs = &comms[0].world.devs;
            let got: Vec<u64> = (0..NRANKS)
                .flat_map(|f| [devs.dev(f).nic, devs.dev(f).port])
                .map(|res| handle.resource_free_at(res).nanos())
                .collect();
            assert_eq!(got, free_at, "{engine:?}: link watermarks");
        }
    }
}

/// Unit-test probes of a communicator's pricing, shared by the engine
/// modules' tests.
#[cfg(test)]
pub(crate) mod probe {
    use diomp_device::{DataMode, DeviceTable};
    use diomp_fabric::ReduceOp;
    use diomp_sim::{FaultPlan, PlatformSpec, Sim, Topology};

    use super::*;

    /// Run `f` on one member's communicator over every device of `nodes`
    /// × `per_node` GPUs of `platform`, the last `servers` nodes
    /// reduction servers, with `plan_of`'s fault plan armed. Nothing
    /// else runs.
    pub(crate) fn comm<R: 'static>(
        platform: PlatformSpec,
        (nodes, per_node): (usize, usize),
        servers: usize,
        engine: CollEngine,
        plan_of: impl FnOnce(&FabricWorld) -> FaultPlan,
        f: impl FnOnce(&XcclComm) -> R + 'static,
    ) -> R {
        let mut sim = Sim::new();
        let spec = ClusterSpec { platform, nodes, gpus_per_node: per_node };
        let n = spec.total_gpus();
        let topo = Arc::new(Topology::build(&sim.handle(), spec));
        let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, None);
        let world = FabricWorld::new(topo, devs, n);
        let plan = plan_of(&world);
        sim.set_fault_plan(plan.clone());
        world.attach_sim(&sim.handle());
        world.refresh_health_from_plan(&plan);
        let out = Rc::new(RefCell::new(None));
        let out2 = out.clone();
        sim.spawn("rank0", move |ctx| {
            let opts =
                CommOpts { engine, servers: ServerSpec::tail(servers), ..CommOpts::default() };
            let comm = XcclComm::init(ctx, &world, (0..n).collect(), 0, UniqueId::generate(), opts);
            *out2.borrow_mut() = Some(f(&comm));
        });
        sim.run().expect("a lone member never blocks");
        let got = out.borrow_mut().take().expect("the member ran");
        got
    }

    /// Auto's cuts for `op` on a healthy [`comm`] under `platform`'s
    /// GASNet-derived [`AutoConfig`].
    pub(crate) fn cuts(
        platform: PlatformSpec,
        shape: (usize, usize),
        servers: usize,
        op: XcclOp,
    ) -> (u64, u64, u64) {
        let engine = CollEngine::Auto(AutoConfig::for_platform(&platform));
        comm(
            platform,
            shape,
            servers,
            engine,
            |_| FaultPlan::new(),
            move |c| c.auto_regimes(&op).expect("Auto has regimes"),
        )
    }

    pub(crate) fn allred() -> XcclOp {
        XcclOp::AllReduce { op: ReduceOp::SumF32 }
    }
}
