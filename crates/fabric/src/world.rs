//! The fabric world: ranks, their devices, and shared conduit state.

use std::cell::{OnceCell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use diomp_device::{Device, DeviceTable, MemError};
use diomp_sim::{Dur, FaultPlan, PlatformSpec, SimHandle, Topology};

use crate::barrier::BarrierDomain;
use crate::exchange::ExchangeDomain;
use crate::health::HealthVec;
use crate::mpi::MpiWorld;
use crate::segment::{Segment, SegmentId};

/// Shared state of a fabric job: `nranks` ranks spread over the cluster,
/// each bound to `gpus_per_rank` consecutive devices (paper §3.3's
/// "hierarchical device binding": one device per rank for MPI
/// compatibility, or several for the single-process multi-GPU mode).
pub struct FabricWorld {
    /// Cluster topology.
    pub topo: Arc<Topology>,
    /// All devices in the job.
    pub devs: Rc<DeviceTable>,
    /// Number of ranks.
    pub nranks: usize,
    /// Devices bound to each rank.
    pub gpus_per_rank: usize,
    /// The platform's calibrated software models.
    pub platform: PlatformSpec,
    /// World barrier (GASNet named barrier / `MPI_Barrier`).
    pub barrier: BarrierDomain,
    /// CPU-side bootstrap all-gather (segment exchange, UniqueId bcast).
    pub bootstrap: ExchangeDomain<u64>,
    /// Registered segments, per rank.
    pub(crate) segments: RefCell<Vec<Vec<Segment>>>,
    /// MPI baseline state (match queues, windows).
    pub(crate) mpi: MpiWorld,
    /// GPI-2 conduit state (queues, notifications).
    pub(crate) gpi: crate::gpi::GpiState,
    /// Per-rank health vector (`gaspi_state_vec`), refreshed from the
    /// installed fault plan via [`FabricWorld::refresh_health_from_plan`].
    health: RefCell<HealthVec>,
    /// The ranks owning a device endpoint on each link resource, by
    /// resource index (NICs are commonly shared by all ranks of a node;
    /// PCIe lanes, fabric ports and copy engines are per-device). The
    /// device table never changes, so this is built once — by the first
    /// fault plan that needs it, so a fault-free world never pays for it.
    link_owners: OnceCell<BTreeMap<usize, Vec<usize>>>,
    /// Simulator handle, when attached ([`FabricWorld::attach_sim`]).
    /// With a handle present, [`FabricWorld::health`] derives from the
    /// *currently installed* fault plan at the *current* virtual time —
    /// the live `gaspi_state_vec` — instead of the build-time snapshot.
    sim: RefCell<Option<SimHandle>>,
}

impl FabricWorld {
    /// Create a world of `nranks` ranks over the given devices. The device
    /// count must be divisible by `nranks`; each rank gets a contiguous
    /// block of devices.
    pub fn new(topo: Arc<Topology>, devs: Rc<DeviceTable>, nranks: usize) -> Rc<FabricWorld> {
        assert!(
            nranks >= 1 && devs.len().is_multiple_of(nranks),
            "devices must divide evenly into ranks"
        );
        let gpus_per_rank = devs.len() / nranks;
        let platform = topo.spec.platform.clone();
        let hop = Dur::micros(platform.net.latency_us);
        Rc::new(FabricWorld {
            topo,
            devs,
            nranks,
            gpus_per_rank,
            platform,
            barrier: BarrierDomain::new(nranks, hop),
            bootstrap: ExchangeDomain::new(nranks, hop),
            segments: RefCell::new(vec![Vec::new(); nranks]),
            mpi: MpiWorld::new(nranks),
            gpi: crate::gpi::GpiState::new(nranks),
            health: RefCell::new(HealthVec::healthy(nranks)),
            link_owners: OnceCell::new(),
            sim: RefCell::new(None),
        })
    }

    /// Attach the simulator to the world, switching [`FabricWorld::health`]
    /// to the live refresh path and expanding any rank-kill events in the
    /// installed fault plan into kernel-side dead windows over the
    /// rank's *exclusively owned* link resources (its PCIe lanes, fabric
    /// port, copy engine — and its NIC only when no surviving rank
    /// shares it). Transfers still targeting a dead rank then crawl at
    /// 1000× slowdown, tripping the GASPI timeout surfaces, while
    /// shared node NICs stay live for the survivors. Call once, at
    /// build, after the plan is installed.
    pub fn attach_sim(&self, h: &SimHandle) {
        if let Some(plan) = h.fault_plan() {
            let mut windows = Vec::new();
            for (rank, at) in plan.rank_kills() {
                let rank = rank as usize;
                if rank >= self.nranks {
                    continue;
                }
                for flat in self.devices_of(rank) {
                    let d = self.devs.dev(flat);
                    for res in [d.nic, d.d2h, d.port, d.d2d_engine, d.h2d] {
                        let owners = self.link_owners().get(&res.index());
                        let exclusive = owners.is_none_or(|rs| rs.iter().all(|&r| r == rank));
                        if exclusive && !windows.contains(&(res, at)) {
                            windows.push((res, at));
                        }
                    }
                }
            }
            h.arm_rank_kill_windows(&windows);
        }
        *self.sim.borrow_mut() = Some(h.clone());
    }

    /// Current health vector (`gaspi_state_vec`): one entry per rank.
    ///
    /// With a simulator attached ([`FabricWorld::attach_sim`]) this is
    /// *live*: the stored vector is merged with the currently installed
    /// fault plan — whole-run-worst link degradations plus every
    /// rank-kill whose time has come marked [`RankHealth::Dead`](crate::health::RankHealth::Dead)
    /// (`now >= kill_at`). Health only worsens, GASPI-style: a rank once
    /// observed corrupt stays corrupt. Without a handle it is the stored
    /// snapshot, exactly as before attachment existed.
    pub fn health(&self) -> HealthVec {
        self.derive_live().unwrap_or_else(|| self.health.borrow().clone())
    }

    /// True when [`FabricWorld::health`] would record a dead link, read
    /// without copying the vector: a link is dead in the stored vector
    /// or in the installed plan's whole-run worst, whatever the time.
    /// Communicator init asks this first and copies the vector only when
    /// there is a dead link to filter out.
    pub fn any_dead_link(&self) -> bool {
        let planned = || {
            let plan = self.sim.borrow().as_ref().and_then(SimHandle::fault_plan);
            plan.is_some_and(|plan| plan.degraded_links().iter().any(|&(_, f)| f == 0))
        };
        self.health.borrow().any_dead_link() || planned()
    }

    /// GASPI `gaspi_state_vec` probe: recompute live health *and commit
    /// it* to the stored vector, so the death transition persists even
    /// for later un-attached reads. The conduit timeout surfaces
    /// ([`crate::gpi::wait_queue`], [`crate::gpi::notify_waitsome`]) call
    /// this on every expired deadline — the GASPI discipline of
    /// `gaspi_wait(timeout) == GASPI_TIMEOUT ⇒ gaspi_state_vec_get`.
    pub fn probe_health(&self) -> HealthVec {
        match self.derive_live() {
            Some(v) => {
                *self.health.borrow_mut() = v.clone();
                v
            }
            None => self.health.borrow().clone(),
        }
    }

    /// The survivor-agreement fixpoint: live health with *every* planned
    /// rank kill applied, including those whose time has not yet come.
    /// A pure function of the installed fault plan, identical on every
    /// rank that computes it at any time — so all survivors of a failure
    /// deterministically agree on the same shrunk world without a
    /// consensus round, and chaos runs replay bit-identically.
    pub fn converged_health(&self) -> HealthVec {
        let mut v = self.health();
        if let Some(h) = self.sim.borrow().clone() {
            if let Some(plan) = h.fault_plan() {
                for (rank, _) in plan.rank_kills() {
                    if (rank as usize) < self.nranks {
                        v.observe(rank as usize, 0);
                    }
                }
            }
        }
        v
    }

    /// Live derivation: stored vector ⊔ current plan (worst-wins merge),
    /// or `None` when no simulator is attached / no plan is installed.
    fn derive_live(&self) -> Option<HealthVec> {
        let h = self.sim.borrow().clone()?;
        let plan = h.fault_plan()?;
        let now = h.now();
        let mut v = self.health.borrow().clone();
        self.observe_degraded_links(&mut v, &plan);
        for (rank, at) in plan.rank_kills() {
            if now >= at && (rank as usize) < self.nranks {
                v.observe(rank as usize, 0);
            }
        }
        Some(v)
    }

    fn link_owners(&self) -> &BTreeMap<usize, Vec<usize>> {
        self.link_owners.get_or_init(|| {
            let mut owners: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for d in self.devs.iter() {
                let rank = self.rank_of_dev(d.flat);
                for res in [d.nic, d.d2h, d.port, d.d2d_engine, d.h2d] {
                    let ranks = owners.entry(res.index()).or_default();
                    if !ranks.contains(&rank) {
                        ranks.push(rank);
                    }
                }
            }
            owners
        })
    }

    /// Attribute each of `plan`'s degraded links to every rank owning a
    /// device endpoint on it (NIC, PCIe, fabric port, copy engine — NICs
    /// are commonly shared by all ranks of a node, so one dead NIC
    /// degrades several ranks).
    fn observe_degraded_links(&self, v: &mut HealthVec, plan: &FaultPlan) {
        for (res, factor) in plan.degraded_links() {
            v.observe_link(res, factor);
            for &r in self.link_owners().get(&res.index()).into_iter().flatten() {
                v.observe(r, factor);
            }
        }
    }

    /// Rebuild the health vector from a fault plan
    /// (see `observe_degraded_links` for the attribution rule).
    pub fn refresh_health_from_plan(&self, plan: &FaultPlan) {
        let mut v = HealthVec::healthy(self.nranks);
        self.observe_degraded_links(&mut v, plan);
        *self.health.borrow_mut() = v;
    }

    /// The node a rank's process runs on.
    pub fn node_of(&self, rank: usize) -> usize {
        self.devs.dev(rank * self.gpus_per_rank).loc.node
    }

    /// The flat indices of the devices bound to `rank`.
    pub fn devices_of(&self, rank: usize) -> std::ops::Range<usize> {
        rank * self.gpus_per_rank..(rank + 1) * self.gpus_per_rank
    }

    /// A rank's first (primary) device.
    pub fn primary_dev(&self, rank: usize) -> &Rc<Device> {
        self.devs.dev(rank * self.gpus_per_rank)
    }

    /// The rank that owns a device.
    pub(crate) fn rank_of_dev(&self, flat: usize) -> usize {
        flat / self.gpus_per_rank
    }

    /// Register a device segment for `rank` by carving `len` bytes out of
    /// the device allocator (the conduit pins this memory; the DiOMP
    /// runtime then sub-allocates its global heap from it).
    pub fn attach_device_segment(
        &self,
        rank: usize,
        flat: usize,
        len: u64,
    ) -> Result<SegmentId, MemError> {
        assert!(self.devices_of(rank).contains(&flat), "rank {rank} does not own device {flat}");
        let base = self.devs.dev(flat).malloc(len, 4096)?;
        let mut segs = self.segments.borrow_mut();
        let index = segs[rank].len();
        segs[rank].push(Segment { rank, flat, base, len });
        Ok(SegmentId { rank, index })
    }

    /// Look up a segment.
    pub fn segment(&self, id: SegmentId) -> Segment {
        self.segments.borrow_mut()[id.rank]
            .get(id.index)
            .cloned()
            .unwrap_or_else(|| panic!("unknown segment {id:?}"))
    }
}
