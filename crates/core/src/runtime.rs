//! The DiOMP-Offloading runtime: boot, shared state, per-rank handle.
//!
//! `DiompRuntime::run` assembles the whole stack bottom-up (paper Fig.
//! 1b): simulated cluster → devices → conduit world → per-device global
//! segments → shared symmetric/asymmetric heap → rank tasks. Each rank
//! receives a [`DiompRank`] handle carrying the `ompx_*` API
//! (allocation in `runtime.rs`, RMA in `rma.rs`, synchronisation in
//! `sync.rs`, collectives in `ompccl.rs`, target regions in `target.rs`).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use diomp_device::DeviceTable;
use diomp_fabric::{ExchangeDomain, FabricWorld, SegmentId};
use diomp_sim::{Ctx, Dur, Sim, SimError, SimReport, SimTime, Topology};

use crate::config::{Binding, DiompConfig};
use crate::error::DiompError;
use crate::galloc::{AsymRegion, AsymRegistry, PtrCache, SymHeap, WRAPPER_BYTES};
use crate::gptr::{AsymPtr, GPtr};
use crate::group::{DiompGroup, GroupRegistry};

/// Fraction of each device's global heap reserved for the asymmetric
/// region; the rest is the symmetric heap.
const ASYM_FRAC: f64 = 0.25;

/// Job-wide shared runtime state.
pub struct DiompShared {
    /// Configuration the job was booted with.
    pub cfg: DiompConfig,
    /// The conduit world underneath.
    pub world: Rc<FabricWorld>,
    /// Per-device attached segment ids (index = flat device).
    pub seg: Vec<SegmentId>,
    /// Per-device segment base offsets in device address space.
    pub seg_base: Vec<u64>,
    /// The shared symmetric heap (one layout for every device).
    pub sym: SymHeap,
    /// The asymmetric region manager.
    pub asym: AsymRegion,
    /// Ground truth for asymmetric allocations (cache validity).
    pub asym_reg: AsymRegistry,
    /// World-collective allocation gate.
    pub(crate) alloc_exch: ExchangeDomain<u64>,
    /// Group registry (split/merge).
    pub groups: GroupRegistry,
    /// Per-rank pending RMA completion instants, drained by `ompx_fence`.
    pub(crate) pending: Vec<RefCell<Vec<SimTime>>>,
}

impl DiompShared {
    /// The world group (all ranks).
    pub fn world_group(&self) -> DiompGroup {
        self.groups.get_or_create((0..self.world.nranks).collect())
    }
}

/// Per-rank runtime handle — the `ompx_*` API surface. Owned by the
/// rank's task.
pub struct DiompRank {
    /// Shared job state.
    pub shared: Rc<DiompShared>,
    /// This rank.
    pub rank: usize,
    /// Remote second-level-pointer cache (paper §3.2).
    pub cache: PtrCache,
    /// GASPI recovery loops taken so far: one count per purge-and-repost
    /// of a GPI-2 operation that hit an errored queue. Stays 0 on a
    /// healthy fabric.
    pub rma_retries: u64,
}

/// The DiOMP runtime entry point.
pub struct DiompRuntime;

impl DiompRuntime {
    /// Build the shared state inside an existing simulation (harnesses
    /// that need extra tasks or custom control use this; most callers use
    /// [`DiompRuntime::run`]).
    pub fn build(sim: &Sim, cfg: DiompConfig) -> Rc<DiompShared> {
        let h = sim.handle();
        let topo = Arc::new(Topology::build(&h, cfg.cluster.clone()));
        let devs = DeviceTable::build(&h, topo.clone(), cfg.mode, None);
        let nranks = cfg.nranks();
        let world = FabricWorld::new(topo, devs, nranks);
        // Attach the simulator: the health vector (gaspi_state_vec) then
        // derives *live* from whichever fault plan is installed when it
        // is read — degradation-aware layers (rail blacklisting, regime
        // re-pricing) see faults armed after build too, not a build-time
        // snapshot — and any rank-kill events are expanded into kernel
        // dead windows over the doomed ranks' exclusive links.
        world.attach_sim(&h);
        if let Some(plan) = h.fault_plan() {
            world.refresh_health_from_plan(&plan);
        }

        // Attach one conduit segment per device and enable GPUDirect peer
        // access among same-node devices (topology detection, paper §3.2).
        let mut seg = Vec::with_capacity(world.devs.len());
        let mut seg_base = Vec::with_capacity(world.devs.len());
        for r in 0..nranks {
            for d in world.devices_of(r) {
                let id = world
                    .attach_device_segment(r, d, cfg.heap_bytes)
                    .expect("device too small for the configured global heap");
                seg.push(id);
                seg_base.push(world.segment(id).base);
            }
        }
        if cfg.use_p2p {
            for a in world.devs.iter() {
                for b in world.devs.iter() {
                    if a.flat != b.flat && a.loc.node == b.loc.node {
                        a.enable_peer(b.flat);
                    }
                }
            }
        }

        let asym_len = (cfg.heap_bytes as f64 * ASYM_FRAC) as u64;
        let sym_len = cfg.heap_bytes - asym_len;
        let hop = Dur::micros(world.platform.net.latency_us);
        Rc::new(DiompShared {
            world: world.clone(),
            seg,
            seg_base,
            sym: SymHeap::new(cfg.allocator, sym_len),
            asym: AsymRegion::new(sym_len, asym_len, world.devs.len()),
            asym_reg: AsymRegistry::new(),
            alloc_exch: ExchangeDomain::new(nranks, hop),
            groups: GroupRegistry::new(hop),
            pending: (0..nranks).map(|_| RefCell::new(Vec::new())).collect(),
            cfg,
        })
    }

    /// Boot a job and run `f` on every rank (SPMD). Returns the
    /// simulation report.
    pub fn run<F>(cfg: DiompConfig, f: F) -> Result<SimReport, SimError>
    where
        F: Fn(&mut Ctx, &mut DiompRank) + 'static,
    {
        let mut sim = Sim::new();
        let shared = Self::build(&sim, cfg);
        let f = Rc::new(f);
        for r in 0..shared.world.nranks {
            let shared = shared.clone();
            let f = f.clone();
            sim.spawn(format!("diomp-rank{r}"), move |ctx| {
                let mut rank =
                    DiompRank { shared, rank: r, cache: PtrCache::new(), rma_retries: 0 };
                f(ctx, &mut rank);
            });
        }
        sim.run()
    }
}

impl DiompRank {
    /// Flat indices of the devices bound to this rank.
    pub fn my_devices(&self) -> std::ops::Range<usize> {
        self.shared.world.devices_of(self.rank)
    }

    /// This rank's primary device.
    pub fn primary(&self) -> usize {
        self.my_devices().start
    }

    /// Number of ranks in the job.
    pub fn nranks(&self) -> usize {
        self.shared.world.nranks
    }

    /// Binding mode of the job.
    pub fn binding(&self) -> Binding {
        self.shared.cfg.binding
    }

    /// Device-space address of a symmetric offset on a device.
    pub fn dev_addr(&self, flat: usize, sym_off: u64) -> u64 {
        self.shared.seg_base[flat] + sym_off
    }

    /// Collective symmetric allocation (`omp_alloc` into the global
    /// space / intercepted `libomptarget` allocation, paper §3.1–3.2).
    /// Every rank must call with the same `len`; all receive the same
    /// offset, valid on every device.
    pub fn alloc_sym(&mut self, ctx: &mut Ctx, len: u64) -> Result<GPtr, DiompError> {
        let s = &self.shared;
        // Round 1: agree on the size (and detect asymmetric misuse).
        let lens = s.alloc_exch.exchange(ctx, self.rank, len);
        assert!(
            lens.iter().all(|&l| l == len),
            "alloc_sym sizes differ across ranks (use alloc_asym): {lens:?}"
        );
        // Round 2: rank 0 performs the allocation, everyone learns it.
        let off = if self.rank == 0 {
            s.sym.alloc(len).map(|o| o + 1).unwrap_or(0) // 0 = failure sentinel
        } else {
            0
        };
        let offs = s.alloc_exch.exchange(ctx, self.rank, off);
        match offs[0] {
            0 => Err(DiompError::OutOfGlobalMemory { requested: len }),
            o => Ok(GPtr { off: o - 1, len }),
        }
    }

    /// Collective symmetric free.
    pub fn free_sym(&mut self, ctx: &mut Ctx, ptr: GPtr) {
        let s = &self.shared;
        // Synchronise so nobody frees memory another rank still targets.
        let _ = s.alloc_exch.exchange(ctx, self.rank, ptr.off);
        if self.rank == 0 {
            s.sym.free(ptr.off);
        }
    }

    /// Collective *asymmetric* allocation (paper §3.2, Fig. 2): each rank
    /// may pass a different `len`. Allocates the 32-byte second-level
    /// wrapper symmetrically, the data locally, writes the wrapper on
    /// this rank's devices, and registers the mapping.
    pub fn alloc_asym(&mut self, ctx: &mut Ctx, len: u64) -> Result<AsymPtr, DiompError> {
        let wrapper = self.alloc_sym(ctx, WRAPPER_BYTES)?;
        let s = self.shared.clone();
        let mut data_off = None;
        for d in self.my_devices() {
            let off = s
                .asym
                .alloc(d, len)
                .ok_or(DiompError::OutOfAsymMemory { requested: len, dev: d })?;
            // All devices of one rank get identical asym layouts by
            // construction (same allocation sequence).
            if let Some(prev) = data_off {
                assert_eq!(prev, off, "per-rank devices diverged in asym layout");
            }
            data_off = Some(off);
            s.asym_reg.insert(d, wrapper.off, off);
            // Materialise the wrapper in device memory: 8-byte LE data
            // offset + 8-byte LE length (16 reserved) — this is what a
            // remote two-stage access really fetches.
            let mut bytes = [0u8; WRAPPER_BYTES as usize];
            bytes[..8].copy_from_slice(&off.to_le_bytes());
            bytes[8..16].copy_from_slice(&len.to_le_bytes());
            s.world.devs.dev(d).mem.write(self.dev_addr(d, wrapper.off), &bytes)?;
        }
        // Everyone must have written their wrappers before any remote
        // access can occur.
        self.barrier(ctx);
        Ok(AsymPtr { wrapper_off: wrapper.off, my_data_off: data_off.unwrap(), my_len: len })
    }

    /// Collective asymmetric free: deregisters (invalidating every remote
    /// pointer cache), releases the local data and the wrapper slot.
    pub fn free_asym(&mut self, ctx: &mut Ctx, ptr: AsymPtr) {
        let s = self.shared.clone();
        for d in self.my_devices() {
            let off = s.asym_reg.remove(d, ptr.wrapper_off).expect("free of unknown asym ptr");
            s.asym.free(d, off);
        }
        self.barrier(ctx);
        self.free_sym(ctx, GPtr { off: ptr.wrapper_off, len: WRAPPER_BYTES });
    }

    /// Write host bytes into a symmetric allocation on one of this rank's
    /// devices (test/app initialisation helper; not a communication op).
    pub fn write_local(&self, flat: usize, ptr: GPtr, delta: u64, bytes: &[u8]) {
        assert!(self.my_devices().contains(&flat));
        assert!(delta + bytes.len() as u64 <= ptr.len, "write_local out of bounds");
        self.shared
            .world
            .devs
            .dev(flat)
            .mem
            .write(self.dev_addr(flat, ptr.off + delta), bytes)
            .expect("segment write");
    }

    /// Read bytes from a symmetric allocation on one of this rank's
    /// devices.
    pub fn read_local(&self, flat: usize, ptr: GPtr, delta: u64, out: &mut [u8]) {
        assert!(self.my_devices().contains(&flat));
        assert!(delta + out.len() as u64 <= ptr.len, "read_local out of bounds");
        self.shared
            .world
            .devs
            .dev(flat)
            .mem
            .read(self.dev_addr(flat, ptr.off + delta), out)
            .expect("segment read");
    }
}
