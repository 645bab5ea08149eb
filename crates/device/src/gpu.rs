//! Simulated compute devices and the cluster-wide device table.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;

use diomp_sim::{Ctx, DevLoc, Dur, GpuSpec, ResourceId, SimHandle, SimTime, Topology};

use crate::kernels::KernelCost;
use crate::memory::{DataMode, DeviceMem, FreeListAlloc, MemError};
use crate::stream::{StreamId, StreamPool, MAX_ACTIVE_STREAMS};

/// Work executed by a kernel over the device memory when the simulated
/// kernel completes (Functional mode only).
pub type KernelBody = Box<dyn FnOnce(&DeviceMem) + 'static>;

/// One simulated GPU (or MI250X GCD).
pub struct Device {
    /// Location in the cluster.
    pub loc: DevLoc,
    /// Flat device index across the job.
    pub flat: usize,
    /// Hardware model.
    pub spec: GpuSpec,
    /// Device memory.
    pub mem: DeviceMem,
    /// Stream pool (lazy, bounded; paper §3.2).
    pub pool: RefCell<StreamPool>,
    /// Baseline `cudaMalloc`-style allocator (the DiOMP runtime bypasses
    /// this and manages the segment itself).
    pub alloc: RefCell<FreeListAlloc>,
    /// Kernel engine availability: kernels on one device serialise.
    compute_free: RefCell<SimTime>,
    /// Local D2D copy engine.
    pub d2d_engine: ResourceId,
    /// Device-to-host lane of the host link (PCIe / Infinity Fabric /
    /// C2C) — from the shared topology.
    pub d2h: ResourceId,
    /// Host-to-device lane of the host link — from the shared topology.
    pub h2d: ResourceId,
    /// Intra-node GPU fabric port — from the shared topology.
    pub port: ResourceId,
    /// NIC used for inter-node traffic — from the shared topology.
    pub nic: ResourceId,
    /// Peers for which GPUDirect P2P has been enabled.
    peers: RefCell<HashSet<usize>>,
    /// Peers whose memory we have opened via IPC handles.
    ipc_open: RefCell<HashSet<usize>>,
}

impl Device {
    /// Enable direct peer access (`cudaDeviceEnablePeerAccess`). Idempotent.
    pub fn enable_peer(&self, peer_flat: usize) {
        self.peers.borrow_mut().insert(peer_flat);
    }

    /// Is direct peer access enabled towards `peer_flat`?
    pub fn peer_enabled(&self, peer_flat: usize) -> bool {
        self.peers.borrow().contains(&peer_flat)
    }

    /// Open an IPC memory handle to a same-node peer. Returns the one-time
    /// setup cost to charge (zero if already open).
    pub fn open_ipc(&self, peer_flat: usize, setup: Dur) -> Dur {
        if self.ipc_open.borrow_mut().insert(peer_flat) {
            setup
        } else {
            Dur::ZERO
        }
    }

    /// Allocate device memory with the baseline allocator.
    pub fn malloc(&self, len: u64, align: u64) -> Result<u64, MemError> {
        self.alloc.borrow_mut().alloc(len, align)
    }

    /// Free baseline-allocated device memory.
    pub fn mfree(&self, offset: u64) -> Result<(), MemError> {
        self.alloc.borrow_mut().free(offset)
    }

    /// Launch a kernel on a stream: charges the compute engine and the
    /// stream queue, schedules `body` at completion (Functional mode), and
    /// returns the completion time.
    pub fn launch(
        self: &Rc<Self>,
        h: &SimHandle,
        stream: StreamId,
        cost: &KernelCost,
        body: Option<KernelBody>,
    ) -> SimTime {
        let work = cost.duration(&self.spec);
        let launch = Dur::micros(self.spec.launch_us);
        let mut pool = self.pool.borrow_mut();
        // The kernel may start once the stream reaches it *and* the
        // device's kernel engine is free; kernels on one device serialise.
        let queued = pool.tail(stream).max(h.now()) + launch;
        let end = {
            let mut free = self.compute_free.borrow_mut();
            let start = queued.max(*free);
            let end = start + work;
            *free = end;
            end
        };
        pool.advance_tail(stream, end);
        drop(pool);
        if let Some(body) = body {
            let dev = Rc::clone(self);
            h.schedule_at(end, move |_| body(&dev.mem));
        }
        end
    }

    /// Synchronise a stream (block in virtual time until its tail).
    pub fn sync_stream(&self, ctx: &mut Ctx, stream: StreamId) {
        let tail = self.pool.borrow().tail(stream);
        ctx.sleep_until(tail);
    }

    /// Synchronise the whole device.
    pub fn sync(&self, ctx: &mut Ctx) {
        let tail = self.pool.borrow().max_tail();
        ctx.sleep_until(tail);
    }

    /// Acquire a stream from the pool (may partially synchronise).
    pub fn acquire_stream(&self, ctx: &mut Ctx) -> StreamId {
        self.pool.borrow_mut().acquire(ctx)
    }

    /// Release a stream back to the pool.
    pub fn release_stream(&self, stream: StreamId) {
        self.pool.borrow_mut().release(stream);
    }
}

/// All devices of a simulated job, plus the topology they live in.
pub struct DeviceTable {
    devices: Vec<Rc<Device>>,
    /// The shared cluster topology.
    pub topo: Arc<Topology>,
    /// Data mode all device memories were created with.
    pub mode: DataMode,
}

impl DeviceTable {
    /// Instantiate one device per `(node, gpu)` of the topology.
    ///
    /// `mem_capacity` overrides the modelled memory size when `Some`
    /// (tests use small capacities to exercise OOM paths).
    pub fn build(
        h: &SimHandle,
        topo: Arc<Topology>,
        mode: DataMode,
        mem_capacity: Option<u64>,
    ) -> Rc<DeviceTable> {
        let spec = topo.spec.platform.gpu.clone();
        let cap = mem_capacity.unwrap_or((spec.mem_gib * (1u64 << 30) as f64) as u64);
        let mut devices = Vec::new();
        for flat in 0..topo.spec.total_gpus() {
            let loc = topo.dev_loc(flat);
            let d2d_engine = h.new_resource(spec.d2d_gbps, Dur::micros(0.01));
            devices.push(Rc::new(Device {
                loc,
                flat,
                spec: spec.clone(),
                mem: DeviceMem::new(cap, mode),
                pool: RefCell::new(StreamPool::new(MAX_ACTIVE_STREAMS)),
                alloc: RefCell::new(FreeListAlloc::new(cap)),
                compute_free: RefCell::new(SimTime::ZERO),
                d2d_engine,
                d2h: topo.d2h(loc),
                h2d: topo.h2d(loc),
                port: topo.gpu_port(loc),
                nic: topo.nic_for(loc),
                peers: RefCell::new(HashSet::new()),
                ipc_open: RefCell::new(HashSet::new()),
            }));
        }
        Rc::new(DeviceTable { devices, topo, mode })
    }

    /// Device by flat index.
    pub fn dev(&self, flat: usize) -> &Rc<Device> {
        &self.devices[flat]
    }

    /// Number of devices in the job.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when the job has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Iterate over all devices.
    pub fn iter(&self) -> impl Iterator<Item = &Rc<Device>> {
        self.devices.iter()
    }
}
