//! OMPCCL — the OpenMP Collective Communication Layer (paper §3.3).
//!
//! A portable, OpenMP-compatible facade over vendor collective libraries
//! (NCCL/RCCL — here `diomp-xccl`). The runtime owns communicator setup:
//! on first use of a group, the group's root generates a UniqueId,
//! broadcasts it over the CPU-side bootstrap channel, and every member
//! initialises its backend communicator. Collectives then operate
//! directly on global-heap device buffers — no staging, no registration,
//! because the buffers already live in the conduit segment.
//!
//! The C-level API the paper proposes maps 1:1 onto these methods:
//!
//! ```c
//! ompx_bcast(ptr, size, group);        // → DiompRank::bcast
//! ompx_allreduce(ptr, size, op, group) // → DiompRank::allreduce
//! ompx_reduce(ptr, size, op, root, group)
//! #pragma ompx target device_bcast(var, group)  // sugar over the same
//! ```

use std::rc::Rc;

use diomp_fabric::ReduceOp;
use diomp_sim::Ctx;
use diomp_xccl::{CommOpts, DeviceBuf, UniqueId, XcclComm, XcclOp};

use crate::gptr::GPtr;
use crate::group::DiompGroup;
use crate::runtime::DiompRank;

impl DiompRank {
    /// Get (initialising on first use) the OMPCCL backend communicator
    /// for a group. Every member must reach this together the first time
    /// (it performs the UniqueId broadcast and per-rank init).
    pub fn ompccl_comm(&mut self, ctx: &mut Ctx, group: &DiompGroup) -> Rc<XcclComm> {
        let idx = group.index_of(self.rank).expect("rank not in group");
        if let Some(c) = group.comms[idx].borrow().clone() {
            return c;
        }
        // Root generates the UniqueId; the CPU-side bootstrap (group
        // exchange) broadcasts it (paper §3.3).
        let candidate = if idx == 0 { UniqueId::generate().bits() } else { 0 };
        let bits = group.exch.exchange(ctx, idx, candidate)[0];
        let comm = XcclComm::init(
            ctx,
            &self.shared.world,
            group.ranks.clone(),
            self.rank,
            UniqueId::from_bits(bits),
            CommOpts {
                engine: self.shared.cfg.coll_engine,
                servers: self.shared.cfg.coll_servers,
                ..CommOpts::default()
            },
        );
        *group.comms[idx].borrow_mut() = Some(comm.clone());
        comm
    }

    /// Buffers of all this rank's devices for a symmetric allocation.
    fn my_bufs(&self, ptr: GPtr) -> Vec<DeviceBuf> {
        self.my_devices()
            .map(|flat| DeviceBuf { flat, off: self.dev_addr(flat, ptr.off) })
            .collect()
    }

    /// `ompx_bcast`: device-side broadcast of `len` bytes at `ptr` from
    /// `root`'s primary device to every device in the group.
    pub fn bcast(&mut self, ctx: &mut Ctx, group: &DiompGroup, root: usize, ptr: GPtr, len: u64) {
        assert!(len <= ptr.len);
        let comm = self.ompccl_comm(ctx, group);
        let root_flat = self.shared.world.devices_of(root).start;
        let root_pos = comm.ring_pos(root_flat);
        let bufs = self.my_bufs(ptr);
        comm.collective(ctx, self.rank, bufs, XcclOp::Broadcast { root: root_pos }, len);
    }

    /// `ompx_allreduce`: element-wise reduction across every device in
    /// the group; all devices receive the result.
    pub fn allreduce(
        &mut self,
        ctx: &mut Ctx,
        group: &DiompGroup,
        ptr: GPtr,
        len: u64,
        op: ReduceOp,
    ) {
        assert!(len <= ptr.len);
        let comm = self.ompccl_comm(ctx, group);
        let bufs = self.my_bufs(ptr);
        comm.collective(ctx, self.rank, bufs, XcclOp::AllReduce { op }, len);
    }

    /// `ompx_reduce`: reduction onto `root`'s primary device.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce(
        &mut self,
        ctx: &mut Ctx,
        group: &DiompGroup,
        root: usize,
        ptr: GPtr,
        len: u64,
        op: ReduceOp,
    ) {
        assert!(len <= ptr.len);
        let comm = self.ompccl_comm(ctx, group);
        let root_flat = self.shared.world.devices_of(root).start;
        let root_pos = comm.ring_pos(root_flat);
        let bufs = self.my_bufs(ptr);
        comm.collective(ctx, self.rank, bufs, XcclOp::Reduce { root: root_pos, op }, len);
    }

    /// `ompx_allgather`: device `i`'s `len` bytes land at ring offset
    /// `i*len` of every device's buffer (buffer must hold
    /// `ndevices × len`).
    pub fn allgather(&mut self, ctx: &mut Ctx, group: &DiompGroup, ptr: GPtr, len: u64) {
        let comm = self.ompccl_comm(ctx, group);
        assert!(comm.ndevices() as u64 * len <= ptr.len, "allgather buffer too small");
        let bufs = self.my_bufs(ptr);
        comm.collective(ctx, self.rank, bufs, XcclOp::AllGather, len);
    }
}
