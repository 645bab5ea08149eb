//! DiOMP-integrated target regions (paper Fig. 1b).
//!
//! The baseline flow (Fig. 1a) lets `libomptarget` allocate device
//! memory privately, invisible to the conduit. DiOMP instead
//! *intercepts* mapped allocations and redirects them into the
//! conduit-registered global segment: every mapped object therefore has
//! a `Seg_offset` in the extended mapping table and is remotely
//! addressable with zero extra registration — the "unified memory view
//! underpins communication structure" property of §3.2.

use std::cell::RefCell;

use diomp_device::{
    copy, HostBuf, HostId, KernelBody, KernelCost, MapKind, MapOutcome, MappingTable,
};
use diomp_sim::{Ctx, SimTime};

use crate::error::DiompError;
use crate::gptr::GPtr;
use crate::runtime::DiompRank;

/// Per-rank DiOMP target state: one extended mapping table per owned
/// device.
pub struct DiompTarget {
    tables: Vec<RefCell<MappingTable>>,
    first_dev: usize,
}

impl DiompTarget {
    /// Target state for a rank's devices.
    pub fn new(rank: &DiompRank) -> Self {
        let devs = rank.my_devices();
        DiompTarget {
            first_dev: devs.start,
            tables: devs.map(|_| RefCell::new(MappingTable::new())).collect(),
        }
    }

    fn table(&self, flat: usize) -> &RefCell<MappingTable> {
        &self.tables[flat - self.first_dev]
    }
}

impl DiompRank {
    /// Map a host object onto every device of the job (`target enter
    /// data` under DiOMP): collective symmetric allocation in the global
    /// segment, per-rank H2D for `to`-kind maps, and a mapping-table
    /// entry whose `seg_offset` equals the symmetric offset (Fig. 1b —
    /// the H-Ptr/D-Ptr/Size/Flag row gains `Seg_offset`).
    pub fn target_enter(
        &mut self,
        ctx: &mut Ctx,
        tgt: &DiompTarget,
        host: HostId,
        buf: &HostBuf,
        kind: MapKind,
    ) -> Result<GPtr, DiompError> {
        // Presence check on the primary device decides collectively-
        // consistent behaviour: SPMD ranks map the same objects in the
        // same order.
        let primary = self.primary();
        let outcome = tgt.table(primary).borrow_mut().enter(host);
        match outcome {
            MapOutcome::Present { d_off } => {
                for flat in self.my_devices().skip(1) {
                    let _ = tgt.table(flat).borrow_mut().enter(host);
                }
                // Reconstruct the GPtr from the recorded device offset.
                let off = d_off - self.shared.seg_base[primary];
                let size = tgt.table(primary).borrow().lookup(host).unwrap().size;
                Ok(GPtr { off, len: size })
            }
            MapOutcome::New => {
                let ptr = self.alloc_sym(ctx, buf.len())?;
                let mut done = SimTime::ZERO;
                for flat in self.my_devices() {
                    let d_off = self.dev_addr(flat, ptr.off);
                    {
                        let mut t = tgt.table(flat).borrow_mut();
                        if flat != primary {
                            let _ = t.enter(host);
                        }
                        t.insert(host, d_off, buf.len(), kind);
                        t.set_seg_offset(host, ptr.off);
                    }
                    if kind.copies_in() {
                        let t = copy::h2d(
                            ctx.handle(),
                            self.shared.world.devs.dev(flat),
                            buf,
                            0,
                            d_off,
                            buf.len(),
                            ctx.now(),
                        )?;
                        done = done.max(t);
                    }
                }
                ctx.sleep_until(done);
                Ok(ptr)
            }
        }
    }

    /// Unmap (`target exit data`): on last release, D2H for `from`-kind
    /// maps and collective free of the global allocation.
    pub fn target_exit(
        &mut self,
        ctx: &mut Ctx,
        tgt: &DiompTarget,
        host: HostId,
        buf: &HostBuf,
        kind: MapKind,
    ) -> Result<(), DiompError> {
        let primary = self.primary();
        let mut freed: Option<GPtr> = None;
        let mut done = SimTime::ZERO;
        for flat in self.my_devices() {
            if let Some(entry) = tgt.table(flat).borrow_mut().exit(host) {
                if kind.copies_out() && flat == primary {
                    let t = copy::d2h(
                        ctx.handle(),
                        self.shared.world.devs.dev(flat),
                        entry.d_off,
                        buf,
                        0,
                        entry.size,
                        ctx.now(),
                    )?;
                    done = done.max(t);
                }
                if flat == primary {
                    freed = Some(GPtr {
                        off: entry.seg_offset.expect("DiOMP mapping without seg_offset"),
                        len: entry.size,
                    });
                }
            }
        }
        ctx.sleep_until(done);
        if let Some(ptr) = freed {
            self.free_sym(ctx, ptr);
        }
        Ok(())
    }

    /// Launch a kernel over mapped global memory on one of this rank's
    /// devices and wait for it (`#pragma omp target`).
    pub fn target_launch(
        &mut self,
        ctx: &mut Ctx,
        flat: usize,
        cost: &KernelCost,
        body: Option<KernelBody>,
    ) {
        assert!(self.my_devices().contains(&flat));
        let dev = self.shared.world.devs.dev(flat).clone();
        let s = dev.acquire_stream(ctx);
        let end = dev.launch(ctx.handle(), s, cost, body);
        dev.release_stream(s);
        ctx.sleep_until(end);
    }

    /// Launch without waiting (`target nowait`); returns completion time.
    pub fn target_launch_nowait(
        &mut self,
        ctx: &mut Ctx,
        flat: usize,
        cost: &KernelCost,
        body: Option<KernelBody>,
    ) -> SimTime {
        assert!(self.my_devices().contains(&flat));
        let dev = self.shared.world.devs.dev(flat).clone();
        let s = dev.acquire_stream(ctx);
        let end = dev.launch(ctx.handle(), s, cost, body);
        dev.release_stream(s);
        end
    }
}
