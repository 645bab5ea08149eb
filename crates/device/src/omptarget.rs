//! Target-region execution: the `#pragma omp target` analogue.
//!
//! [`TargetDevice`] bundles a device with its mapping table and exposes
//! `target_enter` / `target` / `target_exit`, reproducing the baseline
//! libomptarget flow of paper Fig. 1a: per-region data mapping, H2D for
//! `to` clauses, kernel launch, D2H for `from` clauses, reference-counted
//! presence. The MPI+OpenMP baseline applications run on this layer; the
//! DiOMP runtime replaces the allocation path (see `diomp-core`) while
//! reusing the same mapping semantics.

use std::cell::RefCell;
use std::rc::Rc;

use diomp_sim::{Ctx, SimHandle, SimTime};

use crate::copy::{d2h, h2d, HostBuf};
use crate::gpu::{Device, KernelBody};
use crate::kernels::KernelCost;
use crate::map::{HostId, MapKind, MapOutcome, MappingTable};
use crate::memory::MemError;
use crate::stream::StreamId;

/// One map clause: a host buffer plus its mapping kind.
pub struct MapArg {
    /// Host object identity (key into the mapping table).
    pub host: HostId,
    /// The host storage.
    pub buf: HostBuf,
    /// Mapping kind.
    pub kind: MapKind,
}

impl MapArg {
    /// Convenience constructor.
    pub fn new(host: HostId, buf: HostBuf, kind: MapKind) -> Self {
        MapArg { host, buf, kind }
    }
}

/// A device together with its OpenMP mapping state.
pub struct TargetDevice {
    /// The underlying device.
    pub dev: Rc<Device>,
    /// The libomptarget present table.
    pub table: RefCell<MappingTable>,
}

impl TargetDevice {
    /// Wrap a device.
    pub fn new(dev: Rc<Device>) -> Self {
        TargetDevice { dev, table: RefCell::new(MappingTable::new()) }
    }

    /// Map objects onto the device (`target enter data`). Allocates +
    /// copies `to`/`tofrom` objects that are not yet present; returns when
    /// all transfers are complete.
    pub fn target_enter(&self, ctx: &mut Ctx, maps: &[MapArg]) -> Result<(), MemError> {
        let mut done = SimTime::ZERO;
        for m in maps {
            let outcome = self.table.borrow_mut().enter(m.host);
            match outcome {
                MapOutcome::Present { .. } => {}
                MapOutcome::New => {
                    let d_off = self.dev.malloc(m.buf.len(), 256)?;
                    self.table.borrow_mut().insert(m.host, d_off, m.buf.len(), m.kind);
                    if m.kind.copies_in() {
                        let t =
                            h2d(ctx.handle(), &self.dev, &m.buf, 0, d_off, m.buf.len(), ctx.now())?;
                        done = done.max(t);
                    }
                }
            }
        }
        ctx.sleep_until(done);
        Ok(())
    }

    /// Unmap objects (`target exit data`): on last release, copy back
    /// `from`/`tofrom` objects and free device memory.
    pub fn target_exit(&self, ctx: &mut Ctx, maps: &[MapArg]) -> Result<(), MemError> {
        let mut done = SimTime::ZERO;
        for m in maps {
            let released = self.table.borrow_mut().exit(m.host);
            if let Some(entry) = released {
                if m.kind.copies_out() {
                    let (h, now) = (ctx.handle(), ctx.now());
                    let t = d2h(h, &self.dev, entry.d_off, &m.buf, 0, entry.size, now)?;
                    done = done.max(t);
                }
                self.dev.mfree(entry.d_off)?;
            }
        }
        ctx.sleep_until(done);
        Ok(())
    }

    /// Device offset of a mapped object (`omp_get_mapped_ptr`).
    pub fn mapped_offset(&self, host: HostId) -> Option<u64> {
        self.table.borrow().lookup(host).map(|e| e.d_off)
    }

    /// Execute a full target region: enter maps, launch the kernel on
    /// `stream`, wait for it (OpenMP target regions are synchronous unless
    /// `nowait`), and exit maps.
    pub fn target(
        &self,
        ctx: &mut Ctx,
        stream: StreamId,
        maps: &[MapArg],
        cost: &KernelCost,
        body: Option<KernelBody>,
    ) -> Result<(), MemError> {
        self.target_enter(ctx, maps)?;
        let end = self.dev.launch(ctx.handle(), stream, cost, body);
        ctx.sleep_until(end);
        self.target_exit(ctx, maps)?;
        Ok(())
    }

    /// Launch without waiting (`target ... nowait`): returns the kernel
    /// completion time. Maps must already be present.
    pub fn target_nowait(
        &self,
        h: &SimHandle,
        stream: StreamId,
        cost: &KernelCost,
        body: Option<KernelBody>,
    ) -> SimTime {
        self.dev.launch(h, stream, cost, body)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::gpu::DeviceTable;
    use crate::memory::DataMode;
    use diomp_sim::{ClusterSpec, Dur, PlatformSpec, Sim, Topology};

    fn boot(sim: &Sim) -> Rc<DeviceTable> {
        let spec = ClusterSpec { platform: PlatformSpec::platform_a(), nodes: 1, gpus_per_node: 1 };
        let topo = Arc::new(Topology::build(&sim.handle(), spec));
        DeviceTable::build(&sim.handle(), topo, DataMode::Functional, Some(1 << 20))
    }

    #[test]
    fn target_region_copies_computes_and_copies_back() {
        let mut sim = Sim::new();
        let devs = boot(&sim);
        sim.spawn("t", move |ctx| {
            let td = TargetDevice::new(devs.dev(0).clone());
            let x = HostBuf::from_f64(&[1.0, 2.0, 3.0, 4.0]);
            let maps = vec![MapArg::new(HostId(1), x.clone(), MapKind::ToFrom)];
            let s = td.dev.acquire_stream(ctx);
            let d_off_holder = Rc::new(RefCell::new(0u64));
            td.target_enter(ctx, &maps).unwrap();
            *d_off_holder.borrow_mut() = td.mapped_offset(HostId(1)).unwrap();
            let d_off = *d_off_holder.borrow();
            // Kernel: double every element.
            let body: KernelBody = Box::new(move |mem| {
                mem.with_slice_mut(d_off, 32, |s| {
                    for c in s.chunks_exact_mut(8) {
                        let v = f64::from_le_bytes(c.try_into().unwrap());
                        c.copy_from_slice(&(v * 2.0).to_le_bytes());
                    }
                })
                .unwrap();
            });
            let end =
                td.dev.launch(ctx.handle(), s, &KernelCost::Fixed(Dur::micros(2.0)), Some(body));
            ctx.sleep_until(end);
            td.target_exit(ctx, &maps).unwrap();
            assert_eq!(x.to_f64(), vec![2.0, 4.0, 6.0, 8.0]);
            assert!(td.table.borrow().is_empty(), "exit must release the mapping");
        });
        sim.run().unwrap();
    }

    #[test]
    fn nested_enter_reuses_presence_without_copies() {
        let mut sim = Sim::new();
        let devs = boot(&sim);
        sim.spawn("t", move |ctx| {
            let td = TargetDevice::new(devs.dev(0).clone());
            let x = HostBuf::zeroed(1024);
            let maps = vec![MapArg::new(HostId(7), x, MapKind::To)];
            td.target_enter(ctx, &maps).unwrap();
            let t0 = ctx.now();
            td.target_enter(ctx, &maps).unwrap(); // present: no transfer
            assert_eq!(ctx.now(), t0, "second enter must not move data");
            td.target_exit(ctx, &maps).unwrap();
            assert_eq!(td.table.borrow().len(), 1, "still mapped once");
            td.target_exit(ctx, &maps).unwrap();
            assert!(td.table.borrow().is_empty());
        });
        sim.run().unwrap();
    }

    #[test]
    fn device_allocator_reclaims_on_exit() {
        let mut sim = Sim::new();
        let devs = boot(&sim);
        sim.spawn("t", move |ctx| {
            let td = TargetDevice::new(devs.dev(0).clone());
            let free0 = td.dev.alloc.borrow().total_free();
            let x = HostBuf::zeroed(4096);
            let maps = vec![MapArg::new(HostId(2), x, MapKind::Alloc)];
            td.target_enter(ctx, &maps).unwrap();
            assert!(td.dev.alloc.borrow().total_free() < free0);
            td.target_exit(ctx, &maps).unwrap();
            assert_eq!(td.dev.alloc.borrow().total_free(), free0);
        });
        sim.run().unwrap();
    }
}
