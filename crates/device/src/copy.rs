//! Data-movement primitives: H2D / D2H / D2D (local, peer, IPC-staged).
//!
//! Every primitive reserves the modelled link resources, returns the
//! virtual completion time, and — in Functional mode — schedules the real
//! byte movement at that time so causality is exact (a rank polling the
//! target cannot observe bytes before the modelled arrival).
//!
//! Payloads are snapshotted at initiation (DMA-at-start semantics), so a
//! source buffer may be reused as soon as the call returns, matching what
//! a synchronous `cudaMemcpy` from pinned staging would guarantee. The
//! one exception is an upload reserved ahead of its `ready` instant
//! ([`h2d`]): its host bytes are read then.

use std::cell::RefCell;
use std::rc::Rc;

use diomp_sim::{SimHandle, SimTime};

use crate::gpu::Device;
use crate::memory::{DataMode, MemError};

/// A host-side buffer that device copies can read/write. Cloning shares
/// the storage. `phantom` buffers carry only a length (CostOnly runs).
#[derive(Clone)]
pub struct HostBuf {
    len: u64,
    data: Option<Rc<RefCell<Vec<u8>>>>,
}

impl HostBuf {
    /// A real host buffer initialised from `bytes`.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        HostBuf { len: bytes.len() as u64, data: Some(Rc::new(RefCell::new(bytes))) }
    }

    /// A zero-initialised real host buffer.
    pub fn zeroed(len: u64) -> Self {
        HostBuf::from_bytes(vec![0; len as usize])
    }

    /// A size-only buffer for CostOnly runs.
    pub fn phantom(len: u64) -> Self {
        HostBuf { len, data: None }
    }

    /// A real buffer holding `vals` as little-endian f64s.
    pub fn from_f64(vals: &[f64]) -> Self {
        let mut bytes = Vec::with_capacity(vals.len() * 8);
        for v in vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        HostBuf::from_bytes(bytes)
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True for zero-length buffers.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is this a real (backed) buffer?
    pub fn is_backed(&self) -> bool {
        self.data.is_some()
    }

    /// Copy of the raw bytes (zeros for phantom buffers).
    pub fn to_bytes(&self) -> Vec<u8> {
        match &self.data {
            Some(d) => d.borrow().clone(),
            None => vec![0; self.len as usize],
        }
    }

    /// Interpret the contents as little-endian f64s.
    pub fn to_f64(&self) -> Vec<f64> {
        self.to_bytes().chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect()
    }

    /// Overwrite `[off, off+src.len)` with `src` (no-op for phantom).
    pub fn write(&self, off: u64, src: &[u8]) {
        if let Some(d) = &self.data {
            let mut d = d.borrow_mut();
            let end = off as usize + src.len();
            assert!(end <= d.len(), "HostBuf write out of bounds");
            d[off as usize..end].copy_from_slice(src);
        }
    }

    /// Read `out.len()` bytes from `off` (zeros for phantom).
    pub fn read(&self, off: u64, out: &mut [u8]) {
        match &self.data {
            Some(d) => {
                let d = d.borrow();
                let end = off as usize + out.len();
                assert!(end <= d.len(), "HostBuf read out of bounds");
                out.copy_from_slice(&d[off as usize..end]);
            }
            None => out.fill(0),
        }
    }
}

/// Validate `[off, off+len)` against a host buffer, with overflow-safe
/// arithmetic — a bad range is a typed error at initiation, never a
/// panic inside the deferred byte-movement closure.
fn check_host(buf: &HostBuf, off: u64, len: u64) -> Result<(), MemError> {
    if off.checked_add(len).is_none_or(|end| end > buf.len()) {
        return Err(MemError::OutOfBounds { offset: off, len, capacity: buf.len() });
    }
    Ok(())
}

/// Validate `[off, off+len)` against a device memory (overflow-safe).
fn check_dev(dev: &Device, off: u64, len: u64) -> Result<(), MemError> {
    if off.checked_add(len).is_none_or(|end| end > dev.mem.capacity()) {
        return Err(MemError::OutOfBounds { offset: off, len, capacity: dev.mem.capacity() });
    }
    Ok(())
}

fn snapshot_host(src: &HostBuf, off: u64, len: u64) -> Option<Vec<u8>> {
    src.data.as_ref().map(|d| {
        let d = d.borrow();
        d[off as usize..(off + len) as usize].to_vec()
    })
}

fn snapshot_dev(dev: &Device, off: u64, len: u64) -> Result<Option<Vec<u8>>, MemError> {
    if dev.mem.mode() == DataMode::CostOnly {
        return Ok(None); // every caller has run `check_dev`
    }
    let mut buf = vec![0u8; len as usize];
    dev.mem.read(off, &mut buf)?;
    Ok(Some(buf))
}

/// Host → device copy over the host-to-device lane of the device's host
/// link, starting no earlier than `ready` (a bounce buffer a transfer is
/// still filling; `h.now()` otherwise). The host bytes are read at
/// `ready` — in the call when that is now — and land on the device at
/// the returned completion time.
pub fn h2d(
    h: &SimHandle,
    dev: &Rc<Device>,
    src: &HostBuf,
    src_off: u64,
    d_off: u64,
    len: u64,
    ready: SimTime,
) -> Result<SimTime, MemError> {
    check_dev(dev, d_off, len)?;
    check_host(src, src_off, len)?;
    let tr = h.transfer_from(dev.h2d, ready, len);
    if src.is_backed() {
        // Read and landing are both scheduled now, in order, so the
        // landing precedes any action scheduled at the completion instant
        // after this returns — a fence's wake among them.
        let read = Rc::new(RefCell::new(None));
        if ready > h.now() {
            let (src, read) = (src.clone(), Rc::clone(&read));
            h.schedule_at(ready, move |_| *read.borrow_mut() = snapshot_host(&src, src_off, len));
        } else {
            *read.borrow_mut() = snapshot_host(src, src_off, len);
        }
        let dev = Rc::clone(dev);
        h.schedule_at(tr.arrive, move |_| {
            if let Some(bytes) = read.borrow_mut().take() {
                dev.mem.write(d_off, &bytes).expect("bounds pre-checked");
            }
        });
    }
    Ok(tr.arrive)
}

/// Device → host copy over the device-to-host lane of the device's host
/// link, starting no earlier than `ready` (a staging buffer still being
/// drained; `h.now()` otherwise). The device bytes are read in the call;
/// they land in `dst` at the returned completion time.
pub fn d2h(
    h: &SimHandle,
    dev: &Rc<Device>,
    d_off: u64,
    dst: &HostBuf,
    dst_off: u64,
    len: u64,
    ready: SimTime,
) -> Result<SimTime, MemError> {
    check_dev(dev, d_off, len)?;
    check_host(dst, dst_off, len)?;
    let tr = h.transfer_from(dev.d2h, ready, len);
    if let Some(bytes) = snapshot_dev(dev, d_off, len)? {
        let dst = dst.clone();
        h.schedule_at(tr.arrive, move |_| {
            dst.write(dst_off, &bytes);
        });
    }
    Ok(tr.arrive)
}

/// Local device-to-device copy (same device) over its copy engine.
pub fn d2d_local(
    h: &SimHandle,
    dev: &Rc<Device>,
    src_off: u64,
    dst_off: u64,
    len: u64,
) -> Result<SimTime, MemError> {
    check_dev(dev, src_off, len)?;
    check_dev(dev, dst_off, len)?;
    let tr = h.transfer(dev.d2d_engine, len);
    if let Some(bytes) = snapshot_dev(dev, src_off, len)? {
        let dev = Rc::clone(dev);
        h.schedule_at(tr.arrive, move |_| {
            dev.mem.write(dst_off, &bytes).expect("bounds pre-checked");
        });
    }
    Ok(tr.arrive)
}

/// Direct peer copy over the intra-node GPU fabric (GPUDirect P2P).
/// Requires `src.enable_peer(dst.flat)` to have been called and the
/// devices to share a node.
pub fn d2d_peer(
    h: &SimHandle,
    src: &Rc<Device>,
    src_off: u64,
    dst: &Rc<Device>,
    dst_off: u64,
    len: u64,
) -> Result<SimTime, MemError> {
    assert_eq!(src.loc.node, dst.loc.node, "P2P requires same-node devices");
    assert!(src.peer_enabled(dst.flat), "peer access not enabled");
    check_dev(src, src_off, len)?;
    check_dev(dst, dst_off, len)?;
    let tr = h.transfer(src.port, len);
    if let Some(bytes) = snapshot_dev(src, src_off, len)? {
        let dst = Rc::clone(dst);
        h.schedule_at(tr.arrive, move |_| {
            dst.mem.write(dst_off, &bytes).expect("bounds pre-checked");
        });
    }
    Ok(tr.arrive)
}

/// IPC-staged copy between same-node devices owned by different processes:
/// D2H over the source's device-to-host lane, a bounce through host shared
/// memory, and H2D over the destination's host-to-device lane, pipelined.
pub fn d2d_ipc(
    h: &SimHandle,
    src: &Rc<Device>,
    src_off: u64,
    dst: &Rc<Device>,
    dst_off: u64,
    len: u64,
    shm: diomp_sim::ResourceId,
) -> Result<SimTime, MemError> {
    assert_eq!(src.loc.node, dst.loc.node, "IPC staging is intra-node");
    check_dev(src, src_off, len)?;
    check_dev(dst, dst_off, len)?;
    // Pipelined three-stage path: each stage is charged for the full
    // payload (contention-accurate); the chained start times give an
    // arrival close to `latencies + bytes/bottleneck`.
    let t1 = h.transfer(src.d2h, len);
    let t2 = h.transfer_from(shm, t1.start, len);
    let t3 = h.transfer_from(dst.h2d, t2.start, len);
    let arrive = t1.arrive.max(t2.arrive).max(t3.arrive);
    if let Some(bytes) = snapshot_dev(src, src_off, len)? {
        let dst = Rc::clone(dst);
        h.schedule_at(arrive, move |_| {
            dst.mem.write(dst_off, &bytes).expect("bounds pre-checked");
        });
    }
    Ok(arrive)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::gpu::DeviceTable;
    use diomp_sim::{ClusterSpec, PlatformSpec, Sim, Topology};

    fn table(sim: &Sim, mode: DataMode) -> Rc<DeviceTable> {
        let spec = ClusterSpec { platform: PlatformSpec::platform_a(), nodes: 1, gpus_per_node: 2 };
        let topo = Arc::new(Topology::build(&sim.handle(), spec));
        DeviceTable::build(&sim.handle(), topo, mode, Some(1 << 20))
    }

    #[test]
    fn h2d_then_d2h_roundtrips_bytes() {
        let mut sim = Sim::new();
        let devs = table(&sim, DataMode::Functional);
        sim.spawn("t", move |ctx| {
            let dev = devs.dev(0);
            let src = HostBuf::from_bytes(vec![1, 2, 3, 4, 5]);
            let done = h2d(ctx.handle(), dev, &src, 0, 64, 5, ctx.now()).unwrap();
            ctx.sleep_until(done);
            let dst = HostBuf::zeroed(5);
            let done = d2h(ctx.handle(), dev, 64, &dst, 0, 5, ctx.now()).unwrap();
            ctx.sleep_until(done);
            assert_eq!(dst.to_bytes(), vec![1, 2, 3, 4, 5]);
        });
        sim.run().unwrap();
    }

    #[test]
    fn bytes_invisible_before_arrival() {
        let mut sim = Sim::new();
        let devs = table(&sim, DataMode::Functional);
        sim.spawn("t", move |ctx| {
            let dev = devs.dev(0);
            let src = HostBuf::from_bytes(vec![9; 16]);
            let done = h2d(ctx.handle(), dev, &src, 0, 0, 16, ctx.now()).unwrap();
            assert!(done > ctx.now());
            let mut probe = [0u8; 16];
            dev.mem.read(0, &mut probe).unwrap();
            assert_eq!(probe, [0; 16], "data must not appear early");
            ctx.sleep_until(done);
            dev.mem.read(0, &mut probe).unwrap();
            assert_eq!(probe, [9; 16]);
        });
        sim.run().unwrap();
    }

    #[test]
    fn peer_copy_requires_enablement_and_moves_bytes() {
        let mut sim = Sim::new();
        let devs = table(&sim, DataMode::Functional);
        sim.spawn("t", move |ctx| {
            let (a, b) = (devs.dev(0).clone(), devs.dev(1).clone());
            a.mem.write(0, &[7; 8]).unwrap();
            a.enable_peer(b.flat);
            let done = d2d_peer(ctx.handle(), &a, 0, &b, 128, 8).unwrap();
            ctx.sleep_until(done);
            let mut out = [0u8; 8];
            b.mem.read(128, &mut out).unwrap();
            assert_eq!(out, [7; 8]);
        });
        sim.run().unwrap();
    }

    #[test]
    #[should_panic(expected = "peer access not enabled")]
    fn peer_copy_without_enablement_panics() {
        let mut sim = Sim::new();
        let devs = table(&sim, DataMode::Functional);
        sim.spawn("t", move |ctx| {
            let (a, b) = (devs.dev(0).clone(), devs.dev(1).clone());
            let _ = d2d_peer(ctx.handle(), &a, 0, &b, 0, 8);
        });
        let _ = sim.run();
    }

    #[test]
    fn ipc_staged_copy_is_slower_than_p2p() {
        let mut sim = Sim::new();
        let devs = table(&sim, DataMode::Functional);
        sim.spawn("t", move |ctx| {
            let (a, b) = (devs.dev(0).clone(), devs.dev(1).clone());
            a.enable_peer(b.flat);
            let len = 1 << 19;
            let t_p2p = d2d_peer(ctx.handle(), &a, 0, &b, 0, len).unwrap();
            let shm = devs.topo.shm(0);
            let t_ipc = d2d_ipc(ctx.handle(), &a, 0, &b, 0, len, shm).unwrap();
            // P2P rides 300 GB/s NVLink; IPC bounces over 25 GB/s PCIe.
            assert!(
                t_ipc.since(ctx.now()).as_nanos() > 3 * t_p2p.since(ctx.now()).as_nanos(),
                "staged path must be much slower"
            );
        });
        sim.run().unwrap();
    }

    #[test]
    fn cost_only_copies_charge_time_but_move_nothing() {
        let mut sim = Sim::new();
        let devs = table(&sim, DataMode::CostOnly);
        sim.spawn("t", move |ctx| {
            let dev = devs.dev(0);
            let src = HostBuf::phantom(1 << 18);
            let done = h2d(ctx.handle(), dev, &src, 0, 0, 1 << 18, ctx.now()).unwrap();
            assert!(done > ctx.now(), "time is still charged");
            ctx.sleep_until(done);
            let mut probe = [0u8; 4];
            dev.mem.read(0, &mut probe).unwrap();
            assert_eq!(probe, [0; 4]);
        });
        sim.run().unwrap();
    }

    #[test]
    fn out_of_bounds_copy_is_rejected() {
        let mut sim = Sim::new();
        let devs = table(&sim, DataMode::Functional);
        sim.spawn("t", move |ctx| {
            let dev = devs.dev(0);
            let src = HostBuf::zeroed(16);
            let err = h2d(ctx.handle(), dev, &src, 0, (1 << 20) - 4, 16, ctx.now());
            assert!(matches!(err, Err(MemError::OutOfBounds { .. })));
        });
        sim.run().unwrap();
    }
}
