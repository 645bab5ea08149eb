//! The host link's two lanes: an upload and a download on one device
//! never queue on each other, two transfers the same way still do, and a
//! download can be reserved to start at a later instant.

use std::sync::Arc;

use diomp_device::copy::{d2d_ipc, d2h, h2d};
use diomp_device::{DataMode, DeviceTable, HostBuf};
use diomp_sim::{ClusterSpec, Ctx, Dur, PlatformSpec, Sim, Topology};

const LEN: u64 = 16 << 20;

/// One platform-A node with two GPUs; `body` runs as the only task.
fn on_two_gpus(mode: DataMode, body: impl FnOnce(&mut Ctx, &DeviceTable) + 'static) {
    let mut sim = Sim::new();
    let spec = ClusterSpec { platform: PlatformSpec::platform_a(), nodes: 1, gpus_per_node: 2 };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let devs = DeviceTable::build(&sim.handle(), topo, mode, Some(2 * LEN));
    sim.spawn("t", move |ctx| body(ctx, &devs));
    sim.run().unwrap();
}

#[test]
fn upload_and_download_overlap_while_two_uploads_serialise() {
    on_two_gpus(DataMode::CostOnly, |ctx, devs| {
        let (h, dev, buf) = (ctx.handle().clone(), devs.dev(0), HostBuf::phantom(LEN));
        let one = h2d(&h, dev, &buf, 0, 0, LEN, ctx.now()).unwrap().since(ctx.now());
        assert!(one > Dur::micros(600.0), "16 MiB at 25 GB/s is ~670 µs, got {one}");
        ctx.delay(one);
        let t0 = ctx.now();
        let up = h2d(&h, dev, &buf, 0, 0, LEN, t0).unwrap();
        let down = d2h(&h, dev, LEN, &buf, 0, LEN, t0).unwrap();
        assert_eq!((up.since(t0), down.since(t0)), (one, one), "started together, done together");
        let second_up = h2d(&h, dev, &buf, 0, 0, LEN, t0).unwrap().since(t0);
        assert!(second_up.as_us() > 1.9 * one.as_us(), "one lane, one direction: FIFO");
    });
}

#[test]
fn opposed_ipc_copies_overlap() {
    on_two_gpus(DataMode::CostOnly, |ctx, devs| {
        let (h, a, b, shm) = (ctx.handle().clone(), devs.dev(0), devs.dev(1), devs.topo.shm(0));
        let solo = d2d_ipc(&h, a, 0, b, 0, LEN, shm).unwrap().since(ctx.now());
        ctx.delay(solo);
        // a→b rides a's D2H and b's H2D lane, b→a the other two. Only
        // the host shared-memory bounce is shared, and at 40 GB/s it holds
        // the second copy back 0.62 of a transfer; on one FIFO per host
        // link the second copy waited for the whole first one (2.0x).
        let t1 = ctx.now();
        let ab = d2d_ipc(&h, a, 0, b, 0, LEN, shm).unwrap().since(t1);
        let ba = d2d_ipc(&h, b, LEN, a, LEN, LEN, shm).unwrap().since(t1);
        assert_eq!(ab, solo);
        assert!(ba.as_us() < 1.7 * solo.as_us(), "opposed copy took {ba}, a solo one {solo}");
    });
}

#[test]
fn a_download_reserved_for_later_starts_then_and_reads_the_device_now() {
    on_two_gpus(DataMode::Functional, |ctx, devs| {
        let (h, dev, buf) = (ctx.handle().clone(), devs.dev(0), HostBuf::zeroed(8));
        dev.mem.write(0, &[7; 8]).unwrap();
        let ready = ctx.now() + Dur::micros(100.0);
        let done = d2h(&h, dev, 0, &buf, 0, 8, ready).unwrap();
        assert!(done > ready, "the copy starts at `ready`, not at the call");
        dev.mem.write(0, &[9; 8]).unwrap();
        ctx.sleep_until(ready);
        assert_eq!(buf.to_bytes(), vec![0; 8], "nothing lands before the copy has run");
        ctx.sleep_until(done);
        assert_eq!(buf.to_bytes(), vec![7; 8], "the bytes are the ones read in the call");
    });
}
