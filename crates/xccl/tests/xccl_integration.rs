//! Integration tests for the XCCL collective library.

use std::rc::Rc;
use std::sync::Arc;

use diomp_device::{DataMode, DeviceTable};
use diomp_fabric::{FabricWorld, ReduceOp};
use diomp_sim::{ClusterSpec, PlatformSpec, Sim, SimTime, Topology};
use diomp_xccl::{CommOpts, DeviceBuf, UniqueId, XcclComm, XcclOp};

fn boot(
    sim: &Sim,
    platform: PlatformSpec,
    nodes: usize,
    per: usize,
    nranks: usize,
) -> Rc<FabricWorld> {
    let spec = ClusterSpec { platform, nodes, gpus_per_node: per };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::Functional, Some(4 << 20));
    FabricWorld::new(topo, devs, nranks)
}

/// Run `f` on every rank with a communicator over all ranks; returns the
/// end-of-sim virtual time.
fn with_comm(
    nranks: usize,
    per_rank_devices: usize,
    f: impl Fn(&mut diomp_sim::Ctx, &Rc<FabricWorld>, &Rc<XcclComm>, usize) + 'static,
) -> SimTime {
    let mut sim = Sim::new();
    let nodes = (nranks * per_rank_devices).div_ceil(4);
    let world = boot(&sim, PlatformSpec::platform_a(), nodes, 4, nranks);
    let id = UniqueId::generate();
    let f = Rc::new(f);
    for r in 0..nranks {
        let world = world.clone();
        let f = f.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            // Root generates the id; everyone receives it via bootstrap.
            let bits = world.bootstrap.exchange(ctx, r, if r == 0 { id.bits() } else { 0 })[0];
            let comm = XcclComm::init(
                ctx,
                &world,
                (0..world.nranks).collect(),
                r,
                UniqueId::from_bits(bits),
                CommOpts::default(),
            );
            f(ctx, &world, &comm, r);
        });
    }
    sim.run().unwrap().end_time
}

fn write_f64(world: &FabricWorld, flat: usize, off: u64, vals: &[f64]) {
    let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
    world.devs.dev(flat).mem.write(off, &bytes).unwrap();
}

fn read_f64(world: &FabricWorld, flat: usize, off: u64, n: usize) -> Vec<f64> {
    let mut bytes = vec![0u8; n * 8];
    world.devs.dev(flat).mem.read(off, &mut bytes).unwrap();
    bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect()
}

#[test]
fn allreduce_sums_across_all_devices() {
    with_comm(4, 1, |ctx, world, comm, r| {
        let dev = world.primary_dev(r);
        let off = dev.malloc(64, 256).unwrap();
        write_f64(world, r, off, &[(r + 1) as f64; 8]);
        comm.collective(
            ctx,
            r,
            vec![DeviceBuf { flat: r, off }],
            XcclOp::AllReduce { op: ReduceOp::SumF64 },
            64,
        );
        let got = read_f64(world, r, off, 8);
        assert_eq!(got, vec![10.0; 8], "rank {r}: 1+2+3+4 everywhere");
    });
}

#[test]
fn broadcast_copies_root_payload_everywhere() {
    with_comm(4, 1, |ctx, world, comm, r| {
        let dev = world.primary_dev(r);
        let off = dev.malloc(64, 256).unwrap();
        write_f64(world, r, off, &[r as f64 * 100.0; 8]);
        // Broadcast from the device at ring position 2.
        comm.collective(
            ctx,
            r,
            vec![DeviceBuf { flat: r, off }],
            XcclOp::Broadcast { root: 2 },
            64,
        );
        let got = read_f64(world, r, off, 8);
        let root_flat = comm.ring.order[2];
        assert_eq!(got, vec![root_flat as f64 * 100.0; 8], "rank {r}");
    });
}

#[test]
fn reduce_lands_only_at_root() {
    with_comm(4, 1, |ctx, world, comm, r| {
        let dev = world.primary_dev(r);
        let off = dev.malloc(64, 256).unwrap();
        write_f64(world, r, off, &[2.0; 8]);
        comm.collective(
            ctx,
            r,
            vec![DeviceBuf { flat: r, off }],
            XcclOp::Reduce { root: 0, op: ReduceOp::SumF64 },
            64,
        );
        let got = read_f64(world, r, off, 8);
        if comm.ring_pos(r) == 0 {
            assert_eq!(got, vec![8.0; 8]);
        } else {
            assert_eq!(got, vec![2.0; 8], "non-root buffers untouched");
        }
    });
}

#[test]
fn allgather_places_chunks_in_ring_order() {
    with_comm(4, 1, |ctx, world, comm, r| {
        let dev = world.primary_dev(r);
        let off = dev.malloc(4 * 16, 256).unwrap();
        write_f64(world, r, off, &[r as f64, r as f64]); // 16 B payload
        comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], XcclOp::AllGather, 16);
        let got = read_f64(world, r, off, 8);
        let expect: Vec<f64> = comm.ring.order.iter().flat_map(|&f| [f as f64, f as f64]).collect();
        assert_eq!(got, expect, "rank {r}");
    });
}

#[test]
fn single_process_multi_gpu_rank_contributes_all_its_devices() {
    // Paper §3.3: one rank may own several devices; collectives still
    // span every device atomically.
    with_comm(2, 2, |ctx, world, comm, r| {
        assert_eq!(world.gpus_per_rank, 2);
        let mut bufs = Vec::new();
        for flat in world.devices_of(r) {
            let off = world.devs.dev(flat).malloc(32, 256).unwrap();
            write_f64(world, flat, off, &[flat as f64; 4]);
            bufs.push(DeviceBuf { flat, off });
        }
        comm.collective(ctx, r, bufs.clone(), XcclOp::AllReduce { op: ReduceOp::SumF64 }, 32);
        for b in &bufs {
            let got = read_f64(world, b.flat, b.off, 4);
            assert_eq!(got, vec![0.0 + 1.0 + 2.0 + 3.0; 4]);
        }
    });
}

#[test]
fn ring_order_is_node_major() {
    with_comm(8, 1, |_ctx, world, comm, _r| {
        let nodes: Vec<usize> =
            comm.ring.order.iter().map(|&f| world.devs.dev(f).loc.node).collect();
        let mut sorted = nodes.clone();
        sorted.sort_unstable();
        assert_eq!(nodes, sorted, "ring must be node-major to minimise crossings");
        assert_eq!(comm.ring.nodes, 2);
        assert_eq!(comm.ring.nrings, 4, "4 NICs per node ⇒ 4 rails");
    });
}

#[test]
fn larger_payloads_take_longer() {
    let t_small = with_comm(4, 1, |ctx, world, comm, r| {
        let off = world.primary_dev(r).malloc(1 << 20, 256).unwrap();
        comm.collective(
            ctx,
            r,
            vec![DeviceBuf { flat: r, off }],
            XcclOp::AllReduce { op: ReduceOp::SumF64 },
            64 << 10,
        );
    });
    let t_large = with_comm(4, 1, |ctx, world, comm, r| {
        let off = world.primary_dev(r).malloc(1 << 20, 256).unwrap();
        comm.collective(
            ctx,
            r,
            vec![DeviceBuf { flat: r, off }],
            XcclOp::AllReduce { op: ReduceOp::SumF64 },
            1 << 20,
        );
    });
    assert!(t_large > t_small);
}

#[test]
fn back_to_back_collectives_reuse_the_gate() {
    with_comm(4, 1, |ctx, world, comm, r| {
        let off = world.primary_dev(r).malloc(64, 256).unwrap();
        for round in 0..5u32 {
            write_f64(world, r, off, &[(round as f64) + 1.0; 8]);
            comm.collective(
                ctx,
                r,
                vec![DeviceBuf { flat: r, off }],
                XcclOp::AllReduce { op: ReduceOp::SumF64 },
                64,
            );
            let got = read_f64(world, r, off, 8);
            assert_eq!(got, vec![4.0 * (round as f64 + 1.0); 8]);
        }
    });
}

#[test]
#[should_panic(expected = "arrived twice")]
fn a_rank_arriving_twice_at_one_collective_panics() {
    // Rank 1 gets hold of rank 0's communicator handle and arrives on
    // its behalf while rank 0 is still waiting at the gate (ranks 2 and 3
    // never show up, so the episode cannot have filled).
    let lent: Arc<std::sync::Mutex<Option<Rc<XcclComm>>>> = Arc::default();
    with_comm(4, 1, move |ctx, _, comm, r| {
        let op = XcclOp::AllReduce { op: ReduceOp::SumF64 };
        match r {
            0 => {
                *lent.lock().unwrap() = Some(comm.clone());
                comm.collective(ctx, 0, vec![DeviceBuf { flat: 0, off: 0 }], op, 64);
            }
            1 => {
                ctx.delay(diomp_sim::Dur::micros(1.0));
                let comm0 = lent.lock().unwrap().clone().expect("rank 0 lends its handle first");
                comm0.collective(ctx, 0, vec![DeviceBuf { flat: 0, off: 0 }], op, 64);
            }
            _ => {}
        }
    });
}

#[test]
fn a_change_to_one_device_never_reaches_the_devices_sharing_its_result() {
    // Allgather and broadcast store one result buffer in every receiving
    // device. Device 2 is then changed three ways: a host write, an RMA
    // put and a kernel. Only device 2 may see any of it; the others must
    // still read the sequential-fold bytes, so a shared buffer that was
    // changed in place fails here.
    const L: usize = 256;
    const BCAST: usize = 2048;
    let bytes =
        |seed: usize, len: usize| (0..len).map(|i| (seed * 37 + i) as u8).collect::<Vec<u8>>();
    with_comm(4, 1, move |ctx, world, comm, r| {
        let seg = world.attach_device_segment(r, r, 4096).unwrap();
        let base = world.segment(seg).base;
        let mem = |flat: usize| &world.devs.dev(flat).mem;
        mem(r).write(base, &bytes(r, L)).unwrap();
        mem(r).write(base + BCAST as u64, &bytes(10 + r, 2 * L)).unwrap();
        let buf = DeviceBuf { flat: r, off: base };
        comm.collective(ctx, r, vec![buf], XcclOp::AllGather, L as u64);
        let bcast = DeviceBuf { flat: r, off: base + BCAST as u64 };
        comm.collective(ctx, r, vec![bcast], XcclOp::Broadcast { root: 1 }, 2 * L as u64);
        let mut fold = vec![0u8; 4096];
        for (i, &flat) in comm.ring.order.iter().enumerate() {
            fold[i * L..(i + 1) * L].copy_from_slice(&bytes(flat, L));
        }
        fold[BCAST..BCAST + 2 * L].copy_from_slice(&bytes(10 + comm.ring.order[1], 2 * L));
        world.bootstrap.exchange(ctx, r, 0);

        // Device 2 after a host write, an RMA put and a kernel, in order.
        let mut changed = fold.clone();
        changed[10..30].fill(0xEE);
        changed[BCAST + 16..BCAST + 80].fill(0xDD);
        changed[1000..2100].iter_mut().for_each(|b| *b ^= 0x5A);
        if r == 0 {
            let dst = diomp_fabric::SegmentId { rank: 2, index: 0 };
            let two = world.segment(dst).base;
            mem(2).write(two + 10, &[0xEE; 20]).unwrap();
            let src = world.devs.dev(0).malloc(64, 256).unwrap();
            mem(0).write(src, &[0xDD; 64]).unwrap();
            let src = diomp_fabric::Loc::dev(0, src);
            diomp_fabric::gasnet::put_blocking(ctx, world, 0, src, dst, BCAST as u64 + 16, 64)
                .unwrap();
            let dev2 = world.devs.dev(2);
            let stream = dev2.acquire_stream(ctx);
            let body: diomp_device::KernelBody = Box::new(move |mem| {
                mem.with_slice_mut(two + 1000, 1100, |s| s.iter_mut().for_each(|b| *b ^= 0x5A))
                    .unwrap();
            });
            let cost = diomp_device::KernelCost::Fixed(diomp_sim::Dur::micros(1.0));
            let end = dev2.launch(ctx.handle(), stream, &cost, Some(body));
            ctx.sleep_until(end);
        }
        world.bootstrap.exchange(ctx, r, 0);

        let mut got = vec![0u8; 4096];
        mem(r).read(base, &mut got).unwrap();
        if r == 2 {
            assert_eq!(got, changed, "device 2 sees its write, the put and the kernel");
        } else {
            assert_eq!(got, fold, "device {r} still reads the sequential fold");
        }
    });
}
