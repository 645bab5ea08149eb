//! Raw transport paths between endpoints.
//!
//! Given source/destination endpoints and a payload size, reserve the
//! modelled link resources and return departure/arrival times. Protocol
//! layers (GASNet, GPI, MPI) add their software overheads around these.

use diomp_device::DeviceTable;
use diomp_sim::{DevLoc, ResourceId, SimHandle, SimTime};

/// Modelled times of a raw path traversal.
#[derive(Clone, Copy, Debug)]
pub struct PathTimes {
    /// Source-side resources released (sender buffer reusable).
    pub depart: SimTime,
    /// Last byte visible at the destination.
    pub arrive: SimTime,
}

/// Endpoint of a raw transfer: a device or a node's host memory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum End {
    /// Device endpoint (flat index).
    Dev(usize),
    /// Host endpoint on a node.
    Node(usize),
}

impl End {
    fn node(self, devs: &DeviceTable) -> usize {
        match self {
            End::Dev(f) => devs.dev(f).loc.node,
            End::Node(n) => n,
        }
    }
}

/// The link resource a `src → dst` traversal serialises on: the
/// hierarchy documented at [`raw_path`].
fn first_hop(devs: &DeviceTable, src: End, dst: End) -> ResourceId {
    let (sn, dn) = (src.node(devs), dst.node(devs));
    match (src, dst) {
        (End::Dev(a), _) if sn != dn => devs.dev(a).nic,
        (End::Node(n), _) if sn != dn => devs.topo.nic_for(DevLoc { node: n, gpu: 0 }),
        (End::Dev(a), End::Dev(b)) if a == b => devs.dev(a).d2d_engine,
        (End::Dev(a), End::Dev(_)) => devs.dev(a).port,
        (End::Dev(d), End::Node(_)) => devs.dev(d).d2h,
        (End::Node(_), End::Dev(d)) => devs.dev(d).h2d,
        (End::Node(n), End::Node(_)) => devs.topo.shm(n),
    }
}

/// Charge the raw path from `src` to `dst` for `bytes / eff` wire bytes,
/// with the payload ready at `ready`, FIFO on the path's first hop.
///
/// Path selection mirrors the hierarchy of paper §3.2 as seen by a
/// *conduit* (no GPUDirect P2P here — direct peer transfers are a DiOMP
/// runtime optimisation layered above, see `diomp-core::rma`):
///
/// * inter-node  → source NIC (GPU-direct RDMA),
/// * intra-node device↔device (different processes) → IPC handles over
///   the GPU fabric (NVLink/xGMI): what CUDA-aware MPI and GASNet's PSHM
///   path both do on P2P-capable nodes. The host-shm bounce only exists
///   for P2P-incapable pairs (see `diomp_device::copy::d2d_ipc`, used by
///   the DiOMP runtime's explicit no-P2P fallback),
/// * same device → local copy engine,
/// * device↔host intra-node → the lane of the device's host link that
///   runs the transfer's way (`d2h` or `h2d`; the two never queue on
///   each other),
/// * host↔host intra-node → shared-memory copy.
pub fn raw_path(
    h: &SimHandle,
    devs: &DeviceTable,
    src: End,
    dst: End,
    ready: SimTime,
    bytes: u64,
    eff: f64,
) -> PathTimes {
    assert!(eff > 0.0 && eff <= 1.0, "efficiency must be in (0, 1]");
    let wire = ((bytes as f64 / eff).ceil() as u64).max(1);
    let tr = h.transfer_from(first_hop(devs, src, dst), ready, wire);
    PathTimes { depart: tr.depart, arrive: tr.arrive }
}

/// Charge a minimal control message (get request, put acknowledgement,
/// RTS/CTS) along the path: the first hop's latency plus 64 bytes of
/// serialisation on its control lane. It neither queues behind nor
/// delays bulk payload on the same link — a NIC interleaves a 64-byte
/// packet within one MTU — so a `get` request is never held up by the
/// megabytes the requester's own NIC is streaming (DESIGN D3).
pub fn control_msg(
    h: &SimHandle,
    devs: &DeviceTable,
    src: End,
    dst: End,
    ready: SimTime,
) -> SimTime {
    h.control_from(first_hop(devs, src, dst), ready, 64)
}
