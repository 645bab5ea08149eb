//! Cluster topology: nodes, devices, links, and path classification.
//!
//! A [`Topology`] instantiates the *shared* fabric resources of a cluster
//! (NIC ports, intra-node GPU fabric ports, host links — one FIFO per
//! direction — and host shared memory) as FIFO bandwidth resources in
//! the simulation kernel.
//! Device-private resources (HBM, copy engines) are created by
//! `diomp-device` per device.

use crate::kernel::SimHandle;
use crate::platform::PlatformSpec;
use crate::resource::ResourceId;
use crate::time::Dur;

/// How many nodes / devices a simulated cluster has.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterSpec {
    /// Hardware + software parameter set (platform A/B/C or custom).
    pub platform: PlatformSpec,
    /// Number of nodes in the job.
    pub nodes: usize,
    /// Devices used per node (≤ `platform.gpus_per_node`).
    pub gpus_per_node: usize,
}

impl ClusterSpec {
    /// A cluster on `platform` using every GPU of `nodes` nodes.
    pub fn full_nodes(platform: PlatformSpec, nodes: usize) -> Self {
        let gpus = platform.gpus_per_node;
        ClusterSpec { platform, nodes, gpus_per_node: gpus }
    }

    /// A cluster with a total of `total_gpus`, filling nodes in order.
    /// The last node may be partially used.
    pub fn with_total_gpus(platform: PlatformSpec, total_gpus: usize) -> Self {
        let per = platform.gpus_per_node;
        let nodes = total_gpus.div_ceil(per);
        ClusterSpec { platform, nodes, gpus_per_node: per.min(total_gpus) }
    }

    /// Total devices in the job.
    pub fn total_gpus(&self) -> usize {
        self.nodes * self.gpus_per_node
    }
}

/// Relative placement of two devices, deciding the transfer path
/// (paper §3.2 "topology-aware, hierarchical communication framework").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// Same device: a local D2D copy.
    SameDevice,
    /// Same node: candidate for GPUDirect P2P or IPC.
    SameNode,
    /// Different nodes: must cross the network.
    InterNode,
}

/// Identifies a device by `(node, local index)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct DevLoc {
    /// Node index.
    pub node: usize,
    /// Device index within the node.
    pub gpu: usize,
}

/// Instantiated fabric resources for one cluster.
pub struct Topology {
    /// The cluster this topology was built for.
    pub spec: ClusterSpec,
    /// `[node][nic]` — NIC transmit ports (serialisation point for
    /// inter-node traffic).
    nic_tx: Vec<Vec<ResourceId>>,
    /// `[node][gpu]` — intra-node GPU fabric port (NVLink / xGMI).
    gpu_port: Vec<Vec<ResourceId>>,
    /// `[node][gpu]` — device-to-host lane of each device's host link
    /// (PCIe, Infinity Fabric or C2C).
    d2h: Vec<Vec<ResourceId>>,
    /// `[node]` — host shared-memory bandwidth (for IPC staging).
    shm: Vec<ResourceId>,
    /// `[node][gpu]` — host-to-device lane of each device's host link.
    h2d: Vec<Vec<ResourceId>>,
}

impl Topology {
    /// Instantiate all fabric resources in the kernel.
    pub fn build(h: &SimHandle, spec: ClusterSpec) -> Topology {
        let p = &spec.platform;
        let net_lat = Dur::micros(p.net.latency_us);
        let link_lat = Dur::micros(p.intra.gpu_link_lat_us);
        let pcie_lat = Dur::micros(p.intra.pcie_lat_us);

        let links = |n: usize, gbps: f64, lat: Dur| -> Vec<ResourceId> {
            (0..n).map(|_| h.new_resource(gbps, lat)).collect()
        };
        let gpus = spec.gpus_per_node;
        let mut nic_tx = Vec::with_capacity(spec.nodes);
        let mut gpu_port = Vec::with_capacity(spec.nodes);
        let mut d2h = Vec::with_capacity(spec.nodes);
        let mut shm = Vec::with_capacity(spec.nodes);
        for _ in 0..spec.nodes {
            nic_tx.push(links(p.net.nics_per_node, p.net.nic_gbps, net_lat));
            gpu_port.push(links(gpus, p.intra.gpu_link_gbps, link_lat));
            d2h.push(links(gpus, p.intra.pcie_gbps, pcie_lat));
            shm.push(h.new_resource(p.intra.shm_gbps, Dur::micros(p.intra.shm_lat_us)));
        }
        // After the per-node loop, so the lane shifts no other link's
        // id: seeded fault plans name links by id.
        let h2d = (0..spec.nodes).map(|_| links(gpus, p.intra.pcie_gbps, pcie_lat)).collect();
        Topology { spec, nic_tx, gpu_port, d2h, shm, h2d }
    }

    /// Classify the path between two devices.
    pub fn placement(&self, a: DevLoc, b: DevLoc) -> Placement {
        if a == b {
            Placement::SameDevice
        } else if a.node == b.node {
            Placement::SameNode
        } else {
            Placement::InterNode
        }
    }

    /// The NIC a device uses for inter-node traffic. Devices are striped
    /// across the node's NICs the way Cray MPICH / NCCL pin one NIC per
    /// GPU on 4-NIC nodes.
    pub fn nic_for(&self, dev: DevLoc) -> ResourceId {
        let nics = &self.nic_tx[dev.node];
        nics[dev.gpu % nics.len()]
    }

    /// The intra-node fabric port (NVLink / xGMI) of a device.
    pub fn gpu_port(&self, dev: DevLoc) -> ResourceId {
        self.gpu_port[dev.node][dev.gpu]
    }

    /// The device-to-host lane of a device's host link.
    pub fn d2h(&self, dev: DevLoc) -> ResourceId {
        self.d2h[dev.node][dev.gpu]
    }

    /// The host-to-device lane of a device's host link.
    pub fn h2d(&self, dev: DevLoc) -> ResourceId {
        self.h2d[dev.node][dev.gpu]
    }

    /// Host shared-memory bandwidth resource of a node.
    pub fn shm(&self, node: usize) -> ResourceId {
        self.shm[node]
    }

    /// Number of NICs per node.
    pub fn nics_per_node(&self) -> usize {
        self.nic_tx[0].len()
    }

    /// Device location for a flat device index (row-major by node).
    pub fn dev_loc(&self, flat: usize) -> DevLoc {
        DevLoc { node: flat / self.spec.gpus_per_node, gpu: flat % self.spec.gpus_per_node }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformSpec;

    fn tiny() -> ClusterSpec {
        ClusterSpec { platform: PlatformSpec::platform_a(), nodes: 2, gpus_per_node: 4 }
    }

    #[test]
    fn placement_classification() {
        let sim = crate::Sim::new();
        let topo = Topology::build(&sim.handle(), tiny());
        let a = DevLoc { node: 0, gpu: 0 };
        let b = DevLoc { node: 0, gpu: 1 };
        let c = DevLoc { node: 1, gpu: 0 };
        assert_eq!(topo.placement(a, a), Placement::SameDevice);
        assert_eq!(topo.placement(a, b), Placement::SameNode);
        assert_eq!(topo.placement(a, c), Placement::InterNode);
    }

    #[test]
    fn dev_loc_is_row_major_by_node() {
        let sim = crate::Sim::new();
        let topo = Topology::build(&sim.handle(), tiny());
        let locs: Vec<DevLoc> = (0..topo.spec.total_gpus()).map(|f| topo.dev_loc(f)).collect();
        let want: Vec<DevLoc> =
            (0..2).flat_map(|node| (0..4).map(move |gpu| DevLoc { node, gpu })).collect();
        assert_eq!(locs, want);
    }

    #[test]
    fn nic_striping_covers_all_nics() {
        let sim = crate::Sim::new();
        let topo = Topology::build(&sim.handle(), tiny());
        let nics: std::collections::HashSet<_> =
            (0..4).map(|g| topo.nic_for(DevLoc { node: 0, gpu: g })).collect();
        assert_eq!(nics.len(), 4, "4 GPUs on 4 NICs must not share");
    }

    #[test]
    fn with_total_gpus_rounds_nodes_up() {
        let spec = ClusterSpec::with_total_gpus(PlatformSpec::platform_a(), 10);
        assert_eq!(spec.nodes, 3);
        assert_eq!(spec.gpus_per_node, 4);
    }
}
