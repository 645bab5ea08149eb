//! Platform models: the three evaluation systems of the paper.
//!
//! * **Platform A** — AMD EPYC 7763 + 4×NVIDIA A100, 4×HPE Slingshot-11
//!   NICs per node (200 Gb each). Baseline MPI: HPE Cray MPICH.
//! * **Platform B** — AMD EPYC 7A53 + 4×AMD MI250X (= 8 GCDs visible as
//!   8 OpenMP devices), 4×Slingshot-11. Baseline MPI: HPE Cray MPICH.
//! * **Platform C** — NVIDIA Grace Hopper GH200, 1 GPU per node, NDR
//!   InfiniBand 200 Gb. Baseline MPI: OpenMPI.
//!
//! Hardware numbers are taken from public vendor specifications.
//! *Software* numbers (per-operation overheads, achieved-bandwidth
//! curves) are **calibration parameters**: they are fitted so that the
//! micro-benchmarks of this reproduction land on the curves published in
//! the paper (Figs. 3–6). The protocol code in `diomp-fabric` /
//! `diomp-xccl` decides *how many* operations happen and *which* links
//! they cross; these tables decide what each costs. EXPERIMENTS.md
//! records the resulting paper-vs-measured comparison.

/// Compute-device hardware model.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Device memory capacity in GiB.
    pub mem_gib: f64,
    /// HBM bandwidth, GB/s.
    pub hbm_gbps: f64,
    /// Peak FP32 throughput, TFLOP/s.
    pub fp32_tflops: f64,
    /// Peak FP64 throughput, TFLOP/s.
    pub fp64_tflops: f64,
    /// Last-level cache size, MiB (drives the cache-residency term of the
    /// GEMM model, DESIGN.md D7).
    pub l2_mib: f64,
    /// Kernel launch latency, µs.
    pub launch_us: f64,
    /// Intra-device copy bandwidth (D2D on the same device), GB/s.
    pub d2d_gbps: f64,
}

/// Inter-node network hardware model.
#[derive(Clone, Debug, PartialEq)]
pub struct NetSpec {
    /// Fabric name, for reports.
    pub name: &'static str,
    /// Per-NIC bandwidth, GB/s (200 Gb ≈ 25 GB/s).
    pub nic_gbps: f64,
    /// NICs per node.
    pub nics_per_node: usize,
    /// One-way wire + switch latency, µs.
    pub latency_us: f64,
}

/// Intra-node interconnect model.
#[derive(Clone, Debug, PartialEq)]
pub struct IntraSpec {
    /// GPU↔GPU fabric bandwidth per device port (NVLink / xGMI), GB/s.
    pub gpu_link_gbps: f64,
    /// GPU↔GPU fabric latency, µs.
    pub gpu_link_lat_us: f64,
    /// Host link bandwidth per device *per direction* (PCIe gen4 ×16,
    /// Infinity Fabric 36 + 36, NVLink-C2C 450 + 450), GB/s: each of
    /// the link's two lanes ([`crate::Topology::d2h`], `h2d`) runs at it.
    pub pcie_gbps: f64,
    /// Host link latency, µs.
    pub pcie_lat_us: f64,
    /// Host shared-memory copy bandwidth (IPC staging), GB/s.
    pub shm_gbps: f64,
    /// Host shared-memory latency, µs.
    pub shm_lat_us: f64,
    /// One-time cost of opening an IPC memory handle, µs.
    pub ipc_setup_us: f64,
}

/// GASNet-EX conduit software model (the DiOMP default conduit).
#[derive(Clone, Debug, PartialEq)]
pub struct GasnetModel {
    /// Initiator overhead of a Put, µs.
    pub put_o_us: f64,
    /// Initiator overhead of a Get (includes the request round-trip share
    /// beyond wire latency), µs.
    pub get_o_us: f64,
    /// GPU memory RDMA path overhead per operation (device segment
    /// lookup, GDR doorbell), µs.
    pub gpu_reg_us: f64,
    /// Fraction of wire bandwidth achieved asymptotically by RMA.
    pub eff: f64,
    /// Active-message handler dispatch cost, µs.
    pub am_o_us: f64,
}

/// GPI-2 conduit software model (InfiniBand only, paper §4.1).
#[derive(Clone, Debug, PartialEq)]
pub struct GpiModel {
    /// Initiator overhead of a write, µs.
    pub put_o_us: f64,
    /// Initiator overhead of a read, µs.
    pub get_o_us: f64,
    /// Notification post+check cost, µs.
    pub notify_us: f64,
    /// Fraction of wire bandwidth achieved asymptotically.
    pub eff: f64,
}

/// MPI two-sided point-to-point model.
#[derive(Clone, Debug, PartialEq)]
pub struct MpiP2pModel {
    /// Largest message sent eagerly (no rendezvous), bytes.
    pub eager_max: u64,
    /// Sender-side software overhead, µs.
    pub send_o_us: f64,
    /// Receiver-side match/copy overhead, µs.
    pub recv_o_us: f64,
    /// Extra handshake cost of the rendezvous protocol, µs (on top of the
    /// request round trip).
    pub rndv_hs_us: f64,
    /// Fraction of wire bandwidth achieved asymptotically.
    pub eff: f64,
}

/// MPI one-sided (RMA window) model — the Fig. 3/4 baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct MpiRmaModel {
    /// Origin overhead of `MPI_Put`, µs.
    pub put_o_us: f64,
    /// Origin overhead of `MPI_Get`, µs.
    pub get_o_us: f64,
    /// Per-operation share of window synchronisation (`MPI_Win_flush`),
    /// µs.
    pub flush_us: f64,
    /// Software pipeline cost per byte for device buffers, ns/B. This is
    /// what makes MPI RMA latency *grow* visibly over 4 B–8 KB in Fig. 3
    /// while DiOMP stays nearly flat.
    pub per_byte_ns: f64,
    /// Achieved fraction of wire bandwidth for large Puts.
    pub put_eff: f64,
    /// Achieved fraction of wire bandwidth for large Gets.
    pub get_eff: f64,
    /// Collective cost of `MPI_Win_create` per rank (memory registration,
    /// exchange of window metadata), µs.
    pub win_create_us: f64,
}

/// A piecewise achieved-bandwidth curve: `(message bytes, GB/s)` control
/// points, geometrically interpolated in log-size space. Below the first
/// point the first bandwidth applies; above the last, the last.
#[derive(Clone, Debug, PartialEq)]
pub struct BwCurve {
    /// Control points, strictly increasing in bytes.
    pub points: Vec<(u64, f64)>,
}

impl BwCurve {
    /// Build from control points (must be non-empty, sizes increasing).
    pub fn new(points: Vec<(u64, f64)>) -> Self {
        assert!(!points.is_empty(), "BwCurve needs at least one point");
        assert!(points.windows(2).all(|w| w[0].0 < w[1].0), "BwCurve sizes must increase");
        BwCurve { points }
    }

    /// Achieved bandwidth in GB/s for a message of `bytes`.
    pub fn gbps(&self, bytes: u64) -> f64 {
        let pts = &self.points;
        if bytes <= pts[0].0 {
            return pts[0].1;
        }
        if bytes >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        let i = pts.partition_point(|p| p.0 <= bytes) - 1;
        let (s0, b0) = pts[i];
        let (s1, b1) = pts[i + 1];
        // Log-log interpolation: smooth S-curves from few points.
        let f = ((bytes as f64).ln() - (s0 as f64).ln()) / ((s1 as f64).ln() - (s0 as f64).ln());
        (b0.ln() + f * (b1.ln() - b0.ln())).exp()
    }

    /// Time in µs to move `bytes` at the interpolated bandwidth.
    pub fn time_us(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.gbps(bytes) * 1e3)
    }

    /// Asymptotic bandwidth of the curve: the last control point's GB/s
    /// (what the link achieves once messages are large enough that
    /// per-operation overheads vanish).
    pub fn asymptote_gbps(&self) -> f64 {
        self.points.last().expect("BwCurve is non-empty").1
    }

    /// The curve's *knee*: the smallest message size whose achieved
    /// bandwidth reaches `frac` of the asymptote ([`Self::asymptote_gbps`]).
    ///
    /// This is the transport autotuner's primitive query: "how big must a
    /// chunk be before this platform's per-operation overhead stops
    /// mattering?" The answer is read off the calibrated table rather
    /// than hard-coded, so every derived parameter follows the platform.
    ///
    /// The result is clamped to the curve's control range: if even the
    /// first point reaches the threshold the first point's size is
    /// returned, and if no interior crossing exists (non-monotonic fitted
    /// curves can dip back under), the last point's size is returned —
    /// the asymptote itself always qualifies for `frac <= 1`. Within a
    /// segment the crossing is solved on the same log-log interpolation
    /// [`Self::gbps`] uses, so `gbps(knee_bytes(f)) ≈ f × asymptote`.
    /// The query is monotone in `frac`: a higher threshold can only move
    /// the knee to a larger size.
    pub fn knee_bytes(&self, frac: f64) -> u64 {
        let thr = self.asymptote_gbps() * frac;
        let pts = &self.points;
        if pts[0].1 >= thr {
            return pts[0].0;
        }
        for w in pts.windows(2) {
            let ((s0, b0), (s1, b1)) = (w[0], w[1]);
            if b0 < thr && thr <= b1 {
                // Invert the log-log interpolation of `gbps`.
                let f = (thr.ln() - b0.ln()) / (b1.ln() - b0.ln());
                let s = ((s0 as f64).ln() + f * ((s1 as f64).ln() - (s0 as f64).ln())).exp();
                return (s.ceil() as u64).clamp(s0, s1);
            }
        }
        pts[pts.len() - 1].0
    }

    /// Synthesize the achieved-bandwidth curve of a primitive that costs
    /// `o_us + bytes / wire` µs per operation — the classic
    /// `s / (o + s/B)` saturation shape. Control points span
    /// 1 KiB – 64 MiB, matching the conduit RMA curves; the asymptote is
    /// `wire_gbps`. This is the autotuner's generic "how big must an
    /// operation be before its fixed overhead stops mattering" curve:
    /// the conduit RMA curves are one instance, the ring engine's
    /// per-chunk step curve another.
    pub fn saturation(o_us: f64, wire_gbps: f64) -> BwCurve {
        BwCurve::new(
            (0..=16)
                .map(|i| {
                    let s = 1u64 << (10 + i);
                    let t_us = o_us + s as f64 / (wire_gbps * 1e3);
                    (s, s as f64 / t_us / 1e3)
                })
                .collect(),
        )
    }
}

/// Synthesize the achieved-bandwidth curve of a single one-sided RMA
/// operation from its conduit model — [`BwCurve::saturation`] applied to
/// the conduit's per-op overhead and asymptotic wire rate.
fn rma_curve(o_us: f64, wire_gbps: f64) -> BwCurve {
    BwCurve::saturation(o_us, wire_gbps)
}

/// Cost profile of one collective operation in one library
/// (a calibrated model of NCCL/RCCL/MPI achieved performance).
#[derive(Clone, Debug, PartialEq)]
pub struct CollProfile {
    /// Fixed per-call cost (kernel launches, stream sync, algorithm
    /// selection), µs.
    pub launch_us: f64,
    /// Per-hop latency multiplied by the algorithm's hop count, µs.
    pub hop_us: f64,
    /// Achieved-bandwidth S-curve.
    pub curve: BwCurve,
}

impl CollProfile {
    /// Modelled completion time of this collective for `bytes` on `p`
    /// participants, where `hops` is the algorithm's latency-critical hop
    /// count (e.g. ⌈log2 p⌉ for trees, p−1 for unpipelined rings).
    pub fn time_us(&self, bytes: u64, hops: u32) -> f64 {
        self.launch_us + self.hop_us * hops as f64 + self.curve.time_us(bytes)
    }
}

/// Collective-communication models for the platform's MPI and its vendor
/// collective library (NCCL on A/C, RCCL on B).
#[derive(Clone, Debug, PartialEq)]
pub struct CollModels {
    /// Vendor library name ("NCCL" / "RCCL").
    pub xccl_name: &'static str,
    /// One-time communicator initialisation cost, µs (UniqueId exchange,
    /// topology discovery, ring construction).
    pub xccl_init_us: f64,
    /// MPI broadcast profile (GPU buffers).
    pub mpi_bcast: CollProfile,
    /// MPI allreduce profile (GPU buffers).
    pub mpi_allreduce: CollProfile,
    /// XCCL broadcast profile.
    pub xccl_bcast: CollProfile,
    /// XCCL allreduce profile.
    pub xccl_allreduce: CollProfile,
}

/// Which of the paper's systems a spec models.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlatformId {
    /// Slingshot-11 + A100.
    A,
    /// Slingshot-11 + MI250X.
    B,
    /// NDR InfiniBand + GH200.
    C,
    /// User-defined.
    Custom,
}

/// Complete hardware + software model of one evaluation platform.
#[derive(Clone, Debug, PartialEq)]
pub struct PlatformSpec {
    /// Which paper platform this models.
    pub id: PlatformId,
    /// Human-readable name used in reports ("Slingshot 11 + A100").
    pub name: &'static str,
    /// OpenMP-visible devices per node (8 for MI250X: 2 GCDs × 4).
    pub gpus_per_node: usize,
    /// Device hardware model.
    pub gpu: GpuSpec,
    /// Network hardware model.
    pub net: NetSpec,
    /// Intra-node interconnect model.
    pub intra: IntraSpec,
    /// GASNet-EX conduit software model.
    pub gasnet: GasnetModel,
    /// GPI-2 conduit software model (InfiniBand platforms only).
    pub gpi: Option<GpiModel>,
    /// MPI two-sided model.
    pub mpi_p2p: MpiP2pModel,
    /// MPI one-sided model.
    pub mpi_rma: MpiRmaModel,
    /// Collective models (MPI + XCCL).
    pub coll: CollModels,
    /// Fig. 4a documented hardware/driver issue: DiOMP Put bandwidth on
    /// Platform A is capped externally. `Some(cap_gbps)` reproduces the
    /// published anomaly; set to `None` for the corrected behaviour.
    pub put_anomaly_gbps: Option<f64>,
    /// Host memcpy bandwidth, GB/s (staging paths).
    pub host_memcpy_gbps: f64,
}

impl PlatformSpec {
    /// Platform A: Slingshot-11 + A100 (Cray MPICH, NCCL).
    pub fn platform_a() -> PlatformSpec {
        PlatformSpec {
            id: PlatformId::A,
            name: "Slingshot 11 + A100",
            gpus_per_node: 4,
            gpu: GpuSpec {
                name: "NVIDIA A100-40GB",
                mem_gib: 40.0,
                hbm_gbps: 1555.0,
                fp32_tflops: 19.5,
                fp64_tflops: 9.7,
                l2_mib: 40.0,
                launch_us: 6.0,
                d2d_gbps: 1300.0,
            },
            net: NetSpec {
                name: "HPE Slingshot 11",
                nic_gbps: 25.0,
                nics_per_node: 4,
                latency_us: 1.75,
            },
            intra: IntraSpec {
                gpu_link_gbps: 300.0,
                gpu_link_lat_us: 0.7,
                pcie_gbps: 25.0,
                pcie_lat_us: 1.2,
                shm_gbps: 40.0,
                shm_lat_us: 0.5,
                ipc_setup_us: 8.0,
            },
            gasnet: GasnetModel {
                put_o_us: 0.55,
                get_o_us: 1.0,
                gpu_reg_us: 0.95,
                eff: 0.92,
                am_o_us: 0.9,
            },
            gpi: None, // GPI-2 supports only InfiniBand (paper §4.1)
            mpi_p2p: MpiP2pModel {
                eager_max: 8192,
                send_o_us: 1.3,
                recv_o_us: 1.1,
                rndv_hs_us: 1.9,
                eff: 0.80,
            },
            mpi_rma: MpiRmaModel {
                put_o_us: 4.3,
                get_o_us: 6.3,
                flush_us: 1.8,
                per_byte_ns: 1.05,
                put_eff: 0.74,
                get_eff: 0.70,
                win_create_us: 42.0,
            },
            coll: CollModels {
                xccl_name: "NCCL",
                xccl_init_us: 90_000.0,
                mpi_bcast: CollProfile {
                    launch_us: 16.0,
                    hop_us: 1.2,
                    curve: BwCurve::new(vec![
                        (32 << 10, 5.5),
                        (256 << 10, 6.5),
                        (512 << 10, 15.0),
                        (64 << 20, 14.5),
                    ]),
                },
                mpi_allreduce: CollProfile {
                    launch_us: 22.0,
                    hop_us: 1.4,
                    curve: BwCurve::new(vec![(128 << 10, 4.5), (1 << 20, 4.8), (64 << 20, 2.0)]),
                },
                // Calibrated to NCCL's measured behaviour on this system
                // (fitted so the Fig. 6 ratios land; the dip near 512 KB
                // is the LL->Simple protocol switch).
                xccl_bcast: CollProfile {
                    launch_us: 15.33,
                    hop_us: 0.2434,
                    curve: BwCurve::new(vec![
                        (32256, 1.285),
                        (129024, 2.352),
                        (258048, 3.736),
                        (516096, 0.716),
                        (2064384, 2.563),
                        (8257536, 8.616),
                        (33030144, 15.174),
                        (66060288, 36.233),
                    ]),
                },
                xccl_allreduce: CollProfile {
                    launch_us: 55.78,
                    hop_us: 0.8853,
                    curve: BwCurve::new(vec![
                        (258048, 2.327),
                        (516096, 5.655),
                        (1032192, 8.126),
                        (2064384, 13.593),
                        (4128768, 13.386),
                        (8257536, 12.982),
                        (16515072, 20.957),
                        (33030144, 33.566),
                        (66060288, 48.554),
                        (132120576, 56.715),
                    ]),
                },
            },
            put_anomaly_gbps: Some(3.2),
            host_memcpy_gbps: 20.0,
        }
    }

    /// Platform B: Slingshot-11 + MI250X (Cray MPICH, RCCL). A node has
    /// 4 MI250X cards = 8 GCDs; each GCD is an OpenMP device.
    pub fn platform_b() -> PlatformSpec {
        PlatformSpec {
            id: PlatformId::B,
            name: "Slingshot 11 + MI250X",
            gpus_per_node: 8,
            gpu: GpuSpec {
                name: "AMD MI250X (GCD)",
                mem_gib: 64.0,
                hbm_gbps: 1600.0,
                fp32_tflops: 23.9,
                fp64_tflops: 23.9,
                l2_mib: 8.0,
                launch_us: 7.5,
                d2d_gbps: 1200.0,
            },
            net: NetSpec {
                name: "HPE Slingshot 11",
                nic_gbps: 25.0,
                nics_per_node: 4,
                latency_us: 1.8,
            },
            intra: IntraSpec {
                gpu_link_gbps: 100.0, // xGMI inter-GCD
                gpu_link_lat_us: 0.9,
                pcie_gbps: 36.0, // Infinity Fabric host link
                pcie_lat_us: 1.1,
                shm_gbps: 45.0,
                shm_lat_us: 0.5,
                ipc_setup_us: 9.0,
            },
            gasnet: GasnetModel {
                put_o_us: 0.5,
                get_o_us: 0.95,
                gpu_reg_us: 0.9,
                eff: 0.88,
                am_o_us: 0.9,
            },
            gpi: None,
            mpi_p2p: MpiP2pModel {
                eager_max: 8192,
                send_o_us: 1.25,
                recv_o_us: 1.1,
                rndv_hs_us: 1.8,
                eff: 0.78,
            },
            mpi_rma: MpiRmaModel {
                put_o_us: 3.6,
                get_o_us: 5.3,
                flush_us: 1.6,
                per_byte_ns: 1.0,
                put_eff: 0.70,
                get_eff: 0.67,
                win_create_us: 38.0,
            },
            coll: CollModels {
                xccl_name: "RCCL",
                xccl_init_us: 110_000.0,
                mpi_bcast: CollProfile {
                    launch_us: 17.0,
                    hop_us: 1.2,
                    curve: BwCurve::new(vec![(32 << 10, 2.2), (512 << 10, 5.0), (64 << 20, 13.0)]),
                },
                mpi_allreduce: CollProfile {
                    launch_us: 18.0,
                    hop_us: 1.3,
                    curve: BwCurve::new(vec![(128 << 10, 5.2), (2 << 20, 6.0), (64 << 20, 7.5)]),
                },
                // Calibrated to RCCL's measured behaviour (Fig. 6): strong
                // small-message broadcast, weak allreduce with a very high
                // fixed cost -- the paper's "RCCL still has room for
                // further optimization".
                xccl_bcast: CollProfile {
                    launch_us: 6.19,
                    hop_us: 0.0983,
                    curve: BwCurve::new(vec![
                        (32256, 1.75),
                        (129024, 12.738),
                        (516096, 3.577),
                        (1032192, 2.83),
                        (2064384, 4.92),
                        (8257536, 8.891),
                        (16515072, 8.729),
                        (33030144, 10.22),
                        (66060288, 9.676),
                    ]),
                },
                xccl_allreduce: CollProfile {
                    launch_us: 183.17,
                    hop_us: 2.9074,
                    curve: BwCurve::new(vec![
                        (258048, 0.861),
                        (516096, 1.506),
                        (1032192, 1.23),
                        (2064384, 1.403),
                        (4128768, 1.174),
                        (8257536, 1.367),
                        (16515072, 1.448),
                        (33030144, 1.34),
                        (66060288, 2.445),
                        (132120576, 2.733),
                    ]),
                },
            },
            put_anomaly_gbps: None,
            host_memcpy_gbps: 22.0,
        }
    }

    /// Platform C: NDR InfiniBand + GH200 (OpenMPI, NCCL), 1 GPU/node.
    pub fn platform_c() -> PlatformSpec {
        PlatformSpec {
            id: PlatformId::C,
            name: "NDR IB + GH200",
            gpus_per_node: 1,
            gpu: GpuSpec {
                name: "NVIDIA GH200 (H100-96GB)",
                mem_gib: 96.0,
                hbm_gbps: 4000.0,
                fp32_tflops: 67.0,
                fp64_tflops: 34.0,
                l2_mib: 50.0,
                launch_us: 5.0,
                d2d_gbps: 3000.0,
            },
            net: NetSpec {
                name: "NDR InfiniBand",
                nic_gbps: 25.0,
                nics_per_node: 1,
                latency_us: 1.9,
            },
            intra: IntraSpec {
                gpu_link_gbps: 450.0, // NVLink-C2C to the Grace CPU
                gpu_link_lat_us: 0.5,
                pcie_gbps: 450.0,
                pcie_lat_us: 0.5,
                shm_gbps: 90.0,
                shm_lat_us: 0.4,
                ipc_setup_us: 6.0,
            },
            gasnet: GasnetModel {
                put_o_us: 0.8,
                get_o_us: 1.4,
                gpu_reg_us: 1.3,
                eff: 0.97,
                am_o_us: 1.0,
            },
            gpi: Some(GpiModel { put_o_us: 1.2, get_o_us: 1.9, notify_us: 0.6, eff: 0.97 }),
            mpi_p2p: MpiP2pModel {
                eager_max: 4096,
                send_o_us: 1.6,
                recv_o_us: 1.4,
                rndv_hs_us: 2.4,
                eff: 0.62,
            },
            mpi_rma: MpiRmaModel {
                // OpenMPI osc/rdma on GH200: high software path cost
                // (paper Fig. 3c shows 30–100+ µs vs DiOMP's ~6–10 µs).
                put_o_us: 26.0,
                get_o_us: 34.0,
                flush_us: 4.0,
                per_byte_ns: 6.0,
                put_eff: 0.60,
                get_eff: 0.56,
                win_create_us: 70.0,
            },
            coll: CollModels {
                xccl_name: "NCCL",
                xccl_init_us: 80_000.0,
                mpi_bcast: CollProfile {
                    launch_us: 20.0,
                    hop_us: 1.6,
                    curve: BwCurve::new(vec![(32 << 10, 6.0), (512 << 10, 6.5), (64 << 20, 5.5)]),
                },
                mpi_allreduce: CollProfile {
                    launch_us: 24.0,
                    hop_us: 1.8,
                    curve: BwCurve::new(vec![(128 << 10, 5.5), (1 << 20, 6.0), (64 << 20, 8.0)]),
                },
                // Calibrated to NCCL over single-rail NDR IB (Fig. 6).
                xccl_bcast: CollProfile {
                    launch_us: 16.73,
                    hop_us: 1.1155,
                    curve: BwCurve::new(vec![
                        (30720, 1.122),
                        (61440, 0.989),
                        (122880, 1.455),
                        (491520, 3.269),
                        (1966080, 12.768),
                        (7864320, 20.446),
                        (15728640, 24.763),
                        (31457280, 20.324),
                        (62914560, 26.986),
                    ]),
                },
                xccl_allreduce: CollProfile {
                    launch_us: 72.35,
                    hop_us: 4.8231,
                    curve: BwCurve::new(vec![
                        (245760, 2.076),
                        (491520, 1.999),
                        (983040, 2.588),
                        (1966080, 6.033),
                        (3932160, 7.034),
                        (7864320, 8.381),
                        (15728640, 8.116),
                        (31457280, 8.477),
                        (62914560, 7.087),
                        (125829120, 7.21),
                    ]),
                },
            },
            put_anomaly_gbps: None,
            host_memcpy_gbps: 60.0,
        }
    }

    /// All three paper platforms, in figure order.
    pub fn all() -> Vec<PlatformSpec> {
        vec![Self::platform_a(), Self::platform_b(), Self::platform_c()]
    }

    /// Achieved-bandwidth curve of one GASNet-EX device-to-device Put on
    /// this platform (per-op overhead = initiator software + GPU segment
    /// registration; wire = one NIC at the conduit's asymptotic
    /// efficiency). The transport autotuner queries this curve's knee to
    /// size pipeline chunks instead of hard-coding a constant.
    pub fn gasnet_rma_curve(&self) -> BwCurve {
        rma_curve(self.gasnet_op_overhead_us(), self.net.nic_gbps * self.gasnet.eff)
    }

    /// Achieved-bandwidth curve of one GPI-2 notified write (overhead =
    /// write initiation + notification post), when the platform supports
    /// GPI-2 at all (InfiniBand only).
    pub fn gpi_rma_curve(&self) -> Option<BwCurve> {
        self.gpi
            .as_ref()
            .map(|g| rma_curve(self.gpi_op_overhead_us().unwrap(), self.net.nic_gbps * g.eff))
    }

    /// Per-operation initiator overhead of one GASNet-EX device put, µs:
    /// initiator software plus the GPU segment registration / GDR
    /// doorbell. Single source of the formula shared by the RMA curve
    /// synthesis, the pipeline autotuner, and the LL engine's fused-send
    /// hop cost.
    pub fn gasnet_op_overhead_us(&self) -> f64 {
        self.gasnet.put_o_us + self.gasnet.gpu_reg_us
    }

    /// Per-operation initiator overhead of one GPI-2 notified write, µs
    /// (write initiation + notification post), when the platform
    /// supports GPI-2 at all (InfiniBand only).
    pub fn gpi_op_overhead_us(&self) -> Option<f64> {
        self.gpi.as_ref().map(|g| g.put_o_us + g.notify_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_interpolates_geometrically() {
        let c = BwCurve::new(vec![(1024, 1.0), (1 << 20, 10.0)]);
        assert!((c.gbps(512) - 1.0).abs() < 1e-12, "clamps below");
        assert!((c.gbps(2 << 20) - 10.0).abs() < 1e-12, "clamps above");
        let mid = c.gbps(32 << 10); // halfway in log space
        assert!(mid > 3.0 && mid < 3.5, "log-log midpoint ≈ √10, got {mid}");
    }

    #[test]
    fn curve_time_is_monotonic_in_size() {
        let c = BwCurve::new(vec![(1024, 2.0), (1 << 20, 20.0)]);
        let mut last = 0.0;
        for shift in 10..22 {
            let t = c.time_us(1u64 << shift);
            assert!(t > last, "time must grow with size");
            last = t;
        }
    }

    #[test]
    #[should_panic(expected = "sizes must increase")]
    fn curve_rejects_unsorted_points() {
        let _ = BwCurve::new(vec![(2048, 1.0), (1024, 2.0)]);
    }

    #[test]
    fn platforms_have_expected_shapes() {
        let a = PlatformSpec::platform_a();
        let b = PlatformSpec::platform_b();
        let c = PlatformSpec::platform_c();
        assert_eq!(a.gpus_per_node, 4);
        assert_eq!(b.gpus_per_node, 8, "MI250X exposes 2 GCDs per card");
        assert_eq!(c.gpus_per_node, 1);
        assert!(a.put_anomaly_gbps.is_some(), "Fig. 4a anomaly on by default");
        assert!(a.gpi.is_none() && c.gpi.is_some(), "GPI-2 is InfiniBand-only");
    }

    #[test]
    fn knee_sizes_below_first_and_above_last_point_clamp() {
        let c = BwCurve::new(vec![(1024, 1.0), (1 << 20, 10.0)]);
        // Threshold met already at the first point -> clamp low.
        assert_eq!(c.knee_bytes(0.05), 1024);
        // Threshold only met by the asymptote itself -> clamp high.
        assert_eq!(c.knee_bytes(1.0), 1 << 20);
        // Over-unity thresholds cannot be reached; still clamp high.
        assert_eq!(c.knee_bytes(1.5), 1 << 20);
        // Interior crossing inverts the log-log interpolation.
        let knee = c.knee_bytes(0.5);
        assert!(knee > 1024 && knee < (1 << 20));
        assert!((c.gbps(knee) - 5.0).abs() / 5.0 < 0.01, "gbps(knee) ≈ frac × asymptote");
    }

    #[test]
    fn knee_of_single_point_curve_is_that_point() {
        let c = BwCurve::new(vec![(4096, 7.5)]);
        assert_eq!(c.asymptote_gbps(), 7.5);
        for frac in [0.1, 0.9, 1.0, 2.0] {
            assert_eq!(c.knee_bytes(frac), 4096);
        }
    }

    #[test]
    fn knee_handles_non_monotonic_fitted_curves() {
        // A protocol-switch dip (like the fitted NCCL LL->Simple switch):
        // the first crossing of the threshold counts, and the asymptote
        // fallback applies when the dip undercuts every interior segment.
        let c = BwCurve::new(vec![(1024, 1.0), (4096, 8.0), (16384, 2.0), (65536, 10.0)]);
        let knee = c.knee_bytes(0.5);
        assert!(knee > 1024 && knee <= 4096, "first crossing of 5.0 is on the rising edge");
        // 0.95 × 10 = 9.5 is only reached between the dip and the last
        // point; the knee must land there, after the dip.
        let high = c.knee_bytes(0.95);
        assert!(high > 16384 && high <= 65536, "got {high}");
    }

    #[test]
    fn knee_query_is_monotone_in_frac_on_all_platform_curves() {
        // The tuner relies on "higher threshold -> larger (or equal)
        // knee" for every calibrated curve in the tables, including the
        // deliberately non-monotonic fitted collective curves.
        for p in PlatformSpec::all() {
            let mut curves = vec![
                p.gasnet_rma_curve(),
                p.coll.xccl_bcast.curve.clone(),
                p.coll.xccl_allreduce.curve.clone(),
                p.coll.mpi_bcast.curve.clone(),
                p.coll.mpi_allreduce.curve.clone(),
            ];
            curves.extend(p.gpi_rma_curve());
            for c in curves {
                let mut last = 0u64;
                for i in 1..=20 {
                    let k = c.knee_bytes(i as f64 * 0.05);
                    assert!(k >= last, "{}: knee must not shrink as frac grows", p.name);
                    last = k;
                }
            }
        }
    }

    #[test]
    fn rma_curves_differ_across_platforms() {
        // The synthesized conduit curves are what the autotuner reads;
        // they must genuinely reflect each platform's tables.
        let a = PlatformSpec::platform_a().gasnet_rma_curve();
        let c = PlatformSpec::platform_c().gasnet_rma_curve();
        assert_ne!(a.knee_bytes(0.95), c.knee_bytes(0.95));
        assert!(PlatformSpec::platform_a().gpi_rma_curve().is_none());
        let gpi = PlatformSpec::platform_c().gpi_rma_curve().unwrap();
        assert_ne!(gpi.knee_bytes(0.95), c.knee_bytes(0.95), "conduits tune differently");
    }

    #[test]
    fn coll_profile_time_includes_all_terms() {
        let p =
            CollProfile { launch_us: 10.0, hop_us: 2.0, curve: BwCurve::new(vec![(1024, 1.0)]) };
        // 1024 B at 1 GB/s = 1.024 µs; + 10 launch + 3 hops × 2.
        assert!((p.time_us(1024, 3) - (10.0 + 6.0 + 1.024)).abs() < 1e-9);
    }
}
