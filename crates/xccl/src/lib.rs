//! # diomp-xccl — an NCCL/RCCL-like vendor collective library
//!
//! The substrate under OMPCCL (paper §3.3). Mirrors the structure of
//! NVIDIA NCCL / AMD RCCL:
//!
//! * communicators are bootstrapped from a [`UniqueId`] broadcast over a
//!   CPU-side channel,
//! * initialisation performs topology discovery and builds
//!   bandwidth-optimal rings (node-major order minimises node crossings),
//! * collectives are *device-side*: they operate on device buffers,
//!   launch kernels (fixed launch cost) and execute, by default, as a
//!   **chunk-pipelined ring protocol** over the simulated links
//!   ([`CollEngine::Ring`], the private `ring` module): multi-rail rings,
//!   2(n−1) chunked steps for allreduce, per-edge in-flight windows. The
//!   Fig. 6 curves then emerge from protocol structure; only launch /
//!   per-step / link-efficiency scalars come from the calibrated
//!   [`diomp_sim::CollProfile`] tables,
//! * [`CollEngine::Auto`] layers NCCL's protocol selection on top as a
//!   **four-regime dispatcher** whose boundaries each communicator reads
//!   off its regimes' own schedules ([`XcclComm::price`],
//!   [`XcclComm::auto_regimes`]): small messages run as LL-style fused
//!   payload+flag eager sends over binomial trees (`⌈log2 n⌉` rounds —
//!   the small-size latency dips of Fig. 6); the mid band runs a
//!   chunk-pipelined **double binary tree** ([`CollEngine::Dbt`], two
//!   complementary node-block trees each moving half the payload through
//!   per-node chain leaders — logarithmic depth at the ring's per-NIC
//!   wire load; a broadcast's root feeds each rail through a different
//!   NIC of its node); larger payloads — and all-gather, which has no
//!   latency-bound regime — fall back to the table-tuned ring
//!   ([`RingConfig::auto`]) unchanged, unless the communicator carries
//!   dedicated **reduction servers** ([`CommOpts::servers`],
//!   [`CollEngine::ReductionServer`]): above their cut the allreduce
//!   offloads onto the server ranks — each client NIC moves every byte
//!   once instead of `2(n−1)/n` times, and the fold leaves the client
//!   ranks entirely.
//!
//! Collective calls are rank-collective: every participating rank calls
//! the same operation in the same order; the data results are computed on
//! the real buffer bytes (Functional mode) so correctness is testable
//! against sequential references.
//!
//! Resource-charging note: with the default ring engine, collectives
//! charge the simulator's NIC and GPU-fabric port resources chunk by
//! chunk, so concurrent rails and concurrent collectives contend like the
//! MPI baseline does. The legacy [`CollEngine::Profile`] path instead
//! prices the whole collective with the calibrated achieved-bandwidth
//! curve (which already encodes contention as measured for the vendor
//! library) and touches no link resources; it is kept behind the config
//! flag for ablation against the emergent curves.
//!
//! Every engine has the same shape — **gate → regime → generator →
//! driver → fold**: the gate (a [`diomp_fabric::Rendezvous`] shared
//! through the communicator plan) fills, the last arriver resolves
//! the engine selector into one regime, that regime's generator emits a
//! chunk-send schedule, one runner marches it (launch delay, the shared
//! drivers, one receive-side step), and one sequential fold writes the
//! bytes at the completion instant. LL hops are sends in that schedule
//! like any chunk, so QoS flow accounting, weighted-fair contention and
//! fault perturbation cover them too. The one exception is
//! [`CollEngine::Profile`], which runs no schedule.
//!
//! # Ring protocol walkthrough
//!
//! What happens inside one allreduce under [`CollEngine::Ring`]:
//!
//! 1. **Rail construction** (at [`XcclComm::init`]): devices are laid
//!    out node-major; rail *r* rotates each node's block left by *r*, so
//!    every rail exits a node on a different device — and therefore a
//!    different NIC. `nrings = min(nics_per_node, devs_per_node)` rails
//!    split the payload and aggregate NIC bandwidth, as NCCL does.
//! 2. **Gate**: every participating rank calls
//!    [`XcclComm::collective`], which is one arrival at the plan's
//!    rendezvous with the rank's [`DeviceBuf`]s; the *last* arriving
//!    rank's task drives the whole schedule as the rendezvous'
//!    completion rule (collectives are synchronising, so this costs no
//!    extra parallelism).
//! 3. **Schedule**: allreduce = reduce-scatter then allgather, `2(n−1)`
//!    steps; broadcast/reduce/allgather run `n−1` chain steps. Each
//!    payload is cut into `RingConfig::chunk_bytes` chunks; a chunk's
//!    send on edge *e* is enabled by the same chunk's arrival on edge
//!    *e−1*, with at most `RingConfig::max_inflight` chunks outstanding
//!    per edge. The last arriver marches it without a kernel event
//!    per chunk.
//! 4. **Data semantics**: at the modelled completion instant the real
//!    buffer bytes are combined by [`XcclOp::apply`] — the sequential
//!    fold over the ring-ordered buffers, the same for every engine —
//!    so Functional-mode tests verify against sequential references on
//!    any data, floats included.
//!
//! # Example: a 4-device allreduce through the simulator
//!
//! ```
//! use std::sync::Arc;
//! use diomp_device::{DataMode, DeviceTable};
//! use diomp_fabric::{FabricWorld, ReduceOp};
//! use diomp_sim::{ClusterSpec, PlatformSpec, Sim, Topology};
//! use diomp_xccl::{CommOpts, DeviceBuf, UniqueId, XcclComm, XcclOp};
//!
//! let mut sim = Sim::new();
//! let spec = ClusterSpec { platform: PlatformSpec::platform_a(), nodes: 1, gpus_per_node: 4 };
//! let topo = Arc::new(Topology::build(&sim.handle(), spec));
//! let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::Functional, Some(1 << 20));
//! let world = FabricWorld::new(topo, devs, 4);
//! let id = UniqueId::generate();
//!
//! for r in 0..4usize {
//!     let world = world.clone();
//!     sim.spawn(format!("rank{r}"), move |ctx| {
//!         // Root generates the id; everyone receives it via bootstrap —
//!         // the CPU-side channel NCCL calls the "unique id broadcast".
//!         let bits = world.bootstrap.exchange(ctx, r, if r == 0 { id.bits() } else { 0 })[0];
//!         let comm = XcclComm::init(
//!             ctx,
//!             &world,
//!             vec![0, 1, 2, 3],
//!             r,
//!             UniqueId::from_bits(bits),
//!             CommOpts::default(),
//!         );
//!         let dev = world.primary_dev(r);
//!         let off = dev.malloc(64, 256).unwrap();
//!         let vals: Vec<u8> = std::iter::repeat((r + 1) as f64)
//!             .take(8)
//!             .flat_map(|v| v.to_le_bytes())
//!             .collect();
//!         dev.mem.write(off, &vals).unwrap();
//!         comm.collective(
//!             ctx,
//!             r,
//!             vec![DeviceBuf { flat: r, off }],
//!             XcclOp::AllReduce { op: ReduceOp::SumF64 },
//!             64,
//!         );
//!         let mut out = vec![0u8; 64];
//!         dev.mem.read(off, &mut out).unwrap();
//!         for c in out.chunks_exact(8) {
//!             assert_eq!(f64::from_le_bytes(c.try_into().unwrap()), 10.0); // 1+2+3+4
//!         }
//!     });
//! }
//! sim.run().unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod comm;
mod dbt;
mod drive;
mod gate;
mod ll;
mod ops;
mod ring;
mod rserver;
mod tree;
mod unique_id;

pub use comm::{CommOpts, RingInfo, XcclComm};
pub use gate::{CollAbort, DeviceBuf};
pub use ll::AutoConfig;
pub use ops::XcclOp;
pub use ring::{default_nrings, CollEngine, RingConfig};
pub use rserver::ServerSpec;
pub use unique_id::UniqueId;

pub use diomp_sim::QosClass;
