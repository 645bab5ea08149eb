//! # diomp-fabric — communication substrates
//!
//! The three communication layers the paper builds on or compares with:
//!
//! * [`gasnet`] — a GASNet-EX-like conduit (segments, one-sided Put/Get
//!   with events, active messages): DiOMP's default middleware.
//! * [`gpi`] — a GPI-2-like conduit (queues, ranged notifications): the
//!   InfiniBand alternative of Fig. 5.
//! * [`mpi`] — the full MPI baseline (eager/rendezvous P2P with match
//!   queues, RMA windows, binomial/recursive-doubling/ring collectives).
//!
//! All three run over the same modelled links ([`path`]) and the same
//! simulated devices, so their performance differences come from
//! *protocol structure* and the calibrated per-middleware software costs.
//!
//! # Segments, queues, and completion signalling
//!
//! A [`FabricWorld`] holds the job-wide conduit state: every rank
//! *attaches* segments ([`FabricWorld::attach_device_segment`]) — pinned
//! regions of device memory that remote ranks may target with one-sided
//! operations by `(SegmentId, offset)`, never by raw pointer and never
//! past the registered extent ([`Segment::range`]). What a one-sided
//! transfer *is* — bounds, initiator software, path reservation, byte
//! movement, acknowledgement — is written once, in the private `wire`
//! module; each middleware adds its addressing, its price list and its
//! completion bookkeeping. On top of that shared substrate the two PGAS
//! conduits expose different completion models:
//!
//! * **GASNet-EX** tracks each operation with *events*: `put_nb` returns
//!   local/remote completion [`diomp_sim::EventId`]s the initiator
//!   waits on. The target learns nothing unless an active message is
//!   sent.
//! * **GPI-2 (GASPI)** orders completions on initiator-side *queues*
//!   ([`gpi::QueueId`], drained by `gpi::wait_queue`) and signals
//!   *targets* with lightweight **notifications**: a
//!   [`gpi::write_notify`] makes `(id, value)` visible on the target's
//!   notification board strictly after the payload, and the target
//!   blocks on a whole id *range* with [`gpi::notify_waitsome`] — one
//!   park, no per-id polling — then consumes atomically.
//!
//! # GASNet-EX ↔ GPI-2 semantics map
//!
//! | concept                | GASNet-EX (here)            | GPI-2 / GASPI (here)                      |
//! |------------------------|-----------------------------|-------------------------------------------|
//! | registered memory      | segment (`attach_*`)        | segment (same [`SegmentId`] space)        |
//! | one-sided write        | `gasnet::put_nb`            | [`gpi::write`]                            |
//! | one-sided read         | `gasnet::get_nb`            | [`gpi::read`]                             |
//! | initiator completion   | per-op events (`Ctx::drain`) | per-queue lists ([`gpi::wait_queue`])    |
//! | bulk drain             | `Ctx::wait_all` over events | [`gpi::wait_all_queues`]                  |
//! | target-side signal     | active message ([`gasnet::am_request`]) | notification ([`gpi::write_notify`]) |
//! | target-side wait       | AM handler side effects     | [`gpi::notify_waitsome`] / [`gpi::notify_wait`] |
//! | signal consumption     | n/a (handler runs once)     | [`gpi::notify_reset`] (atomic take)       |
//! | fault visibility       | conduit aborts              | `gaspi_state_vec`: [`HealthVec`] ([`FabricWorld::health`]) |
//! | queue recovery         | n/a                         | `gaspi_queue_purge`: [`gpi::queue_purge`] after [`FabricError::QueueError`] |
//!
//! **Bounded waits.** Every GASPI waiting primitive takes a timeout
//! argument — `GASPI_BLOCK` to wait forever, `GASPI_TIMEOUT(ms)` for a
//! deadline. The reproduction mirrors that shape *once*, with one
//! parameter type instead of parallel `_timeout` entry points:
//! [`gpi::wait_queue`], [`gpi::wait_all_queues`] and
//! [`gpi::notify_waitsome`] all take a [`diomp_sim::Wait`] —
//! [`diomp_sim::Wait::Block`] maps to `GASPI_BLOCK` (cannot fail),
//! [`diomp_sim::Wait::Until`] maps to `GASPI_TIMEOUT` and surfaces
//! [`FabricError::Timeout`] with the partial state preserved (completed
//! queue entries retired, survivors re-queued; unconsumed notifications
//! left posted). GASNet-EX events have no native bounded wait; the
//! equivalent discipline is `Ctx::drain` over the event set — the same
//! call the queue waits are built on.
//!
//! **Rendezvous.** Everything collective on the CPU side — barriers
//! ([`BarrierDomain`]), bootstrap all-gathers ([`ExchangeDomain`]), MPI
//! window creation, and the device-collective gate in `diomp-xccl` — is
//! one episode protocol, [`Rendezvous`], plus a payload and a
//! completion rule.
//!
//! # Example: notified write, driven through the simulator
//!
//! A two-node InfiniBand world where rank 0 writes 64 bytes into rank
//! 1's segment with notification id 5; rank 1 blocks on the id range
//! `[0, 8)` and sees the payload the moment the notification fires:
//!
//! ```
//! use std::sync::Arc;
//! use diomp_device::{DataMode, DeviceTable};
//! use diomp_fabric::{gpi, FabricWorld, Loc};
//! use diomp_sim::{ClusterSpec, PlatformSpec, Sim, Topology, Wait};
//!
//! let mut sim = Sim::new();
//! let spec = ClusterSpec { platform: PlatformSpec::platform_c(), nodes: 2, gpus_per_node: 1 };
//! let topo = Arc::new(Topology::build(&sim.handle(), spec));
//! let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::Functional, Some(1 << 20));
//! let world = FabricWorld::new(topo, devs, 2);
//!
//! let seg = world.attach_device_segment(1, 1, 1 << 16).unwrap();
//! let w0 = world.clone();
//! sim.spawn("rank0", move |ctx| {
//!     w0.primary_dev(0).mem.write(0, &[7u8; 64]).unwrap();
//!     gpi::write_notify(ctx, &w0, 0, gpi::QueueId(0), Loc::dev(0, 0), seg, 0, 64, 5, 42)
//!         .unwrap();
//!     // Initiator-side completion: GASPI_BLOCK cannot time out.
//!     gpi::wait_queue(ctx, &w0, 0, gpi::QueueId(0), Wait::Block).unwrap();
//! });
//! let w1 = world.clone();
//! sim.spawn("rank1", move |ctx| {
//!     let (id, value) = gpi::notify_waitsome(ctx, &w1, 1, 0, 8, Wait::Block).unwrap();
//!     assert_eq!((id, value), (5, 42));
//!     let bytes = w1.segment(seg).range(0, 64).unwrap().snapshot(&w1.devs, 64).unwrap().unwrap();
//!     assert_eq!(bytes, vec![7u8; 64]); // payload landed before the notification
//! });
//! sim.run().unwrap();
//! ```

#![warn(missing_docs)]

mod barrier;
mod error;
mod exchange;
pub mod gasnet;
pub mod gpi;
mod health;
mod loc;
pub mod mpi;
pub mod path;
mod rendezvous;
mod segment;
mod wire;
mod world;

pub use barrier::BarrierDomain;
pub use error::FabricError;
pub use exchange::ExchangeDomain;
pub use health::{HealthVec, RankHealth};
pub use loc::Loc;
pub use mpi::{MpiRank, MpiReq, ReduceOp, WinId};
pub use path::{End, PathTimes};
pub use rendezvous::Rendezvous;
pub use segment::{Segment, SegmentId};
pub use world::FabricWorld;
