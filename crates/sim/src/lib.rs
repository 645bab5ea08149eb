//! # diomp-sim — deterministic cluster simulator
//!
//! The substrate under the DiOMP-Offloading reproduction: a sequential,
//! deterministic discrete-event simulator in which the ranks of a
//! distributed job run as cooperative fibers, all on the thread that calls
//! [`Sim::run`], against a virtual clock. The fibers switch stacks in
//! x86_64 assembly over Linux `mmap`: x86_64 Linux is the supported host.
//!
//! * [`Sim`] / [`SimHandle`] / [`Ctx`] — the event kernel: spawn tasks,
//!   wait on [`BoardId`] posts, [`CqId`] completion queues or a known
//!   completion instant under a [`Wait`], advance virtual time, schedule
//!   one-sided deposits.
//! * [`ResourceId`] — FIFO bandwidth resources modelling NICs and links.
//! * [`Topology`] / [`ClusterSpec`] — instantiated cluster fabrics.
//! * [`PlatformSpec`] — calibrated models of the paper's three systems
//!   (A100+Slingshot, MI250X+Slingshot, GH200+NDR IB).
//!
//! ```
//! use diomp_sim::{Dur, Sim, Wait};
//!
//! let mut sim = Sim::new();
//! let h = sim.handle();
//! let board = h.new_board();
//! sim.spawn("producer", move |ctx| {
//!     ctx.delay(Dur::micros(5.0));
//!     ctx.board_post(board, 0, 42);
//! });
//! sim.spawn("consumer", move |ctx| {
//!     let got = ctx.board_waitsome(board, 0, 1, Wait::Block);
//!     assert_eq!(got.expect("a blocking wait cannot time out"), (0, 42));
//!     assert_eq!(ctx.now().as_us(), 5.0);
//! });
//! sim.run().unwrap();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

mod board;
mod ctx;
mod event;
mod fault;
#[allow(unsafe_code)]
mod fiber;
mod kernel;
mod platform;
mod qos;
mod resource;
mod rng;
mod stats;
mod task;
mod time;
mod topology;

pub use board::BoardId;
pub use ctx::{Ctx, Wait, WaitTimeout};
pub use event::CqId;
pub use fault::{fault_key, CtrlFault, FaultPlan};
pub use kernel::{Action, Reservations, Sim, SimError, SimHandle, SimReport};
pub use platform::{
    BwCurve, CollModels, CollProfile, GasnetModel, GpiModel, GpuSpec, IntraSpec, MpiP2pModel,
    MpiRmaModel, NetSpec, PlatformId, PlatformSpec,
};
pub use qos::{FlowId, FlowStats, QosClass};
pub use resource::{gbps, ResourceId, Transfer};
pub use rng::{derive_seed, rng_for};
pub use stats::{bandwidth_gbps, Meter};
pub use task::TaskId;
pub use time::{Dur, SimTime};
pub use topology::{ClusterSpec, DevLoc, Placement, Topology};
