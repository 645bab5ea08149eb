//! # diomp-sim — deterministic cluster simulator
//!
//! The substrate under the DiOMP-Offloading reproduction: a sequential,
//! deterministic discrete-event simulator in which the ranks of a
//! distributed job run as cooperative OS threads against a virtual clock.
//!
//! * [`Sim`] / [`SimHandle`] / [`Ctx`] — the event kernel: spawn tasks,
//!   wait on [`EventId`]s under a [`Wait`], advance virtual time,
//!   schedule one-sided completion actions.
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
//! let ev = h.new_event();
//! sim.spawn("producer", move |ctx| {
//!     ctx.delay(Dur::micros(5.0));
//!     ctx.complete(ev);
//! });
//! sim.spawn("consumer", move |ctx| {
//!     ctx.wait_all(&[ev], Wait::Block).expect("a blocking wait cannot time out");
//!     assert_eq!(ctx.now().as_us(), 5.0);
//! });
//! sim.run().unwrap();
//! ```

#![warn(missing_docs)]

mod board;
mod ctx;
mod event;
mod fault;
mod kernel;
mod platform;
mod qos;
mod resource;
mod rng;
mod stats;
mod task;
mod time;
mod topology;
mod trace;

pub use board::BoardId;
pub use ctx::{Ctx, Wait, WaitTimeout};
pub use event::EventId;
pub use fault::{fault_key, CtrlFault, FaultPlan};
pub use kernel::{Action, Reservations, Sim, SimError, SimHandle, SimReport};
pub use platform::{
    BwCurve, CollModels, CollProfile, GasnetModel, GpiModel, GpuSpec, IntraSpec, MpiP2pModel,
    MpiRmaModel, NetSpec, PlatformId, PlatformSpec,
};
pub use qos::{FlowId, FlowStats, QosClass};
pub use resource::{gbits, gbps, ResourceId, Transfer};
pub use rng::{derive_seed, rng_for};
pub use stats::{bandwidth_gbps, Meter};
pub use task::TaskId;
pub use time::{Dur, SimTime};
pub use topology::{ClusterSpec, DevLoc, Placement, Topology};
pub use trace::TraceRec;
