//! # diomp — DiOMP-Offloading, reproduced in Rust
//!
//! Facade crate over the DiOMP-Offloading workspace: a PGAS-based
//! distributed heterogeneous OpenMP runtime (SC'25) rebuilt as a
//! functional virtual-time simulation. See `README.md` for the tour and
//! `DESIGN.md` for the substitution map (what the paper ran on real
//! GPU clusters vs. what this reproduction simulates).
//!
//! ```
//! use diomp::sim::{Sim, Dur};
//! let mut sim = Sim::new();
//! sim.spawn("hello", |ctx| ctx.delay(Dur::micros(1.0)));
//! assert_eq!(sim.run().unwrap().end_time.as_us(), 1.0);
//! ```

#![forbid(unsafe_code)]

pub use diomp_apps as apps;
pub use diomp_core as core;
pub use diomp_device as device;
pub use diomp_fabric as fabric;
pub use diomp_sim as sim;
pub use diomp_xccl as xccl;
