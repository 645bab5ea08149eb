//! # diomp-core — the DiOMP-Offloading runtime
//!
//! The paper's primary contribution: a unified runtime that fuses PGAS
//! global memory, OpenMP target offloading, and portable device-side
//! collectives (OMPCCL).
//!
//! * [`DiompRuntime::run`] boots a simulated job; every rank gets a
//!   [`DiompRank`] carrying the `ompx_*` API.
//! * Global memory: collective symmetric allocation with O(1) offset
//!   translation ([`DiompRank::alloc_sym`]), asymmetric allocation via
//!   32-byte second-level pointers with a remote-pointer cache
//!   ([`DiompRank::alloc_asym`]), over linear or buddy heap strategies.
//! * RMA: `ompx_put` / `ompx_get` with topology-aware hierarchical path
//!   selection (conduit / IPC / GPUDirect P2P / local).
//! * Synchronisation: `ompx_fence` (hybrid network+stream completion)
//!   and group-scoped `ompx_barrier`.
//! * Groups: `ompx_group_t` with split and merge recomposition.
//! * OMPCCL: `ompx_bcast` / `ompx_allreduce` / `ompx_reduce` /
//!   `ompx_allgather` over NCCL/RCCL-like backends.
//! * Target regions: mapped allocations intercepted into the global
//!   segment (mapping-table rows gain `Seg_offset`, Fig. 1b).
//!
//! ```
//! use diomp_core::{DiompConfig, DiompRuntime};
//! use diomp_sim::PlatformSpec;
//!
//! let cfg = DiompConfig::on_platform(PlatformSpec::platform_a(), 2);
//! DiompRuntime::run(cfg, |ctx, rank| {
//!     let ptr = rank.alloc_sym(ctx, 4096).unwrap();
//!     let peer = (rank.rank + 1) % rank.nranks();
//!     rank.put(ctx, peer, ptr, 0, ptr, 0, 1024).unwrap();
//!     rank.fence(ctx);
//!     rank.barrier(ctx);
//! })
//! .unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod error;
pub mod galloc;
mod gptr;
mod group;
mod job;
mod notify;
mod ompccl;
pub mod recovery;
mod rma;
mod runtime;
mod sync;
mod target;
pub mod tune;

pub use config::{Binding, Conduit, DiompConfig, DiompConfigBuilder, PipelineConfig};
pub use diomp_xccl::{
    default_nrings, AutoConfig, CollEngine, CommOpts, DeviceBuf, QosClass, RingConfig, ServerSpec,
    UniqueId, XcclComm, XcclOp,
};
pub use error::DiompError;
pub use galloc::{AllocKind, BuddyAlloc, LinearAlloc, PtrCache, WRAPPER_BYTES};
pub use gptr::{AsymPtr, GPtr};
pub use group::{group_merge, group_split, DiompGroup, GroupRegistry, GroupShared};
pub use job::JobSpec;
pub use recovery::{survivors, BufSpec, Checkpoint, RecoveryConfig};
pub use runtime::{DiompRank, DiompRuntime, DiompShared};
pub use sync::FenceTimeout;
pub use target::DiompTarget;
pub use tune::{TuneTable, Tuner};

// Re-export the pieces apps need without importing every crate.
pub use diomp_fabric::{FabricError, HealthVec, RankHealth, ReduceOp};
