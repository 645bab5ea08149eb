//! # diomp-device — simulated GPU devices
//!
//! The device substrate of the DiOMP-Offloading reproduction: what CUDA /
//! HSA plus `libomptarget`'s device layer provide on real systems.
//!
//! * [`DeviceMem`] / [`FreeListAlloc`] — modelled device memory with
//!   optional real backing ([`DataMode`]).
//! * [`StreamPool`] — lazy, reused, concurrency-bounded streams with
//!   partial synchronisation (paper §3.2).
//! * [`Device`] / [`DeviceTable`] — devices bound to the cluster topology
//!   (HBM, copy engines, PCIe, NVLink/xGMI port, NIC).
//! * [`copy`] — H2D/D2H/D2D-local/D2D-peer/IPC-staged transfers that move
//!   real bytes at modelled times.
//! * [`KernelCost`] — calibrated kernel cost models (GEMM with the D7
//!   cache-efficiency term, memory-bound stencils).
//! * [`MappingTable`] — the libomptarget present table that
//!   `diomp-core`'s target regions extend with a segment offset.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod copy;
mod gpu;
mod kernels;
mod map;
mod memory;
mod stream;

pub use copy::HostBuf;
pub use gpu::{Device, DeviceTable, KernelBody};
pub use kernels::{gemm_efficiency, KernelCost};
pub use map::{HostId, MapEntry, MapKind, MapOutcome, MappingTable};
pub use memory::{DataMode, DeviceMem, FreeListAlloc, MemError};
pub use stream::{sync_device, sync_stream, StreamId, StreamPool, StreamStats, MAX_ACTIVE_STREAMS};
