//! # diomp-apps — evaluation applications
//!
//! The workloads of the paper's §4 evaluation, each in a DiOMP and an
//! MPI+OpenMP variant sharing setup, kernels, and verification:
//!
//! * [`cannon`] — ring matrix multiplication (Fig. 7).
//! * [`minimod`] — acoustic-isotropic wave propagation with halo
//!   exchange (Fig. 8, Listings 1–2).
//! * [`micro`] — point-to-point and collective micro-benchmark drivers
//!   (Figs. 3–6).
//! * [`loc`] — the programmability (lines-of-code) comparison.
//! * [`matgen`] — deterministic inputs and serial references.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cannon;
pub mod loc;
pub mod matgen;
pub mod micro;
pub mod minimod;
pub mod workload;
