//! What crosses the collective gate.
//!
//! A device-side collective starts when *every* participating rank has
//! called it (NCCL semantics: the kernel blocks until peers arrive).
//! The gate itself is a [`diomp_fabric::Rendezvous`] held by the
//! communicator plan: each rank contributes its [`DeviceBuf`]s, and the
//! last arrival's completion rule (`XcclComm::launch`) computes the
//! modelled completion time, schedules the real data movement, and
//! releases everyone at the completion instant — or, when a member died,
//! bounded arrivals withdraw with a [`CollAbort`], before the gate fills
//! or from the runner's bounded park in flight.

use diomp_sim::SimTime;

/// A collective abandoned because a member rank died: before arriving,
/// so the gate can never fill, or while the schedule was in flight.
/// Surviving callers get this instead of a completion time; no buffer
/// byte has been touched — data semantics only ever run when a schedule
/// completes — so the caller can shrink the communicator and re-run the
/// collective from its last checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollAbort {
    /// Virtual time at which the probe confirmed the death.
    pub at: SimTime,
}

/// One device-resident buffer contributed to a collective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceBuf {
    /// Flat device index.
    pub flat: usize,
    /// Offset in the device address space.
    pub off: u64,
}
