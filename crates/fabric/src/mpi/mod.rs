//! The MPI baseline: two-sided P2P, one-sided windows, collectives.
//!
//! This is the comparator the paper measures DiOMP against (Cray MPICH on
//! platforms A/B, OpenMPI on C). It is a real protocol implementation —
//! eager/rendezvous matching with posted/unexpected queues, RMA windows
//! with flush/fence synchronisation, binomial/recursive-doubling/ring
//! collectives — whose *costs* come from the calibrated platform model.
//! The structural differences to DiOMP (target-side matching, window
//! synchronisation, per-byte software pipelines, separate memory
//! registration) are what produce the performance gaps of Figs. 3–6.

mod coll;
mod p2p;
mod rma;

pub use coll::ReduceOp;
pub use rma::WinId;

use std::sync::Arc;

use diomp_sim::{EventId, Wait};
use parking_lot::Mutex;

use crate::loc::Loc;
use crate::rendezvous::Rendezvous;
use crate::world::FabricWorld;

/// Wildcard source (`MPI_ANY_SOURCE`) / tag (`MPI_ANY_TAG`) are `None`.
pub(crate) struct Posted {
    pub src: Option<usize>,
    pub tag: Option<u64>,
    pub dst: Loc,
    pub len: u64,
    pub ev: EventId,
}

pub(crate) enum UnexKind {
    /// Eager payload parked in the unexpected queue.
    Eager { data: Option<Vec<u8>>, len: u64 },
    /// Rendezvous ready-to-send awaiting a matching receive.
    Rts { src_loc: Loc, len: u64, sender_ev: EventId },
}

pub(crate) struct Unexpected {
    pub src: usize,
    pub tag: u64,
    pub kind: UnexKind,
}

#[derive(Default)]
pub(crate) struct RankMatch {
    pub posted: Vec<Posted>,
    pub unexpected: Vec<Unexpected>,
}

pub(crate) struct WinPart {
    pub base: Loc,
    pub len: u64,
}

/// Pending origin-side completions, per origin rank.
pub(crate) type PendingByOrigin = Vec<Vec<EventId>>;

pub(crate) struct Window {
    pub parts: Vec<WinPart>,
    pub pending: PendingByOrigin,
}

/// Shared MPI state for a world.
pub struct MpiWorld {
    pub(crate) matching: Vec<Mutex<RankMatch>>,
    pub(crate) windows: Mutex<Vec<Window>>,
    /// Collective window creation: every rank contributes its part, the
    /// last arrival registers the window, everyone leaves with its id.
    pub(crate) win_meet: Rendezvous<WinPart, WinId>,
}

impl MpiWorld {
    pub(crate) fn new(nranks: usize) -> Self {
        MpiWorld {
            matching: (0..nranks).map(|_| Mutex::new(RankMatch::default())).collect(),
            windows: Mutex::new(Vec::new()),
            win_meet: Rendezvous::new(nranks),
        }
    }
}

/// A non-blocking request (`MPI_Request`).
#[derive(Clone, Copy, Debug)]
pub struct MpiReq {
    pub(crate) ev: EventId,
}

/// Per-rank MPI handle — owned by the rank's task, carries the collective
/// sequence number that keeps collective tags aligned across ranks (all
/// ranks must invoke collectives in the same order, as in real MPI).
pub struct MpiRank {
    /// The world this rank communicates in.
    pub world: Arc<FabricWorld>,
    /// This rank's id.
    pub rank: usize,
    pub(crate) coll_seq: u64,
}

impl MpiRank {
    /// Create the per-rank handle (`MPI_Init`).
    pub fn new(world: Arc<FabricWorld>, rank: usize) -> Self {
        assert!(rank < world.nranks);
        MpiRank { world, rank, coll_seq: 0 }
    }

    /// Number of ranks (`MPI_Comm_size`).
    pub fn size(&self) -> usize {
        self.world.nranks
    }

    /// Block until a request completes (`MPI_Wait`).
    pub fn wait(&self, ctx: &mut diomp_sim::Ctx, req: MpiReq) {
        ctx.drain(&[req.ev], Wait::Block).expect("a blocking drain cannot time out");
    }

    /// Block until all requests complete (`MPI_Waitall`).
    pub fn waitall(&self, ctx: &mut diomp_sim::Ctx, reqs: &[MpiReq]) {
        for r in reqs {
            ctx.drain(&[r.ev], Wait::Block).expect("a blocking drain cannot time out");
        }
    }

    /// Barrier over all ranks (`MPI_Barrier`).
    pub fn barrier(&self, ctx: &mut diomp_sim::Ctx) {
        self.world.barrier.arrive_and_wait(ctx, self.rank);
    }
}
