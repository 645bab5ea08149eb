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

use std::cell::RefCell;
use std::rc::Rc;

use diomp_sim::{BoardId, Ctx, SimHandle, SimTime, Wait};

use crate::loc::Loc;
use crate::rendezvous::Rendezvous;
use crate::world::FabricWorld;

/// Wildcard source (`MPI_ANY_SOURCE`) / tag (`MPI_ANY_TAG`) are `None`.
pub(crate) struct Posted {
    pub src: Option<usize>,
    pub tag: Option<u64>,
    pub dst: Loc,
    pub len: u64,
    pub done: Post,
}

pub(crate) enum UnexKind {
    /// Eager payload parked in the unexpected queue.
    Eager { data: Option<Vec<u8>>, len: u64 },
    /// Rendezvous ready-to-send awaiting a matching receive.
    Rts { src_loc: Loc, len: u64, sender: Post },
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
    /// The rank's board, created at its first request that needs one.
    board: Option<BoardId>,
    /// The id the next such request takes on it.
    next_id: u32,
}

impl RankMatch {
    /// A fresh id on this rank's board, for a request whose completion
    /// instant is not known at issue.
    pub(crate) fn new_post(&mut self, h: &SimHandle) -> Post {
        let board = *self.board.get_or_insert_with(|| h.new_board());
        let id = self.next_id;
        self.next_id = id.wrapping_add(1);
        Post { board, id }
    }
}

/// A request's completion that is not known at issue: an id on its
/// rank's board, posted by whichever side completes it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Post {
    board: BoardId,
    id: u32,
}

impl Post {
    /// Complete the request at `t` (not before now).
    pub(crate) fn post_at(self, h: &SimHandle, t: SimTime) {
        h.schedule_at(t, move |h| h.board_post(self.board, self.id, 1));
    }
}

pub(crate) struct WinPart {
    pub base: Loc,
    pub len: u64,
}

/// Pending origin-side completion instants, per origin rank.
pub(crate) type PendingByOrigin = Vec<Vec<SimTime>>;

pub(crate) struct Window {
    pub parts: Vec<WinPart>,
    pub pending: PendingByOrigin,
}

/// Shared MPI state for a world.
pub(crate) struct MpiWorld {
    pub(crate) matching: Vec<RefCell<RankMatch>>,
    pub(crate) windows: RefCell<Vec<Window>>,
    /// Collective window creation: every rank contributes its part, the
    /// last arrival registers the window, everyone leaves with its id.
    pub(crate) win_meet: Rendezvous<WinPart, WinId>,
}

impl MpiWorld {
    pub(crate) fn new(nranks: usize) -> Self {
        MpiWorld {
            matching: (0..nranks).map(|_| RefCell::new(RankMatch::default())).collect(),
            windows: RefCell::new(Vec::new()),
            win_meet: Rendezvous::new(nranks),
        }
    }
}

/// A non-blocking request (`MPI_Request`): its completion instant when
/// that was known at issue, else the post that completes it.
#[derive(Clone, Copy, Debug)]
pub struct MpiReq(pub(crate) Done);

#[derive(Clone, Copy, Debug)]
pub(crate) enum Done {
    At(SimTime),
    Posted(Post),
}

/// Per-rank MPI handle — owned by the rank's task, carries the collective
/// sequence number that keeps collective tags aligned across ranks (all
/// ranks must invoke collectives in the same order, as in real MPI).
pub struct MpiRank {
    /// The world this rank communicates in.
    pub world: Rc<FabricWorld>,
    /// This rank's id.
    pub rank: usize,
    pub(crate) coll_seq: u64,
}

impl MpiRank {
    /// Create the per-rank handle (`MPI_Init`).
    pub fn new(world: Rc<FabricWorld>, rank: usize) -> Self {
        assert!(rank < world.nranks);
        MpiRank { world, rank, coll_seq: 0 }
    }

    /// Number of ranks (`MPI_Comm_size`).
    pub fn size(&self) -> usize {
        self.world.nranks
    }

    /// Block until a request completes (`MPI_Wait`).
    pub fn wait(&self, ctx: &mut Ctx, req: MpiReq) {
        match req.0 {
            Done::At(t) => ctx.wait_until(t, Wait::Block),
            Done::Posted(p) => ctx.board_waitsome(p.board, p.id, 1, Wait::Block).map(drop),
        }
        .expect("a blocking wait cannot time out");
    }

    /// Block until all requests complete (`MPI_Waitall`).
    pub fn waitall(&self, ctx: &mut Ctx, reqs: &[MpiReq]) {
        for &r in reqs {
            self.wait(ctx, r);
        }
    }

    /// Barrier over all ranks (`MPI_Barrier`).
    pub fn barrier(&self, ctx: &mut Ctx) {
        self.world.barrier.arrive_and_wait(ctx, self.rank);
    }
}
