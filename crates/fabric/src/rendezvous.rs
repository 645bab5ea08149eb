//! The one rendezvous under barriers, exchanges, collective gates and
//! window creation.
//!
//! `n` participants each arrive once per *episode* with a contribution;
//! the arrival that fills the episode decides when it completes and
//! what everyone takes away. What differs between the users is only the
//! payload and that completion rule — a barrier contributes nothing and
//! completes ⌈log2 n⌉ hops later, an exchange hands everyone all the
//! contributions, a device collective runs its whole schedule inside
//! the rule — so the protocol is written here, once.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use diomp_sim::{BoardId, Ctx, Dur, SimTime, Wait, WaitTimeout};

struct Episode<T, R> {
    seq: u64,
    /// Contributions by participant index (taken by the arrival that
    /// fills the episode).
    slots: Vec<Option<T>>,
    arrived: usize,
    /// Participants still inside `arrive` (the last one out retires the
    /// episode).
    inside: usize,
    /// The boards of the participants that parked, in the order of each
    /// one's most recent park: the order the completion posts them in.
    parked: Rc<RefCell<Vec<BoardId>>>,
    /// What the filling arrival's completion rule handed out.
    result: Option<R>,
    /// A bounded arrival withdrew after its `dead` probe confirmed the
    /// episode can never fill; later arrivals open a fresh one.
    abandoned: bool,
}

/// A reusable rendezvous of `n` participants contributing `T` and
/// taking away `R`.
///
/// Episodes are queued: a fast participant may re-enter (the next
/// episode) while slow participants are still leaving the previous one —
/// exactly what back-to-back barriers in an application do.
pub struct Rendezvous<T, R> {
    n: usize,
    episodes: RefCell<VecDeque<Episode<T, R>>>,
    /// Sequence number of the next episode to open.
    next_seq: Cell<u64>,
    /// Each participant's board, created at its first arrival. A
    /// completed episode posts id 0 of every participant's board once.
    boards: RefCell<Vec<Option<BoardId>>>,
}

impl<T, R: Clone> Rendezvous<T, R> {
    /// Rendezvous over `n` participants.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        Rendezvous {
            n,
            episodes: RefCell::new(VecDeque::new()),
            next_seq: Cell::new(0),
            boards: RefCell::new(vec![None; n]),
        }
    }

    /// Arrive as participant `idx` with `value`, joining the newest open
    /// episode or opening a fresh one; a participant arriving twice in
    /// one episode is a caller bug and panics. The arrival that fills
    /// the episode calls `finish` once — with the episodes not borrowed,
    /// and in task context, so it may charge time — with every contribution in
    /// participant order; it returns the completion instant and the
    /// result each participant leaves with at that instant.
    ///
    /// With [`Wait::Block`] a call cannot fail — one post, one park per
    /// participant. With [`Wait::Until`] each park is bounded: when the
    /// deadline fires before the episode fills, `dead` is consulted (the
    /// caller's health probe). If it confirms the episode can never fill
    /// the arrival is withdrawn — the episode is marked abandoned, the
    /// contributions are dropped untouched — and the timeout is
    /// returned. Otherwise the participant re-parks for another budget:
    /// a slow peer is a straggler, not a corpse. An episode that already
    /// filled is never abandoned, even while `finish` is still charging
    /// time: everyone reached it, so it completes normally.
    pub fn arrive(
        &self,
        ctx: &mut Ctx,
        idx: usize,
        value: T,
        wait: Wait,
        mut dead: impl FnMut(&mut Ctx) -> bool,
        finish: impl FnOnce(&mut Ctx, Vec<T>) -> (SimTime, R),
    ) -> Result<R, WaitTimeout> {
        assert!(idx < self.n);
        let board = *self.boards.borrow_mut()[idx].get_or_insert_with(|| ctx.new_board());
        // One borrow per arrival: join (or open) the episode, and if this
        // arrival fills it, take every contribution out with it.
        let (seq, parked, filled) = {
            let mut eps = self.episodes.borrow_mut();
            if eps.back().is_none_or(|e| e.arrived == self.n || e.abandoned) {
                let seq = self.next_seq.get();
                self.next_seq.set(seq + 1);
                eps.push_back(Episode {
                    seq,
                    slots: (0..self.n).map(|_| None).collect(),
                    arrived: 0,
                    inside: 0,
                    parked: Rc::default(),
                    result: None,
                    abandoned: false,
                });
            }
            let ep = eps.back_mut().expect("an open episode");
            assert!(ep.slots[idx].is_none(), "participant {idx} arrived twice at a rendezvous");
            ep.slots[idx] = Some(value);
            ep.arrived += 1;
            ep.inside += 1;
            let filled = (ep.arrived == self.n).then(|| std::mem::take(&mut ep.slots));
            (ep.seq, ep.parked.clone(), filled)
        };
        if let Some(slots) = filled {
            let all = slots.into_iter().map(|s| s.expect("a full episode")).collect();
            let (done, result) = finish(ctx, all);
            self.with_episode(seq, |ep| ep.result = Some(result));
            let parked = parked.clone();
            ctx.schedule_at(done, move |h| {
                for &b in parked.borrow().iter() {
                    h.board_post(b, 0, seq);
                }
            });
        }
        parked.borrow_mut().push(board);
        while ctx.board_waitsome(board, 0, 1, wait).is_err() {
            // Full by arrival count, not by result: the filling arrival
            // may still be inside `finish` (virtual time passes while it
            // prices and schedules), and the deadline then only means
            // the episode outlives the budget. Re-park.
            let filled = self.with_episode(seq, |ep| ep.arrived == self.n);
            if !filled && dead(ctx) {
                self.leave(seq, true);
                return Err(WaitTimeout { at: ctx.now() });
            }
            // Most recent park last: the re-park moves this board to the end.
            let mut order = parked.borrow_mut();
            order.retain(|&b| b != board);
            order.push(board);
        }
        Ok(self.leave(seq, false).expect("episode completed without a result"))
    }

    fn with_episode<O>(&self, seq: u64, f: impl FnOnce(&mut Episode<T, R>) -> O) -> O {
        f(self.episodes.borrow_mut().iter_mut().find(|e| e.seq == seq).expect("episode vanished"))
    }

    /// One participant out, taking the result with it. The last one out
    /// retires the episode: a completed episode has posted every board
    /// and each participant consumed its post, and an abandoned one was
    /// never filled, so nothing is left posted either way.
    fn leave(&self, seq: u64, abandon: bool) -> Option<R> {
        let mut eps = self.episodes.borrow_mut();
        let pos = eps.iter().position(|e| e.seq == seq).expect("episode vanished");
        let ep = &mut eps[pos];
        ep.abandoned |= abandon;
        ep.inside -= 1;
        if ep.inside > 0 {
            return ep.result.clone();
        }
        eps.remove(pos).expect("position just found").result
    }
}

/// The instant `hops` network latencies of `hop` after now — the
/// fan-in / fan-out cost of the dissemination-style completion rules.
pub(crate) fn after_hops(ctx: &Ctx, hop: Dur, hops: u32) -> SimTime {
    ctx.now() + Dur::nanos(hop.as_nanos() * u64::from(hops))
}

/// ⌈log2 n⌉.
pub(crate) fn log2_ceil(n: usize) -> u32 {
    usize::BITS - (n - 1).leading_zeros()
}
