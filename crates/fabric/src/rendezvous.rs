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

use std::cell::RefCell;
use std::collections::VecDeque;

use diomp_sim::{Ctx, Dur, EventId, SimTime, Wait, WaitTimeout};

struct Episode<T, R> {
    ev: EventId,
    /// Contributions by participant index (taken by the arrival that
    /// fills the episode).
    slots: Vec<Option<T>>,
    arrived: usize,
    /// Participants still inside `arrive` (for event recycling).
    inside: usize,
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
}

impl<T, R: Clone> Rendezvous<T, R> {
    /// Rendezvous over `n` participants.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        Rendezvous { n, episodes: RefCell::new(VecDeque::new()) }
    }

    /// Arrive as participant `idx` with `value`, joining the newest open
    /// episode or opening a fresh one; a participant arriving twice in
    /// one episode is a caller bug and panics. The arrival that fills
    /// the episode calls `finish` once — with the episodes not borrowed,
    /// and in task context, so it may charge time — with every contribution in
    /// participant order; it returns the completion instant and the
    /// result each participant leaves with at that instant.
    ///
    /// With [`Wait::Block`] a call cannot fail — one event, one park per
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
        // One borrow per arrival: join (or open) the episode, and if this
        // arrival fills it, take every contribution out with it.
        let (ev, filled) = {
            let mut eps = self.episodes.borrow_mut();
            if eps.back().is_none_or(|e| e.arrived == self.n || e.abandoned) {
                eps.push_back(Episode {
                    ev: ctx.new_event(),
                    slots: (0..self.n).map(|_| None).collect(),
                    arrived: 0,
                    inside: 0,
                    result: None,
                    abandoned: false,
                });
            }
            let ep = eps.back_mut().expect("an open episode");
            assert!(ep.slots[idx].is_none(), "participant {idx} arrived twice at a rendezvous");
            ep.slots[idx] = Some(value);
            ep.arrived += 1;
            ep.inside += 1;
            (ep.ev, (ep.arrived == self.n).then(|| std::mem::take(&mut ep.slots)))
        };
        if let Some(slots) = filled {
            let all = slots.into_iter().map(|s| s.expect("a full episode")).collect();
            let (done, result) = finish(ctx, all);
            self.with_episode(ev, |ep| ep.result = Some(result));
            ctx.complete_at(ev, done);
        }
        while ctx.wait_all(&[ev], wait).is_err() {
            // Full by arrival count, not by result: the filling arrival
            // may still be inside `finish` (virtual time passes while it
            // prices and schedules), and the deadline then only means
            // the episode outlives the budget. Re-park.
            let filled = self.with_episode(ev, |ep| ep.arrived == self.n);
            if !filled && dead(ctx) {
                self.leave(ctx, ev, true);
                return Err(WaitTimeout { at: ctx.now() });
            }
        }
        Ok(self.leave(ctx, ev, false).expect("episode completed without a result"))
    }

    fn with_episode<O>(&self, ev: EventId, f: impl FnOnce(&mut Episode<T, R>) -> O) -> O {
        f(self.episodes.borrow_mut().iter_mut().find(|e| e.ev == ev).expect("episode vanished"))
    }

    /// One participant out, taking the result with it. The last one out
    /// retires the episode; its event is safe to recycle either way — a
    /// completed episode's waiters have all woken, an abandoned one was
    /// never filled, so no completion is scheduled on it.
    fn leave(&self, ctx: &Ctx, ev: EventId, abandon: bool) -> Option<R> {
        let mut eps = self.episodes.borrow_mut();
        let pos = eps.iter().position(|e| e.ev == ev).expect("episode vanished");
        let ep = &mut eps[pos];
        ep.abandoned |= abandon;
        ep.inside -= 1;
        if ep.inside > 0 {
            return ep.result.clone();
        }
        let ep = eps.remove(pos).expect("position just found");
        ctx.free_event(ep.ev);
        ep.result
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
