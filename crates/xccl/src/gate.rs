//! The collective rendezvous gate.
//!
//! A device-side collective starts when *every* participating rank has
//! called it (NCCL semantics: the kernel blocks until peers arrive). The
//! gate collects each rank's device buffers, and when the last rank
//! arrives it computes the modelled completion time, schedules the real
//! data movement, and releases everyone at the completion instant.

use std::collections::VecDeque;

use diomp_sim::{Ctx, EventId, SimTime, Wait};
use parking_lot::Mutex;

/// A collective abandoned at the rendezvous gate: a member rank died
/// before arriving, so the gate can never fill. Surviving callers get
/// this instead of a completion time; no buffer byte has been touched —
/// data semantics only ever run when the gate fills — so the caller can
/// shrink the communicator and re-run the collective from its last
/// checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollAbort {
    /// Virtual time at which the survivor gave up waiting.
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

struct Episode {
    ev: EventId,
    /// Each rank's device buffers, by rank index (taken by the arrival
    /// that fills the episode).
    arrivals: Vec<Option<Vec<DeviceBuf>>>,
    arrived: usize,
    inside: usize,
    done_at: Option<SimTime>,
    /// A survivor abandoned this episode after a timeout confirmed a
    /// dead member. Aborted episodes can never fill; later calls open a
    /// fresh episode instead of joining this one.
    aborted: bool,
}

/// Rendezvous gate over `n` ranks.
pub(crate) struct CollGate {
    n: usize,
    episodes: Mutex<VecDeque<Episode>>,
}

impl CollGate {
    pub(crate) fn new(n: usize) -> Self {
        CollGate { n, episodes: Mutex::new(VecDeque::new()) }
    }

    /// Arrive with this rank's buffers under a wait discipline. When the
    /// gate fills, `finish` is called once (by the last arrival, in task
    /// context) with all arrivals in rank order (every slot `Some`: the
    /// gate is full); it returns the collective completion time, and
    /// every participant blocks until then.
    ///
    /// With [`Wait::Block`] a call cannot fail — one event, one park per
    /// rank, the historical rendezvous. With [`Wait::Until`]
    /// each park is bounded: when the deadline fires before the gate
    /// fills, `dead` is consulted (the caller's health probe). If it
    /// confirms a dead member the arrival is withdrawn — the episode is
    /// marked aborted, this rank's buffers are removed untouched, and
    /// [`CollAbort`] is returned. Otherwise the rank re-parks for
    /// another budget: a slow peer is a straggler, not a corpse. An
    /// episode that already filled is never aborted — the collective is
    /// in flight and completes normally (rank kills take effect at
    /// collective boundaries, which is what keeps chaos replay
    /// deterministic).
    pub(crate) fn arrive_with(
        &self,
        ctx: &mut Ctx,
        idx: usize,
        bufs: Vec<DeviceBuf>,
        wait: Wait,
        mut dead: impl FnMut(&mut Ctx) -> bool,
        finish: impl FnOnce(&mut Ctx, &[Option<Vec<DeviceBuf>>]) -> SimTime,
    ) -> Result<SimTime, CollAbort> {
        assert!(idx < self.n);
        // One lock scope per arrival: join (or open) the episode, and if
        // this arrival fills it, take every rank's buffers out with it.
        let (ev, filled) = {
            let mut eps = self.episodes.lock();
            if eps.back().is_none_or(|e| e.arrived == self.n || e.aborted) {
                eps.push_back(Episode {
                    ev: ctx.new_event(),
                    arrivals: (0..self.n).map(|_| None).collect(),
                    arrived: 0,
                    inside: 0,
                    done_at: None,
                    aborted: false,
                });
            }
            let ep = eps.back_mut().expect("an open episode");
            assert!(ep.arrivals[idx].is_none(), "rank {idx} arrived twice at a collective");
            ep.arrivals[idx] = Some(bufs);
            ep.arrived += 1;
            ep.inside += 1;
            let filled = (ep.arrived == self.n).then(|| std::mem::take(&mut ep.arrivals));
            (ep.ev, filled)
        };
        // The last arrival computes the outcome outside the lock (it may
        // charge delays on its own task).
        if let Some(arrivals) = filled {
            let done = finish(ctx, &arrivals);
            let mut eps = self.episodes.lock();
            let ep = eps.iter_mut().find(|e| e.ev == ev).expect("episode vanished");
            ep.done_at = Some(done);
            drop(eps);
            ctx.complete_at(ev, done);
        }
        loop {
            match ctx.wait_with(ev, wait) {
                Ok(()) => break,
                Err(_) => {
                    // Full by arrival count, not by done_at: the last
                    // arrival may still be inside `finish` (virtual time
                    // passes while it prices and schedules the data
                    // movement), and an episode every rank reached is in
                    // flight even before its completion time is known.
                    let filled =
                        self.episodes.lock().iter().any(|e| e.ev == ev && e.arrived == self.n);
                    // A filled episode is in flight: the deadline only
                    // means the collective outlives the budget. Re-park.
                    if !filled && dead(ctx) {
                        let mut eps = self.episodes.lock();
                        let pos = eps.iter().position(|e| e.ev == ev).expect("episode vanished");
                        let ep = &mut eps[pos];
                        ep.aborted = true;
                        ep.inside -= 1;
                        if ep.inside == 0 {
                            let ep = eps.remove(pos).unwrap();
                            // Never completed: release, don't free.
                            ctx.handle().release_event(ep.ev);
                        }
                        return Err(CollAbort { at: ctx.now() });
                    }
                }
            }
        }
        let mut eps = self.episodes.lock();
        let pos = eps.iter().position(|e| e.ev == ev).expect("episode vanished");
        let done = eps[pos].done_at.expect("episode completed without a time");
        eps[pos].inside -= 1;
        if eps[pos].inside == 0 {
            let ep = eps.remove(pos).unwrap();
            ctx.free_event(ep.ev);
        }
        Ok(done)
    }
}
