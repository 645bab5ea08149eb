//! Reusable dissemination-style barrier domains.
//!
//! A [`BarrierDomain`] synchronises a fixed set of `n` participants. The
//! cost model is that of a dissemination barrier: the barrier completes
//! ⌈log2 n⌉ network latencies after the last participant arrives. The
//! same object backs `MPI_Barrier`, GASNet barriers and the group-scoped
//! `ompx_barrier` of the DiOMP runtime.

use diomp_sim::{Ctx, Dur, Wait};

use crate::rendezvous::{after_hops, log2_ceil, Rendezvous};

/// A reusable barrier for `n` participants: a [`Rendezvous`] with no
/// payload whose completion rule is the hop latency.
pub struct BarrierDomain {
    n: usize,
    hop: Dur,
    meet: Rendezvous<(), ()>,
}

impl BarrierDomain {
    /// Barrier over `n` participants with per-hop latency `hop`.
    pub fn new(n: usize, hop: Dur) -> Self {
        BarrierDomain { n, hop, meet: Rendezvous::new(n) }
    }

    /// Enter the barrier as participant `idx` and block until all `n`
    /// participants have entered (plus the modelled ⌈log2 n⌉ hop
    /// fan-in/fan-out latency).
    pub fn arrive_and_wait(&self, ctx: &mut Ctx, idx: usize) {
        if self.n == 1 {
            return;
        }
        let rule = |ctx: &mut Ctx, _| (after_hops(ctx, self.hop, log2_ceil(self.n)), ());
        self.meet
            .arrive(ctx, idx, (), Wait::Block, |_| false, rule)
            .expect("a blocking arrival cannot time out");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diomp_sim::{Sim, SimTime};
    use std::rc::Rc;

    #[test]
    fn all_ranks_leave_after_last_arrival_plus_hops() {
        let mut sim = Sim::new();
        let bar = Rc::new(BarrierDomain::new(4, Dur::micros(1.0)));
        for r in 0..4u64 {
            let bar = bar.clone();
            sim.spawn(format!("r{r}"), move |ctx| {
                ctx.delay(Dur::micros(r as f64 * 10.0));
                bar.arrive_and_wait(ctx, r as usize);
                // Last arrival at 30 µs; ⌈log2 4⌉ = 2 hops of 1 µs.
                assert_eq!(ctx.now(), SimTime(32_000));
            });
        }
        sim.run().unwrap();
    }

    #[test]
    fn barrier_is_reusable_across_episodes() {
        let mut sim = Sim::new();
        let bar = Rc::new(BarrierDomain::new(3, Dur::micros(0.5)));
        for r in 0..3u64 {
            let bar = bar.clone();
            sim.spawn(format!("r{r}"), move |ctx| {
                for round in 0..5u64 {
                    ctx.delay(Dur::micros((r + 1) as f64));
                    bar.arrive_and_wait(ctx, r as usize);
                    let _ = round;
                }
            });
        }
        sim.run().unwrap();
    }

    #[test]
    fn single_rank_barrier_is_free() {
        let mut sim = Sim::new();
        let bar = Rc::new(BarrierDomain::new(1, Dur::micros(1.0)));
        sim.spawn("solo", move |ctx| {
            bar.arrive_and_wait(ctx, 0);
            assert_eq!(ctx.now(), SimTime::ZERO);
        });
        sim.run().unwrap();
    }

    #[test]
    fn barrier_events_are_recycled() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let bar = Rc::new(BarrierDomain::new(2, Dur::micros(0.1)));
        for r in 0..2 {
            let bar = bar.clone();
            sim.spawn(format!("r{r}"), move |ctx| {
                for _ in 0..100 {
                    bar.arrive_and_wait(ctx, r);
                }
            });
        }
        sim.run().unwrap();
        assert_eq!(h.unconsumed_posts(), 0, "barrier must consume its posts");
    }
}
