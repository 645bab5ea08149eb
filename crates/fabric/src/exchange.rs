//! Bootstrap all-gather domains.
//!
//! An [`ExchangeDomain`] lets `n` participants each contribute one value
//! and receive everyone's contributions — the CPU-side bootstrap primitive
//! used for segment-address exchange at attach time and for broadcasting
//! the XCCL UniqueId (paper §3.3: "identifiers are broadcast across
//! processes via a CPU-side communication mechanism").

use diomp_sim::{Ctx, Dur, Wait};

use crate::rendezvous::{after_hops, log2_ceil, Rendezvous};

/// A reusable all-gather over `n` participants: a [`Rendezvous`] whose
/// completion rule hands every participant all the contributions.
pub struct ExchangeDomain<T> {
    n: usize,
    hop: Dur,
    meet: Rendezvous<T, Vec<T>>,
}

impl<T: Clone> ExchangeDomain<T> {
    /// Domain over `n` participants with per-hop latency `hop`.
    pub fn new(n: usize, hop: Dur) -> Self {
        ExchangeDomain { n, hop, meet: Rendezvous::new(n) }
    }

    /// Contribute `value` as participant `idx`; blocks until every
    /// participant of this episode contributed, then returns all values in
    /// participant order. Even a single participant pays one hop.
    pub fn exchange(&self, ctx: &mut Ctx, idx: usize, value: T) -> Vec<T> {
        let hops = log2_ceil(self.n).max(1);
        let rule = |ctx: &mut Ctx, all| (after_hops(ctx, self.hop, hops), all);
        self.meet
            .arrive(ctx, idx, value, Wait::Block, |_| false, rule)
            .expect("a blocking arrival cannot time out")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diomp_sim::Sim;
    use std::rc::Rc;

    #[test]
    fn everyone_sees_all_values_in_order() {
        let mut sim = Sim::new();
        let dom = Rc::new(ExchangeDomain::new(4, Dur::micros(0.5)));
        for r in 0..4usize {
            let dom = dom.clone();
            sim.spawn(format!("r{r}"), move |ctx| {
                ctx.delay(Dur::micros(r as f64));
                let vals = dom.exchange(ctx, r, (r * 100) as u64);
                assert_eq!(vals, vec![0, 100, 200, 300]);
            });
        }
        sim.run().unwrap();
    }

    #[test]
    fn domain_is_reusable_back_to_back() {
        let mut sim = Sim::new();
        let dom = Rc::new(ExchangeDomain::new(3, Dur::micros(0.1)));
        for r in 0..3usize {
            let dom = dom.clone();
            sim.spawn(format!("r{r}"), move |ctx| {
                for round in 0..10u64 {
                    let vals = dom.exchange(ctx, r, round * 10 + r as u64);
                    assert_eq!(vals.len(), 3);
                    for (i, v) in vals.iter().enumerate() {
                        assert_eq!(*v, round * 10 + i as u64);
                    }
                }
            });
        }
        sim.run().unwrap();
    }

    #[test]
    fn exchange_events_are_recycled() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let dom: Rc<ExchangeDomain<u8>> = Rc::new(ExchangeDomain::new(2, Dur::micros(0.1)));
        for r in 0..2usize {
            let dom = dom.clone();
            sim.spawn(format!("r{r}"), move |ctx| {
                for _ in 0..50 {
                    dom.exchange(ctx, r, r as u8);
                }
            });
        }
        sim.run().unwrap();
        assert_eq!(h.unconsumed_posts(), 0);
    }
}
