//! The episode protocol of [`Rendezvous`], exercised directly and
//! through its fabric wrappers ([`BarrierDomain`], [`ExchangeDomain`]):
//! bounded arrivals, withdrawal, the never-abandon-a-filled-episode
//! rule, the double-arrival check and event recycling. The wrappers'
//! own completion rules are tested beside them; the collective gate's
//! double-arrival check lives in `crates/xccl/tests/xccl_integration.rs`.

use std::rc::Rc;

use diomp_fabric::{BarrierDomain, ExchangeDomain, Rendezvous};
use diomp_sim::{Ctx, Dur, Sim, SimTime, Wait};

/// Three participants; index 2 never shows up in the first episode.
/// The bounded arrivals re-park while `dead` says no and withdraw once
/// it says yes; the next arrivals open a fresh episode that completes,
/// and nothing leaks either way.
#[test]
fn bounded_arrival_withdraws_and_the_next_one_opens_a_fresh_episode() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let meet: Rc<Rendezvous<usize, usize>> = Rc::new(Rendezvous::new(3));
    for r in 0..3usize {
        let meet = meet.clone();
        sim.spawn(format!("r{r}"), move |ctx| {
            let sum = |ctx: &mut Ctx, all: Vec<usize>| (ctx.now(), all.iter().sum());
            if r < 2 {
                let budget = Wait::Until(Dur::micros(10.0));
                // "Dead" is confirmed from 25 µs on: two budgets re-park,
                // the third withdraws.
                let dead = |ctx: &mut Ctx| ctx.now() >= SimTime(25_000);
                let err = meet.arrive(ctx, r, 100, budget, dead, sum).unwrap_err();
                assert_eq!(err.at, SimTime(30_000));
            }
            ctx.sleep_until(SimTime(40_000));
            let got = meet.arrive(ctx, r, r, Wait::Block, |_| false, sum).unwrap();
            assert_eq!(got, 3, "the withdrawn 100s must not leak into the fresh episode");
        });
    }
    sim.run().unwrap();
    assert_eq!(h.live_events(), 0, "abandoned and completed episodes both recycle");
}

/// The last arrival spends 50 µs inside `finish`; the others' 10 µs
/// deadlines fire meanwhile with a probe that always says "dead". The
/// episode filled, so nobody may withdraw.
#[test]
fn filled_episode_completes_even_when_the_deadline_fires_during_finish() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let meet: Rc<Rendezvous<(), SimTime>> = Rc::new(Rendezvous::new(3));
    for r in 0..3u64 {
        let meet = meet.clone();
        sim.spawn(format!("r{r}"), move |ctx| {
            ctx.delay(Dur::micros(r as f64));
            let budget = Wait::Until(Dur::micros(10.0));
            let slow = |ctx: &mut Ctx, _| {
                ctx.delay(Dur::micros(50.0));
                (ctx.now() + Dur::micros(1.0), ctx.now())
            };
            let done = meet.arrive(ctx, r as usize, (), budget, |_| true, slow);
            assert_eq!(done, Ok(SimTime(52_000)));
            assert_eq!(ctx.now(), SimTime(53_000));
        });
    }
    sim.run().unwrap();
    assert_eq!(h.live_events(), 0);
}

/// Two tasks arriving under one participant index, through `arrive`.
fn arrive_twice(arrive: impl Fn(&mut Ctx) + 'static) {
    let mut sim = Sim::new();
    let arrive = Rc::new(arrive);
    for name in ["a", "b"] {
        let arrive = arrive.clone();
        sim.spawn(name, move |ctx| arrive(ctx));
    }
    sim.run().unwrap();
}

#[test]
#[should_panic(expected = "arrived twice")]
fn barrier_participant_arriving_twice_panics() {
    let bar = BarrierDomain::new(3, Dur::micros(0.1));
    arrive_twice(move |ctx| bar.arrive_and_wait(ctx, 0));
}

#[test]
#[should_panic(expected = "arrived twice")]
fn exchange_participant_contributing_twice_panics() {
    let dom: ExchangeDomain<u8> = ExchangeDomain::new(3, Dur::micros(0.1));
    arrive_twice(move |ctx| drop(dom.exchange(ctx, 0, 7)));
}
