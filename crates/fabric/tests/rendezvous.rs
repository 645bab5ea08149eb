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
    assert_eq!(h.unconsumed_posts(), 0, "abandoned and completed episodes leave no post");
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
    assert_eq!(h.unconsumed_posts(), 0);
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

/// 64 bounded participants and a straggler: participant `r < 63`
/// arrives at `r · 300` ns with a 10 µs budget and re-parks at every
/// deadline (the probe never says "dead"); participant 63 fills the
/// episode at 30 µs and completes it 2 µs later. Participants whose
/// deadline fires between the fill and the completion re-park behind
/// the filler, so the wake order is each one's most recent park.
#[test]
fn sixty_four_bounded_participants_wake_in_their_last_park_order() {
    let mut sim = Sim::new();
    let meet: Rc<Rendezvous<u64, u64>> = Rc::new(Rendezvous::new(64));
    let woke = Rc::new(std::cell::RefCell::new(Vec::new()));
    for r in 0..64u64 {
        let (meet, woke) = (meet.clone(), woke.clone());
        sim.spawn(format!("r{r}"), move |ctx| {
            ctx.delay(Dur::nanos(if r == 63 { 30_000 } else { r * 300 }));
            let budget = Wait::Until(Dur::micros(10.0));
            let sum =
                |ctx: &mut Ctx, all: Vec<u64>| (ctx.now() + Dur::micros(2.0), all.iter().sum());
            let got = meet.arrive(ctx, r as usize, r, budget, |_| false, sum).unwrap();
            assert_eq!((got, ctx.now()), ((0..64).sum(), SimTime(32_000)));
            woke.borrow_mut().push(r);
        });
    }
    let rep = sim.run().unwrap();
    let woke = woke.borrow();
    // Wake order is last-park order: 7-28 (second re-park, 22.1-28.4 µs)
    // interleaved with 41-62 (first re-park, 22.3-28.6 µs), 29-33
    // (28.7-29.9 µs), the filler 63 at 30 µs, then 0-6 (third re-park)
    // interleaved with 34-40 (second re-park), 30-32 µs.
    let mut order: Vec<u64> = (7..=28).flat_map(|k| [k, k + 34]).collect();
    order.extend([29, 30, 31, 32, 33, 63]);
    order.extend((0..=6).flat_map(|k| [k, k + 34]));
    assert_eq!(*woke, order);
    assert_eq!(
        (rep.end_time, rep.entries_processed, rep.digest),
        (SimTime(42_000), 367, 0x7B46_4173_4D90_E85A)
    );
}
