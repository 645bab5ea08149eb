//! Integration tests for the discrete-event kernel: scheduling order,
//! blocking primitives, resources, deadlock detection and
//! determinism.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use diomp_sim::{Dur, Sim, SimError, SimReport, SimTime, Wait};

#[test]
fn delays_accumulate_virtual_time() {
    let mut sim = Sim::new();
    sim.spawn("t", |ctx| {
        ctx.delay(Dur::micros(3.0));
        ctx.delay(Dur::micros(4.0));
        assert_eq!(ctx.now(), SimTime(7_000));
    });
    let rep = sim.run().unwrap();
    assert_eq!(rep.end_time, SimTime(7_000));
    assert_eq!(rep.tasks_completed, 1);
}

#[test]
fn tasks_interleave_by_timestamp_not_spawn_order() {
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let mut sim = Sim::new();
    for (name, d) in [("late", 10.0), ("early", 1.0), ("mid", 5.0)] {
        let order = order.clone();
        sim.spawn(name, move |ctx| {
            ctx.delay(Dur::micros(d));
            order.lock().push(name);
        });
    }
    sim.run().unwrap();
    assert_eq!(*order.lock(), vec!["early", "mid", "late"]);
}

#[test]
fn same_time_entries_run_in_insertion_order() {
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let mut sim = Sim::new();
    for i in 0..8 {
        let order = order.clone();
        sim.spawn(format!("t{i}"), move |ctx| {
            ctx.delay(Dur::micros(1.0));
            order.lock().push(i);
        });
    }
    sim.run().unwrap();
    assert_eq!(*order.lock(), (0..8).collect::<Vec<_>>());
}

#[test]
fn event_completion_wakes_all_waiters() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let ev = h.new_event();
    let hits = Arc::new(AtomicU64::new(0));
    for i in 0..4 {
        let hits = hits.clone();
        sim.spawn(format!("w{i}"), move |ctx| {
            ctx.wait_all(&[ev], Wait::Block).unwrap();
            assert_eq!(ctx.now(), SimTime(2_000));
            hits.fetch_add(1, Ordering::Relaxed);
        });
    }
    sim.spawn("completer", move |ctx| {
        ctx.delay(Dur::micros(2.0));
        ctx.complete(ev);
    });
    sim.run().unwrap();
    assert_eq!(hits.load(Ordering::Relaxed), 4);
}

#[test]
fn wait_on_completed_event_returns_immediately() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let ev = h.new_event();
    h.complete(ev);
    sim.spawn("w", move |ctx| {
        ctx.wait_all(&[ev], Wait::Block).unwrap();
        assert_eq!(ctx.now(), SimTime::ZERO);
    });
    sim.run().unwrap();
}

#[test]
fn wait_any_returns_first_completed() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let slow = h.new_event();
    let fast = h.new_event();
    h.complete_at(slow, SimTime(9_000));
    h.complete_at(fast, SimTime(1_000));
    sim.spawn("w", move |ctx| {
        let idx = ctx.wait_any(&[slow, fast], Wait::Block).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(ctx.now(), SimTime(1_000));
        // A later wait on the slow event still works (no spurious state).
        ctx.wait_all(&[slow], Wait::Block).unwrap();
        assert_eq!(ctx.now(), SimTime(9_000));
    });
    sim.run().unwrap();
}

#[test]
fn spurious_wakes_do_not_break_delay() {
    // A task waits on an event with wait_any, abandons one registration,
    // then sleeps; the abandoned registration must not cut the sleep short.
    let mut sim = Sim::new();
    let h = sim.handle();
    let a = h.new_event();
    let b = h.new_event();
    h.complete_at(a, SimTime(1_000));
    h.complete_at(b, SimTime(2_000)); // fires mid-sleep
    sim.spawn("w", move |ctx| {
        let idx = ctx.wait_any(&[a, b], Wait::Block).unwrap();
        assert_eq!(idx, 0);
        ctx.delay(Dur::micros(10.0)); // b completes at 2µs, must not wake us
        assert_eq!(ctx.now(), SimTime(11_000));
    });
    sim.run().unwrap();
}

#[test]
fn scheduled_actions_run_at_their_time() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let ev = h.new_event();
    let stamp = Arc::new(AtomicU64::new(0));
    {
        let stamp = stamp.clone();
        h.schedule_at(SimTime(5_000), move |h| {
            stamp.store(h.now().nanos(), Ordering::Relaxed);
            h.complete(ev);
        });
    }
    sim.spawn("w", move |ctx| {
        ctx.wait_all(&[ev], Wait::Block).unwrap();
        assert_eq!(ctx.now(), SimTime(5_000));
    });
    sim.run().unwrap();
    assert_eq!(stamp.load(Ordering::Relaxed), 5_000);
}

#[test]
fn resource_contention_serialises_transfers() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let link = h.new_resource(1.0, Dur::nanos(50)); // 1 B/ns
    let finish = Arc::new(parking_lot::Mutex::new(Vec::new()));
    for i in 0..3 {
        let finish = finish.clone();
        sim.spawn(format!("s{i}"), move |ctx| {
            let tr = ctx.transfer(link, 1_000);
            let ev = ctx.new_event();
            ctx.complete_at(ev, tr.arrive);
            ctx.drain(&[ev], Wait::Block).unwrap();
            finish.lock().push(ctx.now().nanos());
        });
    }
    sim.run().unwrap();
    // Each 1000-byte transfer takes 1000 ns of link time + 50 ns latency,
    // serialised: arrivals at 1050, 2050, 3050.
    assert_eq!(*finish.lock(), vec![1_050, 2_050, 3_050]);
}

#[test]
fn deadlock_is_reported_with_task_names() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let never = h.new_event();
    let other = h.new_event();
    let board = h.new_board();
    sim.spawn("stuck-rank", move |ctx| {
        ctx.wait_all(&[never], Wait::Block).unwrap();
    });
    sim.spawn("fence", move |ctx| ctx.wait_all(&[never, other], Wait::Block).unwrap());
    sim.spawn("poller", move |ctx| {
        ctx.wait_any(&[never, other], Wait::Block).unwrap();
    });
    sim.spawn("halo", move |ctx| {
        // The first wait times out (its reason carried a deadline, its
        // wake was queued — never part of a deadlock); the second blocks.
        assert!(ctx.board_waitsome(board, 4, 2, Wait::Until(Dur::micros(1.0))).is_err());
        ctx.board_waitsome(board, 4, 2, Wait::Block).unwrap();
    });
    let err = sim.run().unwrap_err();
    match &err {
        SimError::Deadlock { blocked, parked_on, at } => {
            assert_eq!(blocked, &["stuck-rank", "fence", "poller", "halo"]);
            assert_eq!(
                parked_on,
                &[
                    "all of 1 pending events",
                    "all of 2 pending events",
                    "any of 2 events",
                    "board 0 ids [4, 6)"
                ]
            );
            assert_eq!(*at, SimTime(1_000));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
    assert_eq!(
        err.to_string(),
        "simulation deadlock at 1.000us: blocked tasks [stuck-rank: all of 1 pending events, \
         fence: all of 2 pending events, poller: any of 2 events, halo: board 0 ids [4, 6)]"
    );
}

#[test]
fn deadlock_is_detected_when_the_last_dispatcher_is_a_parked_task() {
    // `early-exit` is long gone when `late-stuck` parks for good, so the
    // queue drains on `late-stuck`'s own thread, inside its park.
    let mut sim = Sim::new();
    let never = sim.handle().new_event();
    sim.spawn("early-exit", |_ctx| {});
    sim.spawn("late-stuck", move |ctx| {
        ctx.delay(Dur::micros(1.0));
        ctx.wait_all(&[never], Wait::Block).unwrap();
    });
    match sim.run() {
        Err(SimError::Deadlock { blocked, at, .. }) => {
            assert_eq!(blocked, vec!["late-stuck".to_string()]);
            assert_eq!(at, SimTime(1_000));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn limits_trip_while_a_task_thread_is_dispatching() {
    // Both spinners pop their own wakes, so the limit trips inside a
    // task's park, not in `run()`; values recorded at the parent commit.
    let mut sim = Sim::new();
    sim.limit_entries(100);
    sim.spawn("spinner", |ctx| loop {
        ctx.delay(Dur::nanos(1));
    });
    match sim.run() {
        Err(SimError::LimitExceeded { what, at }) => {
            assert_eq!((what.as_str(), at), ("more than 100 queue entries", SimTime(100)));
        }
        other => panic!("expected limit, got {other:?}"),
    }
    let mut sim = Sim::new();
    sim.limit_time(SimTime(5_000));
    sim.spawn("sleeper", |ctx| loop {
        ctx.delay(Dur::nanos(1_500));
    });
    match sim.run() {
        Err(SimError::LimitExceeded { what, at }) => {
            assert_eq!((what.as_str(), at), ("virtual time past 5.000us", SimTime(6_000)));
        }
        other => panic!("expected limit, got {other:?}"),
    }
}

#[test]
#[should_panic(expected = "simulated task 'asserter' panicked")]
fn task_panics_propagate_to_run() {
    let mut sim = Sim::new();
    sim.spawn("asserter", |_ctx| {
        panic!("boom");
    });
    let _ = sim.run();
}

#[test]
fn action_panics_are_reraised_by_run_with_their_own_message() {
    // The action pops on a task's thread either way: `bystander`'s while
    // it is parked, or `leaver`'s after its closure returned. It must
    // reach `run()` as itself — not as "simulated task 'bystander'
    // panicked", and not lost with the exiting thread (a hang).
    for bystander_parks in [true, false] {
        let mut sim = Sim::new();
        let h = sim.handle();
        let never = h.new_event();
        h.schedule_at(SimTime(1_000), |_| panic!("action boom"));
        if bystander_parks {
            sim.spawn("bystander", move |ctx| ctx.wait_all(&[never], Wait::Block).unwrap());
        } else {
            sim.spawn("leaver", |_ctx| {});
        }
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
            .expect_err("run() must re-raise the action's panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"action boom"));
    }
}

#[test]
fn dynamic_spawn_joins_the_event_flow() {
    let mut sim = Sim::new();
    let hits = Arc::new(AtomicU64::new(0));
    let hits2 = hits.clone();
    sim.spawn("parent", move |ctx| {
        ctx.delay(Dur::micros(1.0));
        let hits3 = hits2.clone();
        ctx.handle().spawn("child", move |ctx| {
            ctx.delay(Dur::micros(1.0));
            assert_eq!(ctx.now(), SimTime(2_000));
            hits3.fetch_add(1, Ordering::Relaxed);
        });
    });
    sim.run().unwrap();
    assert_eq!(hits.load(Ordering::Relaxed), 1);
}

fn trace_of(seed: u64) -> Vec<String> {
    let mut sim = Sim::new();
    sim.enable_trace();
    for r in 0..6u64 {
        sim.spawn(format!("rank{r}"), move |ctx| {
            let mut rng = diomp_sim::rng_for(seed, r);
            use rand::Rng;
            for _ in 0..20 {
                let d: u64 = rng.gen_range(1..500);
                ctx.delay(Dur::nanos(d));
                ctx.trace(format!("rank{r}"), format!("sent at {}", ctx.now()));
            }
        });
    }
    let rep = sim.run().unwrap();
    rep.trace.iter().map(|t| t.to_string()).collect()
}

#[test]
fn identical_seeds_produce_identical_traces() {
    let a = trace_of(1234);
    let b = trace_of(1234);
    assert_eq!(a, b, "simulation must be deterministic");
    assert!(!a.is_empty());
}

#[test]
fn different_seeds_produce_different_traces() {
    let a = trace_of(1);
    let b = trace_of(2);
    assert_ne!(a, b);
}

#[test]
fn event_slots_are_recycled() {
    let mut sim = Sim::new();
    let h = sim.handle();
    sim.spawn("loop", |ctx| {
        for _ in 0..1_000 {
            let ev = ctx.new_event();
            ctx.complete(ev);
            ctx.drain(&[ev], Wait::Block).unwrap();
        }
    });
    sim.run().unwrap();
    assert_eq!(h.live_events(), 0, "all events freed");
}

// ---------- batched multi-event waits (wait_all) ----------

/// Run `n` staggered completions and drain them with `f`; returns
/// (end_time, entries_processed).
fn drain_with(
    n: u64,
    f: impl Fn(&mut diomp_sim::Ctx, Vec<diomp_sim::EventId>) + Send + 'static,
) -> (SimTime, u64) {
    let mut sim = Sim::new();
    sim.spawn("drainer", move |ctx| {
        let evs: Vec<_> = (0..n)
            .map(|i| {
                let ev = ctx.new_event();
                ctx.complete_at(ev, SimTime(1_000 * (i + 1)));
                ev
            })
            .collect();
        f(ctx, evs);
    });
    let rep = sim.run().unwrap();
    (rep.end_time, rep.entries_processed)
}

#[test]
fn wait_all_wakes_at_last_completion() {
    let (end, _) = drain_with(10, |ctx, evs| {
        ctx.wait_all(&evs, Wait::Block).unwrap();
        assert_eq!(ctx.now(), SimTime(10_000), "woken exactly at the last event");
        for ev in evs {
            ctx.free_event(ev);
        }
    });
    assert_eq!(end, SimTime(10_000));
}

#[test]
fn wait_all_processes_far_fewer_entries_than_wait_loop() {
    let n = 200;
    let (end_loop, entries_loop) = drain_with(n, |ctx, evs| {
        for &ev in &evs {
            ctx.drain(&[ev], Wait::Block).unwrap();
        }
    });
    let (end_all, entries_all) = drain_with(n, |ctx, evs| {
        ctx.drain(&evs, Wait::Block).unwrap();
    });
    assert_eq!(end_loop, end_all, "batching must not change virtual time");
    // The wait loop costs one wake per event; the group wait costs one
    // wake total. Completion actions are identical in both runs.
    assert!(
        entries_all + n - 1 <= entries_loop,
        "expected ~{n} fewer entries, got {entries_loop} vs {entries_all}"
    );
}

#[test]
fn wait_all_with_already_completed_events_returns_immediately() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let a = h.new_event();
    let b = h.new_event();
    h.complete(a);
    h.complete(b);
    sim.spawn("w", move |ctx| {
        ctx.drain(&[a, b], Wait::Block).unwrap();
        assert_eq!(ctx.now(), SimTime::ZERO);
    });
    sim.run().unwrap();
}

#[test]
fn wait_all_mixes_pending_and_completed() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let done = h.new_event();
    let late = h.new_event();
    h.complete(done);
    h.complete_at(late, SimTime(5_000));
    sim.spawn("w", move |ctx| {
        ctx.drain(&[done, late], Wait::Block).unwrap();
        assert_eq!(ctx.now(), SimTime(5_000));
    });
    sim.run().unwrap();
}

#[test]
fn wait_all_groups_are_recycled() {
    let mut sim = Sim::new();
    let h = sim.handle();
    sim.spawn("loop", |ctx| {
        for round in 0..500u64 {
            let evs: Vec<_> = (0..4)
                .map(|i| {
                    let ev = ctx.new_event();
                    ctx.complete_at(ev, ctx.now() + Dur::nanos(i + 1 + round));
                    ev
                })
                .collect();
            ctx.drain(&evs, Wait::Block).unwrap();
        }
    });
    sim.run().unwrap();
    assert_eq!(h.live_events(), 0);
}

// ---------- wait_any (wait-any groups) ----------

#[test]
fn wait_any_batched_returns_first_completed() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let slow = h.new_event();
    let fast = h.new_event();
    h.complete_at(slow, SimTime(9_000));
    h.complete_at(fast, SimTime(1_000));
    sim.spawn("w", move |ctx| {
        let idx = ctx.wait_any(&[slow, fast], Wait::Block).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(ctx.now(), SimTime(1_000));
        // The abandoned registration on `slow` must not disturb later
        // waits: the group is dead, so slow's completion pushes nothing.
        ctx.wait_all(&[slow], Wait::Block).unwrap();
        assert_eq!(ctx.now(), SimTime(9_000));
    });
    let rep = sim.run().unwrap();
    // Start wake, two completions and one wake per park: no stale wake
    // from the dead group.
    assert_eq!(rep.entries_processed, 5);
}

#[test]
fn wait_any_on_completed_event_returns_immediately() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let pending = h.new_event();
    let done = h.new_event();
    h.complete(done);
    sim.spawn("w", move |ctx| {
        assert_eq!(ctx.wait_any(&[pending, done], Wait::Block).unwrap(), 1);
        assert_eq!(ctx.now(), SimTime::ZERO);
        ctx.complete(pending);
    });
    sim.run().unwrap();
}

/// Progress-engine shape: retire `n` staggered completions one at a time,
/// re-waiting on the whole remaining set after each retirement.
fn retire_one_by_one(n: u64) -> (SimTime, u64) {
    let mut sim = Sim::new();
    sim.spawn("engine", move |ctx| {
        let mut evs: Vec<_> = (0..n)
            .map(|i| {
                let ev = ctx.new_event();
                ctx.complete_at(ev, SimTime(1_000 * (i + 1)));
                ev
            })
            .collect();
        while !evs.is_empty() {
            let idx = ctx.wait_any(&evs, Wait::Block).unwrap();
            let ev = evs.remove(idx);
            ctx.handle().free_event(ev);
        }
    });
    let rep = sim.run().unwrap();
    (rep.end_time, rep.entries_processed)
}

#[test]
fn wait_any_costs_one_wake_per_park() {
    // Every park registers one group on all remaining events; the first
    // completion is its only wake and the later ones push nothing: the
    // start wake, n completions and n wakes.
    let n = 100;
    assert_eq!(retire_one_by_one(n), (SimTime(1_000 * n), 1 + 2 * n));
}

#[test]
fn wait_any_groups_are_recycled_across_rounds() {
    // Stale group refs from earlier rounds must never fire a recycled
    // group (generation check) nor block event recycling.
    let mut sim = Sim::new();
    let h = sim.handle();
    sim.spawn("loop", |ctx| {
        for round in 0..300u64 {
            let evs: Vec<_> = (0..4)
                .map(|i| {
                    let ev = ctx.new_event();
                    ctx.complete_at(ev, ctx.now() + Dur::nanos((i + 1) * (round + 1)));
                    ev
                })
                .collect();
            let first = ctx.wait_any(&evs, Wait::Block).unwrap();
            assert_eq!(first, 0, "earliest completion wins");
            // Drain the rest and recycle everything.
            ctx.drain(&evs, Wait::Block).unwrap();
        }
    });
    sim.run().unwrap();
    assert_eq!(h.live_events(), 0);
}

#[test]
fn two_tasks_can_wait_all_on_overlapping_sets() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let shared = h.new_event();
    let mine = h.new_event();
    let yours = h.new_event();
    h.complete_at(shared, SimTime(3_000));
    h.complete_at(mine, SimTime(1_000));
    h.complete_at(yours, SimTime(9_000));
    sim.spawn("a", move |ctx| {
        ctx.wait_all(&[shared, mine], Wait::Block).unwrap();
        assert_eq!(ctx.now(), SimTime(3_000));
    });
    sim.spawn("b", move |ctx| {
        ctx.wait_all(&[shared, yours], Wait::Block).unwrap();
        assert_eq!(ctx.now(), SimTime(9_000));
    });
    sim.run().unwrap();
}

#[test]
fn waiters_on_one_event_wake_in_registration_order() {
    // One wake rule for every park, whatever the number of events each
    // waits on: `single` registers on `shared` after `group` does, so it
    // wakes after it at the same instant.
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let mut sim = Sim::new();
    let h = sim.handle();
    let (shared, early) = (h.new_event(), h.new_event());
    h.complete_at(early, SimTime(1_000));
    h.complete_at(shared, SimTime(5_000));
    let o = order.clone();
    sim.spawn("group", move |ctx| {
        ctx.wait_all(&[shared, early], Wait::Block).unwrap();
        o.lock().push(("group", ctx.now()));
    });
    let o = order.clone();
    sim.spawn("single", move |ctx| {
        ctx.delay(Dur::micros(2.0));
        ctx.wait_all(&[shared], Wait::Block).unwrap();
        o.lock().push(("single", ctx.now()));
    });
    sim.run().unwrap();
    assert_eq!(*order.lock(), [("group", SimTime(5_000)), ("single", SimTime(5_000))]);
}

// ---------------------------------------------------------------------------
// Virtual-time deadlines: timeout-taking waits.
// ---------------------------------------------------------------------------

#[test]
fn wait_timeout_returns_ok_before_the_deadline() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let ev = h.new_event();
    h.complete_at(ev, h.now() + Dur::micros(2.0));
    sim.spawn("waiter", move |ctx| {
        assert!(ctx.wait_all(&[ev], Wait::Until(Dur::micros(10.0))).is_ok());
        assert_eq!(ctx.now(), SimTime(2_000), "woken by completion, not deadline");
    });
    sim.run().unwrap();
}

#[test]
fn wait_timeout_fires_at_the_deadline_and_leaves_the_event_pending() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let ev = h.new_event();
    h.complete_at(ev, h.now() + Dur::micros(50.0));
    sim.spawn("waiter", move |ctx| {
        let err = ctx.wait_all(&[ev], Wait::Until(Dur::micros(5.0))).unwrap_err();
        assert_eq!(err.at, SimTime(5_000));
        assert_eq!(ctx.now(), SimTime(5_000));
        assert!(!ctx.event_done(ev), "event still in flight after the timeout");
        // The late completion is still delivered; waiting again succeeds.
        ctx.wait_all(&[ev], Wait::Block).unwrap();
        assert_eq!(ctx.now(), SimTime(50_000));
        ctx.free_event(ev);
    });
    sim.run().unwrap();
}

#[test]
fn wait_all_timeout_reports_partial_completion() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let evs: Vec<_> = (0..4).map(|_| h.new_event()).collect();
    // Two complete before the deadline, two after.
    h.complete_at(evs[0], h.now() + Dur::micros(1.0));
    h.complete_at(evs[2], h.now() + Dur::micros(2.0));
    h.complete_at(evs[1], h.now() + Dur::micros(20.0));
    h.complete_at(evs[3], h.now() + Dur::micros(30.0));
    let evs2 = evs.clone();
    sim.spawn("waiter", move |ctx| {
        assert!(ctx.wait_all(&evs2, Wait::Until(Dur::micros(5.0))).is_err());
        let done: Vec<bool> = evs2.iter().map(|&e| ctx.event_done(e)).collect();
        assert_eq!(done, vec![true, false, true, false], "partial state visible");
        // Draining the rest afterwards works: the dead group is inert.
        ctx.drain(&evs2, Wait::Block).unwrap();
        assert_eq!(ctx.now(), SimTime(30_000));
    });
    sim.run().unwrap();
}

#[test]
fn wait_any_timeout_fires_at_the_deadline_then_takes_the_first_completion() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let (slow, slower) = (h.new_event(), h.new_event());
    h.complete_at(slow, h.now() + Dur::micros(12.0));
    h.complete_at(slower, h.now() + Dur::micros(20.0));
    sim.spawn("waiter", move |ctx| {
        let evs = [slower, slow];
        let budget = Wait::Until(Dur::micros(5.0));
        assert_eq!(ctx.wait_any(&evs, budget).unwrap_err().at, SimTime(5_000));
        assert_eq!(ctx.wait_any(&evs, budget).unwrap_err().at, SimTime(10_000));
        // The killed groups stay inert; the third park takes the completion.
        assert_eq!(ctx.wait_any(&evs, budget), Ok(1));
        assert_eq!(ctx.now(), SimTime(12_000));
        assert_eq!(ctx.wait_any(&evs, Wait::Block), Ok(1), "already complete");
        ctx.drain(&evs, Wait::Block).unwrap();
    });
    let rep = sim.run().unwrap();
    // The start wake, two completions, three deadline wakes (the last
    // one stale), and the wake of each park a completion ended.
    assert_eq!(rep.entries_processed, 8);
}

#[test]
fn timed_out_groups_do_not_leak_or_misfire_under_reuse() {
    // Stress slot recycling: many timeouts then many successful waits on
    // recycled group slots; generation tags must keep stale references
    // inert (the timeout analogue of the wait-any staleness property).
    let mut sim = Sim::new();
    let h = sim.handle();
    let slow: Vec<_> = (0..8).map(|_| h.new_event()).collect();
    for (i, &e) in slow.iter().enumerate() {
        h.complete_at(e, h.now() + Dur::micros(100.0 + i as f64));
    }
    sim.spawn("waiter", move |ctx| {
        for _ in 0..16 {
            assert!(ctx.wait_all(&slow, Wait::Until(Dur::micros(1.0))).is_err());
        }
        ctx.drain(&slow, Wait::Block).unwrap();
        assert_eq!(ctx.now(), SimTime(107_000));
    });
    sim.run().unwrap();
}

#[test]
fn board_waitsome_timeout_consumes_or_times_out() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let b = h.new_board();
    sim.spawn("producer", move |ctx| {
        ctx.delay(Dur::micros(8.0));
        ctx.board_post(b, 3, 33);
    });
    sim.spawn("consumer", move |ctx| {
        // First wait gives up before the post lands...
        let err = ctx.board_waitsome(b, 0, 8, Wait::Until(Dur::micros(2.0))).unwrap_err();
        assert_eq!(err.at, SimTime(2_000));
        // ...the second sees it arrive inside the window.
        let (id, v) = ctx.board_waitsome(b, 0, 8, Wait::Until(Dur::micros(50.0))).unwrap();
        assert_eq!((id, v), (3, 33));
        assert_eq!(ctx.now(), SimTime(8_000));
    });
    sim.run().unwrap();
}

#[test]
fn board_waitsome_timeout_deadline_is_absolute_across_reparks() {
    // A concurrent waiter steals every post; the timed waiter must still
    // give up at its original deadline instead of extending it per repark.
    let mut sim = Sim::new();
    let h = sim.handle();
    let b = h.new_board();
    sim.spawn("thief", move |ctx| {
        for _ in 0..4 {
            let _ = ctx.board_waitsome(b, 0, 8, Wait::Block).unwrap();
        }
    });
    sim.spawn("timed", move |ctx| {
        let err = ctx.board_waitsome(b, 0, 8, Wait::Until(Dur::micros(10.0))).unwrap_err();
        assert_eq!(err.at, SimTime(10_000), "deadline must not slide");
    });
    sim.spawn("producer", move |ctx| {
        for i in 0..4 {
            ctx.delay(Dur::micros(2.0));
            ctx.board_post(b, i, 1);
        }
        ctx.delay(Dur::micros(20.0));
    });
    sim.run().unwrap();
}

#[test]
fn a_budget_past_the_end_of_time_blocks() {
    // `now + budget` saturates instead of wrapping into the past, and a
    // deadline at the end of time is no deadline: every wait behaves as
    // `Wait::Block` and queues no timer that could end the run there.
    let forever = Wait::Until(Dur::secs(f64::INFINITY));
    assert_eq!(forever.deadline(SimTime(10)), None);
    assert_eq!(Wait::Until(Dur::nanos(u64::MAX - 11)).deadline(SimTime(10)), Some(SimTime(!0 - 1)));
    let mut sim = Sim::new();
    let h = sim.handle();
    let (a, b) = (h.new_event(), h.new_event());
    let board = h.new_board();
    h.complete_at(a, SimTime(1_000));
    h.complete_at(b, SimTime(2_000));
    h.schedule_at(SimTime(3_000), move |h| h.board_post(board, 5, 50));
    sim.spawn("waiter", move |ctx| {
        ctx.delay(Dur::nanos(10));
        assert_eq!(ctx.wait_any(&[b, a], forever), Ok(1));
        assert_eq!(ctx.now(), SimTime(1_000));
        assert_eq!(ctx.wait_all(&[a, b], forever), Ok(()));
        assert_eq!(ctx.now(), SimTime(2_000));
        assert_eq!(ctx.board_waitsome(board, 0, 8, forever), Ok((5, 50)));
        assert_eq!(ctx.now(), SimTime(3_000));
    });
    let rep = sim.run().unwrap();
    // Start and delay wakes, then one action and one wake per wait.
    assert_eq!((rep.end_time, rep.entries_processed), (SimTime(3_000), 8));
}

// ---------------------------------------------------------------------------
// Deterministic fault injection.
// ---------------------------------------------------------------------------

use diomp_sim::{fault_key, CtrlFault, FaultPlan};

#[test]
fn degraded_window_stretches_only_covered_transfers() {
    let run = |degrade: bool| -> (SimTime, SimTime) {
        let mut sim = Sim::new();
        let h = sim.handle();
        let res = h.new_resource(1.0, Dur::nanos(100)); // 1 B/ns
        if degrade {
            sim.set_fault_plan(FaultPlan::new().degrade_link(
                res,
                SimTime(0),
                SimTime(500_000),
                500,
            ));
        }
        let out = Arc::new(parking_lot::Mutex::new((SimTime::ZERO, SimTime::ZERO)));
        let out2 = out.clone();
        sim.spawn("xfer", move |ctx| {
            let a = ctx.transfer(res, 1000); // starts at t=0: inside the window
            ctx.sleep_until(SimTime(1_000_000));
            let b = ctx.transfer(res, 1000); // starts at 1 ms: outside
            *out2.lock() = (a.arrive, b.arrive);
        });
        sim.run().unwrap();
        let g = out.lock();
        *g
    };
    let (clean_a, clean_b) = run(false);
    assert_eq!(clean_a, SimTime(1_100));
    let (slow_a, slow_b) = run(true);
    assert_eq!(slow_a, SimTime(2_100), "half bandwidth doubles the busy time");
    assert_eq!(slow_b, clean_b, "post-window transfer unaffected");
}

#[test]
fn flap_holds_transfers_until_the_window_closes() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let res = h.new_resource(1.0, Dur::ZERO);
    sim.set_fault_plan(FaultPlan::new().flap_link(res, SimTime(0), SimTime(5_000)));
    sim.spawn("xfer", move |ctx| {
        let t = ctx.transfer(res, 100);
        assert_eq!(t.start, SimTime(5_000), "held until the flap clears");
        assert_eq!(t.arrive, SimTime(5_100));
    });
    sim.run().unwrap();
}

#[test]
fn stragglers_stretch_delays_of_matching_tasks_only() {
    let times = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let mut sim = Sim::new();
    sim.set_fault_plan(FaultPlan::new().straggle("slow", 2000));
    for name in ["slow-rank", "fast-rank"] {
        let times = times.clone();
        sim.spawn(name, move |ctx| {
            ctx.delay(Dur::micros(10.0));
            times.lock().push((name, ctx.now()));
        });
    }
    sim.run().unwrap();
    let g: Vec<(&str, SimTime)> = times.lock().clone();
    assert!(g.contains(&("slow-rank", SimTime(20_000))), "2x straggle factor: {g:?}");
    assert!(g.contains(&("fast-rank", SimTime(10_000))), "non-matching task unaffected");
}

#[test]
fn ctrl_faults_are_consumed_once_per_key() {
    let mut sim = Sim::new();
    let k = fault_key("test-proto", 1, 2);
    sim.set_fault_plan(FaultPlan::new().ctrl_fault(k, CtrlFault::Drop));
    sim.spawn("t", move |ctx| {
        assert_eq!(ctx.take_ctrl_fault(k), Some(CtrlFault::Drop));
        assert_eq!(ctx.take_ctrl_fault(k), None, "single charge");
        assert_eq!(ctx.take_ctrl_fault(fault_key("test-proto", 1, 3)), None);
    });
    sim.run().unwrap();
}

#[test]
fn same_fault_plan_replays_bit_identically() {
    // The determinism contract the CI chaos step enforces: two runs of
    // the same seeded plan produce identical end times and entry counts.
    let run = |seed: u64| {
        let mut sim = Sim::new();
        let h = sim.handle();
        let links: Vec<_> = (0..4).map(|_| h.new_resource(2.0, Dur::nanos(500))).collect();
        sim.set_fault_plan(FaultPlan::randomized(
            seed,
            &links,
            &["rank".to_string()],
            Dur::millis(1.0),
        ));
        for r in 0..4usize {
            let links = links.clone();
            sim.spawn(format!("rank{r}"), move |ctx| {
                for i in 0..8 {
                    ctx.delay(Dur::micros(3.0));
                    let t = ctx.transfer(links[(r + i) % 4], 4096);
                    let ev = ctx.new_event();
                    ctx.complete_at(ev, t.arrive);
                    ctx.drain(&[ev], Wait::Block).unwrap();
                }
            });
        }
        let rep = sim.run().unwrap();
        (rep.end_time, rep.entries_processed)
    };
    for seed in [1u64, 7, 42] {
        assert_eq!(run(seed), run(seed), "seed {seed} must replay identically");
    }
    assert_ne!(run(1).0, run(7).0, "different seeds should usually diverge");
}

#[test]
fn disabled_injection_is_bit_identical_to_no_injection() {
    // Zero-cost-when-off: installing an empty plan (or none) must not
    // change a single timestamp or entry count.
    let run = |empty_plan: bool| {
        let mut sim = Sim::new();
        let h = sim.handle();
        let res = h.new_resource(4.0, Dur::nanos(800));
        if empty_plan {
            sim.set_fault_plan(FaultPlan::new());
        }
        sim.enable_trace();
        for r in 0..3usize {
            sim.spawn(format!("rank{r}"), move |ctx| {
                for _ in 0..16 {
                    ctx.delay(Dur::micros(1.0));
                    let t = ctx.transfer(res, 8192);
                    let ev = ctx.new_event();
                    ctx.complete_at(ev, t.arrive);
                    ctx.drain(&[ev], Wait::Block).unwrap();
                }
            });
        }
        let rep = sim.run().unwrap();
        (rep.end_time, rep.entries_processed, format!("{:?}", rep.trace))
    };
    assert_eq!(run(false), run(true));
}

// ---------------------------------------------------------------------------
// The baton holder is the scheduler: identity with the scheduler-thread
// kernel it replaced, handoff accounting, and handoff safety.
// ---------------------------------------------------------------------------

/// Every primitive the dispatcher treats differently, in one run: tasks,
/// actions, bounded waits that time out and that succeed, board waits,
/// a wait-any group, a coalesced sleep, a straggler and a degraded link,
/// and mid-run spawns from both a task and an action.
fn golden_scenario() -> SimReport {
    let mut sim = Sim::new();
    sim.enable_trace();
    let h = sim.handle();
    let link = h.new_resource(1.0, Dur::nanos(100));
    sim.set_fault_plan(
        FaultPlan::new().degrade_link(link, SimTime(0), SimTime(4_000), 500).straggle("slow", 1500),
    );
    let board = h.new_board();
    let e: [diomp_sim::EventId; 4] = std::array::from_fn(|_| h.new_event());
    h.complete_at(e[0], SimTime(1_500));
    h.complete_at(e[1], SimTime(5_000));
    h.complete_at(e[2], SimTime(5_000));
    h.complete_at(e[3], SimTime(9_000));
    h.schedule_at(SimTime(3_000), move |h| {
        h.trace("action", "spawning");
        h.spawn("from-action", move |ctx| {
            ctx.yield_now();
            ctx.delay(Dur::nanos(250));
            ctx.board_post(board, 3, 30);
            ctx.trace("from-action", format!("posted at {}", ctx.now().nanos()));
        });
    });
    sim.spawn("waiter", move |ctx| {
        let r = ctx.wait_all(&e[..2], Wait::Until(Dur::micros(2.0)));
        ctx.trace("waiter", format!("first {:?}", r.map_err(|t| t.at.nanos())));
        let r = ctx.wait_all(&e[..3], Wait::Until(Dur::micros(10.0)));
        ctx.trace("waiter", format!("second {:?}", r.map_err(|t| t.at.nanos())));
        let i = ctx.wait_any(&e[2..], Wait::Block).unwrap();
        ctx.trace("waiter", format!("any {i}"));
        ctx.wait_all(&e, Wait::Block).unwrap();
    });
    sim.spawn("boarder", move |ctx| {
        for _ in 0..3 {
            let (id, v) = ctx.board_waitsome(board, 0, 4, Wait::Block).unwrap();
            ctx.trace("boarder", format!("got {id}={v}"));
        }
        let r = ctx.board_waitsome(board, 0, 4, Wait::Until(Dur::micros(1.0)));
        ctx.trace("boarder", format!("last {:?}", r.map_err(|t| t.at.nanos())));
    });
    sim.spawn("slow-poster", move |ctx| {
        ctx.delay(Dur::micros(1.0)); // straggled to 1.5 us
        let tr = ctx.transfer(link, 1_000); // inside the degraded window
        ctx.trace("slow-poster", format!("arrive {}", tr.arrive.nanos()));
        ctx.sleep_until(tr.arrive);
        ctx.board_post(board, 2, 20);
        ctx.handle().spawn("kid", move |ctx| {
            ctx.delay(Dur::nanos(700));
            ctx.board_post(board, 1, 10);
            ctx.sleep_until_coalesced(SimTime(12_000), 7);
        });
        ctx.wait_all(&[e[3]], Wait::Block).unwrap();
    });
    sim.run().unwrap()
}

/// `golden_scenario`'s trace (`nanos who what`) under the scheduler-thread
/// kernel of the parent commit (8f23af6), where it also read end 12000,
/// 25 entries, 7 coalesced chunks.
const GOLDEN_TRACE: [&str; 29] = [
    "0 waiter wake",
    "0 boarder wake",
    "0 slow-poster wake",
    "1500 slow-poster wake",
    "1500 slow-poster arrive 3600",
    "2000 waiter wake",
    "2000 waiter first Err(2000)",
    "3000 action spawning",
    "3000 from-action wake",
    "3000 from-action wake",
    "3250 from-action wake",
    "3250 from-action posted at 3250",
    "3250 boarder wake",
    "3250 boarder got 3=30",
    "3600 slow-poster wake",
    "3600 boarder wake",
    "3600 boarder got 2=20",
    "3600 kid wake",
    "4300 kid wake",
    "4300 boarder wake",
    "4300 boarder got 1=10",
    "5000 waiter wake",
    "5000 waiter second Ok(())",
    "5000 waiter any 0",
    "5300 boarder wake",
    "5300 boarder last Err(5300)",
    "9000 slow-poster wake",
    "9000 waiter wake",
    "12000 kid wake",
];

#[test]
fn golden_trace_matches_the_scheduler_thread_kernel() {
    let rep = golden_scenario();
    let trace: Vec<String> =
        rep.trace.iter().map(|r| format!("{} {} {}", r.t.nanos(), r.who, r.what)).collect();
    assert_eq!(trace, GOLDEN_TRACE);
    assert_eq!(rep.end_time, SimTime(12_000));
    assert_eq!(rep.entries_processed, 25);
    assert_eq!(rep.coalesced_chunks, 7);
    assert_eq!(rep.tasks_completed, 5);
    // Every fresh wake is either handed to another thread or consumed in
    // place by the task that was dispatching.
    let wakes = rep.trace.iter().filter(|r| r.what == "wake").count() as u64;
    assert_eq!(rep.handoffs + rep.inline_wakes, wakes);
    // In place: slow-poster at 1500, from-action at 3000 and 3250, kid at 4300.
    assert_eq!((rep.handoffs, rep.inline_wakes), (15, 4));
}

#[test]
fn a_lone_task_wakes_itself_without_leaving_its_thread() {
    let mut sim = Sim::new();
    sim.spawn("lone", |ctx| {
        for _ in 0..10_000 {
            ctx.delay(Dur::nanos(3));
        }
    });
    let rep = sim.run().unwrap();
    // Parent commit: end 30000, 10001 entries.
    assert_eq!((rep.end_time, rep.entries_processed), (SimTime(30_000), 10_001));
    // `run()` hands the baton over once; every other wake is the task's own.
    assert_eq!((rep.handoffs, rep.inline_wakes), (1, 10_000));
}

/// 64 tasks each yielding 2000 times: every wake resumes another task.
fn yield_ring() -> SimReport {
    let mut sim = Sim::new();
    for i in 0..64 {
        sim.spawn(format!("r{i}"), |ctx| {
            for _ in 0..2_000 {
                ctx.yield_now();
            }
        });
    }
    sim.run().unwrap()
}

#[test]
fn a_yield_ring_hands_the_baton_on_at_every_wake() {
    let rep = yield_ring();
    // Parent commit: end 0, 128064 entries.
    assert_eq!((rep.end_time, rep.entries_processed), (SimTime::ZERO, 128_064));
    assert_eq!((rep.handoffs, rep.inline_wakes), (128_064, 0));
    let again = yield_ring();
    assert_eq!((again.handoffs, again.inline_wakes), (rep.handoffs, rep.inline_wakes));
}

#[test]
fn a_sim_runs_to_completion_inside_another_sims_task() {
    // The inner `run()` sleeps on the same OS thread's park token the
    // outer kernel uses to resume `host`; a token left over from either
    // must cost a trip round the flag loop and nothing else.
    let mut outer = Sim::new();
    let ev = outer.handle().new_event();
    outer.spawn("host", move |ctx| {
        for round in 0..50u64 {
            ctx.delay(Dur::nanos(10));
            let mut inner = Sim::new();
            let ping = inner.handle().new_event();
            inner.spawn("a", move |ctx| {
                ctx.delay(Dur::nanos(round + 1));
                ctx.complete(ping);
            });
            inner.spawn("b", move |ctx| {
                ctx.wait_all(&[ping], Wait::Block).unwrap();
                ctx.yield_now();
            });
            let rep = inner.run().unwrap();
            assert_eq!((rep.end_time, rep.tasks_completed), (SimTime(round + 1), 2));
        }
        ctx.complete(ev);
    });
    outer.spawn("peer", move |ctx| {
        for _ in 0..100 {
            ctx.delay(Dur::nanos(5));
        }
        ctx.wait_all(&[ev], Wait::Block).unwrap();
    });
    let rep = outer.run().unwrap();
    assert_eq!((rep.end_time, rep.tasks_completed), (SimTime(500), 2));
}

#[test]
fn handoff_stress_loses_no_wake_up() {
    // Unpinned, so passer and taker really race on two CPUs where there
    // are two: a lost wake-up hangs the run (CI bounds it with `timeout`).
    // Mixes cross-task handoffs (ring of event completions), self-wakes
    // (delays) and action-driven wakes.
    let run = || {
        let mut sim = Sim::new();
        let h = sim.handle();
        let n = 8usize;
        let rounds = 1_000usize;
        let evs: Arc<Vec<Vec<diomp_sim::EventId>>> =
            Arc::new((0..n).map(|_| (0..rounds).map(|_| h.new_event()).collect()).collect());
        for r in 0..n {
            let evs = evs.clone();
            sim.spawn(format!("r{r}"), move |ctx| {
                for k in 0..rounds {
                    if r != 0 || k != 0 {
                        // Wait for the left neighbour's token of this round.
                        ctx.wait_all(&[evs[r][k]], Wait::Block).unwrap();
                    }
                    if k % 3 == 0 {
                        ctx.delay(Dur::nanos(1));
                    }
                    let (next, round) = if r + 1 < n { (r + 1, k) } else { (0, k + 1) };
                    if round < rounds {
                        if k % 5 == 0 {
                            ctx.complete_at(evs[next][round], ctx.now() + Dur::nanos(2));
                        } else {
                            ctx.complete(evs[next][round]);
                        }
                    }
                }
            });
        }
        let rep = sim.run().unwrap();
        (rep.end_time, rep.entries_processed, rep.handoffs, rep.inline_wakes)
    };
    let first = run();
    assert!(first.2 >= 8_000, "the ring must actually hand off: {first:?}");
    for _ in 1..20 {
        assert_eq!(run(), first);
    }
}

#[test]
fn topology_ids_are_stable_and_the_upload_lanes_come_last() {
    // Fault plans name links by id (a probe topology stands in for the
    // run's own), so NIC, port, D2H and shm ids are pinned to what they
    // were while a host link had one lane; the H2D lanes follow them all.
    use diomp_sim::{ClusterSpec, DevLoc, PlatformSpec, Topology};
    let sim = Sim::new();
    let spec = ClusterSpec { platform: PlatformSpec::platform_a(), nodes: 2, gpus_per_node: 4 };
    let topo = Topology::build(&sim.handle(), spec);
    for node in 0..2 {
        for gpu in 0..4 {
            let (loc, base) = (DevLoc { node, gpu }, 13 * node + gpu);
            let ids = [topo.nic_for(loc), topo.gpu_port(loc), topo.d2h(loc), topo.h2d(loc)];
            assert_eq!(ids.map(|r| r.index()), [base, base + 4, base + 8, 26 + 4 * node + gpu]);
        }
        assert_eq!(topo.shm(node).index(), 13 * node + 12);
    }
}
