//! Streams and the bounded stream pool.
//!
//! Reproduces the event/stream management of paper §3.2:
//!
//! * **Lazy allocation** — streams are created on demand, never
//!   preallocated.
//! * **Stream reuse** — idle pool streams are reused before new ones are
//!   created.
//! * **Bounded concurrency** — at most `MAX_ACTIVE_STREAMS` streams are in
//!   flight; when the bound is hit, the runtime *partially synchronises*:
//!   it waits for the completed half of the busy streams, releases them,
//!   and reuses one, sustaining pipeline throughput without unbounded
//!   device queue growth.
//!
//! A stream is an ordered work queue: each enqueued operation starts when
//! both the stream's previous work and the operation's own resources are
//! ready. The stream's `tail` is the virtual completion time of its last
//! operation — "synchronising" a stream means sleeping until its tail.

use diomp_sim::{Ctx, Dur, SimTime};

/// Default bound on in-flight streams per device (paper §3.2,
/// `MAX_ACTIVE_STREAMS`).
pub const MAX_ACTIVE_STREAMS: usize = 16;

/// Handle to a pool stream (index into the device's pool).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StreamId(pub usize);

#[derive(Debug, Clone)]
struct StreamState {
    tail: SimTime,
    in_use: bool,
}

/// Pool statistics (exposed for the `ablation_streams` bench and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Streams created (lazy allocations).
    pub created: u64,
    /// Acquisitions satisfied by reusing an idle stream.
    pub reused: u64,
    /// Partial synchronisations forced by the concurrency bound.
    pub partial_syncs: u64,
}

/// Per-device stream pool with bounded concurrency.
pub struct StreamPool {
    max_active: usize,
    streams: Vec<StreamState>,
    stats: StreamStats,
}

impl StreamPool {
    /// Pool with the given concurrency bound (≥ 1).
    pub fn new(max_active: usize) -> Self {
        assert!(max_active >= 1, "stream bound must be at least 1");
        StreamPool { max_active, streams: Vec::new(), stats: StreamStats::default() }
    }

    /// Acquire a stream, applying the lazy-allocation / reuse /
    /// partial-sync policy. May block (in virtual time) when the
    /// concurrency bound forces a partial synchronisation.
    pub(crate) fn acquire(&mut self, ctx: &mut Ctx) -> StreamId {
        // 1. Reuse a *quiescent* idle stream (tail already passed): new
        //    work must not queue behind an unrelated in-flight transfer.
        let now = ctx.now();
        if let Some(i) = self.streams.iter().position(|s| !s.in_use && s.tail <= now) {
            self.streams[i].in_use = true;
            self.stats.reused += 1;
            return StreamId(i);
        }
        // 2. Lazily create a new stream while under the bound.
        if self.streams.len() < self.max_active {
            self.streams.push(StreamState { tail: ctx.now(), in_use: true });
            self.stats.created += 1;
            return StreamId(self.streams.len() - 1);
        }
        // 3. At the bound, fall back to the earliest-tail idle stream
        //    (work queues behind its pending ops — CUDA semantics).
        if let Some((i, _)) =
            self.streams.iter().enumerate().filter(|(_, s)| !s.in_use).min_by_key(|(_, s)| s.tail)
        {
            self.streams[i].in_use = true;
            self.stats.reused += 1;
            return StreamId(i);
        }
        // 3. Bound reached: partial synchronisation. Wait for the earlier
        //    half of the busy streams (by completion time) and release them.
        self.stats.partial_syncs += 1;
        let mut tails: Vec<SimTime> = self.streams.iter().map(|s| s.tail).collect();
        tails.sort_unstable();
        let horizon = tails[(tails.len() - 1) / 2]; // median tail
        ctx.sleep_until(horizon);
        let now = ctx.now();
        for s in &mut self.streams {
            if s.tail <= now {
                s.in_use = false;
            }
        }
        let i = self
            .streams
            .iter()
            .position(|s| !s.in_use)
            .expect("partial sync must release at least one stream");
        self.streams[i].in_use = true;
        self.stats.reused += 1;
        StreamId(i)
    }

    /// Return a stream to the pool. Pending work keeps its ordering: a
    /// future user of the stream queues behind the current tail, matching
    /// CUDA/HIP stream semantics.
    pub fn release(&mut self, s: StreamId) {
        self.streams[s.0].in_use = false;
    }

    /// Enqueue `work` on the stream starting no earlier than `ready`
    /// (resource availability); returns the completion time.
    pub(crate) fn enqueue_from(&mut self, s: StreamId, ready: SimTime, work: Dur) -> SimTime {
        let st = &mut self.streams[s.0];
        let start = st.tail.max(ready);
        st.tail = start + work;
        st.tail
    }

    /// Enqueue work of duration `work` at the current time.
    pub fn enqueue(&mut self, s: StreamId, now: SimTime, work: Dur) -> SimTime {
        self.enqueue_from(s, now, work)
    }

    /// Force the stream tail to at least `t` (used when an operation's
    /// completion is computed externally, e.g. by a fabric transfer).
    pub fn advance_tail(&mut self, s: StreamId, t: SimTime) {
        let st = &mut self.streams[s.0];
        st.tail = st.tail.max(t);
    }

    /// Completion time of the stream's last enqueued operation.
    pub fn tail(&self, s: StreamId) -> SimTime {
        self.streams[s.0].tail
    }

    /// Latest tail across all streams (device-synchronise horizon).
    pub fn max_tail(&self) -> SimTime {
        self.streams.iter().map(|s| s.tail).max().unwrap_or(SimTime::ZERO)
    }

    /// Number of streams ever created.
    pub fn created(&self) -> usize {
        self.streams.len()
    }

    /// Pool statistics.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }
}

/// Block until the stream's work completes (`cudaStreamSynchronize`).
pub fn sync_stream(ctx: &mut Ctx, pool: &StreamPool, s: StreamId) {
    ctx.sleep_until(pool.tail(s));
}

/// Block until all work on the device completes (`cudaDeviceSynchronize`).
pub fn sync_device(ctx: &mut Ctx, pool: &StreamPool) {
    ctx.sleep_until(pool.max_tail());
}

#[cfg(test)]
mod tests {
    use super::*;
    use diomp_sim::Sim;

    #[test]
    fn streams_are_lazy_and_reused() {
        let mut sim = Sim::new();
        sim.spawn("t", |ctx| {
            let mut pool = StreamPool::new(8);
            let a = pool.acquire(ctx);
            assert_eq!(pool.stats().created, 1);
            pool.release(a);
            let b = pool.acquire(ctx);
            assert_eq!(b, a, "idle stream is reused, not recreated");
            assert_eq!(pool.stats().reused, 1);
            assert_eq!(pool.created(), 1);
        });
        sim.run().unwrap();
    }

    #[test]
    fn enqueue_orders_work_fifo() {
        let mut sim = Sim::new();
        sim.spawn("t", |ctx| {
            let mut pool = StreamPool::new(2);
            let s = pool.acquire(ctx);
            let t1 = pool.enqueue(s, ctx.now(), Dur::micros(10.0));
            let t2 = pool.enqueue(s, ctx.now(), Dur::micros(5.0));
            assert_eq!(t1, SimTime(10_000));
            assert_eq!(t2, SimTime(15_000), "second op queues behind first");
        });
        sim.run().unwrap();
    }

    #[test]
    fn bound_forces_partial_sync_of_half() {
        let mut sim = Sim::new();
        sim.spawn("t", |ctx| {
            let mut pool = StreamPool::new(4);
            // Occupy all four streams with staggered completion times.
            for i in 0..4 {
                let s = pool.acquire(ctx);
                pool.enqueue(s, ctx.now(), Dur::micros(10.0 * (i + 1) as f64));
            }
            assert_eq!(pool.stats().partial_syncs, 0);
            // Fifth acquisition must partially synchronise: wait for the
            // median tail (20 µs) and release the completed half.
            let _s = pool.acquire(ctx);
            assert_eq!(pool.stats().partial_syncs, 1);
            assert_eq!(ctx.now(), SimTime(20_000), "waited for median tail only");
            assert_eq!(pool.created(), 4, "no new stream created at the bound");
        });
        sim.run().unwrap();
    }

    #[test]
    fn sync_stream_waits_for_its_tail() {
        let mut sim = Sim::new();
        sim.spawn("t", |ctx| {
            let mut pool = StreamPool::new(2);
            let s = pool.acquire(ctx);
            pool.enqueue(s, ctx.now(), Dur::micros(7.0));
            assert_eq!(pool.tail(s), SimTime(7_000), "the tail is the completion instant");
            sync_stream(ctx, &pool, s);
            assert_eq!(ctx.now(), SimTime(7_000));
        });
        sim.run().unwrap();
    }

    #[test]
    fn sync_device_waits_for_all_streams() {
        let mut sim = Sim::new();
        sim.spawn("t", |ctx| {
            let mut pool = StreamPool::new(4);
            let a = pool.acquire(ctx);
            let b = pool.acquire(ctx);
            pool.enqueue(a, ctx.now(), Dur::micros(3.0));
            pool.enqueue(b, ctx.now(), Dur::micros(9.0));
            sync_device(ctx, &pool);
            assert_eq!(ctx.now(), SimTime(9_000));
        });
        sim.run().unwrap();
    }

    #[test]
    fn released_stream_keeps_its_tail_ordering() {
        let mut sim = Sim::new();
        sim.spawn("t", |ctx| {
            let mut pool = StreamPool::new(1);
            let s = pool.acquire(ctx);
            pool.enqueue(s, ctx.now(), Dur::micros(10.0));
            pool.release(s);
            let s2 = pool.acquire(ctx);
            assert_eq!(s2, s);
            let done = pool.enqueue(s2, ctx.now(), Dur::micros(1.0));
            assert_eq!(done, SimTime(11_000), "new work queues behind old tail");
        });
        sim.run().unwrap();
    }
}
