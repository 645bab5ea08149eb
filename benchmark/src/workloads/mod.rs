//! The five workloads. Each stresses a different layer, so a gain on one
//! layer shows on the workload that exercises it and as "no change" on
//! the ones that bypass it (see `benchmark/README.md` for the table).

pub mod apps_scaling;
pub mod coll_sweep;
pub mod rma_stream;
pub mod scale_ranks;
pub mod tenant_chaos;

use std::sync::Arc;

use crate::stats::{median, tail};
use crate::trace::{Scope, Span, Tracer};

/// Ops attempted and failed by a correctness pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
}

impl Check {
    /// Count one checked op.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Fold another pass into this one.
    pub fn add(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Median and tail of an iteration's virtual op latencies.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpStats {
    pub p50_us: f64,
    pub tail_us: f64,
    /// Which percentile the tail is (100 for a maximum).
    pub tail_percentile: f64,
    pub samples: usize,
}

impl OpStats {
    /// Median and reporting-rule tail of raw latency samples, µs.
    pub fn of(us: &[f64]) -> OpStats {
        if us.is_empty() {
            return OpStats::default();
        }
        let t = tail(us);
        OpStats {
            p50_us: median(us),
            tail_us: t.value,
            tail_percentile: t.percentile,
            samples: us.len(),
        }
    }
}

/// What one iteration produced. Everything here is virtual or counted,
/// so it repeats exactly from iteration to iteration; host time is taken
/// by the caller around `iterate`.
#[derive(Clone, Debug, Default)]
pub struct IterOut {
    /// Virtual time the iteration's ops took, ns (each workload says
    /// which spans of virtual time it sums).
    pub virt_ns: u64,
    /// Virtual end time of every simulation run of the iteration, summed;
    /// with `entries`, what must repeat from iteration to iteration.
    pub end_ns: u64,
    /// Scheduler entries, summed over the runs that report them.
    pub entries: u64,
    /// Chunk completions folded into coalesced wakes (0 where the run
    /// hides its `SimReport`).
    pub coalesced: u64,
    /// Virtual latency of the iteration's ops; what an op is differs per workload.
    pub ops: OpStats,
    /// Payload rate of the iteration in GB/s of virtual time.
    pub goodput_gbps: f64,
    /// Ops attempted and failed (byte mismatches, `Err`s, `SimError`s, give-ups).
    pub check: Check,
}

/// Named per-layer values a traced run derives for a workload.
pub type Ledger = Vec<(&'static str, f64)>;

/// One workload, prepared from a seed.
pub trait Workload {
    /// The Functional-mode correctness pass of set-up: real bytes through
    /// the same paths, compared with a reference.
    fn verify(&self) -> Check;

    /// The warm-up that ends set-up: one iteration, unless the workload
    /// has a cheaper way to fault in what an iteration touches.
    fn warm_up(&self) -> Check {
        self.iterate(&Arc::new(Tracer::new(false)), Scope::default()).check
    }

    /// One iteration. `scope` is the iteration's root span.
    fn iterate(&self, tr: &Arc<Tracer>, scope: Scope) -> IterOut;

    /// The per-layer metrics this workload is the home of, from the spans
    /// of its traced iterations (`spans` holds only this workload's).
    fn layer_metrics(&self, spans: &[Span], outs: &[IterOut]) -> Ledger;
}

/// Registry row of a workload.
pub struct Entry {
    pub name: &'static str,
    /// Pinned host seconds of one iteration on the reference box; fixes
    /// the iteration count for a given `--seconds`, so counts repeat
    /// exactly (never a time-bounded loop).
    pub iter_seconds: f64,
    /// Build the workload's inputs and tables from the seed.
    pub prepare: fn(u64) -> Box<dyn Workload>,
}

/// Fewest iterations a measured window may have.
pub const MIN_ITERS: u32 = 6;

impl Entry {
    /// Iterations measured for a window of `seconds`.
    pub fn iterations(&self, seconds: u32) -> u32 {
        ((f64::from(seconds) / self.iter_seconds).round() as u32).max(MIN_ITERS)
    }
}

/// Every workload, in reporting order.
pub const ALL: [Entry; 5] = [
    Entry { name: "rma_stream", iter_seconds: 0.85, prepare: rma_stream::prepare },
    Entry { name: "coll_sweep", iter_seconds: 1.36, prepare: coll_sweep::prepare },
    Entry { name: "scale_ranks", iter_seconds: 3.04, prepare: scale_ranks::prepare },
    Entry { name: "tenant_chaos", iter_seconds: 1.21, prepare: tenant_chaos::prepare },
    Entry { name: "apps_scaling", iter_seconds: 1.45, prepare: apps_scaling::prepare },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Entry> {
    ALL.iter().find(|e| e.name == name)
}

/// Sum of host duration (ns) and count of the spans selected by `pick`.
pub fn host_ns_where(spans: &[Span], pick: impl Fn(&Span) -> bool) -> (u64, u64) {
    spans.iter().filter(|s| pick(s)).fold((0, 0), |(t, n), s| (t + s.host_ns(), n + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_counts_are_fixed_by_seconds_and_never_below_six() {
        let e = find("rma_stream").unwrap();
        assert_eq!(e.iterations(12), 14);
        assert_eq!(e.iterations(12), e.iterations(12));
        assert_eq!(e.iterations(1), MIN_ITERS);
        assert!(find("nope").is_none());
    }
}
