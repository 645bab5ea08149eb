//! Lightweight measurement helpers for the benchmark harnesses.

use crate::time::Dur;

/// Collects duration samples and reports summary statistics.
#[derive(Default, Debug, Clone)]
pub struct Meter {
    samples: Vec<f64>, // microseconds
}

impl Meter {
    /// Empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration sample.
    pub fn record(&mut self, d: Dur) {
        self.samples.push(d.as_us());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The `p`-th percentile sample in microseconds (0 if empty), with
    /// `p` in `[0, 100]`. Nearest-rank method on the sorted samples, so
    /// the result is always an observed value — the convention used for
    /// the per-job latency quantiles in the multi-tenant benchmarks.
    fn percentile_us(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        debug_assert!((0.0..=100.0).contains(&p), "percentile out of range");
        let mut s = self.samples.clone();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
        s[rank.clamp(1, s.len()) - 1]
    }

    /// 50th-percentile (nearest-rank) sample in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.percentile_us(50.0)
    }

    /// 99th-percentile (nearest-rank) sample in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.percentile_us(99.0)
    }
}

/// Achieved bandwidth for a transfer of `bytes` over `elapsed`.
///
/// Returns GB/s (10^9 bytes per second).
pub fn bandwidth_gbps(bytes: u64, elapsed: Dur) -> f64 {
    if elapsed.as_nanos() == 0 {
        return f64::INFINITY;
    }
    bytes as f64 / elapsed.as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_statistics() {
        let mut m = Meter::new();
        for us in [1.0, 2.0, 3.0, 10.0] {
            m.record(Dur::micros(us));
        }
        assert_eq!(m.count(), 4);
        // The extremes and the nearest-rank median are observed samples.
        assert!((m.percentile_us(0.0) - 1.0).abs() < 1e-9);
        assert!((m.p50_us() - 2.0).abs() < 1e-9);
        assert!((m.percentile_us(100.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut m = Meter::new();
        for us in 1..=100 {
            m.record(Dur::micros(us as f64));
        }
        assert!((m.p50_us() - 50.0).abs() < 1e-9);
        assert!((m.p99_us() - 99.0).abs() < 1e-9);
        assert!((m.percentile_us(100.0) - 100.0).abs() < 1e-9);
        // A lone sample is every percentile.
        let mut one = Meter::new();
        one.record(Dur::micros(7.0));
        assert!((one.p99_us() - 7.0).abs() < 1e-9);
        assert_eq!(Meter::new().p99_us(), 0.0);
    }

    #[test]
    fn bandwidth_math() {
        // 1000 bytes in 1000 ns = 1 GB/s.
        assert!((bandwidth_gbps(1000, Dur::nanos(1000)) - 1.0).abs() < 1e-12);
        // 25 bytes/ns = 25 GB/s.
        assert!((bandwidth_gbps(25_000, Dur::nanos(1000)) - 25.0).abs() < 1e-12);
    }
}
