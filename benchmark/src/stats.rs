//! Order statistics with the benchmark's reporting rule: a median, and
//! the highest percentile that still has at least ten samples beyond it.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;
/// With fewer samples than this the maximum is reported instead.
pub const TAIL_MIN_SAMPLES: usize = 20;

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest of `xs`. Iterations do identical, deterministic work, so
/// whatever one takes beyond the fastest is the host interfering, and on
/// a shared box that comes in stretches of seconds that shift a run's
/// median by up to a fifth while its minimum moves by a few percent.
pub fn min(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "minimum of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The reported tail of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The tail value.
    pub value: f64,
    /// Which percentile it is (100 for the maximum).
    pub percentile: f64,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it; the maximum when there are fewer than [`TAIL_MIN_SAMPLES`]
/// samples.
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < TAIL_MIN_SAMPLES {
        return Tail { value: v[n - 1], percentile: 100.0 };
    }
    let idx = n - 1 - TAIL_BEYOND;
    Tail { value: v[idx], percentile: 100.0 * (idx + 1) as f64 / n as f64 }
}

/// Least-squares slope of `ln y` over `ln x`: the exponent `k` of
/// `y ∝ x^k` (the `sim.scale_exponent` of host time over rank count).
pub fn log_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (lx, ly): (Vec<f64>, Vec<f64>) = points.iter().map(|&(x, y)| (x.ln(), y.ln())).unzip();
    let (mx, my) = (lx.iter().sum::<f64>() / n, ly.iter().sum::<f64>() / n);
    let num: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let den: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Out of order on purpose: the functions must sort. 7919 is prime
        // and larger than every n used, so the map is a permutation.
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn min_is_the_smallest_sample() {
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(min(&[7.0]), 7.0);
    }

    #[test]
    fn tail_is_the_maximum_under_twenty_samples() {
        for n in [1, 2, 10, 11, 19] {
            let t = tail(&ramp(n));
            assert_eq!(t.value, (n - 1) as f64, "n = {n}");
            assert_eq!(t.percentile, 100.0);
        }
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        for n in [20usize, 21, 44, 68, 1000, 4800] {
            let xs = ramp(n);
            let t = tail(&xs);
            let beyond = xs.iter().filter(|&&x| x > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
            assert_eq!(t.value, (n - 11) as f64);
            assert!((t.percentile - 100.0 * (n - 10) as f64 / n as f64).abs() < 1e-9);
        }
        // 1000 samples: p99; 20 samples: p50.
        assert!((tail(&ramp(1000)).percentile - 99.0).abs() < 1e-9);
        assert!((tail(&ramp(20)).percentile - 50.0).abs() < 1e-9);
    }

    #[test]
    fn log_slope_recovers_a_power_law() {
        let pts: Vec<(f64, f64)> =
            [256.0f64, 1024.0, 2048.0, 4096.0].iter().map(|&x| (x, 3.0 * x.powf(1.5))).collect();
        assert!((log_slope(&pts) - 1.5).abs() < 1e-9);
    }
}
