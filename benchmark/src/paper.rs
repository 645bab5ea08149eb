//! The few reference values of the paper's Figs. 6–8 the benchmark
//! compares against — the only reference the repository holds. Copied
//! here (read off the published plots) rather than imported from
//! `diomp-bench`, so the benchmark does not depend on a crate the roadmap
//! plans to slim down.

/// Fig. 6 cell: `(platform, op, nominal bytes, published log10(t_MPI / t_DiOMP))`.
/// Platform A is Slingshot-11 + A100 (64 GPUs), C is NDR IB + GH200 (16 GPUs).
pub const FIG6: [(char, &str, u64, f64); 14] = [
    ('A', "bcast", 32 << 10, -0.07),
    ('A', "bcast", 512 << 10, -0.41),
    ('A', "bcast", 4 << 20, 0.01),
    ('A', "bcast", 16 << 20, 0.18),
    ('C', "bcast", 32 << 10, -0.14),
    ('C', "bcast", 512 << 10, 0.09),
    ('C', "bcast", 4 << 20, 0.42),
    ('C', "bcast", 16 << 20, 0.53),
    ('A', "allred", 512 << 10, 0.15),
    ('A', "allred", 4 << 20, 0.43),
    ('A', "allred", 16 << 20, 0.85),
    ('C', "allred", 512 << 10, -0.18),
    ('C', "allred", 4 << 20, 0.32),
    ('C', "allred", 16 << 20, 0.36),
];

/// Fig. 7 (ring matmul, strong scaling): matrix dimension and GPU ladders.
pub const FIG7_N: usize = 30240;
pub const FIG7_GPUS_A: [usize; 10] = [4, 8, 12, 16, 20, 24, 28, 32, 36, 40];
pub const FIG7_GPUS_B: [usize; 8] = [8, 16, 24, 32, 40, 48, 56, 64];
/// Fig. 7 peak DiOMP speedup over the single-node baseline, platforms A and B.
pub const FIG7_PEAK_DIOMP: [f64; 2] = [20.0, 25.0];

/// Fig. 8 (Minimod, 1200³ grid): grid edge and GPU ladders.
pub const FIG8_GRID: usize = 1200;
pub const FIG8_GPUS_A: [usize; 8] = [4, 8, 12, 16, 20, 24, 28, 32];
pub const FIG8_GPUS_B: [usize; 8] = [8, 16, 24, 32, 40, 48, 56, 64];
/// Fig. 8 peak DiOMP speedup over MPI's single-node time, platforms A and B.
pub const FIG8_PEAK_DIOMP: [f64; 2] = [4.8, 4.6];

/// Mean absolute error of measured against published values.
pub fn mae(pairs: &[(f64, f64)]) -> f64 {
    pairs.iter().map(|(m, p)| (m - p).abs()).sum::<f64>() / pairs.len() as f64
}

/// Share of cells whose winner (sign) matches the paper. A published
/// value within ±0.05 is a tie and matches a measured value within ±0.15.
pub fn sign_agreement(pairs: &[(f64, f64)]) -> f64 {
    let hits = pairs
        .iter()
        .filter(|(m, p)| if p.abs() < 0.05 { m.abs() < 0.15 } else { m.signum() == p.signum() })
        .count();
    hits as f64 / pairs.len() as f64
}

/// Relative error of a measured peak against the published one.
pub fn peak_err(measured: f64, published: f64) -> f64 {
    (measured - published).abs() / published
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_helpers_match_their_definitions() {
        let pairs = [(0.10, 0.01), (-0.3, -0.5), (0.4, 0.3), (-0.2, 0.3)];
        assert!((sign_agreement(&pairs) - 0.75).abs() < 1e-12);
        assert!((mae(&[(0.2, 0.0), (-0.2, 0.0)]) - 0.2).abs() < 1e-12);
        assert!((peak_err(18.0, 20.0) - 0.1).abs() < 1e-12);
    }
}
