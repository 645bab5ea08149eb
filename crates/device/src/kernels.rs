//! Kernel cost models.
//!
//! A [`KernelCost`] converts a kernel's arithmetic/memory footprint into a
//! virtual duration for a given [`GpuSpec`]. Kernels may additionally
//! carry a *body* (see [`crate::Device::launch`]) that performs the real
//! computation on the backing memory in Functional mode — so correctness
//! tests exercise exactly the code path the paper-scale sweeps time.

use diomp_sim::{Dur, GpuSpec};

/// Fraction of peak FLOP/s a well-tuned GEMM reaches on huge operands.
const GEMM_EFF_MAX: f64 = 0.95;
/// GEMM efficiency floor for operands far larger than the L2 (streaming
/// regime).
const GEMM_EFF_MIN: f64 = 0.30;
/// Working-set size at which GEMM efficiency sits halfway between floor
/// and peak (bytes). Together with the floor/peak this calibrates the
/// *superlinear* strong-scaling of Fig. 7 (DESIGN.md D7): as the per-rank
/// stripes shrink, blocked GEMM re-reads operands from cache instead of
/// HBM and per-FLOP efficiency rises — the paper observes ~2× between the
/// 4-GPU and 40-GPU working sets.
const GEMM_WS_HALF: f64 = 512.0 * 1024.0 * 1024.0;

/// Fraction of peak HBM bandwidth achieved by a tuned stencil kernel.
const STENCIL_HBM_EFF: f64 = 0.72;

/// Fraction of peak FLOP/s achieved by generic elementwise kernels.
const ELEMENTWISE_EFF: f64 = 0.55;

/// Cost model of one kernel launch.
#[derive(Clone, Debug)]
pub enum KernelCost {
    /// Dense matrix multiply `C[m×n] += A[m×k] · B[k×n]`.
    Gemm {
        /// Rows of A/C.
        m: u64,
        /// Columns of B/C.
        n: u64,
        /// Inner dimension.
        k: u64,
        /// Element width in bytes (4 ⇒ FP32 rate, 8 ⇒ FP64 rate).
        dtype: u64,
    },
    /// Memory-bound stencil sweep (Minimod's 8th-order acoustic kernel).
    Stencil {
        /// Grid cells updated.
        cells: u64,
        /// Effective DRAM traffic per cell, bytes (reads + writes after
        /// cache filtering).
        bytes_per_cell: f64,
        /// FLOPs per cell (for the compute ceiling).
        flops_per_cell: f64,
    },
    /// Bandwidth-bound elementwise pass over `bytes` of memory.
    MemBound {
        /// DRAM bytes moved.
        bytes: u64,
    },
    /// Compute-bound kernel of `flops` floating-point operations.
    Compute {
        /// Total FLOPs.
        flops: u64,
        /// Element width in bytes (4 ⇒ FP32 rate, 8 ⇒ FP64 rate).
        dtype: u64,
    },
    /// Fixed duration (tests, ablations).
    Fixed(Dur),
}

/// Calibrated GEMM efficiency as a function of operand working set
/// (DESIGN.md D7). Returns a fraction of peak FLOP/s.
pub fn gemm_efficiency(spec: &GpuSpec, m: u64, n: u64, k: u64, dtype: u64) -> f64 {
    let ws = ((m * k + k * n + m * n) * dtype) as f64;
    // Logistic-style interpolation in working-set size: small operands
    // (cache-resident panels) run near peak; huge operands stream from HBM.
    let x = ws / (GEMM_WS_HALF * (spec.l2_mib / 40.0).max(0.25));
    GEMM_EFF_MIN + (GEMM_EFF_MAX - GEMM_EFF_MIN) / (1.0 + x)
}

impl KernelCost {
    /// FLOP/ns for the given element width.
    fn rate(spec: &GpuSpec, dtype: u64) -> f64 {
        let tflops = if dtype >= 8 { spec.fp64_tflops } else { spec.fp32_tflops };
        tflops * 1e3 // 1 TFLOP/s = 1e3 FLOP/ns
    }

    /// Modelled execution duration on `spec` (excluding launch latency,
    /// which [`crate::Device::launch`] adds).
    pub fn duration(&self, spec: &GpuSpec) -> Dur {
        match *self {
            KernelCost::Gemm { m, n, k, dtype } => {
                let flops = (2 * m * n * k) as f64;
                let eff = gemm_efficiency(spec, m, n, k, dtype);
                Dur::nanos((flops / (Self::rate(spec, dtype) * eff)).ceil() as u64)
            }
            KernelCost::Stencil { cells, bytes_per_cell, flops_per_cell } => {
                let mem_ns = cells as f64 * bytes_per_cell / (spec.hbm_gbps * STENCIL_HBM_EFF);
                let comp_ns =
                    cells as f64 * flops_per_cell / (Self::rate(spec, 4) * ELEMENTWISE_EFF);
                Dur::nanos(mem_ns.max(comp_ns).ceil() as u64)
            }
            KernelCost::MemBound { bytes } => {
                Dur::nanos((bytes as f64 / (spec.hbm_gbps * STENCIL_HBM_EFF)).ceil() as u64)
            }
            KernelCost::Compute { flops, dtype } => Dur::nanos(
                (flops as f64 / (Self::rate(spec, dtype) * ELEMENTWISE_EFF)).ceil() as u64,
            ),
            KernelCost::Fixed(d) => d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a100() -> GpuSpec {
        diomp_sim::PlatformSpec::platform_a().gpu
    }

    #[test]
    fn gemm_time_scales_with_flops() {
        let spec = a100();
        let small = KernelCost::Gemm { m: 256, n: 256, k: 256, dtype: 8 }.duration(&spec);
        let big = KernelCost::Gemm { m: 512, n: 512, k: 512, dtype: 8 }.duration(&spec);
        let ratio = big.as_nanos() as f64 / small.as_nanos() as f64;
        assert!(
            (7.0..9.5).contains(&ratio),
            "8x flops should be ~8x time at similar efficiency, got {ratio}"
        );
    }

    #[test]
    fn gemm_efficiency_rises_as_working_set_shrinks() {
        let spec = a100();
        // Per-rank Cannon stripes for N=30240 at P=4 vs P=40, in the
        // argument order `CannonConfig::gemm_cost` prices: (N/p, N, N/p).
        let e4 = gemm_efficiency(&spec, 7560, 30240, 7560, 8);
        let e40 = gemm_efficiency(&spec, 756, 30240, 756, 8);
        assert!(e40 > 1.35 * e4, "paper Fig. 7 superlinearity needs ≥1.35×, got {}", e40 / e4);
        assert!(e4 >= GEMM_EFF_MIN && e40 <= GEMM_EFF_MAX);
        // The working-set term is symmetric in which operand is the long
        // one, so (N/p, N/p, N) — the shape this test used to pin — is
        // the same efficiency. An asymmetric term must not split them
        // silently.
        assert_eq!(e4, gemm_efficiency(&spec, 7560, 7560, 30240, 8));
        assert_eq!(e40, gemm_efficiency(&spec, 756, 756, 30240, 8));
    }

    #[test]
    fn fp32_runs_faster_than_fp64_on_a100() {
        let spec = a100();
        let f64t = KernelCost::Compute { flops: 1 << 30, dtype: 8 }.duration(&spec);
        let f32t = KernelCost::Compute { flops: 1 << 30, dtype: 4 }.duration(&spec);
        assert!(f32t < f64t);
    }

    #[test]
    fn stencil_is_memory_bound_on_a100() {
        let spec = a100();
        // Minimod-style: ~34 B/cell of DRAM traffic, 67 flops/cell.
        let c = KernelCost::Stencil { cells: 1 << 20, bytes_per_cell: 34.0, flops_per_cell: 67.0 };
        let mem_only = KernelCost::MemBound { bytes: (34u64) << 20 }.duration(&spec);
        let t = c.duration(&spec);
        // Within 1% of the pure-bandwidth time ⇒ the memory term dominated.
        let diff = (t.as_nanos() as f64 - mem_only.as_nanos() as f64).abs();
        assert!(diff / (mem_only.as_nanos() as f64) < 0.01, "stencil should be memory-bound");
    }

    #[test]
    fn fixed_cost_is_passed_through() {
        let spec = a100();
        assert_eq!(KernelCost::Fixed(Dur::micros(3.0)).duration(&spec), Dur::micros(3.0));
    }
}
