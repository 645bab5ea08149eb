//! Ring matrix multiplication (paper §4.4).
//!
//! `C = A × B` on P devices with the paper's 1-D ring decomposition:
//! rank *r* owns row-stripes `A_r`, `B_r`, `C_r` of height `Ns = N/P` and
//! an extra B stripe for communication/computation overlap. B stripes
//! counter-rotate in halves: the top `Ns/2` rows of each travel the ring
//! forward, the rows below travel it backward, so at step *s* rank *r*
//! holds the top of `B_{r+s}` over the bottom of `B_{r−s}` and one GEMM
//! multiplies each half with its `Ns`-wide column block of `A_r`
//! (workload `N·Ns·Ns` per step, as in the paper). Meanwhile it pulls
//! the next top half from its right neighbour and the next bottom half
//! from its left, so every inter-node crossing carries half a stripe in
//! each direction, on two NICs at once (DESIGN D21).
//!
//! Two implementations share this module's setup and verification:
//! [`diomp::run`] (one-sided `ompx_get` ×2 + `ompx_fence`, GPUDirect
//! paths intra-node) and [`mpi::run`] (`MPI_Isend`/`Irecv` ×2 +
//! `Waitall` over CUDA-aware staging) — the Fig. 7 comparison.

pub mod diomp;
pub mod mpi;

use diomp_device::{DataMode, DeviceMem, KernelCost};
use diomp_sim::{Dur, PlatformSpec};

use crate::matgen;

/// Problem + machine configuration for one matmul run.
#[derive(Clone)]
pub struct CannonConfig {
    /// Hardware platform.
    pub platform: PlatformSpec,
    /// Total devices (= ranks; one device per rank).
    pub gpus: usize,
    /// Matrix dimension N (divisible by `gpus`).
    pub n: usize,
    /// Functional (verify) or CostOnly (paper scale).
    pub mode: DataMode,
    /// Check the result against the serial reference (Functional only).
    pub verify: bool,
}

impl CannonConfig {
    /// Stripe height. When N does not divide evenly (e.g. 30240 on 64
    /// GCDs), the matrix is padded up to the next multiple — the manual
    /// padding practice the paper itself recommends for symmetric
    /// allocation (§3.2). Functional verification requires exact
    /// divisibility.
    pub fn ns(&self) -> usize {
        if !self.n.is_multiple_of(self.gpus) {
            assert!(
                self.mode == DataMode::CostOnly,
                "Functional runs need N divisible by the device count"
            );
        }
        self.n.div_ceil(self.gpus)
    }

    /// Stripe size in bytes.
    pub fn stripe_bytes(&self) -> u64 {
        (self.ns() * self.n * 8) as u64
    }

    /// Kernel cost of one iteration's block GEMM.
    pub fn gemm_cost(&self) -> KernelCost {
        KernelCost::Gemm { m: self.ns() as u64, n: self.n as u64, k: self.ns() as u64, dtype: 8 }
    }

    /// Global heap needed per device: A, B×2, C stripes + slack, scaled
    /// so the symmetric region (75 % of the heap) holds them.
    pub fn heap_bytes(&self) -> u64 {
        (self.stripe_bytes() * 4 + (2 << 20)) * 3 / 2
    }
}

/// Result of one run.
#[derive(Clone, Copy, Debug)]
pub struct CannonResult {
    /// Virtual time of the compute+communication phase (max over ranks).
    pub elapsed: Dur,
    /// Whether verification ran and passed.
    pub verified: bool,
    /// Wire bytes the busiest NIC carried, setup included.
    pub nic_bytes_max: u64,
}

/// The GEMM body executed on real data in Functional mode: for each
/// `(j, ks)` of `parts`, `C += A[:, j*ns + ks] × Bcur[ks, :]` — rows `ks`
/// of the held buffer being rows `ks` of stripe `B_j` — all stripes
/// row-major `ns×n` resident in device memory at the given addresses.
pub(crate) fn gemm_body(
    mem: &DeviceMem,
    a_addr: u64,
    b_addr: u64,
    c_addr: u64,
    ns: usize,
    n: usize,
    parts: &[(usize, std::ops::Range<usize>)],
) {
    let stripe = (ns * n * 8) as u64;
    let mut a = vec![0u8; stripe as usize];
    let mut b = vec![0u8; stripe as usize];
    let mut c = vec![0u8; stripe as usize];
    mem.read(a_addr, &mut a).expect("A stripe read");
    mem.read(b_addr, &mut b).expect("B stripe read");
    mem.read(c_addr, &mut c).expect("C stripe read");
    let a = matgen::from_bytes_f64(&a);
    let b = matgen::from_bytes_f64(&b);
    let mut c = matgen::from_bytes_f64(&c);
    for i in 0..ns {
        for (j, ks) in parts {
            for k in ks.clone() {
                let av = a[i * n + j * ns + k];
                if av == 0.0 {
                    continue;
                }
                for col in 0..n {
                    c[i * n + col] += av * b[k * n + col];
                }
            }
        }
    }
    mem.write(c_addr, &matgen::to_bytes_f64(&c)).expect("C stripe write");
}

/// Verify a C stripe against the serial reference.
pub(crate) fn verify_stripe(c: &[f64], n: usize, rank: usize, ns: usize) -> bool {
    let reference = matgen::serial_matmul_stripe(n, rank * ns, ns);
    c.iter().zip(&reference).all(|(x, y)| (x - y).abs() < 1e-6)
}

/// Strong-scaling speedup series for Fig. 7: run every entry of
/// `gpus_list` once and report `(gpus, speedup)` relative to the first
/// entry (the single-node baseline in the paper). `baseline` overrides
/// the reference time when comparing implementations against a common
/// baseline (Fig. 8 uses MPI's single-node time for both curves).
pub fn speedup_series(
    runs: impl Fn(usize) -> CannonResult,
    gpus_list: &[usize],
    baseline: Option<Dur>,
) -> Vec<(usize, f64)> {
    let times: Vec<(usize, Dur)> = gpus_list.iter().map(|&g| (g, runs(g).elapsed)).collect();
    let base = baseline.unwrap_or(times[0].1).as_nanos() as f64;
    times.into_iter().map(|(g, t)| (g, base / t.as_nanos() as f64)).collect()
}
