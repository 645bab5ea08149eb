//! Minimod: acoustic-isotropic wave propagation (paper §4.5).
//!
//! The proxy app solves the finite-difference discretised wave equation
//! with an 8th-order (radius 4) stencil. This reproduction implements the
//! acoustic isotropic kernel on a `[z][y][x]` grid, 1-D-decomposed along
//! z across devices, with 4-plane halo exchange per time step:
//!
//! * [`diomp::run`] — the paper's DiOMP port (Listing 1): one `ompx_put`
//!   per neighbour and one fence, ~half the lines of the MPI version.
//!   Three halo-exchange styles are selectable via
//!   [`MinimodConfig::halo`] (see [`HaloStyle`]): the pull-based
//!   get+fence+barrier path, and two push-based GASPI-notification
//!   paths — per-id ordered waits, and a single ranged-waitsome drain
//!   with parity ids that needs no per-step barrier at all.
//! * [`mpi::run`] — the MPI+OpenMP baseline (Listing 2): per-neighbour
//!   `Isend`/`Irecv` with request arrays and `Waitall`.
//!
//! Verification (Functional mode) runs the same number of steps with the
//! serial reference kernel over the full grid and compares every rank's
//! interior slab. Functional runs additionally capture the assembled
//! global wavefield ([`MinimodResult::wavefield`]) so the halo styles can
//! be asserted byte-identical against each other and against MPI.

pub mod diomp;
pub mod mpi;

use std::cell::RefCell;
use std::rc::Rc;

use diomp_device::{DataMode, DeviceMem, KernelCost};
use diomp_sim::{Dur, PlatformSpec};

use crate::matgen::{self, STENCIL_COEFF};

/// Stencil radius (8th order).
pub const RADIUS: usize = 4;

/// Wave-equation update coefficient (`c²·dt²/h²` folded into one scalar).
pub const K: f32 = 0.1;

/// Which halo-exchange protocol the DiOMP implementation runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HaloStyle {
    /// Pull-based: one `ompx_get` per neighbour, a fence, and a per-step
    /// group barrier for target-side quiescence (the paper's Listing-1
    /// shape). Runs on any conduit; this is the default.
    Get,
    /// Push-based GASPI notifications, drained with per-id ordered
    /// `notify_wait` calls. The conservative port: ids are reused every
    /// step, so a per-step barrier must keep ranks in lockstep to stop a
    /// fast sender overwriting an unconsumed notification. Requires the
    /// GPI-2 conduit (InfiniBand platforms).
    NotifyOrdered,
    /// Push-based GASPI notifications with step-parity ids, drained with
    /// one ranged `notify_waitsome` loop — the paper's notification-driven
    /// halo exchange. Parity makes neighbouring steps' ids disjoint, so
    /// no per-step barrier is needed at all: the waitsome drain is the
    /// only synchronisation. Requires the GPI-2 conduit.
    NotifyWaitsome,
}

/// Problem + machine configuration for one Minimod run.
#[derive(Clone)]
pub struct MinimodConfig {
    /// Hardware platform.
    pub platform: PlatformSpec,
    /// Total devices (= ranks).
    pub gpus: usize,
    /// Grid extents (nz divisible by `gpus`).
    pub nx: usize,
    /// Grid Y extent.
    pub ny: usize,
    /// Grid Z extent.
    pub nz: usize,
    /// Time steps.
    pub steps: usize,
    /// Functional (verify) or CostOnly (paper scale).
    pub mode: DataMode,
    /// Compare against the serial reference.
    pub verify: bool,
    /// Halo-exchange protocol for the DiOMP implementation (ignored by
    /// [`mpi::run`]).
    pub halo: HaloStyle,
    /// Apply the transport autotuner to the DiOMP runtime
    /// (`DiompConfig::tuned()`): knee-derived RMA pipeline parameters and
    /// protocol-selecting collectives. Byte-identical wavefields either
    /// way (property-tested); ignored by [`mpi::run`].
    pub tuned: bool,
}

impl MinimodConfig {
    /// An untuned run on a `grid³` cube, verified exactly when it moves
    /// real bytes — what every figure bin and the gate configure.
    pub fn cube(
        platform: PlatformSpec,
        gpus: usize,
        grid: usize,
        steps: usize,
        mode: DataMode,
        halo: HaloStyle,
    ) -> Self {
        let (nx, ny, nz, verify) = (grid, grid, grid, mode == DataMode::Functional);
        MinimodConfig { platform, gpus, nx, ny, nz, steps, mode, verify, halo, tuned: false }
    }

    /// Planes per rank.
    pub fn nz_local(&self) -> usize {
        if !self.nz.is_multiple_of(self.gpus) {
            // Pad the grid up to the next multiple of the rank count
            // (CostOnly sweeps only; Functional verification needs exact
            // divisibility).
            assert!(
                self.mode == DataMode::CostOnly,
                "Functional runs need nz divisible by the device count"
            );
        }
        let nzl = self.nz.div_ceil(self.gpus);
        assert!(nzl >= RADIUS, "slab of {nzl} planes cannot cover the stencil radius {RADIUS}");
        nzl
    }

    /// Bytes of one grid plane (f32).
    pub fn plane_bytes(&self) -> u64 {
        (self.nx * self.ny * 4) as u64
    }

    /// Bytes of one rank's slab including both halos.
    pub fn slab_bytes(&self) -> u64 {
        (self.nz_local() + 2 * RADIUS) as u64 * self.plane_bytes()
    }

    /// Bytes of one halo exchange message (RADIUS planes).
    pub fn halo_bytes(&self) -> u64 {
        RADIUS as u64 * self.plane_bytes()
    }

    /// Kernel cost of a stencil sweep over `planes` grid planes.
    /// Calibration: the fused acoustic kernel streams ~18 B/cell from
    /// DRAM after cache filtering and does ~61 flops/cell (25-point
    /// stencil + update).
    pub fn stencil_cost(&self, planes: usize) -> KernelCost {
        KernelCost::Stencil {
            cells: (self.nx * self.ny * planes) as u64,
            bytes_per_cell: 18.0,
            flops_per_cell: 61.0,
        }
    }

    /// Planes whose stencils need no halo data (updatable while the halo
    /// exchange is in flight): the slab interior minus RADIUS on each end.
    pub fn interior_planes(&self) -> usize {
        self.nz_local().saturating_sub(2 * RADIUS)
    }

    /// Global heap needed per device: three slabs + slack, scaled so the
    /// symmetric region (75 % of the heap) holds them.
    pub fn heap_bytes(&self) -> u64 {
        (self.slab_bytes() * 3 + (2 << 20)) * 3 / 2
    }
}

/// Result of one run.
#[derive(Clone, Debug)]
pub struct MinimodResult {
    /// Virtual time of the stepping loop (max over ranks).
    pub elapsed: Dur,
    /// Whether verification ran and passed.
    pub verified: bool,
    /// Scheduler queue entries the backing simulation processed — the
    /// wall-clock cost metric the batched wait primitives optimise.
    pub entries: u64,
    /// Final global wavefield (interior planes, rank-major z order),
    /// captured in Functional mode; `None` for CostOnly runs. Lets the
    /// halo styles be compared byte-for-byte.
    pub wavefield: Option<Vec<u8>>,
}

/// Shared collector of per-rank interior slabs: `(rank, bytes)` pairs
/// pushed by each rank task, assembled after the run.
pub(crate) type SlabParts = Rc<RefCell<Vec<(usize, Vec<u8>)>>>;

/// Collect per-rank interior slabs (`(rank, bytes)` pairs, halos
/// stripped) into one contiguous rank-major wavefield.
pub(crate) fn assemble_wavefield(cfg: &MinimodConfig, mut parts: Vec<(usize, Vec<u8>)>) -> Vec<u8> {
    parts.sort_by_key(|&(r, _)| r);
    let mut field = Vec::with_capacity(parts.iter().map(|(_, b)| b.len()).sum());
    for (r, bytes) in parts.iter().enumerate() {
        assert_eq!(bytes.0, r, "missing interior slab for rank {r}");
        field.extend_from_slice(&bytes.1);
    }
    assert_eq!(field.len() as u64, cfg.gpus as u64 * cfg.nz_local() as u64 * cfg.plane_bytes());
    field
}

/// A rank's interior slab bytes (halos stripped) out of a full slab.
pub(crate) fn interior_bytes(cfg: &MinimodConfig, slab: &[u8]) -> Vec<u8> {
    let plane = cfg.plane_bytes() as usize;
    slab[RADIUS * plane..(RADIUS + cfg.nz_local()) * plane].to_vec()
}

/// Fill one rank's initial slab (interior planes only; halos zero).
pub(crate) fn initial_slab(cfg: &MinimodConfig, rank: usize) -> Vec<f32> {
    let (nx, ny) = (cfg.nx, cfg.ny);
    let nzl = cfg.nz_local();
    let mut slab = vec![0.0f32; nx * ny * (nzl + 2 * RADIUS)];
    for zl in 0..nzl {
        let zg = rank * nzl + zl;
        for y in 0..ny {
            for x in 0..nx {
                slab[((zl + RADIUS) * ny + y) * nx + x] =
                    matgen::initial_field(nx, ny, cfg.nz, x, y, zg);
            }
        }
    }
    slab
}

/// The stencil body run on real data: reads `u` (with halos) and `up`,
/// writes `un` for local planes `zl_range` (communication/computation
/// overlap splits a step into an interior sweep and a boundary sweep).
/// Addresses are device-space slab bases.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stencil_body(
    mem: &DeviceMem,
    u_addr: u64,
    up_addr: u64,
    un_addr: u64,
    nx: usize,
    ny: usize,
    nzl: usize,
    zl_range: std::ops::Range<usize>,
    first_rank: bool,
    last_rank: bool,
) {
    let slab_len = nx * ny * (nzl + 2 * RADIUS) * 4;
    let mut ub = vec![0u8; slab_len];
    let mut upb = vec![0u8; slab_len];
    mem.read(u_addr, &mut ub).expect("u slab read");
    mem.read(up_addr, &mut upb).expect("up slab read");
    let u = matgen::from_bytes_f32(&ub);
    let up = matgen::from_bytes_f32(&upb);
    // Read-modify-write of the target range only: the boundary sweep must
    // not clobber what the interior sweep already wrote.
    let mut unb = vec![0u8; slab_len];
    mem.read(un_addr, &mut unb).expect("un slab read");
    let mut un = matgen::from_bytes_f32(&unb);
    let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    for zl in zl_range {
        assert!(zl < nzl);
        let z = zl + RADIUS; // slab-local plane index
        for y in 0..ny {
            for x in 0..nx {
                let cidx = idx(x, y, z);
                let mut lap = 3.0 * STENCIL_COEFF[0] * u[cidx];
                for d in 1..=RADIUS {
                    let cd = STENCIL_COEFF[d];
                    let xm = if x >= d { u[idx(x - d, y, z)] } else { 0.0 };
                    let xp = if x + d < nx { u[idx(x + d, y, z)] } else { 0.0 };
                    let ym = if y >= d { u[idx(x, y - d, z)] } else { 0.0 };
                    let yp = if y + d < ny { u[idx(x, y + d, z)] } else { 0.0 };
                    // z neighbours come from the halo planes; global
                    // boundary ranks see zero-filled halos, matching the
                    // serial zero boundary.
                    let zm = if first_rank && z - d < RADIUS { 0.0 } else { u[idx(x, y, z - d)] };
                    let zp =
                        if last_rank && z + d >= RADIUS + nzl { 0.0 } else { u[idx(x, y, z + d)] };
                    lap += cd * (xm + xp + ym + yp + zm + zp);
                }
                un[cidx] = 2.0 * u[cidx] - up[cidx] + K * lap;
            }
        }
    }
    mem.write(un_addr, &matgen::to_bytes_f32(&un)).expect("un slab write");
}

/// Run the serial reference for `steps` and return the full final field.
pub(crate) fn serial_reference(cfg: &MinimodConfig) -> Vec<f32> {
    let (nx, ny, nz) = (cfg.nx, cfg.ny, cfg.nz);
    let mut u = vec![0.0f32; nx * ny * nz];
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                u[(z * ny + y) * nx + x] = matgen::initial_field(nx, ny, nz, x, y, z);
            }
        }
    }
    let mut up = vec![0.0f32; nx * ny * nz];
    let mut un = vec![0.0f32; nx * ny * nz];
    for _ in 0..cfg.steps {
        matgen::serial_step(nx, ny, nz, &u, &up, &mut un, K);
        std::mem::swap(&mut up, &mut u); // u -> up
        std::mem::swap(&mut u, &mut un); // un -> u
    }
    u
}

/// Compare a rank's interior slab against the serial field.
pub(crate) fn verify_slab(
    cfg: &MinimodConfig,
    rank: usize,
    slab: &[f32],
    reference: &[f32],
) -> bool {
    let (nx, ny) = (cfg.nx, cfg.ny);
    let nzl = cfg.nz_local();
    for zl in 0..nzl {
        let zg = rank * nzl + zl;
        for y in 0..ny {
            for x in 0..nx {
                let got = slab[((zl + RADIUS) * ny + y) * nx + x];
                let want = reference[(zg * ny + y) * nx + x];
                if (got - want).abs() > 1e-3 * want.abs().max(1.0) {
                    eprintln!("rank {rank} mismatch at ({x},{y},{zg}): {got} vs {want}");
                    return false;
                }
            }
        }
    }
    true
}
