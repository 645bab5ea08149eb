//! `apps_scaling`: Figs. 7–8. Cannon ring matmul (N ≈ 30240) and Minimod
//! (≈ 1200³, 40 of the paper's 1000 steps) on the paper's GPU ladders for
//! platforms A and B, the DiOMP arm beside the MPI arm, CostOnly: 68
//! application runs per iteration.
//!
//! *Why:* the paper's headline result and the mix real codes have —
//! `apps`, `core` target regions, `device` kernels, RMA and barriers on
//! 4–64 ranks; the MPI arm runs beside the DiOMP arm through
//! `fabric::mpi`.

use std::sync::{Arc, Mutex};

use diomp_apps::cannon::{self, CannonConfig};
use diomp_apps::minimod::{self, HaloStyle, MinimodConfig};
use diomp_device::DataMode;
use diomp_sim::PlatformSpec;

use super::{host_ns_where, Check, IterOut, Ledger, OpStats, Workload};
use crate::inputs::Rng;
use crate::paper;
use crate::trace::{Scope, Span, Tracer};

/// Simulated Minimod steps (speedups are step-count invariant in steady state).
const STEPS: usize = 40;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum App {
    Cannon,
    Minimod,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Arm {
    Diomp,
    Mpi,
}

/// One application run of the ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Point {
    app: App,
    /// 0 = platform A, 1 = platform B.
    platform: usize,
    gpus: usize,
    arm: Arm,
}

/// Virtual outcome of one run.
#[derive(Clone, Copy, Debug, Default)]
struct Ran {
    elapsed_us: f64,
    /// Virtual µs the run's kernels take by the device cost model.
    kernel_us: f64,
    bytes: u64,
    entries: u64,
}

fn platform(i: usize) -> PlatformSpec {
    if i == 0 {
        PlatformSpec::platform_a()
    } else {
        PlatformSpec::platform_b()
    }
}

fn ladder() -> Vec<Point> {
    let mut pts = Vec::new();
    for (app, ladders) in [
        (App::Cannon, [&paper::FIG7_GPUS_A[..], &paper::FIG7_GPUS_B[..]]),
        (App::Minimod, [&paper::FIG8_GPUS_A[..], &paper::FIG8_GPUS_B[..]]),
    ] {
        for (platform, gpus_list) in ladders.iter().enumerate() {
            for &gpus in *gpus_list {
                for arm in [Arm::Diomp, Arm::Mpi] {
                    pts.push(Point { app, platform, gpus, arm });
                }
            }
        }
    }
    pts
}

pub struct AppsScaling {
    /// Matrix dimension: the paper's 30240 less a seeded sliver.
    n: usize,
    /// Grid x and y extents: the paper's 1200 less a seeded sliver.
    nxy: usize,
    points: Vec<Point>,
    last: Mutex<Vec<Ran>>,
}

pub fn prepare(seed: u64) -> Box<dyn Workload> {
    let mut rng = Rng::new(seed, 0xA995);
    Box::new(AppsScaling {
        n: paper::FIG7_N - 2 * rng.below(4) as usize,
        nxy: paper::FIG8_GRID - rng.below(4) as usize,
        points: ladder(),
        last: Mutex::new(Vec::new()),
    })
}

impl AppsScaling {
    fn cannon_cfg(&self, p: &Point) -> CannonConfig {
        CannonConfig {
            platform: platform(p.platform),
            gpus: p.gpus,
            n: self.n,
            mode: DataMode::CostOnly,
            verify: false,
        }
    }

    fn minimod_cfg(&self, p: &Point) -> MinimodConfig {
        MinimodConfig {
            platform: platform(p.platform),
            gpus: p.gpus,
            nx: self.nxy,
            ny: self.nxy,
            nz: paper::FIG8_GRID,
            steps: STEPS,
            mode: DataMode::CostOnly,
            verify: false,
            halo: HaloStyle::Get,
            tuned: false,
        }
    }

    fn run_point(&self, p: &Point, tr: &Tracer, scope: Scope) -> Ran {
        let gpu = platform(p.platform).gpu;
        match p.app {
            App::Cannon => {
                let cfg = self.cannon_cfg(p);
                let res = match p.arm {
                    Arm::Diomp => tr
                        .span(scope, "apps", "cannon::diomp::run", 0, |_| cannon::diomp::run(&cfg)),
                    Arm::Mpi => {
                        tr.span(scope, "apps", "cannon::mpi::run", 0, |_| cannon::mpi::run(&cfg))
                    }
                };
                let g = p.gpus as u64;
                Ran {
                    elapsed_us: res.elapsed.as_us(),
                    kernel_us: p.gpus as f64 * cfg.gemm_cost().duration(&gpu).as_us(),
                    // Every rank pulls every other rank's stripe once.
                    bytes: g * (g - 1) * cfg.stripe_bytes(),
                    entries: 0,
                }
            }
            App::Minimod => {
                let cfg = self.minimod_cfg(p);
                let res = match p.arm {
                    Arm::Diomp => tr.span(scope, "apps", "minimod::diomp::run", 0, |_| {
                        minimod::diomp::run(&cfg)
                    }),
                    Arm::Mpi => {
                        tr.span(scope, "apps", "minimod::mpi::run", 0, |_| minimod::mpi::run(&cfg))
                    }
                };
                Ran {
                    elapsed_us: res.elapsed.as_us(),
                    kernel_us: STEPS as f64
                        * cfg.stencil_cost(cfg.nz_local()).duration(&gpu).as_us(),
                    // Two halos across each of the gpus − 1 slab boundaries, every step.
                    bytes: STEPS as u64 * 2 * (p.gpus as u64 - 1) * cfg.halo_bytes(),
                    entries: res.entries,
                }
            }
        }
    }

    fn find(&self, ran: &[Ran], app: App, platform: usize, arm: Arm, top: bool) -> Ran {
        let mut it = self
            .points
            .iter()
            .zip(ran)
            .filter(|(p, _)| p.app == app && p.platform == platform && p.arm == arm)
            .map(|(_, r)| *r);
        if top { it.next_back() } else { it.next() }.expect("every ladder has both ends")
    }
}

impl Workload for AppsScaling {
    fn verify(&self) -> Check {
        let mut c = Check::default();
        // Cannon, 4 GPUs, N = 240, real matrices against the serial product.
        let cannon_cfg = CannonConfig {
            platform: PlatformSpec::platform_a(),
            gpus: 4,
            n: 240,
            mode: DataMode::Functional,
            verify: true,
        };
        c.record(cannon::diomp::run(&cannon_cfg).verified);
        c.record(cannon::mpi::run(&cannon_cfg).verified);
        // Minimod on a small grid against the serial kernel; the three
        // halo styles and the MPI arm must leave byte-identical wavefields.
        // Platform C: the notification styles need the GPI-2 conduit.
        let mini = |halo| MinimodConfig {
            platform: PlatformSpec::platform_c(),
            gpus: 4,
            nx: 16,
            ny: 16,
            nz: 32,
            steps: 4,
            mode: DataMode::Functional,
            verify: true,
            halo,
            tuned: false,
        };
        let reference = minimod::mpi::run(&mini(HaloStyle::Get));
        c.record(reference.verified);
        for halo in [HaloStyle::Get, HaloStyle::NotifyOrdered, HaloStyle::NotifyWaitsome] {
            let res = minimod::diomp::run(&mini(halo));
            c.record(res.verified);
            c.record(res.wavefield.is_some() && res.wavefield == reference.wavefield);
        }
        c
    }

    fn iterate(&self, tr: &Arc<Tracer>, scope: Scope) -> IterOut {
        let ran: Vec<Ran> = self.points.iter().map(|p| self.run_point(p, tr, scope)).collect();
        let us: Vec<f64> = ran.iter().map(|r| r.elapsed_us).collect();
        let virt_ns = (us.iter().sum::<f64>() * 1e3).round() as u64;
        let out = IterOut {
            virt_ns,
            // The apps report elapsed time, not the simulation's end time.
            end_ns: virt_ns,
            entries: ran.iter().map(|r| r.entries).sum(),
            coalesced: 0,
            ops: OpStats::of(&us),
            goodput_gbps: ran.iter().map(|r| r.bytes).sum::<u64>() as f64 / virt_ns.max(1) as f64,
            // An application run either returns or panics the process.
            check: Check { attempted: ran.len() as u64, failed: 0 },
        };
        *self.last.lock().expect("ran lock") = ran;
        out
    }

    fn layer_metrics(&self, spans: &[Span], _outs: &[IterOut]) -> Ledger {
        let ran = self.last.lock().expect("ran lock").clone();
        let mean_ms = |names: &[&str]| {
            let (ns, n) = host_ns_where(spans, |s| names.contains(&s.name));
            ns as f64 / 1e6 / n.max(1) as f64
        };
        let sum_us = |app: Option<App>, arm: Arm, f: fn(&Ran) -> f64| -> f64 {
            self.points
                .iter()
                .zip(&ran)
                .filter(|(p, _)| app.is_none_or(|a| p.app == a) && p.arm == arm)
                .map(|(_, r)| f(r))
                .sum()
        };
        let ends = |app, platform, arm| {
            (self.find(&ran, app, platform, arm, false), self.find(&ran, app, platform, arm, true))
        };
        // Fig. 7: DiOMP speedup over its own single-node run. Fig. 8:
        // DiOMP speedup over MPI's single-node run.
        let cannon_top = [0, 1].map(|pl| {
            let (base, top) = ends(App::Cannon, pl, Arm::Diomp);
            base.elapsed_us / top.elapsed_us
        });
        let minimod_top = [0, 1].map(|pl| {
            let (base, _) = ends(App::Minimod, pl, Arm::Mpi);
            let (_, top) = ends(App::Minimod, pl, Arm::Diomp);
            base.elapsed_us / top.elapsed_us
        });
        let ideal = [
            paper::FIG7_GPUS_A[paper::FIG7_GPUS_A.len() - 1] as f64 / paper::FIG7_GPUS_A[0] as f64,
            paper::FIG7_GPUS_B[paper::FIG7_GPUS_B.len() - 1] as f64 / paper::FIG7_GPUS_B[0] as f64,
        ];
        let (_, halo_top) = ends(App::Minimod, 0, Arm::Diomp);
        let diomp_us = sum_us(None, Arm::Diomp, |r| r.elapsed_us);
        vec![
            ("device.kernel_virt_share", sum_us(None, Arm::Diomp, |r| r.kernel_us) / diomp_us),
            ("apps.cannon_host_ms_per_run", mean_ms(&["cannon::diomp::run"])),
            ("apps.minimod_host_ms_per_run", mean_ms(&["minimod::diomp::run"])),
            ("apps.mpi_host_ms_per_run", mean_ms(&["cannon::mpi::run", "minimod::mpi::run"])),
            ("apps.cannon_speedup_top_a", cannon_top[0]),
            ("apps.cannon_speedup_top_b", cannon_top[1]),
            ("apps.minimod_speedup_top_a", minimod_top[0]),
            ("apps.minimod_speedup_top_b", minimod_top[1]),
            ("apps.scaling_eff_top", (cannon_top[0] / ideal[0] + cannon_top[1] / ideal[1]) / 2.0),
            ("apps.diomp_over_mpi_virt_x", sum_us(None, Arm::Mpi, |r| r.elapsed_us) / diomp_us),
            (
                "apps.halo_virt_us_per_step",
                (halo_top.elapsed_us - halo_top.kernel_us) / STEPS as f64,
            ),
            (
                "apps.fig7_peak_err",
                (paper::peak_err(cannon_top[0], paper::FIG7_PEAK_DIOMP[0])
                    + paper::peak_err(cannon_top[1], paper::FIG7_PEAK_DIOMP[1]))
                    / 2.0,
            ),
            (
                "apps.fig8_peak_err",
                (paper::peak_err(minimod_top[0], paper::FIG8_PEAK_DIOMP[0])
                    + paper::peak_err(minimod_top[1], paper::FIG8_PEAK_DIOMP[1]))
                    / 2.0,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ladder_has_the_papers_68_runs() {
        let pts = ladder();
        assert_eq!(pts.len(), 68);
        assert_eq!(pts.iter().filter(|p| p.app == App::Cannon).count(), 36);
        assert_eq!(pts.iter().filter(|p| p.arm == Arm::Mpi).count(), 34);
    }
}
