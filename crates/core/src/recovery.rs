//! Elastic rank-failure recovery: checkpoint epochs, rollback, and
//! survivor agreement (DESIGN.md D17).
//!
//! GASPI's fault story is cooperative: bounded waits surface
//! `GASPI_TIMEOUT`, `gaspi_state_vec` names the corrupt ranks, and the
//! application rebuilds the process set. This module supplies the
//! application half of that loop for collective workloads:
//!
//! * **Checkpoint epochs** — application buffers are snapshotted at
//!   collective boundaries every [`RecoveryConfig::checkpoint_every`]
//!   iterations ([`Checkpoint::take`]). Collective boundaries are the
//!   one place a snapshot is guaranteed consistent: data semantics run
//!   only when a collective completes, so one aborted at its gate or in
//!   flight has touched no byte and the last checkpoint is exact.
//! * **Rollback** — on a detected death, survivors restore their buffers
//!   from the checkpoint ([`Checkpoint::restore`]) and re-run the
//!   iterations since, now over the shrunk communicator.
//! * **Survivor agreement** — all live ranks must converge on the *same*
//!   shrunk world. Rather than a consensus round, agreement is a pure
//!   function of the installed fault plan:
//!   [`diomp_fabric::FabricWorld::converged_health`] marks every planned
//!   kill dead (even those whose time has not yet come), so two failures
//!   straddling a detection window cannot split the survivor set, and
//!   chaos runs replay bit-identically. [`survivors`] extracts the
//!   agreed rank list.
//!
//! Checkpoints charge modelled time — a device-local copy at HBM rate —
//! so the ≤1.05× "no-harm" bound the bench gate enforces is a property
//! of the model, not an accident of free snapshots. With no
//! [`RecoveryConfig`] armed nothing here runs and traces are
//! bit-identical to a recovery-free build.

use std::rc::Rc;

use diomp_device::DataMode;
use diomp_fabric::{FabricWorld, HealthVec, RankHealth};
use diomp_sim::{Ctx, Dur};

/// Arms elastic recovery for a collective workload. `None`-armed runs
/// (the default everywhere) execute the historical blocking path,
/// bit-identical to builds that predate recovery.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryConfig {
    /// Snapshot application buffers every this many collective
    /// iterations (1 = every collective boundary). Longer epochs cost
    /// less checkpoint time but re-run more work after a death.
    pub checkpoint_every: u32,
    /// Per-park wait budget of a collective: at the rendezvous gate, and
    /// in flight, where the runner waits for its chunk arrivals. A park
    /// that sees nothing within this virtual-time budget triggers the
    /// `gaspi_state_vec` probe; a confirmed member death aborts the
    /// collective, anything else re-parks (stragglers are not corpses).
    pub collective_timeout: Dur,
    /// Base virtual-time backoff charged before re-running after a
    /// shrink, doubling per retry of the same job (exponential backoff —
    /// the modelled cost of the reconnection storm a real rebuild rides
    /// out).
    pub retry_backoff: Dur,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            checkpoint_every: 1,
            collective_timeout: Dur::millis(1.0),
            retry_backoff: Dur::micros(50.0),
        }
    }
}

impl RecoveryConfig {
    /// The backoff to charge before retry number `attempt` (0-based):
    /// `retry_backoff · 2^attempt`.
    pub fn backoff_for(&self, attempt: u32) -> Dur {
        Dur::nanos(self.retry_backoff.as_nanos().saturating_mul(1u64 << attempt.min(62)))
    }
}

/// The agreed survivor ranks of a health vector: everyone not marked
/// [`RankHealth::Dead`]. Feed it the survivor-agreement fixpoint
/// ([`diomp_fabric::FabricWorld::converged_health`]) and every live rank
/// computes the same list at any time.
pub fn survivors(health: &HealthVec) -> Vec<usize> {
    (0..health.nranks()).filter(|&r| health.rank_health(r) != RankHealth::Dead).collect()
}

/// A consistent snapshot of one rank's application buffers, taken at a
/// collective boundary.
pub struct Checkpoint {
    /// The iteration the snapshot represents: re-running starts here.
    pub iter: u64,
    /// Each buffer and its snapshotted bytes (Functional mode; CostOnly
    /// runs keep no bytes — the length in the spec prices the copy, so
    /// the time model is identical either way).
    data: Vec<(BufSpec, Vec<u8>)>,
}

/// One device-resident application buffer: `(flat device, offset, len)`.
pub type BufSpec = (usize, u64, u64);

impl Checkpoint {
    /// Snapshot `bufs` as the state of iteration `iter`, charging the
    /// modelled copy time (one read + one write of every byte at the
    /// device's HBM rate — a device-local shadow copy, the cheapest
    /// consistent checkpoint).
    pub fn take(ctx: &mut Ctx, world: &Rc<FabricWorld>, bufs: &[BufSpec], iter: u64) -> Checkpoint {
        let mut data = Vec::with_capacity(bufs.len());
        let mut bytes = 0u64;
        for &(flat, off, len) in bufs {
            let dev = world.devs.dev(flat);
            bytes += len;
            let stored = if dev.mem.mode() == DataMode::Functional {
                let mut out = vec![0u8; len as usize];
                dev.mem.read(off, &mut out).expect("checkpoint read out of bounds");
                out
            } else {
                Vec::new()
            };
            data.push(((flat, off, len), stored));
        }
        ctx.delay(copy_time(world, bytes));
        Checkpoint { iter, data }
    }

    /// Restore the snapshotted bytes (rollback), charging the same
    /// modelled copy time as the snapshot took.
    pub fn restore(&self, ctx: &mut Ctx, world: &Rc<FabricWorld>) {
        let mut bytes = 0u64;
        for &((flat, off, len), ref stored) in &self.data {
            let dev = world.devs.dev(flat);
            bytes += len;
            if dev.mem.mode() == DataMode::Functional {
                dev.mem.write(off, stored).expect("rollback write out of bounds");
            }
        }
        ctx.delay(copy_time(world, bytes));
    }
}

/// Device-local copy time for `bytes`: read + write at HBM bandwidth.
fn copy_time(world: &Rc<FabricWorld>, bytes: u64) -> Dur {
    let gbps = world.platform.gpu.hbm_gbps.max(1.0);
    Dur::micros(2.0 * bytes as f64 / (gbps * 1000.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_per_attempt() {
        let rc = RecoveryConfig { retry_backoff: Dur::micros(10.0), ..Default::default() };
        assert_eq!(rc.backoff_for(0), Dur::micros(10.0));
        assert_eq!(rc.backoff_for(1), Dur::micros(20.0));
        assert_eq!(rc.backoff_for(3), Dur::micros(80.0));
    }

    #[test]
    fn survivors_drop_only_the_dead() {
        let mut v = HealthVec::healthy(5);
        v.observe(1, 0);
        v.observe(3, 400); // degraded but alive
        assert_eq!(survivors(&v), vec![0, 2, 3, 4]);
    }
}
