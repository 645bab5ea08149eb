//! Task identity and kernel-side task bookkeeping.
//!
//! A *task* is one cooperative unit of execution — usually a simulated
//! rank, sometimes a helper (progress engine, application thread). Each
//! task runs on a fiber of its own, and all fibers share the thread inside
//! `Sim::run`, so **exactly one task executes at any moment**: a task
//! that blocks on virtual time or a post runs the scheduler itself and
//! switches to whichever task the queue resumes next (DESIGN.md D1, D19).
//! This gives a sequential, deterministic discrete-event simulation with
//! the programming convenience of ordinary blocking code.

use crate::board::BoardId;
use crate::fiber::Fiber;
use crate::time::SimTime;

/// Identifies a task within one simulation. Cheap to copy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TaskId(pub(crate) u32);

impl TaskId {
    /// Raw index, stable for the lifetime of the simulation.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Scheduler-visible status of a task.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum TaskStatus {
    /// Parked, waiting to be switched to.
    Blocked,
    /// Currently executing (one task at a time).
    Running,
    /// Task closure returned; its fiber has switched away for good.
    Done,
}

/// What a blocked task is parked on, recorded at every park site so a
/// deadlock report can say why nothing will ever wake it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ParkedOn {
    /// Spawned, not yet resumed for the first time.
    Start,
    /// A completion queue, with the transfers in flight to it at the park.
    Cq {
        idx: u32,
        inflight: usize,
        deadline: Option<SimTime>,
    },
    Board {
        id: BoardId,
        first: u32,
        num: u32,
        deadline: Option<SimTime>,
    },
    Sleep {
        until: SimTime,
    },
}

impl std::fmt::Display for ParkedOn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let deadline = match *self {
            ParkedOn::Start => return write!(f, "its first wake"),
            ParkedOn::Sleep { until } => return write!(f, "sleep until {until}"),
            ParkedOn::Cq { idx, inflight, deadline } => {
                write!(f, "completion queue {idx} with {inflight} in flight")?;
                deadline
            }
            ParkedOn::Board { id, first, num, deadline } => {
                write!(f, "board {} ids [{first}, {})", id.index(), first as u64 + num as u64)?;
                deadline
            }
        };
        match deadline {
            Some(t) => write!(f, " (deadline {t})"),
            None => Ok(()),
        }
    }
}

pub(crate) struct TaskSlot {
    pub(crate) name: String,
    pub(crate) status: TaskStatus,
    /// `None` once the task is done and `Sim::run` has pooled its stack.
    pub(crate) fiber: Option<Fiber>,
    /// Meaningful while `status` is `Blocked`.
    pub(crate) parked_on: ParkedOn,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_reasons_print_their_deadline() {
        let deadline = Some(SimTime(2_000));
        let board = ParkedOn::Board { id: BoardId(1), first: 8, num: 4, deadline };
        assert_eq!(board.to_string(), "board 1 ids [8, 12) (deadline 2.000us)");
        let cq = ParkedOn::Cq { idx: 1, inflight: 5, deadline };
        assert_eq!(cq.to_string(), "completion queue 1 with 5 in flight (deadline 2.000us)");
        assert_eq!(ParkedOn::Sleep { until: SimTime(5) }.to_string(), "sleep until 5ns");
        assert_eq!(ParkedOn::Start.to_string(), "its first wake");
    }
}
