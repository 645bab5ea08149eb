//! Task identity and kernel-side task bookkeeping.
//!
//! A *task* is one cooperative unit of execution — usually a simulated
//! rank, sometimes a helper (progress engine, application thread). Each
//! task runs on its own OS thread, but a single baton guarantees that **at
//! most one task executes at any moment**: a task that blocks on virtual
//! time or an event runs the scheduler itself and passes the baton to
//! whichever task the queue resumes next (DESIGN.md D1, D19). This gives
//! a sequential, deterministic discrete-event simulation with the
//! programming convenience of ordinary blocking code.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

use crate::board::BoardId;
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
    /// Parked, waiting to be handed the baton.
    Blocked,
    /// Currently holds the baton (at most one task at a time).
    Running,
    /// Task closure returned; thread has exited or is exiting.
    Done,
}

/// The right to run, as one word per thread: `pass` gives it to the
/// owning thread, `take` blocks the owning thread until it has it.
///
/// `pass` is a `Release` store followed by `unpark`; `take` is an
/// `Acquire` swap looped around `std::thread::park`. Everything the
/// passer wrote — under the kernel lock or not — therefore happens-before
/// everything the taker does next, and a stale or foreign unpark token
/// (another `Sim` on the same OS thread, a `pass` that raced the swap)
/// only costs one more trip round the loop (DESIGN.md D19).
#[derive(Default)]
pub(crate) struct Baton {
    held: AtomicBool,
    /// The owning thread; bound before anything can `pass`.
    thread: OnceLock<Thread>,
}

impl Baton {
    pub(crate) fn bind(&self, thread: Thread) {
        self.thread.set(thread).expect("baton bound twice");
    }

    pub(crate) fn pass(&self) {
        self.held.store(true, Ordering::Release);
        self.thread.get().expect("baton passed before it was bound").unpark();
    }

    pub(crate) fn take(&self) {
        while !self.held.swap(false, Ordering::Acquire) {
            std::thread::park();
        }
    }
}

/// What a blocked task is parked on, recorded at every park site so a
/// deadlock report can say why nothing will ever wake it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ParkedOn {
    /// Spawned, not yet resumed for the first time.
    Start,
    WaitAll {
        pending: usize,
        deadline: Option<SimTime>,
    },
    WaitAny {
        n: usize,
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
            ParkedOn::WaitAny { n, deadline } => {
                write!(f, "any of {n} events")?;
                deadline
            }
            ParkedOn::WaitAll { pending, deadline } => {
                write!(f, "all of {pending} pending events")?;
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
    pub(crate) baton: Arc<Baton>,
    /// Meaningful while `status` is `Blocked`.
    pub(crate) parked_on: ParkedOn,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_reasons_print_their_deadline() {
        let deadline = Some(SimTime(2_000));
        let all = ParkedOn::WaitAll { pending: 3, deadline };
        assert_eq!(all.to_string(), "all of 3 pending events (deadline 2.000us)");
        let board = ParkedOn::Board { id: BoardId(1), first: 8, num: 4, deadline };
        assert_eq!(board.to_string(), "board 1 ids [8, 12) (deadline 2.000us)");
        let any = ParkedOn::WaitAny { n: 2, deadline };
        assert_eq!(any.to_string(), "any of 2 events (deadline 2.000us)");
        assert_eq!(ParkedOn::Sleep { until: SimTime(5) }.to_string(), "sleep until 5ns");
        assert_eq!(ParkedOn::Start.to_string(), "its first wake");
    }
}
