//! The discrete-event scheduler.
//!
//! Design (DESIGN.md D1): a *sequential* deterministic discrete-event
//! simulation. Simulated ranks run as ordinary OS threads writing ordinary
//! blocking code, but a single baton passes between them so at most one
//! task executes at any moment. There is no scheduler thread: whichever
//! thread holds the baton and has nothing left to run — a task that
//! parks, a task that finishes, `Sim::run` at the start — pops the
//! priority queue itself ([`SimHandle::dispatch`]) and hands the baton
//! straight to the task the queue resumes next (DESIGN.md D19). The queue
//! orders entries by `(virtual time, sequence number)`; ties are broken
//! by insertion order, so a given program produces a bit-identical event
//! trace on every run, whichever threads did the popping.
//!
//! Two kinds of queue entries exist:
//!
//! * **Wake** — resume a parked task (used by `delay`, event completion,
//!   barriers, rendezvous).
//! * **Action** — run a closure at a given virtual time, on the thread
//!   of whoever holds the baton when it pops (never concurrently with a
//!   task). Actions are how *one-sided* operations complete without any
//!   participation from the target rank (DESIGN.md D2): an RMA put
//!   schedules an action at the modelled arrival time which copies the
//!   bytes into the target segment and completes the initiator's event.
//!
//! Spurious wake-ups are impossible by construction: every park increments
//! the task's `park_seq`, and every wake entry carries the sequence number
//! of the park it is meant to resume; mismatched entries are skipped.

use std::any::Any;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Mutex, MutexGuard};

use crate::board::{BoardId, BoardSlot};
use crate::ctx::Ctx;
use crate::event::{EventArena, EventId, GroupRef};
use crate::fault::{CtrlFault, FaultPlan, FaultState};
use crate::qos::{ContentionState, FlowId, FlowSlot};
use crate::resource::{ResSlot, ResourceId, Transfer};
use crate::task::{Baton, ParkedOn, TaskId, TaskSlot, TaskStatus};
use crate::time::{Dur, SimTime};
use crate::trace::TraceRec;

/// Closure run at a scheduled virtual time, on the baton holder's thread.
pub type Action = Box<dyn FnOnce(&SimHandle) + Send + 'static>;

enum Item {
    /// Resume task if it is still parked on the park numbered `park_seq`.
    /// `coalesced` counts how many per-chunk completions this single heap
    /// entry stands for (0 for ordinary wakes): the closed-form collective
    /// fast paths retire a whole run of same-edge chunk arrivals with one
    /// entry carrying the run length instead of one entry per chunk.
    Wake {
        task: TaskId,
        park_seq: u64,
        coalesced: u64,
    },
    Action(Action),
}

struct Entry {
    t: SimTime,
    seq: u64,
    item: Item,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (t, seq) pops first.
        (other.t, other.seq).cmp(&(self.t, self.seq))
    }
}

/// One park on events or a board: a task parked until `remaining`
/// registrations have fired. The whole group costs a single wake entry,
/// which is what makes `Ctx::wait_all` (and `ompx_fence` built on it)
/// cheap for large pending sets. With `remaining == 1` over many events
/// the same slot implements `Ctx::wait_any`: the first completion fires
/// the group; later completions find it dead (or recycled under a newer
/// generation) and push nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WaitGroup {
    pub(crate) remaining: usize,
    pub(crate) task: TaskId,
    pub(crate) park_seq: u64,
    pub(crate) live: bool,
    /// Bumped on slot reuse so stale event-side references are detectable.
    pub(crate) gen: u32,
}

pub(crate) struct KState {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Entry>,
    pub(crate) tasks: Vec<TaskSlot>,
    /// Per-task park counter used to invalidate stale wakes.
    pub(crate) park_seqs: Vec<u64>,
    pub(crate) events: EventArena,
    /// Multi-event wait groups (free-list recycled, like events).
    pub(crate) wait_groups: Vec<WaitGroup>,
    free_wait_groups: Vec<u32>,
    /// Notification boards (range-waitable id → value slots).
    pub(crate) boards: Vec<BoardSlot>,
    /// Scratch buffer for `board_post`'s fired-waiter sweep, reused across
    /// calls so the hot notification path allocates nothing.
    board_fired: Vec<GroupRef>,
    pub(crate) resources: Vec<ResSlot>,
    /// Armed fault injector, if a plan was installed. `None` (the
    /// default) keeps every hook on the one-branch fast path so clean
    /// runs are bit-identical with or without the subsystem compiled in.
    pub(crate) fault: Option<Box<FaultState>>,
    /// Registered traffic flows (QoS weight + delivery stats). Always
    /// present — flows tag transfers whether or not contention is armed.
    pub(crate) flows: Vec<FlowSlot>,
    /// Freed flow slots awaiting reuse (see [`SimHandle::release_flow`]).
    pub(crate) free_flows: Vec<u32>,
    /// Armed weighted-fair-queuing contention, mirroring `fault`: `None`
    /// (the default) keeps `transfer_qos` on a path bit-identical to the
    /// closed-form FIFO calls it replaced.
    pub(crate) contention: Option<Box<ContentionState>>,
    n_done: usize,
    entries_processed: u64,
    /// Batons passed to a different thread / wakes consumed by the task
    /// that was dispatching (see [`SimReport`]).
    handoffs: u64,
    inline_wakes: u64,
    /// Total per-chunk completions that were folded into coalesced wake
    /// entries instead of costing one heap entry each.
    pub(crate) coalesced_chunks: u64,
    /// When set, the collective fast paths stand down and every schedule
    /// runs through the explicit per-chunk event driver (equivalence
    /// testing and the uncoalesced bench arms).
    pub(crate) force_explicit: bool,
    /// When set, every periodic schedule is unrolled into one
    /// single-repeat segment before it is driven (the differential
    /// reference of `crates/xccl/tests/fastpath.rs`).
    pub(crate) force_unrolled: bool,
    trace: Option<Vec<TraceRec>>,
    limit_entries: Option<u64>,
    limit_time: Option<SimTime>,
    /// Why dispatching stopped, posted for `Sim::run` by whichever thread
    /// was dispatching at the time.
    outcome: Option<Outcome>,
}

/// How a run ended, as seen by the last dispatcher.
enum Outcome {
    /// The queue drained (all tasks done, or a deadlock).
    Drained,
    Limit(SimError),
    /// A task or a scheduled action panicked; `Sim::run` re-raises it.
    Panicked(Box<dyn Any + Send>),
}

impl KState {
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Allocate a wait group covering `remaining` pending registrations.
    /// Returns the generation-tagged reference events store.
    pub(crate) fn alloc_wait_group(
        &mut self,
        remaining: usize,
        task: TaskId,
        park_seq: u64,
    ) -> GroupRef {
        if let Some(i) = self.free_wait_groups.pop() {
            let gen = self.wait_groups[i as usize].gen.wrapping_add(1);
            self.wait_groups[i as usize] = WaitGroup { remaining, task, park_seq, live: true, gen };
            GroupRef { gid: i, gen }
        } else {
            self.wait_groups.push(WaitGroup { remaining, task, park_seq, live: true, gen: 0 });
            GroupRef { gid: (self.wait_groups.len() - 1) as u32, gen: 0 }
        }
    }

    /// Kill a wait group that will never fire (its waiter timed out).
    /// Registrations left on events become stale references, skipped by
    /// the generation check exactly like a fired wait-any group's.
    pub(crate) fn kill_group(&mut self, gref: GroupRef) {
        let g = &mut self.wait_groups[gref.gid as usize];
        if g.live && g.gen == gref.gen {
            g.live = false;
            self.free_wait_groups.push(gref.gid);
        }
    }

    /// Recycle a released event whose completion will never fire: its
    /// transfer was purged from, or dropped before, a fair queue. Only
    /// dead wait-group references can still be on it — a released event
    /// has no one waiting.
    pub(crate) fn free_unfired(&mut self, ev: EventId) {
        let slot = self.events.get_mut(ev);
        assert!(slot.auto_free && !slot.completed, "only a released, pending event goes unfired");
        let groups = std::mem::take(&mut slot.group_waiters);
        assert!(
            groups.iter().all(|r| {
                let g = &self.wait_groups[r.gid as usize];
                !g.live || g.gen != r.gen
            }),
            "a released event still has a live waiter"
        );
        self.events.free(ev);
    }

    /// Scale a task-local compute delay by its straggle factor, if a
    /// fault plan is armed and matched this task at spawn.
    pub(crate) fn scale_delay(&self, task: TaskId, d: Dur) -> Dur {
        match &self.fault {
            Some(f) => f.scale_delay(task, d),
            None => d,
        }
    }
}

pub(crate) struct Kernel {
    pub(crate) state: Mutex<KState>,
    /// Wakes the thread blocked in `Sim::run` once an [`Outcome`] is posted.
    runner: Baton,
}

/// Cloneable, `Send` handle to the simulation kernel.
///
/// Usable from tasks, scheduled actions, and before `run()`. All methods
/// are non-blocking; blocking operations live on [`Ctx`].
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) kernel: Arc<Kernel>,
}

/// The kernel state lock, held across a whole run of event-free
/// reservations: the collective march prices every chunk of a schedule
/// against the live link resources under **one** lock acquisition
/// instead of one per chunk. The task that holds it is the running task
/// (it holds the baton), so nothing else wants the lock meanwhile; the
/// virtual clock stays frozen for the guard's lifetime.
pub struct Reservations<'a> {
    handle: &'a SimHandle,
    st: MutexGuard<'a, KState>,
}

impl Reservations<'_> {
    /// Reserve a flow-tagged transfer *without* allocating a completion
    /// event: exactly the resource arithmetic and flow-stat update of the
    /// disarmed [`SimHandle::transfer_qos`] path, minus the event and the
    /// completion action. The collective fast paths use this to price a
    /// whole chunk schedule arithmetically — fault-plan perturbation
    /// included, per edge, via the shared `transfer_locked` path — and
    /// then park once on the final arrival instant.
    ///
    /// Contention must be disarmed ([`SimHandle::contention_armed`]):
    /// under WFQ, completion order is event-driven and cannot be priced
    /// call-by-call.
    pub fn transfer_flow(
        &mut self,
        res: ResourceId,
        flow: FlowId,
        at: SimTime,
        bytes: u64,
    ) -> Transfer {
        let st = &mut *self.st;
        let at = at.max(st.now);
        let tr = self.handle.transfer_locked(st, res, at, bytes);
        let fs = st.flow_mut(flow);
        fs.stats.bytes += bytes;
        fs.stats.first_start = Some(fs.stats.first_start.unwrap_or(tr.start).min(tr.start));
        fs.stats.last_depart = fs.stats.last_depart.max(tr.depart);
        tr
    }

    /// Bulk-advance a resource by `steps` identical reservations of
    /// `bytes_per_step` whose departures are spaced exactly `shift`
    /// apart: `free_at += steps·shift`, `total_bytes += steps·bytes`.
    ///
    /// This is the steady-state jump primitive: when a schedule's whole
    /// per-edge state has advanced by one uniform scalar `shift` across
    /// consecutive steps, max-plus shift-invariance makes replaying the
    /// remaining steps equivalent to adding `steps·shift` everywhere —
    /// so the fast path charges them in one call instead of `steps`
    /// reservations. Exactness requires the caller to have verified the
    /// uniform shift (the ring fast path's jump detector does).
    pub fn bulk_advance_resource(
        &mut self,
        res: ResourceId,
        shift: Dur,
        steps: u64,
        bytes_per_step: u64,
    ) {
        self.st.resources[res.index()].bulk_advance(shift, steps, bytes_per_step);
    }

    /// Credit a flow with `bytes` delivered and a final departure instant
    /// in one call — the flow-stat half of a steady-state jump
    /// ([`Reservations::bulk_advance_resource`]). Sum/max arithmetic
    /// only, so bulk application equals per-transfer application exactly.
    pub fn bulk_charge_flow(&mut self, flow: FlowId, bytes: u64, last_depart: SimTime) {
        let fs = self.st.flow_mut(flow);
        fs.stats.bytes += bytes;
        fs.stats.last_depart = fs.stats.last_depart.max(last_depart);
    }

    /// Next time the resource is free, read under the held lock.
    pub fn resource_free_at(&self, res: ResourceId) -> SimTime {
        self.st.resources[res.index()].free_at()
    }
}

/// Statistics for a completed simulation.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Virtual time at which the last entry was processed.
    pub end_time: SimTime,
    /// Total queue entries processed (wakes + actions, including stale).
    pub entries_processed: u64,
    /// Per-chunk completions folded into coalesced wake entries by the
    /// collective fast paths — work the scheduler priced without paying
    /// one heap entry per chunk. `0` when no fast path ran.
    pub coalesced_chunks: u64,
    /// Wall-clock milliseconds the scheduler loop itself took — the cost
    /// of the *simulator*, as opposed to the simulated virtual time.
    pub sim_wall_ms: f64,
    /// Batons passed from the dispatching thread to a *different* thread
    /// (one OS context switch each). Exact and repeatable per seed.
    pub handoffs: u64,
    /// Wakes consumed by the very task that was dispatching: it parked,
    /// popped its own wake and returned without leaving its thread.
    pub inline_wakes: u64,
    /// Number of tasks that ran to completion.
    pub tasks_completed: usize,
    /// Event trace, if tracing was enabled.
    pub trace: Vec<TraceRec>,
}

/// Why a simulation failed to complete.
#[derive(Debug, Clone)]
pub enum SimError {
    /// The event queue drained while tasks were still blocked: nothing can
    /// ever wake them.
    Deadlock {
        /// Names of the blocked tasks.
        blocked: Vec<String>,
        /// What each blocked task was parked on, parallel to `blocked`.
        parked_on: Vec<String>,
        /// Virtual time of the deadlock.
        at: SimTime,
    },
    /// A configured safety limit was exceeded (runaway simulation).
    LimitExceeded {
        /// Human-readable description of the limit hit.
        what: String,
        /// Virtual time when the limit tripped.
        at: SimTime,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { blocked, parked_on, at } => {
                write!(f, "simulation deadlock at {at}: blocked tasks [")?;
                for (i, (name, why)) in blocked.iter().zip(parked_on).enumerate() {
                    write!(f, "{}{name}: {why}", if i == 0 { "" } else { ", " })?;
                }
                write!(f, "]")
            }
            SimError::LimitExceeded { what, at } => {
                write!(f, "simulation limit exceeded at {at}: {what}")
            }
        }
    }
}
impl std::error::Error for SimError {}

/// A complete simulation: kernel plus the set of spawned task threads.
pub struct Sim {
    handle: SimHandle,
    join: Vec<JoinHandle<()>>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulation at virtual time zero.
    pub fn new() -> Self {
        let kernel = Arc::new(Kernel {
            state: Mutex::new(KState {
                now: SimTime::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                tasks: Vec::new(),
                park_seqs: Vec::new(),
                events: EventArena::default(),
                wait_groups: Vec::new(),
                free_wait_groups: Vec::new(),
                boards: Vec::new(),
                board_fired: Vec::new(),
                resources: Vec::new(),
                fault: None,
                flows: Vec::new(),
                free_flows: Vec::new(),
                contention: None,
                n_done: 0,
                entries_processed: 0,
                handoffs: 0,
                inline_wakes: 0,
                coalesced_chunks: 0,
                force_explicit: false,
                force_unrolled: false,
                trace: None,
                limit_entries: None,
                limit_time: None,
                outcome: None,
            }),
            runner: Baton::default(),
        });
        Sim { handle: SimHandle { kernel }, join: Vec::new() }
    }

    /// Handle usable to spawn tasks and schedule actions before `run()`.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// Record a trace of every wake and user `trace()` call (see
    /// [`SimReport::trace`]). Used by the determinism property tests.
    pub fn enable_trace(&self) {
        self.handle.kernel.state.lock().trace = Some(Vec::new());
    }

    /// Abort with [`SimError::LimitExceeded`] after this many queue entries.
    pub fn limit_entries(&self, n: u64) {
        self.handle.kernel.state.lock().limit_entries = Some(n);
    }

    /// Abort with [`SimError::LimitExceeded`] once virtual time passes `t`.
    pub fn limit_time(&self, t: SimTime) {
        self.handle.kernel.state.lock().limit_time = Some(t);
    }

    /// Install a fault plan, arming the deterministic injector. Must be
    /// called before tasks whose names the plan's stragglers match are
    /// spawned (the factor is resolved once at spawn). Installing an
    /// empty plan is equivalent to not installing one.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        let mut st = self.handle.kernel.state.lock();
        st.fault = if plan.is_empty() { None } else { Some(Box::new(FaultState::new(plan))) };
    }

    /// Arm weighted-fair-queuing contention: flow-tagged transfers
    /// ([`SimHandle::transfer_qos`]) on a shared link fair-share its
    /// bandwidth by QoS weight instead of serialising FIFO. Disarmed
    /// (the default), flow-tagged transfers replay bit-identically to
    /// the closed-form FIFO model (the `qos` module docs spell out the
    /// pricing rule).
    pub fn enable_contention(&self) {
        self.handle.kernel.state.lock().contention = Some(Box::<ContentionState>::default());
    }

    /// Force every collective schedule through the explicit per-chunk
    /// event driver, disabling the closed-form/coalesced fast paths. The
    /// equivalence tests and the uncoalesced arms of the scale benches
    /// run with this on; virtual time must be bit-identical either way.
    pub fn force_explicit_schedules(&self, on: bool) {
        self.handle.kernel.state.lock().force_explicit = on;
    }

    /// Test pin beside [`Sim::force_explicit_schedules`]: drive every
    /// collective schedule from its unrolled form — each periodic segment
    /// expanded into the same sends as one single-repeat segment — so the
    /// equivalence tests can hold the periodic index arithmetic against
    /// the table it replaced, under either driver.
    pub fn force_unrolled_schedules(&self, on: bool) {
        self.handle.kernel.state.lock().force_unrolled = on;
    }

    /// Spawn a task before the simulation starts. See [`SimHandle::spawn`].
    pub fn spawn<F>(&mut self, name: impl Into<String>, f: F) -> TaskId
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        let (id, jh) = self.handle.spawn_inner(name.into(), f);
        self.join.push(jh);
        id
    }

    /// Run the simulation to completion.
    ///
    /// Returns `Ok` when every task has finished, [`SimError::Deadlock`]
    /// when the queue drains with tasks still blocked, or re-raises the
    /// panic of any task or scheduled action that panicked. The calling
    /// thread dispatches only until the first task is resumed; from then
    /// on the baton holder does, and this thread sleeps until the last
    /// dispatcher posts how the run ended.
    pub fn run(mut self) -> Result<SimReport, SimError> {
        let wall_start = std::time::Instant::now();
        let kernel = self.handle.kernel.clone();
        kernel.runner.bind(std::thread::current());
        self.handle.dispatch(kernel.state.lock(), None);
        kernel.runner.take();

        let mut st = kernel.state.lock();
        match st.outcome.take().expect("runner woken without an outcome") {
            Outcome::Drained => {}
            Outcome::Limit(err) => return Err(err),
            Outcome::Panicked(payload) => {
                drop(st);
                // Re-raise so test assertions inside ranks propagate.
                resume_unwind(payload)
            }
        }
        let report = SimReport {
            end_time: st.now,
            entries_processed: st.entries_processed,
            coalesced_chunks: st.coalesced_chunks,
            sim_wall_ms: wall_start.elapsed().as_secs_f64() * 1e3,
            handoffs: st.handoffs,
            inline_wakes: st.inline_wakes,
            tasks_completed: st.n_done,
            trace: st.trace.take().unwrap_or_default(),
        };
        if st.n_done != st.tasks.len() {
            let (blocked, parked_on) = st
                .tasks
                .iter()
                .filter(|t| t.status != TaskStatus::Done)
                .map(|t| (t.name.clone(), t.parked_on.to_string()))
                .unzip();
            // Blocked task threads are abandoned (they sit in `Baton::take`);
            // this is an error path and the process is normally about to exit
            // or the test to assert. Documented leak.
            return Err(SimError::Deadlock { blocked, parked_on, at: st.now });
        }
        drop(st);
        for jh in self.join.drain(..) {
            let _ = jh.join();
        }
        Ok(report)
    }
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.state.lock().now
    }

    fn push(&self, st: &mut KState, t: SimTime, item: Item) {
        debug_assert!(t >= st.now, "an entry queued in the past");
        let seq = st.seq;
        st.seq += 1;
        st.queue.push(Entry { t, seq, item });
    }

    /// Run the scheduler on the calling thread, which holds the baton and
    /// has nothing to run: pop entries in `(t, seq)` order, executing
    /// actions inline, until a fresh wake pops. `me` is the caller's own
    /// task, if it is a task that parked (its wake-up must already be
    /// registered); a finished task and `Sim::run` pass `None`.
    ///
    /// A wake for `me` returns at once — no other thread was involved. A
    /// wake for another task passes the baton to that task's thread and
    /// then blocks until the baton comes back (`me`) or returns (`None`).
    /// Whatever ends the run — a drained queue, a limit, a panic in an
    /// action — is posted for `Sim::run`, and `me` never resumes.
    pub(crate) fn dispatch<'a>(
        &'a self,
        mut st: MutexGuard<'a, KState>,
        me: Option<(TaskId, &Baton)>,
    ) {
        loop {
            if let Some(limit) = st.limit_entries {
                if st.entries_processed > limit {
                    let err = SimError::LimitExceeded {
                        what: format!("more than {limit} queue entries"),
                        at: st.now,
                    };
                    return self.stop(st, me, Outcome::Limit(err));
                }
            }
            let Some(entry) = st.queue.pop() else {
                return self.stop(st, me, Outcome::Drained);
            };
            debug_assert!(entry.t >= st.now, "time went backwards");
            st.now = entry.t;
            st.entries_processed += 1;
            if let Some(limit) = st.limit_time {
                if st.now > limit {
                    let err = SimError::LimitExceeded {
                        what: format!("virtual time past {limit}"),
                        at: st.now,
                    };
                    return self.stop(st, me, Outcome::Limit(err));
                }
            }
            match entry.item {
                Item::Wake { task, park_seq, coalesced } => {
                    let fresh = st.tasks[task.index()].status == TaskStatus::Blocked
                        && st.park_seqs[task.index()] == park_seq;
                    if !fresh {
                        continue; // stale wake: skip
                    }
                    st.coalesced_chunks += coalesced;
                    st.tasks[task.index()].status = TaskStatus::Running;
                    if st.trace.is_some() {
                        let name = st.tasks[task.index()].name.clone();
                        let t = st.now;
                        st.trace.as_mut().unwrap().push(TraceRec::new(t, name, "wake"));
                    }
                    if me.is_some_and(|(id, _)| id == task) {
                        st.inline_wakes += 1;
                        return;
                    }
                    st.handoffs += 1;
                    let next = st.tasks[task.index()].baton.clone();
                    drop(st);
                    next.pass();
                    if let Some((_, mine)) = me {
                        mine.take();
                    }
                    return;
                }
                Item::Action(f) => {
                    drop(st);
                    // Caught here so the panic is neither blamed on the task
                    // whose thread happens to be dispatching nor lost with an
                    // exiting task's thread.
                    let result = catch_unwind(AssertUnwindSafe(|| f(self)));
                    st = self.kernel.state.lock();
                    if let Err(payload) = result {
                        return self.stop(st, me, Outcome::Panicked(payload));
                    }
                }
            }
        }
    }

    /// Post how the run ended and wake `Sim::run`. A dispatching task
    /// never gets the baton back: its thread is abandoned here, exactly
    /// like every other blocked task's.
    fn stop(&self, mut st: MutexGuard<'_, KState>, me: Option<(TaskId, &Baton)>, outcome: Outcome) {
        st.outcome = Some(outcome);
        drop(st);
        self.kernel.runner.pass();
        if let Some((_, mine)) = me {
            mine.take();
            unreachable!("baton passed after the simulation stopped");
        }
    }

    /// Push a scheduled action (clamped to now) while already holding the
    /// kernel lock. Crate-internal plumbing for the contention module.
    pub(crate) fn push_action(&self, st: &mut KState, t: SimTime, f: Action) {
        let t = t.max(st.now);
        self.push(st, t, Item::Action(f));
    }

    /// Spawn a task during the simulation (e.g. a per-node progress
    /// engine). The new task starts at the current virtual time.
    ///
    /// Threads spawned mid-run are detached; they exit when their closure
    /// returns.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> TaskId
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        let (id, _jh) = self.spawn_inner(name.into(), f);
        id
    }

    pub(crate) fn spawn_inner<F>(&self, name: String, f: F) -> (TaskId, JoinHandle<()>)
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        let baton = Arc::new(Baton::default());
        // The lock is held across the thread spawn so the baton is bound
        // to its thread before the task's first wake can pop.
        let mut st = self.kernel.state.lock();
        let id = TaskId(st.tasks.len() as u32);
        let mut ctx = Ctx::new(self.clone(), id, name.clone(), baton.clone());
        let jh = std::thread::Builder::new()
            .name(format!("sim-{name}"))
            .spawn(move || {
                // Startup park: resumed by the wake pushed below.
                ctx.baton.take();
                let result = catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
                // Done either way; a finished task dispatches on its way
                // out, a panicked one ends the run.
                let h = ctx.handle();
                let mut st = h.kernel.state.lock();
                st.tasks[id.index()].status = TaskStatus::Done;
                st.n_done += 1;
                match result {
                    Ok(()) => h.dispatch(st, None),
                    Err(payload) => {
                        let msg = panic_message(payload.as_ref());
                        let msg = format!("simulated task '{}' panicked: {msg}", ctx.name());
                        h.stop(st, None, Outcome::Panicked(Box::new(msg)));
                    }
                }
            })
            .expect("failed to spawn task thread");
        baton.bind(jh.thread().clone());
        if let Some(f) = st.fault.as_mut() {
            f.resolve_task(id, &name);
        }
        st.tasks.push(TaskSlot {
            name,
            status: TaskStatus::Blocked,
            baton,
            parked_on: ParkedOn::Start,
        });
        st.park_seqs.push(0);
        // Initial wake resumes park_seq 0 (the task's startup park).
        let t = st.now;
        self.push(&mut st, t, Item::Wake { task: id, park_seq: 0, coalesced: 0 });
        (id, jh)
    }

    /// Create a pending one-shot event.
    pub fn new_event(&self) -> EventId {
        self.kernel.state.lock().events.alloc()
    }

    /// Has this event completed?
    pub fn event_done(&self, ev: EventId) -> bool {
        self.kernel.state.lock().events.get(ev).completed
    }

    /// Complete an event now, waking all waiters at the current time.
    /// Completing an already-completed event is a no-op.
    pub fn complete(&self, ev: EventId) {
        let mut st = self.kernel.state.lock();
        let slot = st.events.get_mut(ev);
        if slot.completed {
            return;
        }
        slot.completed = true;
        let groups = std::mem::take(&mut slot.group_waiters);
        let auto_free = slot.auto_free;
        let now = st.now;
        // In registration order, only the registration that brings a
        // group to zero produces a wake entry. Stale references —
        // wait-any groups that already fired on another event, possibly
        // recycled since — are skipped by the generation check.
        for gref in groups {
            self.fire_group_ref(&mut st, gref, now);
        }
        if auto_free {
            st.events.free(ev);
        }
    }

    /// Abandon an in-flight event: nobody will wait on it again, but a
    /// completion may still be scheduled. If the event has already
    /// completed it is recycled immediately; otherwise the slot frees
    /// itself the moment the completion fires. This is the primitive
    /// under queue purging — a purged operation's bytes may still land,
    /// but its completion is discarded instead of leaking the slot.
    pub fn release_event(&self, ev: EventId) {
        let mut st = self.kernel.state.lock();
        if st.events.get(ev).completed {
            drop(st);
            self.free_event(ev);
        } else {
            st.events.get_mut(ev).auto_free = true;
        }
    }

    /// Decrement a wait-group registration; the registration that brings
    /// the group to zero wakes its task. Stale references (groups that
    /// already fired, possibly recycled under a newer generation) are
    /// skipped. Shared by event completion and board posts.
    fn fire_group_ref(&self, st: &mut KState, gref: GroupRef, now: SimTime) {
        let g = &mut st.wait_groups[gref.gid as usize];
        if !g.live || g.gen != gref.gen {
            return;
        }
        debug_assert!(g.remaining > 0, "live wait group with zero remaining");
        g.remaining -= 1;
        if g.remaining == 0 {
            g.live = false;
            let (task, park_seq) = (g.task, g.park_seq);
            st.free_wait_groups.push(gref.gid);
            self.push(st, now, Item::Wake { task, park_seq, coalesced: 0 });
        }
    }

    /// Create a notification board (see [`crate::Ctx::board_waitsome`]).
    /// Boards live as long as the simulation and their slots are never
    /// reused, so a `BoardId` names one board for the whole run.
    pub fn new_board(&self) -> BoardId {
        let mut st = self.kernel.state.lock();
        let id = BoardId(st.boards.len() as u32);
        st.boards.push(BoardSlot::default());
        id
    }

    /// Post notification `id` with `value` on a board, waking every task
    /// whose parked waitsome range contains `id`. Posting to an id that
    /// already holds an unconsumed value overwrites it (level-triggered
    /// GASPI semantics — use disjoint id sets if every post matters).
    /// Callable from tasks and from scheduled actions.
    pub fn board_post(&self, board: BoardId, id: u32, value: u64) {
        let mut st = self.kernel.state.lock();
        let now = st.now();
        st.boards[board.index()].values.insert(id, value);
        // Fire (and drop) every parked waiter whose range covers the id;
        // waiters outside the range keep their registration. The fired
        // list lives on the kernel state and is reused across posts so
        // the notification hot path allocates nothing per call.
        let mut fired = std::mem::take(&mut st.board_fired);
        fired.clear();
        {
            let slot = &mut st.boards[board.index()];
            slot.waiters.retain(|w| {
                if w.contains(id) {
                    fired.push(w.group);
                    false
                } else {
                    true
                }
            });
        }
        for &gref in &fired {
            self.fire_group_ref(&mut st, gref, now);
        }
        st.board_fired = fired;
    }

    /// Atomically consume notification `id`, returning its value if one
    /// was posted and not yet consumed (`gaspi_notify_reset`).
    pub fn board_reset(&self, board: BoardId, id: u32) -> Option<u64> {
        let mut st = self.kernel.state.lock();
        st.boards[board.index()].values.remove(&id)
    }

    /// Schedule completion of an event at an absolute virtual time.
    pub fn complete_at(&self, ev: EventId, t: SimTime) {
        let h = self.clone();
        self.schedule_at(t, move |_| h.complete(ev));
    }

    /// Recycle a completed event. The handle must not be used again.
    pub fn free_event(&self, ev: EventId) {
        let mut st = self.kernel.state.lock();
        // Wait-any groups that fired on another event leave stale
        // references behind; drop them so only *live* registrations count
        // as "someone still waits on this event".
        let refs = std::mem::take(&mut st.events.get_mut(ev).group_waiters);
        let live: Vec<GroupRef> = refs
            .into_iter()
            .filter(|r| {
                let g = &st.wait_groups[r.gid as usize];
                g.live && g.gen == r.gen
            })
            .collect();
        st.events.get_mut(ev).group_waiters = live;
        st.events.free(ev);
    }

    /// Run a closure at absolute virtual time `t` (clamped to now), on the
    /// thread of whoever holds the baton when it pops — never concurrently
    /// with a task. This is the primitive behind one-sided completion.
    pub fn schedule_at<F>(&self, t: SimTime, f: F)
    where
        F: FnOnce(&SimHandle) + Send + 'static,
    {
        let mut st = self.kernel.state.lock();
        let t = t.max(st.now);
        self.push(&mut st, t, Item::Action(Box::new(f)));
    }

    /// Register a FIFO bandwidth resource (a link, NIC or copy engine).
    pub fn new_resource(&self, bytes_per_ns: f64, latency: Dur) -> ResourceId {
        let mut st = self.kernel.state.lock();
        let id = ResourceId(st.resources.len() as u32);
        st.resources.push(ResSlot::new(bytes_per_ns, latency));
        id
    }

    /// Reserve a transfer of `bytes` on a resource. Returns the modelled
    /// departure/arrival times; the caller schedules completion actions.
    pub fn transfer(&self, res: ResourceId, bytes: u64) -> Transfer {
        let mut st = self.kernel.state.lock();
        let now = st.now;
        self.transfer_locked(&mut st, res, now, bytes)
    }

    /// Reserve a transfer whose payload only becomes available at `at`
    /// (chained staging stages, software-overhead-delayed NIC injection).
    pub fn transfer_from(&self, res: ResourceId, at: SimTime, bytes: u64) -> Transfer {
        let mut st = self.kernel.state.lock();
        let at = at.max(st.now);
        self.transfer_locked(&mut st, res, at, bytes)
    }

    /// Reserve a control packet (request, acknowledgement, RTS/CTS) on
    /// `res`'s control lane: delivered `latency + bytes/bandwidth` after
    /// `at` whatever bulk payload the link is streaming, and perturbed by
    /// an armed fault window exactly as a payload starting at `at` is.
    pub fn control_from(&self, res: ResourceId, at: SimTime, bytes: u64) -> SimTime {
        let mut st = self.kernel.state.lock();
        let at = at.max(st.now);
        let (at, milli, extra) = match st.fault.as_mut().and_then(|f| f.perturb(res, at)) {
            Some(p) => (at.max(p.not_before), p.factor_milli, p.extra),
            None => (at, 1000, Dur::ZERO),
        };
        st.resources[res.index()].control(at, bytes, milli, extra)
    }

    /// Take the kernel state lock for a run of event-free reservations
    /// (see [`Reservations`]). The caller must not touch the handle — or
    /// park — until the guard is dropped.
    pub fn reserve(&self) -> Reservations<'_> {
        let st = self.kernel.state.lock();
        debug_assert!(st.contention.is_none(), "event-free reservations need disarmed contention");
        Reservations { handle: self, st }
    }

    /// Are the collective fast paths forced off
    /// ([`Sim::force_explicit_schedules`])?
    pub fn explicit_schedules_forced(&self) -> bool {
        self.kernel.state.lock().force_explicit
    }

    /// Are schedules driven from their unrolled form
    /// ([`Sim::force_unrolled_schedules`])?
    pub fn unrolled_schedules_forced(&self) -> bool {
        self.kernel.state.lock().force_unrolled
    }

    /// Shared reservation path: consult the fault injector (one `Option`
    /// branch when disarmed — the zero-cost guarantee) and fall through
    /// to the clean closed form when no window matches.
    pub(crate) fn transfer_locked(
        &self,
        st: &mut KState,
        res: ResourceId,
        at: SimTime,
        bytes: u64,
    ) -> Transfer {
        let now = st.now;
        if let Some(f) = st.fault.as_mut() {
            let est = at.max(st.resources[res.index()].free_at());
            if let Some(p) = f.perturb(res, est) {
                return st.resources[res.index()].transfer_faulted(
                    now,
                    at.max(p.not_before),
                    bytes,
                    p.factor_milli,
                    p.extra,
                );
            }
        }
        st.resources[res.index()].transfer_from(now, at, bytes)
    }

    /// Consume one scheduled control-message fault for `key` (see
    /// [`crate::fault_key`]), if a plan is armed and has charges left.
    /// Protocol layers call this at the instant a control message is
    /// posted; `None` means deliver normally.
    pub fn take_ctrl_fault(&self, key: u64) -> Option<CtrlFault> {
        let mut st = self.kernel.state.lock();
        st.fault.as_mut().and_then(|f| f.take_ctrl(key))
    }

    /// Number of perturbations the armed injector has applied so far
    /// (0 when no plan is installed). Diagnostics for chaos tests.
    pub fn faults_injected(&self) -> u64 {
        self.kernel.state.lock().fault.as_ref().map_or(0, |f| f.injected)
    }

    /// Is a fault plan armed? Cheaper than [`SimHandle::fault_plan`] (no
    /// clone) — the collective fast paths consult this to decide whether
    /// the steady-state jump is safe (perturbation windows make steps
    /// non-uniform, so an armed plan keeps per-step pricing).
    pub fn fault_armed(&self) -> bool {
        self.kernel.state.lock().fault.is_some()
    }

    /// The installed fault plan, if any (a clone — plans are immutable
    /// once armed). Health monitors derive `state_vec`-style views from
    /// it; `None` when the fabric is clean.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.kernel.state.lock().fault.as_ref().map(|f| f.plan().clone())
    }

    /// Expand rank-kill events into `[at, ∞)` dead windows over concrete
    /// link resources. The kernel has no notion of ranks, so the layer
    /// that owns the rank → resource map (the fabric) performs the
    /// expansion at build time and hands the windows down here. A no-op
    /// when no plan is armed — a plan with rank kills is never empty, so
    /// the injector is always armed when this matters. Deterministic:
    /// called once, at a fixed point of the event order, before any
    /// transfer consults the plan.
    pub fn arm_rank_kill_windows(&self, windows: &[(ResourceId, SimTime)]) {
        let mut st = self.kernel.state.lock();
        if let Some(f) = st.fault.as_mut() {
            f.extend_kill_windows(windows);
        }
    }

    /// Next time the resource is free (for diagnostics / tests).
    pub fn resource_free_at(&self, res: ResourceId) -> SimTime {
        self.kernel.state.lock().resources[res.index()].free_at()
    }

    /// Cumulative bytes reserved on the resource so far, bulk and control
    /// lane together (utilisation reporting / tests).
    pub fn resource_bytes(&self, res: ResourceId) -> u64 {
        self.kernel.state.lock().resources[res.index()].total_bytes()
    }

    /// Append a record to the trace, if tracing is enabled.
    pub fn trace(&self, who: impl Into<String>, what: impl Into<String>) {
        let mut st = self.kernel.state.lock();
        let t = st.now;
        if let Some(trace) = st.trace.as_mut() {
            trace.push(TraceRec::new(t, who.into(), what.into()));
        }
    }

    /// Number of live (allocated, unfreed) events — used by leak tests.
    pub fn live_events(&self) -> usize {
        self.kernel.state.lock().events.len()
    }

    /// Queue a wake for `task`'s park `park_seq`, standing for
    /// `coalesced` per-chunk completions (see
    /// [`crate::Ctx::sleep_until_coalesced`]; 0 for every other wake).
    pub(crate) fn push_wake(
        &self,
        st: &mut KState,
        t: SimTime,
        task: TaskId,
        park_seq: u64,
        coalesced: u64,
    ) {
        self.push(st, t, Item::Wake { task, park_seq, coalesced });
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
