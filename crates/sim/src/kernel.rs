//! The discrete-event scheduler.
//!
//! Design (DESIGN.md D1): a *sequential* deterministic discrete-event
//! simulation. Simulated ranks write ordinary blocking code, each on a
//! fiber of its own (a stack and a saved register set, `fiber.rs`), and
//! every fiber runs on the one OS thread inside `Sim::run`, so exactly
//! one task executes at any moment. Whichever context has nothing left to
//! run — a task that parks, `Sim::run` itself — pops the priority queue
//! ([`SimHandle::dispatch`]) and switches straight to the task the queue
//! resumes next (DESIGN.md D19); a task that finishes switches back to
//! `Sim::run`, which pops on. The queue orders entries by `(virtual time,
//! sequence number)`; ties are broken by insertion order, so a given
//! program pops the same entries in the same order on every run, whichever
//! context did the popping ([`SimReport::digest`] hashes that order).
//!
//! Two kinds of queue entries exist:
//!
//! * **Wake** — resume a parked task: at a timer or known instant
//!   (`delay`, `wait_until`), or pushed by a board or completion-queue
//!   post.
//! * **Action** — run a closure at a given virtual time, on the stack
//!   of whichever context pops it (never concurrently with a
//!   task). Actions are how *one-sided* operations complete without any
//!   participation from the target rank (DESIGN.md D2): an RMA put
//!   schedules an action at the modelled arrival time which copies the
//!   bytes into the target segment, and a completion whose instant was
//!   not known at issue is an action that posts to a board.
//!
//! Spurious wake-ups are impossible by construction: every park increments
//! the task's `park_seq`, and every wake entry carries the sequence number
//! of the park it is meant to resume; mismatched entries are skipped.

use std::any::Any;
use std::cell::{RefCell, RefMut};
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;

use crate::board::{BoardId, BoardSlot};
use crate::ctx::Ctx;
use crate::event::{CqId, CqSlot, GroupRef};
use crate::fault::{CtrlFault, FaultPlan, FaultState};
use crate::fiber::{self, Context, Fiber};
use crate::qos::{ContentionState, FlowId, FlowSlot};
use crate::resource::{ResSlot, ResourceId, Transfer};
use crate::rng::derive_seed;
use crate::task::{ParkedOn, TaskId, TaskSlot, TaskStatus};
use crate::time::{Dur, SimTime};

/// Closure run at a scheduled virtual time, by whichever context pops it.
pub type Action = Box<dyn FnOnce(&SimHandle) + 'static>;

enum Item {
    /// Resume task if it is still parked on the park numbered `park_seq`.
    /// `coalesced` counts how many per-chunk completions this single heap
    /// entry stands for (0 for ordinary wakes): the event-free collective
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

/// One park on a board or a completion queue: the first post that
/// reaches the group fires it, and the group's one wake entry resumes
/// the task.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WaitGroup {
    pub(crate) task: TaskId,
    pub(crate) park_seq: u64,
    pub(crate) live: bool,
    /// Bumped on slot reuse so stale board- and queue-side references are
    /// detectable.
    pub(crate) gen: u32,
}

pub(crate) struct KState {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Entry>,
    pub(crate) tasks: Vec<TaskSlot>,
    /// Per-task park counter used to invalidate stale wakes.
    pub(crate) park_seqs: Vec<u64>,
    /// Wait groups of parked board and queue waits (free-list recycled).
    pub(crate) wait_groups: Vec<WaitGroup>,
    free_wait_groups: Vec<u32>,
    /// Notification boards (range-waitable id → value slots).
    pub(crate) boards: Vec<BoardSlot>,
    /// Scratch buffer for `board_post`'s fired-waiter sweep, reused across
    /// calls so the hot notification path allocates nothing.
    board_fired: Vec<GroupRef>,
    /// Completion queues (free-list recycled, generation-tagged).
    pub(crate) cqs: Vec<CqSlot>,
    free_cqs: Vec<u32>,
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
    /// Rolling hash of every popped entry (see [`SimReport::digest`]).
    digest: u64,
    /// Switches to another task / wakes consumed by the task that was
    /// dispatching (see [`SimReport`]).
    handoffs: u64,
    inline_wakes: u64,
    /// Total per-chunk completions that were folded into coalesced wake
    /// entries instead of costing one heap entry each.
    pub(crate) coalesced_chunks: u64,
    /// When set, the collective fast paths stand down and every schedule
    /// runs through the explicit per-chunk driver (equivalence
    /// testing and the uncoalesced bench arms).
    pub(crate) force_explicit: bool,
    /// When set, every periodic schedule is unrolled into one
    /// single-repeat segment before it is driven (the differential
    /// reference of `crates/xccl/tests/fastpath.rs`).
    pub(crate) force_unrolled: bool,
    limit_entries: Option<u64>,
    limit_time: Option<SimTime>,
    /// Why dispatching stopped, posted for `Sim::run` by whichever context
    /// was dispatching at the time.
    outcome: Option<Outcome>,
    /// The task whose fiber just switched to `Sim::run` for the last
    /// time; `run` drops the fiber, returning its stack to the pool.
    finished: Option<TaskId>,
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

    /// Allocate a wait group for `task`'s park `park_seq`. Returns the
    /// generation-tagged reference boards and queues store.
    pub(crate) fn alloc_wait_group(&mut self, task: TaskId, park_seq: u64) -> GroupRef {
        if let Some(i) = self.free_wait_groups.pop() {
            let gen = self.wait_groups[i as usize].gen.wrapping_add(1);
            self.wait_groups[i as usize] = WaitGroup { task, park_seq, live: true, gen };
            GroupRef { gid: i, gen }
        } else {
            self.wait_groups.push(WaitGroup { task, park_seq, live: true, gen: 0 });
            GroupRef { gid: (self.wait_groups.len() - 1) as u32, gen: 0 }
        }
    }

    /// Kill a wait group that will never fire (its waiter timed out), and
    /// say whether it was still live. A registration left on a board or
    /// queue becomes a stale reference, skipped by the generation check
    /// exactly like a fired group's.
    pub(crate) fn kill_group(&mut self, gref: GroupRef) -> bool {
        let g = &mut self.wait_groups[gref.gid as usize];
        let live = g.live && g.gen == gref.gen;
        if live {
            g.live = false;
            self.free_wait_groups.push(gref.gid);
        }
        live
    }

    /// The live queue `cq` names. Panics on a released handle, like a
    /// stale [`FlowId`]: every task-side use of a queue comes through here.
    pub(crate) fn cq_mut(&mut self, cq: CqId) -> &mut CqSlot {
        let slot = &mut self.cqs[cq.idx as usize];
        assert_eq!(slot.gen, cq.gen, "stale CqId: queue {} was released", cq.idx);
        slot
    }

    /// The queue `cq` names, unless it was released: a completion still
    /// in flight to a released queue is dropped, never posted to the
    /// slot's next tenant.
    pub(crate) fn live_cq(&mut self, cq: CqId) -> Option<&mut CqSlot> {
        Some(&mut self.cqs[cq.idx as usize]).filter(|slot| slot.gen == cq.gen)
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
    pub(crate) state: RefCell<KState>,
    /// `Sim::run`'s own context, resumed when a task finishes or an
    /// [`Outcome`] is posted.
    runner: Rc<Context>,
}

/// Cloneable handle to the simulation kernel, bound to the thread that
/// runs it.
///
/// Usable from tasks, scheduled actions, and before `run()`. All methods
/// are non-blocking; blocking operations live on [`Ctx`].
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) kernel: Rc<Kernel>,
}

/// The kernel state, borrowed across a whole run of event-free
/// reservations: the collective march prices every chunk of a schedule
/// against the live link resources under **one** borrow instead of one
/// per chunk. The virtual clock stays frozen for the borrow's lifetime,
/// and any kernel call made meanwhile panics on the borrow.
pub struct Reservations<'a> {
    handle: &'a SimHandle,
    st: RefMut<'a, KState>,
}

impl Reservations<'_> {
    /// Reserve a flow-tagged transfer *without* a completion: exactly the
    /// resource arithmetic and flow-stat update of the disarmed
    /// [`SimHandle::transfer_qos`] path, minus the queue post and its
    /// action. The collective fast paths use this to price a
    /// whole chunk schedule arithmetically — fault-plan perturbation
    /// included, per edge, via the shared `transfer_in` path — and
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
        let tr = self.handle.transfer_in(st, res, at, bytes);
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
    /// uniform shift (the collective march's jump detector does).
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

    /// Next time the resource is free, read through the held borrow.
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
    /// Rolling hash of every processed entry in pop order: its virtual
    /// time, heap sequence number, kind (action, fresh or stale wake) and,
    /// for a wake, its task. Always on: two runs with equal digests popped
    /// the same entries in the same order.
    pub digest: u64,
    /// Per-chunk completions folded into coalesced wake entries by the
    /// collective fast paths — work the scheduler priced without paying
    /// one heap entry per chunk. `0` when no fast path ran.
    pub coalesced_chunks: u64,
    /// Wall-clock milliseconds the scheduler loop itself took — the cost
    /// of the *simulator*, as opposed to the simulated virtual time.
    pub sim_wall_ms: f64,
    /// Fresh wakes for a task other than the dispatching one: one fiber
    /// switch each, from the dispatcher to that task. Exact and
    /// repeatable per seed.
    pub handoffs: u64,
    /// Wakes consumed by the very task that was dispatching: it parked,
    /// popped its own wake and returned without a switch.
    pub inline_wakes: u64,
    /// Number of tasks that ran to completion.
    pub tasks_completed: usize,
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

/// A complete simulation: the kernel and the tasks spawned on it.
pub struct Sim {
    handle: SimHandle,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulation at virtual time zero.
    pub fn new() -> Self {
        let kernel = Rc::new(Kernel {
            state: RefCell::new(KState {
                now: SimTime::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                tasks: Vec::new(),
                park_seqs: Vec::new(),
                wait_groups: Vec::new(),
                free_wait_groups: Vec::new(),
                boards: Vec::new(),
                board_fired: Vec::new(),
                cqs: Vec::new(),
                free_cqs: Vec::new(),
                resources: Vec::new(),
                fault: None,
                flows: Vec::new(),
                free_flows: Vec::new(),
                contention: None,
                n_done: 0,
                entries_processed: 0,
                digest: 0,
                handoffs: 0,
                inline_wakes: 0,
                coalesced_chunks: 0,
                force_explicit: false,
                force_unrolled: false,
                limit_entries: None,
                limit_time: None,
                outcome: None,
                finished: None,
            }),
            runner: Rc::default(),
        });
        Sim { handle: SimHandle { kernel } }
    }

    /// Handle usable to spawn tasks and schedule actions before `run()`.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// Abort with [`SimError::LimitExceeded`] after this many queue entries.
    pub fn limit_entries(&self, n: u64) {
        self.handle.kernel.state.borrow_mut().limit_entries = Some(n);
    }

    /// Abort with [`SimError::LimitExceeded`] once virtual time passes `t`.
    pub fn limit_time(&self, t: SimTime) {
        self.handle.kernel.state.borrow_mut().limit_time = Some(t);
    }

    /// Install a fault plan, arming the deterministic injector. Must be
    /// called before tasks whose names the plan's stragglers match are
    /// spawned (the factor is resolved once at spawn). Installing an
    /// empty plan is equivalent to not installing one.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        let mut st = self.handle.kernel.state.borrow_mut();
        st.fault = if plan.is_empty() { None } else { Some(Box::new(FaultState::new(plan))) };
    }

    /// Arm weighted-fair-queuing contention: flow-tagged transfers
    /// ([`SimHandle::transfer_qos`]) on a shared link fair-share its
    /// bandwidth by QoS weight instead of serialising FIFO. Disarmed
    /// (the default), flow-tagged transfers replay bit-identically to
    /// the closed-form FIFO model (the `qos` module docs spell out the
    /// pricing rule).
    pub fn enable_contention(&self) {
        self.handle.kernel.state.borrow_mut().contention = Some(Box::<ContentionState>::default());
    }

    /// Force every collective schedule through the explicit per-chunk
    /// driver, disabling the coalesced fast path. The
    /// equivalence tests and the uncoalesced arms of the scale benches
    /// run with this on; virtual time must be bit-identical either way.
    pub fn force_explicit_schedules(&self, on: bool) {
        self.handle.kernel.state.borrow_mut().force_explicit = on;
    }

    /// Test pin beside [`Sim::force_explicit_schedules`]: drive every
    /// collective schedule from its unrolled form — each periodic segment
    /// expanded into the same sends as one single-repeat segment — so the
    /// equivalence tests can hold the periodic index arithmetic against
    /// the table it replaced, under either driver.
    pub fn force_unrolled_schedules(&self, on: bool) {
        self.handle.kernel.state.borrow_mut().force_unrolled = on;
    }

    /// Spawn a task before the simulation starts. See [`SimHandle::spawn`].
    pub fn spawn<F>(&mut self, name: impl Into<String>, f: F) -> TaskId
    where
        F: FnOnce(&mut Ctx) + 'static,
    {
        self.handle.spawn(name, f)
    }

    /// Run the simulation to completion.
    ///
    /// Returns `Ok` when every task has finished, [`SimError::Deadlock`]
    /// when the queue drains with tasks still blocked, or re-raises the
    /// panic of any task or scheduled action that panicked. Every task
    /// runs on the calling thread. This context dispatches until it
    /// switches to a task; parked tasks dispatch among themselves, and
    /// control returns here when a task finishes or the run ends.
    pub fn run(self) -> Result<SimReport, SimError> {
        let wall_start = std::time::Instant::now();
        let h = &self.handle;
        let mut st = h.kernel.state.borrow_mut();
        while st.outcome.is_none() {
            h.dispatch(st, None);
            st = h.kernel.state.borrow_mut();
            if let Some(id) = st.finished.take() {
                // Switched here from its last frame: nothing runs on that
                // stack again.
                st.tasks[id.index()].fiber = None;
            }
        }
        match st.outcome.take().expect("the loop ends on an outcome") {
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
            digest: st.digest,
            coalesced_chunks: st.coalesced_chunks,
            sim_wall_ms: wall_start.elapsed().as_secs_f64() * 1e3,
            handoffs: st.handoffs,
            inline_wakes: st.inline_wakes,
            tasks_completed: st.n_done,
        };
        if st.n_done != st.tasks.len() {
            let (blocked, parked_on) = st
                .tasks
                .iter()
                .filter(|t| t.status != TaskStatus::Done)
                .map(|t| (t.name.clone(), t.parked_on.to_string()))
                .unzip();
            // Blocked tasks' fibers are abandoned mid-run: their frames
            // keep the kernel alive, so neither it nor their stacks are
            // ever freed. This is an error path; documented leak.
            return Err(SimError::Deadlock { blocked, parked_on, at: st.now });
        }
        Ok(report)
    }
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.state.borrow().now
    }

    fn push(&self, st: &mut KState, t: SimTime, item: Item) {
        debug_assert!(t >= st.now, "an entry queued in the past");
        let seq = st.seq;
        st.seq += 1;
        st.queue.push(Entry { t, seq, item });
    }

    /// Run the scheduler in the calling context, which has nothing to
    /// run: pop entries in `(t, seq)` order, executing actions inline,
    /// until a fresh wake pops. `me` is the caller's own task and fiber
    /// context, if it is a task that parked (its wake-up must already be
    /// registered); `Sim::run` passes `None`.
    ///
    /// A wake for `me` returns at once, without a switch. A wake for
    /// another task switches to that task's fiber, and returns when this
    /// context is resumed: `me` by its own wake, `Sim::run` by a task
    /// that finished. Whatever ends the run — a drained queue, a limit, a
    /// panic in an action — is posted for `Sim::run`, and `me` never
    /// resumes.
    pub(crate) fn dispatch<'a>(
        &'a self,
        mut st: RefMut<'a, KState>,
        me: Option<(TaskId, &Context)>,
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
            // Fold the entry into the run digest: time and sequence here,
            // then one word for kind and task — 0 for an action,
            // 2·(task + 1) + fresh for a wake.
            let digest = derive_seed(derive_seed(st.digest, entry.t.nanos()), entry.seq);
            match entry.item {
                Item::Wake { task, park_seq, coalesced } => {
                    let fresh = st.tasks[task.index()].status == TaskStatus::Blocked
                        && st.park_seqs[task.index()] == park_seq;
                    st.digest = derive_seed(digest, (task.index() as u64 + 1) << 1 | fresh as u64);
                    if !fresh {
                        continue; // stale wake: skip
                    }
                    st.coalesced_chunks += coalesced;
                    st.tasks[task.index()].status = TaskStatus::Running;
                    if me.is_some_and(|(id, _)| id == task) {
                        st.inline_wakes += 1;
                        return;
                    }
                    st.handoffs += 1;
                    let next = st.tasks[task.index()].fiber.as_ref().expect("a live task").take();
                    drop(st);
                    fiber::switch(me.map_or(&*self.kernel.runner, |(_, mine)| mine), next);
                    return;
                }
                Item::Action(f) => {
                    st.digest = derive_seed(digest, 0);
                    drop(st);
                    // Caught here so the panic is not blamed on the task
                    // whose fiber happens to be dispatching.
                    let result = catch_unwind(AssertUnwindSafe(|| f(self)));
                    st = self.kernel.state.borrow_mut();
                    if let Err(payload) = result {
                        return self.stop(st, me, Outcome::Panicked(payload));
                    }
                }
            }
        }
    }

    /// Post how the run ended for `Sim::run`, switching back to it from a
    /// dispatching task. That task's fiber is abandoned here, like every
    /// other blocked task's.
    fn stop(&self, mut st: RefMut<'_, KState>, me: Option<(TaskId, &Context)>, outcome: Outcome) {
        st.outcome = Some(outcome);
        drop(st);
        if let Some((_, mine)) = me {
            fiber::switch(mine, self.kernel.runner.take());
            unreachable!("a task resumed after the simulation stopped");
        }
    }

    /// Push a scheduled action (clamped to now) into kernel state the
    /// caller already borrows. Crate-internal plumbing for the contention
    /// module.
    pub(crate) fn push_action(&self, st: &mut KState, t: SimTime, f: Action) {
        let t = t.max(st.now);
        self.push(st, t, Item::Action(f));
    }

    /// Spawn a task, before or during the simulation (e.g. a per-node
    /// progress engine). The new task starts at the current virtual time.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> TaskId
    where
        F: FnOnce(&mut Ctx) + 'static,
    {
        let name = name.into();
        let mut st = self.kernel.state.borrow_mut();
        let id = TaskId(st.tasks.len() as u32);
        // Weak until the task runs, so a `Sim` dropped unrun drops its
        // tasks' closures and stacks with it.
        let kernel = Rc::downgrade(&self.kernel);
        let task_name = name.clone();
        let fiber = Fiber::new(self.kernel.runner.clone(), move |me| {
            let kernel = kernel.upgrade().expect("a task runs inside Sim::run");
            let mut ctx = Ctx::new(SimHandle { kernel }, id, task_name, me);
            let result = catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
            // Done either way, and a panic ends the run. The fiber then
            // switches to `Sim::run`, owning nothing: `ctx`, and with it
            // this handle on the kernel, is dropped first.
            let mut st = ctx.kernel.state.borrow_mut();
            st.tasks[id.index()].status = TaskStatus::Done;
            st.n_done += 1;
            st.finished = Some(id);
            if let Err(payload) = result {
                let msg = panic_message(payload.as_ref());
                let msg = format!("simulated task '{}' panicked: {msg}", ctx.name());
                st.outcome = Some(Outcome::Panicked(Box::new(msg)));
            }
        });
        if let Some(f) = st.fault.as_mut() {
            f.resolve_task(id, &name);
        }
        st.tasks.push(TaskSlot {
            name,
            status: TaskStatus::Blocked,
            fiber: Some(fiber),
            parked_on: ParkedOn::Start,
        });
        st.park_seqs.push(0);
        // Initial wake resumes park_seq 0: the fiber's first frame.
        let t = st.now;
        self.push(&mut st, t, Item::Wake { task: id, park_seq: 0, coalesced: 0 });
        id
    }

    /// Fire a wait group: queue its task's wake now and free the slot.
    /// Stale references (groups that timed out, possibly recycled under a
    /// newer generation) are skipped. Shared by board and queue posts.
    fn fire_group_ref(&self, st: &mut KState, gref: GroupRef, now: SimTime) {
        let g = &mut st.wait_groups[gref.gid as usize];
        if !g.live || g.gen != gref.gen {
            return;
        }
        g.live = false;
        let (task, park_seq) = (g.task, g.park_seq);
        st.free_wait_groups.push(gref.gid);
        self.push(st, now, Item::Wake { task, park_seq, coalesced: 0 });
    }

    /// Create a notification board (see [`crate::Ctx::board_waitsome`]).
    /// Boards live as long as the simulation and their slots are never
    /// reused, so a `BoardId` names one board for the whole run.
    pub fn new_board(&self) -> BoardId {
        let mut st = self.kernel.state.borrow_mut();
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
        let mut st = self.kernel.state.borrow_mut();
        let now = st.now();
        st.boards[board.index()].post(id, value);
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

    /// Consume notification `id` in one call, returning its value if one
    /// was posted and not yet consumed (`gaspi_notify_reset`).
    pub fn board_reset(&self, board: BoardId, id: u32) -> Option<u64> {
        let mut st = self.kernel.state.borrow_mut();
        st.boards[board.index()].take_lowest(id, 1).map(|(_, v)| v)
    }

    /// Open a completion queue (see [`crate::Ctx::wait_cq`]): transfers
    /// posted to it with [`SimHandle::transfer_qos`] complete into it by
    /// tag.
    pub fn open_cq(&self) -> CqId {
        let mut st = self.kernel.state.borrow_mut();
        if let Some(idx) = st.free_cqs.pop() {
            return CqId { idx, gen: st.cqs[idx as usize].gen };
        }
        st.cqs.push(CqSlot::default());
        CqId { idx: st.cqs.len() as u32 - 1, gen: 0 }
    }

    /// Release a queue for reuse by a later [`SimHandle::open_cq`]. Ready
    /// tags are discarded, and transfers still in flight to it are
    /// dropped when they complete (or, on an armed fair queue, when they
    /// would have been enqueued): a straggler never reaches the slot's
    /// next tenant. Every copy of the handle is stale afterwards, and
    /// using one (a second release included) panics.
    pub fn release_cq(&self, cq: CqId) {
        let mut st = self.kernel.state.borrow_mut();
        let slot = st.cq_mut(cq);
        slot.gen = slot.gen.wrapping_add(1);
        slot.ready.clear();
        slot.inflight = 0;
        slot.waiter = None;
        st.free_cqs.push(cq.idx);
    }

    /// Move every tag posted to `cq` and not yet drained onto the end of
    /// `into`, in post order.
    pub fn drain_cq(&self, cq: CqId, into: &mut Vec<u64>) {
        into.append(&mut self.kernel.state.borrow_mut().cq_mut(cq).ready);
    }

    /// A transfer posted to `cq` completed: append its tag and fire the
    /// parked task's group, if any. Dropped if the queue was released.
    pub(crate) fn post_cq(&self, cq: CqId, tag: u64) {
        let mut st = self.kernel.state.borrow_mut();
        let Some(slot) = st.live_cq(cq) else { return };
        slot.inflight -= 1;
        slot.ready.push(tag);
        if let Some(gref) = slot.waiter.take() {
            let now = st.now;
            self.fire_group_ref(&mut st, gref, now);
        }
    }

    /// Run a closure at absolute virtual time `t` (clamped to now), in
    /// whichever context pops it — never concurrently with a task. This is
    /// the primitive behind a one-sided payload's deposit.
    pub fn schedule_at<F>(&self, t: SimTime, f: F)
    where
        F: FnOnce(&SimHandle) + 'static,
    {
        let mut st = self.kernel.state.borrow_mut();
        let t = t.max(st.now);
        self.push(&mut st, t, Item::Action(Box::new(f)));
    }

    /// Register a FIFO bandwidth resource (a link, NIC or copy engine).
    pub fn new_resource(&self, bytes_per_ns: f64, latency: Dur) -> ResourceId {
        let mut st = self.kernel.state.borrow_mut();
        let id = ResourceId(st.resources.len() as u32);
        st.resources.push(ResSlot::new(bytes_per_ns, latency));
        id
    }

    /// Reserve a transfer of `bytes` on a resource. Returns the modelled
    /// departure/arrival times; the caller schedules completion actions.
    pub fn transfer(&self, res: ResourceId, bytes: u64) -> Transfer {
        let mut st = self.kernel.state.borrow_mut();
        let now = st.now;
        self.transfer_in(&mut st, res, now, bytes)
    }

    /// Reserve a transfer whose payload only becomes available at `at`
    /// (chained staging stages, software-overhead-delayed NIC injection).
    pub fn transfer_from(&self, res: ResourceId, at: SimTime, bytes: u64) -> Transfer {
        let mut st = self.kernel.state.borrow_mut();
        let at = at.max(st.now);
        self.transfer_in(&mut st, res, at, bytes)
    }

    /// Reserve a control packet (request, acknowledgement, RTS/CTS) on
    /// `res`'s control lane: delivered `latency + bytes/bandwidth` after
    /// `at` whatever bulk payload the link is streaming, and perturbed by
    /// an armed fault window exactly as a payload starting at `at` is.
    pub fn control_from(&self, res: ResourceId, at: SimTime, bytes: u64) -> SimTime {
        let mut st = self.kernel.state.borrow_mut();
        let at = at.max(st.now);
        let (at, milli, extra) = match st.fault.as_mut().and_then(|f| f.perturb(res, at)) {
            Some(p) => (at.max(p.not_before), p.factor_milli, p.extra),
            None => (at, 1000, Dur::ZERO),
        };
        st.resources[res.index()].control(at, bytes, milli, extra)
    }

    /// Borrow the kernel state for a run of event-free reservations (see
    /// [`Reservations`]). The caller must not touch the handle — or park —
    /// until the borrow is dropped: a kernel call made meanwhile panics.
    pub fn reserve(&self) -> Reservations<'_> {
        let st = self.kernel.state.borrow_mut();
        debug_assert!(st.contention.is_none(), "event-free reservations need disarmed contention");
        Reservations { handle: self, st }
    }

    /// Are the collective fast paths forced off
    /// ([`Sim::force_explicit_schedules`])?
    pub fn explicit_schedules_forced(&self) -> bool {
        self.kernel.state.borrow().force_explicit
    }

    /// Are schedules driven from their unrolled form
    /// ([`Sim::force_unrolled_schedules`])?
    pub fn unrolled_schedules_forced(&self) -> bool {
        self.kernel.state.borrow().force_unrolled
    }

    /// Shared reservation path: consult the fault injector (one `Option`
    /// branch when disarmed — the zero-cost guarantee) and fall through
    /// to the clean closed form when no window matches.
    pub(crate) fn transfer_in(
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
        let mut st = self.kernel.state.borrow_mut();
        st.fault.as_mut().and_then(|f| f.take_ctrl(key))
    }

    /// Number of perturbations the armed injector has applied so far
    /// (0 when no plan is installed). Diagnostics for chaos tests.
    pub fn faults_injected(&self) -> u64 {
        self.kernel.state.borrow().fault.as_ref().map_or(0, |f| f.injected)
    }

    /// Is a fault plan armed? Cheaper than [`SimHandle::fault_plan`] (no
    /// clone) — the collective fast paths consult this to decide whether
    /// the steady-state jump is safe (perturbation windows make steps
    /// non-uniform, so an armed plan keeps per-step pricing).
    pub fn fault_armed(&self) -> bool {
        self.kernel.state.borrow().fault.is_some()
    }

    /// The installed fault plan, if any (a clone — plans are immutable
    /// once armed). Health monitors derive `state_vec`-style views from
    /// it; `None` when the fabric is clean.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.kernel.state.borrow().fault.as_ref().map(|f| f.plan().clone())
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
        let mut st = self.kernel.state.borrow_mut();
        if let Some(f) = st.fault.as_mut() {
            f.extend_kill_windows(windows);
        }
    }

    /// Next time the resource is free (for diagnostics / tests).
    pub fn resource_free_at(&self, res: ResourceId) -> SimTime {
        self.kernel.state.borrow().resources[res.index()].free_at()
    }

    /// Cumulative bytes reserved on the resource so far, bulk and control
    /// lane together (utilisation reporting / tests).
    pub fn resource_bytes(&self, res: ResourceId) -> u64 {
        self.kernel.state.borrow().resources[res.index()].total_bytes()
    }

    /// Number of board posts not yet consumed, over every board — what a
    /// completed protocol must leave at zero (leak tests).
    pub fn unconsumed_posts(&self) -> usize {
        self.kernel.state.borrow().boards.iter().map(BoardSlot::unconsumed).sum()
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
