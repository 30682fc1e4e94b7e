//! The deterministic virtual-time executor.
//!
//! This is the stand-in for the Inmos transputer's hardware scheduler and
//! the Occam runtime (§3.1 of the paper). Tasks are plain Rust futures;
//! time is virtual and only advances when every task is blocked (on a
//! channel rendezvous, a timer or a CPU grant). Two priority levels mirror
//! the transputer's high/low priority processes, and a context-switch
//! counter lets experiments check claims like the "around 5kHz" context
//! switching rate of §4.2.
//!
//! Determinism: with the same spawn order and the same seeded workloads, a
//! simulation produces bit-identical schedules, which is what makes the
//! paper tables exactly reproducible.
//!
//! Waking: a [`Simulation`] is owned by one thread, so a wake is a push
//! onto an `Rc`'d queue of [`TaskId`]s — no lock, no atomic. A leaf future
//! asks for the task being polled with [`waker`] and keeps the
//! [`TaskWaker`]; wakes are appended in call order and applied only after
//! the current poll returns (an immediate enqueue would let a self-wake
//! overtake the wakes made around it). Timers skip the handle altogether
//! and name the task that armed them. The std [`Context`] every `poll`
//! receives carries one inert waker per simulation whose `wake` panics: a
//! foreign leaf future that registers `cx.waker()` fails loudly on its
//! first wake-up instead of hanging.

#![allow(clippy::disallowed_types, reason = "builds the inert std waker")]
#![allow(clippy::disallowed_methods, reason = "tests the inert waker")]

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use crate::time::{SimDuration, SimTime};

/// Scheduling priority of a task, mirroring the transputer's two levels.
///
/// In Pandora "the output processes have priority" (§3.7.1): data is pulled
/// out of the box ahead of being pushed in, so overload back-pressures
/// toward the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// High priority: polled before any low-priority task is considered.
    High,
    /// Low priority (the default for ordinary processes).
    #[default]
    Low,
}

/// Identifier of a spawned task: a slot index and the slot's generation.
///
/// Both halves are `u32`. The index wrapping would take 2³² tasks live at
/// once (spawn panics first); the generation wrapping would take 2³² tasks
/// finishing in *one* slot while a [`TaskWaker`] from exactly 2³²
/// generations earlier is still held — and would then cost that slot's
/// occupant one spurious poll, which every future here tolerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId {
    index: u32,
    gen: u32,
}

/// Handle that makes one task runnable again — the simulator's waker.
///
/// Obtained with [`waker`] from inside a poll and stored by whatever the
/// task blocks on. It is an `Rc` on its simulation's wake queue, so it is
/// `!Send`: that no wake crosses a thread is checked by the compiler. A
/// handle kept past its task's end wakes nothing (the generation no longer
/// matches), and one kept past its simulation's end pushes onto a queue
/// nobody reads.
#[derive(Clone)]
pub struct TaskWaker {
    id: TaskId,
    queue: Rc<RefCell<Vec<TaskId>>>,
}

impl TaskWaker {
    /// Queues the task to be polled again. Takes effect when the poll in
    /// progress (if any) returns, in call order with every other wake.
    pub fn wake(&self) {
        self.queue.borrow_mut().push(self.id);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Idle,
    Queued,
    Running,
    Done,
}

struct Slot {
    gen: u32,
    state: TaskState,
    future: Option<Pin<Box<dyn Future<Output = ()>>>>,
    name: Rc<str>,
    priority: Priority,
    /// Fault-injection hold: a paused task is never polled; wake-ups are
    /// remembered in `pending_wake` and replayed on resume.
    paused: bool,
    pending_wake: bool,
}

/// The std waker inside every task's [`Context`]: never the way to wake
/// a task here, so waking it is a bug worth a panic rather than a hang.
struct InertWaker;

impl Wake for InertWaker {
    fn wake(self: Arc<Self>) {
        panic!("the Context waker is inert in pandora-sim: register pandora_sim::waker() instead");
    }
}

/// A pending timer: fires by queueing a wake of the task that armed it.
/// Derived ordering is `(at, seq)`: timers of one instant fire in arming
/// order. `task` never decides, because `seq` is unique.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct TimerEntry {
    at: u64,
    seq: u64,
    task: TaskId,
}

pub(crate) struct Inner {
    clock: Cell<u64>,
    tasks: RefCell<Vec<Slot>>,
    free: RefCell<Vec<usize>>,
    run_high: RefCell<VecDeque<TaskId>>,
    run_low: RefCell<VecDeque<TaskId>>,
    woken: Rc<RefCell<Vec<TaskId>>>,
    inert: Waker,
    timers: RefCell<BinaryHeap<Reverse<TimerEntry>>>,
    timer_seq: Cell<u64>,
    ctx_switches: Cell<u64>,
    current: Cell<Option<TaskId>>,
    live_tasks: Cell<usize>,
    spawned_total: Cell<u64>,
}

impl Inner {
    fn new() -> Rc<Self> {
        Rc::new(Inner {
            clock: Cell::new(0),
            tasks: RefCell::new(Vec::new()),
            free: RefCell::new(Vec::new()),
            run_high: RefCell::new(VecDeque::new()),
            run_low: RefCell::new(VecDeque::new()),
            woken: Rc::new(RefCell::new(Vec::new())),
            inert: Waker::from(Arc::new(InertWaker)),
            timers: RefCell::new(BinaryHeap::new()),
            timer_seq: Cell::new(0),
            ctx_switches: Cell::new(0),
            current: Cell::new(None),
            live_tasks: Cell::new(0),
            spawned_total: Cell::new(0),
        })
    }

    fn spawn(
        self: &Rc<Self>,
        name: &str,
        priority: Priority,
        future: impl Future<Output = ()> + 'static,
    ) -> TaskId {
        let mut tasks = self.tasks.borrow_mut();
        let index = match self.free.borrow_mut().pop() {
            Some(i) => i,
            None => {
                tasks.push(Slot {
                    gen: 0,
                    state: TaskState::Done,
                    future: None,
                    name: Rc::from(""),
                    priority,
                    paused: false,
                    pending_wake: false,
                });
                tasks.len() - 1
            }
        };
        let slot = &mut tasks[index];
        let id = TaskId {
            index: u32::try_from(index).unwrap_or_else(|_| panic!("more than 2^32 task slots")),
            gen: slot.gen,
        };
        slot.state = TaskState::Queued;
        slot.future = Some(Box::pin(future));
        slot.name = Rc::from(name);
        slot.priority = priority;
        slot.paused = false;
        slot.pending_wake = false;
        drop(tasks);
        self.live_tasks.set(self.live_tasks.get() + 1);
        self.spawned_total.set(self.spawned_total.get() + 1);
        match priority {
            Priority::High => self.run_high.borrow_mut().push_back(id),
            Priority::Low => self.run_low.borrow_mut().push_back(id),
        }
        id
    }

    pub(crate) fn now(&self) -> SimTime {
        SimTime(self.clock.get())
    }

    /// The task being polled.
    fn current_task(&self) -> TaskId {
        match self.current.get() {
            Some(id) => id,
            None => panic!("not inside a task poll: wakers and timers belong to a running task"),
        }
    }

    pub(crate) fn waker(&self) -> TaskWaker {
        TaskWaker {
            id: self.current_task(),
            queue: self.woken.clone(),
        }
    }

    /// Leaves the polling task's waker in `slot` — untouched when it is
    /// there already, so an ALT re-polled on one guard does not
    /// re-register the others.
    pub(crate) fn register(&self, slot: &mut Option<TaskWaker>) {
        let id = self.current_task();
        if slot.as_ref().is_none_or(|w| w.id != id) {
            *slot = Some(self.waker());
        }
    }

    /// Arms a timer that wakes the task being polled at `at`.
    pub(crate) fn register_timer(&self, at: SimTime) {
        let seq = self.timer_seq.get();
        self.timer_seq.set(seq + 1);
        self.timers.borrow_mut().push(Reverse(TimerEntry {
            at: at.0,
            seq,
            task: self.current_task(),
        }));
    }

    /// Applies the queued wakes in call order. Nothing here runs task
    /// code, so the queue is drained in place and keeps its capacity.
    fn drain_woken(&self) {
        let mut woken = self.woken.borrow_mut();
        if woken.is_empty() {
            return;
        }
        let mut tasks = self.tasks.borrow_mut();
        for id in woken.drain(..) {
            let Some(slot) = tasks.get_mut(id.index as usize) else {
                continue;
            };
            if slot.gen != id.gen || slot.state != TaskState::Idle {
                continue;
            }
            if slot.paused {
                // Remember the wake-up; `set_paused(.., false)` replays it.
                slot.pending_wake = true;
                continue;
            }
            slot.state = TaskState::Queued;
            match slot.priority {
                Priority::High => self.run_high.borrow_mut().push_back(id),
                Priority::Low => self.run_low.borrow_mut().push_back(id),
            }
        }
    }

    fn next_runnable(&self) -> Option<TaskId> {
        if let Some(id) = self.run_high.borrow_mut().pop_front() {
            return Some(id);
        }
        self.run_low.borrow_mut().pop_front()
    }

    fn poll_task(self: &Rc<Self>, id: TaskId) {
        let mut future = {
            let mut tasks = self.tasks.borrow_mut();
            let Some(slot) = tasks.get_mut(id.index as usize) else {
                return;
            };
            if slot.gen != id.gen || slot.state == TaskState::Done {
                return;
            }
            if slot.paused {
                // Paused after it was already queued: park it again and
                // keep the wake-up for resume time.
                slot.state = TaskState::Idle;
                slot.pending_wake = true;
                return;
            }
            slot.state = TaskState::Running;
            match slot.future.take() {
                Some(future) => future,
                None => {
                    // A queued task always has one; reaching here means
                    // the slot table is corrupt. Skip the poll rather
                    // than crash the whole simulation.
                    debug_assert!(false, "queued task {id:?} missing its future");
                    return;
                }
            }
        };
        self.ctx_switches.set(self.ctx_switches.get() + 1);
        self.current.set(Some(id));
        let mut cx = Context::from_waker(&self.inert);
        let poll = future.as_mut().poll(&mut cx);
        self.current.set(None);
        let mut tasks = self.tasks.borrow_mut();
        let slot = &mut tasks[id.index as usize];
        match poll {
            Poll::Ready(()) => {
                slot.state = TaskState::Done;
                slot.gen = slot.gen.wrapping_add(1);
                slot.future = None;
                drop(tasks);
                self.free.borrow_mut().push(id.index as usize);
                self.live_tasks.set(self.live_tasks.get() - 1);
            }
            Poll::Pending => {
                slot.future = Some(future);
                slot.state = TaskState::Idle;
            }
        }
    }

    /// Pauses (`paused = true`) or resumes every live task whose name
    /// starts with `prefix`; returns how many tasks changed state. The
    /// fault-injection primitive behind consumer stalls and box crashes.
    fn set_paused(self: &Rc<Self>, prefix: &str, paused: bool) -> usize {
        let mut requeue: Vec<(TaskId, Priority)> = Vec::new();
        let mut changed = 0;
        {
            let mut tasks = self.tasks.borrow_mut();
            for (index, slot) in tasks.iter_mut().enumerate() {
                if slot.state == TaskState::Done
                    || slot.paused == paused
                    || !slot.name.starts_with(prefix)
                {
                    continue;
                }
                slot.paused = paused;
                changed += 1;
                if !paused && slot.pending_wake && slot.state == TaskState::Idle {
                    slot.pending_wake = false;
                    slot.state = TaskState::Queued;
                    requeue.push((
                        TaskId {
                            index: index as u32,
                            gen: slot.gen,
                        },
                        slot.priority,
                    ));
                }
            }
        }
        for (id, priority) in requeue {
            match priority {
                Priority::High => self.run_high.borrow_mut().push_back(id),
                Priority::Low => self.run_low.borrow_mut().push_back(id),
            }
        }
        changed
    }

    /// Runs until `deadline`; returns the reason the loop stopped.
    fn run_until(self: &Rc<Self>, deadline: SimTime) -> StopReason {
        let _guard = ContextGuard::enter(self.clone());
        loop {
            self.drain_woken();
            if let Some(id) = self.next_runnable() {
                self.poll_task(id);
                continue;
            }
            // Nothing runnable: advance virtual time to the next timer.
            let next_at = self.timers.borrow().peek().map(|Reverse(t)| t.at);
            match next_at {
                Some(at) if at <= deadline.0 => {
                    debug_assert!(at >= self.clock.get(), "time must not go backwards");
                    self.clock.set(at.max(self.clock.get()));
                    let mut timers = self.timers.borrow_mut();
                    let mut woken = self.woken.borrow_mut();
                    while timers.peek().is_some_and(|Reverse(t)| t.at <= at) {
                        if let Some(Reverse(t)) = timers.pop() {
                            woken.push(t.task);
                        }
                    }
                }
                _ => {
                    let idle = next_at.is_none();
                    // Leave the clock at the requested deadline, except for
                    // the open-ended run_until_idle sentinel.
                    if deadline.0 != u64::MAX {
                        self.clock.set(self.clock.get().max(deadline.0));
                    }
                    return if idle {
                        StopReason::Idle
                    } else {
                        StopReason::Deadline
                    };
                }
            }
        }
    }
}

/// Why a call to [`Simulation::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The virtual clock reached the requested deadline with work remaining.
    Deadline,
    /// No task is runnable and no timer is pending: the simulation is
    /// quiescent (every remaining task is blocked on a channel).
    Idle,
}

thread_local! {
    static CURRENT: RefCell<Vec<Rc<Inner>>> = const { RefCell::new(Vec::new()) };
}

struct ContextGuard;

impl ContextGuard {
    fn enter(inner: Rc<Inner>) -> ContextGuard {
        CURRENT.with(|c| c.borrow_mut().push(inner));
        ContextGuard
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

pub(crate) fn with_current<R>(f: impl FnOnce(&Rc<Inner>) -> R) -> R {
    CURRENT.with(|c| {
        let stack = c.borrow();
        match stack.last() {
            Some(inner) => f(inner),
            None => {
                panic!("not inside a simulation: this call is only valid inside a running task")
            }
        }
    })
}

/// A deterministic discrete-event simulation.
///
/// # Examples
///
/// ```
/// use pandora_sim::{Simulation, SimDuration, SimTime};
///
/// let mut sim = Simulation::new();
/// let (tx, rx) = pandora_sim::channel::<u32>();
/// sim.spawn("producer", async move {
///     pandora_sim::delay(SimDuration::from_millis(2)).await;
///     tx.send(7).await.unwrap();
/// });
/// sim.spawn("consumer", async move {
///     let v = rx.recv().await.unwrap();
///     assert_eq!(v, 7);
///     assert_eq!(pandora_sim::now(), SimTime::from_millis(2));
/// });
/// sim.run_until_idle();
/// assert_eq!(sim.now(), SimTime::from_millis(2));
/// ```
pub struct Simulation {
    inner: Rc<Inner>,
    last_deadlock: Option<DeadlockReport>,
}

/// Produced when [`Simulation::run_until_idle`] stops with live tasks:
/// no task is runnable and no timer is pending, so every task named here
/// is blocked forever — a deadlock (typically a channel wait cycle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Virtual time at which the deadlock was detected.
    pub at: SimTime,
    /// Names of the permanently blocked tasks, in spawn order.
    pub blocked: Vec<String>,
}

impl std::fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "deadlock at t={:?}: {} task(s) blocked forever: {}",
            self.at,
            self.blocked.len(),
            self.blocked.join(", ")
        )
    }
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Creates an empty simulation at t = 0.
    pub fn new() -> Self {
        Simulation {
            inner: Inner::new(),
            last_deadlock: None,
        }
    }

    /// Spawns a low-priority task.
    pub fn spawn(&mut self, name: &str, future: impl Future<Output = ()> + 'static) -> TaskId {
        self.inner.spawn(name, Priority::Low, future)
    }

    /// Spawns a task at the given priority.
    pub fn spawn_prio(
        &mut self,
        name: &str,
        priority: Priority,
        future: impl Future<Output = ()> + 'static,
    ) -> TaskId {
        self.inner.spawn(name, priority, future)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now()
    }

    /// Runs the simulation until the clock reaches `deadline` or no work
    /// remains, whichever comes first.
    pub fn run_until(&mut self, deadline: SimTime) -> StopReason {
        self.inner.run_until(deadline)
    }

    /// Runs for `d` of virtual time from the current clock.
    pub fn run_for(&mut self, d: SimDuration) -> StopReason {
        let deadline = self.now() + d;
        self.run_until(deadline)
    }

    /// Runs until quiescent (no runnable task and no pending timer).
    ///
    /// If tasks are still live at quiescence they can never run again —
    /// no timer will ever wake them — so this is a deadlock. The blocked
    /// set is reported on stderr and kept for [`Self::deadlock_report`].
    pub fn run_until_idle(&mut self) -> StopReason {
        let reason = self.run_until(SimTime(u64::MAX));
        self.last_deadlock = if reason == StopReason::Idle && self.live_tasks() > 0 {
            let blocked = self
                .dump_tasks()
                .into_iter()
                .map(|(name, _)| name)
                .collect();
            let report = DeadlockReport {
                at: self.now(),
                blocked,
            };
            eprintln!("pandora-sim: {report}");
            Some(report)
        } else {
            None
        };
        reason
    }

    /// The deadlock found by the most recent [`Self::run_until_idle`],
    /// or `None` if it drained cleanly (or has not run yet).
    pub fn deadlock_report(&self) -> Option<&DeadlockReport> {
        self.last_deadlock.as_ref()
    }

    /// Total number of task polls so far; the simulator's analogue of the
    /// transputer context-switch count (§4.2).
    pub fn context_switches(&self) -> u64 {
        self.inner.ctx_switches.get()
    }

    /// Number of tasks that have been spawned and not yet finished.
    pub fn live_tasks(&self) -> usize {
        self.inner.live_tasks.get()
    }

    /// Total number of tasks ever spawned.
    pub fn spawned_total(&self) -> u64 {
        self.inner.spawned_total.get()
    }

    /// Names and states of all live tasks, for deadlock diagnosis.
    pub fn dump_tasks(&self) -> Vec<(String, &'static str)> {
        self.inner
            .tasks
            .borrow()
            .iter()
            .filter(|s| s.state != TaskState::Done)
            .map(|s| {
                let st = match s.state {
                    TaskState::Idle => "blocked",
                    TaskState::Queued => "runnable",
                    TaskState::Running => "running",
                    TaskState::Done => "done",
                };
                (s.name.to_string(), st)
            })
            .collect()
    }

    /// Pauses every live task whose name starts with `prefix` (box task
    /// names share their box's name as a prefix, so a whole box can be
    /// "crashed" this way). Returns how many tasks were paused. Wake-ups
    /// arriving while paused are remembered and replayed on resume.
    pub fn pause_matching(&mut self, prefix: &str) -> usize {
        self.inner.set_paused(prefix, true)
    }

    /// Resumes tasks paused by [`Self::pause_matching`]; pending wake-ups
    /// (channel data, expired timers) fire immediately. Returns how many
    /// tasks were resumed.
    pub fn resume_matching(&mut self, prefix: &str) -> usize {
        self.inner.set_paused(prefix, false)
    }

    /// Handle for spawning from outside a task without `&mut self`.
    pub fn spawner(&self) -> Spawner {
        Spawner {
            inner: Rc::downgrade(&self.inner),
        }
    }
}

/// A cloneable handle that can spawn tasks onto a [`Simulation`].
#[derive(Clone)]
pub struct Spawner {
    inner: std::rc::Weak<Inner>,
}

impl Spawner {
    /// Spawns a low-priority task.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has been dropped.
    pub fn spawn(&self, name: &str, future: impl Future<Output = ()> + 'static) -> TaskId {
        self.spawn_prio(name, Priority::Low, future)
    }

    /// Spawns a task at the given priority.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has been dropped.
    pub fn spawn_prio(
        &self,
        name: &str,
        priority: Priority,
        future: impl Future<Output = ()> + 'static,
    ) -> TaskId {
        let Some(inner) = self.inner.upgrade() else {
            panic!("simulation dropped");
        };
        inner.spawn(name, priority, future)
    }

    /// The simulation's current virtual time — usable from setup code
    /// between runs, unlike the task-context [`now`] free function.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has been dropped.
    pub fn now(&self) -> SimTime {
        let Some(inner) = self.inner.upgrade() else {
            panic!("simulation dropped");
        };
        inner.now()
    }
}

/// Current virtual time. Only valid inside a running simulation.
///
/// # Panics
///
/// Panics when called outside [`Simulation::run_until`] and friends.
pub fn now() -> SimTime {
    with_current(|i| i.now())
}

/// The waker of the task being polled — what a leaf future stores with
/// whatever it blocks on (the `Context` waker is inert, see the module
/// docs).
///
/// # Panics
///
/// Panics outside a task poll, like [`now`].
pub fn waker() -> TaskWaker {
    with_current(|i| i.waker())
}

/// Current virtual time, or `None` when no simulation is running on this
/// thread (e.g. during setup before the first `run_until`).
pub fn try_now() -> Option<SimTime> {
    CURRENT.with(|c| c.borrow().last().map(|i| i.now()))
}

/// Spawns a low-priority task from inside a running task.
pub fn spawn(name: &str, future: impl Future<Output = ()> + 'static) -> TaskId {
    with_current(|i| i.spawn(name, Priority::Low, future))
}

/// Spawns a task at the given priority from inside a running task.
pub fn spawn_prio(
    name: &str,
    priority: Priority,
    future: impl Future<Output = ()> + 'static,
) -> TaskId {
    with_current(|i| i.spawn(name, priority, future))
}

/// Pauses tasks by name prefix from inside a running task — see
/// [`Simulation::pause_matching`]. Only valid inside a simulation.
///
/// # Panics
///
/// Panics when called outside a running simulation.
pub fn pause_matching(prefix: &str) -> usize {
    with_current(|i| i.set_paused(prefix, true))
}

/// Resumes tasks paused by [`pause_matching`] from inside a running task.
///
/// # Panics
///
/// Panics when called outside a running simulation.
pub fn resume_matching(prefix: &str) -> usize {
    with_current(|i| i.set_paused(prefix, false))
}

/// Future that completes at an absolute virtual time.
pub fn delay_until(deadline: SimTime) -> Delay {
    Delay {
        deadline,
        rel: None,
        registered: false,
    }
}

/// Future that completes after `d` of virtual time.
///
/// The duration is measured from the moment the future is first polled.
pub fn delay(d: SimDuration) -> Delay {
    Delay {
        deadline: SimTime(u64::MAX),
        rel: Some(d),
        registered: false,
    }
}

/// Timer future returned by [`delay`] / [`delay_until`].
pub struct Delay {
    deadline: SimTime,
    rel: Option<SimDuration>,
    registered: bool,
}

impl Delay {
    /// The absolute deadline (resolved at first poll for [`delay`]).
    pub fn deadline(&self) -> SimTime {
        self.deadline
    }
}

impl Future for Delay {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        with_current(|i| {
            if let Some(d) = this.rel.take() {
                this.deadline = i.now() + d;
            }
            if i.now() >= this.deadline {
                return Poll::Ready(());
            }
            if !this.registered {
                i.register_timer(this.deadline);
                this.registered = true;
            }
            Poll::Pending
        })
    }
}

/// Yields once, letting other runnable tasks execute at the same instant.
pub async fn yield_now() {
    struct YieldNow(bool);
    impl Future for YieldNow {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
            if self.0 {
                Poll::Ready(())
            } else {
                self.0 = true;
                waker().wake();
                Poll::Pending
            }
        }
    }
    YieldNow(false).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_prop::Rng;
    use std::cell::Cell;

    /// Tasks that panic while a property shrinks leave the thread's next
    /// simulation usable.
    #[test]
    fn a_task_panic_under_a_shrinking_property_leaves_the_next_simulation_usable() {
        let failed = std::panic::catch_unwind(|| {
            let delay = |t: &mut pandora_prop::Tape| t.gen_range(0..1_000u64);
            pandora_prop::check("task_panics", 1, 100, delay, |&ms| {
                let mut sim = Simulation::new();
                sim.spawn("late", async move { assert!(ms < 500, "woke at {ms} ms") });
                sim.run_until_idle();
            });
        });
        let report = *failed.unwrap_err().downcast::<String>().unwrap();
        assert!(report.contains("to\n500\nwhich panicked"), "{report}");
        let mut sim = Simulation::new();
        sim.spawn("after", crate::delay(SimDuration::from_millis(1)));
        sim.run_until_idle();
        assert_eq!((sim.now(), sim.live_tasks()), (SimTime::from_millis(1), 0));
    }

    #[test]
    fn paused_task_stops_and_resumes_with_pending_wake() {
        let mut sim = Simulation::new();
        let count = Rc::new(Cell::new(0u64));
        let c = count.clone();
        sim.spawn("worker:pump", async move {
            loop {
                crate::delay(SimDuration::from_millis(1)).await;
                c.set(c.get() + 1);
            }
        });
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(count.get(), 10);
        assert_eq!(sim.pause_matching("worker:"), 1);
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(count.get(), 10, "paused task must not make progress");
        // The 11ms timer fired while paused; resume replays that wake-up.
        assert_eq!(sim.resume_matching("worker:"), 1);
        sim.run_until(SimTime::from_millis(30));
        assert!(
            count.get() >= 19,
            "resumed task caught up to {}",
            count.get()
        );
    }

    #[test]
    fn pause_prefix_selects_by_name() {
        let mut sim = Simulation::new();
        let a = Rc::new(Cell::new(0u64));
        let b = Rc::new(Cell::new(0u64));
        for (name, n) in [("boxa:feed", a.clone()), ("boxb:feed", b.clone())] {
            sim.spawn(name, async move {
                loop {
                    crate::delay(SimDuration::from_millis(1)).await;
                    n.set(n.get() + 1);
                }
            });
        }
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.pause_matching("boxa"), 1);
        sim.run_until(SimTime::from_millis(15));
        assert_eq!(a.get(), 5);
        assert_eq!(b.get(), 15);
    }

    #[test]
    fn pause_from_inside_a_task() {
        let mut sim = Simulation::new();
        let hits = Rc::new(Cell::new(0u64));
        let h = hits.clone();
        sim.spawn("victim:loop", async move {
            loop {
                crate::delay(SimDuration::from_millis(1)).await;
                h.set(h.get() + 1);
            }
        });
        sim.spawn("driver", async move {
            // Off the victim's tick boundary so the pause instant is
            // unambiguous.
            crate::delay(SimDuration::from_micros(3_500)).await;
            assert_eq!(pause_matching("victim:"), 1);
            crate::delay(SimDuration::from_millis(5)).await;
            assert_eq!(resume_matching("victim:"), 1);
        });
        sim.run_until(SimTime::from_millis(4));
        assert_eq!(hits.get(), 3);
        sim.run_until(SimTime::from_millis(20));
        assert!(hits.get() >= 14, "hits = {}", hits.get());
    }

    #[test]
    #[should_panic(expected = "register pandora_sim::waker()")]
    fn foreign_future_waking_the_context_waker_fails_loudly() {
        let mut sim = Simulation::new();
        sim.spawn(
            "foreign",
            std::future::poll_fn(|cx| {
                cx.waker().wake_by_ref();
                Poll::<()>::Pending
            }),
        );
        sim.run_until_idle();
    }

    #[test]
    fn rendezvous_blocked_task_survives_pause_resume() {
        let mut sim = Simulation::new();
        let (tx, rx) = crate::channel::<u32>();
        let got = Rc::new(Cell::new(0u32));
        let g = got.clone();
        sim.spawn("sink:recv", async move {
            while let Ok(v) = rx.recv().await {
                g.set(g.get() + v);
            }
        });
        sim.spawn("source", async move {
            crate::delay(SimDuration::from_millis(2)).await;
            let _ = tx.send(1).await;
            let _ = tx.send(2).await;
        });
        sim.run_until(SimTime::from_millis(1));
        sim.pause_matching("sink:");
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(got.get(), 0);
        sim.resume_matching("sink:");
        sim.run_until_idle();
        assert_eq!(got.get(), 3);
        assert!(sim.deadlock_report().is_none());
    }
}
