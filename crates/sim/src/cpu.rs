//! Virtual CPU resources — the stand-in for a transputer's processing time.
//!
//! Pandora's overload behaviour hinges on finite CPU: "if the transputer has
//! too few CPU cycles to handle the data, then the output processes will
//! take priority, and the input side will be held up" (§3.7.1). A [`Cpu`]
//! models one transputer: tasks claim it for a cost in virtual time; claims
//! are granted non-preemptively in priority order (then FIFO), and each
//! grant pays a context-switch surcharge (§3.1: "a context switch can be
//! accomplished in less than 1 µs").
//!
//! The real transputer preempts low-priority processes; this model is
//! non-preemptive. At the 2 ms block granularity of the audio code and the
//! µs-scale costs used in the experiments the difference is below the
//! resolution of every reproduced figure (see DESIGN.md §5).

use std::cell::{Cell, RefCell};
use std::collections::BinaryHeap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::executor::{now, waker, with_current, TaskWaker};
use crate::time::{SimDuration, SimTime};

/// Priority of a CPU claim; larger values are served first.
pub type ClaimPriority = u8;

/// Default claim priority for ordinary work.
pub const PRIO_NORMAL: ClaimPriority = 8;
/// Priority used by output-side processes ("output processes have priority").
pub const PRIO_OUTPUT: ClaimPriority = 12;
/// Priority used by command handling (Principle 4).
pub const PRIO_COMMAND: ClaimPriority = 15;

struct Waiter {
    priority: ClaimPriority,
    seq: u64,
    claim: Rc<QueuedClaim>,
}

/// The one cell a queued claim shares with its place in the queue.
struct QueuedClaim {
    granted: Cell<bool>,
    cancelled: Cell<bool>,
    waker: RefCell<Option<TaskWaker>>,
}

impl PartialEq for Waiter {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for Waiter {}
impl PartialOrd for Waiter {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Waiter {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then earlier arrival (lower seq).
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

struct CpuState {
    name: String,
    switch_cost: SimDuration,
    running: Cell<bool>,
    queue: RefCell<BinaryHeap<Waiter>>,
    seq: Cell<u64>,
    busy: Cell<u64>,
    claims: Cell<u64>,
    switches: Cell<u64>,
}

/// A virtual CPU granting exclusive execution time to claiming tasks.
///
/// # Examples
///
/// ```
/// use pandora_sim::{Cpu, Simulation, SimDuration, SimTime};
///
/// let mut sim = Simulation::new();
/// let cpu = Cpu::new("audio-transputer", SimDuration::from_nanos(700));
/// let cpu2 = cpu.clone();
/// sim.spawn("worker", async move {
///     cpu2.claim(SimDuration::from_micros(100)).await;
///     // 100us of work plus the 700ns context switch have elapsed.
///     assert_eq!(pandora_sim::now(), SimTime::from_nanos(100_700));
/// });
/// sim.run_until_idle();
/// ```
#[derive(Clone)]
pub struct Cpu {
    state: Rc<CpuState>,
}

impl Cpu {
    /// Creates a CPU with the given per-claim context-switch cost.
    pub fn new(name: &str, switch_cost: SimDuration) -> Self {
        Cpu {
            state: Rc::new(CpuState {
                name: name.to_string(),
                switch_cost,
                running: Cell::new(false),
                queue: RefCell::new(BinaryHeap::new()),
                seq: Cell::new(0),
                busy: Cell::new(0),
                claims: Cell::new(0),
                switches: Cell::new(0),
            }),
        }
    }

    /// The CPU's diagnostic name.
    pub fn name(&self) -> &str {
        &self.state.name
    }

    /// Claims the CPU for `cost` at normal priority.
    pub fn claim(&self, cost: SimDuration) -> Claim {
        self.claim_prio(cost, PRIO_NORMAL)
    }

    /// Claims the CPU for `cost` at the given priority.
    ///
    /// Completes once the work has been executed. Grants are
    /// non-preemptive: a grant in progress finishes before the next waiter
    /// (highest priority first) is served.
    pub fn claim_prio(&self, cost: SimDuration, priority: ClaimPriority) -> Claim {
        Claim {
            cpu: self.state.clone(),
            cost,
            priority,
            state: ClaimState::Init,
        }
    }

    /// Virtual time spent executing claims, context switches included.
    #[cfg(test)]
    fn busy_time(&self) -> SimDuration {
        SimDuration(self.state.busy.get())
    }

    /// Number of claims fully executed.
    pub fn claims(&self) -> u64 {
        self.state.claims.get()
    }

    /// Number of context switches charged (one per executed claim).
    pub fn switches(&self) -> u64 {
        self.state.switches.get()
    }
}

impl CpuState {
    /// Hands the CPU to the next live waiter, or frees it.
    fn release(&self) {
        loop {
            let next = self.queue.borrow_mut().pop();
            match next {
                Some(w) if w.claim.cancelled.get() => continue,
                Some(w) => {
                    w.claim.granted.set(true);
                    if let Some(wk) = w.claim.waker.borrow_mut().take() {
                        wk.wake();
                    }
                    // The CPU stays "running": it was handed over directly so
                    // no newcomer can barge in ahead of the woken waiter.
                    return;
                }
                None => {
                    self.running.set(false);
                    return;
                }
            }
        }
    }
}

enum ClaimState {
    Init,
    Queued(Rc<QueuedClaim>),
    Running { done_at: SimTime, registered: bool },
    Finished,
}

/// Future returned by [`Cpu::claim`] / [`Cpu::claim_prio`].
pub struct Claim {
    cpu: Rc<CpuState>,
    cost: SimDuration,
    priority: ClaimPriority,
    state: ClaimState,
}

impl Claim {
    fn start_running(&mut self) {
        let start = now();
        let done_at = start + self.cpu.switch_cost + self.cost;
        self.cpu
            .busy
            .set(self.cpu.busy.get() + (done_at - start).as_nanos());
        self.cpu.switches.set(self.cpu.switches.get() + 1);
        self.state = ClaimState::Running {
            done_at,
            registered: false,
        };
    }
}

impl Future for Claim {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        loop {
            match &mut this.state {
                ClaimState::Init => {
                    if this.cpu.running.get() {
                        let claim = Rc::new(QueuedClaim {
                            granted: Cell::new(false),
                            cancelled: Cell::new(false),
                            waker: RefCell::new(Some(waker())),
                        });
                        let seq = this.cpu.seq.get();
                        this.cpu.seq.set(seq + 1);
                        this.cpu.queue.borrow_mut().push(Waiter {
                            priority: this.priority,
                            seq,
                            claim: claim.clone(),
                        });
                        this.state = ClaimState::Queued(claim);
                        return Poll::Pending;
                    }
                    this.cpu.running.set(true);
                    this.start_running();
                }
                ClaimState::Queued(claim) => {
                    if !claim.granted.get() {
                        *claim.waker.borrow_mut() = Some(waker());
                        return Poll::Pending;
                    }
                    this.start_running();
                }
                ClaimState::Running {
                    done_at,
                    registered,
                } => {
                    if now() >= *done_at {
                        this.state = ClaimState::Finished;
                        this.cpu.claims.set(this.cpu.claims.get() + 1);
                        this.cpu.release();
                        return Poll::Ready(());
                    }
                    if !*registered {
                        let d = *done_at;
                        with_current(|i| i.register_timer(d));
                        *registered = true;
                    }
                    return Poll::Pending;
                }
                ClaimState::Finished => return Poll::Ready(()),
            }
        }
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        match &self.state {
            ClaimState::Queued(claim) => {
                if claim.granted.get() {
                    // Granted but never polled to Running: pass it on.
                    self.cpu.release();
                } else {
                    claim.cancelled.set(true);
                }
            }
            ClaimState::Running { .. } => {
                // Cancelled mid-execution: the time was already accounted;
                // free the CPU for the next waiter.
                self.cpu.release();
            }
            ClaimState::Init | ClaimState::Finished => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Simulation;
    use std::cell::RefCell as StdRefCell;

    #[test]
    fn single_claim_advances_time_by_cost_plus_switch() {
        let mut sim = Simulation::new();
        let cpu = Cpu::new("t", SimDuration::from_nanos(500));
        let c = cpu.clone();
        sim.spawn("w", async move {
            c.claim(SimDuration::from_micros(10)).await;
            assert_eq!(now(), SimTime::from_nanos(10_500));
        });
        sim.run_until_idle();
        assert_eq!(cpu.claims(), 1);
        assert_eq!(cpu.busy_time(), SimDuration::from_nanos(10_500));
    }

    #[test]
    fn claims_serialize() {
        let mut sim = Simulation::new();
        let cpu = Cpu::new("t", SimDuration::ZERO);
        let log = Rc::new(StdRefCell::new(Vec::new()));
        for i in 0..3 {
            let c = cpu.clone();
            let l = log.clone();
            sim.spawn(&format!("w{i}"), async move {
                c.claim(SimDuration::from_micros(100)).await;
                l.borrow_mut().push((i, now().as_micros()));
            });
        }
        sim.run_until_idle();
        assert_eq!(*log.borrow(), vec![(0, 100), (1, 200), (2, 300)]);
        assert_eq!(cpu.busy_time(), SimDuration::from_micros(300));
    }

    #[test]
    fn higher_priority_served_first() {
        let mut sim = Simulation::new();
        let cpu = Cpu::new("t", SimDuration::ZERO);
        let log: Rc<StdRefCell<Vec<&'static str>>> = Rc::new(StdRefCell::new(Vec::new()));
        {
            let c = cpu.clone();
            let l = log.clone();
            sim.spawn("hog", async move {
                c.claim(SimDuration::from_micros(100)).await;
                l.borrow_mut().push("hog");
            });
        }
        {
            let c = cpu.clone();
            let l = log.clone();
            sim.spawn("low", async move {
                crate::yield_now().await; // Let the hog grab the CPU first.
                c.claim_prio(SimDuration::from_micros(10), PRIO_NORMAL)
                    .await;
                l.borrow_mut().push("low");
            });
        }
        {
            let c = cpu.clone();
            let l = log.clone();
            sim.spawn("output", async move {
                crate::yield_now().await;
                c.claim_prio(SimDuration::from_micros(10), PRIO_OUTPUT)
                    .await;
                l.borrow_mut().push("output");
            });
        }
        sim.run_until_idle();
        // Output-priority claim jumps the queue ahead of the earlier low one.
        assert_eq!(*log.borrow(), ["hog", "output", "low"]);
    }

    #[test]
    fn fifo_within_same_priority() {
        let mut sim = Simulation::new();
        let cpu = Cpu::new("t", SimDuration::ZERO);
        let log = Rc::new(StdRefCell::new(Vec::new()));
        for i in 0..4 {
            let c = cpu.clone();
            let l = log.clone();
            sim.spawn(&format!("w{i}"), async move {
                c.claim(SimDuration::from_micros(1)).await;
                l.borrow_mut().push(i);
            });
        }
        sim.run_until_idle();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn overload_delays_work_proportionally() {
        // Ask for 2x the CPU the window provides: completion time doubles.
        let mut sim = Simulation::new();
        let cpu = Cpu::new("t", SimDuration::ZERO);
        let done = Rc::new(Cell::new(SimTime::ZERO));
        for i in 0..20 {
            let c = cpu.clone();
            let d = done.clone();
            sim.spawn(&format!("w{i}"), async move {
                c.claim(SimDuration::from_millis(1)).await;
                d.set(now());
            });
        }
        sim.run_until_idle();
        assert_eq!(done.get(), SimTime::from_millis(20));
    }

    #[test]
    fn busy_time_counts_claims_not_delays() {
        let mut sim = Simulation::new();
        let cpu = Cpu::new("t", SimDuration::ZERO);
        let c = cpu.clone();
        sim.spawn("w", async move {
            c.claim(SimDuration::from_millis(2)).await;
            crate::delay(SimDuration::from_millis(6)).await;
        });
        sim.run_until_idle();
        assert_eq!(cpu.busy_time(), SimDuration::from_millis(2));
    }
}
