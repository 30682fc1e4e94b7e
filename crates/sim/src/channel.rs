//! Occam-style channels.
//!
//! The default channel is a **rendezvous** (capacity 0): a `send` does not
//! complete until the receiver has taken the value, exactly like an Occam 2
//! channel communication on the transputer (§3.1: "the hardware scheduler
//! will automatically block the first of the processes ... to reach the
//! transfer"). This blocking is the back-pressure mechanism the whole
//! Pandora design leans on.
//!
//! [`buffered`] channels complete sends early while there is space — used
//! to model hardware FIFOs and report channels. [`unbounded`] never blocks
//! the sender.

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::alt::AltShared;
use crate::executor::{waker, with_current, TaskWaker};

/// Error returned by `send` when the receiver has been dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError;

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel closed: receiver dropped")
    }
}
impl std::error::Error for SendError {}

/// Error returned by `recv` when all senders are gone and the queue is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel closed: all senders dropped")
    }
}
impl std::error::Error for RecvError {}

struct QEntry<T> {
    value: T,
    // Present while the sending future is still waiting for acceptance.
    pending: Option<Rc<PendingSend>>,
}

/// The one cell a blocked send shares with its queue entry.
struct PendingSend {
    done: Cell<bool>,
    waker: RefCell<Option<TaskWaker>>,
}

impl PendingSend {
    fn wake(&self) {
        if let Some(w) = self.waker.borrow_mut().take() {
            w.wake();
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Queue entries `accept_within_capacity` has looked at on this
    /// thread — the probe behind `unbounded_drain_visits_linear`.
    static ACCEPT_VISITS: Cell<u64> = const { Cell::new(0) };
}

/// What a channel's two ends mutate, behind one borrow flag.
struct Shared<T> {
    queue: VecDeque<QEntry<T>>,
    recv_waker: Option<TaskWaker>,
}

/// One per channel, so its size is a cost every scenario pays: sixteen
/// more bytes put it in malloc's next size class, and a sixteen-box
/// conference's peak RSS then read 19.5 MB instead of 16.9 in eight runs
/// of twelve (one of twelve without). The set link's two words are the
/// borrow flag the waker no longer has to itself and the half word
/// `senders` gave up beside `receiver_alive`.
pub(crate) struct ChanState<T> {
    shared: RefCell<Shared<T>>,
    capacity: Cell<usize>,
    /// Set when the receiver becomes a guard of an [`crate::AltSet`]: the
    /// set's shared state and this guard's index in it. From then on a
    /// push reports to the set, not to `recv_waker`.
    guard_of: OnceCell<(Rc<AltShared>, usize)>,
    senders: Cell<u32>,
    receiver_alive: Cell<bool>,
}

impl<T> ChanState<T> {
    /// Called on every push and on the last sender's drop.
    fn wake_receiver(&self) {
        if let Some((set, index)) = self.guard_of.get() {
            set.mark_ready(*index);
        } else if let Some(w) = self.shared.borrow_mut().recv_waker.take() {
            w.wake();
        }
    }

    /// Accepts the one entry a `pop_front` moved inside the capacity.
    ///
    /// Entries are pushed accepted while `len < capacity` and pending at
    /// an index `>= capacity` otherwise, a cancelled send withdraws only
    /// its own still-pending entry, and [`Sender::set_capacity`] accepts
    /// what growth brings inside — so everything before index `capacity`
    /// is always accepted already, and after a pop the only newcomer is
    /// the entry now at `capacity - 1`. (Walking the whole prefix instead
    /// made draining an unbounded queue quadratic.)
    fn accept_within_capacity(&self) {
        let Some(last) = self.capacity.get().checked_sub(1) else {
            return; // rendezvous: nothing is ever accepted while queued
        };
        #[cfg(test)]
        ACCEPT_VISITS.with(|n| n.set(n.get() + 1));
        if let Some(p) = self
            .shared
            .borrow()
            .queue
            .get(last)
            .and_then(|e| e.pending.as_ref())
        {
            p.done.set(true);
            p.wake();
        }
    }

    fn pop(&self) -> Option<T> {
        let entry = self.shared.borrow_mut().queue.pop_front()?;
        if let Some(p) = entry.pending {
            p.done.set(true);
            p.wake();
        }
        self.accept_within_capacity();
        Some(entry.value)
    }

    /// The head value, the closure, or `Pending` with nothing registered.
    fn take(&self) -> Poll<Result<T, RecvError>> {
        if let Some(v) = self.pop() {
            return Poll::Ready(Ok(v));
        }
        if self.senders.get() == 0 {
            return Poll::Ready(Err(RecvError));
        }
        Poll::Pending
    }

    fn poll_take(&self) -> Poll<Result<T, RecvError>> {
        let taken = self.take();
        if taken.is_pending() {
            with_current(|i| i.register(&mut self.shared.borrow_mut().recv_waker));
        }
        taken
    }
}

/// Creates a rendezvous channel: `send` completes only when the value has
/// been received (Occam semantics).
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(0)
}

/// Creates a channel where up to `capacity` sends complete without waiting
/// for the receiver; further sends block (models a hardware FIFO).
pub fn buffered<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    with_capacity(capacity)
}

/// Creates a channel whose sends never block (models a report sink).
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(usize::MAX)
}

fn with_capacity<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let state = Rc::new(ChanState {
        shared: RefCell::new(Shared {
            queue: VecDeque::new(),
            recv_waker: None,
        }),
        capacity: Cell::new(capacity),
        guard_of: OnceCell::new(),
        senders: Cell::new(1),
        receiver_alive: Cell::new(true),
    });
    (
        Sender {
            state: state.clone(),
        },
        Receiver { state },
    )
}

/// The sending half of a channel. Cloneable (many-to-one).
pub struct Sender<T> {
    state: Rc<ChanState<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        let Some(senders) = self.state.senders.get().checked_add(1) else {
            panic!("more than 2^32 senders of one channel");
        };
        self.state.senders.set(senders);
        Sender {
            state: self.state.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let n = self.state.senders.get() - 1;
        self.state.senders.set(n);
        if n == 0 {
            self.state.wake_receiver();
        }
    }
}

impl<T> Sender<T> {
    /// Sends a value, completing per the channel's capacity semantics.
    ///
    /// Returns `Err(SendError)` if the receiver has been dropped. If the
    /// returned future is dropped before completing, the value is withdrawn
    /// and not delivered.
    pub fn send(&self, value: T) -> SendFuture<'_, T> {
        SendFuture {
            chan: &self.state,
            value: Some(value),
            pending: None,
        }
    }

    /// Sends without ever blocking: succeeds immediately if the queue has
    /// space below capacity or the channel is unbounded; otherwise returns
    /// the value back.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        if !self.state.receiver_alive.get() {
            return Err(TrySendError::Closed(value));
        }
        if self.state.shared.borrow().queue.len() < self.state.capacity.get() {
            self.state.shared.borrow_mut().queue.push_back(QEntry {
                value,
                pending: None,
            });
            self.state.wake_receiver();
            Ok(())
        } else {
            Err(TrySendError::Full(value))
        }
    }

    /// Number of values queued and not yet received.
    pub fn len(&self) -> usize {
        self.state.shared.borrow().queue.len()
    }

    /// Returns `true` when no values are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many sends complete without waiting for the receiver.
    pub fn capacity(&self) -> usize {
        self.state.capacity.get()
    }

    /// Resizes the channel. Nothing queued is lost: a shrink below the
    /// occupancy only holds later sends back, and growth completes the
    /// blocked sends it makes room for, oldest first.
    pub fn set_capacity(&self, capacity: usize) {
        let old = self.state.capacity.replace(capacity);
        let shared = self.state.shared.borrow();
        for entry in shared.queue.iter().take(capacity).skip(old) {
            if let Some(p) = &entry.pending {
                p.done.set(true);
                p.wake();
            }
        }
    }
}

/// Error returned by [`Sender::try_send`].
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is at capacity; the value is handed back.
    Full(T),
    /// The receiver has been dropped; the value is handed back.
    Closed(T),
}

/// Future returned by [`Sender::send`].
pub struct SendFuture<'a, T> {
    chan: &'a Rc<ChanState<T>>,
    value: Option<T>,
    pending: Option<Rc<PendingSend>>,
}

// `SendFuture` holds no self-references — a channel handle, an owned
// value, and a shared-cell pending handle — so it is freely movable and
// pin-projection is safe via `Pin::get_mut`, no `unsafe` required.
impl<T> Unpin for SendFuture<'_, T> {}

impl<T> Future for SendFuture<'_, T> {
    type Output = Result<(), SendError>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if let Some(p) = &this.pending {
            if p.done.get() {
                this.pending = None;
                return Poll::Ready(Ok(()));
            }
            if !this.chan.receiver_alive.get() {
                this.pending = None;
                return Poll::Ready(Err(SendError));
            }
            *p.waker.borrow_mut() = Some(waker());
            return Poll::Pending;
        }
        let Some(value) = this.value.take() else {
            // Completed already (polled after Ready) — treat as done.
            return Poll::Ready(Ok(()));
        };
        if !this.chan.receiver_alive.get() {
            return Poll::Ready(Err(SendError));
        }
        let within_capacity = this.chan.shared.borrow().queue.len() < this.chan.capacity.get();
        if within_capacity {
            this.chan.shared.borrow_mut().queue.push_back(QEntry {
                value,
                pending: None,
            });
            this.chan.wake_receiver();
            return Poll::Ready(Ok(()));
        }
        let pending = Rc::new(PendingSend {
            done: Cell::new(false),
            waker: RefCell::new(Some(waker())),
        });
        this.chan.shared.borrow_mut().queue.push_back(QEntry {
            value,
            pending: Some(pending.clone()),
        });
        this.chan.wake_receiver();
        this.pending = Some(pending);
        Poll::Pending
    }
}

impl<T> Drop for SendFuture<'_, T> {
    fn drop(&mut self) {
        // A cancelled send must not deliver its value: withdraw the entry.
        if let Some(p) = &self.pending {
            if !p.done.get() {
                let queue = &mut self.chan.shared.borrow_mut().queue;
                if let Some(pos) = queue
                    .iter()
                    .position(|e| e.pending.as_ref().is_some_and(|q| Rc::ptr_eq(q, p)))
                {
                    queue.remove(pos);
                }
            }
        }
    }
}

/// The receiving half of a channel (single consumer).
pub struct Receiver<T> {
    state: Rc<ChanState<T>>,
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.state.receiver_alive.set(false);
        // Wake every blocked sender so it can observe the closure.
        for entry in self.state.shared.borrow().queue.iter() {
            if let Some(p) = &entry.pending {
                p.wake();
            }
        }
    }
}

impl<T> Receiver<T> {
    /// Receives the next value, waiting if none is queued.
    pub fn recv(&self) -> RecvFuture<'_, T> {
        RecvFuture { chan: &self.state }
    }

    /// Takes a queued value without waiting.
    pub fn try_recv(&self) -> Option<T> {
        self.state.pop()
    }

    /// Number of values queued.
    pub fn len(&self) -> usize {
        self.state.shared.borrow().queue.len()
    }

    /// Returns `true` when no values are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn poll_take(&self) -> Poll<Result<T, RecvError>> {
        self.state.poll_take()
    }

    /// Makes this receiver guard `index` of an ALT set: from now on its
    /// pushes mark that bit in `set`, which wakes the set's owner.
    ///
    /// # Panics
    ///
    /// Panics if the receiver is a guard of a set already — it would go
    /// on reporting to the first, and the second would wait forever.
    pub(crate) fn join_set(&self, set: Rc<AltShared>, index: usize) {
        assert!(
            self.state.guard_of.set((set, index)).is_ok(),
            "receiver is already a guard of an ALT set"
        );
    }

    /// A set's visit to this guard: [`Self::poll_take`] without the
    /// registration, which the set does once for all its guards.
    pub(crate) fn take(&self) -> Poll<Result<T, RecvError>> {
        self.state.take()
    }
}

/// Future returned by [`Receiver::recv`].
pub struct RecvFuture<'a, T> {
    chan: &'a Rc<ChanState<T>>,
}

impl<T> Future for RecvFuture<'_, T> {
    type Output = Result<T, RecvError>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.chan.poll_take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Simulation;
    use crate::time::{SimDuration, SimTime};
    use std::rc::Rc as StdRc;

    #[test]
    fn rendezvous_blocks_sender_until_received() {
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u32>();
        let sent_at = StdRc::new(Cell::new(SimTime::ZERO));
        let sa = sent_at.clone();
        sim.spawn("sender", async move {
            tx.send(1).await.unwrap();
            sa.set(crate::now());
        });
        sim.spawn("receiver", async move {
            crate::delay(SimDuration::from_millis(5)).await;
            assert_eq!(rx.recv().await.unwrap(), 1);
        });
        sim.run_until_idle();
        // The sender only completed when the receiver took the value at t=5ms.
        assert_eq!(sent_at.get(), SimTime::from_millis(5));
    }

    #[test]
    fn buffered_sender_completes_early_until_full() {
        let mut sim = Simulation::new();
        let (tx, rx) = buffered::<u32>(2);
        let progress = StdRc::new(Cell::new(0u32));
        let p = progress.clone();
        sim.spawn("sender", async move {
            tx.send(1).await.unwrap();
            p.set(1);
            tx.send(2).await.unwrap();
            p.set(2);
            tx.send(3).await.unwrap(); // Blocks: capacity 2.
            p.set(3);
        });
        sim.run_for(SimDuration::from_millis(1));
        assert_eq!(progress.get(), 2);
        sim.spawn("receiver", async move {
            assert_eq!(rx.recv().await.unwrap(), 1);
            assert_eq!(rx.recv().await.unwrap(), 2);
            assert_eq!(rx.recv().await.unwrap(), 3);
        });
        sim.run_until_idle();
        assert_eq!(progress.get(), 3);
    }

    #[test]
    fn unbounded_never_blocks() {
        let mut sim = Simulation::new();
        let (tx, rx) = unbounded::<u32>();
        sim.spawn("sender", async move {
            for i in 0..1000 {
                tx.send(i).await.unwrap();
            }
        });
        sim.run_until_idle();
        assert_eq!(rx.len(), 1000);
        let mut got = 0;
        while rx.try_recv().is_some() {
            got += 1;
        }
        assert_eq!(got, 1000);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut sim = Simulation::new();
        let (tx, rx) = unbounded::<u32>();
        let out = StdRc::new(RefCell::new(Vec::new()));
        let o = out.clone();
        sim.spawn("sender", async move {
            for i in 0..10 {
                tx.send(i).await.unwrap();
            }
        });
        sim.spawn("receiver", async move {
            while let Ok(v) = rx.recv().await {
                o.borrow_mut().push(v);
            }
        });
        sim.run_until_idle();
        assert_eq!(*out.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn recv_errors_when_all_senders_dropped() {
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u32>();
        sim.spawn("sender", async move {
            tx.send(9).await.unwrap();
            // tx dropped here.
        });
        let saw = StdRc::new(Cell::new(false));
        let s = saw.clone();
        sim.spawn("receiver", async move {
            assert_eq!(rx.recv().await.unwrap(), 9);
            assert_eq!(rx.recv().await, Err(RecvError));
            s.set(true);
        });
        sim.run_until_idle();
        assert!(saw.get());
    }

    #[test]
    fn send_errors_when_receiver_dropped() {
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u32>();
        drop(rx);
        let saw = StdRc::new(Cell::new(false));
        let s = saw.clone();
        sim.spawn("sender", async move {
            assert_eq!(tx.send(1).await, Err(SendError));
            s.set(true);
        });
        sim.run_until_idle();
        assert!(saw.get());
    }

    #[test]
    fn blocked_sender_wakes_when_receiver_dropped() {
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u32>();
        let saw = StdRc::new(Cell::new(false));
        let s = saw.clone();
        sim.spawn("sender", async move {
            assert_eq!(tx.send(1).await, Err(SendError));
            s.set(true);
        });
        sim.spawn("dropper", async move {
            crate::delay(SimDuration::from_millis(1)).await;
            drop(rx);
        });
        sim.run_until_idle();
        assert!(saw.get());
    }

    #[test]
    fn try_send_respects_capacity() {
        let (tx, rx) = buffered::<u32>(1);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(tx.try_send(2), Ok(()));
        drop(rx);
        assert_eq!(tx.try_send(3), Err(TrySendError::Closed(3)));
    }

    #[test]
    fn try_send_on_rendezvous_always_full() {
        let (tx, _rx) = channel::<u32>();
        assert_eq!(tx.try_send(1), Err(TrySendError::Full(1)));
    }

    #[test]
    fn multi_sender_clone_counts() {
        let mut sim = Simulation::new();
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        sim.spawn("a", async move {
            tx.send(1).await.unwrap();
        });
        sim.spawn("b", async move {
            tx2.send(2).await.unwrap();
        });
        let n = StdRc::new(Cell::new(0));
        let n2 = n.clone();
        sim.spawn("rx", async move {
            while rx.recv().await.is_ok() {
                n2.set(n2.get() + 1);
            }
        });
        sim.run_until_idle();
        assert_eq!(n.get(), 2);
    }

    #[test]
    fn cancelled_send_withdraws_value() {
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u32>();
        sim.spawn("sender", async move {
            // Send with a deadline that expires before any receiver arrives.
            let send = tx.send(42);
            let timeout = crate::delay(SimDuration::from_millis(1));
            futures_race(send, timeout).await;
            // Hold the sender open so recv below observes emptiness rather
            // than closure.
            crate::delay(SimDuration::from_millis(10)).await;
            drop(tx);
        });
        let got = StdRc::new(RefCell::new(None));
        let g = got.clone();
        sim.spawn("receiver", async move {
            crate::delay(SimDuration::from_millis(5)).await;
            *g.borrow_mut() = Some(rx.recv().await);
        });
        sim.run_until_idle();
        // The send was cancelled at t=1ms, so the receiver sees closure, not 42.
        assert_eq!(*got.borrow(), Some(Err(RecvError)));
    }

    /// `buffered(2)` with five blocked senders behind the two accepted
    /// ones; returns the order in which the blocked sends completed,
    /// sampled after each `recv`.
    fn blocked_completion_order(withdraw: Option<u32>) -> (Vec<u32>, Vec<Vec<u32>>) {
        let mut sim = Simulation::new();
        let (tx, rx) = buffered::<u32>(2);
        let completed = StdRc::new(RefCell::new(Vec::new()));
        for i in 0..7u32 {
            let tx = tx.clone();
            let done = completed.clone();
            sim.spawn(&format!("sender{i}"), async move {
                if withdraw == Some(i) {
                    // Give up while still blocked beyond the capacity.
                    futures_race(tx.send(i), crate::delay(SimDuration::from_millis(1))).await;
                    return;
                }
                tx.send(i).await.unwrap();
                done.borrow_mut().push(i);
            });
        }
        drop(tx);
        sim.run_for(SimDuration::from_millis(2));
        assert_eq!(*completed.borrow(), vec![0, 1], "two sends fit the FIFO");
        let received = StdRc::new(RefCell::new(Vec::new()));
        let after_each = StdRc::new(RefCell::new(Vec::new()));
        let (r, a, c) = (received.clone(), after_each.clone(), completed.clone());
        sim.spawn("receiver", async move {
            while let Ok(v) = rx.recv().await {
                r.borrow_mut().push(v);
                // Let the sender this recv released run before sampling.
                crate::delay(SimDuration::from_millis(1)).await;
                a.borrow_mut().push(c.borrow().clone());
            }
        });
        sim.run_until_idle();
        let received = received.borrow().clone();
        let after_each = after_each.borrow().clone();
        (received, after_each)
    }

    #[test]
    fn buffered_accepts_one_blocked_sender_per_recv_in_fifo_order() {
        let (received, after_each) = blocked_completion_order(None);
        assert_eq!(received, (0..7).collect::<Vec<_>>());
        // Each recv frees one slot, so exactly one more send completes,
        // oldest first, until none is left blocked.
        let want: Vec<Vec<u32>> = (3..=7usize)
            .chain([7, 7])
            .map(|n| (0..n as u32).collect())
            .collect();
        assert_eq!(after_each, want);
    }

    #[test]
    fn withdrawn_pending_send_does_not_strand_the_ones_behind_it() {
        // Sender 4 sits in the middle of the blocked run and gives up.
        let (received, after_each) = blocked_completion_order(Some(4));
        assert_eq!(received, vec![0, 1, 2, 3, 5, 6]);
        assert_eq!(
            after_each,
            vec![
                vec![0, 1, 2],
                vec![0, 1, 2, 3],
                vec![0, 1, 2, 3, 5],
                vec![0, 1, 2, 3, 5, 6],
                vec![0, 1, 2, 3, 5, 6],
                vec![0, 1, 2, 3, 5, 6],
            ]
        );
    }

    #[test]
    fn unbounded_drain_visits_linear() {
        const N: u32 = 10_000;
        let (tx, rx) = unbounded::<u32>();
        for i in 0..N {
            assert_eq!(tx.try_send(i), Ok(()));
        }
        let before = ACCEPT_VISITS.with(Cell::get);
        for i in 0..N {
            assert_eq!(rx.try_recv(), Some(i), "drains in order");
        }
        assert_eq!(rx.try_recv(), None);
        // One queue entry looked at per pop — it used to be the whole
        // remaining queue, N²/2 = 50 M for this drain.
        let visits = ACCEPT_VISITS.with(Cell::get) - before;
        assert!(visits <= u64::from(N), "drain visited {visits} entries");
    }

    #[test]
    fn resizing_loses_nothing_and_growth_releases_blocked_sends() {
        let mut sim = Simulation::new();
        let (tx, rx) = buffered::<u32>(3);
        let done = StdRc::new(RefCell::new(Vec::new()));
        for i in 0..6u32 {
            let (tx, d) = (tx.clone(), done.clone());
            sim.spawn(&format!("sender{i}"), async move {
                tx.send(i).await.unwrap();
                d.borrow_mut().push(i);
            });
        }
        sim.run_until_idle();
        assert_eq!(*done.borrow(), [0, 1, 2]);
        // A shrink below the occupancy keeps every value.
        tx.set_capacity(1);
        assert_eq!(rx.try_recv(), Some(0));
        sim.run_until_idle();
        assert_eq!(*done.borrow(), [0, 1, 2], "two queued, one slot");
        tx.set_capacity(4);
        assert_eq!(tx.capacity(), 4);
        sim.run_until_idle();
        assert_eq!(*done.borrow(), [0, 1, 2, 3, 4], "the oldest two released");
        let mut got = Vec::new();
        while let Some(v) = rx.try_recv() {
            got.push(v);
        }
        assert_eq!(got, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn chan_state_is_the_size_it_was_before_it_could_be_a_guard() {
        // queue 40, capacity 8, waker slot 24, senders 8, alive 8 (padded).
        assert!(std::mem::size_of::<ChanState<u64>>() <= 88);
    }

    #[test]
    #[should_panic(expected = "receiver is already a guard of an ALT set")]
    fn a_receiver_cannot_join_two_alt_sets() {
        let (_tx, rx) = channel::<u32>();
        // A set owns its guards and a `Receiver` is not `Clone`, so only
        // a forged second handle gets this far.
        let twin = Receiver {
            state: rx.state.clone(),
        };
        let _first = crate::AltSet::new(vec![rx]);
        let _second = crate::AltSet::new(vec![twin]);
    }

    /// Minimal two-future race for tests (first to complete wins, other dropped).
    async fn futures_race<A, B>(a: A, b: B)
    where
        A: Future,
        B: Future,
    {
        // Boxing the contenders keeps the race entirely in safe code: the
        // pinned futures live on the heap, so `Race` itself stays `Unpin`
        // and projection needs no `unsafe`.
        struct Race<A, B>(Option<Pin<Box<A>>>, Option<Pin<Box<B>>>);
        impl<A: Future, B: Future> Future for Race<A, B> {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                let this = self.get_mut();
                if let Some(a) = &mut this.0 {
                    if a.as_mut().poll(cx).is_ready() {
                        return Poll::Ready(());
                    }
                }
                if let Some(b) = &mut this.1 {
                    if b.as_mut().poll(cx).is_ready() {
                        return Poll::Ready(());
                    }
                }
                Poll::Pending
            }
        }
        Race(Some(Box::pin(a)), Some(Box::pin(b))).await
    }
}
