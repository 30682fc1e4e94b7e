//! Decoupling buffers (§3.7.1).
//!
//! "Generic circular buffers, holding a FIFO queue of references to
//! pandora segments. In addition to an input and an output channel for
//! segment references, they also respond to commands and generate
//! reports." Here a buffer is a bounded queue and no process: upstream
//! offers through a [`ReadyGate`] that looks at the queue's room itself,
//! downstream drains the queue's [`Receiver`], and a command is a call on
//! the [`DecouplingHandle`].
//!
//! In ready mode (figure 3.6) an offer to a full buffer is dropped at
//! once, so upstream never blocks on one slow output (Principle 5); the
//! ready channel's TRUE/FALSE reply told it the same a message later. In
//! blocking mode, the conformance suite's ablation, the offer waits for
//! room and the offering process with it.
//!
//! Two rules keep the schedule of the paper's buffer process, and every
//! scenario's history depends on them: the **output slot**, one place
//! beyond the capacity, for the segment its output process holds while
//! downstream is busy; and the **deschedule**: an accepted offer yields
//! once, as an Occam output deschedules its sender, so the process the
//! offer woke takes its segment before the next offer is made.

use std::cell::Cell;
use std::rc::Rc;

use pandora_sim::{buffered, yield_now, Receiver, Sender, TrySendError};

use crate::report::Reporter;

/// Builds the decoupling buffer `name` of `capacity` slots. Returns the
/// gate upstream offers into — dropping when the buffer is full in
/// `ready_mode`, waiting for room otherwise — the queue downstream drains,
/// and the handle commands and statistics go through; the buffer reports
/// under its name on the log of `reports`. Spawns nothing.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn decoupling<T: 'static>(
    name: &str,
    capacity: usize,
    ready_mode: bool,
    reports: &Reporter,
) -> (ReadyGate<T>, Receiver<T>, DecouplingHandle) {
    assert!(capacity > 0, "decoupling buffer capacity must be non-zero");
    let (tx, rx) = buffered::<T>(capacity + 1);
    let shared = Rc::new(Shared {
        queue: Box::new(tx.clone()),
        reports: reports.named(name),
        accepted: Cell::new(0),
        high_watermark: Cell::new(0),
    });
    let gate = ReadyGate {
        tx,
        shared: shared.clone(),
        blocking: !ready_mode,
        dropped: 0,
    };
    (gate, rx, DecouplingHandle { shared })
}

/// What a handle needs of a queue, whatever it carries.
trait Occupancy {
    fn len(&self) -> usize;
    fn capacity(&self) -> usize;
    fn set_capacity(&self, capacity: usize);
}

impl<T> Occupancy for Sender<T> {
    fn len(&self) -> usize {
        Sender::len(self)
    }

    fn capacity(&self) -> usize {
        Sender::capacity(self)
    }

    fn set_capacity(&self, capacity: usize) {
        Sender::set_capacity(self, capacity);
    }
}

struct Shared {
    /// The queue; its channel capacity counts the output slot.
    queue: Box<dyn Occupancy>,
    reports: Reporter,
    /// Segments that entered the queue — the "in" pointer position.
    accepted: Cell<u64>,
    high_watermark: Cell<usize>,
}

impl Shared {
    fn entered(&self) {
        self.accepted.set(self.accepted.get() + 1);
        let len = self.queue.len();
        self.high_watermark.set(self.high_watermark.get().max(len));
    }
}

/// Commands and statistics of a decoupling buffer.
#[derive(Clone)]
pub struct DecouplingHandle {
    shared: Rc<Shared>,
}

impl DecouplingHandle {
    /// Current size limit, the output slot not counted.
    pub fn capacity(&self) -> usize {
        self.shared.queue.capacity() - 1
    }

    /// Largest queue length observed.
    pub fn high_watermark(&self) -> usize {
        self.shared.high_watermark.get()
    }

    /// Resizes the buffer "without any loss of data" (§3.7.1): a shrink
    /// below the occupancy only refuses offers until downstream has
    /// drained below it, and growth lets in an offer waiting for room.
    pub fn set_capacity(&self, capacity: usize) {
        self.shared.queue.set_capacity(capacity.max(1) + 1);
    }

    /// Puts a status report on the report channel — "its present length
    /// …, size limit and pointer positions". The length counts the output
    /// slot's segment and an offer waiting for room. Only valid inside a
    /// running simulation, which stamps the report.
    pub fn query(&self) {
        let s = &self.shared;
        let (len, accepted) = (s.queue.len(), s.accepted.get());
        s.reports.reply(format_args!(
            "len={len} capacity={} in={accepted} out={} hwm={}",
            self.capacity(),
            accepted - len as u64,
            s.high_watermark.get()
        ));
    }
}

/// The upstream side of a decoupling buffer: "if an output device falls
/// so far behind the input that its decoupling buffer fills, then the
/// switch simply omits to send it any more segments … until the buffer
/// has free slots again" (§3.7.1).
pub struct ReadyGate<T> {
    tx: Sender<T>,
    shared: Rc<Shared>,
    blocking: bool,
    dropped: u64,
}

impl<T> ReadyGate<T> {
    /// Offers an item: queues it if the buffer has room; otherwise drops
    /// it at once, or — on a blocking buffer — waits for room.
    ///
    /// Returns `true` if the item was queued.
    pub async fn offer(&mut self, item: T) -> bool {
        let sent = match self.tx.try_send(item) {
            Ok(()) => {
                self.shared.entered();
                yield_now().await;
                true
            }
            Err(TrySendError::Full(item)) if self.blocking => {
                // The item waits in the queue, beyond its capacity.
                let send = self.tx.send(item);
                self.shared.entered();
                send.await.is_ok()
            }
            Err(_) => false,
        };
        if !sent {
            self.dropped += 1;
        }
        sent
    }

    /// Items dropped because the buffer had no space.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Items the buffer took.
    pub fn sent(&self) -> u64 {
        self.shared.accepted.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Report;
    use pandora_sim::{unbounded, SimDuration, SimTime, Simulation};
    use std::cell::RefCell;

    fn buffer(
        capacity: usize,
        ready_mode: bool,
    ) -> (
        ReadyGate<u32>,
        Receiver<u32>,
        DecouplingHandle,
        Receiver<Report>,
    ) {
        let (rep_tx, rep_rx) = unbounded::<Report>();
        let reports = Reporter::new(rep_tx, "rig", SimDuration::from_millis(100));
        let (gate, rx, handle) = decoupling("test", capacity, ready_mode, &reports);
        (gate, rx, handle, rep_rx)
    }

    #[test]
    fn the_ready_gate_never_blocks_and_counts_its_drops() {
        let mut sim = Simulation::new();
        let (mut gate, _rx, handle, _rep) = buffer(3, true);
        sim.spawn("producer", async move {
            // No consumer: three slots and the output slot fill, the rest
            // drop, and the producer finishes at t=0.
            for i in 0..100 {
                gate.offer(i).await;
            }
            assert_eq!((gate.sent(), gate.dropped()), (4, 96));
            assert_eq!(pandora_sim::now(), SimTime::ZERO);
        });
        sim.run_until_idle();
        assert!(sim.deadlock_report().is_none());
        assert_eq!(handle.high_watermark(), 4);
    }

    #[test]
    fn an_accepted_offer_lets_the_consumer_it_woke_take_it_first() {
        let mut sim = Simulation::new();
        let (mut gate, rx, _, _rep) = buffer(1, true);
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        sim.spawn("consumer", async move {
            while let Ok(v) = rx.recv().await {
                g.borrow_mut().push(v);
            }
        });
        sim.spawn("producer", async move {
            for i in 0..10 {
                gate.offer(i).await;
            }
            assert_eq!(gate.dropped(), 0, "a two-place queue held a burst of ten");
        });
        sim.run_until_idle();
        assert_eq!(*got.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn the_blocking_gate_stalls_and_the_deadlock_report_names_the_producer() {
        let mut sim = Simulation::new();
        let (mut gate, _rx, _handle, _rep) = buffer(3, false);
        let progress = Rc::new(Cell::new(0u32));
        let p = progress.clone();
        sim.spawn("producer", async move {
            for i in 0..100 {
                gate.offer(i).await;
                p.set(i + 1);
            }
        });
        sim.run_until_idle();
        // Three slots and the output slot: the fifth offer waits forever.
        assert_eq!(progress.get(), 4);
        let report = sim.deadlock_report().expect("a stalled producer");
        assert_eq!(report.blocked, ["producer"]);
    }

    #[test]
    fn shrinking_below_the_occupancy_loses_nothing() {
        let mut sim = Simulation::new();
        let (mut gate, rx, handle, _rep) = buffer(4, false);
        sim.spawn("producer", async move {
            for i in 0..5 {
                gate.offer(i).await;
            }
            handle.set_capacity(1);
            assert_eq!(handle.capacity(), 1);
            for i in 5..8 {
                gate.offer(i).await;
            }
        });
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        sim.spawn("consumer", async move {
            while let Ok(v) = rx.recv().await {
                g.borrow_mut().push(v);
                pandora_sim::delay(SimDuration::from_millis(1)).await;
            }
        });
        sim.run_until_idle();
        assert_eq!(*got.borrow(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn growing_wakes_a_blocked_offerer() {
        let mut sim = Simulation::new();
        let (mut gate, _rx, handle, _rep) = buffer(4, false);
        let progress = Rc::new(RefCell::new(Vec::new()));
        let p = progress.clone();
        sim.spawn("producer", async move {
            for i in 0..12 {
                gate.offer(i).await;
                p.borrow_mut().push(pandora_sim::now().as_millis());
            }
        });
        sim.spawn("grower", async move {
            pandora_sim::delay(SimDuration::from_millis(5)).await;
            handle.set_capacity(16);
        });
        sim.run_until_idle();
        let at = progress.borrow();
        assert_eq!(at.len(), 12);
        assert_eq!(at[4], 0, "four slots and the output slot");
        assert_eq!(at[5], 5, "the sixth offer waits for the growth");
    }

    #[test]
    fn query_reports_length_capacity_pointers_and_high_watermark() {
        let mut sim = Simulation::new();
        let (mut gate, rx, handle, rep_rx) = buffer(4, true);
        sim.spawn("producer", async move {
            for i in 0..3 {
                gate.offer(i).await;
            }
            rx.try_recv().expect("a queued item");
            handle.query();
        });
        sim.run_until_idle();
        let report = rep_rx.try_recv().expect("a query report");
        assert_eq!(report.message, "len=2 capacity=4 in=3 out=1 hwm=3");
        assert_eq!(report.source, "test");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = buffer(0, true);
    }
}
