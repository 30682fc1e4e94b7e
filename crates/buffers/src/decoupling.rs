//! Decoupling buffers (§3.7.1).
//!
//! "Generic circular buffers, holding a FIFO queue of references to
//! pandora segments. In addition to an input and an output channel for
//! segment references, they also respond to commands and generate
//! reports." The buffer is built, as the paper describes of Pandora
//! processes generally, from two cooperating long-lived subprocesses: a
//! *reader* that owns the queue and alternates over command/feedback/input
//! channels, and a high-priority *writer* that pushes items downstream
//! ("we arrange that the output processes have priority").
//!
//! Two input disciplines are supported:
//!
//! * **blocking** (default): when full, the buffer simply does not listen
//!   on its input channel, so the upstream sender blocks — the transputer
//!   back-pressure that lets "data be thrown away closer to the source";
//! * **ready-channel** (figure 3.6): after accepting each item the buffer
//!   *immediately* replies TRUE (more space) or FALSE (now full, TRUE will
//!   follow when a slot frees), so the upstream process can choose to
//!   throw data away rather than block (Principle 5).

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

use pandora_sim::{
    alt2, alt3, channel, unbounded, Either2, Either3, Priority, Receiver, Sender, Spawner,
};

use crate::report::{Report, ReportClass};

/// Commands understood by a decoupling buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferCommand {
    /// Resize the buffer; never loses queued data (§3.7.1: "it is also
    /// possible to specify a new buffer size dynamically, and the buffer
    /// will adjust to this size without any loss of data").
    SetCapacity(usize),
    /// Ask for a status report on the report channel, including "its
    /// present length …, size limit and pointer positions".
    Query,
}

/// Externally visible counters of a running decoupling buffer.
#[derive(Clone)]
pub struct DecouplingHandle {
    shared: Rc<DecShared>,
    cmd_tx: Sender<BufferCommand>,
}

struct DecShared {
    name: String,
    len: Cell<usize>,
    capacity: Cell<usize>,
    accepted: Cell<u64>,
    emitted: Cell<u64>,
    high_watermark: Cell<usize>,
}

impl DecouplingHandle {
    /// Current queue length.
    pub fn len(&self) -> usize {
        self.shared.len.get()
    }

    /// Returns `true` when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current size limit.
    pub fn capacity(&self) -> usize {
        self.shared.capacity.get()
    }

    /// Total items accepted on the input (the "in" pointer position).
    pub fn accepted(&self) -> u64 {
        self.shared.accepted.get()
    }

    /// Total items delivered downstream (the "out" pointer position).
    pub fn emitted(&self) -> u64 {
        self.shared.emitted.get()
    }

    /// Largest queue length observed.
    pub fn high_watermark(&self) -> usize {
        self.shared.high_watermark.get()
    }

    /// Sends a command to the buffer process.
    pub async fn command(&self, cmd: BufferCommand) {
        let _ = self.cmd_tx.send(cmd).await;
    }

    /// The buffer's diagnostic name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }
}

/// Spawns a *blocking* decoupling buffer between `input` and `output`.
///
/// Returns a handle for statistics and commands.
pub fn spawn_decoupling<T: 'static>(
    spawner: &Spawner,
    name: &str,
    capacity: usize,
    input: Receiver<T>,
    output: Sender<T>,
    reports: Sender<Report>,
) -> DecouplingHandle {
    spawn_inner(spawner, name, capacity, input, output, reports, None)
}

/// Spawns a *ready-channel* decoupling buffer (figure 3.6).
///
/// Returns the handle plus the ready channel the upstream process must
/// listen on — see [`ReadyGate`] for the upstream side of the protocol.
pub fn spawn_decoupling_ready<T: 'static>(
    spawner: &Spawner,
    name: &str,
    capacity: usize,
    input: Receiver<T>,
    output: Sender<T>,
    reports: Sender<Report>,
) -> (DecouplingHandle, Receiver<bool>) {
    let (ready_tx, ready_rx) = unbounded::<bool>();
    let handle = spawn_inner(
        spawner,
        name,
        capacity,
        input,
        output,
        reports,
        Some(ready_tx),
    );
    (handle, ready_rx)
}

fn spawn_inner<T: 'static>(
    spawner: &Spawner,
    name: &str,
    capacity: usize,
    input: Receiver<T>,
    output: Sender<T>,
    reports: Sender<Report>,
    ready: Option<Sender<bool>>,
) -> DecouplingHandle {
    assert!(capacity > 0, "decoupling buffer capacity must be non-zero");
    let shared = Rc::new(DecShared {
        name: name.to_string(),
        len: Cell::new(0),
        capacity: Cell::new(capacity),
        accepted: Cell::new(0),
        emitted: Cell::new(0),
        high_watermark: Cell::new(0),
    });
    let (cmd_tx, cmd_rx) = unbounded::<BufferCommand>();
    let handle = DecouplingHandle {
        shared: shared.clone(),
        cmd_tx,
    };

    // The writer: a high-priority subprocess that performs the possibly
    // blocking downstream send, reporting back when it is free again.
    let (conduit_tx, conduit_rx) = channel::<T>();
    let (feedback_tx, feedback_rx) = channel::<()>();
    let writer_name = format!("dec:{name}:writer");
    // The conduit/feedback pair strictly alternates: the reader sends on
    // conduit only while the writer is idle (writer_busy false) and
    // receives feedback only while it is busy, so the rendezvous loop can
    // never have both parties blocked sending at once.
    spawner.spawn_prio(&writer_name, Priority::High, async move {
        while let Ok(item) = conduit_rx.recv().await {
            if output.send(item).await.is_err() {
                return;
            }
            if feedback_tx.send(()).await.is_err() {
                return;
            }
        }
    });

    // The reader: owns the queue; PRI ALT with commands first (Principle 4).
    let reader_name = format!("dec:{name}:reader");
    spawner.spawn(&reader_name, async move {
        let mut queue: VecDeque<T> = VecDeque::new();
        let mut writer_busy = false;
        let mut owes_true = false;
        loop {
            // Dispatch to the writer whenever it is idle and data waits.
            if !writer_busy {
                if let Some(item) = queue.pop_front() {
                    shared.len.set(queue.len());
                    shared.emitted.set(shared.emitted.get() + 1);
                    if conduit_tx.send(item).await.is_err() {
                        return;
                    }
                    writer_busy = true;
                    if owes_true && queue.len() < shared.capacity.get() {
                        if let Some(r) = &ready {
                            let _ = r.try_send(true);
                        }
                        owes_true = false;
                    }
                }
            }
            let full = queue.len() >= shared.capacity.get();
            // In blocking mode a full buffer "will not be listening on its
            // input channel". In ready mode we always listen: the upstream
            // is contractually silent after a FALSE reply.
            let listen_input = ready.is_some() || !full;
            if listen_input {
                match alt3(&cmd_rx, &feedback_rx, &input).await {
                    Some(Ok(Either3::A(cmd))) => {
                        handle_command(
                            cmd,
                            &mut queue,
                            &shared,
                            &reports,
                            ready.as_ref(),
                            &mut owes_true,
                        )
                        .await
                    }
                    Some(Ok(Either3::B(()))) => writer_busy = false,
                    Some(Ok(Either3::C(item))) => {
                        accept(item, &mut queue, &shared, ready.as_ref(), &mut owes_true);
                    }
                    _ => return,
                }
            } else {
                match alt2(&cmd_rx, &feedback_rx).await {
                    Some(Ok(Either2::A(cmd))) => {
                        handle_command(
                            cmd,
                            &mut queue,
                            &shared,
                            &reports,
                            ready.as_ref(),
                            &mut owes_true,
                        )
                        .await
                    }
                    Some(Ok(Either2::B(()))) => writer_busy = false,
                    _ => return,
                }
            }
        }
    });
    handle
}

fn accept<T>(
    item: T,
    queue: &mut VecDeque<T>,
    shared: &DecShared,
    ready: Option<&Sender<bool>>,
    owes_true: &mut bool,
) {
    queue.push_back(item);
    shared.len.set(queue.len());
    shared.accepted.set(shared.accepted.get() + 1);
    if queue.len() > shared.high_watermark.get() {
        shared.high_watermark.set(queue.len());
    }
    if let Some(r) = ready {
        // "It is important that the ready channel always sends a reply
        // immediately."
        let has_space = queue.len() < shared.capacity.get();
        let _ = r.try_send(has_space);
        if !has_space {
            *owes_true = true;
        }
    }
}

async fn handle_command<T>(
    cmd: BufferCommand,
    queue: &mut VecDeque<T>,
    shared: &DecShared,
    reports: &Sender<Report>,
    ready: Option<&Sender<bool>>,
    owes_true: &mut bool,
) {
    match cmd {
        BufferCommand::SetCapacity(n) => {
            let n = n.max(1);
            shared.capacity.set(n);
            // Growth may satisfy an owed TRUE immediately.
            if *owes_true && queue.len() < n {
                if let Some(r) = ready {
                    let _ = r.try_send(true);
                }
                *owes_true = false;
            }
        }
        BufferCommand::Query => {
            let msg = format!(
                "len={} capacity={} in={} out={} hwm={}",
                queue.len(),
                shared.capacity.get(),
                shared.accepted.get(),
                shared.emitted.get(),
                shared.high_watermark.get()
            );
            let _ = reports
                .send(Report::new(
                    pandora_sim::now(),
                    &shared.name,
                    ReportClass::Info,
                    msg,
                ))
                .await;
        }
    }
}

/// The upstream half of the ready-channel protocol (figure 3.6).
///
/// "After a FALSE reply, the input process will not send any more data on
/// its output to the decoupling buffer, but will listen on the ready
/// channel … When it subsequently receives a TRUE reply … it sets a flag
/// indicating that the corresponding output can be sent data again."
pub struct ReadyGate<T> {
    data_tx: Sender<T>,
    /// `None` for a gate onto a *blocking* buffer: offers simply send (and
    /// stall on a full buffer) — the Principle-5 conformance ablation.
    ready_rx: Option<Receiver<bool>>,
    permitted: bool,
    dropped: u64,
    sent: u64,
}

impl<T> ReadyGate<T> {
    /// Wraps the data sender and ready receiver for a ready-mode buffer.
    pub fn new(data_tx: Sender<T>, ready_rx: Receiver<bool>) -> Self {
        ReadyGate {
            data_tx,
            ready_rx: Some(ready_rx),
            permitted: true,
            dropped: 0,
            sent: 0,
        }
    }

    /// Wraps the data sender of a *blocking* buffer (no ready channel):
    /// every offer sends, blocking while the buffer is full, so a slow
    /// consumer stalls the offering process — exactly what Principle 5
    /// exists to prevent. Used by the conformance suite's ablations.
    pub fn blocking(data_tx: Sender<T>) -> Self {
        ReadyGate {
            data_tx,
            ready_rx: None,
            permitted: true,
            dropped: 0,
            sent: 0,
        }
    }

    /// Offers an item: sends it if the buffer is known to have space,
    /// otherwise drops it immediately (never blocks on a full buffer).
    /// Gates made with [`ReadyGate::blocking`] always send, blocking on a
    /// full buffer instead of dropping.
    ///
    /// Returns `true` if the item was sent.
    pub async fn offer(&mut self, item: T) -> bool {
        let Some(ready_rx) = &self.ready_rx else {
            if self.data_tx.send(item).await.is_err() {
                self.dropped += 1;
                return false;
            }
            self.sent += 1;
            return true;
        };
        if !self.permitted {
            // Poll the ready channel without blocking.
            while let Some(r) = ready_rx.try_recv() {
                self.permitted = r;
            }
            if !self.permitted {
                self.dropped += 1;
                return false;
            }
        }
        if self.data_tx.send(item).await.is_err() {
            self.dropped += 1;
            return false;
        }
        self.sent += 1;
        // The immediate reply mandated by the protocol.
        match ready_rx.recv().await {
            Ok(r) => self.permitted = r,
            Err(_) => self.permitted = false,
        }
        true
    }

    /// Items dropped because the buffer had no space.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Items successfully handed to the buffer.
    pub fn sent(&self) -> u64 {
        self.sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_sim::{SimDuration, SimTime, Simulation};
    use std::cell::RefCell;

    fn harness() -> (
        Simulation,
        Sender<u32>,
        Receiver<u32>,
        Receiver<Report>,
        DecouplingHandle,
    ) {
        let sim = Simulation::new();
        let (in_tx, in_rx) = channel::<u32>();
        let (out_tx, out_rx) = channel::<u32>();
        let (rep_tx, rep_rx) = unbounded::<Report>();
        let handle = spawn_decoupling(&sim.spawner(), "test", 4, in_rx, out_tx, rep_tx);
        (sim, in_tx, out_rx, rep_rx, handle)
    }

    #[test]
    fn passes_items_in_order() {
        let (mut sim, in_tx, out_rx, _rep, handle) = harness();
        sim.spawn("producer", async move {
            for i in 0..10 {
                in_tx.send(i).await.unwrap();
            }
        });
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        sim.spawn("consumer", async move {
            for _ in 0..10 {
                let item = out_rx.recv().await.unwrap();
                g.borrow_mut().push(item);
            }
        });
        sim.run_until_idle();
        assert_eq!(*got.borrow(), (0..10).collect::<Vec<_>>());
        assert_eq!(handle.accepted(), 10);
        assert_eq!(handle.emitted(), 10);
        assert_eq!(handle.len(), 0);
    }

    #[test]
    fn decouples_bursty_producer_from_steady_consumer() {
        let (mut sim, in_tx, out_rx, _rep, handle) = harness();
        let producer_done = Rc::new(Cell::new(SimTime::ZERO));
        let pd = producer_done.clone();
        sim.spawn("producer", async move {
            for i in 0..4 {
                in_tx.send(i).await.unwrap();
            }
            pd.set(pandora_sim::now());
        });
        sim.spawn("consumer", async move {
            loop {
                pandora_sim::delay(SimDuration::from_millis(2)).await;
                if out_rx.recv().await.is_err() {
                    return;
                }
            }
        });
        sim.run_until_idle();
        // The burst fits in the buffer: producer finished immediately even
        // though the consumer takes 2ms per item.
        assert_eq!(producer_done.get(), SimTime::ZERO);
        assert!(handle.high_watermark() >= 3);
    }

    #[test]
    fn blocking_mode_applies_backpressure_when_full() {
        let (mut sim, in_tx, _out_rx, _rep, _handle) = harness();
        // No consumer at all: writer takes 1, buffer holds 4, so sends
        // 0..=4 complete and the 6th blocks forever.
        let progress = Rc::new(Cell::new(0u32));
        let p = progress.clone();
        sim.spawn("producer", async move {
            for i in 0..10 {
                in_tx.send(i).await.unwrap();
                p.set(i + 1);
            }
        });
        sim.run_until_idle();
        assert_eq!(progress.get(), 5, "4 buffered + 1 in writer");
    }

    #[test]
    fn query_reports_length_and_pointers() {
        let (mut sim, in_tx, out_rx, rep_rx, handle) = harness();
        sim.spawn("producer", async move {
            for i in 0..3 {
                in_tx.send(i).await.unwrap();
            }
            handle.command(BufferCommand::Query).await;
        });
        sim.run_until_idle();
        let report = rep_rx.try_recv().expect("a query report");
        assert!(report.message.contains("in=3"), "{}", report.message);
        assert!(report.message.contains("capacity=4"));
        drop(out_rx);
    }

    #[test]
    fn resize_without_loss() {
        let (mut sim, in_tx, out_rx, _rep, handle) = harness();
        let h = handle.clone();
        sim.spawn("producer", async move {
            for i in 0..5 {
                in_tx.send(i).await.unwrap();
            }
            // Shrink below current occupancy: nothing may be lost.
            h.command(BufferCommand::SetCapacity(1)).await;
            for i in 5..8 {
                in_tx.send(i).await.unwrap();
            }
        });
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        sim.spawn("consumer", async move {
            loop {
                pandora_sim::delay(SimDuration::from_millis(1)).await;
                match out_rx.recv().await {
                    Ok(v) => g.borrow_mut().push(v),
                    Err(_) => return,
                }
            }
        });
        sim.run_until_idle();
        assert_eq!(*got.borrow(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn grow_capacity_accepts_more() {
        let (mut sim, in_tx, _out_rx, _rep, handle) = harness();
        let progress = Rc::new(Cell::new(0u32));
        let p = progress.clone();
        let h = handle.clone();
        sim.spawn("grower", async move {
            pandora_sim::delay(SimDuration::from_millis(5)).await;
            h.command(BufferCommand::SetCapacity(16)).await;
        });
        sim.spawn("producer", async move {
            for i in 0..12 {
                in_tx.send(i).await.unwrap();
                p.set(i + 1);
            }
        });
        sim.run_until_idle();
        assert_eq!(progress.get(), 12);
    }

    #[test]
    fn ready_mode_upstream_never_blocks() {
        let mut sim = Simulation::new();
        let (in_tx, in_rx) = channel::<u32>();
        let (out_tx, _out_rx_kept) = channel::<u32>();
        let (rep_tx, _rep_rx) = unbounded::<Report>();
        let (handle, ready_rx) =
            spawn_decoupling_ready(&sim.spawner(), "rdy", 3, in_rx, out_tx, rep_tx);
        let gate_stats = Rc::new(RefCell::new((0u64, 0u64)));
        let gs = gate_stats.clone();
        sim.spawn("producer", async move {
            let mut gate = ReadyGate::new(in_tx, ready_rx);
            // 100 offers with no consumer: all but the first few drop, and
            // the producer finishes at t=0 without blocking.
            for i in 0..100 {
                gate.offer(i).await;
            }
            *gs.borrow_mut() = (gate.sent(), gate.dropped());
            assert_eq!(pandora_sim::now(), SimTime::ZERO);
        });
        sim.run_until_idle();
        let (sent, dropped) = *gate_stats.borrow();
        assert_eq!(sent + dropped, 100);
        // Capacity 3 plus one in the writer.
        assert_eq!(sent, 4, "sent {sent}");
        assert_eq!(handle.accepted(), 4);
    }

    #[test]
    fn ready_mode_resumes_after_space_frees() {
        let mut sim = Simulation::new();
        let (in_tx, in_rx) = channel::<u32>();
        let (out_tx, out_rx) = channel::<u32>();
        let (rep_tx, _rep_rx) = unbounded::<Report>();
        let (_handle, ready_rx) =
            spawn_decoupling_ready(&sim.spawner(), "rdy", 2, in_rx, out_tx, rep_tx);
        let counts = Rc::new(RefCell::new((0u64, 0u64)));
        let c = counts.clone();
        sim.spawn("producer", async move {
            let mut gate = ReadyGate::new(in_tx, ready_rx);
            // Offer an item every 1ms for 100ms.
            for i in 0..100 {
                gate.offer(i).await;
                pandora_sim::delay(SimDuration::from_millis(1)).await;
            }
            *c.borrow_mut() = (gate.sent(), gate.dropped());
        });
        sim.spawn("consumer", async move {
            // Consume every 4ms: the buffer oscillates full/with-space.
            loop {
                pandora_sim::delay(SimDuration::from_millis(4)).await;
                if out_rx.recv().await.is_err() {
                    return;
                }
            }
        });
        sim.run_until_idle();
        let (sent, dropped) = *counts.borrow();
        assert_eq!(sent + dropped, 100);
        // Roughly one in four offers is carried (consumer rate), rest drop;
        // crucially, traffic keeps flowing after the first FALSE.
        assert!(sent >= 20, "sent {sent}");
        assert!(dropped >= 60, "dropped {dropped}");
    }

    #[test]
    fn blocking_gate_stalls_instead_of_dropping() {
        // The Principle-5 ablation: a gate onto a blocking buffer with no
        // consumer wedges the offering process once the buffer fills.
        let mut sim = Simulation::new();
        let (in_tx, in_rx) = channel::<u32>();
        let (out_tx, _out_rx_kept) = channel::<u32>();
        let (rep_tx, _rep_rx) = unbounded::<Report>();
        let _handle = spawn_decoupling(&sim.spawner(), "blk", 3, in_rx, out_tx, rep_tx);
        let progress = Rc::new(Cell::new(0u32));
        let p = progress.clone();
        sim.spawn("producer", async move {
            let mut gate = ReadyGate::blocking(in_tx);
            for i in 0..100 {
                gate.offer(i).await;
                p.set(i + 1);
            }
        });
        sim.run_until_idle();
        // 3 buffered + 1 in the writer: the 5th offer blocks forever.
        assert_eq!(progress.get(), 4);
        assert!(sim.deadlock_report().is_some());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let sim = Simulation::new();
        let (_in_tx, in_rx) = channel::<u32>();
        let (out_tx, _out_rx) = channel::<u32>();
        let (rep_tx, _rep_rx) = unbounded::<Report>();
        let _ = spawn_decoupling(&sim.spawner(), "bad", 0, in_rx, out_tx, rep_tx);
    }
}
