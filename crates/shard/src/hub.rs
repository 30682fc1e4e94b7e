//! Per-shard ingress: the deterministic merge heap and its dispatcher.

use std::any::Any;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use pandora_sim::{delay_until_late, now, Delay, SimTime, TaskWaker};

use crate::exchange::RawEntry;

struct HeapEntry {
    due: u64,
    port: u32,
    seq: u64,
    payload: Box<dyn Any + Send>,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.port, self.seq) == (other.due, other.port, other.seq)
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.port, self.seq).cmp(&(other.due, other.port, other.seq))
    }
}

/// One shard's ingress hub: every entry bound for this shard — from
/// neighbours via the exchange, or from loopback ports directly — lands
/// in one heap keyed `(due, port, seq)`, and a single dispatcher task
/// delivers matured entries in exactly that order. The fixed merge
/// order is what makes same-seed runs byte-identical regardless of the
/// shard count or thread interleaving.
pub(crate) struct IngressHub {
    heap: RefCell<BinaryHeap<Reverse<HeapEntry>>>,
    #[allow(clippy::type_complexity)]
    sinks: RefCell<HashMap<u32, Box<dyn Fn(Box<dyn Any + Send>)>>>,
    waker: RefCell<Option<TaskWaker>>,
}

impl IngressHub {
    /// Creates an empty hub with no sinks and no pending entries.
    pub fn new() -> Rc<IngressHub> {
        Rc::new(IngressHub {
            heap: RefCell::new(BinaryHeap::new()),
            sinks: RefCell::new(HashMap::new()),
            waker: RefCell::new(None),
        })
    }

    /// Registers the delivery closure of one ingress port.
    pub fn register_sink(&self, port: u32, sink: Box<dyn Fn(Box<dyn Any + Send>)>) {
        let previous = self.sinks.borrow_mut().insert(port, sink);
        assert!(previous.is_none(), "ingress port {port} bound twice");
    }

    /// Queues one entry without waking the dispatcher — the slice-start
    /// batch path; the runner wakes once after draining the exchange.
    pub fn push_raw(&self, entry: RawEntry) {
        self.heap.borrow_mut().push(Reverse(HeapEntry {
            due: entry.due,
            port: entry.port,
            seq: entry.seq,
            payload: entry.payload,
        }));
    }

    /// Queues one loopback entry mid-slice and wakes the dispatcher so a
    /// same-slice due time is honoured.
    pub fn push(&self, entry: RawEntry) {
        self.push_raw(entry);
        self.wake();
    }

    /// Wakes the dispatcher task (no-op before its first poll, which is
    /// fine: the first poll drains everything already queued).
    pub fn wake(&self) {
        if let Some(w) = self.waker.borrow().as_ref() {
            w.wake();
        }
    }

    /// Delivers every entry with `due <= now`, in `(due, port, seq)`
    /// order.
    fn deliver_matured(&self) {
        let t = now().as_nanos();
        loop {
            let entry = {
                let mut heap = self.heap.borrow_mut();
                match heap.peek() {
                    Some(Reverse(e)) if e.due <= t => heap.pop().map(|Reverse(e)| e),
                    _ => None,
                }
            };
            let Some(entry) = entry else { return };
            let sinks = self.sinks.borrow();
            let sink = sinks
                .get(&entry.port)
                .unwrap_or_else(|| panic!("ingress port {} has no bound sink", entry.port));
            sink(entry.payload);
        }
    }

    fn next_due(&self) -> Option<u64> {
        self.heap.borrow().peek().map(|Reverse(e)| e.due)
    }
}

/// The dispatcher task body: an endless future that delivers matured
/// entries and sleeps on the executor's *late* timer lane until the
/// next due time. Spurious wakes (slice boundaries, loopback pushes
/// already covered by the armed timer) deliver nothing and are inert —
/// they never perturb the ordering of ordinary timers, because the late
/// lane sorts after every normal timer at the same instant.
pub(crate) struct Dispatcher {
    hub: Rc<IngressHub>,
    sleep: Option<(u64, Delay)>,
}

impl Dispatcher {
    /// Creates the dispatcher driving `hub`; spawn exactly one per shard.
    pub fn new(hub: Rc<IngressHub>) -> Dispatcher {
        Dispatcher { hub, sleep: None }
    }
}

impl Future for Dispatcher {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        this.hub
            .waker
            .borrow_mut()
            .get_or_insert_with(pandora_sim::waker);
        loop {
            this.hub.deliver_matured();
            let Some(due) = this.hub.next_due() else {
                this.sleep = None;
                return Poll::Pending;
            };
            // (Re)arm only when the head changed; an abandoned timer
            // just fires a harmless spurious wake later.
            if this.sleep.as_ref().map(|(d, _)| *d) != Some(due) {
                this.sleep = Some((due, delay_until_late(SimTime::from_nanos(due))));
            }
            let (_, delay) = this.sleep.as_mut().expect("sleep just armed");
            match Pin::new(delay).poll(cx) {
                Poll::Ready(()) => {
                    this.sleep = None;
                    continue;
                }
                Poll::Pending => return Poll::Pending,
            }
        }
    }
}
