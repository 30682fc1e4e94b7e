//! Ingress: the deterministic merge heap and its dispatcher.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use pandora_sim::{delay_until_late, now, Delay, SimTime, TaskWaker};

/// One stamped value: the merge key `(due, port, seq)` plus the
/// type-erased payload.
pub(crate) struct Entry {
    pub due: u64,
    pub port: u32,
    pub seq: u64,
    pub payload: Box<dyn Any>,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.port, self.seq) == (other.due, other.port, other.seq)
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
        (self.due, self.port, self.seq).cmp(&(other.due, other.port, other.seq))
    }
}

/// The ingress hub: every port's entries land in one heap keyed `(due,
/// port, seq)`, and a single dispatcher task delivers matured entries in
/// exactly that order.
pub(crate) struct IngressHub {
    heap: RefCell<BinaryHeap<Reverse<Entry>>>,
    /// Indexed by port id — ids are dense and creation-ordered, and the
    /// cluster's port count is fixed before setup runs. `None` for a port
    /// that is not bound (yet).
    #[allow(clippy::type_complexity)]
    sinks: RefCell<Vec<Option<Box<dyn Fn(Box<dyn Any>)>>>>,
    waker: RefCell<Option<TaskWaker>>,
    /// The instant the dispatcher's timer is armed for, if one is.
    armed: Cell<Option<u64>>,
}

impl IngressHub {
    /// Creates an empty hub for a cluster of `ports` ports: no sinks
    /// bound, no pending entries.
    pub fn new(ports: usize) -> Rc<IngressHub> {
        Rc::new(IngressHub {
            heap: RefCell::new(BinaryHeap::new()),
            sinks: RefCell::new((0..ports).map(|_| None).collect()),
            waker: RefCell::new(None),
            armed: Cell::new(None),
        })
    }

    /// Registers the delivery closure of one ingress port.
    pub fn register_sink(&self, port: u32, sink: Box<dyn Fn(Box<dyn Any>)>) {
        let slot = &mut self.sinks.borrow_mut()[port as usize];
        assert!(slot.is_none(), "ingress port {port} bound twice");
        *slot = Some(sink);
    }

    /// Queues one entry, and wakes the dispatcher if the entry is due
    /// before the instant its timer is armed for (or no timer is armed):
    /// only then does the head move and the timer need re-arming. An
    /// entry due at or after that instant is found by the poll the armed
    /// timer brings. Before the dispatcher's first poll there is no waker
    /// to wake, which is fine: that poll drains everything queued.
    pub fn push(&self, entry: Entry) {
        let due = entry.due;
        self.heap.borrow_mut().push(Reverse(entry));
        if self.armed.get().is_none_or(|at| due < at) {
            if let Some(w) = self.waker.borrow().as_ref() {
                w.wake();
            }
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
                .get(entry.port as usize)
                .and_then(Option::as_ref)
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
/// next due time, which it posts in the hub's `armed` so that a push can
/// tell whether it moves the head. Spurious wakes (abandoned timers)
/// deliver nothing and are inert — they never perturb the ordering of
/// ordinary timers, because the late lane sorts after every normal timer
/// at the same instant.
pub(crate) struct Dispatcher {
    hub: Rc<IngressHub>,
    /// The timer for the instant in `hub.armed`.
    sleep: Option<Delay>,
}

impl Dispatcher {
    /// Creates the dispatcher driving `hub`; spawn exactly one.
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
            let head = this.hub.next_due();
            // (Re)arm only when the head changed; an abandoned timer
            // just fires a harmless spurious wake later.
            if this.hub.armed.get() != head {
                this.hub.armed.set(head);
                this.sleep = head.map(|due| delay_until_late(SimTime::from_nanos(due)));
            }
            let Some(delay) = this.sleep.as_mut() else {
                return Poll::Pending;
            };
            if Pin::new(delay).poll(cx).is_pending() {
                return Poll::Pending;
            }
            this.hub.armed.set(None);
            this.sleep = None;
        }
    }
}
