//! Ingress: one typed lane per (latency, payload type), and the
//! dispatcher that merges their heads.

use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use pandora_sim::{delay_until_late, now, Delay, SimDuration, SimTime, TaskWaker};

/// The merge key of one stamped value: `(due, port)`. A lane files each
/// value after every value whose key is not above its own, so the values
/// one port sends due at one instant keep their send order: the merge is
/// `(due, port, seq)` with the per-port sequence held by the lane's order.
type Key = (u64, u32);

/// Where a lane's bound ports send their values: a call the dispatcher
/// makes at each value's due instant, in merge order, with the tag its
/// port was bound under. It must not send on a port of its own lane: the
/// lane is borrowed while it delivers.
pub(crate) type Sink<T> = Rc<dyn Fn(u32, T)>;

/// One bound port: the index of its lane's sink, and the tag it is called
/// with.
#[derive(Clone, Copy)]
pub(crate) struct Slot {
    sink: u32,
    tag: u32,
}

/// A slot no port is bound to.
const UNBOUND: Slot = Slot {
    sink: u32::MAX,
    tag: 0,
};

/// What a send tells the dispatcher: its waker, and the instant its timer
/// is armed for. Shared by the hub and every lane, so a lane's senders
/// reach the dispatcher without holding the hub.
#[derive(Default)]
pub(crate) struct Doorbell {
    waker: RefCell<Option<TaskWaker>>,
    /// The instant the dispatcher's timer is armed for, if one is.
    armed: Cell<Option<u64>>,
}

impl Doorbell {
    /// Called after a value due at `due` is queued: wakes the dispatcher
    /// if the value is due before the instant its timer is armed for (or
    /// no timer is armed), since only then does the head move and the
    /// timer need re-arming. A value due at or after that instant is found
    /// by the poll the armed timer brings. Before the dispatcher's first
    /// poll there is no waker to wake, which is fine: that poll drains
    /// everything queued.
    fn queued(&self, due: u64) {
        if self.armed.get().is_none_or(|at| due < at) {
            if let Some(w) = self.waker.borrow().as_ref() {
                w.wake();
            }
        }
    }
}

/// The queued values of every port of one latency and payload type, in
/// key order, and the sinks those ports are bound to.
pub(crate) struct TypedLane<T> {
    latency: SimDuration,
    bell: Rc<Doorbell>,
    queue: RefCell<VecDeque<(Key, T)>>,
    /// Every distinct sink a port of this lane is bound to.
    sinks: RefCell<Vec<Sink<T>>>,
    /// The slots of ports `base..base + slots.len()`, the span of the
    /// lane's own bound ports. A topology creates a lane's ports in a
    /// block, so the span holds no other lane's.
    base: Cell<u32>,
    slots: RefCell<Vec<Slot>>,
}

impl<T> TypedLane<T> {
    /// Stamps `value` due one latency from now and queues it, keeping the
    /// lane in key order. The lane's ports share one latency and the clock
    /// only moves forward, so a value is never due before the lane's tail:
    /// it is appended, unless values sent earlier in this same instant
    /// have a larger port id — then it is filed in among them.
    pub fn send(&self, port: u32, value: T) {
        let due = (pandora_sim::now() + self.latency).as_nanos();
        let key = (due, port);
        let mut queue = self.queue.borrow_mut();
        let at = queue
            .iter()
            .rposition(|(k, _)| *k <= key)
            .map_or(0, |i| i + 1);
        queue.insert(at, (key, value));
        drop(queue);
        self.bell.queued(due);
    }

    /// Binds one of the lane's ports to `sink`, called with `tag`.
    pub fn bind(&self, port: u32, sink: &Sink<T>, tag: u32) {
        let mut sinks = self.sinks.borrow_mut();
        if sinks.last().is_none_or(|last| !Rc::ptr_eq(last, sink)) {
            sinks.push(sink.clone());
        }
        let sink = u32::try_from(sinks.len() - 1).expect("sink index overflow");
        let mut slots = self.slots.borrow_mut();
        if slots.is_empty() {
            self.base.set(port);
        } else if port < self.base.get() {
            let below = (self.base.get() - port) as usize;
            slots.splice(0..0, std::iter::repeat_n(UNBOUND, below));
            self.base.set(port);
        }
        let i = (port - self.base.get()) as usize;
        if i >= slots.len() {
            slots.resize(i + 1, UNBOUND);
        }
        assert!(
            slots[i].sink == UNBOUND.sink,
            "ingress port {port} bound twice"
        );
        slots[i] = Slot { sink, tag };
    }
}

/// What the dispatcher needs of a lane, whatever its payload type.
trait Lane: Any {
    /// The key of the lane's first value, if it holds one.
    fn head(&self) -> Option<Key>;

    /// Delivers, in order, the lane's values due by `t` and keyed below
    /// `bound` (the least key of the other lanes' heads).
    fn deliver(&self, t: u64, bound: Option<Key>);
}

impl<T: 'static> Lane for TypedLane<T> {
    fn head(&self) -> Option<Key> {
        self.queue.borrow().front().map(|(key, _)| *key)
    }

    fn deliver(&self, t: u64, bound: Option<Key>) {
        let mut queue = self.queue.borrow_mut();
        let (sinks, slots) = (self.sinks.borrow(), self.slots.borrow());
        while let Some(((_, port), value)) =
            queue.pop_front_if(|(key, _)| key.0 <= t && bound.is_none_or(|b| *key < b))
        {
            let slot = port
                .checked_sub(self.base.get())
                .and_then(|i| slots.get(i as usize))
                .filter(|slot| slot.sink != UNBOUND.sink)
                .unwrap_or_else(|| panic!("ingress port {port} has no bound sink"));
            sinks[slot.sink as usize](slot.tag, value);
        }
    }
}

/// A lane under its key, `(latency in ns, payload type)`.
type KeyedLane = ((u64, TypeId), Rc<dyn Lane>);

/// The ingress hub: one lane per (latency, payload type), and a single
/// dispatcher task that delivers matured values across the lanes in
/// exactly `(due, port)` order, each port's in send order.
#[derive(Default)]
pub(crate) struct IngressHub {
    /// In the order setup first asked for each.
    lanes: RefCell<Vec<KeyedLane>>,
    bell: Rc<Doorbell>,
}

impl IngressHub {
    /// The lane of the ports with this `latency` and payload type,
    /// created on first use.
    pub fn lane<T: 'static>(&self, latency: SimDuration) -> Rc<TypedLane<T>> {
        let key = (latency.as_nanos(), TypeId::of::<T>());
        let mut lanes = self.lanes.borrow_mut();
        let lane: Rc<dyn Any> = match lanes.iter().find(|(k, _)| *k == key) {
            Some((_, lane)) => lane.clone(),
            None => {
                let lane = Rc::new(TypedLane::<T> {
                    latency,
                    bell: self.bell.clone(),
                    queue: RefCell::new(VecDeque::new()),
                    sinks: RefCell::new(Vec::new()),
                    base: Cell::new(0),
                    slots: RefCell::new(Vec::new()),
                });
                lanes.push((key, lane.clone()));
                lane
            }
        };
        lane.downcast().expect("keyed by payload type")
    }

    /// Delivers every value with `due <= now`, in `(due, port)`
    /// order — the lane holding the least head delivers up to the next
    /// lane's head, and again — and returns the next value's due time.
    fn deliver_matured(&self) -> Option<u64> {
        let t = now().as_nanos();
        let lanes = self.lanes.borrow();
        loop {
            let mut first: Option<(Key, &dyn Lane)> = None;
            let mut second: Option<Key> = None;
            for head in lanes.iter().filter_map(|(_, l)| Some((l.head()?, &**l))) {
                if first.is_none_or(|(least, _)| head.0 < least) {
                    second = first.map(|(least, _)| least);
                    first = Some(head);
                } else if second.is_none_or(|s| head.0 < s) {
                    second = Some(head.0);
                }
            }
            match first {
                Some((head, lane)) if head.0 <= t => lane.deliver(t, second),
                _ => return first.map(|((due, _), _)| due),
            }
        }
    }
}

/// The dispatcher task body: an endless future that delivers matured
/// values and sleeps on the executor's *late* timer lane until the next
/// due time, which it posts in the doorbell's `armed` so that a send can tell
/// whether it moves the head. Spurious wakes (abandoned timers) deliver
/// nothing and are inert — they never perturb the ordering of ordinary
/// timers, because the late lane sorts after every normal timer at the
/// same instant.
pub(crate) struct Dispatcher {
    hub: Rc<IngressHub>,
    /// The timer for the instant in the doorbell's `armed`.
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
        let bell = this.hub.bell.clone();
        bell.waker
            .borrow_mut()
            .get_or_insert_with(pandora_sim::waker);
        loop {
            let head = this.hub.deliver_matured();
            // (Re)arm only when the head changed; an abandoned timer
            // just fires a harmless spurious wake later.
            if bell.armed.get() != head {
                bell.armed.set(head);
                this.sleep = head.map(|due| delay_until_late(SimTime::from_nanos(due)));
            }
            let Some(delay) = this.sleep.as_mut() else {
                return Poll::Pending;
            };
            if Pin::new(delay).poll(cx).is_pending() {
                return Poll::Pending;
            }
            bell.armed.set(None);
            this.sleep = None;
        }
    }
}
