//! Cluster construction: ports, setup closures and the environment handed
//! to them.

use std::marker::PhantomData;
use std::rc::Rc;

use pandora_sim::{unbounded, Receiver, SimDuration, Spawner};

use crate::hub::{IngressHub, Sink, TypedLane};
use crate::Render;

/// A typed, one-way, latency-stamped port: the egress half.
pub struct Egress<T> {
    pub(crate) port: u32,
    pub(crate) latency: SimDuration,
    pub(crate) _payload: PhantomData<fn(T)>,
}

/// The ingress half of a port.
pub struct Ingress<T> {
    pub(crate) port: u32,
    pub(crate) latency: SimDuration,
    pub(crate) _payload: PhantomData<fn() -> T>,
}

/// The sending end of an opened port ([`ShardEnv::open_egress`]).
pub struct PortSender<T> {
    port: u32,
    lane: Rc<TypedLane<T>>,
}

impl<T: 'static> PortSender<T> {
    /// Sends `value` down the port: stamps it `(now + latency, port)` and
    /// queues it on the port's lane of the ingress hub, after the values
    /// this port sent before. Never blocks and never fails; a port whose
    /// ingress receiver was dropped discards on delivery.
    ///
    /// # Panics
    ///
    /// Panics outside a running task, with [`pandora_sim::now`]'s
    /// message ("not inside a simulation…"): the stamp is the sending
    /// task's virtual instant, so there is nothing to stamp a value
    /// with during setup.
    pub fn send(&self, value: T) {
        self.lane.send(self.port, value);
    }
}

/// The sending ends of same-typed ports of one latency, opened as one
/// table ([`ShardEnv::open_egress_table`]): one lane handle, and a port id
/// a slot (`u32::MAX` in a slot that holds none).
pub struct PortTable<T> {
    ports: Vec<u32>,
    lane: Option<Rc<TypedLane<T>>>,
}

impl<T: 'static> PortTable<T> {
    /// Sends `value` down the port in `slot`, as [`PortSender::send`]
    /// does; panics if the slot holds no port.
    pub fn send(&self, slot: usize, value: T) {
        match (self.ports[slot], &self.lane) {
            (port, Some(lane)) if port != u32::MAX => lane.send(port, value),
            _ => panic!("port table slot {slot} holds no port"),
        }
    }
}

pub(crate) type SetupFn = Box<dyn FnOnce(&mut ShardEnv)>;
type FinishFn = Box<dyn FnOnce() -> Box<dyn Render + Send>>;

/// A simulation under construction: its ports and the setup closures
/// that will build its topology on the event loop.
pub struct Cluster {
    shards: usize,
    ports: usize,
    pub(crate) setups: Vec<SetupFn>,
}

impl Cluster {
    /// An empty cluster. `shards` is range-checked and has no other
    /// effect: the fenced benchmark harness still passes 1 and 2, and
    /// ROADMAP item 4 deletes the argument with `_sh2` and the `shard.*`
    /// rows.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Cluster {
        assert!(shards > 0, "a cluster needs at least one shard");
        Cluster {
            shards,
            ports: 0,
            setups: Vec::new(),
        }
    }

    /// Creates a one-way port with the given link `latency`. Port ids
    /// are assigned in creation order, and they are the second key of
    /// the ingress merge: values due at one instant arrive in port
    /// creation order.
    pub fn port<T: 'static>(&mut self, latency: SimDuration) -> (Egress<T>, Ingress<T>) {
        let port = u32::try_from(self.ports).expect("port id overflow");
        self.ports += 1;
        (
            Egress {
                port,
                latency,
                _payload: PhantomData,
            },
            Ingress {
                port,
                latency,
                _payload: PhantomData,
            },
        )
    }

    /// Registers a setup closure to run on the event loop before the
    /// clock starts; closures run in registration order. `shard` is
    /// range-checked against [`Cluster::new`]'s and has no other effect
    /// (ROADMAP item 4 deletes it).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn setup(&mut self, shard: usize, f: impl FnOnce(&mut ShardEnv) + 'static) {
        assert!(shard < self.shards, "setup shard {shard} out of range");
        self.setups.push(Box::new(f));
    }
}

/// The cluster's face inside setup closures: spawn tasks, open and bind
/// port halves, register end-of-run reporters.
pub struct ShardEnv {
    pub(crate) spawner: Spawner,
    pub(crate) hub: Rc<IngressHub>,
    pub(crate) finishers: Vec<FinishFn>,
}

impl ShardEnv {
    /// Spawner onto the event loop.
    pub fn spawner(&self) -> &Spawner {
        &self.spawner
    }

    /// Opens the egress half of a port. No task stands behind the
    /// returned [`PortSender`]: its `send` stamps and queues the value
    /// from whichever task calls it, the way an Inmos link engine moves
    /// bytes without costing the box a process (§3.1).
    pub fn open_egress<T: 'static>(&self, egress: Egress<T>) -> PortSender<T> {
        PortSender {
            port: egress.port,
            lane: self.hub.lane(egress.latency),
        }
    }

    /// Opens egress halves as one [`PortTable`], slot `i` holding the
    /// `i`-th or, where it is `None`, no port: four bytes a slot and one
    /// lane handle. Panics if two of the ports differ in latency.
    pub fn open_egress_table<T: 'static>(
        &self,
        slots: impl IntoIterator<Item = Option<Egress<T>>>,
    ) -> PortTable<T> {
        let mut latency = None;
        let ports = slots.into_iter().map(|slot| {
            slot.map_or(u32::MAX, |eg| {
                let same = *latency.get_or_insert(eg.latency) == eg.latency;
                assert!(same, "a port table's ports share one latency");
                eg.port
            })
        });
        let ports = ports.collect();
        let lane = latency.map(|l| self.hub.lane(l));
        PortTable { ports, lane }
    }

    /// Binds the ingress halves of any number of same-typed ports to
    /// **one** call, each port under a `tag` of its own: the dispatcher
    /// hands `sink` each value and its port's tag at the value's due
    /// instant, in `(due, port)` merge order, from inside its own poll. No
    /// channel and no task stand behind a port: whatever `sink` does with
    /// the value — file it for a task that serves many ports, say — is the
    /// whole of the delivery, and the tag tells it which port the value
    /// came in on, with no closure per port: a bound port costs its lane
    /// eight bytes. `sink` must not send on a port of the same latency and
    /// payload type.
    ///
    /// # Panics
    ///
    /// Panics if a port's ingress was already bound.
    pub fn bind_ingress_tagged<T: 'static>(
        &self,
        ingresses: impl IntoIterator<Item = (Ingress<T>, u32)>,
        sink: impl Fn(u32, T) + 'static,
    ) {
        let sink: Sink<T> = Rc::new(sink);
        for (Ingress { port, latency, .. }, tag) in ingresses {
            self.hub.lane(latency).bind(port, &sink, tag);
        }
    }

    /// Binds the ingress halves of any number of same-typed ports to
    /// **one** receiver: each port's sink is a call that pushes into the
    /// receiver's unbounded channel. Values due at the same instant arrive
    /// in port-creation order, then per-port send order. For a fan-in whose
    /// messages name their own origin (the overlay hub's heartbeats) this
    /// replaces a PRI ALT over one receiver per port, whose cost grows
    /// with the port count.
    ///
    /// # Panics
    ///
    /// Panics if a port's ingress was already bound.
    pub fn bind_ingress_merged<T: 'static>(
        &self,
        ingresses: impl IntoIterator<Item = Ingress<T>>,
    ) -> Receiver<T> {
        let (tx, rx) = unbounded::<T>();
        // Delivery into an unbounded queue never blocks; a dropped receiver
        // just discards the rest of the stream.
        self.bind_ingress_tagged(ingresses.into_iter().map(|i| (i, 0)), move |_, value| {
            let _ = tx.try_send(value);
        });
        rx
    }

    /// Registers a closure that reads, at the deadline, what it reports
    /// into a [`Render`] value; its lines land in
    /// [`crate::RunReport::merged_lines`], in registration order. The value
    /// is `Send`, so it cannot hold the run's `Rc` tables past the run.
    pub fn on_finish<R: Render + Send + 'static>(&mut self, f: impl FnOnce() -> R + 'static) {
        self.finishers.push(Box::new(|| Box::new(f())));
    }
}
