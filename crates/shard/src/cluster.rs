//! Cluster construction: shard-count-independent ports, per-shard setup
//! closures and the in-shard environment handed to them.

use std::any::Any;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use pandora_sim::{unbounded, Receiver, SimDuration, Spawner};

use crate::exchange::{Exchange, RawEntry};
use crate::hub::IngressHub;

/// A typed, one-way, latency-stamped link crossing (or looping within)
/// a shard: the egress half, opened in the sending shard.
pub struct Egress<T> {
    pub(crate) port: u32,
    pub(crate) from: usize,
    pub(crate) to: usize,
    pub(crate) latency: SimDuration,
    pub(crate) exchange: Arc<Exchange>,
    pub(crate) _payload: PhantomData<fn(T)>,
}

/// The ingress half of a port, bound in the receiving shard.
pub struct Ingress<T> {
    pub(crate) port: u32,
    pub(crate) to: usize,
    pub(crate) _payload: PhantomData<fn() -> T>,
}

/// The sending end of an opened port ([`ShardEnv::open_egress`]). It is
/// `!Send`: it lives and dies on the shard that opened it.
pub struct PortSender<T> {
    port: u32,
    latency: SimDuration,
    route: Route,
    seq: Cell<u64>,
    _payload: PhantomData<fn(T)>,
}

/// Where a port's entries go: straight into this shard's own ingress
/// heap, or into the receiving shard's cross-thread mailbox.
enum Route {
    Loopback(Rc<IngressHub>),
    Cross(Arc<Exchange>),
}

impl<T: Send + 'static> PortSender<T> {
    /// Sends `value` down the port: stamps it `(now + latency, port,
    /// seq)` and hands it to the receiving shard's ingress heap —
    /// directly for a loopback port, through the cross-thread exchange
    /// otherwise. Never blocks and never fails; a port whose ingress
    /// receiver was dropped discards on delivery.
    ///
    /// # Panics
    ///
    /// Panics outside a running task, with [`pandora_sim::now`]'s
    /// message ("not inside a simulation…"): the stamp is the sending
    /// task's virtual instant, so there is nothing to stamp a value
    /// with during setup.
    pub fn send(&self, value: T) {
        let due = (pandora_sim::now() + self.latency).as_nanos();
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let entry = RawEntry {
            due,
            port: self.port,
            seq,
            payload: Box::new(value),
        };
        match &self.route {
            Route::Loopback(hub) => hub.push(entry),
            Route::Cross(exchange) => exchange.push(entry),
        }
    }
}

pub(crate) type SetupFn = Box<dyn FnOnce(&mut ShardEnv) + Send>;

/// A shared, cross-shard key/value scratchpad for *plain setup data*
/// (stream ids, output ids) that one shard allocates and another needs.
/// All writes happen during setup, all reads from inside the simulation
/// (t >= 0), and the runtime barriers setup completion before any shard
/// runs — so reads always see the complete, deterministic map.
#[derive(Clone, Default)]
pub struct Blackboard {
    map: Arc<Mutex<BTreeMap<String, Box<dyn Any + Send>>>>,
}

impl Blackboard {
    /// Stores `value` under `key`, replacing any previous value.
    pub fn put<T: Any + Send>(&self, key: &str, value: T) {
        self.map
            .lock()
            .expect("blackboard mutex poisoned")
            .insert(key.to_string(), Box::new(value));
    }

    /// Reads a copy of the value under `key`, if present and of type `T`.
    pub fn get<T: Any + Clone>(&self, key: &str) -> Option<T> {
        self.map
            .lock()
            .expect("blackboard mutex poisoned")
            .get(key)
            .and_then(|v| v.downcast_ref::<T>())
            .cloned()
    }

    /// Reads the value under `key`, panicking with a diagnostic when it
    /// is missing or of the wrong type — setup bugs, not runtime states.
    pub fn expect<T: Any + Clone>(&self, key: &str) -> T {
        self.get(key)
            .unwrap_or_else(|| panic!("blackboard key {key:?} missing or wrong type"))
    }
}

/// A partitioned simulation under construction: `n` shards, the ports
/// between them, and the setup closures that will build each shard's
/// slice of the topology on its own event loop.
pub struct Cluster {
    pub(crate) n: usize,
    pub(crate) ports: Vec<PortMeta>,
    pub(crate) setups: Vec<Vec<SetupFn>>,
    pub(crate) exchanges: Vec<Arc<Exchange>>,
    pub(crate) blackboard: Blackboard,
}

pub(crate) struct PortMeta {
    pub from: usize,
    pub to: usize,
    pub latency: SimDuration,
}

impl Cluster {
    /// An empty cluster of `n_shards` event loops.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero.
    pub fn new(n_shards: usize) -> Cluster {
        assert!(n_shards > 0, "a cluster needs at least one shard");
        Cluster {
            n: n_shards,
            ports: Vec::new(),
            setups: (0..n_shards).map(|_| Vec::new()).collect(),
            exchanges: (0..n_shards)
                .map(|_| Arc::new(Exchange::default()))
                .collect(),
            blackboard: Blackboard::default(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.n
    }

    /// The cross-shard setup scratchpad.
    pub fn blackboard(&self) -> Blackboard {
        self.blackboard.clone()
    }

    /// Creates a one-way port from shard `from` to shard `to` with the
    /// given link `latency`. Port ids are assigned in creation order —
    /// topology builders must call this in an order independent of the
    /// shard count, so the deterministic merge keys line up across
    /// partitionings.
    ///
    /// # Panics
    ///
    /// Panics if a shard index is out of range, or on a **zero-latency
    /// cross-shard port**: the latency is the conservative-lookahead
    /// window, and a zero window would let the shards deadlock each
    /// other (loopback ports may be zero-latency — there is no seam to
    /// look ahead across).
    pub fn port<T: Send + 'static>(
        &mut self,
        from: usize,
        to: usize,
        latency: SimDuration,
        name: &str,
    ) -> (Egress<T>, Ingress<T>) {
        assert!(from < self.n, "port {name}: from-shard {from} out of range");
        assert!(to < self.n, "port {name}: to-shard {to} out of range");
        assert!(
            latency > SimDuration::ZERO || from == to,
            "port {name}: zero-latency cross-shard link rejected — the \
             latency is the lookahead window and must be positive"
        );
        let port = u32::try_from(self.ports.len()).expect("port id overflow");
        self.ports.push(PortMeta { from, to, latency });
        (
            Egress {
                port,
                from,
                to,
                latency,
                exchange: self.exchanges[to].clone(),
                _payload: PhantomData,
            },
            Ingress {
                port,
                to,
                _payload: PhantomData,
            },
        )
    }

    /// Registers a setup closure to run on shard `shard`'s own event
    /// loop before the clock starts. Closures run in registration order;
    /// all shards finish setup before any shard runs.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn setup(&mut self, shard: usize, f: impl FnOnce(&mut ShardEnv) + Send + 'static) {
        assert!(shard < self.n, "setup shard {shard} out of range");
        self.setups[shard].push(Box::new(f));
    }
}

/// The shard that owns member `i` of `members` when a topology is placed
/// by contiguous index ranges: member 0 on shard 0, and monotonic in `i`,
/// so reports merged in shard order come out in member order at every
/// shard count.
pub fn shard_of(i: usize, members: usize, shards: usize) -> usize {
    debug_assert!(i < members);
    i * shards / members
}

/// The in-shard face of the cluster, handed to setup closures: spawn
/// tasks, open and bind port halves, read the blackboard, register
/// end-of-run reporters.
pub struct ShardEnv {
    pub(crate) shard: usize,
    pub(crate) spawner: Spawner,
    pub(crate) hub: Rc<IngressHub>,
    pub(crate) blackboard: Blackboard,
    #[allow(clippy::type_complexity)]
    pub(crate) finishers: Vec<Box<dyn FnOnce() -> Vec<String>>>,
}

impl ShardEnv {
    /// This shard's index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Spawner onto this shard's event loop.
    pub fn spawner(&self) -> &Spawner {
        &self.spawner
    }

    /// The cross-shard setup scratchpad.
    pub fn blackboard(&self) -> &Blackboard {
        &self.blackboard
    }

    /// Opens the egress half of a port. No task stands behind the
    /// returned [`PortSender`]: its `send` stamps and queues the value
    /// from whichever task calls it, the way an Inmos link engine moves
    /// bytes without costing the box a process (§3.1).
    ///
    /// # Panics
    ///
    /// Panics if the port's from-shard is not this shard.
    pub fn open_egress<T: Send + 'static>(&self, egress: Egress<T>) -> PortSender<T> {
        assert!(
            egress.from == self.shard,
            "egress of port {} belongs to shard {}, bound in shard {}",
            egress.port,
            egress.from,
            self.shard
        );
        PortSender {
            port: egress.port,
            latency: egress.latency,
            route: if egress.from == egress.to {
                Route::Loopback(self.hub.clone())
            } else {
                Route::Cross(egress.exchange)
            },
            seq: Cell::new(0),
            _payload: PhantomData,
        }
    }

    /// Binds the ingress half of a port, returning the receiver on which
    /// this shard's topology consumes the port's traffic. Values arrive
    /// exactly at their stamped due times, in deterministic merge order.
    ///
    /// # Panics
    ///
    /// Panics if the port's to-shard is not this shard, or if the port's
    /// ingress was already bound.
    pub fn bind_ingress<T: Send + 'static>(&self, ingress: Ingress<T>) -> Receiver<T> {
        self.bind_ingress_merged([ingress])
    }

    /// Binds the ingress halves of any number of same-typed ports to
    /// **one** receiver. The dispatcher feeds it in its `(due, port,
    /// seq)` merge order, so values due at the same instant arrive in
    /// port-creation order, then per-port send order — at every shard
    /// count. For a fan-in whose messages name their own origin (the
    /// overlay hub's heartbeats) this replaces a PRI ALT over one
    /// receiver per port, whose cost grows with the port count.
    ///
    /// # Panics
    ///
    /// Panics if a port's to-shard is not this shard, or if a port's
    /// ingress was already bound.
    pub fn bind_ingress_merged<T: Send + 'static>(
        &self,
        ingresses: impl IntoIterator<Item = Ingress<T>>,
    ) -> Receiver<T> {
        let (tx, rx) = unbounded::<T>();
        for ingress in ingresses {
            assert!(
                ingress.to == self.shard,
                "ingress of port {} belongs to shard {}, bound in shard {}",
                ingress.port,
                ingress.to,
                self.shard
            );
            let tx = tx.clone();
            self.hub.register_sink(
                ingress.port,
                Box::new(move |payload| {
                    let value = payload.downcast::<T>().expect("port payload type mismatch");
                    // Delivery into an unbounded queue never blocks; a
                    // dropped receiver just discards the rest of the stream.
                    let _ = tx.try_send(*value);
                }),
            );
        }
        rx
    }

    /// Registers a closure to run on this shard after the run completes;
    /// the returned lines land in [`crate::RunReport::shard_lines`], in
    /// shard order then registration order.
    pub fn on_finish(&mut self, f: impl FnOnce() -> Vec<String> + 'static) {
        self.finishers.push(Box::new(f));
    }
}
