//! The overlay's ports: three latency-stamped lanes — tree edges, grafts
//! and hellos — and the one dispatcher task that merges their heads.
//!
//! A send has no task behind it: it stamps its value `(due, port)` from
//! inside whichever task calls it and files it in its lane, the way an
//! Inmos link engine moves bytes without costing the box a process
//! (§3.1). The dispatcher (`ovl:dispatch`) delivers every value at its
//! due instant on the executor's *late* timer lane, in exactly `(due,
//! port)` order, each port's values in send order. The overlay numbers
//! its ports in one order (see `Ports` in `broadcast`), so what a viewer
//! or the hub hears is a pure function of the stamps, never of which
//! lane a scan happened to visit first.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::Poll;

use pandora_sim::{delay_until_late, now, Delay, SimDuration, SimTime, TaskWaker};

use crate::broadcast::{Hello, Msg};

/// The merge key of one stamped value: `(due, port)`. A lane files each
/// value after every value whose key is not above its own, so the values
/// one port sends due at one instant keep their send order: the merge is
/// `(due, port, seq)` with the per-port sequence held by the lane's order.
type Key = (u64, u32);

/// A port of the edge or the graft lane: its id, the second key of the
/// merge, and the tag its messages are delivered under.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Port {
    pub id: u32,
    pub tag: u32,
}

/// What a send tells the dispatcher: its waker, and the instant its timer
/// is armed for.
#[derive(Default)]
struct Doorbell {
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

/// The queued values of every port of one latency, in key order.
struct Lane<T> {
    latency: SimDuration,
    queue: RefCell<VecDeque<(Key, T)>>,
}

impl<T> Lane<T> {
    fn new(latency: SimDuration) -> Lane<T> {
        Lane {
            latency,
            queue: RefCell::new(VecDeque::new()),
        }
    }

    /// Stamps `value` due one latency from now, files it in key order and
    /// returns its due instant. The lane's ports share one latency and the
    /// clock only moves forward, so a value is never due before the lane's
    /// tail: it is appended, unless values sent earlier in this same
    /// instant have a larger port id — then it is filed in among them.
    fn push(&self, port: u32, value: T) -> u64 {
        let due = (now() + self.latency).as_nanos();
        let key = (due, port);
        let mut queue = self.queue.borrow_mut();
        let at = queue
            .iter()
            .rposition(|(k, _)| *k <= key)
            .map_or(0, |i| i + 1);
        queue.insert(at, (key, value));
        due
    }

    /// The key of the lane's first value, if it holds one.
    fn head(&self) -> Option<Key> {
        self.queue.borrow().front().map(|(key, _)| *key)
    }

    /// Hands `sink`, in order, the lane's values due by `t` and keyed
    /// below `bound` (the least key of the other lanes' heads).
    fn deliver(&self, t: u64, bound: Option<Key>, mut sink: impl FnMut(T)) {
        let mut queue = self.queue.borrow_mut();
        while let Some((_, value)) =
            queue.pop_front_if(|(key, _)| key.0 <= t && bound.is_none_or(|b| *key < b))
        {
            sink(value);
        }
    }
}

/// The overlay's three lanes, and the doorbell their sends ring.
pub(crate) struct Lanes {
    /// Slices down the primary and backup tree edges, one hop latency
    /// out, each under its port's tag.
    edges: Lane<(u32, Msg)>,
    /// The hub's graft orders, one control latency out, each under its
    /// port's tag.
    grafts: Lane<(u32, Msg)>,
    /// Every viewer's heartbeat to the hub, one control latency out: a
    /// `Hello` names its own member, so it needs no tag.
    hellos: Lane<Hello>,
    bell: Doorbell,
}

impl Lanes {
    /// Empty lanes: tree edges `hop` long, grafts and hellos `ctl`.
    pub fn new(hop: SimDuration, ctl: SimDuration) -> Lanes {
        Lanes {
            edges: Lane::new(hop),
            grafts: Lane::new(ctl),
            hellos: Lane::new(ctl),
            bell: Doorbell::default(),
        }
    }

    /// Sends `msg` down a tree edge. Never blocks and never fails.
    ///
    /// # Panics
    ///
    /// Panics outside a running task, with [`pandora_sim::now`]'s message
    /// ("not inside a simulation…"): the stamp is the sending task's
    /// virtual instant. So do [`Lanes::graft`] and [`Lanes::hello`].
    pub fn edge(&self, port: Port, msg: Msg) {
        let due = self.edges.push(port.id, (port.tag, msg));
        self.bell.queued(due);
    }

    /// Sends a graft order down a control port.
    pub fn graft(&self, port: Port, msg: Msg) {
        let due = self.grafts.push(port.id, (port.tag, msg));
        self.bell.queued(due);
    }

    /// Sends `hello` to the hub on report port `port`.
    pub fn hello(&self, port: u32, hello: Hello) {
        let due = self.hellos.push(port, hello);
        self.bell.queued(due);
    }

    /// Delivers every value with `due <= now`, in `(due, port)` order —
    /// the lane holding the least head delivers up to the next lane's
    /// head, and again — and returns the next value's due time.
    fn deliver_matured(&self, tagged: &impl Fn(u32, Msg), hello: &impl Fn(Hello)) -> Option<u64> {
        let t = now().as_nanos();
        loop {
            let heads = [self.edges.head(), self.grafts.head(), self.hellos.head()];
            let (lane, head) = (0..3)
                .filter_map(|i| Some((i, heads[i]?)))
                .min_by_key(|h| h.1)?;
            if head.0 > t {
                return Some(head.0);
            }
            let bound = (0..3).filter(|&i| i != lane).filter_map(|i| heads[i]).min();
            match lane {
                0 => self.edges.deliver(t, bound, |(tag, msg)| tagged(tag, msg)),
                1 => self.grafts.deliver(t, bound, |(tag, msg)| tagged(tag, msg)),
                _ => self.hellos.deliver(t, bound, hello),
            }
        }
    }
}

/// The dispatcher task body: an endless future that hands each matured
/// edge or graft message and its port's tag to `tagged`, and each hello to
/// `hello`, then sleeps on the executor's *late* timer lane until the next
/// due time, which it posts in the doorbell's `armed` so that a send can
/// tell whether it moves the head. Neither sink may send on a lane: the
/// lane is borrowed while it delivers. Spurious wakes (abandoned timers)
/// deliver nothing and are inert — they never perturb the ordering of
/// ordinary timers, because the late lane sorts after every normal timer
/// at the same instant. Spawn exactly one per [`Lanes`], first, at high
/// priority.
pub(crate) fn dispatcher(
    lanes: Rc<Lanes>,
    tagged: impl Fn(u32, Msg),
    hello: impl Fn(Hello),
) -> impl Future<Output = ()> {
    // The timer for the instant in the doorbell's `armed`.
    let mut sleep: Option<Delay> = None;
    poll_fn(move |cx| {
        let bell = &lanes.bell;
        bell.waker
            .borrow_mut()
            .get_or_insert_with(pandora_sim::waker);
        loop {
            let head = lanes.deliver_matured(&tagged, &hello);
            // (Re)arm only when the head changed; an abandoned timer
            // just fires a harmless spurious wake later.
            if bell.armed.get() != head {
                bell.armed.set(head);
                sleep = head.map(|due| delay_until_late(SimTime::from_nanos(due)));
            }
            let Some(delay) = sleep.as_mut() else {
                return Poll::Pending;
            };
            if Pin::new(delay).poll(cx).is_pending() {
                return Poll::Pending;
            }
            bell.armed.set(None);
            sleep = None;
        }
    })
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::future::Future;
    use std::rc::Rc;

    use pandora_prop::{check, Rng, Tape};
    use pandora_sim::{delay, delay_until, now, Priority, SimDuration, SimTime, Simulation};

    use super::{dispatcher, Lanes, Port};
    use crate::broadcast::{Hello, Msg};
    use crate::stripe::MAX_TREES;

    /// The test's ports: port `i` has id and tag `i` and rides lane
    /// `on[i]` — 0 the edges, 1 the grafts, 2 the hellos.
    struct Sends {
        lanes: Rc<Lanes>,
        on: Vec<usize>,
    }

    impl Sends {
        /// Sends `value` on port `port`.
        fn send(&self, port: usize, value: u32) {
            let id = port as u32;
            let msg = Msg::Graft {
                tree: 0,
                orphan: 0,
                resume_from: value,
            };
            match self.on[port] {
                0 => self.lanes.edge(Port { id, tag: id }, msg),
                1 => self.lanes.graft(Port { id, tag: id }, msg),
                _ => self.lanes.hello(
                    id,
                    Hello {
                        node: id,
                        next: [value; MAX_TREES],
                    },
                ),
            }
        }
    }

    /// Ports on the lanes `on` (see [`Sends`]), the edge lane `hop` µs
    /// long and the other two `ctl` µs, their sinks logging `t=<ns>
    /// <port letter><value>`; `script` drives the senders from a task of
    /// its own. Returns the log at `deadline` and the run's task polls.
    ///
    /// The script runs at high priority and sleeps on ordinary timers, so
    /// in an instant where it and the dispatcher both wake it acts first:
    /// every send of an instant is queued before that instant's
    /// deliveries, a zero-latency one included.
    fn rig<Fut: Future<Output = ()> + 'static>(
        on: &[usize],
        [hop, ctl]: [u64; 2],
        deadline: SimTime,
        script: impl FnOnce(Sends) -> Fut,
    ) -> (Vec<String>, u64) {
        let lanes = Rc::new(Lanes::new(
            SimDuration::from_micros(hop),
            SimDuration::from_micros(ctl),
        ));
        let seen = Rc::new(RefCell::new(Vec::new()));
        let log = |seen: &Rc<RefCell<Vec<String>>>| {
            let seen = seen.clone();
            move |port: u32, value: u32| {
                let letter = char::from(b'a' + port as u8);
                let t = now().as_nanos();
                seen.borrow_mut().push(format!("t={t} {letter}{value}"));
            }
        };
        let (tagged, hello) = (log(&seen), log(&seen));
        let mut sim = Simulation::new();
        sim.spawn_prio(
            "ovl:dispatch",
            Priority::High,
            dispatcher(
                lanes.clone(),
                move |tag, msg| {
                    if let Msg::Graft { resume_from, .. } = msg {
                        tagged(tag, resume_from);
                    }
                },
                move |h| hello(h.node, h.next[0]),
            ),
        );
        let on = on.to_vec();
        sim.spawn_prio("src", Priority::High, script(Sends { lanes, on }));
        sim.run_until(deadline);
        let lines = seen.borrow().clone();
        (lines, sim.context_switches())
    }

    #[test]
    fn loopback_send_due_after_the_armed_head_does_not_poll_the_dispatcher() {
        const SENDS: u64 = 100;
        // Stops before anything falls due, so every poll counted is one
        // of: the dispatcher's first poll and the one the head's send
        // brings (it arms for 10 ms), and the script's first poll plus
        // one per delay. None of the later sends — all due after the
        // armed instant — costs the dispatcher a poll.
        let (_, polls) = rig(
            &[0, 1],
            [10_000, 20_000],
            SimTime::from_millis(1),
            |tx| async move {
                tx.send(0, 0);
                for i in 0..SENDS {
                    delay(SimDuration::from_micros(1)).await;
                    tx.send(1, i as u32);
                }
            },
        );
        assert_eq!(polls, 2 + 1 + SENDS);
    }

    #[test]
    fn loopback_send_due_before_the_armed_head_rearms_and_arrives_at_its_own_instant() {
        let (lines, _) = rig(
            &[1, 0],
            [1_000, 5_000],
            SimTime::from_millis(10),
            |tx| async move {
                tx.send(0, 0); // due 5 ms: the dispatcher arms for it
                delay(SimDuration::from_millis(1)).await;
                tx.send(1, 0); // due 2 ms: the head moves
            },
        );
        assert_eq!(lines, ["t=2000000 b0", "t=5000000 a0"]);
    }

    #[test]
    fn zero_latency_loopback_is_delivered_in_the_instant_it_was_sent() {
        let (lines, _) = rig(
            &[0, 2],
            [0, 5_000],
            SimTime::from_millis(10),
            |tx| async move {
                tx.send(0, 0); // nothing armed
                delay(SimDuration::from_millis(1)).await;
                tx.send(1, 0); // due 6 ms
                delay(SimDuration::from_millis(2)).await;
                tx.send(0, 3); // armed for 6 ms, due now
            },
        );
        assert_eq!(lines, ["t=0 a0", "t=3000000 a3", "t=6000000 b0"]);
    }

    /// Two ports on two lanes. The sender deliberately uses the later
    /// port first, and the two latencies differ so that values sent at
    /// different instants fall due together.
    #[test]
    fn merged_receiver_orders_by_due_then_port_then_send_order() {
        let (lines, _) = rig(
            &[0, 2],
            [300, 100],
            SimTime::from_millis(2),
            |tx| async move {
                tx.send(1, 0); // due 100 µs
                tx.send(0, 0); // due 300 µs
                delay(SimDuration::from_micros(200)).await;
                tx.send(1, 1); // due 300 µs, with a0
                tx.send(1, 2);
                tx.send(0, 1); // due 500 µs
            },
        );
        assert_eq!(
            lines,
            [
                "t=100000 b0",
                // Equal due times: port order (a before b), then each
                // port's own send order.
                "t=300000 a0",
                "t=300000 b1",
                "t=300000 b2",
                "t=500000 a1",
            ]
        );
    }

    /// Ports of one lane: sends made in one instant to them out of port
    /// order still arrive in port order, each port's in send order.
    #[test]
    fn same_latency_sends_in_one_instant_arrive_in_port_order() {
        let (lines, _) = rig(
            &[0, 0, 0],
            [100, 100],
            SimTime::from_millis(1),
            |tx| async move {
                tx.send(2, 0);
                tx.send(0, 0);
                tx.send(1, 0);
                tx.send(0, 1);
            },
        );
        assert_eq!(
            lines,
            ["t=100000 a0", "t=100000 a1", "t=100000 b0", "t=100000 c0"]
        );
    }

    /// Seeded schedules over six ports spread across the three lanes, the
    /// two latencies sometimes equal: what arrives is the stable sort of
    /// the sends by `(due, port, seq)`, each value at its due instant.
    #[test]
    fn generated_schedules_deliver_in_merge_key_order() {
        const PORTS: usize = 6;
        const SENDS: usize = 300;
        const LATENCIES_US: [u64; 4] = [0, 100, 300, 500];
        let case = |t: &mut Tape| {
            let latencies = [(); 2].map(|_| LATENCIES_US[t.gen_range(0..4usize)]);
            let on: Vec<usize> = (0..PORTS).map(|_| t.gen_range(0..3usize)).collect();
            // (send instant µs, port): a third of the sends share the
            // previous send's instant.
            let mut at = 0;
            let schedule: Vec<(u64, usize)> = (0..SENDS)
                .map(|_| {
                    if t.gen_range(0..3u32) != 0 {
                        at += 1 + t.gen_range(0..400u64);
                    }
                    (at, t.gen_range(0..PORTS))
                })
                .collect();
            (latencies, on, schedule)
        };
        check(
            "merge_key_order",
            1,
            64,
            case,
            |(latencies, on, schedule)| {
                let latency = |port: usize| latencies[usize::from(on[port] != 0)];
                let mut keyed: Vec<((u64, usize, usize), usize)> = Vec::with_capacity(SENDS);
                let mut seqs = [0usize; PORTS];
                for (i, &(at, port)) in schedule.iter().enumerate() {
                    keyed.push(((at + latency(port), port, seqs[port]), i));
                    seqs[port] += 1;
                }
                keyed.sort_by_key(|&(key, _)| key);
                let expected: Vec<String> = keyed
                    .iter()
                    .map(|&((due, port, _), i)| {
                        let letter = char::from(b'a' + port as u8);
                        format!("t={} {letter}{i}", due * 1_000)
                    })
                    .collect();

                let last = schedule.last().map_or(0, |&(at, _)| at);
                let deadline = SimTime::from_micros(last + 1_000);
                let schedule = schedule.clone();
                let (lines, _) = rig(on, *latencies, deadline, move |tx| async move {
                    for (i, (at, port)) in schedule.into_iter().enumerate() {
                        let when = SimTime::from_micros(at);
                        if when > now() {
                            delay_until(when).await;
                        }
                        tx.send(port, i as u32);
                    }
                });
                assert_eq!(lines, expected);
            },
        );
    }

    #[test]
    #[should_panic(expected = "not inside a simulation")]
    fn a_send_outside_a_task_panics() {
        // Before the clock exists there is no instant to stamp.
        let lanes = Lanes::new(SimDuration::ZERO, SimDuration::ZERO);
        let hello = Hello {
            node: 1,
            next: [0; MAX_TREES],
        };
        lanes.hello(0, hello);
    }
}
