//! The overlay's ports: three latency-stamped lanes — tree edges, grafts
//! and hellos — and the one dispatcher task that merges their heads.
//!
//! A send has no task behind it: it stamps its value with its due instant
//! from inside whichever task calls it and appends it to its lane, the way
//! an Inmos link engine moves bytes without costing the box a process
//! (§3.1). A lane has one latency and the clock only moves forward, so a
//! lane's due order is its send order, the order a link or an Occam
//! channel keeps. The dispatcher (`ovl:dispatch`)
//! delivers every value at its due instant, the least `(due, lane)` head
//! first: edges, then grafts, then hellos.
//!
//! Why send order is enough, with no port numbers to re-sort an instant:
//! - a port is one (viewer, guard), the tag a value is delivered under,
//!   and its values keep their send order;
//! - the dispatcher runs at high priority, so all of an instant's
//!   deliveries land before the low-priority `ovl:relay` drains any;
//! - a viewer's inbox is taken by guard (`Inboxes::take`), not by arrival;
//! - members' rows are disjoint: draining one viewer touches no other's.
//!
//! So the order of different ports within an instant only reorders
//! independent work. `an_instants_port_order_changes_no_report` pins it,
//! delivering each instant's values in reverse port order.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::Poll;

use pandora_sim::{delay_until, now, Delay, SimDuration, SimTime, TaskWaker};

use crate::broadcast::{Hello, Msg};

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

/// The values sent on every port of one latency, in send order, each with
/// the instant it falls due.
struct Lane<T> {
    latency: SimDuration,
    queue: RefCell<VecDeque<(u64, T)>>,
}

impl<T> Lane<T> {
    fn new(latency: SimDuration) -> Lane<T> {
        Lane {
            latency,
            queue: RefCell::new(VecDeque::new()),
        }
    }

    /// Appends `value`, due one latency from now, and returns its due
    /// instant.
    fn push(&self, value: T) -> u64 {
        let due = (now() + self.latency).as_nanos();
        self.queue.borrow_mut().push_back((due, value));
        due
    }

    /// The due instant of the lane's first value, if it holds one.
    fn head(&self) -> Option<u64> {
        self.queue.borrow().front().map(|&(due, _)| due)
    }

    /// Takes the lane's first value, which [`Lane::head`] has just seen.
    fn pop(&self) -> T {
        let head = self.queue.borrow_mut().pop_front();
        head.expect("a lane with a head").1
    }
}

/// The overlay's three lanes, and the doorbell their sends ring.
pub(crate) struct Lanes {
    /// Slices down the primary and backup tree edges, one hop latency
    /// out, each under its edge's tag.
    edges: Lane<(u32, Msg)>,
    /// The hub's graft orders, one control latency out, each under its
    /// viewer's control tag.
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

    /// Sends `msg` down a tree edge, to be delivered under `tag`. Never
    /// blocks and never fails.
    ///
    /// # Panics
    ///
    /// Panics outside a running task, with [`pandora_sim::now`]'s message
    /// ("not inside a simulation…"): the stamp is the sending task's
    /// virtual instant. So do [`Lanes::graft`] and [`Lanes::hello`].
    pub fn edge(&self, tag: u32, msg: Msg) {
        self.bell.queued(self.edges.push((tag, msg)));
    }

    /// Sends a graft order to a viewer's control port, `tag`.
    pub fn graft(&self, tag: u32, msg: Msg) {
        self.bell.queued(self.grafts.push((tag, msg)));
    }

    /// Sends `hello` to the hub.
    pub fn hello(&self, hello: Hello) {
        self.bell.queued(self.hellos.push(hello));
    }

    /// The lane whose head is least by `(due, lane)`, and that head's due
    /// instant.
    fn least(&self) -> Option<(usize, u64)> {
        [self.edges.head(), self.grafts.head(), self.hellos.head()]
            .into_iter()
            .enumerate()
            .filter_map(|(lane, due)| Some((lane, due?)))
            .min_by_key(|&(lane, due)| (due, lane))
    }

    /// Delivers every value with `due <= now`, the least `(due, lane)`
    /// head first, and returns the next value's due time.
    fn deliver_matured(&self, tagged: &impl Fn(u32, Msg), hello: &impl Fn(Hello)) -> Option<u64> {
        let t = now().as_nanos();
        #[cfg(test)]
        if tests::REVERSED.get() {
            return self.deliver_reversed(t, tagged, hello);
        }
        loop {
            let (lane, due) = self.least()?;
            if due > t {
                return Some(due);
            }
            let (tag, msg) = match lane {
                0 => self.edges.pop(),
                1 => self.grafts.pop(),
                _ => {
                    hello(self.hellos.pop());
                    continue;
                }
            };
            tagged(tag, msg);
        }
    }
}

/// The dispatcher task body: an endless future that hands each matured
/// edge or graft message and its tag to `tagged`, and each hello to
/// `hello`, then sleeps until the next due time, which it posts in the
/// doorbell's `armed` so that a send can tell whether it moves the head.
/// Neither sink may send on a lane: the lane is borrowed while it
/// delivers. Spurious wakes (abandoned timers) deliver nothing. Spawn
/// exactly one per [`Lanes`], first, at high priority.
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
                sleep = head.map(|due| delay_until(SimTime::from_nanos(due)));
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
pub(crate) mod tests {
    use std::cell::{Cell, RefCell};
    use std::cmp::Reverse;
    use std::future::Future;
    use std::rc::Rc;

    use pandora_prop::{check, Rng, Tape};
    use pandora_sim::{delay, delay_until, now, Priority, SimDuration, SimTime, Simulation};

    use super::{dispatcher, Lanes};
    use crate::broadcast::{Hello, Msg};
    use crate::stripe::MAX_TREES;

    thread_local! {
        /// Set, the dispatcher hands each instant's values over in reverse
        /// port order, each port's own values still in send order.
        pub(crate) static REVERSED: Cell<bool> = const { Cell::new(false) };
    }

    /// A value as the dispatcher hands it over.
    enum Value {
        Tagged(u32, Msg),
        Hello(Hello),
    }

    impl Lanes {
        /// [`Lanes::deliver_matured`] under [`REVERSED`]: every value due
        /// by `t`, sorted stably by its port — `(lane, tag)`, a hello's
        /// port its member — from the last port to the first.
        pub(super) fn deliver_reversed(
            &self,
            t: u64,
            tagged: &impl Fn(u32, Msg),
            hello: &impl Fn(Hello),
        ) -> Option<u64> {
            let mut due_now = Vec::new();
            let next = loop {
                match self.least() {
                    Some((_, due)) if due > t => break Some(due),
                    None => break None,
                    Some((0, _)) => {
                        let (tag, msg) = self.edges.pop();
                        due_now.push(((0, tag), Value::Tagged(tag, msg)));
                    }
                    Some((1, _)) => {
                        let (tag, msg) = self.grafts.pop();
                        due_now.push(((1, tag), Value::Tagged(tag, msg)));
                    }
                    Some(_) => {
                        let h = self.hellos.pop();
                        due_now.push(((2, h.node), Value::Hello(h)));
                    }
                }
            };
            due_now.sort_by_key(|&(port, _)| Reverse(port));
            for (_, value) in due_now {
                match value {
                    Value::Tagged(tag, msg) => tagged(tag, msg),
                    Value::Hello(h) => hello(h),
                }
            }
            next
        }
    }

    /// The test's ports: port `i` has tag `i` (a hello's member) and rides
    /// lane `on[i]` — 0 the edges, 1 the grafts, 2 the hellos.
    struct Sends {
        lanes: Rc<Lanes>,
        on: Vec<usize>,
    }

    impl Sends {
        /// Sends `value` on port `port`.
        fn send(&self, port: usize, value: u32) {
            let tag = port as u32;
            let msg = Msg::Graft {
                tree: 0,
                orphan: 0,
                resume_from: value,
            };
            match self.on[port] {
                0 => self.lanes.edge(tag, msg),
                1 => self.lanes.graft(tag, msg),
                _ => self.lanes.hello(Hello {
                    node: tag,
                    next: [value; MAX_TREES],
                }),
            }
        }
    }

    /// Test ports on the lanes `on` (see [`Sends`]), the edge lane `hop` µs
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

    /// Two ports on two lanes. The sender uses the hello port first, and
    /// the two latencies differ so that values sent at different instants
    /// fall due together.
    #[test]
    fn merged_receiver_orders_by_due_then_lane_then_send_order() {
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
                // Equal due times: the edge lane before the hello lane,
                // then each lane's send order.
                "t=300000 a0",
                "t=300000 b1",
                "t=300000 b2",
                "t=500000 a1",
            ]
        );
    }

    /// Three ports of one lane: sends made in one instant to them out of port
    /// order arrive in send order, as a link keeps them.
    #[test]
    fn same_latency_sends_in_one_instant_arrive_in_send_order() {
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
            ["t=100000 c0", "t=100000 a0", "t=100000 b0", "t=100000 a1"]
        );
    }

    /// Seeded schedules over six ports spread across the three lanes, the
    /// two latencies sometimes equal: what arrives is the stable sort of
    /// the sends by `(due, lane)`, each value at its due instant.
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
                let mut keyed: Vec<((u64, usize), usize, usize)> = schedule
                    .iter()
                    .enumerate()
                    .map(|(i, &(at, port))| ((at + latency(port), on[port]), port, i))
                    .collect();
                keyed.sort_by_key(|&(key, ..)| key);
                let expected: Vec<String> = keyed
                    .iter()
                    .map(|&((due, _), port, i)| {
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
        lanes.hello(hello);
    }
}
