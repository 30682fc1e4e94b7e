//! Prioritized alternation over channels — Occam's `PRI ALT`.
//!
//! Pandora's processes wait on several channels at once and must give some
//! inputs absolute priority: "the alternatives in the clause can be
//! prioritised so that important channels (such as those receiving
//! commands) cannot be ignored even if other alternatives are always
//! ready" (§3.1). This is the mechanism behind Principle 4 (command
//! priority).
//!
//! Guards are polled strictly in argument order, so the first listed
//! channel always wins when several are ready — put the command channel
//! first. [`alt2`] takes two channels of different types and looks at
//! both on every poll; [`AltSet`] takes any number of one type and looks
//! only at those that fired. [`recv_deadline`] is one guard and a timeout.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::channel::{Receiver, RecvError};
use crate::executor::{now, with_current, TaskWaker};
use crate::time::SimTime;

/// Outcome of a two-way alternation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Either2<A, B> {
    /// The first (highest priority) guard fired.
    A(A),
    /// The second guard fired.
    B(B),
}

/// Waits on two channels, preferring `a` when both are ready.
///
/// A closed guard (all senders dropped) is skipped; if every guard is
/// closed the alternation resolves to `Err(RecvError)`.
pub fn alt2<'a, A, B>(a: &'a Receiver<A>, b: &'a Receiver<B>) -> Alt2<'a, A, B> {
    Alt2 { a, b }
}

/// Future returned by [`alt2`].
pub struct Alt2<'a, A, B> {
    a: &'a Receiver<A>,
    b: &'a Receiver<B>,
}

impl<A, B> Future for Alt2<'_, A, B> {
    type Output = Result<Either2<A, B>, RecvError>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut closed = 0;
        match self.a.poll_take() {
            Poll::Ready(Ok(v)) => return Poll::Ready(Ok(Either2::A(v))),
            Poll::Ready(Err(RecvError)) => closed += 1,
            Poll::Pending => {}
        }
        match self.b.poll_take() {
            Poll::Ready(Ok(v)) => return Poll::Ready(Ok(Either2::B(v))),
            Poll::Ready(Err(RecvError)) => closed += 1,
            Poll::Pending => {}
        }
        if closed == 2 {
            return Poll::Ready(Err(RecvError));
        }
        Poll::Pending
    }
}

/// What the guards of an [`AltSet`] share: one ready bit each, and the
/// one waker of the task that owns the set.
pub(crate) struct AltShared {
    /// Bit `i % 64` of word `i / 64` is set from a push to guard `i` (or
    /// its last sender's drop) until a visit finds the guard empty.
    ready: Box<[Cell<u64>]>,
    waker: RefCell<Option<TaskWaker>>,
}

impl AltShared {
    /// Marks guard `index` worth a visit and wakes the owner if it waits
    /// on the set. An owner waiting elsewhere left no waker here: it
    /// finds the bit when it comes back.
    pub(crate) fn mark_ready(&self, index: usize) {
        let word = &self.ready[index / 64];
        word.set(word.get() | 1 << (index % 64));
        if let Some(w) = self.waker.borrow_mut().take() {
            w.wake();
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Guards [`AltSet::poll_recv`] has looked at on this thread — the
    /// probe behind `one_push_to_an_armed_set_costs_one_visit`.
    static GUARD_VISITS: Cell<u64> = const { Cell::new(0) };
}

/// A PRI ALT over any number of same-typed channels, preferring lower
/// indices — put the command channel first.
///
/// The set owns its guards, and they share one ready mask and one waker
/// slot: a poll visits only the guards that were pushed to since they
/// last came up empty, lowest index first, and a wait registers once in
/// the set, not once per guard — the cost of waiting on a thousand quiet
/// channels is that of waiting on one (§3.1: a process waiting in an ALT
/// costs nothing until one of its channels is ready).
pub struct AltSet<T> {
    guards: Vec<Receiver<T>>,
    shared: Rc<AltShared>,
    /// Guards not yet seen closed.
    open: usize,
}

impl<T> AltSet<T> {
    /// Builds the set; guard `i` is `guards[i]`. What a guard holds
    /// already is found by the first [`Self::recv`].
    ///
    /// # Panics
    ///
    /// Panics if a receiver is a guard of another set already.
    pub fn new(guards: Vec<Receiver<T>>) -> AltSet<T> {
        let shared = Rc::new(AltShared {
            ready: (0..guards.len().div_ceil(64))
                .map(|_| Cell::new(0))
                .collect(),
            waker: RefCell::new(None),
        });
        for (index, guard) in guards.iter().enumerate() {
            guard.join_set(shared.clone(), index);
            shared.mark_ready(index);
        }
        AltSet {
            open: guards.len(),
            guards,
            shared,
        }
    }

    /// Waits for the lowest-indexed ready guard; returns its index and
    /// value. Closed guards are skipped; once every guard is closed and
    /// drained — at once for an empty set, which has nothing to wait
    /// for — the result is `Err(RecvError)`.
    pub fn recv(&mut self) -> impl Future<Output = Result<(usize, T), RecvError>> + '_ {
        std::future::poll_fn(|_| self.poll_recv())
    }

    fn poll_recv(&mut self) -> Poll<Result<(usize, T), RecvError>> {
        for (w, word) in self.shared.ready.iter().enumerate() {
            while word.get() != 0 {
                let bit = word.get().trailing_zeros();
                let index = w * 64 + bit as usize;
                #[cfg(test)]
                GUARD_VISITS.with(|n| n.set(n.get() + 1));
                match self.guards[index].take() {
                    // The bit stays: the guard may hold more.
                    Poll::Ready(Ok(v)) => return Poll::Ready(Ok((index, v))),
                    // Closed for good — no sender is left to set the bit again.
                    Poll::Ready(Err(RecvError)) => self.open -= 1,
                    Poll::Pending => {}
                }
                word.set(word.get() & !(1 << bit));
            }
        }
        if self.open == 0 {
            return Poll::Ready(Err(RecvError));
        }
        with_current(|i| i.register(&mut self.shared.waker.borrow_mut()));
        Poll::Pending
    }
}

/// Receives with an absolute-time timeout: `None` when the deadline passes
/// first.
pub fn recv_deadline<'a, T>(rx: &'a Receiver<T>, deadline: SimTime) -> RecvDeadline<'a, T> {
    RecvDeadline {
        rx,
        deadline,
        registered: false,
    }
}

/// Future returned by [`recv_deadline`].
pub struct RecvDeadline<'a, T> {
    rx: &'a Receiver<T>,
    deadline: SimTime,
    registered: bool,
}

impl<T> Future for RecvDeadline<'_, T> {
    type Output = Option<Result<T, RecvError>>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        if let Poll::Ready(r) = self.rx.poll_take() {
            return Poll::Ready(Some(r));
        }
        if now() >= self.deadline {
            return Poll::Ready(None);
        }
        if !self.registered {
            with_current(|i| i.register_timer(self.deadline));
            self.registered = true;
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{channel, unbounded};
    use crate::executor::Simulation;
    use crate::time::SimDuration;
    use pandora_prop::{check, Rng, Tape};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn alt2_prefers_first_guard() {
        let mut sim = Simulation::new();
        let (txa, rxa) = unbounded::<u32>();
        let (txb, rxb) = unbounded::<&'static str>();
        txa.try_send(1).unwrap();
        txb.try_send("x").unwrap();
        let out = Rc::new(RefCell::new(Vec::new()));
        let o = out.clone();
        sim.spawn("alt", async move {
            // Both ready: guard A must win, then B.
            match alt2(&rxa, &rxb).await.unwrap() {
                Either2::A(v) => o.borrow_mut().push(format!("a{v}")),
                Either2::B(v) => o.borrow_mut().push(format!("b{v}")),
            }
            match alt2(&rxa, &rxb).await.unwrap() {
                Either2::A(v) => o.borrow_mut().push(format!("a{v}")),
                Either2::B(v) => o.borrow_mut().push(format!("b{v}")),
            }
        });
        sim.run_until_idle();
        assert_eq!(*out.borrow(), ["a1", "bx"]);
    }

    #[test]
    fn alt2_wakes_on_later_send() {
        let mut sim = Simulation::new();
        let (txa, rxa) = channel::<u32>();
        let (_txb, rxb) = channel::<u32>();
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        sim.spawn("alt", async move {
            if let Ok(Either2::A(v)) = alt2(&rxa, &rxb).await {
                *g.borrow_mut() = Some(v);
            }
        });
        sim.spawn("sender", async move {
            crate::delay(SimDuration::from_millis(3)).await;
            txa.send(7).await.unwrap();
        });
        sim.run_until_idle();
        assert_eq!(*got.borrow(), Some(7));
    }

    /// `n` unbounded channels: the senders, and the receivers as one set.
    fn set_of(n: usize) -> (Vec<crate::Sender<u32>>, AltSet<u32>) {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded::<u32>()).unzip();
        (txs, AltSet::new(rxs))
    }

    #[test]
    fn alt_set_returns_lowest_ready_index() {
        let mut sim = Simulation::new();
        let (senders, mut set) = set_of(4);
        senders[2].try_send(20).unwrap();
        senders[3].try_send(30).unwrap();
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        sim.spawn("alt", async move {
            for _ in 0..2 {
                let hit = set.recv().await;
                g.borrow_mut().push(hit);
            }
        });
        sim.run_until_idle();
        assert_eq!(*got.borrow(), [Ok((2, 20)), Ok((3, 30))]);
    }

    #[test]
    fn alt_set_skips_closed_guards_and_errors_when_all_are_closed() {
        let mut sim = Simulation::new();
        let (mut senders, mut set) = set_of(3);
        // Guard 0 closes empty, guard 1 closes with a value still queued,
        // guard 2 stays open until the task has drained the others.
        senders[1].try_send(11).unwrap();
        let last = senders.pop().unwrap();
        drop(senders);
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        sim.spawn("alt", async move {
            for _ in 0..3 {
                let hit = set.recv().await;
                g.borrow_mut().push(hit);
            }
        });
        sim.spawn("last", async move {
            crate::delay(SimDuration::from_millis(1)).await;
            last.try_send(22).unwrap();
        });
        sim.run_until_idle();
        assert_eq!(
            *got.borrow(),
            [Ok((1, 11)), Ok((2, 22)), Err(RecvError)],
            "closed guards are passed over; the last close ends the set"
        );
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn empty_alt_set_errors_at_once() {
        // Nothing to wait for and nothing that could ever wake the
        // waiter: pending here would be a deadlock with no channel to
        // blame.
        let mut sim = Simulation::new();
        let saw = Rc::new(RefCell::new(None));
        let s = saw.clone();
        sim.spawn("alt", async move {
            *s.borrow_mut() = Some(AltSet::<u32>::new(Vec::new()).recv().await);
        });
        sim.run_until_idle();
        assert_eq!(*saw.borrow(), Some(Err(RecvError)));
        assert!(sim.deadlock_report().is_none());
    }

    #[test]
    fn alt_set_finds_a_guard_in_the_second_mask_word() {
        let mut sim = Simulation::new();
        let (senders, mut set) = set_of(130);
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        sim.spawn("alt", async move {
            while let Ok(hit) = set.recv().await {
                g.borrow_mut().push(hit);
            }
        });
        sim.spawn("send", async move {
            crate::delay(SimDuration::from_millis(1)).await;
            // Sent highest first: served lowest first, across the words.
            for i in [129, 64, 63, 100] {
                senders[i].try_send(i as u32).unwrap();
            }
        });
        sim.run_until_idle();
        assert_eq!(*got.borrow(), [(63, 63), (64, 64), (100, 100), (129, 129)]);
    }

    #[test]
    fn alt_set_wakes_on_later_send() {
        let mut sim = Simulation::new();
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..3).map(|_| channel::<u32>()).unzip();
        let mut set = AltSet::new(rxs);
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        sim.spawn("alt", async move {
            while let Ok(hit) = set.recv().await {
                g.borrow_mut().push((hit, crate::now().as_millis()));
            }
        });
        sim.spawn("sender", async move {
            for (i, tx) in txs.iter().enumerate().rev() {
                crate::delay(SimDuration::from_millis(3)).await;
                // A rendezvous send: completes because the set took it.
                tx.send(7).await.unwrap();
                assert_eq!(crate::now().as_millis(), 3 * (3 - i as u64));
            }
        });
        sim.run_until_idle();
        assert_eq!(*got.borrow(), [((2, 7), 3), ((1, 7), 6), ((0, 7), 9)]);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn alt_set_serves_guard_zero_first_under_a_standing_flood() {
        // Principle 4 for the set: a later guard that is never empty must
        // not keep the command guard waiting — not even for one turn.
        let mut sim = Simulation::new();
        let (senders, mut set) = set_of(9);
        for i in 0..1000 {
            senders[5].try_send(i).unwrap();
        }
        let order = Rc::new(RefCell::new(Vec::new()));
        let o = order.clone();
        sim.spawn("process", async move {
            for _ in 0..6 {
                let (index, _) = set.recv().await.unwrap();
                o.borrow_mut().push(index);
                // Waiting elsewhere: the command sent meanwhile wakes
                // nobody and is still found first on return.
                crate::delay(SimDuration::from_millis(2)).await;
            }
        });
        sim.spawn("commander", async move {
            for at in [3, 7] {
                crate::delay_until(SimTime::from_millis(at)).await;
                senders[0].try_send(0).unwrap();
            }
        });
        let before = sim.context_switches();
        sim.run_until_idle();
        assert_eq!(*order.borrow(), [5, 5, 0, 5, 0, 5]);
        // process: first poll + six delays; commander: first poll + two
        // delays. A command sent while `process` sat in its delay did not
        // poll it.
        assert_eq!(sim.context_switches() - before, 7 + 3);
    }

    #[test]
    fn one_push_to_an_armed_set_costs_one_visit() {
        let visits = || GUARD_VISITS.with(Cell::get);
        let mut sim = Simulation::new();
        let (senders, mut set) = set_of(1000);
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        sim.spawn("alt", async move {
            while let Ok(hit) = set.recv().await {
                g.borrow_mut().push(hit);
                crate::delay(SimDuration::from_millis(1)).await;
            }
        });
        // The first poll looks at every guard once, finds nothing, arms.
        let before = visits();
        sim.run_until_idle();
        assert_eq!(visits() - before, 1000);

        // The poll the push brings looks at the pushed guard alone.
        let before = visits();
        senders[777].try_send(1).unwrap();
        sim.run_for(SimDuration::ZERO);
        assert_eq!(*got.borrow(), [(777, 1)]);
        assert_eq!(visits() - before, 1, "one push, one visit — not 1,000");

        // Back from its delay the task visits that guard once more,
        // finds it empty and clears its bit; then the set is quiet.
        sim.run_until_idle();
        assert_eq!(visits() - before, 2);
        senders[3].try_send(2).unwrap();
        sim.run_for(SimDuration::ZERO);
        assert_eq!(*got.borrow(), [(777, 1), (3, 2)]);
        assert_eq!(visits() - before, 3);
    }

    #[test]
    fn alt_set_matches_the_obvious_model_over_a_seeded_schedule() {
        // The model: a `VecDeque` per guard; a receive takes the head of
        // the lowest-indexed non-empty one.
        const GUARDS: usize = 1000;
        // 400 rounds, each a burst of pushes and the odd close (`true`).
        let rounds = |t: &mut Tape| -> Vec<Vec<(usize, bool)>> {
            let op = |t: &mut Tape| (t.gen_range(0..GUARDS), t.gen_range(0..10u32) == 0);
            (0..400)
                .map(|_| (0..t.gen_range(0..12u32)).map(|_| op(t)).collect())
                .collect()
        };
        check("alt_set_model", 0x1993, 1, rounds, |rounds| {
            let mut sim = Simulation::new();
            let (mut senders, mut set): (Vec<Option<crate::Sender<u32>>>, _) = {
                let (txs, set) = set_of(GUARDS);
                (txs.into_iter().map(Some).collect(), set)
            };
            let got = Rc::new(RefCell::new(Vec::new()));
            let g = got.clone();
            sim.spawn("alt", async move {
                loop {
                    let hit = set.recv().await;
                    g.borrow_mut().push(hit);
                    if hit.is_err() {
                        return;
                    }
                }
            });
            let mut model: Vec<std::collections::VecDeque<u32>> = vec![Default::default(); GUARDS];
            let (mut want, mut value) = (Vec::new(), 0);
            for round in rounds {
                // A burst of pushes and the odd close, then the set's task
                // runs until it waits again and must have drained the model.
                for &(i, close) in round {
                    if close {
                        senders[i] = None;
                    } else if let Some(tx) = &senders[i] {
                        value += 1;
                        tx.try_send(value).unwrap();
                        model[i].push_back(value);
                    }
                }
                sim.run_until_idle();
                for (i, queue) in model.iter_mut().enumerate() {
                    want.extend(queue.drain(..).map(|v| Ok((i, v))));
                }
                assert_eq!(*got.borrow(), want);
            }
            senders.clear();
            sim.run_until_idle();
            want.push(Err(RecvError));
            assert_eq!(*got.borrow(), want);
            assert_eq!(sim.live_tasks(), 0);
        });
    }

    #[test]
    fn recv_deadline_times_out_and_succeeds() {
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u32>();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        sim.spawn("rx", async move {
            // First wait times out at 2ms.
            let r = recv_deadline(&rx, SimTime::from_millis(2)).await;
            l.borrow_mut()
                .push(format!("{r:?}@{}", crate::now().as_millis()));
            // Second wait succeeds at 5ms.
            let r = recv_deadline(&rx, SimTime::from_millis(10)).await;
            l.borrow_mut()
                .push(format!("{r:?}@{}", crate::now().as_millis()));
        });
        sim.spawn("tx", async move {
            crate::delay(SimDuration::from_millis(5)).await;
            tx.send(9).await.unwrap();
        });
        sim.run_until_idle();
        assert_eq!(*log.borrow(), ["None@2", "Some(Ok(9))@5"]);
    }

    #[test]
    fn command_priority_under_stream_flood() {
        // Principle 4: a PRI ALT with the command channel first must keep
        // serving commands even when the data guard is always ready.
        let mut sim = Simulation::new();
        let (cmd_tx, cmd_rx) = unbounded::<&'static str>();
        let (data_tx, data_rx) = unbounded::<u64>();
        for i in 0..1000 {
            data_tx.try_send(i).unwrap();
        }
        cmd_tx.try_send("stop-stream").unwrap();
        let first = Rc::new(RefCell::new(None));
        let f = first.clone();
        sim.spawn("process", async move {
            match alt2(&cmd_rx, &data_rx).await.unwrap() {
                Either2::A(c) => *f.borrow_mut() = Some(format!("cmd:{c}")),
                Either2::B(d) => *f.borrow_mut() = Some(format!("data:{d}")),
            }
        });
        sim.run_until_idle();
        assert_eq!(first.borrow().as_deref(), Some("cmd:stop-stream"));
    }
}
