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
//! both on every poll; [`recv_deadline`] is one guard and a timeout.
//! There is no ALT over many same-typed inputs: the fabric switch, which
//! has many, is a call its input paths make rather than a process.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use crate::channel::{Receiver, RecvError};
use crate::executor::{now, with_current};
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
