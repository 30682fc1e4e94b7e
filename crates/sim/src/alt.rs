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
//! first.

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

/// Outcome of a three-way alternation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Either3<A, B, C> {
    /// The first (highest priority) guard fired.
    A(A),
    /// The second guard fired.
    B(B),
    /// The third guard fired.
    C(C),
}

/// Waits on two channels, preferring `a` when both are ready.
///
/// A closed guard (all senders dropped) is skipped; if every guard is
/// closed the alternation resolves to `Err(RecvError)`.
pub fn alt2<'a, A, B>(a: &'a Receiver<A>, b: &'a Receiver<B>) -> Alt2<'a, A, B> {
    Alt2 {
        a,
        b,
        deadline: None,
        registered: false,
    }
}

/// Like [`alt2`] with a timeout guard of lowest priority; `None` on expiry.
pub fn alt2_deadline<'a, A, B>(
    a: &'a Receiver<A>,
    b: &'a Receiver<B>,
    deadline: SimTime,
) -> Alt2<'a, A, B> {
    Alt2 {
        a,
        b,
        deadline: Some(deadline),
        registered: false,
    }
}

/// Future returned by [`alt2`] / [`alt2_deadline`].
pub struct Alt2<'a, A, B> {
    a: &'a Receiver<A>,
    b: &'a Receiver<B>,
    deadline: Option<SimTime>,
    registered: bool,
}

impl<A, B> Future for Alt2<'_, A, B> {
    type Output = Option<Result<Either2<A, B>, RecvError>>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut closed = 0;
        match self.a.poll_take() {
            Poll::Ready(Ok(v)) => return Poll::Ready(Some(Ok(Either2::A(v)))),
            Poll::Ready(Err(RecvError)) => closed += 1,
            Poll::Pending => {}
        }
        match self.b.poll_take() {
            Poll::Ready(Ok(v)) => return Poll::Ready(Some(Ok(Either2::B(v)))),
            Poll::Ready(Err(RecvError)) => closed += 1,
            Poll::Pending => {}
        }
        if closed == 2 {
            return Poll::Ready(Some(Err(RecvError)));
        }
        poll_deadline(self.deadline, &mut self.registered)
    }
}

/// Waits on three channels with priority a > b > c.
pub fn alt3<'a, A, B, C>(
    a: &'a Receiver<A>,
    b: &'a Receiver<B>,
    c: &'a Receiver<C>,
) -> Alt3<'a, A, B, C> {
    Alt3 {
        a,
        b,
        c,
        deadline: None,
        registered: false,
    }
}

/// Like [`alt3`] with a timeout guard of lowest priority; `None` on expiry.
pub fn alt3_deadline<'a, A, B, C>(
    a: &'a Receiver<A>,
    b: &'a Receiver<B>,
    c: &'a Receiver<C>,
    deadline: SimTime,
) -> Alt3<'a, A, B, C> {
    Alt3 {
        a,
        b,
        c,
        deadline: Some(deadline),
        registered: false,
    }
}

/// Future returned by [`alt3`] / [`alt3_deadline`].
pub struct Alt3<'a, A, B, C> {
    a: &'a Receiver<A>,
    b: &'a Receiver<B>,
    c: &'a Receiver<C>,
    deadline: Option<SimTime>,
    registered: bool,
}

impl<A, B, C> Future for Alt3<'_, A, B, C> {
    type Output = Option<Result<Either3<A, B, C>, RecvError>>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut closed = 0;
        match self.a.poll_take() {
            Poll::Ready(Ok(v)) => return Poll::Ready(Some(Ok(Either3::A(v)))),
            Poll::Ready(Err(RecvError)) => closed += 1,
            Poll::Pending => {}
        }
        match self.b.poll_take() {
            Poll::Ready(Ok(v)) => return Poll::Ready(Some(Ok(Either3::B(v)))),
            Poll::Ready(Err(RecvError)) => closed += 1,
            Poll::Pending => {}
        }
        match self.c.poll_take() {
            Poll::Ready(Ok(v)) => return Poll::Ready(Some(Ok(Either3::C(v)))),
            Poll::Ready(Err(RecvError)) => closed += 1,
            Poll::Pending => {}
        }
        if closed == 3 {
            return Poll::Ready(Some(Err(RecvError)));
        }
        poll_deadline(self.deadline, &mut self.registered)
    }
}

/// Outcome of a four-way alternation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Either4<A, B, C, D> {
    /// The first (highest priority) guard fired.
    A(A),
    /// The second guard fired.
    B(B),
    /// The third guard fired.
    C(C),
    /// The fourth guard fired.
    D(D),
}

/// Waits on four channels with priority a > b > c > d.
pub fn alt4<'a, A, B, C, D>(
    a: &'a Receiver<A>,
    b: &'a Receiver<B>,
    c: &'a Receiver<C>,
    d: &'a Receiver<D>,
) -> Alt4<'a, A, B, C, D> {
    Alt4 {
        a,
        b,
        c,
        d,
        deadline: None,
        registered: false,
    }
}

/// Like [`alt4`] with a timeout guard of lowest priority; `None` on expiry.
pub fn alt4_deadline<'a, A, B, C, D>(
    a: &'a Receiver<A>,
    b: &'a Receiver<B>,
    c: &'a Receiver<C>,
    d: &'a Receiver<D>,
    deadline: SimTime,
) -> Alt4<'a, A, B, C, D> {
    Alt4 {
        a,
        b,
        c,
        d,
        deadline: Some(deadline),
        registered: false,
    }
}

/// Future returned by [`alt4`] / [`alt4_deadline`].
pub struct Alt4<'a, A, B, C, D> {
    a: &'a Receiver<A>,
    b: &'a Receiver<B>,
    c: &'a Receiver<C>,
    d: &'a Receiver<D>,
    deadline: Option<SimTime>,
    registered: bool,
}

impl<A, B, C, D> Future for Alt4<'_, A, B, C, D> {
    type Output = Option<Result<Either4<A, B, C, D>, RecvError>>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut closed = 0;
        match self.a.poll_take() {
            Poll::Ready(Ok(v)) => return Poll::Ready(Some(Ok(Either4::A(v)))),
            Poll::Ready(Err(RecvError)) => closed += 1,
            Poll::Pending => {}
        }
        match self.b.poll_take() {
            Poll::Ready(Ok(v)) => return Poll::Ready(Some(Ok(Either4::B(v)))),
            Poll::Ready(Err(RecvError)) => closed += 1,
            Poll::Pending => {}
        }
        match self.c.poll_take() {
            Poll::Ready(Ok(v)) => return Poll::Ready(Some(Ok(Either4::C(v)))),
            Poll::Ready(Err(RecvError)) => closed += 1,
            Poll::Pending => {}
        }
        match self.d.poll_take() {
            Poll::Ready(Ok(v)) => return Poll::Ready(Some(Ok(Either4::D(v)))),
            Poll::Ready(Err(RecvError)) => closed += 1,
            Poll::Pending => {}
        }
        if closed == 4 {
            return Poll::Ready(Some(Err(RecvError)));
        }
        poll_deadline(self.deadline, &mut self.registered)
    }
}

/// Waits on a slice of same-typed channels, preferring lower indices.
///
/// Returns the winning index and value. Closed channels are skipped; when
/// all are closed the result is `Err(RecvError)`.
pub fn alt_many<'a, T>(guards: &'a [&'a Receiver<T>]) -> AltMany<'a, T> {
    AltMany {
        guards,
        deadline: None,
        registered: false,
    }
}

/// Like [`alt_many`] with a timeout guard; `None` on expiry.
pub fn alt_many_deadline<'a, T>(
    guards: &'a [&'a Receiver<T>],
    deadline: SimTime,
) -> AltMany<'a, T> {
    AltMany {
        guards,
        deadline: Some(deadline),
        registered: false,
    }
}

/// Future returned by [`alt_many`] / [`alt_many_deadline`].
pub struct AltMany<'a, T> {
    guards: &'a [&'a Receiver<T>],
    deadline: Option<SimTime>,
    registered: bool,
}

impl<T> Future for AltMany<'_, T> {
    type Output = Option<Result<(usize, T), RecvError>>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut closed = 0;
        for (i, rx) in self.guards.iter().enumerate() {
            match rx.poll_take() {
                Poll::Ready(Ok(v)) => return Poll::Ready(Some(Ok((i, v)))),
                Poll::Ready(Err(RecvError)) => closed += 1,
                Poll::Pending => {}
            }
        }
        if !self.guards.is_empty() && closed == self.guards.len() {
            return Poll::Ready(Some(Err(RecvError)));
        }
        poll_deadline(self.deadline, &mut self.registered)
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
        match self.rx.poll_take() {
            Poll::Ready(r) => return Poll::Ready(Some(r)),
            Poll::Pending => {}
        }
        let deadline = Some(self.deadline);
        match poll_deadline::<()>(deadline, &mut self.registered) {
            Poll::Ready(_) => Poll::Ready(None),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Shared tail for deadline guards: `Ready(None)` on expiry, else registers
/// a timer once and stays pending.
fn poll_deadline<V>(deadline: Option<SimTime>, registered: &mut bool) -> Poll<Option<V>> {
    if let Some(d) = deadline {
        if now() >= d {
            return Poll::Ready(None);
        }
        if !*registered {
            with_current(|i| i.register_timer(d));
            *registered = true;
        }
    }
    Poll::Pending
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
            match alt2(&rxa, &rxb).await.unwrap().unwrap() {
                Either2::A(v) => o.borrow_mut().push(format!("a{v}")),
                Either2::B(v) => o.borrow_mut().push(format!("b{v}")),
            }
            match alt2(&rxa, &rxb).await.unwrap().unwrap() {
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
            if let Some(Ok(Either2::A(v))) = alt2(&rxa, &rxb).await {
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
    fn alt_deadline_fires_when_nothing_ready() {
        let mut sim = Simulation::new();
        let (_txa, rxa) = channel::<u32>();
        let (_txb, rxb) = channel::<u32>();
        let expired = Rc::new(RefCell::new(false));
        let e = expired.clone();
        sim.spawn("alt", async move {
            let r = alt2_deadline(&rxa, &rxb, SimTime::from_millis(5)).await;
            assert!(r.is_none());
            assert_eq!(crate::now(), SimTime::from_millis(5));
            *e.borrow_mut() = true;
        });
        sim.run_until_idle();
        assert!(*expired.borrow());
    }

    #[test]
    fn alt3_priority_order() {
        let mut sim = Simulation::new();
        let (txa, rxa) = unbounded::<u8>();
        let (txb, rxb) = unbounded::<u8>();
        let (txc, rxc) = unbounded::<u8>();
        txc.try_send(3).unwrap();
        txb.try_send(2).unwrap();
        txa.try_send(1).unwrap();
        let order = Rc::new(RefCell::new(Vec::new()));
        let o = order.clone();
        sim.spawn("alt", async move {
            for _ in 0..3 {
                match alt3(&rxa, &rxb, &rxc).await.unwrap().unwrap() {
                    Either3::A(v) | Either3::B(v) | Either3::C(v) => o.borrow_mut().push(v),
                }
            }
        });
        sim.run_until_idle();
        assert_eq!(*order.borrow(), [1, 2, 3]);
    }

    #[test]
    fn alt_many_returns_lowest_ready_index() {
        let mut sim = Simulation::new();
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..4).map(|_| unbounded::<u32>()).unzip();
        senders[2].try_send(20).unwrap();
        senders[3].try_send(30).unwrap();
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        sim.spawn("alt", async move {
            let guards: Vec<&Receiver<u32>> = receivers.iter().collect();
            let (i, v) = alt_many(&guards).await.unwrap().unwrap();
            *g.borrow_mut() = Some((i, v));
        });
        sim.run_until_idle();
        assert_eq!(*got.borrow(), Some((2, 20)));
    }

    #[test]
    fn alt_many_all_closed_errors() {
        let mut sim = Simulation::new();
        let rxs: Vec<Receiver<u32>> = (0..3)
            .map(|_| {
                let (_tx, rx) = channel::<u32>();
                rx
            })
            .collect();
        let saw = Rc::new(RefCell::new(false));
        let s = saw.clone();
        sim.spawn("alt", async move {
            let guards: Vec<&Receiver<u32>> = rxs.iter().collect();
            assert_eq!(alt_many(&guards).await, Some(Err(RecvError)));
            *s.borrow_mut() = true;
        });
        sim.run_until_idle();
        assert!(*saw.borrow());
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
    fn alt4_priority_order() {
        let mut sim = Simulation::new();
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..4).map(|_| unbounded::<u8>()).unzip();
        for (i, tx) in txs.iter().enumerate().rev() {
            tx.try_send(i as u8).unwrap();
        }
        let order = Rc::new(RefCell::new(Vec::new()));
        let o = order.clone();
        sim.spawn("alt", async move {
            for _ in 0..4 {
                match alt4(&rxs[0], &rxs[1], &rxs[2], &rxs[3])
                    .await
                    .unwrap()
                    .unwrap()
                {
                    Either4::A(v) | Either4::B(v) | Either4::C(v) | Either4::D(v) => {
                        o.borrow_mut().push(v)
                    }
                }
            }
        });
        sim.run_until_idle();
        assert_eq!(*order.borrow(), [0, 1, 2, 3]);
    }

    #[test]
    fn alt4_deadline_expires() {
        let mut sim = Simulation::new();
        let (_t1, r1) = channel::<u8>();
        let (_t2, r2) = channel::<u8>();
        let (_t3, r3) = channel::<u8>();
        let (_t4, r4) = channel::<u8>();
        let done = Rc::new(RefCell::new(false));
        let d = done.clone();
        sim.spawn("alt", async move {
            let r = alt4_deadline(&r1, &r2, &r3, &r4, SimTime::from_millis(3)).await;
            assert!(r.is_none());
            *d.borrow_mut() = true;
        });
        sim.run_until_idle();
        assert!(*done.borrow());
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
            match alt2(&cmd_rx, &data_rx).await.unwrap().unwrap() {
                Either2::A(c) => *f.borrow_mut() = Some(format!("cmd:{c}")),
                Either2::B(d) => *f.borrow_mut() = Some(format!("data:{d}")),
            }
        });
        sim.run_until_idle();
        assert_eq!(first.borrow().as_deref(), Some("cmd:stop-stream"));
    }
}
