//! Executor-level integration tests: scheduling semantics the whole
//! reproduction rests on.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use pandora_sim::{
    channel, delay, delay_until, now, spawn, unbounded, yield_now, Priority, Sender, SimDuration,
    SimTime, Simulation, StopReason,
};

#[test]
fn run_until_stops_at_deadline_and_reports_reason() {
    let mut sim = Simulation::new();
    sim.spawn("ticker", async {
        loop {
            delay(SimDuration::from_millis(10)).await;
        }
    });
    assert_eq!(
        sim.run_until(SimTime::from_millis(35)),
        StopReason::Deadline
    );
    assert_eq!(sim.now(), SimTime::from_millis(35));
    // With no tasks pending anything, run_until_idle reports Idle.
    let mut sim2 = Simulation::new();
    sim2.spawn("oneshot", async {
        delay(SimDuration::from_millis(1)).await;
    });
    assert_eq!(sim2.run_until_idle(), StopReason::Idle);
    assert_eq!(sim2.live_tasks(), 0);
}

#[test]
fn high_priority_tasks_run_first_each_instant() {
    let mut sim = Simulation::new();
    let order = Rc::new(RefCell::new(Vec::new()));
    for i in 0..3 {
        let o = order.clone();
        sim.spawn(&format!("low{i}"), async move {
            o.borrow_mut().push(format!("low{i}"));
        });
    }
    for i in 0..3 {
        let o = order.clone();
        sim.spawn_prio(&format!("high{i}"), Priority::High, async move {
            o.borrow_mut().push(format!("high{i}"));
        });
    }
    sim.run_until_idle();
    let order = order.borrow();
    assert!(
        order[..3].iter().all(|s| s.starts_with("high")),
        "{order:?}"
    );
    assert!(order[3..].iter().all(|s| s.starts_with("low")), "{order:?}");
}

#[test]
fn tasks_can_spawn_tasks() {
    let mut sim = Simulation::new();
    let count = Rc::new(Cell::new(0u32));
    let c = count.clone();
    sim.spawn("root", async move {
        for i in 0..5 {
            let c = c.clone();
            spawn(&format!("child{i}"), async move {
                delay(SimDuration::from_millis(i as u64 + 1)).await;
                c.set(c.get() + 1);
            });
        }
    });
    sim.run_until_idle();
    assert_eq!(count.get(), 5);
    assert_eq!(sim.spawned_total(), 6);
}

#[test]
fn virtual_time_is_exact_across_many_timers() {
    let mut sim = Simulation::new();
    let log = Rc::new(RefCell::new(Vec::new()));
    for i in 1..=10u64 {
        let l = log.clone();
        sim.spawn(&format!("t{i}"), async move {
            delay(SimDuration::from_micros(i * 137)).await;
            l.borrow_mut().push((i, now().as_micros()));
        });
    }
    sim.run_until_idle();
    for &(i, at) in log.borrow().iter() {
        assert_eq!(at, i * 137, "timer {i} fired at {at}");
    }
}

#[test]
fn dump_tasks_reports_blocked_processes() {
    let mut sim = Simulation::new();
    let (_tx, rx) = channel::<u32>();
    sim.spawn("waiter", async move {
        let _ = rx.recv().await;
    });
    sim.run_until_idle();
    let tasks = sim.dump_tasks();
    assert_eq!(tasks.len(), 1);
    assert_eq!(tasks[0], ("waiter".to_string(), "blocked"));
}

#[test]
fn deterministic_context_switch_counts() {
    let run = || {
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u32>();
        sim.spawn("producer", async move {
            for i in 0..100 {
                delay(SimDuration::from_micros(50)).await;
                if tx.send(i).await.is_err() {
                    return;
                }
            }
        });
        sim.spawn("consumer", async move { while rx.recv().await.is_ok() {} });
        sim.run_until_idle();
        sim.context_switches()
    };
    assert_eq!(run(), run(), "context switches must be deterministic");
}

#[test]
fn zero_duration_delay_resumes_same_instant() {
    let mut sim = Simulation::new();
    let at = Rc::new(Cell::new(SimTime::ZERO));
    let a = at.clone();
    sim.spawn("z", async move {
        delay(SimDuration::from_millis(5)).await;
        delay(SimDuration::ZERO).await;
        a.set(now());
    });
    sim.run_until_idle();
    assert_eq!(at.get(), SimTime::from_millis(5));
}

// ---------------------------------------------------------------------
// Wake order (ISSUE 16): what bit-equal histories rest on. Wakes are
// applied in call order once the poll that made them returns; a timer
// wakes the task that armed it; a stale waker wakes nothing.
// ---------------------------------------------------------------------

type Log = Rc<RefCell<Vec<&'static str>>>;

/// Spawns a task that logs `name` each time a value arrives on the
/// returned sender.
fn logging_receiver(sim: &mut Simulation, name: &'static str, log: &Log) -> Sender<()> {
    let (tx, rx) = unbounded::<()>();
    let log = log.clone();
    sim.spawn(name, async move {
        while rx.recv().await.is_ok() {
            log.borrow_mut().push(name);
        }
    });
    tx
}

#[test]
fn wakes_made_in_one_poll_run_in_call_order_self_wake_included() {
    /// One poll that wakes B, then itself, then C.
    struct Kick {
        b: Sender<()>,
        c: Sender<()>,
        me: Option<Pin<Box<dyn Future<Output = ()>>>>,
    }
    impl Future for Kick {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let Some(mut me) = self.me.take() else {
                return Poll::Ready(());
            };
            self.b.try_send(()).unwrap();
            assert!(me.as_mut().poll(cx).is_pending());
            self.c.try_send(()).unwrap();
            Poll::Pending
        }
    }
    let mut sim = Simulation::new();
    let log: Log = Rc::default();
    let b = logging_receiver(&mut sim, "b", &log);
    let c = logging_receiver(&mut sim, "c", &log);
    let l = log.clone();
    sim.spawn("a", async move {
        let me: Option<Pin<Box<dyn Future<Output = ()>>>> = Some(Box::pin(yield_now()));
        Kick { b, c, me }.await;
        l.borrow_mut().push("a");
        std::future::pending::<()>().await;
    });
    sim.run_until_idle();
    // An immediate enqueue of the self-wake would read a, b, c.
    assert_eq!(*log.borrow(), ["b", "a", "c"]);
}

#[test]
fn timers_of_one_instant_fire_in_arming_order_then_their_wakes() {
    let mut sim = Simulation::new();
    let log: Log = Rc::default();
    let r1 = logging_receiver(&mut sim, "r1", &log);
    let r2 = logging_receiver(&mut sim, "r2", &log);
    let at = SimTime::from_millis(5);
    // `x` is spawned first but arms last: arming order, not task order.
    for (name, yields, kick) in [
        ("x", true, None),
        ("y", false, Some(r1)),
        ("z", false, Some(r2)),
    ] {
        let l = log.clone();
        sim.spawn(name, async move {
            if yields {
                yield_now().await;
            }
            delay_until(at).await;
            l.borrow_mut().push(name);
            if let Some(tx) = kick {
                tx.try_send(()).unwrap();
                std::future::pending::<()>().await;
            }
        });
    }
    sim.run_until_idle();
    assert_eq!(*log.borrow(), ["y", "z", "x", "r1", "r2"]);
}

#[test]
fn stale_waker_wakes_nothing_even_after_its_slot_is_reused() {
    let mut sim = Simulation::new();
    let kept = Rc::new(RefCell::new(None));
    let k = kept.clone();
    let first = sim.spawn("short-lived", async move {
        *k.borrow_mut() = Some(pandora_sim::waker());
    });
    sim.run_until_idle();
    let stale = kept.borrow_mut().take().unwrap();
    let polls = Rc::new(Cell::new(0u32));
    let p = polls.clone();
    let second = sim.spawn("tenant", async move {
        std::future::poll_fn(|_| {
            p.set(p.get() + 1);
            Poll::<()>::Pending
        })
        .await
    });
    assert_ne!(first, second, "same slot, next generation");
    sim.run_until_idle();
    let switches = sim.context_switches();
    assert_eq!(polls.get(), 1);
    stale.wake();
    sim.run_until_idle();
    assert_eq!(polls.get(), 1, "the slot's new tenant was woken");
    assert_eq!(sim.context_switches(), switches);
    // Outliving the simulation is harmless too.
    drop(sim);
    stale.wake();
}

#[test]
fn wakes_made_outside_any_poll_are_honoured_paused_ones_on_resume() {
    let mut sim = Simulation::new();
    let log: Log = Rc::default();
    let tx = logging_receiver(&mut sim, "rx", &log);
    sim.run_until(SimTime::from_millis(1));
    tx.try_send(()).unwrap(); // between two run_until calls
    sim.run_until(SimTime::from_millis(2));
    assert_eq!(*log.borrow(), ["rx"]);
    assert_eq!(sim.pause_matching("rx"), 1);
    tx.try_send(()).unwrap();
    sim.run_until(SimTime::from_millis(3));
    assert_eq!(log.borrow().len(), 1, "paused task ran");
    assert_eq!(sim.resume_matching("rx"), 1);
    sim.run_until(SimTime::from_millis(4));
    assert_eq!(*log.borrow(), ["rx", "rx"]);
}

#[test]
fn dropping_a_simulation_with_wakers_outstanding_frees_its_tasks() {
    let mut sim = Simulation::new();
    let held = Rc::new(());
    let h = held.clone();
    let (tx, rx) = unbounded::<Rc<()>>();
    sim.spawn("blocked", async move {
        let _h = h;
        let _ = rx.recv().await;
        std::future::pending::<()>().await;
    });
    sim.run_until_idle();
    assert_eq!(Rc::strong_count(&held), 2);
    drop(sim);
    assert_eq!(Rc::strong_count(&held), 1, "task future leaked");
    // The channel still holds the dead task's waker; using it is inert.
    assert!(tx.try_send(held.clone()).is_err());
}
