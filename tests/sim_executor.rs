//! Executor-level integration tests: scheduling semantics the whole
//! reproduction rests on.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use pandora_sim::{
    channel, delay, now, spawn, Priority, SimDuration, SimTime, Simulation, StopReason,
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
// Shard-boundary semantics (ISSUE 7 satellite): the sharded runtime's
// build-time contract and lookahead behaviour, exercised from outside
// the pandora-shard crate.
// ---------------------------------------------------------------------

#[test]
fn zero_latency_cross_shard_link_is_rejected_at_build_time() {
    use pandora_shard::Cluster;
    // Rejected while *wiring*, not at run time: the link latency is the
    // conservative-lookahead window, and a zero window cannot guarantee
    // progress.
    let err = std::panic::catch_unwind(|| {
        let mut cluster = Cluster::new(2);
        let _ = cluster.port::<u32>(0, 1, SimDuration::ZERO, "bad");
    })
    .expect_err("zero-latency cross-shard port must be refused");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("zero-latency cross-shard link rejected"),
        "unexpected panic message: {msg}"
    );
    // Loopback ports may be instantaneous — they never gate lookahead.
    let mut cluster = Cluster::new(2);
    let _ = cluster.port::<u32>(1, 1, SimDuration::ZERO, "loop");
}

#[test]
fn lookahead_stalls_at_the_horizon_and_releases_when_the_peer_idles() {
    use pandora_shard::Cluster;
    let run = || {
        let mut cluster = Cluster::new(2);
        let (egress, ingress) = cluster.port::<u64>(1, 0, SimDuration::from_millis(1), "x");
        cluster.setup(1, move |env| {
            // One late message, then idle: shard 0 must neither see the
            // value early (stall side) nor be wedged behind an idle
            // peer (release side).
            let tx = env.open_egress(egress);
            env.spawner().spawn("sender", async move {
                delay(SimDuration::from_millis(7)).await;
                tx.send(now().as_millis());
            });
        });
        cluster.setup(0, move |env| {
            let rx = env.bind_ingress(ingress);
            let seen = Rc::new(RefCell::new(Vec::new()));
            let ticks = Rc::new(Cell::new(0u32));
            let (s, t) = (seen.clone(), ticks.clone());
            env.spawner().spawn("receiver", async move {
                while let Ok(sent) = rx.recv().await {
                    s.borrow_mut().push((sent, now().as_millis()));
                }
            });
            env.spawner().spawn("ticker", async move {
                loop {
                    delay(SimDuration::from_millis(1)).await;
                    t.set(t.get() + 1);
                }
            });
            env.on_finish(move || vec![format!("seen={:?} ticks={}", seen.borrow(), ticks.get())]);
        });
        cluster.run(SimTime::from_millis(20)).merged_lines()
    };
    let lines = run();
    // Sent at 7 ms, link latency 1 ms: delivered at exactly 8 ms — the
    // receiver's clock never outran the sender's horizon plus lookahead.
    // And the ticker reached the full 20 ms deadline even though the
    // sending shard went idle at 7 ms: idle shards keep publishing
    // horizons, so the lookahead gate releases instead of deadlocking.
    assert_eq!(lines, vec!["seen=[(7, 8)] ticks=20".to_string()]);
    assert_eq!(
        run(),
        lines,
        "shard-boundary schedule must be deterministic"
    );
}
