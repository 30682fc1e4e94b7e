//! Unit tests: determinism of the cluster primitives themselves. The
//! full topology equivalence suite lives in tests/sharded_equivalence.rs
//! at the workspace root.

use std::cell::Cell;
use std::rc::Rc;

use pandora_sim::{delay, now, SimDuration, SimTime};

use crate::Cluster;

/// Two boxes ping-ponging a counter across one duplex link, placed
/// either together (1 shard) or apart (2 shards). Returns the merged
/// trace lines.
fn ping_pong(shards: usize, rounds: u32) -> Vec<String> {
    assert!(shards == 1 || shards == 2);
    let mut cluster = Cluster::new(shards);
    let lat = SimDuration::from_micros(50);
    let shard_b = shards - 1;
    let (a2b_tx, a2b_rx) = cluster.port::<u32>(0, shard_b, lat, "a2b");
    let (b2a_tx, b2a_rx) = cluster.port::<u32>(shard_b, 0, lat, "b2a");

    cluster.setup(0, move |env| {
        let tx = env.open_egress(a2b_tx);
        let rx = env.bind_ingress(b2a_rx);
        let log = Rc::new(std::cell::RefCell::new(Vec::new()));
        let log2 = log.clone();
        env.spawner().spawn("box:a", async move {
            tx.send(0);
            while let Ok(v) = rx.recv().await {
                log2.borrow_mut()
                    .push(format!("a t={} v={v}", now().as_nanos()));
                if v >= rounds {
                    break;
                }
                tx.send(v + 1);
            }
        });
        env.on_finish(move || log.borrow().clone());
    });
    cluster.setup(shard_b, move |env| {
        let tx = env.open_egress(b2a_tx);
        let rx = env.bind_ingress(a2b_rx);
        let log = Rc::new(std::cell::RefCell::new(Vec::new()));
        let log2 = log.clone();
        env.spawner().spawn("box:b", async move {
            while let Ok(v) = rx.recv().await {
                log2.borrow_mut()
                    .push(format!("b t={} v={v}", now().as_nanos()));
                delay(SimDuration::from_micros(10)).await;
                tx.send(v + 1);
            }
        });
        env.on_finish(move || log.borrow().clone());
    });

    let report = cluster.run(SimTime::from_millis(50));
    report.merged_lines()
}

#[test]
fn two_shard_ping_pong_matches_single_shard() {
    let single = ping_pong(1, 40);
    let sharded = ping_pong(2, 40);
    assert!(!single.is_empty(), "trace must not be empty");
    assert_eq!(single, sharded);
}

#[test]
fn loopback_port_delivers_at_stamped_latency() {
    let mut cluster = Cluster::new(1);
    let (tx_half, rx_half) =
        cluster.port::<&'static str>(0, 0, SimDuration::from_millis(3), "loop");
    cluster.setup(0, move |env| {
        let tx = env.open_egress(tx_half);
        let rx = env.bind_ingress(rx_half);
        env.spawner().spawn("src", async move {
            tx.send("x");
            delay(SimDuration::from_millis(1)).await;
            tx.send("y");
        });
        let seen = Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        env.spawner().spawn("sink", async move {
            while let Ok(v) = rx.recv().await {
                seen2
                    .borrow_mut()
                    .push(format!("t={} v={v}", now().as_nanos()));
            }
        });
        env.on_finish(move || seen.borrow().clone());
    });
    let report = cluster.run(SimTime::from_millis(10));
    assert_eq!(
        report.merged_lines(),
        vec!["t=3000000 v=x".to_string(), "t=4000000 v=y".to_string()]
    );
}

#[test]
fn hub_wake_between_slices_is_honoured_by_the_next_slice() {
    // What the runner does at every slice start: entries pushed and the
    // dispatcher woken from outside any poll, then `run_until`.
    let mut sim = pandora_sim::Simulation::new();
    let hub = crate::hub::IngressHub::new(8);
    let seen = Rc::new(Cell::new(0u64));
    let s = seen.clone();
    hub.register_sink(7, Box::new(move |_| s.set(now().as_nanos())));
    sim.spawn("dispatch", crate::hub::Dispatcher::new(hub.clone()));
    sim.run_until(SimTime::from_millis(1));
    hub.push_raw(crate::exchange::RawEntry {
        due: 2_000_000,
        port: 7,
        seq: 0,
        payload: Box::new(()),
    });
    hub.wake();
    sim.run_until(SimTime::from_millis(3));
    assert_eq!(seen.get(), 2_000_000, "delivered at its due time");
}

/// One shard, one loopback port per latency in `latencies` (µs), all
/// merged into one sink that logs `t=<ns> <value>`; `script` drives the
/// senders from a task of its own. Returns the run's report.
fn loopback_rig<F, Fut>(latencies: &[u64], deadline: SimTime, script: F) -> crate::RunReport
where
    F: FnOnce(Vec<crate::PortSender<&'static str>>) -> Fut + Send + 'static,
    Fut: std::future::Future<Output = ()> + 'static,
{
    let mut cluster = Cluster::new(1);
    let (egresses, ingresses): (Vec<_>, Vec<_>) = latencies
        .iter()
        .map(|&us| cluster.port::<&'static str>(0, 0, SimDuration::from_micros(us), "loop"))
        .unzip();
    cluster.setup(0, move |env| {
        let txs = egresses.into_iter().map(|e| env.open_egress(e)).collect();
        let rx = env.bind_ingress_merged(ingresses);
        env.spawner().spawn("src", script(txs));
        let seen = Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        env.spawner().spawn("sink", async move {
            while let Ok(v) = rx.recv().await {
                seen2
                    .borrow_mut()
                    .push(format!("t={} {v}", now().as_nanos()));
            }
        });
        env.on_finish(move || seen.borrow().clone());
    });
    cluster.run(deadline)
}

#[test]
fn loopback_send_due_after_the_armed_head_does_not_poll_the_dispatcher() {
    const SENDS: u64 = 100;
    // Stops before anything falls due, so every poll counted is one of:
    // the dispatcher's first poll and the one the head's send brings
    // (it arms for 10 ms), the sink's first poll, and the script's
    // first poll plus one per delay. None of the later sends — all due
    // after the armed instant — costs the dispatcher a poll.
    let report = loopback_rig(
        &[10_000, 20_000],
        SimTime::from_millis(1),
        |txs| async move {
            txs[0].send("head");
            for _ in 0..SENDS {
                delay(SimDuration::from_micros(1)).await;
                txs[1].send("later");
            }
        },
    );
    assert_eq!(report.ctx_switches, [2 + 1 + 1 + SENDS]);
}

#[test]
fn loopback_send_due_before_the_armed_head_rearms_and_arrives_at_its_own_instant() {
    let report = loopback_rig(
        &[5_000, 1_000],
        SimTime::from_millis(10),
        |txs| async move {
            txs[0].send("far"); // due 5 ms: the dispatcher arms for it
            delay(SimDuration::from_millis(1)).await;
            txs[1].send("near"); // due 2 ms: the head moves
        },
    );
    assert_eq!(report.merged_lines(), ["t=2000000 near", "t=5000000 far"]);
}

#[test]
fn zero_latency_loopback_is_delivered_in_the_instant_it_was_sent() {
    let report = loopback_rig(&[0, 5_000], SimTime::from_millis(10), |txs| async move {
        txs[0].send("z0"); // nothing armed
        delay(SimDuration::from_millis(1)).await;
        txs[1].send("far"); // due 6 ms
        delay(SimDuration::from_millis(2)).await;
        txs[0].send("z3"); // armed for 6 ms, due now
    });
    assert_eq!(
        report.merged_lines(),
        ["t=0 z0", "t=3000000 z3", "t=6000000 far"]
    );
}

#[test]
fn idle_shard_still_publishes_horizons() {
    // Shard 1 has no tasks at all; shard 0 depends on it through a port
    // that never carries traffic. The run must still reach the deadline.
    let mut cluster = Cluster::new(2);
    let (_quiet_tx, quiet_rx) = cluster.port::<u8>(1, 0, SimDuration::from_micros(100), "quiet");
    cluster.setup(0, move |env| {
        let _rx = env.bind_ingress(quiet_rx);
        let ticks = Rc::new(Cell::new(0u32));
        let ticks2 = ticks.clone();
        env.spawner().spawn("ticker", async move {
            loop {
                delay(SimDuration::from_millis(1)).await;
                ticks2.set(ticks2.get() + 1);
            }
        });
        env.on_finish(move || vec![format!("ticks={}", ticks.get())]);
    });
    // Opening the egress with a sender we never use keeps the port
    // honest.
    cluster.setup(1, move |env| {
        let _tx = env.open_egress(_quiet_tx);
    });
    let report = cluster.run(SimTime::from_millis(20));
    assert_eq!(report.merged_lines(), vec!["ticks=20".to_string()]);
}

#[test]
#[should_panic(expected = "zero-latency cross-shard link rejected")]
fn zero_latency_cross_shard_port_is_rejected() {
    let mut cluster = Cluster::new(2);
    let _ = cluster.port::<u8>(0, 1, SimDuration::ZERO, "bad");
}

#[test]
fn setup_panic_propagates_without_hanging_other_shards() {
    let result = std::panic::catch_unwind(|| {
        let mut cluster = Cluster::new(2);
        let (tx, rx) = cluster.port::<u8>(0, 1, SimDuration::from_micros(1), "p");
        cluster.setup(0, move |env| {
            let _tx = env.open_egress(tx);
        });
        cluster.setup(1, move |env| {
            let _rx = env.bind_ingress(rx);
            panic!("boom in setup");
        });
        cluster.run(SimTime::from_millis(1));
    });
    let payload = result.expect_err("run must re-raise the shard panic");
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .map(String::from)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("boom in setup"), "unexpected payload: {msg}");
}

/// Two ports into one merged receiver. The sender deliberately uses the
/// later-created port first, and the two latencies differ so that values
/// sent at different instants fall due together. Returns the arrivals as
/// `t=<ns> <value>` lines.
fn merged_fan_in(shards: usize) -> Vec<String> {
    assert!(shards == 1 || shards == 2);
    let mut cluster = Cluster::new(shards);
    let from = shards - 1;
    let (a_tx, a_rx) = cluster.port::<&'static str>(from, 0, SimDuration::from_micros(300), "a");
    let (b_tx, b_rx) = cluster.port::<&'static str>(from, 0, SimDuration::from_micros(100), "b");
    cluster.setup(from, move |env| {
        let (a, b) = (env.open_egress(a_tx), env.open_egress(b_tx));
        env.spawner().spawn("src", async move {
            b.send("b0"); // due 100 µs
            a.send("a0"); // due 300 µs
            delay(SimDuration::from_micros(200)).await;
            b.send("b1"); // due 300 µs, with a0
            b.send("b2");
            a.send("a1"); // due 500 µs
        });
    });
    cluster.setup(0, move |env| {
        let rx = env.bind_ingress_merged([a_rx, b_rx]);
        let seen = Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        env.spawner().spawn("sink", async move {
            while let Ok(v) = rx.recv().await {
                seen2
                    .borrow_mut()
                    .push(format!("t={} {v}", now().as_nanos()));
            }
        });
        env.on_finish(move || seen.borrow().clone());
    });
    cluster.run(SimTime::from_millis(2)).merged_lines()
}

#[test]
fn merged_receiver_orders_by_due_then_port_then_send_order() {
    assert_eq!(
        merged_fan_in(1),
        vec![
            "t=100000 b0",
            // Equal due times: port-creation order (a before b), then
            // each port's own send order.
            "t=300000 a0",
            "t=300000 b1",
            "t=300000 b2",
            "t=500000 a1",
        ]
    );
}

#[test]
fn merged_receiver_is_identical_over_loopback_and_exchange() {
    assert_eq!(merged_fan_in(1), merged_fan_in(2));
}

#[test]
#[should_panic(expected = "ingress port 0 bound twice")]
fn binding_an_ingress_twice_panics() {
    use crate::Ingress;
    use std::marker::PhantomData;
    let mut cluster = Cluster::new(1);
    let (_tx, rx) = cluster.port::<u8>(0, 0, SimDuration::ZERO, "p");
    cluster.setup(0, move |env| {
        let again = Ingress::<u8> {
            port: rx.port,
            to: rx.to,
            _payload: PhantomData,
        };
        let _rx = env.bind_ingress_merged([rx, again]);
    });
    cluster.run(SimTime::from_millis(1));
}

#[test]
#[should_panic(expected = "not inside a simulation")]
fn port_send_outside_a_task_panics() {
    let mut cluster = Cluster::new(1);
    let (tx, _rx) = cluster.port::<u8>(0, 0, SimDuration::from_micros(1), "p");
    // Setup runs before the clock exists: there is no instant to stamp.
    cluster.setup(0, move |env| env.open_egress(tx).send(1));
    cluster.run(SimTime::from_millis(1));
}
