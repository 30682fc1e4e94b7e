//! Unit tests: the cluster's ports and their deterministic merge.

use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use pandora_prop::{check, Rng, Tape};
use pandora_sim::{delay, delay_until, now, Priority, SimDuration, SimTime};

use crate::Cluster;

#[test]
fn loopback_port_delivers_at_stamped_latency() {
    let mut cluster = Cluster::new(1);
    let (tx_half, rx_half) = cluster.port::<&'static str>(SimDuration::from_millis(3));
    cluster.setup(0, move |env| {
        let tx = env.open_egress(tx_half);
        env.spawner().spawn("src", async move {
            tx.send("x");
            delay(SimDuration::from_millis(1)).await;
            tx.send("y");
        });
        // The port's sink is a call, made at each value's due instant: no
        // task stands behind it.
        let seen = Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        env.bind_ingress_tagged([(rx_half, 0)], move |_, v| {
            seen2
                .borrow_mut()
                .push(format!("t={} v={v}", now().as_nanos()));
        });
        env.on_finish(move || seen.borrow().clone());
    });
    let report = cluster.run(SimTime::from_millis(10));
    assert_eq!(
        report.merged_lines(),
        vec!["t=3000000 v=x".to_string(), "t=4000000 v=y".to_string()]
    );
    // The dispatcher and the source; nothing receives.
    assert_eq!(report.spawned_total, 2);
}

/// One port per latency in `latencies` (µs), all merged into one sink
/// that logs `t=<ns> <value>`; `script` drives the senders from a task of
/// its own. Returns the run's report.
///
/// The script runs at high priority and sleeps on ordinary timers, so in
/// an instant where it and the dispatcher both wake it acts first: every
/// send of an instant is queued before that instant's deliveries, a
/// zero-latency one included.
fn loopback_rig<T, F, Fut>(latencies: &[u64], deadline: SimTime, script: F) -> crate::RunReport
where
    T: std::fmt::Display + 'static,
    F: FnOnce(Vec<crate::PortSender<T>>) -> Fut + 'static,
    Fut: std::future::Future<Output = ()> + 'static,
{
    let mut cluster = Cluster::new(1);
    let (egresses, ingresses): (Vec<_>, Vec<_>) = latencies
        .iter()
        .map(|&us| cluster.port::<T>(SimDuration::from_micros(us)))
        .unzip();
    cluster.setup(0, move |env| {
        let txs = egresses.into_iter().map(|e| env.open_egress(e)).collect();
        let rx = env.bind_ingress_merged(ingresses);
        env.spawner().spawn_prio("src", Priority::High, script(txs));
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
    assert_eq!(report.events(), 2 + 1 + 1 + SENDS);
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

/// Two ports into one merged receiver. The sender deliberately uses the
/// later-created port first, and the two latencies differ so that values
/// sent at different instants fall due together.
#[test]
fn merged_receiver_orders_by_due_then_port_then_send_order() {
    let report = loopback_rig(&[300, 100], SimTime::from_millis(2), |txs| async move {
        let (a, b) = (&txs[0], &txs[1]);
        b.send("b0"); // due 100 µs
        a.send("a0"); // due 300 µs
        delay(SimDuration::from_micros(200)).await;
        b.send("b1"); // due 300 µs, with a0
        b.send("b2");
        a.send("a1"); // due 500 µs
    });
    assert_eq!(
        report.merged_lines(),
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

/// Ports of one latency share a lane; sends made in one instant to them
/// out of port order still arrive in port order, each port's in send
/// order.
#[test]
fn same_latency_sends_in_one_instant_arrive_in_port_order() {
    let report = loopback_rig(
        &[100, 100, 100],
        SimTime::from_millis(1),
        |txs| async move {
            let (a, b, c) = (&txs[0], &txs[1], &txs[2]);
            c.send("c0");
            a.send("a0");
            b.send("b0");
            a.send("a1");
        },
    );
    assert_eq!(
        report.merged_lines(),
        ["t=100000 a0", "t=100000 a1", "t=100000 b0", "t=100000 c0"]
    );
}

/// Seeded schedules over six ports, two or more of them sharing a
/// latency: what arrives is the stable sort of the sends by `(due, port,
/// seq)`, each value at its due instant.
#[test]
fn generated_schedules_deliver_in_merge_key_order() {
    const PORTS: usize = 6;
    const SENDS: usize = 300;
    const LATENCIES_US: [u64; 4] = [0, 100, 300, 500];
    let case = |t: &mut Tape| {
        let mut latencies: Vec<u64> = (0..PORTS)
            .map(|_| LATENCIES_US[t.gen_range(0..4usize)])
            .collect();
        // Six ports over four latencies always share one; make sure the
        // shared pair is not always the same two ports.
        let shared = t.gen_range(0..PORTS);
        latencies[(shared + 1) % PORTS] = latencies[shared];
        // (send instant µs, port): a third of the sends share the previous
        // send's instant.
        let mut at = 0;
        let schedule: Vec<(u64, usize)> = (0..SENDS)
            .map(|_| {
                if t.gen_range(0..3u32) != 0 {
                    at += 1 + t.gen_range(0..400u64);
                }
                (at, t.gen_range(0..PORTS))
            })
            .collect();
        (latencies, schedule)
    };
    check("merge_key_order", 1, 64, case, |(latencies, schedule)| {
        let mut keyed: Vec<((u64, usize, usize), usize)> = Vec::with_capacity(SENDS);
        let mut seqs = [0usize; PORTS];
        for (i, &(at, port)) in schedule.iter().enumerate() {
            keyed.push(((at + latencies[port], port, seqs[port]), i));
            seqs[port] += 1;
        }
        keyed.sort_by_key(|&(key, _)| key);
        let expected: Vec<String> = keyed
            .iter()
            .map(|&((due, _, _), i)| format!("t={} {i}", due * 1_000))
            .collect();

        let deadline = SimTime::from_micros(schedule.last().map_or(0, |&(at, _)| at) + 1_000);
        let schedule = schedule.clone();
        let report = loopback_rig(latencies, deadline, move |txs| async move {
            for (i, (at, port)) in schedule.into_iter().enumerate() {
                let when = SimTime::from_micros(at);
                if when > now() {
                    delay_until(when).await;
                }
                txs[port].send(i);
            }
        });
        assert_eq!(report.merged_lines(), expected);
    });
}

/// Four ports over two lanes, created interleaved and bound to one call
/// last port first: the call hears each value with its own port's tag,
/// in merge order, and a bound port costs its lane eight bytes.
#[test]
fn tagged_ports_hand_one_call_their_tags() {
    assert!(std::mem::size_of::<crate::hub::Slot>() <= 8);
    assert!(std::mem::size_of::<crate::PortSender<u64>>() <= 16);
    let mut cluster = Cluster::new(1);
    let (egresses, ingresses): (Vec<_>, Vec<_>) = [300, 100, 300, 100]
        .map(|us| cluster.port::<&'static str>(SimDuration::from_micros(us)))
        .into_iter()
        .unzip();
    cluster.setup(0, move |env| {
        let txs: Vec<_> = egresses.into_iter().map(|e| env.open_egress(e)).collect();
        env.spawner().spawn("src", async move {
            for (tx, v) in txs.iter().zip(["a", "b", "c", "d"]).rev() {
                tx.send(v);
            }
        });
        let seen = Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        let tagged = ingresses.into_iter().zip([10, 11, 12, 13]).rev();
        env.bind_ingress_tagged(tagged, move |tag, v| {
            seen2
                .borrow_mut()
                .push(format!("t={} {tag} {v}", now().as_nanos()));
        });
        env.on_finish(move || seen.borrow().clone());
    });
    let report = cluster.run(SimTime::from_millis(1));
    assert_eq!(
        report.merged_lines(),
        [
            "t=100000 11 b",
            "t=100000 13 d",
            "t=300000 10 a",
            "t=300000 12 c"
        ]
    );
}

#[test]
fn setups_and_finish_lines_keep_registration_order_whatever_the_shard_argument() {
    let mut cluster = Cluster::new(2);
    for (shard, name) in [(1, "first"), (0, "second"), (1, "third")] {
        cluster.setup(shard, move |env| {
            env.on_finish(move || vec![name.to_string()])
        });
    }
    let report = cluster.run(SimTime::ZERO);
    assert_eq!(report.merged_lines(), ["first", "second", "third"]);
    // The dispatcher is spawned; a zero deadline polls nothing.
    assert_eq!((report.spawned_total, report.events()), (1, 0));
}

#[test]
#[should_panic(expected = "setup shard 2 out of range")]
fn a_setup_shard_out_of_range_panics() {
    Cluster::new(2).setup(2, |_| {});
}

#[test]
#[should_panic(expected = "ingress port 0 bound twice")]
fn binding_an_ingress_twice_panics() {
    use crate::Ingress;
    use std::marker::PhantomData;
    let mut cluster = Cluster::new(1);
    let (_tx, rx) = cluster.port::<u8>(SimDuration::ZERO);
    cluster.setup(0, move |env| {
        let again = Ingress::<u8> {
            port: rx.port,
            latency: rx.latency,
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
    let (tx, _rx) = cluster.port::<u8>(SimDuration::from_micros(1));
    // Setup runs before the clock exists: there is no instant to stamp.
    cluster.setup(0, move |env| env.open_egress(tx).send(1));
    cluster.run(SimTime::from_millis(1));
}

/// A port table sends on the port its slot holds, as that port's own
/// sender would, and refuses a slot that holds none.
#[test]
fn a_port_table_sends_on_each_slots_port() {
    let mut cluster = Cluster::new(1);
    let (egresses, ingresses): (Vec<_>, Vec<_>) = (0..3)
        .map(|_| cluster.port::<u32>(SimDuration::from_micros(5)))
        .unzip();
    cluster.setup(0, move |env| {
        let mut egresses = egresses.into_iter();
        let (a, b, c) = (egresses.next(), egresses.next(), egresses.next());
        // Slot 0 holds port 2, slot 1 nothing, slot 2 port 0, slot 3 port 1.
        let table = env.open_egress_table([c, None, a, b]);
        let seen = Rc::new(std::cell::RefCell::new(Vec::new()));
        let sink = seen.clone();
        let tagged = ingresses.into_iter().zip(0..);
        env.bind_ingress_tagged(tagged, move |port, v| {
            sink.borrow_mut()
                .push(format!("t={} port={port} v={v}", now().as_nanos()));
        });
        env.spawner().spawn("src", async move {
            for slot in [3, 0, 2] {
                table.send(slot, slot as u32 * 10);
            }
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                table.send(1, 0);
            }));
            assert!(refused.is_err(), "slot 1 holds no port");
        });
        env.on_finish(move || seen.borrow().clone());
    });
    let lines = cluster.run(SimTime::from_millis(1)).merged_lines();
    assert_eq!(
        lines,
        [
            "t=5000 port=0 v=20",
            "t=5000 port=1 v=30",
            "t=5000 port=2 v=0"
        ]
    );
}

#[test]
#[should_panic(expected = "a port table's ports share one latency")]
fn a_port_table_of_two_latencies_panics() {
    let mut cluster = Cluster::new(1);
    let (fast, _) = cluster.port::<u8>(SimDuration::ZERO);
    let (slow, _) = cluster.port::<u8>(SimDuration::from_micros(1));
    cluster.setup(0, move |env| {
        env.open_egress_table([Some(fast), Some(slow)]);
    });
    cluster.run(SimTime::from_millis(1));
}

/// A finisher's read that counts its renders.
struct Counted(Arc<AtomicU32>);

impl crate::Render for Counted {
    fn render(self: Box<Self>) -> Vec<String> {
        let renders = self.0.fetch_add(1, Ordering::Relaxed) + 1;
        vec![format!("render {renders}")]
    }
}

fn counted_run(renders: &Arc<AtomicU32>) -> crate::RunReport {
    let mut cluster = Cluster::new(1);
    let renders = renders.clone();
    cluster.setup(0, move |env| env.on_finish(move || Counted(renders)));
    cluster.run(SimTime::from_millis(1))
}

#[test]
fn a_report_dropped_unread_renders_nothing() {
    let renders = Arc::new(AtomicU32::new(0));
    drop(counted_run(&renders));
    assert_eq!(renders.load(Ordering::Relaxed), 0);
}

#[test]
fn a_report_renders_once_however_often_it_is_read() {
    let renders = Arc::new(AtomicU32::new(0));
    let report = counted_run(&renders);
    let first = report.merged_lines();
    assert_eq!(first, ["render 1"]);
    assert_eq!(report.merged_lines(), first);
    assert_eq!(renders.load(Ordering::Relaxed), 1);
}

/// A finisher's value is `Send` (so it holds no `Rc` into the run), and a
/// report can be handed to another thread like the lines it stands for.
#[test]
fn a_report_is_send_and_sync() {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<crate::RunReport>();
}

/// Sets its flag when dropped: held by a task that outlives the deadline,
/// it drops with the simulation.
struct DropFlag(Rc<std::cell::Cell<bool>>);

impl Drop for DropFlag {
    fn drop(&mut self) {
        self.0.set(true);
    }
}

#[test]
fn a_finisher_reads_before_the_simulation_drops() {
    let dropped = Rc::new(std::cell::Cell::new(false));
    let mut cluster = Cluster::new(1);
    let (guard, read) = (DropFlag(dropped.clone()), dropped.clone());
    cluster.setup(0, move |env| {
        env.spawner().spawn("holder", async move {
            let _guard = guard;
            delay(SimDuration::from_secs(1)).await;
        });
        env.on_finish(move || vec![format!("dropped={}", read.get())]);
    });
    let report = cluster.run(SimTime::from_millis(1));
    assert!(dropped.get(), "the simulation dropped the task's guard");
    assert_eq!(report.live_tasks, 2, "the holder and the dispatcher");
    assert_eq!(report.merged_lines(), ["dropped=false"]);
}
