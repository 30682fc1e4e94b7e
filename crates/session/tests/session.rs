//! Conference control-plane integration: call setup, seeded membership
//! churn (P6: no playback gaps at bystanders), admission under
//! deliberate overload, byte-identical replay, and signalling liveness
//! under link flaps (P4).

use std::cell::Cell as StdCell;
use std::rc::Rc;

use pandora_audio::gen::Speech;
use pandora_faults::{install, FaultKind, FaultPlan, FaultTargets};
use pandora_session::{
    Capabilities, ControllerConfig, SessionError, Star, StarConfig, StreamClass,
};
use pandora_sim::{SimDuration, SimTime, Simulation};

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[test]
fn call_setup_streams_audio_then_tears_down() {
    let mut sim = Simulation::new();
    let star = Star::build(
        &sim.spawner(),
        3,
        StarConfig {
            seed: 42,
            ..Default::default()
        },
    );
    let mic = star.nodes[0]
        .boxy
        .start_audio_source(Box::new(Speech::new(1)));
    let controller = star.controller.clone();
    let switch = star.switch.clone();
    let (src, dst) = (star.nodes[0].endpoint, star.nodes[1].endpoint);
    let done = Rc::new(StdCell::new(false));
    let d = done.clone();
    sim.spawn("driver", async move {
        let session = controller.open(src, mic, StreamClass::Audio).unwrap();
        // The listener's fabric port gains one route, and loses it again:
        // a removed listener leaves no route behind.
        let routes = switch.port_route_count(1);
        let admitted = controller.add_listener(session, dst).await.unwrap();
        assert_eq!(admitted.rate_permille, 1000, "audio never degraded");
        assert_eq!(switch.port_route_count(1), routes + 1);
        pandora_sim::delay(SimDuration::from_secs(2)).await;
        controller.remove_listener(session, dst).await.unwrap();
        assert_eq!(switch.port_route_count(1), routes, "the route leaked");
        controller.close(session).await.unwrap();
        assert_eq!(controller.listeners(session), 0);
        d.set(true);
    });
    sim.run_until(SimTime::from_secs(3));
    assert!(done.get(), "driver did not finish");
    let listener = &star.nodes[1];
    assert!(
        listener.boxy.speaker.segments_received() > 50,
        "audio did not flow: {} segments",
        listener.boxy.speaker.segments_received()
    );
    assert_eq!(listener.boxy.speaker.segments_lost(), 0);
    assert_eq!(listener.boxy.speaker.late_ticks(), 0);
    assert_eq!(star.controller.setups(), 1);
    assert_eq!(star.controller.reconfigs(), 1, "the teardown reconfigured");
    // Teardown refunded the admission charge.
    assert_eq!(listener.agent.active_sinks(), 0);
    assert!(listener.agent.handled() >= 2, "OpenSink and CloseSink");
}

/// Outcome of one seeded churn run, for assertions and replay equality.
struct ChurnOutcome {
    digest: String,
    node_report: Vec<String>,
    reconfigs: u64,
    rejections: u64,
    late_total: u64,
    lost_total: u64,
    anchor_received: u64,
}

/// Two speakers (node0, node1), an anchor listener (node2) joined to
/// both for the whole run, and nodes 3.. joining/leaving either session
/// on a seeded schedule, one operation per `step`.
fn run_churn(boxes: usize, steps: u64, step: SimDuration, seed: u64) -> ChurnOutcome {
    assert!(boxes >= 4, "need two speakers, an anchor and churners");
    let mut sim = Simulation::new();
    let star = Star::build(
        &sim.spawner(),
        boxes,
        StarConfig {
            seed,
            ..Default::default()
        },
    );
    let mic0 = star.nodes[0]
        .boxy
        .start_audio_source(Box::new(Speech::new(1)));
    let mic1 = star.nodes[1]
        .boxy
        .start_audio_source(Box::new(Speech::new(2)));
    let endpoints: Vec<_> = star.nodes.iter().map(|n| n.endpoint).collect();
    let controller = star.controller.clone();
    let done = Rc::new(StdCell::new(false));
    let d = done.clone();
    sim.spawn("churn", async move {
        let s0 = controller
            .open(endpoints[0], mic0, StreamClass::Audio)
            .unwrap();
        let s1 = controller
            .open(endpoints[1], mic1, StreamClass::Audio)
            .unwrap();
        controller.add_listener(s0, endpoints[2]).await.unwrap();
        controller.add_listener(s1, endpoints[2]).await.unwrap();
        let mut rng = seed | 1;
        let mut joined = vec![[false; 2]; boxes];
        for _ in 0..steps {
            pandora_sim::delay(step).await;
            let r = xorshift(&mut rng);
            let node = 3 + (r as usize % (boxes - 3));
            let si = ((r >> 8) & 1) as usize;
            let sess = if si == 0 { s0 } else { s1 };
            if joined[node][si] {
                controller
                    .remove_listener(sess, endpoints[node])
                    .await
                    .unwrap();
                joined[node][si] = false;
            } else {
                match controller.add_listener(sess, endpoints[node]).await {
                    Ok(_) => joined[node][si] = true,
                    Err(SessionError::Rejected(_)) => {}
                    Err(e) => panic!("churn operation failed: {e:?}"),
                }
            }
        }
        d.set(true);
    });
    let horizon = SimDuration(step.as_nanos() * steps) + SimDuration::from_secs(1);
    sim.run_until(SimTime::ZERO + horizon);
    assert!(done.get(), "churn driver did not finish");
    let node_report = star
        .nodes
        .iter()
        .map(|n| {
            format!(
                "recv={} lost={} late={} handled={} sinks={}",
                n.boxy.speaker.segments_received(),
                n.boxy.speaker.segments_lost(),
                n.boxy.speaker.late_ticks(),
                n.agent.handled(),
                n.agent.active_sinks(),
            )
        })
        .collect();
    ChurnOutcome {
        digest: star.controller.digest(),
        node_report,
        reconfigs: star.controller.reconfigs(),
        rejections: star.controller.rejections(),
        late_total: star.nodes.iter().map(|n| n.boxy.speaker.late_ticks()).sum(),
        lost_total: star
            .nodes
            .iter()
            .map(|n| n.boxy.speaker.segments_lost())
            .sum(),
        anchor_received: star.nodes[2].boxy.speaker.segments_received(),
    }
}

/// The acceptance soak: a 16-box conference churning for 10k one-ms sim
/// ticks. Every reconfiguration must leave every member's playback
/// untouched: zero lost segments, zero late mix ticks anywhere (P6).
#[test]
fn churn_soak_sixteen_boxes_glitch_free() {
    let out = run_churn(16, 1_000, SimDuration::from_millis(10), 0xC0FFEE);
    println!(
        "soak: {} | anchor heard {} segments, {} late / {} lost across 16 boxes",
        out.digest, out.anchor_received, out.late_total, out.lost_total
    );
    assert!(
        out.reconfigs > 300,
        "not enough churn to count as a soak: {} reconfigs",
        out.reconfigs
    );
    assert_eq!(out.rejections, 0, "budgets were sized to fit");
    assert_eq!(
        out.late_total, 0,
        "playback glitched during reconfiguration"
    );
    assert_eq!(out.lost_total, 0, "segments lost during reconfiguration");
    assert!(
        out.anchor_received > 1_000,
        "anchor heard only {} segments",
        out.anchor_received
    );
}

/// Same seed, same history — the whole conference, control plane
/// included, replays identically.
#[test]
fn churn_replays_byte_identically() {
    let a = run_churn(5, 60, SimDuration::from_millis(20), 7);
    let b = run_churn(5, 60, SimDuration::from_millis(20), 7);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.node_report, b.node_report);
    // And a different seed actually changes the history.
    let c = run_churn(5, 60, SimDuration::from_millis(20), 8);
    assert_ne!(a.digest, c.digest);
}

/// Deliberate overload: tiny budgets make admission refuse (sink budget
/// downstream, link budget upstream) while the admitted stream keeps
/// playing cleanly — reject, never oversubscribe.
#[test]
fn admission_rejects_overload_and_rolls_back() {
    let mut sim = Simulation::new();
    let star = Star::build(
        &sim.spawner(),
        4,
        StarConfig {
            seed: 9,
            caps: Capabilities {
                audio_sinks_max: 1,
                video_sinks_max: 1,
                link_cps: 1_200,
            },
            ..Default::default()
        },
    );
    let mic0 = star.nodes[0]
        .boxy
        .start_audio_source(Box::new(Speech::new(1)));
    let mic1 = star.nodes[1]
        .boxy
        .start_audio_source(Box::new(Speech::new(2)));
    let endpoints: Vec<_> = star.nodes.iter().map(|n| n.endpoint).collect();
    let controller = star.controller.clone();
    let done = Rc::new(StdCell::new(false));
    let d = done.clone();
    sim.spawn("driver", async move {
        let s0 = controller
            .open(endpoints[0], mic0, StreamClass::Audio)
            .unwrap();
        let s1 = controller
            .open(endpoints[1], mic1, StreamClass::Audio)
            .unwrap();
        // node0's transmit budget (1200 cps) fits two 500-cps copies.
        controller.add_listener(s0, endpoints[1]).await.unwrap();
        controller.add_listener(s0, endpoints[2]).await.unwrap();
        // The third copy busts the source's link budget; the sink opened
        // downstream for it must be rolled back.
        let e = controller.add_listener(s0, endpoints[3]).await.unwrap_err();
        assert!(matches!(e, SessionError::Rejected(_)), "{e:?}");
        // node2 already sinks one audio stream and its budget is one.
        let e = controller.add_listener(s1, endpoints[2]).await.unwrap_err();
        assert!(matches!(e, SessionError::Rejected(_)), "{e:?}");
        pandora_sim::delay(SimDuration::from_secs(1)).await;
        d.set(true);
    });
    sim.run_until(SimTime::from_secs(2));
    assert!(done.get(), "driver did not finish");
    assert_eq!(star.controller.rejections(), 2);
    // The rolled-back sink left no state behind at node3.
    assert_eq!(star.nodes[3].agent.active_sinks(), 0);
    assert_eq!(star.nodes[3].boxy.speaker.segments_received(), 0);
    // The admitted streams kept playing cleanly through the rejections.
    for i in [1, 2] {
        assert!(star.nodes[i].boxy.speaker.segments_received() > 50);
        assert_eq!(star.nodes[i].boxy.speaker.segments_lost(), 0);
        assert_eq!(star.nodes[i].boxy.speaker.late_ticks(), 0);
    }
}

/// P4: signalling rides the command path and stays live across link
/// flaps — a setup issued while the member's attachment is down times
/// out, retries, and completes once the link returns.
#[test]
fn signalling_survives_link_flap() {
    let mut sim = Simulation::new();
    let star = Star::build(
        &sim.spawner(),
        3,
        StarConfig {
            seed: 5,
            controller: ControllerConfig {
                reply_timeout: SimDuration::from_millis(200),
                retries: 5,
                ..ControllerConfig::default()
            },
            ..Default::default()
        },
    );
    let mut targets = FaultTargets::new();
    for (name, ctrl) in star.path_controls() {
        targets.register_path(name, ctrl.clone());
    }
    // node1's attachment flaps: down at 50ms, back at 650ms — longer
    // than the reply timeout, so the first attempts must expire.
    let plan = FaultPlan::scripted(vec![])
        .event(
            SimDuration::from_millis(50),
            Some(SimDuration::from_millis(600)),
            FaultKind::LinkDown {
                path: "node1.ab".to_string(),
                hop: 0,
            },
        )
        .event(
            SimDuration::from_millis(50),
            Some(SimDuration::from_millis(600)),
            FaultKind::LinkDown {
                path: "node1.ba".to_string(),
                hop: 0,
            },
        );
    let _trace = install(&sim.spawner(), &plan, &targets);
    let mic = star.nodes[0]
        .boxy
        .start_audio_source(Box::new(Speech::new(1)));
    let controller = star.controller.clone();
    let endpoints: Vec<_> = star.nodes.iter().map(|n| n.endpoint).collect();
    let done = Rc::new(StdCell::new(false));
    let d = done.clone();
    sim.spawn("driver", async move {
        let session = controller
            .open(endpoints[0], mic, StreamClass::Audio)
            .unwrap();
        pandora_sim::delay(SimDuration::from_millis(100)).await;
        // Issued mid-flap: must eventually succeed, not error out.
        controller
            .add_listener(session, endpoints[1])
            .await
            .unwrap();
        pandora_sim::delay(SimDuration::from_secs(1)).await;
        d.set(true);
    });
    sim.run_until(SimTime::from_secs(3));
    assert!(done.get(), "setup never completed across the flap");
    assert!(
        star.controller.timeouts() >= 1,
        "flap outlasted the timeout, yet nothing expired"
    );
    assert!(
        star.nodes[1].boxy.speaker.segments_received() > 50,
        "audio did not flow after the flap: {}",
        star.nodes[1].boxy.speaker.segments_received()
    );
    assert_eq!(star.nodes[1].boxy.speaker.late_ticks(), 0);
}
