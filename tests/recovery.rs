//! Failure-recovery conformance (ISSUE 5): P6/P8 under a box crash.
//!
//! A lease-guarded conference loses one member to a seeded `BoxCrash`
//! mid-call. The controller must detect the death from missed
//! heartbeats, reconverge the surviving members without a single lost
//! segment or late mix tick (P6), release every admission charge and
//! fabric route the dead box held, and — after the seeded `BoxRestart`
//! — settle the rejoining box's stale state so it re-enters through
//! normal admission. A counter-scenario with leases disabled shows the
//! mechanism is load-bearing: the dead box's routes and charges leak
//! forever. A final P8 scenario injects sustained cell loss at one
//! member and asserts its health monitor mutes locally, then restores
//! by hysteresis once the loss clears — no controller round-trip.

use std::cell::Cell as StdCell;
use std::rc::Rc;

use pandora::BoxConfig;
use pandora_audio::gen::Speech;
use pandora_faults::{install, FaultKind, FaultPlan, FaultTargets};
use pandora_session::{ControllerConfig, LeaseConfig, LeaseState, Star, StarConfig, StreamClass};
use pandora_sim::{SimDuration, SimTime, Simulation};

/// Everything one crash-soak run observes, for assertions and replay
/// equality. All fields derive from virtual time and seeded inputs, so
/// equal seeds must produce equal outcomes byte for byte.
struct CrashOutcome {
    digest: String,
    recovery_digest: String,
    lease_digest: String,
    timeline: String,
    trace: String,
    node_report: Vec<String>,
    crashes: u64,
    rejoins: u64,
    detect_ns: u64,
    routes_after_reconverge: usize,
    debt_while_dead: usize,
    debt_after_rejoin: usize,
    readmitted_rate: u32,
    dead_recv_at_rejoin: u64,
    dead_recv_final: u64,
    survivor_lost: u64,
    survivor_late: u64,
}

/// A conference of `boxes` members with leases on: node0 fans audio out
/// to node1..=node7 (or all others when smaller), node3 sources its own
/// stream to the last box. node3 crashes at t=2 s and restarts at
/// t=6.5 s; after its lease settles, the driver re-admits it. Leases
/// renew every `interval`, with the probe backoff capped at eight of
/// them (the default's proportions at any heartbeat).
fn run_crash_soak(boxes: usize, seed: u64, interval: SimDuration) -> CrashOutcome {
    assert!(boxes >= 6, "need a source, fan-out, node3 and its listener");
    let mut sim = Simulation::new();
    let star = Star::build(
        &sim.spawner(),
        boxes,
        StarConfig {
            seed,
            controller: ControllerConfig {
                lease: Some(LeaseConfig {
                    interval,
                    backoff_cap: interval.mul(8),
                    ..LeaseConfig::default()
                }),
                ..ControllerConfig::default()
            },
            ..Default::default()
        },
    );
    let mic0 = star.nodes[0]
        .boxy
        .start_audio_source(Box::new(Speech::new(1)));
    let mic3 = star.nodes[3]
        .boxy
        .start_audio_source(Box::new(Speech::new(2)));
    let endpoints: Vec<_> = star.nodes.iter().map(|n| n.endpoint).collect();
    let fan_out: Vec<usize> = (1..boxes.min(8)).collect();
    let controller = star.controller.clone();
    let switch = star.switch.clone();
    let done = Rc::new(StdCell::new(false));
    let routes_after = Rc::new(StdCell::new(usize::MAX));
    let debt_dead = Rc::new(StdCell::new(0usize));
    let debt_rejoin = Rc::new(StdCell::new(usize::MAX));
    let detect_ns = Rc::new(StdCell::new(0u64));
    let readmitted = Rc::new(StdCell::new(0u32));
    let recv_at_rejoin = Rc::new(StdCell::new(0u64));
    let node3_box = star.nodes[3].boxy.clone();
    let (d, ra, dd, dr, dn, rr, rar) = (
        done.clone(),
        routes_after.clone(),
        debt_dead.clone(),
        debt_rejoin.clone(),
        detect_ns.clone(),
        readmitted.clone(),
        recv_at_rejoin.clone(),
    );
    sim.spawn("driver", async move {
        let s0 = controller
            .open(endpoints[0], mic0, StreamClass::Audio)
            .unwrap();
        let s3 = controller
            .open(endpoints[3], mic3, StreamClass::Audio)
            .unwrap();
        for &dst in &fan_out {
            controller.add_listener(s0, endpoints[dst]).await.unwrap();
        }
        controller
            .add_listener(s3, endpoints[boxes - 1])
            .await
            .unwrap();
        // The crash lands at 2 s; wait for the lease to die and the
        // reconvergence to run, then snapshot what it left behind.
        while controller.crashes() == 0 {
            pandora_sim::delay(SimDuration::from_millis(50)).await;
        }
        ra.set(switch.port_route_count(3));
        dd.set(controller.stale_debt(endpoints[3]));
        dn.set(controller.detect_latency_mean_ns() as u64);
        // The restart lands at 6.5 s; wait for the revived lease to
        // settle the stale debt, then re-admit node3 normally.
        while controller.rejoins() == 0 {
            pandora_sim::delay(SimDuration::from_millis(100)).await;
        }
        dr.set(controller.stale_debt(endpoints[3]));
        rar.set(node3_box.speaker.segments_received());
        let admitted = controller.add_listener(s0, endpoints[3]).await.unwrap();
        rr.set(admitted.rate_permille);
        d.set(true);
    });
    let plan = FaultPlan::default().crash_restart(
        "node3",
        SimDuration::from_secs(2),
        SimDuration::from_millis(4_500),
    );
    let trace = install(&sim.spawner(), &plan, &FaultTargets::new());
    sim.run_until(SimTime::from_secs(12));
    assert!(done.get(), "driver never completed the rejoin");
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
    // Survivors: everyone but the crashed box itself.
    let survivors = star.nodes.iter().enumerate().filter(|(i, _)| *i != 3);
    CrashOutcome {
        digest: star.controller.digest(),
        recovery_digest: star.controller.recovery_digest(),
        lease_digest: star.controller.lease_digest(),
        timeline: star.controller.recovery_timeline(),
        trace: trace.to_text(),
        node_report,
        crashes: star.controller.crashes(),
        rejoins: star.controller.rejoins(),
        detect_ns: detect_ns.get(),
        routes_after_reconverge: routes_after.get(),
        debt_while_dead: debt_dead.get(),
        debt_after_rejoin: debt_rejoin.get(),
        readmitted_rate: readmitted.get(),
        dead_recv_at_rejoin: recv_at_rejoin.get(),
        dead_recv_final: star.nodes[3].boxy.speaker.segments_received(),
        survivor_lost: survivors
            .clone()
            .map(|(_, n)| n.boxy.speaker.segments_lost())
            .sum(),
        survivor_late: survivors.map(|(_, n)| n.boxy.speaker.late_ticks()).sum(),
    }
}

/// The acceptance soak: a 16-box lease-guarded conference loses node3
/// mid-call, at heartbeat intervals of 50, 100 and 200 ms. At each:
/// detection within 20 heartbeat intervals, every route and admission
/// charge released, survivors glitch-free (P6), and the restarted box
/// rejoins through normal admission. Across them: detection latency is
/// linear in the heartbeat interval.
#[test]
fn crash_soak_sixteen_boxes_reconverges_glitch_free() {
    let mut detect_ns = Vec::new();
    for heartbeat_ms in [50, 100, 200] {
        let interval = SimDuration::from_millis(heartbeat_ms);
        let out = run_crash_soak(16, 0xFA11, interval);
        println!(
            "crash soak @ {heartbeat_ms} ms heartbeat: {} | timeline:\n{}",
            out.recovery_digest, out.timeline
        );
        assert_eq!(out.crashes, 1, "exactly one reconvergence");
        assert_eq!(out.rejoins, 1, "exactly one rejoin settlement");
        // Detection: the missed-probe backoff walk costs at most
        // 1+1 + 2+1 + 4+1 + 8+1 = 19 intervals from the last renewal.
        assert!(
            out.detect_ns <= 20 * interval.as_nanos(),
            "death detected too slowly at {heartbeat_ms} ms: {} ns",
            out.detect_ns
        );
        detect_ns.push(out.detect_ns);
        // Reconvergence swept every route at the dead port except the
        // re-installed well-known control circuit...
        assert_eq!(
            out.routes_after_reconverge, 1,
            "stray routes left at the dead port"
        );
        // ...and recorded the unreachable box's charges as stale debt:
        // its sink for node0's session, and its own session's fan-out leg.
        assert_eq!(out.debt_while_dead, 2, "stale debt not recorded");
        assert_eq!(out.debt_after_rejoin, 0, "rejoin left debt unsettled");
        // The rejoin re-admitted node3 at full audio rate and its
        // playback resumed: admission works normally after settlement.
        assert_eq!(out.readmitted_rate, 1000, "audio never degraded");
        assert!(
            out.dead_recv_final > out.dead_recv_at_rejoin + 50,
            "no audio flowed after re-admission: {} -> {}",
            out.dead_recv_at_rejoin,
            out.dead_recv_final
        );
        // P6: nobody else noticed. Zero lost segments, zero late mix
        // ticks across all fifteen survivors, through detection,
        // reconvergence and rejoin.
        assert_eq!(out.survivor_lost, 0, "survivors lost segments");
        assert_eq!(out.survivor_late, 0, "survivors glitched");
        // The lease walked live -> suspect -> dead -> live, in that order.
        let (s, dd, l) = (
            out.timeline.find("node3 -> suspect").expect("suspected"),
            out.timeline.find("node3 -> dead").expect("died"),
            out.timeline.rfind("node3 -> live").expect("revived"),
        );
        assert!(
            s < dd && dd < l,
            "lease states out of order:\n{}",
            out.timeline
        );
    }
    // Every wait in the walk is a multiple of the interval on the
    // controller's own clock, so doubling the heartbeat doubles detection.
    assert_eq!(
        [detect_ns[1], detect_ns[2]],
        [2 * detect_ns[0], 4 * detect_ns[0]],
        "detection latency not linear in the heartbeat interval: {detect_ns:?}"
    );
}

/// Same seed, same crash, same recovery — byte for byte: the fault
/// trace, the lease and recovery digests, the state timeline and every
/// box's counters replay identically.
#[test]
fn crash_recovery_replays_byte_identically() {
    let a = run_crash_soak(6, 0xD1CE, SimDuration::from_millis(100));
    let b = run_crash_soak(6, 0xD1CE, SimDuration::from_millis(100));
    assert_eq!(a.trace, b.trace, "fault trace diverged");
    assert_eq!(a.digest, b.digest, "controller digest diverged");
    assert_eq!(a.recovery_digest, b.recovery_digest);
    assert_eq!(a.lease_digest, b.lease_digest);
    assert_eq!(a.timeline, b.timeline, "state timeline diverged");
    assert_eq!(a.node_report, b.node_report, "box counters diverged");
}

/// The counter-scenario: with leases disabled the crash is never
/// noticed — the dead box's fabric route and admission charge leak for
/// the rest of the run, and its agent holds its sink forever.
#[test]
fn leases_disabled_crash_leaks_routes_and_charges() {
    let mut sim = Simulation::new();
    let star = Star::build(
        &sim.spawner(),
        6,
        StarConfig {
            seed: 0xFA11,
            ..Default::default()
        },
    );
    let mic0 = star.nodes[0]
        .boxy
        .start_audio_source(Box::new(Speech::new(1)));
    let endpoints: Vec<_> = star.nodes.iter().map(|n| n.endpoint).collect();
    let eps = endpoints.clone();
    let controller = star.controller.clone();
    let session = Rc::new(StdCell::new(0u32));
    let s = session.clone();
    sim.spawn("driver", async move {
        let endpoints = eps;
        let s0 = controller
            .open(endpoints[0], mic0, StreamClass::Audio)
            .unwrap();
        for &dst in &endpoints[1..=3] {
            controller.add_listener(s0, dst).await.unwrap();
        }
        s.set(s0);
    });
    let plan = FaultPlan::default().event(
        SimDuration::from_secs(2),
        None,
        FaultKind::BoxCrash {
            name: "node3".to_string(),
        },
    );
    let _trace = install(&sim.spawner(), &plan, &FaultTargets::new());
    sim.run_until(SimTime::from_secs(8));
    // Nothing ever detected the death: no lease, no reconvergence.
    assert_eq!(star.controller.lease_state(endpoints[3]), None);
    assert_eq!(star.controller.crashes(), 0);
    // The leak: the dead box's data leg still routed at the fabric
    // (alongside its control circuit), its admission charge still held
    // upstream, its agent still holding the sink it can never release.
    assert_eq!(
        star.switch.port_route_count(3),
        2,
        "expected the leaked leg plus the control circuit"
    );
    assert_eq!(
        star.controller.granted_rate(session.get(), endpoints[3]),
        Some(1000),
        "the dead listener's admission charge should leak"
    );
    assert_eq!(star.nodes[3].agent.active_sinks(), 1, "stale sink");
}

/// A box configuration with the P8 health monitor enabled.
fn health_box(name: &'static str) -> BoxConfig {
    let mut cfg = BoxConfig::standard(name);
    cfg.health = true;
    cfg
}

/// P8 under fault injection: sustained cell loss toward one member
/// engages its *local* audio muting (clean silence instead of gravel,
/// P2 — the stream itself is never degraded), and the hysteresis
/// restores normal playback after the loss clears. No controller round
/// trip is involved; the lease stays live throughout.
#[test]
fn p8_sustained_loss_mutes_locally_then_restores() {
    let mut sim = Simulation::new();
    let star = Star::build(
        &sim.spawner(),
        3,
        StarConfig {
            seed: 0x9EA1,
            box_config: health_box,
            controller: ControllerConfig {
                // Heartbeats share the lossy attachment, so the lease
                // must out-wait a transient burst that P8 handles
                // locally: suspicion is fine, death is not.
                lease: Some(LeaseConfig {
                    dead_after: 8,
                    ..LeaseConfig::default()
                }),
                ..ControllerConfig::default()
            },
            ..Default::default()
        },
    );
    let mic0 = star.nodes[0]
        .boxy
        .start_audio_source(Box::new(Speech::new(1)));
    let endpoints: Vec<_> = star.nodes.iter().map(|n| n.endpoint).collect();
    let eps = endpoints.clone();
    let controller = star.controller.clone();
    sim.spawn("driver", async move {
        let s0 = controller.open(eps[0], mic0, StreamClass::Audio).unwrap();
        controller.add_listener(s0, eps[1]).await.unwrap();
    });
    let mut targets = FaultTargets::new();
    for (name, ctrl) in star.path_controls() {
        targets.register_path(name, ctrl.clone());
    }
    // Half the cells toward node1 vanish for 2 s: far beyond the 5%
    // degrade threshold, sustained across many 250 ms windows.
    let plan = FaultPlan::default().event(
        SimDuration::from_secs(2),
        Some(SimDuration::from_secs(2)),
        FaultKind::CellLossBurst {
            path: "node1.ba".to_string(),
            prob: 0.5,
        },
    );
    let _trace = install(&sim.spawner(), &plan, &targets);
    sim.run_until(SimTime::from_secs(3));
    let speaker = &star.nodes[1].boxy.speaker;
    assert!(
        speaker.muted(),
        "sustained 50% loss never engaged the local mute"
    );
    sim.run_until(SimTime::from_secs(7));
    assert!(
        !speaker.muted(),
        "hysteresis never restored playback after the loss cleared"
    );
    assert!(
        speaker.muted_ticks() > 200,
        "mute window too short: {} ticks",
        speaker.muted_ticks()
    );
    let health = star.nodes[1].boxy.health.as_ref().expect("health enabled");
    assert!(health.windows() >= 20, "monitor never ticked");
    // The burst cost some heartbeats too — the lease may have been
    // suspected — but the tolerant threshold out-waited it: no death,
    // no reconvergence. P8 adaptation stayed strictly local.
    assert_eq!(
        star.controller.lease_state(endpoints[1]),
        Some(LeaseState::Live)
    );
    assert_eq!(star.controller.crashes(), 0);
}
