//! Cross-executor equivalence suite (ISSUE 7): the sharded parallel
//! executor must be *observationally invisible*. Every scenario here is
//! built once over a `pandora-shard` [`Cluster`] and run at shard counts
//! {1, 2, 4, 8}; the single-shard run — which spawns no OS threads and
//! is exactly today's single-threaded executor — is the baseline, and
//! every other shard count must reproduce its trace byte for byte:
//! box counters, controller digests, recovery timelines and fault
//! traces alike.
//!
//! Placement is always by contiguous index ranges (`i * shards / n`),
//! which is monotonic — so `RunReport::merged_lines` (shard order, then
//! registration order) yields the same line sequence for every shard
//! count and traces can be compared directly, not as sorted sets.

use std::cell::Cell as StdCell;
use std::rc::Rc;

use pandora::{BoxConfig, OutputId, PandoraBox, StreamKind};
use pandora_atm::{HopConfig, Vci};
use pandora_audio::gen::{Speech, Tone};
use pandora_faults::{install_scoped, FaultKind, FaultPlan, FaultTargets, RandomProfile};
use pandora_segment::StreamId;
use pandora_session::{
    build_sharded_pair, build_sharded_star, ControllerConfig, LeaseConfig, NodeHook, NodeSeat,
    ShardedPairConfig, StarConfig, StreamClass,
};
use pandora_shard::{Cluster, ShardEnv};
use pandora_sim::{SimDuration, SimTime};
use pandora_video::dpcm::LineMode;
use pandora_video::{CaptureConfig, RateFraction, Rect};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The conformance suite's small videophone capture window.
fn video_cfg() -> CaptureConfig {
    CaptureConfig {
        rect: Rect::new(16, 16, 128, 96),
        rate: RateFraction::new(2, 5),
        lines_per_segment: 32,
        mode: LineMode::Dpcm,
    }
}

/// Deterministic one-line metric snapshot of a box — integer counters
/// only, same fields as the fault-conformance suite's snapshot.
fn box_snapshot(label: &str, b: &PandoraBox) -> String {
    format!(
        "{label}: fwd={} sw_drop={} no_route={} p3={} tx_audio={} tx_video={} cells={} \
         rx_seg={} rx_discard={} rx_decode_err={} pool_exh={} \
         spk_recv={} spk_lost={} spk_late={} concealed={} disp_frames={}",
        b.switch_stats.forwarded(),
        b.switch_stats.dropped_total(),
        b.switch_stats.no_route(),
        b.net_out_stats.p3_drops_total(),
        b.net_out_stats.audio_segments(),
        b.net_out_stats.video_segments(),
        b.net_out_stats.cells(),
        b.net_in_stats.segments(),
        b.net_in_stats.frames_discarded(),
        b.net_in_stats.decode_errors(),
        b.net_in_stats.pool_exhausted(),
        b.speaker.segments_received(),
        b.speaker.segments_lost(),
        b.speaker.late_ticks(),
        b.speaker.concealed(),
        b.display.frames_shown(),
    )
}

// ---------------------------------------------------------------------
// Scenario 1a: videophone — audio + video shout a → b over a sharded
// pair.
// ---------------------------------------------------------------------

fn run_videophone(shards: usize) -> Vec<String> {
    let mut cluster = Cluster::new(shards);
    build_sharded_pair(
        &mut cluster,
        ShardedPairConfig {
            hops: vec![HopConfig::clean(50_000_000)],
            seed: 7,
            box_config: BoxConfig::standard,
            link_latency: SimDuration::from_micros(20),
        },
        shards - 1,
        |env, seat| {
            // Source side: routes toward b are installed at t = 0, once
            // the blackboard carries b's allocated stream ids.
            let boxy = seat.boxy.clone();
            let bb = env.blackboard().clone();
            env.spawner().spawn("call:src", async move {
                let audio_dst: StreamId = bb.expect("pair.audio_dst");
                let video_dst: StreamId = bb.expect("pair.video_dst");
                let mic = boxy.start_audio_source(Box::new(Tone::new(440.0, 8_000.0)));
                boxy.set_route(
                    mic,
                    StreamKind::Audio,
                    vec![OutputId::Network(Vci::from_stream(audio_dst))],
                );
                let (cam, _handle) = boxy.start_video_capture(video_cfg());
                boxy.set_route(
                    cam,
                    StreamKind::Video,
                    vec![OutputId::Network(Vci::from_stream(video_dst))],
                );
            });
            let boxy = seat.boxy.clone();
            env.on_finish(move || vec![box_snapshot("a", &boxy)]);
        },
        |env, seat| {
            // Sink side: allocate the arriving streams during setup and
            // publish their ids for the source's t = 0 task.
            let audio = seat.boxy.alloc_stream();
            seat.boxy
                .set_route(audio, StreamKind::Audio, vec![OutputId::Audio]);
            let video = seat.boxy.alloc_stream();
            seat.boxy
                .set_route(video, StreamKind::Video, vec![OutputId::Mixer]);
            env.blackboard().put("pair.audio_dst", audio);
            env.blackboard().put("pair.video_dst", video);
            let boxy = seat.boxy.clone();
            env.on_finish(move || vec![box_snapshot("b", &boxy)]);
        },
    );
    cluster.run(SimTime::from_secs(2)).merged_lines()
}

#[test]
fn videophone_trace_is_identical_across_shard_counts() {
    let baseline = run_videophone(1);
    let b_line = baseline
        .iter()
        .find(|l| l.starts_with("b:"))
        .expect("sink snapshot");
    assert!(
        !b_line.contains("spk_recv=0"),
        "no audio reached b: {b_line}"
    );
    assert!(
        !b_line.contains("disp_frames=0"),
        "no video reached b: {b_line}"
    );
    for shards in &SHARD_COUNTS[1..] {
        assert_eq!(
            run_videophone(*shards),
            baseline,
            "{shards} shards diverged"
        );
    }
}

// ---------------------------------------------------------------------
// Scenario 1b + 1c + 2: conferences over a sharded star — plain,
// crash-reconvergence, and the seeded fault sweep — share one harness.
// ---------------------------------------------------------------------

/// What adversity a conference run faces.
#[derive(Clone, Copy)]
enum Adversity {
    /// No faults at all.
    None,
    /// The ISSUE-5 crash: node3 dies at 2 s, restarts at 6.5 s, and the
    /// driver re-admits it after the lease settles.
    CrashReconverge,
    /// A seeded random plan (loss, corruption, latency, link flaps on
    /// every attachment path) plus a node3 crash/restart.
    Sweep(u64),
}

/// The fault plan every installer derives independently; scoping picks
/// each shard's slice. Must be a pure function of the scenario so all
/// shards agree on it.
fn conference_plan(adversity: Adversity, boxes: usize) -> Option<FaultPlan> {
    match adversity {
        Adversity::None => None,
        Adversity::CrashReconverge => Some(FaultPlan::default().crash_restart(
            "node3",
            SimDuration::from_secs(2),
            SimDuration::from_millis(4_500),
        )),
        Adversity::Sweep(seed) => {
            let mut profile = RandomProfile::new(SimDuration::from_secs(8), 10);
            for i in 0..boxes {
                profile.paths.push(format!("node{i}.ab"));
                profile.paths.push(format!("node{i}.ba"));
            }
            Some(FaultPlan::random(seed, &profile).crash_restart(
                "node3",
                SimDuration::from_millis(4_200),
                SimDuration::from_millis(2_300),
            ))
        }
    }
}

/// Installs the scenario's plan on the current shard, scoped to the
/// targets owned by attachment `name` (its two path directions and its
/// box-name faults), and reports the scoped trace at finish.
fn install_for(
    env: &mut ShardEnv,
    seat_name: &'static str,
    path_controls: &[(String, pandora_atm::PathControl)],
    plan: &FaultPlan,
) {
    let mut targets = FaultTargets::new();
    for (name, ctrl) in path_controls {
        targets.register_path(name, ctrl.clone());
    }
    let trace = install_scoped(env.spawner(), plan, &targets, move |kind: &FaultKind| {
        let t = kind.target_name();
        t == seat_name
            || t.strip_prefix(seat_name)
                .is_some_and(|rest| rest == ".ab" || rest == ".ba")
    });
    env.on_finish(move || trace.to_text().lines().map(String::from).collect());
}

fn run_conference(shards: usize, boxes: usize, adversity: Adversity) -> Vec<String> {
    assert!(boxes >= 6, "need a source, fan-out, node3 and its listener");
    let lease = matches!(adversity, Adversity::CrashReconverge | Adversity::Sweep(_));
    let mut cluster = Cluster::new(shards);
    let place = move |i: usize| i * shards / boxes;

    let node_hooks: Vec<NodeHook> = (0..boxes)
        .map(|i| {
            let hook = move |env: &mut ShardEnv, seat: &NodeSeat| {
                // Sources: node0 fans out to the conference, node3 runs
                // its own stream to the last box (so its crash leaves
                // both a sink and a source to clean up).
                if i == 0 || i == 3 {
                    let mic = seat
                        .boxy
                        .start_audio_source(Box::new(Speech::new(if i == 0 { 1 } else { 2 })));
                    env.blackboard().put(&format!("mic{i}"), mic);
                }
                if let Some(plan) = conference_plan(adversity, boxes) {
                    install_for(env, seat.name, &seat.path_controls, &plan);
                }
                let boxy = seat.boxy.clone();
                let agent = seat.agent.clone();
                let name = seat.name;
                env.on_finish(move || {
                    vec![format!(
                        "{name} {} handled={} sinks={}",
                        box_snapshot("box", &boxy),
                        agent.handled(),
                        agent.active_sinks(),
                    )]
                });
            };
            Box::new(hook) as NodeHook
        })
        .collect();

    build_sharded_star(
        &mut cluster,
        boxes,
        StarConfig {
            seed: 0xFA11,
            controller: ControllerConfig {
                lease: lease.then(|| LeaseConfig {
                    interval: SimDuration::from_millis(100),
                    ..LeaseConfig::default()
                }),
                ..ControllerConfig::default()
            },
            ..Default::default()
        },
        SimDuration::from_micros(50),
        place,
        move |env, hub| {
            let controller = hub.controller.clone();
            let switch = hub.switch.clone();
            let endpoints = hub.endpoints.clone();
            let bb = env.blackboard().clone();
            let done = Rc::new(StdCell::new(false));
            let routes_after = Rc::new(StdCell::new(usize::MAX));
            let debt_dead = Rc::new(StdCell::new(usize::MAX));
            let debt_rejoin = Rc::new(StdCell::new(usize::MAX));
            let readmitted = Rc::new(StdCell::new(0u32));
            let (d, ra, dd, dr, rr) = (
                done.clone(),
                routes_after.clone(),
                debt_dead.clone(),
                debt_rejoin.clone(),
                readmitted.clone(),
            );
            let wait_for_rejoin = matches!(adversity, Adversity::CrashReconverge);
            env.spawner().spawn("driver", async move {
                let mic0: StreamId = bb.expect("mic0");
                let mic3: StreamId = bb.expect("mic3");
                let s0 = controller
                    .open(endpoints[0], mic0, StreamClass::Audio)
                    .unwrap();
                let s3 = controller
                    .open(endpoints[3], mic3, StreamClass::Audio)
                    .unwrap();
                let fanout = endpoints.len().min(8);
                for &dst in &endpoints[1..fanout] {
                    controller.add_listener(s0, dst).await.unwrap();
                }
                controller
                    .add_listener(s3, *endpoints.last().expect("nonempty"))
                    .await
                    .unwrap();
                if wait_for_rejoin {
                    while controller.crashes() == 0 {
                        pandora_sim::delay(SimDuration::from_millis(50)).await;
                    }
                    ra.set(switch.port_route_count(3));
                    dd.set(controller.stale_debt(endpoints[3]));
                    while controller.rejoins() == 0 {
                        pandora_sim::delay(SimDuration::from_millis(100)).await;
                    }
                    dr.set(controller.stale_debt(endpoints[3]));
                    let admitted = controller.add_listener(s0, endpoints[3]).await.unwrap();
                    rr.set(admitted.rate_permille);
                }
                d.set(true);
            });
            let controller = hub.controller.clone();
            if let Some(plan) = conference_plan(adversity, boxes) {
                install_for(env, "controller", &hub.path_controls, &plan);
            }
            env.on_finish(move || {
                vec![
                    format!(
                        "hub done={} crashes={} rejoins={} routes_after={} debt_dead={} \
                         debt_rejoin={} readmit={}",
                        done.get(),
                        controller.crashes(),
                        controller.rejoins(),
                        routes_after.get(),
                        debt_dead.get(),
                        debt_rejoin.get(),
                        readmitted.get(),
                    ),
                    format!("digest {}", controller.digest()),
                    format!("recovery {}", controller.recovery_digest()),
                    format!("leases {}", controller.lease_digest()),
                    format!("timeline {:?}", controller.recovery_timeline()),
                ]
            });
        },
        node_hooks,
    );

    let horizon = match adversity {
        Adversity::None => SimTime::from_secs(5),
        Adversity::CrashReconverge => SimTime::from_secs(12),
        Adversity::Sweep(_) => SimTime::from_secs(9),
    };
    cluster.run(horizon).merged_lines()
}

#[test]
fn conference_trace_is_identical_across_shard_counts() {
    let baseline = run_conference(1, 6, Adversity::None);
    assert!(
        baseline[0].starts_with("hub done=true"),
        "driver never finished: {}",
        baseline[0]
    );
    for shards in &SHARD_COUNTS[1..] {
        assert_eq!(
            run_conference(*shards, 6, Adversity::None),
            baseline,
            "{shards} shards diverged"
        );
    }
}

#[test]
fn crash_reconvergence_trace_is_identical_across_shard_counts() {
    let baseline = run_conference(1, 6, Adversity::CrashReconverge);
    assert!(
        baseline[0].starts_with("hub done=true crashes=1 rejoins=1"),
        "crash scenario did not complete: {}",
        baseline[0]
    );
    assert!(
        baseline.iter().any(|l| l.contains("box-crash name=node3")),
        "fault trace missing the crash"
    );
    for shards in &SHARD_COUNTS[1..] {
        assert_eq!(
            run_conference(*shards, 6, Adversity::CrashReconverge),
            baseline,
            "{shards} shards diverged"
        );
    }
}

/// Satellite 2: ten seeds, each with injected loss/flap faults plus a
/// crash/restart, each replayed at one and four shards — every pair
/// byte-identical.
#[test]
fn seed_sweep_with_faults_replays_identically_at_four_shards() {
    for seed in 0..10u64 {
        let single = run_conference(1, 6, Adversity::Sweep(seed));
        let sharded = run_conference(4, 6, Adversity::Sweep(seed));
        assert_eq!(single, sharded, "seed {seed} diverged");
        assert!(
            single.iter().any(|l| l.contains("box-crash name=node3")),
            "seed {seed}: crash missing from trace"
        );
    }
}

// ---------------------------------------------------------------------
// Tentpole acceptance: the 1,000-box broadcast soak completes at every
// shard count with a byte-identical trace.
// ---------------------------------------------------------------------

#[test]
fn thousand_box_soak_is_identical_across_shard_counts() {
    use pandora_shard::broadcast::{build, BroadcastConfig};
    let cfg = BroadcastConfig {
        boxes: 1_000,
        fanout: 4,
        segment_interval: SimDuration::from_millis(5),
        segments: 10,
        hop_latency: SimDuration::from_micros(200),
        relay_cost: SimDuration::from_micros(40),
    };
    let deadline = SimTime::from_millis(80);
    let baseline = build(&cfg, 1).run(deadline).merged_lines();
    assert_eq!(baseline.len(), cfg.boxes);
    assert!(
        baseline.iter().skip(1).all(|l| l.contains("recv=10")),
        "soak did not complete on the single-shard baseline"
    );
    for shards in &SHARD_COUNTS[1..] {
        let got = build(&cfg, *shards).run(deadline).merged_lines();
        assert_eq!(got, baseline, "{shards} shards diverged");
    }
}

// ---------------------------------------------------------------------
// ISSUE 9: the striped multi-tree overlay broadcast — with a
// mid-broadcast interior-relay crash and repair — replays
// byte-identically at shard counts {1, 4, 8}.
// ---------------------------------------------------------------------

#[test]
fn overlay_broadcast_with_crash_is_identical_across_shard_counts() {
    use pandora_overlay::{
        build_overlay_broadcast, plan_for, CrashPlan, OverlayConfig, OverlaySummary,
    };

    let mut cfg = OverlayConfig {
        viewers: 63,
        trees: 4,
        degree: 4,
        seed: 9,
        segments: 50,
        payload_bytes: 640,
        ..OverlayConfig::default()
    };
    // Crash the first interior relay that actually parents someone, so
    // the repair path (death, graft, clawback replay) is exercised.
    let plan = plan_for(&cfg).expect("plan");
    let victim = (1..plan.members())
        .find(|&v| {
            plan.interior_tree(v)
                .is_some_and(|t| !plan.children(t, v).is_empty())
        })
        .expect("an interior relay with children");
    cfg.crash = Some(CrashPlan {
        member: victim,
        at: SimDuration::from_millis(70),
    });

    let deadline = SimTime::from_millis(340);
    let run = |shards: usize| {
        let built = build_overlay_broadcast(&cfg, shards).expect("build");
        let report = built.cluster.run(deadline);
        // A member is five tasks (relay, heartbeat, uplink pump, uplink
        // router, link) and a cluster port is none; the hub's own
        // handful — source, ear, sweep, the crash script — and one
        // dispatcher per shard are all that may come on top.
        let bound = 5 * plan.members() as u64 + 8 + shards as u64;
        assert!(
            report.spawned_total <= bound,
            "{shards} shards spawned {} tasks for {} members (bound {bound})",
            report.spawned_total,
            plan.members()
        );
        report.merged_lines()
    };

    let baseline = run(1);
    let s = OverlaySummary::parse(&baseline);
    assert_eq!(s.viewers, 63);
    assert_eq!(s.crashed, 1);
    assert_eq!(s.hub_deaths, 1, "the crash went undetected");
    assert!(s.hub_grafts >= 1, "no grafts were issued");
    assert_eq!(s.hub_unrepairable, 0, "an orphan had no backup parent");
    assert!(s.grafts_in >= 1, "no backup applied a graft");
    assert_eq!(s.lost_alive, 0, "survivors lost slices");
    assert_eq!(s.late_alive, 0, "survivors saw late slices");
    let playout_us = cfg.playout.as_micros();
    assert!(
        s.stripe_gap_max_us_alive <= playout_us,
        "repair gap {} us exceeds the {playout_us} us playout budget",
        s.stripe_gap_max_us_alive
    );
    assert!(
        plan.max_depth_overall() <= plan.depth_bound(),
        "depth {} exceeds ceil(log_d n) = {}",
        plan.max_depth_overall(),
        plan.depth_bound()
    );
    for shards in [4usize, 8] {
        assert_eq!(run(shards), baseline, "{shards} shards diverged");
    }
}
