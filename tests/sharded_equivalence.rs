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

use pandora::PandoraBox;
use pandora_atm::HopConfig;
use pandora_audio::gen::{Speech, Tone};
use pandora_faults::{install_scoped, FaultKind, FaultPlan, FaultTargets, RandomProfile};
use pandora_segment::StreamId;
use pandora_session::{
    build_sharded_star, ControllerConfig, LeaseConfig, NodeHook, StarConfig, StarNode, StreamClass,
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
// Scenario 1a: videophone — the two-box sharded star, audio and DPCM
// video each way, every session opened through the controller (the
// topology and signalling the benchmark's `videophone` workload runs).
// ---------------------------------------------------------------------

fn run_videophone(shards: usize) -> Vec<String> {
    let mut cluster = Cluster::new(shards);
    let node_hooks: Vec<NodeHook> = ["a", "b"]
        .into_iter()
        .map(|label| {
            let hook = move |env: &mut ShardEnv, seat: &StarNode| {
                let hz = if label == "a" { 440.0 } else { 660.0 };
                let mic = seat
                    .boxy
                    .start_audio_source(Box::new(Tone::new(hz, 8_000.0)));
                let (cam, _handle) = seat.boxy.start_video_capture(video_cfg());
                env.blackboard().put(&format!("{label}.mic"), mic);
                env.blackboard().put(&format!("{label}.cam"), cam);
                let boxy = seat.boxy.clone();
                env.on_finish(move || vec![box_snapshot(label, &boxy)]);
            };
            Box::new(hook) as NodeHook
        })
        .collect();

    build_sharded_star(
        &mut cluster,
        2,
        StarConfig {
            hops: vec![HopConfig::clean(50_000_000)],
            seed: 7,
            ..Default::default()
        },
        SimDuration::from_micros(20),
        move |i| i * shards / 2,
        |env, hub| {
            let controller = hub.controller.clone();
            let endpoints = hub.endpoints.clone();
            let bb = env.blackboard().clone();
            env.spawner().spawn("call", async move {
                let video = StreamClass::Video {
                    rate_permille: 1000,
                };
                for (from, to, label) in [(0, 1, "a"), (1, 0, "b")] {
                    for (key, class) in [("mic", StreamClass::Audio), ("cam", video)] {
                        let stream: StreamId = bb.expect(&format!("{label}.{key}"));
                        let session = controller.open(endpoints[from], stream, class).unwrap();
                        controller
                            .add_listener(session, endpoints[to])
                            .await
                            .unwrap();
                    }
                }
            });
            let controller = hub.controller.clone();
            env.on_finish(move || vec![format!("digest {}", controller.digest())]);
        },
        node_hooks,
    );
    cluster.run(SimTime::from_secs(2)).merged_lines()
}

#[test]
fn videophone_trace_is_identical_across_shard_counts() {
    let baseline = run_videophone(1);
    for label in ["a:", "b:"] {
        let line = baseline
            .iter()
            .find(|l| l.starts_with(label))
            .expect("box snapshot");
        assert!(!line.contains("spk_recv=0"), "no audio reached {line}");
        assert!(!line.contains("disp_frames=0"), "no video reached {line}");
    }
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
            let hook = move |env: &mut ShardEnv, seat: &StarNode| {
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
// The striped multi-tree overlay broadcast, its busiest relay crashed
// mid-run: detection, graft and clawback replay hold their floors and
// the merged trace is byte-identical across shard counts — at 64
// members (ISSUE 9), and at the 1,024 members, four trees and degree 8
// that `broadcast1024` and `examples/broadcast.rs` run.
// ---------------------------------------------------------------------

fn overlay_crash_replays_identically(
    mut cfg: pandora_overlay::OverlayConfig,
    crash_at: SimDuration,
    deadline: SimTime,
) {
    use pandora_overlay::{build_overlay_broadcast, plan_for, CrashPlan, OverlaySummary};

    let plan = plan_for(&cfg).expect("plan");
    let victim = (1..plan.members())
        .max_by_key(|&v| plan.fanout(v))
        .expect("viewers");
    assert!(plan.fanout(victim) > 0, "no relay forwards anything");
    cfg.crash = Some(CrashPlan {
        member: victim,
        at: crash_at,
    });
    let run = |shards: usize| {
        let built = build_overlay_broadcast(&cfg, shards).expect("build");
        let report = built.cluster.run(deadline);
        // A member is three tasks (relay, heartbeat, the uplink's wire)
        // and a cluster port is none; the hub's own handful — source,
        // ear, sweep, the crash script — and one dispatcher per shard
        // are all that may come on top.
        let bound = 3 * plan.members() as u64 + 8 + shards as u64;
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
    assert_eq!(s.viewers, cfg.viewers as u64);
    assert_eq!(s.crashed, 1);
    assert_eq!(s.hub_deaths, 1, "the crash went undetected");
    assert!(s.hub_grafts >= 1, "no grafts were issued");
    assert_eq!(s.hub_unrepairable, 0, "an orphan had no backup parent");
    assert_eq!(s.grafts_in, s.hub_grafts, "a graft was never applied");
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
    for shards in &SHARD_COUNTS[1..] {
        assert_eq!(run(*shards), baseline, "{shards} shards diverged");
    }
}

#[test]
fn thousand_box_soak_is_identical_across_shard_counts() {
    overlay_crash_replays_identically(
        pandora_overlay::OverlayConfig {
            viewers: 1_023,
            trees: 4,
            degree: 8,
            segments: 24,
            uplink_cps: 60_000,
            source_uplink_cps: 120_000,
            ..Default::default()
        },
        SimDuration::from_millis(30),
        SimTime::from_millis(24 * 4 + 200),
    );
}

#[test]
fn overlay_broadcast_with_crash_is_identical_across_shard_counts() {
    overlay_crash_replays_identically(
        pandora_overlay::OverlayConfig {
            viewers: 63,
            trees: 4,
            degree: 4,
            seed: 9,
            segments: 50,
            payload_bytes: 640,
            ..Default::default()
        },
        SimDuration::from_millis(70),
        SimTime::from_millis(340),
    );
}
