//! The striped multi-tree overlay broadcast, its busiest relay crashed
//! mid-run: detection, graft and clawback replay hold their six floors,
//! a member costs no task, and the same seed run twice gives
//! identical lines — at 64 members (ISSUE 9), and at the 1,024 members,
//! four trees and degree 8 that `broadcast1024` and
//! `examples/broadcast.rs` run.

use pandora_overlay::{
    build_overlay_broadcast, plan_for, CrashPlan, OverlayConfig, OverlaySummary,
};
use pandora_sim::{SimDuration, SimTime};

fn overlay_crash_repairs_and_replays_identically(
    mut cfg: OverlayConfig,
    crash_at: SimDuration,
    deadline: SimTime,
) {
    let plan = plan_for(&cfg).expect("plan");
    let victim = (1..plan.members())
        .max_by_key(|&v| plan.fanout(v))
        .expect("viewers");
    assert!(plan.fanout(victim) > 0, "no relay forwards anything");
    cfg.crash = Some(CrashPlan {
        member: victim,
        at: crash_at,
    });
    let run = || {
        let built = build_overlay_broadcast(&cfg, 1).expect("build");
        let report = built.cluster.run(deadline);
        // A member is no task and a cluster port none: one task beats for
        // every member, one drives every viewer's receive side and one
        // clocks every uplink. With the ingress dispatcher and the hub's
        // source, ear, sweep and crash script that is eight, whatever the
        // membership.
        let bound = 8;
        assert!(
            report.spawned_total <= bound,
            "spawned {} tasks for {} members (bound {bound})",
            report.spawned_total,
            plan.members()
        );
        report.merged_lines()
    };

    let baseline = run();
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
    assert_eq!(run(), baseline, "the same seed replayed differently");
}

#[test]
fn thousand_box_soak_repairs_and_replays_identically() {
    overlay_crash_repairs_and_replays_identically(
        OverlayConfig {
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
fn overlay_broadcast_with_crash_repairs_and_replays_identically() {
    overlay_crash_repairs_and_replays_identically(
        OverlayConfig {
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
