//! The broadcast at 16,384 members — the source plus 16,383 viewers, the
//! soak shape of `examples/broadcast.rs` sixteen times over — with its
//! busiest relay crashed mid-run: every survivor gets every slice on
//! time, a member still costs no task, and the run polls no more tasks
//! than the count recorded for it. A member is a row in each of the
//! overlay's tables (DESIGN.md §15), so this runs in about two seconds
//! of an optimised build; the debug step leaves it out.

use pandora_overlay::{
    build_overlay_broadcast, plan_for, CrashPlan, OverlayConfig, OverlaySummary,
};
use pandora_sim::{SimDuration, SimTime};

/// Task polls of the 16,384-member run, exact and repeating: the floor.
const POLLS: u64 = 28_033;

/// Runs `viewers` viewers of the soak shape, the busiest relay crashed at
/// 150 ms; returns the summary, tasks spawned and task polls.
fn soak(viewers: usize) -> (OverlaySummary, u64, u64, OverlayConfig) {
    let mut cfg = OverlayConfig {
        viewers,
        trees: 4,
        degree: 8,
        seed: 42,
        segments: 100,
        uplink_cps: 60_000,
        source_uplink_cps: 120_000,
        ..OverlayConfig::default()
    };
    let plan = plan_for(&cfg).expect("plan");
    let victim = (1..plan.members())
        .max_by_key(|&v| plan.fanout(v))
        .expect("viewers");
    cfg.crash = Some(CrashPlan {
        member: victim,
        at: SimDuration::from_millis(150),
    });
    let built = build_overlay_broadcast(&cfg, 1).expect("build");
    let report = built.cluster.run(SimTime::from_millis(100 * 4 + 200));
    let s = OverlaySummary::parse(&report.merged_lines());
    (s, report.spawned_total, report.events(), cfg)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "16,384 members: run in the optimised test step"
)]
fn sixteen_thousand_members_repair_a_crash_at_the_cost_of_a_thousand() {
    let (s, spawned, polls, cfg) = soak(16_383);
    assert_eq!(s.viewers, 16_383);
    assert_eq!(
        (s.crashed, s.hub_deaths),
        (1, 1),
        "the crash went undetected"
    );
    assert!(s.hub_grafts >= 1, "no grafts were issued");
    assert_eq!(s.grafts_in, s.hub_grafts, "a graft was never applied");
    assert_eq!(s.hub_unrepairable, 0);
    assert_eq!(
        (s.lost_alive, s.late_alive),
        (0, 0),
        "survivors lost or were late"
    );
    assert!(s.stripe_gap_max_us_alive <= cfg.playout.as_micros());
    let (_, spawned_1k, ..) = soak(1_023);
    assert_eq!(spawned, spawned_1k, "a member cost a task");
    assert!(polls <= POLLS, "{polls} task polls, floor {POLLS}");
}
