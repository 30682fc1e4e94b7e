//! One source, a thousand viewers: the striped multi-tree overlay
//! broadcast (`pandora-overlay`) at soak scale.
//!
//! ```text
//! cargo run --release --example broadcast
//! ```
//!
//! 1,024 members — the source plus 1,023 viewers — carry a striped
//! video stream over `k = 4` trees of degree 8. Every viewer relays in
//! exactly one tree, every copy serializes through that viewer's
//! bandwidth-limited uplink, and the session admission controller
//! charged every relay's fan-out before the first segment left the
//! source. Mid-broadcast, one interior relay crashes; the hub's leases
//! notice, its orphans are grafted onto their precomputed backup
//! parents, and the clawback rings refill the interrupted stripe
//! before anyone's playout deadline passes.
//!
//! The run prints the plan shape (measured depth against the
//! `ceil(log_d n)` bound), the delivery scoreboard for the surviving
//! viewers, the merged per-hop latency histogram, and the repair-gap
//! statistics — the worst single-stripe silence any survivor saw — then
//! holds the run to its eight acceptance floors and exits non-zero,
//! naming each one missed. Two of the floors are executor counts — tasks
//! spawned per member and task polls per delivered slice — so a control
//! plane whose cost grows with the membership cannot come back unseen.

use pandora_overlay::{
    build_overlay_broadcast, plan_for, CrashPlan, OverlayConfig, OverlaySummary,
};
use pandora_sim::{SimDuration, SimTime};

/// Floor: tasks the whole run may spawn per member. A member is no task:
/// one task beats for every member, one drives every viewer's receive
/// side and one clocks every uplink. A relay and a wire task per member
/// made it two, a heartbeat task per member as well three, an uplink pump
/// and router in front of and behind the wire five, a task per cluster
/// port fifteen.
const MAX_TASKS_PER_MEMBER: f64 = 0.05;

/// Floor: executor events (task polls) per slice delivered to a viewer
/// (2.31 with a relay and a wire task per member, 2.92 with a heartbeat
/// task per member as well).
const MAX_EVENTS_PER_SLICE: f64 = 0.25;

fn soak_config() -> OverlayConfig {
    OverlayConfig {
        viewers: 1_023,
        trees: 4,
        degree: 8,
        seed: 42,
        segments: 100,
        segment_interval: SimDuration::from_millis(4),
        payload_bytes: 1_408,
        // 30 cells per segment at 1875 cells/s per stripe copy: 32
        // copies of serialization capacity, so a backup that adopts a
        // dead relay's children (8 -> 16 copies) still has headroom.
        uplink_cps: 60_000,
        source_uplink_cps: 120_000,
        ..OverlayConfig::default()
    }
}

fn main() {
    let mut cfg = soak_config();

    // Crash the busiest interior relay once the broadcast is rolling.
    let plan = match plan_for(&cfg) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("plan failed: {e}");
            std::process::exit(1);
        }
    };
    let victim = (1..plan.members())
        .max_by_key(|&v| plan.fanout(v))
        .filter(|&v| plan.fanout(v) > 0);
    if let Some(victim) = victim {
        cfg.crash = Some(CrashPlan {
            member: victim,
            at: SimDuration::from_millis(150),
        });
    }

    println!("pandora-overlay broadcast soak");
    println!(
        "  members={} trees={} degree={} seed={}",
        plan.members(),
        cfg.trees,
        cfg.degree,
        cfg.seed
    );
    println!(
        "  depth: measured={} bound=ceil(log_d n)={}",
        plan.max_depth_overall(),
        plan.depth_bound()
    );
    if let Some(v) = victim {
        println!(
            "  crash: member {v} (fan-out {}) at 150 ms, interior in tree {:?}",
            plan.fanout(v),
            plan.interior_tree(v)
        );
    }

    let built = match build_overlay_broadcast(&cfg, 1) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("build failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "  admission: relay fan-out charged {} cells/s total",
        built.relay_tx_cps
    );

    let deadline = SimTime::from_nanos(
        cfg.segment_interval.as_nanos() * u64::from(cfg.segments)
            + SimDuration::from_millis(200).as_nanos(),
    );
    let report = built.cluster.run(deadline);
    let s = OverlaySummary::parse(&report.merged_lines());

    println!();
    println!("delivery (surviving viewers)");
    let alive = s.viewers - s.crashed;
    println!(
        "  viewers={alive} (of {}, {} crashed)",
        s.viewers, s.crashed
    );
    println!(
        "  delivered={} lost={} late={} dupes={} gap_skips={}",
        s.delivered, s.lost_alive, s.late_alive, s.dupes, s.gap_skips
    );
    println!(
        "  forwarded: source={} relays={} p3_drops={} p8_skips={} max_divisor={}",
        s.src_forwarded, s.forwarded, s.p3_drops, s.p8_skips, s.max_divisor
    );
    println!(
        "  slab: {} payload bytes gathered once at the source",
        s.slab_copied_out
    );

    println!();
    println!("repair");
    println!(
        "  deaths={} grafts={} applied={} unrepairable={}",
        s.hub_deaths, s.hub_grafts, s.grafts_in, s.hub_unrepairable
    );
    let playout_us = cfg.playout.as_micros();
    println!(
        "  repair gap: worst single-stripe silence {} us (playout budget {playout_us} us)",
        s.stripe_gap_max_us_alive
    );
    println!(
        "  overall gap: worst any-stripe silence {} us",
        s.gap_max_us_alive
    );

    println!();
    println!("per-hop latency (merged over surviving viewers)");
    println!(
        "  hops={} p50<={} us p95<={} us p99<={} us max={} us",
        s.hop_count(),
        s.hop_percentile_us(500),
        s.hop_percentile_us(950),
        s.hop_percentile_us(990),
        s.hop_max_us
    );
    for (i, count) in s.hop_buckets.iter().enumerate() {
        if *count == 0 {
            continue;
        }
        let lo = 1u64 << i;
        let hi = 1u64 << (i + 1);
        let total = s.hop_count().max(1);
        let bar = "#".repeat(((count * 48).div_ceil(total)) as usize);
        println!("  [{lo:>6}..{hi:>6}) us {count:>8} {bar}");
    }

    // What the run cost the executor, in counts (not wall-clock): a
    // member costs no task — crossing a cluster port costs none — and a
    // delivered slice a fraction of a task poll.
    let tasks_per_member = report.spawned_total as f64 / plan.members() as f64;
    let events_per_slice = report.events() as f64 / s.delivered.max(1) as f64;
    println!();
    println!("executor cost");
    println!("  tasks spawned per member {tasks_per_member:.2} (floor {MAX_TASKS_PER_MEMBER})");
    println!("  events per delivered slice {events_per_slice:.2} (floor {MAX_EVENTS_PER_SLICE})");

    // The soak's acceptance floors: CI runs this example, so a missed
    // floor must fail the run, not just go unprinted.
    let floors = [
        (
            plan.max_depth_overall() <= plan.depth_bound(),
            "depth exceeds ceil(log_d n)",
        ),
        (
            s.crashed == 1 && s.hub_deaths == 1,
            "crash not detected exactly once",
        ),
        (
            s.hub_grafts >= 1 && s.hub_unrepairable == 0,
            "repair incomplete",
        ),
        (s.lost_alive == 0, "survivors lost slices"),
        (s.late_alive == 0, "survivors saw late slices"),
        (
            s.stripe_gap_max_us_alive <= playout_us,
            "repair gap exceeds playout",
        ),
        (
            tasks_per_member <= MAX_TASKS_PER_MEMBER,
            "more tasks per member than the shared tasks need",
        ),
        (
            events_per_slice <= MAX_EVENTS_PER_SLICE,
            "more executor events per delivered slice than the floor",
        ),
    ];
    let missed: Vec<_> = floors.iter().filter(|(ok, _)| !ok).collect();
    for (_, what) in &missed {
        eprintln!("floor missed: {what}");
    }
    if !missed.is_empty() {
        std::process::exit(1);
    }
    println!();
    println!("every surviving viewer: 0 lost, 0 late — repair held the stream");
}
