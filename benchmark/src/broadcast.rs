//! The two broadcast workloads: one source, 1,023 viewers, four striped
//! trees, the busiest interior relay crashed mid-run — on one shard and
//! on two.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use pandora_overlay::{
    build_overlay_broadcast, plan_for, CrashPlan, OverlayConfig, OverlaySummary,
};
use pandora_shard::Cluster;
use pandora_sim::{delay, SimDuration, SimTime};

use crate::host;
use crate::workload::Inputs;

/// Quiet tail after the last segment leaves the source, so that nothing
/// is in flight at the deadline.
const TAIL: SimDuration = SimDuration::from_millis(200);

/// The soak shape of `examples/broadcast.rs`, with the planner seed, the
/// crash victim and the crash instant taken from the run's inputs.
pub fn config(inputs: &Inputs, segments: u32) -> OverlayConfig {
    let mut cfg = OverlayConfig {
        viewers: 1_023,
        trees: 4,
        degree: 8,
        seed: inputs.overlay_seed,
        segments,
        segment_interval: SimDuration::from_millis(4),
        payload_bytes: 1_408,
        // Room for 32 stripe copies per uplink, so a backup parent that
        // adopts a dead relay's children (8 -> 16 copies) keeps headroom.
        uplink_cps: 60_000,
        source_uplink_cps: 120_000,
        ..OverlayConfig::default()
    };
    let plan = plan_for(&cfg).expect("the soak shape is plannable");
    let busiest = (1..plan.members())
        .map(|v| plan.fanout(v))
        .max()
        .unwrap_or(0);
    let candidates: Vec<usize> = (1..plan.members())
        .filter(|&v| busiest > 0 && plan.fanout(v) == busiest)
        .collect();
    if !candidates.is_empty() {
        cfg.crash = Some(CrashPlan {
            member: candidates[(inputs.overlay_seed % candidates.len() as u64) as usize],
            at: inputs.crash_at,
        });
    }
    cfg
}

/// Simulated length of one repetition.
pub fn deadline(cfg: &OverlayConfig) -> SimTime {
    SimTime::ZERO + SimDuration(cfg.segment_interval.as_nanos() * u64::from(cfg.segments)) + TAIL
}

/// Wall seconds of one set-up pass: planning alone, planning plus
/// topology build, and the throwaway `run(ZERO)` that executes the
/// per-member set-up closures (`Cluster` runs them inside `run`).
#[derive(Debug, Clone, Copy)]
pub struct SetupPass {
    pub plan_s: f64,
    pub build_s: f64,
    pub run0_s: f64,
}

impl SetupPass {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.run0_s
    }
}

pub fn setup_pass(cfg: &OverlayConfig, shards: usize) -> SetupPass {
    let t0 = Instant::now();
    let plan = plan_for(cfg).expect("the soak shape is plannable");
    let plan_s = t0.elapsed().as_secs_f64();
    drop(plan);
    let t0 = Instant::now();
    let built = build_overlay_broadcast(cfg, shards).expect("the soak shape builds");
    let build_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let report = built.cluster.run(SimTime::ZERO);
    let run0_s = t0.elapsed().as_secs_f64();
    drop(report);
    SetupPass {
        plan_s,
        build_s,
        run0_s,
    }
}

/// Laps of a repetition, stamped from inside the simulation. `Cluster::run`
/// consumes the cluster, so a repetition cannot be cut into `run_until`
/// calls the way a star run can; instead a task of the harness's own, put
/// on shard 0 through `Cluster::setup`, reads the host clock every
/// [`LAP`] of simulated time. It touches no port and registers no
/// finisher; the unprobed first repetition of every run proves, line for
/// line, that it changes nothing.
///
/// Laps cover the steady emission only: the first [`LAP_START`] fill the
/// trees and the tail drains them, both lighter than the rest. The laps
/// in which the crashed relay's orphans are repaired are heavier and so
/// never among the fastest.
pub const LAP: SimDuration = SimDuration::from_millis(20);
const LAP_START: SimDuration = SimDuration::from_millis(40);

fn attach_lap_probe(cluster: &mut Cluster, cfg: &OverlayConfig) -> Arc<Mutex<Vec<Instant>>> {
    let stamps = Arc::new(Mutex::new(Vec::new()));
    let emission = cfg.segment_interval.as_nanos() * u64::from(cfg.segments);
    let laps = emission.saturating_sub(LAP_START.as_nanos()) / LAP.as_nanos();
    let task_stamps = stamps.clone();
    cluster.setup(0, move |env| {
        env.spawner().spawn("bench:laps", async move {
            let stamp = || {
                task_stamps
                    .lock()
                    .expect("only this task writes while the run lasts")
                    .push(Instant::now());
            };
            delay(LAP_START).await;
            stamp();
            for _ in 0..laps {
                delay(LAP).await;
                stamp();
            }
        });
    });
    stamps
}

/// One repetition run to its deadline.
pub struct Repetition {
    /// Wall seconds of `Cluster::run`, set-up closures included.
    pub run_wall_s: f64,
    /// Process CPU seconds over the same interval, all threads.
    pub cpu_s: f64,
    /// Wall seconds of each [`LAP`]; empty for an unprobed repetition.
    pub lap_wall_s: Vec<f64>,
    pub lines: Vec<String>,
    pub events: u64,
    pub live_tasks: usize,
}

pub fn repetition(cfg: &OverlayConfig, shards: usize, probe: bool) -> Repetition {
    let mut built = build_overlay_broadcast(cfg, shards).expect("the soak shape builds");
    let stamps = probe.then(|| attach_lap_probe(&mut built.cluster, cfg));
    let end = deadline(cfg);
    let cpu0 = host::process_cpu_s();
    let t0 = Instant::now();
    let report = built.cluster.run(end);
    let run_wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s() - cpu0;
    let lap_wall_s = stamps.map_or_else(Vec::new, |s| {
        let s = s.lock().expect("the run is over");
        s.windows(2)
            .map(|w| w[1].duration_since(w[0]).as_secs_f64())
            .collect()
    });
    Repetition {
        run_wall_s,
        cpu_s,
        lap_wall_s,
        lines: report.merged_lines(),
        events: report.events(),
        live_tasks: report.live_tasks,
    }
}

/// What the merged report says about the surviving viewers.
pub struct Delivery {
    pub summary: OverlaySummary,
    /// Slices delivered to viewers that did not crash.
    pub delivered_alive: u64,
    /// Segments the source emitted (bytes gathered ÷ payload size).
    pub emitted: u64,
    /// Bytes the source wrote into its slab arena.
    pub copied_in: u64,
}

fn field(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.parse().ok())
}

pub fn delivery(lines: &[String], cfg: &OverlayConfig) -> Delivery {
    let summary = OverlaySummary::parse(lines);
    let delivered_alive = lines
        .iter()
        .filter(|l| field(l, "crashed=") == Some(0))
        .filter_map(|l| field(l, "recv="))
        .sum();
    Delivery {
        copied_in: lines.iter().filter_map(|l| field(l, "slabin=")).sum(),
        emitted: summary.slab_copied_out / cfg.payload_bytes.max(1) as u64,
        summary,
        delivered_alive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survivors_are_counted_from_the_report_lines() {
        let lines = vec![
            "node0000 src fwd=16 p3=0 slabin=2816 slabout=2816 srcgraft=0".to_string(),
            "node0001 recv=2 dup=0 gap=0 lost=0 late=0 fwd=0 crashed=0 hopbkt=0,2".to_string(),
            "node0002 recv=1 dup=0 gap=0 lost=1 late=0 fwd=0 crashed=1 hopbkt=0,1".to_string(),
            "hub deaths=1 grafts=0 unrepairable=0".to_string(),
        ];
        let cfg = OverlayConfig {
            payload_bytes: 1_408,
            ..OverlayConfig::default()
        };
        let d = delivery(&lines, &cfg);
        assert_eq!(d.delivered_alive, 2);
        assert_eq!(d.emitted, 2);
        assert_eq!(d.copied_in, 2_816);
        assert_eq!(d.summary.crashed, 1);
    }

    /// The lap probe is a task inside the simulation; it must leave the
    /// simulation's own history alone, on one shard and on two.
    #[test]
    fn the_lap_probe_changes_no_trace_line() {
        let cfg = OverlayConfig {
            segments: 30,
            ..OverlayConfig::default()
        };
        for shards in [1, 2] {
            let plain = repetition(&cfg, shards, false);
            let probed = repetition(&cfg, shards, true);
            assert_eq!(plain.lines, probed.lines, "{shards} shard(s)");
            assert!(plain.lap_wall_s.is_empty());
            // 120 ms of emission less the 40 ms start, in 20 ms laps.
            assert_eq!(probed.lap_wall_s.len(), 4);
        }
    }

    #[test]
    fn crash_victim_and_instant_follow_the_seed() {
        let a = config(&Inputs::derive(1), 8);
        let b = config(&Inputs::derive(1), 8);
        let c = config(&Inputs::derive(2), 8);
        let key = |cfg: &OverlayConfig| cfg.crash.map(|c| (c.member, c.at.as_nanos()));
        assert!(key(&a).is_some());
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
    }
}
