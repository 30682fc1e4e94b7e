//! Fault-injection conformance suite (ISSUE 2).
//!
//! Each paper principle is exercised under an *injected fault* in two
//! paired runs: the standard configuration, and an ablated one with the
//! mechanism disabled. The suite asserts the principle holds in the
//! first AND visibly fails in the second — so every mechanism is shown
//! to be load-bearing, not decorative. A final pair of tests asserts the
//! determinism contract (same seed ⇒ byte-identical trace and metrics)
//! and sweeps seeded random fault schedules through the videophone and
//! conference topologies checking global invariants.

mod support;

use pandora::{connect_pair, open_audio_shout, open_video_stream, BoxConfig, BoxPair, TxMode};
use pandora_atm::HopConfig;
use pandora_audio::gen::Tone;
use pandora_buffers::ReportClass;
use pandora_faults::{install, FaultKind, FaultPlan, FaultTargets, RandomProfile};
use pandora_sim::{SimDuration, SimTime, Simulation};

fn tone() -> Box<Tone> {
    Box::new(Tone::new(440.0, 8_000.0))
}

fn pair_with(
    sim: &Simulation,
    cfg_a: BoxConfig,
    cfg_b: BoxConfig,
    link_bps: u64,
    seed: u64,
) -> (BoxPair, FaultTargets) {
    let pair = connect_pair(
        &sim.spawner(),
        cfg_a,
        cfg_b,
        &[HopConfig::clean(link_bps)],
        seed,
    );
    let targets = support::pair_targets(&pair);
    (pair, targets)
}

// --- P1: output before input (PRIO_OUTPUT on the mix tick) -------------

/// Audio shout into box B while rogue CPU load saturates B's audio
/// transputer for 2 s. Returns (late mix ticks, trace entries).
fn p1_run(output_priority: bool) -> (u64, usize) {
    let mut sim = Simulation::new();
    let mut cfg_b = BoxConfig::standard("boxb");
    cfg_b.output_priority = output_priority;
    let (pair, targets) = pair_with(&sim, BoxConfig::standard("boxa"), cfg_b, 50_000_000, 11);
    open_audio_shout(&pair.a, &pair.b, tone());
    let plan = FaultPlan::default().event(
        SimDuration::from_secs(1),
        Some(SimDuration::from_secs(2)),
        FaultKind::CpuLoad {
            cpu: "boxb.audio".into(),
            claimants: 4,
            cost: SimDuration::from_micros(1_000),
        },
    );
    let trace = install(&sim.spawner(), &plan, &targets);
    sim.run_until(SimTime::from_secs(4));
    (pair.b.speaker.late_ticks(), trace.len())
}

#[test]
fn p1_output_priority_survives_cpu_storm() {
    let (late, trace_len) = p1_run(true);
    assert!(trace_len >= 2, "fault not applied+reverted: {trace_len}");
    assert_eq!(late, 0, "mix ran late under load despite PRIO_OUTPUT");
}

#[test]
fn p1_disabled_mix_starves_under_cpu_storm() {
    let (late, _) = p1_run(false);
    assert!(late > 10, "ablated mix should starve, late ticks = {late}");
}

// --- P2: audio over video at the network scheduler ---------------------

/// Audio + video share one path whose bandwidth collapses to 1.5% for
/// 3 s. Returns (audio segments received at B, video drops at A).
fn p2_run(audio_priority: bool) -> (u64, u64) {
    let mut sim = Simulation::new();
    let mut cfg_a = BoxConfig::standard("boxa");
    // Interleaved in both variants so large staged video segments cannot
    // hold audio cells hostage regardless of the knob under test.
    cfg_a.tx_mode = TxMode::Interleaved;
    cfg_a.audio_priority = audio_priority;
    let mut cfg_b = BoxConfig::standard("boxb");
    cfg_b.tx_mode = TxMode::Interleaved;
    let (pair, targets) = pair_with(&sim, cfg_a, cfg_b, 20_000_000, 22);
    open_audio_shout(&pair.a, &pair.b, tone());
    open_video_stream(&pair.a, &pair.b, support::video_cfg());
    let plan = FaultPlan::default().event(
        SimDuration::from_secs(1),
        Some(SimDuration::from_secs(3)),
        FaultKind::BandwidthCollapse {
            path: "a-b".into(),
            hop: 0,
            permille: 15,
        },
    );
    let _trace = install(&sim.spawner(), &plan, &targets);
    sim.run_until(SimTime::from_secs(5));
    (
        pair.b.speaker.segments_received(),
        pair.a.net_out_stats.p3_drops_total(),
    )
}

#[test]
fn p2_audio_rides_through_bandwidth_collapse() {
    let (audio, video_drops) = p2_run(true);
    // 300 kbit/s remaining fits the whole audio stream; video backlogs
    // and is shed instead.
    assert!(audio > 1_000, "audio starved with P2 on: {audio}");
    assert!(video_drops > 0, "collapse never backlogged video");
}

#[test]
fn p2_disabled_audio_starves_behind_video() {
    let (audio_off, _) = p2_run(false);
    let (audio_on, _) = p2_run(true);
    assert!(
        audio_off + 200 < audio_on,
        "ablation did not starve audio: {audio_off} vs {audio_on}"
    );
}

// --- P3: degrade the longest-open stream first --------------------------

/// Two video streams, the second opened 1 s later; bandwidth collapses
/// while both run. Returns (drops on old stream, drops on new stream).
fn p3_run(oldest_first: bool) -> (u64, u64) {
    let mut sim = Simulation::new();
    let mut cfg_a = BoxConfig::standard("boxa");
    cfg_a.p3_oldest_first = oldest_first;
    let (pair, targets) = pair_with(&sim, cfg_a, BoxConfig::standard("boxb"), 20_000_000, 33);
    let (old_src, _, _h1) = open_video_stream(&pair.a, &pair.b, support::video_cfg());
    // The second stream must record a later opened_at, so open it at a
    // paused virtual time instead of during setup.
    sim.run_until(SimTime::from_secs(1));
    let (new_src, _, _h2) = open_video_stream(&pair.a, &pair.b, support::video_cfg());
    let plan = FaultPlan::default().event(
        SimDuration::from_secs(1),
        Some(SimDuration::from_millis(2_500)),
        FaultKind::BandwidthCollapse {
            path: "a-b".into(),
            hop: 0,
            permille: 15,
        },
    );
    let _trace = install(&sim.spawner(), &plan, &targets);
    sim.run_until(SimTime::from_secs(5));
    (
        pair.a.net_out_stats.p3_drops(old_src),
        pair.a.net_out_stats.p3_drops(new_src),
    )
}

#[test]
fn p3_oldest_stream_degrades_first() {
    let (old, new) = p3_run(true);
    assert!(old > 0, "no P3 drops despite collapse");
    assert!(
        old > new,
        "newest stream degraded first: old {old}, new {new}"
    );
}

#[test]
fn p3_disabled_newest_stream_degrades_instead() {
    let (old, new) = p3_run(false);
    assert!(new > 0, "no drops in ablated run");
    assert!(
        new > old,
        "ablation still shed oldest: old {old}, new {new}"
    );
}

// --- P4: commands ahead of data (PRI ALT in the switch) -----------------

/// Duplex audio keeps A's switch input continuously ready while rogue
/// load slows its server CPU; a stream query is issued mid-storm.
/// Returns (query answered during the storm, answered by the end).
fn p4_run(command_priority: bool) -> (bool, bool) {
    let mut sim = Simulation::new();
    let mut cfg_a = BoxConfig::standard("boxa");
    cfg_a.command_priority = command_priority;
    let (pair, targets) = pair_with(&sim, cfg_a, BoxConfig::standard("boxb"), 50_000_000, 44);
    let (src, _) = open_audio_shout(&pair.a, &pair.b, tone());
    open_audio_shout(&pair.b, &pair.a, tone());
    let plan = FaultPlan::default().event(
        SimDuration::from_secs(1),
        Some(SimDuration::from_secs(3)),
        FaultKind::CpuLoad {
            cpu: "boxa.server".into(),
            claimants: 4,
            cost: SimDuration::from_micros(1_000),
        },
    );
    let _trace = install(&sim.spawner(), &plan, &targets);
    sim.run_until(SimTime::from_secs(2));
    pair.a.query_stream(src);
    sim.run_until(SimTime::from_millis(3_500));
    let during = !pair.a.log.of_class(ReportClass::Info).is_empty();
    sim.run_until(SimTime::from_secs(6));
    let eventually = !pair.a.log.of_class(ReportClass::Info).is_empty();
    (during, eventually)
}

#[test]
fn p4_commands_answered_during_cpu_storm() {
    let (during, _) = p4_run(true);
    assert!(during, "query starved despite command priority");
}

#[test]
fn p4_disabled_commands_starve_behind_data() {
    let (during, eventually) = p4_run(false);
    assert!(!during, "ablated switch still answered mid-storm");
    assert!(eventually, "query lost outright, not merely starved");
}

// --- P5: drops land at the decoupling buffers, not upstream -------------

/// Audio + video into B while B's mixer output handler is paused for
/// 3 s. Returns (audio segments received at B just before the handler
/// resumes, final audio segments received, switch drops at B). The
/// mid-stall snapshot is the discriminator: blocking gates stall the
/// whole switch, which *delays* rather than drops audio, so by the end
/// of the run the totals converge again.
fn p5_run(ready_mode: bool) -> (u64, u64, u64) {
    let mut sim = Simulation::new();
    let mut cfg_b = BoxConfig::standard("boxb");
    cfg_b.ready_mode = ready_mode;
    let (pair, targets) = pair_with(&sim, BoxConfig::standard("boxa"), cfg_b, 50_000_000, 55);
    open_audio_shout(&pair.a, &pair.b, tone());
    open_video_stream(&pair.a, &pair.b, support::video_cfg());
    let plan = FaultPlan::default().event(
        SimDuration::from_secs(1),
        Some(SimDuration::from_secs(3)),
        FaultKind::PauseTasks {
            prefix: "boxb:mixer-out-handler".into(),
        },
    );
    let _trace = install(&sim.spawner(), &plan, &targets);
    sim.run_until(SimTime::from_millis(3_900));
    let mid = pair.b.speaker.segments_received();
    sim.run_until(SimTime::from_secs(6));
    (
        mid,
        pair.b.speaker.segments_received(),
        pair.b.switch_stats.dropped_total(),
    )
}

#[test]
fn p5_stalled_consumer_loses_only_its_own_stream() {
    let (mid, audio, sw_drops) = p5_run(true);
    assert!(
        sw_drops > 0,
        "paused mixer never overflowed its ready-mode gate"
    );
    assert!(mid > 900, "audio stalled mid-fault with P5 on: {mid}");
    assert!(audio > 1_200, "audio suffered from a video stall: {audio}");
}

#[test]
fn p5_disabled_stall_propagates_to_all_streams() {
    let (mid_off, final_off, _) = p5_run(false);
    let (mid_on, _, _) = p5_run(true);
    assert!(
        mid_off + 200 < mid_on,
        "blocking gates did not back up the switch: {mid_off} vs {mid_on}"
    );
    // The stall defers audio rather than dropping it: playout resumes
    // once the mixer handler does.
    assert!(final_off > mid_off, "audio never recovered after resume");
}

// --- Clawback recovery (§3.7.2) -----------------------------------------

/// A 16 ms latency step is applied and reverted; the reversion flushes
/// the in-flight queue into B's playout buffer in one burst. Returns
/// (peak delay ms, final delay ms) of the monitored stream.
fn clawback_run(enabled: bool) -> (f64, f64) {
    let mut sim = Simulation::new();
    let mut cfg_b = BoxConfig::standard("boxb");
    if !enabled {
        // Never claw back: the adaptation threshold is unreachable.
        cfg_b.clawback.count_threshold = u64::MAX;
    }
    let (pair, targets) = pair_with(&sim, BoxConfig::standard("boxa"), cfg_b, 50_000_000, 66);
    open_audio_shout(&pair.a, &pair.b, tone());
    let plan = FaultPlan::default().event(
        SimDuration::from_secs(3),
        Some(SimDuration::from_secs(3)),
        FaultKind::LatencyStep {
            path: "a-b".into(),
            extra: SimDuration::from_millis(16),
        },
    );
    let _trace = install(&sim.spawner(), &plan, &targets);
    sim.run_until(SimTime::from_secs(90));
    let series = pair.b.speaker.delay_series();
    let peak = series
        .points()
        .iter()
        .map(|(_, v)| v)
        .fold(0.0f64, f64::max);
    let last = series.last_value().unwrap_or(0.0);
    (peak / 1e6, last / 1e6)
}

#[test]
fn clawback_recovers_from_latency_step() {
    let (peak, last) = clawback_run(true);
    assert!(
        peak > 12.0,
        "latency step never inflated the buffer: {peak}ms"
    );
    // One block per 8.192 s reclaims the ~8-block burst well inside the
    // 84 s tail; the buffer is back near its 4 ms target.
    assert!(last < 8.0, "clawback failed to reclaim the burst: {last}ms");
}

#[test]
fn clawback_disabled_buffer_stays_inflated() {
    let (peak, last) = clawback_run(false);
    assert!(peak > 12.0, "fault had no effect: {peak}ms");
    assert!(last > 12.0, "buffer shrank without clawback: {last}ms");
}

// --- Determinism: same seed ⇒ byte-identical trace and metrics ----------

fn videophone_profile(horizon: SimDuration, events: usize) -> RandomProfile {
    let mut p = RandomProfile::new(horizon, events);
    p.paths = vec!["a-b".into(), "b-a".into()];
    p.pause_prefixes = vec![
        "boxa:mixer-out-handler".into(),
        "boxb:mixer-out-handler".into(),
    ];
    p
}

/// A faulted videophone pair run for 10 s: the fault trace, the metric
/// snapshot, and both boxes' host logs rendered one after the other.
fn deterministic_run(seed: u64) -> (String, String, String) {
    let mut sim = Simulation::new();
    let (pair, targets) = pair_with(
        &sim,
        BoxConfig::standard("boxa"),
        BoxConfig::standard("boxb"),
        20_000_000,
        5,
    );
    open_audio_shout(&pair.a, &pair.b, tone());
    open_video_stream(&pair.a, &pair.b, support::video_cfg());
    let plan = FaultPlan::random(seed, &videophone_profile(SimDuration::from_secs(8), 4));
    let trace = install(&sim.spawner(), &plan, &targets);
    sim.run_until(SimTime::from_secs(10));
    let log = pair.a.log.render() + &pair.b.log.render();
    (trace.to_text(), support::snapshot(&pair), log)
}

#[test]
fn same_seed_replays_byte_identically() {
    let (trace_1, snap_1, _) = deterministic_run(1234);
    let (trace_2, snap_2, _) = deterministic_run(1234);
    assert!(!trace_1.is_empty(), "seeded plan injected nothing");
    assert_eq!(trace_1, trace_2, "fault trace diverged between replays");
    assert_eq!(
        snap_1, snap_2,
        "conformance metrics diverged between replays"
    );
    let (trace_3, _, _) = deterministic_run(4321);
    assert_ne!(trace_1, trace_3, "different seeds produced the same trace");
}

/// The host log across commits, not just across replays: FNV-1a of both
/// boxes' rendered logs under seed 1234 (seven lines from the switch,
/// `net-in` and audio playback), recorded while every process still kept
/// its own rate limiter and awaited its report sends. Every source, class,
/// message and instant must survive a change to how reports are made.
#[test]
fn seeded_host_log_matches_the_recording() {
    let (_, _, log) = deterministic_run(1234);
    let digest = log.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(
        digest,
        0x53db_9968_b25d_2e08,
        "host log moved ({} lines):\n{log}",
        log.lines().count()
    );
}

// --- Seeded sweeps -------------------------------------------------------

/// Global invariants every faulted run must satisfy once the fault
/// schedule's recovery tail has elapsed.
fn assert_invariants(pair: &BoxPair, audio_floor: u64, ctx: &str) {
    for (label, b) in [("a", &pair.a), ("b", &pair.b)] {
        assert_eq!(
            b.net_in_stats.pool_exhausted(),
            0,
            "{ctx}: pool exhausted on {label}"
        );
        assert!(
            b.pool.free_count() > b.pool.capacity() - 16,
            "{ctx}: pool leak on {label}: {} of {} free",
            b.pool.free_count(),
            b.pool.capacity()
        );
    }
    assert!(
        pair.b.speaker.segments_received() > audio_floor,
        "{ctx}: audio collapsed: {}",
        pair.b.speaker.segments_received()
    );
}

#[test]
fn videophone_fault_sweep_holds_invariants() {
    for seed in 1..=8u64 {
        let mut sim = Simulation::new();
        let (pair, targets) = pair_with(
            &sim,
            BoxConfig::standard("boxa"),
            BoxConfig::standard("boxb"),
            20_000_000,
            seed,
        );
        open_audio_shout(&pair.a, &pair.b, tone());
        open_audio_shout(&pair.b, &pair.a, tone());
        open_video_stream(&pair.a, &pair.b, support::video_cfg());
        let plan = FaultPlan::random(seed, &videophone_profile(SimDuration::from_secs(9), 5));
        let trace = install(&sim.spawner(), &plan, &targets);
        sim.run_until(SimTime::from_secs(12));
        assert!(!trace.is_empty(), "seed {seed}: nothing injected");
        assert_invariants(&pair, 1_200, &format!("videophone seed {seed}"));
    }
}

#[test]
fn conference_fault_sweep_holds_invariants() {
    // A two-party conference: duplex audio, duplex video, and a second
    // audio stream a→b (a shared-room feed) through the same switch.
    for seed in [100u64, 101] {
        let mut sim = Simulation::new();
        let (pair, targets) = pair_with(
            &sim,
            BoxConfig::standard("boxa"),
            BoxConfig::standard("boxb"),
            20_000_000,
            seed,
        );
        open_audio_shout(&pair.a, &pair.b, tone());
        open_audio_shout(&pair.b, &pair.a, tone());
        open_audio_shout(&pair.a, &pair.b, Box::new(Tone::new(330.0, 6_000.0)));
        open_video_stream(&pair.a, &pair.b, support::video_cfg());
        open_video_stream(&pair.b, &pair.a, support::video_cfg());
        let plan = FaultPlan::random(seed, &videophone_profile(SimDuration::from_secs(9), 5));
        let trace = install(&sim.spawner(), &plan, &targets);
        sim.run_until(SimTime::from_secs(12));
        assert!(!trace.is_empty(), "seed {seed}: nothing injected");
        assert_invariants(&pair, 1_200, &format!("conference seed {seed}"));
    }
}
