//! Experiments E4 and E10–E12: the overload/priority principles in action.

use pandora::audio_board::{spawn_audio_playback, spawn_stream_generators, PlaybackConfig};
use pandora::pandora_box::{connect_pair, open_audio_shout, open_video_stream};
use pandora::{BoxConfig, OutputId, StreamKind, TxMode};
use pandora_atm::HopConfig;
use pandora_audio::gen::Tone;
use pandora_buffers::{Report, Reporter};
use pandora_metrics::Table;
use pandora_segment::{AudioSegment, StreamId};
use pandora_sim::{channel, unbounded, Cpu, SimDuration, SimTime, Simulation};
use pandora_video::dpcm::LineMode;
use pandora_video::{CaptureConfig, RateFraction, Rect};

/// Result of the E4 jitter experiment.
pub struct VideoJitterResult {
    /// `(label, audio jitter p2p ns, max audio hold-up ns)` rows.
    pub rows: Vec<(String, f64, f64)>,
    /// The printable table.
    pub table: Table,
}

/// E4: "our network code introduces more latency than necessary because
/// segment transmissions are not interleaved. Thus video segments can hold
/// up following audio segments, introducing up to 20ms of jitter in a
/// stream" (§4.2). Reproduced with a video call sharing the network
/// output, non-interleaved vs the interleaved ablation.
pub fn video_jitter() -> VideoJitterResult {
    let mut rows = Vec::new();
    let mut table = Table::new(
        "T4 (§4.2): audio jitter from non-interleaved video segment transmission",
        &[
            "tx mode",
            "video",
            "audio jitter p2p (ms)",
            "max audio hold-up (ms)",
        ],
    );
    for (label, tx_mode, with_video) in [
        ("non-interleaved", TxMode::NonInterleaved, false),
        ("non-interleaved", TxMode::NonInterleaved, true),
        ("interleaved", TxMode::Interleaved, true),
    ] {
        let mut sim = Simulation::new();
        let mut cfg_a = BoxConfig::standard("a");
        // A 10 Mbit/s attachment (ATM-ring-era rate) makes large video
        // segments occupy the wire for many milliseconds.
        cfg_a.tx_mode = tx_mode;
        let cfg_b = BoxConfig::standard("b");
        let pair = connect_pair(
            &sim.spawner(),
            cfg_a,
            cfg_b,
            &[HopConfig::clean(10_000_000)],
            5,
        );
        open_audio_shout(&pair.a, &pair.b, Box::new(Tone::new(440.0, 8_000.0)));
        if with_video {
            open_video_stream(
                &pair.a,
                &pair.b,
                CaptureConfig {
                    rect: Rect::new(0, 0, 256, 192),
                    rate: RateFraction::new(2, 5),
                    // Whole frames as single segments (~25 kB compressed):
                    // the "large blocks of video" of §3.7.2/§4.2.
                    lines_per_segment: 192,
                    mode: LineMode::Dpcm,
                },
            );
        }
        sim.run_until(SimTime::from_secs(5));
        let jitter = pair
            .b
            .speaker
            .jitter_of(StreamId(1))
            .map(|j| j.peak_to_peak())
            .unwrap_or(0.0);
        let holdup = pair.a.net_out_stats.audio_wait_ns().max();
        let video = if with_video { "yes" } else { "no" };
        rows.push((format!("{label}/{video}"), jitter, holdup));
        table.row_owned(vec![
            label.to_string(),
            video.to_string(),
            format!("{:.2}", jitter / 1e6),
            format!("{:.2}", holdup / 1e6),
        ]);
    }
    VideoJitterResult { rows, table }
}

/// Result of the E10 overload-policy experiment.
pub struct OverloadPolicyResult {
    /// P1: outgoing blocks captured vs expected, under CPU overload (%).
    pub outgoing_delivery: f64,
    /// P1: incoming late-tick fraction under the same overload.
    pub incoming_late_fraction: f64,
    /// P2: audio segments delivered end-to-end under link overload (%).
    pub audio_delivery: f64,
    /// P2: video segments delivered end-to-end under link overload (%).
    pub video_delivery: f64,
    /// P3: drops charged to the oldest vs the newest video stream.
    pub oldest_drops: u64,
    /// P3 companion figure.
    pub newest_drops: u64,
    /// The printable table.
    pub table: Table,
}

/// E10: principles P1–P3 under deliberate overload (§2.1).
pub fn overload_policy() -> OverloadPolicyResult {
    // --- P1: audio CPU overloaded by 6 incoming streams + 1 outgoing.
    let (outgoing_delivery, incoming_late) = {
        let mut sim = Simulation::new();
        let cpu = Cpu::new("audio", SimDuration::from_nanos(700));
        let (tx, rx) = channel::<(StreamId, AudioSegment)>();
        let (rep_tx, _rep_rx) = unbounded::<Report>();
        let sink = spawn_audio_playback(
            &sim.spawner(),
            "p1",
            PlaybackConfig::default(),
            None,
            cpu.clone(),
            rx,
            &Reporter::new(rep_tx, "host", SimDuration::from_millis(500)),
        );
        let (mic_tx, mic_rx) = channel::<AudioSegment>();
        let cstats = pandora::audio_board::spawn_audio_capture(
            &sim.spawner(),
            "p1",
            pandora::audio_board::CaptureConfig {
                signal: Box::new(Tone::new(440.0, 8_000.0)),
                blocks_per_segment: 2,
                drift: 0.0,
                outgoing_cost: SimDuration::from_micros(250),
                fifo_depth: 16,
            },
            None,
            cpu,
            mic_tx,
        );
        sim.spawn(
            "mic-sink",
            async move { while mic_rx.recv().await.is_ok() {} },
        );
        spawn_stream_generators(&sim.spawner(), tx, 6, 2, SimTime::from_secs(3));
        sim.run_until(SimTime::from_secs(3));
        // 3s at 2ms blocks = 1500 outgoing blocks expected.
        let delivery = cstats.blocks() as f64 / 1_500.0;
        (delivery * 100.0, sink.late_fraction())
    };

    // --- P2 and P3: a 6 Mbit/s bottleneck carrying one audio call plus
    // two video streams (one old, one new).
    let (audio_delivery, video_delivery, oldest_drops, newest_drops) = {
        let mut sim = Simulation::new();
        let mut cfg_a = BoxConfig::standard("a");
        cfg_a.video_backlog_cap = 12;
        let pair = connect_pair(
            &sim.spawner(),
            cfg_a,
            BoxConfig::standard("b"),
            &[HopConfig::clean(6_000_000)],
            9,
        );
        open_audio_shout(&pair.a, &pair.b, Box::new(Tone::new(440.0, 8_000.0)));
        // Full-rate video: ~5.5 Mbit/s per stream, so two streams swamp
        // the 6 Mbit/s attachment.
        let big_video = CaptureConfig {
            rect: Rect::new(0, 0, 256, 192),
            rate: RateFraction::FULL,
            lines_per_segment: 64,
            mode: LineMode::Dpcm,
        };
        // The "old" stream opens at t=0; the "new" one joins at t=2s.
        let (old_src, _old_dst, _h1) = open_video_stream(&pair.a, &pair.b, big_video);
        sim.run_until(SimTime::from_secs(2));
        let (new_src, _new_dst, _h2) = open_video_stream(&pair.a, &pair.b, big_video);
        sim.run_until(SimTime::from_secs(8));
        let audio_sent = pair.a.net_out_stats.audio_segments();
        let audio_recv = pair.b.speaker.segments_received();
        let audio_delivery = audio_recv as f64 / audio_sent.max(1) as f64 * 100.0;
        let video_sent = pair.a.net_out_stats.video_segments();
        let video_offered = video_sent
            + pair.a.net_out_stats.p3_drops_total()
            + pair.a.switch_stats.dropped_total();
        let video_delivery = video_sent as f64 / video_offered.max(1) as f64 * 100.0;
        (
            audio_delivery,
            video_delivery,
            pair.a.net_out_stats.p3_drops(old_src),
            pair.a.net_out_stats.p3_drops(new_src),
        )
    };

    let mut table = Table::new(
        "T10 (§2.1): degradation order under overload (P1/P2/P3)",
        &["principle", "metric", "value"],
    );
    table.row_owned(vec![
        "P1 outgoing-first".into(),
        "outgoing blocks delivered under CPU overload".into(),
        format!("{outgoing_delivery:.1}%"),
    ]);
    table.row_owned(vec![
        "P1 outgoing-first".into(),
        "incoming late mix ticks under the same load".into(),
        format!("{:.1}%", incoming_late * 100.0),
    ]);
    table.row_owned(vec![
        "P2 audio-first".into(),
        "audio segments through 6 Mbit/s bottleneck".into(),
        format!("{audio_delivery:.1}%"),
    ]);
    table.row_owned(vec![
        "P2 audio-first".into(),
        "video segments through the same bottleneck".into(),
        format!("{video_delivery:.1}%"),
    ]);
    table.row_owned(vec![
        "P3 newest-first".into(),
        "drops charged to oldest video stream".into(),
        oldest_drops.to_string(),
    ]);
    table.row_owned(vec![
        "P3 newest-first".into(),
        "drops charged to newest video stream".into(),
        newest_drops.to_string(),
    ]);
    OverloadPolicyResult {
        outgoing_delivery,
        incoming_late_fraction: incoming_late,
        audio_delivery,
        video_delivery,
        oldest_drops,
        newest_drops,
        table,
    }
}

/// Result of the E11 command-latency experiment.
pub struct CommandLatencyResult {
    /// Time from command issue to its report, with the switch saturated (ns).
    pub latency_under_load_ns: f64,
    /// Same, idle (ns).
    pub latency_idle_ns: f64,
    /// The printable table.
    pub table: Table,
}

/// E11 (P4): "it should not be possible for stream processing to prevent
/// the transport and execution of commands" (§2.1).
pub fn command_latency() -> CommandLatencyResult {
    let run = |loaded: bool| -> f64 {
        let mut sim = Simulation::new();
        let cfg_a = BoxConfig::standard("a");
        let pair = connect_pair(
            &sim.spawner(),
            cfg_a,
            BoxConfig::standard("b"),
            &[HopConfig::clean(6_000_000)],
            13,
        );
        let (src, _dst) = open_audio_shout(&pair.a, &pair.b, Box::new(Tone::new(440.0, 8_000.0)));
        if loaded {
            for _ in 0..3 {
                open_video_stream(
                    &pair.a,
                    &pair.b,
                    CaptureConfig {
                        rect: Rect::new(0, 0, 256, 192),
                        rate: RateFraction::FULL,
                        lines_per_segment: 96,
                        mode: LineMode::Dpcm,
                    },
                );
            }
        }
        sim.run_until(SimTime::from_secs(2));
        let issued = sim.now();
        pair.a.query_stream(src);
        // Run until the report shows up.
        let mut reply = None;
        for _ in 0..1_000 {
            sim.run_for(SimDuration::from_millis(1));
            if let Some(r) = pair
                .a
                .log
                .of_class(pandora_buffers::ReportClass::Info)
                .into_iter()
                .find(|r| r.time >= issued)
            {
                reply = Some(r.time);
                break;
            }
        }
        let reply = reply.expect("command starved: no report");
        (reply - issued).as_nanos() as f64
    };
    let idle = run(false);
    let loaded = run(true);
    let mut table = Table::new(
        "T11 (§2.1 P4): switch Query command round-trip",
        &["condition", "command latency (us)"],
    );
    table.row_owned(vec!["idle".into(), format!("{:.1}", idle / 1e3)]);
    table.row_owned(vec![
        "network saturated by video".into(),
        format!("{:.1}", loaded / 1e3),
    ]);
    CommandLatencyResult {
        latency_under_load_ns: loaded,
        latency_idle_ns: idle,
        table,
    }
}

/// Result of the E12 splitting experiment.
pub struct SplitResult {
    /// Segments delivered to the healthy local destination.
    pub healthy_delivered: u64,
    /// Segments delivered to the stalled destination.
    pub stalled_delivered: u64,
    /// Drops recorded by the switch for the stalled output only.
    pub stalled_drops: u64,
    /// Segment sequence gaps seen by the recorder across a mid-stream
    /// destination addition/removal (must be 0 — Principle 6).
    pub recorder_gaps: u64,
    /// Segments recorded.
    pub recorded: u64,
    /// The printable table.
    pub table: Table,
}

/// E12 (P5 + P6): "downstream performance bottlenecks should not affect
/// streams that have been split off earlier" and "splitting a stream to an
/// extra destination, or closing down one of several destinations, should
/// not affect the other copies of that stream" (§2.2).
pub fn split_independence() -> SplitResult {
    let mut sim = Simulation::new();
    let pair = connect_pair(
        &sim.spawner(),
        BoxConfig::standard("a"),
        BoxConfig::standard("b"),
        &[HopConfig::clean(50_000_000)],
        21,
    );
    // A local source split to the local speaker and the repository tap.
    let s = pair
        .a
        .start_audio_source(Box::new(Tone::new(440.0, 8_000.0)));
    pair.a.set_route(
        s,
        StreamKind::Audio,
        vec![OutputId::Audio, OutputId::Repository],
    );
    // Recorder on the repository tap, tracking sequence numbers — it
    // records for one second and then stalls for good (the overloaded
    // destination of Principle 5).
    let repo_rx = pair.a.take_repository_rx().expect("tap");
    let recorded = std::rc::Rc::new(std::cell::Cell::new(0u64));
    let gaps = std::rc::Rc::new(std::cell::Cell::new(0u64));
    {
        let recorded = recorded.clone();
        let gaps = gaps.clone();
        sim.spawn("recorder", async move {
            let mut tracker = pandora_segment::SeqTracker::new();
            let stall_at = SimTime::from_secs(1);
            while pandora_sim::now() < stall_at {
                let Ok((_sid, seg)) = repo_rx.recv().await else {
                    return;
                };
                if let pandora_segment::SeqEvent::Gap { missing } =
                    tracker.observe(seg.common().sequence)
                {
                    gaps.set(gaps.get() + missing as u64);
                }
                recorded.set(recorded.get() + 1);
            }
            // Stalled: the repository decoupling buffer wedges; the switch
            // must shed for this output only.
            std::future::pending::<()>().await;
        });
    }
    sim.run_until(SimTime::from_secs(1));
    // Mid-stream re-plumbing (P6): add and later remove a third
    // destination while data flows; the surviving copies must see no
    // discontinuity.
    pair.a.add_dest(s, OutputId::Mixer);
    sim.run_until(SimTime::from_secs(3));
    pair.a.remove_dest(s, OutputId::Mixer);
    sim.run_until(SimTime::from_secs(4));

    let healthy = pair.a.speaker.segments_received();
    let stalled_drops = pair.a.switch_stats.dropped(s, "repository");
    let mut table = Table::new(
        "T12 (§2.2 P5/P6): 3-way split with one stalled destination",
        &["metric", "value"],
    );
    table.row_owned(vec![
        "segments to healthy speaker (4s)".into(),
        healthy.to_string(),
    ]);
    table.row_owned(vec![
        "segments recorded before stall (1s)".into(),
        recorded.get().to_string(),
    ]);
    table.row_owned(vec![
        "sequence gaps at recorder".into(),
        gaps.get().to_string(),
    ]);
    table.row_owned(vec![
        "speaker gaps across re-plumbing".into(),
        pair.a.speaker.segments_lost().to_string(),
    ]);
    table.row_owned(vec![
        "switch drops for stalled output".into(),
        stalled_drops.to_string(),
    ]);
    let healthy_lost = pair.a.speaker.segments_lost();
    let _ = healthy_lost;
    SplitResult {
        healthy_delivered: healthy,
        stalled_delivered: 0,
        stalled_drops,
        recorder_gaps: gaps.get(),
        recorded: recorded.get(),
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_noninterleaved_video_adds_up_to_20ms_jitter() {
        let r = video_jitter();
        let (_, jitter_novideo, _) = &r.rows[0];
        let (_, jitter_ni, holdup_ni) = &r.rows[1];
        let (_, jitter_il, holdup_il) = &r.rows[2];
        // Without video: small jitter.
        assert!(
            *jitter_novideo < 3e6,
            "baseline {}ns\n{}",
            jitter_novideo,
            r.table
        );
        // Non-interleaved video: hold-ups in the ~10-25ms range — the
        // paper's "up to 20ms".
        assert!(*holdup_ni > 8e6, "hold-up {}ns\n{}", holdup_ni, r.table);
        assert!(*holdup_ni < 40e6, "hold-up {}ns", holdup_ni);
        assert!(
            *jitter_ni > 2.0 * *jitter_novideo,
            "jitter did not grow\n{}",
            r.table
        );
        // Interleaving fixes it.
        assert!(
            *holdup_il < *holdup_ni / 4.0,
            "interleaved {holdup_il} vs {holdup_ni}"
        );
        let _ = jitter_il;
    }

    #[test]
    fn e10_priorities_order_degradation() {
        let r = overload_policy();
        // P1: outgoing survived; incoming degraded.
        assert!(
            r.outgoing_delivery > 99.0,
            "outgoing {}%\n{}",
            r.outgoing_delivery,
            r.table
        );
        assert!(
            r.incoming_late_fraction > 0.3,
            "incoming never degraded\n{}",
            r.table
        );
        // P2: audio sails through; video is shed.
        assert!(
            r.audio_delivery > 97.0,
            "audio {}%\n{}",
            r.audio_delivery,
            r.table
        );
        assert!(
            r.video_delivery < 90.0,
            "video {}%\n{}",
            r.video_delivery,
            r.table
        );
        // P3: the old stream takes (at least almost) all the scheduler drops.
        assert!(r.oldest_drops > 0, "\n{}", r.table);
        assert!(
            r.oldest_drops > r.newest_drops,
            "{} vs {}",
            r.oldest_drops,
            r.newest_drops
        );
    }

    #[test]
    fn e11_commands_unaffected_by_load() {
        let r = command_latency();
        // Commands land within a couple of milliseconds even when the data
        // path is saturated (vs seconds of queued video).
        assert!(
            r.latency_under_load_ns < 5e6,
            "command took {}ms\n{}",
            r.latency_under_load_ns / 1e6,
            r.table
        );
    }

    #[test]
    fn e12_split_survives_stall_and_replumb() {
        let r = split_independence();
        // ~4s at 4ms/segment ≈ 1000 segments to the healthy speaker even
        // though the recorder wedged at 1s.
        assert!(
            r.healthy_delivered > 900,
            "healthy {}\n{}",
            r.healthy_delivered,
            r.table
        );
        // The recorder saw a clean gap-free second before stalling.
        assert!(r.recorded > 200, "recorded {}\n{}", r.recorded, r.table);
        assert_eq!(r.recorder_gaps, 0, "gaps at recorder\n{}", r.table);
        assert!(
            r.stalled_drops > 500,
            "the stalled output never shed\n{}",
            r.table
        );
    }
}
