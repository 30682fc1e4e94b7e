//! System-level integration: whole boxes, whole network, whole paths.

use pandora::{connect_pair, open_audio_shout, open_video_stream, BoxConfig};
use pandora_atm::{HopConfig, JitterModel};
use pandora_audio::gen::{Speech, Tone};
use pandora_sim::{SimDuration, SimTime, Simulation};
use pandora_video::dpcm::LineMode;
use pandora_video::{CaptureConfig, RateFraction, Rect};

fn clean_hop() -> HopConfig {
    HopConfig::clean(50_000_000)
}

const GOLDEN_DISPLAY_HASHES: [u64; 4] = [
    4912067482786329231,
    5785782895990733851,
    9121002930579966320,
    14499312449978399563,
];

#[test]
fn audio_and_video_call_end_to_end() {
    let mut sim = Simulation::new();
    let pair = connect_pair(
        &sim.spawner(),
        BoxConfig::standard("a"),
        BoxConfig::standard("b"),
        &[clean_hop()],
        42,
    );
    open_audio_shout(&pair.a, &pair.b, Box::new(Speech::new(1)));
    open_video_stream(
        &pair.a,
        &pair.b,
        CaptureConfig {
            rect: Rect::new(0, 0, 128, 96),
            rate: RateFraction::new(2, 5),
            lines_per_segment: 32,
            mode: LineMode::Dpcm,
        },
    );
    // Pixel golden: FNV-1a of the displayed rectangle at four instants,
    // recorded before the camera became lazy (PR 18). The benchmark's
    // digests count segments, not pixels; this is the pixel-level proof
    // that what a reader sees did not change.
    let mut shown = Vec::new();
    for ms in [750, 1_500, 2_250, 3_000] {
        sim.run_until(SimTime::from_millis(ms));
        let pixels = pair.b.display.read_display(Rect::new(0, 0, 128, 96));
        shown.push(pixels.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &p| {
            (h ^ u64::from(p)).wrapping_mul(0x0000_0100_0000_01b3)
        }));
    }
    assert_eq!(shown, GOLDEN_DISPLAY_HASHES, "displayed pixels moved");
    assert!(pair.b.speaker.segments_received() > 700);
    assert_eq!(pair.b.speaker.segments_lost(), 0);
    assert!(pair.b.display.frames_shown() > 25);
    assert_eq!(pair.b.display.decode_errors(), 0);
}

#[test]
fn lip_sync_headroom() {
    // §2.3 P7: "it is also irritating if the video lags appreciably behind
    // the audio". Over a clean path, audio and video latency must both be
    // modest and within the same regime (audio < video < audio + 80ms).
    let mut sim = Simulation::new();
    let pair = connect_pair(
        &sim.spawner(),
        BoxConfig::standard("a"),
        BoxConfig::standard("b"),
        &[clean_hop()],
        7,
    );
    open_audio_shout(&pair.a, &pair.b, Box::new(Tone::new(440.0, 8_000.0)));
    open_video_stream(
        &pair.a,
        &pair.b,
        CaptureConfig {
            rect: Rect::new(0, 0, 192, 144),
            rate: RateFraction::new(2, 5),
            lines_per_segment: 48,
            mode: LineMode::Dpcm,
        },
    );
    sim.run_until(SimTime::from_secs(3));
    let mut audio = pair.b.speaker.latency_ns();
    let mut video = pair.b.display.latency_ns();
    let a50 = audio.percentile(50.0);
    let v50 = video.percentile(50.0);
    assert!(a50 < 20e6, "audio p50 {}ms", a50 / 1e6);
    assert!(
        v50 < a50 + 80e6,
        "video lags audio too far: {}ms",
        (v50 - a50) / 1e6
    );
}

#[test]
fn deterministic_replay() {
    // Two identical simulations produce identical statistics — the
    // property that makes the experiment tables exactly reproducible.
    let run = || {
        let mut sim = Simulation::new();
        let hop = HopConfig {
            bits_per_sec: 34_000_000,
            latency: SimDuration::from_millis(1),
            jitter: JitterModel::Bursty {
                base: SimDuration::from_millis(2),
                burst: SimDuration::from_millis(15),
                burst_prob: 0.05,
            },
            loss: 0.001,
        };
        let pair = connect_pair(
            &sim.spawner(),
            BoxConfig::standard("a"),
            BoxConfig::standard("b"),
            &[hop],
            1234,
        );
        open_audio_shout(&pair.a, &pair.b, Box::new(Speech::new(9)));
        sim.run_until(SimTime::from_secs(5));
        (
            pair.b.speaker.segments_received(),
            pair.b.speaker.segments_lost(),
            pair.b.speaker.concealed(),
            pair.b.speaker.clawback_stats(),
            sim.context_switches(),
        )
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "simulation is not deterministic");
}

#[test]
fn drifting_clocks_absorbed_end_to_end() {
    // E7 at system level: a source crystal 1e-4 fast is absorbed by the
    // destination clawback; no unbounded growth, no cap faults.
    let mut sim = Simulation::new();
    let mut cfg_a = BoxConfig::standard("fast");
    cfg_a.clock_drift = 1e-4;
    let pair = connect_pair(
        &sim.spawner(),
        cfg_a,
        BoxConfig::standard("b"),
        &[clean_hop()],
        5,
    );
    open_audio_shout(&pair.a, &pair.b, Box::new(Tone::new(440.0, 8_000.0)));
    sim.run_until(SimTime::from_secs(60));
    let stats = pair.b.speaker.clawback_stats();
    assert_eq!(stats.over_limit, 0, "clawback cap hit under mild drift");
    // The surplus blocks produced by the fast clock are clawed back.
    assert!(stats.clawed_back > 0, "drift never clawed back");
    let delay = pair.b.speaker.delay_series().last_value().unwrap_or(0.0);
    assert!(delay < 30e6, "standing delay {}ms", delay / 1e6);
}

#[test]
fn no_buffer_leaks_across_long_mixed_run() {
    let mut sim = Simulation::new();
    let pair = connect_pair(
        &sim.spawner(),
        BoxConfig::standard("a"),
        BoxConfig::standard("b"),
        &[clean_hop()],
        3,
    );
    open_audio_shout(&pair.a, &pair.b, Box::new(Speech::new(3)));
    open_audio_shout(&pair.b, &pair.a, Box::new(Speech::new(4)));
    open_video_stream(
        &pair.a,
        &pair.b,
        CaptureConfig {
            rect: Rect::new(0, 0, 128, 96),
            rate: RateFraction::new(1, 5),
            lines_per_segment: 32,
            mode: LineMode::DpcmSub2,
        },
    );
    sim.run_until(SimTime::from_secs(10));
    for (name, b) in [("a", &pair.a), ("b", &pair.b)] {
        let free = b.pool.free_count();
        let cap = b.pool.capacity();
        assert!(
            free > cap - 12,
            "{name}: {free}/{cap} free — leak suspected"
        );
    }
}

#[test]
fn pool_exhaustion_raises_serious_fault() {
    // §3.4: "the allocator reports this (serious) fault on its report
    // channel so that it can be logged." Shrink the pool until the input
    // handlers hit it, and look for the Fault-class report.
    let mut sim = Simulation::new();
    let mut cfg = BoxConfig::standard("tiny");
    cfg.pool_buffers = 2;
    let pair = connect_pair(
        &sim.spawner(),
        cfg,
        BoxConfig::standard("b"),
        &[clean_hop()],
        77,
    );
    open_audio_shout(&pair.a, &pair.b, Box::new(Tone::new(440.0, 8_000.0)));
    open_video_stream(
        &pair.a,
        &pair.b,
        CaptureConfig {
            rect: Rect::new(0, 0, 256, 192),
            rate: RateFraction::FULL,
            lines_per_segment: 32,
            mode: LineMode::Dpcm,
        },
    );
    sim.run_until(SimTime::from_secs(2));
    let faults = pair.a.log.of_class(pandora_buffers::ReportClass::Fault);
    assert!(
        !faults.is_empty(),
        "no serious-fault report from the exhausted pool"
    );
    assert!(
        faults.iter().any(|r| r.message.contains("pool exhausted")),
        "unexpected fault text: {:?}",
        faults.first()
    );
}

#[test]
fn corrupted_cells_are_contained() {
    // Inject garbage cells alongside a live stream: the net-in handler
    // reports decode errors and the stream itself is unaffected.
    let mut sim = Simulation::new();
    let pair = connect_pair(
        &sim.spawner(),
        BoxConfig::standard("a"),
        BoxConfig::standard("b"),
        &[clean_hop()],
        78,
    );
    open_audio_shout(&pair.a, &pair.b, Box::new(Tone::new(440.0, 8_000.0)));
    // Garbage frames on an unrelated VCI, injected at box A's transmit
    // side through the switch-less injector path? Simpler: drive box B's
    // switch directly with undecodable traffic via the test injector.
    let injector = pair.b.injector();
    sim.spawner().spawn("garbage", async move {
        for i in 0..50u32 {
            pandora_sim::delay(pandora_sim::SimDuration::from_millis(20)).await;
            // A segment whose type is fine but routed nowhere: exercises
            // the no-route counter rather than a crash.
            let seg = pandora_segment::Segment::Test(pandora_segment::TestSegment::new(
                pandora_segment::SequenceNumber(i),
                pandora_segment::Timestamp(0),
                vec![0xAA; 100],
            ));
            if injector
                .send((pandora_segment::StreamId(999), seg))
                .await
                .is_err()
            {
                return;
            }
        }
    });
    sim.run_until(SimTime::from_secs(2));
    assert!(pair.b.switch_stats.no_route() >= 45, "garbage not counted");
    // The real stream is untouched.
    assert_eq!(pair.b.speaker.segments_lost(), 0);
    assert!(pair.b.speaker.segments_received() > 450);
    // And nothing leaked.
    assert!(pair.b.pool.free_count() > pair.b.pool.capacity() - 8);
}

#[test]
fn reports_surface_degradation_but_stay_rate_limited() {
    // Saturate a narrow link; the host log must carry overload reports but
    // be bounded by the per-class minimum period (§3.8).
    let mut sim = Simulation::new();
    let cfg = BoxConfig::standard("a");
    let pair = connect_pair(
        &sim.spawner(),
        cfg,
        BoxConfig::standard("b"),
        &[HopConfig::clean(4_000_000)],
        8,
    );
    open_audio_shout(&pair.a, &pair.b, Box::new(Tone::new(440.0, 8_000.0)));
    open_video_stream(
        &pair.a,
        &pair.b,
        CaptureConfig {
            rect: Rect::new(0, 0, 256, 192),
            rate: RateFraction::FULL,
            lines_per_segment: 64,
            mode: LineMode::Dpcm,
        },
    );
    sim.run_until(SimTime::from_secs(5));
    let overload = pair.a.log.of_class(pandora_buffers::ReportClass::Overload);
    assert!(
        !overload.is_empty(),
        "no overload reports despite saturation"
    );
    // 5s at a 500ms minimum period per class: a loose bound across the
    // handful of classes (P3 per-stream + switch per-stream-output).
    assert!(overload.len() <= 60, "report flood: {}", overload.len());
}
