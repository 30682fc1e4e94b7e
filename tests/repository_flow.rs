//! Repository integration: record from a live box, re-segment, play back
//! into another box — the videomail flow of §4.1.

use pandora::{connect_pair, BoxConfig, OutputId, StreamKind};
use pandora_atm::HopConfig;
use pandora_audio::gen::Tone;
use pandora_repository::{is_repository_format, Repository, RepositoryCosts};
use pandora_sim::{SimTime, Simulation};

#[test]
fn record_resegment_playback_across_boxes() {
    let mut sim = Simulation::new();
    let pair = connect_pair(
        &sim.spawner(),
        BoxConfig::standard("src"),
        BoxConfig::standard("dst"),
        &[HopConfig::clean(50_000_000)],
        17,
    );
    let repo = Repository::new(
        &sim.spawner(),
        "r",
        RepositoryCosts::default(),
        &pair.a.log.reporter("repository"),
    );

    // Record 2 seconds of microphone.
    let mic = pair
        .a
        .start_audio_source(Box::new(Tone::new(440.0, 9_000.0)));
    pair.a
        .set_route(mic, StreamKind::Audio, vec![OutputId::Repository]);
    let tap = pair.a.take_repository_rx().unwrap();
    let rec = repo.record(tap, mic);
    sim.run_until(SimTime::from_secs(2));
    rec.stop();
    pair.a.clear_route(mic);
    assert!(rec.recorded() >= 498, "recorded {}", rec.recorded());

    // Re-segment into the 40ms format.
    let compact = repo.resegment(rec.id()).unwrap();
    let r = repo.get(compact).unwrap();
    assert!(is_repository_format(&r));
    assert!(repo.resegmentation_saving(rec.id(), compact).unwrap() > 0.4);

    // Play back into the destination box's switch; it reaches the speaker.
    let play = pair.b.alloc_stream();
    pair.b
        .set_route(play, StreamKind::Audio, vec![OutputId::Audio]);
    let received_before = pair.b.speaker.segments_received();
    repo.playback(compact, play, pair.b.injector(), 0).unwrap();
    sim.run_until(SimTime::from_secs(5));
    let received = pair.b.speaker.segments_received() - received_before;
    // ~2s of audio in 40ms segments = ~50 segments.
    assert!((45..=52).contains(&received), "played back {received}");
    assert_eq!(pair.b.speaker.segments_lost(), 0);
    // 40ms segments are 20 blocks: the clawback served ~1000 blocks.
    assert!(pair.b.speaker.clawback_stats().served >= 900);
}

#[test]
fn two_streams_recorded_together_stay_synchronised() {
    let mut sim = Simulation::new();
    let pair = connect_pair(
        &sim.spawner(),
        BoxConfig::standard("src"),
        BoxConfig::standard("dst"),
        &[HopConfig::clean(50_000_000)],
        18,
    );
    let repo = Repository::new(
        &sim.spawner(),
        "r",
        RepositoryCosts::default(),
        &pair.a.log.reporter("repository"),
    );
    // First mic starts now; second joins 200ms later (same repository —
    // "streams to be synchronised during playback must have been recorded
    // on the same repository, where their timestamp offsets are recorded").
    let mic1 = pair
        .a
        .start_audio_source(Box::new(Tone::new(300.0, 8_000.0)));
    pair.a
        .set_route(mic1, StreamKind::Audio, vec![OutputId::Repository]);
    let tap = pair.a.take_repository_rx().unwrap();
    // The tap carries all repository-routed streams; fan it out to the
    // two recorders.
    let (t1_tx, t1_rx) = pandora_sim::channel();
    let (t2_tx, t2_rx) = pandora_sim::channel();
    sim.spawner().spawn("tap-fanout", async move {
        while let Ok(m) = tap.recv().await {
            let _ = t1_tx.send(m.clone()).await;
            let _ = t2_tx.send(m).await;
        }
    });
    let rec1 = repo.record(t1_rx, mic1);
    sim.run_until(SimTime::from_millis(200));
    let mic2 = pair
        .a
        .start_audio_source(Box::new(Tone::new(500.0, 8_000.0)));
    pair.a
        .set_route(mic2, StreamKind::Audio, vec![OutputId::Repository]);
    let rec2 = repo.record(t2_rx, mic2);
    sim.run_until(SimTime::from_secs(2));
    rec1.stop();
    rec2.stop();
    pair.a.clear_route(mic1);
    pair.a.clear_route(mic2);

    // Synchronised playback into the destination box: both streams mix,
    // preserving the 200ms relative start.
    let p1 = pair.b.alloc_stream();
    let p2 = pair.b.alloc_stream();
    pair.b
        .set_route(p1, StreamKind::Audio, vec![OutputId::Audio]);
    pair.b
        .set_route(p2, StreamKind::Audio, vec![OutputId::Audio]);
    repo.playback_synced(vec![(rec1.id(), p1), (rec2.id(), p2)], pair.b.injector())
        .unwrap();
    sim.run_until(SimTime::from_secs(6));
    assert!(
        pair.b.speaker.max_active_streams() >= 2,
        "streams never overlapped"
    );
    let offset1 = repo.get(rec1.id()).unwrap().timestamp_offset;
    let offset2 = repo.get(rec2.id()).unwrap().timestamp_offset;
    let gap_ms = (offset2 as i64 - offset1 as i64) / 1_000_000;
    assert!((150..=260).contains(&gap_ms), "recorded offset {gap_ms}ms");
}
