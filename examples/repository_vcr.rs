//! Videomail with the Repository (§2.1, §3.2, §4.1): record a live stream,
//! rewrite it into the compact 40 ms format, then play it back later into
//! another box.
//!
//! ```text
//! cargo run --release --example repository_vcr
//! ```

use pandora::{connect_pair, BoxConfig, OutputId, StreamKind};
use pandora_atm::HopConfig;
use pandora_audio::gen::Speech;
use pandora_repository::{Repository, RepositoryCosts};
use pandora_sim::{SimTime, Simulation};

fn main() {
    let mut sim = Simulation::new();
    let pair = connect_pair(
        &sim.spawner(),
        BoxConfig::standard("sender"),
        BoxConfig::standard("receiver"),
        &[HopConfig::clean(50_000_000)],
        3,
    );
    let repo = Repository::new(
        &sim.spawner(),
        "archive",
        RepositoryCosts::default(),
        &pair.a.log.reporter("repository"),
    );

    // Record 5 seconds of the sender's microphone via the repository tap.
    let mic = pair.a.start_audio_source(Box::new(Speech::new(11)));
    pair.a
        .set_route(mic, StreamKind::Audio, vec![OutputId::Repository]);
    let tap = pair.a.take_repository_rx().expect("repository tap");
    let recording = repo.record(tap, mic);
    sim.run_until(SimTime::from_secs(5));
    recording.stop();
    pair.a.clear_route(mic);
    println!("recorded {} live segments", recording.recorded());

    // Rewrite to the 40ms repository format.
    let compact = repo.resegment(recording.id()).expect("audio recording");
    let saving = repo.resegmentation_saving(recording.id(), compact).unwrap();
    let rec = repo.get(compact).unwrap();
    println!(
        "resegmented to {} forty-ms segments ({} bytes, {:.1}% smaller, repository format: {})",
        rec.len(),
        rec.stored_bytes(),
        saving * 100.0,
        pandora_repository::is_repository_format(&rec),
    );

    // Later: play the message into the receiver box ("these can be played
    // back directly to any Pandora box").
    let play_stream = pair.b.alloc_stream();
    pair.b
        .set_route(play_stream, StreamKind::Audio, vec![OutputId::Audio]);
    repo.playback(compact, play_stream, pair.b.injector(), 0)
        .expect("playback");
    sim.run_until(SimTime::from_secs(11));

    println!(
        "receiver heard the message: {} segments, {} lost, latency p50 {:.1} ms",
        pair.b.speaker.segments_received(),
        pair.b.speaker.segments_lost(),
        {
            let mut l = pair.b.speaker.latency_ns();
            l.percentile(50.0) / 1e6
        },
    );
    println!(
        "playback drops under contention: {}",
        repo.dropped_playback()
    );
}
