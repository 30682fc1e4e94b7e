//! Medusa ↔ Pandora interoperability: both systems speak the same segment
//! and cell formats, so an exploded-Pandora unit can feed a classic box
//! (§5.2: "the overall architecture is very similar in terms of data
//! description and buffering").

use pandora::{BoxConfig, OutputId, PandoraBox, StreamKind};
use pandora_atm::{Cell, Vci};
use pandora_audio::gen::Tone;
use pandora_medusa::{spawn_mic_unit, spawn_speaker_unit, Fabric};
use pandora_sim::{SimTime, Simulation};

#[test]
fn medusa_mic_feeds_a_pandora_box() {
    let mut sim = Simulation::new();
    let spawner = sim.spawner();
    // A Pandora box whose network input is wired straight to a Medusa mic
    // unit's cell stream.
    let (cells_tx, cells_rx) = pandora_sim::channel::<Cell>();
    let (box_tx, _void_rx, _, _) = pandora_atm::build_path_controlled(
        &spawner,
        "out",
        &[pandora_atm::HopConfig::clean(50_000_000)],
        1,
    );
    let boxy = PandoraBox::new(&spawner, BoxConfig::standard("classic"), box_tx, cells_rx);
    let stream = boxy.alloc_stream();
    boxy.set_route(stream, StreamKind::Audio, vec![OutputId::Audio]);
    // The unit labels its cells with the box's stream number as VCI.
    let link_cfg = pandora_sim::LinkConfig::new("unit-line", 100_000_000);
    let (unit_tx, unit_rx) = pandora_sim::link::<Cell>(&spawner, link_cfg);
    spawner.spawn("line-pump", async move {
        while let Ok(c) = unit_rx.recv().await {
            if cells_tx.send(c).await.is_err() {
                return;
            }
        }
    });
    spawn_mic_unit(
        &spawner,
        "standalone-mic",
        Box::new(Tone::new(440.0, 8_000.0)),
        2,
        Vci::from_stream(stream),
        unit_tx,
    );
    sim.run_until(SimTime::from_secs(2));
    assert!(
        boxy.speaker.segments_received() > 450,
        "box heard {} segments from the medusa unit",
        boxy.speaker.segments_received()
    );
    assert_eq!(boxy.speaker.segments_lost(), 0);
    assert_eq!(boxy.speaker.late_ticks(), 0);
}

#[test]
fn pandora_box_feeds_a_medusa_speaker() {
    let mut sim = Simulation::new();
    let spawner = sim.spawner();
    // The box's ATM output is routed through a Medusa fabric to a speaker
    // unit.
    let mut fabric = Fabric::new(&spawner, 2, 100_000_000);
    let speaker_stream = pandora_segment::StreamId(33);
    fabric.route(Vci::from_stream(speaker_stream), 1);
    let (dead_tx, dead_rx) = pandora_sim::channel::<Cell>();
    drop(dead_tx);
    let boxy = PandoraBox::new(
        &spawner,
        BoxConfig::standard("classic"),
        fabric.port_tx(0),
        dead_rx,
    );
    let mic = boxy.start_audio_source(Box::new(Tone::new(500.0, 8_000.0)));
    boxy.set_route(
        mic,
        StreamKind::Audio,
        vec![OutputId::Network(Vci::from_stream(speaker_stream))],
    );
    let (sink, _cpu) = spawn_speaker_unit(
        &spawner,
        "standalone-speaker",
        fabric.take_port_rx(1),
        pandora::PlaybackConfig::default(),
        &boxy.log.reporter("medusa"),
    );
    sim.run_until(SimTime::from_secs(2));
    assert!(
        sink.segments_received() > 450,
        "unit heard {} segments from the box",
        sink.segments_received()
    );
    assert_eq!(sink.segments_lost(), 0);
}
