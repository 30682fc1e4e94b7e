//! Medusa (§5.2): the exploded Pandora — camera, microphones, speaker and
//! display as independent units on an ATM switch fabric, with a
//! special-purpose video processor inserted in the path.
//!
//! ```text
//! cargo run --release --example medusa
//! ```

use pandora::audio_board::PlaybackConfig;
use pandora_atm::Vci;
use pandora_audio::gen::Speech;
use pandora_buffers::Reporter;
use pandora_medusa::{
    spawn_camera_unit, spawn_display_unit, spawn_filter_unit, spawn_mic_unit, spawn_speaker_unit,
    Fabric,
};
use pandora_sim::{unbounded, SimDuration, SimTime, Simulation};
use pandora_video::dpcm::LineMode;
use pandora_video::{CaptureConfig, RateFraction, Rect};

fn main() {
    let mut sim = Simulation::new();
    let spawner = sim.spawner();
    // Six fabric ports: 2 mics, 1 camera, 1 filter, 1 speaker, 1 display.
    let mut fabric = Fabric::new(&spawner, 6, 100_000_000);
    let (rep_tx, _rep_rx) = unbounded();
    let reports = Reporter::new(rep_tx, "host", SimDuration::from_millis(500));

    // Two microphone units stream straight to the speaker unit (VCIs 10/11
    // → port 4).
    fabric.route(Vci(10), 4);
    fabric.route(Vci(11), 4);
    spawn_mic_unit(
        &spawner,
        "mic-office-a",
        Box::new(Speech::new(1)),
        2,
        Vci(10),
        fabric.port_tx(0),
    );
    spawn_mic_unit(
        &spawner,
        "mic-office-b",
        Box::new(Speech::new(2)),
        2,
        Vci(11),
        fabric.port_tx(1),
    );
    let (speaker, _cpu) = spawn_speaker_unit(
        &spawner,
        "speaker",
        fabric.take_port_rx(4),
        PlaybackConfig::default(),
        &reports,
    );

    // The camera streams to a face-tracker-style filter unit (VCI 20 →
    // port 3), which forwards the processed video to the display
    // (VCI 21 → port 5). "This makes it much easier to insert special
    // purpose processes such as face trackers into the video paths."
    fabric.route(Vci(20), 3);
    fabric.route(Vci(21), 5);
    let (_cam_handle, _cam_cpu) = spawn_camera_unit(
        &spawner,
        "camera",
        CaptureConfig {
            rect: Rect::new(0, 0, 160, 120),
            rate: RateFraction::new(2, 5),
            lines_per_segment: 40,
            mode: LineMode::Raw,
        },
        Vci(20),
        fabric.port_tx(2),
    );
    let processed = spawn_filter_unit(
        &spawner,
        "tracker",
        fabric.take_port_rx(3),
        Vci(21),
        fabric.port_tx(3),
        |seg| {
            // A crude "tracker overlay": brighten the middle lines.
            let record = 1 + seg.video.width as usize;
            let lines = seg.data.len() / record;
            for (l, line) in seg.data.chunks_mut(record).enumerate() {
                if l > lines / 3 && l < 2 * lines / 3 {
                    for b in line.iter_mut().skip(1) {
                        *b = b.saturating_add(40);
                    }
                }
            }
        },
    );
    let (display, _dcpu) = spawn_display_unit(&spawner, "display", fabric.take_port_rx(5));

    sim.run_until(SimTime::from_secs(10));

    println!("medusa fabric after 10 virtual seconds:");
    println!(
        "  speaker unit mixed up to {} streams: {} segments, {} late ticks",
        speaker.max_active_streams(),
        speaker.segments_received(),
        speaker.late_ticks()
    );
    println!(
        "  filter unit processed {} video segments in-path",
        processed.get()
    );
    println!(
        "  display unit showed {:.1} fps ({} frames, {} decode errors)",
        display.fps(SimDuration::from_secs(10)),
        display.frames_shown(),
        display.decode_errors()
    );
    println!(
        "  fabric switch forwarded {} cells ({} unroutable, {} overflowed)",
        fabric.switch().forwarded(),
        fabric.switch().unroutable(),
        fabric.switch().overflow()
    );
}
