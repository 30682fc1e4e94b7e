//! # pandora-medusa — the exploded Pandora (§5.2)
//!
//! The paper's follow-on system: "one approach explodes Pandora by having
//! the camera, microphone, speaker and display as independent units linked
//! only by the LAN … the Pandora boards communicating over a network of
//! links and ATM rings have been replaced by Medusa boards communicating
//! over an ATM switch fabric, so that we have an exploded Pandora. The
//! software running in the ATM switches performs some of the tasks of the
//! Pandora server and network processes, and the same design principles
//! apply."
//!
//! Each unit is a tiny self-contained box: its own CPU, its own AAL
//! (cells ↔ segments), attached to a [`Fabric`] port. Streams go directly
//! unit-to-unit via VCI routes in the fabric switch. Speaker units reuse
//! the Pandora clawback/mixing playback path; display units reuse the
//! whole-frame assembly path — "the overall architecture is very similar
//! in terms of data description and buffering".
//!
//! §5.2 also notes that workstation streams "make it much easier to insert
//! special purpose processes such as face trackers into the video paths";
//! [`spawn_filter_unit`] demonstrates exactly that: a unit that sits on a
//! video path and transforms segments in flight.

use std::rc::Rc;

use pandora::audio_board::{spawn_audio_playback, PlaybackConfig, SpeakerSink};
use pandora::video_boards::{
    spawn_video_capture, spawn_video_display, Camera, DisplaySink, VideoCaptureHandle,
};
use pandora::{VideoCosts, SLAB_BUFFERS, SLAB_BYTES};
use pandora_atm::{segment_to_cells, ByteSlab, Cell, SlabReassembler, Switch, SwitchCore, Vci};
use pandora_audio::gen::Signal;
use pandora_audio::SegmentAssembler;
use pandora_buffers::Reporter;
use pandora_segment::{wire, Segment, StreamId, Timestamp, BLOCK_DURATION_NANOS};
use pandora_sim::{link, Cpu, LinkConfig, LinkSender, Receiver, SimDuration, Spawner};
use pandora_video::CaptureConfig;

/// The ATM switch fabric joining Medusa units.
pub struct Fabric {
    switch: Switch,
    ports_tx: Vec<LinkSender<Cell>>,
    ports_rx: Vec<Option<Receiver<Cell>>>,
}

impl Fabric {
    /// Builds a fabric with `n_ports` ports at `bits_per_sec` each.
    pub fn new(spawner: &Spawner, n_ports: usize, bits_per_sec: u64) -> Fabric {
        let mut ingress_rx = Vec::with_capacity(n_ports);
        let mut ports_tx = Vec::with_capacity(n_ports);
        for p in 0..n_ports {
            let cfg = LinkConfig::new(
                Box::leak(format!("medusa.port{p}.in").into_boxed_str()),
                bits_per_sec,
            );
            let (tx, rx) = link::<Cell>(spawner, cfg);
            ports_tx.push(tx);
            ingress_rx.push(rx);
        }
        let (core, port_rxs) = SwitchCore::new(n_ports, 256);
        let switch = Switch::spawn(spawner, "medusa", core, ingress_rx);
        Fabric {
            switch,
            ports_tx,
            ports_rx: port_rxs.into_iter().map(Some).collect(),
        }
    }

    /// The sender a unit uses to inject cells at `port`.
    pub fn port_tx(&self, port: usize) -> LinkSender<Cell> {
        self.ports_tx[port].clone()
    }

    /// Takes the receiving end of `port` (each port has one unit).
    pub fn take_port_rx(&mut self, port: usize) -> Receiver<Cell> {
        self.ports_rx[port]
            .take()
            .expect("port receiver already taken")
    }

    /// Routes `vci` to `port` (VCI preserved — Medusa streams are
    /// end-to-end circuits).
    pub fn route(&self, vci: Vci, port: usize) {
        self.switch.route(vci, port, vci);
    }

    /// Adds one more copy destination for `vci` (a fabric-level tannoy
    /// split: existing listeners keep receiving undisturbed, Principle 6).
    pub fn route_add(&self, vci: Vci, port: usize) {
        self.switch.route_add(vci, port, vci);
    }

    /// Removes the copy of `vci` toward `port`; other copies keep flowing.
    pub fn route_remove(&self, vci: Vci, port: usize) {
        self.switch.route_remove(vci, port);
    }

    /// Installs one leg per `port` for `vci`: the first replaces any
    /// existing route, the rest are added as tannoy copies.
    #[cfg(test)]
    fn route_fanout(&self, vci: Vci, ports: &[usize]) {
        let mut ports = ports.iter();
        if let Some(&first) = ports.next() {
            self.route(vci, first);
        }
        for &port in ports {
            self.route_add(vci, port);
        }
    }

    /// Removes a route.
    pub fn unroute(&self, vci: Vci) {
        self.switch.unroute(vci);
    }

    /// Tears down every leg toward `port` — the dead-unit cleanup: when
    /// a unit disappears, all tannoy copies aimed at it come out of the
    /// fabric in one pass while other listeners keep receiving
    /// (Principle 6). Returns the VCIs that lost legs, ascending.
    pub fn unroute_port(&self, port: usize) -> Vec<Vci> {
        self.switch.unroute_port(port)
    }

    /// Installed legs toward `port`.
    pub fn port_route_count(&self, port: usize) -> usize {
        self.switch.port_route_count(port)
    }

    /// The underlying switch (for statistics).
    pub fn switch(&self) -> &Switch {
        &self.switch
    }
}

/// A unit's AAL receive side: a box's default arena, so a unit refuses
/// the frames a box refuses ("the same design principles apply").
fn unit_reassembler() -> SlabReassembler {
    SlabReassembler::new(ByteSlab::new(SLAB_BUFFERS, SLAB_BYTES))
}

/// A unit's AAL transmit side: sends `seg` on `vci` as one frame of
/// cells, continuing the circuit's `cell_seq`; false once the port closes.
async fn send_frame(port: &LinkSender<Cell>, vci: Vci, cell_seq: &mut u32, seg: &Segment) -> bool {
    let cells = segment_to_cells(vci, &wire::encode(seg), *cell_seq);
    *cell_seq = cell_seq.wrapping_add(cells.len() as u32);
    for cell in cells {
        if port.send(cell).await.is_err() {
            return false;
        }
    }
    true
}

/// A microphone unit: signal → 2 ms blocks → segments → cells on a VCI.
pub fn spawn_mic_unit(
    spawner: &Spawner,
    name: &str,
    mut signal: Box<dyn Signal>,
    blocks_per_segment: usize,
    vci: Vci,
    port: LinkSender<Cell>,
) -> Cpu {
    let cpu = Cpu::new(&format!("medusa-mic:{name}"), SimDuration::from_nanos(700));
    let c = cpu.clone();
    spawner.spawn(&format!("mic-unit:{name}"), async move {
        let mut asm = SegmentAssembler::new(blocks_per_segment);
        let mut cell_seq: u32 = 0;
        let mut n: u64 = 0;
        loop {
            n += 1;
            pandora_sim::delay_until(pandora_sim::SimTime::from_nanos(n * BLOCK_DURATION_NANOS))
                .await;
            let block = signal.next_block();
            c.claim(SimDuration::from_micros(250)).await;
            let ts = Timestamp::from_nanos(pandora_sim::now().as_nanos());
            if let Some(seg) = asm.push(block, ts) {
                if !send_frame(&port, vci, &mut cell_seq, &Segment::Audio(seg)).await {
                    return;
                }
            }
        }
    });
    cpu
}

/// A speaker unit: cells → segments → the Pandora clawback/mixing path,
/// which reports on the log of `reports`.
pub fn spawn_speaker_unit(
    spawner: &Spawner,
    name: &str,
    cells: Receiver<Cell>,
    config: PlaybackConfig,
    reports: &Reporter,
) -> (SpeakerSink, Cpu) {
    let cpu = Cpu::new(
        &format!("medusa-speaker:{name}"),
        SimDuration::from_nanos(700),
    );
    let (seg_tx, seg_rx) = pandora_sim::channel::<(StreamId, pandora_segment::AudioSegment)>();
    // AAL adapter.
    spawner.spawn(&format!("speaker-unit:{name}:aal"), async move {
        let mut reasm = unit_reassembler();
        while let Ok(cell) = cells.recv().await {
            if let Some((vci, frame)) = reasm.push(cell) {
                if let Ok(Segment::Audio(a)) = frame.with(wire::decode) {
                    if seg_tx.send((vci.stream(), a)).await.is_err() {
                        return;
                    }
                }
            }
        }
    });
    let sink = spawn_audio_playback(
        spawner,
        &format!("medusa:{name}"),
        config,
        None,
        cpu.clone(),
        seg_rx,
        reports,
    );
    (sink, cpu)
}

/// A camera unit: its own camera + capture task → cells on a VCI.
pub fn spawn_camera_unit(
    spawner: &Spawner,
    name: &str,
    config: CaptureConfig,
    vci: Vci,
    port: LinkSender<Cell>,
) -> (VideoCaptureHandle, Cpu) {
    let cpu = Cpu::new(
        &format!("medusa-camera:{name}"),
        SimDuration::from_nanos(700),
    );
    let camera = Camera::spawn(spawner, &format!("medusa:{name}"), 256, 192);
    let (seg_tx, seg_rx) = pandora_sim::channel::<(StreamId, pandora_segment::VideoSegment)>();
    let handle = spawn_video_capture(
        spawner,
        &format!("medusa:{name}"),
        vci.stream(),
        &camera,
        config,
        VideoCosts::default(),
        cpu.clone(),
        seg_tx,
    );
    spawner.spawn(&format!("camera-unit:{name}:aal"), async move {
        let mut cell_seq: u32 = 0;
        while let Ok((_, seg)) = seg_rx.recv().await {
            if !send_frame(&port, vci, &mut cell_seq, &Segment::Video(seg)).await {
                return;
            }
        }
    });
    (handle, cpu)
}

/// A display unit: cells → segments → whole-frame assembly and display.
pub fn spawn_display_unit(
    spawner: &Spawner,
    name: &str,
    cells: Receiver<Cell>,
) -> (DisplaySink, Cpu) {
    let cpu = Cpu::new(
        &format!("medusa-display:{name}"),
        SimDuration::from_nanos(700),
    );
    let (seg_tx, seg_rx) = pandora_sim::channel::<(StreamId, pandora_segment::VideoSegment)>();
    spawner.spawn(&format!("display-unit:{name}:aal"), async move {
        let mut reasm = unit_reassembler();
        while let Ok(cell) = cells.recv().await {
            if let Some((vci, frame)) = reasm.push(cell) {
                if let Ok(Segment::Video(v)) = frame.with(wire::decode) {
                    if seg_tx.send((vci.stream(), v)).await.is_err() {
                        return;
                    }
                }
            }
        }
    });
    let sink = spawn_video_display(
        spawner,
        &format!("medusa:{name}"),
        512,
        384,
        seg_rx,
        VideoCosts::default(),
        cpu.clone(),
    );
    (sink, cpu)
}

/// A special-purpose in-path video processor (a "face tracker" stand-in):
/// receives a video stream on `in_cells`, applies `transform` to every
/// decoded segment's pixel data, and re-emits it on `out_vci`.
pub fn spawn_filter_unit(
    spawner: &Spawner,
    name: &str,
    in_cells: Receiver<Cell>,
    out_vci: Vci,
    port: LinkSender<Cell>,
    transform: impl FnMut(&mut pandora_segment::VideoSegment) + 'static,
) -> Rc<std::cell::Cell<u64>> {
    let processed = Rc::new(std::cell::Cell::new(0u64));
    let p = processed.clone();
    let mut transform = transform;
    spawner.spawn(&format!("filter-unit:{name}"), async move {
        let mut reasm = unit_reassembler();
        let mut cell_seq: u32 = 0;
        while let Ok(cell) = in_cells.recv().await {
            if let Some((_vci, frame)) = reasm.push(cell) {
                if let Ok(Segment::Video(mut v)) = frame.with(wire::decode) {
                    transform(&mut v);
                    p.set(p.get() + 1);
                    if !send_frame(&port, out_vci, &mut cell_seq, &Segment::Video(v)).await {
                        return;
                    }
                }
            }
        }
    });
    processed
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_audio::gen::Tone;
    use pandora_buffers::Report;
    use pandora_sim::{unbounded, SimTime, Simulation};
    use pandora_video::dpcm::LineMode;
    use pandora_video::{RateFraction, Rect};

    /// A reporter onto a log nobody reads.
    fn reports() -> Reporter {
        let (tx, _) = unbounded::<Report>();
        Reporter::new(tx, "host", SimDuration::from_millis(500))
    }

    #[test]
    fn mic_to_speaker_across_fabric() {
        let mut sim = Simulation::new();
        let spawner = sim.spawner();
        let mut fabric = Fabric::new(&spawner, 4, 100_000_000);
        let reports = reports();
        // Mic on port 0 → speaker on port 1, VCI 10.
        fabric.route(Vci(10), 1);
        spawn_mic_unit(
            &spawner,
            "m0",
            Box::new(Tone::new(440.0, 8_000.0)),
            2,
            Vci(10),
            fabric.port_tx(0),
        );
        let (sink, _cpu) = spawn_speaker_unit(
            &spawner,
            "s0",
            fabric.take_port_rx(1),
            PlaybackConfig::default(),
            &reports,
        );
        sim.run_until(SimTime::from_secs(1));
        assert!(
            sink.segments_received() > 200,
            "got {}",
            sink.segments_received()
        );
        assert_eq!(sink.segments_lost(), 0);
        assert_eq!(sink.late_ticks(), 0);
    }

    #[test]
    fn route_fanout_installs_every_leg_in_one_call() {
        let mut sim = Simulation::new();
        let spawner = sim.spawner();
        let fabric = Fabric::new(&spawner, 4, 100_000_000);
        // A stale route toward port 3 must be replaced, not added to.
        fabric.route(Vci(20), 3);
        fabric.route_fanout(Vci(20), &[1, 2]);
        assert_eq!(fabric.port_route_count(1), 1);
        assert_eq!(fabric.port_route_count(2), 1);
        assert_eq!(fabric.port_route_count(3), 0, "first leg replaces");
        sim.run_until(SimTime::from_millis(1));
    }

    #[test]
    fn fabric_tannoy_splits_and_shrinks_without_glitch() {
        let mut sim = Simulation::new();
        let spawner = sim.spawner();
        let mut fabric = Fabric::new(&spawner, 4, 100_000_000);
        let reports = reports();
        // Mic on port 0 announces to speakers on ports 1 and 2 (tannoy).
        fabric.route(Vci(10), 1);
        fabric.route_add(Vci(10), 2);
        spawn_mic_unit(
            &spawner,
            "m0",
            Box::new(Tone::new(440.0, 8_000.0)),
            2,
            Vci(10),
            fabric.port_tx(0),
        );
        let (sink1, _cpu) = spawn_speaker_unit(
            &spawner,
            "s1",
            fabric.take_port_rx(1),
            PlaybackConfig::default(),
            &reports,
        );
        let (sink2, _cpu) = spawn_speaker_unit(
            &spawner,
            "s2",
            fabric.take_port_rx(2),
            PlaybackConfig::default(),
            &reports,
        );
        sim.run_until(SimTime::from_millis(500));
        // Shrink: drop the port-2 copy; the port-1 copy must not glitch.
        fabric.route_remove(Vci(10), 2);
        let sink2_at_cut = sink2.segments_received();
        assert!(sink2_at_cut > 100, "got {sink2_at_cut}");
        sim.run_until(SimTime::from_secs(1));
        assert!(
            sink1.segments_received() > 200,
            "got {}",
            sink1.segments_received()
        );
        assert_eq!(sink1.segments_lost(), 0);
        assert_eq!(sink1.late_ticks(), 0);
        assert!(
            sink2.segments_received() <= sink2_at_cut + 2,
            "port 2 kept receiving after remove"
        );
    }

    #[test]
    fn three_mics_mix_at_one_speaker() {
        let mut sim = Simulation::new();
        let spawner = sim.spawner();
        let mut fabric = Fabric::new(&spawner, 4, 100_000_000);
        let reports = reports();
        for (i, port) in [0usize, 1, 2].iter().enumerate() {
            let vci = Vci(10 + i as u32);
            fabric.route(vci, 3);
            spawn_mic_unit(
                &spawner,
                &format!("m{i}"),
                Box::new(Tone::new(300.0 + 100.0 * i as f64, 5_000.0)),
                2,
                vci,
                fabric.port_tx(*port),
            );
        }
        let (sink, _cpu) = spawn_speaker_unit(
            &spawner,
            "s0",
            fabric.take_port_rx(3),
            PlaybackConfig::default(),
            &reports,
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sink.max_active_streams(), 3);
        assert_eq!(sink.late_ticks(), 0);
    }

    #[test]
    fn camera_to_display_across_fabric() {
        let mut sim = Simulation::new();
        let spawner = sim.spawner();
        let mut fabric = Fabric::new(&spawner, 2, 100_000_000);
        fabric.route(Vci(5), 1);
        let (handle, _cpu) = spawn_camera_unit(
            &spawner,
            "c0",
            CaptureConfig {
                rect: Rect::new(0, 0, 128, 96),
                rate: RateFraction::new(2, 5),
                lines_per_segment: 32,
                mode: LineMode::Dpcm,
            },
            Vci(5),
            fabric.port_tx(0),
        );
        let (sink, _dcpu) = spawn_display_unit(&spawner, "d0", fabric.take_port_rx(1));
        sim.run_until(SimTime::from_secs(2));
        handle.stop();
        let fps = sink.fps(SimDuration::from_secs(2));
        assert!((8.5..=10.5).contains(&fps), "fps {fps}");
        assert_eq!(sink.decode_errors(), 0);
    }

    #[test]
    fn filter_unit_transforms_in_path() {
        // Camera(port0) → VCI 5 → filter(port1) → VCI 6 → display(port2).
        let mut sim = Simulation::new();
        let spawner = sim.spawner();
        let mut fabric = Fabric::new(&spawner, 3, 100_000_000);
        fabric.route(Vci(5), 1);
        fabric.route(Vci(6), 2);
        let (handle, _c) = spawn_camera_unit(
            &spawner,
            "c0",
            CaptureConfig {
                rect: Rect::new(0, 0, 64, 48),
                rate: RateFraction::new(1, 5),
                lines_per_segment: 48,
                mode: LineMode::Raw,
            },
            Vci(5),
            fabric.port_tx(0),
        );
        let processed = spawn_filter_unit(
            &spawner,
            "f0",
            fabric.take_port_rx(1),
            Vci(6),
            fabric.port_tx(1),
            |seg| {
                // "Face tracker": invert the pixels. Raw mode line records
                // are [1-byte header, width pixels]; keep each header.
                let record = 1 + seg.video.width as usize;
                for line in seg.data.chunks_mut(record) {
                    for b in line.iter_mut().skip(1) {
                        *b = 255 - *b;
                    }
                }
            },
        );
        let (sink, _d) = spawn_display_unit(&spawner, "d0", fabric.take_port_rx(2));
        sim.run_until(SimTime::from_secs(1));
        handle.stop();
        assert!(processed.get() > 2, "filter processed {}", processed.get());
        assert!(sink.frames_shown() > 2, "frames {}", sink.frames_shown());
    }

    #[test]
    fn unrouted_vci_counted_by_fabric() {
        let mut sim = Simulation::new();
        let spawner = sim.spawner();
        let fabric = Fabric::new(&spawner, 2, 100_000_000);
        spawn_mic_unit(
            &spawner,
            "m0",
            Box::new(Tone::new(440.0, 8_000.0)),
            2,
            Vci(99), // No route.
            fabric.port_tx(0),
        );
        sim.run_until(SimTime::from_millis(100));
        assert!(fabric.switch().unroutable() > 0);
    }
}
