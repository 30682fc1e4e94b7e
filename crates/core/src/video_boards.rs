//! The capture board and the mixer (display) board for video (§3.6).
//!
//! Capture: a camera task scans the framestore at the full 25 Hz rate (a
//! frame's pixels are developed when first read, see [`Camera`]); one
//! task per video stream reads its rectangle at the stream's
//! fractional rate, timing reads to dodge the camera scan, compresses
//! line-by-line and emits placement-carrying segments. Display: segments
//! are decompressed (with the per-stream last-line cache), whole frames
//! are assembled before anything is shown, and the blit is scheduled
//! around the display scan — both tear-avoidance rules of §3.6.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use pandora_metrics::Histogram;
use pandora_segment::{SequenceNumber, StreamId, Timestamp, VideoSegment};
use pandora_sim::{Cpu, Receiver, Sender, SimDuration, Spawner};
use pandora_video::dpcm::{compressed_line_bytes, LineMode};
use pandora_video::{
    capture_rect, interp::LineCache, CaptureConfig, FrameAssembler, FrameStore, ScanModel,
    TestPattern, FRAME_PERIOD_NANOS,
};

use crate::config::VideoCosts;

/// Lines per slice through the compression subsystem ("slices of a few
/// lines each", §3.6).
const LINES_PER_SLICE: u32 = 4;

/// Pushes one compressed segment through the modelled compression
/// pipeline as slices, sending the hold-back-buffered descriptions and
/// flushing with dummy lines. Returns the number of slices; `Err` means
/// the per-line records did not parse (corrupt payload).
fn push_through_compression(
    seg: &VideoSegment,
    pipeline: &mut pandora_video::slice::CompressionPipeline,
    holdback: &mut pandora_video::slice::HoldbackBuffer<u32>,
) -> Result<u64, ()> {
    use pandora_video::slice::{slice_segment, SliceDesc, DUMMY_FLUSH_LINES};
    let width = seg.video.width as usize;
    let line_len = |d: &[u8]| {
        let mode = LineMode::from_header(*d.first()?)?;
        Some(compressed_line_bytes(width, mode))
    };
    let slices = slice_segment(&seg.data, seg.video.lines, LINES_PER_SLICE, line_len).ok_or(())?;
    // Head description first, then the data slices, then the tail marker.
    let mut emitted = 0usize;
    let mut pushed = 1usize;
    emitted += holdback
        .push(SliceDesc::Head(seg.video.segment_number))
        .len();
    let mut exited_bytes = 0usize;
    let n_slices = slices.len() as u64;
    for (lines, data) in slices {
        pushed += 1;
        emitted += holdback
            .push(SliceDesc::Slice {
                lines,
                bytes: data.len() as u32,
            })
            .len();
        if let Some(out) = pipeline.write(data) {
            exited_bytes += out.len();
        }
    }
    pushed += 1;
    emitted += holdback.push(SliceDesc::Tail).len();
    // Dummy flush lines push the final real slice out of the pipeline.
    let dummy = vec![0u8; DUMMY_FLUSH_LINES as usize];
    if let Some(out) = pipeline.write(dummy) {
        exited_bytes += out.len();
    }
    pushed += 1;
    emitted += holdback
        .push(SliceDesc::Slice {
            lines: DUMMY_FLUSH_LINES,
            bytes: 2,
        })
        .len();
    // Invariants of §3.6: after the dummy flush, the hold-back buffer
    // retains exactly one slice description — the one modelling the data
    // (the dummies) still resident in the pipeline — and the flush pushed
    // the segment's final real slice out.
    debug_assert_eq!(
        holdback.held().len(),
        1,
        "pushed {pushed}, emitted {emitted}"
    );
    debug_assert!(exited_bytes > 0, "flush never drained the pipeline");
    let _ = (pushed, emitted);
    Ok(n_slices)
}

/// A camera scanning a shared framestore at 25 Hz.
///
/// The paper's camera writes the framestore "continuously on a second
/// port" and costs the box's processors nothing (§3.6), so an unread
/// camera costs nothing here either: the `camera:*` task only counts
/// frame periods, and a frame's pixels are developed the first time a
/// reader looks at them — `Camera::with_frame` is the only way to the
/// store, so an undeveloped frame cannot be read.
#[derive(Clone)]
pub struct Camera {
    inner: Rc<CameraInner>,
}

struct CameraInner {
    pattern: TestPattern,
    store: RefCell<FrameStore>,
    /// Frame periods scanned so far.
    frames: Cell<u64>,
    /// Frames developed into the store.
    rendered: Cell<u64>,
}

impl Camera {
    /// Spawns the camera: scans a fresh [`TestPattern`] frame every 40 ms.
    pub fn spawn(spawner: &Spawner, name: &str, width: u32, height: u32) -> Camera {
        let cam = Camera {
            inner: Rc::new(CameraInner {
                pattern: TestPattern::new(width, height),
                store: RefCell::new(FrameStore::new(width, height)),
                frames: Cell::new(0),
                rendered: Cell::new(0),
            }),
        };
        let scan = cam.inner.clone();
        spawner.spawn(&format!("camera:{name}"), async move {
            loop {
                scan.frames.set(scan.frames.get() + 1);
                pandora_sim::delay(SimDuration::from_nanos(FRAME_PERIOD_NANOS)).await;
            }
        });
        cam
    }

    /// Reads the framestore as it stands now: frame `frames() - 1` of
    /// the test pattern, developed here if no earlier read of this frame
    /// period did it (at most one render per scanned frame), or the
    /// zeroed store before the first scan.
    pub(crate) fn with_frame<R>(&self, read: impl FnOnce(&FrameStore) -> R) -> R {
        let cam = &*self.inner;
        let frames = cam.frames.get();
        let mut store = cam.store.borrow_mut();
        if store.generation() < frames {
            store.write_frame_with(frames, |pixels| cam.pattern.render_into(frames - 1, pixels));
            cam.rendered.set(cam.rendered.get() + 1);
        }
        read(&store)
    }

    /// Lines in the framestore (geometry only: develops nothing).
    pub fn height(&self) -> u32 {
        self.inner.store.borrow().height()
    }

    /// Camera frame periods scanned so far.
    pub fn frames(&self) -> u64 {
        self.inner.frames.get()
    }

    /// Frames developed into the store because someone read them.
    pub fn rendered(&self) -> u64 {
        self.inner.rendered.get()
    }
}

/// Handle to stop or throttle a capture stream.
#[derive(Clone)]
pub struct VideoCaptureHandle {
    stop: Rc<Cell<bool>>,
    segments: Rc<Cell<u64>>,
    frames: Rc<Cell<u64>>,
    slices: Rc<Cell<u64>>,
    divisor: Rc<Cell<u32>>,
}

impl VideoCaptureHandle {
    /// Stops the capture task at its next frame boundary.
    pub fn stop(&self) {
        self.stop.set(true);
    }

    /// Sets the P8 adaptation divisor: on top of the configured capture
    /// rate, only every `divisor`-th candidate frame is taken. 1 is full
    /// quality; the health monitor raises it to shed load when the path
    /// is lossy (video degrades before audio ever would — Principles
    /// 2/3). Values below 1 are clamped to 1.
    pub fn set_divisor(&self, divisor: u32) {
        self.divisor.set(divisor.max(1));
    }

    /// The current P8 adaptation divisor.
    pub fn divisor(&self) -> u32 {
        self.divisor.get()
    }

    /// Segments emitted.
    pub fn segments(&self) -> u64 {
        self.segments.get()
    }

    /// Frames captured.
    pub fn frames(&self) -> u64 {
        self.frames.get()
    }

    /// Slices pushed through the compression pipeline (§3.6).
    pub fn slices(&self) -> u64 {
        self.slices.get()
    }
}

/// Spawns one video capture stream from `camera` at the configured
/// fractional rate, emitting `(stream, segment)` pairs on `out`.
#[allow(clippy::too_many_arguments)] // mirrors the board's full wiring harness
pub fn spawn_video_capture(
    spawner: &Spawner,
    name: &str,
    stream: StreamId,
    camera: &Camera,
    config: CaptureConfig,
    costs: VideoCosts,
    cpu: Cpu,
    out: Sender<(StreamId, VideoSegment)>,
) -> VideoCaptureHandle {
    let handle = VideoCaptureHandle {
        stop: Rc::new(Cell::new(false)),
        segments: Rc::new(Cell::new(0)),
        frames: Rc::new(Cell::new(0)),
        slices: Rc::new(Cell::new(0)),
        divisor: Rc::new(Cell::new(1)),
    };
    let h = handle.clone();
    let camera = camera.clone();
    let scan = ScanModel::new(camera.height(), FRAME_PERIOD_NANOS);
    spawner.spawn(&format!("video-capture:{name}:{stream}"), async move {
        let mut frame_no: u64 = 0;
        let mut seq = SequenceNumber(0);
        let mut pipeline = pandora_video::slice::CompressionPipeline::new();
        let mut holdback = pandora_video::slice::HoldbackBuffer::<u32>::new();
        let start = pandora_sim::now();
        loop {
            if h.stop.get() {
                return;
            }
            let frame_time = start + SimDuration::from_nanos(frame_no * FRAME_PERIOD_NANOS);
            pandora_sim::delay_until(frame_time).await;
            if !config.rate.captures_frame(frame_no) {
                frame_no += 1;
                continue;
            }
            // P8 adaptation: the divisor thins the configured rate
            // further while the health monitor has the stream degraded.
            if !frame_no.is_multiple_of(u64::from(h.divisor.get())) {
                frame_no += 1;
                continue;
            }
            // Dodge the camera scan over our rectangle ("carefully timed so
            // that the data from the camera … does not update any part of a
            // block while it is being read").
            let read_time =
                SimDuration::from_nanos(config.rect.height as u64 * costs.capture_per_line_ns / 4);
            let wait = scan.safe_blit_delay(
                config.rect,
                pandora_sim::now().as_nanos(),
                read_time.as_nanos(),
            );
            if wait > 0 {
                pandora_sim::delay(SimDuration::from_nanos(wait)).await;
            }
            let cost = config.rect.height as u64 * costs.capture_per_line_ns;
            cpu.claim(SimDuration::from_nanos(cost)).await;
            let ts = Timestamp::from_nanos(frame_time.as_nanos());
            let segments =
                camera.with_frame(|store| capture_rect(store, &config, frame_no as u32, seq, ts));
            for _ in 0..segments.len() {
                seq = seq.next();
            }
            h.frames.set(h.frames.get() + 1);
            // "Each of which is despatched as soon as the data is ready":
            // every segment travels through the compression subsystem as
            // slices of a few lines (§3.6) — the pipeline retains the last
            // slice until pushed through, the hold-back buffer keeps the
            // slice descriptions honest, and dummy lines flush the tail.
            for seg in segments {
                match push_through_compression(&seg, &mut pipeline, &mut holdback) {
                    Ok(slices) => h.slices.set(h.slices.get() + slices),
                    Err(()) => continue, // Corrupt payload: segment dropped.
                }
                h.segments.set(h.segments.get() + 1);
                if out.send((stream, seg)).await.is_err() {
                    return;
                }
            }
            frame_no += 1;
        }
    });
    handle
}

/// Display-side instrumentation.
#[derive(Clone)]
pub struct DisplaySink {
    inner: Rc<RefCell<DisplayInner>>,
}

struct DisplayInner {
    frames_shown: u64,
    frames_dropped: u64,
    segments: u64,
    decode_errors: u64,
    /// Capture-timestamp → blit latency, ns.
    latency: Histogram,
    display: FrameStore,
    #[cfg(test)]
    last_frame: Option<pandora_video::AssembledFrame>,
}

impl DisplaySink {
    /// Complete frames blitted to the display.
    pub fn frames_shown(&self) -> u64 {
        self.inner.borrow().frames_shown
    }

    /// Frames abandoned with missing segments.
    pub fn frames_dropped(&self) -> u64 {
        self.inner.borrow().frames_dropped
    }

    /// Video segments processed.
    pub fn segments(&self) -> u64 {
        self.inner.borrow().segments
    }

    /// Segments that failed to decompress, plus assembled frames whose
    /// placement does not fit the display.
    pub fn decode_errors(&self) -> u64 {
        self.inner.borrow().decode_errors
    }

    /// Capture → display latency distribution, ns.
    pub fn latency_ns(&self) -> Histogram {
        self.inner.borrow().latency.clone()
    }

    /// The most recently completed frame.
    #[cfg(test)]
    fn last_frame(&self) -> Option<pandora_video::AssembledFrame> {
        self.inner.borrow().last_frame.clone()
    }

    /// Reads back a rectangle of the display framestore.
    pub fn read_display(&self, rect: pandora_video::Rect) -> Vec<u8> {
        self.inner.borrow().display.read_rect(rect)
    }

    /// Average displayed frame rate over `elapsed`.
    pub fn fps(&self, elapsed: SimDuration) -> f64 {
        if elapsed.as_nanos() == 0 {
            0.0
        } else {
            self.frames_shown() as f64 / elapsed.as_secs_f64()
        }
    }
}

/// Spawns the mixer-board display path: decompress, assemble whole frames,
/// blit around the scan.
pub fn spawn_video_display(
    spawner: &Spawner,
    name: &str,
    display_width: u32,
    display_height: u32,
    segments: Receiver<(StreamId, VideoSegment)>,
    costs: VideoCosts,
    cpu: Cpu,
) -> DisplaySink {
    let sink = DisplaySink {
        inner: Rc::new(RefCell::new(DisplayInner {
            frames_shown: 0,
            frames_dropped: 0,
            segments: 0,
            decode_errors: 0,
            latency: Histogram::new(),
            display: FrameStore::new(display_width, display_height),
            #[cfg(test)]
            last_frame: None,
        })),
    };
    let s = sink.clone();
    let scan = ScanModel::new(display_height, FRAME_PERIOD_NANOS);
    spawner.spawn(&format!("video-display:{name}"), async move {
        let mut cache = LineCache::new();
        let mut assemblers: std::collections::BTreeMap<StreamId, FrameAssembler> =
            Default::default();
        while let Ok((stream, seg)) = segments.recv().await {
            s.inner.borrow_mut().segments += 1;
            // `width` and `lines` are off the wire: a payload too short for
            // them is refused, as the decoder will, before they are charged.
            let shortest = compressed_line_bytes(seg.video.width as usize, LineMode::DpcmSub2);
            if seg.video.lines as usize > seg.data.len() / shortest {
                s.inner.borrow_mut().decode_errors += 1;
                continue;
            }
            let cost = seg.video.lines as u64 * costs.display_per_line_ns;
            cpu.claim(SimDuration::from_nanos(cost)).await;
            let Some(lines) = pandora_video::interp::decode_segment(&seg, stream, &mut cache)
            else {
                s.inner.borrow_mut().decode_errors += 1;
                continue;
            };
            let asm = assemblers.entry(stream).or_default();
            let before_drops = asm.dropped_incomplete();
            let Some(frame) = asm.push(&seg, lines) else {
                let d = asm.dropped_incomplete();
                if d != before_drops {
                    s.inner.borrow_mut().frames_dropped += d - before_drops;
                }
                continue;
            };
            // Placement comes from the segment header, i.e. off the wire:
            // a frame that does not fit the display is an error, not shown.
            if !frame.rect.fits(display_width, display_height) {
                s.inner.borrow_mut().decode_errors += 1;
                continue;
            }
            // "Once we have all the data for a frame, it is copied into the
            // display frame buffer as soon as possible, care being taken to
            // avoid the scan of the display controller."
            let blit_time =
                SimDuration::from_nanos(frame.rect.height as u64 * costs.display_per_line_ns / 4);
            let wait = scan.safe_blit_delay(
                frame.rect,
                pandora_sim::now().as_nanos(),
                blit_time.as_nanos(),
            );
            if wait > 0 {
                pandora_sim::delay(SimDuration::from_nanos(wait)).await;
            }
            let mut inner = s.inner.borrow_mut();
            inner.display.write_rect(frame.rect, &frame.pixels);
            let now = pandora_sim::now();
            inner.latency.record(
                now.as_nanos()
                    .saturating_sub(seg.common.timestamp.as_nanos()) as f64,
            );
            inner.frames_shown += 1;
            #[cfg(test)]
            {
                inner.last_frame = Some(frame);
            }
        }
    });
    sink
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_sim::{channel, SimTime, Simulation};
    use pandora_video::{RateFraction, Rect};

    fn capture_config(rate: RateFraction) -> CaptureConfig {
        CaptureConfig {
            rect: Rect::new(8, 8, 64, 48),
            rate,
            lines_per_segment: 16,
            mode: LineMode::Dpcm,
        }
    }

    fn rig(rate: RateFraction) -> (Simulation, VideoCaptureHandle, DisplaySink) {
        let (sim, handle, sink, _camera) = rig_with_camera(rate);
        (sim, handle, sink)
    }

    fn rig_with_camera(
        rate: RateFraction,
    ) -> (Simulation, VideoCaptureHandle, DisplaySink, Camera) {
        let mut sim = Simulation::new();
        let spawner = sim.spawner();
        let camera = Camera::spawn(&spawner, "t", 128, 96);
        let capture_cpu = Cpu::new("capture", SimDuration::from_nanos(700));
        let mixer_cpu = Cpu::new("mixer", SimDuration::from_nanos(700));
        let (tx, rx) = channel::<(StreamId, VideoSegment)>();
        let handle = spawn_video_capture(
            &spawner,
            "t",
            StreamId(1),
            &camera,
            capture_config(rate),
            VideoCosts::default(),
            capture_cpu,
            tx,
        );
        let sink = spawn_video_display(
            &spawner,
            "t",
            256,
            192,
            rx,
            VideoCosts::default(),
            mixer_cpu,
        );
        // Let the camera run.
        sim.run_for(SimDuration::from_millis(1));
        (sim, handle, sink, camera)
    }

    const WHOLE: Rect = Rect::new(0, 0, 128, 96);

    /// Asserts the store reads as camera frame `frame` (0-based) and is
    /// stamped with the scan count.
    fn assert_holds(camera: &Camera, pattern: &TestPattern, frame: u64) {
        assert_eq!(camera.frames(), frame + 1);
        camera.with_frame(|store| {
            assert_eq!(store.generation(), frame + 1);
            assert!(
                store.read_rect(WHOLE) == pattern.frame(frame),
                "store is not frame {frame}"
            );
        });
    }

    #[test]
    fn camera_shows_one_frame_per_period_in_place() {
        let mut sim = Simulation::new();
        let camera = Camera::spawn(&sim.spawner(), "t", 128, 96);
        let pattern = TestPattern::new(128, 96);
        camera.with_frame(|store| assert_eq!(store.generation(), 0));
        for k in 0..30u64 {
            sim.run_until(SimTime::from_nanos(k * FRAME_PERIOD_NANOS + 1));
            assert_holds(&camera, &pattern, k);
        }
        assert_eq!(camera.rendered(), 30);
    }

    #[test]
    fn unread_camera_scans_but_develops_nothing() {
        let mut sim = Simulation::new();
        let camera = Camera::spawn(&sim.spawner(), "t", 128, 96);
        sim.run_until(SimTime::from_secs(1));
        // Scans at 0, 40, …, 1000 ms, exactly as the eager camera counted.
        assert_eq!(camera.frames(), 26);
        assert_eq!(camera.rendered(), 0);
    }

    #[test]
    fn capture_develops_one_frame_per_frame_captured() {
        let (mut sim, handle, _sink, camera) = rig_with_camera(RateFraction::new(2, 5));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(camera.frames(), 51);
        assert!(handle.frames() >= 19, "captured {}", handle.frames());
        assert!(
            (handle.frames()..=handle.frames() + 1).contains(&camera.rendered()),
            "{} renders for {} captured frames",
            camera.rendered(),
            handle.frames()
        );
    }

    #[test]
    fn readers_at_any_instant_see_what_the_eager_camera_held() {
        let mut sim = Simulation::new();
        let spawner = sim.spawner();
        // `early` arms its 80 ms timer at t = 0, before the camera arms
        // its own at 40 ms, so at the boundary it runs first and must
        // still see the second frame; `late` arms the same instant from
        // 47 ms, runs after the scan and must see the third.
        let seen = Rc::new(RefCell::new(Vec::new()));
        let reader = |name: &'static str, camera: Camera, wakes: Vec<SimTime>| {
            let seen = seen.clone();
            async move {
                for at in wakes {
                    pandora_sim::delay_until(at).await;
                    let twice = [(); 2].map(|()| {
                        camera.with_frame(|store| (store.generation(), store.read_rect(WHOLE)))
                    });
                    assert!(twice[0] == twice[1]);
                    let [(generation, pixels), _] = twice;
                    assert_eq!(generation, camera.frames());
                    seen.borrow_mut().push((name, at, generation, pixels));
                }
            }
        };
        let cam = Camera::spawn(&spawner, "t", 128, 96);
        spawner.spawn(
            "early",
            reader("early", cam.clone(), vec![SimTime::from_millis(80)]),
        );
        let irregular = [1, 39_999_999, 47_000_000, 80_000_000, 413_000_007]
            .map(SimTime::from_nanos)
            .to_vec();
        spawner.spawn("late", reader("late", cam.clone(), irregular));
        sim.run_until(SimTime::from_millis(500));

        let pattern = TestPattern::new(128, 96);
        let expected = [
            ("late", 1u64, 0u64),
            ("late", 39_999_999, 0),
            ("late", 47_000_000, 1),
            ("early", 80_000_000, 1),
            ("late", 80_000_000, 2),
            ("late", 413_000_007, 10),
        ];
        let seen = seen.borrow();
        assert_eq!(seen.len(), expected.len());
        for ((name, at, generation, pixels), (who, when, frame)) in seen.iter().zip(expected) {
            assert_eq!((*name, at.as_nanos()), (who, when));
            assert_eq!(*generation, frame + 1, "{who} at {when} ns");
            assert!(*pixels == pattern.frame(frame), "{who} at {when} ns");
        }
        // Twelve reads of four distinct frames.
        assert_eq!(cam.rendered(), 4);
    }

    #[test]
    fn hostile_placement_is_an_error_and_the_display_survives() {
        let mut sim = Simulation::new();
        let spawner = sim.spawner();
        let (tx, rx) = channel::<(StreamId, VideoSegment)>();
        let sink = spawn_video_display(
            &spawner,
            "t",
            256,
            192,
            rx,
            VideoCosts::default(),
            Cpu::new("mixer", SimDuration::from_nanos(700)),
        );
        let mut store = FrameStore::new(128, 96);
        store.write_frame(&TestPattern::new(128, 96).frame(0));
        let config = CaptureConfig {
            lines_per_segment: 48, // One segment per frame.
            ..capture_config(RateFraction::FULL)
        };
        let capture = |frame_no: u32| {
            let ts = Timestamp::from_nanos(0);
            let mut segs = capture_rect(&store, &config, frame_no, SequenceNumber(frame_no), ts);
            assert_eq!(segs.len(), 1);
            segs.remove(0)
        };
        // x_offset + width is 60 if summed in u32, which would fit.
        let mut placed = capture(0);
        placed.video.x_offset = u32::MAX - 3;
        // Geometry the payload cannot hold: `lines` would be charged as
        // 11.9 simulated hours of mixer CPU, `width` sizes a 4 GB buffer.
        let mut tall = capture(0);
        tall.video.lines = u32::MAX;
        let mut wide = capture(0);
        (wide.video.width, wide.video.lines) = (u32::MAX, 1);
        let good = capture(1);
        spawner.spawn("feed", async move {
            for seg in [placed, tall, wide, good] {
                tx.send((StreamId(1), seg)).await.expect("display alive");
            }
        });
        sim.run_until(SimTime::from_millis(200));
        assert_eq!(sink.segments(), 4);
        assert_eq!(sink.decode_errors(), 3);
        assert_eq!(sink.frames_shown(), 1);
        // Shown at the instant it was with only `placed` ahead of it:
        // refusing a segment costs the display no time.
        assert_eq!(sink.latency_ns().max(), 961_400.0);
        let shown = sink.last_frame().expect("the good frame");
        assert_eq!(shown.frame_number, 1);
        assert_eq!(shown.rect, config.rect);
        assert_eq!(sink.read_display(config.rect), shown.pixels);
    }

    #[test]
    fn full_rate_shows_25fps() {
        let (mut sim, handle, sink) = rig(RateFraction::FULL);
        sim.run_until(SimTime::from_secs(2));
        handle.stop();
        let fps = sink.fps(SimDuration::from_secs(2));
        assert!((23.0..=25.5).contains(&fps), "fps {fps}");
        assert_eq!(sink.frames_dropped(), 0);
        assert_eq!(sink.decode_errors(), 0);
    }

    #[test]
    fn two_fifths_rate_shows_10fps() {
        let (mut sim, handle, sink) = rig(RateFraction::new(2, 5));
        sim.run_until(SimTime::from_secs(2));
        handle.stop();
        let fps = sink.fps(SimDuration::from_secs(2));
        assert!((9.0..=10.5).contains(&fps), "fps {fps}");
    }

    #[test]
    fn frames_assemble_from_multiple_segments() {
        let (mut sim, handle, sink) = rig(RateFraction::FULL);
        sim.run_until(SimTime::from_millis(500));
        handle.stop();
        // 48 lines / 16 per segment = 3 segments per frame.
        assert!(sink.segments() >= sink.frames_shown() * 3);
        let frame = sink.last_frame().expect("a frame");
        assert_eq!(frame.rect, Rect::new(8, 8, 64, 48));
        assert_eq!(frame.pixels.len(), 64 * 48);
    }

    #[test]
    fn display_latency_is_bounded() {
        let (mut sim, handle, sink) = rig(RateFraction::FULL);
        sim.run_until(SimTime::from_secs(1));
        handle.stop();
        let mut lat = sink.latency_ns();
        assert!(lat.count() > 10);
        // Capture → display within two frame periods on a local path.
        assert!(
            lat.percentile(99.0) < 80e6,
            "p99 {}ms",
            lat.percentile(99.0) / 1e6
        );
    }

    #[test]
    fn adaptation_divisor_thins_and_restores_the_rate() {
        let (mut sim, handle, sink) = rig(RateFraction::FULL);
        assert_eq!(handle.divisor(), 1);
        sim.run_until(SimTime::from_secs(1));
        let full = handle.frames();
        // Degrade: every 4th candidate frame only.
        handle.set_divisor(4);
        sim.run_until(SimTime::from_secs(2));
        let thinned = handle.frames() - full;
        assert!(
            thinned * 3 < full,
            "divisor 4 should thin well below full rate: {thinned} vs {full}"
        );
        // Recover: divisor 1 restores full rate (0 clamps to 1).
        handle.set_divisor(0);
        assert_eq!(handle.divisor(), 1);
        sim.run_until(SimTime::from_secs(3));
        let restored = handle.frames() - full - thinned;
        assert!(
            restored + 2 >= full,
            "full rate should come back: {restored} vs {full}"
        );
        handle.stop();
        assert_eq!(sink.decode_errors(), 0);
    }

    #[test]
    fn stop_halts_stream() {
        let (mut sim, handle, sink) = rig(RateFraction::FULL);
        sim.run_until(SimTime::from_millis(500));
        handle.stop();
        sim.run_until(SimTime::from_millis(600));
        let shown = sink.frames_shown();
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            sink.frames_shown(),
            shown,
            "frames kept arriving after stop"
        );
    }

    #[test]
    fn displayed_pixels_resemble_camera() {
        let (mut sim, handle, sink) = rig(RateFraction::FULL);
        sim.run_until(SimTime::from_secs(1));
        handle.stop();
        let frame = sink.last_frame().expect("frame");
        // DPCM is lossy and the pattern moves, but the displayed rectangle
        // must correlate with a recent camera frame: compare means.
        let mean_display: f64 =
            frame.pixels.iter().map(|&p| p as f64).sum::<f64>() / frame.pixels.len() as f64;
        assert!(
            (20.0..=235.0).contains(&mean_display),
            "mean {mean_display}"
        );
        // And the display store holds the blitted data.
        let shown = sink.read_display(frame.rect);
        assert_eq!(shown, frame.pixels);
    }
}
