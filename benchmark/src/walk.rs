//! The path walk: the harness carries the workload's own segment mix
//! through the layers by hand, in pipeline order, calling the same public
//! functions the boards and relays call, with one child span per layer
//! call under a `walk.segment` root. Because no crate may be edited by
//! the change that defines the benchmark, this is how each layer's cost
//! per operation is measured from outside.

use std::collections::BTreeMap;
use std::sync::Arc;

use pandora_atm::{burst_gather, cells_gather, Cell, SlabReassembler, SwitchCore, Vci};
use pandora_audio::gen::{Signal, Speech};
use pandora_audio::{
    mix_blocks, mulaw, segment_blocks, Block, Muting, MutingConfig, SegmentAssembler,
};
use pandora_buffers::{ClawbackBank, ClawbackConfig, ClawbackPool, Pool};
use pandora_overlay::{RepairRing, Slice, StripeReceiver, OVERLAY_VCI_BASE};
use pandora_segment::{
    wire, Segment, SequenceNumber, SlabSegment, StreamId, Timestamp, BLOCK_BYTES,
    BLOCK_DURATION_NANOS,
};
use pandora_session::{SessionMsg, StreamClass};
use pandora_slab::ByteSlab;
use pandora_video::interp::{decode_segment, LineCache};
use pandora_video::{
    capture_rect, dpcm, CaptureConfig, FrameAssembler, FrameStore, TestPattern, DEFAULT_HEIGHT,
    DEFAULT_WIDTH,
};

use crate::spans::{self_times_ns, Tracer};
use crate::stats::weighted_median;

/// Segments walked per traced run (split between audio and video by the
/// workload's own census), camera frames written, control messages
/// coded, and broadcast slices relayed.
const WALK_SEGMENTS: u64 = 1_200;
const WALK_MIN_FRAMES: u64 = 30;
const WALK_MIN_AUDIO: u64 = 200;
const WALK_CAMERA_FRAMES: u64 = 40;
const WALK_CONTROL_MSGS: u64 = 400;
const WALK_SLICES: u64 = 1_200;
const CALIBRATION_SPANS: usize = 2_000;

/// The standard box's buffer geometry (`BoxConfig::standard`).
const SLAB_BUFFERS: usize = 288;
const SLAB_BYTES: usize = 64 * 1024;
const POOL_BUFFERS: usize = 256;
const CLAWBACK_POOL_BLOCKS: usize = 2_000;

/// Cost of one operation of each walked layer call: over the spans of
/// that name, the median — weighted by the units of work each span
/// covered — of self time less the cost of an empty span, per unit. The
/// unit (call, cell, block, segment) is fixed where the span is recorded;
/// weighting by it makes a per-cell figure the cost of the typical cell,
/// not of the typical span, when two-cell audio frames and hundred-cell
/// video frames share a name.
pub struct WalkCosts {
    per_unit: BTreeMap<&'static str, (f64, usize)>,
    /// Median self time of an empty span — what a span's two clock reads
    /// cost — and the empty spans behind it.
    pub span_overhead_ns: f64,
    pub calibration_spans: usize,
}

impl WalkCosts {
    /// ns per unit of `name`; 0 when the workload never walked it.
    pub fn ns(&self, name: &str) -> f64 {
        self.per_unit.get(name).map_or(0.0, |c| c.0)
    }

    /// Spans behind [`WalkCosts::ns`].
    pub fn samples(&self, name: &str) -> usize {
        self.per_unit.get(name).map_or(0, |c| c.1)
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.per_unit.keys().copied()
    }
}

/// Records spans plus how many units of work each covered.
struct Recorder<'a> {
    tracer: &'a mut Tracer,
    units: Vec<(usize, f64)>,
}

impl Recorder<'_> {
    /// Runs `f` in a span named `name` that covers `units` units.
    fn layer<R>(&mut self, name: &'static str, units: usize, f: impl FnOnce() -> R) -> R {
        let id = self.tracer.begin(name);
        let out = f();
        self.tracer.end(id);
        self.units.push((id, units.max(1) as f64));
        out
    }

    fn finish(self, first_span: usize) -> WalkCosts {
        let spans = &self.tracer.spans()[first_span..];
        // Parent indices are absolute; rebase the slice so that the
        // walk's spans can be analysed on their own.
        let rebased: Vec<_> = spans
            .iter()
            .map(|s| {
                let mut s = s.clone();
                s.parent = s.parent.and_then(|p| p.checked_sub(first_span));
                s
            })
            .collect();
        let self_ns = self_times_ns(&rebased);
        let mut by_name: BTreeMap<&'static str, Vec<(f64, f64)>> = BTreeMap::new();
        for (id, units) in self.units {
            let i = id - first_span;
            by_name
                .entry(rebased[i].name)
                .or_default()
                .push((self_ns[i] as f64, units));
        }
        let empty = by_name.remove("walk.calibrate").unwrap_or_default();
        let span_overhead_ns = weighted_median(&empty);
        WalkCosts {
            per_unit: by_name
                .into_iter()
                .map(|(name, spans)| {
                    let per_unit: Vec<(f64, f64)> = spans
                        .iter()
                        .map(|&(ns, units)| ((ns - span_overhead_ns).max(0.0) / units, units))
                        .collect();
                    (name, (weighted_median(&per_unit), spans.len()))
                })
                .collect(),
            span_overhead_ns,
            calibration_spans: empty.len(),
        }
    }
}

fn calibrate(rec: &mut Recorder<'_>) {
    let root = rec.tracer.begin("walk.calibration");
    for _ in 0..CALIBRATION_SPANS {
        rec.layer("walk.calibrate", 1, || {});
    }
    rec.tracer.end(root);
}

/// What the star walk needs to know about the run it mirrors.
pub struct StarMix {
    pub audio_segments: u64,
    pub video_segments: u64,
    /// Streams the busiest speaker mixed at once.
    pub active_streams: usize,
    pub window: CaptureConfig,
    pub speech_seed: u64,
}

/// The transport every star segment crosses: box slab and pool, AAL,
/// the fabric switch core, reassembly into the far box's slab.
struct Transport {
    tx_slab: ByteSlab,
    rx_slab: ByteSlab,
    pool: Pool<SlabSegment>,
    core: SwitchCore,
    port: pandora_sim::Receiver<Cell>,
    reasm: SlabReassembler,
    scratch: Vec<u8>,
    cell_seq: u32,
    vci: Vci,
}

impl Transport {
    fn new() -> Transport {
        let rx_slab = ByteSlab::new(SLAB_BUFFERS, SLAB_BYTES);
        let (core, mut ports) = SwitchCore::new(1, 2_048);
        let vci = Vci(9);
        core.route(vci, 0, vci);
        Transport {
            tx_slab: ByteSlab::new(SLAB_BUFFERS, SLAB_BYTES),
            reasm: SlabReassembler::new(rx_slab.clone()),
            rx_slab,
            pool: Pool::new(POOL_BUFFERS),
            core,
            port: ports.remove(0),
            scratch: Vec::new(),
            cell_seq: 0,
            vci,
        }
    }

    /// Source box to sink box: slab copy-in, pool descriptor, header
    /// encode, AAL segmentation, fabric dispatch, reassembly, decode,
    /// copy-out — the order `network_board` and `Switch` run them in.
    fn carry(&mut self, rec: &mut Recorder<'_>, segment: &Segment) -> (Segment, usize) {
        let sseg = rec.layer("slab.alloc", 1, || {
            SlabSegment::from_segment(segment, &self.tx_slab).expect("tx slab has a free region")
        });
        let desc = rec.layer("buffers.pool_alloc", 1, || {
            self.pool
                .try_alloc(sseg)
                .unwrap_or_else(|_| panic!("tx pool has a free descriptor"))
        });
        let cells = self.pool.with(desc, |seg| {
            let hdr = seg.header.header_wire_bytes();
            self.scratch.resize(hdr, 0);
            rec.layer("segment.encode", 1, || {
                wire::encode_header_into(&seg.header, &mut self.scratch)
            });
            // Units are unknown until the cells exist; per-cell cost is
            // settled below.
            let id = rec.tracer.begin("atm.aal_tx");
            let cells = seg
                .payload
                .copy_out_with(|p| cells_gather(self.vci, &self.scratch, p, self.cell_seq));
            rec.tracer.end(id);
            rec.units.push((id, cells.len().max(1) as f64));
            cells
        });
        rec.layer("buffers.pool_release", 1, || self.pool.release(desc));
        self.cell_seq = self.cell_seq.wrapping_add(cells.len() as u32);
        let n = cells.len();
        rec.layer("atm.switch", n, || {
            for cell in cells {
                self.core.dispatch_cell(cell);
            }
        });
        let arrived: Vec<Cell> = rec.layer("walk.drain", n, || {
            std::iter::from_fn(|| self.port.try_recv()).collect()
        });
        let frame = rec.layer("atm.aal_rx", n, || {
            let mut out = None;
            for cell in arrived {
                out = self.reasm.push(cell).or(out);
            }
            out.expect("the last cell completes the frame").1
        });
        let decoded = rec.layer("segment.decode", 1, || {
            wire::decode_slab(&frame).expect("a frame the walk encoded decodes")
        });
        drop(frame);
        (rec.layer("segment.copy_out", 1, || decoded.to_segment()), n)
    }
}

/// Source- and sink-side state of the walked boxes.
struct StarWalker<'m> {
    mix: &'m StarMix,
    transport: Transport,
    speech: Speech,
    muting_mic: Muting,
    muting_speaker: Muting,
    assembler: SegmentAssembler,
    bank: ClawbackBank<(Block, u64)>,
    /// The other conference speakers' blocks the mix tick adds in.
    others: Vec<Block>,
    store: FrameStore,
    pattern: TestPattern,
    display: FrameStore,
    cache: LineCache,
    frame_asm: FrameAssembler,
    video_seq: SequenceNumber,
    segment_id: u64,
    audio_walked: u64,
    frames_walked: u64,
    audio_cells: u64,
    video_cells: u64,
}

const AUDIO_STREAM: StreamId = StreamId(1);
const VIDEO_STREAM: StreamId = StreamId(2);

impl StarWalker<'_> {
    /// Microphone to loudspeaker: generate, code, mute, assemble, carry,
    /// clawback arrival, then the two mix ticks the segment feeds.
    fn audio_segment(&mut self, rec: &mut Recorder<'_>) {
        self.segment_id += 1;
        rec.tracer.set_trace(self.segment_id);
        let root = rec.tracer.begin("walk.segment");
        let ts = Timestamp::from_nanos(self.audio_walked * 2 * BLOCK_DURATION_NANOS);
        self.audio_walked += 1;
        let speech = &mut self.speech;
        let linear = rec.layer("audio.generate", 2, || {
            [speech.next_block_linear(), speech.next_block_linear()]
        });
        let blocks = rec.layer("audio.codec", 2, || {
            linear.map(|l| {
                let mut out = [0u8; BLOCK_BYTES];
                for (o, &s) in out.iter_mut().zip(l.iter()) {
                    *o = mulaw::encode(s);
                }
                Block(out)
            })
        });
        let blocks = rec.layer("audio.muting_mic", 2, || {
            blocks.map(|b| self.muting_mic.apply_mic(&b))
        });
        let seg = rec
            .layer("audio.assemble", 2, || {
                self.assembler.push(blocks[0], ts);
                self.assembler.push(blocks[1], ts)
            })
            .expect("two blocks make a segment");
        let (arrived, cells) = self.transport.carry(rec, &Segment::Audio(seg));
        self.audio_cells += cells as u64;
        let Segment::Audio(heard) = arrived else {
            unreachable!("an audio segment arrives as audio")
        };
        rec.layer("buffers.clawback", 2, || {
            for (k, block) in segment_blocks(&heard).into_iter().enumerate() {
                let _ = self.bank.arrival(AUDIO_STREAM, (block, k as u64));
            }
        });
        for _ in 0..2 {
            let served = rec.layer("buffers.clawback_tick", 1, || self.bank.mix_tick());
            let mixed = rec.layer("audio.mix", 1, || {
                mix_blocks(served.iter().map(|(_, (b, _))| b).chain(self.others.iter()))
            });
            rec.layer("audio.muting_speaker", 1, || {
                self.muting_speaker.observe_speaker(&mixed);
            });
        }
        // What the tick of a box nobody talks to costs: the empty mix.
        rec.layer("audio.mix_idle", 1, || {
            std::hint::black_box(mix_blocks(std::iter::empty::<&Block>()))
        });
        rec.tracer.end(root);
    }

    /// Camera window to display: capture (which compresses), then each
    /// of the frame's segments carried, decompressed and shown.
    fn video_frame(&mut self, rec: &mut Recorder<'_>) {
        self.frames_walked += 1;
        let window = &self.mix.window;
        let ts = Timestamp::from_nanos(self.frames_walked * 100_000_000);
        rec.tracer.set_trace(self.segment_id + 1);
        let root = rec.tracer.begin("walk.frame");
        let segments = rec.layer("video.capture", 4, || {
            capture_rect(
                &self.store,
                window,
                self.frames_walked as u32,
                self.video_seq,
                ts,
            )
        });
        // The DPCM coder alone, on the first segment's pixels, for the
        // codec row; `video.capture` above already paid for it once.
        let pixels = self.store.read_rect(window.rect);
        let slice = &pixels[..(window.lines_per_segment * window.rect.width) as usize];
        rec.layer("video.dpcm_enc", 1, || {
            std::hint::black_box(dpcm::compress_slice(
                slice,
                window.rect.width as usize,
                window.mode,
            ))
        });
        rec.tracer.end(root);
        for seg in segments {
            self.video_seq = self.video_seq.next();
            self.segment_id += 1;
            rec.tracer.set_trace(self.segment_id);
            let root = rec.tracer.begin("walk.segment");
            let (arrived, cells) = self.transport.carry(rec, &Segment::Video(seg));
            self.video_cells += cells as u64;
            let Segment::Video(shown) = arrived else {
                unreachable!("a video segment arrives as video")
            };
            let lines = rec
                .layer("video.dpcm_dec", 1, || {
                    decode_segment(&shown, VIDEO_STREAM, &mut self.cache)
                })
                .expect("a segment the walk compressed decompresses");
            rec.layer("video.display", 1, || {
                if let Some(frame) = self.frame_asm.push(&shown, lines) {
                    self.display.write_rect(frame.rect, &frame.pixels);
                }
            });
            rec.tracer.end(root);
        }
    }
}

/// Walks the star workloads' segment mix. Returns the per-layer costs and
/// counts taken at the same boundaries.
pub fn star_walk(tracer: &mut Tracer, mix: &StarMix) -> (WalkCosts, BTreeMap<&'static str, u64>) {
    let first_span = tracer.spans().len();
    let mut rec = Recorder {
        tracer,
        units: Vec::new(),
    };
    calibrate(&mut rec);

    // Split the walk as the run's census splits its traffic, video in
    // whole four-segment frames.
    let total = (mix.audio_segments + mix.video_segments).max(1);
    let frames = if mix.video_segments == 0 {
        0
    } else {
        (WALK_SEGMENTS * mix.video_segments / total / 4).max(WALK_MIN_FRAMES)
    };
    let audio = if mix.audio_segments == 0 {
        0
    } else {
        WALK_SEGMENTS.saturating_sub(frames * 4).max(WALK_MIN_AUDIO)
    };
    let audio_per_frame = audio.checked_div(frames).unwrap_or(u64::MAX).max(1);

    let pattern = TestPattern::new(DEFAULT_WIDTH, DEFAULT_HEIGHT);
    let mut store = FrameStore::new(DEFAULT_WIDTH, DEFAULT_HEIGHT);
    store.write_frame(&pattern.frame(0));
    let mut w = StarWalker {
        mix,
        transport: Transport::new(),
        speech: Speech::new(mix.speech_seed),
        muting_mic: Muting::new(MutingConfig::default()),
        muting_speaker: Muting::new(MutingConfig::default()),
        assembler: SegmentAssembler::new(2),
        bank: ClawbackBank::new(
            ClawbackConfig::default(),
            ClawbackPool::new(CLAWBACK_POOL_BLOCKS),
        ),
        others: (1..mix.active_streams.max(1))
            .map(|i| Block([0x30 + i as u8; BLOCK_BYTES]))
            .collect(),
        store,
        pattern,
        display: FrameStore::new(DEFAULT_WIDTH, DEFAULT_HEIGHT),
        cache: LineCache::new(),
        frame_asm: FrameAssembler::new(),
        video_seq: SequenceNumber(0),
        segment_id: 0,
        audio_walked: 0,
        frames_walked: 0,
        audio_cells: 0,
        video_cells: 0,
    };
    for a in 0..audio {
        w.audio_segment(&mut rec);
        if w.frames_walked < frames && (a + 1) % audio_per_frame == 0 {
            w.video_frame(&mut rec);
        }
    }
    while w.frames_walked < frames {
        w.video_frame(&mut rec);
    }

    // What every box's camera does at 25 Hz whether or not it streams.
    rec.tracer.set_trace(0);
    let root = rec.tracer.begin("walk.camera");
    for n in 0..WALK_CAMERA_FRAMES {
        rec.layer("video.frame_write", 1, || {
            w.store.write_frame(&w.pattern.frame(n));
        });
    }
    rec.tracer.end(root);

    // The 29-byte control message, coded and carried as a test segment.
    let root = rec.tracer.begin("walk.control");
    for txn in 0..WALK_CONTROL_MSGS as u32 {
        let msg = SessionMsg::OpenSink {
            txn,
            session: 1,
            class: StreamClass::Audio,
            vci: Vci(0x100 + txn),
        };
        rec.layer("session.msg_codec", 1, || {
            let seg = msg.to_segment(txn);
            std::hint::black_box(SessionMsg::from_segment(&seg))
        });
    }
    rec.tracer.end(root);

    let t = &w.transport;
    let counts = BTreeMap::from([
        ("audio_segments", w.audio_walked),
        ("video_segments", w.frames_walked * 4),
        ("audio_cells", w.audio_cells),
        ("video_cells", w.video_cells),
        (
            "slab_alloc_failures",
            t.rx_slab.alloc_failures() + t.tx_slab.alloc_failures(),
        ),
        ("frames_discarded", t.reasm.frames_discarded()),
        ("switch_overflow", t.core.counters().overflow()),
    ]);
    (rec.finish(first_span), counts)
}

/// Walks the broadcast's slice path: the source's one slab write and one
/// burst gather, an interior relay's accept, ring push and per-child
/// re-stamp, and a leaf's accept.
pub fn broadcast_walk(
    tracer: &mut Tracer,
    trees: usize,
    degree: usize,
    payload_bytes: usize,
    ring: usize,
    playout_ns: u64,
) -> WalkCosts {
    let first_span = tracer.spans().len();
    let mut rec = Recorder {
        tracer,
        units: Vec::new(),
    };
    calibrate(&mut rec);
    let k = trees.max(1);
    let slab = ByteSlab::new(4, payload_bytes.max(64));
    let mut relay = StripeReceiver::new(k, playout_ns);
    let mut leaf = StripeReceiver::new(k, playout_ns);
    let mut repair = RepairRing::new(ring);
    let cells_per = (payload_bytes + 4).div_ceil(48) as u32;
    for seq in 0..WALK_SLICES as u32 {
        rec.tracer.set_trace(u64::from(seq) + 1);
        let root = rec.tracer.begin("walk.segment");
        let tree = seq as usize % k;
        let now = u64::from(seq) * 4_000_000;
        let region = rec.layer("slab.alloc", 1, || {
            let mut writer = slab
                .try_writer()
                .expect("the source slab has a free region");
            let fill = [(seq % 251) as u8; 64];
            let mut left = payload_bytes;
            while left > 0 {
                let take = left.min(fill.len());
                writer
                    .append(&fill[..take])
                    .expect("the payload fits its slab");
                left -= take;
            }
            writer.freeze()
        });
        let burst = rec.layer("atm.aal_tx", cells_per as usize, || {
            region.copy_out_with(|p| {
                burst_gather(
                    Vci(OVERLAY_VCI_BASE + tree as u32),
                    &seq.to_be_bytes(),
                    p,
                    seq.wrapping_mul(cells_per),
                )
            })
        });
        drop(region);
        let slice = Slice {
            tree: tree as u8,
            seq,
            stamp: now,
            sent: now,
            burst: Arc::new(burst),
        };
        rec.layer("overlay.accept", 1, || {
            std::hint::black_box(relay.accept(&slice, now + 600_000));
        });
        rec.layer("overlay.ring", 1, || repair.push(slice.clone()));
        let copies = rec.layer("overlay.retime", degree, || {
            (0..degree)
                .map(|_| slice.retimed(now + 650_000))
                .collect::<Vec<_>>()
        });
        rec.layer("overlay.accept", 1, || {
            std::hint::black_box(leaf.accept(&copies[0], now + 1_300_000));
        });
        rec.tracer.end(root);
    }
    rec.finish(first_span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_video::dpcm::LineMode;
    use pandora_video::{RateFraction, Rect};

    fn window() -> CaptureConfig {
        CaptureConfig {
            rect: Rect::new(64, 32, 256, 192),
            rate: RateFraction::new(2, 5),
            lines_per_segment: 48,
            mode: LineMode::Dpcm,
        }
    }

    #[test]
    fn star_walk_carries_both_media_through_every_layer() {
        let mut tracer = Tracer::new();
        let mix = StarMix {
            audio_segments: 25_000,
            video_segments: 4_000,
            active_streams: 1,
            window: window(),
            speech_seed: 1,
        };
        let (costs, counts) = star_walk(&mut tracer, &mix);
        for name in [
            "audio.codec",
            "audio.mix",
            "atm.aal_tx",
            "atm.aal_rx",
            "atm.switch",
            "segment.encode",
            "segment.decode",
            "slab.alloc",
            "buffers.pool_alloc",
            "buffers.clawback",
            "video.capture",
            "video.dpcm_dec",
            "video.frame_write",
            "session.msg_codec",
        ] {
            assert!(costs.samples(name) > 0, "{name} was not walked");
        }
        assert_eq!(counts["frames_discarded"], 0);
        assert_eq!(counts["switch_overflow"], 0);
        assert!(counts["video_cells"] > counts["video_segments"] * 50);
        // Every walked segment has exactly one root span.
        let roots = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "walk.segment")
            .count() as u64;
        assert_eq!(roots, counts["audio_segments"] + counts["video_segments"]);
    }

    #[test]
    fn audio_only_mix_walks_no_video() {
        let mut tracer = Tracer::new();
        let mix = StarMix {
            audio_segments: 48_000,
            video_segments: 0,
            active_streams: 3,
            window: window(),
            speech_seed: 1,
        };
        let (costs, counts) = star_walk(&mut tracer, &mix);
        assert_eq!(counts["video_segments"], 0);
        assert_eq!(costs.samples("video.capture"), 0);
        assert_eq!(costs.ns("video.capture"), 0.0);
        assert!(costs.samples("audio.mix") > 0);
    }

    #[test]
    fn broadcast_walk_relays_every_slice() {
        let mut tracer = Tracer::new();
        let costs = broadcast_walk(&mut tracer, 4, 8, 1_408, 32, 80_000_000);
        assert_eq!(costs.samples("overlay.ring"), WALK_SLICES as usize);
        assert_eq!(costs.samples("overlay.accept"), 2 * WALK_SLICES as usize);
        assert!(costs.ns("atm.aal_tx") >= 0.0);
    }
}
