//! The network board: cell transmit scheduling and receive reassembly.
//!
//! Transmit implements the priority principles concretely:
//!
//! * **P2 (audio over video)**: audio segments are always taken ahead of
//!   video (the fig 3.7 split feeds two queues; audio drains first).
//! * **P3 (newest streams first)**: when the video backlog exceeds its
//!   cap, segments are dropped from the *longest-open* stream, so "data
//!   streams that have been open the longest should be degraded first".
//! * **§4.2's known flaw, reproduced**: in [`TxMode::NonInterleaved`] mode
//!   a segment's cells go out back-to-back, so "video segments can hold up
//!   following audio segments, introducing up to 20ms of jitter";
//!   [`TxMode::Interleaved`] is the cell-level round-robin ablation.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use pandora_atm::{cells_gather, SlabReassembler, Vci};
use pandora_buffers::{ByteSlab, Pool, Report, ReportClass};
use pandora_metrics::{Histogram, RateLimiter};
use pandora_segment::{wire, SlabSegment, StreamId};
use pandora_sim::{alt2, Either2, LinkSender, Receiver, Sender, SimDuration, SimTime, Spawner};

use crate::config::TxMode;
use crate::msg::SegMsg;
use crate::server_board::NetMsg;

/// Shared transmit statistics.
#[derive(Clone, Default)]
pub struct NetOutStats {
    inner: Rc<RefCell<NetOutInner>>,
}

#[derive(Default)]
struct NetOutInner {
    audio_segments: u64,
    video_segments: u64,
    cells: u64,
    /// Video segments dropped by the P3 (oldest-first) policy, per stream.
    p3_drops: BTreeMap<StreamId, u64>,
    /// Time audio segments waited from arrival at the scheduler to the
    /// start of transmission (the §4.2 hold-up).
    audio_wait_ns: Histogram,
}

impl NetOutStats {
    /// Audio segments transmitted.
    pub fn audio_segments(&self) -> u64 {
        self.inner.borrow().audio_segments
    }

    /// Video segments transmitted.
    pub fn video_segments(&self) -> u64 {
        self.inner.borrow().video_segments
    }

    /// Cells put on the wire.
    pub fn cells(&self) -> u64 {
        self.inner.borrow().cells
    }

    /// P3 drops charged to one stream.
    pub fn p3_drops(&self, stream: StreamId) -> u64 {
        self.inner
            .borrow()
            .p3_drops
            .get(&stream)
            .copied()
            .unwrap_or(0)
    }

    /// Total P3 drops.
    pub fn p3_drops_total(&self) -> u64 {
        self.inner.borrow().p3_drops.values().sum()
    }

    /// Distribution of audio hold-up behind in-flight segments, ns.
    pub fn audio_wait_ns(&self) -> Histogram {
        self.inner.borrow().audio_wait_ns.clone()
    }
}

struct VideoQueue {
    opened_at: SimTime,
    segments: VecDeque<NetMsg>,
}

/// Policy configuration of the network output process.
#[derive(Debug, Clone, Copy)]
pub struct NetOutConfig {
    /// Transmit scheduling mode.
    pub mode: TxMode,
    /// Video backlog cap before the drop policy engages.
    pub video_backlog_cap: usize,
    /// Principle 2: drain audio ahead of video. When `false`, audio is
    /// only served once no video is pending (the conformance ablation).
    pub audio_priority: bool,
    /// Principle 3: on overflow, drop from the longest-open stream. When
    /// `false`, the newest stream is the victim instead.
    pub p3_oldest_first: bool,
}

impl NetOutConfig {
    /// The paper's policies with the given mode and backlog cap.
    pub fn new(mode: TxMode, video_backlog_cap: usize) -> Self {
        NetOutConfig {
            mode,
            video_backlog_cap,
            audio_priority: true,
            p3_oldest_first: true,
        }
    }
}

/// Spawns the network output process.
///
/// `audio` and `video` are the drains of the fig 3.7 decoupling buffers;
/// `link` is the box's ATM attachment.
#[allow(clippy::too_many_arguments)]
pub fn spawn_net_out(
    spawner: &Spawner,
    name: &str,
    config: NetOutConfig,
    audio: Receiver<NetMsg>,
    video: Receiver<NetMsg>,
    link: LinkSender<pandora_atm::Cell>,
    pool: Pool<SlabSegment>,
    reports: Sender<Report>,
    report_min_period: SimDuration,
) -> NetOutStats {
    let NetOutConfig {
        mode,
        video_backlog_cap,
        audio_priority,
        p3_oldest_first,
    } = config;
    let stats = NetOutStats::default();
    let s = stats.clone();
    let proc_name = format!("net-out:{name}");
    let task_name = proc_name.clone();
    spawner.spawn(&task_name, async move {
        let mut cell_seq: BTreeMap<Vci, u32> = BTreeMap::new();
        // Reusable header scratch region: headers are encoded here and
        // scatter-gathered with the slab payload, so no contiguous wire
        // image of the segment is ever built.
        let mut scratch: Vec<u8> = Vec::with_capacity(128);
        let mut audio_q: VecDeque<(NetMsg, SimTime)> = VecDeque::new();
        let mut video_q: BTreeMap<StreamId, VideoQueue> = BTreeMap::new();
        let mut video_backlog = 0usize;
        let mut limiter = RateLimiter::new(report_min_period.as_nanos());
        // In interleaved mode, the cells of the segment currently being
        // transmitted; audio may preempt between cells.
        let mut in_flight: VecDeque<pandora_atm::Cell> = VecDeque::new();
        loop {
            // Take audio from the decoupling buffer only as transmission
            // slots open up: the fig 3.7 buffer (not this process) is where
            // audio queues, so its size limit is meaningful and overflow is
            // dropped (and counted) at the switch.
            while audio_q.len() < 2 {
                match audio.try_recv() {
                    Some(m) => audio_q.push_back((m, pandora_sim::now())),
                    None => break,
                }
            }
            while let Some(m) = video.try_recv() {
                admit_video(
                    m,
                    &mut video_q,
                    &mut video_backlog,
                    video_backlog_cap,
                    p3_oldest_first,
                    &pool,
                    &s,
                    &reports,
                    &mut limiter,
                    &proc_name,
                )
                .await;
            }
            // In non-interleaved mode a started segment finishes before
            // anything else is considered — the §4.2 hold-up.
            if mode == TxMode::NonInterleaved {
                if let Some(cell) = in_flight.pop_front() {
                    s.inner.borrow_mut().cells += 1;
                    if link.send(cell).await.is_err() {
                        return;
                    }
                    continue;
                }
            }
            // Audio next (Principle 2). Audio segments are small (a cell or
            // two), so they are sent directly in both modes. With the
            // principle disabled, audio only gets a turn once no video is
            // staged or queued.
            let audio_turn = audio_priority || (in_flight.is_empty() && video_backlog == 0);
            if audio_turn {
                if let Some((m, queued_at)) = audio_q.pop_front() {
                    let wait = pandora_sim::now() - queued_at;
                    s.inner
                        .borrow_mut()
                        .audio_wait_ns
                        .record(wait.as_nanos() as f64);
                    s.inner.borrow_mut().audio_segments += 1;
                    let cells = segment_cells(&m, &pool, &mut cell_seq, &mut scratch);
                    for cell in cells {
                        s.inner.borrow_mut().cells += 1;
                        if link.send(cell).await.is_err() {
                            return;
                        }
                    }
                    continue;
                }
            }
            // In interleaved mode, staged video cells go out one at a time
            // so audio can cut in between them.
            if let Some(cell) = in_flight.pop_front() {
                s.inner.borrow_mut().cells += 1;
                if link.send(cell).await.is_err() {
                    return;
                }
                continue;
            }
            if let Some(m) = pop_video(&mut video_q, &mut video_backlog) {
                s.inner.borrow_mut().video_segments += 1;
                in_flight.extend(segment_cells(&m, &pool, &mut cell_seq, &mut scratch));
                continue;
            }
            // Nothing pending: block until either input produces.
            match alt2(&audio, &video).await {
                Some(Ok(Either2::A(m))) => audio_q.push_back((m, pandora_sim::now())),
                Some(Ok(Either2::B(m))) => {
                    admit_video(
                        m,
                        &mut video_q,
                        &mut video_backlog,
                        video_backlog_cap,
                        p3_oldest_first,
                        &pool,
                        &s,
                        &reports,
                        &mut limiter,
                        &proc_name,
                    )
                    .await
                }
                Some(Err(_)) | None => return,
            }
        }
    });
    stats
}

/// Turns one pooled segment into its cells and releases the descriptor.
///
/// This is the paper's *output* copy and the only place TX bytes move:
/// the headers are encoded into `scratch` and scatter-gathered with the
/// payload, still in its slab, directly into cell payloads.
fn segment_cells(
    m: &NetMsg,
    pool: &Pool<SlabSegment>,
    cell_seq: &mut BTreeMap<Vci, u32>,
    scratch: &mut Vec<u8>,
) -> Vec<pandora_atm::Cell> {
    let cells = pool.with(m.desc, |seg| {
        let hdr = seg.header.header_wire_bytes();
        scratch.resize(hdr, 0);
        wire::encode_header_into(&seg.header, scratch);
        let seq = cell_seq.entry(m.vci).or_insert(0);
        let cells = seg
            .payload
            .copy_out_with(|payload| cells_gather(m.vci, scratch, payload, *seq));
        *seq = seq.wrapping_add(cells.len() as u32);
        cells
    });
    pool.release(m.desc);
    cells
}

#[allow(clippy::too_many_arguments)]
async fn admit_video(
    m: NetMsg,
    video_q: &mut BTreeMap<StreamId, VideoQueue>,
    backlog: &mut usize,
    cap: usize,
    oldest_first: bool,
    pool: &Pool<SlabSegment>,
    s: &NetOutStats,
    reports: &Sender<Report>,
    limiter: &mut RateLimiter,
    proc_name: &str,
) {
    let q = video_q.entry(m.stream).or_insert_with(|| VideoQueue {
        opened_at: m.opened_at,
        segments: VecDeque::new(),
    });
    q.opened_at = m.opened_at;
    q.segments.push_back(m);
    *backlog += 1;
    while *backlog > cap {
        // Principle 3: degrade the stream that has been open the longest
        // (disabled: the newest stream takes the hit instead). Ties on
        // `opened_at` break on the stream id.
        let candidates = video_q.iter().filter(|(_, q)| !q.segments.is_empty());
        let victim = if oldest_first {
            candidates.min_by_key(|(&id, q)| (q.opened_at, id))
        } else {
            candidates.max_by_key(|(&id, q)| (q.opened_at, id))
        }
        .map(|(&id, _)| id);
        let Some(victim) = victim else { break };
        let vq = video_q.get_mut(&victim).expect("victim exists");
        if let Some(dropped) = vq.segments.pop_front() {
            pool.release(dropped.desc);
            *backlog -= 1;
            *s.inner.borrow_mut().p3_drops.entry(victim).or_insert(0) += 1;
            let now = pandora_sim::now();
            let key = format!("p3:{victim}");
            if limiter.allow(&key, now.as_nanos()) {
                let total = s.p3_drops(victim);
                let _ = reports
                    .send(Report::new(
                        now,
                        proc_name,
                        ReportClass::Overload,
                        format!(
                            "video backlog over {cap}: degraded stream {victim} ({total} dropped)"
                        ),
                    ))
                    .await;
            }
        }
    }
}

fn pop_video(video_q: &mut BTreeMap<StreamId, VideoQueue>, backlog: &mut usize) -> Option<NetMsg> {
    // Serve streams round-robin-ish by taking from the newest stream
    // first (the complement of the drop rule keeps new calls lively).
    let id = video_q
        .iter()
        .filter(|(_, q)| !q.segments.is_empty())
        .max_by_key(|(&id, q)| (q.opened_at, id))
        .map(|(&id, _)| id)?;
    let q = video_q.get_mut(&id)?;
    let m = q.segments.pop_front();
    if m.is_some() {
        *backlog -= 1;
    }
    m
}

/// Shared receive statistics.
#[derive(Clone, Default)]
pub struct NetInStats {
    inner: Rc<RefCell<NetInInner>>,
}

#[derive(Default)]
struct NetInInner {
    segments: u64,
    decode_errors: u64,
    frames_discarded: u64,
    pool_exhausted: u64,
}

impl NetInStats {
    /// Segments delivered to the switch.
    pub fn segments(&self) -> u64 {
        self.inner.borrow().segments
    }

    /// Frames that decoded to garbage (wire errors).
    pub fn decode_errors(&self) -> u64 {
        self.inner.borrow().decode_errors
    }

    /// Frames discarded at reassembly (cell loss).
    pub fn frames_discarded(&self) -> u64 {
        self.inner.borrow().frames_discarded
    }

    /// Segments dropped because the buffer pool was exhausted.
    pub fn pool_exhausted(&self) -> u64 {
        self.inner.borrow().pool_exhausted
    }
}

/// Spawns the network input handler: cells → frames → segments → switch.
///
/// Cells are reassembled directly into regions of `slab` (the box's one
/// *input* copy); decoding then only parses headers, leaving the payload
/// in place as a refcounted slice. The input handler is lossless up to
/// the switch (drops happen at the decoupling buffers downstream,
/// §3.7.1); only pool or slab exhaustion — the paper's "serious fault" —
/// discards here, with a report.
#[allow(clippy::too_many_arguments)]
pub fn spawn_net_in(
    spawner: &Spawner,
    name: &str,
    cells: Receiver<pandora_atm::Cell>,
    to_switch: Sender<SegMsg>,
    pool: Pool<SlabSegment>,
    slab: ByteSlab,
    reports: Sender<Report>,
    report_min_period: SimDuration,
) -> NetInStats {
    let stats = NetInStats::default();
    let s = stats.clone();
    let proc_name = format!("net-in:{name}");
    let task_name = proc_name.clone();
    spawner.spawn(&task_name, async move {
        let mut reasm = SlabReassembler::new(slab);
        let mut limiter = RateLimiter::new(report_min_period.as_nanos());
        let mut last_discarded = 0u64;
        let mut last_alloc_failures = 0u64;
        while let Ok(cell) = cells.recv().await {
            let Some((vci, frame)) = reasm.push(cell) else {
                let d = reasm.frames_discarded();
                let af = reasm.alloc_failures();
                if af != last_alloc_failures {
                    last_alloc_failures = af;
                    last_discarded = d;
                    s.inner.borrow_mut().frames_discarded = d;
                    s.inner.borrow_mut().pool_exhausted += 1;
                    let now = pandora_sim::now();
                    if limiter.allow("pool", now.as_nanos()) {
                        let _ = reports
                            .send(Report::new(
                                now,
                                &proc_name,
                                ReportClass::Fault,
                                "reassembly slab exhausted, discarding",
                            ))
                            .await;
                    }
                } else if d != last_discarded {
                    last_discarded = d;
                    s.inner.borrow_mut().frames_discarded = d;
                    let now = pandora_sim::now();
                    if limiter.allow("reasm", now.as_nanos()) {
                        let _ = reports
                            .send(Report::new(
                                now,
                                &proc_name,
                                ReportClass::Error,
                                format!("cell loss: {d} frames discarded"),
                            ))
                            .await;
                    }
                }
                continue;
            };
            let segment = match wire::decode_slab(&frame) {
                Ok(seg) => seg,
                Err(e) => {
                    s.inner.borrow_mut().decode_errors += 1;
                    let now = pandora_sim::now();
                    if limiter.allow("decode", now.as_nanos()) {
                        let _ = reports
                            .send(Report::new(
                                now,
                                &proc_name,
                                ReportClass::Error,
                                format!("segment decode failed: {e}"),
                            ))
                            .await;
                    }
                    continue;
                }
            };
            match pool.try_alloc(segment) {
                Ok(desc) => {
                    s.inner.borrow_mut().segments += 1;
                    if to_switch
                        .send(SegMsg {
                            stream: vci.stream(),
                            desc,
                        })
                        .await
                        .is_err()
                    {
                        return;
                    }
                }
                Err(_) => {
                    s.inner.borrow_mut().pool_exhausted += 1;
                    let now = pandora_sim::now();
                    if limiter.allow("pool", now.as_nanos()) {
                        let _ = reports
                            .send(Report::new(
                                now,
                                &proc_name,
                                ReportClass::Fault,
                                "segment pool exhausted, discarding",
                            ))
                            .await;
                    }
                }
            }
        }
    });
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_atm::{segment_to_cells, Cell};
    use pandora_segment::{AudioSegment, Segment, SequenceNumber, Timestamp};
    use pandora_sim::{channel, link, unbounded, LinkConfig, Simulation};

    fn audio_seg(seq: u32) -> Segment {
        Segment::Audio(AudioSegment::from_blocks(
            SequenceNumber(seq),
            Timestamp(0),
            vec![0u8; 32],
        ))
    }

    fn video_seg(bytes: usize) -> Segment {
        Segment::Test(pandora_segment::TestSegment::new(
            SequenceNumber(0),
            Timestamp(0),
            vec![0u8; bytes],
        ))
    }

    struct Rig {
        sim: Simulation,
        pool: Pool<SlabSegment>,
        slab: ByteSlab,
        audio_tx: Sender<NetMsg>,
        video_tx: Sender<NetMsg>,
        wire_rx: Receiver<Cell>,
        stats: NetOutStats,
    }

    fn rig(mode: TxMode, cap: usize, bps: u64) -> Rig {
        rig_cfg(NetOutConfig::new(mode, cap), bps)
    }

    fn rig_cfg(config: NetOutConfig, bps: u64) -> Rig {
        let sim = Simulation::new();
        let spawner = sim.spawner();
        let pool = Pool::new(256);
        let slab = ByteSlab::new(64, 32 * 1024);
        let (audio_tx, audio_rx) = channel::<NetMsg>();
        let (video_tx, video_rx) = channel::<NetMsg>();
        let (rep_tx, _rep_rx) = unbounded::<Report>();
        let (wire_tx, wire_rx) = link::<Cell>(&spawner, LinkConfig::new("atm", bps));
        let stats = spawn_net_out(
            &spawner,
            "t",
            config,
            audio_rx,
            video_rx,
            wire_tx,
            pool.clone(),
            rep_tx,
            SimDuration::from_millis(100),
        );
        Rig {
            sim,
            pool,
            slab,
            audio_tx,
            video_tx,
            wire_rx,
            stats,
        }
    }

    fn msg(
        pool: &Pool<SlabSegment>,
        slab: &ByteSlab,
        stream: u32,
        seg: Segment,
        opened_ms: u64,
    ) -> NetMsg {
        NetMsg {
            stream: StreamId(stream),
            vci: Vci(stream),
            desc: pool
                .try_alloc(SlabSegment::from_segment(&seg, slab).unwrap())
                .unwrap(),
            opened_at: SimTime::from_millis(opened_ms),
        }
    }

    #[test]
    fn audio_goes_out_as_cells() {
        let mut r = rig(TxMode::NonInterleaved, 16, 100_000_000);
        let pool = r.pool.clone();
        let slab = r.slab.clone();
        let tx = r.audio_tx.clone();
        r.sim.spawn("feed", async move {
            tx.send(msg(&pool, &slab, 1, audio_seg(0), 0))
                .await
                .unwrap();
        });
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        let rx = r.wire_rx;
        r.sim.spawn("wire", async move {
            while let Ok(c) = rx.recv().await {
                g.borrow_mut().push(c);
            }
        });
        r.sim.run_until_idle();
        let cells = got.borrow();
        // 68-byte segment = 2 cells.
        assert_eq!(cells.len(), 2);
        assert!(cells[1].last);
        assert_eq!(cells[0].vci, Vci(1));
        assert_eq!(r.stats.audio_segments(), 1);
        assert_eq!(r.pool.free_count(), 256);
    }

    #[test]
    fn round_trip_through_net_in() {
        let mut sim = Simulation::new();
        let spawner = sim.spawner();
        let pool = Pool::new(64);
        let (cell_tx, cell_rx) = channel::<Cell>();
        let (sw_tx, sw_rx) = channel::<SegMsg>();
        let (rep_tx, _rep_rx) = unbounded::<Report>();
        let stats = spawn_net_in(
            &spawner,
            "t",
            cell_rx,
            sw_tx,
            pool.clone(),
            ByteSlab::new(8, 4096),
            rep_tx,
            SimDuration::from_millis(100),
        );
        sim.spawn("feed", async move {
            let bytes = wire::encode(&audio_seg(7));
            for c in segment_to_cells(Vci(42), &bytes, 0) {
                cell_tx.send(c).await.unwrap();
            }
        });
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        let pool2 = pool.clone();
        sim.spawn("switch", async move {
            if let Ok(m) = sw_rx.recv().await {
                *g.borrow_mut() = Some((m.stream, pool2.with(m.desc, |s| s.to_segment())));
                pool2.release(m.desc);
            }
        });
        sim.run_until_idle();
        let (stream, seg) = got.borrow().clone().expect("segment");
        assert_eq!(stream, StreamId(42));
        assert_eq!(seg, audio_seg(7));
        assert_eq!(stats.segments(), 1);
    }

    #[test]
    fn non_interleaved_video_holds_up_audio() {
        // A large video segment is mid-flight; audio arriving just after
        // must wait for all its cells (the §4.2 jitter source).
        let mut r = rig(TxMode::NonInterleaved, 64, 10_000_000);
        let pool = r.pool.clone();
        let slab = r.slab.clone();
        let (atx, vtx) = (r.audio_tx.clone(), r.video_tx.clone());
        r.sim.spawn("feed", async move {
            // 24kB video at 10Mbit/s ≈ 19.6ms of cells.
            vtx.send(msg(&pool, &slab, 2, video_seg(24_000), 0))
                .await
                .unwrap();
            pandora_sim::delay(SimDuration::from_micros(100)).await;
            atx.send(msg(&pool, &slab, 1, audio_seg(0), 0))
                .await
                .unwrap();
        });
        let audio_done = Rc::new(std::cell::Cell::new(SimTime::ZERO));
        let ad = audio_done.clone();
        let rx = r.wire_rx;
        r.sim.spawn("wire", async move {
            while let Ok(c) = rx.recv().await {
                if c.vci == Vci(1) && c.last {
                    ad.set(pandora_sim::now());
                }
            }
        });
        r.sim.run_until_idle();
        let t = audio_done.get();
        assert!(
            t >= SimTime::from_millis(18),
            "audio should wait behind the video burst, done at {t}"
        );
        let wait = r.stats.audio_wait_ns().max();
        assert!(wait > 15e6, "recorded wait {wait}ns");
    }

    #[test]
    fn interleaved_audio_preempts_video() {
        let mut r = rig(TxMode::Interleaved, 64, 10_000_000);
        let pool = r.pool.clone();
        let slab = r.slab.clone();
        let (atx, vtx) = (r.audio_tx.clone(), r.video_tx.clone());
        r.sim.spawn("feed", async move {
            vtx.send(msg(&pool, &slab, 2, video_seg(24_000), 0))
                .await
                .unwrap();
            pandora_sim::delay(SimDuration::from_micros(100)).await;
            atx.send(msg(&pool, &slab, 1, audio_seg(0), 0))
                .await
                .unwrap();
        });
        let audio_done = Rc::new(std::cell::Cell::new(SimTime::ZERO));
        let ad = audio_done.clone();
        let rx = r.wire_rx;
        r.sim.spawn("wire", async move {
            while let Ok(c) = rx.recv().await {
                if c.vci == Vci(1) && c.last {
                    ad.set(pandora_sim::now());
                }
            }
        });
        r.sim.run_until_idle();
        let t = audio_done.get();
        assert!(
            t < SimTime::from_millis(3),
            "interleaved audio must cut in quickly, done at {t}"
        );
    }

    #[test]
    fn p3_drops_oldest_stream_first() {
        // Flood the scheduler with video from an old and a new stream on a
        // slow link; drops must hit the old stream.
        let mut r = rig(TxMode::NonInterleaved, 4, 1_000_000);
        let pool = r.pool.clone();
        let slab = r.slab.clone();
        let vtx = r.video_tx.clone();
        r.sim.spawn("feed", async move {
            for _ in 0..10 {
                vtx.send(msg(&pool, &slab, 10, video_seg(5_000), 0))
                    .await
                    .unwrap(); // Old.
                vtx.send(msg(&pool, &slab, 20, video_seg(5_000), 900))
                    .await
                    .unwrap(); // New.
            }
        });
        let delivered = Rc::new(RefCell::new(BTreeMap::<Vci, u64>::new()));
        let d = delivered.clone();
        let rx = r.wire_rx;
        r.sim.spawn("wire", async move {
            while let Ok(c) = rx.recv().await {
                if c.last {
                    *d.borrow_mut().entry(c.vci).or_insert(0) += 1;
                }
            }
        });
        r.sim.run_until_idle();
        let old_drops = r.stats.p3_drops(StreamId(10));
        let new_drops = r.stats.p3_drops(StreamId(20));
        assert!(old_drops > 0, "old stream untouched");
        assert!(old_drops > new_drops, "old {old_drops} vs new {new_drops}");
        // The user-visible effect of Principle 3: the new call keeps
        // flowing while the old stream is starved.
        let delivered = delivered.borrow();
        let old_sent = delivered.get(&Vci(10)).copied().unwrap_or(0);
        let new_sent = delivered.get(&Vci(20)).copied().unwrap_or(0);
        assert!(
            new_sent > old_sent,
            "new {new_sent} vs old {old_sent} delivered"
        );
        assert_eq!(
            r.pool.free_count(),
            256,
            "dropped segments must be released"
        );
    }

    #[test]
    fn audio_priority_disabled_waits_behind_video() {
        // Interleaved mode normally lets audio cut in between video cells
        // (see interleaved_audio_preempts_video); with Principle 2
        // disabled the audio segment waits for the whole video backlog.
        let mut r = rig_cfg(
            NetOutConfig {
                audio_priority: false,
                ..NetOutConfig::new(TxMode::Interleaved, 64)
            },
            10_000_000,
        );
        let pool = r.pool.clone();
        let slab = r.slab.clone();
        let (atx, vtx) = (r.audio_tx.clone(), r.video_tx.clone());
        r.sim.spawn("feed", async move {
            vtx.send(msg(&pool, &slab, 2, video_seg(24_000), 0))
                .await
                .unwrap();
            pandora_sim::delay(SimDuration::from_micros(100)).await;
            atx.send(msg(&pool, &slab, 1, audio_seg(0), 0))
                .await
                .unwrap();
        });
        let audio_done = Rc::new(std::cell::Cell::new(SimTime::ZERO));
        let ad = audio_done.clone();
        let rx = r.wire_rx;
        r.sim.spawn("wire", async move {
            while let Ok(c) = rx.recv().await {
                if c.vci == Vci(1) && c.last {
                    ad.set(pandora_sim::now());
                }
            }
        });
        r.sim.run_until_idle();
        let t = audio_done.get();
        assert!(
            t >= SimTime::from_millis(18),
            "audio must wait behind video with P2 disabled, done at {t}"
        );
    }

    #[test]
    fn p3_disabled_drops_newest_stream_instead() {
        let mut r = rig_cfg(
            NetOutConfig {
                p3_oldest_first: false,
                ..NetOutConfig::new(TxMode::NonInterleaved, 4)
            },
            1_000_000,
        );
        let pool = r.pool.clone();
        let slab = r.slab.clone();
        let vtx = r.video_tx.clone();
        r.sim.spawn("feed", async move {
            for _ in 0..10 {
                vtx.send(msg(&pool, &slab, 10, video_seg(5_000), 0))
                    .await
                    .unwrap(); // Old.
                vtx.send(msg(&pool, &slab, 20, video_seg(5_000), 900))
                    .await
                    .unwrap(); // New.
            }
        });
        let rx = r.wire_rx;
        r.sim
            .spawn("wire", async move { while rx.recv().await.is_ok() {} });
        r.sim.run_until_idle();
        let old_drops = r.stats.p3_drops(StreamId(10));
        let new_drops = r.stats.p3_drops(StreamId(20));
        assert!(new_drops > 0, "new stream untouched");
        assert!(
            new_drops > old_drops,
            "new {new_drops} vs old {old_drops} — victim policy inverted"
        );
    }

    #[test]
    fn p3_ties_on_opened_at_break_on_stream_id_not_hash_order() {
        // Two streams opened at the same instant, driven past the cap:
        // the tie breaks on the stream id, so every one of 32 builds
        // drops and sends alike.
        let run = |oldest_first: bool| {
            let mut r = rig_cfg(
                NetOutConfig {
                    p3_oldest_first: oldest_first,
                    ..NetOutConfig::new(TxMode::NonInterleaved, 4)
                },
                1_000_000,
            );
            let pool = r.pool.clone();
            let slab = r.slab.clone();
            let vtx = r.video_tx.clone();
            r.sim.spawn("feed", async move {
                for _ in 0..10 {
                    for stream in [10, 20] {
                        vtx.send(msg(&pool, &slab, stream, video_seg(5_000), 7))
                            .await
                            .unwrap();
                    }
                }
            });
            let order = Rc::new(RefCell::new(Vec::new()));
            let o = order.clone();
            let rx = r.wire_rx;
            r.sim.spawn("wire", async move {
                while let Ok(c) = rx.recv().await {
                    if c.last {
                        o.borrow_mut().push(c.vci);
                    }
                }
            });
            r.sim.run_until_idle();
            let drops = [10, 20].map(|s| r.stats.p3_drops(StreamId(s)));
            assert!(drops[0] + drops[1] > 0, "the cap never engaged");
            let order = order.borrow().clone();
            (drops, order)
        };
        for oldest_first in [true, false] {
            let first = run(oldest_first);
            for build in 1..32 {
                assert_eq!(
                    run(oldest_first),
                    first,
                    "build {build}, oldest_first={oldest_first}"
                );
            }
        }
    }

    #[test]
    fn cell_loss_discards_frame_and_reports() {
        let mut sim = Simulation::new();
        let spawner = sim.spawner();
        let pool = Pool::new(64);
        let (cell_tx, cell_rx) = channel::<Cell>();
        let (sw_tx, sw_rx) = channel::<SegMsg>();
        let (rep_tx, rep_rx) = unbounded::<Report>();
        let stats = spawn_net_in(
            &spawner,
            "t",
            cell_rx,
            sw_tx,
            pool.clone(),
            ByteSlab::new(8, 4096),
            rep_tx,
            SimDuration::from_millis(1),
        );
        sim.spawn("feed", async move {
            // An intact first segment establishes the cell counter.
            let bytes = wire::encode(&audio_seg(0));
            for c in segment_to_cells(Vci(1), &bytes, 0) {
                cell_tx.send(c).await.unwrap();
            }
            // The second segment loses its first cell — a detectable gap.
            let bytes = wire::encode(&audio_seg(1));
            let mut cells = segment_to_cells(Vci(1), &bytes, 2);
            cells.remove(0);
            for c in cells {
                cell_tx.send(c).await.unwrap();
            }
            // A clean follow-up segment.
            let bytes = wire::encode(&audio_seg(2));
            for c in segment_to_cells(Vci(1), &bytes, 4) {
                cell_tx.send(c).await.unwrap();
            }
        });
        let n = Rc::new(std::cell::Cell::new(0));
        let nn = n.clone();
        let pool2 = pool.clone();
        sim.spawn("switch", async move {
            while let Ok(m) = sw_rx.recv().await {
                nn.set(nn.get() + 1);
                pool2.release(m.desc);
            }
        });
        sim.run_until_idle();
        assert_eq!(n.get(), 2, "only the intact segments arrive");
        assert_eq!(stats.frames_discarded(), 1);
        assert!(rep_rx.try_recv().is_some(), "cell-loss report expected");
    }
}
