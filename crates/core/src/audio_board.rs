//! The audio board: block handler, server writer, clawback mixing (§3.5,
//! §3.7, §4.2, §4.3).
//!
//! Outgoing: the codec fills a FIFO; every 2 ms the event pin fires and the
//! block handler takes a 16-byte block, applies the muting table to it,
//! and hands grouped blocks to the server-writer process for transmission
//! to the server board. Incoming: segments from the server are split into
//! blocks and fed to per-stream clawback buffers; a 2 ms mixing tick reads
//! one block from each active buffer, mixes, and drives the speaker codec.
//! CPU time for every step is charged to the audio transputer per the
//! calibrated [`pandora_audio::CpuProfile`], so the §4.2 capacities (5
//! plain / 3 full streams) are emergent.

use std::cell::RefCell;
use std::rc::Rc;

use pandora_audio::{
    gen::Signal, mix_blocks, segment_blocks, Block, Concealer, Concealment, CpuProfile, Muting,
    SegmentAssembler,
};
use pandora_buffers::{ClawbackBank, ClawbackConfig, ClawbackPool, ReportClass, Reporter};
use pandora_metrics::{Histogram, JitterTracker};
use pandora_segment::{
    AudioSegment, SeqEvent, SeqTracker, StreamId, Timestamp, BLOCK_DURATION_NANOS,
};
use pandora_sim::{
    drifted_tick, ticker, Cpu, Priority, Receiver, Sender, SimDuration, SimTime, Spawner,
};

/// CPU claim priority of the outgoing (capture) path. Principle 1: "under
/// overload, incoming data streams should be degraded before outgoing data
/// streams" — the outgoing block handler outranks the incoming mix
/// (which claims at [`pandora_sim::PRIO_OUTPUT`]).
pub const PRIO_OUTGOING: pandora_sim::ClaimPriority = 13;

/// A 2 ms block tagged with its source timestamp, as it travels through
/// the playback path.
#[derive(Debug, Clone, Copy)]
pub struct TimedBlock {
    /// The µ-law samples.
    pub block: Block,
    /// Source timestamp in source-boot-relative nanoseconds.
    pub ts_nanos: u64,
}

/// Configuration of the outgoing (microphone) path.
pub struct CaptureConfig {
    /// The microphone signal.
    pub signal: Box<dyn Signal>,
    /// Blocks grouped per segment (1 / 2 / 12; default 2).
    pub blocks_per_segment: usize,
    /// Crystal drift of this box's codec clock.
    pub drift: f64,
    /// Per-block CPU cost of the outgoing path.
    pub outgoing_cost: SimDuration,
    /// Depth of the codec FIFO in blocks before overrun.
    pub fifo_depth: usize,
}

/// Statistics of the capture path.
#[derive(Clone, Default)]
pub struct CaptureStats {
    inner: Rc<RefCell<CaptureInner>>,
}

#[derive(Default)]
struct CaptureInner {
    blocks: u64,
    segments: u64,
    dropped_busy: u64,
}

impl CaptureStats {
    /// Blocks taken from the codec FIFO.
    pub fn blocks(&self) -> u64 {
        self.inner.borrow().blocks
    }

    /// Segments handed to the server writer.
    pub fn segments(&self) -> u64 {
        self.inner.borrow().segments
    }

    /// Segments dropped because the server writer was still busy and its
    /// decoupling slot was full.
    pub fn dropped_busy(&self) -> u64 {
        self.inner.borrow().dropped_busy
    }
}

/// Spawns the microphone → server capture path.
///
/// Emits segments on `out`; the muting state (shared with playback) scales
/// the microphone blocks (§4.3: the stream is muted *after* the speaker
/// threshold detection, with ≥4 ms in hand).
pub fn spawn_audio_capture(
    spawner: &Spawner,
    name: &str,
    mut config: CaptureConfig,
    muting: Option<Rc<RefCell<Muting>>>,
    cpu: Cpu,
    out: Sender<AudioSegment>,
) -> CaptureStats {
    let stats = CaptureStats::default();
    let s = stats.clone();
    let (tick_rx, _tick_handle) = ticker(
        spawner,
        &format!("{name}:codec-in"),
        SimDuration::from_nanos(BLOCK_DURATION_NANOS),
        config.fifo_depth,
        config.drift,
    );
    // The server writer: "implemented as a separate process to allow some
    // concurrency in case the Server is busy" (§3.5). One segment of
    // decoupling; if it is still occupied the block handler drops.
    let (writer_tx, writer_rx) = pandora_sim::buffered::<AudioSegment>(1);
    let writer_name = format!("audio:{name}:server-writer");
    spawner.spawn_prio(&writer_name, Priority::High, async move {
        while let Ok(seg) = writer_rx.recv().await {
            if out.send(seg).await.is_err() {
                return;
            }
        }
    });
    let handler_name = format!("audio:{name}:block-handler");
    spawner.spawn(&handler_name, async move {
        let mut assembler = SegmentAssembler::new(config.blocks_per_segment);
        while let Ok(tick) = tick_rx.recv().await {
            // Drain the whole codec FIFO backlog under one claim: the
            // transputer's high-priority block handler preempts; in this
            // non-preemptive model the batch claim gives the same
            // guarantee (Principle 1: outgoing data never starves).
            let mut ticks = vec![tick];
            while let Some(t) = tick_rx.try_recv() {
                ticks.push(t);
            }
            cpu.claim_prio(config.outgoing_cost.mul(ticks.len() as u64), PRIO_OUTGOING)
                .await;
            for tick in ticks {
                let raw = config.signal.next_block();
                let block = match &muting {
                    Some(m) => m.borrow().apply_mic(&raw),
                    None => raw,
                };
                s.inner.borrow_mut().blocks += 1;
                // Timestamp "derived from the Transputer clock as close as
                // possible to the data source": the tick time.
                let ts = Timestamp::from_nanos(tick.at.as_nanos());
                if let Some(seg) = assembler.push(block, ts) {
                    match writer_tx.try_send(seg) {
                        Ok(()) => s.inner.borrow_mut().segments += 1,
                        Err(_) => s.inner.borrow_mut().dropped_busy += 1,
                    }
                }
            }
        }
    });
    stats
}

/// Configuration of the incoming (speaker) path.
#[derive(Clone)]
pub struct PlaybackConfig {
    /// Clawback parameters.
    pub clawback: ClawbackConfig,
    /// Shared clawback pool size in blocks.
    pub pool_blocks: usize,
    /// Whether jitter correction cost is charged (the "straightforward
    /// case" of §4.2 charges mixing only).
    pub charge_clawback: bool,
    /// Whether the muting scan cost is charged.
    pub charge_muting: bool,
    /// Whether the interface-code overhead is charged.
    pub charge_interface: bool,
    /// CPU cost profile.
    pub costs: CpuProfile,
    /// Crystal drift of this box's playback clock.
    pub drift: f64,
    /// Maximum blocks concealed (replay-last) per detected gap (§3.8:
    /// "we replay the last 2ms block, and try to ensure that it does not
    /// happen frequently").
    pub conceal_cap_blocks: usize,
    /// Keep the mixed output blocks for offline quality analysis.
    pub record_output: bool,
    /// Depth of the codec *output* FIFO in nanoseconds. §4.2 accounts
    /// "4ms … in the buffering to the codec" on the paper's measured 8 ms
    /// best one-way trip; mixed blocks sit this long before they sound.
    pub codec_output_fifo_ns: u64,
    /// Principle 1: claim the mix's CPU time at
    /// [`pandora_sim::PRIO_OUTPUT`]; when `false` the mix competes at
    /// normal priority (the conformance-suite ablation).
    pub output_priority: bool,
}

impl Default for PlaybackConfig {
    fn default() -> Self {
        PlaybackConfig {
            clawback: ClawbackConfig::default(),
            pool_blocks: 2_000,
            charge_clawback: true,
            charge_muting: true,
            charge_interface: true,
            costs: CpuProfile::default(),
            drift: 0.0,
            conceal_cap_blocks: 6,
            record_output: false,
            codec_output_fifo_ns: 4_000_000,
            output_priority: true,
        }
    }
}

/// Shared view of the playback path — the speaker-side instrumentation.
#[derive(Clone)]
pub struct SpeakerSink {
    inner: Rc<RefCell<SpeakerInner>>,
}

struct SpeakerInner {
    /// Mix ticks processed.
    ticks: u64,
    /// Ticks completed after their deadline (CPU overload indicator).
    late_ticks: u64,
    /// Latency from source timestamp to mix, per delivered block.
    latency: Histogram,
    /// Per-stream segment arrival jitter.
    jitter: std::collections::BTreeMap<StreamId, JitterTracker>,
    /// Per-stream sequence trackers.
    seq: std::collections::BTreeMap<StreamId, SeqTracker>,
    /// Blocks concealed by replay.
    concealed: u64,
    /// Current clawback delay per stream (ns), sampled each tick.
    delay_series: pandora_metrics::TimeSeries,
    /// Active stream count per tick (for capacity experiments).
    max_active: usize,
    /// Recorded mixer output.
    output: Vec<Block>,
    /// Aggregate clawback stats snapshot (updated each tick).
    clawback_stats: pandora_buffers::ClawbackStats,
    segments_in: u64,
    /// P8 local adaptation: while set, the mix output is silence. Audio
    /// is muted, never degraded (Principle 2) — sustained loss sounds
    /// worse than silence, so the health monitor flips this instead of
    /// thinning the stream.
    muted: bool,
    /// Ticks mixed to silence while muted.
    muted_ticks: u64,
}

impl SpeakerSink {
    fn new() -> Self {
        SpeakerSink {
            inner: Rc::new(RefCell::new(SpeakerInner {
                ticks: 0,
                late_ticks: 0,
                latency: Histogram::new(),
                jitter: Default::default(),
                seq: Default::default(),
                concealed: 0,
                delay_series: pandora_metrics::TimeSeries::new("clawback_delay"),
                max_active: 0,
                output: Vec::new(),
                clawback_stats: Default::default(),
                segments_in: 0,
                muted: false,
                muted_ticks: 0,
            })),
        }
    }

    /// Mix ticks processed.
    pub fn ticks(&self) -> u64 {
        self.inner.borrow().ticks
    }

    /// Ticks that finished after their 2 ms deadline.
    pub fn late_ticks(&self) -> u64 {
        self.inner.borrow().late_ticks
    }

    /// Fraction of ticks that were late.
    pub fn late_fraction(&self) -> f64 {
        let i = self.inner.borrow();
        if i.ticks == 0 {
            0.0
        } else {
            i.late_ticks as f64 / i.ticks as f64
        }
    }

    /// Block latency distribution (source timestamp → mix), nanoseconds.
    pub fn latency_ns(&self) -> Histogram {
        self.inner.borrow().latency.clone()
    }

    /// Segment arrival jitter for one stream.
    pub fn jitter_of(&self, stream: StreamId) -> Option<JitterTracker> {
        self.inner.borrow().jitter.get(&stream).cloned()
    }

    /// Segments lost according to sequence tracking, summed over streams.
    pub fn segments_lost(&self) -> u64 {
        self.inner.borrow().seq.values().map(|t| t.lost()).sum()
    }

    /// Segments received, summed over streams.
    pub fn segments_received(&self) -> u64 {
        self.inner.borrow().segments_in
    }

    /// Blocks concealed by replay-last.
    pub fn concealed(&self) -> u64 {
        self.inner.borrow().concealed
    }

    /// The clawback delay trace of the (single) monitored stream.
    pub fn delay_series(&self) -> pandora_metrics::TimeSeries {
        self.inner.borrow().delay_series.clone()
    }

    /// Largest simultaneous active stream count seen.
    pub fn max_active_streams(&self) -> usize {
        self.inner.borrow().max_active
    }

    /// The recorded mixer output (empty unless `record_output`).
    pub fn output(&self) -> Vec<Block> {
        self.inner.borrow().output.clone()
    }

    /// Aggregate clawback statistics.
    pub fn clawback_stats(&self) -> pandora_buffers::ClawbackStats {
        self.inner.borrow().clawback_stats
    }

    /// Engages or releases the P8 audio mute. While muted the playback
    /// task keeps its 2 ms cadence (segments are still tracked, so loss
    /// statistics and recovery detection keep working) but mixes
    /// silence.
    pub fn set_muted(&self, muted: bool) {
        self.inner.borrow_mut().muted = muted;
    }

    /// Whether the P8 mute is currently engaged.
    pub fn muted(&self) -> bool {
        self.inner.borrow().muted
    }

    /// Ticks mixed to silence while muted.
    pub fn muted_ticks(&self) -> u64 {
        self.inner.borrow().muted_ticks
    }

    /// Per-stream `(stream, received, lost)` counters from sequence
    /// tracking, in ascending stream order (deterministic) — the health
    /// monitor's sampling surface.
    pub fn stream_stats(&self) -> Vec<(StreamId, u64, u64)> {
        let i = self.inner.borrow();
        let mut out: Vec<(StreamId, u64, u64)> = i
            .seq
            .iter()
            .map(|(&s, t)| (s, t.received(), t.lost()))
            .collect();
        out.sort_by_key(|&(s, _, _)| s.0);
        out
    }
}

/// Spawns the server → speaker playback path.
///
/// `segments` delivers `(stream, segment)` pairs from the server board;
/// the task mixes every 2 ms and exposes everything through the returned
/// [`SpeakerSink`], and reports gaps and clawback overflows on the log of
/// `reports`.
pub fn spawn_audio_playback(
    spawner: &Spawner,
    name: &str,
    config: PlaybackConfig,
    muting: Option<Rc<RefCell<Muting>>>,
    cpu: Cpu,
    segments: Receiver<(StreamId, AudioSegment)>,
    reports: &Reporter,
) -> SpeakerSink {
    let sink = SpeakerSink::new();
    let s = sink.clone();
    let proc_name = format!("audio:{name}:playback");
    let mut reports = reports.named(&proc_name);
    spawner.spawn(&proc_name, async move {
        let pool = ClawbackPool::new(config.pool_blocks);
        let mut bank: ClawbackBank<TimedBlock> = ClawbackBank::new(config.clawback, pool);
        let mut concealers: std::collections::BTreeMap<StreamId, Concealer> = Default::default();
        let start = pandora_sim::now();
        let mut tick_no: u64 = 0;
        loop {
            tick_no += 1;
            let deadline = drifted_tick(
                start,
                SimDuration::from_nanos(BLOCK_DURATION_NANOS),
                config.drift,
                tick_no,
            );
            // Between ticks, accept arriving segments (PRI: the tick timer
            // is modelled by the deadline on the ALT).
            loop {
                match pandora_sim::recv_deadline(&segments, deadline).await {
                    Some(Ok((stream, seg))) => {
                        handle_segment(
                            &mut bank,
                            &mut concealers,
                            &s,
                            &config,
                            stream,
                            seg,
                            &mut reports,
                        );
                    }
                    Some(Err(_)) => return,
                    None => break, // Tick time.
                }
            }
            // The 2ms mix.
            let active = bank.active_streams();
            let mut cost = active as u64 * config.costs.mix_per_stream_ns;
            if config.charge_clawback {
                cost += active as u64 * config.costs.clawback_per_stream_ns;
            }
            if config.charge_muting {
                cost += config.costs.muting_per_block_ns;
            }
            if config.charge_interface {
                cost += config.costs.interface_per_tick_ns;
            }
            if cost > 0 {
                let prio = if config.output_priority {
                    pandora_sim::PRIO_OUTPUT
                } else {
                    pandora_sim::PRIO_NORMAL
                };
                cpu.claim_prio(SimDuration::from_nanos(cost), prio).await;
            }
            let mixed_inputs = bank.mix_tick();
            let now = pandora_sim::now();
            {
                let mut i = s.inner.borrow_mut();
                i.ticks += 1;
                i.max_active = i.max_active.max(active);
                // The mix for tick n must complete within the block period
                // (before the codec drains the FIFO entry): it is late when
                // it finishes materially past `deadline + 2ms`.
                let lag = now
                    .as_nanos()
                    .saturating_sub(deadline.as_nanos() + BLOCK_DURATION_NANOS);
                if lag > BLOCK_DURATION_NANOS / 4 {
                    i.late_ticks += 1;
                }
                for (_, tb) in &mixed_inputs {
                    // End-to-end to the loudspeaker: mix time minus source
                    // timestamp, plus the codec output FIFO residence.
                    i.latency.record(
                        (now.as_nanos().saturating_sub(tb.ts_nanos) + config.codec_output_fifo_ns)
                            as f64,
                    );
                }
                if let Some((sid, _)) = mixed_inputs.first() {
                    let d = bank.delay_nanos(*sid).unwrap_or(0);
                    i.delay_series.push(now.as_nanos(), d as f64);
                }
                i.clawback_stats = bank.total_stats();
            }
            let blocks: Vec<Block> = mixed_inputs.iter().map(|(_, tb)| tb.block).collect();
            let muted = {
                let mut i = s.inner.borrow_mut();
                if i.muted {
                    i.muted_ticks += 1;
                }
                i.muted
            };
            // P8 mute: keep the cadence, silence the output (Principle
            // 2 — audio is muted, never degraded).
            let mixed = if muted {
                mix_blocks(std::iter::empty::<&Block>())
            } else {
                mix_blocks(blocks.iter())
            };
            if let Some(m) = &muting {
                m.borrow_mut().observe_speaker(&mixed);
            }
            if config.record_output {
                s.inner.borrow_mut().output.push(mixed);
            }
        }
    });
    sink
}

fn handle_segment(
    bank: &mut ClawbackBank<TimedBlock>,
    concealers: &mut std::collections::BTreeMap<StreamId, Concealer>,
    sink: &SpeakerSink,
    config: &PlaybackConfig,
    stream: StreamId,
    seg: AudioSegment,
    reports: &mut Reporter,
) {
    let now = pandora_sim::now();
    {
        let mut i = sink.inner.borrow_mut();
        i.segments_in += 1;
        let duration = seg.duration_nanos().max(BLOCK_DURATION_NANOS);
        i.jitter
            .entry(stream)
            .or_insert_with(|| JitterTracker::new(duration))
            .arrival(now.as_nanos());
    }
    // Loss detection by sequence number (§3.8) with replay-last
    // concealment, capped.
    let event = {
        let mut i = sink.inner.borrow_mut();
        i.seq
            .entry(stream)
            .or_default()
            .observe(seg.common.sequence)
    };
    let concealer = concealers
        .entry(stream)
        .or_insert_with(|| Concealer::new(Concealment::RepeatLast));
    if let SeqEvent::Gap { missing } = event {
        let blocks_missing = missing as usize * seg.block_count();
        let conceal = blocks_missing.min(config.conceal_cap_blocks);
        for k in 0..conceal {
            let block = concealer.conceal();
            sink.inner.borrow_mut().concealed += 1;
            let ts = seg
                .common
                .timestamp
                .as_nanos()
                .saturating_sub((conceal - k) as u64 * BLOCK_DURATION_NANOS);
            let _ = bank.arrival(
                stream,
                TimedBlock {
                    block,
                    ts_nanos: ts,
                },
            );
        }
        reports.report(
            &format!("gap:{stream}"),
            ReportClass::Error,
            format_args!("{stream}: {missing} segment(s) lost, concealed {conceal} block(s)"),
        );
    }
    if event == SeqEvent::Stale {
        return;
    }
    let base_ts = seg.common.timestamp.as_nanos();
    for (k, block) in segment_blocks(&seg).into_iter().enumerate() {
        concealer.deliver(block);
        let outcome = bank.arrival(
            stream,
            TimedBlock {
                block,
                ts_nanos: base_ts + k as u64 * BLOCK_DURATION_NANOS,
            },
        );
        if outcome == pandora_buffers::Arrival::OverLimit {
            reports.report(
                &format!("overlimit:{stream}"),
                ReportClass::Fault,
                format_args!("{stream}: clawback buffer at 120ms cap, dropping"),
            );
        }
    }
}

/// Convenience: a playback rig fed directly by generated segments — used
/// by unit tests and the capacity benches (no server board involved).
pub struct DirectFeed {
    /// Send `(stream, segment)` pairs here.
    pub tx: Sender<(StreamId, AudioSegment)>,
}

/// Spawns a generator task producing `n_streams` synthetic audio streams
/// at the nominal rate into `tx`, each as `blocks_per_segment`-block
/// segments, for `duration`.
pub fn spawn_stream_generators(
    spawner: &Spawner,
    tx: Sender<(StreamId, AudioSegment)>,
    n_streams: usize,
    blocks_per_segment: usize,
    duration: SimTime,
) {
    for k in 0..n_streams {
        let tx = tx.clone();
        spawner.spawn(&format!("gen:{k}"), async move {
            let mut signal = pandora_audio::gen::Tone::new(200.0 + 50.0 * k as f64, 6_000.0);
            let mut asm = SegmentAssembler::new(blocks_per_segment);
            let period = SimDuration::from_nanos(BLOCK_DURATION_NANOS);
            let mut n: u64 = 0;
            loop {
                n += 1;
                let at = SimTime::ZERO + period.mul(n);
                if at > duration {
                    return;
                }
                pandora_sim::delay_until(at).await;
                let ts = Timestamp::from_nanos(at.as_nanos());
                if let Some(seg) = asm.push(signal.next_block(), ts) {
                    if tx.send((StreamId(k as u32 + 1), seg)).await.is_err() {
                        return;
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_audio::MutingConfig;
    use pandora_buffers::Report;
    use pandora_sim::{channel, unbounded, Simulation};

    fn playback_rig(
        config: PlaybackConfig,
    ) -> (
        Simulation,
        Sender<(StreamId, AudioSegment)>,
        SpeakerSink,
        Cpu,
    ) {
        let sim = Simulation::new();
        let cpu = Cpu::new("audio", SimDuration::from_nanos(700));
        let (tx, rx) = channel::<(StreamId, AudioSegment)>();
        let (rep_tx, _rep_rx) = unbounded::<Report>();
        let sink = spawn_audio_playback(
            &sim.spawner(),
            "t",
            config,
            None,
            cpu.clone(),
            rx,
            &Reporter::new(rep_tx, "rig", SimDuration::from_millis(100)),
        );
        (sim, tx, sink, cpu)
    }

    #[test]
    fn three_full_streams_meet_deadlines() {
        // E1 calibration check: 3 streams on the full path never miss.
        let (mut sim, tx, sink, _cpu) = playback_rig(PlaybackConfig::default());
        spawn_stream_generators(&sim.spawner(), tx, 3, 2, SimTime::from_secs(2));
        sim.run_until(SimTime::from_secs(2));
        assert!(sink.ticks() > 900);
        assert_eq!(
            sink.late_ticks(),
            0,
            "late: {}/{}",
            sink.late_ticks(),
            sink.ticks()
        );
        assert_eq!(sink.max_active_streams(), 3);
    }

    #[test]
    fn five_full_streams_overload() {
        // 5 streams with clawback+muting+interface exceed the 2ms budget.
        let (mut sim, tx, sink, _cpu) = playback_rig(PlaybackConfig::default());
        spawn_stream_generators(&sim.spawner(), tx, 5, 2, SimTime::from_secs(2));
        sim.run_until(SimTime::from_secs(2));
        assert!(
            sink.late_fraction() > 0.3,
            "expected heavy lateness, got {}",
            sink.late_fraction()
        );
    }

    #[test]
    fn five_plain_streams_fit() {
        // The "straightforward case": mixing only.
        let config = PlaybackConfig {
            charge_clawback: false,
            charge_muting: false,
            charge_interface: false,
            ..PlaybackConfig::default()
        };
        let (mut sim, tx, sink, _cpu) = playback_rig(config);
        spawn_stream_generators(&sim.spawner(), tx, 5, 2, SimTime::from_secs(2));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(
            sink.late_ticks(),
            0,
            "late: {}/{}",
            sink.late_ticks(),
            sink.ticks()
        );
    }

    #[test]
    fn six_plain_streams_overload() {
        let config = PlaybackConfig {
            charge_clawback: false,
            charge_muting: false,
            charge_interface: false,
            ..PlaybackConfig::default()
        };
        let (mut sim, tx, sink, _cpu) = playback_rig(config);
        spawn_stream_generators(&sim.spawner(), tx, 6, 2, SimTime::from_secs(2));
        sim.run_until(SimTime::from_secs(2));
        assert!(sink.late_fraction() > 0.3, "got {}", sink.late_fraction());
    }

    #[test]
    fn latency_close_to_buffering_minimum() {
        // One stream, no jitter: latency ≈ segment accumulation (2 blocks)
        // plus the clawback queue — single-digit milliseconds.
        let (mut sim, tx, sink, _cpu) = playback_rig(PlaybackConfig::default());
        spawn_stream_generators(&sim.spawner(), tx, 1, 2, SimTime::from_secs(2));
        sim.run_until(SimTime::from_secs(2));
        let mut lat = sink.latency_ns();
        assert!(lat.count() > 500);
        let p50_ms = lat.percentile(50.0) / 1e6;
        assert!(p50_ms < 10.0, "p50 latency {p50_ms}ms");
    }

    #[test]
    fn p8_mute_keeps_cadence_and_silences_output() {
        let config = PlaybackConfig {
            record_output: true,
            ..PlaybackConfig::default()
        };
        let (mut sim, tx, sink, _cpu) = playback_rig(config);
        spawn_stream_generators(&sim.spawner(), tx, 1, 2, SimTime::from_secs(2));
        sim.run_until(SimTime::from_secs(1));
        let ticks_before = sink.ticks();
        assert_eq!(sink.muted_ticks(), 0);
        let loud_before = sink
            .output()
            .iter()
            .any(|b| *b != mix_blocks(std::iter::empty::<&Block>()));
        assert!(loud_before, "tone should be audible before the mute");
        sink.set_muted(true);
        sim.run_until(SimTime::from_secs(2));
        assert!(sink.ticks() > ticks_before + 400, "cadence must continue");
        assert!(sink.muted_ticks() > 400);
        let silence = mix_blocks(std::iter::empty::<&Block>());
        let tail = sink.output();
        assert!(
            tail[tail.len() - 100..].iter().all(|b| *b == silence),
            "muted ticks must mix silence"
        );
        // Loss statistics keep flowing while muted (detection intact).
        let stats = sink.stream_stats();
        assert_eq!(stats.len(), 1);
        assert!(stats[0].1 > 400, "received counter must keep counting");
        sink.set_muted(false);
        assert!(!sink.muted());
    }

    #[test]
    fn capture_groups_blocks_into_segments() {
        let mut sim = Simulation::new();
        let cpu = Cpu::new("audio", SimDuration::ZERO);
        let (tx, rx) = channel::<AudioSegment>();
        let stats = spawn_audio_capture(
            &sim.spawner(),
            "t",
            CaptureConfig {
                signal: Box::new(pandora_audio::gen::Tone::new(440.0, 8_000.0)),
                blocks_per_segment: 2,
                drift: 0.0,
                outgoing_cost: SimDuration::from_micros(250),
                fifo_depth: 16,
            },
            None,
            cpu,
            tx,
        );
        let n = Rc::new(std::cell::Cell::new(0u64));
        let nn = n.clone();
        sim.spawn("sink", async move {
            while let Ok(seg) = rx.recv().await {
                assert_eq!(seg.block_count(), 2);
                nn.set(nn.get() + 1);
            }
        });
        sim.run_until(SimTime::from_millis(100));
        // 100ms = 50 blocks = 25 segments (minus pipeline warmup).
        assert!((23..=25).contains(&n.get()), "segments {}", n.get());
        assert_eq!(stats.dropped_busy(), 0);
    }

    #[test]
    fn muting_couples_speaker_to_mic() {
        // A loud incoming stream must duck the outgoing microphone.
        let mut sim = Simulation::new();
        let cpu = Cpu::new("audio", SimDuration::from_nanos(700));
        let muting = Rc::new(RefCell::new(Muting::new(MutingConfig::default())));
        let (seg_tx, seg_rx) = channel::<(StreamId, AudioSegment)>();
        let (rep_tx, _rep_rx) = unbounded::<Report>();
        let _sink = spawn_audio_playback(
            &sim.spawner(),
            "t",
            PlaybackConfig::default(),
            Some(muting.clone()),
            cpu.clone(),
            seg_rx,
            &Reporter::new(rep_tx, "rig", SimDuration::from_millis(100)),
        );
        // Loud far-end audio.
        let tx2 = seg_tx.clone();
        sim.spawn("loud", async move {
            let mut sig = pandora_audio::gen::Tone::new(300.0, 20_000.0);
            let mut asm = SegmentAssembler::new(2);
            for n in 1..500u64 {
                pandora_sim::delay_until(SimTime::from_nanos(n * BLOCK_DURATION_NANOS)).await;
                let ts = Timestamp::from_nanos(pandora_sim::now().as_nanos());
                if let Some(seg) = asm.push(sig.next_block(), ts) {
                    if tx2.send((StreamId(1), seg)).await.is_err() {
                        return;
                    }
                }
            }
        });
        // Outgoing mic with muting applied.
        let (mic_tx, mic_rx) = channel::<AudioSegment>();
        let _cstats = spawn_audio_capture(
            &sim.spawner(),
            "t",
            CaptureConfig {
                signal: Box::new(pandora_audio::gen::Tone::new(440.0, 10_000.0)),
                blocks_per_segment: 2,
                drift: 0.0,
                outgoing_cost: SimDuration::from_micros(250),
                fifo_depth: 16,
            },
            Some(muting),
            cpu,
            mic_tx,
        );
        let peaks = Rc::new(RefCell::new(Vec::new()));
        let p = peaks.clone();
        sim.spawn("mic-sink", async move {
            while let Ok(seg) = mic_rx.recv().await {
                let peak = segment_blocks(&seg)
                    .iter()
                    .map(|b| b.peak())
                    .max()
                    .unwrap_or(0);
                p.borrow_mut().push(peak);
            }
        });
        sim.run_until(SimTime::from_millis(400));
        let peaks = peaks.borrow();
        assert!(peaks.len() > 50);
        // Early segments (before the far-end stream warms up) are louder
        // than the steady-state ducked ones.
        let late_avg: i64 = peaks[peaks.len() - 20..]
            .iter()
            .map(|&v| v as i64)
            .sum::<i64>()
            / 20;
        let full = pandora_audio::mulaw::decode(pandora_audio::mulaw::encode(10_000));
        assert!(
            (late_avg as i32) < full / 2,
            "mic not ducked: late {late_avg} vs full {full}"
        );
    }

    #[test]
    fn gap_triggers_concealment_and_report() {
        let mut sim = Simulation::new();
        let cpu = Cpu::new("audio", SimDuration::from_nanos(700));
        let (tx, rx) = channel::<(StreamId, AudioSegment)>();
        let (rep_tx, rep_rx) = unbounded::<Report>();
        let sink = spawn_audio_playback(
            &sim.spawner(),
            "t",
            PlaybackConfig::default(),
            None,
            cpu,
            rx,
            &Reporter::new(rep_tx, "rig", SimDuration::from_millis(1)),
        );
        sim.spawn("feed", async move {
            let mut sig = pandora_audio::gen::Tone::new(440.0, 8_000.0);
            let mut asm = SegmentAssembler::new(2);
            let mut sent = 0u32;
            for n in 1..200u64 {
                pandora_sim::delay_until(SimTime::from_nanos(n * BLOCK_DURATION_NANOS)).await;
                let ts = Timestamp::from_nanos(pandora_sim::now().as_nanos());
                if let Some(seg) = asm.push(sig.next_block(), ts) {
                    sent += 1;
                    // Drop segments 20..22 (a 3-segment gap).
                    if (20..23).contains(&sent) {
                        continue;
                    }
                    if tx.send((StreamId(1), seg)).await.is_err() {
                        return;
                    }
                }
            }
        });
        sim.run_until(SimTime::from_millis(500));
        assert_eq!(sink.segments_lost(), 3);
        assert!(sink.concealed() > 0, "no concealment");
        assert!(sink.concealed() <= 6, "cap exceeded: {}", sink.concealed());
        let reports = rep_rx.try_recv();
        assert!(reports.is_some(), "no gap report");
    }

    /// One hostile segment: sequence, timestamp, whole blocks, then mix
    /// ticks before the next.
    type Hostile = (u32, u32, usize, u32);

    fn hostile_segments(t: &mut pandora_prop::Tape) -> Vec<Hostile> {
        use pandora_prop::Rng;
        let mut seq = t.gen_range(0..=u32::MAX);
        (0..1_000)
            .map(|_| {
                seq = match t.gen_range(0..10u8) {
                    0..=4 => seq.wrapping_add(1),
                    5 => seq.wrapping_add(t.gen_range(2..40u32)),
                    6 => seq.wrapping_sub(t.gen_range(0..8u32)),
                    7 => seq.wrapping_add((1 << 31) - t.gen_range(0..2u32)),
                    8 => u32::MAX - t.gen_range(0..3u32),
                    _ => t.gen_range(0..=u32::MAX),
                };
                let ts = match t.gen_range(0..4u8) {
                    0 => u32::MAX - t.gen_range(0..4u32),
                    1 => t.gen_range(0..4u32),
                    _ => t.gen_range(0..=u32::MAX),
                };
                (seq, ts, t.gen_range(0..=16), t.gen_range(0..4))
            })
            .collect()
    }

    /// Segments as a hostile or broken sender could make them, into one
    /// stream: no panic with overflow checks on, at most
    /// `conceal_cap_blocks` concealed per call, no stream buffered past
    /// the clawback cap, and every call counted once, received or stale.
    #[test]
    fn hostile_segments_are_concealed_capped_and_counted() {
        let config = PlaybackConfig::default();
        let cap_ns = config.clawback.per_stream_limit_blocks as u64 * BLOCK_DURATION_NANOS;
        pandora_prop::check("hostile_audio", 1, 100, hostile_segments, |segments| {
            let mut sim = Simulation::new();
            let segments = segments.clone();
            let config = config.clone();
            let done = Rc::new(std::cell::Cell::new(false));
            let finished = done.clone();
            sim.spawn("sweep", async move {
                let (rep_tx, _rep_rx) = unbounded::<Report>();
                let mut reports = Reporter::new(rep_tx, "sweep", SimDuration::from_millis(1));
                let sink = SpeakerSink::new();
                let mut bank = ClawbackBank::new(config.clawback, ClawbackPool::new(2_000));
                let mut concealers = Default::default();
                let stream = StreamId(7);
                for (calls, (seq, ts, blocks, ticks)) in (1..).zip(segments) {
                    let seg = AudioSegment::from_blocks(
                        pandora_segment::SequenceNumber(seq),
                        Timestamp(ts),
                        vec![0x55; blocks * pandora_segment::BLOCK_BYTES],
                    );
                    let concealed = sink.concealed();
                    handle_segment(
                        &mut bank,
                        &mut concealers,
                        &sink,
                        &config,
                        stream,
                        seg,
                        &mut reports,
                    );
                    let gap = sink.concealed() - concealed;
                    assert!(gap <= config.conceal_cap_blocks as u64, "{gap} concealed");
                    for _ in 0..ticks {
                        bank.mix_tick();
                    }
                    let held = bank.delay_nanos(stream).unwrap_or(0);
                    assert!(held <= cap_ns, "{held} ns held");
                    {
                        let i = sink.inner.borrow();
                        let tracker = &i.seq[&stream];
                        assert_eq!(tracker.received() + tracker.stale(), calls);
                        assert_eq!(i.segments_in, calls);
                    }
                    pandora_sim::delay(SimDuration::from_micros(u64::from(ticks) * 500)).await;
                }
                finished.set(true);
            });
            sim.run_until_idle();
            assert!(done.get(), "the sweep stopped early");
        });
    }

    #[test]
    fn arrival_jitter_measured() {
        let (mut sim, tx, sink, _cpu) = playback_rig(PlaybackConfig::default());
        spawn_stream_generators(&sim.spawner(), tx, 1, 2, SimTime::from_secs(1));
        sim.run_until(SimTime::from_secs(1));
        let j = sink.jitter_of(StreamId(1)).expect("tracker");
        assert!(j.count() > 200);
        // Direct feed: essentially no jitter.
        assert!(j.peak_to_peak() < 100_000.0, "p2p {}", j.peak_to_peak());
    }
}
