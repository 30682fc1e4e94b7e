//! Experiments E1–E3, E13, E17: audio capacity, link capacity, latency.

use pandora::audio_board::{spawn_audio_playback, spawn_stream_generators, PlaybackConfig};
use pandora::pandora_box::{connect_pair, open_audio_shout};
use pandora::BoxConfig;
use pandora_atm::{segment_to_cells, HopConfig, Vci};
use pandora_audio::gen::Tone;
use pandora_buffers::{Report, Reporter};
use pandora_metrics::Table;
use pandora_segment::{wire, AudioSegment, Segment, SequenceNumber, StreamId, Timestamp};
use pandora_sim::{channel, link, unbounded, Cpu, LinkConfig, SimDuration, SimTime, Simulation};

/// Result of the E1 capacity sweep.
pub struct AudioCapacityResult {
    /// Largest stream count with no late mix ticks on the plain path.
    pub plain_capacity: usize,
    /// Largest stream count with no late ticks on the full path
    /// (jitter correction + muting + outgoing stream + interface).
    pub full_capacity: usize,
    /// Audio-transputer context switches per virtual second at the full
    /// capacity point (E17; the paper says "probably around 5kHz").
    pub ctx_switch_hz: f64,
    /// The printable table.
    pub table: Table,
}

fn capacity_run(streams: usize, full: bool, seconds: u64) -> (f64, f64) {
    let mut sim = Simulation::new();
    let cpu = Cpu::new("audio", SimDuration::from_nanos(700));
    let (tx, rx) = channel::<(StreamId, AudioSegment)>();
    let (rep_tx, _rep_rx) = unbounded::<Report>();
    let config = PlaybackConfig {
        charge_clawback: full,
        charge_muting: full,
        charge_interface: full,
        ..PlaybackConfig::default()
    };
    let sink = spawn_audio_playback(
        &sim.spawner(),
        "cap",
        config,
        None,
        cpu.clone(),
        rx,
        &Reporter::new(rep_tx, "host", SimDuration::from_millis(500)),
    );
    if full {
        // The §4.2 full case includes "an outgoing stream": a capture path
        // claiming the same CPU.
        let (mic_tx, mic_rx) = channel::<AudioSegment>();
        pandora::audio_board::spawn_audio_capture(
            &sim.spawner(),
            "cap",
            pandora::audio_board::CaptureConfig {
                signal: Box::new(Tone::new(440.0, 8_000.0)),
                blocks_per_segment: 2,
                drift: 0.0,
                outgoing_cost: SimDuration::from_micros(250),
                fifo_depth: 16,
            },
            None,
            cpu.clone(),
            mic_tx,
        );
        sim.spawn(
            "mic-sink",
            async move { while mic_rx.recv().await.is_ok() {} },
        );
    }
    spawn_stream_generators(&sim.spawner(), tx, streams, 2, SimTime::from_secs(seconds));
    sim.run_until(SimTime::from_secs(seconds));
    let ctx_hz = sim.context_switches() as f64 / seconds as f64;
    (sink.late_fraction(), ctx_hz)
}

/// E1 (+E17): "The T425 transputer used on the audio board can mix five
/// audio streams in the straightforward case, but only three if we have
/// jitter correction, muting, an outgoing stream and the interface code
/// running at the same time" (§4.2).
pub fn audio_capacity() -> AudioCapacityResult {
    let mut table = Table::new(
        "T1 (§4.2): audio mixing capacity — late mix-tick fraction vs streams",
        &["streams", "plain late%", "full late%"],
    );
    let mut plain_capacity = 0;
    let mut full_capacity = 0;
    let mut ctx_at_full = 0.0;
    for n in 1..=8 {
        let (plain, _) = capacity_run(n, false, 3);
        let (full, ctx) = capacity_run(n, true, 3);
        if plain < 0.01 {
            plain_capacity = n;
        }
        if full < 0.01 {
            full_capacity = n;
            ctx_at_full = ctx;
        }
        table.row_owned(vec![
            n.to_string(),
            format!("{:.1}", plain * 100.0),
            format!("{:.1}", full * 100.0),
        ]);
    }
    AudioCapacityResult {
        plain_capacity,
        full_capacity,
        ctx_switch_hz: ctx_at_full,
        table,
    }
}

/// Result of the E2 link-capacity sweep.
pub struct LinkCapacityResult {
    /// Largest stream count the 20 Mbit/s link carried without backlog.
    pub capacity: usize,
    /// The printable table.
    pub table: Table,
}

fn link_run(streams: usize, seconds: u64) -> f64 {
    let mut sim = Simulation::new();
    let (tx, rx) = link::<pandora_atm::Cell>(&sim.spawner(), LinkConfig::new("srv", 20_000_000));
    let delivered = std::rc::Rc::new(std::cell::Cell::new(0u64));
    let d = delivered.clone();
    sim.spawn("sink", async move {
        while rx.recv().await.is_ok() {
            d.set(d.get() + 1);
        }
    });
    for k in 0..streams {
        let tx = tx.clone();
        sim.spawn(&format!("gen{k}"), async move {
            let seg = Segment::Audio(AudioSegment::from_blocks(
                SequenceNumber(0),
                Timestamp(0),
                vec![0u8; 32],
            ));
            let bytes = wire::encode(&seg);
            let mut n: u64 = 0;
            loop {
                n += 1;
                pandora_sim::delay_until(SimTime::from_nanos(n * 4_000_000)).await;
                for cell in segment_to_cells(Vci(k as u32), &bytes, 0) {
                    if tx.send(cell).await.is_err() {
                        return;
                    }
                }
            }
        });
    }
    sim.run_until(SimTime::from_secs(seconds));
    // Offered: 2 cells per 4ms per stream.
    let offered = (seconds * 1_000 / 4) * 2 * streams as u64;
    delivered.get() as f64 / offered as f64
}

/// E2: "The 20Mbit/s link to the server transputer is not a limiting
/// factor; it would be capable of taking 100 audio streams if we could
/// process them" (§4.2). With cell framing (68 B → 2 × 53 B cells) the
/// carrying capacity lands at ~94 streams.
pub fn link_capacity() -> LinkCapacityResult {
    let mut table = Table::new(
        "T2 (§4.2): 20 Mbit/s server-link audio capacity",
        &["streams", "carried fraction"],
    );
    let mut capacity = 0;
    for n in [25usize, 50, 75, 90, 94, 100, 110, 140] {
        let carried = link_run(n, 3);
        if carried > 0.995 {
            capacity = n;
        }
        table.row_owned(vec![n.to_string(), format!("{carried:.3}")]);
    }
    LinkCapacityResult { capacity, table }
}

/// Result of the E3/E13 latency experiment.
pub struct LatencyResult {
    /// One-way p50 latency (ns) for 1 / 2 / 12-block segments.
    pub p50_by_blocks: Vec<(usize, f64)>,
    /// Header overhead fraction by segment size.
    pub overhead_by_blocks: Vec<(usize, f64)>,
    /// The printable table.
    pub table: Table,
}

/// E3 + E13: one-way mic → speaker latency vs blocks-per-segment over a
/// quiet network. The paper's best trip was 8 ms, with "4ms of this …
/// buffering to the codec, and 2ms in the buffering from the codec"
/// (§4.2); §3.2 motivates 2-block segments as the latency/overhead
/// balance, 1 block for low latency, 12 for constrained receivers.
pub fn latency_vs_segment_size() -> LatencyResult {
    let mut table = Table::new(
        "T3/T13 (§4.2, §3.2): one-way latency and overhead vs blocks per segment",
        &[
            "blocks/seg",
            "p50 ms",
            "p99 ms",
            "min ms",
            "header overhead %",
        ],
    );
    let mut p50s = Vec::new();
    let mut overheads = Vec::new();
    for bps in [1usize, 2, 12] {
        let mut sim = Simulation::new();
        let mut cfg_a = BoxConfig::standard("a");
        cfg_a.blocks_per_segment = bps;
        let cfg_b = BoxConfig::standard("b");
        let pair = connect_pair(
            &sim.spawner(),
            cfg_a,
            cfg_b,
            &[HopConfig::clean(50_000_000)],
            11,
        );
        open_audio_shout(&pair.a, &pair.b, Box::new(Tone::new(440.0, 8_000.0)));
        sim.run_until(SimTime::from_secs(5));
        let mut lat = pair.b.speaker.latency_ns();
        let p50 = lat.percentile(50.0);
        let p99 = lat.percentile(99.0);
        let min = lat.min();
        let seg = AudioSegment::from_blocks(SequenceNumber(0), Timestamp(0), vec![0u8; bps * 16]);
        let overhead = seg.header_overhead();
        p50s.push((bps, p50));
        overheads.push((bps, overhead));
        table.row_owned(vec![
            bps.to_string(),
            format!("{:.2}", p50 / 1e6),
            format!("{:.2}", p99 / 1e6),
            format!("{:.2}", min / 1e6),
            format!("{:.1}", overhead * 100.0),
        ]);
    }
    LatencyResult {
        p50_by_blocks: p50s,
        overhead_by_blocks: overheads,
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_capacities_match_paper() {
        let r = audio_capacity();
        assert_eq!(r.plain_capacity, 5, "\n{}", r.table);
        assert_eq!(r.full_capacity, 3, "\n{}", r.table);
        // "Probably around 5kHz" — same order of magnitude.
        assert!(
            (500.0..=50_000.0).contains(&r.ctx_switch_hz),
            "ctx {}Hz",
            r.ctx_switch_hz
        );
    }

    #[test]
    fn e2_link_carries_about_100_streams() {
        let r = link_capacity();
        assert!(
            (90..=110).contains(&r.capacity),
            "capacity {}\n{}",
            r.capacity,
            r.table
        );
    }

    #[test]
    fn e3_latency_single_digit_ms_and_monotonic() {
        let r = latency_vs_segment_size();
        let p50_1 = r.p50_by_blocks[0].1 / 1e6;
        let p50_2 = r.p50_by_blocks[1].1 / 1e6;
        let p50_12 = r.p50_by_blocks[2].1 / 1e6;
        // The paper's default (2 blocks) lands in the high-single-digit
        // millisecond range; 1-block is lower, 12-block much higher.
        assert!(p50_2 < 15.0, "2-block p50 {p50_2}ms\n{}", r.table);
        assert!(p50_1 < p50_2, "1-block {p50_1} !< 2-block {p50_2}");
        assert!(p50_12 > p50_2 + 8.0, "12-block {p50_12} vs {p50_2}");
        // Overhead falls with batching: 53% at 2 blocks, 16% at 12.
        assert!((r.overhead_by_blocks[1].1 - 36.0 / 68.0).abs() < 1e-9);
        assert!(r.overhead_by_blocks[2].1 < 0.17);
    }
}
