//! Experiments E8, E9, E14, E16: muting, loss concealment, repository
//! re-segmentation, decoupling mechanics.

use pandora_audio::gen::{Signal, Speech, Tone, Violin};
use pandora_audio::{quality, recovery, Block, MuteStage, Muting, MutingConfig};
use pandora_buffers::{decoupling, Report, Reporter};
use pandora_metrics::{Table, TimeSeries};
use pandora_segment::{AudioSegment, SequenceNumber, Timestamp};
use pandora_sim::{unbounded, SimDuration, SimTime, Simulation};

/// Result of the E8 muting-trace experiment.
pub struct MutingResult {
    /// The mute-factor trace (time ns, factor).
    pub trace: TimeSeries,
    /// Blocks spent at 20 % after the speaker went quiet.
    pub deep_blocks: usize,
    /// Blocks spent at 50 % after the deep stage.
    pub half_blocks: usize,
    /// Blocks from threshold-crossing to the first muted mic block.
    pub reaction_blocks: usize,
    /// The printable table (the figure 4.1 series).
    pub table: Table,
}

/// E8: regenerates figure 4.1 — the muting function. A burst of loud
/// speaker output, then silence; the mic gain steps 100 % → 20 % (22 ms)
/// → 50 % (22 ms) → 100 %.
pub fn muting_function() -> MutingResult {
    let mut m = Muting::new(MutingConfig::default());
    let mut trace = TimeSeries::new("mute_factor");
    let loud = Block([pandora_audio::mulaw::encode(20_000); 16]);
    let quiet = Block::SILENCE;
    let mut reaction_blocks = usize::MAX;
    let mut deep_blocks = 0;
    let mut half_blocks = 0;
    // 10ms of silence, 10ms of loud speaker, then quiet.
    for i in 0..60usize {
        let speaker = if (5..10).contains(&i) { loud } else { quiet };
        m.observe_speaker(&speaker);
        trace.push(i as u64 * 2_000_000, m.factor());
        if i >= 5 && m.stage() != MuteStage::Full && reaction_blocks == usize::MAX {
            reaction_blocks = i - 5;
        }
        if i >= 10 {
            match m.stage() {
                MuteStage::Deep => deep_blocks += 1,
                MuteStage::Half => half_blocks += 1,
                MuteStage::Full => {}
            }
        }
    }
    let mut table = Table::new(
        "T8 (fig 4.1): the muting function — mic gain vs time (loud speaker 10-20 ms)",
        &["t (ms)", "mic gain"],
    );
    for (t, v) in trace.points() {
        table.row_owned(vec![format!("{}", t / 1_000_000), format!("{v:.2}")]);
    }
    MutingResult {
        trace,
        deep_blocks,
        half_blocks,
        reaction_blocks,
        table,
    }
}

/// Result of the E9 loss-concealment experiment.
pub struct ConcealmentResult {
    /// `(signal, mechanism, drop period, SNR dB, energy holes)` rows.
    pub rows: Vec<(String, String, usize, f64, i64)>,
    /// The printable table.
    pub table: Table,
}

/// E9: the §3.8 perceptual ranking, reproduced as SNR. "Single byte
/// samples dropped occasionally were undetectable except during solo
/// violin pieces … Dropping occasional 2ms blocks was noticeable in most
/// music, but rarely in speech. If 2ms blocks are repeatedly dropped, the
/// speech sounds gravelly. … Replaying the last 2ms block occasionally is
/// perfectly acceptable."
pub fn loss_concealment() -> ConcealmentResult {
    type SignalFactory = Box<dyn Fn() -> Box<dyn Signal>>;
    let signals: Vec<(&str, SignalFactory)> = vec![
        ("tone", Box::new(|| Box::new(Tone::new(440.0, 10_000.0)))),
        (
            "violin",
            Box::new(|| Box::new(Violin::new(440.0, 10_000.0))),
        ),
        ("speech", Box::new(|| Box::new(Speech::new(7)))),
    ];
    let mut rows = Vec::new();
    let mut table = Table::new(
        "T9 (§3.8): loss concealment — SNR dB (and 2ms energy holes) vs drop rate, 4 s",
        &["signal", "mechanism", "1/1000", "1/100", "1/10"],
    );
    for (name, mk) in &signals {
        for (mech, is_samples, policy) in [
            (
                "drop samples (repeat last)",
                true,
                recovery::Concealment::RepeatLast,
            ),
            (
                "drop blocks (zero fill)",
                false,
                recovery::Concealment::Zero,
            ),
            (
                "drop blocks (replay last)",
                false,
                recovery::Concealment::RepeatLast,
            ),
        ] {
            let mut cells = Vec::new();
            for period in [1_000usize, 100, 10] {
                let mut sig = mk();
                let blocks: Vec<Block> = (0..2_000).map(|_| sig.next_block()).collect();
                let degraded = if is_samples {
                    let samples: Vec<u8> = blocks.iter().flat_map(|b| b.0).collect();
                    let repaired = recovery::drop_samples_repeat_last(&samples, period * 16);
                    repaired
                        .chunks_exact(16)
                        .map(Block::from_slice)
                        .collect::<Vec<_>>()
                } else {
                    recovery::drop_and_conceal(&blocks, period, policy).0
                };
                let snr = quality::snr_db(&blocks, &degraded);
                // Energy holes: 2ms interruptions in the sound — the
                // paper's objection to zero-fill.
                let holes = quality::energy_holes(&blocks, &degraded) as i64;
                rows.push((name.to_string(), mech.to_string(), period, snr, holes));
                cells.push(if snr.is_infinite() {
                    format!("inf ({holes})")
                } else {
                    format!("{snr:.1} ({holes})")
                });
            }
            table.row_owned(vec![
                name.to_string(),
                mech.to_string(),
                cells[0].clone(),
                cells[1].clone(),
                cells[2].clone(),
            ]);
        }
    }
    ConcealmentResult { rows, table }
}

/// Result of the E14 re-segmentation experiment.
pub struct ResegmentResult {
    /// Live-format header overhead fraction.
    pub live_overhead: f64,
    /// Repository-format header overhead fraction.
    pub repo_overhead: f64,
    /// Storage saved by rewriting.
    pub saving: f64,
    /// Audio byte-exactness of the rewrite.
    pub lossless: bool,
    /// The printable table.
    pub table: Table,
}

/// E14: the §3.2 repository rewrite — 2 ms blocks merged into 40 ms
/// segments of 320 data bytes + a 36-byte header.
pub fn resegmentation() -> ResegmentResult {
    let mut sig = Tone::new(440.0, 10_000.0);
    let live: Vec<AudioSegment> = (0..500u32)
        .map(|i| {
            let mut data = Vec::new();
            data.extend(sig.next_block().0);
            data.extend(sig.next_block().0);
            AudioSegment::from_blocks(
                SequenceNumber(i),
                Timestamp::from_nanos(i as u64 * 4_000_000),
                data,
            )
        })
        .collect();
    let repo = pandora_segment::reseg::to_repository_format(&live);
    let live_bytes: usize = live.iter().map(|s| s.wire_bytes()).sum();
    let repo_bytes: usize = repo.iter().map(|s| s.wire_bytes()).sum();
    let live_data: Vec<u8> = live.iter().flat_map(|s| s.data.clone()).collect();
    let repo_data: Vec<u8> = repo.iter().flat_map(|s| s.data.clone()).collect();
    let live_overhead = 36.0 / 68.0;
    let repo_overhead = 36.0 / 356.0;
    let saving = 1.0 - repo_bytes as f64 / live_bytes as f64;
    let mut table = Table::new(
        "T14 (§3.2): repository re-segmentation (2 s of audio)",
        &["format", "segments", "bytes", "header overhead"],
    );
    table.row_owned(vec![
        "live (2 blocks/segment)".into(),
        live.len().to_string(),
        live_bytes.to_string(),
        format!("{:.1}%", live_overhead * 100.0),
    ]);
    table.row_owned(vec![
        "repository (20 blocks/segment)".into(),
        repo.len().to_string(),
        repo_bytes.to_string(),
        format!("{:.1}%", repo_overhead * 100.0),
    ]);
    table.row_owned(vec![
        "saving".into(),
        String::new(),
        format!("{:.1}%", saving * 100.0),
        String::new(),
    ]);
    ResegmentResult {
        live_overhead,
        repo_overhead,
        saving,
        lossless: live_data == repo_data,
        table,
    }
}

/// Result of the E16 decoupling-mechanics experiment.
pub struct DecouplingResult {
    /// Offers made by the never-blocking upstream.
    pub offers: u64,
    /// Offers that were carried.
    pub sent: u64,
    /// Offers dropped at the gate.
    pub dropped: u64,
    /// Virtual time the producer spent blocked (must be 0).
    pub producer_blocked_ns: u64,
    /// Items lost across a live resize (must be 0).
    pub resize_losses: u64,
    /// The printable table.
    pub table: Table,
}

/// E16 (§3.7.1): a ready-mode buffer never blocks upstream, drops
/// are counted at the buffer, and a live resize loses nothing.
pub fn decoupling_mechanics() -> DecouplingResult {
    // (a) Stalled consumer: upstream stays live, drops counted.
    let mut sim = Simulation::new();
    let (rep_tx, _rep_rx) = unbounded::<Report>();
    let (mut gate, out_rx, _handle) = decoupling::<u64>(
        "e16",
        8,
        true,
        &Reporter::new(rep_tx, "host", SimDuration::from_millis(500)),
    );
    let stats = std::rc::Rc::new(std::cell::Cell::new((0u64, 0u64, 0u64)));
    {
        let stats = stats.clone();
        sim.spawn("producer", async move {
            let mut blocked_ns = 0u64;
            for i in 0..1_000u64 {
                let before = pandora_sim::now();
                gate.offer(i).await;
                blocked_ns += (pandora_sim::now() - before).as_nanos();
                pandora_sim::delay(SimDuration::from_millis(1)).await;
            }
            stats.set((gate.sent(), gate.dropped(), blocked_ns));
        });
    }
    // A consumer that drains only the first 100ms then stalls for good.
    sim.spawn("consumer", async move {
        let stop = SimTime::from_millis(100);
        while pandora_sim::now() < stop {
            pandora_sim::delay(SimDuration::from_millis(2)).await;
            if out_rx.recv().await.is_err() {
                return;
            }
        }
        std::future::pending::<()>().await;
    });
    sim.run_until(SimTime::from_secs(2));
    let (sent, dropped, blocked_ns) = stats.get();

    // (b) Live resize without loss.
    let mut sim2 = Simulation::new();
    let (rep_tx2, _r) = unbounded::<Report>();
    let (mut gate2, out_rx2, handle2) = decoupling::<u64>(
        "rsz",
        16,
        false,
        &Reporter::new(rep_tx2, "host", SimDuration::from_millis(500)),
    );
    sim2.spawn("producer", async move {
        for i in 0..500u64 {
            gate2.offer(i).await;
            if i == 250 {
                handle2.set_capacity(2);
            }
            if i == 400 {
                handle2.set_capacity(64);
            }
        }
    });
    let received = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    {
        let received = received.clone();
        sim2.spawn("consumer", async move {
            while let Ok(v) = out_rx2.recv().await {
                received.borrow_mut().push(v);
                pandora_sim::delay(SimDuration::from_micros(500)).await;
            }
        });
    }
    sim2.run_until_idle();
    let got = received.borrow();
    let resize_losses = 500 - got.len() as u64;

    let mut table = Table::new(
        "T16 (§3.7.1): decoupling buffer mechanics",
        &["metric", "value"],
    );
    table.row_owned(vec![
        "offers (1 per ms, consumer stalls at 100ms)".into(),
        "1000".into(),
    ]);
    table.row_owned(vec!["carried".into(), sent.to_string()]);
    table.row_owned(vec!["dropped at gate".into(), dropped.to_string()]);
    table.row_owned(vec![
        "producer time spent blocked".into(),
        format!("{blocked_ns} ns"),
    ]);
    table.row_owned(vec![
        "items lost across live resizes".into(),
        resize_losses.to_string(),
    ]);
    DecouplingResult {
        offers: 1_000,
        sent,
        dropped,
        producer_blocked_ns: blocked_ns,
        resize_losses,
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_muting_trace_matches_figure() {
        let r = muting_function();
        // Reacts on the triggering block itself.
        assert_eq!(r.reaction_blocks, 0, "\n{}", r.table);
        // 22ms deep + 22ms half after the speaker goes quiet (11 block
        // periods each; sampling after each observe reads 10 or 11
        // depending on which edge the transition lands on).
        assert!(
            (10..=11).contains(&r.deep_blocks),
            "deep {}\n{}",
            r.deep_blocks,
            r.table
        );
        assert!(
            (10..=11).contains(&r.half_blocks),
            "half {}\n{}",
            r.half_blocks,
            r.table
        );
        // The trace visits exactly the three factors of figure 4.1.
        let factors: std::collections::BTreeSet<String> = r
            .trace
            .points()
            .iter()
            .map(|(_, v)| format!("{v:.2}"))
            .collect();
        assert_eq!(
            factors.into_iter().collect::<Vec<_>>(),
            vec!["0.20", "0.50", "1.00"]
        );
    }

    #[test]
    fn e9_quality_ordering_matches_paper() {
        let r = loss_concealment();
        let get = |sig: &str, mech: &str, period: usize| -> (f64, i64) {
            r.rows
                .iter()
                .find(|(s, m, p, _, _)| s == sig && m.starts_with(mech) && *p == period)
                .map(|&(_, _, _, snr, clicks)| (snr, clicks))
                .expect("row")
        };
        // Occasional sample drops beat occasional block drops on every
        // signal ("single byte samples dropped occasionally were
        // undetectable").
        for sig in ["tone", "violin", "speech"] {
            assert!(
                get(sig, "drop samples", 100).0 > get(sig, "drop blocks (zero", 100).0,
                "{sig}: samples should beat blocks\n{}",
                r.table
            );
        }
        // Replay-last cuts no energy holes; zero-fill cuts one per dropped
        // audible block — the reason the paper chose replay ("the recovery
        // from lost data should not create unpleasant sound effects").
        for sig in ["tone", "violin", "speech"] {
            let zero_holes = get(sig, "drop blocks (zero", 10).1;
            let replay_holes = get(sig, "drop blocks (replay", 10).1;
            assert!(
                replay_holes < zero_holes / 4,
                "{sig}: replay {replay_holes} vs zero {zero_holes} holes\n{}",
                r.table
            );
        }
        // "Gravelly": frequent drops are much worse than occasional ones.
        assert!(
            get("speech", "drop blocks (replay", 10).0
                < get("speech", "drop blocks (replay", 1000).0 - 3.0,
            "\n{}",
            r.table
        );
    }

    #[test]
    fn e14_resegmentation_figures() {
        let r = resegmentation();
        assert!(r.lossless, "audio must be byte-identical\n{}", r.table);
        assert!((r.live_overhead - 0.529).abs() < 0.01);
        assert!((r.repo_overhead - 0.101).abs() < 0.01);
        assert!(r.saving > 0.45, "saving {}\n{}", r.saving, r.table);
    }

    #[test]
    fn e16_ready_protocol_never_blocks() {
        let r = decoupling_mechanics();
        assert_eq!(r.producer_blocked_ns, 0, "\n{}", r.table);
        assert_eq!(r.sent + r.dropped, r.offers);
        // ~50 carried in the first 100ms (2ms consumer) + buffer fill.
        assert!(r.sent >= 50, "sent {}\n{}", r.sent, r.table);
        assert!(r.dropped >= 900, "dropped {}\n{}", r.dropped, r.table);
        assert_eq!(r.resize_losses, 0, "\n{}", r.table);
    }
}
