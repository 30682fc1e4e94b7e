//! Experiments E5–E7, E15: clawback adaptation, multi-rate clawback,
//! clock drift, and the SuperJanet high-jitter trial.

use pandora::pandora_box::{connect_pair, open_audio_shout};
use pandora::BoxConfig;
use pandora_atm::{HopConfig, JitterModel};
use pandora_audio::gen::Tone;
use pandora_buffers::{Clawback, ClawbackConfig, MultiRateClawback};
use pandora_metrics::{Table, TimeSeries};
use pandora_sim::{SimDuration, SimTime, Simulation};

/// Drives a clawback buffer with jittered arrivals in pure virtual time
/// (no executor needed): arrivals are nominally every 2 ms with an extra
/// delay sampled from `jitter_ns(t)`; the mixer ticks every 2 ms.
///
/// Returns a time series of the buffer's delay (ns) sampled every tick.
fn drive_clawback(
    buf: &mut Clawback<u64>,
    seconds: u64,
    mut jitter_ns: impl FnMut(u64) -> u64,
    drift: f64,
) -> TimeSeries {
    let mut series = TimeSeries::new("clawback_delay");
    let block = 2_000_000u64;
    let end = seconds * 1_000_000_000;
    // Event-merge: arrival k is due at k*block/(1+drift) + jitter; ticks at
    // k*block. Process in time order.
    let mut arrivals: Vec<u64> = Vec::new();
    let mut k = 0u64;
    loop {
        let base = (k as f64 * block as f64 / (1.0 + drift)) as u64;
        if base > end {
            break;
        }
        arrivals.push(base + jitter_ns(base));
        k += 1;
    }
    arrivals.sort_unstable();
    let mut ai = 0usize;
    let mut t = block;
    while t <= end {
        while ai < arrivals.len() && arrivals[ai] <= t {
            buf.arrival(arrivals[ai]);
            ai += 1;
        }
        buf.tick();
        series.push(t, buf.delay_nanos() as f64);
        t += block;
    }
    series
}

/// Result of the E5 adaptation experiment.
pub struct ClawbackAdaptResult {
    /// Mean delay during the high-jitter epoch (ns).
    pub delay_during_jitter: f64,
    /// Delay at the end of the run (ns).
    pub final_delay: f64,
    /// Seconds from the step-down until the delay reached ≤ 6 ms.
    pub adaptation_seconds: f64,
    /// The printable table (delay trace samples).
    pub table: Table,
}

/// E5: "It will take about one minute to adjust to the change from 20ms
/// jitter correction to 4ms" at the clawback rate of 2 ms per 8 s
/// (§3.7.2).
pub fn clawback_adaptation() -> ClawbackAdaptResult {
    let mut buf = Clawback::new(ClawbackConfig::default());
    let step_at = 30u64 * 1_000_000_000;
    // The paper's jitter is queueing-induced: blocks bunch up behind
    // cross-traffic (the 20ms video hold-up of §4.2) and are released in
    // bursts. Model: a gateway that forwards everything queued every J.
    let bunch = |t: u64, period: u64| (period - (t % period)) % period;
    let series = drive_clawback(
        &mut buf,
        150,
        move |t| {
            if t < step_at {
                bunch(t, 20_000_000) // 20ms bunching epoch.
            } else {
                bunch(t, 2_000_000) // Quiet epoch: 2ms.
            }
        },
        0.0,
    );
    // The jitter-epoch depth is a sawtooth (burst then drain): report the
    // mean and let the peak show in the trace.
    let epoch: Vec<f64> = series
        .points()
        .iter()
        .filter(|&(t, _)| t > 10_000_000_000 && t < step_at)
        .map(|(_, v)| v)
        .collect();
    let delay_during = epoch.iter().sum::<f64>() / epoch.len().max(1) as f64;
    let tail: Vec<f64> = series
        .points()
        .iter()
        .filter(|&(t, _)| t > 140_000_000_000)
        .map(|(_, v)| v)
        .collect();
    let final_delay = tail.iter().sum::<f64>() / tail.len().max(1) as f64;
    // First time after the step that delay ≤ 6ms (3 blocks).
    let reached = series
        .points()
        .iter()
        .find(|&(t, v)| t > step_at && v <= 6_000_000.0)
        .map(|(t, _)| (t - step_at) as f64 / 1e9)
        .unwrap_or(f64::INFINITY);
    let mut table = Table::new(
        "T5 (§3.7.2): clawback delay after jitter drops from 20 ms to 2 ms at t=30 s",
        &["t (s)", "delay (ms)"],
    );
    for (t, v) in series.downsample(30) {
        table.row_owned(vec![
            format!("{:.0}", t as f64 / 1e9),
            format!("{:.1}", v / 1e6),
        ]);
    }
    ClawbackAdaptResult {
        delay_during_jitter: delay_during,
        final_delay,
        adaptation_seconds: reached,
        table,
    }
}

/// Result of the E6 multi-rate experiment.
pub struct MultiRateResult {
    /// Measured removal interval at ~10 ms standing contents (seconds).
    pub interval_10ms: f64,
    /// Measured removal interval at ~50 ms standing contents (seconds).
    pub interval_50ms: f64,
    /// Measured time for the delay to halve after jitter stops (seconds).
    pub half_life: f64,
    /// The printable table.
    pub table: Table,
}

/// E6: the proposed multi-rate clawback at the 20 block-second level:
/// "if the minimum contents were 10ms, we would be removing a 2ms block
/// every 2000 blocks, or 4 seconds. If the minimum contents were 50ms,
/// then we would remove a 2ms block every 400 blocks, or 0.8 seconds. …
/// The time to halve the delay when the jitter source is removed is
/// roughly 0.7 times the level … about 14 seconds" (§3.7.2).
pub fn multirate_clawback() -> MultiRateResult {
    // (a) Removal intervals at fixed standing occupancy.
    let mut intervals = Vec::new();
    for occupancy in [5usize, 25] {
        let mut buf = MultiRateClawback::new();
        for _ in 0..occupancy {
            buf.arrival(0u64);
        }
        let mut t = 0f64;
        let mut removals = Vec::new();
        for _ in 0..40_000u64 {
            t += 0.002;
            if buf.arrival(0) == pandora_buffers::Arrival::ClawedBack {
                removals.push(t);
                while buf.len() < occupancy {
                    buf.arrival(0);
                }
            } else {
                buf.tick();
            }
        }
        let gaps: Vec<f64> = removals.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = if gaps.is_empty() {
            f64::INFINITY
        } else {
            gaps.iter().sum::<f64>() / gaps.len() as f64
        };
        intervals.push(mean);
    }
    // (b) Half-life of the delay once the jitter source is removed.
    let mut buf = MultiRateClawback::new();
    // Standing delay of 50 blocks (100ms).
    for _ in 0..50 {
        buf.arrival(0u64);
    }
    let initial = buf.len();
    let mut t = 0f64;
    let mut half_life = f64::INFINITY;
    for _ in 0..40_000u64 {
        t += 0.002;
        buf.arrival(0);
        buf.tick();
        if buf.len() <= initial / 2 {
            half_life = t;
            break;
        }
    }
    let mut table = Table::new(
        "T6 (§3.7.2): multi-rate clawback at level 20 block-seconds",
        &["quantity", "paper", "measured"],
    );
    table.row_owned(vec![
        "removal interval @10ms contents".into(),
        "4.0 s".into(),
        format!("{:.2} s", intervals[0]),
    ]);
    table.row_owned(vec![
        "removal interval @50ms contents".into(),
        "0.8 s".into(),
        format!("{:.2} s", intervals[1]),
    ]);
    table.row_owned(vec![
        "delay half-life after jitter stops".into(),
        "~14 s".into(),
        format!("{half_life:.1} s"),
    ]);
    MultiRateResult {
        interval_10ms: intervals[0],
        interval_50ms: intervals[1],
        half_life,
        table,
    }
}

/// Result of the E7 drift experiment.
pub struct DriftResult {
    /// `(drift, max buffer delay ns, over-limit drops)` per sweep point.
    pub rows: Vec<(f64, f64, u64)>,
    /// The printable table.
    pub table: Table,
}

/// E7: "the only remaining problem is clock drift where the source clock
/// is faster than the destination clock. This is covered by the same
/// clawback mechanism provided that the clawback rate is greater than the
/// maximum clock drift rate. Since our clocks are controlled by quartz
/// oscillators with a 1 in 10^5 drift rate, our 1 in 4000 clawback rate is
/// sufficient" (§3.7.2).
pub fn clock_drift_tolerance() -> DriftResult {
    let clawback_rate = 1.0 / 4096.0; // ≈ 2.44e-4.
    let mut table = Table::new(
        "T7 (§3.7.2): drift absorption — stable iff drift < clawback rate (1/4096 ≈ 2.4e-4)",
        &["source drift", "max delay (ms)", "cap drops", "stable"],
    );
    let mut rows = Vec::new();
    for drift in [1e-5f64, 5e-5, 1e-4, 2e-4, 3e-4, 5e-4] {
        let mut buf = Clawback::new(ClawbackConfig::default());
        let mut max_delay = 0f64;
        let series = drive_clawback(&mut buf, 600, |_| 0, drift);
        for (_, v) in series.points() {
            max_delay = max_delay.max(v);
        }
        let drops = buf.stats().over_limit;
        // Unstable = the buffer grows past the steady-state band (the cap
        // itself takes ~35 minutes to reach at drift just over the rate).
        let stable = drops == 0 && max_delay <= 20e6;
        rows.push((drift, max_delay, drops));
        table.row_owned(vec![
            format!("{drift:.0e}"),
            format!("{:.1}", max_delay / 1e6),
            drops.to_string(),
            if stable { "yes".into() } else { "NO".into() },
        ]);
        let _ = clawback_rate;
    }
    DriftResult { rows, table }
}

/// Result of the E15 SuperJanet experiment.
pub struct SuperJanetResult {
    /// Segments received at the far speaker.
    pub received: u64,
    /// Segments lost end to end.
    pub lost: u64,
    /// Late mix ticks at the far speaker.
    pub late_ticks: u64,
    /// Steady-state clawback delay (ns).
    pub steady_delay: f64,
    /// Peak-to-peak arrival jitter (ns).
    pub jitter_p2p: f64,
    /// The printable table.
    pub table: Table,
}

/// E15: "unmodified Pandora's Boxes communicated audio and video
/// successfully under the high jitter conditions of a connection from
/// Cambridge to London involving several networks and protocol
/// conversions" (§3.7.2). Four hops of bursty jitter, stock configuration.
pub fn superjanet() -> SuperJanetResult {
    let mut sim = Simulation::new();
    let hop = HopConfig {
        bits_per_sec: 34_000_000, // SuperJanet-era 34 Mbit/s trunks.
        latency: SimDuration::from_millis(2),
        jitter: JitterModel::Bursty {
            base: SimDuration::from_millis(4),
            burst: SimDuration::from_millis(25),
            burst_prob: 0.03,
        },
        loss: 0.0005,
    };
    let pair = connect_pair(
        &sim.spawner(),
        BoxConfig::standard("cam"),
        BoxConfig::standard("lon"),
        &[hop, hop, hop, hop],
        1993,
    );
    open_audio_shout(&pair.a, &pair.b, Box::new(Tone::new(440.0, 8_000.0)));
    sim.run_until(SimTime::from_secs(60));
    let sink = &pair.b.speaker;
    let jitter = sink
        .jitter_of(pandora_segment::StreamId(1))
        .map(|j| j.peak_to_peak());
    let delay = sink.delay_series().last_value().unwrap_or(0.0);
    let mut table = Table::new(
        "T15 (§3.7.2): SuperJanet trial — 4 bursty hops, stock boxes, 60 s call",
        &["metric", "value"],
    );
    table.row_owned(vec![
        "segments received".into(),
        sink.segments_received().to_string(),
    ]);
    table.row_owned(vec![
        "segments lost (cell loss)".into(),
        sink.segments_lost().to_string(),
    ]);
    table.row_owned(vec!["late mix ticks".into(), sink.late_ticks().to_string()]);
    table.row_owned(vec![
        "arrival jitter p2p".into(),
        format!("{:.1} ms", jitter.unwrap_or(0.0) / 1e6),
    ]);
    table.row_owned(vec![
        "steady clawback delay".into(),
        format!("{:.1} ms", delay / 1e6),
    ]);
    table.row_owned(vec![
        "blocks concealed".into(),
        sink.concealed().to_string(),
    ]);
    SuperJanetResult {
        received: sink.segments_received(),
        lost: sink.segments_lost(),
        late_ticks: sink.late_ticks(),
        steady_delay: delay,
        jitter_p2p: jitter.unwrap_or(0.0),
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_adaptation_takes_about_a_minute() {
        let r = clawback_adaptation();
        // During the 20ms-bunching epoch the buffer averages well above
        // the 4ms target (sawtooth 0..20ms, mean ≈ 9ms).
        assert!(
            r.delay_during_jitter > 6e6,
            "during {}ns\n{}",
            r.delay_during_jitter,
            r.table
        );
        // Afterwards it settles near the 4ms target.
        assert!(
            r.final_delay <= 8e6,
            "final {}ns\n{}",
            r.final_delay,
            r.table
        );
        // "About one minute" — accept 30..110s.
        assert!(
            (30.0..=110.0).contains(&r.adaptation_seconds),
            "adaptation {}s\n{}",
            r.adaptation_seconds,
            r.table
        );
    }

    #[test]
    fn e6_multirate_intervals_match_paper() {
        let r = multirate_clawback();
        assert!(
            (3.0..=5.0).contains(&r.interval_10ms),
            "10ms interval {}\n{}",
            r.interval_10ms,
            r.table
        );
        assert!(
            (0.6..=1.0).contains(&r.interval_50ms),
            "50ms interval {}",
            r.interval_50ms
        );
        assert!(
            (7.0..=21.0).contains(&r.half_life),
            "half-life {}",
            r.half_life
        );
    }

    #[test]
    fn e7_drift_stable_below_clawback_rate() {
        let r = clock_drift_tolerance();
        for &(drift, max_delay, drops) in &r.rows {
            if drift < 2.0e-4 {
                assert_eq!(drops, 0, "drift {drift} dropped at cap\n{}", r.table);
                assert!(max_delay < 120e6, "drift {drift} delay {max_delay}");
            }
            if drift >= 3.0e-4 {
                assert!(
                    drops > 0 || max_delay > 20e6,
                    "drift {drift} should exceed the clawback rate\n{}",
                    r.table
                );
            }
        }
    }

    #[test]
    fn e15_superjanet_call_survives() {
        let r = superjanet();
        // A 60s call at 4ms/segment ≈ 15000 segments; nearly all arrive.
        assert!(r.received > 14_000, "received {}\n{}", r.received, r.table);
        let loss_frac = r.lost as f64 / (r.received + r.lost) as f64;
        assert!(loss_frac < 0.02, "loss {loss_frac}");
        assert_eq!(r.late_ticks, 0, "audio CPU never overloaded");
        // Jitter was genuinely high and the clawback absorbed it.
        assert!(r.jitter_p2p > 10e6, "jitter {}ns", r.jitter_p2p);
        assert!(r.steady_delay < 120e6, "delay within the 120ms cap");
    }
}
