//! One run of one workload: the timed run (`--trace 0`, end-to-end
//! metrics) or the traced run (`--trace 1`, per-layer metrics), with the
//! correctness checks that can be made inside one process.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::broadcast::{self, Delivery, Repetition};
use crate::host;
use crate::json::{obj, Value};
use crate::metrics::{declared, name_mismatch, valid_name, valid_unit, MetricSet};
use crate::probe;
use crate::spans::Tracer;
use crate::star::{videophone_window, StarKind, StarOutcome, StarRun};
use crate::stats::{
    bucket_percentile, est_share, fastest_tenth, median, percentile_sorted, samples_beyond,
    tail_up_to_p99, TAIL_SAMPLES,
};
use crate::walk::{self, StarMix, WalkCosts};
use crate::workload::{Inputs, Sizing, Workload, BROADCAST_REPS};

/// Build-and-drop passes behind `setup_s` (for the star workloads, before
/// the pass the run keeps). Set-up takes 10 to 70 ms, less than one of
/// the host's slow spells lasts, so the passes have to span a few of
/// them: about half a second's worth each.
const VIDEOPHONE_SETUP_PASSES: usize = 39;
const CONFERENCE_SETUP_PASSES: usize = 9;
const BROADCAST_SETUP_PASSES: usize = 40;
/// Repetitions per shard count in the traced broadcast run.
const TRACED_REPS: usize = 3;
/// One correctness check and what it found.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// Checks as they appear in result files.
pub fn checks_json(checks: &[Check]) -> Value {
    Value::Arr(
        checks
            .iter()
            .map(|c| {
                obj([
                    ("name", Value::Str(c.name.to_string())),
                    ("ok", Value::Bool(c.ok)),
                    ("detail", Value::Str(c.detail.clone())),
                ])
            })
            .collect(),
    )
}

/// What one run produced.
pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    pub metrics: MetricSet,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Simulated history: everything that must repeat exactly for a seed
    /// (and across shard counts) — a digest of the trace lines, the
    /// simulated-time metrics and the census.
    pub history: BTreeMap<String, Value>,
    /// Lines for the human reader (sample counts, skipped parts).
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The result file's form of this run.
    pub fn to_json(&self) -> Value {
        obj([
            ("workload", Value::Str(self.workload.name().to_string())),
            ("seed", Value::Num(self.seed as f64)),
            ("trace", Value::Bool(self.trace)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics.to_json(true)),
            ("checks", checks_json(&self.checks)),
            ("history", Value::Obj(self.history.clone())),
            (
                "notes",
                Value::Arr(self.notes.iter().cloned().map(Value::Str).collect()),
            ),
        ])
    }
}

/// FNV-1a over the lines, as a hex string: a short stand-in for the full
/// trace in result files.
pub fn digest_lines(lines: &[String]) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Runs `workload` once.
pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool, out_dir: &Path) -> RunResult {
    let inputs = Inputs::derive(seed);
    let sizing = Sizing::for_seconds(seconds);
    let mut result = RunResult {
        workload,
        seed,
        trace,
        metrics: MetricSet::default(),
        attempted: 0,
        failed: 0,
        checks: Vec::new(),
        history: BTreeMap::new(),
        notes: Vec::new(),
    };
    match (workload.is_broadcast(), trace) {
        (false, false) => star_timed(&mut result, &inputs, &sizing),
        (false, true) => star_traced(&mut result, &inputs, &sizing.traced(), out_dir),
        (true, false) => broadcast_timed(&mut result, &inputs, &sizing),
        (true, true) => broadcast_traced(&mut result, &inputs, &sizing.traced(), out_dir),
    }
    let (missing, extra) = name_mismatch(&result.metrics, trace);
    result.checks.push(Check::new(
        "metric names printed equal the names declared",
        missing.is_empty() && extra.is_empty(),
        format!("declared but not printed: {missing:?}; printed but not declared: {extra:?}"),
    ));
    let malformed: Vec<&str> = result
        .metrics
        .0
        .iter()
        .filter(|(n, m)| !valid_name(n) || !valid_unit(m.unit))
        .map(|(n, _)| *n)
        .collect();
    result.checks.push(Check::new(
        "metric names and units are well formed",
        malformed.is_empty(),
        format!("malformed: {malformed:?}"),
    ));
    let nonfinite: Vec<&str> = result
        .metrics
        .0
        .iter()
        .filter(|(_, m)| !m.value.is_finite())
        .map(|(n, _)| *n)
        .collect();
    result.checks.push(Check::new(
        "every metric is a finite number",
        nonfinite.is_empty(),
        format!("not finite: {nonfinite:?}"),
    ));
    result
}

fn star_kind(workload: Workload) -> StarKind {
    match workload {
        Workload::Videophone => StarKind::Videophone,
        _ => StarKind::Conference16,
    }
}

/// Simulated-time metrics of a star run: what slicing, repeating or a
/// pure speed-up must leave exactly as it was.
fn star_history(out: &mut StarOutcome) -> BTreeMap<String, Value> {
    let ops = sorted(&out.op_latency_ns);
    let mut h = BTreeMap::new();
    let mut put = |k: &str, v: Value| {
        h.insert(k.to_string(), v);
    };
    put("digest", Value::Str(digest_lines(&out.digest)));
    put("latency_samples", Value::Num(out.latency.count() as f64));
    put("latency_p50_ns", Value::Num(out.latency.percentile(50.0)));
    put("latency_p99_ns", Value::Num(out.latency.percentile(99.0)));
    put(
        "audio_wait_p99_ns",
        Value::Num(out.audio_wait.percentile(99.0)),
    );
    put(
        "clawback_delay_ms_p50",
        Value::Num(out.clawback_delay_ms_p50),
    );
    put(
        "op_latency_median_ns",
        Value::Num(percentile_sorted(&ops, 50.0)),
    );
    put("ops", Value::Num(ops.len() as f64));
    put("attempted", Value::Num(out.attempted as f64));
    put("failed", Value::Num(out.failed as f64));
    put(
        "census",
        Value::Obj(
            out.census
                .0
                .iter()
                .chain(out.peaks.0.iter())
                .map(|(k, v)| (k.to_string(), Value::Num(*v as f64)))
                .collect(),
        ),
    );
    h
}

fn latency_checks(checks: &mut Vec<Check>, samples: usize) {
    checks.push(Check::new(
        "at least ten latency samples lie beyond p99",
        samples_beyond(samples, 99.0) >= TAIL_SAMPLES,
        format!(
            "{samples} samples, {} beyond p99",
            samples_beyond(samples, 99.0)
        ),
    ));
}

fn violations_check(checks: &mut Vec<Check>, violations: &[String]) {
    checks.push(Check::new(
        "per sink offered = delivered + lost + in flight; no box holds leaked buffers",
        violations.is_empty(),
        violations.join("; "),
    ));
}

/// The end-to-end metrics that come from host clocks, by one rule for
/// all four workloads: the measured window is many equal pieces of work
/// (laps of a star run, repetitions of a broadcast), `cost` holds each
/// piece's wall seconds per simulated second, and the fastest tenth of
/// them is the program's speed ([`fastest_tenth`] says why). CPU time is
/// only readable in 10 ms ticks, so it is taken over the whole window
/// and enters as busy threads per wall second.
struct HostTimes {
    /// Build-and-drop passes, wall seconds each.
    setups: Vec<f64>,
    /// Wall seconds per simulated second, one per lap or repetition.
    cost: Vec<f64>,
    /// CPU and wall seconds of the whole measured window.
    cpu_s: f64,
    wall_s: f64,
    /// Segments delivered per simulated second of the window.
    segments_per_sim_s: f64,
    delivered: u64,
}

impl HostTimes {
    fn record(&self, m: &mut MetricSet) {
        let cost = fastest_tenth(&self.cost);
        let pieces = Some(self.cost.len() as u64);
        m.set(
            "setup_s",
            fastest_tenth(&self.setups),
            Some(self.setups.len() as u64),
        );
        m.set("sim_rate", 1.0 / cost, pieces);
        m.set(
            "seg_rate",
            self.segments_per_sim_s / cost,
            Some(self.delivered),
        );
        m.set("cpu_per_sim_s", self.cpu_s / self.wall_s * cost, pieces);
        m.set("peak_rss_mb", host::peak_rss_mb(), None);
    }

    fn note(&self, sim_s: f64) -> String {
        format!(
            "whole window: {sim_s:.3} simulated s in {:.3} wall s and {:.2} CPU s, {:.4} \
             simulated s per wall s; per piece (n={}): fastest tenth {:.4}, median {:.4} \
             simulated s per wall s; set-up passes (n={}): fastest tenth {:.4} s, median {:.4} s",
            self.wall_s,
            self.cpu_s,
            sim_s / self.wall_s,
            self.cost.len(),
            1.0 / fastest_tenth(&self.cost),
            1.0 / median(&self.cost),
            self.setups.len(),
            fastest_tenth(&self.setups),
            median(&self.setups),
        )
    }
}

fn star_timed(result: &mut RunResult, inputs: &Inputs, sizing: &Sizing) {
    let kind = star_kind(result.workload);
    let mut setups = Vec::new();
    let passes = match kind {
        StarKind::Videophone => VIDEOPHONE_SETUP_PASSES,
        StarKind::Conference16 => CONFERENCE_SETUP_PASSES,
    };
    for _ in 0..passes {
        let t0 = Instant::now();
        drop(StarRun::build(kind, inputs, sizing));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let t0 = Instant::now();
    let mut run = StarRun::build(kind, inputs, sizing);
    setups.push(t0.elapsed().as_secs_f64());

    let cpu0 = host::process_cpu_s();
    let t0 = Instant::now();
    let cost = run.run_laps();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s() - cpu0;
    let mut out = run.finish();

    let delivered = out.census.get("audio_heard") + out.census.get("video_displayed");
    let times = HostTimes {
        setups,
        cost,
        cpu_s,
        wall_s,
        segments_per_sim_s: delivered as f64 / out.sim_s,
        delivered,
    };
    let samples = out.latency.count();
    let m = &mut result.metrics;
    times.record(m);
    m.set(
        "latency_p50_ms",
        out.latency.percentile(50.0) / 1e6,
        Some(samples as u64),
    );
    m.set(
        "latency_p99_ms",
        out.latency.percentile(99.0) / 1e6,
        Some(samples as u64),
    );
    m.set(
        "delivered_share",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
        Some(out.attempted),
    );
    result.attempted = out.attempted;
    result.failed = out.failed;
    latency_checks(&mut result.checks, samples);
    violations_check(&mut result.checks, &out.violations);
    result.notes.push(times.note(out.sim_s));
    result.notes.push(format!(
        "{delivered} segments delivered; ops_attempted {} ops_failed {}",
        out.attempted, out.failed
    ));
    result.history = star_history(&mut out);
}

fn star_traced(result: &mut RunResult, inputs: &Inputs, sizing: &Sizing, out_dir: &Path) {
    let kind = star_kind(result.workload);
    // A: the reference, unsliced and untraced.
    let mut a = StarRun::build(kind, inputs, sizing);
    let wall_a = a.run();
    let mut out_a = a.finish();
    // B: the same scenario cut into 100 ms `run_until` calls, one span
    // each.
    let mut tracer = Tracer::new();
    let mut b = StarRun::build(kind, inputs, sizing);
    let (wall_b, slices) = b.run_sliced(&mut tracer);
    let mut out_b = b.finish();

    // (c) Slicing `run_until` must not change history.
    let hist_a = star_history(&mut out_a);
    let hist_b = star_history(&mut out_b);
    let differing: Vec<&String> = hist_a
        .iter()
        .filter(|(k, v)| hist_b.get(*k) != Some(v))
        .map(|(k, _)| k)
        .collect();
    result.checks.push(Check::new(
        "sliced and unsliced runs give identical history",
        differing.is_empty() && out_a.digest == out_b.digest,
        format!("differing: {differing:?}"),
    ));
    violations_check(&mut result.checks, &out_a.violations);
    violations_check(&mut result.checks, &out_b.violations);

    let c = &out_a.census;
    let mix = StarMix {
        audio_segments: c.get("net_out_audio"),
        video_segments: c.get("net_out_video"),
        active_streams: out_a.peaks.get("active_streams").max(1) as usize,
        window: videophone_window(),
        speech_seed: inputs.speech_seed,
    };
    let (costs, walk_counts) = walk::star_walk(&mut tracer, &mix);
    let rendezvous = probe::rendezvous_ns();
    let ticker = probe::ticker_ns();
    let idle = probe::idle_box_s_per_sim_s();

    let slices_ms = sorted(&slices.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    let (slice_p, slice_tail) = tail_up_to_p99(&slices_ms);
    let ops = sorted(&out_a.op_latency_ns);
    let (ops_p, ops_tail) = tail_up_to_p99(&ops);
    let switches = c.get("ctx_switches");
    let delivered = (c.get("audio_heard") + c.get("video_displayed")).max(1);

    // Census × ns/op ÷ wall, per layer. Each count is the reference run's
    // own counter at the board where the walked call is made.
    let share = |count: u64, ns: f64| est_share(count, ns, wall_a);
    let sent = c.get("net_out_audio") + c.get("net_out_video");
    let segment_share = share(sent, costs.ns("segment.encode"))
        + share(
            c.get("net_in_segments"),
            costs.ns("segment.decode") + costs.ns("segment.copy_out"),
        );
    // A source copies a segment into its slab once, however many sinks
    // it is then transmitted to.
    let sourced = c.get("mic_segments") + c.get("capture_segments");
    let slab_share = share(sourced, costs.ns("slab.alloc"));
    let buffers_share = share(
        c.get("pool_allocs"),
        costs.ns("buffers.pool_alloc") + costs.ns("buffers.pool_release"),
    ) + share(c.get("clawback_arrivals"), costs.ns("buffers.clawback"))
        + share(c.get("mix_ticks"), costs.ns("buffers.clawback_tick"));
    let atm_share = share(c.get("net_out_cells"), costs.ns("atm.aal_tx"))
        + share(
            c.get("fabric_forwarded"),
            costs.ns("atm.switch") + costs.ns("atm.aal_rx"),
        );
    // A tick mixes what the clawback bank serves it: every tick pays the
    // empty mix, every served block its share of the rest.
    let streams = mix.active_streams as f64;
    let per_served = (costs.ns("audio.mix") - costs.ns("audio.mix_idle")).max(0.0) / streams;
    let audio_share = share(
        c.get("mic_blocks"),
        costs.ns("audio.generate")
            + costs.ns("audio.codec")
            + costs.ns("audio.muting_mic")
            + costs.ns("audio.assemble"),
    ) + share(
        c.get("mix_ticks"),
        costs.ns("audio.mix_idle") + costs.ns("audio.muting_speaker"),
    ) + share(c.get("clawback_served"), per_served);
    let video_share = share(c.get("camera_frames"), costs.ns("video.frame_write"))
        + share(c.get("capture_segments"), costs.ns("video.capture"))
        + share(
            c.get("video_displayed"),
            costs.ns("video.dpcm_dec") + costs.ns("video.display"),
        );
    // Every handled request is one message in and one reply out.
    let session_share = share(2 * c.get("agent_handled"), costs.ns("session.msg_codec"));
    let shares = [
        ("segment.est_share", segment_share),
        ("slab.est_share", slab_share),
        ("buffers.est_share", buffers_share),
        ("atm.est_share", atm_share),
        ("audio.est_share", audio_share),
        ("video.est_share", video_share),
        ("session.est_share", session_share),
    ];

    let m = &mut result.metrics;
    walk_rows(m, &costs);
    for (name, counter) in CENSUS_ROWS {
        m.set(name, c.get(counter) as f64, None);
    }
    for (name, value) in shares {
        m.set(name, value, None);
    }
    m.set(
        "sim.ns_per_ctx_switch",
        wall_a * 1e9 / switches.max(1) as f64,
        Some(switches),
    );
    m.set("sim.rendezvous_ns", rendezvous.value, Some(rendezvous.n));
    m.set("sim.ticker_ns", ticker.value, Some(ticker.n));
    let n_slices = Some(slices_ms.len() as u64);
    m.set(
        "sim.slice_ms_p50",
        percentile_sorted(&slices_ms, 50.0),
        n_slices,
    );
    m.set("sim.slice_ms_p99", slice_tail, n_slices);
    m.set("sim.tasks_live", out_a.peaks.get("tasks_live") as f64, None);
    m.set(
        "slab.copied_bytes_per_seg",
        (c.get("slab_copied_in") + c.get("slab_copied_out")) as f64 / delivered as f64,
        Some(delivered),
    );
    m.set(
        "slab.alloc_failures",
        (c.get("slab_alloc_failures") + walk_counts["slab_alloc_failures"]) as f64,
        None,
    );
    m.set(
        "buffers.pool_exhausted",
        (c.get("pool_exhausted_waits") + c.get("net_in_pool_exhausted")) as f64,
        None,
    );
    m.set(
        "buffers.clawback_delay_ms_p50",
        out_a.clawback_delay_ms_p50,
        Some(c.get("mix_ticks")),
    );
    m.set(
        "buffers.decoupling_high_watermark",
        out_a.peaks.get("decoupling_high_watermark") as f64,
        None,
    );
    m.set(
        "atm.switch_overflow",
        (c.get("fabric_overflow") + walk_counts["switch_overflow"]) as f64,
        None,
    );
    m.set(
        "atm.frames_discarded",
        (c.get("frames_discarded") + walk_counts["frames_discarded"]) as f64,
        None,
    );
    m.set(
        "audio.muting_ns_per_block",
        costs.ns("audio.muting_mic") + costs.ns("audio.muting_speaker"),
        Some(costs.samples("audio.muting_mic") as u64),
    );
    m.set("core.idle_box_s_per_sim_s", idle.value, Some(idle.n));
    m.set(
        "core.audio_wait_us_p99",
        out_a.audio_wait.percentile(99.0) / 1e3,
        Some(out_a.audio_wait.count() as u64),
    );
    let n_ops = Some(ops.len() as u64);
    m.set("session.ops", ops.len() as f64, None);
    m.set(
        "session.op_ms_p50",
        percentile_sorted(&ops, 50.0) / 1e6,
        n_ops,
    );
    m.set("session.op_ms_p99", ops_tail / 1e6, n_ops);
    idle_layers(m, &["shard.", "overlay."]);
    let attributed = shares.iter().map(|s| s.1).sum();
    finish_trace(
        result,
        &tracer,
        &costs,
        attributed,
        wall_a,
        wall_b / wall_a - 1.0,
        out_dir,
    );
    result.attempted = out_a.attempted;
    result.failed = out_a.failed;
    result.notes.push(format!(
        "traced run: {:.3} simulated s; unsliced {wall_a:.3} wall s, sliced {wall_b:.3} wall s in \
         {} slices; walked {} audio + {} video segments ({} + {} cells)",
        out_a.sim_s,
        slices.len(),
        walk_counts["audio_segments"],
        walk_counts["video_segments"],
        walk_counts["audio_cells"],
        walk_counts["video_cells"],
    ));
    result.notes.push(format!(
        "a *_p99 row holds the highest percentile up to p99 with ten samples beyond it: \
         sim.slice_ms_p99 is p{slice_p} of {}, session.op_ms_p99 is p{ops_p} of {}",
        slices_ms.len(),
        ops.len(),
    ));
    result.history = hist_a;
}

/// Per-layer rows that are the walk's cost of one span name. A name the
/// workload's walk never reached reads 0 with no samples.
const WALK_ROWS: [(&str, &str); 15] = [
    ("segment.encode_ns", "segment.encode"),
    ("segment.decode_ns", "segment.decode"),
    ("slab.alloc_ns", "slab.alloc"),
    ("buffers.pool_alloc_ns", "buffers.pool_alloc"),
    ("buffers.clawback_ns_per_block", "buffers.clawback"),
    ("atm.aal_tx_ns_per_cell", "atm.aal_tx"),
    ("atm.aal_rx_ns_per_cell", "atm.aal_rx"),
    ("atm.switch_ns_per_cell", "atm.switch"),
    ("audio.mix_ns_per_tick", "audio.mix"),
    ("audio.codec_ns_per_block", "audio.codec"),
    ("video.frame_write_ns", "video.frame_write"),
    ("video.capture_ns_per_seg", "video.capture"),
    ("video.dpcm_enc_ns_per_seg", "video.dpcm_enc"),
    ("video.dpcm_dec_ns_per_seg", "video.dpcm_dec"),
    ("session.msg_codec_ns", "session.msg_codec"),
];

/// Per-layer rows that are one counter of a star run's census.
/// `buffers.decoupling_dropped` and `core.switch_dropped` are one event
/// seen from both sides.
const CENSUS_ROWS: [(&str, &str); 14] = [
    ("sim.ctx_switches", "ctx_switches"),
    ("buffers.clawback_silence_blocks", "clawback_silence_blocks"),
    ("buffers.decoupling_dropped", "box_switch_dropped"),
    ("atm.cells", "fabric_forwarded"),
    ("audio.mix_ticks", "mix_ticks"),
    ("audio.concealed_blocks", "concealed_blocks"),
    ("audio.late_ticks", "late_ticks"),
    ("video.frames_written", "camera_frames"),
    ("video.frames_dropped", "frames_dropped"),
    ("core.switch_forwarded", "box_switch_forwarded"),
    ("core.switch_dropped", "box_switch_dropped"),
    ("core.p3_drops", "p3_drops"),
    ("session.rejections", "session_rejections"),
    ("session.timeouts", "session_timeouts"),
];

fn walk_rows(m: &mut MetricSet, costs: &WalkCosts) {
    for (name, span) in WALK_ROWS {
        m.set(name, costs.ns(span), Some(costs.samples(span) as u64));
    }
}

/// Sets every declared per-layer row of the layers named by `prefixes`
/// and not yet set to 0: the workload does not exercise them.
fn idle_layers(m: &mut MetricSet, prefixes: &[&str]) {
    for name in declared(true) {
        if prefixes.iter().any(|p| name.starts_with(p)) && !m.0.contains_key(name) {
            m.set(name, 0.0, None);
        }
    }
}

/// The harness rows every traced run ends with, and the span file.
fn finish_trace(
    result: &mut RunResult,
    tracer: &Tracer,
    costs: &WalkCosts,
    attributed: f64,
    wall: f64,
    overhead: f64,
    out_dir: &Path,
) {
    let m = &mut result.metrics;
    m.set(
        "walk.span_overhead_ns",
        costs.span_overhead_ns,
        Some(costs.calibration_spans as u64),
    );
    m.set("walk.attributed_share", attributed, None);
    m.set("walk.unattributed_s", wall * (1.0 - attributed), None);
    m.set("trace.overhead_share", overhead, None);
    m.set("trace.spans", tracer.spans().len() as f64, None);
    let path = out_dir.join(format!("trace-{}.jsonl", result.workload.name()));
    let written = std::fs::create_dir_all(out_dir).and_then(|()| tracer.write_jsonl(&path));
    result.checks.push(Check::new(
        "span file written",
        written.is_ok(),
        match &written {
            Ok(()) => format!("{} spans in {}", tracer.spans().len(), path.display()),
            Err(e) => format!("{}: {e}", path.display()),
        },
    ));
    let walked: Vec<String> = costs
        .names()
        .map(|name| {
            format!(
                "{name} {:.0} ns (n={})",
                costs.ns(name),
                costs.samples(name)
            )
        })
        .collect();
    result.notes.push(format!(
        "walk, median self ns per unit: {}",
        walked.join(", ")
    ));
}

/// The repetition the host disturbed least: the fastest.
fn fastest_rep(reps: &[Repetition]) -> &Repetition {
    reps.iter()
        .min_by(|a, b| a.run_wall_s.total_cmp(&b.run_wall_s))
        .expect("at least one repetition")
}

fn identical_lines(reps: &[Repetition]) -> bool {
    reps.windows(2).all(|w| w[0].lines == w[1].lines)
}

/// Simulated-time history of a broadcast run; identical for a seed at
/// every shard count.
fn broadcast_history(lines: &[String], d: &Delivery) -> BTreeMap<String, Value> {
    let s = &d.summary;
    let mut h = BTreeMap::new();
    let mut put = |k: &str, v: Value| {
        h.insert(k.to_string(), v);
    };
    put("digest", Value::Str(digest_lines(lines)));
    put("lines", Value::Num(lines.len() as f64));
    put("delivered_alive", Value::Num(d.delivered_alive as f64));
    put("emitted", Value::Num(d.emitted as f64));
    put("lost_alive", Value::Num(s.lost_alive as f64));
    put("late_alive", Value::Num(s.late_alive as f64));
    put(
        "hop_us_p50",
        Value::Num(bucket_percentile(&s.hop_buckets, 50.0)),
    );
    put(
        "hop_us_p99",
        Value::Num(bucket_percentile(&s.hop_buckets, 99.0)),
    );
    put("hop_max_us", Value::Num(s.hop_max_us as f64));
    put(
        "stripe_gap_max_us",
        Value::Num(s.stripe_gap_max_us_alive as f64),
    );
    put(
        "forwarded",
        Value::Num((s.forwarded + s.src_forwarded) as f64),
    );
    put("grafts", Value::Num(s.hub_grafts as f64));
    h
}

/// Conservation and leak checks of one broadcast repetition.
fn broadcast_checks(checks: &mut Vec<Check>, d: &Delivery, segments: u32) {
    let s = &d.summary;
    let alive = s.viewers - s.crashed;
    let offered = alive * u64::from(segments);
    checks.push(Check::new(
        "per surviving viewer offered = delivered + lost; nothing in flight after the tail",
        d.emitted == u64::from(segments) && d.delivered_alive + s.lost_alive == offered,
        format!(
            "emitted {} of {segments}; {alive} survivors: delivered {} + lost {} vs offered \
             {offered}",
            d.emitted, d.delivered_alive, s.lost_alive
        ),
    ));
    let leak = pandora_slab::take_slab_leak_report();
    checks.push(Check::new(
        "the source's slab arena dropped with nothing referenced",
        leak.is_none(),
        format!("{leak:?}"),
    ));
    latency_checks(checks, s.hop_count() as usize);
}

fn broadcast_timed(result: &mut RunResult, inputs: &Inputs, sizing: &Sizing) {
    let shards = result.workload.shards();
    let cfg = broadcast::config(inputs, sizing.broadcast_segments);
    let passes: Vec<_> = (0..BROADCAST_SETUP_PASSES)
        .map(|_| broadcast::setup_pass(&cfg, shards))
        .collect();

    // The first repetition runs without the lap probe: gate (b) below
    // then also shows that the probe changes no line.
    let reps: Vec<Repetition> = (0..BROADCAST_REPS)
        .map(|i| broadcast::repetition(&cfg, shards, i > 0))
        .collect();
    let rep = &reps[0];
    let sim_s = broadcast::deadline(&cfg).as_secs_f64();
    let d = broadcast::delivery(&rep.lines, &cfg);
    let s = &d.summary;
    let alive = s.viewers - s.crashed;
    let attempted = alive * u64::from(cfg.segments);
    let failed = s.lost_alive + s.late_alive + s.hub_unrepairable;
    let hops = s.hop_count();

    let lap_s = broadcast::LAP.as_secs_f64();
    let times = HostTimes {
        setups: passes.iter().map(|p| p.total_s()).collect(),
        cost: reps
            .iter()
            .flat_map(|r| r.lap_wall_s.iter().map(|wall| wall / lap_s))
            .collect(),
        cpu_s: reps.iter().map(|r| r.cpu_s).sum(),
        wall_s: reps.iter().map(|r| r.run_wall_s).sum(),
        // While the source emits, every survivor is owed one slice per
        // segment interval.
        segments_per_sim_s: alive as f64 / cfg.segment_interval.as_secs_f64(),
        delivered: d.delivered_alive,
    };
    let m = &mut result.metrics;
    times.record(m);
    m.set(
        "latency_p50_ms",
        bucket_percentile(&s.hop_buckets, 50.0) / 1e3,
        Some(hops),
    );
    m.set(
        "latency_p99_ms",
        bucket_percentile(&s.hop_buckets, 99.0) / 1e3,
        Some(hops),
    );
    m.set(
        "delivered_share",
        1.0 - failed as f64 / attempted.max(1) as f64,
        Some(attempted),
    );
    result.attempted = attempted;
    result.failed = failed;
    // (b) The repetitions are the same simulation over and over.
    result.checks.push(Check::new(
        "the repetitions, probed or not, produce identical trace lines",
        identical_lines(&reps),
        format!("{} repetitions", reps.len()),
    ));
    broadcast_checks(&mut result.checks, &d, cfg.segments);
    result.notes.push(times.note(sim_s * reps.len() as f64));
    result.notes.push(format!(
        "{} repetitions of {} segments on {shards} shard(s), run wall {:?} s; a piece is a \
         {} ms lap of steady emission; {} slices delivered per repetition; ops_attempted \
         {attempted} ops_failed {failed}",
        reps.len(),
        cfg.segments,
        reps.iter()
            .map(|r| (r.run_wall_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        broadcast::LAP.as_nanos() / 1_000_000,
        d.delivered_alive,
    ));
    result.history = broadcast_history(&rep.lines, &d);
}

fn broadcast_traced(result: &mut RunResult, inputs: &Inputs, sizing: &Sizing, out_dir: &Path) {
    let shards = result.workload.shards();
    let cfg = broadcast::config(inputs, sizing.broadcast_segments);
    let pass = broadcast::setup_pass(&cfg, shards);
    // Both shard counts, alternating, so that their ratio is like for
    // like whichever of the two workloads asked.
    let mut one = Vec::new();
    let mut two = Vec::new();
    for _ in 0..TRACED_REPS {
        one.push(broadcast::repetition(&cfg, 1, false));
        two.push(broadcast::repetition(&cfg, 2, false));
    }
    let (rep1, rep2) = (fastest_rep(&one), fastest_rep(&two));
    let own = if shards == 1 { rep1 } else { rep2 };
    let wall = own.run_wall_s;
    let d = broadcast::delivery(&own.lines, &cfg);
    let s = &d.summary;

    // (a) One shard and two shards replay the same history.
    let identical = identical_lines(&one) && identical_lines(&two) && rep1.lines == rep2.lines;
    result.checks.push(Check::new(
        "one shard and two shards produce byte-identical trace lines",
        identical,
        format!(
            "digest {} at 1 shard, {} at 2",
            digest_lines(&rep1.lines),
            digest_lines(&rep2.lines)
        ),
    ));
    broadcast_checks(&mut result.checks, &d, cfg.segments);

    let mut tracer = Tracer::new();
    let costs = walk::broadcast_walk(
        &mut tracer,
        cfg.trees,
        cfg.degree,
        cfg.payload_bytes,
        cfg.ring,
        cfg.playout.as_nanos(),
    );
    let rendezvous = probe::rendezvous_ns();
    let ticker = probe::ticker_ns();

    let cells_per = pandora_overlay::cells_per_segment(cfg.payload_bytes);
    let forwarded = s.forwarded + s.src_forwarded;
    let accepts = s.delivered + s.dupes;
    let share = |count: u64, ns: f64| est_share(count, ns, wall);
    let slab_share = share(d.emitted, costs.ns("slab.alloc"));
    let atm_share = share(d.emitted * cells_per, costs.ns("atm.aal_tx"));
    // A relay pushes a slice to its ring once and re-stamps it once per
    // child; `forwarded` counts the copies.
    let ring_pushes = forwarded / cfg.degree.max(1) as u64;
    let overlay_share = share(accepts, costs.ns("overlay.accept"))
        + share(ring_pushes, costs.ns("overlay.ring"))
        + share(forwarded, costs.ns("overlay.retime"));
    let attributed = slab_share + atm_share + overlay_share;

    let hops = Some(s.hop_count());
    let reps = Some(TRACED_REPS as u64);
    let m = &mut result.metrics;
    walk_rows(m, &costs);
    m.set("sim.ctx_switches", own.events as f64, None);
    m.set(
        "sim.ns_per_ctx_switch",
        wall * 1e9 / own.events.max(1) as f64,
        Some(own.events),
    );
    m.set("sim.rendezvous_ns", rendezvous.value, Some(rendezvous.n));
    m.set("sim.ticker_ns", ticker.value, Some(ticker.n));
    m.set("sim.slice_ms_p50", 0.0, None);
    m.set("sim.slice_ms_p99", 0.0, None);
    m.set("sim.tasks_live", own.live_tasks as f64, None);
    m.set(
        "shard.speedup_vs_1",
        rep1.run_wall_s / rep2.run_wall_s,
        reps,
    );
    m.set(
        "shard.cpu_ratio_vs_1",
        rep2.cpu_s / rep1.cpu_s.max(f64::MIN_POSITIVE),
        reps,
    );
    m.set("shard.events", own.events as f64, None);
    m.set(
        "shard.trace_identical",
        f64::from(u8::from(identical)),
        None,
    );
    m.set(
        "slab.copied_bytes_per_seg",
        (d.copied_in + s.slab_copied_out) as f64 / d.delivered_alive.max(1) as f64,
        Some(d.delivered_alive),
    );
    m.set("slab.est_share", slab_share, None);
    m.set("atm.cells", (forwarded * cells_per) as f64, None);
    m.set("atm.est_share", atm_share, None);
    m.set("overlay.plan_s", pass.plan_s, Some(1));
    m.set("overlay.slices_forwarded", forwarded as f64, None);
    m.set(
        "overlay.relay_ns_per_slice",
        costs.ns("overlay.accept") + costs.ns("overlay.ring"),
        Some(costs.samples("overlay.ring") as u64),
    );
    m.set(
        "overlay.hop_us_p50",
        bucket_percentile(&s.hop_buckets, 50.0),
        hops,
    );
    m.set(
        "overlay.hop_us_p99",
        bucket_percentile(&s.hop_buckets, 99.0),
        hops,
    );
    m.set(
        "overlay.stripe_gap_max_us",
        s.stripe_gap_max_us_alive as f64,
        None,
    );
    m.set("overlay.p3_drops", s.p3_drops as f64, None);
    m.set("overlay.p8_skips", s.p8_skips as f64, None);
    m.set("overlay.grafts", s.hub_grafts as f64, None);
    m.set("overlay.unrepairable", s.hub_unrepairable as f64, None);
    m.set("overlay.est_share", overlay_share, None);
    // Codecs, clawback, the boards and the session plane carry nothing
    // in a broadcast. Neither do reassembly or the cell switch, and the
    // source's slab arena is private to the overlay, so their counters
    // read 0 as well.
    idle_layers(
        m,
        &[
            "segment.", "buffers.", "audio.", "video.", "core.", "session.", "slab.", "atm.",
        ],
    );
    finish_trace(result, &tracer, &costs, attributed, wall, 0.0, out_dir);
    let alive = s.viewers - s.crashed;
    result.attempted = alive * u64::from(cfg.segments);
    result.failed = s.lost_alive + s.late_alive + s.hub_unrepairable;
    result.notes.push(format!(
        "traced run: {} segments; run wall at 1 shard {:?} s, at 2 shards {:?} s; the sliced \
         scenario is skipped (`Cluster::run` consumes the cluster), so sim.slice_ms_* and \
         trace.overhead_share read 0",
        cfg.segments,
        one.iter().map(|r| r.run_wall_s).collect::<Vec<_>>(),
        two.iter().map(|r| r.run_wall_s).collect::<Vec<_>>(),
    ));
    result.history = broadcast_history(&own.lines, &d);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(wall: f64, lines: &[&str]) -> Repetition {
        Repetition {
            run_wall_s: wall,
            cpu_s: wall,
            lap_wall_s: Vec::new(),
            lines: lines.iter().map(|l| l.to_string()).collect(),
            events: 0,
            live_tasks: 0,
        }
    }

    #[test]
    fn the_fastest_repetition_is_chosen_by_wall_time() {
        let reps = [rep(3.0, &["a"]), rep(1.0, &["a"]), rep(2.0, &["a"])];
        assert_eq!(fastest_rep(&reps).run_wall_s, 1.0);
    }

    #[test]
    fn a_diverging_repetition_fails_the_identity_check() {
        let same = [rep(1.0, &["x", "y"]), rep(1.1, &["x", "y"])];
        assert!(identical_lines(&same));
        let differ = [rep(1.0, &["x", "y"]), rep(1.1, &["x", "z"])];
        assert!(!identical_lines(&differ));
        assert_ne!(
            digest_lines(&differ[0].lines),
            digest_lines(&differ[1].lines)
        );
        assert_eq!(digest_lines(&same[0].lines), digest_lines(&same[1].lines));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = RunResult {
            workload: Workload::Videophone,
            seed: 1,
            trace: false,
            metrics: MetricSet::default(),
            attempted: 1,
            failed: 0,
            checks: vec![Check::new("fine", true, "")],
            history: BTreeMap::new(),
            notes: Vec::new(),
        };
        assert!(r.correct());
        r.checks.push(Check::new("digest", false, "a != b"));
        assert!(!r.correct());
        assert_eq!(r.to_json().get("correct").unwrap().as_bool(), Some(false));
    }
}
