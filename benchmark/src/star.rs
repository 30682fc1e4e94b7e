//! The two star-fabric workloads — the duplex videophone and the 16-box
//! audio conference — built on the session API and driven to a fixed
//! amount of simulated work.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use pandora::{BoxConfig, VideoCaptureHandle};
use pandora_atm::{HopConfig, JitterModel};
use pandora_audio::gen::Speech;
use pandora_metrics::Histogram;
use pandora_session::{Controller, EndpointId, Star, StarConfig, StreamClass};
use pandora_sim::{SimDuration, SimTime, Simulation};
use pandora_video::dpcm::LineMode;
use pandora_video::{CaptureConfig, RateFraction, Rect};

use crate::spans::Tracer;
use crate::workload::{Inputs, Sizing, CONFERENCE_STEP, CONFERENCE_TAIL};

/// Which star scenario to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StarKind {
    Videophone,
    Conference16,
}

/// Boxes of the conference, and the roles of the first four.
const CONFERENCE_BOXES: usize = 16;
const SPEAKERS: usize = 3;
const ANCHOR: usize = 3;

/// Simulated length of set-up: the topology is built, every session of
/// call set-up is admitted (by 50 ms on the videophone's jittery path, by
/// 1 ms on the conference's clean one) and the sources have been running
/// for what is left of 100 ms. The measured window starts here.
const SETUP_WINDOW: SimDuration = SimDuration::from_millis(100);

/// Simulated length of one slice of the traced, sliced run.
pub const SLICE: SimDuration = SimDuration::from_millis(100);

/// Segments that may be in flight toward a sink (or cut off at a
/// subscription edge) without counting as lost: one playout window. The
/// audio path plays out about 30 ms behind the microphone and a
/// listener change takes a few ms to settle, so 16 four-ms segments;
/// video keeps at most two four-segment frames in flight.
const AUDIO_WINDOW_SEGMENTS: u64 = 16;
const VIDEO_WINDOW_SEGMENTS: u64 = 8;

/// Buffers a box may hold at the deadline without it counting as a leak
/// (`tests/end_to_end.rs` uses the same allowance).
const IN_FLIGHT_BUFFERS: usize = 12;

/// The camera window of the videophone call (`examples/videophone.rs`).
pub fn videophone_window() -> CaptureConfig {
    CaptureConfig {
        rect: Rect::new(64, 32, 256, 192),
        rate: RateFraction::new(2, 5),
        lines_per_segment: 48,
        mode: LineMode::Dpcm,
    }
}

/// The paper's bursty-jitter attachment (≈2 ms usual jitter end to end,
/// bursts toward 20 ms). Cell loss stays off: the builder's contract
/// wants workloads on which no operation fails, and 1e-4 loss costs this
/// call a tenth of its video frames.
fn videophone_hop() -> HopConfig {
    HopConfig {
        bits_per_sec: 50_000_000,
        latency: SimDuration::from_micros(250),
        jitter: JitterModel::Bursty {
            base: SimDuration::from_millis(1),
            burst: SimDuration::from_millis(10),
            burst_prob: 0.02,
        },
        loss: 0.0,
    }
}

/// Every box's crystal runs a few tens of ppm off true, as independent
/// quartz clocks do and as the paper's clawback buffers exist to absorb.
/// With perfect clocks every latency sample of a run sits on one 2 ms
/// grid and no percentile can move by less than a whole tick. The
/// offset is a fixed function of the box's name (`StarConfig::box_config`
/// is a plain `fn`), within ±50 ppm.
fn drifting_box(name: &'static str) -> BoxConfig {
    let mut config = BoxConfig::standard(name);
    let index: i64 = name.trim_start_matches("node").parse().unwrap_or(0);
    config.clock_drift = ((index * 37 + 11) % 101 - 50) as f64 * 1e-6;
    config
}

/// A named count taken from the public counters of a finished run.
/// Everything in it is simulated history, so it repeats exactly for a
/// seed and must not change when the run is sliced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Census(pub BTreeMap<&'static str, u64>);

impl Census {
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    fn add(&mut self, name: &'static str, n: u64) {
        *self.0.entry(name).or_insert(0) += n;
    }

    fn max(&mut self, name: &'static str, n: u64) {
        let e = self.0.entry(name).or_insert(0);
        *e = (*e).max(n);
    }
}

/// One (source stream, sink box) pair the driver subscribed at some
/// point: what was offered to the sink while it listened.
struct Subscription {
    sink: usize,
    video: bool,
    /// Segments the source has produced so far.
    produced: Rc<dyn Fn() -> u64>,
    offered: u64,
    open_at: Option<u64>,
    /// Subscribe and unsubscribe events, each of which may cut one
    /// window's worth of segments off either side of the ledger.
    edges: u64,
}

/// What the driver task records as it goes.
#[derive(Default)]
struct Ledger {
    subs: Vec<Subscription>,
    setup_done: bool,
    churn_done: bool,
    ops_issued: u64,
    ops_failed: u64,
    op_latency_ns: Vec<f64>,
}

impl Ledger {
    /// Adds one source's subscriptions, one per possible sink box, all
    /// closed; returns the index of the first. `produced` counts the
    /// segments the source has emitted.
    fn add_source(&mut self, sinks: usize, video: bool, produced: Rc<dyn Fn() -> u64>) -> usize {
        let first = self.subs.len();
        self.subs.extend((0..sinks).map(|sink| Subscription {
            sink,
            video,
            produced: produced.clone(),
            offered: 0,
            open_at: None,
            edges: 0,
        }));
        first
    }

    fn subscribe(&mut self, sub: usize) {
        let s = &mut self.subs[sub];
        s.open_at = Some((s.produced)());
        s.edges += 1;
    }

    fn unsubscribe(&mut self, sub: usize) {
        if self.close(sub) {
            self.subs[sub].edges += 1;
        }
    }

    /// Settles an open subscription's offered count; true if it was open.
    fn close(&mut self, sub: usize) -> bool {
        let s = &mut self.subs[sub];
        let Some(at) = s.open_at.take() else {
            return false;
        };
        s.offered += (s.produced)().saturating_sub(at);
        true
    }
}

/// A built star scenario, run to the end of call set-up.
pub struct StarRun {
    kind: StarKind,
    sim: Simulation,
    star: Star,
    cams: Vec<VideoCaptureHandle>,
    ledger: Rc<RefCell<Ledger>>,
    window_start: SimTime,
    deadline: SimTime,
    at_start: Census,
}

/// Everything a finished star run reports.
pub struct StarOutcome {
    /// Simulated seconds of the measured window.
    pub sim_s: f64,
    /// Counts over the measured window (set-up excluded).
    pub census: Census,
    /// Largest values seen (watermarks, live tasks) — not differences.
    pub peaks: Census,
    pub latency: Histogram,
    pub audio_wait: Histogram,
    pub clawback_delay_ms_p50: f64,
    pub op_latency_ns: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Controller digest plus one line per box.
    pub digest: Vec<String>,
    /// Violations of conservation or the leak audit; empty when clean.
    pub violations: Vec<String>,
}

impl StarRun {
    /// Builds the topology, starts the sources, spawns the driver task
    /// and runs to the end of the set-up window.
    pub fn build(kind: StarKind, inputs: &Inputs, sizing: &Sizing) -> StarRun {
        let mut sim = Simulation::new();
        let (boxes, hops) = match kind {
            StarKind::Videophone => (2, vec![videophone_hop()]),
            StarKind::Conference16 => (CONFERENCE_BOXES, StarConfig::default().hops),
        };
        let star = Star::build(
            &sim.spawner(),
            boxes,
            StarConfig {
                hops,
                seed: inputs.star_seed,
                box_config: drifting_box,
                ..StarConfig::default()
            },
        );
        let ledger = Rc::new(RefCell::new(Ledger::default()));
        let endpoints: Vec<EndpointId> = star.nodes.iter().map(|n| n.endpoint).collect();
        let controller = star.controller.clone();
        let mut cams = Vec::new();

        // (source endpoint, stream, class, subscription index per sink)
        let mut sessions = Vec::new();
        let talkers = match kind {
            StarKind::Videophone => 2,
            StarKind::Conference16 => SPEAKERS,
        };
        for (i, node) in star.nodes.iter().take(talkers).enumerate() {
            let boxy = node.boxy.clone();
            let mic = boxy.start_audio_source(Box::new(Speech::new(
                inputs.speech_seed.wrapping_add(i as u64),
            )));
            let produced = Rc::new(move || boxy.mic_stats()[0].segments());
            let first_sub = ledger.borrow_mut().add_source(boxes, false, produced);
            sessions.push((node.endpoint, mic, StreamClass::Audio, first_sub));
        }
        if kind == StarKind::Videophone {
            for node in &star.nodes {
                let (cam, handle) = node.boxy.start_video_capture(videophone_window());
                cams.push(handle.clone());
                let produced = Rc::new(move || handle.segments());
                let first_sub = ledger.borrow_mut().add_source(boxes, true, produced);
                let class = StreamClass::Video {
                    rate_permille: 1000,
                };
                sessions.push((node.endpoint, cam, class, first_sub));
            }
        }

        let driver_ledger = ledger.clone();
        let ops = sizing.conference_ops;
        let churn_seed = inputs.churn_seed;
        sim.spawn("bench:driver", async move {
            // Call set-up: every session gains its standing listener —
            // the far end of the videophone, the conference's anchor.
            let mut ids = Vec::new();
            for (i, &(src, stream, class, first_sub)) in sessions.iter().enumerate() {
                let id = controller
                    .open(src, stream, class)
                    .expect("source endpoint is registered");
                let sink = match kind {
                    StarKind::Videophone => 1 - i % 2,
                    StarKind::Conference16 => ANCHOR,
                };
                listen(
                    &controller,
                    &driver_ledger,
                    id,
                    endpoints[sink],
                    first_sub + sink,
                )
                .await;
                ids.push((id, first_sub));
            }
            driver_ledger.borrow_mut().setup_done = true;
            pandora_sim::delay_until(SimTime::ZERO + SETUP_WINDOW).await;
            if kind == StarKind::Conference16 {
                churn(
                    &controller,
                    &driver_ledger,
                    &endpoints,
                    &ids,
                    ops,
                    churn_seed,
                )
                .await;
            }
            driver_ledger.borrow_mut().churn_done = true;
        });

        // Set-up ends at a fixed simulated instant, not at the one the
        // last session happens to be admitted at: under jitter that
        // instant falls before or after the cameras' second frame
        // depending on the seed, and set-up time came in two sizes.
        let t = SimTime::ZERO + SETUP_WINDOW;
        sim.run_until(t);
        assert!(
            ledger.borrow().setup_done,
            "{kind:?}: call set-up did not finish within the set-up window"
        );
        let length = match kind {
            StarKind::Videophone => sizing.videophone,
            StarKind::Conference16 => {
                SimDuration(CONFERENCE_STEP.as_nanos() * sizing.conference_ops) + CONFERENCE_TAIL
            }
        };
        let mut run = StarRun {
            kind,
            sim,
            star,
            cams,
            ledger,
            window_start: t,
            deadline: t + length,
            at_start: Census::default(),
        };
        run.at_start = run.totals();
        run
    }

    /// Runs the measured window in one call. Returns wall seconds.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        self.sim.run_until(self.deadline);
        t0.elapsed().as_secs_f64()
    }

    /// Runs the measured window as equal laps and returns each lap's wall
    /// seconds per simulated second. A lap is a whole number of every
    /// period the scenario has, so that all laps hold the same work: 400
    /// ms for the videophone (cameras write a frame every 40 ms, the 2/5
    /// capture pattern repeats every 200 ms), 80 ms for the conference
    /// (cameras again; a control operation every 10 ms). What is left of
    /// the window after the last whole lap, and the conference's quiet
    /// tail, run afterwards and are not laps.
    pub fn run_laps(&mut self) -> Vec<f64> {
        let (lap, tail) = match self.kind {
            StarKind::Videophone => (SimDuration::from_millis(400), SimDuration::from_nanos(0)),
            StarKind::Conference16 => (SimDuration::from_millis(80), CONFERENCE_TAIL),
        };
        let busy = self.deadline.since(self.window_start).as_nanos() - tail.as_nanos();
        let mut out = Vec::new();
        let mut t = self.window_start;
        for _ in 0..busy / lap.as_nanos() {
            t += lap;
            let t0 = Instant::now();
            self.sim.run_until(t);
            out.push(t0.elapsed().as_secs_f64() / lap.as_secs_f64());
        }
        self.sim.run_until(self.deadline);
        out
    }

    /// Runs the measured window as `run_until` calls of [`SLICE`] each,
    /// one `sim.slice` span per call under a `sim.run` root. Returns the
    /// wall seconds of the whole window and of every slice.
    pub fn run_sliced(&mut self, tracer: &mut Tracer) -> (f64, Vec<f64>) {
        let mut slices = Vec::new();
        let t0 = Instant::now();
        let root = tracer.begin("sim.run");
        let mut t = self.window_start;
        while t < self.deadline {
            t = (t + SLICE).min(self.deadline);
            let s0 = Instant::now();
            let id = tracer.begin("sim.slice");
            self.sim.run_until(t);
            tracer.end(id);
            slices.push(s0.elapsed().as_secs_f64());
        }
        tracer.end(root);
        (t0.elapsed().as_secs_f64(), slices)
    }

    /// Cumulative counters since the simulation began.
    fn totals(&self) -> Census {
        let mut c = Census::default();
        for node in &self.star.nodes {
            let b = &node.boxy;
            c.add("audio_heard", b.speaker.segments_received());
            c.add("audio_lost", b.speaker.segments_lost());
            c.add("mix_ticks", b.speaker.ticks());
            c.add("late_ticks", b.speaker.late_ticks());
            c.add("concealed_blocks", b.speaker.concealed());
            let claw = b.speaker.clawback_stats();
            c.add("clawback_arrivals", claw.arrivals);
            c.add("clawback_served", claw.served);
            c.add("clawback_clawed_back", claw.clawed_back);
            c.add("clawback_silence_blocks", claw.empty_ticks);
            c.add("clawback_over_limit", claw.over_limit + claw.pool_full);
            c.add("video_displayed", b.display.segments());
            c.add("frames_shown", b.display.frames_shown());
            c.add("frames_dropped", b.display.frames_dropped());
            c.add("display_decode_errors", b.display.decode_errors());
            c.add("camera_frames", b.camera.frames());
            for mic in b.mic_stats() {
                c.add("mic_blocks", mic.blocks());
                c.add("mic_segments", mic.segments());
                c.add("mic_dropped_busy", mic.dropped_busy());
            }
            c.add("net_out_audio", b.net_out_stats.audio_segments());
            c.add("net_out_video", b.net_out_stats.video_segments());
            c.add("net_out_cells", b.net_out_stats.cells());
            c.add("p3_drops", b.net_out_stats.p3_drops_total());
            c.add("net_in_segments", b.net_in_stats.segments());
            c.add("net_in_decode_errors", b.net_in_stats.decode_errors());
            c.add("frames_discarded", b.net_in_stats.frames_discarded());
            c.add("net_in_pool_exhausted", b.net_in_stats.pool_exhausted());
            c.add("box_switch_forwarded", b.switch_stats.forwarded());
            c.add("box_switch_dropped", b.switch_stats.dropped_total());
            c.add("pool_allocs", b.pool.allocations());
            c.add("pool_exhausted_waits", b.pool.exhausted_waits());
            c.add("slab_allocs", b.slab.allocations());
            c.add("slab_alloc_failures", b.slab.alloc_failures());
            c.add("slab_copied_in", b.slab.copied_in_bytes());
            c.add("slab_copied_out", b.slab.copied_out_bytes());
            c.add("agent_handled", node.agent.handled());
            c.add("agent_rejected", node.agent.rejected());
        }
        for cam in &self.cams {
            c.add("capture_segments", cam.segments());
            c.add("capture_frames", cam.frames());
        }
        c.add("fabric_forwarded", self.star.switch.forwarded());
        c.add("fabric_overflow", self.star.switch.overflow());
        c.add("fabric_unroutable", self.star.switch.unroutable());
        let ctl = &self.star.controller;
        c.add("session_setups", ctl.setups());
        c.add("session_reconfigs", ctl.reconfigs());
        c.add("session_rejections", ctl.rejections());
        c.add("session_timeouts", ctl.timeouts());
        c.add("ctx_switches", self.sim.context_switches());
        c.add("tasks_spawned", self.sim.spawned_total());
        c
    }

    /// Closes the ledger and gathers everything the run reports.
    pub fn finish(self) -> StarOutcome {
        assert!(
            self.ledger.borrow().churn_done,
            "{:?}: the driver task did not finish before the deadline",
            self.kind
        );
        let end = self.totals();
        let mut census = Census::default();
        for (&name, &v) in &end.0 {
            census.add(name, v - self.at_start.get(name));
        }
        let mut peaks = Census::default();
        peaks.max("tasks_live", self.sim.live_tasks() as u64);
        let mut latency = Histogram::new();
        let mut audio_wait = Histogram::new();
        let mut clawback_delays = Vec::new();
        let mut violations = Vec::new();
        let mut digest = vec![self.star.controller.digest()];
        let boxes = self.star.nodes.len();

        let mut ledger = self.ledger.borrow_mut();
        // Closing the ledger at the deadline is not a listener change:
        // it adds no edge.
        for sub in 0..ledger.subs.len() {
            ledger.close(sub);
        }

        let (mut offered_total, mut failed) = (0u64, 0u64);
        for (i, node) in self.star.nodes.iter().enumerate() {
            let b = &node.boxy;
            latency.merge(&b.speaker.latency_ns());
            audio_wait.merge(&b.net_out_stats.audio_wait_ns());
            clawback_delays.extend(b.speaker.delay_series().points().iter().map(|p| p.1 / 1e6));
            peaks.max("active_streams", b.speaker.max_active_streams() as u64);
            for handle in b.buffer_handles() {
                peaks.max("decoupling_high_watermark", handle.high_watermark() as u64);
            }
            digest.push(format!(
                "node{i} recv={} lost={} late={} shown={} dropped={} handled={} sinks={}",
                b.speaker.segments_received(),
                b.speaker.segments_lost(),
                b.speaker.late_ticks(),
                b.display.frames_shown(),
                b.display.frames_dropped(),
                node.agent.handled(),
                node.agent.active_sinks(),
            ));

            // (d) Conservation per sink and medium: what the driver saw
            // offered is what arrived, was counted lost, or sits inside
            // one playout window per subscription edge.
            for video in [false, true] {
                let (mut offered, mut edges) = (0u64, 0u64);
                for s in ledger
                    .subs
                    .iter()
                    .filter(|s| s.sink == i && s.video == video)
                {
                    offered += s.offered;
                    edges += s.edges;
                }
                let (delivered, lost, window, what) = if video {
                    (
                        b.display.segments(),
                        b.net_in_stats.frames_discarded(),
                        VIDEO_WINDOW_SEGMENTS,
                        "video",
                    )
                } else {
                    (
                        b.speaker.segments_received(),
                        b.speaker.segments_lost(),
                        AUDIO_WINDOW_SEGMENTS,
                        "audio",
                    )
                };
                offered_total += offered;
                let in_flight = offered.abs_diff(delivered + lost);
                if in_flight > edges * window {
                    violations.push(format!(
                        "conservation: node{i} {what}: offered {offered} != delivered {delivered} \
                         + lost {lost} within {edges} window(s) of {window}"
                    ));
                }
            }
            failed += b.speaker.segments_lost()
                + b.speaker.late_ticks()
                + b.display.frames_dropped()
                + b.display.decode_errors()
                + b.net_in_stats.decode_errors()
                + b.net_in_stats.frames_discarded();

            // (e) Leak audit: a box may hold only what is in flight.
            let pool_held = b.pool.capacity() - b.pool.free_count();
            let slab_held = b.slab.capacity() - b.slab.free_count();
            if pool_held > IN_FLIGHT_BUFFERS || slab_held > IN_FLIGHT_BUFFERS {
                violations.push(format!(
                    "leak: node{i} holds {pool_held} descriptors and {slab_held} slabs at the \
                     deadline (allowance {IN_FLIGHT_BUFFERS})"
                ));
            }
        }
        // Control operations: the set-up listens plus the churn.
        let ops = ledger.ops_issued;
        failed += ledger.ops_failed;
        debug_assert!(boxes > 0);
        clawback_delays.sort_by(f64::total_cmp);
        StarOutcome {
            sim_s: self.deadline.since(self.window_start).as_secs_f64(),
            census,
            peaks,
            latency,
            audio_wait,
            clawback_delay_ms_p50: crate::stats::percentile_sorted(&clawback_delays, 50.0),
            op_latency_ns: std::mem::take(&mut ledger.op_latency_ns),
            attempted: offered_total + ops,
            failed,
            digest,
            violations,
        }
    }
}

/// One `add_listener`, timed in simulated ns and entered in the ledger.
async fn listen(
    controller: &Rc<Controller>,
    ledger: &Rc<RefCell<Ledger>>,
    session: u32,
    dst: EndpointId,
    sub: usize,
) -> bool {
    let t0 = pandora_sim::now();
    let outcome = controller.add_listener(session, dst).await;
    let took = pandora_sim::now().since(t0).as_nanos() as f64;
    let mut l = ledger.borrow_mut();
    l.ops_issued += 1;
    l.op_latency_ns.push(took);
    match outcome {
        Ok(_) => {
            l.subscribe(sub);
            true
        }
        // Rejected, timed out or errored: all count against the run.
        Err(_) => {
            l.ops_failed += 1;
            false
        }
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The conference's membership churn: every [`CONFERENCE_STEP`] one of
/// the twelve churners joins or leaves one of the three sessions, chosen
/// by the seeded generator. Memberships climb to half of the 36 possible
/// and then joins and leaves alternate, so every seed offers its sinks
/// the same load within one membership; which box listens to whom, and
/// when, is what the seed decides.
async fn churn(
    controller: &Rc<Controller>,
    ledger: &Rc<RefCell<Ledger>>,
    endpoints: &[EndpointId],
    sessions: &[(u32, usize)],
    ops: u64,
    seed: u64,
) {
    let first_churner = ANCHOR + 1;
    let churners = endpoints.len() - first_churner;
    let target = churners * sessions.len() / 2;
    let mut rng = seed;
    // (node, session index) pairs currently listening.
    let mut members: Vec<(usize, usize)> = Vec::new();
    for op in 0..ops {
        pandora_sim::delay(CONFERENCE_STEP).await;
        if members.len() >= target && op % 2 == 1 {
            let pick = xorshift(&mut rng) as usize % members.len();
            let (node, si) = members.swap_remove(pick);
            let (session, first_sub) = sessions[si];
            let t0 = pandora_sim::now();
            let outcome = controller.remove_listener(session, endpoints[node]).await;
            let took = pandora_sim::now().since(t0).as_nanos() as f64;
            let mut l = ledger.borrow_mut();
            l.ops_issued += 1;
            l.op_latency_ns.push(took);
            l.unsubscribe(first_sub + node);
            if outcome.is_err() {
                l.ops_failed += 1;
            }
        } else {
            // At most half the pairs plus one are taken, so a free one
            // turns up after two draws on average.
            let (node, si) = loop {
                let r = xorshift(&mut rng);
                let pair = (
                    first_churner + r as usize % churners,
                    (r >> 8) as usize % sessions.len(),
                );
                if !members.contains(&pair) {
                    break pair;
                }
            };
            let (session, first_sub) = sessions[si];
            if listen(
                controller,
                ledger,
                session,
                endpoints[node],
                first_sub + node,
            )
            .await
            {
                members.push((node, si));
            }
        }
    }
}
