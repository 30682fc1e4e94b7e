//! The assembled Pandora's Box (figures 1.2/1.3/3.3/3.5).
//!
//! Wires the five boards together: capture and mixer boards joined to the
//! server by 100 Mbit/s FIFOs, the audio board by a 20 Mbit/s link, the
//! network board on the box's ATM attachment; the server switch fans
//! streams out through ready-mode decoupling buffers, with the audio/video
//! split toward the network of figure 3.7. "The host states what it wants
//! done with the streams, and they then run continuously until stopped."

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use pandora_atm::Vci;
use pandora_audio::{gen::Signal, Muting, MutingConfig};
use pandora_buffers::{
    ByteSlab, DecouplingHandle, Descriptor, Pool, ReadyGate, ReportClass, Reporter,
};
use pandora_segment::{AudioSegment, Segment, SlabSegment, StreamId, VideoSegment};
use pandora_sim::{
    link_over, link_queue, Cpu, LinkConfig, LinkSender, Receiver, Sender, SimTime, Spawner,
};
use pandora_video::CaptureConfig;

use crate::audio_board::{
    spawn_audio_capture, spawn_audio_playback, CaptureConfig as MicConfig, CaptureStats,
    PlaybackConfig, SpeakerSink,
};
use crate::config::{BoxConfig, SLAB_BUFFERS, SLAB_BYTES};
use crate::hostlog::ReportLog;
use crate::msg::{OutputId, SegMsg, StreamKind, SwitchCommand, SwitchEntry};
use crate::network_board::{spawn_net_in, spawn_net_out, NetInStats, NetOutConfig, NetOutStats};
use crate::server_board::{spawn_switch, SwitchOutputs, SwitchStats};
use crate::video_boards::{
    spawn_video_capture, spawn_video_display, Camera, DisplaySink, VideoCaptureHandle,
};

/// Capacity of each output decoupling buffer downstream of the switch, in
/// segments (§3.7.1), except the network audio buffer, which
/// [`BoxConfig::audio_net_buffer`] keeps small.
const DECOUPLING_CAPACITY: usize = 32;

/// Copies an input device's segment into the slab (the hop's single input
/// copy, §3.4) and pools a descriptor over it. `None` means the slab or
/// the pool is exhausted — the caller reports and discards.
fn alloc_slab_segment(
    pool: &Pool<SlabSegment>,
    slab: &ByteSlab,
    segment: &Segment,
) -> Option<Descriptor> {
    let slabseg = SlabSegment::from_segment(segment, slab).ok()?;
    pool.try_alloc(slabseg).ok()
}

/// What the output side of a box is built with: every decoupling buffer
/// and device link downstream of the switch comes out of one of these.
struct Outputs<'a> {
    spawner: &'a Spawner,
    name: &'static str,
    ready_mode: bool,
    pool: Pool<SlabSegment>,
    reports: &'a Reporter,
    buffers: Rc<RefCell<Vec<DecouplingHandle>>>,
}

impl Outputs<'_> {
    /// Builds the decoupling buffer `{name}:{label}` (§3.7.1); returns the
    /// switch's gate into it and the queue its output handler drains.
    fn gate<T: 'static>(&self, label: &str, cap: usize) -> (ReadyGate<T>, Receiver<T>) {
        let name = format!("{}:{label}", self.name);
        let (gate, queue, handle) =
            pandora_buffers::decoupling(&name, cap, self.ready_mode, self.reports);
        self.buffers.borrow_mut().push(handle);
        (gate, queue)
    }

    /// Spawns the link `wire` to a board and the output handler
    /// `{name}:{handler}` that feeds it what `buffered` delivers: the
    /// segments `pick` accepts leave the slab here — the second (and last)
    /// payload copy of the hop — and any other kind is reported under
    /// `handler` (§3.8).
    fn device_link<T: 'static>(
        &self,
        handler: &'static str,
        wire: LinkConfig,
        buffered: Receiver<SegMsg>,
        pick: fn(Segment) -> Option<T>,
        size: fn(&T) -> usize,
    ) -> Receiver<(StreamId, T)> {
        let (wire_tx, source) = link_queue::<(StreamId, T)>();
        let (wire_rx, _) = link_over(self.spawner, wire, source, move |(_, seg)| size(seg));
        let pool = self.pool.clone();
        let mut reports = self.reports.named(handler);
        self.spawner
            .spawn(&format!("{}:{handler}", self.name), async move {
                while let Ok(m) = buffered.recv().await {
                    let seg = pool.with(m.desc, |s| s.to_segment());
                    pool.release(m.desc);
                    if let Some(seg) = pick(seg) {
                        if wire_tx.send((m.stream, seg)).await.is_err() {
                            return;
                        }
                    } else {
                        let message = format_args!("segment of the wrong kind ({})", m.stream);
                        reports.report("kind", ReportClass::Error, message);
                    }
                }
            });
        wire_rx
    }
}

/// One Pandora's Box: boards, switch, buffers, instrumentation.
pub struct PandoraBox {
    /// Configuration in force.
    pub config: BoxConfig,
    /// The host-side report log.
    pub log: ReportLog,
    /// Switch statistics.
    pub switch_stats: SwitchStats,
    /// Network transmit statistics.
    pub net_out_stats: NetOutStats,
    /// Network receive statistics.
    pub net_in_stats: NetInStats,
    /// Speaker-side audio instrumentation.
    pub speaker: SpeakerSink,
    /// Display-side video instrumentation.
    pub display: DisplaySink,
    /// The camera shared by capture streams.
    pub camera: Camera,
    /// The P8 stream-health monitor, when [`BoxConfig::health`] is set.
    pub health: Option<crate::health::HealthBoard>,
    /// The server board's segment pool: descriptors over slab-backed
    /// payloads. Only indices move between boards (§3.4).
    pub pool: Pool<SlabSegment>,
    /// The payload byte arena every pooled segment points into.
    pub slab: ByteSlab,
    /// The audio transputer.
    pub audio_cpu: Cpu,
    /// The server transputer.
    pub server_cpu: Cpu,
    /// The capture transputer.
    pub capture_cpu: Cpu,
    /// The mixer transputer.
    pub mixer_cpu: Cpu,

    spawner: Spawner,
    buffer_handles: Rc<RefCell<Vec<pandora_buffers::DecouplingHandle>>>,
    switch_cmd: Sender<SwitchCommand>,
    to_switch: Sender<SegMsg>,
    muting: Option<Rc<RefCell<Muting>>>,
    next_stream: Cell<u32>,
    opened: RefCell<BTreeMap<StreamId, SimTime>>,
    mic_stats: RefCell<Vec<CaptureStats>>,
    repository_rx: RefCell<Option<Receiver<(StreamId, Segment)>>>,
    session_rx: RefCell<Option<Receiver<(StreamId, Segment)>>>,
}

impl PandoraBox {
    /// Builds a box attached to the network via `net_tx`/`net_rx`.
    pub fn new(
        spawner: &Spawner,
        config: BoxConfig,
        net_tx: LinkSender<pandora_atm::Cell>,
        net_rx: Receiver<pandora_atm::Cell>,
    ) -> PandoraBox {
        let name = config.name;
        let log = ReportLog::spawn(spawner, name);
        let reports = log.reporter(name);
        let pool: Pool<SlabSegment> = Pool::new(config.pool_buffers);
        let slab = ByteSlab::new(SLAB_BUFFERS, SLAB_BYTES);

        let audio_cpu = Cpu::new(&format!("{name}.audio"), config.switch_cost);
        let server_cpu = Cpu::new(&format!("{name}.server"), config.switch_cost);
        let capture_cpu = Cpu::new(&format!("{name}.capture"), config.switch_cost);
        let mixer_cpu = Cpu::new(&format!("{name}.mixer"), config.switch_cost);

        // --- Output decoupling buffers (downstream of the switch, §3.7.1).
        let outputs = Outputs {
            spawner,
            name,
            ready_mode: config.ready_mode,
            pool: pool.clone(),
            reports: &reports,
            buffers: Rc::default(),
        };
        let (net_audio_gate, net_audio_rx) = outputs.gate("net-audio", config.audio_net_buffer);
        let (net_video_gate, net_video_rx) = outputs.gate("net-video", DECOUPLING_CAPACITY);
        let (audio_gate, audio_out_rx) = outputs.gate("audio-out", DECOUPLING_CAPACITY);
        let (mixer_gate, mixer_out_rx) = outputs.gate("mixer-out", DECOUPLING_CAPACITY);
        let (repo_gate, repo_out_rx) = outputs.gate("repo-out", DECOUPLING_CAPACITY);
        let (session_gate, session_out_rx) = outputs.gate("session-out", DECOUPLING_CAPACITY);

        // --- The switch.
        let (to_switch, switch_in_rx) = pandora_sim::channel::<SegMsg>();
        let (switch_cmd, switch_cmd_rx) = pandora_sim::unbounded::<SwitchCommand>();
        let switch_outputs = SwitchOutputs {
            net_audio: Some(net_audio_gate),
            net_video: Some(net_video_gate),
            audio: Some(audio_gate),
            mixer: Some(mixer_gate),
            test: None,
            repository: Some(repo_gate),
            session: Some(session_gate),
        };
        let switch_stats = spawn_switch(
            spawner,
            name,
            switch_in_rx,
            switch_cmd_rx,
            config.command_priority,
            switch_outputs,
            pool.clone(),
            server_cpu.clone(),
            pandora_sim::SimDuration::from_nanos(config.video_costs.switch_per_segment_ns),
            &reports,
        );

        // --- Network board.
        let net_out_stats = spawn_net_out(
            spawner,
            name,
            NetOutConfig {
                mode: config.tx_mode,
                video_backlog_cap: config.video_backlog_cap,
                audio_priority: config.audio_priority,
                p3_oldest_first: config.p3_oldest_first,
            },
            net_audio_rx,
            net_video_rx,
            net_tx,
            pool.clone(),
            &reports,
        );
        let net_in_stats = spawn_net_in(
            spawner,
            name,
            net_rx,
            to_switch.clone(),
            pool.clone(),
            slab.clone(),
            &reports,
        );

        // --- Audio board: server → (20 Mbit/s link) → clawback/mixer.
        let muting = if config.muting_enabled {
            Some(Rc::new(RefCell::new(Muting::new(MutingConfig::default()))))
        } else {
            None
        };
        let audio_link_rx = outputs.device_link(
            "audio-out-handler",
            LinkConfig::new(
                Box::leak(format!("{name}.audio-link").into_boxed_str()),
                config.audio_link_bps,
            ),
            audio_out_rx,
            |seg| match seg {
                Segment::Audio(a) => Some(a),
                Segment::Video(_) | Segment::Test(_) => None,
            },
            AudioSegment::wire_bytes,
        );
        let playback_config = PlaybackConfig {
            clawback: config.clawback,
            charge_clawback: true,
            charge_muting: config.muting_enabled,
            charge_interface: true,
            costs: config.audio_costs,
            drift: config.clock_drift,
            record_output: false,
            output_priority: config.output_priority,
        };
        let speaker = spawn_audio_playback(
            spawner,
            name,
            playback_config,
            muting.clone(),
            audio_cpu.clone(),
            audio_link_rx,
            &reports,
        );

        // --- Mixer board: server → (100 Mbit/s fifo) → display.
        let video_fifo_rx = outputs.device_link(
            "mixer-out-handler",
            LinkConfig::new(
                Box::leak(format!("{name}.video-fifo").into_boxed_str()),
                config.video_fifo_bps,
            ),
            mixer_out_rx,
            |seg| match seg {
                Segment::Video(v) => Some(v),
                Segment::Audio(_) | Segment::Test(_) => None,
            },
            VideoSegment::wire_bytes,
        );
        let display = spawn_video_display(
            spawner,
            name,
            pandora_video::DEFAULT_WIDTH,
            pandora_video::DEFAULT_HEIGHT,
            video_fifo_rx,
            config.video_costs,
            mixer_cpu.clone(),
        );

        // --- Repository tap: SegMsg → (stream, segment) for attachments.
        let (repo_tx, repo_rx) = pandora_sim::channel::<(StreamId, Segment)>();
        {
            let pool = pool.clone();
            spawner.spawn(&format!("{name}:repo-out-handler"), async move {
                while let Ok(m) = repo_out_rx.recv().await {
                    let seg = pool.with(m.desc, |s| s.to_segment());
                    pool.release(m.desc);
                    if repo_tx.send((m.stream, seg)).await.is_err() {
                        return;
                    }
                }
            });
        }

        // --- Session tap: control segments routed to [`OutputId::Session`]
        // surface here for the box's session agent.
        let (session_tx, session_rx) = pandora_sim::channel::<(StreamId, Segment)>();
        {
            let pool = pool.clone();
            spawner.spawn(&format!("{name}:session-out-handler"), async move {
                while let Ok(m) = session_out_rx.recv().await {
                    let seg = pool.with(m.desc, |s| s.to_segment());
                    pool.release(m.desc);
                    if session_tx.send((m.stream, seg)).await.is_err() {
                        return;
                    }
                }
            });
        }

        // --- Camera.
        let camera = Camera::spawn(
            spawner,
            name,
            pandora_video::DEFAULT_WIDTH,
            pandora_video::DEFAULT_HEIGHT,
        );

        // --- P8 local adaptation (opt-in): the health monitor samples
        // the box's own counters and mutes audio / thins video locally.
        let health = config.health.then(|| {
            crate::health::HealthBoard::spawn(spawner, name, speaker.clone(), net_out_stats.clone())
        });

        PandoraBox {
            config,
            log,
            switch_stats,
            net_out_stats,
            net_in_stats,
            speaker,
            display,
            camera,
            health,
            pool,
            slab,
            audio_cpu,
            server_cpu,
            capture_cpu,
            mixer_cpu,
            spawner: spawner.clone(),
            buffer_handles: outputs.buffers,
            switch_cmd,
            to_switch,
            muting,
            next_stream: Cell::new(1),
            opened: RefCell::new(BTreeMap::new()),
            mic_stats: RefCell::new(Vec::new()),
            repository_rx: RefCell::new(Some(repo_rx)),
            session_rx: RefCell::new(Some(session_rx)),
        }
    }

    /// Allocates a fresh stream number ("to set data flowing, it is
    /// necessary to allocate a new stream number", §1.1).
    pub fn alloc_stream(&self) -> StreamId {
        let id = self.next_stream.get();
        self.next_stream.set(id + 1);
        let stream = StreamId(id);
        self.opened.borrow_mut().insert(
            stream,
            pandora_sim::try_now().unwrap_or_else(|| self.spawner.now()),
        );
        stream
    }

    /// Installs the switch route for a stream.
    pub fn set_route(&self, stream: StreamId, kind: StreamKind, dests: Vec<OutputId>) {
        let opened_at = self
            .opened
            .borrow()
            .get(&stream)
            .copied()
            .unwrap_or_else(|| pandora_sim::try_now().unwrap_or_else(|| self.spawner.now()));
        let entry = SwitchEntry {
            dests,
            kind,
            opened_at,
        };
        self.switch_cmd
            .try_send(SwitchCommand::SetRoute { stream, entry })
            .expect("switch command channel unbounded");
    }

    /// Adds a destination to a live stream (splitting, Principle 6).
    pub fn add_dest(&self, stream: StreamId, dest: OutputId) {
        self.switch_cmd
            .try_send(SwitchCommand::AddDest { stream, dest })
            .expect("switch command channel unbounded");
    }

    /// Removes a destination from a live stream.
    pub fn remove_dest(&self, stream: StreamId, dest: OutputId) {
        self.switch_cmd
            .try_send(SwitchCommand::RemoveDest { stream, dest })
            .expect("switch command channel unbounded");
    }

    /// Tears down a stream's routing.
    pub fn clear_route(&self, stream: StreamId) {
        self.switch_cmd
            .try_send(SwitchCommand::DropRoute { stream })
            .expect("switch command channel unbounded");
    }

    /// Asks the switch to report on a stream.
    pub fn query_stream(&self, stream: StreamId) {
        self.switch_cmd
            .try_send(SwitchCommand::Query { stream })
            .expect("switch command channel unbounded");
    }

    /// Starts an audio source (microphone or line-in) as a new stream.
    ///
    /// The segments travel over the audio board's 20 Mbit/s link to the
    /// server input handler, which launches them into the switch. Returns
    /// the stream number; call [`PandoraBox::set_route`] to plumb it.
    pub fn start_audio_source(&self, signal: Box<dyn Signal>) -> StreamId {
        let stream = self.alloc_stream();
        let name = self.config.name;
        let link_cfg = LinkConfig::new(
            Box::leak(format!("{name}.mic-link:{stream}").into_boxed_str()),
            self.config.audio_link_bps,
        );
        // The capture task's own output channel is what the link drains.
        let (seg_tx, seg_rx) = pandora_sim::channel::<AudioSegment>();
        let (mic_link_rx, _) = link_over(&self.spawner, link_cfg, seg_rx, AudioSegment::wire_bytes);
        self.spawn_input(
            format!("server-audio-in:{stream}"),
            mic_link_rx,
            move |seg| (stream, Segment::Audio(seg)),
        );
        let stats = spawn_audio_capture(
            &self.spawner,
            &format!("{name}:{stream}"),
            MicConfig {
                signal,
                blocks_per_segment: self.config.blocks_per_segment,
                drift: self.config.clock_drift,
                outgoing_cost: pandora_sim::SimDuration::from_nanos(
                    self.config.audio_costs.outgoing_per_block_ns,
                ),
                fifo_depth: 16,
            },
            self.muting.clone(),
            self.audio_cpu.clone(),
            seg_tx,
        );
        self.mic_stats.borrow_mut().push(stats);
        stream
    }

    /// Starts a video capture stream from the local camera.
    pub fn start_video_capture(&self, config: CaptureConfig) -> (StreamId, VideoCaptureHandle) {
        let stream = self.alloc_stream();
        let name = self.config.name;
        let fifo_cfg = LinkConfig::new(
            Box::leak(format!("{name}.capture-fifo:{stream}").into_boxed_str()),
            self.config.video_fifo_bps,
        );
        // The capture task's own output channel is what the FIFO drains.
        let (seg_tx, seg_rx) = pandora_sim::channel::<(StreamId, VideoSegment)>();
        let (fifo_rx, _) = link_over(&self.spawner, fifo_cfg, seg_rx, |(_, seg)| seg.wire_bytes());
        let handle = spawn_video_capture(
            &self.spawner,
            name,
            stream,
            &self.camera,
            config,
            self.config.video_costs,
            self.capture_cpu.clone(),
            seg_tx,
        );
        self.spawn_input(
            format!("server-video-in:{stream}"),
            fifo_rx,
            |(sid, seg)| (sid, Segment::Video(seg)),
        );
        // The health monitor throttles every capture stream (P8).
        if let Some(h) = &self.health {
            h.register_capture(handle.clone());
        }
        (stream, handle)
    }

    /// Takes the repository tap (streams routed to
    /// [`OutputId::Repository`] arrive here). Can be taken once.
    pub fn take_repository_rx(&self) -> Option<Receiver<(StreamId, Segment)>> {
        self.repository_rx.borrow_mut().take()
    }

    /// Takes the session tap (control streams routed to
    /// [`OutputId::Session`] arrive here). Can be taken once — normally by
    /// the box's session agent.
    pub fn take_session_rx(&self) -> Option<Receiver<(StreamId, Segment)>> {
        self.session_rx.borrow_mut().take()
    }

    /// Returns a sender that feeds `(stream, segment)` pairs into this
    /// box's switch — an input device handler for external attachments
    /// (e.g. repository playback). Each call spawns a fresh handler task.
    pub fn injector(&self) -> Sender<(StreamId, Segment)> {
        let (tx, rx) = pandora_sim::channel::<(StreamId, Segment)>();
        self.spawn_input("injector".to_string(), rx, |tagged| tagged);
        tx
    }

    /// Spawns the input handler `{name}:{task}` (figure 3.3) over what a
    /// device delivers: each segment is copied into the slab, pooled and
    /// launched into the switch under the stream `tag` gives it. Input
    /// handlers run lossless to the switch; only pool or slab exhaustion —
    /// the paper's "serious fault" — discards, and the handler reports it
    /// under its task name (§3.8).
    fn spawn_input<T: 'static>(
        &self,
        task: String,
        device: Receiver<T>,
        tag: impl Fn(T) -> (StreamId, Segment) + 'static,
    ) {
        let to_switch = self.to_switch.clone();
        let pool = self.pool.clone();
        let slab = self.slab.clone();
        let mut reports = self.log.reporter(&task);
        let name = self.config.name;
        self.spawner.spawn(&format!("{name}:{task}"), async move {
            while let Ok(item) = device.recv().await {
                let (stream, segment) = tag(item);
                if let Some(desc) = alloc_slab_segment(&pool, &slab, &segment) {
                    if to_switch.send(SegMsg { stream, desc }).await.is_err() {
                        return;
                    }
                } else {
                    let message = "segment pool exhausted, discarding";
                    reports.report("pool", ReportClass::Fault, message);
                }
            }
        });
    }

    /// The muting state machine, when enabled.
    pub fn muting(&self) -> Option<Rc<RefCell<Muting>>> {
        self.muting.clone()
    }

    /// Handles onto the box's decoupling buffers, for diagnostics — the
    /// paper's "a command can be used to request a report from the buffer
    /// process" made programmatic.
    pub fn buffer_handles(&self) -> Vec<pandora_buffers::DecouplingHandle> {
        self.buffer_handles.borrow().clone()
    }

    /// Capture statistics of started audio sources, in start order.
    pub fn mic_stats(&self) -> Vec<CaptureStats> {
        self.mic_stats.borrow().clone()
    }
}

/// A pair of boxes joined by symmetric multi-hop ATM paths.
pub struct BoxPair {
    /// First box.
    pub a: PandoraBox,
    /// Second box.
    pub b: PandoraBox,
    /// Loss stats of the a→b path hops.
    pub a_to_b: Vec<pandora_atm::FabricCounters>,
    /// Loss stats of the b→a path hops.
    pub b_to_a: Vec<pandora_atm::FabricCounters>,
    /// Fault-injection control of the a→b path (links and egress stage).
    pub a_to_b_ctrl: pandora_atm::PathControl,
    /// Fault-injection control of the b→a path.
    pub b_to_a_ctrl: pandora_atm::PathControl,
}

/// Connects two boxes with the given hop profile in each direction.
///
/// The paths are built with fault-injection controls, inert unless
/// driven.
pub fn connect_pair(
    spawner: &Spawner,
    cfg_a: BoxConfig,
    cfg_b: BoxConfig,
    hops: &[pandora_atm::HopConfig],
    seed: u64,
) -> BoxPair {
    let (a_tx, b_rx, a_to_b, a_to_b_ctrl) =
        pandora_atm::build_path_controlled(spawner, "pair.ab", hops, seed);
    let (b_tx, a_rx, b_to_a, b_to_a_ctrl) =
        pandora_atm::build_path_controlled(spawner, "pair.ba", hops, seed ^ 0xDEAD);
    let a = PandoraBox::new(spawner, cfg_a, a_tx, a_rx);
    let b = PandoraBox::new(spawner, cfg_b, b_tx, b_rx);
    BoxPair {
        a,
        b,
        a_to_b,
        b_to_a,
        a_to_b_ctrl,
        b_to_a_ctrl,
    }
}

/// Sets up a one-way audio stream from `src` to `dst` (a "shout", §4.1).
///
/// Returns `(source stream at src, arriving stream at dst)`.
pub fn open_audio_shout(
    src: &PandoraBox,
    dst: &PandoraBox,
    signal: Box<dyn Signal>,
) -> (StreamId, StreamId) {
    let dst_stream = dst.alloc_stream();
    dst.set_route(dst_stream, StreamKind::Audio, vec![OutputId::Audio]);
    let src_stream = src.start_audio_source(signal);
    src.set_route(
        src_stream,
        StreamKind::Audio,
        vec![OutputId::Network(Vci::from_stream(dst_stream))],
    );
    (src_stream, dst_stream)
}

/// Sets up a one-way video stream from `src` to `dst`.
pub fn open_video_stream(
    src: &PandoraBox,
    dst: &PandoraBox,
    config: CaptureConfig,
) -> (StreamId, StreamId, VideoCaptureHandle) {
    let dst_stream = dst.alloc_stream();
    dst.set_route(dst_stream, StreamKind::Video, vec![OutputId::Mixer]);
    let (src_stream, handle) = src.start_video_capture(config);
    src.set_route(
        src_stream,
        StreamKind::Video,
        vec![OutputId::Network(Vci::from_stream(dst_stream))],
    );
    (src_stream, dst_stream, handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_atm::HopConfig;
    use pandora_audio::gen::Tone;
    use pandora_sim::{SimDuration, Simulation};
    use pandora_video::dpcm::LineMode;
    use pandora_video::{RateFraction, Rect};

    fn clean_pair(sim: &Simulation) -> BoxPair {
        connect_pair(
            &sim.spawner(),
            BoxConfig::standard("boxa"),
            BoxConfig::standard("boxb"),
            &[HopConfig::clean(50_000_000)],
            7,
        )
    }

    #[test]
    fn audio_travels_between_boxes() {
        let mut sim = Simulation::new();
        let pair = clean_pair(&sim);
        open_audio_shout(&pair.a, &pair.b, Box::new(Tone::new(440.0, 8_000.0)));
        sim.run_until(pandora_sim::SimTime::from_secs(2));
        assert!(
            pair.b.speaker.segments_received() > 400,
            "segments {}",
            pair.b.speaker.segments_received()
        );
        assert_eq!(pair.b.speaker.segments_lost(), 0);
        assert_eq!(pair.b.speaker.late_ticks(), 0);
        // The one-way trip time: paper's best was 8ms over a quiet network.
        let mut lat = pair.b.speaker.latency_ns();
        let p50 = lat.percentile(50.0) / 1e6;
        assert!(p50 < 15.0, "p50 one-way {p50}ms");
    }

    #[test]
    fn video_travels_between_boxes() {
        let mut sim = Simulation::new();
        let pair = clean_pair(&sim);
        open_video_stream(
            &pair.a,
            &pair.b,
            CaptureConfig {
                rect: Rect::new(16, 16, 128, 96),
                rate: RateFraction::new(2, 5),
                lines_per_segment: 32,
                mode: LineMode::Dpcm,
            },
        );
        sim.run_until(pandora_sim::SimTime::from_secs(2));
        let fps = pair.b.display.fps(SimDuration::from_secs(2));
        assert!((8.5..=10.5).contains(&fps), "fps {fps}");
        assert_eq!(pair.b.display.decode_errors(), 0);
    }

    #[test]
    fn duplex_call_works() {
        let mut sim = Simulation::new();
        let pair = clean_pair(&sim);
        open_audio_shout(&pair.a, &pair.b, Box::new(Tone::new(300.0, 6_000.0)));
        open_audio_shout(&pair.b, &pair.a, Box::new(Tone::new(400.0, 6_000.0)));
        sim.run_until(pandora_sim::SimTime::from_secs(1));
        assert!(pair.a.speaker.segments_received() > 200);
        assert!(pair.b.speaker.segments_received() > 200);
    }

    #[test]
    fn local_loopback_stream() {
        // Mic routed to the local audio output: never touches the network.
        let mut sim = Simulation::new();
        let pair = clean_pair(&sim);
        let s = pair
            .a
            .start_audio_source(Box::new(Tone::new(500.0, 6_000.0)));
        pair.a
            .set_route(s, StreamKind::Audio, vec![OutputId::Audio]);
        sim.run_until(pandora_sim::SimTime::from_secs(1));
        assert!(pair.a.speaker.segments_received() > 200);
        assert_eq!(pair.a.net_out_stats.audio_segments(), 0);
    }

    #[test]
    fn no_pool_leaks_after_run() {
        let mut sim = Simulation::new();
        let pair = clean_pair(&sim);
        open_audio_shout(&pair.a, &pair.b, Box::new(Tone::new(440.0, 8_000.0)));
        sim.run_until(pandora_sim::SimTime::from_secs(1));
        // In steady state nearly all buffers are free (a few in flight).
        assert!(
            pair.a.pool.free_count() > pair.a.pool.capacity() - 8,
            "a free {}",
            pair.a.pool.free_count()
        );
        assert!(
            pair.b.pool.free_count() > pair.b.pool.capacity() - 8,
            "b free {}",
            pair.b.pool.free_count()
        );
    }

    #[test]
    fn an_exhausted_pool_is_reported_once_a_period_by_every_input_handler() {
        // §3.8: "a minimum period between reports for any particular sort
        // of error". Two descriptors, and a camera routed into an
        // attachment whose link is down: everything after the first two
        // segments finds the pool empty.
        let mut sim = Simulation::new();
        let mut cfg = BoxConfig::standard("tiny");
        cfg.pool_buffers = 2;
        let period = crate::hostlog::REPORT_MIN_PERIOD;
        let pair = connect_pair(
            &sim.spawner(),
            cfg,
            BoxConfig::standard("boxb"),
            &[HopConfig::clean(50_000_000)],
            7,
        );
        pair.a_to_b_ctrl.link(0).expect("hop 0").set_up(false);
        open_video_stream(
            &pair.a,
            &pair.b,
            CaptureConfig {
                rect: Rect::new(0, 0, 256, 192),
                rate: RateFraction::FULL,
                lines_per_segment: 32,
                mode: LineMode::Dpcm,
            },
        );
        let injector = pair.a.injector();
        let stream = pair.a.alloc_stream();
        sim.spawn("inject", async move {
            pandora_sim::delay(SimDuration::from_secs(1)).await;
            let seg = AudioSegment::from_blocks(
                pandora_segment::SequenceNumber(0),
                pandora_segment::Timestamp(0),
                vec![0u8; 32],
            );
            injector.send((stream, Segment::Audio(seg))).await.unwrap();
        });
        let elapsed = SimDuration::from_secs(2);
        sim.run_until(SimTime::ZERO + elapsed);
        assert_eq!(pair.a.pool.free_count(), 0, "the pool never ran dry");
        let from_camera = pair.a.log.from_source("server-video-in").len() as u64;
        let allowed = elapsed.as_nanos() / period.as_nanos() + 1;
        assert!(
            (1..=allowed).contains(&from_camera),
            "{from_camera} reports in {elapsed}, one per {period} allowed"
        );
        let from_injector = pair.a.log.from_source("injector");
        assert_eq!(
            from_injector.len(),
            1,
            "the injector's drop went unreported"
        );
        assert_eq!(from_injector[0].class, ReportClass::Fault);
    }

    #[test]
    fn query_produces_host_log_entry() {
        let mut sim = Simulation::new();
        let pair = clean_pair(&sim);
        let (src, _dst) = open_audio_shout(&pair.a, &pair.b, Box::new(Tone::new(440.0, 8_000.0)));
        pair.a.query_stream(src);
        sim.run_until(pandora_sim::SimTime::from_millis(100));
        let infos = pair.a.log.of_class(ReportClass::Info);
        assert!(!infos.is_empty(), "no query report in host log");
    }

    #[test]
    fn clear_route_stops_traffic() {
        let mut sim = Simulation::new();
        let pair = clean_pair(&sim);
        let (src, _dst) = open_audio_shout(&pair.a, &pair.b, Box::new(Tone::new(440.0, 8_000.0)));
        sim.run_until(pandora_sim::SimTime::from_millis(500));
        let before = pair.b.speaker.segments_received();
        assert!(before > 0);
        pair.a.clear_route(src);
        sim.run_until(pandora_sim::SimTime::from_millis(600));
        let at_stop = pair.b.speaker.segments_received();
        sim.run_until(pandora_sim::SimTime::from_secs(1));
        let after = pair.b.speaker.segments_received();
        assert!(
            after - at_stop <= 2,
            "traffic kept flowing: {at_stop}->{after}"
        );
        let _ = before;
    }
}
