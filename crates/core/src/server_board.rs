//! The server-board switch process (§3.4, figures 3.3/3.4).
//!
//! All streams in a box pass through the server transputer. Input device
//! handlers allocate pool buffers and launch descriptors into the switch;
//! the switch consults its per-stream table and fans copies out to output
//! device handlers through ready-mode decoupling buffers. "If an output
//! device falls so far behind the input that its decoupling buffer fills,
//! then the switch simply omits to send it any more segments (effectively
//! discarding traffic for that output only) until the buffer has free
//! slots again. The switch records how many segments have been dropped in
//! this way, and periodically sends reports while the condition persists"
//! (§3.7.1) — Principle 5.
//!
//! Commands are taken ahead of data by PRI ALT (Principle 4) and apply
//! "without disturbing the flows of data … there is no possibility of the
//! table changing during the processing of a segment" (Principle 6).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use pandora_atm::Vci;
use pandora_buffers::{Descriptor, Pool, ReadyGate, ReportClass, Reporter};
use pandora_metrics::CounterSet;
use pandora_segment::StreamId;
use pandora_sim::{alt2, Cpu, Either2, Receiver, SimDuration, Spawner};

use crate::msg::{OutputId, SegMsg, StreamKind, SwitchCommand, SwitchEntry};

/// A network-bound descriptor: stream, outgoing VCI, buffer index.
#[derive(Debug, Clone, Copy)]
pub struct NetMsg {
    /// The local stream number.
    pub stream: StreamId,
    /// The VCI to use on the wire (the destination's stream number).
    pub vci: Vci,
    /// Pool descriptor.
    pub desc: Descriptor,
    /// When the stream was opened (Principle 3's age ordering).
    pub opened_at: pandora_sim::SimTime,
}

/// The gates from the switch into each output handler's decoupling buffer.
///
/// Audio and video bound for the network are split into separate buffers
/// (figure 3.7) "so that it \[audio\] can be given priority (principle 2)".
/// The default leaves every output unattached.
#[derive(Default)]
pub struct SwitchOutputs {
    /// Network-bound audio (small buffer, drains first).
    pub net_audio: Option<ReadyGate<NetMsg>>,
    /// Network-bound video.
    pub net_video: Option<ReadyGate<NetMsg>>,
    /// Local audio playback (the audio board).
    pub audio: Option<ReadyGate<SegMsg>>,
    /// Local video display (the mixer board).
    pub mixer: Option<ReadyGate<SegMsg>>,
    /// Test output handler.
    pub test: Option<ReadyGate<SegMsg>>,
    /// Repository recorder.
    pub repository: Option<ReadyGate<SegMsg>>,
    /// Session agent (inbound control signalling).
    pub session: Option<ReadyGate<SegMsg>>,
}

/// Shared switch statistics.
#[derive(Clone, Default)]
pub struct SwitchStats {
    inner: Rc<RefCell<SwitchStatsInner>>,
}

#[derive(Default)]
struct SwitchStatsInner {
    forwarded: u64,
    dropped: CounterSet,
    no_route: u64,
}

impl SwitchStats {
    /// Segment copies successfully offered to output buffers.
    pub fn forwarded(&self) -> u64 {
        self.inner.borrow().forwarded
    }

    /// Copies dropped at a full output, keyed `"{stream}->{output}"`.
    pub fn dropped(&self, stream: StreamId, output: &str) -> u64 {
        self.inner
            .borrow()
            .dropped
            .get(&format!("{stream}->{output}"))
    }

    /// Total copies dropped at full outputs.
    pub fn dropped_total(&self) -> u64 {
        self.inner.borrow().dropped.total()
    }

    /// Segments for which no table entry existed.
    pub fn no_route(&self) -> u64 {
        self.inner.borrow().no_route
    }
}

/// Spawns the switch process.
///
/// * `input` — merged descriptor stream from all input device handlers;
/// * `commands` — the host/interface command channel (highest priority);
/// * `command_priority` — Principle 4: take commands ahead of data by PRI
///   ALT; when `false` data is polled first (the conformance ablation,
///   under which commands starve while inputs stay busy);
/// * `outputs` — ready-gates into the per-output decoupling buffers;
/// * `pool` — the server board's segment buffer pool (the switch never
///   inspects segment contents, so it works over any pooled type —
///   descriptors move, bytes do not);
/// * `cpu` — the server transputer (each segment pays a switching cost);
/// * `reports` — the log drops and query replies are reported on.
#[allow(clippy::too_many_arguments)]
pub fn spawn_switch<T: 'static>(
    spawner: &Spawner,
    name: &str,
    input: Receiver<SegMsg>,
    commands: Receiver<SwitchCommand>,
    command_priority: bool,
    mut outputs: SwitchOutputs,
    pool: Pool<T>,
    cpu: Cpu,
    per_segment_cost: SimDuration,
    reports: &Reporter,
) -> SwitchStats {
    let stats = SwitchStats::default();
    let s = stats.clone();
    let proc_name = format!("switch:{name}");
    let mut reports = reports.named(&proc_name);
    spawner.spawn(&proc_name, async move {
        let mut table: BTreeMap<StreamId, SwitchEntry> = BTreeMap::new();
        loop {
            // PRI ALT: commands first (Principle 4). With the principle
            // disabled, data is polled first and a busy input starves the
            // command channel.
            let next = if command_priority {
                alt2(&commands, &input).await
            } else {
                alt2(&input, &commands).await.map(|next| match next {
                    Either2::A(msg) => Either2::B(msg),
                    Either2::B(cmd) => Either2::A(cmd),
                })
            };
            match next {
                Ok(Either2::A(cmd)) => apply_command(&mut table, cmd, &reports),
                Ok(Either2::B(msg)) => {
                    cpu.claim(per_segment_cost).await;
                    let Some(entry) = table.get(&msg.stream) else {
                        s.inner.borrow_mut().no_route += 1;
                        pool.release(msg.desc);
                        continue;
                    };
                    if entry.dests.is_empty() {
                        pool.release(msg.desc);
                        continue;
                    }
                    // One reference already exists; each extra copy needs one.
                    if entry.dests.len() > 1 {
                        pool.add_refs(msg.desc, entry.dests.len() as u32 - 1);
                    }
                    let kind = entry.kind;
                    let opened_at = entry.opened_at;
                    // Fan-out borrows the table entry in place: Principle 6
                    // guarantees no command lands mid-segment, so no
                    // per-segment snapshot of the destination list is needed.
                    for &dest in &entry.dests {
                        let delivered =
                            offer(&mut outputs, dest, kind, opened_at, msg.stream, msg.desc).await;
                        match delivered {
                            Offered::Sent => s.inner.borrow_mut().forwarded += 1,
                            Offered::Dropped(output_name) => {
                                pool.release(msg.desc);
                                let key = format!("{}->{}", msg.stream, output_name);
                                s.inner.borrow_mut().dropped.incr(&key);
                                let total = s.inner.borrow().dropped.get(&key);
                                reports.report(
                                    &key,
                                    ReportClass::Overload,
                                    format_args!(
                                        "output {output_name} full: dropped {total} of {}",
                                        msg.stream
                                    ),
                                );
                            }
                        }
                    }
                }
                Err(_) => return,
            }
        }
    });
    stats
}

enum Offered {
    Sent,
    Dropped(&'static str),
}

async fn offer(
    outputs: &mut SwitchOutputs,
    dest: OutputId,
    kind: StreamKind,
    opened_at: pandora_sim::SimTime,
    stream: StreamId,
    desc: Descriptor,
) -> Offered {
    match dest {
        OutputId::Network(vci) => {
            // Control signalling shares the audio queue so the net-out
            // scheduler's Principle-2 priority also keeps it unstarved.
            let (gate, label) = match kind {
                StreamKind::Audio | StreamKind::Control => (&mut outputs.net_audio, "net-audio"),
                StreamKind::Video | StreamKind::Test => (&mut outputs.net_video, "net-video"),
            };
            match gate {
                Some(g) => {
                    if g.offer(NetMsg {
                        stream,
                        vci,
                        desc,
                        opened_at,
                    })
                    .await
                    {
                        Offered::Sent
                    } else {
                        Offered::Dropped(label)
                    }
                }
                None => Offered::Dropped(label),
            }
        }
        OutputId::Audio => offer_plain(&mut outputs.audio, "audio", stream, desc).await,
        OutputId::Mixer => offer_plain(&mut outputs.mixer, "mixer", stream, desc).await,
        OutputId::Test => offer_plain(&mut outputs.test, "test", stream, desc).await,
        OutputId::Repository => {
            offer_plain(&mut outputs.repository, "repository", stream, desc).await
        }
        OutputId::Session => offer_plain(&mut outputs.session, "session", stream, desc).await,
    }
}

async fn offer_plain(
    gate: &mut Option<ReadyGate<SegMsg>>,
    label: &'static str,
    stream: StreamId,
    desc: Descriptor,
) -> Offered {
    match gate {
        Some(g) => {
            if g.offer(SegMsg { stream, desc }).await {
                Offered::Sent
            } else {
                Offered::Dropped(label)
            }
        }
        None => Offered::Dropped(label),
    }
}

fn apply_command(
    table: &mut BTreeMap<StreamId, SwitchEntry>,
    cmd: SwitchCommand,
    reports: &Reporter,
) {
    match cmd {
        SwitchCommand::SetRoute { stream, entry } => {
            table.insert(stream, entry);
        }
        SwitchCommand::AddDest { stream, dest } => {
            if let Some(e) = table.get_mut(&stream) {
                if !e.dests.contains(&dest) {
                    e.dests.push(dest);
                }
            }
        }
        SwitchCommand::RemoveDest { stream, dest } => {
            if let Some(e) = table.get_mut(&stream) {
                e.dests.retain(|d| *d != dest);
            }
        }
        SwitchCommand::DropRoute { stream } => {
            table.remove(&stream);
        }
        SwitchCommand::Query { stream } => match table.get(&stream) {
            Some(e) => reports.reply(format_args!(
                "{stream}: kind={:?} dests={}",
                e.kind,
                e.dests.len()
            )),
            None => reports.reply(format_args!("{stream}: no route")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_buffers::{decoupling, Report};
    use pandora_segment::{AudioSegment, Segment, SequenceNumber, Timestamp};
    use pandora_sim::{channel, unbounded, Sender, SimTime, Simulation};

    fn seg() -> Segment {
        Segment::Audio(AudioSegment::from_blocks(
            SequenceNumber(0),
            Timestamp(0),
            vec![0u8; 32],
        ))
    }

    struct Rig {
        sim: Simulation,
        pool: Pool<Segment>,
        in_tx: Sender<SegMsg>,
        cmd_tx: Sender<SwitchCommand>,
        stats: SwitchStats,
        audio_out: Receiver<SegMsg>,
        test_out: Receiver<SegMsg>,
    }

    fn rig(audio_capacity: usize) -> Rig {
        let sim = Simulation::new();
        let spawner = sim.spawner();
        let pool = Pool::new(64);
        let (in_tx, in_rx) = channel::<SegMsg>();
        let (cmd_tx, cmd_rx) = unbounded::<SwitchCommand>();
        let (rep_tx, _rep_rx) = unbounded::<Report>();
        let reports = Reporter::new(rep_tx, "rig", SimDuration::from_millis(100));

        // Audio and test outputs, each with a ready-mode decoupling buffer.
        let (audio, audio_out, _) = decoupling("audio", audio_capacity, true, &reports);
        let (test, test_out, _) = decoupling("test", 16, true, &reports);
        let outputs = SwitchOutputs {
            audio: Some(audio),
            test: Some(test),
            ..SwitchOutputs::default()
        };
        let cpu = Cpu::new("server", SimDuration::ZERO);
        let stats = spawn_switch(
            &spawner,
            "t",
            in_rx,
            cmd_rx,
            true,
            outputs,
            pool.clone(),
            cpu,
            SimDuration::from_micros(20),
            &reports,
        );
        Rig {
            sim,
            pool,
            in_tx,
            cmd_tx,
            stats,
            audio_out,
            test_out,
        }
    }

    fn entry(dests: Vec<OutputId>) -> SwitchEntry {
        SwitchEntry {
            dests,
            kind: StreamKind::Audio,
            opened_at: SimTime::ZERO,
        }
    }

    #[test]
    fn routes_to_configured_destination() {
        let mut r = rig(8);
        let pool = r.pool.clone();
        let in_tx = r.in_tx.clone();
        let cmd_tx = r.cmd_tx.clone();
        r.sim.spawn("setup", async move {
            cmd_tx
                .send(SwitchCommand::SetRoute {
                    stream: StreamId(1),
                    entry: entry(vec![OutputId::Audio]),
                })
                .await
                .unwrap();
            let d = pool.alloc(seg()).await;
            in_tx
                .send(SegMsg {
                    stream: StreamId(1),
                    desc: d,
                })
                .await
                .unwrap();
        });
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        let out = r.audio_out;
        let pool2 = r.pool.clone();
        r.sim.spawn("sink", async move {
            while let Ok(m) = out.recv().await {
                g.borrow_mut().push(m.stream);
                pool2.release(m.desc);
            }
        });
        r.sim.run_until_idle();
        assert_eq!(*got.borrow(), vec![StreamId(1)]);
        assert_eq!(r.stats.forwarded(), 1);
        assert_eq!(r.pool.free_count(), 64);
    }

    #[test]
    fn unrouted_segment_released_and_counted() {
        let mut r = rig(8);
        let pool = r.pool.clone();
        let in_tx = r.in_tx.clone();
        r.sim.spawn("setup", async move {
            let d = pool.alloc(seg()).await;
            in_tx
                .send(SegMsg {
                    stream: StreamId(9),
                    desc: d,
                })
                .await
                .unwrap();
        });
        r.sim.run_until_idle();
        assert_eq!(r.stats.no_route(), 1);
        assert_eq!(r.pool.free_count(), 64);
    }

    #[test]
    fn split_to_two_destinations_refcounts() {
        let mut r = rig(8);
        let pool = r.pool.clone();
        let in_tx = r.in_tx.clone();
        let cmd_tx = r.cmd_tx.clone();
        r.sim.spawn("setup", async move {
            cmd_tx
                .send(SwitchCommand::SetRoute {
                    stream: StreamId(1),
                    entry: entry(vec![OutputId::Audio, OutputId::Test]),
                })
                .await
                .unwrap();
            let d = pool.alloc(seg()).await;
            in_tx
                .send(SegMsg {
                    stream: StreamId(1),
                    desc: d,
                })
                .await
                .unwrap();
        });
        let n = Rc::new(std::cell::Cell::new(0));
        for out in [r.audio_out, r.test_out] {
            let n = n.clone();
            let pool = r.pool.clone();
            r.sim.spawn("sink", async move {
                while let Ok(m) = out.recv().await {
                    n.set(n.get() + 1);
                    pool.release(m.desc);
                }
            });
        }
        r.sim.run_until_idle();
        assert_eq!(n.get(), 2);
        assert_eq!(r.stats.forwarded(), 2);
        // Both copies released: buffer fully freed.
        assert_eq!(r.pool.free_count(), 64);
    }

    #[test]
    fn full_output_drops_without_blocking_switch() {
        // Audio output has capacity 2 and nobody drains it; the test
        // output keeps flowing — Principle 5 at the switch.
        let mut r = rig(2);
        let pool = r.pool.clone();
        let in_tx = r.in_tx.clone();
        let cmd_tx = r.cmd_tx.clone();
        r.sim.spawn("setup", async move {
            cmd_tx
                .send(SwitchCommand::SetRoute {
                    stream: StreamId(1),
                    entry: entry(vec![OutputId::Audio, OutputId::Test]),
                })
                .await
                .unwrap();
            for _ in 0..20 {
                let d = pool.alloc(seg()).await;
                in_tx
                    .send(SegMsg {
                        stream: StreamId(1),
                        desc: d,
                    })
                    .await
                    .unwrap();
            }
        });
        // Drain only the test output.
        let n = Rc::new(std::cell::Cell::new(0));
        {
            let n = n.clone();
            let pool = r.pool.clone();
            let out = r.test_out;
            r.sim.spawn("test-sink", async move {
                while let Ok(m) = out.recv().await {
                    n.set(n.get() + 1);
                    pool.release(m.desc);
                }
            });
        }
        r.sim.run_until_idle();
        assert_eq!(n.get(), 20, "test output must see everything");
        let dropped = r.stats.dropped(StreamId(1), "audio");
        assert!(dropped >= 16, "audio drops {dropped}");
        // No leaked buffers: free + those stuck in the audio buffer.
        let stuck = 20 - dropped as usize;
        assert_eq!(r.pool.free_count(), 64 - stuck);
    }

    #[test]
    fn add_and_remove_dest_live() {
        let mut r = rig(8);
        let pool = r.pool.clone();
        let in_tx = r.in_tx.clone();
        let cmd_tx = r.cmd_tx.clone();
        r.sim.spawn("setup", async move {
            cmd_tx
                .send(SwitchCommand::SetRoute {
                    stream: StreamId(1),
                    entry: entry(vec![OutputId::Audio]),
                })
                .await
                .unwrap();
            let d = pool.alloc(seg()).await;
            in_tx
                .send(SegMsg {
                    stream: StreamId(1),
                    desc: d,
                })
                .await
                .unwrap();
            cmd_tx
                .send(SwitchCommand::AddDest {
                    stream: StreamId(1),
                    dest: OutputId::Test,
                })
                .await
                .unwrap();
            let d = pool.alloc(seg()).await;
            in_tx
                .send(SegMsg {
                    stream: StreamId(1),
                    desc: d,
                })
                .await
                .unwrap();
            cmd_tx
                .send(SwitchCommand::RemoveDest {
                    stream: StreamId(1),
                    dest: OutputId::Audio,
                })
                .await
                .unwrap();
            let d = pool.alloc(seg()).await;
            in_tx
                .send(SegMsg {
                    stream: StreamId(1),
                    desc: d,
                })
                .await
                .unwrap();
        });
        let audio_n = Rc::new(std::cell::Cell::new(0));
        let test_n = Rc::new(std::cell::Cell::new(0));
        {
            let n = audio_n.clone();
            let pool = r.pool.clone();
            let out = r.audio_out;
            r.sim.spawn("a", async move {
                while let Ok(m) = out.recv().await {
                    n.set(n.get() + 1);
                    pool.release(m.desc);
                }
            });
        }
        {
            let n = test_n.clone();
            let pool = r.pool.clone();
            let out = r.test_out;
            r.sim.spawn("t", async move {
                while let Ok(m) = out.recv().await {
                    n.set(n.get() + 1);
                    pool.release(m.desc);
                }
            });
        }
        r.sim.run_until_idle();
        // Audio saw segments 1 and 2; test saw 2 and 3. No loss on the
        // surviving copies during the re-plumbing (Principle 6).
        assert_eq!(audio_n.get(), 2);
        assert_eq!(test_n.get(), 2);
        assert_eq!(r.pool.free_count(), 64);
    }

    #[test]
    fn drop_route_mid_stream_leaves_other_streams_byte_identical() {
        // Switch-level Principle 6: dropping stream 2's route mid-flow
        // must leave stream 1's delivered segment bytes exactly as they
        // would have been with no command at all.
        let run = |drop: bool| {
            let mut r = rig(64);
            let pool = r.pool.clone();
            let in_tx = r.in_tx.clone();
            let cmd_tx = r.cmd_tx.clone();
            r.sim.spawn("drive", async move {
                cmd_tx
                    .send(SwitchCommand::SetRoute {
                        stream: StreamId(1),
                        entry: entry(vec![OutputId::Audio]),
                    })
                    .await
                    .unwrap();
                cmd_tx
                    .send(SwitchCommand::SetRoute {
                        stream: StreamId(2),
                        entry: entry(vec![OutputId::Test]),
                    })
                    .await
                    .unwrap();
                for i in 0..20u32 {
                    for stream in [StreamId(1), StreamId(2)] {
                        let seg = Segment::Audio(AudioSegment::from_blocks(
                            SequenceNumber(i),
                            Timestamp(i),
                            vec![(i as u8) ^ (stream.0 as u8); 32],
                        ));
                        let d = pool.alloc(seg).await;
                        in_tx.send(SegMsg { stream, desc: d }).await.unwrap();
                    }
                    if drop && i == 9 {
                        cmd_tx
                            .send(SwitchCommand::DropRoute {
                                stream: StreamId(2),
                            })
                            .await
                            .unwrap();
                    }
                }
            });
            let bytes = Rc::new(RefCell::new(Vec::new()));
            let b = bytes.clone();
            let pool = r.pool.clone();
            let out = r.audio_out;
            r.sim.spawn("sink", async move {
                while let Ok(m) = out.recv().await {
                    let seg = pool.with(m.desc, |s| s.clone());
                    pool.release(m.desc);
                    b.borrow_mut()
                        .push((m.stream, pandora_segment::wire::encode(&seg)));
                }
            });
            r.sim.run_until_idle();
            // After the drop, stream 2's remaining segments are unrouted.
            assert_eq!(r.stats.no_route(), if drop { 10 } else { 0 });
            let delivered = bytes.borrow().clone();
            delivered
        };
        let undisturbed = run(false);
        let with_drop = run(true);
        assert_eq!(undisturbed.len(), 20);
        assert_eq!(
            undisturbed, with_drop,
            "stream 1 flow changed across DropRoute"
        );
    }

    #[test]
    fn commands_win_over_flooded_data() {
        // Principle 4: with data always ready, a command still lands.
        let mut r = rig(8);
        let pool = r.pool.clone();
        let in_tx = r.in_tx.clone();
        let cmd_tx = r.cmd_tx.clone();
        r.sim.spawn("flood", async move {
            for _ in 0..50 {
                if let Ok(d) = pool.try_alloc(seg()) {
                    in_tx
                        .send(SegMsg {
                            stream: StreamId(2),
                            desc: d,
                        })
                        .await
                        .unwrap();
                }
            }
        });
        r.sim.spawn("command", async move {
            cmd_tx
                .send(SwitchCommand::SetRoute {
                    stream: StreamId(2),
                    entry: entry(vec![OutputId::Test]),
                })
                .await
                .unwrap();
        });
        let n = Rc::new(std::cell::Cell::new(0));
        {
            let n = n.clone();
            let pool = r.pool.clone();
            let out = r.test_out;
            r.sim.spawn("t", async move {
                while let Ok(m) = out.recv().await {
                    n.set(n.get() + 1);
                    pool.release(m.desc);
                }
            });
        }
        r.sim.run_until_idle();
        // The command was processed despite the flood: at least the
        // segments after it were routed rather than no_route-dropped.
        assert!(n.get() > 0, "route command starved");
    }
}
