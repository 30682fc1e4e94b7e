//! # pandora-repository — stream recording and playback
//!
//! The Repository is Pandora's storage peer (§1.1, §2.1, §3.2): it records
//! live streams, rewrites stored audio into the space-efficient 40 ms
//! format ("320 bytes of data plus a new 36 byte header"), and plays
//! recordings back "directly to any Pandora box", synchronising streams
//! recorded together via their stored timestamp offsets.
//!
//! Principle 1 is *reversed* here: "for repositories … the incoming data
//! streams should be recorded as accurately as possible, even if that
//! means degrading streams that are currently being played out. It is a
//! simple matter to play a stream again, but recording one again could
//! present greater difficulties." Recording tasks therefore claim the
//! repository CPU at a higher priority than playback tasks.

#![deny(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use pandora_buffers::{ReportClass, Reporter};
use pandora_segment::{reseg, AudioSegment, Segment, StreamId, REPOSITORY_BLOCKS_PER_SEGMENT};
use pandora_sim::{Cpu, Receiver, Sender, SimDuration, SimTime, Spawner};

/// Identifier of a recording held by the repository.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordingId(pub u64);

/// One stored segment with its arrival time.
#[derive(Debug, Clone)]
pub struct StoredSegment {
    /// When the segment reached the repository (diagnostics only; the
    /// paper's playback is driven by the segment timestamps).
    pub arrival: SimTime,
    /// The segment itself.
    pub segment: Segment,
}

/// A recorded stream.
#[derive(Debug, Clone)]
pub struct Recording {
    /// The stream number the recording was made from.
    pub source_stream: StreamId,
    /// Stored segments, in arrival order.
    pub segments: Vec<StoredSegment>,
    /// The stream's first segment timestamp in ns — the per-stream offset
    /// used to synchronise co-recorded streams at playback.
    pub timestamp_offset: u64,
}

impl Recording {
    /// Number of stored segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Returns `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total stored bytes (wire format).
    pub fn stored_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.segment.wire_bytes()).sum()
    }

    /// The audio segments, if this is an audio recording.
    pub fn audio_segments(&self) -> Vec<AudioSegment> {
        self.segments
            .iter()
            .filter_map(|s| s.segment.as_audio().cloned())
            .collect()
    }
}

/// CPU cost calibration for the repository.
#[derive(Debug, Clone, Copy)]
pub struct RepositoryCosts {
    /// Cost to commit one segment to storage.
    pub record_per_segment: SimDuration,
    /// Cost to fetch and despatch one segment at playback.
    pub playback_per_segment: SimDuration,
}

impl Default for RepositoryCosts {
    fn default() -> Self {
        RepositoryCosts {
            record_per_segment: SimDuration::from_micros(150),
            playback_per_segment: SimDuration::from_micros(150),
        }
    }
}

/// Priority of recording claims (reversed Principle 1: above playback).
const PRIO_RECORD: pandora_sim::ClaimPriority = 14;
/// Priority of playback claims.
const PRIO_PLAYBACK: pandora_sim::ClaimPriority = 6;

struct RepoInner {
    recordings: RefCell<BTreeMap<RecordingId, Recording>>,
    next_id: Cell<u64>,
    cpu: Cpu,
    costs: RepositoryCosts,
    /// Playback's reporter: one report per playback stream per period.
    reports: RefCell<Reporter>,
    dropped_playback: Cell<u64>,
}

/// The repository itself. Cloneable handle.
#[derive(Clone)]
pub struct Repository {
    inner: Rc<RepoInner>,
    spawner: Spawner,
}

/// Handle to a recording in progress.
#[derive(Clone)]
pub struct RecorderHandle {
    id: RecordingId,
    stop: Rc<Cell<bool>>,
    recorded: Rc<Cell<u64>>,
}

impl RecorderHandle {
    /// The recording being written.
    pub fn id(&self) -> RecordingId {
        self.id
    }

    /// Stops recording (the recorder drains and exits).
    pub fn stop(&self) {
        self.stop.set(true);
    }

    /// Segments committed so far.
    pub fn recorded(&self) -> u64 {
        self.recorded.get()
    }
}

impl Repository {
    /// Creates a repository with its own CPU, reporting on the log of
    /// `reports`.
    pub fn new(spawner: &Spawner, name: &str, costs: RepositoryCosts, reports: &Reporter) -> Self {
        Repository {
            inner: Rc::new(RepoInner {
                recordings: RefCell::new(BTreeMap::new()),
                next_id: Cell::new(1),
                cpu: Cpu::new(&format!("repo:{name}"), SimDuration::from_nanos(700)),
                costs,
                reports: RefCell::new(reports.named("repo-playback")),
                dropped_playback: Cell::new(0),
            }),
            spawner: spawner.clone(),
        }
    }

    /// The repository CPU (shared by recorders and players).
    pub fn cpu(&self) -> Cpu {
        self.inner.cpu.clone()
    }

    /// Starts recording every segment arriving on `input` for `stream`.
    ///
    /// Segments for other streams on the channel are ignored. Recording
    /// claims run at high priority: under CPU contention, playback yields
    /// (reversed Principle 1).
    pub fn record(&self, input: Receiver<(StreamId, Segment)>, stream: StreamId) -> RecorderHandle {
        let id = RecordingId(self.inner.next_id.get());
        self.inner.next_id.set(id.0 + 1);
        self.inner.recordings.borrow_mut().insert(
            id,
            Recording {
                source_stream: stream,
                segments: Vec::new(),
                timestamp_offset: 0,
            },
        );
        let handle = RecorderHandle {
            id,
            stop: Rc::new(Cell::new(false)),
            recorded: Rc::new(Cell::new(0)),
        };
        let h = handle.clone();
        let inner = self.inner.clone();
        self.spawner
            .spawn(&format!("repo-record:{}", id.0), async move {
                while !h.stop.get() {
                    let Ok((sid, segment)) = input.recv().await else {
                        return;
                    };
                    if sid != stream {
                        continue;
                    }
                    inner
                        .cpu
                        .claim_prio(inner.costs.record_per_segment, PRIO_RECORD)
                        .await;
                    let arrival = pandora_sim::now();
                    let mut recs = inner.recordings.borrow_mut();
                    let rec = recs.get_mut(&id).expect("recording exists");
                    if rec.segments.is_empty() {
                        rec.timestamp_offset = segment.common().timestamp.as_nanos();
                    }
                    rec.segments.push(StoredSegment { arrival, segment });
                    h.recorded.set(h.recorded.get() + 1);
                }
            });
        handle
    }

    /// A snapshot of a recording.
    pub fn get(&self, id: RecordingId) -> Option<Recording> {
        self.inner.recordings.borrow().get(&id).cloned()
    }

    /// Rewrites an audio recording into the 40 ms repository format as a
    /// new recording ("this is done as a separate operation after the
    /// stream has been recorded", §3.2). Returns the new id.
    ///
    /// Returns `None` if the recording does not exist or holds no audio.
    pub fn resegment(&self, id: RecordingId) -> Option<RecordingId> {
        let (source_stream, audio, offset) = {
            let recs = self.inner.recordings.borrow();
            let rec = recs.get(&id)?;
            (
                rec.source_stream,
                rec.audio_segments(),
                rec.timestamp_offset,
            )
        };
        if audio.is_empty() {
            return None;
        }
        let repo_format = reseg::to_repository_format(&audio);
        let new_id = RecordingId(self.inner.next_id.get());
        self.inner.next_id.set(new_id.0 + 1);
        let segments = repo_format
            .into_iter()
            .map(|a| StoredSegment {
                arrival: SimTime::ZERO,
                segment: Segment::Audio(a),
            })
            .collect();
        self.inner.recordings.borrow_mut().insert(
            new_id,
            Recording {
                source_stream,
                segments,
                timestamp_offset: offset,
            },
        );
        Some(new_id)
    }

    /// Plays a recording into `out` as `dest_stream`, pacing segments by
    /// their timestamps. `offset_base` subtracts a common base so that
    /// several co-recorded streams started together stay in sync:
    /// pass the minimum of their `timestamp_offset`s.
    ///
    /// Playback claims the repository CPU at low priority; when the CPU
    /// cannot keep up (recordings in progress), playback despatch slips
    /// and late segments are *dropped* (counted), not accumulated — the
    /// degradation the reversed Principle 1 prescribes — and reported at
    /// most once per period for each destination stream (§3.8).
    pub fn playback(
        &self,
        id: RecordingId,
        dest_stream: StreamId,
        out: Sender<(StreamId, Segment)>,
        offset_base: u64,
    ) -> Option<()> {
        let rec = self.get(id)?;
        let inner = self.inner.clone();
        self.spawner
            .spawn(&format!("repo-playback:{}", id.0), async move {
                let start = pandora_sim::now();
                let first_ts = rec.timestamp_offset;
                for stored in &rec.segments {
                    let ts = stored.segment.common().timestamp.as_nanos();
                    let due = start
                        + SimDuration(ts.saturating_sub(first_ts))
                        + SimDuration(first_ts.saturating_sub(offset_base));
                    pandora_sim::delay_until(due).await;
                    inner
                        .cpu
                        .claim_prio(inner.costs.playback_per_segment, PRIO_PLAYBACK)
                        .await;
                    let now = pandora_sim::now();
                    // More than one segment-duration late: skip it.
                    let lateness = now.as_nanos().saturating_sub(due.as_nanos());
                    let seg_duration = match stored.segment.as_audio() {
                        Some(a) => a.duration_nanos().max(4_000_000),
                        None => 40_000_000,
                    };
                    if lateness > seg_duration {
                        inner.dropped_playback.set(inner.dropped_playback.get() + 1);
                        inner.reports.borrow_mut().report(
                            &format!("late:{dest_stream}"),
                            ReportClass::Overload,
                            format_args!(
                                "playback of {dest_stream} degraded (late by {lateness}ns)"
                            ),
                        );
                        continue;
                    }
                    let mut segment = stored.segment.clone();
                    segment.common_mut().timestamp =
                        pandora_segment::Timestamp::from_nanos(now.as_nanos());
                    if out.send((dest_stream, segment)).await.is_err() {
                        return;
                    }
                }
            });
        Some(())
    }

    /// Plays several recordings together, aligned on their recorded
    /// timestamp offsets (the paper's same-repository synchronisation).
    pub fn playback_synced(
        &self,
        plays: Vec<(RecordingId, StreamId)>,
        out: Sender<(StreamId, Segment)>,
    ) -> Option<()> {
        let base = plays
            .iter()
            .filter_map(|(id, _)| self.get(*id).map(|r| r.timestamp_offset))
            .min()?;
        for (id, stream) in plays {
            self.playback(id, stream, out.clone(), base)?;
        }
        Some(())
    }

    /// Segments dropped from playback under contention.
    pub fn dropped_playback(&self) -> u64 {
        self.inner.dropped_playback.get()
    }

    /// Storage saving factor of the 40 ms format vs a live recording:
    /// `1 - repo_bytes / live_bytes`.
    pub fn resegmentation_saving(&self, live: RecordingId, repo: RecordingId) -> Option<f64> {
        let a = self.get(live)?.stored_bytes() as f64;
        let b = self.get(repo)?.stored_bytes() as f64;
        if a == 0.0 {
            return None;
        }
        Some(1.0 - b / a)
    }
}

/// Checks a repository-format audio recording's invariants: every segment
/// but the last holds exactly 20 blocks with a 36-byte header.
pub fn is_repository_format(rec: &Recording) -> bool {
    let audio = rec.audio_segments();
    if audio.is_empty() {
        return false;
    }
    audio
        .iter()
        .take(audio.len() - 1)
        .all(|s| s.block_count() == REPOSITORY_BLOCKS_PER_SEGMENT)
        && audio.iter().all(|s| s.wire_bytes() == s.data.len() + 36)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_buffers::Report;
    use pandora_segment::{SequenceNumber, Timestamp, BLOCK_DURATION_NANOS};
    use pandora_sim::{channel, unbounded, Simulation};

    /// The §3.8 period the tests' reporters run at.
    const PERIOD: SimDuration = SimDuration::from_millis(500);

    fn live_audio_stream(n_segments: u32) -> Vec<Segment> {
        (0..n_segments)
            .map(|i| {
                Segment::Audio(AudioSegment::from_blocks(
                    SequenceNumber(i),
                    Timestamp::from_nanos(i as u64 * 2 * BLOCK_DURATION_NANOS),
                    vec![i as u8; 32],
                ))
            })
            .collect()
    }

    fn rig() -> (Simulation, Repository) {
        let sim = Simulation::new();
        let (rep_tx, _rep_rx) = unbounded::<Report>();
        let reports = Reporter::new(rep_tx, "host", PERIOD);
        let repo = Repository::new(&sim.spawner(), "r", RepositoryCosts::default(), &reports);
        (sim, repo)
    }

    #[test]
    fn records_stream_segments() {
        let (mut sim, repo) = rig();
        let (tx, rx) = channel::<(StreamId, Segment)>();
        let handle = repo.record(rx, StreamId(5));
        sim.spawn("feed", async move {
            for seg in live_audio_stream(10) {
                tx.send((StreamId(5), seg)).await.unwrap();
                // Interleave a foreign stream: must be ignored.
                tx.send((StreamId(9), live_audio_stream(1).remove(0)))
                    .await
                    .unwrap();
            }
        });
        sim.run_until_idle();
        assert_eq!(handle.recorded(), 10);
        let rec = repo.get(handle.id()).unwrap();
        assert_eq!(rec.len(), 10);
        assert_eq!(rec.source_stream, StreamId(5));
        assert_eq!(rec.timestamp_offset, 0);
        assert!(!rec.is_empty());
    }

    #[test]
    fn resegment_produces_40ms_format() {
        let (mut sim, repo) = rig();
        let (tx, rx) = channel::<(StreamId, Segment)>();
        let handle = repo.record(rx, StreamId(1));
        sim.spawn("feed", async move {
            for seg in live_audio_stream(40) {
                tx.send((StreamId(1), seg)).await.unwrap();
            }
        });
        sim.run_until_idle();
        let repo_id = repo.resegment(handle.id()).expect("resegment");
        let rec = repo.get(repo_id).unwrap();
        assert!(is_repository_format(&rec));
        // 40 segments x 2 blocks = 80 blocks = 4 repository segments.
        assert_eq!(rec.len(), 4);
        // Byte-identical audio.
        let live: Vec<u8> = repo
            .get(handle.id())
            .unwrap()
            .audio_segments()
            .iter()
            .flat_map(|s| s.data.clone())
            .collect();
        let reseg: Vec<u8> = rec
            .audio_segments()
            .iter()
            .flat_map(|s| s.data.clone())
            .collect();
        assert_eq!(live, reseg);
        let saving = repo.resegmentation_saving(handle.id(), repo_id).unwrap();
        assert!(saving > 0.45, "saving {saving}");
        assert_ne!(
            repo_id,
            handle.id(),
            "resegmenting stores a second recording"
        );
    }

    #[test]
    fn playback_paces_by_timestamps() {
        let (mut sim, repo) = rig();
        let (tx, rx) = channel::<(StreamId, Segment)>();
        let handle = repo.record(rx, StreamId(1));
        sim.spawn("feed", async move {
            for seg in live_audio_stream(25) {
                tx.send((StreamId(1), seg)).await.unwrap();
            }
        });
        sim.run_until_idle();
        let (out_tx, out_rx) = channel::<(StreamId, Segment)>();
        repo.playback(handle.id(), StreamId(77), out_tx, 0).unwrap();
        let times = Rc::new(RefCell::new(Vec::new()));
        let t = times.clone();
        sim.spawn("sink", async move {
            while let Ok((sid, _seg)) = out_rx.recv().await {
                assert_eq!(sid, StreamId(77));
                t.borrow_mut().push(pandora_sim::now().as_millis());
            }
        });
        sim.run_until_idle();
        let times = times.borrow();
        assert_eq!(times.len(), 25);
        // 4ms pacing between 2-block segments (±1ms for CPU costs and the
        // 64us timestamp quantisation).
        for w in times.windows(2) {
            let d = w[1] - w[0];
            assert!((3..=5).contains(&d), "gap {d}ms");
        }
    }

    #[test]
    fn synced_playback_aligns_offsets() {
        let (mut sim, repo) = rig();
        // Two streams recorded together, the second starting 20ms later.
        let (tx, rx) = channel::<(StreamId, Segment)>();
        let (tx2, rx2) = channel::<(StreamId, Segment)>();
        let h1 = repo.record(rx, StreamId(1));
        let h2 = repo.record(rx2, StreamId(2));
        sim.spawn("feed", async move {
            for (i, seg) in live_audio_stream(10).into_iter().enumerate() {
                tx.send((StreamId(1), seg.clone())).await.unwrap();
                if i >= 5 {
                    tx2.send((StreamId(2), seg)).await.unwrap();
                }
            }
        });
        sim.run_until_idle();
        let (out_tx, out_rx) = channel::<(StreamId, Segment)>();
        repo.playback_synced(
            vec![(h1.id(), StreamId(10)), (h2.id(), StreamId(20))],
            out_tx,
        )
        .unwrap();
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let a = arrivals.clone();
        sim.spawn("sink", async move {
            while let Ok((sid, _)) = out_rx.recv().await {
                a.borrow_mut().push((sid, pandora_sim::now().as_millis()));
            }
        });
        sim.run_until_idle();
        let arrivals = arrivals.borrow();
        let s1_first = arrivals.iter().find(|(s, _)| *s == StreamId(10)).unwrap().1;
        let s2_first = arrivals.iter().find(|(s, _)| *s == StreamId(20)).unwrap().1;
        // Stream 2 starts ~20ms after stream 1, preserving the recorded
        // relative timing.
        let gap = s2_first as i64 - s1_first as i64;
        assert!((18..=22).contains(&gap), "gap {gap}ms");
    }

    #[test]
    fn recording_beats_playback_under_contention() {
        // Reversed Principle 1: saturate the repository CPU with both a
        // recording and playbacks; the recording must stay lossless while
        // playback degrades, reporting it at most once a period per
        // playback stream (§3.8).
        let mut sim = Simulation::new();
        let (rep_tx, rep_rx) = unbounded::<Report>();
        // An expensive repository so contention is real.
        let costs = RepositoryCosts {
            record_per_segment: SimDuration::from_millis(2),
            playback_per_segment: SimDuration::from_millis(2),
        };
        let repo = Repository::new(
            &sim.spawner(),
            "slow",
            costs,
            &Reporter::new(rep_tx, "host", PERIOD),
        );
        // Pre-load a recording to play back.
        let (tx0, rx0) = channel::<(StreamId, Segment)>();
        let h0 = repo.record(rx0, StreamId(1));
        sim.spawn("preload", async move {
            for seg in live_audio_stream(200) {
                tx0.send((StreamId(1), seg)).await.unwrap();
            }
        });
        sim.run_until_idle();
        h0.stop();
        // Now record a live stream while playing back two copies.
        let (tx, rx) = channel::<(StreamId, Segment)>();
        let h1 = repo.record(rx, StreamId(2));
        sim.spawn("live", async move {
            for (i, seg) in live_audio_stream(100).into_iter().enumerate() {
                pandora_sim::delay_until(SimTime::from_nanos(
                    (i as u64 + 1) * 2 * BLOCK_DURATION_NANOS,
                ))
                .await;
                tx.send((StreamId(2), seg)).await.unwrap();
            }
        });
        let (out_tx, out_rx) = channel::<(StreamId, Segment)>();
        repo.playback(h0.id(), StreamId(30), out_tx.clone(), 0)
            .unwrap();
        repo.playback(h0.id(), StreamId(31), out_tx, 0).unwrap();
        sim.spawn("sink", async move { while out_rx.recv().await.is_ok() {} });
        sim.run_until_idle();
        // Everything offered to the recorder was committed.
        assert_eq!(h1.recorded(), 100, "recording lost data under load");
        // Playback was degraded instead, and every drop counted.
        assert_eq!(repo.dropped_playback(), 399, "playback drops");
        // The report channel heard of it once a period per stream, not
        // once a drop.
        let reports: Vec<Report> = std::iter::from_fn(|| rep_rx.try_recv()).collect();
        for stream in [StreamId(30), StreamId(31)] {
            let at: Vec<SimTime> = reports
                .iter()
                .filter(|r| r.message.starts_with(&format!("playback of {stream} ")))
                .inspect(|r| assert_eq!(r.source, "repo-playback"))
                .map(|r| r.time)
                .collect();
            assert!(!at.is_empty(), "{stream}: degraded without a report");
            for pair in at.windows(2) {
                assert!(pair[1] - pair[0] >= PERIOD, "{stream}: reports at {at:?}");
            }
        }
    }

    #[test]
    fn resegment_missing_returns_none() {
        let (_sim, repo) = rig();
        assert!(repo.resegment(RecordingId(99)).is_none());
    }
}
