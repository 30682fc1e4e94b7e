//! The per-box stream-health monitor: P8 local adaptation.
//!
//! Principle 8 says a box must adapt to trouble *locally*, without
//! waiting for (or depending on) the control plane: the sender cannot
//! know what every receiver can take, and during a failure the
//! controller may be busy reconverging. The [`HealthBoard`] is that
//! local loop. Once per window it samples the box's own counters —
//! audio sequence gaps and late mix ticks at the speaker, Principle-3
//! drops at the network output — and feeds them to the
//! `pandora-recover` adaptation machines:
//!
//! * sustained **audio** loss engages the speaker mute (audio is muted,
//!   never degraded — Principle 2); clean windows release it after the
//!   recovery hysteresis;
//! * sustained **video** pressure steps the capture divisor up
//!   (degrade-to-fit: video gives way first, Principles 2/3), and clean
//!   windows step it back down to full rate.
//!
//! Everything runs on the deterministic sim clock, so a fault plan that
//! crashes a conference member produces byte-identical adaptation
//! traces across replays.

use std::cell::RefCell;
use std::rc::Rc;

use pandora_recover::{AdaptAction, AdaptMachine, MediaClass, WindowSample};
use pandora_sim::{SimDuration, Spawner};

use crate::audio_board::SpeakerSink;
use crate::network_board::NetOutStats;
use crate::video_boards::VideoCaptureHandle;

/// Length of one observation window: the board closes a window and feeds
/// it to the adaptation machines this often.
const WINDOW: SimDuration = SimDuration::from_millis(250);

struct HealthInner {
    audio: AdaptMachine,
    video: AdaptMachine,
    captures: Vec<VideoCaptureHandle>,
    windows: u64,
    // Previous counter snapshots (the board samples deltas).
    prev_audio_recv: u64,
    prev_audio_lost: u64,
    prev_late: u64,
    prev_video_sent: u64,
    prev_video_drops: u64,
}

/// Shared handle to one box's health monitor.
#[derive(Clone)]
pub struct HealthBoard {
    inner: Rc<RefCell<HealthInner>>,
}

impl HealthBoard {
    /// Spawns the monitor task (`<name>:health`) sampling `speaker` and
    /// `net_out` every 250 ms window and applying the adaptation
    /// actions locally: mute/unmute on the speaker, divisor steps on
    /// every registered capture handle.
    pub fn spawn(
        spawner: &Spawner,
        name: &str,
        speaker: SpeakerSink,
        net_out: NetOutStats,
    ) -> HealthBoard {
        let board = HealthBoard {
            inner: Rc::new(RefCell::new(HealthInner {
                audio: AdaptMachine::new(MediaClass::Audio),
                video: AdaptMachine::new(MediaClass::Video),
                captures: Vec::new(),
                windows: 0,
                prev_audio_recv: 0,
                prev_audio_lost: 0,
                prev_late: 0,
                prev_video_sent: 0,
                prev_video_drops: 0,
            })),
        };
        let b = board.clone();
        spawner.spawn(&format!("{name}:health"), async move {
            loop {
                pandora_sim::delay(WINDOW).await;
                // Audio receive health: sequence gaps and late mix
                // ticks at the speaker.
                let (recv, lost) = speaker
                    .stream_stats()
                    .iter()
                    .fold((0u64, 0u64), |(r, l), &(_, sr, sl)| (r + sr, l + sl));
                let late = speaker.late_ticks();
                // Video transmit health: local congestion evidence —
                // the Principle-3 policy dropping our own backlog.
                let sent = net_out.video_segments();
                let drops = net_out.p3_drops_total();
                let mut inner = b.inner.borrow_mut();
                inner.windows += 1;
                let audio_sample = WindowSample {
                    received: recv - inner.prev_audio_recv,
                    gaps: lost - inner.prev_audio_lost,
                    late: late - inner.prev_late,
                };
                let video_sample = WindowSample {
                    received: sent - inner.prev_video_sent,
                    gaps: drops - inner.prev_video_drops,
                    late: 0,
                };
                inner.prev_audio_recv = recv;
                inner.prev_audio_lost = lost;
                inner.prev_late = late;
                inner.prev_video_sent = sent;
                inner.prev_video_drops = drops;
                match inner.audio.observe(&audio_sample) {
                    Some(AdaptAction::Mute) => speaker.set_muted(true),
                    Some(AdaptAction::Unmute) => speaker.set_muted(false),
                    Some(AdaptAction::SetDivisor(_)) | None => {}
                }
                if let Some(AdaptAction::SetDivisor(d)) = inner.video.observe(&video_sample) {
                    for h in &inner.captures {
                        h.set_divisor(d);
                    }
                }
            }
        });
        board
    }

    /// Registers a capture stream for divisor control; the current
    /// divisor is applied immediately so late-started streams match the
    /// machine's state.
    pub fn register_capture(&self, handle: VideoCaptureHandle) {
        let mut inner = self.inner.borrow_mut();
        handle.set_divisor(inner.video.state().divisor);
        inner.captures.push(handle);
    }

    /// Sampling windows closed so far.
    pub fn windows(&self) -> u64 {
        self.inner.borrow().windows
    }

    /// Deterministic one-line digest of both machines, for replay
    /// assertions: `windows=N audio[...] video[...]`.
    pub fn digest(&self) -> String {
        let inner = self.inner.borrow();
        format!(
            "windows={} audio[{}] video[{}]",
            inner.windows,
            inner.audio.digest(),
            inner.video.digest()
        )
    }
}
