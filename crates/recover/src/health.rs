//! Per-stream health monitoring and the P8 local-adaptation policy.
//!
//! The caller closes fixed tumbling windows of virtual time — a box's
//! health board (`pandora::health`) takes the deltas of its own
//! sequence-gap and late-segment counters — and feeds each closed
//! [`WindowSample`] to an [`AdaptMachine`], which turns sustained trouble
//! into [`AdaptAction`]s:
//!
//! * **Video** steps its rate divisor down (divisor ×2 per sustained-loss
//!   period, capped) — degrade-to-fit, the P2/P3 ordering: the cheap,
//!   low-priority traffic gives way first and the *oldest* quality step
//!   is restored last.
//! * **Audio** is never degraded (P2): sustained loss engages muting —
//!   silence is better than garbage — and recovery unmutes.
//!
//! Hysteresis is asymmetric by construction: `SUSTAIN_WINDOWS` (2) bad
//! windows trigger a step down, but `RECOVER_WINDOWS` (4) *consecutive*
//! clean windows are required per step back up, so quality never
//! oscillates across a marginal link. All decisions are pure functions
//! of the observed counts; the caller owns the clock.

/// Which adaptation policy a stream runs (P2: they differ on purpose).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaClass {
    /// Mute-or-full policy.
    Audio,
    /// Rate-divisor degrade-to-fit policy.
    Video,
}

/// Loss or late rate (permille of segments in the window) at or above
/// which the window counts as bad.
const DEGRADE_PERMILLE: u32 = 50;

/// Rate at or below which the window counts as clean. It sits below
/// `DEGRADE_PERMILLE`, and the band between the two is the hysteresis.
const RECOVER_PERMILLE: u32 = 10;

/// Consecutive bad windows before a degrade step.
const SUSTAIN_WINDOWS: u32 = 2;

/// Consecutive clean windows before a recovery step: more than
/// `SUSTAIN_WINDOWS`, for the asymmetric hysteresis.
const RECOVER_WINDOWS: u32 = 4;

/// Largest video rate divisor the machine will reach.
const MAX_DIVISOR: u32 = 8;

/// The counts of one closed observation window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSample {
    /// Segments received in the window.
    pub received: u64,
    /// Segments detected missing by sequence tracking.
    pub gaps: u64,
    /// Deliveries or mix ticks past their deadline.
    pub late: u64,
}

impl WindowSample {
    /// Lost segments as a permille of the segments the window should
    /// have carried (1000 when only gaps were seen).
    pub(crate) fn loss_permille(&self) -> u32 {
        let total = self.received + self.gaps;
        (self.gaps * 1000).checked_div(total).unwrap_or_default() as u32
    }

    /// Late events as a permille of received segments (late events in a
    /// silent window count in full).
    pub(crate) fn late_permille(&self) -> u32 {
        if self.late == 0 {
            0
        } else {
            (self.late * 1000 / self.received.max(1)).min(1000) as u32
        }
    }
}

/// An adaptation decision the data plane must apply locally (P8 — no
/// controller round-trip involved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptAction {
    /// Set the video rate divisor (1 = full rate).
    SetDivisor(u32),
    /// Engage audio muting.
    Mute,
    /// Disengage audio muting.
    Unmute,
}

/// The machine's externally visible quality state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptState {
    /// Current video rate divisor (1 unless degraded).
    pub divisor: u32,
    /// Whether audio is muted.
    pub muted: bool,
}

/// The per-stream adaptation state machine.
#[derive(Debug, Clone)]
pub struct AdaptMachine {
    class: MediaClass,
    divisor: u32,
    muted: bool,
    bad_streak: u32,
    good_streak: u32,
    degrades: u64,
    recoveries: u64,
}

impl AdaptMachine {
    /// A machine at full quality.
    pub fn new(class: MediaClass) -> AdaptMachine {
        AdaptMachine {
            class,
            divisor: 1,
            muted: false,
            bad_streak: 0,
            good_streak: 0,
            degrades: 0,
            recoveries: 0,
        }
    }

    /// The stream's media class.
    pub fn class(&self) -> MediaClass {
        self.class
    }

    /// Current quality state.
    pub fn state(&self) -> AdaptState {
        AdaptState {
            divisor: self.divisor,
            muted: self.muted,
        }
    }

    /// Degrade steps taken.
    #[cfg(test)]
    fn degrades(&self) -> u64 {
        self.degrades
    }

    /// Feeds one closed window; returns the action to apply, if the
    /// streak thresholds were crossed. Streaks reset after every action
    /// so each further step needs a fresh sustained period.
    pub fn observe(&mut self, sample: &WindowSample) -> Option<AdaptAction> {
        let worst = sample.loss_permille().max(sample.late_permille());
        if worst >= DEGRADE_PERMILLE {
            self.bad_streak += 1;
            self.good_streak = 0;
        } else if worst <= RECOVER_PERMILLE {
            self.good_streak += 1;
            self.bad_streak = 0;
        } else {
            // The hysteresis band: neither streak advances, neither
            // resets — a marginal window freezes the machine.
            return None;
        }
        if self.bad_streak >= SUSTAIN_WINDOWS {
            self.bad_streak = 0;
            return self.degrade_step();
        }
        if self.good_streak >= RECOVER_WINDOWS {
            self.good_streak = 0;
            return self.recover_step();
        }
        None
    }

    fn degrade_step(&mut self) -> Option<AdaptAction> {
        match self.class {
            MediaClass::Audio => {
                if self.muted {
                    return None;
                }
                self.muted = true;
                self.degrades += 1;
                Some(AdaptAction::Mute)
            }
            MediaClass::Video => {
                let next = (self.divisor * 2).min(MAX_DIVISOR);
                if next == self.divisor {
                    return None;
                }
                self.divisor = next;
                self.degrades += 1;
                Some(AdaptAction::SetDivisor(next))
            }
        }
    }

    fn recover_step(&mut self) -> Option<AdaptAction> {
        match self.class {
            MediaClass::Audio => {
                if !self.muted {
                    return None;
                }
                self.muted = false;
                self.recoveries += 1;
                Some(AdaptAction::Unmute)
            }
            MediaClass::Video => {
                if self.divisor == 1 {
                    return None;
                }
                self.divisor = (self.divisor / 2).max(1);
                self.recoveries += 1;
                Some(AdaptAction::SetDivisor(self.divisor))
            }
        }
    }

    /// One-line digest for replay assertions.
    pub fn digest(&self) -> String {
        format!(
            "divisor={} muted={} degrades={} recoveries={}",
            self.divisor, self.muted, self.degrades, self.recoveries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bad() -> WindowSample {
        WindowSample {
            received: 90,
            gaps: 10,
            late: 0,
        }
    }

    fn clean() -> WindowSample {
        WindowSample {
            received: 100,
            gaps: 0,
            late: 0,
        }
    }

    #[test]
    fn video_steps_divisor_down_then_recovers_with_hysteresis() {
        let mut m = AdaptMachine::new(MediaClass::Video);
        assert_eq!(m.observe(&bad()), None, "one bad window is a blip");
        assert_eq!(m.observe(&bad()), Some(AdaptAction::SetDivisor(2)));
        // The next step needs a fresh sustained period.
        assert_eq!(m.observe(&bad()), None);
        assert_eq!(m.observe(&bad()), Some(AdaptAction::SetDivisor(4)));
        // Recovery needs RECOVER_WINDOWS consecutive clean windows.
        for _ in 0..3 {
            assert_eq!(m.observe(&clean()), None);
        }
        assert_eq!(m.observe(&clean()), Some(AdaptAction::SetDivisor(2)));
        for _ in 0..3 {
            assert_eq!(m.observe(&clean()), None);
        }
        assert_eq!(m.observe(&clean()), Some(AdaptAction::SetDivisor(1)));
        assert_eq!(m.state().divisor, 1);
        assert_eq!(m.degrades(), 2);
        assert_eq!(m.recoveries, 2);
    }

    #[test]
    fn video_divisor_caps() {
        let mut m = AdaptMachine::new(MediaClass::Video);
        for _ in 0..20 {
            let _ = m.observe(&bad());
        }
        assert_eq!(m.state().divisor, 8, "capped at MAX_DIVISOR");
    }

    #[test]
    fn audio_mutes_never_degrades() {
        let mut m = AdaptMachine::new(MediaClass::Audio);
        assert_eq!(m.observe(&bad()), None);
        assert_eq!(m.observe(&bad()), Some(AdaptAction::Mute));
        assert!(m.state().muted);
        assert_eq!(m.state().divisor, 1, "audio rate untouched (P2)");
        for _ in 0..3 {
            assert_eq!(m.observe(&clean()), None);
        }
        assert_eq!(m.observe(&clean()), Some(AdaptAction::Unmute));
        assert!(!m.state().muted);
    }

    #[test]
    fn marginal_windows_freeze_the_machine() {
        let mut m = AdaptMachine::new(MediaClass::Audio);
        let marginal = WindowSample {
            received: 970,
            gaps: 30, // 30‰: between recover (10) and degrade (50).
            late: 0,
        };
        let _ = m.observe(&bad());
        for _ in 0..50 {
            assert_eq!(m.observe(&marginal), None);
        }
        // The earlier bad window still counts: one more completes it.
        assert_eq!(m.observe(&bad()), Some(AdaptAction::Mute));
    }

    #[test]
    fn late_rate_alone_triggers_adaptation() {
        let mut m = AdaptMachine::new(MediaClass::Video);
        let late = WindowSample {
            received: 100,
            gaps: 0,
            late: 20,
        };
        let _ = m.observe(&late);
        assert_eq!(m.observe(&late), Some(AdaptAction::SetDivisor(2)));
    }

    #[test]
    fn idle_and_empty_windows_are_clean() {
        let s = WindowSample::default();
        assert_eq!(s.loss_permille(), 0);
        assert_eq!(s.late_permille(), 0);
        let gaps_only = WindowSample {
            received: 0,
            gaps: 5,
            late: 0,
        };
        assert_eq!(gaps_only.loss_permille(), 1000);
    }
}
