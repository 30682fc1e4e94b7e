//! The admission controller: budgets instead of oversubscription.
//!
//! Each endpoint's agent runs one of these over its capability
//! descriptor. A request is charged against the sink-count and
//! cell-bandwidth budgets before any route is installed; when a budget
//! would be exceeded the request is degraded or rejected rather than
//! admitted — the established streams' budgets are never raided, so the
//! data plane's overload machinery (Principles 1–3) only ever has to
//! handle transient disturbance, not steady oversubscription.
//!
//! The degrade order follows the paper's priorities: audio is never
//! degraded (Principle 2) — it is admitted whole or refused; video gives
//! way first, by halving its rate until it fits (down to a 125‰ floor)
//! before being refused outright.

use crate::proto::{RejectReason, StreamClass};
use crate::Capabilities;

/// Minimum video rate (in thousandths of full rate) admission will
/// degrade to before rejecting.
pub const MIN_VIDEO_RATE_PERMILLE: u32 = 125;

/// The outcome of an admission request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Admitted at the requested quality.
    Admit,
    /// Admitted at a reduced video rate.
    Degrade {
        /// The granted rate in thousandths of full rate.
        rate_permille: u32,
    },
    /// Refused; no budget was charged.
    Reject(RejectReason),
}

/// Per-endpoint admission state: budgets and charges.
#[derive(Debug)]
pub struct AdmissionController {
    caps: Capabilities,
    audio_sinks: u32,
    video_sinks: u32,
    rx_cps: u64,
    tx_cps: u64,
    admitted: u64,
    degraded: u64,
    rejected: u64,
}

impl AdmissionController {
    /// A controller enforcing the given capability budgets.
    pub fn new(caps: Capabilities) -> AdmissionController {
        AdmissionController {
            caps,
            audio_sinks: 0,
            video_sinks: 0,
            rx_cps: 0,
            tx_cps: 0,
            admitted: 0,
            degraded: 0,
            rejected: 0,
        }
    }

    /// Requests admission of a receiving sink. On `Admit`/`Degrade` the
    /// budgets are charged with the *granted* class; `Reject` charges
    /// nothing.
    pub fn admit_sink(&mut self, class: StreamClass) -> Decision {
        match class {
            StreamClass::Audio => {
                if self.audio_sinks >= self.caps.audio_sinks_max {
                    self.rejected += 1;
                    return Decision::Reject(RejectReason::SinkBudget);
                }
                if self.rx_cps + class.demand_cps() > self.caps.link_cps {
                    self.rejected += 1;
                    return Decision::Reject(RejectReason::LinkBudget);
                }
                self.audio_sinks += 1;
                self.rx_cps += class.demand_cps();
                self.admitted += 1;
                Decision::Admit
            }
            StreamClass::Video { rate_permille } => {
                if self.video_sinks >= self.caps.video_sinks_max {
                    self.rejected += 1;
                    return Decision::Reject(RejectReason::SinkBudget);
                }
                let spare = self.caps.link_cps.saturating_sub(self.rx_cps);
                match degrade_to_fit(rate_permille, spare) {
                    Some(granted) => {
                        self.video_sinks += 1;
                        self.rx_cps += StreamClass::Video {
                            rate_permille: granted,
                        }
                        .demand_cps();
                        if granted == rate_permille {
                            self.admitted += 1;
                            Decision::Admit
                        } else {
                            self.degraded += 1;
                            Decision::Degrade {
                                rate_permille: granted,
                            }
                        }
                    }
                    None => {
                        self.rejected += 1;
                        Decision::Reject(RejectReason::LinkBudget)
                    }
                }
            }
        }
    }

    /// Releases a sink previously granted as `class` (pass the *granted*
    /// class, including any degraded rate).
    pub fn release_sink(&mut self, class: StreamClass) {
        match class {
            StreamClass::Audio => self.audio_sinks = self.audio_sinks.saturating_sub(1),
            StreamClass::Video { .. } => self.video_sinks = self.video_sinks.saturating_sub(1),
        }
        self.rx_cps = self.rx_cps.saturating_sub(class.demand_cps());
    }

    /// Requests transmit bandwidth for one more copy of a source stream
    /// (the AddDest charge). No degrade path: the copy's rate was fixed
    /// when its sink was admitted, so this either fits or is refused.
    pub fn admit_source(&mut self, class: StreamClass) -> Decision {
        if self.tx_cps + class.demand_cps() > self.caps.link_cps {
            self.rejected += 1;
            return Decision::Reject(RejectReason::LinkBudget);
        }
        self.tx_cps += class.demand_cps();
        self.admitted += 1;
        Decision::Admit
    }

    /// Releases transmit bandwidth charged by
    /// [`AdmissionController::admit_source`].
    pub fn release_source(&mut self, class: StreamClass) {
        self.tx_cps = self.tx_cps.saturating_sub(class.demand_cps());
    }

    /// Requests transmit bandwidth for `copies` simultaneous copies of
    /// one stream — the overlay relay charge: a member that is interior
    /// in a broadcast tree forwards every slice of its stripe to each
    /// child, so its uplink owes `copies x demand`, not one.
    ///
    /// Degrade follows the sink rules: audio copies are admitted whole
    /// or refused; video halves its rate (shared by every copy — the
    /// stripe is one stream) down to the
    /// [`MIN_VIDEO_RATE_PERMILLE`] floor before rejecting.
    pub fn admit_relay(&mut self, class: StreamClass, copies: u32) -> Decision {
        if copies == 0 {
            self.admitted += 1;
            return Decision::Admit;
        }
        let spare = self.caps.link_cps.saturating_sub(self.tx_cps);
        match class {
            StreamClass::Audio => {
                let demand = class.demand_cps() * u64::from(copies);
                if demand > spare {
                    self.rejected += 1;
                    return Decision::Reject(RejectReason::LinkBudget);
                }
                self.tx_cps += demand;
                self.admitted += 1;
                Decision::Admit
            }
            StreamClass::Video { rate_permille } => {
                // Integer division is conservative: the lost remainder
                // (< copies cells/sec) stays unspent, never oversold.
                let per_copy = spare / u64::from(copies);
                match degrade_to_fit(rate_permille, per_copy) {
                    Some(granted) => {
                        self.tx_cps += StreamClass::Video {
                            rate_permille: granted,
                        }
                        .demand_cps()
                            * u64::from(copies);
                        if granted == rate_permille {
                            self.admitted += 1;
                            Decision::Admit
                        } else {
                            self.degraded += 1;
                            Decision::Degrade {
                                rate_permille: granted,
                            }
                        }
                    }
                    None => {
                        self.rejected += 1;
                        Decision::Reject(RejectReason::LinkBudget)
                    }
                }
            }
        }
    }

    /// Releases what `admit_relay` charged (pass the *granted* class).
    #[cfg(test)]
    pub fn release_relay(&mut self, class: StreamClass, copies: u32) {
        self.tx_cps = self
            .tx_cps
            .saturating_sub(class.demand_cps() * u64::from(copies));
    }

    /// Requests admitted (including degraded) so far.
    pub fn admitted(&self) -> u64 {
        self.admitted + self.degraded
    }

    /// Requests admitted only after degrading.
    pub fn degraded(&self) -> u64 {
        self.degraded
    }

    /// Requests rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Receive-side cell bandwidth currently charged.
    pub fn rx_cps(&self) -> u64 {
        self.rx_cps
    }

    /// Transmit-side cell bandwidth currently charged.
    pub fn tx_cps(&self) -> u64 {
        self.tx_cps
    }

    /// Audio sinks currently admitted.
    pub fn audio_sinks(&self) -> u32 {
        self.audio_sinks
    }

    /// Video sinks currently admitted.
    pub fn video_sinks(&self) -> u32 {
        self.video_sinks
    }
}

/// Halves `rate_permille` until the video demand fits in `spare_cps`,
/// stopping at [`MIN_VIDEO_RATE_PERMILLE`]. `None` when even the floor
/// doesn't fit.
fn degrade_to_fit(rate_permille: u32, spare_cps: u64) -> Option<u32> {
    let mut rate = rate_permille.max(1);
    loop {
        let demand = StreamClass::Video {
            rate_permille: rate,
        }
        .demand_cps();
        if demand <= spare_cps {
            return Some(rate);
        }
        if rate <= MIN_VIDEO_RATE_PERMILLE {
            return None;
        }
        rate = (rate / 2).max(MIN_VIDEO_RATE_PERMILLE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps(audio: u32, video: u32, link_cps: u64) -> Capabilities {
        Capabilities {
            audio_sinks_max: audio,
            video_sinks_max: video,
            link_cps,
        }
    }

    #[test]
    fn audio_admitted_until_sink_budget_then_rejected() {
        let mut a = AdmissionController::new(caps(3, 2, 1_000_000));
        for _ in 0..3 {
            assert_eq!(a.admit_sink(StreamClass::Audio), Decision::Admit);
        }
        assert_eq!(
            a.admit_sink(StreamClass::Audio),
            Decision::Reject(RejectReason::SinkBudget)
        );
        assert_eq!(a.admitted(), 3);
        assert_eq!(a.rejected(), 1);
        // Releasing one frees a slot.
        a.release_sink(StreamClass::Audio);
        assert_eq!(a.admit_sink(StreamClass::Audio), Decision::Admit);
    }

    #[test]
    fn audio_never_degraded_only_rejected_on_link_budget() {
        let mut a = AdmissionController::new(caps(10, 2, 1_200));
        assert_eq!(a.admit_sink(StreamClass::Audio), Decision::Admit);
        assert_eq!(a.admit_sink(StreamClass::Audio), Decision::Admit);
        assert_eq!(
            a.admit_sink(StreamClass::Audio),
            Decision::Reject(RejectReason::LinkBudget)
        );
        assert_eq!(a.degraded(), 0);
    }

    #[test]
    fn video_degrades_before_rejecting() {
        // Room for ~650 cells/sec: full-rate video (2600) must degrade
        // to 250‰.
        let mut a = AdmissionController::new(caps(3, 2, 650));
        let d = a.admit_sink(StreamClass::Video {
            rate_permille: 1_000,
        });
        assert_eq!(d, Decision::Degrade { rate_permille: 250 });
        assert_eq!(a.degraded(), 1);
        // Nothing left even at the floor: reject.
        let d2 = a.admit_sink(StreamClass::Video {
            rate_permille: 1_000,
        });
        assert_eq!(d2, Decision::Reject(RejectReason::LinkBudget));
    }

    #[test]
    fn release_refunds_granted_rate() {
        let mut a = AdmissionController::new(caps(3, 2, 650));
        let Decision::Degrade { rate_permille } = a.admit_sink(StreamClass::Video {
            rate_permille: 1_000,
        }) else {
            panic!("expected degrade");
        };
        a.release_sink(StreamClass::Video { rate_permille });
        assert_eq!(a.rx_cps(), 0);
        assert_eq!(a.video_sinks(), 0);
    }

    #[test]
    fn relay_charge_is_copies_times_demand() {
        // 8 video copies at 722‰ (a 1875 cps overlay stripe) against a
        // 100k cps uplink: fits whole.
        let mut a = AdmissionController::new(caps(0, 4, 100_000));
        let stripe = StreamClass::Video { rate_permille: 722 };
        assert_eq!(a.admit_relay(stripe, 8), Decision::Admit);
        assert_eq!(a.tx_cps(), stripe.demand_cps() * 8);
        a.release_relay(stripe, 8);
        assert_eq!(a.tx_cps(), 0);
    }

    #[test]
    fn relay_video_degrades_shared_rate_before_rejecting() {
        // 4 copies of full-rate video need 10400 cps; only 5300 spare,
        // so the stripe halves once to 500‰ (1300 cps per copy).
        let mut a = AdmissionController::new(caps(0, 4, 5_300));
        let d = a.admit_relay(
            StreamClass::Video {
                rate_permille: 1_000,
            },
            4,
        );
        assert_eq!(d, Decision::Degrade { rate_permille: 500 });
        assert_eq!(a.tx_cps(), 4 * 1_300);
        // Nothing meaningful left: even the 125‰ floor times 4 copies
        // overflows the 100 cps remainder.
        let d2 = a.admit_relay(
            StreamClass::Video {
                rate_permille: 1_000,
            },
            4,
        );
        assert_eq!(d2, Decision::Reject(RejectReason::LinkBudget));
    }

    #[test]
    fn relay_audio_admitted_whole_or_refused() {
        let mut a = AdmissionController::new(caps(0, 0, 1_200));
        assert_eq!(a.admit_relay(StreamClass::Audio, 2), Decision::Admit);
        assert_eq!(
            a.admit_relay(StreamClass::Audio, 1),
            Decision::Reject(RejectReason::LinkBudget)
        );
        assert_eq!(a.degraded(), 0);
    }

    #[test]
    fn relay_with_zero_copies_charges_nothing() {
        let mut a = AdmissionController::new(caps(0, 0, 10));
        assert_eq!(
            a.admit_relay(
                StreamClass::Video {
                    rate_permille: 1_000
                },
                0
            ),
            Decision::Admit
        );
        assert_eq!(a.tx_cps(), 0);
    }

    #[test]
    fn source_budget_charged_and_refused() {
        let mut a = AdmissionController::new(caps(3, 2, 1_200));
        assert_eq!(a.admit_source(StreamClass::Audio), Decision::Admit);
        assert_eq!(a.admit_source(StreamClass::Audio), Decision::Admit);
        assert_eq!(
            a.admit_source(StreamClass::Audio),
            Decision::Reject(RejectReason::LinkBudget)
        );
        a.release_source(StreamClass::Audio);
        assert_eq!(a.admit_source(StreamClass::Audio), Decision::Admit);
    }
}
