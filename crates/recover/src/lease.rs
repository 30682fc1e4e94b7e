//! Controller-held leases renewed by heartbeats on the command path.
//!
//! Each attached box holds a lease the controller's probe task renews by
//! a Ping/Pong exchange (Principle 4: commands travel ahead of data, so
//! a live data path implies a live lease path). The lease itself is a
//! pure counter machine — the probe task owns all timing, asking the
//! lease how long to wait before the next probe ([`Lease::next_probe_in`]
//! backs off exponentially while renewals are missing) and reporting
//! each outcome through [`Lease::renew`] / [`Lease::miss`].
//!
//! State walk: `Live --misses>=suspect_after--> Suspect
//! --misses>=dead_after--> Dead --renewal--> Live` (a revival). The
//! transitions are returned as [`LeaseEvent`]s so the caller can run
//! reconvergence exactly once per death and rejoin exactly once per
//! revival.

use pandora_sim::SimDuration;

/// Lease/heartbeat tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseConfig {
    /// Nominal renewal interval — the probe cadence while the lease is
    /// live and every renewal succeeds.
    pub interval: SimDuration,
    /// Consecutive missed renewals before the lease turns `Suspect`.
    pub suspect_after: u32,
    /// Consecutive missed renewals before the lease turns `Dead`.
    /// Must be at least `suspect_after`.
    pub dead_after: u32,
    /// Upper bound on the backed-off probe interval. Probing continues
    /// past death at this capped cadence, watching for a restart.
    pub backoff_cap: SimDuration,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            interval: SimDuration::from_millis(100),
            suspect_after: 2,
            dead_after: 4,
            backoff_cap: SimDuration::from_millis(800),
        }
    }
}

/// Where a lease stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseState {
    /// Renewals arriving on cadence.
    Live,
    /// Renewals missing, not yet long enough to declare death.
    Suspect,
    /// Renewals missing past `dead_after` — reconvergence has the floor.
    Dead,
}

impl LeaseState {
    /// Canonical lowercase name, for digests and state timelines.
    pub fn name(self) -> &'static str {
        match self {
            LeaseState::Live => "live",
            LeaseState::Suspect => "suspect",
            LeaseState::Dead => "dead",
        }
    }
}

/// A state transition worth acting on, returned by [`Lease::renew`] and
/// [`Lease::miss`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseEvent {
    /// `Live → Suspect`: start watching closely (and backing off).
    Suspected,
    /// `Suspect → Dead`: run crash reconvergence.
    Died,
    /// `Suspect|Dead → Live`: the box is back; if it was dead, run the
    /// rejoin path (stale-state cleanup, then normal re-admission).
    Revived {
        /// Whether the lease was `Dead` (a true rejoin) rather than
        /// merely `Suspect` (a blip that never reached reconvergence).
        was_dead: bool,
    },
}

/// One endpoint's lease.
#[derive(Debug, Clone)]
pub struct Lease {
    config: LeaseConfig,
    state: LeaseState,
    misses: u32,
    renewals: u64,
    missed_total: u64,
    deaths: u64,
    revivals: u64,
}

impl Lease {
    /// A fresh, live lease.
    ///
    /// # Panics
    ///
    /// Panics if `dead_after < suspect_after` or either is zero — such a
    /// lease could die before it suspects, or die instantly.
    pub fn new(config: LeaseConfig) -> Lease {
        assert!(
            config.suspect_after > 0 && config.dead_after >= config.suspect_after,
            "lease thresholds must satisfy 0 < suspect_after <= dead_after"
        );
        Lease {
            config,
            state: LeaseState::Live,
            misses: 0,
            renewals: 0,
            missed_total: 0,
            deaths: 0,
            revivals: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> LeaseState {
        self.state
    }

    /// Consecutive misses in the current bad streak (0 while live).
    pub fn misses(&self) -> u32 {
        self.misses
    }

    /// Renewals accepted over the lease's lifetime.
    pub fn renewals(&self) -> u64 {
        self.renewals
    }

    /// Times the lease died.
    pub fn deaths(&self) -> u64 {
        self.deaths
    }

    /// Times the lease revived from suspect or dead.
    pub fn revivals(&self) -> u64 {
        self.revivals
    }

    /// A successful renewal: resets the miss streak; reports a revival
    /// if the lease was suspect or dead.
    pub fn renew(&mut self) -> Option<LeaseEvent> {
        self.renewals += 1;
        self.misses = 0;
        match self.state {
            LeaseState::Live => None,
            LeaseState::Suspect | LeaseState::Dead => {
                let was_dead = self.state == LeaseState::Dead;
                self.state = LeaseState::Live;
                self.revivals += 1;
                Some(LeaseEvent::Revived { was_dead })
            }
        }
    }

    /// A missed renewal: advances the miss streak and reports the
    /// suspect/death threshold crossings exactly once each.
    pub fn miss(&mut self) -> Option<LeaseEvent> {
        self.missed_total += 1;
        self.misses = self.misses.saturating_add(1);
        match self.state {
            LeaseState::Live if self.misses >= self.config.suspect_after => {
                self.state = LeaseState::Suspect;
                // A degenerate config (suspect_after == dead_after) dies
                // on the same miss; the death event wins.
                if self.misses >= self.config.dead_after {
                    self.state = LeaseState::Dead;
                    self.deaths += 1;
                    return Some(LeaseEvent::Died);
                }
                Some(LeaseEvent::Suspected)
            }
            LeaseState::Suspect if self.misses >= self.config.dead_after => {
                self.state = LeaseState::Dead;
                self.deaths += 1;
                Some(LeaseEvent::Died)
            }
            _ => None,
        }
    }

    /// How long the probe should wait before the next renewal attempt:
    /// the nominal interval while renewals succeed, doubling per
    /// consecutive miss (exponential backoff), capped at
    /// `backoff_cap`. Probing never stops — a dead lease is probed at
    /// the cap so a restarted box is noticed.
    pub fn next_probe_in(&self) -> SimDuration {
        let base = self.config.interval.as_nanos();
        let cap = self.config.backoff_cap.as_nanos().max(base);
        let shift = self.misses.min(20);
        let backed_off = base.saturating_mul(1u64 << shift);
        SimDuration(backed_off.min(cap))
    }

    /// One-line digest of the lease's counters, for replay assertions.
    pub fn digest(&self) -> String {
        format!(
            "state={} renewals={} missed={} deaths={} revivals={}",
            self.state.name(),
            self.renewals,
            self.missed_total,
            self.deaths,
            self.revivals
        )
    }
}

/// A book of leases indexed by a dense small id: the session
/// controller's endpoint ids (`Directory::register` hands out `len - 1`)
/// or the overlay's member numbers. A slot is one index, not a map
/// lookup, and ids are visited in ascending order, so sweeps and digests
/// do not depend on the order leases were granted.
///
/// The controller renews each lease itself, from its probe's outcome
/// through [`LeaseBook::get_mut`]. A fan-out hub cannot afford a probe
/// round-trip per peer, so it flips the direction: every peer volunteers
/// a [`LeaseBook::hello`] on its own cadence and the hub runs one
/// [`LeaseBook::sweep`] per interval, missing every lease that heard no
/// hello since the last one. Same lease machine, same walk.
#[derive(Debug, Default)]
pub struct LeaseBook {
    /// Per id: its lease and whether a hello landed since the last
    /// sweep; `None` for an id never granted.
    leases: Vec<Option<(Lease, bool)>>,
}

impl LeaseBook {
    /// An empty book.
    pub fn new() -> LeaseBook {
        LeaseBook::default()
    }

    /// Grants a fresh live lease to `id`, fresh for the next sweep.
    /// Re-granting keeps the lease's history and its hello flag. The
    /// book grows to `id + 1` slots: ids are meant to be dense.
    pub fn grant(&mut self, id: u32, config: LeaseConfig) {
        let i = id as usize;
        if self.leases.len() <= i {
            self.leases.resize_with(i + 1, || None);
        }
        self.leases[i].get_or_insert_with(|| (Lease::new(config), true));
    }

    /// The lease `id` holds, if granted.
    pub fn get(&self, id: u32) -> Option<&Lease> {
        self.leases
            .get(id as usize)?
            .as_ref()
            .map(|(lease, _)| lease)
    }

    /// Mutable access for renew/miss reporting.
    pub fn get_mut(&mut self, id: u32) -> Option<&mut Lease> {
        self.leases
            .get_mut(id as usize)?
            .as_mut()
            .map(|(lease, _)| lease)
    }

    /// Records a hello from `id`. The renewal is applied immediately so
    /// a revival surfaces without waiting for the next sweep; the lease
    /// is also marked fresh for that sweep.
    pub fn hello(&mut self, id: u32) -> Option<LeaseEvent> {
        let (lease, fresh) = self.leases.get_mut(id as usize)?.as_mut()?;
        *fresh = true;
        lease.renew()
    }

    /// One sweep: every lease without a hello since the last sweep takes
    /// a miss. Returns the threshold crossings in ascending id order.
    pub fn sweep(&mut self) -> Vec<(u32, LeaseEvent)> {
        let mut events = Vec::new();
        for (id, slot) in self.leases.iter_mut().enumerate() {
            let Some((lease, fresh)) = slot else {
                continue;
            };
            if std::mem::take(fresh) {
                continue;
            }
            if let Some(event) = lease.miss() {
                events.push((id as u32, event));
            }
        }
        events
    }

    /// Multi-line digest (`id: <lease digest>`), in ascending id order.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        for (id, slot) in self.leases.iter().enumerate() {
            if let Some((lease, _)) = slot {
                out.push_str(&format!("{id}: {}\n", lease.digest()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LeaseConfig {
        LeaseConfig {
            interval: SimDuration::from_millis(100),
            suspect_after: 2,
            dead_after: 4,
            backoff_cap: SimDuration::from_millis(800),
        }
    }

    #[test]
    fn walks_live_suspect_dead_exactly_once() {
        let mut l = Lease::new(cfg());
        assert_eq!(l.state(), LeaseState::Live);
        assert_eq!(l.miss(), None);
        assert_eq!(l.miss(), Some(LeaseEvent::Suspected));
        assert_eq!(l.state(), LeaseState::Suspect);
        assert_eq!(l.miss(), None);
        assert_eq!(l.miss(), Some(LeaseEvent::Died));
        assert_eq!(l.state(), LeaseState::Dead);
        // Further misses stay dead without re-reporting.
        assert_eq!(l.miss(), None);
        assert_eq!(l.deaths(), 1);
    }

    #[test]
    fn renewal_revives_and_resets_backoff() {
        let mut l = Lease::new(cfg());
        for _ in 0..4 {
            let _ = l.miss();
        }
        assert_eq!(l.state(), LeaseState::Dead);
        assert_eq!(l.renew(), Some(LeaseEvent::Revived { was_dead: true }));
        assert_eq!(l.state(), LeaseState::Live);
        assert_eq!(l.next_probe_in(), SimDuration::from_millis(100));
        // A suspect blip revives with was_dead = false.
        let _ = l.miss();
        let _ = l.miss();
        assert_eq!(l.state(), LeaseState::Suspect);
        assert_eq!(l.renew(), Some(LeaseEvent::Revived { was_dead: false }));
        assert_eq!(l.revivals(), 2);
    }

    #[test]
    fn probe_interval_backs_off_exponentially_to_the_cap() {
        let mut l = Lease::new(cfg());
        assert_eq!(l.next_probe_in(), SimDuration::from_millis(100));
        let _ = l.miss();
        assert_eq!(l.next_probe_in(), SimDuration::from_millis(200));
        let _ = l.miss();
        assert_eq!(l.next_probe_in(), SimDuration::from_millis(400));
        let _ = l.miss();
        assert_eq!(l.next_probe_in(), SimDuration::from_millis(800));
        let _ = l.miss();
        // Capped: misses keep counting but the cadence holds.
        assert_eq!(l.next_probe_in(), SimDuration::from_millis(800));
        for _ in 0..40 {
            let _ = l.miss();
        }
        assert_eq!(l.next_probe_in(), SimDuration::from_millis(800));
    }

    fn beat_cfg() -> LeaseConfig {
        LeaseConfig {
            interval: SimDuration::from_millis(10),
            suspect_after: 2,
            dead_after: 3,
            backoff_cap: SimDuration::from_millis(80),
        }
    }

    #[test]
    fn digest_lists_leases_in_id_order() {
        let mut book = LeaseBook::new();
        for id in [7u32, 1, 4] {
            book.grant(id, cfg());
        }
        for _ in 0..4 {
            let _ = book.get_mut(4).unwrap().miss();
        }
        assert_eq!(
            book.digest(),
            "1: state=live renewals=0 missed=0 deaths=0 revivals=0\n\
             4: state=dead renewals=0 missed=4 deaths=1 revivals=0\n\
             7: state=live renewals=0 missed=0 deaths=0 revivals=0\n"
        );
    }

    #[test]
    fn silent_peer_walks_to_dead_in_sweep_order() {
        let mut book = LeaseBook::new();
        for p in [3u32, 1, 2] {
            book.grant(p, beat_cfg());
        }
        // Everyone is fresh at grant time: first sweep misses nobody.
        assert!(book.sweep().is_empty());
        // Peers 1 and 3 keep calling; peer 2 goes silent. Its first miss
        // is below `suspect_after`, the second reaches it.
        book.hello(1);
        book.hello(3);
        assert!(book.sweep().is_empty());
        book.hello(1);
        book.hello(3);
        assert_eq!(book.sweep(), vec![(2, LeaseEvent::Suspected)]);
        book.hello(1);
        book.hello(3);
        assert_eq!(book.sweep(), vec![(2, LeaseEvent::Died)]);
        let states = [1, 2, 3].map(|p| book.get(p).map(Lease::state));
        assert_eq!(
            states,
            [LeaseState::Live, LeaseState::Dead, LeaseState::Live].map(Some)
        );
    }

    /// Two peers fall silent together: their events come back in id
    /// order, whatever order they were granted in.
    #[test]
    fn simultaneous_deaths_come_back_in_peer_order() {
        use LeaseEvent::{Died, Suspected};
        let mut book = LeaseBook::new();
        for p in [9u32, 4, 6] {
            book.grant(p, beat_cfg());
        }
        let mut events = Vec::new();
        for _ in 0..4 {
            book.hello(6);
            events.extend(book.sweep());
        }
        assert_eq!(
            events,
            vec![(4, Suspected), (9, Suspected), (4, Died), (9, Died)]
        );
        assert!(book.get(5).is_none(), "an id never granted holds no lease");
    }

    #[test]
    fn regrant_keeps_history() {
        let mut book = LeaseBook::new();
        book.grant(2, beat_cfg());
        for _ in 0..4 {
            let _ = book.sweep();
        }
        book.grant(2, beat_cfg());
        assert_eq!(book.get(2).map(Lease::deaths), Some(1));
    }

    #[test]
    fn hello_revives_immediately() {
        let mut book = LeaseBook::new();
        book.grant(5, beat_cfg());
        assert!(book.sweep().is_empty());
        for _ in 0..3 {
            let _ = book.sweep();
        }
        assert_eq!(book.get(5).unwrap().state(), LeaseState::Dead);
        assert_eq!(
            book.hello(5),
            Some(LeaseEvent::Revived { was_dead: true }),
            "revival must not wait for the sweep"
        );
        assert!(book.sweep().is_empty());
    }

    #[test]
    fn hello_from_a_stranger_is_ignored() {
        let mut book = LeaseBook::new();
        assert_eq!(book.hello(9), None);
        book.grant(2, beat_cfg());
        assert_eq!(book.hello(1), None, "a hole below a granted id");
        assert!(book.sweep().is_empty());
    }

    #[test]
    #[should_panic(expected = "lease thresholds")]
    fn rejects_inverted_thresholds() {
        let _ = Lease::new(LeaseConfig {
            suspect_after: 5,
            dead_after: 2,
            ..cfg()
        });
    }
}
