//! Passive heartbeat bookkeeping: a dense book of [`Lease`]s.
//!
//! The session controller renews leases *actively*: its probe tasks send
//! Ping and report each Pong through [`Lease::renew`]. A fan-out hub
//! watching a thousand relays cannot afford a probe round-trip per peer,
//! so the overlay flips the direction: every peer volunteers a hello on
//! its own cadence and the hub runs one sweep per interval, renewing
//! every lease that heard a hello since the last sweep and missing every
//! lease that did not. Same lease machine, same `Live → Suspect → Dead`
//! walk, no per-peer tasks.
//!
//! Peers are dense small ids (the overlay's member numbers), so the book
//! is a `Vec` indexed by id: a hello is one index, not a map lookup.
//!
//! Determinism: peers are swept in ascending id order, and the hello
//! flags are plain booleans — a sweep's event list is a pure function of
//! which hellos landed between sweeps.

use crate::lease::{Lease, LeaseConfig, LeaseEvent};

/// Leases fed by volunteered heartbeats instead of probes.
#[derive(Debug, Default)]
pub struct PassiveBeat {
    /// Per peer id: its lease and whether a hello landed since the last
    /// sweep; `None` for an id never enrolled.
    peers: Vec<Option<(Lease, bool)>>,
}

impl PassiveBeat {
    /// An empty book.
    pub fn new() -> PassiveBeat {
        PassiveBeat::default()
    }

    /// Starts watching `peer` under `config`, fresh for the next sweep.
    /// Re-enrolling keeps the lease's history and its hello flag. The
    /// book grows to `peer + 1` slots: ids are meant to be dense.
    pub fn enroll(&mut self, peer: u32, config: LeaseConfig) {
        let i = peer as usize;
        if self.peers.len() <= i {
            self.peers.resize_with(i + 1, || None);
        }
        self.peers[i].get_or_insert_with(|| (Lease::new(config), true));
    }

    /// Records a hello from `peer`. The renewal is applied immediately
    /// so a revival surfaces without waiting for the next sweep; the
    /// peer is also marked fresh for that sweep.
    pub fn hello(&mut self, peer: u32) -> Option<LeaseEvent> {
        let (lease, fresh) = self.peers.get_mut(peer as usize)?.as_mut()?;
        *fresh = true;
        lease.renew()
    }

    /// One sweep: every enrolled peer without a hello since the last
    /// sweep takes a miss. Returns the threshold crossings in ascending
    /// peer order.
    pub fn sweep(&mut self) -> Vec<(u32, LeaseEvent)> {
        let mut events = Vec::new();
        for (peer, slot) in self.peers.iter_mut().enumerate() {
            let Some((lease, fresh)) = slot else {
                continue;
            };
            if std::mem::take(fresh) {
                continue;
            }
            if let Some(event) = lease.miss() {
                events.push((peer as u32, event));
            }
        }
        events
    }

    /// Read access to the lease a peer holds.
    pub fn lease(&self, peer: u32) -> Option<&Lease> {
        self.peers
            .get(peer as usize)?
            .as_ref()
            .map(|(lease, _)| lease)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lease::LeaseState;
    use pandora_sim::SimDuration;

    fn cfg() -> LeaseConfig {
        LeaseConfig {
            interval: SimDuration::from_millis(10),
            suspect_after: 2,
            dead_after: 3,
            backoff_cap: SimDuration::from_millis(80),
        }
    }

    #[test]
    fn silent_peer_walks_to_dead_in_sweep_order() {
        let mut beat = PassiveBeat::new();
        for p in [3u32, 1, 2] {
            beat.enroll(p, cfg());
        }
        // Everyone is fresh at enrolment: first sweep misses nobody.
        assert!(beat.sweep().is_empty());
        // Peers 1 and 3 keep calling; peer 2 goes silent. Its first miss
        // is below `suspect_after`, the second reaches it.
        beat.hello(1);
        beat.hello(3);
        assert!(beat.sweep().is_empty());
        beat.hello(1);
        beat.hello(3);
        assert_eq!(beat.sweep(), vec![(2, LeaseEvent::Suspected)]);
        beat.hello(1);
        beat.hello(3);
        assert_eq!(beat.sweep(), vec![(2, LeaseEvent::Died)]);
        let states = [1, 2, 3].map(|p| beat.lease(p).map(Lease::state));
        assert_eq!(
            states,
            [LeaseState::Live, LeaseState::Dead, LeaseState::Live].map(Some)
        );
    }

    /// Two peers fall silent together: their events come back in id
    /// order, whatever order they enrolled in.
    #[test]
    fn simultaneous_deaths_come_back_in_peer_order() {
        use LeaseEvent::{Died, Suspected};
        let mut beat = PassiveBeat::new();
        for p in [9u32, 4, 6] {
            beat.enroll(p, cfg());
        }
        let mut events = Vec::new();
        for _ in 0..4 {
            beat.hello(6);
            events.extend(beat.sweep());
        }
        assert_eq!(
            events,
            vec![(4, Suspected), (9, Suspected), (4, Died), (9, Died)]
        );
        assert!(
            beat.lease(5).is_none(),
            "an id never enrolled holds no lease"
        );
    }

    #[test]
    fn reenrolling_keeps_history() {
        let mut beat = PassiveBeat::new();
        beat.enroll(2, cfg());
        for _ in 0..4 {
            let _ = beat.sweep();
        }
        beat.enroll(2, cfg());
        assert_eq!(beat.lease(2).map(Lease::deaths), Some(1));
    }

    #[test]
    fn hello_revives_immediately() {
        let mut beat = PassiveBeat::new();
        beat.enroll(5, cfg());
        assert!(beat.sweep().is_empty());
        for _ in 0..3 {
            let _ = beat.sweep();
        }
        assert_eq!(beat.lease(5).unwrap().state(), LeaseState::Dead);
        assert_eq!(
            beat.hello(5),
            Some(LeaseEvent::Revived { was_dead: true }),
            "revival must not wait for the sweep"
        );
        assert!(beat.sweep().is_empty());
    }

    #[test]
    fn hello_from_a_stranger_is_ignored() {
        let mut beat = PassiveBeat::new();
        assert_eq!(beat.hello(9), None);
        beat.enroll(2, cfg());
        assert_eq!(beat.hello(1), None, "a hole below an enrolled id");
        assert!(beat.sweep().is_empty());
    }
}
