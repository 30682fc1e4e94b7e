//! Passive heartbeat bookkeeping over a [`LeaseTable`].
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
//! Determinism: peers are swept in ascending id order (the `LeaseTable`
//! contract), and the hello flags are plain counters — a sweep's event
//! list is a pure function of which hellos landed between sweeps.

use std::collections::BTreeMap;

use crate::lease::{Lease, LeaseConfig, LeaseEvent, LeaseTable};

/// A lease table fed by volunteered heartbeats instead of probes.
#[derive(Debug, Default)]
pub struct PassiveBeat {
    table: LeaseTable,
    fresh: BTreeMap<u32, bool>,
}

impl PassiveBeat {
    /// An empty book.
    pub fn new() -> PassiveBeat {
        PassiveBeat::default()
    }

    /// Starts watching `peer` under `config`. Re-enrolling keeps lease
    /// history (the [`LeaseTable::grant`] contract).
    pub fn enroll(&mut self, peer: u32, config: LeaseConfig) {
        self.table.grant(peer, config);
        self.fresh.entry(peer).or_insert(true);
    }

    /// Records a hello from `peer`. The renewal is applied immediately
    /// so a revival surfaces without waiting for the next sweep; the
    /// peer is also marked fresh for that sweep.
    pub fn hello(&mut self, peer: u32) -> Option<LeaseEvent> {
        let lease = self.table.get_mut(peer)?;
        let event = lease.renew();
        self.fresh.insert(peer, true);
        event
    }

    /// One sweep: every enrolled peer without a hello since the last
    /// sweep takes a miss. Returns the threshold crossings in ascending
    /// peer order.
    pub fn sweep(&mut self) -> Vec<(u32, LeaseEvent)> {
        let mut events = Vec::new();
        for (&peer, fresh) in self.fresh.iter_mut() {
            if *fresh {
                *fresh = false;
                continue;
            }
            if let Some(event) = self.table.get_mut(peer).and_then(Lease::miss) {
                events.push((peer, event));
            }
        }
        events
    }

    /// Read access to the lease a peer holds.
    pub fn lease(&self, peer: u32) -> Option<&Lease> {
        self.table.get(peer)
    }

    /// The underlying table, for state queries and digests.
    pub fn table(&self) -> &LeaseTable {
        &self.table
    }

    /// Deterministic multi-line digest (the table's).
    pub fn digest(&self) -> String {
        self.table.digest()
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
        assert_eq!(beat.table().in_state(LeaseState::Dead), vec![2]);
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
        assert!(beat.sweep().is_empty());
    }
}
