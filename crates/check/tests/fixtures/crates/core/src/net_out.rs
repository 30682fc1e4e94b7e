//! Seeded hash-order violations: the P3 drop tie in miniature. Two video
//! queues opened at the same instant tie on age, and the victim is
//! whichever one `HashMap` iteration yields first — a different stream
//! from one process to the next.

use std::collections::HashMap;

/// Video queues by stream: the instant each opened, and its backlog.
pub struct NetOut {
    queues: HashMap<u32, (u64, Vec<u8>)>,
}

impl NetOut {
    /// Sheds the oldest queue's backlog; a tie falls to hash order.
    pub fn shed(&mut self) -> Option<u32> {
        let victim = self.queues.iter().min_by_key(|(_, q)| q.0).map(|(&s, _)| s)?;
        self.queues.get_mut(&victim)?.1.clear();
        Some(victim)
    }
}

/// Looked up, never iterated.
pub fn waived_lookup(key: u32) -> Option<u32> {
    // check:allow(hash-order): lookups only, never iterated.
    let index: std::collections::HashMap<u32, u32> = Default::default();
    index.get(&key).copied()
}
