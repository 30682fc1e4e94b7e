//! Stripe scheduling and the per-viewer receive state.
//!
//! A segment becomes one [`Slice`]: its size, the [`CellBurst`] its
//! cells would fill, behind an `Arc`. No member reassembles a slice, so
//! it carries no payload. Every relay hop clones the `Arc`, so fanning
//! one slice to a thousand viewers copies nothing (pinned by
//! `relay_adds_no_payload_copies`); links charge each hop the slice's
//! full cell count.
//!
//! The scheduler is round-robin by construction: segment `seq` rides
//! tree `seq % k`, so each tree carries every k-th segment and a crashed
//! interior interrupts only its own stripe. Receivers track per-tree
//! next-expected sequence numbers: in-order slices are delivered,
//! re-sent slices from a repair replay are deduplicated, and anything
//! arriving past the playout budget is counted late — the clawback rule:
//! a viewer plays `playout` behind the source, so repair has that long
//! to refill a gap invisibly.

use std::collections::VecDeque;
use std::sync::Arc;

use pandora_atm::CellBurst;
use pandora_sim::WireSize;

/// Number of power-of-two microsecond buckets in a hop histogram.
pub(crate) const HOP_BUCKETS: usize = 16;

/// One striped segment in flight: its shared size plus routing/timing
/// metadata. Cloning bumps the `Arc`.
#[derive(Debug, Clone)]
pub struct Slice {
    /// The tree (stripe) this slice rides: `seq % k`.
    pub tree: u8,
    /// Source-assigned segment sequence number, global across stripes.
    pub seq: u32,
    /// Source emission time, nanoseconds of virtual time.
    pub stamp: u64,
    /// Last forwarding hop's transmit time — per-hop latency is
    /// `arrival - sent`.
    pub sent: u64,
    /// The segment's cell count, sized once at the source.
    pub burst: Arc<CellBurst>,
}

impl Slice {
    /// The slice re-stamped for the next hop's transmit time.
    pub fn retimed(&self, now_nanos: u64) -> Slice {
        Slice {
            sent: now_nanos,
            ..self.clone()
        }
    }
}

impl WireSize for Slice {
    fn wire_bytes(&self) -> usize {
        self.burst.wire_bytes()
    }
}

/// Per-tree ring of recently forwarded slices, the clawback buffer a
/// backup parent replays from when it adopts an orphan. Only the tree a
/// node is interior in needs one (plus all trees at the source) — a node
/// forwards nothing elsewhere.
#[derive(Debug, Default)]
pub struct RepairRing {
    cap: usize,
    slices: VecDeque<Slice>,
}

impl RepairRing {
    /// A ring holding at most `cap` slices.
    pub fn new(cap: usize) -> RepairRing {
        RepairRing {
            cap,
            slices: VecDeque::with_capacity(cap),
        }
    }

    /// Records a forwarded slice, evicting the oldest past capacity.
    pub fn push(&mut self, slice: Slice) {
        if self.cap == 0 {
            return;
        }
        if self.slices.len() == self.cap {
            self.slices.pop_front();
        }
        self.slices.push_back(slice);
    }

    /// Slices with `seq >= from_seq`, oldest first — the catch-up burst
    /// for a freshly grafted orphan.
    pub(crate) fn replay_from(&self, from_seq: u32) -> Vec<Slice> {
        self.slices
            .iter()
            .filter(|s| s.seq >= from_seq)
            .cloned()
            .collect()
    }
}

/// What [`StripeReceiver::accept`] decided about an arriving slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accept {
    /// First sight of this sequence, delivered in order.
    Delivered {
        /// Arrived within the playout budget.
        on_time: bool,
    },
    /// Already delivered (a repair-replay overlap) — dropped.
    Duplicate,
    /// Delivered, but sequences were skipped getting here (`gap` of
    /// them went missing for good).
    DeliveredAfterGap {
        /// Stripe-local sequences skipped over.
        gap: u32,
        /// Arrived within the playout budget.
        on_time: bool,
    },
    /// Not a slice of this receiver's stripes — a tree past `k`, a
    /// sequence off its tree, or one whose successor would overflow — and
    /// dropped like a duplicate.
    Refused,
}

/// Stripe trees a topology may have: a receiver and a heartbeat keep
/// their per-tree state in inline arrays this long, so a member's rows
/// hold no heap block of their own.
pub(crate) const MAX_TREES: usize = 8;

/// Per-viewer receive state across the `k` stripes: dedupe, gap and
/// lateness accounting, and the per-hop latency histogram. Every count
/// but the dupes is bounded by the sequences delivered, so fits in 32
/// bits.
#[derive(Debug, Clone)]
pub struct StripeReceiver {
    playout_nanos: u64,
    /// Next expected global seq per tree (tree t starts at seq t and
    /// advances by k); the first `k` are in use.
    next: [u32; MAX_TREES],
    /// Last delivery time per tree (`u64::MAX` before the first).
    stripe_last: [u64; MAX_TREES],
    dupes: u64,
    last_delivery: u64,
    gap_max: u64,
    stripe_gap_max: u64,
    hop_max: u64,
    delivered: u32,
    gap_skips: u32,
    late: u32,
    k: u8,
    hop_buckets: [u32; HOP_BUCKETS],
}

impl StripeReceiver {
    /// Fresh state for `k` stripes under a `playout` lateness budget.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or more than eight.
    pub fn new(k: usize, playout_nanos: u64) -> StripeReceiver {
        assert!(
            (1..=MAX_TREES).contains(&k),
            "{k} stripes: a receiver keeps 1 to {MAX_TREES}"
        );
        let mut next = [0; MAX_TREES];
        for (t, n) in next.iter_mut().enumerate() {
            *n = t as u32;
        }
        StripeReceiver {
            playout_nanos,
            next,
            stripe_last: [u64::MAX; MAX_TREES],
            dupes: 0,
            last_delivery: 0,
            gap_max: 0,
            stripe_gap_max: 0,
            hop_max: 0,
            delivered: 0,
            gap_skips: 0,
            late: 0,
            k: k as u8,
            hop_buckets: [0; HOP_BUCKETS],
        }
    }

    /// Classifies and accounts one arriving slice. A slice that is not
    /// on one of the `k` stripes, or whose stripe could not advance past
    /// it, is [`Accept::Refused`] and changes nothing.
    pub fn accept(&mut self, slice: &Slice, now_nanos: u64) -> Accept {
        let k = u32::from(self.k);
        if slice.tree >= self.k {
            return Accept::Refused;
        }
        let t = usize::from(slice.tree);
        // `next[t]` is always on tree t, so a slice is on it exactly when
        // it lies a whole number of rounds away.
        let distance = slice.seq.abs_diff(self.next[t]);
        if !distance.is_multiple_of(k) {
            return Accept::Refused;
        }
        if slice.seq < self.next[t] {
            self.dupes += 1;
            return Accept::Duplicate;
        }
        let Some(after) = slice.seq.checked_add(k) else {
            return Accept::Refused;
        };
        let gap = distance / k;
        self.next[t] = after;
        let on_time = now_nanos.saturating_sub(slice.stamp) <= self.playout_nanos;
        if !on_time {
            self.late += 1;
        }
        if self.delivered > 0 {
            self.gap_max = self
                .gap_max
                .max(now_nanos.saturating_sub(self.last_delivery));
        }
        self.last_delivery = now_nanos;
        if self.stripe_last[t] != u64::MAX {
            self.stripe_gap_max = self
                .stripe_gap_max
                .max(now_nanos.saturating_sub(self.stripe_last[t]));
        }
        self.stripe_last[t] = now_nanos;
        self.delivered += 1;
        let hop = now_nanos.saturating_sub(slice.sent);
        self.hop_max = self.hop_max.max(hop);
        let us = hop / 1_000;
        // Bucket i holds hops in [2^i, 2^(i+1)) microseconds.
        let idx = (us.max(1).ilog2() as usize).min(HOP_BUCKETS - 1);
        self.hop_buckets[idx] += 1;
        if gap > 0 {
            self.gap_skips += gap;
            Accept::DeliveredAfterGap { gap, on_time }
        } else {
            Accept::Delivered { on_time }
        }
    }

    /// Next expected global sequence per tree — what heartbeats report
    /// so a graft knows where replay must resume.
    pub(crate) fn next_expected(&self) -> &[u32] {
        &self.next[..usize::from(self.k)]
    }

    /// Slices delivered (first sight, in order).
    pub(crate) fn delivered(&self) -> u64 {
        u64::from(self.delivered)
    }

    /// Replay overlaps dropped.
    pub(crate) fn dupes(&self) -> u64 {
        self.dupes
    }

    /// Sequences skipped for good.
    pub(crate) fn gap_skips(&self) -> u64 {
        u64::from(self.gap_skips)
    }

    /// Deliveries past the playout budget.
    pub(crate) fn late(&self) -> u64 {
        u64::from(self.late)
    }

    /// Longest wait between consecutive deliveries — the repair-gap
    /// statistic: how long the viewer's clawback buffer had to bridge.
    pub(crate) fn gap_max_nanos(&self) -> u64 {
        self.gap_max
    }

    /// Longest wait between consecutive deliveries *on one stripe* — the
    /// repair-gap statistic proper: when an interior relay dies, only its
    /// stripe goes silent for its subtree (the other k - 1 keep
    /// delivering), so this is the window the graft-and-replay machinery
    /// had to close, and it must stay under the playout budget for the
    /// repair to be glitch-free.
    pub(crate) fn stripe_gap_max_nanos(&self) -> u64 {
        self.stripe_gap_max
    }

    /// Worst single-hop latency observed.
    pub(crate) fn hop_max_nanos(&self) -> u64 {
        self.hop_max
    }

    /// The per-hop latency histogram: bucket `i` counts hops in
    /// `[2^i, 2^(i+1))` microseconds.
    pub(crate) fn hop_buckets(&self) -> &[u32; HOP_BUCKETS] {
        &self.hop_buckets
    }

    /// Slices never delivered out of `segments` emitted: round-robin
    /// striping owes every viewer each of them.
    pub(crate) fn lost(&self, segments: u32) -> u64 {
        u64::from(segments.saturating_sub(self.delivered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_atm::{burst_gather, Vci};

    fn slice(k: usize, seq: u32, stamp: u64, sent: u64) -> Slice {
        Slice {
            tree: (seq as usize % k) as u8,
            seq,
            stamp,
            sent,
            burst: Arc::new(burst_gather(Vci(9), &[], &[0xAB; 96], seq * 8)),
        }
    }

    #[test]
    fn in_order_slices_deliver_on_time() {
        let mut rx = StripeReceiver::new(2, 10_000_000);
        for seq in 0..6u32 {
            let s = slice(2, seq, 1_000, 2_000);
            assert_eq!(rx.accept(&s, 5_000), Accept::Delivered { on_time: true });
        }
        assert_eq!(rx.delivered(), 6);
        assert_eq!(rx.lost(6), 0);
        assert_eq!(rx.late(), 0);
        assert_eq!(rx.next_expected(), &[6, 7]);
    }

    #[test]
    fn replay_overlap_is_deduplicated() {
        let mut rx = StripeReceiver::new(2, 10_000_000);
        let s0 = slice(2, 0, 0, 0);
        let _ = rx.accept(&s0, 100);
        assert_eq!(rx.accept(&s0, 200), Accept::Duplicate);
        assert_eq!(rx.dupes(), 1);
        assert_eq!(rx.delivered(), 1);
    }

    #[test]
    fn skipped_sequences_count_as_gaps_and_lateness_uses_stamp() {
        let mut rx = StripeReceiver::new(2, 1_000);
        let _ = rx.accept(&slice(2, 0, 0, 0), 100);
        // seq 2 never arrives; seq 4 lands late (stamp 0, now beyond
        // playout).
        match rx.accept(&slice(2, 4, 0, 0), 5_000) {
            Accept::DeliveredAfterGap {
                gap: 1,
                on_time: false,
            } => {}
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(rx.gap_skips(), 1);
        assert_eq!(rx.late(), 1);
        assert_eq!(rx.lost(6), 4, "only 0 and 4 of the 6 segments arrived");
    }

    #[test]
    fn gap_max_tracks_the_longest_delivery_silence() {
        let mut rx = StripeReceiver::new(1, u64::MAX);
        let _ = rx.accept(&slice(1, 0, 0, 0), 1_000);
        let _ = rx.accept(&slice(1, 1, 0, 0), 2_000);
        let _ = rx.accept(&slice(1, 2, 0, 0), 50_000);
        let _ = rx.accept(&slice(1, 3, 0, 0), 51_000);
        assert_eq!(rx.gap_max_nanos(), 48_000);
    }

    #[test]
    fn stripe_gap_tracks_single_tree_silence() {
        // Tree 1 goes silent between 2ms and 60ms while tree 0 keeps
        // delivering: the overall gap stays small but the stripe gap
        // shows the outage the repair had to bridge.
        let mut rx = StripeReceiver::new(2, u64::MAX);
        let _ = rx.accept(&slice(2, 0, 0, 0), 1_000_000);
        let _ = rx.accept(&slice(2, 1, 0, 0), 2_000_000);
        for (seq, at) in [(2u32, 5), (4, 9), (6, 13), (8, 17)] {
            let _ = rx.accept(&slice(2, seq, 0, 0), at * 1_000_000);
        }
        let _ = rx.accept(&slice(2, 3, 0, 0), 60_000_000);
        assert_eq!(rx.stripe_gap_max_nanos(), 58_000_000);
        assert!(rx.gap_max_nanos() < 58_000_000);
    }

    #[test]
    fn ring_replays_from_a_resume_point() {
        let mut ring = RepairRing::new(4);
        for seq in [1u32, 3, 5, 7, 9] {
            ring.push(slice(2, seq, 0, 0));
        }
        assert_eq!(ring.replay_from(0).len(), 4, "capacity evicts the oldest");
        let replay = ring.replay_from(5);
        let seqs: Vec<u32> = replay.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![5, 7, 9]);
        assert!(ring.replay_from(100).is_empty());
    }

    #[test]
    fn relay_adds_no_payload_copies() {
        // One burst sized at the source; a thousand forwards share it.
        let burst = Arc::new(burst_gather(Vci(5), &[], &[7u8; 1408], 0));
        let original = Arc::as_ptr(&burst);
        let s = Slice {
            tree: 0,
            seq: 0,
            stamp: 0,
            sent: 0,
            burst,
        };
        let mut hops = Vec::new();
        for i in 0..1_000u64 {
            hops.push(s.retimed(i));
        }
        for h in &hops {
            assert!(std::ptr::eq(Arc::as_ptr(&h.burst), original));
        }
        assert_eq!(Arc::strong_count(&s.burst), 1_001);
    }

    /// Hostile slices: any tree, sequences near zero, near `u32::MAX` or
    /// anywhere, and arbitrary times. None panics, every call is a
    /// delivery, a dupe or a refusal, and no stripe's resume point moves
    /// back.
    #[test]
    fn hostile_slices_are_refused_and_never_rewind_a_stripe() {
        use pandora_prop::{check, Rng, Tape};
        type Hostile = (u8, u32, u64, u64, u64);
        fn hostile(tape: &mut Tape) -> (usize, Vec<Hostile>) {
            let k = tape.gen_range(1..=MAX_TREES);
            let slices = (0..100)
                .map(|_| {
                    let seq = match tape.gen_range(0..3u8) {
                        0 => tape.gen_range(0..64u32),
                        1 => u32::MAX - tape.gen_range(0..64u32),
                        _ => tape.gen_range(0..=u32::MAX),
                    };
                    let tree = if tape.gen_bool(0.5) {
                        (seq % k as u32) as u8
                    } else {
                        tape.gen_range(0..=u8::MAX)
                    };
                    (tree, seq, tape.next_u64(), tape.next_u64(), tape.next_u64())
                })
                .collect();
            (k, slices)
        }
        let burst = Arc::new(burst_gather(Vci(9), &[], &[0xAB; 48], 0));
        check("hostile_slices", 1, 1_000, hostile, |(k, slices)| {
            let mut rx = StripeReceiver::new(*k, 1_000_000);
            let mut refused = 0;
            for (calls, &(tree, seq, stamp, sent, now)) in (1u64..).zip(slices) {
                let before = rx.next_expected().to_vec();
                let burst = burst.clone();
                let s = Slice {
                    tree,
                    seq,
                    stamp,
                    sent,
                    burst,
                };
                if rx.accept(&s, now) == Accept::Refused {
                    refused += 1;
                }
                assert_eq!(rx.delivered() + rx.dupes() + refused, calls);
                let after = rx.next_expected();
                assert!(
                    before.iter().zip(after).all(|(b, a)| a >= b),
                    "{before:?} -> {after:?}"
                );
            }
        });
    }

    #[test]
    fn off_stripe_and_overflowing_slices_are_refused() {
        let mut rx = StripeReceiver::new(2, u64::MAX);
        let mut s = slice(2, 0, 0, 0);
        // A tree past eight, a tree in k..8, two sequences off their tree,
        // and the last sequence of each tree, whose successor overflows.
        let refused = [
            (8u8, 0u32),
            (255, 1),
            (2, 2),
            (0, 1),
            (1, u32::MAX),
            (0, u32::MAX - 1),
        ];
        for (tree, seq) in refused {
            s.tree = tree;
            s.seq = seq;
            assert_eq!(
                rx.accept(&s, 1_000),
                Accept::Refused,
                "tree {tree} seq {seq}"
            );
        }
        assert_eq!((rx.delivered(), rx.dupes()), (0, 0));
        assert_eq!(rx.next_expected(), &[0, 1]);
        s.tree = 0;
        s.seq = u32::MAX - 3;
        let gap = (u32::MAX - 3) / 2;
        let on_time = true;
        assert_eq!(
            rx.accept(&s, 2_000),
            Accept::DeliveredAfterGap { gap, on_time }
        );
        assert_eq!(rx.next_expected(), &[u32::MAX - 1, 1]);
    }

    #[test]
    fn hop_histogram_buckets_by_power_of_two_micros() {
        let mut rx = StripeReceiver::new(1, u64::MAX);
        // 3 µs hop → bucket 1; 1000 µs hop → bucket 9.
        let _ = rx.accept(&slice(1, 0, 0, 0), 3_000);
        let _ = rx.accept(&slice(1, 1, 0, 1_000_000), 2_000_000);
        assert_eq!(rx.hop_buckets()[1], 1);
        assert_eq!(rx.hop_buckets()[9], 1);
        assert_eq!(rx.hop_max_nanos(), 1_000_000);
    }
}
