//! # pandora-shard — the sharded parallel simulation driver
//!
//! `pandora-sim` is a single-threaded deterministic executor; every soak
//! it can run is capped by one core. This crate breaks that ceiling
//! without giving up determinism: a [`Cluster`] partitions a topology
//! into per-core *shards*, each running its own [`Simulation`] event
//! loop, synchronized with **conservative lookahead** at the ATM-link
//! boundaries between them (DESIGN.md §13).
//!
//! The contract, in three rules:
//!
//! 1. **Links are the only seams.** Boxes and switches never straddle a
//!    shard; everything that crosses a shard boundary travels through a
//!    [`Cluster::port`] — a typed, latency-stamped, one-way link. The
//!    port's latency is the lookahead window: a shard may safely run to
//!    `min over in-neighbours (their horizon + port latency)`, because
//!    nothing a neighbour does *now* can affect this shard sooner than
//!    one latency from now. Zero-latency cross-shard ports are rejected
//!    at build time — they would collapse the lookahead window to
//!    nothing.
//! 2. **A port has two task-less ends, and ingress is merged
//!    deterministically.** The sending end is a [`PortSender`]
//!    ([`ShardEnv::open_egress`]): its synchronous `send` stamps the
//!    value `(due time, port id, per-port seq)` from inside whichever
//!    task calls it and queues it for the receiving shard — like the
//!    Inmos link engine it stands for, crossing a link costs the box no
//!    process. The receiving end is a plain `Receiver`
//!    ([`ShardEnv::bind_ingress`], or [`ShardEnv::bind_ingress_merged`]
//!    for any number of same-typed ports on one queue). Entries are
//!    drained from a per-shard heap in exactly stamp order, on the
//!    executor's *late* timer lane, so delivery interleaves identically
//!    with local work no matter when the entries physically crossed the
//!    thread boundary. Port ids are assigned in creation order, which
//!    topology builders keep independent of the shard count — so the
//!    merge keys, and therefore the schedule each box observes, are the
//!    same whether the cluster runs on one thread or eight. The same key
//!    is what makes a many-port receiver deterministic: one dispatcher
//!    feeds it in `(due, port, seq)` order, so what a fan-in task reads
//!    is a pure function of the stamps, never of which port's queue a
//!    scan happened to visit first.
//! 3. **One shard is the baseline.** With `Cluster::new(1)` everything
//!    is a loopback port on the calling thread: no OS threads, one
//!    `Simulation`, today's executor exactly. The equivalence suite
//!    (tests/sharded_equivalence.rs) asserts that shard counts
//!    {1, 2, 4, 8} produce byte-identical traces.
//!
//! The OS threads live in [`runtime`] — the one sanctioned exception to
//! the workspace's no-threads determinism rule, and the only module
//! with an os-thread waiver in `pandora-check`.
//!
//! The crate ships no topology: the stars are built by
//! `pandora_session::build_sharded_star`, the broadcast by
//! `pandora_overlay::build_overlay_broadcast`, and the equivalence
//! suite runs those. [`shard_of`] is the contiguous-range placement
//! the broadcast uses; a star takes its placement as a function.

mod cluster;
mod exchange;
mod hub;
mod runtime;

#[cfg(test)]
mod tests;

pub use cluster::{shard_of, Blackboard, Cluster, Egress, Ingress, PortSender, ShardEnv};
pub use runtime::RunReport;
