//! # pandora-shard — the cluster: one event loop and its typed ports
//!
//! A [`Cluster`] is one [`pandora_sim::Simulation`] on the calling thread,
//! plus the ports topology builders wire boxes and relays with
//! (DESIGN.md §13). The star and the overlay broadcast are built on it;
//! the crate ships no topology of its own.
//!
//! The contract, in two rules:
//!
//! 1. **A port has two task-less ends.** The sending end is a
//!    [`PortSender`] ([`ShardEnv::open_egress`]), or a slot of a
//!    [`PortTable`] ([`ShardEnv::open_egress_table`]): its synchronous `send`
//!    stamps the value `(due time, port id)` from inside whichever task
//!    calls it — like the Inmos link engine it stands for, crossing a link
//!    costs the box no process (§3.1). The receiving end is a call
//!    ([`ShardEnv::bind_ingress_tagged`]) that the dispatcher makes with
//!    each value at its due instant — one call for any number of
//!    same-typed ports, each under a tag of its own — or a plain
//!    `Receiver` ([`ShardEnv::bind_ingress_merged`]) for any number of
//!    same-typed ports on one queue.
//! 2. **Ingress is merged deterministically.** Every stamped value lands
//!    in its port's lane — one typed FIFO per (latency, payload type),
//!    kept in stamp order — and one dispatcher task (`shard:dispatch`)
//!    merges the lanes' heads and delivers each value at its due time on
//!    the executor's *late* timer lane, in exactly `(due, port)` order,
//!    each port's values in send order. Port ids are assigned in creation
//!    order, so what a fan-in task reads is a pure function of the
//!    stamps, never of which port's queue a scan happened to visit first.
//!
//! The name and the shard arguments of [`Cluster::new`] and
//! [`Cluster::setup`] are what is left of the threaded runtime that used
//! to split this loop across OS threads; ROADMAP item 4 deletes them.

#![deny(missing_docs)]

mod cluster;
mod hub;
mod runtime;

#[cfg(test)]
mod tests;

pub use cluster::{Cluster, Egress, Ingress, PortSender, PortTable, ShardEnv};
pub use runtime::{Render, RunReport};
