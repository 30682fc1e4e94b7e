//! A large fan-out broadcast topology for soaks and scaling benchmarks:
//! one source box at the root of a `fanout`-ary relay tree, every edge a
//! latency-stamped port. The builder assigns boxes to shards by
//! contiguous index ranges and creates ports in child-index order, so
//! the merge keys — and therefore the trace — are identical for every
//! shard count.

use std::cell::Cell;
use std::rc::Rc;

use pandora_sim::{delay, now, SimDuration};

use crate::cluster::{Cluster, Egress, Ingress, PortSender};

/// One broadcast segment travelling down the tree.
#[derive(Clone, Copy, Debug)]
pub struct Seg {
    /// Source sequence number.
    pub seq: u32,
    /// Source emission time, nanoseconds of virtual time.
    pub stamp: u64,
}

/// Shape of the broadcast soak.
#[derive(Clone, Copy, Debug)]
pub struct BroadcastConfig {
    /// Total boxes, source included. Box 0 is the source; box `i > 0`
    /// relays under parent `(i - 1) / fanout`.
    pub boxes: usize,
    /// Children per relay.
    pub fanout: usize,
    /// Source emission interval.
    pub segment_interval: SimDuration,
    /// Segments the source emits.
    pub segments: u32,
    /// Per-edge link latency — also the cross-shard lookahead window, so
    /// it must be positive.
    pub hop_latency: SimDuration,
    /// Per-relay processing delay before forwarding a segment.
    pub relay_cost: SimDuration,
}

/// The shard that owns box `i`: contiguous ranges, box 0 on shard 0.
pub fn shard_of(i: usize, boxes: usize, shards: usize) -> usize {
    debug_assert!(i < boxes);
    i * shards / boxes
}

/// Builds the broadcast tree over `shards` shards. Run the returned
/// cluster to a deadline and read the per-box lines from the report.
///
/// # Panics
///
/// Panics if `boxes` or `fanout` is zero, or if `hop_latency` is zero
/// (it is the lookahead window).
pub fn build(cfg: &BroadcastConfig, shards: usize) -> Cluster {
    assert!(cfg.boxes > 0, "broadcast needs at least the source box");
    assert!(cfg.fanout > 0, "fanout must be positive");
    assert!(
        cfg.hop_latency > SimDuration::ZERO,
        "hop latency is the lookahead window and must be positive"
    );

    let mut cluster = Cluster::new(shards);

    // Every tree edge as a port, in child-index order — the canonical
    // creation order shared by all shard counts.
    let mut edges: Vec<Option<(Egress<Seg>, Ingress<Seg>)>> = Vec::with_capacity(cfg.boxes);
    edges.push(None); // box 0 has no inbound edge
    for child in 1..cfg.boxes {
        let parent = (child - 1) / cfg.fanout;
        let from = shard_of(parent, cfg.boxes, shards);
        let to = shard_of(child, cfg.boxes, shards);
        let port = cluster.port::<Seg>(from, to, cfg.hop_latency, &format!("edge{child}"));
        edges.push(Some(port));
    }

    // Split each edge into its two halves, keyed by the box that binds it.
    let mut inbound: Vec<Option<Ingress<Seg>>> = Vec::with_capacity(cfg.boxes);
    let mut outbound: Vec<Vec<Egress<Seg>>> = (0..cfg.boxes).map(|_| Vec::new()).collect();
    for (child, edge) in edges.into_iter().enumerate() {
        match edge {
            Some((egress, ingress)) => {
                inbound.push(Some(ingress));
                outbound[(child - 1) / cfg.fanout].push(egress);
            }
            None => inbound.push(None),
        }
    }

    for (i, (ingress, egresses)) in inbound.into_iter().zip(outbound).enumerate() {
        let shard = shard_of(i, cfg.boxes, shards);
        let cfg = *cfg;
        cluster.setup(shard, move |env| {
            // Open this box's outbound edges: one port sender per child
            // for the relay task to fan out on.
            let child_txs: Vec<PortSender<Seg>> = egresses
                .into_iter()
                .map(|egress| env.open_egress(egress))
                .collect();

            let recv = Rc::new(Cell::new(0u64));
            let fwd = Rc::new(Cell::new(0u64));
            let last = Rc::new(Cell::new(-1i64));

            match ingress {
                None => {
                    // The source: emit `segments` at a fixed cadence.
                    let fwd = fwd.clone();
                    env.spawner().spawn("bcast:src", async move {
                        for seq in 0..cfg.segments {
                            let seg = Seg {
                                seq,
                                stamp: now().as_nanos(),
                            };
                            for tx in &child_txs {
                                tx.send(seg);
                                fwd.set(fwd.get() + 1);
                            }
                            delay(cfg.segment_interval).await;
                        }
                    });
                }
                Some(ingress) => {
                    let rx = env.bind_ingress(ingress);
                    let (recv, fwd, last) = (recv.clone(), fwd.clone(), last.clone());
                    env.spawner().spawn(&format!("bcast:box{i}"), async move {
                        while let Ok(seg) = rx.recv().await {
                            recv.set(recv.get() + 1);
                            last.set(i64::from(seg.seq));
                            delay(cfg.relay_cost).await;
                            for tx in &child_txs {
                                tx.send(seg);
                                fwd.set(fwd.get() + 1);
                            }
                        }
                    });
                }
            }

            env.on_finish(move || {
                vec![format!(
                    "box{i:04} recv={} fwd={} last={}",
                    recv.get(),
                    fwd.get(),
                    last.get()
                )]
            });
        });
    }

    cluster
}
