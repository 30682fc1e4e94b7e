//! The simulated ATM fabric: paths of hops, and switches.
//!
//! The clawback experiments need realistic network disturbance processes.
//! The models here reproduce the conditions the paper reports: "with our
//! network, the jitter is usually around 2ms, sometimes rising to 20ms if
//! there are large blocks of video being transmitted through the same
//! network interface" (§3.7.2), and the SuperJanet trial's multi-hop
//! "several networks and protocol conversions" path.
//!
//! A hop is two tasks: a wire (`link:{path}.{i}`, a [`long_line`]) that
//! serialises cells and stamps each with its arrival instant, and a
//! release stage (`hop:{path}.{i}`) that applies the hop's jitter and
//! loss and hands the cell on — see [`build_path_controlled`]. Hop 0's wire
//! drains whatever queue the path is built over: a switch's output port
//! feeds its attachment with no task in between.

use std::cell::Cell as StdCell;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pandora_sim::{
    buffered, channel, delay_until, link_queue, long_line, AltSet, LinkConfig, LinkControl,
    LinkSender, Receiver, Sender, SimDuration, SimTime, Spawner,
};

use crate::cell::{Cell, Vci};

/// A random extra-delay process applied to a FIFO stream.
#[derive(Debug, Clone, Copy)]
pub enum JitterModel {
    /// No jitter.
    None,
    /// Uniform extra delay in `[0, max]`.
    Uniform {
        /// Largest extra delay.
        max: SimDuration,
    },
    /// Mostly `base`-bounded uniform jitter with occasional bursts up to
    /// `burst` (probability `burst_prob` per item) — the "2ms usually,
    /// sometimes 20ms" shape of §3.7.2.
    Bursty {
        /// Usual jitter bound.
        base: SimDuration,
        /// Burst jitter bound.
        burst: SimDuration,
        /// Probability of a burst per item, in 0..=1.
        burst_prob: f64,
    },
}

impl JitterModel {
    fn sample(&self, rng: &mut SmallRng) -> SimDuration {
        match *self {
            JitterModel::None => SimDuration::ZERO,
            JitterModel::Uniform { max } => SimDuration(rng.gen_range(0..=max.as_nanos())),
            JitterModel::Bursty {
                base,
                burst,
                burst_prob,
            } => {
                if rng.gen_bool(burst_prob) {
                    SimDuration(
                        rng.gen_range(base.as_nanos()..=burst.as_nanos().max(base.as_nanos() + 1)),
                    )
                } else {
                    SimDuration(rng.gen_range(0..=base.as_nanos()))
                }
            }
        }
    }
}

/// Unified fabric/stage counters: one shared-handle struct counts items
/// through loss stages and switches alike, so the switch and the per-hop
/// stats carry no parallel `forwarded` plumbing.
/// Cloning shares the underlying counters.
#[derive(Clone, Default)]
pub struct FabricCounters {
    forwarded: Rc<StdCell<u64>>,
    dropped: Rc<StdCell<u64>>,
    unroutable: Rc<StdCell<u64>>,
    overflow: Rc<StdCell<u64>>,
}

impl FabricCounters {
    /// Items passed through.
    pub fn forwarded(&self) -> u64 {
        self.forwarded.get()
    }

    /// Items deliberately dropped (loss model).
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Items dropped for lack of a route.
    pub(crate) fn unroutable(&self) -> u64 {
        self.unroutable.get()
    }

    /// Items dropped on full output queues.
    pub fn overflow(&self) -> u64 {
        self.overflow.get()
    }

    pub(crate) fn count_forwarded(&self, n: u64) {
        self.forwarded.set(self.forwarded.get() + n);
    }

    pub(crate) fn count_dropped(&self, n: u64) {
        self.dropped.set(self.dropped.get() + n);
    }

    pub(crate) fn count_unroutable(&self, n: u64) {
        self.unroutable.set(self.unroutable.get() + n);
    }

    pub(crate) fn count_overflow(&self, n: u64) {
        self.overflow.set(self.overflow.get() + n);
    }
}

/// One hop of an ATM path: a bandwidth-limited cell link, its
/// propagation latency, and the jitter and loss of whatever the hop
/// crosses.
#[derive(Debug, Clone, Copy)]
pub struct HopConfig {
    /// Link rate in bits per second.
    pub bits_per_sec: u64,
    /// Propagation/processing latency of the hop.
    pub latency: SimDuration,
    /// Jitter process of the hop: each cell is held for a fresh sample
    /// past its arrival, but never released before its predecessor (like
    /// queueing behind cross-traffic).
    pub jitter: JitterModel,
    /// Per-cell loss probability, in 0..=1.
    pub loss: f64,
}

impl HopConfig {
    /// A clean hop at `bits_per_sec` with no latency, jitter or loss.
    pub fn clean(bits_per_sec: u64) -> Self {
        HopConfig {
            bits_per_sec,
            latency: SimDuration::ZERO,
            jitter: JitterModel::None,
            loss: 0.0,
        }
    }

    /// Refuses a hop whose probabilities no generator could draw from.
    fn validate(&self, path: &str, index: usize) {
        assert!(
            (0.0..=1.0).contains(&self.loss),
            "hop {path}.{index}: loss probability {} out of range",
            self.loss
        );
        if let JitterModel::Bursty { burst_prob, .. } = self.jitter {
            assert!(
                (0.0..=1.0).contains(&burst_prob),
                "hop {path}.{index}: burst probability {burst_prob} out of range"
            );
        }
    }
}

#[derive(Default)]
struct PathCtlState {
    loss: StdCell<f64>,
    corrupt: StdCell<f64>,
    extra_delay_ns: StdCell<u64>,
    injected_drops: StdCell<u64>,
    injected_corruptions: StdCell<u64>,
}

/// Runtime fault-injection handle for a [`build_path_controlled`] path.
///
/// A fault plan can superimpose cell loss, payload corruption and a
/// latency step on the path's egress, and reach the per-hop
/// [`LinkControl`]s to flap links or collapse their bandwidth. All
/// randomness comes from the path's seeded generator, so a given plan
/// replays bit-identically.
#[derive(Clone)]
pub struct PathControl {
    state: Rc<PathCtlState>,
    links: Rc<Vec<LinkControl>>,
}

impl PathControl {
    /// Wraps hop links in a control handle whose egress disturbance knobs
    /// start at zero. Every path builder makes its own this way;
    /// topologies that assemble their own links (the overlay's relay
    /// uplinks) do it to register with `pandora-faults` as a named path.
    pub fn from_links(links: Vec<LinkControl>) -> Self {
        PathControl {
            state: Rc::default(),
            links: Rc::new(links),
        }
    }

    /// Sets the superimposed Bernoulli cell-loss probability (0 disables).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0..=1`.
    pub fn set_loss(&self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.state.loss.set(p);
    }

    /// Sets the per-cell payload-corruption probability (0 disables).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0..=1`.
    pub fn set_corruption(&self, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "corruption probability out of range"
        );
        self.state.corrupt.set(p);
    }

    /// Sets a constant extra delay at the path egress. Stepping this up
    /// then back down reproduces the §3.7.2 jitter step: a gap opens when
    /// the delay appears, and a burst drains when it is removed.
    pub fn set_extra_delay(&self, d: SimDuration) {
        self.state.extra_delay_ns.set(d.as_nanos());
    }

    /// Cells dropped by injected loss so far.
    pub fn injected_drops(&self) -> u64 {
        self.state.injected_drops.get()
    }

    /// Cells whose payload was corrupted so far.
    pub fn injected_corruptions(&self) -> u64 {
        self.state.injected_corruptions.get()
    }

    /// Control handle of hop `i`'s link, if the path has that many hops.
    pub fn link(&self, i: usize) -> Option<&LinkControl> {
        self.links.get(i)
    }
}

/// Builds a multi-hop ATM path whose first wire drains `source`; returns
/// the egress receiver, per-hop loss stats and the path's fault controls
/// (see [`build_path_controlled`]).
fn build_path_over(
    spawner: &Spawner,
    name: &str,
    hops: &[HopConfig],
    seed: u64,
    source: Receiver<Cell>,
) -> (Receiver<Cell>, Vec<FabricCounters>, PathControl) {
    assert!(!hops.is_empty(), "a path needs at least one hop");
    // Wire 0 drains the caller's queue; every later wire a hand-off slot
    // of its own, which the stage before it fills.
    let mut source = Some(source);
    let mut feeds = Vec::with_capacity(hops.len() - 1);
    let mut arrivals = Vec::with_capacity(hops.len());
    let mut link_ctls = Vec::with_capacity(hops.len());
    for (i, hop) in hops.iter().enumerate() {
        let source = source.take().unwrap_or_else(|| {
            let (feed, slot) = link_queue();
            feeds.push(feed);
            slot
        });
        hop.validate(name, i);
        // LinkConfig wants a &'static str name; paths are built once per
        // simulation, so leaking the handful of hop names is fine.
        let wire_name = Box::leak(format!("{name}.{i}").into_boxed_str());
        let config = LinkConfig::new(wire_name, hop.bits_per_sec);
        let (stamped, lc) = long_line(spawner, config, hop.latency, source);
        arrivals.push(stamped);
        link_ctls.push(lc);
    }
    let ctrl = PathControl::from_links(link_ctls);
    let stats: Vec<FabricCounters> = hops.iter().map(|_| FabricCounters::default()).collect();
    let (egress_tx, egress_rx) = channel::<Cell>();
    // From the egress backwards: each stage owns the sender into the wire
    // after it.
    let mut next = Next::Exit {
        tx: egress_tx,
        ctrl: ctrl.state.clone(),
        rng: SmallRng::seed_from_u64(seed ^ 0xFA17),
    };
    for (i, stamped) in arrivals.into_iter().enumerate().rev() {
        let seed = seed.wrapping_add(i as u64);
        spawner.spawn(
            &format!("hop:{name}.{i}"),
            release_stage(stamped, hops[i], seed, stats[i].clone(), next),
        );
        next = match feeds.pop() {
            Some(tx) => Next::Hop(tx),
            None => break,
        };
    }
    (egress_rx, stats, ctrl)
}

/// Builds a multi-hop ATM path over a fresh [`link_queue`]; returns the
/// path's ingress (the queue's sender), the egress receiver, per-hop loss
/// stats and the path's fault controls.
///
/// This is the E15 "SuperJanet" substrate: chain several hops with bursty
/// jitter to model a Cambridge-to-London path crossing "several networks
/// and protocol conversions". Hop `i` is two tasks: its wire,
/// `link:{name}.{i}` — a [`long_line`], whose [`LinkControl`] the returned
/// [`PathControl`] reaches — and its release stage, `hop:{name}.{i}`,
/// which feeds the next hop's wire. The last hop's stage is also the
/// path's fault stage and feeds the egress; left untouched, the controls
/// pass every cell through at its release instant.
///
/// # Panics
///
/// Panics if `hops` is empty, or — naming the hop — if a `loss` or a
/// [`JitterModel::Bursty`] `burst_prob` is outside `0..=1` (NaN included).
pub fn build_path_controlled(
    spawner: &Spawner,
    name: &str,
    hops: &[HopConfig],
    seed: u64,
) -> (
    LinkSender<Cell>,
    Receiver<Cell>,
    Vec<FabricCounters>,
    PathControl,
) {
    let (ingress, source) = link_queue();
    let (egress_rx, stats, ctrl) = build_path_over(spawner, name, hops, seed, source);
    (ingress, egress_rx, stats, ctrl)
}

/// Where a release stage sends: the next hop's wire, or — the last hop —
/// the path's egress, through the disturbance a fault plan sets on the
/// [`PathControl`] and this stage draws from `rng`.
enum Next {
    Hop(LinkSender<Cell>),
    Exit {
        tx: Sender<Cell>,
        ctrl: Rc<PathCtlState>,
        rng: SmallRng,
    },
}

/// The `hop:*` task: one sequential loop doing what a stamper and a
/// delayer per stage (jitter, loss, faults) did, because each delayer
/// reached cell *k* at `max(arrival_k, release_{k-1})` — which is where a
/// loop is after cell *k − 1* (DESIGN.md §5). Every release is computed
/// from the wire's arrival stamp, never from `now`: measured from when
/// the loop got around to a cell, jitter and a standing extra delay would
/// compound into unbounded delay instead of shifting cells by a constant.
async fn release_stage(
    stamped: Receiver<(SimTime, Cell)>,
    hop: HopConfig,
    seed: u64,
    stats: FabricCounters,
    mut next: Next,
) {
    let mut jitter_rng = SmallRng::seed_from_u64(seed ^ 0xA5A5);
    let mut loss_rng = SmallRng::seed_from_u64(seed ^ 0x5A5A);
    let (mut released, mut egressed) = (SimTime::ZERO, SimTime::ZERO);
    while let Ok((arrival, mut cell)) = stamped.recv().await {
        // Held for a fresh sample, never released before its predecessor.
        let due = (arrival + hop.jitter.sample(&mut jitter_rng)).max(released);
        released = due;
        // A lossless hop counts nothing, as when it had no loss stage.
        if hop.loss > 0.0 {
            if loss_rng.gen_bool(hop.loss) {
                stats.count_dropped(1);
                continue;
            }
            stats.count_forwarded(1);
        }
        delay_until(due).await;
        let sent = match &mut next {
            Next::Hop(tx) => tx.send(cell).await,
            // The controls are read only now, after the jitter wait: a
            // cell is disturbed by what the plan says as it leaves the
            // network, not as it entered the hop.
            Next::Exit { tx, ctrl, rng } => {
                let loss = ctrl.loss.get();
                if loss > 0.0 && rng.gen_bool(loss) {
                    ctrl.injected_drops.set(ctrl.injected_drops.get() + 1);
                    continue;
                }
                // One byte XORed, so the frame fails to decode downstream
                // rather than vanishing.
                let corrupt = ctrl.corrupt.get();
                if corrupt > 0.0 && rng.gen_bool(corrupt) && cell.payload_len > 0 {
                    let i = rng.gen_range(0..cell.payload_len as usize);
                    cell.payload[i] ^= 0xFF;
                    ctrl.injected_corruptions
                        .set(ctrl.injected_corruptions.get() + 1);
                }
                egressed = (due + SimDuration(ctrl.extra_delay_ns.get())).max(egressed);
                delay_until(egressed).await;
                tx.send(cell).await
            }
        };
        if sent.is_err() {
            return;
        }
    }
}

/// The two directions of a [`build_duplex_path`] connection: `a` holds
/// the A-side ingress/egress, `b` the B-side egress — what feeds the B
/// side is the queue the connection was built over — with per-direction
/// hop stats and fault controls.
pub struct DuplexPath {
    /// A-side sender (into the a→b direction).
    pub a_tx: LinkSender<Cell>,
    /// A-side receiver (egress of the b→a direction).
    pub a_rx: Receiver<Cell>,
    /// B-side receiver (egress of the a→b direction).
    pub b_rx: Receiver<Cell>,
    /// Per-hop loss stats of the a→b direction.
    pub a_to_b: Vec<FabricCounters>,
    /// Per-hop loss stats of the b→a direction.
    pub b_to_a: Vec<FabricCounters>,
    /// Fault-injection control of the a→b direction.
    pub a_to_b_ctrl: PathControl,
    /// Fault-injection control of the b→a direction.
    pub b_to_a_ctrl: PathControl,
}

/// Builds a full-duplex connection: two independent controlled paths with
/// the same hop profile, one per direction. The b→a direction drains
/// `b_source` — a switch's output port, or the [`link_queue`] whose sender
/// the B endpoint holds — and derives its seed from `seed`, so a single
/// seed reproduces the whole connection, yet the two directions see
/// independent disturbance processes.
pub fn build_duplex_path(
    spawner: &Spawner,
    name: &str,
    hops: &[HopConfig],
    seed: u64,
    b_source: Receiver<Cell>,
) -> DuplexPath {
    let (a_tx, b_rx, a_to_b, a_to_b_ctrl) =
        build_path_controlled(spawner, &format!("{name}.ab"), hops, seed);
    let (a_rx, b_to_a, b_to_a_ctrl) = build_path_over(
        spawner,
        &format!("{name}.ba"),
        hops,
        seed ^ 0xDEAD,
        b_source,
    );
    DuplexPath {
        a_tx,
        a_rx,
        b_rx,
        a_to_b,
        b_to_a,
        a_to_b_ctrl,
        b_to_a_ctrl,
    }
}

// Each routed VCI carries a list of copy destinations: (output port,
// rewritten VCI).
type RouteTable = Rc<RefCell<BTreeMap<Vci, Vec<(usize, Vci)>>>>;

/// The synchronous dispatch core of the switch: route table, unified
/// counters and the bounded per-port output queues.
///
/// [`Switch`] wraps this in a simulation task; the benchmark drives it
/// directly. Cloning shares the same table, counters and ports.
#[derive(Clone)]
pub struct SwitchCore {
    table: RouteTable,
    counters: FabricCounters,
    port_txs: Vec<Sender<Cell>>,
}

impl SwitchCore {
    /// Builds a core with `output_ports` ports whose queues hold
    /// `port_queue` cells each; returns one receiver per output port.
    pub fn new(output_ports: usize, port_queue: usize) -> (SwitchCore, Vec<Receiver<Cell>>) {
        let mut port_txs = Vec::with_capacity(output_ports);
        let mut port_rxs = Vec::with_capacity(output_ports);
        for _ in 0..output_ports {
            let (tx, rx) = buffered::<Cell>(port_queue.max(1));
            port_txs.push(tx);
            port_rxs.push(rx);
        }
        let core = SwitchCore {
            table: Rc::default(),
            counters: FabricCounters::default(),
            port_txs,
        };
        (core, port_rxs)
    }

    /// The unified forwarding counters.
    pub fn counters(&self) -> &FabricCounters {
        &self.counters
    }

    /// Cells forwarded.
    pub fn forwarded(&self) -> u64 {
        self.counters.forwarded()
    }

    /// Cells dropped for lack of a route.
    pub fn unroutable(&self) -> u64 {
        self.counters.unroutable()
    }

    /// Cells dropped on full output ports.
    pub fn overflow(&self) -> u64 {
        self.counters.overflow()
    }

    /// Installs (or replaces) a unicast route: cells on `vci` go to `port`
    /// with their VCI rewritten to `out_vci`. Any previously installed
    /// copies of the VCI are dropped.
    pub fn route(&self, vci: Vci, port: usize, out_vci: Vci) {
        self.table.borrow_mut().insert(vci, vec![(port, out_vci)]);
    }

    /// Adds one more copy destination for `vci` (fabric-level splitting:
    /// the tannoy grows without touching the VCI's existing copies, so
    /// ongoing listeners never glitch — Principle 6). Duplicate copies are
    /// ignored.
    pub fn route_add(&self, vci: Vci, port: usize, out_vci: Vci) {
        let mut table = self.table.borrow_mut();
        let routes = table.entry(vci).or_default();
        if !routes.contains(&(port, out_vci)) {
            routes.push((port, out_vci));
        }
    }

    /// Removes the copies of `vci` going to `port`; copies toward other
    /// ports keep flowing undisturbed.
    pub fn route_remove(&self, vci: Vci, port: usize) {
        let mut table = self.table.borrow_mut();
        if let Some(routes) = table.get_mut(&vci) {
            routes.retain(|&(p, _)| p != port);
            if routes.is_empty() {
                table.remove(&vci);
            }
        }
    }

    /// Removes a VCI's routes entirely.
    pub fn unroute(&self, vci: Vci) {
        self.table.borrow_mut().remove(&vci);
    }

    /// Removes every leg toward `port` — the dead-attachment teardown:
    /// when an endpoint crashes, all fan-out copies aimed at it come out
    /// of the table in one pass while every other port's legs keep
    /// flowing (Principle 6). Returns the VCIs that lost legs, in
    /// ascending order so callers act on them deterministically.
    pub fn unroute_port(&self, port: usize) -> Vec<Vci> {
        let mut table = self.table.borrow_mut();
        let mut touched: Vec<Vci> = Vec::new();
        for (&vci, routes) in table.iter_mut() {
            let before = routes.len();
            routes.retain(|&(p, _)| p != port);
            if routes.len() != before {
                touched.push(vci);
            }
        }
        for vci in &touched {
            if table.get(vci).is_some_and(|r| r.is_empty()) {
                table.remove(vci);
            }
        }
        touched.sort_by_key(|v| v.0);
        touched
    }

    /// Number of installed legs toward `port` — the recovery suite's
    /// "no routes left toward the dead box" assertion.
    pub fn port_route_count(&self, port: usize) -> usize {
        self.table
            .borrow()
            .values()
            .map(|routes| routes.iter().filter(|&&(p, _)| p == port).count())
            .sum()
    }

    /// Forwards one cell: route lookup, per-route copy, per-port
    /// `try_send`.
    pub fn dispatch_cell(&self, cell: Cell) {
        let table = self.table.borrow();
        match table.get(&cell.vci) {
            Some(routes) if !routes.is_empty() => {
                for &(out, new_vci) in routes {
                    if out >= self.port_txs.len() {
                        self.counters.count_unroutable(1);
                        continue;
                    }
                    let mut copy = cell.clone();
                    copy.vci = new_vci;
                    match self.port_txs[out].try_send(copy) {
                        Ok(()) => self.counters.count_forwarded(1),
                        Err(_) => self.counters.count_overflow(1),
                    }
                }
            }
            _ => self.counters.count_unroutable(1),
        }
    }
}

/// A VCI-routed cell switch (the ATM ring / switch fabric stand-in): a
/// [`SwitchCore`] plus the task that feeds it, so the route table and the
/// counters are reached through the handle (`switch.route(..)`).
///
/// Cells arriving on any input port are forwarded to the ports given by the
/// routing table, optionally rewriting the VCI. A VCI may carry several
/// copy destinations (fabric-level tannoy splitting): each installed copy
/// is forwarded independently. Unroutable cells are dropped and counted.
/// Output ports have bounded queues: a full port drops cells (counting
/// them) rather than stalling other ports — Principle 5 at the fabric
/// level, and Principle 5 again between the copies of a multicast VCI.
pub struct Switch {
    core: SwitchCore,
}

impl Switch {
    /// Spawns the switch task over `core` and the given input ports. The
    /// ports are the caller's to make ([`SwitchCore::new`]) because a
    /// fabric's outputs may have to exist before its inputs do: a star's
    /// attachments drain the one and feed the other. The task ends when
    /// every input has closed — at once if there are none.
    pub fn spawn(
        spawner: &Spawner,
        name: &str,
        core: SwitchCore,
        inputs: Vec<Receiver<Cell>>,
    ) -> Switch {
        let task_core = core.clone();
        let mut inputs = AltSet::new(inputs);
        spawner.spawn(&format!("switch:{name}"), async move {
            while let Ok((_port, cell)) = inputs.recv().await {
                task_core.dispatch_cell(cell);
            }
        });
        Switch { core }
    }
}

impl std::ops::Deref for Switch {
    type Target = SwitchCore;

    fn deref(&self) -> &SwitchCore {
        &self.core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_sim::{SimTime, Simulation};
    use std::cell::RefCell as StdRefCell;

    /// A switch over a fresh core of `ports` ports of `queue` cells.
    fn switch(
        sim: &Simulation,
        inputs: Vec<Receiver<Cell>>,
        ports: usize,
        queue: usize,
    ) -> (Switch, Vec<Receiver<Cell>>) {
        let (core, outs) = SwitchCore::new(ports, queue);
        (Switch::spawn(&sim.spawner(), "s", core, inputs), outs)
    }

    #[test]
    fn clean_path_delivers_in_order() {
        let mut sim = Simulation::new();
        let (tx, rx, _stats, _ctrl) =
            build_path_controlled(&sim.spawner(), "p", &[HopConfig::clean(100_000_000)], 1);
        sim.spawn("send", async move {
            for i in 0..10 {
                tx.send(Cell::new(Vci(1), i, false, &[i as u8]))
                    .await
                    .unwrap();
            }
        });
        let got = Rc::new(StdRefCell::new(Vec::new()));
        let g = got.clone();
        sim.spawn("recv", async move {
            for _ in 0..10 {
                let cell = rx.recv().await.unwrap();
                g.borrow_mut().push(cell.seq);
            }
        });
        sim.run_until_idle();
        assert_eq!(*got.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn jitter_delays_but_preserves_order() {
        let mut sim = Simulation::new();
        let (tx, rx0, _stats, _ctrl) = build_path_controlled(
            &sim.spawner(),
            "p",
            &[HopConfig {
                bits_per_sec: 100_000_000,
                latency: SimDuration::ZERO,
                jitter: JitterModel::Uniform {
                    max: SimDuration::from_millis(5),
                },
                loss: 0.0,
            }],
            42,
        );
        sim.spawn("send", async move {
            for i in 0..50 {
                tx.send(Cell::new(Vci(1), i, false, &[])).await.unwrap();
                pandora_sim::delay(SimDuration::from_millis(2)).await;
            }
        });
        let seqs = Rc::new(StdRefCell::new(Vec::new()));
        let times = Rc::new(StdRefCell::new(Vec::new()));
        let (s, t) = (seqs.clone(), times.clone());
        sim.spawn("recv", async move {
            while let Ok(c) = rx0.recv().await {
                s.borrow_mut().push(c.seq);
                t.borrow_mut().push(pandora_sim::now());
            }
        });
        sim.run_until_idle();
        let seqs = seqs.borrow();
        assert_eq!(seqs.len(), 50);
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "order violated");
        // Some jitter must actually have occurred.
        let times = times.borrow();
        let deviations: Vec<i64> = times
            .iter()
            .enumerate()
            .map(|(i, t)| t.as_nanos() as i64 - (i as i64) * 2_000_000)
            .collect();
        let min = deviations.iter().min().unwrap();
        let max = deviations.iter().max().unwrap();
        assert!(max - min > 1_000_000, "jitter spread {}ns", max - min);
    }

    #[test]
    fn hop_loss_drops_expected_fraction() {
        let mut sim = Simulation::new();
        let (tx, rx0, stats, _ctrl) = build_path_controlled(
            &sim.spawner(),
            "p",
            &[HopConfig {
                bits_per_sec: 1_000_000_000,
                latency: SimDuration::ZERO,
                jitter: JitterModel::None,
                loss: 0.1,
            }],
            7,
        );
        sim.spawn("send", async move {
            for i in 0..2_000 {
                tx.send(Cell::new(Vci(1), i, false, &[])).await.unwrap();
            }
        });
        let n = Rc::new(StdCell::new(0u64));
        let nn = n.clone();
        sim.spawn("recv", async move {
            while rx0.recv().await.is_ok() {
                nn.set(nn.get() + 1);
            }
        });
        sim.run_until_idle();
        let delivered = n.get();
        assert!(
            (1_700..=1_900).contains(&delivered),
            "delivered {delivered}"
        );
        assert_eq!(stats[0].dropped() + stats[0].forwarded(), 2_000);
    }

    #[test]
    fn switch_routes_by_vci() {
        let mut sim = Simulation::new();
        let (in_tx, in_rx) = channel::<Cell>();
        let (sw, mut outs) = switch(&sim, vec![in_rx], 2, 64);
        sw.route(Vci(1), 0, Vci(101));
        sw.route(Vci(2), 1, Vci(102));
        sim.spawn("send", async move {
            in_tx.send(Cell::new(Vci(1), 0, true, &[1])).await.unwrap();
            in_tx.send(Cell::new(Vci(2), 0, true, &[2])).await.unwrap();
            in_tx.send(Cell::new(Vci(3), 0, true, &[3])).await.unwrap(); // No route.
        });
        sim.run_until_idle();
        let p1 = outs.remove(1);
        let p0 = outs.remove(0);
        let c0 = p0.try_recv().unwrap();
        assert_eq!(c0.vci, Vci(101));
        assert_eq!(c0.data(), &[1]);
        let c1 = p1.try_recv().unwrap();
        assert_eq!(c1.vci, Vci(102));
        assert_eq!(sw.unroutable(), 1);
        assert_eq!(sw.forwarded(), 2);
    }

    #[test]
    fn unroute_port_tears_down_only_the_dead_legs() {
        let sim = Simulation::new();
        let (_in_tx, in_rx) = channel::<Cell>();
        let (sw, _outs) = switch(&sim, vec![in_rx], 3, 64);
        sw.route(Vci(10), 0, Vci(10));
        sw.route_add(Vci(10), 2, Vci(10)); // A split: ports 0 and 2.
        sw.route(Vci(11), 2, Vci(11)); // Unicast to the dying port.
        sw.route(Vci(12), 1, Vci(12)); // Unrelated.
        assert_eq!(sw.port_route_count(2), 2);
        let touched = sw.unroute_port(2);
        assert_eq!(touched, vec![Vci(10), Vci(11)], "ascending VCI order");
        assert_eq!(sw.port_route_count(2), 0);
        // The split kept its surviving leg; the unicast is gone whole.
        assert_eq!(sw.port_route_count(0), 1);
        assert_eq!(sw.port_route_count(1), 1);
        assert_eq!(sw.unroute_port(2), Vec::<Vci>::new(), "idempotent");
        let _ = sim; // The table edits need no scheduling.
    }

    #[test]
    fn switch_full_port_drops_without_stalling_others() {
        let mut sim = Simulation::new();
        let (in_tx, in_rx) = channel::<Cell>();
        let (sw, mut outs) = switch(&sim, vec![in_rx], 2, 2);
        sw.route(Vci(1), 0, Vci(1)); // Nobody drains port 0.
        sw.route(Vci(2), 1, Vci(2));
        sim.spawn("send", async move {
            for i in 0..10 {
                in_tx.send(Cell::new(Vci(1), i, false, &[])).await.unwrap();
                in_tx.send(Cell::new(Vci(2), i, false, &[])).await.unwrap();
            }
        });
        let delivered = Rc::new(StdCell::new(0u32));
        let d = delivered.clone();
        let p1 = outs.remove(1);
        sim.spawn("drain1", async move {
            while p1.recv().await.is_ok() {
                d.set(d.get() + 1);
            }
        });
        sim.run_until_idle();
        // Port 1 saw all its cells despite port 0 being wedged.
        assert_eq!(delivered.get(), 10);
        assert_eq!(sw.overflow(), 10 - 2, "port 0 kept 2, dropped 8");
    }

    #[test]
    fn switch_without_inputs_ends_its_task() {
        // No input can ever carry a cell: the task must finish, not sit
        // in an ALT over nothing for the deadlock detector to report.
        let mut sim = Simulation::new();
        let (_sw, _outs) = switch(&sim, Vec::new(), 2, 4);
        sim.run_until_idle();
        assert_eq!(sim.live_tasks(), 0);
        assert!(sim.deadlock_report().is_none());
    }

    #[test]
    fn switch_multicast_copies_to_every_port() {
        let mut sim = Simulation::new();
        let (in_tx, in_rx) = channel::<Cell>();
        let (sw, mut outs) = switch(&sim, vec![in_rx], 3, 64);
        sw.route(Vci(7), 0, Vci(100));
        sw.route_add(Vci(7), 1, Vci(101));
        sw.route_add(Vci(7), 2, Vci(102));
        sw.route_add(Vci(7), 2, Vci(102)); // Duplicate copy: ignored.
        sim.spawn("send", async move {
            in_tx.send(Cell::new(Vci(7), 0, true, &[9])).await.unwrap();
        });
        sim.run_until_idle();
        let p2 = outs.remove(2);
        let p1 = outs.remove(1);
        let p0 = outs.remove(0);
        assert_eq!(p0.try_recv().unwrap().vci, Vci(100));
        assert_eq!(p1.try_recv().unwrap().vci, Vci(101));
        let c2 = p2.try_recv().unwrap();
        assert_eq!(c2.vci, Vci(102));
        assert!(p2.try_recv().is_none(), "duplicate copy forwarded");
        assert_eq!(sw.forwarded(), 3);
    }

    #[test]
    fn switch_route_remove_leaves_other_copies() {
        let mut sim = Simulation::new();
        let (in_tx, in_rx) = channel::<Cell>();
        let (sw, mut outs) = switch(&sim, vec![in_rx], 2, 64);
        sw.route(Vci(7), 0, Vci(100));
        sw.route_add(Vci(7), 1, Vci(101));
        sw.route_remove(Vci(7), 0);
        sim.spawn("send", async move {
            in_tx.send(Cell::new(Vci(7), 0, true, &[])).await.unwrap();
        });
        sim.run_until_idle();
        let p1 = outs.remove(1);
        let p0 = outs.remove(0);
        assert!(p0.try_recv().is_none(), "removed copy still forwarded");
        assert_eq!(p1.try_recv().unwrap().vci, Vci(101));
        // Removing the last copy drops the VCI entirely.
        sw.route_remove(Vci(7), 1);
        assert_eq!(sw.forwarded(), 1);
    }

    #[test]
    fn duplex_path_carries_both_directions() {
        let mut sim = Simulation::new();
        let (b_tx, b_source) = link_queue();
        let hops = [HopConfig::clean(100_000_000)];
        let d = build_duplex_path(&sim.spawner(), "d", &hops, 3, b_source);
        let a_tx = d.a_tx;
        sim.spawn("a-send", async move {
            a_tx.send(Cell::new(Vci(1), 0, true, &[1])).await.unwrap();
        });
        sim.spawn("b-send", async move {
            b_tx.send(Cell::new(Vci(2), 0, true, &[2])).await.unwrap();
        });
        let got = Rc::new(StdRefCell::new(Vec::new()));
        let (g1, g2) = (got.clone(), got.clone());
        let (a_rx, b_rx) = (d.a_rx, d.b_rx);
        sim.spawn("a-recv", async move {
            if let Ok(c) = a_rx.recv().await {
                g1.borrow_mut().push(c.vci);
            }
        });
        sim.spawn("b-recv", async move {
            if let Ok(c) = b_rx.recv().await {
                g2.borrow_mut().push(c.vci);
            }
        });
        sim.run_until_idle();
        let mut got = got.borrow().clone();
        got.sort();
        assert_eq!(got, vec![Vci(1), Vci(2)]);
    }

    #[test]
    fn unroute_stops_forwarding() {
        let mut sim = Simulation::new();
        let (in_tx, in_rx) = channel::<Cell>();
        let (sw, _outs) = switch(&sim, vec![in_rx], 1, 8);
        sw.route(Vci(1), 0, Vci(1));
        sw.unroute(Vci(1));
        sim.spawn("send", async move {
            in_tx.send(Cell::new(Vci(1), 0, true, &[])).await.unwrap();
        });
        sim.run_until_idle();
        assert_eq!(sw.unroutable(), 1);
    }

    #[test]
    fn bursty_jitter_mostly_small_sometimes_large() {
        let mut rng = SmallRng::seed_from_u64(3);
        let model = JitterModel::Bursty {
            base: SimDuration::from_millis(2),
            burst: SimDuration::from_millis(20),
            burst_prob: 0.05,
        };
        let samples: Vec<u64> = (0..10_000)
            .map(|_| model.sample(&mut rng).as_nanos())
            .collect();
        let big = samples.iter().filter(|&&s| s > 2_000_000).count();
        assert!((300..=800).contains(&big), "bursts: {big}");
        assert!(samples.iter().any(|&s| s > 15_000_000));
    }

    #[test]
    fn controlled_path_injects_loss_and_corruption() {
        let mut sim = Simulation::new();
        let (tx, rx, _stats, ctrl) =
            build_path_controlled(&sim.spawner(), "p", &[HopConfig::clean(1_000_000_000)], 11);
        ctrl.set_loss(0.2);
        ctrl.set_corruption(0.1);
        sim.spawn("send", async move {
            for i in 0..2_000 {
                tx.send(Cell::new(Vci(1), i, false, &[0u8; 16]))
                    .await
                    .unwrap();
            }
        });
        let delivered = Rc::new(StdCell::new(0u64));
        let flipped = Rc::new(StdCell::new(0u64));
        let (d, f) = (delivered.clone(), flipped.clone());
        sim.spawn("recv", async move {
            while let Ok(c) = rx.recv().await {
                d.set(d.get() + 1);
                if c.data().iter().any(|&b| b != 0) {
                    f.set(f.get() + 1);
                }
            }
        });
        sim.run_until_idle();
        assert_eq!(delivered.get() + ctrl.injected_drops(), 2_000);
        assert!(
            (300..=500).contains(&ctrl.injected_drops()),
            "drops = {}",
            ctrl.injected_drops()
        );
        assert_eq!(flipped.get(), ctrl.injected_corruptions());
        assert!(ctrl.injected_corruptions() > 100);
    }

    #[test]
    fn extra_delay_step_shifts_then_bursts() {
        let mut sim = Simulation::new();
        let (tx, rx, _stats, ctrl) =
            build_path_controlled(&sim.spawner(), "p", &[HopConfig::clean(1_000_000_000)], 5);
        sim.spawn("send", async move {
            for i in 0..100 {
                let _ = tx.send(Cell::new(Vci(1), i, false, &[])).await;
                pandora_sim::delay(SimDuration::from_millis(1)).await;
            }
        });
        let times = Rc::new(StdRefCell::new(Vec::new()));
        let t = times.clone();
        sim.spawn("recv", async move {
            while let Ok(c) = rx.recv().await {
                t.borrow_mut().push((c.seq, pandora_sim::now().as_millis()));
            }
        });
        sim.run_until(SimTime::from_millis(20));
        ctrl.set_extra_delay(SimDuration::from_millis(10));
        sim.run_until(SimTime::from_millis(50));
        ctrl.set_extra_delay(SimDuration::ZERO);
        sim.run_until_idle();
        let times = times.borrow();
        assert_eq!(times.len(), 100);
        // Cell 30 sent at 30ms lands ~40ms; after the revert the backlog
        // drains and late cells return to ~send time.
        let at = |seq: u32| times.iter().find(|&&(s, _)| s == seq).map(|&(_, t)| t);
        assert!(
            at(30).is_some_and(|t| (39..=42).contains(&t)),
            "{:?}",
            at(30)
        );
        assert!(
            at(90).is_some_and(|t| (90..=93).contains(&t)),
            "{:?}",
            at(90)
        );
    }

    #[test]
    fn path_link_flap_reachable_through_control() {
        let mut sim = Simulation::new();
        let (tx, rx, _stats, ctrl) =
            build_path_controlled(&sim.spawner(), "p", &[HopConfig::clean(1_000_000_000)], 5);
        sim.spawn("send", async move {
            for i in 0..10 {
                let _ = tx.send(Cell::new(Vci(1), i, false, &[])).await;
                pandora_sim::delay(SimDuration::from_millis(1)).await;
            }
        });
        let n = Rc::new(StdCell::new(0u64));
        let nn = n.clone();
        sim.spawn("recv", async move {
            while rx.recv().await.is_ok() {
                nn.set(nn.get() + 1);
            }
        });
        sim.run_until(SimTime::from_millis(3));
        let got_at_down = n.get();
        ctrl.link(0).expect("hop 0").set_up(false);
        sim.run_until(SimTime::from_millis(8));
        assert_eq!(n.get(), got_at_down, "no delivery while hop is down");
        ctrl.link(0).expect("hop 0").set_up(true);
        sim.run_until_idle();
        assert_eq!(n.get(), 10);
    }

    #[test]
    fn long_hop_holds_more_than_257_cells_in_flight() {
        // 1 Gb/s x 1 ms is 2,358 cells of bandwidth-delay product. With a
        // bounded propagation queue behind the wire, cell 258 on arrived
        // 891,032 ns late; latency must not cost throughput.
        let mut sim = Simulation::new();
        let hop = HopConfig {
            latency: SimDuration::from_millis(1),
            ..HopConfig::clean(1_000_000_000)
        };
        let (tx, rx, _stats, _ctrl) = build_path_controlled(&sim.spawner(), "p", &[hop], 1);
        sim.spawn("send", async move {
            for i in 0..3_000 {
                tx.send(Cell::new(Vci(1), i, false, &[])).await.unwrap();
            }
        });
        let times = Rc::new(StdRefCell::new(Vec::new()));
        let t = times.clone();
        sim.spawn("recv", async move {
            while let Ok(c) = rx.recv().await {
                t.borrow_mut().push((c.seq, pandora_sim::now().as_nanos()));
            }
        });
        sim.run_until_idle();
        let times = times.borrow();
        assert_eq!(times.len(), 3_000);
        let first = times[0].1;
        assert_eq!(first, 424 + 1_000_000);
        for (k, &(seq, at)) in times.iter().enumerate() {
            assert_eq!(seq, k as u32);
            assert_eq!(at, first + k as u64 * 424, "cell {k}");
        }
    }

    #[test]
    fn ill_formed_hops_are_refused_at_build_time() {
        let bursty = |burst_prob| JitterModel::Bursty {
            base: SimDuration::from_millis(2),
            burst: SimDuration::from_millis(20),
            burst_prob,
        };
        let lossy = |loss| HopConfig {
            loss,
            ..HopConfig::clean(1_000_000)
        };
        let jittery = |burst_prob| HopConfig {
            jitter: bursty(burst_prob),
            ..HopConfig::clean(1_000_000)
        };
        let bad = [
            (lossy(1.5), "loss probability"),
            (lossy(-0.1), "loss probability"),
            (lossy(f64::NAN), "loss probability"),
            (jittery(1.5), "burst probability"),
            (jittery(-0.5), "burst probability"),
            (jittery(f64::NAN), "burst probability"),
        ];
        for (hop, what) in bad {
            let refused = std::panic::catch_unwind(|| {
                let sim = Simulation::new();
                // The bad hop is the second, and the message must say so.
                let _ = build_path_controlled(&sim.spawner(), "p", &[lossy(0.0), hop], 0);
            });
            let message = match refused {
                Ok(()) => panic!("{hop:?} was accepted"),
                Err(payload) => *payload.downcast::<String>().unwrap(),
            };
            assert!(
                message.contains("hop p.1") && message.contains(what),
                "{hop:?}: {message}"
            );
        }
        // The ends of the range are probabilities like any other.
        let sim = Simulation::new();
        let _ = build_path_controlled(&sim.spawner(), "p", &[lossy(1.0), jittery(0.0)], 0);
        let _ = build_path_controlled(&sim.spawner(), "q", &[lossy(0.0), jittery(1.0)], 0);
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn empty_path_panics() {
        let sim = Simulation::new();
        let _ = build_path_controlled(&sim.spawner(), "p", &[], 0);
    }

    #[test]
    fn multihop_latency_accumulates() {
        let mut sim = Simulation::new();
        let hop = HopConfig {
            bits_per_sec: 1_000_000_000,
            latency: SimDuration::from_millis(1),
            jitter: JitterModel::None,
            loss: 0.0,
        };
        let (tx, rx, _stats, _ctrl) =
            build_path_controlled(&sim.spawner(), "p", &[hop, hop, hop, hop], 1);
        sim.spawn("send", async move {
            tx.send(Cell::new(Vci(1), 0, true, &[])).await.unwrap();
        });
        let at = Rc::new(StdCell::new(SimTime::ZERO));
        let a = at.clone();
        sim.spawn("recv", async move {
            rx.recv().await.unwrap();
            a.set(pandora_sim::now());
        });
        sim.run_until_idle();
        assert!(
            at.get() >= SimTime::from_millis(4),
            "arrived at {}",
            at.get()
        );
    }
}
