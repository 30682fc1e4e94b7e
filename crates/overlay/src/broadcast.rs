//! The overlay broadcast topology: one source, thousands of viewers,
//! every viewer a potential relay.
//!
//! [`build_overlay_broadcast`] turns an [`OverlayConfig`] into a
//! cluster wired per a [`TreePlan`]: `k` striped trees whose
//! edges are latency-stamped ports, one bandwidth-limited uplink per
//! member (every copy a relay forwards is serialized through it), a
//! heartbeat/graft control plane rooted at the source's hub, and the
//! session admission charge for every relay's fan-out taken before a
//! single port is created — the P1 stance: capacity is budgeted at
//! admission, not discovered by congestion.
//!
//! Degradation when an uplink is squeezed follows the paper's P3/P8
//! split:
//!
//! * **P3 (drop the oldest)** — the uplink queue is bounded; when the
//!   link can't drain it, the oldest queued copy is dropped first, so
//!   fresh slices keep their timeliness at the cost of old ones.
//! * **P8 (degrade locally)** — each relay runs an
//!   [`AdaptMachine`] over its own uplink windows (enqueues, drops,
//!   overdue queue waits). Sustained trouble steps a rate divisor up,
//!   and the relay forwards only every divisor-th stripe segment until
//!   the trouble clears — decided at the box that sees the backlog,
//!   with no controller round-trip.
//!
//! Repair is the hub's job: member heartbeats feed the
//! [`RepairEngine`]'s leases, a dead interior relay's orphans are
//! grafted onto their precomputed backup parents, and each backup
//! replays its clawback ring so the orphan's stripe refills inside the
//! playout budget. The source is not a special case of any of this: it
//! is the root relay of every tree, and keeps, forwards and adopts
//! through the same relay state a viewer uses for its one interior
//! stripe. A viewer listens to its control port ahead of its stripe
//! inputs (P4), so a graft is applied at once however deep the stripe
//! backlog. Everything is driven by virtual time and deterministic
//! channel selection, so a run's merged report is byte-identical across
//! replays.

use std::cell::{Cell as StdCell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::future::{poll_fn, Future};
use std::pin::pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::Poll;

use pandora_atm::{burst_gather, PathControl, Vci};
use pandora_faults::{install, FaultPlan, FaultTargets, FaultTrace};
use pandora_recover::{
    AdaptAction, AdaptMachine, HealthConfig, LeaseConfig, MediaClass, WindowSample,
};
use pandora_session::{AdmissionController, Capabilities, Decision, StreamClass};
use pandora_shard::{Cluster, Egress, Ingress, PortSender, ShardEnv};
use pandora_sim::{
    delay, now, waker, AltSet, LinkConfig, LinkControl, Priority, SimDuration, TaskWaker, WireSize,
};
use pandora_slab::ByteSlab;

use crate::plan::{Member, PlanConfig, PlanError, TreePlan};
use crate::repair::RepairEngine;
use crate::stripe::{Accept, RepairRing, Slice, StripeReceiver, HOP_BUCKETS};

/// Bytes one ATM cell occupies on the wire; a member's uplink budget in
/// cells/second converts to link bits/second through this.
const CELL_WIRE_BITS: u64 = 53 * 8;

/// Segment header bytes carried ahead of the payload in each burst
/// (the big-endian sequence number).
const SEG_HEADER_BYTES: usize = 4;

/// VCI base for the striped trees: stripe `t` rides `OVERLAY_VCI_BASE + t`.
pub const OVERLAY_VCI_BASE: u32 = 0x40;

/// A scripted mid-broadcast crash of one member.
#[derive(Debug, Clone, Copy)]
pub struct CrashPlan {
    /// The viewer that dies, `1..=viewers` (never 0: the source hosts
    /// the hub).
    pub member: usize,
    /// Virtual time of the crash, from run start.
    pub at: SimDuration,
}

/// A scripted squeeze of one member's uplink, driven through
/// `pandora-faults` ([`FaultPlan::uplink_cap`]).
#[derive(Debug, Clone, Copy)]
pub struct UplinkCapPlan {
    /// The viewer whose uplink is capped, `1..=viewers`.
    pub member: usize,
    /// When the cap lands.
    pub at: SimDuration,
    /// How long it holds before auto-reverting.
    pub hold: SimDuration,
    /// Remaining bandwidth in permille of nominal.
    pub permille: u64,
}

/// Shape and tunables of an overlay broadcast run.
#[derive(Debug, Clone, Copy)]
pub struct OverlayConfig {
    /// Viewers (members beyond the source).
    pub viewers: usize,
    /// Striped trees `k`.
    pub trees: usize,
    /// Maximum children per node `d`.
    pub degree: usize,
    /// Planner tie-break seed.
    pub seed: u64,
    /// Segments the source emits.
    pub segments: u32,
    /// Source emission cadence (one segment, striped round-robin).
    pub segment_interval: SimDuration,
    /// Payload bytes per segment (gathered once into cells at the
    /// source).
    pub payload_bytes: usize,
    /// Propagation latency of every tree edge.
    pub hop_latency: SimDuration,
    /// Per-relay processing cost before forwarding a slice.
    pub relay_cost: SimDuration,
    /// Propagation latency of the control plane (heartbeats and
    /// grafts).
    pub ctl_latency: SimDuration,
    /// Member heartbeat cadence; also the hub sweep cadence and the P8
    /// observation window.
    pub heartbeat: SimDuration,
    /// Lease walk for crash detection at the hub.
    pub lease: LeaseConfig,
    /// Clawback ring capacity per relay (slices of its interior
    /// stripe).
    pub ring: usize,
    /// Playout delay: slices older than this on arrival count late.
    pub playout: SimDuration,
    /// Per-viewer uplink budget in cells/second (drives both the
    /// planner's fan-out caps and the serializing link rate). For
    /// glitch-free repair this should afford `2 × degree` stripe
    /// copies per stripe interval: a backup parent that adopts its
    /// grandchildren can see its fan-out double, and without that
    /// headroom the graft replay backlogs its uplink until P8 sheds
    /// segments for its whole subtree.
    pub uplink_cps: u64,
    /// The source's uplink budget in cells/second.
    pub source_uplink_cps: u64,
    /// Uplink queue depth before P3 drop-oldest engages.
    pub uplink_queue: usize,
    /// Optional scripted crash.
    pub crash: Option<CrashPlan>,
    /// Optional scripted uplink squeeze.
    pub uplink_cap: Option<UplinkCapPlan>,
}

impl Default for OverlayConfig {
    fn default() -> OverlayConfig {
        OverlayConfig {
            viewers: 63,
            trees: 4,
            degree: 4,
            seed: 42,
            segments: 120,
            segment_interval: SimDuration::from_millis(4),
            payload_bytes: 1_408,
            hop_latency: SimDuration::from_micros(500),
            relay_cost: SimDuration::from_micros(50),
            ctl_latency: SimDuration::from_micros(200),
            heartbeat: SimDuration::from_millis(10),
            lease: LeaseConfig {
                interval: SimDuration::from_millis(10),
                suspect_after: 2,
                dead_after: 3,
                backoff_cap: SimDuration::from_millis(80),
            },
            ring: 32,
            playout: SimDuration::from_millis(80),
            uplink_cps: 30_000,
            source_uplink_cps: 60_000,
            uplink_queue: 64,
            crash: None,
            uplink_cap: None,
        }
    }
}

/// Why a topology could not be built.
#[derive(Debug)]
pub enum BuildError {
    /// The planner refused (capacity, degenerate shape).
    Plan(PlanError),
    /// The admission controller refused a relay's fan-out charge — the
    /// plan promised copies the member's uplink budget cannot carry.
    Admission {
        /// The refused member.
        member: usize,
        /// The admission decision that refused it.
        decision: Decision,
    },
    /// A scripted fault ([`CrashPlan`] or [`UplinkCapPlan`]) names a
    /// member that is not a viewer — it would silently never fire.
    FaultTarget {
        /// Which plan (`"crash"` or `"uplink_cap"`).
        plan: &'static str,
        /// The member it names.
        member: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Plan(e) => write!(f, "plan: {e}"),
            BuildError::Admission { member, decision } => {
                write!(
                    f,
                    "relay admission refused for member {member}: {decision:?}"
                )
            }
            BuildError::FaultTarget { plan, member } => {
                write!(f, "{plan} plan names member {member}, not a viewer")
            }
        }
    }
}

/// A built overlay, ready to run.
pub struct OverlayBuild {
    /// The cluster; run it to a deadline and parse the merged
    /// report with [`OverlaySummary::parse`].
    pub cluster: Cluster,
    /// The tree plan the topology was wired from.
    pub plan: TreePlan,
    /// Total transmit cells/second the relay admission charge took
    /// across all members.
    pub relay_tx_cps: u64,
}

/// Messages on the overlay's data and control ports.
#[derive(Debug, Clone)]
pub enum Msg {
    /// A striped segment travelling down its tree.
    Slice(Slice),
    /// Hub order to a backup parent: adopt `orphan` on `tree` and
    /// replay the clawback ring from `resume_from`.
    Graft {
        /// Stripe tree being repaired.
        tree: usize,
        /// The member to adopt.
        orphan: usize,
        /// Global sequence replay resumes from.
        resume_from: u32,
    },
}

/// A member's heartbeat to the hub: liveness plus the per-tree resume
/// points a graft would need.
#[derive(Debug, Clone)]
pub struct Hello {
    /// Reporting member.
    pub node: usize,
    /// Next expected global sequence per tree.
    pub next: Vec<u32>,
}

/// One copy queued on a member's uplink, addressed to a child.
#[derive(Debug, Clone)]
struct UpItem {
    tree: usize,
    dest: usize,
    queued_at: u64,
    slice: Slice,
}

/// Cells one segment gathers into (header plus payload, 48-byte AAL
/// payload per cell).
pub fn cells_per_segment(payload_bytes: usize) -> u64 {
    ((SEG_HEADER_BYTES + payload_bytes) as u64).div_ceil(48)
}

/// Cell rate one stripe copy costs a forwarding uplink: each tree
/// carries every k-th segment.
pub fn stripe_cps(cfg: &OverlayConfig) -> u64 {
    let tree_interval_ns = cfg.segment_interval.as_nanos().max(1) * cfg.trees.max(1) as u64;
    (cells_per_segment(cfg.payload_bytes) * 1_000_000_000).div_ceil(tree_interval_ns)
}

/// The stream class a stripe copy is admitted as. The rate rounds
/// *down* so admission's demand never exceeds the planner's budget
/// arithmetic — the plan and the charge agree by construction.
pub fn stripe_class(cfg: &OverlayConfig) -> StreamClass {
    let rate = (stripe_cps(cfg) * 1_000 / 2_600).max(1);
    StreamClass::Video {
        rate_permille: rate.min(u64::from(u32::MAX)) as u32,
    }
}

/// The membership the planner sees: member 0 is the source.
pub fn members_for(cfg: &OverlayConfig) -> Vec<Member> {
    let mut members = Vec::with_capacity(cfg.viewers + 1);
    members.push(Member {
        name: "src".to_string(),
        uplink_cps: cfg.source_uplink_cps,
    });
    for v in 1..=cfg.viewers {
        members.push(Member {
            name: format!("v{v}"),
            uplink_cps: cfg.uplink_cps,
        });
    }
    members
}

/// The deterministic tree plan for `cfg`.
///
/// # Errors
///
/// Propagates the planner's [`PlanError`].
pub fn plan_for(cfg: &OverlayConfig) -> Result<TreePlan, PlanError> {
    TreePlan::compute(
        &members_for(cfg),
        &PlanConfig {
            trees: cfg.trees,
            degree: cfg.degree,
            seed: cfg.seed,
            stripe_cps: stripe_cps(cfg),
        },
    )
}

/// Charges every forwarding member's fan-out against a fresh admission
/// controller over its uplink capabilities. Returns the total transmit
/// cells/second charged.
fn charge_relay_admission(plan: &TreePlan, cfg: &OverlayConfig) -> Result<u64, BuildError> {
    let class = stripe_class(cfg);
    let mut total = 0u64;
    for member in 0..plan.members() {
        let copies = plan.fanout(member);
        if copies == 0 {
            continue;
        }
        let link_cps = if member == 0 {
            cfg.source_uplink_cps
        } else {
            cfg.uplink_cps
        };
        let mut adm = AdmissionController::new(Capabilities {
            audio_sinks_max: 0,
            video_sinks_max: cfg.trees as u32,
            link_cps,
        });
        let copies = copies.min(u32::MAX as usize) as u32;
        match adm.admit_relay(class, copies) {
            Decision::Admit => total += adm.tx_cps(),
            decision => return Err(BuildError::Admission { member, decision }),
        }
    }
    Ok(total)
}

/// Copies out of a member's P3 queue at once, the one on the wire first:
/// three, because a pump task once stood between queue and wire — the copy
/// on the wire, the one in its one-message slot, the one the pump held.
/// When a copy leaves decides P3 drops, P8 late counts and crash discards.
const HANDOFF: usize = 3;

/// The P3 uplink: a bounded queue the member's wire drains. Overflow drops
/// the *oldest* copy; the windows feed the P8 machine.
struct Uplink {
    q: RefCell<VecDeque<UpItem>>,
    /// Copies out of `q`, oldest first; the front one is on the wire.
    handed: RefCell<VecDeque<UpItem>>,
    /// The wire, while `handed` has room: the next push wakes it.
    wire: StdCell<Option<TaskWaker>>,
    cap: usize,
    late_bound_nanos: u64,
    /// Set when the member crashes: its uplink falls silent.
    dead: StdCell<bool>,
    enqueued: StdCell<u64>,
    drops: StdCell<u64>,
    window_enq: StdCell<u64>,
    window_drops: StdCell<u64>,
    window_late: StdCell<u64>,
}

impl Uplink {
    /// Both queues start empty and grow on use: most viewers relay to
    /// nobody and never push a copy.
    fn new(cap: usize, late_bound_nanos: u64) -> Rc<Uplink> {
        Rc::new(Uplink {
            q: RefCell::new(VecDeque::new()),
            handed: RefCell::new(VecDeque::new()),
            wire: StdCell::new(None),
            cap: cap.max(1),
            late_bound_nanos,
            dead: StdCell::new(false),
            enqueued: StdCell::new(0),
            drops: StdCell::new(0),
            window_enq: StdCell::new(0),
            window_drops: StdCell::new(0),
            window_late: StdCell::new(0),
        })
    }

    fn push(&self, tree: usize, dest: usize, slice: Slice) {
        let mut q = self.q.borrow_mut();
        if q.len() >= self.cap {
            q.pop_front();
            self.drops.set(self.drops.get() + 1);
            self.window_drops.set(self.window_drops.get() + 1);
        }
        q.push_back(UpItem {
            tree,
            dest,
            queued_at: now().as_nanos(),
            slice,
        });
        drop(q);
        self.enqueued.set(self.enqueued.get() + 1);
        self.window_enq.set(self.window_enq.get() + 1);
        // Once the pushing poll returns: a whole batch lands first.
        if let Some(wire) = self.wire.take() {
            wire.wake();
        }
    }

    /// Run by the wire on every poll: takes copies out of the queue (P8
    /// reads each one's wait as it leaves; a dead member's are discarded)
    /// until [`HANDOFF`] are out, waits for a push while there is room, and
    /// returns the wire size of the front copy.
    fn refill(&self) -> Option<usize> {
        let mut handed = self.handed.borrow_mut();
        while handed.len() < HANDOFF {
            let Some(item) = self.q.borrow_mut().pop_front() else {
                break;
            };
            if now().as_nanos().saturating_sub(item.queued_at) > self.late_bound_nanos {
                self.window_late.set(self.window_late.get() + 1);
            }
            if !self.dead.get() {
                handed.push_back(item);
            }
        }
        self.wire.set((handed.len() < HANDOFF).then(waker));
        handed.front().map(|it| it.slice.wire_bytes())
    }

    /// Closes one P8 observation window: enqueues as received, P3 drops
    /// as gaps, overdue queue waits as late.
    fn take_window(&self) -> WindowSample {
        let sample = WindowSample {
            received: self.window_enq.get(),
            gaps: self.window_drops.get(),
            late: self.window_late.get(),
        };
        self.window_enq.set(0);
        self.window_drops.set(0);
        self.window_late.set(0);
        sample
    }
}

/// Spawns the uplink shared by relays and the source: the bounded queue and
/// its wire, a high-priority link engine that holds each copy for its
/// [`LinkControl::transfer`] (refilling whenever a push wakes it) and then
/// hands it to the egress of its (tree, child) edge (`outs`, opened here).
/// Returns the queue handle and the link control (for fault registration).
fn spawn_uplink(
    env: &ShardEnv,
    member: usize,
    uplink_cps: u64,
    cfg: &OverlayConfig,
    outs: Vec<(usize, usize, Egress<Msg>)>,
) -> (Rc<Uplink>, LinkControl) {
    let child_txs: BTreeMap<(usize, usize), PortSender<Msg>> = outs
        .into_iter()
        .map(|(tree, dest, egress)| ((tree, dest), env.open_egress(egress)))
        .collect();
    // A copy that waits longer than one stripe interval (its own
    // forwarding cadence) marks the uplink persistently backlogged;
    // shorter waits — a graft replay burst, say — are transient.
    let late_bound = cfg.segment_interval.as_nanos() * cfg.trees.max(1) as u64;
    let uplink = Uplink::new(cfg.uplink_queue, late_bound);
    let config = LinkConfig::new("ovl-up", uplink_cps.max(1) * CELL_WIRE_BITS);
    let link_ctl = LinkControl::default();
    let (up, ctl) = (uplink.clone(), link_ctl.clone());
    let name = &format!("link:ovl-up{member}");
    env.spawner().spawn_prio(name, Priority::High, async move {
        loop {
            let bytes = poll_fn(|_| up.refill().map_or(Poll::Pending, Poll::Ready)).await;
            let mut transfer = pin!(ctl.transfer(&config, bytes));
            poll_fn(|cx| {
                up.refill();
                transfer.as_mut().poll(cx)
            })
            .await;
            let item = up.handed.borrow_mut().pop_front();
            if let Some(item) = item.filter(|_| !up.dead.get()) {
                if let Some(tx) = child_txs.get(&(item.tree, item.dest)) {
                    tx.send(Msg::Slice(item.slice));
                }
            }
        }
    });
    (uplink, link_ctl)
}

/// Installs the scripted uplink cap against this member's link, if the
/// config aims one here. Returns the trace for the finish report.
fn install_uplink_cap(
    env: &ShardEnv,
    member: usize,
    cfg: &OverlayConfig,
    link_ctl: &LinkControl,
) -> Option<FaultTrace> {
    let cap = cfg.uplink_cap?;
    if cap.member != member {
        return None;
    }
    let mut targets = FaultTargets::new();
    targets.register_path("relay.up", PathControl::from_links(vec![link_ctl.clone()]));
    let plan =
        FaultPlan::scripted(Vec::new()).uplink_cap("relay.up", cap.at, cap.hold, cap.permille);
    Some(install(env.spawner(), &plan, &targets))
}

/// A member's relaying half: its uplink and, per tree, the clawback
/// ring of the stripe and the live children. The source is the root
/// relay of all `k` trees; a viewer relays its interior stripe only and
/// is a leaf (no ring) elsewhere. Shared by the member's tasks (relay or
/// source loop, hub sweep), its [`Beat`] and its finish report.
struct Relay {
    uplink: Rc<Uplink>,
    /// Per tree: the ring (`None` on a leaf), and the plan's children
    /// plus every adopted orphan.
    trees: RefCell<Vec<(Option<RepairRing>, Vec<usize>)>>,
    grafts_in: StdCell<u64>,
    /// The P8 rate divisor the [`Beat`]'s [`AdaptMachine`] last set.
    divisor: StdCell<u32>,
    max_divisor: StdCell<u32>,
    p8_skips: StdCell<u64>,
}

impl Relay {
    fn new(
        uplink: Rc<Uplink>,
        children: Vec<Vec<usize>>,
        relays_tree: impl Fn(usize) -> bool,
        ring: usize,
    ) -> Rc<Relay> {
        let trees = children
            .into_iter()
            .enumerate()
            .map(|(t, kids)| (relays_tree(t).then(|| RepairRing::new(ring)), kids));
        Rc::new(Relay {
            uplink,
            trees: RefCell::new(trees.collect()),
            grafts_in: StdCell::new(0),
            divisor: StdCell::new(1),
            max_divisor: StdCell::new(1),
            p8_skips: StdCell::new(0),
        })
    }

    /// Keeps `slice` in its stripe's clawback ring — unless this member
    /// is a leaf of that tree, or P8 is shedding this segment. Returns
    /// whether live children are waiting for [`Relay::forward`].
    fn keep(&self, slice: &Slice) -> bool {
        let mut trees = self.trees.borrow_mut();
        let k = trees.len().max(1) as u32;
        let Some((Some(ring), children)) = trees.get_mut(slice.tree as usize) else {
            return false;
        };
        let div = self.divisor.get();
        if div > 1 && !(slice.seq / k).is_multiple_of(div) {
            self.p8_skips.set(self.p8_skips.get() + 1);
            return false;
        }
        ring.push(slice.clone());
        !children.is_empty()
    }

    /// Queues one copy of `slice`, stamped now, for each live child of
    /// its tree.
    fn forward(&self, slice: &Slice) {
        let tree = slice.tree as usize;
        let sent = now().as_nanos();
        for &dest in &self.trees.borrow()[tree].1 {
            self.uplink.push(tree, dest, slice.retimed(sent));
        }
    }

    /// Adopts `orphan` as a child on `tree` and replays the clawback
    /// ring to it from `resume_from`.
    fn adopt(&self, tree: usize, orphan: usize, resume_from: u32) {
        self.grafts_in.set(self.grafts_in.get() + 1);
        let mut trees = self.trees.borrow_mut();
        let (ring, children) = &mut trees[tree];
        if !children.contains(&orphan) {
            children.push(orphan);
        }
        let sent = now().as_nanos();
        for s in ring.iter().flat_map(|r| r.replay_from(resume_from)) {
            self.uplink.push(tree, orphan, s.retimed(sent));
        }
    }
}

/// A viewer's heartbeat: what one beat reads and writes. No task of its
/// own — one `ovl:beat` task beats every viewer in member order (see
/// [`build_overlay_broadcast`] for where it must run).
struct Beat {
    member: usize,
    report: PortSender<Hello>,
    receiver: Rc<RefCell<StripeReceiver>>,
    relay: Rc<Relay>,
    adapt: AdaptMachine,
}

impl Beat {
    /// Sends the hub a `Hello` (liveness and resume points), then closes
    /// the uplink's P8 window. A dead member sends nothing: returns
    /// false, and it is never beaten again.
    fn beat(&mut self) -> bool {
        let relay = &self.relay;
        if relay.uplink.dead.get() {
            return false;
        }
        self.report.send(Hello {
            node: self.member,
            next: self.receiver.borrow().next_expected().to_vec(),
        });
        let sample = relay.uplink.take_window();
        if let Some(AdaptAction::SetDivisor(d)) = self.adapt.observe(&sample) {
            relay.divisor.set(d);
            relay.max_divisor.set(relay.max_divisor.get().max(d));
        }
        true
    }
}

/// Everything one viewer's setup closure needs.
struct NodeSeat {
    member: usize,
    interior: Option<usize>,
    children: Vec<Vec<usize>>,
    /// The hub's graft orders.
    ctl: Ingress<Msg>,
    /// Stripe inputs: primary edges, then backup edges.
    ins: Vec<Ingress<Msg>>,
    outs: Vec<(usize, usize, Egress<Msg>)>,
    report: Egress<Hello>,
    /// Where the setup leaves the viewer's [`Beat`] for `ovl:beat`.
    beats: Rc<RefCell<Vec<Beat>>>,
    cfg: OverlayConfig,
}

fn node_setup(env: &mut ShardEnv, seat: NodeSeat) {
    let (member, interior, cfg) = (seat.member, seat.interior, seat.cfg);

    // The PRI ALT's guard order: the command channel first (P4), so a
    // graft never queues behind a stripe backlog.
    let mut ins = AltSet::new(
        std::iter::once(seat.ctl)
            .chain(seat.ins)
            .map(|i| env.bind_ingress(i))
            .collect(),
    );

    let receiver = Rc::new(RefCell::new(StripeReceiver::new(
        cfg.trees,
        cfg.playout.as_nanos(),
    )));
    let (uplink, link_ctl) = spawn_uplink(env, member, cfg.uplink_cps, &cfg, seat.outs);
    let fault_trace = install_uplink_cap(env, member, &cfg, &link_ctl);
    let relay = Relay::new(uplink, seat.children, |t| interior == Some(t), cfg.ring);

    if let Some(crash) = cfg.crash.filter(|c| c.member == member) {
        let crashed = relay.clone();
        env.spawner()
            .spawn(&format!("ovl:crash{member}"), async move {
                delay(crash.at).await;
                crashed.uplink.dead.set(true);
            });
    }

    // The relay proper: deliver, dedupe, and forward its interior
    // stripe (clawback ring, P8 divisor, P3 uplink queue).
    let main = relay.clone();
    let main_rx = receiver.clone();
    env.spawner()
        .spawn(&format!("ovl:node{member}"), async move {
            while let Ok((_, msg)) = ins.recv().await {
                if main.uplink.dead.get() {
                    continue;
                }
                match msg {
                    Msg::Slice(slice) => {
                        let arrived = now().as_nanos();
                        if let Accept::Duplicate = main_rx.borrow_mut().accept(&slice, arrived) {
                            continue;
                        }
                        if main.keep(&slice) {
                            delay(cfg.relay_cost).await;
                            main.forward(&slice);
                        }
                    }
                    Msg::Graft {
                        tree,
                        orphan,
                        resume_from,
                    } => main.adopt(tree, orphan, resume_from),
                }
            }
        });

    seat.beats.borrow_mut().push(Beat {
        member,
        report: env.open_egress(seat.report),
        receiver: receiver.clone(),
        relay: relay.clone(),
        adapt: AdaptMachine::new(
            MediaClass::Video,
            HealthConfig {
                window: cfg.heartbeat,
                ..HealthConfig::default()
            },
        ),
    });

    env.on_finish(move || {
        let r = receiver.borrow();
        let buckets = r
            .hop_buckets()
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let mut lines = vec![format!(
            "node{member:04} recv={} dup={} gap={} lost={} late={} fwd={} p3={} p8={} \
             graftin={} deg={} gapmax_us={} sgapmax_us={} hopmax_us={} crashed={} hopbkt={}",
            r.delivered(),
            r.dupes(),
            r.gap_skips(),
            r.lost(cfg.segments),
            r.late(),
            relay.uplink.enqueued.get(),
            relay.uplink.drops.get(),
            relay.p8_skips.get(),
            relay.grafts_in.get(),
            relay.max_divisor.get(),
            r.gap_max_nanos() / 1_000,
            r.stripe_gap_max_nanos() / 1_000,
            r.hop_max_nanos() / 1_000,
            u64::from(relay.uplink.dead.get()),
            buckets,
        )];
        if let Some(trace) = &fault_trace {
            for line in trace.to_text().lines() {
                lines.push(format!("node{member:04} fault {line}"));
            }
        }
        lines
    });
}

/// Member 0's setup: the broadcast source and the repair hub.
struct HubSeat {
    src_children: Vec<Vec<usize>>,
    outs: Vec<(usize, usize, Egress<Msg>)>,
    ctls: Vec<(usize, Egress<Msg>)>,
    reports: Vec<Ingress<Hello>>,
    plan: TreePlan,
    cfg: OverlayConfig,
}

fn hub_setup(env: &mut ShardEnv, seat: HubSeat) {
    let cfg = seat.cfg;
    let k = cfg.trees;

    let ctl_txs: BTreeMap<usize, PortSender<Msg>> = seat
        .ctls
        .into_iter()
        .map(|(v, egress)| (v, env.open_egress(egress)))
        .collect();
    // Every member's report port on one queue, in merge-key order: a
    // `Hello` names its own node, so the ear needs no per-port guard.
    let hello_rx = env.bind_ingress_merged(seat.reports);

    // The source is the root relay of every tree, and never dies.
    let (uplink, _link_ctl) = spawn_uplink(env, 0, cfg.source_uplink_cps, &cfg, seat.outs);
    let relay = Relay::new(uplink, seat.src_children, |_| true, cfg.ring);
    let engine = Rc::new(RefCell::new(RepairEngine::new(seat.plan, cfg.lease)));
    let slab_bytes = cfg.payload_bytes.max(64);
    let slab = ByteSlab::new(4, slab_bytes);

    // The source: one slab write and one gather per segment, then Arc
    // clones all the way down the trees.
    let src = relay.clone();
    let src_slab = slab.clone();
    env.spawner().spawn("ovl:src", async move {
        let cells_per = cells_per_segment(cfg.payload_bytes) as u32;
        for seq in 0..cfg.segments {
            let tree = seq as usize % k.max(1);
            let Ok(mut writer) = src_slab.try_writer() else {
                delay(cfg.segment_interval).await;
                continue;
            };
            let fill = [(seq % 251) as u8; 64];
            let mut left = cfg.payload_bytes;
            while left > 0 {
                let take = left.min(fill.len());
                if writer.append(&fill[..take]).is_err() {
                    break;
                }
                left -= take;
            }
            let seg = writer.freeze();
            let burst = seg.copy_out_with(|payload| {
                burst_gather(
                    Vci(OVERLAY_VCI_BASE + tree as u32),
                    &seq.to_be_bytes(),
                    payload,
                    seq.wrapping_mul(cells_per),
                )
            });
            let stamp = now().as_nanos();
            let slice = Slice {
                tree: tree as u8,
                seq,
                stamp,
                sent: stamp,
                burst: Arc::new(burst),
            };
            if src.keep(&slice) {
                src.forward(&slice);
            }
            delay(cfg.segment_interval).await;
        }
    });

    // The hub's ears: every heartbeat renews a lease and refreshes the
    // member's graft resume points.
    let ear_engine = engine.clone();
    env.spawner().spawn("ovl:hub:hello", async move {
        while let Ok(hello) = hello_rx.recv().await {
            ear_engine.borrow_mut().hello(hello.node, &hello.next);
        }
    });

    // The hub's sweep: silent members walk their leases toward Dead;
    // each death's orphans are grafted — remotely via the control plane,
    // or locally when the source itself is the backup.
    let sweep_engine = engine.clone();
    let sweep_relay = relay.clone();
    env.spawner().spawn("ovl:hub:sweep", async move {
        // First sweep half a beat after the first hellos are due, so a
        // healthy member is never missed on startup jitter.
        delay(SimDuration::from_nanos(cfg.heartbeat.as_nanos() * 3 / 2)).await;
        loop {
            let grafts = sweep_engine.borrow_mut().sweep(now().as_nanos());
            for g in grafts {
                if g.backup == 0 {
                    sweep_relay.adopt(g.tree, g.orphan, g.resume_from);
                } else if let Some(tx) = ctl_txs.get(&g.backup) {
                    tx.send(Msg::Graft {
                        tree: g.tree,
                        orphan: g.orphan,
                        resume_from: g.resume_from,
                    });
                }
            }
            delay(cfg.heartbeat).await;
        }
    });

    env.on_finish(move || {
        let mut lines = vec![format!(
            "node0000 src fwd={} p3={} slabin={} slabout={} srcgraft={}",
            relay.uplink.enqueued.get(),
            relay.uplink.drops.get(),
            slab.copied_in_bytes(),
            slab.copied_out_bytes(),
            relay.grafts_in.get(),
        )];
        let e = engine.borrow();
        lines.push(format!(
            "hub deaths={} grafts={} unrepairable={}",
            e.deaths(),
            e.grafts(),
            e.unrepairable(),
        ));
        for line in e.log() {
            lines.push(format!("hub {line}"));
        }
        lines
    });
}

/// Builds the overlay broadcast. `shards` is range-checked and has no
/// other effect: the fenced benchmark harness still passes 1 and 2, and
/// ROADMAP item 4 deletes the argument with `_sh2` and the `shard.*` rows.
///
/// Ports are created in one canonical order (primary edges, backup
/// edges, control, reports — each in member-then-tree order), the merge
/// key order of same-instant deliveries, and setups are registered in
/// member order, the order of the finish report, then the heartbeat's.
///
/// # Errors
///
/// [`BuildError::FaultTarget`] when a scripted crash or uplink cap names
/// a member that is not a viewer, [`BuildError::Plan`] when the planner
/// refuses the shape, [`BuildError::Admission`] when a member's relay
/// charge does not fit its uplink budget — all before a port exists.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn build_overlay_broadcast(
    cfg: &OverlayConfig,
    shards: usize,
) -> Result<OverlayBuild, BuildError> {
    let fault_targets = [
        ("crash", cfg.crash.map(|c| c.member)),
        ("uplink_cap", cfg.uplink_cap.map(|c| c.member)),
    ];
    for (plan, member) in fault_targets {
        if let Some(member) = member.filter(|m| !(1..=cfg.viewers).contains(m)) {
            return Err(BuildError::FaultTarget { plan, member });
        }
    }
    let plan = plan_for(cfg).map_err(BuildError::Plan)?;
    let relay_tx_cps = charge_relay_admission(&plan, cfg)?;
    let n = plan.members();
    let k = plan.trees();
    let mut cluster = Cluster::new(shards);

    let mut ins: Vec<Vec<Ingress<Msg>>> = (0..n).map(|_| Vec::new()).collect();
    let mut outs: Vec<Vec<(usize, usize, Egress<Msg>)>> = (0..n).map(|_| Vec::new()).collect();
    // Primary tree edges, then backup (graft) edges: grandparent →
    // grandchild, pre-wired so a repair needs no new ports mid-run.
    type Upstream = fn(&TreePlan, usize, usize) -> Option<usize>;
    for upstream in [TreePlan::parent as Upstream, TreePlan::backup] {
        for (v, ins_v) in ins.iter_mut().enumerate().skip(1) {
            for t in 0..k {
                let Some(p) = upstream(&plan, t, v) else {
                    continue;
                };
                let (eg, ing) = cluster.port::<Msg>(cfg.hop_latency);
                outs[p].push((t, v, eg));
                ins_v.push(ing);
            }
        }
    }
    // Control plane: hub → member grafts, member → hub heartbeats.
    let (ctls, ctl_ins): (Vec<_>, Vec<_>) = (1..n)
        .map(|v| {
            let (eg, ing) = cluster.port::<Msg>(cfg.ctl_latency);
            ((v, eg), ing)
        })
        .unzip();
    let (report_eg, reports): (Vec<_>, Vec<_>) = (1..n)
        .map(|_| cluster.port::<Hello>(cfg.ctl_latency))
        .unzip();

    // Setups in member order: the merge key order of the finish report.
    let mut outs = outs.into_iter();
    let hub = HubSeat {
        src_children: (0..k).map(|t| plan.children(t, 0).to_vec()).collect(),
        outs: outs.next().unwrap_or_default(),
        ctls,
        reports,
        plan: plan.clone(),
        cfg: *cfg,
    };
    cluster.setup(0, move |env| hub_setup(env, hub));
    let beats: Rc<RefCell<Vec<Beat>>> = Rc::default();
    let viewers = ins
        .into_iter()
        .skip(1)
        .zip(outs)
        .zip(ctl_ins)
        .zip(report_eg);
    for (v, (((v_ins, v_outs), ctl), report)) in (1..n).zip(viewers) {
        let seat = NodeSeat {
            member: v,
            interior: plan.interior_tree(v),
            children: (0..k).map(|t| plan.children(t, v).to_vec()).collect(),
            ctl,
            ins: v_ins,
            outs: v_outs,
            report,
            beats: beats.clone(),
            cfg: *cfg,
        };
        cluster.setup(0, move |env| node_setup(env, seat));
    }
    // One task beats for every viewer, from a setup registered after all
    // of theirs — the place a heartbeat task per member had. Each of those
    // armed its timer in member order, at t = 0 and then at each beat, so
    // at every beat instant their polls already ran as one contiguous
    // block: behind the high-priority wires and the dispatcher, ahead of
    // every other low-priority task due then. Only timers armed at t = 0
    // came before the block: the crash and fault scripts, and any probe a
    // caller registers after this. (At the first beat a member's scripts
    // ran just ahead of its own heartbeat, not the whole block; they touch
    // only that member, so it is the same.) This task arms its first
    // timer after every one of those and re-arms at each beat, so it runs
    // in exactly that place. Spawned ahead of the members' setups, it
    // would beat before a crash due on a beat instant, and the member
    // dying at the first beat would send one more hello.
    let period = cfg.heartbeat;
    cluster.setup(0, move |env| {
        let mut beats = beats.take();
        env.spawner().spawn("ovl:beat", async move {
            while !beats.is_empty() {
                delay(period).await;
                beats.retain_mut(Beat::beat);
            }
        });
    });

    Ok(OverlayBuild {
        cluster,
        plan,
        relay_tx_cps,
    })
}

/// Aggregate statistics parsed back out of a run's merged report lines.
///
/// `*_alive` fields aggregate only members that did not crash — the
/// "surviving viewers" the acceptance criteria speak about. Hop
/// histogram buckets are merged across alive members.
#[derive(Debug, Clone, Default)]
pub struct OverlaySummary {
    /// Viewer report lines seen.
    pub viewers: u64,
    /// Members flagged crashed.
    pub crashed: u64,
    /// Slices delivered in order across all viewers.
    pub delivered: u64,
    /// Replay overlaps deduplicated.
    pub dupes: u64,
    /// Sequences skipped for good (sum).
    pub gap_skips: u64,
    /// Lost slices across all viewers (crashed included).
    pub lost_total: u64,
    /// Late deliveries across all viewers (crashed included).
    pub late_total: u64,
    /// Lost slices summed over surviving viewers only.
    pub lost_alive: u64,
    /// Late deliveries summed over surviving viewers only.
    pub late_alive: u64,
    /// Copies relays put on their uplinks.
    pub forwarded: u64,
    /// P3 drop-oldest discards.
    pub p3_drops: u64,
    /// P8 divisor skips.
    pub p8_skips: u64,
    /// Grafts applied (backup side), source-local grafts included.
    pub grafts_in: u64,
    /// Highest P8 divisor any relay reached.
    pub max_divisor: u64,
    /// Worst any-stripe delivery silence on a surviving viewer, µs.
    pub gap_max_us_alive: u64,
    /// Worst single-stripe silence on a surviving viewer, µs — the
    /// repair gap.
    pub stripe_gap_max_us_alive: u64,
    /// Worst single-hop latency on a surviving viewer, µs.
    pub hop_max_us: u64,
    /// Merged per-hop latency histogram of surviving viewers (bucket
    /// `i` counts hops in `[2^i, 2^(i+1))` µs).
    pub hop_buckets: [u64; HOP_BUCKETS],
    /// Copies the source put on its uplink.
    pub src_forwarded: u64,
    /// Bytes the source gathered out of the slab (the one copy).
    pub slab_copied_out: u64,
    /// Deaths the hub observed.
    pub hub_deaths: u64,
    /// Grafts the hub issued.
    pub hub_grafts: u64,
    /// Orphans with no backup parent.
    pub hub_unrepairable: u64,
}

fn field(token: &str, key: &str) -> Option<u64> {
    let rest = token.strip_prefix(key)?;
    rest.parse().ok()
}

impl OverlaySummary {
    /// Parses the merged finish-report lines of one run.
    pub fn parse(lines: &[String]) -> OverlaySummary {
        let mut s = OverlaySummary::default();
        for line in lines {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            match tokens.as_slice() {
                [node, "src", rest @ ..] if node.starts_with("node") => {
                    for t in rest {
                        if let Some(v) = field(t, "fwd=") {
                            s.src_forwarded = v;
                        } else if let Some(v) = field(t, "slabout=") {
                            s.slab_copied_out = v;
                        } else if let Some(v) = field(t, "srcgraft=") {
                            s.grafts_in += v;
                        }
                    }
                }
                ["hub", rest @ ..] => {
                    for t in rest {
                        if let Some(v) = field(t, "deaths=") {
                            s.hub_deaths = v;
                        } else if let Some(v) = field(t, "grafts=") {
                            s.hub_grafts = v;
                        } else if let Some(v) = field(t, "unrepairable=") {
                            s.hub_unrepairable = v;
                        }
                    }
                }
                [node, rest @ ..] if node.starts_with("node") && rest.first() != Some(&"fault") => {
                    s.viewers += 1;
                    let crashed = rest.iter().any(|t| field(t, "crashed=") == Some(1));
                    if crashed {
                        s.crashed += 1;
                    }
                    for t in rest {
                        if let Some(v) = field(t, "recv=") {
                            s.delivered += v;
                        } else if let Some(v) = field(t, "dup=") {
                            s.dupes += v;
                        } else if let Some(v) = field(t, "gap=") {
                            s.gap_skips += v;
                        } else if let Some(v) = field(t, "lost=") {
                            s.lost_total += v;
                            if !crashed {
                                s.lost_alive += v;
                            }
                        } else if let Some(v) = field(t, "late=") {
                            s.late_total += v;
                            if !crashed {
                                s.late_alive += v;
                            }
                        } else if let Some(v) = field(t, "fwd=") {
                            s.forwarded += v;
                        } else if let Some(v) = field(t, "p3=") {
                            s.p3_drops += v;
                        } else if let Some(v) = field(t, "p8=") {
                            s.p8_skips += v;
                        } else if let Some(v) = field(t, "graftin=") {
                            s.grafts_in += v;
                        } else if let Some(v) = field(t, "deg=") {
                            s.max_divisor = s.max_divisor.max(v);
                        } else if !crashed {
                            if let Some(v) = field(t, "gapmax_us=") {
                                s.gap_max_us_alive = s.gap_max_us_alive.max(v);
                            } else if let Some(v) = field(t, "sgapmax_us=") {
                                s.stripe_gap_max_us_alive = s.stripe_gap_max_us_alive.max(v);
                            } else if let Some(v) = field(t, "hopmax_us=") {
                                s.hop_max_us = s.hop_max_us.max(v);
                            } else if let Some(list) = t.strip_prefix("hopbkt=") {
                                for (i, part) in list.split(',').take(HOP_BUCKETS).enumerate() {
                                    s.hop_buckets[i] += part.parse::<u64>().unwrap_or(0);
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        s
    }

    /// Total hops in the merged histogram.
    pub fn hop_count(&self) -> u64 {
        self.hop_buckets.iter().sum()
    }

    /// Upper bucket edge (µs) below which `permille`/1000 of all
    /// measured hops fall. Zero when no hops were measured.
    pub fn hop_percentile_us(&self, permille: u64) -> u64 {
        let total = self.hop_count();
        if total == 0 {
            return 0;
        }
        let target = (total * permille).div_ceil(1_000);
        let mut seen = 0u64;
        for (i, count) in self.hop_buckets.iter().enumerate() {
            seen += count;
            if seen >= target {
                return 1u64 << (i + 1);
            }
        }
        1u64 << HOP_BUCKETS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_sim::SimTime;

    fn small_cfg() -> OverlayConfig {
        OverlayConfig {
            viewers: 40,
            trees: 3,
            degree: 3,
            seed: 11,
            segments: 40,
            payload_bytes: 320,
            uplink_cps: 12_000,
            source_uplink_cps: 40_000,
            relay_cost: SimDuration::from_micros(20),
            ..OverlayConfig::default()
        }
    }

    fn run(cfg: &OverlayConfig) -> (Vec<String>, TreePlan) {
        let built = match build_overlay_broadcast(cfg, 1) {
            Ok(b) => b,
            Err(e) => panic!("build failed: {e}"),
        };
        let deadline = SimTime::from_nanos(
            cfg.segment_interval.as_nanos() * u64::from(cfg.segments)
                + SimDuration::from_millis(140).as_nanos(),
        );
        let report = built.cluster.run(deadline);
        (report.merged_lines(), built.plan)
    }

    #[test]
    fn clean_run_delivers_everything_on_time() {
        let cfg = small_cfg();
        let (lines, plan) = run(&cfg);
        let s = OverlaySummary::parse(&lines);
        assert_eq!(s.viewers, 40);
        assert_eq!(s.delivered, 40 * 40, "{lines:?}");
        assert_eq!(s.lost_total, 0);
        assert_eq!(s.late_total, 0);
        assert_eq!(s.dupes, 0);
        assert_eq!(s.p3_drops, 0);
        assert_eq!(s.hub_deaths, 0);
        assert!(plan.max_depth_overall() <= plan.depth_bound());
        // One slab gather per segment — relays added no payload copies.
        assert_eq!(
            s.slab_copied_out,
            u64::from(cfg.segments) * cfg.payload_bytes as u64
        );
        assert!(s.hop_count() > 0);
    }

    #[test]
    fn replay_is_byte_identical() {
        let cfg = small_cfg();
        let (a, _) = run(&cfg);
        let (b, _) = run(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn interior_crash_is_repaired_for_all_survivors() {
        let mut cfg = small_cfg();
        let plan = match plan_for(&cfg) {
            Ok(p) => p,
            Err(e) => panic!("plan: {e}"),
        };
        let victim = (1..plan.members())
            .find(|&v| {
                plan.interior_tree(v)
                    .is_some_and(|t| !plan.children(t, v).is_empty())
            })
            .expect("no interior relay with children");
        cfg.crash = Some(CrashPlan {
            member: victim,
            at: SimDuration::from_millis(60),
        });
        let (lines, _) = run(&cfg);
        let s = OverlaySummary::parse(&lines);
        assert_eq!(s.crashed, 1, "{lines:?}");
        assert_eq!(s.hub_deaths, 1);
        assert!(s.hub_grafts >= 1, "no grafts issued: {lines:?}");
        assert_eq!(s.lost_alive, 0, "survivors lost slices: {lines:?}");
        assert_eq!(s.late_alive, 0, "survivors saw late slices: {lines:?}");
        // The repair gap stayed within the playout budget.
        assert!(
            s.stripe_gap_max_us_alive <= cfg.playout.as_nanos() / 1_000,
            "repair gap {}us exceeds playout",
            s.stripe_gap_max_us_alive
        );
    }

    /// P4 on the overlay: with the control port last in the relay's PRI
    /// ALT, a backup parent whose stripe inputs never go idle never
    /// hears the hub's graft orders at all.
    #[test]
    fn graft_is_applied_within_one_relay_cost_however_deep_the_stripe_backlog() {
        let mut cfg = small_cfg();
        cfg.segments = 200;
        // Dearer than the 12 ms stripe interval: every relay's interior
        // stripe input backs up for good.
        cfg.relay_cost = SimDuration::from_millis(13);
        let plan = plan_for(&cfg).expect("plan");
        // A relay two levels down: its orphans' backup is a viewer, so
        // the grafts cross the control plane.
        let victim = (1..plan.members())
            .find(|&v| {
                plan.interior_tree(v).is_some_and(|t| {
                    !plan.children(t, v).is_empty() && plan.parent(t, v) != Some(0)
                })
            })
            .expect("no interior relay below the first level");
        cfg.crash = Some(CrashPlan {
            member: victim,
            at: SimDuration::from_millis(60),
        });
        let run_to = |deadline: SimTime| {
            let built = build_overlay_broadcast(&cfg, 1).expect("build");
            built.cluster.run(deadline).merged_lines()
        };

        // When the hub issued the grafts, from its own log.
        let issued: Vec<u64> = run_to(SimTime::from_millis(500))
            .iter()
            .filter_map(|l| {
                l.strip_prefix("hub t=")?
                    .split_once(" graft ")?
                    .0
                    .parse()
                    .ok()
            })
            .collect();
        assert!(!issued.is_empty(), "the crash orphaned nobody");
        // A graft arrives one control hop later; the backup may be inside
        // one slice's relay cost, and must take the graft next.
        let applied_by = SimTime::from_nanos(issued.iter().max().copied().unwrap_or(0))
            + cfg.ctl_latency
            + cfg.relay_cost
            + SimDuration::from_micros(1);
        let s = OverlaySummary::parse(&run_to(applied_by));
        assert_eq!(s.hub_grafts, issued.len() as u64);
        assert_eq!(s.grafts_in, s.hub_grafts, "grafts starved behind stripes");
    }

    #[test]
    fn fault_plans_must_name_a_viewer() {
        let viewers = small_cfg().viewers;
        for (member, valid) in [(0, false), (viewers + 1, false), (viewers, true)] {
            let crash = OverlayConfig {
                crash: Some(CrashPlan {
                    member,
                    at: SimDuration::from_millis(10),
                }),
                ..small_cfg()
            };
            let cap = OverlayConfig {
                uplink_cap: Some(UplinkCapPlan {
                    member,
                    at: SimDuration::from_millis(10),
                    hold: SimDuration::from_millis(10),
                    permille: 500,
                }),
                ..small_cfg()
            };
            for (what, cfg) in [("crash", crash), ("uplink_cap", cap)] {
                match build_overlay_broadcast(&cfg, 1) {
                    Ok(_) => assert!(valid, "{what} on member {member} was accepted"),
                    Err(BuildError::FaultTarget {
                        plan, member: m, ..
                    }) => {
                        assert!(!valid, "{what} on viewer {member} was refused");
                        assert_eq!((plan, m), (what, member));
                    }
                    Err(e) => panic!("{what} on member {member}: {e}"),
                }
            }
        }
    }

    /// FNV-1a over the merged report, `\n` after each line: the
    /// benchmark's history digest.
    fn digest(lines: &[String]) -> String {
        let bytes = lines.iter().flat_map(|l| l.bytes().chain([b'\n']));
        let h = bytes.fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        format!("{h:016x}")
    }

    /// `(uplink_queue, cap ‰, relay_cost µs, crash)` — the first interior
    /// relay with two or more children capped from 30 ms for 80 ms and, in
    /// half the rows, crashed at 70 ms, mid-cap — then the digest of the
    /// merged report and `(p3, p8, max divisor, lost, forwarded)`. Recorded
    /// on the last commit whose uplink was a pump, a link and a router
    /// task; the instant a copy leaves the P3 queue shows in all of it.
    #[rustfmt::skip]
    #[allow(clippy::type_complexity)]
    const OVERLOAD: [((usize, u64, u64, bool), &str, [u64; 5]); 12] = [
        ((4, 40, 2_000, false), "2ece6843dce85d49", [7, 6, 8, 25, 1_462]),
        ((4, 40, 20, true), "3cd63191b088165c", [18, 2, 2, 86, 1_439]),
        ((4, 100, 20, false), "a215f14087ccc524", [1, 3, 2, 10, 1_471]),
        ((4, 100, 2_000, true), "998f0a1599f4da57", [16, 2, 2, 86, 1_438]),
        ((8, 40, 20, false), "ca3b070e80998308", [3, 3, 2, 12, 1_471]),
        ((8, 40, 2_000, true), "f173d18e73550796", [8, 0, 1, 32, 1_490]),
        ((8, 100, 2_000, false), "ff6c1e641484767f", [0, 4, 4, 12, 1_468]),
        ((8, 100, 20, true), "237ce262df9db71d", [2, 0, 1, 25, 1_484]),
        ((64, 40, 2_000, false), "bb45fd4432e88b7a", [0, 5, 4, 15, 1_465]),
        ((64, 40, 20, true), "18df623d27339ab5", [0, 0, 1, 23, 1_487]),
        ((64, 100, 20, false), "ae18d09a80d3ccf7", [0, 3, 2, 9, 1_471]),
        ((64, 100, 2_000, true), "049264c00734816d", [0, 0, 1, 24, 1_486]),
    ];

    #[test]
    fn uplink_cap_drives_p3_and_p8_then_recovers() {
        let mut got = Vec::new();
        for ((queue, permille, relay_us, crash), ..) in OVERLOAD {
            let mut cfg = OverlayConfig {
                uplink_queue: queue,
                relay_cost: SimDuration::from_micros(relay_us),
                ..small_cfg()
            };
            let victim = busy_relay(&plan_for(&cfg).expect("plan"));
            cfg.uplink_cap = Some(UplinkCapPlan {
                member: victim,
                at: SimDuration::from_millis(30),
                hold: SimDuration::from_millis(80),
                permille,
            });
            cfg.crash = crash.then_some(CrashPlan {
                member: victim,
                at: SimDuration::from_millis(70),
            });
            let (lines, _) = run(&cfg);
            let s = OverlaySummary::parse(&lines);
            let text = lines.join("\n");
            for step in ["apply", "revert"] {
                let line = format!("{step} bandwidth-collapse path=relay.up");
                assert!(text.contains(&line), "{text}");
            }
            got.push((
                (queue, permille, relay_us, crash),
                digest(&lines),
                [
                    s.p3_drops,
                    s.p8_skips,
                    s.max_divisor,
                    s.lost_total,
                    s.forwarded,
                ],
            ));
        }
        let want: Vec<_> = OVERLOAD.map(|(k, d, c)| (k, d.to_string(), c)).to_vec();
        assert_eq!(got, want);
    }

    /// The relay [`uplink_cap_drives_p3_and_p8_then_recovers`] squeezes:
    /// the first interior relay with two or more children.
    fn busy_relay(plan: &TreePlan) -> usize {
        (1..plan.members())
            .find(|&v| {
                plan.interior_tree(v)
                    .is_some_and(|t| plan.children(t, v).len() >= 2)
            })
            .expect("no busy relay")
    }

    /// `(crash ms, capped)` — the last interior relay with children crashed
    /// on a beat instant, and in half the rows [`busy_relay`] capped to
    /// 50 ‰ from the second beat for 80 ms, which moves its P8 divisor —
    /// then the digest of the merged report and the highest divisor.
    /// Recorded while every viewer had a heartbeat task of its own: where
    /// a beat runs against a crash, a fault script and the uplink's
    /// windows shows in all of it. The control hop is 6 ms, longer than
    /// half a beat, so the first beat's hellos land after the first sweep:
    /// at the default 200 µs a hello at the first beat is masked by the
    /// lease's fresh enrolment, and one more hello from the member dying
    /// there would move nothing.
    #[rustfmt::skip]
    const BEAT_ORDER: [((u64, bool), &str, u64); 10] = [
        ((0, false), "34990e300781ce20", 1),
        ((0, true), "b94789d14e1f558f", 8),
        ((10, false), "999424ec8b7e3498", 1),
        ((10, true), "e9dcb4900725cedb", 8),
        ((20, false), "2995ca4609ef00c4", 1),
        ((20, true), "65836c9c4b30feec", 8),
        ((60, false), "2fcc1cf415019fa6", 1),
        ((60, true), "23715dba8bf716e1", 8),
        ((150, false), "6ee2c941623992c5", 1),
        ((150, true), "89ee0c70c4b88756", 8),
    ];

    #[test]
    fn beats_keep_the_order_of_a_heartbeat_task_per_member() {
        let plan = plan_for(&small_cfg()).expect("plan");
        let victim = (1..plan.members())
            .rev()
            .find(|&v| {
                plan.interior_tree(v)
                    .is_some_and(|t| !plan.children(t, v).is_empty())
            })
            .expect("no interior relay with children");
        let capped = busy_relay(&plan);
        assert_ne!(victim, capped);
        let mut got = Vec::new();
        for ((crash_ms, cap), ..) in BEAT_ORDER {
            let cfg = OverlayConfig {
                crash: Some(CrashPlan {
                    member: victim,
                    at: SimDuration::from_millis(crash_ms),
                }),
                uplink_cap: cap.then_some(UplinkCapPlan {
                    member: capped,
                    at: SimDuration::from_millis(20),
                    hold: SimDuration::from_millis(80),
                    permille: 50,
                }),
                ctl_latency: SimDuration::from_millis(6),
                ..small_cfg()
            };
            let (lines, _) = run(&cfg);
            let s = OverlaySummary::parse(&lines);
            assert_eq!((s.crashed, s.hub_deaths), (1, 1), "{lines:?}");
            got.push(((crash_ms, cap), digest(&lines), s.max_divisor));
        }
        let want: Vec<_> = BEAT_ORDER.map(|(k, d, m)| (k, d.to_string(), m)).to_vec();
        assert_eq!(got, want);
    }

    /// Pins [`HANDOFF`]. A relay capped to 1 ‰ from 1 ms takes 583 ms a
    /// copy, so for the rest of a 540 ms run what it took in and never
    /// dropped is its full queue, the copies out of the queue and any copy
    /// it started before the cap: none for a relay two levels down, one
    /// for the source's first child in tree 0 (the source's one-copy queue
    /// starves that child at depth 1, hence no row).
    #[test]
    fn a_stalled_uplink_holds_its_queue_and_the_hand_off() {
        let cfg = OverlayConfig {
            segments: 100,
            ..small_cfg()
        };
        let plan = plan_for(&cfg).expect("plan");
        let first_child = plan.children(0, 0)[0];
        let rows = [1, 4, 8, 64].map(|q| (busy_relay(&plan), q, 0));
        let rows = rows
            .into_iter()
            .chain([4, 8, 64].map(|q| (first_child, q, 1)));
        for (victim, queue, started) in rows {
            let cfg = OverlayConfig {
                uplink_queue: queue,
                uplink_cap: Some(UplinkCapPlan {
                    member: victim,
                    at: SimDuration::from_millis(1),
                    hold: SimDuration::from_secs(1),
                    permille: 1,
                }),
                ..cfg
            };
            let own = format!("node{victim:04} recv=");
            let (lines, _) = run(&cfg);
            let s = OverlaySummary::parse(
                &lines
                    .into_iter()
                    .filter(|l| l.starts_with(&own))
                    .collect::<Vec<_>>(),
            );
            assert!(s.p3_drops > 0, "member {victim}, queue {queue}: never full");
            assert_eq!(
                s.forwarded - s.p3_drops,
                (queue + HANDOFF + started) as u64,
                "member {victim}, queue {queue}"
            );
        }
    }

    #[test]
    fn admission_charge_covers_every_planned_copy() {
        let cfg = small_cfg();
        let built = match build_overlay_broadcast(&cfg, 1) {
            Ok(b) => b,
            Err(e) => panic!("build failed: {e}"),
        };
        let copies: usize = (0..built.plan.members())
            .map(|m| built.plan.fanout(m))
            .sum();
        assert!(copies > 0);
        let per_copy = match stripe_class(&cfg) {
            StreamClass::Video { rate_permille } => {
                StreamClass::Video { rate_permille }.demand_cps()
            }
            StreamClass::Audio => unreachable!("stripes are video class"),
        };
        assert_eq!(built.relay_tx_cps, per_copy * copies as u64);
    }

    #[test]
    fn summary_parses_node_hub_and_src_lines() {
        let lines = vec![
            "node0000 src fwd=120 p3=0 slabin=12800 slabout=12800 srcgraft=1".to_string(),
            "node0001 recv=40 dup=2 gap=0 lost=0 late=0 fwd=120 p3=1 p8=2 graftin=1 deg=2 \
             gapmax_us=5000 sgapmax_us=12000 hopmax_us=900 crashed=0 hopbkt=0,1,2,0,0,0,0,0,0,0,0,0,0,0,0,0"
                .to_string(),
            "node0002 recv=10 dup=0 gap=3 lost=30 late=1 fwd=0 p3=0 p8=0 graftin=0 deg=1 \
             gapmax_us=900000 sgapmax_us=900000 hopmax_us=20000 crashed=1 hopbkt=0,0,0,0,9,0,0,0,0,0,0,0,0,0,0,0"
                .to_string(),
            "hub deaths=1 grafts=2 unrepairable=0".to_string(),
            "hub t=000000000001 death relay=2 tree=0".to_string(),
        ];
        let s = OverlaySummary::parse(&lines);
        assert_eq!(s.viewers, 2);
        assert_eq!(s.crashed, 1);
        assert_eq!(s.delivered, 50);
        assert_eq!(s.lost_total, 30);
        assert_eq!(s.lost_alive, 0);
        assert_eq!(s.late_alive, 0);
        assert_eq!(s.grafts_in, 2, "node graftin + srcgraft");
        assert_eq!(s.max_divisor, 2);
        assert_eq!(s.hub_deaths, 1);
        assert_eq!(s.src_forwarded, 120);
        assert_eq!(s.gap_max_us_alive, 5_000);
        assert_eq!(s.stripe_gap_max_us_alive, 12_000);
        assert_eq!(s.hop_max_us, 900, "crashed node's hops excluded");
        assert_eq!(s.hop_buckets[1], 1);
        assert_eq!(s.hop_buckets[4], 0, "crashed node's buckets excluded");
        assert_eq!(s.hop_count(), 3);
        assert_eq!(s.hop_percentile_us(1_000), 1 << 3);
    }
}
