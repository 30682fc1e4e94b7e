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
//! `RepairEngine`'s leases, a dead interior relay's orphans are
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

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::future::{poll_fn, Future};
use std::pin::pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll};

use pandora_atm::{burst_gather, PathControl, Vci};
use pandora_faults::{install, FaultPlan, FaultTargets, TraceEntry};
use pandora_recover::{AdaptAction, AdaptMachine, LeaseConfig, MediaClass, WindowSample};
use pandora_session::{AdmissionController, Capabilities, Decision, StreamClass};
use pandora_shard::{Cluster, Render, ShardEnv};
use pandora_sim::{
    delay, delay_until, now, unbounded, waker, LinkConfig, LinkControl, Priority, SimDuration,
    SimTime, TaskWaker, WireSize,
};
use pandora_slab::ByteSlab;

use crate::lanes::{dispatcher, Lanes};
use crate::plan::{PlanConfig, PlanError, TreePlan};
use crate::repair::RepairEngine;
use crate::stripe::{Accept, RepairRing, Slice, StripeReceiver, HOP_BUCKETS, MAX_TREES};

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
    /// Striped trees `k`, at most eight.
    pub trees: usize,
    /// Maximum children per node `d`.
    pub degree: usize,
    /// Planner tie-break seed.
    pub seed: u64,
    /// Segments the source emits.
    pub segments: u32,
    /// Source emission cadence (one segment, striped round-robin).
    pub segment_interval: SimDuration,
    /// Payload bytes per segment (written once into the source's slab).
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
    /// More striped trees than a heartbeat carries resume points for
    /// (eight).
    Trees {
        /// The trees asked for.
        trees: usize,
    },
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
            BuildError::Trees { trees } => {
                write!(
                    f,
                    "{trees} striped trees: at most {MAX_TREES} are supported"
                )
            }
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
    /// The tree plan the topology was wired from: the one the setup
    /// holds, not a copy.
    pub plan: Rc<TreePlan>,
    /// Total transmit cells/second the relay admission charge took
    /// across all members.
    pub relay_tx_cps: u64,
}

/// Messages on the overlay's data and control ports.
#[derive(Debug, Clone)]
pub(crate) enum Msg {
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
/// points a graft would need, inline — a beat allocates nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hello {
    /// Reporting member.
    pub(crate) node: u32,
    /// Next expected global sequence per tree; the first `k` are in use.
    pub(crate) next: [u32; MAX_TREES],
}

/// Cells one segment fills (header plus payload, 48-byte AAL payload
/// per cell).
pub fn cells_per_segment(payload_bytes: usize) -> u64 {
    ((SEG_HEADER_BYTES + payload_bytes) as u64).div_ceil(48)
}

/// Cell rate one stripe copy costs a forwarding uplink: each tree
/// carries every k-th segment.
pub(crate) fn stripe_cps(cfg: &OverlayConfig) -> u64 {
    let tree_interval_ns = cfg.segment_interval.as_nanos().max(1) * cfg.trees.max(1) as u64;
    (cells_per_segment(cfg.payload_bytes) * 1_000_000_000).div_ceil(tree_interval_ns)
}

/// The stream class a stripe copy is admitted as. The rate rounds
/// *down* so admission's demand never exceeds the planner's budget
/// arithmetic — the plan and the charge agree by construction.
pub(crate) fn stripe_class(cfg: &OverlayConfig) -> StreamClass {
    let rate = (stripe_cps(cfg) * 1_000 / 2_600).max(1);
    StreamClass::Video {
        rate_permille: rate.min(u64::from(u32::MAX)) as u32,
    }
}

/// The deterministic tree plan for `cfg`.
///
/// # Errors
///
/// Propagates the planner's [`PlanError`].
pub fn plan_for(cfg: &OverlayConfig) -> Result<TreePlan, PlanError> {
    // The membership the planner sees: member 0 is the source.
    let mut uplinks = vec![cfg.uplink_cps; cfg.viewers + 1];
    uplinks[0] = cfg.source_uplink_cps;
    TreePlan::compute(
        &uplinks,
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
const HANDOFF: u8 = 3;

/// A member id as the tables store it.
type Id = u32;

/// The end of a list of letters.
const NIL: Id = Id::MAX;

/// Guards in a viewer's PRI ALT: its control port (guard 0), then its
/// primary edge of tree `t` (guard `1 + t`), then its backup edge of tree
/// `t` (guard `1 + MAX_TREES + t`).
const GUARDS: u32 = 1 + 2 * MAX_TREES as u32;

/// The tag a message to `viewer` under `guard` is delivered by: one number
/// per port.
fn tag(viewer: usize, guard: usize) -> u32 {
    viewer as u32 * GUARDS + guard as u32
}

/// One copy queued on a member's uplink, addressed to a child's edge by the
/// tag it is delivered under. A relay stamps a copy as it queues it, so it
/// was queued at `slice.sent`.
struct UpItem {
    tag: u32,
    slice: Slice,
}

/// A member's P3 uplink: a bounded queue the wire engine drains. Overflow
/// drops the oldest queued copy; the windows feed the P8 machine.
struct Uplink {
    /// The hand-off — the first `handed` copies, out of the queue, the
    /// front one on the wire — then the queued copies, oldest first. It
    /// starts empty and grows on use: most viewers relay to nobody.
    queue: VecDeque<UpItem>,
    enqueued: u64,
    drops: u64,
    window_enq: u64,
    window_drops: u64,
    window_late: u64,
    handed: u8,
    /// Set while the hand-off has room: the next push kicks the engine.
    wire: bool,
    /// Set when the member crashes: its uplink falls silent.
    dead: bool,
}

/// Every member's uplink, indexed by member id, and the wire engine's
/// doorbell: the members whose uplink was pushed to while its hand-off had
/// room, in push order, and the engine's waker.
struct Uplinks {
    rows: Vec<Uplink>,
    cap: usize,
    late_bound_nanos: u64,
    kicked: Vec<Id>,
    engine: Option<TaskWaker>,
}

impl Uplinks {
    fn new(members: usize, cap: usize, late_bound_nanos: u64) -> Uplinks {
        let row = |_| Uplink {
            queue: VecDeque::new(),
            enqueued: 0,
            drops: 0,
            window_enq: 0,
            window_drops: 0,
            window_late: 0,
            handed: 0,
            wire: true,
            dead: false,
        };
        Uplinks {
            rows: (0..members).map(row).collect(),
            cap: cap.max(1),
            late_bound_nanos,
            kicked: Vec::new(),
            engine: None,
        }
    }

    fn push(&mut self, member: usize, tag: u32, slice: Slice) {
        let up = &mut self.rows[member];
        let handed = usize::from(up.handed);
        if up.queue.len() - handed >= self.cap {
            up.queue.remove(handed);
            up.drops += 1;
            up.window_drops += 1;
        }
        up.queue.push_back(UpItem { tag, slice });
        up.enqueued += 1;
        up.window_enq += 1;
        // Served once the pushing poll returns: a whole batch lands first.
        if std::mem::replace(&mut up.wire, false) {
            self.kicked.push(member as Id);
            // The engine takes the whole list each poll: only the first
            // kick since then has to wake it.
            if self.kicked.len() == 1 {
                if let Some(engine) = &self.engine {
                    engine.wake();
                }
            }
        }
    }

    /// Run by the engine whenever it looks at an uplink: takes copies out
    /// of the queue (P8 reads each one's wait as it leaves; a dead member's
    /// are discarded) until [`HANDOFF`] are out, and asks for a kick while
    /// there is room.
    fn refill(&mut self, member: usize, now: u64) {
        let up = &mut self.rows[member];
        while up.handed < HANDOFF {
            let Some(item) = up.queue.get(usize::from(up.handed)) else {
                break;
            };
            if now.saturating_sub(item.slice.sent) > self.late_bound_nanos {
                up.window_late += 1;
            }
            if up.dead {
                up.queue.remove(usize::from(up.handed));
            } else {
                up.handed += 1;
            }
        }
        up.wire = up.handed < HANDOFF;
    }

    /// Closes one P8 observation window: enqueues as received, P3 drops
    /// as gaps, overdue queue waits as late.
    fn take_window(&mut self, member: usize) -> WindowSample {
        let up = &mut self.rows[member];
        WindowSample {
            received: std::mem::take(&mut up.window_enq),
            gaps: std::mem::take(&mut up.window_drops),
            late: std::mem::take(&mut up.window_late),
        }
    }
}

/// A member's P8 state and relay counters.
#[derive(Clone, Copy)]
struct Relay {
    /// The P8 rate divisor the beat's [`AdaptMachine`] last set.
    divisor: u32,
    max_divisor: u32,
    p8_skips: u64,
    grafts_in: u64,
}

/// Every member's relaying half, indexed by member id. The source is the
/// root relay of every tree; a viewer relays its interior stripe only and
/// is a leaf elsewhere. A relay's live children are the plan's, then every
/// orphan it adopted.
struct Relays {
    plan: Rc<TreePlan>,
    rows: Vec<Relay>,
    /// The clawback rings: a backup's only. Only an adoption reads a ring,
    /// and the hub grafts an orphan onto the backup the plan names — its
    /// grandparent — so a member with no grandchild in a tree is never
    /// asked to replay it (DESIGN.md §15).
    rings: Vec<RepairRing>,
    /// Each member's ring in `rings`, or [`NIL`]. A viewer's is of its
    /// interior tree, the one it has children in; the source's are the
    /// first `k`, in tree order.
    ring_at: Vec<Id>,
    /// `(member, tree, tag)` of every adoption, in the order they came.
    adopted: Vec<(Id, u8, u32)>,
}

impl Relays {
    fn new(plan: Rc<TreePlan>, ring: usize) -> Relays {
        let (p, n, k) = (&plan, plan.members(), plan.trees());
        let mut ring_at = vec![NIL; n];
        ring_at[0] = 0;
        let mut rings = k as Id;
        for b in (0..k).flat_map(|t| (1..n).filter_map(move |v| p.backup(t, v))) {
            if ring_at[b] == NIL {
                ring_at[b] = rings;
                rings += 1;
            }
        }
        let row = Relay {
            divisor: 1,
            max_divisor: 1,
            p8_skips: 0,
            grafts_in: 0,
        };
        Relays {
            rows: vec![row; n],
            rings: (0..rings).map(|_| RepairRing::new(ring)).collect(),
            ring_at,
            adopted: Vec::new(),
            plan,
        }
    }

    fn ring(&mut self, member: usize, tree: usize) -> Option<&mut RepairRing> {
        let at = self.ring_at[member] as usize + if member == 0 { tree } else { 0 };
        self.rings.get_mut(at)
    }

    /// The tags of `member`'s edges to its live children on `tree`.
    fn children(&self, member: usize, tree: usize) -> impl Iterator<Item = u32> + '_ {
        let planned = self.plan.children(tree, member).iter();
        let planned = planned.map(move |&child| tag(child as usize, 1 + tree));
        let adopted = self.adopted.iter();
        let adopted =
            adopted.filter(move |&&(m, t, _)| (m as usize, usize::from(t)) == (member, tree));
        planned.chain(adopted.map(|&(.., tag)| tag))
    }

    /// Keeps `slice` in its stripe's clawback ring, if `member` has one —
    /// unless `member` is a leaf of that tree, or P8 is shedding this
    /// segment. Returns whether live children are waiting for
    /// [`Relays::forward`].
    fn keep(&mut self, member: usize, slice: &Slice) -> bool {
        let tree = usize::from(slice.tree);
        if member != 0 && self.plan.interior_tree(member) != Some(tree) {
            return false;
        }
        let k = self.plan.trees().max(1) as u32;
        let row = &mut self.rows[member];
        if row.divisor > 1 && !(slice.seq / k).is_multiple_of(row.divisor) {
            row.p8_skips += 1;
            return false;
        }
        if let Some(ring) = self.ring(member, tree) {
            ring.push(slice.clone());
        }
        self.children(member, tree).next().is_some()
    }

    /// Queues one copy of `slice`, stamped now, for each live child of
    /// its tree.
    fn forward(&self, member: usize, slice: &Slice, uplinks: &mut Uplinks) {
        let sent = now().as_nanos();
        for tag in self.children(member, usize::from(slice.tree)) {
            uplinks.push(member, tag, slice.retimed(sent));
        }
    }

    /// Adopts `orphan` as a child on `tree` and replays the clawback
    /// ring to it from `resume_from`.
    fn adopt(
        &mut self,
        member: usize,
        tree: usize,
        orphan: usize,
        resume_from: u32,
        uplinks: &mut Uplinks,
    ) {
        self.rows[member].grafts_in += 1;
        let tag = tag(orphan, 1 + MAX_TREES + tree);
        if !self.children(member, tree).any(|t| t == tag) {
            self.adopted.push((member as Id, tree as u8, tag));
        }
        let sent = now().as_nanos();
        let replay = self.ring(member, tree).map(|r| r.replay_from(resume_from));
        for s in replay.into_iter().flatten() {
            uplinks.push(member, tag, s.retimed(sent));
        }
    }
}

/// A viewer's receive side as the relay task drives it: its undrained
/// letters, oldest first, as a list through the letters' arena.
#[derive(Clone, Copy)]
struct Inbox {
    first: Id,
    last: Id,
    /// A kept slice holds the viewer for the relay cost.
    held: bool,
    /// On the relay task's woken list.
    queued: bool,
}

/// One undrained message under its guard, linked in its viewer's list —
/// or, drained, in the free list.
struct Letter {
    msg: Option<Msg>,
    next: Id,
    guard: u8,
}

/// What the ports' sink and the relay task share: every viewer's inbox and
/// receiver, indexed by member id, the letters the inboxes hold, the
/// viewers with something to drain, and the task's waker.
struct Inboxes {
    rows: Vec<Inbox>,
    receivers: Vec<StripeReceiver>,
    /// Drained letters are reused, so the arena is as long as the most
    /// letters ever undrained at once.
    letters: Vec<Letter>,
    free: Id,
    woken: VecDeque<Id>,
    task: Option<TaskWaker>,
}

impl Inboxes {
    fn new(members: usize, k: usize, playout_nanos: u64) -> Inboxes {
        let inbox = Inbox {
            first: NIL,
            last: NIL,
            held: false,
            queued: false,
        };
        Inboxes {
            rows: vec![inbox; members],
            receivers: (0..members)
                .map(|_| StripeReceiver::new(k, playout_nanos))
                .collect(),
            letters: Vec::new(),
            free: NIL,
            woken: VecDeque::new(),
            task: None,
        }
    }

    /// The ports' sink: files `msg` under its guard and queues the viewer
    /// once, in delivery order — unless a hold has it, which drains it next.
    fn deliver(&mut self, viewer: usize, guard: u8, msg: Msg) {
        let letter = Letter {
            msg: Some(msg),
            next: NIL,
            guard,
        };
        let at = match self.free {
            NIL => {
                self.letters.push(letter);
                (self.letters.len() - 1) as Id
            }
            at => {
                self.free = self.letters[at as usize].next;
                self.letters[at as usize] = letter;
                at
            }
        };
        let inbox = &mut self.rows[viewer];
        match inbox.last {
            NIL => inbox.first = at,
            last => self.letters[last as usize].next = at,
        }
        inbox.last = at;
        if inbox.queued || inbox.held {
            return;
        }
        inbox.queued = true;
        self.woken.push_back(viewer as Id);
        // The task drains the whole list each poll: only the first viewer
        // queued since then has to wake it.
        if self.woken.len() == 1 {
            if let Some(task) = &self.task {
                task.wake();
            }
        }
    }

    /// The viewer's next message in PRI ALT order: the oldest under the
    /// lowest guard. The control port is guard 0 (P4), so a graft never
    /// queues behind a stripe backlog.
    fn take(&mut self, viewer: usize) -> Option<Msg> {
        let inbox = &mut self.rows[viewer];
        // The first letter under the lowest guard, and the one before it.
        let mut best: Option<(Id, Id, u8)> = None;
        let (mut before, mut at) = (NIL, inbox.first);
        while at != NIL {
            let letter = &self.letters[at as usize];
            if best.is_none_or(|(.., guard)| letter.guard < guard) {
                best = Some((at, before, letter.guard));
            }
            (before, at) = (at, letter.next);
        }
        let (at, before, _) = best?;
        let letter = &mut self.letters[at as usize];
        let next = std::mem::replace(&mut letter.next, self.free);
        let msg = letter.msg.take();
        self.free = at;
        match before {
            NIL => inbox.first = next,
            before => self.letters[before as usize].next = next,
        }
        if inbox.last == at {
            inbox.last = before;
        }
        msg
    }
}

/// Every member's state, in dense tables indexed by member id: a member is
/// a row in each, not a set of boxes of its own. The engines that serve
/// every member share them — `ovl:wires`, `ovl:relay`, `ovl:beat` and the
/// hub — and so does the ports' sink. Each borrows them for one poll or
/// one call, and none calls into another, so the borrows never nest.
struct Tables {
    uplinks: Uplinks,
    relays: Relays,
    inboxes: Inboxes,
}

type Shared = Rc<RefCell<Tables>>;

/// Where a member's wire is with the front copy of its hand-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireState {
    /// Nothing handed: the next kick starts a copy.
    Idle,
    /// The front copy is on the wire until the instant it is filed under.
    Busy,
    /// The link was down as the front copy was to start.
    DownAtStart,
    /// The link was down as the front copy's hold ended.
    DownAtEnd,
}

/// Arms a timer that wakes the task being polled at `at`: a [`Delay`]
/// registers on its first poll, and its timer outlives it.
fn arm(at: u64, cx: &mut Context<'_>) {
    let _ = pin!(delay_until(SimTime::from_nanos(at))).poll(cx);
}

/// `ovl:wires`, the one high-priority task that clocks every member's
/// uplink — the link DMA engines of §3.1, which cost a box no process.
/// Per copy it does what a wire task per uplink did: it holds the front
/// copy for [`LinkControl::hold`] at the rate in force as the copy starts,
/// with the link up at the start and at the end, then pops it, sends it to
/// its child's port unless the member is dead, refills, and starts the next.
/// A kick refills an uplink and starts its wire if it is idle. Transfers are
/// filed by the instant they end, so the engine is polled once an instant,
/// not once a copy.
///
/// Why one engine keeps every history: each wire ran at high priority and
/// touched only its own uplink, so the order of wires within an instant
/// never mattered. Its sends keep their send order, and the order of
/// different ports within an instant only reorders independent work:
/// - each port is one (viewer, guard), a copy's tag;
/// - the dispatcher runs at high priority, so all of an instant's
///   deliveries land before the low-priority `ovl:relay` drains, whether
///   it runs before or after the engine (a zero-hop copy rings it again);
/// - [`Inboxes::take`] takes by guard;
/// - members' rows are disjoint.
///
/// Two things did matter, and the engine keeps both. Every completion at
/// an instant ran before every low task at that instant: the engine is a
/// high task. And a push was served before the next low task ran: the
/// kick wakes a high task. The only other high tasks are the fault
/// scripts, and a copy reads its link's rate as it starts. A cap's apply
/// is armed at t = 0, ahead of every completion. Its revert is armed at
/// the apply: a wire whose copy ended with the revert ran after it if the
/// copy was filed after the apply, and the engine runs where the instant's
/// first copy was filed. The two differ only if some uplink's copy, filed
/// before the apply, outlasts the cap's whole hold while the capped link
/// clocks a whole, slowed copy inside it.
struct WireEngine {
    tables: Shared,
    /// Per member: where its wire is with the front copy of its hand-off.
    states: Vec<WireState>,
    /// The lanes a copy is sent on.
    lanes: Rc<Lanes>,
    /// The uplink rates: the source's, then every viewer's.
    rates: [LinkConfig; 2],
    /// The link of every uplink no fault plan drives: up, at full rate.
    nominal: LinkControl,
    /// The member whose uplink a fault plan drives, and its link.
    faulted: Option<(usize, LinkControl)>,
    /// The faulted link's flap count when the engine last asked to be
    /// woken by it.
    flaps: u64,
    /// Transfers in flight by the instant their hold ends; one timer each.
    ends: BTreeMap<u64, Vec<Id>>,
    /// Members whose link was down, waiting for it to come up.
    down: Vec<Id>,
}

impl WireEngine {
    fn poll(&mut self, cx: &mut Context<'_>) -> Poll<()> {
        let tables = self.tables.clone();
        let uplinks = &mut tables.borrow_mut().uplinks;
        uplinks.engine.get_or_insert_with(waker);
        let t = now().as_nanos();
        loop {
            // Completions first: they are what a timer at this instant woke.
            while let Some(done) = self.ends.first_entry().filter(|e| *e.key() <= t) {
                for member in done.remove() {
                    self.end(uplinks, member as usize, t, cx);
                }
            }
            for member in std::mem::take(&mut self.down) {
                self.resume(uplinks, member as usize, t, cx);
            }
            // The engine never pushes, so the list holds still meanwhile.
            let mut kicked = std::mem::take(&mut uplinks.kicked);
            for &member in &kicked {
                let member = member as usize;
                uplinks.refill(member, t);
                if self.states[member] == WireState::Idle {
                    self.start(uplinks, member, t, cx);
                }
            }
            kicked.clear();
            uplinks.kicked = kicked;
            // A zero-length transfer a kick started ends in this poll, as a
            // `delay(0)` did.
            if self.ends.first_key_value().is_none_or(|(&at, _)| at > t) {
                return Poll::Pending;
            }
        }
    }

    fn link(&self, member: usize) -> &LinkControl {
        match &self.faulted {
            Some((faulted, link)) if *faulted == member => link,
            _ => &self.nominal,
        }
    }

    /// Waits for the link: the engine is woken when it comes up.
    fn stall(&mut self, member: usize, state: WireState) {
        self.states[member] = state;
        self.down.push(member as Id);
        let flaps = self.link(member).flaps();
        self.link(member).wake_when_up();
        self.flaps = flaps;
    }

    /// Puts the front copy on the wire, if there is one and the link is up.
    fn start(&mut self, uplinks: &Uplinks, member: usize, t: u64, cx: &mut Context<'_>) {
        let up = &uplinks.rows[member];
        let front = up.queue.front().filter(|_| up.handed > 0);
        let Some(bytes) = front.map(|it| it.slice.wire_bytes()) else {
            self.states[member] = WireState::Idle;
            return;
        };
        let link = self.link(member);
        if !link.is_up() {
            self.stall(member, WireState::DownAtStart);
            return;
        }
        let at = t + link
            .hold(&self.rates[usize::from(member != 0)], bytes)
            .as_nanos();
        self.states[member] = WireState::Busy;
        self.ends
            .entry(at)
            .or_insert_with(|| {
                arm(at, cx);
                Vec::new()
            })
            .push(member as Id);
    }

    /// The front copy's hold is over: with the link up, it leaves.
    fn end(&mut self, uplinks: &mut Uplinks, member: usize, t: u64, cx: &mut Context<'_>) {
        uplinks.refill(member, t);
        if !self.link(member).is_up() {
            self.stall(member, WireState::DownAtEnd);
            return;
        }
        self.send(uplinks, member, t, cx);
    }

    /// Pops the front copy, sends it unless the member is dead, refills and
    /// starts the next.
    fn send(&mut self, uplinks: &mut Uplinks, member: usize, t: u64, cx: &mut Context<'_>) {
        let up = &mut uplinks.rows[member];
        if up.handed > 0 {
            up.handed -= 1;
            let item = up.queue.pop_front().filter(|_| !up.dead);
            if let Some(UpItem { tag, slice }) = item {
                self.lanes.edge(tag, Msg::Slice(slice));
            }
        }
        uplinks.refill(member, t);
        self.start(uplinks, member, t, cx);
    }

    /// A member whose link was down. Untouched until the link wakes the
    /// engine, as its wire slept in the up-check; then it refills, and goes
    /// on if the link is still up — or asks again if it fell meanwhile.
    fn resume(&mut self, uplinks: &mut Uplinks, member: usize, t: u64, cx: &mut Context<'_>) {
        let link = self.link(member);
        let up = link.is_up();
        if !up && link.flaps() == self.flaps {
            self.down.push(member as Id);
            return;
        }
        uplinks.refill(member, t);
        if !up {
            self.stall(member, self.states[member]);
            return;
        }
        match self.states[member] {
            WireState::DownAtStart => self.start(uplinks, member, t, cx),
            WireState::DownAtEnd => self.send(uplinks, member, t, cx),
            WireState::Idle | WireState::Busy => {}
        }
    }
}

/// A viewer's heartbeat: what one beat needs beyond the tables. No task of
/// its own — one `ovl:beat` task beats every viewer in member order (see
/// [`build_overlay_broadcast`] for where it must run).
struct Beat {
    member: Id,
    adapt: AdaptMachine,
}

impl Beat {
    /// Sends the hub a `Hello` (liveness and resume points), then closes
    /// the uplink's P8 window. A dead member sends nothing: returns
    /// false, and it is never beaten again.
    fn beat(&mut self, tables: &mut Tables, lanes: &Lanes) -> bool {
        let member = self.member as usize;
        if tables.uplinks.rows[member].dead {
            return false;
        }
        let mut next = [0; MAX_TREES];
        let expected = tables.inboxes.receivers[member].next_expected();
        next[..expected.len()].copy_from_slice(expected);
        let hello = Hello {
            node: self.member,
            next,
        };
        lanes.hello(hello);
        let sample = tables.uplinks.take_window(member);
        if let Some(AdaptAction::SetDivisor(d)) = self.adapt.observe(&sample) {
            let relay = &mut tables.relays.rows[member];
            relay.divisor = d;
            relay.max_divisor = relay.max_divisor.max(d);
        }
        true
    }
}

/// `ovl:relay`, the one low-priority task that drives every viewer's
/// receive side: deliver, dedupe, and forward its interior stripe
/// (clawback ring, P8 divisor, P3 uplink queue). It drains a viewer in PRI
/// ALT order until its inbox is empty or a kept slice holds it for the
/// relay cost; holds form a FIFO, and at a hold's instant the task forwards
/// the slice and drains the viewer again. A zero relay cost forwards within
/// the drain. A dead viewer's messages are skipped as they are drained.
///
/// Why one task keeps every history: at an instant, the node tasks it
/// replaces ran in two blocks, after every other low task a timer woke at
/// that instant. First came the relay-cost completions, in arming order;
/// each forwarded, then drained what had arrived. Then came the viewers the
/// dispatcher woke, in wake order. Wake order is delivery order, and the
/// order of different ports within an instant only reorders independent
/// work: each port is one (viewer, guard); the high-priority dispatcher
/// lands all of an instant's deliveries before this low task drains;
/// [`Inboxes::take`] takes by guard; and members' rows are disjoint, so
/// draining one viewer touches no other's. The beat, the sweep, the source
/// and the crash scripts armed their timers in earlier instants, so they
/// ran first. This task arms its timer in the instant it takes the first
/// hold due at that time — where the first node armed its own — and drains
/// woken viewers after the holds. The argument does not cover another low task
/// arming a timer exactly one relay cost long in the same instant as a
/// hold: a node that armed after it ran after it, while this task runs
/// every hold first (the 4 ms rows of `RELAY_ORDER` pin the source's
/// case). Nor does it cover a relay cost longer than the heartbeat, which
/// puts the beat after the holds but ahead of the woken viewers.
struct RelayTask {
    tables: Shared,
    cost: SimDuration,
    /// `(instant, viewer, kept slice)` of every hold, in the order they
    /// were taken.
    holds: VecDeque<(u64, Id, Slice)>,
}

impl RelayTask {
    fn poll(&mut self, cx: &mut Context<'_>) -> Poll<()> {
        let tables = self.tables.clone();
        let tables = &mut *tables.borrow_mut();
        tables.inboxes.task.get_or_insert_with(waker);
        let t = now();
        while let Some((_, viewer, slice)) = self.holds.pop_front_if(|(at, ..)| *at <= t.as_nanos())
        {
            let viewer = viewer as usize;
            tables.inboxes.rows[viewer].held = false;
            tables.relays.forward(viewer, &slice, &mut tables.uplinks);
            self.drain(tables, viewer, t, cx);
        }
        loop {
            let Some(viewer) = tables.inboxes.woken.pop_front() else {
                return Poll::Pending;
            };
            let viewer = viewer as usize;
            tables.inboxes.rows[viewer].queued = false;
            self.drain(tables, viewer, t, cx);
        }
    }

    fn drain(&mut self, tables: &mut Tables, viewer: usize, t: SimTime, cx: &mut Context<'_>) {
        let Tables {
            uplinks,
            relays,
            inboxes,
        } = tables;
        while !inboxes.rows[viewer].held {
            let Some(msg) = inboxes.take(viewer) else {
                return;
            };
            if uplinks.rows[viewer].dead {
                continue;
            }
            match msg {
                Msg::Slice(slice) => {
                    let arrived = t.as_nanos();
                    if let Accept::Duplicate | Accept::Refused =
                        inboxes.receivers[viewer].accept(&slice, arrived)
                    {
                        continue;
                    }
                    if !relays.keep(viewer, &slice) {
                        continue;
                    }
                    if self.cost == SimDuration::ZERO {
                        relays.forward(viewer, &slice, uplinks);
                        continue;
                    }
                    let at = (t + self.cost).as_nanos();
                    if self.holds.back().is_none_or(|&(last, ..)| last != at) {
                        arm(at, cx);
                    }
                    self.holds.push_back((at, viewer as Id, slice));
                    inboxes.rows[viewer].held = true;
                }
                Msg::Graft {
                    tree,
                    orphan,
                    resume_from,
                } => relays.adopt(viewer, tree, orphan, resume_from, uplinks),
            }
        }
    }
}

/// The whole overlay's setup, in member order: the lanes' dispatcher, the
/// source and the repair hub, every viewer's scripted faults, then the
/// three tasks that serve every member and the finish report.
fn setup(env: &mut ShardEnv, cfg: OverlayConfig, plan: Rc<TreePlan>) {
    let (n, k) = (plan.members(), plan.trees());
    // A copy that waits longer than one stripe interval (its own
    // forwarding cadence) marks the uplink persistently backlogged;
    // shorter waits — a graft replay burst, say — are transient.
    let late_bound = cfg.segment_interval.as_nanos() * k as u64;
    let tables: Shared = Rc::new(RefCell::new(Tables {
        uplinks: Uplinks::new(n, cfg.uplink_queue, late_bound),
        relays: Relays::new(plan.clone(), cfg.ring),
        inboxes: Inboxes::new(n, k, cfg.playout.as_nanos()),
    }));
    // The dispatcher is spawned first, ahead of every member's task, at
    // high priority; the histories are recorded with it there. It files
    // each edge and graft message in its viewer's inbox under its tag's
    // guard, and every hello on one queue in delivery order — a `Hello`
    // names its own node, so the ear needs no per-port guard.
    let lanes = Rc::new(Lanes::new(cfg.hop_latency, cfg.ctl_latency));
    let inboxes = tables.clone();
    let (hello_tx, hello_rx) = unbounded::<Hello>();
    env.spawner().spawn_prio(
        "ovl:dispatch",
        Priority::High,
        dispatcher(
            lanes.clone(),
            move |tag, msg| {
                let (viewer, guard) = ((tag / GUARDS) as usize, (tag % GUARDS) as u8);
                inboxes.borrow_mut().inboxes.deliver(viewer, guard, msg);
            },
            // An unbounded queue never blocks; a dropped receiver just
            // discards the rest of the stream.
            move |hello| {
                let _ = hello_tx.try_send(hello);
            },
        ),
    );

    let engine = Rc::new(RefCell::new(RepairEngine::new(plan, cfg.lease)));
    let slab = ByteSlab::new(4, cfg.payload_bytes.max(64));

    // The source: one slab write per segment, then Arc clones of the
    // slice's cell count all the way down the trees. It is the root relay
    // of every tree, and never dies.
    let src = tables.clone();
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
            // Sizing the burst reads no byte, but the read stays counted:
            // the benchmark gates `emitted == segments` on `slabout=`.
            // ROADMAP item 24's step 2 removes the slab and this read.
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
            {
                let Tables {
                    uplinks, relays, ..
                } = &mut *src.borrow_mut();
                if relays.keep(0, &slice) {
                    relays.forward(0, &slice, uplinks);
                }
            }
            delay(cfg.segment_interval).await;
        }
    });

    // The hub's ears: every heartbeat renews a lease and refreshes the
    // member's graft resume points.
    let ear_engine = engine.clone();
    env.spawner().spawn("ovl:hub:hello", async move {
        while let Ok(hello) = hello_rx.recv().await {
            ear_engine
                .borrow_mut()
                .hello(hello.node as usize, &hello.next[..k]);
        }
    });

    // The hub's sweep: silent members walk their leases toward Dead;
    // each death's orphans are grafted — remotely via the control plane,
    // or locally when the source itself is the backup.
    let sweep_engine = engine.clone();
    let sweep_tables = tables.clone();
    let sweep_lanes = lanes.clone();
    env.spawner().spawn("ovl:hub:sweep", async move {
        // First sweep half a beat after the first hellos are due, so a
        // healthy member is never missed on startup jitter.
        delay(SimDuration::from_nanos(cfg.heartbeat.as_nanos() * 3 / 2)).await;
        loop {
            let grafts = sweep_engine.borrow_mut().sweep(now().as_nanos());
            for g in grafts {
                if g.backup == 0 {
                    let Tables {
                        uplinks, relays, ..
                    } = &mut *sweep_tables.borrow_mut();
                    relays.adopt(0, g.tree, g.orphan, g.resume_from, uplinks);
                } else {
                    let graft = Msg::Graft {
                        tree: g.tree,
                        orphan: g.orphan,
                        resume_from: g.resume_from,
                    };
                    sweep_lanes.graft(tag(g.backup, 0), graft);
                }
            }
            delay(cfg.heartbeat).await;
        }
    });

    // The viewers' scripted faults, in member order: a squeeze of one
    // uplink's link and one crash.
    let mut faulted = None;
    for member in 1..n {
        if let Some(cap) = cfg.uplink_cap.filter(|c| c.member == member) {
            let link = LinkControl::default();
            let mut targets = FaultTargets::new();
            targets.register_path("relay.up", PathControl::from_links(vec![link.clone()]));
            let plan = FaultPlan::scripted(Vec::new()).uplink_cap(
                "relay.up",
                cap.at,
                cap.hold,
                cap.permille,
            );
            faulted = Some((member, link, install(env.spawner(), &plan, &targets)));
        }
        if let Some(crash) = cfg.crash.filter(|c| c.member == member) {
            let crashed = tables.clone();
            env.spawner()
                .spawn(&format!("ovl:crash{member}"), async move {
                    delay(crash.at).await;
                    crashed.borrow_mut().uplinks.rows[member].dead = true;
                });
        }
    }

    // One task beats for every viewer, spawned after every member's
    // scripts — the place a heartbeat task per member had. Each of those
    // armed its timer in member order, at t = 0 and then at each beat, so
    // at every beat instant their polls already ran as one contiguous
    // block: behind the high-priority wires and the dispatcher, ahead of
    // every other low-priority task due then. Only timers armed at t = 0
    // came before the block: the crash and fault scripts, and any probe a
    // caller registers after this. (At the first beat a member's scripts
    // ran just ahead of its own heartbeat, not the whole block; they touch
    // only that member, so it is the same.) This task arms its first
    // timer after every one of those and re-arms at each beat, so it runs
    // in exactly that place. Spawned ahead of the members' scripts, it
    // would beat before a crash due on a beat instant, and the member
    // dying at the first beat would send one more hello. The relay task
    // and the wire engine arm no timer at t = 0.
    let mut beats: Vec<Beat> = (1..n)
        .map(|member| Beat {
            member: member as Id,
            adapt: AdaptMachine::new(MediaClass::Video),
        })
        .collect();
    let beat_tables = tables.clone();
    let beat_lanes = lanes.clone();
    env.spawner().spawn("ovl:beat", async move {
        while !beats.is_empty() {
            delay(cfg.heartbeat).await;
            let tables = &mut *beat_tables.borrow_mut();
            beats.retain_mut(|b| b.beat(tables, &beat_lanes));
        }
    });
    let mut relay = RelayTask {
        tables: tables.clone(),
        cost: cfg.relay_cost,
        holds: VecDeque::new(),
    };
    env.spawner()
        .spawn("ovl:relay", poll_fn(move |cx| relay.poll(cx)));
    let rate = |cps: u64| LinkConfig::new("ovl-up", cps.max(1) * CELL_WIRE_BITS);
    let mut wires = WireEngine {
        tables: tables.clone(),
        states: vec![WireState::Idle; n],
        lanes,
        rates: [rate(cfg.source_uplink_cps), rate(cfg.uplink_cps)],
        nominal: LinkControl::default(),
        faulted: faulted
            .as_ref()
            .map(|(member, link, _)| (*member, link.clone())),
        flaps: 0,
        ends: BTreeMap::new(),
        down: Vec::new(),
    };
    env.spawner().spawn_prio(
        "ovl:wires",
        Priority::High,
        poll_fn(move |cx| wires.poll(cx)),
    );

    env.on_finish(move || {
        let (t, e) = (tables.borrow(), engine.borrow());
        let member = |m: usize| {
            let up = &t.uplinks.rows[m];
            MemberRow {
                receiver: t.inboxes.receivers[m].clone(),
                relay: t.relays.rows[m],
                fwd: up.enqueued,
                p3: up.drops,
                crashed: up.dead,
            }
        };
        FinishTable {
            segments: cfg.segments,
            slabin: slab.copied_in_bytes(),
            slabout: slab.copied_out_bytes(),
            deaths: e.deaths(),
            grafts: e.grafts(),
            unrepairable: e.unrepairable(),
            hub_log: e.log().to_vec(),
            members: (0..n).map(member).collect(),
            fault: faulted.map(|(member, _, trace)| (member, trace.entries())),
        }
    });
}

/// The finish report as values, copied out of the run's tables at the
/// deadline. It is `Send`, so it holds no `Rc` into the run, whose tables
/// drop with the simulation; its lines are formatted only if it is read.
struct FinishTable {
    segments: u32,
    /// The bytes the source's slab copied in and out.
    slabin: u64,
    slabout: u64,
    /// The hub's counters and its repair history, a line per death or graft.
    deaths: u64,
    grafts: u64,
    unrepairable: u64,
    hub_log: Vec<String>,
    /// Indexed by member id: the source, then the viewers.
    members: Vec<MemberRow>,
    /// The uplink-capped member and its fault trace.
    fault: Option<(usize, Vec<TraceEntry>)>,
}

/// A member's receive state, relay row and uplink counters at the deadline.
struct MemberRow {
    receiver: StripeReceiver,
    relay: Relay,
    fwd: u64,
    p3: u64,
    crashed: bool,
}

impl Render for FinishTable {
    fn render(self: Box<Self>) -> Vec<String> {
        let (src, viewers) = self.members.split_first().expect("member 0 is the source");
        let mut lines = vec![format!(
            "node0000 src fwd={} p3={} slabin={} slabout={} srcgraft={}",
            src.fwd, src.p3, self.slabin, self.slabout, src.relay.grafts_in,
        )];
        lines.push(format!(
            "hub deaths={} grafts={} unrepairable={}",
            self.deaths, self.grafts, self.unrepairable,
        ));
        lines.extend(self.hub_log.iter().map(|line| format!("hub {line}")));
        for (member, v) in (1..).zip(viewers) {
            let (r, relay) = (&v.receiver, &v.relay);
            let buckets = r.hop_buckets().map(|b| b.to_string()).join(",");
            lines.push(format!(
                "node{member:04} recv={} dup={} gap={} lost={} late={} fwd={} p3={} p8={} \
                 graftin={} deg={} gapmax_us={} sgapmax_us={} hopmax_us={} crashed={} hopbkt={}",
                r.delivered(),
                r.dupes(),
                r.gap_skips(),
                r.lost(self.segments),
                r.late(),
                v.fwd,
                v.p3,
                relay.p8_skips,
                relay.grafts_in,
                relay.max_divisor,
                r.gap_max_nanos() / 1_000,
                r.stripe_gap_max_nanos() / 1_000,
                r.hop_max_nanos() / 1_000,
                u64::from(v.crashed),
                buckets,
            ));
            if let Some((_, trace)) = self.fault.as_ref().filter(|f| f.0 == member) {
                for e in trace {
                    let at = e.at.as_nanos();
                    lines.push(format!("node{member:04} fault t={at:012} {}", e.line));
                }
            }
        }
        lines
    }
}

/// Builds the overlay broadcast. `shards` is range-checked and has no
/// other effect: the fenced benchmark harness still passes 1 and 2, and
/// ROADMAP items 4-I and 10 delete the argument with `_sh2` and the
/// `shard.*` rows.
///
/// One setup builds every member's rows and spawns its tasks in member
/// order, and writes the finish report in that order too.
///
/// # Errors
///
/// [`BuildError::Trees`] past eight trees, [`BuildError::FaultTarget`]
/// when a scripted crash or uplink cap names a member that is not a
/// viewer, [`BuildError::Plan`] when the planner refuses the shape,
/// [`BuildError::Admission`] when a member's relay charge does not fit its
/// uplink budget — all before a port exists.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn build_overlay_broadcast(
    cfg: &OverlayConfig,
    shards: usize,
) -> Result<OverlayBuild, BuildError> {
    if cfg.trees > MAX_TREES {
        return Err(BuildError::Trees { trees: cfg.trees });
    }
    let fault_targets = [
        ("crash", cfg.crash.map(|c| c.member)),
        ("uplink_cap", cfg.uplink_cap.map(|c| c.member)),
    ];
    for (plan, member) in fault_targets {
        if let Some(member) = member.filter(|m| !(1..=cfg.viewers).contains(m)) {
            return Err(BuildError::FaultTarget { plan, member });
        }
    }
    let plan = Rc::new(plan_for(cfg).map_err(BuildError::Plan)?);
    let relay_tx_cps = charge_relay_admission(&plan, cfg)?;
    let mut cluster = Cluster::new(shards);
    let (cfg, setup_plan) = (*cfg, plan.clone());
    cluster.setup(0, move |env| setup(env, cfg, setup_plan));

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
    /// Bytes the source read out of its slab (one counted read a
    /// segment).
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
    use pandora_prop::{check, Rng, Tape};
    use pandora_sim::Simulation;

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

    fn run(cfg: &OverlayConfig) -> (Vec<String>, Rc<TreePlan>) {
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
        // One counted slab read per segment — relays added no payload
        // copies.
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
    fn more_trees_than_a_heartbeat_carries_are_refused() {
        let cfg = |trees| OverlayConfig {
            trees,
            degree: 8,
            source_uplink_cps: 1_000_000,
            ..small_cfg()
        };
        match build_overlay_broadcast(&cfg(MAX_TREES + 1), 1) {
            Err(BuildError::Trees { trees }) => assert_eq!(trees, MAX_TREES + 1),
            Err(e) => panic!("refused for another reason: {e}"),
            Ok(_) => panic!("{} trees were built", MAX_TREES + 1),
        }
        let (lines, _) = run(&cfg(MAX_TREES));
        assert_eq!(OverlaySummary::parse(&lines).lost_total, 0);
    }

    /// A member is a row in each table: every row type, and what a queued
    /// copy or letter costs, pinned at its measured size so that bytes per
    /// member cannot creep back unseen (DESIGN.md §15).
    #[test]
    fn a_members_rows_stay_small() {
        use std::mem::size_of;
        let rows = [
            ("Uplink", size_of::<Uplink>(), 80),
            ("Relay", size_of::<Relay>(), 24),
            ("Inbox", size_of::<Inbox>(), 12),
            ("StripeReceiver", size_of::<StripeReceiver>(), 224),
            ("Beat", size_of::<Beat>(), 88),
            ("WireState", size_of::<WireState>(), 1),
            ("UpItem", size_of::<UpItem>(), 40),
            ("Letter", size_of::<Letter>(), 48),
            ("MemberRow", size_of::<MemberRow>(), 272),
        ];
        for (row, size, pinned) in rows {
            assert!(size <= pinned, "{row}: {size} bytes, pinned at {pinned}");
        }
        // The plan of the soak shape: bytes per (tree, member), the CSR's
        // children included (16.25 measured).
        let plan = plan_for(&OverlayConfig {
            viewers: 1_023,
            degree: 8,
            uplink_cps: 60_000,
            source_uplink_cps: 120_000,
            ..OverlayConfig::default()
        })
        .expect("plan");
        let (bytes, rows) = (plan.heap_bytes(), plan.trees() * plan.members());
        assert!(
            bytes <= 20 * rows,
            "plan: {bytes} bytes for {rows} rows, pinned at 20 a row"
        );
    }

    /// The setup holds the build's plan, not a copy of it.
    #[test]
    fn a_built_overlay_holds_one_plan() {
        let built = build_overlay_broadcast(&small_cfg(), 1).expect("build");
        assert_eq!(
            Rc::strong_count(&built.plan),
            2,
            "the build's and the setup's"
        );
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
        let first_child = plan.children(0, 0)[0] as usize;
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
                (queue + usize::from(HANDOFF) + started) as u64,
                "member {victim}, queue {queue}"
            );
        }
    }

    /// `(relay_cost µs, hop_latency µs, ctl_latency µs, cap (‰, hold µs),
    /// crash ns, uplink_queue)` — [`busy_relay`] capped from the second
    /// beat and the last interior relay with children crashed — then the
    /// digest of the merged report and `(p3, grafts)`. Recorded while every
    /// viewer was a node task and every uplink a wire task: where the relay
    /// task drains against the dispatcher, the beat, a crash and the wire
    /// engine shows in all of it. The crashes land on a beat (20 and 30 ms),
    /// on an instant a slice reaches the victim (26.741666 ms at a 50 µs
    /// relay cost) and on the instant its 4 ms hold ends with a slice waiting
    /// (34.691666 ms). A 4 ms relay cost is the source's period: the source
    /// arms its timer in the instant each hold is taken.
    #[rustfmt::skip]
    #[allow(clippy::type_complexity)]
    const RELAY_ORDER: [((u64, u64, u64, Option<(u64, u64)>, Option<u64>, usize), &str, [u64; 2]); 14] = [
        ((0, 500, 200, None, None, 64), "d96af8e915b5496b", [0, 0]),
        ((50, 500, 200, None, None, 64), "1f9ed8740b74cb92", [0, 0]),
        ((4_000, 500, 200, None, None, 64), "2134f592d7158739", [0, 0]),
        ((50, 0, 200, None, Some(20_000_000), 64), "d72d59162bd9dfb2", [0, 3]),
        ((50, 500, 0, None, Some(20_000_000), 64), "ac2b2c7267abbd82", [0, 3]),
        ((50, 500, 6_000, None, Some(20_000_000), 64), "81901d5df2dea6de", [0, 3]),
        ((4_000, 500, 200, Some((50, 4_000)), Some(20_000_000), 64), "94492f01f69e6fcc", [0, 3]),
        ((4_000, 500, 200, Some((50, 10)), Some(20_000_000), 64), "72b78fb578be7284", [0, 3]),
        ((50, 500, 200, None, Some(30_000_000), 64), "d8b0818de9af3730", [0, 3]),
        ((50, 500, 200, None, Some(26_741_666), 64), "838758ca72cdf1cb", [0, 3]),
        ((4_000, 500, 200, None, Some(34_691_666), 64), "fc71b3dc9ae97f85", [0, 3]),
        ((50, 500, 200, Some((50, 80_000)), None, 2), "cf609081daaf6dd7", [144, 0]),
        ((0, 0, 0, Some((50, 80_000)), Some(30_000_000), 2), "b0668a24ead80311", [143, 3]),
        ((4_000, 0, 6_000, Some((50, 4_000)), Some(26_791_666), 2), "62a388feff1b30ae", [152, 3]),
    ];

    #[test]
    fn one_relay_task_keeps_the_order_of_a_node_task_per_viewer() {
        let plan = plan_for(&small_cfg()).expect("plan");
        let victim = (1..plan.members())
            .rev()
            .find(|&v| {
                plan.interior_tree(v)
                    .is_some_and(|t| !plan.children(t, v).is_empty())
            })
            .expect("no interior relay with children");
        let capped = busy_relay(&plan);
        let mut got = Vec::new();
        for (row, ..) in RELAY_ORDER {
            let (relay_us, hop_us, ctl_us, cap, crash_ns, queue) = row;
            let cfg = OverlayConfig {
                relay_cost: SimDuration::from_micros(relay_us),
                hop_latency: SimDuration::from_micros(hop_us),
                ctl_latency: SimDuration::from_micros(ctl_us),
                uplink_queue: queue,
                uplink_cap: cap.map(|(permille, hold_us)| UplinkCapPlan {
                    member: capped,
                    at: SimDuration::from_millis(20),
                    hold: SimDuration::from_micros(hold_us),
                    permille,
                }),
                crash: crash_ns.map(|at| CrashPlan {
                    member: victim,
                    at: SimDuration::from_nanos(at),
                }),
                ..small_cfg()
            };
            let (lines, _) = run(&cfg);
            let s = OverlaySummary::parse(&lines);
            got.push((row, digest(&lines), [s.p3_drops, s.hub_grafts]));
        }
        let want: Vec<_> = RELAY_ORDER.map(|(k, d, c)| (k, d.to_string(), c)).to_vec();
        assert_eq!(got, want);
    }

    /// The tables of a two-member chain on one tree, member 0 relaying to
    /// member 1, every queue and ring `queue` long.
    fn chain_tables(queue: usize) -> Shared {
        let plan = TreePlan::compute(
            &[1, 1],
            &PlanConfig {
                trees: 1,
                degree: 1,
                seed: 0,
                stripe_cps: 1,
            },
        )
        .expect("plan");
        Rc::new(RefCell::new(Tables {
            uplinks: Uplinks::new(2, queue, u64::MAX),
            relays: Relays::new(Rc::new(plan), queue),
            inboxes: Inboxes::new(2, 1, u64::MAX),
        }))
    }

    /// A slice on the one-tree stripe, its sequence number its place in
    /// the order the model takes it.
    fn probe_slice(seq: u32) -> Slice {
        Slice {
            tree: 0,
            seq,
            stamp: 0,
            sent: 0,
            burst: Arc::new(burst_gather(Vci(9), &[], &[0xAB; 96], seq * 2)),
        }
    }

    /// One viewer, interior on a one-tree stripe with one child, nine
    /// guards. A high-priority script delivers like the dispatcher; the
    /// relay task drains. The model: deliveries due at an instant land
    /// first; then, unless a hold is on, the oldest message of the lowest
    /// non-empty guard is taken, and held for the relay cost before it is
    /// forwarded. Each slice's seq is its place in the model's order, so a
    /// slice taken out of order is a duplicate and never forwarded: the
    /// uplink's queue must read `0, 1, 2, …`, each at its forward instant.
    #[test]
    fn relay_drain_matches_the_obvious_model_over_seeded_schedules() {
        const GUARDS: usize = 9;
        const MESSAGES: usize = 60;
        let case = |t: &mut Tape| {
            let cost = [0, 1, 3, 7][t.gen_range(0..4usize)];
            // (instant µs, guard), in delivery order; a third of them share
            // the previous delivery's instant.
            let mut at = 0;
            let schedule: Vec<(u64, usize)> = (0..MESSAGES)
                .map(|_| {
                    if t.gen_range(0..3u32) != 0 {
                        at += t.gen_range(0..6u64);
                    }
                    (at, t.gen_range(0..GUARDS))
                })
                .collect();
            (cost, schedule)
        };
        check("relay_drain_model", 1, 64, case, |&(cost, ref schedule)| {
            // The model: the take order of the messages, and when each is
            // forwarded.
            let mut guards: Vec<VecDeque<usize>> = vec![VecDeque::new(); GUARDS];
            let (mut taken, mut held_until, mut i) = (Vec::new(), None, 0);
            let mut instants: Vec<u64> = schedule.iter().map(|&(t, _)| t).collect();
            while let Some(t) = instants.first().copied() {
                instants.retain(|&u| u != t);
                while schedule.get(i).is_some_and(|&(u, _)| u == t) {
                    guards[schedule[i].1].push_back(i);
                    i += 1;
                }
                if held_until == Some(t) {
                    held_until = None;
                }
                while held_until.is_none() {
                    let Some(m) = guards.iter_mut().find_map(VecDeque::pop_front) else {
                        break;
                    };
                    taken.push((m, t + cost));
                    if cost > 0 {
                        held_until = Some(t + cost);
                        instants.push(t + cost);
                        instants.sort_unstable();
                    }
                }
            }
            assert_eq!(taken.len(), MESSAGES);
            let mut seq_of = vec![0u32; MESSAGES];
            for (place, &(m, _)) in taken.iter().enumerate() {
                seq_of[m] = place as u32;
            }
            let want: Vec<(u32, u64)> = taken
                .iter()
                .enumerate()
                .map(|(place, &(_, forwarded))| (place as u32, forwarded * 1_000))
                .collect();

            let schedule = schedule.clone();
            let mut sim = Simulation::new();
            let tables = chain_tables(MESSAGES);
            let mut relay = RelayTask {
                tables: tables.clone(),
                cost: SimDuration::from_micros(cost),
                holds: VecDeque::new(),
            };
            sim.spawn("ovl:relay", poll_fn(move |cx| relay.poll(cx)));
            let sink = tables.clone();
            sim.spawn_prio("script", Priority::High, async move {
                for (m, &(at, guard)) in schedule.iter().enumerate() {
                    delay_until(SimTime::from_micros(at)).await;
                    let msg = Msg::Slice(probe_slice(seq_of[m]));
                    sink.borrow_mut().inboxes.deliver(0, guard as u8, msg);
                }
            });
            sim.run_until_idle();
            let got: Vec<(u32, u64)> = tables.borrow().uplinks.rows[0]
                .queue
                .iter()
                .map(|it| (it.slice.seq, it.slice.sent))
                .collect();
            assert_eq!(got, want, "relay cost {cost} µs");
        });
    }

    /// The wire engine holds a copy through a downed link exactly as a
    /// wire task did: the script of `pandora-sim`'s
    /// `a_callers_queue_and_a_link_sender_deliver_at_the_same_instants`,
    /// six 1 ms copies with the link taken down mid-transfer of the second
    /// and brought back at a quarter rate, delivers at the instants that
    /// test pins for a wire.
    #[test]
    fn a_downed_uplink_holds_its_copy_as_a_wire_does() {
        let mut sim = Simulation::new();
        let lanes = Rc::new(Lanes::new(SimDuration::ZERO, SimDuration::ZERO));
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        let sink = move |_, msg| {
            if let Msg::Slice(slice) = msg {
                g.borrow_mut()
                    .push(format!("{} {}", slice.seq, now().as_micros()));
            }
        };
        let delivery = dispatcher(lanes.clone(), sink, |_| {});
        sim.spawn_prio("ovl:dispatch", Priority::High, delivery);
        let tables = chain_tables(8);
        let link = LinkControl::default();
        let rate = LinkConfig::new("ovl-up", probe_slice(0).wire_bytes() as u64 * 8 * 1_000);
        let mut wires = WireEngine {
            tables: tables.clone(),
            states: vec![WireState::Idle; 2],
            lanes,
            rates: [rate, rate],
            nominal: LinkControl::default(),
            faulted: Some((0, link.clone())),
            flaps: 0,
            ends: BTreeMap::new(),
            down: Vec::new(),
        };
        sim.spawn_prio(
            "ovl:wires",
            Priority::High,
            poll_fn(move |cx| wires.poll(cx)),
        );
        sim.spawn("script", async move {
            for seq in 0..6 {
                tables.borrow_mut().uplinks.push(0, 0, probe_slice(seq));
            }
            delay_until(SimTime::from_micros(1_500)).await;
            link.set_up(false);
            delay_until(SimTime::from_millis(5)).await;
            link.set_up(true);
            link.set_rate_permille(250);
        });
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(
            *got.borrow(),
            ["0 1000", "1 5000", "2 9000", "3 13000", "4 17000"]
        );
    }

    /// The order of different ports within an instant only reorders
    /// independent work (the `lanes` module's argument). With each
    /// instant's values delivered in reverse port order, each port's own in
    /// send order, two shapes print the same report at eight plan seeds:
    /// a relay two levels down crashing with every latency zero, so a copy
    /// and a graft land in the instant they are sent, and an uplink cap on
    /// [`busy_relay`] that drives P3 and P8.
    #[test]
    fn an_instants_port_order_changes_no_report() {
        for seed in 0..8 {
            let base = OverlayConfig {
                seed,
                ..small_cfg()
            };
            let plan = plan_for(&base).expect("plan");
            let deep = (1..plan.members())
                .find(|&v| {
                    plan.interior_tree(v).is_some_and(|t| {
                        !plan.children(t, v).is_empty() && plan.parent(t, v) != Some(0)
                    })
                })
                .expect("no interior relay below the first level");
            let crash = OverlayConfig {
                crash: Some(CrashPlan {
                    member: deep,
                    at: SimDuration::from_millis(60),
                }),
                hop_latency: SimDuration::ZERO,
                ctl_latency: SimDuration::ZERO,
                ..base
            };
            let cap = OverlayConfig {
                uplink_queue: 4,
                uplink_cap: Some(UplinkCapPlan {
                    member: busy_relay(&plan),
                    at: SimDuration::from_millis(30),
                    hold: SimDuration::from_millis(80),
                    permille: 40,
                }),
                ..base
            };
            for (shape, cfg) in [("crash", crash), ("cap", cap)] {
                let (lines, _) = run(&cfg);
                let s = OverlaySummary::parse(&lines);
                match shape {
                    "crash" => assert!(s.hub_grafts > 0, "seed {seed}: no graft"),
                    _ => assert!(s.p3_drops + s.p8_skips > 0, "seed {seed}: no squeeze"),
                }
                crate::lanes::tests::REVERSED.set(true);
                let (reversed, _) = run(&cfg);
                crate::lanes::tests::REVERSED.set(false);
                assert_eq!(lines, reversed, "seed {seed}, {shape}");
            }
        }
    }

    /// ROADMAP item 1(b), headroom violated: a viewer's uplink affords its
    /// own `degree` copies (admission passes) but not twice that, and an
    /// interior relay two levels down dies, so its backup — a viewer —
    /// must carry its adoptees on top of its own children. Item 11's bar:
    /// such a case reads `unrepairable > 0`. Today it reads 0: the backup
    /// adopts every orphan, its uplink backs up, and the failure message
    /// records what each orphan and the backup got.
    #[test]
    #[ignore = "ROADMAP item 11: a backup without repair headroom still adopts"]
    fn a_backup_without_headroom_is_counted_unrepairable() {
        let cfg = OverlayConfig {
            uplink_cps: 2_000,
            segments: 100,
            ..small_cfg()
        };
        let copy = stripe_cps(&cfg);
        assert!(cfg.degree as u64 * copy <= cfg.uplink_cps);
        assert!(cfg.uplink_cps < 2 * cfg.degree as u64 * copy);
        let plan = plan_for(&cfg).expect("plan");
        let (victim, tree) = (1..plan.members())
            .find_map(|v| {
                let t = plan.interior_tree(v)?;
                let deep = !plan.children(t, v).is_empty() && plan.parent(t, v) != Some(0);
                deep.then_some((v, t))
            })
            .expect("no interior relay below the first level");
        let backup = plan.parent(tree, victim).expect("a parent");
        let cfg = OverlayConfig {
            crash: Some(CrashPlan {
                member: victim,
                at: SimDuration::from_millis(60),
            }),
            ..cfg
        };
        let (lines, _) = run(&cfg);
        let own = |m: usize| {
            let name = format!("node{m:04} recv=");
            let line: Vec<String> = lines
                .iter()
                .filter(|l| l.starts_with(&name))
                .cloned()
                .collect();
            OverlaySummary::parse(&line)
        };
        let orphans: Vec<String> = plan
            .children(tree, victim)
            .iter()
            .map(|&o| {
                let s = own(o as usize);
                format!(
                    "{o}: delivered {} lost {} late {}",
                    s.delivered, s.lost_total, s.late_total
                )
            })
            .collect();
        let b = own(backup);
        let s = OverlaySummary::parse(&lines);
        assert!(
            s.hub_unrepairable > 0,
            "victim {victim} (tree {tree}), stripe copy {copy} cells/s, uplink {} cells/s; \
             orphans [{}]; backup {backup}: p3 {} max divisor {}; unrepairable {}; \
             survivors lost {} late {}",
            cfg.uplink_cps,
            orphans.join(", "),
            b.p3_drops,
            b.max_divisor,
            s.hub_unrepairable,
            s.lost_alive,
            s.late_alive,
        );
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
