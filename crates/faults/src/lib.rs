//! # pandora-faults — deterministic fault injection
//!
//! The paper's principles (P1–P8, §2) are promises about behaviour *under
//! error and overload*: where loss lands when links drop cells, consumers
//! stall and boxes crash. This crate turns those adversities into
//! first-class, replayable inputs:
//!
//! * a [`FaultPlan`] declares *what* goes wrong and *when* — scripted
//!   event by event, or generated from a seed by [`FaultPlan::random`];
//! * [`FaultTargets`] names the injection points a topology exposes:
//!   [`PathControl`]s from `pandora_atm::build_path_controlled` and
//!   [`Cpu`]s — plus task-name prefixes for pause/resume, which need no
//!   registration;
//! * [`install`] spawns a driver task that actuates each event at its
//!   virtual time and logs every application and reversion into a
//!   [`FaultTrace`].
//!
//! Determinism guarantee: the same plan against the same topology yields a
//! byte-identical [`FaultTrace::to_text`] and an identical simulation
//! schedule, because every random choice comes from seeded generators and
//! actuation happens at virtual-time instants inside the single-threaded
//! executor. A run's injected faults are therefore part of its
//! reproducible output, exactly like its metrics.

// A catch-all arm over `FaultKind` would let a new fault silently no-op
// in replays: every match over this crate's enums names each variant.
#![deny(clippy::wildcard_enum_match_arm)]

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pandora_atm::PathControl;
use pandora_sim::{Cpu, Priority, SimDuration, SimTime, Spawner};

/// One kind of injectable fault. Targets are referred to by the names they
/// were registered under in [`FaultTargets`] (or, for [`PauseTasks`],
/// by task-name prefix).
///
/// [`PauseTasks`]: FaultKind::PauseTasks
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Superimposed Bernoulli cell loss on a path's egress.
    CellLossBurst {
        /// Registered path name.
        path: String,
        /// Per-cell drop probability while active.
        prob: f64,
    },
    /// Per-cell payload corruption on a path's egress (one byte XORed, so
    /// frames fail to decode downstream instead of vanishing).
    CellCorruption {
        /// Registered path name.
        path: String,
        /// Per-cell corruption probability while active.
        prob: f64,
    },
    /// A constant extra delay on a path — the §3.7.2 jitter step. Applying
    /// it opens a gap; reverting it drains a burst.
    LatencyStep {
        /// Registered path name.
        path: String,
        /// Extra delay while active.
        extra: SimDuration,
    },
    /// Takes one hop link of a path down (a link flap when paired with a
    /// duration).
    LinkDown {
        /// Registered path name.
        path: String,
        /// Hop index within the path.
        hop: usize,
    },
    /// Collapses one hop link's bandwidth to `permille`/1000 of nominal.
    BandwidthCollapse {
        /// Registered path name.
        path: String,
        /// Hop index within the path.
        hop: usize,
        /// Remaining bandwidth in permille of nominal (1000 = unchanged).
        permille: u64,
    },
    /// Pauses every task whose name starts with `prefix` — a stalled
    /// consumer, or a whole crashed box (box task names share the box
    /// name as a prefix). Reverting resumes them and replays any wake-ups
    /// that arrived while paused.
    PauseTasks {
        /// Task-name prefix to pause.
        prefix: String,
    },
    /// Crashes a whole Pandora's Box: pauses every one of the box's task
    /// families (switch, boards, handlers — see [`box_task_prefixes`]).
    /// Reverting (or a later [`BoxRestart`]) resumes them, replaying the
    /// wake-ups that arrived while down — the box restarts with its
    /// pre-crash state, so recovery must clean stale state up explicitly.
    ///
    /// Prefix caveat: like [`PauseTasks`], matching is by name prefix, so
    /// a box name that prefixes another (`node1` / `node10`) would also
    /// crash the longer-named box's bare-prefix families. Use distinct
    /// non-prefix names for crash targets.
    ///
    /// [`BoxRestart`]: FaultKind::BoxRestart
    /// [`PauseTasks`]: FaultKind::PauseTasks
    BoxCrash {
        /// The box's configured name (e.g. `node3`).
        name: String,
    },
    /// Restarts a box crashed by a permanent [`BoxCrash`]: resumes all of
    /// its task families. Reverting is a no-op (a restart is
    /// instantaneous).
    ///
    /// [`BoxCrash`]: FaultKind::BoxCrash
    BoxRestart {
        /// The box's configured name.
        name: String,
    },
    /// Rogue CPU load: `claimants` tasks each claim the CPU for `cost` in
    /// a tight loop at normal priority, saturating it until the event's
    /// duration elapses (P1's adversary: competing work that must not
    /// starve the output processes).
    CpuLoad {
        /// Registered CPU name.
        cpu: String,
        /// Number of competing claimant tasks.
        claimants: usize,
        /// CPU time per claim.
        cost: SimDuration,
    },
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::CellLossBurst { path, prob } => {
                write!(f, "cell-loss path={path} prob={prob:.4}")
            }
            FaultKind::CellCorruption { path, prob } => {
                write!(f, "cell-corruption path={path} prob={prob:.4}")
            }
            FaultKind::LatencyStep { path, extra } => {
                write!(f, "latency-step path={path} extra={extra}")
            }
            FaultKind::LinkDown { path, hop } => write!(f, "link-down path={path} hop={hop}"),
            FaultKind::BandwidthCollapse {
                path,
                hop,
                permille,
            } => write!(
                f,
                "bandwidth-collapse path={path} hop={hop} permille={permille}"
            ),
            FaultKind::PauseTasks { prefix } => write!(f, "pause-tasks prefix={prefix}"),
            FaultKind::BoxCrash { name } => write!(f, "box-crash name={name}"),
            FaultKind::BoxRestart { name } => write!(f, "box-restart name={name}"),
            FaultKind::CpuLoad {
                cpu,
                claimants,
                cost,
            } => write!(f, "cpu-load cpu={cpu} claimants={claimants} cost={cost}"),
        }
    }
}

/// One scheduled fault: what happens, when, and for how long.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault is applied, measured from [`install`] time.
    pub at: SimDuration,
    /// How long it stays applied; `None` means it is never reverted.
    pub duration: Option<SimDuration>,
    /// The fault itself.
    pub kind: FaultKind,
}

/// A declarative schedule of faults. Build one event by event with
/// [`FaultPlan::scripted`]/[`FaultPlan::event`], or derive a whole
/// adversarial schedule from a seed with [`FaultPlan::random`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The seed the plan was generated from (0 for scripted plans);
    /// recorded in the trace header so a run names its adversary.
    pub seed: u64,
    /// The scheduled faults. Order does not matter; [`install`] sorts by
    /// time (stable, so same-instant events keep declaration order).
    pub events: Vec<FaultEvent>,
}

/// Knobs for [`FaultPlan::random`]: the target names the generated plan
/// may aim at, the time horizon, and intensity bounds.
#[derive(Debug, Clone)]
pub struct RandomProfile {
    /// Run length the plan must fit inside. Events start after 10% of the
    /// horizon and every reverting fault ends by 90%, leaving a clean
    /// tail for recovery assertions.
    pub horizon: SimDuration,
    /// Number of events to generate.
    pub events: usize,
    /// Path names eligible for loss/corruption/latency/link faults.
    pub paths: Vec<String>,
    /// Task-name prefixes eligible for pause/resume faults.
    pub pause_prefixes: Vec<String>,
    /// CPU names eligible for rogue-load faults.
    pub cpus: Vec<String>,
    /// Upper bound on injected cell-loss probability.
    pub max_loss: f64,
    /// Upper bound on injected corruption probability.
    pub max_corruption: f64,
    /// Upper bound on an injected latency step.
    pub max_extra_delay: SimDuration,
}

impl RandomProfile {
    /// A profile over `horizon` with `events` events and default
    /// intensity bounds; fill in the target name lists before use.
    pub fn new(horizon: SimDuration, events: usize) -> Self {
        RandomProfile {
            horizon,
            events,
            paths: Vec::new(),
            pause_prefixes: Vec::new(),
            cpus: Vec::new(),
            max_loss: 0.3,
            max_corruption: 0.2,
            max_extra_delay: SimDuration::from_millis(20),
        }
    }
}

impl FaultPlan {
    /// A plan from an explicit event list (seed recorded as 0).
    pub fn scripted(events: Vec<FaultEvent>) -> Self {
        FaultPlan { seed: 0, events }
    }

    /// Appends one event, builder style.
    pub fn event(
        mut self,
        at: SimDuration,
        duration: Option<SimDuration>,
        kind: FaultKind,
    ) -> Self {
        self.events.push(FaultEvent { at, duration, kind });
        self
    }

    /// Generates a seeded adversarial schedule over the targets named in
    /// `profile`. The same seed and profile always produce the same plan.
    ///
    /// # Panics
    ///
    /// Panics if the profile names no targets at all.
    pub fn random(seed: u64, profile: &RandomProfile) -> Self {
        // One menu entry per (target, fault shape); choices index into it.
        enum Menu<'a> {
            Loss(&'a str),
            Corrupt(&'a str),
            Latency(&'a str),
            LinkDown(&'a str),
            Bandwidth(&'a str),
            Pause(&'a str),
            Load(&'a str),
        }
        let mut menu: Vec<Menu> = Vec::new();
        for p in &profile.paths {
            menu.push(Menu::Loss(p));
            menu.push(Menu::Corrupt(p));
            menu.push(Menu::Latency(p));
            menu.push(Menu::LinkDown(p));
            menu.push(Menu::Bandwidth(p));
        }
        for p in &profile.pause_prefixes {
            menu.push(Menu::Pause(p));
        }
        for c in &profile.cpus {
            menu.push(Menu::Load(c));
        }
        assert!(!menu.is_empty(), "random plan needs at least one target");

        let mut rng = SmallRng::seed_from_u64(seed);
        let h = profile.horizon.as_nanos();
        // Uniform f64 in [0, 1) from the integer API the shim provides.
        let unit = |rng: &mut SmallRng| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let mut events = Vec::with_capacity(profile.events);
        for _ in 0..profile.events {
            let at = rng.gen_range(h / 10..=h * 6 / 10);
            let max_dur = (h * 9 / 10).saturating_sub(at).max(1);
            let dur = rng.gen_range((h / 100).min(max_dur)..=(h / 5).min(max_dur).max(1));
            let (kind, duration) = match menu[rng.gen_range(0..menu.len())] {
                Menu::Loss(p) => (
                    FaultKind::CellLossBurst {
                        path: p.to_string(),
                        prob: 0.02 + unit(&mut rng) * (profile.max_loss - 0.02).max(0.0),
                    },
                    Some(SimDuration(dur)),
                ),
                Menu::Corrupt(p) => (
                    FaultKind::CellCorruption {
                        path: p.to_string(),
                        prob: 0.02 + unit(&mut rng) * (profile.max_corruption - 0.02).max(0.0),
                    },
                    Some(SimDuration(dur)),
                ),
                Menu::Latency(p) => (
                    FaultKind::LatencyStep {
                        path: p.to_string(),
                        extra: SimDuration(rng.gen_range(
                            1_000_000..=profile.max_extra_delay.as_nanos().max(1_000_001),
                        )),
                    },
                    Some(SimDuration(dur)),
                ),
                Menu::LinkDown(p) => (
                    FaultKind::LinkDown {
                        path: p.to_string(),
                        hop: 0,
                    },
                    // Keep outages short: a long dead link just starves
                    // the run of data.
                    Some(SimDuration(dur.min(h / 20).max(1))),
                ),
                Menu::Bandwidth(p) => (
                    FaultKind::BandwidthCollapse {
                        path: p.to_string(),
                        hop: 0,
                        permille: rng.gen_range(100..=600),
                    },
                    Some(SimDuration(dur)),
                ),
                Menu::Pause(p) => (
                    FaultKind::PauseTasks {
                        prefix: p.to_string(),
                    },
                    Some(SimDuration(dur.min(h / 20).max(1))),
                ),
                Menu::Load(c) => (
                    FaultKind::CpuLoad {
                        cpu: c.to_string(),
                        claimants: rng.gen_range(2..=5u32) as usize,
                        cost: SimDuration(rng.gen_range(200_000..=1_500_000)),
                    },
                    Some(SimDuration(dur)),
                ),
            };
            events.push(FaultEvent {
                at: SimDuration(at),
                duration,
                kind,
            });
        }
        FaultPlan { seed, events }
    }

    /// Appends an uplink capacity cap: the first hop of path `name`
    /// (an overlay relay's uplink registers itself as a one-hop path)
    /// drops to `permille`/1000 of nominal bandwidth at `at` and reverts
    /// automatically `for_` later. The squeeze-and-release shape that
    /// drives the P3 (drop-oldest under backlog) and P8 (locally degrade,
    /// then recover) machinery on the capped member.
    pub fn uplink_cap(self, name: &str, at: SimDuration, for_: SimDuration, permille: u64) -> Self {
        self.event(
            at,
            Some(for_),
            FaultKind::BandwidthCollapse {
                path: name.to_string(),
                hop: 0,
                permille,
            },
        )
    }

    /// Appends a crash of box `name` at `crash_at` and its restart
    /// `down_for` later — the standard crash/recover scenario the
    /// conformance suite replays. The crash is permanent (no auto-revert)
    /// so the downtime is owned entirely by the paired
    /// [`FaultKind::BoxRestart`]; both land in the [`FaultTrace`] as
    /// ordinary apply lines, replayable byte-identically.
    pub fn crash_restart(self, name: &str, crash_at: SimDuration, down_for: SimDuration) -> Self {
        self.event(
            crash_at,
            None,
            FaultKind::BoxCrash {
                name: name.to_string(),
            },
        )
        .event(
            crash_at + down_for,
            None,
            FaultKind::BoxRestart {
                name: name.to_string(),
            },
        )
    }

    /// Canonical plain-text rendering of the plan, one event per line;
    /// byte-identical for equal plans.
    pub fn to_text(&self) -> String {
        let mut out = format!("plan seed={} events={}\n", self.seed, self.events.len());
        for ev in &self.events {
            match ev.duration {
                Some(d) => out.push_str(&format!(
                    "  at={:012} dur={:012} {}\n",
                    ev.at.as_nanos(),
                    d.as_nanos(),
                    ev.kind
                )),
                None => out.push_str(&format!(
                    "  at={:012} dur=permanent {}\n",
                    ev.at.as_nanos(),
                    ev.kind
                )),
            }
        }
        out
    }
}

/// The task-name prefixes that together cover one Pandora's Box — its
/// board tasks are spread over several naming families (`{name}:…`
/// handlers and agents, `switch:{name}`, `audio:{name}:…`,
/// `net-in:{name}` / `net-out:{name}`, and the video board tasks), so a
/// box crash must pause all of them. The box's fabric attachment is
/// deliberately *not* covered: a crashed box leaves the wire up, and
/// cells aimed at it queue or drop at the edge (Principle 5).
///
/// Matching is by prefix — crash targets must not be name-prefixes of
/// other boxes (see [`FaultKind::BoxCrash`]).
pub fn box_task_prefixes(name: &str) -> Vec<String> {
    vec![
        format!("{name}:"),
        format!("switch:{name}"),
        format!("audio:{name}:"),
        format!("net-in:{name}"),
        format!("net-out:{name}"),
        format!("camera:{name}"),
        format!("video-capture:{name}:"),
        format!("video-display:{name}"),
    ]
}

/// The injection points a topology exposes to a plan, by name.
///
/// Cloning shares the registry (handles are all reference-counted).
#[derive(Clone, Default)]
pub struct FaultTargets {
    paths: Vec<(String, PathControl)>,
    cpus: Vec<(String, Cpu)>,
}

impl FaultTargets {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a path control under `name`.
    pub fn register_path(&mut self, name: &str, ctrl: PathControl) {
        self.paths.push((name.to_string(), ctrl));
    }

    /// Registers a CPU under `name`.
    pub fn register_cpu(&mut self, name: &str, cpu: Cpu) {
        self.cpus.push((name.to_string(), cpu));
    }

    fn path(&self, name: &str) -> Option<&PathControl> {
        self.paths.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    fn cpu(&self, name: &str) -> Option<&Cpu> {
        self.cpus.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }
}

/// One line of a [`FaultTrace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Virtual time of the action.
    pub at: SimTime,
    /// What happened, in the canonical `apply`/`revert`/`skip` wording.
    pub line: String,
}

/// The replayable record of everything a plan actually did: one entry per
/// application, reversion or skipped (unresolvable) event, in execution
/// order. Equal seeds and topologies yield byte-identical
/// [`FaultTrace::to_text`] output — asserted by the conformance suite.
#[derive(Clone, Default)]
pub struct FaultTrace {
    entries: Rc<RefCell<Vec<TraceEntry>>>,
}

impl FaultTrace {
    fn log(&self, at: SimTime, line: String) {
        self.entries.borrow_mut().push(TraceEntry { at, line });
    }

    /// Snapshot of the entries so far, in execution order.
    pub fn entries(&self) -> Vec<TraceEntry> {
        self.entries.borrow().clone()
    }

    /// Number of entries so far.
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// Whether nothing has been logged yet.
    pub fn is_empty(&self) -> bool {
        self.entries.borrow().is_empty()
    }

    /// Canonical plain-text rendering: `t=<nanos> <line>` per entry.
    /// Byte-identical across runs with the same plan and topology.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for e in self.entries.borrow().iter() {
            out.push_str(&format!("t={:012} {}\n", e.at.as_nanos(), e.line));
        }
        out
    }
}

fn actuate(
    targets: &FaultTargets,
    kind: &FaultKind,
    revert: bool,
    duration: Option<SimDuration>,
) -> Result<String, String> {
    let phase = if revert { "revert" } else { "apply" };
    match kind {
        FaultKind::CellLossBurst { path, prob } => {
            let Some(c) = targets.path(path) else {
                return Err(format!("unknown path {path}"));
            };
            c.set_loss(if revert { 0.0 } else { *prob });
        }
        FaultKind::CellCorruption { path, prob } => {
            let Some(c) = targets.path(path) else {
                return Err(format!("unknown path {path}"));
            };
            c.set_corruption(if revert { 0.0 } else { *prob });
        }
        FaultKind::LatencyStep { path, extra } => {
            let Some(c) = targets.path(path) else {
                return Err(format!("unknown path {path}"));
            };
            c.set_extra_delay(if revert { SimDuration::ZERO } else { *extra });
        }
        FaultKind::LinkDown { path, hop } => {
            let Some(l) = targets.path(path).and_then(|c| c.link(*hop).cloned()) else {
                return Err(format!("unknown link {path}.{hop}"));
            };
            l.set_up(revert);
        }
        FaultKind::BandwidthCollapse {
            path,
            hop,
            permille,
        } => {
            let Some(l) = targets.path(path).and_then(|c| c.link(*hop).cloned()) else {
                return Err(format!("unknown link {path}.{hop}"));
            };
            l.set_rate_permille(if revert { 1000 } else { *permille });
        }
        FaultKind::PauseTasks { prefix } => {
            let n = if revert {
                pandora_sim::resume_matching(prefix)
            } else {
                pandora_sim::pause_matching(prefix)
            };
            return Ok(format!("{phase} {kind} tasks={n}"));
        }
        FaultKind::BoxCrash { name } => {
            let mut n = 0;
            for prefix in box_task_prefixes(name) {
                n += if revert {
                    pandora_sim::resume_matching(&prefix)
                } else {
                    pandora_sim::pause_matching(&prefix)
                };
            }
            return Ok(format!("{phase} {kind} tasks={n}"));
        }
        FaultKind::BoxRestart { name } => {
            if revert {
                return Ok(format!("{phase} {kind}"));
            }
            let mut n = 0;
            for prefix in box_task_prefixes(name) {
                n += pandora_sim::resume_matching(&prefix);
            }
            return Ok(format!("{phase} {kind} tasks={n}"));
        }
        FaultKind::CpuLoad {
            cpu,
            claimants,
            cost,
        } => {
            if revert {
                // The claimant tasks watch the end time themselves.
                return Ok(format!("{phase} {kind}"));
            }
            let Some(c) = targets.cpu(cpu) else {
                return Err(format!("unknown cpu {cpu}"));
            };
            let end = duration.map(|d| pandora_sim::now() + d);
            for k in 0..*claimants {
                let cpu = c.clone();
                let cost = *cost;
                pandora_sim::spawn(
                    &format!("faults:hog:{}:{k}", cpu.name().to_owned()),
                    async move {
                        loop {
                            if let Some(e) = end {
                                if pandora_sim::now() >= e {
                                    return;
                                }
                            }
                            cpu.claim(cost).await;
                        }
                    },
                );
            }
        }
    }
    Ok(format!("{phase} {kind}"))
}

/// Installs `plan` into a running topology: spawns a high-priority driver
/// task (`faults:driver`) that applies each event at its virtual time and
/// reverts it when its duration elapses, logging everything into the
/// returned [`FaultTrace`].
///
/// Events naming unregistered targets are logged as `skip` lines rather
/// than failing the run, so a generic plan can be replayed against a
/// topology that only exposes some of its targets.
pub fn install(spawner: &Spawner, plan: &FaultPlan, targets: &FaultTargets) -> FaultTrace {
    let header = format!("install seed={} events={}", plan.seed, plan.events.len());
    let trace = FaultTrace::default();
    let mut events: Vec<FaultEvent> = plan.events.clone();
    events.sort_by_key(|e| e.at); // Stable: same-instant keeps plan order.
    let tr = trace.clone();
    let targets = targets.clone();
    spawner.spawn_prio("faults:driver", Priority::High, async move {
        let start = pandora_sim::now();
        tr.log(start, header);
        for (idx, ev) in events.into_iter().enumerate() {
            pandora_sim::delay_until(start + ev.at).await;
            match actuate(&targets, &ev.kind, false, ev.duration) {
                Ok(line) => {
                    tr.log(pandora_sim::now(), line);
                    if let Some(d) = ev.duration {
                        let revert_at = start + ev.at + d;
                        let tr2 = tr.clone();
                        let tg2 = targets.clone();
                        let kind = ev.kind.clone();
                        pandora_sim::spawn_prio(
                            &format!("faults:revert:{idx}"),
                            Priority::High,
                            async move {
                                pandora_sim::delay_until(revert_at).await;
                                let line = match actuate(&tg2, &kind, true, None) {
                                    Ok(line) => line,
                                    Err(why) => format!("skip revert {kind}: {why}"),
                                };
                                tr2.log(pandora_sim::now(), line);
                            },
                        );
                    }
                }
                Err(why) => tr.log(pandora_sim::now(), format!("skip {}: {why}", ev.kind)),
            }
        }
    });
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_atm::{build_path_controlled, Cell, HopConfig, Vci};
    use pandora_sim::{SimTime, Simulation};
    use std::cell::Cell as StdCell;

    fn plan_profile() -> RandomProfile {
        let mut p = RandomProfile::new(SimDuration::from_secs(20), 8);
        p.paths = vec!["a-b".into(), "b-a".into()];
        p.pause_prefixes = vec!["b:mixer".into()];
        p.cpus = vec!["audio".into()];
        p
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let p = plan_profile();
        let a = FaultPlan::random(42, &p);
        let b = FaultPlan::random(42, &p);
        assert_eq!(a, b);
        assert_eq!(a.to_text(), b.to_text());
        let c = FaultPlan::random(43, &p);
        assert_ne!(a.to_text(), c.to_text(), "different seeds must differ");
        // All events fit the horizon with a recovery tail.
        let h = p.horizon.as_nanos();
        for ev in &a.events {
            let end = ev.at.as_nanos() + ev.duration.map_or(0, |d| d.as_nanos());
            assert!(end <= h * 9 / 10, "event overruns horizon: {}", ev.kind);
        }
    }

    #[test]
    fn uplink_cap_applies_and_auto_reverts() {
        fn run() -> String {
            let mut sim = Simulation::new();
            let mut targets = FaultTargets::new();
            let lc = pandora_sim::LinkControl::default();
            targets.register_path("node7.up", PathControl::from_links(vec![lc]));
            let plan = FaultPlan::scripted(Vec::new()).uplink_cap(
                "node7.up",
                SimDuration::from_millis(5),
                SimDuration::from_millis(10),
                250,
            );
            let trace = install(&sim.spawner(), &plan, &targets);
            sim.run_until(SimTime::from_millis(30));
            trace.to_text()
        }
        let text = run();
        assert!(
            text.contains("apply bandwidth-collapse path=node7.up hop=0 permille=250"),
            "{text}"
        );
        assert!(
            text.contains("revert bandwidth-collapse path=node7.up"),
            "{text}"
        );
        assert_eq!(text, run(), "cap schedule must replay byte-identically");
    }

    fn loss_burst_run(seed: u64) -> (String, u64) {
        let mut sim = Simulation::new();
        let (tx, rx, _stats, ctrl) =
            build_path_controlled(&sim.spawner(), "a-b", &[HopConfig::clean(1_000_000_000)], 7);
        let mut targets = FaultTargets::new();
        targets.register_path("a-b", ctrl);
        let plan = FaultPlan::default().event(
            SimDuration::from_millis(100),
            Some(SimDuration::from_millis(200)),
            FaultKind::CellLossBurst {
                path: "a-b".into(),
                prob: 0.5,
            },
        );
        let trace = install(&sim.spawner(), &plan, &targets);
        let _ = seed; // Topology seed is fixed; the plan is the variable.
        sim.spawn("send", async move {
            for i in 0..500 {
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
        sim.run_until(SimTime::from_secs(1));
        (trace.to_text(), n.get())
    }

    #[test]
    fn scripted_burst_applies_and_reverts_deterministically() {
        let (trace_a, delivered_a) = loss_burst_run(0);
        let (trace_b, delivered_b) = loss_burst_run(0);
        assert_eq!(trace_a, trace_b, "trace must be byte-identical");
        assert_eq!(delivered_a, delivered_b);
        // The burst window dropped roughly half of its ~200 cells.
        assert!(
            (350..=470).contains(&delivered_a),
            "delivered {delivered_a}"
        );
        assert!(trace_a.contains("apply cell-loss path=a-b prob=0.5000"));
        assert!(trace_a.contains("revert cell-loss path=a-b"));
        assert!(trace_a.contains("t=000100000000 apply"));
        assert!(trace_a.contains("t=000300000000 revert"));
    }

    #[test]
    fn unknown_targets_are_skipped_not_fatal() {
        let mut sim = Simulation::new();
        let targets = FaultTargets::new();
        let plan = FaultPlan::default().event(
            SimDuration::from_millis(1),
            None,
            FaultKind::LatencyStep {
                path: "nowhere".into(),
                extra: SimDuration::from_millis(5),
            },
        );
        let trace = install(&sim.spawner(), &plan, &targets);
        sim.run_until_idle();
        let text = trace.to_text();
        assert!(text.contains("skip latency-step path=nowhere"), "{text}");
    }

    #[test]
    fn crash_restart_pauses_every_box_task_family_and_replays() {
        fn run() -> (String, u64, u64) {
            let mut sim = Simulation::new();
            let agent = Rc::new(StdCell::new(0u64));
            let mixer = Rc::new(StdCell::new(0u64));
            let a = agent.clone();
            let m = mixer.clone();
            // Two task families of one box, named as the core names them.
            sim.spawn("node3:session-agent", async move {
                loop {
                    pandora_sim::delay(SimDuration::from_millis(1)).await;
                    a.set(a.get() + 1);
                }
            });
            sim.spawn("audio:node3:playback", async move {
                loop {
                    pandora_sim::delay(SimDuration::from_millis(1)).await;
                    m.set(m.get() + 1);
                }
            });
            let plan = FaultPlan::default().crash_restart(
                "node3",
                SimDuration::from_micros(10_500),
                SimDuration::from_millis(5),
            );
            let trace = install(&sim.spawner(), &plan, &FaultTargets::new());
            sim.run_until(SimTime::from_millis(30));
            (trace.to_text(), agent.get(), mixer.get())
        }
        let (text_a, agent_a, mixer_a) = run();
        let (text_b, agent_b, mixer_b) = run();
        assert_eq!(text_a, text_b, "trace must be byte-identical");
        assert_eq!((agent_a, mixer_a), (agent_b, mixer_b));
        // 10 ticks before the crash, none for 5 ms, then back on cadence.
        assert!((23..=25).contains(&agent_a), "agent ticks {agent_a}");
        assert!((23..=25).contains(&mixer_a), "mixer ticks {mixer_a}");
        assert!(
            text_a.contains("apply box-crash name=node3 tasks=2"),
            "{text_a}"
        );
        assert!(
            text_a.contains("apply box-restart name=node3 tasks=2"),
            "{text_a}"
        );
    }

    #[test]
    fn box_prefixes_do_not_cross_box_boundaries() {
        let mut sim = Simulation::new();
        let other = Rc::new(StdCell::new(0u64));
        let o = other.clone();
        sim.spawn("node1:session-agent", async move {
            loop {
                pandora_sim::delay(SimDuration::from_millis(1)).await;
                o.set(o.get() + 1);
            }
        });
        let plan = FaultPlan::default().crash_restart(
            "node3",
            SimDuration::from_millis(1),
            SimDuration::from_millis(20),
        );
        let _trace = install(&sim.spawner(), &plan, &FaultTargets::new());
        sim.run_until(SimTime::from_millis(10));
        assert!(other.get() >= 8, "node1 must keep running: {}", other.get());
    }

    #[test]
    fn pause_event_stalls_and_resumes_named_tasks() {
        let mut sim = Simulation::new();
        let count = Rc::new(StdCell::new(0u64));
        let c = count.clone();
        sim.spawn("victim:tick", async move {
            loop {
                pandora_sim::delay(SimDuration::from_millis(1)).await;
                c.set(c.get() + 1);
            }
        });
        let plan = FaultPlan::default().event(
            SimDuration::from_micros(10_500),
            Some(SimDuration::from_millis(5)),
            FaultKind::PauseTasks {
                prefix: "victim:".into(),
            },
        );
        let trace = install(&sim.spawner(), &plan, &FaultTargets::new());
        sim.run_until(SimTime::from_millis(30));
        // 10 ticks before the pause, none for 5ms, then back on cadence.
        assert!((23..=25).contains(&count.get()), "count {}", count.get());
        let text = trace.to_text();
        assert!(
            text.contains("apply pause-tasks prefix=victim: tasks=1"),
            "{text}"
        );
        assert!(
            text.contains("revert pause-tasks prefix=victim: tasks=1"),
            "{text}"
        );
    }
}
