//! The session controller and per-box agents.
//!
//! One [`Controller`] owns a star fabric's routing table and directory;
//! each participating box runs an agent task (spawned by
//! [`spawn_agent`]) that executes control requests locally — admission
//! through its [`AdmissionController`], route changes through the box's
//! switch-command channel, which the switch takes via PRI ALT between
//! segments (Principles 4 and 6).
//!
//! ## Reconfiguration ordering (glitch-free growth and shrink)
//!
//! Growing a split installs state strictly downstream-first:
//!
//! 1. `OpenSink` at the destination — admission, then the sink's switch
//!    route, before a single cell can arrive;
//! 2. the fabric VCI route — the path now exists end-to-end, unused;
//! 3. `AddDest` at the source — the switch table grows between two
//!    segments, so the new copy starts on a segment boundary and the
//!    stream's existing copies are untouched (Principle 6) and remain
//!    upstream-independent (Principle 5).
//!
//! Shrinking reverses the order (source first, then fabric, then sink),
//! so cells are never in flight toward missing state. Requests are
//! idempotent at the agents, which makes the controller's
//! timeout-and-retry loop safe under signalling faults (Principle 4
//! keeps the command path live; retries cover lost cells). Retries back
//! off exponentially with seeded jitter so a congested command path is
//! not hammered in lock-step.
//!
//! ## Failure recovery (leases and reconvergence)
//!
//! When [`ControllerConfig::lease`] is set, the controller probes every
//! endpoint with `Ping`/`Pong` heartbeats on the ordinary command path
//! and holds their leases in a [`LeaseBook`] indexed by endpoint id (the
//! overlay hub's book, renewed by probes instead of volunteered hellos).
//! A lease that misses enough renewals dies, and the controller
//! reconverges the surviving conference:
//!
//! 1. sessions where the dead box was a *listener* shrink upstream-first
//!    (RemoveDest at the live source, fabric route out) — the source's
//!    transmit budget is released and its other copies never glitch;
//! 2. sessions where the dead box was the *source* tear down whole:
//!    fabric route out, then CloseSink at each surviving listener so
//!    their admission charges are refunded;
//! 3. a fabric backstop ([`pandora_atm::SwitchCore::unroute_port`])
//!    sweeps any stray legs toward the dead port, then the well-known
//!    control circuit is
//!    re-installed so a restarted box is reachable again.
//!
//! The dead box's own half of the state (its local routes and admission
//!    charges) cannot be released over the wire — it is recorded as
//! *stale debt* and settled with idempotent CloseSink/RemoveDest
//! requests when the lease revives (the rejoin path). Rejoined boxes
//! re-enter conferences through the normal admission path.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use pandora::{OutputId, PandoraBox, StreamKind, SLAB_BUFFERS};
use pandora_atm::{segment_to_cells, ByteSlab, Cell, SlabReassembler, SwitchCore, Vci};
use pandora_metrics::{Histogram, StateTimeline, Table};
use pandora_recover::{LeaseBook, LeaseConfig, LeaseEvent, LeaseState};
use pandora_segment::{wire, StreamId, COMMON_HEADER_BYTES};
use pandora_sim::{recv_deadline, LinkSender, Receiver, Sender, SimDuration, SimTime, Spawner};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::admission::{AdmissionController, Decision};
use crate::directory::{Capabilities, Directory, EndpointId};
use crate::proto::{RejectReason, SessionMsg, StreamClass, CONTROL_BYTES};

/// A control-plane operation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// The remote agent refused admission.
    Rejected(RejectReason),
    /// No reply within the configured timeout, after retries.
    Timeout,
    /// The session id is not registered.
    UnknownSession,
    /// The endpoint id is not in the directory.
    UnknownEndpoint,
    /// The named destination has no sink in this session.
    UnknownListener,
    /// The signalling attachment is closed.
    Closed,
    /// The agent replied with an unexpected message.
    Protocol,
}

/// A granted sink: where the stream will arrive and at what rate.
#[derive(Debug, Clone, Copy)]
pub struct Admitted {
    /// The fabric VCI carrying the stream to the new listener.
    pub vci: Vci,
    /// Granted rate in thousandths of full rate (1000 unless the video
    /// was degraded at admission).
    pub rate_permille: u32,
}

/// Jitter added to each attempt's reply wait, as thousandths of the
/// backed-off wait. Jitter keeps lock-step retries from re-colliding on a
/// congested command path.
const JITTER_PERMILLE: u64 = 200;

/// Controller tunables.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// How long to wait for an agent's reply on the first attempt.
    pub reply_timeout: SimDuration,
    /// Retries after the first attempt times out.
    pub retries: u32,
    /// Upper bound on the backed-off per-attempt reply wait
    /// (`reply_timeout * 2^attempt`, capped here).
    pub backoff_cap: SimDuration,
    /// Seed for the jitter generator — same seed, same retry schedule,
    /// so runs replay byte-identically.
    pub seed: u64,
    /// Lease/heartbeat tunables; `None` disables failure detection (no
    /// probe tasks, no reconvergence — crashed boxes leak their state).
    pub lease: Option<LeaseConfig>,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            reply_timeout: SimDuration::from_millis(500),
            retries: 2,
            backoff_cap: SimDuration::from_millis(4_000),
            seed: 0x5EA5_1DE5,
            lease: None,
        }
    }
}

/// One dead source's teardown work: session id, source stream and the
/// surviving sinks that must close, in leg order.
type SourceTeardown = (u32, StreamId, Vec<(EndpointId, Vci)>);

struct SinkRec {
    dst: EndpointId,
    vci: Vci,
    rate_permille: u32,
}

struct SessionRec {
    src: EndpointId,
    src_stream: StreamId,
    class: StreamClass,
    sinks: Vec<SinkRec>,
}

#[derive(Default)]
struct ControlStats {
    setups: u64,
    reconfigs: u64,
    rejections: u64,
    timeouts: u64,
    setup_latency_ns: Histogram,
    reconfig_gap_ns: Histogram,
    attempt_delay_ns: Histogram,
}

/// Wire-unreleasable state a dead box still holds locally: settled with
/// idempotent requests when it rejoins.
#[derive(Default)]
struct StaleDebt {
    // CloseSink owed: (session, sink vci).
    sinks: Vec<(u32, Vci)>,
    // RemoveDest owed: (session, source stream, dest vci).
    sources: Vec<(u32, StreamId, Vci)>,
}

#[derive(Default)]
struct RecoveryStats {
    crashes: u64,
    rejoins: u64,
    probe_misses: u64,
    detect_ns: Histogram,
    reconverge_ns: Histogram,
    timeline: StateTimeline,
}

struct CtlInner {
    directory: Directory,
    sessions: BTreeMap<u32, SessionRec>,
    pending: BTreeMap<u32, Sender<SessionMsg>>,
    cell_seq: BTreeMap<Vci, u32>,
    next_session: u32,
    next_txn: u32,
    next_vci: u32,
    next_seg_seq: u32,
    stats: ControlStats,
    jitter_rng: SmallRng,
    leases: LeaseBook,
    stale: BTreeMap<u32, StaleDebt>,
    recovery: RecoveryStats,
}

/// The control plane of one conference fabric: directory, signalling,
/// session registry and the reconfiguration engine.
pub struct Controller {
    inner: Rc<RefCell<CtlInner>>,
    switch: SwitchCore,
    tx: LinkSender<Cell>,
    config: ControllerConfig,
}

impl Controller {
    /// Spawns the controller on its signalling attachment: `tx` injects
    /// cells into the fabric, `rx` receives the agents' replies, and
    /// `switch` is the fabric's routing table the reconfiguration engine
    /// edits.
    pub fn spawn(
        spawner: &Spawner,
        directory: Directory,
        switch: SwitchCore,
        tx: LinkSender<Cell>,
        rx: Receiver<Cell>,
        config: ControllerConfig,
    ) -> Controller {
        let inner = Rc::new(RefCell::new(CtlInner {
            directory,
            sessions: BTreeMap::new(),
            pending: BTreeMap::new(),
            cell_seq: BTreeMap::new(),
            next_session: 1,
            next_txn: 1,
            // Sink VCIs sit far above box-local stream numbers (which
            // start at 1) and below the well-known control VCIs.
            next_vci: 0x1000,
            next_seg_seq: 1,
            stats: ControlStats::default(),
            jitter_rng: SmallRng::seed_from_u64(config.seed),
            leases: LeaseBook::new(),
            stale: BTreeMap::new(),
            recovery: RecoveryStats::default(),
        }));
        let dispatch = inner.clone();
        // Every control frame is one test segment of a `CONTROL_BYTES`
        // payload, so a region holds exactly one: a larger frame would
        // fail `SessionMsg::decode` anyway, and is discarded on arrival.
        let slab = ByteSlab::new(SLAB_BUFFERS, COMMON_HEADER_BYTES + CONTROL_BYTES);
        spawner.spawn("session:controller-rx", async move {
            let mut reasm = SlabReassembler::new(slab);
            while let Ok(cell) = rx.recv().await {
                let Some((_vci, frame)) = reasm.push(cell) else {
                    continue;
                };
                let Ok(seg) = frame.with(wire::decode) else {
                    continue;
                };
                let Some(msg) = SessionMsg::from_segment(&seg) else {
                    continue;
                };
                let waiter = dispatch.borrow_mut().pending.remove(&msg.txn());
                if let Some(w) = waiter {
                    let _ = w.try_send(msg);
                }
            }
        });
        Controller {
            inner,
            switch,
            tx,
            config,
        }
    }

    /// Registers a new session for a source stream the application has
    /// already started at `src`. No sinks yet: grow the session with
    /// [`Controller::add_listener`].
    pub fn open(
        &self,
        src: EndpointId,
        src_stream: StreamId,
        class: StreamClass,
    ) -> Result<u32, SessionError> {
        let mut inner = self.inner.borrow_mut();
        if inner.directory.get(src).is_none() {
            return Err(SessionError::UnknownEndpoint);
        }
        let id = inner.next_session;
        inner.next_session += 1;
        inner.sessions.insert(
            id,
            SessionRec {
                src,
                src_stream,
                class,
                sinks: Vec::new(),
            },
        );
        Ok(id)
    }

    /// Grows the session to one more listener, downstream-first (see the
    /// module docs). The first listener of a session is its call setup
    /// (recorded in the setup-latency histogram); later ones are live
    /// reconfigurations (recorded in the reconfiguration-gap histogram).
    pub async fn add_listener(
        &self,
        session: u32,
        dst: EndpointId,
    ) -> Result<Admitted, SessionError> {
        let t0 = pandora_sim::now();
        let (src, src_stream, class, first) = {
            let inner = self.inner.borrow();
            let s = inner
                .sessions
                .get(&session)
                .ok_or(SessionError::UnknownSession)?;
            (s.src, s.src_stream, s.class, s.sinks.is_empty())
        };
        let (dst_port, dst_ctl) = self.endpoint(dst)?;
        let (_src_port, src_ctl) = self.endpoint(src)?;
        let vci = {
            let mut inner = self.inner.borrow_mut();
            let v = Vci(inner.next_vci);
            inner.next_vci += 1;
            v
        };
        // 1. Downstream: admit and install the sink before any cell can
        //    arrive.
        let reply = self
            .request(dst_ctl, |txn| SessionMsg::OpenSink {
                txn,
                session,
                class,
                vci,
            })
            .await?;
        let granted = match reply {
            SessionMsg::Accept { rate_permille, .. } => rate_permille,
            SessionMsg::Reject { reason, .. } => {
                self.inner.borrow_mut().stats.rejections += 1;
                return Err(SessionError::Rejected(reason));
            }
            _ => return Err(SessionError::Protocol),
        };
        // 2. Fabric route: the path now exists end-to-end, still unused.
        self.switch.route(vci, dst_port, vci);
        // 3. Upstream: grow the source's split on a segment boundary.
        let granted_class = match class {
            StreamClass::Audio => StreamClass::Audio,
            StreamClass::Video { .. } => StreamClass::Video {
                rate_permille: granted,
            },
        };
        let reply = self
            .request(src_ctl, |txn| SessionMsg::AddDest {
                txn,
                session,
                stream: src_stream,
                vci,
                class: granted_class,
            })
            .await;
        match reply {
            Ok(SessionMsg::Done { .. }) => {}
            Ok(SessionMsg::Reject { reason, .. }) => {
                self.rollback_sink(session, dst_ctl, vci).await;
                self.inner.borrow_mut().stats.rejections += 1;
                return Err(SessionError::Rejected(reason));
            }
            Ok(_) => return Err(SessionError::Protocol),
            Err(e) => {
                self.rollback_sink(session, dst_ctl, vci).await;
                return Err(e);
            }
        }
        let elapsed = (pandora_sim::now().as_nanos() - t0.as_nanos()) as f64;
        {
            let mut inner = self.inner.borrow_mut();
            if let Some(s) = inner.sessions.get_mut(&session) {
                s.sinks.push(SinkRec {
                    dst,
                    vci,
                    rate_permille: granted,
                });
            }
            if first {
                inner.stats.setups += 1;
                inner.stats.setup_latency_ns.record(elapsed);
            } else {
                inner.stats.reconfigs += 1;
                inner.stats.reconfig_gap_ns.record(elapsed);
            }
        }
        Ok(Admitted {
            vci,
            rate_permille: granted,
        })
    }

    /// Shrinks the session: removes `dst`'s sink, upstream-first so no
    /// cell is ever in flight toward torn-down state, and the session's
    /// other listeners never glitch (Principle 6).
    pub async fn remove_listener(&self, session: u32, dst: EndpointId) -> Result<(), SessionError> {
        let t0 = pandora_sim::now();
        let (src, src_stream, vci) = {
            let inner = self.inner.borrow();
            let s = inner
                .sessions
                .get(&session)
                .ok_or(SessionError::UnknownSession)?;
            let sink = s
                .sinks
                .iter()
                .find(|k| k.dst == dst)
                .ok_or(SessionError::UnknownListener)?;
            (s.src, s.src_stream, sink.vci)
        };
        let (_src_port, src_ctl) = self.endpoint(src)?;
        let (_dst_port, dst_ctl) = self.endpoint(dst)?;
        // 1. Upstream: stop the copy at the source switch.
        match self
            .request(src_ctl, |txn| SessionMsg::RemoveDest {
                txn,
                session,
                stream: src_stream,
                vci,
            })
            .await?
        {
            SessionMsg::Done { .. } => {}
            _ => return Err(SessionError::Protocol),
        }
        // 2. Fabric route out.
        self.switch.unroute(vci);
        // 3. Downstream: drop the sink and release its admission charge.
        match self
            .request(dst_ctl, |txn| SessionMsg::CloseSink { txn, session, vci })
            .await?
        {
            SessionMsg::Done { .. } => {}
            _ => return Err(SessionError::Protocol),
        }
        let elapsed = (pandora_sim::now().as_nanos() - t0.as_nanos()) as f64;
        let mut inner = self.inner.borrow_mut();
        if let Some(s) = inner.sessions.get_mut(&session) {
            s.sinks.retain(|k| k.vci != vci);
        }
        inner.stats.reconfigs += 1;
        inner.stats.reconfig_gap_ns.record(elapsed);
        Ok(())
    }

    /// Tears the whole session down (every listener, upstream-first),
    /// then forgets it.
    pub async fn close(&self, session: u32) -> Result<(), SessionError> {
        loop {
            let dst = {
                let inner = self.inner.borrow();
                let s = inner
                    .sessions
                    .get(&session)
                    .ok_or(SessionError::UnknownSession)?;
                s.sinks.last().map(|k| k.dst)
            };
            match dst {
                Some(dst) => self.remove_listener(session, dst).await?,
                None => break,
            }
        }
        self.inner.borrow_mut().sessions.remove(&session);
        Ok(())
    }

    /// The rate granted to `dst`'s sink in a session, if present.
    pub fn granted_rate(&self, session: u32, dst: EndpointId) -> Option<u32> {
        self.inner
            .borrow()
            .sessions
            .get(&session)?
            .sinks
            .iter()
            .find(|k| k.dst == dst)
            .map(|k| k.rate_permille)
    }

    /// Number of active listeners in a session (0 for unknown ids).
    pub fn listeners(&self, session: u32) -> usize {
        self.inner
            .borrow()
            .sessions
            .get(&session)
            .map_or(0, |s| s.sinks.len())
    }

    /// Calls set up (first listener added) so far.
    pub fn setups(&self) -> u64 {
        self.inner.borrow().stats.setups
    }

    /// Live reconfigurations (grow beyond the first listener, shrink) so
    /// far.
    pub fn reconfigs(&self) -> u64 {
        self.inner.borrow().stats.reconfigs
    }

    /// Requests refused by agents' admission controllers.
    pub fn rejections(&self) -> u64 {
        self.inner.borrow().stats.rejections
    }

    /// Request attempts that timed out (each retry counts).
    pub fn timeouts(&self) -> u64 {
        self.inner.borrow().stats.timeouts
    }

    /// Renders the control-plane metrics through the shared table
    /// format: session-setup latency and reconfiguration gap, in
    /// milliseconds.
    pub fn metrics_table(&self) -> Table {
        let mut t = Table::new(
            "session control plane",
            &["metric", "n", "p50 ms", "p95 ms", "max ms"],
        );
        let mut inner = self.inner.borrow_mut();
        let stats = &mut inner.stats;
        t.histogram_row("setup latency", &mut stats.setup_latency_ns, 1e6);
        t.histogram_row("reconfig gap", &mut stats.reconfig_gap_ns, 1e6);
        t.histogram_row("attempt delay", &mut stats.attempt_delay_ns, 1e6);
        let recovery = &mut inner.recovery;
        t.histogram_row("crash detect", &mut recovery.detect_ns, 1e6);
        t.histogram_row("reconverge", &mut recovery.reconverge_ns, 1e6);
        t
    }

    /// A deterministic one-line digest of the controller's counters and
    /// histograms, for replay-equality assertions.
    pub fn digest(&self) -> String {
        let mut inner = self.inner.borrow_mut();
        let stats = &mut inner.stats;
        format!(
            "setups={} reconfigs={} rejections={} timeouts={} setup[{};{:.0}] gap[{};{:.0}] attempt[{};{:.0}]",
            stats.setups,
            stats.reconfigs,
            stats.rejections,
            stats.timeouts,
            stats.setup_latency_ns.count(),
            stats.setup_latency_ns.mean(),
            stats.reconfig_gap_ns.count(),
            stats.reconfig_gap_ns.mean(),
            stats.attempt_delay_ns.count(),
            stats.attempt_delay_ns.mean(),
        )
    }

    /// Spawns one lease-probe task per directory endpoint (task
    /// `session:lease:<name>`). Each probe sleeps for the lease's
    /// current backoff, sends a single-attempt `Ping` on the command
    /// path and reports the outcome to the lease; deaths trigger crash
    /// reconvergence and revivals from dead trigger the rejoin cleanup.
    ///
    /// # Panics
    ///
    /// Panics if [`ControllerConfig::lease`] is `None`.
    pub fn spawn_lease_probes(self: &Rc<Self>, spawner: &Spawner) {
        let lcfg = self
            .config
            .lease
            .expect("spawn_lease_probes requires ControllerConfig::lease");
        let endpoints: Vec<(EndpointId, String)> = {
            let inner = self.inner.borrow();
            (0..inner.directory.len() as u32)
                .filter_map(|i| {
                    let id = EndpointId(i);
                    inner.directory.get(id).map(|r| (id, r.name.clone()))
                })
                .collect()
        };
        for (ep, name) in endpoints {
            let ctl = self.clone();
            {
                let mut inner = ctl.inner.borrow_mut();
                inner.leases.grant(ep.0, lcfg);
                // Granting happens during topology build, outside any
                // task, where the executor clock is not yet current.
                let now = pandora_sim::try_now().unwrap_or(SimTime::ZERO).as_nanos();
                inner.recovery.timeline.record(now, &name, "live");
            }
            spawner.spawn(&format!("session:lease:{name}"), async move {
                let mut last_renewal = pandora_sim::now();
                loop {
                    let wait = ctl
                        .inner
                        .borrow()
                        .leases
                        .get(ep.0)
                        .map_or(lcfg.interval, |l| l.next_probe_in());
                    pandora_sim::delay(wait).await;
                    let Ok((_port, target)) = ctl.endpoint(ep) else {
                        return;
                    };
                    let outcome = ctl
                        .request_once(target, &|txn| SessionMsg::Ping { txn }, lcfg.interval)
                        .await;
                    match outcome {
                        Ok(SessionMsg::Pong { .. }) => {
                            last_renewal = pandora_sim::now();
                            let event = {
                                let mut inner = ctl.inner.borrow_mut();
                                let event = inner.leases.get_mut(ep.0).and_then(|l| l.renew());
                                if event.is_some() {
                                    let now = pandora_sim::now().as_nanos();
                                    inner.recovery.timeline.record(now, &name, "live");
                                }
                                event
                            };
                            if let Some(LeaseEvent::Revived { was_dead: true }) = event {
                                ctl.settle_rejoin(ep).await;
                            }
                        }
                        Err(SessionError::Closed) => return,
                        // A wrong-typed reply counts as a miss, like a
                        // timeout: the probe only trusts a Pong.
                        Ok(_) | Err(_) => {
                            let event = {
                                let mut inner = ctl.inner.borrow_mut();
                                inner.recovery.probe_misses += 1;
                                let event = inner.leases.get_mut(ep.0).and_then(|l| l.miss());
                                let now = pandora_sim::now().as_nanos();
                                match event {
                                    Some(LeaseEvent::Suspected) => {
                                        inner.recovery.timeline.record(now, &name, "suspect");
                                    }
                                    Some(LeaseEvent::Died) => {
                                        inner.recovery.timeline.record(now, &name, "dead");
                                        let detect = now.saturating_sub(last_renewal.as_nanos());
                                        inner.recovery.detect_ns.record(detect as f64);
                                    }
                                    _ => {}
                                }
                                event
                            };
                            if let Some(LeaseEvent::Died) = event {
                                ctl.reconverge(ep).await;
                            }
                        }
                    }
                }
            });
        }
    }

    /// Crash reconvergence: tears the dead box out of every session it
    /// participates in, shrinking upstream-first so surviving streams
    /// never glitch (Principle 6), releases the survivors' admission
    /// charges, sweeps the fabric port and records the dead box's own
    /// unreleasable state as stale debt for the rejoin path.
    async fn reconverge(&self, dead: EndpointId) {
        let t0 = pandora_sim::now();
        let Ok((dead_port, dead_ctl)) = self.endpoint(dead) else {
            return;
        };
        // Snapshot the work in ascending session order (determinism),
        // then signal without holding the borrow across awaits.
        let mut as_listener: Vec<(u32, EndpointId, StreamId, Vci)> = Vec::new();
        let mut as_source: Vec<SourceTeardown> = Vec::new();
        {
            let inner = self.inner.borrow();
            let mut ids: Vec<u32> = inner.sessions.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                let s = &inner.sessions[&id];
                if s.src == dead {
                    as_source.push((
                        id,
                        s.src_stream,
                        s.sinks.iter().map(|k| (k.dst, k.vci)).collect(),
                    ));
                } else {
                    for k in s.sinks.iter().filter(|k| k.dst == dead) {
                        as_listener.push((id, s.src, s.src_stream, k.vci));
                    }
                }
            }
        }
        // Dead box was a listener: upstream-first shrink, skipping the
        // unreachable CloseSink (owed as stale debt instead).
        for (session, src, src_stream, vci) in as_listener {
            if let Ok((_p, src_ctl)) = self.endpoint(src) {
                let _ = self
                    .request(src_ctl, |txn| SessionMsg::RemoveDest {
                        txn,
                        session,
                        stream: src_stream,
                        vci,
                    })
                    .await;
            }
            self.switch.unroute(vci);
            let mut inner = self.inner.borrow_mut();
            if let Some(s) = inner.sessions.get_mut(&session) {
                s.sinks.retain(|k| k.vci != vci);
            }
            inner.stats.reconfigs += 1;
            inner
                .stale
                .entry(dead.0)
                .or_default()
                .sinks
                .push((session, vci));
        }
        // Dead box was the source: the stream is gone; drop each leg's
        // fabric route, refund each surviving listener, forget the
        // session. The dead source's own per-copy charges become debt.
        for (session, src_stream, sinks) in as_source {
            for (dst, vci) in sinks {
                self.switch.unroute(vci);
                if let Ok((_p, dst_ctl)) = self.endpoint(dst) {
                    let _ = self
                        .request(dst_ctl, |txn| SessionMsg::CloseSink { txn, session, vci })
                        .await;
                }
                let mut inner = self.inner.borrow_mut();
                inner.stats.reconfigs += 1;
                inner
                    .stale
                    .entry(dead.0)
                    .or_default()
                    .sources
                    .push((session, src_stream, vci));
            }
            self.inner.borrow_mut().sessions.remove(&session);
        }
        // Fabric backstop: sweep any stray legs toward the dead port,
        // then re-install the well-known control circuit so the rejoin
        // Pings can reach a restarted box.
        self.switch.unroute_port(dead_port);
        self.switch.route(dead_ctl, dead_port, dead_ctl);
        let mut inner = self.inner.borrow_mut();
        inner.recovery.crashes += 1;
        let elapsed = (pandora_sim::now().as_nanos() - t0.as_nanos()) as f64;
        inner.recovery.reconverge_ns.record(elapsed);
    }

    /// Settles a rejoined box's stale debt: the sinks and source copies
    /// it still holds from before the crash are released with idempotent
    /// CloseSink/RemoveDest requests, refunding its admission budgets.
    /// The box then re-enters conferences through the normal
    /// [`Controller::add_listener`] path.
    async fn settle_rejoin(&self, ep: EndpointId) {
        let Ok((_port, target)) = self.endpoint(ep) else {
            return;
        };
        let debt = self.inner.borrow_mut().stale.remove(&ep.0);
        if let Some(debt) = debt {
            for (session, vci) in debt.sinks {
                let _ = self
                    .request(target, |txn| SessionMsg::CloseSink { txn, session, vci })
                    .await;
            }
            for (session, stream, vci) in debt.sources {
                let _ = self
                    .request(target, |txn| SessionMsg::RemoveDest {
                        txn,
                        session,
                        stream,
                        vci,
                    })
                    .await;
            }
        }
        self.inner.borrow_mut().recovery.rejoins += 1;
    }

    /// The lease state of an endpoint, if the controller holds one.
    pub fn lease_state(&self, ep: EndpointId) -> Option<LeaseState> {
        self.inner.borrow().leases.get(ep.0).map(|l| l.state())
    }

    /// Deterministic multi-line digest of every lease's counters.
    pub fn lease_digest(&self) -> String {
        self.inner.borrow().leases.digest()
    }

    /// Lease deaths reconverged so far.
    pub fn crashes(&self) -> u64 {
        self.inner.borrow().recovery.crashes
    }

    /// Dead leases revived (stale debt settled) so far.
    pub fn rejoins(&self) -> u64 {
        self.inner.borrow().recovery.rejoins
    }

    /// Outstanding stale-debt entries owed by an endpoint (0 once its
    /// rejoin has settled).
    pub fn stale_debt(&self, ep: EndpointId) -> usize {
        self.inner
            .borrow()
            .stale
            .get(&ep.0)
            .map_or(0, |d| d.sinks.len() + d.sources.len())
    }

    /// Deterministic one-line digest of the recovery counters and
    /// histograms, for replay-equality assertions.
    pub fn recovery_digest(&self) -> String {
        let mut inner = self.inner.borrow_mut();
        let r = &mut inner.recovery;
        format!(
            "crashes={} rejoins={} probe_misses={} detect[{};{:.0}] reconverge[{};{:.0}]",
            r.crashes,
            r.rejoins,
            r.probe_misses,
            r.detect_ns.count(),
            r.detect_ns.mean(),
            r.reconverge_ns.count(),
            r.reconverge_ns.mean(),
        )
    }

    /// The lease state timeline (`t=<ns> <name> -> <state>` lines), for
    /// recovery-ordering assertions.
    pub fn recovery_timeline(&self) -> String {
        self.inner.borrow().recovery.timeline.to_text()
    }

    /// Mean crash-detection latency (last renewal → death declared) in
    /// virtual nanoseconds; 0 before the first detection. Deterministic:
    /// the histogram is fed from the sim clock.
    pub fn detect_latency_mean_ns(&self) -> f64 {
        self.inner.borrow().recovery.detect_ns.mean()
    }

    fn endpoint(&self, id: EndpointId) -> Result<(usize, Vci), SessionError> {
        let inner = self.inner.borrow();
        let rec = inner
            .directory
            .get(id)
            .ok_or(SessionError::UnknownEndpoint)?;
        Ok((rec.port, rec.control_vci))
    }

    async fn rollback_sink(&self, session: u32, dst_ctl: Vci, vci: Vci) {
        self.switch.unroute(vci);
        let _ = self
            .request(dst_ctl, |txn| SessionMsg::CloseSink { txn, session, vci })
            .await;
    }

    /// One request-reply exchange with timeout and exponential-backoff
    /// retry. Fresh transaction ids per attempt; agent idempotency makes
    /// retries safe.
    async fn request<F: Fn(u32) -> SessionMsg>(
        &self,
        target: Vci,
        build: F,
    ) -> Result<SessionMsg, SessionError> {
        for attempt in 0..=self.config.retries {
            let wait = self.attempt_wait(attempt);
            match self.request_once(target, &build, wait).await {
                Err(SessionError::Timeout) => continue,
                other => return other,
            }
        }
        Err(SessionError::Timeout)
    }

    /// The reply wait for a given attempt: `reply_timeout * 2^attempt`
    /// capped at `backoff_cap`, plus up to [`JITTER_PERMILLE`] thousandths
    /// of seeded jitter. Every computed wait is recorded in the
    /// per-attempt delay histogram.
    fn attempt_wait(&self, attempt: u32) -> SimDuration {
        let base = self.config.reply_timeout.as_nanos();
        let cap = self.config.backoff_cap.as_nanos().max(base);
        let backed = base.saturating_mul(1u64 << attempt.min(20)).min(cap);
        let span = backed / 1_000 * JITTER_PERMILLE;
        let mut inner = self.inner.borrow_mut();
        let jitter = if span == 0 {
            0
        } else {
            inner.jitter_rng.gen_range(0..=span)
        };
        let wait = SimDuration(backed.saturating_add(jitter));
        inner.stats.attempt_delay_ns.record(wait.as_nanos() as f64);
        wait
    }

    /// A single request attempt with an explicit reply wait. The lease
    /// probes use this directly (one attempt per heartbeat — a missed
    /// probe is lease evidence, not something to retry past).
    async fn request_once<F: Fn(u32) -> SessionMsg>(
        &self,
        target: Vci,
        build: &F,
        wait: SimDuration,
    ) -> Result<SessionMsg, SessionError> {
        let (txn, reply_rx) = {
            let mut inner = self.inner.borrow_mut();
            let txn = inner.next_txn;
            inner.next_txn += 1;
            let (tx, rx) = pandora_sim::buffered::<SessionMsg>(1);
            inner.pending.insert(txn, tx);
            (txn, rx)
        };
        self.send_control(target, &build(txn)).await?;
        let deadline = pandora_sim::now() + wait;
        // Only the dispatcher drops a waiter's sender, and only after
        // queueing its reply: the reply channel never closes empty.
        match recv_deadline(&reply_rx, deadline).await {
            Some(Ok(reply)) => Ok(reply),
            None => {
                let mut inner = self.inner.borrow_mut();
                inner.pending.remove(&txn);
                inner.stats.timeouts += 1;
                Err(SessionError::Timeout)
            }
            Some(Err(_)) => Err(SessionError::Closed),
        }
    }

    async fn send_control(&self, vci: Vci, msg: &SessionMsg) -> Result<(), SessionError> {
        let (bytes, first_seq) = {
            let mut inner = self.inner.borrow_mut();
            let seq = inner.next_seg_seq;
            inner.next_seg_seq += 1;
            let bytes = wire::encode(&msg.to_segment(seq));
            let first_seq = *inner.cell_seq.entry(vci).or_insert(0);
            (bytes, first_seq)
        };
        let cells = segment_to_cells(vci, &bytes, first_seq);
        self.inner
            .borrow_mut()
            .cell_seq
            .insert(vci, first_seq.wrapping_add(cells.len() as u32));
        for cell in cells {
            self.tx.send(cell).await.map_err(|_| SessionError::Closed)?;
        }
        Ok(())
    }
}

struct AgentInner {
    admission: AdmissionController,
    // Granted sinks by VCI (value = granted class, for the refund).
    sinks: BTreeMap<Vci, StreamClass>,
    // Charged source copies by (stream, vci).
    sources: BTreeMap<(StreamId, Vci), StreamClass>,
    handled: u64,
}

/// Shared view of one box agent's admission state.
#[derive(Clone)]
pub struct AgentStats {
    inner: Rc<RefCell<AgentInner>>,
}

impl AgentStats {
    /// Requests admitted (including degraded) by this agent.
    pub fn admitted(&self) -> u64 {
        self.inner.borrow().admission.admitted()
    }

    /// Requests admitted only after degrading.
    pub fn degraded(&self) -> u64 {
        self.inner.borrow().admission.degraded()
    }

    /// Requests rejected by this agent.
    pub fn rejected(&self) -> u64 {
        self.inner.borrow().admission.rejected()
    }

    /// Control messages handled.
    pub fn handled(&self) -> u64 {
        self.inner.borrow().handled
    }

    /// Sinks currently installed.
    pub fn active_sinks(&self) -> usize {
        self.inner.borrow().sinks.len()
    }
}

/// Spawns a box's session agent: routes inbound control (arriving on
/// `control_vci`) to the box's session tap, executes requests against
/// the local switch and admission budgets, and replies on `reply_vci`.
///
/// # Panics
///
/// Panics if the box's session tap was already taken.
pub fn spawn_agent(
    spawner: &Spawner,
    boxy: Rc<PandoraBox>,
    caps: Capabilities,
    control_vci: Vci,
    reply_vci: Vci,
) -> AgentStats {
    let rx = boxy
        .take_session_rx()
        .expect("session tap already taken — one agent per box");
    // Inbound control lands on the session output handler…
    boxy.set_route(
        control_vci.stream(),
        StreamKind::Control,
        vec![OutputId::Session],
    );
    // …and replies leave on a dedicated control stream toward the
    // controller's well-known reply VCI.
    let out_stream = boxy.alloc_stream();
    boxy.set_route(
        out_stream,
        StreamKind::Control,
        vec![OutputId::Network(reply_vci)],
    );
    let injector = boxy.injector();
    let stats = AgentStats {
        inner: Rc::new(RefCell::new(AgentInner {
            admission: AdmissionController::new(caps),
            sinks: BTreeMap::new(),
            sources: BTreeMap::new(),
            handled: 0,
        })),
    };
    let st = stats.clone();
    let name = boxy.config.name;
    spawner.spawn(&format!("{name}:session-agent"), async move {
        let mut seq: u32 = 0;
        while let Ok((_stream, seg)) = rx.recv().await {
            let Some(msg) = SessionMsg::from_segment(&seg) else {
                continue;
            };
            st.inner.borrow_mut().handled += 1;
            let Some(reply) = handle(&boxy, &st, msg) else {
                continue;
            };
            seq += 1;
            if injector
                .send((out_stream, reply.to_segment(seq)))
                .await
                .is_err()
            {
                return;
            }
        }
    });
    stats
}

/// Executes one request against the local box; `None` for messages that
/// need no reply (a controller-side message echoed back to us).
fn handle(boxy: &PandoraBox, stats: &AgentStats, msg: SessionMsg) -> Option<SessionMsg> {
    let mut inner = stats.inner.borrow_mut();
    match msg {
        SessionMsg::OpenSink {
            txn,
            session,
            class,
            vci,
        } => {
            // Idempotent: a retried request for an installed sink is
            // re-acknowledged without a second charge.
            if let Some(granted) = inner.sinks.get(&vci) {
                return Some(SessionMsg::Accept {
                    txn,
                    session,
                    vci,
                    rate_permille: granted.rate_permille(),
                });
            }
            let decision = inner.admission.admit_sink(class);
            let granted_rate = match decision {
                Decision::Admit => class.rate_permille(),
                Decision::Degrade { rate_permille } => rate_permille,
                Decision::Reject(reason) => {
                    return Some(SessionMsg::Reject {
                        txn,
                        session,
                        reason,
                    })
                }
            };
            let (kind, dest, granted) = match class {
                StreamClass::Audio => (StreamKind::Audio, OutputId::Audio, StreamClass::Audio),
                StreamClass::Video { .. } => (
                    StreamKind::Video,
                    OutputId::Mixer,
                    StreamClass::Video {
                        rate_permille: granted_rate,
                    },
                ),
            };
            boxy.set_route(vci.stream(), kind, vec![dest]);
            inner.sinks.insert(vci, granted);
            Some(SessionMsg::Accept {
                txn,
                session,
                vci,
                rate_permille: granted_rate,
            })
        }
        SessionMsg::AddDest {
            txn,
            session,
            stream,
            vci,
            class,
        } => {
            if inner.sources.contains_key(&(stream, vci)) {
                return Some(SessionMsg::Done { txn, session });
            }
            match inner.admission.admit_source(class) {
                Decision::Admit | Decision::Degrade { .. } => {
                    // The session layer owns a managed source stream's
                    // routing: the first copy installs the table entry
                    // (AddDest on a routeless stream is a no-op), later
                    // copies grow it between segments (Principle 6).
                    let first = !inner.sources.keys().any(|&(s, _)| s == stream);
                    if first {
                        let kind = match class {
                            StreamClass::Audio => StreamKind::Audio,
                            StreamClass::Video { .. } => StreamKind::Video,
                        };
                        boxy.set_route(stream, kind, vec![OutputId::Network(vci)]);
                    } else {
                        boxy.add_dest(stream, OutputId::Network(vci));
                    }
                    inner.sources.insert((stream, vci), class);
                    Some(SessionMsg::Done { txn, session })
                }
                Decision::Reject(reason) => Some(SessionMsg::Reject {
                    txn,
                    session,
                    reason,
                }),
            }
        }
        SessionMsg::RemoveDest {
            txn,
            session,
            stream,
            vci,
        } => {
            if let Some(class) = inner.sources.remove(&(stream, vci)) {
                inner.admission.release_source(class);
                boxy.remove_dest(stream, OutputId::Network(vci));
            }
            Some(SessionMsg::Done { txn, session })
        }
        SessionMsg::CloseSink { txn, session, vci } => {
            if let Some(class) = inner.sinks.remove(&vci) {
                inner.admission.release_sink(class);
                boxy.clear_route(vci.stream());
            }
            Some(SessionMsg::Done { txn, session })
        }
        // A heartbeat needs no local state: answering proves the whole
        // box-side control pipeline (network in, switch PRI-ALT, agent
        // task, network out) is alive.
        SessionMsg::Ping { txn } => Some(SessionMsg::Pong { txn }),
        // Controller-side messages need no agent reply.
        SessionMsg::Accept { .. }
        | SessionMsg::Reject { .. }
        | SessionMsg::Done { .. }
        | SessionMsg::Pong { .. } => None,
    }
}
