//! The threaded runtime: one event loop per shard, synchronized with
//! conservative lookahead at the cross-shard ports.
//!
//! This module is the workspace's one sanctioned use of OS threads. The
//! threads never touch simulation state directly — each owns its shard's
//! `Simulation` outright and communicates only through the per-shard
//! [`Exchange`] mailboxes and the published horizon atomics, with the
//! happens-before discipline documented on [`Exchange`].

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};

use pandora_sim::{Priority, SimTime, Simulation};

use crate::cluster::{Cluster, SetupFn, ShardEnv};
use crate::exchange::Exchange;
use crate::hub::{Dispatcher, IngressHub};

/// What a finished cluster run observed, per shard and in total.
pub struct RunReport {
    /// `on_finish` lines, outer index = shard, inner = registration order.
    pub shard_lines: Vec<Vec<String>>,
    /// Context switches (task polls) per shard.
    pub ctx_switches: Vec<u64>,
    /// Tasks ever spawned, summed over shards.
    pub spawned_total: u64,
    /// Tasks still live at the deadline, summed over shards.
    pub live_tasks: usize,
}

impl RunReport {
    /// All finisher lines in shard order — the deterministic flat trace
    /// the equivalence suite compares across shard counts.
    pub fn merged_lines(&self) -> Vec<String> {
        self.shard_lines.iter().flatten().cloned().collect()
    }

    /// Total context switches across all shards — the "events executed"
    /// figure the scaling benchmark divides by wall time.
    pub fn events(&self) -> u64 {
        self.ctx_switches.iter().sum()
    }
}

/// Everything one shard's drive loop needs, all `Send`.
struct ShardArgs {
    shard: usize,
    setups: Vec<SetupFn>,
    exchange: Arc<Exchange>,
    blackboard: crate::Blackboard,
    /// Ports in the whole cluster: the size of the hub's sink table.
    ports: usize,
    /// Cross-shard in-edges as `(from shard, lookahead window ns)` —
    /// one entry per neighbour, with the *smallest* latency among that
    /// neighbour's ports (the binding constraint).
    in_edges: Vec<(usize, u64)>,
    horizons: Arc<Vec<AtomicU64>>,
    gate: Arc<(Mutex<()>, Condvar)>,
    setup_left: Arc<AtomicUsize>,
    panicked: Arc<AtomicBool>,
    deadline: u64,
}

struct ShardOutcome {
    lines: Vec<String>,
    ctx: u64,
    spawned: u64,
    live: usize,
}

impl Cluster {
    /// Runs every shard to `deadline`, returning the merged report.
    ///
    /// Shard 0 runs on the calling thread; shards 1.. each get an OS
    /// thread. With one shard this spawns no threads at all and is
    /// exactly a single `Simulation::run_until` — the baseline the
    /// equivalence suite measures everything else against.
    ///
    /// # Panics
    ///
    /// A panic on any shard (setup or run) is re-raised here on the
    /// calling thread, after the other shards have been released and
    /// joined — no cross-shard hang.
    pub fn run(self, deadline: SimTime) -> RunReport {
        let n = self.n;
        let horizons: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let gate = Arc::new((Mutex::new(()), Condvar::new()));
        let setup_left = Arc::new(AtomicUsize::new(n));
        let panicked = Arc::new(AtomicBool::new(false));

        // Per-shard in-edges: the tightest lookahead window from each
        // cross-shard neighbour.
        let mut in_edges: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
        for p in &self.ports {
            if p.from == p.to {
                continue;
            }
            let lat = p.latency.as_nanos();
            let edges = &mut in_edges[p.to];
            match edges.iter_mut().find(|(f, _)| *f == p.from) {
                Some((_, l)) => *l = (*l).min(lat),
                None => edges.push((p.from, lat)),
            }
        }

        let ports = self.ports.len();
        let mut args: Vec<ShardArgs> = self
            .setups
            .into_iter()
            .zip(self.exchanges)
            .zip(in_edges)
            .enumerate()
            .map(|(shard, ((setups, exchange), in_edges))| ShardArgs {
                shard,
                setups,
                exchange,
                blackboard: self.blackboard.clone(),
                ports,
                in_edges,
                horizons: horizons.clone(),
                gate: gate.clone(),
                setup_left: setup_left.clone(),
                panicked: panicked.clone(),
                deadline: deadline.as_nanos(),
            })
            .collect();

        let shard0 = args.remove(0);
        let workers: Vec<_> = args
            .into_iter()
            .map(|a| {
                std::thread::spawn(move || drive(a)) // check:allow(os-thread) — the sharded runtime's sanctioned worker threads; each owns its Simulation outright (DESIGN.md §13)
            })
            .collect();

        let mut results = vec![drive(shard0)];
        for w in workers {
            results.push(w.join().unwrap_or_else(Err));
        }

        let mut report = RunReport {
            shard_lines: Vec::with_capacity(n),
            ctx_switches: Vec::with_capacity(n),
            spawned_total: 0,
            live_tasks: 0,
        };
        let mut first_panic = None;
        for r in results {
            match r {
                Ok(o) => {
                    report.shard_lines.push(o.lines);
                    report.ctx_switches.push(o.ctx);
                    report.spawned_total += o.spawned;
                    report.live_tasks += o.live;
                }
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        report
    }
}

type PanicPayload = Box<dyn std::any::Any + Send>;

/// One shard's whole life: build, setup, lookahead loop, finishers.
///
/// Panics anywhere are converted into `Err` after the shard has (a)
/// counted itself out of the setup rendezvous, (b) published a
/// `u64::MAX` horizon and (c) set the shared panic flag — so the other
/// shards always run to their deadline instead of hanging.
fn drive(mut args: ShardArgs) -> Result<ShardOutcome, PanicPayload> {
    let setups = std::mem::take(&mut args.setups);
    let result = catch_unwind(AssertUnwindSafe(|| drive_body(&args, setups)));

    // Always release anyone waiting on this shard, success or panic.
    if result.is_err() {
        args.panicked.store(true, SeqCst);
    }
    args.horizons[args.shard].store(u64::MAX, SeqCst);
    drop(args.gate.0.lock().expect("gate mutex poisoned"));
    args.gate.1.notify_all();

    result
}

fn drive_body(args: &ShardArgs, setups: Vec<SetupFn>) -> ShardOutcome {
    struct SetupRendezvous<'a>(&'a ShardArgs);
    impl Drop for SetupRendezvous<'_> {
        // Count this shard out of the setup rendezvous on every exit
        // path — a panicking setup must not strand the other shards.
        fn drop(&mut self) {
            self.0.setup_left.fetch_sub(1, SeqCst);
            drop(self.0.gate.0.lock().expect("gate mutex poisoned"));
            self.0.gate.1.notify_all();
        }
    }

    let mut sim = Simulation::new();
    let hub = IngressHub::new(args.ports);
    sim.spawn_prio(
        "shard:dispatch",
        Priority::High,
        Dispatcher::new(hub.clone()),
    );

    let mut env = ShardEnv {
        shard: args.shard,
        spawner: sim.spawner(),
        hub: hub.clone(),
        blackboard: args.blackboard.clone(),
        finishers: Vec::new(),
    };
    {
        let rendezvous = SetupRendezvous(args);
        for f in setups {
            f(&mut env);
        }
        drop(rendezvous);
    }

    // Wait for every shard to finish setup before any clock starts:
    // blackboard writes all happen before any blackboard read at t >= 0.
    {
        let mut guard = args.gate.0.lock().expect("gate mutex poisoned");
        while args.setup_left.load(SeqCst) > 0 && !args.panicked.load(SeqCst) {
            guard = args.gate.1.wait(guard).expect("gate mutex poisoned");
        }
    }

    // The conservative-lookahead loop. Safe target: no neighbour can
    // affect this shard sooner than its published horizon plus the
    // tightest port latency, so running to the min over in-edges (capped
    // at the deadline) can never receive an event from the "past".
    while !args.panicked.load(SeqCst) {
        let now = sim.now().as_nanos();
        if now >= args.deadline {
            break;
        }
        let target = safe_target(args);
        if target <= now {
            // Blocked on a neighbour: re-check under the gate lock, then
            // sleep until some shard publishes a new horizon. Progress is
            // guaranteed because every cross-shard port has positive
            // latency — some shard always has target > now.
            let guard = args.gate.0.lock().expect("gate mutex poisoned");
            if safe_target(args) <= now && !args.panicked.load(SeqCst) {
                drop(args.gate.1.wait(guard).expect("gate mutex poisoned"));
            }
            continue;
        }
        // Horizon reads above happened before this drain, and senders
        // push before publishing — so every entry due within this slice
        // is already in the mailbox. See Exchange's doc comment.
        for entry in args.exchange.drain() {
            hub.push_raw(entry);
        }
        hub.wake();
        sim.run_until(SimTime::from_nanos(target));
        args.horizons[args.shard].store(target, SeqCst);
        drop(args.gate.0.lock().expect("gate mutex poisoned"));
        args.gate.1.notify_all();
    }

    let lines = env.finishers.drain(..).flat_map(|f| f()).collect();
    ShardOutcome {
        lines,
        ctx: sim.context_switches(),
        spawned: sim.spawned_total(),
        live: sim.live_tasks(),
    }
}

fn safe_target(args: &ShardArgs) -> u64 {
    args.in_edges
        .iter()
        .map(|&(from, lat)| args.horizons[from].load(SeqCst).saturating_add(lat))
        .min()
        .unwrap_or(u64::MAX)
        .min(args.deadline)
}
