//! # pandora-shard — the cluster shell: setup closures and a run report
//!
//! A [`Cluster`] is one [`pandora_sim::Simulation`] on the calling thread:
//! setup closures registered in order ([`Cluster::setup`]) spawn a
//! topology's tasks through a [`ShardEnv`], and [`Cluster::run`] runs the
//! simulation to a deadline and hands back a [`RunReport`] — the
//! finishers' lines, formatted only when read, and the executor's counts
//! (DESIGN.md §13). The overlay broadcast is built on it; the crate ships
//! no topology and no port of its own.
//!
//! The name and the shard arguments of [`Cluster::new`] and
//! [`Cluster::setup`] are what is left of the threaded runtime that used
//! to split this loop across OS threads; ROADMAP items 4-I and 10 delete
//! them with the crate.

#![deny(missing_docs)]

use std::sync::LazyLock;

use pandora_sim::{SimTime, Simulation, Spawner};

#[cfg(test)]
mod tests;

type SetupFn = Box<dyn FnOnce(&mut ShardEnv)>;
type FinishFn = Box<dyn FnOnce() -> Box<dyn Render + Send>>;

/// A simulation under construction: the setup closures that will build
/// its topology on the event loop.
pub struct Cluster {
    shards: usize,
    setups: Vec<SetupFn>,
}

impl Cluster {
    /// An empty cluster. `shards` is range-checked and has no other
    /// effect: the fenced benchmark harness still passes 1 and 2, and
    /// ROADMAP items 4-I and 10 delete the argument with `_sh2` and the
    /// `shard.*` rows.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Cluster {
        assert!(shards > 0, "a cluster needs at least one shard");
        Cluster {
            shards,
            setups: Vec::new(),
        }
    }

    /// Registers a setup closure to run on the event loop before the
    /// clock starts; closures run in registration order. `shard` is
    /// range-checked against [`Cluster::new`]'s and has no other effect
    /// (ROADMAP items 4-I and 10 delete it).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn setup(&mut self, shard: usize, f: impl FnOnce(&mut ShardEnv) + 'static) {
        assert!(shard < self.shards, "setup shard {shard} out of range");
        self.setups.push(Box::new(f));
    }

    /// Runs the setup closures in registration order, runs the simulation
    /// to `deadline` and, before it drops, calls the `on_finish` closures
    /// in that order. A zero `deadline` runs the setup closures and no
    /// task.
    pub fn run(self, deadline: SimTime) -> RunReport {
        let mut sim = Simulation::new();
        let mut env = ShardEnv {
            spawner: sim.spawner(),
            finishers: Vec::new(),
        };
        for f in self.setups {
            f(&mut env);
        }
        if deadline > sim.now() {
            sim.run_until(deadline);
        }
        let reads: Vec<_> = env.finishers.into_iter().map(|f| f()).collect();
        let render = move || reads.into_iter().flat_map(Render::render).collect();
        RunReport {
            lines: LazyLock::new(Box::new(render)),
            events: sim.context_switches(),
            spawned_total: sim.spawned_total(),
            live_tasks: sim.live_tasks(),
        }
    }
}

/// The cluster's face inside setup closures: spawn tasks, register
/// end-of-run reporters.
pub struct ShardEnv {
    spawner: Spawner,
    finishers: Vec<FinishFn>,
}

impl ShardEnv {
    /// Spawner onto the event loop.
    pub fn spawner(&self) -> &Spawner {
        &self.spawner
    }

    /// Registers a closure that reads, at the deadline, what it reports
    /// into a [`Render`] value; its lines land in
    /// [`RunReport::merged_lines`], in registration order. The value is
    /// `Send`, so it cannot hold the run's `Rc` tables past the run.
    pub fn on_finish<R: Render + Send + 'static>(&mut self, f: impl FnOnce() -> R + 'static) {
        self.finishers.push(Box::new(|| Box::new(f())));
    }
}

/// What a finisher read at the deadline ([`ShardEnv::on_finish`]). Its lines
/// are made on the first [`RunReport::merged_lines`] call, so a report
/// dropped unread formats nothing; lines already made render as themselves.
/// A finisher's value is `Send`, so it holds no `Rc` into the run.
pub trait Render {
    /// The lines, in order.
    fn render(self: Box<Self>) -> Vec<String>;
}

impl Render for Vec<String> {
    fn render(self: Box<Self>) -> Vec<String> {
        *self
    }
}

/// What a finished cluster run observed.
pub struct RunReport {
    lines: LazyLock<Vec<String>, Box<dyn FnOnce() -> Vec<String> + Send>>,
    events: u64,
    /// Tasks ever spawned.
    pub spawned_total: u64,
    /// Tasks still live at the deadline.
    pub live_tasks: usize,
}

impl RunReport {
    /// Every `on_finish` line, in registration order — the deterministic
    /// trace replays are compared on. The first call renders them.
    pub fn merged_lines(&self) -> Vec<String> {
        LazyLock::force(&self.lines).clone()
    }

    /// Context switches (task polls) of the run — the "events executed"
    /// figure the benchmark divides by wall time.
    pub fn events(&self) -> u64 {
        self.events
    }
}
