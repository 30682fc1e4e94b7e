//! The run: one `Simulation` on the calling thread.

use std::rc::Rc;
use std::sync::LazyLock;

use pandora_sim::{Priority, SimTime, Simulation};

use crate::cluster::{Cluster, ShardEnv};
use crate::hub::{Dispatcher, IngressHub};

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

impl Cluster {
    /// Spawns the ingress dispatcher (`shard:dispatch`), runs the setup
    /// closures in registration order, runs the simulation to `deadline`
    /// and, before it drops, calls the `on_finish` closures in that order.
    /// A zero `deadline` runs the setup closures and no task.
    pub fn run(self, deadline: SimTime) -> RunReport {
        let mut sim = Simulation::new();
        let hub = Rc::new(IngressHub::default());
        sim.spawn_prio(
            "shard:dispatch",
            Priority::High,
            Dispatcher::new(hub.clone()),
        );
        let mut env = ShardEnv {
            spawner: sim.spawner(),
            hub,
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
