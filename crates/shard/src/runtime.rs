//! The run: one `Simulation` on the calling thread.

use std::rc::Rc;

use pandora_sim::{Priority, SimTime, Simulation};

use crate::cluster::{Cluster, ShardEnv};
use crate::hub::{Dispatcher, IngressHub};

/// What a finished cluster run observed.
pub struct RunReport {
    lines: Vec<String>,
    events: u64,
    /// Tasks ever spawned.
    pub spawned_total: u64,
    /// Tasks still live at the deadline.
    pub live_tasks: usize,
}

impl RunReport {
    /// Every `on_finish` line, in registration order — the deterministic
    /// trace replays are compared on.
    pub fn merged_lines(&self) -> Vec<String> {
        self.lines.clone()
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
    /// and collects the `on_finish` lines in that same order. A zero
    /// `deadline` runs the setup closures and no task.
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
        RunReport {
            lines: env.finishers.into_iter().flat_map(|f| f()).collect(),
            events: sim.context_switches(),
            spawned_total: sim.spawned_total(),
            live_tasks: sim.live_tasks(),
        }
    }
}
