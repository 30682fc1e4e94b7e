//! The star topology: conferences and point-to-point calls over the ATM
//! fabric.
//!
//! A [`Star`] attaches `n` Pandora's Boxes and one controller to a
//! central VCI-routed cell switch, each over its own full-duplex
//! multi-hop path. The well-known control circuits are installed at
//! build time; everything else — stream routes, splits, sinks — is
//! installed and removed live by the [`Controller`].
//!
//! [`Star::build`] is the one star builder. The switch is a
//! [`SwitchCore`], no task: the path from an endpoint ends in it, and the
//! path from it back to the endpoint is built over the queue the cells
//! are already in (`attach`'s `from_switch`): output port `i` itself.

use std::rc::Rc;

use pandora::{BoxConfig, PandoraBox};
use pandora_atm::{build_duplex_path, Cell, DuplexPath, HopConfig, PathControl, SwitchCore, Vci};
use pandora_sim::{Receiver, Spawner};

use crate::control::{spawn_agent, AgentStats, Controller, ControllerConfig};
use crate::directory::{Capabilities, Directory, EndpointId, EndpointRecord};

/// Base of the well-known VCIs on which each box's agent receives
/// control (`CONTROL_VCI_BASE + port`).
pub(crate) const CONTROL_VCI_BASE: u32 = 0x7F00;

/// Base of the well-known VCIs on which each box's agent replies
/// (`REPLY_VCI_BASE + port`). Distinct per box so the controller's
/// reassembler never interleaves two agents' frames on one circuit.
pub(crate) const REPLY_VCI_BASE: u32 = 0x7E00;

/// Cell capacity of each fabric output port. Jitter bursts on an
/// attachment can release many cells back-to-back; the port queue must
/// absorb such a burst or drop (P5: drop, never block).
const PORT_QUEUE_CELLS: usize = 2_048;

/// Parameters of a [`Star`] conference fabric.
#[derive(Clone)]
pub struct StarConfig {
    /// Hop profile of every attachment (both directions).
    pub hops: Vec<HopConfig>,
    /// Master seed; each attachment derives its own.
    pub seed: u64,
    /// Capability descriptor every endpoint advertises.
    pub caps: Capabilities,
    /// Controller signalling tunables.
    pub controller: ControllerConfig,
    /// Builds each box's configuration from its generated name.
    pub box_config: fn(&'static str) -> BoxConfig,
}

impl Default for StarConfig {
    fn default() -> Self {
        StarConfig {
            hops: vec![HopConfig::clean(100_000_000)],
            seed: 1,
            caps: Capabilities::standard(),
            controller: ControllerConfig::default(),
            box_config: BoxConfig::standard,
        }
    }
}

/// One endpoint of a star: the box, its directory id, its agent's
/// admission state and the fault controls of its attachment — what
/// [`Star::build`] returns per box.
pub struct StarNode {
    /// Box index (port number on the fabric).
    pub index: usize,
    /// The box's generated name (`node{index}`).
    pub name: &'static str,
    /// The box itself.
    pub boxy: Rc<PandoraBox>,
    /// The endpoint's directory id.
    pub endpoint: EndpointId,
    /// The box agent's admission statistics.
    pub agent: AgentStats,
    /// Fault controls of this attachment (`node{i}.ab` / `node{i}.ba`).
    pub path_controls: Vec<(String, PathControl)>,
}

/// Builds attachment `i` of an `n`-box star — box `i`, or the controller
/// at `i == n`: names it, derives its seed from the master seed, spawns
/// its duplex path — the A side is the endpoint's, the B side the
/// switch's: the path in ends in `switch`, and the path out takes the
/// endpoint's cells straight out of `from_switch` — and names the path's
/// two fault controls (`{name}.ab` / `{name}.ba`).
fn attach(
    spawner: &Spawner,
    i: usize,
    n: usize,
    config: &StarConfig,
    switch: &SwitchCore,
    from_switch: Receiver<Cell>,
) -> (&'static str, Vec<(String, PathControl)>, DuplexPath) {
    let name = if i == n {
        "controller".to_string()
    } else {
        format!("node{i}")
    };
    let name: &'static str = Box::leak(name.into_boxed_str());
    let seed = config.seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9);
    let duplex = build_duplex_path(spawner, name, &config.hops, seed, switch, from_switch);
    let path_controls = vec![
        (format!("{name}.ab"), duplex.a_to_b_ctrl.clone()),
        (format!("{name}.ba"), duplex.b_to_a_ctrl.clone()),
    ];
    (name, path_controls, duplex)
}

/// A conference star: `n` boxes and a controller around one cell
/// switch.
pub struct Star {
    /// The attached endpoints, in port order.
    pub nodes: Vec<StarNode>,
    /// The control plane (shared so drivers can clone it into tasks).
    pub controller: Rc<Controller>,
    /// The central fabric switch.
    pub switch: SwitchCore,
    controller_paths: Vec<(String, PathControl)>,
}

impl Star {
    /// Builds a star of `n` boxes named `node0..` plus a controller on
    /// port `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn build(spawner: &Spawner, n: usize, config: StarConfig) -> Star {
        assert!(n > 0, "a star needs at least one box");
        let (switch, port_rxs) = SwitchCore::new(n + 1, PORT_QUEUE_CELLS);
        let mut ends = Vec::with_capacity(n + 1);
        for (i, port_rx) in port_rxs.into_iter().enumerate() {
            let (name, path_controls, duplex) = attach(spawner, i, n, &config, &switch, port_rx);
            ends.push((name, path_controls, duplex.a_tx, duplex.a_rx));
        }
        // The fabric: every box's well-known control circuits —
        // controller → box `i`, and box `i`'s replies → the controller's
        // port `n` — and a directory of the boxes in port order.
        let mut directory = Directory::new();
        let mut circuits = Vec::with_capacity(n);
        for (i, (name, ..)) in ends[..n].iter().enumerate() {
            let control_vci = Vci(CONTROL_VCI_BASE + i as u32);
            let reply_vci = Vci(REPLY_VCI_BASE + i as u32);
            switch.route(control_vci, i, control_vci);
            switch.route(reply_vci, n, reply_vci);
            let endpoint = directory.register(EndpointRecord {
                name: name.to_string(),
                caps: config.caps,
                port: i,
                control_vci,
                reply_vci,
            });
            circuits.push((endpoint, control_vci, reply_vci));
        }
        // The controller's attachment (the last) has no box.
        let (_, controller_paths, ctl_tx, ctl_rx) =
            ends.pop().expect("controller attachment missing");
        let boxes: Vec<_> = ends
            .into_iter()
            .map(|(name, path_controls, a_tx, a_rx)| {
                let box_config = (config.box_config)(name);
                let boxy = Rc::new(PandoraBox::new(spawner, box_config, a_tx, a_rx));
                (name, boxy, path_controls)
            })
            .collect();
        let controller = Rc::new(Controller::spawn(
            spawner,
            directory,
            switch.clone(),
            ctl_tx,
            ctl_rx,
            config.controller,
        ));
        // The agents sit between the controller and its probes in spawn
        // order, which decides same-instant run order.
        let nodes = boxes
            .into_iter()
            .zip(circuits)
            .enumerate()
            .map(
                |(index, ((name, boxy, path_controls), (endpoint, control, reply)))| {
                    let agent = spawn_agent(spawner, boxy.clone(), config.caps, control, reply);
                    StarNode {
                        index,
                        name,
                        boxy,
                        endpoint,
                        agent,
                        path_controls,
                    }
                },
            )
            .collect();
        // Failure detection is opt-in: with a lease config the
        // controller probes every box on the command path and
        // reconverges conferences around crashes.
        if config.controller.lease.is_some() {
            controller.spawn_lease_probes(spawner);
        }
        Star {
            nodes,
            controller,
            switch,
            controller_paths,
        }
    }

    /// Fault-injection controls of every attachment direction, named
    /// `node<i>.ab` / `node<i>.ba` / `controller.ab` / `controller.ba`
    /// — register these with a `pandora-faults` plan to disturb the
    /// signalling or media paths.
    pub fn path_controls(&self) -> impl Iterator<Item = &(String, PathControl)> {
        self.nodes
            .iter()
            .flat_map(|node| &node.path_controls)
            .chain(&self.controller_paths)
    }
}

/// A two-box star — the videophone's point-to-point call fabric.
pub fn point_to_point(spawner: &Spawner, config: StarConfig) -> Star {
    Star::build(spawner, 2, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_sim::{delay, SimDuration, Simulation};
    use std::cell::RefCell;

    #[test]
    fn a_star_switches_in_its_paths() {
        // The fabric is no task: a star's tasks are its paths, boxes (each
        // with its own `switch:node{i}` board task), controller and agents.
        let sim = Simulation::new();
        let _star = Star::build(&sim.spawner(), 2, StarConfig::default());
        let tasks = sim.dump_tasks();
        assert!(tasks.iter().any(|(name, _)| name == "hop:node0.ab.0"));
        assert!(tasks.iter().all(|(name, _)| name != "switch:star"));

        // Two endpoints release a cell each in one instant toward the
        // listener on port 2. Port 1's sender runs first, so its wire arms
        // its timer first and its release stage runs first: the listener
        // gets port 1's cell ahead of port 0's, in the stages' run order,
        // not in port order.
        let mut sim = Simulation::new();
        let spawner = sim.spawner();
        let config = StarConfig::default();
        let (core, mut port_rxs) = SwitchCore::new(3, PORT_QUEUE_CELLS);
        let listener_port = port_rxs.pop().expect("port 2");
        let mut senders = Vec::new();
        for (i, from_switch) in port_rxs.into_iter().enumerate() {
            let (_, _, duplex) = attach(&spawner, i, 3, &config, &core, from_switch);
            core.route(Vci(10 + i as u32), 2, Vci(10 + i as u32));
            senders.push(duplex.a_tx);
        }
        for (i, a_tx) in senders.into_iter().enumerate().rev() {
            spawner.spawn(&format!("endpoint{i}"), async move {
                let cell = Cell::new(Vci(10 + i as u32), 0, true, &[]);
                a_tx.send(cell).await.expect("path open");
            });
        }
        let arrived = Rc::new(RefCell::new(Vec::new()));
        let a = arrived.clone();
        spawner.spawn("listener", async move {
            while let Ok(cell) = listener_port.recv().await {
                a.borrow_mut().push((cell.vci, pandora_sim::now()));
            }
        });
        sim.run_until_idle();
        let arrived = arrived.borrow();
        assert_eq!(arrived.len(), 2);
        assert_eq!(arrived[0].1, arrived[1].1, "released in one instant");
        assert_eq!(
            arrived.iter().map(|&(vci, _)| vci).collect::<Vec<_>>(),
            [Vci(11), Vci(10)]
        );
    }

    #[test]
    fn a_port_takes_2048_cells_and_its_wire_one_more() {
        // Nothing stands between a port and the wire that drains it: with
        // the wire stopped, the fabric accepts the queue (2,048) and the
        // one cell the wire had already taken, and counts every cell
        // after that as overflow.
        let mut sim = Simulation::new();
        let spawner = sim.spawner();
        let (core, mut port_rxs) = SwitchCore::new(2, PORT_QUEUE_CELLS);
        let _controller_port = port_rxs.pop();
        let from_switch = port_rxs.pop().expect("port 0");
        let config = StarConfig::default();
        let (_, controls, duplex) = attach(&spawner, 0, 1, &config, &core, from_switch);
        let (name, to_endpoint) = &controls[1];
        assert_eq!(name, "node0.ba");
        let first_link = to_endpoint.link(0).expect("hop 0");
        first_link.set_up(false);

        core.route(Vci(9), 0, Vci(9));
        let offered = 3_000;
        let fabric = core.clone();
        spawner.spawn("flood", async move {
            for seq in 0..offered {
                fabric.dispatch_cell(Cell::new(Vci(9), seq, false, &[]));
                delay(SimDuration::from_micros(1)).await;
            }
        });
        let arrived = Rc::new(RefCell::new(Vec::new()));
        let a = arrived.clone();
        let a_rx = duplex.a_rx;
        spawner.spawn("endpoint", async move {
            while let Ok(cell) = a_rx.recv().await {
                a.borrow_mut().push(cell.seq);
            }
        });
        sim.run_until_idle();
        assert_eq!(core.forwarded(), 2_048 + 1);
        assert_eq!(core.forwarded() + core.overflow(), u64::from(offered));
        assert!(arrived.borrow().is_empty(), "delivered over a downed link");

        first_link.set_up(true);
        sim.run_until_idle();
        let accepted: Vec<u32> = (0..2_048 + 1).collect();
        assert_eq!(
            *arrived.borrow(),
            accepted,
            "accepted cells lost or reordered"
        );
    }
}
