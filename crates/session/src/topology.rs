//! Topology builders: conference stars and point-to-point calls over
//! the ATM fabric.
//!
//! A [`Star`] attaches `n` Pandora's Boxes and one controller to a
//! central VCI-routed cell switch, each over its own full-duplex
//! multi-hop path. The well-known control circuits are installed at
//! build time; everything else — stream routes, splits, sinks — is
//! installed and removed live by the [`Controller`].

use std::rc::Rc;

use pandora::{BoxConfig, PandoraBox};
use pandora_atm::{build_duplex_path, HopConfig, PathControl, Switch, Vci};
use pandora_sim::Spawner;

use crate::control::{spawn_agent, AgentStats, Controller, ControllerConfig};
use crate::directory::{Capabilities, Directory, EndpointId, EndpointRecord};

/// Base of the well-known VCIs on which each box's agent receives
/// control (`CONTROL_VCI_BASE + port`).
pub const CONTROL_VCI_BASE: u32 = 0x7F00;

/// Base of the well-known VCIs on which each box's agent replies
/// (`REPLY_VCI_BASE + port`). Distinct per box so the controller's
/// reassembler never interleaves two agents' frames on one circuit.
pub const REPLY_VCI_BASE: u32 = 0x7E00;

/// Box `i`'s well-known (control, reply) circuit pair.
pub(crate) fn control_vcis(i: usize) -> (Vci, Vci) {
    (
        Vci(CONTROL_VCI_BASE + i as u32),
        Vci(REPLY_VCI_BASE + i as u32),
    )
}

/// Seed of attachment `i` (box `i`, or the controller at `i == n`) under
/// the star's master seed.
pub(crate) fn attachment_seed(master: u64, i: usize) -> u64 {
    master.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9)
}

/// Installs box `i`'s well-known control circuits on the fabric —
/// controller → box `i`, and box `i`'s replies → the controller's port
/// `n` — and registers the box in the directory.
pub(crate) fn install_control_circuit(
    switch: &Switch,
    directory: &mut Directory,
    i: usize,
    n: usize,
    name: &str,
    caps: Capabilities,
) -> EndpointId {
    let (control_vci, reply_vci) = control_vcis(i);
    switch.route(control_vci, i, control_vci);
    switch.route(reply_vci, n, reply_vci);
    directory.register(EndpointRecord {
        name: name.to_string(),
        caps,
        port: i,
        control_vci,
        reply_vci,
    })
}

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
    /// Cell capacity of each fabric output port. Jitter bursts on an
    /// attachment can release many cells back-to-back; the port queue
    /// must absorb such a burst or drop (P5: drop, never block).
    pub port_queue: usize,
}

impl Default for StarConfig {
    fn default() -> Self {
        StarConfig {
            hops: vec![HopConfig::clean(100_000_000)],
            seed: 1,
            caps: Capabilities::standard(),
            controller: ControllerConfig::default(),
            box_config: BoxConfig::standard,
            port_queue: 2_048,
        }
    }
}

/// One endpoint of a [`Star`]: the box, its directory id and its
/// agent's admission state.
pub struct StarNode {
    /// The box itself.
    pub boxy: Rc<PandoraBox>,
    /// The endpoint's directory id.
    pub endpoint: EndpointId,
    /// The box agent's admission statistics.
    pub agent: AgentStats,
}

/// A conference star: `n` boxes and a controller around one cell
/// switch.
pub struct Star {
    /// The attached endpoints, in port order.
    pub nodes: Vec<StarNode>,
    /// The control plane (shared so drivers can clone it into tasks).
    pub controller: Rc<Controller>,
    /// The central fabric switch.
    pub switch: Rc<Switch>,
    path_controls: Vec<(String, PathControl)>,
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
        let mut inputs = Vec::new();
        let mut box_sides = Vec::new();
        let mut path_controls = Vec::new();
        // Attachment i: the box (or controller) is the A side, the
        // switch the B side.
        for i in 0..=n {
            let name: &'static str = if i == n {
                "controller"
            } else {
                Box::leak(format!("node{i}").into_boxed_str())
            };
            let duplex =
                build_duplex_path(spawner, name, &config.hops, attachment_seed(config.seed, i));
            inputs.push(duplex.b_rx);
            path_controls.push((format!("{name}.ab"), duplex.a_to_b_ctrl));
            path_controls.push((format!("{name}.ba"), duplex.b_to_a_ctrl));
            box_sides.push((name, duplex.a_tx, duplex.a_rx, duplex.b_tx));
        }
        let (switch, port_rxs) = Switch::spawn(spawner, "star", inputs, n + 1, config.port_queue);
        let switch = Rc::new(switch);
        let mut directory = Directory::new();
        let mut pending_agents = Vec::new();
        let mut controller_side = None;
        for (i, ((name, a_tx, a_rx, b_tx), port_rx)) in
            box_sides.into_iter().zip(port_rxs).enumerate()
        {
            // Pump the switch's output port back toward the endpoint.
            spawner.spawn(&format!("star:port{i}"), async move {
                while let Ok(cell) = port_rx.recv().await {
                    if b_tx.send(cell).await.is_err() {
                        return;
                    }
                }
            });
            if i == n {
                controller_side = Some((a_tx, a_rx));
                continue;
            }
            let endpoint =
                install_control_circuit(&switch, &mut directory, i, n, name, config.caps);
            let boxy = Rc::new(PandoraBox::new(
                spawner,
                (config.box_config)(name),
                a_tx,
                a_rx,
            ));
            pending_agents.push((boxy, endpoint));
        }
        let (ctl_tx, ctl_rx) = controller_side.expect("controller attachment missing");
        let controller = Controller::spawn(
            spawner,
            directory,
            switch.clone(),
            ctl_tx,
            ctl_rx,
            config.controller,
        );
        let nodes = pending_agents
            .into_iter()
            .enumerate()
            .map(|(i, (boxy, endpoint))| {
                let (control_vci, reply_vci) = control_vcis(i);
                let agent = spawn_agent(spawner, boxy.clone(), config.caps, control_vci, reply_vci);
                StarNode {
                    boxy,
                    endpoint,
                    agent,
                }
            })
            .collect();
        let controller = Rc::new(controller);
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
            path_controls,
        }
    }

    /// Fault-injection controls of every attachment direction, named
    /// `node<i>.ab` / `node<i>.ba` / `controller.ab` / `controller.ba`
    /// — register these with a `pandora-faults` plan to disturb the
    /// signalling or media paths.
    pub fn path_controls(&self) -> &[(String, PathControl)] {
        &self.path_controls
    }
}

/// A two-box star — the videophone's point-to-point call fabric.
pub fn point_to_point(spawner: &Spawner, config: StarConfig) -> Star {
    Star::build(spawner, 2, config)
}
