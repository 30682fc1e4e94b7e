//! The sharded star: the conference fabric [`crate::Star::build`] builds,
//! placed over a `pandora-shard` [`Cluster`] so every box runs on the
//! shard the placement function assigns it, with the switch and
//! controller on shard 0 (the hub). One star description
//! (`topology.rs`: attachment naming and seeds, fabric, control circuits,
//! directory, agents), two ways to place it; a videophone is the two-box
//! case of either.
//!
//! Every attachment crosses the cluster through a pair of ports —
//! `att{i}.in` (box → hub) and `att{i}.out` (hub → box) — **including**
//! attachments whose box is colocated with the hub, which use loopback
//! ports with the same latency. The port list, creation order, per-box
//! names and seeds depend only on the box index, never on the placement,
//! so the schedule every box observes is byte-identical across shard
//! counts (DESIGN.md §13). With `Cluster::new(1)` this builder is the
//! single-threaded baseline the equivalence suite compares against.

use std::rc::Rc;

use pandora::PandoraBox;
use pandora_atm::{Cell, PathControl, Switch};
use pandora_shard::{Cluster, Egress, ShardEnv};
use pandora_sim::{Receiver, SimDuration};

use crate::control::Controller;
use crate::directory::EndpointId;
use crate::topology::{attach, fabric_ports, spawn_fabric, StarConfig, StarNode};

/// The hub's view of a sharded star, handed to `on_hub` during shard 0's
/// setup.
pub struct HubSeat {
    /// The control plane.
    pub controller: Rc<Controller>,
    /// The central fabric switch.
    pub switch: Rc<Switch>,
    /// Directory ids of `node0..`, in box order.
    pub endpoints: Vec<EndpointId>,
    /// Fault controls of the controller's own attachment
    /// (`controller.ab` / `controller.ba`).
    pub path_controls: Vec<(String, PathControl)>,
}

/// Per-box hook of [`build_sharded_star`].
pub type NodeHook = Box<dyn FnOnce(&mut ShardEnv, &StarNode) + Send>;

/// Builds the conference star [`crate::Star::build`] builds from the same
/// `config`, over `cluster`: box `i` on shard `place(i)`, switch and
/// controller on shard 0. `link_latency` is the latency of each
/// attachment's cluster ports (both directions) — the lookahead window,
/// so it must be positive. `node_hooks\[i\]` runs during box `i`'s shard
/// setup; `on_hub` runs during shard 0's setup after the controller is
/// live.
///
/// # Panics
///
/// Panics if `n` is zero, `node_hooks` is not `n` long, or `place`
/// returns an out-of-range shard.
pub fn build_sharded_star(
    cluster: &mut Cluster,
    n: usize,
    config: StarConfig,
    link_latency: SimDuration,
    place: impl Fn(usize) -> usize,
    on_hub: impl FnOnce(&mut ShardEnv, &HubSeat) + Send + 'static,
    node_hooks: Vec<NodeHook>,
) {
    assert!(n > 0, "a star needs at least one box");
    assert!(node_hooks.len() == n, "one node hook per box required");

    // Attachment ports in canonical order: att{i}.in then att{i}.out,
    // boxes first, the controller's loopback pair last. Every att{i}.in
    // ingress is a switch input and every att{i}.out egress a fabric
    // pump — all on shard 0. The matching outer halves (in egress, out
    // ingress) go to the attachment's owner: box i, or the hub itself
    // for the controller's pair. The owner pumps its path's switch-side
    // egress into att{i}.in (`star:uplink{i}`) and builds the path back
    // over att{i}.out's bound ingress.
    let mut switch_ins = Vec::with_capacity(n + 1);
    let mut fabric_outs = Vec::with_capacity(n + 1);
    let mut attachments = Vec::with_capacity(n + 1);
    for i in 0..=n {
        let shard = if i == n { 0 } else { place(i) };
        let (in_eg, in_in) = cluster.port::<Cell>(shard, 0, link_latency, &format!("att{i}.in"));
        let (out_eg, out_in) = cluster.port::<Cell>(0, shard, link_latency, &format!("att{i}.out"));
        switch_ins.push(in_in);
        fabric_outs.push(out_eg);
        attachments.push((in_eg, out_in));
    }

    let (ctl_in_eg, ctl_out_in) = attachments.pop().expect("controller attachment");
    let hub_config = config.clone();
    cluster.setup(0, move |env| {
        let config = hub_config;
        let spawner = env.spawner().clone();

        // The controller's own attachment: a duplex path over the same
        // loopback ports every box attachment gets.
        let from_switch = env.bind_ingress(ctl_out_in);
        let (_, path_controls, duplex) = attach(&spawner, n, n, &config, from_switch);
        pump_into_port(env, &format!("star:uplink{n}"), duplex.b_rx, ctl_in_eg);

        // Fabric: inputs are the att{i}.in ingress receivers (box order,
        // controller last), outputs are pumped into att{i}.out.
        let inputs: Vec<Receiver<Cell>> = switch_ins
            .into_iter()
            .map(|ing| env.bind_ingress(ing))
            .collect();
        let (core, port_rxs) = fabric_ports(n);
        let (switch, directory) = spawn_fabric(&spawner, core, inputs, n, &config);
        for (i, (port_rx, out_eg)) in port_rxs.into_iter().zip(fabric_outs).enumerate() {
            pump_into_port(env, &format!("star:fabric{i}"), port_rx, out_eg);
        }

        let controller = Rc::new(Controller::spawn(
            &spawner,
            directory,
            switch.clone(),
            duplex.a_tx,
            duplex.a_rx,
            config.controller,
        ));
        if config.controller.lease.is_some() {
            controller.spawn_lease_probes(&spawner);
        }

        on_hub(
            env,
            &HubSeat {
                controller,
                switch,
                endpoints: (0..n as u32).map(EndpointId).collect(),
                path_controls,
            },
        );
    });

    for ((i, (in_eg, out_in)), hook) in attachments.into_iter().enumerate().zip(node_hooks) {
        let config = config.clone();
        cluster.setup(place(i), move |env| {
            let spawner = env.spawner().clone();
            let from_switch = env.bind_ingress(out_in);
            let (name, path_controls, duplex) = attach(&spawner, i, n, &config, from_switch);
            pump_into_port(env, &format!("star:uplink{i}"), duplex.b_rx, in_eg);
            let box_config = (config.box_config)(name);
            let boxy = Rc::new(PandoraBox::new(
                &spawner,
                box_config,
                duplex.a_tx,
                duplex.a_rx,
            ));
            let node = StarNode::start(&spawner, i, name, config.caps, boxy, path_controls);
            hook(env, &node);
        });
    }
}

/// Opens `egress` and spawns the task that pumps `rx` into it.
fn pump_into_port(env: &ShardEnv, task: &str, rx: Receiver<Cell>, egress: Egress<Cell>) {
    let tx = env.open_egress(egress);
    env.spawner().spawn(task, async move {
        while let Ok(cell) = rx.recv().await {
            tx.send(cell);
        }
    });
}
