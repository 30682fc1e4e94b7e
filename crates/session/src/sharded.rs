//! Sharded topology builders: the [`crate::Star`] and point-to-point
//! call fabrics, partitioned over a `pandora-shard` [`Cluster`] so every
//! box runs on the shard the placement function assigns it, with the
//! switch and controller on shard 0 (the hub).
//!
//! Every attachment crosses the cluster through a pair of ports —
//! `att{i}.in` (box → hub) and `att{i}.out` (hub → box) — **including**
//! attachments whose box is colocated with the hub, which use loopback
//! ports with the same latency. The port list, creation order, per-box
//! names and seeds depend only on the box index, never on the placement,
//! so the schedule every box observes is byte-identical across shard
//! counts (DESIGN.md §13). With `Cluster::new(1)` these builders are the
//! single-threaded baseline the equivalence suite compares against.

use std::rc::Rc;

use pandora::{BoxConfig, PandoraBox};
use pandora_atm::{build_duplex_path, build_path_controlled, Cell, HopConfig, PathControl, Switch};
use pandora_shard::{Cluster, Egress, Ingress, ShardEnv};
use pandora_sim::{LinkSender, Receiver, SimDuration};

use crate::control::{spawn_agent, AgentStats, Controller};
use crate::directory::{Directory, EndpointId};
use crate::topology::{attachment_seed, control_vcis, install_control_circuit, StarConfig};

/// Parameters of a sharded point-to-point call fabric.
#[derive(Clone)]
pub struct ShardedPairConfig {
    /// Hop profile of each direction's path.
    pub hops: Vec<HopConfig>,
    /// Master seed; the two directions derive theirs exactly as
    /// [`pandora_atm::build_duplex_path`] does.
    pub seed: u64,
    /// Builds each box's configuration from its name (`"a"` / `"b"`).
    pub box_config: fn(&'static str) -> BoxConfig,
    /// Latency of the cluster port between the two premises — the
    /// conservative-lookahead window, so it must be positive.
    pub link_latency: SimDuration,
}

/// One side of a sharded pair, handed to its hook during setup.
pub struct PairSeat {
    /// The box on this side.
    pub boxy: Rc<PandoraBox>,
    /// Fault control of this side's *outbound* path.
    pub ctrl: PathControl,
    /// The outbound path's registered fault name (`pair.ab` / `pair.ba`).
    pub path_name: &'static str,
}

type PairHook = Box<dyn FnOnce(&mut ShardEnv, &PairSeat) + Send>;

/// Builds a two-box call over `cluster`: box `a` on shard 0, box `b` on
/// shard `shard_b`. Each hook runs during its shard's setup with the
/// side's [`PairSeat`] — spawn call drivers and register `on_finish`
/// reporters there.
pub fn build_sharded_pair(
    cluster: &mut Cluster,
    config: ShardedPairConfig,
    shard_b: usize,
    on_a: impl FnOnce(&mut ShardEnv, &PairSeat) + Send + 'static,
    on_b: impl FnOnce(&mut ShardEnv, &PairSeat) + Send + 'static,
) {
    let (ab_eg, ab_in) = cluster.port::<Cell>(0, shard_b, config.link_latency, "pair.ab");
    let (ba_eg, ba_in) = cluster.port::<Cell>(shard_b, 0, config.link_latency, "pair.ba");

    let side = |name: &'static str,
                path_name: &'static str,
                seed: u64,
                egress: Egress<Cell>,
                ingress: Ingress<Cell>,
                hook: PairHook| {
        let hops = config.hops.clone();
        let box_config = config.box_config;
        move |env: &mut ShardEnv| {
            let spawner = env.spawner().clone();
            let (net_tx, path_out, _stats, ctrl) =
                build_path_controlled(&spawner, path_name, &hops, seed);
            let up_tx = env.open_egress(egress);
            spawner.spawn(&format!("pair:uplink:{name}"), async move {
                while let Ok(cell) = path_out.recv().await {
                    up_tx.send(cell);
                }
            });
            let net_rx = env.bind_ingress(ingress);
            let boxy = Rc::new(PandoraBox::new(&spawner, box_config(name), net_tx, net_rx));
            hook(
                env,
                &PairSeat {
                    boxy,
                    ctrl,
                    path_name,
                },
            );
        }
    };

    let a = side("a", "pair.ab", config.seed, ab_eg, ba_in, Box::new(on_a));
    let b = side(
        "b",
        "pair.ba",
        config.seed ^ 0xDEAD,
        ba_eg,
        ab_in,
        Box::new(on_b),
    );
    cluster.setup(0, a);
    cluster.setup(shard_b, b);
}

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

/// One box's view of a sharded star, handed to its hook during its
/// shard's setup.
pub struct NodeSeat {
    /// Box index (port number on the fabric).
    pub index: usize,
    /// The box's generated name (`node{index}`).
    pub name: &'static str,
    /// The box itself.
    pub boxy: Rc<PandoraBox>,
    /// The box agent's admission statistics.
    pub agent: AgentStats,
    /// The endpoint's directory id.
    pub endpoint: EndpointId,
    /// Fault controls of this attachment (`node{i}.ab` / `node{i}.ba`).
    pub path_controls: Vec<(String, PathControl)>,
}

/// Per-box hook of [`build_sharded_star`].
pub type NodeHook = Box<dyn FnOnce(&mut ShardEnv, &NodeSeat) + Send>;

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
    // boxes first, the controller's loopback pair last.
    let mut in_ports = Vec::with_capacity(n + 1);
    let mut out_ports = Vec::with_capacity(n + 1);
    for i in 0..=n {
        let shard = if i == n { 0 } else { place(i) };
        let (in_eg, in_in) = cluster.port::<Cell>(shard, 0, link_latency, &format!("att{i}.in"));
        let (out_eg, out_in) = cluster.port::<Cell>(0, shard, link_latency, &format!("att{i}.out"));
        in_ports.push((in_eg, in_in));
        out_ports.push((out_eg, out_in));
    }

    // Every att{i}.in ingress is a switch input and every att{i}.out
    // egress a fabric pump — all on shard 0. The matching outer halves
    // (in egress, out ingress) go to the attachment's owner: box i, or
    // the hub itself for the controller's loopback pair.
    let mut switch_ins = Vec::with_capacity(n + 1);
    let mut fabric_outs = Vec::with_capacity(n + 1);
    let mut attachments = Vec::with_capacity(n + 1);
    for ((in_eg, in_in), (out_eg, out_in)) in in_ports.into_iter().zip(out_ports) {
        switch_ins.push(in_in);
        fabric_outs.push(out_eg);
        attachments.push((in_eg, out_in));
    }
    let (ctl_in_eg, ctl_out_in) = attachments.pop().expect("controller attachment");
    build_hub(
        cluster,
        n,
        &config,
        switch_ins,
        fabric_outs,
        ctl_in_eg,
        ctl_out_in,
        on_hub,
    );

    for ((i, (in_eg, out_in)), hook) in attachments.into_iter().enumerate().zip(node_hooks) {
        let shard = place(i);
        let name: &'static str = Box::leak(format!("node{i}").into_boxed_str());
        let hops = config.hops.clone();
        let seed = attachment_seed(config.seed, i);
        let caps = config.caps;
        let box_config = config.box_config;
        cluster.setup(shard, move |env| {
            let spawner = env.spawner().clone();
            let duplex = build_duplex_path(&spawner, name, &hops, seed);
            pump_attachment(env, i, in_eg, out_in, duplex.b_rx, duplex.b_tx);
            let boxy = Rc::new(PandoraBox::new(
                &spawner,
                box_config(name),
                duplex.a_tx,
                duplex.a_rx,
            ));
            let (control_vci, reply_vci) = control_vcis(i);
            let agent = spawn_agent(&spawner, boxy.clone(), caps, control_vci, reply_vci);
            let seat = NodeSeat {
                index: i,
                name,
                boxy,
                agent,
                endpoint: EndpointId(i as u32),
                path_controls: vec![
                    (format!("{name}.ab"), duplex.a_to_b_ctrl),
                    (format!("{name}.ba"), duplex.b_to_a_ctrl),
                ],
            };
            hook(env, &seat);
        });
    }
}

/// Binds attachment `i`'s two cluster-port halves on the current shard:
/// the path's switch-side egress is pumped into `att{i}.in`, and
/// `att{i}.out` is pumped into the path's switch-side sender.
fn pump_attachment(
    env: &ShardEnv,
    i: usize,
    in_eg: Egress<Cell>,
    out_in: Ingress<Cell>,
    b_rx: Receiver<Cell>,
    b_tx: LinkSender<Cell>,
) {
    let spawner = env.spawner().clone();
    let up_tx = env.open_egress(in_eg);
    spawner.spawn(&format!("star:uplink{i}"), async move {
        while let Ok(cell) = b_rx.recv().await {
            up_tx.send(cell);
        }
    });
    let down_rx = env.bind_ingress(out_in);
    spawner.spawn(&format!("star:port{i}"), async move {
        while let Ok(cell) = down_rx.recv().await {
            if b_tx.send(cell).await.is_err() {
                return;
            }
        }
    });
}

#[allow(clippy::too_many_arguments)]
fn build_hub(
    cluster: &mut Cluster,
    n: usize,
    config: &StarConfig,
    switch_ins: Vec<Ingress<Cell>>,
    fabric_outs: Vec<Egress<Cell>>,
    ctl_in_eg: Egress<Cell>,
    ctl_out_in: Ingress<Cell>,
    on_hub: impl FnOnce(&mut ShardEnv, &HubSeat) + Send + 'static,
) {
    let hops = config.hops.clone();
    let seed = attachment_seed(config.seed, n);
    let caps = config.caps;
    let controller_config = config.controller;
    let port_queue = config.port_queue;
    cluster.setup(0, move |env| {
        let spawner = env.spawner().clone();

        // The controller's own attachment: a duplex path plus the same
        // loopback port pumps every box attachment gets.
        let duplex = build_duplex_path(&spawner, "controller", &hops, seed);
        pump_attachment(env, n, ctl_in_eg, ctl_out_in, duplex.b_rx, duplex.b_tx);
        let path_controls = vec![
            ("controller.ab".to_string(), duplex.a_to_b_ctrl),
            ("controller.ba".to_string(), duplex.b_to_a_ctrl),
        ];

        // Fabric: inputs are the att{i}.in ingress receivers (box order,
        // controller last), outputs are pumped into att{i}.out.
        let inputs: Vec<Receiver<Cell>> = switch_ins
            .into_iter()
            .map(|ing| env.bind_ingress(ing))
            .collect();
        let (switch, port_rxs) = Switch::spawn(&spawner, "star", inputs, n + 1, port_queue);
        let switch = Rc::new(switch);
        for (i, (port_rx, out_eg)) in port_rxs.into_iter().zip(fabric_outs).enumerate() {
            let tx = env.open_egress(out_eg);
            spawner.spawn(&format!("star:fabric{i}"), async move {
                while let Ok(cell) = port_rx.recv().await {
                    tx.send(cell);
                }
            });
        }

        let mut directory = Directory::new();
        let endpoints: Vec<EndpointId> = (0..n)
            .map(|i| {
                let name = format!("node{i}");
                install_control_circuit(&switch, &mut directory, i, n, &name, caps)
            })
            .collect();

        let controller = Rc::new(Controller::spawn(
            &spawner,
            directory,
            switch.clone(),
            duplex.a_tx,
            duplex.a_rx,
            controller_config,
        ));
        if controller_config.lease.is_some() {
            controller.spawn_lease_probes(&spawner);
        }

        on_hub(
            env,
            &HubSeat {
                controller,
                switch,
                endpoints,
                path_controls,
            },
        );
    });
}
