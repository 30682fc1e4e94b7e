//! The output decoupling buffers of a box (§3.7.1) pinned from outside:
//! a fan-out burst into the 8-slot `net-audio` buffer, and the task census
//! of a standard box.

use pandora::{connect_pair, BoxConfig, OutputId, PandoraBox, StreamKind};
use pandora_atm::{HopConfig, Vci};
use pandora_segment::{AudioSegment, Segment, SequenceNumber, Timestamp};
use pandora_sim::{SimDuration, SimTime, Simulation};

/// `(switch forwarded, switch dropped, audio segments net-out sent)` after
/// one segment of a stream routed to `vcis` network VCIs is injected at
/// 1 ms, and again at 3 ms: each injection offers every copy in one instant.
fn fan_out(vcis: u32) -> (u64, u64, u64) {
    let mut sim = Simulation::new();
    let pair = connect_pair(
        &sim.spawner(),
        BoxConfig::standard("boxa"),
        BoxConfig::standard("boxb"),
        &[HopConfig::clean(50_000_000)],
        7,
    );
    let stream = pair.a.alloc_stream();
    let dests = (0..vcis)
        .map(|i| OutputId::Network(Vci(0x100 + i)))
        .collect();
    pair.a.set_route(stream, StreamKind::Audio, dests);
    let injector = pair.a.injector();
    sim.spawn("inject", async move {
        for (i, at) in [1, 3].into_iter().enumerate() {
            pandora_sim::delay_until(SimTime::from_millis(at)).await;
            let seg = AudioSegment::from_blocks(
                SequenceNumber(i as u32),
                Timestamp(i as u32),
                vec![0x55; 64],
            );
            injector.send((stream, Segment::Audio(seg))).await.unwrap();
        }
    });
    sim.run_until(SimTime::ZERO + SimDuration::from_millis(20));
    let a = &pair.a;
    (
        a.switch_stats.forwarded(),
        a.switch_stats.dropped_total(),
        a.net_out_stats.audio_segments(),
    )
}

#[test]
fn a_fan_out_burst_into_the_net_audio_buffer_drops_only_past_its_slots() {
    // A burst fits ten copies: the eight slots, the one output slot, and
    // the copy net-out takes in hand before the switch offers the next —
    // an offer deschedules the switch, and net-out is then blocked on
    // the wire. A buffer that let the switch run on would fit nine.
    for (vcis, want) in [(10, (20, 0, 20)), (12, (20, 4, 20)), (16, (20, 12, 20))] {
        assert_eq!(fan_out(vcis), want, "{vcis} VCIs");
    }
}

/// Tasks a standard box spawns before any stream is started.
fn box_tasks() -> (usize, Vec<String>) {
    let sim = Simulation::new();
    let (net_tx, _wire) = pandora_sim::link_queue::<pandora_atm::Cell>();
    let (_cells_tx, net_rx) = pandora_sim::channel::<pandora_atm::Cell>();
    let _boxy = PandoraBox::new(&sim.spawner(), BoxConfig::standard("boxa"), net_tx, net_rx);
    let names = sim.dump_tasks().into_iter().map(|(name, _)| name).collect();
    (sim.live_tasks(), names)
}

/// A standard box's tasks while each of its six decoupling buffers was a
/// reader and a writer task.
const BOX_TASKS_WITH_BUFFER_PROCESSES: usize = 25;

#[test]
fn a_standard_box_spawns_no_decoupling_task() {
    let (live, names) = box_tasks();
    assert!(!names.iter().any(|n| n.starts_with("dec:")), "{names:?}");
    assert_eq!(live, BOX_TASKS_WITH_BUFFER_PROCESSES - 12, "{names:?}");
}
