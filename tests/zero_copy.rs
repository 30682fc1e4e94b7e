//! The two-copy invariant (§3.4, DESIGN.md §9): payload bytes are copied
//! into the slab once on input and out of it once on output; everything
//! between moves only descriptors and refcounted slab slices. The slab's
//! copy counters make the invariant checkable end to end.

use pandora::{connect_pair, open_audio_shout, open_video_stream, BoxConfig, PandoraBox};
use pandora_atm::{cells_gather, HopConfig, SlabReassembler, Vci};
use pandora_audio::gen::{Speech, Tone};
use pandora_buffers::ByteSlab;
use pandora_segment::{wire, AudioSegment, Segment, SequenceNumber, SlabSegment, Timestamp};
use pandora_session::{Star, StarConfig, StarNode, StreamClass};
use pandora_sim::{SimTime, Simulation};
use pandora_video::dpcm::LineMode;
use pandora_video::{CaptureConfig, RateFraction, Rect};

/// The full transport chain in miniature, with every byte accounted for:
/// input copy → gather (output copy) → cells → reassembly (input copy) →
/// in-place decode (no copy) → device output (output copy).
#[test]
fn copy_counters_track_the_exact_chain() {
    // `slab` is declared first so the arena handle outlives every region
    // reference below (drop order is reverse declaration order).
    let slab = ByteSlab::new(8, 64 * 1024);
    let seg = Segment::Audio(AudioSegment::from_blocks(
        SequenceNumber(3),
        Timestamp(64),
        (0u8..32).collect(),
    ));
    let payload = 32u64;
    let frame_bytes = seg.wire_bytes() as u64; // headers + payload

    // Input copy: the device hands its bytes to the slab, exactly once.
    let sseg = SlabSegment::from_segment(&seg, &slab).unwrap();
    assert_eq!(slab.copied_in_bytes(), payload);
    assert_eq!(slab.copied_out_bytes(), 0);

    // Output copy: the payload leaves the slab straight into cells; the
    // header is encoded into a scratch region, not copied from the slab.
    let mut scratch = vec![0u8; sseg.header.header_wire_bytes()];
    wire::encode_header_into(&sseg.header, &mut scratch);
    let cells = sseg
        .payload
        .copy_out_with(|p| cells_gather(Vci(5), &scratch, p, 0));
    assert_eq!(slab.copied_out_bytes(), payload);

    // Receive side input copy: cells append into one slab region, charged
    // when the frame freezes.
    let mut r = SlabReassembler::new(slab.clone());
    let mut out = None;
    for cell in cells {
        out = r.push(cell).or(out);
    }
    let (vci, frame) = out.expect("frame completes");
    assert_eq!(vci, Vci(5));
    assert_eq!(slab.copied_in_bytes(), payload + frame_bytes);

    // In-place decode: a header parse plus a refcounted slice — no copy.
    let decoded = wire::decode_slab(&frame).unwrap();
    assert_eq!(slab.copied_in_bytes(), payload + frame_bytes);
    assert_eq!(slab.copied_out_bytes(), payload);

    // Receive side output copy: the payload leaves for the device.
    let rebuilt = decoded.to_segment();
    assert_eq!(rebuilt, seg);
    assert_eq!(slab.copied_in_bytes(), payload + frame_bytes);
    assert_eq!(slab.copied_out_bytes(), 2 * payload);
}

/// Asserts the box moved real traffic yet copied payload bytes at most
/// twice per hop direction: once in, once out, against the cell bytes
/// that actually crossed the wire in either direction.
fn assert_two_copy_bound(name: &str, b: &PandoraBox, cells_through: u64) {
    let wire_bytes = cells_through * 48; // cell payload bytes incl. headers
    let copied = b.slab.copied_in_bytes() + b.slab.copied_out_bytes();
    assert!(
        copied <= 2 * wire_bytes,
        "{name}: {copied} payload bytes copied for {wire_bytes} wire bytes \
         — more than two copies per hop"
    );
    assert!(copied > 0, "{name}: no copies counted — no traffic flowed?");
}

#[test]
fn steady_state_hop_stays_within_two_copies() {
    let mut sim = Simulation::new();
    let pair = connect_pair(
        &sim.spawner(),
        BoxConfig::standard("a"),
        BoxConfig::standard("b"),
        &[HopConfig::clean(50_000_000)],
        21,
    );
    open_audio_shout(&pair.a, &pair.b, Box::new(Tone::new(440.0, 8_000.0)));
    open_audio_shout(&pair.b, &pair.a, Box::new(Tone::new(330.0, 8_000.0)));
    open_video_stream(
        &pair.a,
        &pair.b,
        CaptureConfig {
            rect: Rect::new(0, 0, 128, 96),
            rate: RateFraction::new(1, 5),
            lines_per_segment: 32,
            mode: LineMode::Dpcm,
        },
    );
    sim.run_until(SimTime::from_secs(3));

    // The traffic was real and clean…
    let a_cells = pair.a.net_out_stats.cells();
    let b_cells = pair.b.net_out_stats.cells();
    assert!(a_cells > 1_000, "box a sent only {a_cells} cells");
    assert!(b_cells > 1_000, "box b sent only {b_cells} cells");
    assert_eq!(pair.a.speaker.segments_lost(), 0);
    assert_eq!(pair.b.speaker.segments_lost(), 0);
    assert_eq!(pair.b.display.decode_errors(), 0);

    // …and each box saw a_cells + b_cells worth of bytes cross it (its
    // own transmissions plus the peer's arrivals), copying each payload
    // byte at most twice.
    assert_two_copy_bound("a", &pair.a, a_cells + b_cells);
    assert_two_copy_bound("b", &pair.b, a_cells + b_cells);
}

/// A box's slab and pool high-water marks: the regions and descriptors
/// it has ever held at once.
fn high_water(node: &StarNode) -> [usize; 2] {
    [node.boxy.slab.backed(), node.boxy.pool.backed()]
}

/// One box of [`three_speakers`]: its high-water marks after the warm-up
/// second and after the second that follows.
struct Marks {
    name: &'static str,
    speaks: bool,
    warm: [usize; 2],
    end: [usize; 2],
}

/// Runs an `n`-box star built from `config` in which boxes 1 to 3 speak
/// and every other box hears all three: one simulated second to warm up,
/// then one more. Gives every box's marks, speakers first.
fn three_speakers(n: usize, config: StarConfig) -> Vec<Marks> {
    let mut sim = Simulation::new();
    let star = Star::build(&sim.spawner(), n, config);
    for node in &star.nodes {
        assert_eq!(high_water(node), [0, 0], "{}: backed before use", node.name);
    }
    let (speakers, listeners): (Vec<&StarNode>, Vec<&StarNode>) = star
        .nodes
        .iter()
        .partition(|node| (1..4).contains(&node.index));
    let calls: Vec<_> = speakers
        .iter()
        .map(|node| {
            let mic = node
                .boxy
                .start_audio_source(Box::new(Speech::new(node.index as u64)));
            (node.endpoint, mic)
        })
        .collect();
    let ears: Vec<_> = listeners.iter().map(|node| node.endpoint).collect();
    let controller = star.controller.clone();
    sim.spawn("host", async move {
        for (speaker, mic) in calls {
            let s = controller.open(speaker, mic, StreamClass::Audio).unwrap();
            for &ear in &ears {
                controller.add_listener(s, ear).await.unwrap();
            }
        }
    });
    sim.run_until(SimTime::from_secs(1));
    let boxes: Vec<(&StarNode, bool)> = speakers
        .iter()
        .map(|&node| (node, true))
        .chain(listeners.iter().map(|&node| (node, false)))
        .collect();
    let warm: Vec<_> = boxes.iter().map(|(node, _)| high_water(node)).collect();
    sim.run_until(SimTime::from_secs(2));
    for node in &listeners {
        assert!(
            node.boxy.speaker.segments_received() > 1_000,
            "{}: heard too little",
            node.name
        );
    }
    boxes
        .into_iter()
        .zip(warm)
        .map(|((node, speaks), warm)| Marks {
            name: node.name,
            speaks,
            warm,
            end: high_water(node),
        })
        .collect()
}

/// An idle box is free and a busy one stops allocating: the slab and the
/// pool back a slot the first time it is used, so every box of a default
/// four-box conference, speakers and listener alike, holds its high-water
/// mark of live regions and descriptors — a handful, not the arena's 288
/// or the pool's 256 — and backs none after warm-up.
#[test]
fn conference_boxes_back_a_few_slabs_and_none_after_warm_up() {
    let boxes = three_speakers(4, StarConfig::default());
    assert_eq!(boxes.len(), 4);
    for Marks {
        name, warm, end, ..
    } in boxes
    {
        let [slabs, descriptors] = end;
        assert!((1..=32).contains(&slabs), "{name}: {slabs} slabs backed");
        assert!(
            (1..=32).contains(&descriptors),
            "{name}: {descriptors} descriptors backed of 256"
        );
        assert_eq!(end, warm, "{name}: backed more after warm-up");
    }
}

/// Per-box buffer memory follows the streams a box carries, not the
/// number of boxes: a listener of three speakers backs the same slabs and
/// descriptors in a 64-box conference as in a 16-box one.
///
/// A speaker sends one copy of each segment per listener, all in one
/// instant, and its audio network buffer (eight segments by default,
/// figure 3.7) drops the copies past its eleventh listener or so; both
/// conferences size it to hold a copy for every box.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "64 boxes for two simulated seconds: run in the optimised test step"
)]
fn a_listener_backs_as_much_in_a_64_box_conference_as_in_a_16_box_one() {
    let listeners = |n| {
        let config = StarConfig {
            box_config: |name| BoxConfig {
                audio_net_buffer: 64,
                ..BoxConfig::standard(name)
            },
            ..StarConfig::default()
        };
        three_speakers(n, config).into_iter().filter(|b| !b.speaks)
    };
    let small: Vec<Marks> = listeners(16).collect();
    let sixteen = small[0].end;
    for Marks { name, end, .. } in small.into_iter().chain(listeners(64)) {
        assert_eq!(end, sixteen, "{name}: a listener of 16 backs {sixteen:?}");
    }
}
