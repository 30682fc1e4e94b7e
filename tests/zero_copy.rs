//! The two-copy invariant (§3.4, DESIGN.md §9): payload bytes are copied
//! into the slab once on input and out of it once on output; everything
//! between moves only descriptors and refcounted slab slices. The slab's
//! copy counters make the invariant checkable end to end.

use pandora::{connect_pair, open_audio_shout, open_video_stream, BoxConfig, PandoraBox};
use pandora_atm::{cells_gather, HopConfig, SlabReassembler, Vci};
use pandora_audio::gen::{Speech, Tone};
use pandora_buffers::ByteSlab;
use pandora_segment::{wire, AudioSegment, Segment, SequenceNumber, SlabSegment, Timestamp};
use pandora_session::{Star, StarConfig, StreamClass};
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

/// An idle box is free and a busy one stops allocating: the slab backs a
/// slot the first time it is used, so a conference box holds its
/// high-water mark of live regions — a handful, not the arena's 288 —
/// and none after warm-up. (`pandora-check`'s `hot-path-alloc` rule
/// cannot see this: the backing is a `vec![…]`.)
#[test]
fn conference_boxes_back_a_few_slabs_and_none_after_warm_up() {
    let mut sim = Simulation::new();
    let star = Star::build(&sim.spawner(), 4, StarConfig::default());
    for node in &star.nodes {
        assert_eq!(
            node.boxy.slab.backed(),
            0,
            "{}: backed before use",
            node.name
        );
    }
    let listener = star.nodes[0].endpoint;
    let calls: Vec<_> = (1..4)
        .map(|i| {
            let mic = star.nodes[i]
                .boxy
                .start_audio_source(Box::new(Speech::new(i as u64)));
            (star.nodes[i].endpoint, mic)
        })
        .collect();
    let controller = star.controller.clone();
    sim.spawn("host", async move {
        for (speaker, mic) in calls {
            let s = controller.open(speaker, mic, StreamClass::Audio).unwrap();
            controller.add_listener(s, listener).await.unwrap();
        }
    });
    sim.run_until(SimTime::from_secs(1));
    let warm: Vec<usize> = star.nodes.iter().map(|n| n.boxy.slab.backed()).collect();
    sim.run_until(SimTime::from_secs(2));
    assert!(star.nodes[0].boxy.speaker.segments_received() > 1_000);
    for (node, warm) in star.nodes.iter().zip(warm) {
        let backed = node.boxy.slab.backed();
        assert!(
            (1..=32).contains(&backed),
            "{}: {backed} slabs backed",
            node.name
        );
        assert_eq!(backed, warm, "{}: backed a slab after warm-up", node.name);
    }
}
