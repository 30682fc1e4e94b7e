//! Seeded round trips: the zero-copy slab transport must deliver every
//! segment shape byte-identical to the original — audio of one, two and
//! twelve blocks, and sliced video frames with randomized geometry. Each
//! segment runs the full chain: payload into the arena, cells gathered
//! from it, reassembly into one slab region, decode in place. The cells
//! gathered are the cells of the segment's contiguous wire image.

use pandora_atm::{cells_gather, segment_to_cells, ByteSlab, SlabReassembler, Vci};
use pandora_prop::{check, Rng, Tape};
use pandora_segment::{
    wire, AudioSegment, Segment, SequenceNumber, SlabSegment, Timestamp, VideoHeader, VideoSegment,
    BLOCK_BYTES,
};

/// Drives `seg` through the slab path: payload into the arena, header
/// into a scratch region, cells gathered straight from the slab,
/// reassembled into one slab region and decoded in place.
fn slab_round_trip(seg: &Segment, vci: Vci, seq: u32) -> Segment {
    // `slab` outlives every region reference below (drop order is
    // reverse declaration order).
    let slab = ByteSlab::new(8, 64 * 1024);
    let sseg = SlabSegment::from_segment(seg, &slab).expect("payload fits");
    let mut scratch = vec![0u8; sseg.header.header_wire_bytes()];
    wire::encode_header_into(&sseg.header, &mut scratch);
    let cells = sseg
        .payload
        .copy_out_with(|p| cells_gather(vci, &scratch, p, seq));
    assert_eq!(cells, segment_to_cells(vci, &wire::encode(seg), seq));
    let mut r = SlabReassembler::new(slab.clone());
    let mut out = None;
    for cell in cells {
        out = r.push(cell).or(out);
    }
    let (got_vci, frame) = out.expect("slab frame completes");
    assert_eq!(got_vci, vci);
    wire::decode_slab(&frame)
        .expect("slab frame decodes")
        .to_segment()
}

/// The slab path must reproduce the original exactly.
fn assert_round_trips(seg: &Segment, vci: Vci, seq: u32) {
    assert_eq!(&slab_round_trip(seg, vci, seq), seg, "slab path altered it");
}

/// `seg` on a random circuit, from a random cell sequence number.
fn on_a_circuit(seg: Segment, t: &mut Tape) -> (Segment, Vci, u32) {
    (seg, Vci(t.gen_range(1u32..1024)), t.gen_range(0..=u32::MAX))
}

fn random_audio(rng: &mut Tape, blocks: usize) -> Segment {
    let data: Vec<u8> = (0..blocks * BLOCK_BYTES)
        .map(|_| rng.gen_range(0u32..256) as u8)
        .collect();
    Segment::Audio(AudioSegment::from_blocks(
        SequenceNumber(rng.gen_range(0u32..1 << 30)),
        Timestamp(rng.gen_range(0u32..1 << 30)),
        data,
    ))
}

#[test]
fn audio_segments_round_trip_identically() {
    // One block fits a single cell; two blocks is the standard 68-byte
    // shout segment; twelve blocks spans several cells.
    for blocks in [1usize, 2, 12] {
        let case = |t: &mut Tape| on_a_circuit(random_audio(t, blocks), t);
        check("slab_audio", 0x5eed_a11d, 20, case, |(seg, vci, seq)| {
            assert_round_trips(seg, *vci, *seq)
        });
    }
}

fn random_video_slice(rng: &mut Tape) -> Segment {
    let width = rng.gen_range(2u32..16) * 16;
    let lines = rng.gen_range(1u32..48);
    let segments_in_frame = rng.gen_range(1u32..8);
    let args: Vec<u32> = (0..rng.gen_range(0u32..4))
        .map(|_| rng.gen_range(0u32..1 << 16))
        .collect();
    let data: Vec<u8> = (0..(width * lines) as usize)
        .map(|_| rng.gen_range(0u32..256) as u8)
        .collect();
    let header = VideoHeader {
        frame_number: rng.gen_range(0u32..1 << 20),
        segments_in_frame,
        segment_number: rng.gen_range(0..segments_in_frame),
        x_offset: rng.gen_range(0u32..512),
        y_offset: rng.gen_range(0u32..512),
        compression_args: args,
        width,
        start_line: rng.gen_range(0u32..512),
        lines,
        data_length: 0,
    };
    Segment::Video(VideoSegment::new(
        SequenceNumber(rng.gen_range(0u32..1 << 30)),
        Timestamp(rng.gen_range(0u32..1 << 30)),
        header,
        data,
    ))
}

#[test]
fn sliced_video_frames_round_trip_identically() {
    let case = |t: &mut Tape| on_a_circuit(random_video_slice(t), t);
    check("slab_video", 0x51de0, 40, case, |(seg, vci, seq)| {
        assert_round_trips(seg, *vci, *seq)
    });
}
