//! Randomized property tests over the core data structures and invariants.
//!
//! Each property draws its cases through [`pandora_prop::check`], which
//! records every draw a case makes on a tape. A failing case is shrunk on
//! its tape and reported with the shrunk value and a `replay(&[…], …)`
//! literal that reproduces it as a regression test.

use std::ops::Range;

use pandora_prop::{check, Rng, Tape};

use pandora_audio::{mulaw, Block};
use pandora_buffers::{Clawback, ClawbackConfig, ClawbackPool};
use pandora_metrics::Histogram;
use pandora_segment::{
    reseg, wire, AudioSegment, Segment, SeqTracker, SequenceNumber, TestSegment, Timestamp,
    VideoHeader, VideoSegment, BLOCK_BYTES,
};
use pandora_video::RateFraction;

/// Number of random cases drawn per property, and the seed they draw from.
const CASES: u64 = 256;
const SEED: u64 = 0;

/// A length drawn from `lens`, then that many values drawn by `draw`.
fn vec_of<T>(t: &mut Tape, lens: Range<usize>, mut draw: impl FnMut(&mut Tape) -> T) -> Vec<T> {
    (0..t.gen_range(lens)).map(|_| draw(t)).collect()
}

fn byte(t: &mut Tape) -> u8 {
    t.gen_range(0..=255)
}

/// Wire encode → decode is the identity for any audio segment.
#[test]
fn audio_segment_wire_round_trip() {
    let segment = |t: &mut Tape| {
        let blocks = t.gen_range(1usize..16);
        let fill = t.gen_range(0u8..=255);
        Segment::Audio(AudioSegment::from_blocks(
            SequenceNumber(t.gen_range(0u32..=u32::MAX)),
            Timestamp(t.gen_range(0u32..=u32::MAX)),
            vec![fill; blocks * BLOCK_BYTES],
        ))
    };
    check("audio_wire", SEED, CASES, segment, |seg| {
        assert_eq!(wire::decode(&wire::encode(seg)).unwrap(), *seg);
    });
}

/// Wire round trip for arbitrary video geometry and payload.
#[test]
fn video_segment_wire_round_trip() {
    let segment = |t: &mut Tape| {
        let args = vec_of(t, 0..4, |t| t.gen_range(0u32..=u32::MAX));
        let data_len = t.gen_range(0usize..512);
        Segment::Video(VideoSegment::new(
            SequenceNumber(t.gen_range(0u32..=u32::MAX)),
            Timestamp(0),
            VideoHeader {
                frame_number: t.gen_range(0u32..=u32::MAX),
                segments_in_frame: 4,
                segment_number: 1,
                x_offset: t.gen_range(0u32..1024),
                y_offset: t.gen_range(0u32..1024),
                compression_args: args,
                width: t.gen_range(1u32..512),
                start_line: 0,
                lines: t.gen_range(1u32..64),
                data_length: 0,
            },
            (0..data_len).map(|_| byte(t)).collect(),
        ))
    };
    check("video_wire", SEED, CASES, segment, |seg| {
        assert_eq!(wire::decode(&wire::encode(seg)).unwrap(), *seg);
    });
}

/// Test segments round trip too.
#[test]
fn test_segment_wire_round_trip() {
    let segment = |t: &mut Tape| {
        let data = vec_of(t, 0..256, byte);
        Segment::Test(TestSegment::new(SequenceNumber(1), Timestamp(2), data))
    };
    check("test_wire", SEED, CASES, segment, |seg| {
        assert_eq!(wire::decode(&wire::encode(seg)).unwrap(), *seg);
    });
}

/// Decoding arbitrary bytes never panics.
#[test]
fn wire_decode_never_panics() {
    let bytes = |t: &mut Tape| vec_of(t, 0..256, byte);
    check("decode_fuzz", SEED, CASES * 4, bytes, |bytes| {
        let _ = wire::decode(bytes);
    });
    // Also corrupt valid encodings byte-by-byte: decode must error or
    // round-trip, never panic.
    let seg = Segment::Audio(AudioSegment::from_blocks(
        SequenceNumber(3),
        Timestamp(4),
        vec![0x41; 2 * BLOCK_BYTES],
    ));
    let good = wire::encode(&seg);
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 0xFF;
        let _ = wire::decode(&bad);
    }
}

/// µ-law: |decode(encode(x)) - x| is within the segment quantisation
/// bound, and encode has sign symmetry in the decoded domain.
#[test]
fn mulaw_error_bound_and_symmetry() {
    for pcm in -32767i16..=32767 {
        let out = mulaw::decode(mulaw::encode(pcm));
        let err = (out - pcm as i32).abs();
        let allowed = 16 + (pcm as i32).abs() / 16 + 33; // Segment step + clip margin.
        assert!(err <= allowed, "pcm={pcm} out={out} err={err}");
        if pcm > 0 {
            assert_eq!(
                mulaw::decode(mulaw::encode(pcm)),
                -mulaw::decode(mulaw::encode(-pcm)),
                "pcm={pcm}"
            );
        }
    }
}

/// Re-segmentation never loses or reorders a byte of audio, for any
/// mixture of input segment sizes.
#[test]
fn resegmentation_preserves_audio() {
    let sizes = |t: &mut Tape| vec_of(t, 1..30, |t| t.gen_range(1usize..13));
    check("reseg", SEED, CASES, sizes, |sizes| {
        let mut segments = Vec::new();
        let mut byte = 0u8;
        let mut block_idx = 0u64;
        for (i, &blocks) in sizes.iter().enumerate() {
            let mut data = Vec::new();
            for _ in 0..blocks * BLOCK_BYTES {
                data.push(byte);
                byte = byte.wrapping_add(1);
            }
            segments.push(AudioSegment::from_blocks(
                SequenceNumber(i as u32),
                Timestamp::from_nanos(block_idx * 2_000_000),
                data,
            ));
            block_idx += blocks as u64;
        }
        let repo = reseg::to_repository_format(&segments);
        let before: Vec<u8> = segments.iter().flat_map(|s| s.data.clone()).collect();
        let after: Vec<u8> = repo.iter().flat_map(|s| s.data.clone()).collect();
        assert_eq!(before, after);
        // All but the last segment are exactly 20 blocks.
        for s in &repo[..repo.len().saturating_sub(1)] {
            assert_eq!(s.block_count(), 20);
        }
    });
}

/// Clawback invariants: length never exceeds the cap; pool accounting
/// is exact; served + queued == accepted.
#[test]
fn clawback_invariants() {
    // Each op is an arrival (`true`) or a tick.
    let ops = |t: &mut Tape| vec_of(t, 1..2000, |t| t.gen_bool(0.5));
    check("clawback", SEED, 64, ops, |ops| {
        let pool = ClawbackPool::new(64);
        let mut buf = Clawback::with_pool(
            ClawbackConfig {
                per_stream_limit_blocks: 10,
                count_threshold: 50,
                ..Default::default()
            },
            pool.clone(),
        );
        for &arrival in ops {
            if arrival {
                let _ = buf.arrival(0u32);
            } else {
                let _ = buf.tick();
            }
            assert!(buf.len() <= 10);
            assert_eq!(pool.used(), buf.len());
            let s = buf.stats();
            assert_eq!(s.accepted, s.served + buf.len() as u64);
            assert_eq!(
                s.arrivals,
                s.accepted + s.clawed_back + s.over_limit + s.pool_full
            );
        }
    });
}

/// Sequence tracker: lost + received counts expected deliveries for any
/// monotone arrival pattern with gaps.
#[test]
fn seq_tracker_accounting() {
    let gaps = |t: &mut Tape| vec_of(t, 1..100, |t| t.gen_range(0u32..5));
    check("seqtrack", SEED, CASES, gaps, |gaps| {
        let mut t = SeqTracker::new();
        let mut seq = SequenceNumber(0);
        let mut expected_lost = 0u64;
        for (i, &gap) in gaps.iter().enumerate() {
            for _ in 0..gap {
                seq = seq.next(); // Skipped segments.
            }
            // A gap before the very first arrival is undetectable: the
            // tracker accepts any starting sequence number.
            if i > 0 {
                expected_lost += gap as u64;
            }
            t.observe(seq);
            seq = seq.next();
        }
        assert_eq!(t.lost(), expected_lost);
        assert_eq!(t.received(), gaps.len() as u64);
    });
}

/// Histogram percentiles are order statistics: bounded by min/max and
/// monotone in p.
#[test]
fn histogram_percentile_properties() {
    let values = |t: &mut Tape| vec_of(t, 1..200, |t| t.gen_range(-1e6f64..1e6));
    check("histogram", SEED, CASES, values, |values| {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        let p10 = h.percentile(10.0);
        let p50 = h.percentile(50.0);
        let p90 = h.percentile(90.0);
        assert!(h.min() <= p10 && p10 <= p50 && p50 <= p90 && p90 <= h.max());
        assert_eq!(h.count(), values.len());
    });
}

/// Rate fractions: over any window of q*25 frames, exactly p*25 are
/// captured.
#[test]
fn rate_fraction_exact_count() {
    for p in 1u32..10 {
        for q in p..10 {
            let r = RateFraction::new(p, q);
            let window = (q * 25) as u64;
            let captured = (0..window).filter(|&n| r.captures_frame(n)).count() as u32;
            assert_eq!(captured, p * 25, "p={p} q={q}");
        }
    }
}

/// AAL: any frame splits into cells and reassembles byte-identically,
/// and interleaving two circuits never cross-contaminates.
#[test]
fn aal_round_trip_and_isolation() {
    use pandora_atm::{segment_to_cells, ByteSlab, SlabReassembler, Vci};
    let frames = |t: &mut Tape| (vec_of(t, 0..500, byte), vec_of(t, 0..500, byte));
    check("aal", SEED, CASES, frames, |(fa, fb)| {
        let ca = segment_to_cells(Vci(1), fa, 0);
        let cb = segment_to_cells(Vci(2), fb, 0);
        // The two circuits' cells alternate until the shorter runs out.
        let cells = (0..ca.len().max(cb.len())).flat_map(|i| [ca.get(i), cb.get(i)]);
        let mut r = SlabReassembler::new(ByteSlab::new(2, 500));
        let out: Vec<_> = cells.flatten().filter_map(|c| r.push(c.clone())).collect();
        assert_eq!(out.len(), 2);
        for (vci, frame) in out {
            frame.with(|b| assert_eq!(b, if vci == Vci(1) { fa } else { fb }));
        }
    });
}

/// Hold-back buffer conservation: every description pushed is either
/// released (in order) or still held; slices release everything held.
#[test]
fn holdback_conserves_descriptions() {
    use pandora_video::slice::{HoldbackBuffer, SliceDesc};
    // Each description is a slice (0), a head (1) or a tail (2).
    let kinds = |t: &mut Tape| vec_of(t, 1..100, |t| t.gen_range(0u8..3));
    check("holdback", SEED, CASES, kinds, |kinds| {
        let mut hb = HoldbackBuffer::<u32>::new();
        let mut pushed = 0usize;
        let mut released = 0usize;
        for (i, kind) in kinds.iter().enumerate() {
            let desc = match kind {
                0 => SliceDesc::Slice {
                    lines: 1,
                    bytes: i as u32,
                },
                1 => SliceDesc::Head(i as u32),
                _ => SliceDesc::Tail,
            };
            pushed += 1;
            released += hb.push(desc).len();
            assert_eq!(pushed, released + hb.held().len());
            // Held prefix is always exactly one slice (if anything is held).
            if let Some(first) = hb.held().first() {
                assert!(matches!(first, SliceDesc::Slice { .. }));
            }
        }
    });
}

/// Muting: the gain only ever takes the three configured values, and
/// any sufficiently long quiet tail returns it to full volume.
#[test]
fn muting_state_machine_bounds() {
    use pandora_audio::{MuteStage, Muting, MutingConfig};
    // Each block the speaker plays is loud (`true`) or silent.
    let blocks = |t: &mut Tape| vec_of(t, 1..200, |t| t.gen_bool(0.5));
    check("muting", SEED, CASES, blocks, |blocks| {
        let mut m = Muting::new(MutingConfig::default());
        let loud = Block([pandora_audio::mulaw::encode(20_000); BLOCK_BYTES]);
        for &is_loud in blocks {
            m.observe_speaker(if is_loud { &loud } else { &Block::SILENCE });
            let f = m.factor();
            assert!(f == 0.2 || f == 0.5 || f == 1.0, "factor {f}");
        }
        // 23 quiet blocks clear the deep hold, 11 more clear the half hold.
        for _ in 0..40 {
            m.observe_speaker(&Block::SILENCE);
        }
        assert_eq!(m.stage(), MuteStage::Full);
    });
}

/// Mixing silence with any block is that block (identity element).
#[test]
fn mix_silence_identity() {
    let samples = |t: &mut Tape| (0..BLOCK_BYTES).map(|_| byte(t)).collect::<Vec<_>>();
    check("mix_identity", SEED, CASES, samples, |samples| {
        let b = Block::from_slice(samples);
        let mixed = pandora_audio::mix_blocks([&b, &Block::SILENCE]);
        // Equality in the decoded domain (the codeword for -0/+0 differs).
        for (m, o) in mixed.0.iter().zip(b.0.iter()) {
            assert_eq!(mulaw::decode(*m), mulaw::decode(*o));
        }
    });
}
