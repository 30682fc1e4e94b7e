//! Wire encoding and decoding of Pandora segments.
//!
//! All header fields are big-endian 32-bit words, matching the paper's
//! "each field in the header is 32 bits in length". The paper's in-box
//! stream-number word ("streams within pandora pass the stream number in
//! an extra field preceding the segment header", §3.4) is not part of the
//! wire image here: a box's descriptor carries it beside the segment.
//!
//! The zero-copy entry points are [`encode_header_into`] (headers into a
//! caller-provided region, so the payload can be scatter-gathered from
//! its slab) and [`decode_slab`] (headers parsed out, payload left in
//! place as a refcounted [`SlabRef`] slice); both decoders share one
//! borrowing parser, `decode_view`.
//! [`encode`] and [`decode`] remain as the owned-`Vec` compatibility
//! wrappers over the same code.

use bytes::Buf;
use pandora_slab::SlabRef;

use crate::format::{
    AudioHeader, CommonHeader, Segment, SegmentHeader, SegmentType, VideoHeader,
    AUDIO_FULL_HEADER_BYTES, AUDIO_SAMPLE_RATE, BLOCK_BYTES, COMMON_HEADER_BYTES, VERSION_ID,
    VIDEO_FIXED_HEADER_BYTES,
};
use crate::ids::{SequenceNumber, Timestamp};
use crate::slabseg::SlabSegment;

/// The audio format code of 8-bit µ-law, the Pandora codec's format.
const MULAW8: u32 = 1;
/// The audio compression code of uncompressed samples (µ-law counts as a
/// format here, not a compression).
const UNCOMPRESSED: u32 = 0;
/// The pixel format code of 8-bit greyscale.
const MONO8: u32 = 1;
/// The video compression code of per-line DPCM with optional horizontal
/// sub-sampling.
const DPCM: u32 = 1;

/// Errors produced while decoding a segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the advertised length.
    Truncated {
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// The version field did not match [`VERSION_ID`].
    BadVersion(u32),
    /// Unknown segment type code.
    BadType(u32),
    /// An audio format other than 8-bit µ-law: every box plays µ-law.
    BadAudioFormat(u32),
    /// An audio segment sampled at other than [`AUDIO_SAMPLE_RATE`] or
    /// compressed: every box plays 8 kHz uncompressed samples, so such a
    /// segment would play as noise.
    BadAudioEncoding {
        /// The sub-header's sampling rate, Hz.
        sampling_rate: u32,
        /// The sub-header's compression code (0 is uncompressed).
        compression: u32,
    },
    /// A pixel format other than 8-bit greyscale: every box displays it.
    BadPixelFormat(u32),
    /// A video compression other than per-line DPCM: every box decodes it.
    BadCompression(u32),
    /// A length field is inconsistent with the enclosing segment, or an
    /// audio `data_length` is not whole blocks.
    BadLength {
        /// The offending value.
        field: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated segment: need {needed} bytes, have {available}"
                )
            }
            WireError::BadVersion(v) => write!(f, "bad version id {v:#x}"),
            WireError::BadType(t) => write!(f, "unknown segment type {t}"),
            WireError::BadAudioFormat(c) => write!(f, "unknown audio format {c}"),
            WireError::BadAudioEncoding {
                sampling_rate,
                compression,
            } => write!(
                f,
                "unplayable audio: {sampling_rate} Hz, compression {compression}"
            ),
            WireError::BadPixelFormat(c) => write!(f, "unknown pixel format {c}"),
            WireError::BadCompression(c) => write!(f, "unknown compression {c}"),
            WireError::BadLength { field } => write!(f, "inconsistent length field {field}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes the segment headers into the front of `buf`, returning the
/// number of bytes written ([`SegmentHeader::header_wire_bytes`]).
///
/// This is the zero-copy encoder: the caller scatter-gathers the payload
/// from its slab after the headers instead of materialising a contiguous
/// wire image.
///
/// # Panics
///
/// Panics if `buf` is shorter than the headers.
pub fn encode_header_into(header: &SegmentHeader, buf: &mut [u8]) -> usize {
    let hdr = header.header_wire_bytes();
    assert!(
        buf.len() >= hdr,
        "header region of {} bytes cannot hold {hdr} header bytes",
        buf.len()
    );
    let mut at = 0;
    put_common(buf, &mut at, header.common());
    match header {
        SegmentHeader::Audio { audio, .. } => put_audio_header(buf, &mut at, audio),
        SegmentHeader::Video { video, .. } => put_video_header(buf, &mut at, video),
        SegmentHeader::Test { .. } => {}
    }
    debug_assert_eq!(at, hdr);
    at
}

/// Encodes a segment to its wire representation (owned-`Vec` wrapper
/// over [`encode_header_into`]; the single copy is the payload move into
/// the output buffer).
pub fn encode(segment: &Segment) -> Vec<u8> {
    let header = SegmentHeader::of_segment(segment);
    let mut out = vec![0u8; segment.wire_bytes()];
    let hdr = encode_header_into(&header, &mut out);
    out[hdr..].copy_from_slice(segment.payload());
    out
}

/// A decoded segment whose payload still lives in the input buffer.
///
/// The headers are parsed and owned; the payload is a borrow, so
/// decoding costs O(header) regardless of payload size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentView<'a> {
    /// The parsed, validated headers.
    pub header: SegmentHeader,
    /// The payload bytes, borrowed from the input.
    pub payload: &'a [u8],
}

/// Decodes one segment from `data` without copying the payload.
///
/// Performs exactly the validation of [`decode`]; the returned
/// [`SegmentView`] borrows its payload from `data`.
pub(crate) fn decode_view(data: &[u8]) -> Result<SegmentView<'_>, WireError> {
    let mut buf = data;
    if buf.len() < COMMON_HEADER_BYTES {
        return Err(WireError::Truncated {
            needed: COMMON_HEADER_BYTES,
            available: buf.len(),
        });
    }
    let version = buf.get_u32();
    if version != VERSION_ID {
        return Err(WireError::BadVersion(version));
    }
    let sequence = SequenceNumber(buf.get_u32());
    let timestamp = Timestamp(buf.get_u32());
    let type_code = buf.get_u32();
    let segment_type = SegmentType::from_code(type_code).ok_or(WireError::BadType(type_code))?;
    let length = buf.get_u32();
    if (length as usize) > data.len() {
        return Err(WireError::Truncated {
            needed: length as usize,
            available: data.len(),
        });
    }
    if (length as usize) < COMMON_HEADER_BYTES {
        return Err(WireError::BadLength { field: length });
    }
    let common = CommonHeader {
        version,
        sequence,
        timestamp,
        segment_type,
        length,
    };
    let body_len = length as usize - COMMON_HEADER_BYTES;
    let mut body = &buf[..body_len];
    match segment_type {
        SegmentType::Audio => {
            if body.len() < AUDIO_FULL_HEADER_BYTES - COMMON_HEADER_BYTES {
                return Err(WireError::Truncated {
                    needed: AUDIO_FULL_HEADER_BYTES,
                    available: data.len(),
                });
            }
            let sampling_rate = body.get_u32();
            let format = body.get_u32();
            if format != MULAW8 {
                return Err(WireError::BadAudioFormat(format));
            }
            let compression = body.get_u32();
            if sampling_rate != AUDIO_SAMPLE_RATE || compression != UNCOMPRESSED {
                return Err(WireError::BadAudioEncoding {
                    sampling_rate,
                    compression,
                });
            }
            // Audio is whole 16-byte blocks of 2 ms (§3.5).
            let data_length = body.get_u32();
            if data_length as usize != body.len() || !body.len().is_multiple_of(BLOCK_BYTES) {
                return Err(WireError::BadLength { field: data_length });
            }
            Ok(SegmentView {
                header: SegmentHeader::Audio {
                    common,
                    audio: AudioHeader { data_length },
                },
                payload: body,
            })
        }
        SegmentType::Video => {
            if body.len() < VIDEO_FIXED_HEADER_BYTES {
                return Err(WireError::Truncated {
                    needed: COMMON_HEADER_BYTES + VIDEO_FIXED_HEADER_BYTES,
                    available: data.len(),
                });
            }
            let frame_number = body.get_u32();
            let segments_in_frame = body.get_u32();
            let segment_number = body.get_u32();
            let x_offset = body.get_u32();
            let y_offset = body.get_u32();
            let pixel_format = body.get_u32();
            if pixel_format != MONO8 {
                return Err(WireError::BadPixelFormat(pixel_format));
            }
            let compression = body.get_u32();
            if compression != DPCM {
                return Err(WireError::BadCompression(compression));
            }
            let arg_count = body.get_u32();
            if body.len() < arg_count as usize * 4 + 16 {
                return Err(WireError::BadLength { field: arg_count });
            }
            let mut compression_args = Vec::with_capacity(arg_count as usize);
            for _ in 0..arg_count {
                compression_args.push(body.get_u32());
            }
            let width = body.get_u32();
            let start_line = body.get_u32();
            let lines = body.get_u32();
            let data_length = body.get_u32();
            if data_length as usize != body.len() {
                return Err(WireError::BadLength { field: data_length });
            }
            Ok(SegmentView {
                header: SegmentHeader::Video {
                    common,
                    video: VideoHeader {
                        frame_number,
                        segments_in_frame,
                        segment_number,
                        x_offset,
                        y_offset,
                        compression_args,
                        width,
                        start_line,
                        lines,
                        data_length,
                    },
                },
                payload: body,
            })
        }
        SegmentType::Test => Ok(SegmentView {
            header: SegmentHeader::Test { common },
            payload: body,
        }),
    }
}

/// Decodes one segment from `data`, which must contain the whole segment
/// (owned wrapper over `decode_view`; the single copy is the payload
/// move out of `data`).
pub fn decode(data: &[u8]) -> Result<Segment, WireError> {
    let view = decode_view(data)?;
    Ok(view.header.into_segment(view.payload.to_vec()))
}

/// Decodes a whole received frame that lives in a slab, leaving the
/// payload in place.
///
/// The headers are parsed (and validated exactly as [`decode`] does) via
/// an uncounted read; the payload becomes an O(1) [`SlabRef`] subslice of
/// `frame` — no payload bytes move.
pub fn decode_slab(frame: &SlabRef) -> Result<SlabSegment, WireError> {
    let header = frame.with(|bytes| decode_view(bytes).map(|view| view.header))?;
    let payload = frame.slice(header.header_wire_bytes(), header.payload_wire_bytes());
    Ok(SlabSegment { header, payload })
}

fn put_u32(buf: &mut [u8], at: &mut usize, value: u32) {
    buf[*at..*at + 4].copy_from_slice(&value.to_be_bytes());
    *at += 4;
}

fn put_common(buf: &mut [u8], at: &mut usize, h: &CommonHeader) {
    put_u32(buf, at, h.version);
    put_u32(buf, at, h.sequence.0);
    put_u32(buf, at, h.timestamp.0);
    put_u32(buf, at, h.segment_type.code());
    put_u32(buf, at, h.length);
}

fn put_audio_header(buf: &mut [u8], at: &mut usize, h: &AudioHeader) {
    put_u32(buf, at, AUDIO_SAMPLE_RATE);
    put_u32(buf, at, MULAW8);
    put_u32(buf, at, UNCOMPRESSED);
    put_u32(buf, at, h.data_length);
}

fn put_video_header(buf: &mut [u8], at: &mut usize, h: &VideoHeader) {
    put_u32(buf, at, h.frame_number);
    put_u32(buf, at, h.segments_in_frame);
    put_u32(buf, at, h.segment_number);
    put_u32(buf, at, h.x_offset);
    put_u32(buf, at, h.y_offset);
    put_u32(buf, at, MONO8);
    put_u32(buf, at, DPCM);
    put_u32(buf, at, h.compression_args.len() as u32);
    for a in &h.compression_args {
        put_u32(buf, at, *a);
    }
    put_u32(buf, at, h.width);
    put_u32(buf, at, h.start_line);
    put_u32(buf, at, h.lines);
    put_u32(buf, at, h.data_length);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{AudioSegment, TestSegment, VideoSegment};
    use pandora_slab::ByteSlab;

    fn sample_audio() -> Segment {
        Segment::Audio(AudioSegment::from_blocks(
            SequenceNumber(42),
            Timestamp(1000),
            (0u8..32).collect(),
        ))
    }

    fn sample_video() -> Segment {
        Segment::Video(VideoSegment::new(
            SequenceNumber(7),
            Timestamp(2000),
            VideoHeader {
                frame_number: 3,
                segments_in_frame: 2,
                segment_number: 1,
                x_offset: 16,
                y_offset: 32,
                compression_args: vec![2],
                width: 64,
                start_line: 8,
                lines: 4,
                data_length: 0,
            },
            (0u8..=255).collect(),
        ))
    }

    #[test]
    fn audio_round_trip() {
        let seg = sample_audio();
        let bytes = encode(&seg);
        assert_eq!(bytes.len(), seg.wire_bytes());
        assert_eq!(decode(&bytes).unwrap(), seg);
    }

    #[test]
    fn video_round_trip() {
        let seg = sample_video();
        let bytes = encode(&seg);
        assert_eq!(bytes.len(), seg.wire_bytes());
        assert_eq!(decode(&bytes).unwrap(), seg);
        // The pixel format sits at offset 40..44, the compression at
        // 44..48: 16-bit colour and uncompressed video are refused.
        for (at, word, err) in [
            (40, 2, WireError::BadPixelFormat(2)),
            (44, 0, WireError::BadCompression(0)),
        ] {
            let mut bytes = bytes.clone();
            bytes[at..at + 4].copy_from_slice(&u32::to_be_bytes(word));
            assert_eq!(decode(&bytes), Err(err));
        }
    }

    #[test]
    fn test_segment_round_trip() {
        let seg = Segment::Test(TestSegment::new(
            SequenceNumber(9),
            Timestamp(1),
            vec![1, 2, 3, 4, 5],
        ));
        assert_eq!(decode(&encode(&seg)).unwrap(), seg);
    }

    #[test]
    fn view_decodes_header_and_borrows_payload() {
        for seg in [sample_audio(), sample_video()] {
            let bytes = encode(&seg);
            let view = decode_view(&bytes).unwrap();
            assert_eq!(view.header, SegmentHeader::of_segment(&seg));
            assert_eq!(view.payload, seg.payload());
            // The payload really is a borrow into the wire image.
            let hdr = view.header.header_wire_bytes();
            assert!(std::ptr::eq(view.payload.as_ptr(), bytes[hdr..].as_ptr()));
        }
    }

    #[test]
    fn header_encoder_matches_owned_encoder() {
        for seg in [sample_audio(), sample_video()] {
            let header = SegmentHeader::of_segment(&seg);
            let mut region = vec![0u8; header.header_wire_bytes()];
            let written = encode_header_into(&header, &mut region);
            assert_eq!(written, header.header_wire_bytes());
            assert_eq!(region, encode(&seg)[..written]);
        }
    }

    #[test]
    fn slab_decode_leaves_payload_in_place() {
        let slab = ByteSlab::new(2, 1024);
        let seg = sample_video();
        let frame = slab.try_alloc_copy(&encode(&seg)).unwrap();
        let out = decode_slab(&frame).unwrap();
        assert_eq!(out.header, SegmentHeader::of_segment(&seg));
        out.payload.with(|p| assert_eq!(p, seg.payload()));
        // The subslice shares the frame's slab: decoding copied nothing.
        assert_eq!(out.payload.slab_index(), frame.slab_index());
        assert_eq!(frame.ref_count(), 2);
        assert_eq!(out.to_segment(), seg);
    }

    #[test]
    fn slab_decode_rejects_what_decode_rejects() {
        let slab = ByteSlab::new(2, 1024);
        let mut bytes = encode(&sample_audio());
        bytes[0] ^= 0xFF;
        let frame = slab.try_alloc_copy(&bytes).unwrap();
        assert!(matches!(decode_slab(&frame), Err(WireError::BadVersion(_))));
    }

    #[test]
    fn truncated_header_rejected() {
        let seg = sample_audio();
        let bytes = encode(&seg);
        assert!(matches!(
            decode(&bytes[..10]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn truncated_body_rejected() {
        let seg = sample_audio();
        let bytes = encode(&seg);
        assert!(matches!(
            decode(&bytes[..40]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let seg = sample_audio();
        let mut bytes = encode(&seg);
        bytes[0] ^= 0xFF;
        assert!(matches!(decode(&bytes), Err(WireError::BadVersion(_))));
    }

    #[test]
    fn bad_type_rejected() {
        let seg = sample_audio();
        let mut bytes = encode(&seg);
        bytes[15] = 99; // Type field low byte.
        assert!(matches!(decode(&bytes), Err(WireError::BadType(99))));
    }

    #[test]
    fn corrupt_data_length_rejected() {
        let seg = sample_audio();
        let mut bytes = encode(&seg);
        // The audio data_length field is at offset 32..36.
        bytes[35] = bytes[35].wrapping_add(1);
        assert!(matches!(decode(&bytes), Err(WireError::BadLength { .. })));
    }

    #[test]
    fn unplayable_audio_rejected() {
        // The sampling rate sits at offset 20..24, the format (2 was
        // 16-bit linear) at 24..28, the compression at 28..32.
        let encoding = |sampling_rate, compression| WireError::BadAudioEncoding {
            sampling_rate,
            compression,
        };
        for (at, word, err) in [
            (20, 16_000, encoding(16_000, 0)),
            (24, 2, WireError::BadAudioFormat(2)),
            (28, 1, encoding(AUDIO_SAMPLE_RATE, 1)),
        ] {
            let mut bytes = encode(&sample_audio());
            bytes[at..at + 4].copy_from_slice(&u32::to_be_bytes(word));
            assert_eq!(decode(&bytes), Err(err));
        }
        // 17 bytes are a block and one sample: `length` (16..20) and
        // `data_length` (32..36) agree, but audio is whole blocks.
        let length = AUDIO_FULL_HEADER_BYTES + 17;
        let mut bytes = encode(&sample_audio());
        bytes.truncate(length);
        bytes[16..20].copy_from_slice(&u32::to_be_bytes(length as u32));
        bytes[32..36].copy_from_slice(&u32::to_be_bytes(17));
        assert_eq!(decode(&bytes), Err(WireError::BadLength { field: 17 }));
    }

    /// Seeded hostile payloads of 0–120 bytes. Half of them start with a
    /// valid common header — `VERSION_ID`, a type code in 0–3 (0 is
    /// unknown) and a `length` no longer than the buffer — followed by
    /// small words, half the time an audio sub-header's 8 kHz rate, half
    /// the time an audio `length` cut to whole blocks, three times in four
    /// a sub-header's format codes, and, half the time, the `data_length`
    /// that `length` implies. Decoding never panics, and whatever decodes
    /// re-encodes to the input's first `length` bytes. The encoder writes
    /// only the codes of 8 kHz uncompressed µ-law audio and Mono8 DPCM
    /// video, so only those decode: a bad rate, a bad audio compression,
    /// and the codes of 16-bit linear audio, colour pixels and uncompressed
    /// video are each refused, and so is audio whose consistent
    /// `data_length` is not whole blocks.
    #[test]
    fn decode_survives_seeded_hostile_payloads() {
        use pandora_prop::{check, Rng, Tape};

        fn put(bytes: &mut [u8], at: usize, value: u32) {
            if let Some(word) = bytes.get_mut(at..at + 4) {
                word.copy_from_slice(&value.to_be_bytes());
            }
        }
        fn word(bytes: &[u8], at: usize) -> u32 {
            bytes
                .get(at..at + 4)
                .map_or(0, |w| u32::from_be_bytes(w.try_into().unwrap()))
        }
        // The draws the buffer's length does not count come first, and a
        // draw of 0 makes `length` the buffer's: a shorter payload replays
        // a prefix of the same tape, so shrinking it shrinks nothing else.
        fn hostile(tape: &mut Tape) -> Vec<u8> {
            let structured = tape.gen_bool(0.5);
            let shortest = if structured { COMMON_HEADER_BYTES } else { 0 };
            let len = tape.gen_range(shortest..=120);
            let (type_code, short_by) = (tape.gen_range(0..=3u32), tape.gen_range(0..=len));
            let fill_data_length = tape.gen_bool(0.5);
            let playable_rate = tape.gen_bool(0.5);
            let whole_blocks = tape.gen_bool(0.5);
            // 0 leaves the codes to the words drawn below; 1 writes the
            // codes of what plays; 2 and 3 write 16-bit linear audio's
            // code, and a video's colour pixels (2) or its Mono8 pixels
            // uncompressed (3).
            let codes = tape.gen_range(0..=3u32);
            let mut bytes = Vec::with_capacity(len);
            for at in (0..len).step_by(4) {
                bytes.extend((at..len.min(at + 4)).map(|_| tape.gen_range(0..=255u8)));
                if structured && at >= COMMON_HEADER_BYTES && tape.gen_bool(0.5) {
                    put(&mut bytes, at, tape.gen_range(0..=3u32));
                }
            }
            if structured {
                let mut length = len - short_by;
                // Only whole blocks of audio decode.
                if type_code == 1 && whole_blocks && length > AUDIO_FULL_HEADER_BYTES {
                    length -= (length - AUDIO_FULL_HEADER_BYTES) % BLOCK_BYTES;
                }
                put(&mut bytes, 0, VERSION_ID);
                put(&mut bytes, 12, type_code);
                put(&mut bytes, 16, length as u32);
                if type_code == 1 && playable_rate {
                    put(&mut bytes, 20, AUDIO_SAMPLE_RATE);
                }
                // The audio format, then a video's pixel format and
                // compression.
                let (format, pixels, compression) = match codes {
                    1 => (MULAW8, MONO8, DPCM),
                    2 => (2, 2, DPCM),
                    _ => (2, MONO8, 0),
                };
                if codes > 0 && type_code == 1 {
                    put(&mut bytes, 24, format);
                }
                if codes > 0 && type_code == 2 {
                    put(&mut bytes, 40, pixels);
                    put(&mut bytes, 44, compression);
                }
                // The `data_length` word sits just before the payload; a
                // video header's argument count is its word at byte 48.
                let video_args = 4 * word(&bytes, 48) as usize;
                let payload_at = match type_code {
                    1 => AUDIO_FULL_HEADER_BYTES,
                    2 => COMMON_HEADER_BYTES + VIDEO_FIXED_HEADER_BYTES + video_args,
                    _ => 0,
                };
                if payload_at > 0 && payload_at <= length && fill_data_length {
                    put(&mut bytes, payload_at - 4, (length - payload_at) as u32);
                }
            }
            bytes
        }
        let (mut decoded, mut types, mut unplayable) = (0, 0u8, 0u8);
        let name = "decode_survives_seeded_hostile_payloads";
        check(name, 0x5E6_3E47, 100_000, hostile, |bytes| {
            let view = match decode_view(bytes) {
                Ok(view) => view,
                Err(WireError::BadAudioEncoding { sampling_rate, .. }) => {
                    unplayable |= if sampling_rate == AUDIO_SAMPLE_RATE {
                        2
                    } else {
                        1
                    };
                    return;
                }
                Err(WireError::BadAudioFormat(_)) => {
                    unplayable |= 4;
                    return;
                }
                Err(WireError::BadPixelFormat(_)) => {
                    unplayable |= 8;
                    return;
                }
                Err(WireError::BadCompression(_)) => {
                    unplayable |= 16;
                    return;
                }
                // An audio `data_length` that agrees with `length` but is
                // not whole blocks.
                Err(WireError::BadLength { field })
                    if word(bytes, 12) == 1
                        && field as usize + AUDIO_FULL_HEADER_BYTES == word(bytes, 16) as usize =>
                {
                    assert_ne!(field as usize % BLOCK_BYTES, 0);
                    unplayable |= 32;
                    return;
                }
                Err(_) => return,
            };
            decoded += 1;
            types |= 1 << view.header.common().segment_type.code();
            let length = word(bytes, 16) as usize;
            let mut again = vec![0u8; length];
            let at = encode_header_into(&view.header, &mut again);
            again[at..].copy_from_slice(view.payload);
            assert_eq!(again, bytes[..length]);
        });
        // The sweep reaches every decode arm, not just the common header.
        assert_eq!(types, 0b1110);
        assert_eq!(
            unplayable, 0b111111,
            "a bad rate, a bad audio compression, format, pixel format and video compression, \
             and audio that is not whole blocks"
        );
        assert!(decoded > 5_000, "{decoded} decoded");
    }

    #[test]
    fn error_display_strings() {
        let e = WireError::Truncated {
            needed: 10,
            available: 5,
        };
        assert!(e.to_string().contains("truncated"));
        assert!(WireError::BadVersion(3).to_string().contains("bad version"));
        let e = WireError::BadAudioEncoding {
            sampling_rate: 16_000,
            compression: 0,
        };
        assert!(e.to_string().contains("16000 Hz"));
    }
}
