//! The signalling protocol (SessionRequest/Accept/Reject/Modify/Teardown).
//!
//! Control messages are serialized into [`TestSegment`] payloads tagged
//! with a magic prefix, carried on streams of
//! [`pandora::StreamKind::Control`]. They therefore travel exactly like
//! media — over the same links, switches and decoupling buffers — but are
//! never starved: every switch takes them via its PRI-ALT command-first
//! loop (Principle 4) and toward the network they share the audio
//! priority queue (Principle 2 protects signalling as a side effect).
//!
//! The wire layout is a fixed 29 bytes inside the segment payload:
//! `magic(4) kind(1) txn(4) session(4) a(4) b(4) c(4) d(4)`, all
//! big-endian. Idempotency is the receiver's job (see
//! [`crate::control`]): a retried request with a fresh transaction id
//! must not double-apply.

use pandora_atm::Vci;
use pandora_segment::{Segment, SequenceNumber, StreamId, TestSegment, Timestamp};

/// Prefix identifying a control payload inside a test segment.
pub const CONTROL_MAGIC: [u8; 4] = *b"PSC1";

/// Total encoded length of a control message payload.
pub const CONTROL_BYTES: usize = 29;

/// Why an admission request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The endpoint is at its sink capacity for the stream class
    /// (e.g. the audio transputer's three full-processing streams, §4.2).
    SinkBudget,
    /// The endpoint's ATM attachment has no spare cell bandwidth, even
    /// after degrading the request as far as allowed.
    LinkBudget,
}

impl RejectReason {
    fn code(self) -> u32 {
        match self {
            RejectReason::SinkBudget => 1,
            RejectReason::LinkBudget => 2,
        }
    }

    fn from_code(c: u32) -> Option<RejectReason> {
        match c {
            1 => Some(RejectReason::SinkBudget),
            2 => Some(RejectReason::LinkBudget),
            _ => None,
        }
    }
}

/// The class of stream a request concerns, with the requested quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamClass {
    /// 2-block µ-law audio (68-byte segments every 4 ms). Audio is never
    /// degraded (Principle 2): it is admitted whole or rejected.
    Audio,
    /// Video at `rate_permille` thousandths of the full capture rate.
    /// Video degrades by rate reduction before any rejection
    /// (Principles 1–3: the cheap, low-priority traffic gives way first).
    Video {
        /// Requested (or granted) rate in thousandths of full rate.
        rate_permille: u32,
    },
}

impl StreamClass {
    /// Estimated steady-state cell bandwidth of the class, in cells/sec.
    ///
    /// Audio: 68-byte segments every 4 ms → 2 cells per segment → 500
    /// cells/sec. Video: a 128×96 DPCM window at full rate is ~2600
    /// cells/sec, scaled by the rate fraction. These are admission
    /// estimates, not enforcement — the data plane still polices itself
    /// by Principles 1–3 under transient overload.
    pub fn demand_cps(&self) -> u64 {
        match *self {
            StreamClass::Audio => 500,
            StreamClass::Video { rate_permille } => 2_600 * u64::from(rate_permille) / 1_000,
        }
    }

    /// The granted rate field carried on the wire (1000 for audio).
    pub fn rate_permille(&self) -> u32 {
        match *self {
            StreamClass::Audio => 1_000,
            StreamClass::Video { rate_permille } => rate_permille,
        }
    }

    fn tag(&self) -> u32 {
        match self {
            StreamClass::Audio => 1,
            StreamClass::Video { .. } => 2,
        }
    }

    fn from_parts(tag: u32, rate: u32) -> Option<StreamClass> {
        match tag {
            1 => Some(StreamClass::Audio),
            2 => Some(StreamClass::Video {
                rate_permille: rate,
            }),
            _ => None,
        }
    }
}

/// A control-plane message. `txn` matches replies to requests; `session`
/// is the controller's conference/stream identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionMsg {
    /// Request: admit and install a sink for a stream arriving on `vci`
    /// at the receiving endpoint (SessionRequest).
    OpenSink {
        /// Transaction id.
        txn: u32,
        /// Session id.
        session: u32,
        /// Stream class and requested quality.
        class: StreamClass,
        /// The VCI the stream will arrive on.
        vci: Vci,
    },
    /// Reply: sink admitted (possibly degraded to `rate_permille`).
    Accept {
        /// Transaction id (echoes the request).
        txn: u32,
        /// Session id.
        session: u32,
        /// The admitted sink VCI.
        vci: Vci,
        /// Granted rate (≤ requested for degraded video).
        rate_permille: u32,
    },
    /// Reply: sink refused.
    Reject {
        /// Transaction id (echoes the request).
        txn: u32,
        /// Session id.
        session: u32,
        /// Why admission refused.
        reason: RejectReason,
    },
    /// Request: add a network destination to a live source stream
    /// (Modify — the upstream half of growing a split, Principle 6).
    AddDest {
        /// Transaction id.
        txn: u32,
        /// Session id.
        session: u32,
        /// The source box's local stream.
        stream: StreamId,
        /// The destination VCI to add.
        vci: Vci,
        /// Stream class (for the source's transmit-budget charge).
        class: StreamClass,
    },
    /// Request: remove a network destination from a live source stream
    /// (Modify — the upstream half of shrinking a split).
    RemoveDest {
        /// Transaction id.
        txn: u32,
        /// Session id.
        session: u32,
        /// The source box's local stream.
        stream: StreamId,
        /// The destination VCI to remove.
        vci: Vci,
    },
    /// Request: drop a sink installed by [`SessionMsg::OpenSink`] and
    /// release its admission charge (Teardown).
    CloseSink {
        /// Transaction id.
        txn: u32,
        /// Session id.
        session: u32,
        /// The sink VCI to drop.
        vci: Vci,
    },
    /// Reply: positive completion of AddDest/RemoveDest/CloseSink.
    Done {
        /// Transaction id (echoes the request).
        txn: u32,
        /// Session id.
        session: u32,
    },
    /// Liveness probe from the controller's lease monitor. Travels on the
    /// same command path as every other control message (Principle 4), so
    /// a Pong proves the whole box-side control pipeline is alive, not
    /// just the link.
    Ping {
        /// Transaction id.
        txn: u32,
    },
    /// Reply to [`SessionMsg::Ping`]; renews the sender's lease.
    Pong {
        /// Transaction id (echoes the probe).
        txn: u32,
    },
}

impl SessionMsg {
    /// The message's transaction id.
    pub fn txn(&self) -> u32 {
        match *self {
            SessionMsg::OpenSink { txn, .. }
            | SessionMsg::Accept { txn, .. }
            | SessionMsg::Reject { txn, .. }
            | SessionMsg::AddDest { txn, .. }
            | SessionMsg::RemoveDest { txn, .. }
            | SessionMsg::CloseSink { txn, .. }
            | SessionMsg::Done { txn, .. }
            | SessionMsg::Ping { txn }
            | SessionMsg::Pong { txn } => txn,
        }
    }

    fn kind_code(&self) -> u8 {
        match self {
            SessionMsg::OpenSink { .. } => 1,
            SessionMsg::Accept { .. } => 2,
            SessionMsg::Reject { .. } => 3,
            SessionMsg::AddDest { .. } => 4,
            SessionMsg::RemoveDest { .. } => 5,
            SessionMsg::CloseSink { .. } => 6,
            SessionMsg::Done { .. } => 7,
            SessionMsg::Ping { .. } => 8,
            SessionMsg::Pong { .. } => 9,
        }
    }

    /// Encodes the message into its 29-byte payload form.
    pub fn encode(&self) -> Vec<u8> {
        let (txn, session, a, b, c, d) = match *self {
            SessionMsg::OpenSink {
                txn,
                session,
                class,
                vci,
            } => (txn, session, vci.0, class.tag(), class.rate_permille(), 0),
            SessionMsg::Accept {
                txn,
                session,
                vci,
                rate_permille,
            } => (txn, session, vci.0, rate_permille, 0, 0),
            SessionMsg::Reject {
                txn,
                session,
                reason,
            } => (txn, session, reason.code(), 0, 0, 0),
            SessionMsg::AddDest {
                txn,
                session,
                stream,
                vci,
                class,
            } => (
                txn,
                session,
                stream.0,
                vci.0,
                class.tag(),
                class.rate_permille(),
            ),
            SessionMsg::RemoveDest {
                txn,
                session,
                stream,
                vci,
            } => (txn, session, stream.0, vci.0, 0, 0),
            SessionMsg::CloseSink { txn, session, vci } => (txn, session, vci.0, 0, 0, 0),
            SessionMsg::Done { txn, session } => (txn, session, 0, 0, 0, 0),
            SessionMsg::Ping { txn } | SessionMsg::Pong { txn } => (txn, 0, 0, 0, 0, 0),
        };
        let mut out = Vec::with_capacity(CONTROL_BYTES);
        out.extend_from_slice(&CONTROL_MAGIC);
        out.push(self.kind_code());
        for word in [txn, session, a, b, c, d] {
            out.extend_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Decodes a payload produced by [`SessionMsg::encode`]. `None` for
    /// payloads that are not control messages or are malformed.
    pub fn decode(data: &[u8]) -> Option<SessionMsg> {
        if data.len() != CONTROL_BYTES || data[..4] != CONTROL_MAGIC {
            return None;
        }
        let kind = data[4];
        let word = |i: usize| {
            let at = 5 + 4 * i;
            u32::from_be_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]])
        };
        let (txn, session) = (word(0), word(1));
        let (a, b, c, d) = (word(2), word(3), word(4), word(5));
        match kind {
            1 => Some(SessionMsg::OpenSink {
                txn,
                session,
                class: StreamClass::from_parts(b, c)?,
                vci: Vci(a),
            }),
            2 => Some(SessionMsg::Accept {
                txn,
                session,
                vci: Vci(a),
                rate_permille: b,
            }),
            3 => Some(SessionMsg::Reject {
                txn,
                session,
                reason: RejectReason::from_code(a)?,
            }),
            4 => Some(SessionMsg::AddDest {
                txn,
                session,
                stream: StreamId(a),
                vci: Vci(b),
                class: StreamClass::from_parts(c, d)?,
            }),
            5 => Some(SessionMsg::RemoveDest {
                txn,
                session,
                stream: StreamId(a),
                vci: Vci(b),
            }),
            6 => Some(SessionMsg::CloseSink {
                txn,
                session,
                vci: Vci(a),
            }),
            7 => Some(SessionMsg::Done { txn, session }),
            8 => Some(SessionMsg::Ping { txn }),
            9 => Some(SessionMsg::Pong { txn }),
            _ => None,
        }
    }

    /// Wraps the message in a test segment (the control carrier: control
    /// is a `StreamKind`, not a new wire format).
    pub fn to_segment(&self, seq: u32) -> Segment {
        Segment::Test(TestSegment::new(
            SequenceNumber(seq),
            Timestamp(0),
            self.encode(),
        ))
    }

    /// Extracts a control message from a segment, if it carries one.
    pub fn from_segment(segment: &Segment) -> Option<SessionMsg> {
        match segment {
            Segment::Test(t) => SessionMsg::decode(&t.data),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_messages() -> Vec<SessionMsg> {
        vec![
            SessionMsg::OpenSink {
                txn: 1,
                session: 2,
                class: StreamClass::Audio,
                vci: Vci(0x1001),
            },
            SessionMsg::OpenSink {
                txn: 3,
                session: 2,
                class: StreamClass::Video { rate_permille: 250 },
                vci: Vci(0x1002),
            },
            SessionMsg::Accept {
                txn: 1,
                session: 2,
                vci: Vci(0x1001),
                rate_permille: 500,
            },
            SessionMsg::Reject {
                txn: 1,
                session: 2,
                reason: RejectReason::SinkBudget,
            },
            SessionMsg::Reject {
                txn: 9,
                session: 2,
                reason: RejectReason::LinkBudget,
            },
            SessionMsg::AddDest {
                txn: 4,
                session: 2,
                stream: StreamId(7),
                vci: Vci(0x1001),
                class: StreamClass::Audio,
            },
            SessionMsg::RemoveDest {
                txn: 5,
                session: 2,
                stream: StreamId(7),
                vci: Vci(0x1001),
            },
            SessionMsg::CloseSink {
                txn: 6,
                session: 2,
                vci: Vci(0x1001),
            },
            SessionMsg::Done { txn: 6, session: 2 },
            SessionMsg::Ping { txn: 8 },
            SessionMsg::Pong { txn: 8 },
        ]
    }

    /// The wire enums' exhaustiveness oracle. Each index `match` has no
    /// `_` arm, so a new variant does not compile until it is listed
    /// here; `all_messages()` must then carry it, and every message must
    /// survive `decode(encode(m))` — a kind code without a decode arm
    /// fails here.
    #[test]
    fn every_wire_variant_is_listed_and_round_trips() {
        let mut msgs = [false; 9];
        let mut classes = [false; 2];
        let mut reasons = [false; 2];
        let mut class_seen = |class: StreamClass| {
            classes[match class {
                StreamClass::Audio => 0,
                StreamClass::Video { .. } => 1,
            }] = true;
        };
        for msg in all_messages() {
            msgs[match msg {
                SessionMsg::OpenSink { class, .. } => {
                    class_seen(class);
                    0
                }
                SessionMsg::Accept { .. } => 1,
                SessionMsg::Reject { reason, .. } => {
                    reasons[match reason {
                        RejectReason::SinkBudget => 0,
                        RejectReason::LinkBudget => 1,
                    }] = true;
                    2
                }
                SessionMsg::AddDest { class, .. } => {
                    class_seen(class);
                    3
                }
                SessionMsg::RemoveDest { .. } => 4,
                SessionMsg::CloseSink { .. } => 5,
                SessionMsg::Done { .. } => 6,
                SessionMsg::Ping { .. } => 7,
                SessionMsg::Pong { .. } => 8,
            }] = true;
            let bytes = msg.encode();
            assert_eq!(bytes.len(), CONTROL_BYTES);
            assert_eq!(SessionMsg::decode(&bytes), Some(msg), "{msg:?}");
            let seg = msg.to_segment(42);
            assert_eq!(SessionMsg::from_segment(&seg), Some(msg), "{msg:?}");
        }
        assert_eq!(msgs, [true; 9], "a SessionMsg variant is missing");
        assert_eq!(classes, [true; 2], "a StreamClass variant is missing");
        assert_eq!(reasons, [true; 2], "a RejectReason variant is missing");
    }

    #[test]
    fn non_control_payloads_rejected() {
        assert_eq!(SessionMsg::decode(&[]), None);
        assert_eq!(SessionMsg::decode(&[0u8; CONTROL_BYTES]), None);
        let mut bytes = all_messages()[0].encode();
        bytes[4] = 99; // Unknown kind.
        assert_eq!(SessionMsg::decode(&bytes), None);
        bytes.push(0); // Wrong length.
        assert_eq!(SessionMsg::decode(&bytes), None);
    }

    /// Seeded hostile payloads of 0–40 bytes. Half of them carry the
    /// magic, a kind in 0–12 (three past the last) and, mostly, the
    /// right length, with words small enough to hit the class tags and
    /// reason codes. Decoding never panics, and whatever decodes
    /// re-encodes to 29 bytes that decode to the same message.
    #[test]
    fn decode_survives_seeded_hostile_payloads() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(0x5E55_10C0);
        let (mut decoded, mut kinds) = (0, 0u16);
        for _ in 0..100_000 {
            let structured = rng.gen_bool(0.5);
            let len = if structured && rng.gen_bool(0.75) {
                CONTROL_BYTES
            } else {
                rng.gen_range(0..=40usize)
            };
            let mut bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
            if structured {
                for at in (5..len.saturating_sub(3)).step_by(4) {
                    if rng.gen_bool(0.5) {
                        bytes[at..at + 4].copy_from_slice(&rng.gen_range(0..=3u32).to_be_bytes());
                    }
                }
                let head = CONTROL_MAGIC.into_iter().chain([rng.gen_range(0..=12u8)]);
                for (byte, value) in bytes.iter_mut().zip(head) {
                    *byte = value;
                }
            }
            let Some(msg) = SessionMsg::decode(&bytes) else {
                continue;
            };
            decoded += 1;
            kinds |= 1 << msg.kind_code();
            let again = msg.encode();
            assert_eq!(again.len(), CONTROL_BYTES, "{bytes:?}");
            assert_eq!(SessionMsg::decode(&again), Some(msg), "{bytes:?}");
        }
        // The sweep reaches every decode arm, not just the length check.
        assert_eq!(kinds, 0b11_1111_1110);
        assert!(decoded > 10_000, "{decoded} decoded");
    }

    #[test]
    fn demand_estimates_scale_with_rate() {
        assert_eq!(StreamClass::Audio.demand_cps(), 500);
        let full = StreamClass::Video {
            rate_permille: 1_000,
        };
        let half = StreamClass::Video { rate_permille: 500 };
        assert_eq!(full.demand_cps(), 2 * half.demand_cps());
    }
}
