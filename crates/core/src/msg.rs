//! Message and stream-table types shared by the box's processes.

use pandora_atm::Vci;
use pandora_buffers::Descriptor;
use pandora_segment::{SegmentType, StreamId};
use pandora_sim::SimTime;

/// The class of traffic on a stream (drives Principle 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// An audio stream.
    Audio,
    /// A video stream.
    Video,
    /// Session-control signalling. Control segments ride the same paths
    /// as media but are never starved: toward the network they share the
    /// audio priority queue, and inside the box they land on the session
    /// output via the switch's PRI-ALT loop (Principle 4).
    Control,
    /// Test traffic.
    Test,
}

impl From<SegmentType> for StreamKind {
    fn from(t: SegmentType) -> StreamKind {
        match t {
            SegmentType::Audio => StreamKind::Audio,
            SegmentType::Video => StreamKind::Video,
            SegmentType::Test => StreamKind::Test,
        }
    }
}

/// An output device handler on the server board (figure 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputId {
    /// The ATM network output, tagged with the outgoing VCI for the
    /// stream ("what outgoing VCI to use", §3.4).
    Network(Vci),
    /// The audio board (local playback).
    Audio,
    /// The mixer board (local video display).
    Mixer,
    /// The test output handler.
    Test,
    /// The repository recorder attachment.
    Repository,
    /// The session agent attachment (inbound control signalling).
    Session,
}

/// A descriptor travelling from an input handler through the switch.
#[derive(Debug, Clone, Copy)]
pub struct SegMsg {
    /// The in-box stream number.
    pub stream: StreamId,
    /// Pool descriptor of the segment buffer.
    pub desc: Descriptor,
}

/// A per-stream switch table entry (§3.4: "private tables that describe
/// the operations to be performed on the segments of each stream").
#[derive(Debug, Clone)]
pub struct SwitchEntry {
    /// Where copies of this stream go.
    pub dests: Vec<OutputId>,
    /// Traffic class.
    pub kind: StreamKind,
    /// When the stream was opened (drives Principle 3's age ordering).
    pub opened_at: SimTime,
}

/// Commands understood by the switch process ("the tables are updated
/// without disturbing the flows of data when commands are received",
/// Principle 6).
#[derive(Debug, Clone)]
pub enum SwitchCommand {
    /// Install or replace a stream's routing entry.
    SetRoute {
        /// The stream to configure.
        stream: StreamId,
        /// The new entry.
        entry: SwitchEntry,
    },
    /// Add one destination to an existing stream (splitting, Principle 6).
    AddDest {
        /// The stream to split.
        stream: StreamId,
        /// The extra destination.
        dest: OutputId,
    },
    /// Remove one destination from a stream.
    RemoveDest {
        /// The stream.
        stream: StreamId,
        /// The destination to drop.
        dest: OutputId,
    },
    /// Drop the stream's entry entirely; the table's other streams keep
    /// flowing byte-identically (Principle 6 at the switch).
    DropRoute {
        /// The stream to stop routing.
        stream: StreamId,
    },
    /// Emit a status report for a stream.
    Query {
        /// The stream to report on.
        stream: StreamId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_kind_from_segment_type() {
        assert_eq!(StreamKind::from(SegmentType::Audio), StreamKind::Audio);
        assert_eq!(StreamKind::from(SegmentType::Video), StreamKind::Video);
        assert_eq!(StreamKind::from(SegmentType::Test), StreamKind::Test);
    }

    #[test]
    fn output_id_equality() {
        assert_eq!(OutputId::Network(Vci(3)), OutputId::Network(Vci(3)));
        assert_ne!(OutputId::Network(Vci(3)), OutputId::Network(Vci(4)));
        assert_ne!(OutputId::Audio, OutputId::Mixer);
    }
}
