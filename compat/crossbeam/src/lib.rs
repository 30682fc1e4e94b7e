//! Offline stand-in for the `crossbeam` crate.
//!
//! Only the `channel::bounded` constructor is provided, backed by
//! `std::sync::mpsc::sync_channel`. Nothing in the workspace has called
//! it since the wall-clock runtime (`crates/core/src/rt.rs`) was
//! deleted; the shim and the `crossbeam` line in `crates/core/Cargo.toml`
//! stay only because dropping them rewrites the tracked
//! `benchmark/Cargo.lock` (ROADMAP item 9).

/// Bounded blocking channels, mirroring `crossbeam::channel`.
pub mod channel {
    pub use std::sync::mpsc::{Receiver, RecvError, SendError, TryRecvError};

    /// The sending half of a bounded channel (cloneable, blocking `send`).
    pub type Sender<T> = std::sync::mpsc::SyncSender<T>;

    /// Creates a bounded channel of the given capacity; `send` blocks when
    /// the queue is full.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::sync_channel(capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::channel;

    #[test]
    fn bounded_round_trip() {
        let (tx, rx) = channel::bounded::<u32>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.try_recv().unwrap(), 2);
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn senders_clone_and_close() {
        let (tx, rx) = channel::bounded::<u32>(4);
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = channel::bounded::<u32>(1);
        drop(rx);
        assert!(tx.send(1).is_err());
    }
}
