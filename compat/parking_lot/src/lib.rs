//! Offline stand-in for the `parking_lot` crate.
//!
//! Provides a `Mutex` with parking_lot's ergonomics — `lock()` returns the
//! guard directly, no poisoning — implemented over `std::sync::Mutex`. A
//! panic while a guard is held simply clears the poison flag on the next
//! lock, matching parking_lot's behaviour of leaving the data accessible.

use std::sync::PoisonError;

/// The guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

/// A mutual-exclusion lock that does not poison.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex guarding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex and returns the guarded value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        self.inner.try_lock().ok()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests a mutex across threads")]
mod tests {
    use super::Mutex;
    use std::sync::Arc;

    #[test]
    fn lock_round_trip() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn contended_across_threads() {
        let m = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4_000);
    }

    #[test]
    fn no_poisoning_after_panic() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }
}
