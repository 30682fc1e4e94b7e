//! Seeded violations: a leaf future that keeps the std `Context` waker.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

/// Parks on the inert waker: never resumes.
pub struct Parked(pub Option<Waker>); // check:allow(std-waker): fixture demonstrating the waiver

impl Future for Parked {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        self.0 = Some(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn drives_by_hand() {
        let _w = std::task::Waker::noop();
    }
}
