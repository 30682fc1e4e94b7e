//! The reference-counting segment buffer allocator (§3.4).
//!
//! "The buffer memory is shared by all the processes that may use it. The
//! allocator keeps a reference count of the number of processes using each
//! buffer", and must be told when a descriptor is duplicated (increment)
//! or finished with (decrement); "the common case of a process passing on
//! a descriptor to just one other process does not require a change in the
//! reference count."
//!
//! "If there are no buffers available, then the allocator will not listen
//! for any requests, and the requesting processes will be descheduled …
//! until the allocator is ready to receive again. The allocator reports
//! this (serious) fault."

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use pandora_sim::TaskWaker;

/// A buffer descriptor — the index that travels through the switch instead
/// of the data itself ("the input processes … transmit the buffer index
/// numbers through the rest of the system").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Descriptor(pub usize);

struct Slot<T> {
    value: Option<T>,
    refs: u32,
}

struct PoolInner<T> {
    /// One slot per buffer ever handed out, in first-use order: the table
    /// grows on demand up to `capacity`.
    slots: RefCell<Vec<Slot<T>>>,
    /// Freed slots, most recently freed on top.
    free: RefCell<Vec<usize>>,
    capacity: usize,
    waiters: RefCell<Vec<TaskWaker>>,
    exhausted_waits: Cell<u64>,
    allocations: Cell<u64>,
}

/// Drop-time audit record: the slots still holding a nonzero reference
/// count when the last [`Pool`] handle went away. A leak here means some
/// process duplicated a descriptor and never released it — the
/// reference-count discipline of §3.4 was violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakReport {
    /// Total buffers in the audited pool.
    pub capacity: usize,
    /// Leaked slots: each descriptor and its outstanding reference count.
    pub leaked: Vec<(Descriptor, u32)>,
}

thread_local! {
    static LAST_LEAK: RefCell<Option<LeakReport>> = const { RefCell::new(None) };
}

/// Takes (and clears) the leak report from the most recently dropped
/// leaking pool on this thread, if any. This is the observable side of
/// the `Drop`-time audit; dropping a balanced pool leaves it `None`.
pub fn take_leak_report() -> Option<LeakReport> {
    LAST_LEAK.with(|l| l.borrow_mut().take())
}

impl<T> Drop for PoolInner<T> {
    /// Audits the pool on teardown: any slot with a live reference count
    /// is reported on stderr and recorded for [`take_leak_report`], and
    /// debug builds assert the free list and live slots balance.
    fn drop(&mut self) {
        let slots = self.slots.get_mut();
        let leaked: Vec<(Descriptor, u32)> = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.refs > 0)
            .map(|(i, s)| (Descriptor(i), s.refs))
            .collect();
        let free = self.free.get_mut().len();
        debug_assert!(
            free + leaked.len() == slots.len(),
            "pool accounting out of balance: {free} free + {} live != {} slots",
            leaked.len(),
            slots.len()
        );
        if !leaked.is_empty() {
            eprintln!(
                "pandora-buffers: pool dropped with {} leaked descriptor(s) of {}:",
                leaked.len(),
                self.capacity
            );
            for (d, refs) in &leaked {
                eprintln!("  {d:?} with {refs} outstanding reference(s)");
            }
            LAST_LEAK.with(|l| {
                *l.borrow_mut() = Some(LeakReport {
                    capacity: self.capacity,
                    leaked,
                });
            });
        }
    }
}

/// A fixed-size pool of segment buffers with reference counting.
///
/// Cloning the pool handle shares the same buffers, mirroring the single
/// allocator process on the server transputer.
pub struct Pool<T> {
    inner: Rc<PoolInner<T>>,
}

impl<T> Clone for Pool<T> {
    fn clone(&self) -> Self {
        Pool {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Pool<T> {
    /// Creates a pool of `capacity` buffers. Nothing is reserved here:
    /// a slot joins the table the first time it is handed out (see
    /// [`Pool::backed`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "pool capacity must be non-zero");
        Pool {
            inner: Rc::new(PoolInner {
                slots: RefCell::new(Vec::new()),
                free: RefCell::new(Vec::new()),
                capacity,
                waiters: RefCell::new(Vec::new()),
                exhausted_waits: Cell::new(0),
                allocations: Cell::new(0),
            }),
        }
    }

    /// Tries to allocate a buffer holding `value` with reference count 1.
    ///
    /// Returns the value back if the pool is exhausted. Hands out the
    /// most recently freed slot, else the lowest slot never used — the
    /// order of a free stack holding every slot from the start.
    pub fn try_alloc(&self, value: T) -> Result<Descriptor, T> {
        let mut slots = self.inner.slots.borrow_mut();
        let idx = match self.inner.free.borrow_mut().pop() {
            Some(i) => i,
            None if slots.len() < self.inner.capacity => {
                slots.push(Slot {
                    value: None,
                    refs: 0,
                });
                slots.len() - 1
            }
            None => return Err(value),
        };
        slots[idx] = Slot {
            value: Some(value),
            refs: 1,
        };
        self.inner.allocations.set(self.inner.allocations.get() + 1);
        Ok(Descriptor(idx))
    }

    /// Allocates a buffer, waiting (descheduled) until one is free.
    ///
    /// Exhaustion waits are counted so the caller can raise the paper's
    /// "serious fault" report.
    pub fn alloc(&self, value: T) -> Alloc<'_, T> {
        Alloc {
            pool: self,
            value: Some(value),
            counted: false,
        }
    }

    /// Increments the reference count of `d` by `extra` — required when "a
    /// buffer descriptor has been sent to more than one other process".
    ///
    /// # Panics
    ///
    /// Panics if the descriptor is not allocated.
    pub fn add_refs(&self, d: Descriptor, extra: u32) {
        let mut slots = self.inner.slots.borrow_mut();
        let Some(slot) = slots
            .get_mut(d.0)
            .filter(|s| s.value.is_some() && s.refs > 0)
        else {
            panic!("add_refs on a free buffer {d:?}");
        };
        slot.refs += extra;
    }

    /// Decrements the reference count; frees the buffer at zero and wakes
    /// any waiting allocators. Returns the stored value if this was the
    /// final reference.
    ///
    /// # Panics
    ///
    /// Panics if the descriptor is not allocated.
    pub fn release(&self, d: Descriptor) -> Option<T> {
        let mut slots = self.inner.slots.borrow_mut();
        let Some(slot) = slots
            .get_mut(d.0)
            .filter(|s| s.value.is_some() && s.refs > 0)
        else {
            panic!("release of a free buffer {d:?}");
        };
        slot.refs -= 1;
        if slot.refs == 0 {
            let value = slot.value.take();
            drop(slots);
            self.inner.free.borrow_mut().push(d.0);
            for w in self.inner.waiters.borrow_mut().drain(..) {
                w.wake();
            }
            value
        } else {
            None
        }
    }

    /// Reads the buffer behind `d`.
    ///
    /// # Panics
    ///
    /// Panics if the descriptor is not allocated.
    pub fn with<R>(&self, d: Descriptor, f: impl FnOnce(&T) -> R) -> R {
        let slots = self.inner.slots.borrow();
        match slots.get(d.0).and_then(|s| s.value.as_ref()) {
            Some(value) => f(value),
            None => panic!("with() on a free buffer {d:?}"),
        }
    }

    /// Current reference count of `d` (0 if free).
    pub fn refs(&self, d: Descriptor) -> u32 {
        self.inner.slots.borrow().get(d.0).map_or(0, |s| s.refs)
    }

    /// Number of free buffers: freed ones plus those never used.
    pub fn free_count(&self) -> usize {
        self.inner.free.borrow().len() + self.inner.capacity - self.backed()
    }

    /// Total buffers in the pool.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Buffers ever used: the high-water mark of descriptors live at
    /// once, since the LIFO free list reuses a freed slot before it
    /// touches a fresh one.
    pub fn backed(&self) -> usize {
        self.inner.slots.borrow().len()
    }

    /// Times an allocation had to wait on an exhausted pool.
    pub fn exhausted_waits(&self) -> u64 {
        self.inner.exhausted_waits.get()
    }

    /// Total successful allocations.
    pub fn allocations(&self) -> u64 {
        self.inner.allocations.get()
    }
}

/// Future returned by [`Pool::alloc`].
pub struct Alloc<'a, T> {
    pool: &'a Pool<T>,
    value: Option<T>,
    counted: bool,
}

// `Alloc` holds no self-references — only a pool handle and an owned
// value — so it is freely movable and we can pin-project safely via
// `Pin::get_mut` instead of `unsafe { get_unchecked_mut() }`.
impl<T> Unpin for Alloc<'_, T> {}

impl<T> Future for Alloc<'_, T> {
    type Output = Descriptor;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Descriptor> {
        let this = self.get_mut();
        let Some(value) = this.value.take() else {
            panic!("Alloc polled after completion");
        };
        match this.pool.try_alloc(value) {
            Ok(d) => Poll::Ready(d),
            Err(value) => {
                this.value = Some(value);
                if !this.counted {
                    this.pool
                        .inner
                        .exhausted_waits
                        .set(this.pool.inner.exhausted_waits.get() + 1);
                    this.counted = true;
                }
                this.pool
                    .inner
                    .waiters
                    .borrow_mut()
                    .push(pandora_sim::waker());
                Poll::Pending
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_sim::{SimDuration, Simulation};
    use std::rc::Rc as StdRc;

    #[test]
    fn alloc_and_release_cycle() {
        let pool = Pool::new(2);
        let d = pool.try_alloc("hello").unwrap();
        assert_eq!(pool.free_count(), 1);
        assert_eq!(pool.refs(d), 1);
        pool.with(d, |v| assert_eq!(*v, "hello"));
        assert_eq!(pool.release(d), Some("hello"));
        assert_eq!(pool.free_count(), 2);
        assert_eq!(pool.refs(d), 0);
    }

    #[test]
    fn split_requires_add_refs() {
        // A descriptor fanned out to three destinations: +2 refs, three
        // releases, freed only after the last.
        let pool = Pool::new(1);
        let d = pool.try_alloc(42u32).unwrap();
        pool.add_refs(d, 2);
        assert_eq!(pool.release(d), None);
        assert_eq!(pool.release(d), None);
        assert_eq!(pool.free_count(), 0);
        assert_eq!(pool.release(d), Some(42));
        assert_eq!(pool.free_count(), 1);
    }

    #[test]
    fn exhaustion_returns_value() {
        let pool = Pool::new(1);
        let _d = pool.try_alloc(1u8).unwrap();
        assert_eq!(pool.try_alloc(2u8), Err(2u8));
    }

    #[test]
    fn async_alloc_waits_for_release() {
        let mut sim = Simulation::new();
        let pool = Pool::new(1);
        let d0 = pool.try_alloc(0u32).unwrap();
        let got = StdRc::new(Cell::new(false));
        {
            let pool = pool.clone();
            let got = got.clone();
            sim.spawn("waiter", async move {
                let d = pool.alloc(7).await;
                pool.with(d, |v| assert_eq!(*v, 7));
                got.set(true);
            });
        }
        {
            let pool = pool.clone();
            sim.spawn("releaser", async move {
                pandora_sim::delay(SimDuration::from_millis(3)).await;
                pool.release(d0);
            });
        }
        sim.run_until_idle();
        assert!(got.get());
        assert_eq!(pool.exhausted_waits(), 1);
    }

    #[test]
    fn waiters_fifo_progress() {
        let mut sim = Simulation::new();
        let pool = Pool::new(1);
        let d0 = pool.try_alloc(0u32).unwrap();
        let done = StdRc::new(Cell::new(0u32));
        for i in 0..3 {
            let pool = pool.clone();
            let done = done.clone();
            sim.spawn(&format!("w{i}"), async move {
                let d = pool.alloc(i).await;
                done.set(done.get() + 1);
                pandora_sim::delay(SimDuration::from_millis(1)).await;
                pool.release(d);
            });
        }
        {
            let pool = pool.clone();
            sim.spawn("kick", async move {
                pandora_sim::delay(SimDuration::from_millis(1)).await;
                pool.release(d0);
            });
        }
        sim.run_until_idle();
        assert_eq!(done.get(), 3);
    }

    #[test]
    #[should_panic(expected = "release of a free buffer")]
    fn double_release_panics() {
        let pool = Pool::new(1);
        let d = pool.try_alloc(1u8).unwrap();
        pool.release(d);
        pool.release(d);
    }

    #[test]
    #[should_panic(expected = "add_refs on a free buffer")]
    fn add_refs_on_free_panics() {
        let pool = Pool::new(1);
        let d = pool.try_alloc(1u8).unwrap();
        pool.release(d);
        pool.add_refs(d, 1);
    }

    #[test]
    fn allocation_counter() {
        let pool = Pool::new(2);
        let a = pool.try_alloc(1).unwrap();
        let _b = pool.try_alloc(2).unwrap();
        pool.release(a);
        let _c = pool.try_alloc(3).unwrap();
        assert_eq!(pool.allocations(), 3);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = Pool::<u8>::new(0);
    }

    #[test]
    fn leak_audit_identifies_leaked_slot() {
        let _ = take_leak_report(); // clear any report from another test
        let leaked_descriptor;
        {
            let pool = Pool::new(3);
            let a = pool.try_alloc("released").unwrap();
            let b = pool.try_alloc("leaked").unwrap();
            pool.add_refs(b, 1);
            pool.release(a);
            leaked_descriptor = b;
            // `b` never fully released: 2 refs outstanding at drop.
        }
        let report = take_leak_report().expect("leak audit must fire");
        assert_eq!(report.capacity, 3);
        assert_eq!(report.leaked, vec![(leaked_descriptor, 2)]);
    }

    #[test]
    fn balanced_drop_leaves_no_leak_report() {
        let _ = take_leak_report();
        {
            let pool = Pool::new(2);
            let a = pool.try_alloc(1u8).unwrap();
            let b = pool.try_alloc(2u8).unwrap();
            pool.release(a);
            pool.release(b);
        }
        assert!(take_leak_report().is_none());
    }

    /// Random grab / clone / release sequences hand out exactly the
    /// descriptors of a free stack that holds every slot from the start
    /// (the model), and the pool backs only its high-water mark.
    #[test]
    fn descriptors_follow_the_eager_free_stack() {
        use pandora_prop::{check, Rng, Tape};
        fn ops(tape: &mut Tape) -> (usize, Vec<(u8, usize)>) {
            let capacity = tape.gen_range(1..=16usize);
            let len = tape.gen_range(0..200usize);
            let ops = (0..len)
                .map(|_| (tape.gen_range(0..3u8), tape.gen_range(0..=usize::MAX)))
                .collect();
            (capacity, ops)
        }
        check("pool_free_stack", 1, 500, ops, |(capacity, ops)| {
            let pool = Pool::new(*capacity);
            let mut model: Vec<usize> = (0..*capacity).rev().collect();
            let (mut live, mut high_water) = (Vec::new(), 0);
            for &(op, pick) in ops {
                match op {
                    0 => match model.pop() {
                        Some(slot) => {
                            assert_eq!(pool.try_alloc(slot), Ok(Descriptor(slot)));
                            live.push(Descriptor(slot));
                            high_water = high_water.max(slot + 1);
                        }
                        None => assert_eq!(pool.try_alloc(usize::MAX), Err(usize::MAX)),
                    },
                    _ if live.is_empty() => {}
                    1 => {
                        let d = live[pick % live.len()];
                        pool.add_refs(d, 1);
                        live.push(d);
                    }
                    _ => {
                        let d = live.swap_remove(pick % live.len());
                        let last = !live.contains(&d);
                        assert_eq!(pool.release(d), last.then_some(d.0));
                        if last {
                            model.push(d.0);
                        }
                    }
                }
                assert_eq!(pool.free_count(), model.len());
                assert_eq!(pool.backed(), high_water);
                assert_eq!(pool.capacity(), *capacity);
            }
            for d in live {
                pool.release(d);
            }
        });
    }

    #[test]
    fn exhaustion_wakes_waiters_in_fifo_order() {
        let mut sim = Simulation::new();
        let pool = Pool::new(1);
        let d0 = pool.try_alloc(99u32).unwrap();
        let order = StdRc::new(RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let pool = pool.clone();
            let order = order.clone();
            sim.spawn(&format!("w{i}"), async move {
                let d = pool.alloc(i).await;
                order.borrow_mut().push(i);
                pandora_sim::delay(SimDuration::from_millis(1)).await;
                pool.release(d);
            });
        }
        {
            let pool = pool.clone();
            sim.spawn("kick", async move {
                pandora_sim::delay(SimDuration::from_millis(1)).await;
                pool.release(d0);
            });
        }
        sim.run_until_idle();
        // Waiters acquire strictly in arrival order under the
        // deterministic scheduler.
        assert_eq!(*order.borrow(), vec![0, 1, 2]);
    }
}
