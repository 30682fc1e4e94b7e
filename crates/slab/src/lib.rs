//! # pandora-slab — slab-backed refcounted byte regions
//!
//! The byte-level half of the §3.4 allocator. Where `pandora-buffers`'
//! `Pool` reference-counts *descriptors* (indices of typed values), this
//! crate owns the payload *bytes* themselves: an arena of at most a fixed
//! number of fixed-capacity slab regions, handed out as refcounted
//! [`SlabRef`] slices. A region's slot is added to the table the first
//! time it is handed out, with `slab_bytes` reserved and kept from then
//! on, and holds only the bytes written into it. The free list is LIFO,
//! so an arena backs exactly its high-water mark of concurrently live
//! regions and allocates nothing once that mark is reached — an idle box
//! does not pay for the streams it could carry. Cloning a `SlabRef` bumps a counter;
//! subslicing is O(1); nothing is memcpy'd until a device boundary is
//! crossed.
//!
//! The paper's two-copy invariant — segment data is "copied once on input
//! and once on output", everything in between moves buffer indices — is
//! made *checkable* here: every byte that crosses into the arena
//! ([`ByteSlab::try_alloc_copy`], [`SlabWriter::append`]) or out of it
//! ([`SlabRef::copy_to_vec`], [`SlabRef::copy_out_with`]) is counted, so a
//! test can assert the steady-state copies per hop. Reads that do not copy
//! ([`SlabRef::with`]) are free.
//!
//! Like the descriptor pool, the arena audits itself: when the last
//! [`ByteSlab`] handle drops while `SlabRef`s are still outstanding, the
//! leaked slab indices are reported on stderr and recorded for
//! [`take_slab_leak_report`].

#![deny(missing_docs, clippy::unwrap_used, clippy::expect_used)]

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

/// Errors produced by slab allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlabError {
    /// Every slab is in use — the §3.4 "serious fault".
    Exhausted,
    /// The data does not fit one slab region.
    TooLarge {
        /// Bytes the caller needed.
        needed: usize,
        /// Fixed capacity of one slab.
        slab_bytes: usize,
    },
}

impl fmt::Display for SlabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlabError::Exhausted => write!(f, "byte slab exhausted"),
            SlabError::TooLarge { needed, slab_bytes } => {
                write!(
                    f,
                    "payload of {needed} bytes exceeds slab size {slab_bytes}"
                )
            }
        }
    }
}

impl std::error::Error for SlabError {}

struct Slot {
    refs: u32,
    /// The region's bytes: exactly those written, in a buffer reserved at
    /// `slab_bytes` when the slot is first grabbed and never given back.
    /// Empty while a [`SlabWriter`] owns the buffer outright — writers
    /// take it out so the append hot path touches no shared state.
    buf: Vec<u8>,
}

struct SlabInner {
    /// One slot per region ever handed out, in first-use order: the
    /// table grows on demand up to `count`, so every slot in it is
    /// backed.
    slots: RefCell<Vec<Slot>>,
    /// Freed slots, most recently freed on top.
    free: RefCell<Vec<usize>>,
    count: usize,
    slab_bytes: usize,
    /// Live `ByteSlab` handles; the leak audit fires when the last drops
    /// (`SlabRef`s keep the `Rc` alive, so `Drop` of the inner cannot be
    /// the trigger as it is for the descriptor pool).
    handles: Cell<usize>,
    allocations: Cell<u64>,
    alloc_failures: Cell<u64>,
    copied_in: Cell<u64>,
    copied_out: Cell<u64>,
}

impl SlabInner {
    #[inline]
    fn incref(&self, index: usize) {
        self.slots.borrow_mut()[index].refs += 1;
    }

    #[inline]
    fn decref(&self, index: usize) {
        let mut slots = self.slots.borrow_mut();
        let slot = &mut slots[index];
        debug_assert!(slot.refs > 0, "decref of a free slab {index}");
        slot.refs -= 1;
        if slot.refs == 0 {
            drop(slots);
            self.free.borrow_mut().push(index);
        }
    }
}

/// Drop-time audit record: slabs still referenced when the last
/// [`ByteSlab`] handle went away. See [`take_slab_leak_report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlabLeakReport {
    /// Total slabs in the audited arena.
    pub capacity: usize,
    /// Leaked slabs: index and outstanding reference count.
    pub leaked: Vec<(usize, u32)>,
}

thread_local! {
    static LAST_SLAB_LEAK: RefCell<Option<SlabLeakReport>> = const { RefCell::new(None) };
}

/// Takes (and clears) the leak report from the most recently dropped
/// leaking [`ByteSlab`] on this thread, if any. Dropping a balanced arena
/// leaves it `None`.
pub fn take_slab_leak_report() -> Option<SlabLeakReport> {
    LAST_SLAB_LEAK.with(|l| l.borrow_mut().take())
}

/// A fixed arena of at most `count` byte slabs of `slab_bytes` each, a
/// slab's memory allocated when it is first used. Cloning the handle
/// shares the same arena.
pub struct ByteSlab {
    inner: Rc<SlabInner>,
}

impl Clone for ByteSlab {
    fn clone(&self) -> Self {
        self.inner.handles.set(self.inner.handles.get() + 1);
        ByteSlab {
            inner: self.inner.clone(),
        }
    }
}

impl Drop for ByteSlab {
    /// Audits the arena when the last handle goes away: any slab with a
    /// live reference count is reported on stderr and recorded for
    /// [`take_slab_leak_report`].
    fn drop(&mut self) {
        let handles = self.inner.handles.get() - 1;
        self.inner.handles.set(handles);
        if handles > 0 {
            return;
        }
        let leaked: Vec<(usize, u32)> = self
            .inner
            .slots
            .borrow()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.refs > 0)
            .map(|(i, s)| (i, s.refs))
            .collect();
        if leaked.is_empty() {
            return;
        }
        let capacity = self.inner.count;
        eprintln!(
            "pandora-slab: arena dropped with {} referenced slab(s) of {capacity}:",
            leaked.len()
        );
        for (i, refs) in &leaked {
            eprintln!("  slab {i} with {refs} outstanding reference(s)");
        }
        LAST_SLAB_LEAK.with(|l| {
            *l.borrow_mut() = Some(SlabLeakReport { capacity, leaked });
        });
    }
}

impl fmt::Debug for ByteSlab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ByteSlab")
            .field("capacity", &self.capacity())
            .field("slab_bytes", &self.inner.slab_bytes)
            .field("free", &self.free_count())
            .finish()
    }
}

impl ByteSlab {
    /// Creates an arena of `count` slabs of `slab_bytes` bytes each.
    /// Nothing is reserved here: `count` caps how many regions can be
    /// live at once, and a slot joins the table with its `slab_bytes` the
    /// first time it is handed out (see [`ByteSlab::backed`]).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(count: usize, slab_bytes: usize) -> ByteSlab {
        assert!(count > 0, "slab count must be non-zero");
        assert!(slab_bytes > 0, "slab size must be non-zero");
        ByteSlab {
            inner: Rc::new(SlabInner {
                slots: RefCell::new(Vec::new()),
                free: RefCell::new(Vec::new()),
                count,
                slab_bytes,
                handles: Cell::new(1),
                allocations: Cell::new(0),
                alloc_failures: Cell::new(0),
                copied_in: Cell::new(0),
                copied_out: Cell::new(0),
            }),
        }
    }

    /// Hands out the most recently freed slot, else the lowest slot never
    /// used — the order of a free stack holding every slot from the
    /// start, without writing that stack.
    #[inline]
    fn grab_slot(&self) -> Result<usize, SlabError> {
        let mut slots = self.inner.slots.borrow_mut();
        let index = match self.inner.free.borrow_mut().pop() {
            Some(index) => index,
            None if slots.len() < self.inner.count => {
                slots.push(Slot {
                    refs: 0,
                    buf: Vec::with_capacity(self.inner.slab_bytes),
                });
                slots.len() - 1
            }
            None => {
                self.inner
                    .alloc_failures
                    .set(self.inner.alloc_failures.get() + 1);
                return Err(SlabError::Exhausted);
            }
        };
        let slot = &mut slots[index];
        slot.refs = 1;
        slot.buf.clear();
        self.inner.allocations.set(self.inner.allocations.get() + 1);
        Ok(index)
    }

    /// Allocates a slab and copies `data` into it — an *input* copy,
    /// counted against [`ByteSlab::copied_in_bytes`].
    pub fn try_alloc_copy(&self, data: &[u8]) -> Result<SlabRef, SlabError> {
        if data.len() > self.inner.slab_bytes {
            self.inner
                .alloc_failures
                .set(self.inner.alloc_failures.get() + 1);
            return Err(SlabError::TooLarge {
                needed: data.len(),
                slab_bytes: self.inner.slab_bytes,
            });
        }
        let index = self.grab_slot()?;
        self.inner.slots.borrow_mut()[index]
            .buf
            .extend_from_slice(data);
        self.inner
            .copied_in
            .set(self.inner.copied_in.get() + data.len() as u64);
        Ok(SlabRef {
            inner: self.inner.clone(),
            index,
            offset: 0,
            len: data.len(),
        })
    }

    /// Allocates an empty slab for incremental filling (reassembly).
    ///
    /// The writer takes the region's buffer *out* of the arena for the
    /// duration: appends index an owned slice directly, with no shared
    /// state touched until [`SlabWriter::freeze`] puts it back.
    #[inline]
    pub fn try_writer(&self) -> Result<SlabWriter, SlabError> {
        let index = self.grab_slot()?;
        let buf = std::mem::take(&mut self.inner.slots.borrow_mut()[index].buf);
        Ok(SlabWriter {
            inner: self.inner.clone(),
            index,
            buf,
            frozen: false,
        })
    }

    /// Fixed byte capacity of one slab.
    pub fn slab_bytes(&self) -> usize {
        self.inner.slab_bytes
    }

    /// Total slabs in the arena.
    pub fn capacity(&self) -> usize {
        self.inner.count
    }

    /// Slabs ever backed with memory: the high-water mark of regions
    /// live at once, since the LIFO free list reuses a backed slot
    /// before it touches a fresh one.
    pub fn backed(&self) -> usize {
        self.inner.slots.borrow().len()
    }

    /// Slabs currently free: freed ones plus those never used.
    pub fn free_count(&self) -> usize {
        self.inner.free.borrow().len() + self.inner.count - self.backed()
    }

    /// Total successful slab allocations.
    pub fn allocations(&self) -> u64 {
        self.inner.allocations.get()
    }

    /// Allocations refused (exhausted or oversized).
    pub fn alloc_failures(&self) -> u64 {
        self.inner.alloc_failures.get()
    }

    /// Bytes copied *into* the arena (the input copies).
    pub fn copied_in_bytes(&self) -> u64 {
        self.inner.copied_in.get()
    }

    /// Bytes copied *out of* the arena (the output copies).
    pub fn copied_out_bytes(&self) -> u64 {
        self.inner.copied_out.get()
    }
}

/// A refcounted slice of one slab. Clone bumps the slab's reference
/// count; drop decrements it and frees the slab at zero.
pub struct SlabRef {
    inner: Rc<SlabInner>,
    index: usize,
    offset: usize,
    len: usize,
}

impl Clone for SlabRef {
    fn clone(&self) -> Self {
        self.inner.incref(self.index);
        SlabRef {
            inner: self.inner.clone(),
            index: self.index,
            offset: self.offset,
            len: self.len,
        }
    }
}

impl Drop for SlabRef {
    fn drop(&mut self) {
        self.inner.decref(self.index);
    }
}

impl fmt::Debug for SlabRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlabRef")
            .field("slab", &self.index)
            .field("offset", &self.offset)
            .field("len", &self.len)
            .finish()
    }
}

impl PartialEq for SlabRef {
    /// Content equality (two refs may alias different slabs).
    fn eq(&self, other: &SlabRef) -> bool {
        self.with(|a| other.with(|b| a == b))
    }
}

impl Eq for SlabRef {}

impl SlabRef {
    /// Bytes in this slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slab index backing this slice (for leak-audit assertions).
    pub fn slab_index(&self) -> usize {
        self.index
    }

    /// Current reference count of the backing slab.
    pub fn ref_count(&self) -> u32 {
        self.inner.slots.borrow()[self.index].refs
    }

    /// An O(1) subslice sharing the same slab (reference count +1).
    ///
    /// # Panics
    ///
    /// Panics if `offset + len` exceeds this slice.
    #[inline]
    pub fn slice(&self, offset: usize, len: usize) -> SlabRef {
        assert!(
            offset + len <= self.len,
            "slice {offset}+{len} out of bounds of {}",
            self.len
        );
        self.inner.incref(self.index);
        SlabRef {
            inner: self.inner.clone(),
            index: self.index,
            offset: self.offset + offset,
            len,
        }
    }

    /// Reads the bytes without copying (parsing, checksums, size math).
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        // `SlabRef`s are only minted by `try_alloc_copy` and `freeze`,
        // both of which leave the buffer in the slot; a writer (the
        // only taker of a buffer) holds no `SlabRef`.
        f(&self.inner.slots.borrow()[self.index].buf[self.offset..self.offset + self.len])
    }

    /// Reads the bytes for a copy *out* of the arena; counts `len` bytes
    /// against [`ByteSlab::copied_out_bytes`]. Use this (not
    /// [`SlabRef::with`]) wherever the callee duplicates the data.
    #[inline]
    pub fn copy_out_with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        self.inner
            .copied_out
            .set(self.inner.copied_out.get() + self.len as u64);
        self.with(f)
    }

    /// Copies the bytes into a fresh `Vec` — the sanctioned *output* copy.
    pub fn copy_to_vec(&self) -> Vec<u8> {
        self.copy_out_with(|b| b.to_vec())
    }
}

/// Exclusive write access to one freshly allocated slab; bytes are
/// appended (each append is a counted input copy) and the region is then
/// frozen into an immutable [`SlabRef`]. Dropping an unfrozen writer
/// frees the slab.
///
/// The writer owns its region's buffer outright (taken from the arena at
/// [`ByteSlab::try_writer`], returned at freeze or drop), so the
/// per-cell reassembly hot path writes into a plain owned slice.
pub struct SlabWriter {
    inner: Rc<SlabInner>,
    index: usize,
    buf: Vec<u8>,
    frozen: bool,
}

impl fmt::Debug for SlabWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlabWriter")
            .field("slab", &self.index)
            .field("written", &self.buf.len())
            .finish()
    }
}

impl SlabWriter {
    /// Appends `data`. The bytes count against
    /// [`ByteSlab::copied_in_bytes`] when the region is frozen (abandoned
    /// regions never became a frame, so their bytes are not charged).
    ///
    /// Fails with [`SlabError::TooLarge`] when the slab would overflow;
    /// the bytes written so far stay intact.
    #[inline]
    pub fn append(&mut self, data: &[u8]) -> Result<(), SlabError> {
        let needed = self.buf.len() + data.len();
        if needed > self.inner.slab_bytes {
            return Err(SlabError::TooLarge {
                needed,
                slab_bytes: self.inner.slab_bytes,
            });
        }
        self.buf.extend_from_slice(data);
        Ok(())
    }

    /// Bytes appended so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Bytes still available in the slab.
    pub fn remaining(&self) -> usize {
        self.inner.slab_bytes - self.buf.len()
    }

    /// Freezes the written region into an immutable [`SlabRef`],
    /// charging the appended bytes as the region's input copy.
    #[inline]
    pub fn freeze(mut self) -> SlabRef {
        self.frozen = true;
        let len = self.buf.len();
        self.inner.slots.borrow_mut()[self.index].buf = std::mem::take(&mut self.buf);
        self.inner
            .copied_in
            .set(self.inner.copied_in.get() + len as u64);
        SlabRef {
            inner: self.inner.clone(),
            index: self.index,
            offset: 0,
            len,
        }
    }
}

impl Drop for SlabWriter {
    fn drop(&mut self) {
        if !self.frozen {
            // Abandoned region: hand the buffer back before freeing.
            self.inner.slots.borrow_mut()[self.index].buf = std::mem::take(&mut self.buf);
            self.inner.decref(self.index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_copy_and_drop_cycle() {
        let slab = ByteSlab::new(2, 64);
        let r = slab.try_alloc_copy(&[1, 2, 3]).unwrap();
        assert_eq!(slab.free_count(), 1);
        assert_eq!(r.len(), 3);
        r.with(|b| assert_eq!(b, &[1, 2, 3]));
        drop(r);
        assert_eq!(slab.free_count(), 2);
    }

    #[test]
    fn clone_bumps_refcount_and_last_drop_frees() {
        let slab = ByteSlab::new(1, 16);
        let a = slab.try_alloc_copy(&[9]).unwrap();
        let b = a.clone();
        assert_eq!(a.ref_count(), 2);
        drop(a);
        assert_eq!(slab.free_count(), 0);
        drop(b);
        assert_eq!(slab.free_count(), 1);
    }

    #[test]
    fn subslice_is_a_view_with_its_own_reference() {
        let slab = ByteSlab::new(1, 64);
        let whole = slab.try_alloc_copy(&[0, 1, 2, 3, 4, 5]).unwrap();
        let mid = whole.slice(2, 3);
        mid.with(|b| assert_eq!(b, &[2, 3, 4]));
        assert_eq!(whole.ref_count(), 2);
        drop(whole);
        // The subslice alone keeps the slab alive.
        assert_eq!(slab.free_count(), 0);
        mid.with(|b| assert_eq!(b, &[2, 3, 4]));
        drop(mid);
        assert_eq!(slab.free_count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oversized_subslice_panics() {
        let slab = ByteSlab::new(1, 64);
        let r = slab.try_alloc_copy(&[1, 2]).unwrap();
        let _ = r.slice(1, 2);
    }

    #[test]
    fn exhaustion_and_oversize_fail() {
        let slab = ByteSlab::new(1, 4);
        assert_eq!(
            slab.try_alloc_copy(&[0u8; 5]).unwrap_err(),
            SlabError::TooLarge {
                needed: 5,
                slab_bytes: 4
            }
        );
        let _held = slab.try_alloc_copy(&[1]).unwrap();
        assert_eq!(slab.try_alloc_copy(&[2]).unwrap_err(), SlabError::Exhausted);
        assert_eq!(slab.alloc_failures(), 2);
        assert_eq!(slab.allocations(), 1);
    }

    #[test]
    fn writer_appends_and_freezes() {
        let slab = ByteSlab::new(1, 8);
        let mut w = slab.try_writer().unwrap();
        w.append(&[1, 2, 3]).unwrap();
        w.append(&[4]).unwrap();
        assert_eq!(w.len(), 4);
        assert_eq!(w.remaining(), 4);
        let r = w.freeze();
        r.with(|b| assert_eq!(b, &[1, 2, 3, 4]));
        drop(r);
        assert_eq!(slab.free_count(), 1);
    }

    #[test]
    fn writer_overflow_keeps_prefix() {
        let slab = ByteSlab::new(1, 4);
        let mut w = slab.try_writer().unwrap();
        w.append(&[1, 2, 3]).unwrap();
        assert!(matches!(
            w.append(&[4, 5]),
            Err(SlabError::TooLarge { needed: 5, .. })
        ));
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn abandoned_writer_frees_its_slab() {
        let slab = ByteSlab::new(1, 8);
        {
            let mut w = slab.try_writer().unwrap();
            w.append(&[1]).unwrap();
        }
        assert_eq!(slab.free_count(), 1);
    }

    #[test]
    fn copy_counters_track_in_and_out() {
        let slab = ByteSlab::new(2, 64);
        let a = slab.try_alloc_copy(&[0u8; 10]).unwrap();
        let mut w = slab.try_writer().unwrap();
        w.append(&[0u8; 7]).unwrap();
        let b = w.freeze();
        assert_eq!(slab.copied_in_bytes(), 17);
        // Uncounted read…
        a.with(|bytes| assert_eq!(bytes.len(), 10));
        assert_eq!(slab.copied_out_bytes(), 0);
        // …counted copy-outs.
        let v = b.copy_to_vec();
        assert_eq!(v.len(), 7);
        a.copy_out_with(|bytes| assert_eq!(bytes.len(), 10));
        assert_eq!(slab.copied_out_bytes(), 17);
    }

    #[test]
    fn leak_audit_reports_outstanding_slabs_by_index() {
        let _ = take_slab_leak_report();
        let leaked;
        {
            let slab = ByteSlab::new(3, 16);
            let a = slab.try_alloc_copy(&[1]).unwrap();
            let b = slab.try_alloc_copy(&[2]).unwrap();
            let _extra = b.clone();
            leaked = b.slab_index();
            drop(a);
            // `b` (2 refs) deliberately outlives every ByteSlab handle.
            std::mem::forget(b);
            std::mem::forget(_extra);
        }
        let report = take_slab_leak_report().expect("slab leak audit must fire");
        assert_eq!(report.capacity, 3);
        assert_eq!(report.leaked, vec![(leaked, 2)]);
    }

    #[test]
    fn balanced_drop_leaves_no_leak_report() {
        let _ = take_slab_leak_report();
        {
            let slab = ByteSlab::new(2, 16);
            let a = slab.try_alloc_copy(&[1]).unwrap();
            let clone = slab.clone();
            drop(slab);
            drop(a);
            drop(clone);
        }
        assert!(take_slab_leak_report().is_none());
    }

    #[test]
    fn backs_exactly_the_high_water_mark_of_live_regions() {
        let slab = ByteSlab::new(288, 256);
        assert_eq!(slab.backed(), 0);
        let mut live: Vec<SlabRef> = Vec::new();
        let mut high_water = 0;
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for op in 0..10_000 {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let draw = (rng >> 33) as usize;
            // Climb to 64 live regions early, then churn below the mark.
            let ceiling = if op < 2_000 { 64 } else { 32 };
            if live.len() < ceiling && (live.is_empty() || !draw.is_multiple_of(3)) {
                live.push(if draw.is_multiple_of(2) {
                    slab.try_alloc_copy(&[op as u8]).unwrap()
                } else {
                    let mut w = slab.try_writer().unwrap();
                    w.append(&[op as u8]).unwrap();
                    w.freeze()
                });
            } else {
                live.swap_remove(draw % live.len());
            }
            high_water = high_water.max(live.len());
            assert_eq!(slab.backed(), high_water, "after op {op}");
        }
        assert_eq!(high_water, 64);
        assert_eq!(slab.alloc_failures(), 0);
        drop(live);
        assert_eq!(slab.free_count(), 288);
        assert_eq!(slab.backed(), 64);
    }

    #[test]
    fn exhaustion_is_set_by_count_not_by_backing() {
        let slab = ByteSlab::new(3, 8);
        let held: Vec<SlabRef> = (0..3).map(|i| slab.try_alloc_copy(&[i]).unwrap()).collect();
        assert_eq!(slab.backed(), 3);
        assert_eq!(slab.try_alloc_copy(&[9]).unwrap_err(), SlabError::Exhausted);
        assert_eq!(slab.try_writer().unwrap_err(), SlabError::Exhausted);
        assert_eq!(slab.alloc_failures(), 2);
        assert_eq!(slab.backed(), 3);
        drop(held);
    }

    #[test]
    fn a_slot_first_used_by_a_writer_behaves_like_any_other() {
        let _ = take_slab_leak_report();
        {
            let slab = ByteSlab::new(4, 8);
            // Abandoned first use: the buffer goes back, the slot frees
            // and stays backed.
            drop(slab.try_writer().unwrap());
            assert_eq!((slab.backed(), slab.free_count()), (1, 4));
            // Frozen first use of a fresh slot (the abandoned one is
            // held so the free list cannot hand it out again).
            let reused = slab.try_alloc_copy(&[7]).unwrap();
            assert_eq!(reused.slab_index(), 0);
            let mut w = slab.try_writer().unwrap();
            assert_eq!(slab.backed(), 2);
            assert_eq!(w.remaining(), 8);
            w.append(&[1, 2, 3]).unwrap();
            let r = w.freeze();
            assert_eq!(r.slab_index(), 1);
            r.with(|b| assert_eq!(b, &[1, 2, 3]));
            assert_eq!(r.slice(1, 2).copy_to_vec(), vec![2, 3]);
            assert_eq!(slab.copied_in_bytes(), 4);
            // Leak it: slots 2 and 3 were never backed and must not show.
            std::mem::forget(r);
        }
        let report = take_slab_leak_report().expect("slab leak audit must fire");
        assert_eq!(report.capacity, 4);
        assert_eq!(report.leaked, vec![(1, 1)]);
    }

    /// Random grab / clone / release sequences hand out exactly the slab
    /// indices of a free stack that holds every slot from the start (the
    /// model), and every region reads back exactly the bytes written.
    #[test]
    fn regions_follow_the_eager_free_stack() {
        use pandora_prop::{check, Rng, Tape};
        fn ops(tape: &mut Tape) -> (usize, Vec<(u8, usize)>) {
            let count = tape.gen_range(1..=16usize);
            let len = tape.gen_range(0..200usize);
            let ops = (0..len)
                .map(|_| (tape.gen_range(0..5u8), tape.gen_range(0..=usize::MAX)))
                .collect();
            (count, ops)
        }
        check("slab_free_stack", 1, 500, ops, |(count, ops)| {
            let slab = ByteSlab::new(*count, 64);
            let mut model: Vec<usize> = (0..*count).rev().collect();
            let (mut live, mut high_water) = (Vec::<SlabRef>::new(), 0);
            for &(op, pick) in ops {
                let bytes: Vec<u8> = (0..pick % 65)
                    .map(|i| (pick >> 8) as u8 ^ i as u8)
                    .collect();
                match op {
                    0..=2 => match model.pop() {
                        Some(slot) => {
                            let r = match op {
                                0 => slab.try_alloc_copy(&bytes).unwrap(),
                                1 => {
                                    let mut w = slab.try_writer().unwrap();
                                    w.append(&bytes).unwrap();
                                    w.freeze()
                                }
                                _ => {
                                    // An abandoned writer frees its slot
                                    // again at once.
                                    drop(slab.try_writer().unwrap());
                                    model.push(slot);
                                    high_water = high_water.max(slot + 1);
                                    continue;
                                }
                            };
                            assert_eq!(r.slab_index(), slot);
                            r.with(|b| assert_eq!(b, &bytes[..]));
                            live.push(r);
                            high_water = high_water.max(slot + 1);
                        }
                        None => assert_eq!(slab.try_writer().unwrap_err(), SlabError::Exhausted),
                    },
                    _ if live.is_empty() => {}
                    3 => live.push(live[pick % live.len()].clone()),
                    _ => {
                        let r = live.swap_remove(pick % live.len());
                        if r.ref_count() == 1 {
                            model.push(r.slab_index());
                        }
                    }
                }
                assert_eq!(slab.free_count(), model.len());
                assert_eq!(slab.backed(), high_water);
                assert_eq!(slab.capacity(), *count);
            }
        });
    }

    /// A region holds the bytes written and no more: its length is the
    /// frame's, the cap is still `slab_bytes`, and a reused region shows
    /// nothing of its last frame past the new length.
    #[test]
    fn a_region_commits_only_the_bytes_written() {
        let slab = ByteSlab::new(2, 1024);
        let region_len = |slab: &ByteSlab, i: usize| slab.inner.slots.borrow()[i].buf.len();
        let frame = slab.try_alloc_copy(&[0xAA; 200]).unwrap();
        assert_eq!((frame.len(), region_len(&slab, 0)), (200, 200));
        assert!(slab.inner.slots.borrow()[0].buf.capacity() >= 1024);
        drop(frame);

        let again = slab.try_alloc_copy(&[1, 2, 3]).unwrap();
        assert_eq!((again.slab_index(), region_len(&slab, 0)), (0, 3));
        again.with(|b| assert_eq!(b, &[1, 2, 3]));
        drop(again);
        let mut w = slab.try_writer().unwrap();
        assert_eq!((w.len(), w.buf.len(), w.remaining()), (0, 0, 1024));
        w.append(&[7; 5]).unwrap();
        let r = w.freeze();
        assert_eq!((r.slab_index(), region_len(&slab, 0)), (0, 5));
        r.with(|b| assert_eq!(b, &[7; 5]));
        drop(r);

        let full = slab.try_alloc_copy(&[0; 1024]).unwrap();
        let too_large = SlabError::TooLarge {
            needed: 1025,
            slab_bytes: 1024,
        };
        assert_eq!(slab.try_alloc_copy(&[0; 1025]).unwrap_err(), too_large);
        let mut w = slab.try_writer().unwrap();
        w.append(&[0; 1000]).unwrap();
        assert_eq!(w.append(&[0; 25]).unwrap_err(), too_large);
        w.append(&[0; 24]).unwrap();
        assert_eq!(w.remaining(), 0);
        assert_eq!((full.len(), w.freeze().len()), (1024, 1024));
        assert_eq!(slab.backed(), 2);
    }

    #[test]
    fn content_equality() {
        let slab = ByteSlab::new(2, 16);
        let a = slab.try_alloc_copy(&[1, 2, 3]).unwrap();
        let b = slab.try_alloc_copy(&[9, 1, 2, 3]).unwrap();
        assert_eq!(a, b.slice(1, 3));
        assert_ne!(a, b);
    }
}
