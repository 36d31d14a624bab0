//! Shared-nothing parallel vocabulary: the primitives behind the sweep
//! harness's `par_map`.
//!
//! The build environment has no crates.io access, so there is no `rayon`
//! and no `crossbeam`: everything here is built on `std::thread::scope`
//! and atomics. [`DisjointSlice`] is a slice whose elements are mutated
//! from several threads under a *disjoint-index* contract; it backs the
//! write-once result slots of `par_map` (each index claimed by exactly one
//! thread through an atomic cursor).

use std::marker::PhantomData;

/// A slice shared across threads under a disjoint-access contract.
///
/// Wraps `&mut [T]` so that multiple threads can each mutate *their own*
/// elements without locks. The wrapper itself enforces nothing beyond
/// bounds checks — soundness rests entirely on the caller's discipline,
/// which is why [`DisjointSlice::get`] is `unsafe`.
///
/// # Safety contract
///
/// For every index `i`, at most one thread may hold the `&mut T` returned
/// by `get(i)` at a time, and handing an index from one thread to another
/// must happen across a synchronisation point (a barrier wait, a scoped
/// join, an atomic acquire/release pair) so the writes are visible.
///
/// `par_map` satisfies it structurally: indices are claimed through a
/// shared atomic cursor (`fetch_add`), so no two threads ever see the same
/// index, and the scoped join publishes the writes back to the caller.
pub struct DisjointSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: sending `&DisjointSlice` to another thread only grants access
// through the `unsafe` accessors, whose contract (disjoint indices,
// synchronised hand-off) is exactly what makes cross-thread `&mut T`
// sound. `T: Send` is required because elements are mutated from (and
// may be dropped on) threads other than the owner's.
unsafe impl<T: Send> Sync for DisjointSlice<'_, T> {}
// SAFETY: moving the wrapper to another thread moves only the pointer
// and length of a slice it borrows mutably for `'a`, like sending the
// `&'a mut [T]` itself, which is `Send` for `T: Send`.
unsafe impl<T: Send> Send for DisjointSlice<'_, T> {}

impl<'a, T> DisjointSlice<'a, T> {
    /// Wraps a mutable slice for disjoint multi-threaded access.
    pub fn new(slice: &'a mut [T]) -> Self {
        DisjointSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mutable access to element `i`.
    ///
    /// # Safety
    ///
    /// The caller must uphold the type's disjoint-access contract: no
    /// other thread may access index `i` while the returned borrow lives,
    /// and cross-thread hand-offs of an index must be synchronised.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    #[allow(clippy::mut_from_ref)] // the whole point, governed by the contract
    pub unsafe fn get(&self, i: usize) -> &mut T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        &mut *self.ptr.add(i)
    }
}

impl<T> std::fmt::Debug for DisjointSlice<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DisjointSlice(len={})", self.len)
    }
}

/// The default worker-thread count: the machine's available parallelism.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn disjoint_slice_cursor_claims_are_exclusive() {
        // The par_map shape: an atomic cursor hands out indices, each
        // written exactly once from whichever thread claimed it.
        let mut out = vec![0u64; 1000];
        let cursor = AtomicUsize::new(0);
        let slots = DisjointSlice::new(&mut out);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= slots.len() {
                        break;
                    }
                    // SAFETY: the cursor hands each index to one thread;
                    // the scoped join publishes the writes.
                    unsafe { *slots.get(i) = i as u64 * 3 };
                });
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn disjoint_slice_bounds_checked() {
        let mut v = vec![0u8; 4];
        let s = DisjointSlice::new(&mut v);
        // SAFETY: single-threaded access.
        unsafe {
            s.get(4);
        }
    }
}
