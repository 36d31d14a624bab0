//! Minimal scoped-thread parallel map.
//!
//! The build environment has no crates.io access, so instead of `rayon`
//! the sweep harness fans work out with `std::thread::scope`: a shared
//! atomic cursor hands item indices to worker threads, and each result is
//! written back into its item's slot. Output order therefore equals input
//! order regardless of thread count or scheduling — the property the
//! sweep determinism guarantee rests on.
//!
//! Result slots are write-once `Option<R>` cells behind a
//! [`DisjointSlice`] (see `picos_runtime::par`), not `Mutex<Option<R>>`:
//! the cursor already guarantees each index is claimed by exactly one
//! thread, so the per-item lock/unlock round trip was pure churn on
//! sweeps with many tiny cells.

use picos_runtime::par::DisjointSlice;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every item, using up to `threads` OS threads, and
/// returns the results in input order.
///
/// `f` receives `(index, &item)`. With `threads <= 1` (or a single item)
/// the map runs inline on the caller's thread with no synchronisation.
///
/// # Panics
///
/// Panics if a worker thread panics (the panic is propagated).
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    // `Option<R>` (not bare `MaybeUninit<R>`) keeps the unwind path clean:
    // if a worker panics, the slots vector still drops every result that
    // was already written.
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let slots = DisjointSlice::new(&mut out);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            handles.push(scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(i, item);
                // SAFETY: the cursor hands index `i` to exactly one
                // thread, so no other thread touches this slot; the
                // scoped join below publishes the write to the caller.
                unsafe { *slots.get(i) = Some(r) };
            }));
        }
        for h in handles {
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
    });
    out.into_iter()
        .map(|s| s.expect("every index visited exactly once"))
        .collect()
}

/// The default worker-thread count: the machine's available parallelism.
pub fn default_threads() -> usize {
    picos_runtime::par::available_threads()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 7, 64] {
            let out = par_map(&items, threads, |i, &x| {
                assert_eq!(i as u64, x);
                x * 2
            });
            assert_eq!(
                out,
                items.iter().map(|x| x * 2).collect::<Vec<_>>(),
                "{threads}"
            );
        }
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(par_map(&[41u32], 8, |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn actually_runs_on_multiple_threads() {
        use std::collections::HashSet;
        let items: Vec<u32> = (0..64).collect();
        let ids = Mutex::new(HashSet::new());
        par_map(&items, 4, |_, _| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(
            ids.into_inner().unwrap().len() > 1,
            "expected >1 worker thread"
        );
    }

    #[test]
    fn results_with_heap_allocations_survive() {
        // The write-once slots must move owned values intact across the
        // thread boundary (this used to go through a Mutex).
        let items: Vec<u32> = (0..50).collect();
        let out = par_map(&items, 4, |i, &x| vec![x; i % 3 + 1]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.len(), i % 3 + 1);
            assert!(v.iter().all(|&x| x == i as u32));
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..8).collect();
        par_map(&items, 4, |i, _| {
            if i == 3 {
                panic!("boom");
            }
        });
    }
}
