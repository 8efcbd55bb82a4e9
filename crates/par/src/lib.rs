//! A dependency-free scoped thread pool for the simulators.
//!
//! The workspace's sweeps — multi-seed fault trials, the 26-experiment
//! harness, overload/chaos scans — are embarrassingly parallel: every
//! trial is a pure function of its config and seed. This crate provides
//! exactly the fan-out primitives those sweeps need, built on
//! [`std::thread::scope`] only (the build environment has no crates.io
//! access, so no rayon):
//!
//! - [`par_map`]: map a function over a slice on worker threads,
//!   returning results **in input order** regardless of which worker ran
//!   which item — the property that makes parallel sweeps byte-identical
//!   to sequential ones;
//! - [`scope`]: re-exported [`std::thread::scope`] for irregular fan-out;
//! - [`num_threads`]: the worker count, overridable with the
//!   `TPU_SIM_THREADS` environment variable (`TPU_SIM_THREADS=1`
//!   degrades every primitive to a plain sequential loop).
//!
//! # Panic propagation
//!
//! A panic on a worker thread is **re-raised on the caller** once every
//! other worker has been joined — never swallowed, never a deadlock.
//! This falls out of [`std::thread::scope`]'s contract: the scope joins
//! all spawned threads before returning, and [`par_map`] resumes the
//! first worker's unwind payload.
//!
//! # Determinism
//!
//! Work is distributed dynamically (an atomic cursor), so *which thread*
//! computes an item is racy — but results are reassembled by input
//! index, so the returned `Vec` is identical to the sequential map
//! whenever `f` itself is pure. Every simulator in this workspace is a
//! pure function of its config and seed, so parallel sweeps replay
//! bit-identically.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Re-export of [`std::thread::scope`]: spawn borrowing threads that are
/// all joined (with panic propagation) before the call returns.
pub use std::thread::scope;

/// The environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "TPU_SIM_THREADS";

/// Number of worker threads the primitives will use: the
/// `TPU_SIM_THREADS` environment variable if set to a positive integer,
/// else [`std::thread::available_parallelism`] (1 if unknown).
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to [`num_threads`] workers, returning
/// results in input order.
///
/// Sequential fallback (no threads spawned) when the pool is 1 wide or
/// the input has at most one item. See the crate docs for the panic and
/// determinism contracts.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_with(num_threads(), items, f)
}

/// [`par_map`] with an explicit worker cap (still honoring
/// `TPU_SIM_THREADS` as an upper bound via the caller passing
/// `num_threads()`-derived values; `threads <= 1` runs sequentially).
pub fn par_map_with<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let workers = threads.min(n);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // Dynamic scheduling: workers pull the next unclaimed index from a
    // shared cursor (items can have wildly different costs — a chaos
    // sweep point vs a table lookup), collecting `(index, value)` pairs.
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let parts: Vec<Vec<(usize, U)>> = scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out: Vec<(usize, U)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(&items[i])));
                    }
                    out
                })
            })
            .collect();
        // Join in spawn order; a worker panic is re-raised here, after
        // `scope` has joined the remaining workers (no deadlock, no
        // orphaned threads).
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(part) => part,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    // Reassemble in input order: every index was claimed exactly once.
    let mut slots: Vec<Option<U>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for part in parts {
        for (i, v) in part {
            debug_assert!(slots[i].is_none(), "index {i} claimed twice");
            slots[i] = Some(v);
        }
    }
    slots
        .into_iter()
        .map(|v| v.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let par = par_map_with(threads, &items, |x| x * x);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(par_map_with(8, &empty, |x| x + 1), Vec::<u32>::new());
        assert_eq!(par_map_with(8, &[41u32], |x| x + 1), vec![42]);
    }

    #[test]
    fn par_map_runs_every_item_exactly_once() {
        let count = AtomicU64::new(0);
        let items: Vec<usize> = (0..257).collect();
        let out = par_map_with(4, &items, |&i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 257);
        assert_eq!(count.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn par_map_propagates_worker_panics() {
        // The satellite contract: a panicking worker re-raises on the
        // caller instead of deadlocking or being swallowed.
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_with(4, &items, |&i| {
                if i == 33 {
                    panic!("worker exploded on purpose");
                }
                i
            })
        });
        let payload = result.expect_err("the panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("exploded"), "unexpected payload: {msg}");
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn env_override_caps_the_pool() {
        // Other tests in this binary only assert num_threads() >= 1, so
        // briefly setting the override cannot break them.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(num_threads(), 3);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(num_threads() >= 1);
        std::env::set_var(THREADS_ENV, "0");
        assert!(num_threads() >= 1);
        std::env::remove_var(THREADS_ENV);
    }

    #[test]
    fn scope_is_reexported() {
        let total = AtomicU64::new(0);
        scope(|s| {
            for i in 0..4u64 {
                let total = &total;
                s.spawn(move || total.fetch_add(i, Ordering::Relaxed));
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 6);
    }
}
