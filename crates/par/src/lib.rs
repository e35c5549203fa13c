#![forbid(unsafe_code)]
#![deny(clippy::pedantic)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
// The runtime is all index arithmetic over f64 payloads: precision-lossy
// casts between counts and cost estimates are deliberate, and the scalar
// SIMD references are *defined* as indexed loops.
#![allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::needless_range_loop,
    clippy::must_use_candidate,
    clippy::missing_panics_doc,
    clippy::module_name_repetitions,
    clippy::inline_always
)]

//! # reveal-par
//!
//! A zero-dependency, **deterministic** data-parallel runtime for the `RevEAL`
//! pipeline, built on [`std::thread::scope`]. The workspace has no crates.io
//! access, so `rayon` is unavailable; the hot paths of a template attack are
//! embarrassingly parallel per trace / per window, and this crate provides
//! exactly the primitives they need.
//!
//! ## Determinism contract
//!
//! Both map primitives evaluate a pure function of each index in
//! `0..count` and return the results **in index order**, so the output of
//! any `reveal-par` call is bit-for-bit identical whether it runs on 1
//! thread or 64:
//!
//! - [`par_map_index_modeled`]: the worker count and the claim granularity
//!   come from a measured [`cost::CostModel`], capped by [`max_threads`] and
//!   the hardware. The plan varies with the machine and with past
//!   observations — scheduling only; results are still placed by index.
//! - [`par_map_index_with_scratch`] additionally gives each worker one
//!   long-lived scratch value for its entire share of the work (a warm
//!   memo cache, a reusable buffer). The caller promises the scratch is
//!   **value-transparent** — it may change how fast a task runs, never what
//!   the task returns — which keeps the output independent of how indices
//!   happen to be partitioned across workers.
//!
//! A reduction maps *chunk* indices whose boundaries depend only on the
//! input length and a caller-chosen chunk size, then folds the partial
//! results in chunk order, so even floating-point sums are reproducible
//! across thread counts.
//!
//! ## Thread-count resolution
//!
//! 1. a process-wide override set by [`with_threads`] (tests, benches),
//! 2. the `REVEAL_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! ## Example
//!
//! ```
//! use reveal_par::{par_map_index_modeled, CostModel};
//!
//! static SQUARE: CostModel = CostModel::new("doc.square", 1.0);
//! let items = [1u64, 2, 3, 4];
//! let squares = par_map_index_modeled(items.len(), &SQUARE, 1, |i| items[i] * items[i]);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

pub mod cost;
pub mod simd;

pub use cost::{
    hardware_threads, snapshots as cost_snapshots, spawn_cost_ns, CostModel, CostSnapshot, Plan,
};

/// Process-wide thread-count override (0 = unset). Written only under
/// [`OVERRIDE_LOCK`] by [`with_threads`].
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Serializes [`with_threads`] callers so concurrent tests cannot observe
/// each other's override.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    /// Whether this thread is inside a [`with_threads`] body, and so
    /// already holds [`OVERRIDE_LOCK`]: a nested call must not lock again.
    static HOLDS_OVERRIDE: Cell<bool> = const { Cell::new(false) };
}

/// The number of worker threads a parallel call will use: the
/// [`with_threads`] override if active, else `REVEAL_THREADS`, else
/// [`std::thread::available_parallelism`] (1 if unavailable).
pub fn max_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Some(n) = std::env::var("REVEAL_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Runs `body` with the thread count pinned to `threads`, restoring the
/// previous setting afterwards — also when `body` panics. Callers on
/// different threads are serialized process-wide, so two concurrent
/// `with_threads` blocks (e.g. parallel tests) cannot leak their setting
/// into each other; a nested call on the same thread pins its own count for
/// its body, then hands the outer one back. Results are unchanged by
/// construction — this only controls how much hardware the work is spread
/// over.
pub fn with_threads<R>(threads: usize, body: impl FnOnce() -> R) -> R {
    /// Puts the previous override back when dropped; the outermost call
    /// also releases the lock, after the restore.
    struct Restore {
        previous: usize,
        lock: Option<MutexGuard<'static, ()>>,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.store(self.previous, Ordering::Relaxed);
            if self.lock.is_some() {
                HOLDS_OVERRIDE.set(false);
            }
        }
    }
    let lock = if HOLDS_OVERRIDE.get() {
        None
    } else {
        let guard = OVERRIDE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        HOLDS_OVERRIDE.set(true);
        Some(guard)
    };
    let _restore = Restore {
        previous: THREAD_OVERRIDE.swap(threads.max(1), Ordering::Relaxed),
        lock,
    };
    body()
}

/// Derives an independent 64-bit seed from a master seed and a task index
/// (`SplitMix64` finalizer over the golden-ratio sequence). Used to give every
/// parallel task its own RNG stream: task `i`'s randomness depends only on
/// `(master, i)`, never on how much randomness other tasks consumed — the
/// root fix for order-dependent collection.
pub fn derive_seed(master: u64, index: u64) -> u64 {
    let mut z = master
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Core executor: evaluates `task(0..count)` on up to `threads` scoped
/// workers and returns the results in index order, along with the final
/// scratch value each worker carried.
///
/// Work is claimed dynamically — an atomic cursor advanced `claim_chunk`
/// indices at a time — but since every task must be a pure function of its
/// index (the scratch is value-transparent by the caller's contract) and
/// results are placed by index, neither scheduling nor the claim granularity
/// can affect the output.
///
/// Each worker builds its scratch with `init` exactly once and keeps it for
/// every index it claims; the serial path (`threads <= 1`) likewise uses one
/// scratch for the whole loop, so "one worker" and "the calling thread"
/// behave identically.
fn run_indexed_stateful<St: Send, R: Send>(
    count: usize,
    threads: usize,
    claim_chunk: usize,
    init: &(impl Fn() -> St + Sync),
    task: &(impl Fn(&mut St, usize) -> R + Sync),
) -> (Vec<R>, Vec<St>) {
    let claim_chunk = claim_chunk.max(1);
    if threads <= 1 || count <= 1 {
        let mut scratch = init();
        let results = (0..count).map(|i| task(&mut scratch, i)).collect();
        return (results, vec![scratch]);
    }
    let cursor = AtomicUsize::new(0);
    let worker_outputs: Vec<(Vec<(usize, R)>, St)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = init();
                    let mut produced = Vec::new();
                    loop {
                        let start = cursor.fetch_add(claim_chunk, Ordering::Relaxed);
                        if start >= count {
                            break;
                        }
                        let end = start.saturating_add(claim_chunk).min(count);
                        for index in start..end {
                            produced.push((index, task(&mut scratch, index)));
                        }
                    }
                    (produced, scratch)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(bucket) => bucket,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
    let mut scratches = Vec::with_capacity(worker_outputs.len());
    for (bucket, scratch) in worker_outputs {
        for (index, value) in bucket {
            slots[index] = Some(value);
        }
        scratches.push(scratch);
    }
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed exactly once"))
        .collect();
    (results, scratches)
}

/// Maps `f` over `0..count` in parallel, returning results in index order,
/// scheduled by a measured [`CostModel`]: the model sizes the worker count
/// and the claim chunk from `count`, `units_per_item` (the caller's relative
/// work estimate per item — e.g. `dim²` for a matrix row) and its observed
/// nanoseconds-per-unit; the call's own wall time is fed back afterwards.
/// Output is bit-identical to the serial loop for any thread count, plan,
/// or timing noise.
pub fn par_map_index_modeled<R: Send>(
    count: usize,
    model: &'static CostModel,
    units_per_item: u64,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    par_map_index_with_scratch(count, model, units_per_item, || (), |(), i| f(i))
}

/// [`par_map_index_modeled`] where every worker owns one long-lived scratch
/// value for its entire share of the work, built by `init` exactly once per
/// worker. Returns the results in index order.
///
/// ## Caller contract: the scratch must be value-transparent
///
/// `task(&mut scratch, i)` must return the same value whatever state the
/// scratch is in — the scratch may only make a task *faster* (memoized
/// noiseless templates, a pre-grown buffer), never change its result. Under
/// that contract the output is bit-identical for any thread count and any
/// partition of indices across workers, preserving the crate's determinism
/// guarantee. The scratches are dropped when the map returns.
pub fn par_map_index_with_scratch<St: Send, R: Send>(
    count: usize,
    model: &'static CostModel,
    units_per_item: u64,
    init: impl Fn() -> St + Sync,
    task: impl Fn(&mut St, usize) -> R + Sync,
) -> Vec<R> {
    let plan = model.plan(count, units_per_item);
    let start = Instant::now();
    let (results, _scratches) =
        run_indexed_stateful(count, plan.workers, plan.claim_chunk, &init, &task);
    model.record(count, units_per_item, start.elapsed());
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    static MAP_MODEL: CostModel = CostModel::new("par.test.map", 50.0);

    /// Claim granularities the executor tests run under: one index per
    /// claim, and a chunk that does not divide the test sizes.
    const CLAIM_CHUNKS: [usize; 2] = [1, 7];

    /// Runs the executor on exactly `workers` workers — whatever the planner
    /// or the host would pick — so the scoped-worker branch is exercised.
    fn map_on<R: Send>(
        count: usize,
        workers: usize,
        claim_chunk: usize,
        f: impl Fn(usize) -> R + Sync,
    ) -> Vec<R> {
        run_indexed_stateful(count, workers, claim_chunk, &|| (), &|(), i| f(i)).0
    }

    /// A fixed-chunk reduction: per-chunk folds mapped by chunk index,
    /// merged in chunk order on the calling thread.
    fn chunked_sum<T: Copy + Send + Sync>(
        items: &[T],
        chunk: usize,
        workers: usize,
        claim_chunk: usize,
        zero: T,
        add: impl Fn(T, T) -> T + Sync,
    ) -> T {
        map_on(items.len().div_ceil(chunk), workers, claim_chunk, |c| {
            items[c * chunk..((c + 1) * chunk).min(items.len())]
                .iter()
                .fold(zero, |a, &x| add(a, x))
        })
        .into_iter()
        .fold(zero, &add)
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        for workers in [1, 2, 3, 8] {
            for claim_chunk in CLAIM_CHUNKS {
                let out = map_on(items.len(), workers, claim_chunk, |i| items[i] * 3 + 1);
                assert_eq!(out, items.iter().map(|&x| x * 3 + 1).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn map_index_matches_serial() {
        for workers in [1, 4] {
            for claim_chunk in CLAIM_CHUNKS {
                let (out, scratches) = run_indexed_stateful(
                    257,
                    workers,
                    claim_chunk,
                    &|| 0usize, // per-worker counter: how many tasks it ran
                    &|seen, i| {
                        *seen += 1;
                        i * i
                    },
                );
                assert_eq!(out, (0..257).map(|i| i * i).collect::<Vec<_>>());
                // One scratch per worker that ran: the parallel branch for
                // `workers > 1`, every index claimed exactly once.
                assert_eq!(scratches.len(), workers);
                assert_eq!(scratches.iter().sum::<usize>(), 257);
            }
        }
    }

    #[test]
    fn chunk_boundaries_are_thread_independent() {
        let items: Vec<f64> = (0..10_000).map(|i| f64::from(i).sin()).collect();
        let reference = chunked_sum(&items, 512, 1, 1, 0.0f64, |a, x| a + x);
        for workers in [2, 3, 5, 8] {
            for claim_chunk in CLAIM_CHUNKS {
                let sum = chunked_sum(&items, 512, workers, claim_chunk, 0.0f64, |a, x| a + x);
                // Bit-for-bit, not approximately: the combining order is fixed.
                assert_eq!(sum.to_bits(), reference.to_bits(), "workers {workers}");
            }
        }
    }

    #[test]
    fn modeled_maps_match_serial() {
        static MODEL: CostModel = CostModel::new("par.test.modeled", 50.0);
        for threads in [1, 2, 4, 8] {
            // Repeat so the EWMA warms up and plans change between calls —
            // the output must not.
            for _ in 0..3 {
                let idx =
                    with_threads(threads, || par_map_index_modeled(258, &MODEL, 1, |i| i * i));
                assert_eq!(idx, (0..258).map(|i| i * i).collect::<Vec<_>>());
            }
        }
        let snap = MODEL.snapshot();
        assert!(snap.calls > 0);
        assert!(snap.measured_ns_per_unit.is_some());
    }

    #[test]
    fn scratch_workers_initialize_once_and_results_stay_ordered() {
        for workers in [1, 2, 4] {
            for claim_chunk in CLAIM_CHUNKS {
                let inits = AtomicUsize::new(0);
                let (results, scratches) = run_indexed_stateful(
                    100,
                    workers,
                    claim_chunk,
                    &|| {
                        inits.fetch_add(1, Ordering::Relaxed);
                        0u64 // per-worker counter: how many tasks it ran
                    },
                    &|seen, i| {
                        *seen += 1;
                        i * 2
                    },
                );
                assert_eq!(results, (0..100).map(|i| i * 2).collect::<Vec<_>>());
                // One `init` per worker, and every index ran on exactly one
                // worker's scratch.
                assert_eq!(inits.into_inner(), workers, "workers {workers}");
                assert_eq!(scratches.len(), workers, "workers {workers}");
                assert_eq!(scratches.iter().sum::<u64>(), 100, "workers {workers}");
                if workers == 1 {
                    // Serial path: one scratch for the full collection.
                    assert_eq!(scratches, vec![100]);
                }
            }
        }
    }

    #[test]
    fn scratch_path_is_value_transparent_across_thread_counts() {
        static MODEL: CostModel = CostModel::new("par.test.transparent", 20_000.0);
        // A memo-like scratch: caches f(i) but never changes the result.
        let run = |threads: usize| {
            with_threads(threads, || {
                par_map_index_with_scratch(
                    64,
                    &MODEL,
                    1,
                    std::collections::HashMap::<usize, u64>::new,
                    |memo, i| *memo.entry(i % 7).or_insert_with(|| (i % 7) as u64 * 3),
                )
            })
        };
        let reference = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), reference, "threads {threads}");
        }
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(
            par_map_index_modeled(0, &MAP_MODEL, 1, |i| i),
            Vec::<usize>::new()
        );
        assert!(par_map_index_with_scratch(0, &MAP_MODEL, 1, || 7u8, |_, i| i).is_empty());
        // An empty map still builds the one serial scratch, for any worker
        // count.
        for workers in [1, 4] {
            let (results, scratches) = run_indexed_stateful(0, workers, 1, &|| 7u8, &|_, i| i);
            assert!(results.is_empty());
            assert_eq!(scratches, vec![7]);
        }
        assert_eq!(chunked_sum(&[] as &[i64], 8, 4, 1, 7i64, |a, x| a + x), 7);
    }

    #[test]
    fn derived_seeds_decorrelate_tasks() {
        let seeds: Vec<u64> = (0..100).map(|i| derive_seed(42, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "collisions in derived seeds");
        // Different masters give different streams.
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    // Each `with_threads` test reads the override only inside an outer
    // `with_threads`, so it holds the lock and never races another test.

    #[test]
    fn with_threads_restores_previous_setting() {
        with_threads(2, || {
            let outer = max_threads();
            with_threads(3, || assert_eq!(max_threads(), 3));
            assert_eq!(max_threads(), outer);
        });
    }

    #[test]
    fn nested_with_threads_returns_inner_then_outer_count() {
        let seen = with_threads(2, || (with_threads(3, max_threads), max_threads()));
        assert_eq!(seen, (3, 2));
    }

    #[test]
    fn panicking_body_restores_the_override() {
        with_threads(2, || {
            let result = std::panic::catch_unwind(|| with_threads(3, || panic!("body panics")));
            assert!(result.is_err());
            assert_eq!(max_threads(), 2);
        });
    }

    proptest! {
        #[test]
        fn prop_par_map_equals_serial(
            items in proptest::collection::vec(-1_000_000i64..1_000_000, 0..300),
            workers in 1usize..9,
            claim_chunk in 1usize..8,
        ) {
            let serial: Vec<i64> = items.iter().map(|&x| x.wrapping_mul(31) ^ 7).collect();
            let parallel = map_on(items.len(), workers, claim_chunk, |i| items[i].wrapping_mul(31) ^ 7);
            prop_assert_eq!(parallel, serial);
        }

        #[test]
        fn prop_chunked_fold_equals_serial_fold(
            items in proptest::collection::vec(-1_000_000i64..1_000_000, 0..300),
            workers in 1usize..9,
            claim_chunk in 1usize..8,
            chunk in 1usize..64,
        ) {
            let serial = items.iter().fold(0i64, |a, &x| a.wrapping_add(x));
            let parallel = chunked_sum(&items, chunk, workers, claim_chunk, 0i64, i64::wrapping_add);
            prop_assert_eq!(parallel, serial);
        }
    }
}
