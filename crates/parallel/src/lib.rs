//! # t2v-parallel — deterministic data-parallel primitives
//!
//! The workspace cannot fetch rayon offline, so the hot paths that want
//! fan-out (library build, batch retrieval, parallel evaluation, index scans)
//! use this small substitute built on `std::thread::scope`.
//!
//! Guarantees:
//!
//! * **Deterministic output order** — results are returned in input order
//!   regardless of thread scheduling, so parallel and sequential runs are
//!   byte-identical for pure `f`.
//! * **Contiguous chunking** — each worker owns one contiguous slice of the
//!   input, which keeps per-item overhead at one index addition and plays
//!   well with prefetching.
//! * **No pool** — threads are spawned per call and joined before return,
//!   which costs tens of microseconds (~70 µs measured on 2 vCPUs). These
//!   primitives never decide whether that is worth paying: each call site
//!   owns a threshold derived from a measurement of *its* work (the flat
//!   scan's `PAR_SCAN_THRESHOLD` is the worked example — at 4096 rows the
//!   fan-out it used to gate bought no wall time and doubled CPU).

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Number of worker threads to use: `available_parallelism`, overridable with
/// the `T2V_THREADS` environment variable (0 or unset ⇒ auto). Resolved once
/// per process — this sits on the retrieval hot path, and the override is a
/// launch-time knob.
pub fn thread_count() -> usize {
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| {
        if let Ok(v) = std::env::var("T2V_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Parallel map over a slice, preserving input order.
///
/// Spawns at most `thread_count()` workers, each mapping one contiguous chunk.
/// Falls back to a plain sequential map when the input is small or only one
/// worker is available.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items, |_, item| f(item))
}

/// [`par_map`] with an explicit worker count. Output is a pure function of
/// `(items, f)` — never of `threads` — so callers needing bit-identical
/// results at any parallelism (deterministic k-means, tests) use this with
/// order-sensitive folding on their side.
pub fn par_map_in<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed_in(threads, items, |_, item| f(item))
}

/// Like [`par_map`], but the mapper also receives the item's input index.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_indexed_in(thread_count(), items, f)
}

/// [`par_map_indexed`] with an explicit worker count.
pub fn par_map_indexed_in<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.min(items.len().max(1));
    if threads <= 1 || items.len() < 2 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }

    let chunk = items.len().div_ceil(threads);
    let mut results: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, slice)| {
                let f = &f;
                scope.spawn(move || {
                    slice
                        .iter()
                        .enumerate()
                        .map(|(i, x)| f(ci * chunk + i, x))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut out = Vec::with_capacity(items.len());
    for part in results.iter_mut() {
        out.append(part);
    }
    out
}

/// Parallel map-reduce over contiguous chunks of `items`.
///
/// `map` runs once per chunk (receiving the chunk's start offset and slice);
/// `reduce` folds the per-chunk results **in chunk order**, so any
/// order-sensitive reduction (e.g. tie-breaking by index) stays deterministic.
///
/// Every chunk boundary falls on a multiple of `granularity` — callers
/// slicing a flat row-major buffer pass their row stride so no row is ever
/// split across workers. (The final chunk's *length* is only a multiple of
/// `granularity` if `items.len()` is, which holds for stride-aligned data.)
pub fn par_chunk_reduce<T, A, M, R>(
    items: &[T],
    min_chunk: usize,
    granularity: usize,
    map: M,
    reduce: R,
) -> Option<A>
where
    T: Sync,
    A: Send,
    M: Fn(usize, &[T]) -> A + Sync,
    R: Fn(A, A) -> A,
{
    par_chunk_reduce_in(thread_count(), items, min_chunk, granularity, map, reduce)
}

/// [`par_chunk_reduce`] with an explicit worker count (exposed so tests can
/// exercise multi-threaded chunking regardless of the host's CPU count).
pub fn par_chunk_reduce_in<T, A, M, R>(
    threads: usize,
    items: &[T],
    min_chunk: usize,
    granularity: usize,
    map: M,
    reduce: R,
) -> Option<A>
where
    T: Sync,
    A: Send,
    M: Fn(usize, &[T]) -> A + Sync,
    R: Fn(A, A) -> A,
{
    if items.is_empty() {
        return None;
    }
    let g = granularity.max(1);
    let chunk = items
        .len()
        .div_ceil(threads.max(1))
        .max(min_chunk.max(1))
        .div_ceil(g)
        * g;
    if chunk >= items.len() {
        return Some(map(0, items));
    }

    let parts: Vec<A> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, slice)| {
                let map = &map;
                scope.spawn(move || map(ci * chunk, slice))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    parts.into_iter().reduce(reduce)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..10_000).collect();
        let out = par_map(&items, |&x| x * 3);
        assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_indexed_passes_true_indices() {
        let items = vec![7u64; 5_000];
        let out = par_map_indexed(&items, |i, &x| i as u64 + x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 + 7);
        }
    }

    #[test]
    fn par_map_handles_tiny_inputs() {
        assert_eq!(par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[5u32], |&x| x + 1), vec![6]);
    }

    #[test]
    fn chunk_reduce_matches_sequential_sum() {
        let items: Vec<u64> = (0..100_000).collect();
        let total = par_chunk_reduce(
            &items,
            1024,
            1,
            |_, chunk| chunk.iter().sum::<u64>(),
            |a, b| a + b,
        )
        .unwrap();
        assert_eq!(total, items.iter().sum::<u64>());
    }

    #[test]
    fn chunk_reduce_offsets_are_global() {
        let items = vec![1u64; 50_000];
        // Reconstruct "index of last item" via offsets to prove they're global.
        let max_idx = par_chunk_reduce(
            &items,
            100,
            1,
            |start, chunk| start + chunk.len() - 1,
            std::cmp::max,
        )
        .unwrap();
        assert_eq!(max_idx, items.len() - 1);
    }

    #[test]
    fn chunk_reduce_empty_is_none() {
        let out = par_chunk_reduce(&[] as &[u8], 1, 1, |_, _| 0u8, |a, _| a);
        assert!(out.is_none());
    }

    #[test]
    fn chunk_boundaries_respect_granularity() {
        // Row-major layout: 1000 rows of stride 12, 3 workers. Without
        // granularity rounding the chunk size (4000) is not a multiple of 12
        // and rows would be split across workers.
        let dims = 12usize;
        let rows = 1000usize;
        let items: Vec<u64> = (0..rows * dims).map(|i| i as u64).collect();
        let row_sums = par_chunk_reduce_in(
            3,
            &items,
            1,
            dims,
            |offset, chunk| {
                assert_eq!(offset % dims, 0, "chunk must start on a row boundary");
                assert_eq!(chunk.len() % dims, 0, "chunk must hold whole rows");
                chunk
                    .chunks_exact(dims)
                    .enumerate()
                    .map(|(r, row)| (offset / dims + r, row.iter().sum::<u64>()))
                    .collect::<Vec<_>>()
            },
            |mut a, b| {
                a.extend(b);
                a
            },
        )
        .unwrap();
        assert_eq!(row_sums.len(), rows);
        for (r, (id, sum)) in row_sums.iter().enumerate() {
            assert_eq!(*id, r, "row ids must be global and in order");
            let expect: u64 = ((r * dims)..(r + 1) * dims).map(|i| i as u64).sum();
            assert_eq!(*sum, expect);
        }
    }

    #[test]
    fn par_map_in_is_thread_count_independent() {
        let items: Vec<f64> = (0..10_001).map(|i| (i as f64).sin()).collect();
        let base = par_map_in(1, &items, |&x| x * 1.000001 + 0.5);
        for threads in [2, 3, 8, 64] {
            assert_eq!(
                par_map_in(threads, &items, |&x| x * 1.000001 + 0.5),
                base,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn chunk_reduce_in_matches_any_thread_count() {
        let items: Vec<u64> = (0..12_345).collect();
        let expect: u64 = items.iter().sum();
        for threads in [1, 2, 3, 7, 16] {
            let total = par_chunk_reduce_in(
                threads,
                &items,
                1,
                1,
                |_, chunk| chunk.iter().sum::<u64>(),
                |a, b| a + b,
            )
            .unwrap();
            assert_eq!(total, expect, "threads={threads}");
        }
    }
}
