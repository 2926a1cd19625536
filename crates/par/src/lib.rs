//! Deterministic parallel execution helpers.
//!
//! The S3 pipeline's training and analysis paths — pairwise event mining,
//! k-means, the gap statistic's reference fits — and the figure sweeps are
//! embarrassingly parallel, but the repository guarantees **bit-for-bit
//! reproducibility**: for a fixed seed, every experiment binary must write
//! byte-identical CSVs regardless of thread count. This crate provides the
//! primitive those paths need, built on
//! [`std::thread::scope`] (zero dependencies), with determinism as a
//! structural property rather than a convention: [`par_map`] is an
//! order-preserving map — the output vector is ordered by input index, no
//! matter which worker computed which element.
//!
//! At `threads <= 1` it runs sequentially on the caller's thread (no
//! spawn); callers therefore need no separate sequential code path.
//!
//! That map and the thread-count helpers below are the whole crate. The
//! sharded replay engine in `s3-wlan` runs its own threads, on
//! [`std::sync::mpsc::sync_channel`]s.
//!
//! # Thread-count resolution
//!
//! [`resolve_threads`] maps an optional request (CLI flag, config field) to
//! an effective count: an explicit `Some(n)` wins, otherwise the
//! `S3_THREADS` environment variable, otherwise
//! [`std::thread::available_parallelism`]. `0` means "auto" everywhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;

use s3_obs::{Desc, Stability, Unit};

// Execution-layer metrics (documented in docs/METRICS.md). Call counts are
// thread-invariant (every thread count performs the same calls); the
// worker-spawn total is a function of the thread count and is therefore
// volatile — it must never appear in stable snapshots.
static MAP_CALLS: Desc = Desc {
    name: "par.map_calls",
    help: "par_map invocations",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static WORKERS_SPAWNED: Desc = Desc {
    name: "par.workers_spawned",
    help: "Worker threads spawned (0 for inline sequential runs)",
    unit: Unit::Count,
    stability: Stability::Volatile,
};

/// Environment variable overriding the default thread count.
pub const THREADS_ENV: &str = "S3_THREADS";

/// Hard cap on worker threads, a guard against absurd requests.
pub const MAX_THREADS: usize = 256;

/// The machine's available parallelism (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves an optional thread-count request to an effective count:
/// `request` (if `Some` and non-zero), else `S3_THREADS` (if set, parseable
/// and non-zero), else [`available_threads`]. The result is clamped to
/// `1..=`[`MAX_THREADS`].
pub fn resolve_threads(request: Option<usize>) -> usize {
    let requested = match request {
        Some(n) if n > 0 => n,
        _ => std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(available_threads),
    };
    requested.clamp(1, MAX_THREADS)
}

/// Order-preserving parallel map: `out[i] = f(i, &items[i])`.
///
/// Items are dealt to at most `threads` workers in contiguous index ranges;
/// each worker returns its range's results, which are reassembled by range
/// position. The output is byte-identical to the sequential map for any
/// `threads`, provided `f` is a pure function of `(index, item)`.
///
/// `threads <= 1` (or fewer than two items) runs inline without spawning.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    s3_obs::global().counter(&MAP_CALLS).inc();
    let threads = threads.clamp(1, MAX_THREADS).min(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let ranges = split_ranges(items.len(), threads);
    s3_obs::global()
        .counter(&WORKERS_SPAWNED)
        .add(ranges.len() as u64);
    let mut parts: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|range| {
                let f = &f;
                let chunk = &items[range.clone()];
                let base = range.start;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(offset, x)| f(base + offset, x))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(items.len());
    for part in parts.iter_mut() {
        out.append(part);
    }
    out
}

/// Splits `0..len` into `parts` contiguous, near-equal, non-empty ranges.
fn split_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.min(len).max(1);
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_prefers_explicit_request() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(100_000)), MAX_THREADS);
        assert!(resolve_threads(None) >= 1);
        assert!(resolve_threads(Some(0)) >= 1);
    }

    #[test]
    fn split_ranges_tile_exactly() {
        for len in [0usize, 1, 2, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, 33] {
                let ranges = split_ranges(len, parts);
                let mut expected_start = 0;
                for r in &ranges {
                    assert_eq!(r.start, expected_start);
                    assert!(!r.is_empty() || len == 0);
                    expected_start = r.end;
                }
                assert_eq!(expected_start, len);
            }
        }
    }

    #[test]
    fn par_map_preserves_order_for_any_thread_count() {
        let items: Vec<u64> = (0..1_000).collect();
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 2 + i as u64)
            .collect();
        for threads in [1, 2, 3, 7, 8, 64] {
            let got = par_map(&items, threads, |i, &x| x * 2 + i as u64);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_small_inputs() {
        assert_eq!(par_map::<u8, u8, _>(&[], 8, |_, &x| x), Vec::<u8>::new());
        assert_eq!(par_map(&[5u8], 8, |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn par_map_uses_multiple_threads_when_asked() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map(&items, 4, |_, &x| {
            seen.lock().unwrap().insert(std::thread::current().id());
            x
        });
        assert!(seen.lock().unwrap().len() > 1, "expected work on >1 thread");
    }
}
