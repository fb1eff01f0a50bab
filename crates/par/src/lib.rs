//! Deterministic fork-join helpers for the columnar executor.
//!
//! The executor's filters and hash-join probes map over fixed batch
//! boundaries, so their batches can be processed concurrently. This crate
//! provides the worker budget and an order-preserving parallel map built on
//! `std::thread::scope` (the build container carries no external crates, so
//! no rayon). Results are merged in input order, which is what makes a
//! parallel section bit-identical to a serial one.
//!
//! Trading does not fan out here: a seller answers on the calling thread.
//! The simulator charges a round as its slowest seller, and the real
//! transports run one thread per node, so sellers are concurrent where the
//! system models them as autonomous machines.
//!
//! Thread budget resolution, in priority order:
//! 1. the `QT_THREADS` environment variable (useful to force >1 worker in
//!    tests on single-core CI hosts, or `1` to pin everything serial);
//! 2. `std::thread::available_parallelism()`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Host core count, computed once. `available_parallelism` re-reads cgroup
/// limits on every call (~10µs on some kernels), which is far too slow for a
/// per-operator budget check.
fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The worker budget for parallel sections (≥ 1). `QT_THREADS` is re-read on
/// every call (it is cheap, and tests set it after process start); the host
/// core count is cached.
pub fn max_threads() -> usize {
    if let Ok(v) = std::env::var("QT_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    host_parallelism()
}

/// Order-preserving parallel map over shared references.
///
/// Work-steals single items off an atomic cursor — better balance than
/// chunking when per-item cost varies (a probe batch that hits many build
/// rows) — then reassembles results in input order. Falls back to a plain
/// serial map when the budget or the input is too small to win anything.
pub fn par_map_ref<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.min(n).max(1);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let cursor = &cursor;
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(&items[i])));
                }
                local
            }));
        }
        for h in handles {
            tagged.extend(h.join().expect("qt-par worker panicked"));
        }
    });
    tagged.sort_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_ref_matches_serial_for_any_thread_count() {
        let items: Vec<u64> = (0..101).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(par_map_ref(&items, threads, |x| x * x), serial);
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_ref(&empty, 8, |x| *x).is_empty());
        assert_eq!(par_map_ref(&[42u32], 8, |x| x + 1), vec![43]);
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }
}
