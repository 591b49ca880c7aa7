//! Zero-dependency deterministic parallel mapping.
//!
//! The rewrite pipeline's parallel stages all reduce to "apply a pure
//! function to every index and reassemble the results in index order".
//! [`map_indexed`] implements exactly that on scoped `std::thread` workers
//! pulling indices from a shared atomic counter: scheduling is racy, but
//! because each element is produced by a pure function of its index and
//! the results are reassembled positionally, the output is bit-identical
//! for every worker count (including 1, which runs inline with no
//! threads at all).
//!
//! The callers are the rewrite pipeline's per-unit stages (scan's
//! translatability check, transform, incremental re-emission,
//! regeneration slot sizing). The analyses themselves are
//! sequential: at ~75 ns per instruction there is nothing for a fan-out
//! to win.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Fewest items that repay one spawned worker. Spawning and joining a
/// scoped thread costs 16 us in a bare loop on the 2-vCPU reference host
/// and ~50 us inside a rewrite (cold stack, contended allocator), while
/// one item — emitting one rewrite unit — costs 4 us (a small process's
/// patch site) to 20 us (a batched MB-binary region): a worker needs
/// about eight items before it saves what it cost. Uncapped, rewriting a
/// five-unit program (three fan-outs) took 96 us inline, 392 us at two
/// workers and 868 us at eight.
const MIN_ITEMS_PER_WORKER: usize = 8;

/// Applies `f` to every index in `0..n` and returns the results in index
/// order, fanning the work out over at most `workers` scoped threads —
/// fewer when `n` is small: one per `MIN_ITEMS_PER_WORKER` (eight) items.
///
/// When that leaves at most one worker (`workers <= 1`, or `n` below
/// twice the floor) the map runs sequentially on the calling thread —
/// the same closure on the same indices — so the sequential path is the
/// parallel path minus the threads, not a separate implementation.
pub fn map_indexed<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(n / MIN_ITEMS_PER_WORKER);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("map_indexed worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for part in parts {
        for (i, v) in part {
            slots[i] = Some(v);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index produced exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_across_worker_counts() {
        let expect: Vec<usize> = (0..1000).map(|i| i * 7 + 3).collect();
        for workers in [1, 2, 4, 8] {
            assert_eq!(map_indexed(workers, 1000, |i| i * 7 + 3), expect);
        }
    }

    /// Below twice the per-worker floor nothing is spawned; at it, every
    /// item runs on a spawned worker. Output is the same on both sides.
    #[test]
    fn small_inputs_run_on_the_calling_thread() {
        let me = std::thread::current().id();
        let floor = 2 * MIN_ITEMS_PER_WORKER;
        for workers in [1, 2, 4, 8] {
            for n in [0, 1, floor - 1, floor, floor + 1, 10 * floor] {
                let ran = map_indexed(workers, n, |i| (i * 7 + 3, std::thread::current().id()));
                let inline = workers == 1 || n < floor;
                for (i, (v, thread)) in ran.into_iter().enumerate() {
                    assert_eq!(v, i * 7 + 3, "{workers} workers, n = {n}");
                    assert_eq!(thread == me, inline, "{workers} workers, n = {n}");
                }
            }
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(map_indexed(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(8, 1, |i| i + 1), vec![1]);
    }
}
