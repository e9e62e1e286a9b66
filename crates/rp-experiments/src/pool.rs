//! A small fork-join helper built on `std::thread::scope`.
//!
//! The experiment sweeps are embarrassingly parallel (one unit of work
//! per generated tree), so a simple shared-counter work queue over
//! scoped threads is all that is needed — no external thread-pool crate,
//! no unsafe code, results returned in input order.
//!
//! [`parallel_map_with`] additionally pins **one worker-local state**
//! per thread (created by a caller factory when the worker starts and
//! dropped when the queue drains). The sweep harness uses it to give
//! every worker its own `HeuristicState` buffers, LP workspace and kept
//! tree, so the allocation-free steady state of the heuristics also
//! holds under the parallel runner — trees mix freely in one queue
//! without any shared mutable solver state.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use by default: the machine's available
/// parallelism, capped so tiny jobs do not spawn dozens of threads.
pub fn default_threads(work_items: usize) -> usize {
    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    hardware.min(work_items.max(1)).max(1)
}

/// Applies `f` to every item, in parallel over `threads` workers, and
/// returns the results in input order.
///
/// Items are handed out through a shared atomic counter, so long and
/// short work items mix freely without static partitioning imbalance.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(items, threads, || (), |item, ()| f(item))
}

/// [`parallel_map`] with a per-worker pinned state: `init` runs once on
/// each worker thread (and once inline for the sequential fallback),
/// and `f` receives a mutable reference to that worker's state for
/// every item it processes.
///
/// The state lives as long as the worker, so buffers placed inside it
/// (heuristic scratch, LP workspaces, recycled trees) are reused across
/// every item the worker claims — the parallel counterpart of holding
/// one workspace across a sequential loop.
pub fn parallel_map_with<T, R, S, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&T, &mut S) -> R + Sync,
{
    let threads = threads.max(1);
    if threads == 1 || items.len() <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(item, &mut state)).collect();
    }

    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= items.len() {
                        break;
                    }
                    let value = f(&items[index], &mut state);
                    *results[index].lock().expect("result slot poisoned") = Some(value);
                }
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was processed by some worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(&items, 4, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let counter = AtomicU64::new(0);
        let items: Vec<u32> = (0..500).collect();
        let results = parallel_map(&items, 8, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(results.len(), 500);
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn single_thread_falls_back_to_sequential() {
        let items = vec![1, 2, 3];
        let results = parallel_map(&items, 1, |&x| x + 1);
        assert_eq!(results, vec![2, 3, 4]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7], 4, |&x| x * 3), vec![21]);
    }

    #[test]
    fn default_threads_is_positive_and_bounded() {
        assert!(default_threads(0) >= 1);
        assert!(default_threads(1) == 1);
        assert!(default_threads(1000) >= 1);
    }

    #[test]
    fn worker_state_is_pinned_per_thread_and_reused() {
        // Each worker's state counts the items it processed; the total
        // across workers must cover every item exactly once, and with a
        // single thread the one state must see every item.
        let items: Vec<u32> = (0..200).collect();
        let processed = AtomicU64::new(0);
        let results = parallel_map_with(
            &items,
            4,
            || 0u64,
            |&x, seen| {
                *seen += 1;
                processed.fetch_add(1, Ordering::Relaxed);
                (x, *seen)
            },
        );
        assert_eq!(results.len(), 200);
        assert_eq!(processed.load(Ordering::Relaxed), 200);
        // `seen` grows within a worker: at least one worker processed
        // more than one item, proving the state persisted across items.
        assert!(results.iter().any(|&(_, seen)| seen > 1));

        let sequential = parallel_map_with(
            &items,
            1,
            || 0u64,
            |&x, seen| {
                *seen += 1;
                (x, *seen)
            },
        );
        // Single worker: the running count is exactly the 1-based index.
        for (i, &(_, seen)) in sequential.iter().enumerate() {
            assert_eq!(seen, i as u64 + 1);
        }
    }

    #[test]
    fn unbalanced_work_is_still_completed() {
        // Items with very different costs: the shared counter must keep
        // all workers busy and produce every result.
        let items: Vec<u64> = (0..64).collect();
        let results = parallel_map(&items, 4, |&x| {
            let mut acc = 0u64;
            let rounds = if x % 7 == 0 { 50_000 } else { 10 };
            for i in 0..rounds {
                acc = acc.wrapping_add(i ^ x);
            }
            acc
        });
        assert_eq!(results.len(), 64);
    }
}
