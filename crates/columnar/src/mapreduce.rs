//! A MapReduce-style parallel engine on `std::thread::scope` — the
//! Hadoop stand-in for analysing hundreds of daily snapshot tables.
//!
//! Work is shared, not pre-split: every worker claims the next unclaimed
//! item from one atomic cursor until none are left, so a run of costly
//! items (the `.com` pages, ~82% of gTLD rows) spreads over every core
//! instead of landing on whichever worker owned that stretch of the
//! slice. Results are always returned in input order, so the output
//! never depends on the thread count or on scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of workers to use (the machine's parallelism, min 1).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parallel map + fold over `items`.
///
/// * `map` turns one item into an accumulator contribution,
/// * `init` produces the identity accumulator,
/// * `combine` merges two accumulators (must be associative).
///
/// Items are folded in contiguous runs, one per worker, and the runs'
/// partials are combined in input order, so any associative `combine`
/// yields stable results.
pub fn par_map_reduce<T, A, M, I, C>(items: &[T], map: M, init: I, combine: C) -> A
where
    T: Sync,
    A: Send,
    M: Fn(&T) -> A + Sync,
    I: Fn() -> A + Sync,
    C: Fn(A, A) -> A + Sync,
{
    let chunk = items.len().div_ceil(default_workers().max(1)).max(1);
    let runs: Vec<&[T]> = items.chunks(chunk).collect();
    let partials = par_map(&runs, |run| run.iter().map(&map).fold(init(), &combine));
    partials.into_iter().fold(init(), combine)
}

/// Parallel map preserving order: `out[i] == f(&items[i])`.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_on(default_workers(), items, f)
}

/// [`par_map`] on at most `workers` threads.
fn par_map_on<T, U, F>(workers: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut indexed: Vec<(usize, U)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(claim)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_reduce_sums() {
        let items: Vec<u64> = (0..10_000).collect();
        let total = par_map_reduce(&items, |&x| x, || 0u64, |a, b| a + b);
        assert_eq!(total, 10_000 * 9_999 / 2);
    }

    #[test]
    fn map_reduce_empty_and_single() {
        let empty: Vec<u64> = vec![];
        assert_eq!(par_map_reduce(&empty, |&x| x, || 7u64, |a, b| a + b), 7);
        assert_eq!(par_map_reduce(&[5u64], |&x| x, || 0u64, |a, b| a + b), 5);
    }

    /// A non-commutative `combine` (concatenation) still sees the items
    /// in input order.
    #[test]
    fn map_reduce_combines_in_input_order() {
        let items: Vec<u32> = (0..257).collect();
        let joined = par_map_reduce(
            &items,
            |&x| vec![x],
            Vec::new,
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        assert_eq!(joined, items);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u32> = (0..1000).collect();
        let mapped = par_map(&items, |&x| x * 2);
        assert_eq!(mapped, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    /// One very costly item at the front (as `.com` leads the scan's
    /// task list) must not reorder or lose the cheap items behind it.
    #[test]
    fn par_map_keeps_order_under_uneven_costs() {
        let items: Vec<u64> = (0..200).collect();
        let cost = |&x: &u64| -> u64 {
            let spins = if x % 50 == 0 { 200_000 } else { 10 };
            (0..spins).fold(x, |acc, k| acc.wrapping_mul(31).wrapping_add(k)) % 7 + x * 10
        };
        let mapped = par_map_on(4, &items, |x| (*x, cost(x)));
        let expected: Vec<(u64, u64)> = items.iter().map(|x| (*x, cost(x))).collect();
        assert_eq!(mapped, expected);
    }

    #[test]
    fn par_map_with_more_workers_than_items() {
        for n in 1..4u32 {
            let items: Vec<u32> = (0..n).collect();
            assert_eq!(
                par_map_on(8, &items, |&x| x + 1),
                (1..=n).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn par_map_of_nothing_is_empty() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert!(par_map_on(8, &empty, |&x| x).is_empty());
    }

    #[test]
    fn reduce_with_vec_accumulators() {
        // Non-numeric accumulator: collect histogram.
        let items: Vec<u32> = (0..999).map(|i| i % 10).collect();
        let hist = par_map_reduce(
            &items,
            |&x| {
                let mut h = vec![0u32; 10];
                h[x as usize] += 1;
                h
            },
            || vec![0u32; 10],
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        );
        assert_eq!(hist.iter().sum::<u32>(), 999);
        assert_eq!(hist[0], 100);
        assert_eq!(hist[9], 99);
    }
}
