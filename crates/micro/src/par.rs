//! One ordered parallel map for the experiment sweeps.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `items` on up to `threads` scoped worker threads (`0` =
/// all available cores). Each worker claims the next unclaimed index, and
/// the results come back in item order, so the output is the same for any
/// thread count as long as `f` is a pure function of its index and item.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
        n => n,
    };
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads.min(items.len().max(1)) {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(idx) else { break };
                let r = f(idx, item);
                results.lock().expect("poisoned").push((idx, r));
            });
        }
    });
    let mut results: Vec<(usize, R)> = results.into_inner().expect("poisoned");
    results.sort_by_key(|&(idx, _)| idx);
    results.into_iter().map(|(_, r)| r).collect()
}
