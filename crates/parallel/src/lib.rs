//! # flowsched-parallel
//!
//! Minimal data-parallel substrate for experiment sweeps and the
//! sharded engine.
//!
//! The paper's Figure 10 sweep alone solves ~63 000 LPs (2 strategies ×
//! 21 biases × 15 interval sizes × 100 permutations); runs are independent,
//! so an embarrassingly-parallel `par_map` is all we need. The build
//! environment is offline, so this crate is built on `std` alone —
//! `std::thread::scope`, `std::sync::mpsc` and atomics:
//!
//! - [`par_map`]: order-preserving parallel map with atomic work stealing.
//! - [`sharded`]: the sharded dispatch runtime — routes an arrival
//!   stream to per-shard dispatchers over bounded queues and merges the
//!   decisions back in strict arrival order, bitwise-identical to a
//!   sequential run.
//!
//! Both propagate panics from worker closures to the caller and run
//! sequentially when parallelism cannot pay (tiny inputs, one worker).

pub mod sharded;

pub use sharded::ShardedConfig;

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads used by the free functions: the machine's
/// available parallelism, overridable (mainly for tests) with the
/// `FLOWSCHED_THREADS` environment variable.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("FLOWSCHED_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(4)
}

/// Inputs smaller than this run sequentially — spawning threads for a
/// handful of items costs more than it saves.
const SEQUENTIAL_CUTOFF: usize = 8;

/// Parallel, order-preserving map: `par_map(xs, f)[i] == f(&xs[i])`.
///
/// ```
/// use flowsched_parallel::par_map;
///
/// let xs: Vec<u64> = (0..100).collect();
/// let squares = par_map(&xs, |&x| x * x);
/// assert_eq!(squares[7], 49);
/// assert_eq!(squares.len(), 100);
/// ```
///
/// Work distribution is dynamic: workers repeatedly claim the next
/// unprocessed index from a shared atomic counter, so uneven per-item
/// costs (e.g. LP solves of varying difficulty) balance automatically.
///
/// # Panics
/// If `f` panics on any item, the panic is propagated to the caller
/// (`std::thread::scope` joins all workers first).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = default_threads().min(items.len().max(1));
    if items.len() <= SEQUENTIAL_CUTOFF || threads <= 1 {
        return items.iter().map(&f).collect();
    }

    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let cursor = AtomicUsize::new(0);

    // Results travel back over a channel keyed by index; the receiver
    // fills the ordered slots, so no unsafe slice splitting is needed.
    let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            s.spawn(move || {
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(&items[i]);
                    // The receiver outlives the workers; send only fails
                    // while the caller is already unwinding.
                    let _ = tx.send((i, r));
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            slots[i] = Some(r);
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential() {
        let xs: Vec<u64> = (0..1000).collect();
        let par = par_map(&xs, |&x| x * x + 1);
        let seq: Vec<u64> = xs.iter().map(|&x| x * x + 1).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn par_map_preserves_order_under_uneven_cost() {
        let xs: Vec<usize> = (0..200).collect();
        let out = par_map(&xs, |&x| {
            if x % 17 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            x
        });
        assert_eq!(out, xs);
    }

    #[test]
    fn par_map_empty_and_tiny() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[5u32], |&x| x + 1), vec![6]);
    }

    #[test]
    fn panics_propagate() {
        let xs: Vec<usize> = (0..100).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(&xs, |&x| {
                if x == 57 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn nested_par_map_does_not_deadlock() {
        let xs: Vec<usize> = (0..32).collect();
        let out = par_map(&xs, |&x| {
            let ys: Vec<usize> = (0..16).collect();
            par_map(&ys, |&y| x * y).iter().sum::<usize>()
        });
        let expected: Vec<usize> = xs.iter().map(|&x| x * (0..16).sum::<usize>()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
